//! Phase schedules: mapping a circular counter position to a phase index.

/// A cyclic schedule of phases with individual lengths.
///
/// The paper gives all ten tournament phases the same length Θ(log n). We
/// generalise to per-phase lengths `Ψ_p` (still Θ(log n) each, so the total
/// state count is unchanged) because the *match* phase needs a much larger
/// constant than the buffer phases.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSchedule {
    /// `ends[p]` is the exclusive end of phase `p`; `ends.last() == period`.
    ends: Vec<u32>,
}

impl PhaseSchedule {
    /// Build from explicit phase lengths.
    ///
    /// # Panics
    ///
    /// Panics if `lengths` is empty or any length is zero.
    pub fn from_lengths(lengths: &[u32]) -> Self {
        assert!(!lengths.is_empty(), "schedule needs at least one phase");
        assert!(
            lengths.iter().all(|&l| l > 0),
            "phase lengths must be positive"
        );
        let mut ends = Vec::with_capacity(lengths.len());
        let mut acc = 0u32;
        for &l in lengths {
            acc = acc.checked_add(l).expect("schedule period overflows u32");
            ends.push(acc);
        }
        Self { ends }
    }

    /// A uniform schedule of `phases` phases of `len` counter units each
    /// (the paper's original layout).
    pub fn uniform(phases: usize, len: u32) -> Self {
        Self::from_lengths(&vec![len; phases])
    }

    /// Total counter period (`Σ Ψ_p`).
    pub fn period(&self) -> u32 {
        *self.ends.last().expect("non-empty")
    }

    /// Number of phases.
    pub fn phases(&self) -> usize {
        self.ends.len()
    }

    /// The phase containing counter position `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g >= period()`.
    pub fn phase_of(&self, g: u32) -> u8 {
        assert!(
            g < self.period(),
            "counter {g} outside period {}",
            self.period()
        );
        // Phase `p` spans `ends[p − 1] ≤ g < ends[p]`, so `p` is the number
        // of phase ends at or below `g`. A linear count over the few ends
        // takes no data-dependent branch, unlike a binary search.
        self.ends.iter().filter(|&&end| end <= g).count() as u8
    }

    /// Length of phase `p`.
    pub fn len_of(&self, p: u8) -> u32 {
        let p = usize::from(p);
        let start = if p == 0 { 0 } else { self.ends[p - 1] };
        self.ends[p] - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_layout() {
        let s = PhaseSchedule::uniform(10, 7);
        assert_eq!(s.period(), 70);
        assert_eq!(s.phases(), 10);
        assert_eq!(s.phase_of(0), 0);
        assert_eq!(s.phase_of(6), 0);
        assert_eq!(s.phase_of(7), 1);
        assert_eq!(s.phase_of(69), 9);
        assert_eq!(s.len_of(3), 7);
    }

    #[test]
    fn ragged_layout() {
        let s = PhaseSchedule::from_lengths(&[2, 5, 1]);
        assert_eq!(s.period(), 8);
        let phases: Vec<u8> = (0..8).map(|g| s.phase_of(g)).collect();
        assert_eq!(phases, vec![0, 0, 1, 1, 1, 1, 1, 2]);
        assert_eq!(s.len_of(0), 2);
        assert_eq!(s.len_of(1), 5);
        assert_eq!(s.len_of(2), 1);
    }

    /// The phase of `g` by binary search over the phase ends.
    fn phase_by_search(s: &PhaseSchedule, g: u32) -> u8 {
        match s.ends.binary_search(&g) {
            Ok(i) => (i + 1) as u8,
            Err(i) => i as u8,
        }
    }

    #[test]
    fn phase_of_matches_binary_search() {
        // The default tuning's phase lengths at n = 4,000 and at n = 10⁶,
        // and the ragged layout.
        let layouts: [&[u32]; 3] = [
            &[59, 17, 42, 17, 42, 17, 200, 17, 34, 17],
            &[97, 28, 70, 28, 70, 28, 332, 28, 56, 28],
            &[2, 5, 1],
        ];
        for lengths in layouts {
            let s = PhaseSchedule::from_lengths(lengths);
            for g in 0..s.period() {
                assert_eq!(
                    s.phase_of(g),
                    phase_by_search(&s, g),
                    "{lengths:?}, g = {g}"
                );
            }
        }
    }

    #[test]
    #[should_panic]
    fn out_of_period_counter_panics() {
        let s = PhaseSchedule::uniform(2, 3);
        let _ = s.phase_of(6);
    }

    #[test]
    #[should_panic]
    fn zero_length_phase_rejected() {
        let _ = PhaseSchedule::from_lengths(&[3, 0]);
    }
}
