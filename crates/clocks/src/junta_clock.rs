//! The junta-driven phase clock of Berenbrink et al. \[11\].
//!
//! Every agent carries a counter `p` (initially 0). When a *junta* agent
//! initiates an interaction it sets `p ← max(p, p_partner + 1)`; a non-junta
//! initiator only pulls the max (`p ← max(p, p_partner)`). The counter's
//! "hours" are blocks of `m` consecutive values: agent `u` *passes through
//! zero for the i-th time* when `⌊p/m⌋ ≥ i` first holds. Hour boundaries are
//! Θ(n log n)-interaction spaced and population-coherent (Lemma 6).
//!
//! The simulation stores `p` as a plain `u64`; a real deployment stores it
//! modulo a constant multiple of `m` with circular comparison, which is how
//! the census accounts it (see [`JuntaClock::encode_counter`]).

/// The clock component: hour length `m` plus the max-propagation rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JuntaClock {
    hour_len: u32,
}

impl JuntaClock {
    /// A clock whose hours are `hour_len` counter units long.
    ///
    /// # Panics
    ///
    /// Panics if `hour_len` is 0.
    pub fn new(hour_len: u32) -> Self {
        assert!(hour_len >= 1);
        Self { hour_len }
    }

    /// Hour length `m`.
    pub fn hour_len(&self) -> u32 {
        self.hour_len
    }

    /// The hour containing counter value `p`.
    #[inline]
    pub fn hour(&self, p: u64) -> u64 {
        p / u64::from(self.hour_len)
    }

    /// Initiator-side clock step; returns how many hour boundaries the
    /// initiator crossed (0 in the common case).
    #[inline]
    pub fn interact(&self, a_is_junta: bool, a: &mut u64, b: u64) -> u64 {
        let target = if a_is_junta {
            (*a).max(b + 1)
        } else {
            (*a).max(b)
        };
        let crossed = self.hour(target) - self.hour(*a);
        *a = target;
        crossed
    }

    /// Census encoding of a counter: a real implementation keeps `p` modulo
    /// `64·m` (with circular max), so distinct simulated values that agree
    /// modulo that window are the same machine state.
    pub fn encode_counter(&self, p: u64) -> u64 {
        p % (64 * u64::from(self.hour_len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hours_partition_the_counter() {
        let c = JuntaClock::new(4);
        assert_eq!(c.hour(0), 0);
        assert_eq!(c.hour(3), 0);
        assert_eq!(c.hour(4), 1);
        assert_eq!(c.hour(9), 2);
    }

    #[test]
    fn junta_initiator_pushes_past_partner() {
        let c = JuntaClock::new(4);
        let mut a = 3u64;
        let crossed = c.interact(true, &mut a, 3);
        assert_eq!(a, 4);
        assert_eq!(crossed, 1);
        // Non-junta only pulls the max.
        let mut x = 0u64;
        let crossed = c.interact(false, &mut x, 9);
        assert_eq!(x, 9);
        assert_eq!(crossed, 2);
        // Pulling backwards never happens.
        let mut y = 9u64;
        c.interact(false, &mut y, 2);
        assert_eq!(y, 9);
    }

    #[test]
    fn census_encoding_wraps_counter() {
        let c = JuntaClock::new(4);
        assert_eq!(c.encode_counter(0), c.encode_counter(256));
        assert_ne!(c.encode_counter(0), c.encode_counter(1));
    }
}
