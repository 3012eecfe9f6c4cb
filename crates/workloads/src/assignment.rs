//! Per-agent opinion assignments.

use crate::counts::Counts;

/// One opinion per agent, expanded from a [`Counts`] vector.
///
/// Opinion identifiers are `1..=k`, matching the paper's numbering (the
/// ordered `SimpleAlgorithm` uses opinion 1 as the first defender and
/// opinion `i + 1` as the challenger of tournament `i`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpinionAssignment {
    counts: Counts,
    opinions: Vec<u16>,
}

impl OpinionAssignment {
    /// Expand a support vector into per-agent opinions.
    ///
    /// # Panics
    ///
    /// Panics if `k` exceeds `u16::MAX`.
    pub fn from_counts(counts: Counts) -> Self {
        assert!(counts.k() <= usize::from(u16::MAX), "opinion ids are u16");
        let mut opinions = Vec::with_capacity(counts.n());
        for (idx, &support) in counts.supports().iter().enumerate() {
            let op = (idx + 1) as u16;
            opinions.extend(std::iter::repeat_n(op, support));
        }
        Self { counts, opinions }
    }

    /// Number of agents.
    pub fn n(&self) -> usize {
        self.opinions.len()
    }

    /// Number of opinions.
    pub fn k(&self) -> usize {
        self.counts.k()
    }

    /// The per-agent opinions (`1..=k`).
    pub fn opinions(&self) -> &[u16] {
        &self.opinions
    }

    /// The underlying support vector.
    pub fn counts(&self) -> &Counts {
        &self.counts
    }

    /// The unique plurality opinion, as a `u32` protocol output.
    pub fn plurality(&self) -> u32 {
        u32::from(self.counts.plurality())
    }

    /// Support of the plurality opinion.
    pub fn x_max(&self) -> usize {
        self.counts.x_max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_matches_counts() {
        let counts = Counts::from_supports(vec![3, 2, 1]);
        let a = counts.assignment();
        assert_eq!(a.n(), 6);
        assert_eq!(a.opinions(), &[1, 1, 1, 2, 2, 3]);
        assert_eq!(a.plurality(), 1);
    }

    #[test]
    fn per_opinion_tallies_roundtrip() {
        let counts = Counts::bias_one(997, 9);
        let a = counts.assignment();
        let mut tally = vec![0usize; a.k()];
        for &op in a.opinions() {
            tally[usize::from(op) - 1] += 1;
        }
        assert_eq!(tally, a.counts().supports());
    }
}
