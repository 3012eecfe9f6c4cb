//! Exact tracking of the set of distinct agent states visited by a run.
//!
//! The paper's space bounds (`O(k + log n)` for `SimpleAlgorithm`,
//! `O(k·loglog n + log n)` for `ImprovedAlgorithm`) count *states per agent*.
//! A [`Census`] collects the canonical encodings (see
//! [`crate::Protocol::encode`]) of every state any agent ever occupies during
//! a run; its cardinality is an empirical lower bound on — and in practice an
//! accurate measurement of — the protocol's used state-space size.

use std::collections::HashSet;

/// A set of distinct visited state encodings.
#[derive(Debug, Default, Clone)]
pub struct Census {
    seen: HashSet<u64>,
}

impl Census {
    /// An empty census.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one visited state encoding.
    #[inline]
    pub fn record(&mut self, encoding: u64) {
        self.seen.insert(encoding);
    }

    /// Number of distinct states visited.
    pub fn len(&self) -> usize {
        self.seen.len()
    }

    /// `true` iff no state was recorded yet.
    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_distinct_only() {
        let mut c = Census::new();
        assert!(c.is_empty());
        c.record(1);
        c.record(1);
        c.record(2);
        assert_eq!(c.len(), 2);
    }
}
