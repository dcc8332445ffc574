//! Incrementally-maintained per-column value statistics.
//!
//! Every [`crate::Relation`] carries one [`ColumnStats`] per column,
//! updated alongside the dedup map and the composite indexes on insert,
//! tombstone and revival. The counts are **exact** — one entry per
//! distinct live value, counting the live rows holding it — so they are a
//! pure function of the live instance: any sequence of mutations ending in
//! the same live rows yields bit-identical statistics. That purity is what
//! lets the cost-based planner consume them without threatening the
//! engine's determinism contract.
//!
//! The planner reads three things: the relation's live cardinality
//! (maintained on [`crate::Relation`] itself), a column's distinct-value
//! count ([`ColumnStats::distinct`], the `V(R, a)` of the textbook
//! selectivity formulas), and the exact frequency of a constant
//! ([`ColumnStats::count_of`]) — the "most-common-value sketch" degenerate
//! case where the sketch is simply exact, which the Zipf workloads need to
//! tell the heavy hub apart from the average one.

use crate::hash::FxHashMap;
use crate::value::Value;

/// Exact live-value frequencies of one column.
///
/// Entries are removed as soon as their count reaches zero, so the map's
/// key set is exactly the column's live distinct values and derived
/// equality (used by [`crate::Relation`]'s consistency checks) compares
/// content, never capacity or layout.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ColumnStats {
    counts: FxHashMap<Value, u32>,
}

impl ColumnStats {
    /// Number of distinct live values in the column.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Exact number of live rows whose column holds `v`.
    pub fn count_of(&self, v: &Value) -> usize {
        self.counts.get(v).copied().unwrap_or(0) as usize
    }

    /// The `k` most common values with their counts, ordered by count
    /// descending, ties broken by ascending [`Value`] order — a
    /// deterministic function of the live rows.
    pub fn most_common(&self, k: usize) -> Vec<(Value, u32)> {
        let mut all: Vec<(Value, u32)> = self.counts.iter().map(|(&v, &c)| (v, c)).collect();
        all.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }

    /// Empty statistics with room for `n` distinct values.
    pub(crate) fn with_capacity(n: usize) -> ColumnStats {
        ColumnStats {
            counts: FxHashMap::with_capacity_and_hasher(n, Default::default()),
        }
    }

    /// Release capacity beyond what the live distinct values need.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.counts.shrink_to_fit();
    }

    pub(crate) fn add(&mut self, v: Value) {
        *self.counts.entry(v).or_insert(0) += 1;
    }

    pub(crate) fn remove(&mut self, v: &Value) {
        match self.counts.get_mut(v) {
            Some(c) if *c > 1 => *c -= 1,
            Some(_) => {
                self.counts.remove(v);
            }
            None => debug_assert!(false, "stat decrement for untracked value {v}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_track_adds_and_removes() {
        let mut s = ColumnStats::default();
        s.add(Value::Int(1));
        s.add(Value::Int(1));
        s.add(Value::Int(2));
        assert_eq!(s.distinct(), 2);
        assert_eq!(s.count_of(&Value::Int(1)), 2);
        s.remove(&Value::Int(1));
        assert_eq!(s.count_of(&Value::Int(1)), 1);
        s.remove(&Value::Int(1));
        assert_eq!(s.count_of(&Value::Int(1)), 0);
        assert_eq!(s.distinct(), 1, "zero-count entries are dropped");
    }

    #[test]
    fn most_common_orders_by_count_then_value() {
        let mut s = ColumnStats::default();
        for _ in 0..3 {
            s.add(Value::Int(7));
        }
        for _ in 0..3 {
            s.add(Value::Int(2));
        }
        s.add(Value::Int(9));
        assert_eq!(
            s.most_common(2),
            vec![(Value::Int(2), 3), (Value::Int(7), 3)],
            "ties break on ascending value"
        );
        assert_eq!(s.most_common(10).len(), 3);
    }

    #[test]
    fn equality_ignores_capacity_history() {
        let mut a = ColumnStats::default();
        for i in 0..100 {
            a.add(Value::Int(i));
        }
        for i in 1..100 {
            a.remove(&Value::Int(i));
        }
        let mut b = ColumnStats::default();
        b.add(Value::Int(0));
        assert_eq!(a, b);
    }
}
