//! A resumable index over end-semantics provenance hyperedges.
//!
//! Every recorded [`Assignment`] is one derivation hyperedge: the tuples its
//! body binds (base atoms positively, delta atoms through `Δ`) support the
//! head tuple. Incremental re-repair needs to answer, per tuple and without
//! re-enumerating the database:
//!
//! * which assignments **derive** `t` (`Δ(t)` loses membership when all of
//!   them die — the over-delete/re-derive phases of DRed);
//! * which assignments **use** `t` as a base binding (they die when `t`
//!   leaves the EDB);
//! * which assignments **use** `t` as a delta binding (they die when `Δ(t)`
//!   leaves the delta fixpoint).
//!
//! The index is *resumable*: new assignments discovered by a change-seeded
//! round are [`SupportIndex::push`]ed without touching existing entries, and
//! [`SupportIndex::retain`] drops a set of dead assignments while reusing
//! the entries of every untouched tuple. Assignment identity is the caller's
//! index into its own assignment store.

use datalog::Assignment;
use storage::{FxHashMap, TupleId};

/// Per-tuple adjacency of the provenance hypergraph. See the
/// [module docs](self).
#[derive(Clone, Debug, Default)]
pub struct SupportIndex {
    by_head: FxHashMap<TupleId, Vec<u32>>,
    by_base: FxHashMap<TupleId, Vec<u32>>,
    by_delta: FxHashMap<TupleId, Vec<u32>>,
    len: usize,
}

impl SupportIndex {
    /// Empty index.
    pub fn new() -> SupportIndex {
        SupportIndex::default()
    }

    /// Index an assignment store wholesale: assignment `i` gets id `i`.
    pub fn build(assignments: &[Assignment]) -> SupportIndex {
        let mut idx = SupportIndex::new();
        for (i, a) in assignments.iter().enumerate() {
            idx.push(i as u32, a);
        }
        idx
    }

    /// Number of assignments indexed.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the index empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Index one new assignment under id `id` (resume point of the
    /// incremental engine: ids keep counting where the last sync stopped).
    /// Duplicate body bindings are recorded once per flavor.
    pub fn push(&mut self, id: u32, a: &Assignment) {
        self.by_head.entry(a.head).or_default().push(id);
        for b in &a.body {
            let map = if b.is_delta {
                &mut self.by_delta
            } else {
                &mut self.by_base
            };
            let ids = map.entry(b.tid).or_default();
            if ids.last() != Some(&id) {
                ids.push(id);
            }
        }
        self.len += 1;
    }

    /// Ids of assignments deriving `t`.
    pub fn deriving(&self, t: TupleId) -> &[u32] {
        self.by_head.get(&t).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Ids of assignments using `t` as a base binding.
    pub fn base_uses(&self, t: TupleId) -> &[u32] {
        self.by_base.get(&t).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Ids of assignments using `t` as a delta binding.
    pub fn delta_uses(&self, t: TupleId) -> &[u32] {
        self.by_delta.get(&t).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Drop dead assignments, keeping id `i` iff `keep(i)`, and remap every
    /// surviving id through `remap` (the caller compacts its assignment
    /// store alongside). Entries of tuples only touched by surviving
    /// assignments are reused, not rebuilt; tuples left with no assignments
    /// disappear from the index.
    pub fn retain(&mut self, mut keep: impl FnMut(u32) -> bool, mut remap: impl FnMut(u32) -> u32) {
        for map in [&mut self.by_head, &mut self.by_base, &mut self.by_delta] {
            map.retain(|_, ids| {
                ids.retain(|&i| keep(i));
                for i in ids.iter_mut() {
                    *i = remap(*i);
                }
                !ids.is_empty()
            });
        }
        // Every assignment has exactly one head entry, so the surviving
        // head ids are exactly the surviving assignments.
        self.len = self.by_head.values().map(Vec::len).sum();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalog::eval::BodyBind;
    use storage::RelId;

    fn tid(rel: u16, row: u32) -> TupleId {
        TupleId::new(RelId(rel), row)
    }

    fn asg(head: TupleId, body: &[(TupleId, bool)]) -> Assignment {
        Assignment {
            rule: 0,
            head,
            body: body
                .iter()
                .map(|&(t, d)| BodyBind {
                    tid: t,
                    is_delta: d,
                })
                .collect(),
        }
    }

    #[test]
    fn indexes_heads_and_both_body_flavors() {
        let a0 = asg(tid(0, 0), &[(tid(0, 0), false), (tid(1, 0), true)]);
        let a1 = asg(tid(0, 1), &[(tid(0, 1), false), (tid(1, 0), true)]);
        let idx = SupportIndex::build(&[a0, a1]);
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.deriving(tid(0, 0)), &[0]);
        assert_eq!(idx.deriving(tid(0, 1)), &[1]);
        assert_eq!(idx.base_uses(tid(0, 0)), &[0]);
        assert_eq!(idx.delta_uses(tid(1, 0)), &[0, 1]);
        assert_eq!(idx.delta_uses(tid(9, 9)), &[] as &[u32]);
    }

    #[test]
    fn duplicate_bindings_recorded_once_per_flavor() {
        // Same tuple twice as base, and once as delta: one base entry, one
        // delta entry.
        let a = asg(
            tid(0, 0),
            &[(tid(2, 5), false), (tid(2, 5), false), (tid(2, 5), true)],
        );
        let idx = SupportIndex::build(std::slice::from_ref(&a));
        assert_eq!(idx.base_uses(tid(2, 5)), &[0]);
        assert_eq!(idx.delta_uses(tid(2, 5)), &[0]);
    }

    #[test]
    fn push_resumes_and_retain_compacts() {
        let a0 = asg(tid(0, 0), &[(tid(1, 0), false)]);
        let a1 = asg(tid(0, 1), &[(tid(1, 0), false)]);
        let mut idx = SupportIndex::build(&[a0, a1]);
        let a2 = asg(tid(0, 2), &[(tid(1, 1), false)]);
        idx.push(2, &a2);
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.base_uses(tid(1, 0)), &[0, 1]);

        // Drop assignment 1; survivors 0 and 2 compact to 0 and 1.
        let keep = [true, false, true];
        let remap = [0u32, u32::MAX, 1u32];
        idx.retain(|i| keep[i as usize], |i| remap[i as usize]);
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.base_uses(tid(1, 0)), &[0]);
        assert_eq!(idx.base_uses(tid(1, 1)), &[1]);
        assert_eq!(idx.deriving(tid(0, 1)), &[] as &[u32]);
    }
}
