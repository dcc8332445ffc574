//! The unified fixpoint engine behind end and stage semantics.
//!
//! Definitions 3.7 and 3.10 of the paper share one computational
//! skeleton: repeatedly enumerate the satisfying assignments of the delta
//! program against a database view, derive the head tuples, and fold them
//! into the state — the two semantics differ only in *which view* the
//! body atoms range over ([`Mode`]) and *when* deletions are applied.
//! [`FixpointDriver`] factors that skeleton out; the policy axis is
//! [`DeltaPolicy`]:
//!
//! | policy | view | deletions applied | used by |
//! |--------|------|-------------------|---------|
//! | [`DeltaPolicy::AtEnd`] | frozen base relations (`R ← R⁰`) | once, at the fixpoint | end semantics (Def. 3.10) |
//! | [`DeltaPolicy::PerStage`] | live view (`D^{t-1}`) | between rounds, in one batch | stage semantics (Def. 3.7) |
//!
//! `AtEnd` evaluation is **semi-naive** (each round enumerates only
//! assignments that use at least one frontier tuple, so every assignment is
//! produced exactly once — the provenance stream Algorithm 2 consumes);
//! `AtEnd { naive: true }` keeps the paper prototype's naive re-enumeration
//! as the ablation baseline. `PerStage` must re-enumerate in full each
//! round anyway, because applied deletions change which assignments exist.
//!
//! Stability (Def. 3.12) needs no fixpoint: one [`Round::Full`] over the
//! live view that stops at the first assignment, which is
//! [`Evaluator::find_violation`].

use datalog::{Assignment, DeltaFrontier, EvalScratch, Evaluator, Mode, Round};
use provenance::SupportIndex;
use std::collections::HashMap;
use storage::{DeltaBatch, FxHashSet, Instance, State, TupleId};

/// When (and whether) derived deletions are folded into the running state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DeltaPolicy {
    /// Def. 3.10: grow `Δ` against frozen base relations; apply all
    /// deletions once at the fixpoint. `naive: true` re-enumerates every
    /// assignment each round instead of using the semi-naive frontier.
    AtEnd {
        /// Use naive re-enumeration instead of the semi-naive frontier.
        naive: bool,
    },
    /// Def. 3.7: derive a whole round against the previous state, then
    /// delete the derived tuples in one batch.
    PerStage,
}

impl DeltaPolicy {
    /// The evaluation view this policy ranges body atoms over.
    pub fn mode(self) -> Mode {
        match self {
            DeltaPolicy::AtEnd { .. } => Mode::FrozenBase,
            DeltaPolicy::PerStage => Mode::Current,
        }
    }
}

/// Everything a fixpoint run can report. `assignments` is left empty
/// unless recording is on.
#[derive(Debug)]
pub struct FixpointOutcome {
    /// Final state (deltas applied for `AtEnd`, applied per round for
    /// `PerStage`).
    pub state: State,
    /// All delta tuples, ascending — the semantics' deleted set.
    pub deleted: Vec<TupleId>,
    /// The recorded assignment stream, in derivation order (semi-naive:
    /// each assignment exactly once; naive: the final round's full
    /// enumeration — the seed prototype's behaviour).
    pub assignments: Vec<Assignment>,
    /// 1-based derivation round of each delta tuple (its provenance
    /// *layer*).
    pub layers: HashMap<TupleId, u32>,
    /// Total enumeration rounds, including the final unproductive one.
    pub rounds: u32,
    /// Rounds that derived at least one new tuple (stage counts these).
    pub productive_rounds: u32,
}

/// A configured fixpoint run: an evaluator, a [`DeltaPolicy`], and whether
/// the assignment stream is recorded.
pub struct FixpointDriver<'e> {
    ev: &'e Evaluator,
    policy: DeltaPolicy,
    record: bool,
}

impl<'e> FixpointDriver<'e> {
    /// Driver with the policy's default recording: `AtEnd` records the
    /// assignment stream (it *is* the provenance input of Algorithm 2),
    /// `PerStage` doesn't.
    pub fn new(ev: &'e Evaluator, policy: DeltaPolicy) -> FixpointDriver<'e> {
        FixpointDriver {
            ev,
            policy,
            record: matches!(policy, DeltaPolicy::AtEnd { .. }),
        }
    }

    /// Override assignment-stream recording.
    pub fn record_assignments(mut self, on: bool) -> FixpointDriver<'e> {
        self.record = on;
        self
    }

    /// Run from the instance's initial state.
    pub fn run(&self, db: &Instance) -> FixpointOutcome {
        self.run_from(db, db.initial_state())
    }

    /// Run from an explicit state (the lazy Independent loop closes a
    /// candidate deletion set this way when its deadline passes).
    pub fn run_from(&self, db: &Instance, state: State) -> FixpointOutcome {
        match self.policy {
            DeltaPolicy::AtEnd { naive: false } => self.run_semi_naive(db, state),
            DeltaPolicy::AtEnd { naive: true } | DeltaPolicy::PerStage => {
                self.run_round_based(db, state)
            }
        }
    }

    /// Semi-naive delta-fixpoint (Def. 3.10): round 1 enumerates the rules
    /// without delta atoms; every later round enumerates exactly the
    /// assignments using at least one tuple derived in the previous round.
    fn run_semi_naive(&self, db: &Instance, mut state: State) -> FixpointOutcome {
        let mut assignments: Vec<Assignment> = Vec::new();
        let mut layers: HashMap<TupleId, u32> = HashMap::new();
        // One scratch serves every enumeration round of this run; `queued`
        // dedups heads in O(1) instead of a linear scan per assignment.
        let mut scratch = EvalScratch::new();
        let mut queued: FxHashSet<TupleId> = FxHashSet::default();

        let mut new_heads: Vec<TupleId> = Vec::new();
        let mode = self.policy.mode();
        self.ev
            .enumerate(db, &state, mode, Round::Base, &mut scratch, &mut |a| {
                if !state.in_delta(a.head) && queued.insert(a.head) {
                    new_heads.push(a.head);
                }
                if self.record {
                    assignments.push(a.clone());
                }
                true
            });

        let mut rounds = 1u32;
        let mut productive = 0u32;
        while !new_heads.is_empty() {
            productive += 1;
            let mut frontier = DeltaFrontier::empty(db);
            for &t in &new_heads {
                if state.mark_delta(t) {
                    layers.insert(t, rounds);
                    frontier.insert(t);
                }
            }
            rounds += 1;
            queued.clear();
            let mut next: Vec<TupleId> = Vec::new();
            let round = Round::Frontier(&frontier);
            self.ev
                .enumerate(db, &state, mode, round, &mut scratch, &mut |a| {
                    if !state.in_delta(a.head) && queued.insert(a.head) {
                        next.push(a.head);
                    }
                    if self.record {
                        assignments.push(a.clone());
                    }
                    true
                });
            new_heads = next;
        }

        state.apply_deltas();
        let deleted = state.all_delta_rows();
        FixpointOutcome {
            state,
            deleted,
            assignments,
            layers,
            rounds,
            productive_rounds: productive,
        }
    }

    /// Full re-enumeration each round: the naive end baseline and stage
    /// semantics. Per round, *all* satisfying assignments against the
    /// current state derive heads; then the batch is folded in — marked
    /// (`AtEnd`) or deleted (`PerStage`).
    fn run_round_based(&self, db: &Instance, mut state: State) -> FixpointOutcome {
        let per_stage = self.policy == DeltaPolicy::PerStage;
        let mut assignments: Vec<Assignment> = Vec::new();
        let mut layers: HashMap<TupleId, u32> = HashMap::new();
        let mut rounds = 0u32;
        let mut productive = 0u32;
        let mut scratch = EvalScratch::new();
        let mut queued: FxHashSet<TupleId> = FxHashSet::default();
        let mode = self.policy.mode();
        loop {
            rounds += 1;
            if self.record {
                // Naive evaluation re-derives everything each round; only
                // the final (complete) enumeration is kept.
                assignments.clear();
            }
            queued.clear();
            let mut new_heads: Vec<TupleId> = Vec::new();
            self.ev
                .enumerate(db, &state, mode, Round::Full, &mut scratch, &mut |a| {
                    let fresh = if per_stage {
                        state.is_present(a.head)
                    } else {
                        !state.in_delta(a.head)
                    };
                    if fresh && queued.insert(a.head) {
                        new_heads.push(a.head);
                    }
                    if self.record {
                        assignments.push(a.clone());
                    }
                    true
                });
            if new_heads.is_empty() {
                break;
            }
            productive += 1;
            for t in new_heads {
                if per_stage {
                    state.delete(t);
                } else {
                    state.mark_delta(t);
                }
                layers.insert(t, rounds);
            }
        }
        if !per_stage {
            state.apply_deltas();
        }
        let deleted = state.all_delta_rows();
        FixpointOutcome {
            state,
            deleted,
            assignments,
            layers,
            rounds,
            productive_rounds: productive,
        }
    }
}

/// Checkpoint of the semi-naive end-semantics fixpoint, advanced in place
/// by mutation batches instead of recomputed from scratch.
///
/// The checkpoint holds the delta fixpoint (as [`State`] bits), the **set**
/// of every FrozenBase assignment valid for that fixpoint (the complete
/// derivation hypergraph — semi-naive evaluation enumerates each exactly
/// once), and a resumable [`SupportIndex`] over them. Given the net
/// [`DeltaBatch`] of a mutation window, [`FixpointDriver::advance`] replays
/// only the affected cone:
///
/// * **deletions** run DRed-style over-delete / re-derive entirely on the
///   cached hyperedges — no database enumeration at all;
/// * **insertions** run one change-seeded round (time proportional to the
///   batch's join cone, probing the composite indexes) followed by ordinary
///   semi-naive frontier rounds.
///
/// The final delta set is exactly the fixpoint a from-scratch run over the
/// mutated instance computes; the cached assignment set is maintained to
/// stay exactly the valid hyperedges (in maintenance order, **not** the
/// derivation order a fresh run would record — derivation layers are not
/// maintained, which is why provenance capture falls back to a full run).
#[derive(Debug)]
pub struct EngineState {
    /// Delta bits = the Δ fixpoint. Present bits are a stale snapshot and
    /// never consulted (FrozenBase ignores them).
    state: State,
    /// The valid derivation hyperedges, in maintenance order.
    assignments: Vec<Assignment>,
    /// Per-tuple adjacency over `assignments`.
    support: SupportIndex,
}

/// What one [`FixpointDriver::advance`] did — cone sizes for tests, logs
/// and the DESIGN notes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdvanceStats {
    /// Delta tuples retracted (over-deleted and not re-derived, plus
    /// tombstoned tuples that were in the fixpoint).
    pub retracted: usize,
    /// Over-deleted tuples whose alternative support re-derived them.
    pub rederived: usize,
    /// Cached assignments invalidated and dropped.
    pub dropped_assignments: usize,
    /// New assignments discovered by the seeded and frontier rounds.
    pub new_assignments: usize,
    /// Delta tuples newly added to the fixpoint.
    pub added: usize,
    /// Semi-naive rounds run for the insertion phase (0 when the batch had
    /// no net insertions).
    pub rounds: u32,
}

impl EngineState {
    /// Checkpoint a completed semi-naive run. `out` must come from
    /// [`DeltaPolicy::AtEnd`]`{ naive: false }` with assignment recording
    /// on (the default), so its stream is the complete hyperedge set.
    pub fn from_outcome(out: FixpointOutcome) -> EngineState {
        let support = SupportIndex::build(&out.assignments);
        EngineState {
            state: out.state,
            assignments: out.assignments,
            support,
        }
    }

    /// The fixpoint's delete-set, ascending — identical to the `deleted`
    /// field of a from-scratch [`FixpointOutcome`] over the same instance.
    pub fn deleted(&self) -> Vec<TupleId> {
        self.state.all_delta_rows()
    }

    /// Is `t` in the delta fixpoint?
    pub fn in_delta(&self, t: TupleId) -> bool {
        self.state.in_delta(t)
    }

    /// Number of cached derivation hyperedges.
    pub fn num_assignments(&self) -> usize {
        self.assignments.len()
    }

    /// The cached hyperedges, in maintenance order (a set, not the
    /// derivation-ordered provenance stream).
    pub fn assignments(&self) -> &[Assignment] {
        &self.assignments
    }

    /// Append a newly discovered hyperedge.
    fn push(&mut self, a: Assignment) {
        let id = u32::try_from(self.assignments.len()).expect("assignment cache too large");
        self.support.push(id, &a);
        self.assignments.push(a);
    }
}

impl FixpointDriver<'_> {
    /// Advance `es` over the net mutation `batch`, bringing it to the exact
    /// fixpoint a from-scratch [`FixpointDriver::run`] would compute on the
    /// mutated `db`. Only meaningful for the semi-naive
    /// [`DeltaPolicy::AtEnd`] policy this driver must have been built with.
    ///
    /// Deletions are resolved on the cached hyperedges alone (over-delete
    /// everything reachable from the tombstoned tuples, then re-derive what
    /// keeps alternative support — exact, because the cache holds *every*
    /// derivation). Insertions seed a change-focused enumeration round and
    /// then run ordinary frontier rounds to the new fixpoint.
    pub fn advance(&self, db: &Instance, es: &mut EngineState, batch: &DeltaBatch) -> AdvanceStats {
        debug_assert!(
            matches!(self.policy, DeltaPolicy::AtEnd { naive: false }),
            "incremental maintenance is defined for the semi-naive end fixpoint"
        );
        let mut stats = AdvanceStats::default();

        // ------------------------------------------------------------------
        // Phase 1 — deletions: DRed on the cached hypergraph, no DB access.
        // ------------------------------------------------------------------
        if !batch.deleted.is_empty() {
            let removed: FxHashSet<TupleId> = batch.deleted.iter().copied().collect();
            // Tombstoned tuples leave the fixpoint unconditionally: no live
            // witness can derive them any more.
            let gone: Vec<TupleId> = batch
                .deleted
                .iter()
                .copied()
                .filter(|&t| es.state.in_delta(t))
                .collect();

            // Over-delete: suspect every delta tuple reachable from a
            // removed tuple through any cached derivation.
            let mut suspects: FxHashSet<TupleId> = FxHashSet::default();
            let mut queue: Vec<TupleId> = Vec::new();
            let suspect_heads_of = |ids: &[u32],
                                    assignments: &[Assignment],
                                    suspects: &mut FxHashSet<TupleId>,
                                    queue: &mut Vec<TupleId>| {
                for &ai in ids {
                    let h = assignments[ai as usize].head;
                    if !removed.contains(&h) && suspects.insert(h) {
                        queue.push(h);
                    }
                }
            };
            for &t in &batch.deleted {
                suspect_heads_of(
                    es.support.base_uses(t),
                    &es.assignments,
                    &mut suspects,
                    &mut queue,
                );
                suspect_heads_of(
                    es.support.delta_uses(t),
                    &es.assignments,
                    &mut suspects,
                    &mut queue,
                );
            }
            while let Some(s) = queue.pop() {
                for &ai in es.support.delta_uses(s) {
                    let h = es.assignments[ai as usize].head;
                    if !removed.contains(&h) && suspects.insert(h) {
                        queue.push(h);
                    }
                }
            }

            // Re-derive: a suspect returns if some deriving hyperedge
            // survives on (live base, surviving delta) support. Monotone
            // worklist fixpoint — cycles without external support never
            // fire, so a cyclic derivation island falls as a whole.
            let mut rederived: FxHashSet<TupleId> = FxHashSet::default();
            let edge_ok = |a: &Assignment, rederived: &FxHashSet<TupleId>| {
                a.body.iter().all(|b| {
                    if removed.contains(&b.tid) {
                        false
                    } else if b.is_delta && suspects.contains(&b.tid) {
                        rederived.contains(&b.tid)
                    } else {
                        true
                    }
                })
            };
            let mut wl: Vec<TupleId> = suspects.iter().copied().collect();
            wl.sort_unstable(); // deterministic processing order
            while let Some(s) = wl.pop() {
                if rederived.contains(&s) {
                    continue;
                }
                let derivable = es
                    .support
                    .deriving(s)
                    .iter()
                    .any(|&ai| edge_ok(&es.assignments[ai as usize], &rederived));
                if derivable {
                    rederived.insert(s);
                    for &ai in es.support.delta_uses(s) {
                        let h = es.assignments[ai as usize].head;
                        if suspects.contains(&h) && !rederived.contains(&h) {
                            wl.push(h);
                        }
                    }
                }
            }

            // Retract: tombstoned members plus unsupported suspects.
            for &t in &gone {
                es.state.unmark_delta(t);
                stats.retracted += 1;
            }
            for &s in &suspects {
                if !rederived.contains(&s) && es.state.unmark_delta(s) {
                    stats.retracted += 1;
                }
            }
            stats.rederived = rederived.len();

            // Drop hyperedges that are no longer valid: a base binding left
            // the EDB, or a delta binding left the fixpoint.
            let invalid = |a: &Assignment| {
                a.body.iter().any(|b| {
                    if b.is_delta {
                        !es.state.in_delta(b.tid)
                    } else {
                        removed.contains(&b.tid)
                    }
                })
            };
            let keep: Vec<bool> = es.assignments.iter().map(|a| !invalid(a)).collect();
            if keep.iter().any(|&k| !k) {
                let mut remap = vec![u32::MAX; keep.len()];
                let mut next = 0u32;
                for (i, &k) in keep.iter().enumerate() {
                    if k {
                        remap[i] = next;
                        next += 1;
                    }
                }
                stats.dropped_assignments = keep.len() - next as usize;
                let mut i = 0;
                es.assignments.retain(|_| {
                    let k = keep[i];
                    i += 1;
                    k
                });
                es.support
                    .retain(|id| keep[id as usize], |id| remap[id as usize]);
            }
        }

        // ------------------------------------------------------------------
        // Phase 2 — insertions: one seeded round, then frontier rounds.
        // ------------------------------------------------------------------
        if !batch.inserted.is_empty() {
            let mut seed = DeltaFrontier::empty(db);
            for &t in &batch.inserted {
                seed.insert(t);
            }
            let mut scratch = EvalScratch::new();
            let mut queued: FxHashSet<TupleId> = FxHashSet::default();
            let mut new_heads: Vec<TupleId> = Vec::new();
            let mut found: Vec<Assignment> = Vec::new();
            let mode = self.policy.mode();
            let round = Round::Seeded(&seed);
            self.ev
                .enumerate(db, &es.state, mode, round, &mut scratch, &mut |a| {
                    found.push(a.clone());
                    true
                });
            for a in found.drain(..) {
                if !es.state.in_delta(a.head) && queued.insert(a.head) {
                    new_heads.push(a.head);
                }
                es.push(a);
                stats.new_assignments += 1;
            }

            while !new_heads.is_empty() {
                stats.rounds += 1;
                let mut frontier = DeltaFrontier::empty(db);
                for &t in &new_heads {
                    if es.state.mark_delta(t) {
                        frontier.insert(t);
                        stats.added += 1;
                    }
                }
                queued.clear();
                let mut next: Vec<TupleId> = Vec::new();
                let round = Round::Frontier(&frontier);
                self.ev
                    .enumerate(db, &es.state, mode, round, &mut scratch, &mut |a| {
                        found.push(a.clone());
                        true
                    });
                for a in found.drain(..) {
                    if !es.state.in_delta(a.head) && queued.insert(a.head) {
                        next.push(a.head);
                    }
                    es.push(a);
                    stats.new_assignments += 1;
                }
                new_heads = next;
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{figure1_instance, figure2_program, names_of, tid_of};
    use datalog::Evaluator;

    fn fixture() -> (Instance, Evaluator) {
        let mut db = figure1_instance();
        let ev = Evaluator::new(&mut db, figure2_program()).unwrap();
        (db, ev)
    }

    #[test]
    fn at_end_semi_naive_and_naive_agree() {
        let (db, ev) = fixture();
        let fast = FixpointDriver::new(&ev, DeltaPolicy::AtEnd { naive: false }).run(&db);
        let slow = FixpointDriver::new(&ev, DeltaPolicy::AtEnd { naive: true }).run(&db);
        assert_eq!(fast.deleted, slow.deleted);
        assert_eq!(fast.layers, slow.layers);
        assert_eq!(fast.rounds, slow.rounds, "both count total rounds");
        assert_eq!(fast.deleted.len(), 8);
    }

    #[test]
    fn per_stage_counts_productive_rounds() {
        let (db, ev) = fixture();
        let out = FixpointDriver::new(&ev, DeltaPolicy::PerStage).run(&db);
        assert_eq!(out.productive_rounds, 3, "Example 3.8 runs in three stages");
        assert_eq!(out.rounds, 4, "plus the final unproductive round");
        assert_eq!(out.deleted.len(), 7, "stage drops the Cite tuple");
    }

    #[test]
    fn recording_can_be_disabled() {
        let (db, ev) = fixture();
        let out = FixpointDriver::new(&ev, DeltaPolicy::AtEnd { naive: false })
            .record_assignments(false)
            .run(&db);
        assert!(out.assignments.is_empty());
        assert_eq!(out.deleted.len(), 8, "deleted set unaffected by recording");
    }

    fn advance_matches_fresh(db: &mut Instance, ev: &Evaluator, batch_of: impl Fn(&mut Instance)) {
        let driver = FixpointDriver::new(ev, DeltaPolicy::AtEnd { naive: false });
        let cursor = db.journal().head();
        let mut es = EngineState::from_outcome(driver.run(db));
        batch_of(db);
        let batch = db.changes_since(cursor).expect("journal retained");
        driver.advance(db, &mut es, &batch);
        let fresh = driver.run(db);
        assert_eq!(es.deleted(), fresh.deleted, "incremental ≠ from-scratch");
        // The maintained hyperedge set equals the fresh stream as a set.
        let mut a: Vec<String> = es.assignments().iter().map(|x| format!("{x:?}")).collect();
        let mut b: Vec<String> = fresh.assignments.iter().map(|x| format!("{x:?}")).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b, "cached hyperedges diverged from a fresh enumeration");
    }

    #[test]
    fn advance_absorbs_insertions_like_a_fresh_run() {
        let (mut db, ev) = fixture();
        advance_matches_fresh(&mut db, &ev, |db| {
            // A second ERC grant with a full cascade behind it.
            db.insert_values(
                "Grant",
                [storage::Value::Int(9), storage::Value::str("ERC")],
            )
            .unwrap();
            db.insert_values(
                "AuthGrant",
                [storage::Value::Int(2), storage::Value::Int(9)],
            )
            .unwrap();
        });
    }

    #[test]
    fn advance_absorbs_deletions_like_a_fresh_run() {
        let (mut db, ev) = fixture();
        advance_matches_fresh(&mut db, &ev, |db| {
            // Severing one AuthGrant link prunes part of the cascade.
            let ag = tid_of(db, "AuthGrant(4, 2)");
            db.delete_tuples([ag]).unwrap();
        });
    }

    #[test]
    fn advance_absorbs_mixed_batches_and_composes() {
        let (mut db, ev) = fixture();
        let driver = FixpointDriver::new(&ev, DeltaPolicy::AtEnd { naive: false });
        let mut cursor = db.journal().head();
        let mut es = EngineState::from_outcome(driver.run(&db));
        // Three successive windows: delete the seed, reinsert an ERC grant,
        // then delete a downstream support tuple.
        let g2 = tid_of(&db, "Grant(2, ERC)");
        type Step = Box<dyn Fn(&mut Instance)>;
        let steps: Vec<Step> = vec![
            Box::new(move |db: &mut Instance| {
                db.delete_tuples([g2]).unwrap();
            }),
            Box::new(|db: &mut Instance| {
                db.insert_values(
                    "Grant",
                    [storage::Value::Int(8), storage::Value::str("ERC")],
                )
                .unwrap();
                db.insert_values(
                    "AuthGrant",
                    [storage::Value::Int(4), storage::Value::Int(8)],
                )
                .unwrap();
            }),
            Box::new(|db: &mut Instance| {
                let w = tid_of(db, "Writes(4, 6)");
                db.delete_tuples([w]).unwrap();
            }),
        ];
        for step in steps {
            step(&mut db);
            let batch = db.changes_since(cursor).expect("retained");
            cursor = db.journal().head();
            driver.advance(&db, &mut es, &batch);
            let fresh = driver.run(&db);
            assert_eq!(es.deleted(), fresh.deleted);
            assert_eq!(es.num_assignments(), fresh.assignments.len());
        }
    }

    #[test]
    fn advance_retracts_unsupported_cycles_whole() {
        // Two tuples deriving each other through delta atoms, seeded by an
        // external support tuple: deleting the support must fell the whole
        // island even though the cycle "supports itself".
        let mut db = crate::testkit::tiny_instance(&[1], &[1], &[]);
        let program = datalog::parse_program(
            "delta R1(x) :- R1(x), x = 1.
             delta R2(x) :- R2(x), delta R1(x).
             delta R1(x) :- R1(x), delta R2(x).",
        )
        .unwrap();
        let ev = Evaluator::new(&mut db, program).unwrap();
        let driver = FixpointDriver::new(&ev, DeltaPolicy::AtEnd { naive: false });
        let cursor = db.journal().head();
        let mut es = EngineState::from_outcome(driver.run(&db));
        assert_eq!(es.deleted().len(), 2);
        // Tombstone the R1 tuple: Δ(R1(1)) is gone outright, and Δ(R2(1))'s
        // only remaining support is the cycle — it must fall too.
        let r1 = tid_of(&db, "R1(1)");
        db.delete_tuples([r1]).unwrap();
        let batch = db.changes_since(cursor).unwrap();
        let stats = driver.advance(&db, &mut es, &batch);
        assert_eq!(es.deleted(), driver.run(&db).deleted);
        assert!(es.deleted().is_empty(), "whole island retracted");
        assert_eq!(stats.rederived, 0);
        assert_eq!(es.num_assignments(), 0);
    }

    #[test]
    fn advance_rederives_alternative_support() {
        // R2(1) is derivable through either of two R1 seeds; deleting one
        // seed over-deletes Δ(R2(1)) and the re-derive phase rescues it.
        let mut db = crate::testkit::tiny_instance(&[1, 2], &[1], &[]);
        let program = datalog::parse_program(
            "delta R1(x) :- R1(x).
             delta R2(y) :- R2(y), delta R1(x).",
        )
        .unwrap();
        let ev = Evaluator::new(&mut db, program).unwrap();
        let driver = FixpointDriver::new(&ev, DeltaPolicy::AtEnd { naive: false });
        let cursor = db.journal().head();
        let mut es = EngineState::from_outcome(driver.run(&db));
        assert_eq!(es.deleted().len(), 3);
        let r1a = tid_of(&db, "R1(1)");
        db.delete_tuples([r1a]).unwrap();
        let batch = db.changes_since(cursor).unwrap();
        let stats = driver.advance(&db, &mut es, &batch);
        assert_eq!(es.deleted(), driver.run(&db).deleted);
        assert_eq!(es.deleted().len(), 2, "R1(2) and the rescued R2(1)");
        assert!(stats.rederived >= 1, "Δ(R2(1)) had alternative support");
    }

    #[test]
    fn policies_see_the_figure1_sets() {
        let (db, ev) = fixture();
        let end = FixpointDriver::new(&ev, DeltaPolicy::AtEnd { naive: false }).run(&db);
        let stage = FixpointDriver::new(&ev, DeltaPolicy::PerStage).run(&db);
        assert!(names_of(&db, &end.deleted).contains(&"Cite(7, 6)".to_owned()));
        assert!(!names_of(&db, &stage.deleted).contains(&"Cite(7, 6)".to_owned()));
        let cite = tid_of(&db, "Cite(7, 6)");
        assert_eq!(end.layers[&cite], 4);
    }
}
