//! Engine parity: the unified `engine::FixpointDriver` must reproduce the
//! seed implementation's behaviour *exactly* — same deleted sets, same
//! layer assignments, same assignment streams, same round counts — for
//! end, stage and stability, across the running example, workload samples
//! and recursive programs.
//!
//! The `reference` module below is a line-for-line copy of the seed's
//! hand-rolled fixpoint loops (pre-refactor `end.rs` / `stage.rs` /
//! `stability.rs`), kept here as the executable specification the engine
//! is judged against.

use delta_repairs::datalog::{Assignment, DeltaFrontier, EvalScratch, Evaluator, Mode, Round};
use delta_repairs::{parse_program, testkit, Instance, RepairSession, TupleId};
use std::collections::HashMap;

/// The seed's fixpoint loops, verbatim.
mod reference {
    use super::*;

    pub struct EndOutcome {
        pub deleted: Vec<TupleId>,
        pub assignments: Vec<Assignment>,
        pub layers: HashMap<TupleId, u32>,
        pub rounds: u32,
    }

    /// Pre-refactor `end::run`.
    pub fn end_run(db: &Instance, ev: &Evaluator) -> EndOutcome {
        let mut state = db.initial_state();
        let mut assignments: Vec<Assignment> = Vec::new();
        let mut layers: HashMap<TupleId, u32> = HashMap::new();

        let mut new_heads: Vec<TupleId> = Vec::new();
        let mut scratch = EvalScratch::new();
        ev.enumerate(
            db,
            &state,
            Mode::FrozenBase,
            Round::Base,
            &mut scratch,
            &mut |a| {
                if !state.in_delta(a.head) && !new_heads.contains(&a.head) {
                    new_heads.push(a.head);
                }
                assignments.push(a.clone());
                true
            },
        );

        let mut round = 1u32;
        while !new_heads.is_empty() {
            let mut frontier = DeltaFrontier::empty(db);
            for &t in &new_heads {
                if state.mark_delta(t) {
                    layers.insert(t, round);
                    frontier.insert(t);
                }
            }
            round += 1;
            let mut next: Vec<TupleId> = Vec::new();
            let round = Round::Frontier(&frontier);
            ev.enumerate(
                db,
                &state,
                Mode::FrozenBase,
                round,
                &mut scratch,
                &mut |a| {
                    if !state.in_delta(a.head) && !next.contains(&a.head) {
                        next.push(a.head);
                    }
                    assignments.push(a.clone());
                    true
                },
            );
            new_heads = next;
        }

        state.apply_deltas();
        EndOutcome {
            deleted: state.all_delta_rows(),
            assignments,
            layers,
            rounds: round,
        }
    }

    /// Pre-refactor `end::run_naive`.
    pub fn end_run_naive(db: &Instance, ev: &Evaluator) -> EndOutcome {
        let mut state = db.initial_state();
        let mut layers: HashMap<TupleId, u32> = HashMap::new();
        let mut round = 0u32;
        let mut assignments: Vec<Assignment> = Vec::new();
        loop {
            round += 1;
            let mut new_heads: Vec<TupleId> = Vec::new();
            assignments.clear();
            ev.for_each_assignment(db, &state, Mode::FrozenBase, &mut |a| {
                if !state.in_delta(a.head) && !new_heads.contains(&a.head) {
                    new_heads.push(a.head);
                }
                assignments.push(a.clone());
                true
            });
            if new_heads.is_empty() {
                break;
            }
            for t in new_heads {
                state.mark_delta(t);
                layers.insert(t, round);
            }
        }
        state.apply_deltas();
        EndOutcome {
            deleted: state.all_delta_rows(),
            assignments,
            layers,
            rounds: round,
        }
    }

    /// Pre-refactor `stage::run`.
    pub fn stage_run(db: &Instance, ev: &Evaluator) -> (Vec<TupleId>, u32) {
        let mut state = db.initial_state();
        let mut stages = 0u32;
        loop {
            let mut new_heads: Vec<TupleId> = Vec::new();
            ev.for_each_assignment(db, &state, Mode::Current, &mut |a| {
                if state.is_present(a.head) && !new_heads.contains(&a.head) {
                    new_heads.push(a.head);
                }
                true
            });
            if new_heads.is_empty() {
                break;
            }
            for t in new_heads {
                state.delete(t);
            }
            stages += 1;
        }
        (state.all_delta_rows(), stages)
    }

    /// Pre-refactor `stability::is_stabilizing` (via `Evaluator::is_stable`).
    pub fn is_stabilizing(db: &Instance, ev: &Evaluator, deleted: &[TupleId]) -> bool {
        let mut state = db.initial_state();
        for &t in deleted {
            state.delete(t);
        }
        ev.is_stable(db, &state)
    }
}

/// Assert full end/stage/stability parity between engine-backed modules and
/// the reference loops, for one session.
fn assert_parity(label: &str, session: &RepairSession) {
    let (db, ev) = (session.db(), session.evaluator());

    let new_end = delta_repairs::end::run(db, ev);
    let ref_end = reference::end_run(db, ev);
    assert_eq!(new_end.deleted, ref_end.deleted, "{label}: end deleted set");
    assert_eq!(new_end.layers, ref_end.layers, "{label}: end layers");
    assert_eq!(new_end.rounds, ref_end.rounds, "{label}: end rounds");
    assert_eq!(
        new_end.assignments, ref_end.assignments,
        "{label}: end assignment stream (provenance input)"
    );

    let new_naive = delta_repairs::end::run_naive(db, ev);
    let ref_naive = reference::end_run_naive(db, ev);
    assert_eq!(
        new_naive.deleted, ref_naive.deleted,
        "{label}: naive deleted"
    );
    assert_eq!(new_naive.layers, ref_naive.layers, "{label}: naive layers");
    assert_eq!(new_naive.rounds, ref_naive.rounds, "{label}: naive rounds");
    assert_eq!(
        new_naive.assignments, ref_naive.assignments,
        "{label}: naive final-round assignment stream"
    );

    let new_stage = delta_repairs::stage::run(db, ev);
    let (ref_deleted, ref_stages) = reference::stage_run(db, ev);
    assert_eq!(new_stage.deleted, ref_deleted, "{label}: stage deleted set");
    assert_eq!(new_stage.stages, ref_stages, "{label}: stage count");

    // Stability must agree on: the empty set, each semantics' result, and
    // every proper prefix of the end result (a mix of stabilizing and
    // non-stabilizing candidates).
    let candidates: Vec<Vec<TupleId>> = std::iter::once(Vec::new())
        .chain((0..new_end.deleted.len()).map(|k| new_end.deleted[..k].to_vec()))
        .chain([new_end.deleted.clone(), new_stage.deleted.clone()])
        .collect();
    for cand in &candidates {
        assert_eq!(
            delta_repairs::stability::is_stabilizing(db, ev, cand),
            reference::is_stabilizing(db, ev, cand),
            "{label}: stability verdict for {cand:?}"
        );
    }
}

#[test]
fn figure1_parity() {
    let session =
        RepairSession::new(testkit::figure1_instance(), testkit::figure2_program()).unwrap();
    assert_parity("figure1", &session);
}

#[test]
fn mas_workload_parity() {
    let data =
        delta_repairs::datagen::mas::generate(&delta_repairs::datagen::MasConfig::scaled(0.02));
    for w in delta_repairs::workloads::mas_programs(&data) {
        let session = RepairSession::new(data.db.clone(), w.program.clone()).unwrap();
        assert_parity(&w.name, &session);
    }
}

#[test]
fn tpch_workload_parity() {
    let data =
        delta_repairs::datagen::tpch::generate(&delta_repairs::datagen::TpchConfig::scaled(0.01));
    for w in delta_repairs::workloads::tpch_programs(&data) {
        let session = RepairSession::new(data.db.clone(), w.program.clone()).unwrap();
        assert_parity(&w.name, &session);
    }
}

#[test]
fn recursive_program_parity() {
    // The recursive chain of tests/recursion.rs, at several lengths.
    for n in [3i64, 6, 12] {
        let mut s = delta_repairs::Schema::new();
        s.relation("Node", &[("v", delta_repairs::AttrType::Int)]);
        s.relation(
            "Edge",
            &[
                ("u", delta_repairs::AttrType::Int),
                ("v", delta_repairs::AttrType::Int),
            ],
        );
        let mut db = Instance::new(s);
        for v in 0..n {
            db.insert_values("Node", [delta_repairs::Value::Int(v)])
                .unwrap();
        }
        for v in 0..n - 1 {
            db.insert_values(
                "Edge",
                [
                    delta_repairs::Value::Int(v),
                    delta_repairs::Value::Int(v + 1),
                ],
            )
            .unwrap();
        }
        let program = parse_program(
            "delta Node(v) :- Node(v), v = 0.
             delta Node(v) :- Node(v), Edge(u, v), delta Node(u).",
        )
        .unwrap();
        let session = RepairSession::new(db, program).unwrap();
        assert_parity(&format!("chain-{n}"), &session);
    }

    // The mutual recursion of tests/recursion.rs.
    let mut s = delta_repairs::Schema::new();
    s.relation("A", &[("x", delta_repairs::AttrType::Int)]);
    s.relation("B", &[("x", delta_repairs::AttrType::Int)]);
    let mut db = Instance::new(s);
    for x in 0..6i64 {
        db.insert_values("A", [delta_repairs::Value::Int(x)])
            .unwrap();
        db.insert_values("B", [delta_repairs::Value::Int(x)])
            .unwrap();
    }
    let program = parse_program(
        "delta A(x) :- A(x), x = 0.
         delta B(x) :- B(x), delta A(x).
         delta A(x) :- A(x), delta B(x).",
    )
    .unwrap();
    let session = RepairSession::new(db, program).unwrap();
    assert_parity("mutual-recursion", &session);
}

#[test]
fn empty_program_parity() {
    let session = RepairSession::new(
        testkit::figure1_instance(),
        delta_repairs::Program::default(),
    )
    .unwrap();
    assert_parity("empty-program", &session);
}
