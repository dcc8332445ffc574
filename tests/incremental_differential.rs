//! The incremental re-repair differential suite.
//!
//! Acceptance bar of the delta-driven maintenance refactor: for Figure 1
//! and **all 26 Table 1 / Table 2 workloads**, in **all four semantics**,
//! a session that mutates and then re-repairs (journal-driven incremental
//! advance for end semantics, full paths for the others) must produce
//! delete-sets **bit-identical — order included —** to a fresh session
//! built over the mutated instance and recomputing from scratch.
//!
//! Mutations are deterministic but adversarial for the maintenance code:
//! a ~1% spread of tombstones (exercising DRed over-delete/re-derive),
//! re-insertion of previously deleted *values* under fresh row ids
//! (re-enabling joins through old keys), and synthetic never-joining rows
//! (exercising the cheap no-cone path).

use delta_repairs::datagen::{mas, tpch, MasConfig, TpchConfig};
use delta_repairs::{
    AttrType, Instance, Program, RepairRequest, RepairSession, Semantics, TupleId, Value,
};

/// Delete every `stride`-th live tuple (about 1% for `stride = 100`),
/// then re-insert the values of every other deleted tuple as fresh rows,
/// plus `fresh` synthetic rows per relation that join nothing.
fn mutate(session: &mut RepairSession, stride: usize, fresh: usize, salt: i64) -> usize {
    let doomed: Vec<TupleId> = session
        .db()
        .all_tuple_ids()
        .enumerate()
        .filter(|(i, _)| i % stride == stride / 2)
        .map(|(_, t)| t)
        .collect();
    let readd: Vec<Vec<Value>> = doomed
        .iter()
        .step_by(2)
        .map(|&t| session.db().tuple(t).values().to_vec())
        .collect();
    let rel_names: Vec<String> = session
        .db()
        .schema()
        .iter()
        .map(|(_, rs)| rs.name.clone())
        .collect();
    let removed = session.delete_batch(&doomed).expect("ids are live");
    for (rel, values) in doomed.iter().step_by(2).map(|t| t.rel).zip(readd) {
        let name = &session.db().schema().rel(rel).name.clone();
        session
            .insert_batch(name, [values])
            .expect("re-inserted values fit their own schema");
    }
    for name in &rel_names {
        let rel = session.db().schema().rel_id(name).unwrap();
        let attrs = session.db().schema().rel(rel).attrs.clone();
        for i in 0..fresh {
            let row: Vec<Value> = attrs
                .iter()
                .enumerate()
                .map(|(c, a)| match a.ty {
                    AttrType::Int => Value::Int(1_000_000_000 + salt * 1000 + (i * 17 + c) as i64),
                    AttrType::Str => Value::str(&format!("synthetic-{salt}-{i}-{c}")),
                })
                .collect();
            session.insert_batch(name, [row]).expect("typed row");
        }
    }
    removed
}

/// After mutating, every semantics must agree bit-for-bit with a fresh
/// session over a clone of the mutated instance, and the end answer must
/// actually have been served incrementally.
fn assert_mutated_session_matches_fresh(label: &str, mutated: &RepairSession) {
    let fresh = RepairSession::new(mutated.db().clone(), mutated.program().clone())
        .unwrap_or_else(|e| panic!("{label}: fresh session: {e}"));
    for sem in Semantics::ALL {
        let inc = mutated.run(sem);
        let full = fresh
            .repair(&RepairRequest::new(sem).incremental(false))
            .unwrap();
        assert_eq!(
            inc.deleted(),
            full.deleted(),
            "{label}/{sem}: mutate-then-repair diverged from a fresh full recompute"
        );
        if sem == Semantics::End {
            assert!(
                inc.served_incrementally(),
                "{label}/end: expected the incremental path, got a fallback"
            );
        }
    }
}

fn exercise(label: &str, db: &Instance, program: Program, stride: usize) {
    let mut session =
        RepairSession::new(db.clone(), program).unwrap_or_else(|e| panic!("{label}: session: {e}"));
    // Prime the checkpoint, then run two mutation windows so the second
    // advance starts from an already-advanced (not freshly primed) state.
    session.run(Semantics::End);
    mutate(&mut session, stride, 2, 1);
    let end_after_first = session.run(Semantics::End);
    assert!(
        end_after_first.served_incrementally(),
        "{label}: first window must advance incrementally"
    );
    mutate(&mut session, stride, 2, 2);
    assert_mutated_session_matches_fresh(label, &session);
}

#[test]
fn figure1_mutate_then_repair_matches_fresh_recompute() {
    // Small instance: stride 3 deletes a third of it — far past 1%, all
    // the better for the retraction paths.
    exercise(
        "figure1",
        &delta_repairs::testkit::figure1_instance(),
        delta_repairs::testkit::figure2_program(),
        3,
    );
}

#[test]
fn all_mas_workloads_mutate_then_repair_match_fresh_recompute() {
    let data = mas::generate(&MasConfig::scaled(0.02));
    let workloads = delta_repairs::workloads::mas_programs(&data);
    assert_eq!(workloads.len(), 20, "all of Table 1");
    for w in workloads {
        exercise(&w.name, &data.db, w.program, 100);
    }
}

#[test]
fn all_tpch_workloads_mutate_then_repair_match_fresh_recompute() {
    let data = tpch::generate(&TpchConfig::scaled(0.01));
    let workloads = delta_repairs::workloads::tpch_programs(&data);
    assert_eq!(workloads.len(), 6, "all of Table 2");
    for w in workloads {
        exercise(&w.name, &data.db, w.program, 100);
    }
}

#[test]
fn undo_heavy_churn_still_matches_fresh_recompute() {
    // apply → undo → mutate → repair: restores flow through the journal as
    // net inserts and must advance the checkpoint exactly like fresh data.
    let mut session = RepairSession::new(
        delta_repairs::testkit::figure1_instance(),
        delta_repairs::testkit::figure2_program(),
    )
    .unwrap();
    let outcome = session.run(Semantics::End);
    outcome.apply(&mut session).unwrap();
    assert_eq!(session.run(Semantics::End).size(), 0);
    session.undo().unwrap();
    let back = session.run(Semantics::End);
    assert!(back.served_incrementally());
    assert_eq!(back.deleted(), outcome.deleted());
    mutate(&mut session, 4, 1, 7);
    assert_mutated_session_matches_fresh("figure1-undo-churn", &session);
}
