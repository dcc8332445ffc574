//! The three performance floors of the engine, pinned by the work they do
//! rather than by wall-clock time, so they hold on any host:
//!
//! * **Incremental re-repair** — after a 0.2% delete or restore batch, the
//!   checkpointed End fixpoint advances by touching at most a third of the
//!   assignments a full run records, and the session serves the re-repair
//!   from that checkpoint with the full recompute's answer.
//! * **Cost-based planning** — on the adversarially ordered
//!   `zipf-pessimal` join the cost planner leads with the selective `Hub`
//!   atom while the static planner keeps textual order, and both enumerate
//!   the same assignments.
//! * **Cold open** — a clean durable open decodes the newest snapshot and
//!   replays only the WAL records appended after it.
//!
//! The timings these floors stand for are compared per change by the
//! `benchmark/` harness (`session-churn`, `zipf-scale` and `cold-start`).

use delta_repairs::datagen::{mas, scale, tpch, MasConfig, ScaleConfig, TpchConfig};
use delta_repairs::datalog::{Evaluator, Mode};
use delta_repairs::engine::{DeltaPolicy, EngineState, FixpointDriver};
use delta_repairs::storage::{DiskOptions, DiskStore, FsyncPolicy, MemIo, SessionMeta, WalRecord};
use delta_repairs::workloads::{mas_programs, tpch_programs, zipf_programs, Workload};
use delta_repairs::{Instance, RepairRequest, RepairSession, Semantics, TupleId};
use std::path::Path;
use std::sync::Arc;

fn workload<'w>(workloads: &'w [Workload], name: &str) -> &'w Workload {
    workloads
        .iter()
        .find(|w| w.name == name)
        .unwrap_or_else(|| panic!("workload {name} exists"))
}

/// Every 500th tuple (0.2%), spread over all relations so the batch lands
/// inside real join cones.
fn spread(db: &Instance) -> Vec<TupleId> {
    let ids: Vec<TupleId> = db
        .all_tuple_ids()
        .enumerate()
        .filter(|(i, _)| i % 500 == 250)
        .map(|(_, t)| t)
        .collect();
    assert!(!ids.is_empty(), "scale too small for a 0.2% batch");
    ids
}

/// Advance a checkpointed End fixpoint over a delete batch and then the
/// restoring batch. Each advance must reach the full run's answer while
/// dropping and adding at most a third of the assignments a full run
/// records.
fn assert_advance_is_incremental(label: &str, db: &Instance, w: &Workload) {
    let mut db = db.clone();
    let ev = Evaluator::new(&mut db, w.program.clone()).expect("valid workload");
    let driver = FixpointDriver::new(&ev, DeltaPolicy::AtEnd { naive: false });
    let mut es = EngineState::from_outcome(driver.run(&db));
    let full = es.num_assignments();
    assert!(full > 0, "{label}: the full run derives nothing");
    let ids = spread(&db);
    for phase in ["delete", "restore"] {
        let cursor = db.journal().head();
        if phase == "delete" {
            db.delete_tuples(ids.iter().copied()).expect("live ids");
        } else {
            db.restore_tuples(ids.iter().copied())
                .expect("tombstoned ids");
        }
        let batch = db.changes_since(cursor).expect("journal covers the batch");
        let stats = driver.advance(&db, &mut es, &batch);
        let touched = stats.dropped_assignments + stats.new_assignments;
        assert!(
            3 * touched <= full,
            "{label}/{phase}: advance touched {touched} assignments \
             (dropped {}, new {}) against {full} in a full run",
            stats.dropped_assignments,
            stats.new_assignments,
        );
        assert_eq!(
            es.deleted(),
            driver.run(&db).deleted,
            "{label}/{phase}: advanced fixpoint differs from a full run"
        );
    }
}

/// The session's End re-repairs after the same two batches come from the
/// checkpoint and equal a full recompute.
fn assert_session_serves_incrementally(label: &str, db: &Instance, w: &Workload) {
    let mut session = RepairSession::new(db.clone(), w.program.clone()).expect("valid workload");
    let full_request = RepairRequest::new(Semantics::End).incremental(false);
    session.run(Semantics::End); // primes the checkpoint
    let ids = spread(db);
    for phase in ["delete", "restore"] {
        if phase == "delete" {
            session.delete_batch(&ids).expect("live ids");
        } else {
            session.restore_batch(&ids).expect("tombstoned ids");
        }
        let served = session.run(Semantics::End);
        assert!(
            served.served_incrementally(),
            "{label}/{phase}: End re-repair recomputed in full"
        );
        let full = session.repair(&full_request).expect("valid request");
        assert_eq!(
            served.deleted(),
            full.deleted(),
            "{label}/{phase}: incremental End differs from a full recompute"
        );
    }
}

#[test]
fn incremental_rerepair_touches_at_most_a_third_of_a_full_run() {
    let mas = mas::generate(&MasConfig::scaled(0.1));
    let mas_workloads = mas_programs(&mas);
    let tpch = tpch::generate(&TpchConfig::scaled(0.05));
    let tpch_workloads = tpch_programs(&tpch);
    for (db, w) in [
        (&mas.db, workload(&mas_workloads, "mas-08")),
        (&tpch.db, workload(&tpch_workloads, "tpch-2")),
    ] {
        assert_advance_is_incremental(&w.name, db, w);
        assert_session_serves_incrementally(&w.name, db, w);
    }
}

/// Assignments `ev` enumerates over the whole database in Algorithm 1's
/// hypothetical mode.
fn count_assignments(db: &Instance, ev: &Evaluator) -> u64 {
    let mut n = 0u64;
    ev.for_each_assignment(db, &db.initial_state(), Mode::Hypothetical, &mut |_| {
        n += 1;
        true
    });
    n
}

#[test]
fn cost_planner_leads_zipf_pessimal_with_hub_and_keeps_parity() {
    let data = scale::generate(&ScaleConfig::scaled(0.1));
    let workloads = zipf_programs(&data);
    let w = workload(&workloads, "zipf-pessimal");
    // Body: Leaf(m, l), Mid(m, w), Link(h, m), Hub(h, k), k = 'bad'.
    let mut cost_db = data.db.clone();
    let cost = Evaluator::new(&mut cost_db, w.program.clone()).expect("valid workload");
    let mut static_db = data.db.clone();
    let textual = Evaluator::new_static(&mut static_db, w.program.clone()).expect("valid workload");
    assert_eq!(cost.compiled_rule(0).general.order, [3, 2, 1, 0]);
    assert_eq!(textual.compiled_rule(0).general.order, [0, 1, 2, 3]);
    let n = count_assignments(&cost_db, &cost);
    assert!(n > 0, "zipf-pessimal enumerates nothing");
    assert_eq!(
        n,
        count_assignments(&static_db, &textual),
        "the two plans enumerate different assignments"
    );
}

#[test]
fn cold_open_decodes_the_snapshot_and_replays_only_the_tail() {
    let data = scale::generate(&ScaleConfig::scaled(0.05));
    let mut expected = data.db.clone();
    let io = Arc::new(MemIo::new());
    let dir = Path::new("/zipf-store");
    let opts = || DiskOptions {
        fsync: FsyncPolicy::OnCheckpoint,
        io: io.clone(),
        checkpoint_every: 0,
    };
    let meta = SessionMeta::default();
    let mut store = DiskStore::create(dir, opts(), &expected, &meta).expect("in-memory store");
    let ids = spread(&expected);

    // Before the checkpoint: a delete batch the snapshot will absorb.
    expected
        .delete_tuples(ids.iter().copied())
        .expect("live ids");
    let mut before: Vec<WalRecord> = ids.iter().map(|&tid| WalRecord::Delete { tid }).collect();
    before.push(WalRecord::Commit { epoch: 1 });
    store.append(&before).expect("append");
    let gen = store.checkpoint(&expected, &meta).expect("checkpoint");

    // After it: a restore batch only the WAL holds.
    let half = &ids[..ids.len().div_ceil(2)];
    expected
        .restore_tuples(half.iter().copied())
        .expect("tombstoned ids");
    let mut tail: Vec<WalRecord> = half.iter().map(|&tid| WalRecord::Restore { tid }).collect();
    tail.push(WalRecord::Commit { epoch: 2 });
    store.append(&tail).expect("append");
    drop(store);

    let (_, recovered, _, report) = DiskStore::open(dir, opts()).expect("clean store");
    assert_eq!(report.snapshot_gen, Some(gen), "{report:?}");
    assert!(!report.degraded(), "{report:?}");
    assert_eq!(report.records_replayed, tail.len() as u64, "{report:?}");
    assert_eq!(report.batches_replayed, 1, "{report:?}");
    assert!(recovered == expected, "recovered instance differs");
}
