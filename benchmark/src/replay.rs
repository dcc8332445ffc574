//! The traced replay behind the per-layer metrics.
//!
//! After a traced run's loop, each layer's public calls are made once per
//! program (or once per dataset), on the workload's own inputs, off the
//! request path. Every workload replays every layer, so every per-layer
//! metric exists on every workload, and the replayed work is fixed, so its
//! counters repeat exactly. Repairs are replayed with certificates off, so
//! each semantics runs its own algorithm.

use crate::countio::{CountingIo, IoTotals};
use crate::measure::{cli_end_apply, io_span, repair_traced, spread, user_bytes, Rng};
use crate::trace::Tracer;
use crate::workload::Dataset;
use datalog::{Mode, PlannedProgram};
use provenance::{ProvFormulaBuilder, ProvGraph};
use repair_core::{
    DeltaPolicy, DiskOptions, FixpointDriver, RepairRequest, RepairSession, Semantics,
};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What the replay counted.
#[derive(Debug, Default)]
pub struct Replay {
    /// Deterministic work counters.
    pub counters: BTreeMap<String, u64>,
    /// Filesystem work of the replayed durable sessions.
    pub io: IoTotals,
}

impl Replay {
    fn add(&mut self, name: &str, n: u64) {
        *self.counters.entry(name.to_owned()).or_default() += n;
    }
}

/// Time `f` in a span named `name`.
fn span<T>(tr: &mut Tracer, name: &str, f: impl FnOnce() -> T) -> (T, Duration) {
    tr.enter(name);
    let t0 = Instant::now();
    let out = f();
    let d = t0.elapsed();
    tr.exit();
    (out, d)
}

/// Replay every layer over `data`, with durable stores under `dir`.
pub fn replay(data: &[Dataset], seed: u64, dir: &Path, tr: &mut Tracer) -> Result<Replay, String> {
    let mut r = Replay::default();
    let mut rng = Rng::new(seed);
    let io = Arc::new(CountingIo::default());
    let cli_opts = cli_end_apply();
    for (i, d) in data.iter().enumerate() {
        tr.next_request();
        let (tsv, render) = span(tr, "storage.render", || storage::tsv::to_tsv_typed(&d.db));
        let (loaded, ingest) = span(tr, "storage.ingest", || storage::tsv::load_document(&tsv));
        let loaded = loaded.map_err(|e| format!("ingest: {e}"))?;
        r.add("storage.ingest.rows", loaded.total_rows() as u64);
        drop(loaded);

        durable(
            d,
            &io,
            &mut rng,
            &dir.join(format!("replay-{i}")),
            tr,
            &mut r,
        )?;

        // `cli::run` is made of the calls replayed below; they become its
        // children, so its self time is what the CLI adds.
        let mut parts = vec![ingest, render];
        for (k, w) in d.programs.iter().enumerate() {
            let p = program(d, w, tr, &mut r)?;
            if k == 0 {
                parts.extend(p);
            }
        }
        let text = d.programs[0].program.to_string();
        tr.next_request();
        tr.enter("cli.run");
        let out = cli::run(&cli_opts, &tsv, &text);
        for p in parts {
            tr.child("cli.parts", p);
        }
        tr.exit();
        out.map_err(|e| format!("cli: {e}"))?;
    }
    r.io = io.totals();
    Ok(r)
}

/// A durable session over `d`: create, prime, delete and restore a seeded
/// spread (each followed by an incremental re-repair), then reopen.
fn durable(
    d: &Dataset,
    io: &Arc<CountingIo>,
    rng: &mut Rng,
    dir: &Path,
    tr: &mut Tracer,
    r: &mut Replay,
) -> Result<(), String> {
    let opts = DiskOptions::with_io(io.clone());
    let program = &d.programs[0].program;
    let db = d.db.clone();
    let end = RepairRequest::new(Semantics::End);
    tr.next_request();
    let mut s = io_span(tr, "core.session_new", io, || {
        RepairSession::create_durable_with(db, program.clone(), dir, opts.clone())
    })
    .map_err(|e| format!("create store: {e}"))?;
    repair_traced(tr, "core.repair", &s, &end).map_err(|e| e.to_string())?;
    let ids = spread(&d.db, rng);
    let wal_before = io.totals().append.bytes;
    for delete in [true, false] {
        tr.next_request();
        let n = io_span(tr, "storage.write", io, || {
            if delete {
                s.delete_batch(&ids)
            } else {
                s.restore_batch(&ids)
            }
        })
        .map_err(|e| e.to_string())?;
        r.add("storage.write.rows", n as u64);
        repair_traced(tr, "core.rerepair", &s, &end).map_err(|e| e.to_string())?;
    }
    r.add(
        "storage.disk.wal_bytes",
        io.totals().append.bytes - wal_before,
    );
    r.add("storage.disk.user_bytes", 2 * user_bytes(&d.db, &ids));
    drop(s);
    tr.next_request();
    let (_, reopened, _, _) = io_span(tr, "storage.disk.open", io, || {
        storage::DiskStore::open(dir, opts)
    })
    .map_err(|e| format!("reopen: {e}"))?;
    if reopened != d.db {
        return Err("reopened store differs from the database it was created from".into());
    }
    Ok(())
}

/// One program through every layer. Returns the durations of the calls
/// `cli::run` is made of.
fn program(
    d: &Dataset,
    w: &workloads::Workload,
    tr: &mut Tracer,
    r: &mut Replay,
) -> Result<Vec<Duration>, String> {
    let fail = |e: &dyn std::fmt::Display| format!("{}: {e}", w.name);
    tr.next_request();
    let text = w.program.to_string();
    let (parsed, parse) = span(tr, "datalog.parse", || datalog::parse_program(&text));
    parsed.map_err(|e| fail(&e))?;
    let (planned, plan) = span(tr, "datalog.plan", || {
        PlannedProgram::plan(d.db.schema(), w.program.clone())
    });
    let planned = planned.map_err(|e| fail(&e))?;
    let mut db = d.db.clone();
    let (ev, index_build) = span(tr, "datalog.index_build", || {
        planned.into_evaluator(&mut db)
    });
    let (_, certify) = span(tr, "datalog.certify", || datalog::lint::certify(&w.program));

    let state = db.initial_state();
    let (n, join) = span(tr, "datalog.join", || {
        let mut n = 0u64;
        ev.for_each_assignment(&db, &state, Mode::Hypothetical, &mut |_| {
            n += 1;
            true
        });
        n
    });
    r.add("datalog.join.assignments", n);
    // The formula is built from the same enumeration, replayed; the
    // enumeration's measured time becomes a child, leaving the build as
    // the span's self time.
    tr.enter("provenance.formula");
    let mut builder = ProvFormulaBuilder::new();
    ev.for_each_assignment(&db, &state, Mode::Hypothetical, &mut |a| {
        builder.add(a);
        true
    });
    let formula = builder.finish();
    tr.child("provenance.formula.join", join);
    tr.exit();
    r.add("provenance.formula.clauses", formula.len() as u64);
    drop(formula);

    let (fix, _) = span(tr, "core.fixpoint", || {
        FixpointDriver::new(&ev, DeltaPolicy::AtEnd { naive: false }).run(&db)
    });
    r.add("core.fixpoint.assignments", fix.assignments.len() as u64);
    r.add("core.fixpoint.rounds", u64::from(fix.rounds));
    let (graph, _) = span(tr, "provenance.graph", || {
        ProvGraph::build(&fix.assignments, &fix.layers)
    });
    r.add("provenance.graph.nodes", graph.num_delta_nodes() as u64);
    drop((graph, fix, ev, db));

    let db = d.db.clone();
    let (s, _) = span(tr, "core.session_new", || {
        RepairSession::new(db, w.program.clone())
    });
    let s = s.map_err(|e| fail(&e))?;
    let (_, is_stable) = span(tr, "core.is_stable", || s.is_stable());
    let mut end = Duration::ZERO;
    for sem in Semantics::ALL {
        tr.next_request();
        let req = RepairRequest::new(sem)
            .certificates(false)
            .incremental(false);
        let t0 = Instant::now();
        let o = repair_traced(tr, "core.repair", &s, &req).map_err(|e| fail(&e))?;
        match sem {
            Semantics::End => end = t0.elapsed(),
            Semantics::Independent => {
                let opt = o.optimality();
                r.add("sat.decisions", opt.sat_decisions);
                r.add("sat.components", opt.sat_components as u64);
                r.add("sat.cnf_clauses", opt.cnf_clauses as u64);
            }
            _ => {}
        }
    }
    Ok(vec![parse, plan, index_build, certify, is_stable, end])
}
