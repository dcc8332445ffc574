//! Figure 8 — runtime breakdown of Algorithms 1 and 2.
//!
//! Criterion measures each phase's cost by benchmarking cumulative
//! prefixes of the pipelines on a DC-heavy program (mas-08, Figure 8a/8b's
//! regime), a cascade program (mas-20, Figure 8c/8d's regime) and tpch-1,
//! whose Independent formula (about 960K clauses at TPC-H scale 0.05, the
//! benchmark's paper-suite) makes Process Prov the largest phase of
//! Algorithm 1 — its `alg1_eval_process` minus `alg1_eval` is the formula
//! build:
//!
//! * Algorithm 1: `eval` (hypothetical assignment enumeration) alone, then
//!   eval + formula construction + negation into the CNF, then the full run (+ SAT solve);
//! * Algorithm 2: `eval` (end-semantics provenance) alone, then + graph
//!   construction, then the full greedy run.
//!
//! `repro fig8` prints the per-phase fractions directly.

use bench::{session_for, MasLab, TpchLab};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datalog::Mode;
use provenance::{ProvFormulaBuilder, ProvGraph};
use repair_core::{end, independent, step};
use sat::MinOnesOptions;
use std::hint::black_box;
use std::time::Duration;

fn bench_breakdown(c: &mut Criterion) {
    let mas = MasLab::at_scale(0.02);
    let tpch = TpchLab::at_scale(0.01);
    let mut group = c.benchmark_group("fig8_breakdown");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(400))
        .measurement_time(Duration::from_millis(1200));
    let labs = [
        (&mas.data.db, &mas.workloads, "mas-08"),
        (&mas.data.db, &mas.workloads, "mas-20"),
        (&tpch.data.db, &tpch.workloads, "tpch-1"),
    ];
    for (base, workloads, name) in labs {
        let w = workloads.iter().find(|w| w.name == name).expect("workload");
        let session = session_for(base, w);
        let (db, ev) = (session.db(), session.evaluator());

        // Algorithm 1 phase prefixes.
        group.bench_function(BenchmarkId::new("alg1_eval", name), |b| {
            b.iter(|| {
                let state = db.initial_state();
                let mut n = 0usize;
                ev.for_each_assignment(db, &state, Mode::Hypothetical, &mut |a| {
                    n += a.body.len();
                    true
                });
                black_box(n)
            })
        });
        group.bench_function(BenchmarkId::new("alg1_eval_process", name), |b| {
            b.iter(|| {
                let state = db.initial_state();
                let mut builder = ProvFormulaBuilder::new();
                ev.for_each_assignment(db, &state, Mode::Hypothetical, &mut |a| {
                    builder.add(a);
                    true
                });
                black_box(builder.finish().negated_cnf().num_clauses())
            })
        });
        group.bench_function(BenchmarkId::new("alg1_full", name), |b| {
            b.iter(|| {
                black_box(
                    independent::run(db, ev, &MinOnesOptions::default())
                        .deleted
                        .len(),
                )
            })
        });

        // Algorithm 2 phase prefixes.
        group.bench_function(BenchmarkId::new("alg2_eval", name), |b| {
            b.iter(|| black_box(end::run(db, ev).assignments.len()))
        });
        group.bench_function(BenchmarkId::new("alg2_eval_process", name), |b| {
            b.iter(|| {
                let out = end::run(db, ev);
                black_box(ProvGraph::build(&out.assignments, &out.layers).num_delta_nodes())
            })
        });
        group.bench_function(BenchmarkId::new("alg2_full", name), |b| {
            b.iter(|| black_box(step::run_greedy(db, ev).deleted.len()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_breakdown);
criterion_main!(benches);
