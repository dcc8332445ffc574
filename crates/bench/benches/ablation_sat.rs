//! Ablation A1 — what the Min-Ones solver's features buy on the DC-style
//! formulas that independent semantics produces:
//!
//! * **component decomposition** on vs off (DESIGN.md credits it for the
//!   paper's "efficient in practice" behaviour on DC workloads);
//! * **exact branch & bound** vs the greedy first solution.
//!
//! The formula is generated through the real pipeline (Algorithm 1's eval
//! and processing phases on the mas-12 workload), not synthesized, so the
//! structure matches what the solver sees in production.

use bench::{session_for, MasLab};
use criterion::{criterion_group, criterion_main, Criterion};
use datalog::Mode;
use provenance::{ProvFormula, ProvFormulaBuilder};
use sat::{solve_min_ones, MinOnesOptions};
use std::hint::black_box;
use std::time::Duration;

/// Reproduce phases 1–2 of Algorithm 1: the formula for a workload, which
/// owns the CNF the solver reads.
fn formula_for(lab: &MasLab, name: &str) -> ProvFormula {
    let w = lab
        .workloads
        .iter()
        .find(|w| w.name == name)
        .expect("workload");
    let session = session_for(&lab.data.db, w);
    let db = session.db();
    let state = db.initial_state();
    let mut builder = ProvFormulaBuilder::new();
    session
        .evaluator()
        .for_each_assignment(db, &state, Mode::Hypothetical, &mut |a| {
            builder.add(a);
            true
        });
    builder.finish()
}

fn bench_sat_ablation(c: &mut Criterion) {
    let lab = MasLab::at_scale(0.02);
    let mut group = c.benchmark_group("ablation_sat");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(400))
        .measurement_time(Duration::from_millis(1200));
    for name in ["mas-12", "mas-08"] {
        let formula = formula_for(&lab, name);
        let cnf = formula.negated_cnf();
        // All configs share the session's default node budget so a
        // pathological branch & bound cannot stall the benchmark run.
        let budget = repair_core::RepairSession::DEFAULT_NODE_BUDGET;
        let configs: [(&str, MinOnesOptions); 3] = [
            (
                "full",
                MinOnesOptions {
                    node_budget: budget,
                    ..MinOnesOptions::default()
                },
            ),
            (
                "no_decomposition",
                MinOnesOptions {
                    decompose: false,
                    node_budget: budget,
                    ..MinOnesOptions::default()
                },
            ),
            (
                "greedy_first_solution",
                MinOnesOptions {
                    first_solution_only: true,
                    node_budget: budget,
                    ..MinOnesOptions::default()
                },
            ),
        ];
        for (label, opts) in configs {
            group.bench_function(format!("{name}/{label}"), |b| {
                b.iter(|| {
                    black_box(
                        solve_min_ones(cnf, &opts)
                            .solution()
                            .map(|s| s.ones)
                            .unwrap_or(usize::MAX),
                    )
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_sat_ablation);
criterion_main!(benches);
