//! Cost-based plans pinned to the static textual planner, from the outside:
//! on every Table 1 / Table 2 / zipf workload (29 programs) and all four
//! semantics, the statistics-driven atom orders must produce a
//! **bit-identical delete-set** (ids *and* order) to the textual-order
//! plans. A join order is an implementation detail — if reordering ever
//! changes *what* gets deleted (not just how fast), the planner broke the
//! enumeration semantics, not the cost model.
//!
//! The delete-set order matters too: every semantics sorts its answer, so
//! comparing full vectors also pins determinism across plan families
//! (general, hypothetical and pivoted plans all reorder independently).

use delta_repairs::datagen::{mas, scale, tpch, MasConfig, ScaleConfig, TpchConfig};
use delta_repairs::datalog::Evaluator;
use delta_repairs::sat::MinOnesOptions;
use delta_repairs::workloads::{mas_programs, tpch_programs, zipf_programs, Workload};
use delta_repairs::{end, independent, stage, step, Instance, RepairSession};

/// The session's default budget, not the exact-search `u64::MAX` default:
/// the point is comparing the two planners under identical solver inputs
/// (the CNF is canonicalized independent of assignment-stream order), not
/// waiting out an exponential exact search on the zipf formulas.
fn solver_opts() -> MinOnesOptions {
    MinOnesOptions {
        node_budget: RepairSession::DEFAULT_NODE_BUDGET,
        ..MinOnesOptions::default()
    }
}

/// Run all four semantics under both planners and compare delete-sets.
/// Each planner gets its own clone because index construction is
/// plan-dependent (the evaluators build the probe indexes they chose).
fn assert_plans_agree(label: &str, db: &Instance, w: &Workload) {
    let mut db_cost = db.clone();
    let ev_cost =
        Evaluator::new(&mut db_cost, w.program.clone()).unwrap_or_else(|e| panic!("{label}: {e}"));
    let mut db_static = db.clone();
    let ev_static = Evaluator::new_static(&mut db_static, w.program.clone())
        .unwrap_or_else(|e| panic!("{label}: {e}"));

    let pairs = [
        (
            "end",
            end::run(&db_cost, &ev_cost).deleted,
            end::run(&db_static, &ev_static).deleted,
        ),
        (
            "stage",
            stage::run(&db_cost, &ev_cost).deleted,
            stage::run(&db_static, &ev_static).deleted,
        ),
        (
            "step",
            step::run_greedy(&db_cost, &ev_cost).deleted,
            step::run_greedy(&db_static, &ev_static).deleted,
        ),
        (
            "independent",
            independent::run(&db_cost, &ev_cost, &solver_opts()).deleted,
            independent::run(&db_static, &ev_static, &solver_opts()).deleted,
        ),
    ];
    for (sem, cost, textual) in pairs {
        assert_eq!(
            cost, textual,
            "{label}/{sem}: cost-based plan changed the delete-set"
        );
    }
}

#[test]
fn cost_plans_match_static_plans_on_all_mas_workloads() {
    let data = mas::generate(&MasConfig::scaled(0.02));
    let workloads = mas_programs(&data);
    assert_eq!(workloads.len(), 20, "all of Table 1");
    for w in &workloads {
        assert_plans_agree(&w.name, &data.db, w);
    }
}

#[test]
fn cost_plans_match_static_plans_on_all_tpch_workloads() {
    let data = tpch::generate(&TpchConfig::scaled(0.01));
    let workloads = tpch_programs(&data);
    assert_eq!(workloads.len(), 6, "all of Table 2");
    for w in &workloads {
        assert_plans_agree(&w.name, &data.db, w);
    }
}

#[test]
fn cost_plans_match_static_plans_on_zipf_workloads() {
    let data = scale::generate(&ScaleConfig::scaled(0.05));
    let workloads = zipf_programs(&data);
    assert_eq!(workloads.len(), 3, "cascade, join, pessimal");
    for w in &workloads {
        assert_plans_agree(&w.name, &data.db, w);
    }
}
