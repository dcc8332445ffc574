//! Degraded-mode guarantees of the two heuristic algorithms: whatever the
//! solver budgets and options, the paper's correctness claim must survive — "any
//! satisfying assignment would form a stabilizing set" (Algorithm 1), and
//! the greedy traversal always returns a stabilizing set (Algorithm 2).

use delta_repairs::sat::MinOnesOptions;
use delta_repairs::{independent, testkit, RepairRequest, RepairSession, Semantics};

fn session() -> RepairSession {
    RepairSession::new(testkit::figure1_instance(), testkit::figure2_program()).unwrap()
}

/// Min-Ones options that trade the proven minimum for speed. Requests set
/// only the node budget; the other two are solver-level ablation options.
fn degraded_options() -> Vec<(&'static str, MinOnesOptions)> {
    let exact = MinOnesOptions::default;
    vec![
        (
            "first_solution_only",
            MinOnesOptions {
                first_solution_only: true,
                ..exact()
            },
        ),
        (
            "tiny_budget",
            MinOnesOptions {
                node_budget: 1,
                ..exact()
            },
        ),
        (
            "no_decomposition",
            MinOnesOptions {
                decompose: false,
                node_budget: 100_000,
                ..exact()
            },
        ),
        (
            "everything_off",
            MinOnesOptions {
                decompose: false,
                node_budget: 1,
                first_solution_only: true,
            },
        ),
    ]
}

/// Algorithm 1, served by the lazy loop, under every degraded solver
/// configuration still stabilizes the running example; only optimality
/// may be lost.
#[test]
fn independent_stabilizes_under_all_solver_options() {
    let s = session();
    for (label, opts) in degraded_options() {
        let r = independent::serve(s.db(), s.evaluator(), &opts, None);
        assert!(
            s.verify_stabilizing(&r.deleted),
            "{label}: result must stabilize"
        );
        assert!(
            r.deleted.len() >= 3,
            "{label}: below the true minimum is impossible"
        );
        assert!(
            r.deleted.len() <= s.db().total_rows(),
            "{label}: the whole database bounds any repair"
        );
    }
}

/// The exact configuration is optimal and says so.
#[test]
fn unbudgeted_solve_proves_optimality() {
    let s = session();
    let r = s
        .repair(&RepairRequest::new(Semantics::Independent).node_budget(u64::MAX))
        .unwrap();
    assert!(r.proven_optimal());
    assert_eq!(
        r.optimality().certificate,
        delta_repairs::OptimalityCertificate::SearchComplete
    );
    assert_eq!(r.size(), 3);
}

/// A budget of one node cannot prove optimality and must report that.
#[test]
fn tiny_budget_reports_non_optimal_when_cut() {
    let s = session();
    let r = s
        .repair(&RepairRequest::new(Semantics::Independent).node_budget(1))
        .unwrap();
    // The solver may still finish within one node per component after
    // simplification; if it did not, the flag must be false — and either
    // way the set stabilizes.
    if r.size() > 3 {
        assert!(!r.proven_optimal());
        assert_eq!(
            r.optimality().certificate,
            delta_repairs::OptimalityCertificate::NodeBudgetExhausted
        );
    }
    assert!(s.verify_stabilizing(r.deleted()));
}

/// A vanishing time budget closes the lazy loop's first candidate into a
/// stabilizing set — not proven minimum, certified as time-cut.
#[test]
fn exhausted_time_budget_degrades_gracefully() {
    let s = session();
    let r = s
        .repair(
            &RepairRequest::new(Semantics::Independent)
                .time_budget(std::time::Duration::from_nanos(1)),
        )
        .unwrap();
    assert!(s.verify_stabilizing(r.deleted()));
    assert!(!r.proven_optimal());
    assert_eq!(
        r.optimality().certificate,
        delta_repairs::OptimalityCertificate::TimeBudgetExhausted
    );
    // A generous budget never triggers the degradation on this instance.
    let relaxed = s
        .repair(
            &RepairRequest::new(Semantics::Independent)
                .time_budget(std::time::Duration::from_secs(3600)),
        )
        .unwrap();
    assert!(relaxed.proven_optimal());
    assert_eq!(relaxed.size(), 3);
}

/// Phase breakdowns are internally consistent across semantics.
#[test]
fn phase_breakdowns_are_consistent() {
    let s = session();
    for sem in Semantics::ALL {
        let r = s.run(sem);
        let b = r.breakdown();
        assert_eq!(b.total(), b.eval + b.process + b.solve, "{sem}");
        let (e, p, so) = b.fractions();
        if b.total().as_nanos() > 0 {
            assert!((e + p + so - 1.0).abs() < 1e-9, "{sem}: fractions sum to 1");
        }
        match sem {
            // The PTIME fixpoints do everything in eval.
            Semantics::End | Semantics::Stage => {
                assert_eq!(b.process, std::time::Duration::ZERO, "{sem}");
                assert_eq!(b.solve, std::time::Duration::ZERO, "{sem}");
            }
            // Both heuristic algorithms have a non-trivial eval phase.
            Semantics::Step | Semantics::Independent => {
                assert!(b.eval > std::time::Duration::ZERO, "{sem}");
            }
        }
    }
}

/// `run_all` returns the paper's presentation order.
#[test]
fn run_all_order_is_stable() {
    let s = session();
    let results = s.run_all();
    let order: Vec<_> = results.iter().map(|r| r.semantics()).collect();
    assert_eq!(
        order,
        vec![
            Semantics::Independent,
            Semantics::Step,
            Semantics::Stage,
            Semantics::End
        ]
    );
}
