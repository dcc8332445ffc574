//! Property-based validation of the Min-Ones SAT solver against brute
//! force, plus option-flag behaviour (the knobs the ablation benches turn).

use delta_repairs::sat::{solve_min_ones, Cnf, Lit, MinOnesOptions, Outcome};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Brute-force minimum number of `True`s over all satisfying assignments.
fn brute_force_min_ones(cnf: &Cnf, n_vars: usize) -> Option<u32> {
    let mut best: Option<u32> = None;
    for mask in 0u32..(1 << n_vars) {
        let assignment: Vec<bool> = (0..n_vars).map(|v| mask & (1 << v) != 0).collect();
        if cnf.eval(&assignment) {
            let ones = mask.count_ones();
            best = Some(best.map_or(ones, |b| b.min(ones)));
        }
    }
    best
}

/// A random clause: 1–3 literals over `n` variables with random polarity.
fn arb_clause(n: u32) -> impl Strategy<Value = Vec<(u32, bool)>> {
    prop::collection::vec((0..n, any::<bool>()), 1..=3)
}

fn build_cnf(n: usize, clauses: &[Vec<(u32, bool)>]) -> Cnf {
    let mut cnf = Cnf::new(n);
    for c in clauses {
        let lits: Vec<Lit> = c
            .iter()
            .map(|&(v, neg)| if neg { Lit::neg(v) } else { Lit::pos(v) })
            .collect();
        // Tautological clauses are rejected by add_clause; skipping them
        // leaves an equivalent formula.
        cnf.add_clause(&lits);
    }
    cnf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The solver's minimum equals brute force on every random formula.
    #[test]
    fn solver_matches_brute_force(
        clauses in prop::collection::vec(arb_clause(8), 0..14),
    ) {
        let n = 8;
        let cnf = build_cnf(n, &clauses);
        let expected = brute_force_min_ones(&cnf, n);
        match solve_min_ones(&cnf, &MinOnesOptions::default()) {
            Outcome::Sat(sol) => {
                prop_assert!(sol.optimal, "unbudgeted solve must prove optimality");
                prop_assert!(cnf.eval(&sol.values), "assignment must satisfy the formula");
                prop_assert_eq!(
                    Some(sol.ones as u32), expected,
                    "minimum ones mismatch"
                );
                prop_assert_eq!(
                    sol.values.iter().filter(|&&b| b).count(),
                    sol.ones,
                    "reported count must match the assignment"
                );
            }
            Outcome::Unsat => prop_assert_eq!(expected, None, "solver said UNSAT"),
        }
    }

    /// Decomposition off gives the same minimum (it is purely structural).
    #[test]
    fn decomposition_is_result_invariant(
        clauses in prop::collection::vec(arb_clause(8), 0..12),
    ) {
        let cnf = build_cnf(8, &clauses);
        let with = solve_min_ones(&cnf, &MinOnesOptions::default());
        let without = solve_min_ones(
            &cnf,
            &MinOnesOptions { decompose: false, ..MinOnesOptions::default() },
        );
        match (with, without) {
            (Outcome::Sat(a), Outcome::Sat(b)) => prop_assert_eq!(a.ones, b.ones),
            (Outcome::Unsat, Outcome::Unsat) => {}
            _ => prop_assert!(false, "decomposition changed satisfiability"),
        }
    }

    /// `first_solution_only` returns a valid (possibly suboptimal)
    /// assignment whenever the formula is satisfiable.
    #[test]
    fn first_solution_is_satisfying(
        clauses in prop::collection::vec(arb_clause(8), 0..12),
    ) {
        let cnf = build_cnf(8, &clauses);
        let exact = solve_min_ones(&cnf, &MinOnesOptions::default());
        let fast = solve_min_ones(
            &cnf,
            &MinOnesOptions { first_solution_only: true, ..MinOnesOptions::default() },
        );
        match (exact, fast) {
            (Outcome::Sat(a), Outcome::Sat(b)) => {
                prop_assert!(cnf.eval(&b.values));
                prop_assert!(b.ones >= a.ones);
            }
            (Outcome::Unsat, Outcome::Unsat) => {}
            _ => prop_assert!(false, "first-solution mode changed satisfiability"),
        }
    }
}

prop_compose! {
    /// A clause of the shape Algorithm 1's CNFs have: 1–3 positive
    /// literals plus at most one negative literal.
    fn arb_repair_clause(n: u32)(
        pos in prop::collection::vec(0..n, 1..=3),
        (neg, has_neg) in (0..n, any::<bool>()),
    ) -> Vec<(u32, bool)> {
        let mut c: Vec<(u32, bool)> = pos.into_iter().map(|v| (v, false)).collect();
        if has_neg {
            c.push((neg, true));
        }
        c
    }
}

/// Cases of `dominance_keeps_the_minimum_on_repair_shaped_formulas`. Its
/// last case checks that the dominance rule fired somewhere in the run,
/// so the property cannot hold vacuously.
const REPAIR_CASES: usize = 512;
static REPAIR_CASES_RUN: AtomicUsize = AtomicUsize::new(0);
static REPAIR_DOMINATED: AtomicUsize = AtomicUsize::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(REPAIR_CASES as u32))]

    /// Repair-shaped formulas (every clause has a positive literal, so
    /// all-`True` is a model) exercise the dominance rule. Unbudgeted
    /// solves are proven and hit the brute-force minimum; solves cut at
    /// 1–4 nodes still return a model, never below the minimum, and equal
    /// to it whenever they claim optimality.
    #[test]
    fn dominance_keeps_the_minimum_on_repair_shaped_formulas(
        clauses in prop::collection::vec(arb_repair_clause(12), 0..24),
        budget in 1u64..=4,
    ) {
        let n = 12;
        let cnf = build_cnf(n, &clauses);
        let expected = brute_force_min_ones(&cnf, n).expect("all-true satisfies");
        let exact = solve_min_ones(&cnf, &MinOnesOptions::default())
            .solution()
            .expect("satisfiable");
        prop_assert!(exact.optimal, "unbudgeted solve must prove optimality");
        prop_assert!(cnf.eval(&exact.values));
        prop_assert_eq!(exact.ones as u32, expected, "formula: {:?}", cnf);
        let cut = solve_min_ones(
            &cnf,
            &MinOnesOptions { node_budget: budget, ..MinOnesOptions::default() },
        )
        .solution()
        .expect("satisfiable");
        prop_assert!(cnf.eval(&cut.values));
        prop_assert!(cut.ones as u32 >= expected);
        if cut.optimal {
            prop_assert_eq!(cut.ones as u32, expected, "formula: {:?}", cnf);
        }
        let d = exact.stats.dominated;
        let dominated = REPAIR_DOMINATED.fetch_add(d, Ordering::Relaxed) + d;
        if REPAIR_CASES_RUN.fetch_add(1, Ordering::Relaxed) + 1 == REPAIR_CASES {
            prop_assert!(dominated > 0, "the dominance rule never fired");
        }
    }
}

/// The greedy-descent incumbent: on pure hitting-set formulas the first
/// solution is already within a small factor of the optimum (this is what
/// the default node budget relies on).
#[test]
fn greedy_incumbent_quality_on_hitting_sets() {
    // 3-uniform hypergraph on 12 vertices, 30 deterministic pseudo-random
    // edges.
    let n = 12;
    let mut cnf = Cnf::new(n);
    let mut x: u64 = 0x243F6A8885A308D3;
    for _ in 0..30 {
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % n as u64) as u32
        };
        let (a, b, c) = (next(), next(), next());
        if a != b && b != c && a != c {
            cnf.add_clause(&[Lit::pos(a), Lit::pos(b), Lit::pos(c)]);
        }
    }
    let exact = solve_min_ones(&cnf, &MinOnesOptions::default())
        .solution()
        .expect("all-true satisfies");
    let fast = solve_min_ones(
        &cnf,
        &MinOnesOptions {
            first_solution_only: true,
            ..MinOnesOptions::default()
        },
    )
    .solution()
    .expect("satisfiable");
    assert!(exact.optimal);
    assert!(
        fast.ones <= 2 * exact.ones.max(1),
        "greedy {} vs exact {}",
        fast.ones,
        exact.ones
    );
}

/// Empty formula: satisfiable with zero ones.
#[test]
fn empty_formula_is_trivially_sat() {
    let cnf = Cnf::new(4);
    let sol = solve_min_ones(&cnf, &MinOnesOptions::default())
        .solution()
        .expect("no clauses");
    assert_eq!(sol.ones, 0);
}
