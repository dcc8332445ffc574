//! Independent semantics (Definition 3.3) — Algorithm 1, the lazy loop
//! that serves it, and an exact reference.
//!
//! The result is the smallest set `S` of tuples such that
//! `(D \ S) ∪ Δ(S)` satisfies no rule. Algorithm 1 ([`run`]):
//!
//! 1. **Eval** — enumerate every *possible* assignment (delta atoms range
//!    over all of `D`, not just derivable deltas) and store each as a DNF
//!    provenance clause;
//! 2. **Process Prov** — negate the disjunction: a CNF over per-tuple
//!    deletion variables;
//! 3. **Solve** — Min-Ones SAT: a model with the fewest `True` (deleted)
//!    variables is a minimum stabilizing set.
//!
//! [`serve`] reaches the same minimum without enumerating every possible
//! assignment: it grows a pool of `¬F`'s clauses from the assignments
//! that fire under its current candidate and solves only the pool (an
//! implicit hitting-set loop). Sessions serve Independent through it;
//! [`run`] stays as the paper's algorithm for Figure 8 and the tests.

use crate::engine::{DeltaPolicy, FixpointDriver};
use crate::result::PhaseBreakdown;
use crate::stability::state_from_deleted;
use datalog::{Assignment, DeltaFrontier, EvalScratch, Evaluator, Mode, Round};
use provenance::{ProvFormula, ProvFormulaBuilder};
use sat::{solve_min_ones, MinOnesOptions, Outcome, Solution};
use std::time::Instant;
use storage::{Instance, State, TupleId};

/// Outcome of Algorithm 1 or of the lazy loop.
#[derive(Debug)]
pub struct IndependentOutcome {
    /// Final state after deleting the set.
    pub state: State,
    /// `Ind(P, D)`, sorted.
    pub deleted: Vec<TupleId>,
    /// Eval / Process Prov / Solve, Figure 8's categories for Algorithm 1.
    /// For the lazy loop: check rounds, pool CNF builds, and solves.
    pub breakdown: PhaseBreakdown,
    /// Whether every SAT search proved minimality (no budget cut-off).
    pub optimal: bool,
    /// Did the lazy loop's deadline cut it short? It then closed its
    /// current candidate into a stabilizing set, and `optimal` is `false`.
    /// Algorithm 1 takes no deadline.
    pub timed_out: bool,
    /// Check rounds of the lazy loop (0 for Algorithm 1).
    pub rounds: u32,
    /// The formula the last solve read: all of `¬F` for Algorithm 1, the
    /// clause pool for the lazy loop. Its [`ProvFormula::len`] is the
    /// outcome's CNF clause count.
    pub formula: ProvFormula,
    /// SAT statistics, summed over the lazy loop's solves.
    pub sat_stats: sat::Stats,
}

/// Run Algorithm 1 with the given solver options.
pub fn run(db: &Instance, ev: &Evaluator, opts: &MinOnesOptions) -> IndependentOutcome {
    // Phase 1: Eval — provenance of all possible delta tuples, folded into
    // clauses as they stream out of the evaluator.
    let t0 = Instant::now();
    let state0 = db.initial_state();
    let mut builder = ProvFormulaBuilder::new();
    ev.for_each_assignment(db, &state0, Mode::Hypothetical, &mut |a| {
        builder.add(a);
        true
    });
    let eval = t0.elapsed();

    // Phase 2: Process Prov — rank the tuples, order and deduplicate the
    // clauses, and write the negated formula as a CNF over deletion
    // variables.
    let t1 = Instant::now();
    let formula = builder.finish();
    let process = t1.elapsed();

    // Phase 3: Solve — Min-Ones SAT.
    let t2 = Instant::now();
    let solution = solve(&formula, opts);
    let solve = t2.elapsed();

    let deleted = delete_set(&formula, &solution);
    IndependentOutcome {
        state: state_from_deleted(db, &deleted),
        deleted,
        breakdown: PhaseBreakdown {
            eval,
            process,
            solve,
        },
        optimal: solution.optimal,
        timed_out: false,
        rounds: 0,
        formula,
        sat_stats: solution.stats,
    }
}

/// Serve Independent by growing `¬F` from counterexamples instead of
/// enumerating every possible assignment. Starting from `S₀ = ∅`:
///
/// 1. **Check round** — enumerate the assignments that fire in
///    `(D \ Sₖ) ∪ Δ(Sₖ)` ([`Mode::Current`] on the state that deletes
///    `Sₖ`, Def. 3.12). If none fire, `Sₖ` is stabilizing: stop.
/// 2. Otherwise add their clauses to the pool, solve Min-Ones on the
///    pool's canonical CNF, and take its model as `Sₖ₊₁`.
///
/// Each clause of the pool is a clause of `¬F` (an assignment firing under
/// `Sₖ` is a possible assignment that `Sₖ` violates), so a proven pool
/// minimum is a lower bound on `|Ind(P, D)|`; a model of the pool that is
/// stabilizing satisfies all of `¬F`, so it is a minimum. Every round adds
/// at least one clause the previous model violates, and `¬F` is finite, so
/// the loop ends.
///
/// Every round after the first is **change-seeded**: it enumerates only the
/// assignments binding a tuple of `Sₖ △ Sₖ₋₁`. One binding no changed
/// tuple fired under `Sₖ₋₁` too, so its clause is in the pool, which `Sₖ`
/// satisfies — it cannot fire. The first round runs only the rules without
/// delta atoms: under `S₀ = ∅` the delta relations are empty.
///
/// Budgets: `opts.node_budget` applies to each round's solve, and the
/// outcome is `optimal` only if every solve proved its minimum. At
/// `deadline`, checked after each check round that found violations, the
/// current candidate is closed by deleting the heads of firing
/// assignments until stable (Def. 3.7's rounds from `Sₖ`): a stabilizing
/// but not minimum answer, marked `timed_out`. The loop is serial.
pub fn serve(
    db: &Instance,
    ev: &Evaluator,
    opts: &MinOnesOptions,
    deadline: Option<Instant>,
) -> IndependentOutcome {
    let mut breakdown = PhaseBreakdown::default();
    let mut pool = ProvFormulaBuilder::new();
    let mut formula = ProvFormula::default();
    let mut scratch = EvalScratch::new();
    // `Sₖ △ Sₖ₋₁` as the next round's seed, and as the list that clears it.
    let mut seed = DeltaFrontier::empty(db);
    let mut flipped: Vec<TupleId> = Vec::new();
    let mut deleted: Vec<TupleId> = Vec::new();
    let mut state = db.initial_state();
    let mut sat_stats = sat::Stats::default();
    let (mut rounds, mut optimal, mut timed_out) = (0, true, false);
    loop {
        let t = Instant::now();
        rounds += 1;
        let mut fired = false;
        let mut grow = |a: &Assignment| {
            pool.add(a);
            fired = true;
            true
        };
        let round = if rounds == 1 {
            Round::Base
        } else {
            Round::Seeded(&seed)
        };
        ev.enumerate(db, &state, Mode::Current, round, &mut scratch, &mut grow);
        breakdown.eval += t.elapsed();
        if !fired {
            break;
        }

        let t = Instant::now();
        formula = pool.clone().finish();
        breakdown.process += t.elapsed();
        if deadline.is_some_and(|d| Instant::now() >= d) {
            let t = Instant::now();
            let closed = FixpointDriver::new(ev, DeltaPolicy::PerStage).run_from(db, state);
            breakdown.eval += t.elapsed();
            (state, deleted) = (closed.state, closed.deleted);
            (optimal, timed_out) = (false, true);
            break;
        }

        let t = Instant::now();
        let solution = solve(&formula, opts);
        breakdown.solve += t.elapsed();
        optimal &= solution.optimal;
        sat_stats.absorb(&solution.stats);
        let next = delete_set(&formula, &solution);
        let next_state = state_from_deleted(db, &next);
        // The next seed: the tuples in exactly one of `Sₖ` and `Sₖ₊₁`.
        for &tid in &flipped {
            seed.remove(tid);
        }
        flipped.clear();
        flipped.extend(deleted.iter().filter(|&&tid| !next_state.in_delta(tid)));
        flipped.extend(next.iter().filter(|&&tid| !state.in_delta(tid)));
        for &tid in &flipped {
            seed.insert(tid);
        }
        (state, deleted) = (next_state, next);
    }
    IndependentOutcome {
        state,
        deleted,
        breakdown,
        optimal,
        timed_out,
        rounds,
        formula,
        sat_stats,
    }
}

/// Min-Ones on `formula`'s negated CNF.
fn solve(formula: &ProvFormula, opts: &MinOnesOptions) -> Solution {
    match solve_min_ones(formula.negated_cnf(), opts) {
        Outcome::Sat(s) => s,
        // Proposition 3.18: a stabilizing set always exists (every clause
        // has a positive literal via the head witness), so ¬F — and any
        // subset of its clauses — is always satisfiable.
        Outcome::Unsat => unreachable!("delta-rule CNFs are always satisfiable"),
    }
}

/// The tuples `solution` deletes, sorted (the universe is sorted).
fn delete_set(formula: &ProvFormula, solution: &Solution) -> Vec<TupleId> {
    formula
        .universe()
        .iter()
        .zip(&solution.values)
        .filter(|(_, &del)| del)
        .map(|(&t, _)| t)
        .collect()
}

/// Exact independent semantics by subset enumeration in increasing size over
/// the tuples mentioned in the provenance formula. Exponential — test use
/// only. Returns `None` if the universe exceeds `max_universe` tuples.
pub fn optimal(db: &Instance, ev: &Evaluator, max_universe: usize) -> Option<Vec<TupleId>> {
    let state0 = db.initial_state();
    let mut builder = ProvFormulaBuilder::new();
    ev.for_each_assignment(db, &state0, Mode::Hypothetical, &mut |a| {
        builder.add(a);
        true
    });
    let formula = builder.finish();
    let universe = formula.universe();
    let n = universe.len();
    if n > max_universe {
        return None;
    }
    if n == 0 {
        return Some(Vec::new());
    }
    // Subsets in order of increasing size: for each size k, the
    // k-combinations of universe indices in colexicographic order (the
    // order of their bitmasks), advanced in place.
    let mut deleted = vec![false; n];
    for k in 0..=n {
        let mut idx: Vec<usize> = (0..k).collect();
        loop {
            deleted.fill(false);
            for &i in &idx {
                deleted[i] = true;
            }
            if formula.stable_under(&deleted) {
                // The universe is sorted and `idx` ascends.
                return Some(idx.iter().map(|&i| universe[i]).collect());
            }
            // Bump the lowest index that has room below its successor and
            // reset the ones beneath it.
            let Some(i) = (0..k).find(|&i| idx[i] + 1 < idx.get(i + 1).copied().unwrap_or(n))
            else {
                break;
            };
            idx[i] += 1;
            for (j, slot) in idx[..i].iter_mut().enumerate() {
                *slot = j;
            }
        }
    }
    unreachable!("the full universe is always stabilizing")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{figure1_instance, figure2_program, names_of, tiny_instance};
    use datalog::{parse_program, Evaluator};

    fn default_run(db: &Instance, ev: &Evaluator) -> IndependentOutcome {
        run(db, ev, &MinOnesOptions::default())
    }

    #[test]
    fn example_3_4_independent_result() {
        // Ind(P, D) = {g2, ag2, ag3}: deleting the AuthGrant tuples voids
        // rule (1) without any cascade.
        let mut db = figure1_instance();
        let ev = Evaluator::new(&mut db, figure2_program()).unwrap();
        let out = default_run(&db, &ev);
        assert_eq!(
            names_of(&db, &out.deleted),
            vec!["AuthGrant(4, 2)", "AuthGrant(5, 2)", "Grant(2, ERC)"]
        );
        assert!(out.optimal);
        assert!(ev.is_stable(&db, &out.state));
    }

    #[test]
    fn example_5_1_formula_shape() {
        // After dedup (rules 2/3 share bodies) the negated formula has the
        // six clauses Example 5.1 prints, plus the rule-1 clause through
        // g1/ag1/a1, which the example omits: it is satisfied by deleting
        // g1 alone and does not change the result. Canonical order sorts
        // clauses by their (present, deleted) tuples.
        let mut db = figure1_instance();
        let ev = Evaluator::new(&mut db, figure2_program()).unwrap();
        let mut builder = ProvFormulaBuilder::new();
        ev.for_each_assignment(&db, &db.initial_state(), Mode::Hypothetical, &mut |a| {
            builder.add(a);
            true
        });
        let rendered = builder.finish().render_negation(&db);
        let clauses: Vec<&str> = rendered.split(" ∧ ").collect();
        assert_eq!(
            clauses,
            [
                "(¬Grant(2, ERC))",
                "(¬AuthGrant(2, 1) ∨ ¬Author(2, Maggie) ∨ Grant(1, NSF))",
                "(¬AuthGrant(4, 2) ∨ ¬Author(4, Marge) ∨ Grant(2, ERC))",
                "(¬AuthGrant(5, 2) ∨ ¬Author(5, Homer) ∨ Grant(2, ERC))",
                "(¬Cite(7, 6) ∨ ¬Writes(4, 6) ∨ ¬Writes(5, 7) ∨ Pub(6, x))",
                "(¬Writes(4, 6) ∨ ¬Pub(6, x) ∨ Author(4, Marge))",
                "(¬Writes(5, 7) ∨ ¬Pub(7, y) ∨ Author(5, Homer))",
            ]
        );
        assert_eq!(default_run(&db, &ev).formula.len(), 7);
    }

    #[test]
    fn matches_exact_search_on_running_example() {
        let mut db = figure1_instance();
        let ev = Evaluator::new(&mut db, figure2_program()).unwrap();
        let alg1 = default_run(&db, &ev);
        let exact = optimal(&db, &ev, 13).unwrap();
        assert_eq!(alg1.deleted.len(), exact.len());
    }

    #[test]
    fn lazy_loop_matches_algorithm_1_from_a_smaller_pool() {
        let mut db = figure1_instance();
        let ev = Evaluator::new(&mut db, figure2_program()).unwrap();
        let eager = default_run(&db, &ev);
        let lazy = serve(&db, &ev, &MinOnesOptions::default(), None);
        assert_eq!(lazy.deleted, eager.deleted);
        assert!(lazy.optimal && !lazy.timed_out);
        assert!(ev.is_stable(&db, &lazy.state));
        // Round 1 finds rule (0)'s seed; deleting Grant(2, ERC) fires rule
        // (1) twice in round 2; round 3 confirms the AuthGrant deletions.
        assert_eq!(lazy.rounds, 3);
        assert_eq!(lazy.formula.len(), 3);
        assert_eq!(eager.rounds, 0);
    }

    #[test]
    fn lazy_loop_closes_its_candidate_at_the_deadline() {
        // A deadline already past: round 1 finds the seed, and the empty
        // candidate is closed by stage rounds into a stabilizing set.
        let mut db = figure1_instance();
        let ev = Evaluator::new(&mut db, figure2_program()).unwrap();
        let out = serve(&db, &ev, &MinOnesOptions::default(), Some(Instant::now()));
        assert!(out.timed_out && !out.optimal);
        assert_eq!(out.rounds, 1);
        assert!(ev.is_stable(&db, &out.state));
        assert_eq!(out.deleted, crate::stage::run(&db, &ev).deleted);
    }

    #[test]
    fn check_rounds_seed_restored_tuples_too() {
        // A later model drops a tuple an earlier one deleted; the restored
        // tuple takes part in a new violation at a base position, which a
        // check seeded by the newly deleted tuples alone would miss.
        let mut s = storage::Schema::new();
        s.relation("R", &[("x", storage::AttrType::Int)]);
        s.relation(
            "S",
            &[("x", storage::AttrType::Int), ("y", storage::AttrType::Int)],
        );
        s.relation("T", &[("y", storage::AttrType::Int)]);
        let mut db = Instance::new(s);
        let int = storage::Value::Int;
        for x in [0, 1, 2] {
            db.insert_values("R", [int(x)]).unwrap();
        }
        for (x, y) in [(0, 2), (0, 3), (2, 0), (2, 3), (3, 0), (3, 1)] {
            db.insert_values("S", [int(x), int(y)]).unwrap();
        }
        for y in [0, 1, 2, 3] {
            db.insert_values("T", [int(y)]).unwrap();
        }
        let program = parse_program(
            "delta R(x) :- R(x), x = 0.
             delta R(x) :- R(x), S(x, y), T(y).
             delta S(x, y) :- S(x, y), delta R(x).
             delta S(x, y) :- S(x, y), T(y), x != y.
             delta T(y) :- T(y), delta S(x, y).
             delta R(x) :- R(x), S(x, x).",
        )
        .unwrap();
        let ev = Evaluator::new(&mut db, program).unwrap();
        let lazy = serve(&db, &ev, &MinOnesOptions::default(), None);
        assert!(ev.is_stable(&db, &lazy.state));
        assert_eq!(lazy.deleted, default_run(&db, &ev).deleted);
    }

    #[test]
    fn prop_3_20_item_1_ind_can_beat_everything() {
        // D = {R1(a1..a5), R2(b)}, rule ΔR1(x) :- R1(x), R2(y): independent
        // deletes just R2(b); the others must delete all of R1.
        let mut db = tiny_instance(&[1, 2, 3, 4, 5], &[9], &[]);
        let program = parse_program("delta R1(x) :- R1(x), R2(y).").unwrap();
        let ev = Evaluator::new(&mut db, program).unwrap();
        let ind = default_run(&db, &ev);
        assert_eq!(names_of(&db, &ind.deleted), vec!["R2(9)"]);
        let end_out = crate::end::run(&db, &ev);
        assert_eq!(end_out.deleted.len(), 5);
    }

    #[test]
    fn unconstrained_stable_database() {
        let mut db = tiny_instance(&[1], &[], &[]);
        let program = parse_program("delta R1(x) :- R1(x), R2(y).").unwrap();
        let ev = Evaluator::new(&mut db, program).unwrap();
        let out = default_run(&db, &ev);
        assert!(out.deleted.is_empty());
        assert_eq!(out.formula.len(), 0);
    }

    #[test]
    fn first_solution_mode_still_stabilizes() {
        let mut db = figure1_instance();
        let ev = Evaluator::new(&mut db, figure2_program()).unwrap();
        let out = run(
            &db,
            &ev,
            &MinOnesOptions {
                first_solution_only: true,
                ..Default::default()
            },
        );
        assert!(ev.is_stable(&db, &out.state));
    }

    #[test]
    fn exact_enumerator_handles_universes_past_64_tuples() {
        // 70 R1 tuples plus R2(9): a 71-tuple universe, beyond any
        // 64-bit subset mask. Deleting R2(9) alone is the minimum.
        let r1: Vec<i64> = (1..=70).collect();
        let mut db = tiny_instance(&r1, &[9], &[]);
        let program = parse_program("delta R1(x) :- R1(x), R2(y).").unwrap();
        let ev = Evaluator::new(&mut db, program).unwrap();
        let exact = optimal(&db, &ev, 100).unwrap();
        assert_eq!(names_of(&db, &exact), vec!["R2(9)"]);
    }

    #[test]
    fn exact_enumerator_budget() {
        let mut db = figure1_instance();
        let ev = Evaluator::new(&mut db, figure2_program()).unwrap();
        assert!(optimal(&db, &ev, 2).is_none());
    }
}
