//! Independent semantics (Definition 3.3) — Algorithm 1 plus an exact
//! reference.
//!
//! The result is the smallest set `S` of tuples such that
//! `(D \ S) ∪ Δ(S)` satisfies no rule. Algorithm 1:
//!
//! 1. **Eval** — enumerate every *possible* assignment (delta atoms range
//!    over all of `D`, not just derivable deltas) and store each as a DNF
//!    provenance clause;
//! 2. **Process Prov** — negate the disjunction: a CNF over per-tuple
//!    deletion variables;
//! 3. **Solve** — Min-Ones SAT: a model with the fewest `True` (deleted)
//!    variables is a minimum stabilizing set.

use crate::result::PhaseBreakdown;
use datalog::{Evaluator, Mode};
use provenance::ProvFormulaBuilder;
use sat::{solve_min_ones, MinOnesOptions, Outcome};
use std::time::Instant;
use storage::{Instance, State, TupleId};

/// Outcome of Algorithm 1.
#[derive(Debug)]
pub struct IndependentOutcome {
    /// Final state after deleting the set.
    pub state: State,
    /// `Ind(P, D)`, sorted.
    pub deleted: Vec<TupleId>,
    /// Eval / Process Prov / Solve, Figure 8's categories for Algorithm 1.
    pub breakdown: PhaseBreakdown,
    /// Whether the SAT search proved minimality (no budget cut-off).
    pub optimal: bool,
    /// Did a wall-clock deadline force the fast first-solution descent
    /// instead of the exact search? Implies `optimal == false` unless the
    /// first descent happened to be provably minimum.
    pub timed_out: bool,
    /// Number of CNF clauses after deduplication.
    pub cnf_clauses: usize,
    /// SAT statistics.
    pub sat_stats: sat::Stats,
}

/// Run Algorithm 1 with the given solver options.
pub fn run(db: &Instance, ev: &Evaluator, opts: &MinOnesOptions) -> IndependentOutcome {
    run_with_deadline(db, ev, opts, None)
}

/// [`run`] with a wall-clock deadline. The deadline is checked between the
/// phases of Algorithm 1 (the solver itself is budgeted in decision nodes,
/// not time): if Eval + Process Prov already exceeded it, the Solve phase
/// degrades to the first-solution descent — a stabilizing but possibly
/// non-minimum answer — and the outcome is marked `timed_out`.
pub fn run_with_deadline(
    db: &Instance,
    ev: &Evaluator,
    opts: &MinOnesOptions,
    deadline: Option<std::time::Instant>,
) -> IndependentOutcome {
    // Phase 1: Eval — provenance of all possible delta tuples, folded into
    // clauses as they stream out of the evaluator. With a parallel build
    // and more than one worker allowed, the hypothetical enumeration runs
    // morsel-parallel and completed morsels stream into the builder in
    // deterministic task order (no whole-stream materialization); the
    // serial path streams straight into the builder as before.
    let t0 = Instant::now();
    let state0 = db.initial_state();
    let mut builder = ProvFormulaBuilder::new();
    #[cfg(feature = "parallel")]
    let streamed_serially = opts.threads <= 1;
    #[cfg(not(feature = "parallel"))]
    let streamed_serially = true;
    if streamed_serially {
        ev.for_each_assignment(db, &state0, Mode::Hypothetical, &mut |a| {
            builder.add(a);
            true
        });
    }
    #[cfg(feature = "parallel")]
    if !streamed_serially {
        ev.par_for_each(
            db,
            &state0,
            Mode::Hypothetical,
            datalog::ParScope::All,
            opts.threads,
            &mut |a| builder.add(a),
        );
    }
    let eval = t0.elapsed();

    // Phase 2: Process Prov — rank the tuples, order and deduplicate the
    // clauses, and write the negated formula as a CNF over deletion
    // variables.
    let t1 = Instant::now();
    let formula = builder.finish();
    let cnf = formula.negated_cnf();
    let process = t1.elapsed();

    // Phase 3: Solve — Min-Ones SAT.
    let t2 = Instant::now();
    let timed_out = deadline.is_some_and(|d| Instant::now() >= d);
    let effective = if timed_out {
        MinOnesOptions {
            first_solution_only: true,
            ..*opts
        }
    } else {
        *opts
    };
    let outcome = solve_min_ones(cnf, &effective);
    let solve = t2.elapsed();

    let solution = match outcome {
        Outcome::Sat(s) => s,
        // Proposition 3.18: a stabilizing set always exists (every clause
        // has a positive literal via the head witness), so ¬F is always
        // satisfiable.
        Outcome::Unsat => unreachable!("delta-rule CNFs are always satisfiable"),
    };
    // The universe is sorted, so the delete-set comes out sorted.
    let deleted: Vec<TupleId> = formula
        .universe()
        .iter()
        .zip(&solution.values)
        .filter(|(_, &del)| del)
        .map(|(&t, _)| t)
        .collect();
    let mut state = db.initial_state();
    for &t in &deleted {
        state.delete(t);
    }
    IndependentOutcome {
        state,
        deleted,
        breakdown: PhaseBreakdown {
            eval,
            process,
            solve,
        },
        optimal: solution.optimal,
        timed_out,
        cnf_clauses: cnf.num_clauses(),
        sat_stats: solution.stats,
    }
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
        assert_eq!(default_run(&db, &ev).cnf_clauses, 7);
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
        assert_eq!(out.cnf_clauses, 0);
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
