//! End semantics (Definition 3.10) with provenance collection.
//!
//! Standard datalog evaluation treating the delta relations as intensional:
//! base relations stay frozen at `R⁰` while `Δ` grows to its fixpoint; the
//! deletions are applied once at the end. Evaluation is semi-naive — each
//! round only considers assignments that use at least one delta tuple derived
//! in the previous round — so every assignment is enumerated exactly once.
//! That stream of assignments, together with each delta tuple's first
//! derivation round (its **layer**), is exactly the provenance Algorithm 2
//! consumes.

use crate::engine::{DeltaPolicy, FixpointDriver, FixpointOutcome};
use datalog::{Assignment, Evaluator};
use std::collections::HashMap;
use storage::{Instance, State, TupleId};

/// Everything end semantics produces.
#[derive(Debug)]
pub struct EndOutcome {
    /// Final state: `R = R⁰ \ Δ`, `Δ` at its fixpoint.
    pub state: State,
    /// `End(P, D)` — the deleted tuples, sorted.
    pub deleted: Vec<TupleId>,
    /// Every assignment enumerated during evaluation (the provenance
    /// stream), in derivation order.
    pub assignments: Vec<Assignment>,
    /// 1-based derivation round of each delta tuple.
    pub layers: HashMap<TupleId, u32>,
    /// Number of rounds until the fixpoint.
    pub rounds: u32,
}

impl From<FixpointOutcome> for EndOutcome {
    fn from(out: FixpointOutcome) -> EndOutcome {
        EndOutcome {
            state: out.state,
            deleted: out.deleted,
            assignments: out.assignments,
            layers: out.layers,
            rounds: out.rounds,
        }
    }
}

/// Run end semantics: the engine's semi-naive [`DeltaPolicy::AtEnd`]
/// fixpoint, recording the assignment stream Algorithm 2 consumes.
pub fn run(db: &Instance, ev: &Evaluator) -> EndOutcome {
    FixpointDriver::new(ev, DeltaPolicy::AtEnd { naive: false })
        .run(db)
        .into()
}

/// Naive end semantics: every round re-enumerates *all* assignments against
/// the full current delta set instead of the frontier — the evaluation
/// strategy of the paper's prototype ("a standard naive evaluation,
/// evaluating all rules iteratively, terminating when no new tuples have
/// been generated"). Produces the same fixpoint as [`run`]; kept as the
/// baseline for the semi-naive ablation bench.
pub fn run_naive(db: &Instance, ev: &Evaluator) -> EndOutcome {
    FixpointDriver::new(ev, DeltaPolicy::AtEnd { naive: true })
        .run(db)
        .into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{figure1_instance, figure2_program, names_of};
    use datalog::Evaluator;

    fn outcome() -> (Instance, EndOutcome) {
        let mut db = figure1_instance();
        let ev = Evaluator::new(&mut db, figure2_program()).unwrap();
        let out = run(&db, &ev);
        (db, out)
    }

    #[test]
    fn naive_and_semi_naive_agree() {
        let mut db = figure1_instance();
        let ev = Evaluator::new(&mut db, figure2_program()).unwrap();
        let fast = run(&db, &ev);
        let slow = run_naive(&db, &ev);
        assert_eq!(fast.deleted, slow.deleted);
        assert_eq!(fast.layers, slow.layers);
    }

    #[test]
    fn example_1_3_end_result() {
        // End(P, D) = {g2, a2, a3, w1, w2, p1, p2, c}.
        let (db, out) = outcome();
        assert_eq!(
            names_of(&db, &out.deleted),
            vec![
                "Author(4, Marge)",
                "Author(5, Homer)",
                "Cite(7, 6)",
                "Grant(2, ERC)",
                "Pub(6, x)",
                "Pub(7, y)",
                "Writes(4, 6)",
                "Writes(5, 7)",
            ]
        );
    }

    #[test]
    fn layers_match_figure_5() {
        let (db, out) = outcome();
        let layer = |name: &str| {
            let (&tid, _) = out
                .layers
                .iter()
                .find(|(&t, _)| db.display_tuple(t) == name)
                .unwrap();
            out.layers[&tid]
        };
        assert_eq!(layer("Grant(2, ERC)"), 1);
        assert_eq!(layer("Author(4, Marge)"), 2);
        assert_eq!(layer("Author(5, Homer)"), 2);
        assert_eq!(layer("Writes(4, 6)"), 3);
        assert_eq!(layer("Pub(6, x)"), 3);
        assert_eq!(layer("Cite(7, 6)"), 4);
        assert_eq!(
            out.rounds, 5,
            "four productive rounds + empty fixpoint round"
        );
    }

    #[test]
    fn assignment_stream_matches_example_2_1() {
        // Example 2.1: 1 (rule 0) + 2 (rule 1) + 2 (rule 2) + 2 (rule 3)
        // + 1 (rule 4) = 8 assignments, each exactly once.
        let (_, out) = outcome();
        assert_eq!(out.assignments.len(), 8);
        let mut per_rule = [0usize; 5];
        for a in &out.assignments {
            per_rule[a.rule] += 1;
        }
        assert_eq!(per_rule, [1, 2, 2, 2, 1]);
    }

    #[test]
    fn final_state_is_stable() {
        let mut db = figure1_instance();
        let ev = Evaluator::new(&mut db, figure2_program()).unwrap();
        let out = run(&db, &ev);
        assert!(ev.is_stable(&db, &out.state));
    }

    #[test]
    fn empty_program_deletes_nothing() {
        let mut db = figure1_instance();
        let ev = Evaluator::new(&mut db, datalog::Program::default()).unwrap();
        let out = run(&db, &ev);
        assert!(out.deleted.is_empty());
        assert_eq!(out.rounds, 1);
    }
}
