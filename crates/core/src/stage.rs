//! Stage semantics (Definition 3.7).
//!
//! At each stage, *all* satisfying assignments against the previous stage's
//! database are used to derive delta tuples, and only then are the
//! corresponding base tuples removed — like the semi-naive algorithm, but
//! with deletions applied between rounds. Rule order does not matter, the
//! fixpoint is unique (Proposition 3.9).

use crate::engine::{DeltaPolicy, FixpointDriver};
use datalog::Evaluator;
use storage::{Instance, State, TupleId};

/// Outcome of stage semantics.
#[derive(Debug)]
pub struct StageOutcome {
    /// Final stable state.
    pub state: State,
    /// `Stage(P, D)`, sorted.
    pub deleted: Vec<TupleId>,
    /// Number of stages until the fixpoint (a stage that derives nothing
    /// terminates and is not counted).
    pub stages: u32,
}

/// Run stage semantics: the engine's [`DeltaPolicy::PerStage`] fixpoint —
/// derive a whole round against `D^{t-1}`, then delete in one batch.
pub fn run(db: &Instance, ev: &Evaluator) -> StageOutcome {
    let out = FixpointDriver::new(ev, DeltaPolicy::PerStage).run(db);
    StageOutcome {
        state: out.state,
        deleted: out.deleted,
        stages: out.productive_rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{figure1_instance, figure2_program, names_of, tiny_instance};
    use datalog::{parse_program, Evaluator};

    #[test]
    fn example_3_8_stage_result() {
        // Stage(P, D) = {g2, a2, a3, w1, w2, p1, p2} — no Cite tuple: by the
        // time Δ(Pub) exists, the Writes tuples are already deleted, so rule
        // (4) never fires.
        let mut db = figure1_instance();
        let ev = Evaluator::new(&mut db, figure2_program()).unwrap();
        let out = run(&db, &ev);
        assert_eq!(
            names_of(&db, &out.deleted),
            vec![
                "Author(4, Marge)",
                "Author(5, Homer)",
                "Grant(2, ERC)",
                "Pub(6, x)",
                "Pub(7, y)",
                "Writes(4, 6)",
                "Writes(5, 7)",
            ]
        );
        assert_eq!(out.stages, 3, "Example 3.8 runs in three stages");
        assert!(ev.is_stable(&db, &out.state));
    }

    #[test]
    fn prop_3_20_item_2_stage_strictly_smaller_than_end() {
        // D = {R1(a), R2(a), R3(b1..bn)} with the chain program from the
        // proof of Proposition 3.20(2): stage stops before rule (3) fires.
        let mut db = tiny_instance(&[7], &[7], &[1, 2, 3, 4]);
        let program = parse_program(
            "delta R1(x) :- R1(x).
             delta R2(x) :- R2(x), delta R1(x).
             delta R3(y) :- R3(y), R1(x), delta R2(x).",
        )
        .unwrap();
        let ev = Evaluator::new(&mut db, program).unwrap();
        let stage_out = run(&db, &ev);
        assert_eq!(stage_out.deleted.len(), 2, "only R1(7), R2(7)");
        let end_out = crate::end::run(&db, &ev);
        assert_eq!(end_out.deleted.len(), 6, "end also deletes all of R3");
        assert!(stage_out
            .deleted
            .iter()
            .all(|t| end_out.deleted.contains(t)));
    }

    #[test]
    fn stage_deletes_both_heads_of_shared_bodies() {
        // Two rules with the same body fire in the same stage (proof of
        // Prop. 3.20(4) part 1): everything is deleted.
        let mut db = tiny_instance(&[1], &[10, 20, 30], &[]);
        let program = parse_program(
            "delta R1(x) :- R1(x), R2(y).
             delta R2(y) :- R1(x), R2(y).",
        )
        .unwrap();
        let ev = Evaluator::new(&mut db, program).unwrap();
        let out = run(&db, &ev);
        assert_eq!(out.deleted.len(), 4, "stage = the whole database");
        assert_eq!(out.stages, 1);
    }

    #[test]
    fn stable_database_needs_no_stages() {
        let mut db = tiny_instance(&[1], &[], &[]);
        let program = parse_program("delta R1(x) :- R1(x), R2(y).").unwrap();
        let ev = Evaluator::new(&mut db, program).unwrap();
        let out = run(&db, &ev);
        assert!(out.deleted.is_empty());
        assert_eq!(out.stages, 0);
    }
}
