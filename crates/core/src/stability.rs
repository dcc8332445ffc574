//! Stable databases and stabilizing sets (Definitions 3.12 and 3.14).
//!
//! Stability needs no fixpoint: one round over the live view, stopping at
//! the first satisfying assignment (the instability witness) —
//! [`Evaluator::find_violation`].

use datalog::{Assignment, Evaluator};
use storage::{Instance, State, TupleId};

/// Build the state `(D \ S) ∪ Δ(S)` from a deletion set.
pub fn state_from_deleted(db: &Instance, deleted: &[TupleId]) -> State {
    let mut state = db.initial_state();
    for &t in deleted {
        state.delete(t);
    }
    state
}

/// Is `state` stable w.r.t. the program (Def. 3.12)? Returns the witness
/// assignment when it is not.
pub fn violation_in(db: &Instance, ev: &Evaluator, state: State) -> Option<Assignment> {
    ev.find_violation(db, &state)
}

/// Is `deleted` a stabilizing set for `db` under `ev`'s program
/// (Def. 3.14)?
pub fn is_stabilizing(db: &Instance, ev: &Evaluator, deleted: &[TupleId]) -> bool {
    violation_in(db, ev, state_from_deleted(db, deleted)).is_none()
}

/// Is the original database already stable (Def. 3.12)?
pub fn initially_stable(db: &Instance, ev: &Evaluator) -> bool {
    violation_in(db, ev, db.initial_state()).is_none()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{DeltaPolicy, FixpointDriver};
    use crate::testkit::{figure1_instance, figure2_program, tid_of};
    use datalog::Evaluator;

    #[test]
    fn whole_database_is_always_stabilizing() {
        // Proposition 3.18: D itself is a stabilizing set.
        let mut db = figure1_instance();
        let ev = Evaluator::new(&mut db, figure2_program()).unwrap();
        let all: Vec<_> = db.all_tuple_ids().collect();
        assert!(is_stabilizing(&db, &ev, &all));
    }

    #[test]
    fn example_1_2_stabilizing_sets() {
        // {a2, a3, w1, w2, p1, p2, c}, {a2, a3, w1, w2, p1, p2},
        // {a2, a3, w1, w2} and {ag2, ag3} are all stabilizing once g2 is
        // included (rule (0) forces g2 into every stabilizing set).
        let mut db = figure1_instance();
        let ev = Evaluator::new(&mut db, figure2_program()).unwrap();
        let t = |n: &str| tid_of(&db, n);
        let with_g2 = |mut v: Vec<TupleId>| {
            v.push(t("Grant(2, ERC)"));
            v
        };
        let sets: Vec<Vec<TupleId>> = vec![
            with_g2(vec![
                t("Author(4, Marge)"),
                t("Author(5, Homer)"),
                t("Writes(4, 6)"),
                t("Writes(5, 7)"),
                t("Pub(6, x)"),
                t("Pub(7, y)"),
                t("Cite(7, 6)"),
            ]),
            with_g2(vec![
                t("Author(4, Marge)"),
                t("Author(5, Homer)"),
                t("Writes(4, 6)"),
                t("Writes(5, 7)"),
                t("Pub(6, x)"),
                t("Pub(7, y)"),
            ]),
            with_g2(vec![
                t("Author(4, Marge)"),
                t("Author(5, Homer)"),
                t("Writes(4, 6)"),
                t("Writes(5, 7)"),
            ]),
            with_g2(vec![t("AuthGrant(4, 2)"), t("AuthGrant(5, 2)")]),
        ];
        for s in &sets {
            assert!(is_stabilizing(&db, &ev, s), "{s:?} should stabilize");
        }
    }

    #[test]
    fn partial_sets_are_not_stabilizing() {
        let mut db = figure1_instance();
        let ev = Evaluator::new(&mut db, figure2_program()).unwrap();
        let t = |n: &str| tid_of(&db, n);
        assert!(!is_stabilizing(&db, &ev, &[]));
        assert!(!is_stabilizing(&db, &ev, &[t("Grant(2, ERC)")]));
        assert!(!is_stabilizing(
            &db,
            &ev,
            &[t("Grant(2, ERC)"), t("AuthGrant(4, 2)")]
        ));
    }

    #[test]
    fn violation_in_finds_the_witness() {
        let mut db = figure1_instance();
        let ev = Evaluator::new(&mut db, figure2_program()).unwrap();
        let witness = violation_in(&db, &ev, db.initial_state()).expect("figure 1 is unstable");
        assert_eq!(witness.rule, 0);
        assert_eq!(db.display_tuple(witness.head), "Grant(2, ERC)");

        // Seeding the state with the End deletion set stabilizes it.
        let end = FixpointDriver::new(&ev, DeltaPolicy::AtEnd { naive: false }).run(&db);
        assert!(violation_in(&db, &ev, state_from_deleted(&db, &end.deleted)).is_none());
    }

    #[test]
    fn figure1_is_initially_unstable() {
        let mut db = figure1_instance();
        let ev = Evaluator::new(&mut db, figure2_program()).unwrap();
        assert!(!initially_stable(&db, &ev));
    }
}
