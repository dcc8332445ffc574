//! # triggers — "after delete, delete" SQL trigger simulation
//!
//! Section 6 of *"On Multiple Semantics for Declarative Database Repairs"*
//! compares the four semantics against SQL triggers in PostgreSQL and MySQL.
//! The decisive difference between the systems is the **firing order** of
//! several triggers attached to the same event:
//!
//! * PostgreSQL fires them **alphabetically by trigger name**;
//! * MySQL fires them in **creation order**.
//!
//! This crate interprets a delta program as a set of triggers over the
//! in-memory engine and reproduces both policies:
//!
//! * a rule *without* delta atoms in its body acts as an initiating `DELETE`
//!   statement (the event that starts the repair);
//! * a rule *with* a delta atom over `R_j` is an `AFTER DELETE ON R_j FOR
//!   EACH ROW` trigger whose action deletes the head tuples matching the
//!   deleted row.
//!
//! Execution is row-level and eager, like MySQL's `FOR EACH ROW` and close
//! enough to PostgreSQL's row-level AFTER triggers for the phenomena the
//! paper reports (e.g. program 4, where firing the author-deleting trigger
//! first removes every author of an organization and then starves the
//! organization-deleting trigger, producing a much larger repair than step
//! semantics would).

use datalog::{DeltaFrontier, EvalScratch, Evaluator, Mode, Program, Round};
use std::collections::VecDeque;
use storage::{Instance, State, TupleId};

/// The firing-order policy for triggers attached to the same event.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FiringOrder {
    /// PostgreSQL: alphabetical by trigger name.
    Alphabetical,
    /// MySQL: order of creation.
    CreationOrder,
}

/// One trigger: a name (PostgreSQL sorts by it) and the delta rule it
/// executes.
#[derive(Clone, Debug)]
pub struct Trigger {
    /// Trigger name.
    pub name: String,
    /// Index of the rule in the program.
    pub rule: usize,
}

/// Derive a default trigger set from a program: one trigger per rule, named
/// `t<rule>_<head relation>` (so alphabetical order equals creation order
/// until callers rename them, as the paper's scenarios do).
pub fn triggers_from_program(program: &Program) -> Vec<Trigger> {
    program
        .rules
        .iter()
        .enumerate()
        .map(|(i, r)| Trigger {
            name: format!("t{}_{}", i, r.head.relation.to_lowercase()),
            rule: i,
        })
        .collect()
}

/// Result of a trigger cascade.
#[derive(Clone, Debug)]
pub struct TriggerRun {
    /// All tuples deleted, sorted.
    pub deleted: Vec<TupleId>,
    /// Final state.
    pub state: State,
    /// Number of trigger/statement activations that deleted at least one
    /// row.
    pub activations: usize,
    /// Is the final state stable w.r.t. the program? (Triggers do not
    /// guarantee stability; the four semantics do.)
    pub stable: bool,
}

/// Execute the trigger simulation.
///
/// Initiating statements (rules without delta atoms) run one at a time in
/// firing order, each cascading to exhaustion before the next starts —
/// matching sequential SQL statements.
pub fn run_triggers(
    db: &Instance,
    ev: &Evaluator,
    triggers: &[Trigger],
    order: FiringOrder,
) -> TriggerRun {
    let mut ordered: Vec<&Trigger> = triggers.iter().collect();
    if order == FiringOrder::Alphabetical {
        ordered.sort_by(|a, b| a.name.cmp(&b.name));
    }
    let seeds: Vec<&Trigger> = ordered
        .iter()
        .copied()
        .filter(|t| !ev.rule_has_delta_body(t.rule))
        .collect();
    let reactive: Vec<&Trigger> = ordered
        .iter()
        .copied()
        .filter(|t| ev.rule_has_delta_body(t.rule))
        .collect();

    let mut state = db.initial_state();
    let mut activations = 0usize;

    for seed in seeds {
        // The initiating DELETE statement for this rule.
        let mut heads: Vec<TupleId> = Vec::new();
        let (mode, round) = (Mode::Current, Round::Full);
        let scratch = &mut EvalScratch::new();
        ev.enumerate_rule(seed.rule, db, &state, mode, round, scratch, &mut |a| {
            if !heads.contains(&a.head) {
                heads.push(a.head);
            }
            true
        });
        if heads.is_empty() {
            continue;
        }
        activations += 1;
        let mut queue: VecDeque<TupleId> = VecDeque::new();
        for h in heads {
            if state.is_present(h) {
                state.delete(h);
                queue.push_back(h);
            }
        }
        cascade(db, ev, &reactive, &mut state, &mut queue, &mut activations);
    }

    let deleted = state.all_delta_rows();
    let stable = ev.is_stable(db, &state);
    TriggerRun {
        deleted,
        state,
        activations,
        stable,
    }
}

/// Drain the row-event queue: for each deleted row, fire every trigger
/// listening on its relation, in order, applying each trigger's deletions
/// immediately.
fn cascade(
    db: &Instance,
    ev: &Evaluator,
    reactive: &[&Trigger],
    state: &mut State,
    queue: &mut VecDeque<TupleId>,
    activations: &mut usize,
) {
    // One frontier for the whole cascade, holding exactly the row being
    // reacted to: set before each trigger fires, cleared right after.
    let mut frontier = DeltaFrontier::empty(db);
    while let Some(row) = queue.pop_front() {
        for trig in reactive {
            if !ev.rule_listens_to(trig.rule, row.rel) {
                continue;
            }
            frontier.insert(row);
            let mut heads: Vec<TupleId> = Vec::new();
            let (mode, round) = (Mode::Current, Round::Frontier(&frontier));
            let scratch = &mut EvalScratch::new();
            ev.enumerate_rule(trig.rule, db, state, mode, round, scratch, &mut |a| {
                if state.is_present(a.head) && !heads.contains(&a.head) {
                    heads.push(a.head);
                }
                true
            });
            frontier.remove(row);
            if heads.is_empty() {
                continue;
            }
            *activations += 1;
            for h in heads {
                if state.is_present(h) {
                    state.delete(h);
                    queue.push_back(h);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalog::parse_program;
    use repair_core::testkit::{figure1_instance, figure2_program, names_of};
    use repair_core::{RepairSession, Semantics};

    #[test]
    fn cascade_on_running_example_matches_stage_like_behaviour() {
        // All five Figure-2 rules as triggers: the seed deletes g2; cascades
        // delete authors, then writes/pubs. Eager row-level firing lets rule
        // (3) fire for a pub whose Writes row is still present.
        let mut db = figure1_instance();
        let ev = Evaluator::new(&mut db, figure2_program()).unwrap();
        let trigs = triggers_from_program(ev.program());
        let run = run_triggers(&db, &ev, &trigs, FiringOrder::CreationOrder);
        assert!(run.stable);
        // g2, a2, a3 always go; then per author the Pub trigger (rule 2,
        // created before rule 3) deletes the pub first, starving the Writes
        // trigger.
        assert!(names_of(&db, &run.deleted).contains(&"Grant(2, ERC)".to_owned()));
        assert!(run.deleted.len() >= 5);
    }

    #[test]
    fn firing_order_changes_the_result() {
        // Program-4 shape: two triggers on the same seed event. Whichever
        // fires first starves the other.
        let mut db = figure1_instance();
        // Seed: delete the ERC grant; then two triggers with the same body
        // delete either the AuthGrant or the Author tuples.
        let program = parse_program(
            "delta Grant(g, n) :- Grant(g, n), n = 'ERC'.
             delta Author(a, n) :- Author(a, n), AuthGrant(a, g), delta Grant(g, gn).
             delta AuthGrant(a, g) :- Author(a, n), AuthGrant(a, g), delta Grant(g, gn).",
        )
        .unwrap();
        let ev = Evaluator::new(&mut db, program).unwrap();
        // Name them so that alphabetical order REVERSES creation order.
        let trigs = vec![
            Trigger {
                name: "z_seed".into(),
                rule: 0,
            },
            Trigger {
                name: "b_author".into(),
                rule: 1,
            },
            Trigger {
                name: "a_authgrant".into(),
                rule: 2,
            },
        ];
        let pg = run_triggers(&db, &ev, &trigs, FiringOrder::Alphabetical);
        let my = run_triggers(&db, &ev, &trigs, FiringOrder::CreationOrder);
        // Alphabetical: a_authgrant fires first → deletes AuthGrant rows →
        // author trigger starved. Creation: b_author fires first → deletes
        // authors → authgrant trigger starved.
        let pg_names = names_of(&db, &pg.deleted);
        let my_names = names_of(&db, &my.deleted);
        assert!(pg_names.contains(&"AuthGrant(4, 2)".to_owned()));
        assert!(!pg_names.contains(&"Author(4, Marge)".to_owned()));
        assert!(my_names.contains(&"Author(4, Marge)".to_owned()));
        assert!(!my_names.contains(&"AuthGrant(4, 2)".to_owned()));
        assert_ne!(pg_names, my_names);
        assert!(pg.stable && my.stable);
    }

    #[test]
    fn triggers_can_over_delete_relative_to_step() {
        // The same scenario under step semantics deletes fewer tuples than
        // the eager trigger cascade on Figure 2 (step avoids the Pub/Writes
        // double deletion).
        let session = RepairSession::new(figure1_instance(), figure2_program()).unwrap();
        let step = session.run(Semantics::Step);
        let trigs = triggers_from_program(session.program());
        let run = run_triggers(
            session.db(),
            session.evaluator(),
            &trigs,
            FiringOrder::CreationOrder,
        );
        assert!(step.deleted().len() <= run.deleted.len());
    }

    #[test]
    fn stable_database_triggers_do_nothing() {
        let mut db = figure1_instance();
        let program = parse_program("delta Grant(g, n) :- Grant(g, n), n = 'NOPE'.").unwrap();
        let ev = Evaluator::new(&mut db, program).unwrap();
        let trigs = triggers_from_program(ev.program());
        let run = run_triggers(&db, &ev, &trigs, FiringOrder::Alphabetical);
        assert!(run.deleted.is_empty());
        assert_eq!(run.activations, 0);
        assert!(run.stable);
    }

    #[test]
    fn default_trigger_names_are_stable() {
        let p = figure2_program();
        let trigs = triggers_from_program(&p);
        assert_eq!(trigs[0].name, "t0_grant");
        assert_eq!(trigs[4].name, "t4_cite");
    }
}
