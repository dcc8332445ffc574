//! Interventions: seeding the deletion process with concrete tuples.
//!
//! Section 3.6 ("Initialization of the database and the deletion process"):
//! when the database is stable but the user wants to delete a specific set
//! of tuples, the paper adds one rule `Δi(C̄) :- Ri(C̄)` per tuple — the
//! *intervention* of the causality literature [Roy & Suciu 2014], which
//! Figure 2's rule (0) instantiates for the ERC grant.
//!
//! [`seed_rule`] builds one such rule; [`with_interventions`] appends seeds
//! for a set of tuples to an existing program, ready to be handed to a
//! `RepairSession`.

use crate::ast::{Atom, Program, Rule, Term};
use storage::{Instance, TupleId};

/// The ground seed rule `ΔR(c̄) :- R(c̄).` for one tuple.
pub fn seed_rule(db: &Instance, tuple: TupleId) -> Rule {
    let rel = db.schema().rel(tuple.rel);
    let terms: Vec<Term> = db.tuple(tuple).iter().map(|v| Term::Const(*v)).collect();
    let head = Atom::delta(&rel.name, terms.clone());
    let body = Atom::base(&rel.name, terms);
    Rule::new(head, vec![body], Vec::new())
}

/// `program` plus one seed rule per tuple in `interventions`, in order.
/// Duplicate tuples produce a single rule.
pub fn with_interventions(program: &Program, db: &Instance, interventions: &[TupleId]) -> Program {
    let mut out = program.clone();
    let mut seen: Vec<TupleId> = Vec::with_capacity(interventions.len());
    for &t in interventions {
        if !seen.contains(&t) {
            seen.push(t);
            out.rules.push(seed_rule(db, t));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;
    use storage::{AttrType, Schema, Value};

    fn db() -> Instance {
        let mut s = Schema::new();
        s.relation("R", &[("x", AttrType::Int), ("n", AttrType::Str)]);
        let mut db = Instance::new(s);
        db.insert_values("R", [Value::Int(1), Value::str("a")])
            .unwrap();
        db.insert_values("R", [Value::Int(2), Value::str("b")])
            .unwrap();
        db
    }

    #[test]
    fn seed_rule_is_ground_and_well_formed() {
        let db = db();
        let t = db.all_tuple_ids().next().unwrap();
        let r = seed_rule(&db, t);
        assert!(r.head.is_delta);
        assert_eq!(r.body.len(), 1);
        assert_eq!(r.head.terms, r.body[0].terms);
        assert!(r.head.terms.iter().all(|t| matches!(t, Term::Const(_))));
        assert_eq!(r.to_string(), "delta R(1, 'a') :- R(1, 'a').");
    }

    #[test]
    fn interventions_append_and_dedupe() {
        let db = db();
        let base = parse_program("delta R(x, n) :- R(x, n), delta R(y, m), x != y.").unwrap();
        let tids: Vec<TupleId> = db.all_tuple_ids().collect();
        let p = with_interventions(&base, &db, &[tids[0], tids[0], tids[1]]);
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn seeded_program_validates_and_fires() {
        let db = db();
        let base = Program::new(Vec::new());
        let t = db.all_tuple_ids().next().unwrap();
        let p = with_interventions(&base, &db, &[t]);
        let mut db2 = db.clone();
        let ev = crate::Evaluator::new(&mut db2, p).expect("seed rules are valid");
        let state = db2.initial_state();
        assert!(
            !ev.is_stable(&db2, &state),
            "the seed makes the database unstable"
        );
    }
}
