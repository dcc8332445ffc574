//! Algorithm 1's Process Prov at workload scale: for every MAS and TPC-H
//! program of Tables 1/2, the CNF `¬F` the provenance builder writes must
//! equal, clause by clause, a reference built here the plain way — one
//! `Vec` per clause, a `Vec` sort and dedup of the clauses, and a sorted
//! universe — and must not depend on the order the assignments arrive in.

use delta_repairs::datagen::{mas, tpch, MasConfig, TpchConfig};
use delta_repairs::datalog::{Assignment, Mode};
use delta_repairs::provenance::ProvFormulaBuilder;
use delta_repairs::sat::Lit;
use delta_repairs::workloads::{mas_programs, tpch_programs, Workload};
use delta_repairs::{Instance, RepairSession, TupleId};

/// `¬F` over `assignments`: the sorted universe and, in canonical order,
/// one sorted literal list per distinct non-contradictory clause.
fn reference(assignments: &[Assignment]) -> (Vec<TupleId>, Vec<Vec<Lit>>) {
    let mut clauses: Vec<(Vec<TupleId>, Vec<TupleId>)> = assignments
        .iter()
        .map(|a| {
            let side = |delta: bool| {
                let mut v: Vec<TupleId> = a
                    .body
                    .iter()
                    .filter(|b| b.is_delta == delta)
                    .map(|b| b.tid)
                    .collect();
                v.sort();
                v.dedup();
                v
            };
            (side(false), side(true))
        })
        .filter(|(pos, neg)| !pos.iter().any(|t| neg.contains(t)))
        .collect();
    clauses.sort();
    clauses.dedup();
    let mut universe: Vec<TupleId> = clauses
        .iter()
        .flat_map(|(pos, neg)| pos.iter().chain(neg))
        .copied()
        .collect();
    universe.sort();
    universe.dedup();
    let var = |t: &TupleId| universe.binary_search(t).expect("in universe") as u32;
    let cnf = clauses
        .iter()
        .map(|(pos, neg)| {
            let mut lits: Vec<Lit> = pos
                .iter()
                .map(|t| Lit::pos(var(t)))
                .chain(neg.iter().map(|t| Lit::neg(var(t))))
                .collect();
            lits.sort();
            lits
        })
        .collect();
    (universe, cnf)
}

/// The builder's universe and CNF over `assignments`, fed in that order.
fn built<'a>(assignments: impl Iterator<Item = &'a Assignment>) -> (Vec<TupleId>, Vec<Vec<Lit>>) {
    let mut builder = ProvFormulaBuilder::new();
    for a in assignments {
        builder.add(a);
    }
    let formula = builder.finish();
    let cnf = formula
        .negated_cnf()
        .clauses()
        .map(<[Lit]>::to_vec)
        .collect();
    (formula.universe().to_vec(), cnf)
}

fn check_all(db: &Instance, workloads: Vec<Workload>) {
    for w in workloads {
        let session = RepairSession::new(db.clone(), w.program.clone())
            .unwrap_or_else(|e| panic!("workload {}: {e}", w.name));
        let (db, ev) = (session.db(), session.evaluator());
        let mut assignments = Vec::new();
        ev.for_each_assignment(db, &db.initial_state(), Mode::Hypothetical, &mut |a| {
            assignments.push(a.clone());
            true
        });
        let expected = reference(&assignments);
        assert!(!expected.1.is_empty(), "{}: empty formula", w.name);
        assert!(
            built(assignments.iter()) == expected,
            "{}: CNF differs from the reference",
            w.name
        );
        assert!(
            built(assignments.iter().rev()) == expected,
            "{}: CNF depends on the assignment order",
            w.name
        );
    }
}

#[test]
fn mas_workload_cnfs_match_the_plain_reference() {
    let data = mas::generate(&MasConfig::scaled(0.02));
    check_all(&data.db, mas_programs(&data));
}

#[test]
fn tpch_workload_cnfs_match_the_plain_reference() {
    let data = tpch::generate(&TpchConfig::scaled(0.01));
    check_all(&data.db, tpch_programs(&data));
}
