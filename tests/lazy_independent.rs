//! The lazy loop that serves Independent against Algorithm 1 on every MAS
//! and TPC-H program of Tables 1/2 at test scale: the same delete-set,
//! both proven, and a clause pool that is a subset of Algorithm 1's `¬F`.

use delta_repairs::datagen::{mas, tpch, MasConfig, TpchConfig};
use delta_repairs::independent;
use delta_repairs::provenance::ProvFormula;
use delta_repairs::sat::MinOnesOptions;
use delta_repairs::workloads::{mas_programs, tpch_programs, Workload};
use delta_repairs::{Instance, RepairRequest, RepairSession, Semantics, TupleId};
use std::collections::BTreeSet;

/// A formula's `¬F` clauses as sets of signed tuples (`true`: the clause
/// asks for the tuple's deletion), independent of variable numbering.
fn clause_set(formula: &ProvFormula) -> BTreeSet<Vec<(TupleId, bool)>> {
    let universe = formula.universe();
    formula
        .negated_cnf()
        .clauses()
        .map(|c| {
            c.iter()
                .map(|l| (universe[l.var() as usize], !l.is_neg()))
                .collect()
        })
        .collect()
}

fn check_all(db: &Instance, workloads: Vec<Workload>) {
    let opts = MinOnesOptions {
        node_budget: RepairSession::DEFAULT_NODE_BUDGET,
        ..MinOnesOptions::default()
    };
    for w in workloads {
        let session = RepairSession::new(db.clone(), w.program.clone())
            .unwrap_or_else(|e| panic!("workload {}: {e}", w.name));
        let (db, ev) = (session.db(), session.evaluator());
        let eager = independent::run(db, ev, &opts);
        let lazy = independent::serve(db, ev, &opts, None);
        assert!(eager.optimal && lazy.optimal, "{}: not proven", w.name);
        assert_eq!(
            lazy.deleted, eager.deleted,
            "{}: delete-sets differ",
            w.name
        );
        assert!(lazy.rounds >= 1, "{}", w.name);
        let full = clause_set(&eager.formula);
        assert!(
            clause_set(&lazy.formula).is_subset(&full),
            "{}: a pool clause is not a clause of ¬F",
            w.name
        );
        // Without certificates, so a pure-cascade program is not served by
        // the end fixpoint instead.
        let served = session
            .repair(&RepairRequest::new(Semantics::Independent).certificates(false))
            .unwrap();
        assert_eq!(served.deleted(), &eager.deleted[..], "{}", w.name);
        assert_eq!(served.optimality().rounds, lazy.rounds, "{}", w.name);
    }
}

#[test]
fn mas_lazy_independent_matches_algorithm_1() {
    let data = mas::generate(&MasConfig::scaled(0.02));
    check_all(&data.db, mas_programs(&data));
}

#[test]
fn tpch_lazy_independent_matches_algorithm_1() {
    let data = tpch::generate(&TpchConfig::scaled(0.01));
    check_all(&data.db, tpch_programs(&data));
}
