//! Recursive delta programs (the paper's Section 8): all definitions and
//! all four semantics apply — delta relations grow monotonically inside a
//! finite universe, so every fixpoint terminates. Only the provenance
//! *size* guarantees weaken, which lint's `I202` diagnostic
//! (`datalog::recursion_diagnostic`, the one recursion check) reports.

use delta_repairs::datagen::{mas, scale, tpch, MasConfig, ScaleConfig, TpchConfig};
use delta_repairs::datalog::recursion_diagnostic;
use delta_repairs::workloads::{mas_programs, tpch_programs, zipf_programs};
use delta_repairs::{parse_program, AttrType, Instance, RepairSession, Schema, Semantics, Value};

/// Transitive deletion over a graph: deleting a node deletes its
/// out-neighbours, recursively — `ΔNode` depends on itself.
fn reachability_setup(chain: usize) -> (Instance, delta_repairs::Program) {
    let mut s = Schema::new();
    s.relation("Node", &[("v", AttrType::Int)]);
    s.relation("Edge", &[("u", AttrType::Int), ("v", AttrType::Int)]);
    let mut db = Instance::new(s);
    for v in 0..chain as i64 {
        db.insert_values("Node", [Value::Int(v)]).unwrap();
    }
    for v in 0..chain as i64 - 1 {
        db.insert_values("Edge", [Value::Int(v), Value::Int(v + 1)])
            .unwrap();
    }
    let program = parse_program(
        "delta Node(v) :- Node(v), v = 0.
         delta Node(v) :- Node(v), Edge(u, v), delta Node(u).",
    )
    .unwrap();
    (db, program)
}

#[test]
fn analysis_flags_the_recursion() {
    let (_, program) = reachability_setup(3);
    let d = recursion_diagnostic(&program).expect("ΔNode depends on itself");
    assert_eq!(d.code, "I202");
    assert_eq!(
        d.message,
        "program is recursive through delta relations: Node -> Node"
    );
}

#[test]
fn all_semantics_terminate_on_the_recursive_chain() {
    let n = 12;
    let (db, program) = reachability_setup(n);
    let session = RepairSession::new(db, program).unwrap();
    for sem in Semantics::ALL {
        let r = session.run(sem);
        match sem {
            // The operational semantics must follow the cascade: every
            // node reachable from the seed is derived and deleted.
            Semantics::Step | Semantics::Stage | Semantics::End => {
                assert_eq!(r.size(), n, "{sem} must delete every node")
            }
            // The global minimum is *not* the cascade: deleting the seed
            // node and severing the first edge stabilizes at size 2 —
            // independent semantics may delete non-derivable tuples.
            Semantics::Independent => {
                assert_eq!(r.size(), 2, "independent cuts the chain instead")
            }
        }
        assert!(session.verify_stabilizing(r.deleted()), "{sem}");
    }
}

#[test]
fn recursion_depth_is_data_dependent() {
    // The end-semantics round count grows with the chain length — the
    // data-dependent depth that I202 warns about.
    for n in [3usize, 6, 9] {
        let (db, program) = reachability_setup(n);
        let session = RepairSession::new(db, program).unwrap();
        let out = delta_repairs::end::run(session.db(), session.evaluator());
        assert_eq!(out.deleted.len(), n);
        assert!(
            out.rounds as usize >= n,
            "chain of {n} needs at least {n} rounds, got {}",
            out.rounds
        );
    }
}

#[test]
fn disconnected_nodes_survive_the_recursive_cascade() {
    let (mut db, program) = reachability_setup(5);
    // An island: node 100 with no incoming edge.
    db.insert_values("Node", [Value::Int(100)]).unwrap();
    let session = RepairSession::new(db, program).unwrap();
    let island = session
        .db()
        .all_tuple_ids()
        .find(|&t| session.db().display_tuple(t) == "Node(100)")
        .unwrap();
    for sem in Semantics::ALL {
        let r = session.run(sem);
        assert!(!r.contains(island), "{sem} must spare the island");
        assert!(session.verify_stabilizing(r.deleted()), "{sem}");
    }
}

/// Mutual recursion between two relations terminates too.
#[test]
fn mutual_recursion_terminates() {
    let mut s = Schema::new();
    s.relation("A", &[("x", AttrType::Int)]);
    s.relation("B", &[("x", AttrType::Int)]);
    let mut db = Instance::new(s);
    for x in 0..6i64 {
        db.insert_values("A", [Value::Int(x)]).unwrap();
        db.insert_values("B", [Value::Int(x)]).unwrap();
    }
    let program = parse_program(
        "delta A(x) :- A(x), x = 0.
         delta B(x) :- B(x), delta A(x).
         delta A(x) :- A(x), delta B(x).",
    )
    .unwrap();
    assert_eq!(
        recursion_diagnostic(&program).map(|d| d.message).as_deref(),
        Some("program is recursive through delta relations: A -> B -> A")
    );
    let session = RepairSession::new(db, program).unwrap();
    for sem in Semantics::ALL {
        let r = session.run(sem);
        // Only x = 0 is reachable: ΔA(0) → ΔB(0) → ΔA(0) (already there).
        assert_eq!(r.size(), 2, "{sem}");
        assert!(session.verify_stabilizing(r.deleted()));
    }
}

/// The paper's Algorithms 1 and 2 assume bounded programs (Section 2):
/// none of the 29 built-in workloads (20 MAS, 6 TPC-H, 3 zipf) may recurse
/// through delta relations. `repro lint-workloads` fails only on errors and
/// I202 is an info, so this test is what pins the assumption.
#[test]
fn no_built_in_workload_is_recursive() {
    let mas = mas::generate(&MasConfig::scaled(0.01));
    let tpch = tpch::generate(&TpchConfig::scaled(0.01));
    let zipf = scale::generate(&ScaleConfig::scaled(0.01));
    let workloads: Vec<_> = mas_programs(&mas)
        .into_iter()
        .chain(tpch_programs(&tpch))
        .chain(zipf_programs(&zipf))
        .collect();
    assert_eq!(workloads.len(), 29);
    for w in workloads {
        assert_eq!(recursion_diagnostic(&w.program), None, "{}", w.name);
    }
}
