//! # delta-repairs — declarative database repairs under four semantics
//!
//! A from-scratch Rust implementation of
//! *"On Multiple Semantics for Declarative Database Repairs"*
//! (Gilad, Deutch, Roy — SIGMOD 2020), including every substrate the paper's
//! prototype relied on: the relational store, the delta-rule datalog engine,
//! provenance, a Min-Ones SAT solver, a SQL-trigger interpreter and a
//! HoloClean-style cell-repair baseline.
//!
//! ## The model in one paragraph
//!
//! A **delta rule** is a datalog rule `ΔR(X) :- R(X), Q1, …, Ql` whose head is
//! a *delta relation* recording deletions from `R`; body atoms may mention
//! other delta relations, which is what expresses cascades. Given a database
//! `D` and a delta program `P`, a **stabilizing set** is a set of tuples `S`
//! such that `(D \ S) ∪ Δ(S)` satisfies no rule of `P`. The paper defines four
//! semantics that each pick a different stabilizing set:
//!
//! | semantics | flavour | complexity |
//! |-----------|---------|------------|
//! | [`Semantics::Independent`] | global minimum repair (denial constraints) | NP-hard (Alg. 1: provenance → Min-Ones SAT, served lazily from violations) |
//! | [`Semantics::Step`] | one rule firing at a time, minimum sequence (row triggers, causal rules) | NP-hard (Alg. 2: greedy provenance-graph traversal) |
//! | [`Semantics::Stage`] | semi-naive rounds, delete per round (statement triggers) | PTIME |
//! | [`Semantics::End`] | derive everything, delete at the end (plain datalog) | PTIME |
//!
//! ## Quickstart
//!
//! A [`RepairSession`] owns the database and the planned program; requests
//! go in, outcomes come out, and outcomes can be previewed, applied and
//! undone:
//!
//! ```
//! use delta_repairs::{RepairRequest, RepairSession, Semantics, testkit};
//!
//! // Figure 1's academic database and Figure 2's five delta rules.
//! let mut session =
//!     RepairSession::new(testkit::figure1_instance(), testkit::figure2_program())?;
//!
//! let end = session.run(Semantics::End);          // 8 tuples
//! let stage = session.run(Semantics::Stage);      // 7 tuples
//! let step = session.run(Semantics::Step);        // 5 tuples
//! let ind = session.run(Semantics::Independent);  // 3 tuples
//!
//! assert!(ind.size() <= step.size() && step.size() <= stage.size());
//! assert!(stage.size() <= end.size());
//! // Every result is a stabilizing set (Prop. 3.18).
//! for r in [&end, &stage, &step, &ind] {
//!     assert!(session.verify_stabilizing(r.deleted()));
//! }
//!
//! // Budgets and provenance capture ride on the request builder…
//! let exact = session.repair(
//!     &RepairRequest::new(Semantics::Independent)
//!         .node_budget(u64::MAX)
//!         .capture_provenance(true),
//! )?;
//! assert!(exact.proven_optimal());
//!
//! // …and committing is first-class: apply, inspect, roll back.
//! println!("{}", exact.preview(&session));
//! exact.apply(&mut session)?;
//! assert!(session.is_stable());
//! session.undo()?;
//! assert_eq!(session.db().total_rows(), 13);
//! # Ok::<(), delta_repairs::RepairError>(())
//! ```
//!
//! Long-lived sessions serve the mutate-then-re-repair loop
//! **incrementally**: mutations land in a storage-level journal, and the
//! next end-semantics repair advances a cached fixpoint checkpoint over
//! only the affected cone — bit-identical to a full recompute, an order
//! of magnitude faster for small deltas:
//!
//! ```
//! use delta_repairs::{RepairSession, Semantics, Value, testkit};
//!
//! let mut session =
//!     RepairSession::new(testkit::figure1_instance(), testkit::figure2_program())?;
//! let first = session.run(Semantics::End);            // full run, primes the checkpoint
//!
//! session.insert_batch("Grant", [[Value::Int(9), Value::str("ERC")]])?;
//! let second = session.run(Semantics::End);           // replays only the new cone
//! assert!(second.served_incrementally());
//! assert_eq!(second.size(), first.size() + 1);
//! second.apply(&mut session)?;                        // commit the re-repair
//! assert!(session.is_stable());
//! # Ok::<(), delta_repairs::RepairError>(())
//! ```
//!
//! ## Crate map
//!
//! * [`storage`] — interned values, tuples with stable ids, per-column hash
//!   indexes, cheap bitset [`storage::State`] views (presence + Δ membership).
//! * [`datalog`] — delta-rule AST, parser, well-formedness validation
//!   (Def. 3.1 + safety), assignment enumeration and fixpoints.
//! * [`provenance`] — DNF provenance formulas (Alg. 1) and the layered
//!   provenance graph with tuple benefits (Alg. 2).
//! * [`sat`] — CNF + DPLL + branch-and-bound Min-Ones solver (the Z3 role).
//! * [`core`] (re-exported at the root) — the four semantics, Algorithms 1
//!   and 2, stability checking, result relationships (Table 3 / Fig. 3).
//! * [`triggers`] — "after delete, delete" SQL triggers with PostgreSQL's
//!   alphabetical and MySQL's creation-order firing policies.
//! * [`cellrepair`] — probabilistic cell repair in the style of HoloClean,
//!   the paper's comparison system.
//! * [`datagen`] — deterministic MAS + TPC-H-like generators and the
//!   error-injection used by the HoloClean comparison.
//! * [`workloads`] — the paper's Table 1 (20 MAS programs), Table 2
//!   (6 TPC-H programs) and DC1–DC4, constants pre-wired.
//!
//! See `DESIGN.md` for the full system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured record of every table and figure.

pub use repair_core::{
    end, engine, error, independent, relationships, result, session, stability, stage, step,
    testkit, AppliedRepair, Optimality, OptimalityCertificate, ParseSemanticsError, PhaseBreakdown,
    RepairError, RepairOutcome, RepairPreview, RepairProvenance, RepairRequest, RepairResult,
    RepairSession, Semantics,
};

pub use datalog::{
    parse_program, seed_rule, with_interventions, Atom, CmpOp, Comparison, DatalogError,
    DenialConstraint, Program, Rule, Term,
};

pub use storage::{
    Attr, AttrType, Instance, RelId, RelationSchema, Schema, State, StorageError, TupleId, Value,
};

/// The full storage substrate (also re-exported piecemeal at the root).
pub mod storage {
    pub use storage::*;
}

/// The full delta-rule language (also re-exported piecemeal at the root).
pub mod datalog {
    pub use datalog::*;
}

/// Provenance structures shared by Algorithms 1 and 2.
pub mod provenance {
    pub use provenance::*;
}

/// The Min-Ones SAT solver used by independent semantics.
pub mod sat {
    pub use sat::*;
}

/// The SQL-trigger interpreter (Section 6, "Comparison with Triggers").
pub mod triggers {
    pub use triggers::*;
}

/// HoloClean-style probabilistic cell repair (Section 6 comparison).
pub mod cellrepair {
    pub use cellrepair::*;
}

/// Seeded MAS / TPC-H data generators and error injection.
pub mod datagen {
    pub use datagen::*;
}

/// The paper's experimental programs with constants pre-wired.
pub mod workloads {
    pub use workloads::*;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_quickstart_runs() {
        let session =
            RepairSession::new(testkit::figure1_instance(), testkit::figure2_program()).unwrap();
        let ind = session.run(Semantics::Independent);
        assert_eq!(ind.size(), 3);
        assert!(session.verify_stabilizing(ind.deleted()));
    }

    #[test]
    fn facade_reexports_are_usable_together() {
        // Types from the facade and from sub-crates must be the same types.
        let p: Program = parse_program("delta R(x) :- R(x), x = 1.").unwrap();
        let mut s = Schema::new();
        s.relation("R", &[("x", AttrType::Int)]);
        let mut db = Instance::new(s);
        db.insert_values("R", [Value::Int(1)]).unwrap();
        let session = RepairSession::new(db, p).unwrap();
        let r = session.run(Semantics::End);
        assert_eq!(r.size(), 1);
    }
}
