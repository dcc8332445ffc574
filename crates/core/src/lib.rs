//! # repair-core — the four delta-rule repair semantics
//!
//! This crate is the primary contribution of *"On Multiple Semantics for
//! Declarative Database Repairs"* (SIGMOD 2020), re-implemented in full:
//!
//! | module | paper | what it computes |
//! |--------|-------|------------------|
//! | [`engine`]      | Defs. 3.7/3.10/3.12 | the shared fixpoint driver: one semi-naive/round-based loop parameterized by a [`engine::DeltaPolicy`] (when deletions are applied) |
//! | [`end`]         | Def. 3.10 | semi-naive datalog fixpoint over frozen base relations; deletions applied at the end; also records every assignment and each delta tuple's derivation round (the provenance stream) |
//! | [`stage`]       | Def. 3.7  | staged evaluation: derive all delta tuples of a stage against the previous state, then delete, to fixpoint |
//! | [`step`]        | Def. 3.5, Alg. 2 | greedy max-benefit traversal of the layered provenance graph, plus an exact exponential search for small instances |
//! | [`independent`] | Def. 3.3, Alg. 1 | provenance Boolean formula → negation → Min-Ones SAT; the lazy loop sessions serve it with, which solves only a pool of that formula's clauses grown from violations; an exact subset-enumeration reference |
//! | [`stability`]   | Def. 3.12/3.14 | stability of a state and verification of stabilizing sets |
//! | [`relationships`] | Prop. 3.20, Table 3 | containment/size relations between results |
//!
//! The one-stop entry point is [`RepairSession`]: it validates and plans a
//! program once, **owns** the instance and its indexes, and serves any
//! number of [`RepairRequest`]s. Each [`RepairOutcome`] carries the deleted
//! set, the paper's phase breakdown (Figure 8's Eval / Process Prov /
//! Solve / Traverse) and an [`Optimality`] certificate, and can be
//! previewed, applied to the session and undone.
//!
//! Sessions maintain repair state **incrementally**: mutations flow into
//! the storage layer's journal, and the next end-semantics repair advances
//! a cached [`engine::EngineState`] over the net change (DRed-style
//! deletion handling, change-seeded semi-naive insertion rounds) instead of
//! recomputing the fixpoint from scratch — bit-identical results at a
//! fraction of the cost for small deltas.
//!
//! ```
//! use repair_core::{RepairSession, Semantics};
//! use repair_core::testkit;
//!
//! let session =
//!     RepairSession::new(testkit::figure1_instance(), testkit::figure2_program())?;
//! let end = session.run(Semantics::End);
//! let ind = session.run(Semantics::Independent);
//! assert!(ind.size() <= end.size());
//! assert!(session.verify_stabilizing(ind.deleted()));
//! # Ok::<(), repair_core::RepairError>(())
//! ```

pub mod end;
pub mod engine;
pub mod error;
pub mod independent;
pub mod relationships;
pub mod result;
pub mod session;
pub mod stability;
pub mod stage;
pub mod step;
pub mod testkit;

pub use engine::{AdvanceStats, DeltaPolicy, EngineState, FixpointDriver, FixpointOutcome};
pub use error::RepairError;
pub use result::{ParseSemanticsError, PhaseBreakdown, RepairResult, Semantics};
pub use session::{
    AppliedRepair, Optimality, OptimalityCertificate, RepairOutcome, RepairPreview,
    RepairProvenance, RepairRequest, RepairSession,
};
// Durable-session vocabulary, re-exported so callers of
// `RepairSession::open_durable` don't need a direct `storage` dependency.
pub use storage::{DiskOptions, FsyncPolicy, RecoveryReport};
