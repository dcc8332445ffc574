//! # provenance — Boolean formulas and derivation graphs
//!
//! The two repair algorithms of *"On Multiple Semantics for Declarative
//! Database Repairs"* both consume data provenance:
//!
//! * **Algorithm 1** (independent semantics) stores the provenance of every
//!   *possible* delta tuple as a Boolean formula — a disjunction of clauses,
//!   one per assignment, where base tuples appear positively and delta tuples
//!   as the negation of their base counterpart. [`formula::ProvFormula`]
//!   holds this DNF-of-assignments and produces the negated CNF handed to the
//!   Min-Ones SAT solver.
//! * **Algorithm 2** (step semantics) traverses a *provenance graph*: nodes
//!   are the delta tuples derivable under end semantics plus the base tuples
//!   feeding them; an edge `t → Δ(t')` means `t` participates in an
//!   assignment deriving `Δ(t')`. [`graph::ProvGraph`] is that graph with the
//!   paper's layer structure, per-tuple *benefit* `b_t`, and the cascading
//!   prune used in the greedy loop.

//!
//! Incremental re-repair adds a third consumer: [`support::SupportIndex`]
//! is a *resumable* per-tuple adjacency over the recorded assignment
//! hyperedges, extended in place as change-seeded rounds discover new
//! assignments and pruned (entries of untouched tuples reused, not rebuilt)
//! as deletions invalidate old ones.

pub mod explain;
pub mod formula;
pub mod graph;
pub mod support;

pub use explain::{to_dot, DerivationTree, Explainer, Premise};
pub use formula::{ProvFormula, ProvFormulaBuilder};
pub use graph::ProvGraph;
pub use support::SupportIndex;
