//! # datalog — the delta-rule language and its evaluator
//!
//! Implements Section 3.1 of *"On Multiple Semantics for Declarative
//! Database Repairs"*: **delta rules** of the form
//!
//! ```text
//! Δi(X) :- Ri(X), Q1(Y1), …, Ql(Yl), comparisons
//! ```
//!
//! where each `Qj` is a base relation or a delta relation, and the head
//! vector `X` reappears in the body atom `Ri(X)` (so only existing tuples are
//! ever deleted).
//!
//! The crate provides:
//!
//! * an [`ast`] for rules and programs, plus a concrete [`parser`] syntax;
//! * [`validate`] — the delta-rule well-formedness checks of Definition 3.1
//!   plus range-restriction (safety);
//! * [`eval`] — enumeration of *assignments* `α : body → D` under three view
//!   [`eval::Mode`]s (live state, frozen base for end semantics, and the
//!   all-hypothetical-deletions view used by Algorithm 1), with semi-naive
//!   frontier support used by end-semantics provenance collection.
//!
//! Assignments are first-class values ([`eval::Assignment`]) because both
//! repair algorithms of the paper consume them as provenance.

pub mod analysis;
pub mod ast;
pub mod compile;
pub mod cost;
pub mod dc;
pub mod error;
pub mod eval;
pub mod lint;
pub mod parser;
pub mod seed;
pub mod validate;

pub use analysis::{analyze, Analysis};
pub use ast::{Atom, CmpOp, Comparison, Program, Rule, Span, Term};
pub use cost::{OrderEstimate, StepEstimate};
pub use dc::DenialConstraint;
pub use error::DatalogError;
#[cfg(feature = "parallel")]
pub use eval::{eval_threads, ParScope};
pub use eval::{
    Assignment, BodyBind, DeltaFrontier, EvalScratch, Evaluator, Mode, PlanStrategy, PlannedProgram,
};
pub use lint::{
    certify, json_escape, lint, lint_with_stats, Diagnostic, EquivalenceCertificate, LintReport,
    Severity,
};
pub use parser::{parse_body, parse_program};
pub use seed::{seed_rule, with_interventions};
