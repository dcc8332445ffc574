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

pub use ast::{Atom, CmpOp, Comparison, Program, Rule, Span, Term};
pub use cost::{OrderEstimate, StepEstimate};
pub use dc::DenialConstraint;
pub use error::DatalogError;
pub use eval::{
    Assignment, BodyBind, DeltaFrontier, EvalScratch, Evaluator, Mode, PlanStrategy,
    PlannedProgram, Round,
};
pub use lint::{
    certify, json_escape, lint, lint_with_stats, recursion_diagnostic, Diagnostic,
    EquivalenceCertificate, LintReport, Severity,
};
pub use parser::{parse_body, parse_program};
pub use seed::{seed_rule, with_interventions};

// Static analysis verdicts on small delta programs: the recursion check
// (I202) and the single-stratum certificate (no delta body atoms, i.e. a
// cascade of depth zero).
#[cfg(test)]
mod analysis {
    mod tests {
        use crate::{certify, parse_program, recursion_diagnostic, Program};

        /// The cycle I202 prints, or `None` on an acyclic program.
        fn cycle(p: &Program) -> Option<String> {
            recursion_diagnostic(p).map(|d| {
                d.message
                    .strip_prefix("program is recursive through delta relations: ")
                    .expect("I202 message prefix")
                    .to_owned()
            })
        }

        #[test]
        fn self_loop_is_recursive() {
            let p = parse_program("delta R(x) :- R(x), delta R(y), x != y.").unwrap();
            // R is the only recursive relation, and no rule seeds a cascade.
            assert_eq!(cycle(&p).as_deref(), Some("R -> R"));
            assert!(!certify(&p).single_stratum);
            assert!(p.rules.iter().all(|r| r.has_delta_body()));
        }

        #[test]
        fn two_relation_cycle_is_recursive() {
            let p = parse_program(
                "delta R(x) :- R(x), delta S(x, y).
                 delta S(x, y) :- S(x, y), delta R(x).",
            )
            .unwrap();
            assert_eq!(cycle(&p).as_deref(), Some("R -> S -> R"));
        }

        #[test]
        fn dc_style_program_has_depth_zero() {
            let p = parse_program(
                "delta A(x, y) :- A(x, y), A(x, z), y != z.
                 delta B(x) :- B(x), A(x, y).",
            )
            .unwrap();
            assert_eq!(cycle(&p), None);
            assert!(certify(&p).single_stratum, "no delta body atoms at all");
        }

        #[test]
        fn empty_program() {
            let p = Program::default();
            assert_eq!(cycle(&p), None);
            assert!(certify(&p).single_stratum);
        }
    }
}
