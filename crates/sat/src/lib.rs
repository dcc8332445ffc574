//! # sat — a Min-Ones SAT solver
//!
//! Replaces the Z3 SMT optimizer used by the paper's prototype for
//! **Algorithm 1** (independent semantics). The *Min-Ones SAT* problem
//! (Kratsch, Marx, Wahlström — cited as \[31\] in the paper) asks for a
//! satisfying assignment mapping the minimum number of variables to `True`;
//! here a `True` variable means "delete this tuple".
//!
//! The solver is a counter-based DPLL with
//!
//! * unit propagation and a trail for backtracking,
//! * top-level simplification: units, the positive-purity rule (a variable
//!   with no positive occurrence can always be `False`) and the set-cover
//!   **dominance** rule — if `x` and `y` occur only positively and every
//!   open clause of `x` also contains `y`, some minimum model has
//!   `x = False` (set `x` to `False` and `y` to `True`: every clause of `x`
//!   stays satisfied through `y`, none is falsified, the count does not
//!   grow).
//!   Rounds of dominance, units and purity run to fixpoint over one
//!   compacted residual; on hitting-set-shaped CNFs they often leave no
//!   search at all,
//! * **connected-component decomposition** — repair CNFs produced by denial
//!   constraints split into thousands of tiny violation clusters whose
//!   minima simply add up; this is the property that makes the NP-hard
//!   semantics "efficient in practice" (Section 5.1),
//! * branch & bound on the number of `True` variables with a `False`-first
//!   value order and a disjoint-positive-clause lower bound,
//! * an optional node budget, after which the incumbent is returned with
//!   `optimal = false`.

pub mod cnf;
pub mod minones;
pub mod solver;

pub use cnf::{Cnf, Lit, Var};
pub use minones::{solve_min_ones, MinOnesOptions, Outcome, Solution, Stats};
