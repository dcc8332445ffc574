//! CNF formulas.

use std::fmt;

/// Variable index (0-based).
pub type Var = u32;

/// A literal: a variable or its negation, packed into one `u32`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// Positive literal `v`.
    pub fn pos(v: Var) -> Lit {
        Lit(v << 1)
    }

    /// Negative literal `¬v`.
    pub fn neg(v: Var) -> Lit {
        Lit((v << 1) | 1)
    }

    /// The underlying variable.
    #[inline]
    pub fn var(self) -> Var {
        self.0 >> 1
    }

    /// Is this a negation?
    #[inline]
    pub fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    /// The opposite literal.
    #[inline]
    pub fn negated(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    /// The value of the variable that satisfies this literal.
    #[inline]
    pub fn satisfying_value(self) -> bool {
        !self.is_neg()
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_neg() {
            write!(f, "¬x{}", self.var())
        } else {
            write!(f, "x{}", self.var())
        }
    }
}

/// A CNF formula builder.
///
/// Clauses are stored in one flat literal array plus an offset table (CSR
/// layout): clause `i` is `lits[offsets[i]..offsets[i+1]]`. One growing
/// allocation instead of one box per clause, and sequential passes (the
/// Min-Ones simplifier makes several per solve) walk contiguous memory.
#[derive(Clone, Debug)]
pub struct Cnf {
    n_vars: usize,
    offsets: Vec<u32>,
    lits: Vec<Lit>,
    has_empty_clause: bool,
    scratch: Vec<Lit>,
}

impl Default for Cnf {
    fn default() -> Cnf {
        Cnf::new(0)
    }
}

impl Cnf {
    /// CNF over `n_vars` variables.
    pub fn new(n_vars: usize) -> Cnf {
        Cnf::with_capacity(n_vars, 0, 0)
    }

    /// CNF over `n_vars` variables with room for `clauses` clauses of
    /// `lits` literals in total, for a caller that knows the final size.
    pub fn with_capacity(n_vars: usize, clauses: usize, lits: usize) -> Cnf {
        let mut offsets = Vec::with_capacity(clauses + 1);
        offsets.push(0);
        Cnf {
            n_vars,
            offsets,
            lits: Vec::with_capacity(lits),
            has_empty_clause: false,
            scratch: Vec::new(),
        }
    }

    /// Allocate a fresh variable.
    pub fn fresh_var(&mut self) -> Var {
        let v = self.n_vars as Var;
        self.n_vars += 1;
        v
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.n_vars
    }

    /// Number of stored clauses.
    pub fn num_clauses(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Clause `i` as a literal slice.
    #[inline]
    pub fn clause(&self, i: usize) -> &[Lit] {
        &self.lits[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Iterate the clauses as literal slices.
    pub fn clauses(&self) -> impl Iterator<Item = &[Lit]> + '_ {
        self.offsets
            .windows(2)
            .map(|w| &self.lits[w[0] as usize..w[1] as usize])
    }

    /// Did an empty clause get added (formula trivially unsatisfiable)?
    pub fn trivially_unsat(&self) -> bool {
        self.has_empty_clause
    }

    /// Add a clause. Duplicate literals are removed; tautologies
    /// (`v ∨ ¬v ∨ …`) are skipped. Returns `true` if the clause was stored.
    ///
    /// An empty clause marks the formula unsatisfiable.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        let mut c = std::mem::take(&mut self.scratch);
        c.clear();
        c.extend_from_slice(lits);
        c.sort_unstable();
        c.dedup();
        // Sorted order puts `v` right before `¬v`: adjacent check suffices.
        let tautology = c.windows(2).any(|w| w[0].var() == w[1].var());
        if !tautology {
            self.add_clause_presorted(&c);
        }
        self.scratch = c;
        !tautology
    }

    /// Add a clause already in strictly ascending literal order with
    /// distinct variables (so: no duplicates, no tautology). The CNF built
    /// from a provenance formula satisfies this by construction —
    /// [`Cnf::add_clause`]'s sort and checks would be pure overhead there.
    pub fn add_clause_presorted(&mut self, lits: &[Lit]) {
        debug_assert!(lits.windows(2).all(|w| w[0] < w[1]), "lits not sorted");
        debug_assert!(
            lits.windows(2).all(|w| w[0].var() != w[1].var()),
            "tautology or duplicate"
        );
        debug_assert!(lits.iter().all(|l| (l.var() as usize) < self.n_vars));
        if lits.is_empty() {
            self.has_empty_clause = true;
        }
        self.lits.extend_from_slice(lits);
        self.offsets
            .push(u32::try_from(self.lits.len()).expect("formula too large"));
    }

    /// Evaluate under a complete assignment (for tests/verification).
    pub fn eval(&self, assignment: &[bool]) -> bool {
        !self.has_empty_clause
            && self.clauses().all(|c| {
                c.iter()
                    .any(|l| assignment[l.var() as usize] == l.satisfying_value())
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_packing() {
        let p = Lit::pos(7);
        let n = Lit::neg(7);
        assert_eq!(p.var(), 7);
        assert_eq!(n.var(), 7);
        assert!(!p.is_neg());
        assert!(n.is_neg());
        assert_eq!(p.negated(), n);
        assert!(p.satisfying_value());
        assert!(!n.satisfying_value());
    }

    #[test]
    fn tautologies_skipped() {
        let mut f = Cnf::new(2);
        assert!(!f.add_clause(&[Lit::pos(0), Lit::neg(0)]));
        assert_eq!(f.num_clauses(), 0);
    }

    #[test]
    fn duplicates_removed() {
        let mut f = Cnf::new(2);
        assert!(f.add_clause(&[Lit::pos(0), Lit::pos(0), Lit::neg(1)]));
        assert_eq!(f.clause(0).len(), 2);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut f = Cnf::new(1);
        f.add_clause(&[]);
        assert!(f.trivially_unsat());
        assert!(!f.eval(&[false]));
    }

    #[test]
    fn eval_checks_all_clauses() {
        let mut f = Cnf::new(2);
        f.add_clause(&[Lit::pos(0)]);
        f.add_clause(&[Lit::neg(0), Lit::pos(1)]);
        assert!(f.eval(&[true, true]));
        assert!(!f.eval(&[true, false]));
        assert!(!f.eval(&[false, true]));
    }
}
