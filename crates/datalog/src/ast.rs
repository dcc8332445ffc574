//! Abstract syntax for delta programs.

use std::fmt;
use storage::{Sym, Value};

/// A term: a variable or a constant.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Term {
    /// Variable, identified by its (interned) name; scope is one rule.
    Var(Sym),
    /// Constant value.
    Const(Value),
}

impl Term {
    /// Variable term from a name.
    pub fn var(name: &str) -> Term {
        Term::Var(Sym::new(name))
    }

    /// Integer constant term.
    pub fn int(v: i64) -> Term {
        Term::Const(Value::Int(v))
    }

    /// String constant term.
    pub fn str(v: &str) -> Term {
        Term::Const(Value::str(v))
    }

    /// Is this a variable?
    pub fn is_var(&self) -> bool {
        matches!(self, Term::Var(_))
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(Value::Int(i)) => write!(f, "{i}"),
            Term::Const(Value::Str(s)) => write!(f, "'{s}'"),
        }
    }
}

/// A 1-based source position (line, column) recorded by the parser.
///
/// Spans are *metadata*: two atoms or rules that differ only in spans
/// compare equal, so programs parsed from different renderings of the same
/// text (e.g. `p == parse(p.to_string())`) stay equal.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Span {
    /// 1-based source line.
    pub line: usize,
    /// 1-based source column.
    pub col: usize,
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// An atom `R(t1, …, tn)` or `ΔR(t1, …, tn)`.
#[derive(Clone, Debug)]
pub struct Atom {
    /// Relation name (resolved against the schema during validation).
    pub relation: String,
    /// Is this a delta atom?
    pub is_delta: bool,
    /// Argument terms.
    pub terms: Vec<Term>,
    /// Source position of the atom's first token, when parsed from text.
    /// Ignored by equality (see [`Span`]).
    pub span: Option<Span>,
}

impl PartialEq for Atom {
    fn eq(&self, other: &Atom) -> bool {
        self.relation == other.relation
            && self.is_delta == other.is_delta
            && self.terms == other.terms
    }
}

impl Eq for Atom {}

impl Atom {
    /// Positive (base-relation) atom.
    pub fn base(relation: &str, terms: Vec<Term>) -> Atom {
        Atom {
            relation: relation.to_owned(),
            is_delta: false,
            terms,
            span: None,
        }
    }

    /// Delta atom `ΔR(terms)`.
    pub fn delta(relation: &str, terms: Vec<Term>) -> Atom {
        Atom {
            relation: relation.to_owned(),
            is_delta: true,
            terms,
            span: None,
        }
    }

    /// The same atom carrying a source span.
    pub fn with_span(mut self, span: Span) -> Atom {
        self.span = Some(span);
        self
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_delta {
            write!(f, "delta ")?;
        }
        write!(f, "{}(", self.relation)?;
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

/// Comparison operators allowed in rule bodies (the paper's
/// `◦ ∈ {<, >, =, ≠, ≤, ≥}`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Apply the operator to two values (using the engine's total order).
    pub fn eval(self, a: &Value, b: &Value) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }

    /// Surface syntax.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// A comparison `lhs ◦ rhs` between terms.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Comparison {
    /// Left term.
    pub lhs: Term,
    /// Operator.
    pub op: CmpOp,
    /// Right term.
    pub rhs: Term,
}

impl fmt::Display for Comparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.lhs, self.op.symbol(), self.rhs)
    }
}

/// A delta rule (Definition 3.1).
#[derive(Clone, Debug)]
pub struct Rule {
    /// Head delta atom `Δi(X)`.
    pub head: Atom,
    /// Body atoms (base and delta).
    pub body: Vec<Atom>,
    /// Body comparisons.
    pub comparisons: Vec<Comparison>,
    /// Source position of the rule's first token, when parsed from text.
    /// Ignored by equality (see [`Span`]).
    pub span: Option<Span>,
}

impl PartialEq for Rule {
    fn eq(&self, other: &Rule) -> bool {
        self.head == other.head && self.body == other.body && self.comparisons == other.comparisons
    }
}

impl Eq for Rule {}

impl Rule {
    /// Build a rule; well-formedness is checked later by
    /// [`crate::validate::validate_program`].
    pub fn new(head: Atom, body: Vec<Atom>, comparisons: Vec<Comparison>) -> Rule {
        Rule {
            head,
            body,
            comparisons,
            span: None,
        }
    }

    /// The rule's source span: its own, or its head atom's.
    pub fn span(&self) -> Option<Span> {
        self.span.or(self.head.span)
    }

    /// Indexes of delta atoms within the body.
    pub fn delta_positions(&self) -> Vec<usize> {
        self.body
            .iter()
            .enumerate()
            .filter(|(_, a)| a.is_delta)
            .map(|(i, _)| i)
            .collect()
    }

    /// Does the body contain any delta atom? (Rules without delta atoms are
    /// "initial" rules — DC-style constraints or rule (0)-style seeds.)
    pub fn has_delta_body(&self) -> bool {
        self.body.iter().any(|a| a.is_delta)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} :- ", self.head)?;
        let mut first = true;
        for a in &self.body {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{a}")?;
        }
        for c in &self.comparisons {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{c}")?;
        }
        write!(f, ".")
    }
}

/// A delta program: an ordered set of delta rules.
///
/// Order matters only for reporting (MySQL-style trigger creation order is
/// derived from it); the semantics themselves are defined on the rule *set*.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Program {
    /// The rules.
    pub rules: Vec<Rule>,
}

impl Program {
    /// Program from rules.
    pub fn new(rules: Vec<Rule>) -> Program {
        Program { rules }
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True when there are no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.rules {
            writeln!(f, "{r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(head_rel: &str, body: Vec<Atom>) -> Rule {
        Rule::new(Atom::delta(head_rel, vec![Term::var("x")]), body, vec![])
    }

    #[test]
    fn display_round_trip_shape() {
        let r = Rule::new(
            Atom::delta("Grant", vec![Term::var("g"), Term::var("n")]),
            vec![Atom::base("Grant", vec![Term::var("g"), Term::var("n")])],
            vec![Comparison {
                lhs: Term::var("n"),
                op: CmpOp::Eq,
                rhs: Term::str("ERC"),
            }],
        );
        assert_eq!(
            r.to_string(),
            "delta Grant(g, n) :- Grant(g, n), n = 'ERC'."
        );
    }

    #[test]
    fn cmp_ops() {
        use storage::Value;
        assert!(CmpOp::Lt.eval(&Value::Int(1), &Value::Int(2)));
        assert!(CmpOp::Ne.eval(&Value::str("a"), &Value::str("b")));
        assert!(CmpOp::Ge.eval(&Value::Int(2), &Value::Int(2)));
        assert!(!CmpOp::Gt.eval(&Value::Int(2), &Value::Int(2)));
    }

    #[test]
    fn delta_positions() {
        let r = Rule::new(
            Atom::delta("A", vec![Term::var("x")]),
            vec![
                Atom::base("A", vec![Term::var("x")]),
                Atom::delta("B", vec![Term::var("y")]),
                Atom::base("C", vec![Term::var("z")]),
                Atom::delta("D", vec![Term::var("w")]),
            ],
            vec![],
        );
        assert_eq!(r.delta_positions(), vec![1, 3]);
        assert!(r.has_delta_body());
    }

    #[test]
    fn recursion_detection() {
        let is_recursive = |p: &Program| crate::lint::recursion_diagnostic(p).is_some();

        // ΔA :- A, ΔB and ΔB :- B, ΔA  → recursive.
        let p = Program::new(vec![
            rule(
                "A",
                vec![
                    Atom::base("A", vec![Term::var("x")]),
                    Atom::delta("B", vec![Term::var("x")]),
                ],
            ),
            rule(
                "B",
                vec![
                    Atom::base("B", vec![Term::var("x")]),
                    Atom::delta("A", vec![Term::var("x")]),
                ],
            ),
        ]);
        assert!(is_recursive(&p));

        // Linear chain is not recursive.
        let p2 = Program::new(vec![
            rule(
                "B",
                vec![
                    Atom::base("B", vec![Term::var("x")]),
                    Atom::delta("A", vec![Term::var("x")]),
                ],
            ),
            rule(
                "C",
                vec![
                    Atom::base("C", vec![Term::var("x")]),
                    Atom::delta("B", vec![Term::var("x")]),
                ],
            ),
        ]);
        assert!(!is_recursive(&p2));

        // Self-loop ΔA :- A, ΔA.
        let p3 = Program::new(vec![rule(
            "A",
            vec![
                Atom::base("A", vec![Term::var("x")]),
                Atom::delta("A", vec![Term::var("y")]),
            ],
        )]);
        assert!(is_recursive(&p3));
    }
}
