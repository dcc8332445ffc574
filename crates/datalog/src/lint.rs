//! Multi-pass static analyzer for delta programs.
//!
//! [`lint`] runs a fixed pipeline of passes over a parsed [`Program`]
//! (optionally against a [`Schema`]) and returns a [`LintReport`]: a list of
//! structured [`Diagnostic`]s plus the [`EquivalenceCertificate`] of the
//! certificate pass. The passes, in order:
//!
//! | pass | codes | severity | needs schema |
//! |------|-------|----------|--------------|
//! | validation (Def. 3.1 + safety) | `E001`–`E006` | error | yes |
//! | dead rules (provably empty body) | `W101` | warning | no |
//! | constant contradictions | `W102` | warning | no |
//! | cartesian-product joins | `W103` | warning | no (blow-up estimate with db) |
//! | duplicate rules | `W104` | warning | no |
//! | subsumed rules | `W105` | warning | no |
//! | unused schema relations | `I201` | info | yes |
//! | recursion through delta ([`recursion_diagnostic`]) | `I202` | info | no |
//! | semantics-equivalence certificate | `I203` | info | no |
//!
//! # The certificate pass
//!
//! The paper's four repair semantics (end / stage / step / independent)
//! provably coincide on statically recognizable program classes; see
//! [`certify`] for the classes and the soundness argument. `repair_core`'s
//! `RepairSession` consumes the certificate to dispatch a request for an
//! expensive semantics to the cheap end-semantics fixpoint when the two are
//! statically equivalent.
//!
//! Every pass is purely syntactic, deterministic (diagnostics are ordered by
//! rule index, then pass order), and allocation-light — linting is cheap
//! enough to run at session construction.

use crate::ast::{Atom, Program, Rule, Span, Term};
use crate::error::DatalogError;
use crate::validate;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use storage::{Instance, Schema, Sym, Value};

/// How bad a [`Diagnostic`] is.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Severity {
    /// Informational: a property worth knowing, nothing to fix.
    Info,
    /// Suspicious but executable — the engine will do something well-defined
    /// that is probably not what the author meant.
    Warning,
    /// The program is rejected by validation; evaluation would refuse it.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One finding of one lint pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable machine-readable code (`E001`…`I203`, see the module table).
    pub code: &'static str,
    /// Severity class (derivable from the code's letter, kept explicit).
    pub severity: Severity,
    /// 0-based index of the rule the finding is about, when rule-scoped.
    pub rule: Option<usize>,
    /// Source position, when the program was parsed from text.
    pub span: Option<Span>,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity, self.code)?;
        if let Some(r) = self.rule {
            write!(f, " rule {r}")?;
        }
        if let Some(s) = self.span {
            write!(f, " at {s}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// Which of the four repair semantics provably produce identical
/// delete-sets for a program, decided purely from its syntax.
///
/// Produced by [`certify`]; the flags are cumulative in strength
/// (`pure_cascade` implies `interaction_free`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct EquivalenceCertificate {
    /// No rule has a delta body atom: the program is one stratum of
    /// DC-style rules, so **end = stage**.
    pub single_stratum: bool,
    /// No rule-head relation occurs as a non-witness base atom in any body
    /// (the static "non-overlapping heads" counterpart of
    /// `provenance::ProvGraph::is_interaction_free`), so
    /// **end = stage = step**.
    pub interaction_free: bool,
    /// Interaction-free and every base body atom *is* the head witness:
    /// the Horn constraints force a unique minimal stabilizing set, so
    /// **all four semantics coincide**.
    pub pure_cascade: bool,
}

impl EquivalenceCertificate {
    /// Does the certificate prove any nontrivial equivalence?
    pub fn any(&self) -> bool {
        self.single_stratum || self.interaction_free || self.pure_cascade
    }

    /// Human-readable statement of what is certified.
    pub fn describe(&self) -> String {
        if self.pure_cascade {
            "pure cascade: independent = step = stage = end (all four delete-sets coincide)"
                .to_owned()
        } else if self.interaction_free {
            let stratum = if self.single_stratum {
                "single-stratum, "
            } else {
                ""
            };
            format!("{stratum}interaction-free: step = stage = end delete-sets coincide")
        } else if self.single_stratum {
            "single-stratum: stage = end delete-sets coincide".to_owned()
        } else {
            "no static equivalence certificate".to_owned()
        }
    }
}

/// The analyzer's output: ordered diagnostics plus the certificate.
#[derive(Clone, Debug)]
pub struct LintReport {
    /// Findings ordered by rule index, then pass order.
    pub diagnostics: Vec<Diagnostic>,
    /// The semantics-equivalence certificate.
    pub certificate: EquivalenceCertificate,
}

impl LintReport {
    /// Any error-severity findings? (The CLI maps this to exit code 7.)
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Count findings at `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Human-readable rendering: one line per diagnostic, then the
    /// certificate, then a summary line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out.push_str(&format!("certificate: {}\n", self.certificate.describe()));
        out.push_str(&format!(
            "{} error(s), {} warning(s), {} info(s)\n",
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info),
        ));
        out
    }

    /// Machine-readable rendering (the CLI's `lint --json`). Hand-rolled —
    /// the workspace deliberately has no serde dependency.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!("\"code\": \"{}\", ", d.code));
            out.push_str(&format!("\"severity\": \"{}\", ", d.severity));
            match d.rule {
                Some(r) => out.push_str(&format!("\"rule\": {r}, ")),
                None => out.push_str("\"rule\": null, "),
            }
            match d.span {
                Some(s) => out.push_str(&format!("\"line\": {}, \"col\": {}, ", s.line, s.col)),
                None => out.push_str("\"line\": null, \"col\": null, "),
            }
            out.push_str(&format!("\"message\": \"{}\"}}", json_escape(&d.message)));
        }
        out.push_str("\n  ],\n");
        let c = &self.certificate;
        out.push_str(&format!(
            "  \"certificate\": {{\"single_stratum\": {}, \"interaction_free\": {}, \"pure_cascade\": {}, \"describe\": \"{}\"}},\n",
            c.single_stratum,
            c.interaction_free,
            c.pure_cascade,
            json_escape(&c.describe())
        ));
        out.push_str(&format!(
            "  \"errors\": {}, \"warnings\": {}, \"infos\": {}\n}}\n",
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info),
        ));
        out
    }
}

/// Escape `s` for a JSON string literal. The workspace has no serde
/// dependency; this is the one escaper the hand-rolled JSON renderers
/// (`lint --json`, `explain --json`) share.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Run every pass over `program`. Passes that need a schema (validation,
/// unused relations) are skipped when `schema` is `None` — the CLI uses
/// this to lint a program file without a database.
pub fn lint(schema: Option<&Schema>, program: &Program) -> LintReport {
    lint_impl(schema, None, program)
}

/// [`lint`] with a loaded instance: schema passes run against its schema,
/// and the cartesian pass (`W103`) quantifies each disconnected join with
/// an estimated blow-up factor from the instance's live column statistics
/// instead of only flagging the shape.
pub fn lint_with_stats(db: Option<&Instance>, program: &Program) -> LintReport {
    lint_impl(db.map(|d| d.schema()), db, program)
}

fn lint_impl(schema: Option<&Schema>, db: Option<&Instance>, program: &Program) -> LintReport {
    let mut diags: Vec<Diagnostic> = Vec::new();
    if let Some(schema) = schema {
        validation_pass(schema, program, &mut diags);
        unused_relation_pass(schema, program, &mut diags);
    }
    dead_rule_pass(program, &mut diags);
    contradiction_pass(program, &mut diags);
    cartesian_pass(program, db, &mut diags);
    duplicate_pass(program, &mut diags);
    diags.extend(recursion_diagnostic(program));
    let certificate = certify(program);
    if certificate.any() {
        diags.push(Diagnostic {
            code: "I203",
            severity: Severity::Info,
            rule: None,
            span: None,
            message: certificate.describe(),
        });
    }
    // Deterministic presentation: rule-scoped findings by rule index (stable
    // within a rule: pass order), program-scoped findings last.
    diags.sort_by_key(|d| d.rule.map_or(usize::MAX, |r| r));
    LintReport {
        diagnostics: diags,
        certificate,
    }
}

/// Statically certify which semantics coincide for `program`.
///
/// Soundness (`H` = set of head relations; "witness" = the Def. 3.1 body
/// atom repeating the head's relation and argument vector):
///
/// * **single-stratum** — no delta body atoms. End evaluates every rule once
///   over the frozen database; stage fires the same matches at stage 1, and
///   deletion can only *remove* matches of these monotone conjunctive
///   bodies, so stage 2 finds nothing new: end = stage. (Step may differ:
///   firing one match can void another's witness.)
/// * **interaction-free** — no rule has a non-witness base atom over a
///   relation in `H`. Then every runtime assignment's base tuples are either
///   the head's own witness tuple or tuples of relations that are never
///   deleted, i.e. `provenance::ProvGraph::is_interaction_free` holds on
///   *every* database. Firing a step deletion then never voids another
///   derivation, so the greedy step run deletes everything end deletes
///   (step = end), and every end derivation survives stage-by-stage
///   (stage = end): end = stage = step.
/// * **pure cascade** — interaction-free and every base body atom is the
///   witness itself. The independent semantics' constraints become Horn
///   implications "body deltas ⊆ S ⟹ witness ∈ S" whose unique minimal
///   model is exactly the end fixpoint, so the Min-Ones optimum is forced:
///   all four coincide.
pub fn certify(program: &Program) -> EquivalenceCertificate {
    let heads: BTreeSet<&str> = program
        .rules
        .iter()
        .map(|r| r.head.relation.as_str())
        .collect();
    let single_stratum = program.rules.iter().all(|r| !r.has_delta_body());
    let is_witness = |r: &Rule, a: &Atom| {
        !a.is_delta && a.relation == r.head.relation && a.terms == r.head.terms
    };
    let interaction_free = program.rules.iter().all(|r| {
        r.body
            .iter()
            .all(|a| a.is_delta || is_witness(r, a) || !heads.contains(a.relation.as_str()))
    });
    let pure_cascade = interaction_free
        && program
            .rules
            .iter()
            .all(|r| r.body.iter().all(|a| a.is_delta || is_witness(r, a)));
    EquivalenceCertificate {
        single_stratum,
        interaction_free,
        pure_cascade,
    }
}

/// `E001`–`E006`: Definition 3.1 well-formedness and safety, surfaced as
/// diagnostics (one per offending rule) instead of a bare first error.
fn validation_pass(schema: &Schema, program: &Program, diags: &mut Vec<Diagnostic>) {
    for (i, rule) in program.rules.iter().enumerate() {
        if let Err(e) = validate::validate_rule(schema, rule) {
            let code = match &e {
                DatalogError::UnknownRelation { .. } => "E001",
                DatalogError::Arity { .. } => "E002",
                DatalogError::TypeMismatch { .. } => "E003",
                DatalogError::HeadNotDelta { .. } => "E004",
                DatalogError::MissingHeadWitness { .. } => "E005",
                DatalogError::UnsafeVariable { .. } => "E006",
                // Validation raises no other variants; keep a stable code
                // rather than panicking if that ever changes.
                _ => "E000",
            };
            diags.push(Diagnostic {
                code,
                severity: Severity::Error,
                rule: Some(i),
                span: e.span().or(rule.span()),
                message: e.to_string(),
            });
        }
    }
}

/// `I201`: schema relations the program never mentions.
fn unused_relation_pass(schema: &Schema, program: &Program, diags: &mut Vec<Diagnostic>) {
    let mut referenced: BTreeSet<&str> = BTreeSet::new();
    for r in &program.rules {
        referenced.insert(r.head.relation.as_str());
        for a in &r.body {
            referenced.insert(a.relation.as_str());
        }
    }
    for (_, rs) in schema.iter() {
        if !referenced.contains(rs.name.as_str()) {
            diags.push(Diagnostic {
                code: "I201",
                severity: Severity::Info,
                rule: None,
                span: None,
                message: format!("relation `{}` is not referenced by the program", rs.name),
            });
        }
    }
}

/// `W101`: rules whose body is provably empty because a delta body atom's
/// relation is never the head of any rule — nothing can ever derive it.
fn dead_rule_pass(program: &Program, diags: &mut Vec<Diagnostic>) {
    let heads: BTreeSet<&str> = program
        .rules
        .iter()
        .map(|r| r.head.relation.as_str())
        .collect();
    for (i, rule) in program.rules.iter().enumerate() {
        for a in &rule.body {
            if a.is_delta && !heads.contains(a.relation.as_str()) {
                diags.push(Diagnostic {
                    code: "W101",
                    severity: Severity::Warning,
                    rule: Some(i),
                    span: a.span.or(rule.span()),
                    message: format!(
                        "dead rule: no rule derives `delta {}`, so this body can never hold",
                        a.relation
                    ),
                });
            }
        }
    }
}

/// `W102`: comparisons that are false for every assignment — false
/// constant-constant comparisons, trivially false self-comparisons
/// (`x < x`, `x != x`), and contradictory `var = const` bindings (directly
/// or against another comparison on the same variable).
fn contradiction_pass(program: &Program, diags: &mut Vec<Diagnostic>) {
    use crate::ast::CmpOp;
    for (i, rule) in program.rules.iter().enumerate() {
        let push = |msg: String, span: Option<Span>, diags: &mut Vec<Diagnostic>| {
            diags.push(Diagnostic {
                code: "W102",
                severity: Severity::Warning,
                rule: Some(i),
                span,
                message: msg,
            });
        };
        // Equality bindings var -> const seen so far, in comparison order.
        let mut bindings: Vec<(Sym, &Value)> = Vec::new();
        for c in &rule.comparisons {
            match (&c.lhs, &c.rhs) {
                (Term::Const(a), Term::Const(b)) if !c.op.eval(a, b) => {
                    push(
                        format!("comparison `{c}` is always false"),
                        rule.span(),
                        diags,
                    );
                }
                (Term::Var(v), Term::Var(w)) if v == w => {
                    if matches!(c.op, CmpOp::Ne | CmpOp::Lt | CmpOp::Gt) {
                        push(
                            format!("comparison `{c}` is always false"),
                            rule.span(),
                            diags,
                        );
                    }
                }
                (Term::Var(v), Term::Const(k)) | (Term::Const(k), Term::Var(v)) => {
                    // Orient constant to the right for evaluation.
                    let (op, val) = if matches!(c.lhs, Term::Var(_)) {
                        (c.op, k)
                    } else {
                        (flip(c.op), k)
                    };
                    if let Some((_, bound)) = bindings.iter().find(|(b, _)| b == v) {
                        if !op.eval(bound, val) {
                            push(
                                format!(
                                    "comparison `{c}` contradicts earlier binding `{v} = {bound}`",
                                ),
                                rule.span(),
                                diags,
                            );
                        }
                    } else if op == CmpOp::Eq {
                        bindings.push((*v, val));
                    }
                }
                _ => {}
            }
        }
    }
}

/// Mirror a comparison operator so `const op var` reads as `var op' const`.
fn flip(op: crate::ast::CmpOp) -> crate::ast::CmpOp {
    use crate::ast::CmpOp::*;
    match op {
        Eq => Eq,
        Ne => Ne,
        Lt => Gt,
        Le => Ge,
        Gt => Lt,
        Ge => Le,
    }
}

/// Estimated live cardinality of one atom: live rows scaled by the exact
/// frequency of every constant column (from the relation's incrementally
/// maintained [`storage::ColumnStats`]). `None` when the atom's relation or
/// arity is unknown to the instance — the caller falls back to the purely
/// syntactic message.
fn atom_cardinality(db: &Instance, atom: &Atom) -> Option<f64> {
    let rel = db.schema().rel_id(&atom.relation)?;
    if db.schema().rel(rel).arity() != atom.terms.len() {
        return None;
    }
    let r = db.relation(rel);
    let live = r.live_count() as f64;
    let mut est = live;
    for (col, term) in atom.terms.iter().enumerate() {
        if let Term::Const(v) = term {
            if live == 0.0 {
                return Some(0.0);
            }
            est *= r.value_count(col, v) as f64 / live;
        }
    }
    Some(est)
}

/// `W103`: body atoms that share no variable with the rest of the body —
/// the join degenerates to a cartesian product. With live statistics the
/// diagnostic also reports the estimated blow-up: the product of every
/// component's estimated cardinality except the largest, i.e. the factor by
/// which the cross product multiplies the biggest component's row count.
fn cartesian_pass(program: &Program, db: Option<&Instance>, diags: &mut Vec<Diagnostic>) {
    for (i, rule) in program.rules.iter().enumerate() {
        let n = rule.body.len();
        if n < 2 {
            continue;
        }
        // Union-find over body atoms, merged on shared variables.
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], x: usize) -> usize {
            if parent[x] != x {
                let root = find(parent, parent[x]);
                parent[x] = root;
            }
            parent[x]
        }
        for a in 0..n {
            for b in a + 1..n {
                let shares = rule.body[a].terms.iter().any(|t| match t {
                    Term::Var(v) => rule.body[b]
                        .terms
                        .iter()
                        .any(|u| matches!(u, Term::Var(w) if w == v)),
                    Term::Const(_) => false,
                });
                if shares {
                    let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
                    parent[ra] = rb;
                }
            }
        }
        let mut roots: Vec<usize> = (0..n).map(|x| find(&mut parent, x)).collect();
        roots.sort_unstable();
        roots.dedup();
        if roots.len() > 1 {
            // With an instance, size each component from live statistics:
            // component cardinality = product of its atoms' estimated rows
            // (an upper bound that ignores intra-component joins — fine for
            // a lint). The blow-up is the product of all components except
            // the largest.
            let blowup = db.and_then(|db| {
                let mut parent = parent.clone();
                let mut sizes: BTreeMap<usize, f64> = BTreeMap::new();
                for (a, atom) in rule.body.iter().enumerate() {
                    let est = atom_cardinality(db, atom)?;
                    let root = find(&mut parent, a);
                    *sizes.entry(root).or_insert(1.0) *= est;
                }
                let product: f64 = sizes.values().product();
                let max = sizes.values().fold(0.0_f64, |m, &v| m.max(v));
                Some(if max > 0.0 { product / max } else { 0.0 })
            });
            let suffix = match blowup {
                Some(b) if b >= 100.0 => {
                    format!("; estimated blow-up ×{b:.0} from live statistics")
                }
                Some(b) => format!("; estimated blow-up ×{b:.1} from live statistics"),
                None => String::new(),
            };
            diags.push(Diagnostic {
                code: "W103",
                severity: Severity::Warning,
                rule: Some(i),
                span: rule.span(),
                message: format!(
                    "body atoms form {} disconnected join components (cartesian product){suffix}",
                    roots.len()
                ),
            });
        }
    }
}

/// `W104` (duplicate) and `W105` (subsumed): pairwise rule comparison via
/// substitution subsumption. Rule `a` subsumes rule `b` when a variable
/// substitution θ maps `a`'s head to `b`'s head, every atom of θ(body(a))
/// into `b`'s body, and every comparison of θ(cmp(a)) into `b`'s
/// comparisons — then every firing of `b` is matched by a firing of `a`
/// deriving the same head, so `b` is redundant.
fn duplicate_pass(program: &Program, diags: &mut Vec<Diagnostic>) {
    let n = program.rules.len();
    for j in 0..n {
        for i in 0..n {
            if i == j {
                continue;
            }
            let (a, b) = (&program.rules[i], &program.rules[j]);
            if !subsumes(a, b) {
                continue;
            }
            if i < j && subsumes(b, a) {
                diags.push(Diagnostic {
                    code: "W104",
                    severity: Severity::Warning,
                    rule: Some(j),
                    span: b.span(),
                    message: format!("rule {j} duplicates rule {i}"),
                });
            } else if !subsumes(b, a) {
                diags.push(Diagnostic {
                    code: "W105",
                    severity: Severity::Warning,
                    rule: Some(j),
                    span: b.span(),
                    message: format!("rule {j} is subsumed by the more general rule {i}"),
                });
            }
            // Only report each redundant rule once.
            break;
        }
    }
}

/// Does rule `a` subsume rule `b`? Backtracking search for the
/// substitution θ (rule bodies are tiny — a handful of atoms).
fn subsumes(a: &Rule, b: &Rule) -> bool {
    let mut theta: Vec<(Sym, Term)> = Vec::new();
    if !match_atom(&a.head, &b.head, &mut theta) {
        return false;
    }
    match_body(a, b, 0, &mut theta)
}

fn match_body(a: &Rule, b: &Rule, next: usize, theta: &mut Vec<(Sym, Term)>) -> bool {
    if next == a.body.len() {
        return match_comparisons(a, b, 0, theta);
    }
    let pat = &a.body[next];
    for cand in &b.body {
        let mark = theta.len();
        if match_atom(pat, cand, theta) && match_body(a, b, next + 1, theta) {
            return true;
        }
        theta.truncate(mark);
    }
    false
}

fn match_comparisons(a: &Rule, b: &Rule, next: usize, theta: &mut Vec<(Sym, Term)>) -> bool {
    if next == a.comparisons.len() {
        return true;
    }
    let pat = &a.comparisons[next];
    for cand in &b.comparisons {
        if cand.op != pat.op {
            continue;
        }
        let mark = theta.len();
        if match_term(&pat.lhs, &cand.lhs, theta)
            && match_term(&pat.rhs, &cand.rhs, theta)
            && match_comparisons(a, b, next + 1, theta)
        {
            return true;
        }
        theta.truncate(mark);
    }
    false
}

fn match_atom(pat: &Atom, target: &Atom, theta: &mut Vec<(Sym, Term)>) -> bool {
    if pat.relation != target.relation
        || pat.is_delta != target.is_delta
        || pat.terms.len() != target.terms.len()
    {
        return false;
    }
    let mark = theta.len();
    for (p, t) in pat.terms.iter().zip(target.terms.iter()) {
        if !match_term(p, t, theta) {
            theta.truncate(mark);
            return false;
        }
    }
    true
}

fn match_term(pat: &Term, target: &Term, theta: &mut Vec<(Sym, Term)>) -> bool {
    match pat {
        Term::Const(_) => pat == target,
        Term::Var(v) => match theta.iter().find(|(b, _)| b == v) {
            Some((_, bound)) => bound == target,
            None => {
                theta.push((*v, *target));
                true
            }
        },
    }
}

/// `I202`: recursion through delta relations — the workspace's one
/// recursion check (`lint` runs it as a pass; the CLI's repair report
/// prints its diagnostic).
///
/// The delta-dependency graph has an edge `Δbody → Δhead` for every delta
/// body atom. The paper restricts Algorithms 1 and 2 to bounded programs
/// (Section 2) and warns that provenance may grow super-polynomially under
/// recursion (Section 8); every semantics still terminates, because delta
/// relations are bounded by their base relations. Returns `None` on acyclic
/// programs. Otherwise the message prints the shortest cycle through the
/// first recursive relation in name order, then names every other relation
/// on some delta cycle, so no recursive relation goes unreported.
pub fn recursion_diagnostic(program: &Program) -> Option<Diagnostic> {
    let mut edges: BTreeSet<(&str, &str)> = BTreeSet::new();
    for r in &program.rules {
        for a in r.body.iter().filter(|a| a.is_delta) {
            edges.insert((a.relation.as_str(), r.head.relation.as_str()));
        }
    }
    let names: Vec<&str> = edges
        .iter()
        .flat_map(|&(a, b)| [a, b])
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let id = |n: &str| names.binary_search(&n).expect("edge endpoint is a node");
    // Edges are sorted, so each successor list is too: the search order, and
    // hence the printed cycle, is deterministic.
    let mut succ = vec![Vec::new(); names.len()];
    for &(a, b) in &edges {
        succ[id(a)].push(id(b));
    }
    let recursive = on_a_cycle(&succ);
    let cycle = shortest_cycle(&succ, recursive.iter().position(|&r| r)?)?;
    let mut message = format!(
        "program is recursive through delta relations: {}",
        cycle
            .iter()
            .map(|&v| names[v])
            .collect::<Vec<_>>()
            .join(" -> ")
    );
    let mut printed = vec![false; names.len()];
    for &v in &cycle {
        printed[v] = true;
    }
    let others: Vec<&str> = (0..names.len())
        .filter(|&v| recursive[v] && !printed[v])
        .map(|v| names[v])
        .collect();
    if !others.is_empty() {
        message.push_str(&format!(" (also on a delta cycle: {})", others.join(", ")));
    }
    Some(Diagnostic {
        code: "I202",
        severity: Severity::Info,
        rule: None,
        span: None,
        message,
    })
}

/// Tarjan's strongly connected components, iteratively: `true` for every
/// node on a cycle (a component of two or more nodes, or a self-loop).
fn on_a_cycle(succ: &[Vec<usize>]) -> Vec<bool> {
    const UNSEEN: usize = usize::MAX;
    let n = succ.len();
    let (mut index, mut low, mut next) = (vec![UNSEEN; n], vec![0; n], 0);
    let (mut stack, mut on_stack, mut on_cycle) = (Vec::new(), vec![false; n], vec![false; n]);
    for root in 0..n {
        if index[root] != UNSEEN {
            continue;
        }
        let mut calls = vec![(root, 0)];
        while let Some(&mut (v, ref mut child)) = calls.last_mut() {
            if index[v] == UNSEEN {
                (index[v], low[v]) = (next, next);
                next += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = succ[v].get(*child) {
                *child += 1;
                if index[w] == UNSEEN {
                    calls.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
                continue;
            }
            calls.pop();
            if let Some(&(parent, _)) = calls.last() {
                low[parent] = low[parent].min(low[v]);
            }
            if low[v] == index[v] {
                let root_at = stack
                    .iter()
                    .rposition(|&u| u == v)
                    .expect("v is on the stack");
                let component = stack.split_off(root_at);
                let cyclic = component.len() > 1 || succ[v].contains(&v);
                for u in component {
                    on_stack[u] = false;
                    on_cycle[u] = cyclic;
                }
            }
        }
    }
    on_cycle
}

/// The shortest cycle `[s, …, s]` through `s`, by breadth-first search;
/// `None` when `s` lies on no cycle.
fn shortest_cycle(succ: &[Vec<usize>], s: usize) -> Option<Vec<usize>> {
    let mut parent = vec![usize::MAX; succ.len()];
    let mut queue = VecDeque::from([s]);
    while let Some(u) = queue.pop_front() {
        for &w in &succ[u] {
            if w == s {
                let mut cycle = vec![s];
                let mut x = u;
                while x != s {
                    cycle.push(x);
                    x = parent[x];
                }
                cycle.push(s);
                cycle.reverse();
                return Some(cycle);
            }
            if parent[w] == usize::MAX {
                parent[w] = u;
                queue.push_back(w);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use proptest::prelude::*;
    use storage::AttrType;

    fn schema() -> Schema {
        let mut s = Schema::new();
        s.relation("Grant", &[("gid", AttrType::Int), ("name", AttrType::Str)]);
        s.relation("Author", &[("aid", AttrType::Int), ("name", AttrType::Str)]);
        s.relation(
            "AuthGrant",
            &[("aid", AttrType::Int), ("gid", AttrType::Int)],
        );
        s
    }

    fn codes(src: &str) -> Vec<&'static str> {
        let p = parse_program(src).unwrap();
        lint(Some(&schema()), &p)
            .diagnostics
            .into_iter()
            .map(|d| d.code)
            .collect()
    }

    #[test]
    fn clean_cascade_gets_only_certificate_info() {
        let c = codes(
            "delta Grant(g, n) :- Grant(g, n), n = 'ERC'.
             delta AuthGrant(a, g) :- AuthGrant(a, g), delta Grant(g, n).",
        );
        assert_eq!(c, vec!["I201", "I203"]); // Author unused + pure cascade.
    }

    #[test]
    fn certificate_classes() {
        // Pure cascade: everything coincides.
        let p = parse_program(
            "delta Grant(g, n) :- Grant(g, n), n = 'ERC'.
             delta AuthGrant(a, g) :- AuthGrant(a, g), delta Grant(g, n).",
        )
        .unwrap();
        let c = certify(&p);
        assert!(c.interaction_free && c.pure_cascade && !c.single_stratum);

        // Extra base atom over a non-head relation: interaction-free only.
        let p = parse_program("delta AuthGrant(a, g) :- AuthGrant(a, g), Grant(g, n), n = 'ERC'.")
            .unwrap();
        let c = certify(&p);
        assert!(c.interaction_free && !c.pure_cascade && c.single_stratum);

        // Figure 2's program: Writes-style interaction, nothing certified.
        let p = parse_program(
            "delta Grant(g, n) :- Grant(g, n), n = 'ERC'.
             delta Author(a, n) :- Author(a, n), AuthGrant(a, g), delta Grant(g, gn).
             delta AuthGrant(a, g) :- AuthGrant(a, g), Author(a, n), delta Grant(g2, gn).",
        )
        .unwrap();
        let c = certify(&p);
        assert!(!c.interaction_free && !c.pure_cascade && !c.single_stratum);
    }

    #[test]
    fn validation_errors_become_diagnostics_with_spans() {
        let p = parse_program("delta Nope(a) :- Nope(a).").unwrap();
        let report = lint(Some(&schema()), &p);
        let d = &report.diagnostics[0];
        assert_eq!(d.code, "E001");
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.rule, Some(0));
        assert_eq!(d.span, Some(Span { line: 1, col: 1 }));
        assert!(report.has_errors());
    }

    #[test]
    fn dead_rule_detected() {
        let c = codes("delta Grant(g, n) :- Grant(g, n), delta Author(a, m).");
        assert!(c.contains(&"W101"));
    }

    #[test]
    fn constant_contradictions() {
        assert!(codes("delta Grant(g, n) :- Grant(g, n), 1 = 2.").contains(&"W102"));
        assert!(codes("delta Grant(g, n) :- Grant(g, n), g != g.").contains(&"W102"));
        assert!(codes("delta Grant(g, n) :- Grant(g, n), g = 1, g = 2.").contains(&"W102"));
        assert!(codes("delta Grant(g, n) :- Grant(g, n), g = 5, g < 3.").contains(&"W102"));
        assert!(!codes("delta Grant(g, n) :- Grant(g, n), g = 5, g < 9.").contains(&"W102"));
    }

    #[test]
    fn cartesian_product_detected() {
        let c = codes("delta Grant(g, n) :- Grant(g, n), Author(a, m).");
        assert!(c.contains(&"W103"));
        let c = codes("delta Grant(g, n) :- Grant(g, n), AuthGrant(a, g).");
        assert!(!c.contains(&"W103"));
    }

    #[test]
    fn duplicates_and_subsumption() {
        // Variable renaming still counts as a duplicate.
        let c = codes(
            "delta Grant(g, n) :- Grant(g, n), n = 'ERC'.
             delta Grant(x, y) :- Grant(x, y), y = 'ERC'.",
        );
        assert!(c.contains(&"W104"));
        // The rule with an extra atom is subsumed by the general one.
        let c = codes(
            "delta Grant(g, n) :- Grant(g, n).
             delta Grant(g, n) :- Grant(g, n), AuthGrant(a, g).",
        );
        assert!(c.contains(&"W105"));
    }

    #[test]
    fn recursion_cycle_printed() {
        let p = parse_program(
            "delta Grant(g, n) :- Grant(g, n), delta AuthGrant(a, g).
             delta AuthGrant(a, g) :- AuthGrant(a, g), delta Grant(g, n).",
        )
        .unwrap();
        let report = lint(None, &p);
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == "I202")
            .expect("recursion diagnostic");
        assert!(
            d.message.contains("AuthGrant -> Grant -> AuthGrant")
                || d.message.contains("Grant -> AuthGrant -> Grant"),
            "cycle printed: {}",
            d.message
        );
    }

    /// Fixed programs: acyclic ones (Figure 2, chain, diamond) and a
    /// relation (D, on A → B → D → C → A) that the printed shortest cycle
    /// misses and the "also" list must name. The self-loop, two-cycle,
    /// DC-only and empty programs are in `analysis::tests`.
    #[test]
    fn i202_fixed_cases() {
        let figure2 = "delta Grant(g, n) :- Grant(g, n), n = 'ERC'.
             delta Author(a, n) :- Author(a, n), AuthGrant(a, g), delta Grant(g, gn).
             delta Pub(p, t) :- Pub(p, t), Writes(a, p), delta Author(a, n).
             delta Writes(a, p) :- Pub(p, t), Writes(a, p), delta Author(a, n).
             delta Cite(c, p) :- Cite(c, p), delta Pub(p, t), Writes(a1, c), Writes(a2, p).";
        let cases: [(&str, &str, Option<&str>); 4] = [
            ("figure 2", figure2, None),
            (
                "chain",
                "delta B(x) :- B(x), delta A(x).
                 delta C(x) :- C(x), delta B(x).",
                None,
            ),
            (
                "diamond",
                "delta A(x) :- A(x).
                 delta B(x) :- B(x), delta A(x).
                 delta C(x) :- C(x), delta A(x).
                 delta D(x) :- D(x), delta B(x).
                 delta D(x) :- D(x), delta C(x).
                 delta E(x) :- E(x), delta D(x).",
                None,
            ),
            (
                "A-B-C-D",
                "delta A(x) :- A(x), x = 1.
                 delta B(x) :- B(x), delta A(x).
                 delta C(x) :- C(x), delta B(x).
                 delta A(x) :- A(x), delta C(x).
                 delta D(x) :- D(x), delta B(x).
                 delta C(x) :- C(x), delta D(x).",
                Some("A -> B -> C -> A (also on a delta cycle: D)"),
            ),
        ];
        for (label, src, want) in cases {
            let got = recursion_diagnostic(&parse_program(src).unwrap()).map(|d| d.message);
            let want = want.map(|w| format!("program is recursive through delta relations: {w}"));
            assert_eq!(got, want, "{label}");
        }
    }

    /// Rules over relations `R0`..`R4`: `(head, delta body relations)`, each
    /// rule keeping its Definition 3.1 witness atom.
    fn delta_program(rules: &[(usize, Vec<usize>)]) -> Program {
        let x = || vec![Term::var("x")];
        let rules = rules.iter().map(|(head, body)| {
            let head = format!("R{head}");
            let mut atoms = vec![Atom::base(&head, x())];
            atoms.extend(body.iter().map(|b| Atom::delta(&format!("R{b}"), x())));
            Rule::new(Atom::delta(&head, x()), atoms, vec![])
        });
        Program::new(rules.collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// I202 fires iff some relation reaches itself in the transitive
        /// closure of the Δbody → Δhead edges (Warshall over a boolean
        /// matrix, no lint code shared); its cycle is closed and made of
        /// edges; and cycle plus "also" list name exactly the relations
        /// that reach themselves, each once.
        #[test]
        fn i202_iff_a_relation_reaches_itself(
            rules in prop::collection::vec((0usize..5, prop::collection::vec(0usize..5, 0..3)), 0..7)
        ) {
            let mut edge = [[false; 5]; 5];
            for (head, body) in &rules {
                for &b in body {
                    edge[b][*head] = true;
                }
            }
            let mut reach = edge;
            for k in 0..5 {
                for i in 0..5 {
                    for j in 0..5 {
                        reach[i][j] |= reach[i][k] && reach[k][j];
                    }
                }
            }
            let recursive: Vec<usize> = (0..5).filter(|&i| reach[i][i]).collect();
            match recursion_diagnostic(&delta_program(&rules)) {
                None => prop_assert!(recursive.is_empty()),
                Some(d) => {
                    let text = d
                        .message
                        .strip_prefix("program is recursive through delta relations: ")
                        .unwrap();
                    let (cycle, also) = match text.split_once(" (also on a delta cycle: ") {
                        Some((c, rest)) => (c, rest.strip_suffix(')').unwrap()),
                        None => (text, ""),
                    };
                    let id = |r: &str| r.strip_prefix('R').unwrap().parse::<usize>().unwrap();
                    let cycle: Vec<usize> = cycle.split(" -> ").map(id).collect();
                    prop_assert!(cycle.len() >= 2);
                    prop_assert_eq!(cycle.first(), cycle.last());
                    for pair in cycle.windows(2) {
                        prop_assert!(edge[pair[0]][pair[1]], "{pair:?} is not an edge");
                    }
                    let mut named: Vec<usize> = cycle[1..].to_vec();
                    named.extend(also.split(", ").filter(|r| !r.is_empty()).map(id));
                    named.sort_unstable();
                    prop_assert_eq!(named, recursive);
                }
            }
        }
    }

    #[test]
    fn json_and_render_are_well_formed() {
        let p = parse_program("delta Grant(g, n) :- Grant(g, n), 1 = 2.").unwrap();
        let report = lint(Some(&schema()), &p);
        let json = report.to_json();
        assert!(json.contains("\"code\": \"W102\""));
        assert!(json.contains("\"certificate\""));
        let human = report.render();
        assert!(human.contains("warning[W102]"));
        assert!(human.contains("certificate:"));
    }
}
