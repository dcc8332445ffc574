//! Definitional oracles for the repair semantics, written straight from
//! the paper's text over plain tuple vectors. They share no engine code:
//! no parser, evaluator, provenance formula or solver. Rules are data here
//! and are rendered to source text only to hand them to the engine.
//!
//! * Def. 3.12 (stability): `(D \ S) ∪ Δ(S)` is stable when no rule has an
//!   assignment mapping its base atoms to tuples of `D \ S` and its delta
//!   atoms to tuples of `S`, agreeing on variables and constants, with
//!   every comparison true.
//! * Def. 3.3 (independent): `Ind(P, D)` is a smallest `S` that is
//!   stabilizing, found here by enumerating subsets of `D` in increasing
//!   size.
//! * Def. 3.5 (step): starting from `S = ∅`, fire one satisfied assignment
//!   of one rule on `(D \ S) ∪ Δ(S)` and add its head to `S`, until the
//!   state is stable; `Step(P, D)` is a smallest such end state. Found here
//!   by breadth-first search over every firing sequence.
//! * Def. 3.7 (stage): starting from `S = ∅`, every rule fires on
//!   `(D \ S) ∪ Δ(S)`; the heads of one stage join `S` as one batch; stop
//!   at the first stage that derives nothing.
//! * Def. 3.10 (end): base atoms range over the original `D` throughout,
//!   delta atoms over the deltas derived so far; repeat to the fixpoint.
//!   This is the least fixpoint of the rules' immediate-consequence
//!   operator with the base facts frozen. Fröhlich et al. (PAPERS.md) give
//!   a logic-based formulation of repairs to cross-check these readings
//!   against.
//!
//! The properties: every Independent outcome marked `proven_optimal` — the
//! served lazy loop, the same request with the static certificates on, and
//! Algorithm 1 itself — has the oracle's size and is stabilizing by the
//! oracle's own check; End and Stage delete exactly the oracles' sets,
//! with the certificates on and off; Step, greedy or certified, deletes
//! one of the oracle's reachable end states, a proven Step outcome and the
//! exhaustive `step::optimal` have the oracle's minimum size.

use delta_repairs::sat::MinOnesOptions;
use delta_repairs::{
    independent, parse_program, step, AttrType, Instance, RepairRequest, RepairSession, Schema,
    Semantics, TupleId, Value,
};
use proptest::prelude::*;
use std::collections::{BTreeSet, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Relations and their arities.
const RELS: [(&str, usize); 3] = [("R", 1), ("S", 2), ("T", 1)];
const R: usize = 0;
const S: usize = 1;
const T: usize = 2;

#[derive(Clone, Copy, Debug)]
enum Term {
    Var(usize),
    Const(i64),
}
use Term::{Const, Var};

#[derive(Clone, Copy, Debug)]
enum Op {
    Eq,
    Ne,
    Lt,
}

/// A body atom: a relation, its delta flag and its argument terms.
#[derive(Clone, Copy, Debug)]
struct Atom {
    rel: usize,
    delta: bool,
    args: &'static [Term],
}

/// `delta head :- body, cmps`. The head repeats its first body atom, the
/// head witness, so only the body matters to stability.
#[derive(Clone, Copy, Debug)]
struct Rule {
    body: &'static [Atom],
    cmps: &'static [(Term, Op, Term)],
}

const fn base(rel: usize, args: &'static [Term]) -> Atom {
    Atom {
        rel,
        delta: false,
        args,
    }
}

const fn delta(rel: usize, args: &'static [Term]) -> Atom {
    Atom {
        rel,
        delta: true,
        args,
    }
}

const X: Term = Var(0);
const Y: Term = Var(1);

/// Seeds, DC-style joins, comparisons, and Δ-cascades R → S → T → R in
/// both directions (recursive programs).
const RULE_POOL: [Rule; 10] = [
    Rule {
        body: &[base(R, &[X])],
        cmps: &[(X, Op::Eq, Const(0))],
    },
    Rule {
        body: &[base(R, &[X]), base(S, &[X, Y]), base(T, &[Y])],
        cmps: &[],
    },
    Rule {
        body: &[base(R, &[X]), delta(T, &[Y]), base(S, &[X, Y])],
        cmps: &[],
    },
    Rule {
        body: &[base(S, &[X, Y]), delta(R, &[X])],
        cmps: &[],
    },
    Rule {
        body: &[base(S, &[X, Y]), base(T, &[Y])],
        cmps: &[(X, Op::Ne, Y)],
    },
    Rule {
        body: &[base(T, &[Y]), base(S, &[X, Y]), delta(R, &[X])],
        cmps: &[],
    },
    Rule {
        body: &[base(T, &[Y]), delta(S, &[X, Y])],
        cmps: &[],
    },
    Rule {
        body: &[base(S, &[X, Y]), base(R, &[X]), base(R, &[Y])],
        cmps: &[(X, Op::Lt, Y)],
    },
    Rule {
        body: &[base(T, &[Y]), base(R, &[Y])],
        cmps: &[],
    },
    Rule {
        body: &[base(R, &[X]), base(S, &[X, X])],
        cmps: &[],
    },
];

/// A database as plain tuples: relation index and values.
type Tuple = (usize, Vec<i64>);

fn render_term(t: Term) -> String {
    match t {
        Var(i) => ["x", "y"][i].to_string(),
        Const(c) => c.to_string(),
    }
}

fn render_atom(a: &Atom) -> String {
    let args: Vec<String> = a.args.iter().map(|&t| render_term(t)).collect();
    let delta = if a.delta { "delta " } else { "" };
    format!("{delta}{}({})", RELS[a.rel].0, args.join(", "))
}

/// The rule as engine source text.
fn render(rule: &Rule) -> String {
    let head = render_atom(&rule.body[0]);
    let mut body: Vec<String> = rule.body.iter().map(render_atom).collect();
    for &(l, op, r) in rule.cmps {
        let op = match op {
            Op::Eq => "=",
            Op::Ne => "!=",
            Op::Lt => "<",
        };
        body.push(format!("{} {op} {}", render_term(l), render_term(r)));
    }
    format!("delta {head} :- {}.\n", body.join(", "))
}

/// Feed `f` the head tuple (the tuple bound to the first body atom, the
/// head witness) of every assignment of `rule` whose base atoms bind
/// tuples flagged in `base` and whose delta atoms bind tuples flagged in
/// `delta`. Backtracking over body atoms, in order.
fn for_each_head(
    rule: &Rule,
    db: &[Tuple],
    base: &[bool],
    delta: &[bool],
    f: &mut dyn FnMut(usize),
) {
    fn value(t: Term, bind: &[Option<i64>; 2]) -> Option<i64> {
        match t {
            Var(i) => bind[i],
            Const(c) => Some(c),
        }
    }
    struct Views<'a> {
        db: &'a [Tuple],
        base: &'a [bool],
        delta: &'a [bool],
    }
    fn extend(
        rule: &Rule,
        k: usize,
        views: &Views<'_>,
        bind: [Option<i64>; 2],
        head: usize,
        f: &mut dyn FnMut(usize),
    ) {
        let Some(atom) = rule.body.get(k) else {
            let holds = rule.cmps.iter().all(|&(l, op, r)| {
                let (l, r) = (value(l, &bind).unwrap(), value(r, &bind).unwrap());
                match op {
                    Op::Eq => l == r,
                    Op::Ne => l != r,
                    Op::Lt => l < r,
                }
            });
            if holds {
                f(head);
            }
            return;
        };
        let view = if atom.delta { views.delta } else { views.base };
        'tuples: for (i, (rel, vals)) in views.db.iter().enumerate() {
            if *rel != atom.rel || !view[i] {
                continue;
            }
            let mut bind = bind;
            for (&t, &v) in atom.args.iter().zip(vals) {
                match t {
                    Const(c) if c != v => continue 'tuples,
                    Const(_) => {}
                    Var(x) => match bind[x] {
                        Some(b) if b != v => continue 'tuples,
                        Some(_) => {}
                        None => bind[x] = Some(v),
                    },
                }
            }
            let head = if k == 0 { i } else { head };
            extend(rule, k + 1, views, bind, head, f);
        }
    }
    let views = Views { db, base, delta };
    extend(rule, 0, &views, [None; 2], usize::MAX, f);
}

/// Does `rule` have an assignment in the state where the tuples flagged in
/// `deleted` sit in their delta relations and the others in their base
/// relations?
fn fires(rule: &Rule, db: &[Tuple], deleted: &[bool]) -> bool {
    let present: Vec<bool> = deleted.iter().map(|&d| !d).collect();
    let mut fired = false;
    for_each_head(rule, db, &present, deleted, &mut |_| fired = true);
    fired
}

/// Def. 3.12/3.14: is deleting the flagged tuples stabilizing?
fn stabilizing(rules: &[Rule], db: &[Tuple], deleted: &[bool]) -> bool {
    !rules.iter().any(|r| fires(r, db, deleted))
}

/// Def. 3.3: the size of a smallest stabilizing set, by enumerating the
/// subsets of `db` in increasing size (`db` itself always stabilizes).
fn min_stabilizing_size(rules: &[Rule], db: &[Tuple]) -> usize {
    let n = db.len();
    (0..=n)
        .find(|&k| {
            (0u32..1 << n)
                .filter(|m| m.count_ones() as usize == k)
                .any(|m| {
                    let deleted: Vec<bool> = (0..n).map(|i| m >> i & 1 == 1).collect();
                    stabilizing(rules, db, &deleted)
                })
        })
        .expect("the whole database is stabilizing")
}

/// Def. 3.10: grow the deltas with base atoms over the original `D` until
/// no rule derives a new one; the fixpoint's deltas are deleted.
fn end_oracle(rules: &[Rule], db: &[Tuple]) -> Vec<bool> {
    let original = vec![true; db.len()];
    let mut delta = vec![false; db.len()];
    loop {
        let mut next = delta.clone();
        for rule in rules {
            for_each_head(rule, db, &original, &delta, &mut |i| next[i] = true);
        }
        if next == delta {
            return delta;
        }
        delta = next;
    }
}

/// Def. 3.5: every stable end state reachable from `S = ∅` by firing one
/// assignment at a time, each state a bit mask over `db` (at most 14
/// tuples). Breadth-first over the states, so each is expanded once.
fn step_end_states(rules: &[Rule], db: &[Tuple]) -> BTreeSet<u16> {
    let flags = |s: u16| -> Vec<bool> { (0..db.len()).map(|i| s >> i & 1 == 1).collect() };
    let mut seen = vec![false; 1 << db.len()];
    let mut queue = VecDeque::from([0u16]);
    seen[0] = true;
    let mut ends = BTreeSet::new();
    while let Some(s) = queue.pop_front() {
        let deleted = flags(s);
        let present: Vec<bool> = deleted.iter().map(|&d| !d).collect();
        let mut heads = 0u16;
        for rule in rules {
            for_each_head(rule, db, &present, &deleted, &mut |i| heads |= 1 << i);
        }
        if heads == 0 {
            ends.insert(s);
        }
        for i in (0..db.len()).filter(|&i| heads >> i & 1 == 1) {
            let next = s | 1 << i;
            if !seen[next as usize] {
                seen[next as usize] = true;
                queue.push_back(next);
            }
        }
    }
    ends
}

/// Def. 3.7: each stage fires every rule on `(D \ S) ∪ Δ(S)` and deletes
/// all of the stage's heads at once.
fn stage_oracle(rules: &[Rule], db: &[Tuple]) -> Vec<bool> {
    let mut deleted = vec![false; db.len()];
    loop {
        let present: Vec<bool> = deleted.iter().map(|&d| !d).collect();
        let mut heads = Vec::new();
        for rule in rules {
            for_each_head(rule, db, &present, &deleted, &mut |i| heads.push(i));
        }
        if heads.is_empty() {
            return deleted;
        }
        for i in heads {
            deleted[i] = true;
        }
    }
}

fn engine_db(db: &[Tuple]) -> (Instance, Vec<TupleId>) {
    let mut schema = Schema::new();
    schema.relation("R", &[("x", AttrType::Int)]);
    schema.relation("S", &[("x", AttrType::Int), ("y", AttrType::Int)]);
    schema.relation("T", &[("y", AttrType::Int)]);
    let mut instance = Instance::new(schema);
    let ids = db
        .iter()
        .map(|(rel, vals)| {
            instance
                .insert_values(RELS[*rel].0, vals.iter().map(|&v| Value::Int(v)))
                .expect("schema matches")
        })
        .collect();
    (instance, ids)
}

/// Cases run by the End/Stage property, and among them the cases whose End
/// set is nonempty and whose Stage set differs from End's: the property
/// must not pass by comparing empty sets.
static END_STAGE_CASES: [AtomicUsize; 3] = [const { AtomicUsize::new(0) }; 3];

prop_compose! {
    /// At most 14 distinct tuples: up to 4 R values, 6 S pairs and 4 T
    /// values over 4 constants (dense enough to join).
    fn arb_db()(
        r in prop::collection::btree_set(0i64..4, 0..5),
        s in prop::collection::btree_set((0i64..4, 0i64..4), 0..7),
        t in prop::collection::btree_set(0i64..4, 0..5),
    ) -> Vec<Tuple> {
        r.into_iter().map(|v| (R, vec![v]))
            .chain(s.into_iter().map(|(a, b)| (S, vec![a, b])))
            .chain(t.into_iter().map(|v| (T, vec![v])))
            .collect()
    }
}

prop_compose! {
    /// A random nonempty subset of the rule pool.
    fn arb_rules()(mask in 1u16..(1 << RULE_POOL.len())) -> Vec<Rule> {
        RULE_POOL
            .iter()
            .enumerate()
            .filter(|&(i, _)| mask & (1 << i) != 0)
            .map(|(_, &r)| r)
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn proven_independent_outcomes_match_definition_3_3(
        db in arb_db(),
        rules in arb_rules(),
    ) {
        prop_assert!(db.len() <= 14);
        let source: String = rules.iter().map(render).collect();
        let (instance, ids) = engine_db(&db);
        let session = RepairSession::new(instance, parse_program(&source).expect("well-formed"))
            .expect("valid");
        let minimum = min_stabilizing_size(&rules, &db);
        let oracle_view = |deleted: &[TupleId]| -> Vec<bool> {
            ids.iter().map(|t| deleted.contains(t)).collect()
        };
        let ind = |certificates| {
            let req = RepairRequest::new(Semantics::Independent).certificates(certificates);
            let o = session.repair(&req).expect("valid request");
            (o.proven_optimal(), o.deleted().to_vec())
        };
        let eager = independent::run(session.db(), session.evaluator(), &MinOnesOptions::default());
        for (label, (proven, deleted)) in [
            ("served", ind(false)),
            ("certified", ind(true)),
            ("algorithm 1", (eager.optimal, eager.deleted)),
        ] {
            prop_assert!(
                stabilizing(&rules, &db, &oracle_view(&deleted)),
                "{}: not stabilizing by Def. 3.12\n{}{:?}", label, source, db
            );
            if proven {
                prop_assert_eq!(
                    deleted.len(), minimum,
                    "{}: not a minimum by Def. 3.3\n{}{:?}", label, source, db
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    #[test]
    fn end_and_stage_match_definitions_3_10_and_3_7(
        db in arb_db(),
        rules in arb_rules(),
    ) {
        let source: String = rules.iter().map(render).collect();
        let (instance, ids) = engine_db(&db);
        let session = RepairSession::new(instance, parse_program(&source).expect("well-formed"))
            .expect("valid");
        let as_ids = |flags: Vec<bool>| -> Vec<TupleId> {
            let mut out: Vec<TupleId> =
                ids.iter().zip(flags).filter(|&(_, d)| d).map(|(&t, _)| t).collect();
            out.sort_unstable();
            out
        };
        let end = as_ids(end_oracle(&rules, &db));
        let stage = as_ids(stage_oracle(&rules, &db));
        let [cases, nonempty, differ] = &END_STAGE_CASES;
        nonempty.fetch_add(usize::from(!end.is_empty()), Relaxed);
        differ.fetch_add(usize::from(end != stage), Relaxed);
        for certificates in [false, true] {
            // End twice: served from the incremental checkpoint, and as a
            // full recompute.
            for (sem, incremental, oracle) in [
                (Semantics::End, true, &end),
                (Semantics::End, false, &end),
                (Semantics::Stage, true, &stage),
            ] {
                let req = RepairRequest::new(sem)
                    .certificates(certificates)
                    .incremental(incremental);
                let mut deleted = session.repair(&req).expect("valid request").deleted().to_vec();
                deleted.sort_unstable();
                prop_assert_eq!(
                    &deleted, oracle,
                    "{} (certificates {}, incremental {}) differs from its definition\n{}{:?}",
                    sem, certificates, incremental, source, db
                );
            }
        }
        if cases.fetch_add(1, Relaxed) + 1 == 384 {
            let (nonempty, differ) = (nonempty.load(Relaxed), differ.load(Relaxed));
            prop_assert!(
                nonempty >= 128 && differ >= 3,
                "End/Stage property is near-vacuous: {nonempty} nonempty End sets and \
                 {differ} Stage sets differing from End in 384 cases"
            );
        }
    }
}

/// Step property tallies: cases run, cases with end states of more than
/// one size (where the choice of firing sequence matters), greedy cases
/// above the minimum, and the summed and largest greedy excess.
static STEP_CASES: [AtomicUsize; 5] = [const { AtomicUsize::new(0) }; 5];
const STEP_CASE_COUNT: u32 = 512;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(STEP_CASE_COUNT))]

    #[test]
    fn step_matches_definition_3_5(db in arb_db(), rules in arb_rules()) {
        let source: String = rules.iter().map(render).collect();
        let (instance, ids) = engine_db(&db);
        let session = RepairSession::new(instance, parse_program(&source).expect("well-formed"))
            .expect("valid");
        let ends = step_end_states(&rules, &db);
        let sizes: BTreeSet<u32> = ends.iter().map(|s| s.count_ones()).collect();
        let minimum = *sizes.first().expect("some firing sequence ends") as usize;
        let mask = |deleted: &[TupleId]| -> u16 {
            ids.iter()
                .enumerate()
                .filter(|(_, t)| deleted.contains(t))
                .map(|(i, _)| 1 << i)
                .sum()
        };
        let exact = step::optimal(session.db(), session.evaluator(), usize::MAX)
            .expect("no state limit");
        prop_assert!(
            ends.contains(&mask(&exact)) && exact.len() == minimum,
            "step::optimal deleted {:?}, oracle minimum {}\n{}{:?}", exact, minimum, source, db
        );
        let [cases, choice, gaps, excess, widest] = &STEP_CASES;
        for certificates in [false, true] {
            let req = RepairRequest::new(Semantics::Step).certificates(certificates);
            let o = session.repair(&req).expect("valid request");
            let deleted = o.deleted();
            prop_assert!(
                ends.contains(&mask(deleted)) && mask(deleted).count_ones() as usize == deleted.len(),
                "Step (certificates {}) deleted {:?}, not a reachable end state\n{}{:?}",
                certificates, deleted, source, db
            );
            if o.proven_optimal() {
                prop_assert_eq!(
                    deleted.len(), minimum,
                    "proven Step (certificates {}) is not a minimum\n{}{:?}",
                    certificates, source, db
                );
            }
            if !certificates {
                let gap = deleted.len() - minimum;
                gaps.fetch_add(usize::from(gap > 0), Relaxed);
                excess.fetch_add(gap, Relaxed);
                widest.fetch_max(gap, Relaxed);
            }
        }
        choice.fetch_add(usize::from(sizes.len() > 1), Relaxed);
        if cases.fetch_add(1, Relaxed) + 1 == STEP_CASE_COUNT as usize {
            let choice = choice.load(Relaxed);
            eprintln!(
                "Step greedy gap: {} of {STEP_CASE_COUNT} cases ({choice} with end states of \
                 several sizes) above the minimum, {} tuples in all, at most {} in one case",
                gaps.load(Relaxed),
                excess.load(Relaxed),
                widest.load(Relaxed),
            );
            prop_assert!(
                choice >= 40,
                "Step property is near-vacuous: only {choice} of {STEP_CASE_COUNT} cases \
                 have end states of several sizes"
            );
        }
    }
}
