//! Differential testing of the planned + composite-indexed evaluator.
//!
//! `tests/engine_parity.rs` pins the fixpoint *drivers* against the seed
//! loops on fixed workloads; this suite pins the *join core* itself against
//! a naive reference on randomized inputs. Random small programs and
//! instances run through both:
//!
//! * the production [`Evaluator`] — precompiled probe specs, composite
//!   hash indexes, scratch-buffer reuse;
//! * a brute-force reference that walks the same compiled plan order but
//!   enumerates every row of every relation, re-checks every slot with a
//!   hash-map environment, and evaluates all comparisons only at the leaf.
//!
//! Both must produce **identical assignment streams — order included** —
//! under all three modes and randomized deletion/delta states. The plan
//! order is shared on purpose: index probes, residual filters and early
//! comparison scheduling must only *skip* non-matching candidates, never
//! reorder or duplicate survivors; enumeration order is ascending row
//! order at every plan step regardless of access path.
//!
//! The pivoted rounds are checked against their definitions instead: a
//! semi-naive round over a frontier `F ⊆ Δ` must yield exactly the general
//! assignments binding an `F` tuple at some *delta* position, and a
//! change-seeded round over a seed `S` exactly those binding an `S` tuple
//! at *any* position — each once, in every mode.

use delta_repairs::datalog::compile::{CompiledRule, Slot};
use delta_repairs::datalog::{
    parse_program, Assignment, BodyBind, DeltaFrontier, EvalScratch, Evaluator, Mode, Program,
    Round,
};
use delta_repairs::{AttrType, Instance, Schema, State, TupleId, Value};
use proptest::prelude::*;
use std::collections::HashMap;

// ---------------------------------------------------------------------------
// Random schema instances, programs and states.
// ---------------------------------------------------------------------------

/// Fixed test schema: small arities, mixed column types, enough relations
/// for joins and deltas to collide on shared variables.
fn schema() -> Schema {
    let mut s = Schema::new();
    s.relation("R0", &[("a", AttrType::Int)]);
    s.relation("R1", &[("a", AttrType::Int), ("b", AttrType::Int)]);
    s.relation("R2", &[("a", AttrType::Int), ("s", AttrType::Str)]);
    s
}

const REL_NAMES: [&str; 3] = ["R0", "R1", "R2"];
const REL_ARITIES: [usize; 3] = [1, 2, 2];
/// Column types per relation: `true` = Int, `false` = Str.
const REL_INT_COLS: [&[bool]; 3] = [&[true], &[true, true], &[true, false]];
const STRINGS: [&str; 3] = ["x", "y", "z"];
/// Small value domain so joins actually match and tuples collide.
const DOMAIN: i64 = 5;

fn value_for(col_is_int: bool, raw: u64) -> Value {
    if col_is_int {
        Value::Int((raw % DOMAIN as u64) as i64)
    } else {
        Value::str(STRINGS[raw as usize % STRINGS.len()])
    }
}

fn term_src(col_is_int: bool, choice: u64) -> String {
    // 0..6 → variable from a small pool (shared across atoms so joins
    // happen), 6..8 → constant.
    if choice < 6 {
        format!("v{}", choice % 4)
    } else if col_is_int {
        format!("{}", choice % DOMAIN as u64)
    } else {
        format!("'{}'", STRINGS[choice as usize % STRINGS.len()])
    }
}

/// One random rule in concrete syntax. The head witness is body atom 0 by
/// construction (same relation, same terms, positive), which also
/// guarantees safety of head variables.
fn rule_src(
    rel: usize,
    term_choices: &[u64],
    extra: &[(usize, bool, Vec<u64>)],
    cmps: &[(u64, u64, u64)],
) -> String {
    let head_terms: Vec<String> = (0..REL_ARITIES[rel])
        .map(|c| term_src(REL_INT_COLS[rel][c], term_choices[c]))
        .collect();
    let head = format!("{}({})", REL_NAMES[rel], head_terms.join(", "));
    let mut body = vec![head.clone()];
    let mut vars_in_body: Vec<String> = head_terms
        .iter()
        .filter(|t| t.starts_with('v'))
        .cloned()
        .collect();
    for (erel, is_delta, choices) in extra {
        let terms: Vec<String> = (0..REL_ARITIES[*erel])
            .map(|c| term_src(REL_INT_COLS[*erel][c], choices[c]))
            .collect();
        vars_in_body.extend(terms.iter().filter(|t| t.starts_with('v')).cloned());
        let prefix = if *is_delta { "delta " } else { "" };
        body.push(format!(
            "{prefix}{}({})",
            REL_NAMES[*erel],
            terms.join(", ")
        ));
    }
    // Comparisons only over variables already in the body (safety), or
    // integer constants.
    const OPS: [&str; 6] = ["=", "!=", "<", "<=", ">", ">="];
    for &(lhs, op, rhs) in cmps {
        if vars_in_body.is_empty() {
            break;
        }
        let side = |choice: u64| {
            if choice.is_multiple_of(3) {
                format!("{}", choice % DOMAIN as u64)
            } else {
                vars_in_body[choice as usize % vars_in_body.len()].clone()
            }
        };
        body.push(format!(
            "{} {} {}",
            side(lhs),
            OPS[op as usize % OPS.len()],
            side(rhs)
        ));
    }
    format!("delta {head} :- {}.", body.join(", "))
}

prop_compose! {
    fn arb_rule()(
        rel in 0usize..3,
        term_choices in prop::collection::vec(0u64..8, 2),
        extra in prop::collection::vec(
            (0usize..3, any::<bool>(), prop::collection::vec(0u64..8, 2)),
            0..3,
        ),
        cmps in prop::collection::vec((0u64..12, 0u64..6, 0u64..12), 0..2),
    ) -> String {
        rule_src(rel, &term_choices, &extra, &cmps)
    }
}

prop_compose! {
    fn arb_program()(rules in prop::collection::vec(arb_rule(), 1..4)) -> Program {
        parse_program(&rules.join("\n")).expect("generated rules parse")
    }
}

prop_compose! {
    /// Tuples per relation, as raw column draws.
    fn arb_tuples()(
        r0 in prop::collection::vec(prop::collection::vec(0u64..32, 1), 0..8),
        r1 in prop::collection::vec(prop::collection::vec(0u64..32, 2), 0..10),
        r2 in prop::collection::vec(prop::collection::vec(0u64..32, 2), 0..8),
    ) -> [Vec<Vec<u64>>; 3] {
        [r0, r1, r2]
    }
}

fn build_instance(tuples: &[Vec<Vec<u64>>; 3]) -> Instance {
    let mut db = Instance::new(schema());
    for (rel, rows) in tuples.iter().enumerate() {
        for raw in rows {
            let vals: Vec<Value> = raw
                .iter()
                .enumerate()
                .map(|(c, &r)| value_for(REL_INT_COLS[rel][c], r))
                .collect();
            db.insert_values(REL_NAMES[rel], vals).expect("typed row");
        }
    }
    db
}

/// Random state: per tuple, 0 = untouched, 1 = deleted (gone from `R`, in
/// `Δ`), 2 = delta-marked (still in `R`, in `Δ` — the end-semantics shape).
fn build_state(db: &Instance, ops: &[u64]) -> State {
    let mut state = db.initial_state();
    for (i, tid) in db.all_tuple_ids().enumerate() {
        match ops.get(i).copied().unwrap_or(0) % 4 {
            1 => {
                state.delete(tid);
            }
            2 => {
                state.mark_delta(tid);
            }
            _ => {}
        }
    }
    state
}

// ---------------------------------------------------------------------------
// The naive reference evaluator.
// ---------------------------------------------------------------------------

fn admitted_ref(state: &State, mode: Mode, is_delta: bool, tid: TupleId) -> bool {
    if is_delta {
        match mode {
            Mode::Hypothetical => true,
            Mode::Current | Mode::FrozenBase => state.in_delta(tid),
        }
    } else {
        match mode {
            Mode::Current => state.is_present(tid),
            Mode::FrozenBase | Mode::Hypothetical => true,
        }
    }
}

/// Enumerate one rule's assignments by scanning every row of every atom's
/// relation, in the compiled plan order, with nothing precomputed: slots
/// are matched against a `HashMap` environment and every comparison is
/// checked only once all atoms are bound.
fn reference_rule(
    db: &Instance,
    state: &State,
    mode: Mode,
    rule_idx: usize,
    cr: &CompiledRule,
    out: &mut Vec<Assignment>,
) {
    #[allow(clippy::too_many_arguments)]
    fn rec(
        db: &Instance,
        state: &State,
        mode: Mode,
        rule_idx: usize,
        cr: &CompiledRule,
        order: &[usize],
        k: usize,
        env: &mut HashMap<u32, Value>,
        chosen: &mut Vec<Option<TupleId>>,
        out: &mut Vec<Assignment>,
    ) {
        if k == order.len() {
            let all_cmps_hold = cr.cmps.iter().all(|c| {
                let get = |s: &Slot| match s {
                    Slot::Const(v) => *v,
                    Slot::Var(x) => env[x],
                };
                c.op.eval(&get(&c.lhs), &get(&c.rhs))
            });
            if all_cmps_hold {
                out.push(Assignment {
                    rule: rule_idx,
                    head: chosen[cr.head_witness].expect("witness bound"),
                    body: cr
                        .atoms
                        .iter()
                        .enumerate()
                        .map(|(i, a)| BodyBind {
                            tid: chosen[i].expect("bound"),
                            is_delta: a.is_delta,
                        })
                        .collect(),
                });
            }
            return;
        }
        let ai = order[k];
        let atom = &cr.atoms[ai];
        let rel = db.relation(atom.rel);
        for row in 0..rel.num_rows() as u32 {
            let tid = TupleId::new(atom.rel, row);
            if !admitted_ref(state, mode, atom.is_delta, tid) {
                continue;
            }
            let tuple = rel.tuple(row);
            let mut bound_here: Vec<u32> = Vec::new();
            let mut ok = true;
            for (col, slot) in atom.slots.iter().enumerate() {
                let val = &tuple[col];
                match slot {
                    Slot::Const(c) => {
                        if c != val {
                            ok = false;
                            break;
                        }
                    }
                    Slot::Var(x) => match env.get(x) {
                        Some(b) => {
                            if b != val {
                                ok = false;
                                break;
                            }
                        }
                        None => {
                            env.insert(*x, *val);
                            bound_here.push(*x);
                        }
                    },
                }
            }
            if ok {
                chosen[ai] = Some(tid);
                rec(
                    db,
                    state,
                    mode,
                    rule_idx,
                    cr,
                    order,
                    k + 1,
                    env,
                    chosen,
                    out,
                );
                chosen[ai] = None;
            }
            for x in bound_here {
                env.remove(&x);
            }
        }
    }

    // Every mode runs the rule's general plan, as the engine does.
    let order = &cr.general.order;
    let mut env: HashMap<u32, Value> = HashMap::new();
    let mut chosen: Vec<Option<TupleId>> = vec![None; cr.atoms.len()];
    rec(
        db,
        state,
        mode,
        rule_idx,
        cr,
        order,
        0,
        &mut env,
        &mut chosen,
        out,
    );
}

/// The reference walks the *evaluator's* compiled rules, so it follows
/// whatever join order the planning strategy chose (static textual or
/// cost-based) — by design the two sides share the order and differ only
/// in access paths.
fn reference_assignments(
    db: &Instance,
    state: &State,
    mode: Mode,
    ev: &Evaluator,
) -> Vec<Assignment> {
    let mut out = Vec::new();
    for ri in 0..ev.num_rules() {
        reference_rule(db, state, mode, ri, ev.compiled_rule(ri), &mut out);
    }
    out
}

fn engine_assignments(ev: &Evaluator, db: &Instance, state: &State, mode: Mode) -> Vec<Assignment> {
    let mut out = Vec::new();
    ev.for_each_assignment(db, state, mode, &mut |a| {
        out.push(a.clone());
        true
    });
    out
}

fn frontier_round(
    ev: &Evaluator,
    db: &Instance,
    state: &State,
    mode: Mode,
    frontier: &DeltaFrontier,
) -> Vec<Assignment> {
    let mut out = Vec::new();
    let round = Round::Frontier(frontier);
    ev.enumerate(db, state, mode, round, &mut EvalScratch::new(), &mut |a| {
        out.push(a.clone());
        true
    });
    out
}

fn seeded_round(
    ev: &Evaluator,
    db: &Instance,
    state: &State,
    mode: Mode,
    seed: &DeltaFrontier,
) -> Vec<Assignment> {
    let mut out = Vec::new();
    let round = Round::Seeded(seed);
    ev.enumerate(db, state, mode, round, &mut EvalScratch::new(), &mut |a| {
        out.push(a.clone());
        true
    });
    out
}

/// The tuples of `pool` whose draw in `bits` is set.
fn tuple_set(db: &Instance, pool: impl Iterator<Item = TupleId>, bits: &[bool]) -> DeltaFrontier {
    let mut set = DeltaFrontier::empty(db);
    for (tid, &keep) in pool.zip(bits) {
        if keep {
            set.insert(tid);
        }
    }
    set
}

/// Assignments as a sorted multiset of `(rule, body tuples)`; the head and
/// the delta flags follow from those two.
fn multiset(v: &[Assignment]) -> Vec<(usize, Vec<TupleId>)> {
    let mut keys: Vec<(usize, Vec<TupleId>)> = v
        .iter()
        .map(|a| (a.rule, a.body.iter().map(|b| b.tid).collect()))
        .collect();
    keys.sort();
    keys
}

// ---------------------------------------------------------------------------
// Properties.
// ---------------------------------------------------------------------------

static TOTAL_ASSIGNMENTS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
static CASES_RUN: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
/// Frontier-round and seeded-round assignments seen by the pivoted-round
/// property, in that order.
static PIVOTED_ASSIGNMENTS: [std::sync::atomic::AtomicUsize; 2] = [
    std::sync::atomic::AtomicUsize::new(0),
    std::sync::atomic::AtomicUsize::new(0),
];
static PIVOTED_CASES_RUN: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    /// The planned, indexed, scratch-reusing evaluator and the naive
    /// full-scan reference produce identical assignment streams — order
    /// included — under every mode and random states.
    #[test]
    fn planned_evaluator_matches_naive_reference(
        program in arb_program(),
        tuples in arb_tuples(),
        state_ops in prop::collection::vec(0u64..4, 0..26),
    ) {
        let mut db = build_instance(&tuples);
        let ev = match Evaluator::new(&mut db, program.clone()) {
            Ok(ev) => ev,
            // Generated rules are valid by construction; a rejection here
            // would itself be a bug worth seeing.
            Err(e) => panic!("generated program rejected: {e}"),
        };
        // A second evaluator pinned to the static textual planner: the two
        // strategies order joins differently but must enumerate the same
        // assignment *set* for every rule under every mode.
        let ev_static = Evaluator::new_static(&mut db, program)
            .expect("valid by construction");
        let state = build_state(&db, &state_ops);
        for mode in [Mode::Current, Mode::FrozenBase, Mode::Hypothetical] {
            let fast = engine_assignments(&ev, &db, &state, mode);
            let slow = reference_assignments(&db, &state, mode, &ev);
            TOTAL_ASSIGNMENTS.fetch_add(fast.len(), std::sync::atomic::Ordering::Relaxed);
            prop_assert_eq!(
                &fast, &slow,
                "assignment streams diverge under {:?}", mode
            );
            let static_ref = reference_assignments(&db, &state, mode, &ev_static);
            prop_assert_eq!(
                engine_assignments(&ev_static, &db, &state, mode),
                static_ref.clone(),
                "static-plan streams diverge under {:?}", mode
            );
            let sorted_set = |v: &[Assignment]| {
                let mut keys: Vec<(usize, Vec<TupleId>)> = v
                    .iter()
                    .map(|a| (a.rule, a.body.iter().map(|b| b.tid).collect()))
                    .collect();
                keys.sort();
                keys
            };
            prop_assert_eq!(
                sorted_set(&fast),
                sorted_set(&static_ref),
                "cost-based and static plans enumerate different sets under {:?}", mode
            );
        }
        // Guard against a vacuous generator: across the whole run plenty of
        // cases must produce real assignments (checked after many cases so
        // early sparse draws don't trip it).
        let cases = CASES_RUN.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
        if cases == 100 {
            let total = TOTAL_ASSIGNMENTS.load(std::sync::atomic::Ordering::Relaxed);
            prop_assert!(
                total > 500,
                "differential suite is near-vacuous: {total} assignments in {cases} cases"
            );
        }
    }

    /// One shared scratch across repeated runs never leaks state between
    /// enumerations: re-running yields the identical stream.
    #[test]
    fn scratch_reuse_is_stateless(
        program in arb_program(),
        tuples in arb_tuples(),
    ) {
        let mut db = build_instance(&tuples);
        let ev = Evaluator::new(&mut db, program).expect("valid by construction");
        let state = db.initial_state();
        let mut scratch = EvalScratch::new();
        let mut runs: Vec<Vec<Assignment>> = Vec::new();
        for _ in 0..2 {
            for mode in [Mode::Hypothetical, Mode::Current] {
                let mut got = Vec::new();
                ev.enumerate(&db, &state, mode, Round::Full, &mut scratch, &mut |a| {
                    got.push(a.clone());
                    true
                });
                runs.push(got);
            }
        }
        prop_assert_eq!(&runs[0], &runs[2]);
        prop_assert_eq!(&runs[1], &runs[3]);
    }
}

proptest! {
    // Frontier rounds need delta atoms, a populated Δ and a frontier inside
    // it to fire, so this property draws a full-length state and runs more
    // cases than the stream differential.
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Pivoted rounds against their definitions, in every mode, with the
    /// naive reference's general stream as the ground truth. A random
    /// frontier `F ⊆ Δ`: the frontier round is the multiset of general
    /// assignments binding an `F` tuple at some delta position, each once.
    /// A random seed `S` of live tuples: the seeded round is the multiset
    /// of general assignments binding an `S` tuple at any position, each
    /// once.
    #[test]
    fn pivoted_rounds_match_their_definitions(
        program in arb_program(),
        tuples in arb_tuples(),
        state_ops in prop::collection::vec(0u64..4, 26),
        frontier_bits in prop::collection::vec(any::<bool>(), 26),
        seed_bits in prop::collection::vec(any::<bool>(), 26),
    ) {
        let mut db = build_instance(&tuples);
        let ev = Evaluator::new(&mut db, program).expect("valid by construction");
        let state = build_state(&db, &state_ops);
        let deltas = db.all_tuple_ids().filter(|&t| state.in_delta(t));
        let frontier = tuple_set(&db, deltas, &frontier_bits);
        let seed = tuple_set(&db, db.all_tuple_ids(), &seed_bits);
        for mode in [Mode::Current, Mode::FrozenBase, Mode::Hypothetical] {
            let general = reference_assignments(&db, &state, mode, &ev);
            let binding = |keep: &dyn Fn(&BodyBind) -> bool| -> Vec<Assignment> {
                general
                    .iter()
                    .filter(|a| a.body.iter().any(keep))
                    .cloned()
                    .collect()
            };
            let got = frontier_round(&ev, &db, &state, mode, &frontier);
            PIVOTED_ASSIGNMENTS[0].fetch_add(got.len(), std::sync::atomic::Ordering::Relaxed);
            prop_assert_eq!(
                multiset(&got),
                multiset(&binding(&|b| b.is_delta && frontier.contains(b.tid))),
                "frontier round under {:?}", mode
            );
            let got = seeded_round(&ev, &db, &state, mode, &seed);
            PIVOTED_ASSIGNMENTS[1].fetch_add(got.len(), std::sync::atomic::Ordering::Relaxed);
            prop_assert_eq!(
                multiset(&got),
                multiset(&binding(&|b| seed.contains(b.tid))),
                "seeded round under {:?}", mode
            );
        }
        let cases = PIVOTED_CASES_RUN.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
        if cases == 400 {
            let [frontier, seeded] =
                PIVOTED_ASSIGNMENTS.each_ref().map(|n| n.load(std::sync::atomic::Ordering::Relaxed));
            prop_assert!(
                frontier > 200 && seeded > 800,
                "pivoted-round property is near-vacuous: {frontier} frontier and {seeded} \
                 seeded assignments in {cases} cases"
            );
        }
    }
}
