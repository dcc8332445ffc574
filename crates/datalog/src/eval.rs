//! Assignment enumeration over instance + state.
//!
//! An *assignment* (Section 2 of the paper) maps every body atom of a rule to
//! a tuple of the database, consistently on variables and constants, with all
//! comparisons satisfied. All four repair semantics, both repair algorithms
//! and the stability check reduce to enumerating assignments under one of
//! three views:
//!
//! * [`Mode::Current`] — base atoms range over tuples *present* in `R_i`,
//!   delta atoms over the current `Δ_i` (stage/step evaluation, stability).
//! * [`Mode::FrozenBase`] — base atoms range over the *original* `R_i`
//!   regardless of deletions, delta atoms over the current `Δ_i` (end
//!   semantics, Def. 3.10, where `R_i^t ← R_i^0` during evaluation).
//! * [`Mode::Hypothetical`] — base *and* delta atoms range over all of `D`
//!   (Algorithm 1 generates provenance "for each possible delta tuple, not
//!   only ones that can be derived").
//!
//! Which assignments a call produces is its [`Round`]: all of them, those
//! of the delta-free rules, or those binding a distinguished tuple set
//! (semi-naive and change-seeded rounds). [`Evaluator::enumerate`] runs
//! any round under any view; it is the one enumeration entry point.
//!
//! The join core executes the probe plans precompiled by
//! [`crate::compile`]: each step of a plan knows statically which columns
//! are bound (and probes a composite index keyed on *all* of them), which
//! columns bind fresh variables, and which comparisons become checkable.
//! The inner loop performs **no heap allocation per visited row or emitted
//! assignment** — variable bindings, chosen tuples, probe keys and the
//! emission buffer live in an [`EvalScratch`] reused across rounds.

use crate::ast::Program;
use crate::compile::{compile_rule, CompiledAtom, CompiledRule, Plan, Slot};
use crate::error::DatalogError;
use crate::validate::validate_program;
use storage::{BitSet, Instance, RelId, State, TupleId, Value};

/// Which tuples the body atoms may bind to. See module docs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// Live view: present base tuples, current deltas.
    Current,
    /// End-semantics view: original base tuples, current deltas.
    FrozenBase,
    /// Algorithm-1 view: every tuple is both present and hypothetically
    /// deleted.
    Hypothetical,
}

/// The set of delta tuples derived in the previous round, used to drive
/// semi-naive evaluation of end semantics.
#[derive(Clone, Debug)]
pub struct DeltaFrontier {
    sets: Vec<BitSet>,
}

impl DeltaFrontier {
    /// Empty frontier shaped like `db`.
    pub fn empty(db: &Instance) -> DeltaFrontier {
        DeltaFrontier {
            sets: db
                .schema()
                .iter()
                .map(|(rid, _)| BitSet::zeros(db.rows(rid)))
                .collect(),
        }
    }

    /// Add a tuple to the frontier.
    pub fn insert(&mut self, tid: TupleId) {
        self.sets[tid.rel.idx()].set(tid.row_idx());
    }

    /// Remove a tuple from the frontier.
    pub fn remove(&mut self, tid: TupleId) {
        self.sets[tid.rel.idx()].clear(tid.row_idx());
    }

    /// Frontier membership.
    #[inline]
    pub fn contains(&self, tid: TupleId) -> bool {
        self.sets[tid.rel.idx()].get(tid.row_idx())
    }

    /// True when no tuple is in the frontier.
    pub fn is_empty(&self) -> bool {
        self.sets.iter().all(BitSet::none)
    }

    /// Iterate frontier tuples of one relation.
    pub fn rows(&self, rel: RelId) -> impl Iterator<Item = TupleId> + '_ {
        self.sets[rel.idx()]
            .iter_ones()
            .map(move |row| TupleId::new(rel, row as u32))
    }

    /// Does the frontier contain any tuple of `rel`? Lets pivoted rounds
    /// skip pivot positions whose relation saw no change.
    pub fn touches(&self, rel: RelId) -> bool {
        !self.sets[rel.idx()].none()
    }
}

/// Which assignments one enumeration produces. Every caller — the four
/// semantics, Algorithm 1 and its lazy loop, stability, incremental
/// maintenance and the trigger engine — picks one of these and runs it
/// through [`Evaluator::enumerate`] or [`Evaluator::enumerate_rule`].
#[derive(Clone, Copy, Debug)]
pub enum Round<'f> {
    /// Every assignment of every rule, on the rule's general plan.
    Full,
    /// Every assignment of the rules **without** delta atoms in the body:
    /// round 1 of semi-naive evaluation and of the lazy Independent loop.
    Base,
    /// Semi-naive round: every assignment that binds at least one tuple of
    /// the frontier (the previous round's new deltas) at a *delta*
    /// position. `state`'s delta sets must already include the frontier.
    /// Runs the pivoted plans, one per delta position whose relation the
    /// frontier touches; earlier delta positions exclude the frontier, the
    /// pivot ranges over it, later ones are unrestricted, and base atoms
    /// are not partitioned — under [`Mode::FrozenBase`] they range over the
    /// *original* relation and so do bind frontier tuples. Each assignment
    /// is thus produced exactly once across all rounds, in every [`Mode`].
    Frontier(&'f DeltaFrontier),
    /// Change-seeded round: every assignment that binds at least one seed
    /// tuple at **any** body position, base and delta atoms alike, each
    /// exactly once (partitioned as in [`Round::Frontier`], over every
    /// position). After a mutation batch inserts tuples, the newly
    /// satisfiable assignments are exactly those touching an inserted
    /// tuple, and this round finds them in time proportional to the seed's
    /// join cone instead of the whole database.
    Seeded(&'f DeltaFrontier),
}

impl<'f> Round<'f> {
    /// The distinguished set of a pivoted round, and whether only delta
    /// atoms are partitioned by it.
    #[inline]
    fn pivot(self) -> Option<(&'f DeltaFrontier, bool)> {
        match self {
            Round::Full | Round::Base => None,
            Round::Frontier(set) => Some((set, true)),
            Round::Seeded(set) => Some((set, false)),
        }
    }
}

/// Does a pivoted round with `delta_only` partition `atom`?
#[inline]
fn partitions(delta_only: bool, atom: &CompiledAtom) -> bool {
    atom.is_delta || !delta_only
}

/// The pivots a round over `set` visits, in ascending body position: every
/// partitioned position whose relation `set` touches. Any other pivot
/// would iterate nothing, so skipping it keeps a small set's round
/// proportional to the set, not to the rule width.
fn pivots<'a>(
    cr: &'a CompiledRule,
    set: &'a DeltaFrontier,
    delta_only: bool,
) -> impl Iterator<Item = usize> + 'a {
    cr.atoms
        .iter()
        .enumerate()
        .filter(move |(_, a)| partitions(delta_only, a) && set.touches(a.rel))
        .map(|(p, _)| p)
}

/// One body-atom binding of an assignment.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct BodyBind {
    /// The tuple the atom was mapped to.
    pub tid: TupleId,
    /// Was the atom a delta atom (so `tid` refers to `Δ(t)` rather than `t`)?
    pub is_delta: bool,
}

/// A satisfying assignment `α : body(r) → D` for rule `rule` (index into the
/// program), together with the derived head tuple `α(head(r))`.
///
/// Because of the head-witness requirement (Def. 3.1), the head tuple always
/// equals the binding of the witness atom, so `head` is a [`TupleId`] of an
/// existing tuple — never a fresh tuple.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Assignment {
    /// Rule index within the program.
    pub rule: usize,
    /// The derived delta tuple (`Δ(head)`).
    pub head: TupleId,
    /// Body bindings in source order.
    pub body: Vec<BodyBind>,
}

const DUMMY_TID: TupleId = TupleId {
    rel: RelId(0),
    row: 0,
};

/// Reusable buffers for the join core: variable bindings, per-atom chosen
/// tuples, the probe-key stack and the emission buffer. One scratch serves
/// any number of rules and rounds; the fixpoint driver allocates it once
/// per run and the enumeration allocates nothing per row or assignment.
#[derive(Debug)]
pub struct EvalScratch {
    /// Value of each rule-local variable. Statically bound-before-use, so
    /// no `Option` and no undo trail is needed.
    bind: Vec<Value>,
    /// Tuple chosen for each body atom (source order).
    chosen: Vec<TupleId>,
    /// Probe keys, stack-disciplined across recursion depths.
    key: Vec<Value>,
    /// The assignment handed to callbacks; its body vector is reused.
    asg: Assignment,
}

impl Default for EvalScratch {
    fn default() -> EvalScratch {
        EvalScratch::new()
    }
}

impl EvalScratch {
    /// Fresh scratch; buffers grow on first use and are then reused.
    pub fn new() -> EvalScratch {
        EvalScratch {
            bind: Vec::new(),
            chosen: Vec::new(),
            key: Vec::new(),
            asg: Assignment {
                rule: 0,
                head: DUMMY_TID,
                body: Vec::new(),
            },
        }
    }
}

/// A validated and compiled delta program whose probe plans have **not**
/// yet been bound to concrete indexes — the output of the planning phase.
///
/// [`Evaluator::new`] fuses the two phases; callers that own the instance
/// long-term (a repair session) plan first against the schema alone, then
/// decide when to pay for index construction:
///
/// ```
/// # use datalog::{parse_program, PlannedProgram};
/// # use storage::{AttrType, Instance, Schema, Value};
/// # let mut s = Schema::new();
/// # s.relation("R", &[("x", AttrType::Int)]);
/// # let mut db = Instance::new(s);
/// # db.insert_values("R", [Value::Int(1)]).unwrap();
/// let program = parse_program("delta R(x) :- R(x), x = 1.").unwrap();
/// let planned = PlannedProgram::plan(db.schema(), program)?; // no db access
/// let ev = planned.into_evaluator(&mut db); // builds the probe indexes
/// # assert_eq!(ev.num_rules(), 1);
/// # Ok::<(), datalog::DatalogError>(())
/// ```
pub struct PlannedProgram {
    program: Program,
    compiled: Vec<CompiledRule>,
}

impl PlannedProgram {
    /// Validate `program` against `schema` and compile join plans. Pure
    /// with respect to the data: only the schema is consulted.
    pub fn plan(
        schema: &storage::Schema,
        program: Program,
    ) -> Result<PlannedProgram, DatalogError> {
        validate_program(schema, &program)?;
        let compiled: Vec<CompiledRule> = program
            .rules
            .iter()
            .map(|r| compile_rule(schema, r))
            .collect();
        Ok(PlannedProgram { program, compiled })
    }

    /// The planned program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Number of rules.
    pub fn num_rules(&self) -> usize {
        self.compiled.len()
    }

    /// Bind every probing plan step to a concrete composite index on `db`,
    /// building missing indexes now. Uses the default
    /// [`PlanStrategy::CostBased`]: join orders are re-derived from the
    /// instance's live column statistics before index resolution.
    pub fn into_evaluator(self, db: &mut Instance) -> Evaluator {
        self.into_evaluator_with(db, PlanStrategy::CostBased)
    }

    /// [`PlannedProgram::into_evaluator`] with an explicit planning
    /// strategy. This is the only part of evaluator construction that
    /// touches the instance: under [`PlanStrategy::CostBased`] every plan's
    /// atom order is recomputed from live statistics (pivots stay pinned
    /// first), then every probing step is bound to a concrete composite
    /// index, built now if missing. Subsequent
    /// inserts and deletes maintain both the indexes and the statistics
    /// incrementally; re-planning is only worthwhile when cardinalities
    /// drift far from their plan-time snapshot (see
    /// [`Evaluator::plan_drift`]).
    pub fn into_evaluator_with(mut self, db: &mut Instance, strategy: PlanStrategy) -> Evaluator {
        fn resolve(db: &mut Instance, atoms: &[CompiledAtom], plan: &mut Plan) {
            for k in 0..plan.order.len() {
                let rel = atoms[plan.order[k]].rel;
                let spec = &mut plan.probes[k];
                if spec.is_probe() {
                    spec.index = db.ensure_composite_index(rel, &spec.key_cols);
                }
            }
        }
        if strategy == PlanStrategy::CostBased {
            for cr in &mut self.compiled {
                if !cr.never_fires {
                    crate::cost::reorder_rule(db, cr);
                }
            }
        }
        let planned_live: Vec<usize> = (0..db.schema().len())
            .map(|i| db.live_rows(storage::RelId(i as u16)))
            .collect();
        for cr in &mut self.compiled {
            let CompiledRule {
                atoms,
                general,
                pivoted,
                ..
            } = cr;
            resolve(db, atoms, general);
            for plan in pivoted {
                resolve(db, atoms, plan);
            }
        }
        Evaluator {
            program: self.program,
            compiled: self.compiled,
            planned_live,
        }
    }
}

/// How [`PlannedProgram::into_evaluator_with`] picks join orders.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PlanStrategy {
    /// The textual greedy order of [`crate::compile`]: constants and bound
    /// variables score alike regardless of selectivity. Kept as the
    /// baseline for benchmarks and plan-parity tests.
    Static,
    /// Orders re-derived from live per-column statistics at evaluator
    /// construction time (see [`crate::cost`]).
    #[default]
    CostBased,
}

/// A validated, compiled, index-prepared delta program ready for repeated
/// evaluation.
pub struct Evaluator {
    program: Program,
    compiled: Vec<CompiledRule>,
    /// Per-relation live cardinality at plan time — the fingerprint
    /// [`Evaluator::plan_drift`] compares against to decide whether the
    /// cost-based orders are stale.
    planned_live: Vec<usize>,
}

impl Evaluator {
    /// Validate `program` against the schema of `db`, compile join plans and
    /// build every composite hash index the plans will probe — the fused
    /// [`PlannedProgram::plan`] + [`PlannedProgram::into_evaluator`].
    pub fn new(db: &mut Instance, program: Program) -> Result<Evaluator, DatalogError> {
        Ok(PlannedProgram::plan(db.schema(), program)?.into_evaluator(db))
    }

    /// [`Evaluator::new`] pinned to the static textual planner.
    pub fn new_static(db: &mut Instance, program: Program) -> Result<Evaluator, DatalogError> {
        Ok(PlannedProgram::plan(db.schema(), program)?
            .into_evaluator_with(db, PlanStrategy::Static))
    }

    /// Largest per-relation drift ratio between the live cardinalities at
    /// plan time and now. A relation that grew from `a` to `b` live rows
    /// contributes `max(a+1, b+1) / min(a+1, b+1)` (add-one smoothed so
    /// empty↔non-empty transitions register). `1.0` means no drift;
    /// sessions re-plan when this crosses their threshold.
    pub fn plan_drift(&self, db: &Instance) -> f64 {
        self.planned_live
            .iter()
            .enumerate()
            .map(|(i, &then)| {
                let now = db.live_rows(storage::RelId(i as u16));
                let (lo, hi) = if then <= now {
                    (then, now)
                } else {
                    (now, then)
                };
                (hi + 1) as f64 / (lo + 1) as f64
            })
            .fold(1.0, f64::max)
    }

    /// The compiled form of rule `idx` — the chosen plans, estimates'
    /// inputs and probe specs. Read-only; used by `explain` and the lints.
    pub fn compiled_rule(&self, idx: usize) -> &CompiledRule {
        &self.compiled[idx]
    }

    /// The program being evaluated.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Number of rules.
    pub fn num_rules(&self) -> usize {
        self.compiled.len()
    }

    /// Enumerate every assignment of every rule under `mode`. The callback
    /// returns `true` to continue; the function returns `false` iff the
    /// callback aborted. Shorthand for a [`Round::Full`]
    /// [`Evaluator::enumerate`] with fresh scratch.
    pub fn for_each_assignment(
        &self,
        db: &Instance,
        state: &State,
        mode: Mode,
        f: &mut dyn FnMut(&Assignment) -> bool,
    ) -> bool {
        self.enumerate(db, state, mode, Round::Full, &mut EvalScratch::new(), f)
    }

    /// Enumerate one [`Round`] of every rule under `mode`, rule by rule, in
    /// deterministic order. The callback returns `true` to continue; the
    /// function returns `false` iff the callback aborted.
    pub fn enumerate(
        &self,
        db: &Instance,
        state: &State,
        mode: Mode,
        round: Round<'_>,
        scratch: &mut EvalScratch,
        f: &mut dyn FnMut(&Assignment) -> bool,
    ) -> bool {
        (0..self.compiled.len())
            .all(|idx| self.enumerate_rule(idx, db, state, mode, round, scratch, f))
    }

    /// [`Evaluator::enumerate`] restricted to rule `rule_idx`. The trigger
    /// engine uses it, where one trigger reacts to one rule.
    #[allow(clippy::too_many_arguments)]
    pub fn enumerate_rule(
        &self,
        rule_idx: usize,
        db: &Instance,
        state: &State,
        mode: Mode,
        round: Round<'_>,
        scratch: &mut EvalScratch,
        f: &mut dyn FnMut(&Assignment) -> bool,
    ) -> bool {
        let cr = &self.compiled[rule_idx];
        if cr.never_fires {
            return true;
        }
        match round.pivot() {
            Some((set, delta_only)) => pivots(cr, set, delta_only).all(|p| {
                let plan = &cr.pivoted[p];
                run_plan(db, state, mode, rule_idx, cr, plan, round, scratch, f)
            }),
            None if matches!(round, Round::Base) && !cr.delta_positions.is_empty() => true,
            None => {
                let plan = &cr.general;
                run_plan(db, state, mode, rule_idx, cr, plan, round, scratch, f)
            }
        }
    }

    /// Does the rule's body contain a delta atom over `rel`? (Trigger
    /// registration: the rule reacts to deletions from that relation.)
    pub fn rule_listens_to(&self, rule_idx: usize, rel: storage::RelId) -> bool {
        let cr = &self.compiled[rule_idx];
        cr.delta_positions.iter().any(|&p| cr.atoms[p].rel == rel)
    }

    /// Does the rule's body contain any delta atom?
    pub fn rule_has_delta_body(&self, rule_idx: usize) -> bool {
        !self.compiled[rule_idx].delta_positions.is_empty()
    }

    /// Find one satisfying assignment in the live view, if any — i.e. decide
    /// whether the database is *unstable* (Def. 3.12) and produce a witness.
    pub fn find_violation(&self, db: &Instance, state: &State) -> Option<Assignment> {
        let mut found = None;
        self.for_each_assignment(db, state, Mode::Current, &mut |a| {
            found = Some(a.clone());
            false
        });
        found
    }

    /// Is `(R, Δ)` stable w.r.t. the program (Def. 3.12)?
    pub fn is_stable(&self, db: &Instance, state: &State) -> bool {
        self.find_violation(db, state).is_none()
    }
}

/// May body atom `ai` of a plan pivoted at `pivot` bind `tid`? The pivoted
/// round's partition first (see [`Round::Frontier`]), then the ordinary
/// view admission of `mode`.
#[inline]
fn admitted(
    state: &State,
    mode: Mode,
    round: Round<'_>,
    atom: &CompiledAtom,
    ai: usize,
    pivot: usize,
    tid: TupleId,
) -> bool {
    if let Some((set, delta_only)) = round.pivot() {
        if partitions(delta_only, atom) {
            let ok = match ai.cmp(&pivot) {
                std::cmp::Ordering::Less => !set.contains(tid),
                std::cmp::Ordering::Equal => set.contains(tid),
                std::cmp::Ordering::Greater => true,
            };
            if !ok {
                return false;
            }
        }
    }
    if atom.is_delta {
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

/// Depth-first join over `plan.order`. Returns `false` iff the callback
/// aborted the enumeration.
#[allow(clippy::too_many_arguments)]
fn run_plan(
    db: &Instance,
    state: &State,
    mode: Mode,
    rule_idx: usize,
    cr: &CompiledRule,
    plan: &Plan,
    round: Round<'_>,
    scratch: &mut EvalScratch,
    f: &mut dyn FnMut(&Assignment) -> bool,
) -> bool {
    scratch.bind.clear();
    scratch.bind.resize(cr.n_vars, Value::Int(0));
    scratch.chosen.clear();
    scratch.chosen.resize(cr.atoms.len(), DUMMY_TID);
    scratch.key.clear();
    step(db, state, mode, rule_idx, cr, plan, round, 0, scratch, f)
}

/// Match `row` against step `k`'s precompiled spec and recurse on success.
/// Returns `false` iff the callback aborted. `check_key` is `false` on the
/// index-probe path (the index guarantees the key columns match) and `true`
/// on the scan/delta paths, where the key becomes a per-row filter.
#[allow(clippy::too_many_arguments)]
#[inline]
fn try_row(
    db: &Instance,
    state: &State,
    mode: Mode,
    rule_idx: usize,
    cr: &CompiledRule,
    plan: &Plan,
    round: Round<'_>,
    k: usize,
    row: u32,
    key_start: usize,
    check_key: bool,
    scratch: &mut EvalScratch,
    f: &mut dyn FnMut(&Assignment) -> bool,
) -> bool {
    let ai = plan.order[k];
    let atom = &cr.atoms[ai];
    let tid = TupleId::new(atom.rel, row);
    if !admitted(state, mode, round, atom, ai, plan.order[0], tid) {
        return true;
    }
    let tuple = db.relation(atom.rel).tuple(row);
    let spec = &plan.probes[k];
    if check_key {
        for (i, &col) in spec.key_cols.iter().enumerate() {
            if tuple[col] != scratch.key[key_start + i] {
                return true;
            }
        }
    }
    for &(col, earlier) in &spec.same_cols {
        if tuple[col] != tuple[earlier] {
            return true;
        }
    }
    // Fresh variables: statically bound-before-use, so failed candidates
    // need no undo — the next row simply overwrites.
    for &(col, var) in &spec.bind_cols {
        scratch.bind[var as usize] = tuple[col];
    }
    // Comparisons that became checkable at this step.
    for &ci in &plan.cmps_after[k] {
        let c = &cr.cmps[ci];
        let get = |s: &Slot| -> Value {
            match s {
                Slot::Const(v) => *v,
                Slot::Var(x) => scratch.bind[*x as usize],
            }
        };
        if !c.op.eval(&get(&c.lhs), &get(&c.rhs)) {
            return true;
        }
    }
    scratch.chosen[ai] = tid;
    step(
        db,
        state,
        mode,
        rule_idx,
        cr,
        plan,
        round,
        k + 1,
        scratch,
        f,
    )
}

/// One step of the depth-first join: execute the precompiled probe for
/// `plan.order[k]` and recurse. Returns `false` iff the callback aborted.
#[allow(clippy::too_many_arguments)]
fn step(
    db: &Instance,
    state: &State,
    mode: Mode,
    rule_idx: usize,
    cr: &CompiledRule,
    plan: &Plan,
    round: Round<'_>,
    k: usize,
    scratch: &mut EvalScratch,
    f: &mut dyn FnMut(&Assignment) -> bool,
) -> bool {
    if k == plan.order.len() {
        // Emit through the reusable buffer: no allocation once the body
        // vector has grown to the program's widest rule.
        scratch.asg.rule = rule_idx;
        scratch.asg.head = scratch.chosen[cr.head_witness];
        scratch.asg.body.clear();
        for (i, a) in cr.atoms.iter().enumerate() {
            scratch.asg.body.push(BodyBind {
                tid: scratch.chosen[i],
                is_delta: a.is_delta,
            });
        }
        return f(&scratch.asg);
    }
    let atom = &cr.atoms[plan.order[k]];
    let spec = &plan.probes[k];
    let rel = db.relation(atom.rel);

    // Evaluate this step's probe key once; every slot is a constant or an
    // already-bound variable by construction.
    let key_start = scratch.key.len();
    for s in &spec.key_slots {
        let v = match s {
            Slot::Const(v) => *v,
            Slot::Var(x) => scratch.bind[*x as usize],
        };
        scratch.key.push(v);
    }

    macro_rules! visit {
        ($row:expr, $check_key:expr) => {
            if !try_row(
                db, state, mode, rule_idx, cr, plan, round, k, $row, key_start, $check_key,
                scratch, f,
            ) {
                scratch.key.truncate(key_start);
                return false;
            }
        };
    }

    if let (Some((set, _)), 0) = (round.pivot(), k) {
        // The pivot generates from the (small) distinguished set directly,
        // whatever the atom's flavor; the key becomes a per-row filter and
        // `admitted` supplies the view membership.
        for tid in set.rows(atom.rel) {
            visit!(tid.row, true);
        }
    } else if atom.is_delta && mode != Mode::Hypothetical {
        // Delta sets are usually small: iterate them directly, using the
        // key as a per-row filter.
        for tid in state.delta_rows(atom.rel) {
            visit!(tid.row, true);
        }
    } else if spec.is_probe() {
        // Composite-index probe on every bound column: candidates already
        // match the key, no residual filtering.
        for &row in rel.probe(spec.index, &scratch.key[key_start..]) {
            visit!(row, false);
        }
    } else if mode == Mode::Current && !atom.is_delta {
        for tid in state.present_rows(atom.rel) {
            visit!(tid.row, false);
        }
    } else {
        // Frozen-base / hypothetical full scan: every *live* row of the
        // instance. Tombstoned rows left the relation durably and must not
        // resurface in any view.
        for row in rel.live_rows() {
            visit!(row, false);
        }
    }
    scratch.key.truncate(key_start);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use storage::{AttrType, Schema};

    /// Figure 1 of the paper: the academic database instance.
    pub fn figure1_instance() -> Instance {
        let mut s = Schema::new();
        s.relation("Grant", &[("gid", AttrType::Int), ("name", AttrType::Str)]);
        s.relation(
            "AuthGrant",
            &[("aid", AttrType::Int), ("gid", AttrType::Int)],
        );
        s.relation("Author", &[("aid", AttrType::Int), ("name", AttrType::Str)]);
        s.relation(
            "Cite",
            &[("citing", AttrType::Int), ("cited", AttrType::Int)],
        );
        s.relation("Writes", &[("aid", AttrType::Int), ("pid", AttrType::Int)]);
        s.relation("Pub", &[("pid", AttrType::Int), ("title", AttrType::Str)]);
        let mut db = Instance::new(s);
        db.insert_values("Grant", [Value::Int(1), Value::str("NSF")])
            .unwrap(); // g1
        db.insert_values("Grant", [Value::Int(2), Value::str("ERC")])
            .unwrap(); // g2
        db.insert_values("AuthGrant", [Value::Int(2), Value::Int(1)])
            .unwrap(); // ag1
        db.insert_values("AuthGrant", [Value::Int(4), Value::Int(2)])
            .unwrap(); // ag2
        db.insert_values("AuthGrant", [Value::Int(5), Value::Int(2)])
            .unwrap(); // ag3
        db.insert_values("Author", [Value::Int(2), Value::str("Maggie")])
            .unwrap(); // a1
        db.insert_values("Author", [Value::Int(4), Value::str("Marge")])
            .unwrap(); // a2
        db.insert_values("Author", [Value::Int(5), Value::str("Homer")])
            .unwrap(); // a3
        db.insert_values("Cite", [Value::Int(7), Value::Int(6)])
            .unwrap(); // c
        db.insert_values("Writes", [Value::Int(4), Value::Int(6)])
            .unwrap(); // w1
        db.insert_values("Writes", [Value::Int(5), Value::Int(7)])
            .unwrap(); // w2
        db.insert_values("Pub", [Value::Int(6), Value::str("x")])
            .unwrap(); // p1
        db.insert_values("Pub", [Value::Int(7), Value::str("y")])
            .unwrap(); // p2
        db
    }

    /// Figure 2 of the paper: the delta program.
    pub fn figure2_program() -> Program {
        parse_program(
            r#"
            delta Grant(g, n) :- Grant(g, n), n = 'ERC'.
            delta Author(a, n) :- Author(a, n), AuthGrant(a, g), delta Grant(g, gn).
            delta Pub(p, t) :- Pub(p, t), Writes(a, p), delta Author(a, n).
            delta Writes(a, p) :- Pub(p, t), Writes(a, p), delta Author(a, n).
            delta Cite(c, p) :- Cite(c, p), delta Pub(p, t), Writes(a1, c), Writes(a2, p).
            "#,
        )
        .unwrap()
    }

    /// Every assignment of one `round`, in enumeration order.
    fn collect(
        ev: &Evaluator,
        db: &Instance,
        state: &State,
        mode: Mode,
        round: Round<'_>,
    ) -> Vec<Assignment> {
        let mut out = Vec::new();
        ev.enumerate(db, state, mode, round, &mut EvalScratch::new(), &mut |a| {
            out.push(a.clone());
            true
        });
        out
    }

    fn count_all(ev: &Evaluator, db: &Instance, state: &State, mode: Mode) -> usize {
        let mut n = 0;
        ev.for_each_assignment(db, state, mode, &mut |_| {
            n += 1;
            true
        });
        n
    }

    #[test]
    fn initial_state_only_rule0_fires() {
        let mut db = figure1_instance();
        let ev = Evaluator::new(&mut db, figure2_program()).unwrap();
        let state = db.initial_state();
        assert_eq!(count_all(&ev, &db, &state, Mode::Current), 1);
        let v = ev.find_violation(&db, &state).unwrap();
        assert_eq!(v.rule, 0);
        assert_eq!(db.display_tuple(v.head), "Grant(2, ERC)");
        assert!(!ev.is_stable(&db, &state));
    }

    #[test]
    fn deleting_g2_enables_rule1() {
        let mut db = figure1_instance();
        let ev = Evaluator::new(&mut db, figure2_program()).unwrap();
        let mut state = db.initial_state();
        let grant = db.schema().rel_id("Grant").unwrap();
        state.delete(TupleId::new(grant, 1)); // g2

        // Rule 0 no longer fires (g2 gone from R); rule 1 fires twice.
        let mut per_rule = [0usize; 5];
        ev.for_each_assignment(&db, &state, Mode::Current, &mut |a| {
            per_rule[a.rule] += 1;
            true
        });
        assert_eq!(per_rule, [0, 2, 0, 0, 0]);
    }

    #[test]
    fn hypothetical_mode_counts_all_potential_assignments() {
        // Example 5.1's formula has clauses for: rule0 (1), rule1 (2 with
        // Δ(g2)… but hypothetically also ag1 with g1 → 3), rules 2/3 (2
        // each), rule 4 (1). Hypothetical mode ranges delta atoms over ALL
        // tuples, hence rule1 yields 3 assignments here.
        let mut db = figure1_instance();
        let ev = Evaluator::new(&mut db, figure2_program()).unwrap();
        let state = db.initial_state();
        let mut per_rule = [0usize; 5];
        ev.for_each_assignment(&db, &state, Mode::Hypothetical, &mut |a| {
            per_rule[a.rule] += 1;
            true
        });
        assert_eq!(per_rule, [1, 3, 2, 2, 1]);
    }

    #[test]
    fn frozen_base_keeps_deleted_tuples_visible_to_base_atoms() {
        let mut db = figure1_instance();
        let ev = Evaluator::new(&mut db, figure2_program()).unwrap();
        let mut state = db.initial_state();
        let grant = db.schema().rel_id("Grant").unwrap();
        state.mark_delta(TupleId::new(grant, 1)); // Δ(g2), R unchanged
        let mut per_rule = [0usize; 5];
        ev.for_each_assignment(&db, &state, Mode::FrozenBase, &mut |a| {
            per_rule[a.rule] += 1;
            true
        });
        // Rule 0 still fires (g2 still in R under FrozenBase); rule 1 fires
        // twice via Δ(g2).
        assert_eq!(per_rule, [1, 2, 0, 0, 0]);
    }

    #[test]
    fn frontier_partition_produces_each_assignment_once() {
        let mut db = figure1_instance();
        let ev = Evaluator::new(&mut db, figure2_program()).unwrap();
        let mut state = db.initial_state();
        let grant = db.schema().rel_id("Grant").unwrap();
        let author = db.schema().rel_id("Author").unwrap();
        let g2 = TupleId::new(grant, 1);
        let a2 = TupleId::new(author, 1);
        let a3 = TupleId::new(author, 2);
        // Round 1 already derived Δ(g2); round 2 derives Δ(a2), Δ(a3).
        state.mark_delta(g2);
        state.mark_delta(a2);
        state.mark_delta(a3);
        let mut frontier = DeltaFrontier::empty(&db);
        frontier.insert(a2);
        frontier.insert(a3);
        let seen = collect(
            &ev,
            &db,
            &state,
            Mode::FrozenBase,
            Round::Frontier(&frontier),
        );
        // Rules 2 and 3 each have two assignments through the new deltas;
        // rule 1 has none (its delta atom Δ(Grant) is not in the frontier).
        assert_eq!(seen.len(), 4);
        assert!(seen.iter().all(|a| a.rule == 2 || a.rule == 3));
        let unique: std::collections::HashSet<_> = seen.iter().cloned().collect();
        assert_eq!(unique.len(), 4, "no duplicates");
    }

    #[test]
    fn frontier_partition_holds_in_hypothetical_mode() {
        // Hypothetical mode admits every tuple at a delta atom, but a
        // frontier round must still yield only the assignments binding a
        // frontier tuple at a delta position, each once.
        let mut s = Schema::new();
        s.relation("A", &[("x", AttrType::Int)]);
        s.relation("B", &[("x", AttrType::Int)]);
        let mut db = Instance::new(s);
        let mut b0 = None;
        for i in 0..3 {
            db.insert_values("A", [Value::Int(i)]).unwrap();
            let b = db.insert_values("B", [Value::Int(i)]).unwrap();
            b0.get_or_insert(b);
        }
        let p = parse_program("delta A(x) :- A(x), delta A(x), delta B(x).").unwrap();
        let ev = Evaluator::new(&mut db, p).unwrap();
        let mut state = db.initial_state();
        let b0 = b0.unwrap();
        state.mark_delta(b0);
        let mut frontier = DeltaFrontier::empty(&db);
        frontier.insert(b0);
        let seen = collect(
            &ev,
            &db,
            &state,
            Mode::Hypothetical,
            Round::Frontier(&frontier),
        );
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].body[2].tid, b0);
    }

    #[test]
    fn assignment_body_order_matches_source() {
        let mut db = figure1_instance();
        let ev = Evaluator::new(&mut db, figure2_program()).unwrap();
        let mut state = db.initial_state();
        let grant = db.schema().rel_id("Grant").unwrap();
        state.delete(TupleId::new(grant, 1));
        let mut got = None;
        let (mode, round) = (Mode::Current, Round::Full);
        ev.enumerate_rule(
            1,
            &db,
            &state,
            mode,
            round,
            &mut EvalScratch::new(),
            &mut |a| {
                got = Some(a.clone());
                false
            },
        );
        let a = got.unwrap();
        // Body of rule 1: Author(a, n), AuthGrant(a, g), ΔGrant(g, gn).
        assert_eq!(a.body.len(), 3);
        assert!(!a.body[0].is_delta);
        assert!(!a.body[1].is_delta);
        assert!(a.body[2].is_delta);
        assert_eq!(a.head, a.body[0].tid, "witness is the Author atom");
    }

    #[test]
    fn early_exit_stops_enumeration() {
        let mut db = figure1_instance();
        let ev = Evaluator::new(&mut db, figure2_program()).unwrap();
        let state = db.initial_state();
        let mut calls = 0;
        let complete = ev.for_each_assignment(&db, &state, Mode::Hypothetical, &mut |_| {
            calls += 1;
            false
        });
        assert!(!complete);
        assert_eq!(calls, 1);
    }

    #[test]
    fn repeated_variable_in_atom_requires_equality() {
        let mut s = Schema::new();
        s.relation("E", &[("a", AttrType::Int), ("b", AttrType::Int)]);
        let mut db = Instance::new(s);
        db.insert_values("E", [Value::Int(1), Value::Int(1)])
            .unwrap();
        db.insert_values("E", [Value::Int(1), Value::Int(2)])
            .unwrap();
        let p = parse_program("delta E(x, x) :- E(x, x).").unwrap();
        let ev = Evaluator::new(&mut db, p).unwrap();
        let state = db.initial_state();
        assert_eq!(count_all(&ev, &db, &state, Mode::Current), 1);
    }

    #[test]
    fn constant_in_atom_filters() {
        let mut s = Schema::new();
        s.relation("R", &[("a", AttrType::Int)]);
        let mut db = Instance::new(s);
        for i in 0..10 {
            db.insert_values("R", [Value::Int(i)]).unwrap();
        }
        let p = parse_program("delta R(x) :- R(x), R(3), x < 2.").unwrap();
        let ev = Evaluator::new(&mut db, p).unwrap();
        let state = db.initial_state();
        assert_eq!(count_all(&ev, &db, &state, Mode::Current), 2);
    }

    #[test]
    fn never_firing_rule_is_skipped() {
        let mut db = figure1_instance();
        let p = parse_program("delta Grant(g, n) :- Grant(g, n), 1 = 2.").unwrap();
        let ev = Evaluator::new(&mut db, p).unwrap();
        let state = db.initial_state();
        assert!(ev.is_stable(&db, &state));
    }

    #[test]
    fn shared_scratch_is_reusable_across_rules_and_modes() {
        let mut db = figure1_instance();
        let ev = Evaluator::new(&mut db, figure2_program()).unwrap();
        let state = db.initial_state();
        let mut scratch = EvalScratch::new();
        for mode in [Mode::Current, Mode::FrozenBase, Mode::Hypothetical] {
            let mut with_scratch = 0;
            ev.enumerate(&db, &state, mode, Round::Full, &mut scratch, &mut |_| {
                with_scratch += 1;
                true
            });
            assert_eq!(with_scratch, count_all(&ev, &db, &state, mode));
        }
    }

    #[test]
    fn seeded_enumeration_finds_exactly_the_assignments_touching_the_seed() {
        // Against the running example with the full Δ fixpoint marked, a
        // seed of one base tuple must yield exactly the FrozenBase
        // assignments that bind it — each exactly once — and no others.
        let mut db = figure1_instance();
        let ev = Evaluator::new(&mut db, figure2_program()).unwrap();
        let mut state = db.initial_state();
        let mut all: Vec<Assignment> = Vec::new();
        // Grow Δ to its end-semantics fixpoint by brute force.
        loop {
            let mut new_heads = Vec::new();
            ev.for_each_assignment(&db, &state, Mode::FrozenBase, &mut |a| {
                if !state.in_delta(a.head) {
                    new_heads.push(a.head);
                }
                true
            });
            if new_heads.is_empty() {
                break;
            }
            for t in new_heads {
                state.mark_delta(t);
            }
        }
        ev.for_each_assignment(&db, &state, Mode::FrozenBase, &mut |a| {
            all.push(a.clone());
            true
        });

        for target in db.all_tuple_ids() {
            let mut seed = DeltaFrontier::empty(&db);
            seed.insert(target);
            let seeded = collect(&ev, &db, &state, Mode::FrozenBase, Round::Seeded(&seed));
            let expected: Vec<&Assignment> = all
                .iter()
                .filter(|a| a.body.iter().any(|b| b.tid == target))
                .collect();
            assert_eq!(
                seeded.len(),
                expected.len(),
                "seed {}: wrong count",
                db.display_tuple(target)
            );
            for a in &seeded {
                assert!(expected.iter().any(|e| **e == *a));
            }
            let unique: std::collections::HashSet<_> = seeded.iter().cloned().collect();
            assert_eq!(unique.len(), seeded.len(), "no duplicates");
        }
    }

    #[test]
    fn seeded_enumeration_counts_multi_seed_assignments_once() {
        // Both tuples of an assignment in the seed: still produced exactly
        // once (at its first seed position).
        let mut s = Schema::new();
        s.relation("R", &[("a", AttrType::Int)]);
        s.relation("S", &[("a", AttrType::Int)]);
        let mut db = Instance::new(s);
        let r0 = db.insert_values("R", [Value::Int(1)]).unwrap();
        let s0 = db.insert_values("S", [Value::Int(1)]).unwrap();
        let p = parse_program("delta R(x) :- R(x), S(x).").unwrap();
        let ev = Evaluator::new(&mut db, p).unwrap();
        let state = db.initial_state();
        let mut seed = DeltaFrontier::empty(&db);
        seed.insert(r0);
        seed.insert(s0);
        let n = collect(&ev, &db, &state, Mode::FrozenBase, Round::Seeded(&seed)).len();
        assert_eq!(n, 1);
        // Empty seed: nothing.
        let empty = DeltaFrontier::empty(&db);
        let m = collect(&ev, &db, &state, Mode::FrozenBase, Round::Seeded(&empty)).len();
        assert_eq!(m, 0);
    }

    #[test]
    fn delta_iteration_respects_probe_key_filter() {
        // A bound variable over a delta atom must filter delta rows by
        // value (the key acts as the residual filter on the delta path).
        let mut s = Schema::new();
        s.relation("R", &[("a", AttrType::Int)]);
        s.relation("S", &[("a", AttrType::Int)]);
        let mut db = Instance::new(s);
        for i in 0..4 {
            db.insert_values("R", [Value::Int(i)]).unwrap();
            db.insert_values("S", [Value::Int(i)]).unwrap();
        }
        let p = parse_program("delta R(x) :- R(x), delta S(x).").unwrap();
        let ev = Evaluator::new(&mut db, p).unwrap();
        let mut state = db.initial_state();
        let s_rel = db.schema().rel_id("S").unwrap();
        state.mark_delta(TupleId::new(s_rel, 2));
        let mut heads = Vec::new();
        ev.for_each_assignment(&db, &state, Mode::Current, &mut |a| {
            heads.push(db.display_tuple(a.head));
            true
        });
        assert_eq!(heads, vec!["R(2)"]);
    }
}
