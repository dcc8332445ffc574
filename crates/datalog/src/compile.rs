//! Compilation of validated rules into positional evaluation plans.
//!
//! Variables are renumbered to dense indexes and atoms become
//! [`CompiledAtom`]s over [`Slot`]s. Each rule gets a general join order,
//! plus one order per body position with that position pinned first — the
//! *pivot* of semi-naive and change-seeded rounds — each with the earliest
//! step at which every comparison can be checked.
//!
//! Beyond the join *order*, each plan step carries a [`ProbeSpec`]: the
//! complete static analysis of what is bound when the step runs. Which
//! columns hold already-known values (and therefore form a composite index
//! key), which columns bind fresh variables, and which columns repeat a
//! variable first seen earlier *in the same atom*. The evaluator executes
//! these precompiled probes directly — it never rediscovers bound columns,
//! never consults a runtime binding trail, and filters candidate rows by a
//! multi-column index instead of one column plus tuple-by-tuple checks.

use crate::ast::{CmpOp, Rule, Term};
use crate::validate::head_witness;
use storage::{FxHashMap, IndexId, RelId, Schema, Sym, Value};

/// A positional term: variable index or constant.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Slot {
    /// Rule-local variable index.
    Var(u32),
    /// Constant value.
    Const(Value),
}

/// A compiled atom.
#[derive(Clone, Debug)]
pub struct CompiledAtom {
    /// Resolved relation.
    pub rel: RelId,
    /// Delta atom?
    pub is_delta: bool,
    /// One slot per column.
    pub slots: Vec<Slot>,
}

/// A compiled comparison.
#[derive(Clone, Copy, Debug)]
pub struct CompiledCmp {
    /// Left slot.
    pub lhs: Slot,
    /// Operator.
    pub op: CmpOp,
    /// Right slot.
    pub rhs: Slot,
}

/// The static probe analysis of one plan step: given everything bound by
/// the preceding steps, how the step's atom is matched against storage.
#[derive(Clone, Debug)]
pub struct ProbeSpec {
    /// Columns whose value is known when the step runs (constants or
    /// variables bound earlier), strictly ascending. Together they are the
    /// composite-index key; empty means the step is a full generator.
    pub key_cols: Vec<usize>,
    /// How to produce each key column's value, parallel to `key_cols`.
    /// `Slot::Var` here always refers to an already-bound variable.
    pub key_slots: Vec<Slot>,
    /// `(column, variable)` pairs bound fresh by this step — the first
    /// occurrence of each new variable, in column order. Because boundness
    /// is static, the evaluator needs no undo trail: the next candidate row
    /// simply overwrites these slots.
    pub bind_cols: Vec<(usize, u32)>,
    /// `(column, earlier column)` pairs where a variable first bound at
    /// this step's `earlier column` repeats: the two tuple positions must
    /// be equal.
    pub same_cols: Vec<(usize, usize)>,
    /// Composite index over `key_cols` in the atom's relation; resolved by
    /// [`crate::eval::Evaluator::new`] (compilation sees only the schema).
    /// Unused when `key_cols` is empty.
    pub index: IndexId,
}

impl ProbeSpec {
    /// Does the spec probe an index (vs. scan)?
    pub fn is_probe(&self) -> bool {
        !self.key_cols.is_empty()
    }
}

/// A join order for one rule, possibly pinned to a pivot.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Permutation of body-atom indexes, in evaluation order.
    pub order: Vec<usize>,
    /// `cmps_after[k]` lists comparison indexes checkable right after the
    /// `k`-th atom of `order` binds.
    pub cmps_after: Vec<Vec<usize>>,
    /// `probes[k]` is the static probe analysis of the `k`-th step.
    pub probes: Vec<ProbeSpec>,
}

/// A fully compiled rule.
#[derive(Clone, Debug)]
pub struct CompiledRule {
    /// Number of distinct variables.
    pub n_vars: usize,
    /// Body atoms in source order.
    pub atoms: Vec<CompiledAtom>,
    /// Comparisons in source order.
    pub cmps: Vec<CompiledCmp>,
    /// Body index of the head witness atom (Def. 3.1).
    pub head_witness: usize,
    /// Source-order indexes of delta atoms.
    pub delta_positions: Vec<usize>,
    /// General plan, run by every unpivoted round in every mode: stage
    /// semantics, the naive ablation, stability checks and Algorithm 1's
    /// hypothetical enumeration.
    pub general: Plan,
    /// `pivoted[p]` is the plan whose first atom is body position `p`, for
    /// every position: the driver of semi-naive rounds (pivots at delta
    /// positions, ranging over the previous round's new deltas) and of
    /// change-seeded rounds (pivots anywhere, ranging over a mutation
    /// batch). The evaluator partitions the round's atoms by their position
    /// relative to the pivot — earlier positions exclude the distinguished
    /// set, the pivot ranges over it, later positions are unrestricted — so
    /// each assignment is produced exactly once, at its first distinguished
    /// position.
    pub pivoted: Vec<Plan>,
    /// True when a constant-only comparison is false: the rule can never
    /// fire.
    pub never_fires: bool,
}

struct VarMap {
    map: FxHashMap<Sym, u32>,
}

impl VarMap {
    fn slot(&mut self, t: &Term) -> Slot {
        match t {
            Term::Const(v) => Slot::Const(*v),
            Term::Var(s) => {
                let next = self.map.len() as u32;
                Slot::Var(*self.map.entry(*s).or_insert(next))
            }
        }
    }
}

fn atom_score(atom: &CompiledAtom, bound: &[bool]) -> i32 {
    let mut score = 0;
    for s in &atom.slots {
        match s {
            Slot::Const(_) => score += 4,
            Slot::Var(v) => {
                if bound[*v as usize] {
                    score += 4;
                }
            }
        }
    }
    // Delta relations are usually small; prefer them as generators.
    if atom.is_delta {
        score += 1;
    }
    score
}

fn bind_atom(atom: &CompiledAtom, bound: &mut [bool]) {
    for s in &atom.slots {
        if let Slot::Var(v) = s {
            bound[*v as usize] = true;
        }
    }
}

fn cmp_ready(c: &CompiledCmp, bound: &[bool]) -> bool {
    let ok = |s: &Slot| match s {
        Slot::Const(_) => true,
        Slot::Var(v) => bound[*v as usize],
    };
    ok(&c.lhs) && ok(&c.rhs)
}

/// Static probe analysis for `atom`, given the variables bound before the
/// step (`bound`). Classifies every column exactly once: known value →
/// index key; fresh variable → binding column; repeat of a variable first
/// bound at an earlier column of *this* atom → intra-atom equality.
fn probe_spec(atom: &CompiledAtom, bound: &[bool]) -> ProbeSpec {
    let mut spec = ProbeSpec {
        key_cols: Vec::new(),
        key_slots: Vec::new(),
        bind_cols: Vec::new(),
        same_cols: Vec::new(),
        index: 0,
    };
    // Variable → column of its first occurrence within this atom.
    let mut first_col: FxHashMap<u32, usize> = FxHashMap::default();
    for (col, slot) in atom.slots.iter().enumerate() {
        match slot {
            Slot::Const(_) => {
                spec.key_cols.push(col);
                spec.key_slots.push(*slot);
            }
            Slot::Var(x) => {
                if bound[*x as usize] {
                    spec.key_cols.push(col);
                    spec.key_slots.push(*slot);
                } else if let Some(&earlier) = first_col.get(x) {
                    spec.same_cols.push((col, earlier));
                } else {
                    first_col.insert(*x, col);
                    spec.bind_cols.push((col, *x));
                }
            }
        }
    }
    spec
}

fn make_plan(
    atoms: &[CompiledAtom],
    cmps: &[CompiledCmp],
    n_vars: usize,
    first: Option<usize>,
) -> Plan {
    let n = atoms.len();
    let mut order = Vec::with_capacity(n);
    let mut used = vec![false; n];
    let mut bound = vec![false; n_vars];
    if let Some(f) = first {
        order.push(f);
        used[f] = true;
        bind_atom(&atoms[f], &mut bound);
    }
    while order.len() < n {
        let best = (0..n)
            .filter(|&i| !used[i])
            .max_by_key(|&i| (atom_score(&atoms[i], &bound), std::cmp::Reverse(i)))
            .expect("atom available");
        order.push(best);
        used[best] = true;
        bind_atom(&atoms[best], &mut bound);
    }
    plan_for_order(atoms, cmps, n_vars, order)
}

/// Finish a [`Plan`] for an explicit atom `order`: schedule comparisons at
/// the earliest step where both sides are bound and compute each step's
/// probe spec from the variables bound before it. Shared by the static
/// greedy order above and the statistics-driven order of [`crate::cost`].
pub(crate) fn plan_for_order(
    atoms: &[CompiledAtom],
    cmps: &[CompiledCmp],
    n_vars: usize,
    order: Vec<usize>,
) -> Plan {
    let n = atoms.len();
    debug_assert_eq!(order.len(), n, "order must permute the body atoms");
    let mut cmps_after = vec![Vec::new(); n.max(1)];
    let mut probes = Vec::with_capacity(n);
    let mut assigned = vec![false; cmps.len()];
    let mut bound = vec![false; n_vars];
    for (k, &ai) in order.iter().enumerate() {
        probes.push(probe_spec(&atoms[ai], &bound));
        bind_atom(&atoms[ai], &mut bound);
        for (ci, c) in cmps.iter().enumerate() {
            if !assigned[ci] && cmp_ready(c, &bound) {
                assigned[ci] = true;
                cmps_after[k].push(ci);
            }
        }
    }
    Plan {
        order,
        cmps_after,
        probes,
    }
}

/// Compile a validated rule against `schema`.
pub fn compile_rule(schema: &Schema, rule: &Rule) -> CompiledRule {
    let mut vm = VarMap {
        map: FxHashMap::default(),
    };
    let atoms: Vec<CompiledAtom> = rule
        .body
        .iter()
        .map(|a| CompiledAtom {
            rel: schema.rel_id(&a.relation).expect("validated"),
            is_delta: a.is_delta,
            slots: a.terms.iter().map(|t| vm.slot(t)).collect(),
        })
        .collect();
    let cmps: Vec<CompiledCmp> = rule
        .comparisons
        .iter()
        .map(|c| CompiledCmp {
            lhs: vm.slot(&c.lhs),
            op: c.op,
            rhs: vm.slot(&c.rhs),
        })
        .collect();
    let n_vars = vm.map.len();
    let never_fires = cmps.iter().any(|c| match (&c.lhs, &c.rhs) {
        (Slot::Const(a), Slot::Const(b)) => !c.op.eval(a, b),
        _ => false,
    });
    let delta_positions: Vec<usize> = atoms
        .iter()
        .enumerate()
        .filter(|(_, a)| a.is_delta)
        .map(|(i, _)| i)
        .collect();
    let general = make_plan(&atoms, &cmps, n_vars, None);
    let pivoted: Vec<Plan> = (0..atoms.len())
        .map(|p| make_plan(&atoms, &cmps, n_vars, Some(p)))
        .collect();
    CompiledRule {
        n_vars,
        head_witness: head_witness(rule).expect("validated"),
        atoms,
        cmps,
        delta_positions,
        general,
        pivoted,
        never_fires,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use storage::AttrType;

    fn schema() -> Schema {
        let mut s = Schema::new();
        s.relation("A", &[("x", AttrType::Int)]);
        s.relation("B", &[("x", AttrType::Int), ("y", AttrType::Int)]);
        s.relation("C", &[("y", AttrType::Int)]);
        s
    }

    fn compile(src: &str) -> CompiledRule {
        let p = parse_program(src).unwrap();
        compile_rule(&schema(), &p.rules[0])
    }

    #[test]
    fn variables_are_shared_across_atoms() {
        let r = compile("delta A(x) :- A(x), B(x, y), C(y).");
        assert_eq!(r.n_vars, 2);
        assert_eq!(r.atoms[0].slots, vec![Slot::Var(0)]);
        assert_eq!(r.atoms[1].slots, vec![Slot::Var(0), Slot::Var(1)]);
        assert_eq!(r.head_witness, 0);
    }

    #[test]
    fn focused_plan_starts_with_focus() {
        // A semi-naive round pivots at each delta position.
        let r = compile("delta A(x) :- A(x), delta B(x, y), C(y).");
        assert_eq!(r.delta_positions, vec![1]);
        assert_eq!(r.pivoted[r.delta_positions[0]].order[0], 1);
    }

    #[test]
    fn plan_covers_all_atoms_once() {
        let r = compile("delta A(x) :- A(x), B(x, y), C(y), delta C(z).");
        let mut o = r.general.order.clone();
        o.sort_unstable();
        assert_eq!(o, vec![0, 1, 2, 3]);
    }

    #[test]
    fn comparisons_scheduled_when_bound() {
        let r = compile("delta A(x) :- A(x), B(x, y), x < 5, y > 1.");
        let scheduled: usize = r.general.cmps_after.iter().map(Vec::len).sum();
        assert_eq!(scheduled, 2);
        // x < 5 must be checkable as soon as an atom binding x is placed.
        let first_with_cmp = r
            .general
            .cmps_after
            .iter()
            .position(|v| !v.is_empty())
            .unwrap();
        assert_eq!(first_with_cmp, 0);
    }

    #[test]
    fn constant_contradiction_detected() {
        let r = compile("delta A(x) :- A(x), 1 = 2.");
        assert!(r.never_fires);
        let r2 = compile("delta A(x) :- A(x), 1 < 2.");
        assert!(!r2.never_fires);
    }

    #[test]
    fn constants_in_atoms_become_const_slots() {
        let r = compile("delta A(x) :- A(x), B(3, y).");
        assert_eq!(r.atoms[1].slots[0], Slot::Const(Value::Int(3)));
    }

    #[test]
    fn probe_specs_track_boundness_along_the_plan() {
        let r = compile("delta A(x) :- A(x), B(x, y), C(y).");
        // Every atom appears once; whatever the greedy order, the first
        // step binds fresh variables only (no key), and every later step
        // over an atom sharing a variable must probe on it.
        let p = &r.general;
        assert!(!p.probes[0].is_probe());
        assert!(!p.probes[0].bind_cols.is_empty());
        for k in 1..p.order.len() {
            let ai = p.order[k];
            let spec = &p.probes[k];
            // In this rule every later atom shares ≥1 variable with the
            // prefix, so the step must be an index probe.
            assert!(spec.is_probe(), "step {k} (atom {ai}) should probe");
            assert!(spec.key_cols.windows(2).all(|w| w[0] < w[1]));
            assert_eq!(spec.key_cols.len(), spec.key_slots.len());
        }
        // Across key/bind/same, each column of the atom appears exactly once.
        for (k, &ai) in p.order.iter().enumerate() {
            let spec = &p.probes[k];
            let mut cols: Vec<usize> = spec
                .key_cols
                .iter()
                .copied()
                .chain(spec.bind_cols.iter().map(|&(c, _)| c))
                .chain(spec.same_cols.iter().map(|&(c, _)| c))
                .collect();
            cols.sort_unstable();
            assert_eq!(cols, (0..r.atoms[ai].slots.len()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn constants_join_the_probe_key() {
        let r = compile("delta A(x) :- A(x), B(3, y).");
        // The B atom (wherever it lands in the order) has col 0 = const 3
        // in its key.
        let p = &r.general;
        let k = p.order.iter().position(|&ai| ai == 1).unwrap();
        let spec = &p.probes[k];
        assert!(spec.key_cols.contains(&0));
        let pos = spec.key_cols.iter().position(|&c| c == 0).unwrap();
        assert_eq!(spec.key_slots[pos], Slot::Const(Value::Int(3)));
    }

    #[test]
    fn repeated_fresh_variable_becomes_intra_atom_equality() {
        let r = compile("delta B(x, x) :- B(x, x).");
        let spec = &r.general.probes[0];
        assert_eq!(spec.bind_cols, vec![(0, 0)]);
        assert_eq!(spec.same_cols, vec![(1, 0)]);
        assert!(spec.key_cols.is_empty());
    }

    #[test]
    fn repeated_bound_variable_uses_both_key_columns() {
        // After A(x) binds x, B(x, x) probes on both columns.
        let r = compile("delta A(x) :- A(x), B(x, x).");
        let p = &r.general;
        let k = p.order.iter().position(|&ai| ai == 1).unwrap();
        if k > 0 {
            let spec = &p.probes[k];
            assert_eq!(spec.key_cols, vec![0, 1]);
            assert!(spec.same_cols.is_empty());
        }
    }

    #[test]
    fn seeded_plans_cover_every_pivot_position() {
        // Base and delta positions alike get a plan led by their pivot.
        let r = compile("delta A(x) :- A(x), delta B(x, y), C(y).");
        assert_eq!(r.pivoted.len(), 3);
        for (p, plan) in r.pivoted.iter().enumerate() {
            assert_eq!(plan.order[0], p, "pivot leads its plan");
            let mut o = plan.order.clone();
            o.sort_unstable();
            assert_eq!(o, vec![0, 1, 2]);
        }
    }
}
