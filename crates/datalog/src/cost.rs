//! Statistics-driven join-order selection.
//!
//! The static planner in [`crate::compile`] scores atoms purely textually
//! (constants and already-bound variables are worth the same no matter how
//! selective they are), which goes badly wrong on skewed data: a constant
//! that matches half the relation is treated like one that matches three
//! rows. This module re-derives every plan's atom order from the exact
//! per-column statistics maintained by the storage layer
//! ([`storage::ColumnStats`]): live cardinalities, distinct-value counts
//! and exact constant frequencies.
//!
//! The model is the textbook one. A step's **fan-out** is the expected
//! number of matching rows per incoming binding:
//!
//! ```text
//! fanout(atom) = live(R) · Π selectivity(col)
//! selectivity  = count_of(col, c)/live(R)   constant column (exact)
//!              = 1/distinct(col)            column probed on a bound var
//! ```
//!
//! Comparisons that become checkable right after the step apply a further
//! factor: exact for `v = const`, `1/distinct` for variable equalities,
//! [`RANGE_SELECTIVITY`] for inequalities. Orders are chosen greedily to
//! minimise the estimated intermediate-result size, ties broken by fan-out
//! and then by the smallest body index — every input is a pure function of
//! the live instance, so the chosen order (and therefore the evaluator's
//! entire behaviour) stays deterministic.
//!
//! The chosen order only ever permutes atoms *within* a plan, and a
//! pivoted plan keeps its pivot first. Semi-naive and change-seeded rounds
//! partition atoms by their body position relative to that pivot, so their
//! exactly-once admission argument is unaffected by any reordering.

use crate::ast::CmpOp;
use crate::compile::{plan_for_order, CompiledAtom, CompiledCmp, CompiledRule, Slot};
use storage::{FxHashMap, Instance, RelId};

/// Prior fraction of a relation's live rows assumed to populate a delta
/// view when a plan ranges a delta atom. Every plan is sized with it —
/// the general plan, which also serves Algorithm 1's
/// [`crate::eval::Mode::Hypothetical`] enumeration where delta atoms range
/// over the full relation, and the pivoted plans. Mirrors (and quantifies)
/// the static planner's "delta relations are usually small" bonus.
pub const DELTA_FRACTION: f64 = 0.25;

/// Selectivity prior for inequality comparisons (`<`, `<=`, `>`, `>=`),
/// the classic System R third.
pub const RANGE_SELECTIVITY: f64 = 1.0 / 3.0;

/// Estimated behaviour of one step of a chosen order.
#[derive(Clone, Debug)]
pub struct StepEstimate {
    /// Body index of the atom placed at this step.
    pub atom: usize,
    /// The atom's relation.
    pub rel: RelId,
    /// Expected matching rows per incoming binding.
    pub fanout: f64,
    /// Expected cumulative bindings after the step.
    pub rows: f64,
}

/// A fully estimated atom order.
#[derive(Clone, Debug)]
pub struct OrderEstimate {
    /// Permutation of body-atom indexes, in evaluation order.
    pub order: Vec<usize>,
    /// Per-step estimates, parallel to `order`.
    pub steps: Vec<StepEstimate>,
    /// Estimated total row visits of the whole plan.
    pub cost: f64,
}

/// Incremental estimation state while growing an order.
struct Search<'a> {
    db: &'a Instance,
    atoms: &'a [CompiledAtom],
    cmps: &'a [CompiledCmp],
    /// Assumed delta-view fraction for delta atoms: [`DELTA_FRACTION`]
    /// when choosing an order, any fraction when estimating one.
    delta_fraction: f64,
    bound: Vec<bool>,
    cmp_used: Vec<bool>,
}

impl Search<'_> {
    fn new<'a>(
        db: &'a Instance,
        atoms: &'a [CompiledAtom],
        cmps: &'a [CompiledCmp],
        n_vars: usize,
        delta_fraction: f64,
    ) -> Search<'a> {
        Search {
            db,
            atoms,
            cmps,
            delta_fraction,
            bound: vec![false; n_vars],
            cmp_used: vec![false; cmps.len()],
        }
    }

    /// Estimated matching rows of `atom` per incoming binding, given the
    /// variables currently bound, including the selectivity of every
    /// comparison that first becomes checkable once this atom binds.
    fn fanout(&self, ai: usize) -> f64 {
        let atom = &self.atoms[ai];
        let rel = self.db.relation(atom.rel);
        let live = self.db.live_rows(atom.rel) as f64;
        if live == 0.0 {
            return 0.0;
        }
        let mut est = live;
        if atom.is_delta {
            est *= self.delta_fraction;
        }
        // Column of each variable's first occurrence within this atom —
        // used both for intra-atom repeats and to resolve comparison
        // selectivities against the column that binds the variable.
        let mut first_col: FxHashMap<u32, usize> = FxHashMap::default();
        for (col, slot) in atom.slots.iter().enumerate() {
            match slot {
                Slot::Const(v) => est *= rel.value_count(col, v) as f64 / live,
                Slot::Var(x) => {
                    if self.bound[*x as usize] || first_col.contains_key(x) {
                        est /= rel.distinct_count(col).max(1) as f64;
                    } else {
                        first_col.insert(*x, col);
                    }
                }
            }
        }
        // Comparisons checkable right after this atom binds. At least one
        // side involves a variable first bound here (earlier-ready ones
        // were consumed by a previous step).
        let ready = |s: &Slot| match s {
            Slot::Const(_) => true,
            Slot::Var(v) => self.bound[*v as usize] || first_col.contains_key(v),
        };
        for (ci, c) in self.cmps.iter().enumerate() {
            if self.cmp_used[ci] || !ready(&c.lhs) || !ready(&c.rhs) {
                continue;
            }
            est *= self.cmp_selectivity(c, rel, live, &first_col);
        }
        est
    }

    fn cmp_selectivity(
        &self,
        c: &CompiledCmp,
        rel: &storage::Relation,
        live: f64,
        first_col: &FxHashMap<u32, usize>,
    ) -> f64 {
        // The column (in this atom) binding a comparison side, if any.
        let col_of = |s: &Slot| match s {
            Slot::Var(v) => first_col.get(v).copied(),
            Slot::Const(_) => None,
        };
        let const_of = |s: &Slot| match s {
            Slot::Const(v) => Some(*v),
            Slot::Var(_) => None,
        };
        match c.op {
            CmpOp::Eq => {
                // `v = const` with v bound here: exact frequency.
                for (a, b) in [(&c.lhs, &c.rhs), (&c.rhs, &c.lhs)] {
                    if let (Some(col), Some(v)) = (col_of(a), const_of(b)) {
                        return rel.value_count(col, &v) as f64 / live;
                    }
                }
                // Variable equality: uniform over the distinct values of
                // whichever side this atom binds.
                col_of(&c.lhs)
                    .or_else(|| col_of(&c.rhs))
                    .map_or(1.0, |col| 1.0 / rel.distinct_count(col).max(1) as f64)
            }
            CmpOp::Ne => 1.0,
            CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => RANGE_SELECTIVITY,
        }
    }

    /// Commit `atom` as the next step: bind its variables and retire the
    /// comparisons that became checkable.
    fn place(&mut self, ai: usize) {
        for s in &self.atoms[ai].slots {
            if let Slot::Var(v) = s {
                self.bound[*v as usize] = true;
            }
        }
        let ready = |s: &Slot, bound: &[bool]| match s {
            Slot::Const(_) => true,
            Slot::Var(v) => bound[*v as usize],
        };
        for (ci, c) in self.cmps.iter().enumerate() {
            if !self.cmp_used[ci] && ready(&c.lhs, &self.bound) && ready(&c.rhs, &self.bound) {
                self.cmp_used[ci] = true;
            }
        }
    }
}

/// Estimate a *given* order without changing it — the data behind
/// `delta-repair explain` and the W103 blow-up estimate.
/// `delta_fraction` sizes delta atoms: [`DELTA_FRACTION`] reproduces the
/// estimate the order was chosen by, `1.0` estimates it under Algorithm
/// 1's hypothetical view, where delta atoms range over the full relation.
pub fn estimate_order(
    db: &Instance,
    atoms: &[CompiledAtom],
    cmps: &[CompiledCmp],
    n_vars: usize,
    order: &[usize],
    delta_fraction: f64,
) -> OrderEstimate {
    let mut s = Search::new(db, atoms, cmps, n_vars, delta_fraction);
    let mut rows = 1.0_f64;
    let mut cost = 0.0_f64;
    let mut steps = Vec::with_capacity(order.len());
    for &ai in order {
        let fanout = s.fanout(ai);
        cost += rows * (1.0 + fanout);
        rows *= fanout;
        steps.push(StepEstimate {
            atom: ai,
            rel: atoms[ai].rel,
            fanout,
            rows,
        });
        s.place(ai);
    }
    OrderEstimate {
        order: order.to_vec(),
        steps,
        cost,
    }
}

/// Pick an atom order greedily by minimum estimated intermediate-result
/// size (ties: smaller fan-out, then smaller body index). `first` pins the
/// leading atom — the pivot whose position the exactly-once admission
/// partition depends on. Delta atoms are sized at [`DELTA_FRACTION`].
pub fn choose_order(
    db: &Instance,
    atoms: &[CompiledAtom],
    cmps: &[CompiledCmp],
    n_vars: usize,
    first: Option<usize>,
) -> OrderEstimate {
    let n = atoms.len();
    let mut s = Search::new(db, atoms, cmps, n_vars, DELTA_FRACTION);
    let mut order = Vec::with_capacity(n);
    let mut used = vec![false; n];
    let mut rows = 1.0_f64;
    let mut cost = 0.0_f64;
    let mut steps = Vec::with_capacity(n);
    if let Some(f) = first {
        let fanout = s.fanout(f);
        cost += 1.0 + fanout;
        rows = fanout;
        steps.push(StepEstimate {
            atom: f,
            rel: atoms[f].rel,
            fanout,
            rows,
        });
        order.push(f);
        used[f] = true;
        s.place(f);
    }
    while order.len() < n {
        let mut best: Option<(f64, f64, usize)> = None;
        for (ai, &taken) in used.iter().enumerate() {
            if taken {
                continue;
            }
            let fanout = s.fanout(ai);
            let key = (rows * fanout, fanout, ai);
            let better = match &best {
                None => true,
                Some(b) => key.0.total_cmp(&b.0).then(key.1.total_cmp(&b.1)).is_lt(),
            };
            if better {
                best = Some(key);
            }
        }
        let (new_rows, fanout, ai) = best.expect("atom available");
        cost += rows * (1.0 + fanout);
        rows = new_rows;
        steps.push(StepEstimate {
            atom: ai,
            rel: atoms[ai].rel,
            fanout,
            rows,
        });
        order.push(ai);
        used[ai] = true;
        s.place(ai);
    }
    OrderEstimate { order, steps, cost }
}

/// Re-derive every plan of `cr` — general and per-pivot — from the
/// instance's live statistics. Pivots stay pinned first, so only the join
/// order (and the probe specs it implies) changes.
pub fn reorder_rule(db: &Instance, cr: &mut CompiledRule) {
    let est = choose_order(db, &cr.atoms, &cr.cmps, cr.n_vars, None);
    cr.general = plan_for_order(&cr.atoms, &cr.cmps, cr.n_vars, est.order);
    for p in 0..cr.atoms.len() {
        let est = choose_order(db, &cr.atoms, &cr.cmps, cr.n_vars, Some(p));
        cr.pivoted[p] = plan_for_order(&cr.atoms, &cr.cmps, cr.n_vars, est.order);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_rule;
    use crate::parser::parse_program;
    use storage::{AttrType, Schema, Value};

    fn setup() -> (Schema, Instance) {
        let mut s = Schema::new();
        s.relation("Big", &[("x", AttrType::Int), ("k", AttrType::Int)]);
        s.relation("Small", &[("x", AttrType::Int)]);
        let mut db = Instance::new(s.clone());
        for i in 0..1000 {
            // k is 0 for almost every row, 7 for just two rows.
            let k = if i % 500 == 0 { 7 } else { 0 };
            db.insert_values("Big", [Value::Int(i), Value::Int(k)])
                .unwrap();
        }
        for i in 0..10 {
            db.insert_values("Small", [Value::Int(i)]).unwrap();
        }
        (s, db)
    }

    fn rule(s: &Schema, src: &str) -> CompiledRule {
        let p = parse_program(src).unwrap();
        compile_rule(s, &p.rules[0])
    }

    #[test]
    fn selective_constant_beats_textual_order() {
        let (s, db) = setup();
        // Textually `Big` comes first and the static planner keeps it
        // (all scores tie at zero); the stats know Big(x, 7) has 2 rows.
        let cr = rule(&s, "delta Small(x) :- Small(x), Big(x, 7).");
        let est = choose_order(&db, &cr.atoms, &cr.cmps, cr.n_vars, None);
        assert_eq!(est.order[0], 1, "drive from the 2-row constant probe");
        assert!(est.steps[0].fanout <= 2.5, "fanout {}", est.steps[0].fanout);
    }

    #[test]
    fn eq_comparison_uses_exact_frequency() {
        let (s, db) = setup();
        let cr = rule(&s, "delta Small(x) :- Small(x), Big(x, k), k = 7.");
        let est = choose_order(&db, &cr.atoms, &cr.cmps, cr.n_vars, None);
        // Big with k = 7 applied estimates 2 rows — cheaper than the
        // 10-row Small scan times a per-x probe.
        assert_eq!(est.order[0], 1);
    }

    #[test]
    fn pinned_focus_stays_first() {
        let (s, db) = setup();
        let cr = rule(&s, "delta Small(x) :- Small(x), delta Big(x, k).");
        for (i, &focus) in cr.delta_positions.iter().enumerate() {
            let est = choose_order(&db, &cr.atoms, &cr.cmps, cr.n_vars, Some(focus));
            assert_eq!(est.order[0], focus, "focus {i} pinned");
        }
    }

    #[test]
    fn reorder_preserves_pins_and_classes() {
        let (s, db) = setup();
        let mut cr = rule(
            &s,
            "delta Small(x) :- Small(x), delta Big(x, k), Big(y, k).",
        );
        reorder_rule(&db, &mut cr);
        // Admission classes are the body positions relative to the pivot,
        // so a pinned pivot is all that keeps them intact.
        for (p, plan) in cr.pivoted.iter().enumerate() {
            assert_eq!(plan.order[0], p);
            let mut o = plan.order.clone();
            o.sort_unstable();
            assert_eq!(o, (0..cr.atoms.len()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn estimates_are_deterministic() {
        let (s, db) = setup();
        let cr = rule(&s, "delta Small(x) :- Small(x), Big(x, k), k = 7.");
        let a = choose_order(&db, &cr.atoms, &cr.cmps, cr.n_vars, None);
        let b = choose_order(&db, &cr.atoms, &cr.cmps, cr.n_vars, None);
        assert_eq!(a.order, b.order);
        assert_eq!(a.cost.to_bits(), b.cost.to_bits());
    }

    #[test]
    fn empty_relation_estimates_zero() {
        let mut s = Schema::new();
        s.relation("E", &[("x", AttrType::Int)]);
        let db = Instance::new(s.clone());
        let cr = rule(&s, "delta E(x) :- E(x).");
        let est = choose_order(&db, &cr.atoms, &cr.cmps, cr.n_vars, None);
        assert_eq!(est.steps[0].fanout, 0.0);
    }
}
