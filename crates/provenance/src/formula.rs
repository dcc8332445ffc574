//! Boolean provenance formulas (Algorithm 1, lines 1–4).
//!
//! Every assignment found under the hypothetical view contributes one
//! clause: the conjunction *"all base-bound tuples present AND all
//! delta-bound tuples deleted"*. The full provenance `F` is the disjunction
//! of all clauses; a database state is **stable** iff `¬F` holds. `¬F` is a
//! CNF over deletion variables directly (no Tseitin transformation needed):
//! negating one clause yields `⋁ deleted(p) ∨ ⋁ ¬deleted(n)`.

use datalog::Assignment;
use sat::{Cnf, Lit};
use std::collections::HashSet;
use storage::{Instance, RelId, TupleId};

/// Split an assignment's body into sorted, deduplicated base (`pos`) and
/// delta (`neg`) sides, reusing the caller's buffers.
fn split_sides(a: &Assignment, pos: &mut Vec<TupleId>, neg: &mut Vec<TupleId>) {
    pos.clear();
    neg.clear();
    for b in &a.body {
        if b.is_delta {
            neg.push(b.tid);
        } else {
            pos.push(b.tid);
        }
    }
    pos.sort_unstable();
    pos.dedup();
    neg.sort_unstable();
    neg.dedup();
}

/// Do two sorted sides share a tuple? (Merge-scan.)
fn sides_share_tuple(pos: &[TupleId], neg: &[TupleId]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < pos.len() && j < neg.len() {
        match pos[i].cmp(&neg[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

fn offset(n: usize) -> u32 {
    u32::try_from(n).expect("formula too large")
}

/// Clauses stored back to back in one flat array (CSR layout): clause `i`
/// is its `pos` side followed by its `neg` side, and `ends[i]` holds the
/// end of each. A clause starts where the previous one ends.
#[derive(Clone, Debug)]
struct Sides<T> {
    items: Vec<T>,
    /// Per clause: (end of `pos`, end of `neg`) in `items`.
    ends: Vec<(u32, u32)>,
}

impl<T> Default for Sides<T> {
    fn default() -> Sides<T> {
        Sides {
            items: Vec::new(),
            ends: Vec::new(),
        }
    }
}

impl<T: Copy> Sides<T> {
    fn push(&mut self, pos: &[T], neg: &[T]) {
        self.items.extend_from_slice(pos);
        let pos_end = offset(self.items.len());
        self.items.extend_from_slice(neg);
        self.ends.push((pos_end, offset(self.items.len())));
    }

    fn get(&self, i: usize) -> (&[T], &[T]) {
        let start = i.checked_sub(1).map_or(0, |p| self.ends[p].1 as usize);
        let (pos_end, end) = self.ends[i];
        (
            &self.items[start..pos_end as usize],
            &self.items[pos_end as usize..end as usize],
        )
    }

    fn len(&self) -> usize {
        self.ends.len()
    }
}

/// The provenance of all possible delta tuples: `F = ⋁ clauses`, stored
/// deduplicated in canonical order (ascending by `(pos, neg)` content).
///
/// Tuples appear as *ranks*: rank `r` is the `r`-th tuple of
/// [`ProvFormula::universe`], which is also SAT variable `r` of
/// [`ProvFormula::negated_cnf`].
#[derive(Clone, Debug, Default)]
pub struct ProvFormula {
    universe: Vec<TupleId>,
    clauses: Sides<u32>,
}

/// Incremental [`ProvFormula`] construction, dropping contradictions and
/// deduplicating identical clauses (e.g. two rules sharing a body, like
/// rules (2) and (3) of Figure 2).
///
/// Algorithm 1's Eval phase streams assignments out of the evaluator;
/// feeding them straight into a builder avoids materializing (and cloning)
/// the whole assignment vector when only the formula is needed. [`add`]
/// only normalizes the clause and appends it to one flat tuple arena — no
/// hashing, no allocation per clause. Duplicates are held until
/// [`finish`], which ranks the mentioned tuples, sorts the clauses once by
/// content and drops adjacent repeats.
///
/// [`add`]: ProvFormulaBuilder::add
/// [`finish`]: ProvFormulaBuilder::finish
#[derive(Debug, Default)]
pub struct ProvFormulaBuilder {
    clauses: Sides<TupleId>,
    /// Scratch for the candidate clause's sides.
    pos: Vec<TupleId>,
    neg: Vec<TupleId>,
}

impl ProvFormulaBuilder {
    /// Empty builder.
    pub fn new() -> ProvFormulaBuilder {
        ProvFormulaBuilder::default()
    }

    /// Fold one assignment's clause into the formula.
    pub fn add(&mut self, a: &Assignment) {
        split_sides(a, &mut self.pos, &mut self.neg);
        // Contradiction (tuple required both present and deleted): the
        // negated clause is a tautology — drop it.
        if !sides_share_tuple(&self.pos, &self.neg) {
            self.clauses.push(&self.pos, &self.neg);
        }
    }

    /// The formula: tuples ranked, clauses deduplicated and in canonical
    /// order.
    ///
    /// The canonical order makes the formula — and the CNF, whose layout
    /// the Min-Ones search uses to break ties between equal-size minimum
    /// models — a pure function of the clause *set*, identical under any
    /// join order or thread count.
    pub fn finish(self) -> ProvFormula {
        let Sides { items, ends } = self.clauses;
        let (universe, ranks) = rank(&items);
        // Free the tuple arena before the sort buffers are allocated.
        drop(items);
        let ranked = Sides { items: ranks, ends };

        let mut order: Vec<(u128, u32)> = (0..ranked.len())
            .map(|i| {
                let (pos, neg) = ranked.get(i);
                (sort_key(pos, neg), i as u32)
            })
            .collect();
        let sides = |i: u32| ranked.get(i as usize);
        order.sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| sides(a.1).cmp(&sides(b.1))));
        order.dedup_by(|a, b| a.0 == b.0 && sides(a.1) == sides(b.1));

        let mut clauses = Sides {
            items: Vec::with_capacity(ranked.items.len()),
            ends: Vec::with_capacity(order.len()),
        };
        for &(_, i) in &order {
            let (pos, neg) = sides(i);
            clauses.push(pos, neg);
        }
        ProvFormula { universe, clauses }
    }
}

/// Rank every tuple of `arena`: the sorted distinct tuples, and each arena
/// entry's index among them. Ranks come from dense per-relation row tables
/// laid end to end, so tuple order is a walk over the tables — no sort, no
/// hash map.
fn rank(arena: &[TupleId]) -> (Vec<TupleId>, Vec<u32>) {
    const ABSENT: u32 = u32::MAX;
    let nrels = arena.iter().map(|t| t.rel.idx() + 1).max().unwrap_or(0);
    // `base[r]..base[r + 1]` is relation `r`'s table: rows 0..=max row.
    let mut base = vec![0usize; nrels + 1];
    for t in arena {
        let rows = &mut base[t.rel.idx() + 1];
        *rows = (*rows).max(t.row_idx() + 1);
    }
    for r in 0..nrels {
        base[r + 1] += base[r];
    }
    let slot = |t: &TupleId| base[t.rel.idx()] + t.row_idx();
    let mut table = vec![ABSENT; base[nrels]];
    for t in arena {
        table[slot(t)] = 0;
    }
    let mut universe = Vec::new();
    for r in 0..nrels {
        for (row, entry) in table[base[r]..base[r + 1]].iter_mut().enumerate() {
            if *entry != ABSENT {
                *entry = offset(universe.len());
                universe.push(TupleId::new(RelId(r as u16), row as u32));
            }
        }
    }
    let ranks = arena.iter().map(|t| table[slot(t)]).collect();
    (universe, ranks)
}

/// A clause's sort key: the first four symbols of `pos + 1 … 0 neg + 1 … 0`
/// packed big-endian (missing symbols are `0`). The terminators make the
/// symbol sequence compare exactly like `(pos, neg)`; keys that tie need a
/// full comparison only when both clauses run past four symbols.
fn sort_key(pos: &[u32], neg: &[u32]) -> u128 {
    let symbols = pos
        .iter()
        .map(|&r| r + 1)
        .chain([0])
        .chain(neg.iter().map(|&r| r + 1))
        .chain([0]);
    let mut key = 0u128;
    let mut n = 0;
    for s in symbols.take(4) {
        key = key << 32 | u128::from(s);
        n += 1;
    }
    key << (32 * (4 - n))
}

impl ProvFormula {
    /// The clauses of `F` in canonical order, each as its `(pos, neg)`
    /// sides of ascending ranks.
    pub fn clauses(&self) -> impl Iterator<Item = (&[u32], &[u32])> + '_ {
        (0..self.len()).map(|i| self.clauses.get(i))
    }

    /// Number of clauses.
    pub fn len(&self) -> usize {
        self.clauses.len()
    }

    /// True when `F` is empty (the database is vacuously stable).
    pub fn is_empty(&self) -> bool {
        self.clauses.len() == 0
    }

    /// Every distinct tuple mentioned anywhere in the formula, sorted; the
    /// index of a tuple is its rank. These become the SAT variables;
    /// unmentioned tuples never need deletion.
    pub fn universe(&self) -> &[TupleId] {
        &self.universe
    }

    /// Algorithm 1's Process Prov: the negated formula `¬F` as a CNF over
    /// deletion variables, variable `r` deleting the tuple of rank `r`,
    /// clauses in the formula's canonical order.
    pub fn negated_cnf(&self) -> Cnf {
        let mut cnf = Cnf::new(self.universe.len());
        let mut lits = Vec::new();
        for (pos, neg) in self.clauses() {
            lits.clear();
            // ¬(pos present ∧ neg deleted) = ⋁ del(pos) ∨ ⋁ ¬del(neg).
            // Both sides ascend and are disjoint (contradictions were
            // dropped), so merging the two runs yields a sorted,
            // duplicate-free, tautology-free clause.
            let (mut i, mut j) = (0, 0);
            while i < pos.len() && j < neg.len() {
                if pos[i] < neg[j] {
                    lits.push(Lit::pos(pos[i]));
                    i += 1;
                } else {
                    lits.push(Lit::neg(neg[j]));
                    j += 1;
                }
            }
            lits.extend(pos[i..].iter().map(|&v| Lit::pos(v)));
            lits.extend(neg[j..].iter().map(|&v| Lit::neg(v)));
            cnf.add_clause_presorted(&lits);
        }
        cnf
    }

    /// Does a deletion set stabilize the database according to the formula?
    /// (`¬F` holds: no clause satisfied — a clause is satisfied iff every
    /// `pos` tuple is present and every `neg` tuple deleted.) Used by tests
    /// to cross-check the evaluator's stability decision.
    pub fn stable_under(&self, deleted: &HashSet<TupleId>) -> bool {
        let del: Vec<bool> = self.universe.iter().map(|t| deleted.contains(t)).collect();
        !self.clauses().any(|(pos, neg)| {
            pos.iter().all(|&r| !del[r as usize]) && neg.iter().all(|&r| del[r as usize])
        })
    }

    /// Render the negated formula `¬F` the way Example 5.1 prints it, with
    /// tuples shown as `Rel(v, …)`; deleted literals are shown negated.
    pub fn render_negation(&self, db: &Instance) -> String {
        let mut out = String::new();
        for (i, (pos, neg)) in self.clauses().enumerate() {
            if i > 0 {
                out.push_str(" ∧ ");
            }
            out.push('(');
            let literals = pos
                .iter()
                .map(|&r| (true, r))
                .chain(neg.iter().map(|&r| (false, r)));
            for (j, (present, r)) in literals.enumerate() {
                if j > 0 {
                    out.push_str(" ∨ ");
                }
                if present {
                    out.push('¬');
                }
                out.push_str(&db.display_tuple(self.universe[r as usize]));
            }
            out.push(')');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalog::eval::BodyBind;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn tid(rel: u16, row: u32) -> TupleId {
        TupleId::new(RelId(rel), row)
    }

    fn assignment(rule: usize, body: &[(u16, u32, bool)]) -> Assignment {
        Assignment {
            rule,
            head: tid(body[0].0, body[0].1),
            body: body
                .iter()
                .map(|&(r, w, d)| BodyBind {
                    tid: tid(r, w),
                    is_delta: d,
                })
                .collect(),
        }
    }

    fn formula<'a>(assignments: impl IntoIterator<Item = &'a Assignment>) -> ProvFormula {
        let mut b = ProvFormulaBuilder::new();
        for a in assignments {
            b.add(a);
        }
        b.finish()
    }

    /// A clause's sides as tuples.
    fn tuple_clauses(f: &ProvFormula) -> Vec<(Vec<TupleId>, Vec<TupleId>)> {
        let u = f.universe();
        f.clauses()
            .map(|(pos, neg)| {
                (
                    pos.iter().map(|&r| u[r as usize]).collect(),
                    neg.iter().map(|&r| u[r as usize]).collect(),
                )
            })
            .collect()
    }

    /// The earlier formula pipeline, kept as the reference for the arena:
    /// one `Vec` per clause side, hash-set dedup, a content sort of the
    /// clauses and hash-map variable numbering over the sorted universe.
    /// Returns the clause count, the universe and `¬F`.
    fn reference_cnf(assignments: &[Assignment]) -> (usize, Vec<TupleId>, Cnf) {
        let mut seen: HashSet<(Vec<TupleId>, Vec<TupleId>)> = HashSet::new();
        let mut clauses = Vec::new();
        for a in assignments {
            let side = |delta: bool| {
                let mut v: Vec<TupleId> = a
                    .body
                    .iter()
                    .filter(|b| b.is_delta == delta)
                    .map(|b| b.tid)
                    .collect();
                v.sort_unstable();
                v.dedup();
                v
            };
            let (pos, neg) = (side(false), side(true));
            if pos.iter().any(|t| neg.contains(t)) {
                continue;
            }
            if seen.insert((pos.clone(), neg.clone())) {
                clauses.push((pos, neg));
            }
        }
        let mut universe: Vec<TupleId> = clauses
            .iter()
            .flat_map(|(p, n)| p.iter().chain(n).copied())
            .collect();
        universe.sort_unstable();
        universe.dedup();
        let var_of: HashMap<TupleId, u32> = universe
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, i as u32))
            .collect();
        clauses.sort();
        let mut cnf = Cnf::new(universe.len());
        for (pos, neg) in &clauses {
            let lits: Vec<Lit> = pos
                .iter()
                .map(|t| Lit::pos(var_of[t]))
                .chain(neg.iter().map(|t| Lit::neg(var_of[t])))
                .collect();
            assert!(cnf.add_clause(&lits));
        }
        (clauses.len(), universe, cnf)
    }

    /// Sparse row numbers, so the per-relation row tables have gaps.
    const ROWS: [u32; 6] = [0, 1, 5, 64, 700, 65_537];

    /// A random assignment stream: bodies drawn from a small pool (so
    /// duplicates recur far apart), over three relations and few rows (so
    /// sides repeat tuples and contradictions occur), with each binding's
    /// side chosen at random (so all-`pos` and all-`neg` bodies occur).
    fn arb_stream() -> impl Strategy<Value = Vec<Assignment>> {
        proptest::strategy_fn(|rng: &mut TestRng| {
            let pool: Vec<Assignment> = (0..1 + rng.below(12))
                .map(|_| {
                    let body: Vec<(u16, u32, bool)> = (0..1 + rng.below(5))
                        .map(|_| {
                            let rel = rng.below(3) as u16;
                            let row = ROWS[rng.below(ROWS.len() as u64) as usize];
                            (rel, row, rng.below(2) == 1)
                        })
                        .collect();
                    assignment(rng.below(4) as usize, &body)
                })
                .collect();
            (0..rng.below(40))
                .map(|_| pool[rng.below(pool.len() as u64) as usize].clone())
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The arena pipeline yields the reference's clause count,
        /// universe and CNF, clause by clause.
        #[test]
        fn arena_matches_reference_pipeline(stream in arb_stream()) {
            let f = formula(&stream);
            let (len, universe, cnf) = reference_cnf(&stream);
            prop_assert_eq!(f.len(), len);
            prop_assert_eq!(f.universe(), &universe[..]);
            let got = f.negated_cnf();
            prop_assert_eq!(got.num_vars(), cnf.num_vars());
            prop_assert_eq!(
                got.clauses().collect::<Vec<_>>(),
                cnf.clauses().collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn sort_key_orders_like_the_sides() {
        // Shorter-prefix sides sort first (terminator 0 < any rank + 1),
        // and a clause past four symbols falls back to the full compare.
        let clauses: [(&[u32], &[u32]); 6] = [
            (&[], &[0]),
            (&[0], &[]),
            (&[0], &[1]),
            (&[0, 1], &[]),
            (&[0, 1, 2, 3], &[4]),
            (&[0, 1, 2, 3], &[5]),
        ];
        for w in clauses.windows(2) {
            assert!(w[0] < w[1]);
            assert!(sort_key(w[0].0, w[0].1) <= sort_key(w[1].0, w[1].1));
        }
        assert_eq!(
            sort_key(clauses[4].0, clauses[4].1),
            sort_key(clauses[5].0, clauses[5].1)
        );
    }

    #[test]
    fn clause_splits_pos_and_neg() {
        let a = assignment(0, &[(0, 1, false), (1, 2, true), (0, 3, false)]);
        let f = formula([&a]);
        assert_eq!(
            tuple_clauses(&f),
            vec![(vec![tid(0, 1), tid(0, 3)], vec![tid(1, 2)])]
        );
    }

    #[test]
    fn contradiction_detected() {
        let a = assignment(0, &[(0, 1, false), (0, 1, true)]);
        let f = formula([&a]);
        assert!(f.is_empty());
        assert!(f.universe().is_empty());
    }

    #[test]
    fn formula_dedups_identical_bodies() {
        // Two rules with the same body produce the same clause (the paper's
        // rules (2)/(3) of Figure 2 collapse in Example 5.1's formula).
        let a1 = assignment(2, &[(0, 1, false), (1, 2, true)]);
        let a2 = assignment(3, &[(0, 1, false), (1, 2, true)]);
        let f = formula([&a1, &a2]);
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn universe_is_sorted_unique() {
        let a1 = assignment(0, &[(0, 5, false), (1, 0, true)]);
        let a2 = assignment(1, &[(0, 5, false), (0, 1, false)]);
        let f = formula([&a1, &a2]);
        assert_eq!(f.universe(), [tid(0, 1), tid(0, 5), tid(1, 0)]);
        // Canonical order: {t0.1, t0.5} before {t0.5}.
        assert_eq!(
            tuple_clauses(&f),
            vec![
                (vec![tid(0, 1), tid(0, 5)], vec![]),
                (vec![tid(0, 5)], vec![tid(1, 0)]),
            ]
        );
    }

    #[test]
    fn stability_semantics() {
        // Clause: pos {A}, neg {B}: satisfied iff A kept and B deleted.
        let a = assignment(0, &[(0, 0, false), (0, 1, true)]);
        let f = formula([&a]);
        let none: HashSet<TupleId> = HashSet::new();
        assert!(f.stable_under(&none), "B not deleted: clause unsatisfied");
        let b_only: HashSet<TupleId> = [tid(0, 1)].into_iter().collect();
        assert!(!f.stable_under(&b_only), "A present, B deleted: violated");
        let both: HashSet<TupleId> = [tid(0, 0), tid(0, 1)].into_iter().collect();
        assert!(f.stable_under(&both), "deleting A voids the assignment");
    }
}
