//! Boolean provenance formulas (Algorithm 1, lines 1–4).
//!
//! Every assignment found under the hypothetical view contributes one
//! clause: the conjunction *"all base-bound tuples present AND all
//! delta-bound tuples deleted"*. The full provenance `F` is the disjunction
//! of all clauses; a database state is **stable** iff `¬F` holds. `¬F` is a
//! CNF over deletion variables directly (no Tseitin transformation needed):
//! negating one clause yields `⋁ deleted(p) ∨ ⋁ ¬deleted(n)`.
//!
//! A [`ProvFormula`] stores `¬F` only, as the [`Cnf`] the Min-Ones search
//! reads. [`ProvFormulaBuilder::finish`] puts the clauses in canonical
//! order without a comparison sort over the whole formula: it buckets them
//! by their first tuple, sorts each (small) bucket, and writes the negated
//! clauses straight into that CNF, skipping duplicates on the way.

use datalog::Assignment;
use sat::{Cnf, Lit};
use std::cmp::Ordering;
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
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => return true,
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

/// The provenance of all possible delta tuples, held as its negation `¬F`:
/// one CNF clause per distinct clause of `F`, in canonical order
/// (ascending by the clause's `(pos, neg)` content).
///
/// Tuples appear as *ranks*: rank `r` is the `r`-th tuple of
/// [`ProvFormula::universe`], which is also SAT variable `r` of
/// [`ProvFormula::negated_cnf`].
#[derive(Clone, Debug, Default)]
pub struct ProvFormula {
    universe: Vec<TupleId>,
    cnf: Cnf,
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
/// [`finish`], which ranks the mentioned tuples, orders the clauses and
/// drops adjacent repeats while it writes the CNF.
///
/// [`add`]: ProvFormulaBuilder::add
/// [`finish`]: ProvFormulaBuilder::finish
#[derive(Clone, Debug, Default)]
pub struct ProvFormulaBuilder {
    clauses: Sides<TupleId>,
    /// Scratch for the candidate clause's sides.
    pos: Vec<TupleId>,
    neg: Vec<TupleId>,
}

/// A clause in [`ProvFormulaBuilder::finish`]'s order buffer: its sort key
/// and its index in the ranked arena ([`DUPLICATE`] once it is known to
/// repeat the clause before it).
type Record = ([u32; 4], u32);

/// The index of a record that repeats an earlier clause.
const DUPLICATE: u32 = u32::MAX;

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

    /// The formula: tuples ranked, clauses deduplicated, and `¬F` written
    /// in canonical order.
    ///
    /// The canonical order makes the formula — and the CNF, whose layout
    /// the Min-Ones search uses to break ties between equal-size minimum
    /// models — a pure function of the clause *set*, identical under any
    /// join order.
    ///
    /// Linear apart from the per-bucket sorts. A clause's sort key is its
    /// first four symbols, `pos` ranks + 1, a `0`, `neg` ranks + 1 and a
    /// `0`. The first symbol (its smallest base tuple, or none) picks its
    /// bucket, and ranks are dense, so the buckets are counted, and each
    /// clause's record placed, in one pass apiece. Each bucket is sorted
    /// by key when it is not sorted already, with the full `(pos, neg)`
    /// comparison only between clauses of more than two tuples whose keys
    /// tie. Emission then walks the records in order, skipping repeats, into
    /// a CNF allocated at its exact size: a clause of at most two tuples is
    /// decoded from its key, and only longer ones are gathered from the
    /// ranked arena. The order buffer holds 20 bytes per clause.
    pub fn finish(self) -> ProvFormula {
        let Sides { items, ends } = self.clauses;
        let (universe, ranks) = rank(&items);
        // Free the tuple arena before the order buffer is allocated.
        drop(items);
        let ranked = Sides { items: ranks, ends };
        let sides = |id: u32| ranked.get(id as usize);
        // Bucket of a clause: its first symbol.
        let bucket_of = |pos: &[u32]| pos.first().map_or(0, |&r| r as usize + 1);

        // Count the clauses per bucket, then turn the counts into starts.
        let mut next = vec![0u32; universe.len() + 1];
        for i in 0..ranked.len() {
            next[bucket_of(ranked.get(i).0)] += 1;
        }
        let mut start = 0;
        for slot in &mut next {
            (*slot, start) = (start, start + *slot);
        }
        // Place each record in its bucket; afterwards `next[b]` is the end
        // of bucket `b` and so the start of bucket `b + 1`.
        let mut records: Vec<Record> = vec![([0; 4], 0); ranked.len()];
        for i in 0..offset(ranked.len()) {
            let (pos, neg) = sides(i);
            let slot = &mut next[bucket_of(pos)];
            records[*slot as usize] = (sort_key(pos, neg), i);
            *slot += 1;
        }

        // Sort each bucket, mark repeats, and size the CNF exactly.
        let cmp = |a: &Record, b: &Record| {
            a.0.cmp(&b.0).then_with(|| match terminators(&a.0) {
                Some(_) => Ordering::Equal,
                None => sides(a.1).cmp(&sides(b.1)),
            })
        };
        let (mut n_clauses, mut n_lits) = (0, 0);
        let mut lo = 0;
        for &hi in &next {
            let bucket = &mut records[lo..hi as usize];
            lo = hi as usize;
            if !bucket.is_sorted_by(|a, b| cmp(a, b).is_le()) {
                bucket.sort_unstable_by(cmp);
            }
            let mut kept: Option<Record> = None;
            for r in bucket {
                if kept.is_some_and(|k| cmp(&k, r).is_eq()) {
                    r.1 = DUPLICATE;
                    continue;
                }
                kept = Some(*r);
                n_clauses += 1;
                n_lits += match terminators(&r.0) {
                    // The symbols before the second `0`, less the first `0`.
                    Some((_, neg_end)) => neg_end - 1,
                    None => {
                        let (pos, neg) = sides(r.1);
                        pos.len() + neg.len()
                    }
                };
            }
        }

        let mut cnf = Cnf::with_capacity(universe.len(), n_clauses, n_lits);
        let mut lits = Vec::new();
        for &(key, id) in &records {
            if id == DUPLICATE {
                continue;
            }
            let decoded = key.map(|s| s.wrapping_sub(1));
            let (pos, neg) = match terminators(&key) {
                Some((pos_end, neg_end)) => (&decoded[..pos_end], &decoded[pos_end + 1..neg_end]),
                None => sides(id),
            };
            negate(pos, neg, &mut lits);
            cnf.add_clause_presorted(&lits);
        }
        ProvFormula { universe, cnf }
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
/// (missing symbols are `0`). The terminators make the symbol sequence
/// compare exactly like `(pos, neg)`; keys that tie need a full comparison
/// only when both clauses run past four symbols.
fn sort_key(pos: &[u32], neg: &[u32]) -> [u32; 4] {
    let symbols = pos
        .iter()
        .map(|&r| r + 1)
        .chain([0])
        .chain(neg.iter().map(|&r| r + 1));
    let mut key = [0; 4];
    for (slot, s) in key.iter_mut().zip(symbols) {
        *slot = s;
    }
    key
}

/// Where a key holds both terminators, i.e. the whole clause (at most two
/// tuples): the positions of the two `0`s. `pos` ranks are the symbols
/// before the first, `neg` ranks those between the two, each minus one.
fn terminators(key: &[u32; 4]) -> Option<(usize, usize)> {
    let pos_end = key.iter().position(|&s| s == 0)?;
    let neg_len = key[pos_end + 1..].iter().position(|&s| s == 0)?;
    Some((pos_end, pos_end + 1 + neg_len))
}

/// Write the negation of one clause of `F` into `lits`:
/// `¬(pos present ∧ neg deleted) = ⋁ del(pos) ∨ ⋁ ¬del(neg)`. Both sides
/// ascend and are disjoint (contradictions were dropped), so merging the
/// two runs yields a sorted, duplicate-free, tautology-free clause.
fn negate(pos: &[u32], neg: &[u32], lits: &mut Vec<Lit>) {
    lits.clear();
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
}

impl ProvFormula {
    /// Number of clauses.
    pub fn len(&self) -> usize {
        self.cnf.num_clauses()
    }

    /// True when `F` is empty (the database is vacuously stable).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
    pub fn negated_cnf(&self) -> &Cnf {
        &self.cnf
    }

    /// Does a deletion set stabilize the database according to the formula?
    /// `deleted[r]` says whether the tuple of rank `r` is deleted; `¬F`
    /// must hold. Used by tests to cross-check the evaluator's stability
    /// decision.
    pub fn stable_under(&self, deleted: &[bool]) -> bool {
        self.cnf.eval(deleted)
    }

    /// Render the negated formula `¬F` the way Example 5.1 prints it, with
    /// tuples shown as `Rel(v, …)`: each clause's present tuples, negated,
    /// then its deleted ones.
    pub fn render_negation(&self, db: &Instance) -> String {
        let mut out = String::new();
        for (i, clause) in self.cnf.clauses().enumerate() {
            if i > 0 {
                out.push_str(" ∧ ");
            }
            out.push('(');
            let present = clause.iter().filter(|l| !l.is_neg());
            let deleted = clause.iter().filter(|l| l.is_neg());
            for (j, l) in present.chain(deleted).enumerate() {
                if j > 0 {
                    out.push_str(" ∨ ");
                }
                if !l.is_neg() {
                    out.push('¬');
                }
                out.push_str(&db.display_tuple(self.universe[l.var() as usize]));
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
    use std::collections::{HashMap, HashSet};

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

    /// The clauses of `F`, each as its present (`pos`) and deleted (`neg`)
    /// tuples, read back from `¬F`.
    fn tuple_clauses(f: &ProvFormula) -> Vec<(Vec<TupleId>, Vec<TupleId>)> {
        let u = f.universe();
        let side = |c: &[Lit], deleted: bool| {
            c.iter()
                .filter(|l| l.is_neg() == deleted)
                .map(|l| u[l.var() as usize])
                .collect()
        };
        f.negated_cnf()
            .clauses()
            .map(|c| (side(c, false), side(c, true)))
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

    /// A random assignment stream: bodies drawn from a pool (so duplicates
    /// recur far apart), over three relations and few rows (so sides repeat
    /// tuples and contradictions occur), with each binding's side chosen at
    /// random (so all-`pos` bodies occur) and one body in eight all-delta
    /// (first symbol `0`). Half the streams are short; the other half draw
    /// up to 2,000 assignments from up to 300 bodies of up to six atoms, so
    /// that buckets hold hundreds of clauses and four-symbol keys tie.
    fn arb_stream() -> impl Strategy<Value = Vec<Assignment>> {
        proptest::strategy_fn(|rng: &mut TestRng| {
            let (bodies, atoms, len) = if rng.below(2) == 0 {
                (12, 5, 40)
            } else {
                (300, 6, 2_000)
            };
            let pool: Vec<Assignment> = (0..1 + rng.below(bodies))
                .map(|_| {
                    let all_delta = rng.below(8) == 0;
                    let body: Vec<(u16, u32, bool)> = (0..1 + rng.below(atoms))
                        .map(|_| {
                            let rel = rng.below(3) as u16;
                            let row = ROWS[rng.below(ROWS.len() as u64) as usize];
                            (rel, row, all_delta || rng.below(2) == 1)
                        })
                        .collect();
                    assignment(rng.below(4) as usize, &body)
                })
                .collect();
            (0..rng.below(len + 1))
                .map(|_| pool[rng.below(pool.len() as u64) as usize].clone())
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The arena pipeline yields the reference's clause count,
        /// universe and CNF, clause by clause, whether the stream arrives
        /// as drawn, sorted or reversed.
        #[test]
        fn arena_matches_reference_pipeline(stream in arb_stream()) {
            let (len, universe, cnf) = reference_cnf(&stream);
            let expected: Vec<&[Lit]> = cnf.clauses().collect();
            let mut sorted = stream.clone();
            sorted.sort_by_key(|a| a.body.iter().map(|b| (b.tid, b.is_delta)).collect::<Vec<_>>());
            let reversed: Vec<Assignment> = stream.iter().rev().cloned().collect();
            for (order, s) in [("drawn", &stream), ("sorted", &sorted), ("reversed", &reversed)] {
                let f = formula(s);
                prop_assert_eq!(f.len(), len, "{}", order);
                prop_assert_eq!(f.universe(), &universe[..], "{}", order);
                let got = f.negated_cnf();
                prop_assert_eq!(got.num_vars(), cnf.num_vars(), "{}", order);
                prop_assert_eq!(got.clauses().collect::<Vec<_>>(), expected.clone(), "{}", order);
            }
        }
    }

    #[test]
    fn sort_key_orders_like_the_sides() {
        // Shorter-prefix sides sort first (terminator 0 < any rank + 1),
        // and a clause past four symbols falls back to the full compare.
        let clauses: [(&[u32], &[u32]); 7] = [
            (&[], &[]),
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
            sort_key(clauses[5].0, clauses[5].1),
            sort_key(clauses[6].0, clauses[6].1)
        );
        // Clauses of at most two tuples decode from their keys alone.
        for (pos, neg) in &clauses[..5] {
            let k = sort_key(pos, neg);
            let (pos_end, neg_end) = terminators(&k).expect("whole clause in the key");
            let ranks = k.map(|s| s.wrapping_sub(1));
            assert_eq!(
                (&ranks[..pos_end], &ranks[pos_end + 1..neg_end]),
                (*pos, *neg)
            );
        }
        assert_eq!(terminators(&sort_key(clauses[5].0, clauses[5].1)), None);
        assert_eq!(terminators(&sort_key(&[0, 1, 2], &[])), None);
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
        assert_eq!(f.universe(), [tid(0, 0), tid(0, 1)]);
        assert!(
            f.stable_under(&[false, false]),
            "B not deleted: clause unsatisfied"
        );
        assert!(
            !f.stable_under(&[false, true]),
            "A present, B deleted: violated"
        );
        assert!(
            f.stable_under(&[true, true]),
            "deleting A voids the assignment"
        );
    }
}
