//! Min-Ones orchestration: simplification, component decomposition,
//! per-component branch & bound, and recombination.

use crate::cnf::{Cnf, Lit, Var};
use crate::solver::BnB;

/// Solver options. The defaults are the full algorithm; switching features
/// off is how the ablation benchmarks isolate their contribution.
#[derive(Clone, Copy, Debug)]
pub struct MinOnesOptions {
    /// Split the residual formula into connected components and add up their
    /// independent minima.
    pub decompose: bool,
    /// Maximum decision nodes per component before giving up on optimality
    /// and returning the incumbent.
    pub node_budget: u64,
    /// Stop each component at its first (`False`-first descent) solution —
    /// a fast approximation instead of the exact minimum.
    pub first_solution_only: bool,
}

impl Default for MinOnesOptions {
    fn default() -> Self {
        MinOnesOptions {
            decompose: true,
            node_budget: u64::MAX,
            first_solution_only: false,
        }
    }
}

/// Aggregate statistics of one solve.
#[derive(Clone, Copy, Debug, Default)]
pub struct Stats {
    /// Decision nodes across components.
    pub decisions: u64,
    /// Unit/pure assignments made by top-level simplification.
    pub simplified: usize,
    /// Variables fixed to `False` by the dominance rule during top-level
    /// simplification.
    pub dominated: usize,
    /// Number of connected components solved.
    pub components: usize,
    /// Size of the largest component (variables).
    pub largest_component: usize,
}

impl Stats {
    /// Fold another solve's statistics into these: counts add up, the
    /// largest component is the larger of the two.
    pub fn absorb(&mut self, other: &Stats) {
        self.decisions += other.decisions;
        self.simplified += other.simplified;
        self.dominated += other.dominated;
        self.components += other.components;
        self.largest_component = self.largest_component.max(other.largest_component);
    }
}

/// A satisfying assignment minimizing the number of `True` variables.
#[derive(Clone, Debug)]
pub struct Solution {
    /// Value per variable. Variables not occurring in any clause are
    /// `false`.
    pub values: Vec<bool>,
    /// Number of `True` variables.
    pub ones: usize,
    /// Whether the count is proven minimal (no budget/approximation cut-off
    /// fired).
    pub optimal: bool,
    /// Solve statistics.
    pub stats: Stats,
}

/// Outcome of [`solve_min_ones`].
#[derive(Clone, Debug)]
pub enum Outcome {
    /// The formula is satisfiable; the best assignment found.
    Sat(Solution),
    /// The formula is unsatisfiable.
    Unsat,
}

impl Outcome {
    /// The solution, if satisfiable.
    pub fn solution(self) -> Option<Solution> {
        match self {
            Outcome::Sat(s) => Some(s),
            Outcome::Unsat => None,
        }
    }
}

const UNSET: i8 = -1;

/// Is some literal of `c` made true by `fixed`?
fn satisfied(c: &[Lit], fixed: &[i8]) -> bool {
    c.iter().any(|l| {
        let f = fixed[l.var() as usize];
        f != UNSET && (f == 1) == l.satisfying_value()
    })
}

/// The open part of a formula under a partial assignment, in CSR layout:
/// clause `i` is `lits[off[i]..off[i + 1]]`. It keeps the clauses no fixed
/// literal satisfies and, in them, the unfixed literals, both in source
/// order — no per-clause allocation.
struct Residual {
    off: Vec<u32>,
    lits: Vec<Lit>,
}

impl Residual {
    /// The open part of `cnf` under `fixed`.
    fn of(cnf: &Cnf, fixed: &[i8]) -> Residual {
        let mut res = Residual {
            off: vec![0],
            lits: Vec::new(),
        };
        for c in cnf.clauses().filter(|c| !satisfied(c, fixed)) {
            res.lits.extend(
                c.iter()
                    .copied()
                    .filter(|l| fixed[l.var() as usize] == UNSET),
            );
            debug_assert!(
                res.lits.len() - *res.off.last().expect("non-empty") as usize >= 2,
                "units handled by simplification"
            );
            res.off.push(res.lits.len() as u32);
        }
        res
    }

    /// Restrict to the open part under `fixed` again, in place.
    fn compact(&mut self, fixed: &[i8]) {
        let (mut kept, mut w) = (0, 0);
        let mut start = 0;
        for ci in 0..self.len() {
            // Read the end before `off[kept]` (kept <= ci + 1) is rewritten.
            let end = self.off[ci + 1] as usize;
            if !satisfied(&self.lits[start..end], fixed) {
                for i in start..end {
                    let l = self.lits[i];
                    if fixed[l.var() as usize] == UNSET {
                        self.lits[w] = l;
                        w += 1;
                    }
                }
                kept += 1;
                self.off[kept] = w as u32;
                debug_assert!(
                    w - self.off[kept - 1] as usize >= 2,
                    "units handled by simplification"
                );
            }
            start = end;
        }
        self.off.truncate(kept + 1);
        self.lits.truncate(w);
    }

    fn len(&self) -> usize {
        self.off.len() - 1
    }

    #[inline]
    fn clause(&self, i: usize) -> &[Lit] {
        &self.lits[self.off[i] as usize..self.off[i + 1] as usize]
    }

    fn clauses(&self) -> impl Iterator<Item = &[Lit]> + '_ {
        (0..self.len()).map(|i| self.clause(i))
    }
}

/// Unit propagation plus the positive-purity rule (a variable with no
/// positive occurrence in any not-yet-satisfied clause can always be
/// `False` — `False` costs nothing and only satisfies clauses), to
/// fixpoint over the clauses `clauses()` yields. Returns `false` on UNSAT.
///
/// Deep cascades drive this to fixpoint over many iterations (each unit
/// chain link enables the next), so the loop body is one unit pass plus
/// one merged purity/occurrence pass, over buffers allocated once.
fn propagate<'c, I: Iterator<Item = &'c [Lit]>>(
    clauses: impl Fn() -> I,
    fixed: &mut [i8],
    simplified: &mut usize,
) -> bool {
    let n = fixed.len();
    let mut pos_occ = vec![false; n];
    let mut occurs = vec![false; n];
    loop {
        let mut changed = false;
        // Unit propagation over the current partial assignment.
        for c in clauses() {
            let mut satisfied = false;
            let mut unassigned: Option<Lit> = None;
            let mut n_unassigned = 0;
            for &l in c.iter() {
                match fixed[l.var() as usize] {
                    UNSET => {
                        n_unassigned += 1;
                        unassigned = Some(l);
                    }
                    v => {
                        if (v == 1) == l.satisfying_value() {
                            satisfied = true;
                            break;
                        }
                    }
                }
            }
            if satisfied {
                continue;
            }
            match n_unassigned {
                0 => return false,
                1 => {
                    let l = unassigned.expect("counted");
                    fixed[l.var() as usize] = l.satisfying_value() as i8;
                    *simplified += 1;
                    changed = true;
                }
                _ => {}
            }
        }
        // Positive purity: a variable that occurs in some unsatisfied
        // clause but never positively there is safely `False`. One pass
        // computes both occurrence sets.
        pos_occ.iter_mut().for_each(|b| *b = false);
        occurs.iter_mut().for_each(|b| *b = false);
        for c in clauses() {
            if satisfied(c, fixed) {
                continue;
            }
            for &l in c.iter() {
                if fixed[l.var() as usize] == UNSET {
                    occurs[l.var() as usize] = true;
                    if !l.is_neg() {
                        pos_occ[l.var() as usize] = true;
                    }
                }
            }
        }
        for v in 0..n {
            if fixed[v] == UNSET && occurs[v] && !pos_occ[v] {
                fixed[v] = 0;
                *simplified += 1;
                changed = true;
            }
        }
        if !changed {
            return true;
        }
    }
}

/// One round of the set-cover dominance rule over a compacted residual;
/// returns the number of variables it fixed to `False`.
///
/// Let `x` and `y` be distinct unfixed variables with no negative literal
/// in any open clause. If every open clause containing `x` also contains
/// `y`, some minimum model has `x = False`: in a model with `x = True`, set
/// `x` to `False` and `y` to `True`. Every clause of `x` stays satisfied
/// through `y`, nothing is falsified because `y` occurs only positively,
/// and the number of ones does not grow.
///
/// Variables are visited in ascending order, and a witness `y` is sought
/// only in `x`'s shortest open clause, among variables with at least as
/// many occurrences; of two variables with equal occurrence sets the
/// lower-numbered one is kept. A fix only removes `x`'s literals and
/// satisfies no clause, so the counts stay valid through the round, and a
/// chain of dominations resolves in one pass. Each visit costs the length
/// of `x`'s clauses.
fn dominate(res: &Residual, fixed: &mut [i8]) -> usize {
    let n = fixed.len();
    let mut count = vec![0u32; n];
    let mut has_neg = vec![false; n];
    for &l in &res.lits {
        if l.is_neg() {
            has_neg[l.var() as usize] = true;
        } else {
            count[l.var() as usize] += 1;
        }
    }
    // Occurrence lists of the positive-only variables, in clause order.
    let mut occ_off = vec![0u32; n + 1];
    for v in 0..n {
        occ_off[v + 1] = occ_off[v] + if has_neg[v] { 0 } else { count[v] };
    }
    let mut cursor: Vec<u32> = occ_off[..n].to_vec();
    let mut occ = vec![0u32; occ_off[n] as usize];
    for (ci, c) in res.clauses().enumerate() {
        for &l in c {
            let v = l.var() as usize;
            if !has_neg[v] {
                occ[cursor[v] as usize] = ci as u32;
                cursor[v] += 1;
            }
        }
    }
    // `cursor` is spent; reuse it as the per-candidate hit counter.
    let hits = &mut cursor;
    let mut stamp = vec![u32::MAX; n];
    let mut fixed_now = 0;
    for x in 0..n {
        if has_neg[x] || count[x] == 0 || fixed[x] != UNSET {
            continue;
        }
        let occ_x = &occ[occ_off[x] as usize..occ_off[x + 1] as usize];
        let shortest = res.clause(
            *occ_x
                .iter()
                .min_by_key(|&&ci| res.clause(ci as usize).len())
                .expect("count > 0") as usize,
        );
        let mut candidates = false;
        for &l in shortest {
            let y = l.var() as usize;
            if y != x
                && !has_neg[y]
                && fixed[y] == UNSET
                && (count[y] > count[x] || (count[y] == count[x] && y < x))
            {
                stamp[y] = x as u32;
                hits[y] = 0;
                candidates = true;
            }
        }
        if !candidates {
            continue;
        }
        for &ci in occ_x {
            for &l in res.clause(ci as usize) {
                let y = l.var() as usize;
                if stamp[y] == x as u32 {
                    hits[y] += 1;
                }
            }
        }
        let dominated = shortest.iter().any(|l| {
            let y = l.var() as usize;
            stamp[y] == x as u32 && hits[y] == count[x]
        });
        if dominated {
            fixed[x] = 0;
            fixed_now += 1;
        }
    }
    fixed_now
}

/// Top-level simplification: units and purity to fixpoint over `cnf`, then
/// rounds of dominance ([`dominate`]) each followed by units and purity,
/// over one residual compacted after every round, until a dominance round
/// fixes nothing. Returns the residual the search works on, or `None` on
/// UNSAT. When dominance never fires, the residual is exactly the open
/// part left by units and purity alone.
fn simplify(cnf: &Cnf, fixed: &mut [i8], stats: &mut Stats) -> Option<Residual> {
    if !propagate(|| cnf.clauses(), fixed, &mut stats.simplified) {
        return None;
    }
    let mut res = Residual::of(cnf, fixed);
    loop {
        let fixed_now = dominate(&res, fixed);
        if fixed_now == 0 {
            return Some(res);
        }
        stats.dominated += fixed_now;
        if !propagate(|| res.clauses(), fixed, &mut stats.simplified) {
            return None;
        }
        res.compact(fixed);
    }
}

struct DisjointSet {
    parent: Vec<u32>,
}

impl DisjointSet {
    fn new(n: usize) -> DisjointSet {
        DisjointSet {
            parent: (0..n as u32).collect(),
        }
    }
    fn find(&mut self, x: u32) -> u32 {
        let mut root = x;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        let mut cur = x;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }
    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra as usize] = rb;
        }
    }
}

/// One component's branch & bound outcome, retry included.
struct ComponentResult {
    best: Option<(Vec<bool>, u32)>,
    complete: bool,
    decisions: u64,
}

/// Solve one connected component: the budgeted search first and, when the
/// budget expired before the first incumbent (which says nothing about
/// satisfiability), a pure greedy first-solution descent — it stops at its
/// first leaf and only completes exhaustively when the component is
/// genuinely unsatisfiable.
fn solve_component(
    n_local: usize,
    local_off: &[u32],
    local_lits: &[Lit],
    opts: &MinOnesOptions,
) -> ComponentResult {
    let result = BnB::new(
        n_local,
        local_off,
        local_lits,
        opts.node_budget,
        opts.first_solution_only,
    )
    .solve();
    let mut decisions = result.stats.decisions;
    let result = if result.best.is_none() && !result.complete {
        let retry = BnB::new(n_local, local_off, local_lits, u64::MAX, true).solve();
        decisions += retry.stats.decisions;
        retry
    } else {
        result
    };
    ComponentResult {
        best: result.best,
        complete: result.complete,
        decisions,
    }
}

/// Solve Min-Ones SAT for `cnf` under `opts`.
pub fn solve_min_ones(cnf: &Cnf, opts: &MinOnesOptions) -> Outcome {
    if cnf.trivially_unsat() {
        return Outcome::Unsat;
    }
    let n = cnf.num_vars();
    let mut stats = Stats::default();
    let mut fixed = vec![UNSET; n];
    let Some(res) = simplify(cnf, &mut fixed, &mut stats) else {
        return Outcome::Unsat;
    };
    let n_residual = res.len();

    let mut values: Vec<bool> = fixed.iter().map(|&f| f == 1).collect();
    let mut optimal = true;

    if n_residual > 0 {
        // Group residual clauses into variable components.
        let mut dsu = DisjointSet::new(n);
        for ci in 0..n_residual {
            for w in res.clause(ci).windows(2) {
                dsu.union(w[0].var(), w[1].var());
            }
        }
        use storage::FxHashMap;
        let mut groups: FxHashMap<u32, Vec<usize>> = FxHashMap::default();
        for ci in 0..n_residual {
            let root = dsu.find(res.clause(ci)[0].var());
            groups.entry(root).or_default().push(ci);
        }
        let mut components: Vec<Vec<usize>> = if opts.decompose {
            groups.into_values().collect()
        } else {
            vec![(0..n_residual).collect()]
        };
        // Deterministic order (HashMap order is not).
        components.sort_by_key(|cs| res.clause(cs[0])[0].var());
        stats.components = components.len();
        // Local numbering buffers, reused across components. `local_of`
        // uses a generation stamp instead of clearing between components.
        let mut local_of: Vec<Var> = vec![0; n];
        let mut local_gen: Vec<u32> = vec![0; n];
        let mut generation = 0u32;
        let mut global_of: Vec<Var> = Vec::new();
        let mut local_off: Vec<u32> = Vec::new();
        let mut local_lits: Vec<Lit> = Vec::new();

        for clause_ids in components {
            // Renumber the component's clauses to a dense local variable
            // range: `global_of` maps local index → global var,
            // `local_off`/`local_lits` are the local CSR.
            generation += 1;
            global_of.clear();
            local_off.clear();
            local_off.push(0);
            local_lits.clear();
            for &ci in &clause_ids {
                for &l in res.clause(ci) {
                    let v = l.var() as usize;
                    if local_gen[v] != generation {
                        local_gen[v] = generation;
                        local_of[v] = global_of.len() as Var;
                        global_of.push(l.var());
                    }
                    let lv = local_of[v];
                    local_lits.push(if l.is_neg() {
                        Lit::neg(lv)
                    } else {
                        Lit::pos(lv)
                    });
                }
                local_off.push(local_lits.len() as u32);
            }
            stats.largest_component = stats.largest_component.max(global_of.len());
            let result = solve_component(global_of.len(), &local_off, &local_lits, opts);
            stats.decisions += result.decisions;
            let Some((assignment, _)) = result.best else {
                return Outcome::Unsat;
            };
            if !result.complete {
                optimal = false;
            }
            for (lv, &gv) in global_of.iter().enumerate() {
                values[gv as usize] = assignment[lv];
            }
        }
    }

    debug_assert!(cnf.eval(&values), "solver returned a non-model");
    let ones = values.iter().filter(|&&b| b).count();
    Outcome::Sat(Solution {
        values,
        ones,
        optimal,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cnf(n: usize, clauses: &[&[Lit]]) -> Cnf {
        let mut f = Cnf::new(n);
        for c in clauses {
            f.add_clause(c);
        }
        f
    }

    fn ones_of(n: usize, clauses: &[&[Lit]]) -> Option<usize> {
        solve_min_ones(&cnf(n, clauses), &MinOnesOptions::default())
            .solution()
            .map(|s| s.ones)
    }

    #[test]
    fn empty_formula_is_all_false() {
        assert_eq!(ones_of(4, &[]), Some(0));
    }

    #[test]
    fn triangle_plus_triangle_decomposes() {
        let l = |v| Lit::pos(v);
        let clauses: Vec<Vec<Lit>> = vec![
            vec![l(0), l(1)],
            vec![l(1), l(2)],
            vec![l(2), l(0)],
            vec![l(3), l(4)],
            vec![l(4), l(5)],
            vec![l(5), l(3)],
        ];
        let refs: Vec<&[Lit]> = clauses.iter().map(Vec::as_slice).collect();
        let f = cnf(6, &refs);
        let sol = solve_min_ones(&f, &MinOnesOptions::default())
            .solution()
            .unwrap();
        assert_eq!(sol.ones, 4);
        assert_eq!(sol.stats.components, 2);
        assert!(sol.optimal);

        // Same answer without decomposition.
        let sol2 = solve_min_ones(
            &f,
            &MinOnesOptions {
                decompose: false,
                ..Default::default()
            },
        )
        .solution()
        .unwrap();
        assert_eq!(sol2.ones, 4);
        assert_eq!(sol2.stats.components, 1);
    }

    #[test]
    fn forced_deletions_via_units() {
        // del(g2) forced; (del(a) ∨ del(ag) ∨ ¬del(g2)) then needs one more.
        let g2: Var = 0;
        let a: Var = 1;
        let ag: Var = 2;
        let sol = solve_min_ones(
            &cnf(
                3,
                &[&[Lit::pos(g2)], &[Lit::pos(a), Lit::pos(ag), Lit::neg(g2)]],
            ),
            &MinOnesOptions::default(),
        )
        .solution()
        .unwrap();
        assert_eq!(sol.ones, 2);
        assert!(sol.values[g2 as usize]);
    }

    #[test]
    fn unsat_detected() {
        assert_eq!(ones_of(1, &[&[Lit::pos(0)], &[Lit::neg(0)]]), None);
    }

    #[test]
    fn pure_negative_vars_cost_nothing() {
        // (¬a ∨ ¬b) with nothing forcing them: 0 ones.
        assert_eq!(ones_of(2, &[&[Lit::neg(0), Lit::neg(1)]]), Some(0));
    }

    #[test]
    fn first_solution_only_is_marked_non_optimal_when_search_is_cut() {
        let l = |v| Lit::pos(v);
        let clauses: Vec<Vec<Lit>> = vec![vec![l(0), l(1)], vec![l(1), l(2)], vec![l(2), l(0)]];
        let refs: Vec<&[Lit]> = clauses.iter().map(Vec::as_slice).collect();
        let sol = solve_min_ones(
            &cnf(3, &refs),
            &MinOnesOptions {
                first_solution_only: true,
                ..Default::default()
            },
        )
        .solution()
        .unwrap();
        // Still a model, possibly not minimal.
        assert!(sol.ones >= 2);
        assert!(!sol.optimal);
    }

    #[test]
    fn unconstrained_variables_default_false() {
        let sol = solve_min_ones(&cnf(10, &[&[Lit::pos(3)]]), &MinOnesOptions::default())
            .solution()
            .unwrap();
        assert_eq!(sol.ones, 1);
        assert!(sol.values[3]);
        assert!(sol.values.iter().enumerate().all(|(i, &v)| v == (i == 3)));
    }

    fn solve(n: usize, clauses: &[&[Lit]]) -> Solution {
        solve_min_ones(&cnf(n, clauses), &MinOnesOptions::default())
            .solution()
            .expect("satisfiable")
    }

    #[test]
    fn covered_variable_is_dominated() {
        // (x ∨ y)(y ∨ z): y is in every clause of x, so x := False; z is
        // covered by y the same way. Then (y) is a unit.
        let (x, y, z) = (0, 1, 2);
        let clauses: [&[Lit]; 2] = [&[Lit::pos(x), Lit::pos(y)], &[Lit::pos(y), Lit::pos(z)]];
        let mut fixed = vec![UNSET; 3];
        assert_eq!(
            dominate(&Residual::of(&cnf(3, &clauses), &fixed), &mut fixed),
            2
        );
        assert_eq!(fixed, [0, UNSET, 0]);
        let sol = solve(3, &clauses);
        assert_eq!(sol.values, [false, true, false]);
        assert_eq!((sol.stats.dominated, sol.stats.decisions), (2, 0));
        assert!(sol.optimal);
    }

    #[test]
    fn witness_with_a_negative_occurrence_does_not_dominate() {
        // (x ∨ y)(¬y ∨ w): y covers x's clause but occurs negatively.
        // Fixing x := False would force y and then w — 2 ones against the
        // optimum's 1 (x alone).
        let (x, y, w) = (0, 1, 2);
        let sol = solve(
            3,
            &[&[Lit::pos(x), Lit::pos(y)], &[Lit::neg(y), Lit::pos(w)]],
        );
        assert_eq!(sol.stats.dominated, 0);
        assert_eq!(sol.ones, 1);
        assert_eq!(sol.values, [true, false, false]);
    }

    #[test]
    fn equal_occurrence_sets_keep_the_lower_variable() {
        // (x0 ∨ x1): each covers the other; x1 goes, x0 becomes a unit.
        let sol = solve(2, &[&[Lit::pos(0), Lit::pos(1)]]);
        assert_eq!(sol.values, [true, false]);
        assert_eq!((sol.stats.dominated, sol.stats.decisions), (1, 0));
    }

    #[test]
    fn dominance_chain_resolves_in_one_round() {
        // occ(x0) ⊂ occ(x1) ⊂ occ(x2), and x3, x4 each share one clause
        // with x2. Ascending order fixes x0 (by x1 or x2), then x1 (by x2),
        // then x3 and x4 — four fixes in a single round.
        let l = Lit::pos;
        let clauses: [&[Lit]; 4] = [
            &[l(0), l(1), l(2)],
            &[l(1), l(2)],
            &[l(2), l(3)],
            &[l(2), l(4)],
        ];
        let f = cnf(5, &clauses);
        let mut fixed = vec![UNSET; 5];
        assert_eq!(dominate(&Residual::of(&f, &fixed), &mut fixed), 4);
        assert_eq!(fixed, [0, 0, UNSET, 0, 0]);
        let sol = solve(5, &clauses);
        assert_eq!(sol.values, [false, false, true, false, false]);
        assert_eq!((sol.stats.dominated, sol.stats.decisions), (4, 0));
    }

    #[test]
    fn compaction_matches_a_fresh_restriction() {
        // Fix variables of a residual, compact it in place, and compare
        // with the open part built from the formula under the same fixes.
        let l = Lit::pos;
        let f = cnf(
            6,
            &[
                &[l(0), l(1), l(2)],
                &[l(1), Lit::neg(3), l(4)],
                &[l(2), l(5)],
                &[l(3), l(4), l(5)],
            ],
        );
        let mut fixed = vec![UNSET; 6];
        let mut res = Residual::of(&f, &fixed);
        fixed[1] = 1; // satisfies clauses 0 and 1
        fixed[5] = 0; // shortens clause 3 (and clause 2 to a unit)
        fixed[2] = 1; // satisfies clause 2
        res.compact(&fixed);
        let fresh = Residual::of(&f, &fixed);
        assert_eq!((&res.off, &res.lits), (&fresh.off, &fresh.lits));
        assert_eq!(res.clauses().collect::<Vec<_>>(), [&[l(3), l(4)][..]]);
    }

    /// Brute-force reference: minimum ones over all 2^n assignments.
    fn brute_min_ones(f: &Cnf) -> Option<usize> {
        let n = f.num_vars();
        let mut best: Option<usize> = None;
        for bits in 0u32..(1 << n) {
            let assignment: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
            if f.eval(&assignment) {
                let ones = assignment.iter().filter(|&&b| b).count();
                best = Some(best.map_or(ones, |b: usize| b.min(ones)));
            }
        }
        best
    }

    #[test]
    fn matches_brute_force_on_small_formulas() {
        // Deterministic pseudo-random 3-CNF instances.
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _case in 0..60 {
            let n = 3 + (next() % 6) as usize; // 3..8 vars
            let m = 2 + (next() % 10) as usize; // 2..11 clauses
            let mut f = Cnf::new(n);
            for _ in 0..m {
                let len = 1 + (next() % 3) as usize;
                let lits: Vec<Lit> = (0..len)
                    .map(|_| {
                        let v = (next() % n as u64) as Var;
                        if next() % 2 == 0 {
                            Lit::pos(v)
                        } else {
                            Lit::neg(v)
                        }
                    })
                    .collect();
                f.add_clause(&lits);
            }
            let expected = brute_min_ones(&f);
            let got = solve_min_ones(&f, &MinOnesOptions::default());
            match (expected, got) {
                (None, Outcome::Unsat) => {}
                (Some(e), Outcome::Sat(s)) => {
                    assert_eq!(s.ones, e, "formula: {f:?}");
                    assert!(f.eval(&s.values));
                }
                (e, g) => panic!("mismatch: brute={e:?} solver={g:?} formula={f:?}"),
            }
        }
    }
}
