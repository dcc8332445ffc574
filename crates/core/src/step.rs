//! Step semantics (Definition 3.5) — Algorithm 2 plus an exact reference.
//!
//! Step semantics fires one rule assignment at a time and updates the
//! database immediately; its result is the minimum deleted set over all
//! firing sequences, which is NP-hard to compute (Proposition 4.2). The
//! paper's **Algorithm 2** is a greedy heuristic over the end-semantics
//! provenance graph: walk the layers in order and repeatedly select the
//! tuple with the largest *benefit* whose delta node is still derivable,
//! pruning everything whose derivations the selection voided.
//!
//! [`optimal`] is an exponential exact search over firing sequences used by
//! tests and the greedy-vs-exact ablation bench to measure how close the
//! heuristic gets.

use crate::end;
use crate::result::PhaseBreakdown;
use datalog::{Evaluator, Mode};
use provenance::ProvGraph;
use std::collections::HashSet;
use std::time::Instant;
use storage::{Instance, State, TupleId};

/// Outcome of the greedy Algorithm 2.
#[derive(Debug)]
pub struct StepOutcome {
    /// Final state after deleting the selected set.
    pub state: State,
    /// `Step(P, D)` as computed by the greedy heuristic, sorted.
    pub deleted: Vec<TupleId>,
    /// Eval (end semantics + provenance), Process Prov (graph build),
    /// Traverse (greedy loop) — Figure 8's categories for Algorithm 2.
    pub breakdown: PhaseBreakdown,
    /// Did the traversal *prove* its answer minimum? `true` when the
    /// database was already stable, or when the provenance graph is
    /// interaction-free ([`ProvGraph::is_interaction_free`]: a forest of
    /// pure cascades, where every firing sequence deletes the same set).
    /// `false` means heuristic — not necessarily suboptimal, just
    /// uncertified.
    pub optimal: bool,
    /// The end-semantics assignment stream Algorithm 2 consumed (moved
    /// out rather than recomputed, for callers that also want provenance).
    pub assignments: Vec<datalog::Assignment>,
    /// 1-based derivation round of each delta tuple.
    pub layers: std::collections::HashMap<TupleId, u32>,
}

/// Run Algorithm 2.
pub fn run_greedy(db: &Instance, ev: &Evaluator) -> StepOutcome {
    let t0 = Instant::now();
    let end_out = end::run(db, ev);
    let eval = t0.elapsed();

    let t1 = Instant::now();
    let mut graph = ProvGraph::build(&end_out.assignments, &end_out.layers);
    // The certificate reads the static edge lists; decide it before the
    // traversal mutates liveness. The program-level certificate
    // (`datalog::lint::certify`) implies the runtime one on every database
    // — OR it in so the verdict never depends on which databases happen to
    // materialize interactions.
    let interaction_free =
        graph.is_interaction_free() || datalog::lint::certify(ev.program()).interaction_free;
    let process = t1.elapsed();

    let t2 = Instant::now();
    let mut selected: Vec<TupleId> = Vec::new();
    for layer in 1..=graph.num_layers() {
        // Benefits never change during selection (they read the static
        // edge lists), so "repeatedly take the max-benefit live candidate"
        // equals one descending sort of the layer followed by a single
        // sweep that skips nodes pruned by earlier selections — identical
        // selection order at a fraction of the rescans.
        let mut candidates = graph.alive_unselected_in_layer(layer);
        candidates.sort_by_cached_key(|&t| (std::cmp::Reverse(graph.benefit(t)), t));
        for t in candidates {
            if graph.is_alive(t) {
                selected.push(t);
                graph.select(t);
            }
        }
    }
    let solve = t2.elapsed();

    selected.sort_unstable();
    let mut state = db.initial_state();
    for &t in &selected {
        state.delete(t);
    }
    let optimal = selected.is_empty() || interaction_free;
    StepOutcome {
        state,
        deleted: selected,
        breakdown: PhaseBreakdown {
            eval,
            process,
            solve,
        },
        optimal,
        assignments: end_out.assignments,
        layers: end_out.layers,
    }
}

/// Exact step semantics by exhaustive search over firing sequences.
///
/// Explores the space of reachable deletion sets (a state is fully
/// determined by its deleted set); prunes branches already at least as large
/// as the incumbent. Returns `None` when more than `max_states` distinct
/// states would be explored — use only on small instances.
pub fn optimal(db: &Instance, ev: &Evaluator, max_states: usize) -> Option<Vec<TupleId>> {
    let mut best: Option<Vec<TupleId>> = None;
    let mut visited: HashSet<Vec<TupleId>> = HashSet::new();
    let mut state = db.initial_state();
    let mut deleted: Vec<TupleId> = Vec::new();
    let exhausted = dfs(
        db,
        ev,
        &mut state,
        &mut deleted,
        &mut visited,
        &mut best,
        max_states,
    );
    if exhausted {
        best
    } else {
        None
    }
}

fn dfs(
    db: &Instance,
    ev: &Evaluator,
    state: &mut State,
    deleted: &mut Vec<TupleId>,
    visited: &mut HashSet<Vec<TupleId>>,
    best: &mut Option<Vec<TupleId>>,
    max_states: usize,
) -> bool {
    if visited.len() > max_states {
        return false;
    }
    if let Some(b) = best {
        if deleted.len() >= b.len() {
            return true; // can only get worse
        }
    }
    let mut key = deleted.clone();
    key.sort_unstable();
    if !visited.insert(key) {
        return true;
    }
    // All currently fireable heads.
    let mut heads: Vec<TupleId> = Vec::new();
    ev.for_each_assignment(db, state, Mode::Current, &mut |a| {
        if !heads.contains(&a.head) {
            heads.push(a.head);
        }
        true
    });
    if heads.is_empty() {
        let mut result = deleted.clone();
        result.sort_unstable();
        match best {
            Some(b) if b.len() <= result.len() => {}
            _ => *best = Some(result),
        }
        return true;
    }
    for h in heads {
        state.delete(h);
        deleted.push(h);
        let ok = dfs(db, ev, state, deleted, visited, best, max_states);
        deleted.pop();
        // Rebuild the state from the deletion list (State has no un-delete;
        // cloning up front would also work but this keeps allocation low).
        *state = db.initial_state();
        for &t in deleted.iter() {
            state.delete(t);
        }
        if !ok {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{figure1_instance, figure2_program, names_of, tiny_instance};
    use datalog::{parse_program, Evaluator};

    #[test]
    fn example_5_2_greedy_selection() {
        // Algorithm 2 on the running example returns
        // {g2, a2, a3, w1, w2}: the Writes tuples win the benefit
        // tie-break against the Pub tuples, and Δ(p1), Δ(p2), Δ(c) are
        // pruned.
        let mut db = figure1_instance();
        let ev = Evaluator::new(&mut db, figure2_program()).unwrap();
        let out = run_greedy(&db, &ev);
        assert_eq!(
            names_of(&db, &out.deleted),
            vec![
                "Author(4, Marge)",
                "Author(5, Homer)",
                "Grant(2, ERC)",
                "Writes(4, 6)",
                "Writes(5, 7)",
            ]
        );
        assert!(ev.is_stable(&db, &out.state));
    }

    #[test]
    fn greedy_matches_exact_on_running_example() {
        let mut db = figure1_instance();
        let ev = Evaluator::new(&mut db, figure2_program()).unwrap();
        let greedy = run_greedy(&db, &ev);
        let exact = optimal(&db, &ev, 200_000).expect("search completes");
        assert_eq!(greedy.deleted.len(), exact.len());
        // Figure 2's rules interact (Writes tuples void Pub derivations),
        // so the answer is right here but carries no certificate.
        assert!(!greedy.optimal);
    }

    #[test]
    fn pure_cascade_is_certified_optimal() {
        // R1 seeds, R2 cascades: interaction-free, every sequence deletes
        // the same two tuples, and the certificate reflects that.
        let mut db = tiny_instance(&[1], &[1], &[]);
        let program = parse_program(
            "delta R1(x) :- R1(x), x = 1.
             delta R2(x) :- R2(x), delta R1(x).",
        )
        .unwrap();
        let ev = Evaluator::new(&mut db, program).unwrap();
        let out = run_greedy(&db, &ev);
        assert_eq!(out.deleted.len(), 2);
        assert!(out.optimal, "cascade forest must be certified");
        assert_eq!(optimal(&db, &ev, 10_000).unwrap().len(), 2);
    }

    #[test]
    fn step_deletes_one_tuple_when_heads_share_a_body() {
        // Prop. 3.20(4) part 1: firing ΔR1(a) first voids the other rule.
        let mut db = tiny_instance(&[1], &[10, 20, 30], &[]);
        let program = parse_program(
            "delta R1(x) :- R1(x), R2(y).
             delta R2(y) :- R1(x), R2(y).",
        )
        .unwrap();
        let ev = Evaluator::new(&mut db, program).unwrap();
        let out = run_greedy(&db, &ev);
        assert_eq!(out.deleted.len(), 1, "greedy fires the hub tuple");
        let exact = optimal(&db, &ev, 100_000).unwrap();
        assert_eq!(exact.len(), 1);
    }

    #[test]
    fn prop_3_20_item_4_part_2_stage_can_beat_step() {
        // D = {R1(a), R2(b), R3(c1..c4)}, the four-rule program from the
        // proof: stage deletes {R1(a), R2(b)}; any step sequence is forced
        // into the R3 tuples.
        let mut db = tiny_instance(&[1], &[2], &[31, 32, 33, 34]);
        let program = parse_program(
            "delta R1(x) :- R1(x), R2(y).
             delta R2(y) :- R1(x), R2(y).
             delta R3(z) :- R3(z), delta R1(x), R2(y).
             delta R3(z) :- R3(z), R1(x), delta R2(y).",
        )
        .unwrap();
        let ev = Evaluator::new(&mut db, program).unwrap();
        let stage_out = crate::stage::run(&db, &ev);
        assert_eq!(stage_out.deleted.len(), 2);
        let exact = optimal(&db, &ev, 500_000).unwrap();
        assert_eq!(exact.len(), 5, "one of R1/R2 plus all four R3 tuples");
        let greedy = run_greedy(&db, &ev);
        assert!(ev.is_stable(&db, &greedy.state));
        assert_eq!(greedy.deleted.len(), 5);
    }

    #[test]
    fn proposition_3_19_two_equivalent_results() {
        // Both {R1(a)} and {R2(b)} are valid step results of size 1.
        let mut db = tiny_instance(&[1], &[2], &[]);
        let program = parse_program(
            "delta R1(x) :- R1(x), R2(y).
             delta R2(y) :- R1(x), R2(y).",
        )
        .unwrap();
        let ev = Evaluator::new(&mut db, program).unwrap();
        let exact = optimal(&db, &ev, 10_000).unwrap();
        assert_eq!(exact.len(), 1);
    }

    #[test]
    fn optimal_respects_budget() {
        let mut db = figure1_instance();
        let ev = Evaluator::new(&mut db, figure2_program()).unwrap();
        assert!(optimal(&db, &ev, 1).is_none());
    }

    #[test]
    fn stable_database_yields_empty_step() {
        let mut db = tiny_instance(&[1], &[], &[]);
        let program = parse_program("delta R1(x) :- R1(x), R2(y).").unwrap();
        let ev = Evaluator::new(&mut db, program).unwrap();
        let out = run_greedy(&db, &ev);
        assert!(out.deleted.is_empty());
        assert!(out.optimal, "the empty repair is trivially minimum");
        assert_eq!(optimal(&db, &ev, 100).unwrap(), vec![]);
    }
}
