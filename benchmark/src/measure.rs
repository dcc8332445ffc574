//! The closed measurement loop: cycles of operations, their timings, and the
//! output checks that ride along.

use crate::countio::CountingIo;
use crate::stats;
use crate::trace::Tracer;
use repair_core::{RepairError, RepairOutcome, RepairRequest, RepairSession, Semantics};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use storage::{Instance, TupleId};

/// One timed operation of a cycle.
#[derive(Clone, Copy, Debug)]
pub struct Op {
    /// What kind of operation, e.g. `independent`, `mutation`, `cold_tsv`.
    pub group: &'static str,
    /// Is this a repair request (as opposed to a mutation)?
    pub request: bool,
    /// Wall-clock seconds.
    pub secs: f64,
}

/// What one workload does per cycle. Every cycle runs the same operations
/// in the same order, so operation `i` of every cycle is comparable.
pub trait Bench {
    /// Run one cycle.
    fn cycle(&mut self, ctx: &mut Ctx);
    /// Checks that need every cycle to have run, one result per check.
    fn finish(&mut self) -> Vec<Result<(), String>> {
        Vec::new()
    }
}

/// The state one cycle records into.
pub struct Ctx<'t> {
    tracer: &'t mut Tracer,
    /// Zero-based cycle number.
    pub index: usize,
    ops: Vec<Op>,
    outputs: Vec<u64>,
    counters: BTreeMap<String, u64>,
    checks: u64,
    failures: Vec<String>,
}

impl Ctx<'_> {
    /// Is this the first cycle (the one checks and counters look at)?
    pub fn first(&self) -> bool {
        self.index == 0
    }

    /// Time `f` as one operation of `group`.
    pub fn op<T>(
        &mut self,
        group: &'static str,
        request: bool,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if request {
            self.tracer.next_request();
        }
        let t0 = Instant::now();
        let out = f(self.tracer);
        self.ops.push(Op {
            group,
            request,
            secs: t0.elapsed().as_secs_f64(),
        });
        out
    }

    /// Record an output the later cycles must reproduce.
    pub fn output(&mut self, hash: u64) {
        self.outputs.push(hash);
    }

    /// Record one check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Add to a first-cycle counter.
    pub fn count(&mut self, name: &str, n: u64) {
        if self.first() {
            *self.counters.entry(name.to_owned()).or_default() += n;
        }
    }

    /// Unwrap an operation's result, recording an error as a failure.
    pub fn ok<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        r.map_err(|e| self.failures.push(format!("{what}: {e}")))
            .ok()
    }

    /// Record a request's outcome: its delete-set as an output, its route
    /// and solver work as first-cycle counters.
    pub fn outcome(&mut self, o: &RepairOutcome) {
        self.output(hash_ids(o.deleted()));
        let route = if o.served_via_certificate() {
            "route.certified"
        } else if o.served_incrementally() {
            "route.incremental"
        } else {
            "route.full"
        };
        self.count(route, 1);
        self.count("deleted_tuples", o.size() as u64);
        let opt = o.optimality();
        if o.semantics() == Semantics::Independent && !o.served_via_certificate() {
            self.count("sat.decisions", opt.sat_decisions);
            self.count("sat.components", opt.sat_components as u64);
            self.count("sat.cnf_clauses", opt.cnf_clauses as u64);
            self.count("sat.budget_exhausted", u64::from(!opt.proven));
        }
    }
}

/// Serve `request`, with a span named `name` whose children are the phases
/// the outcome reports.
pub fn repair_traced(
    tr: &mut Tracer,
    name: &str,
    session: &RepairSession,
    request: &RepairRequest,
) -> Result<RepairOutcome, RepairError> {
    tr.enter(name);
    let out = session.repair(request);
    if let Ok(o) = &out {
        let b = o.breakdown();
        let (eval, process, solve) = match o.semantics() {
            Semantics::Independent => (
                "datalog.eval.independent",
                "provenance.process.independent",
                "sat.solve",
            ),
            Semantics::Step => (
                "datalog.eval.step",
                "provenance.process.step",
                "core.traverse.step",
            ),
            Semantics::Stage => ("datalog.eval.stage", "", ""),
            Semantics::End => ("datalog.eval.end", "", ""),
        };
        tr.child(eval, b.eval);
        tr.child(process, b.process);
        tr.child(solve, b.solve);
    }
    tr.exit();
    out
}

/// Run `f` in a span named `name`, with the time `io` spent in the
/// filesystem as a `storage.disk` child.
pub fn io_span<T>(tr: &mut Tracer, name: &str, io: &CountingIo, f: impl FnOnce() -> T) -> T {
    tr.enter(name);
    let before = io.totals();
    let out = f();
    let busy = io.totals().minus(before).busy_ns();
    tr.child("storage.disk", Duration::from_nanos(busy));
    tr.exit();
    out
}

/// Everything the loop measured.
pub struct LoopResult {
    /// Operations of each cycle.
    pub cycles: Vec<Vec<Op>>,
    /// First-cycle counters.
    pub counters: BTreeMap<String, u64>,
    /// FNV-1a over the first cycle's outputs.
    pub digest: u64,
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Operations and checks that failed.
    pub failures: Vec<String>,
}

/// Run whole cycles of `w` until `budget` has elapsed (at least one).
/// Every later cycle must reproduce the first cycle's outputs.
pub fn run_loop(w: &mut dyn Bench, tracer: &mut Tracer, budget: Duration) -> LoopResult {
    let start = Instant::now();
    let mut result = LoopResult {
        cycles: Vec::new(),
        counters: BTreeMap::new(),
        digest: 0,
        attempted: 0,
        failures: Vec::new(),
    };
    let mut reference: Vec<u64> = Vec::new();
    loop {
        let mut ctx = Ctx {
            tracer: &mut *tracer,
            index: result.cycles.len(),
            ops: Vec::new(),
            outputs: Vec::new(),
            counters: std::mem::take(&mut result.counters),
            checks: 0,
            failures: Vec::new(),
        };
        w.cycle(&mut ctx);
        if ctx.index == 0 {
            reference = std::mem::take(&mut ctx.outputs);
        } else {
            let same = ctx.outputs == reference;
            let index = ctx.index;
            ctx.check(same, || {
                format!("cycle {index}: outputs differ from cycle 0")
            });
        }
        result.attempted += ctx.ops.len() as u64 + ctx.checks;
        result.failures.append(&mut ctx.failures);
        result.counters = ctx.counters;
        result.cycles.push(ctx.ops);
        if start.elapsed() >= budget {
            break;
        }
    }
    result.digest = reference.iter().fold(FNV_OFFSET, |h, &x| fnv(h, x));
    result
}

/// The fastest time of each operation position, over the cycles whose
/// operations line up with the first cycle's.
///
/// The host's speed drifts by tens of percent in phases lasting seconds
/// (other tenants share its cores and memory). Such noise only ever slows
/// an operation down, so the fastest of an operation's repeats is the
/// steadiest estimate of what the code itself costs; across runs it
/// repeats far more closely than the median does (see `BENCHMARK.md`).
pub struct Summary {
    /// Operations of the first cycle.
    pub shape: Vec<Op>,
    /// Fastest seconds of each operation position.
    pub best: Vec<f64>,
    /// Cycles summarized.
    pub cycles: usize,
}

impl Summary {
    /// Summarize `cycles`. Cycles with another operation sequence (an
    /// operation failed and a dependent one was skipped) are left out.
    pub fn of(cycles: &[Vec<Op>]) -> Summary {
        let shape = cycles.first().cloned().unwrap_or_default();
        let aligned: Vec<&Vec<Op>> = cycles
            .iter()
            .filter(|c| {
                c.len() == shape.len()
                    && c.iter()
                        .zip(&shape)
                        .all(|(a, b)| a.group == b.group && a.request == b.request)
            })
            .collect();
        let best = (0..shape.len())
            .map(|i| {
                aligned
                    .iter()
                    .map(|c| c[i].secs)
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        Summary {
            shape,
            best,
            cycles: aligned.len(),
        }
    }

    /// Seconds one cycle takes: the sum of the per-position bests.
    pub fn cycle_secs(&self) -> f64 {
        self.best.iter().sum()
    }

    /// Requests per cycle.
    pub fn requests(&self) -> usize {
        self.shape.iter().filter(|o| o.request).count()
    }

    /// Requests served per second of cycle time.
    pub fn throughput(&self) -> f64 {
        self.requests() as f64 / self.cycle_secs()
    }

    /// Geometric mean, over the request positions, of their fastest
    /// latency in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        let ms: Vec<f64> = self
            .shape
            .iter()
            .zip(&self.best)
            .filter(|(o, _)| o.request)
            .map(|(_, &m)| m * 1e3)
            .collect();
        stats::geomean(&ms).unwrap_or(0.0)
    }

    /// Operations of `group` served per second of the time spent on them.
    pub fn group_rate(&self, group: &str) -> f64 {
        let (n, secs) = self
            .shape
            .iter()
            .zip(&self.best)
            .filter(|(o, _)| o.group == group)
            .fold((0usize, 0.0), |(n, s), (_, &m)| (n + 1, s + m));
        n as f64 / secs
    }
}

/// The operation groups of `cycles`, in first-seen order.
pub fn groups(cycles: &[Vec<Op>]) -> Vec<&'static str> {
    let mut out: Vec<&'static str> = Vec::new();
    for op in cycles.iter().flatten() {
        if !out.contains(&op.group) {
            out.push(op.group);
        }
    }
    out
}

/// Every latency sample of `group`, in milliseconds.
pub fn samples_ms(cycles: &[Vec<Op>], group: &str) -> Vec<f64> {
    cycles
        .iter()
        .flatten()
        .filter(|o| o.group == group)
        .map(|o| o.secs * 1e3)
        .collect()
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a step over the eight bytes of `x`.
pub fn fnv(mut h: u64, x: u64) -> u64 {
    for b in x.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a over a delete-set.
pub fn hash_ids(ids: &[TupleId]) -> u64 {
    ids.iter().fold(FNV_OFFSET, |h, t| {
        fnv(h, (u64::from(t.rel.0) << 32) | u64::from(t.row))
    })
}

/// FNV-1a over text.
pub fn hash_text(s: &str) -> u64 {
    s.as_bytes().chunks(8).fold(FNV_OFFSET, |h, c| {
        let mut b = [0u8; 8];
        b[..c.len()].copy_from_slice(c);
        fnv(h, u64::from_le_bytes(b))
    })
}

/// SplitMix64: the mutation RNG.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_5eed_5eed)
    }

    /// The next value in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }
}

/// `delta-repair --semantics end --apply`: a one-shot End repair with the
/// repaired database rendered back. `cli::run` takes file contents, so the
/// paths are placeholders.
pub fn cli_end_apply() -> cli::Options {
    cli::parse_args([
        "--db",
        "-",
        "--program",
        "-",
        "--semantics",
        "end",
        "--apply",
        "-",
    ])
    .expect("fixed, valid arguments")
}

/// A seeded 0.2% spread of the live tuples: every 500th tuple from a
/// random offset, so the batch touches every relation.
pub fn spread(db: &Instance, rng: &mut Rng) -> Vec<TupleId> {
    let offset = rng.below(500) as usize;
    db.all_tuple_ids()
        .enumerate()
        .filter(|(i, _)| i % 500 == offset)
        .map(|(_, t)| t)
        .collect()
}

/// The user bytes of `ids`: the length of each tuple's rendering.
pub fn user_bytes(db: &Instance, ids: &[TupleId]) -> u64 {
    ids.iter().map(|&t| db.display_tuple(t).len() as u64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(group: &'static str, request: bool, secs: f64) -> Op {
        Op {
            group,
            request,
            secs,
        }
    }

    #[test]
    fn summary_takes_per_position_bests() {
        let cycles = vec![
            vec![op("mutation", false, 1.0), op("end", true, 2.0)],
            vec![op("mutation", false, 3.0), op("end", true, 4.0)],
            vec![op("mutation", false, 2.0), op("end", true, 9.0)],
            // Misaligned: an operation was skipped.
            vec![op("end", true, 100.0)],
        ];
        let s = Summary::of(&cycles);
        assert_eq!(s.cycles, 3);
        assert_eq!(s.best, vec![1.0, 2.0]);
        assert_eq!(s.cycle_secs(), 3.0);
        assert_eq!(s.requests(), 1);
        assert_eq!(s.throughput(), 1.0 / 3.0);
        assert!((s.latency_ms() - 2000.0).abs() < 1e-9);
        assert_eq!(s.group_rate("mutation"), 1.0);
        assert_eq!(groups(&cycles), vec!["mutation", "end"]);
        assert_eq!(samples_ms(&cycles, "mutation"), vec![1e3, 3e3, 2e3]);
    }

    #[test]
    fn hashes_are_order_sensitive() {
        let a = TupleId::new(storage::RelId(0), 1);
        let b = TupleId::new(storage::RelId(1), 0);
        assert_ne!(hash_ids(&[a, b]), hash_ids(&[b, a]));
        assert_ne!(hash_text("ab"), hash_text("ba"));
    }

    #[test]
    fn rng_is_seeded() {
        let draw = |seed| {
            let mut r = Rng::new(seed);
            (0..8).map(|_| r.below(500)).collect::<Vec<_>>()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
        assert!(draw(3).iter().all(|&x| x < 500));
    }
}
