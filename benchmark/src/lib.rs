//! The repository's benchmark.
//!
//! One run drives one workload ([`workload::Name`]) through the public APIs
//! of the `storage`, `datalog`, `provenance`, `sat`, `repair_core` and
//! `cli` crates in a closed loop (one caller, one request at a time), for a
//! fixed wall-clock budget, and checks the outputs. An untraced run reports
//! the end-to-end metrics ([`END_TO_END`]); a traced run records spans
//! around the calls into each layer, replays each layer's calls once, and
//! reports the per-layer metrics derived from them. See `BENCHMARK.md`
//! beside this crate.

pub mod compare;
pub mod countio;
mod measure;
mod replay;
mod stats;
pub mod trace;
pub mod workload;

use measure::{groups, run_loop, samples_ms, Summary};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;
use trace::{totals_by_name, Tracer};
use workload::{Name, Sizes};

/// An end-to-end metric: what a user of the system sees.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Is a higher value better?
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// The end-to-end metrics every untraced run reports.
pub const END_TO_END: [MetricDef; 4] = [
    MetricDef {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    MetricDef {
        name: "throughput_rps",
        unit: "requests/s",
        higher_is_better: true,
        bound: 0.2,
    },
    MetricDef {
        name: "latency_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.2,
    },
    MetricDef {
        name: "peak_rss_mb",
        unit: "MB",
        higher_is_better: false,
        bound: 0.1,
    },
];

/// One run's settings.
#[derive(Clone, Debug)]
pub struct Config {
    /// Which workload.
    pub workload: Name,
    /// Seed of the generated inputs and the mutation RNG.
    pub seed: u64,
    /// Measuring time.
    pub budget: Duration,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Input sizes.
    pub sizes: Sizes,
    /// Scratch directory for durable stores; removed when the run ends.
    pub dir: PathBuf,
}

/// A measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name.
    pub name: String,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What one run measured.
pub struct Report {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// The operations and checks that failed.
    pub failures: Vec<String>,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Informational numbers: per-group medians, p90s and sample counts.
    pub info: Vec<Metric>,
    /// Deterministic work counters; equal on every run of the same code
    /// and seed.
    pub counters: BTreeMap<String, u64>,
    /// FNV-1a over the first cycle's outputs.
    pub digest: u64,
    /// The spans, when traced.
    pub tracer: Tracer,
}

/// Removes the scratch directory however the run ends.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Run one workload.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let scratch = ScratchDir(cfg.dir.clone());
    std::fs::create_dir_all(&scratch.0).map_err(|e| format!("{}: {e}", scratch.0.display()))?;
    let data = workload::datasets(cfg.workload, cfg.seed, &cfg.sizes);
    let (mut bench, setup_secs) = workload::setup(cfg.workload, &data, cfg.seed, &scratch.0)?;
    let mut tracer = Tracer::new(false);
    let mut failures = Vec::new();
    let mut attempted = 0;
    // A traced run measures its first half untraced and its second half
    // traced; the difference is the tracing overhead.
    let budget = if cfg.trace {
        cfg.budget / 2
    } else {
        cfg.budget
    };
    let main = run_loop(&mut *bench, &mut tracer, budget);
    let traced = cfg.trace.then(|| {
        tracer.set_enabled(true);
        run_loop(&mut *bench, &mut tracer, budget)
    });
    for check in bench.finish() {
        attempted += 1;
        failures.extend(check.err());
    }
    drop(bench);
    let peak_rss_mb = peak_rss_mb()?;

    let summary = Summary::of(&main.cycles);
    attempted += main.attempted;
    failures.extend(main.failures);
    let mut counters = main.counters;
    let mut info = vec![Metric::new("cycles", summary.cycles as f64, "count")];
    for g in groups(&main.cycles) {
        let ms = samples_ms(&main.cycles, g);
        info.push(Metric::new(
            format!("{g}.p50_ms"),
            stats::median(&ms).unwrap_or(0.0),
            "ms",
        ));
        if let Some(p90) = stats::p90(&ms) {
            info.push(Metric::new(format!("{g}.p90_ms"), p90, "ms"));
        }
        info.push(Metric::new(
            format!("{g}.samples"),
            ms.len() as f64,
            "count",
        ));
        info.push(Metric::new(
            format!("{g}.per_s"),
            summary.group_rate(g),
            "1/s",
        ));
    }
    if let Some(&user) = counters.get("user_bytes") {
        let written = counters["disk.append_bytes"] + counters["disk.write_bytes"];
        info.push(Metric::new(
            "write_amp",
            written as f64 / user as f64,
            "bytes/byte",
        ));
    }

    let metrics = match traced {
        None => vec![
            Metric::new("setup_s", stats::median(&setup_secs).unwrap_or(0.0), "s"),
            Metric::new("throughput_rps", summary.throughput(), "requests/s"),
            Metric::new("latency_ms", summary.latency_ms(), "ms"),
            Metric::new("peak_rss_mb", peak_rss_mb, "MB"),
        ],
        Some(traced) => {
            attempted += traced.attempted;
            failures.extend(traced.failures);
            attempted += 1;
            if traced.digest != main.digest {
                failures.push("traced cycles produced other outputs".into());
            }
            let overhead = Summary::of(&traced.cycles).cycle_secs() / summary.cycle_secs() - 1.0;
            let from = tracer.spans().len();
            let r = replay::replay(&data, cfg.seed, &scratch.0, &mut tracer)?;
            counters.extend(r.counters.clone());
            per_layer(&tracer.spans()[from..], &r, overhead)
        }
    };
    for m in metrics.iter().chain(&info) {
        if !m.value.is_finite() {
            return Err(format!("{} is not a number: {}", m.name, m.value));
        }
    }
    Ok(Report {
        attempted,
        failures,
        metrics,
        info,
        counters,
        digest: main.digest,
        tracer,
    })
}

/// The per-layer metrics, from the replay's spans and counters.
fn per_layer(spans: &[trace::Span], r: &replay::Replay, overhead: f64) -> Vec<Metric> {
    let t = totals_by_name(spans);
    let total = |name: &str| t.get(name).map_or(0.0, |x| x.total_ns as f64 / 1e6);
    let own = |name: &str| t.get(name).map_or(0.0, |x| x.self_ns as f64 / 1e6);
    let c = |name: &str| r.counters.get(name).copied().unwrap_or(0) as f64;
    let io = &r.io;
    let ms = |ns: u64| ns as f64 / 1e6;
    vec![
        Metric::new("storage.ingest.ms", total("storage.ingest"), "ms"),
        Metric::new(
            "storage.ingest.rows_per_s",
            c("storage.ingest.rows") / (total("storage.ingest") / 1e3),
            "rows/s",
        ),
        Metric::new("storage.render.ms", total("storage.render"), "ms"),
        Metric::new("storage.write.ms", own("storage.write"), "ms"),
        Metric::new("storage.write.rows", c("storage.write.rows"), "count"),
        Metric::new("storage.disk.append.ms", ms(io.append.ns), "ms"),
        Metric::new("storage.disk.append_bytes", io.append.bytes as f64, "bytes"),
        Metric::new("storage.disk.appends", io.append.calls as f64, "count"),
        Metric::new("storage.disk.sync.ms", ms(io.sync.ns), "ms"),
        Metric::new("storage.disk.syncs", io.sync.calls as f64, "count"),
        Metric::new("storage.disk.write_bytes", io.write.bytes as f64, "bytes"),
        Metric::new("storage.disk.read_bytes", io.read.bytes as f64, "bytes"),
        Metric::new("storage.disk.open.ms", total("storage.disk.open"), "ms"),
        Metric::new(
            "storage.disk.write_amp",
            c("storage.disk.wal_bytes") / c("storage.disk.user_bytes"),
            "bytes/byte",
        ),
        Metric::new("datalog.parse.ms", total("datalog.parse"), "ms"),
        Metric::new("datalog.plan.ms", total("datalog.plan"), "ms"),
        Metric::new("datalog.index_build.ms", total("datalog.index_build"), "ms"),
        Metric::new("datalog.certify.ms", total("datalog.certify"), "ms"),
        Metric::new("datalog.join.ms", total("datalog.join"), "ms"),
        Metric::new(
            "datalog.join.assignments",
            c("datalog.join.assignments"),
            "count",
        ),
        Metric::new(
            "datalog.join.ns_per_assignment",
            total("datalog.join") * 1e6 / c("datalog.join.assignments"),
            "ns",
        ),
        Metric::new(
            "datalog.eval.independent.ms",
            total("datalog.eval.independent"),
            "ms",
        ),
        Metric::new("datalog.eval.step.ms", total("datalog.eval.step"), "ms"),
        Metric::new("datalog.eval.stage.ms", total("datalog.eval.stage"), "ms"),
        Metric::new("datalog.eval.end.ms", total("datalog.eval.end"), "ms"),
        Metric::new("core.fixpoint.ms", total("core.fixpoint"), "ms"),
        Metric::new(
            "core.fixpoint.assignments",
            c("core.fixpoint.assignments"),
            "count",
        ),
        Metric::new("core.fixpoint.rounds", c("core.fixpoint.rounds"), "count"),
        Metric::new("core.session_new.ms", own("core.session_new"), "ms"),
        Metric::new(
            "core.dispatch.ms",
            own("core.repair") + own("core.rerepair"),
            "ms",
        ),
        Metric::new("core.rerepair.ms", total("core.rerepair"), "ms"),
        Metric::new("core.is_stable.ms", total("core.is_stable"), "ms"),
        Metric::new("core.traverse.step.ms", total("core.traverse.step"), "ms"),
        Metric::new(
            "provenance.process.independent.ms",
            total("provenance.process.independent"),
            "ms",
        ),
        Metric::new(
            "provenance.process.step.ms",
            total("provenance.process.step"),
            "ms",
        ),
        Metric::new("provenance.formula.ms", own("provenance.formula"), "ms"),
        Metric::new(
            "provenance.formula.clauses",
            c("provenance.formula.clauses"),
            "count",
        ),
        Metric::new("provenance.graph.ms", total("provenance.graph"), "ms"),
        Metric::new(
            "provenance.graph.nodes",
            c("provenance.graph.nodes"),
            "count",
        ),
        Metric::new("sat.solve.ms", total("sat.solve"), "ms"),
        Metric::new("sat.decisions", c("sat.decisions"), "count"),
        Metric::new("sat.components", c("sat.components"), "count"),
        Metric::new("sat.cnf_clauses", c("sat.cnf_clauses"), "count"),
        Metric::new("cli.run.ms", total("cli.run"), "ms"),
        Metric::new("cli.self.ms", own("cli.run"), "ms"),
        Metric::new("trace.overhead_frac", overhead, "ratio"),
    ]
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

impl Report {
    /// Did every operation and check succeed?
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The human-readable lines `compare` reads back, then the result as
    /// one JSON object on the last line.
    pub fn render(&self, cfg: &Config) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "workload {}", cfg.workload.as_str());
        let _ = writeln!(out, "seed {}", cfg.seed);
        let _ = writeln!(out, "trace {}", u8::from(cfg.trace));
        for m in &self.metrics {
            let _ = writeln!(out, "metric {} {} {}", m.name, m.value, m.unit);
        }
        for m in &self.info {
            let _ = writeln!(out, "info {} {} {}", m.name, m.value, m.unit);
        }
        for (k, v) in &self.counters {
            let _ = writeln!(out, "counter {k} {v}");
        }
        let _ = writeln!(out, "counter output_digest {}", self.digest);
        for f in self.failures.iter().take(20) {
            let _ = writeln!(out, "failure {f}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failures.len(),
            metrics.join(", ")
        );
        out
    }
}
