//! `benchmark` — run one workload, all of them, or compare two sets of runs.
//!
//! ```text
//! benchmark run --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--spans FILE]
//! benchmark run --all [--seed N] [--seconds S] [--trace 0|1]
//! benchmark compare DIR_A DIR_B
//! ```
//!
//! A run prints its metrics, informational numbers and deterministic
//! counters as `metric`/`info`/`counter` lines, then the result as one JSON
//! object on the last line. `--all` runs each workload in its own child
//! process, one after another, so that `peak_rss_mb` belongs to a single
//! workload. `compare` reads directories of saved run outputs.

use benchmark::compare::{compare, parse_run};
use benchmark::workload::{Name, Sizes};
use benchmark::{run, Config};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Duration;

const USAGE: &str = "usage:
    benchmark run --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--spans FILE]
    benchmark run --all [--seed N] [--seconds S] [--trace 0|1]
    benchmark compare DIR_A DIR_B
workloads: paper-suite, zipf-scale, session-churn, cold-start";

/// Measuring time when `--seconds` is not given; the same as
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 20;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_cmd(&args[1..]),
        Some("compare") => compare_cmd(&args[1..]),
        _ => Err(USAGE.to_owned()),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run_cmd(args: &[String]) -> Result<ExitCode, String> {
    let mut workload = None;
    let mut all = false;
    let mut seed = 42u64;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut spans: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Name::parse(v).ok_or_else(|| format!("unknown workload `{v}`\n{USAGE}"))?);
            }
            "--all" => all = true,
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds == 0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--spans" => spans = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    match (workload, all) {
        (Some(w), false) => run_one(w, seed, seconds, trace, spans.as_deref()),
        (None, true) => run_all(seed, seconds, trace),
        _ => Err(format!("give exactly one of --workload and --all\n{USAGE}")),
    }
}

fn run_one(
    workload: Name,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans: Option<&Path>,
) -> Result<ExitCode, String> {
    let cfg = Config {
        workload,
        seed,
        budget: Duration::from_secs(seconds),
        trace,
        sizes: Sizes::FULL,
        dir: Path::new(".bench_tmp").join(format!("{}-{}", workload.as_str(), std::process::id())),
    };
    let report = run(&cfg);
    // The shared parent goes too, unless another run still has a
    // directory in it.
    let _ = std::fs::remove_dir(".bench_tmp");
    let report = report?;
    if let Some(path) = spans {
        std::fs::write(path, report.tracer.to_json_lines())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    print!("{}", report.render(&cfg));
    Ok(ExitCode::SUCCESS)
}

fn run_all(seed: u64, seconds: u64, trace: bool) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut code = ExitCode::SUCCESS;
    for w in Name::ALL {
        let status = Command::new(&exe)
            .args(["run", "--workload", w.as_str()])
            .args([
                "--seed",
                &seed.to_string(),
                "--seconds",
                &seconds.to_string(),
            ])
            .args(["--trace", if trace { "1" } else { "0" }])
            .status()
            .map_err(|e| format!("{}: {e}", w.as_str()))?;
        if !status.success() {
            eprintln!("benchmark: {} failed: {status}", w.as_str());
            code = ExitCode::FAILURE;
        }
    }
    Ok(code)
}

fn compare_cmd(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err(USAGE.to_owned());
    };
    let (report, ok) = compare(&read_set(Path::new(a))?, &read_set(Path::new(b))?);
    print!("{report}");
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Every run saved in `dir`, one run's output per file.
fn read_set(dir: &Path) -> Result<Vec<benchmark::compare::RunRecord>, String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    paths.sort();
    let mut runs = Vec::new();
    for p in paths {
        let text = std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?;
        runs.extend(parse_run(&text));
    }
    if runs.is_empty() {
        return Err(format!("{}: no saved runs", dir.display()));
    }
    Ok(runs)
}
