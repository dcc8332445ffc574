//! `benchmark compare <setA> <setB>`: two sets of saved runs, side by side.
//!
//! For each workload × end-to-end metric it prints both sets' medians,
//! their quartile spreads and a verdict: within bound, worse, better, or
//! unresolved when the spread exceeds the bound (except for `setup_s`,
//! whose spread is not held against its bound). It also checks that every
//! deterministic counter (and the output digest) is identical across all
//! runs of a workload in both sets.

use crate::stats::{median, quartile_spread};
use crate::END_TO_END;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The parts of one run's output that `compare` uses.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// Was it a traced run?
    pub trace: bool,
    /// `metric` lines.
    pub metrics: BTreeMap<String, f64>,
    /// `counter` lines.
    pub counters: BTreeMap<String, String>,
}

/// Read a run back from its printed output.
pub fn parse_run(text: &str) -> Option<RunRecord> {
    let mut r = RunRecord::default();
    for line in text.lines() {
        let mut words = line.split_whitespace();
        match (words.next(), words.next(), words.next()) {
            (Some("workload"), Some(w), None) => r.workload = w.to_owned(),
            (Some("trace"), Some(t), None) => r.trace = t == "1",
            (Some("metric"), Some(name), Some(v)) => {
                r.metrics.insert(name.to_owned(), v.parse().ok()?);
            }
            (Some("counter"), Some(name), Some(v)) => {
                r.counters.insert(name.to_owned(), v.to_owned());
            }
            _ => {}
        }
    }
    (!r.workload.is_empty()).then_some(r)
}

/// Compare set `b` against set `a`. Returns the report and whether every
/// metric stayed within its bound and every counter matched.
pub fn compare(a: &[RunRecord], b: &[RunRecord]) -> (String, bool) {
    let mut out = String::new();
    let mut ok = true;
    let mut workloads: Vec<&str> = a.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    let _ = writeln!(
        out,
        "{:<14} {:<18} {:>12} {:>12} {:>8} {:>8} {:>8}  verdict",
        "workload", "metric", "median A", "median B", "IQR A", "IQR B", "change"
    );
    for w in workloads {
        let runs = |set: &[RunRecord], trace: bool| -> Vec<RunRecord> {
            set.iter()
                .filter(|r| r.workload == w && r.trace == trace)
                .cloned()
                .collect()
        };
        let (ua, ub) = (runs(a, false), runs(b, false));
        for def in END_TO_END {
            let values = |runs: &[RunRecord]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.metrics.get(def.name).copied())
                    .collect()
            };
            let (va, vb) = (values(&ua), values(&ub));
            let (Some(ma), Some(mb)) = (median(&va), median(&vb)) else {
                continue;
            };
            // Set-up time is judged on its medians alone: one set-up is
            // short, so its spread follows the host's phases.
            let spread = if def.name == "setup_s" {
                0.0
            } else {
                quartile_spread(&va)
                    .unwrap_or(0.0)
                    .max(quartile_spread(&vb).unwrap_or(0.0))
            };
            let worse = if def.higher_is_better {
                (ma - mb) / ma
            } else {
                (mb - ma) / ma
            };
            let b_always_better = va.iter().all(|&x| {
                vb.iter()
                    .all(|&y| if def.higher_is_better { y > x } else { y < x })
            });
            let verdict = if spread > def.bound && !b_always_better {
                "unresolved (spread exceeds bound)"
            } else if worse > def.bound {
                "worse"
            } else if -worse > def.bound {
                "better"
            } else {
                "within bound"
            };
            ok &= matches!(verdict, "within bound" | "better");
            let _ = writeln!(
                out,
                "{w:<14} {:<18} {ma:>12.4} {mb:>12.4} {:>7.1}% {:>7.1}% {:>+7.1}%  {verdict}",
                def.name,
                100.0 * quartile_spread(&va).unwrap_or(0.0),
                100.0 * quartile_spread(&vb).unwrap_or(0.0),
                100.0 * (mb - ma) / ma,
            );
        }
        for trace in [false, true] {
            let all: Vec<RunRecord> = runs(a, trace).into_iter().chain(runs(b, trace)).collect();
            let Some(first) = all.first() else { continue };
            let mut names: Vec<&String> = all.iter().flat_map(|r| r.counters.keys()).collect();
            names.sort_unstable();
            names.dedup();
            let mut mismatched = Vec::new();
            for name in names {
                let v0 = first.counters.get(name);
                if all.iter().any(|r| r.counters.get(name) != v0) {
                    mismatched.push(name.as_str());
                }
            }
            let kind = if trace { "traced" } else { "untraced" };
            if mismatched.is_empty() {
                let _ = writeln!(
                    out,
                    "{w:<14} counters ({kind}, {} runs): identical",
                    all.len()
                );
            } else {
                ok = false;
                let _ = writeln!(
                    out,
                    "{w:<14} counters ({kind}, {} runs): DIFFER: {}",
                    all.len(),
                    mismatched.join(", ")
                );
            }
        }
    }
    (out, ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(workload: &str, rps: f64, digest: &str) -> RunRecord {
        parse_run(&format!(
            "workload {workload}\ntrace 0\nmetric throughput_rps {rps} requests/s\n\
             metric setup_s 1.0 s\ncounter output_digest {digest}\n{{\"correct\": true}}\n"
        ))
        .unwrap()
    }

    #[test]
    fn parses_its_own_output() {
        let r = run("paper-suite", 12.5, "7");
        assert_eq!(r.workload, "paper-suite");
        assert!(!r.trace);
        assert_eq!(r.metrics["throughput_rps"], 12.5);
        assert_eq!(r.counters["output_digest"], "7");
        assert_eq!(parse_run("no workload line"), None);
    }

    #[test]
    fn verdicts() {
        let a: Vec<RunRecord> = [100.0, 101.0, 99.0].map(|x| run("w", x, "1")).to_vec();
        let same: Vec<RunRecord> = [100.5, 99.5, 100.0].map(|x| run("w", x, "1")).to_vec();
        let (report, ok) = compare(&a, &same);
        assert!(ok, "{report}");
        assert!(report.contains("within bound"));
        assert!(report.contains("identical"));

        let slower: Vec<RunRecord> = [70.0, 71.0, 69.0].map(|x| run("w", x, "1")).to_vec();
        let (report, ok) = compare(&a, &slower);
        assert!(!ok);
        assert!(report.contains("worse"), "{report}");

        let noisy: Vec<RunRecord> = [50.0, 100.0, 150.0].map(|x| run("w", x, "1")).to_vec();
        let (report, ok) = compare(&a, &noisy);
        assert!(!ok);
        assert!(report.contains("unresolved"), "{report}");

        let other_digest: Vec<RunRecord> = [100.0, 100.0, 100.0].map(|x| run("w", x, "2")).to_vec();
        let (report, ok) = compare(&a, &other_digest);
        assert!(!ok);
        assert!(report.contains("DIFFER: output_digest"), "{report}");
    }
}
