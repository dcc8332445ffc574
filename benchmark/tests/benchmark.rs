//! Smoke runs of every workload at tiny scale, checked against the metric
//! catalogue in `BENCHMARK.json`, plus the counting IO wrapper.

use benchmark::countio::CountingIo;
use benchmark::workload::{Name, Sizes};
use benchmark::{run, Config, END_TO_END};
use std::path::PathBuf;
use std::time::Duration;
use storage::StorageIo;

/// The objects of one array section of `BENCHMARK.json`, as raw text.
fn section(key: &str) -> Vec<String> {
    let json = include_str!("../../BENCHMARK.json");
    let start = json
        .find(&format!("\"{key}\": ["))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}`"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array ends")];
    body.split('{').skip(1).map(str::to_owned).collect()
}

/// The value of `"key": value` in one object's text, quotes stripped.
fn field(obj: &str, key: &str) -> String {
    let k = format!("\"{key}\": ");
    let i = obj
        .find(&k)
        .unwrap_or_else(|| panic!("no `{key}` in {obj}"))
        + k.len();
    let v = obj[i..].split([',', '}']).next().expect("value").trim();
    v.trim_matches('"').to_owned()
}

fn declared(key: &str) -> Vec<(String, String)> {
    section(key)
        .iter()
        .map(|o| (field(o, "name"), field(o, "unit")))
        .collect()
}

fn tiny(workload: Name, trace: bool) -> Config {
    Config {
        workload,
        seed: 7,
        budget: Duration::from_millis(50),
        trace,
        sizes: Sizes::TINY,
        dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
            "smoke-{}-{}",
            workload.as_str(),
            u8::from(trace)
        )),
    }
}

fn smoke(trace: bool) {
    let key = if trace { "per_layer" } else { "end_to_end" };
    let want = declared(key);
    assert!(!want.is_empty());
    for w in Name::ALL {
        let cfg = tiny(w, trace);
        let report = run(&cfg).unwrap_or_else(|e| panic!("{}: {e}", w.as_str()));
        assert!(
            report.failures.is_empty(),
            "{}: {:?}",
            w.as_str(),
            report.failures
        );
        assert!(report.attempted > 0);
        let got: Vec<(String, String)> = report
            .metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_owned()))
            .collect();
        assert_eq!(
            got,
            want,
            "{}: metrics differ from BENCHMARK.json's {key}",
            w.as_str()
        );
        if !trace {
            assert!(
                report.metrics.iter().all(|m| m.value > 0.0),
                "{:?}",
                report.metrics
            );
        }
        let out = report.render(&cfg);
        let last = out.lines().last().expect("output");
        assert!(
            last.starts_with("{\"correct\": true, \"attempted\": "),
            "{last}"
        );
        assert!(last.contains("\"failed\": 0, \"metrics\": {"), "{last}");
        assert!(!cfg.dir.exists(), "scratch directory removed");
    }
}

#[test]
fn every_workload_emits_the_end_to_end_metrics() {
    smoke(false);
}

#[test]
fn every_workload_emits_the_per_layer_metrics_when_traced() {
    smoke(true);
}

#[test]
fn end_to_end_bounds_match_benchmark_json() {
    let objs = section("end_to_end");
    assert_eq!(objs.len(), END_TO_END.len());
    for (obj, def) in objs.iter().zip(END_TO_END) {
        assert_eq!(field(obj, "name"), def.name);
        assert_eq!(field(obj, "unit"), def.unit);
        let better = if def.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        assert_eq!(field(obj, "better"), better);
        assert_eq!(field(obj, "bound").parse::<f64>().ok(), Some(def.bound));
    }
}

#[test]
fn counting_io_counts_bytes_calls_and_time() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("countio");
    let _ = std::fs::remove_dir_all(&dir);
    let io = CountingIo::default();
    io.create_dir_all(&dir).unwrap();
    let f = dir.join("f");
    io.write(&f, b"header").unwrap();
    let before = io.totals();
    io.append(&f, b"tail").unwrap();
    io.sync(&f).unwrap();
    assert_eq!(io.read(&f).unwrap(), b"headertail");
    let d = io.totals().minus(before);
    assert_eq!((d.append.calls, d.append.bytes), (1, 4));
    assert_eq!((d.sync.calls, d.read.bytes, d.write.calls), (1, 10, 0));
    assert_eq!(io.totals().write.bytes + io.totals().append.bytes, 10);
    assert!(io.read(&dir.join("missing")).is_err());
    assert_eq!(io.totals().read.bytes, 10, "failed reads move no bytes");
    std::fs::remove_dir_all(&dir).unwrap();
}
