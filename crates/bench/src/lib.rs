//! Shared experiment plumbing for the `repro` binary and the criterion
//! benches.
//!
//! Dataset sizes are controlled by environment variables so the same code
//! drives quick CI runs and full paper-scale reproductions:
//!
//! * `REPRO_MAS_SCALE` — fraction of the 124K-tuple MAS fragment
//!   (default `0.05`; set `1.0` for paper scale);
//! * `REPRO_TPCH_SCALE` — fraction of the ~370K-tuple TPC-H fragment
//!   (default `0.02`);
//! * `REPRO_ROWS` / `REPRO_ERRORS` — the HoloClean-comparison table size
//!   and error count (defaults 5000 / 700, the paper's settings).

use datagen::{mas, scale, tpch, MasConfig, MasData, ScaleConfig, ScaleData, TpchConfig, TpchData};
use repair_core::{RepairResult, RepairSession, Semantics};
use storage::Instance;
use workloads::Workload;

/// Read a float environment variable with a default.
pub fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Read an integer environment variable with a default.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// MAS scale factor (`REPRO_MAS_SCALE`, default 0.05 ≈ 6.2K tuples).
pub fn mas_scale() -> f64 {
    env_f64("REPRO_MAS_SCALE", 0.05)
}

/// TPC-H scale factor (`REPRO_TPCH_SCALE`, default 0.02 ≈ 7.4K tuples).
pub fn tpch_scale() -> f64 {
    env_f64("REPRO_TPCH_SCALE", 0.02)
}

/// The MAS dataset with its twenty Table 1 workloads.
pub struct MasLab {
    /// Generated data + heavy-hitter metadata.
    pub data: MasData,
    /// The twenty programs.
    pub workloads: Vec<Workload>,
}

impl MasLab {
    /// Generate at the given scale.
    pub fn at_scale(scale: f64) -> MasLab {
        let data = mas::generate(&MasConfig::scaled(scale));
        let workloads = workloads::mas_programs(&data);
        MasLab { data, workloads }
    }

    /// Generate at the environment-selected scale.
    pub fn from_env() -> MasLab {
        MasLab::at_scale(mas_scale())
    }
}

/// The TPC-H dataset with its six Table 2 workloads.
pub struct TpchLab {
    /// Generated data.
    pub data: TpchData,
    /// The six programs.
    pub workloads: Vec<Workload>,
}

impl TpchLab {
    /// Generate at the given scale.
    pub fn at_scale(scale: f64) -> TpchLab {
        let data = tpch::generate(&TpchConfig::scaled(scale));
        let workloads = workloads::tpch_programs(&data);
        TpchLab { data, workloads }
    }

    /// Generate at the environment-selected scale.
    pub fn from_env() -> TpchLab {
        TpchLab::at_scale(tpch_scale())
    }
}

/// The zipf scaling dataset (`datagen::scale`) with its three workloads.
pub struct ZipfLab {
    /// Generated data.
    pub data: ScaleData,
    /// `zipf-cascade`, `zipf-join` and `zipf-pessimal`.
    pub workloads: Vec<Workload>,
}

impl ZipfLab {
    /// Generate at the given scale (1.0 ≈ 122K tuples).
    pub fn at_scale(scale_factor: f64) -> ZipfLab {
        let data = scale::generate(&ScaleConfig::scaled(scale_factor));
        let workloads = workloads::zipf_programs(&data);
        ZipfLab { data, workloads }
    }
}

/// Build a repair session for one workload over (a clone of) `db`.
///
/// The clone is needed because the session takes ownership and builds its
/// probe indexes; experiments share one generated dataset across many
/// programs.
pub fn session_for(db: &Instance, w: &Workload) -> RepairSession {
    RepairSession::new(db.clone(), w.program.clone())
        .unwrap_or_else(|e| panic!("workload {}: {e}", w.name))
}

/// Run all four semantics for a workload; results in paper order
/// (independent, step, stage, end).
pub fn run_four(session: &RepairSession) -> [RepairResult; 4] {
    session
        .run_all()
        .map(repair_core::RepairOutcome::into_result)
}

/// Format a `Duration` in adaptive units.
pub fn fmt_duration(d: std::time::Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.0}µs", s * 1e6)
    }
}

/// Render `✓`/`✗` like Table 3.
pub fn check(b: bool) -> &'static str {
    if b {
        "✓"
    } else {
        "✗"
    }
}

/// The four semantics in paper order, for table headers.
pub const SEM_ORDER: [Semantics; 4] = [
    Semantics::Independent,
    Semantics::Step,
    Semantics::Stage,
    Semantics::End,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labs_build_at_tiny_scale() {
        let mas = MasLab::at_scale(0.005);
        assert_eq!(mas.workloads.len(), 20);
        assert!(mas.data.db.total_rows() > 100);
        let tpch = TpchLab::at_scale(0.005);
        assert_eq!(tpch.workloads.len(), 6);
    }

    #[test]
    fn run_four_is_ordered_and_stabilizing() {
        let lab = MasLab::at_scale(0.005);
        let session = session_for(&lab.data.db, &lab.workloads[4]); // mas-05
        let results = run_four(&session);
        assert_eq!(results[0].semantics, Semantics::Independent);
        assert_eq!(results[3].semantics, Semantics::End);
        for r in &results {
            assert!(session.verify_stabilizing(&r.deleted));
        }
    }

    #[test]
    fn incremental_and_full_rerepair_agree_bit_for_bit() {
        use repair_core::RepairRequest;
        let lab = MasLab::at_scale(0.01);
        let w = &lab.workloads[7]; // mas-08, the tracked heavy hitter
        let mut session = session_for(&lab.data.db, w);
        session.run(Semantics::End); // prime
        let ids: Vec<storage::TupleId> = lab
            .data
            .db
            .all_tuple_ids()
            .enumerate()
            .filter(|(i, _)| i % 100 == 50)
            .map(|(_, t)| t)
            .collect();
        session.delete_batch(&ids).unwrap();
        let inc = session.run(Semantics::End);
        assert!(inc.served_incrementally(), "bench must hit the fast path");
        let full = session
            .repair(&RepairRequest::new(Semantics::End).incremental(false))
            .unwrap();
        assert_eq!(inc.deleted(), full.deleted());
        session.restore_batch(&ids).unwrap();
        let back = session.run(Semantics::End);
        assert!(back.served_incrementally());
        let full_back = session
            .repair(&RepairRequest::new(Semantics::End).incremental(false))
            .unwrap();
        assert_eq!(back.deleted(), full_back.deleted());
    }

    #[test]
    fn env_parsing_defaults() {
        assert_eq!(env_f64("REPRO_NO_SUCH_VAR_XYZ", 0.25), 0.25);
        assert_eq!(env_usize("REPRO_NO_SUCH_VAR_XYZ", 7), 7);
    }

    #[test]
    fn duration_formatting() {
        use std::time::Duration;
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00s");
        assert_eq!(fmt_duration(Duration::from_millis(5)), "5.00ms");
        assert_eq!(fmt_duration(Duration::from_micros(10)), "10µs");
    }
}
