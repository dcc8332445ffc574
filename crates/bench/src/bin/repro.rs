//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro <experiment> [experiment …]
//!
//! experiments:
//!   table3    containment of results (Table 3)
//!   fig6      result sizes, MAS programs (Figure 6a/6b/6c); a `*` marks an
//!             Independent size the Min-Ones search did not prove minimum
//!   fig7      execution times, MAS programs (Figure 7)
//!   fig8      runtime breakdown of Algorithms 1 and 2 (Figure 8a–d)
//!   fig9      result sizes and runtimes, TPC-H programs (Figure 9a/9b),
//!             starred like fig6
//!   triggers  PostgreSQL/MySQL trigger comparison (Section 6)
//!   table4    over-deletions vs HoloClean-substitute under-repairs (Table 4)
//!   table5    residual DC violations after repair (Table 5)
//!   fig10     runtime scaling vs #errors and #rows (Figure 10a/10b)
//!   all       everything above
//!
//!   lint-workloads  lint the 29 built-in workload programs (not part of
//!                   `all`; any error-level finding exits 1)
//! ```
//!
//! Every name is checked before anything runs: an unknown one exits 2 and
//! lists the valid names.
//!
//! Scales via `REPRO_MAS_SCALE` / `REPRO_TPCH_SCALE` / `REPRO_ROWS`
//! (see the `bench` crate docs). Run with `--release`.

use bench::{
    check, env_usize, fmt_duration, mas_scale, run_four, session_for, tpch_scale, MasLab, TpchLab,
    ZipfLab,
};
use cellrepair::{count_violating_tuples, repair as hc_repair, CellRepairConfig};
use datagen::{author_table, inject_errors};
use repair_core::{independent, relationships, RepairResult, RepairSession, Semantics};
use sat::MinOnesOptions;
use std::time::Instant;
use triggers::{run_triggers, triggers_from_program, FiringOrder};
use workloads::{author_instance_from_table, dc_delta_program, paper_dcs};

/// Every experiment by name, in `all` order. `lint-workloads`, kept last,
/// is a smoke check rather than a figure, so `all` leaves it out.
const EXPERIMENTS: [(&str, fn()); 10] = [
    ("table3", table3),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("triggers", trigger_comparison),
    ("table4", || table4_and_5(false)),
    ("table5", || table4_and_5(true)),
    ("fig10", fig10),
    ("lint-workloads", lint_workloads),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut runs: Vec<fn()> = Vec::new();
    for arg in args.iter().filter(|a| *a != "all") {
        match EXPERIMENTS.iter().find(|&&(name, _)| name == arg) {
            Some(&(_, run)) => runs.push(run),
            None => {
                let names: Vec<&str> = EXPERIMENTS.iter().map(|&(name, _)| name).collect();
                eprintln!(
                    "unknown experiment `{arg}`; valid names: all, {}",
                    names.join(", ")
                );
                std::process::exit(2);
            }
        }
    }
    if args.is_empty() || args.iter().any(|a| a == "all") {
        runs = EXPERIMENTS[..EXPERIMENTS.len() - 1]
            .iter()
            .map(|&(_, run)| run)
            .collect();
    }
    for run in runs {
        run();
    }
}

/// `repro lint-workloads` — run the static analyzer over every built-in
/// workload program (20 MAS + 6 TPC-H + 3 zipf) against its generated
/// schema and print one line per program: diagnostic counts plus which
/// equivalence certificate (if any) the program earns. CI runs this as a
/// smoke test; any error-level finding exits nonzero. The data scales are
/// irrelevant to static analysis, so the smallest generators are used.
fn lint_workloads() {
    banner("lint — static analysis of the built-in workload programs");
    let mas = MasLab::at_scale(0.01);
    let tpch = TpchLab::at_scale(0.01);
    let zipf = ZipfLab::at_scale(0.01);
    let all = mas
        .workloads
        .iter()
        .map(|w| (&mas.data.db, w))
        .chain(tpch.workloads.iter().map(|w| (&tpch.data.db, w)))
        .chain(zipf.workloads.iter().map(|w| (&zipf.data.db, w)));
    println!(
        "{:<14} {:>7} {:>9} {:>6}  certificate",
        "program", "errors", "warnings", "infos"
    );
    let mut total_errors = 0;
    let mut certified = 0;
    let mut count = 0;
    for (db, w) in all {
        let report = datalog::lint(Some(db.schema()), &w.program);
        let errors = report.count(datalog::Severity::Error);
        total_errors += errors;
        count += 1;
        if report.certificate.any() {
            certified += 1;
        }
        println!(
            "{:<14} {:>7} {:>9} {:>6}  {}",
            w.name,
            errors,
            report.count(datalog::Severity::Warning),
            report.count(datalog::Severity::Info),
            report.certificate.describe(),
        );
        if errors > 0 {
            for d in &report.diagnostics {
                if d.severity == datalog::Severity::Error {
                    println!("    {d}");
                }
            }
        }
    }
    println!("{count} programs linted, {certified} with an equivalence certificate");
    if total_errors > 0 {
        eprintln!("lint-workloads: {total_errors} error-level finding(s)");
        std::process::exit(1);
    }
}

fn banner(title: &str) {
    println!("\n════════════════════════════════════════════════════════════════");
    println!("  {title}");
    println!("════════════════════════════════════════════════════════════════");
}

/// Table 3: containment of results for all 26 programs.
fn table3() {
    banner(&format!(
        "Table 3 — containment of results (MAS scale {}, TPC-H scale {})",
        mas_scale(),
        tpch_scale()
    ));
    println!(
        "{:<10} {:>12} {:>12} {:>12}",
        "program", "Step=Stage", "Ind⊆Stage", "Ind⊆Step"
    );
    let mas = MasLab::from_env();
    let tpch = TpchLab::from_env();
    let all = mas
        .workloads
        .iter()
        .map(|w| (&mas.data.db, w))
        .chain(tpch.workloads.iter().map(|w| (&tpch.data.db, w)));
    for (base, w) in all {
        let session = session_for(base, w);
        let [ind, step, stage, end] = run_four(&session);
        let row = relationships::table3_row(&ind, &step, &stage);
        if let Some(violation) = relationships::check_figure3_invariants(&ind, &step, &stage, &end)
        {
            println!("{:<10} FIGURE-3 INVARIANT VIOLATED: {violation}", w.name);
            continue;
        }
        println!(
            "{:<10} {:>12} {:>12} {:>12}",
            w.name,
            check(row.step_eq_stage),
            check(row.ind_sub_stage),
            check(row.ind_sub_step)
        );
    }
}

/// Figure 6: result sizes for the MAS programs, in the paper's three groups.
fn fig6() {
    banner(&format!(
        "Figure 6 — result sizes, MAS programs (scale {})",
        mas_scale()
    ));
    let lab = MasLab::from_env();
    println!(
        "{:<10} {:>12} {:>8} {:>8} {:>8}",
        "program", "independent", "step", "stage", "end"
    );
    let mut unproven = false;
    for (i, w) in lab.workloads.iter().enumerate() {
        let session = session_for(&lab.data.db, w);
        let [ind, step, stage, end] = run_four(&session);
        unproven |= !ind.proven_optimal;
        println!(
            "{:<10} {:>12} {:>8} {:>8} {:>8}",
            w.name,
            independent_size(&ind),
            step.size(),
            stage.size(),
            end.size()
        );
        if i == 9 || i == 14 {
            println!("{:-<50}", ""); // group boundaries: 6a | 6b | 6c
        }
    }
    unproven_footnote(unproven);
}

/// An Independent size, starred when the Min-Ones search did not prove it
/// minimum (see [`unproven_footnote`]).
fn independent_size(r: &RepairResult) -> String {
    let star = if r.proven_optimal { "" } else { "*" };
    format!("{}{star}", r.size())
}

/// The legend for [`independent_size`]'s star, printed when a table has
/// one.
fn unproven_footnote(any: bool) {
    if any {
        println!("* not proven minimum: the Min-Ones search stopped at its node budget");
    }
}

/// Figure 7: execution times for the MAS programs.
fn fig7() {
    banner(&format!(
        "Figure 7 — execution time, MAS programs (scale {})",
        mas_scale()
    ));
    let lab = MasLab::from_env();
    println!(
        "{:<10} {:>12} {:>10} {:>10} {:>10}",
        "program", "independent", "step", "stage", "end"
    );
    let mut totals = [0f64; 4];
    for w in &lab.workloads {
        let session = session_for(&lab.data.db, w);
        let results = run_four(&session);
        for (i, r) in results.iter().enumerate() {
            totals[i] += r.breakdown.total().as_secs_f64();
        }
        println!(
            "{:<10} {:>12} {:>10} {:>10} {:>10}",
            w.name,
            fmt_duration(results[0].breakdown.total()),
            fmt_duration(results[1].breakdown.total()),
            fmt_duration(results[2].breakdown.total()),
            fmt_duration(results[3].breakdown.total()),
        );
    }
    println!("{:-<56}", "");
    println!(
        "{:<10} {:>12.3} {:>10.3} {:>10.3} {:>10.3}   (avg seconds)",
        "average",
        totals[0] / 20.0,
        totals[1] / 20.0,
        totals[2] / 20.0,
        totals[3] / 20.0
    );
}

/// Figure 8: runtime breakdown of Algorithm 1 (independent) and
/// Algorithm 2 (step), averaged over programs 1–15 and 16–20. Algorithm 1
/// is the paper's eager formula build ([`independent::run`]), not the
/// lazy loop sessions serve Independent with.
fn fig8() {
    banner(&format!(
        "Figure 8 — runtime breakdown, Algorithms 1 & 2 (scale {})",
        mas_scale()
    ));
    let lab = MasLab::from_env();
    let mut groups: [[f64; 6]; 2] = [[0.0; 6]; 2]; // [group][alg1 e/p/s, alg2 e/p/s]
    let opts = MinOnesOptions {
        node_budget: RepairSession::DEFAULT_NODE_BUDGET,
        ..MinOnesOptions::default()
    };
    for (i, w) in lab.workloads.iter().enumerate() {
        let session = session_for(&lab.data.db, w);
        let ind = independent::run(session.db(), session.evaluator(), &opts);
        let step = session.run(Semantics::Step);
        let g = usize::from(i >= 15);
        let (e1, p1, s1) = ind.breakdown.fractions();
        let (e2, p2, s2) = step.breakdown().fractions();
        for (slot, v) in [e1, p1, s1, e2, p2, s2].into_iter().enumerate() {
            groups[g][slot] += v;
        }
    }
    for (g, label, n) in [(0, "programs 1–15", 15.0), (1, "programs 16–20", 5.0)] {
        println!("\n  {label}:");
        println!(
            "    Algorithm 1 (independent): Eval {:.0}%  ProcessProv {:.0}%  Solve {:.0}%",
            groups[g][0] / n * 100.0,
            groups[g][1] / n * 100.0,
            groups[g][2] / n * 100.0
        );
        println!(
            "    Algorithm 2 (step):        Eval {:.0}%  ProcessProv {:.0}%  Traverse {:.0}%",
            groups[g][3] / n * 100.0,
            groups[g][4] / n * 100.0,
            groups[g][5] / n * 100.0
        );
    }
}

/// Figure 9: result sizes and runtimes for the TPC-H programs.
fn fig9() {
    banner(&format!(
        "Figure 9 — TPC-H result sizes and runtimes (scale {})",
        tpch_scale()
    ));
    let lab = TpchLab::from_env();
    println!(
        "{:<8} {:>12} {:>8} {:>8} {:>8} | {:>12} {:>10} {:>10} {:>10}",
        "program", "independent", "step", "stage", "end", "t(ind)", "t(step)", "t(stage)", "t(end)"
    );
    let mut unproven = false;
    for w in &lab.workloads {
        let session = session_for(&lab.data.db, w);
        let [ind, step, stage, end] = run_four(&session);
        unproven |= !ind.proven_optimal;
        println!(
            "{:<8} {:>12} {:>8} {:>8} {:>8} | {:>12} {:>10} {:>10} {:>10}",
            w.name,
            independent_size(&ind),
            step.size(),
            stage.size(),
            end.size(),
            fmt_duration(ind.breakdown.total()),
            fmt_duration(step.breakdown.total()),
            fmt_duration(stage.breakdown.total()),
            fmt_duration(end.breakdown.total()),
        );
    }
    unproven_footnote(unproven);
}

/// Section 6 "Comparison with Triggers": programs 3, 4, 5, 8, 20 under
/// PostgreSQL (alphabetical) and MySQL (creation-order) firing.
fn trigger_comparison() {
    banner(&format!(
        "Triggers — PostgreSQL vs MySQL firing order (MAS scale {})",
        mas_scale()
    ));
    let lab = MasLab::from_env();
    println!(
        "{:<10} {:>14} {:>14} {:>8} {:>8} | {:>10} {:>10}",
        "program", "pg(size)", "mysql(size)", "step", "stage", "pg stable", "my stable"
    );
    for idx in [2usize, 3, 4, 7, 19] {
        let w = &lab.workloads[idx];
        let session = session_for(&lab.data.db, w);
        let trigs = triggers_from_program(session.program());
        // Reverse alphabetical names demonstrate the PostgreSQL reordering:
        // name triggers so alphabetical order is the reverse of creation.
        let named: Vec<triggers::Trigger> = trigs
            .iter()
            .enumerate()
            .map(|(i, t)| triggers::Trigger {
                name: format!("{}_{}", (b'z' - i as u8) as char, t.name),
                rule: t.rule,
            })
            .collect();
        let pg = run_triggers(
            session.db(),
            session.evaluator(),
            &named,
            FiringOrder::Alphabetical,
        );
        let my = run_triggers(
            session.db(),
            session.evaluator(),
            &named,
            FiringOrder::CreationOrder,
        );
        let step = session.run(Semantics::Step);
        let stage = session.run(Semantics::Stage);
        println!(
            "{:<10} {:>14} {:>14} {:>8} {:>8} | {:>10} {:>10}",
            w.name,
            pg.deleted.len(),
            my.deleted.len(),
            step.size(),
            stage.size(),
            check(pg.stable),
            check(my.stable),
        );
    }
}

const ERROR_STEPS: [usize; 6] = [100, 200, 300, 500, 700, 1000];

/// Tables 4 and 5: deletion semantics vs the HoloClean substitute on the
/// duplicated Author table.
fn table4_and_5(violations_view: bool) {
    let rows = env_usize("REPRO_ROWS", 5000);
    if violations_view {
        banner(&format!(
            "Table 5 — DC violations after/before repair ({rows} rows)"
        ));
        println!(
            "{:<8} {:>12} {:>12} {:>12} {:>12} {:>14} {:>12}",
            "errors", "DC1", "DC2", "DC3", "DC4", "HC total", "sem. total"
        );
    } else {
        banner(&format!(
            "Table 4 — over-deletions vs HoloClean-substitute ({rows} rows)"
        ));
        println!(
            "{:<8} {:>8} {:>8} {:>8} {:>8} {:>12}",
            "errors", "Ind", "Step", "Stage", "End", "HoloClean"
        );
    }
    let dcs = paper_dcs();
    for errors in ERROR_STEPS {
        let mut table = author_table(rows, 42);
        let injected = inject_errors(&mut table, errors, 99).len();
        // Deletion semantics.
        let db = author_instance_from_table(&table);
        let session =
            repair_core::RepairSession::new(db, dc_delta_program()).expect("DC program valid");
        let results = session.run_all();
        for r in &results {
            assert!(
                session.verify_stabilizing(r.deleted()),
                "semantics must always stabilize (Prop. 3.18)"
            );
        }
        // Cell repair.
        let before: Vec<usize> = dcs
            .iter()
            .map(|dc| count_violating_tuples(&table, dc))
            .collect();
        let mut hc_table = table.clone();
        let report = hc_repair(&mut hc_table, &dcs, &CellRepairConfig::default());
        let after: Vec<usize> = dcs
            .iter()
            .map(|dc| count_violating_tuples(&hc_table, dc))
            .collect();
        if violations_view {
            println!(
                "{:<8} {:>5}/{:<6} {:>5}/{:<6} {:>5}/{:<6} {:>5}/{:<6} {:>6}/{:<7} {:>5}/{:<6}",
                injected,
                after[0],
                before[0],
                after[1],
                before[1],
                after[2],
                before[2],
                after[3],
                before[3],
                after.iter().sum::<usize>(),
                before.iter().sum::<usize>(),
                0,
                before.iter().sum::<usize>(),
            );
        } else {
            let over = |r: &repair_core::RepairOutcome| r.size() as i64 - injected as i64;
            println!(
                "{:<8} {:>+8} {:>+8} {:>+8} {:>+8} {:>+12}",
                injected,
                over(&results[0]),
                over(&results[1]),
                over(&results[2]),
                over(&results[3]),
                report.repairs.len() as i64 - injected as i64,
            );
        }
    }
}

/// Figure 10: runtimes for the four semantics and the HoloClean substitute,
/// scaling errors (10a) and rows (10b).
fn fig10() {
    let rows = env_usize("REPRO_ROWS", 5000);
    banner(&format!("Figure 10a — runtime vs #errors ({rows} rows)"));
    fig10_line_header();
    for errors in ERROR_STEPS {
        fig10_row(rows, errors);
    }
    let errors = env_usize("REPRO_ERRORS", 700);
    banner(&format!("Figure 10b — runtime vs #rows ({errors} errors)"));
    fig10_line_header();
    for rows in [1000, 3000, 5000, 7000, 9000] {
        fig10_row(rows, errors);
    }
}

fn fig10_line_header() {
    println!(
        "{:<16} {:>12} {:>10} {:>10} {:>10} {:>12}",
        "config", "independent", "step", "stage", "end", "holoclean"
    );
}

fn fig10_row(rows: usize, errors: usize) {
    let dcs = paper_dcs();
    let mut table = author_table(rows, 42);
    inject_errors(&mut table, errors, 99);
    let db = author_instance_from_table(&table);
    let session =
        repair_core::RepairSession::new(db, dc_delta_program()).expect("DC program valid");
    let times: Vec<String> = bench::SEM_ORDER
        .iter()
        .map(|&s| fmt_duration(session.run(s).breakdown().total()))
        .collect();
    let mut hc_table = table.clone();
    let t0 = Instant::now();
    hc_repair(&mut hc_table, &dcs, &CellRepairConfig::default());
    let hc = t0.elapsed();
    println!(
        "{:<16} {:>12} {:>10} {:>10} {:>10} {:>12}",
        format!("{rows}r/{errors}e"),
        times[0],
        times[1],
        times[2],
        times[3],
        fmt_duration(hc)
    );
}
