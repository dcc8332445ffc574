//! The HoloClean-substitute pipeline against the four semantics — the
//! Tables 4–5 comparison, mechanized at test scale.

use delta_repairs::cellrepair::{count_violating_tuples, repair, CellRepairConfig, Table};
use delta_repairs::datagen::{author_table, inject_errors};
use delta_repairs::workloads::{author_instance_from_table, dc_delta_program, paper_dcs};
use delta_repairs::RepairSession;

fn total_violations(table: &Table) -> usize {
    paper_dcs()
        .iter()
        .map(|dc| count_violating_tuples(table, dc))
        .sum()
}

/// A clean generated table has no DC violations; injection creates them in
/// proportion to the requested error count.
#[test]
fn injection_creates_detectable_violations() {
    let mut table = author_table(800, 42);
    assert_eq!(total_violations(&table), 0, "generator output is clean");
    let injected = inject_errors(&mut table, 80, 43);
    assert_eq!(injected.len(), 80);
    let v = total_violations(&table);
    assert!(
        v >= 80,
        "each injected duplicate violates at least one DC, got {v}"
    );
}

/// Error injection is deterministic in the seed.
#[test]
fn injection_is_deterministic() {
    let mut t1 = author_table(500, 1);
    let mut t2 = author_table(500, 1);
    let e1 = inject_errors(&mut t1, 50, 2);
    let e2 = inject_errors(&mut t2, 50, 2);
    assert_eq!(t1.rows, t2.rows);
    assert_eq!(e1.len(), e2.len());
}

/// Table 4's headline: all four semantics leave zero violations, and
/// independent deletes no more tuples than end/stage.
#[test]
fn semantics_always_fix_all_violations() {
    let mut table = author_table(600, 7);
    inject_errors(&mut table, 60, 11);
    let db = author_instance_from_table(&table);
    let session = RepairSession::new(db, dc_delta_program()).unwrap();
    let [ind, step, stage, end] = session.run_all();
    for r in [&ind, &step, &stage, &end] {
        assert!(
            session.verify_stabilizing(r.deleted()),
            "{} must fix every violation",
            r.semantics()
        );
    }
    assert!(ind.size() <= step.size());
    assert!(stage.size() <= end.size());
    // DC-style programs: end/stage delete whole violation clusters, so
    // they over-delete relative to independent (Table 4's +columns).
    assert!(ind.size() < end.size());
}

/// Table 5's headline: probabilistic cell repair reduces violations
/// substantially but is not guaranteed to eliminate them.
#[test]
fn cell_repair_reduces_but_may_not_eliminate_violations() {
    let mut table = author_table(1000, 7);
    inject_errors(&mut table, 120, 11);
    let before = total_violations(&table);
    let report = repair(&mut table, &paper_dcs(), &CellRepairConfig::default());
    let after = total_violations(&table);
    assert!(
        report.repairs.len() > 50,
        "cell repair must actually repair"
    );
    assert!(
        after < before / 2,
        "repairs must reduce violations substantially ({before} -> {after})"
    );
    assert!(report.noisy_cells >= report.repairs.len());
}

/// Raising the confidence margin produces more skips and fewer repairs —
/// the under-repair knob.
#[test]
fn confidence_margin_controls_under_repair() {
    let mut base = author_table(800, 7);
    inject_errors(&mut base, 100, 11);
    let mut cautious = base.clone();
    let dcs = paper_dcs();
    let default_report = repair(&mut base, &dcs, &CellRepairConfig::default());
    let cautious_report = repair(
        &mut cautious,
        &dcs,
        &CellRepairConfig {
            confidence_margin: 0.9,
            ..CellRepairConfig::default()
        },
    );
    assert!(cautious_report.repairs.len() <= default_report.repairs.len());
    assert!(cautious_report.skipped_low_confidence >= default_report.skipped_low_confidence);
}

/// Cell repair is deterministic in the config seed.
#[test]
fn cell_repair_is_deterministic() {
    let mut t1 = author_table(600, 3);
    inject_errors(&mut t1, 60, 5);
    let mut t2 = t1.clone();
    let r1 = repair(&mut t1, &paper_dcs(), &CellRepairConfig::default());
    let r2 = repair(&mut t2, &paper_dcs(), &CellRepairConfig::default());
    assert_eq!(r1.repairs, r2.repairs);
    assert_eq!(t1.rows, t2.rows);
}

/// The violation counter agrees with a naive quadratic recount.
#[test]
fn violation_counter_matches_naive_recount() {
    let mut table = author_table(300, 9);
    inject_errors(&mut table, 30, 10);
    for dc in paper_dcs() {
        let fast = count_violating_tuples(&table, &dc);
        let mut violating = vec![false; table.rows.len()];
        for i in 0..table.rows.len() {
            for j in 0..table.rows.len() {
                if i != j && dc.violates(&table, i, j) {
                    violating[i] = true;
                    violating[j] = true;
                }
            }
        }
        let naive = violating.iter().filter(|&&b| b).count();
        assert_eq!(fast, naive, "{}", dc.name);
    }
}
