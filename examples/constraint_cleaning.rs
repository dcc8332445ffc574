//! Data cleaning with denial constraints: minimum tuple-deletion repair
//! (independent semantics) versus probabilistic cell repair (the paper's
//! HoloClean comparison, Section 6 / Tables 4–5).
//!
//! We build the 4-attribute `Author(aid, name, oid, organization)` table,
//! inject duplicate-key errors, and repair it three ways:
//!
//! 1. **Independent semantics** — the paper's DC-faithful minimum repair:
//!    deletes exactly one tuple per violation cluster, always stabilizes.
//! 2. **End semantics** — over-deletes (every violating tuple goes), but
//!    also always stabilizes.
//! 3. **Cell repair** — HoloClean-style: fixes attribute values instead of
//!    deleting rows, but its relaxed soft constraints can leave residual
//!    violations (the paper's Table 5).
//!
//! Run with: `cargo run --release --example constraint_cleaning`

use delta_repairs::cellrepair::{count_violating_tuples, repair, CellRepairConfig};
use delta_repairs::datagen::{author_table, inject_errors};
use delta_repairs::workloads::{author_instance_from_table, dc_delta_program, paper_dcs};
use delta_repairs::{RepairSession, Semantics};

fn main() {
    let rows: usize = std::env::var("ROWS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2000);
    let errors: usize = std::env::var("ERRORS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200);

    // A clean Author table, then `errors` injected violations (duplicated
    // aids with perturbed attributes — exactly what DC1–DC4 forbid).
    let mut table = author_table(rows, 7);
    let injected = inject_errors(&mut table, errors, 11);
    println!(
        "{} rows, {} injected errors",
        table.rows.len(),
        injected.len()
    );

    let dcs = paper_dcs();
    let before: usize = dcs
        .iter()
        .map(|dc| count_violating_tuples(&table, dc))
        .sum();
    println!("violating tuples before repair (summed over DC1–DC4): {before}\n");

    // --- Tuple-deletion repairs under the four semantics ------------------
    let db = author_instance_from_table(&table);
    let session = RepairSession::new(db, dc_delta_program()).expect("DC program");
    for sem in [
        Semantics::Independent,
        Semantics::Step,
        Semantics::Stage,
        Semantics::End,
    ] {
        let result = session.run(sem);
        let over = result.size() as i64 - injected.len() as i64;
        // Fewer deletions than injected errors is possible: duplicated rows
        // that collide under set semantics or clustered violations can be
        // resolved by a single deletion.
        println!(
            "{:<12} deleted {:>5} tuples ({:+} vs the {} injected errors)  stable: {}",
            sem.to_string(),
            result.size(),
            over,
            injected.len(),
            session.verify_stabilizing(result.deleted()),
        );
    }

    // --- HoloClean-style cell repair ---------------------------------------
    let mut repaired = table.clone();
    let report = repair(&mut repaired, &dcs, &CellRepairConfig::default());
    let after: usize = dcs
        .iter()
        .map(|dc| count_violating_tuples(&repaired, dc))
        .sum();
    let rows_touched: std::collections::HashSet<usize> =
        report.repairs.iter().map(|r| r.row).collect();
    println!(
        "\ncell-repair    repaired {:>5} cells ({} rows touched, {} skipped low-confidence); \
         residual violating tuples: {after}",
        report.repairs.len(),
        rows_touched.len(),
        report.skipped_low_confidence
    );
    if after > 0 {
        println!(
            "               -> probabilistic cell repair under-repairs (Table 5's finding); \
             the delta-rule semantics never leave violations (Prop. 3.18)."
        );
    }
}
