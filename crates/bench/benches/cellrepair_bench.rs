//! Figure 10 — runtime scaling of the four semantics and the
//! HoloClean-substitute cell repair, versus the number of errors (10a)
//! and the number of rows (10b).

use cellrepair::{repair, CellRepairConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datagen::{author_table, inject_errors};
use repair_core::{RepairRequest, RepairSession, Semantics};
use std::hint::black_box;
use std::time::Duration;
use workloads::{author_instance_from_table, dc_delta_program};

fn scenario(rows: usize, errors: usize) -> cellrepair::Table {
    let mut table = author_table(rows, 7);
    inject_errors(&mut table, errors, 11);
    table
}

fn bench_vs_errors(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig10a_vs_errors");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(400))
        .measurement_time(Duration::from_millis(1200));
    let rows = 1500;
    for errors in [50usize, 150, 300] {
        let table = scenario(rows, errors);
        // The four semantics on the DC program.
        let db = author_instance_from_table(&table);
        let session = RepairSession::new(db, dc_delta_program()).expect("DC program");
        for sem in [Semantics::Independent, Semantics::End] {
            group.bench_with_input(BenchmarkId::new(sem.name(), errors), &sem, |b, &sem| {
                b.iter(|| {
                    let req = RepairRequest::new(sem).incremental(false);
                    black_box(session.repair(&req).expect("valid").size())
                })
            });
        }
        // The probabilistic cell repair.
        group.bench_with_input(BenchmarkId::new("holoclean_sub", errors), &table, |b, t| {
            b.iter(|| {
                let mut work = t.clone();
                black_box(
                    repair(
                        &mut work,
                        &workloads::paper_dcs(),
                        &CellRepairConfig::default(),
                    )
                    .repairs
                    .len(),
                )
            })
        });
    }
    group.finish();
}

fn bench_vs_rows(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig10b_vs_rows");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(400))
        .measurement_time(Duration::from_millis(1200));
    let errors = 100;
    for rows in [1000usize, 2000, 4000] {
        let table = scenario(rows, errors);
        let db = author_instance_from_table(&table);
        let session = RepairSession::new(db, dc_delta_program()).expect("DC program");
        for sem in [Semantics::Independent, Semantics::End] {
            group.bench_with_input(BenchmarkId::new(sem.name(), rows), &sem, |b, &sem| {
                b.iter(|| {
                    let req = RepairRequest::new(sem).incremental(false);
                    black_box(session.repair(&req).expect("valid").size())
                })
            });
        }
        group.bench_with_input(BenchmarkId::new("holoclean_sub", rows), &table, |b, t| {
            b.iter(|| {
                let mut work = t.clone();
                black_box(
                    repair(
                        &mut work,
                        &workloads::paper_dcs(),
                        &CellRepairConfig::default(),
                    )
                    .repairs
                    .len(),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_vs_errors, bench_vs_rows);
criterion_main!(benches);
