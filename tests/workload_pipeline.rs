//! End-to-end pipeline over the paper's 26 workloads at test scale:
//! generate data, wire constants, run all four semantics, verify stability
//! and the Figure 3 invariants, and spot-check the Table 3 containment
//! pattern where it is structural.

use delta_repairs::datagen::{mas, tpch, MasConfig, TpchConfig};
use delta_repairs::relationships::{check_figure3_invariants, is_subset, set_eq};
use delta_repairs::workloads::{mas_programs, tpch_programs, ProgramClass, Workload};
use delta_repairs::{Instance, OptimalityCertificate, RepairRequest, RepairSession, Semantics};

fn run_workload(
    base: &Instance,
    w: &Workload,
) -> (RepairSession, [delta_repairs::RepairResult; 4]) {
    let session = RepairSession::new(base.clone(), w.program.clone())
        .unwrap_or_else(|e| panic!("workload {}: {e}", w.name));
    let results = session
        .run_all()
        .map(delta_repairs::RepairOutcome::into_result);
    (session, results)
}

#[test]
fn all_mas_workloads_stabilize_and_satisfy_figure3() {
    let data = mas::generate(&MasConfig::scaled(0.02));
    for w in mas_programs(&data) {
        let (session, [ind, step, stage, end]) = run_workload(&data.db, &w);
        for r in [&ind, &step, &stage, &end] {
            assert!(
                session.verify_stabilizing(&r.deleted),
                "{} under {} is not stabilizing",
                w.name,
                r.semantics
            );
        }
        assert!(
            check_figure3_invariants(&ind, &step, &stage, &end).is_none(),
            "{}: figure-3 violated (ind={} step={} stage={} end={})",
            w.name,
            ind.size(),
            step.size(),
            stage.size(),
            end.size()
        );
    }
}

#[test]
fn all_tpch_workloads_stabilize_and_satisfy_figure3() {
    let data = tpch::generate(&TpchConfig::scaled(0.01));
    for w in tpch_programs(&data) {
        let (session, [ind, step, stage, end]) = run_workload(&data.db, &w);
        for r in [&ind, &step, &stage, &end] {
            assert!(
                session.verify_stabilizing(&r.deleted),
                "{} under {} is not stabilizing",
                w.name,
                r.semantics
            );
        }
        assert!(
            check_figure3_invariants(&ind, &step, &stage, &end).is_none(),
            "{}",
            w.name
        );
    }
}

/// mas-14 at benchmark scale (the two MAS datasets of the benchmark's
/// paper-suite at `--seed 42`): the default node budget used to run out
/// there and return a non-minimum set. Dominance now settles it before
/// the search. The expected sizes hold for any solver: every minimum of
/// one formula has the same size, whichever of them is returned.
#[test]
fn mas14_is_proven_minimum_at_benchmark_scale() {
    for (seed, size) in [(84, 919), (85, 887)] {
        let data = mas::generate(&MasConfig {
            seed,
            ..MasConfig::scaled(0.1)
        });
        let w = mas_programs(&data)
            .into_iter()
            .find(|w| w.name == "mas-14")
            .expect("mas-14");
        let session = RepairSession::new(data.db, w.program).unwrap();
        let r = session
            .repair(&RepairRequest::new(Semantics::Independent))
            .unwrap();
        assert!(r.proven_optimal(), "seed {seed}: not proven");
        assert_eq!(
            r.optimality().certificate,
            OptimalityCertificate::SearchComplete,
            "seed {seed}"
        );
        assert_eq!(r.size(), size, "seed {seed}");
        assert_eq!(r.optimality().sat_decisions, 0, "seed {seed}: searched");
    }
}

/// Structural rows of Table 3 that must hold regardless of data scale.
#[test]
fn table3_structural_rows() {
    let data = mas::generate(&MasConfig::scaled(0.02));
    let workloads = mas_programs(&data);
    let by_name = |n: &str| workloads.iter().find(|w| w.name == n).unwrap();

    // Program 2: the independent result is a single non-derivable Author
    // tuple, so Ind ⊄ Stage and Ind ⊄ Step (the paper's ✗ ✗ row).
    let (_, [ind, step, stage, _]) = run_workload(&data.db, by_name("mas-02"));
    assert_eq!(ind.size(), 1);
    assert!(
        !is_subset(&ind.deleted, &stage.deleted),
        "mas-02: Ind ⊄ Stage"
    );
    assert!(
        !is_subset(&ind.deleted, &step.deleted),
        "mas-02: Ind ⊄ Step"
    );

    // Programs 3: two rules share a body; stage deletes both relations,
    // step deletes one tuple — Step ≠ Stage but Ind ⊆ Step (✗ ✓ ✓ row).
    let (_, [ind3, step3, stage3, _]) = run_workload(&data.db, by_name("mas-03"));
    assert!(
        !set_eq(&step3.deleted, &stage3.deleted),
        "mas-03: Step ≠ Stage"
    );
    assert!(
        is_subset(&ind3.deleted, &step3.deleted),
        "mas-03: Ind ⊆ Step"
    );
    assert_eq!(ind3.size(), 1);
    assert_eq!(step3.size(), 1);

    // Programs 16–20 are pure cascades: every derivable tuple must go, all
    // three containments hold (the ✓ ✓ ✓ rows) and all four sizes agree.
    for name in ["mas-16", "mas-17", "mas-18", "mas-19", "mas-20"] {
        let (_, [ind, step, stage, end]) = run_workload(&data.db, by_name(name));
        assert!(
            set_eq(&step.deleted, &stage.deleted),
            "{name}: Step = Stage"
        );
        assert!(
            is_subset(&ind.deleted, &stage.deleted),
            "{name}: Ind ⊆ Stage"
        );
        assert!(is_subset(&ind.deleted, &step.deleted), "{name}: Ind ⊆ Step");
        assert_eq!(ind.size(), end.size(), "{name}: cascades leave no choice");
    }

    // Programs 11–15: single DC-style rule with growing joins — the
    // independent result size must not increase with join depth
    // (Figure 6b's shape).
    let sizes: Vec<usize> = ["mas-11", "mas-12", "mas-13", "mas-14", "mas-15"]
        .iter()
        .map(|n| run_workload(&data.db, by_name(n)).1[0].size())
        .collect();
    for w in sizes.windows(2) {
        assert!(w[1] <= w[0], "Ind size must shrink with joins: {sizes:?}");
    }
    // End/stage/step delete only Cite tuples there, so their sizes agree
    // across 11–15.
    let end_sizes: Vec<usize> = ["mas-11", "mas-12", "mas-13", "mas-14", "mas-15"]
        .iter()
        .map(|n| run_workload(&data.db, by_name(n)).1[3].size())
        .collect();
    assert!(end_sizes.windows(2).all(|w| w[0] == w[1]), "{end_sizes:?}");
}

/// The paper's class taxonomy is wired into the workload set.
#[test]
fn workload_classes_cover_all_three() {
    let data = mas::generate(&MasConfig::scaled(0.02));
    let workloads = mas_programs(&data);
    assert_eq!(workloads.len(), 20);
    for class in [
        ProgramClass::DcLike,
        ProgramClass::Cascade,
        ProgramClass::Mixed,
    ] {
        assert!(
            workloads.iter().any(|w| w.class == class),
            "missing class {class:?}"
        );
    }
    let tdata = tpch::generate(&TpchConfig::scaled(0.01));
    assert_eq!(tpch_programs(&tdata).len(), 6);
}

/// Dataset generation is deterministic and scale behaves monotonically.
#[test]
fn generators_are_deterministic_and_scale() {
    let a = mas::generate(&MasConfig::scaled(0.02));
    let b = mas::generate(&MasConfig::scaled(0.02));
    assert_eq!(a.db.total_rows(), b.db.total_rows());
    assert_eq!(a.busiest_org, b.busiest_org);
    assert_eq!(a.common_name, b.common_name);
    let big = mas::generate(&MasConfig::scaled(0.05));
    assert!(big.db.total_rows() > a.db.total_rows());

    let t1 = tpch::generate(&TpchConfig::scaled(0.01));
    let t2 = tpch::generate(&TpchConfig::scaled(0.01));
    assert_eq!(t1.db.total_rows(), t2.db.total_rows());
}
