//! The `RepairSession` API, pinned from the outside:
//!
//! * **apply/undo round-trip property** — committing a repair and undoing
//!   it restores the instance exactly: tuple ids, dedup map, composite
//!   index contents (via `Instance: PartialEq`) and stability status;
//! * the request builder, unified error surface and semantics name
//!   round-trip.

use delta_repairs::{
    parse_program, testkit, Instance, Program, RepairError, RepairRequest, RepairSession, Semantics,
};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// apply → undo round-trip property.
// ---------------------------------------------------------------------------

/// The random schema/program family of tests/stability_properties.rs,
/// reused here to drive the mutation machinery instead of the semantics.
const RULE_POOL: [&str; 6] = [
    "delta R(x) :- R(x), x = 0.",
    "delta R(x) :- R(x), S(x, y), T(y).",
    "delta S(x, y) :- S(x, y), delta R(x).",
    "delta S(x, y) :- S(x, y), T(y), x != y.",
    "delta T(y) :- T(y), S(x, y), delta R(x).",
    "delta T(y) :- T(y), delta S(x, y).",
];

fn build_db(r: &[i64], s: &[(i64, i64)], t: &[i64]) -> Instance {
    let mut schema = delta_repairs::Schema::new();
    schema.relation("R", &[("x", delta_repairs::AttrType::Int)]);
    schema.relation(
        "S",
        &[
            ("x", delta_repairs::AttrType::Int),
            ("y", delta_repairs::AttrType::Int),
        ],
    );
    schema.relation("T", &[("y", delta_repairs::AttrType::Int)]);
    let mut db = Instance::new(schema);
    for &v in r {
        db.insert_values("R", [delta_repairs::Value::Int(v)])
            .unwrap();
    }
    for &(a, b) in s {
        db.insert_values(
            "S",
            [delta_repairs::Value::Int(a), delta_repairs::Value::Int(b)],
        )
        .unwrap();
    }
    for &v in t {
        db.insert_values("T", [delta_repairs::Value::Int(v)])
            .unwrap();
    }
    db
}

fn build_program(mask: u8) -> Program {
    let src: String = RULE_POOL
        .iter()
        .enumerate()
        .filter(|&(i, _)| mask & (1 << i) != 0)
        .map(|(_, r)| format!("{r}\n"))
        .collect();
    parse_program(&src).expect("pool rules are well-formed")
}

prop_compose! {
    fn arb_db()(
        r in prop::collection::btree_set(0i64..6, 0..5),
        s in prop::collection::btree_set((0i64..6, 0i64..6), 0..8),
        t in prop::collection::btree_set(0i64..6, 0..5),
    ) -> Instance {
        build_db(
            &r.into_iter().collect::<Vec<_>>(),
            &s.into_iter().collect::<Vec<_>>(),
            &t.into_iter().collect::<Vec<_>>(),
        )
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// apply → undo is the identity on the instance — tuple ids, index
    /// contents (the probe indexes built at session construction), dedup
    /// maps and live bits all compare equal — and the stability status
    /// observed before the cycle is restored with them.
    #[test]
    fn apply_then_undo_restores_instance_exactly(
        db in arb_db(),
        mask in 1u8..(1 << RULE_POOL.len()),
        sem_idx in 0usize..4,
    ) {
        let semantics = Semantics::ALL[sem_idx];
        let mut session = RepairSession::new(db, build_program(mask)).expect("valid");
        let before_db = session.db().clone();
        let before_stable = session.is_stable();

        let outcome = session.run(semantics);
        let removed = outcome.apply(&mut session).expect("fresh outcome applies");
        prop_assert_eq!(removed, outcome.size(), "every deleted tuple was live");
        prop_assert!(
            session.is_stable(),
            "{} repair must leave a stable database",
            semantics
        );

        let restored = session.undo().expect("one repair to undo");
        prop_assert_eq!(restored, removed, "undo revives exactly what apply removed");
        prop_assert_eq!(
            session.db(),
            &before_db,
            "instance not restored exactly (ids / indexes / live bits)"
        );
        prop_assert_eq!(session.is_stable(), before_stable, "stability status restored");

        // And the restored session still evaluates identically.
        let again = session.run(semantics);
        prop_assert_eq!(again.deleted(), outcome.deleted());
    }

    /// Durable `delete_batch` keeps evaluation consistent: deleting a
    /// semantics' delete-set by hand leaves a stable database, exactly as
    /// applying the outcome does.
    #[test]
    fn delete_batch_matches_apply(
        db in arb_db(),
        mask in 1u8..(1 << RULE_POOL.len()),
    ) {
        let mut a = RepairSession::new(db.clone(), build_program(mask)).expect("valid");
        let mut b = RepairSession::new(db, build_program(mask)).expect("valid");
        let outcome = a.run(Semantics::End);
        outcome.apply(&mut a).expect("fresh");
        let removed = b.delete_batch(outcome.deleted()).expect("same ids");
        prop_assert_eq!(removed, outcome.size());
        prop_assert_eq!(a.db(), b.db());
        prop_assert!(b.is_stable());
    }
}

// ---------------------------------------------------------------------------
// Error surface and name round-trips at the facade level.
// ---------------------------------------------------------------------------

#[test]
fn semantics_names_round_trip_through_the_facade() {
    for sem in Semantics::ALL {
        let parsed: Semantics = sem.to_string().parse().expect("own name parses");
        assert_eq!(parsed, sem);
    }
    assert!("sideways".parse::<Semantics>().is_err());
}

#[test]
fn every_public_failure_is_a_repair_error() {
    // Planning failure.
    let plan_err = RepairSession::new(
        testkit::figure1_instance(),
        parse_program("delta Nope(x) :- Nope(x).").unwrap(),
    )
    .map(|_| ())
    .unwrap_err();
    assert!(matches!(plan_err, RepairError::Datalog { .. }));

    let mut session =
        RepairSession::new(testkit::figure1_instance(), testkit::figure2_program()).unwrap();

    // Storage failure, with context, through the batch mutators.
    let ins_err = session
        .insert_batch("NoSuchRelation", [[delta_repairs::Value::Int(1)]])
        .unwrap_err();
    assert!(matches!(ins_err, RepairError::Storage { .. }));
    assert!(ins_err.to_string().contains("insert into NoSuchRelation"));

    // Request misuse — the conditions that used to be solver panics.
    let req_err = session
        .repair(&RepairRequest::new(Semantics::Independent).node_budget(0))
        .unwrap_err();
    assert!(matches!(req_err, RepairError::InvalidRequest(_)));

    // Undo with nothing applied.
    assert!(matches!(session.undo(), Err(RepairError::NothingToUndo)));

    // Stale outcome after a mutation.
    let outcome = session.run(Semantics::End);
    session
        .insert_batch(
            "Grant",
            [[
                delta_repairs::Value::Int(9),
                delta_repairs::Value::str("DFG"),
            ]],
        )
        .unwrap();
    assert!(matches!(
        outcome.apply(&mut session),
        Err(RepairError::StaleOutcome { .. })
    ));
}

/// Mutating through the session keeps serving correct repairs with no
/// re-planning: the scenario of the module docs, verified end to end.
#[test]
fn session_serves_repairs_across_mutations() {
    let mut session =
        RepairSession::new(testkit::figure1_instance(), testkit::figure2_program()).unwrap();
    assert_eq!(session.run(Semantics::Independent).size(), 3);

    // New ERC grant for Maggie: the cascade widens.
    session
        .insert_batch(
            "Grant",
            [[
                delta_repairs::Value::Int(3),
                delta_repairs::Value::str("ERC"),
            ]],
        )
        .unwrap();
    session
        .insert_batch(
            "AuthGrant",
            [[delta_repairs::Value::Int(2), delta_repairs::Value::Int(3)]],
        )
        .unwrap();
    let ind = session.run(Semantics::Independent);
    assert_eq!(ind.size(), 5, "two grants + three links now sever");
    assert!(session.verify_stabilizing(ind.deleted()));

    // Commit, then undo back to the widened database.
    let before = session.db().clone();
    ind.apply(&mut session).unwrap();
    assert!(session.is_stable());
    session.undo().unwrap();
    assert_eq!(session.db(), &before);
}
