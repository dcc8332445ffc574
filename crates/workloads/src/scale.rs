//! Programs over the zipf scaling universe (`datagen::scale`).
//!
//! Three shapes, all chosen so one rule owns almost all the work, so their
//! cost is the join core's and the planner's:
//!
//! * `zipf-cascade` — a three-rule chain seeded by the `'bad'` hubs; rule 2
//!   (the `Mid ⋈ Link ⋈ ΔHub` join over Zipf-skewed links) dominates every
//!   semi-naive round;
//! * `zipf-join` — a single wide rule (`Leaf ⋈ Link ⋈ Hub` filtered to
//!   `'bad'`), the purest single-heavy-rule workload;
//! * `zipf-pessimal` — the same join written in the *worst* textual order:
//!   the body leads with the huge unselective `Leaf` and buries the
//!   `k = 'bad'`-filtered `Hub` last, so a planner that follows source
//!   order drives the join from 60K leaves while a statistics-driven one
//!   drives it from the ~2% of hubs that are `'bad'`. The adversarial
//!   fixture for the cost-based planner's bench gate.

use crate::{ProgramClass, Workload};
use datagen::ScaleData;

/// Build the zipf workloads for a generated scaling database. The programs
/// carry no data-derived constants (the `'bad'` slice is deterministic), so
/// `data` is taken for signature symmetry with the MAS/TPC-H builders and
/// to keep call sites honest about which database the programs target.
pub fn zipf_programs(_data: &ScaleData) -> Vec<Workload> {
    vec![
        Workload::new(
            "zipf-cascade",
            ProgramClass::Cascade,
            "delta Hub(h, k) :- Hub(h, k), k = 'bad'.
             delta Mid(m, w) :- Mid(m, w), Link(h, m), delta Hub(h, k).
             delta Leaf(m, l) :- Leaf(m, l), delta Mid(m, w).",
        ),
        Workload::new(
            "zipf-join",
            ProgramClass::Cascade,
            "delta Leaf(m, l) :- Leaf(m, l), Link(h, m), Hub(h, k), k = 'bad'.",
        ),
        Workload::new(
            "zipf-pessimal",
            ProgramClass::Cascade,
            "delta Hub(h, k) :- Leaf(m, l), Mid(m, w), Link(h, m), Hub(h, k), k = 'bad'.",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::scale::{generate, ScaleConfig};
    use repair_core::{RepairSession, Semantics};

    #[test]
    fn zipf_workloads_run_under_all_semantics() {
        let data = generate(&ScaleConfig {
            hubs: 90,
            mids: 200,
            links: 400,
            leaves: 600,
            ..ScaleConfig::default()
        });
        for w in zipf_programs(&data) {
            let session = RepairSession::new(data.db.clone(), w.program.clone())
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            for sem in Semantics::ALL {
                let out = session.run(sem);
                assert!(
                    session.verify_stabilizing(out.deleted()),
                    "{} under {sem} must stabilize",
                    w.name
                );
                assert!(out.size() > 0, "{} under {sem} deletes something", w.name);
            }
        }
    }
}
