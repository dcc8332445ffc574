//! [`RepairSession`] — the service-grade entry point of the repair system.
//!
//! A session **owns** the [`Instance`] and the prepared [`Evaluator`]: no
//! `&mut db` at construction followed by `&db` at every run, no way for a
//! caller to mutate data behind the evaluator's indexes. Mutations flow
//! through [`RepairSession::insert_batch`] / [`RepairSession::delete_batch`]
//! (incremental index and statistics maintenance; join plans are re-derived
//! only when the statistics drift far from their plan-time snapshot),
//! repairs are described
//! by a [`RepairRequest`] and come back as a [`RepairOutcome`] that can
//! [`RepairOutcome::preview`] its effect, [`RepairOutcome::apply`] itself to
//! the session, and be rolled back with [`RepairSession::undo`].
//!
//! ```
//! use repair_core::{RepairRequest, RepairSession, Semantics};
//! use repair_core::testkit;
//!
//! let mut session =
//!     RepairSession::new(testkit::figure1_instance(), testkit::figure2_program())?;
//!
//! let outcome = session.repair(&RepairRequest::new(Semantics::Independent))?;
//! assert_eq!(outcome.size(), 3);
//!
//! outcome.apply(&mut session)?;          // commit: tuples leave the database
//! assert!(session.is_stable());
//! session.undo()?;                       // roll the repair back
//! assert!(!session.is_stable());
//! # Ok::<(), repair_core::RepairError>(())
//! ```
//!
//! Long-lived sessions are **incremental**: every durable mutation lands in
//! the storage journal, and the next end-semantics `repair()` replays only
//! the affected cone against a cached fixpoint checkpoint instead of
//! re-deriving the world — same bits, small-delta cost. The mutate →
//! re-repair → apply loop is the intended service shape:
//!
//! ```
//! use repair_core::{RepairSession, Semantics};
//! use repair_core::testkit;
//! use storage::Value;
//!
//! let mut session =
//!     RepairSession::new(testkit::figure1_instance(), testkit::figure2_program())?;
//! let first = session.run(Semantics::End);       // primes the checkpoint
//!
//! // Ingest a batch; the next repair advances incrementally.
//! session.insert_batch("Grant", [[Value::Int(9), Value::str("ERC")]])?;
//! let second = session.run(Semantics::End);
//! assert!(second.served_incrementally());
//! assert_eq!(second.size(), first.size() + 1);   // the new seed fires once
//!
//! second.apply(&mut session)?;                   // commit the re-repair
//! assert!(session.is_stable());
//! # Ok::<(), repair_core::RepairError>(())
//! ```

use crate::engine::{DeltaPolicy, EngineState, FixpointDriver};
use crate::error::RepairError;
use crate::result::{PhaseBreakdown, RepairResult, Semantics};
use crate::{end, independent, stability, stage, step};
use datalog::{Assignment, EquivalenceCertificate, Evaluator, PlannedProgram, Program};
use sat::MinOnesOptions;
use std::collections::HashMap;
use std::fmt;
use std::path::Path;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};
use storage::{
    DiskOptions, DiskStore, HistoryEntry, Instance, MutationKind, RecoveryReport, SessionMeta,
    StorageError, TupleId, Value, WalRecord,
};

/// Parameters of one repair computation, assembled builder-style.
///
/// ```
/// use repair_core::{RepairRequest, Semantics};
/// use std::time::Duration;
///
/// let req = RepairRequest::new(Semantics::Independent)
///     .node_budget(50_000)
///     .time_budget(Duration::from_secs(2))
///     .capture_provenance(true);
/// assert_eq!(req.semantics_value(), Semantics::Independent);
/// ```
#[derive(Clone, Debug)]
pub struct RepairRequest {
    semantics: Semantics,
    node_budget: u64,
    time_budget: Option<Duration>,
    capture_provenance: bool,
    incremental: bool,
    certificates: bool,
}

impl RepairRequest {
    /// A request for `semantics` with the default budgets:
    /// [`RepairSession::DEFAULT_NODE_BUDGET`] decision nodes, no time
    /// budget, no provenance capture.
    pub fn new(semantics: Semantics) -> RepairRequest {
        RepairRequest {
            semantics,
            node_budget: RepairSession::DEFAULT_NODE_BUDGET,
            time_budget: None,
            capture_provenance: false,
            incremental: true,
            certificates: true,
        }
    }

    /// Change the requested semantics.
    pub fn semantics(mut self, semantics: Semantics) -> RepairRequest {
        self.semantics = semantics;
        self
    }

    /// Decision-node budget for the Min-Ones search (independent
    /// semantics), per component of each round's solve. Must be positive;
    /// `u64::MAX` means "search to proven optimality".
    pub fn node_budget(mut self, nodes: u64) -> RepairRequest {
        self.node_budget = nodes;
        self
    }

    /// Wall-clock budget for Independent. Checked after each check round of
    /// the lazy loop ([`crate::independent::serve`]) that found violations:
    /// once exhausted, the current candidate is closed into a stabilizing
    /// (not necessarily minimum) set, marked
    /// [`OptimalityCertificate::TimeBudgetExhausted`]. The PTIME semantics
    /// ignore it. Must be non-zero.
    pub fn time_budget(mut self, budget: Duration) -> RepairRequest {
        self.time_budget = Some(budget);
        self
    }

    /// Also capture the end-semantics provenance (assignment stream +
    /// derivation layers) in the outcome, enabling
    /// [`RepairOutcome::provenance`]-based explanations without re-running
    /// evaluation.
    pub fn capture_provenance(mut self, capture: bool) -> RepairRequest {
        self.capture_provenance = capture;
        self
    }

    /// Allow the session to serve this request from its incrementally
    /// maintained fixpoint checkpoint (on by default). The answer is
    /// bit-identical to a full recompute either way — this is the escape
    /// hatch for benchmarking the full path and for distrustful callers.
    /// See [`RepairSession::repair`] for when the engine silently falls
    /// back to a full recompute anyway.
    pub fn incremental(mut self, incremental: bool) -> RepairRequest {
        self.incremental = incremental;
        self
    }

    /// Allow the session to serve this request through its static
    /// semantics-equivalence certificate (on by default): when
    /// `datalog::lint::certify` proves the requested semantics produces the
    /// same delete-set as the end-semantics fixpoint for this program, the
    /// cheap fixpoint serves the request and the outcome is marked
    /// [`RepairOutcome::served_via_certificate`]. The delete-set is
    /// bit-identical either way — `certificates(false)` is the escape hatch
    /// for differential testing and distrustful callers.
    pub fn certificates(mut self, certificates: bool) -> RepairRequest {
        self.certificates = certificates;
        self
    }

    /// Is certificate-driven dispatch allowed?
    pub fn certificates_value(&self) -> bool {
        self.certificates
    }

    /// Is incremental serving allowed?
    pub fn incremental_value(&self) -> bool {
        self.incremental
    }

    /// The requested semantics.
    pub fn semantics_value(&self) -> Semantics {
        self.semantics
    }

    fn validate(&self) -> Result<(), RepairError> {
        if self.node_budget == 0 {
            return Err(RepairError::InvalidRequest(
                "node_budget must be positive (use u64::MAX for an exact search)".into(),
            ));
        }
        if self.time_budget == Some(Duration::ZERO) {
            return Err(RepairError::InvalidRequest(
                "time_budget must be non-zero (omit it to search without a deadline)".into(),
            ));
        }
        Ok(())
    }

    fn minones(&self) -> MinOnesOptions {
        MinOnesOptions {
            node_budget: self.node_budget,
            ..MinOnesOptions::default()
        }
    }
}

impl Default for RepairRequest {
    /// Defaults to independent semantics — the paper's headline repair.
    fn default() -> RepairRequest {
        RepairRequest::new(Semantics::Independent)
    }
}

/// Why (or why not) an outcome's delete-set is known to be minimum for its
/// semantics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OptimalityCertificate {
    /// End/stage semantics: a deterministic fixpoint with a unique result.
    DeterministicFixpoint,
    /// The database was already stable; the empty repair is trivially
    /// minimum.
    AlreadyStable,
    /// Independent semantics: the Min-Ones search completed within budget.
    SearchComplete,
    /// Step semantics: the provenance graph is interaction-free (a forest
    /// of pure cascades), so every firing sequence deletes the same set.
    InteractionFree,
    /// A heuristic answer with no certificate — stabilizing, possibly
    /// minimum, not proven so.
    Heuristic,
    /// The decision-node budget ran out before the search completed; the
    /// incumbent was returned.
    NodeBudgetExhausted,
    /// The wall-clock budget ran out before the search completed; a
    /// stabilizing set was returned without a minimality proof.
    TimeBudgetExhausted,
    /// The request was served by the end-semantics fixpoint under a static
    /// semantics-equivalence certificate (`datalog::lint::certify`): the
    /// program's syntax proves the requested semantics' delete-set equals
    /// the end delete-set, which is unique — hence minimum.
    StaticEquivalence,
}

/// Optimality verdict plus the solver statistics behind it.
#[derive(Clone, Copy, Debug)]
pub struct Optimality {
    /// Is the delete-set provably minimum for its semantics?
    pub proven: bool,
    /// The reason for the verdict.
    pub certificate: OptimalityCertificate,
    /// Decision nodes spent by the Min-Ones search (independent only).
    pub sat_decisions: u64,
    /// Connected components solved (independent only).
    pub sat_components: usize,
    /// CNF clauses after deduplication (independent only). Sessions serve
    /// Independent through the lazy loop ([`crate::independent::serve`]),
    /// so this counts the clauses of its final pool, not of the full `¬F`
    /// Algorithm 1 would build.
    pub cnf_clauses: usize,
    /// Check rounds of the lazy Independent loop (independent only).
    pub rounds: u32,
}

impl Optimality {
    fn exact(certificate: OptimalityCertificate) -> Optimality {
        Optimality {
            proven: true,
            certificate,
            sat_decisions: 0,
            sat_components: 0,
            cnf_clauses: 0,
            rounds: 0,
        }
    }
}

/// End-semantics provenance captured into an outcome
/// ([`RepairRequest::capture_provenance`]).
#[derive(Clone, Debug)]
pub struct RepairProvenance {
    /// Every assignment enumerated during end-semantics evaluation, in
    /// derivation order.
    pub assignments: Vec<Assignment>,
    /// 1-based derivation round of each delta tuple.
    pub layers: HashMap<TupleId, u32>,
}

impl RepairProvenance {
    /// The derivation tree explaining why `tuple` is deleted under end
    /// semantics, or `None` if it never is.
    pub fn explain(&self, tuple: TupleId) -> Option<provenance::DerivationTree> {
        provenance::Explainer::new(&self.assignments, &self.layers).explain(tuple)
    }

    /// Graphviz DOT rendering of the provenance graph (the paper's
    /// Figure 5).
    pub fn to_dot(&self, db: &Instance) -> String {
        provenance::to_dot(db, &self.assignments, &self.layers)
    }
}

/// The answer to one [`RepairRequest`]: the delete-set with its phase
/// breakdown and optimality verdict, ready to be previewed against or
/// applied to the session that produced it.
#[derive(Clone, Debug)]
pub struct RepairOutcome {
    result: RepairResult,
    optimality: Optimality,
    provenance: Option<RepairProvenance>,
    epoch: u64,
    incremental: bool,
    via_certificate: bool,
}

impl RepairOutcome {
    /// Which semantics produced this outcome.
    pub fn semantics(&self) -> Semantics {
        self.result.semantics
    }

    /// The stabilizing set `S` (sorted, deduplicated tuple ids).
    pub fn deleted(&self) -> &[TupleId] {
        &self.result.deleted
    }

    /// |S| — the headline number of Figures 6 and 9.
    pub fn size(&self) -> usize {
        self.result.size()
    }

    /// Membership test (ids are sorted).
    pub fn contains(&self, t: TupleId) -> bool {
        self.result.contains(t)
    }

    /// Phase timings (Figure 8's Eval / Process Prov / Solve categories).
    pub fn breakdown(&self) -> &PhaseBreakdown {
        &self.result.breakdown
    }

    /// Is the delete-set provably minimum? Shorthand for
    /// `self.optimality().proven`.
    pub fn proven_optimal(&self) -> bool {
        self.optimality.proven
    }

    /// The optimality verdict with its certificate and solver statistics.
    pub fn optimality(&self) -> &Optimality {
        &self.optimality
    }

    /// Captured end-semantics provenance, when the request asked for it.
    pub fn provenance(&self) -> Option<&RepairProvenance> {
        self.provenance.as_ref()
    }

    /// View as the plain [`RepairResult`] consumed by
    /// [`crate::relationships`] and reports.
    pub fn as_result(&self) -> &RepairResult {
        &self.result
    }

    /// Extract the plain [`RepairResult`].
    pub fn into_result(self) -> RepairResult {
        self.result
    }

    /// Session revision this outcome was computed at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Was this outcome served by the incrementally maintained checkpoint
    /// (delta-driven advance or an up-to-date cache) rather than a full
    /// fixpoint recompute? Diagnostics only — the delete-set is identical
    /// either way.
    pub fn served_incrementally(&self) -> bool {
        self.incremental
    }

    /// Was this outcome served by the end-semantics evaluator under a
    /// static semantics-equivalence certificate
    /// ([`RepairRequest::certificates`])? Diagnostics only — the delete-set
    /// is identical to direct evaluation of the requested semantics.
    pub fn served_via_certificate(&self) -> bool {
        self.via_certificate
    }

    /// What applying this outcome would do, without doing it: per-relation
    /// deletion counts and rendered tuples, diffed against the session's
    /// current database. Only tuples still live in the session are counted
    /// — previewing against a mutated session shows the real remaining
    /// effect (though `apply` itself will still insist on a fresh outcome).
    pub fn preview(&self, session: &RepairSession) -> RepairPreview {
        let db = session.db();
        let mut per_relation: Vec<(String, usize)> = Vec::new();
        let mut tuples: Vec<String> = Vec::with_capacity(self.result.deleted.len());
        for &t in &self.result.deleted {
            if !db.is_live(t) {
                continue;
            }
            let name = db.schema().rel(t.rel).name.clone();
            match per_relation.iter_mut().find(|(n, _)| *n == name) {
                Some((_, c)) => *c += 1,
                None => per_relation.push((name, 1)),
            }
            tuples.push(db.display_tuple(t));
        }
        RepairPreview {
            semantics: self.result.semantics,
            deleted: tuples.len(),
            kept: db.total_rows().saturating_sub(tuples.len()),
            per_relation,
            tuples,
        }
    }

    /// Commit this repair: durably delete its tuples from `session`'s
    /// database (incremental index maintenance, ids stay stable) and push
    /// an undo record. Fails with [`RepairError::StaleOutcome`] when the
    /// session's database changed after this outcome was computed. Returns
    /// the number of tuples removed.
    pub fn apply(&self, session: &mut RepairSession) -> Result<usize, RepairError> {
        session.apply(self)
    }
}

/// The human-readable diff produced by [`RepairOutcome::preview`].
#[derive(Clone, Debug)]
pub struct RepairPreview {
    /// Which semantics produced the repair.
    pub semantics: Semantics,
    /// Tuples the repair would delete.
    pub deleted: usize,
    /// Live tuples that would remain.
    pub kept: usize,
    /// Deletions per relation, in first-deletion order.
    pub per_relation: Vec<(String, usize)>,
    /// Every deleted tuple rendered as `Rel(v, …)`, in id order.
    pub tuples: Vec<String>,
}

impl fmt::Display for RepairPreview {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} repair: -{} tuples, {} remain",
            self.semantics, self.deleted, self.kept
        )?;
        for (rel, n) in &self.per_relation {
            writeln!(f, "  {rel}: -{n}")?;
        }
        for t in &self.tuples {
            writeln!(f, "    - {t}")?;
        }
        Ok(())
    }
}

/// One committed repair, kept on the session's undo stack.
#[derive(Clone, Debug)]
pub struct AppliedRepair {
    /// Which semantics produced the repair.
    pub semantics: Semantics,
    /// The tuple ids that were durably removed.
    pub deleted: Vec<TupleId>,
}

/// A long-lived repair service over one database: owns the [`Instance`] and
/// the prepared [`Evaluator`], serves any number of repair requests,
/// absorbs batch mutations without re-planning, and can commit and roll
/// back repairs. See the [module docs](self) for a tour.
pub struct RepairSession {
    db: Instance,
    ev: Evaluator,
    epoch: u64,
    history: Vec<AppliedRepair>,
    /// Static semantics-equivalence certificate for the program, computed
    /// once at construction (`datalog::lint::certify`); drives
    /// [`RepairSession::repair`]'s cheaper-semantics dispatch.
    certificate: EquivalenceCertificate,
    /// Incrementally maintained end-fixpoint checkpoint, keyed by the
    /// journal cursor it is synchronized at. `Mutex` (not `RefCell`) so the
    /// session stays `Sync`; `repair` takes `&self`.
    end_cache: Mutex<Option<EndCache>>,
    /// The on-disk store backing this session, when opened durably.
    durable: Option<DurableState>,
    /// Times the session re-derived its cost-based plans after statistics
    /// drifted past [`RepairSession::REPLAN_DRIFT_THRESHOLD`].
    replans: u64,
}

/// The durable backing of a session: the disk store, the journal cursor up
/// to which mutations have been written to the WAL, and the report of what
/// the opening recovery did.
struct DurableState {
    store: DiskStore,
    wal_cursor: u64,
    report: RecoveryReport,
}

/// The batch-closing WAL mark each mutator persists.
enum BatchMark {
    Commit,
    Apply {
        semantics: Semantics,
        deleted: Vec<TupleId>,
    },
    Undo,
}

/// Stable on-disk code of a [`Semantics`] (WAL `Apply` marks and snapshot
/// history entries).
fn semantics_code(s: Semantics) -> u8 {
    match s {
        Semantics::Independent => 0,
        Semantics::Step => 1,
        Semantics::Stage => 2,
        Semantics::End => 3,
    }
}

fn semantics_from_code(code: u8) -> Option<Semantics> {
    Some(match code {
        0 => Semantics::Independent,
        1 => Semantics::Step,
        2 => Semantics::Stage,
        3 => Semantics::End,
        _ => return None,
    })
}

/// The session's cached end-semantics checkpoint plus the journal cursor it
/// is synchronized at.
struct EndCache {
    cursor: u64,
    engine: EngineState,
}

impl fmt::Debug for RepairSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RepairSession")
            .field("tuples", &self.db.total_rows())
            .field("rules", &self.ev.num_rules())
            .field("epoch", &self.epoch)
            .field("applied", &self.history.len())
            .field("durable", &self.durable.is_some())
            .finish_non_exhaustive()
    }
}

impl RepairSession {
    /// Default per-component decision budget for the Min-Ones search used
    /// by independent semantics. The paper's observation that exact solvers
    /// are "not polynomial \[but\] efficient in practice" holds here too:
    /// every workload of Tables 1 and 2 except the widest DC-style joins
    /// proves optimality well within this budget, and on the pathological
    /// instances the greedy-first incumbent (reached within the first few
    /// thousand nodes) is returned with
    /// [`OptimalityCertificate::NodeBudgetExhausted`] instead of searching
    /// forever. Request `node_budget(u64::MAX)` for a provably exact
    /// answer.
    pub const DEFAULT_NODE_BUDGET: u64 = 200_000;

    /// Default tombstone ratio above which [`RepairSession::compact_if_bloated`]
    /// rebuilds a relation's hash tables.
    pub const COMPACT_THRESHOLD: f64 = 0.5;

    /// Per-relation live-cardinality drift ratio (plan time vs. now,
    /// add-one smoothed) at which a mutating session considers its
    /// cost-based join orders stale and re-derives them from the current
    /// statistics. `2.0` = any relation halved or doubled.
    pub const REPLAN_DRIFT_THRESHOLD: f64 = 2.0;

    /// Validate `program` against `db`'s schema, plan its joins, build the
    /// probe indexes, and take ownership of the database.
    pub fn new(mut db: Instance, program: Program) -> Result<RepairSession, RepairError> {
        let planned = PlannedProgram::plan(db.schema(), program)
            .map_err(|e| RepairError::datalog("planning the delta program", e))?;
        let ev = planned.into_evaluator(&mut db);
        let certificate = datalog::lint::certify(ev.program());
        Ok(RepairSession {
            db,
            ev,
            epoch: 0,
            history: Vec::new(),
            certificate,
            end_cache: Mutex::new(None),
            durable: None,
            replans: 0,
        })
    }

    /// [`RepairSession::new`], plus a fresh durable store in `dir`: the
    /// database is snapshotted as generation 0 and every later mutation is
    /// written ahead to a checksummed log, so a crash at any point loses at
    /// most the unacknowledged tail. Refuses a directory that already holds
    /// a store — [`RepairSession::open_durable`] is for those.
    pub fn create_durable(
        db: Instance,
        program: Program,
        dir: impl AsRef<Path>,
    ) -> Result<RepairSession, RepairError> {
        Self::create_durable_with(db, program, dir, DiskOptions::default())
    }

    /// [`RepairSession::create_durable`] with explicit [`DiskOptions`]
    /// (fsync policy, auto-checkpoint interval, injectable IO).
    pub fn create_durable_with(
        db: Instance,
        program: Program,
        dir: impl AsRef<Path>,
        opts: DiskOptions,
    ) -> Result<RepairSession, RepairError> {
        let mut session = Self::new(db, program)?;
        let meta = session.durable_meta();
        let store = DiskStore::create(dir.as_ref(), opts, &session.db, &meta)
            .map_err(|e| RepairError::storage("create durable store", e))?;
        session.durable = Some(DurableState {
            store,
            wal_cursor: session.db.journal().head(),
            report: RecoveryReport::default(),
        });
        Ok(session)
    }

    /// Reopen a durable store: load the newest valid snapshot, replay the
    /// WAL chain up to the last acknowledged batch, truncate any torn
    /// tail, and serve `program` over the recovered database. The session
    /// resumes with the persisted epoch and undo history;
    /// [`RepairSession::recovery_report`] tells what recovery did.
    ///
    /// Corruption that the fallback ladder cannot route around surfaces as
    /// [`StorageError::Corrupt`] (inside [`RepairError::Storage`]) — never
    /// a panic.
    pub fn open_durable(
        dir: impl AsRef<Path>,
        program: Program,
    ) -> Result<RepairSession, RepairError> {
        Self::open_durable_with(dir, program, DiskOptions::default())
    }

    /// [`RepairSession::open_durable`] with explicit [`DiskOptions`].
    pub fn open_durable_with(
        dir: impl AsRef<Path>,
        program: Program,
        opts: DiskOptions,
    ) -> Result<RepairSession, RepairError> {
        let dir = dir.as_ref();
        let (store, db, meta, report) = DiskStore::open(dir, opts)
            .map_err(|e| RepairError::storage("open durable store", e))?;
        let mut history = Vec::with_capacity(meta.history.len());
        for entry in &meta.history {
            let semantics = semantics_from_code(entry.semantics).ok_or_else(|| {
                RepairError::storage(
                    "open durable store",
                    StorageError::Corrupt {
                        path: dir.display().to_string(),
                        detail: format!("unknown semantics code {}", entry.semantics),
                    },
                )
            })?;
            history.push(AppliedRepair {
                semantics,
                deleted: entry.deleted.clone(),
            });
        }
        let mut session = Self::new(db, program)?;
        session.epoch = meta.epoch;
        session.history = history;
        session.durable = Some(DurableState {
            wal_cursor: session.db.journal().head(),
            store,
            report,
        });
        Ok(session)
    }

    /// Is this session backed by a durable store?
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// What recovery did when this session was opened with
    /// [`RepairSession::open_durable`]; `None` for in-memory sessions (and
    /// empty-by-construction for freshly created stores).
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.durable.as_ref().map(|d| &d.report)
    }

    /// Force a checkpoint: snapshot the full database (temp file + atomic
    /// rename), start a fresh WAL generation, and drop obsolete files.
    /// Returns the new generation. Also the recovery path after a WAL
    /// write failure wedged the store. Fails with
    /// [`RepairError::InvalidRequest`] on in-memory sessions.
    pub fn checkpoint(&mut self) -> Result<u64, RepairError> {
        let meta = self.durable_meta();
        let head = self.db.journal().head();
        let Some(durable) = self.durable.as_mut() else {
            return Err(RepairError::InvalidRequest(
                "checkpoint requires a durable session (open_durable / create_durable)".into(),
            ));
        };
        let gen = durable
            .store
            .checkpoint(&self.db, &meta)
            .map_err(|e| RepairError::storage("checkpoint", e))?;
        durable.wal_cursor = head;
        Ok(gen)
    }

    /// The session metadata a snapshot persists: epoch + undo history.
    fn durable_meta(&self) -> SessionMeta {
        SessionMeta {
            epoch: self.epoch,
            history: self
                .history
                .iter()
                .map(|h| HistoryEntry {
                    semantics: semantics_code(h.semantics),
                    deleted: h.deleted.clone(),
                })
                .collect(),
        }
    }

    /// Write everything the journal recorded since the WAL cursor, plus
    /// the batch's closing mark, to the durable store. No-op for in-memory
    /// sessions. Called by every mutator *before* [`Self::trim_journal`]
    /// (trimming drops exactly the entries this still needs). When the
    /// journal window no longer covers the cursor (capacity overflow), the
    /// WAL cannot express the delta and a full checkpoint is taken instead.
    ///
    /// On an append failure the store wedges (the in-memory instance is
    /// already past what the WAL holds): the mutation stays applied in
    /// memory, the error is returned, and every later persist fails until
    /// [`RepairSession::checkpoint`] re-establishes a full on-disk image.
    fn persist(&mut self, mark: BatchMark) -> Result<(), RepairError> {
        if self.durable.is_none() {
            return Ok(());
        }
        // Mutators persist after mutating, so the history already reflects
        // the batch this mark closes.
        let meta = self.durable_meta();
        let head = self.db.journal().head();
        let durable = self.durable.as_mut().expect("checked above");
        let mark = match mark {
            BatchMark::Commit => WalRecord::Commit { epoch: self.epoch },
            BatchMark::Apply { semantics, deleted } => WalRecord::Apply {
                epoch: self.epoch,
                semantics: semantics_code(semantics),
                deleted,
            },
            BatchMark::Undo => WalRecord::Undo { epoch: self.epoch },
        };
        match self.db.journal().entries_since(durable.wal_cursor) {
            Some(entries) => {
                let db = &self.db;
                let mut records: Vec<WalRecord> = entries
                    .map(|e| match e.kind {
                        MutationKind::Insert => WalRecord::Insert {
                            rel: e.tid.rel,
                            values: db.tuple(e.tid).to_vec(),
                        },
                        MutationKind::Delete => WalRecord::Delete { tid: e.tid },
                        MutationKind::Restore => WalRecord::Restore { tid: e.tid },
                    })
                    .collect();
                records.push(mark);
                durable
                    .store
                    .append(&records)
                    .map_err(|e| RepairError::storage("wal append", e))?;
                durable.wal_cursor = head;
                if durable.store.wants_auto_checkpoint() {
                    durable
                        .store
                        .checkpoint(&self.db, &meta)
                        .map_err(|e| RepairError::storage("auto checkpoint", e))?;
                }
            }
            None => {
                // The journal evicted entries past our cursor; only a full
                // image can re-synchronize the store.
                durable
                    .store
                    .checkpoint(&self.db, &meta)
                    .map_err(|e| RepairError::storage("checkpoint (journal overflow)", e))?;
                durable.wal_cursor = head;
            }
        }
        Ok(())
    }

    /// The owned database.
    pub fn db(&self) -> &Instance {
        &self.db
    }

    /// The prepared evaluator.
    pub fn evaluator(&self) -> &Evaluator {
        &self.ev
    }

    /// The delta program being served.
    pub fn program(&self) -> &Program {
        self.ev.program()
    }

    /// Revision counter: bumped by every durable mutation
    /// (`insert_batch`, `delete_batch`, `apply`, `undo`). Outcomes remember
    /// the revision they were computed at so stale applies are rejected.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Repairs committed and not yet undone, oldest first.
    pub fn history(&self) -> &[AppliedRepair] {
        &self.history
    }

    /// Give the database back, consuming the session.
    pub fn into_db(self) -> Instance {
        self.db
    }

    /// Insert a batch of tuples into `relation`. Indexes and statistics
    /// are maintained incrementally; plans are re-derived only when the
    /// batch drifts the cardinalities past
    /// [`RepairSession::REPLAN_DRIFT_THRESHOLD`]. Returns the id of every
    /// row (existing ids for duplicates — relations are sets).
    ///
    /// A mid-batch schema error stops the batch, but rows inserted before
    /// it stay inserted — the epoch is bumped either way, so outcomes
    /// computed before a failed batch are still recognized as stale.
    pub fn insert_batch<V: Into<Value>, T: IntoIterator<Item = V>>(
        &mut self,
        relation: &str,
        rows: impl IntoIterator<Item = T>,
    ) -> Result<Vec<TupleId>, RepairError> {
        let mut ids = Vec::new();
        for row in rows {
            match self.db.insert_values(relation, row) {
                Ok(tid) => ids.push(tid),
                Err(e) => {
                    if !ids.is_empty() {
                        self.epoch += 1;
                        // Best-effort: the rows before the failure stay
                        // inserted, so they must reach the WAL too. The
                        // schema error outranks a persist error here.
                        let _ = self.persist(BatchMark::Commit);
                    }
                    self.trim_journal();
                    return Err(RepairError::storage(format!("insert into {relation}"), e));
                }
            }
        }
        self.epoch += 1;
        self.persist(BatchMark::Commit)?;
        self.trim_journal();
        self.replan_if_drifted();
        debug_assert!(
            self.db.indexes_consistent(),
            "insert_batch left an index inconsistent with the live rows"
        );
        Ok(ids)
    }

    /// Durably delete a batch of tuples by id (tombstoning — ids stay
    /// stable, indexes update incrementally). Already-deleted ids are
    /// skipped. The batch is atomic: an unknown id rejects it whole and
    /// leaves the database (and epoch) untouched. Returns the number
    /// removed. Ad-hoc deletion does not touch the undo stack; use
    /// [`RepairOutcome::apply`] for undoable commits.
    pub fn delete_batch(&mut self, ids: &[TupleId]) -> Result<usize, RepairError> {
        let removed = self
            .db
            .delete_tuples(ids.iter().copied())
            .map_err(|e| RepairError::storage("delete batch", e))?;
        self.epoch += 1;
        self.persist(BatchMark::Commit)?;
        self.trim_journal();
        self.replan_if_drifted();
        Ok(removed)
    }

    /// Revive a batch of tombstoned tuples under their original ids (the
    /// mirror of [`RepairSession::delete_batch`] for callers managing their
    /// own churn — bulk loads, replays, benches). Ids that are live again
    /// or whose value was re-inserted elsewhere are skipped; unknown ids
    /// reject the batch atomically. Returns the number revived.
    pub fn restore_batch(&mut self, ids: &[TupleId]) -> Result<usize, RepairError> {
        let restored = self
            .db
            .restore_tuples(ids.iter().copied())
            .map_err(|e| RepairError::storage("restore batch", e))?;
        self.epoch += 1;
        self.persist(BatchMark::Commit)?;
        self.trim_journal();
        self.replan_if_drifted();
        Ok(restored)
    }

    /// Times this session re-derived its cost-based plans because the
    /// journaled mutations drifted the relation cardinalities past
    /// [`RepairSession::REPLAN_DRIFT_THRESHOLD`].
    pub fn replan_count(&self) -> u64 {
        self.replans
    }

    /// Re-derive the evaluator's cost-based join orders when the live
    /// cardinalities have drifted past the threshold since plan time.
    /// Called by every mutator; cheap when nothing drifted (one live-count
    /// comparison per relation). The incremental end-fixpoint checkpoint
    /// survives a replan: it records the *set* of valid assignments and
    /// delta tuples, and every plan order enumerates the same set — only
    /// enumeration order (which the checkpoint does not depend on)
    /// changes. Delete-sets are bit-identical under any plan order.
    fn replan_if_drifted(&mut self) {
        if self.ev.plan_drift(&self.db) < Self::REPLAN_DRIFT_THRESHOLD {
            return;
        }
        let program = self.ev.program().clone();
        let planned = PlannedProgram::plan(self.db.schema(), program)
            .expect("program validated at session construction");
        self.ev = planned.into_evaluator(&mut self.db);
        self.replans += 1;
    }

    /// Drop journal history no consumer will ever drain again. The session
    /// is the sole owner of the instance, so its incremental checkpoint is
    /// the only journal consumer: everything before that checkpoint's
    /// cursor (or everything, when no checkpoint exists) is garbage.
    fn trim_journal(&mut self) {
        let keep_from = self
            .end_cache_guard()
            .as_ref()
            .map_or_else(|| self.db.journal().head(), |cache| cache.cursor);
        self.db.truncate_journal_before(keep_from);
    }

    /// Lock the end-semantics checkpoint, surviving poison: a panic while a
    /// previous holder was mid-update may have left a half-advanced engine
    /// state behind, so the cache is dropped and the next end repair falls
    /// back to a full recompute (which re-primes it). The session never
    /// propagates the poison.
    fn end_cache_guard(&self) -> MutexGuard<'_, Option<EndCache>> {
        self.end_cache.lock().unwrap_or_else(|poisoned| {
            self.end_cache.clear_poison();
            let mut guard = poisoned.into_inner();
            *guard = None;
            guard
        })
    }

    /// The fraction of ever-inserted rows that are tombstones, across the
    /// whole owned instance — the signal for [`RepairSession::compact`].
    pub fn dead_ratio(&self) -> f64 {
        self.db.dead_ratio()
    }

    /// Compact every relation whose tombstone ratio is at least
    /// `threshold`: dedup maps and composite-index hash tables are rebuilt
    /// from the live rows, releasing the bloat long mutation histories
    /// leave behind. Tuple ids, index ids, probe results, the undo stack,
    /// the epoch and the incremental checkpoint are all unaffected —
    /// compaction is invisible to everything but the allocator. Returns the
    /// number of relations compacted.
    pub fn compact(&mut self, threshold: f64) -> usize {
        self.db.compact(threshold)
    }

    /// [`RepairSession::compact`] at the default threshold
    /// ([`RepairSession::COMPACT_THRESHOLD`]); call it periodically from
    /// long-lived mutating sessions.
    pub fn compact_if_bloated(&mut self) -> usize {
        self.compact(Self::COMPACT_THRESHOLD)
    }

    /// Serve one repair request.
    ///
    /// End-semantics requests are served **incrementally** when possible:
    /// the session checkpoints the delta fixpoint (derived delta relations
    /// plus the full assignment hypergraph) after each end computation and,
    /// on the next request, drains the instance's mutation journal and
    /// replays only the affected cone — DRed-style over-delete/re-derive
    /// for deletions, change-seeded semi-naive rounds for insertions. The
    /// delete-set is bit-identical to a full recompute. The engine silently
    /// falls back to a full fixpoint run when: the request asks for another
    /// semantics, [`RepairRequest::capture_provenance`] is on (derivation
    /// *order* and layers are not maintained incrementally), the request
    /// disabled it via [`RepairRequest::incremental`], no checkpoint exists
    /// yet, or the journal window no longer covers the checkpoint's cursor.
    pub fn repair(&self, request: &RepairRequest) -> Result<RepairOutcome, RepairError> {
        request.validate()?;
        // Certificate-driven dispatch: when the program's syntax proves the
        // requested semantics' delete-set equals the end delete-set (see
        // `datalog::lint::certify`), the cheap end fixpoint — including its
        // incrementally maintained checkpoint — serves the request, and the
        // outcome is relabeled to the semantics the caller asked for.
        let via_certificate = request.certificates
            && request.semantics != Semantics::End
            && self.certificate_serves(request.semantics);
        let effective = if via_certificate {
            Semantics::End
        } else {
            request.semantics
        };
        if effective == Semantics::End && request.incremental && !request.capture_provenance {
            let mut outcome = self.serve_end();
            if via_certificate {
                relabel_certified(&mut outcome, request.semantics);
            }
            return Ok(outcome);
        }
        let deadline = request.time_budget.map(|b| Instant::now() + b);
        let minones = request.minones();
        let (result, optimality, provenance) = run_semantics(
            &self.db,
            &self.ev,
            &minones,
            deadline,
            effective,
            request.capture_provenance,
        );
        // End and step semantics already materialized the end-run stream
        // inside the dispatch; only the other two pay for a dedicated
        // provenance evaluation.
        let provenance = provenance.or_else(|| {
            request.capture_provenance.then(|| {
                let out = end::run(&self.db, &self.ev);
                RepairProvenance {
                    assignments: out.assignments,
                    layers: out.layers,
                }
            })
        });
        let mut outcome = RepairOutcome {
            result,
            optimality,
            provenance,
            epoch: self.epoch,
            incremental: false,
            via_certificate: false,
        };
        if via_certificate {
            relabel_certified(&mut outcome, request.semantics);
        }
        Ok(outcome)
    }

    /// Does the session's static certificate prove `semantics` produces the
    /// end delete-set for this program?
    fn certificate_serves(&self, semantics: Semantics) -> bool {
        let c = &self.certificate;
        match semantics {
            Semantics::End => false,
            Semantics::Stage => c.single_stratum || c.interaction_free,
            Semantics::Step => c.interaction_free,
            Semantics::Independent => c.pure_cascade,
        }
    }

    /// The program's static semantics-equivalence certificate.
    pub fn certificate(&self) -> &EquivalenceCertificate {
        &self.certificate
    }

    /// Serve an end-semantics request through the incremental checkpoint,
    /// (re)priming it with a full run when cold or out of sync.
    fn serve_end(&self) -> RepairOutcome {
        let t0 = Instant::now();
        let driver = FixpointDriver::new(&self.ev, DeltaPolicy::AtEnd { naive: false });
        let mut guard = self.end_cache_guard();
        // No checkpoint, or the journal window no longer reaches back to
        // its cursor: the batch is unknowable and we rebuild from scratch.
        let batch = guard
            .as_ref()
            .and_then(|cache| self.db.changes_since(cache.cursor));
        let (deleted, incremental) = match batch {
            Some(batch) => {
                let cache = guard.as_mut().expect("batch implies a checkpoint");
                if !batch.is_empty() {
                    driver.advance(&self.db, &mut cache.engine, &batch);
                }
                cache.cursor = self.db.journal().head();
                (cache.engine.deleted(), true)
            }
            None => {
                let out = driver.run(&self.db);
                let deleted = out.deleted.clone();
                *guard = Some(EndCache {
                    cursor: self.db.journal().head(),
                    engine: EngineState::from_outcome(out),
                });
                (deleted, false)
            }
        };
        drop(guard);
        let certificate = if deleted.is_empty() {
            OptimalityCertificate::AlreadyStable
        } else {
            OptimalityCertificate::DeterministicFixpoint
        };
        RepairOutcome {
            result: RepairResult {
                semantics: Semantics::End,
                deleted,
                breakdown: PhaseBreakdown {
                    eval: t0.elapsed(),
                    ..Default::default()
                },
                proven_optimal: true,
            },
            optimality: Optimality::exact(certificate),
            provenance: None,
            epoch: self.epoch,
            incremental,
            via_certificate: false,
        }
    }

    /// Run one semantics with the default request — the one-liner for
    /// callers that don't need budgets or provenance.
    pub fn run(&self, semantics: Semantics) -> RepairOutcome {
        self.repair(&RepairRequest::new(semantics))
            .expect("default request parameters are valid")
    }

    /// Run all four semantics in the paper's order
    /// (independent, step, stage, end).
    pub fn run_all(&self) -> [RepairOutcome; 4] {
        Semantics::ALL.map(|s| self.run(s))
    }

    /// Is the database currently stable?
    pub fn is_stable(&self) -> bool {
        stability::initially_stable(&self.db, &self.ev)
    }

    /// Does deleting `deleted` stabilize the database? Every
    /// [`RepairOutcome`] must pass this (Proposition 3.18).
    pub fn verify_stabilizing(&self, deleted: &[TupleId]) -> bool {
        stability::is_stabilizing(&self.db, &self.ev, deleted)
    }

    /// Why-provenance: the derivation tree explaining why `tuple` is
    /// deleted under end semantics, or `None` if it never is. For repeated
    /// queries, request an outcome with
    /// [`RepairRequest::capture_provenance`] and use
    /// [`RepairProvenance::explain`] instead of re-evaluating per call.
    pub fn explain(&self, tuple: TupleId) -> Option<provenance::DerivationTree> {
        let out = end::run(&self.db, &self.ev);
        provenance::Explainer::new(&out.assignments, &out.layers).explain(tuple)
    }

    /// Graphviz DOT rendering of the full end-semantics provenance graph
    /// (the paper's Figure 5).
    pub fn provenance_dot(&self) -> String {
        let out = end::run(&self.db, &self.ev);
        provenance::to_dot(&self.db, &out.assignments, &out.layers)
    }

    /// Commit `outcome` (see [`RepairOutcome::apply`]).
    pub fn apply(&mut self, outcome: &RepairOutcome) -> Result<usize, RepairError> {
        if outcome.epoch != self.epoch {
            return Err(RepairError::StaleOutcome {
                semantics: outcome.semantics(),
                outcome_epoch: outcome.epoch,
                session_epoch: self.epoch,
            });
        }
        let removed = self
            .db
            .delete_tuples(outcome.deleted().iter().copied())
            .map_err(|e| RepairError::storage("apply repair", e))?;
        self.history.push(AppliedRepair {
            semantics: outcome.semantics(),
            deleted: outcome.deleted().to_vec(),
        });
        self.epoch += 1;
        self.persist(BatchMark::Apply {
            semantics: outcome.semantics(),
            deleted: outcome.deleted().to_vec(),
        })?;
        self.trim_journal();
        self.replan_if_drifted();
        Ok(removed)
    }

    /// Roll back the most recently applied repair, restoring its tuples
    /// (ids, index postings and dedup entries) exactly. Returns the number
    /// of tuples revived.
    pub fn undo(&mut self) -> Result<usize, RepairError> {
        let entry = self.history.pop().ok_or(RepairError::NothingToUndo)?;
        let restored = self
            .db
            .restore_tuples(entry.deleted.iter().copied())
            .map_err(|e| RepairError::storage("undo repair", e))?;
        self.epoch += 1;
        self.persist(BatchMark::Undo)?;
        self.trim_journal();
        self.replan_if_drifted();
        Ok(restored)
    }
}

/// Relabel an end-semantics outcome as the semantics the caller requested,
/// under a static equivalence certificate. The delete-set is untouched —
/// the certificate proves it *is* the requested semantics' delete-set. An
/// empty repair keeps [`OptimalityCertificate::AlreadyStable`] (the more
/// precise verdict); everything else becomes
/// [`OptimalityCertificate::StaticEquivalence`].
fn relabel_certified(outcome: &mut RepairOutcome, requested: Semantics) {
    outcome.result.semantics = requested;
    outcome.result.proven_optimal = true;
    outcome.via_certificate = true;
    outcome.optimality.proven = true;
    if outcome.optimality.certificate != OptimalityCertificate::AlreadyStable {
        outcome.optimality.certificate = OptimalityCertificate::StaticEquivalence;
    }
}

/// Per-semantics dispatch of a full (non-incremental) run, called only by
/// [`RepairSession::repair`]: evaluates `semantics` over `db` and labels
/// the result with its [`Optimality`] certificate. The static-certificate
/// relabeling happens in the caller, so with `certificates(false)` the
/// label is the dispatch's own (e.g. step's `InteractionFree`).
pub(crate) fn run_semantics(
    db: &Instance,
    ev: &Evaluator,
    minones: &MinOnesOptions,
    deadline: Option<Instant>,
    semantics: Semantics,
    capture: bool,
) -> (RepairResult, Optimality, Option<RepairProvenance>) {
    match semantics {
        Semantics::End => {
            let t0 = Instant::now();
            // The assignment stream is only needed as captured provenance;
            // a plain recompute leaves it unrecorded.
            let out = FixpointDriver::new(ev, DeltaPolicy::AtEnd { naive: false })
                .record_assignments(capture)
                .run(db);
            let certificate = if out.deleted.is_empty() {
                OptimalityCertificate::AlreadyStable
            } else {
                OptimalityCertificate::DeterministicFixpoint
            };
            let provenance = capture.then_some(RepairProvenance {
                assignments: out.assignments,
                layers: out.layers,
            });
            (
                RepairResult {
                    semantics,
                    deleted: out.deleted,
                    breakdown: PhaseBreakdown {
                        eval: t0.elapsed(),
                        ..Default::default()
                    },
                    proven_optimal: true,
                },
                Optimality::exact(certificate),
                provenance,
            )
        }
        Semantics::Stage => {
            let t0 = Instant::now();
            let out = stage::run(db, ev);
            let certificate = if out.deleted.is_empty() {
                OptimalityCertificate::AlreadyStable
            } else {
                OptimalityCertificate::DeterministicFixpoint
            };
            (
                RepairResult {
                    semantics,
                    deleted: out.deleted,
                    breakdown: PhaseBreakdown {
                        eval: t0.elapsed(),
                        ..Default::default()
                    },
                    proven_optimal: true,
                },
                Optimality::exact(certificate),
                None,
            )
        }
        Semantics::Step => {
            let out = step::run_greedy(db, ev);
            let certificate = if out.deleted.is_empty() {
                OptimalityCertificate::AlreadyStable
            } else if out.optimal {
                OptimalityCertificate::InteractionFree
            } else {
                OptimalityCertificate::Heuristic
            };
            // Algorithm 2 consumed the end-run stream to build its graph;
            // capture reuses it instead of evaluating again.
            let provenance = capture.then_some(RepairProvenance {
                assignments: out.assignments,
                layers: out.layers,
            });
            (
                RepairResult {
                    semantics,
                    deleted: out.deleted,
                    breakdown: out.breakdown,
                    proven_optimal: out.optimal,
                },
                Optimality {
                    proven: out.optimal,
                    certificate,
                    sat_decisions: 0,
                    sat_components: 0,
                    cnf_clauses: 0,
                    rounds: 0,
                },
                provenance,
            )
        }
        Semantics::Independent => {
            let out = independent::serve(db, ev, minones, deadline);
            let certificate = if out.timed_out {
                OptimalityCertificate::TimeBudgetExhausted
            } else if !out.optimal {
                OptimalityCertificate::NodeBudgetExhausted
            } else if out.deleted.is_empty() {
                OptimalityCertificate::AlreadyStable
            } else {
                OptimalityCertificate::SearchComplete
            };
            (
                RepairResult {
                    semantics,
                    deleted: out.deleted,
                    breakdown: out.breakdown,
                    proven_optimal: out.optimal,
                },
                Optimality {
                    proven: out.optimal,
                    certificate,
                    sat_decisions: out.sat_stats.decisions,
                    sat_components: out.sat_stats.components,
                    cnf_clauses: out.formula.len(),
                    rounds: out.rounds,
                },
                None,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relationships;
    use crate::testkit::{figure1_instance, figure2_program, names_of, tid_of};

    fn session() -> RepairSession {
        RepairSession::new(figure1_instance(), figure2_program()).unwrap()
    }

    #[test]
    fn example_1_3_all_four_semantics() {
        let s = session();
        let end = s.run(Semantics::End);
        let stage = s.run(Semantics::Stage);
        let step = s.run(Semantics::Step);
        let ind = s.run(Semantics::Independent);
        assert_eq!(end.size(), 8);
        assert_eq!(stage.size(), 7);
        assert_eq!(step.size(), 5);
        assert_eq!(
            names_of(s.db(), ind.deleted()),
            vec!["AuthGrant(4, 2)", "AuthGrant(5, 2)", "Grant(2, ERC)"]
        );
        for res in [&end, &stage, &step, &ind] {
            assert!(
                s.verify_stabilizing(res.deleted()),
                "{} must stabilize",
                res.semantics()
            );
        }
        assert!(relationships::check_figure3_invariants(
            ind.as_result(),
            step.as_result(),
            stage.as_result(),
            end.as_result()
        )
        .is_none());
    }

    #[test]
    fn run_all_returns_paper_order() {
        let s = session();
        let all = s.run_all();
        assert_eq!(all[0].semantics(), Semantics::Independent);
        assert_eq!(all[3].semantics(), Semantics::End);
    }

    #[test]
    fn running_example_table3_row() {
        let [ind, step, stage, _] = session().run_all();
        let row = relationships::table3_row(ind.as_result(), step.as_result(), stage.as_result());
        // Step ⊊ Stage here, and the AuthGrant tuples are not derivable, so
        // Ind is not contained in either.
        assert!(!row.step_eq_stage);
        assert!(!row.ind_sub_stage);
        assert!(!row.ind_sub_step);
    }

    #[test]
    fn stability_entry_points() {
        let s = session();
        assert!(!s.is_stable());
        let all: Vec<_> = s.db().all_tuple_ids().collect();
        assert!(s.verify_stabilizing(&all), "deleting everything stabilizes");
    }

    #[test]
    fn uncertified_cascade_step_is_proven_interaction_free() {
        // With static certificates off, Algorithm 2 itself proves a pure
        // cascade optimal from its interaction-free provenance graph; a
        // default request relabels the same answer as a static equivalence.
        let program = datalog::parse_program(
            "delta R1(x) :- R1(x), x = 1.
             delta R2(x) :- R2(x), delta R1(x).",
        )
        .unwrap();
        let s =
            RepairSession::new(crate::testkit::tiny_instance(&[1], &[1], &[]), program).unwrap();
        let step = s
            .repair(&RepairRequest::new(Semantics::Step).certificates(false))
            .unwrap();
        assert_eq!(step.size(), 2);
        assert!(step.proven_optimal() && !step.served_via_certificate());
        assert_eq!(
            step.optimality().certificate,
            OptimalityCertificate::InteractionFree
        );
        let certified = s.run(Semantics::Step);
        assert_eq!(certified.deleted(), step.deleted());
        assert_eq!(
            certified.optimality().certificate,
            OptimalityCertificate::StaticEquivalence
        );
    }

    #[test]
    fn invalid_programs_surface_as_repair_errors() {
        let err = RepairSession::new(
            figure1_instance(),
            datalog::parse_program("delta Nope(x) :- Nope(x).").unwrap(),
        )
        .unwrap_err();
        assert!(matches!(err, RepairError::Datalog { .. }));
        assert!(err.to_string().contains("planning the delta program"));
    }

    #[test]
    fn request_validation_rejects_misuse() {
        let s = session();
        let err = s
            .repair(&RepairRequest::new(Semantics::Independent).node_budget(0))
            .unwrap_err();
        assert!(matches!(err, RepairError::InvalidRequest(_)));
        let err = s
            .repair(&RepairRequest::new(Semantics::Independent).time_budget(Duration::ZERO))
            .unwrap_err();
        assert!(matches!(err, RepairError::InvalidRequest(_)));
    }

    #[test]
    fn apply_then_undo_round_trips_database() {
        let mut s = session();
        let before = s.db().clone();
        let outcome = s.run(Semantics::Independent);
        assert_eq!(outcome.apply(&mut s).unwrap(), 3);
        assert_eq!(s.db().total_rows(), 10);
        assert!(s.is_stable(), "committed repair stabilizes the database");
        assert_eq!(s.history().len(), 1);
        assert_eq!(s.undo().unwrap(), 3);
        assert_eq!(s.db(), &before, "undo restores the instance exactly");
        assert!(!s.is_stable());
        assert!(matches!(s.undo(), Err(RepairError::NothingToUndo)));
    }

    #[test]
    fn stale_outcomes_are_rejected() {
        let mut s = session();
        let outcome = s.run(Semantics::End);
        s.insert_batch("Grant", [[Value::Int(9), Value::str("DFG")]])
            .unwrap();
        let err = outcome.apply(&mut s).unwrap_err();
        assert!(matches!(err, RepairError::StaleOutcome { .. }));
        // A fresh outcome applies.
        let fresh = s.run(Semantics::End);
        assert!(fresh.apply(&mut s).is_ok());
    }

    #[test]
    fn mutations_feed_evaluation_without_replanning() {
        let mut s = session();
        assert_eq!(s.run(Semantics::End).size(), 8);
        // A second ERC grant cascades to nothing (no AuthGrant rows), but
        // the seed rule now fires twice: one more deletion.
        s.insert_batch("Grant", [[Value::Int(9), Value::str("ERC")]])
            .unwrap();
        assert_eq!(s.run(Semantics::End).size(), 9);
        // Deleting the ERC grants durably leaves a stable database.
        let g2 = tid_of(s.db(), "Grant(2, ERC)");
        let g9 = tid_of(s.db(), "Grant(9, ERC)");
        assert_eq!(s.delete_batch(&[g2, g9]).unwrap(), 2);
        assert!(s.is_stable());
        assert_eq!(s.run(Semantics::End).size(), 0);
    }

    #[test]
    fn preview_diffs_without_mutating() {
        let s = session();
        let outcome = s.run(Semantics::Step);
        let preview = outcome.preview(&s);
        assert_eq!(preview.deleted, 5);
        assert_eq!(preview.kept, 8);
        let text = preview.to_string();
        assert!(text.contains("step repair: -5 tuples, 8 remain"));
        assert!(text.contains("Writes: -2"));
        assert!(text.contains("- Grant(2, ERC)"));
        assert_eq!(s.db().total_rows(), 13, "preview is read-only");
    }

    #[test]
    fn optimality_certificates_match_semantics() {
        let s = session();
        assert_eq!(
            s.run(Semantics::End).optimality().certificate,
            OptimalityCertificate::DeterministicFixpoint
        );
        assert_eq!(
            s.run(Semantics::Step).optimality().certificate,
            OptimalityCertificate::Heuristic
        );
        let ind = s.run(Semantics::Independent);
        assert_eq!(
            ind.optimality().certificate,
            OptimalityCertificate::SearchComplete
        );
        assert!(ind.optimality().cnf_clauses > 0);
        assert!(ind.optimality().rounds > 1);
        // Starved node budget: incumbent returned, certificate says so. The
        // running example's clause pools are solved at the root, so this
        // runs on a vertex cover of a 5-cycle, which needs a search.
        let mut schema = storage::Schema::new();
        schema.relation("V", &[("x", storage::AttrType::Int)]);
        schema.relation(
            "E",
            &[("x", storage::AttrType::Int), ("y", storage::AttrType::Int)],
        );
        let mut db = Instance::new(schema);
        for v in 0..5 {
            db.insert_values("V", [storage::Value::Int(v)]).unwrap();
            db.insert_values(
                "E",
                [storage::Value::Int(v), storage::Value::Int((v + 1) % 5)],
            )
            .unwrap();
        }
        let program = datalog::parse_program("delta V(x) :- V(x), E(x, y), V(y).").unwrap();
        let cycle = RepairSession::new(db, program).unwrap();
        let proven = cycle.run(Semantics::Independent);
        assert!(proven.proven_optimal());
        assert_eq!(proven.size(), 3);
        let starved = cycle
            .repair(&RepairRequest::new(Semantics::Independent).node_budget(1))
            .unwrap();
        assert!(!starved.proven_optimal());
        assert_eq!(
            starved.optimality().certificate,
            OptimalityCertificate::NodeBudgetExhausted
        );
        assert!(cycle.verify_stabilizing(starved.deleted()));
    }

    #[test]
    fn captured_provenance_explains_deletions() {
        let s = session();
        let outcome = s
            .repair(&RepairRequest::new(Semantics::End).capture_provenance(true))
            .unwrap();
        let prov = outcome.provenance().expect("capture requested");
        let cite = tid_of(s.db(), "Cite(7, 6)");
        let tree = prov.explain(cite).expect("derivable tuple");
        assert!(tree.depth() >= 2);
        assert!(prov.to_dot(s.db()).contains("digraph"));
        // Survivors have no derivation; default requests skip capture.
        let maggie = tid_of(s.db(), "Author(2, Maggie)");
        assert!(prov.explain(maggie).is_none());
        assert!(s.run(Semantics::End).provenance().is_none());
    }

    #[test]
    fn end_repairs_are_served_incrementally_after_priming() {
        let mut s = session();
        let cold = s.run(Semantics::End);
        assert!(!cold.served_incrementally(), "first run primes the cache");
        let warm = s.run(Semantics::End);
        assert!(warm.served_incrementally(), "no change: cache hit");
        assert_eq!(warm.deleted(), cold.deleted());

        // Mutations advance the checkpoint instead of invalidating it.
        s.insert_batch("Grant", [[Value::Int(9), Value::str("ERC")]])
            .unwrap();
        let after_insert = s.run(Semantics::End);
        assert!(after_insert.served_incrementally());
        assert_eq!(after_insert.size(), 9);
        let g9 = tid_of(s.db(), "Grant(9, ERC)");
        s.delete_batch(&[g9]).unwrap();
        let after_delete = s.run(Semantics::End);
        assert!(after_delete.served_incrementally());
        assert_eq!(after_delete.deleted(), cold.deleted());

        // Every incremental answer must equal a fresh session's full run.
        let fresh = RepairSession::new(s.db().clone(), s.program().clone())
            .unwrap()
            .run(Semantics::End);
        assert_eq!(after_delete.deleted(), fresh.deleted());
    }

    #[test]
    fn incremental_escape_hatch_and_fallbacks() {
        let mut s = session();
        s.run(Semantics::End);
        // The escape hatch forces a full recompute, same bits.
        let full = s
            .repair(&RepairRequest::new(Semantics::End).incremental(false))
            .unwrap();
        assert!(!full.served_incrementally());
        // Provenance capture needs derivation order: silent fallback.
        let prov = s
            .repair(&RepairRequest::new(Semantics::End).capture_provenance(true))
            .unwrap();
        assert!(!prov.served_incrementally());
        assert!(prov.provenance().is_some());
        // Other semantics never claim incremental serving.
        assert!(!s.run(Semantics::Stage).served_incrementally());
        // And mixing them around mutations keeps End exact.
        s.insert_batch("AuthGrant", [[Value::Int(2), Value::Int(2)]])
            .unwrap();
        let inc = s.run(Semantics::End);
        assert!(inc.served_incrementally());
        assert_eq!(
            inc.deleted(),
            s.repair(&RepairRequest::new(Semantics::End).incremental(false))
                .unwrap()
                .deleted()
        );
    }

    #[test]
    fn apply_undo_cycles_flow_through_the_checkpoint() {
        let mut s = session();
        let outcome = s.run(Semantics::End);
        outcome.apply(&mut s).unwrap();
        let stable = s.run(Semantics::End);
        assert!(stable.served_incrementally(), "apply journaled its deletes");
        assert_eq!(stable.size(), 0);
        s.undo().unwrap();
        let back = s.run(Semantics::End);
        assert!(back.served_incrementally(), "undo journaled its restores");
        assert_eq!(back.deleted(), outcome.deleted());
    }

    #[test]
    fn compaction_is_invisible_to_repairs_and_checkpoint() {
        let mut s = session();
        let before = s.run(Semantics::End);
        // Delete enough to cross the threshold, compact, and re-repair.
        let doomed: Vec<TupleId> = before.deleted().to_vec();
        s.delete_batch(&doomed).unwrap();
        assert!(s.dead_ratio() > 0.0);
        s.compact(0.1);
        assert!(s.db().indexes_consistent());
        let after = s.run(Semantics::End);
        assert!(after.served_incrementally(), "compaction preserved cache");
        assert_eq!(after.size(), 0, "deleting the end set stabilizes");
        // Round-trip through undo-less restore: reinsert equal tuples.
        assert_eq!(s.compact(0.0), 6, "every relation compacts at 0.0");
    }

    #[test]
    fn journal_is_trimmed_to_the_checkpoint() {
        let mut s = session();
        s.insert_batch("Grant", [[Value::Int(7), Value::str("NIH")]])
            .unwrap();
        // No checkpoint yet: mutators trim everything.
        assert_eq!(s.db().journal().len(), 0);
        s.run(Semantics::End);
        s.insert_batch("Grant", [[Value::Int(8), Value::str("NIH")]])
            .unwrap();
        assert_eq!(s.db().journal().len(), 1, "retained for the checkpoint");
        s.run(Semantics::End);
        s.insert_batch("Grant", [[Value::Int(9), Value::str("NIH")]])
            .unwrap();
        assert_eq!(s.db().journal().len(), 1, "old window trimmed");
    }

    mod durability {
        use super::*;
        use std::path::Path;
        use std::sync::Arc;
        use storage::{FsyncPolicy, MemIo, StorageIo};

        fn mem() -> (Arc<MemIo>, DiskOptions) {
            let io = Arc::new(MemIo::new());
            let opts = DiskOptions::with_io(io.clone() as Arc<dyn StorageIo>);
            (io, opts)
        }

        fn durable_session(opts: DiskOptions) -> RepairSession {
            RepairSession::create_durable_with(
                figure1_instance(),
                figure2_program(),
                Path::new("/store"),
                opts,
            )
            .unwrap()
        }

        fn reopen(opts: DiskOptions) -> RepairSession {
            RepairSession::open_durable_with(Path::new("/store"), figure2_program(), opts).unwrap()
        }

        #[test]
        fn mutations_survive_reopen_bit_identically() {
            let (_io, opts) = mem();
            let mut s = durable_session(opts.clone());
            s.insert_batch("Grant", [[Value::Int(9), Value::str("ERC")]])
                .unwrap();
            let g2 = tid_of(s.db(), "Grant(2, ERC)");
            s.delete_batch(&[g2]).unwrap();
            s.restore_batch(&[g2]).unwrap();

            let r = reopen(opts);
            assert!(r.is_durable());
            assert_eq!(r.db(), s.db(), "tuple ids and liveness round-trip");
            assert_eq!(r.epoch(), s.epoch());
            assert!(r.db().indexes_consistent());
            assert!(!r.recovery_report().unwrap().degraded());
            assert_eq!(
                r.run(Semantics::End).deleted(),
                s.run(Semantics::End).deleted()
            );
        }

        #[test]
        fn apply_and_undo_history_survives_reopen() {
            let (_io, opts) = mem();
            let mut s = durable_session(opts.clone());
            let outcome = s.run(Semantics::Independent);
            outcome.apply(&mut s).unwrap();

            let mut r = reopen(opts.clone());
            assert_eq!(r.history().len(), 1);
            assert_eq!(r.history()[0].semantics, Semantics::Independent);
            assert_eq!(r.history()[0].deleted, outcome.deleted());
            assert_eq!(r.db(), s.db());
            // The persisted undo stack is live: roll the repair back, and
            // the undo itself is durable too.
            assert_eq!(r.undo().unwrap(), 3);
            let mut r2 = reopen(opts);
            assert!(r2.history().is_empty());
            assert_eq!(r2.db(), r.db());
            assert!(matches!(r2.undo(), Err(RepairError::NothingToUndo)));
        }

        #[test]
        fn explicit_and_auto_checkpoints_roll_generations() {
            let (_io, mut opts) = mem();
            opts.checkpoint_every = 2;
            let mut s = durable_session(opts.clone());
            assert_eq!(s.checkpoint().unwrap(), 1);
            // Each insert batch persists two records (insert + commit), so
            // every batch crosses the threshold and auto-checkpoints.
            s.insert_batch("Grant", [[Value::Int(9), Value::str("X")]])
                .unwrap();
            s.insert_batch("Grant", [[Value::Int(10), Value::str("Y")]])
                .unwrap();
            assert_eq!(s.durable.as_ref().unwrap().store.generation(), 3);
            let r = reopen(opts);
            assert_eq!(r.db(), s.db());
            assert_eq!(r.recovery_report().unwrap().snapshot_gen, Some(3));
        }

        #[test]
        fn journal_overflow_falls_back_to_a_full_checkpoint() {
            let (_io, opts) = mem();
            let mut s = durable_session(opts.clone());
            // Shrink the journal so it cannot hold a batch: the delta
            // between the WAL cursor and the head becomes unknowable and
            // persist must degrade to a full checkpoint, not lose writes.
            s.db.set_journal_capacity(0);
            let gen_before = s.durable.as_ref().unwrap().store.generation();
            s.insert_batch(
                "Grant",
                [
                    [Value::Int(9), Value::str("X")],
                    [Value::Int(10), Value::str("Y")],
                ],
            )
            .unwrap();
            assert!(s.durable.as_ref().unwrap().store.generation() > gen_before);
            let r = reopen(opts);
            assert_eq!(r.db(), s.db());
            assert_eq!(r.epoch(), s.epoch());
        }

        #[test]
        fn fsync_policies_accept_the_same_traffic() {
            for fsync in [
                FsyncPolicy::Always,
                FsyncPolicy::EveryN(3),
                FsyncPolicy::OnCheckpoint,
            ] {
                let (_io, mut opts) = mem();
                opts.fsync = fsync;
                let mut s = durable_session(opts.clone());
                for i in 0..5 {
                    s.insert_batch("Grant", [[Value::Int(100 + i), Value::str("Z")]])
                        .unwrap();
                }
                s.checkpoint().unwrap();
                let r = reopen(opts);
                assert_eq!(r.db(), s.db(), "{fsync:?}");
            }
        }

        #[test]
        fn in_memory_sessions_reject_checkpoint() {
            let mut s = session();
            assert!(matches!(
                s.checkpoint(),
                Err(RepairError::InvalidRequest(_))
            ));
            assert!(!s.is_durable());
            assert!(s.recovery_report().is_none());
        }

        #[test]
        fn create_refuses_an_existing_store() {
            let (_io, opts) = mem();
            durable_session(opts.clone());
            let err = RepairSession::create_durable_with(
                figure1_instance(),
                figure2_program(),
                Path::new("/store"),
                opts,
            )
            .unwrap_err();
            assert!(err.to_string().contains("open it instead"), "{err}");
        }

        #[test]
        fn corrupt_store_surfaces_as_typed_error_not_panic() {
            let (io, opts) = mem();
            let mut s = durable_session(opts.clone());
            s.insert_batch("Grant", [[Value::Int(9), Value::str("ERC")]])
                .unwrap();
            drop(s);
            // Flip a byte in the only snapshot AND cut the WAL header so
            // no rung of the ladder can serve the open.
            let mut snap = io.contents(Path::new("/store/snap-0.drs")).unwrap();
            snap[12] ^= 0xff;
            io.corrupt(Path::new("/store/snap-0.drs"), snap);
            let wal = io.contents(Path::new("/store/wal-0.drw")).unwrap();
            io.corrupt(Path::new("/store/wal-0.drw"), wal[..4].to_vec());
            let err =
                RepairSession::open_durable_with(Path::new("/store"), figure2_program(), opts)
                    .unwrap_err();
            assert!(
                matches!(
                    err,
                    RepairError::Storage {
                        source: StorageError::Corrupt { .. },
                        ..
                    }
                ),
                "{err}"
            );
        }
    }

    #[test]
    fn poisoned_end_cache_recovers_by_full_recompute() {
        let s = session();
        let cold = s.run(Semantics::End);
        assert!(s.run(Semantics::End).served_incrementally());
        // Poison the checkpoint lock: a holder panicked mid-update.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = s.end_cache.lock().unwrap();
            panic!("simulated panic while holding the end-cache lock");
        }));
        assert!(s.end_cache.is_poisoned());
        // The next repair must neither panic nor trust the torn cache: it
        // clears the poison, recomputes from scratch, and re-primes.
        let after = s.run(Semantics::End);
        assert!(!after.served_incrementally(), "torn cache was dropped");
        assert_eq!(after.deleted(), cold.deleted());
        assert!(!s.end_cache.is_poisoned());
        assert!(s.run(Semantics::End).served_incrementally(), "re-primed");
        // Mutators (which lock the cache to trim the journal) survive a
        // poisoned lock too.
        let mut s = s;
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = s.end_cache.lock().unwrap();
            panic!("poison again");
        }));
        s.insert_batch("Grant", [[Value::Int(9), Value::str("ERC")]])
            .unwrap();
        assert_eq!(s.run(Semantics::End).size(), cold.size() + 1);
    }

    #[test]
    fn undo_stack_is_lifo_across_semantics() {
        let mut s = session();
        let ind = s.run(Semantics::Independent);
        ind.apply(&mut s).unwrap();
        // Database now stable: an end repair on top deletes nothing.
        let end = s.run(Semantics::End);
        assert_eq!(end.size(), 0);
        end.apply(&mut s).unwrap();
        assert_eq!(s.history().len(), 2);
        assert_eq!(s.undo().unwrap(), 0, "empty repair undoes to nothing");
        assert_eq!(s.undo().unwrap(), 3);
        assert_eq!(s.db().total_rows(), 13);
    }
}
