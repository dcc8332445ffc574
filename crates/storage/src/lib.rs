//! # storage — in-memory relational substrate
//!
//! The storage layer that replaces PostgreSQL in the original prototype of
//! *"On Multiple Semantics for Declarative Database Repairs"* (SIGMOD 2020).
//!
//! The design is split in two:
//!
//! * [`Instance`] — the extensional database. An append-only, deduplicated
//!   tuple store with per-column hash indexes. Tuples are identified by a
//!   stable [`TupleId`] that never changes once assigned, so provenance and
//!   repair results can refer to tuples across arbitrarily many evaluation
//!   states.
//! * [`State`] — a lightweight view over an instance holding two bitsets per
//!   relation: which tuples are still *present* in `R_i`, and which tuples are
//!   members of the delta relation `Δ_i`. Cloning a `State` is O(#tuples/64),
//!   which is what makes evaluating four different semantics over the same
//!   124K-tuple instance cheap.
//!
//! The separation mirrors the paper's model (Section 3.1): a delta rule head
//! `Δ_i(X)` always has the atom `R_i(X)` in its body, hence every delta tuple
//! *is* an existing base tuple and `Δ_i` can be represented as a set of base
//! tuple ids rather than a second tuple store.

pub mod bitset;
pub mod disk;
pub mod error;
pub mod hash;
pub mod instance;
pub mod intern;
pub mod journal;
pub mod relation;
pub mod schema;
pub mod state;
pub mod stats;
pub mod tsv;
pub mod tuple;
pub mod value;

pub use bitset::BitSet;
pub use disk::{
    DiskOptions, DiskStore, Fault, FaultIo, FaultMode, FsyncPolicy, HistoryEntry, MemIo,
    RecoveryReport, SessionMeta, StdIo, StorageIo, WalRecord,
};
pub use error::StorageError;
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use instance::Instance;
pub use intern::Sym;
pub use journal::{DeltaBatch, JournalEntry, MutationJournal, MutationKind};
pub use relation::{IndexId, Relation};
pub use schema::{Attr, AttrType, RelId, RelationSchema, Schema};
pub use state::State;
pub use stats::ColumnStats;
pub use tuple::TupleId;
pub use value::Value;
