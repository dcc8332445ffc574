//! The extensional database instance.

use crate::error::StorageError;
use crate::journal::{DeltaBatch, MutationJournal, MutationKind};
use crate::relation::Relation;
use crate::schema::{RelId, Schema};
use crate::state::State;
use crate::tuple::TupleId;
use crate::value::Value;

/// A database instance: a [`Schema`] plus one [`Relation`] store per declared
/// relation.
///
/// An `Instance` is the durable substrate of every repair computation; the
/// *transient* part (presence bits and delta membership during one
/// evaluation) lives in [`State`]. This split lets the four semantics of the
/// paper evaluate over the same data without copying tuples. Durable
/// mutation — committing a repair, batch ingest — goes through
/// [`Instance::delete_tuples`] / [`Instance::restore_tuples`] / inserts,
/// which maintain every composite index incrementally **and** append to the
/// [`MutationJournal`], so downstream consumers (the incremental repair
/// engine) can see exactly what changed since any cursor they remember.
#[derive(Clone, Debug)]
pub struct Instance {
    schema: Schema,
    relations: Vec<Relation>,
    journal: MutationJournal,
}

/// Two instances are equal when they hold the same data: schema, tuples,
/// liveness, dedup maps and index contents. The mutation journal is
/// bookkeeping *about* past edits, not part of the database value — an
/// instance that deleted and restored a tuple equals one that never touched
/// it.
impl PartialEq for Instance {
    fn eq(&self, other: &Instance) -> bool {
        self.schema == other.schema && self.relations == other.relations
    }
}

impl Eq for Instance {}

impl Instance {
    /// Fresh instance for `schema`.
    pub fn new(schema: Schema) -> Instance {
        let relations = schema
            .iter()
            .map(|(_, rs)| Relation::new(rs.arity()))
            .collect();
        Instance {
            schema,
            relations,
            journal: MutationJournal::default(),
        }
    }

    /// Rebuild an instance from persisted parts (snapshot recovery). The
    /// relations must be in schema order; the journal resumes at
    /// `journal_head` with an empty retention window.
    pub(crate) fn from_saved_parts(
        schema: Schema,
        relations: Vec<Relation>,
        journal_head: u64,
    ) -> Instance {
        Instance {
            schema,
            relations,
            journal: MutationJournal::resumed_at(journal_head),
        }
    }

    /// Cap the mutation journal's retention window (tests and
    /// memory-constrained embeddings; see [`MutationJournal::set_capacity`]).
    pub fn set_journal_capacity(&mut self, cap: usize) {
        self.journal.set_capacity(cap);
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Storage of relation `rel`.
    pub fn relation(&self, rel: RelId) -> &Relation {
        &self.relations[rel.idx()]
    }

    /// Insert the tuple `values` yields (validated against the schema and
    /// appended straight into the relation's row array); returns its id.
    pub fn insert(
        &mut self,
        rel: RelId,
        values: impl IntoIterator<Item = Value>,
    ) -> Result<TupleId, StorageError> {
        let rs = self.schema.rel(rel);
        let (row, fresh) = self.relations[rel.idx()].insert_checked(rs, values)?;
        let tid = TupleId::new(rel, row);
        if fresh {
            self.journal.record(MutationKind::Insert, tid);
        }
        Ok(tid)
    }

    /// Insert by relation name with `Into<Value>` items.
    pub fn insert_values<V: Into<Value>>(
        &mut self,
        rel_name: &str,
        values: impl IntoIterator<Item = V>,
    ) -> Result<TupleId, StorageError> {
        let rel = self.schema.require(rel_name)?;
        self.insert(rel, values.into_iter().map(Into::into))
    }

    /// The values of the tuple behind `tid` (live or tombstoned), borrowed
    /// from its relation's row array.
    pub fn tuple(&self, tid: TupleId) -> &[Value] {
        self.relations[tid.rel.idx()].tuple(tid.row)
    }

    /// Is `tid` a live member of the instance (inserted and not deleted)?
    pub fn is_live(&self, tid: TupleId) -> bool {
        self.relations
            .get(tid.rel.idx())
            .is_some_and(|r| r.is_live(tid.row))
    }

    /// Batch-delete tuples from the instance, updating every composite
    /// index incrementally (no rebuild). Tuple ids stay valid — rows are
    /// tombstoned, never moved — so provenance and repair results keep
    /// working. Ids already deleted are skipped; an id that was never
    /// inserted is an error, and the whole batch is validated **before**
    /// anything is touched, so an error means the instance is unchanged.
    /// Returns the number of tuples removed.
    pub fn delete_tuples(
        &mut self,
        ids: impl IntoIterator<Item = TupleId> + Clone,
    ) -> Result<usize, StorageError> {
        for tid in ids.clone() {
            self.check_bounds(tid)?;
        }
        let mut removed = 0;
        for tid in ids {
            if self.relations[tid.rel.idx()].remove_row(tid.row) {
                self.journal.record(MutationKind::Delete, tid);
                removed += 1;
            }
        }
        debug_assert!(
            self.indexes_consistent(),
            "delete_tuples left an index inconsistent with the live rows"
        );
        debug_assert!(
            self.stats_consistent(),
            "delete_tuples left column statistics inconsistent with the live rows"
        );
        Ok(removed)
    }

    /// Batch-revive tombstoned tuples (the undo path of an applied repair),
    /// re-entering them into the dedup map and every index at their sorted
    /// position. Ids that are already live, or whose value has since been
    /// re-inserted under a new row, are skipped. Like
    /// [`Instance::delete_tuples`], validation happens before any mutation.
    /// Returns the number revived.
    pub fn restore_tuples(
        &mut self,
        ids: impl IntoIterator<Item = TupleId> + Clone,
    ) -> Result<usize, StorageError> {
        for tid in ids.clone() {
            self.check_bounds(tid)?;
        }
        let mut restored = 0;
        for tid in ids {
            if self.relations[tid.rel.idx()].restore_row(tid.row) {
                self.journal.record(MutationKind::Restore, tid);
                restored += 1;
            }
        }
        debug_assert!(
            self.indexes_consistent(),
            "restore_tuples left an index inconsistent with the live rows"
        );
        debug_assert!(
            self.stats_consistent(),
            "restore_tuples left column statistics inconsistent with the live rows"
        );
        Ok(restored)
    }

    /// The mutation journal: cursors for consumers that maintain derived
    /// state, net [`DeltaBatch`]es between cursors.
    pub fn journal(&self) -> &MutationJournal {
        &self.journal
    }

    /// Convenience for [`MutationJournal::changes_since`].
    pub fn changes_since(&self, cursor: u64) -> Option<DeltaBatch> {
        self.journal.changes_since(cursor)
    }

    /// Drop journal history before `cursor` (every consumer has drained it).
    pub fn truncate_journal_before(&mut self, cursor: u64) {
        self.journal.truncate_before(cursor);
    }

    /// Fraction of ever-inserted rows that are tombstones, across the whole
    /// instance (`0.0` for an empty instance).
    pub fn dead_ratio(&self) -> f64 {
        let total: usize = self.relations.iter().map(Relation::num_rows).sum();
        if total == 0 {
            return 0.0;
        }
        (total - self.total_rows()) as f64 / total as f64
    }

    /// Compact every relation whose dead ratio is at least `threshold`
    /// (see [`Relation::compact`]): dedup maps and index maps are rebuilt
    /// from the live rows, dropping the hash-table bloat tombstone churn
    /// leaves behind. Tuple ids, index ids and all probe results are
    /// unchanged — compaction is invisible to readers and to incremental
    /// consumers (nothing is journaled). Returns the number of relations
    /// compacted.
    pub fn compact(&mut self, threshold: f64) -> usize {
        let mut compacted = 0;
        for r in &mut self.relations {
            if r.num_rows() > 0 && r.dead_ratio() >= threshold {
                r.compact();
                compacted += 1;
            }
        }
        debug_assert!(
            self.indexes_consistent(),
            "compact left an index inconsistent with the live rows"
        );
        debug_assert!(
            self.stats_consistent(),
            "compact left column statistics inconsistent with the live rows"
        );
        compacted
    }

    /// Are all composite indexes and dedup maps of every relation
    /// bit-identical to a from-scratch rebuild over the live rows? Test and
    /// debugging support; `O(total rows × indexes)`.
    pub fn indexes_consistent(&self) -> bool {
        self.relations.iter().all(Relation::indexes_consistent)
    }

    /// Are every relation's per-column statistics bit-identical to a
    /// from-scratch recount over the live rows? Checked (in debug builds)
    /// after every mutating batch, exactly like
    /// [`Instance::indexes_consistent`].
    pub fn stats_consistent(&self) -> bool {
        self.relations.iter().all(Relation::stats_consistent)
    }

    fn check_bounds(&self, tid: TupleId) -> Result<usize, StorageError> {
        let idx = tid.rel.idx();
        match self.relations.get(idx) {
            Some(r) if (tid.row as usize) < r.num_rows() => Ok(idx),
            _ => Err(StorageError::UnknownTuple {
                relation: self
                    .schema
                    .iter()
                    .nth(idx)
                    .map(|(_, rs)| rs.name.clone())
                    .unwrap_or_else(|| format!("#{}", tid.rel.0)),
                row: tid.row,
            }),
        }
    }

    /// Find the id of `t` in `rel` (whether or not any state deleted it).
    pub fn find(&self, rel: RelId, t: &[Value]) -> Option<TupleId> {
        self.relations[rel.idx()]
            .find(t)
            .map(|row| TupleId::new(rel, row))
    }

    /// Build the per-column hash index for `rel.col`.
    pub fn ensure_index(&mut self, rel: RelId, col: usize) {
        self.relations[rel.idx()].ensure_index(col);
    }

    /// Build (or fetch) the composite index of `rel` over `cols` (strictly
    /// ascending); returns the id to pass to [`Relation::probe`].
    pub fn ensure_composite_index(&mut self, rel: RelId, cols: &[usize]) -> crate::IndexId {
        self.relations[rel.idx()].ensure_composite_index(cols)
    }

    /// Total number of live tuples across relations.
    pub fn total_rows(&self) -> usize {
        self.relations.iter().map(Relation::live_count).sum()
    }

    /// Rows ever inserted into `rel` (live and tombstoned) — the bound for
    /// row-indexed structures such as [`State`] bitsets.
    pub fn rows(&self, rel: RelId) -> usize {
        self.relations[rel.idx()].num_rows()
    }

    /// Live tuples in `rel`.
    pub fn live_rows(&self, rel: RelId) -> usize {
        self.relations[rel.idx()].live_count()
    }

    /// A fresh [`State`] in which every inserted tuple is present and all
    /// delta relations are empty (stage/step/end time `t = 0`).
    pub fn initial_state(&self) -> State {
        State::initial(self)
    }

    /// Iterate every live tuple id of `rel`.
    pub fn tuple_ids(&self, rel: RelId) -> impl Iterator<Item = TupleId> + '_ {
        self.relations[rel.idx()]
            .live_rows()
            .map(move |row| TupleId::new(rel, row))
    }

    /// Iterate every live tuple id in the instance. Allocation-free:
    /// callers like the stability check hit this once per round.
    pub fn all_tuple_ids(&self) -> impl Iterator<Item = TupleId> + '_ {
        self.relations.iter().enumerate().flat_map(|(i, r)| {
            let rel = RelId(i as u16);
            r.live_rows().map(move |row| TupleId::new(rel, row))
        })
    }

    /// Render `tid` as `Relation(v1, …, vn)` for messages and examples.
    pub fn display_tuple(&self, tid: TupleId) -> String {
        let values: Vec<String> = self.tuple(tid).iter().map(Value::to_string).collect();
        format!("{}({})", self.schema.rel(tid.rel).name, values.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttrType;

    fn grant_instance() -> Instance {
        let mut s = Schema::new();
        s.relation("Grant", &[("gid", AttrType::Int), ("name", AttrType::Str)]);
        let mut db = Instance::new(s);
        db.insert_values("Grant", [Value::Int(1), Value::str("NSF")])
            .unwrap();
        db.insert_values("Grant", [Value::Int(2), Value::str("ERC")])
            .unwrap();
        db
    }

    #[test]
    fn insert_and_fetch() {
        let db = grant_instance();
        let rel = db.schema().rel_id("Grant").unwrap();
        assert_eq!(db.rows(rel), 2);
        let tid = TupleId::new(rel, 1);
        assert_eq!(db.tuple(tid)[1], Value::str("ERC"));
        assert_eq!(db.display_tuple(tid), "Grant(2, ERC)");
    }

    #[test]
    fn unknown_relation_is_an_error() {
        let mut db = grant_instance();
        assert!(db.insert_values("Nope", [Value::Int(1)]).is_err());
    }

    #[test]
    fn find_round_trips() {
        let db = grant_instance();
        let rel = db.schema().rel_id("Grant").unwrap();
        let t = [Value::Int(2), Value::str("ERC")];
        assert_eq!(db.find(rel, &t), Some(TupleId::new(rel, 1)));
    }

    #[test]
    fn all_tuple_ids_covers_everything() {
        let db = grant_instance();
        assert_eq!(db.all_tuple_ids().count(), db.total_rows());
    }

    #[test]
    fn initial_state_sees_all_tuples() {
        let db = grant_instance();
        let st = db.initial_state();
        let rel = db.schema().rel_id("Grant").unwrap();
        assert_eq!(st.present_count(rel), 2);
        assert_eq!(st.delta_count(rel), 0);
    }

    #[test]
    fn delete_tuples_batch_and_counts() {
        let mut db = grant_instance();
        let rel = db.schema().rel_id("Grant").unwrap();
        db.ensure_composite_index(rel, &[0]);
        let erc = TupleId::new(rel, 1);
        assert_eq!(db.delete_tuples([erc]).unwrap(), 1);
        assert_eq!(db.delete_tuples([erc]).unwrap(), 0, "already dead");
        assert_eq!(db.total_rows(), 1);
        assert_eq!(db.rows(rel), 2, "storage keeps the tombstone");
        assert!(!db.is_live(erc));
        assert_eq!(db.all_tuple_ids().count(), 1);
        assert_eq!(
            db.relation(rel).lookup(0, &Value::Int(2)).unwrap(),
            &[] as &[u32]
        );
        // Fresh states no longer see the deleted tuple, in any view.
        let st = db.initial_state();
        assert!(!st.is_present(erc));
        assert_eq!(st.present_count(rel), 1);
    }

    #[test]
    fn restore_tuples_round_trips_instance_equality() {
        let mut db = grant_instance();
        let rel = db.schema().rel_id("Grant").unwrap();
        db.ensure_composite_index(rel, &[1]);
        let before = db.clone();
        let ids = [TupleId::new(rel, 0), TupleId::new(rel, 1)];
        assert_eq!(db.delete_tuples(ids).unwrap(), 2);
        assert_ne!(db, before);
        assert_eq!(db.restore_tuples(ids).unwrap(), 2);
        assert_eq!(db, before, "tuple ids, indexes and live bits restored");
    }

    #[test]
    fn journal_records_net_changes_and_ignores_dedup_hits() {
        let mut db = grant_instance();
        let rel = db.schema().rel_id("Grant").unwrap();
        let cursor = db.journal().head();
        // Dedup hit: no journal entry.
        db.insert_values("Grant", [Value::Int(1), Value::str("NSF")])
            .unwrap();
        assert!(db.changes_since(cursor).unwrap().is_empty());
        // Fresh insert + delete + restore cycle nets out to one insert.
        let tid = db
            .insert_values("Grant", [Value::Int(3), Value::str("DFG")])
            .unwrap();
        let erc = TupleId::new(rel, 1);
        db.delete_tuples([erc]).unwrap();
        db.restore_tuples([erc]).unwrap();
        let batch = db.changes_since(cursor).unwrap();
        assert_eq!(batch.inserted, vec![tid]);
        assert!(batch.deleted.is_empty());
        // Truncation invalidates the old cursor but not the new one.
        let now = db.journal().head();
        db.truncate_journal_before(now);
        assert!(db.changes_since(cursor).is_none());
        assert!(db.changes_since(now).unwrap().is_empty());
    }

    #[test]
    fn journal_is_not_part_of_instance_equality() {
        let mut a = grant_instance();
        let b = a.clone();
        let rel = a.schema().rel_id("Grant").unwrap();
        let erc = TupleId::new(rel, 1);
        a.delete_tuples([erc]).unwrap();
        a.restore_tuples([erc]).unwrap();
        assert_eq!(a, b, "same data, different journals");
    }

    #[test]
    fn compact_preserves_behavior_and_resets_dead_ratio_accounting() {
        let mut db = grant_instance();
        let rel = db.schema().rel_id("Grant").unwrap();
        db.ensure_composite_index(rel, &[0]);
        db.ensure_composite_index(rel, &[0, 1]);
        for i in 10..20 {
            db.insert_values("Grant", [Value::Int(i), Value::str("X")])
                .unwrap();
        }
        let doomed: Vec<TupleId> = (2..12).map(|row| TupleId::new(rel, row)).collect();
        db.delete_tuples(doomed.iter().copied()).unwrap();
        assert!(db.dead_ratio() > 0.5);
        let before = db.clone();
        assert_eq!(db.compact(0.5), 1);
        assert_eq!(db, before, "compaction is invisible to readers");
        assert!(db.indexes_consistent());
        assert_eq!(db.compact(2.0), 0, "threshold above 1 never triggers");
    }

    #[test]
    fn out_of_range_ids_are_errors_and_batches_are_atomic() {
        let mut db = grant_instance();
        let rel = db.schema().rel_id("Grant").unwrap();
        let bogus = TupleId::new(rel, 99);
        let valid = TupleId::new(rel, 0);
        let before = db.clone();
        // A bad id anywhere in the batch rejects the whole batch — the
        // valid prefix must NOT have been deleted.
        assert!(matches!(
            db.delete_tuples([valid, bogus]),
            Err(StorageError::UnknownTuple { .. })
        ));
        assert_eq!(db, before, "failed delete batch leaves no trace");
        assert!(matches!(
            db.restore_tuples([valid, bogus]),
            Err(StorageError::UnknownTuple { .. })
        ));
        assert_eq!(db, before, "failed restore batch leaves no trace");
    }
}
