//! Deduplicated tuple storage with composite hash indexes.
//!
//! Rows are appended and never moved, so [`crate::TupleId`]s stay stable
//! forever; deletion marks a row *dead* (a tombstone) and removes it from
//! the dedup map and every index posting list incrementally — no rebuild.
//! Dead rows can later be revived by [`Relation::restore_row`] (the undo
//! path of an applied repair).
//!
//! The rows themselves live in one row-major value array per relation:
//! row `r` is the `arity` values starting at `r × arity`. A tuple is a
//! borrowed `&[Value]` into that array, so reading a row costs no pointer
//! chase, cloning a relation copies all its rows with one `memcpy`, and
//! nothing is allocated per row.

use crate::bitset::BitSet;
use crate::error::StorageError;
use crate::hash::FxHashMap;
use crate::schema::RelationSchema;
use crate::stats::ColumnStats;
use crate::value::Value;

/// Row-major tuple storage: row `r` holds `values[r × arity..][..arity]`.
///
/// The row count is kept explicitly, not derived from `values.len() /
/// arity`: a nullary relation has stride 0 and holds at most the empty
/// tuple, so its `values` stay empty whether or not that row exists.
/// Values past the last row are a *staged* tuple — an insert validated
/// and deduplicated in place, then committed as a row or truncated away.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Rows {
    arity: usize,
    len: usize,
    values: Vec<Value>,
}

impl Rows {
    /// The values of `row`.
    #[inline]
    fn get(&self, row: u32) -> &[Value] {
        debug_assert!((row as usize) < self.len, "row {row} out of range");
        let start = row as usize * self.arity;
        &self.values[start..start + self.arity]
    }

    /// Where a staged tuple starts: one past the last row's values.
    fn end(&self) -> usize {
        self.len * self.arity
    }
}

/// Widest index key gathered on the stack; wider keys spill to the heap.
const INLINE_KEY: usize = 8;

/// `t`'s values at `cols`, gathered into `buf` (or `spill`, for keys
/// wider than [`INLINE_KEY`]) so that index maintenance allocates only
/// when a key is new to the map.
fn gather<'a>(
    cols: &[usize],
    t: &[Value],
    buf: &'a mut [Value; INLINE_KEY],
    spill: &'a mut Vec<Value>,
) -> &'a [Value] {
    if cols.len() <= INLINE_KEY {
        for (b, &c) in buf.iter_mut().zip(cols) {
            *b = t[c];
        }
        &buf[..cols.len()]
    } else {
        spill.extend(cols.iter().map(|&c| t[c]));
        spill
    }
}

/// A hash index over one set of columns.
///
/// Keys are the tuple's values at `cols` (ascending column order); the entry
/// lists every live row holding that key, in ascending row order — the
/// property the evaluator's deterministic enumeration relies on. Removal and
/// revival keep the order by binary-searching the posting list.
#[derive(Clone, Debug, PartialEq, Eq)]
struct CompositeIndex {
    /// Indexed columns, strictly ascending.
    cols: Box<[usize]>,
    /// Key (values at `cols`) → live rows, ascending.
    map: FxHashMap<Box<[Value]>, Vec<u32>>,
}

impl CompositeIndex {
    /// Enter `row` into its key's posting list at its sorted position.
    /// Builds and fresh inserts visit rows in ascending order, so the
    /// common case is a push; revival of a tombstone binary-searches.
    fn add(&mut self, row: u32, t: &[Value]) {
        let (mut buf, mut spill) = ([Value::Int(0); INLINE_KEY], Vec::new());
        let key = gather(&self.cols, t, &mut buf, &mut spill);
        match self.map.get_mut(key) {
            Some(rows) if rows.last().is_some_and(|&last| last >= row) => {
                if let Err(pos) = rows.binary_search(&row) {
                    rows.insert(pos, row);
                }
            }
            Some(rows) => rows.push(row),
            None => {
                self.map.insert(key.into(), vec![row]);
            }
        }
    }

    /// Remove `row` from the posting list; drops the entry when it empties
    /// so probing a fully-deleted key costs one lookup, not a scan.
    fn remove(&mut self, row: u32, t: &[Value]) {
        let (mut buf, mut spill) = ([Value::Int(0); INLINE_KEY], Vec::new());
        let key = gather(&self.cols, t, &mut buf, &mut spill);
        if let Some(rows) = self.map.get_mut(key) {
            if let Ok(pos) = rows.binary_search(&row) {
                rows.remove(pos);
            }
            if rows.is_empty() {
                self.map.remove(key);
            }
        }
    }
}

/// Identifier of a composite index within one [`Relation`], as returned by
/// [`Relation::ensure_composite_index`]. Probe plans store these so lookups
/// skip the columns→index resolution entirely.
pub type IndexId = u32;

/// The relation's dedup set, keyed by row index over the relation's own
/// row array: linear-probed open addressing where a slot holds `row + 1`
/// (`0` = empty) and comparisons read the row's values in place, so the
/// set owns no copy of any tuple.
///
/// Every mutator takes the [`Rows`] it indexes into; the caller (always
/// [`Relation`]) guarantees slot rows are valid indexes. Removal uses
/// backward-shift deletion, so there are no tombstones and lookup chains
/// never rot.
#[derive(Clone, Debug, Default)]
struct RowDedup {
    /// Slot → `row + 1`; `0` is empty. Power-of-two length.
    slots: Box<[u32]>,
    /// Occupied slots.
    len: usize,
}

impl RowDedup {
    fn hash(t: &[Value]) -> u64 {
        use std::hash::BuildHasher;
        crate::FxBuildHasher::default().hash_one(t)
    }

    /// Table sized for `n` entries without growing (load ≤ 3/4).
    fn with_capacity(n: usize) -> RowDedup {
        let slots = ((n * 4 / 3) + 1).next_power_of_two().max(8);
        RowDedup {
            slots: vec![0; slots].into_boxed_slice(),
            len: 0,
        }
    }

    /// Row of the entered tuple equal to `t`, if present.
    fn get(&self, t: &[Value], rows: &Rows) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = (Self::hash(t) as usize) & mask;
        loop {
            match self.slots[i] {
                0 => return None,
                s => {
                    let row = s - 1;
                    if rows.get(row) == t {
                        return Some(row);
                    }
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Insert `row`, whose tuple must not equal any entered row's tuple
    /// (check with [`RowDedup::get`] first, or use
    /// [`RowDedup::insert_unique`] for the combined single probe).
    fn insert(&mut self, row: u32, rows: &Rows) {
        let dup = self.insert_unique(row, rows);
        debug_assert!(dup.is_none(), "duplicate live tuple for row {row}");
    }

    /// Insert `row` unless an entered row already holds an equal tuple, in
    /// which case nothing changes and that row is returned. One probe pass:
    /// equal tuples share a hash, hence a home slot, so any duplicate sits
    /// on the probe chain before the first empty slot.
    fn insert_unique(&mut self, row: u32, rows: &Rows) -> Option<u32> {
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow(rows);
        }
        let t = rows.get(row);
        let mask = self.slots.len() - 1;
        let mut i = (Self::hash(t) as usize) & mask;
        loop {
            match self.slots[i] {
                0 => {
                    self.slots[i] = row + 1;
                    self.len += 1;
                    return None;
                }
                s => {
                    let r = s - 1;
                    if rows.get(r) == t {
                        return Some(r);
                    }
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Remove `row` (no-op if absent). Backward-shift deletion: entries
    /// displaced past the hole are walked forward and any whose probe chain
    /// passes through the hole is moved into it, preserving the invariant
    /// that every entry is reachable from its home slot.
    fn remove(&mut self, row: u32, rows: &Rows) {
        if self.len == 0 {
            return;
        }
        let mask = self.slots.len() - 1;
        let mut i = (Self::hash(rows.get(row)) as usize) & mask;
        loop {
            match self.slots[i] {
                0 => return,
                s if s - 1 == row => break,
                _ => i = (i + 1) & mask,
            }
        }
        let mut hole = i;
        let mut j = (i + 1) & mask;
        loop {
            let s = self.slots[j];
            if s == 0 {
                break;
            }
            let home = (Self::hash(rows.get(s - 1)) as usize) & mask;
            // Move j's entry into the hole iff its probe chain (home → j)
            // passes through the hole, measured cyclically.
            if hole.wrapping_sub(home) & mask <= j.wrapping_sub(home) & mask {
                self.slots[hole] = s;
                hole = j;
            }
            j = (j + 1) & mask;
        }
        self.slots[hole] = 0;
        self.len -= 1;
    }

    fn grow(&mut self, rows: &Rows) {
        let new_slots = (self.slots.len() * 2).max(8);
        let old = std::mem::replace(&mut self.slots, vec![0; new_slots].into_boxed_slice());
        let mask = new_slots - 1;
        for s in old.iter().copied().filter(|&s| s != 0) {
            let mut i = (Self::hash(rows.get(s - 1)) as usize) & mask;
            while self.slots[i] != 0 {
                i = (i + 1) & mask;
            }
            self.slots[i] = s;
        }
    }
}

/// Content equality (same set of rows), independent of table layout — an
/// incrementally built set must equal its compacted rebuild, exactly like
/// the hash map it replaced.
impl PartialEq for RowDedup {
    fn eq(&self, other: &RowDedup) -> bool {
        let rows = |d: &RowDedup| {
            let mut v: Vec<u32> = d.slots.iter().copied().filter(|&s| s != 0).collect();
            v.sort_unstable();
            v
        };
        self.len == other.len && rows(self) == rows(other)
    }
}

impl Eq for RowDedup {}

/// Storage for one relation.
///
/// Tuples are appended once and never moved; transient *presence* during a
/// repair evaluation is tracked outside this type by [`crate::State`]
/// bitsets, while durable membership (rows never deleted from the instance)
/// lives in the `live` tombstone bitset here. The store deduplicates
/// (relations are sets, per Section 2 of the paper) and maintains composite
/// hash indexes — requested by the evaluator's probe plans, one per
/// distinct set of bound columns — incrementally on insert, delete and
/// restore.
#[derive(Clone, Debug)]
pub struct Relation {
    rows: Rows,
    dedup: RowDedup,
    indexes: Vec<CompositeIndex>,
    /// Columns signature → position in `indexes`.
    by_cols: FxHashMap<Box<[usize]>, IndexId>,
    /// One bit per row ever inserted: is the row still a member?
    live: BitSet,
    /// Number of set bits in `live`, maintained incrementally.
    live_count: usize,
    /// Exact per-column live-value frequencies, one entry per column,
    /// maintained alongside the indexes on every mutation (see
    /// [`crate::stats`]).
    stats: Vec<ColumnStats>,
}

/// Logical-content equality: same rows, tombstones, dedup set and column
/// statistics. *Which* composite indexes have been built is excluded —
/// indexes are demand-driven caches whose set depends on the plans that
/// requested them (and, with cost-based planning, on the statistics at
/// planning time), not on the data. Index *correctness* is checked
/// separately by [`Relation::indexes_consistent`].
impl PartialEq for Relation {
    fn eq(&self, other: &Relation) -> bool {
        self.rows == other.rows
            && self.live == other.live
            && self.live_count == other.live_count
            && self.dedup == other.dedup
            && self.stats == other.stats
    }
}

impl Eq for Relation {}

impl Relation {
    /// Empty storage for a relation of the given arity.
    pub fn new(arity: usize) -> Relation {
        Relation {
            rows: Rows {
                arity,
                len: 0,
                values: Vec::new(),
            },
            dedup: RowDedup::default(),
            indexes: Vec::new(),
            by_cols: FxHashMap::default(),
            live: BitSet::default(),
            live_count: 0,
            stats: vec![ColumnStats::default(); arity],
        }
    }

    /// Rebuild a relation from its persisted parts: the row-major values
    /// of every row ever inserted (append order, tombstones included — row
    /// ids must survive the round-trip) plus the live bitset. The dedup
    /// set and statistics are rebuilt over live rows only; indexes start
    /// empty and are re-requested by the evaluator's probe plans. Errs with
    /// a description when the parts cannot have come from a real relation
    /// (two live duplicate rows).
    pub(crate) fn from_saved_rows(
        arity: usize,
        rows: usize,
        values: Vec<Value>,
        mut live: BitSet,
    ) -> Result<Relation, String> {
        debug_assert_eq!(values.len(), rows * arity);
        live.grow(rows);
        let mut r = Relation::new(arity);
        r.rows = Rows {
            arity,
            len: rows,
            values,
        };
        r.live_count = live.count_ones();
        r.live = live;
        r.rebuild()
            .map_err(|row| format!("row {row} duplicates another live row"))?;
        Ok(r)
    }

    /// Number of attributes of every row.
    pub fn arity(&self) -> usize {
        self.rows.arity
    }

    /// Number of rows ever inserted (live and tombstoned; the bound for
    /// row-indexed structures like [`crate::State`] bitsets).
    pub fn num_rows(&self) -> usize {
        self.rows.len
    }

    /// Number of live (non-tombstoned) rows.
    pub fn live_count(&self) -> usize {
        self.live_count
    }

    /// Is `row` still a member of the relation?
    #[inline]
    pub fn is_live(&self, row: u32) -> bool {
        self.live.get(row as usize)
    }

    /// The live/tombstone bitset, one bit per row ever inserted.
    pub fn live_bits(&self) -> &BitSet {
        &self.live
    }

    /// Iterate the live rows, ascending.
    pub fn live_rows(&self) -> impl Iterator<Item = u32> + '_ {
        self.live.iter_ones().map(|r| r as u32)
    }

    /// The values stored at `row`, borrowed from the row array.
    #[inline]
    pub fn tuple(&self, row: u32) -> &[Value] {
        self.rows.get(row)
    }

    /// Insert `t`, returning its row and whether it was new.
    ///
    /// Re-inserting an existing live tuple returns the original row (set
    /// semantics). Panics when `t` does not have the relation's arity;
    /// [`Relation::insert_checked`] reports that as an error instead.
    pub fn insert(&mut self, t: &[Value]) -> (u32, bool) {
        assert_eq!(t.len(), self.arity(), "tuple arity");
        if let Some(row) = self.dedup.get(t, &self.rows) {
            return (row, false);
        }
        self.rows.values.extend_from_slice(t);
        (self.commit_staged(), true)
    }

    /// Validate the tuple `values` yields against `schema` and insert it.
    /// The values are appended straight into the row array and checked
    /// there, so no per-row buffer is built; a rejected or duplicate
    /// tuple is truncated away again.
    pub fn insert_checked(
        &mut self,
        schema: &RelationSchema,
        values: impl IntoIterator<Item = Value>,
    ) -> Result<(u32, bool), StorageError> {
        let start = self.rows.end();
        self.rows.values.extend(values);
        let staged = &self.rows.values[start..];
        let checked = if staged.len() != schema.arity() {
            Err(StorageError::ArityMismatch {
                relation: schema.name.clone(),
                expected: schema.arity(),
                got: staged.len(),
                line: None,
            })
        } else if let Some((attr, v)) = schema
            .attrs
            .iter()
            .zip(staged)
            .find(|(attr, v)| !attr.ty.admits(v))
        {
            Err(StorageError::TypeMismatch {
                relation: schema.name.clone(),
                attribute: attr.name.clone(),
                expected: attr.ty.name(),
                got: v.type_name(),
            })
        } else {
            Ok(self.dedup.get(staged, &self.rows))
        };
        match checked {
            Ok(None) => Ok((self.commit_staged(), true)),
            Ok(Some(row)) => {
                self.rows.values.truncate(start);
                Ok((row, false))
            }
            Err(e) => {
                self.rows.values.truncate(start);
                Err(e)
            }
        }
    }

    /// Make the staged tuple (the values past the last row, which the
    /// caller has checked are new) a live row, entering it into the dedup
    /// set, every index and the statistics.
    fn commit_staged(&mut self) -> u32 {
        let row = u32::try_from(self.rows.len).expect("relation too large");
        self.rows.len += 1;
        let t = self.rows.get(row);
        for idx in &mut self.indexes {
            idx.add(row, t);
        }
        for (s, v) in self.stats.iter_mut().zip(t) {
            s.add(*v);
        }
        self.dedup.insert(row, &self.rows);
        self.live.set(row as usize);
        self.live_count += 1;
        row
    }

    /// Tombstone `row`: drop it from the dedup map and from every composite
    /// index posting list (incremental — no index rebuild). The tuple's
    /// storage and id survive so provenance and repair results referring to
    /// it stay valid. Returns `false` when the row was already dead.
    pub fn remove_row(&mut self, row: u32) -> bool {
        if !self.live.get(row as usize) {
            return false;
        }
        self.live.clear(row as usize);
        self.live_count -= 1;
        self.dedup.remove(row, &self.rows);
        let t = self.rows.get(row);
        for idx in &mut self.indexes {
            idx.remove(row, t);
        }
        for (s, v) in self.stats.iter_mut().zip(t) {
            s.remove(v);
        }
        true
    }

    /// Revive a tombstoned `row`: re-enter it into the dedup map and every
    /// index at its sorted posting position. Returns `false` when the row is
    /// already live or when an equal live tuple was inserted in the meantime
    /// (reviving it would break set semantics).
    pub fn restore_row(&mut self, row: u32) -> bool {
        if row as usize >= self.rows.len || self.live.get(row as usize) {
            return false;
        }
        let t = self.rows.get(row);
        if self.dedup.get(t, &self.rows).is_some() {
            return false;
        }
        self.live.set(row as usize);
        self.live_count += 1;
        for idx in &mut self.indexes {
            idx.add(row, t);
        }
        for (s, v) in self.stats.iter_mut().zip(t) {
            s.add(*v);
        }
        self.dedup.insert(row, &self.rows);
        true
    }

    /// Row of `t`, if stored.
    pub fn find(&self, t: &[Value]) -> Option<u32> {
        self.dedup.get(t, &self.rows)
    }

    /// Build (or fetch) the composite index over `cols` and return its id.
    ///
    /// `cols` must be strictly ascending. Idempotent: requesting the same
    /// column set twice returns the same id.
    pub fn ensure_composite_index(&mut self, cols: &[usize]) -> IndexId {
        debug_assert!(
            cols.windows(2).all(|w| w[0] < w[1]) && !cols.is_empty(),
            "index columns must be non-empty and strictly ascending"
        );
        if let Some(&id) = self.by_cols.get(cols) {
            return id;
        }
        let mut idx = CompositeIndex {
            cols: cols.into(),
            map: FxHashMap::default(),
        };
        for row in self.live_rows() {
            idx.add(row, self.rows.get(row));
        }
        let id = u32::try_from(self.indexes.len()).expect("too many indexes");
        self.by_cols.insert(cols.into(), id);
        self.indexes.push(idx);
        id
    }

    /// Rows whose values at the index's columns equal `key`, ascending.
    /// Returns the empty slice when no row matches.
    #[inline]
    pub fn probe(&self, index: IndexId, key: &[Value]) -> &[u32] {
        self.indexes[index as usize]
            .map
            .get(key)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Build the single-column hash index for `col` if absent. Convenience
    /// wrapper over [`Relation::ensure_composite_index`] for tools and
    /// tests; the evaluator's probe plans request composite indexes
    /// directly.
    pub fn ensure_index(&mut self, col: usize) {
        self.ensure_composite_index(&[col]);
    }

    /// Is an index over exactly `{col}` built?
    pub fn has_index(&self, col: usize) -> bool {
        self.by_cols.contains_key(&[col][..])
    }

    /// Rows whose column `col` equals `v`, via the single-column index;
    /// `None` when that index has not been built. Single-column
    /// convenience for ad-hoc queries — the evaluator itself resolves
    /// plans to index ids once and calls [`Relation::probe`].
    pub fn lookup(&self, col: usize, v: &Value) -> Option<&[u32]> {
        let &id = self.by_cols.get(&[col][..])?;
        Some(self.probe(id, std::slice::from_ref(v)))
    }

    /// Fraction of ever-inserted rows that are tombstones (`0.0` when no
    /// row was ever inserted).
    pub fn dead_ratio(&self) -> f64 {
        if self.rows.len == 0 {
            return 0.0;
        }
        (self.rows.len - self.live_count) as f64 / self.rows.len as f64
    }

    /// Rebuild the dedup map and every composite index from the live rows.
    ///
    /// Incremental removal keeps postings and dedup entries *correct* under
    /// tombstones, but the hash tables themselves only ever grow: capacity
    /// sized for the high-water mark, posting vectors holding freed slack.
    /// Long-lived sessions that mutate continuously call this once the
    /// [`Relation::dead_ratio`] crosses a threshold. Row ids, index ids and
    /// every probe result are unchanged — only the memory layout is rebuilt
    /// — so the operation is invisible to readers, evaluation states and
    /// incremental consumers.
    pub fn compact(&mut self) {
        let rebuilt = self.rebuild();
        debug_assert!(rebuilt.is_ok(), "live rows hold a duplicate");
    }

    /// Rebuild the dedup set, every index and the column statistics from
    /// the live rows, erring with the first live row that duplicates an
    /// earlier one. The statistics are rebuilt alongside: their *contents*
    /// are exact under tombstones (zero-count entries are dropped eagerly),
    /// but a fresh recount sheds the hash-table capacity churn accumulated.
    /// Each table is sized for the live rows up front and the statistics
    /// shrunk to fit at the end, so a rebuild makes the same number of
    /// allocations at any row count.
    fn rebuild(&mut self) -> Result<(), u32> {
        let mut dedup = RowDedup::with_capacity(self.live_count);
        let mut stats: Vec<ColumnStats> = (0..self.arity())
            .map(|_| ColumnStats::with_capacity(self.live_count))
            .collect();
        for idx in &mut self.indexes {
            idx.map = FxHashMap::default();
        }
        for row in self.live.iter_ones() {
            let row = row as u32;
            if dedup.insert_unique(row, &self.rows).is_some() {
                return Err(row);
            }
            let t = self.rows.get(row);
            for idx in &mut self.indexes {
                idx.add(row, t);
            }
            for (s, v) in stats.iter_mut().zip(t) {
                s.add(*v);
            }
        }
        for s in &mut stats {
            s.shrink_to_fit();
        }
        self.dedup = dedup;
        self.stats = stats;
        Ok(())
    }

    /// The column sets of the built composite indexes, in index-id order.
    pub fn index_specs(&self) -> impl Iterator<Item = &[usize]> {
        self.indexes.iter().map(|i| &*i.cols)
    }

    /// Are the dedup map and every composite index bit-identical to a
    /// from-scratch rebuild over the live rows — same keys, same postings,
    /// same order? Test and debugging support, `O(rows × indexes)`.
    pub fn indexes_consistent(&self) -> bool {
        let mut rebuilt = self.clone();
        rebuilt.compact();
        // `RowDedup` and `FxHashMap` equality compare contents, not
        // capacity or layout, so this is exactly "every entry and every
        // posting list matches the live truth" — including the absence of
        // stale entries. The clone shares the index *set*, so comparing
        // `indexes` here checks postings even though logical equality
        // excludes them.
        rebuilt == *self && rebuilt.indexes == self.indexes && rebuilt.by_cols == self.by_cols
    }

    /// The exact live-value statistics of column `col`, or `None` when
    /// `col` is out of range.
    pub fn column_stats(&self, col: usize) -> Option<&ColumnStats> {
        self.stats.get(col)
    }

    /// Number of distinct live values in column `col` (0 when the relation
    /// holds no live row).
    pub fn distinct_count(&self, col: usize) -> usize {
        self.stats.get(col).map_or(0, ColumnStats::distinct)
    }

    /// Exact number of live rows whose column `col` holds `v`.
    pub fn value_count(&self, col: usize, v: &Value) -> usize {
        self.stats.get(col).map_or(0, |s| s.count_of(v))
    }

    /// Are the per-column statistics bit-identical to a from-scratch
    /// recount over the live rows? Test and debugging support, `O(rows ×
    /// arity)` — checked next to [`Relation::indexes_consistent`] wherever
    /// the instance mutates.
    pub fn stats_consistent(&self) -> bool {
        let mut recount = vec![ColumnStats::default(); self.arity()];
        for (_, t) in self.iter_live() {
            for (s, v) in recount.iter_mut().zip(t) {
                s.add(*v);
            }
        }
        recount == self.stats
    }

    /// Iterate all rows `(row, tuple)` ever inserted, dead ones included.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &[Value])> {
        (0..self.rows.len as u32).map(|r| (r, self.rows.get(r)))
    }

    /// Iterate the live rows `(row, tuple)`, ascending.
    pub fn iter_live(&self) -> impl Iterator<Item = (u32, &[Value])> {
        self.live_rows().map(|r| (r, self.rows.get(r)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{AttrType, RelationSchema};

    fn t(vals: &[i64]) -> Vec<Value> {
        vals.iter().map(|&v| Value::Int(v)).collect()
    }

    #[test]
    fn insert_dedups() {
        let mut r = Relation::new(2);
        let (a, fresh_a) = r.insert(&t(&[1, 2]));
        let (b, fresh_b) = r.insert(&t(&[1, 2]));
        assert_eq!(a, b);
        assert!(fresh_a);
        assert!(!fresh_b);
        assert_eq!(r.num_rows(), 1);
    }

    #[test]
    fn index_before_and_after_insert() {
        let mut r = Relation::new(2);
        r.insert(&t(&[1, 10]));
        r.ensure_index(0);
        r.insert(&t(&[1, 20]));
        r.insert(&t(&[2, 30]));
        assert_eq!(r.lookup(0, &Value::Int(1)).unwrap(), &[0, 1]);
        assert_eq!(r.lookup(0, &Value::Int(2)).unwrap(), &[2]);
        assert_eq!(r.lookup(0, &Value::Int(9)).unwrap(), &[] as &[u32]);
        assert!(r.lookup(1, &Value::Int(10)).is_none()); // not built
    }

    #[test]
    fn composite_index_matches_all_key_columns() {
        let mut r = Relation::new(3);
        r.insert(&t(&[1, 10, 100]));
        let idx = r.ensure_composite_index(&[0, 2]);
        r.insert(&t(&[1, 20, 100]));
        r.insert(&t(&[1, 30, 999]));
        r.insert(&t(&[2, 40, 100]));
        assert_eq!(r.probe(idx, &[Value::Int(1), Value::Int(100)]), &[0, 1]);
        assert_eq!(r.probe(idx, &[Value::Int(2), Value::Int(100)]), &[3]);
        assert_eq!(r.probe(idx, &[Value::Int(9), Value::Int(9)]), &[] as &[u32]);
    }

    #[test]
    fn composite_index_ids_are_stable_and_deduped() {
        let mut r = Relation::new(2);
        let a = r.ensure_composite_index(&[0]);
        let b = r.ensure_composite_index(&[0, 1]);
        assert_ne!(a, b);
        assert_eq!(r.ensure_composite_index(&[0]), a);
        assert_eq!(r.ensure_composite_index(&[0, 1]), b);
        assert!(r.has_index(0));
        assert!(!r.has_index(1));
    }

    #[test]
    fn probe_rows_stay_ascending_across_inserts() {
        let mut r = Relation::new(2);
        let idx = r.ensure_composite_index(&[1]);
        for i in 0..50 {
            r.insert(&t(&[i, i % 3]));
        }
        for k in 0..3 {
            let rows = r.probe(idx, &[Value::Int(k)]);
            assert!(rows.windows(2).all(|w| w[0] < w[1]), "ascending: {rows:?}");
        }
    }

    #[test]
    fn insert_checked_validates() {
        let schema = RelationSchema::new("R", &[("a", AttrType::Int), ("b", AttrType::Str)]);
        let mut r = Relation::new(2);
        assert!(r
            .insert_checked(&schema, [Value::Int(1), Value::str("x")])
            .is_ok());
        let arity_err = r.insert_checked(&schema, t(&[1])).unwrap_err();
        assert!(matches!(arity_err, StorageError::ArityMismatch { .. }));
        let type_err = r.insert_checked(&schema, t(&[1, 2])).unwrap_err();
        assert!(matches!(type_err, StorageError::TypeMismatch { .. }));
    }

    #[test]
    fn find_locates_rows() {
        let mut r = Relation::new(1);
        r.insert(&t(&[5]));
        assert_eq!(r.find(&t(&[5])), Some(0));
        assert_eq!(r.find(&t(&[6])), None);
    }

    #[test]
    fn remove_row_updates_indexes_incrementally() {
        let mut r = Relation::new(2);
        let idx = r.ensure_composite_index(&[0]);
        for i in 0..4 {
            r.insert(&t(&[1, i]));
        }
        assert!(r.remove_row(1));
        assert!(!r.remove_row(1), "already dead");
        assert_eq!(r.probe(idx, &[Value::Int(1)]), &[0, 2, 3]);
        assert_eq!(r.num_rows(), 4, "storage keeps the tombstoned row");
        assert_eq!(r.live_count(), 3);
        assert!(!r.is_live(1));
        assert_eq!(r.find(&t(&[1, 1])), None, "dead rows leave the set");
        assert_eq!(r.live_rows().collect::<Vec<_>>(), vec![0, 2, 3]);
    }

    #[test]
    fn restore_row_round_trips_exactly() {
        let mut r = Relation::new(2);
        let idx = r.ensure_composite_index(&[0]);
        for i in 0..4 {
            r.insert(&t(&[7, i]));
        }
        let before = r.clone();
        assert!(r.remove_row(2));
        assert_ne!(r, before);
        assert!(r.restore_row(2));
        assert_eq!(r, before, "dedup, indexes and live bits all restored");
        assert_eq!(r.probe(idx, &[Value::Int(7)]), &[0, 1, 2, 3]);
        assert!(!r.restore_row(2), "already live");
        assert!(!r.restore_row(99), "out of range");
    }

    #[test]
    fn restore_refuses_when_a_live_duplicate_exists() {
        let mut r = Relation::new(1);
        r.insert(&t(&[5]));
        assert!(r.remove_row(0));
        let (row2, fresh) = r.insert(&t(&[5]));
        assert!(fresh, "dead rows don't block re-insertion");
        assert_eq!(row2, 1);
        assert!(!r.restore_row(0), "value now lives at row 1");
        assert_eq!(r.live_count(), 1);
    }

    #[test]
    fn dedup_churn_matches_reference_model() {
        // Hammer the open-addressed dedup set through the full Relation
        // surface with a deterministic mutation storm over a small value
        // domain (high collision + duplicate pressure), checking `find`
        // against a straightforward model after every step. Catches
        // backward-shift deletion bugs that single-operation tests miss.
        let mut r = Relation::new(2);
        let mut model: std::collections::HashMap<(i64, i64), u32> = Default::default();
        let mut seed = 0x9E3779B97F4A7C15u64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for step in 0..4000 {
            let a = (rng() % 13) as i64;
            let b = (rng() % 7) as i64;
            match rng() % 4 {
                0 | 1 => {
                    let (row, fresh) = r.insert(&t(&[a, b]));
                    match model.get(&(a, b)) {
                        Some(&m) => {
                            assert!(!fresh, "step {step}");
                            assert_eq!(row, m, "step {step}");
                        }
                        None => {
                            assert!(fresh, "step {step}");
                            model.insert((a, b), row);
                        }
                    }
                }
                2 => {
                    if let Some(&row) = model.get(&(a, b)) {
                        assert!(r.remove_row(row), "step {step}");
                        model.remove(&(a, b));
                    }
                }
                _ => {
                    let row = (rng() % r.num_rows().max(1) as u64) as u32;
                    if r.num_rows() > 0 && r.restore_row(row) {
                        let key = match r.tuple(row) {
                            &[Value::Int(x), Value::Int(y)] => (x, y),
                            _ => unreachable!(),
                        };
                        assert!(!model.contains_key(&key), "step {step}");
                        model.insert(key, row);
                    }
                }
            }
            assert_eq!(r.live_count(), model.len(), "step {step}");
            for (&(x, y), &row) in &model {
                assert_eq!(r.find(&t(&[x, y])), Some(row), "step {step} key ({x},{y})");
            }
        }
        assert!(r.indexes_consistent());
    }

    #[test]
    fn nullary_relation_holds_at_most_the_empty_tuple() {
        // Stride 0: the row count cannot come from the value array.
        let mut r = Relation::new(0);
        assert_eq!(r.insert(&[]), (0, true));
        assert_eq!(r.insert(&[]), (0, false), "the empty tuple dedups");
        assert_eq!(r.num_rows(), 1);
        assert_eq!(r.tuple(0), &[] as &[Value]);
        assert_eq!(r.find(&[]), Some(0));
        assert!(r.remove_row(0));
        assert_eq!((r.num_rows(), r.live_count()), (1, 0));
        assert_eq!(r.find(&[]), None);
        assert!(r.restore_row(0));
        assert_eq!(r.live_count(), 1);
        assert!(r.remove_row(0));
        assert_eq!(r.insert(&[]), (1, true), "a dead row does not block");
        assert!(!r.restore_row(0), "the empty tuple lives at row 1");
        let before = r.clone();
        r.compact();
        assert_eq!(r, before);
        assert!(r.indexes_consistent() && r.stats_consistent());
        assert_eq!(
            r.iter().map(|(row, t)| (row, t.len())).collect::<Vec<_>>(),
            [(0, 0), (1, 0)]
        );
        assert_eq!(r.iter_live().map(|(row, _)| row).collect::<Vec<_>>(), [1]);
    }

    #[test]
    fn indexes_built_after_removal_skip_dead_rows() {
        let mut r = Relation::new(2);
        for i in 0..3 {
            r.insert(&t(&[i, 0]));
        }
        r.remove_row(1);
        let idx = r.ensure_composite_index(&[1]);
        assert_eq!(r.probe(idx, &[Value::Int(0)]), &[0, 2]);
        r.restore_row(1);
        assert_eq!(r.probe(idx, &[Value::Int(0)]), &[0, 1, 2]);
    }
}
