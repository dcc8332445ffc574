//! Opening a store: the snapshot fallback ladder + WAL chain replay.
//!
//! See the [module docs](super) for the ladder. Replay is *strict*: every
//! data record must do exactly what it did originally (an insert lands on
//! a fresh row, a delete removes exactly one live tuple), so any
//! divergence between the files and a real mutation history surfaces as
//! [`StorageError::Corrupt`] instead of a silently different database.

use super::wal::{self, WalRecord};
use super::{
    io_err, parse_gen, snap_name, snapshot, wal_name, DiskOptions, DiskStore, SessionMeta,
};
use crate::error::StorageError;
use crate::instance::Instance;
use std::path::Path;

/// What recovery found and did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Generation of the snapshot the rebuild started from; `None` for a
    /// WAL-only replay.
    pub snapshot_gen: Option<u64>,
    /// WAL records applied (data records and marks).
    pub records_replayed: u64,
    /// Acknowledged batches applied.
    pub batches_replayed: u64,
    /// Bytes chopped off the final WAL (torn tail and/or unacknowledged
    /// trailing records).
    pub truncated_bytes: u64,
    /// Whole records discarded because their batch never committed.
    pub discarded_records: u64,
    /// One note per degradation the ladder took (corrupt snapshot skipped,
    /// WAL recreated, …). Empty on a clean open.
    pub fallbacks: Vec<String>,
}

impl RecoveryReport {
    /// Did recovery do anything beyond loading the newest snapshot and
    /// replaying a clean WAL?
    pub fn degraded(&self) -> bool {
        !self.fallbacks.is_empty() || self.truncated_bytes > 0
    }
}

fn corrupt(path: &Path, detail: impl Into<String>) -> StorageError {
    StorageError::Corrupt {
        path: path.display().to_string(),
        detail: detail.into(),
    }
}

/// Total rows ever inserted (tombstones included) — what WAL headers
/// record as `base_rows`.
fn ever_rows(db: &Instance) -> u64 {
    db.schema()
        .iter()
        .map(|(rel, _)| db.relation(rel).num_rows() as u64)
        .sum()
}

pub(super) fn recover(
    dir: &Path,
    opts: DiskOptions,
) -> Result<(DiskStore, Instance, SessionMeta, RecoveryReport), StorageError> {
    let io = opts.io.clone();
    let names = io.list(dir).map_err(|e| io_err("list", dir, e))?;
    let mut snap_gens: Vec<u64> = names
        .iter()
        .filter_map(|n| parse_gen(n, "snap-", ".drs"))
        .collect();
    snap_gens.sort_unstable();
    let mut wal_gens: Vec<u64> = names
        .iter()
        .filter_map(|n| parse_gen(n, "wal-", ".drw"))
        .collect();
    wal_gens.sort_unstable();
    if snap_gens.is_empty() && wal_gens.is_empty() {
        return Err(corrupt(dir, "no snapshot or wal files found (not a store)"));
    }

    let mut report = RecoveryReport::default();

    // Rung 1: the newest snapshot that validates.
    let mut base: Option<(u64, Instance, SessionMeta)> = None;
    let mut corrupt_snaps: Vec<u64> = Vec::new();
    for &gen in snap_gens.iter().rev() {
        let path = dir.join(snap_name(gen));
        let attempt = io
            .read(&path)
            .map_err(|e| e.to_string())
            .and_then(|bytes| snapshot::decode(&bytes).map(|s| (s, bytes.len())));
        match attempt {
            Ok((snap, _)) if snap.gen == gen => {
                base = Some((gen, snap.db, snap.meta));
                break;
            }
            Ok((snap, _)) => {
                report
                    .fallbacks
                    .push(format!("snapshot gen {gen}: file claims gen {}", snap.gen));
                corrupt_snaps.push(gen);
            }
            Err(detail) => {
                report
                    .fallbacks
                    .push(format!("snapshot gen {gen}: {detail}"));
                corrupt_snaps.push(gen);
            }
        }
    }

    // Rung 2: WAL-only replay from an empty generation-0 base.
    let wal_only = base.is_none();
    let (base_gen, mut db, mut meta) = match base {
        Some(b) => b,
        None => {
            let path = dir.join(wal_name(0));
            if !wal_gens.contains(&0) {
                return Err(corrupt(
                    dir,
                    format!(
                        "no valid snapshot and no wal-0 for a wal-only replay; tried: {}",
                        report.fallbacks.join("; ")
                    ),
                ));
            }
            let bytes = io.read(&path).map_err(|e| io_err("read", &path, e))?;
            let parsed = wal::parse(&bytes).map_err(|d| corrupt(&path, d))?;
            if parsed.base_rows != 0 {
                return Err(corrupt(
                    &path,
                    format!(
                        "wal-only replay needs an empty base, but wal-0 extends a \
                         {}-row snapshot; tried: {}",
                        parsed.base_rows,
                        report.fallbacks.join("; ")
                    ),
                ));
            }
            report
                .fallbacks
                .push("no valid snapshot; wal-only replay from empty base".into());
            (0, Instance::new(parsed.schema), SessionMeta::default())
        }
    };
    report.snapshot_gen = (!wal_only).then_some(base_gen);

    // Replay the WAL chain from the base generation upward.
    let newest = wal_gens.last().copied().unwrap_or(base_gen).max(base_gen);
    let mut final_wal_ok = false;
    for gen in base_gen..=newest {
        let is_final = gen == newest;
        let path = dir.join(wal_name(gen));
        if !wal_gens.contains(&gen) {
            if is_final {
                // Crash between the snapshot rename and the WAL creation:
                // the generation simply has no mutations yet.
                report
                    .fallbacks
                    .push(format!("wal gen {gen} missing; recreated empty"));
                continue;
            }
            return Err(corrupt(
                &path,
                "wal missing from the middle of the chain; later generations \
                 depend on its records",
            ));
        }
        let bytes = io.read(&path).map_err(|e| io_err("read", &path, e))?;
        let parsed = match wal::parse(&bytes) {
            Ok(p) => p,
            Err(detail) if is_final && gen == base_gen => {
                // The final WAL's header never made it to disk whole. The
                // base snapshot of the *same* generation is the complete
                // state at that WAL's birth, so nothing acknowledged is
                // lost by starting it over.
                report
                    .fallbacks
                    .push(format!("wal gen {gen}: {detail}; recreated empty"));
                continue;
            }
            Err(detail) => return Err(corrupt(&path, detail)),
        };
        if parsed.gen != gen {
            return Err(corrupt(&path, format!("file claims gen {}", parsed.gen)));
        }
        if parsed.schema != *db.schema() {
            return Err(corrupt(&path, "schema differs from the recovered instance"));
        }
        if parsed.base_rows != ever_rows(&db) {
            return Err(corrupt(
                &path,
                format!(
                    "wal expects a {}-row base but the chain reconstructed {} rows",
                    parsed.base_rows,
                    ever_rows(&db)
                ),
            ));
        }

        if is_final {
            final_wal_ok = true;
        }

        // Apply batches: data records buffer until their closing mark.
        let mut pending: Vec<WalRecord> = Vec::new();
        let mut committed_end = parsed.header_end;
        let (records, file_len, tail_error) = (parsed.records, parsed.file_len, parsed.tail_error);
        for (rec, end) in records {
            if rec.is_mark() {
                let batch = std::mem::take(&mut pending);
                let n = batch.len() as u64 + 1;
                apply_batch(&mut db, &mut meta, batch, &rec).map_err(|d| corrupt(&path, d))?;
                report.records_replayed += n;
                report.batches_replayed += 1;
                committed_end = end;
            } else {
                pending.push(rec);
            }
        }
        let dangling = pending.len() as u64;
        if !is_final {
            if tail_error.is_some() || dangling > 0 {
                return Err(corrupt(
                    &path,
                    "mid-chain wal ends in unacknowledged records; later \
                     generations were built on state this chain cannot reproduce",
                ));
            }
            continue;
        }
        // Final WAL: chop the torn/unacknowledged tail so the next append
        // starts at a clean record boundary.
        if committed_end < file_len {
            io.truncate(&path, committed_end as u64)
                .map_err(|e| io_err("truncate torn tail", &path, e))?;
            io.sync(&path).map_err(|e| io_err("wal fsync", &path, e))?;
            report.truncated_bytes += (file_len - committed_end) as u64;
            report.discarded_records += dangling;
            if let Some(detail) = tail_error {
                report
                    .fallbacks
                    .push(format!("wal gen {gen}: torn tail ({detail})"));
            }
        }
    }

    let store = DiskStore {
        io,
        dir: dir.to_path_buf(),
        fsync: opts.fsync,
        checkpoint_every: opts.checkpoint_every,
        gen: newest,
        last_valid_snap: base_gen,
        appends_since_sync: 0,
        records_since_checkpoint: 0,
        wedged: false,
    };
    // Recreate the newest WAL if it was missing or unreadable.
    if !final_wal_ok {
        store.write_wal_header(newest, &db)?;
    }
    // Quarantine the snapshots that failed validation. Left in place, the
    // next checkpoint's GC could retire the generation recovery actually
    // loaded from while a known-corrupt file stayed behind as the newest
    // fallback. Removal is best-effort and runs only once recovery has
    // succeeded — a failed open leaves every byte on disk for forensics.
    for gen in corrupt_snaps {
        let path = dir.join(snap_name(gen));
        if store.io.remove(&path).is_ok() {
            report
                .fallbacks
                .push(format!("snapshot gen {gen}: removed corrupt file"));
        }
    }

    Ok((store, db, meta, report))
}

/// Apply one acknowledged batch. Strict: every record must replay exactly
/// as it originally happened.
fn apply_batch(
    db: &mut Instance,
    meta: &mut SessionMeta,
    data: Vec<WalRecord>,
    mark: &WalRecord,
) -> Result<(), String> {
    for rec in data {
        match rec {
            WalRecord::Insert { rel, values } => {
                if rel.idx() >= db.schema().len() {
                    return Err(format!("insert into unknown relation {}", rel.0));
                }
                let expected_row = db.relation(rel).num_rows() as u32;
                let tid = db
                    .insert(rel, values)
                    .map_err(|e| format!("replayed insert rejected: {e}"))?;
                if tid.row != expected_row {
                    return Err(format!(
                        "replayed insert deduplicated into existing row {} \
                         (wal out of step with its base)",
                        tid.row
                    ));
                }
            }
            WalRecord::Delete { tid } => {
                let n = db
                    .delete_tuples([tid])
                    .map_err(|e| format!("replayed delete rejected: {e}"))?;
                if n != 1 {
                    return Err(format!("replayed delete of {tid} was a no-op"));
                }
            }
            WalRecord::Restore { tid } => {
                let n = db
                    .restore_tuples([tid])
                    .map_err(|e| format!("replayed restore rejected: {e}"))?;
                if n != 1 {
                    return Err(format!("replayed restore of {tid} was a no-op"));
                }
            }
            other => return Err(format!("mark {other:?} inside a batch body")),
        }
    }
    match mark {
        WalRecord::Commit { epoch } => meta.epoch = *epoch,
        WalRecord::Apply {
            epoch,
            semantics,
            deleted,
        } => {
            meta.history.push(super::HistoryEntry {
                semantics: *semantics,
                deleted: deleted.clone(),
            });
            meta.epoch = *epoch;
        }
        WalRecord::Undo { epoch } => {
            if meta.history.pop().is_none() {
                return Err("undo mark with an empty history".into());
            }
            meta.epoch = *epoch;
        }
        _ => unreachable!("caller only passes marks"),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::super::{
        DiskOptions, DiskStore, FsyncPolicy, MemIo, SessionMeta, StorageIo, WalRecord,
    };
    use super::*;
    use crate::schema::{AttrType, Schema};
    use crate::value::Value;
    use std::sync::Arc;

    fn mem_opts() -> (Arc<MemIo>, DiskOptions) {
        let mem = Arc::new(MemIo::new());
        let opts = DiskOptions {
            fsync: FsyncPolicy::Always,
            io: mem.clone(),
            checkpoint_every: 0,
        };
        (mem, opts)
    }

    fn db_with_rows(n: i64) -> Instance {
        let mut schema = Schema::new();
        schema.relation("R", &[("x", AttrType::Int)]);
        let mut db = Instance::new(schema);
        for i in 0..n {
            db.insert_values("R", [Value::Int(i)]).unwrap();
        }
        db
    }

    /// Build a two-generation store with one batch in each WAL.
    fn two_gen_store(opts: &DiskOptions) -> (Instance, SessionMeta) {
        let dir = Path::new("/store");
        let mut db = db_with_rows(3);
        let mut store = DiskStore::create(dir, opts.clone(), &db, &SessionMeta::default()).unwrap();
        let rel = db.schema().rel_id("R").unwrap();
        let t = db.insert_values("R", [Value::Int(100)]).unwrap();
        store
            .append(&[
                WalRecord::Insert {
                    rel,
                    values: vec![Value::Int(100)],
                },
                WalRecord::Commit { epoch: 1 },
            ])
            .unwrap();
        let meta = SessionMeta {
            epoch: 1,
            history: vec![],
        };
        store.checkpoint(&db, &meta).unwrap();
        db.delete_tuples([t]).unwrap();
        store
            .append(&[WalRecord::Delete { tid: t }, WalRecord::Commit { epoch: 2 }])
            .unwrap();
        (
            db,
            SessionMeta {
                epoch: 2,
                history: vec![],
            },
        )
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_across_the_wal_chain() {
        let (mem, opts) = mem_opts();
        let dir = Path::new("/store");
        let (db, meta) = two_gen_store(&opts);
        // Trash the newest snapshot.
        let snap1 = dir.join(snap_name(1));
        let mut bytes = mem.contents(&snap1).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        mem.corrupt(&snap1, bytes);

        let (_, rdb, rmeta, report) = DiskStore::open(dir, opts).unwrap();
        assert_eq!(
            rdb, db,
            "gen-0 snapshot + wal-0 + wal-1 reproduce the state"
        );
        assert_eq!(rmeta, meta);
        assert_eq!(report.snapshot_gen, Some(0));
        assert!(report.degraded());
        assert!(report.fallbacks[0].contains("snapshot gen 1"), "{report:?}");
    }

    #[test]
    fn corrupt_snapshot_is_quarantined_and_survives_the_next_checkpoint() {
        let (mem, opts) = mem_opts();
        let dir = Path::new("/store");
        let (db, meta) = two_gen_store(&opts);
        let snap1 = dir.join(snap_name(1));
        mem.corrupt(&snap1, b"garbage".to_vec());

        let (mut store, rdb, rmeta, report) = DiskStore::open(dir, opts.clone()).unwrap();
        assert_eq!(rdb, db);
        assert!(
            mem.contents(&snap1).is_none(),
            "the snapshot that failed validation is removed: {report:?}"
        );
        assert!(
            report.fallbacks.iter().any(|f| f.contains("removed")),
            "{report:?}"
        );

        // The first checkpoint must keep generation 0 — the snapshot
        // recovery actually loaded from and still the only valid one
        // below the checkpoint being written.
        store.checkpoint(&rdb, &rmeta).unwrap();
        assert!(mem.contents(&dir.join(snap_name(0))).is_some());
        let (_, rdb2, rmeta2, _) = DiskStore::open(dir, opts.clone()).unwrap();
        assert_eq!(rdb2, db);
        assert_eq!(rmeta2, meta);

        // A second checkpoint gives two self-written valid generations;
        // normal two-generation retirement resumes.
        store.checkpoint(&rdb, &rmeta).unwrap();
        let gens: Vec<u64> = mem
            .list(dir)
            .unwrap()
            .iter()
            .filter_map(|n| super::parse_gen(n, "snap-", ".drs"))
            .collect();
        assert!(mem.contents(&dir.join(snap_name(0))).is_none());
        assert_eq!(gens.iter().copied().max(), Some(3));
    }

    #[test]
    fn all_snapshots_corrupt_with_nonempty_base_is_typed_corruption() {
        let (mem, opts) = mem_opts();
        let dir = Path::new("/store");
        let (_db, _meta) = two_gen_store(&opts);
        for gen in [0, 1] {
            let p = dir.join(snap_name(gen));
            mem.corrupt(&p, b"not a snapshot at all".to_vec());
        }
        let err = DiskStore::open(dir, opts).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("wal-only"), "{err}");
    }

    #[test]
    fn wal_only_replay_recovers_an_empty_base_store() {
        let (mem, opts) = mem_opts();
        let dir = Path::new("/store");
        let mut db = db_with_rows(0);
        let mut store = DiskStore::create(dir, opts.clone(), &db, &SessionMeta::default()).unwrap();
        let rel = db.schema().rel_id("R").unwrap();
        for i in 0..4 {
            db.insert_values("R", [Value::Int(i)]).unwrap();
            store
                .append(&[
                    WalRecord::Insert {
                        rel,
                        values: vec![Value::Int(i)],
                    },
                    WalRecord::Commit {
                        epoch: (i + 1) as u64,
                    },
                ])
                .unwrap();
        }
        mem.corrupt(&dir.join(snap_name(0)), vec![0xAB; 64]);
        let (_, rdb, rmeta, report) = DiskStore::open(dir, opts).unwrap();
        assert_eq!(rdb, db);
        assert_eq!(rmeta.epoch, 4);
        assert_eq!(report.snapshot_gen, None);
        assert_eq!(report.batches_replayed, 4);
    }

    #[test]
    fn torn_tail_and_unacked_records_are_truncated() {
        let (mem, opts) = mem_opts();
        let dir = Path::new("/store");
        let mut db = db_with_rows(2);
        let mut store = DiskStore::create(dir, opts.clone(), &db, &SessionMeta::default()).unwrap();
        let rel = db.schema().rel_id("R").unwrap();
        db.insert_values("R", [Value::Int(50)]).unwrap();
        store
            .append(&[
                WalRecord::Insert {
                    rel,
                    values: vec![Value::Int(50)],
                },
                WalRecord::Commit { epoch: 1 },
            ])
            .unwrap();
        // A complete-but-unacknowledged record, then garbage.
        let wal = dir.join(wal_name(0));
        let mut bytes = mem.contents(&wal).unwrap();
        let clean_len = bytes.len();
        bytes.extend_from_slice(&wal::frame_records(&[WalRecord::Insert {
            rel,
            values: vec![Value::Int(51)],
        }]));
        bytes.extend_from_slice(&[0x77; 9]);
        mem.corrupt(&wal, bytes);

        let (_, rdb, rmeta, report) = DiskStore::open(dir, opts).unwrap();
        assert_eq!(rdb, db, "the unacknowledged insert is not replayed");
        assert_eq!(rmeta.epoch, 1);
        assert!(report.truncated_bytes > 0);
        assert_eq!(report.discarded_records, 1);
        assert_eq!(
            mem.contents(&wal).unwrap().len(),
            clean_len,
            "file physically truncated back to the last acknowledged batch"
        );
    }

    #[test]
    fn missing_final_wal_is_recreated() {
        let (mem, opts) = mem_opts();
        let dir = Path::new("/store");
        let (db, meta) = two_gen_store(&opts);
        // As if the crash hit between snapshot rename and WAL creation —
        // but the delete batch of wal-1 must survive for state parity, so
        // first fold it into a newer snapshot via a fresh checkpoint.
        let (mut store, rdb, rmeta, _) = DiskStore::open(dir, opts.clone()).unwrap();
        store.checkpoint(&rdb, &rmeta).unwrap();
        StorageIo::remove(&*mem, &dir.join(wal_name(2))).unwrap();
        let (store, rdb, rmeta, report) = DiskStore::open(dir, opts).unwrap();
        assert_eq!(rdb, db);
        assert_eq!(rmeta, meta);
        assert_eq!(store.generation(), 2);
        assert!(
            report.fallbacks.iter().any(|f| f.contains("recreated")),
            "{report:?}"
        );
        assert!(mem.contents(&dir.join(wal_name(2))).is_some());
    }

    #[test]
    fn garbage_everywhere_errors_and_never_panics() {
        let (mem, opts) = mem_opts();
        let dir = Path::new("/store");
        mem.corrupt(&dir.join(snap_name(3)), vec![0x00; 200]);
        mem.corrupt(&dir.join(wal_name(3)), vec![0xFF; 200]);
        let err = DiskStore::open(dir, opts.clone()).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt { .. }), "{err}");

        // An empty directory is "not a store", also typed.
        let err = DiskStore::open(Path::new("/elsewhere"), opts).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt { .. }), "{err}");
    }
}
