//! Binary snapshots: a full, checksummed image of an [`Instance`] plus the
//! session metadata (epoch + undo history) and the journal cursor.
//!
//! File layout (all integers little-endian):
//!
//! ```text
//! magic "DRSNAP01" | gen u64 | epoch u64 | journal_head u64 | schema
//! symtab: count u32 | string*          interned strings, referenced by index
//! per relation (schema order):
//!     rows u64
//!     row*                             arity × value (0 i64 | 1 symref u32)
//!     live bitset: words u64 | word*   packed u64s, one bit per row
//! history: count u32 | (semantics u8 | n u32 | (rel u16, row u32)*)*
//! crc u32                              crc32 of everything before it
//! ```
//!
//! Every row ever inserted is serialized — tombstones included — because
//! [`crate::TupleId`]s are row indexes and must survive the round-trip (the
//! undo history refers to them). Interned symbol ids are process-local, so
//! strings go through a per-file symbol table and are re-interned on load.

use super::codec::{self, Reader};
use super::{HistoryEntry, SessionMeta};
use crate::bitset::BitSet;
use crate::instance::Instance;
use crate::relation::Relation;
use crate::schema::RelId;
use crate::tuple::TupleId;
use crate::value::Value;
use crate::FxHashMap;

/// File magic + format version of snapshots.
pub const SNAP_MAGIC: &[u8; 8] = b"DRSNAP01";

/// Everything a snapshot holds.
#[derive(Debug)]
pub struct SnapshotData {
    pub gen: u64,
    pub db: Instance,
    pub meta: SessionMeta,
}

/// Serialize `db` + `meta` as snapshot generation `gen`.
pub fn encode(gen: u64, db: &Instance, meta: &SessionMeta) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(SNAP_MAGIC);
    codec::put_u64(&mut out, gen);
    codec::put_u64(&mut out, meta.epoch);
    codec::put_u64(&mut out, db.journal().head());
    codec::put_schema(&mut out, db.schema());

    // Symbol table: every distinct string, in first-appearance order.
    let mut sym_index: FxHashMap<u32, u32> = FxHashMap::default();
    let mut symbols: Vec<&'static str> = Vec::new();
    for (rel, _) in db.schema().iter() {
        for (_, t) in db.relation(rel).iter() {
            for v in t {
                if let Value::Str(s) = v {
                    sym_index.entry(s.id()).or_insert_with(|| {
                        symbols.push(s.as_str());
                        (symbols.len() - 1) as u32
                    });
                }
            }
        }
    }
    codec::put_u32(&mut out, symbols.len() as u32);
    for s in &symbols {
        codec::put_str(&mut out, s);
    }

    for (rel, _) in db.schema().iter() {
        let r = db.relation(rel);
        codec::put_u64(&mut out, r.num_rows() as u64);
        for (_, t) in r.iter() {
            for v in t {
                match v {
                    Value::Int(i) => {
                        out.push(0);
                        codec::put_i64(&mut out, *i);
                    }
                    Value::Str(s) => {
                        out.push(1);
                        codec::put_u32(&mut out, sym_index[&s.id()]);
                    }
                }
            }
        }
        let nwords = r.num_rows().div_ceil(64);
        codec::put_u64(&mut out, nwords as u64);
        let mut words = vec![0u64; nwords];
        for row in 0..r.num_rows() {
            if r.is_live(row as u32) {
                words[row / 64] |= 1 << (row % 64);
            }
        }
        for w in words {
            codec::put_u64(&mut out, w);
        }
    }

    codec::put_u32(&mut out, meta.history.len() as u32);
    for entry in &meta.history {
        out.push(entry.semantics);
        codec::put_u32(&mut out, entry.deleted.len() as u32);
        for tid in &entry.deleted {
            codec::put_u16(&mut out, tid.rel.0);
            codec::put_u32(&mut out, tid.row);
        }
    }

    let crc = codec::crc32(&out);
    codec::put_u32(&mut out, crc);
    out
}

/// Decode and fully validate a snapshot file. Any failure — bad magic,
/// checksum mismatch, impossible contents — is a `String` detail for the
/// recovery ladder to report; this function never panics on garbage, and
/// no count read from the file sizes an allocation beyond what the rest of
/// the file could encode.
pub fn decode(bytes: &[u8]) -> Result<SnapshotData, String> {
    if bytes.len() < SNAP_MAGIC.len() + 4 {
        return Err("file too short for a snapshot".into());
    }
    let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let stored_crc = u32::from_le_bytes(crc_bytes.try_into().unwrap());
    if codec::crc32(body) != stored_crc {
        return Err("file checksum mismatch".into());
    }

    let mut r = Reader::new(body);
    if r.take(SNAP_MAGIC.len())? != SNAP_MAGIC {
        return Err("bad magic (not a snapshot file)".into());
    }
    let gen = r.u64()?;
    let epoch = r.u64()?;
    let journal_head = r.u64()?;
    let schema = codec::read_schema(&mut r)?;

    let nsyms = r.u32()? as usize;
    // Minimum encodings: a string is a u32 length plus its bytes.
    let mut symbols = Vec::with_capacity(r.capacity_for(nsyms, 4));
    for _ in 0..nsyms {
        symbols.push(Value::str(r.str()?));
    }

    let mut relations = Vec::with_capacity(schema.len());
    for (rel, rs) in schema.iter() {
        let rows = r.u64()? as usize;
        // The live bitset alone needs 8 bytes per 64 rows; a count beyond
        // that cannot be real (and would spin on zero-arity rows).
        if rows.div_ceil(64) > r.remaining() / 8 {
            return Err(format!(
                "relation `{}`: {rows} rows cannot fit in the remaining {} bytes",
                rs.name,
                r.remaining()
            ));
        }
        // A value is at least a tag plus a u32 symbol reference. The rows
        // are read straight into the relation's row-major value array.
        let mut values = Vec::with_capacity(r.capacity_for(rows.saturating_mul(rs.arity()), 5));
        for _ in 0..rows {
            for attr in &rs.attrs {
                let v = match r.u8()? {
                    0 => Value::Int(r.i64()?),
                    1 => {
                        let idx = r.u32()? as usize;
                        *symbols
                            .get(idx)
                            .ok_or_else(|| format!("symbol index {idx} out of range"))?
                    }
                    t => return Err(format!("unknown value tag {t}")),
                };
                if !attr.ty.admits(&v) {
                    return Err(format!("value breaks the `{}.{}` type", rs.name, attr.name));
                }
                values.push(v);
            }
        }
        let nwords = r.u64()? as usize;
        if nwords != rows.div_ceil(64) {
            return Err(format!(
                "relation `{}`: live bitset has {nwords} words for {rows} rows",
                rs.name
            ));
        }
        let mut words = Vec::with_capacity(r.capacity_for(nwords, 8));
        for _ in 0..nwords {
            words.push(r.u64()?);
        }
        let live = BitSet::from_words(words, rows)
            .ok_or_else(|| format!("relation `{}`: live bit set beyond row count", rs.name))?;
        let relation = Relation::from_saved_rows(rs.arity(), rows, values, live)
            .map_err(|e| format!("relation `{}`: {e}", rs.name))?;
        debug_assert_eq!(rel.idx(), relations.len());
        relations.push(relation);
    }

    let nhist = r.u32()? as usize;
    // An entry is at least a semantics byte and a u32 count; a deleted
    // tuple is a u16 relation and a u32 row.
    let mut history = Vec::with_capacity(r.capacity_for(nhist, 5));
    for _ in 0..nhist {
        let semantics = r.u8()?;
        let n = r.u32()? as usize;
        let mut deleted = Vec::with_capacity(r.capacity_for(n, 6));
        for _ in 0..n {
            let rel = RelId(r.u16()?);
            let row = r.u32()?;
            if rel.idx() >= relations.len() || row as usize >= relations[rel.idx()].num_rows() {
                return Err(format!("history refers to unknown tuple t{}.{row}", rel.0));
            }
            deleted.push(TupleId::new(rel, row));
        }
        history.push(HistoryEntry { semantics, deleted });
    }
    if r.remaining() != 0 {
        return Err(format!("{} trailing bytes after history", r.remaining()));
    }

    Ok(SnapshotData {
        gen,
        db: Instance::from_saved_parts(schema, relations, journal_head),
        meta: SessionMeta { epoch, history },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{AttrType, Schema};

    fn sample_db() -> Instance {
        let mut schema = Schema::new();
        schema.relation("Grant", &[("gid", AttrType::Int), ("name", AttrType::Str)]);
        schema.relation("Author", &[("aid", AttrType::Int)]);
        let mut db = Instance::new(schema);
        let t0 = db
            .insert_values("Grant", [Value::Int(1), Value::str("NSF")])
            .unwrap();
        db.insert_values("Grant", [Value::Int(2), Value::str("ERC")])
            .unwrap();
        db.insert_values("Grant", [Value::Int(3), Value::str("NSF")])
            .unwrap();
        db.insert_values("Author", [Value::Int(9)]).unwrap();
        // A tombstone in the middle: row ids must survive the round-trip.
        db.delete_tuples([t0]).unwrap();
        db
    }

    #[test]
    fn snapshot_round_trips_tombstones_and_history() {
        let db = sample_db();
        let meta = SessionMeta {
            epoch: 7,
            history: vec![HistoryEntry {
                semantics: 3,
                deleted: vec![TupleId::new(RelId(0), 0)],
            }],
        };
        let bytes = encode(4, &db, &meta);
        let snap = decode(&bytes).unwrap();
        assert_eq!(snap.gen, 4);
        assert_eq!(snap.meta, meta);
        assert_eq!(snap.db, db);
        assert_eq!(snap.db.journal().head(), db.journal().head());
        let rel = snap.db.schema().rel_id("Grant").unwrap();
        assert_eq!(snap.db.relation(rel).num_rows(), 3);
        assert_eq!(snap.db.relation(rel).live_count(), 2);
        assert!(!snap.db.relation(rel).is_live(0));
        assert!(snap.db.indexes_consistent());
    }

    #[test]
    fn nullary_relation_round_trips() {
        // A relation with no attributes holds at most the empty tuple; its
        // rows (one tombstoned, one live) must survive a snapshot even
        // though they occupy no values.
        let mut schema = Schema::new();
        let flag = schema.relation("Flag", &[]);
        schema.relation("R", &[("x", AttrType::Int)]);
        let mut db = Instance::new(schema);
        let first = db.insert(flag, []).unwrap();
        assert_eq!(
            db.insert(flag, []).unwrap(),
            first,
            "the empty tuple dedups"
        );
        db.insert_values("R", [Value::Int(1)]).unwrap();
        db.delete_tuples([first]).unwrap();
        let second = db.insert(flag, []).unwrap();
        assert_eq!((first.row, second.row), (0, 1));
        let snap = decode(&encode(0, &db, &SessionMeta::default())).unwrap();
        assert_eq!(snap.db, db);
        assert_eq!(snap.db.rows(flag), 2);
        assert!(!snap.db.is_live(first) && snap.db.is_live(second));
        assert_eq!(snap.db.tuple(second), &[] as &[Value]);
        assert!(snap.db.indexes_consistent());
    }

    #[test]
    fn every_flipped_byte_is_caught() {
        let db = sample_db();
        let meta = SessionMeta::default();
        let clean = encode(0, &db, &meta);
        // Exhaustive over the whole (small) file: no flipped byte may
        // decode successfully, and none may panic.
        for i in 0..clean.len() {
            let mut bad = clean.clone();
            bad[i] ^= 0x04;
            assert!(decode(&bad).is_err(), "flip at byte {i} went undetected");
        }
        // Truncations neither.
        for len in 0..clean.len() {
            assert!(decode(&clean[..len]).is_err());
        }
    }

    #[test]
    fn duplicate_live_rows_are_rejected() {
        // Hand-craft a snapshot whose relation holds two live copies of
        // the same tuple — impossible for a real instance, so decode must
        // refuse rather than rebuild a broken dedup map.
        let mut schema = Schema::new();
        schema.relation("R", &[("x", AttrType::Int)]);
        let mut db = Instance::new(schema);
        let t = db.insert_values("R", [Value::Int(5)]).unwrap();
        db.delete_tuples([t]).unwrap();
        db.insert_values("R", [Value::Int(5)]).unwrap();
        let mut bytes = encode(0, &db, &SessionMeta::default());
        // Flip the dead row live: the bitset word for R starts right after
        // its two 9-byte rows; patch via full re-encode instead — easier:
        // decode-modify is impossible (decode refuses), so locate the live
        // word. Layout: ...rows u64 | row0 | row1 | nwords u64 | word.
        let word_pos = bytes.len() - 4 /*crc*/ - 4 /*hist count*/ - 8 /*word*/;
        bytes[word_pos] = 0b11; // both rows live
        let body_len = bytes.len() - 4;
        let crc = codec::crc32(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&crc.to_le_bytes());
        let err = decode(&bytes).unwrap_err();
        assert!(err.contains("duplicates"), "{err}");
    }

    /// `bytes` with `value` written at `pos` and the file CRC recomputed,
    /// so only the forged count itself can reject the file.
    fn forged(bytes: &[u8], pos: usize, value: &[u8]) -> Vec<u8> {
        let mut bytes = bytes.to_vec();
        bytes[pos..pos + value.len()].copy_from_slice(value);
        let body_len = bytes.len() - 4;
        let crc = codec::crc32(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&crc.to_le_bytes());
        bytes
    }

    #[test]
    fn forged_counts_are_rejected_without_huge_reservations() {
        let mut schema = Schema::new();
        schema.relation("R", &[("x", AttrType::Int)]);
        let mut db = Instance::new(schema.clone());
        let t = db.insert_values("R", [Value::Int(5)]).unwrap();
        let meta = SessionMeta {
            epoch: 1,
            history: vec![HistoryEntry {
                semantics: 0,
                deleted: vec![t],
            }],
        };
        let bytes = encode(0, &db, &meta);
        assert!(decode(&bytes).is_ok());
        // Layout: 32 header bytes | schema | nsyms u32 | rows u64 |
        // one 9-byte row | nwords u64 | word u64 | nhist u32 |
        // semantics u8 | n u32 | tid | crc.
        let mut schema_bytes = Vec::new();
        codec::put_schema(&mut schema_bytes, &schema);
        let nsyms = 32 + schema_bytes.len();
        let rows = nsyms + 4;
        let nwords = rows + 8 + 9;
        let nhist = nwords + 16;
        let n = nhist + 4 + 1;
        let big64 = 1_000_000_000_000_000_000u64.to_le_bytes();
        let big32 = u32::MAX.to_le_bytes();
        for (what, pos, value) in [
            ("nsyms", nsyms, &big32[..]),
            ("rows", rows, &big64[..]),
            ("nwords", nwords, &big64[..]),
            ("nhist", nhist, &big32[..]),
            ("history n", n, &big32[..]),
        ] {
            let bad = forged(&bytes, pos, value);
            assert!(decode(&bad).is_err(), "forged {what} count decoded");
        }
    }
}
