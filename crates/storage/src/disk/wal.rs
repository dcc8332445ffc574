//! The write-ahead log: a header followed by length-prefixed,
//! CRC-checksummed records.
//!
//! File layout (all integers little-endian):
//!
//! ```text
//! magic "DRWAL001" | gen u64 | base_rows u64 | schema | header_crc u32
//! record*                      where record = len u32 | crc32(payload) u32 | payload
//! ```
//!
//! `gen` ties the file to the snapshot generation it extends; `base_rows`
//! is the total row count of that snapshot (recovery refuses a WAL-only
//! replay unless the chain starts at an empty base). The first payload byte
//! is the record kind; insert records carry the tuple's **values** (the
//! mutation journal records only ids), so replaying the raw sequence
//! against the reconstructed instance reproduces the exact row ids.
//!
//! A record whose length or checksum does not match ends the scan: if
//! nothing but zero-or-more whole records follows, that is a *torn tail*
//! (the crash interrupted an append) and recovery truncates it; the
//! records of a batch only count once the scan reaches the batch's
//! closing `Commit`/`Apply`/`Undo` mark, so recovery always lands on an
//! acknowledged batch boundary.

use super::codec::{self, Reader};
use crate::schema::{RelId, Schema};
use crate::tuple::TupleId;
use crate::value::Value;

/// File magic + format version of the WAL.
pub const WAL_MAGIC: &[u8; 8] = b"DRWAL001";

/// Upper bound on one record payload; a length field above this is treated
/// as corruption rather than attempted as an allocation.
const MAX_RECORD_LEN: u32 = 1 << 30;

/// One WAL record. Data records mirror [`crate::MutationKind`] (plus the
/// values the journal does not carry); mark records close a batch and make
/// it recoverable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalRecord {
    /// A fresh row appended to `rel` (row id = the relation's next row).
    Insert { rel: RelId, values: Vec<Value> },
    /// A live row tombstoned.
    Delete { tid: TupleId },
    /// A tombstoned row revived.
    Restore { tid: TupleId },
    /// Plain mutation batch acknowledged; `epoch` is the session epoch
    /// after it.
    Commit { epoch: u64 },
    /// A repair was applied: the semantics (session-level code) and the
    /// full delete set, which is what the undo history stores — the
    /// preceding `Delete` records cover only rows that were actually live.
    Apply {
        epoch: u64,
        semantics: u8,
        deleted: Vec<TupleId>,
    },
    /// The newest applied repair was undone (preceded by its `Restore`s).
    Undo { epoch: u64 },
}

impl WalRecord {
    /// Is this a batch-closing mark?
    pub fn is_mark(&self) -> bool {
        matches!(
            self,
            WalRecord::Commit { .. } | WalRecord::Apply { .. } | WalRecord::Undo { .. }
        )
    }
}

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Int(i) => {
            out.push(0);
            codec::put_i64(out, *i);
        }
        Value::Str(s) => {
            out.push(1);
            codec::put_str(out, s.as_str());
        }
    }
}

fn read_value(r: &mut Reader<'_>) -> Result<Value, String> {
    match r.u8()? {
        0 => Ok(Value::Int(r.i64()?)),
        1 => Ok(Value::str(r.str()?)),
        t => Err(format!("unknown value tag {t}")),
    }
}

fn put_tid(out: &mut Vec<u8>, tid: TupleId) {
    codec::put_u16(out, tid.rel.0);
    codec::put_u32(out, tid.row);
}

fn read_tid(r: &mut Reader<'_>) -> Result<TupleId, String> {
    let rel = RelId(r.u16()?);
    let row = r.u32()?;
    Ok(TupleId::new(rel, row))
}

/// Encode one record's payload (kind byte + body, no framing).
pub fn encode_payload(rec: &WalRecord) -> Vec<u8> {
    let mut out = Vec::new();
    match rec {
        WalRecord::Insert { rel, values } => {
            out.push(0);
            codec::put_u16(&mut out, rel.0);
            codec::put_u16(&mut out, values.len() as u16);
            for v in values {
                put_value(&mut out, v);
            }
        }
        WalRecord::Delete { tid } => {
            out.push(1);
            put_tid(&mut out, *tid);
        }
        WalRecord::Restore { tid } => {
            out.push(2);
            put_tid(&mut out, *tid);
        }
        WalRecord::Commit { epoch } => {
            out.push(3);
            codec::put_u64(&mut out, *epoch);
        }
        WalRecord::Apply {
            epoch,
            semantics,
            deleted,
        } => {
            out.push(4);
            codec::put_u64(&mut out, *epoch);
            out.push(*semantics);
            codec::put_u32(&mut out, deleted.len() as u32);
            for tid in deleted {
                put_tid(&mut out, *tid);
            }
        }
        WalRecord::Undo { epoch } => {
            out.push(5);
            codec::put_u64(&mut out, *epoch);
        }
    }
    out
}

fn decode_payload(payload: &[u8]) -> Result<WalRecord, String> {
    let mut r = Reader::new(payload);
    let rec = match r.u8()? {
        0 => {
            let rel = RelId(r.u16()?);
            let arity = r.u16()?;
            // A value is at least a tag plus a u32 string length.
            let mut values = Vec::with_capacity(r.capacity_for(arity as usize, 5));
            for _ in 0..arity {
                values.push(read_value(&mut r)?);
            }
            WalRecord::Insert { rel, values }
        }
        1 => WalRecord::Delete {
            tid: read_tid(&mut r)?,
        },
        2 => WalRecord::Restore {
            tid: read_tid(&mut r)?,
        },
        3 => WalRecord::Commit { epoch: r.u64()? },
        4 => {
            let epoch = r.u64()?;
            let semantics = r.u8()?;
            let n = r.u32()?;
            // A tuple id is a u16 relation plus a u32 row.
            let mut deleted = Vec::with_capacity(r.capacity_for(n as usize, 6));
            for _ in 0..n {
                deleted.push(read_tid(&mut r)?);
            }
            WalRecord::Apply {
                epoch,
                semantics,
                deleted,
            }
        }
        5 => WalRecord::Undo { epoch: r.u64()? },
        k => return Err(format!("unknown record kind {k}")),
    };
    if r.remaining() != 0 {
        return Err(format!("{} trailing bytes after record", r.remaining()));
    }
    Ok(rec)
}

/// Frame records for appending: `len | crc | payload` each.
pub fn frame_records(records: &[WalRecord]) -> Vec<u8> {
    let mut out = Vec::new();
    for rec in records {
        let payload = encode_payload(rec);
        codec::put_u32(&mut out, payload.len() as u32);
        codec::put_u32(&mut out, codec::crc32(&payload));
        out.extend_from_slice(&payload);
    }
    out
}

/// Encode the file header for a fresh WAL.
pub fn encode_header(gen: u64, base_rows: u64, schema: &Schema) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(WAL_MAGIC);
    codec::put_u64(&mut out, gen);
    codec::put_u64(&mut out, base_rows);
    codec::put_schema(&mut out, schema);
    let crc = codec::crc32(&out);
    codec::put_u32(&mut out, crc);
    out
}

/// A parsed WAL file: the header fields plus every whole, checksummed
/// record with the byte offset of its end (for torn-tail truncation).
#[derive(Debug)]
pub struct WalFile {
    pub gen: u64,
    pub base_rows: u64,
    pub schema: Schema,
    /// Offset just past the header (where the first record starts).
    pub header_end: usize,
    /// `(record, end_offset)` in file order.
    pub records: Vec<(WalRecord, usize)>,
    /// Total file length scanned.
    pub file_len: usize,
    /// Offset where the record scan stopped (== `file_len` on a clean
    /// file; earlier when a torn or corrupt tail follows).
    pub scanned_to: usize,
    /// Why the scan stopped early, when it did.
    pub tail_error: Option<String>,
}

/// Parse a WAL file. An unreadable *header* fails the whole file (the
/// caller falls back down the recovery ladder); an unreadable *record*
/// merely ends the scan, reported via `scanned_to`/`tail_error`.
pub fn parse(bytes: &[u8]) -> Result<WalFile, String> {
    let mut r = Reader::new(bytes);
    let magic = r
        .take(WAL_MAGIC.len())
        .map_err(|e| format!("header: {e}"))?;
    if magic != WAL_MAGIC {
        return Err("bad magic (not a WAL file)".into());
    }
    let gen = r.u64().map_err(|e| format!("header: {e}"))?;
    let base_rows = r.u64().map_err(|e| format!("header: {e}"))?;
    let schema = codec::read_schema(&mut r).map_err(|e| format!("header: {e}"))?;
    let header_end = r.pos();
    let stored_crc = r.u32().map_err(|e| format!("header: {e}"))?;
    if stored_crc != codec::crc32(&bytes[..header_end]) {
        return Err("header checksum mismatch".into());
    }
    let header_end = r.pos();

    let mut records = Vec::new();
    let mut tail_error = None;
    let scanned_to = loop {
        let record_start = r.pos();
        if r.remaining() == 0 {
            break record_start;
        }
        let frame = (|| -> Result<(WalRecord, usize), String> {
            let mut r2 = Reader::new(bytes);
            let _ = r2.take(record_start).unwrap();
            let len = r2.u32()?;
            if len > MAX_RECORD_LEN {
                return Err(format!("record length {len} exceeds limit"));
            }
            let crc = r2.u32()?;
            let payload = r2.take(len as usize)?;
            if codec::crc32(payload) != crc {
                return Err("record checksum mismatch".into());
            }
            Ok((decode_payload(payload)?, r2.pos()))
        })();
        match frame {
            Ok((rec, end)) => {
                let _ = r.take(end - record_start).unwrap();
                records.push((rec, end));
            }
            Err(e) => {
                tail_error = Some(format!("at byte {record_start}: {e}"));
                break record_start;
            }
        }
    };

    Ok(WalFile {
        gen,
        base_rows,
        schema,
        header_end,
        records,
        file_len: bytes.len(),
        scanned_to,
        tail_error,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttrType;

    fn schema() -> Schema {
        let mut s = Schema::new();
        s.relation("R", &[("x", AttrType::Int), ("s", AttrType::Str)]);
        s
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Insert {
                rel: RelId(0),
                values: vec![Value::Int(-7), Value::str("hello\tworld")],
            },
            WalRecord::Delete {
                tid: TupleId::new(RelId(0), 3),
            },
            WalRecord::Restore {
                tid: TupleId::new(RelId(0), 3),
            },
            WalRecord::Commit { epoch: 42 },
            WalRecord::Apply {
                epoch: 43,
                semantics: 3,
                deleted: vec![TupleId::new(RelId(0), 1), TupleId::new(RelId(0), 9)],
            },
            WalRecord::Undo { epoch: 44 },
        ]
    }

    #[test]
    fn forged_counts_are_rejected_without_huge_reservations() {
        // An Apply claiming u32::MAX deleted tuples, and an Insert claiming
        // u16::MAX values, each with no elements behind the count.
        let mut apply = vec![4];
        codec::put_u64(&mut apply, 1);
        apply.push(0);
        codec::put_u32(&mut apply, u32::MAX);
        let mut insert = vec![0];
        codec::put_u16(&mut insert, 0);
        codec::put_u16(&mut insert, u16::MAX);
        for payload in [apply, insert] {
            assert!(decode_payload(&payload).is_err());
            // Framed with a valid checksum, the record still ends the scan.
            let mut file = encode_header(0, 0, &schema());
            codec::put_u32(&mut file, payload.len() as u32);
            codec::put_u32(&mut file, codec::crc32(&payload));
            file.extend_from_slice(&payload);
            let parsed = parse(&file).unwrap();
            assert!(parsed.records.is_empty());
            assert!(parsed.tail_error.is_some());
        }
    }

    #[test]
    fn records_round_trip_through_framing() {
        let recs = sample_records();
        let mut file = encode_header(5, 13, &schema());
        file.extend_from_slice(&frame_records(&recs));
        let parsed = parse(&file).unwrap();
        assert_eq!(parsed.gen, 5);
        assert_eq!(parsed.base_rows, 13);
        assert_eq!(parsed.schema, schema());
        let back: Vec<WalRecord> = parsed.records.into_iter().map(|(r, _)| r).collect();
        assert_eq!(back, recs);
        assert_eq!(parsed.scanned_to, file.len());
        assert!(parsed.tail_error.is_none());
    }

    #[test]
    fn torn_tail_stops_the_scan_at_the_last_whole_record() {
        let recs = sample_records();
        let mut file = encode_header(0, 0, &schema());
        file.extend_from_slice(&frame_records(&recs));
        let clean_len = file.len();
        // Half a record of garbage at the end.
        file.extend_from_slice(&[0x22; 5]);
        let parsed = parse(&file).unwrap();
        assert_eq!(parsed.records.len(), recs.len());
        assert_eq!(parsed.scanned_to, clean_len);
        assert!(parsed.tail_error.is_some());
    }

    #[test]
    fn flipped_record_byte_fails_its_checksum_only() {
        let recs = sample_records();
        let header = encode_header(0, 0, &schema());
        let mut file = header.clone();
        file.extend_from_slice(&frame_records(&recs));
        // Flip one byte inside the *first* record's payload.
        file[header.len() + 9] ^= 0x01;
        let parsed = parse(&file).unwrap();
        assert!(parsed.records.is_empty());
        assert_eq!(parsed.scanned_to, header.len());
        assert!(parsed.tail_error.unwrap().contains("checksum"));
    }

    #[test]
    fn flipped_header_byte_fails_the_whole_file() {
        let mut file = encode_header(1, 0, &schema());
        file.extend_from_slice(&frame_records(&sample_records()));
        file[10] ^= 0x40;
        assert!(parse(&file).is_err());
        assert!(parse(b"short").is_err());
        assert!(parse(b"DRSNAP01not a wal").is_err());
    }

    #[test]
    fn insane_record_length_is_corruption_not_an_allocation() {
        let mut file = encode_header(0, 0, &schema());
        codec::put_u32(&mut file, u32::MAX);
        codec::put_u32(&mut file, 0);
        let parsed = parse(&file).unwrap();
        assert!(parsed.tail_error.unwrap().contains("length"));
    }
}
