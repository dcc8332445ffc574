//! Byte-level encoding shared by the WAL and the snapshot: little-endian
//! integers, length-prefixed strings, the schema, and a hand-rolled CRC-32
//! (IEEE 802.3, the `crc32fast`/zlib polynomial — the build is offline, so
//! no external crate).

use crate::schema::{AttrType, RelationSchema, Schema};

/// Slicing-by-8 tables: `CRC_TABLES[0]` is the classic byte-at-a-time
/// table; `CRC_TABLES[j][b]` folds byte `b` sitting `j` positions deep in
/// an 8-byte word, so the hot loop consumes 8 bytes per iteration (cold
/// opens CRC whole snapshots, so this is on the recovery critical path).
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[j - 1][i];
            tables[j][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        j += 1;
    }
    tables
};

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes(chunk[0..4].try_into().unwrap()) ^ c;
        let hi = u32::from_le_bytes(chunk[4..8].try_into().unwrap());
        c = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Bounds-checked sequential reader; every decode error is a `String`
/// detail that the caller wraps into `StorageError::Corrupt`.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    pub fn pos(&self) -> usize {
        self.pos
    }

    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// `n` capped by how many elements of at least `min_size` encoded
    /// bytes the unread input could still hold: a safe `Vec::with_capacity`
    /// argument for a count read from the data itself, which a checksum
    /// does not vouch for.
    pub fn capacity_for(&self, n: usize, min_size: usize) -> usize {
        n.min(self.remaining() / min_size.max(1))
    }

    pub fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.remaining() < n {
            return Err(format!(
                "unexpected end of data at byte {} (wanted {n} more, have {})",
                self.pos,
                self.remaining()
            ));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    pub fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    pub fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn i64(&mut self) -> Result<i64, String> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn str(&mut self) -> Result<&'a str, String> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?).map_err(|e| format!("invalid utf-8 string: {e}"))
    }
}

pub fn put_schema(out: &mut Vec<u8>, schema: &Schema) {
    put_u16(out, schema.len() as u16);
    for (_, rs) in schema.iter() {
        put_str(out, &rs.name);
        put_u16(out, rs.arity() as u16);
        for attr in &rs.attrs {
            put_str(out, &attr.name);
            out.push(match attr.ty {
                AttrType::Int => 0,
                AttrType::Str => 1,
            });
        }
    }
}

pub fn read_schema(r: &mut Reader<'_>) -> Result<Schema, String> {
    let nrels = r.u16()?;
    let mut schema = Schema::new();
    for _ in 0..nrels {
        let name = r.str()?.to_owned();
        let arity = r.u16()?;
        let mut attrs = Vec::with_capacity(arity as usize);
        for _ in 0..arity {
            let aname = r.str()?.to_owned();
            let ty = match r.u8()? {
                0 => AttrType::Int,
                1 => AttrType::Str,
                t => return Err(format!("unknown attribute type tag {t}")),
            };
            attrs.push((aname, ty));
        }
        let pairs: Vec<(&str, AttrType)> = attrs.iter().map(|(n, t)| (n.as_str(), *t)).collect();
        schema
            .add_relation(RelationSchema::new(&name, &pairs))
            .map_err(|e| format!("schema rejects relation `{name}`: {e}"))?;
    }
    Ok(schema)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let mut data = b"length-prefixed wal record payload".to_vec();
        let clean = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc32(&data), clean, "flip at {byte}.{bit} undetected");
                data[byte] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn schema_round_trips() {
        let mut schema = Schema::new();
        schema.relation("Grant", &[("gid", AttrType::Int), ("name", AttrType::Str)]);
        schema.relation(
            "AuthGrant",
            &[("aid", AttrType::Int), ("gid", AttrType::Int)],
        );
        let mut buf = Vec::new();
        put_schema(&mut buf, &schema);
        let back = read_schema(&mut Reader::new(&buf)).unwrap();
        assert_eq!(back, schema);
    }

    #[test]
    fn reader_rejects_truncation() {
        let mut buf = Vec::new();
        put_str(&mut buf, "hello");
        buf.truncate(6);
        assert!(Reader::new(&buf).str().is_err());
    }
}
