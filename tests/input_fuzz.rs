//! Never-panic fuzzing of every byte-level input: the two text inputs, the
//! delta-program parser ([`parse_program`]) and the typed TSV loader
//! ([`delta_repairs::storage::tsv::load_document`]), and the two binary
//! ones, the snapshot decoder ([`snapshot::decode`]) and the WAL parser
//! ([`wal::parse`]), alone and behind a durable open.
//!
//! A text input is either an arbitrary string assembled from syntax
//! fragments and multibyte characters, or a byte-level mutation of a
//! shipped example (`examples/programs/*.dl`, `figure1.tsv`) decoded
//! lossily. A binary input is a byte-level mutation of a real store's
//! snapshot or WAL, re-sealed by recomputing the checksum over the mutated
//! bytes (the file CRC of a snapshot; the header CRC, or one record's CRC
//! and length, of a WAL), so that mutations reach the decoders and WAL
//! replay instead of stopping at the checksum. Every call must return `Ok`
//! or a typed error with a message; a panic (for instance slicing a string
//! off a character boundary) fails the property.

use delta_repairs::storage::disk::codec::crc32;
use delta_repairs::storage::disk::{snapshot, wal};
use delta_repairs::storage::tsv::{load_document, to_tsv_typed};
use delta_repairs::storage::{DiskOptions, FsyncPolicy, MemIo};
use delta_repairs::testkit::{figure1_instance, figure2_program};
use delta_repairs::{parse_program, RepairSession, Semantics, Value};
use proptest::prelude::*;
use proptest::{strategy_fn, TestRng};
use std::path::Path;
use std::sync::{Arc, OnceLock};

/// Pieces arbitrary inputs are assembled from: the tokens of both
/// grammars, whitespace and line breaks, and multibyte characters of every
/// UTF-8 width (2, 3 and 4 bytes), so quotes, comments and cell boundaries
/// land next to non-ASCII text.
const FRAGMENTS: &[&str] = &[
    "delta",
    " ",
    "~",
    "R",
    "Grant",
    "x",
    "_",
    "(",
    ")",
    ",",
    ".",
    ":-",
    ":",
    "-",
    "=",
    "!=",
    "<>",
    "<",
    "<=",
    ">",
    ">=",
    "'",
    "\"",
    "#",
    "%",
    "//",
    "\n",
    "\r\n",
    "\t",
    "0",
    "42",
    "-7",
    "9223372036854775808",
    "ü",
    "Zürich",
    "∆",
    "é",
    "Ω",
    "😀",
    "\u{0}",
    "\u{feff}",
    "# relation ",
    "Grant(gid: int, name: string)",
    "R(a: int)",
    "(a: str, b: int)",
    ": ",
    "int",
    "str",
    "string",
    "float",
];

/// An arbitrary string of up to 40 fragments.
fn arb_text() -> impl Strategy<Value = String> {
    let picks = prop::collection::vec(0usize..FRAGMENTS.len(), 0..40);
    strategy_fn(move |rng: &mut TestRng| {
        picks
            .generate(rng)
            .into_iter()
            .map(|i| FRAGMENTS[i])
            .collect()
    })
}

/// The shipped example inputs the mutations start from.
fn seeds() -> Vec<Vec<u8>> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/programs");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("examples/programs exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "dl" || x == "tsv"))
        .collect();
    paths.sort();
    assert!(
        paths.len() >= 5,
        "expected the example programs and figure1.tsv"
    );
    paths
        .iter()
        .map(|p| std::fs::read(p).expect("readable example"))
        .collect()
}

/// Apply `edits` byte mutations to `bytes`: overwrite, insert or delete a
/// byte, or insert the UTF-8 encoding of a multibyte character (which the
/// next mutation may cut in half).
fn edit(bytes: &mut Vec<u8>, edits: &[(u8, u64, u8)]) {
    for &(kind, at, byte) in edits {
        let at = if bytes.is_empty() {
            0
        } else {
            (at % bytes.len() as u64) as usize
        };
        match kind % 4 {
            0 if !bytes.is_empty() => bytes[at] = byte,
            1 => bytes.insert(at, byte),
            2 if !bytes.is_empty() => {
                bytes.remove(at);
            }
            _ => {
                let ch = ["ü", "∆", "😀"][byte as usize % 3];
                bytes.splice(at..at, ch.bytes());
            }
        }
    }
}

/// [`edit`] a text seed, then decode it lossily.
fn mutate(mut bytes: Vec<u8>, edits: &[(u8, u64, u8)]) -> String {
    edit(&mut bytes, edits);
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Feed `text` to both loaders. Either may reject it, but only with a
/// typed error that renders a message.
fn check_both(text: &str) {
    if let Err(e) = parse_program(text) {
        prop_assert!(!e.to_string().is_empty(), "empty parser error for {text:?}");
    }
    if let Err(e) = load_document(text) {
        prop_assert!(!e.to_string().is_empty(), "empty loader error for {text:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_text_never_panics(text in arb_text()) {
        check_both(&text);
    }

    #[test]
    fn mutated_examples_never_panic(
        seed in 0usize..64,
        edits in prop::collection::vec((0u8..4, 0u64..4096, 0u8..=255), 1..12),
    ) {
        let seeds = seeds();
        let text = mutate(seeds[seed % seeds.len()].clone(), &edits);
        check_both(&text);
    }
}

/// Where the fuzzed store lives inside its [`MemIo`].
const STORE: &str = "/fuzz-store";

/// The store's files: two generations, each a snapshot and a WAL.
const STORE_FILES: [&str; 4] = ["snap-0.drs", "wal-0.drw", "snap-1.drs", "wal-1.drw"];

fn store_opts(io: Arc<MemIo>) -> DiskOptions {
    DiskOptions {
        fsync: FsyncPolicy::Always,
        io,
        checkpoint_every: 0,
    }
}

/// A durable Figure 1 store whose two WALs hold every record kind: inserts,
/// deletes, restores and the `Commit`, `Apply` and `Undo` marks. Both
/// snapshots carry an undo history.
fn pristine_store() -> Arc<MemIo> {
    let mem = Arc::new(MemIo::new());
    let mut session = RepairSession::create_durable_with(
        figure1_instance(),
        figure2_program(),
        STORE,
        store_opts(mem.clone()),
    )
    .expect("fresh store");
    session
        .insert_batch("Grant", [[Value::Int(9), Value::str("ERC")]])
        .expect("insert");
    let stage = session.run(Semantics::Stage);
    session.apply(&stage).expect("apply");
    session.checkpoint().expect("checkpoint");
    session
        .insert_batch("Grant", [[Value::Int(10), Value::str("Zürich")]])
        .expect("insert");
    let end = session.run(Semantics::End);
    session.apply(&end).expect("apply");
    session.undo().expect("undo");
    let live = session
        .db()
        .all_tuple_ids()
        .find(|&t| session.db().is_live(t));
    session
        .delete_batch(&live.into_iter().collect::<Vec<_>>())
        .expect("delete");
    mem
}

/// The pristine bytes of [`STORE_FILES`], built once.
fn store_files() -> &'static [Vec<u8>; 4] {
    static FILES: OnceLock<[Vec<u8>; 4]> = OnceLock::new();
    FILES.get_or_init(|| {
        let mem = pristine_store();
        STORE_FILES.map(|name| {
            mem.contents(&Path::new(STORE).join(name))
                .unwrap_or_else(|| panic!("{name} was written"))
        })
    })
}

/// `edits` to a snapshot's body, re-sealed with a fresh file CRC.
fn resealed_snapshot(file: &[u8], edits: &[(u8, u64, u8)]) -> Vec<u8> {
    let mut body = file[..file.len() - 4].to_vec();
    edit(&mut body, edits);
    let crc = crc32(&body);
    body.extend_from_slice(&crc.to_le_bytes());
    body
}

/// `edits` to one section of a WAL, the header (`section` 0) or a record's
/// payload, re-sealed: the header gets a fresh CRC, the record a fresh
/// length and CRC. Sections are counted modulo their number.
fn resealed_wal(file: &[u8], section: usize, edits: &[(u8, u64, u8)]) -> Vec<u8> {
    let parsed = wal::parse(file).expect("pristine WAL parses");
    let mut header = file[..parsed.header_end - 4].to_vec();
    let mut start = parsed.header_end;
    let mut payloads: Vec<Vec<u8>> = parsed
        .records
        .iter()
        .map(|&(_, end)| {
            let payload = file[start + 8..end].to_vec();
            start = end;
            payload
        })
        .collect();
    match section % (payloads.len() + 1) {
        0 => edit(&mut header, edits),
        k => edit(&mut payloads[k - 1], edits),
    }
    let crc = crc32(&header);
    let mut out = header;
    out.extend_from_slice(&crc.to_le_bytes());
    for payload in payloads {
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
    }
    out
}

/// [`STORE_FILES`]`[file]` mutated and re-sealed for its format.
fn resealed(file: usize, section: usize, edits: &[(u8, u64, u8)]) -> Vec<u8> {
    let bytes = &store_files()[file];
    if STORE_FILES[file].starts_with("snap") {
        resealed_snapshot(bytes, edits)
    } else {
        resealed_wal(bytes, section, edits)
    }
}

fn arb_edits() -> impl Strategy<Value = Vec<(u8, u64, u8)>> {
    prop::collection::vec((0u8..4, 0u64..1 << 16, 0u8..=255), 1..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn resealed_snapshots_decode_or_fail_typed(gen in 0usize..2, edits in arb_edits()) {
        if let Err(e) = snapshot::decode(&resealed(2 * gen, 0, &edits)) {
            prop_assert!(!e.is_empty(), "empty snapshot error");
        }
    }

    #[test]
    fn resealed_wals_parse_or_fail_typed(
        gen in 0usize..2,
        section in 0usize..64,
        edits in arb_edits(),
    ) {
        if let Err(e) = wal::parse(&resealed(2 * gen + 1, section, &edits)) {
            prop_assert!(!e.is_empty(), "empty WAL error");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One re-sealed file in an otherwise intact store: the open either
    /// fails typed, or yields a session that serves every semantics and
    /// whose undo and checkpoint succeed or fail typed. Recovery reads
    /// generation 0 only when snapshot 1 fails its checksum, so a mutated
    /// generation-0 file comes with a broken snapshot 1.
    #[test]
    fn resealed_stores_open_or_fail_typed(
        file in 0usize..4,
        section in 0usize..64,
        edits in arb_edits(),
    ) {
        let mem = pristine_store();
        let dir = Path::new(STORE);
        if file < 2 {
            let mut snap1 = store_files()[2].clone();
            snap1[0] ^= 0xff;
            mem.corrupt(&dir.join(STORE_FILES[2]), snap1);
        }
        mem.corrupt(&dir.join(STORE_FILES[file]), resealed(file, section, &edits));
        match RepairSession::open_durable_with(STORE, figure2_program(), store_opts(mem)) {
            Ok(mut session) => {
                session.run_all();
                if let Err(e) = session.undo() {
                    prop_assert!(!e.to_string().is_empty(), "empty undo error");
                }
                if let Err(e) = session.checkpoint() {
                    prop_assert!(!e.to_string().is_empty(), "empty checkpoint error");
                }
            }
            Err(e) => prop_assert!(!e.to_string().is_empty(), "empty open error"),
        }
    }
}

/// The pristine store reopens cleanly, so the mutations above start from
/// files the decoders accept.
#[test]
fn pristine_store_reopens_clean() {
    for (name, bytes) in STORE_FILES.iter().zip(store_files()) {
        if name.starts_with("snap") {
            snapshot::decode(bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
        } else {
            let parsed = wal::parse(bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(
                parsed.tail_error.is_none(),
                "{name}: {:?}",
                parsed.tail_error
            );
            assert!(parsed.records.len() >= 3, "{name}: too few records");
        }
    }
    let session =
        RepairSession::open_durable_with(STORE, figure2_program(), store_opts(pristine_store()))
            .expect("pristine store opens");
    let report = session.recovery_report().expect("durable session");
    assert!(!report.degraded(), "{report:?}");
    assert_eq!(report.snapshot_gen, Some(1));
}

/// The unmutated seeds themselves: every program parses (`broken.dl` is
/// broken only for the linter) and `figure1.tsv` loads.
#[test]
fn examples_load_unmutated() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/programs");
    for name in ["broken.dl", "cascade.dl", "figure2.dl", "warnings.dl"] {
        let text = std::fs::read_to_string(format!("{dir}/{name}")).unwrap();
        parse_program(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
    let tsv = std::fs::read_to_string(format!("{dir}/figure1.tsv")).unwrap();
    load_document(&tsv).expect("figure1.tsv loads");
}

/// A leading UTF-8 byte-order mark changes nothing: the program parses to
/// the same rules at the same source positions, the document loads to the
/// same instance.
#[test]
fn a_leading_byte_order_mark_is_ignored() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/programs");
    let text = std::fs::read_to_string(format!("{dir}/figure2.dl")).unwrap();
    let plain = parse_program(&text).unwrap();
    let marked = parse_program(&format!("\u{feff}{text}")).expect("BOM-prefixed program parses");
    assert_eq!(marked, plain);
    assert_eq!(format!("{marked:?}"), format!("{plain:?}"), "spans moved");

    let tsv = std::fs::read_to_string(format!("{dir}/figure1.tsv")).unwrap();
    let plain = load_document(&tsv).unwrap();
    let marked = load_document(&format!("\u{feff}{tsv}")).expect("BOM-prefixed document loads");
    assert_eq!(to_tsv_typed(&marked), to_tsv_typed(&plain));
}
