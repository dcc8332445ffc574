//! Never-panic fuzzing of the two text inputs: the delta-program parser
//! ([`parse_program`]) and the typed TSV loader
//! ([`delta_repairs::storage::tsv::load_document`]).
//!
//! Each input is either an arbitrary string assembled from syntax
//! fragments and multibyte characters, or a byte-level mutation of a
//! shipped example (`examples/programs/*.dl`, `figure1.tsv`) decoded
//! lossily. Every call must return `Ok` or a typed error with a message;
//! a panic (for instance slicing a string off a character boundary) fails
//! the property.

use delta_repairs::parse_program;
use delta_repairs::storage::tsv::load_document;
use proptest::prelude::*;
use proptest::{strategy_fn, TestRng};

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
fn mutate(mut bytes: Vec<u8>, edits: &[(u8, u64, u8)]) -> String {
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
