//! Process-wide string interning.
//!
//! All string values in the engine are interned once and referred to by a
//! 4-byte [`Sym`]. Interning makes tuple equality, hashing and join probes on
//! string columns as cheap as on integer columns, which matters because the
//! MAS workload joins on author/organization names.
//!
//! The table leaks the interned strings (via `Box::leak`) so `Sym::as_str`
//! can hand out `&'static str`. The leak is bounded by the number of
//! *distinct* strings ever interned — for the workloads in this repository
//! that is a few hundred thousand short names.
//!
//! **Read path.** `Sym::as_str` sits under [`crate::value::Value`]'s
//! lexicographic ordering, so comparison-heavy denial constraints call it
//! once per comparison; taking the intern mutex there would cost a lock
//! per string comparison, and the table is process-wide, so sessions on
//! other threads would contend for it too. Reads therefore go through a
//! lock-free append-only table: a spine of doubling buckets (bucket `b` holds
//! `64 << b` entries, so 27 buckets cover the full `u32` id space without
//! ever moving an entry), each entry an `AtomicPtr` to a leaked
//! `&'static str` cell. Writers (interning, rare) still serialize on the
//! mutex and publish each entry with `Release` before the `Sym` escapes;
//! readers do two dependent `Acquire` loads and never block.

use crate::hash::FxHashMap;
use std::fmt;
use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::{Mutex, OnceLock};

/// An interned string. Cheap to copy, compare and hash.
///
/// Ordering of `Sym` values is *interning order*, not lexicographic; use
/// [`Sym::as_str`] when lexicographic comparison is needed (the engine's
/// [`crate::value::Value`] ordering does this).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(u32);

/// Capacity of bucket 0; bucket `b` holds `FIRST_BUCKET << b` entries.
const FIRST_BUCKET: usize = 64;
/// `64 * (2^27 - 1) > u32::MAX`: 27 buckets cover every possible id.
const NUM_BUCKETS: usize = 27;

/// Bucket spine of the lock-free read table. A bucket, once allocated, is a
/// leaked slice of `AtomicPtr<&'static str>` cells and never moves.
struct ReadTable {
    buckets: [AtomicPtr<AtomicPtr<&'static str>>; NUM_BUCKETS],
}

/// `(bucket, offset, bucket_len)` of entry `id`.
#[inline]
fn locate(id: u32) -> (usize, usize, usize) {
    let v = id as usize / FIRST_BUCKET + 1;
    let b = (usize::BITS - 1 - v.leading_zeros()) as usize;
    let start = FIRST_BUCKET * ((1 << b) - 1);
    (b, id as usize - start, FIRST_BUCKET << b)
}

impl ReadTable {
    fn new() -> ReadTable {
        ReadTable {
            buckets: std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())),
        }
    }

    /// Publish `s` as entry `id`. Called only under the intern mutex (one
    /// writer at a time), *before* the `Sym` is returned to any caller.
    fn publish(&self, id: u32, s: &'static str) {
        let (b, off, len) = locate(id);
        let mut bucket = self.buckets[b].load(Ordering::Acquire);
        if bucket.is_null() {
            let fresh: Box<[AtomicPtr<&'static str>]> = (0..len)
                .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                .collect();
            bucket = Box::leak(fresh).as_mut_ptr();
            self.buckets[b].store(bucket, Ordering::Release);
        }
        let cell_value = Box::into_raw(Box::new(s));
        // SAFETY: `off < len` by `locate`, and the bucket is a live leaked
        // slice of `len` cells.
        unsafe { (*bucket.add(off)).store(cell_value, Ordering::Release) };
    }

    /// Read entry `id`. Sound only for ids previously returned by
    /// [`Sym::new`]: the `Release` stores in `publish` happen-before the
    /// `Sym` ever escapes the interner.
    #[inline]
    fn read(&self, id: u32) -> &'static str {
        let (b, off, _) = locate(id);
        let bucket = self.buckets[b].load(Ordering::Acquire);
        debug_assert!(!bucket.is_null(), "read of unpublished Sym");
        // SAFETY: the bucket and the cell were published with `Release`
        // before this id existed as a `Sym`; the cell pointer is non-null
        // and points at a leaked `&'static str`.
        unsafe { *(*bucket.add(off)).load(Ordering::Acquire) }
    }
}

struct Table {
    map: FxHashMap<&'static str, u32>,
    len: u32,
}

struct Interner {
    writer: Mutex<Table>,
    reader: ReadTable,
}

fn interner() -> &'static Interner {
    static INTERNER: OnceLock<Interner> = OnceLock::new();
    INTERNER.get_or_init(|| Interner {
        writer: Mutex::new(Table {
            map: FxHashMap::default(),
            len: 0,
        }),
        reader: ReadTable::new(),
    })
}

impl Sym {
    /// Intern `s`, returning its symbol. Idempotent.
    pub fn new(s: &str) -> Sym {
        let it = interner();
        let mut t = it.writer.lock().expect("interner poisoned");
        if let Some(&id) = t.map.get(s) {
            return Sym(id);
        }
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let id = t.len;
        t.len = id.checked_add(1).expect("interner overflow");
        it.reader.publish(id, leaked);
        t.map.insert(leaked, id);
        Sym(id)
    }

    /// The interned string. Lock-free: a `Sym` only exists after its entry
    /// was published, so this never observes a missing slot.
    #[inline]
    pub fn as_str(self) -> &'static str {
        interner().reader.read(self.0)
    }

    /// The raw symbol id (stable within one process run).
    pub fn id(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sym({:?})", self.as_str())
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Sym {
    fn from(s: &str) -> Sym {
        Sym::new(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Sym::new("hello");
        let b = Sym::new("hello");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "hello");
    }

    #[test]
    fn distinct_strings_get_distinct_symbols() {
        let a = Sym::new("alpha-x");
        let b = Sym::new("beta-x");
        assert_ne!(a, b);
        assert_eq!(a.as_str(), "alpha-x");
        assert_eq!(b.as_str(), "beta-x");
    }

    #[test]
    fn display_round_trips() {
        let s = Sym::new("ERC");
        assert_eq!(s.to_string(), "ERC");
    }

    #[test]
    fn empty_string_interns() {
        let s = Sym::new("");
        assert_eq!(s.as_str(), "");
    }

    #[test]
    fn locate_covers_bucket_boundaries() {
        assert_eq!(locate(0), (0, 0, 64));
        assert_eq!(locate(63), (0, 63, 64));
        assert_eq!(locate(64), (1, 0, 128));
        assert_eq!(locate(191), (1, 127, 128));
        assert_eq!(locate(192), (2, 0, 256));
        let (b, off, len) = locate(u32::MAX);
        assert!(b < NUM_BUCKETS);
        assert!(off < len);
    }

    #[test]
    fn reads_cross_bucket_boundaries() {
        // Intern enough distinct strings to spill into later buckets; every
        // id must read back its own string.
        let syms: Vec<(Sym, String)> = (0..500)
            .map(|i| {
                let s = format!("bucket-spill-{i}");
                (Sym::new(&s), s)
            })
            .collect();
        for (sym, s) in &syms {
            assert_eq!(sym.as_str(), s);
        }
    }

    #[test]
    fn concurrent_reads_and_interns() {
        let base: Vec<Sym> = (0..64).map(|i| Sym::new(&format!("conc-{i}"))).collect();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let base = &base;
                scope.spawn(move || {
                    for round in 0..200 {
                        for (i, s) in base.iter().enumerate() {
                            assert_eq!(s.as_str(), format!("conc-{i}"));
                        }
                        let fresh = Sym::new(&format!("conc-new-{t}-{round}"));
                        assert_eq!(fresh.as_str(), format!("conc-new-{t}-{round}"));
                    }
                });
            }
        });
    }
}
