//! A [`StorageIo`] over the real filesystem that counts what the durable
//! store does with it.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use storage::{StdIo, StorageIo};

/// Calls, bytes and busy time of one kind of operation. The counters are
/// statistics only, so `Relaxed` suffices.
#[derive(Debug, Default)]
struct OpCounter {
    calls: AtomicU64,
    bytes: AtomicU64,
    ns: AtomicU64,
}

impl OpCounter {
    fn time<T>(
        &self,
        bytes: impl FnOnce(&T) -> u64,
        f: impl FnOnce() -> io::Result<T>,
    ) -> io::Result<T> {
        let t0 = Instant::now();
        let out = f();
        self.ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        if let Ok(v) = &out {
            self.bytes.fetch_add(bytes(v), Ordering::Relaxed);
        }
        out
    }

    fn read(&self) -> OpTotals {
        OpTotals {
            calls: self.calls.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            ns: self.ns.load(Ordering::Relaxed),
        }
    }
}

/// A snapshot of one operation's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpTotals {
    /// Calls made.
    pub calls: u64,
    /// Bytes moved by successful calls.
    pub bytes: u64,
    /// Time spent inside the calls.
    pub ns: u64,
}

impl OpTotals {
    fn minus(self, earlier: OpTotals) -> OpTotals {
        OpTotals {
            calls: self.calls - earlier.calls,
            bytes: self.bytes - earlier.bytes,
            ns: self.ns - earlier.ns,
        }
    }
}

/// A snapshot of every counter of a [`CountingIo`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoTotals {
    /// WAL appends.
    pub append: OpTotals,
    /// Whole-file writes (snapshots, WAL headers).
    pub write: OpTotals,
    /// Whole-file reads (recovery).
    pub read: OpTotals,
    /// Fsyncs.
    pub sync: OpTotals,
}

impl IoTotals {
    /// What happened between `earlier` and `self`.
    pub fn minus(self, earlier: IoTotals) -> IoTotals {
        IoTotals {
            append: self.append.minus(earlier.append),
            write: self.write.minus(earlier.write),
            read: self.read.minus(earlier.read),
            sync: self.sync.minus(earlier.sync),
        }
    }

    /// Time spent in the four counted operations.
    pub fn busy_ns(&self) -> u64 {
        self.append.ns + self.write.ns + self.read.ns + self.sync.ns
    }
}

/// [`StdIo`] with counters on `append`, `write`, `read` and `sync`. The
/// other operations pass through uncounted.
#[derive(Debug, Default)]
pub struct CountingIo {
    inner: StdIo,
    append: OpCounter,
    write: OpCounter,
    read: OpCounter,
    sync: OpCounter,
}

impl CountingIo {
    /// The counters so far.
    pub fn totals(&self) -> IoTotals {
        IoTotals {
            append: self.append.read(),
            write: self.write.read(),
            read: self.read.read(),
            sync: self.sync.read(),
        }
    }
}

impl StorageIo for CountingIo {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.inner.create_dir_all(dir)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.inner.list(dir)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.read
            .time(|v: &Vec<u8>| v.len() as u64, || self.inner.read(path))
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.write
            .time(|_| bytes.len() as u64, || self.inner.write(path, bytes))
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.append
            .time(|_| bytes.len() as u64, || self.inner.append(path, bytes))
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        self.inner.truncate(path, len)
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        self.sync.time(|_| 0, || self.inner.sync(path))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.inner.remove(path)
    }
}
