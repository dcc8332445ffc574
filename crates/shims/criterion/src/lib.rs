//! Offline stand-in for the `criterion` benchmark harness (the API subset
//! used by `crates/bench/benches`). See `crates/shims/README.md`.
//!
//! Measurement model: each benchmark warms up for `warm_up_time`, then runs
//! timed iterations until `measurement_time` has elapsed *and* at least
//! `sample_size` iterations have been taken, then reports the mean. One
//! line per benchmark goes to stdout.

use std::fmt::Display;
use std::time::{Duration, Instant};

/// The shim's measurement policy behind [`Bencher::iter`]: warm up for
/// `warm_up`, then time iterations until `measurement` has elapsed *and*
/// at least `min_iters` iterations ran; returns `(mean_ns, iterations)`.
fn measure_mean_ns(
    warm_up: Duration,
    measurement: Duration,
    min_iters: u64,
    mut f: impl FnMut(),
) -> (f64, u64) {
    let t0 = Instant::now();
    loop {
        f();
        if t0.elapsed() >= warm_up {
            break;
        }
    }
    let mut iters: u64 = 0;
    let start = Instant::now();
    loop {
        f();
        iters += 1;
        if start.elapsed() >= measurement && iters >= min_iters {
            break;
        }
    }
    (start.elapsed().as_nanos() as f64 / iters as f64, iters)
}

/// Benchmark identifier: `function_id/parameter`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `BenchmarkId::new("sort", 1024)` → `sort/1024`.
    pub fn new<S: Into<String>, P: Display>(function_id: S, parameter: P) -> BenchmarkId {
        BenchmarkId {
            id: format!("{}/{}", function_id.into(), parameter),
        }
    }

    /// Bare parameter id.
    pub fn from_parameter<P: Display>(parameter: P) -> BenchmarkId {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> BenchmarkId {
        BenchmarkId { id: s.to_owned() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> BenchmarkId {
        BenchmarkId { id: s }
    }
}

/// Times one closure; populated by [`Bencher::iter`].
pub struct Bencher {
    warm_up: Duration,
    measurement: Duration,
    sample_size: usize,
    mean_ns: f64,
    iters: u64,
}

impl Bencher {
    /// Run `f` repeatedly and record the mean wall-clock time.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let (mean_ns, iters) = measure_mean_ns(
            self.warm_up,
            self.measurement,
            self.sample_size as u64,
            || {
                std::hint::black_box(f());
            },
        );
        self.mean_ns = mean_ns;
        self.iters = iters;
    }
}

/// A named group of benchmarks sharing measurement settings.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
    warm_up: Duration,
    measurement: Duration,
}

impl BenchmarkGroup<'_> {
    /// Minimum number of measured iterations.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n;
        self
    }

    /// Warm-up duration before measuring.
    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.warm_up = d;
        self
    }

    /// Target measurement duration.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement = d;
        self
    }

    /// Run one benchmark (skipped entirely — no warm-up, no measurement —
    /// when a CLI filter excludes it, like real criterion).
    pub fn bench_function<I: Into<BenchmarkId>, F: FnMut(&mut Bencher)>(
        &mut self,
        id: I,
        mut f: F,
    ) -> &mut Self {
        let id = id.into();
        let full = format!("{}/{}", self.name, id.id);
        if !self.criterion.selected(&full) {
            return self;
        }
        let mut b = Bencher {
            warm_up: self.warm_up,
            measurement: self.measurement,
            sample_size: self.sample_size,
            mean_ns: 0.0,
            iters: 0,
        };
        f(&mut b);
        self.criterion.report(&full, b.mean_ns, b.iters);
        self
    }

    /// Run one benchmark parameterized by `input`.
    pub fn bench_with_input<I, In: ?Sized, F>(&mut self, id: I, input: &In, mut f: F) -> &mut Self
    where
        I: Into<BenchmarkId>,
        F: FnMut(&mut Bencher, &In),
    {
        self.bench_function(id, |b| f(b, input))
    }

    /// End the group (flushes nothing; provided for API compatibility).
    pub fn finish(&mut self) {}
}

/// The top-level harness handle.
#[derive(Default)]
pub struct Criterion {
    filter: Option<String>,
}

impl Criterion {
    /// Used by `criterion_main!` to forward a CLI substring filter.
    pub fn with_filter(mut self, filter: Option<String>) -> Criterion {
        self.filter = filter;
        self
    }

    /// Open a benchmark group.
    pub fn benchmark_group<S: Into<String>>(&mut self, name: S) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            criterion: self,
            sample_size: 10,
            warm_up: Duration::from_millis(300),
            measurement: Duration::from_millis(1000),
        }
    }

    /// Ungrouped benchmark.
    pub fn bench_function<I: Into<BenchmarkId>, F: FnMut(&mut Bencher)>(
        &mut self,
        id: I,
        f: F,
    ) -> &mut Self {
        self.benchmark_group("default").bench_function(id, f);
        self
    }

    /// Does the CLI filter (if any) select this benchmark?
    fn selected(&self, full: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| full.contains(f))
    }

    fn report(&self, full: &str, mean_ns: f64, iters: u64) {
        let pretty = if mean_ns >= 1e9 {
            format!("{:.3} s", mean_ns / 1e9)
        } else if mean_ns >= 1e6 {
            format!("{:.3} ms", mean_ns / 1e6)
        } else if mean_ns >= 1e3 {
            format!("{:.3} µs", mean_ns / 1e3)
        } else {
            format!("{mean_ns:.0} ns")
        };
        println!("{full:<60} time: {pretty:>12}   ({iters} iterations)");
    }
}

/// `black_box` re-export for benches that import it from criterion.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Collect benchmark functions into a runner, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name(c: &mut $crate::Criterion) {
            $($target(c);)+
        }
    };
}

/// Entry point: runs every group, honoring an optional substring filter as
/// the first non-flag CLI argument (like `cargo bench -- <filter>`).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let filter = std::env::args()
                .skip(1)
                .find(|a| !a.starts_with('-'));
            let mut c = $crate::Criterion::default().with_filter(filter);
            $($group(&mut c);)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_measures_something() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("shim");
        g.sample_size(5)
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(5));
        let mut ran = 0u64;
        g.bench_function("counting", |b| {
            b.iter(|| {
                ran += 1;
                ran
            })
        });
        g.finish();
        assert!(ran >= 5, "at least sample_size iterations must run");
    }

    #[test]
    fn measure_mean_ns_runs_at_least_min_iters() {
        let mut n = 0u64;
        let (mean, iters) =
            measure_mean_ns(Duration::ZERO, Duration::ZERO, 5, || n = n.wrapping_add(1));
        assert!(iters >= 5);
        assert!(mean >= 0.0);
        assert!(n >= 5);
    }

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::new("f", 12).id, "f/12");
        assert_eq!(BenchmarkId::from_parameter("p").id, "p");
        assert_eq!(BenchmarkId::from("raw").id, "raw");
    }
}
