//! Offline shim of `criterion` 0.5.
//!
//! The build environment has no access to crates.io, so the workspace ships
//! minimal local stand-ins for its external dependencies (see
//! `shims/README.md`). This harness keeps the `criterion` API surface the
//! benches use — groups, `bench_function`, `bench_with_input`, `iter`,
//! `iter_batched`, `criterion_group!`/`criterion_main!` — and reports the
//! median wall-clock time per iteration over a handful of samples. No
//! statistics, plots or baselines; coarse relative numbers only.

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Top-level benchmark driver.
#[derive(Debug, Clone)]
pub struct Criterion {
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 10,
            warm_up_time: Duration::from_millis(200),
            measurement_time: Duration::from_millis(800),
        }
    }
}

impl Criterion {
    /// Sets the number of measured samples.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    /// Sets the warm-up budget.
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up_time = d;
        self
    }

    /// Sets the measurement budget.
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement_time = d;
        self
    }

    /// No-op kept for API compatibility.
    pub fn configure_from_args(self) -> Self {
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup { criterion: self, name: name.into() }
    }

    /// Runs a single named benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        let report = run_bench(self, &mut f);
        println!("{name:<50} {report}");
        self
    }
}

/// A named collection of benchmarks sharing the parent configuration.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Runs a benchmark identified by `id` with a borrowed input.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let report = run_bench(self.criterion, &mut |b: &mut Bencher| f(b, input));
        println!("{:<50} {report}", format!("{}/{id}", self.name));
        self
    }

    /// Runs a named benchmark inside the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Display,
        mut f: F,
    ) -> &mut Self {
        let report = run_bench(self.criterion, &mut |b: &mut Bencher| f(b));
        println!("{:<50} {report}", format!("{}/{id}", self.name));
        self
    }

    /// Closes the group (printing is immediate, so this is a no-op).
    pub fn finish(self) {}
}

/// Identifier of one benchmark within a group: a function name plus a
/// parameter rendering.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    function: String,
    parameter: String,
}

impl BenchmarkId {
    /// An id from a function name and a displayed parameter.
    pub fn new(function: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId { function: function.into(), parameter: parameter.to_string() }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.function, self.parameter)
    }
}

/// Batch sizing hint; accepted and ignored (every batch is one element).
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    /// Small per-iteration setup output.
    SmallInput,
    /// Large per-iteration setup output.
    LargeInput,
    /// One setup per iteration.
    PerIteration,
}

/// Timing handle passed to benchmark closures.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `iters` calls of `routine`.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }

    /// Times `iters` calls of `routine` on fresh outputs of `setup`,
    /// excluding the setup cost and, as upstream does, the drop of the
    /// routine's output from the measurement.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let mut total = Duration::ZERO;
        for _ in 0..self.iters {
            let input = setup();
            let start = Instant::now();
            let output = black_box(routine(input));
            total += start.elapsed();
            drop(output);
        }
        self.elapsed = total;
    }
}

struct SampleReport {
    median_ns: f64,
}

impl Display for SampleReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ns = self.median_ns;
        if ns < 1_000.0 {
            write!(f, "{ns:10.1} ns/iter")
        } else if ns < 1_000_000.0 {
            write!(f, "{:10.2} µs/iter", ns / 1_000.0)
        } else {
            write!(f, "{:10.3} ms/iter", ns / 1_000_000.0)
        }
    }
}

fn run_bench<F: FnMut(&mut Bencher)>(config: &Criterion, f: &mut F) -> SampleReport {
    // Warm-up: run single iterations until the budget is spent, estimating
    // the per-iteration cost as we go.
    let warm_up_start = Instant::now();
    let mut per_iter = Duration::from_nanos(1);
    let mut warm_iters = 0u64;
    while warm_up_start.elapsed() < config.warm_up_time || warm_iters == 0 {
        let mut b = Bencher { iters: 1, elapsed: Duration::ZERO };
        f(&mut b);
        per_iter = b.elapsed.max(Duration::from_nanos(1));
        warm_iters += 1;
        if warm_iters >= 1000 {
            break;
        }
    }

    // Split the measurement budget into `sample_size` samples of as many
    // iterations as fit.
    let budget_per_sample = config.measurement_time / config.sample_size as u32;
    let iters_per_sample =
        (budget_per_sample.as_nanos() / per_iter.as_nanos().max(1)).clamp(1, 1_000_000) as u64;
    let mut samples: Vec<f64> = (0..config.sample_size)
        .map(|_| {
            let mut b = Bencher { iters: iters_per_sample, elapsed: Duration::ZERO };
            f(&mut b);
            b.elapsed.as_nanos() as f64 / iters_per_sample as f64
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    SampleReport { median_ns: samples[samples.len() / 2] }
}

/// Declares a benchmark group function, mirroring `criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        }
    };
}

/// Declares the benchmark `main`, mirroring `criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
