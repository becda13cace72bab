//! Offline stand-in for the `criterion` crate (see the note in
//! `shims/parking_lot`). Keeps the `criterion_group!`/`criterion_main!`
//! bench-target structure compiling and useful without registry access:
//!
//! - under `cargo bench` (cargo passes `--bench`) each benchmark is
//!   calibrated and timed, reporting mean wall-clock time per iteration —
//!   no statistical analysis, plots or saved baselines;
//! - under `cargo test` (no `--bench` flag) each benchmark body runs
//!   exactly once as a smoke test, so broken benches fail the suite fast;
//! - `--test` picks that one-shot smoke run even under `cargo bench`, as
//!   with real criterion: `cargo bench --bench foo -- --test` runs each
//!   body once and prints no timing;
//! - like real criterion, a positional argument is a substring filter:
//!   `cargo bench --bench foo -- some_group` runs only the benchmarks
//!   whose full label contains `some_group`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Display;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// How batched inputs are grouped; accepted for API compatibility, the
/// shim times every invocation individually.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Medium per-iteration inputs.
    MediumInput,
    /// Large per-iteration inputs.
    LargeInput,
}

/// Identifier for one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// An id from a function name and a parameter value.
    pub fn new(function: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            label: format!("{}/{}", function.into(), parameter),
        }
    }

    /// An id from a parameter value alone.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            label: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(label: &str) -> Self {
        BenchmarkId {
            label: label.to_owned(),
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(label: String) -> Self {
        BenchmarkId { label }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// `cargo test`, or `--test`: run each body once, no timing.
    Smoke,
    /// `cargo bench`: calibrate and measure.
    Measure,
}

/// The benchmark harness entry point, passed to every target function.
#[derive(Debug)]
pub struct Criterion {
    mode: Mode,
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion::from_args(std::env::args().skip(1))
    }
}

impl Criterion {
    /// The harness for these command-line arguments (program name
    /// excluded): measuring under `--bench` unless `--test` is also
    /// given, and the first positional argument as the filter.
    fn from_args(args: impl IntoIterator<Item = String>) -> Self {
        let mut bench = false;
        let mut test = false;
        let mut filter = None;
        for arg in args {
            if arg == "--bench" {
                bench = true;
            } else if arg == "--test" {
                test = true;
            } else if !arg.starts_with('-') && filter.is_none() {
                filter = Some(arg);
            }
        }
        Criterion {
            mode: if bench && !test {
                Mode::Measure
            } else {
                Mode::Smoke
            },
            filter,
        }
    }

    /// Runs a standalone benchmark.
    pub fn bench_function(&mut self, name: &str, f: impl FnMut(&mut Bencher)) -> &mut Self {
        run_one(self.mode, self.filter.as_deref(), name, f);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            mode: self.mode,
            criterion: self,
        }
    }
}

/// A group of related benchmarks sharing a name prefix.
pub struct BenchmarkGroup<'a> {
    name: String,
    mode: Mode,
    criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Accepted for API compatibility; the shim sizes its own sampling.
    pub fn sample_size(&mut self, _samples: usize) -> &mut Self {
        self
    }

    /// Accepted for API compatibility; the shim sizes its own sampling.
    pub fn measurement_time(&mut self, _time: Duration) -> &mut Self {
        self
    }

    /// Runs a benchmark in this group.
    pub fn bench_function(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let id = id.into();
        run_one(
            self.mode,
            self.criterion.filter.as_deref(),
            &format!("{}/{}", self.name, id.label),
            f,
        );
        self
    }

    /// Runs a benchmark parameterized by `input`.
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        run_one(
            self.mode,
            self.criterion.filter.as_deref(),
            &format!("{}/{}", self.name, id.label),
            |b| f(b, input),
        );
        self
    }

    /// Closes the group.
    pub fn finish(self) {}
}

fn run_one(mode: Mode, filter: Option<&str>, label: &str, mut f: impl FnMut(&mut Bencher)) {
    if let Some(filter) = filter {
        if !label.contains(filter) {
            return;
        }
    }
    let mut bencher = Bencher {
        mode,
        mean_ns: None,
    };
    f(&mut bencher);
    if mode == Mode::Measure {
        match bencher.mean_ns {
            Some(mean) => println!("{label:<50} time: [{}]", format_ns(mean)),
            None => println!("{label:<50} (no measurement recorded)"),
        }
    }
}

fn format_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.2} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.3} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.3} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

/// Total wall-clock budget spent measuring one benchmark.
const MEASURE_BUDGET: Duration = Duration::from_millis(250);

/// Runs the benchmark body handed to it; records the mean iteration
/// time when measuring.
#[derive(Debug)]
pub struct Bencher {
    mode: Mode,
    mean_ns: Option<f64>,
}

impl Bencher {
    /// Times `routine`, whole-call.
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        if self.mode == Mode::Smoke {
            black_box(routine());
            return;
        }
        // Geometric ramp-up doubles the batch until the time budget is
        // spent, so per-iteration costs from ~1 ns to ~1 s all get a
        // usable estimate.
        let mut batch = 1u64;
        let mut total_iters = 0u64;
        let mut total_time = Duration::ZERO;
        while total_time < MEASURE_BUDGET {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            total_time += start.elapsed();
            total_iters += batch;
            batch = batch.saturating_mul(2);
        }
        self.mean_ns = Some(total_time.as_nanos() as f64 / total_iters as f64);
    }

    /// Times `routine` per call, excluding `setup`.
    pub fn iter_batched<I, O>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> O,
        _size: BatchSize,
    ) {
        if self.mode == Mode::Smoke {
            black_box(routine(setup()));
            return;
        }
        let mut total_iters = 0u64;
        let mut total_time = Duration::ZERO;
        while total_time < MEASURE_BUDGET {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            total_time += start.elapsed();
            total_iters += 1;
        }
        self.mean_ns = Some(total_time.as_nanos() as f64 / total_iters as f64);
    }
}

/// Bundles target functions into a named group runner.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Emits `main()` running each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_mode_records_a_positive_mean() {
        let mut bencher = Bencher {
            mode: Mode::Measure,
            mean_ns: None,
        };
        bencher.iter(|| std::hint::black_box(3u64).wrapping_mul(7));
        assert!(bencher.mean_ns.unwrap() > 0.0);
    }

    #[test]
    fn smoke_mode_runs_once_without_measuring() {
        let mut calls = 0;
        let mut bencher = Bencher {
            mode: Mode::Smoke,
            mean_ns: None,
        };
        bencher.iter(|| calls += 1);
        assert_eq!(calls, 1);
        assert!(bencher.mean_ns.is_none());
    }

    #[test]
    fn test_flag_wins_over_bench() {
        let args = |a: &[&str]| Criterion::from_args(a.iter().map(|s| s.to_string()));
        assert_eq!(args(&["--bench"]).mode, Mode::Measure);
        assert_eq!(args(&["--bench", "--test"]).mode, Mode::Smoke);
        assert_eq!(args(&[]).mode, Mode::Smoke);
        assert_eq!(args(&["--bench", "live"]).filter.as_deref(), Some("live"));
    }

    #[test]
    fn filter_skips_non_matching_labels() {
        let mut calls = 0;
        run_one(Mode::Smoke, Some("fanout"), "fig2_grid/pool/64", |b| {
            b.iter(|| calls += 1)
        });
        assert_eq!(calls, 0);
        run_one(Mode::Smoke, Some("grid"), "fig2_grid/pool/64", |b| {
            b.iter(|| calls += 1)
        });
        assert_eq!(calls, 1);
        run_one(Mode::Smoke, None, "fig2_grid/pool/64", |b| {
            b.iter(|| calls += 1)
        });
        assert_eq!(calls, 2);
    }

    #[test]
    fn format_ns_picks_sensible_units() {
        assert_eq!(format_ns(12.5), "12.50 ns");
        assert_eq!(format_ns(12_500.0), "12.500 µs");
        assert_eq!(format_ns(12_500_000.0), "12.500 ms");
    }
}
