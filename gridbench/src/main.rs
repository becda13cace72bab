//! Benchmark of the live management grid.
//!
//! ```text
//! gridbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Runs one workload (see [`workload`]) generated from the seed on the
//! real `ManagementGrid`, closed loop: one 60 s poll round per
//! `ManagementGrid::run(60_000, 60_000)` call, the next round only after
//! the previous one is quiescent.
//!
//! * `--trace 0` measures the end-to-end metrics with tracing off. It
//!   builds the grid several times (the median is `setup_s`), then runs
//!   whole passes of the workload until `--seconds` have elapsed (at
//!   least one).
//! * `--trace 1` runs one untraced pass and one pass on the span-recording
//!   [`traced::Traced`] runtime wrapper (always the deterministic
//!   stepper), and reports the per-layer metrics of [`layers`]. The spans
//!   are written to `gridbench/spans/` as CSV.
//!
//! Both modes check the outputs: every planted fault raises its rule's
//! alert on its device, no task is lost or unaccounted, repeated passes
//! agree, and the traced run reports exactly what the untraced run did
//! (on `federated-recovery` that is det==pool parity). One operation is
//! one analysis task the roots created; it failed if it was not completed
//! by the end of its pass. The last line of standard output is one JSON
//! object; the exit code is non-zero if any check failed.

mod heap;
mod layers;
mod stats;
mod traced;
mod workload;

use std::fs::{self, File};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use agentgrid::grid::{GridReport, ManagementGrid};
use agentgrid_acl::ontology::Alert;
use agentgrid_platform::{Platform, PoolRuntime, Runtime};

use crate::traced::{Recorder, Traced};
use crate::workload::{planted_faults, Workload, ROUND_MS};

/// Grid builds timed before each pass; `setup_s` is the median of all.
const SETUP_BUILDS_PER_PASS: usize = 15;

const MIB: f64 = (1 << 20) as f64;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

impl Metric {
    fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.to_owned(),
            value,
            unit,
        }
    }
}

/// What one invocation found.
#[derive(Debug, Default)]
struct Outcome {
    failures: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Outcome {
    /// Counts one pass's operations and runs the output checks on it.
    fn account(&mut self, workload: Workload, seed: u64, report: &GridReport) {
        self.attempted += report.tasks_created;
        self.failed += report.tasks_created.saturating_sub(report.tasks_completed);
        self.failures.extend(check(workload, seed, report));
    }

    fn json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failures.is_empty(),
            self.attempted,
            self.failed,
        )
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                seconds = Some(Duration::from_secs(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The output checks every pass must pass.
fn check(workload: Workload, seed: u64, report: &GridReport) -> Vec<String> {
    let mut failures = Vec::new();
    for fault in planted_faults(workload, seed) {
        let start_ms = fault.start_round * ROUND_MS;
        let detected = report.alerts.iter().any(|a| {
            a.rule == fault.rule && a.device == fault.device && a.timestamp_ms >= start_ms
        });
        if !detected {
            failures.push(format!(
                "planted {} on {} (round {}) raised no {} alert",
                fault.kind, fault.device, fault.start_round, fault.rule
            ));
        }
    }
    if report.unaccounted_tasks() != 0 {
        failures.push(format!(
            "{} tasks unaccounted for",
            report.unaccounted_tasks()
        ));
    }
    let lost = report.lost_tasks();
    if !lost.is_empty() {
        failures.push(format!("{} tasks lost: {:?}", lost.len(), lost));
    }
    failures
}

/// Whether two runs of the same job reported the same thing.
fn same_run(a: &GridReport, b: &GridReport) -> bool {
    a.render() == b.render() && a.assignments == b.assignments && a.completed_ids == b.completed_ids
}

/// The timed rounds of one pass.
struct Pass {
    report: GridReport,
    round_ms: Vec<f64>,
}

impl Pass {
    fn wall_s(&self) -> f64 {
        self.round_ms.iter().sum::<f64>() / 1e3
    }
}

/// Generates the workload's inputs from the seed and builds the grid;
/// returns it with the seconds that took.
fn build<R: Runtime>(workload: Workload, seed: u64) -> (ManagementGrid<R>, f64) {
    let start = Instant::now();
    let grid = workload::builder(workload, seed).build_on::<R>();
    (grid, start.elapsed().as_secs_f64())
}

/// Runs every round of the workload, timing each; with a recorder, each
/// round is also a span.
fn run_pass<R: Runtime>(
    grid: &mut ManagementGrid<R>,
    workload: Workload,
    recorder: Option<&Recorder>,
) -> Pass {
    let mut round_ms = Vec::with_capacity(workload.rounds() as usize);
    let mut report = None;
    for _ in 0..workload.rounds() {
        let span = recorder.map(Recorder::begin_round);
        let start = Instant::now();
        report = Some(grid.run(ROUND_MS, ROUND_MS));
        round_ms.push(start.elapsed().as_secs_f64() * 1e3);
        if let (Some(recorder), Some(span)) = (recorder, span) {
            recorder.end_round(span);
        }
    }
    Pass {
        report: report.expect("every workload runs at least one round"),
        round_ms,
    }
}

/// `--trace 0`: the end-to-end metrics.
///
/// The host this runs on slows down in episodes of a few seconds, by up
/// to half, at times no run controls. Every pass replays identical work
/// (the runs are deterministic), so each round's time is its fastest
/// replay over the timed passes, and set-up builds are spread over the
/// run instead of being taken in one burst.
///
/// `R` runs the untimed reference pass; set-up builds and timed passes
/// run on the deterministic stepper. On `federated-recovery` `R` is the
/// pool runtime: its two threads, exposed to both vCPUs' slowdowns,
/// doubled the run-to-run spread of the timed metrics, so the pool's pass
/// is the reference every timed pass must reproduce (det==pool parity).
fn measure<R: Runtime>(args: &Args) -> Outcome {
    let clock = Instant::now();
    let (workload, seed) = (args.workload, args.seed);
    let mut setup_s = Vec::new();
    let time_builds = |setup_s: &mut Vec<f64>| {
        setup_s.extend((0..SETUP_BUILDS_PER_PASS).map(|_| build::<Platform>(workload, seed).1));
    };

    let mut outcome = Outcome::default();
    time_builds(&mut setup_s);
    // Counting heap bytes slows allocation, so the pass that counts is
    // not timed; it is the reference every timed pass must reproduce.
    let (first, peak_heap) = heap::peak_during(|| {
        let (mut grid, _) = build::<R>(workload, seed);
        run_pass(&mut grid, workload, None).report
    });
    outcome.account(workload, seed, &first);

    let mut best_ms: Vec<f64> = Vec::new();
    let (mut passes, mut timed_s) = (0, 0.0);
    // Another pass only if it is expected to end within `--seconds`.
    while passes == 0
        || clock.elapsed().as_secs_f64() + timed_s / passes as f64 <= args.seconds.as_secs_f64()
    {
        time_builds(&mut setup_s);
        let (mut grid, _) = build::<Platform>(workload, seed);
        let pass = run_pass(&mut grid, workload, None);
        drop(grid);
        passes += 1;
        timed_s += pass.wall_s();
        println!(
            "timed pass {passes}: {:.3} s, round p50 {:.3} ms",
            pass.wall_s(),
            stats::median(&pass.round_ms)
        );
        if best_ms.is_empty() {
            best_ms = pass.round_ms.clone();
        }
        for (best, ms) in best_ms.iter_mut().zip(&pass.round_ms) {
            *best = best.min(*ms);
        }
        outcome.account(workload, seed, &pass.report);
        if !same_run(&first, &pass.report) {
            outcome.failures.push(format!(
                "timed pass {passes} diverged from the reference pass"
            ));
        }
    }

    // The planted faults' alerts only: how many alerts natural load
    // spikes add, and how those pair up in `correlated-cpu`, varies with
    // the fleet seed far more than the alert storm itself does.
    let faults = planted_faults(workload, seed);
    let planted: Vec<Alert> = first
        .alerts
        .iter()
        .filter(|a| {
            faults
                .iter()
                .any(|f| a.rule == f.rule && a.device == f.device)
        })
        .cloned()
        .collect();
    let alerts_per_finding = stats::alerts_per_finding(&planted).unwrap_or_else(|| {
        outcome
            .failures
            .push("no planted fault raised an alert".to_owned());
        0.0
    });
    let best_s = best_ms.iter().sum::<f64>() / 1e3;
    println!(
        "{}: {} rounds, each timed as its best of {passes} passes; {} records and {} alerts \
         per pass; {} set-up builds",
        workload.name(),
        best_ms.len(),
        first.records_stored,
        first.alerts.len(),
        setup_s.len()
    );
    outcome.metrics = vec![
        Metric::new("setup_s", stats::median(&setup_s), "s"),
        Metric::new(
            "records_per_s",
            first.records_stored as f64 / best_s,
            "records/s",
        ),
        Metric::new("round_p50_ms", stats::percentile(&best_ms, 50.0), "ms"),
        Metric::new("round_p90_ms", stats::percentile(&best_ms, 90.0), "ms"),
        Metric::new("alerts_per_finding", alerts_per_finding, "ratio"),
        Metric::new("peak_heap_mib", peak_heap as f64 / MIB, "MiB"),
    ];
    outcome
}

/// `--trace 1`: the per-layer metrics, from one untraced and one traced
/// pass of the same seed.
fn trace<R: Runtime>(args: &Args) -> Outcome {
    let (workload, seed) = (args.workload, args.seed);
    let mut outcome = Outcome::default();

    let (mut grid, _) = build::<R>(workload, seed);
    let untraced = run_pass(&mut grid, workload, None);
    drop(grid);
    outcome.account(workload, seed, &untraced.report);

    let (mut grid, _) = build::<Traced<Platform>>(workload, seed);
    let recorder = grid.platform_mut().recorder();
    let wall = Instant::now();
    let traced = run_pass(&mut grid, workload, Some(&recorder));
    let traced_wall_s = wall.elapsed().as_secs_f64();
    outcome.account(workload, seed, &traced.report);
    if !same_run(&untraced.report, &traced.report) {
        outcome.failures.push(format!(
            "the traced deterministic run diverged from the untraced {} run",
            if workload.on_pool() {
                "pool"
            } else {
                "deterministic"
            }
        ));
    }

    let spans = recorder.spans();
    let batches = recorder.batch_counts();
    let store = grid.store();
    let store = store.lock();
    outcome.metrics = layers::per_layer(&layers::TracedRun {
        spans: &spans,
        batches: &batches,
        report: &traced.report,
        match_attempts: grid.match_attempts(),
        store: &store,
        traced_wall_s,
        untraced_wall_s: untraced.wall_s(),
    });
    println!(
        "{}: traced {} rounds, {} spans",
        workload.name(),
        workload.rounds(),
        spans.len()
    );
    let path = spans_path(workload, seed);
    match write_spans(&recorder, &path) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("warning: could not write spans to {}: {e}", path.display()),
    }
    outcome
}

fn spans_path(workload: Workload, seed: u64) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("spans")
        .join(format!("{}-seed{seed}.csv", workload.name()))
}

fn write_spans(recorder: &Recorder, path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(File::create(path)?);
    recorder.write_csv(&mut out)?;
    out.flush()
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: gridbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    println!("workload {}: {}", args.workload.name(), args.workload.why());
    let mut outcome = match (args.trace, args.workload.on_pool()) {
        (false, false) => measure::<Platform>(&args),
        (false, true) => measure::<PoolRuntime>(&args),
        (true, false) => trace::<Platform>(&args),
        (true, true) => trace::<PoolRuntime>(&args),
    };
    for metric in &mut outcome.metrics {
        if !metric.value.is_finite() {
            outcome
                .failures
                .push(format!("{} is not a finite number", metric.name));
            metric.value = 0.0;
        }
        println!("{} = {} {}", metric.name, metric.value, metric.unit);
    }
    println!(
        "operations: {} attempted, {} failed",
        outcome.attempted, outcome.failed
    );
    for failure in &outcome.failures {
        println!("CHECK FAILED: {failure}");
    }
    if outcome.failures.is_empty() {
        println!("all checks passed");
    }
    println!("{}", outcome.json());
    if outcome.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_are_checked() {
        let ok = args(&[
            "--workload",
            "multisite",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(ok.workload, Workload::Multisite);
        assert_eq!((ok.seed, ok.seconds.as_secs(), ok.trace), (3, 10, true));
        assert!(args(&["--workload", "nope", "--seed", "1"]).is_err());
        assert!(args(&["--workload", "multisite", "--seed"]).is_err());
        assert!(args(&["--workload", "multisite", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(args(&[
            "--workload",
            "multisite",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
    }

    #[test]
    fn json_line_has_the_four_keys() {
        let outcome = Outcome {
            failures: Vec::new(),
            attempted: 12,
            failed: 0,
            metrics: vec![Metric::new("round_p50_ms", 1.25, "ms")],
        };
        assert_eq!(
            outcome.json(),
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \
             \"metrics\": {\"round_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
