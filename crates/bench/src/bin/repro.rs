//! Regenerates every table and figure of the paper (plus the extension
//! experiments from its future-work list).
//!
//! ```text
//! cargo run -p agentgrid-bench --bin repro -- all
//! cargo run -p agentgrid-bench --bin repro -- table1 fig6 crossover
//! cargo run -p agentgrid-bench --bin repro -- fig2 --metrics /tmp/metrics.json
//! ```
//!
//! `--metrics <path>` attaches a telemetry sink to every live-grid
//! experiment (fig2, lb, mobility, chaos) and writes the final snapshot
//! to `<path>` — JSON when the path ends in `.json`, Prometheus text
//! otherwise; `-` writes Prometheus text to stdout.
//!
//! `--trace <path>` attaches the same telemetry sink with the flight
//! recorder and pool profiler enabled, and writes a Chrome-trace /
//! Perfetto JSON file to `<path>` after the run: task spans and
//! flight-recorder instants on the simulated-time track, per-worker
//! job lanes and route/tick/merge phases on the wall-clock track when
//! `--runtime pool` is selected. Load it at <https://ui.perfetto.dev>.
//!
//! The chaos, netchaos, overload and sharded experiments below check a
//! run in two ways only: [`GridReport::audit`] must find no violated
//! invariant (no lost or unaccounted task, exactly-once awards and
//! completions, per-shard counts that sum), and replays must produce
//! equal reports (`==`). A failed check prints the violations on stderr
//! and exits 1.
//!
//! `--chaos <seed>` runs the seeded chaos-recovery experiment: a grid
//! with a [`ChaosPlan`](agentgrid::chaos::ChaosPlan) derived from the
//! seed (container crash + restart, possibly a transport-fault window),
//! executed twice to check the run is bit-identical, with an empty
//! audit. With no explicit experiment list, `--chaos` runs only the
//! chaos experiment.
//!
//! `--netchaos <seed>` runs the network-adversary experiment: a seeded
//! composable fault plan (probabilistic loss, duplication, delay with
//! jitter, bounded reordering and a named partition that heals) against
//! the reliable-delivery protocol and the recovery layer. The scenario
//! runs twice on the deterministic stepper and once on the pool
//! runtime; exits nonzero unless all three reports are equal, the audit
//! is empty, and the reliability layer actually worked (nonzero
//! retransmits and suppressed duplicates). With no explicit experiment
//! list, `--netchaos` runs only this experiment.
//!
//! `--overload <seed>` runs the overload-protection experiment: a burst
//! scenario against bounded mailboxes (shed-by-priority), admission
//! control, circuit breakers and collector pacing, executed twice to
//! check the run is bit-identical. Exits nonzero unless messages were
//! shed, zero alert-class messages were lost, the mailbox high-water
//! respected the configured cap and the audit is empty. With no
//! explicit experiment list, `--overload` runs only the overload
//! experiment.
//!
//! `--bench-json <path>` times the incremental engine against the naive
//! reference matcher (10/100/1000 facts) plus the store's whole-series
//! stats hot loop, and writes median wall-times in nanoseconds, match
//! counts and speedups to `<path>` as JSON. With no explicit experiment
//! list, `--bench-json` runs only the benchmark.
//!
//! `--runtime {deterministic,pool}` selects the execution model for the
//! live-grid experiments (fig2, lb, chaos, overload): `deterministic`
//! (default) is the in-order stepper, `pool` ticks collector containers
//! on a work-stealing thread pool. Both produce byte-identical reports
//! on these seeded scenarios — CI diffs `repro all --runtime pool`
//! against the committed `results/repro_output.txt` to prove it.
//! (`mobility` always uses the deterministic stepper: migration is a
//! stepper-only API.)
//!
//! `--store-bench-json <path>` times store ingest, windowed range
//! queries and bytes/sample for the chunked `ManagementStore` and its
//! `NaiveStore` reference at 1k/100k/1M points and writes the medians
//! to `<path>` as JSON (the `BENCH_pr8.json` artifact). With no
//! explicit experiment list, `--store-bench-json` runs only the store
//! benchmark.
//!
//! `--sharded <n> [seed]` runs the federated-grid experiment: the grid
//! split into `n` domain shards connected by the federation protocol
//! (load gossip, task spill-over, cross-domain finding summaries). The
//! deterministic checks run the sharded scenario twice on the stepper
//! and once on the pool runtime (all three reports must be equal), then
//! an overload scenario that forces spill-over and audits every task in
//! the federation as counted exactly once — stdout is fully
//! deterministic so CI diffs it against a committed golden file. With
//! `--shard-bench-json <path>`, a 10 000-device scenario is also timed
//! on the pool runtime at 1 shard vs `n` shards and the measured
//! throughputs written to `<path>` (the `BENCH_pr10.json` artifact).
//! With no explicit experiment list, `--sharded` runs only this
//! experiment.
//!
//! Every name is checked before anything runs: an unknown experiment,
//! an unknown flag or a flag without a valid value prints an error and
//! exits with status 2.

use agentgrid::balance::{
    ContractNet, KnowledgeCapacityIdle, LeastLoaded, LoadBalancer, Random, RoundRobin,
};
use agentgrid::broker::Broker;
use agentgrid::chaos::ChaosPlan;
use agentgrid::grid::{GridBuilder, GridReport, ManagementGrid, Violation, DEFAULT_RULES};
use agentgrid::mobility::Rebalancer;
use agentgrid::ontology::{AnalysisTask, ResourceProfile};
use agentgrid::overload::{
    AdmissionConfig, BreakerConfig, MessageClass, OverflowPolicy, OverloadConfig, OverloadStats,
};
use agentgrid::recovery::RecoveryConfig;
use agentgrid::workflow;
use agentgrid::CostModel;
use agentgrid_baselines::MultiAgentSystem;
use agentgrid_bench::{
    fig6_reports, grid_scaling_report, inference_facts, inference_kb, inference_store,
    mean_completions, standard_network, store_workload, BenchStore, ALL_SKILLS,
};
use agentgrid_net::{FaultKind, ScheduledFault};
use agentgrid_platform::{ReliabilityConfig, Telemetry, TelemetryHandle};
use agentgrid_rules::{parse_rules, Engine, KnowledgeBase, NaiveEngine};
use agentgrid_store::{AggKind, ManagementStore, NaiveStore};

/// Execution model for the live-grid experiments; both produce
/// byte-identical reports on the seeded scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RuntimeChoice {
    /// In-order deterministic stepper (the default).
    Deterministic,
    /// Work-stealing pool over collector containers.
    Pool,
}

/// Builds the configured grid on the chosen runtime, runs it, and
/// returns the report plus overload stats (when bounded mailboxes were
/// configured). One generic body keeps the wiring identical per model.
fn run_grid(
    builder: GridBuilder,
    runtime: RuntimeChoice,
    duration_ms: u64,
    tick_ms: u64,
) -> (GridReport, Option<OverloadStats>) {
    match runtime {
        RuntimeChoice::Deterministic => {
            let mut grid = builder.build();
            let report = grid.run(duration_ms, tick_ms);
            let stats = grid.overload_stats();
            (report, stats)
        }
        RuntimeChoice::Pool => {
            let mut grid = builder.build_pool();
            let report = grid.run(duration_ms, tick_ms);
            let stats = grid.overload_stats();
            (report, stats)
        }
    }
}

/// The suite `all` runs (and the default when no experiment is named),
/// in order.
const ALL: [&str; 12] = [
    "table1",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "crossover",
    "lb",
    "scaling",
    "mobility",
    "chaos",
];

/// Experiments outside `all`: run when named, or alone when their flag
/// is the only selection.
const ON_DEMAND: [&str; 5] = ["netchaos", "overload", "bench", "store-bench", "sharded"];

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let metrics_path = take_flag(&mut args, "--metrics", "a path argument");
    let trace_path = take_flag(&mut args, "--trace", "a path argument");
    let chaos_seed =
        take_flag(&mut args, "--chaos", "a seed argument").map(|raw| seed("--chaos", &raw));
    let netchaos_seed =
        take_flag(&mut args, "--netchaos", "a seed argument").map(|raw| seed("--netchaos", &raw));
    let overload_seed =
        take_flag(&mut args, "--overload", "a seed argument").map(|raw| seed("--overload", &raw));
    let bench_json = take_flag(&mut args, "--bench-json", "a path argument");
    let store_bench_json = take_flag(&mut args, "--store-bench-json", "a path argument");
    let sharded_shards =
        take_flag(&mut args, "--sharded", "a shard count argument").map(|raw| shard_count(&raw));
    let shard_bench_json = take_flag(&mut args, "--shard-bench-json", "a path argument");
    // `--sharded N SEED`: the bare number after the flags is the seed.
    let sharded_seed = sharded_shards.and_then(|_| {
        args.iter()
            .position(|a| a.parse::<u64>().is_ok())
            .map(|i| args.remove(i).parse().expect("position checked"))
    });
    let runtime = take_flag(
        &mut args,
        "--runtime",
        "an argument (deterministic or pool)",
    )
    .map_or(RuntimeChoice::Deterministic, |raw| match raw.as_str() {
        "deterministic" => RuntimeChoice::Deterministic,
        "pool" => RuntimeChoice::Pool,
        other => fail(&format!(
            "--runtime must be deterministic or pool, got `{other}`"
        )),
    });
    // Every remaining argument must name an experiment: reject typos and
    // unknown flags before anything runs.
    for arg in &args {
        if arg.starts_with('-') {
            fail(&format!("unknown flag `{arg}`"));
        }
        if arg != "all" && !ALL.contains(&arg.as_str()) && !ON_DEMAND.contains(&arg.as_str()) {
            fail(&format!("unknown experiment `{arg}` (try `all`)"));
        }
    }
    let telemetry = (metrics_path.is_some() || trace_path.is_some()).then(Telemetry::new);
    if let (Some(_), Some(t)) = (&trace_path, &telemetry) {
        t.flight_recorder().enable();
        t.pool_profiler().enable();
    }
    let flagged: Vec<&str> = [
        (chaos_seed.is_some(), "chaos"),
        (netchaos_seed.is_some(), "netchaos"),
        (overload_seed.is_some(), "overload"),
        (bench_json.is_some(), "bench"),
        (store_bench_json.is_some(), "store-bench"),
        (sharded_shards.is_some(), "sharded"),
    ]
    .into_iter()
    .filter_map(|(on, name)| on.then_some(name))
    .collect();
    let wanted: Vec<&str> = if args.is_empty() && !flagged.is_empty() {
        flagged
    } else if args.is_empty() || args.iter().any(|a| a == "all") {
        ALL.to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };
    for experiment in wanted {
        match experiment {
            "table1" => table1(),
            "fig1" => fig1(),
            "fig2" => fig2(telemetry.as_ref(), runtime),
            "fig3" => fig3(),
            "fig4" => fig4(),
            "fig5" => fig5(),
            "fig6" => fig6(),
            "crossover" => crossover(),
            "lb" => lb_ablation(telemetry.as_ref(), runtime),
            "scaling" => scaling(),
            "mobility" => mobility(telemetry.as_ref()),
            "chaos" => chaos(chaos_seed.unwrap_or(42), telemetry.as_ref(), runtime),
            "netchaos" => netchaos(netchaos_seed.unwrap_or(42), telemetry.as_ref()),
            "overload" => overload(overload_seed.unwrap_or(7), telemetry.as_ref(), runtime),
            "bench" => bench_inference(bench_json.as_deref()),
            "store-bench" => store_bench(store_bench_json.as_deref()),
            "sharded" => sharded(
                sharded_shards.unwrap_or(4),
                sharded_seed.unwrap_or(42),
                shard_bench_json.as_deref(),
            ),
            other => unreachable!("experiment `{other}` passed the name check"),
        }
    }
    if let (Some(path), Some(telemetry)) = (&metrics_path, &telemetry) {
        write_metrics(path, telemetry);
    }
    if let (Some(path), Some(telemetry)) = (&trace_path, &telemetry) {
        write_trace(path, telemetry);
    }
}

/// Prints a usage error and exits with status 2.
fn fail(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

/// Removes `name <value>` (or `name=<value>`) from `args` and returns
/// the value, if the flag is present; `needs` completes the error
/// message when the value is missing.
fn take_flag(args: &mut Vec<String>, name: &str, needs: &str) -> Option<String> {
    if let Some(i) = args.iter().position(|a| a == name) {
        if i + 1 >= args.len() {
            fail(&format!("{name} needs {needs}"));
        }
        let value = args.remove(i + 1);
        args.remove(i);
        return Some(value);
    }
    let prefix = format!("{name}=");
    let i = args.iter().position(|a| a.starts_with(&prefix))?;
    Some(args.remove(i)[prefix.len()..].to_owned())
}

/// Parses the seed value of `flag`.
fn seed(flag: &str, raw: &str) -> u64 {
    raw.parse().unwrap_or_else(|_| {
        fail(&format!(
            "{flag} needs an unsigned integer seed, got `{raw}`"
        ))
    })
}

/// Parses the `--sharded` shard count (at least one).
fn shard_count(raw: &str) -> usize {
    match raw.parse() {
        Ok(0) => fail("--sharded needs at least one shard"),
        Ok(shards) => shards,
        Err(_) => fail(&format!("--sharded needs a shard count, got `{raw}`")),
    }
}

/// Writes the telemetry snapshot to `path`: JSON for `.json` paths,
/// Prometheus text format otherwise; `-` streams Prometheus text to
/// stdout.
fn write_metrics(path: &str, telemetry: &TelemetryHandle) {
    if path == "-" {
        print!("{}", telemetry.prometheus());
        return;
    }
    let rendered = if path.ends_with(".json") {
        telemetry.json()
    } else {
        telemetry.prometheus()
    };
    if let Err(err) = std::fs::write(path, &rendered) {
        eprintln!("failed to write metrics to {path}: {err}");
        std::process::exit(1);
    }
    println!(
        "\nmetrics: {} samples written to {path}",
        telemetry.snapshot().samples.len()
    );
}

/// Writes the Chrome-trace / Perfetto JSON export to `path`.
fn write_trace(path: &str, telemetry: &TelemetryHandle) {
    let rendered = telemetry.chrome_trace();
    if let Err(err) = std::fs::write(path, &rendered) {
        eprintln!("failed to write trace to {path}: {err}");
        std::process::exit(1);
    }
    println!(
        "\ntrace: {} task spans, {} flight-recorder events written to {path}",
        telemetry.task_spans().len(),
        telemetry.flight_recorder().len(),
    );
}

fn banner(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

/// A replay line's verdict: whether two runs' reports are equal.
fn verdict(same: bool) -> &'static str {
    if same {
        "bit-identical"
    } else {
        "DIVERGED"
    }
}

/// An audit's violations as one bracketed list for a FAILED line.
fn listed(violations: &[Violation]) -> String {
    let items: Vec<String> = violations.iter().map(ToString::to_string).collect();
    format!("[{}]", items.join("; "))
}

/// Table 1: relative times of management tasks.
fn table1() {
    banner("Table 1 — relative times of management tasks");
    print!("{}", CostModel::table1().render());
}

/// Figure 1: the traditional management workflow, executed and traced.
fn fig1() {
    banner("Figure 1 — traditional network management workflow (executed)");
    let mut network = standard_network(1, 4, 7);
    network.tick_all(60_000);
    let kb = KnowledgeBase::from_rules(parse_rules(DEFAULT_RULES).expect("rules parse"));
    let mut store = ManagementStore::default();
    let (alerts, trace) = workflow::run_pass(&mut network, &mut store, &kb, 60_000);
    print!("{}", trace.render());
    println!("management information produced: {} alerts", alerts.len());
}

/// Figure 2: the full agent-grid architecture, live, over two sites.
fn fig2(telemetry: Option<&TelemetryHandle>, runtime: RuntimeChoice) {
    banner("Figure 2 — agent-grid architecture, live run over two sites");
    let mut builder = ManagementGrid::builder()
        .network(standard_network(2, 4, 11))
        .collectors_per_site(2)
        .analyzer("pg-1", 1.0, ALL_SKILLS)
        .analyzer("pg-2", 1.0, ALL_SKILLS)
        .fault(ScheduledFault::from(
            "site-0-dev2",
            FaultKind::CpuRunaway,
            120_000,
        ))
        .fault(ScheduledFault::from(
            "site-1-dev0",
            FaultKind::LinkDown(2),
            180_000,
        ));
    if let Some(t) = telemetry {
        builder = builder.telemetry(t.clone());
    }
    let (report, _) = run_grid(builder, runtime, 10 * 60_000, 60_000);
    print!("{}", report.render());
}

/// Figure 3: division of analysis tasks by knowledge/capacity/idleness.
fn fig3() {
    banner("Figure 3 — division of analysis tasks in the grid");
    let profiles = vec![
        // "Container A has computational capacity to analyze X"
        ResourceProfile::new("container-a", 4.0, 1.0, 8192, ["x-analysis"]),
        // "Container B has knowledge to analyze W"
        ResourceProfile::new("container-b", 1.0, 1.0, 2048, ["w-analysis"]),
        // "C replies, as it is idle, has capacity to process ... Y"
        ResourceProfile::new("container-c", 1.0, 1.0, 2048, ["y-analysis", "x-analysis"]),
    ];
    let tasks = vec![
        AnalysisTask::new("info-x", "x-analysis", "x", 1, 400),
        AnalysisTask::new("info-y", "y-analysis", "y", 1, 200),
        AnalysisTask::new("info-w", "w-analysis", "w", 1, 300),
    ];
    let mut broker = Broker::new(KnowledgeCapacityIdle);
    let division = broker.divide(tasks, profiles);
    print!("{}", division.trace());
}

/// Figure 4: container registration with the grid root's directory.
fn fig4() {
    banner("Figure 4 — container joins the grid and registers its profile");
    let mut df = agentgrid_platform::DirectoryFacilitator::new();
    let profile = ResourceProfile::new("container-1", 2.0, 1.5, 4096, ["cpu", "disk"]);
    println!(
        "container-1 -> root: register (cpu {:.1}, disk {:.1}, mem {} MB, skills {:?})",
        profile.cpu_capacity, profile.disk_capacity, profile.memory_mb, profile.skills
    );
    df.register_container(profile);
    println!("root records the profile in directory D1:");
    for p in df.container_profiles() {
        println!(
            "  D1[{}] = capacity {:.1}, load {:.2}, skills {:?}",
            p.container, p.cpu_capacity, p.load, p.skills
        );
    }
    println!("root may now submit jobs to container-1 based on D1.");
}

/// Figure 5: the architecture without agent grids (per-site silos).
fn fig5() {
    banner("Figure 5 — architecture without agent grids (isolated sites)");
    let mut mas = MultiAgentSystem::new(standard_network(2, 4, 13), 2).with_fault(
        ScheduledFault::from("site-0-dev2", FaultKind::CpuRunaway, 120_000),
    );
    let reports = mas.run(10 * 60_000, 60_000);
    for (site, report) in &reports {
        println!(
            "site {site}: {} records stored locally, {} alerts (no cross-site sharing)",
            report.records,
            report.alerts.len()
        );
    }
    println!("messages delivered: {}", mas.messages_delivered());
}

/// Figure 6: per-host resource utilization under the three architectures.
fn fig6() {
    banner("Figure 6 — compared performances of the three architectures");
    println!("workload: 10 requests of each type (A, B, C); costs from Table 1\n");
    for (label, report) in fig6_reports(10) {
        println!("--- ({label}) ---");
        println!("makespan: {} units", report.makespan());
        print!("{}", report.utilization_table());
        let (host, kind, busy) = report.bottleneck().expect("non-empty run");
        println!("bottleneck: {host}/{kind} ({busy} busy units)");
        println!("timeline (time, left to right):");
        print!("{}", report.gantt(56));
        println!();
    }
}

/// Extension: where does the grid become advantageous? (paper §5,
/// "determining more clearly the point at which ...").
fn crossover() {
    banner("Extension — crossover: mean completion time vs workload size");
    println!(
        "{:>7} {:>14} {:>14} {:>14}",
        "rounds", "centralized", "multi-agent", "agent-grid"
    );
    for rounds in [1, 2, 3, 5, 8, 10, 20, 50, 100, 200] {
        let [(_, cen), (_, mas), (_, grid)] = mean_completions(rounds);
        println!("{rounds:>7} {cen:>14.1} {mas:>14.1} {grid:>14.1}");
    }
    // Locate the smallest workload where the grid's mean completion is
    // strictly best.
    let mut crossover = None;
    for rounds in 1..=50 {
        let [(_, cen), (_, mas), (_, grid)] = mean_completions(rounds);
        if grid < mas && grid < cen {
            crossover = Some(rounds);
            break;
        }
    }
    match crossover {
        Some(rounds) => println!("\ngrid wins on mean completion from {rounds} round(s) on"),
        None => println!("\nno crossover up to 50 rounds"),
    }
}

/// Extension: load-balancing policy ablation on the live grid.
fn lb_ablation(telemetry: Option<&TelemetryHandle>, runtime: RuntimeChoice) {
    banner("Extension — load-balancing policy ablation (live grid)");
    fn run_with(
        policy: impl LoadBalancer + 'static,
        telemetry: Option<&TelemetryHandle>,
        runtime: RuntimeChoice,
    ) -> (String, String) {
        let name = policy.name().to_owned();
        let mut builder = ManagementGrid::builder()
            .network(standard_network(1, 6, 17))
            .collectors_per_site(2)
            .analyzer("pg-fast", 4.0, ALL_SKILLS)
            .analyzer("pg-slow", 1.0, ALL_SKILLS)
            .policy(policy);
        if let Some(t) = telemetry {
            builder = builder.telemetry(t.clone());
        }
        let (report, _) = run_grid(builder, runtime, 10 * 60_000, 60_000);
        let per = report.tasks_per_container();
        let fast = per.get("pg-fast").copied().unwrap_or(0);
        let slow = per.get("pg-slow").copied().unwrap_or(0);
        (
            name,
            format!(
                "pg-fast {fast:>3} tasks, pg-slow {slow:>3} tasks, outstanding {}",
                report.outstanding.len()
            ),
        )
    }
    for (name, line) in [
        run_with(KnowledgeCapacityIdle, telemetry, runtime),
        run_with(ContractNet, telemetry, runtime),
        run_with(LeastLoaded, telemetry, runtime),
        run_with(RoundRobin::default(), telemetry, runtime),
        run_with(Random::new(42), telemetry, runtime),
    ] {
        println!("{name:<24} {line}");
    }
    println!("\n(knowledge-capacity-idle and contract-net route more work to the");
    println!(" 4x-capacity container; round-robin/random split evenly.)");
}

/// Extension: grid scaling — makespan vs number of analysis hosts.
fn scaling() {
    banner("Extension — scaling: agent-grid makespan vs analysis hosts");
    println!(
        "{:>10} {:>10} {:>16}",
        "analyzers", "makespan", "peak-utilization"
    );
    for analyzers in [1, 2, 4, 8, 16] {
        let report = grid_scaling_report(50, analyzers);
        println!(
            "{analyzers:>10} {:>10} {:>15.1}%",
            report.makespan(),
            report.peak_utilization() * 100.0
        );
    }
}

/// Extension: mobility — migrating an analyzer to a spare container.
fn mobility(telemetry: Option<&TelemetryHandle>) {
    banner("Extension — mobility: analyzer migration to spare capacity");
    // A small host whose load account the site's records outrun.
    let mut builder = ManagementGrid::builder()
        .network(standard_network(1, 6, 23))
        .collectors_per_site(2)
        .analyzer("pg-1", 0.15, ALL_SKILLS);
    if let Some(t) = telemetry {
        builder = builder.telemetry(t.clone());
    }
    let mut grid = builder.build();
    // A spare container joins the grid (profile registered, no agent).
    grid.platform_mut().add_container("spare-1");
    grid.platform_mut()
        .df_mut()
        .register_container(ResourceProfile::new("spare-1", 2.0, 1.0, 8192, ALL_SKILLS));
    let before = grid.run(6 * 60_000, 60_000);
    let load_before = grid
        .platform_mut()
        .df()
        .container_profile("pg-1")
        .map(|p| p.load)
        .unwrap_or(0.0);
    println!(
        "after 6 min: pg-1 load {:.2}, {} tasks on pg-1",
        load_before,
        before
            .tasks_per_container()
            .get("pg-1")
            .copied()
            .unwrap_or(0)
    );
    let rebalancer = Rebalancer::default();
    println!(
        "watermarks: migrate at load >= {:.2} to a spare at <= {:.2}",
        rebalancer.high_watermark, rebalancer.low_watermark
    );
    let migrations = rebalancer.rebalance(grid.platform_mut());
    for m in &migrations {
        println!("migrated {} : {} -> {}", m.agent, m.from, m.to);
    }
    let after = grid.run(6 * 60_000, 60_000);
    let per = after.tasks_per_container();
    println!(
        "after migration: spare-1 carries {} of {} total tasks",
        per.get("spare-1").copied().unwrap_or(0),
        after.assignments.len()
    );
}

/// Chaos experiment: seeded failure injection against the recovering
/// grid, run twice on the deterministic runtime to prove the whole
/// crash-detect-re-broker sequence is reproducible. Exits nonzero if
/// the audit finds a violation or the replay diverges, so CI can use it
/// as a smoke check.
fn chaos(seed: u64, telemetry: Option<&TelemetryHandle>, runtime: RuntimeChoice) {
    banner(&format!(
        "Chaos — seeded failures vs the recovery layer (seed {seed})"
    ));
    let horizon = 20 * 60_000;
    let containers = vec!["pg-1".to_string(), "pg-2".to_string()];
    let plan = ChaosPlan::seeded(seed, &containers, horizon);
    println!("schedule:");
    for (at_ms, action) in plan.events() {
        println!("  t={:>4}s {action:?}", at_ms / 1000);
    }
    let run_once = |telemetry: Option<&TelemetryHandle>| {
        let mut builder = ManagementGrid::builder()
            .network(standard_network(1, 4, 7))
            .collectors_per_site(2)
            .analyzer("pg-1", 1.0, ALL_SKILLS)
            .analyzer("pg-2", 1.0, ALL_SKILLS)
            .recovery(RecoveryConfig::seeded(seed))
            .chaos(plan.clone());
        if let Some(t) = telemetry {
            builder = builder.telemetry(t.clone());
        }
        run_grid(builder, runtime, horizon, 60_000).0
    };
    let first = run_once(telemetry);
    // The replay gets a *fresh* sink when the first run had one: the
    // task-latency line in the render is sim-time-deterministic, so the
    // reports must still match byte for byte — and do not when only one
    // run carries telemetry.
    let fresh = telemetry.map(|_| Telemetry::new());
    let second = run_once(fresh.as_ref());

    let distinct: std::collections::BTreeSet<&str> = first
        .assignments
        .iter()
        .map(|(id, _)| id.as_str())
        .collect();
    println!(
        "tasks: {} awards over {} distinct tasks, {} completed, \
         {} re-brokered, {} retries, {} escalations, {} outstanding at horizon",
        first.assignments.len(),
        distinct.len(),
        first.tasks_completed,
        first.rebrokered.len(),
        first.retries,
        first.escalations,
        first.outstanding.len(),
    );
    println!("lost tasks: {}", first.lost_tasks().len());
    let identical = first == second;
    println!("deterministic replay: {}", verdict(identical));
    let violations = first.audit();
    if !violations.is_empty() || !identical {
        eprintln!(
            "chaos check FAILED (violations: {}, identical: {identical})",
            listed(&violations)
        );
        std::process::exit(1);
    }
}

/// Network-chaos experiment: a seeded composable network adversary
/// (probabilistic loss and duplication on every link, delay + jitter +
/// reordering into one analyzer, and a named partition that heals)
/// against the reliable-delivery protocol and the recovery layer. The
/// scenario runs twice on the deterministic stepper — the whole
/// drop/delay/duplicate/retransmit sequence is a pure function of the
/// seed — and once on the pool runtime, which must match byte for
/// byte. Exits nonzero if the audit finds a violation, any replay
/// diverges, or the reliability layer never retransmitted/suppressed
/// anything (an idle defence proves nothing), so CI can use it as a
/// smoke check.
fn netchaos(seed: u64, telemetry: Option<&TelemetryHandle>) {
    banner(&format!(
        "Net chaos — seeded network adversary vs reliable delivery (seed {seed})"
    ));
    let horizon = 20 * 60_000;
    let containers: Vec<String> = ["pg-1", "pg-2", "pg-root-ct", "clg", "ig", "cg-site-0"]
        .iter()
        .map(|s| (*s).to_string())
        .collect();
    let plan = ChaosPlan::seeded_net(seed, &containers, horizon);
    println!("schedule:");
    for (at_ms, action) in plan.events() {
        println!("  t={:>4}s {action:?}", at_ms / 1000);
    }
    let run_once = |telemetry: Option<&TelemetryHandle>, pool: bool| {
        let mut builder = ManagementGrid::builder()
            .network(standard_network(1, 4, 7))
            .collectors_per_site(2)
            .analyzer("pg-1", 1.0, ALL_SKILLS)
            .analyzer("pg-2", 1.0, ALL_SKILLS)
            .recovery(RecoveryConfig::seeded(seed))
            .net_adversary(seed)
            .reliability(ReliabilityConfig::seeded(seed))
            .chaos(plan.clone())
            // A device fault mid-run so Alert-class traffic crosses the
            // adversary too — reliable delivery must land every alert.
            .fault(ScheduledFault::from(
                "site-0-dev2",
                FaultKind::CpuRunaway,
                120_000,
            ));
        if let Some(t) = telemetry {
            builder = builder.telemetry(t.clone());
        }
        let runtime = if pool {
            RuntimeChoice::Pool
        } else {
            RuntimeChoice::Deterministic
        };
        run_grid(builder, runtime, horizon, 60_000).0
    };
    let first = run_once(telemetry, false);
    // Fresh sink for the replay (see `chaos`): keeps the rendered
    // reports comparable when the first run carries telemetry.
    let fresh = telemetry.map(|_| Telemetry::new());
    let second = run_once(fresh.as_ref(), false);
    let fresh_pool = telemetry.map(|_| Telemetry::new());
    let pool = run_once(fresh_pool.as_ref(), true);

    let net = first.net.unwrap_or_default();
    println!(
        "adversary: {} dropped, {} partition-dropped, {} delayed, {} duplicated, {} reordered",
        net.dropped, net.partition_dropped, net.delayed, net.duplicated, net.reordered,
    );
    println!(
        "reliability: {} retransmits, {} delivered after retry, {} duplicates suppressed, \
         {} retransmit overflows",
        net.retransmits, net.delivered_after_retry, net.dup_suppressed, net.retransmit_overflow,
    );
    println!(
        "tasks: {} awards, {} completed, {} re-brokered, {} retries, \
         {} outstanding at horizon, {} alerts",
        first.assignments.len(),
        first.tasks_completed,
        first.rebrokered.len(),
        first.retries,
        first.outstanding.len(),
        first.alerts.len(),
    );
    println!("lost tasks: {}", first.lost_tasks().len());
    let replay_identical = first == second;
    let pool_identical = first == pool;
    println!("deterministic replay: {}", verdict(replay_identical));
    println!("pool runtime: {}", verdict(pool_identical));
    let violations = first.audit();
    let exercised = net.retransmits > 0 && net.dup_suppressed > 0 && !first.alerts.is_empty();
    if violations.is_empty() && replay_identical && pool_identical && exercised {
        println!(
            "netchaos check PASSED ({} retransmits, {} duplicates suppressed, 0 lost)",
            net.retransmits, net.dup_suppressed
        );
    } else {
        eprintln!(
            "netchaos check FAILED (violations: {}, replay identical: {replay_identical}, \
             pool identical: {pool_identical}, retransmits: {}, dup_suppressed: {})",
            listed(&violations),
            net.retransmits,
            net.dup_suppressed
        );
        std::process::exit(1);
    }
}

/// Median wall time of `runs` invocations of `f`, in nanoseconds.
fn median_ns(runs: usize, mut f: impl FnMut() -> u64) -> (u128, u64) {
    let mut samples = Vec::with_capacity(runs);
    let mut result = 0;
    for _ in 0..runs {
        let start = std::time::Instant::now();
        result = f();
        samples.push(start.elapsed().as_nanos());
    }
    samples.sort_unstable();
    (samples[samples.len() / 2], result)
}

/// Inference micro-benchmark: the incremental (agenda + alpha-index)
/// engine vs the naive reference matcher at 10/100/1000 facts, plus the
/// store's whole-series stats hot loop. Prints a table; with a path,
/// also writes the medians as JSON (the `BENCH_pr5.json` artifact).
fn bench_inference(json_path: Option<&str>) {
    banner("Bench — incremental vs naive inference; store stats hot path");
    const MAX_CYCLES: u64 = 100_000;
    let kb = std::sync::Arc::new(inference_kb());
    println!(
        "{:>7} {:>14} {:>14} {:>9} {:>15} {:>15}",
        "facts", "naive-ns", "incremental-ns", "speedup", "naive-matches", "incr-matches"
    );
    let mut rows = Vec::new();
    for n in [10usize, 100, 1000] {
        let facts = inference_facts(n);
        let runs = if n >= 1000 { 5 } else { 15 };
        let (naive_ns, naive_matches) = median_ns(runs, || {
            let mut engine = NaiveEngine::new((*kb).clone()).with_max_cycles(MAX_CYCLES);
            for fact in &facts {
                engine.insert(fact.clone());
            }
            engine.run().stats.match_attempts
        });
        let (incr_ns, incr_matches) = median_ns(runs, || {
            let mut engine = Engine::shared(std::sync::Arc::clone(&kb)).with_max_cycles(MAX_CYCLES);
            for fact in &facts {
                engine.insert(fact.clone());
            }
            engine.run().stats.match_attempts
        });
        let speedup = naive_ns as f64 / incr_ns.max(1) as f64;
        println!(
            "{n:>7} {naive_ns:>14} {incr_ns:>14} {speedup:>8.1}x {naive_matches:>15} {incr_matches:>15}"
        );
        rows.push(format!(
            "    {{\"facts\": {n}, \"naive_ns\": {naive_ns}, \"incremental_ns\": {incr_ns}, \
             \"speedup\": {speedup:.2}, \"naive_match_attempts\": {naive_matches}, \
             \"incremental_match_attempts\": {incr_matches}}}"
        ));
    }
    let store = inference_store(1000);
    let (store_ns, _) = median_ns(50, || {
        let mut acc = 0.0;
        for device in 0..5 {
            let device = format!("host-{device}");
            for metric in ["cpu.load.1", "storage.ram.used"] {
                let stats = store
                    .stats(&device, metric, 0, u64::MAX)
                    .expect("series populated");
                acc += stats.mean + stats.max;
                acc += store.latest(&device, metric).expect("series populated").1;
            }
        }
        acc.to_bits().count_ones() as u64
    });
    println!("store stats hot loop (10 series x 1000 points): {store_ns} ns");
    if let Some(path) = json_path {
        let json = format!(
            "{{\n  \"inference\": [\n{}\n  ],\n  \"store_stats_hot_loop_ns\": {store_ns}\n}}\n",
            rows.join(",\n")
        );
        if let Err(err) = std::fs::write(path, &json) {
            eprintln!("failed to write bench results to {path}: {err}");
            std::process::exit(1);
        }
        println!("bench results written to {path}");
    }
}

/// Store micro-benchmark: the chunked engine vs the `NaiveStore`
/// executable spec on the SNMP-shaped workload (twenty series: integer
/// gauges plus octet counters on a 60 s cadence) at 1k/100k/1M points.
/// Times ingest and a full windowed range-query sweep, and reports
/// bytes/sample. Prints a table; with a path, also writes the medians
/// as JSON (the `BENCH_pr8.json` artifact).
fn store_bench(json_path: Option<&str>) {
    banner("Store bench — naive spec vs chunked engine");
    println!("ingest + storage footprint:");
    println!(
        "{:>9} {:>13} {:>13} {:>8} {:>8} {:>8} {:>8}",
        "points", "naive-ins-ns", "chunk-ins-ns", "speedup", "naive-B", "chunk-B", "ratio"
    );
    let mut rows = Vec::new();
    let mut query_lines = Vec::new();
    for n in [1_000usize, 100_000, 1_000_000] {
        let records = store_workload(n);
        let runs = if n >= 1_000_000 {
            3
        } else if n >= 100_000 {
            5
        } else {
            15
        };
        let (naive_ingest_ns, _) = median_ns(runs, || NaiveStore::ingest(&records).len() as u64);
        let (chunked_ingest_ns, _) =
            median_ns(runs, || ManagementStore::ingest(&records).len() as u64);
        let naive = NaiveStore::ingest(&records);
        let chunked = ManagementStore::ingest(&records);
        // Two range-query shapes over every series' full retention
        // window: the capacity-report "daily peak" sweep (where the
        // chunked engine absorbs whole-chunk summaries without
        // decompressing) and the consolidation "mean per ten minutes"
        // sweep (which decodes every point).
        let (naive_peak_ns, naive_w) =
            median_ns(runs, || naive.sweep(1_440 * 60_000, AggKind::Max));
        let (chunked_peak_ns, chunked_w) =
            median_ns(runs, || chunked.sweep(1_440 * 60_000, AggKind::Max));
        assert_eq!(naive_w, chunked_w, "engines must agree");
        let (naive_mean_ns, naive_w) = median_ns(runs, || naive.sweep(10 * 60_000, AggKind::Mean));
        let (chunked_mean_ns, chunked_w) =
            median_ns(runs, || chunked.sweep(10 * 60_000, AggKind::Mean));
        assert_eq!(naive_w, chunked_w, "engines must agree");
        let naive_bps = naive.storage_bytes() as f64 / n as f64;
        let chunked_bps = chunked.storage_bytes() as f64 / n as f64;
        let ingest_speedup = naive_ingest_ns as f64 / chunked_ingest_ns.max(1) as f64;
        let peak_speedup = naive_peak_ns as f64 / chunked_peak_ns.max(1) as f64;
        let mean_speedup = naive_mean_ns as f64 / chunked_mean_ns.max(1) as f64;
        let ratio = naive_bps / chunked_bps;
        println!(
            "{n:>9} {naive_ingest_ns:>13} {chunked_ingest_ns:>13} {ingest_speedup:>7.1}x \
             {naive_bps:>8.2} {chunked_bps:>8.2} {ratio:>7.1}x"
        );
        query_lines.push(format!(
            "{n:>9} {naive_peak_ns:>13} {chunked_peak_ns:>13} {peak_speedup:>7.1}x \
             {naive_mean_ns:>13} {chunked_mean_ns:>13} {mean_speedup:>7.1}x"
        ));
        rows.push(format!(
            "    {{\"points\": {n}, \"naive_ingest_ns\": {naive_ingest_ns}, \
             \"chunked_ingest_ns\": {chunked_ingest_ns}, \"ingest_speedup\": {ingest_speedup:.2}, \
             \"naive_range_query_ns\": {naive_peak_ns}, \
             \"chunked_range_query_ns\": {chunked_peak_ns}, \
             \"range_query_speedup\": {peak_speedup:.2}, \
             \"naive_mean_query_ns\": {naive_mean_ns}, \
             \"chunked_mean_query_ns\": {chunked_mean_ns}, \
             \"mean_query_speedup\": {mean_speedup:.2}, \
             \"naive_bytes_per_sample\": {naive_bps:.2}, \
             \"chunked_bytes_per_sample\": {chunked_bps:.2}, \
             \"bytes_per_sample_reduction\": {ratio:.2}, \
             \"chunks\": {chunks}}}",
            chunks = chunked.chunk_count(),
        ));
    }
    println!("\nrange queries (peak = max/24 h windows, mean = mean/10 min windows):");
    println!(
        "{:>9} {:>13} {:>13} {:>8} {:>13} {:>13} {:>8}",
        "points", "peak-naive", "peak-chunk", "speedup", "mean-naive", "mean-chunk", "speedup"
    );
    for line in &query_lines {
        println!("{line}");
    }
    if let Some(path) = json_path {
        let json = format!("{{\n  \"store\": [\n{}\n  ]\n}}\n", rows.join(",\n"));
        if let Err(err) = std::fs::write(path, &json) {
            eprintln!("failed to write store bench results to {path}: {err}");
            std::process::exit(1);
        }
        println!("store bench results written to {path}");
    }
}

/// Overload experiment: a deliberately undersized grid (six collectors
/// on a tight cadence funnelling into one classifier) behind every
/// overload defence at once — bounded mailboxes with shed-by-priority,
/// the root's token-bucket admission gate, per-container circuit
/// breakers and collector pacing. Run twice on the deterministic
/// runtime; exits nonzero unless the burst actually shed messages, no
/// alert-class message was lost, the mailbox high-water stayed within
/// the cap, the replay is bit-identical and the audit is empty — so CI
/// can use it as a smoke check.
fn overload(seed: u64, telemetry: Option<&TelemetryHandle>, runtime: RuntimeChoice) {
    banner(&format!(
        "Overload — burst traffic vs bounded mailboxes (seed {seed})"
    ));
    const CAP: usize = 3;
    let horizon = 20 * 60_000;
    println!(
        "config: mailbox cap {CAP} shed-by-priority, token bucket 4 (+2/window), \
         breakers on, pacing on"
    );
    let run_once = |telemetry: Option<&TelemetryHandle>| {
        let protection = OverloadConfig::new()
            .mailbox(CAP, OverflowPolicy::ShedByPriority)
            .admission(AdmissionConfig {
                bucket_capacity: 4,
                refill_per_window: 2,
                load_threshold: 0.9,
            })
            .breaker(BreakerConfig::default())
            .collector_pacing(true);
        let mut builder = ManagementGrid::builder()
            .network(standard_network(2, 4, seed))
            .collectors_per_site(3)
            .analyzer("pg-1", 1.0, ALL_SKILLS)
            .analyzer("pg-2", 1.0, ALL_SKILLS)
            .recovery(RecoveryConfig::seeded(seed))
            .overload(protection)
            .fault(ScheduledFault::from(
                "site-0-dev2",
                FaultKind::CpuRunaway,
                120_000,
            ));
        if let Some(t) = telemetry {
            builder = builder.telemetry(t.clone());
        }
        let (report, stats) = run_grid(builder, runtime, horizon, 60_000);
        (report, stats.expect("bounded mailboxes configured"))
    };
    let (first, stats) = run_once(telemetry);
    // Fresh sink for the replay (see `chaos`): keeps the rendered
    // reports comparable when the first run carries telemetry.
    let fresh = telemetry.map(|_| Telemetry::new());
    let (second, second_stats) = run_once(fresh.as_ref());

    println!("shed by class:");
    for class in MessageClass::ALL {
        println!("  {:<8} {}", class.as_label(), stats.shed(class));
    }
    println!("shed total: {}", stats.shed_total());
    println!("deferred deliveries: {}", stats.deferred);
    println!("mailbox high-water: {} (cap {CAP})", stats.highwater);
    println!("admission rejected: {}", first.rejected);
    println!("paced polls: {}", first.paced_polls);
    println!(
        "work done under pressure: {} tasks completed, {} alerts raised",
        first.tasks_completed,
        first.alerts.len()
    );
    let identical = first == second && stats == second_stats;
    println!("deterministic replay: {}", verdict(identical));
    let violations = first.audit();
    let alerts_shed = stats.shed(MessageClass::Alert);
    let ok = stats.shed_total() > 0
        && alerts_shed == 0
        && stats.highwater <= CAP
        && identical
        && violations.is_empty();
    if ok {
        println!(
            "overload check PASSED ({} shed, {} alerts lost, high-water {} <= cap {CAP})",
            stats.shed_total(),
            alerts_shed,
            stats.highwater
        );
    } else {
        eprintln!(
            "overload check FAILED (shed: {}, alerts shed: {alerts_shed}, \
             high-water: {}, identical: {identical}, violations: {})",
            stats.shed_total(),
            stats.highwater,
            listed(&violations)
        );
        std::process::exit(1);
    }
}

/// Rules for the 10k-device shard throughput tier. The default rule set
/// includes a two-pattern cross-device join (`correlated-cpu`) whose
/// match cost is quadratic in device count *for every shard count* — at
/// 10 000 devices it would dwarf the pipeline under measurement (the
/// same reason `scenario_throughput.rs` trims its rule set). The bench
/// keeps single-pattern alert rules plus a stats rule that still forces
/// the per-series consolidation sweep.
const SHARD_BENCH_RULES: &str = r#"
rule "high-cpu" salience 10 {
    when cpu(device: ?d, value: ?v)
    if ?v > 90
    then emit critical ?d "cpu load at ?v% on ?d"
}
rule "disk-pressure" salience 8 {
    when disk(device: ?d, value: ?v)
    if ?v >= 85
    then emit warning ?d "disk ?v% full on ?d"
}
rule "memory-pressure" salience 8 {
    when mem(device: ?d, value: ?v)
    if ?v >= 90
    then emit warning ?d "memory ?v% used on ?d"
}
rule "sustained-cpu" salience 5 {
    when stat(device: ?d, metric: "cpu.load.1", mean: ?m)
    if ?m > 80
    then emit warning ?d "sustained cpu pressure on ?d (mean ?m%)"
}
"#;

/// Sharded-federation experiment: the grid split into `shards` peer
/// domains (devices partitioned by site, one root + broker scope +
/// analyzer tier per shard) connected by the federation protocol. Two
/// deterministic phases with fully deterministic stdout, so CI can diff
/// a run against its committed golden file:
///
/// 1. **Cross-domain correlation** — CPU runaways injected into two
///    different shards; the run executes twice on the stepper and once
///    on the pool runtime (all three byte-identical), and a
///    `correlated-cpu` alert must fire on a `fed-s…` device alias,
///    proving a peer's summary correlated with a local fact.
/// 2. **Spill-over conservation** — a tight admission gate forces the
///    roots to spill work to their peers; every task in the federation
///    must be counted exactly once (an empty audit), again
///    bit-identically across a replay and the pool runtime.
///
/// With `--shard-bench-json <path>`, a third phase times a
/// 10 000-device scenario on the pool runtime at 1 shard vs `shards`
/// and writes the measured throughputs to `<path>` (wall-clock output
/// — never part of the CI diff).
fn sharded(shards: usize, seed: u64, json_path: Option<&str>) {
    banner(&format!(
        "Sharded — federated domain grids ({shards} shard(s), seed {seed})"
    ));
    let sites = 2 * shards;
    let horizon = 20 * 60_000;
    println!("partitioning: {sites} sites over {shards} shard(s) (site i -> shard i mod {shards})");
    // The same analyzer pool regardless of shard count: any throughput
    // difference comes from the partitioning, not from extra capacity.
    let analyzer_pool = shards.max(2);
    let with_analyzers = |mut b: GridBuilder| {
        for a in 0..analyzer_pool {
            b = b.analyzer(format!("pg-{}", a + 1), 1.0, ALL_SKILLS);
        }
        b
    };

    // Phase 1 — cross-domain correlation under simultaneous runaways.
    println!("schedule:");
    println!("  t= 120s CpuRunaway on site-0-dev2 (shard 0)");
    if shards > 1 {
        println!("  t= 180s CpuRunaway on site-1-dev2 (shard 1)");
    }
    let build_correlation = || {
        let mut b = ManagementGrid::builder()
            .network(standard_network(sites, 4, seed))
            .collectors_per_site(1)
            .shards(shards)
            .recovery(RecoveryConfig::seeded(seed))
            .fault(ScheduledFault::from(
                "site-0-dev2",
                FaultKind::CpuRunaway,
                120_000,
            ));
        if shards > 1 {
            b = b.fault(ScheduledFault::from(
                "site-1-dev2",
                FaultKind::CpuRunaway,
                180_000,
            ));
        }
        with_analyzers(b)
    };
    let first = run_grid(
        build_correlation(),
        RuntimeChoice::Deterministic,
        horizon,
        60_000,
    )
    .0;
    let second = run_grid(
        build_correlation(),
        RuntimeChoice::Deterministic,
        horizon,
        60_000,
    )
    .0;
    let pool = run_grid(build_correlation(), RuntimeChoice::Pool, horizon, 60_000).0;
    let per_shard = if first.shards == 1 {
        "single domain".to_owned()
    } else {
        first
            .shard_created
            .iter()
            .enumerate()
            .map(|(s, n)| format!("s{s} {n}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    println!(
        "tasks: {} created ({per_shard}), {} completed, {} outstanding at horizon",
        first.tasks_created,
        first.tasks_completed,
        first.outstanding.len(),
    );
    println!(
        "federation: {} summaries sent, {} received, {} findings injected",
        first.federation.summaries_sent,
        first.federation.summaries_received,
        first.federation.injected_findings,
    );
    // Prefer the two-fact correlation (a peer's summary joined with a
    // local fact); any alert on a `fed-s…` alias still proves injection.
    let fed_alert = first
        .alerts
        .iter()
        .find(|a| a.rule == "correlated-cpu" && a.device.starts_with("fed-s"))
        .or_else(|| first.alerts.iter().find(|a| a.device.starts_with("fed-s")))
        .cloned();
    match &fed_alert {
        Some(a) => println!("cross-domain correlation: {} fired on {}", a.rule, a.device),
        None => println!("cross-domain correlation: no federated alert"),
    }
    println!(
        "unaccounted tasks: {}, lost tasks: {}",
        first.unaccounted_tasks(),
        first.lost_tasks().len()
    );
    let replay_a = first == second;
    let pool_a = first == pool;
    println!("deterministic replay: {}", verdict(replay_a));
    println!("pool runtime: {}", verdict(pool_a));

    // Phase 2 — spill-over conservation under a tight admission gate.
    println!("\nspill-over under admission pressure (token bucket 2, +1/window):");
    let build_spill = || {
        let protection = OverloadConfig::new().admission(AdmissionConfig {
            bucket_capacity: 2,
            refill_per_window: 1,
            load_threshold: 0.9,
        });
        let b = ManagementGrid::builder()
            .network(standard_network(sites, 6, seed))
            .collectors_per_site(2)
            .shards(shards)
            .recovery(RecoveryConfig::seeded(seed))
            .overload(protection);
        with_analyzers(b)
    };
    let s_first = run_grid(build_spill(), RuntimeChoice::Deterministic, horizon, 60_000).0;
    let s_second = run_grid(build_spill(), RuntimeChoice::Deterministic, horizon, 60_000).0;
    let s_pool = run_grid(build_spill(), RuntimeChoice::Pool, horizon, 60_000).0;
    println!(
        "  tasks: {} created, {} completed, {} rejected at the gate, {} outstanding",
        s_first.tasks_created,
        s_first.tasks_completed,
        s_first.rejected,
        s_first.outstanding.len(),
    );
    println!(
        "  federation: {} spilled out, {} absorbed by peers, {} confirmed home",
        s_first.federation.spilled_out,
        s_first.federation.spilled_in,
        s_first.federation.spill_completed,
    );
    println!(
        "  unaccounted tasks: {}, lost tasks: {}",
        s_first.unaccounted_tasks(),
        s_first.lost_tasks().len()
    );
    let replay_b = s_first == s_second;
    let pool_b = s_first == s_pool;
    println!("  deterministic replay: {}", verdict(replay_b));
    println!("  pool runtime: {}", verdict(pool_b));

    let fed_exercised = shards == 1
        || (first.federation.summaries_sent > 0
            && fed_alert.is_some()
            && s_first.federation.spilled_out > 0
            && s_first.federation.spill_completed > 0);
    let (violations_a, violations_b) = (first.audit(), s_first.audit());
    let all_identical = replay_a && pool_a && replay_b && pool_b;
    if fed_exercised && violations_a.is_empty() && violations_b.is_empty() && all_identical {
        println!(
            "sharded check PASSED ({shards} shard(s), {} spilled, {} cross-domain alert(s), \
             0 unaccounted, 0 lost)",
            s_first.federation.spilled_out,
            u64::from(fed_alert.is_some()),
        );
    } else {
        eprintln!(
            "sharded check FAILED (federation exercised: {fed_exercised}, \
             violations: {}/{}, identical: {replay_a}/{pool_a}/{replay_b}/{pool_b})",
            listed(&violations_a),
            listed(&violations_b)
        );
        std::process::exit(1);
    }

    // Phase 3 — 10k-device throughput, only when an artifact path was
    // given (wall-clock output, deliberately outside the CI diff).
    if let Some(path) = json_path {
        shard_throughput_bench(shards, seed, path);
    }
}

/// Times the 10 000-device scenario on the pool runtime at 1 shard vs
/// `shards`, prints the comparison, and writes the `BENCH_pr10.json`
/// artifact. Scenario throughput is records stored per wall-second:
/// both configurations ingest the identical record stream (asserted),
/// so the ratio is purely the wall-time ratio. Analysis tasks are
/// site-scoped at any shard count, so the ratio measures what domain
/// partitioning adds on top: per-shard brokering, stores and level-3
/// sweeps, and parallelism when the host has the cores for it.
fn shard_throughput_bench(shards: usize, seed: u64, path: &str) {
    const SITES: usize = 40;
    const DEVICES_PER_SITE: usize = 250;
    const HORIZON_MS: u64 = 5 * 60_000;
    const TICK_MS: u64 = 60_000;
    let devices = SITES * DEVICES_PER_SITE;
    let analyzer_pool = shards.max(2);
    println!(
        "\nthroughput: {devices} devices ({SITES} sites x {DEVICES_PER_SITE}), \
         pool runtime, {analyzer_pool} analyzers, {} simulated min",
        HORIZON_MS / 60_000
    );
    let run_at = |n: usize| {
        let mut b = ManagementGrid::builder()
            .network(standard_network(SITES, DEVICES_PER_SITE, seed))
            .collectors_per_site(1)
            .rules(SHARD_BENCH_RULES)
            .shards(n);
        for a in 0..analyzer_pool {
            b = b.analyzer(format!("pg-{}", a + 1), 1.0, ALL_SKILLS);
        }
        let mut grid = b.build_pool();
        let start = std::time::Instant::now();
        let report = grid.run(HORIZON_MS, TICK_MS);
        (report, start.elapsed())
    };
    println!(
        "{:>7} {:>12} {:>15} {:>17} {:>9}",
        "shards", "wall-ms", "records-stored", "records-per-sec", "speedup"
    );
    let (base_report, base_wall) = run_at(1);
    let base_tput = base_report.records_stored as f64 / base_wall.as_secs_f64();
    println!(
        "{:>7} {:>12} {:>15} {:>17.0} {:>8.2}x",
        1,
        base_wall.as_millis(),
        base_report.records_stored,
        base_tput,
        1.0
    );
    let (fed_report, fed_wall) = run_at(shards);
    // The federated stores hold the identical scenario stream plus the
    // peer findings the summaries injected; throughput counts only the
    // scenario records so both configurations share one numerator.
    let fed_scenario = fed_report.records_stored - fed_report.federation.injected_findings as usize;
    assert_eq!(
        base_report.records_stored, fed_scenario,
        "both configurations must ingest the identical record stream"
    );
    let fed_tput = fed_scenario as f64 / fed_wall.as_secs_f64();
    let speedup = fed_tput / base_tput;
    println!(
        "{:>7} {:>12} {:>15} {:>17.0} {:>8.2}x",
        shards,
        fed_wall.as_millis(),
        fed_scenario,
        fed_tput,
        speedup
    );
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let json = format!(
        "{{\n  \"devices\": {devices},\n  \"sites\": {SITES},\n  \
         \"devices_per_site\": {DEVICES_PER_SITE},\n  \"seed\": {seed},\n  \
         \"horizon_ms\": {HORIZON_MS},\n  \"tick_ms\": {TICK_MS},\n  \
         \"runtime\": \"pool\",\n  \"host_cpus\": {host_cpus},\n  \
         \"analyzers\": {analyzer_pool},\n  \
         \"baseline\": {{\"shards\": 1, \"wall_ms\": {}, \"records_stored\": {}, \
         \"records_per_sec\": {:.0}}},\n  \
         \"federated\": {{\"shards\": {shards}, \"wall_ms\": {}, \"records_stored\": {}, \
         \"records_per_sec\": {:.0}}},\n  \"speedup\": {speedup:.2}\n}}\n",
        base_wall.as_millis(),
        base_report.records_stored,
        base_tput,
        fed_wall.as_millis(),
        fed_scenario,
        fed_tput,
    );
    if let Err(err) = std::fs::write(path, &json) {
        eprintln!("failed to write shard bench results to {path}: {err}");
        std::process::exit(1);
    }
    println!("shard bench results written to {path}");
}
