//! Wall-clock throughput of the Fig. 2 scenario on both execution
//! models — the deterministic stepper and the work-stealing pool.
//!
//! Two tiers:
//!
//! * `fig2_grid/*/64` — the full [`ManagementGrid`] (real collectors,
//!   classifier, broker, analyzers, rules) at 64 collector containers.
//!   Beyond a few hundred containers the grid's *analysis* stage
//!   dominates: rule matching and store reads cost the same on every
//!   runtime, so they would both dwarf and serialize a runtime
//!   comparison.
//! * `fig2_pipeline/*/{64,256,1024}` — the same Fig. 2 topology
//!   (per-site collector containers → classifier → processor root →
//!   analyzers → interface sink) with synthetic lightweight agents, so
//!   the measured cost *is* the runtime layer: message batching,
//!   routing, per-container scheduling.
//!
//! Both runtimes produce byte-identical grid reports on seeded
//! scenarios (asserted in `tests/architecture_comparison.rs`); this
//! bench measures what that equivalence costs.

use agentgrid::grid::ManagementGrid;
use agentgrid_bench::ALL_SKILLS;
use agentgrid_net::{Device, DeviceKind, Network};
use agentgrid_platform::{
    AclMessage, Agent, AgentCtx, AgentId, Performative, Platform, PoolRuntime, Runtime, Telemetry,
    Value,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

/// Simulated minutes per full-grid run.
const GRID_MINUTES: u64 = 2;
/// Collector containers in the full-grid tier (see module docs for why
/// this tier does not scale to 1k).
const GRID_CONTAINERS: usize = 64;
/// Clock ticks driven through the synthetic pipeline.
const PIPELINE_TICKS: u64 = 10;
/// Observations per synthetic collector batch.
const BATCH_OBS: u64 = 16;

/// One cheap rule keeps the full-grid tier's rule engine from dominating
/// the runtime comparison while still exercising the alert path.
const BENCH_RULES: &str = r#"
rule "high-cpu" salience 10 {
    when cpu(device: ?d, value: ?v)
    if ?v > 90
    then emit critical ?d "cpu load at ?v% on ?d"
}
"#;

fn slim_network(sites: usize, seed: u64) -> Network {
    let mut net = Network::new();
    for s in 0..sites {
        let site = format!("site-{s}");
        net.add_device(
            Device::builder(format!("{site}-dev0"), DeviceKind::Server)
                .site(&site)
                .interfaces(1)
                .cpus(1)
                .ram_units(1)
                .disk_units(1)
                .seed(seed.wrapping_add(s as u64))
                .build(),
        );
    }
    net
}

// --- Synthetic Fig. 2 pipeline ------------------------------------------

/// Emits one synthetic collected batch per clock advance — the cadence
/// gate mirrors the real collector's poll period, so repeated `step`s at
/// the same simulated time (while the pipeline drains) fire it once.
struct SimCollector {
    classifier: AgentId,
    site: u64,
    last_fired: Option<u64>,
}
impl Agent for SimCollector {
    fn on_tick(&mut self, ctx: &mut AgentCtx<'_>) {
        let now = ctx.now_ms();
        if self.last_fired == Some(now) {
            return;
        }
        self.last_fired = Some(now);
        let observations = Value::list((0..BATCH_OBS).map(|m| {
            let v = ((now / 1_000) * 31 + m * 7 + self.site) % 997;
            Value::map([
                ("metric", Value::Int(m as i64)),
                ("value", Value::Float(v as f64 * 0.1)),
            ])
        }));
        let batch = AclMessage::builder(Performative::Inform)
            .sender(ctx.self_id().clone())
            .receiver(self.classifier.clone())
            .content(Value::map([
                ("concept", Value::symbol("collected-batch")),
                ("site", Value::Int(self.site as i64)),
                ("observations", observations),
            ]))
            .build()
            .unwrap();
        ctx.send(batch);
    }
}

/// Counts the batch's observations and notifies the root — the data-ready
/// hop of Fig. 2.
struct SimClassifier {
    root: AgentId,
}
impl Agent for SimClassifier {
    fn on_message(&mut self, msg: &AclMessage, ctx: &mut AgentCtx<'_>) {
        let size = msg
            .content()
            .get("observations")
            .and_then(Value::as_list)
            .map(|l| l.len())
            .unwrap_or(0);
        let notify = AclMessage::builder(Performative::Inform)
            .sender(ctx.self_id().clone())
            .receiver(self.root.clone())
            .content(Value::map([
                ("concept", Value::symbol("data-ready")),
                ("size", Value::Int(size as i64)),
            ]))
            .build()
            .unwrap();
        ctx.send(notify);
    }
}

/// Awards each data-ready notification to an analyzer, round-robin.
struct SimRoot {
    analyzers: Vec<AgentId>,
    next: usize,
}
impl Agent for SimRoot {
    fn on_message(&mut self, msg: &AclMessage, ctx: &mut AgentCtx<'_>) {
        let target = &self.analyzers[self.next % self.analyzers.len()];
        self.next += 1;
        let award = AclMessage::builder(Performative::Request)
            .sender(ctx.self_id().clone())
            .receiver(target.clone())
            .content(msg.content().clone())
            .build()
            .unwrap();
        ctx.send(award);
    }
}

/// Raises an alert to the interface sink for every eighth task.
struct SimAnalyzer {
    interface: AgentId,
    tasks: u64,
}
impl Agent for SimAnalyzer {
    fn on_message(&mut self, _msg: &AclMessage, ctx: &mut AgentCtx<'_>) {
        self.tasks += 1;
        if self.tasks.is_multiple_of(8) {
            let alert = AclMessage::builder(Performative::Inform)
                .sender(ctx.self_id().clone())
                .receiver(self.interface.clone())
                .content(Value::map([("concept", Value::symbol("alert"))]))
                .build()
                .unwrap();
            ctx.send(alert);
        }
    }
}

struct Sink;
impl Agent for Sink {}

/// Wires the Fig. 2 topology on any runtime and drives `PIPELINE_TICKS`
/// simulated minutes through it. Returns the dead-letter count (always
/// zero — returned so the work cannot be optimized away).
fn run_pipeline<R: Runtime>(containers: usize) -> usize {
    let mut rt = R::create("bench");
    rt.add_container("ig");
    let interface = rt.spawn_agent("ig", "interface", Sink).unwrap();
    rt.add_container("pg-1");
    rt.add_container("pg-2");
    let analyzers = vec![
        rt.spawn_agent(
            "pg-1",
            "an-1",
            SimAnalyzer {
                interface: interface.clone(),
                tasks: 0,
            },
        )
        .unwrap(),
        rt.spawn_agent(
            "pg-2",
            "an-2",
            SimAnalyzer {
                interface,
                tasks: 0,
            },
        )
        .unwrap(),
    ];
    rt.add_container("pg-root-ct");
    let root = rt
        .spawn_agent("pg-root-ct", "root", SimRoot { analyzers, next: 0 })
        .unwrap();
    rt.add_container("clg");
    let classifier = rt
        .spawn_agent("clg", "classifier", SimClassifier { root })
        .unwrap();
    for site in 0..containers {
        let container = format!("cg-{site}");
        rt.add_container(&container);
        rt.hint_parallel(&container);
        rt.spawn_agent(
            &container,
            &format!("col-{site}"),
            SimCollector {
                classifier: classifier.clone(),
                site: site as u64,
                last_fired: None,
            },
        )
        .unwrap();
    }
    for t in 1..=PIPELINE_TICKS {
        rt.run_until_idle(t * 60_000);
    }
    rt.dead_letter_count()
}

fn bench_scenario_throughput(c: &mut Criterion) {
    let mut grid = c.benchmark_group("fig2_grid");
    grid.sample_size(10);
    let containers = GRID_CONTAINERS;
    let scenario = |containers: usize| {
        ManagementGrid::builder()
            .network(slim_network(containers, 11))
            .collectors_per_site(1)
            .rules(BENCH_RULES)
            .analyzer("pg-1", 1.0, ALL_SKILLS)
            .analyzer("pg-2", 1.0, ALL_SKILLS)
    };
    grid.bench_function(BenchmarkId::new("deterministic", containers), |b| {
        b.iter(|| {
            let mut g = scenario(containers).build();
            black_box(g.run(GRID_MINUTES * 60_000, 60_000).records_stored)
        })
    });
    grid.bench_function(BenchmarkId::new("pool", containers), |b| {
        b.iter(|| {
            let mut g = scenario(containers).build_pool();
            black_box(g.run(GRID_MINUTES * 60_000, 60_000).records_stored)
        })
    });
    grid.finish();

    let mut pipeline = c.benchmark_group("fig2_pipeline");
    pipeline.sample_size(10);
    for containers in [64usize, 256, 1024] {
        pipeline.bench_function(BenchmarkId::new("deterministic", containers), |b| {
            b.iter(|| black_box(run_pipeline::<Platform>(containers)))
        });
        pipeline.bench_function(BenchmarkId::new("pool", containers), |b| {
            b.iter(|| black_box(run_pipeline::<PoolRuntime>(containers)))
        });
    }
    pipeline.finish();

    // Observability tax on the full grid: the identical deterministic
    // run bare, with the metrics/span pillars attached, and with the
    // flight recorder enabled on top. The bare run is the zero line
    // every release must hold — telemetry off costs nothing but the
    // per-hook `Option`/atomic check.
    let mut overhead = c.benchmark_group("telemetry_overhead");
    overhead.sample_size(10);
    overhead.bench_function(BenchmarkId::new("off", containers), |b| {
        b.iter(|| {
            let mut g = scenario(containers).build();
            black_box(g.run(GRID_MINUTES * 60_000, 60_000).records_stored)
        })
    });
    overhead.bench_function(BenchmarkId::new("metrics", containers), |b| {
        b.iter(|| {
            let telemetry = Telemetry::new();
            let mut g = scenario(containers).telemetry(telemetry).build();
            black_box(g.run(GRID_MINUTES * 60_000, 60_000).records_stored)
        })
    });
    overhead.bench_function(BenchmarkId::new("metrics_recorder", containers), |b| {
        b.iter(|| {
            let telemetry = Telemetry::new();
            telemetry.flight_recorder().enable();
            let mut g = scenario(containers).telemetry(telemetry).build();
            black_box(g.run(GRID_MINUTES * 60_000, 60_000).records_stored)
        })
    });
    overhead.finish();
}

criterion_group!(benches, bench_scenario_throughput);
criterion_main!(benches);
