//! Integration tests asserting the paper's comparative claims (§4,
//! Figure 6) hold in the reproduction — both on the deterministic cost
//! model and between the live implementations.

use agentgrid_suite::core::scenario::run_architecture;
use agentgrid_suite::des::ResourceKind;
use agentgrid_suite::net::{Device, DeviceKind, FaultKind, Network, ScheduledFault};
use agentgrid_suite::{Architecture, CostModel, ManagementGrid, Workload};

fn reports(rounds: usize) -> [agentgrid_suite::des::SimReport; 3] {
    let costs = CostModel::table1();
    Architecture::paper_configs()
        .map(|arch| run_architecture(arch, Workload::rounds(rounds), &costs))
}

#[test]
fn fig6a_centralized_manager_cpu_is_saturated() {
    let [cen, _, _] = reports(10);
    assert!(
        cen.utilization("manager", ResourceKind::Cpu) > 0.95,
        "the paper: 'its processor becomes the bottleneck'"
    );
    let (host, kind, _) = cen.bottleneck().unwrap();
    assert_eq!((host, kind), ("manager", ResourceKind::Cpu));
}

#[test]
fn fig6a_centralized_has_highest_manager_network_use() {
    let [cen, mas, _] = reports(10);
    assert!(
        cen.busy_time("manager", ResourceKind::Net)
            > 2 * mas.busy_time("manager", ResourceKind::Net),
        "raw-format transmission must dominate the centralized manager's NIC"
    );
}

#[test]
fn fig6b_multiagent_keeps_centralized_analysis_bottleneck() {
    let [_, mas, _] = reports(10);
    let (host, kind, _) = mas.bottleneck().unwrap();
    assert_eq!(
        (host, kind),
        ("manager", ResourceKind::Cpu),
        "the paper: 'keeps a centralized data analysis structure, which, again, is the system bottleneck'"
    );
}

#[test]
fn fig6c_grid_has_lowest_peak_utilization_and_makespan() {
    let [cen, mas, grid] = reports(10);
    assert!(grid.peak_utilization() < mas.peak_utilization());
    assert!(mas.peak_utilization() <= cen.peak_utilization() + 1e-9);
    assert!(grid.makespan() < mas.makespan());
    assert!(mas.makespan() < cen.makespan());
}

#[test]
fn fig6c_no_grid_host_dominates() {
    let [_, _, grid] = reports(10);
    let total_cpu: u64 = grid
        .hosts()
        .iter()
        .map(|h| grid.busy_time(h, ResourceKind::Cpu))
        .sum();
    for host in grid.hosts() {
        assert!(
            grid.busy_time(host, ResourceKind::Cpu) * 2 < total_cpu + 1,
            "no single grid host may carry half the CPU work ({host})"
        );
    }
}

#[test]
fn crossover_exists_and_is_small() {
    // The paper: grids pay off "when the volume of information ... is
    // relatively large"; traditional approaches win in "less busy
    // environments". Both halves must hold.
    let costs = CostModel::table1();
    let mean = |arch, rounds| {
        run_architecture(arch, Workload::rounds(rounds), &costs)
            .mean_completion()
            .unwrap()
    };
    let grid_arch = Architecture::AgentGrid {
        collectors: 3,
        analyzers: 2,
    };
    // Tiny workload: centralized is better (no distribution overhead).
    assert!(
        mean(Architecture::Centralized, 1) < mean(grid_arch, 1),
        "at 1 round the centralized manager must win"
    );
    // Paper-scale workload: the grid must win clearly.
    assert!(
        mean(grid_arch, 10) * 2.0 < mean(Architecture::Centralized, 10),
        "at 10 rounds the grid must be at least 2x better"
    );
}

#[test]
fn scaling_adding_analyzers_never_hurts() {
    let costs = CostModel::table1();
    let mut previous = u64::MAX;
    for analyzers in [1usize, 2, 4, 8] {
        let report = run_architecture(
            Architecture::AgentGrid {
                collectors: 3,
                analyzers,
            },
            Workload::rounds(50),
            &costs,
        );
        assert!(
            report.makespan() <= previous,
            "makespan must be non-increasing in analyzer count"
        );
        previous = report.makespan();
    }
}

#[test]
fn raw_factor_drives_the_centralized_network_penalty() {
    // Ablation: with raw_factor = 1 (pre-parsed data on the wire), the
    // centralized network advantage of collectors disappears.
    let workload = Workload::paper();
    let with_penalty = run_architecture(Architecture::Centralized, workload, &CostModel::table1());
    let without_penalty = run_architecture(
        Architecture::Centralized,
        workload,
        &CostModel::table1().with_raw_factor(1),
    );
    assert_eq!(
        with_penalty.busy_time("manager", ResourceKind::Net),
        3 * without_penalty.busy_time("manager", ResourceKind::Net)
    );
}

/// The full live management grid — identical wiring and agent code —
/// must behave identically on the deterministic stepper and on the
/// work-stealing pool: the same fault detected, nothing lost in transit,
/// and the same report to the byte.
#[test]
fn live_grid_behaves_consistently_on_both_runtimes() {
    const ALL_SKILLS: [&str; 8] = [
        "cpu",
        "memory",
        "disk",
        "interface",
        "process",
        "system",
        "other",
        "correlation",
    ];
    let network = || {
        let mut net = Network::new();
        for i in 0..3 {
            net.add_device(
                Device::builder(format!("srv-{i}"), DeviceKind::Server)
                    .site("hq")
                    .seed(i)
                    .build(),
            );
        }
        net
    };
    let builder = || {
        ManagementGrid::builder()
            .network(network())
            .analyzer("pg-1", 1.0, ALL_SKILLS)
            .analyzer("pg-2", 1.0, ALL_SKILLS)
            .fault(ScheduledFault::from("srv-0", FaultKind::CpuRunaway, 60_000))
    };

    let deterministic = builder().build().run(6 * 60_000, 60_000);
    let pool = builder().build_pool().run(6 * 60_000, 60_000);

    for (name, report) in [("deterministic", &deterministic), ("pool", &pool)] {
        assert!(
            report.records_stored > 0,
            "{name}: collectors fed the store"
        );
        assert!(
            !report.assignments.is_empty(),
            "{name}: root brokered tasks"
        );
        assert_eq!(report.dead_letters, 0, "{name}: nothing lost in transit");
        assert!(
            report
                .alerts
                .iter()
                .any(|a| a.rule == "high-cpu" && a.device == "srv-0"),
            "{name}: the injected CPU fault must be detected; alerts: {:?}",
            report.alerts
        );
    }
    assert_eq!(deterministic, pool);
}

/// Telemetry is part of the cross-runtime contract: the same
/// message-driven scenario must produce byte-identical counters —
/// global deliveries, dead letters, per-container delivered/sent and
/// per-stage rollups — whether it runs on the deterministic stepper or
/// on the pool, with both containers on the pool's parallel phase.
#[test]
fn telemetry_counters_match_across_runtimes() {
    use agentgrid_suite::acl::{AclMessage, AgentId, Performative, Value};
    use agentgrid_suite::platform::{
        Agent, AgentCtx, Platform, PoolRuntime, Runtime, Telemetry, TelemetryHandle,
    };

    /// Forwards every request as one multicast to a sink and a ghost
    /// (the ghost leg dead-letters).
    struct Forwarder {
        sink: AgentId,
        ghost: AgentId,
    }
    impl Agent for Forwarder {
        fn on_message(&mut self, msg: &AclMessage, ctx: &mut AgentCtx<'_>) {
            if msg.performative() != Performative::Request {
                return;
            }
            let fanout = AclMessage::builder(Performative::Inform)
                .sender(ctx.self_id().clone())
                .receiver(self.sink.clone())
                .receiver(self.ghost.clone())
                .content(msg.content().clone())
                .build()
                .unwrap();
            ctx.send(fanout);
        }
    }
    struct Sink;
    impl Agent for Sink {}

    const REQUESTS: u64 = 5;
    fn scenario<R: Runtime>() -> TelemetryHandle {
        let telemetry = Telemetry::new();
        telemetry.set_stage("front", "ingress");
        telemetry.set_stage("back", "egress");
        let mut rt = R::create("x");
        rt.set_telemetry(telemetry.clone());
        for container in ["front", "back"] {
            rt.add_container(container);
            rt.hint_parallel(container);
        }
        let sink = rt.spawn_agent("back", "sink", Sink).unwrap();
        rt.spawn_agent(
            "front",
            "fwd",
            Forwarder {
                sink,
                ghost: AgentId::with_platform("ghost", "x"),
            },
        )
        .unwrap();
        for _ in 0..REQUESTS {
            let request = AclMessage::builder(Performative::Request)
                .sender(AgentId::new("driver"))
                .receiver(AgentId::with_platform("fwd", "x"))
                .content(Value::symbol("work"))
                .build()
                .unwrap();
            rt.post(request);
        }
        rt.run_until_idle(0);
        telemetry
    }

    let det = scenario::<Platform>();
    let pool = scenario::<PoolRuntime>();

    // 5 requests into fwd + 5 fanouts into sink; each fanout's ghost leg
    // dead-letters.
    assert_eq!(det.delivered_total(), 2 * REQUESTS);
    assert_eq!(det.delivered_total(), pool.delivered_total());
    assert_eq!(det.dead_letter_total(), REQUESTS);
    assert_eq!(det.dead_letter_total(), pool.dead_letter_total());

    let counters = |t: &TelemetryHandle| {
        t.container_stats()
            .into_iter()
            .map(|s| (s.container, s.delivered, s.sent, s.handled, s.mailbox_depth))
            .collect::<Vec<_>>()
    };
    assert_eq!(counters(&det), counters(&pool));

    for stage in ["ingress", "egress"] {
        let labels = [("stage", stage)];
        assert_eq!(
            det.snapshot()
                .counter("agentgrid_stage_messages_total", &labels),
            pool.snapshot()
                .counter("agentgrid_stage_messages_total", &labels),
            "stage `{stage}` counters must match"
        );
    }
}

/// Recovery parity: the same seeded [`ChaosPlan`] — crash, restart,
/// transport-fault windows — must drive both runtimes to the same
/// outcome, to the byte, with zero permanently lost tasks. The
/// deterministic runtime must further be bit-identical across two
/// invocations of the same seed.
#[test]
fn chaos_recovery_is_consistent_across_runtimes() {
    use agentgrid_suite::core::chaos::ChaosPlan;
    use agentgrid_suite::core::recovery::RecoveryConfig;

    const ALL_SKILLS: [&str; 8] = [
        "cpu",
        "memory",
        "disk",
        "interface",
        "process",
        "system",
        "other",
        "correlation",
    ];
    let seed = 42u64;
    let horizon = 18 * 60_000;
    let plan = ChaosPlan::seeded(seed, &["pg-1".into(), "pg-2".into()], horizon);
    assert!(!plan.is_empty());
    let builder = || {
        let mut net = Network::new();
        for i in 0..3 {
            net.add_device(
                Device::builder(format!("srv-{i}"), DeviceKind::Server)
                    .site("hq")
                    .seed(i)
                    .build(),
            );
        }
        ManagementGrid::builder()
            .network(net)
            .collectors_per_site(1)
            .analyzer("pg-1", 1.0, ALL_SKILLS)
            .analyzer("pg-2", 1.0, ALL_SKILLS)
            .recovery(RecoveryConfig::seeded(seed))
            .chaos(plan.clone())
    };

    let det = builder().build().run(horizon, 60_000);
    let det_again = builder().build().run(horizon, 60_000);
    let pool = builder().build_pool().run(horizon, 60_000);

    // Determinism first: same seed, same everything, to the byte.
    assert_eq!(det, det_again);

    // Cross-runtime parity: the chaos schedule runs on simulated time and
    // the pool merges its outboxes in the stepper's order, so the same
    // plan yields the same report, awards and completion order.
    assert_eq!(det, pool);
    assert_eq!(det.audit(), []);
    assert!(
        !det.rebrokered.is_empty(),
        "the crash must force at least one re-brokering"
    );
}

/// Network-adversary parity: the same seeded fault plan (loss,
/// duplication, delay, reordering, a healing partition) with reliable
/// delivery produces byte-identical reports on the deterministic
/// stepper and the pool runtime — the whole misbehavior sequence is a
/// pure function of `(seed, link, sequence)`, and the pool preserves
/// the stepper's delivery order exactly. On both, nothing is lost and the
/// injected device fault's alert is delivered.
#[test]
fn network_adversary_is_consistent_across_runtimes() {
    use agentgrid_suite::core::chaos::ChaosPlan;
    use agentgrid_suite::core::recovery::RecoveryConfig;
    use agentgrid_suite::platform::ReliabilityConfig;

    const ALL_SKILLS: [&str; 8] = [
        "cpu",
        "memory",
        "disk",
        "interface",
        "process",
        "system",
        "other",
        "correlation",
    ];
    let seed = 42u64;
    let horizon = 18 * 60_000;
    let containers: Vec<String> = ["pg-1", "pg-2", "pg-root-ct", "clg", "ig", "cg-hq"]
        .iter()
        .map(|s| (*s).to_string())
        .collect();
    let plan = ChaosPlan::seeded_net(seed, &containers, horizon);
    assert!(!plan.is_empty());
    let builder = || {
        let mut net = Network::new();
        for i in 0..4 {
            net.add_device(
                Device::builder(format!("srv-{i}"), DeviceKind::Server)
                    .site("hq")
                    .seed(i)
                    .build(),
            );
        }
        ManagementGrid::builder()
            .network(net)
            .collectors_per_site(2)
            .analyzer("pg-1", 1.0, ALL_SKILLS)
            .analyzer("pg-2", 1.0, ALL_SKILLS)
            .recovery(RecoveryConfig::seeded(seed))
            .net_adversary(seed)
            .reliability(ReliabilityConfig::seeded(seed))
            .chaos(plan.clone())
            .fault(ScheduledFault::from(
                "srv-1",
                FaultKind::CpuRunaway,
                120_000,
            ))
    };

    let det = builder().build().run(horizon, 60_000);
    let det_again = builder().build().run(horizon, 60_000);
    let pool = builder().build_pool().run(horizon, 60_000);

    // Determinism first: same seed, same misbehavior, to the byte.
    assert_eq!(det, det_again);

    // The pool preserves the stepper's delivery order exactly, so the
    // adversary's decisions — and everything downstream — match byte
    // for byte.
    assert_eq!(det, pool);

    let net = det.net.expect("adversary configured");
    assert!(net.retransmits > 0, "reliability layer must be exercised");
    assert!(net.dup_suppressed > 0, "dedup window must be exercised");

    assert_eq!(det.audit(), []);
    assert!(
        det.alerts
            .iter()
            .any(|a| a.rule == "high-cpu" && a.device == "srv-1"),
        "the device fault's alert was lost to the adversary"
    );
}

/// Overflow-policy parity: the same seeded burst against the same
/// [`MailboxConfig`] must shed the same messages on both runtimes, with
/// the sinks on the pool's parallel phase. Mailbox budgets are window
/// credits keyed to the simulated clock, so every counter — per-class
/// sheds, deferrals, the high-water mark — is a function of per-window
/// traffic, not of scheduling.
#[test]
fn overload_shedding_is_consistent_across_runtimes() {
    use agentgrid_suite::acl::{AclMessage, AgentId, Performative, Value};
    use agentgrid_suite::platform::{
        Agent, MailboxConfig, MessageClass, OverflowPolicy, OverloadStats, Platform, PoolRuntime,
        Runtime,
    };

    struct Sink;
    impl Agent for Sink {}

    /// xorshift64 — the same pseudo-random burst for every runtime.
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
    }
    const CONCEPTS: [&str; 5] = [
        "alert",
        "collected-batch",
        "analysis-task",
        "observation",
        "resource-profile",
    ];
    fn traffic(seed: u64) -> Vec<Vec<(usize, &'static str)>> {
        let mut rng = Lcg(seed | 1);
        (0..12)
            .map(|_| {
                let burst = (5 + rng.next() % 12) as usize;
                (0..burst)
                    .map(|_| {
                        let receiver = (rng.next() % 3) as usize;
                        let concept = CONCEPTS[(rng.next() % 5) as usize];
                        (receiver, concept)
                    })
                    .collect()
            })
            .collect()
    }

    fn scenario<R: Runtime>(seed: u64) -> OverloadStats {
        let mut rt = R::create("x");
        rt.set_overload(MailboxConfig::new(2, OverflowPolicy::ShedByPriority), None);
        let sinks: Vec<AgentId> = (0..3)
            .map(|i| {
                let container = format!("c{i}");
                rt.add_container(&container);
                rt.hint_parallel(&container);
                rt.spawn_agent(&container, &format!("sink-{i}"), Sink)
                    .unwrap()
            })
            .collect();
        for (window, burst) in traffic(seed).into_iter().enumerate() {
            let t = (window as u64 + 1) * 1_000;
            // Open the window first, then pour the burst into it — both
            // runtimes then admit every message against the same budget.
            rt.run_until_idle(t);
            for (receiver, concept) in burst {
                let message = AclMessage::builder(Performative::Inform)
                    .sender(AgentId::new("driver"))
                    .receiver(sinks[receiver].clone())
                    .content(Value::map([("concept", Value::symbol(concept))]))
                    .build()
                    .unwrap();
                rt.post(message);
            }
            rt.run_until_idle(t);
        }
        rt.overload_stats().expect("overload protection configured")
    }

    for seed in [7u64, 42, 1009] {
        let det = scenario::<Platform>(seed);
        let det_again = scenario::<Platform>(seed);
        let pool = scenario::<PoolRuntime>(seed);
        assert_eq!(det, det_again, "seed {seed}: deterministic replay");
        assert_eq!(
            det, pool,
            "seed {seed}: window-credit shedding must not depend on the runtime"
        );
        assert!(det.shed_total() > 0, "seed {seed}: the burst must overflow");
        assert_eq!(
            det.shed(MessageClass::Alert),
            0,
            "seed {seed}: alerts are never shed"
        );
    }
}

/// Admission-control parity: with the root's token-bucket gate
/// configured identically (and mailboxes unbounded), both runtimes must
/// turn away the same awards and render the same report. The bucket
/// refills per clock window and counts attempts, both of which are
/// clock-driven.
#[test]
fn admission_gate_is_consistent_across_runtimes() {
    use agentgrid_suite::core::overload::{AdmissionConfig, OverloadConfig};

    const ALL_SKILLS: [&str; 8] = [
        "cpu",
        "memory",
        "disk",
        "interface",
        "process",
        "system",
        "other",
        "correlation",
    ];
    let builder = || {
        let mut net = Network::new();
        for site in 0..2 {
            for i in 0..4 {
                net.add_device(
                    Device::builder(format!("s{site}-dev{i}"), DeviceKind::Server)
                        .site(format!("site-{site}"))
                        .seed(site * 10 + i)
                        .build(),
                );
            }
        }
        ManagementGrid::builder()
            .network(net)
            .collectors_per_site(3)
            .analyzer("pg-1", 1.0, ALL_SKILLS)
            .overload(OverloadConfig::new().admission(AdmissionConfig {
                bucket_capacity: 2,
                refill_per_window: 1,
                load_threshold: 1.0,
            }))
    };
    let horizon = 10 * 60_000;

    let det = builder().build().run(horizon, 60_000);
    let det_again = builder().build().run(horizon, 60_000);
    let pool = builder().build_pool().run(horizon, 60_000);

    assert_eq!(det, det_again);
    assert!(det.rejected > 0, "the token bucket must reject awards");
    assert_eq!(
        det, pool,
        "the admission gate must not depend on the runtime"
    );
    // Mailboxes are unbounded here: nothing may be shed.
    assert_eq!(det.shed, 0);
}

/// Runtime parity matrix: the same seeded scenario — optionally with a
/// chaos plan and optionally behind the overload defences — runs twice
/// on the deterministic stepper and once on the work-stealing pool.
///
/// The pool is held to a byte-identical `GridReport` render versus the
/// deterministic stepper, because its name-ordered outbox merge makes
/// the parallel phase observationally sequential.
mod parity_matrix {
    use super::*;
    use agentgrid_suite::core::chaos::ChaosPlan;
    use agentgrid_suite::core::overload::{AdmissionConfig, OverflowPolicy, OverloadConfig};
    use agentgrid_suite::core::recovery::RecoveryConfig;
    use agentgrid_suite::net::{Device, DeviceKind, Network};
    use proptest::prelude::*;

    const ALL_SKILLS: [&str; 8] = [
        "cpu",
        "memory",
        "disk",
        "interface",
        "process",
        "system",
        "other",
        "correlation",
    ];

    fn network(sites: usize, devices: usize, seed: u64) -> Network {
        let mut net = Network::new();
        for s in 0..sites {
            let site = format!("site-{s}");
            for d in 0..devices {
                net.add_device(
                    Device::builder(format!("{site}-dev{d}"), DeviceKind::Server)
                        .site(&site)
                        .seed(seed.wrapping_add((s * 100 + d) as u64))
                        .build(),
                );
            }
        }
        net
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        #[test]
        fn reports_agree_across_det_and_pool_runtimes(
            seed in 0u64..500,
            sites in 1usize..3,
            devices in 2usize..5,
            chaos_on in 0u8..2,
            overload_on in 0u8..2,
        ) {
            let horizon = 12 * 60_000;
            let analyzers = vec!["pg-1".to_string(), "pg-2".to_string()];
            let plan = (chaos_on == 1)
                .then(|| ChaosPlan::seeded(seed, &analyzers, horizon));
            let protection = (overload_on == 1).then(|| {
                OverloadConfig::new()
                    .mailbox(3, OverflowPolicy::ShedByPriority)
                    .admission(AdmissionConfig {
                        bucket_capacity: 4,
                        refill_per_window: 2,
                        load_threshold: 0.9,
                    })
            });
            let builder = || {
                let mut b = ManagementGrid::builder()
                    .network(network(sites, devices, seed))
                    .collectors_per_site(2)
                    .analyzer("pg-1", 1.0, ALL_SKILLS)
                    .analyzer("pg-2", 1.0, ALL_SKILLS);
                if plan.is_some() || protection.is_some() {
                    // Recovery re-brokers awards lost to crashes *and*
                    // to shedding, making the zero-loss invariant hold
                    // under every sampled combination.
                    b = b.recovery(RecoveryConfig::seeded(seed));
                }
                if let Some(plan) = &plan {
                    b = b.chaos(plan.clone());
                }
                if let Some(cfg) = &protection {
                    b = b.overload(cfg.clone());
                }
                b
            };

            let det = builder().build().run(horizon, 60_000);
            let det_again = builder().build().run(horizon, 60_000);
            let pool = builder().build_pool().run(horizon, 60_000);

            // Deterministic replay, then pool identity, then the
            // invariants.
            prop_assert_eq!(&det, &det_again);
            prop_assert_eq!(&det, &pool, "pool must match the stepper");
            prop_assert_eq!(det.audit(), []);
        }
    }
}

/// Observability parity: with telemetry attached and the flight
/// recorder enabled, the deterministic stepper and the work-stealing
/// pool must agree on everything stamped in *simulated* time under the
/// same seeded chaos plan — the rendered report (including the
/// task-latency percentiles), the completed task-latency distribution,
/// and the flight-recorder event set (compared via [`Event::sim_view`],
/// which drops the wall-clock stamp). Any divergence means scheduling
/// leaked into recorded state.
#[test]
fn flight_recorder_and_task_spans_agree_across_runtimes() {
    use agentgrid_suite::core::chaos::ChaosPlan;
    use agentgrid_suite::core::recovery::RecoveryConfig;
    use agentgrid_suite::telemetry::{Event, EventKind, Telemetry, TelemetryHandle};

    const ALL_SKILLS: [&str; 8] = [
        "cpu",
        "memory",
        "disk",
        "interface",
        "process",
        "system",
        "other",
        "correlation",
    ];
    let seed = 42u64;
    let horizon = 18 * 60_000;
    let plan = ChaosPlan::seeded(seed, &["pg-1".into(), "pg-2".into()], horizon);
    assert!(!plan.is_empty());
    let builder = |telemetry: TelemetryHandle| {
        let mut net = Network::new();
        for i in 0..3 {
            net.add_device(
                Device::builder(format!("srv-{i}"), DeviceKind::Server)
                    .site("hq")
                    .seed(i)
                    .build(),
            );
        }
        ManagementGrid::builder()
            .network(net)
            .collectors_per_site(1)
            .analyzer("pg-1", 1.0, ALL_SKILLS)
            .analyzer("pg-2", 1.0, ALL_SKILLS)
            .recovery(RecoveryConfig::seeded(seed))
            .chaos(plan.clone())
            .telemetry(telemetry)
    };

    let det_t = Telemetry::new();
    det_t.flight_recorder().enable();
    let det = builder(det_t.clone()).build().run(horizon, 60_000);

    let pool_t = Telemetry::new();
    pool_t.flight_recorder().enable();
    let pool = builder(pool_t.clone()).build_pool().run(horizon, 60_000);

    // Both sides must have actually recorded something, or the parity
    // assertions below would pass vacuously.
    assert!(
        det.task_latency.is_some(),
        "telemetry attached: the report must carry latency percentiles"
    );
    assert!(!det_t.flight_recorder().is_empty());
    let crashes = det_t
        .flight_recorder()
        .events()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Crash { .. }))
        .count();
    assert!(crashes > 0, "the chaos plan must flight-record its crash");

    // Reports byte-identical, latency summaries and full distributions
    // equal — all simulated-time quantities.
    assert_eq!(det, pool, "reports must match");
    assert_eq!(
        det_t.task_spans().completed_latencies(),
        pool_t.task_spans().completed_latencies(),
        "end-to-end latency distributions must match"
    );

    // Flight-recorder parity on the (sim-time, kind) view; wall-clock
    // stamps differ run to run by construction. Sorted: within one
    // timestamp the pool merges outboxes by container name, so ordering
    // of same-instant events is not part of the contract.
    let sim_events = |t: &TelemetryHandle| {
        let mut events: Vec<(u64, EventKind)> = t
            .flight_recorder()
            .events()
            .iter()
            .map(Event::sim_view)
            .collect();
        events.sort();
        events
    };
    assert_eq!(
        sim_events(&det_t),
        sim_events(&pool_t),
        "flight-recorder event sets must match across runtimes"
    );
}

#[test]
fn workload_pacing_reduces_contention_not_work() {
    let costs = CostModel::table1();
    let burst = run_architecture(Architecture::Centralized, Workload::rounds(10), &costs);
    let paced = run_architecture(
        Architecture::Centralized,
        Workload {
            rounds: 10,
            inter_arrival: 500,
        },
        &costs,
    );
    assert_eq!(
        burst.busy_time("manager", ResourceKind::Cpu),
        paced.busy_time("manager", ResourceKind::Cpu),
        "same total work"
    );
    assert!(paced.peak_utilization() < burst.peak_utilization());
}

/// The federated (sharded) grid — every shard its own root, broker
/// scope and analyzer tier, connected by the federation protocol —
/// must produce byte-identical reports on the deterministic stepper
/// and the work-stealing pool: the shards tick concurrently on the
/// pool (one group per shard), but gossip, spill and summary traffic
/// merge deterministically.
#[test]
fn sharded_grid_is_byte_identical_across_runtimes() {
    const ALL_SKILLS: [&str; 8] = [
        "cpu",
        "memory",
        "disk",
        "interface",
        "process",
        "system",
        "other",
        "correlation",
    ];
    let network = || {
        let mut net = Network::new();
        for s in 0..6 {
            for d in 0..3 {
                net.add_device(
                    Device::builder(format!("site-{s}-dev{d}"), DeviceKind::Server)
                        .site(format!("site-{s}"))
                        .seed((s * 10 + d) as u64)
                        .build(),
                );
            }
        }
        net
    };
    let builder = || {
        ManagementGrid::builder()
            .network(network())
            .collectors_per_site(1)
            .shards(3)
            .analyzer("pg-1", 1.0, ALL_SKILLS)
            .analyzer("pg-2", 1.0, ALL_SKILLS)
            .analyzer("pg-3", 1.0, ALL_SKILLS)
            .fault(ScheduledFault::from(
                "site-0-dev1",
                FaultKind::CpuRunaway,
                120_000,
            ))
    };
    let horizon = 10 * 60_000;
    let det = builder().build().run(horizon, 60_000);
    let pool = builder().build_pool().run(horizon, 60_000);
    assert_eq!(det.shards, 3);
    assert!(
        det.federation.summaries_sent > 0,
        "the federation must actually be exercised"
    );
    assert_eq!(det, pool, "pool report must match");
}
