//! Chaos tests for the recovery layer: seeded crash/restart schedules
//! and drop windows against the recovering grid.
//!
//! The properties under test are the recovery layer's contract:
//!
//! * **the grid's invariants hold** — [`GridReport::audit`] finds no
//!   lost or unaccounted task, every award beyond a task's first is a
//!   logged re-brokering, and no task completes twice;
//! * **dead letters stay bounded** — undeliverable mail is proportional
//!   to the traffic aimed at dead containers, never unbounded.
//!
//! [`GridReport::audit`]: agentgrid_suite::GridReport::audit

use agentgrid_suite::core::chaos::ChaosPlan;
use agentgrid_suite::core::recovery::RecoveryConfig;
use agentgrid_suite::net::{Device, DeviceKind, FaultKind, Network, ScheduledFault};
use agentgrid_suite::platform::ReliabilityConfig;
use agentgrid_suite::ManagementGrid;
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

fn network(devices: usize, seed: u64) -> Network {
    let mut net = Network::new();
    for d in 0..devices {
        let kind = match d % 3 {
            0 => DeviceKind::Router,
            1 => DeviceKind::Switch,
            _ => DeviceKind::Server,
        };
        net.add_device(
            Device::builder(format!("dev-{d}"), kind)
                .site("hq")
                .seed(seed + d as u64)
                .build(),
        );
    }
    net
}

#[test]
fn seeded_crash_mid_scenario_loses_nothing_and_rebrokers_exactly_once() {
    // Seed 42's plan crashes an analyzer at minute 2 and restarts it at
    // minute 5 — tasks in flight on the victim must finish elsewhere.
    let plan = ChaosPlan::seeded(42, &["pg-1".into(), "pg-2".into()], 20 * 60_000);
    assert!(!plan.is_empty(), "seed 42 must schedule failures");
    let mut grid = ManagementGrid::builder()
        .network(network(4, 7))
        .collectors_per_site(2)
        .analyzer("pg-1", 1.0, ALL_SKILLS)
        .analyzer("pg-2", 1.0, ALL_SKILLS)
        .recovery(RecoveryConfig::seeded(42))
        .chaos(plan)
        .build();
    let report = grid.run(20 * 60_000, 60_000);

    assert_eq!(report.audit(), []);
    assert!(
        !report.rebrokered.is_empty(),
        "the crash must strand at least one in-flight task"
    );
    // Every reclaimed task actually finished somewhere.
    for id in &report.rebrokered {
        assert!(
            report.completed_ids.iter().any(|done| done == id),
            "re-brokered task {id} never completed"
        );
    }
    // The death was escalated to the interface grid.
    assert!(report.escalations >= 1);
    assert!(
        report.alerts.iter().any(|a| a.rule == "container-dead"),
        "death alert must surface"
    );
}

#[test]
fn restarted_container_rejoins_the_brokering_pool() {
    let plan = ChaosPlan::new()
        .crash_at(2 * 60_000, "pg-1")
        .restart_at(7 * 60_000, "pg-1");
    let mut grid = ManagementGrid::builder()
        .network(network(3, 3))
        .collectors_per_site(1)
        .analyzer("pg-1", 4.0, ALL_SKILLS)
        .analyzer("pg-2", 1.0, ALL_SKILLS)
        .recovery(RecoveryConfig::seeded(1))
        .chaos(plan)
        .build();
    let report = grid.run(20 * 60_000, 60_000);

    assert_eq!(report.audit(), []);
    // After the restart the (higher-capacity) victim receives awards
    // again: some assignment to pg-1 must postdate one to pg-2 that was
    // made while pg-1 was down. Cheap proxy: pg-1 appears in the last
    // quarter of the assignment log.
    let tail: Vec<_> = report
        .assignments
        .iter()
        .skip(report.assignments.len() * 3 / 4)
        .collect();
    assert!(
        tail.iter().any(|(_, c)| c == "pg-1"),
        "restarted container never rejoined: tail {tail:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Whatever seeded crash schedule and topology chaos throws at the
    /// recovering grid, no task is permanently lost, re-brokering is
    /// exactly-once, and dead letters stay bounded by the traffic aimed
    /// at dead containers.
    #[test]
    fn recovery_holds_under_random_seeds_and_topologies(
        chaos_seed in 0u64..500,
        net_seed in 0u64..100,
        devices in 2usize..6,
        analyzers in 2usize..4,
        horizon_min in 12u64..24,
    ) {
        let containers: Vec<String> =
            (1..=analyzers).map(|i| format!("pg-{i}")).collect();
        let plan = ChaosPlan::seeded(chaos_seed, &containers, horizon_min * 60_000);
        let mut builder = ManagementGrid::builder()
            .network(network(devices, net_seed))
            .collectors_per_site(2)
            .recovery(RecoveryConfig::seeded(chaos_seed))
            .chaos(plan);
        for name in &containers {
            builder = builder.analyzer(name, 1.0, ALL_SKILLS);
        }
        let mut grid = builder.build();
        let report = grid.run(horizon_min * 60_000, 60_000);

        prop_assert_eq!(report.audit(), []);
        prop_assert!(report.records_stored > 0);
        // Dead letters only come from mail aimed at a dead container
        // (awards, retries) plus its own undeliverable replies — each
        // requeued once, so at most 2 undeliverable messages per such
        // send. Bound by the observable recovery traffic.
        let recovery_traffic =
            report.retries + report.rebrokered.len() as u64 + report.escalations;
        prop_assert!(
            (report.dead_letters as u64) <= 2 * (recovery_traffic + 4),
            "dead letters unbounded: {} vs traffic {}",
            report.dead_letters,
            recovery_traffic,
        );
    }
}

/// Conservation under the full network adversary: 64 seeded fault
/// plans (probabilistic loss and duplication on every link, delay +
/// jitter + reordering into one analyzer, a named partition that
/// heals) against reliable delivery and the recovery layer. For every
/// seed no task is permanently lost, re-brokering stays exactly-once,
/// and the Alert-class traffic survives end-to-end — the device fault
/// injected mid-run must surface at the interface grid despite the
/// adversary. Every eighth seed additionally replays on the
/// deterministic stepper and the pool runtime to prove the whole
/// misbehavior sequence is a pure function of the seed.
#[test]
fn network_adversary_with_reliability_loses_nothing_across_64_seeds() {
    let horizon = 15 * 60_000;
    let containers: Vec<String> = ["pg-1", "pg-2", "pg-root-ct", "clg", "ig", "cg-hq"]
        .iter()
        .map(|s| (*s).to_string())
        .collect();
    for seed in 0..64u64 {
        let plan = ChaosPlan::seeded_net(seed, &containers, horizon);
        assert!(!plan.is_empty(), "seed {seed} must schedule faults");
        let build = || {
            ManagementGrid::builder()
                .network(network(4, seed))
                .collectors_per_site(2)
                .analyzer("pg-1", 1.0, ALL_SKILLS)
                .analyzer("pg-2", 1.0, ALL_SKILLS)
                .recovery(RecoveryConfig::seeded(seed))
                .net_adversary(seed)
                .reliability(ReliabilityConfig::seeded(seed))
                .chaos(plan.clone())
                // dev-2 is a server: its runaway CPU must alert through
                // the lossy network — reliable delivery lands every
                // Alert-class message.
                .fault(ScheduledFault::from(
                    "dev-2",
                    FaultKind::CpuRunaway,
                    120_000,
                ))
        };
        let report = build().build().run(horizon, 60_000);
        assert_eq!(report.audit(), [], "seed {seed}");
        assert!(
            report
                .alerts
                .iter()
                .any(|a| a.rule == "high-cpu" && a.device == "dev-2"),
            "seed {seed}: the device fault's alert was lost to the adversary"
        );
        let net = report.net.expect("adversary configured");
        assert!(
            net.dropped + net.partition_dropped + net.delayed + net.duplicated > 0,
            "seed {seed}: the adversary never interfered — the run proves nothing"
        );
        if seed % 8 == 0 {
            let replay = build().build().run(horizon, 60_000);
            assert_eq!(report, replay, "seed {seed}: deterministic replay diverged");
            let pool = build().build_pool().run(horizon, 60_000);
            assert_eq!(
                report, pool,
                "seed {seed}: pool runtime diverged from the stepper"
            );
        }
    }
}

/// A chaos drop window is a network-adversary link fault: its drops are
/// counted with the adversary's, and with reliable delivery on, an award
/// it swallows is retransmitted once the window closes, so the grid's
/// invariants hold without any re-brokering.
#[test]
fn drop_window_is_counted_and_retransmitted_after_it_closes() {
    let analyzer = agentgrid_suite::acl::AgentId::with_platform("analyzer-pg-1", "grid");
    let report = ManagementGrid::builder()
        .network(network(4, 7))
        .analyzer("pg-1", 1.0, ALL_SKILLS)
        .analyzer("pg-2", 1.0, ALL_SKILLS)
        .reliability(ReliabilityConfig::seeded(7))
        .chaos(ChaosPlan::new().drop_to_between(60_000, 3 * 60_000, analyzer))
        .build()
        .run(8 * 60_000, 60_000);
    let net = report
        .net
        .expect("the drop window touched the network layer");
    assert!(net.dropped > 0, "the window swallowed nothing: {net:?}");
    assert!(
        net.delivered_after_retry > 0,
        "no swallowed award was retransmitted after the close: {net:?}"
    );
    assert!(report.rebrokered.is_empty(), "the retransmit, not recovery");
    assert_eq!(report.audit(), []);
}

/// The work-stealing pool runtime under the same seeded chaos plan: the
/// recovery contract holds unchanged, and the report equals the
/// deterministic stepper's. Also the scenario the CI ThreadSanitizer job
/// drives, so the pool's steal/merge phase runs under a data-race
/// detector with containers dying mid-run.
#[test]
fn pool_runtime_survives_chaos_and_matches_the_stepper() {
    let horizon = 20 * 60_000;
    let plan = ChaosPlan::seeded(42, &["pg-1".into(), "pg-2".into()], horizon);
    assert!(!plan.is_empty(), "seed 42 must schedule failures");
    let builder = || {
        ManagementGrid::builder()
            .network(network(4, 7))
            .collectors_per_site(2)
            .analyzer("pg-1", 1.0, ALL_SKILLS)
            .analyzer("pg-2", 1.0, ALL_SKILLS)
            .recovery(RecoveryConfig::seeded(42))
            .chaos(plan.clone())
    };
    let pool = builder().build_pool().run(horizon, 60_000);
    let det = builder().build().run(horizon, 60_000);

    assert_eq!(pool.audit(), []);
    assert!(
        !pool.rebrokered.is_empty(),
        "the crash must force at least one re-brokering"
    );
    assert_eq!(det, pool, "pool must match the stepper under chaos");
}

/// Merged plans compose window by window: `seeded_net(7, ..)` opens a
/// delay window on pg-2's analyzer (minutes 2–12), and a hand-written
/// drop window on the same analyzer opens and closes inside it. The
/// drop window's close ends only its own window, so the adversary still
/// delays legs to that analyzer afterwards; the merged run keeps the
/// grid's invariants and replays identically on the pool runtime.
#[test]
fn merged_plans_close_only_their_own_windows() {
    use agentgrid_suite::telemetry::{EventKind, Telemetry};

    let horizon = 15 * 60_000;
    let containers: Vec<String> = ["pg-1", "pg-2", "pg-root-ct", "clg", "ig", "cg-hq"]
        .iter()
        .map(|s| (*s).to_string())
        .collect();
    let analyzer = agentgrid_suite::acl::AgentId::with_platform("analyzer-pg-2", "grid");
    let (drop_open, drop_close) = (7 * 60_000, 8 * 60_000);
    let plan = ChaosPlan::seeded_net(7, &containers, horizon)
        .merge(ChaosPlan::new().drop_to_between(drop_open, drop_close, analyzer.clone()));
    let build = || {
        let telemetry = Telemetry::new();
        telemetry.flight_recorder().enable();
        let builder = ManagementGrid::builder()
            .network(network(4, 7))
            .collectors_per_site(2)
            .analyzer("pg-1", 1.0, ALL_SKILLS)
            .analyzer("pg-2", 1.0, ALL_SKILLS)
            .recovery(RecoveryConfig::seeded(7))
            .net_adversary(7)
            .reliability(ReliabilityConfig::seeded(7))
            .chaos(plan.clone())
            .telemetry(telemetry.clone());
        (builder, telemetry)
    };
    let (det, telemetry) = build();
    let report = det.build().run(horizon, 60_000);
    assert_eq!(report.audit(), []);
    let (pool, _) = build();
    assert_eq!(
        report,
        pool.build_pool().run(horizon, 60_000),
        "det == pool"
    );

    let to_analyzer = format!("->{analyzer}");
    let delayed_after_close = telemetry.flight_recorder().events().iter().any(|e| {
        e.sim_ms >= drop_close
            && matches!(&e.kind, EventKind::Delayed { link, .. } if link.ends_with(&to_analyzer))
    });
    assert!(
        delayed_after_close,
        "the drop window's close also ended seeded_net's delay window on {analyzer}"
    );
}
