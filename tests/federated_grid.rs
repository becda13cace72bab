//! Federation tests: the grid split into domain shards (devices
//! partitioned by site, one root + broker scope + analyzer tier per
//! shard) connected by the federation protocol — load-digest gossip,
//! task spill-over, cross-domain finding summaries.
//!
//! The properties under test are the federation's contract:
//!
//! * **conservation** — every task in the federation is counted exactly
//!   once (`GridReport::audit` is empty: created = completed +
//!   outstanding, nothing lost, no double award or completion, per-shard
//!   counts summing to the total) — under admission pressure, under a
//!   network adversary, and under both at once;
//! * **cross-domain correlation** — a peer's summary joined with a
//!   local fact fires the ordinary level-3 rule on a `fed-s…` alias;
//! * **id uniqueness** — shard-qualified task ids never collide, even
//!   after a task crosses a domain boundary.

use agentgrid_suite::core::chaos::ChaosPlan;
use agentgrid_suite::core::grid::GridBuilder;
use agentgrid_suite::core::overload::{AdmissionConfig, OverloadConfig};
use agentgrid_suite::core::recovery::RecoveryConfig;
use agentgrid_suite::net::{Device, DeviceKind, FaultKind, Network, ScheduledFault};
use agentgrid_suite::platform::ReliabilityConfig;
use agentgrid_suite::{GridReport, ManagementGrid};
use std::collections::BTreeSet;

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

fn multi_site_network(sites: usize, devices_per_site: usize, seed: u64) -> Network {
    let mut net = Network::new();
    for s in 0..sites {
        for d in 0..devices_per_site {
            let kind = match d % 3 {
                0 => DeviceKind::Router,
                1 => DeviceKind::Switch,
                _ => DeviceKind::Server,
            };
            net.add_device(
                Device::builder(format!("site-{s}-dev{d}"), kind)
                    .site(format!("site-{s}"))
                    .seed(seed + (s * 100 + d) as u64)
                    .build(),
            );
        }
    }
    net
}

fn sharded_builder(shards: usize, sites: usize, devices_per_site: usize, seed: u64) -> GridBuilder {
    let mut builder = ManagementGrid::builder()
        .network(multi_site_network(sites, devices_per_site, seed))
        .collectors_per_site(1)
        .shards(shards)
        .recovery(RecoveryConfig::seeded(seed));
    for a in 0..shards {
        builder = builder.analyzer(format!("pg-{}", a + 1), 1.0, ALL_SKILLS);
    }
    builder
}

/// The token bucket that forces spill-over: two awards up front, one
/// more per window — far below the per-tick task fan-in.
fn tight_admission() -> OverloadConfig {
    OverloadConfig::new().admission(AdmissionConfig {
        bucket_capacity: 2,
        refill_per_window: 1,
        load_threshold: 0.9,
    })
}

#[test]
fn spillover_under_admission_pressure_conserves_every_task() {
    for seed in [1u64, 7, 42] {
        let report = sharded_builder(4, 8, 4, seed)
            .overload(tight_admission())
            .build()
            .run(15 * 60_000, 60_000);
        assert!(
            report.federation.spilled_out > 0,
            "seed {seed}: the tight gate must force spill-over"
        );
        assert!(
            report.federation.spill_completed > 0,
            "seed {seed}: spilled tasks must complete at peers and confirm home"
        );
        assert_eq!(report.audit(), [], "seed {seed}, admission pressure");
    }
}

#[test]
fn spillover_under_netchaos_conserves_every_task() {
    // The adversary drops, delays, duplicates and reorders every link —
    // including the root-to-root spill, spill-done and summary traffic.
    // Reliable delivery plus the spill-seen ledger must keep the
    // exactly-once count anyway.
    let horizon = 20 * 60_000;
    for seed in [7u64, 42] {
        let containers: Vec<String> = [
            "pg-1",
            "pg-2",
            "pg-3",
            "pg-root-s0",
            "pg-root-s1",
            "pg-root-s2",
        ]
        .iter()
        .map(|s| (*s).to_string())
        .collect();
        let report = sharded_builder(3, 6, 4, seed)
            .overload(tight_admission())
            .net_adversary(seed)
            .reliability(ReliabilityConfig::seeded(seed))
            .chaos(ChaosPlan::seeded_net(seed, &containers, horizon))
            .build()
            .run(horizon, 60_000);
        assert!(
            report.federation.spilled_out > 0,
            "seed {seed}: spill-over must fire under the adversary too"
        );
        let net = report.net.expect("adversary configured");
        assert!(
            net.dropped + net.delayed + net.duplicated > 0,
            "seed {seed}: the adversary must actually interfere"
        );
        assert_eq!(report.audit(), [], "seed {seed}, netchaos");
    }
}

#[test]
fn cross_domain_summary_fires_correlation_rule_on_fed_alias() {
    // CPU runaways in two different domains: neither shard alone sees
    // both hot devices, so the correlated-cpu alert can only come from
    // a peer summary injected under the fed-s alias.
    let report = sharded_builder(2, 4, 4, 11)
        .fault(ScheduledFault::from(
            "site-0-dev2",
            FaultKind::CpuRunaway,
            120_000,
        ))
        .fault(ScheduledFault::from(
            "site-1-dev2",
            FaultKind::CpuRunaway,
            180_000,
        ))
        .build()
        .run(15 * 60_000, 60_000);
    assert!(report.federation.summaries_sent > 0, "summaries must flow");
    assert!(
        report.federation.injected_findings > 0,
        "peer findings must land in the local store"
    );
    assert!(
        report
            .alerts
            .iter()
            .any(|a| a.rule == "correlated-cpu" && a.device.starts_with("fed-s")),
        "the level-3 join must correlate a local fact with a peer's summary"
    );
    assert_eq!(report.audit(), [], "cross-domain correlation");
}

#[test]
fn shard_qualified_task_ids_never_collide() {
    let report = sharded_builder(3, 6, 3, 5)
        .overload(tight_admission())
        .build()
        .run(10 * 60_000, 60_000);
    let mut first_awards = BTreeSet::new();
    for (id, _) in &report.assignments {
        assert!(
            id.starts_with('s'),
            "federated ids must be shard-qualified, got {id}"
        );
        first_awards.insert(id.as_str());
    }
    // Every distinct id resolves to exactly one creation: the count of
    // distinct awarded ids can never exceed the created total.
    assert!(
        first_awards.len() as u64 <= report.tasks_created,
        "more distinct task ids awarded ({}) than created ({})",
        first_awards.len(),
        report.tasks_created
    );
}

#[test]
fn restarted_analyzer_rejoins_its_own_shard() {
    // With two analyzers, pg-2 is shard 1's whole tier: crash it, and
    // the chaos restart must rebuild it against shard 1's store and
    // re-list it under shard 1's broker service, so shard 1's root
    // awards it `s1-` tasks again.
    let awarded_s1 = |report: &GridReport| {
        report
            .assignments
            .iter()
            .filter(|(id, container)| id.starts_with("s1-") && container == "pg-2")
            .count()
    };
    let restart_ms = 6 * 60_000;
    let mut grid = sharded_builder(2, 4, 4, 9)
        .chaos(
            ChaosPlan::new()
                .crash_at(3 * 60_000, "pg-2")
                .restart_at(restart_ms, "pg-2"),
        )
        .build();
    let before = awarded_s1(&grid.run(restart_ms, 60_000));
    let report = grid.run(8 * 60_000, 60_000);
    assert!(
        awarded_s1(&report) > before,
        "the restarted pg-2 must win shard 1's awards again: {report}"
    );
    assert!(
        !report
            .assignments
            .iter()
            .any(|(id, container)| id.starts_with("s0-") && container == "pg-2"),
        "pg-2 must rejoin shard 1, not shard 0: {report}"
    );
    assert_eq!(report.audit(), [], "analyzer restart in shard 1");
}

#[test]
fn single_shard_grid_reports_no_federation() {
    let report = sharded_builder(1, 2, 4, 3).build().run(10 * 60_000, 60_000);
    assert_eq!(report.shards, 1);
    assert_eq!(report.federation.spilled_out, 0);
    assert_eq!(report.federation.summaries_sent, 0);
    assert!(!report.render().contains("federation:"));
    assert!(!report.render().contains("shards:"));
}
