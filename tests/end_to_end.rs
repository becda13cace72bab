//! Integration tests: the full pipeline across every crate — simulated
//! devices → collectors → classifier/store → broker → analyzers →
//! interface grid.

use agentgrid_suite::core::chaos::ChaosPlan;
use agentgrid_suite::core::grid::GridReport;
use agentgrid_suite::net::{Device, DeviceKind, FaultKind, Network, ScheduledFault};
use agentgrid_suite::ManagementGrid;

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

fn network(sites: usize, per_site: usize, seed: u64) -> Network {
    let mut net = Network::new();
    for s in 0..sites {
        for d in 0..per_site {
            let kind = match d % 3 {
                0 => DeviceKind::Router,
                1 => DeviceKind::Switch,
                _ => DeviceKind::Server,
            };
            net.add_device(
                Device::builder(format!("s{s}d{d}"), kind)
                    .site(format!("site-{s}"))
                    .seed(seed + (s * 100 + d) as u64)
                    .build(),
            );
        }
    }
    net
}

#[test]
fn every_fault_kind_is_detected_by_its_rule() {
    let cases = [
        (FaultKind::CpuRunaway, "high-cpu"),
        (FaultKind::LinkDown(1), "link-down"),
        (FaultKind::DiskFilling, "disk-pressure"),
        (FaultKind::MemoryLeak, "memory-pressure"),
        (FaultKind::Unreachable, "device-unreachable"),
    ];
    for (fault, expected_rule) in cases {
        let mut grid = ManagementGrid::builder()
            .network(network(1, 3, 7))
            .analyzer("pg-1", 1.0, ALL_SKILLS)
            .fault(ScheduledFault::from("s0d2", fault, 2 * 60_000))
            .build();
        // Long enough for ramp faults (disk fills ~2 %/min) to cross
        // their thresholds.
        let report = grid.run(40 * 60_000, 60_000);
        assert!(
            report
                .alerts
                .iter()
                .any(|a| a.rule == expected_rule && a.device == "s0d2"),
            "fault {fault} must raise `{expected_rule}`; got rules {:?}",
            report
                .alerts
                .iter()
                .map(|a| a.rule.as_str())
                .collect::<std::collections::BTreeSet<_>>()
        );
    }
}

#[test]
fn trend_rule_catches_disk_filling_before_the_threshold() {
    // A slow-filling disk trips the level-2 trend rule (slope) even in
    // the window where the absolute used-pct threshold has not yet been
    // crossed.
    let mut grid = ManagementGrid::builder()
        .network(network(1, 3, 57))
        .analyzer("pg-1", 1.0, ALL_SKILLS)
        .fault(ScheduledFault::from(
            "s0d2",
            FaultKind::DiskFilling,
            2 * 60_000,
        ))
        .build();
    let report = grid.run(20 * 60_000, 60_000);
    let trend_alert = report
        .alerts
        .iter()
        .find(|a| a.rule == "disk-filling-fast" && a.device == "s0d2");
    assert!(trend_alert.is_some(), "alerts: {:?}", report.alerts);
}

#[test]
fn healthy_network_raises_no_critical_alerts() {
    let mut grid = ManagementGrid::builder()
        .network(network(1, 3, 99))
        .analyzer("pg-1", 1.0, ALL_SKILLS)
        .build();
    let report = grid.run(5 * 60_000, 60_000);
    use agentgrid_suite::acl::ontology::Severity;
    assert!(
        report
            .alerts
            .iter()
            .all(|a| a.severity != Severity::Critical),
        "unexpected critical alerts: {:?}",
        report.alerts
    );
}

#[test]
fn multi_site_data_is_integrated_in_one_store() {
    let mut grid = ManagementGrid::builder()
        .network(network(3, 2, 17))
        .collectors_per_site(2)
        .analyzer("pg-1", 1.0, ALL_SKILLS)
        .build();
    grid.run(3 * 60_000, 60_000);
    let store = grid.store();
    let store = store.lock();
    // Devices of all three sites are present in the single shared store
    // — the integration Fig. 5 architectures lack.
    for site in ["site-0", "site-1", "site-2"] {
        assert!(
            store.devices_at(site).count() > 0,
            "store must hold {site} devices"
        );
    }
}

#[test]
fn grid_pipeline_conserves_tasks_and_messages() {
    let mut grid = ManagementGrid::builder()
        .network(network(2, 3, 31))
        .collectors_per_site(2)
        .analyzer("pg-1", 1.0, ALL_SKILLS)
        .analyzer("pg-2", 2.0, ALL_SKILLS)
        .build();
    let report = grid.run(10 * 60_000, 60_000);
    assert_eq!(report.dead_letters, 0, "no message may be lost");
    assert!(
        report.outstanding.is_empty(),
        "every partition has a skilled container: nothing is left parked"
    );
    assert_eq!(
        report.tasks_completed,
        report.assignments.len() as u64,
        "every brokered task completes"
    );
    // Records keep flowing: 10 polls × devices × metrics.
    assert!(report.records_stored >= 6 * 10);
}

#[test]
fn collectors_with_different_interfaces_feed_identical_partitions() {
    // Two collectors (SNMP + CLI via collectors_per_site=2) must produce
    // records that classify into the same partition set.
    let mut grid = ManagementGrid::builder()
        .network(network(1, 4, 23))
        .collectors_per_site(2)
        .analyzer("pg-1", 1.0, ALL_SKILLS)
        .build();
    grid.run(2 * 60_000, 60_000);
    let store = grid.store();
    let store = store.lock();
    let partitions = store.partitions();
    for expected in ["cpu", "disk", "memory", "interface", "process"] {
        assert!(
            partitions.contains(&expected),
            "partition {expected} missing from {partitions:?}"
        );
    }
}

/// Whether `earlier`'s entries appear in `later` in the same order.
fn in_order_within<T: PartialEq>(
    earlier: impl IntoIterator<Item = T>,
    later: impl IntoIterator<Item = T>,
) -> bool {
    let mut later = later.into_iter();
    earlier.into_iter().all(|entry| later.any(|l| l == entry))
}

#[test]
fn incremental_runs_accumulate_consistently() {
    const ROUNDS: u64 = 24;
    let build = || {
        ManagementGrid::builder()
            .network(network(4, 4, 41))
            .analyzer("pg-1", 1.0, ALL_SKILLS)
            .analyzer("pg-2", 1.0, ALL_SKILLS)
            .analyzer("pg-3", 1.0, ALL_SKILLS)
            .fault(ScheduledFault::from(
                "s1d2",
                FaultKind::CpuRunaway,
                2 * 60_000,
            ))
            .chaos(
                ChaosPlan::new()
                    .crash_at(6 * 60_000, "pg-3")
                    .restart_at(12 * 60_000, "pg-3"),
            )
            .shards(2)
            .build()
    };
    let mut grid = build();
    let reports: Vec<GridReport> = (0..ROUNDS).map(|_| grid.run(60_000, 60_000)).collect();
    let whole = build().run(ROUNDS * 60_000, 60_000);
    assert!(
        whole.assignments.len() > 256,
        "the awards span several sealed chunks: {}",
        whole.assignments.len()
    );
    assert!(!whole.alerts.is_empty() && !whole.rebrokered.is_empty());
    assert_eq!(whole.audit(), []);

    // One-round runs add up to the one long run, `duration_ms` aside.
    let mut last = reports.last().unwrap().clone();
    assert_eq!(last.duration_ms, 60_000);
    last.duration_ms = whole.duration_ms;
    assert_eq!(last, whole);
    assert_eq!(last.render(), whole.render());

    // Each report extends the one before: the single alert sink as a
    // prefix, the per-shard root logs (concatenated in shard order) as
    // an in-order subsequence.
    for (before, after) in reports.iter().zip(&reports[1..]) {
        assert!(after.records_stored > before.records_stored);
        assert!(after
            .alerts
            .iter()
            .take(before.alerts.len())
            .eq(&before.alerts));
        assert!(in_order_within(&before.assignments, &after.assignments));
        assert!(in_order_within(&before.completed_ids, &after.completed_ids));
        assert!(in_order_within(&before.rebrokered, &after.rebrokered));
    }

    // A report kept across later rounds is an unchanged snapshot.
    let early = &reports[ROUNDS as usize / 4];
    let mut replay = build();
    let fresh = (0..=ROUNDS / 4)
        .map(|_| replay.run(60_000, 60_000))
        .last()
        .unwrap();
    assert_eq!(*early, fresh);
    assert_eq!(early.render(), fresh.render());
    assert!(early.assignments.len() < whole.assignments.len());
}
