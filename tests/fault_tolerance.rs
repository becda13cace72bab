//! Integration tests for failure injection: dying containers, lossy
//! transports, unreachable devices, storage replica failures.

use agentgrid_suite::acl::AgentId;
use agentgrid_suite::core::chaos::ChaosPlan;
use agentgrid_suite::core::recovery::RecoveryConfig;
use agentgrid_suite::net::{Device, DeviceKind, FaultKind, Network, ScheduledFault};
use agentgrid_suite::platform::{LinkFaults, LinkSelector, NetCommand};
use agentgrid_suite::store::{Record, ReplicatedStore};
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

fn network(devices: usize, seed: u64) -> Network {
    let mut net = Network::new();
    for d in 0..devices {
        net.add_device(
            Device::builder(format!("dev-{d}"), DeviceKind::Server)
                .site("hq")
                .seed(seed + d as u64)
                .build(),
        );
    }
    net
}

#[test]
fn analyzer_container_crash_does_not_stop_the_grid() {
    let mut grid = ManagementGrid::builder()
        .network(network(4, 5))
        .analyzer("pg-1", 4.0, ALL_SKILLS)
        .analyzer("pg-2", 1.0, ALL_SKILLS)
        .build();
    let before = grid.run(3 * 60_000, 60_000);
    assert!(before.tasks_per_container().contains_key("pg-1"));

    grid.crash_container("pg-1");
    let after = grid.run(5 * 60_000, 60_000);

    // New work flows to the survivor.
    let new_assignments: Vec<_> = after
        .assignments
        .iter()
        .skip(before.assignments.len())
        .collect();
    assert!(!new_assignments.is_empty(), "brokering must continue");
    assert!(
        new_assignments.iter().all(|(_, c)| c == "pg-2"),
        "all new tasks must land on the surviving container"
    );
    // Alerts keep coming from the survivor.
    assert!(after.records_stored > before.records_stored);
}

/// Regression: a crashed container's **in-flight** tasks — awarded but
/// not yet reported done — must complete on a surviving container, not
/// just future work. A drop window swallows the awards sent
/// to `pg-1`'s analyzer right before the crash, guaranteeing stranded
/// in-flight tasks; heartbeat detection must then reclaim and re-broker
/// them to `pg-2`, where they finish.
#[test]
fn crashed_containers_in_flight_tasks_complete_elsewhere() {
    // Window [1 min, 4 min): awards to pg-1's analyzer vanish in
    // transit, so its ledger entries stay in flight. Crash at 4 min,
    // detected dead at ~7 min (3 missed 60 s heartbeats).
    let plan = ChaosPlan::new()
        .drop_to_between(60_000, 4 * 60_000, AgentId::new("analyzer-pg-1@grid"))
        .crash_at(4 * 60_000, "pg-1");
    let mut grid = ManagementGrid::builder()
        .network(network(4, 23))
        .collectors_per_site(2)
        // pg-1's higher capacity attracts the early awards.
        .analyzer("pg-1", 4.0, ALL_SKILLS)
        .analyzer("pg-2", 1.0, ALL_SKILLS)
        .recovery(RecoveryConfig::seeded(23))
        .chaos(plan)
        .build();
    let report = grid.run(15 * 60_000, 60_000);

    // Some task was awarded to pg-1, stranded, and completed via pg-2.
    let moved: Vec<&str> = report
        .rebrokered
        .iter()
        .filter(|id| {
            report
                .assignments
                .iter()
                .any(|(t, c)| t == *id && c == "pg-1")
                && report
                    .assignments
                    .iter()
                    .any(|(t, c)| t == *id && c == "pg-2")
        })
        .map(String::as_str)
        .collect();
    assert!(
        !moved.is_empty(),
        "no in-flight task moved from the crashed container to the survivor; \
         rebrokered: {:?}",
        report.rebrokered
    );
    for id in moved {
        assert!(
            report.completed_ids.iter().any(|done| done == id),
            "moved task {id} never completed on the survivor"
        );
    }
    assert_eq!(report.audit(), []);
    // The death surfaced operationally too.
    assert!(report.alerts.iter().any(|a| a.rule == "container-dead"));
}

/// An orderly removal (`crash_container` deregisters the container)
/// takes its in-flight work with it: the root reclaims the tasks on its
/// next tick and re-awards each exactly once through a fresh brokering
/// round, without waiting out the retry deadlines and without an alert.
#[test]
fn killed_containers_in_flight_tasks_are_rebrokered_on_the_next_tick() {
    // From minute 1, awards to pg-1's analyzer vanish in transit, so its
    // ledger entries stay in flight until the kill.
    let plan =
        ChaosPlan::new().drop_to_between(60_000, 3 * 60_000, AgentId::new("analyzer-pg-1@grid"));
    let mut grid = ManagementGrid::builder()
        .network(network(4, 23))
        .collectors_per_site(2)
        .analyzer("pg-1", 4.0, ALL_SKILLS)
        .analyzer("pg-2", 1.0, ALL_SKILLS)
        .chaos(plan)
        .build();
    let before = grid.run(2 * 60_000, 60_000);
    let stranded: Vec<String> = before
        .outstanding
        .iter()
        .filter(|id| {
            before
                .assignments
                .iter()
                .rev()
                .find(|(t, _)| t == *id)
                .is_some_and(|(_, c)| c == "pg-1")
        })
        .cloned()
        .collect();
    assert!(!stranded.is_empty(), "pg-1 must hold in-flight work");

    grid.crash_container("pg-1");
    let next_tick = grid.run(60_000, 60_000);
    for id in &stranded {
        assert!(
            next_tick.rebrokered.iter().any(|re| re == id),
            "{id} not re-brokered on the next tick: {:?}",
            next_tick.rebrokered
        );
        let last = next_tick.assignments.iter().rev().find(|(t, _)| t == id);
        assert_eq!(last.map(|(_, c)| c.as_str()), Some("pg-2"));
    }

    let report = grid.run(5 * 60_000, 60_000);
    assert_eq!(report.audit(), []);
    for id in &stranded {
        assert!(
            report.completed_ids.iter().any(|done| done == id),
            "{id} never completed"
        );
    }
    assert_eq!(report.escalations, 0, "an orderly removal raises no alert");
    assert!(!report
        .alerts
        .iter()
        .any(|a| a.rule == "container-dead" || a.rule == "task-retry-exhausted"));
}

#[test]
fn unreachable_device_keeps_the_rest_of_the_fleet_monitored() {
    let mut grid = ManagementGrid::builder()
        .network(network(3, 11))
        .analyzer("pg-1", 1.0, ALL_SKILLS)
        .fault(ScheduledFault::from(
            "dev-0",
            FaultKind::Unreachable,
            60_000,
        ))
        .build();
    let report = grid.run(5 * 60_000, 60_000);
    // The outage is reported...
    assert!(report
        .alerts
        .iter()
        .any(|a| a.rule == "device-unreachable" && a.device == "dev-0"));
    // ...and other devices' data still arrives.
    let store = grid.store();
    let store = store.lock();
    assert!(store.latest("dev-1", "cpu.load.1").is_some());
    assert!(store.latest("dev-2", "cpu.load.1").is_some());
}

#[test]
fn fault_clearing_stops_new_alerts() {
    let mut grid = ManagementGrid::builder()
        .network(network(2, 13))
        .analyzer("pg-1", 1.0, ALL_SKILLS)
        .fault(ScheduledFault::from("dev-0", FaultKind::CpuRunaway, 60_000).until(4 * 60_000))
        .build();
    grid.run(4 * 60_000, 60_000);
    let during = grid.alerts().len();
    assert!(during > 0, "fault window must alert");
    // Several healthy minutes later, no *new* high-cpu alerts appear.
    grid.run(5 * 60_000, 60_000);
    let after = grid.alerts();
    let new_high_cpu = after
        .iter()
        .skip(during)
        .filter(|a| a.rule == "high-cpu")
        .count();
    assert_eq!(new_high_cpu, 0, "cleared fault must stop alerting");
}

#[test]
fn transport_drops_to_classifier_starve_analysis_but_not_collection() {
    let mut grid = ManagementGrid::builder()
        .network(network(2, 17))
        .analyzer("pg-1", 1.0, ALL_SKILLS)
        .build();
    let classifier = agentgrid_suite::acl::AgentId::with_platform("classifier", "grid");
    let window = LinkSelector::To(classifier);
    grid.platform_mut().net_command(NetCommand::AddLinkFaults(
        window.clone(),
        LinkFaults::DROP_ALL,
    ));
    let report = grid.run(3 * 60_000, 60_000);
    assert_eq!(report.records_stored, 0, "no batch reaches the classifier");
    assert!(report.assignments.is_empty(), "no data-ready → no tasks");

    // Closing the window restores the pipeline.
    grid.platform_mut()
        .net_command(NetCommand::ClearLinkFaults(window));
    let healed = grid.run(3 * 60_000, 60_000);
    assert!(healed.records_stored > 0);
    assert!(!healed.assignments.is_empty());
}

#[test]
fn replicated_store_survives_rolling_failures() {
    let mut store = ReplicatedStore::new(3);
    for t in 0..100u64 {
        // Roll a failure across replicas every 10 writes.
        if t % 10 == 0 {
            let victim = ((t / 10) % 3) as usize;
            if store.live_count() > 1 {
                store.fail(victim).unwrap();
            }
            let recovered = ((t / 10 + 1) % 3) as usize;
            store.recover(recovered).unwrap();
        }
        store
            .insert(Record::new("d", "cpu.load.1", t as f64, t * 1000))
            .unwrap();
        assert!(store.is_consistent(), "live replicas must agree at t={t}");
    }
    assert_eq!(store.read().unwrap().len(), 100);
}
