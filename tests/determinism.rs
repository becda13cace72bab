//! Reproducibility and end-to-end robustness properties of the whole
//! system.

use agentgrid_suite::net::{Device, DeviceKind, FaultKind, Network, ScheduledFault};
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

fn run_once(seed: u64, minutes: u64) -> agentgrid_suite::GridReport {
    let mut grid = ManagementGrid::builder()
        .network(network(4, seed))
        .collectors_per_site(2)
        .analyzer("pg-1", 1.0, ALL_SKILLS)
        .analyzer("pg-2", 2.0, ALL_SKILLS)
        .fault(ScheduledFault::from(
            "dev-2",
            FaultKind::CpuRunaway,
            2 * 60_000,
        ))
        .build();
    grid.run(minutes * 60_000, 60_000)
}

/// The Figure-2 experiment's grid, reconstructed here so the test pins
/// the same shape `repro fig2` runs: two sites of four devices, two
/// collectors per site, two analyzers, a CPU fault and a link fault.
fn fig2_builder(
    store: agentgrid_suite::store::StoreBackend,
) -> agentgrid_suite::core::grid::GridBuilder {
    let mut net = Network::new();
    for s in 0..2 {
        let site = format!("site-{s}");
        for d in 0..4 {
            let kind = match d % 3 {
                0 => DeviceKind::Router,
                1 => DeviceKind::Switch,
                _ => DeviceKind::Server,
            };
            net.add_device(
                Device::builder(format!("{site}-dev{d}"), kind)
                    .site(&site)
                    .seed(11u64.wrapping_add((s * 100 + d) as u64))
                    .build(),
            );
        }
    }
    ManagementGrid::builder()
        .network(net)
        .store_backend(store)
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
        ))
}

/// Two same-seed Figure-2 runs must diff clean — the rendered report is
/// compared as a whole string, the same artifact `repro fig2` prints —
/// on the stepper and on the work-stealing pool, to themselves and to
/// each other, so any nondeterminism the chunked store introduced would
/// surface here.
#[test]
fn fig2_runs_diff_clean_across_det_and_pool_runtimes() {
    use agentgrid_suite::store::StoreBackend;

    let horizon = 10 * 60_000;
    let stepper = || {
        fig2_builder(StoreBackend::Chunked)
            .build()
            .run(horizon, 60_000)
            .render()
    };
    let pool = || {
        fig2_builder(StoreBackend::Chunked)
            .build_pool()
            .run(horizon, 60_000)
            .render()
    };

    let reference = stepper();
    assert!(!reference.is_empty(), "the report must render something");
    assert_eq!(reference, stepper(), "stepper: same seed, same report");
    assert_eq!(pool(), pool(), "pool: same seed, same report");
    assert_eq!(reference, pool(), "stepper and pool must diff clean");
}

/// The record-per-point naive engine is the executable spec of the
/// chunked engine: a grid run on either backend must render the exact
/// same report (CI's store-parity smoke diffs the real `repro fig2`
/// output the same way).
#[test]
fn fig2_report_is_identical_on_chunked_and_naive_backends() {
    use agentgrid_suite::store::StoreBackend;

    let run = |store| {
        fig2_builder(store)
            .build()
            .run(10 * 60_000, 60_000)
            .render()
    };
    assert_eq!(run(StoreBackend::Chunked), run(StoreBackend::Naive));
}

#[test]
fn identical_configurations_produce_identical_runs() {
    let a = run_once(33, 8);
    let b = run_once(33, 8);
    assert_eq!(a.records_stored, b.records_stored);
    assert_eq!(a.messages_delivered, b.messages_delivered);
    assert_eq!(a.assignments, b.assignments);
    assert_eq!(a.alerts.len(), b.alerts.len());
    for (x, y) in a.alerts.iter().zip(&b.alerts) {
        assert_eq!(x, y, "alert streams must match exactly");
    }
}

#[test]
fn different_seeds_produce_different_telemetry() {
    let a = run_once(1, 5);
    let b = run_once(2, 5);
    // Structure matches (same topology) but the sampled values differ,
    // which shows the seed actually drives the generators.
    assert_eq!(a.records_stored, b.records_stored);
    assert_ne!(
        a.alerts, b.alerts,
        "different metric streams should alert differently (statistically certain)"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Whatever fault schedule is thrown at it, the grid never loses
    /// messages, never leaves a task unfinished, and keeps storing data.
    #[test]
    fn grid_is_robust_to_arbitrary_fault_schedules(
        seed in 0u64..1000,
        faults in prop::collection::vec(
            (0usize..4, 0u8..5, 1u64..10, 0u64..8),
            0..6,
        ),
    ) {
        let mut builder = ManagementGrid::builder()
            .network(network(4, seed))
            .collectors_per_site(2)
            .analyzer("pg-1", 1.0, ALL_SKILLS)
            .analyzer("pg-2", 1.0, ALL_SKILLS);
        for (device, kind, start_min, duration_min) in faults {
            let fault = match kind {
                0 => FaultKind::CpuRunaway,
                1 => FaultKind::LinkDown(1),
                2 => FaultKind::DiskFilling,
                3 => FaultKind::MemoryLeak,
                _ => FaultKind::Unreachable,
            };
            let mut scheduled =
                ScheduledFault::from(format!("dev-{device}"), fault, start_min * 60_000);
            if duration_min > 0 {
                scheduled = scheduled.until((start_min + duration_min) * 60_000);
            }
            builder = builder.fault(scheduled);
        }
        let mut grid = builder.build();
        let report = grid.run(12 * 60_000, 60_000);
        prop_assert_eq!(report.dead_letters, 0);
        prop_assert!(report.outstanding.is_empty());
        prop_assert_eq!(report.tasks_completed, report.assignments.len() as u64);
        prop_assert!(report.records_stored > 0);
    }
}
