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
fn fig2_builder() -> agentgrid_suite::core::grid::GridBuilder {
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

/// Two same-seed Figure-2 runs must diff clean — the whole report is
/// compared, the rendered artifact `repro fig2` prints and every log
/// behind it — on the stepper and on the work-stealing pool, to
/// themselves and to each other, so any nondeterminism the chunked store
/// introduced would surface here.
#[test]
fn fig2_runs_diff_clean_across_det_and_pool_runtimes() {
    let horizon = 10 * 60_000;
    let stepper = || fig2_builder().build().run(horizon, 60_000);
    let pool = || fig2_builder().build_pool().run(horizon, 60_000);

    let reference = stepper();
    assert!(!reference.alerts.is_empty(), "the run must raise alerts");
    assert_eq!(reference, stepper(), "stepper: same seed, same report");
    assert_eq!(pool(), pool(), "pool: same seed, same report");
    assert_eq!(reference, pool(), "stepper and pool must diff clean");
}

/// The record-per-point `NaiveStore` is the executable spec of the
/// chunked store engine. The Figure-2 run's store is replayed into it —
/// every series read back whole with `range` and tagged with its
/// device's site — and every query the grid issues must then answer
/// bit-identically on both engines.
#[test]
fn fig2_store_replays_bit_identically_into_the_naive_spec() {
    use agentgrid_suite::store::{AggKind, LabelFilter, NaiveStore, Record};

    let bits = |p: Option<(u64, f64)>| p.map(|(t, v)| (t, v.to_bits()));
    let mut grid = fig2_builder().build();
    grid.run(10 * 60_000, 60_000);
    let store = grid.store();
    let store = store.lock();
    let sites = ["site-0", "site-1", "default"];
    let mut naive = NaiveStore::new(store.classifier().clone());
    for device in store.devices() {
        let at: Vec<&str> = sites
            .into_iter()
            .filter(|site| store.devices_at(site).any(|d| d == device))
            .collect();
        let [site] = at[..] else {
            panic!("{device} must sit at exactly one site, found {at:?}");
        };
        for metric in store.metrics_of(device) {
            for (ts, value) in store.range(device, metric, 0, u64::MAX) {
                naive.insert(Record::new(device, metric, value, ts).with_site(site));
            }
        }
    }

    assert!(!store.is_empty(), "the run must store data");
    assert_eq!(store.len(), naive.len());
    assert_eq!(store.partitions(), naive.partitions());
    assert_eq!(
        store.devices().collect::<Vec<_>>(),
        naive.devices().collect::<Vec<_>>()
    );
    for site in sites {
        assert_eq!(
            store.devices_at(site).collect::<Vec<_>>(),
            naive.devices_at(site).collect::<Vec<_>>(),
            "devices at {site}"
        );
    }
    for partition in store.partitions() {
        let class = LabelFilter::class(partition);
        assert_eq!(store.select(&class), naive.select(&class), "{partition}");
        for site in sites {
            let scoped = class.clone().and(LabelFilter::site(site));
            assert_eq!(
                store.select(&scoped),
                naive.select(&scoped),
                "{partition}@{site}"
            );
        }
    }
    for (device, metric) in store.select(&LabelFilter::Any) {
        let series = format!("{device}/{metric}");
        assert_eq!(
            bits(store.latest(&device, &metric)),
            bits(naive.latest(&device, &metric)),
            "latest {series}"
        );
        let stats = |s: Option<agentgrid_suite::store::SeriesStats>| {
            s.map(|s| {
                (
                    s.count,
                    s.min.to_bits(),
                    s.max.to_bits(),
                    s.mean.to_bits(),
                    s.last.to_bits(),
                )
            })
        };
        assert_eq!(
            stats(store.stats(&device, &metric, 0, u64::MAX)),
            stats(naive.stats(&device, &metric, 0, u64::MAX)),
            "stats {series}"
        );
        assert_eq!(
            store
                .trend_per_min(&device, &metric, 0, u64::MAX)
                .map(f64::to_bits),
            naive
                .trend_per_min(&device, &metric, 0, u64::MAX)
                .map(f64::to_bits),
            "trend {series}"
        );
    }
    for kind in [
        AggKind::Min,
        AggKind::Max,
        AggKind::Mean,
        AggKind::Sum,
        AggKind::Count,
        AggKind::Trend,
    ] {
        let windows = |rows: Vec<agentgrid_suite::store::SeriesWindows>| {
            rows.into_iter()
                .map(|r| {
                    let points: Vec<(u64, u64)> = r
                        .windows
                        .iter()
                        .map(|w| (w.window_ms, w.value.to_bits()))
                        .collect();
                    (r.key, points)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(
            windows(store.query_windows(&LabelFilter::Any, 0, u64::MAX, 3 * 60_000, kind)),
            windows(naive.query_windows(&LabelFilter::Any, 0, u64::MAX, 3 * 60_000, kind)),
            "{kind:?} windows"
        );
    }
}

#[test]
fn identical_configurations_produce_identical_runs() {
    assert_eq!(run_once(33, 8), run_once(33, 8));
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
