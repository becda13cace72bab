//! Integration tests for the directory's load account: the one figure
//! behind every container's advertised load (paper §3.5's idleness and
//! Fig. 4's resource profiles), and the mobility it triggers.

use agentgrid_suite::core::mobility::Rebalancer;
use agentgrid_suite::core::ontology::ResourceProfile;
use agentgrid_suite::net::{Device, DeviceKind, Network};
use agentgrid_suite::platform::{window_load, Platform};
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

const ANALYZERS: [&str; 4] = ["pg-1", "pg-2", "pg-3", "pg-4"];

/// `sites` sites of `devices` devices each (router, switch, servers),
/// seeded per device.
fn network(sites: usize, devices: usize, seed: u64) -> Network {
    let mut network = Network::new();
    for s in 0..sites {
        let site = format!("site-{s}");
        for d in 0..devices {
            let kind = match d % 3 {
                0 => DeviceKind::Router,
                1 => DeviceKind::Switch,
                _ => DeviceKind::Server,
            };
            network.add_device(
                Device::builder(format!("{site}-dev{d}"), kind)
                    .site(&site)
                    .seed(seed.wrapping_add((s * 100 + d) as u64))
                    .build(),
            );
        }
    }
    network
}

/// Four sites of eight devices over four equal all-skill analyzers.
fn four_equal_analyzers() -> ManagementGrid<Platform> {
    let mut builder = ManagementGrid::builder().network(network(4, 8, 101));
    for name in ANALYZERS {
        builder = builder.analyzer(name, 1.0, ALL_SKILLS);
    }
    builder.build()
}

/// Adds an agentless spare container with a registered profile.
fn add_spare(grid: &mut ManagementGrid<Platform>) {
    grid.platform_mut().add_container("spare");
    grid.platform_mut()
        .df_mut()
        .register_container(ResourceProfile::new("spare", 4.0, 1.0, 8192, ALL_SKILLS));
}

/// The advertised load carries information: on a grid whose work fits
/// its analyzers, no load sits at the ceiling, every record stored in
/// the last window was charged to exactly one analyzer, and the one
/// awarded more records in that window advertises the higher load.
#[test]
fn advertised_loads_stay_below_the_ceiling_and_follow_the_work() {
    let mut grid = four_equal_analyzers();
    let before = grid.run(39 * 60_000, 60_000);
    let after = grid.run(60_000, 60_000);
    let stored_in_window = (after.records_stored - before.records_stored) as u64;

    let df = grid.platform_mut().df();
    let accounts: Vec<(u64, f64)> = ANALYZERS
        .iter()
        .map(|c| (df.charged(c), df.container_profile(c).unwrap().load))
        .collect();
    let charged: u64 = accounts.iter().map(|(records, _)| records).sum();
    assert_eq!(charged, stored_in_window, "each stored record charged once");
    for (records, load) in &accounts {
        assert!(*load < 1.0, "load at the ceiling: {accounts:?}");
        assert_eq!(*load, window_load(*records, 1.0));
    }
    for (a_records, a_load) in &accounts {
        for (b_records, b_load) in &accounts {
            if a_records > b_records {
                assert!(a_load > b_load, "more work must read busier: {accounts:?}");
            }
        }
    }
    let distinct: std::collections::BTreeSet<u64> = accounts.iter().map(|a| a.0).collect();
    assert!(
        distinct.len() > 1,
        "the window's work is not split evenly: {accounts:?}"
    );
}

/// An analyzer whose capacity the grid's records outrun saturates the
/// account and migrates to the spare under the default watermarks.
#[test]
fn a_saturated_analyzer_migrates_to_a_spare_at_fixed_watermarks() {
    let mut grid = ManagementGrid::builder()
        .network(network(4, 8, 101))
        .analyzer("pg-1", 0.5, ALL_SKILLS)
        .build();
    add_spare(&mut grid);
    let before = grid.run(5 * 60_000, 60_000);
    let load = grid
        .platform_mut()
        .df()
        .container_profile("pg-1")
        .unwrap()
        .load;
    assert_eq!(load, 1.0, "one half-capacity analyzer cannot keep up");

    let migrations = Rebalancer::default().rebalance(grid.platform_mut());
    assert_eq!(migrations.len(), 1);
    assert_eq!(
        (migrations[0].from.as_str(), migrations[0].to.as_str()),
        ("pg-1", "spare")
    );

    let after = grid.run(3 * 60_000, 60_000);
    let new_work: Vec<_> = after
        .assignments
        .iter()
        .skip(before.assignments.len())
        .collect();
    assert!(!new_work.is_empty() && new_work.iter().all(|(_, c)| c == "spare"));
    assert!(after.outstanding.is_empty());
    let df = grid.platform_mut().df();
    assert!(df.container_profile("spare").unwrap().load < Rebalancer::default().high_watermark);
}

/// A grid with headroom everywhere stays put under the same watermarks.
#[test]
fn an_idle_grid_does_not_migrate() {
    let mut grid = four_equal_analyzers();
    add_spare(&mut grid);
    grid.run(5 * 60_000, 60_000);
    assert!(Rebalancer::default()
        .rebalance(grid.platform_mut())
        .is_empty());
}
