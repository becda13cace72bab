//! Integration tests for the interface grid's feedback channel (rule
//! learning at runtime) and mobility-driven rebalancing.

use agentgrid_suite::core::mobility::Rebalancer;
use agentgrid_suite::core::ontology::ResourceProfile;
use agentgrid_suite::net::{Device, DeviceKind, Network};
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
fn taught_rules_fire_and_replace_by_name() {
    let mut grid = ManagementGrid::builder()
        .network(network(2, 7))
        .analyzer("pg-1", 1.0, ALL_SKILLS)
        .build();
    grid.run(2 * 60_000, 60_000);

    // Teach a very chatty rule.
    grid.teach_rule(
        r#"rule "ops-note" { when procs(device: ?d, value: ?v) if ?v > 0 then emit info ?d "procs ?v" }"#,
    );
    let with_rule = grid.run(3 * 60_000, 60_000);
    let fired = with_rule
        .alerts
        .iter()
        .filter(|a| a.rule == "ops-note")
        .count();
    assert!(fired > 0, "taught rule must fire");

    // Re-teach the same rule name with an impossible guard: it must
    // *replace* the old body, silencing it.
    grid.teach_rule(
        r#"rule "ops-note" { when procs(device: ?d, value: ?v) if ?v < 0 then emit info ?d "never" }"#,
    );
    let alerts_before = grid.alerts().len();
    grid.run(3 * 60_000, 60_000);
    let new_notes = grid
        .alerts()
        .iter()
        .skip(alerts_before)
        .filter(|a| a.rule == "ops-note")
        .count();
    assert_eq!(new_notes, 0, "replaced rule must stop firing");
}

#[test]
fn taught_rules_run_at_the_level_their_pattern_count_picks() {
    use agentgrid_suite::net::{FaultKind, ScheduledFault};

    let mut grid = ManagementGrid::builder()
        .network(network(3, 5))
        .analyzer("pg-1", 1.0, ALL_SKILLS)
        .fault(ScheduledFault::from("dev-0", FaultKind::CpuRunaway, 0))
        .fault(ScheduledFault::from("dev-1", FaultKind::LinkDown(1), 0))
        .build();
    grid.run(2 * 60_000, 60_000);
    let failover_storm = r#"rule "failover-storm" salience 20 {
        when if_status(device: ?acc, index: ?i, value: ?s)
        when cpu(device: ?agg, value: ?v)
        if ?s == 2
        if ?v > 90
        then emit critical ?agg "storm: ?agg hot while ?acc lost ?i"
    }"#;
    // Messages of the new alerts of `failover-storm` over `rounds`.
    let run = |grid: &mut ManagementGrid, rounds: u64| -> Vec<String> {
        let before = grid.alerts().len();
        grid.run(rounds * 60_000, 60_000);
        grid.alerts()
            .iter()
            .skip(before)
            .filter(|a| a.rule == "failover-storm")
            .map(|a| a.message.clone())
            .collect()
    };

    // A taught join reaches the level-3 view: it fires at the next
    // round's sweep.
    grid.teach_rule(failover_storm);
    let joined = run(&mut grid, 1);
    assert!(!joined.is_empty(), "the taught join must fire at the sweep");
    assert!(joined.iter().all(|m| m.starts_with("storm: dev-0")));

    // Re-taught with one pattern, the name moves to the per-device view:
    // the site's interface task raises it once per round, and the old
    // join body fires at neither level.
    grid.teach_rule(
        r#"rule "failover-storm" {
            when if_status(device: ?d, index: ?i, value: ?s)
            if ?s == 2
            then emit warning ?d "single: ?d lost ?i"
        }"#,
    );
    let single = run(&mut grid, 3);
    assert_eq!(single, vec!["single: dev-1 lost 1"; 3]);

    // And back: the join returns and the single-pattern body is gone.
    grid.teach_rule(failover_storm);
    let joined = run(&mut grid, 2);
    assert!(!joined.is_empty());
    assert!(joined.iter().all(|m| m.starts_with("storm: dev-0")));
}

#[test]
fn malformed_taught_rule_is_ignored_gracefully() {
    let mut grid = ManagementGrid::builder()
        .network(network(1, 9))
        .analyzer("pg-1", 1.0, ALL_SKILLS)
        .build();
    grid.teach_rule("rule \"broken { this is not the dsl");
    // The grid keeps running and default rules still work.
    let report = grid.run(3 * 60_000, 60_000);
    assert!(report.records_stored > 0);
    assert_eq!(report.dead_letters, 0);
}

#[test]
fn rebalancer_moves_analyzer_to_spare_and_work_follows() {
    let mut grid = ManagementGrid::builder()
        .network(network(4, 21))
        .collectors_per_site(2)
        .analyzer("pg-1", 1.0, ALL_SKILLS)
        .build();
    // A spare (faster) container joins with a profile but no agent.
    grid.platform_mut().add_container("spare");
    grid.platform_mut()
        .df_mut()
        .register_container(ResourceProfile::new("spare", 4.0, 1.0, 8192, ALL_SKILLS));

    let before = grid.run(4 * 60_000, 60_000);
    assert!(
        !before.tasks_per_container().contains_key("spare"),
        "no analyzer on the spare yet → no tasks may go there"
    );

    // Force a migration regardless of current load figures.
    let rebalancer = Rebalancer {
        high_watermark: 0.0,
        low_watermark: 1.0,
    };
    let migrations = rebalancer.rebalance(grid.platform_mut());
    assert_eq!(migrations.len(), 1);
    assert_eq!(migrations[0].from, "pg-1");
    assert_eq!(migrations[0].to, "spare");

    let after = grid.run(4 * 60_000, 60_000);
    let new_assignments: Vec<_> = after
        .assignments
        .iter()
        .skip(before.assignments.len())
        .collect();
    assert!(!new_assignments.is_empty());
    assert!(
        new_assignments.iter().all(|(_, c)| c == "spare"),
        "after migration all work must flow to the spare: {new_assignments:?}"
    );
    assert!(after.outstanding.is_empty());
    assert_eq!(after.dead_letters, 0, "migration must not lose messages");
}

/// The liveness sweep covers only containers that host an analyzer, and
/// a migrated analyzer's heartbeat moves with it: an agentless spare is
/// not reaped as a container that never beat, and the destination of a
/// move is not declared dead before the analyzer's first tick there.
#[test]
fn spare_survives_liveness_and_takes_work_after_migration() {
    use agentgrid_suite::core::recovery::RecoveryConfig;

    let mut grid = ManagementGrid::builder()
        .network(network(4, 21))
        .collectors_per_site(2)
        .analyzer("pg-1", 1.0, ALL_SKILLS)
        .recovery(RecoveryConfig::default())
        .build();
    grid.platform_mut().add_container("spare");
    grid.platform_mut()
        .df_mut()
        .register_container(ResourceProfile::new("spare", 4.0, 1.0, 8192, ALL_SKILLS));
    // Long past the death threshold: the spare never beats.
    let before = grid.run(6 * 60_000, 60_000);

    let rebalancer = Rebalancer {
        high_watermark: 0.0,
        low_watermark: 1.0,
    };
    let migrations = rebalancer.rebalance(grid.platform_mut());
    assert_eq!(migrations.len(), 1, "the spare is still registered");
    assert_eq!(migrations[0].to, "spare");

    let after = grid.run(4 * 60_000, 60_000);
    let on_spare = after
        .assignments
        .iter()
        .skip(before.assignments.len())
        .filter(|(_, c)| c == "spare")
        .count();
    assert!(on_spare > 0, "work must follow the migrated analyzer");
    assert_eq!(after.escalations, 0, "no container was declared dead");
    assert_eq!(after.audit(), []);
}

/// Migration mid-scenario while the network adversary is active: an
/// analyzer moves to a spare container in the middle of a seeded
/// loss/duplication/partition plan with reliable delivery on. No task
/// or message may be lost across the move — retransmit-parked traffic
/// addressed to the migrating agent must follow it to its new
/// container — and the whole run (chaos, migration, recovery) must be
/// bit-identical when replayed with the same seed.
#[test]
fn migration_under_network_adversary_loses_nothing_and_replays_identically() {
    use agentgrid_suite::core::chaos::ChaosPlan;
    use agentgrid_suite::core::recovery::RecoveryConfig;
    use agentgrid_suite::platform::ReliabilityConfig;

    let seed = 5u64;
    let half = 8 * 60_000;
    let containers: Vec<String> = ["pg-1", "pg-2", "pg-root-ct", "clg", "cg-hq"]
        .iter()
        .map(|s| (*s).to_string())
        .collect();
    let plan = ChaosPlan::seeded_net(seed, &containers, 2 * half);
    assert!(!plan.is_empty());
    let run_once = || {
        let mut grid = ManagementGrid::builder()
            .network(network(4, 21))
            .collectors_per_site(2)
            .analyzer("pg-1", 1.0, ALL_SKILLS)
            .analyzer("pg-2", 1.0, ALL_SKILLS)
            .recovery(RecoveryConfig::seeded(seed))
            .net_adversary(seed)
            .reliability(ReliabilityConfig::seeded(seed))
            .chaos(plan.clone())
            .build();
        grid.run(half, 60_000);
        // The spare joins mid-scenario: a profile and a container.
        grid.platform_mut().add_container("spare");
        grid.platform_mut()
            .df_mut()
            .register_container(ResourceProfile::new("spare", 4.0, 1.0, 8192, ALL_SKILLS));
        // Force a migration regardless of current load figures.
        let rebalancer = Rebalancer {
            high_watermark: 0.0,
            low_watermark: 1.0,
        };
        let migrations = rebalancer.rebalance(grid.platform_mut());
        let report = grid.run(half, 60_000);
        (migrations, report)
    };
    let (migrations, report) = run_once();
    assert_eq!(migrations.len(), 1, "one analyzer moves to the spare");
    assert_eq!(migrations[0].to, "spare");

    assert_eq!(report.audit(), [], "invariants broken across the migration");
    assert!(
        report.tasks_per_container().contains_key("spare"),
        "work must follow the migrated analyzer: {:?}",
        report.tasks_per_container()
    );
    let net = report.net.expect("adversary configured");
    assert!(
        net.dropped + net.partition_dropped + net.duplicated > 0,
        "the adversary must actually interfere with the migration run"
    );

    // Same seed, same everything: migration under the adversary is as
    // reproducible as the rest of the simulation.
    let (again_migrations, again) = run_once();
    assert_eq!(migrations, again_migrations);
    assert_eq!(report, again);
}

#[test]
fn knowledge_base_merge_shares_rules_across_sites() {
    use agentgrid_suite::rules::{parse_rules, KnowledgeBase};
    // The paper's "shared knowledge" advantage: merging two sites' rule
    // bases yields the union, with name collisions resolved by the
    // newest version.
    let mut site_a = KnowledgeBase::from_rules(
        parse_rules(
            r#"rule "common" salience 1 { when x(v: ?v) }
               rule "a-only" { when y(v: ?v) }"#,
        )
        .unwrap(),
    );
    let site_b = KnowledgeBase::from_rules(
        parse_rules(
            r#"rule "common" salience 9 { when x(v: ?v) }
               rule "b-only" { when z(v: ?v) }"#,
        )
        .unwrap(),
    );
    site_a.absorb(site_b);
    assert_eq!(site_a.len(), 3);
    assert_eq!(site_a.get("common").unwrap().salience_value(), 9);
    assert!(site_a.get("a-only").is_some());
    assert!(site_a.get("b-only").is_some());
}
