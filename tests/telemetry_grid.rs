//! Integration tests for the telemetry subsystem on the live grid:
//! conversation tracing across the four grid stages, metrics export,
//! and the load account behind the directory's resource profiles.

use agentgrid_suite::net::{Device, DeviceKind, FaultKind, Network, ScheduledFault};
use agentgrid_suite::platform::{window_load, Runtime, Telemetry};
use agentgrid_suite::{GridReport, ManagementGrid};

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

fn small_network() -> Network {
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
}

/// On the pool runtime, a collector's poll must be traceable hop by
/// hop through the whole pipeline: the batch lands on the classifier,
/// the classifier notifies the root, the root brokers to an analyzer,
/// and the analyzer reports to the interface — all within one
/// conversation, linked by parent spans.
#[test]
fn pool_grid_trace_covers_collector_to_interface() {
    let telemetry = Telemetry::new();
    let mut grid = ManagementGrid::builder()
        .network(small_network())
        .analyzer("pg-1", 1.0, ALL_SKILLS)
        // A fault makes the analyzer raise an alert, completing the
        // pipeline's last hop into the interface grid.
        .fault(ScheduledFault::from("srv-0", FaultKind::CpuRunaway, 60_000))
        .telemetry(telemetry.clone())
        .build_pool();
    grid.run(6 * 60_000, 60_000);

    let tracer = telemetry.tracer();
    let full_pipeline = tracer.conversations().into_iter().find(|conversation| {
        let spans = tracer.conversation_spans(conversation);
        let hit = |agent: &str| spans.iter().any(|s| s.receiver.starts_with(agent));
        hit("classifier@") && hit("pg-root@") && hit("analyzer-pg-1@") && hit("interface@")
    });
    let Some(conversation) = full_pipeline else {
        panic!(
            "no conversation covers all four hops; conversations: {:?}",
            tracer.conversations().len()
        );
    };

    // The hops must be causally chained, not merely co-grouped: walking
    // parents from the interface hop must pass through the analyzer,
    // root and classifier hops back to the parentless collector batch.
    let spans = tracer.conversation_spans(&conversation);
    let span_of = |agent: &str| {
        spans
            .iter()
            .find(|s| s.receiver.starts_with(agent))
            .unwrap_or_else(|| panic!("no span to {agent}"))
    };
    let mut chain = Vec::new();
    let mut current = Some(span_of("interface@").id);
    while let Some(id) = current {
        let span = spans
            .iter()
            .find(|s| s.id == id)
            .expect("parent in conversation");
        chain.push(span.receiver.clone());
        current = span.parent;
    }
    assert!(
        chain.len() >= 4,
        "interface hop must chain back through analyzer, root and classifier: {chain:?}"
    );
    assert!(chain[1].starts_with("analyzer-pg-1@"), "{chain:?}");
    assert!(
        chain[chain.len() - 1].starts_with("classifier@"),
        "{chain:?}"
    );

    // Delivery metadata is filled in along the way.
    let classifier_hop = span_of("classifier@");
    assert_eq!(classifier_hop.container.as_deref(), Some("clg"));
    assert!(classifier_hop.delivered_ms.is_some());
    assert!(classifier_hop.handled_ms.is_some());

    // The rendered tree shows the same chain, indented.
    let tree = telemetry.tracer().render_tree(&conversation);
    assert!(tree.contains("classifier@"), "{tree}");
    assert!(tree.contains("interface@"), "{tree}");
}

/// The deterministic grid exports non-zero traffic for every stage in
/// both formats.
#[test]
fn grid_exports_nonzero_counters_for_every_stage() {
    let telemetry = Telemetry::new();
    let mut grid = ManagementGrid::builder()
        .network(small_network())
        .analyzer("pg-1", 1.0, ALL_SKILLS)
        .fault(ScheduledFault::from("srv-0", FaultKind::CpuRunaway, 60_000))
        .telemetry(telemetry.clone())
        .build();
    grid.run(6 * 60_000, 60_000);

    let snapshot = telemetry.snapshot();
    for stage in ["collector", "classifier", "root", "analyzer", "interface"] {
        let count = snapshot
            .counter("agentgrid_stage_messages_total", &[("stage", stage)])
            .unwrap_or(0);
        assert!(count > 0, "stage `{stage}` recorded no traffic");
    }
    assert!(telemetry.delivered_total() > 0);
    assert_eq!(telemetry.dead_letter_total(), 0);

    let prom = telemetry.prometheus();
    assert!(prom.contains("agentgrid_stage_messages_total{stage=\"collector\"}"));
    assert!(prom.contains("agentgrid_delivery_latency_ms_bucket"));
    let json = telemetry.json();
    assert!(json.contains("\"agentgrid_stage_messages_total\""));
    assert!(json.contains("\"stage\":\"analyzer\""));

    // Broker outcomes ride along with the runtime counters.
    let assigned = snapshot
        .counter("agentgrid_broker_tasks_total", &[("outcome", "assigned")])
        .unwrap_or(0);
    assert!(assigned > 0, "root brokered nothing");
}

/// The recovery layer's metric families — retry counters, the
/// re-brokered counter and the per-container liveness gauges — must
/// track the run's recovery statistics exactly, and survive the
/// Prometheus text export (including label-value escaping).
#[test]
fn recovery_metrics_track_chaos_and_export_cleanly() {
    use agentgrid_suite::core::chaos::ChaosPlan;
    use agentgrid_suite::core::recovery::RecoveryConfig;

    let telemetry = Telemetry::new();
    let plan = ChaosPlan::new()
        .crash_at(2 * 60_000, "pg-1")
        .restart_at(7 * 60_000, "pg-1");
    let mut grid = ManagementGrid::builder()
        .network(small_network())
        .analyzer("pg-1", 4.0, ALL_SKILLS)
        .analyzer("pg-2", 1.0, ALL_SKILLS)
        .recovery(RecoveryConfig::seeded(5))
        .chaos(plan)
        .telemetry(telemetry.clone())
        .build();
    let report = grid.run(15 * 60_000, 60_000);
    assert!(
        !report.rebrokered.is_empty(),
        "the crash must force re-brokering for the metrics to witness"
    );

    let snapshot = telemetry.snapshot();
    // Counters mirror the report's recovery statistics one-to-one.
    assert_eq!(
        snapshot.counter("agentgrid_retries_total", &[("component", "broker")]),
        Some(report.retries),
        "broker retry counter must match the run's retry count"
    );
    assert_eq!(
        snapshot.counter("agentgrid_rebrokered_tasks_total", &[]),
        Some(report.rebrokered.len() as u64),
    );
    // Collector retries ride the same family under their own label, so
    // the two components never collide.
    let collector_retries = snapshot
        .counter("agentgrid_retries_total", &[("component", "collector")])
        .unwrap_or(0);
    assert!(collector_retries <= report.retries + collector_retries);
    // Liveness gauges exist for both containers with a valid encoding;
    // by the end of the run both are back to alive (0).
    for container in ["pg-1", "pg-2"] {
        let v = snapshot
            .gauge("agentgrid_container_liveness", &[("container", container)])
            .unwrap_or_else(|| panic!("no liveness gauge for {container}"));
        assert!((0..=2).contains(&v), "{container} gauge out of range: {v}");
        assert_eq!(v, 0, "{container} must be alive again at the horizon");
    }

    // The families render in Prometheus text format…
    let prom = telemetry.prometheus();
    assert!(prom.contains("agentgrid_retries_total{component=\"broker\"}"));
    assert!(prom.contains("agentgrid_rebrokered_tasks_total"));
    assert!(prom.contains("agentgrid_container_liveness{container=\"pg-1\"}"));
    // …and a hostile container name is escaped per the text-format spec
    // (backslash, double quote, newline).
    telemetry
        .registry()
        .gauge(
            "agentgrid_container_liveness",
            &[("container", "pg\\3 \"ha\"\nx")],
        )
        .set(2);
    let prom = telemetry.prometheus();
    assert!(
        prom.contains("agentgrid_container_liveness{container=\"pg\\\\3 \\\"ha\\\"\\nx\"} 2"),
        "escaped liveness gauge missing from: {prom}"
    );
}

/// Attaching a telemetry sink (live profiles off) must not perturb the
/// deterministic grid: the runs are byte-for-byte identical.
#[test]
fn telemetry_attachment_preserves_determinism() {
    let run = |with_telemetry: bool| {
        let mut builder = ManagementGrid::builder()
            .network(small_network())
            .analyzer("pg-1", 1.0, ALL_SKILLS)
            .analyzer("pg-2", 1.0, ALL_SKILLS);
        if with_telemetry {
            builder = builder.telemetry(Telemetry::new());
        }
        let mut grid = builder.build();
        grid.run(6 * 60_000, 60_000)
    };
    let bare = run(false);
    let observed = run(true);
    // The latency summary exists only with a sink; nothing else differs.
    assert!(bare.task_latency.is_none() && observed.task_latency.is_some());
    assert_eq!(
        bare,
        GridReport {
            task_latency: None,
            ..observed
        }
    );
}

/// The directory's load figures are the load account's: after one tick
/// a container advertises the records awarded to it in that window over
/// its capacity — Fig. 4's resource profile as observed, not declared —
/// and brokering over those figures still completes all its work.
#[test]
fn live_profiles_feed_measured_load_into_the_directory() {
    let telemetry = Telemetry::new();
    let mut grid = ManagementGrid::builder()
        .network(small_network())
        .analyzer("pg-1", 1.0, ALL_SKILLS)
        .telemetry(telemetry.clone())
        .build();
    let tick_ms = 60_000u64;
    let report = grid.run(tick_ms, tick_ms); // exactly one tick

    // The only analyzer was awarded every record stored in the tick.
    let (charged, actual) = grid.platform_mut().with_df(|df| {
        let profile = df.container_profile("pg-1").expect("analyzer registered");
        (df.charged("pg-1"), profile.load)
    });
    assert!(charged > 0);
    assert_eq!(charged, report.records_stored as u64);
    let expected = window_load(charged, 1.0);
    assert_eq!(
        actual, expected,
        "directory load {actual} must be the account's figure {expected}"
    );
    assert!(actual < 1.0, "one small site does not saturate an analyzer");

    // Brokering keeps working off the account.
    let report2 = grid.run(5 * 60_000, tick_ms);
    assert!(report.records_stored <= report2.records_stored);
    assert!(!report2.assignments.is_empty());
    assert!(report2.outstanding.is_empty());
    assert_eq!(report2.tasks_completed, report2.assignments.len() as u64);
}
