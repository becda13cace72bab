//! Per-layer metrics of a traced run.
//!
//! Times come from the recorded spans: a layer's time is the self time
//! (duration minus the part its child spans cover) of the spans it owns.
//! Agent callbacks belong to their agent's grid stage; a
//! `platform.run_until_idle` span's self time is the platform's delivery
//! work; a round's self time is `net` (device simulation plus the grid
//! run loop around `run_until_idle`). Counts come from the collected
//! batches and the run's report. The store, rule-engine and decoder
//! probes run on the end-of-run state, after the timed rounds.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use agentgrid::grid::{facts_for, GridReport, DEFAULT_RULES};
use agentgrid_acl::ontology::{CollectedBatch, FromContent};
use agentgrid_rules::{parse_rules, Engine, KnowledgeBase};
use agentgrid_store::{LabelFilter, ManagementStore};

use crate::stats::percentile;
use crate::traced::{BatchCounts, Concept, Role, Span, SpanKind};
use crate::Metric;

/// Minimum time the decode probe repeats for, so one reading is not a
/// handful of microseconds.
const DECODE_PROBE: Duration = Duration::from_millis(20);

/// Everything a traced run hands over for the per-layer breakdown.
pub struct TracedRun<'a> {
    pub spans: &'a [Span],
    pub batches: &'a BatchCounts,
    pub report: &'a GridReport,
    pub match_attempts: u64,
    pub store: &'a ManagementStore,
    /// Wall time of the traced rounds.
    pub traced_wall_s: f64,
    /// Wall time of the same rounds without tracing.
    pub untraced_wall_s: f64,
}

/// Self time of every span, in the order given: its duration minus the
/// union of its children's intervals.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let index: HashMap<u32, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(&parent) = span.parent.and_then(|p| index.get(&p)) {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = span.start_ns;
            for (start, end) in kids {
                let (start, end) = (start.max(cursor), end.min(span.end_ns));
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// The layer a span's self time is charged to.
fn layer(kind: SpanKind) -> &'static str {
    match kind {
        SpanKind::Round => "net",
        SpanKind::RunUntilIdle => "platform",
        SpanKind::Tick(role) | SpanKind::Message(role, _) => role.layer(),
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// Every per-layer metric of a traced run.
pub fn per_layer(run: &TracedRun<'_>) -> Vec<Metric> {
    let self_times = self_ns(run.spans);
    let sum_self = |keep: &dyn Fn(SpanKind) -> bool| -> u64 {
        run.spans
            .iter()
            .zip(&self_times)
            .filter(|(s, _)| keep(s.kind))
            .map(|(_, t)| *t)
            .sum()
    };
    let busy = |name: &str| sum_self(&|k| layer(k) == name);
    let root_msg = |keep: &dyn Fn(Concept) -> bool| {
        sum_self(&|k| matches!(k, SpanKind::Message(Role::Root, c) if keep(c)))
    };

    let task_ms = |keep: &dyn Fn(u8) -> bool| -> Vec<f64> {
        run.spans
            .iter()
            .filter_map(|s| match s.kind {
                SpanKind::Message(Role::Analyzer, Concept::Task(level)) if keep(level) => {
                    Some(ms(s.duration_ns()))
                }
                _ => None,
            })
            .collect()
    };
    let tasks = task_ms(&|_| true);
    let l3 = task_ms(&|level| level == 3);
    let pct = |samples: &[f64], q| {
        if samples.is_empty() {
            0.0
        } else {
            percentile(samples, q)
        }
    };
    let interface_alerts = run
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::Message(Role::Interface, Concept::Alert))
        .count();

    let classifier_ns = busy("classifier");
    let covered_ns: u64 = self_times.iter().sum();
    let traced_wall_ns = run.traced_wall_s * 1e9;

    let mut out = Vec::new();
    let mut push = |name: &str, value: f64, unit: &'static str| {
        out.push(Metric::new(name, value, unit));
    };
    push("analyzer.busy_ms", ms(busy("analyzer")), "ms");
    push("analyzer.tasks", tasks.len() as f64, "count");
    for level in 1..=3u8 {
        let n = task_ms(&|l| l == level).len();
        push(&format!("analyzer.tasks_l{level}"), n as f64, "count");
    }
    push("analyzer.task_p50_ms", pct(&tasks, 50.0), "ms");
    push("analyzer.task_p99_ms", pct(&tasks, 99.0), "ms");
    push("analyzer.l3_task_p50_ms", pct(&l3, 50.0), "ms");

    push("rules.match_attempts", run.match_attempts as f64, "count");
    push(
        "rules.match_attempts_per_task",
        ratio(run.match_attempts as f64, tasks.len() as f64),
        "count",
    );
    push("rules.probe_run_ms", probe_rules(run.store), "ms");

    push("interface.busy_ms", ms(busy("interface")), "ms");
    push("interface.alerts", interface_alerts as f64, "count");

    let store = run.store;
    push("store.points", store.len() as f64, "count");
    push(
        "store.bytes_per_point",
        ratio(store.storage_bytes() as f64, store.len() as f64),
        "B",
    );
    push("store.chunks", store.chunk_count() as f64, "count");
    for (name, value) in probe_store(store) {
        push(name, value, "ms");
    }

    push("collector.busy_ms", ms(busy("collector")), "ms");
    push("collector.polls", run.batches.polls as f64, "count");

    push("classifier.busy_ms", ms(classifier_ns), "ms");
    push("classifier.batches", run.batches.batches as f64, "count");
    push(
        "classifier.records",
        run.batches.observations as f64,
        "count",
    );
    push(
        "classifier.ns_per_record",
        ratio(classifier_ns as f64, run.batches.observations as f64),
        "ns",
    );

    push(
        "acl.batch_decode_ns_per_obs",
        run.batches.sample.as_ref().map_or(0.0, probe_decode),
        "ns",
    );

    push("net.self_ms", ms(busy("net")), "ms");

    push(
        "root.data_ready_ms",
        ms(root_msg(&|c| c == Concept::DataReady)),
        "ms",
    );
    push("root.done_ms", ms(root_msg(&|c| c == Concept::Done)), "ms");
    push(
        "root.federation_ms",
        ms(root_msg(&Concept::is_federation)),
        "ms",
    );
    push(
        "root.tick_ms",
        ms(sum_self(&|k| k == SpanKind::Tick(Role::Root))),
        "ms",
    );

    push("platform.self_ms", ms(busy("platform")), "ms");
    push(
        "platform.messages",
        run.report.messages_delivered as f64,
        "count",
    );
    push(
        "platform.dead_letters",
        run.report.dead_letters as f64,
        "count",
    );

    push(
        "trace.coverage",
        ratio(covered_ns as f64, traced_wall_ns),
        "ratio",
    );
    push(
        "trace.overhead",
        ratio(run.traced_wall_s, run.untraced_wall_s),
        "ratio",
    );
    out
}

/// Every series in the store, in partition order.
fn all_series(store: &ManagementStore) -> Vec<(String, String)> {
    store
        .partitions()
        .iter()
        .flat_map(|p| store.select(&LabelFilter::class(p)))
        .collect()
}

/// Times each public store query once over every series.
fn probe_store(store: &ManagementStore) -> [(&'static str, f64); 4] {
    let timed = |f: &dyn Fn()| {
        let start = Instant::now();
        f();
        start.elapsed().as_secs_f64() * 1e3
    };
    let select_ms = timed(&|| {
        black_box(all_series(store));
    });
    let series = all_series(store);
    let latest_ms = timed(&|| {
        for (device, metric) in &series {
            black_box(store.latest(device, metric));
        }
    });
    let stats_ms = timed(&|| {
        for (device, metric) in &series {
            black_box(store.stats(device, metric, 0, u64::MAX));
        }
    });
    let trend_ms = timed(&|| {
        for (device, metric) in &series {
            black_box(store.trend_per_min(device, metric, 0, u64::MAX));
        }
    });
    [
        ("store.probe_select_ms", select_ms),
        ("store.probe_latest_ms", latest_ms),
        ("store.probe_stats_ms", stats_ms),
        ("store.probe_trend_ms", trend_ms),
    ]
}

/// Runs the default rules once over the latest point of every series;
/// returns the engine's run time in ms (fact building excluded).
fn probe_rules(store: &ManagementStore) -> f64 {
    let kb = KnowledgeBase::from_rules(parse_rules(DEFAULT_RULES).expect("default rules parse"));
    let mut engine = Engine::new(kb);
    for (device, metric) in all_series(store) {
        if let Some((_, value)) = store.latest(&device, &metric) {
            engine.insert_all(facts_for(&device, &metric, value));
        }
    }
    let start = Instant::now();
    black_box(engine.run());
    start.elapsed().as_secs_f64() * 1e3
}

/// Decodes a recorded batch repeatedly; returns ns per observation.
fn probe_decode(content: &agentgrid_acl::Value) -> f64 {
    let start = Instant::now();
    let mut decoded = 0u64;
    while decoded == 0 || start.elapsed() < DECODE_PROBE {
        let batch =
            CollectedBatch::from_content(black_box(content)).expect("recorded batch decodes");
        decoded += black_box(batch).observations.len() as u64;
    }
    ratio(start.elapsed().as_nanos() as f64, decoded as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, kind: SpanKind, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            round: 1,
            kind,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let tick = SpanKind::Tick(Role::Collector);
        let spans = [
            span(0, None, SpanKind::Round, 0, 100),
            span(1, Some(0), SpanKind::RunUntilIdle, 10, 90),
            // Overlapping children (a parallel runtime) count once.
            span(2, Some(1), tick, 20, 40),
            span(3, Some(1), tick, 30, 50),
            span(4, Some(1), tick, 60, 70),
        ];
        assert_eq!(self_ns(&spans), vec![20, 40, 20, 20, 10]);
    }
}
