//! Telemetry for the agentgrid runtimes: metrics, conversation tracing
//! and live resource profiles.
//!
//! The paper's grid root drives load balancing from per-container
//! **resource profiles** (Fig. 4) and a knowledge / capacity / idleness
//! ranking (§3.5). This crate supplies the measurement substrate those
//! profiles need on the live runtimes:
//!
//! * [`metrics`] — lock-free counters, gauges and fixed-bucket
//!   histograms behind a [`MetricsRegistry`], with cheap clonable
//!   handles;
//! * [`trace`] — per-hop conversation spans with causal parent links,
//!   so one collector batch can be followed through classifier, root,
//!   analyzer and interface;
//! * [`events`] — the **flight recorder**: a bounded ring of structured
//!   overload/recovery events (sheds, breaker trips, crashes,
//!   brokerings) with simulated + wall timestamps, off by default;
//! * [`spans`] — end-to-end **task spans** stitching collector
//!   observation → root award → analyzer verdict into one timeline per
//!   task, feeding the `agentgrid_task_latency_ms` histogram and the
//!   grid report's p50/p95/p99;
//! * [`export`] — Prometheus text format and JSON snapshots;
//! * [`perfetto`] — Chrome-trace JSON export of all of the above plus
//!   the [`PoolProfiler`]'s per-worker lanes, loadable in
//!   `ui.perfetto.dev`;
//! * [`Telemetry`] — the facade both runtimes call, aggregating
//!   per-container [`ContainerScope`]s (mailbox depth, deliveries,
//!   handler busy time).
//!
//! Everything is opt-in: a runtime without a [`TelemetryHandle`]
//! attached pays nothing.
//!
//! # Examples
//!
//! ```
//! use agentgrid_telemetry::Telemetry;
//!
//! let telemetry = Telemetry::new();
//! let scope = telemetry.container_scope("pg-1");
//! scope.on_delivered();
//! scope.on_handled(1_500);
//! let snapshot = telemetry.snapshot();
//! assert_eq!(
//!     snapshot.counter("agentgrid_messages_delivered_total", &[("container", "pg-1")]),
//!     Some(1)
//! );
//! assert!(telemetry.prometheus().contains("agentgrid_messages_delivered_total"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
pub mod export;
pub mod metrics;
pub mod perfetto;
pub mod spans;
pub mod trace;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

use agentgrid_acl::{AgentId, SharedMessage};
use parking_lot::Mutex;

pub use events::{Event, EventKind, FlightRecorder};
pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry, Sample, SampleValue, Snapshot};
pub use perfetto::{chrome_trace, PhaseSlice, PoolProfiler, WorkerSlice};
pub use spans::{TaskLatencySummary, TaskSpan, TaskSpanStore};
pub use trace::{ConversationTracer, Span, SpanId};

/// Shared handle to one [`Telemetry`] instance; clone freely.
pub type TelemetryHandle = Arc<Telemetry>;

/// Per-container metric handles, cached so the delivery/handling hot
/// path is pure atomics (no registry lookup, no lock).
#[derive(Debug)]
pub struct ContainerScope {
    container: String,
    delivered: Counter,
    sent: Counter,
    handled: Counter,
    mailbox_depth: Gauge,
    busy_ns: Counter,
    handle_ns: Histogram,
    /// Set once the container is mapped to a grid stage; traffic through
    /// the container (delivered or sent) then also counts into
    /// `agentgrid_stage_messages_total{stage=...}`.
    stage: OnceLock<Counter>,
}

impl ContainerScope {
    /// The container this scope measures.
    pub fn container(&self) -> &str {
        &self.container
    }

    /// Records one message delivered into this container.
    pub fn on_delivered(&self) {
        self.delivered.inc();
        if let Some(stage) = self.stage.get() {
            stage.inc();
        }
    }

    /// Records one message sent by an agent in this container. Counts
    /// into the stage rollup too, so source-only stages (collectors
    /// polling on tick) show their traffic.
    pub fn on_sent(&self) {
        self.sent.inc();
        if let Some(stage) = self.stage.get() {
            stage.inc();
        }
    }

    /// Moves the mailbox-depth gauge (queued, not yet handled).
    pub fn mailbox_add(&self, delta: i64) {
        self.mailbox_depth.add(delta);
    }

    /// Records one handled message and the wall-clock nanoseconds its
    /// handler ran.
    pub fn on_handled(&self, busy_ns: u64) {
        self.handled.inc();
        self.busy_ns.add(busy_ns);
        self.handle_ns.observe(busy_ns);
    }

    /// Messages delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered.get()
    }

    /// Current mailbox depth.
    pub fn mailbox_depth(&self) -> i64 {
        self.mailbox_depth.get()
    }
}

/// Point-in-time per-container statistics — the measured counterpart of
/// the paper's declared resource profile.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ContainerStats {
    /// Container name.
    pub container: String,
    /// Messages delivered into the container.
    pub delivered: u64,
    /// Messages sent by the container's agents.
    pub sent: u64,
    /// Messages fully handled.
    pub handled: u64,
    /// Messages queued but not yet handled.
    pub mailbox_depth: i64,
    /// Cumulative wall-clock handler time, nanoseconds.
    pub busy_ns: u64,
}

/// The facade both runtimes instrument against: a metrics registry, a
/// conversation tracer and the per-container scopes.
#[derive(Debug)]
pub struct Telemetry {
    registry: MetricsRegistry,
    tracer: ConversationTracer,
    recorder: FlightRecorder,
    task_spans: TaskSpanStore,
    profiler: PoolProfiler,
    scopes: Mutex<BTreeMap<String, Arc<ContainerScope>>>,
    delivered_total: Counter,
    dead_letters_total: Counter,
    delivery_latency_ms: Histogram,
    delivery_batch_size: Histogram,
    task_latency_ms: Histogram,
    trace_dropped_total: Counter,
    /// Whether the one-shot `TraceDropped` flight-recorder event fired.
    trace_drop_event_emitted: AtomicBool,
}

impl Default for Telemetry {
    fn default() -> Self {
        let registry = MetricsRegistry::new();
        let delivered_total = registry.counter("agentgrid_messages_delivered_total", &[]);
        let dead_letters_total = registry.counter("agentgrid_dead_letters_total", &[]);
        let delivery_latency_ms = registry.histogram(
            "agentgrid_delivery_latency_ms",
            &[],
            &metrics::LATENCY_BUCKETS_MS,
        );
        let delivery_batch_size = registry.histogram(
            "agentgrid_delivery_batch_size",
            &[],
            &metrics::BATCH_SIZE_BUCKETS,
        );
        let task_latency_ms = registry.histogram(
            "agentgrid_task_latency_ms",
            &[],
            &metrics::LATENCY_BUCKETS_MS,
        );
        let trace_dropped_total = registry.counter("agentgrid_trace_dropped_spans_total", &[]);
        Telemetry {
            registry,
            tracer: ConversationTracer::default(),
            recorder: FlightRecorder::default(),
            task_spans: TaskSpanStore::default(),
            profiler: PoolProfiler::default(),
            scopes: Mutex::new(BTreeMap::new()),
            delivered_total,
            dead_letters_total,
            delivery_latency_ms,
            delivery_batch_size,
            task_latency_ms,
            trace_dropped_total,
            trace_drop_event_emitted: AtomicBool::new(false),
        }
    }
}

impl Telemetry {
    /// Creates a telemetry instance behind a shared handle.
    pub fn new() -> TelemetryHandle {
        Arc::new(Telemetry::default())
    }

    /// The underlying registry, for custom metrics (brokers, benches).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The conversation tracer.
    pub fn tracer(&self) -> &ConversationTracer {
        &self.tracer
    }

    /// The flight recorder (third telemetry pillar). Disabled — one
    /// relaxed atomic load per emission — until
    /// [`FlightRecorder::enable`] is called.
    pub fn flight_recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// The end-to-end task-span store. Populated by the grid root
    /// whenever telemetry is attached.
    pub fn task_spans(&self) -> &TaskSpanStore {
        &self.task_spans
    }

    /// The pool runtime profiler; disabled until
    /// [`PoolProfiler::enable`] is called.
    pub fn pool_profiler(&self) -> &PoolProfiler {
        &self.profiler
    }

    /// Records one flight-recorder event at simulated time `sim_ms`
    /// (no-op while the recorder is disabled).
    pub fn record_event(&self, sim_ms: u64, kind: EventKind) {
        self.recorder.record(sim_ms, kind);
    }

    /// Opens the end-to-end span for a new task, anchored at the data's
    /// observation time.
    pub fn task_created(&self, task: &str, observed_ms: u64, now_ms: u64) {
        self.task_spans.task_created(task, observed_ms, now_ms);
    }

    /// Records a task award; `reaward` marks re-brokered awards.
    pub fn task_awarded(&self, task: &str, container: &str, now_ms: u64, reaward: bool) {
        self.task_spans
            .task_awarded(task, container, now_ms, reaward);
    }

    /// Closes a task span and observes its end-to-end simulated latency
    /// into `agentgrid_task_latency_ms` (first completion only).
    pub fn task_done(&self, task: &str, now_ms: u64) {
        if let Some(latency_ms) = self.task_spans.task_done(task, now_ms) {
            self.task_latency_ms.observe(latency_ms);
        }
    }

    /// Deterministic p50/p95/p99 over completed task spans; `None`
    /// until at least one task completed.
    pub fn task_latency_summary(&self) -> Option<TaskLatencySummary> {
        self.task_spans.summary()
    }

    /// Conversation spans dropped by the tracer's capacity cap
    /// (`agentgrid_trace_dropped_spans_total`).
    pub fn trace_dropped_total(&self) -> u64 {
        self.trace_dropped_total.get()
    }

    /// Chrome-trace / Perfetto JSON rendering of spans, events and the
    /// pool profile.
    pub fn chrome_trace(&self) -> String {
        perfetto::chrome_trace(self)
    }

    /// Gets or creates the scope for a container. Runtimes cache the
    /// returned `Arc` so steady-state updates never take this lock.
    pub fn container_scope(&self, container: &str) -> Arc<ContainerScope> {
        let mut scopes = self.scopes.lock();
        if let Some(scope) = scopes.get(container) {
            return Arc::clone(scope);
        }
        let labels = [("container", container)];
        let scope = Arc::new(ContainerScope {
            container: container.to_owned(),
            delivered: self
                .registry
                .counter("agentgrid_messages_delivered_total", &labels),
            sent: self
                .registry
                .counter("agentgrid_messages_sent_total", &labels),
            handled: self
                .registry
                .counter("agentgrid_messages_handled_total", &labels),
            mailbox_depth: self.registry.gauge("agentgrid_mailbox_depth", &labels),
            busy_ns: self
                .registry
                .counter("agentgrid_handler_busy_ns_total", &labels),
            handle_ns: self.registry.histogram(
                "agentgrid_handle_ns",
                &labels,
                &metrics::DURATION_BUCKETS_NS,
            ),
            stage: OnceLock::new(),
        });
        scopes.insert(container.to_owned(), Arc::clone(&scope));
        scope
    }

    /// Maps a container onto a grid stage (collector, classifier, root,
    /// analyzer, interface); its deliveries then also count into
    /// `agentgrid_stage_messages_total{stage=...}`. A container's stage
    /// is set once; later calls are ignored.
    pub fn set_stage(&self, container: &str, stage: &str) {
        let scope = self.container_scope(container);
        let counter = self
            .registry
            .counter("agentgrid_stage_messages_total", &[("stage", stage)]);
        let _ = scope.stage.set(counter);
    }

    /// Records a message enqueued for routing (one span per receiver).
    /// `parent` is the span being handled when the send happened.
    /// Capacity-cap drops surface as
    /// `agentgrid_trace_dropped_spans_total` plus a one-shot
    /// flight-recorder event on the first drop.
    pub fn message_sent(&self, message: &SharedMessage, parent: Option<SpanId>, now_ms: u64) {
        let dropped = self.tracer.on_send(message, parent, now_ms);
        if dropped > 0 {
            self.trace_dropped_total.add(dropped);
            if !self.trace_drop_event_emitted.swap(true, Ordering::Relaxed) {
                self.recorder.record(now_ms, EventKind::TraceDropped);
            }
        }
    }

    /// Records a delivery into `scope`'s container: counters, mailbox
    /// depth and the trace hop.
    pub fn message_delivered(
        &self,
        message: &SharedMessage,
        receiver: &AgentId,
        scope: &ContainerScope,
        now_ms: u64,
    ) {
        self.delivered_total.inc();
        scope.on_delivered();
        scope.mailbox_add(1);
        self.tracer
            .on_deliver(message, receiver, &scope.container, now_ms);
    }

    /// Records one container batch flushed by the delivery pipeline:
    /// `legs` delivery legs went into one container's mailboxes under a
    /// single routing pass (histogram `agentgrid_delivery_batch_size`).
    pub fn batch_flushed(&self, legs: u64) {
        self.delivery_batch_size.observe(legs);
    }

    /// Records an undeliverable receiver.
    pub fn message_dead_lettered(&self, message: &SharedMessage, receiver: &AgentId, now_ms: u64) {
        self.dead_letters_total.inc();
        self.tracer.on_dead_letter(message, receiver, now_ms);
    }

    /// Claims the trace span for a handling about to run (also pops the
    /// mailbox-depth gauge). Returns the span to report child sends
    /// against; close it with [`finish_handle`](Self::finish_handle).
    pub fn start_handle(
        &self,
        message: &SharedMessage,
        receiver: &AgentId,
        scope: &ContainerScope,
    ) -> Option<SpanId> {
        scope.mailbox_add(-1);
        self.tracer.start_handle(message, receiver)
    }

    /// Closes a handling: busy-time counters plus the trace span. The
    /// latency histogram gets `now_ms - enqueued_ms` via the span.
    pub fn finish_handle(
        &self,
        span: Option<SpanId>,
        scope: &ContainerScope,
        now_ms: u64,
        busy_ns: u64,
    ) {
        scope.on_handled(busy_ns);
        if let Some(span) = span {
            if let Some(enqueued) = self.tracer.enqueued_ms(span) {
                self.delivery_latency_ms
                    .observe(now_ms.saturating_sub(enqueued));
            }
            self.tracer.finish_handle(span, now_ms, busy_ns);
        }
    }

    /// Total messages delivered across all containers.
    pub fn delivered_total(&self) -> u64 {
        self.delivered_total.get()
    }

    /// Total dead letters.
    pub fn dead_letter_total(&self) -> u64 {
        self.dead_letters_total.get()
    }

    /// Per-container statistics, sorted by container name.
    pub fn container_stats(&self) -> Vec<ContainerStats> {
        self.scopes
            .lock()
            .values()
            .map(|scope| ContainerStats {
                container: scope.container.clone(),
                delivered: scope.delivered.get(),
                sent: scope.sent.get(),
                handled: scope.handled.get(),
                mailbox_depth: scope.mailbox_depth.get(),
                busy_ns: scope.busy_ns.get(),
            })
            .collect()
    }

    /// Snapshot of every registered metric.
    pub fn snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }

    /// Prometheus text rendering of the current snapshot.
    pub fn prometheus(&self) -> String {
        export::to_prometheus(&self.snapshot())
    }

    /// JSON rendering of the current snapshot.
    pub fn json(&self) -> String {
        export::to_json(&self.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agentgrid_acl::{AclMessage, Performative, Value};

    fn msg(from: &str, to: &str) -> SharedMessage {
        AclMessage::builder(Performative::Inform)
            .sender(AgentId::new(from))
            .receiver(AgentId::new(to))
            .content(Value::symbol("x"))
            .build()
            .unwrap()
            .into_shared()
    }

    #[test]
    fn delivery_lifecycle_updates_counters_gauges_and_trace() {
        let telemetry = Telemetry::new();
        let scope = telemetry.container_scope("c1");
        let m = msg("a", "b@x");
        let receiver = AgentId::new("b@x");
        telemetry.message_sent(&m, None, 0);
        telemetry.message_delivered(&m, &receiver, &scope, 0);
        assert_eq!(scope.mailbox_depth(), 1);
        let span = telemetry.start_handle(&m, &receiver, &scope);
        assert!(span.is_some());
        telemetry.finish_handle(span, &scope, 5, 2_000);
        assert_eq!(scope.mailbox_depth(), 0);
        assert_eq!(telemetry.delivered_total(), 1);
        let stats = telemetry.container_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].handled, 1);
        assert_eq!(stats[0].busy_ns, 2_000);
        let spans = telemetry.tracer().spans();
        assert_eq!(spans[0].handled_ms, Some(5));
    }

    #[test]
    fn stage_mapping_rolls_up_deliveries() {
        let telemetry = Telemetry::new();
        telemetry.set_stage("cg-hq", "collector");
        let scope = telemetry.container_scope("cg-hq");
        scope.on_delivered();
        scope.on_delivered();
        let snap = telemetry.snapshot();
        assert_eq!(
            snap.counter("agentgrid_stage_messages_total", &[("stage", "collector")]),
            Some(2)
        );
    }

    #[test]
    fn dead_letters_count_globally() {
        let telemetry = Telemetry::new();
        let m = msg("a", "ghost@x");
        telemetry.message_sent(&m, None, 3);
        telemetry.message_dead_lettered(&m, &AgentId::new("ghost@x"), 3);
        assert_eq!(telemetry.dead_letter_total(), 1);
        assert!(telemetry.tracer().spans()[0].dead_lettered);
    }

    #[test]
    fn trace_drops_surface_as_counter_and_one_event() {
        let telemetry = Telemetry {
            tracer: ConversationTracer::with_capacity(1),
            ..Telemetry::default()
        };
        telemetry.flight_recorder().enable();
        telemetry.message_sent(&msg("a", "b@x"), None, 0);
        assert_eq!(telemetry.trace_dropped_total(), 0);
        telemetry.message_sent(&msg("a", "b@x"), None, 5);
        telemetry.message_sent(&msg("a", "b@x"), None, 9);
        assert_eq!(telemetry.trace_dropped_total(), 2);
        assert_eq!(
            telemetry
                .snapshot()
                .counter("agentgrid_trace_dropped_spans_total", &[]),
            Some(2)
        );
        // Only the first drop produces a flight-recorder event.
        let events: Vec<_> = telemetry.flight_recorder().events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, EventKind::TraceDropped);
        assert_eq!(events[0].sim_ms, 5);
    }

    #[test]
    fn task_lifecycle_feeds_histogram_and_summary() {
        let telemetry = Telemetry::new();
        assert!(telemetry.task_latency_summary().is_none());
        telemetry.task_created("t1", 0, 0);
        telemetry.task_awarded("t1", "pg-1", 0, false);
        telemetry.task_done("t1", 7_000);
        let summary = telemetry.task_latency_summary().unwrap();
        assert_eq!(summary.count, 1);
        assert_eq!(summary.p99_ms, 7_000);
        let snap = telemetry.snapshot();
        let Some(SampleValue::Histogram { sum, count, .. }) = snap
            .samples
            .iter()
            .find(|s| s.name == "agentgrid_task_latency_ms")
            .map(|s| s.value.clone())
        else {
            panic!("task latency histogram missing");
        };
        assert_eq!((sum, count), (7_000, 1));
    }

    #[test]
    fn exports_include_container_metrics() {
        let telemetry = Telemetry::new();
        telemetry.container_scope("pg-1").on_delivered();
        let prom = telemetry.prometheus();
        assert!(prom.contains("agentgrid_messages_delivered_total{container=\"pg-1\"} 1"));
        let json = telemetry.json();
        assert!(json.contains("agentgrid_messages_delivered_total"));
    }
}
