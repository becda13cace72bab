//! A timing [`Runtime`] wrapper that records spans from outside the
//! program.
//!
//! [`Traced<R>`] forwards every `Runtime` method to `R` and wraps each
//! spawned agent in a [`TimedAgent`], so the grid builds on it unchanged
//! (`GridBuilder::build_on::<Traced<R>>()`). Spans are kept in memory in
//! a shared [`Recorder`]:
//!
//! * a `round` span per poll round, opened and closed by the benchmark
//!   around `ManagementGrid::run`;
//! * a `platform.run_until_idle` span, child of the round;
//! * one span per agent callback (`on_message` by the message's
//!   `concept`, `on_tick`), child of the `run_until_idle` span it ran in.
//!
//! Every span carries the round number, so all spans of one round share
//! an id.

use std::fmt;
use std::io::{self, Write};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use agentgrid_acl::ontology::{AnalysisTask, FromContent};
use agentgrid_platform::{
    AclMessage, Agent, AgentCtx, AgentId, DirectoryFacilitator, MailboxConfig, NetCommand,
    NetStats, OverloadStats, PlatformError, PressureSignal, Runtime, SharedMessage,
    TelemetryHandle, TransportFault, Value,
};

/// The grid stage an agent belongs to, from its local name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    Collector,
    Classifier,
    Root,
    Analyzer,
    Interface,
    Other,
}

impl Role {
    fn of(local_name: &str) -> Role {
        if local_name.starts_with("cg-") {
            Role::Collector
        } else if local_name.starts_with("classifier") {
            Role::Classifier
        } else if local_name.starts_with("pg-root") {
            Role::Root
        } else if local_name.starts_with("analyzer-") {
            Role::Analyzer
        } else if local_name == "interface" {
            Role::Interface
        } else {
            Role::Other
        }
    }

    /// The layer (module) name the role's time is reported under.
    pub fn layer(self) -> &'static str {
        match self {
            Role::Collector => "collector",
            Role::Classifier => "classifier",
            Role::Root => "root",
            Role::Analyzer => "analyzer",
            Role::Interface => "interface",
            Role::Other => "other",
        }
    }
}

/// The `concept` of a delivered message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Concept {
    DataReady,
    Done,
    LoadDigest,
    Spill,
    SpillDone,
    FedSummary,
    /// An analysis task, by level.
    Task(u8),
    Alert,
    Batch,
    Other,
}

impl Concept {
    fn of(message: &AclMessage) -> Concept {
        let content = message.content();
        match content.get("concept").and_then(Value::as_str) {
            Some("data-ready") => Concept::DataReady,
            Some("done") => Concept::Done,
            Some("load-digest") => Concept::LoadDigest,
            Some("spill") => Concept::Spill,
            Some("spill-done") => Concept::SpillDone,
            Some("fed-summary") => Concept::FedSummary,
            Some("analysis-task") => {
                Concept::Task(AnalysisTask::from_content(content).map_or(0, |t| t.level))
            }
            Some("alert") => Concept::Alert,
            Some("collected-batch") => Concept::Batch,
            _ => Concept::Other,
        }
    }

    /// Whether the root handles this concept in its federation protocol.
    pub fn is_federation(self) -> bool {
        matches!(
            self,
            Concept::LoadDigest | Concept::Spill | Concept::SpillDone | Concept::FedSummary
        )
    }
}

impl fmt::Display for Concept {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Concept::DataReady => f.write_str("data-ready"),
            Concept::Done => f.write_str("done"),
            Concept::LoadDigest => f.write_str("load-digest"),
            Concept::Spill => f.write_str("spill"),
            Concept::SpillDone => f.write_str("spill-done"),
            Concept::FedSummary => f.write_str("fed-summary"),
            Concept::Task(level) => write!(f, "task-l{level}"),
            Concept::Alert => f.write_str("alert"),
            Concept::Batch => f.write_str("collected-batch"),
            Concept::Other => f.write_str("other"),
        }
    }
}

/// What a span measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    Round,
    RunUntilIdle,
    Tick(Role),
    Message(Role, Concept),
}

impl fmt::Display for SpanKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpanKind::Round => f.write_str("round"),
            SpanKind::RunUntilIdle => f.write_str("platform.run_until_idle"),
            SpanKind::Tick(role) => write!(f, "{}.on_tick", role.layer()),
            SpanKind::Message(role, concept) => write!(f, "{}.on_message.{concept}", role.layer()),
        }
    }
}

/// One closed span; times are nanoseconds since the recorder started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub round: u32,
    pub kind: SpanKind,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span that has been opened but not yet closed.
#[derive(Debug)]
#[must_use = "an open span must be closed"]
pub struct OpenSpan {
    id: u32,
    parent: Option<u32>,
    kind: SpanKind,
    start_ns: u64,
}

#[derive(Debug, Default)]
struct Book {
    spans: Vec<Span>,
    next_id: u32,
    round: u32,
    round_span: Option<u32>,
    idle_span: Option<u32>,
    batches: u64,
    observations: u64,
    polls: u64,
    sample_batch: Option<Value>,
}

/// Counts taken from the collected batches the classifier received.
#[derive(Debug, Clone, Default)]
pub struct BatchCounts {
    pub batches: u64,
    pub observations: u64,
    /// Device polls: every poll reports exactly one `agent.reachable`
    /// observation, whether or not the device answered.
    pub polls: u64,
    /// The content of the first batch, kept for the decode probe.
    pub sample: Option<Value>,
}

/// In-memory span store shared by the runtime wrapper and every timed
/// agent.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    book: Mutex<Book>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            book: Mutex::new(Book::default()),
        }
    }
}

impl Recorder {
    fn book(&self) -> MutexGuard<'_, Book> {
        self.book
            .lock()
            .expect("recorder lock poisoned by a panicking agent")
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&self, book: &mut Book, kind: SpanKind, parent: Option<u32>) -> OpenSpan {
        let id = book.next_id;
        book.next_id += 1;
        OpenSpan {
            id,
            parent,
            kind,
            start_ns: self.now_ns(),
        }
    }

    fn close(&self, book: &mut Book, span: OpenSpan) {
        let end_ns = self.now_ns();
        book.spans.push(Span {
            id: span.id,
            parent: span.parent,
            round: book.round,
            kind: span.kind,
            start_ns: span.start_ns,
            end_ns,
        });
    }

    /// Opens the next round's span.
    pub fn begin_round(&self) -> OpenSpan {
        let mut book = self.book();
        book.round += 1;
        let span = self.open(&mut book, SpanKind::Round, None);
        book.round_span = Some(span.id);
        span
    }

    pub fn end_round(&self, span: OpenSpan) {
        let mut book = self.book();
        self.close(&mut book, span);
        book.round_span = None;
    }

    fn begin_idle(&self) -> OpenSpan {
        let mut book = self.book();
        let parent = book.round_span;
        let span = self.open(&mut book, SpanKind::RunUntilIdle, parent);
        book.idle_span = Some(span.id);
        span
    }

    fn end_idle(&self, span: OpenSpan) {
        let mut book = self.book();
        self.close(&mut book, span);
        book.idle_span = None;
    }

    /// Records a finished agent callback as a child of the innermost
    /// open span.
    fn callback(&self, kind: SpanKind, start_ns: u64) {
        let end_ns = self.now_ns();
        let mut book = self.book();
        let id = book.next_id;
        book.next_id += 1;
        let parent = book.idle_span.or(book.round_span);
        let round = book.round;
        book.spans.push(Span {
            id,
            parent,
            round,
            kind,
            start_ns,
            end_ns,
        });
    }

    fn note_batch(&self, content: &Value) {
        let items = content
            .get("observations")
            .and_then(Value::as_list)
            .unwrap_or(&[]);
        let polls = items
            .iter()
            .filter(|o| o.get("metric").and_then(Value::as_str) == Some("agent.reachable"))
            .count() as u64;
        let mut book = self.book();
        book.batches += 1;
        book.observations += items.len() as u64;
        book.polls += polls;
        if book.sample_batch.is_none() && !items.is_empty() {
            book.sample_batch = Some(content.clone());
        }
    }

    /// Every closed span so far, in closing order.
    pub fn spans(&self) -> Vec<Span> {
        self.book().spans.clone()
    }

    pub fn batch_counts(&self) -> BatchCounts {
        let book = self.book();
        BatchCounts {
            batches: book.batches,
            observations: book.observations,
            polls: book.polls,
            sample: book.sample_batch.clone(),
        }
    }

    /// Writes every span as one CSV line:
    /// `id,parent,round,name,start_ns,end_ns` (`parent` empty for roots).
    pub fn write_csv(&self, out: &mut impl Write) -> io::Result<()> {
        writeln!(out, "id,parent,round,name,start_ns,end_ns")?;
        for s in &self.book().spans {
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
            writeln!(
                out,
                "{},{parent},{},{},{},{}",
                s.id, s.round, s.kind, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// An agent wrapped so that each callback is recorded as a span.
struct TimedAgent<A> {
    inner: A,
    role: Role,
    recorder: Arc<Recorder>,
}

impl<A: Agent> Agent for TimedAgent<A> {
    fn setup(&mut self, ctx: &mut AgentCtx<'_>) {
        self.inner.setup(ctx);
    }

    fn on_message(&mut self, message: &AclMessage, ctx: &mut AgentCtx<'_>) {
        // Decoding for the span name happens before the timer starts.
        let concept = Concept::of(message);
        if concept == Concept::Batch {
            self.recorder.note_batch(message.content());
        }
        let start = self.recorder.now_ns();
        self.inner.on_message(message, ctx);
        self.recorder
            .callback(SpanKind::Message(self.role, concept), start);
    }

    fn on_tick(&mut self, ctx: &mut AgentCtx<'_>) {
        let start = self.recorder.now_ns();
        self.inner.on_tick(ctx);
        self.recorder.callback(SpanKind::Tick(self.role), start);
    }
}

/// A [`Runtime`] that forwards to `R` and records spans.
pub struct Traced<R> {
    inner: R,
    recorder: Arc<Recorder>,
}

impl<R> Traced<R> {
    pub fn recorder(&self) -> Arc<Recorder> {
        Arc::clone(&self.recorder)
    }
}

impl<R: Runtime> Runtime for Traced<R> {
    fn create(name: &str) -> Self {
        Traced {
            inner: R::create(name),
            recorder: Arc::new(Recorder::default()),
        }
    }

    fn add_container(&mut self, name: &str) {
        self.inner.add_container(name);
    }

    fn spawn_agent(
        &mut self,
        container: &str,
        local_name: &str,
        agent: impl Agent + 'static,
    ) -> Result<AgentId, PlatformError> {
        let timed = TimedAgent {
            inner: agent,
            role: Role::of(local_name),
            recorder: Arc::clone(&self.recorder),
        };
        self.inner.spawn_agent(container, local_name, timed)
    }

    fn with_df<T>(&mut self, f: impl FnOnce(&mut DirectoryFacilitator) -> T) -> T {
        self.inner.with_df(f)
    }

    fn post(&mut self, message: impl Into<SharedMessage>) {
        self.inner.post(message);
    }

    fn run_until_idle(&mut self, now_ms: u64) -> usize {
        let span = self.recorder.begin_idle();
        let rounds = self.inner.run_until_idle(now_ms);
        self.recorder.end_idle(span);
        rounds
    }

    fn delivered_count(&self) -> u64 {
        self.inner.delivered_count()
    }

    fn dead_letter_count(&self) -> usize {
        self.inner.dead_letter_count()
    }

    fn container_count(&self) -> usize {
        self.inner.container_count()
    }

    fn kill_container(&mut self, name: &str) -> Result<Vec<AgentId>, PlatformError> {
        self.inner.kill_container(name)
    }

    fn crash_container_silent(&mut self, name: &str) -> Result<Vec<AgentId>, PlatformError> {
        self.inner.crash_container_silent(name)
    }

    fn set_transport_fault(&mut self, fault: TransportFault) {
        self.inner.set_transport_fault(fault);
    }

    fn set_dead_letter_requeue(&mut self, enabled: bool) {
        self.inner.set_dead_letter_requeue(enabled);
    }

    fn set_telemetry(&mut self, telemetry: TelemetryHandle) {
        self.inner.set_telemetry(telemetry);
    }

    fn telemetry(&self) -> Option<TelemetryHandle> {
        self.inner.telemetry()
    }

    fn set_overload(&mut self, config: MailboxConfig, pressure: Option<Arc<PressureSignal>>) {
        self.inner.set_overload(config, pressure);
    }

    fn overload_stats(&self) -> Option<OverloadStats> {
        self.inner.overload_stats()
    }

    fn hint_parallel(&mut self, container: &str) {
        self.inner.hint_parallel(container);
    }

    fn hint_parallel_group(&mut self, group: &str, container: &str) {
        self.inner.hint_parallel_group(group, container);
    }

    fn net_command(&mut self, command: NetCommand) {
        self.inner.net_command(command);
    }

    fn net_stats(&self) -> Option<NetStats> {
        self.inner.net_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agentgrid::chaos::ChaosPlan;
    use agentgrid::grid::{GridBuilder, GridReport, ManagementGrid};
    use agentgrid::RecoveryConfig;
    use agentgrid_bench::{standard_network, ALL_SKILLS};
    use agentgrid_net::{FaultKind, ScheduledFault};
    use agentgrid_platform::{Platform, PoolRuntime, ReliabilityConfig};

    /// A tiny fleet that reaches every `Runtime` method the grid uses:
    /// two shards (parallel groups), chaos crashes and restarts, a
    /// transport fault window, the network adversary with reliable
    /// delivery, a planted fault, and (in [`run`]) a rule taught through
    /// `post`. Two forwards leave no trace in a report: the parallel
    /// hints only schedule, and requeue-once shows only when a restart
    /// lands between a dead letter and its retry.
    fn tiny(seed: u64) -> GridBuilder {
        let analyzers = ["pg-1".to_owned(), "pg-2".to_owned()];
        let chaos = ChaosPlan::seeded(seed, &analyzers, 12 * 60_000);
        let mut builder = ManagementGrid::builder()
            .network(standard_network(2, 3, seed))
            .shards(2)
            .recovery(RecoveryConfig::seeded(seed))
            .chaos(chaos)
            .net_adversary(seed)
            .reliability(ReliabilityConfig::seeded(seed))
            .fault(ScheduledFault::from(
                "site-0-dev2",
                FaultKind::CpuRunaway,
                120_000,
            ));
        for name in &analyzers {
            builder = builder.analyzer(name.as_str(), 1.0, ALL_SKILLS);
        }
        builder
    }

    fn run<R: Runtime>(mut grid: ManagementGrid<R>) -> GridReport {
        grid.teach_rule(
            r#"rule "busy" { when procs(device: ?d, value: ?v) if ?v > 0 then emit info ?d "?v" }"#,
        );
        grid.run(12 * 60_000, 60_000)
    }

    fn assert_same(a: &GridReport, b: &GridReport) {
        assert!(a.alerts.iter().any(|alert| alert.rule == "busy"));
        assert_eq!(a.render(), b.render());
        assert_eq!(a.dead_letters, b.dead_letters);
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.completed_ids, b.completed_ids);
        assert_eq!(a.net, b.net);
    }

    #[test]
    fn traced_wrapper_forwards_every_runtime_method() {
        for seed in [3, 4] {
            let plain = run(tiny(seed).build_on::<Platform>());
            let mut traced = tiny(seed).build_on::<Traced<Platform>>();
            let recorder = traced.platform_mut().recorder();
            let traced = run(traced);
            assert_same(&plain, &traced);
            assert!(plain.net.is_some(), "the adversary must be reached");
            assert!(!recorder.spans().is_empty());

            let pool = run(tiny(seed).build_on::<Traced<PoolRuntime>>());
            assert_same(&plain, &pool);
        }
    }

    #[test]
    fn callbacks_nest_under_run_until_idle_and_rounds() {
        let mut grid = ManagementGrid::builder()
            .network(standard_network(2, 3, 5))
            .analyzer("pg-1", 1.0, ALL_SKILLS)
            .build_on::<Traced<Platform>>();
        let recorder = grid.platform_mut().recorder();
        for _ in 0..3 {
            let round = recorder.begin_round();
            grid.run(60_000, 60_000);
            recorder.end_round(round);
        }
        let spans = recorder.spans();
        let by_id = |id| spans.iter().find(|s| s.id == id).expect("parent recorded");
        let mut callbacks = 0;
        for span in &spans {
            match span.kind {
                SpanKind::Round => assert_eq!(span.parent, None),
                SpanKind::RunUntilIdle => {
                    let parent = by_id(span.parent.expect("idle span has a round"));
                    assert_eq!(parent.kind, SpanKind::Round);
                    assert_eq!(parent.round, span.round);
                }
                SpanKind::Tick(_) | SpanKind::Message(..) => {
                    callbacks += 1;
                    let parent = by_id(span.parent.expect("callback has a parent"));
                    assert_eq!(parent.kind, SpanKind::RunUntilIdle);
                    assert_eq!(parent.round, span.round);
                    assert!(parent.start_ns <= span.start_ns && span.end_ns <= parent.end_ns);
                }
            }
        }
        assert!(callbacks > 0);
        assert_eq!(
            spans.iter().filter(|s| s.kind == SpanKind::Round).count(),
            3
        );
        let counts = recorder.batch_counts();
        assert_eq!(counts.polls, 3 * 6, "every device polled once a round");
        assert!(counts.sample.is_some());
    }
}
