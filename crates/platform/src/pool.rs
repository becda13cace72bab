//! Work-stealing pool runtime: deterministic results, parallel ticks.
//!
//! [`PoolRuntime`] wraps the deterministic [`Platform`] and replaces only
//! its **tick phase**. Routing (batch grouping, overload admission,
//! dead-lettering, requeue — the crate's `delivery` module) still runs on the
//! driving thread exactly as on the stepper; what changes is who executes
//! `on_message`/`on_tick`:
//!
//! * containers hinted via [`Runtime::hint_parallel`] become jobs on a
//!   work-stealing pool (crossbeam deques — a fixed set of scoped worker
//!   threads per phase, no async runtime). Idle workers steal **whole
//!   container batches** from their siblings, so a site whose collectors
//!   finish early helps drain a slow one;
//! * containers hinted via [`Runtime::hint_parallel_group`] become one
//!   job **per group**: the group's members tick in container-name order
//!   inside the job — the same relative order the stepper gives them —
//!   so containers that depend on each other (a federated shard's root,
//!   classifier and analyzers trading load and liveness state through
//!   the directory) still parallelize as a unit against other groups;
//! * every other container — the cluster entangled through the shared
//!   directory and any cross-agent stores — ticks sequentially in name
//!   order on the driving thread, concurrently with the workers.
//!
//! During a parallel phase the directory sits behind a lock that agent
//! contexts take **lazily** ([`crate::AgentCtx::df`]): a collector that
//! never consults the directory runs the whole phase without touching
//! it. Each job collects its sends into a private outbox; when the phase
//! ends, outboxes merge into the in-flight queue in **container-name
//! order** — the same order the sequential stepper produces. A hinted
//! container must therefore be *independent*: its agents' behaviour may
//! not depend on ordering relative to other containers within one tick
//! (the grid's collectors qualify — their polls are read-only against the
//! device network). Under that contract the pool's observable outcome —
//! delivery totals, dead letters, report contents — is byte-identical to
//! the deterministic [`Platform`]'s, which `tests/architecture_comparison`
//! asserts.
//!
//! Zero-copy delivery is unchanged: fan-out and batch flushes bump the
//! [`SharedMessage`] refcount, never cloning message content. Liveness
//! (heartbeats, staleness sweeps) and circuit-breaker logic live in agent
//! code and the directory, so they run under the pool unmodified.
//!
//! # Examples
//!
//! ```
//! use agentgrid_platform::pool::PoolRuntime;
//! use agentgrid_platform::runtime::Runtime;
//! use agentgrid_platform::Agent;
//!
//! struct Noop;
//! impl Agent for Noop {}
//!
//! let mut rt = PoolRuntime::create("grid");
//! rt.add_container("cg-hq");
//! rt.hint_parallel("cg-hq"); // collectors: independent, pool-eligible
//! rt.add_container("pg-root-ct"); // root: shared state, stays sequential
//! rt.spawn_agent("cg-hq", "collector", Noop).unwrap();
//! rt.run_until_idle(0);
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use agentgrid_acl::{AgentId, SharedMessage};
use agentgrid_telemetry::TelemetryHandle;
use crossbeam::deque::{Steal, Stealer, Worker};
use parking_lot::Mutex;

use crate::agent::Agent;
use crate::container::{Container, DfRef};
use crate::net::{NetCommand, NetStats};
use crate::overload::{MailboxConfig, OverloadStats, PressureSignal};
use crate::runtime::Runtime;
use crate::{DirectoryFacilitator, Platform, PlatformError};

/// One container's share of a pool job: taken out of the platform for
/// the duration of a tick phase, with its private outbox so the merge
/// stays in global container-name order.
struct Unit {
    name: String,
    container: Container,
    outbox: Vec<SharedMessage>,
}

/// One unit of pool work: a single hinted container, or a whole hinted
/// group whose members tick in container-name order on one worker.
struct Job {
    label: String,
    units: Vec<Unit>,
}

/// The work-stealing runtime. See the [module docs](self).
pub struct PoolRuntime {
    inner: Platform,
    /// Containers declared independent (pool-eligible) via
    /// [`Runtime::hint_parallel`]. Names may be hinted before their
    /// containers exist; unknown names are simply never scheduled.
    parallel: BTreeSet<String>,
    /// Named groups of mutually-dependent containers declared via
    /// [`Runtime::hint_parallel_group`]; each group runs as one job.
    groups: BTreeMap<String, BTreeSet<String>>,
    workers: usize,
}

impl std::fmt::Debug for PoolRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolRuntime")
            .field("parallel", &self.parallel.len())
            .field("workers", &self.workers)
            .finish()
    }
}

impl PoolRuntime {
    /// Creates a pool runtime with a worker count derived from the
    /// machine (`available_parallelism - 1`, clamped to `1..=8`).
    pub fn new(name: impl Into<String>) -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .saturating_sub(1)
            .clamp(1, 8);
        PoolRuntime::with_workers(name, workers)
    }

    /// Creates a pool runtime with an explicit worker count (min 1).
    pub fn with_workers(name: impl Into<String>, workers: usize) -> Self {
        PoolRuntime {
            inner: Platform::new(name),
            parallel: BTreeSet::new(),
            groups: BTreeMap::new(),
            workers: workers.max(1),
        }
    }

    /// Worker threads used per parallel phase.
    pub fn worker_count(&self) -> usize {
        self.workers
    }

    /// Read access to the wrapped deterministic platform (containers,
    /// directory, dead letters).
    pub fn platform(&self) -> &Platform {
        &self.inner
    }

    /// Write access to the wrapped platform, for wiring that the
    /// [`Runtime`] surface does not cover (suspend/resume, migration).
    pub fn platform_mut(&mut self) -> &mut Platform {
        &mut self.inner
    }

    /// Runs one step at simulated time `now_ms`: the platform's batch
    /// routing phase, then hinted containers on the worker pool while
    /// the shared-state cluster ticks in name order on this thread.
    /// Returns the number of messages routed.
    ///
    /// When the attached telemetry's
    /// [`PoolProfiler`](agentgrid_telemetry::PoolProfiler) is enabled
    /// (`agentgrid_telemetry::PoolProfiler::enable`), the step records
    /// wall-clock route/tick/merge phase slices and one slice per
    /// executed job (with its worker lane and whether it was stolen);
    /// disabled — the default — the only cost is one atomic load.
    pub fn step(&mut self, now_ms: u64) -> usize {
        let telemetry = self.inner.telemetry.clone();
        let telemetry = telemetry.as_deref();
        let profiler = telemetry
            .map(|t| t.pool_profiler())
            .filter(|p| p.is_enabled());

        let route_start = profiler.map(|p| p.now_us());
        let routed = self.inner.pre_tick(now_ms);
        if let (Some(profiler), Some(start)) = (profiler, route_start) {
            profiler.record_phase("route", start);
        }

        // Pull the hinted containers out of the platform for this phase:
        // singles first, then whole groups (sorted member order — the
        // same relative order the stepper's global name order gives the
        // group's containers).
        let mut jobs: Vec<Job> = Vec::new();
        for name in &self.parallel {
            if let Some(container) = self.inner.containers.remove(name) {
                jobs.push(Job {
                    label: name.clone(),
                    units: vec![Unit {
                        name: name.clone(),
                        container,
                        outbox: Vec::new(),
                    }],
                });
            }
        }
        for (group, members) in &self.groups {
            let units: Vec<Unit> = members
                .iter()
                .filter_map(|name| {
                    self.inner.containers.remove(name).map(|container| Unit {
                        name: name.clone(),
                        container,
                        outbox: Vec::new(),
                    })
                })
                .collect();
            if !units.is_empty() {
                jobs.push(Job {
                    label: group.clone(),
                    units,
                });
            }
        }
        // The directory moves behind a lock for the phase; contexts take
        // it lazily, so agents that never consult it stay lock-free.
        let df = Mutex::new(std::mem::take(&mut self.inner.df));
        let worker_count = self.workers.min(jobs.len());
        let finished: Mutex<Vec<Job>> = Mutex::new(Vec::with_capacity(jobs.len()));
        // Per-container outboxes, merged in name order below.
        let mut outboxes: BTreeMap<String, Vec<SharedMessage>> = BTreeMap::new();

        let locals: Vec<Worker<Job>> = (0..worker_count).map(|_| Worker::new_fifo()).collect();
        let stealers: Vec<Stealer<Job>> = locals.iter().map(Worker::stealer).collect();
        // Seed round-robin; imbalances even out by stealing.
        for (i, job) in jobs.into_iter().enumerate() {
            locals[i % worker_count].push(job);
        }
        let tick_start = profiler.map(|p| p.now_us());
        std::thread::scope(|scope| {
            for (me, local) in locals.into_iter().enumerate() {
                let stealers = &stealers;
                let finished = &finished;
                let df = &df;
                scope.spawn(move || {
                    while let Some((mut job, stolen)) = next_job(&local, stealers, me) {
                        let job_start = profiler.map(|p| p.now_us());
                        for unit in &mut job.units {
                            let mut df_ref = DfRef::Shared(df);
                            unit.container.tick_agents(
                                &unit.name,
                                now_ms,
                                &mut unit.outbox,
                                &mut df_ref,
                                telemetry,
                            );
                        }
                        if let (Some(profiler), Some(start)) = (profiler, job_start) {
                            profiler.record_job(me, &job.label, start, stolen);
                        }
                        finished.lock().push(job);
                    }
                });
            }
            // Meanwhile the shared-state cluster ticks sequentially in
            // name order on this thread, exactly like the stepper.
            for (name, container) in self.inner.containers.iter_mut() {
                let mut outbox = Vec::new();
                let mut df_ref = DfRef::Shared(&df);
                container.tick_agents(name, now_ms, &mut outbox, &mut df_ref, telemetry);
                outboxes.insert(name.clone(), outbox);
            }
        });
        if let (Some(profiler), Some(start)) = (profiler, tick_start) {
            profiler.record_phase("tick", start);
        }

        let merge_start = profiler.map(|p| p.now_us());
        self.inner.df = df.into_inner();
        for job in finished.into_inner() {
            for unit in job.units {
                let Unit {
                    name,
                    container,
                    outbox,
                } = unit;
                outboxes.insert(name.clone(), outbox);
                self.inner.containers.insert(name, container);
            }
        }
        for outbox in outboxes.into_values() {
            self.inner.in_flight.extend(outbox);
        }
        if let (Some(profiler), Some(start)) = (profiler, merge_start) {
            profiler.record_phase("merge", start);
        }
        routed
    }

    /// Steps repeatedly at the same timestamp until no messages are in
    /// flight, mirroring [`Platform::run_until_idle`] (same 10 000-step
    /// runaway safety net). Returns the number of steps taken.
    pub fn run_until_idle(&mut self, now_ms: u64) -> usize {
        let mut steps = 0;
        loop {
            steps += 1;
            self.step(now_ms);
            if self.inner.in_flight.is_empty() || steps >= 10_000 {
                return steps;
            }
        }
    }
}

/// Pops the local deque first, then steals batches from siblings. `None`
/// only once every deque is empty — no jobs are injected mid-phase, so
/// that is a stable termination condition.
fn next_job(local: &Worker<Job>, stealers: &[Stealer<Job>], me: usize) -> Option<(Job, bool)> {
    if let Some(job) = local.pop() {
        return Some((job, false));
    }
    loop {
        let mut retry = false;
        for (i, stealer) in stealers.iter().enumerate() {
            if i == me {
                continue;
            }
            match stealer.steal_batch_and_pop(local) {
                Steal::Success(job) => return Some((job, true)),
                Steal::Retry => retry = true,
                Steal::Empty => {}
            }
        }
        if !retry {
            return None;
        }
    }
}

impl Runtime for PoolRuntime {
    fn create(name: &str) -> Self {
        PoolRuntime::new(name)
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
        self.inner.spawn(container, local_name, agent)
    }

    fn with_df<T>(&mut self, f: impl FnOnce(&mut DirectoryFacilitator) -> T) -> T {
        f(self.inner.df_mut())
    }

    fn post(&mut self, message: impl Into<SharedMessage>) {
        self.inner.post(message);
    }

    fn run_until_idle(&mut self, now_ms: u64) -> usize {
        PoolRuntime::run_until_idle(self, now_ms)
    }

    fn delivered_count(&self) -> u64 {
        self.inner.delivered_count()
    }

    fn dead_letter_count(&self) -> usize {
        self.inner.dead_letter_count()
    }

    fn container_count(&self) -> usize {
        self.inner.container_names().count()
    }

    fn kill_container(&mut self, name: &str) -> Result<Vec<AgentId>, PlatformError> {
        self.inner.kill_container(name)
    }

    fn crash_container_silent(&mut self, name: &str) -> Result<Vec<AgentId>, PlatformError> {
        self.inner.crash_container_silent(name)
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
        self.parallel.insert(container.to_owned());
    }

    fn hint_parallel_group(&mut self, group: &str, container: &str) {
        self.groups
            .entry(group.to_owned())
            .or_default()
            .insert(container.to_owned());
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
    use crate::AgentCtx;
    use agentgrid_acl::{AclMessage, Performative, Value};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Replies `pong` to every `ping`; counts what it hears.
    struct Ponger {
        hits: Arc<AtomicUsize>,
    }

    impl Agent for Ponger {
        fn on_message(&mut self, message: &AclMessage, ctx: &mut AgentCtx<'_>) {
            self.hits.fetch_add(1, Ordering::SeqCst);
            if message.content() == &Value::symbol("ping") {
                ctx.send(message.reply(Performative::Inform, Value::symbol("pong")));
            }
        }
    }

    /// Sends one message to `target` on every tick, up to `limit`.
    struct TickSender {
        target: AgentId,
        sent: usize,
        limit: usize,
    }

    impl Agent for TickSender {
        fn on_tick(&mut self, ctx: &mut AgentCtx<'_>) {
            if self.sent >= self.limit {
                return;
            }
            self.sent += 1;
            let msg = AclMessage::builder(Performative::Inform)
                .sender(ctx.self_id().clone())
                .receiver(self.target.clone())
                .content(Value::symbol("tick"))
                .build()
                .unwrap();
            ctx.send(msg);
        }
    }

    fn ping(from: &str, to: &AgentId) -> AclMessage {
        AclMessage::builder(Performative::Request)
            .sender(AgentId::new(from))
            .receiver(to.clone())
            .content(Value::symbol("ping"))
            .build()
            .unwrap()
    }

    #[test]
    fn pool_matches_deterministic_platform_exactly() {
        // The same fan-in scenario on both runtimes: N hinted sender
        // containers feeding one sequential sink.
        fn run<R: Runtime>(hits: &Arc<AtomicUsize>) -> (u64, usize) {
            let mut rt = R::create("grid");
            rt.add_container("sink-ct");
            let sink = rt
                .spawn_agent(
                    "sink-ct",
                    "sink",
                    Ponger {
                        hits: Arc::clone(hits),
                    },
                )
                .unwrap();
            for i in 0..16 {
                let name = format!("cg-{i:02}");
                rt.add_container(&name);
                rt.hint_parallel(&name);
                rt.spawn_agent(
                    &name,
                    &format!("sender-{i:02}"),
                    TickSender {
                        target: sink.clone(),
                        sent: 0,
                        limit: 3,
                    },
                )
                .unwrap();
            }
            for t in 0..4 {
                rt.run_until_idle(t * 1_000);
            }
            (rt.delivered_count(), rt.dead_letter_count())
        }
        let hits = Arc::new(AtomicUsize::new(0));
        let sequential = run::<Platform>(&hits);
        let seq_hits = hits.swap(0, Ordering::SeqCst);
        let pooled = run::<PoolRuntime>(&hits);
        let pool_hits = hits.load(Ordering::SeqCst);
        assert_eq!(sequential, pooled);
        assert_eq!(seq_hits, pool_hits);
        assert_eq!(seq_hits, 48, "16 senders x 3 ticks each");
    }

    #[test]
    fn grouped_containers_match_the_platform() {
        // Four two-container groups; traffic stays inside each group,
        // mimicking federated shards. The pool must agree with the
        // stepper on every observable count.
        fn run<R: Runtime>(hits: &Arc<AtomicUsize>) -> (u64, usize) {
            let mut rt = R::create("grid");
            for g in 0..4 {
                let sink_ct = format!("shard{g}-sink-ct");
                let send_ct = format!("shard{g}-send-ct");
                rt.add_container(&sink_ct);
                rt.add_container(&send_ct);
                let group = format!("shard-{g}");
                rt.hint_parallel_group(&group, &sink_ct);
                rt.hint_parallel_group(&group, &send_ct);
                let sink = rt
                    .spawn_agent(
                        &sink_ct,
                        &format!("sink-{g}"),
                        Ponger {
                            hits: Arc::clone(hits),
                        },
                    )
                    .unwrap();
                rt.spawn_agent(
                    &send_ct,
                    &format!("send-{g}"),
                    TickSender {
                        target: sink,
                        sent: 0,
                        limit: 2,
                    },
                )
                .unwrap();
            }
            for t in 0..3 {
                rt.run_until_idle(t * 1_000);
            }
            (rt.delivered_count(), rt.dead_letter_count())
        }
        let hits = Arc::new(AtomicUsize::new(0));
        let sequential = run::<Platform>(&hits);
        let seq_hits = hits.swap(0, Ordering::SeqCst);
        let pooled = run::<PoolRuntime>(&hits);
        let pool_hits = hits.load(Ordering::SeqCst);
        assert_eq!(sequential, pooled);
        assert_eq!(seq_hits, pool_hits);
        assert_eq!(seq_hits, 8, "4 shards x 2 sends each");
    }

    #[test]
    fn workers_steal_across_many_hinted_containers() {
        // More containers than workers forces stealing; every sender
        // must still run exactly once per step.
        let hits = Arc::new(AtomicUsize::new(0));
        let mut rt = PoolRuntime::with_workers("grid", 3);
        rt.add_container("sink-ct");
        let sink = rt
            .spawn_agent(
                "sink-ct",
                "sink",
                Ponger {
                    hits: Arc::clone(&hits),
                },
            )
            .unwrap();
        for i in 0..64 {
            let name = format!("cg-{i:03}");
            rt.add_container(&name);
            rt.hint_parallel(&name);
            rt.spawn_agent(
                &name,
                &format!("s-{i:03}"),
                TickSender {
                    target: sink.clone(),
                    sent: 0,
                    limit: 1,
                },
            )
            .unwrap();
        }
        rt.run_until_idle(0);
        assert_eq!(hits.load(Ordering::SeqCst), 64);
        assert_eq!(rt.delivered_count(), 64);
    }

    #[test]
    fn per_sender_receiver_order_is_preserved_under_the_pool() {
        use parking_lot::Mutex as PlMutex;

        struct Recorder {
            seen: Arc<PlMutex<Vec<String>>>,
        }
        impl Agent for Recorder {
            fn on_message(&mut self, message: &AclMessage, _ctx: &mut AgentCtx<'_>) {
                if let Value::Symbol(s) = message.content() {
                    self.seen.lock().push(s.to_string());
                }
            }
        }
        struct Burst {
            target: AgentId,
            fired: bool,
        }
        impl Agent for Burst {
            fn on_tick(&mut self, ctx: &mut AgentCtx<'_>) {
                if self.fired {
                    return;
                }
                self.fired = true;
                for n in 0..8 {
                    let msg = AclMessage::builder(Performative::Inform)
                        .sender(ctx.self_id().clone())
                        .receiver(self.target.clone())
                        .content(Value::symbol(format!("m{n}")))
                        .build()
                        .unwrap();
                    ctx.send(msg);
                }
            }
        }

        let seen = Arc::new(PlMutex::new(Vec::new()));
        let mut rt = PoolRuntime::with_workers("grid", 4);
        rt.add_container("sink-ct");
        let sink = rt
            .spawn_agent(
                "sink-ct",
                "sink",
                Recorder {
                    seen: Arc::clone(&seen),
                },
            )
            .unwrap();
        rt.add_container("cg-a");
        rt.hint_parallel("cg-a");
        rt.spawn_agent(
            "cg-a",
            "burst",
            Burst {
                target: sink,
                fired: false,
            },
        )
        .unwrap();
        rt.run_until_idle(0);
        let seen = seen.lock();
        let expected: Vec<String> = (0..8).map(|n| format!("m{n}")).collect();
        assert_eq!(*seen, expected, "one sender's messages arrive in order");
    }

    #[test]
    fn pool_handles_kill_and_dead_letters_like_the_platform() {
        let hits = Arc::new(AtomicUsize::new(0));
        let mut rt = PoolRuntime::with_workers("grid", 2);
        rt.add_container("cg-a");
        rt.hint_parallel("cg-a");
        let victim = rt
            .spawn_agent(
                "cg-a",
                "victim",
                Ponger {
                    hits: Arc::clone(&hits),
                },
            )
            .unwrap();
        rt.post(ping("driver", &victim));
        rt.run_until_idle(0);
        assert_eq!(rt.delivered_count(), 1);
        // The pong back to the external "driver" dead-letters.
        assert_eq!(rt.dead_letter_count(), 1);
        rt.kill_container("cg-a").unwrap();
        rt.post(ping("driver", &victim));
        rt.run_until_idle(1);
        assert_eq!(
            rt.dead_letter_count(),
            2,
            "mail to a killed hinted container dead-letters"
        );
        assert_eq!(rt.container_count(), 0);
    }

    #[test]
    fn hinting_missing_or_sequential_containers_is_harmless() {
        let hits = Arc::new(AtomicUsize::new(0));
        let mut rt = PoolRuntime::with_workers("grid", 2);
        rt.hint_parallel("never-created");
        rt.add_container("c1");
        let a = rt
            .spawn_agent(
                "c1",
                "a",
                Ponger {
                    hits: Arc::clone(&hits),
                },
            )
            .unwrap();
        rt.post(ping("driver", &a));
        rt.run_until_idle(0);
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }
}
