use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use agentgrid_acl::ontology::{
    Alert, AnalysisTask, ResourceProfile, Severity, ToContent, MANAGEMENT_ONTOLOGY,
};
use agentgrid_acl::{AclMessage, AgentId, Performative, Value};
use agentgrid_platform::{Agent, AgentCtx, DirectoryFacilitator};
use agentgrid_store::{ManagementStore, Record};
use agentgrid_telemetry::{Counter, EventKind, Gauge, TelemetryHandle};
use parking_lot::Mutex;

use crate::balance::{self, LoadBalancer};
use crate::federation::{self, FederationStats, LoadDigest};
use crate::grid::classifier::parse_data_ready;
use crate::overload::{AdmissionConfig, AdmissionGate, BreakerBoard, BreakerConfig};
use crate::recovery::{jitter_key, Liveness, RecoveryConfig};

/// One outstanding task the root is waiting on.
#[derive(Debug, Clone)]
struct Pending {
    task: AnalysisTask,
    container: String,
    /// Retries already sent (the initial award is not a retry).
    attempts: u32,
    /// Simulated time after which the next retry fires.
    deadline_ms: u64,
}

/// Stable per-task jitter key, so retry schedules of different tasks
/// decorrelate.
fn task_key(task_id: &str) -> u64 {
    jitter_key(task_id)
}

/// Whether `container` hosts an analyzer registered under `service`:
/// the analyzer registers with its container name as a property
/// (Fig. 4). Spare containers (a profile but no analyzer yet) host
/// none, and a federated root's service leaves out its peers' tiers.
fn hosts(df: &DirectoryFacilitator, service: &str, container: &str) -> bool {
    df.providers_with(service, container).next().is_some()
}

/// The profiles of the containers hosting `service`'s analyzers, in
/// container-name order.
fn hosting<'a>(
    df: &'a DirectoryFacilitator,
    service: &'a str,
) -> impl Iterator<Item = &'a ResourceProfile> + 'a {
    df.container_profiles()
        .filter(move |p| hosts(df, service, &p.container))
}

/// The mean advertised load over the containers hosting `service`'s
/// analyzers (0 when there are none): the admission gate's aggregate
/// and the gossiped digest's figure.
fn mean_load(df: &DirectoryFacilitator, service: &str) -> f64 {
    let (sum, n) = hosting(df, service).fold((0.0_f64, 0u32), |(s, n), p| (s + p.load, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / f64::from(n)
    }
}

/// Sends `task` as a `request` to the analyzer `container` hosts for
/// `service`. Returns `false`, sending nothing, when it hosts none.
fn send_task(service: &str, task: &AnalysisTask, container: &str, ctx: &mut AgentCtx<'_>) -> bool {
    let Some(analyzer) = ctx.df().providers_with(service, container).next().cloned() else {
        return false;
    };
    let request = AclMessage::builder(Performative::Request)
        .sender(ctx.self_id().clone())
        .receiver(analyzer)
        .ontology(MANAGEMENT_ONTOLOGY)
        .reply_with(format!("task-{}", task.task_id))
        .content(task.to_content())
        .build()
        .expect("sender and receiver are set");
    ctx.send(request);
    true
}

/// Flight-recorder label for a liveness verdict.
fn liveness_label(state: Liveness) -> &'static str {
    match state {
        Liveness::Alive => "alive",
        Liveness::Suspect => "suspect",
        Liveness::Dead => "dead",
    }
}

/// One shard root's view of the federation (sharded mode): who its
/// peers are, which directory service scopes its brokering, and where
/// cross-domain findings are read from and written to.
pub struct FederationLink {
    /// Index of the shard this root serves.
    pub shard: usize,
    /// Peer shard roots as `(shard index, root agent id)`, self
    /// excluded.
    pub peers: Vec<(usize, AgentId)>,
    /// The shard-scoped analyzer service
    /// ([`federation::shard_service`]) this root brokers over instead
    /// of the global `"analysis"`.
    pub service: String,
    /// The shard's own store — `fed-summary` findings are built from
    /// it and peer findings are injected into it.
    pub store: Arc<Mutex<ManagementStore>>,
    /// Shared federation counters, reported by the grid facade.
    pub stats: Arc<Mutex<FederationStats>>,
}

/// Brokering outcome counters exported as
/// `agentgrid_broker_tasks_total{outcome=...}` when telemetry is
/// attached — one increment per decision, mirroring [`RootStats`].
#[derive(Debug)]
struct BrokerMetrics {
    assigned: Counter,
    completed: Counter,
    /// `agentgrid_retries_total{component="broker"}` — deadline-driven
    /// request retries.
    retries: Counter,
    /// `agentgrid_rebrokered_tasks_total` — reclaimed tasks re-awarded
    /// through a fresh brokering round.
    rebrokered: Counter,
    /// `agentgrid_admission_rejects_total` — awards turned away by the
    /// admission gate (overload mode).
    admission_rejects: Counter,
    /// Registry handle for the per-container
    /// `agentgrid_container_liveness` and `agentgrid_breaker_state`
    /// gauges (created lazily as containers appear).
    telemetry: TelemetryHandle,
}

impl BrokerMetrics {
    fn new(telemetry: &TelemetryHandle) -> Self {
        let counter = |outcome: &str| {
            telemetry
                .registry()
                .counter("agentgrid_broker_tasks_total", &[("outcome", outcome)])
        };
        BrokerMetrics {
            assigned: counter("assigned"),
            completed: counter("completed"),
            retries: telemetry
                .registry()
                .counter("agentgrid_retries_total", &[("component", "broker")]),
            rebrokered: telemetry
                .registry()
                .counter("agentgrid_rebrokered_tasks_total", &[]),
            admission_rejects: telemetry
                .registry()
                .counter("agentgrid_admission_rejects_total", &[]),
            telemetry: telemetry.clone(),
        }
    }

    /// The liveness gauge of one container: 0 alive, 1 suspect, 2 dead.
    fn liveness_gauge(&self, container: &str) -> Gauge {
        self.telemetry
            .registry()
            .gauge("agentgrid_container_liveness", &[("container", container)])
    }

    /// The breaker gauge of one container: 0 closed, 1 open, 2
    /// half-open.
    fn breaker_gauge(&self, container: &str) -> Gauge {
        self.telemetry
            .registry()
            .gauge("agentgrid_breaker_state", &[("container", container)])
    }

    /// One direction of this shard's spill-over traffic:
    /// `agentgrid_shard_spill_total{direction=...,shard=...}`.
    fn spill_counter(&self, direction: &str, shard: usize) -> Counter {
        self.telemetry.registry().counter(
            "agentgrid_shard_spill_total",
            &[("direction", direction), ("shard", &shard.to_string())],
        )
    }
}

/// Counters the root maintains, shared out through
/// [`ProcessorRootAgent::stats_handle`] so the grid facade can report on
/// brokering after the agent has been spawned.
#[derive(Debug, Default)]
pub struct RootStats {
    /// Tasks this root created from `data-ready` notifications. A
    /// spilled task counts at its origin, never at the peer that ran
    /// it, so summing `created` across shards counts every task in the
    /// federation exactly once.
    pub created: u64,
    /// `(task id, container)` assignment log, in decision order. Every
    /// award appends here — including re-awards — so for any task id,
    /// `assignments` holds `1 + (times the id appears in rebrokered)`
    /// entries.
    pub assignments: Vec<(String, String)>,
    /// `done` reports received (deduplicated: one per in-flight award).
    pub completed: u64,
    /// Ids of completed tasks, in completion order.
    pub completed_ids: Vec<String>,
    /// Ids of tasks re-awarded via a fresh brokering round, once per
    /// re-award.
    pub rebrokered: Vec<String>,
    /// Deadline-driven request retries sent.
    pub retries: u64,
    /// Escalations raised to the interface grid: one per dead container
    /// and one per task whose retries were exhausted.
    pub escalations: u64,
    /// Awards turned away by the admission gate (overload mode); each
    /// rejected task parks for a later window.
    pub rejected: u64,
    /// Ids still in flight or parked as of the root's last event. An
    /// assigned-but-uncompleted task is only *lost* if it is absent
    /// from this set too.
    pub outstanding: Vec<String>,
}

/// The processor-grid root: the broker of Fig. 3 as a live agent.
///
/// On a `data-ready` notification from the classifier it creates one
/// [`AnalysisTask`] per fresh partition (level 1/2 alternating); on its
/// first tick after a round's notifications it adds one level-3
/// correlation sweep over that round. It selects a container for each
/// task through its [`LoadBalancer`] against the directory's resource
/// profiles, and requests the container's analyzer agent to run it.
///
/// **Fault tolerance**: every tick runs the recovery layer under the
/// root's [`RecoveryConfig`] (the default unless
/// [`set_recovery`](Self::set_recovery) replaced it). Tasks whose
/// container left the directory before reporting `done` are re-brokered
/// to a surviving container; heartbeat-staleness liveness detection
/// excludes suspect containers from awards and deregisters dead ones,
/// reclaiming and re-awarding their in-flight ledger; past-due awards
/// retry with seeded exponential backoff, and retry-exhausted tasks
/// escalate to the interface grid as alerts. A task that finds no
/// capable container parks until one appears.
pub struct ProcessorRootAgent {
    policy: Box<dyn LoadBalancer>,
    /// The directory service this root brokers over: the shard-scoped
    /// one when federated, the global `"analysis"` otherwise.
    service: String,
    task_seq: u64,
    /// The simulated time of the newest `data-ready` no level-3 sweep
    /// covers yet, with the observation time it reported (the sweep's
    /// span starts there).
    unswept: Option<(u64, u64)>,
    /// Simulated time of the last level-3 sweep: at most one per
    /// instant, so a sweep never re-raises its own round's findings.
    last_sweep_ms: Option<u64>,
    /// `data-ready` notifications seen per site: alternates each site's
    /// level-1/2 tasks, so every site gets consolidation on every other
    /// pass over its own data whatever the interleaving of sites.
    ready_by_site: BTreeMap<String, u64>,
    pending: Vec<Pending>,
    stats: Arc<Mutex<RootStats>>,
    metrics: Option<BrokerMetrics>,
    recovery: RecoveryConfig,
    /// Where retry-exhaustion and container-death alerts escalate.
    escalate_to: Option<AgentId>,
    /// Tasks awaiting a capable container; the bool marks re-awards
    /// (reclaimed from a dead container) versus first awards, so the
    /// re-brokered log stays exact.
    parked: Vec<(AnalysisTask, bool)>,
    /// Containers currently suspect (stale heartbeats) — excluded from
    /// awards until they beat again.
    suspect: BTreeSet<String>,
    /// Task ids already escalated, to alert at most once per task.
    escalated: BTreeSet<String>,
    /// Token-bucket admission gate (overload mode).
    admission: Option<AdmissionGate>,
    /// Per-container circuit breakers (overload mode; needs recovery's
    /// deadline machinery for its failure signal).
    breakers: Option<BreakerBoard>,
    /// Last liveness verdict per container, so the flight recorder only
    /// sees *changes*. Dead containers keep their entry: a restart that
    /// heartbeats again records the dead → alive flip.
    liveness_seen: BTreeMap<String, Liveness>,
    /// Containers the chaos layer has marked network-partitioned, each
    /// with the simulated time its quarantine ends (`u64::MAX` while the
    /// partition is open, heal time + grace after it heals). A
    /// quarantined container is **Suspect, never Dead**: it is excluded
    /// from awards but keeps its directory entry and in-flight ledger —
    /// unlike a crash, its work will finish once the partition heals.
    quarantine: Arc<Mutex<BTreeMap<String, u64>>>,
    /// Task ids whose completion has already been counted, so a
    /// duplicated or retransmitted `done` — or a stale award finishing
    /// after the task was re-brokered — never double-counts.
    done_seen: BTreeSet<String>,
    /// Federation wiring (sharded mode). `None` on an unsharded grid —
    /// every federation code path is gated on this, keeping unsharded
    /// runs byte-identical to the pre-federation behavior.
    federation: Option<FederationLink>,
    /// Latest load digest gossiped by each peer shard.
    digests: BTreeMap<usize, LoadDigest>,
    /// Tasks forwarded to a peer and not yet confirmed done: task id →
    /// destination shard. Spilled tasks stay in the outstanding
    /// snapshot until their `spill-done` lands, so a lost spill shows
    /// up as lost work instead of silently vanishing.
    spilled_out: BTreeMap<String, usize>,
    /// Tasks accepted from a peer: task id → (origin shard, origin
    /// root), so the `spill-done` goes home on completion.
    spilled_in: BTreeMap<String, (usize, AgentId)>,
    /// Spill task ids already accepted, so a duplicated or
    /// retransmitted spill never runs twice.
    spill_seen: BTreeSet<String>,
    /// Newest `fed-summary` timestamp accepted per origin shard; older
    /// or equal timestamps are stale duplicates and are dropped.
    summary_seen: BTreeMap<usize, u64>,
}

impl std::fmt::Debug for ProcessorRootAgent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProcessorRootAgent")
            .field("policy", &self.policy.name())
            .field("pending", &self.pending.len())
            .finish()
    }
}

impl ProcessorRootAgent {
    /// Creates a root brokering with the given policy.
    pub fn new(policy: Box<dyn LoadBalancer>) -> Self {
        ProcessorRootAgent {
            policy,
            service: "analysis".to_owned(),
            task_seq: 0,
            unswept: None,
            last_sweep_ms: None,
            ready_by_site: BTreeMap::new(),
            pending: Vec::new(),
            stats: Arc::new(Mutex::new(RootStats::default())),
            metrics: None,
            recovery: RecoveryConfig::default(),
            escalate_to: None,
            parked: Vec::new(),
            suspect: BTreeSet::new(),
            escalated: BTreeSet::new(),
            admission: None,
            breakers: None,
            liveness_seen: BTreeMap::new(),
            quarantine: Arc::default(),
            done_seen: BTreeSet::new(),
            federation: None,
            digests: BTreeMap::new(),
            spilled_out: BTreeMap::new(),
            spilled_in: BTreeMap::new(),
            spill_seen: BTreeSet::new(),
            summary_seen: BTreeMap::new(),
        }
    }

    /// Exports brokering outcomes as
    /// `agentgrid_broker_tasks_total{outcome=...}` counters (plus
    /// `agentgrid_retries_total`, `agentgrid_rebrokered_tasks_total` and
    /// the per-container `agentgrid_container_liveness` gauges) in
    /// `telemetry`'s registry.
    pub fn attach_telemetry(&mut self, telemetry: &TelemetryHandle) {
        self.metrics = Some(BrokerMetrics::new(telemetry));
    }

    /// Replaces the recovery layer's configuration (liveness
    /// thresholds, retry backoff). Alerts escalate to `escalate_to`
    /// (normally the interface agent).
    pub fn set_recovery(&mut self, config: RecoveryConfig, escalate_to: Option<AgentId>) {
        self.recovery = config;
        self.escalate_to = escalate_to;
    }

    /// Attaches the chaos layer's partition-quarantine map (container →
    /// quarantined-until, simulated ms). While a container is
    /// quarantined the liveness sweep classifies it **Suspect** no
    /// matter what its heartbeats say: a partitioned container is
    /// unreachable but not dead, so its directory entry and in-flight
    /// ledger survive and its tasks are *retried*, not reclaimed, until
    /// the quarantine (heal + grace) expires.
    pub fn set_quarantine(&mut self, quarantine: Arc<Mutex<BTreeMap<String, u64>>>) {
        self.quarantine = quarantine;
    }

    /// Turns on overload protection at the broker: a token-bucket
    /// admission gate on first awards and/or per-container circuit
    /// breakers diverting awards from tripped containers.
    pub fn set_overload(
        &mut self,
        admission: Option<AdmissionConfig>,
        breaker: Option<BreakerConfig>,
    ) {
        self.admission = admission.map(AdmissionGate::new);
        self.breakers = breaker.map(BreakerBoard::new);
    }

    /// Joins this root to a federation of peer shards (sharded mode):
    /// brokering and liveness scope to the link's shard service,
    /// admission-gate and broker rejections spill to the least-loaded
    /// peer, and finding summaries flow both ways with each round's
    /// level-3 sweep.
    pub fn set_federation(&mut self, link: FederationLink) {
        self.service = link.service.clone();
        self.federation = Some(link);
    }

    /// A handle onto the root's statistics, valid after the agent is
    /// spawned into a platform.
    pub fn stats_handle(&self) -> Arc<Mutex<RootStats>> {
        Arc::clone(&self.stats)
    }

    /// Selects a container for `task` through [`balance::award`] and
    /// sends the award; on success the task joins the in-flight ledger
    /// and the award is logged (in `rebrokered` too for a `reaward`).
    /// Returns whether a container took the task. Eligible are the containers hosting
    /// an analyzer for this root's service that are neither suspect
    /// (stale heartbeats) nor behind an open circuit breaker. A first
    /// award fixes the task's round at this instant; a re-award keeps
    /// the round it was first awarded for.
    fn try_award(&mut self, task: &AnalysisTask, reaward: bool, ctx: &mut AgentCtx<'_>) -> bool {
        let now = ctx.now_ms();
        let (service, suspect, breakers) = (&self.service, &self.suspect, &mut self.breakers);
        // A breaker whose probe time arrived half-opens and lets this
        // award through as the probe.
        let Some(container) = balance::award(self.policy.as_mut(), ctx.df(), task, |df, p| {
            hosts(df, service, &p.container)
                && !suspect.contains(&p.container)
                && !breakers
                    .as_mut()
                    .is_some_and(|b| b.blocks(&p.container, now))
        }) else {
            return false;
        };
        let task = AnalysisTask {
            round_ms: task.round_ms.or(Some(now)),
            ..task.clone()
        };
        // Eligibility guarantees the container hosts an analyzer.
        send_task(&self.service, &task, &container, ctx);
        {
            let mut stats = self.stats.lock();
            stats
                .assignments
                .push((task.task_id.clone(), container.clone()));
            if reaward {
                stats.rebrokered.push(task.task_id.clone());
            }
        }
        if let Some(m) = &self.metrics {
            m.assigned.inc();
            m.telemetry
                .task_awarded(&task.task_id, &container, now, reaward);
            let (task, container) = (task.task_id.clone(), container.clone());
            let event = if reaward {
                m.rebrokered.inc();
                EventKind::TaskRebrokered { task, container }
            } else {
                EventKind::TaskBrokered { task, container }
            };
            m.telemetry.record_event(now, event);
        }
        let deadline_ms =
            now.saturating_add(self.recovery.backoff.delay_ms(0, task_key(&task.task_id)));
        self.pending.push(Pending {
            task,
            container,
            attempts: 0,
            deadline_ms,
        });
        true
    }

    /// First-award path. With `gated`, the admission gate (overload
    /// mode) sees the task first. A task the gate turns away, or that
    /// finds no capable container, spills to a peer shard when
    /// federated and otherwise parks; parked tasks are retried every
    /// tick until a capable container appears.
    fn assign_and_send(&mut self, task: AnalysisTask, gated: bool, ctx: &mut AgentCtx<'_>) {
        if (!gated || self.admit(&task, ctx)) && self.try_award(&task, false, ctx) {
            return;
        }
        // Sharded mode: a gate rejection and a lack of capable local
        // containers are the two spill triggers.
        if !self.try_spill(&task, ctx) {
            self.parked.push((task, false));
        }
    }

    /// The admission gate (overload mode): a first award only flows
    /// when the token bucket has budget and the mean advertised load
    /// across the root's analyzer containers is under the threshold.
    /// Re-awards of reclaimed tasks bypass the gate — they were
    /// admitted once. Returns `false` for a rejection, which is counted.
    fn admit(&mut self, task: &AnalysisTask, ctx: &mut AgentCtx<'_>) -> bool {
        let Some(gate) = &mut self.admission else {
            return true;
        };
        let now = ctx.now_ms();
        if gate.admit(now, mean_load(ctx.df(), &self.service)) {
            return true;
        }
        self.stats.lock().rejected += 1;
        if let Some(m) = &self.metrics {
            m.admission_rejects.inc();
            m.telemetry.record_event(
                now,
                EventKind::AdmissionReject {
                    task: task.task_id.clone(),
                },
            );
        }
        false
    }

    /// Re-award path for tasks reclaimed from a dead container or whose
    /// retries were exhausted. A successful re-award is logged in both
    /// `assignments` and `rebrokered`, preserving the exactly-once
    /// accounting `assignments(id) == 1 + rebrokered(id)`.
    fn reaward(&mut self, task: AnalysisTask, ctx: &mut AgentCtx<'_>) {
        if !self.try_award(&task, true, ctx) {
            self.parked.push((task, true));
        }
    }

    /// Forwards a task the local admission gate or broker turned away
    /// to the least-loaded peer shard (by gossiped digest; ties break
    /// to the lowest shard index). Returns `false` when unfederated,
    /// when the task itself arrived as a spill (one domain hop, never
    /// a relay), or when there is no peer — the caller then parks the
    /// task.
    fn try_spill(&mut self, task: &AnalysisTask, ctx: &mut AgentCtx<'_>) -> bool {
        let Some(link) = &self.federation else {
            return false;
        };
        if self.spilled_in.contains_key(&task.task_id) {
            return false;
        }
        let Some((to_shard, peer)) = link
            .peers
            .iter()
            .min_by_key(|(shard, _)| {
                let pressure = self
                    .digests
                    .get(shard)
                    .map(|d| (d.load_milli, d.outstanding))
                    .unwrap_or((0, 0));
                (pressure, *shard)
            })
            .cloned()
        else {
            return false;
        };
        let from_shard = link.shard;
        let msg = AclMessage::builder(Performative::Request)
            .sender(ctx.self_id().clone())
            .receiver(peer)
            .ontology(MANAGEMENT_ONTOLOGY)
            .content(federation::spill_content(from_shard, task))
            .build()
            .expect("sender and receiver are set");
        ctx.send(msg);
        link.stats.lock().spilled_out += 1;
        self.spilled_out.insert(task.task_id.clone(), to_shard);
        if let Some(m) = &self.metrics {
            m.spill_counter("out", from_shard).inc();
            m.telemetry.record_event(
                ctx.now_ms(),
                EventKind::TaskSpilled {
                    task: task.task_id.clone(),
                    from_shard,
                    to_shard,
                },
            );
        }
        true
    }

    /// Runs a task a peer shard spilled here. The origin already paid
    /// an admission rejection for it, so it bypasses the local gate —
    /// bouncing it a second time could ping-pong work between
    /// saturated shards forever. Duplicated spills (reliability-layer
    /// retransmission) are dropped by the `spill_seen` ledger.
    fn accept_spill(
        &mut self,
        origin_shard: usize,
        origin_root: AgentId,
        task: AnalysisTask,
        ctx: &mut AgentCtx<'_>,
    ) {
        if self.federation.is_none() || !self.spill_seen.insert(task.task_id.clone()) {
            return;
        }
        self.spilled_in
            .insert(task.task_id.clone(), (origin_shard, origin_root));
        if let Some(link) = &self.federation {
            link.stats.lock().spilled_in += 1;
        }
        if let Some(m) = &self.metrics {
            m.spill_counter("in", origin_shard).inc();
        }
        // Ungated; a task that arrived as a spill never spills again.
        self.assign_and_send(task, false, ctx);
    }

    /// Publishes this shard's load digest to every peer (once per round
    /// with the level-3 sweep, federated mode), after the round's
    /// awards were charged, so peers rank spill targets by this round's
    /// load.
    fn gossip_digest(&self, ctx: &mut AgentCtx<'_>) {
        let Some(link) = &self.federation else {
            return;
        };
        let shard = link.shard;
        let digest = LoadDigest {
            shard,
            load_milli: (mean_load(ctx.df(), &self.service) * 1000.0).round() as i64,
            outstanding: (self.pending.len() + self.parked.len() + self.spilled_out.len()) as u64,
        };
        if let Some(m) = &self.metrics {
            let shard_label = shard.to_string();
            let registry = m.telemetry.registry();
            registry
                .gauge("agentgrid_shard_load_milli", &[("shard", &shard_label)])
                .set(digest.load_milli);
            registry
                .gauge("agentgrid_shard_outstanding", &[("shard", &shard_label)])
                .set(digest.outstanding as i64);
        }
        for (_, peer) in &link.peers {
            let msg = AclMessage::builder(Performative::Inform)
                .sender(ctx.self_id().clone())
                .receiver(peer.clone())
                .ontology(MANAGEMENT_ONTOLOGY)
                .content(digest.to_content())
                .build()
                .expect("sender and receiver are set");
            ctx.send(msg);
        }
    }

    /// Publishes this shard's hottest devices to every peer as a
    /// compact `fed-summary` (once per round with the level-3 sweep,
    /// federated mode).
    /// Findings are read deterministically from the shard's store —
    /// devices in name order, ranked by latest 1-minute CPU load —
    /// so federated runs stay bit-identical across runtimes.
    fn publish_summary(&mut self, ctx: &mut AgentCtx<'_>) {
        let Some(link) = &self.federation else {
            return;
        };
        if link.peers.is_empty() {
            return;
        }
        let mut hot: Vec<federation::Finding> = Vec::new();
        {
            let store = link.store.lock();
            for device in store.devices() {
                // Never re-export a peer's findings: a summary makes
                // one hop, or every shard would echo the federation.
                if device.starts_with("fed-s") {
                    continue;
                }
                if let Some((_, value)) = store.latest(device, "cpu.load.1") {
                    hot.push((device.to_owned(), "cpu.load.1".to_owned(), value));
                }
            }
        }
        hot.sort_by(|a, b| {
            b.2.partial_cmp(&a.2)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(&b.0))
        });
        hot.truncate(federation::SUMMARY_TOP_K);
        if hot.is_empty() {
            return;
        }
        let content = federation::summary_content(link.shard, ctx.now_ms(), &hot);
        for (_, peer) in &link.peers {
            let msg = AclMessage::builder(Performative::Inform)
                .sender(ctx.self_id().clone())
                .receiver(peer.clone())
                .ontology(MANAGEMENT_ONTOLOGY)
                .content(content.clone())
                .build()
                .expect("sender and receiver are set");
            ctx.send(msg);
        }
        link.stats.lock().summaries_sent += 1;
    }

    /// Ingests a peer's `fed-summary`: fresh findings are written into
    /// the local store under a [`federation::fed_device`] alias, where
    /// the ordinary level-3 correlation rules see them next to local
    /// facts.
    fn accept_summary(
        &mut self,
        origin_shard: usize,
        ts_ms: u64,
        findings: Vec<federation::Finding>,
    ) {
        let Some(link) = &self.federation else {
            return;
        };
        if origin_shard == link.shard {
            return;
        }
        if self
            .summary_seen
            .get(&origin_shard)
            .is_some_and(|last| ts_ms <= *last)
        {
            return;
        }
        self.summary_seen.insert(origin_shard, ts_ms);
        {
            let mut stats = link.stats.lock();
            stats.summaries_received += 1;
            stats.injected_findings += findings.len() as u64;
        }
        let mut store = link.store.lock();
        for (device, metric, value) in findings {
            store.insert(
                Record::new(
                    federation::fed_device(origin_shard, &device),
                    metric,
                    value,
                    ts_ms,
                )
                .with_site(format!("fed-s{origin_shard}")),
            );
        }
    }

    /// Allocates the next task id; shard-qualified (`s2-t17`) when
    /// federated, so ids stay unique across the whole federation even
    /// after a task crosses a domain boundary.
    fn next_task_id(&mut self) -> String {
        self.task_seq += 1;
        self.stats.lock().created += 1;
        match &self.federation {
            Some(link) => format!("s{}-t{}", link.shard, self.task_seq),
            None => format!("t{}", self.task_seq),
        }
    }

    /// Refreshes the outstanding-ids snapshot in the shared stats from
    /// the in-flight ledger, the parked queue, and (sharded mode) the
    /// spilled-but-unconfirmed set.
    fn sync_outstanding(&self) {
        let mut stats = self.stats.lock();
        stats.outstanding = self
            .pending
            .iter()
            .map(|p| p.task.task_id.clone())
            .chain(self.parked.iter().map(|(t, _)| t.task_id.clone()))
            .chain(self.spilled_out.keys().cloned())
            .collect();
    }

    /// Sends an escalation alert to the interface grid, once per task.
    fn escalate(&mut self, rule: &str, device: &str, message: String, ctx: &mut AgentCtx<'_>) {
        self.stats.lock().escalations += 1;
        if let Some(m) = &self.metrics {
            m.telemetry.record_event(
                ctx.now_ms(),
                EventKind::TaskEscalated {
                    rule: rule.to_owned(),
                    device: device.to_owned(),
                },
            );
        }
        let Some(interface) = &self.escalate_to else {
            return;
        };
        let alert = Alert::new(rule, device, Severity::Critical, message, ctx.now_ms());
        let msg = AclMessage::builder(Performative::Inform)
            .sender(ctx.self_id().clone())
            .receiver(interface.clone())
            .ontology(MANAGEMENT_ONTOLOGY)
            .content(alert.to_content())
            .build()
            .expect("sender and receiver are set");
        ctx.send(msg);
    }

    /// Forwards any breaker state changes accumulated since the last
    /// drain to the flight recorder (no-op without telemetry — the log
    /// is still emptied so it cannot grow unbounded).
    fn drain_breaker_transitions(&mut self, now_ms: u64) {
        let Some(breakers) = &mut self.breakers else {
            return;
        };
        let transitions = breakers.take_transitions();
        if let Some(m) = &self.metrics {
            for (container, to) in transitions {
                m.telemetry
                    .record_event(now_ms, EventKind::BreakerTransition { container, to });
            }
        }
    }

    /// Issues the level-3 correlation sweep of the round whose
    /// `data-ready`s arrived at this instant, and publishes the round's
    /// load digest and summary to the peer shards. Runs at the end of
    /// every tick: the stepper delivers a step's messages before it
    /// ticks the agent, so the sweep's join sees every site's fresh data
    /// of the round, and a tick at a later instant finds the round's
    /// sweep already issued.
    fn sweep_round(&mut self, ctx: &mut AgentCtx<'_>) {
        let now = ctx.now_ms();
        let Some((ready_ms, observed_ms)) = self.unswept.take() else {
            return;
        };
        if ready_ms != now || self.last_sweep_ms == Some(now) {
            return;
        }
        self.last_sweep_ms = Some(now);
        let task = AnalysisTask::new(self.next_task_id(), "correlation", "*", 3, 0);
        if let Some(m) = &self.metrics {
            m.telemetry.task_created(&task.task_id, observed_ms, now);
        }
        self.assign_and_send(task, true, ctx);
        self.gossip_digest(ctx);
        self.publish_summary(ctx);
        self.drain_breaker_transitions(now);
    }

    /// The recovery tick: liveness sweep, reclaim of departed and dead
    /// containers' work, deadline retries, escalations, and re-award of
    /// parked work.
    fn recovery_tick(&mut self, ctx: &mut AgentCtx<'_>) {
        let cfg = self.recovery;
        let now = ctx.now_ms();

        // 1. Liveness sweep over the containers hosting this root's
        //    analyzers. Spare containers (a profile but no analyzer)
        //    never heartbeat and are not swept; a federated root leaves
        //    a peer's tier to the peer.
        let containers: Vec<String> = hosting(ctx.df(), &self.service)
            .map(|p| p.container.clone())
            .collect();
        self.suspect.clear();
        // Containers under partition quarantine are pinned to Suspect:
        // the network cut them off, their process is still running.
        let quarantined: BTreeSet<String> = self
            .quarantine
            .lock()
            .iter()
            .filter(|(_, until)| now < **until)
            .map(|(c, _)| c.clone())
            .collect();
        let mut dead = Vec::new();
        for container in containers {
            let last = ctx.df().last_heartbeat(&container).unwrap_or(0);
            let state = if quarantined.contains(&container) {
                Liveness::Suspect
            } else {
                cfg.liveness.classify(now.saturating_sub(last))
            };
            if let Some(m) = &self.metrics {
                m.liveness_gauge(&container).set(state.as_gauge());
                if let Some(breakers) = &self.breakers {
                    m.breaker_gauge(&container)
                        .set(breakers.gauge_value(&container));
                }
                // Flight-record liveness *changes* only; a container
                // never seen before counts as previously alive.
                let prev = self.liveness_seen.insert(container.clone(), state);
                if prev.unwrap_or(Liveness::Alive) != state {
                    m.telemetry.record_event(
                        now,
                        EventKind::HeartbeatChange {
                            container: container.clone(),
                            state: liveness_label(state),
                        },
                    );
                }
            }
            match state {
                Liveness::Alive => {}
                Liveness::Suspect => {
                    self.suspect.insert(container);
                }
                Liveness::Dead => dead.push(container),
            }
        }

        // 2. Containers that left the directory in an orderly way
        //    (killed, not crashed) take their in-flight work with them:
        //    reclaim it silently. Dead containers: drop their stale
        //    directory entries so no further awards can reach them,
        //    reclaim their in-flight ledger, and raise one alert per
        //    death.
        let mut to_reaward = Vec::new();
        self.pending.retain(|p| {
            let registered = ctx.df().container_profile(&p.container).is_some();
            if !registered {
                to_reaward.push(p.task.clone());
            }
            registered
        });
        for container in dead {
            let providers: Vec<AgentId> = ctx
                .df()
                .providers_with(&self.service, &container)
                .cloned()
                .collect();
            for provider in providers {
                ctx.df().deregister(&provider);
            }
            ctx.df().deregister_container(&container);
            let mut reclaimed = 0;
            self.pending.retain(|p| {
                if p.container == container {
                    to_reaward.push(p.task.clone());
                    reclaimed += 1;
                    false
                } else {
                    true
                }
            });
            // A dead container's breaker state dies with it — liveness
            // already diverted everything, and a restarted container
            // must come back with a closed breaker.
            if let Some(breakers) = &mut self.breakers {
                breakers.forget(&container);
            }
            self.escalate(
                "container-dead",
                &container,
                format!("container {container} missed heartbeats; reclaiming {reclaimed} tasks"),
                ctx,
            );
        }

        // 3. Deadline pass: past-due awards retry with backoff until
        //    the budget runs out, then escalate and re-broker.
        let mut retries = Vec::new();
        let mut exhausted = Vec::new();
        // Deadline expiries double as the circuit breakers' failure
        // signal: each is one timeout against the awarded container.
        let mut timeouts = Vec::new();
        self.pending.retain_mut(|p| {
            if now < p.deadline_ms {
                return true;
            }
            timeouts.push(p.container.clone());
            if p.attempts < cfg.backoff.max_retries {
                p.attempts += 1;
                p.deadline_ms =
                    now.saturating_add(cfg.backoff.delay_ms(p.attempts, task_key(&p.task.task_id)));
                retries.push((p.task.clone(), p.container.clone()));
                true
            } else {
                exhausted.push(p.task.clone());
                false
            }
        });
        if let Some(breakers) = &mut self.breakers {
            for container in &timeouts {
                breakers.on_failure(container, now);
            }
        }
        for (task, container) in retries {
            // A container still registered but no longer hosting an
            // analyzer (it migrated away) has nothing to resend to: the
            // deadline keeps running, and exhaustion re-brokers the
            // task.
            if !send_task(&self.service, &task, &container, ctx) {
                continue;
            }
            self.stats.lock().retries += 1;
            if let Some(m) = &self.metrics {
                m.retries.inc();
            }
        }
        for task in exhausted {
            if self.escalated.insert(task.task_id.clone()) {
                self.escalate(
                    "task-retry-exhausted",
                    &task.partition,
                    format!(
                        "task {} exhausted {} retries on its container; re-brokering",
                        task.task_id, cfg.backoff.max_retries
                    ),
                    ctx,
                );
            }
            to_reaward.push(task);
        }

        // 4. Re-award reclaimed tasks, then whatever was parked.
        for task in to_reaward {
            self.reaward(task, ctx);
        }
        let parked = std::mem::take(&mut self.parked);
        for (task, is_reaward) in parked {
            if is_reaward {
                self.reaward(task, ctx);
            } else {
                self.assign_and_send(task, true, ctx);
            }
        }
        self.drain_breaker_transitions(now);
    }
}

impl Agent for ProcessorRootAgent {
    fn on_message(&mut self, message: &AclMessage, ctx: &mut AgentCtx<'_>) {
        // Completion reports. Only a report that clears an in-flight
        // entry counts: after a retry the same task may complete twice
        // (the original award and the retried request), and the second
        // report must not inflate the tally.
        if message.content().get("concept").and_then(Value::as_str) == Some("done") {
            if let Some(task_id) = message.content().get("task-id").and_then(Value::as_str) {
                if self.done_seen.contains(task_id) {
                    // Duplicate verdict: a retransmitted or duplicated
                    // `done`, or a stale award finishing after the task
                    // was already completed through a re-broker. Drop
                    // any matching ledger entry silently — the work is
                    // accounted for, re-awarding or re-counting it
                    // would break exactly-once accounting.
                    self.pending.retain(|p| p.task.task_id != task_id);
                    self.parked.retain(|(t, _)| t.task_id != task_id);
                    self.sync_outstanding();
                    return;
                }
                let mut cleared = None;
                self.pending.retain(|p| {
                    if p.task.task_id == task_id {
                        cleared = Some(p.container.clone());
                        false
                    } else {
                        true
                    }
                });
                // A verdict can also land while the task sits reclaimed
                // in the parked queue — its container was partitioned,
                // the answer arrived after the heal. Honor it instead
                // of re-awarding the finished work.
                if cleared.is_none() {
                    let before = self.parked.len();
                    self.parked.retain(|(t, _)| t.task_id != task_id);
                    if self.parked.len() < before {
                        cleared = Some(String::new());
                    }
                }
                if let Some(container) = cleared {
                    self.done_seen.insert(task_id.to_owned());
                    // A completed spill reports home: the origin root
                    // carries the task as outstanding until this lands.
                    if let Some((_, origin_root)) = self.spilled_in.remove(task_id) {
                        let report = AclMessage::builder(Performative::Inform)
                            .sender(ctx.self_id().clone())
                            .receiver(origin_root)
                            .ontology(MANAGEMENT_ONTOLOGY)
                            .content(federation::spill_done_content(task_id))
                            .build()
                            .expect("sender and receiver are set");
                        ctx.send(report);
                    }
                    let mut stats = self.stats.lock();
                    stats.completed += 1;
                    stats.completed_ids.push(task_id.to_owned());
                    drop(stats);
                    if let Some(m) = &self.metrics {
                        m.completed.inc();
                        // Closes the task's end-to-end span and feeds
                        // the latency histogram.
                        m.telemetry.task_done(task_id, ctx.now_ms());
                    }
                    // A completion is the breaker's success signal (a
                    // parked clear has no awarded container to credit).
                    if !container.is_empty() {
                        if let Some(breakers) = &mut self.breakers {
                            breakers.on_success(&container);
                        }
                    }
                    self.drain_breaker_transitions(ctx.now_ms());
                }
            }
            self.sync_outstanding();
            return;
        }
        // Federation traffic (sharded mode). An unfederated root never
        // receives these concepts; the guard keeps its hot path
        // untouched all the same.
        if self.federation.is_some() {
            if let Some(digest) = LoadDigest::parse(message.content()) {
                self.digests.insert(digest.shard, digest);
                return;
            }
            if let Some((origin_shard, task)) = federation::parse_spill(message.content()) {
                let origin_root = message.sender().clone();
                self.accept_spill(origin_shard, origin_root, task, ctx);
                self.sync_outstanding();
                return;
            }
            if let Some(task_id) = federation::parse_spill_done(message.content()) {
                if self.spilled_out.remove(task_id).is_some() {
                    // The peer ran our rejected task: record it done so
                    // a late duplicate cannot double-count, and take it
                    // off the outstanding set. Completion was counted
                    // at the peer — never here, or the federation total
                    // would double.
                    self.done_seen.insert(task_id.to_owned());
                    if let Some(link) = &self.federation {
                        link.stats.lock().spill_completed += 1;
                        if let Some(m) = &self.metrics {
                            m.telemetry.record_event(
                                ctx.now_ms(),
                                EventKind::SpillCompleted {
                                    task: task_id.to_owned(),
                                    origin_shard: link.shard,
                                },
                            );
                        }
                    }
                    self.sync_outstanding();
                }
                return;
            }
            if let Some((origin_shard, ts_ms, findings)) =
                federation::parse_summary(message.content())
            {
                self.accept_summary(origin_shard, ts_ms, findings);
                return;
            }
        }
        // Fresh-data notifications.
        let Some((site, partitions)) = parse_data_ready(message.content()) else {
            return;
        };
        let site_seen = self.ready_by_site.entry(site.clone()).or_insert(0);
        *site_seen += 1;
        let site_seen = *site_seen;
        // The collector's observation timestamp rides the data-ready
        // content ("ts"); it anchors each task span's end-to-end
        // latency at the moment the data was observed, not brokered.
        let observed_ms = message
            .content()
            .get("ts")
            .and_then(Value::as_int)
            .and_then(|ts| u64::try_from(ts).ok())
            .unwrap_or_else(|| ctx.now_ms());
        let now = ctx.now_ms();
        self.unswept = Some((now, observed_ms));
        // Alternate level 1 and level 2 so consolidation happens on every
        // other pass over a site's partition. The tasks cover this site's
        // data only; the round's level-3 sweep on the next tick stays
        // grid-wide.
        let level = if site_seen.is_multiple_of(2) { 2 } else { 1 };
        for (partition, size) in partitions {
            let task = AnalysisTask::new(
                self.next_task_id(),
                partition.clone(),
                partition,
                level,
                size,
            )
            .with_site(site.clone());
            if let Some(m) = &self.metrics {
                m.telemetry
                    .task_created(&task.task_id, observed_ms, ctx.now_ms());
            }
            self.assign_and_send(task, true, ctx);
        }
        self.drain_breaker_transitions(now);
        self.sync_outstanding();
    }

    fn on_tick(&mut self, ctx: &mut AgentCtx<'_>) {
        self.recovery_tick(ctx);
        self.sweep_round(ctx);
        self.sync_outstanding();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::KnowledgeCapacityIdle;
    use agentgrid_acl::ontology::{FromContent, ResourceProfile};
    use agentgrid_acl::{AgentId, SharedMessage};
    use agentgrid_platform::DirectoryFacilitator;
    use std::collections::BTreeMap;

    fn df_with_containers(names: &[&str]) -> DirectoryFacilitator {
        let mut df = DirectoryFacilitator::new();
        for name in names {
            df.register_container(ResourceProfile::new(
                *name,
                1.0,
                1.0,
                1024,
                ["cpu", "disk", "correlation"],
            ));
            df.register_service(
                AgentId::new(format!("analyzer-{name}@g")),
                "analysis",
                [*name],
            );
        }
        df
    }

    fn data_ready_msg(partitions: &[(&str, u64)]) -> AclMessage {
        data_ready_at("hq", partitions)
    }

    fn data_ready_at(site: &str, partitions: &[(&str, u64)]) -> AclMessage {
        let map: BTreeMap<&str, u64> = partitions.iter().copied().collect();
        let content = crate::grid::classifier::data_ready_content(site, &map, 0);
        AclMessage::builder(Performative::Inform)
            .sender(AgentId::new("clg@g"))
            .receiver(AgentId::new("pg-root@g"))
            .content(content)
            .build()
            .unwrap()
    }

    #[test]
    fn data_ready_produces_one_task_per_partition() {
        let mut root = ProcessorRootAgent::new(Box::new(KnowledgeCapacityIdle));
        let stats = root.stats_handle();
        let id = AgentId::new("pg-root@g");
        let mut outbox = Vec::new();
        let mut df = df_with_containers(&["pg-1", "pg-2"]);
        let mut ctx = AgentCtx::new(&id, "root-ct", 0, &mut outbox, &mut df);
        root.on_message(&data_ready_msg(&[("cpu", 10), ("disk", 5)]), &mut ctx);
        drop(ctx);
        let stats = stats.lock();
        assert_eq!(stats.assignments.len(), 2);
        assert_eq!(outbox.len(), 2);
        // Projected load spread the two tasks over both containers.
        let containers: Vec<&str> = stats.assignments.iter().map(|(_, c)| c.as_str()).collect();
        assert!(containers.contains(&"pg-1") && containers.contains(&"pg-2"));
    }

    /// One `data-ready`'s equal tasks over equal idle containers spread
    /// across them: each award is charged to the load account before the
    /// next selection reads it.
    #[test]
    fn charged_awards_spread_a_burst() {
        let mut root = ProcessorRootAgent::new(Box::new(KnowledgeCapacityIdle));
        let stats = root.stats_handle();
        let id = AgentId::new("pg-root@g");
        let mut outbox = Vec::new();
        let mut df = df_with_containers(&["pg-1", "pg-2", "pg-3"]);
        let mut ctx = AgentCtx::new(&id, "root-ct", 0, &mut outbox, &mut df);
        let burst = [("correlation", 500), ("cpu", 500), ("disk", 500)];
        root.on_message(&data_ready_msg(&burst), &mut ctx);
        drop(ctx);
        let awarded: BTreeSet<String> = stats
            .lock()
            .assignments
            .iter()
            .map(|(_, c)| c.clone())
            .collect();
        assert_eq!(
            awarded,
            BTreeSet::from(["pg-1".into(), "pg-2".into(), "pg-3".into()])
        );
        for container in ["pg-1", "pg-2", "pg-3"] {
            assert_eq!(df.charged(container), 500);
            assert_eq!(df.container_profile(container).unwrap().load, 0.5);
        }
    }

    /// Ticks the root at `at` right after every registered container
    /// heartbeats, as the live analyzers do on each tick.
    fn beat_and_tick(
        root: &mut ProcessorRootAgent,
        at: u64,
        outbox: &mut Vec<SharedMessage>,
        df: &mut DirectoryFacilitator,
    ) {
        let containers: Vec<String> = df
            .container_profiles()
            .map(|p| p.container.clone())
            .collect();
        for container in &containers {
            df.record_heartbeat(container, at);
        }
        let id = AgentId::new("pg-root@g");
        let mut ctx = AgentCtx::new(&id, "root-ct", at, outbox, df);
        root.on_tick(&mut ctx);
    }

    /// The tasks in `outbox`, each once in order of its first send
    /// (deadline retries re-send the same task).
    fn distinct_tasks(outbox: &[SharedMessage]) -> Vec<AnalysisTask> {
        let mut seen = BTreeSet::new();
        outbox
            .iter()
            .filter_map(|m| AnalysisTask::from_content(m.content()).ok())
            .filter(|t| seen.insert(t.task_id.clone()))
            .collect()
    }

    /// A `data-ready` from each of `sites` at simulated time `at`.
    fn round_at(
        root: &mut ProcessorRootAgent,
        sites: &[&str],
        at: u64,
        outbox: &mut Vec<SharedMessage>,
        df: &mut DirectoryFacilitator,
    ) {
        let id = AgentId::new("pg-root@g");
        for site in sites {
            let mut ctx = AgentCtx::new(&id, "root-ct", at, outbox, df);
            root.on_message(&data_ready_at(site, &[("cpu", 1)]), &mut ctx);
        }
    }

    #[test]
    fn one_sweep_and_summary_per_round_on_the_next_tick() {
        let mut root = ProcessorRootAgent::new(Box::new(KnowledgeCapacityIdle));
        let (store, fstats) = federate(&mut root, 0, &[(1, "pg-root-s1@g")]);
        store
            .lock()
            .insert(Record::new("site-0-dev0", "cpu.load.1", 97.0, 60_000).with_site("site-0"));
        let mut outbox = Vec::new();
        let mut df = df_with_shard_containers(0, &["pg-1"]);
        let sweeps = |outbox: &[SharedMessage]| {
            distinct_tasks(outbox)
                .iter()
                .filter(|t| t.level == 3)
                .count()
        };
        let summaries = |outbox: &[SharedMessage]| {
            outbox
                .iter()
                .filter(|m| federation::parse_summary(m.content()).is_some())
                .count()
        };
        // Three sites' notifications at T: site tasks only, no sweep yet.
        round_at(&mut root, &["a", "b", "c"], 60_000, &mut outbox, &mut df);
        assert_eq!(outbox.len(), 3);
        assert_eq!(sweeps(&outbox), 0);
        // The tick at T issues the round's one sweep and one summary.
        beat_and_tick(&mut root, 60_000, &mut outbox, &mut df);
        assert_eq!(sweeps(&outbox), 1);
        assert_eq!(summaries(&outbox), 1);
        assert_eq!(fstats.lock().summaries_sent, 1);
        let sweep = distinct_tasks(&outbox)
            .into_iter()
            .find(|t| t.level == 3)
            .unwrap();
        assert_eq!(sweep.skill, "correlation");
        assert_eq!(sweep.site, None, "the sweep spans every site");
        // A second tick at T, a tick after a late notification at T and
        // a tick with no fresh data add none.
        beat_and_tick(&mut root, 60_000, &mut outbox, &mut df);
        round_at(&mut root, &["d"], 60_000, &mut outbox, &mut df);
        for at in [60_000, 120_000] {
            beat_and_tick(&mut root, at, &mut outbox, &mut df);
        }
        assert_eq!(sweeps(&outbox), 1);
        assert_eq!(summaries(&outbox), 1);
        // The next round's notifications bring the next sweep.
        round_at(&mut root, &["a"], 180_000, &mut outbox, &mut df);
        beat_and_tick(&mut root, 180_000, &mut outbox, &mut df);
        assert_eq!(sweeps(&outbox), 2);
    }

    #[test]
    fn levels_alternate_between_notifications() {
        let mut root = ProcessorRootAgent::new(Box::new(KnowledgeCapacityIdle));
        let id = AgentId::new("pg-root@g");
        let mut outbox = Vec::new();
        let mut df = df_with_containers(&["pg-1"]);
        for _ in 0..2 {
            let mut ctx = AgentCtx::new(&id, "root-ct", 0, &mut outbox, &mut df);
            root.on_message(&data_ready_msg(&[("cpu", 1)]), &mut ctx);
        }
        let levels: Vec<u8> = outbox
            .iter()
            .map(|m| AnalysisTask::from_content(m.content()).unwrap().level)
            .collect();
        assert_eq!(levels, [1, 2]);

        // Two sites interleaved: each alternates on its own count, so
        // neither is pinned to one level; each round's tick adds one
        // site-less correlation sweep.
        let mut root = ProcessorRootAgent::new(Box::new(KnowledgeCapacityIdle));
        let mut outbox = Vec::new();
        for round in 1..=3 {
            let at = round * 60_000;
            round_at(&mut root, &["hq", "branch"], at, &mut outbox, &mut df);
            beat_and_tick(&mut root, at, &mut outbox, &mut df);
        }
        let tasks: Vec<(Option<String>, u8)> = distinct_tasks(&outbox)
            .into_iter()
            .map(|t| (t.site, t.level))
            .collect();
        let at = |site: &str, level| (Some(site.to_owned()), level);
        assert_eq!(
            tasks,
            [
                at("hq", 1),
                at("branch", 1),
                (None, 3),
                at("hq", 2),
                at("branch", 2),
                (None, 3),
                at("hq", 1),
                at("branch", 1),
                (None, 3),
            ]
        );
    }

    #[test]
    fn missing_skill_parks_the_task() {
        let mut root = ProcessorRootAgent::new(Box::new(KnowledgeCapacityIdle));
        let stats = root.stats_handle();
        let id = AgentId::new("pg-root@g");
        let mut outbox = Vec::new();
        let mut df = df_with_containers(&["pg-1"]);
        let mut ctx = AgentCtx::new(&id, "root-ct", 0, &mut outbox, &mut df);
        root.on_message(&data_ready_msg(&[("memory", 1)]), &mut ctx);
        drop(ctx);
        assert!(outbox.is_empty());
        assert_eq!(stats.lock().outstanding, ["t1"], "parked, not dropped");

        // A container with the skill registers: the next tick awards it.
        df.register_container(ResourceProfile::new("pg-mem", 1.0, 1.0, 1024, ["memory"]));
        df.register_service(AgentId::new("analyzer-pg-mem@g"), "analysis", ["pg-mem"]);
        beat_and_tick(&mut root, 60_000, &mut outbox, &mut df);
        let stats = stats.lock();
        assert_eq!(stats.assignments, [("t1".into(), "pg-mem".into())]);
        assert!(stats.rebrokered.is_empty(), "a first award, not a re-award");
        assert_eq!(stats.outstanding, ["t1"], "in flight until done");
    }

    #[test]
    fn done_report_clears_pending() {
        let mut root = ProcessorRootAgent::new(Box::new(KnowledgeCapacityIdle));
        let stats = root.stats_handle();
        let id = AgentId::new("pg-root@g");
        let mut outbox = Vec::new();
        let mut df = df_with_containers(&["pg-1"]);
        let mut ctx = AgentCtx::new(&id, "root-ct", 0, &mut outbox, &mut df);
        root.on_message(&data_ready_msg(&[("cpu", 1)]), &mut ctx);
        drop(ctx);
        assert_eq!(root.pending.len(), 1);
        let done = AclMessage::builder(Performative::Inform)
            .sender(AgentId::new("analyzer-pg-1@g"))
            .receiver(id.clone())
            .content(Value::map([
                ("concept", Value::symbol("done")),
                ("task-id", Value::from("t1")),
                ("findings", Value::Int(0)),
            ]))
            .build()
            .unwrap();
        let mut ctx = AgentCtx::new(&id, "root-ct", 0, &mut outbox, &mut df);
        root.on_message(&done, &mut ctx);
        assert!(root.pending.is_empty());
        assert_eq!(stats.lock().completed, 1);
    }

    #[test]
    fn heartbeat_death_reclaims_and_reawards_exactly_once() {
        let mut root = ProcessorRootAgent::new(Box::new(KnowledgeCapacityIdle));
        root.set_recovery(RecoveryConfig::default(), Some(AgentId::new("iface@g")));
        let stats = root.stats_handle();
        let id = AgentId::new("pg-root@g");
        let mut outbox = Vec::new();
        let mut df = df_with_containers(&["pg-1", "pg-2"]);
        // Force assignment to pg-1 by overloading pg-2.
        df.charge("pg-2", 990);
        let mut ctx = AgentCtx::new(&id, "root-ct", 0, &mut outbox, &mut df);
        root.on_message(&data_ready_msg(&[("cpu", 1)]), &mut ctx);
        drop(ctx);
        assert_eq!(stats.lock().assignments, [("t1".into(), "pg-1".into())]);

        // pg-1 silently stops heartbeating; pg-2 stays alive.
        df.close_window();
        let dead_at = RecoveryConfig::default().liveness.dead_after_ms;
        df.record_heartbeat("pg-2", dead_at);
        let mut ctx = AgentCtx::new(&id, "root-ct", dead_at, &mut outbox, &mut df);
        root.on_tick(&mut ctx);
        drop(ctx);

        // The dead container left the directory, its task moved to the
        // survivor exactly once, and one death alert escalated.
        assert!(df.container_profile("pg-1").is_none());
        assert!(df.providers_with("analysis", "pg-1").next().is_none());
        let stats = stats.lock();
        assert_eq!(
            stats.assignments,
            [("t1".into(), "pg-1".into()), ("t1".into(), "pg-2".into())]
        );
        assert_eq!(stats.rebrokered, ["t1"]);
        assert_eq!(stats.rebrokered.len(), 1);
        assert_eq!(stats.escalations, 1);
        let alert = outbox
            .iter()
            .find(|m| m.receivers() == [AgentId::new("iface@g")])
            .expect("death alert escalated to the interface");
        assert_eq!(
            alert.content().get("rule").and_then(Value::as_str),
            Some("container-dead")
        );
    }

    #[test]
    fn deadline_retries_then_escalates_and_rebrokers() {
        let mut root = ProcessorRootAgent::new(Box::new(KnowledgeCapacityIdle));
        let cfg = RecoveryConfig {
            backoff: crate::recovery::BackoffPolicy {
                base_ms: 10,
                factor: 2,
                max_ms: 40,
                max_retries: 2,
                jitter_seed: 1,
            },
            ..RecoveryConfig::default()
        };
        root.set_recovery(cfg, Some(AgentId::new("iface@g")));
        let stats = root.stats_handle();
        let id = AgentId::new("pg-root@g");
        let mut outbox = Vec::new();
        let mut df = df_with_containers(&["pg-1"]);
        let mut ctx = AgentCtx::new(&id, "root-ct", 0, &mut outbox, &mut df);
        root.on_message(&data_ready_msg(&[("cpu", 1)]), &mut ctx);
        drop(ctx);
        assert_eq!(outbox.len(), 1);

        // Ticks 100 ms apart: every deadline (≤ 50 ms with jitter) has
        // passed, so the two budgeted retries fire, then escalation.
        for step in 1..=2u64 {
            let now = step * 100;
            df.record_heartbeat("pg-1", now);
            let mut ctx = AgentCtx::new(&id, "root-ct", now, &mut outbox, &mut df);
            root.on_tick(&mut ctx);
            assert_eq!(stats.lock().retries, step);
        }
        df.record_heartbeat("pg-1", 300);
        let mut ctx = AgentCtx::new(&id, "root-ct", 300, &mut outbox, &mut df);
        root.on_tick(&mut ctx);
        drop(ctx);

        let stats = stats.lock();
        assert_eq!(stats.retries, 2, "retry budget is bounded");
        assert_eq!(stats.escalations, 1);
        assert_eq!(stats.rebrokered, ["t1"], "exhausted task re-brokered");
        assert_eq!(stats.assignments.len(), 2);
        let alert = outbox
            .iter()
            .find(|m| {
                m.content().get("rule").and_then(Value::as_str) == Some("task-retry-exhausted")
            })
            .expect("exhaustion alert escalated");
        assert_eq!(alert.receivers(), [AgentId::new("iface@g")]);
    }

    #[test]
    fn first_award_fixes_the_round_and_retries_and_reawards_keep_it() {
        let mut root = ProcessorRootAgent::new(Box::new(KnowledgeCapacityIdle));
        let cfg = RecoveryConfig {
            backoff: crate::recovery::BackoffPolicy {
                base_ms: 10,
                factor: 2,
                max_ms: 40,
                max_retries: 1,
                jitter_seed: 1,
            },
            ..RecoveryConfig::default()
        };
        root.set_recovery(cfg, None);
        let id = AgentId::new("pg-root@g");
        let mut outbox = Vec::new();
        let mut df = df_with_containers(&["pg-1"]);
        round_at(&mut root, &["hq"], 60_000, &mut outbox, &mut df);
        // Past each deadline: one retry, then the exhausted task is
        // re-awarded through a fresh brokering round.
        for now in [60_100, 60_200] {
            df.record_heartbeat("pg-1", now);
            let mut ctx = AgentCtx::new(&id, "root-ct", now, &mut outbox, &mut df);
            root.on_tick(&mut ctx);
        }
        let rounds: Vec<Option<u64>> = outbox
            .iter()
            .filter_map(|m| AnalysisTask::from_content(m.content()).ok())
            .map(|t| t.round_ms)
            .collect();
        assert_eq!(
            rounds,
            [Some(60_000); 3],
            "award, retry and re-award all deliver the task for its first round"
        );
        assert_eq!(root.stats.lock().rebrokered, ["t1"]);
    }

    #[test]
    fn unawardable_task_parks_until_capacity_returns() {
        let mut root = ProcessorRootAgent::new(Box::new(KnowledgeCapacityIdle));
        let stats = root.stats_handle();
        let id = AgentId::new("pg-root@g");
        let mut outbox = Vec::new();
        let mut df = DirectoryFacilitator::new();
        let mut ctx = AgentCtx::new(&id, "root-ct", 0, &mut outbox, &mut df);
        root.on_message(&data_ready_msg(&[("cpu", 1)]), &mut ctx);
        drop(ctx);
        // Nowhere to run the task: parked, not dropped.
        assert_eq!(stats.lock().outstanding, ["t1"]);
        assert!(stats.lock().assignments.is_empty());
        let mut ctx = AgentCtx::new(&id, "root-ct", 60_000, &mut outbox, &mut df);
        root.on_tick(&mut ctx);
        drop(ctx);
        assert!(stats.lock().assignments.is_empty(), "still no capacity");

        // A capable container joins: the parked task is awarded.
        let mut df2 = df_with_containers(&["pg-1"]);
        df2.record_heartbeat("pg-1", 120_000);
        let mut ctx = AgentCtx::new(&id, "root-ct", 120_000, &mut outbox, &mut df2);
        root.on_tick(&mut ctx);
        let stats = stats.lock();
        assert_eq!(stats.assignments, [("t1".into(), "pg-1".into())]);
        assert!(stats.rebrokered.is_empty(), "a first award, not a re-award");
    }

    fn done_msg(task_id: &str, from: &str, to: &AgentId) -> AclMessage {
        AclMessage::builder(Performative::Inform)
            .sender(AgentId::new(from))
            .receiver(to.clone())
            .content(Value::map([
                ("concept", Value::symbol("done")),
                ("task-id", Value::from(task_id)),
                ("findings", Value::Int(0)),
            ]))
            .build()
            .unwrap()
    }

    #[test]
    fn quarantined_container_is_suspect_not_dead() {
        let mut root = ProcessorRootAgent::new(Box::new(KnowledgeCapacityIdle));
        root.set_recovery(RecoveryConfig::default(), Some(AgentId::new("iface@g")));
        let quarantine = Arc::new(Mutex::new(BTreeMap::new()));
        root.set_quarantine(Arc::clone(&quarantine));
        let stats = root.stats_handle();
        let id = AgentId::new("pg-root@g");
        let mut outbox = Vec::new();
        let mut df = df_with_containers(&["pg-1", "pg-2"]);
        df.charge("pg-2", 990);
        let mut ctx = AgentCtx::new(&id, "root-ct", 0, &mut outbox, &mut df);
        root.on_message(&data_ready_msg(&[("cpu", 1)]), &mut ctx);
        drop(ctx);
        assert_eq!(stats.lock().assignments, [("t1".into(), "pg-1".into())]);

        // pg-1 goes silent long enough to classify Dead, but it is
        // quarantined (partitioned): it must stay Suspect — directory
        // entry intact, ledger intact, no death escalation.
        quarantine.lock().insert("pg-1".to_owned(), u64::MAX);
        df.close_window();
        let dead_at = RecoveryConfig::default().liveness.dead_after_ms;
        df.record_heartbeat("pg-2", dead_at);
        let mut ctx = AgentCtx::new(&id, "root-ct", dead_at, &mut outbox, &mut df);
        root.on_tick(&mut ctx);
        drop(ctx);
        assert!(df.container_profile("pg-1").is_some(), "not deregistered");
        assert!(root.suspect.contains("pg-1"), "pinned to Suspect");
        assert_eq!(stats.lock().escalations, 0, "no container-dead alert");

        // Quarantine expired (healed + grace elapsed): normal liveness
        // classification resumes and the stale container dies for real.
        quarantine.lock().insert("pg-1".to_owned(), dead_at);
        df.record_heartbeat("pg-2", 2 * dead_at);
        let mut ctx = AgentCtx::new(&id, "root-ct", 2 * dead_at, &mut outbox, &mut df);
        root.on_tick(&mut ctx);
        drop(ctx);
        assert!(df.container_profile("pg-1").is_none(), "now reclaimed");
        assert_eq!(stats.lock().escalations, 1);
    }

    #[test]
    fn duplicate_done_counts_exactly_once() {
        let mut root = ProcessorRootAgent::new(Box::new(KnowledgeCapacityIdle));
        let stats = root.stats_handle();
        let id = AgentId::new("pg-root@g");
        let mut outbox = Vec::new();
        let mut df = df_with_containers(&["pg-1"]);
        let mut ctx = AgentCtx::new(&id, "root-ct", 0, &mut outbox, &mut df);
        root.on_message(&data_ready_msg(&[("cpu", 1)]), &mut ctx);
        drop(ctx);
        let done = done_msg("t1", "analyzer-pg-1@g", &id);
        for _ in 0..3 {
            let mut ctx = AgentCtx::new(&id, "root-ct", 0, &mut outbox, &mut df);
            root.on_message(&done, &mut ctx);
        }
        let stats = stats.lock();
        assert_eq!(stats.completed, 1, "duplicated verdicts count once");
        assert_eq!(stats.completed_ids, ["t1"]);
    }

    #[test]
    fn late_done_for_parked_task_completes_without_reaward() {
        let mut root = ProcessorRootAgent::new(Box::new(KnowledgeCapacityIdle));
        let stats = root.stats_handle();
        let id = AgentId::new("pg-root@g");
        let mut outbox = Vec::new();
        let mut df = df_with_containers(&["pg-1"]);
        let mut ctx = AgentCtx::new(&id, "root-ct", 0, &mut outbox, &mut df);
        root.on_message(&data_ready_msg(&[("cpu", 1)]), &mut ctx);
        drop(ctx);
        // Simulate a reclaim: the award moves from in-flight to parked
        // (as when its container was declared dead mid-partition).
        let reclaimed = root.pending.remove(0).task;
        root.parked.push((reclaimed, true));
        // The old container's verdict finally gets through (heal): the
        // parked task completes — no re-award, no double count.
        let done = done_msg("t1", "analyzer-pg-1@g", &id);
        let mut ctx = AgentCtx::new(&id, "root-ct", 60_000, &mut outbox, &mut df);
        root.on_message(&done, &mut ctx);
        drop(ctx);
        assert!(root.parked.is_empty(), "parked entry cleared by the done");
        df.record_heartbeat("pg-1", 120_000);
        let mut ctx = AgentCtx::new(&id, "root-ct", 120_000, &mut outbox, &mut df);
        root.on_tick(&mut ctx);
        drop(ctx);
        let stats = stats.lock();
        assert_eq!(stats.completed, 1);
        assert!(
            stats.rebrokered.is_empty(),
            "finished work is not re-awarded"
        );
        assert_eq!(stats.assignments.len(), 1);
    }

    /// Wires a root into a test federation, returning its store and
    /// federation-stats handles.
    fn federate(
        root: &mut ProcessorRootAgent,
        shard: usize,
        peers: &[(usize, &str)],
    ) -> (Arc<Mutex<ManagementStore>>, Arc<Mutex<FederationStats>>) {
        let store = Arc::new(Mutex::new(ManagementStore::new(
            agentgrid_store::Classifier::standard(),
        )));
        let stats = Arc::new(Mutex::new(FederationStats::default()));
        root.set_federation(FederationLink {
            shard,
            peers: peers
                .iter()
                .map(|(s, id)| (*s, AgentId::new(*id)))
                .collect(),
            service: federation::shard_service(shard),
            store: Arc::clone(&store),
            stats: Arc::clone(&stats),
        });
        (store, stats)
    }

    /// Containers whose analyzers carry both the global and the
    /// shard-scoped directory registration, as the sharded builder
    /// wires them.
    fn df_with_shard_containers(shard: usize, names: &[&str]) -> DirectoryFacilitator {
        let mut df = DirectoryFacilitator::new();
        for name in names {
            df.register_container(ResourceProfile::new(
                *name,
                1.0,
                1.0,
                1024,
                ["cpu", "disk", "correlation"],
            ));
            let agent = AgentId::new(format!("analyzer-{name}@g"));
            df.register_service(agent.clone(), "analysis", [*name]);
            df.register_service(agent, federation::shard_service(shard), [*name]);
        }
        df
    }

    #[test]
    fn unawardable_task_spills_to_peer_and_spill_done_closes_it() {
        let mut root = ProcessorRootAgent::new(Box::new(KnowledgeCapacityIdle));
        let (_store, fstats) = federate(&mut root, 0, &[(1, "pg-root-s1@g")]);
        let stats = root.stats_handle();
        let id = AgentId::new("pg-root-s0@g");
        let mut outbox = Vec::new();
        // No local capacity at all: the task must cross the boundary.
        let mut df = DirectoryFacilitator::new();
        let mut ctx = AgentCtx::new(&id, "root-ct", 0, &mut outbox, &mut df);
        root.on_message(&data_ready_msg(&[("cpu", 1)]), &mut ctx);
        drop(ctx);
        assert_eq!(fstats.lock().spilled_out, 1);
        let spill = outbox.last().unwrap();
        assert_eq!(spill.receivers(), [AgentId::new("pg-root-s1@g")]);
        let (origin, task) = federation::parse_spill(spill.content()).unwrap();
        assert_eq!(origin, 0);
        assert_eq!(task.task_id, "s0-t1", "shard-qualified id");
        // Still outstanding at the origin — a lost spill is visible.
        assert_eq!(stats.lock().outstanding, ["s0-t1"]);
        assert_eq!(stats.lock().created, 1);

        // The peer's completion report closes it exactly once, even
        // when the reliability layer duplicates it.
        let done = AclMessage::builder(Performative::Inform)
            .sender(AgentId::new("pg-root-s1@g"))
            .receiver(id.clone())
            .content(federation::spill_done_content("s0-t1"))
            .build()
            .unwrap();
        for _ in 0..2 {
            let mut ctx = AgentCtx::new(&id, "root-ct", 0, &mut outbox, &mut df);
            root.on_message(&done, &mut ctx);
        }
        assert_eq!(fstats.lock().spill_completed, 1);
        assert!(stats.lock().outstanding.is_empty());
        assert_eq!(stats.lock().completed, 0, "completion counts at the peer");
    }

    #[test]
    fn spilled_in_task_runs_locally_and_reports_home() {
        let mut root = ProcessorRootAgent::new(Box::new(KnowledgeCapacityIdle));
        let (_store, fstats) = federate(&mut root, 1, &[(0, "pg-root-s0@g")]);
        let stats = root.stats_handle();
        let id = AgentId::new("pg-root-s1@g");
        let mut outbox = Vec::new();
        let mut df = df_with_shard_containers(1, &["pg-1"]);
        let task = AnalysisTask::new("s0-t1", "cpu", "cpu", 1, 1);
        let spill = AclMessage::builder(Performative::Request)
            .sender(AgentId::new("pg-root-s0@g"))
            .receiver(id.clone())
            .content(federation::spill_content(0, &task))
            .build()
            .unwrap();
        // A duplicated spill runs once.
        for _ in 0..2 {
            let mut ctx = AgentCtx::new(&id, "root-ct", 0, &mut outbox, &mut df);
            root.on_message(&spill, &mut ctx);
        }
        assert_eq!(fstats.lock().spilled_in, 1);
        assert_eq!(stats.lock().assignments, [("s0-t1".into(), "pg-1".into())]);
        assert_eq!(stats.lock().created, 0, "created counts at the origin");

        let done = done_msg("s0-t1", "analyzer-pg-1@g", &id);
        let mut ctx = AgentCtx::new(&id, "root-ct", 0, &mut outbox, &mut df);
        root.on_message(&done, &mut ctx);
        drop(ctx);
        assert_eq!(stats.lock().completed, 1, "the running shard owns it");
        let report = outbox.last().unwrap();
        assert_eq!(report.receivers(), [AgentId::new("pg-root-s0@g")]);
        assert_eq!(
            federation::parse_spill_done(report.content()),
            Some("s0-t1")
        );
    }

    #[test]
    fn spill_targets_the_least_loaded_peer_from_gossip() {
        let mut root = ProcessorRootAgent::new(Box::new(KnowledgeCapacityIdle));
        federate(&mut root, 0, &[(1, "pg-root-s1@g"), (2, "pg-root-s2@g")]);
        let id = AgentId::new("pg-root-s0@g");
        let mut outbox = Vec::new();
        let mut df = DirectoryFacilitator::new();
        for (shard, peer, load) in [(1usize, "pg-root-s1@g", 900), (2, "pg-root-s2@g", 50)] {
            let digest = LoadDigest {
                shard,
                load_milli: load,
                outstanding: 0,
            };
            let msg = AclMessage::builder(Performative::Inform)
                .sender(AgentId::new(peer))
                .receiver(id.clone())
                .content(digest.to_content())
                .build()
                .unwrap();
            let mut ctx = AgentCtx::new(&id, "root-ct", 0, &mut outbox, &mut df);
            root.on_message(&msg, &mut ctx);
        }
        let mut ctx = AgentCtx::new(&id, "root-ct", 0, &mut outbox, &mut df);
        root.on_message(&data_ready_msg(&[("cpu", 1)]), &mut ctx);
        drop(ctx);
        assert_eq!(
            outbox.last().unwrap().receivers(),
            [AgentId::new("pg-root-s2@g")],
            "gossip steers the spill to the lighter shard"
        );
    }

    #[test]
    fn fed_summary_injects_aliased_records_once() {
        let mut root = ProcessorRootAgent::new(Box::new(KnowledgeCapacityIdle));
        let (store, fstats) = federate(&mut root, 0, &[(1, "pg-root-s1@g")]);
        let id = AgentId::new("pg-root-s0@g");
        let mut outbox = Vec::new();
        let mut df = DirectoryFacilitator::new();
        let findings = vec![("site-1-dev0".to_owned(), "cpu.load.1".to_owned(), 97.0)];
        let msg = AclMessage::builder(Performative::Inform)
            .sender(AgentId::new("pg-root-s1@g"))
            .receiver(id.clone())
            .content(federation::summary_content(1, 60_000, &findings))
            .build()
            .unwrap();
        // The second delivery carries the same timestamp: stale, dropped.
        for _ in 0..2 {
            let mut ctx = AgentCtx::new(&id, "root-ct", 60_000, &mut outbox, &mut df);
            root.on_message(&msg, &mut ctx);
        }
        assert_eq!(fstats.lock().summaries_received, 1);
        assert_eq!(fstats.lock().injected_findings, 1);
        assert_eq!(
            store.lock().latest("fed-s1:site-1-dev0", "cpu.load.1"),
            Some((60_000, 97.0)),
            "peer finding lands under the federation alias"
        );
    }

    /// The digest goes out with the round's sweep, once per round and
    /// after the round's awards were charged, so it carries their load.
    #[test]
    fn tick_gossips_a_load_digest_to_every_peer() {
        let mut root = ProcessorRootAgent::new(Box::new(KnowledgeCapacityIdle));
        federate(&mut root, 2, &[(0, "pg-root-s0@g"), (1, "pg-root-s1@g")]);
        let id = AgentId::new("pg-root-s2@g");
        let mut outbox = Vec::new();
        let mut df = df_with_shard_containers(2, &["pg-1"]);
        let digests = |outbox: &[SharedMessage]| -> Vec<LoadDigest> {
            outbox
                .iter()
                .filter_map(|m| LoadDigest::parse(m.content()))
                .collect()
        };
        // A tick without a round gossips nothing.
        beat_and_tick(&mut root, 0, &mut outbox, &mut df);
        assert!(digests(&outbox).is_empty());
        let mut ctx = AgentCtx::new(&id, "root-ct", 60_000, &mut outbox, &mut df);
        root.on_message(&data_ready_msg(&[("cpu", 250)]), &mut ctx);
        drop(ctx);
        for _ in 0..2 {
            beat_and_tick(&mut root, 60_000, &mut outbox, &mut df);
        }
        let sent = digests(&outbox);
        assert_eq!(sent.len(), 2, "one digest per peer, once per round");
        assert_eq!(
            sent[0],
            LoadDigest {
                shard: 2,
                load_milli: 250,
                outstanding: 2
            },
            "the site task's 250 records and the sweep are in the digest"
        );
    }

    #[test]
    fn dead_container_triggers_reassignment() {
        let mut root = ProcessorRootAgent::new(Box::new(KnowledgeCapacityIdle));
        let stats = root.stats_handle();
        let id = AgentId::new("pg-root@g");
        let mut outbox = Vec::new();
        let mut df = df_with_containers(&["pg-1", "pg-2"]);
        // Force assignment to pg-1 by overloading pg-2.
        df.charge("pg-2", 990);
        let mut ctx = AgentCtx::new(&id, "root-ct", 0, &mut outbox, &mut df);
        root.on_message(&data_ready_msg(&[("cpu", 1)]), &mut ctx);
        drop(ctx);
        assert_eq!(stats.lock().assignments[0].1, "pg-1");
        // pg-1 leaves the directory before reporting done.
        df.deregister_container("pg-1");
        df.close_window();
        // The first tick reclaims and re-brokers its task, silently.
        beat_and_tick(&mut root, 60_000, &mut outbox, &mut df);
        let stats = stats.lock();
        assert_eq!(stats.rebrokered.len(), 1);
        assert_eq!(stats.assignments.last().unwrap().1, "pg-2");
        assert_eq!(stats.rebrokered, ["t1"]);
        assert_eq!(stats.escalations, 0, "an orderly removal raises no alert");
    }
}
