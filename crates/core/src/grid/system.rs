use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use agentgrid_acl::ontology::{Alert, ResourceProfile};
use agentgrid_acl::{AclMessage, AgentId, Performative, Value};
use agentgrid_net::{FaultInjector, Network, ScheduledFault};
use agentgrid_platform::{
    NetCommand, NetStats, Platform, PoolRuntime, ReliabilityConfig, Runtime, TelemetryHandle,
};
use agentgrid_rules::{parse_rules, KnowledgeBase};
use agentgrid_store::{Classifier, ManagementStore};
use agentgrid_telemetry::{EventKind, TaskLatencySummary};
use parking_lot::Mutex;

use crate::balance::{KnowledgeCapacityIdle, LoadBalancer};
use crate::chaos::{ChaosAction, ChaosPlan};
use crate::federation::{self, FederationStats};
use crate::grid::interface::AlertSink;
use crate::grid::root::{FederationLink, RootStats};
use crate::grid::{
    AnalyzerAgent, ClassifierAgent, CollectorAgent, CollectorInterface, InterfaceAgent, Ledger,
    ProcessorRootAgent, DEFAULT_RULES,
};
use crate::overload::{OverloadConfig, PressureSignal};
use crate::recovery::RecoveryConfig;

pub use agentgrid_platform::OverloadStats;

/// Name of the agent platform a grid builds on. Agent ids are a pure
/// function of local name and platform name, so the wiring can compute
/// every peer root's id before any root is spawned.
const PLATFORM_NAME: &str = "grid";

/// How long a healed container stays quarantined (Suspect) after its
/// partition closes — one poll period, covering the heartbeat and
/// retransmissions it owes before awards may trust it again.
const QUARANTINE_GRACE_MS: u64 = 60_000;

/// Containers listed in `groups` that sit in a different group than
/// `anchor` — the set a partition cuts off from it. Empty when `anchor`
/// is not listed, matching the transport's partition semantics
/// (unlisted containers communicate freely).
fn containers_cut_from(anchor: &str, groups: &[Vec<String>]) -> Vec<String> {
    let Some(anchor_group) = groups.iter().position(|g| g.iter().any(|c| c == anchor)) else {
        return Vec::new();
    };
    groups
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != anchor_group)
        .flat_map(|(_, g)| g.iter().cloned())
        .collect()
}

/// Configuration of one analyzer container.
#[derive(Debug, Clone)]
struct AnalyzerSpec {
    name: String,
    cpu_capacity: f64,
    skills: Vec<String>,
}

/// Container and agent names of one shard's root and classifier: the
/// classic single-domain names for a one-shard grid, shard-suffixed
/// ones when the grid is federated.
struct ShardNames {
    root_container: String,
    root_agent: String,
    classifier_container: String,
    classifier_agent: String,
}

impl ShardNames {
    fn of(shard: usize, shards: usize) -> Self {
        if shards == 1 {
            ShardNames {
                root_container: "pg-root-ct".to_owned(),
                root_agent: "pg-root".to_owned(),
                classifier_container: "clg".to_owned(),
                classifier_agent: "classifier".to_owned(),
            }
        } else {
            ShardNames {
                root_container: format!("pg-root-s{shard}"),
                root_agent: format!("pg-root-s{shard}"),
                classifier_container: format!("clg-s{shard}"),
                classifier_agent: format!("classifier-s{shard}"),
            }
        }
    }
}

/// One domain of a built grid — a one-shard grid has exactly one.
struct Shard {
    network: Arc<Mutex<Network>>,
    store: Arc<Mutex<ManagementStore>>,
    root_stats: Arc<Mutex<RootStats>>,
    /// Federation counters (stay zero when the grid has one shard).
    federation: Arc<Mutex<FederationStats>>,
    root_container: String,
    /// The shard-scoped directory service this shard's root brokers
    /// over; `None` when there are no peers and it brokers over the
    /// global `"analysis"`.
    service: Option<String>,
    /// The analyzer containers dealt to this shard, kept for chaos
    /// restarts.
    analyzers: Vec<AnalyzerSpec>,
}

/// Spawns a fresh analyzer for `spec` into its (already added)
/// container against `shard`'s store and lists it in the directory:
/// under the global `"analysis"` service, which interface-grid rule
/// broadcasts reach, and under the shard's own service when federated.
fn spawn_analyzer<R: Runtime>(
    platform: &mut R,
    spec: &AnalyzerSpec,
    shard: &Shard,
    kb: &Arc<KnowledgeBase>,
    interface_id: &AgentId,
    match_attempts: &Arc<AtomicU64>,
) {
    let analyzer = AnalyzerAgent::shared(
        Arc::clone(&shard.store),
        Arc::clone(kb),
        interface_id.clone(),
    )
    .with_match_counter(Arc::clone(match_attempts));
    let analyzer_id = platform
        .spawn_agent(&spec.name, &format!("analyzer-{}", spec.name), analyzer)
        .expect("container just added");
    let profile = ResourceProfile::new(
        &spec.name,
        spec.cpu_capacity,
        1.0,
        4096,
        spec.skills.iter().cloned(),
    );
    platform.with_df(|df| {
        df.register_container(profile);
        df.register_service(analyzer_id.clone(), "analysis", [spec.name.clone()]);
        if let Some(service) = &shard.service {
            df.register_service(analyzer_id, service.clone(), [spec.name.clone()]);
        }
    });
}

/// Builder for [`ManagementGrid`] (see [`ManagementGrid::builder`]).
pub struct GridBuilder {
    network: Network,
    poll_period_ms: u64,
    collectors_per_site: usize,
    analyzers: Vec<AnalyzerSpec>,
    policy: Box<dyn LoadBalancer>,
    rules: String,
    faults: FaultInjector,
    telemetry: Option<TelemetryHandle>,
    recovery: RecoveryConfig,
    chaos: Option<ChaosPlan>,
    overload: Option<OverloadConfig>,
    net_seed: Option<u64>,
    reliability: Option<ReliabilityConfig>,
    shards: usize,
}

impl fmt::Debug for GridBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GridBuilder")
            .field("poll_period_ms", &self.poll_period_ms)
            .field("collectors_per_site", &self.collectors_per_site)
            .field("analyzers", &self.analyzers.len())
            .finish()
    }
}

impl GridBuilder {
    /// Sets the simulated network to manage (required).
    pub fn network(mut self, network: Network) -> Self {
        self.network = network;
        self
    }

    /// Sets the collectors' poll period in simulated milliseconds
    /// (default 60 000).
    pub fn poll_period_ms(mut self, period: u64) -> Self {
        self.poll_period_ms = period;
        self
    }

    /// Sets how many collector agents each site gets (default 1). They
    /// split the site's devices and alternate SNMP/CLI interfaces.
    ///
    /// # Panics
    ///
    /// Panics if zero.
    pub fn collectors_per_site(mut self, collectors: usize) -> Self {
        assert!(collectors > 0, "need at least one collector per site");
        self.collectors_per_site = collectors;
        self
    }

    /// Adds an analyzer container with a CPU capacity factor and the
    /// analysis skills (partitions) it can process.
    pub fn analyzer(
        mut self,
        name: impl Into<String>,
        cpu_capacity: f64,
        skills: impl IntoIterator<Item = impl Into<String>>,
    ) -> Self {
        self.analyzers.push(AnalyzerSpec {
            name: name.into(),
            cpu_capacity,
            skills: skills.into_iter().map(Into::into).collect(),
        });
        self
    }

    /// Replaces the load-balancing policy (default
    /// [`KnowledgeCapacityIdle`]).
    pub fn policy(mut self, policy: impl LoadBalancer + 'static) -> Self {
        self.policy = Box::new(policy);
        self
    }

    /// Replaces the analysis rules (default [`DEFAULT_RULES`]).
    pub fn rules(mut self, rules: impl Into<String>) -> Self {
        self.rules = rules.into();
        self
    }

    /// Schedules a fault on the managed network.
    pub fn fault(mut self, fault: ScheduledFault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Attaches a telemetry sink: the runtime records per-container
    /// metrics and conversation traces into it, the root exports broker
    /// counters, and each container is mapped onto its grid stage
    /// (collector, classifier, root, analyzer, interface).
    pub fn telemetry(mut self, telemetry: TelemetryHandle) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Replaces the recovery layer's configuration (default
    /// [`RecoveryConfig::default`]). The layer is always on: heartbeat
    /// liveness, deadline retries with seeded backoff, reclaim and
    /// re-broker of departed or dead containers' tasks, collector poll
    /// retries and requeue-once dead letters. The default liveness
    /// thresholds assume the canonical 60 s tick.
    pub fn recovery(mut self, config: RecoveryConfig) -> Self {
        self.recovery = config;
        self
    }

    /// Attaches a chaos schedule: container crashes/restarts and
    /// network-adversary windows applied at the top of each tick.
    pub fn chaos(mut self, plan: ChaosPlan) -> Self {
        self.chaos = Some(plan);
        self
    }

    /// Turns on the overload-protection layer ([`OverloadConfig`]):
    /// bounded mailboxes with priority shedding, root admission
    /// control, per-container circuit breakers and collector pacing —
    /// each mechanism individually opt-in inside the config. A breaker's
    /// failure signal is the recovery layer's award deadlines. Default
    /// off, keeping unconfigured runs byte-for-byte identical to the
    /// unprotected grid.
    pub fn overload(mut self, config: OverloadConfig) -> Self {
        self.overload = Some(config);
        self
    }

    /// Seeds the deterministic network adversary. Link faults and
    /// partitions scheduled through [`chaos`](Self::chaos) (or issued
    /// live via [`Runtime::net_command`]) draw every drop/delay/
    /// duplicate decision from this seed, so two runs with the same
    /// seed and schedule misbehave identically. Default off — without a
    /// seed (and without net chaos actions) runs stay byte-for-byte
    /// identical to the adversary-free grid.
    pub fn net_adversary(mut self, seed: u64) -> Self {
        self.net_seed = Some(seed);
        self
    }

    /// Turns on reliable ACL delivery: per-link sequence numbers, a
    /// retransmit buffer with seeded exponential backoff, and a dedup
    /// window giving exactly-once *effective* delivery under loss,
    /// duplication and partitions. Implies nothing by itself — pair it
    /// with [`net_adversary`](Self::net_adversary) and a chaos plan to
    /// exercise it. Default off.
    pub fn reliability(mut self, config: ReliabilityConfig) -> Self {
        self.reliability = Some(config);
        self
    }

    /// Splits the grid into `n` federated peer shards (domain
    /// partitioning). Sites are dealt round-robin over the shards
    /// ([`federation::shard_of_site`]); each shard gets its own root,
    /// classifier, store, network domain and a round-robin subset of
    /// the analyzer containers — same total capacity as the unsharded
    /// grid — and the roots cooperate through the
    /// [`federation`](crate::federation) protocol: per-tick load
    /// gossip, task spill-over on admission rejection or broker
    /// failure, and cross-domain finding summaries on the correlation
    /// cadence. On the pool runtime each shard's pipeline stages tick
    /// as one parallel group, so shards run concurrently — the source
    /// of the near-linear device-count scaling.
    ///
    /// `1` (the default) is a federation of one: the same wiring, with
    /// the federation protocol attached only when a root has peers, so
    /// a one-shard grid keeps the classic names and task ids.
    ///
    /// # Panics
    ///
    /// `build*` panics if fewer analyzer containers than shards were
    /// configured.
    pub fn shards(mut self, shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        self.shards = shards;
        self
    }

    /// Builds and wires the grid on the deterministic stepper (the
    /// default runtime: reproducible runs, ideal for tests and
    /// experiments).
    ///
    /// # Panics
    ///
    /// Panics if the rule text does not parse or no analyzer container
    /// was configured.
    pub fn build(self) -> ManagementGrid {
        self.build_on::<Platform>()
    }

    /// Builds and wires the grid on the work-stealing pool runtime:
    /// collector containers (the wide, independent tier) tick on a
    /// stolen-batch thread pool while the narrow pipeline stages stay
    /// sequential. Reports are byte-identical to [`build`](Self::build)
    /// — the pool trades wall-clock time, never determinism.
    ///
    /// # Panics
    ///
    /// As [`build`](Self::build).
    pub fn build_pool(self) -> ManagementGrid<PoolRuntime> {
        self.build_on::<PoolRuntime>()
    }

    /// Builds and wires the grid on any [`Runtime`]. The wiring — and
    /// all agent code — is identical across runtimes; only the execution
    /// model differs. One loop wires every shard (root, analyzer subset,
    /// classifier, site collectors) around a shared interface grid,
    /// whatever the shard count.
    ///
    /// # Panics
    ///
    /// As [`build`](Self::build).
    pub fn build_on<R: Runtime>(self) -> ManagementGrid<R> {
        let shards = self.shards;
        assert!(
            !self.analyzers.is_empty(),
            "configure at least one analyzer container"
        );
        assert!(
            self.analyzers.len() >= shards,
            "need at least one analyzer container per shard"
        );
        // One compiled knowledge base, shared by every analyzer (and kept
        // for chaos restarts); analyzers copy-on-write if they learn.
        let kb = Arc::new(KnowledgeBase::from_rules(
            parse_rules(&self.rules).expect("analysis rules must parse"),
        ));
        let overload = self.overload.unwrap_or_default();

        // Partition the managed network by site: shard 0 keeps the
        // original `Network` value, peers split off their sites.
        let mut network = self.network;
        let mut shard_sites: Vec<Vec<String>> = vec![Vec::new(); shards];
        for (i, site) in network.sites().enumerate() {
            shard_sites[federation::shard_of_site(i, shards)].push(site.name().to_owned());
        }
        let peer_networks: Vec<Network> = shard_sites[1..]
            .iter()
            .map(|sites| network.split_sites(&sites.iter().map(String::as_str).collect::<Vec<_>>()))
            .collect();
        let networks = std::iter::once(network).chain(peer_networks);

        let alerts = AlertSink::default();
        let mut platform = R::create(PLATFORM_NAME);
        platform.set_dead_letter_requeue(true);
        if let Some(seed) = self.net_seed {
            platform.net_command(NetCommand::Seed(seed));
        }
        if let Some(config) = self.reliability {
            platform.net_command(NetCommand::SetReliability(config));
        }
        // Bounded mailboxes at the platform layer; the pressure signal
        // exists only when collector pacing wants to observe it.
        let pressure = overload
            .mailbox
            .filter(|_| overload.collector_pacing)
            .map(|_| Arc::new(PressureSignal::new()));
        if let Some(mailbox) = overload.mailbox {
            platform.set_overload(mailbox, pressure.clone());
        }
        let paced_polls = Arc::new(AtomicU64::new(0));
        let match_attempts = Arc::new(AtomicU64::new(0));
        if let Some(telemetry) = &self.telemetry {
            platform.set_telemetry(Arc::clone(telemetry));
            telemetry.set_stage("ig", "interface");
        }

        // One shared interface grid: every shard's alerts and
        // escalations land in a single operator-facing place.
        platform.add_container("ig");
        let interface_id = platform
            .spawn_agent("ig", "interface", InterfaceAgent::new(Arc::clone(&alerts)))
            .expect("fresh platform");

        // Peer root ids are computable before any root spawns: agent
        // ids are a pure function of local and platform name.
        let root_ids: Vec<AgentId> = (0..shards)
            .map(|s| AgentId::with_platform(ShardNames::of(s, shards).root_agent, PLATFORM_NAME))
            .collect();
        let quarantine: Arc<Mutex<BTreeMap<String, u64>>> = Arc::new(Mutex::new(BTreeMap::new()));
        let mut grid_shards = Vec::with_capacity(shards);

        for (s, network) in networks.enumerate() {
            let names = ShardNames::of(s, shards);
            // Analyzer containers are dealt round-robin, so the
            // federation runs on exactly the configured capacity.
            let analyzers: Vec<AnalyzerSpec> = self
                .analyzers
                .iter()
                .skip(s)
                .step_by(shards)
                .cloned()
                .collect();
            if let Some(telemetry) = &self.telemetry {
                telemetry.set_stage(&names.root_container, "root");
                telemetry.set_stage(&names.classifier_container, "classifier");
                for spec in &analyzers {
                    telemetry.set_stage(&spec.name, "analyzer");
                }
            }
            // Root, classifier and analyzers of one shard form a
            // dependent pipeline; as one named group they tick
            // internally in order but concurrently with other shards
            // on the pool runtime.
            let group = format!("shard-{s}");
            let store = Arc::new(Mutex::new(ManagementStore::new(Classifier::standard())));
            platform.add_container(&names.root_container);
            platform.hint_parallel_group(&group, &names.root_container);
            let mut root_agent = ProcessorRootAgent::new(self.policy.boxed_clone());
            if let Some(telemetry) = &self.telemetry {
                root_agent.attach_telemetry(telemetry);
            }
            root_agent.set_recovery(self.recovery, Some(interface_id.clone()));
            root_agent.set_quarantine(Arc::clone(&quarantine));
            if overload.admission.is_some() || overload.breaker.is_some() {
                root_agent.set_overload(overload.admission, overload.breaker);
            }
            let federation_stats = Arc::new(Mutex::new(FederationStats::default()));
            // The federation protocol's on-switch: a root joins only
            // when it has peers, so a one-shard grid keeps its plain
            // task ids and the global broker scope.
            let service = (shards > 1).then(|| federation::shard_service(s));
            if let Some(service) = &service {
                root_agent.set_federation(FederationLink {
                    shard: s,
                    peers: root_ids
                        .iter()
                        .enumerate()
                        .filter(|(p, _)| *p != s)
                        .map(|(p, id)| (p, id.clone()))
                        .collect(),
                    service: service.clone(),
                    store: Arc::clone(&store),
                    stats: Arc::clone(&federation_stats),
                });
            }
            let shard = Shard {
                network: Arc::new(Mutex::new(network)),
                store,
                root_stats: root_agent.stats_handle(),
                federation: federation_stats,
                root_container: names.root_container.clone(),
                service,
                analyzers,
            };
            let root_id = platform
                .spawn_agent(&names.root_container, &names.root_agent, root_agent)
                .expect("container just added");
            debug_assert_eq!(root_id, root_ids[s], "precomputed root ids must match");

            for spec in &shard.analyzers {
                platform.add_container(&spec.name);
                platform.hint_parallel_group(&group, &spec.name);
                spawn_analyzer(
                    &mut platform,
                    spec,
                    &shard,
                    &kb,
                    &interface_id,
                    &match_attempts,
                );
            }

            platform.add_container(&names.classifier_container);
            platform.hint_parallel_group(&group, &names.classifier_container);
            let classifier_id = platform
                .spawn_agent(
                    &names.classifier_container,
                    &names.classifier_agent,
                    ClassifierAgent::new(Arc::clone(&shard.store), root_id),
                )
                .expect("container just added");

            // Collector grid: one container per site of the shard's
            // network domain; devices split among the site's
            // collectors, interfaces alternating SNMP/CLI.
            let sites: Vec<(String, Vec<String>)> = {
                let net = shard.network.lock();
                net.sites()
                    .map(|site| (site.name().to_owned(), site.device_names().to_vec()))
                    .collect()
            };
            for (site, devices) in &sites {
                let container = format!("cg-{site}");
                if let Some(telemetry) = &self.telemetry {
                    telemetry.set_stage(&container, "collector");
                }
                platform.add_container(&container);
                // Collector containers only poll devices and forward
                // samples — no cross-container state — so they are safe
                // to tick concurrently on the pool runtime. A no-op
                // elsewhere.
                platform.hint_parallel(&container);
                for c in 0..self.collectors_per_site {
                    let assigned: Vec<String> = devices
                        .iter()
                        .skip(c)
                        .step_by(self.collectors_per_site)
                        .cloned()
                        .collect();
                    if assigned.is_empty() {
                        continue;
                    }
                    let interface = if c % 2 == 0 {
                        CollectorInterface::Snmp
                    } else {
                        CollectorInterface::Cli
                    };
                    let mut collector = CollectorAgent::new(
                        Arc::clone(&shard.network),
                        assigned,
                        interface,
                        self.poll_period_ms,
                        classifier_id.clone(),
                        site.clone(),
                    );
                    collector.set_backoff(self.recovery.backoff);
                    if let Some(telemetry) = &self.telemetry {
                        collector.set_retry_metric(
                            telemetry
                                .registry()
                                .counter("agentgrid_retries_total", &[("component", "collector")]),
                        );
                    }
                    if let Some(signal) = &pressure {
                        collector.set_pacing(Arc::clone(signal), Arc::clone(&paced_polls));
                    }
                    platform
                        .spawn_agent(&container, &format!("cg-{site}-{c}"), collector)
                        .expect("container just added");
                }
            }
            grid_shards.push(shard);
        }

        ManagementGrid {
            platform,
            shards: grid_shards,
            alerts,
            injector: self.faults,
            interface_id,
            ticks: 0,
            kb,
            chaos: self.chaos.unwrap_or_default(),
            chaos_cursor: 0,
            downed: BTreeSet::new(),
            quarantine,
            partition_members: BTreeMap::new(),
            paced_polls,
            match_attempts,
        }
    }
}

/// Summary of one grid run — what the interface grid would render for
/// the operator, plus internal accounting for tests and benchmarks.
///
/// Two runs are the same run exactly when their reports are equal (`==`
/// compares every field, the award log and completion order included);
/// [`audit`](GridReport::audit) checks the invariants every run must
/// keep.
///
/// A report is a snapshot. Its alert, award, completion and
/// re-brokering logs are [`Ledger`]s that share their sealed chunks with
/// the grid's own logs, so building, cloning or dropping a report costs
/// O(chunks), not O(history), and a report kept while the grid runs on
/// does not change.
#[derive(Debug, Clone, PartialEq)]
pub struct GridReport {
    /// Simulated duration covered.
    pub duration_ms: u64,
    /// Alerts raised, in order.
    pub alerts: Ledger<Alert>,
    /// Points in the management store at the end.
    pub records_stored: usize,
    /// ACL messages delivered.
    pub messages_delivered: u64,
    /// Messages that could not be delivered.
    pub dead_letters: usize,
    /// `(task, container)` assignment log.
    pub assignments: Ledger<(String, String)>,
    /// Tasks completed.
    pub tasks_completed: u64,
    /// Ids of completed tasks, in completion order.
    pub completed_ids: Ledger<String>,
    /// Ids of tasks re-awarded through a fresh brokering round (once per
    /// re-award).
    pub rebrokered: Ledger<String>,
    /// Deadline-driven broker retries sent.
    pub retries: u64,
    /// Retry-exhaustion / container-death escalations raised.
    pub escalations: u64,
    /// Ids still in flight or parked at the root when the run ended —
    /// owed a completion, not lost.
    pub outstanding: Vec<String>,
    /// Messages shed by the bounded-mailbox overflow policy (overload
    /// mode; all classes combined).
    pub shed: u64,
    /// Task awards turned away by the root's admission gate (overload
    /// mode).
    pub rejected: u64,
    /// Collector polls whose interval was stretched under downstream
    /// pressure (overload mode).
    pub paced_polls: u64,
    /// End-to-end task-latency percentiles (observation → done, in
    /// simulated time), present only when telemetry is attached and at
    /// least one task span completed.
    pub task_latency: Option<TaskLatencySummary>,
    /// Network-adversary and reliability counters (drops, delays,
    /// duplicates, retransmits, dedup suppressions); `None` unless a
    /// net adversary, the reliability protocol or a chaos window on the
    /// network (a drop window included) was configured.
    pub net: Option<NetStats>,
    /// Number of federated domain shards the grid ran as (1 = the
    /// classic single-domain grid).
    pub shards: usize,
    /// Tasks the roots created from `data-ready` notifications. A
    /// spilled task counts at its origin shard only, so this counts
    /// every task in the federation exactly once.
    pub tasks_created: u64,
    /// Tasks created per shard, in shard order (one entry for a
    /// one-shard grid).
    pub shard_created: Vec<u64>,
    /// Federation counters summed over the shards (all zero unsharded).
    pub federation: FederationStats,
}

/// One broken grid invariant, as found by [`GridReport::audit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// Created minus completed minus outstanding is not zero (see
    /// [`GridReport::unaccounted_tasks`]).
    Unaccounted(i64),
    /// An assigned task neither completed nor still tracked.
    Lost(String),
    /// `(task, awards, re-brokerings)`: a task awarded other than once
    /// plus once per logged re-brokering.
    Awards(String, usize, usize),
    /// A task id listed twice in the completion log.
    CompletedTwice(String),
    /// `(ids, tasks_completed)`: the completion log's length differs
    /// from the completion counter.
    CompletionCount(usize, u64),
    /// `(sum, tasks_created)`: the per-shard creation counts do not sum
    /// to the federation's total.
    ShardCreated(u64, u64),
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Unaccounted(n) => write!(f, "{n} task(s) unaccounted for"),
            Violation::Lost(task) => write!(f, "task {task} lost"),
            Violation::Awards(task, awards, rebrokered) => {
                write!(
                    f,
                    "task {task} awarded {awards} time(s) for {rebrokered} re-brokering(s)"
                )
            }
            Violation::CompletedTwice(task) => write!(f, "task {task} completed twice"),
            Violation::CompletionCount(ids, counted) => {
                write!(f, "{ids} completion id(s) for {counted} completion(s)")
            }
            Violation::ShardCreated(sum, created) => {
                write!(f, "shards created {sum} task(s), report says {created}")
            }
        }
    }
}

impl GridReport {
    /// Checks the invariants every run keeps, whatever its chaos,
    /// overload or sharding, and returns each one broken (empty for a
    /// sound run):
    ///
    /// * conservation — [`unaccounted_tasks`](Self::unaccounted_tasks)
    ///   is zero and no task is [lost](Self::lost_tasks);
    /// * exactly-once awards — every task id is awarded once plus once per
    ///   re-brokering;
    /// * exactly-once completion — no id completes twice, and the
    ///   completion log matches the counter;
    /// * the per-shard creation counts sum to `tasks_created`.
    pub fn audit(&self) -> Vec<Violation> {
        let mut found = Vec::new();
        let unaccounted = self.unaccounted_tasks();
        if unaccounted != 0 {
            found.push(Violation::Unaccounted(unaccounted));
        }
        let lost = self.lost_tasks().into_iter();
        found.extend(lost.map(|id| Violation::Lost(id.to_owned())));
        let mut logs: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
        for (id, _) in &self.assignments {
            logs.entry(id).or_default().0 += 1;
        }
        for id in &self.rebrokered {
            logs.entry(id).or_default().1 += 1;
        }
        for (task, (awards, rebrokered)) in logs {
            if awards != 1 + rebrokered {
                found.push(Violation::Awards(task.to_owned(), awards, rebrokered));
            }
        }
        let mut completed = BTreeSet::new();
        for id in &self.completed_ids {
            if !completed.insert(id) {
                found.push(Violation::CompletedTwice(id.clone()));
            }
        }
        let ids = self.completed_ids.len();
        if ids as u64 != self.tasks_completed {
            found.push(Violation::CompletionCount(ids, self.tasks_completed));
        }
        let sum = self.shard_created.iter().sum();
        if sum != self.tasks_created {
            found.push(Violation::ShardCreated(sum, self.tasks_created));
        }
        found
    }

    /// Task ids that were assigned, never completed, and are no longer
    /// tracked anywhere — permanently lost work. The recovery layer
    /// must keep this empty under any chaos plan.
    pub fn lost_tasks(&self) -> Vec<&str> {
        let completed: BTreeSet<&str> = self.completed_ids.iter().map(String::as_str).collect();
        let outstanding: BTreeSet<&str> = self.outstanding.iter().map(String::as_str).collect();
        let mut lost = Vec::new();
        let mut seen = BTreeSet::new();
        for (id, _) in &self.assignments {
            if seen.insert(id.as_str())
                && !completed.contains(id.as_str())
                && !outstanding.contains(id.as_str())
            {
                lost.push(id.as_str());
            }
        }
        lost
    }

    /// Created minus completed minus still-outstanding, federation-wide
    /// (a task spilled mid-flight sits in two shards' outstanding sets,
    /// hence the dedup). Positive means tasks vanished, negative means
    /// something was double-counted; any conserving run reports zero.
    pub fn unaccounted_tasks(&self) -> i64 {
        let outstanding: BTreeSet<&str> = self.outstanding.iter().map(String::as_str).collect();
        self.tasks_created as i64 - self.tasks_completed as i64 - outstanding.len() as i64
    }

    /// Tasks per container, for balance inspection.
    pub fn tasks_per_container(&self) -> BTreeMap<&str, usize> {
        let mut out = BTreeMap::new();
        for (_, container) in &self.assignments {
            *out.entry(container.as_str()).or_insert(0) += 1;
        }
        out
    }

    /// Renders a human-readable summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "grid run over {} ms: {} records stored, {} messages, {} tasks \
             ({} completed, {} reassigned), {} alerts\n",
            self.duration_ms,
            self.records_stored,
            self.messages_delivered,
            self.assignments.len(),
            self.tasks_completed,
            self.rebrokered.len(),
            self.alerts.len(),
        ));
        for (container, tasks) in self.tasks_per_container() {
            out.push_str(&format!("  {container}: {tasks} tasks\n"));
        }
        if self.retries + self.escalations > 0 || !self.rebrokered.is_empty() {
            out.push_str(&format!(
                "  recovery: {} retries, {} re-brokered, {} escalations\n",
                self.retries,
                self.rebrokered.len(),
                self.escalations,
            ));
        }
        if self.shed + self.rejected + self.paced_polls > 0 {
            out.push_str(&format!(
                "  overload: {} shed, {} rejected, {} paced polls\n",
                self.shed, self.rejected, self.paced_polls,
            ));
        }
        if self.shards > 1 || self.federation.spilled_out > 0 {
            let per_shard = self
                .shard_created
                .iter()
                .enumerate()
                .map(|(s, n)| format!("s{s} {n}"))
                .collect::<Vec<_>>()
                .join(", ");
            out.push_str(&format!(
                "  shards: {} domains, created per shard: {per_shard}\n",
                self.shards,
            ));
            out.push_str(&format!(
                "  federation: {} spilled out, {} absorbed, {} confirmed, \
                 {} summaries sent, {} received, {} findings injected\n",
                self.federation.spilled_out,
                self.federation.spilled_in,
                self.federation.spill_completed,
                self.federation.summaries_sent,
                self.federation.summaries_received,
                self.federation.injected_findings,
            ));
        }
        if let Some(net) = self.net.filter(|n| n.any()) {
            out.push_str(&format!(
                "  network: {} dropped, {} partition-dropped, {} delayed, {} duplicated, \
                 {} reordered\n",
                net.dropped, net.partition_dropped, net.delayed, net.duplicated, net.reordered,
            ));
            if net.retransmits + net.delivered_after_retry + net.dup_suppressed > 0 {
                out.push_str(&format!(
                    "  reliability: {} retransmits, {} delivered after retry, \
                     {} duplicates suppressed, {} retransmit overflows\n",
                    net.retransmits,
                    net.delivered_after_retry,
                    net.dup_suppressed,
                    net.retransmit_overflow,
                ));
            }
        }
        if let Some(lat) = &self.task_latency {
            out.push_str(&format!(
                "  task latency: p50 {} ms, p95 {} ms, p99 {} ms ({} completed spans)\n",
                lat.p50_ms, lat.p95_ms, lat.p99_ms, lat.count,
            ));
        }
        out.push_str(&InterfaceAgent::render_report(&self.alerts));
        out
    }
}

impl fmt::Display for GridReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// The complete live management grid (paper Fig. 2): simulated network,
/// platform, four agent grids and fault injection, behind one facade.
///
/// # Examples
///
/// ```
/// use agentgrid::grid::ManagementGrid;
/// use agentgrid_net::{Device, DeviceKind, Network};
///
/// let mut network = Network::new();
/// network.add_device(Device::builder("srv-1", DeviceKind::Server).site("hq").seed(1).build());
///
/// let mut grid = ManagementGrid::builder()
///     .network(network)
///     .analyzer("pg-1", 1.0, ["cpu", "disk", "memory", "interface", "process", "system", "other", "correlation"])
///     .build();
/// let report = grid.run(5 * 60_000, 60_000);
/// assert!(report.records_stored > 0);
/// ```
pub struct ManagementGrid<R: Runtime = Platform> {
    platform: R,
    /// The grid's domains in shard order (one for an unsharded grid).
    shards: Vec<Shard>,
    alerts: AlertSink,
    injector: FaultInjector,
    interface_id: AgentId,
    ticks: u64,
    /// Knowledge base shared by every analyzer, including restarted ones.
    kb: Arc<KnowledgeBase>,
    /// Scheduled chaos events, sorted by due time.
    chaos: ChaosPlan,
    /// First not-yet-applied chaos event.
    chaos_cursor: usize,
    /// Containers currently down because a chaos crash removed them (a
    /// restart only makes sense for these).
    downed: BTreeSet<String>,
    /// Partition quarantine shared with the root (container →
    /// quarantined-until, simulated ms): while quarantined a container
    /// is Suspect, never Dead — see
    /// [`ProcessorRootAgent::set_quarantine`].
    quarantine: Arc<Mutex<BTreeMap<String, u64>>>,
    /// Members of each open named partition that are cut off from their
    /// shard root's container, kept so the matching heal can start
    /// their quarantine grace period.
    partition_members: BTreeMap<String, Vec<String>>,
    /// Stretched-poll counter shared with every pacing collector.
    paced_polls: Arc<AtomicU64>,
    /// Rule-engine match attempts, totalled across every analyzer
    /// (including restarted ones) — the Table 1 inference-cost proxy.
    match_attempts: Arc<AtomicU64>,
}

impl<R: Runtime> fmt::Debug for ManagementGrid<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ManagementGrid")
            .field("containers", &self.platform.container_count())
            .field("ticks", &self.ticks)
            .finish()
    }
}

impl ManagementGrid {
    /// Starts building a grid with defaults: 60 s polls, one collector
    /// per site, [`KnowledgeCapacityIdle`] balancing, [`DEFAULT_RULES`].
    /// Finish with [`GridBuilder::build`] (deterministic),
    /// [`GridBuilder::build_pool`] or [`GridBuilder::build_on`].
    pub fn builder() -> GridBuilder {
        GridBuilder {
            network: Network::new(),
            poll_period_ms: 60_000,
            collectors_per_site: 1,
            analyzers: Vec::new(),
            policy: Box::new(KnowledgeCapacityIdle),
            rules: DEFAULT_RULES.to_owned(),
            faults: FaultInjector::default(),
            telemetry: None,
            recovery: RecoveryConfig::default(),
            chaos: None,
            overload: None,
            net_seed: None,
            reliability: None,
            shards: 1,
        }
    }
}

impl<R: Runtime> ManagementGrid<R> {
    /// Runs the grid from its current time for `duration_ms`, ticking
    /// every `tick_ms`, and returns the cumulative report.
    ///
    /// Incremental runs continue where the previous one stopped; use the
    /// same `tick_ms` across calls so simulated time advances uniformly.
    ///
    /// # Panics
    ///
    /// Panics if `tick_ms` is zero.
    pub fn run(&mut self, duration_ms: u64, tick_ms: u64) -> GridReport {
        assert!(tick_ms > 0, "tick must be positive");
        let start = self.ticks * tick_ms;
        let steps = duration_ms / tick_ms;
        for _ in 0..steps {
            let now = self.ticks * tick_ms;
            self.apply_chaos(now);
            // Every shard's domain advances under the same schedule;
            // faults naming devices in another domain are skipped. Apply
            // scheduled faults before sampling, so a fault that clears
            // at time T no longer taints the sample taken at T.
            for shard in &self.shards {
                let mut network = shard.network.lock();
                self.injector.apply(&mut network, now);
                network.tick_all(now);
            }
            // Each tick is one window of the directory's load account:
            // the records awarded in it are what the loads advertise.
            self.platform.with_df(|df| df.close_window());
            self.platform.run_until_idle(now);
            // Store-footprint gauges, only when a sink is attached —
            // unobserved runs stay byte-identical.
            if let Some(t) = self.platform.telemetry() {
                let (mut points, mut bytes, mut chunks) = (0, 0, 0);
                for shard in &self.shards {
                    let store = shard.store.lock();
                    points += store.len();
                    bytes += store.storage_bytes();
                    chunks += store.chunk_count();
                }
                let registry = t.registry();
                registry
                    .gauge("agentgrid_store_points", &[])
                    .set(points as i64);
                registry
                    .gauge("agentgrid_store_bytes", &[])
                    .set(bytes as i64);
                registry
                    .gauge("agentgrid_store_chunks", &[])
                    .set(chunks as i64);
                let per_sample = (bytes * 1000).checked_div(points).unwrap_or(0) as i64;
                // Milli-bytes per sample (integer gauge registry).
                registry
                    .gauge("agentgrid_store_bytes_per_sample_milli", &[])
                    .set(per_sample);
            }
            self.ticks += 1;
        }
        self.report(self.ticks * tick_ms - start)
    }

    /// Applies every chaos event due at or before `now`, in schedule
    /// order. Crashes are silent (stale directory entries survive);
    /// restarts rebuild the container from its original spec, fresh
    /// analyzer included, and heartbeat it immediately so the root does
    /// not re-declare it dead on sight.
    fn apply_chaos(&mut self, now: u64) {
        while self.chaos_cursor < self.chaos.events().len() {
            let (due, action) = &self.chaos.events()[self.chaos_cursor];
            if *due > now {
                break;
            }
            let action = action.clone();
            self.chaos_cursor += 1;
            match action {
                ChaosAction::Crash(name) => {
                    if self.platform.crash_container_silent(&name).is_ok() {
                        if let Some(t) = self.platform.telemetry() {
                            t.record_event(
                                now,
                                EventKind::Crash {
                                    container: name.clone(),
                                },
                            );
                        }
                        self.downed.insert(name);
                    }
                }
                ChaosAction::Restart(name) => {
                    if !self.downed.remove(&name) {
                        continue;
                    }
                    // The analyzer rejoins its own shard: that shard's
                    // store and directory service.
                    let Some((shard, spec)) = self.shards.iter().find_map(|shard| {
                        let spec = shard.analyzers.iter().find(|a| a.name == name)?;
                        Some((shard, spec))
                    }) else {
                        continue;
                    };
                    self.platform.add_container(&name);
                    spawn_analyzer(
                        &mut self.platform,
                        spec,
                        shard,
                        &self.kb,
                        &self.interface_id,
                        &self.match_attempts,
                    );
                    self.platform.with_df(|df| df.record_heartbeat(&name, now));
                    if let Some(t) = self.platform.telemetry() {
                        t.record_event(now, EventKind::Restart { container: name });
                    }
                }
                ChaosAction::LinkFaultsOpen(selector, faults) => {
                    self.platform
                        .net_command(NetCommand::AddLinkFaults(selector, faults));
                }
                ChaosAction::LinkFaultsClear(selector) => {
                    self.platform
                        .net_command(NetCommand::ClearLinkFaults(selector));
                }
                ChaosAction::PartitionOpen(name, groups) => {
                    // Analyzers in a different group than their own
                    // shard root's container cannot reach their broker:
                    // quarantine them (Suspect, not Dead) until the
                    // heal + grace.
                    let cut: Vec<String> = self
                        .shards
                        .iter()
                        .flat_map(|shard| {
                            let cut_off = containers_cut_from(&shard.root_container, &groups);
                            shard
                                .analyzers
                                .iter()
                                .filter(move |a| cut_off.contains(&a.name))
                                .map(|a| a.name.clone())
                        })
                        .collect();
                    if !cut.is_empty() {
                        let mut quarantine = self.quarantine.lock();
                        for container in &cut {
                            quarantine.insert(container.clone(), u64::MAX);
                        }
                        self.partition_members.insert(name.clone(), cut);
                    }
                    if let Some(t) = self.platform.telemetry() {
                        t.record_event(now, EventKind::PartitionOpen { name: name.clone() });
                    }
                    self.platform
                        .net_command(NetCommand::OpenPartition(name, groups));
                }
                ChaosAction::PartitionHeal(name) => {
                    if let Some(members) = self.partition_members.remove(&name) {
                        let mut quarantine = self.quarantine.lock();
                        for container in members {
                            // A container cut by another still-open
                            // partition stays fully quarantined.
                            let still_cut = self
                                .partition_members
                                .values()
                                .flatten()
                                .any(|c| *c == container);
                            if !still_cut {
                                quarantine.insert(container, now + QUARANTINE_GRACE_MS);
                            }
                        }
                    }
                    if let Some(t) = self.platform.telemetry() {
                        t.record_event(now, EventKind::PartitionHeal { name: name.clone() });
                    }
                    self.platform.net_command(NetCommand::HealPartition(name));
                }
            }
        }
    }

    fn report(&self, duration_ms: u64) -> GridReport {
        // Aggregate the shard roots in shard order.
        let mut assignments = Ledger::new();
        let mut completed = 0;
        let mut completed_ids = Ledger::new();
        let mut rebrokered = Ledger::new();
        let mut retries = 0;
        let mut escalations = 0;
        let mut rejected = 0;
        let mut outstanding = Vec::new();
        let mut shard_created = Vec::with_capacity(self.shards.len());
        let mut federation = FederationStats::default();
        let mut records_stored = 0;
        for shard in &self.shards {
            let stats = shard.root_stats.lock();
            shard_created.push(stats.created);
            assignments.extend_shared(&stats.assignments);
            completed += stats.completed;
            completed_ids.extend_shared(&stats.completed_ids);
            rebrokered.extend_shared(&stats.rebrokered);
            retries += stats.retries;
            escalations += stats.escalations;
            rejected += stats.rejected;
            outstanding.extend(stats.outstanding.iter().cloned());
            let fed = shard.federation.lock();
            federation.spilled_out += fed.spilled_out;
            federation.spilled_in += fed.spilled_in;
            federation.spill_completed += fed.spill_completed;
            federation.summaries_sent += fed.summaries_sent;
            federation.summaries_received += fed.summaries_received;
            federation.injected_findings += fed.injected_findings;
            records_stored += shard.store.lock().len();
        }
        GridReport {
            duration_ms,
            alerts: self.alerts.lock().clone(),
            records_stored,
            messages_delivered: self.platform.delivered_count(),
            dead_letters: self.platform.dead_letter_count(),
            assignments,
            tasks_completed: completed,
            completed_ids,
            rebrokered,
            retries,
            escalations,
            outstanding,
            shed: self
                .platform
                .overload_stats()
                .map(|s| s.shed_total())
                .unwrap_or(0),
            rejected,
            paced_polls: self.paced_polls.load(Ordering::Relaxed),
            task_latency: self
                .platform
                .telemetry()
                .and_then(|t| t.task_latency_summary()),
            net: self.platform.net_stats(),
            shards: self.shards.len(),
            tasks_created: shard_created.iter().sum(),
            shard_created,
            federation,
        }
    }

    /// Network-adversary and reliability counters so far; `None` unless
    /// a net adversary or reliability protocol was configured.
    pub fn net_stats(&self) -> Option<NetStats> {
        self.platform.net_stats()
    }

    /// Total rule-engine match attempts across every analyzer so far —
    /// the CPU-cost proxy behind the paper's Table 1 inference column.
    /// Deterministic for deterministic runs, so tests can pin a ceiling.
    pub fn match_attempts(&self) -> u64 {
        self.match_attempts.load(Ordering::Relaxed)
    }

    /// Posts user feedback: a new analysis rule in DSL text, distributed
    /// by the interface grid to every analyzer (§3.4).
    pub fn teach_rule(&mut self, rule_text: impl Into<String>) {
        let msg = AclMessage::builder(Performative::Request)
            .sender(AgentId::new("operator"))
            .receiver(self.interface_id.clone())
            .content(Value::map([
                ("concept", Value::symbol("learn-rule")),
                ("text", Value::from(rule_text.into())),
            ]))
            .build()
            .expect("sender and receiver are set");
        self.platform.post(msg);
    }

    /// Kills an analyzer container mid-run (crash injection). Its
    /// profile leaves the directory and outstanding tasks get
    /// re-brokered by the root.
    ///
    /// # Panics
    ///
    /// Panics if the container does not exist.
    pub fn crash_container(&mut self, name: &str) {
        self.platform
            .kill_container(name)
            .expect("container exists");
    }

    /// Read access to shard 0's management store — the whole grid's
    /// store when it has one shard.
    pub fn store(&self) -> Arc<Mutex<ManagementStore>> {
        Arc::clone(&self.shards[0].store)
    }

    /// Read access to shard 0's managed network domain — the whole
    /// managed network when the grid has one shard.
    pub fn network(&self) -> Arc<Mutex<Network>> {
        Arc::clone(&self.shards[0].network)
    }

    /// The underlying runtime (e.g. for migration experiments).
    pub fn platform_mut(&mut self) -> &mut R {
        &mut self.platform
    }

    /// A snapshot of the alerts raised so far (it shares the sink's
    /// sealed chunks and does not change as the grid runs on).
    pub fn alerts(&self) -> Ledger<Alert> {
        self.alerts.lock().clone()
    }

    /// The telemetry sink attached through
    /// [`GridBuilder::telemetry`], if any.
    pub fn telemetry(&self) -> Option<TelemetryHandle> {
        self.platform.telemetry()
    }

    /// Platform-level overload counters (shed per class, deferrals,
    /// peak mailbox backlog); `None` unless
    /// [`GridBuilder::overload`] configured bounded mailboxes.
    pub fn overload_stats(&self) -> Option<OverloadStats> {
        self.platform.overload_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agentgrid_acl::ontology::Severity;
    use agentgrid_net::{Device, DeviceKind, FaultKind};
    use agentgrid_telemetry::Telemetry;

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

    #[test]
    fn end_to_end_pipeline_stores_and_analyzes() {
        let mut grid = ManagementGrid::builder()
            .network(small_network())
            .analyzer("pg-1", 1.0, ALL_SKILLS)
            .analyzer("pg-2", 1.0, ALL_SKILLS)
            .build();
        let report = grid.run(5 * 60_000, 60_000);
        assert!(report.records_stored > 0, "collectors fed the store");
        assert!(!report.assignments.is_empty(), "root brokered tasks");
        assert_eq!(
            report.tasks_completed,
            report.assignments.len() as u64,
            "every task reported done"
        );
        assert_eq!(report.dead_letters, 0);
        assert!(report.outstanding.is_empty(), "no task left parked");
    }

    /// Each invariant catches its own planted defect in a clean report.
    #[test]
    fn audit_names_each_planted_defect() {
        let mut grid = ManagementGrid::builder()
            .network(small_network())
            .analyzer("pg-1", 1.0, ALL_SKILLS)
            .build();
        let clean = grid.run(5 * 60_000, 60_000);
        assert_eq!(clean.audit(), [], "{clean}");
        assert!(clean.rebrokered.is_empty() && clean.outstanding.is_empty());
        let task = clean.assignments.iter().next().unwrap().0.clone();
        let first_done = clean.completed_ids.iter().next().unwrap().clone();
        let done = clean.tasks_completed;
        let created = clean.tasks_created;
        let planted = |defect: fn(&mut GridReport)| {
            let mut report = clean.clone();
            defect(&mut report);
            report.audit()
        };

        assert_eq!(
            planted(|r| {
                let first = r.assignments.iter().next().unwrap().clone();
                r.assignments.push(first);
            }),
            [Violation::Awards(task.clone(), 2, 0)]
        );
        assert_eq!(
            planted(|r| {
                let first = r.completed_ids.iter().next().unwrap().clone();
                r.completed_ids.push(first);
            }),
            [
                Violation::CompletedTwice(first_done),
                Violation::CompletionCount(done as usize + 1, done),
            ]
        );
        assert_eq!(
            planted(|r| {
                let task = r.assignments.iter().next().unwrap().0.clone();
                r.completed_ids = r
                    .completed_ids
                    .iter()
                    .filter(|id| **id != task)
                    .cloned()
                    .collect();
                r.outstanding.retain(|id| *id != task);
            }),
            [
                Violation::Lost(task.clone()),
                Violation::CompletionCount(done as usize - 1, done),
            ]
        );
        assert_eq!(
            planted(|r| r.tasks_created += 1),
            [
                Violation::Unaccounted(1),
                Violation::ShardCreated(created, created + 1),
            ]
        );
        assert_eq!(
            planted(|r| r.shard_created[0] += 1),
            [Violation::ShardCreated(created + 1, created)]
        );
        assert_eq!(
            Violation::Lost(task.clone()).to_string(),
            format!("task {task} lost")
        );
    }

    #[test]
    fn cpu_fault_produces_critical_alert() {
        let mut grid = ManagementGrid::builder()
            .network(small_network())
            .analyzer("pg-1", 1.0, ALL_SKILLS)
            .fault(ScheduledFault::from("srv-0", FaultKind::CpuRunaway, 60_000))
            .build();
        let report = grid.run(6 * 60_000, 60_000);
        assert!(
            report.alerts.iter().any(|a| a.rule == "high-cpu"
                && a.device == "srv-0"
                && a.severity == Severity::Critical),
            "alerts: {:?}",
            report.alerts
        );
    }

    #[test]
    fn tasks_spread_over_both_analyzers() {
        let mut grid = ManagementGrid::builder()
            .network(small_network())
            .collectors_per_site(2)
            .analyzer("pg-1", 1.0, ALL_SKILLS)
            .analyzer("pg-2", 1.0, ALL_SKILLS)
            .build();
        let report = grid.run(10 * 60_000, 60_000);
        let per = report.tasks_per_container();
        assert!(per.get("pg-1").copied().unwrap_or(0) > 0);
        assert!(per.get("pg-2").copied().unwrap_or(0) > 0);
    }

    #[test]
    fn container_crash_is_survived() {
        let mut grid = ManagementGrid::builder()
            .network(small_network())
            .analyzer("pg-1", 4.0, ALL_SKILLS) // big capacity: wins first
            .analyzer("pg-2", 1.0, ALL_SKILLS)
            .build();
        grid.run(3 * 60_000, 60_000);
        grid.crash_container("pg-1");
        let report = grid.run(5 * 60_000, 60_000);
        // Work continues on pg-2 after the crash.
        let after_crash: Vec<&str> = report
            .assignments
            .iter()
            .rev()
            .take(3)
            .map(|(_, c)| c.as_str())
            .collect();
        assert!(after_crash.iter().all(|c| *c == "pg-2"), "{after_crash:?}");
    }

    #[test]
    fn taught_rule_starts_firing() {
        let mut grid = ManagementGrid::builder()
            .network(small_network())
            .analyzer("pg-1", 1.0, ALL_SKILLS)
            .build();
        grid.run(2 * 60_000, 60_000);
        grid.teach_rule(
            r#"rule "always-report-procs" salience 1 {
                when procs(device: ?d, value: ?v)
                if ?v > 0
                then emit info ?d "process count ?v on ?d"
            }"#,
        );
        let report = grid.run(4 * 60_000, 60_000);
        assert!(
            report
                .alerts
                .iter()
                .any(|a| a.rule == "always-report-procs"),
            "learned rule must fire"
        );
    }

    fn multi_site_network(sites: usize) -> Network {
        let mut net = Network::new();
        for s in 0..sites {
            for i in 0..2 {
                net.add_device(
                    Device::builder(format!("site-{s}-dev{i}"), DeviceKind::Server)
                        .site(format!("site-{s}"))
                        .seed((s * 10 + i) as u64)
                        .build(),
                );
            }
        }
        net
    }

    #[test]
    fn sharded_grid_partitions_and_conserves_tasks() {
        let mut grid = ManagementGrid::builder()
            .network(multi_site_network(4))
            .analyzer("pg-1", 1.0, ALL_SKILLS)
            .analyzer("pg-2", 1.0, ALL_SKILLS)
            .shards(2)
            .build();
        let report = grid.run(10 * 60_000, 60_000);
        assert_eq!(report.shards, 2);
        assert_eq!(report.shard_created.len(), 2);
        assert!(
            report.shard_created.iter().all(|&n| n > 0),
            "both domains created work: {:?}",
            report.shard_created
        );
        assert_eq!(report.audit(), [], "{report}");
        assert!(
            report.federation.summaries_sent > 0,
            "roots exchanged cross-domain summaries"
        );
        let text = report.render();
        assert!(text.contains("shards: 2 domains"), "{text}");
        assert!(text.contains("federation:"), "{text}");
    }

    #[test]
    fn sharded_run_is_deterministic() {
        let run = || {
            let mut grid = ManagementGrid::builder()
                .network(multi_site_network(3))
                .analyzer("pg-1", 1.0, ALL_SKILLS)
                .analyzer("pg-2", 1.0, ALL_SKILLS)
                .analyzer("pg-3", 1.0, ALL_SKILLS)
                .shards(3)
                .build();
            grid.run(8 * 60_000, 60_000)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn unsharded_report_hides_federation_sections() {
        let mut grid = ManagementGrid::builder()
            .network(small_network())
            .analyzer("pg-1", 1.0, ALL_SKILLS)
            .build();
        let report = grid.run(3 * 60_000, 60_000);
        assert_eq!(report.shards, 1);
        assert_eq!(report.shard_created, [report.tasks_created]);
        assert_eq!(report.federation, FederationStats::default());
        let text = report.render();
        assert!(!text.contains("shards:"), "{text}");
        assert!(!text.contains("federation:"), "{text}");
    }

    #[test]
    fn partition_quarantines_analyzer_cut_from_its_own_shard_root() {
        // pg-1 lives in shard 0 whichever the shard count; cut it off
        // from that shard's root and the broker must hold it Suspect
        // (gauge 1) while the partition is open, then trust it again
        // (gauge 0) once the heal's grace period has passed. pg-2 shares
        // shard 0's root group, so it is Suspect only when it belongs to
        // shard 1, whose root the partition puts in a group of its own.
        let (open_ms, heal_ms) = (2 * 60_000, 5 * 60_000);
        for shards in [1, 2] {
            let mut groups = vec![
                vec!["pg-1".to_owned()],
                vec![ShardNames::of(0, shards).root_container, "pg-2".to_owned()],
            ];
            groups.extend((1..shards).map(|s| vec![ShardNames::of(s, shards).root_container]));
            let telemetry = Telemetry::new();
            let mut grid = ManagementGrid::builder()
                .network(multi_site_network(4))
                .analyzer("pg-1", 1.0, ALL_SKILLS)
                .analyzer("pg-2", 1.0, ALL_SKILLS)
                .shards(shards)
                .chaos(ChaosPlan::new().partition_between(open_ms, heal_ms, "cut", groups))
                .telemetry(telemetry.clone())
                .build();
            let liveness = |container: &str| {
                telemetry
                    .snapshot()
                    .gauge("agentgrid_container_liveness", &[("container", container)])
            };
            grid.run(open_ms + 2 * 60_000, 60_000);
            assert_eq!(
                liveness("pg-1"),
                Some(1),
                "shards {shards}: partitioned pg-1"
            );
            let pg2 = if shards == 2 { 1 } else { 0 };
            assert_eq!(liveness("pg-2"), Some(pg2), "shards {shards}: pg-2");
            grid.run(heal_ms + QUARANTINE_GRACE_MS, 60_000);
            assert_eq!(liveness("pg-1"), Some(0), "shards {shards}: healed pg-1");
            assert_eq!(liveness("pg-2"), Some(0), "shards {shards}: healed pg-2");
        }
    }

    #[test]
    fn store_gauges_cover_every_shard() {
        let telemetry = Telemetry::new();
        let mut grid = ManagementGrid::builder()
            .network(multi_site_network(4))
            .analyzer("pg-1", 1.0, ALL_SKILLS)
            .analyzer("pg-2", 1.0, ALL_SKILLS)
            .shards(2)
            .telemetry(telemetry.clone())
            .build();
        let report = grid.run(5 * 60_000, 60_000);
        assert!(report.records_stored > grid.store().lock().len());
        assert_eq!(
            telemetry.snapshot().gauge("agentgrid_store_points", &[]),
            Some(report.records_stored as i64)
        );
    }

    #[test]
    fn report_renders_summary() {
        let mut grid = ManagementGrid::builder()
            .network(small_network())
            .analyzer("pg-1", 1.0, ALL_SKILLS)
            .build();
        let report = grid.run(3 * 60_000, 60_000);
        let text = report.render();
        assert!(text.contains("records stored"));
        assert!(text.contains("pg-1"));
    }
}
