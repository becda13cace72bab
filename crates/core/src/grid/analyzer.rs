use std::cell::OnceCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use agentgrid_acl::ontology::{
    Alert, AnalysisTask, FromContent, Severity, ToContent, MANAGEMENT_ONTOLOGY,
};
use agentgrid_acl::{AclMessage, AgentId, Performative, Value};
use agentgrid_platform::{Agent, AgentCtx};
use agentgrid_rules::{
    parse_rules, AlphaKeys, Engine, Fact, KnowledgeBase, RuleSeverity, Term, View,
};
use agentgrid_store::ManagementStore;
use parking_lot::Mutex;

/// A processor-grid analysis agent (paper §3.3).
///
/// Lives in an analyzer container, advertises its skills in the
/// directory, and executes [`AnalysisTask`]s the root assigns:
///
/// * **level 1** — stateless: latest observations of the task's
///   partition become facts; rules fire on them alone;
/// * **level 2** — consolidation: adds `stat` facts (mean/max over the
///   stored history) so rules can see trends;
/// * **level 3** — correlation: loads the latest observations of *every*
///   partition so cross-device rules can join facts.
///
/// Each level runs its [`View`] of the shared knowledge base: levels 1
/// and 2 the single-pattern rules, level 3 the joins and the rules that
/// feed them.
///
/// Findings go to the interface agent as [`Alert`]s; a `done` report
/// goes back to the root. The agent learns new rules sent by the
/// interface grid (`learn-rule` messages).
pub struct AnalyzerAgent {
    store: Arc<Mutex<ManagementStore>>,
    /// Persistent engine, `reset()` between tasks; the compiled knowledge
    /// base is shared across the grid's analyzers (copy-on-write on
    /// learning).
    engine: Engine,
    interface: AgentId,
    /// Grid-wide match-attempt counter, when the grid wants one.
    attempts_counter: Option<Arc<AtomicU64>>,
    /// The device-free admission filter of [`analyze_task_with`],
    /// memoised per metric for each of levels 1, 2 and 3: it depends only
    /// on the knowledge base, so a learned rule clears it.
    admitted: [HashMap<String, bool>; 3],
    /// Tasks completed.
    pub completed: u64,
    /// Findings emitted.
    pub findings: u64,
    /// Total rule-engine match attempts (CPU-cost proxy).
    pub match_attempts: u64,
}

impl std::fmt::Debug for AnalyzerAgent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnalyzerAgent")
            .field("rules", &self.engine.knowledge().len())
            .field("completed", &self.completed)
            .field("findings", &self.findings)
            .finish()
    }
}

impl AnalyzerAgent {
    /// Creates an analyzer with its own knowledge base and an alert sink.
    pub fn new(store: Arc<Mutex<ManagementStore>>, kb: KnowledgeBase, interface: AgentId) -> Self {
        AnalyzerAgent::shared(store, Arc::new(kb), interface)
    }

    /// Creates an analyzer over a knowledge base shared with the rest of
    /// the grid — one compiled rule set, many analyzers.
    pub fn shared(
        store: Arc<Mutex<ManagementStore>>,
        kb: Arc<KnowledgeBase>,
        interface: AgentId,
    ) -> Self {
        AnalyzerAgent {
            store,
            engine: Engine::shared(kb),
            interface,
            attempts_counter: None,
            admitted: Default::default(),
            completed: 0,
            findings: 0,
            match_attempts: 0,
        }
    }

    /// Mirrors this analyzer's match attempts into a shared counter
    /// (builder style) so the grid can account total inference cost.
    pub fn with_match_counter(mut self, counter: Arc<AtomicU64>) -> Self {
        self.attempts_counter = Some(counter);
        self
    }

    /// The analyzer's current knowledge base.
    pub fn knowledge(&self) -> &KnowledgeBase {
        self.engine.knowledge()
    }

    fn run_task(&mut self, task: &AnalysisTask, now: u64) -> Vec<Alert> {
        self.engine.set_view(view_for(task.level));
        let store = self.store.lock();
        let admitted = &mut self.admitted[usize::from(task.level.clamp(1, 3) - 1)];
        let admit = |keys: &AlphaKeys, metric: &str| {
            if let Some(&admit) = admitted.get(metric) {
                return admit;
            }
            let admit = Wanted::of(keys, task.level, metric, None).any();
            admitted.insert(metric.to_owned(), admit);
            admit
        };
        let (alerts, match_attempts) = analyze(&mut self.engine, &store, task, now, admit);
        self.match_attempts += match_attempts;
        if let Some(counter) = &self.attempts_counter {
            counter.fetch_add(match_attempts, Ordering::Relaxed);
        }
        alerts
    }
}

/// Converts one stored series' latest point into engine facts.
///
/// Besides the generic `obs` fact, well-known metrics get extracted
/// into typed facts (`cpu`, `mem`, `disk`, `procs`, `if_status`) so
/// rules stay readable.
pub fn facts_for(device: &str, metric: &str, value: f64) -> Vec<Fact> {
    let mut facts = Vec::with_capacity(2);
    let wanted = Wanted {
        obs: true,
        typed: typed_kind(metric),
        stat: false,
        trend: false,
    };
    let names = Names::new(device, Term::from(device), metric);
    wanted.latest_facts(&names, value, |fact| facts.push(fact));
    facts
}

/// One series' device and metric as shared strings: every fact built
/// for the series holds a reference to them, not a copy. The metric's
/// string is made on first use — a typed fact does not carry it.
struct Names<'a> {
    device_name: &'a str,
    device: Term,
    metric_name: &'a str,
    metric: OnceCell<Term>,
}

impl<'a> Names<'a> {
    fn new(device_name: &'a str, device: Term, metric_name: &'a str) -> Self {
        Names {
            device_name,
            device,
            metric_name,
            metric: OnceCell::new(),
        }
    }

    fn metric(&self) -> Term {
        self.metric
            .get_or_init(|| Term::from(self.metric_name))
            .clone()
    }
}

/// Which facts of a series some pattern may admit, decided from its
/// metric (and device, when known) before any fact is built.
#[derive(Clone, Copy)]
struct Wanted {
    /// The generic `obs` fact.
    obs: bool,
    /// The typed fact ([`typed_kind`]).
    typed: Option<&'static str>,
    /// The level-2 `stat` fact.
    stat: bool,
    /// The level-2 `trend` fact.
    trend: bool,
}

impl Wanted {
    /// What `keys` may admit of `metric`'s series at `level`, on `device`
    /// or — without one — on any device.
    fn of(keys: &AlphaKeys, level: u8, metric: &str, device: Option<&str>) -> Self {
        let pairs = [("metric", metric), ("device", device.unwrap_or_default())];
        let known = &pairs[..if device.is_some() { 2 } else { 1 }];
        Wanted {
            obs: keys.may_admit("obs", known),
            typed: typed_kind(metric).filter(|kind| keys.may_admit(kind, &known[1..])),
            stat: level >= 2 && keys.may_admit("stat", known),
            trend: level >= 2 && keys.may_admit("trend", known),
        }
    }

    fn any(self) -> bool {
        self.obs || self.typed.is_some() || self.stat || self.trend
    }

    /// Builds the wanted facts of one series — [`facts_for`]'s from its
    /// latest `value`, then `stat` and `trend` from its stored history —
    /// and keeps those `keys` admits, in that order. A pattern's
    /// constant on a field `Wanted` cannot see (a value) may still
    /// reject a built fact.
    fn facts(
        self,
        keys: &AlphaKeys,
        store: &ManagementStore,
        names: &Names<'_>,
        value: f64,
        out: &mut Vec<Fact>,
    ) {
        let mut keep = |fact: Fact| {
            if keys.admits(&fact) {
                out.push(fact);
            }
        };
        self.latest_facts(names, value, &mut keep);
        let (device, metric) = (names.device_name, names.metric_name);
        if self.stat {
            if let Some(stats) = store.stats(device, metric, 0, u64::MAX) {
                keep(
                    Fact::new("stat")
                        .with("count", stats.count as i64)
                        .with("device", names.device.clone())
                        .with("max", stats.max)
                        .with("mean", stats.mean)
                        .with("metric", names.metric()),
                );
            }
        }
        if self.trend {
            if let Some(slope) = store.trend_per_min(device, metric, 0, u64::MAX) {
                keep(
                    Fact::new("trend")
                        .with("device", names.device.clone())
                        .with("metric", names.metric())
                        .with("per-min", slope),
                );
            }
        }
    }

    /// Builds the wanted [`facts_for`] facts of the latest point.
    fn latest_facts(self, names: &Names<'_>, value: f64, mut emit: impl FnMut(Fact)) {
        if self.obs {
            emit(
                Fact::new("obs")
                    .with("device", names.device.clone())
                    .with("metric", names.metric())
                    .with("value", value),
            );
        }
        if let Some(kind) = self.typed {
            let mut fact = Fact::new(kind).with("device", names.device.clone());
            if let Some(index) = if_index(names.metric_name) {
                fact = fact.with("index", index);
            }
            emit(fact.with("value", value));
        }
    }
}

/// The typed fact kind [`facts_for`] extracts from a metric, if any.
fn typed_kind(metric: &str) -> Option<&'static str> {
    match metric {
        "storage.disk.used-pct" => Some("disk"),
        "storage.ram.used-pct" => Some("mem"),
        "processes.count" => Some("procs"),
        _ if metric.starts_with("cpu.load.") => Some("cpu"),
        _ if if_index(metric).is_some() => Some("if_status"),
        _ => None,
    }
}

/// The interface index of an `if.<index>.oper-status` metric.
fn if_index(metric: &str) -> Option<i64> {
    match metric.strip_prefix("if.")?.split_once('.')? {
        (index, "oper-status") => index.parse().ok(),
        _ => None,
    }
}

/// The view of the knowledge base an analysis task of `level` runs:
/// levels 1 and 2 read one device's data at a time, level 3 correlates
/// across devices (paper §3.3).
fn view_for(level: u8) -> View {
    if level >= 3 {
        View::Correlation
    } else {
        View::PerDevice
    }
}

/// Runs one [`AnalysisTask`] against a store with a knowledge base —
/// the multi-level analysis procedure of §3.3, shared by the grid's
/// [`AnalyzerAgent`] and the non-grid baselines. Returns the alerts and
/// the engine's match-attempt count (a CPU-cost proxy).
///
/// Builds a throwaway engine per call; hot paths should hold an engine
/// and use [`analyze_task_with`] instead.
pub fn analyze_task(
    store: &ManagementStore,
    kb: &KnowledgeBase,
    task: &AnalysisTask,
    now: u64,
) -> (Vec<Alert>, u64) {
    let mut engine = Engine::new(kb.clone());
    analyze_task_with(&mut engine, store, task, now)
}

/// [`analyze_task`] against a caller-owned engine, which is `reset()`
/// first: working memory and refraction are per-task, but the engine's
/// allocations and compiled knowledge base are reused across tasks. The
/// engine runs the [`View`] it is set to: the [`AnalyzerAgent`] sets its
/// task level's view, while [`analyze_task`] runs every rule.
///
/// A level-1/2 task with a site covers its partition at that site only;
/// without one (spilled tasks, the baselines) it covers the partition
/// across every site. Level 3 and partition `*` always span every
/// partition and site.
///
/// Analysis reads only what the engine's rules can match (per
/// [`Engine::alpha_keys`]): the store walks only the series whose metric
/// some pattern may admit ([`ManagementStore::select_scoped`]), a fact
/// is built only for a kind some pattern may admit, and the
/// `stat`/`trend` store queries run only for series whose fact some
/// pattern could match. Left-out facts can never activate, so the
/// findings are those of the unpruned procedure. The facts of one device
/// share one string for its name, and those of one series one string for
/// its metric.
///
/// A task whose [`round_ms`](AnalysisTask::round_ms) is older than a
/// point it reads raises nothing: that later round's own task covers it.
pub fn analyze_task_with(
    engine: &mut Engine,
    store: &ManagementStore,
    task: &AnalysisTask,
    now: u64,
) -> (Vec<Alert>, u64) {
    // A metric is read only if some pattern may admit a fact of its
    // series on some device; the filter is derived from the engine's
    // current alpha keys, so a learned rule widens it on the next task.
    let admit = |keys: &AlphaKeys, metric: &str| Wanted::of(keys, task.level, metric, None).any();
    analyze(engine, store, task, now, admit)
}

/// [`analyze_task_with`] under a given device-free admission filter,
/// which must answer as [`Wanted::of`] does without a device.
fn analyze(
    engine: &mut Engine,
    store: &ManagementStore,
    task: &AnalysisTask,
    now: u64,
    mut admit: impl FnMut(&AlphaKeys, &str) -> bool,
) -> (Vec<Alert>, u64) {
    engine.reset();
    let keys = engine.alpha_keys();
    let mut admit = |metric: &str| admit(keys, metric);
    // Fact insertion order feeds the rule engine's recency ordering, so
    // the enumeration stays partition-name order, then (device, metric)
    // order within each partition.
    let series: Vec<(&str, &str)> = if task.level >= 3 || task.partition == "*" {
        store
            .partitions()
            .into_iter()
            .flat_map(|p| store.select_scoped(p, None, &mut admit))
            .collect()
    } else {
        store.select_scoped(&task.partition, task.site.as_deref(), &mut admit)
    };
    let mut facts = Vec::new();
    let mut device: Option<(&str, Term)> = None;
    for (device_name, metric) in series {
        let wanted = Wanted::of(keys, task.level, metric, Some(device_name));
        if !wanted.any() {
            continue;
        }
        let Some((ts, value)) = store.latest(device_name, metric) else {
            continue;
        };
        // A retried or re-awarded task that finds a later round's data in
        // its scope would analyze that round, which the round's own task
        // covers: it raises nothing rather than the same findings again.
        if task.round_ms.is_some_and(|round| ts > round) {
            return (Vec::new(), 0);
        }
        // Series arrive grouped by device: one string per device.
        let device_term = match &device {
            Some((name, term)) if *name == device_name => term.clone(),
            _ => device
                .insert((device_name, Term::from(device_name)))
                .1
                .clone(),
        };
        let names = Names::new(device_name, device_term, metric);
        wanted.facts(keys, store, &names, value, &mut facts);
    }
    engine.insert_all(facts);
    let outcome = engine.run();
    let alerts = outcome
        .findings
        .into_iter()
        .map(|f| {
            Alert::new(
                f.rule,
                f.device,
                match f.severity {
                    RuleSeverity::Info => Severity::Info,
                    RuleSeverity::Warning => Severity::Warning,
                    RuleSeverity::Critical => Severity::Critical,
                },
                f.message,
                now,
            )
        })
        .collect();
    (alerts, outcome.stats.match_attempts)
}

impl Agent for AnalyzerAgent {
    fn on_message(&mut self, message: &AclMessage, ctx: &mut AgentCtx<'_>) {
        // Rule learning pushed from the interface grid.
        if message.content().get("concept").and_then(Value::as_str) == Some("learn-rule") {
            if let Some(text) = message.content().get("text").and_then(Value::as_str) {
                if let Ok(rules) = parse_rules(text) {
                    self.engine.knowledge_mut().extend(rules);
                    self.admitted = Default::default();
                }
            }
            return;
        }
        let Ok(task) = AnalysisTask::from_content(message.content()) else {
            return;
        };
        let now = ctx.now_ms();
        let alerts = self.run_task(&task, now);
        self.completed += 1;
        self.findings += alerts.len() as u64;
        for alert in &alerts {
            let msg = AclMessage::builder(Performative::Inform)
                .sender(ctx.self_id().clone())
                .receiver(self.interface.clone())
                .ontology(MANAGEMENT_ONTOLOGY)
                .content(alert.to_content())
                .build()
                .expect("sender and receiver are set");
            ctx.send(msg);
        }
        // Report completion to the root.
        let done = Value::map([
            ("concept", Value::symbol("done")),
            ("task-id", Value::from(task.task_id.as_str())),
            ("findings", Value::Int(alerts.len() as i64)),
            ("container", Value::from(ctx.container())),
        ]);
        ctx.send(message.reply(Performative::Inform, done));
    }

    fn on_tick(&mut self, ctx: &mut AgentCtx<'_>) {
        // The container's liveness heartbeat (the grid root reads its
        // staleness).
        let container = ctx.container().to_owned();
        let now = ctx.now_ms();
        ctx.df().record_heartbeat(&container, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::DEFAULT_RULES;
    use agentgrid_platform::DirectoryFacilitator;
    use agentgrid_store::{LabelFilter, Record};
    use std::collections::BTreeSet;

    fn kb() -> KnowledgeBase {
        KnowledgeBase::from_rules(parse_rules(DEFAULT_RULES).unwrap())
    }

    fn analyzer_with_data(points: &[(&str, &str, f64)]) -> AnalyzerAgent {
        let mut store = ManagementStore::default();
        for (device, metric, value) in points {
            store.insert(Record::new(*device, *metric, *value, 1000));
        }
        AnalyzerAgent::new(Arc::new(Mutex::new(store)), kb(), AgentId::new("ig@g"))
    }

    fn task(partition: &str, level: u8) -> AnalysisTask {
        AnalysisTask::new("t1", partition, partition, level, 100)
    }

    #[test]
    fn level1_finds_cpu_overload_in_its_partition_only() {
        let mut analyzer = analyzer_with_data(&[
            ("r1", "cpu.load.1", 97.0),
            ("r2", "storage.disk.used-pct", 99.0), // different partition
        ]);
        let alerts = analyzer.run_task(&task("cpu", 1), 0);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].rule, "high-cpu");
        assert_eq!(alerts[0].device, "r1");
    }

    #[test]
    fn level2_emits_sustained_pressure_from_stats() {
        let mut store = ManagementStore::default();
        for t in 0..5u64 {
            store.insert(Record::new("r1", "cpu.load.1", 85.0, t * 60_000));
        }
        let mut analyzer =
            AnalyzerAgent::new(Arc::new(Mutex::new(store)), kb(), AgentId::new("ig@g"));
        let alerts = analyzer.run_task(&task("cpu", 2), 0);
        assert!(alerts.iter().any(|a| a.rule == "sustained-cpu"));
    }

    #[test]
    fn level3_correlates_across_devices() {
        let mut analyzer =
            analyzer_with_data(&[("r1", "cpu.load.1", 95.0), ("r2", "cpu.load.1", 96.0)]);
        let alerts = analyzer.run_task(&task("*", 3), 0);
        assert!(
            alerts.iter().any(|a| a.rule == "correlated-cpu"),
            "{alerts:?}"
        );
    }

    #[test]
    fn task_run_after_a_later_round_raises_nothing() {
        let mut store = ManagementStore::default();
        for ts in [60_000, 120_000] {
            store.insert(Record::new("r1", "cpu.load.1", 97.0, ts));
        }
        let mut analyzer =
            AnalyzerAgent::new(Arc::new(Mutex::new(store)), kb(), AgentId::new("ig@g"));
        let for_round = |round_ms| AnalysisTask {
            round_ms,
            ..task("cpu", 1)
        };
        // A retry of round 1's task lands after round 2's data: round 2's
        // own task raises the finding, the retry must not raise it again.
        assert!(analyzer.run_task(&for_round(Some(60_000)), 0).is_empty());
        assert_eq!(analyzer.run_task(&for_round(Some(120_000)), 0).len(), 1);
        assert_eq!(analyzer.run_task(&for_round(None), 0).len(), 1);
    }

    #[test]
    fn fact_extraction_types_well_known_metrics() {
        let facts = facts_for("d", "if.2.oper-status", 2.0);
        assert!(facts.iter().any(|f| f.kind() == "if_status"));
        let facts = facts_for("d", "storage.ram.used-pct", 91.0);
        assert!(facts.iter().any(|f| f.kind() == "mem"));
        let facts = facts_for("d", "unknown.metric", 1.0);
        assert_eq!(facts.len(), 1, "only the generic obs fact");
    }

    #[test]
    fn admitted_facts_are_the_unpruned_facts_the_keys_admit() {
        const METRICS: [&str; 7] = [
            "cpu.load.3",
            "if.2.oper-status",
            "if.2.in-octets",
            "storage.disk.used-pct",
            "processes.count",
            "agent.reachable",
            "unknown.metric",
        ];
        let mut store = ManagementStore::default();
        for t in 0..3u64 {
            for metric in METRICS {
                store.insert(Record::new("d1", metric, 90.0 + t as f64, t * 60_000));
            }
        }
        // Beyond the defaults: an `obs` constant on a value, a `stat` of
        // any metric and a `trend` of one, so every kind is admitted for
        // some series and pruned for others.
        let mut kb = kb();
        kb.absorb(KnowledgeBase::from_rules(
            parse_rules(
                r#"
                rule "octets-zero" { when obs(device: ?d, metric: "if.2.in-octets", value: 0) then emit info ?d "idle" }
                rule "any-stat" { when stat(device: ?d, metric: ?m, max: ?x) if ?x > 90 then emit info ?d "?m" }
                rule "procs-rising" { when trend(device: ?d, metric: "processes.count", per-min: ?r) if ?r > 0 then emit info ?d "up" }
                "#,
            )
            .unwrap(),
        ));
        for view in [View::PerDevice, View::Correlation] {
            let keys = kb.view(view).alpha_keys();
            for level in 1..=3 {
                for metric in METRICS {
                    let (_, value) = store.latest("d1", metric).unwrap();
                    let mut got = Vec::new();
                    let names = Names::new("d1", Term::from("d1"), metric);
                    Wanted::of(keys, level, metric, Some("d1"))
                        .facts(keys, &store, &names, value, &mut got);
                    let mut want = facts_for("d1", metric, value);
                    if level >= 2 {
                        let stats = store.stats("d1", metric, 0, u64::MAX).unwrap();
                        want.push(
                            Fact::new("stat")
                                .with("device", "d1")
                                .with("metric", metric)
                                .with("mean", stats.mean)
                                .with("max", stats.max)
                                .with("count", stats.count as i64),
                        );
                        let slope = store.trend_per_min("d1", metric, 0, u64::MAX).unwrap();
                        want.push(
                            Fact::new("trend")
                                .with("device", "d1")
                                .with("metric", metric)
                                .with("per-min", slope),
                        );
                    }
                    want.retain(|fact| keys.admits(fact));
                    assert_eq!(got, want, "{metric} at level {level} in {view:?}");
                }
            }
        }
    }

    fn learn(analyzer: &mut AnalyzerAgent, text: &str) {
        let id = AgentId::new("an@g");
        let mut outbox = Vec::new();
        let mut df = DirectoryFacilitator::new();
        let mut ctx = AgentCtx::new(&id, "pg-1", 0, &mut outbox, &mut df);
        let learn = AclMessage::builder(Performative::Inform)
            .sender(AgentId::new("ig@g"))
            .receiver(id.clone())
            .content(Value::map([
                ("concept", Value::symbol("learn-rule")),
                ("text", Value::from(text)),
            ]))
            .build()
            .unwrap();
        analyzer.on_message(&learn, &mut ctx);
    }

    #[test]
    fn learn_rule_message_extends_knowledge() {
        let mut analyzer = analyzer_with_data(&[("r1", "processes.count", 3.0)]);
        let before = analyzer.knowledge().len();
        learn(
            &mut analyzer,
            r#"rule "few-procs" { when procs(device: ?d, value: ?v) if ?v < 10 then emit info ?d "only ?v processes" }"#,
        );
        assert_eq!(analyzer.knowledge().len(), before + 1);
        // And the learned rule fires on the next task.
        let alerts = analyzer.run_task(&task("process", 1), 0);
        assert!(alerts.iter().any(|a| a.rule == "few-procs"));
    }

    #[test]
    fn learned_rules_over_pruned_metrics_fire_on_the_next_task() {
        let mut store = ManagementStore::default();
        for t in 0..5u64 {
            store.insert(Record::new(
                "r1",
                "storage.ram.used-pct",
                40.0 + 5.0 * t as f64,
                t * 60_000,
            ));
            store.insert(Record::new("r1", "if.1.in-octets", 1e6, t * 60_000));
        }
        let mut analyzer =
            AnalyzerAgent::new(Arc::new(Mutex::new(store)), kb(), AgentId::new("ig@g"));
        // Before learning, the default rules prune both facts.
        let keys = analyzer.knowledge().alpha_keys();
        assert!(!keys.may_admit("trend", &[("metric", "storage.ram.used-pct")]));
        assert!(!keys.admits(&facts_for("r1", "if.1.in-octets", 1e6)[0]));
        assert!(analyzer.run_task(&task("memory", 2), 0).is_empty());

        learn(
            &mut analyzer,
            r#"rule "ram-rising" { when trend(device: ?d, metric: "storage.ram.used-pct", per-min: ?r) if ?r > 1 then emit warning ?d "ram rising" }"#,
        );
        let alerts = analyzer.run_task(&task("memory", 2), 0);
        assert!(alerts.iter().any(|a| a.rule == "ram-rising"), "{alerts:?}");
        // The analyzer remembers that no rule reads the octets series...
        assert!(analyzer.run_task(&task("interface", 1), 0).is_empty());

        // ...until a learned rule does.
        learn(
            &mut analyzer,
            r#"rule "octets-seen" { when obs(device: ?d, metric: "if.1.in-octets", value: ?v) if ?v > 0 then emit info ?d "traffic" }"#,
        );
        let alerts = analyzer.run_task(&task("interface", 1), 0);
        assert!(alerts.iter().any(|a| a.rule == "octets-seen"), "{alerts:?}");
    }

    #[test]
    fn site_scoped_task_covers_its_site_only() {
        let mut store = ManagementStore::default();
        store.insert(Record::new("a1", "cpu.load.1", 97.0, 1000).with_site("a"));
        store.insert(Record::new("b1", "cpu.load.1", 98.0, 1000).with_site("b"));
        let mut analyzer =
            AnalyzerAgent::new(Arc::new(Mutex::new(store)), kb(), AgentId::new("ig@g"));
        let devices = |alerts: Vec<Alert>| -> Vec<String> {
            alerts
                .into_iter()
                .filter(|a| a.rule == "high-cpu")
                .map(|a| a.device)
                .collect()
        };
        let at_a = analyzer.run_task(&task("cpu", 1).with_site("a"), 0);
        assert_eq!(devices(at_a), ["a1"]);
        let everywhere = analyzer.run_task(&task("cpu", 1), 0);
        assert_eq!(devices(everywhere), ["b1", "a1"]);
        assert!(analyzer
            .run_task(&task("cpu", 1).with_site("ghost"), 0)
            .is_empty());
    }

    #[test]
    fn task_message_produces_alerts_and_done_reply() {
        let mut analyzer = analyzer_with_data(&[("r1", "cpu.load.1", 99.0)]);
        let analyzer_id = AgentId::new("an@g");
        let mut outbox = Vec::new();
        let mut df = DirectoryFacilitator::new();
        df.register_container(agentgrid_acl::ontology::ResourceProfile::new(
            "pg-1",
            1.0,
            1.0,
            1024,
            ["cpu"],
        ));
        let mut ctx = AgentCtx::new(&analyzer_id, "pg-1", 7, &mut outbox, &mut df);
        let request = AclMessage::builder(Performative::Request)
            .sender(AgentId::new("pg-root@g"))
            .receiver(analyzer_id.clone())
            .reply_with("task-t1")
            .content(task("cpu", 1).to_content())
            .build()
            .unwrap();
        analyzer.on_message(&request, &mut ctx);
        drop(ctx);
        // One alert to the interface + one done reply to the root.
        assert_eq!(outbox.len(), 2);
        let alert = Alert::from_content(outbox[0].content()).unwrap();
        assert_eq!(alert.rule, "high-cpu");
        assert_eq!(alert.timestamp_ms, 7);
        let done = &outbox[1];
        assert_eq!(done.receivers()[0].name(), "pg-root@g");
        assert_eq!(done.content().get("findings").unwrap().as_int(), Some(1));
        // The root charges awards to the load account; running the task
        // leaves it alone.
        assert_eq!(df.charged("pg-1"), 0);
        assert_eq!(df.container_profile("pg-1").unwrap().load, 0.0);
    }

    /// Property tests over random multi-site stores: site scoping and
    /// rule pruning against executable specifications.
    mod properties {
        use super::*;
        use agentgrid_rules::Finding;
        use proptest::prelude::*;

        const SITES: [&str; 3] = ["site-0", "site-1", "site-2"];
        const METRICS: [&str; 9] = [
            "cpu.load.1",
            "cpu.load.5",
            "storage.disk.used-pct",
            "storage.ram.used-pct",
            "processes.count",
            "if.1.oper-status",
            "if.2.in-octets",
            "agent.reachable",
            "system.uptime",
        ];
        const VALUES: [f64; 8] = [0.0, 1.0, 2.0, 50.0, 86.0, 92.0, 97.0, 450.0];

        /// Single-pattern rules over every fact kind the analyzer
        /// builds, constrained and unconstrained.
        const EXTRA_RULES: &str = r#"
        rule "ram-rising" {
            when trend(device: ?d, metric: "storage.ram.used-pct", per-min: ?r)
            if ?r > 0
            then emit info ?d "ram rising at ?r"
        }
        rule "any-stat" {
            when stat(device: ?d, metric: ?m, max: ?x)
            if ?x > 90
            then emit info ?d "?m peaked at ?x"
        }
        rule "octets" {
            when obs(device: ?d, metric: "if.2.in-octets", value: ?v)
            if ?v > 1
            then emit info ?d "traffic ?v"
        }
        "#;

        /// Rules that join and chain through asserted facts, so pruning
        /// is checked against recency, refraction and multi-pattern
        /// activations too.
        const CHAIN_RULES: &str = r#"
        rule "mark-hot" salience 3 {
            when cpu(device: ?d, value: ?v)
            if ?v > 90
            then assert hot(device: ?d)
        }
        rule "hot-and-full" salience 2 {
            when hot(device: ?d)
            when disk(device: ?d, value: ?x)
            if ?x > 50
            then emit warning ?d "hot and full on ?d"
        }
        "#;

        /// A store of 1–20 series, each on a device that belongs to one
        /// site, each 1–5 points one minute apart.
        fn store_strategy() -> impl Strategy<Value = ManagementStore> {
            prop::collection::vec(
                (
                    0usize..SITES.len(),
                    0usize..3,
                    0usize..METRICS.len(),
                    prop::collection::vec(0usize..VALUES.len(), 1..6),
                ),
                1..20,
            )
            .prop_map(|series| {
                let mut seen = BTreeSet::new();
                let mut store = ManagementStore::default();
                for (site, dev, metric, values) in series {
                    if !seen.insert((site, dev, metric)) {
                        continue;
                    }
                    let device = format!("{}-d{dev}", SITES[site]);
                    for (i, v) in values.into_iter().enumerate() {
                        store.insert(
                            Record::new(&device, METRICS[metric], VALUES[v], i as u64 * 60_000)
                                .with_site(SITES[site]),
                        );
                    }
                }
                store
            })
        }

        fn rules(text: &str) -> KnowledgeBase {
            KnowledgeBase::from_rules(parse_rules(text).unwrap())
        }

        fn sorted(alerts: Vec<Alert>) -> Vec<(String, String, String)> {
            let mut keys: Vec<_> = alerts
                .into_iter()
                .map(|a| (a.rule, a.device, a.message))
                .collect();
            keys.sort();
            keys
        }

        /// The analysis procedure without pruning: every `facts_for`,
        /// `stat` and `trend` fact of the task's series goes into a
        /// fresh engine. Site scope is spelled out as a device filter.
        fn unpruned(
            kb: &KnowledgeBase,
            store: &ManagementStore,
            task: &AnalysisTask,
        ) -> Vec<Finding> {
            let grid_wide = task.level >= 3 || task.partition == "*";
            let partitions: Vec<String> = if grid_wide {
                store.partitions().iter().map(|p| (*p).to_owned()).collect()
            } else {
                vec![task.partition.clone()]
            };
            let at_site: Option<BTreeSet<&str>> = match &task.site {
                Some(site) if !grid_wide => Some(store.devices_at(site).collect()),
                _ => None,
            };
            let mut engine = Engine::new(kb.clone());
            for partition in &partitions {
                for (device, metric) in store.select(&LabelFilter::class(partition)) {
                    if at_site
                        .as_ref()
                        .is_some_and(|at| !at.contains(device.as_str()))
                    {
                        continue;
                    }
                    if let Some((_, value)) = store.latest(&device, &metric) {
                        engine.insert_all(facts_for(&device, &metric, value));
                    }
                    if task.level >= 2 {
                        if let Some(stats) = store.stats(&device, &metric, 0, u64::MAX) {
                            engine.insert(
                                Fact::new("stat")
                                    .with("device", device.as_str())
                                    .with("metric", metric.as_str())
                                    .with("mean", stats.mean)
                                    .with("max", stats.max)
                                    .with("count", stats.count as i64),
                            );
                        }
                        if let Some(slope) = store.trend_per_min(&device, &metric, 0, u64::MAX) {
                            engine.insert(
                                Fact::new("trend")
                                    .with("device", device.as_str())
                                    .with("metric", metric.as_str())
                                    .with("per-min", slope),
                            );
                        }
                    }
                }
            }
            engine.run().findings
        }

        /// The names of the rules in `kb`'s `view`, in rule order.
        fn view_rules(kb: &KnowledgeBase, view: View) -> Vec<&str> {
            let in_view = kb.view(view);
            kb.iter()
                .enumerate()
                .filter(|(i, _)| in_view.contains(*i))
                .map(|(_, rule)| rule.name())
                .collect()
        }

        #[test]
        fn correlation_view_keeps_the_rules_that_feed_its_joins() {
            let default = rules(DEFAULT_RULES);
            assert_eq!(view_rules(&default, View::Correlation), ["correlated-cpu"]);
            // A default sweep loads only `cpu` facts: no `obs`, and no
            // `stats`/`trend_per_min` query.
            let keys = default.view(View::Correlation).alpha_keys();
            assert!(keys.may_admit("cpu", &[]));
            for kind in ["obs", "stat", "trend", "disk", "mem", "if_status"] {
                assert!(!keys.may_admit(kind, &[]), "{kind}");
            }

            let mut kb = default;
            kb.absorb(rules(CHAIN_RULES));
            // `hot-and-full` reads `hot`, which single-pattern `mark-hot`
            // asserts: the sweep runs it too.
            assert_eq!(
                view_rules(&kb, View::Correlation),
                ["correlated-cpu", "mark-hot", "hot-and-full"]
            );
            let per_device = view_rules(&kb, View::PerDevice);
            assert!(per_device.contains(&"mark-hot"));
            assert!(!per_device.contains(&"hot-and-full"));
            assert!(!per_device.contains(&"correlated-cpu"));
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Splitting the rule base by level loses no finding of the
            /// rules a level runs, nor their order: a level's findings are
            /// the unsplit base's findings filtered to its view's rules —
            /// the single-pattern rules at levels 1 and 2.
            #[test]
            fn split_findings_equal_the_unsplit_findings_of_the_view(store in store_strategy()) {
                let mut kb = rules(DEFAULT_RULES);
                kb.absorb(rules(EXTRA_RULES));
                kb.absorb(rules(CHAIN_RULES));
                let single_pattern: Vec<&str> = kb
                    .iter()
                    .filter(|r| r.patterns().len() == 1)
                    .map(|r| r.name())
                    .collect();
                let correlation = view_rules(&kb, View::Correlation);
                let mut split = Engine::new(kb.clone());
                let mut unsplit = Engine::new(kb.clone());
                let mut partitions: Vec<String> =
                    store.partitions().iter().map(|p| (*p).to_owned()).collect();
                partitions.push("*".to_owned());
                for partition in &partitions {
                    for level in [1, 2, 3] {
                        let (view, rules_of_view) = if level == 3 {
                            (View::Correlation, &correlation)
                        } else {
                            (View::PerDevice, &single_pattern)
                        };
                        split.set_view(view);
                        let siteless = AnalysisTask::new("t", partition, partition, level, 1);
                        let scoped = SITES.iter().map(|s| siteless.clone().with_site(*s));
                        for task in std::iter::once(siteless.clone()).chain(scoped) {
                            let key = |a: Alert| (a.rule, a.device, a.message);
                            let got: Vec<_> = analyze_task_with(&mut split, &store, &task, 0)
                                .0
                                .into_iter()
                                .map(key)
                                .collect();
                            let want: Vec<_> = analyze_task_with(&mut unsplit, &store, &task, 0)
                                .0
                                .into_iter()
                                .filter(|a| rules_of_view.contains(&a.rule.as_str()))
                                .map(key)
                                .collect();
                            prop_assert_eq!(got, want);
                        }
                    }
                }
            }

            /// For every single-pattern rule, level 1/2 findings summed
            /// over the sites equal the site-less task's findings.
            #[test]
            fn per_site_findings_union_to_the_siteless_findings(store in store_strategy()) {
                let mut all = parse_rules(DEFAULT_RULES).unwrap();
                all.extend(parse_rules(EXTRA_RULES).unwrap());
                let partitions: Vec<String> =
                    store.partitions().iter().map(|p| (*p).to_owned()).collect();
                for rule in all.into_iter().filter(|r| r.patterns().len() == 1) {
                    let kb = KnowledgeBase::from_rules([rule]);
                    for partition in &partitions {
                        for level in [1, 2] {
                            let siteless = AnalysisTask::new("t", partition, partition, level, 1);
                            let mut union = Vec::new();
                            for site in SITES {
                                let scoped = siteless.clone().with_site(site);
                                union.extend(analyze_task(&store, &kb, &scoped, 0).0);
                            }
                            let whole = analyze_task(&store, &kb, &siteless, 0).0;
                            prop_assert_eq!(sorted(union), sorted(whole));
                        }
                    }
                }
            }

            /// Pruned analysis emits exactly the unpruned procedure's
            /// findings, in the same order, at every level and scope.
            #[test]
            fn pruned_findings_equal_the_unpruned_oracle(store in store_strategy()) {
                let mut kb = rules(DEFAULT_RULES);
                kb.absorb(rules(EXTRA_RULES));
                kb.absorb(rules(CHAIN_RULES));
                let mut engine = Engine::new(kb.clone());
                let mut partitions: Vec<String> =
                    store.partitions().iter().map(|p| (*p).to_owned()).collect();
                partitions.push("*".to_owned());
                for partition in &partitions {
                    for level in [1, 2, 3] {
                        let siteless = AnalysisTask::new("t", partition, partition, level, 1);
                        let scoped = SITES.iter().map(|s| siteless.clone().with_site(*s));
                        for task in std::iter::once(siteless.clone()).chain(scoped) {
                            let (alerts, _) = analyze_task_with(&mut engine, &store, &task, 0);
                            let got: Vec<(String, String, String)> = alerts
                                .into_iter()
                                .map(|a| (a.rule, a.device, a.message))
                                .collect();
                            let want: Vec<(String, String, String)> = unpruned(&kb, &store, &task)
                                .into_iter()
                                .map(|f| (f.rule, f.device, f.message))
                                .collect();
                            prop_assert_eq!(got, want);
                        }
                    }
                }
            }
        }
    }
}
