//! Overload protection: bounded per-container mailboxes with
//! priority-aware shedding, shared by both runtimes.
//!
//! The paper's load-balancing principles (§3.5) pick the best worker for
//! a task, but say nothing about what happens once *every* worker is
//! saturated. This module supplies the missing back-stop: each container
//! gets a per-clock-window delivery budget ([`MailboxConfig::capacity`]).
//! Traffic beyond the budget waits for a later window in a queue bounded
//! by the same capacity; once that queue is full, the least important
//! candidate is shed.
//!
//! # Why windows, not instantaneous queue depth
//!
//! *How many* messages are shed must be a property of the scenario, not
//! of how a runtime schedules its work. An instantaneous-depth bound
//! cannot deliver that: the observed depth depends on when the queue
//! happens to be drained. A budget per **simulated-clock window** (one
//! distinct timestamp = one window) does, because all traffic in this
//! codebase is driven by the simulated clock — the multiset of messages
//! bound for a container within one window is a property of the
//! scenario, not of scheduling.
//!
//! # Message classes
//!
//! Shedding is priority-aware via the [`MessageClass`] lattice:
//! alerts/escalations > broker protocol > reports > raw collection
//! data. The victim is the lowest-class candidate among the waiting
//! queue and the incoming leg (ties: oldest first). Alert-class messages
//! are **never** shed: when every shedding candidate is an alert, the
//! bound is deliberately exceeded rather than dropping one (see
//! [`MessageClass::Alert`]).
//!
//! The layer is strictly opt-in: a runtime without a [`MailboxConfig`]
//! routes exactly as before, byte for byte.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use agentgrid_acl::{AgentId, SharedMessage, Value};
use agentgrid_telemetry::{Counter, EventKind, Gauge, TelemetryHandle};

/// Priority lattice for overload decisions, derived from the ontology
/// `concept` tag of a message's content. Higher is more important.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MessageClass {
    /// Raw collection data (`collected-batch`, `observation`): cheapest
    /// to regenerate — the next poll produces a fresh batch.
    Bulk = 0,
    /// Reports and bookkeeping (resource profiles, learned rules,
    /// anything unclassified).
    Report = 1,
    /// Broker protocol traffic (`analysis-task`, `done`, `data-ready`):
    /// dropping one stalls a task until the retry/deadline machinery
    /// notices.
    Broker = 2,
    /// Alerts and escalations (`alert`), including `container-dead` and
    /// `task-retry-exhausted`: never shed.
    Alert = 3,
}

impl MessageClass {
    /// All classes, lowest priority first. Indexable by `class as usize`.
    pub const ALL: [MessageClass; 4] = [
        MessageClass::Bulk,
        MessageClass::Report,
        MessageClass::Broker,
        MessageClass::Alert,
    ];

    /// Classifies a message from the `concept` tag of its content map.
    /// Messages without a recognized concept classify as [`Report`]
    /// (middle of the lattice: never preferred over broker traffic,
    /// never outlives an alert).
    ///
    /// [`Report`]: MessageClass::Report
    pub fn of(message: &SharedMessage) -> Self {
        match message.content().get("concept").and_then(Value::as_str) {
            Some("alert") => MessageClass::Alert,
            Some("analysis-task") | Some("done") | Some("data-ready") => MessageClass::Broker,
            Some("collected-batch") | Some("observation") => MessageClass::Bulk,
            _ => MessageClass::Report,
        }
    }

    /// The metric label for `agentgrid_shed_messages_total{class=…}`.
    pub fn as_label(self) -> &'static str {
        match self {
            MessageClass::Bulk => "bulk",
            MessageClass::Report => "report",
            MessageClass::Broker => "broker",
            MessageClass::Alert => "alert",
        }
    }
}

/// Bounded-mailbox knobs: the per-container, per-clock-window delivery
/// budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MailboxConfig {
    /// Deliveries admitted per container per clock window, and the bound
    /// on the waiting queue beyond them. Clamped to ≥ 1.
    pub capacity: usize,
}

impl MailboxConfig {
    /// A config with the given budget.
    pub fn new(capacity: usize) -> Self {
        MailboxConfig { capacity }
    }
}

/// Monotone signal that downstream containers are saturated. The
/// routing layer bumps it on every deferral or shed; collectors compare
/// the count against the value they last saw to decide whether to
/// stretch their poll interval (see the grid's collector pacing).
#[derive(Debug, Default)]
pub struct PressureSignal {
    events: AtomicU64,
}

impl PressureSignal {
    /// A fresh signal with no recorded pressure.
    pub fn new() -> Self {
        PressureSignal::default()
    }

    /// Records one saturation event (deferral or shed).
    pub fn notify(&self) {
        self.events.fetch_add(1, Ordering::Relaxed);
    }

    /// Total saturation events so far.
    pub fn events(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }
}

/// Counters accumulated by the bounded-mailbox layer, snapshot via
/// `Runtime::overload_stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverloadStats {
    /// Messages shed, indexed by `MessageClass as usize`.
    pub shed_by_class: [u64; 4],
    /// Messages deferred to a later window (each counted once at the
    /// moment it entered the waiting queue).
    pub deferred: u64,
    /// Peak waiting-queue depth across all containers. Bounded by the
    /// configured capacity, except that waiting alerts are never shed.
    pub highwater: usize,
}

impl OverloadStats {
    /// Total messages shed across all classes.
    pub fn shed_total(&self) -> u64 {
        self.shed_by_class.iter().sum()
    }

    /// Messages of `class` shed so far.
    pub fn shed(&self, class: MessageClass) -> u64 {
        self.shed_by_class[class as usize]
    }
}

/// Outcome of admitting one (message, receiver) leg.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admission {
    /// Budget available: deliver now.
    Deliver,
    /// Saturated: the tracker took ownership of the leg and will return
    /// it from a later [`MailboxTracker::begin_window`].
    Deferred,
    /// Saturated and shed: the leg is gone (already counted).
    Shed,
}

/// One deferred (message, receiver) leg.
#[derive(Debug)]
struct Waiting {
    message: SharedMessage,
    receiver: AgentId,
    class: MessageClass,
}

#[derive(Debug, Default)]
struct Window {
    /// Deliveries admitted in the current clock window.
    used: usize,
    /// Legs waiting for a later window, oldest first.
    backlog: VecDeque<Waiting>,
}

/// The bookkeeping both runtimes drive: per-container window budgets,
/// the waiting queues, and the shed/deferral counters. The platform owns
/// one directly; the pool reaches it through the platform it wraps.
#[derive(Debug)]
pub(crate) struct MailboxTracker {
    config: MailboxConfig,
    windows: BTreeMap<String, Window>,
    stats: OverloadStats,
    pressure: Option<Arc<PressureSignal>>,
    telemetry: Option<TelemetryHandle>,
    shed_counters: [Option<Counter>; 4],
    highwater_gauges: BTreeMap<String, Gauge>,
}

impl MailboxTracker {
    pub(crate) fn new(
        config: MailboxConfig,
        pressure: Option<Arc<PressureSignal>>,
        telemetry: Option<TelemetryHandle>,
    ) -> Self {
        MailboxTracker {
            config,
            windows: BTreeMap::new(),
            stats: OverloadStats::default(),
            pressure,
            telemetry,
            shed_counters: [None, None, None, None],
            highwater_gauges: BTreeMap::new(),
        }
    }

    pub(crate) fn stats(&self) -> OverloadStats {
        self.stats
    }

    /// Re-points metric export after a late `set_telemetry`.
    pub(crate) fn set_telemetry(&mut self, telemetry: TelemetryHandle) {
        self.telemetry = Some(telemetry);
        self.shed_counters = [None, None, None, None];
        self.highwater_gauges.clear();
    }

    fn capacity(&self) -> usize {
        self.config.capacity.max(1)
    }

    fn note_pressure(&self) {
        if let Some(signal) = &self.pressure {
            signal.notify();
        }
    }

    fn record_shed(&mut self, container: &str, class: MessageClass, now_ms: u64) {
        self.stats.shed_by_class[class as usize] += 1;
        if let Some(telemetry) = &self.telemetry {
            let counter = self.shed_counters[class as usize].get_or_insert_with(|| {
                telemetry.registry().counter(
                    "agentgrid_shed_messages_total",
                    &[("class", class.as_label())],
                )
            });
            counter.inc();
            telemetry.record_event(
                now_ms,
                EventKind::DeliveryShed {
                    container: container.to_owned(),
                    class: class.as_label(),
                },
            );
        }
        self.note_pressure();
    }

    fn note_highwater(&mut self, container: &str, depth: usize) {
        if depth > self.stats.highwater {
            self.stats.highwater = depth;
        }
        if let Some(telemetry) = &self.telemetry {
            let gauge = self
                .highwater_gauges
                .entry(container.to_owned())
                .or_insert_with(|| {
                    telemetry
                        .registry()
                        .gauge("agentgrid_mailbox_highwater", &[("container", container)])
                });
            if depth as i64 > gauge.get() {
                gauge.set(depth as i64);
            }
        }
    }

    fn defer(&mut self, container: &str, waiting: Waiting) {
        let window = self.windows.entry(container.to_owned()).or_default();
        window.backlog.push_back(waiting);
        let depth = window.backlog.len();
        self.stats.deferred += 1;
        self.note_highwater(container, depth);
        self.note_pressure();
    }

    /// Admits one (message, receiver) leg bound for `container` in the
    /// current window. `now_ms` stamps any shed decision for the flight
    /// recorder.
    pub(crate) fn admit(
        &mut self,
        container: &str,
        message: &SharedMessage,
        receiver: &AgentId,
        now_ms: u64,
    ) -> Admission {
        let cap = self.capacity();
        let window = self.windows.entry(container.to_owned()).or_default();
        if window.used < cap {
            window.used += 1;
            return Admission::Deliver;
        }
        let class = MessageClass::of(message);
        let waiting = Waiting {
            message: SharedMessage::clone(message),
            receiver: receiver.clone(),
            class,
        };
        if window.backlog.len() < cap {
            self.defer(container, waiting);
            return Admission::Deferred;
        }
        // Victim: the lowest class among the waiting queue and the
        // incoming leg; ties break towards the oldest.
        let (victim_at, victim_class) = window
            .backlog
            .iter()
            .enumerate()
            .min_by_key(|(index, w)| (w.class, *index))
            .map(|(index, w)| (index, w.class))
            .expect("backlog at capacity ≥ 1 is non-empty");
        if class < victim_class {
            // The incoming leg is the least important candidate.
            self.record_shed(container, class, now_ms);
            return Admission::Shed;
        }
        if victim_class == MessageClass::Alert {
            // Every candidate is an alert: exceed the bound rather than
            // drop one.
            self.defer(container, waiting);
            return Admission::Deferred;
        }
        window.backlog.remove(victim_at);
        self.record_shed(container, victim_class, now_ms);
        self.defer(container, waiting);
        Admission::Deferred
    }

    /// Admits a whole per-container batch in one call — the admission
    /// point of the batch-first delivery contract. The class-aware
    /// shedding decision runs over the batch leg by leg, so the result
    /// is identical to calling [`admit`](Self::admit) once per leg in
    /// order (per-window budgets and the alert-shed exemption are
    /// sequential state machines and must stay runtime-independent);
    /// what changes is the locking shape: callers acquire the tracker
    /// once per batch instead of once per leg. Returns the legs to
    /// deliver now in their original order; deferred legs move into the
    /// waiting queue and shed legs are dropped (and counted).
    pub(crate) fn admit_batch(
        &mut self,
        container: &str,
        legs: Vec<(SharedMessage, Vec<AgentId>)>,
        now_ms: u64,
    ) -> Vec<(SharedMessage, Vec<AgentId>)> {
        let mut admitted = Vec::with_capacity(legs.len());
        for (message, receivers) in legs {
            let mut keep = Vec::with_capacity(receivers.len());
            for receiver in receivers {
                match self.admit(container, &message, &receiver, now_ms) {
                    Admission::Deliver => keep.push(receiver),
                    Admission::Deferred | Admission::Shed => {}
                }
            }
            if !keep.is_empty() {
                admitted.push((message, keep));
            }
        }
        admitted
    }

    /// Rolls every container into a new clock window: budgets reset and
    /// waiting legs drain (oldest first, consuming fresh budget). The
    /// caller delivers the returned legs. Iteration is in container-name
    /// order, so the drain itself is deterministic.
    pub(crate) fn begin_window(&mut self) -> Vec<(SharedMessage, AgentId)> {
        let cap = self.capacity();
        let mut due = Vec::new();
        for window in self.windows.values_mut() {
            window.used = 0;
            while window.used < cap {
                match window.backlog.pop_front() {
                    Some(waiting) => {
                        window.used += 1;
                        due.push((waiting.message, waiting.receiver));
                    }
                    None => break,
                }
            }
        }
        due
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agentgrid_acl::{AclMessage, Performative};

    fn msg(concept: Option<&str>) -> SharedMessage {
        let mut builder = AclMessage::builder(Performative::Inform)
            .sender(AgentId::new("s@t"))
            .receiver(AgentId::new("r@t"));
        if let Some(concept) = concept {
            builder = builder.content(Value::map([("concept", Value::symbol(concept.to_owned()))]));
        }
        builder.build().unwrap().into_shared()
    }

    #[test]
    fn classes_follow_the_lattice() {
        assert_eq!(MessageClass::of(&msg(Some("alert"))), MessageClass::Alert);
        assert_eq!(
            MessageClass::of(&msg(Some("analysis-task"))),
            MessageClass::Broker
        );
        assert_eq!(MessageClass::of(&msg(Some("done"))), MessageClass::Broker);
        assert_eq!(
            MessageClass::of(&msg(Some("data-ready"))),
            MessageClass::Broker
        );
        assert_eq!(
            MessageClass::of(&msg(Some("collected-batch"))),
            MessageClass::Bulk
        );
        assert_eq!(
            MessageClass::of(&msg(Some("observation"))),
            MessageClass::Bulk
        );
        assert_eq!(
            MessageClass::of(&msg(Some("resource-profile"))),
            MessageClass::Report
        );
        assert_eq!(MessageClass::of(&msg(None)), MessageClass::Report);
        assert!(MessageClass::Alert > MessageClass::Broker);
        assert!(MessageClass::Broker > MessageClass::Report);
        assert!(MessageClass::Report > MessageClass::Bulk);
    }

    fn tracker(capacity: usize) -> MailboxTracker {
        MailboxTracker::new(MailboxConfig::new(capacity), None, None)
    }

    fn receiver() -> AgentId {
        AgentId::new("r@t")
    }

    #[test]
    fn budget_admits_then_defers_within_the_queue_bound() {
        let mut t = tracker(2);
        let r = receiver();
        assert_eq!(t.admit("c", &msg(None), &r, 0), Admission::Deliver);
        assert_eq!(t.admit("c", &msg(None), &r, 0), Admission::Deliver);
        assert_eq!(t.admit("c", &msg(None), &r, 0), Admission::Deferred);
        assert_eq!(t.admit("c", &msg(None), &r, 0), Admission::Deferred);
        assert_eq!(t.stats().deferred, 2);
        assert_eq!(t.stats().shed_total(), 0);
        assert_eq!(t.stats().highwater, 2);
        // New window: the two waiting legs drain within budget.
        assert_eq!(t.begin_window().len(), 2);
        assert_eq!(t.admit("c", &msg(None), &r, 0), Admission::Deferred);
    }

    #[test]
    fn shed_by_priority_prefers_low_classes_and_spares_alerts() {
        let mut t = tracker(1);
        let r = receiver();
        assert_eq!(
            t.admit("c", &msg(Some("observation")), &r, 0),
            Admission::Deliver
        );
        assert_eq!(
            t.admit("c", &msg(Some("alert")), &r, 0),
            Admission::Deferred
        );
        // Incoming bulk is the least important candidate: shed on arrival.
        assert_eq!(
            t.admit("c", &msg(Some("collected-batch")), &r, 0),
            Admission::Shed
        );
        assert_eq!(t.stats().shed(MessageClass::Bulk), 1);
        // Against a waiting alert, even broker traffic is the lesser
        // candidate and is shed on arrival.
        assert_eq!(t.admit("c", &msg(Some("done")), &r, 0), Admission::Shed);
        assert_eq!(t.stats().shed(MessageClass::Broker), 1);

        // A higher-class arrival evicts a lower-class waiter instead.
        let mut t = tracker(1);
        assert_eq!(t.admit("c", &msg(None), &r, 0), Admission::Deliver);
        assert_eq!(
            t.admit("c", &msg(Some("collected-batch")), &r, 0),
            Admission::Deferred
        );
        assert_eq!(
            t.admit("c", &msg(Some("alert")), &r, 0),
            Admission::Deferred
        );
        assert_eq!(t.stats().shed(MessageClass::Bulk), 1);
        assert_eq!(t.stats().shed(MessageClass::Alert), 0);
    }

    #[test]
    fn separate_containers_have_separate_budgets() {
        let mut t = tracker(1);
        let r = receiver();
        assert_eq!(t.admit("a", &msg(None), &r, 0), Admission::Deliver);
        assert_eq!(t.admit("b", &msg(None), &r, 0), Admission::Deliver);
        assert_eq!(t.admit("a", &msg(None), &r, 0), Admission::Deferred);
        assert_eq!(t.admit("b", &msg(None), &r, 0), Admission::Deferred);
        assert_eq!(t.stats().highwater, 1, "per-container depth, not global");
    }

    #[test]
    fn alerts_are_never_shed_even_when_everything_is_an_alert() {
        let mut t = tracker(1);
        let r = receiver();
        for _ in 0..5 {
            t.admit("c", &msg(Some("alert")), &r, 0);
        }
        assert_eq!(t.stats().shed_total(), 0);
        // 1 delivered, 4 waiting: the bound is exceeded by design.
        assert_eq!(t.stats().highwater, 4);
        // Every waiting alert eventually drains.
        let mut drained = 0;
        loop {
            let due = t.begin_window();
            if due.is_empty() {
                break;
            }
            drained += due.len();
        }
        assert_eq!(drained, 4);
    }
}
