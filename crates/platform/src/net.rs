//! The seeded network adversary and the opt-in reliable-delivery layer.
//!
//! The paper's grids assume a benign transport; this module makes the
//! transport hostile **on purpose**, and then makes delivery survive it.
//! Two independent, individually opt-in pieces share one state machine:
//!
//! * **The adversary** — a composable set of per-link fault rules
//!   ([`LinkFaults`]: probabilistic drop, fixed-plus-jittered sim-time
//!   delay, duplication, bounded reordering) selected by [`LinkSelector`],
//!   plus **named partitions** (groups of containers that cannot exchange
//!   messages until the partition heals). Every decision is a pure
//!   function of `(seed, link, sequence, attempt)` through a splitmix64
//!   mixer, so the same seed replays the same faults bit-for-bit on the
//!   deterministic runtimes.
//! * **Reliability** ([`ReliabilityConfig`]) — per-(sender, receiver)
//!   sequence numbers, a bounded sender-side retransmit buffer driven by
//!   seeded exponential backoff, and a bounded receiver-side dedup
//!   window. With it enabled, effective delivery over a lossy link is
//!   **exactly once**: dropped and partition-blocked legs are
//!   retransmitted until the link lets them through, and duplicates
//!   (injected by the adversary or raced in by a retransmission) are
//!   suppressed at the dedup window.
//!
//! The acknowledgement channel is modelled as instantaneous and
//! reliable: a leg that reaches its mailbox is acked in the same
//! instant, so the retransmit buffer holds exactly the legs the
//! adversary refused. That is the standard simulator simplification —
//! the interesting failure surface (loss, reordering, duplication,
//! partitions on the *data* path) is fully exercised, without modelling
//! a second lossy channel whose failures reduce to more retransmits.
//!
//! Tie-breaking when several fault rules match one link is **union
//! semantics**: drop and duplication probabilities add (saturating at
//! certainty), delays and reorder windows take the maximum. A fault
//! window is closed by removing every rule under its selector
//! ([`NetCommand::ClearLinkFaults`]). So windows on different selectors
//! compose, but two overlapping windows on one selector do not: the
//! first to close also ends the other. Naming link-fault windows as
//! partitions are named fixes that (ROADMAP.md, item 9).
//!
//! This is the platform's only way to lose a message on purpose. A
//! chaos drop window (`ChaosPlan::drop_to_between` in the core crate)
//! is a [`LinkFaults::DROP_ALL`] rule under [`LinkSelector::To`], so its
//! drops count in [`NetStats::dropped`] and, with reliability on, are
//! retransmitted once the window closes.
//!
//! Everything here is wired through [`NetCommand`], which both runtimes
//! accept via
//! [`Runtime::net_command`](crate::runtime::Runtime::net_command) — the
//! adversary sits in the one shared routing path, after receiver
//! resolution and before overload admission, so the deterministic
//! stepper and the pool misbehave identically. Routing hands it batches
//! only while a rule, a partition or reliability is in force: with every
//! window closed, a batch costs what it did before the first opened.

use std::collections::{BTreeMap, BTreeSet};

use agentgrid_acl::{AgentId, SharedMessage};
use agentgrid_telemetry::{EventKind, Telemetry};

use crate::delivery::ContainerBatch;

/// Default bound on the retransmit buffer. Legs past the cap give up
/// (counted by [`NetStats::retransmit_overflow`]) instead of growing
/// memory without limit during a long partition.
pub const RETRANSMIT_CAP: usize = 4096;

/// Default bound on the per-link dedup window (highest sequence numbers
/// seen). Old entries age out lowest-first; sequence numbers are
/// monotone per link, so the window always covers the recent past.
pub const DEDUP_WINDOW: usize = 1024;

/// SplitMix64: tiny, high-quality stateless mixer. Every seeded draw in
/// the grid goes through it — the adversary's per-message decisions here,
/// and (re-exported as `agentgrid::recovery::splitmix64`) backoff jitter
/// and chaos schedules.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Stable 64-bit key for a (sender, receiver) link.
fn link_key(sender: &AgentId, receiver: &AgentId) -> u64 {
    let mut h = 0x006e_6574_u64; // "net"
    for b in sender.name().bytes() {
        h = splitmix64(h ^ u64::from(b));
    }
    h = splitmix64(h ^ 0x2f);
    for b in receiver.name().bytes() {
        h = splitmix64(h ^ u64::from(b));
    }
    h
}

/// `sender->receiver`, the link label used by flight-recorder events.
fn link_label(sender: &AgentId, receiver: &AgentId) -> String {
    format!("{}->{}", sender.name(), receiver.name())
}

/// Which links a fault rule applies to.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LinkSelector {
    /// Every link.
    All,
    /// Legs addressed to this agent.
    To(AgentId),
    /// Legs sent by this agent.
    From(AgentId),
    /// Legs from the first agent to the second (directional).
    Between(AgentId, AgentId),
}

impl LinkSelector {
    /// Whether the selector covers the `sender -> receiver` link.
    pub fn matches(&self, sender: &AgentId, receiver: &AgentId) -> bool {
        match self {
            LinkSelector::All => true,
            LinkSelector::To(to) => receiver == to,
            LinkSelector::From(from) => sender == from,
            LinkSelector::Between(from, to) => sender == from && receiver == to,
        }
    }
}

/// A composable bundle of per-link faults. `Default` is benign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkFaults {
    /// Probability of silently dropping a leg, in parts per million
    /// (1_000_000 = always).
    pub drop_ppm: u32,
    /// Fixed delivery delay in simulated milliseconds.
    pub delay_ms: u64,
    /// Additional seeded jitter: each delayed leg waits an extra
    /// `0..=delay_jitter_ms`.
    pub delay_jitter_ms: u64,
    /// Probability of delivering a leg twice, in parts per million.
    pub duplicate_ppm: u32,
    /// Bounded reordering: legs may be permuted within windows of this
    /// many batch entries (`0` or `1` = in-order).
    pub reorder_window: u32,
}

impl LinkFaults {
    /// Certain loss: every matching leg is dropped. A chaos drop window
    /// is this bundle under [`LinkSelector::To`].
    pub const DROP_ALL: LinkFaults = LinkFaults {
        drop_ppm: 1_000_000,
        delay_ms: 0,
        delay_jitter_ms: 0,
        duplicate_ppm: 0,
        reorder_window: 0,
    };

    /// Whether the bundle does nothing.
    pub fn is_benign(&self) -> bool {
        *self == LinkFaults::default()
    }

    /// Union-merge of two matching rules: probabilities add (capped at
    /// certainty), delays and windows take the maximum.
    fn merge(&mut self, other: &LinkFaults) {
        self.drop_ppm = self.drop_ppm.saturating_add(other.drop_ppm).min(1_000_000);
        self.delay_ms = self.delay_ms.max(other.delay_ms);
        self.delay_jitter_ms = self.delay_jitter_ms.max(other.delay_jitter_ms);
        self.duplicate_ppm = self
            .duplicate_ppm
            .saturating_add(other.duplicate_ppm)
            .min(1_000_000);
        self.reorder_window = self.reorder_window.max(other.reorder_window);
    }
}

/// The opt-in reliable-delivery policy: retransmit backoff (mirroring
/// the recovery layer's `BackoffPolicy` shape) plus buffer bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReliabilityConfig {
    /// First-retransmit delay in simulated milliseconds.
    pub base_ms: u64,
    /// Backoff multiplier per attempt.
    pub factor: u32,
    /// Cap on the pre-jitter retransmit delay.
    pub max_ms: u64,
    /// Seed decorrelating retransmit jitter across links.
    pub jitter_seed: u64,
    /// Bound on the retransmit buffer (see [`RETRANSMIT_CAP`]).
    pub retransmit_cap: usize,
    /// Bound on each link's dedup window (see [`DEDUP_WINDOW`]).
    pub dedup_window: usize,
}

impl Default for ReliabilityConfig {
    fn default() -> Self {
        ReliabilityConfig {
            base_ms: 5_000,
            factor: 2,
            max_ms: 60_000,
            jitter_seed: 0,
            retransmit_cap: RETRANSMIT_CAP,
            dedup_window: DEDUP_WINDOW,
        }
    }
}

impl ReliabilityConfig {
    /// The default policy with its jitter seed replaced.
    pub fn seeded(seed: u64) -> Self {
        ReliabilityConfig {
            jitter_seed: seed,
            ..ReliabilityConfig::default()
        }
    }

    /// Delay before retransmit `attempt` (1-based) of the leg keyed by
    /// `key` — `base · factor^(attempt-1)` capped at `max`, ± up to 25%
    /// deterministic jitter, never zero. Mirrors
    /// `BackoffPolicy::delay_ms` in the recovery layer.
    fn delay_ms(&self, attempt: u32, key: u64) -> u64 {
        let exp = u64::from(self.factor).saturating_pow(attempt.saturating_sub(1));
        let raw = self.base_ms.saturating_mul(exp).min(self.max_ms);
        let r = splitmix64(
            self.jitter_seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(key)
                .wrapping_add(u64::from(attempt) << 32),
        );
        let span = raw / 2;
        let jitter = if span == 0 { 0 } else { r % (span + 1) };
        (raw - raw / 4 + jitter).max(1)
    }
}

/// One command against the network layer, accepted by every runtime via
/// [`Runtime::net_command`](crate::runtime::Runtime::net_command).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetCommand {
    /// Replaces the adversary's seed (decision stream).
    Seed(u64),
    /// Opens a per-link fault window: the rule joins the active set
    /// (union semantics with other matching rules).
    AddLinkFaults(LinkSelector, LinkFaults),
    /// Closes every window opened under exactly this selector.
    ClearLinkFaults(LinkSelector),
    /// Opens (or replaces) a named partition: containers in different
    /// groups cannot exchange messages; containers in no group talk to
    /// everyone.
    OpenPartition(String, Vec<Vec<String>>),
    /// Heals the named partition.
    HealPartition(String),
    /// Enables the reliable-delivery layer with this policy.
    SetReliability(ReliabilityConfig),
}

/// Counters of the network layer, for reports and smoke checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetStats {
    /// Legs dropped by probabilistic loss (first attempts and
    /// retransmissions alike).
    pub dropped: u64,
    /// Legs held back by a delay rule.
    pub delayed: u64,
    /// Duplicate legs injected.
    pub duplicated: u64,
    /// Legs displaced by bounded reordering.
    pub reordered: u64,
    /// Legs blocked because sender and receiver containers sat in
    /// different partition groups.
    pub partition_dropped: u64,
    /// Retransmission attempts made by the reliability layer.
    pub retransmits: u64,
    /// Legs that reached their mailbox only thanks to a retransmission.
    pub delivered_after_retry: u64,
    /// Duplicate deliveries suppressed by the dedup window.
    pub dup_suppressed: u64,
    /// Legs abandoned because the retransmit buffer was full.
    pub retransmit_overflow: u64,
}

impl NetStats {
    /// Whether any counter moved (gates report sections).
    pub fn any(&self) -> bool {
        *self != NetStats::default()
    }
}

/// A leg waiting out its delay window. The leg is already "on the
/// wire": it re-enters at `due` without re-rolling drop or partition
/// checks (those applied when it was sent).
struct DelayedLeg {
    due: u64,
    message: SharedMessage,
    receiver: AgentId,
    link: u64,
    seq: u64,
}

/// A sender-side retransmit-buffer entry: an unacknowledged leg and
/// when to try it again.
struct PendingRetransmit {
    due: u64,
    message: SharedMessage,
    receiver: AgentId,
    link: u64,
    seq: u64,
    attempt: u32,
}

/// The adversary + reliability state machine. One per platform, driven
/// from the shared routing path.
pub(crate) struct NetAdversary {
    seed: u64,
    rules: Vec<(LinkSelector, LinkFaults)>,
    partitions: BTreeMap<String, Vec<Vec<String>>>,
    reliability: Option<ReliabilityConfig>,
    /// Per-link monotone sequence counters (the "wire" seq numbers).
    seqs: BTreeMap<u64, u64>,
    /// Per-link dedup windows: sequence numbers already delivered.
    seen: BTreeMap<u64, BTreeSet<u64>>,
    delayed: Vec<DelayedLeg>,
    retransmit: Vec<PendingRetransmit>,
    /// Monotone counter decorrelating reorder permutations per batch.
    reorder_round: u64,
    stats: NetStats,
}

impl std::fmt::Debug for NetAdversary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetAdversary")
            .field("rules", &self.rules.len())
            .field("partitions", &self.partitions.len())
            .field("reliability", &self.reliability.is_some())
            .field("delayed", &self.delayed.len())
            .field("retransmit", &self.retransmit.len())
            .finish()
    }
}

const SALT_DROP: u64 = 0xd409;
const SALT_JITTER: u64 = 0x1a77;
const SALT_DUP: u64 = 0xd0b1;

impl NetAdversary {
    pub(crate) fn new(seed: u64) -> Self {
        NetAdversary {
            seed,
            rules: Vec::new(),
            partitions: BTreeMap::new(),
            reliability: None,
            seqs: BTreeMap::new(),
            seen: BTreeMap::new(),
            delayed: Vec::new(),
            retransmit: Vec::new(),
            reorder_round: 0,
            stats: NetStats::default(),
        }
    }

    /// Applies one command.
    pub(crate) fn command(&mut self, command: NetCommand) {
        match command {
            NetCommand::Seed(seed) => self.seed = seed,
            NetCommand::AddLinkFaults(selector, faults) => self.rules.push((selector, faults)),
            NetCommand::ClearLinkFaults(selector) => {
                self.rules.retain(|(s, _)| s != &selector);
            }
            NetCommand::OpenPartition(name, groups) => {
                self.partitions.insert(name, groups);
            }
            NetCommand::HealPartition(name) => {
                self.partitions.remove(&name);
            }
            NetCommand::SetReliability(config) => self.reliability = Some(config),
        }
    }

    /// Whether freshly routed batches must pass through
    /// [`process_batch`](Self::process_batch): some fault rule,
    /// partition or reliability policy is in force. Delayed and
    /// retransmit legs drain through [`due`](Self::due) either way.
    pub(crate) fn is_active(&self) -> bool {
        !self.rules.is_empty() || !self.partitions.is_empty() || self.reliability.is_some()
    }

    pub(crate) fn stats(&self) -> NetStats {
        self.stats
    }

    /// Deterministic decision roll for `(link, seq, attempt, salt)`.
    fn roll(&self, link: u64, seq: u64, attempt: u32, salt: u64) -> u64 {
        splitmix64(
            self.seed
                ^ splitmix64(
                    link ^ seq.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        ^ (u64::from(attempt) << 48)
                        ^ salt,
                ),
        )
    }

    /// Union of every rule matching the link (see module docs for the
    /// tie-breaking contract).
    fn effective(&self, sender: &AgentId, receiver: &AgentId) -> LinkFaults {
        let mut merged = LinkFaults::default();
        for (selector, faults) in &self.rules {
            if selector.matches(sender, receiver) {
                merged.merge(faults);
            }
        }
        merged
    }

    /// Whether any active partition separates the two containers.
    fn partition_blocks(&self, sender_ct: Option<&str>, receiver_ct: Option<&str>) -> bool {
        let (Some(s), Some(r)) = (sender_ct, receiver_ct) else {
            return false;
        };
        if s == r {
            return false;
        }
        for groups in self.partitions.values() {
            let side_of = |ct: &str| groups.iter().position(|g| g.iter().any(|c| c == ct));
            if let (Some(sg), Some(rg)) = (side_of(s), side_of(r)) {
                if sg != rg {
                    return true;
                }
            }
        }
        false
    }

    /// Dedup gate: whether this `(link, seq)` may reach its mailbox.
    /// Without reliability every leg passes (duplicates deliver twice);
    /// with it, the first sight of a sequence number passes and every
    /// later sight is suppressed.
    fn deliver_allowed(&mut self, link: u64, seq: u64) -> bool {
        let Some(config) = self.reliability else {
            return true;
        };
        let window = self.seen.entry(link).or_default();
        if !window.insert(seq) {
            self.stats.dup_suppressed += 1;
            return false;
        }
        while window.len() > config.dedup_window.max(1) {
            let oldest = *window.iter().next().expect("window is non-empty");
            window.remove(&oldest);
        }
        true
    }

    /// With reliability on, parks an undelivered leg for retransmission;
    /// without, the leg is gone (a lossy network loses messages).
    fn park_for_retransmit(
        &mut self,
        message: &SharedMessage,
        receiver: &AgentId,
        link: u64,
        seq: u64,
        now_ms: u64,
    ) {
        let Some(config) = self.reliability else {
            return;
        };
        if self.retransmit.len() >= config.retransmit_cap.max(1) {
            self.stats.retransmit_overflow += 1;
            return;
        }
        self.retransmit.push(PendingRetransmit {
            due: now_ms + config.delay_ms(1, link ^ seq),
            message: SharedMessage::clone(message),
            receiver: receiver.clone(),
            link,
            seq,
            attempt: 0,
        });
    }

    /// Runs one freshly-routed container batch through the adversary.
    /// Returns the legs that deliver now (possibly reordered and with
    /// duplicates appended); dropped legs are parked for retransmission
    /// or lost, delayed legs re-enter via [`due`](Self::due).
    ///
    /// `resolve` maps an agent to its current container (for the
    /// partition check on the *sender* side; `receiver_ct` is the batch's
    /// container). Legs whose sender has no container (external posts)
    /// are never partition-blocked.
    pub(crate) fn process_batch(
        &mut self,
        receiver_ct: &str,
        legs: ContainerBatch,
        mut resolve: impl FnMut(&AgentId) -> Option<String>,
        now_ms: u64,
        telemetry: Option<&Telemetry>,
    ) -> ContainerBatch {
        let mut out: ContainerBatch = Vec::new();
        let mut max_window = 1u32;
        for (message, receivers) in legs {
            let sender = message.sender().clone();
            let sender_ct = resolve(&sender);
            for receiver in receivers {
                let link = link_key(&sender, &receiver);
                let seq = {
                    let counter = self.seqs.entry(link).or_insert(0);
                    *counter += 1;
                    *counter
                };
                let faults = self.effective(&sender, &receiver);
                max_window = max_window.max(faults.reorder_window);
                if self.partition_blocks(sender_ct.as_deref(), Some(receiver_ct)) {
                    self.stats.partition_dropped += 1;
                    self.park_for_retransmit(&message, &receiver, link, seq, now_ms);
                    continue;
                }
                if faults.drop_ppm > 0
                    && self.roll(link, seq, 0, SALT_DROP) % 1_000_000 < u64::from(faults.drop_ppm)
                {
                    self.stats.dropped += 1;
                    self.park_for_retransmit(&message, &receiver, link, seq, now_ms);
                    continue;
                }
                if faults.delay_ms > 0 || faults.delay_jitter_ms > 0 {
                    let jitter = if faults.delay_jitter_ms == 0 {
                        0
                    } else {
                        self.roll(link, seq, 0, SALT_JITTER) % (faults.delay_jitter_ms + 1)
                    };
                    let hold = faults.delay_ms + jitter;
                    if hold > 0 {
                        self.stats.delayed += 1;
                        if let Some(t) = telemetry {
                            t.record_event(
                                now_ms,
                                EventKind::Delayed {
                                    link: link_label(&sender, &receiver),
                                    ms: hold,
                                },
                            );
                        }
                        self.delayed.push(DelayedLeg {
                            due: now_ms + hold,
                            message: SharedMessage::clone(&message),
                            receiver,
                            link,
                            seq,
                        });
                        continue;
                    }
                }
                let duplicated = faults.duplicate_ppm > 0
                    && self.roll(link, seq, 0, SALT_DUP) % 1_000_000
                        < u64::from(faults.duplicate_ppm);
                if self.deliver_allowed(link, seq) {
                    out.push((SharedMessage::clone(&message), vec![receiver.clone()]));
                }
                if duplicated {
                    self.stats.duplicated += 1;
                    if let Some(t) = telemetry {
                        t.record_event(
                            now_ms,
                            EventKind::Duplicated {
                                link: link_label(&sender, &receiver),
                            },
                        );
                    }
                    if self.deliver_allowed(link, seq) {
                        out.push((SharedMessage::clone(&message), vec![receiver]));
                    }
                }
            }
        }
        if max_window >= 2 && out.len() >= 2 {
            out = self.reorder(out, max_window as usize);
        }
        out
    }

    /// Bounded deterministic reordering: the batch is permuted within
    /// windows of `window` entries, keyed off the seed and a monotone
    /// round counter — a leg moves at most `window - 1` positions. This
    /// deliberately violates per-link FIFO inside the window (that is
    /// the fault being injected); the dedup window keeps exactly-once
    /// delivery intact when reliability is on.
    fn reorder(&mut self, batch: ContainerBatch, window: usize) -> ContainerBatch {
        self.reorder_round += 1;
        let round = self.reorder_round;
        let mut out: ContainerBatch = Vec::with_capacity(batch.len());
        let mut chunk: ContainerBatch = Vec::with_capacity(window);
        let mut chunk_idx = 0u64;
        let mut flush = |chunk: &mut ContainerBatch, chunk_idx: u64, stats: &mut NetStats| {
            if chunk.len() > 1 {
                let mut order: Vec<usize> = (0..chunk.len()).collect();
                order.sort_by_key(|i| {
                    splitmix64(
                        self.seed ^ round.wrapping_mul(0x9e37_79b9) ^ (chunk_idx << 32) ^ *i as u64,
                    )
                });
                stats.reordered += order
                    .iter()
                    .enumerate()
                    .filter(|(at, from)| at != *from)
                    .count() as u64;
                let mut slots: Vec<Option<(SharedMessage, Vec<AgentId>)>> =
                    chunk.drain(..).map(Some).collect();
                for from in order {
                    out.push(slots[from].take().expect("each slot is taken once"));
                }
            } else {
                out.append(chunk);
            }
        };
        let mut stats = std::mem::take(&mut self.stats);
        for leg in batch {
            chunk.push(leg);
            if chunk.len() == window {
                flush(&mut chunk, chunk_idx, &mut stats);
                chunk_idx += 1;
            }
        }
        flush(&mut chunk, chunk_idx, &mut stats);
        self.stats = stats;
        out
    }

    /// Drains every delayed and retransmit leg due at `now_ms`, in
    /// insertion order. Returned legs already passed the dedup window
    /// and any partition/drop re-checks; retransmissions that are still
    /// blocked re-park themselves with the next backoff step. Callers
    /// deliver the returned legs directly (re-resolving the receiver —
    /// it may have died while the leg waited).
    pub(crate) fn due(
        &mut self,
        now_ms: u64,
        mut resolve: impl FnMut(&AgentId) -> Option<String>,
        telemetry: Option<&Telemetry>,
    ) -> Vec<(SharedMessage, AgentId)> {
        if self.delayed.is_empty() && self.retransmit.is_empty() {
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut waiting = Vec::new();
        for leg in std::mem::take(&mut self.delayed) {
            if leg.due > now_ms {
                waiting.push(leg);
            } else if self.deliver_allowed(leg.link, leg.seq) {
                out.push((leg.message, leg.receiver));
            }
        }
        self.delayed = waiting;

        let mut parked = Vec::new();
        for mut entry in std::mem::take(&mut self.retransmit) {
            if entry.due > now_ms {
                parked.push(entry);
                continue;
            }
            entry.attempt += 1;
            self.stats.retransmits += 1;
            if let Some(t) = telemetry {
                t.record_event(
                    now_ms,
                    EventKind::Retransmit {
                        link: link_label(entry.message.sender(), &entry.receiver),
                        attempt: entry.attempt,
                    },
                );
            }
            let sender_ct = resolve(entry.message.sender());
            let receiver_ct = resolve(&entry.receiver);
            let blocked = self.partition_blocks(sender_ct.as_deref(), receiver_ct.as_deref());
            let faults = self.effective(entry.message.sender(), &entry.receiver);
            let dropped = !blocked
                && faults.drop_ppm > 0
                && self.roll(entry.link, entry.seq, entry.attempt, SALT_DROP) % 1_000_000
                    < u64::from(faults.drop_ppm);
            if blocked || dropped {
                if blocked {
                    self.stats.partition_dropped += 1;
                } else {
                    self.stats.dropped += 1;
                }
                let config = self
                    .reliability
                    .expect("retransmit entries imply reliability");
                entry.due = now_ms + config.delay_ms(entry.attempt + 1, entry.link ^ entry.seq);
                parked.push(entry);
                continue;
            }
            self.stats.delivered_after_retry += 1;
            if self.deliver_allowed(entry.link, entry.seq) {
                out.push((entry.message, entry.receiver));
            }
        }
        self.retransmit = parked;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agentgrid_acl::{AclMessage, Performative};

    fn msg(sender: &str, receiver: &str) -> SharedMessage {
        AclMessage::builder(Performative::Inform)
            .sender(AgentId::new(sender))
            .receiver(AgentId::new(receiver))
            .build()
            .unwrap()
            .into_shared()
    }

    fn leg(sender: &str, receiver: &str) -> (SharedMessage, Vec<AgentId>) {
        (msg(sender, receiver), vec![AgentId::new(receiver)])
    }

    fn resolve_all(_: &AgentId) -> Option<String> {
        Some("ct".to_owned())
    }

    #[test]
    fn benign_adversary_passes_batches_through() {
        let mut net = NetAdversary::new(7);
        assert!(
            !net.is_active(),
            "routing skips an adversary with no window"
        );
        let batch = vec![leg("a@x", "b@x")];
        let out = net.process_batch("ct", batch, resolve_all, 0, None);
        assert_eq!(out.len(), 1);
        assert!(!net.stats().any());
    }

    #[test]
    fn certain_drop_loses_the_leg_without_reliability() {
        let mut net = NetAdversary::new(7);
        net.command(NetCommand::AddLinkFaults(
            LinkSelector::All,
            LinkFaults::DROP_ALL,
        ));
        let out = net.process_batch("ct", vec![leg("a@x", "b@x")], resolve_all, 0, None);
        assert!(out.is_empty());
        assert_eq!(net.stats().dropped, 1);
        assert!(
            net.due(10_000, resolve_all, None).is_empty(),
            "no retransmit"
        );
    }

    #[test]
    fn reliability_retransmits_until_the_window_closes() {
        let mut net = NetAdversary::new(7);
        net.command(NetCommand::SetReliability(ReliabilityConfig::seeded(7)));
        net.command(NetCommand::AddLinkFaults(
            LinkSelector::All,
            LinkFaults::DROP_ALL,
        ));
        let out = net.process_batch("ct", vec![leg("a@x", "b@x")], resolve_all, 0, None);
        assert!(out.is_empty());
        // While the window is open every due retransmission re-drops.
        let mut now = 0;
        for _ in 0..3 {
            now += 120_000;
            assert!(net.due(now, resolve_all, None).is_empty());
        }
        assert!(net.stats().retransmits >= 3);
        // Close the window: the next retransmission delivers, exactly once.
        net.command(NetCommand::ClearLinkFaults(LinkSelector::All));
        let delivered = net.due(now + 120_000, resolve_all, None);
        assert_eq!(delivered.len(), 1);
        assert_eq!(net.stats().delivered_after_retry, 1);
        assert!(net.due(now + 240_000, resolve_all, None).is_empty());
    }

    #[test]
    fn duplicates_are_suppressed_only_with_reliability() {
        let dup = LinkFaults {
            duplicate_ppm: 1_000_000,
            ..LinkFaults::default()
        };
        let mut lossy = NetAdversary::new(3);
        lossy.command(NetCommand::AddLinkFaults(LinkSelector::All, dup));
        let out = lossy.process_batch("ct", vec![leg("a@x", "b@x")], resolve_all, 0, None);
        assert_eq!(out.len(), 2, "without reliability the duplicate delivers");
        assert_eq!(lossy.stats().duplicated, 1);

        let mut reliable = NetAdversary::new(3);
        reliable.command(NetCommand::AddLinkFaults(LinkSelector::All, dup));
        reliable.command(NetCommand::SetReliability(ReliabilityConfig::seeded(3)));
        let out = reliable.process_batch("ct", vec![leg("a@x", "b@x")], resolve_all, 0, None);
        assert_eq!(out.len(), 1, "the dedup window suppresses the duplicate");
        assert_eq!(reliable.stats().dup_suppressed, 1);
    }

    #[test]
    fn delayed_legs_re_enter_on_the_clock() {
        let mut net = NetAdversary::new(5);
        net.command(NetCommand::AddLinkFaults(
            LinkSelector::All,
            LinkFaults {
                delay_ms: 1_000,
                delay_jitter_ms: 500,
                ..LinkFaults::default()
            },
        ));
        let out = net.process_batch("ct", vec![leg("a@x", "b@x")], resolve_all, 0, None);
        assert!(out.is_empty());
        assert_eq!(net.stats().delayed, 1);
        assert!(net.due(999, resolve_all, None).is_empty(), "not due yet");
        let due = net.due(1_500, resolve_all, None);
        assert_eq!(due.len(), 1);
    }

    #[test]
    fn partitions_block_across_groups_only() {
        let mut net = NetAdversary::new(1);
        net.command(NetCommand::OpenPartition(
            "island".into(),
            vec![vec!["pg-1".into()], vec!["pg-2".into()]],
        ));
        let resolve = |a: &AgentId| {
            Some(if a.name().contains("one") {
                "pg-1".to_owned()
            } else {
                "pg-2".to_owned()
            })
        };
        // Cross-group: blocked. Same group: fine. Unlisted container: fine.
        let out = net.process_batch("pg-2", vec![leg("one@x", "two@x")], resolve, 0, None);
        assert!(out.is_empty());
        assert_eq!(net.stats().partition_dropped, 1);
        let out = net.process_batch("pg-2", vec![leg("two@x", "other-two@x")], resolve, 0, None);
        assert_eq!(out.len(), 1);
        let out = net.process_batch(
            "cg-hq",
            vec![leg("one@x", "collector@x")],
            |a: &AgentId| {
                Some(if a.name().contains("one") {
                    "pg-1".to_owned()
                } else {
                    "cg-hq".to_owned()
                })
            },
            0,
            None,
        );
        assert_eq!(out.len(), 1, "containers outside every group talk to all");
        // Heal: cross-group traffic flows again.
        net.command(NetCommand::HealPartition("island".into()));
        let out = net.process_batch("pg-2", vec![leg("one@x", "two@x")], resolve, 0, None);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn partitioned_legs_deliver_after_heal_with_reliability() {
        let mut net = NetAdversary::new(1);
        net.command(NetCommand::SetReliability(ReliabilityConfig::seeded(1)));
        net.command(NetCommand::OpenPartition(
            "island".into(),
            vec![vec!["pg-1".into()], vec!["rest".into()]],
        ));
        let resolve = |a: &AgentId| {
            Some(if a.name() == "one@x" {
                "pg-1".to_owned()
            } else {
                "rest".to_owned()
            })
        };
        let out = net.process_batch("rest", vec![leg("one@x", "two@x")], resolve, 0, None);
        assert!(out.is_empty());
        assert!(
            net.due(60_000, resolve, None).is_empty(),
            "still partitioned"
        );
        net.command(NetCommand::HealPartition("island".into()));
        let healed = net.due(240_000, resolve, None);
        assert_eq!(healed.len(), 1, "the parked leg crosses after the heal");
        assert_eq!(healed[0].1, AgentId::new("two@x"));
    }

    #[test]
    fn reordering_is_bounded_and_deterministic() {
        let build = || {
            let mut net = NetAdversary::new(11);
            net.command(NetCommand::AddLinkFaults(
                LinkSelector::All,
                LinkFaults {
                    reorder_window: 4,
                    ..LinkFaults::default()
                },
            ));
            net
        };
        let batch =
            || -> ContainerBatch { (0..8).map(|i| leg(&format!("s{i}@x"), "r@x")).collect() };
        let mut a = build();
        let out_a = a.process_batch("ct", batch(), resolve_all, 0, None);
        let mut b = build();
        let out_b = b.process_batch("ct", batch(), resolve_all, 0, None);
        assert_eq!(out_a.len(), 8);
        let senders = |batch: &ContainerBatch| -> Vec<String> {
            batch
                .iter()
                .map(|(m, _)| m.sender().name().to_owned())
                .collect()
        };
        assert_eq!(
            senders(&out_a),
            senders(&out_b),
            "same seed, same permutation"
        );
        // Bounded: an entry never leaves its window of 4.
        for (at, (m, _)) in out_a.iter().enumerate() {
            let from: usize = m.sender().name()[1..2].parse().unwrap();
            assert_eq!(at / 4, from / 4, "leg {from} escaped its window");
        }
        assert!(a.stats().reordered > 0, "seed 11 permutes something");
    }

    #[test]
    fn fault_windows_compose_and_clear_by_selector() {
        let mut net = NetAdversary::new(2);
        let to = LinkSelector::To(AgentId::new("b@x"));
        net.command(NetCommand::AddLinkFaults(
            LinkSelector::All,
            LinkFaults {
                drop_ppm: 600_000,
                ..LinkFaults::default()
            },
        ));
        net.command(NetCommand::AddLinkFaults(
            to.clone(),
            LinkFaults {
                drop_ppm: 600_000,
                delay_ms: 250,
                ..LinkFaults::default()
            },
        ));
        let merged = net.effective(&AgentId::new("a@x"), &AgentId::new("b@x"));
        assert_eq!(merged.drop_ppm, 1_000_000, "probabilities add, capped");
        assert_eq!(merged.delay_ms, 250);
        // Scoped clear: only the To window closes.
        net.command(NetCommand::ClearLinkFaults(to));
        let merged = net.effective(&AgentId::new("a@x"), &AgentId::new("b@x"));
        assert_eq!(merged.drop_ppm, 600_000);
        assert_eq!(merged.delay_ms, 0);
    }

    #[test]
    fn decisions_are_pure_functions_of_seed_link_and_seq() {
        let run = |seed: u64| {
            let mut net = NetAdversary::new(seed);
            net.command(NetCommand::AddLinkFaults(
                LinkSelector::All,
                LinkFaults {
                    drop_ppm: 400_000,
                    ..LinkFaults::default()
                },
            ));
            let batch: ContainerBatch = (0..32).map(|i| leg("s@x", &format!("r{i}@x"))).collect();
            let out = net.process_batch("ct", batch, resolve_all, 0, None);
            out.iter()
                .map(|(_, r)| r[0].name().to_owned())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9), "same seed, same survivors");
        assert_ne!(run(9), run(10), "different seed, different survivors");
    }

    #[test]
    fn retransmit_buffer_is_bounded() {
        let mut net = NetAdversary::new(4);
        net.command(NetCommand::SetReliability(ReliabilityConfig {
            retransmit_cap: 2,
            ..ReliabilityConfig::seeded(4)
        }));
        net.command(NetCommand::AddLinkFaults(
            LinkSelector::All,
            LinkFaults::DROP_ALL,
        ));
        let batch: ContainerBatch = (0..5).map(|i| leg("s@x", &format!("r{i}@x"))).collect();
        let out = net.process_batch("ct", batch, resolve_all, 0, None);
        assert!(out.is_empty());
        assert_eq!(net.stats().retransmit_overflow, 3);
    }
}
