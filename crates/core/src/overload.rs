//! Overload protection: bounded mailboxes, admission control, circuit
//! breakers and collector pacing — all opt-in (§3.5 taken defensively).
//!
//! The paper's load balancing picks the *best* worker, but offers no
//! defense once every worker is saturated. This module adds the four
//! graceful-degradation mechanisms wired up by
//! [`GridBuilder::overload`](crate::grid::GridBuilder::overload):
//!
//! 1. **Bounded mailboxes** ([`MailboxConfig`], enforced by the
//!    platform layer on both runtimes) with priority-aware shedding over
//!    the [`MessageClass`] lattice.
//! 2. **Admission control** ([`AdmissionConfig`]): a token bucket at
//!    the grid root, refilled once per clock window and gated on the
//!    aggregate advertised load of the root's analyzer containers.
//!    Non-admitted task awards count `rejected` and park for a later
//!    window (or spill to a peer shard when federated).
//! 3. **Circuit breakers** ([`BreakerConfig`]): per-container
//!    Closed→Open→HalfOpen state driven by consecutive award timeouts,
//!    with [`BackoffPolicy`] scheduling the half-open probe. An open
//!    breaker diverts awards exactly like the Suspect liveness state —
//!    and *only* that: liveness sweeps run first and unconditionally,
//!    so a breaker can never mask a dead container (nor vice versa: a
//!    dead container's breaker state is forgotten on reclaim).
//! 4. **Collector pacing**: collectors stretch their poll interval
//!    multiplicatively while the platform signals mailbox pressure and
//!    recover additively once it clears.
//!
//! Every mechanism defaults to off; an unset [`OverloadConfig`] keeps
//! runs byte-identical to the unprotected grid.

use std::collections::BTreeMap;

use crate::recovery::{jitter_key, BackoffPolicy};

pub use agentgrid_platform::{MailboxConfig, MessageClass, OverloadStats, PressureSignal};

/// Admission-control knobs for the grid root (token bucket + aggregate
/// load gate).
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Maximum tokens the bucket holds — the burst allowance. The
    /// bucket starts full.
    pub bucket_capacity: u32,
    /// Tokens restored at each new clock window (distinct simulated
    /// timestamp), capped at `bucket_capacity`.
    pub refill_per_window: u32,
    /// Aggregate advertised-load ceiling in `[0, 1]`: when the mean load
    /// across the root's analyzer containers exceeds this, awards
    /// are not admitted regardless of tokens. `1.0` disables the gate.
    pub load_threshold: f64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            bucket_capacity: 8,
            refill_per_window: 4,
            load_threshold: 0.9,
        }
    }
}

/// Circuit-breaker knobs for per-container award diversion.
///
/// Breakers trip on consecutive award *timeouts*: the deadline expiries
/// of the always-on recovery layer.
#[derive(Debug, Clone, Copy)]
pub struct BreakerConfig {
    /// Consecutive timeouts that trip Closed → Open.
    pub failure_threshold: u32,
    /// Schedules the Open → HalfOpen probe: the `n`-th open waits
    /// `backoff.delay_ms(n, jitter_key(container))`.
    pub backoff: BackoffPolicy,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            backoff: BackoffPolicy::default(),
        }
    }
}

/// The full opt-in overload-protection configuration for
/// [`GridBuilder::overload`](crate::grid::GridBuilder::overload).
///
/// The default has every mechanism off, preserving today's unbounded
/// behavior byte-for-byte.
#[derive(Debug, Clone, Default)]
pub struct OverloadConfig {
    /// Bounded per-container mailboxes (platform layer, both runtimes).
    pub mailbox: Option<MailboxConfig>,
    /// Token-bucket admission control at the grid root.
    pub admission: Option<AdmissionConfig>,
    /// Per-container circuit breakers.
    pub breaker: Option<BreakerConfig>,
    /// Collector poll-interval pacing under mailbox pressure (requires
    /// `mailbox` — the pressure signal comes from the bounded-mailbox
    /// tracker).
    pub collector_pacing: bool,
}

impl OverloadConfig {
    /// An all-off configuration (same as `Default`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Bounds every container's mailbox at `capacity` deliveries per
    /// clock window, shedding overflow by [`MessageClass`].
    pub fn mailbox(mut self, capacity: usize) -> Self {
        self.mailbox = Some(MailboxConfig::new(capacity));
        self
    }

    /// Enables root admission control.
    pub fn admission(mut self, config: AdmissionConfig) -> Self {
        self.admission = Some(config);
        self
    }

    /// Enables per-container circuit breakers.
    pub fn breaker(mut self, config: BreakerConfig) -> Self {
        self.breaker = Some(config);
        self
    }

    /// Enables collector pacing (effective only together with
    /// [`mailbox`](Self::mailbox)).
    pub fn collector_pacing(mut self, enabled: bool) -> Self {
        self.collector_pacing = enabled;
        self
    }
}

/// Token-bucket admission gate, window-keyed: both runtimes may tick
/// several times within one simulated timestamp, so refills key on the
/// timestamp itself — identical token sequences on identical clocks.
#[derive(Debug)]
pub(crate) struct AdmissionGate {
    config: AdmissionConfig,
    tokens: u32,
    last_refill_ms: Option<u64>,
}

impl AdmissionGate {
    pub(crate) fn new(config: AdmissionConfig) -> Self {
        AdmissionGate {
            tokens: config.bucket_capacity,
            config,
            last_refill_ms: None,
        }
    }

    /// Admits one award at `now` given the aggregate advertised load of
    /// the root's analyzer containers. A rejected award consumes no token.
    pub(crate) fn admit(&mut self, now_ms: u64, aggregate_load: f64) -> bool {
        if self.last_refill_ms != Some(now_ms) {
            self.last_refill_ms = Some(now_ms);
            self.tokens = self
                .tokens
                .saturating_add(self.config.refill_per_window)
                .min(self.config.bucket_capacity);
        }
        if aggregate_load > self.config.load_threshold {
            return false;
        }
        if self.tokens == 0 {
            return false;
        }
        self.tokens -= 1;
        true
    }
}

/// One container's breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    /// Healthy; counting consecutive timeouts toward the threshold.
    Closed { consecutive: u32 },
    /// Tripped: awards divert until the probe time, counting how many
    /// times this breaker has opened (drives the probe backoff).
    Open { until_ms: u64, opens: u32 },
    /// Probing: one award is allowed through; its outcome closes or
    /// re-opens the breaker.
    HalfOpen { opens: u32 },
}

/// Per-container circuit breakers at the grid root.
#[derive(Debug)]
pub(crate) struct BreakerBoard {
    config: BreakerConfig,
    states: BTreeMap<String, BreakerState>,
    /// State changes since the last [`take_transitions`](Self::take_transitions)
    /// drain, as `(container, new-state label)` — feeds the flight recorder.
    transitions: Vec<(String, &'static str)>,
}

impl BreakerBoard {
    pub(crate) fn new(config: BreakerConfig) -> Self {
        BreakerBoard {
            config,
            states: BTreeMap::new(),
            transitions: Vec::new(),
        }
    }

    /// Whether awards to `container` should divert right now. An Open
    /// breaker whose probe time arrived transitions to HalfOpen and
    /// stops blocking (one probe award flows).
    pub(crate) fn blocks(&mut self, container: &str, now_ms: u64) -> bool {
        match self.states.get(container).copied() {
            Some(BreakerState::Open { until_ms, opens }) => {
                if now_ms < until_ms {
                    true
                } else {
                    self.states
                        .insert(container.to_owned(), BreakerState::HalfOpen { opens });
                    self.transitions.push((container.to_owned(), "half-open"));
                    false
                }
            }
            _ => false,
        }
    }

    /// Records one award timeout against `container`. Returns `true`
    /// when this failure tripped (or re-tripped) the breaker open.
    pub(crate) fn on_failure(&mut self, container: &str, now_ms: u64) -> bool {
        let state = self
            .states
            .entry(container.to_owned())
            .or_insert(BreakerState::Closed { consecutive: 0 });
        let opened = match *state {
            BreakerState::Closed { consecutive } => {
                let consecutive = consecutive + 1;
                if consecutive >= self.config.failure_threshold {
                    Some(0)
                } else {
                    *state = BreakerState::Closed { consecutive };
                    None
                }
            }
            // A failed probe re-opens with a longer wait.
            BreakerState::HalfOpen { opens } => Some(opens + 1),
            BreakerState::Open { .. } => None,
        };
        match opened {
            Some(opens) => {
                let wait = self.config.backoff.delay_ms(opens, jitter_key(container));
                *state = BreakerState::Open {
                    until_ms: now_ms.saturating_add(wait),
                    opens,
                };
                self.transitions.push((container.to_owned(), "open"));
                true
            }
            None => false,
        }
    }

    /// Records a completed task from `container`: closes its breaker
    /// and resets the consecutive-failure count.
    pub(crate) fn on_success(&mut self, container: &str) {
        let was_closed = matches!(
            self.states.get(container),
            None | Some(BreakerState::Closed { .. })
        );
        self.states.insert(
            container.to_owned(),
            BreakerState::Closed { consecutive: 0 },
        );
        if !was_closed {
            self.transitions.push((container.to_owned(), "closed"));
        }
    }

    /// Drains the state changes accumulated since the last drain, in
    /// occurrence order.
    pub(crate) fn take_transitions(&mut self) -> Vec<(String, &'static str)> {
        std::mem::take(&mut self.transitions)
    }

    /// Forgets a container (it died and was reclaimed): breaker state
    /// must not outlive the container, or a restart would inherit it.
    pub(crate) fn forget(&mut self, container: &str) {
        self.states.remove(container);
    }

    /// Gauge encoding for `agentgrid_breaker_state{container}`:
    /// 0 closed, 1 open, 2 half-open.
    pub(crate) fn gauge_value(&self, container: &str) -> i64 {
        match self.states.get(container) {
            Some(BreakerState::Open { .. }) => 1,
            Some(BreakerState::HalfOpen { .. }) => 2,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_breaker() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 2,
            backoff: BackoffPolicy {
                base_ms: 100,
                factor: 2,
                max_ms: 1_000,
                max_retries: 2,
                jitter_seed: 7,
            },
        }
    }

    #[test]
    fn bucket_refills_once_per_window() {
        let mut gate = AdmissionGate::new(AdmissionConfig {
            bucket_capacity: 2,
            refill_per_window: 1,
            load_threshold: 1.0,
        });
        // Starts full; two admits drain it within the same window.
        assert!(gate.admit(0, 0.0));
        assert!(gate.admit(0, 0.0));
        assert!(!gate.admit(0, 0.0), "empty within the window");
        // Same-window re-asks never refill, a new window refills once.
        assert!(!gate.admit(0, 0.0));
        assert!(gate.admit(1, 0.0));
        assert!(!gate.admit(1, 0.0));
    }

    #[test]
    fn load_threshold_rejects_without_consuming_tokens() {
        let mut gate = AdmissionGate::new(AdmissionConfig {
            bucket_capacity: 1,
            refill_per_window: 1,
            load_threshold: 0.5,
        });
        assert!(!gate.admit(0, 0.9), "over threshold");
        assert!(gate.admit(0, 0.1), "token survived the rejection");
    }

    #[test]
    fn breaker_trips_after_consecutive_failures_and_probes() {
        let mut board = BreakerBoard::new(fast_breaker());
        assert!(!board.blocks("pg-1", 0));
        assert!(!board.on_failure("pg-1", 0), "one failure: still closed");
        assert!(board.on_failure("pg-1", 0), "second failure trips it");
        assert!(board.blocks("pg-1", 1), "open diverts");
        assert_eq!(board.gauge_value("pg-1"), 1);
        // Probe time (base 100 ms ± 25 % jitter) certainly passed at
        // 10 s: the breaker half-opens and lets one award through.
        assert!(!board.blocks("pg-1", 10_000));
        assert_eq!(board.gauge_value("pg-1"), 2);
        // Failed probe re-opens; success closes for good.
        assert!(board.on_failure("pg-1", 10_000));
        assert!(board.blocks("pg-1", 10_001));
        assert!(!board.blocks("pg-1", 30_000));
        board.on_success("pg-1");
        assert!(!board.blocks("pg-1", 30_001));
        assert_eq!(board.gauge_value("pg-1"), 0);
    }

    #[test]
    fn success_resets_the_consecutive_count() {
        let mut board = BreakerBoard::new(fast_breaker());
        assert!(!board.on_failure("pg-1", 0));
        board.on_success("pg-1");
        assert!(!board.on_failure("pg-1", 0), "count restarted");
        assert!(board.on_failure("pg-1", 0));
    }

    #[test]
    fn transitions_log_records_every_state_change_once() {
        let mut board = BreakerBoard::new(fast_breaker());
        board.on_failure("pg-1", 0);
        board.on_success("pg-1"); // closed → closed: not a transition
        assert!(board.take_transitions().is_empty());
        board.on_failure("pg-1", 0);
        board.on_failure("pg-1", 0); // trips open
        assert!(!board.blocks("pg-1", 10_000)); // probe: half-open
        board.on_success("pg-1"); // closes
        assert_eq!(
            board.take_transitions(),
            vec![
                ("pg-1".to_owned(), "open"),
                ("pg-1".to_owned(), "half-open"),
                ("pg-1".to_owned(), "closed"),
            ]
        );
        assert!(board.take_transitions().is_empty(), "drained");
    }

    #[test]
    fn forget_clears_state_so_a_restart_starts_closed() {
        let mut board = BreakerBoard::new(fast_breaker());
        board.on_failure("pg-1", 0);
        board.on_failure("pg-1", 0);
        assert!(board.blocks("pg-1", 1));
        board.forget("pg-1");
        assert!(!board.blocks("pg-1", 1));
        assert_eq!(board.gauge_value("pg-1"), 0);
    }
}
