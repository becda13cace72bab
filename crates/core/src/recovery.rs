//! Failure-detection and recovery policies.
//!
//! The paper's grids assume a benign network; this module adds the
//! knobs that make the processor grid survive a hostile one:
//!
//! * [`LivenessConfig`] — how stale a container's heartbeat (recorded in
//!   the directory, see
//!   [`DirectoryFacilitator::record_heartbeat`](agentgrid_platform::DirectoryFacilitator::record_heartbeat))
//!   may grow before the grid root marks it [`Liveness::Suspect`] and
//!   then [`Liveness::Dead`];
//! * [`BackoffPolicy`] — seeded exponential backoff with jitter for
//!   request/reply deadlines (broker task awards, collector polls);
//! * [`RecoveryConfig`] — the bundle handed to
//!   [`GridBuilder::recovery`](crate::grid::GridBuilder::recovery).
//!
//! The recovery layer is the grid's one fault-handling path and is
//! always on; a grid built without `.recovery(..)` runs it under
//! [`RecoveryConfig::default`].
//!
//! Everything here is driven by **simulated time** and a caller-provided
//! seed — no wall clocks, no global RNG — so recovery decisions are
//! exactly reproducible on both the deterministic and the pool runtime.
//!
//! # Examples
//!
//! ```
//! use agentgrid::recovery::{BackoffPolicy, Liveness, LivenessConfig};
//!
//! let backoff = BackoffPolicy::default().with_seed(42);
//! let d0 = backoff.delay_ms(0, 7);
//! let d1 = backoff.delay_ms(1, 7);
//! assert!(d1 > d0, "delays grow with the attempt number");
//! assert_eq!(d0, BackoffPolicy::default().with_seed(42).delay_ms(0, 7));
//!
//! let liveness = LivenessConfig::default();
//! assert_eq!(liveness.classify(0), Liveness::Alive);
//! assert_eq!(liveness.classify(liveness.dead_after_ms + 1), Liveness::Dead);
//! ```

/// SplitMix64, the platform's stateless mixer: the recovery layer's
/// reproducible pseudo-randomness from a seed and a counter (backoff
/// jitter, chaos schedules).
pub use agentgrid_platform::net::splitmix64;

/// Stable jitter key for a string identifier (task id, device name):
/// folds the bytes through [`splitmix64`] so the retry schedules of
/// different work items decorrelate.
pub fn jitter_key(id: &str) -> u64 {
    id.bytes()
        .fold(0xacde_u64, |h, b| splitmix64(h ^ u64::from(b)))
}

/// Liveness verdict for a container, derived from heartbeat staleness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Liveness {
    /// Heartbeats are current; the container receives work.
    Alive,
    /// Heartbeats are stale; the container is excluded from new awards
    /// but its in-flight tasks are left to their deadlines.
    Suspect,
    /// Heartbeats exceeded the death threshold: the container is
    /// deregistered and its in-flight tasks are re-brokered.
    Dead,
}

impl Liveness {
    /// Numeric encoding used by the
    /// `agentgrid_container_liveness` gauge (0 = alive, 1 = suspect,
    /// 2 = dead).
    pub fn as_gauge(self) -> i64 {
        match self {
            Liveness::Alive => 0,
            Liveness::Suspect => 1,
            Liveness::Dead => 2,
        }
    }
}

/// Heartbeat staleness thresholds.
///
/// Containers heartbeat once per tick (their agents record into the
/// directory on every `on_tick`). The defaults assume the grid's
/// canonical 60-second tick: two missed beats make a container suspect,
/// three make it dead — N-missed-heartbeats failure detection à la
/// φ-accrual's crude integer cousin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LivenessConfig {
    /// Staleness (ms of simulated time since the last heartbeat) after
    /// which a container is suspect.
    pub suspect_after_ms: u64,
    /// Staleness after which a container is declared dead.
    pub dead_after_ms: u64,
}

impl Default for LivenessConfig {
    fn default() -> Self {
        LivenessConfig {
            suspect_after_ms: 2 * 60_000,
            dead_after_ms: 3 * 60_000,
        }
    }
}

impl LivenessConfig {
    /// Classifies a container from its heartbeat staleness.
    pub fn classify(&self, staleness_ms: u64) -> Liveness {
        if staleness_ms >= self.dead_after_ms {
            Liveness::Dead
        } else if staleness_ms >= self.suspect_after_ms {
            Liveness::Suspect
        } else {
            Liveness::Alive
        }
    }
}

/// Seeded exponential backoff with jitter.
///
/// The delay before retry `attempt` (0-based) is
///
/// ```text
/// base_ms · factor^attempt, capped at max_ms, ± up to 25% jitter
/// ```
///
/// where the jitter is drawn deterministically from
/// `(jitter_seed, key, attempt)` via [`splitmix64`] — two parties with
/// the same seed compute identical schedules, and distinct keys (task
/// ids, device names) decorrelate their retry storms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// First-retry delay in simulated milliseconds.
    pub base_ms: u64,
    /// Multiplier applied per attempt.
    pub factor: u32,
    /// Upper bound on the pre-jitter delay.
    pub max_ms: u64,
    /// Retries before the caller escalates (the initial try is not
    /// counted).
    pub max_retries: u32,
    /// Seed decorrelating jitter across grids.
    pub jitter_seed: u64,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            base_ms: 60_000,
            factor: 2,
            max_ms: 8 * 60_000,
            max_retries: 2,
            jitter_seed: 0,
        }
    }
}

impl BackoffPolicy {
    /// Returns the policy with its jitter seed replaced.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.jitter_seed = seed;
        self
    }

    /// Delay before retry `attempt` (0-based) of the work item
    /// identified by `key`. Always at least 1 ms, so a retry scheduled
    /// "now" still lands strictly in the future of the current tick.
    pub fn delay_ms(&self, attempt: u32, key: u64) -> u64 {
        let exp = u64::from(self.factor).saturating_pow(attempt);
        let raw = self.base_ms.saturating_mul(exp).min(self.max_ms);
        // ± up to 25%, deterministic in (seed, key, attempt).
        let r = splitmix64(
            self.jitter_seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(key)
                .wrapping_add(u64::from(attempt) << 32),
        );
        let span = raw / 2; // jitter window: raw ± raw/4
        let jitter = if span == 0 { 0 } else { r % (span + 1) };
        (raw - raw / 4 + jitter).max(1)
    }
}

/// The recovery bundle: liveness detection plus retry/backoff, handed to
/// [`GridBuilder::recovery`](crate::grid::GridBuilder::recovery). Every
/// grid runs the recovery layer; the default bundle applies unless one
/// is set.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Heartbeat staleness thresholds.
    pub liveness: LivenessConfig,
    /// Deadline/backoff policy for broker awards and collector polls.
    pub backoff: BackoffPolicy,
}

impl RecoveryConfig {
    /// A default-threshold config whose backoff jitter uses `seed`.
    pub fn seeded(seed: u64) -> Self {
        RecoveryConfig {
            liveness: LivenessConfig::default(),
            backoff: BackoffPolicy::default().with_seed(seed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_maps_staleness_to_states() {
        let cfg = LivenessConfig {
            suspect_after_ms: 100,
            dead_after_ms: 200,
        };
        assert_eq!(cfg.classify(0), Liveness::Alive);
        assert_eq!(cfg.classify(99), Liveness::Alive);
        assert_eq!(cfg.classify(100), Liveness::Suspect);
        assert_eq!(cfg.classify(199), Liveness::Suspect);
        assert_eq!(cfg.classify(200), Liveness::Dead);
        assert_eq!(cfg.classify(u64::MAX), Liveness::Dead);
    }

    #[test]
    fn backoff_grows_caps_and_reproduces() {
        let p = BackoffPolicy {
            base_ms: 1_000,
            factor: 2,
            max_ms: 8_000,
            max_retries: 3,
            jitter_seed: 9,
        };
        let d: Vec<u64> = (0..6).map(|a| p.delay_ms(a, 1)).collect();
        // Within ±25% of 1s, 2s, 4s, then capped at 8s ± 25%.
        assert!(d[0] >= 750 && d[0] <= 1_250, "{d:?}");
        assert!(d[1] >= 1_500 && d[1] <= 2_500, "{d:?}");
        assert!(d[2] >= 3_000 && d[2] <= 5_000, "{d:?}");
        for late in &d[3..] {
            assert!(*late >= 6_000 && *late <= 10_000, "{d:?}");
        }
        // Deterministic in (seed, key, attempt)…
        assert_eq!(p.delay_ms(2, 1), p.delay_ms(2, 1));
        // …and decorrelated across keys and seeds.
        assert_ne!(p.delay_ms(2, 1), p.delay_ms(2, 2));
        assert_ne!(
            p.delay_ms(2, 1),
            BackoffPolicy {
                jitter_seed: 10,
                ..p
            }
            .delay_ms(2, 1)
        );
    }

    #[test]
    fn backoff_never_returns_zero() {
        let p = BackoffPolicy {
            base_ms: 0,
            factor: 2,
            max_ms: 0,
            max_retries: 1,
            jitter_seed: 0,
        };
        assert_eq!(p.delay_ms(0, 0), 1);
    }

    #[test]
    fn liveness_gauge_encoding_is_stable() {
        assert_eq!(Liveness::Alive.as_gauge(), 0);
        assert_eq!(Liveness::Suspect.as_gauge(), 1);
        assert_eq!(Liveness::Dead.as_gauge(), 2);
    }
}
