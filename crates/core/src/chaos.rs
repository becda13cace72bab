//! Deterministic chaos schedules for recovery testing.
//!
//! A [`ChaosPlan`] is a seeded, simulated-time-driven schedule of
//! container crashes, restarts and transport-fault windows. The grid
//! applies due actions at the top of each tick, so the same plan
//! produces the same failure sequence on the deterministic runtime and
//! the pool runtime — no wall clocks, no global RNG.
//!
//! # Examples
//!
//! Hand-written plan: crash an analyzer two minutes in, bring it back at
//! minute five.
//!
//! ```
//! use agentgrid::chaos::ChaosPlan;
//!
//! let plan = ChaosPlan::new()
//!     .crash_at(2 * 60_000, "pg-1")
//!     .restart_at(5 * 60_000, "pg-1");
//! assert_eq!(plan.len(), 2);
//! ```
//!
//! Seeded plan: the schedule is a pure function of the seed.
//!
//! ```
//! use agentgrid::chaos::ChaosPlan;
//!
//! let a = ChaosPlan::seeded(42, &["pg-1".into(), "pg-2".into()], 20 * 60_000);
//! let b = ChaosPlan::seeded(42, &["pg-1".into(), "pg-2".into()], 20 * 60_000);
//! assert_eq!(a, b);
//! ```

use agentgrid_acl::AgentId;
use agentgrid_platform::{LinkFaults, LinkSelector, TransportFault};

use crate::recovery::splitmix64;

/// One scheduled failure (or repair) event.
///
/// Fault windows are **composable**: `SetFault` adds to the active
/// fault set (union semantics — any matching fault drops the leg), and
/// a window closes with [`ClearFaultScoped`](Self::ClearFaultScoped)
/// without healing the others. The blanket
/// [`ClearFault`](Self::ClearFault) still heals everything at once.
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosAction {
    /// Silent crash: the container vanishes, the directory keeps its
    /// stale entries — only heartbeat staleness reveals the death.
    Crash(String),
    /// The container rejoins the grid with fresh analyzer agents.
    Restart(String),
    /// A transport fault window opens (joins the composable set).
    SetFault(TransportFault),
    /// The transport heals completely: every open fault window closes.
    ClearFault,
    /// Exactly this fault clears; other open windows stay in force.
    ClearFaultScoped(TransportFault),
    /// A per-link fault window (probabilistic drop, delay, duplication,
    /// reordering) opens under this selector.
    LinkFaultsOpen(LinkSelector, LinkFaults),
    /// Every per-link window opened under exactly this selector closes.
    LinkFaultsClear(LinkSelector),
    /// A named partition opens: containers in different groups can no
    /// longer exchange messages (containers in no group are unaffected).
    PartitionOpen(String, Vec<Vec<String>>),
    /// The named partition heals.
    PartitionHeal(String),
}

/// A sorted schedule of [`ChaosAction`]s against simulated time.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChaosPlan {
    /// `(due_ms, action)`, kept sorted by time (stable for equal times:
    /// insertion order breaks ties, so plans replay identically).
    events: Vec<(u64, ChaosAction)>,
}

impl ChaosPlan {
    /// An empty plan.
    pub fn new() -> Self {
        ChaosPlan::default()
    }

    fn push(mut self, at_ms: u64, action: ChaosAction) -> Self {
        let idx = self.events.partition_point(|(t, _)| *t <= at_ms);
        self.events.insert(idx, (at_ms, action));
        self
    }

    /// Schedules a silent crash of `container` at `at_ms`.
    pub fn crash_at(self, at_ms: u64, container: impl Into<String>) -> Self {
        self.push(at_ms, ChaosAction::Crash(container.into()))
    }

    /// Schedules a restart of `container` at `at_ms`.
    pub fn restart_at(self, at_ms: u64, container: impl Into<String>) -> Self {
        self.push(at_ms, ChaosAction::Restart(container.into()))
    }

    /// Schedules a window `[from_ms, until_ms)` during which messages
    /// **to** `agent` are dropped silently. The close is the blanket
    /// [`ChaosAction::ClearFault`] (legacy behaviour, kept so existing
    /// seeded schedules replay identically); overlapping windows should
    /// use [`drop_to_between_scoped`](Self::drop_to_between_scoped).
    pub fn drop_to_between(self, from_ms: u64, until_ms: u64, agent: AgentId) -> Self {
        self.push(
            from_ms,
            ChaosAction::SetFault(TransportFault::DropTo(agent)),
        )
        .push(until_ms, ChaosAction::ClearFault)
    }

    /// Schedules a drop-to window `[from_ms, until_ms)` whose close
    /// removes exactly this fault, leaving other open windows in force
    /// — the composable form of
    /// [`drop_to_between`](Self::drop_to_between).
    pub fn drop_to_between_scoped(self, from_ms: u64, until_ms: u64, agent: AgentId) -> Self {
        self.push(
            from_ms,
            ChaosAction::SetFault(TransportFault::DropTo(agent.clone())),
        )
        .push(
            until_ms,
            ChaosAction::ClearFaultScoped(TransportFault::DropTo(agent)),
        )
    }

    /// Schedules a per-link fault window `[from_ms, until_ms)` under
    /// `selector`. The close clears exactly that selector's rules, so
    /// overlapping windows compose (union semantics while both are
    /// open).
    pub fn link_faults_between(
        self,
        from_ms: u64,
        until_ms: u64,
        selector: LinkSelector,
        faults: LinkFaults,
    ) -> Self {
        self.push(
            from_ms,
            ChaosAction::LinkFaultsOpen(selector.clone(), faults),
        )
        .push(until_ms, ChaosAction::LinkFaultsClear(selector))
    }

    /// Schedules a named partition over `[from_ms, until_ms)`:
    /// containers in different `groups` cannot exchange messages until
    /// the heal.
    pub fn partition_between(
        self,
        from_ms: u64,
        until_ms: u64,
        name: impl Into<String>,
        groups: Vec<Vec<String>>,
    ) -> Self {
        let name = name.into();
        self.push(from_ms, ChaosAction::PartitionOpen(name.clone(), groups))
            .push(until_ms, ChaosAction::PartitionHeal(name))
    }

    /// Generates a crash/restart (and possibly one transport-fault
    /// window) schedule as a pure function of `seed`, choosing victims
    /// among `containers` within `[0, horizon_ms)`.
    ///
    /// The generated shape is deliberately simple — one victim container
    /// crashed a few minutes in and restarted a few minutes later,
    /// optionally preceded by a drop-to window that strands in-flight
    /// work on the victim — because the point is reproducible recovery
    /// pressure, not adversarial scheduling.
    pub fn seeded(seed: u64, containers: &[String], horizon_ms: u64) -> Self {
        if containers.is_empty() || horizon_ms < 8 * 60_000 {
            return ChaosPlan::new();
        }
        let minute = 60_000;
        let r0 = splitmix64(seed);
        let victim = &containers[(r0 % containers.len() as u64) as usize];
        // Crash between minutes 2 and 5; restart 2–4 minutes later.
        let crash_ms = (2 + splitmix64(seed ^ 1) % 4) * minute;
        let restart_ms = crash_ms + (2 + splitmix64(seed ^ 2) % 3) * minute;
        let mut plan = ChaosPlan::new()
            .crash_at(crash_ms, victim.clone())
            .restart_at(
                restart_ms.min(horizon_ms.saturating_sub(2 * minute)),
                victim.clone(),
            );
        // Half the seeds also open a one-minute drop window to the
        // victim's analyzer right before the crash, so awards made in
        // that window are stranded in flight when the container dies.
        if splitmix64(seed ^ 3).is_multiple_of(2) {
            let agent = AgentId::new(format!("analyzer-{victim}@grid"));
            plan = plan.drop_to_between(crash_ms.saturating_sub(minute), crash_ms, agent);
        }
        plan
    }

    /// Generates a pure-**network** adversary schedule (no crashes) as a
    /// pure function of `seed`: a long loss+duplication window across
    /// every link, a delay+reorder window aimed at the seeded victim's
    /// analyzer, and one named partition separating the victim container
    /// from the rest of the grid, healed a few minutes later. Designed
    /// to run with the reliability layer on: the loss and partition
    /// windows force retransmissions, the duplication window forces
    /// dedup suppressions, and no task may be lost.
    pub fn seeded_net(seed: u64, containers: &[String], horizon_ms: u64) -> Self {
        if containers.is_empty() || horizon_ms < 10 * 60_000 {
            return ChaosPlan::new();
        }
        let minute = 60_000;
        let r0 = splitmix64(seed ^ 0x006e_6574);
        let victim = containers[(r0 % containers.len() as u64) as usize].clone();
        let rest: Vec<String> = containers
            .iter()
            .filter(|c| **c != victim)
            .cloned()
            .collect();
        let loss = LinkFaults {
            drop_ppm: (150_000 + splitmix64(seed ^ 1) % 100_000) as u32,
            duplicate_ppm: (100_000 + splitmix64(seed ^ 2) % 100_000) as u32,
            ..LinkFaults::default()
        };
        let churn = LinkFaults {
            delay_ms: 10_000 + splitmix64(seed ^ 3) % 50_000,
            delay_jitter_ms: 30_000,
            reorder_window: 4,
            ..LinkFaults::default()
        };
        let analyzer = AgentId::new(format!("analyzer-{victim}@grid"));
        let part_open = (3 + splitmix64(seed ^ 4) % 3) * minute;
        let part_heal = part_open + (3 + splitmix64(seed ^ 5) % 2) * minute;
        ChaosPlan::new()
            .link_faults_between(
                minute,
                horizon_ms.saturating_sub(2 * minute),
                LinkSelector::All,
                loss,
            )
            .link_faults_between(
                2 * minute,
                horizon_ms.saturating_sub(3 * minute),
                LinkSelector::To(analyzer),
                churn,
            )
            .partition_between(
                part_open,
                part_heal.min(horizon_ms.saturating_sub(3 * minute)),
                "seeded-net",
                vec![vec![victim], rest],
            )
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The scheduled events, sorted by due time.
    pub fn events(&self) -> &[(u64, ChaosAction)] {
        &self.events
    }

    /// Containers this plan ever crashes (victims need their specs kept
    /// around for restart).
    pub fn victims(&self) -> impl Iterator<Item = &str> {
        self.events.iter().filter_map(|(_, a)| match a {
            ChaosAction::Crash(c) => Some(c.as_str()),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_stay_sorted_by_time() {
        let plan = ChaosPlan::new()
            .restart_at(300, "a")
            .crash_at(100, "a")
            .crash_at(200, "b");
        let times: Vec<u64> = plan.events().iter().map(|(t, _)| *t).collect();
        assert_eq!(times, [100, 200, 300]);
    }

    #[test]
    fn seeded_plans_are_pure_functions_of_the_seed() {
        let containers = vec!["pg-1".to_string(), "pg-2".to_string()];
        let horizon = 20 * 60_000;
        assert_eq!(
            ChaosPlan::seeded(7, &containers, horizon),
            ChaosPlan::seeded(7, &containers, horizon)
        );
        // Some nearby seed must differ (schedule actually uses the seed).
        assert!((0..10).any(|s| ChaosPlan::seeded(s, &containers, horizon)
            != ChaosPlan::seeded(7, &containers, horizon)));
    }

    #[test]
    fn seeded_plan_crashes_before_restarting() {
        for seed in 0..20 {
            let containers = vec!["pg-1".to_string()];
            let plan = ChaosPlan::seeded(seed, &containers, 20 * 60_000);
            let crash = plan
                .events()
                .iter()
                .find(|(_, a)| matches!(a, ChaosAction::Crash(_)))
                .map(|(t, _)| *t)
                .expect("seeded plan crashes someone");
            let restart = plan
                .events()
                .iter()
                .find(|(_, a)| matches!(a, ChaosAction::Restart(_)))
                .map(|(t, _)| *t)
                .expect("…and brings them back");
            assert!(crash < restart, "seed {seed}: {plan:?}");
        }
    }

    #[test]
    fn degenerate_inputs_yield_empty_plans() {
        assert!(ChaosPlan::seeded(1, &[], 20 * 60_000).is_empty());
        assert!(ChaosPlan::seeded(1, &["a".into()], 60_000).is_empty());
    }

    #[test]
    fn drop_window_opens_and_closes() {
        let plan = ChaosPlan::new().drop_to_between(100, 200, AgentId::new("x"));
        assert!(matches!(plan.events()[0], (100, ChaosAction::SetFault(_))));
        assert!(matches!(plan.events()[1], (200, ChaosAction::ClearFault)));
    }

    #[test]
    fn scoped_windows_close_only_their_own_fault() {
        let plan = ChaosPlan::new()
            .drop_to_between_scoped(100, 300, AgentId::new("x"))
            .drop_to_between_scoped(200, 400, AgentId::new("y"));
        // The close at 300 names exactly x's fault, so y's window
        // (200–400) survives it — the replace-semantics bug this fixes.
        let (t, close) = &plan.events()[2];
        assert_eq!(*t, 300);
        assert_eq!(
            close,
            &ChaosAction::ClearFaultScoped(TransportFault::DropTo(AgentId::new("x")))
        );
        assert!(matches!(
            plan.events()[3],
            (400, ChaosAction::ClearFaultScoped(_))
        ));
    }

    #[test]
    fn link_fault_and_partition_windows_pair_open_with_close() {
        let plan = ChaosPlan::new()
            .link_faults_between(
                100,
                200,
                LinkSelector::All,
                LinkFaults {
                    drop_ppm: 1,
                    ..LinkFaults::default()
                },
            )
            .partition_between(150, 250, "p", vec![vec!["a".into()], vec!["b".into()]]);
        assert!(matches!(
            plan.events()[0],
            (100, ChaosAction::LinkFaultsOpen(LinkSelector::All, _))
        ));
        assert!(matches!(
            plan.events()[1],
            (150, ChaosAction::PartitionOpen(..))
        ));
        assert!(matches!(
            plan.events()[2],
            (200, ChaosAction::LinkFaultsClear(LinkSelector::All))
        ));
        assert!(matches!(
            plan.events()[3],
            (250, ChaosAction::PartitionHeal(_))
        ));
    }

    #[test]
    fn seeded_net_is_deterministic_and_always_partitions() {
        let containers = vec!["pg-1".to_string(), "pg-2".to_string(), "cg-hq".to_string()];
        let horizon = 20 * 60_000;
        assert_eq!(
            ChaosPlan::seeded_net(9, &containers, horizon),
            ChaosPlan::seeded_net(9, &containers, horizon)
        );
        for seed in 0..16 {
            let plan = ChaosPlan::seeded_net(seed, &containers, horizon);
            let open = plan
                .events()
                .iter()
                .find_map(|(t, a)| matches!(a, ChaosAction::PartitionOpen(..)).then_some(*t))
                .expect("seeded net plans always partition");
            let heal = plan
                .events()
                .iter()
                .find_map(|(t, a)| matches!(a, ChaosAction::PartitionHeal(_)).then_some(*t))
                .expect("…and always heal");
            assert!(open < heal, "seed {seed}: {plan:?}");
            assert!(plan.victims().next().is_none(), "no crashes in net plans");
        }
        assert!(ChaosPlan::seeded_net(1, &[], horizon).is_empty());
    }
}
