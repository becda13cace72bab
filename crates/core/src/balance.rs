//! Load-balancing policies for the processor grid (paper §3.5).
//!
//! The paper distributes analysis work by three principles, in order:
//! containers "with knowledge to process it", "that have computational
//! capacity", and "that are idle". [`KnowledgeCapacityIdle`] implements
//! exactly that ranking; [`RoundRobin`], [`Random`] and [`LeastLoaded`]
//! exist as ablation baselines, and [`ContractNet`] runs a full FIPA
//! auction where each candidate bids its headroom.
//!
//! Every award goes through [`award`]: the policy selects among the
//! directory's eligible container profiles and the chosen container's
//! load account is charged before the next selection reads it. The
//! live grid root brokers with it, and so do the Fig. 3 trace and the
//! policy benchmark.

use agentgrid_acl::ontology::{AnalysisTask, ResourceProfile};
use agentgrid_acl::protocol::{ContractNetInitiator, ContractNetOutcome};
use agentgrid_acl::{AgentId, Value};
use agentgrid_platform::DirectoryFacilitator;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A policy that picks the container to run an analysis task.
///
/// Implementations must be deterministic given their own state (the
/// random policy owns a seeded generator).
pub trait LoadBalancer: Send {
    /// Chooses a container from `candidates` for `task`, or `None` when
    /// no candidate is acceptable (e.g. nobody has the skill).
    fn select(&mut self, task: &AnalysisTask, candidates: &[&ResourceProfile]) -> Option<String>;

    /// Policy name for reports.
    fn name(&self) -> &'static str;

    /// A fresh boxed copy of this policy, for builds that wire one
    /// broker per shard ([`GridBuilder::shards`](crate::grid::GridBuilder::shards)
    /// gives every shard root its own instance). Stateful policies
    /// (e.g. the seeded [`Random`]) duplicate their current state.
    fn boxed_clone(&self) -> Box<dyn LoadBalancer>;
}

/// Awards `task` to a container (paper Fig. 3, §3.5): `policy` selects
/// among the directory's container profiles that pass `eligible`, and
/// the task's records are [`charge`](DirectoryFacilitator::charge)d to
/// the chosen container's load account, so the next selection of a
/// burst reads the fresh profile — the root "requesting the current
/// profile" mid-negotiation. Returns the chosen container, or `None`
/// with nothing charged when no eligible container qualifies.
///
/// # Examples
///
/// ```
/// use agentgrid::balance::{award, KnowledgeCapacityIdle};
/// use agentgrid::ontology::{AnalysisTask, ResourceProfile};
/// use agentgrid_platform::DirectoryFacilitator;
///
/// let mut df = DirectoryFacilitator::new();
/// df.register_container(ResourceProfile::new("pg-1", 1.0, 1.0, 2048, ["cpu-analysis"]));
/// df.register_container(ResourceProfile::new("pg-2", 1.0, 1.0, 2048, ["cpu-analysis"]));
/// let mut policy = KnowledgeCapacityIdle;
/// let mut awarded = Vec::new();
/// for id in ["t1", "t2"] {
///     let task = AnalysisTask::new(id, "cpu-analysis", "cpu", 1, 500);
///     awarded.push(award(&mut policy, &mut df, &task, |_, _| true));
/// }
/// // The first award's charged records push the second to the other container.
/// assert_eq!(awarded, [Some("pg-1".to_owned()), Some("pg-2".to_owned())]);
/// assert_eq!(df.charged("pg-1"), 500);
/// ```
pub fn award(
    policy: &mut dyn LoadBalancer,
    df: &mut DirectoryFacilitator,
    task: &AnalysisTask,
    mut eligible: impl FnMut(&DirectoryFacilitator, &ResourceProfile) -> bool,
) -> Option<String> {
    let directory: &DirectoryFacilitator = df;
    let candidates: Vec<&ResourceProfile> = directory
        .container_profiles()
        .filter(|p| eligible(directory, p))
        .collect();
    let container = policy.select(task, &candidates)?;
    df.charge(&container, task.size);
    Some(container)
}

/// The paper's policy: knowledge match first, then capacity, then
/// idleness — implemented as: among skilled candidates, maximize
/// *headroom* (`cpu_capacity × (1 − load)`), tie-broken by lower load,
/// then by name for determinism.
#[derive(Debug, Clone, Copy, Default)]
pub struct KnowledgeCapacityIdle;

impl LoadBalancer for KnowledgeCapacityIdle {
    fn select(&mut self, task: &AnalysisTask, candidates: &[&ResourceProfile]) -> Option<String> {
        candidates
            .iter()
            .filter(|p| p.has_skill(&task.skill))
            .max_by(|a, b| {
                a.headroom()
                    .partial_cmp(&b.headroom())
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| {
                        b.load
                            .partial_cmp(&a.load)
                            .unwrap_or(std::cmp::Ordering::Equal)
                    })
                    // Prefer the lexicographically earlier name on ties.
                    .then_with(|| b.container.cmp(&a.container))
            })
            .map(|p| p.container.clone())
    }

    fn name(&self) -> &'static str {
        "knowledge-capacity-idle"
    }

    fn boxed_clone(&self) -> Box<dyn LoadBalancer> {
        Box::new(*self)
    }
}

/// Ablation: rotate over *skilled* candidates regardless of load.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobin {
    next: usize,
}

impl LoadBalancer for RoundRobin {
    fn select(&mut self, task: &AnalysisTask, candidates: &[&ResourceProfile]) -> Option<String> {
        let skilled: Vec<&ResourceProfile> = candidates
            .iter()
            .copied()
            .filter(|p| p.has_skill(&task.skill))
            .collect();
        if skilled.is_empty() {
            return None;
        }
        let pick = skilled[self.next % skilled.len()].container.clone();
        self.next = self.next.wrapping_add(1);
        Some(pick)
    }

    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn boxed_clone(&self) -> Box<dyn LoadBalancer> {
        Box::new(*self)
    }
}

/// Ablation: uniformly random skilled candidate (seeded, reproducible).
#[derive(Debug, Clone)]
pub struct Random {
    rng: StdRng,
}

impl Random {
    /// Creates the policy with a seed.
    pub fn new(seed: u64) -> Self {
        Random {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl LoadBalancer for Random {
    fn select(&mut self, task: &AnalysisTask, candidates: &[&ResourceProfile]) -> Option<String> {
        let skilled: Vec<&ResourceProfile> = candidates
            .iter()
            .copied()
            .filter(|p| p.has_skill(&task.skill))
            .collect();
        if skilled.is_empty() {
            return None;
        }
        let index = self.rng.random_range(0..skilled.len());
        Some(skilled[index].container.clone())
    }

    fn name(&self) -> &'static str {
        "random"
    }

    fn boxed_clone(&self) -> Box<dyn LoadBalancer> {
        Box::new(self.clone())
    }
}

/// Ablation: lowest current load among skilled candidates, ignoring
/// capacity (so a slow idle host beats a fast busy one).
#[derive(Debug, Clone, Copy, Default)]
pub struct LeastLoaded;

impl LoadBalancer for LeastLoaded {
    fn select(&mut self, task: &AnalysisTask, candidates: &[&ResourceProfile]) -> Option<String> {
        candidates
            .iter()
            .filter(|p| p.has_skill(&task.skill))
            .min_by(|a, b| {
                a.load
                    .partial_cmp(&b.load)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| a.container.cmp(&b.container))
            })
            .map(|p| p.container.clone())
    }

    fn name(&self) -> &'static str {
        "least-loaded"
    }

    fn boxed_clone(&self) -> Box<dyn LoadBalancer> {
        Box::new(*self)
    }
}

/// The negotiation path (§3.5): run a FIPA contract-net auction in which
/// every skilled container bids its headroom; the award goes to the best
/// bid. Equivalent in outcome to [`KnowledgeCapacityIdle`] but exercises
/// the full protocol machinery — and honestly models containers that
/// refuse (load ≥ 1).
#[derive(Debug, Clone, Copy, Default)]
pub struct ContractNet;

impl LoadBalancer for ContractNet {
    fn select(&mut self, task: &AnalysisTask, candidates: &[&ResourceProfile]) -> Option<String> {
        let skilled: Vec<&ResourceProfile> = candidates
            .iter()
            .copied()
            .filter(|p| p.has_skill(&task.skill))
            .collect();
        if skilled.is_empty() {
            return None;
        }
        let root = AgentId::new("pg-root");
        let mut auction = ContractNetInitiator::new(
            root,
            skilled.iter().map(|p| AgentId::new(p.container.clone())),
            Value::from(task.task_id.as_str()),
        );
        auction.call_for_proposals();
        for profile in &skilled {
            let bidder = AgentId::new(profile.container.clone());
            if profile.load >= 1.0 {
                auction
                    .handle_refuse(&bidder)
                    .expect("bidder was invited exactly once");
            } else {
                auction
                    .handle_propose(&bidder, profile.headroom())
                    .expect("bidder was invited exactly once");
            }
        }
        match auction.award().expect("bidding phase is open") {
            ContractNetOutcome::Awarded { winner, .. } => Some(winner.name().to_owned()),
            ContractNetOutcome::NoBids => None,
        }
    }

    fn name(&self) -> &'static str {
        "contract-net"
    }

    fn boxed_clone(&self) -> Box<dyn LoadBalancer> {
        Box::new(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agentgrid_platform::window_load;

    fn task(skill: &str) -> AnalysisTask {
        AnalysisTask::new("t1", skill, "p", 1, 10)
    }

    fn profile(name: &str, capacity: f64, load: f64, skills: &[&str]) -> ResourceProfile {
        let mut p = ResourceProfile::new(name, capacity, 1.0, 1024, skills.iter().copied());
        p.load = load;
        p
    }

    #[test]
    fn kci_requires_knowledge() {
        let mut policy = KnowledgeCapacityIdle;
        let candidates = [&profile("c1", 10.0, 0.0, &["disk"])];
        assert_eq!(policy.select(&task("cpu"), &candidates), None);
        assert_eq!(
            policy.select(&task("disk"), &candidates),
            Some("c1".to_owned())
        );
    }

    #[test]
    fn kci_prefers_headroom_over_raw_capacity() {
        let mut policy = KnowledgeCapacityIdle;
        let candidates = [
            &profile("big-busy", 4.0, 0.9, &["cpu"]),   // headroom 0.4
            &profile("small-idle", 1.0, 0.0, &["cpu"]), // headroom 1.0
        ];
        assert_eq!(
            policy.select(&task("cpu"), &candidates),
            Some("small-idle".to_owned())
        );
    }

    #[test]
    fn kci_is_deterministic_on_ties() {
        let mut policy = KnowledgeCapacityIdle;
        let candidates = [
            &profile("b", 1.0, 0.0, &["cpu"]),
            &profile("a", 1.0, 0.0, &["cpu"]),
        ];
        assert_eq!(
            policy.select(&task("cpu"), &candidates),
            Some("a".to_owned())
        );
    }

    #[test]
    fn round_robin_rotates_over_skilled_only() {
        let mut policy = RoundRobin::default();
        let candidates = [
            &profile("a", 1.0, 0.0, &["cpu"]),
            &profile("b", 1.0, 0.0, &["disk"]),
            &profile("c", 1.0, 0.0, &["cpu"]),
        ];
        let picks: Vec<_> = (0..4)
            .map(|_| policy.select(&task("cpu"), &candidates).unwrap())
            .collect();
        assert_eq!(picks, ["a", "c", "a", "c"]);
    }

    #[test]
    fn random_is_reproducible_and_skill_bound() {
        let candidates = [
            &profile("a", 1.0, 0.0, &["cpu"]),
            &profile("b", 1.0, 0.0, &["cpu"]),
        ];
        let run = |seed| {
            let mut policy = Random::new(seed);
            (0..10)
                .map(|_| policy.select(&task("cpu"), &candidates).unwrap())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        let mut policy = Random::new(1);
        assert_eq!(policy.select(&task("net"), &candidates), None);
    }

    #[test]
    fn least_loaded_ignores_capacity() {
        let mut policy = LeastLoaded;
        let candidates = [
            &profile("fast-busy", 8.0, 0.5, &["cpu"]),
            &profile("slow-idle", 1.0, 0.1, &["cpu"]),
        ];
        assert_eq!(
            policy.select(&task("cpu"), &candidates),
            Some("slow-idle".to_owned())
        );
    }

    #[test]
    fn contract_net_awards_highest_headroom_and_honours_refusals() {
        let mut policy = ContractNet;
        let candidates = [
            &profile("overloaded", 8.0, 1.0, &["cpu"]), // refuses
            &profile("winner", 2.0, 0.5, &["cpu"]),     // bids 1.0
            &profile("loser", 1.0, 0.5, &["cpu"]),      // bids 0.5
        ];
        assert_eq!(
            policy.select(&task("cpu"), &candidates),
            Some("winner".to_owned())
        );
        // Everyone overloaded → no award.
        let all_busy = [&profile("x", 1.0, 1.0, &["cpu"])];
        assert_eq!(policy.select(&task("cpu"), &all_busy), None);
    }

    fn directory() -> DirectoryFacilitator {
        let mut df = DirectoryFacilitator::new();
        for (name, skills) in [
            ("pg-1", &["cpu", "disk"][..]),
            ("pg-2", &["cpu"]),
            ("pg-3", &["interface"]),
        ] {
            df.register_container(profile(name, 1.0, 0.0, skills));
        }
        df
    }

    #[test]
    fn knowledge_gates_the_award() {
        let mut df = directory();
        let mut policy = KnowledgeCapacityIdle;
        assert_eq!(
            award(&mut policy, &mut df, &task("disk"), |_, _| true),
            Some("pg-1".to_owned())
        );
        assert_eq!(
            award(&mut policy, &mut df, &task("memory"), |_, _| true),
            None
        );
        let charged = ["pg-1", "pg-2", "pg-3"].map(|c| df.charged(c));
        assert_eq!(charged, [10, 0, 0], "a skill gap charges nothing");
    }

    #[test]
    fn an_empty_directory_awards_nothing() {
        let (mut policy, mut df) = (KnowledgeCapacityIdle, DirectoryFacilitator::new());
        assert_eq!(award(&mut policy, &mut df, &task("cpu"), |_, _| true), None);
    }

    #[test]
    fn awards_to_eligible_containers_charge_one_window() {
        let mut df = directory();
        let mut policy = KnowledgeCapacityIdle;
        // With pg-1 ineligible both awards land on pg-2, whose account
        // folds their sum.
        for size in [300, 450] {
            let task = AnalysisTask::new("t", "cpu", "cpu", 1, size);
            let container = award(&mut policy, &mut df, &task, |_, p| p.container != "pg-1");
            assert_eq!(container.as_deref(), Some("pg-2"));
        }
        assert_eq!((df.charged("pg-1"), df.charged("pg-2")), (0, 750));
        assert_eq!(
            df.container_profile("pg-2").unwrap().load,
            window_load(750, 1.0)
        );
    }

    #[test]
    fn policies_report_names() {
        assert_eq!(KnowledgeCapacityIdle.name(), "knowledge-capacity-idle");
        assert_eq!(RoundRobin::default().name(), "round-robin");
        assert_eq!(Random::new(0).name(), "random");
        assert_eq!(LeastLoaded.name(), "least-loaded");
        assert_eq!(ContractNet.name(), "contract-net");
    }
}
