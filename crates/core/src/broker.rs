//! The processor-grid root's task-division broker (paper Fig. 3).
//!
//! "The analysis grid root receives a message from the classifier grid
//! indicating that there is data to be analyzed and that this analysis
//! needs to be distributed among the containers of the grid." The broker
//! turns classified partitions into [`AnalysisTask`]s, consults the
//! directory's [`ResourceProfile`]s and a [`LoadBalancer`], and produces
//! an assignment — plus a human-readable trace reproducing the Fig. 3
//! exchange.

use std::fmt;

use agentgrid_acl::ontology::{AnalysisTask, ResourceProfile};
use agentgrid_platform::window_load;

use crate::balance::LoadBalancer;

/// One task→container decision.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// The task.
    pub task: AnalysisTask,
    /// The chosen container, or `None` if no container qualified.
    pub container: Option<String>,
}

/// The result of dividing a batch of analysis work.
#[derive(Debug, Clone, Default)]
pub struct Division {
    /// Decisions, in task order.
    pub assignments: Vec<Assignment>,
}

impl Division {
    /// Tasks that found a container.
    pub fn assigned(&self) -> impl Iterator<Item = &Assignment> {
        self.assignments.iter().filter(|a| a.container.is_some())
    }

    /// Tasks no container could take (skill gap or overload).
    pub fn unassigned(&self) -> impl Iterator<Item = &AnalysisTask> {
        self.assignments
            .iter()
            .filter(|a| a.container.is_none())
            .map(|a| &a.task)
    }

    /// How many tasks the given container received.
    pub fn load_of(&self, container: &str) -> usize {
        self.assignments
            .iter()
            .filter(|a| a.container.as_deref() == Some(container))
            .count()
    }

    /// Renders the Fig. 3-style trace.
    pub fn trace(&self) -> String {
        let mut out = String::new();
        for a in &self.assignments {
            match &a.container {
                Some(c) => out.push_str(&format!(
                    "task {id} ({skill}, level {level}, {size} records) -> container {c}\n",
                    id = a.task.task_id,
                    skill = a.task.skill,
                    level = a.task.level,
                    size = a.task.size,
                )),
                None => out.push_str(&format!(
                    "task {id} ({skill}) -> UNASSIGNED (no capable container)\n",
                    id = a.task.task_id,
                    skill = a.task.skill,
                )),
            }
        }
        out
    }
}

impl fmt::Display for Division {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.trace())
    }
}

/// The broker: binds a balancing policy to the division procedure.
///
/// Between assignments the broker charges each task's records to the
/// chosen container with the directory's load-account arithmetic
/// ([`window_load`]: `size / (capacity × RECORDS_PER_WINDOW)`), so a
/// burst of tasks does not all land on the host that was idle at the
/// start — mirroring the root "requesting the current profile"
/// mid-negotiation (§3.5).
///
/// [`window_load`]: agentgrid_platform::window_load
///
/// # Examples
///
/// ```
/// use agentgrid::balance::KnowledgeCapacityIdle;
/// use agentgrid::broker::Broker;
/// use agentgrid::ontology::{AnalysisTask, ResourceProfile};
///
/// let mut broker = Broker::new(KnowledgeCapacityIdle);
/// let profiles = vec![
///     ResourceProfile::new("pg-1", 1.0, 1.0, 2048, ["cpu-analysis"]),
///     ResourceProfile::new("pg-2", 1.0, 1.0, 2048, ["cpu-analysis"]),
/// ];
/// let tasks = vec![
///     AnalysisTask::new("t1", "cpu-analysis", "cpu", 1, 500),
///     AnalysisTask::new("t2", "cpu-analysis", "cpu", 1, 500),
/// ];
/// let division = broker.divide(tasks, profiles);
/// // The first award's charged records push the second to the other container.
/// assert_eq!(division.load_of("pg-1"), 1);
/// assert_eq!(division.load_of("pg-2"), 1);
/// ```
pub struct Broker<P> {
    policy: P,
}

impl<P: fmt::Debug> fmt::Debug for Broker<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Broker")
            .field("policy", &self.policy)
            .finish()
    }
}

impl<P: LoadBalancer> Broker<P> {
    /// Creates a broker with the given policy.
    pub fn new(policy: P) -> Self {
        Broker { policy }
    }

    /// The policy's name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Divides `tasks` over `profiles`, charging load as it assigns.
    pub fn divide(
        &mut self,
        tasks: impl IntoIterator<Item = AnalysisTask>,
        mut profiles: Vec<ResourceProfile>,
    ) -> Division {
        let mut division = Division::default();
        for task in tasks {
            let container = self.policy.select(&task, &profiles);
            if let Some(name) = &container {
                if let Some(profile) = profiles.iter_mut().find(|p| &p.container == name) {
                    let added = window_load(task.size, profile.cpu_capacity);
                    profile.load = (profile.load + added).min(1.0);
                }
            }
            division.assignments.push(Assignment { task, container });
        }
        division
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::{KnowledgeCapacityIdle, RoundRobin};

    fn profiles() -> Vec<ResourceProfile> {
        vec![
            ResourceProfile::new("pg-1", 1.0, 1.0, 1024, ["cpu", "disk"]),
            ResourceProfile::new("pg-2", 1.0, 1.0, 1024, ["cpu"]),
            ResourceProfile::new("pg-3", 1.0, 1.0, 1024, ["interface"]),
        ]
    }

    fn task(id: &str, skill: &str, size: u64) -> AnalysisTask {
        AnalysisTask::new(id, skill, skill, 1, size)
    }

    #[test]
    fn knowledge_gates_assignment() {
        let mut broker = Broker::new(KnowledgeCapacityIdle);
        let division = broker.divide(
            [task("t1", "disk", 10), task("t2", "memory", 10)],
            profiles(),
        );
        assert_eq!(division.load_of("pg-1"), 1);
        let unassigned: Vec<_> = division.unassigned().collect();
        assert_eq!(unassigned.len(), 1);
        assert_eq!(unassigned[0].skill, "memory");
    }

    #[test]
    fn projected_load_spreads_bursts() {
        let mut broker = Broker::new(KnowledgeCapacityIdle);
        let tasks: Vec<_> = (0..4).map(|i| task(&format!("t{i}"), "cpu", 500)).collect();
        let division = broker.divide(tasks, profiles());
        assert_eq!(division.load_of("pg-1"), 2);
        assert_eq!(division.load_of("pg-2"), 2);
    }

    #[test]
    fn trace_mentions_every_task() {
        let mut broker = Broker::new(RoundRobin::default());
        let division = broker.divide([task("t1", "cpu", 1), task("t2", "nothing", 1)], profiles());
        let trace = division.trace();
        assert!(trace.contains("task t1"));
        assert!(trace.contains("UNASSIGNED"));
        assert_eq!(broker.policy_name(), "round-robin");
    }

    #[test]
    fn empty_inputs_yield_empty_division() {
        let mut broker = Broker::new(KnowledgeCapacityIdle);
        let division = broker.divide([], profiles());
        assert!(division.assignments.is_empty());
        let division = broker.divide([task("t", "cpu", 1)], Vec::new());
        assert_eq!(division.unassigned().count(), 1);
    }
}
