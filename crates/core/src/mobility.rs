//! Mobility-based rebalancing (paper §5, future work): "agent mobility
//! allows for a migration of analysis activities attributed to them,
//! improving the utilization of resources".
//!
//! The [`Rebalancer`] watches the directory's container loads. When a
//! container running an analyzer is overloaded and a *spare* container
//! (one with a registered resource profile but no analysis agent) is
//! available, it migrates the analyzer — live, with its knowledge base
//! and counters — to the spare and re-registers its `analysis` service
//! under the new container, so brokering immediately follows the move.
//! The loads it reads are the directory's load account: records awarded
//! to each container in the window, over its capacity.

use agentgrid_acl::AgentId;
use agentgrid_platform::Platform;

/// One migration decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Migration {
    /// The analyzer that moved.
    pub agent: AgentId,
    /// Container it left.
    pub from: String,
    /// Container it joined.
    pub to: String,
}

/// Migrates analyzers off overloaded containers onto idle spares.
#[derive(Debug, Clone, Copy)]
pub struct Rebalancer {
    /// Load above which a container is considered overloaded.
    pub high_watermark: f64,
    /// Load below which a target container is considered idle.
    pub low_watermark: f64,
}

impl Default for Rebalancer {
    fn default() -> Self {
        Rebalancer {
            high_watermark: 0.75,
            low_watermark: 0.25,
        }
    }
}

impl Rebalancer {
    /// Examines the platform and performs at most one migration per
    /// overloaded container. Returns the decisions taken.
    pub fn rebalance(&self, platform: &mut Platform) -> Vec<Migration> {
        // Snapshot: (container, load, has_analyzer, analyzer id).
        let mut overloaded: Vec<(String, AgentId)> = Vec::new();
        let mut spares: Vec<(String, f64)> = Vec::new();
        for profile in platform.df().container_profiles() {
            let provider = platform
                .df()
                .providers_with("analysis", &profile.container)
                .next()
                .cloned();
            match provider {
                Some(agent) if profile.load >= self.high_watermark => {
                    overloaded.push((profile.container.clone(), agent));
                }
                // A registered container with no analyzer = spare
                // capacity, but only if the platform actually has it.
                None if profile.load <= self.low_watermark
                    && platform.container(&profile.container).is_some() =>
                {
                    spares.push((profile.container.clone(), profile.load));
                }
                _ => {}
            }
        }
        // Most idle spares first.
        spares.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));

        let mut migrations = Vec::new();
        for (from, agent) in overloaded {
            let Some((to, _)) = spares.pop() else {
                break;
            };
            if platform.migrate(&agent, &to).is_err() {
                continue;
            }
            // Re-register the service under the new container.
            platform.df_mut().deregister(&agent);
            platform
                .df_mut()
                .register_service(agent.clone(), "analysis", [to.clone()]);
            // The analyzer's heartbeat moves with it, so the root's
            // liveness sweep does not find the destination silent
            // before the moved analyzer's first tick there.
            if let Some(beat) = platform.df().last_heartbeat(&from) {
                platform.df_mut().record_heartbeat(&to, beat);
            }
            migrations.push(Migration { agent, from, to });
        }
        migrations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agentgrid_acl::ontology::ResourceProfile;
    use agentgrid_platform::Agent;

    struct Analyzer;
    impl Agent for Analyzer {}

    /// A capacity-1.0 `busy` container hosting an analyzer and a
    /// capacity-2.0 agentless `spare`, with `busy_records` and
    /// `spare_records` charged to their load accounts.
    fn platform_with_loads(busy_records: u64, spare_records: u64) -> (Platform, AgentId) {
        let mut p = Platform::new("g");
        p.add_container("busy").add_container("spare");
        let agent = p.spawn("busy", "analyzer-busy", Analyzer).unwrap();
        let df = p.df_mut();
        df.register_container(ResourceProfile::new("busy", 1.0, 1.0, 1024, ["cpu"]));
        df.register_container(ResourceProfile::new("spare", 2.0, 1.0, 4096, ["cpu"]));
        df.charge("busy", busy_records);
        df.charge("spare", spare_records);
        df.register_service(agent.clone(), "analysis", ["busy"]);
        (p, agent)
    }

    #[test]
    fn overloaded_analyzer_migrates_to_spare() {
        let (mut p, agent) = platform_with_loads(900, 0);
        let migrations = Rebalancer::default().rebalance(&mut p);
        assert_eq!(migrations.len(), 1);
        assert_eq!(
            migrations[0],
            Migration {
                agent: agent.clone(),
                from: "busy".to_owned(),
                to: "spare".to_owned(),
            }
        );
        assert_eq!(p.find_agent(&agent), Some("spare"));
        // Service re-registered under the new container.
        assert_eq!(
            p.df().providers_with("analysis", "spare").next(),
            Some(&agent)
        );
        assert!(p.df().providers_with("analysis", "busy").next().is_none());
        // The load account stays with the containers: the move itself
        // charges and clears nothing.
        assert_eq!(p.df().charged("busy"), 900);
        assert_eq!(p.df().charged("spare"), 0);
    }

    #[test]
    fn no_migration_below_watermark() {
        let (mut p, agent) = platform_with_loads(500, 0);
        assert!(Rebalancer::default().rebalance(&mut p).is_empty());
        assert_eq!(p.find_agent(&agent), Some("busy"));
    }

    #[test]
    fn no_migration_without_idle_spare() {
        let (mut p, _) = platform_with_loads(900, 1200);
        assert!(Rebalancer::default().rebalance(&mut p).is_empty());
    }

    #[test]
    fn spare_without_platform_container_is_ignored() {
        let (mut p, _) = platform_with_loads(900, 0);
        // Register a phantom container profile with no real container.
        p.df_mut()
            .register_container(ResourceProfile::new("ghost", 9.0, 1.0, 1, ["cpu"]));
        let migrations = Rebalancer::default().rebalance(&mut p);
        assert_eq!(migrations.len(), 1);
        assert_eq!(migrations[0].to, "spare", "ghost must not be chosen");
    }

    #[test]
    fn custom_watermarks_are_honoured() {
        let (mut p, _) = platform_with_loads(600, 0);
        let aggressive = Rebalancer {
            high_watermark: 0.5,
            low_watermark: 0.3,
        };
        assert_eq!(aggressive.rebalance(&mut p).len(), 1);
    }
}
