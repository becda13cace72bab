use std::collections::BTreeMap;

use agentgrid_acl::ontology::ResourceProfile;
use agentgrid_acl::AgentId;

/// Records a container of `cpu_capacity` 1.0 handles per window: the
/// one constant of the load account.
pub const RECORDS_PER_WINDOW: u64 = 1000;

/// The load account's arithmetic: the advertised load of a container of
/// `cpu_capacity` that was charged `records` in one window, saturating
/// at 1.0.
pub fn window_load(records: u64, cpu_capacity: f64) -> f64 {
    (records as f64 / (cpu_capacity * RECORDS_PER_WINDOW as f64)).min(1.0)
}

/// A registered container: its profile and the records charged to it in
/// the open window.
#[derive(Debug, Clone)]
struct Account {
    profile: ResourceProfile,
    charged: u64,
}

impl Account {
    /// The one place a registered container's advertised load is
    /// written.
    fn fold(&mut self) {
        self.profile.load = window_load(self.charged, self.profile.cpu_capacity);
    }
}

/// One service registration in the directory.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceEntry {
    /// The providing agent.
    pub provider: AgentId,
    /// Service type (e.g. `"analysis"`, `"collection"`).
    pub service: String,
    /// Free-form properties (e.g. the skills offered).
    pub properties: Vec<String>,
}

/// The FIPA Directory Facilitator: yellow pages plus the grid root's
/// container directory (the paper's "D1", Fig. 4).
///
/// Two registries live here:
///
/// * **services** — agents advertising capabilities, searchable by
///   service type and property;
/// * **container profiles** — one [`ResourceProfile`] per container,
///   registered when the container joins the grid. Load balancing reads
///   these.
///
/// A profile's advertised `load` is written in one place only: the
/// **load account**. Work is [`charge`](Self::charge)d to a container in
/// whole records; the account folds the records charged in the open
/// window into `load = records ÷ (cpu_capacity × RECORDS_PER_WINDOW)`,
/// saturating at 1.0 ([`window_load`]), and
/// [`close_window`](Self::close_window) starts every account from zero
/// again. Integer sums keep the figure independent of the order in which
/// concurrent chargers reach the directory.
///
/// # Examples
///
/// ```
/// use agentgrid_acl::AgentId;
/// use agentgrid_platform::{DirectoryFacilitator, ResourceProfile};
///
/// let mut df = DirectoryFacilitator::new();
/// df.register_service(AgentId::new("an-1@pg"), "analysis", ["cpu", "disk"]);
/// let hits = df.search("analysis");
/// assert_eq!(hits.len(), 1);
/// assert!(df.providers_with("analysis", "disk").count() == 1);
///
/// df.register_container(ResourceProfile::new("pg-1", 2.0, 1.0, 4096, ["cpu"]));
/// assert_eq!(df.container_profiles().count(), 1);
///
/// df.charge("pg-1", 500);
/// assert_eq!(df.container_profile("pg-1").unwrap().load, 0.25);
/// df.close_window();
/// assert_eq!(df.container_profile("pg-1").unwrap().load, 0.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DirectoryFacilitator {
    services: Vec<ServiceEntry>,
    containers: BTreeMap<String, Account>,
    /// Last-seen simulated time per container (heartbeat extension of
    /// the resource profiles; liveness detection reads staleness).
    heartbeats: BTreeMap<String, u64>,
}

impl DirectoryFacilitator {
    /// Creates an empty directory.
    pub fn new() -> Self {
        DirectoryFacilitator::default()
    }

    /// Registers (or re-registers) a service for an agent. An agent may
    /// offer many services; re-registering the same `(provider, service)`
    /// replaces its properties.
    pub fn register_service(
        &mut self,
        provider: AgentId,
        service: impl Into<String>,
        properties: impl IntoIterator<Item = impl Into<String>>,
    ) {
        let service = service.into();
        let properties: Vec<String> = properties.into_iter().map(Into::into).collect();
        if let Some(existing) = self
            .services
            .iter_mut()
            .find(|e| e.provider == provider && e.service == service)
        {
            existing.properties = properties;
        } else {
            self.services.push(ServiceEntry {
                provider,
                service,
                properties,
            });
        }
    }

    /// Removes every registration of an agent (deregistration on death
    /// or migration).
    pub fn deregister(&mut self, provider: &AgentId) {
        self.services.retain(|e| &e.provider != provider);
    }

    /// All entries for a service type, in registration order.
    pub fn search(&self, service: &str) -> Vec<&ServiceEntry> {
        self.services
            .iter()
            .filter(|e| e.service == service)
            .collect()
    }

    /// Providers of `service` that also declare `property`.
    pub fn providers_with<'a>(
        &'a self,
        service: &'a str,
        property: &'a str,
    ) -> impl Iterator<Item = &'a AgentId> + 'a {
        self.services
            .iter()
            .filter(move |e| e.service == service && e.properties.iter().any(|p| p == property))
            .map(|e| &e.provider)
    }

    /// Registers (or refreshes) a container's resource profile — the
    /// Fig. 4 interaction: "when a container is added to the grid, it
    /// will inform the profile of the resource on which it is running".
    /// The profile's declared `load` is replaced by the account's
    /// figure; a refresh keeps the records already charged this window.
    pub fn register_container(&mut self, profile: ResourceProfile) {
        self.heartbeats
            .entry(profile.container.clone())
            .or_insert(0);
        let charged = self
            .containers
            .get(&profile.container)
            .map_or(0, |a| a.charged);
        let mut account = Account { profile, charged };
        account.fold();
        self.containers
            .insert(account.profile.container.clone(), account);
    }

    /// Removes a container's profile (container left or died).
    pub fn deregister_container(&mut self, container: &str) -> Option<ResourceProfile> {
        self.heartbeats.remove(container);
        self.containers.remove(container).map(|a| a.profile)
    }

    /// Records a liveness heartbeat for a container at simulated time
    /// `now_ms`. Containers heartbeat through their resident agents'
    /// ticks; the grid root reads staleness to mark containers suspect
    /// or dead.
    pub fn record_heartbeat(&mut self, container: &str, now_ms: u64) {
        let beat = self.heartbeats.entry(container.to_owned()).or_insert(0);
        *beat = (*beat).max(now_ms);
    }

    /// The last heartbeat recorded for a container, if any.
    pub fn last_heartbeat(&self, container: &str) -> Option<u64> {
        self.heartbeats.get(container).copied()
    }

    /// Charges `records` of work to a registered container's account
    /// for the open window and refreshes its advertised load, so the
    /// next selection sees it. An unknown container is ignored.
    pub fn charge(&mut self, container: &str, records: u64) {
        if let Some(account) = self.containers.get_mut(container) {
            account.charged = account.charged.saturating_add(records);
            account.fold();
        }
    }

    /// Records charged to a container in the open window (0 if unknown).
    pub fn charged(&self, container: &str) -> u64 {
        self.containers.get(container).map_or(0, |a| a.charged)
    }

    /// Closes the window: every account starts again from zero records,
    /// and every advertised load with it.
    pub fn close_window(&mut self) {
        for account in self.containers.values_mut() {
            account.charged = 0;
            account.fold();
        }
    }

    /// A container's profile.
    pub fn container_profile(&self, container: &str) -> Option<&ResourceProfile> {
        self.containers.get(container).map(|a| &a.profile)
    }

    /// All container profiles, in container-name order.
    pub fn container_profiles(&self) -> impl Iterator<Item = &ResourceProfile> {
        self.containers.values().map(|a| &a.profile)
    }

    /// Containers declaring a skill, in name order.
    pub fn containers_with_skill<'a>(
        &'a self,
        skill: &'a str,
    ) -> impl Iterator<Item = &'a ResourceProfile> + 'a {
        self.container_profiles()
            .filter(move |p| p.has_skill(skill))
    }

    /// Number of service registrations.
    pub fn service_count(&self) -> usize {
        self.services.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_search_services() {
        let mut df = DirectoryFacilitator::new();
        df.register_service(AgentId::new("a"), "analysis", ["cpu"]);
        df.register_service(AgentId::new("b"), "analysis", ["disk"]);
        df.register_service(AgentId::new("c"), "collection", ["snmp"]);
        assert_eq!(df.search("analysis").len(), 2);
        assert_eq!(df.search("collection").len(), 1);
        assert_eq!(df.search("nothing").len(), 0);
    }

    #[test]
    fn reregistration_replaces_properties() {
        let mut df = DirectoryFacilitator::new();
        df.register_service(AgentId::new("a"), "analysis", ["cpu"]);
        df.register_service(AgentId::new("a"), "analysis", ["disk"]);
        assert_eq!(df.service_count(), 1);
        assert_eq!(df.search("analysis")[0].properties, ["disk"]);
    }

    #[test]
    fn providers_with_filters_by_property() {
        let mut df = DirectoryFacilitator::new();
        df.register_service(AgentId::new("a"), "analysis", ["cpu", "correlate"]);
        df.register_service(AgentId::new("b"), "analysis", ["disk"]);
        let hits: Vec<_> = df.providers_with("analysis", "correlate").collect();
        assert_eq!(hits, [&AgentId::new("a")]);
    }

    #[test]
    fn deregister_removes_all_entries_of_agent() {
        let mut df = DirectoryFacilitator::new();
        df.register_service(AgentId::new("a"), "x", ["1"]);
        df.register_service(AgentId::new("a"), "y", ["2"]);
        df.register_service(AgentId::new("b"), "x", ["3"]);
        df.deregister(&AgentId::new("a"));
        assert_eq!(df.service_count(), 1);
        assert_eq!(df.search("x").len(), 1);
    }

    #[test]
    fn container_registry_tracks_profiles_and_load() {
        let mut df = DirectoryFacilitator::new();
        df.register_container(ResourceProfile::new("c1", 1.0, 1.0, 1024, ["cpu"]));
        df.register_container(ResourceProfile::new("c2", 2.0, 1.0, 2048, ["disk"]));
        df.charge("c1", 800);
        df.charge("ghost", 100);
        assert_eq!(df.container_profile("c1").unwrap().load, 0.8);
        assert_eq!(df.charged("ghost"), 0);
        assert!(df.container_profile("ghost").is_none());
        let with_disk: Vec<_> = df.containers_with_skill("disk").collect();
        assert_eq!(with_disk.len(), 1);
        assert_eq!(with_disk[0].container, "c2");
    }

    #[test]
    fn the_account_folds_records_by_capacity_and_saturates() {
        let mut df = DirectoryFacilitator::new();
        df.register_container(ResourceProfile::new("slow", 1.0, 1.0, 1, ["x"]));
        df.register_container(ResourceProfile::new("fast", 4.0, 1.0, 1, ["x"]));
        let load = |df: &DirectoryFacilitator, c| df.container_profile(c).unwrap().load;
        // Charges add as integers; the figure scales with capacity.
        df.charge("slow", 300);
        df.charge("slow", 200);
        df.charge("fast", 500);
        assert_eq!(df.charged("slow"), 500);
        assert_eq!(load(&df, "slow"), 0.5);
        assert_eq!(load(&df, "fast"), 0.125);
        // Saturates at the ceiling.
        df.charge("slow", 5 * RECORDS_PER_WINDOW);
        assert_eq!(load(&df, "slow"), 1.0);
        // A declared load is not believed; a refresh keeps the charge.
        let mut declared = ResourceProfile::new("fast", 4.0, 1.0, 1, ["x"]);
        declared.load = 0.9;
        df.register_container(declared);
        assert_eq!(load(&df, "fast"), 0.125);
        // Closing the window idles every account.
        df.close_window();
        assert_eq!((load(&df, "slow"), load(&df, "fast")), (0.0, 0.0));
        assert_eq!(df.charged("slow"), 0);
    }

    #[test]
    fn charge_order_does_not_change_the_figure() {
        let charges = [("a", 7u64), ("b", 333), ("a", 1), ("b", 90), ("a", 499)];
        let run = |order: &mut dyn Iterator<Item = &(&str, u64)>| {
            let mut df = DirectoryFacilitator::new();
            df.register_container(ResourceProfile::new("a", 0.3, 1.0, 1, ["x"]));
            df.register_container(ResourceProfile::new("b", 0.7, 1.0, 1, ["x"]));
            for (c, records) in order {
                df.charge(c, *records);
            }
            df.container_profiles()
                .map(|p| p.load.to_bits())
                .collect::<Vec<u64>>()
        };
        assert_eq!(run(&mut charges.iter()), run(&mut charges.iter().rev()));
    }

    #[test]
    fn deregister_container_removes_profile() {
        let mut df = DirectoryFacilitator::new();
        df.register_container(ResourceProfile::new("c1", 1.0, 1.0, 1, ["x"]));
        assert!(df.deregister_container("c1").is_some());
        assert!(df.deregister_container("c1").is_none());
        assert_eq!(df.container_profiles().count(), 0);
    }

    #[test]
    fn heartbeats_track_last_seen_and_never_go_backwards() {
        let mut df = DirectoryFacilitator::new();
        assert_eq!(df.last_heartbeat("c1"), None);
        df.register_container(ResourceProfile::new("c1", 1.0, 1.0, 1, ["x"]));
        assert_eq!(df.last_heartbeat("c1"), Some(0));
        df.record_heartbeat("c1", 60_000);
        df.record_heartbeat("c1", 30_000); // stale update is ignored
        assert_eq!(df.last_heartbeat("c1"), Some(60_000));
        df.deregister_container("c1");
        assert_eq!(df.last_heartbeat("c1"), None);
        // Re-registration starts a fresh heartbeat history.
        df.register_container(ResourceProfile::new("c1", 1.0, 1.0, 1, ["x"]));
        assert_eq!(df.last_heartbeat("c1"), Some(0));
    }
}
