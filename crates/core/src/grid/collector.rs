use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock};

use agentgrid_acl::ontology::{CollectedBatch, Observation, ToContent, MANAGEMENT_ONTOLOGY};
use agentgrid_acl::{AclMessage, AgentId, Performative};
use agentgrid_net::{cli, oids, snmp, Network, Oid};
use agentgrid_platform::{Agent, AgentCtx, PressureSignal};
use agentgrid_telemetry::Counter;
use parking_lot::Mutex;

use crate::recovery::{jitter_key, BackoffPolicy};

/// Ceiling on the pacing multiplier: a fully pressured collector polls
/// at 1/8th of its configured cadence, never slower.
const MAX_STRETCH: u64 = 8;

/// Collector-side pacing state (overload mode): stretch the poll
/// interval multiplicatively while the platform signals mailbox
/// pressure, recover additively once it clears.
struct Pacing {
    /// Pressure events from the platform's bounded-mailbox tracker.
    signal: Arc<PressureSignal>,
    /// Shared `paced_polls` counter surfaced in the grid report.
    paced: Arc<AtomicU64>,
    /// Event count at the previous poll.
    seen: u64,
    /// Current poll-interval multiplier (`1..=MAX_STRETCH`).
    stretch: u64,
}

/// A collector's per-device state, by position in its device list.
#[derive(Debug)]
struct DeviceState {
    /// The device's name, shared by every observation polled from it.
    name: Arc<str>,
    /// Next poll time.
    next_ms: u64,
    /// Consecutive failed polls.
    failures: u32,
    names: MetricNames,
}

impl DeviceState {
    fn new(name: &str) -> Self {
        DeviceState {
            name: Arc::from(name),
            next_ms: 0,
            failures: 0,
            names: MetricNames::default(),
        }
    }
}

/// The metric names a poll emits whatever the device's MIB shape.
struct FixedNames {
    /// The storage areas a poll reads: each area's index with the raw
    /// and derived metric names it yields.
    storage: [(u32, Arc<str>, Arc<str>); 2],
    /// `processes.count`.
    processes: Arc<str>,
    /// `agent.reachable`.
    reachable: Arc<str>,
}

/// One copy of the fixed names for every device of every collector, so
/// assigning a device allocates none.
static FIXED_NAMES: LazyLock<FixedNames> = LazyLock::new(|| FixedNames {
    storage: [
        (
            oids::STORAGE_RAM,
            "storage.ram.used",
            "storage.ram.used-pct",
        ),
        (
            oids::STORAGE_DISK,
            "storage.disk.used",
            "storage.disk.used-pct",
        ),
    ]
    .map(|(index, used, pct)| (index, Arc::from(used), Arc::from(pct))),
    processes: Arc::from("processes.count"),
    reachable: Arc::from("agent.reachable"),
});

/// One device's indexed metric names, keyed by the index its MIB walk
/// returns: each name is formatted the first time its index is walked,
/// then shared by every observation that carries it.
#[derive(Debug, Default)]
struct MetricNames {
    /// `cpu.load.<index>` by processor index.
    cpu: BTreeMap<u32, Arc<str>>,
    /// `if.<index>.<column>` by (interface-table column, interface index).
    interfaces: BTreeMap<(u32, u32), Arc<str>>,
}

impl MetricNames {
    fn cpu(&mut self, index: u32) -> &Arc<str> {
        self.cpu
            .entry(index)
            .or_insert_with(|| format!("cpu.load.{index}").into())
    }

    /// The name of an interface-table cell, for the columns a poll keeps.
    fn interface(&mut self, column: u32, index: u32) -> Option<&Arc<str>> {
        let suffix = match column {
            8 => "oper-status",
            10 => "in-octets",
            16 => "out-octets",
            _ => return None,
        };
        Some(
            self.interfaces
                .entry((column, index))
                .or_insert_with(|| format!("if.{index}.{suffix}").into()),
        )
    }
}

/// Which management-protocol *interface* a collector uses (paper §3.1:
/// "a collecting agent can have an SNMP interface or use a command line
/// utility").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectorInterface {
    /// Walk the device MIB over the SNMP-like protocol.
    Snmp,
    /// Run `show` commands and parse the textual reports.
    Cli,
}

/// A collector-grid agent: polls each assigned device every `period_ms`
/// of simulated time, normalizes whatever its interface returns into
/// [`Observation`]s (the common representation), performs the local
/// pre-analysis the paper allows (derived `used-pct` metrics,
/// reachability flags) and ships a [`CollectedBatch`] to the classifier.
/// A device whose poll fails (unreachable) is retried under a
/// [`BackoffPolicy`] — capped at the regular period — instead of
/// waiting out the whole period.
pub struct CollectorAgent {
    network: Arc<Mutex<Network>>,
    /// Name, poll schedule, failure count and metric names of each
    /// assigned device.
    devices: Vec<DeviceState>,
    interface: CollectorInterface,
    period_ms: u64,
    classifier: AgentId,
    site: String,
    batch_seq: u64,
    /// Total observations shipped (inspection/testing).
    pub collected: u64,
    /// Retry polls sent under the backoff policy (inspection/testing).
    pub retries: u64,
    /// Retry schedule of a device whose poll failed.
    backoff: BackoffPolicy,
    /// `agentgrid_retries_total{component="collector"}` when telemetry
    /// is wired up.
    retry_metric: Option<Counter>,
    /// Poll-interval pacing under downstream pressure (overload mode).
    pacing: Option<Pacing>,
}

impl std::fmt::Debug for CollectorAgent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let devices: Vec<&str> = self.devices.iter().map(|d| &*d.name).collect();
        f.debug_struct("CollectorAgent")
            .field("devices", &devices)
            .field("interface", &self.interface)
            .field("period_ms", &self.period_ms)
            .field("collected", &self.collected)
            .finish()
    }
}

impl CollectorAgent {
    /// Creates a collector for `devices`, shipping to `classifier`, with
    /// the default [`BackoffPolicy`].
    pub fn new(
        network: Arc<Mutex<Network>>,
        devices: Vec<String>,
        interface: CollectorInterface,
        period_ms: u64,
        classifier: AgentId,
        site: impl Into<String>,
    ) -> Self {
        CollectorAgent {
            network,
            devices: devices.iter().map(|name| DeviceState::new(name)).collect(),
            interface,
            period_ms,
            classifier,
            site: site.into(),
            batch_seq: 0,
            collected: 0,
            retries: 0,
            backoff: BackoffPolicy::default(),
            retry_metric: None,
            pacing: None,
        }
    }

    /// Replaces the retry schedule of failed polls.
    pub fn set_backoff(&mut self, policy: BackoffPolicy) {
        self.backoff = policy;
    }

    /// Counts retry polls into the given telemetry counter.
    pub fn set_retry_metric(&mut self, counter: Counter) {
        self.retry_metric = Some(counter);
    }

    /// Enables pacing: while `signal` reports fresh pressure events the
    /// poll interval doubles (capped at [`MAX_STRETCH`]×), recovering
    /// one step per pressure-free poll. Each stretched scheduling
    /// decision increments `paced`.
    pub fn set_pacing(&mut self, signal: Arc<PressureSignal>, paced: Arc<AtomicU64>) {
        self.pacing = Some(Pacing {
            signal,
            paced,
            seen: 0,
            stretch: 1,
        });
    }

    /// The current poll-interval multiplier, updated from the pressure
    /// signal; `1` when pacing is off.
    fn pacing_stretch(&mut self) -> u64 {
        let Some(p) = &mut self.pacing else {
            return 1;
        };
        let events = p.signal.events();
        if events != p.seen {
            p.seen = events;
            p.stretch = (p.stretch * 2).min(MAX_STRETCH);
            p.paced.fetch_add(1, Ordering::Relaxed);
        } else {
            p.stretch = p.stretch.saturating_sub(1).max(1);
        }
        p.stretch
    }

    /// Polls `device` over SNMP. Every observation shares `name` and a
    /// metric name from `names` or [`FIXED_NAMES`], so only a device's
    /// first poll formats strings.
    fn poll_device_snmp(
        device: &mut agentgrid_net::Device,
        name: &Arc<str>,
        names: &mut MetricNames,
        now: u64,
    ) -> Vec<Observation> {
        let observe =
            |metric: &Arc<str>, v| Observation::new(Arc::clone(name), Arc::clone(metric), v, now);
        let fixed = &*FIXED_NAMES;
        let mut out = Vec::new();
        // CPU load per processor.
        let cpu_root: Oid = Oid::from([1, 3, 6, 1, 2, 1, 25, 3, 3, 1, 2]);
        if let Ok(rows) = snmp::walk(device, &cpu_root) {
            for (oid, value) in rows {
                if let (Some(index), Some(v)) = (oid.last(), value.as_f64()) {
                    out.push(observe(names.cpu(index), v));
                }
            }
        } else {
            out.push(observe(&fixed.reachable, 0.0));
            return out;
        }
        // Interface table: status + octets.
        if let Ok(rows) = snmp::walk(device, &oids::if_table()) {
            for (oid, value) in rows {
                let parts = oid.parts();
                if parts.len() < 2 {
                    continue;
                }
                let column = parts[parts.len() - 2];
                let index = parts[parts.len() - 1];
                if let (Some(metric), Some(v)) = (names.interface(column, index), value.as_f64()) {
                    out.push(observe(metric, v));
                }
            }
        }
        // Storage: raw values plus the derived used-pct (local
        // pre-analysis, §3.1).
        for (index, used_name, pct_name) in &fixed.storage {
            let size = snmp::get(device, &oids::hr_storage_size(*index))
                .ok()
                .and_then(|v| v.as_f64());
            let used = snmp::get(device, &oids::hr_storage_used(*index))
                .ok()
                .and_then(|v| v.as_f64());
            if let (Some(size), Some(used)) = (size, used) {
                out.push(observe(used_name, used));
                if size > 0.0 {
                    out.push(observe(pct_name, used / size * 100.0));
                }
            }
        }
        if let Ok(v) = snmp::get(device, &oids::hr_system_processes()) {
            if let Some(v) = v.as_f64() {
                out.push(observe(&fixed.processes, v));
            }
        }
        out.push(observe(&fixed.reachable, 1.0));
        out
    }

    /// Polls `device` through its command line. The parsed metric names
    /// are fresh text; the device name and the reachability flag's are
    /// shared.
    fn poll_device_cli(
        device: &agentgrid_net::Device,
        name: &Arc<str>,
        now: u64,
    ) -> Vec<Observation> {
        let reachable =
            |v| Observation::new(Arc::clone(name), Arc::clone(&FIXED_NAMES.reachable), v, now);
        let mut out = Vec::new();
        for command in cli::COMMANDS {
            match cli::execute(device, command) {
                Ok(report) => {
                    for (metric, value) in cli::parse_report(&report) {
                        out.push(Observation::new(Arc::clone(name), metric, value, now));
                    }
                }
                Err(cli::CliError::Unreachable(_)) => return vec![reachable(0.0)],
                Err(cli::CliError::UnknownCommand(_)) => continue,
                Err(_) => continue,
            }
        }
        out.push(reachable(1.0));
        out
    }
}

impl Agent for CollectorAgent {
    fn on_tick(&mut self, ctx: &mut AgentCtx<'_>) {
        let now = ctx.now_ms();
        let due: Vec<usize> = (0..self.devices.len())
            .filter(|&i| now >= self.devices[i].next_ms)
            .collect();
        if due.is_empty() {
            return;
        }
        // The pressure signal is read once per polling round, not once
        // per device.
        let stretch = self.pacing_stretch();

        let mut observations = Vec::new();
        {
            let mut network = self.network.lock();
            for i in due {
                let state = &mut self.devices[i];
                let Some(device) = network.device_mut(&state.name) else {
                    continue;
                };
                let obs = match self.interface {
                    CollectorInterface::Snmp => {
                        Self::poll_device_snmp(device, &state.name, &mut state.names, now)
                    }
                    CollectorInterface::Cli => Self::poll_device_cli(device, &state.name, now),
                };
                let failed =
                    obs.len() == 1 && *obs[0].metric == *"agent.reachable" && obs[0].value == 0.0;
                let failures = &mut state.failures;
                if *failures > 0 {
                    // Any poll after a failure is a retry, whether or
                    // not the device recovered in the meantime.
                    self.retries += 1;
                    if let Some(c) = &self.retry_metric {
                        c.inc();
                    }
                }
                state.next_ms = if failed {
                    let delay = self
                        .backoff
                        .delay_ms(*failures, jitter_key(&state.name))
                        .min(self.period_ms.max(1));
                    *failures = failures.saturating_add(1).min(30);
                    now + delay
                } else {
                    *failures = 0;
                    now + self.period_ms.saturating_mul(stretch)
                };
                observations.extend(obs);
            }
        }
        if observations.is_empty() {
            return;
        }
        self.collected += observations.len() as u64;
        self.batch_seq += 1;
        let batch = CollectedBatch::new(
            format!("{}-b{}", ctx.self_id().local_name(), self.batch_seq),
            ctx.self_id().name(),
            self.site.clone(),
            observations,
        );
        let msg = AclMessage::builder(Performative::Inform)
            .sender(ctx.self_id().clone())
            .receiver(self.classifier.clone())
            .ontology(MANAGEMENT_ONTOLOGY)
            .content(batch.to_content())
            .build()
            .expect("sender and receiver are set");
        ctx.send(msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agentgrid_net::{Device, DeviceKind, FaultKind};

    fn network() -> Arc<Mutex<Network>> {
        let mut net = Network::new();
        net.add_device(
            Device::builder("srv-1", DeviceKind::Server)
                .site("hq")
                .seed(1)
                .build(),
        );
        net.tick_all(60_000);
        Arc::new(Mutex::new(net))
    }

    fn poll_snmp(device: &mut Device, state: &mut DeviceState, now: u64) -> Vec<Observation> {
        CollectorAgent::poll_device_snmp(device, &state.name, &mut state.names, now)
    }

    #[test]
    fn snmp_poll_produces_normalized_metrics() {
        let net = network();
        let mut guard = net.lock();
        let device = guard.device_mut("srv-1").unwrap();
        let obs = poll_snmp(device, &mut DeviceState::new("srv-1"), 60_000);
        let metrics: Vec<&str> = obs.iter().map(|o| &*o.metric).collect();
        assert!(metrics.contains(&"cpu.load.1"));
        assert!(metrics.contains(&"if.1.in-octets"));
        assert!(metrics.contains(&"storage.disk.used-pct"));
        assert!(metrics.contains(&"processes.count"));
        assert!(metrics.contains(&"agent.reachable"));
    }

    #[test]
    fn successive_snmp_polls_share_the_device_and_metric_strings() {
        let net = network();
        let mut guard = net.lock();
        let device = guard.device_mut("srv-1").unwrap();
        let mut state = DeviceState::new("srv-1");
        let first = poll_snmp(device, &mut state, 60_000);
        device.tick(120_000);
        let second = poll_snmp(device, &mut state, 120_000);
        assert_eq!(first.len(), second.len());
        for (a, b) in first.iter().zip(&second) {
            assert!(Arc::ptr_eq(&a.device, &state.name));
            assert!(Arc::ptr_eq(&a.device, &b.device));
            assert!(Arc::ptr_eq(&a.metric, &b.metric), "{} is copied", a.metric);
        }
    }

    #[test]
    fn cli_poll_produces_equivalent_metrics() {
        let net = network();
        let guard = net.lock();
        let device = guard.device("srv-1").unwrap();
        let state = DeviceState::new("srv-1");
        let obs = CollectorAgent::poll_device_cli(device, &state.name, 60_000);
        let metrics: Vec<&str> = obs.iter().map(|o| &*o.metric).collect();
        assert!(metrics.contains(&"cpu.load.1"));
        assert!(metrics.contains(&"storage.disk.used-pct"));
    }

    #[test]
    fn unreachable_device_yields_reachability_zero() {
        let net = network();
        let mut guard = net.lock();
        let device = guard.device_mut("srv-1").unwrap();
        device.inject(FaultKind::Unreachable);
        let mut state = DeviceState::new("srv-1");
        let snmp_obs = poll_snmp(device, &mut state, 0);
        assert_eq!(snmp_obs.len(), 1);
        assert_eq!(&*snmp_obs[0].metric, "agent.reachable");
        assert_eq!(snmp_obs[0].value, 0.0);
        let cli_obs = CollectorAgent::poll_device_cli(device, &state.name, 0);
        assert_eq!(cli_obs[0].value, 0.0);
    }
}
