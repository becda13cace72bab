use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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

/// The storage areas a poll reads, with the raw and derived metric
/// names each yields.
const STORAGE: [(u32, &str, &str); 2] = [
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
];

/// A collector's per-device state, by position in its device list.
#[derive(Debug, Default)]
struct DeviceState {
    /// Next poll time.
    next_ms: u64,
    /// Consecutive failed polls.
    failures: u32,
    names: MetricNames,
}

/// One device's indexed metric names, keyed by the index its MIB walk
/// returns: each name is formatted the first time its index is walked,
/// not on every poll.
#[derive(Debug, Default)]
struct MetricNames {
    /// `cpu.load.<index>` by processor index.
    cpu: BTreeMap<u32, String>,
    /// `if.<index>.<column>` by (interface-table column, interface index).
    interfaces: BTreeMap<(u32, u32), String>,
}

impl MetricNames {
    fn cpu(&mut self, index: u32) -> &str {
        self.cpu
            .entry(index)
            .or_insert_with(|| format!("cpu.load.{index}"))
    }

    /// The name of an interface-table cell, for the columns a poll keeps.
    fn interface(&mut self, column: u32, index: u32) -> Option<&str> {
        let suffix = match column {
            8 => "oper-status",
            10 => "in-octets",
            16 => "out-octets",
            _ => return None,
        };
        Some(
            self.interfaces
                .entry((column, index))
                .or_insert_with(|| format!("if.{index}.{suffix}")),
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
    devices: Vec<String>,
    /// Poll schedule, failure count and metric names of each device, by
    /// position in `devices`.
    state: Vec<DeviceState>,
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
        f.debug_struct("CollectorAgent")
            .field("devices", &self.devices)
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
            state: devices.iter().map(|_| DeviceState::default()).collect(),
            devices,
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

    fn poll_device_snmp(
        device: &mut agentgrid_net::Device,
        names: &mut MetricNames,
        now: u64,
    ) -> Vec<Observation> {
        let name = device.name().to_owned();
        let mut out = Vec::new();
        // CPU load per processor.
        let cpu_root: Oid = Oid::from([1, 3, 6, 1, 2, 1, 25, 3, 3, 1, 2]);
        if let Ok(rows) = snmp::walk(device, &cpu_root) {
            for (oid, value) in rows {
                if let (Some(index), Some(v)) = (oid.last(), value.as_f64()) {
                    out.push(Observation::new(&name, names.cpu(index), v, now));
                }
            }
        } else {
            out.push(Observation::new(&name, "agent.reachable", 0.0, now));
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
                    out.push(Observation::new(&name, metric, v, now));
                }
            }
        }
        // Storage: raw values plus the derived used-pct (local
        // pre-analysis, §3.1).
        for (index, used_name, pct_name) in STORAGE {
            let size = snmp::get(device, &oids::hr_storage_size(index))
                .ok()
                .and_then(|v| v.as_f64());
            let used = snmp::get(device, &oids::hr_storage_used(index))
                .ok()
                .and_then(|v| v.as_f64());
            if let (Some(size), Some(used)) = (size, used) {
                out.push(Observation::new(&name, used_name, used, now));
                if size > 0.0 {
                    out.push(Observation::new(&name, pct_name, used / size * 100.0, now));
                }
            }
        }
        if let Ok(v) = snmp::get(device, &oids::hr_system_processes()) {
            if let Some(v) = v.as_f64() {
                out.push(Observation::new(&name, "processes.count", v, now));
            }
        }
        out.push(Observation::new(&name, "agent.reachable", 1.0, now));
        out
    }

    fn poll_device_cli(device: &agentgrid_net::Device, now: u64) -> Vec<Observation> {
        let name = device.name().to_owned();
        let mut out = Vec::new();
        for command in cli::COMMANDS {
            match cli::execute(device, command) {
                Ok(report) => {
                    for (metric, value) in cli::parse_report(&report) {
                        out.push(Observation::new(&name, metric, value, now));
                    }
                }
                Err(cli::CliError::Unreachable(_)) => {
                    return vec![Observation::new(&name, "agent.reachable", 0.0, now)];
                }
                Err(cli::CliError::UnknownCommand(_)) => continue,
                Err(_) => continue,
            }
        }
        out.push(Observation::new(&name, "agent.reachable", 1.0, now));
        out
    }
}

impl Agent for CollectorAgent {
    fn on_tick(&mut self, ctx: &mut AgentCtx<'_>) {
        let now = ctx.now_ms();
        let due: Vec<usize> = (0..self.devices.len())
            .filter(|&i| now >= self.state[i].next_ms)
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
                let device_name = &self.devices[i];
                let Some(device) = network.device_mut(device_name) else {
                    continue;
                };
                let state = &mut self.state[i];
                let obs = match self.interface {
                    CollectorInterface::Snmp => {
                        Self::poll_device_snmp(device, &mut state.names, now)
                    }
                    CollectorInterface::Cli => Self::poll_device_cli(device, now),
                };
                let failed =
                    obs.len() == 1 && obs[0].metric == "agent.reachable" && obs[0].value == 0.0;
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
                        .delay_ms(*failures, jitter_key(device_name))
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

    #[test]
    fn snmp_poll_produces_normalized_metrics() {
        let net = network();
        let mut guard = net.lock();
        let device = guard.device_mut("srv-1").unwrap();
        let obs = CollectorAgent::poll_device_snmp(device, &mut MetricNames::default(), 60_000);
        let metrics: Vec<&str> = obs.iter().map(|o| o.metric.as_str()).collect();
        assert!(metrics.contains(&"cpu.load.1"));
        assert!(metrics.contains(&"if.1.in-octets"));
        assert!(metrics.contains(&"storage.disk.used-pct"));
        assert!(metrics.contains(&"processes.count"));
        assert!(metrics.contains(&"agent.reachable"));
    }

    #[test]
    fn cli_poll_produces_equivalent_metrics() {
        let net = network();
        let guard = net.lock();
        let device = guard.device("srv-1").unwrap();
        let obs = CollectorAgent::poll_device_cli(device, 60_000);
        let metrics: Vec<&str> = obs.iter().map(|o| o.metric.as_str()).collect();
        assert!(metrics.contains(&"cpu.load.1"));
        assert!(metrics.contains(&"storage.disk.used-pct"));
    }

    #[test]
    fn unreachable_device_yields_reachability_zero() {
        let net = network();
        let mut guard = net.lock();
        let device = guard.device_mut("srv-1").unwrap();
        device.inject(FaultKind::Unreachable);
        let snmp_obs = CollectorAgent::poll_device_snmp(device, &mut MetricNames::default(), 0);
        assert_eq!(snmp_obs.len(), 1);
        assert_eq!(snmp_obs[0].metric, "agent.reachable");
        assert_eq!(snmp_obs[0].value, 0.0);
        let cli_obs = CollectorAgent::poll_device_cli(device, 0);
        assert_eq!(cli_obs[0].value, 0.0);
    }
}
