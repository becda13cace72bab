//! Seeded workload generator.
//!
//! The seed fixes everything the grid is given: the fleet (device
//! simulators are seeded from it), the planted faults (which devices,
//! which rounds) and, on `federated-recovery`, the crash/restart chaos
//! plan and the recovery layer's backoff jitter. The grid under test
//! receives only these generated inputs.

use agentgrid::chaos::ChaosPlan;
use agentgrid::grid::{GridBuilder, ManagementGrid};
use agentgrid::recovery::splitmix64;
use agentgrid::RecoveryConfig;
use agentgrid_bench::{standard_network, ALL_SKILLS};
use agentgrid_net::{FaultKind, ScheduledFault};

/// Simulated length of one poll round; every round is one
/// `ManagementGrid::run(ROUND_MS, ROUND_MS)` call.
pub const ROUND_MS: u64 = 60_000;

/// Analyzer containers on every workload, each with every skill.
const ANALYZERS: usize = 4;

/// How many rounds each planted fault stays active. Long enough for the
/// slowest detection (a memory leak crosses the 90 % threshold within
/// 12 rounds), short enough that every window closes before the run ends.
const FAULT_ROUNDS: u64 = 20;

/// Faults start in rounds `[FIRST_FAULT_ROUND, FIRST_FAULT_ROUND +
/// FAULT_START_SPAN)`. Early, because the level-2 trend behind
/// `disk-filling-fast` is fitted over the whole history: a disk that
/// starts filling in round `s` crosses the threshold only about `s`
/// rounds later, and that must happen inside the fault's window.
const FIRST_FAULT_ROUND: u64 = 2;
const FAULT_START_SPAN: u64 = 8;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Multisite,
    SingleSiteHistory,
    FederatedRecovery,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Multisite,
        Workload::SingleSiteHistory,
        Workload::FederatedRecovery,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Multisite => "multisite",
            Workload::SingleSiteHistory => "single-site-history",
            Workload::FederatedRecovery => "federated-recovery",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists: the layer it stresses and the change it
    /// is there to judge.
    pub fn why(self) -> &'static str {
        match self {
            Workload::Multisite => {
                "4 sites x 8 devices: each site's data-ready fans into tasks over all sites, \
                 so analysis is quadratic in sites and alerts storm; site-scoped analysis must show here"
            }
            Workload::SingleSiteHistory => {
                "1 site x 25 devices for 360 rounds: no site fan-out, so site scoping predicts \
                 no change; level-2 trends read the whole history, so store reads and ingest show here"
            }
            Workload::FederatedRecovery => {
                "8 sites x 4 devices as 2 shards with a seeded analyzer crash and restart: \
                 the only run of federation and recovery, checked each run against the pool runtime"
            }
        }
    }

    /// `(sites, devices per site)`.
    fn fleet(self) -> (usize, usize) {
        match self {
            Workload::Multisite => (4, 8),
            Workload::SingleSiteHistory => (1, 25),
            Workload::FederatedRecovery => (8, 4),
        }
    }

    /// Poll rounds one pass runs.
    pub fn rounds(self) -> u64 {
        match self {
            Workload::SingleSiteHistory => 360,
            Workload::Multisite | Workload::FederatedRecovery => 100,
        }
    }

    /// Whether the reference pass and the traced run's untraced pass use
    /// the work-stealing pool runtime (otherwise the deterministic stepper).
    pub fn on_pool(self) -> bool {
        self == Workload::FederatedRecovery
    }
}

/// A fault the generator planted, with the rule that must detect it.
#[derive(Debug, Clone, PartialEq)]
pub struct PlantedFault {
    pub device: String,
    pub kind: FaultKind,
    pub rule: &'static str,
    pub start_round: u64,
}

impl PlantedFault {
    fn scheduled(&self) -> ScheduledFault {
        ScheduledFault::from(self.device.as_str(), self.kind, self.start_round * ROUND_MS)
            .until((self.start_round + FAULT_ROUNDS) * ROUND_MS)
    }
}

/// One fault of every kind, each on its own seed-chosen device and
/// starting in a seed-chosen round.
pub fn planted_faults(workload: Workload, seed: u64) -> Vec<PlantedFault> {
    const KINDS: [(FaultKind, &str); 5] = [
        (FaultKind::CpuRunaway, "high-cpu"),
        (FaultKind::LinkDown(1), "link-down"),
        (FaultKind::Unreachable, "device-unreachable"),
        (FaultKind::DiskFilling, "disk-filling-fast"),
        (FaultKind::MemoryLeak, "memory-pressure"),
    ];
    let (sites, per_site) = workload.fleet();
    let devices = sites * per_site;
    let mut state = seed;
    let mut next = move || {
        state = splitmix64(state);
        state
    };
    let mut chosen: Vec<usize> = Vec::new();
    KINDS
        .iter()
        .map(|&(kind, rule)| {
            let device = loop {
                let d = (next() % devices as u64) as usize;
                if !chosen.contains(&d) {
                    chosen.push(d);
                    break d;
                }
            };
            PlantedFault {
                // `standard_network`'s naming scheme.
                device: format!("site-{}-dev{}", device / per_site, device % per_site),
                kind,
                rule,
                start_round: FIRST_FAULT_ROUND + next() % FAULT_START_SPAN,
            }
        })
        .collect()
}

/// The grid configuration for `workload` under `seed`: fleet, analyzers
/// with the default rules, planted faults and, on `federated-recovery`,
/// two shards with seeded recovery and chaos.
pub fn builder(workload: Workload, seed: u64) -> GridBuilder {
    let (sites, per_site) = workload.fleet();
    let analyzers: Vec<String> = (1..=ANALYZERS).map(|a| format!("pg-{a}")).collect();
    let mut builder = ManagementGrid::builder().network(standard_network(sites, per_site, seed));
    for name in &analyzers {
        builder = builder.analyzer(name.as_str(), 1.0, ALL_SKILLS);
    }
    for fault in planted_faults(workload, seed) {
        builder = builder.fault(fault.scheduled());
    }
    if workload == Workload::FederatedRecovery {
        let horizon_ms = workload.rounds() * ROUND_MS;
        builder = builder
            .shards(2)
            .recovery(RecoveryConfig::seeded(seed))
            .chaos(ChaosPlan::seeded(seed, &analyzers, horizon_ms));
    }
    builder
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planted_faults_are_a_pure_function_of_the_seed() {
        for workload in Workload::ALL {
            let faults = planted_faults(workload, 7);
            assert_eq!(faults, planted_faults(workload, 7));
            assert_ne!(faults, planted_faults(workload, 8));
            let mut devices: Vec<&str> = faults.iter().map(|f| f.device.as_str()).collect();
            devices.sort_unstable();
            devices.dedup();
            assert_eq!(devices.len(), 5, "one device per fault");
            for fault in &faults {
                assert!(fault.start_round >= FIRST_FAULT_ROUND);
                assert!(fault.start_round + FAULT_ROUNDS < workload.rounds());
            }
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::parse(workload.name()), Some(workload));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
