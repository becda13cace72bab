//! Shared scenario builders for the benchmark harness and the `repro`
//! binary that regenerates every table and figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use agentgrid::scenario::{run_architecture, Architecture, Workload};
use agentgrid::CostModel;
use agentgrid_des::{ResourceKind, SimReport};
use agentgrid_net::{Device, DeviceKind, Network};
use agentgrid_rules::{parse_rules, Fact, KnowledgeBase};
use agentgrid_store::{AggKind, LabelFilter, ManagementStore, NaiveStore, Record, SeriesWindows};

/// All analysis skills the simulated metrics map to, plus correlation.
pub const ALL_SKILLS: [&str; 8] = [
    "cpu",
    "memory",
    "disk",
    "interface",
    "process",
    "system",
    "other",
    "correlation",
];

/// Builds a deterministic managed network: `sites` sites of
/// `devices_per_site` devices (router + switch + servers), seeded.
pub fn standard_network(sites: usize, devices_per_site: usize, seed: u64) -> Network {
    let mut network = Network::new();
    for s in 0..sites {
        let site = format!("site-{s}");
        for d in 0..devices_per_site {
            let name = format!("{site}-dev{d}");
            let kind = match d % 3 {
                0 => DeviceKind::Router,
                1 => DeviceKind::Switch,
                _ => DeviceKind::Server,
            };
            network.add_device(
                Device::builder(name, kind)
                    .site(&site)
                    .seed(seed.wrapping_add((s * 100 + d) as u64))
                    .build(),
            );
        }
    }
    network
}

/// Runs the three Figure-6 configurations on the paper workload.
pub fn fig6_reports(rounds: usize) -> [(String, SimReport); 3] {
    let costs = CostModel::table1();
    let workload = Workload::rounds(rounds);
    Architecture::paper_configs()
        .map(|arch| (arch.label(), run_architecture(arch, workload, &costs)))
}

/// The peak utilization of each architecture at a given round count —
/// the series behind the crossover experiment.
pub fn peak_utilizations(rounds: usize) -> [(String, f64); 3] {
    fig6_reports(rounds).map(|(label, report)| (label, report.peak_utilization()))
}

/// Mean job completion time of each architecture at a given round count.
pub fn mean_completions(rounds: usize) -> [(String, f64); 3] {
    fig6_reports(rounds).map(|(label, report)| (label, report.mean_completion().unwrap_or(0.0)))
}

/// Runs the agent-grid architecture with a variable number of analyzer
/// hosts (the scaling experiment).
pub fn grid_scaling_report(rounds: usize, analyzers: usize) -> SimReport {
    run_architecture(
        Architecture::AgentGrid {
            collectors: 3,
            analyzers,
        },
        Workload::rounds(rounds),
        &CostModel::table1(),
    )
}

/// Rule set for the inference benchmark: threshold alerts, a derived
/// spike chain and an idle notice — the same shapes as the default
/// analyzer rules, sized so every fact matches at most a few rules.
pub const INFERENCE_RULES: &str = r#"
rule "hot" salience 5 {
    when obs(device: ?d, value: ?v)
    if ?v > 90
    then emit warning ?d "cpu hot: ?v"
}
rule "spike" salience 3 {
    when obs(device: ?d, value: ?v)
    if ?v > 95
    then assert spike(device: ?d)
}
rule "escalate" salience 1 {
    when spike(device: ?d)
    then emit critical ?d "sustained spike"
}
rule "idle" {
    when obs(device: ?d, value: ?v)
    if ?v < 5
    then emit info ?d "idle device"
}
"#;

/// Knowledge base behind the inference benchmark.
pub fn inference_kb() -> KnowledgeBase {
    KnowledgeBase::from_rules(parse_rules(INFERENCE_RULES).expect("inference rules parse"))
}

/// `n` deterministic observation facts over ten devices; values sweep
/// all residues mod 100, so a fixed fraction crosses each threshold.
pub fn inference_facts(n: usize) -> Vec<Fact> {
    (0..n)
        .map(|i| {
            Fact::new("obs")
                .with("device", format!("host-{}", i % 10))
                .with("value", ((i * 37) % 100) as f64)
        })
        .collect()
}

/// A store with `points_per_series` samples in each of ten series
/// (five devices, two metrics), appended in timestamp order — the shape
/// the analyzer's whole-series `stats`/`latest` hot path sees.
pub fn inference_store(points_per_series: usize) -> ManagementStore {
    let mut store = ManagementStore::default();
    for device in 0..5 {
        for metric in ["cpu.load.1", "storage.ram.used"] {
            for p in 0..points_per_series {
                store.insert(Record::new(
                    format!("host-{device}"),
                    metric,
                    ((p * 13 + device) % 100) as f64,
                    (p as u64 + 1) * 1_000,
                ));
            }
        }
    }
    store
}

/// SNMP-shaped ingest workload for the store benchmark: `total` samples
/// spread round-robin over twenty series (five devices, four metrics:
/// three slowly-walking integer gauges plus a monotone octet counter),
/// on a fixed 60 s poll cadence — the shape collectors actually
/// produce. Deterministic: same `total`, same records.
pub fn store_workload(total: usize) -> Vec<Record> {
    const METRICS: [&str; 4] = [
        "cpu.load.1",
        "storage.ram.used",
        "storage.disk.used-pct",
        "if.1.in-octets",
    ];
    let mut out = Vec::with_capacity(total);
    // Per-series gauge levels and counter values, walked with a
    // xorshift stream so the data is jittery but integer-valued.
    let mut loads = [40i64; 5];
    let mut rams = [4096i64; 5];
    let mut disks = [55i64; 5];
    let mut octets = [0u64; 5];
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for i in 0..total {
        let device = (i / METRICS.len()) % 5;
        let metric = METRICS[i % METRICS.len()];
        let tick = (i / (5 * METRICS.len())) as u64;
        let ts = (tick + 1) * 60_000;
        let value = match metric {
            "cpu.load.1" => {
                loads[device] = (loads[device] + (rng() % 15) as i64 - 7).clamp(0, 100);
                loads[device] as f64
            }
            "storage.ram.used" => {
                rams[device] = (rams[device] + (rng() % 65) as i64 - 32).clamp(0, 8192);
                rams[device] as f64
            }
            "storage.disk.used-pct" => {
                disks[device] = (disks[device] + (rng() % 3) as i64 - 1).clamp(0, 100);
                disks[device] as f64
            }
            _ => {
                octets[device] += 12_000 + rng() % 4_096;
                octets[device] as f64
            }
        };
        out.push(Record::new(format!("host-{device}"), metric, value, ts));
    }
    out
}

/// A store engine under the store benchmark: the chunk-compressed
/// [`ManagementStore`] or its record-per-point [`NaiveStore`] reference.
pub trait BenchStore: Sized {
    /// Ingests `records` into an empty store on the standard classifier.
    fn ingest(records: &[Record]) -> Self;

    /// Runs `query_windows` over every series' full range.
    fn windows(&self, step_ms: u64, kind: AggKind) -> Vec<SeriesWindows>;

    /// Windows returned by one full-range sweep.
    fn sweep(&self, step_ms: u64, kind: AggKind) -> u64 {
        self.windows(step_ms, kind)
            .iter()
            .map(|series| series.windows.len() as u64)
            .sum()
    }
}

impl BenchStore for ManagementStore {
    fn ingest(records: &[Record]) -> Self {
        let mut store = ManagementStore::default();
        store.insert_all(records.iter().cloned());
        store
    }

    fn windows(&self, step_ms: u64, kind: AggKind) -> Vec<SeriesWindows> {
        self.query_windows(&LabelFilter::Any, 0, u64::MAX, step_ms, kind)
    }
}

impl BenchStore for NaiveStore {
    fn ingest(records: &[Record]) -> Self {
        let mut store = NaiveStore::default();
        for record in records {
            store.insert(record.clone());
        }
        store
    }

    fn windows(&self, step_ms: u64, kind: AggKind) -> Vec<SeriesWindows> {
        self.query_windows(&LabelFilter::Any, 0, u64::MAX, step_ms, kind)
    }
}

/// Sum of network busy time across all hosts of a report.
pub fn total_net_busy(report: &SimReport) -> u64 {
    report
        .hosts()
        .iter()
        .map(|h| report.busy_time(h, ResourceKind::Net))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_network_is_deterministic_and_sized() {
        let a = standard_network(2, 3, 42);
        let b = standard_network(2, 3, 42);
        assert_eq!(a.device_count(), 6);
        assert_eq!(a.sites().count(), 2);
        let name = a.devices().next().unwrap().name().to_owned();
        assert_eq!(
            a.device(&name).unwrap().mib().len(),
            b.device(&name).unwrap().mib().len()
        );
    }

    #[test]
    fn fig6_reports_cover_three_architectures() {
        let reports = fig6_reports(10);
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[0].0, "centralized");
        assert!(reports.iter().all(|(_, r)| r.makespan() > 0));
    }

    #[test]
    fn peak_utilization_decreases_toward_the_grid() {
        let [(_, cen), (_, mas), (_, grid)] = peak_utilizations(10);
        assert!(grid < mas);
        assert!(mas <= cen + 1e-9);
    }

    #[test]
    fn inference_workload_is_deterministic_and_nontrivial() {
        let kb = inference_kb();
        assert_eq!(kb.len(), 4);
        let facts = inference_facts(100);
        assert_eq!(facts, inference_facts(100));
        let mut engine = agentgrid_rules::Engine::new(kb).with_max_cycles(100_000);
        for fact in facts {
            engine.insert(fact);
        }
        let out = engine.run();
        assert!(!out.truncated);
        assert!(out.stats.fired > 0, "workload must exercise the agenda");
        let store = inference_store(50);
        assert_eq!(store.len(), 5 * 2 * 50);
        assert!(store.stats("host-0", "cpu.load.1", 0, u64::MAX).is_some());
    }

    #[test]
    fn store_workload_is_deterministic_and_in_order_per_series() {
        let a = store_workload(2_000);
        assert_eq!(a.len(), 2_000);
        assert_eq!(a, store_workload(2_000));
        let mut last: std::collections::BTreeMap<(String, String), u64> = Default::default();
        for r in &a {
            let key = (r.device.clone(), r.metric.clone());
            assert!(r.value.fract() == 0.0, "workload is integer-valued");
            let prev = last.insert(key, r.timestamp_ms);
            assert!(prev.is_none_or(|p| p < r.timestamp_ms), "per-series order");
        }
        assert_eq!(last.len(), 20, "five devices x four metrics");
    }

    #[test]
    fn scaling_adds_hosts() {
        let two = grid_scaling_report(10, 2);
        let four = grid_scaling_report(10, 4);
        assert_eq!(two.hosts().len(), 6);
        assert_eq!(four.hosts().len(), 8);
        assert!(four.makespan() <= two.makespan());
    }
}
