//! The live agent-grid management system (paper Fig. 2).
//!
//! [`ManagementGrid`] wires the four grids onto an
//! [`agentgrid_platform::Platform`]:
//!
//! * **CG** — [`CollectorAgent`]s poll the simulated
//!   [`Network`](agentgrid_net::Network) through SNMP or CLI interfaces
//!   on a schedule, normalize the heterogeneous results into
//!   [`Observation`](agentgrid_acl::ontology::Observation)s and batch
//!   them to the classifier;
//! * **CLG** — the [`ClassifierAgent`] parses, classifies, indexes and
//!   stores batches in a shared
//!   [`ManagementStore`](agentgrid_store::ManagementStore), then notifies
//!   the processor root which partitions have fresh data;
//! * **PG** — the [`ProcessorRootAgent`] brokers analysis tasks over the
//!   analyzer containers using the directory's resource profiles and a
//!   [`LoadBalancer`](crate::balance::LoadBalancer);
//!   [`AnalyzerAgent`]s run the rule engine at three levels (stateless /
//!   consolidation / correlation) and report findings;
//! * **IG** — the [`InterfaceAgent`] turns findings into alerts and
//!   reports, and feeds user-defined rules back into the analyzers.

mod analyzer;
mod classifier;
mod collector;
mod interface;
mod ledger;
mod root;
mod system;

pub use analyzer::{analyze_task, analyze_task_with, facts_for, AnalyzerAgent};
pub use classifier::ClassifierAgent;
pub use collector::{CollectorAgent, CollectorInterface};
pub use interface::{AlertSink, InterfaceAgent};
pub use ledger::{Ledger, LedgerIter};
pub use root::{FederationLink, ProcessorRootAgent};
pub use system::{GridBuilder, GridReport, ManagementGrid, Violation};

/// Default analysis rules shipped with the grid: the problems the paper's
/// motivating example watches for (processor, memory, disk, processes)
/// plus interface status, reachability, a level-2 consolidation rule and
/// a level-3 cross-device correlation rule.
pub const DEFAULT_RULES: &str = r#"
rule "high-cpu" salience 10 {
    when cpu(device: ?d, value: ?v)
    if ?v > 90
    then emit critical ?d "cpu load at ?v% on ?d"
}
rule "disk-pressure" salience 8 {
    when disk(device: ?d, value: ?v)
    if ?v >= 85
    then emit warning ?d "disk ?v% full on ?d"
}
rule "memory-pressure" salience 8 {
    when mem(device: ?d, value: ?v)
    if ?v >= 90
    then emit warning ?d "memory ?v% used on ?d"
}
rule "link-down" salience 9 {
    when if_status(device: ?d, index: ?i, value: ?s)
    if ?s == 2
    then emit critical ?d "interface ?i down on ?d"
}
rule "process-storm" salience 4 {
    when procs(device: ?d, value: ?v)
    if ?v > 400
    then emit warning ?d "?v processes running on ?d"
}
rule "device-unreachable" salience 10 {
    when obs(device: ?d, metric: "agent.reachable", value: ?v)
    if ?v == 0
    then emit critical ?d "device ?d is not answering management requests"
}
rule "disk-filling-fast" salience 7 {
    when trend(device: ?d, metric: "storage.disk.used-pct", per-min: ?r)
    if ?r > 1.0
    then emit warning ?d "disk on ?d filling at ?r %/min"
}
rule "sustained-cpu" salience 5 {
    when stat(device: ?d, metric: "cpu.load.1", mean: ?m)
    if ?m > 80
    then emit warning ?d "sustained cpu pressure on ?d (mean ?m%)"
}
rule "correlated-cpu" salience 6 {
    when cpu(device: ?a, value: ?x)
    when cpu(device: ?b, value: ?y)
    if ?x > 90
    if ?y > 90
    if ?a < ?b
    then emit critical ?a "correlated cpu overload on ?a and ?b"
}
"#;
