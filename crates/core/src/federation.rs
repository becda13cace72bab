//! The inter-grid federation protocol (sharded mode).
//!
//! A federated [`ManagementGrid`](crate::grid::ManagementGrid) is N peer
//! grids — each with its own root, directory scope, classifier, analyzer
//! tier and store — partitioned over the managed sites by
//! [`shard_of_site`]. The shards cooperate through exactly three message
//! families, all carried as ordinary ACL content so they ride the same
//! delivery, reliability and adversary machinery as every other message:
//!
//! * **`load-digest`** — each root gossips its shard's aggregate load
//!   and in-flight depth to every peer once per tick, so spill-over can
//!   pick the least-loaded peer without a global directory;
//! * **`spill`** / **`spill-done`** — when a shard's admission gate or
//!   broker turns a first award away, the task forwards to the
//!   least-loaded peer, which runs it as its own and reports completion
//!   back to the origin. The origin keeps the task in its outstanding
//!   set until the `spill-done` lands (a lost spill is *visible*, never
//!   silently dropped), and its `done_seen` ledger makes the completion
//!   exactly-once under duplication and retransmission;
//! * **`fed-summary`** — with each round's level-3 sweep each root
//!   publishes its [`SUMMARY_TOP_K`] hottest devices as compact findings; peers
//!   inject them into their own stores under a [`fed_device`] alias so
//!   the existing level-3 rules (e.g. `correlated-cpu`) see cross-domain
//!   pairs without any rule or ontology change — summaries, not raw
//!   facts, cross the domain boundary.
//!
//! Everything here is a pure function of message content plus the
//! shard's own deterministic state, so federated runs stay bit-identical
//! across the deterministic stepper and the pool runtime.

use agentgrid_acl::ontology::{AnalysisTask, FromContent, ToContent};
use agentgrid_acl::Value;

/// How many hot devices a `fed-summary` carries.
pub const SUMMARY_TOP_K: usize = 4;

/// Deterministic site partitioner: sites (in sorted name order) are
/// dealt round-robin over the shards, so shard membership depends only
/// on the topology, never on timing.
pub fn shard_of_site(site_index: usize, shards: usize) -> usize {
    site_index % shards.max(1)
}

/// The shard-scoped directory service analyzers register beside the
/// global `"analysis"` entry, so each root brokers only over its own
/// tier while interface-grid broadcasts still reach every analyzer.
pub fn shard_service(shard: usize) -> String {
    format!("analysis-s{shard}")
}

/// Alias under which a peer shard's finding is stored locally; keeps
/// the metric name intact so [`facts_for`](crate::grid::facts_for)
/// produces the same fact family as a local observation.
pub fn fed_device(origin_shard: usize, device: &str) -> String {
    format!("fed-s{origin_shard}:{device}")
}

/// One gossiped per-shard load digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadDigest {
    /// Shard the digest describes.
    pub shard: usize,
    /// Mean analyzer load across the shard, in milli-units (integer so
    /// the wire encoding round-trips exactly).
    pub load_milli: i64,
    /// Tasks in flight or parked on the shard's root.
    pub outstanding: u64,
}

impl LoadDigest {
    /// Wire encoding.
    pub fn to_content(&self) -> Value {
        Value::map([
            ("concept", Value::symbol("load-digest")),
            ("shard", Value::Int(self.shard as i64)),
            ("load-milli", Value::Int(self.load_milli)),
            ("outstanding", Value::Int(self.outstanding as i64)),
        ])
    }

    /// Parses a digest; `None` for any other content.
    pub fn parse(content: &Value) -> Option<LoadDigest> {
        if content.get("concept").and_then(Value::as_str) != Some("load-digest") {
            return None;
        }
        Some(LoadDigest {
            shard: usize::try_from(content.get("shard")?.as_int()?).ok()?,
            load_milli: content.get("load-milli")?.as_int()?,
            outstanding: u64::try_from(content.get("outstanding")?.as_int()?).ok()?,
        })
    }
}

/// Wire encoding of a spill-over: the task plus its origin shard.
///
/// The task travels site-less: its site names devices in the origin's
/// store, and the peer runs the partition across its own store. It
/// travels unawarded too: the peer's award fixes its round.
pub fn spill_content(origin_shard: usize, task: &AnalysisTask) -> Value {
    let task = AnalysisTask {
        site: None,
        round_ms: None,
        ..task.clone()
    };
    Value::map([
        ("concept", Value::symbol("spill")),
        ("origin-shard", Value::Int(origin_shard as i64)),
        ("task", task.to_content()),
    ])
}

/// Parses a spill into `(origin shard, task)`.
pub fn parse_spill(content: &Value) -> Option<(usize, AnalysisTask)> {
    if content.get("concept").and_then(Value::as_str) != Some("spill") {
        return None;
    }
    let origin = usize::try_from(content.get("origin-shard")?.as_int()?).ok()?;
    let task = AnalysisTask::from_content(content.get("task")?).ok()?;
    Some((origin, task))
}

/// Wire encoding of a spill completion report back to the origin root.
pub fn spill_done_content(task_id: &str) -> Value {
    Value::map([
        ("concept", Value::symbol("spill-done")),
        ("task-id", Value::from(task_id)),
    ])
}

/// Parses a spill completion into the task id.
pub fn parse_spill_done(content: &Value) -> Option<&str> {
    if content.get("concept").and_then(Value::as_str) != Some("spill-done") {
        return None;
    }
    content.get("task-id").and_then(Value::as_str)
}

/// One compact finding inside a `fed-summary`: a hot device's latest
/// reading, `(device, metric, value)`.
pub type Finding = (String, String, f64);

/// Wire encoding of a cross-domain finding summary.
pub fn summary_content(shard: usize, ts_ms: u64, findings: &[Finding]) -> Value {
    let items = findings.iter().map(|(device, metric, value)| {
        Value::map([
            ("device", Value::from(device.as_str())),
            ("metric", Value::from(metric.as_str())),
            ("value", Value::Float(*value)),
        ])
    });
    Value::map([
        ("concept", Value::symbol("fed-summary")),
        ("shard", Value::Int(shard as i64)),
        ("ts", Value::Int(ts_ms as i64)),
        ("findings", Value::list(items)),
    ])
}

/// Parses a summary into `(origin shard, timestamp, findings)`.
pub fn parse_summary(content: &Value) -> Option<(usize, u64, Vec<Finding>)> {
    if content.get("concept").and_then(Value::as_str) != Some("fed-summary") {
        return None;
    }
    let shard = usize::try_from(content.get("shard")?.as_int()?).ok()?;
    let ts = u64::try_from(content.get("ts")?.as_int()?).ok()?;
    let mut findings = Vec::new();
    for item in content.get("findings")?.as_list()? {
        findings.push((
            item.get("device")?.as_str()?.to_owned(),
            item.get("metric")?.as_str()?.to_owned(),
            item.get("value")?.as_float()?,
        ));
    }
    Some((shard, ts, findings))
}

/// Federation counters one shard's root maintains; the grid facade sums
/// them across shards for the report's federation section.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FederationStats {
    /// Tasks this shard forwarded to a peer.
    pub spilled_out: u64,
    /// Tasks this shard accepted from a peer.
    pub spilled_in: u64,
    /// Spilled-out tasks whose `spill-done` landed back here.
    pub spill_completed: u64,
    /// `fed-summary` messages published to peers.
    pub summaries_sent: u64,
    /// `fed-summary` messages accepted (fresh, not stale duplicates).
    pub summaries_received: u64,
    /// Peer findings injected into the local store.
    pub injected_findings: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sites_deal_round_robin() {
        assert_eq!(shard_of_site(0, 4), 0);
        assert_eq!(shard_of_site(5, 4), 1);
        assert_eq!(shard_of_site(7, 1), 0);
        assert_eq!(shard_of_site(3, 0), 0, "degenerate shard count is safe");
    }

    #[test]
    fn load_digest_round_trips() {
        let digest = LoadDigest {
            shard: 2,
            load_milli: 417,
            outstanding: 9,
        };
        assert_eq!(LoadDigest::parse(&digest.to_content()), Some(digest));
        assert_eq!(
            LoadDigest::parse(&Value::map([("concept", Value::symbol("done"))])),
            None
        );
    }

    #[test]
    fn spill_round_trips_the_task() {
        let task = AnalysisTask::new("s0-t7", "cpu", "cpu", 2, 40);
        let content = spill_content(0, &task);
        let (origin, parsed) = parse_spill(&content).unwrap();
        assert_eq!(origin, 0);
        assert_eq!(parsed, task);
        assert_eq!(parse_spill_done(&content), None, "concepts are disjoint");
    }

    #[test]
    fn spill_content_carries_no_site() {
        let siteless = AnalysisTask::new("s0-t7", "cpu", "cpu", 2, 40);
        let scoped = siteless.clone().with_site("site-3");
        let content = spill_content(0, &scoped);
        assert!(content.get("task").unwrap().get("site").is_none());
        assert_eq!(content, spill_content(0, &siteless), "byte-identical");
        assert_eq!(parse_spill(&content).unwrap().1, siteless);
    }

    #[test]
    fn spill_content_carries_no_round() {
        let awarded = AnalysisTask {
            round_ms: Some(60_000),
            ..AnalysisTask::new("s0-t7", "cpu", "cpu", 2, 40)
        };
        let content = spill_content(0, &awarded);
        assert!(content.get("task").unwrap().get("round").is_none());
        assert_eq!(
            parse_spill(&content).unwrap().1.round_ms,
            None,
            "the peer's award stamps the round"
        );
    }

    #[test]
    fn spill_done_round_trips() {
        assert_eq!(
            parse_spill_done(&spill_done_content("s1-t3")),
            Some("s1-t3")
        );
    }

    #[test]
    fn summary_round_trips_findings() {
        let findings = vec![
            ("site-0-dev2".to_owned(), "cpu.load.1".to_owned(), 97.5),
            ("site-0-dev0".to_owned(), "cpu.load.1".to_owned(), 91.0),
        ];
        let content = summary_content(3, 120_000, &findings);
        assert_eq!(parse_summary(&content), Some((3, 120_000, findings)));
    }

    #[test]
    fn fed_device_alias_keeps_the_metric_family() {
        assert_eq!(fed_device(1, "site-1-dev0"), "fed-s1:site-1-dev0");
    }
}
