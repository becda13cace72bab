//! The `agentgrid-management` ontology.
//!
//! The paper requires a common, ontology-backed representation for data
//! exchanged between grids (§3.1: "This representation can be made using
//! XML and ontologies") and a FIPA-style resource-profile ontology used
//! when a container registers with the grid root (§3.5, Fig. 4). This
//! module defines those concept types and their mapping to the content
//! language ([`Value`]).
//!
//! Every concept implements [`ToContent`]/[`FromContent`], so it can be
//! placed into and recovered from [`AclMessage`](crate::AclMessage)
//! contents without an external serialization format.

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::Value;

/// Name of the management ontology, for the `ontology` message slot.
pub const MANAGEMENT_ONTOLOGY: &str = "agentgrid-management";

/// Conversion of an ontology concept into content-language form.
pub trait ToContent {
    /// Encodes the concept as a content-language value.
    fn to_content(&self) -> Value;
}

/// Conversion of content-language form back into an ontology concept.
pub trait FromContent: Sized {
    /// Decodes a concept from a content-language value.
    ///
    /// # Errors
    ///
    /// Returns [`OntologyError`] when `value` does not encode this concept.
    fn from_content(value: &Value) -> Result<Self, OntologyError>;
}

/// Error returned when decoding an ontology concept fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OntologyError {
    expected: &'static str,
    detail: String,
}

impl OntologyError {
    /// Creates an error for a concept kind with a human-readable detail.
    pub fn new(expected: &'static str, detail: impl Into<String>) -> Self {
        OntologyError {
            expected,
            detail: detail.into(),
        }
    }

    /// The concept that was expected.
    pub fn expected(&self) -> &'static str {
        self.expected
    }
}

impl fmt::Display for OntologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot decode {}: {}", self.expected, self.detail)
    }
}

impl std::error::Error for OntologyError {}

fn require<'a>(v: &'a Value, key: &str, concept: &'static str) -> Result<&'a Value, OntologyError> {
    v.get(key)
        .ok_or_else(|| OntologyError::new(concept, format!("missing :{key}")))
}

fn req_str(v: &Value, key: &str, concept: &'static str) -> Result<String, OntologyError> {
    require(v, key, concept)?
        .as_str()
        .map(str::to_owned)
        .ok_or_else(|| OntologyError::new(concept, format!(":{key} is not a string")))
}

/// Like [`req_str`], but shares a `Str`'s text instead of copying it.
fn req_arc(v: &Value, key: &str, concept: &'static str) -> Result<Arc<str>, OntologyError> {
    let value = require(v, key, concept)?;
    value
        .as_arc_str()
        .cloned()
        .or_else(|| value.as_str().map(Arc::from))
        .ok_or_else(|| OntologyError::new(concept, format!(":{key} is not a string")))
}

fn req_f64(v: &Value, key: &str, concept: &'static str) -> Result<f64, OntologyError> {
    require(v, key, concept)?
        .as_float()
        .ok_or_else(|| OntologyError::new(concept, format!(":{key} is not a number")))
}

fn req_u64(v: &Value, key: &str, concept: &'static str) -> Result<u64, OntologyError> {
    let i = require(v, key, concept)?
        .as_int()
        .ok_or_else(|| OntologyError::new(concept, format!(":{key} is not an integer")))?;
    u64::try_from(i).map_err(|_| OntologyError::new(concept, format!(":{key} is negative")))
}

/// A single observation collected from a managed device.
///
/// This is the normalized form every collector emits regardless of the
/// management-protocol *interface* (SNMP, CLI, …) it used — the paper's
/// "common representation" (§3.1). Its strings are shared: a collector
/// that keeps one `Arc<str>` per device and metric name, the content it
/// encodes and the observation the classifier decodes all point at the
/// same text.
///
/// # Examples
///
/// ```
/// use agentgrid_acl::ontology::{FromContent, Observation, ToContent};
///
/// let obs = Observation::new("router-1", "cpu.load", 87.5, 1200);
/// let round = Observation::from_content(&obs.to_content()).unwrap();
/// assert_eq!(round, obs);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Observation {
    /// Device the value was read from.
    pub device: Arc<str>,
    /// Metric name, dot-separated (e.g. `if.eth0.in-octets`).
    pub metric: Arc<str>,
    /// Observed numeric value.
    pub value: f64,
    /// Collection timestamp (milliseconds since scenario start).
    pub timestamp_ms: u64,
}

impl Observation {
    /// Creates an observation.
    pub fn new(
        device: impl Into<Arc<str>>,
        metric: impl Into<Arc<str>>,
        value: f64,
        timestamp_ms: u64,
    ) -> Self {
        Observation {
            device: device.into(),
            metric: metric.into(),
            value,
            timestamp_ms,
        }
    }
}

impl ToContent for Observation {
    fn to_content(&self) -> Value {
        Value::map([
            ("concept", Value::symbol("observation")),
            ("device", Value::from(&self.device)),
            ("metric", Value::from(&self.metric)),
            ("value", Value::from(self.value)),
            ("ts", Value::Int(self.timestamp_ms as i64)),
        ])
    }
}

impl FromContent for Observation {
    fn from_content(value: &Value) -> Result<Self, OntologyError> {
        const C: &str = "observation";
        check_concept(value, C)?;
        Ok(Observation {
            device: req_arc(value, "device", C)?,
            metric: req_arc(value, "metric", C)?,
            value: req_f64(value, "value", C)?,
            timestamp_ms: req_u64(value, "ts", C)?,
        })
    }
}

fn check_concept(value: &Value, concept: &'static str) -> Result<(), OntologyError> {
    let tag = value
        .get("concept")
        .and_then(Value::as_str)
        .ok_or_else(|| OntologyError::new(concept, "missing :concept tag"))?;
    if tag != concept {
        return Err(OntologyError::new(concept, format!("value is a `{tag}`")));
    }
    Ok(())
}

/// A batch of observations shipped from one grid stage to the next.
///
/// Collector agents accumulate observations and forward them as one batch
/// (the paper's "file containing collected data", §3.2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CollectedBatch {
    /// Identifier of the batch, unique per collector.
    pub batch_id: String,
    /// Collector that produced the batch.
    pub collector: String,
    /// Site the data was collected at.
    pub site: String,
    /// The observations.
    pub observations: Vec<Observation>,
}

impl CollectedBatch {
    /// Creates a batch.
    pub fn new(
        batch_id: impl Into<String>,
        collector: impl Into<String>,
        site: impl Into<String>,
        observations: Vec<Observation>,
    ) -> Self {
        CollectedBatch {
            batch_id: batch_id.into(),
            collector: collector.into(),
            site: site.into(),
            observations,
        }
    }
}

impl ToContent for CollectedBatch {
    fn to_content(&self) -> Value {
        Value::map([
            ("concept", Value::symbol("collected-batch")),
            ("batch-id", Value::from(self.batch_id.as_str())),
            ("collector", Value::from(self.collector.as_str())),
            ("site", Value::from(self.site.as_str())),
            (
                "observations",
                Value::list(self.observations.iter().map(ToContent::to_content)),
            ),
        ])
    }
}

impl FromContent for CollectedBatch {
    fn from_content(value: &Value) -> Result<Self, OntologyError> {
        const C: &str = "collected-batch";
        check_concept(value, C)?;
        let obs_value = require(value, "observations", C)?;
        let items = obs_value
            .as_list()
            .ok_or_else(|| OntologyError::new(C, ":observations is not a list"))?;
        let observations = items
            .iter()
            .map(Observation::from_content)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(CollectedBatch {
            batch_id: req_str(value, "batch-id", C)?,
            collector: req_str(value, "collector", C)?,
            site: req_str(value, "site", C)?,
            observations,
        })
    }
}

/// Resource profile a container registers with the grid root (Fig. 4).
///
/// The root's directory keeps one profile per container and uses it for
/// load balancing: *knowledge* (which analyses the container can run),
/// *capacity* (how fast) and current *load* (how busy).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResourceProfile {
    /// Container name.
    pub container: String,
    /// Relative CPU capacity (1.0 = reference host).
    pub cpu_capacity: f64,
    /// Relative disk throughput (1.0 = reference host).
    pub disk_capacity: f64,
    /// Memory available to agents, in megabytes.
    pub memory_mb: u64,
    /// Analysis capabilities ("knowledge") this container offers.
    pub skills: Vec<String>,
    /// Current load in [0, 1] (written by the directory's load account).
    pub load: f64,
}

impl ResourceProfile {
    /// Creates a profile with zero load.
    pub fn new(
        container: impl Into<String>,
        cpu_capacity: f64,
        disk_capacity: f64,
        memory_mb: u64,
        skills: impl IntoIterator<Item = impl Into<String>>,
    ) -> Self {
        ResourceProfile {
            container: container.into(),
            cpu_capacity,
            disk_capacity,
            memory_mb,
            skills: skills.into_iter().map(Into::into).collect(),
            load: 0.0,
        }
    }

    /// Whether the container declares the given skill.
    pub fn has_skill(&self, skill: &str) -> bool {
        self.skills.iter().any(|s| s == skill)
    }

    /// Idle capacity estimate: `cpu_capacity * (1 - load)`.
    pub fn headroom(&self) -> f64 {
        self.cpu_capacity * (1.0 - self.load).max(0.0)
    }
}

impl ToContent for ResourceProfile {
    fn to_content(&self) -> Value {
        Value::map([
            ("concept", Value::symbol("resource-profile")),
            ("container", Value::from(self.container.as_str())),
            ("cpu", Value::from(self.cpu_capacity)),
            ("disk", Value::from(self.disk_capacity)),
            ("memory-mb", Value::Int(self.memory_mb as i64)),
            (
                "skills",
                Value::list(self.skills.iter().map(|s| Value::from(s.as_str()))),
            ),
            ("load", Value::from(self.load)),
        ])
    }
}

impl FromContent for ResourceProfile {
    fn from_content(value: &Value) -> Result<Self, OntologyError> {
        const C: &str = "resource-profile";
        check_concept(value, C)?;
        let skills_value = require(value, "skills", C)?;
        let skills = skills_value
            .as_list()
            .ok_or_else(|| OntologyError::new(C, ":skills is not a list"))?
            .iter()
            .map(|s| {
                s.as_str()
                    .map(str::to_owned)
                    .ok_or_else(|| OntologyError::new(C, "skill is not a string"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ResourceProfile {
            container: req_str(value, "container", C)?,
            cpu_capacity: req_f64(value, "cpu", C)?,
            disk_capacity: req_f64(value, "disk", C)?,
            memory_mb: req_u64(value, "memory-mb", C)?,
            skills,
            load: req_f64(value, "load", C)?,
        })
    }
}

/// Severity of an [`Alert`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub enum Severity {
    /// Informational finding.
    #[default]
    Info,
    /// Degradation that needs attention.
    Warning,
    /// Service-affecting problem.
    Critical,
}

impl Severity {
    /// The wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Critical => "critical",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A problem found by the processor grid, pushed to users via the
/// interface grid (§3.4).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Alert {
    /// Rule that fired.
    pub rule: String,
    /// Device the problem concerns (may name several, comma-separated,
    /// for level-3 cross-device findings).
    pub device: String,
    /// Severity classification.
    pub severity: Severity,
    /// Human-readable description.
    pub message: String,
    /// When the alert was raised (ms since scenario start).
    pub timestamp_ms: u64,
}

impl Alert {
    /// Creates an alert.
    pub fn new(
        rule: impl Into<String>,
        device: impl Into<String>,
        severity: Severity,
        message: impl Into<String>,
        timestamp_ms: u64,
    ) -> Self {
        Alert {
            rule: rule.into(),
            device: device.into(),
            severity,
            message: message.into(),
            timestamp_ms,
        }
    }
}

impl ToContent for Alert {
    fn to_content(&self) -> Value {
        Value::map([
            ("concept", Value::symbol("alert")),
            ("rule", Value::from(self.rule.as_str())),
            ("device", Value::from(self.device.as_str())),
            ("severity", Value::symbol(self.severity.as_str())),
            ("message", Value::from(self.message.as_str())),
            ("ts", Value::Int(self.timestamp_ms as i64)),
        ])
    }
}

impl FromContent for Alert {
    fn from_content(value: &Value) -> Result<Self, OntologyError> {
        const C: &str = "alert";
        check_concept(value, C)?;
        let severity = match require(value, "severity", C)?.as_str() {
            Some("info") => Severity::Info,
            Some("warning") => Severity::Warning,
            Some("critical") => Severity::Critical,
            other => return Err(OntologyError::new(C, format!("unknown severity {other:?}"))),
        };
        Ok(Alert {
            rule: req_str(value, "rule", C)?,
            device: req_str(value, "device", C)?,
            severity,
            message: req_str(value, "message", C)?,
            timestamp_ms: req_u64(value, "ts", C)?,
        })
    }
}

/// An analysis job offered by the processor-grid root to containers
/// (Fig. 3: "division of analysis tasks in the grid").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnalysisTask {
    /// Task identifier.
    pub task_id: String,
    /// Skill required to run the task (e.g. `disk-analysis`).
    pub skill: String,
    /// Classified-data partition the task covers.
    pub partition: String,
    /// Analysis level: 1 = stateless, 2 = consolidation, 3 = correlation.
    pub level: u8,
    /// Relative size (number of records to analyze).
    pub size: u64,
    /// Site whose data the task covers; `None` covers every site.
    /// Correlation sweeps and spilled tasks are site-less.
    pub site: Option<String>,
    /// Simulated time of the round the task analyzes: the instant of its
    /// first award. A retry or re-award delivers the task for that round,
    /// so an analyzer that finds newer data in the task's scope knows a
    /// later round's own task covers it. `None` until first awarded.
    pub round_ms: Option<u64>,
}

impl AnalysisTask {
    /// Creates a task description.
    pub fn new(
        task_id: impl Into<String>,
        skill: impl Into<String>,
        partition: impl Into<String>,
        level: u8,
        size: u64,
    ) -> Self {
        AnalysisTask {
            task_id: task_id.into(),
            skill: skill.into(),
            partition: partition.into(),
            level,
            size,
            site: None,
            round_ms: None,
        }
    }

    /// Scopes the task to one site (builder style).
    pub fn with_site(mut self, site: impl Into<String>) -> Self {
        self.site = Some(site.into());
        self
    }
}

impl ToContent for AnalysisTask {
    fn to_content(&self) -> Value {
        let mut pairs = vec![
            ("concept", Value::symbol("analysis-task")),
            ("task-id", Value::from(self.task_id.as_str())),
            ("skill", Value::from(self.skill.as_str())),
            ("partition", Value::from(self.partition.as_str())),
            ("level", Value::Int(self.level.into())),
            ("size", Value::Int(self.size as i64)),
        ];
        // The keys are written only when set: a site-less task (a
        // correlation sweep, a spill) encodes without `site`, and a task
        // not yet awarded (a spill) without `round`.
        if let Some(site) = &self.site {
            pairs.push(("site", Value::from(site.as_str())));
        }
        if let Some(round_ms) = self.round_ms {
            pairs.push(("round", Value::Int(round_ms as i64)));
        }
        Value::map(pairs)
    }
}

impl FromContent for AnalysisTask {
    fn from_content(value: &Value) -> Result<Self, OntologyError> {
        const C: &str = "analysis-task";
        check_concept(value, C)?;
        let level = req_u64(value, "level", C)?;
        let level =
            u8::try_from(level).map_err(|_| OntologyError::new(C, ":level out of range"))?;
        Ok(AnalysisTask {
            task_id: req_str(value, "task-id", C)?,
            skill: req_str(value, "skill", C)?,
            partition: req_str(value, "partition", C)?,
            level,
            size: req_u64(value, "size", C)?,
            site: match value.get("site") {
                None => None,
                Some(_) => Some(req_str(value, "site", C)?),
            },
            round_ms: match value.get("round") {
                None => None,
                Some(_) => Some(req_u64(value, "round", C)?),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observation_round_trips() {
        let obs = Observation::new("sw-1", "if.1.in-octets", 12345.0, 99);
        assert_eq!(Observation::from_content(&obs.to_content()).unwrap(), obs);
    }

    #[test]
    fn batch_round_trips() {
        let batch = CollectedBatch::new(
            "b-1",
            "collector-0",
            "site-1",
            vec![
                Observation::new("r1", "cpu.load", 10.0, 1),
                Observation::new("r1", "mem.free", 512.0, 1),
            ],
        );
        assert_eq!(
            CollectedBatch::from_content(&batch.to_content()).unwrap(),
            batch
        );
    }

    /// The exact text of a batch: the layout every reader of the wire
    /// (the classifier, gridbench's batch counts) relies on.
    #[test]
    fn batch_wire_text_is_pinned() {
        let batch = CollectedBatch::new(
            "b-1",
            "cg-1@site-1",
            "site-1",
            vec![
                Observation::new("r1", "cpu.load", 10.0, 1),
                Observation::new("r\"2\"", "agent.reachable", 0.5, 2),
            ],
        );
        let text = batch.to_content().to_string();
        assert_eq!(
            text,
            concat!(
                r#"(map :batch-id "b-1" :collector "cg-1@site-1" :concept collected-batch"#,
                r#" :observations ("#,
                r#"(map :concept observation :device "r1" :metric "cpu.load" :ts 1 :value 10.0)"#,
                r#" (map :concept observation :device "r\"2\"" :metric "agent.reachable""#,
                r#" :ts 2 :value 0.5)"#,
                r#") :site "site-1")"#,
            )
        );
        let parsed: Value = text.parse().unwrap();
        assert_eq!(CollectedBatch::from_content(&parsed).unwrap(), batch);
    }

    #[test]
    fn decoding_shares_the_contents_strings() {
        let batch = CollectedBatch::new(
            "b-1",
            "cg-1",
            "site-1",
            vec![Observation::new("r1", "cpu.load.1", 10.0, 1)],
        );
        let content = batch.to_content();
        let encoded = &content
            .get("observations")
            .and_then(Value::as_list)
            .unwrap()[0];
        let shared = |key| encoded.get(key).and_then(Value::as_arc_str).unwrap();
        // Encoding shares the observation's strings ...
        assert!(Arc::ptr_eq(shared("device"), &batch.observations[0].device));
        // ... and decoding shares the content's.
        let decoded = CollectedBatch::from_content(&content).unwrap();
        assert!(Arc::ptr_eq(
            &decoded.observations[0].device,
            shared("device")
        ));
        assert!(Arc::ptr_eq(
            &decoded.observations[0].metric,
            shared("metric")
        ));
    }

    #[test]
    fn a_symbol_device_still_decodes() {
        let v = Value::map([
            ("concept", Value::symbol("observation")),
            ("device", Value::symbol("r1")),
            ("metric", Value::from("m")),
            ("value", Value::from(1.0)),
            ("ts", Value::Int(1)),
        ]);
        let obs = Observation::from_content(&v).unwrap();
        assert_eq!(&*obs.device, "r1");
    }

    #[test]
    fn profile_round_trips_and_queries() {
        let mut p = ResourceProfile::new("c1", 2.0, 1.0, 4096, ["cpu-analysis", "correlation"]);
        p.load = 0.25;
        let back = ResourceProfile::from_content(&p.to_content()).unwrap();
        assert_eq!(back, p);
        assert!(p.has_skill("correlation"));
        assert!(!p.has_skill("disk-analysis"));
        assert!((p.headroom() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn headroom_never_negative() {
        let mut p = ResourceProfile::new("c1", 1.0, 1.0, 1, ["x"]);
        p.load = 1.5;
        assert_eq!(p.headroom(), 0.0);
    }

    #[test]
    fn alert_round_trips_all_severities() {
        for severity in [Severity::Info, Severity::Warning, Severity::Critical] {
            let a = Alert::new("high-cpu", "host-3", severity, "cpu above 90%", 42);
            assert_eq!(Alert::from_content(&a.to_content()).unwrap(), a);
        }
    }

    #[test]
    fn task_round_trips() {
        let t = AnalysisTask::new("t-9", "disk-analysis", "site-1/disk", 2, 120);
        assert_eq!(AnalysisTask::from_content(&t.to_content()).unwrap(), t);
    }

    #[test]
    fn task_round_trips_with_and_without_a_site() {
        let siteless = AnalysisTask::new("t-1", "cpu", "cpu", 1, 10);
        let content = siteless.to_content();
        assert!(content.get("site").is_none(), "no site key when unset");
        assert_eq!(AnalysisTask::from_content(&content).unwrap(), siteless);

        let scoped = siteless.clone().with_site("site-2");
        let content = scoped.to_content();
        assert_eq!(content.get("site").and_then(Value::as_str), Some("site-2"));
        let back = AnalysisTask::from_content(&content).unwrap();
        assert_eq!(back, scoped);
        assert_eq!(back.site.as_deref(), Some("site-2"));
    }

    #[test]
    fn task_round_is_written_only_when_set() {
        let fresh = AnalysisTask::new("t-1", "cpu", "cpu", 1, 10);
        assert!(fresh.to_content().get("round").is_none());
        let awarded = AnalysisTask {
            round_ms: Some(120_000),
            ..fresh
        };
        let content = awarded.to_content();
        assert_eq!(content.get("round").and_then(Value::as_int), Some(120_000));
        assert_eq!(AnalysisTask::from_content(&content).unwrap(), awarded);
    }

    #[test]
    fn task_with_a_non_string_site_is_rejected() {
        let mut content = AnalysisTask::new("t-1", "cpu", "cpu", 1, 10).to_content();
        if let Value::Map(map) = &mut content {
            map.insert("site".into(), Value::Int(3));
        }
        assert!(AnalysisTask::from_content(&content).is_err());
    }

    #[test]
    fn wrong_concept_tag_is_rejected() {
        let obs = Observation::new("d", "m", 1.0, 1);
        let err = Alert::from_content(&obs.to_content()).unwrap_err();
        assert_eq!(err.expected(), "alert");
    }

    #[test]
    fn missing_field_is_rejected() {
        let v = Value::map([("concept", Value::symbol("observation"))]);
        assert!(Observation::from_content(&v).is_err());
    }

    #[test]
    fn severity_orders_by_seriousness() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Critical);
    }
}
