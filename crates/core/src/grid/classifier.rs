use std::collections::BTreeMap;
use std::sync::Arc;

use agentgrid_acl::ontology::{CollectedBatch, FromContent, MANAGEMENT_ONTOLOGY};
use agentgrid_acl::{AclMessage, AgentId, Performative, Value};
use agentgrid_platform::{Agent, AgentCtx};
use agentgrid_store::ManagementStore;
use parking_lot::Mutex;

/// A classifier-grid agent (paper §3.2).
///
/// Receives [`CollectedBatch`]es from collectors, parses them, stores
/// every observation in the shared indexed [`ManagementStore`] (which
/// classifies each new series into a partition — data-clustering), and
/// sends the processor-grid root a `data-ready` notification listing the
/// partitions that received fresh data and their sizes.
pub struct ClassifierAgent {
    store: Arc<Mutex<ManagementStore>>,
    pg_root: AgentId,
    /// Batches processed so far.
    pub batches: u64,
    /// Records stored so far.
    pub records: u64,
    /// Batches that failed to parse (malformed content).
    pub rejects: u64,
}

impl std::fmt::Debug for ClassifierAgent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClassifierAgent")
            .field("batches", &self.batches)
            .field("records", &self.records)
            .field("rejects", &self.rejects)
            .finish()
    }
}

impl ClassifierAgent {
    /// Creates a classifier writing to `store` and notifying `pg_root`.
    pub fn new(store: Arc<Mutex<ManagementStore>>, pg_root: AgentId) -> Self {
        ClassifierAgent {
            store,
            pg_root,
            batches: 0,
            records: 0,
            rejects: 0,
        }
    }
}

/// Builds the `data-ready` notification content (also used by tests of
/// the processor root).
pub(crate) fn data_ready_content(site: &str, partitions: &BTreeMap<&str, u64>, now: u64) -> Value {
    Value::map([
        ("concept", Value::symbol("data-ready")),
        ("site", Value::from(site)),
        ("ts", Value::Int(now as i64)),
        (
            "partitions",
            Value::list(partitions.iter().map(|(name, size)| {
                Value::map([
                    ("name", Value::from(*name)),
                    ("size", Value::Int(*size as i64)),
                ])
            })),
        ),
    ])
}

impl Agent for ClassifierAgent {
    fn on_message(&mut self, message: &AclMessage, ctx: &mut AgentCtx<'_>) {
        let Ok(batch) = CollectedBatch::from_content(message.content()) else {
            self.rejects += 1;
            return;
        };
        self.batches += 1;
        self.records += batch.observations.len() as u64;
        let content = {
            let mut store = self.store.lock();
            for obs in &batch.observations {
                store.insert_point(
                    &obs.device,
                    &obs.metric,
                    obs.value,
                    obs.timestamp_ms,
                    &batch.site,
                );
            }
            // Every observation counts toward its partition's size, even
            // one the store drops (NaN) or folds into an earlier point.
            let classifier = store.classifier();
            let mut touched: BTreeMap<&str, u64> = BTreeMap::new();
            for obs in &batch.observations {
                *touched
                    .entry(classifier.partition_of(&obs.metric))
                    .or_insert(0) += 1;
            }
            data_ready_content(&batch.site, &touched, ctx.now_ms())
        };
        let notify = AclMessage::builder(Performative::Inform)
            .sender(ctx.self_id().clone())
            .receiver(self.pg_root.clone())
            .ontology(MANAGEMENT_ONTOLOGY)
            .content(content)
            .build()
            .expect("sender and receiver are set");
        ctx.send(notify);
    }
}

/// Parses a `data-ready` content value into `(site, [(partition, size)])`.
/// Returns `None` for anything that is not a data-ready notification.
pub(crate) fn parse_data_ready(content: &Value) -> Option<(String, Vec<(String, u64)>)> {
    if content.get("concept")?.as_str()? != "data-ready" {
        return None;
    }
    let site = content.get("site")?.as_str()?.to_owned();
    let mut partitions = Vec::new();
    for entry in content.get("partitions")?.as_list()? {
        let name = entry.get("name")?.as_str()?.to_owned();
        let size = entry.get("size")?.as_int()?.max(0) as u64;
        partitions.push((name, size));
    }
    Some((site, partitions))
}

#[cfg(test)]
mod tests {
    use super::*;
    use agentgrid_acl::ontology::{Observation, ToContent};
    use agentgrid_store::Classifier;

    fn batch() -> CollectedBatch {
        CollectedBatch::new(
            "b1",
            "cg-1",
            "hq",
            vec![
                Observation::new("r1", "cpu.load.1", 95.0, 1000),
                Observation::new("r1", "storage.disk.used-pct", 50.0, 1000),
                Observation::new("r2", "cpu.load.1", 20.0, 1000),
            ],
        )
    }

    #[test]
    fn data_ready_round_trips() {
        let touched = BTreeMap::from([("cpu", 2u64), ("disk", 1u64)]);
        let content = data_ready_content("hq", &touched, 99);
        let (site, partitions) = parse_data_ready(&content).unwrap();
        assert_eq!(site, "hq");
        assert_eq!(partitions, [("cpu".to_owned(), 2), ("disk".to_owned(), 1)]);
    }

    #[test]
    fn parse_data_ready_rejects_other_concepts() {
        let obs = Observation::new("d", "m", 1.0, 0);
        assert!(parse_data_ready(&obs.to_content()).is_none());
        assert!(parse_data_ready(&Value::Nil).is_none());
    }

    #[test]
    fn classifier_stores_and_notifies() {
        use agentgrid_platform::Platform;

        let store = Arc::new(Mutex::new(ManagementStore::new(Classifier::standard())));
        let mut platform = Platform::new("g");
        platform.add_container("clg");
        let root_id = AgentId::with_platform("pg-root", "g");
        platform
            .spawn(
                "clg",
                "classifier",
                ClassifierAgent::new(Arc::clone(&store), root_id.clone()),
            )
            .unwrap();
        let msg = AclMessage::builder(Performative::Inform)
            .sender(AgentId::new("cg-1@g"))
            .receiver(AgentId::with_platform("classifier", "g"))
            .content(batch().to_content())
            .build()
            .unwrap();
        platform.post(msg);
        platform.step(0);
        platform.step(0);
        // 3 records stored, partitioned into cpu + disk.
        assert_eq!(store.lock().len(), 3);
        assert_eq!(store.lock().partitions(), ["cpu", "disk"]);
        // The notification went to the (nonexistent) root → dead letter
        // carrying a data-ready payload.
        assert_eq!(platform.dead_letters().len(), 1);
        let (site, partitions) = parse_data_ready(platform.dead_letters()[0].content()).unwrap();
        assert_eq!(site, "hq");
        assert_eq!(partitions.len(), 2);
    }

    #[test]
    fn nan_and_repeated_points_count_toward_partitions_but_store_as_records_do() {
        use agentgrid_store::{LabelFilter, NaiveStore, Record};

        let observations = vec![
            Observation::new("r1", "cpu.load.1", 95.0, 1000),
            Observation::new("r1", "cpu.load.1", f64::NAN, 2000),
            Observation::new("r1", "storage.disk.used-pct", 50.0, 1000),
            Observation::new("r1", "cpu.load.1", 97.0, 1000),
            Observation::new("r2", "cpu.load.1", f64::NAN, 1000),
        ];
        let store = Arc::new(Mutex::new(ManagementStore::default()));
        let mut agent = ClassifierAgent::new(Arc::clone(&store), AgentId::new("root"));
        let id = AgentId::new("classifier@g");
        let mut outbox = Vec::new();
        let mut df = agentgrid_platform::DirectoryFacilitator::new();
        let mut ctx = agentgrid_platform::AgentCtx::new(&id, "clg", 0, &mut outbox, &mut df);
        let msg = AclMessage::builder(Performative::Inform)
            .sender(AgentId::new("cg-1@g"))
            .receiver(id.clone())
            .content(CollectedBatch::new("b1", "cg-1", "hq", observations.clone()).to_content())
            .build()
            .unwrap();
        agent.on_message(&msg, &mut ctx);
        drop(ctx);
        assert_eq!(agent.records, 5);
        // Every observation counts, the dropped NaNs and the replaced
        // point included.
        let (site, partitions) = parse_data_ready(outbox[0].content()).unwrap();
        assert_eq!(site, "hq");
        assert_eq!(partitions, [("cpu".to_owned(), 4), ("disk".to_owned(), 1)]);
        // The store holds what inserting each observation as a record
        // into the reference store holds.
        let mut reference = NaiveStore::default();
        for obs in &observations {
            reference.insert(
                Record::new(&*obs.device, &*obs.metric, obs.value, obs.timestamp_ms)
                    .with_site("hq"),
            );
        }
        let store = store.lock();
        assert_eq!(store.len(), 2);
        assert_eq!(store.len(), reference.len());
        assert_eq!(store.devices_at("hq").collect::<Vec<_>>(), ["r1"]);
        assert_eq!(
            store.devices_at("hq").collect::<Vec<_>>(),
            reference.devices_at("hq").collect::<Vec<_>>()
        );
        assert_eq!(store.partitions(), reference.partitions());
        let all = LabelFilter::Any;
        assert_eq!(store.select(&all), reference.select(&all));
        for (device, metric) in reference.select(&all) {
            assert_eq!(
                store
                    .range(&device, &metric, 0, u64::MAX)
                    .collect::<Vec<_>>(),
                reference
                    .range(&device, &metric, 0, u64::MAX)
                    .collect::<Vec<_>>()
            );
        }
        assert_eq!(store.latest("r1", "cpu.load.1"), Some((1000, 97.0)));
    }

    #[test]
    fn malformed_batches_are_counted_not_stored() {
        let store = Arc::new(Mutex::new(ManagementStore::default()));
        let mut agent = ClassifierAgent::new(Arc::clone(&store), AgentId::new("root"));
        let id = AgentId::new("classifier@g");
        let mut outbox = Vec::new();
        let mut df = agentgrid_platform::DirectoryFacilitator::new();
        let mut ctx = agentgrid_platform::AgentCtx::new(&id, "clg", 0, &mut outbox, &mut df);
        let bad = AclMessage::builder(Performative::Inform)
            .sender(AgentId::new("x"))
            .receiver(id.clone())
            .content(Value::symbol("garbage"))
            .build()
            .unwrap();
        agent.on_message(&bad, &mut ctx);
        drop(ctx);
        assert_eq!(agent.rejects, 1);
        assert!(store.lock().is_empty());
        assert!(outbox.is_empty());
    }
}
