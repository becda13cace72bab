//! Management-data storage for `agentgrid`.
//!
//! The classifier grid "performs parsing, classification, indexing and
//! storing data tasks" (paper §3.2), organizing collected data "in a way
//! that facilitates its distribution and analysis (data-clustering)".
//! This crate is that substrate:
//!
//! * [`Record`] — one stored observation;
//! * [`Classifier`] — partitions records into named clusters by metric
//!   prefix, so analysis tasks can be divided along partition lines;
//! * [`ManagementStore`] — an indexed time-series store with per-device /
//!   per-metric / per-partition retrieval, label-filter selection, range
//!   queries, windowed aggregation and retention, on chunk-compressed
//!   series (Gorilla-style delta-of-delta + XOR encoding);
//! * [`NaiveStore`] — the record-per-point reference engine: the
//!   executable spec `ManagementStore` is tested against and the
//!   baseline it is benchmarked against;
//! * [`ReplicatedStore`] — N-way replication with primary failover (the
//!   paper's future-work item on "storage, replication, indexing and
//!   recuperation of management data").
//!
//! # Examples
//!
//! ```
//! use agentgrid_store::{Classifier, ManagementStore, Record};
//!
//! let mut store = ManagementStore::new(Classifier::standard());
//! store.insert(Record::new("r1", "cpu.load.1", 91.0, 60_000).with_site("hq"));
//! store.insert(Record::new("r1", "if.1.in-octets", 1e6, 60_000).with_site("hq"));
//!
//! assert_eq!(store.len(), 2);
//! assert_eq!(store.partitions(), ["cpu", "interface"]);
//! assert_eq!(store.by_partition("cpu").count(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chunks;
mod classify;
mod index;
mod naive;
mod query;
mod record;
mod replicate;
mod store;

pub use chunks::{
    ChunkSeries, EncodeError, RollingAgg, RunVisitor, SealedChunk, DEFAULT_CHUNK_CAPACITY,
};
pub use classify::Classifier;
pub use index::{Label, LabelFilter, SeriesKey};
pub use naive::NaiveStore;
pub use query::{AggKind, SeriesStats, SeriesWindows, WindowPoint};
pub use record::Record;
pub use replicate::{ReplicaError, ReplicatedStore};
pub use store::ManagementStore;
