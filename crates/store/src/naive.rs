//! The record-per-point reference store.
//!
//! This is the store exactly as it shipped before the chunked engine:
//! one `BTreeMap<u64, f64>` per series plus eagerly-maintained rolling
//! aggregates. It is kept as the **executable specification** for the
//! chunk-compressed [`ManagementStore`](crate::ManagementStore) — the
//! same convention as the rules crate's `NaiveEngine` — and as the
//! baseline in `benches/store_throughput.rs`. Property tests drive both
//! engines with identical operation
//! sequences and require bit-identical observables
//! (`stats`/`latest`/`trend_per_min`/`range`/windowed queries).

use std::collections::BTreeMap;

use crate::index::{LabelFilter, LabelIndex, SeriesKey};
use crate::query::{self, AggKind, SeriesStats, SeriesWindows};
use crate::{Classifier, Record};

/// Rolling aggregates of one series, kept in step with its points.
///
/// Accumulation happens in ascending-timestamp order in both the rolling
/// (append) path and the recompute path, so `sum`/`min`/`max` are
/// bit-for-bit identical to a fresh forward scan of the points.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SeriesAgg {
    count: usize,
    min: f64,
    max: f64,
    sum: f64,
}

impl SeriesAgg {
    fn empty() -> Self {
        SeriesAgg {
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Folds in one value appended after every existing point.
    fn append(&mut self, value: f64) {
        self.count += 1;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.sum += value;
    }

    /// Recomputes from scratch — the fallback for out-of-order inserts,
    /// same-timestamp replacements and pruning, where rolling updates
    /// can't be done exactly (min/max/sum are not invertible).
    fn rescan(points: &BTreeMap<u64, f64>) -> Self {
        let mut agg = SeriesAgg::empty();
        for v in points.values() {
            agg.append(*v);
        }
        agg
    }
}

/// One `(device, metric)` series: its points plus rolling aggregates.
#[derive(Debug, Clone)]
struct Series {
    /// timestamp → value.
    points: BTreeMap<u64, f64>,
    agg: SeriesAgg,
}

impl Series {
    fn new() -> Self {
        Series {
            points: BTreeMap::new(),
            agg: SeriesAgg::empty(),
        }
    }
}

/// The pre-chunking store: a `BTreeMap<u64, f64>` per series.
///
/// Simple, obviously correct, memory-hungry (~40+ bytes per point of
/// node overhead) — the executable spec the chunked engine is tested
/// against, and the baseline it is benchmarked against. The API
/// mirrors [`ManagementStore`](crate::ManagementStore) exactly.
#[derive(Debug, Clone)]
pub struct NaiveStore {
    classifier: Classifier,
    /// (device, metric) → series points + rolling aggregates.
    series: BTreeMap<SeriesKey, Series>,
    index: LabelIndex,
    len: usize,
}

impl NaiveStore {
    /// Creates an empty store with the given classifier.
    pub fn new(classifier: Classifier) -> Self {
        NaiveStore {
            classifier,
            series: BTreeMap::new(),
            index: LabelIndex::default(),
            len: 0,
        }
    }

    /// The classifier in use.
    pub fn classifier(&self) -> &Classifier {
        &self.classifier
    }

    /// Inserts one record. Re-inserting the same `(device, metric,
    /// timestamp)` replaces the value (idempotent collection retries);
    /// NaN values are dropped, as in
    /// [`ManagementStore::insert`](crate::ManagementStore::insert).
    pub fn insert(&mut self, record: Record) {
        if record.value.is_nan() {
            return;
        }
        let partition = self.classifier.classify(&record).to_owned();
        let key = (record.device.clone(), record.metric.clone());
        let series = self.series.entry(key).or_insert_with(Series::new);
        let appended = series
            .points
            .last_key_value()
            .is_none_or(|(t, _)| record.timestamp_ms > *t);
        if series
            .points
            .insert(record.timestamp_ms, record.value)
            .is_none()
        {
            self.len += 1;
        }
        if appended {
            series.agg.append(record.value);
        } else {
            // Out-of-order insert or same-timestamp replacement: rebuild
            // so the accumulation order stays a forward scan.
            series.agg = SeriesAgg::rescan(&series.points);
        }
        self.index
            .observe(&record.device, &record.metric, &partition, &record.site);
    }

    /// Total number of stored points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the store holds no points.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// All devices seen, in name order.
    pub fn devices(&self) -> impl Iterator<Item = &str> {
        self.index.devices()
    }

    /// Metrics observed on one device.
    pub fn metrics_of(&self, device: &str) -> impl Iterator<Item = &str> {
        self.index.metrics_of(device)
    }

    /// Devices seen at a site.
    pub fn devices_at(&self, site: &str) -> impl Iterator<Item = &str> {
        self.index.devices_at(site)
    }

    /// Non-empty partitions, in name order.
    pub fn partitions(&self) -> Vec<&str> {
        self.index.partitions()
    }

    /// Series keys `(device, metric)` in a partition.
    pub fn by_partition<'a>(
        &'a self,
        partition: &str,
    ) -> impl Iterator<Item = (&'a str, &'a str)> + 'a {
        self.index.by_partition(partition)
    }

    /// Sorted series keys matching a label filter.
    pub fn select(&self, filter: &LabelFilter) -> Vec<SeriesKey> {
        self.index.select(filter).into_iter().collect()
    }

    /// Points of one series in `[from_ms, to_ms)`, in time order.
    pub fn range(
        &self,
        device: &str,
        metric: &str,
        from_ms: u64,
        to_ms: u64,
    ) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.series
            .get(&(device.to_owned(), metric.to_owned()))
            .into_iter()
            .flat_map(move |series| series.points.range(from_ms..to_ms).map(|(t, v)| (*t, *v)))
    }

    /// Latest point of a series, if any. O(log n).
    pub fn latest(&self, device: &str, metric: &str) -> Option<(u64, f64)> {
        self.series
            .get(&(device.to_owned(), metric.to_owned()))?
            .points
            .last_key_value()
            .map(|(t, v)| (*t, *v))
    }

    /// Aggregate statistics over `[from_ms, to_ms)`; `None` when the
    /// range holds no points.
    ///
    /// When the window covers the whole series — the common "consolidate
    /// everything we have" case — this is an O(log n) lookup against the
    /// rolling aggregates; sub-ranges fall back to the scan.
    pub fn stats(
        &self,
        device: &str,
        metric: &str,
        from_ms: u64,
        to_ms: u64,
    ) -> Option<SeriesStats> {
        let series = self.series.get(&(device.to_owned(), metric.to_owned()))?;
        let (first_ts, _) = series.points.first_key_value()?;
        let (last_ts, last) = series.points.last_key_value()?;
        if from_ms <= *first_ts && to_ms > *last_ts {
            let agg = &series.agg;
            return Some(SeriesStats {
                count: agg.count,
                min: agg.min,
                max: agg.max,
                mean: agg.sum / agg.count as f64,
                last: *last,
            });
        }
        query::fold_stats(series.points.range(from_ms..to_ms).map(|(t, v)| (*t, *v)))
    }

    /// Least-squares slope of a series over `[from_ms, to_ms)`, in value
    /// units **per minute**. `None` with fewer than two points or zero
    /// time spread.
    pub fn trend_per_min(
        &self,
        device: &str,
        metric: &str,
        from_ms: u64,
        to_ms: u64,
    ) -> Option<f64> {
        query::fold_trend(|| self.range(device, metric, from_ms, to_ms))
    }

    /// Windowed aggregates for every series matching `filter`,
    /// sequentially, in series-key order.
    pub fn query_windows(
        &self,
        filter: &LabelFilter,
        from_ms: u64,
        to_ms: u64,
        step_ms: u64,
        kind: AggKind,
    ) -> Vec<SeriesWindows> {
        let keys = self.select(filter);
        keys.into_iter()
            .map(|key| {
                let windows = query::windowed(
                    self.range(&key.0, &key.1, from_ms, to_ms),
                    from_ms,
                    step_ms,
                    kind,
                );
                SeriesWindows { key, windows }
            })
            .collect()
    }

    /// [`query_windows`](NaiveStore::query_windows) fanned out over
    /// `threads` scoped worker threads; byte-identical results.
    pub fn query_windows_parallel(
        &self,
        filter: &LabelFilter,
        from_ms: u64,
        to_ms: u64,
        step_ms: u64,
        kind: AggKind,
        threads: usize,
    ) -> Vec<SeriesWindows> {
        let keys = self.select(filter);
        query::fan_out(&keys, threads, |key| {
            let windows = query::windowed(
                self.range(&key.0, &key.1, from_ms, to_ms),
                from_ms,
                step_ms,
                kind,
            );
            SeriesWindows {
                key: key.clone(),
                windows,
            }
        })
    }

    /// Drops every point older than `horizon_ms`, returning how many were
    /// removed. Series and index entries that become empty are kept (the
    /// devices still exist; only their history aged out).
    pub fn prune_before(&mut self, horizon_ms: u64) -> usize {
        let mut removed = 0;
        for series in self.series.values_mut() {
            let keep = series.points.split_off(&horizon_ms);
            let dropped = series.points.len();
            series.points = keep;
            if dropped > 0 {
                removed += dropped;
                series.agg = SeriesAgg::rescan(&series.points);
            }
        }
        self.len -= removed;
        removed
    }

    /// Approximate payload bytes: 16 per point (`u64` timestamp +
    /// `f64` value), ignoring all `BTreeMap` node overhead — a
    /// deliberately conservative baseline for the compression
    /// comparison.
    pub fn storage_bytes(&self) -> usize {
        self.len * std::mem::size_of::<(u64, f64)>()
    }
}

impl Default for NaiveStore {
    fn default() -> Self {
        NaiveStore::new(Classifier::standard())
    }
}
