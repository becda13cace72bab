//! `ManagementStore`: the chunk-compressed time-series store engine.

use std::collections::BTreeMap;

use crate::chunks::{ChunkSeries, DEFAULT_CHUNK_CAPACITY};
use crate::index::{LabelFilter, LabelIndex, SeriesKey};
use crate::query::{self, AggKind, SeriesStats, SeriesWindows};
use crate::{Classifier, Record};

/// The classifier grid's indexed time-series store.
///
/// Inserting a point files it under its `(device, metric)` series. A new
/// series is tagged with the partition assigned by the [`Classifier`]
/// and entered in the label index, and a device first seen at a site is
/// entered in the site roster; a point of a known series at a known site
/// allocates nothing. Everything is retrievable without scanning: the
/// paper's "easy-to-retrieve form".
///
/// Each series is one [`ChunkSeries`] — sealed Gorilla chunks plus an
/// uncompressed head buffer. All aggregate folds go through the `query` module,
/// so observables are bit-identical to the record-per-point
/// [`NaiveStore`](crate::NaiveStore) reference (pinned by the
/// equivalence proptests).
///
/// NaN values are rejected (silently dropped) on insert:
/// replace-on-equal-timestamp and min/max aggregation are undefined for
/// NaN, and the chunk encoder refuses it.
///
/// # Examples
///
/// ```
/// use agentgrid_store::{Classifier, ManagementStore, Record};
///
/// let mut store = ManagementStore::new(Classifier::standard());
/// for t in 0..5u64 {
///     store.insert(Record::new("r1", "cpu.load.1", 50.0 + t as f64, t * 60_000));
/// }
/// let stats = store.stats("r1", "cpu.load.1", 0, u64::MAX).unwrap();
/// assert_eq!(stats.count, 5);
/// assert_eq!(stats.last, 54.0);
/// ```
#[derive(Debug, Clone)]
pub struct ManagementStore {
    classifier: Classifier,
    /// device → metric → series: a lookup by `(&str, &str)` allocates
    /// nothing, and the two levels iterate in `(device, metric)` order.
    series: BTreeMap<String, BTreeMap<String, ChunkSeries>>,
    index: LabelIndex,
    len: usize,
    chunk_capacity: usize,
}

impl ManagementStore {
    /// Creates an empty store with the given classifier and the default
    /// chunk capacity.
    pub fn new(classifier: Classifier) -> Self {
        ManagementStore::with_chunk_capacity(classifier, DEFAULT_CHUNK_CAPACITY)
    }

    /// Creates an empty store with an explicit points-per-chunk
    /// capacity (minimum 2). Small capacities exercise seal/split/merge
    /// paths in tests.
    pub fn with_chunk_capacity(classifier: Classifier, chunk_capacity: usize) -> Self {
        ManagementStore {
            classifier,
            series: BTreeMap::new(),
            index: LabelIndex::default(),
            len: 0,
            chunk_capacity: chunk_capacity.max(2),
        }
    }

    /// The classifier in use.
    pub fn classifier(&self) -> &Classifier {
        &self.classifier
    }

    /// Inserts one record (see [`insert_point`](Self::insert_point)).
    pub fn insert(&mut self, record: Record) {
        self.insert_point(
            &record.device,
            &record.metric,
            record.value,
            record.timestamp_ms,
            &record.site,
        );
    }

    /// Inserts many records.
    pub fn insert_all(&mut self, records: impl IntoIterator<Item = Record>) {
        for r in records {
            self.insert(r);
        }
    }

    /// Inserts one point of `device`'s `metric` series, collected at
    /// `site`. Re-inserting the same `(device, metric, timestamp)`
    /// replaces the value (idempotent collection retries); NaN values
    /// are dropped.
    ///
    /// Only a new series is classified and indexed, and only a device new
    /// to `site` enters the site roster: a series' partition depends on
    /// its metric alone, and the index records nothing per point.
    pub fn insert_point(
        &mut self,
        device: &str,
        metric: &str,
        value: f64,
        timestamp_ms: u64,
        site: &str,
    ) {
        if value.is_nan() {
            return;
        }
        let added = match self.series.get_mut(device).and_then(|m| m.get_mut(metric)) {
            Some(series) => series.upsert(timestamp_ms, value),
            None => {
                let mut series = ChunkSeries::new(self.chunk_capacity);
                series.upsert(timestamp_ms, value);
                self.series
                    .entry(device.to_owned())
                    .or_default()
                    .insert(metric.to_owned(), series);
                let partition = self.classifier.partition_of(metric);
                self.index.observe_series(device, metric, partition);
                true
            }
        };
        if added {
            self.len += 1;
        }
        self.index.observe_site(device, site);
    }

    /// The series of `(device, metric)`, looked up without allocating.
    fn series(&self, device: &str, metric: &str) -> Option<&ChunkSeries> {
        self.series.get(device)?.get(metric)
    }

    /// Every series, in `(device, metric)` order.
    fn all_series(&self) -> impl Iterator<Item = &ChunkSeries> {
        self.series.values().flat_map(BTreeMap::values)
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
        self.series.keys().map(String::as_str)
    }

    /// Metrics observed on one device.
    pub fn metrics_of(&self, device: &str) -> impl Iterator<Item = &str> {
        self.series
            .get(device)
            .into_iter()
            .flat_map(BTreeMap::keys)
            .map(String::as_str)
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

    /// Sorted series keys matching a label filter (see
    /// [`LabelFilter::parse`] for the matcher syntax).
    pub fn select(&self, filter: &LabelFilter) -> Vec<SeriesKey> {
        self.index
            .select(filter)
            .into_iter()
            .map(|(d, m)| (d.to_owned(), m.to_owned()))
            .collect()
    }

    /// The series of `partition` whose metric `admit` accepts — of the
    /// devices seen at `site` only, when a site is given — as borrowed
    /// keys in `(device, metric)` order: what an analysis task of that
    /// scope reads.
    ///
    /// `admit` is asked once per distinct metric name of the partition,
    /// not once per series, and only the admitted series of in-scope
    /// devices are visited. With every metric admitted this is
    /// `select(class=p & site=s)`, which runs the same walk.
    ///
    /// # Examples
    ///
    /// ```
    /// use agentgrid_store::{ManagementStore, Record};
    ///
    /// let mut store = ManagementStore::default();
    /// store.insert(Record::new("a1", "cpu.load.1", 97.0, 0).with_site("a"));
    /// store.insert(Record::new("a1", "cpu.load.5", 80.0, 0).with_site("a"));
    /// store.insert(Record::new("b1", "cpu.load.1", 12.0, 0).with_site("b"));
    /// assert_eq!(
    ///     store.select_scoped("cpu", Some("a"), |_| true),
    ///     [("a1", "cpu.load.1"), ("a1", "cpu.load.5")]
    /// );
    /// assert_eq!(
    ///     store.select_scoped("cpu", None, |metric| metric.ends_with(".1")),
    ///     [("a1", "cpu.load.1"), ("b1", "cpu.load.1")]
    /// );
    /// ```
    pub fn select_scoped(
        &self,
        partition: &str,
        site: Option<&str>,
        admit: impl FnMut(&str) -> bool,
    ) -> Vec<(&str, &str)> {
        self.index.scoped(partition, site, admit)
    }

    /// Points of one series in `[from_ms, to_ms)`, in time order.
    /// Sealed chunks wholly outside the window are never decoded.
    pub fn range(
        &self,
        device: &str,
        metric: &str,
        from_ms: u64,
        to_ms: u64,
    ) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.series(device, metric)
            .into_iter()
            .flat_map(move |series| series.iter_range(from_ms, to_ms))
    }

    /// Latest point of a series, if any. O(log n) — served from the
    /// head buffer or the last chunk header, never by decoding.
    pub fn latest(&self, device: &str, metric: &str) -> Option<(u64, f64)> {
        self.series(device, metric)?.latest()
    }

    /// Aggregate statistics over `[from_ms, to_ms)`; `None` when the
    /// range holds no points. Whole-series windows hit the lazily
    /// cached rolling aggregates; sub-ranges fold the decoded stream.
    pub fn stats(
        &self,
        device: &str,
        metric: &str,
        from_ms: u64,
        to_ms: u64,
    ) -> Option<SeriesStats> {
        let series = self.series(device, metric)?;
        let first_ts = series.first_ts()?;
        let (last_ts, last) = series.latest()?;
        if from_ms <= first_ts && to_ms > last_ts {
            let agg = series.rolling_agg();
            return Some(SeriesStats {
                count: agg.count,
                min: agg.min,
                max: agg.max,
                mean: agg.sum / agg.count as f64,
                last,
            });
        }
        query::fold_stats(series.iter_range(from_ms, to_ms))
    }

    /// Least-squares slope of a series over `[from_ms, to_ms)`, in value
    /// units **per minute** — the level-2 trend estimate behind "disk is
    /// filling" style rules. `None` with fewer than two points or zero
    /// time spread.
    pub fn trend_per_min(
        &self,
        device: &str,
        metric: &str,
        from_ms: u64,
        to_ms: u64,
    ) -> Option<f64> {
        let series = self.series(device, metric)?;
        query::fold_trend(|| series.iter_range(from_ms, to_ms))
    }

    /// Windowed aggregates for every series matching `filter`, in
    /// series-key order. Each series' decoded points stream straight into
    /// the shared `query::WindowFold`, so the output is bit-identical to
    /// folding the `NaiveStore` iterator.
    pub fn query_windows(
        &self,
        filter: &LabelFilter,
        from_ms: u64,
        to_ms: u64,
        step_ms: u64,
        kind: AggKind,
    ) -> Vec<SeriesWindows> {
        self.index
            .select(filter)
            .into_iter()
            .map(|(device, metric)| {
                let mut fold = query::WindowFold::new(from_ms, step_ms, kind);
                if let Some(series) = self.series(device, metric) {
                    series.for_each_run(from_ms, to_ms, &mut fold);
                }
                SeriesWindows {
                    key: (device.to_owned(), metric.to_owned()),
                    windows: fold.finish(),
                }
            })
            .collect()
    }

    /// Drops every point older than `horizon_ms`, returning how many
    /// were removed. Whole out-of-horizon chunks are dropped without
    /// decoding; aggregates are invalidated lazily.
    pub fn prune_before(&mut self, horizon_ms: u64) -> usize {
        let mut removed = 0;
        for series in self.series.values_mut().flat_map(BTreeMap::values_mut) {
            removed += series.prune_before(horizon_ms);
        }
        self.len -= removed;
        removed
    }

    /// Stored bytes: encoded chunk payloads plus raw head buffers.
    pub fn storage_bytes(&self) -> usize {
        self.all_series().map(ChunkSeries::storage_bytes).sum()
    }

    /// Total chunks across all series (sealed + non-empty heads).
    pub fn chunk_count(&self) -> usize {
        self.all_series().map(ChunkSeries::chunk_count).sum()
    }

    /// Total lazy aggregate re-folds performed across all series.
    pub fn agg_refolds(&self) -> u64 {
        self.all_series().map(ChunkSeries::refolds).sum()
    }
}

impl Default for ManagementStore {
    fn default() -> Self {
        ManagementStore::new(Classifier::standard())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NaiveStore;

    fn sample_store() -> ManagementStore {
        let mut store = ManagementStore::default();
        store.insert_all([
            Record::new("r1", "cpu.load.1", 40.0, 0).with_site("hq"),
            Record::new("r1", "cpu.load.1", 60.0, 60_000).with_site("hq"),
            Record::new("r1", "if.1.in-octets", 100.0, 0).with_site("hq"),
            Record::new("s1", "storage.disk.used-pct", 70.0, 0).with_site("branch"),
        ]);
        store
    }

    #[test]
    fn insert_updates_all_indexes() {
        let store = sample_store();
        assert_eq!(store.len(), 4);
        assert_eq!(store.devices().collect::<Vec<_>>(), ["r1", "s1"]);
        assert_eq!(
            store.metrics_of("r1").collect::<Vec<_>>(),
            ["cpu.load.1", "if.1.in-octets"]
        );
        assert_eq!(store.devices_at("branch").collect::<Vec<_>>(), ["s1"]);
        assert_eq!(store.partitions(), ["cpu", "disk", "interface"]);
        assert_eq!(
            store.by_partition("disk").collect::<Vec<_>>(),
            [("s1", "storage.disk.used-pct")]
        );
    }

    #[test]
    fn duplicate_timestamp_replaces_value() {
        let mut store = sample_store();
        store.insert(Record::new("r1", "cpu.load.1", 99.0, 0));
        assert_eq!(store.len(), 4, "count unchanged");
        assert_eq!(
            store.range("r1", "cpu.load.1", 0, 1).next(),
            Some((0, 99.0))
        );
    }

    #[test]
    fn range_is_half_open_and_ordered() {
        let store = sample_store();
        let points: Vec<_> = store.range("r1", "cpu.load.1", 0, 60_000).collect();
        assert_eq!(points, [(0, 40.0)]);
        let all: Vec<_> = store.range("r1", "cpu.load.1", 0, u64::MAX).collect();
        assert_eq!(all, [(0, 40.0), (60_000, 60.0)]);
    }

    #[test]
    fn latest_returns_newest_point() {
        let store = sample_store();
        assert_eq!(store.latest("r1", "cpu.load.1"), Some((60_000, 60.0)));
        assert_eq!(store.latest("r1", "nope"), None);
    }

    #[test]
    fn stats_aggregate_correctly() {
        let store = sample_store();
        let s = store.stats("r1", "cpu.load.1", 0, u64::MAX).unwrap();
        assert_eq!(s.count, 2);
        assert_eq!(s.min, 40.0);
        assert_eq!(s.max, 60.0);
        assert_eq!(s.mean, 50.0);
        assert_eq!(s.last, 60.0);
        assert!(store.stats("r1", "cpu.load.1", 1, 2).is_none());
    }

    #[test]
    fn prune_removes_old_points_only() {
        let mut store = sample_store();
        let removed = store.prune_before(30_000);
        assert_eq!(removed, 3);
        assert_eq!(store.len(), 1);
        assert_eq!(store.latest("r1", "cpu.load.1"), Some((60_000, 60.0)));
        assert_eq!(store.latest("s1", "storage.disk.used-pct"), None);
    }

    #[test]
    fn trend_recovers_a_linear_ramp() {
        let mut store = ManagementStore::default();
        // 2 units per minute, sampled every 30 s.
        for i in 0..10u64 {
            store.insert(Record::new("d", "storage.disk.used", i as f64, i * 30_000));
        }
        let slope = store
            .trend_per_min("d", "storage.disk.used", 0, u64::MAX)
            .unwrap();
        assert!((slope - 2.0).abs() < 1e-9, "{slope}");
    }

    #[test]
    fn trend_is_zero_for_flat_series_and_none_when_underdetermined() {
        let mut store = ManagementStore::default();
        store.insert(Record::new("d", "m", 5.0, 0));
        assert_eq!(store.trend_per_min("d", "m", 0, u64::MAX), None);
        store.insert(Record::new("d", "m", 5.0, 60_000));
        let slope = store.trend_per_min("d", "m", 0, u64::MAX).unwrap();
        assert!(slope.abs() < 1e-12);
        assert_eq!(store.trend_per_min("ghost", "m", 0, u64::MAX), None);
    }

    #[test]
    fn trend_respects_the_window() {
        let mut store = ManagementStore::default();
        // Rising then flat: windowed trends differ.
        for i in 0..5u64 {
            store.insert(Record::new("d", "m", i as f64, i * 60_000));
        }
        for i in 5..10u64 {
            store.insert(Record::new("d", "m", 4.0, i * 60_000));
        }
        let early = store.trend_per_min("d", "m", 0, 5 * 60_000).unwrap();
        let late = store.trend_per_min("d", "m", 5 * 60_000, u64::MAX).unwrap();
        assert!(early > 0.9);
        assert!(late.abs() < 1e-12);
    }

    #[test]
    fn rolling_aggregates_survive_out_of_order_and_replacement() {
        let mut store = ManagementStore::default();
        store.insert(Record::new("d", "m", 10.0, 60_000));
        store.insert(Record::new("d", "m", 30.0, 120_000));
        // Out-of-order insert.
        store.insert(Record::new("d", "m", 20.0, 0));
        let s = store.stats("d", "m", 0, u64::MAX).unwrap();
        assert_eq!(
            (s.count, s.min, s.max, s.mean, s.last),
            (3, 10.0, 30.0, 20.0, 30.0)
        );
        // Replacement at an existing timestamp (including the old max).
        store.insert(Record::new("d", "m", 5.0, 120_000));
        let s = store.stats("d", "m", 0, u64::MAX).unwrap();
        assert_eq!((s.count, s.min, s.max, s.last), (3, 5.0, 20.0, 5.0));
    }

    #[test]
    fn rolling_aggregates_survive_prune() {
        let mut store = ManagementStore::default();
        for i in 0..10u64 {
            store.insert(Record::new("d", "m", i as f64, i * 1_000));
        }
        store.prune_before(5_000);
        let s = store.stats("d", "m", 0, u64::MAX).unwrap();
        assert_eq!(
            (s.count, s.min, s.max, s.mean, s.last),
            (5, 5.0, 9.0, 7.0, 9.0)
        );
        store.prune_before(u64::MAX);
        assert!(store.stats("d", "m", 0, u64::MAX).is_none());
    }

    #[test]
    fn subrange_stats_fall_back_to_the_scan() {
        let store = sample_store();
        // [0, 60_000) excludes the last point → not the whole series.
        let s = store.stats("r1", "cpu.load.1", 0, 60_000).unwrap();
        assert_eq!((s.count, s.min, s.max, s.last), (1, 40.0, 40.0, 40.0));
    }

    #[test]
    fn empty_store_behaves() {
        let store = ManagementStore::default();
        assert!(store.is_empty());
        assert_eq!(store.partitions().len(), 0);
        assert_eq!(store.range("d", "m", 0, 10).count(), 0);
    }

    #[test]
    fn nan_is_dropped_on_both_engines() {
        let mut store = ManagementStore::default();
        let mut naive = NaiveStore::default();
        store.insert(Record::new("d", "m", f64::NAN, 0));
        naive.insert(Record::new("d", "m", f64::NAN, 0));
        assert!(store.is_empty(), "chunked");
        assert!(naive.is_empty(), "naive");
        for r in [
            Record::new("d", "m", 1.0, 0),
            Record::new("d", "m", f64::NAN, 0),
        ] {
            store.insert(r.clone());
            naive.insert(r);
        }
        assert_eq!(store.latest("d", "m"), Some((0, 1.0)), "chunked");
        assert_eq!(naive.latest("d", "m"), Some((0, 1.0)), "naive");
    }

    #[test]
    fn engines_report_their_footprint() {
        let store = sample_store();
        assert!(store.chunk_count() >= 3, "one head per series");
        assert!(store.storage_bytes() > 0);
        let mut naive = NaiveStore::default();
        naive.insert(Record::new("d", "m", 1.0, 0));
        assert_eq!(naive.storage_bytes(), 16);
    }

    #[test]
    fn select_spans_both_engines_identically() {
        let records = [
            Record::new("r1", "cpu.load.1", 40.0, 0),
            Record::new("r2", "cpu.load.1", 41.0, 0),
            Record::new("r1", "storage.disk.used-pct", 70.0, 0),
        ];
        let mut store = ManagementStore::default();
        let mut naive = NaiveStore::default();
        for r in records {
            store.insert(r.clone());
            naive.insert(r);
        }
        let f = LabelFilter::parse("device=r1 & (class=cpu | class=disk)").unwrap();
        let expected = [
            ("r1".to_owned(), "cpu.load.1".to_owned()),
            ("r1".to_owned(), "storage.disk.used-pct".to_owned()),
        ];
        assert_eq!(store.select(&f), expected, "chunked");
        assert_eq!(naive.select(&f), expected, "naive");
    }

    #[test]
    fn windowed_queries_agree_across_engines() {
        let mut chunked = ManagementStore::default();
        let mut naive = NaiveStore::default();
        for i in 0..300u64 {
            for dev in ["r1", "r2", "r3"] {
                let rec = Record::new(dev, "cpu.load.1", (i % 17) as f64, i * 60_000);
                chunked.insert(rec.clone());
                naive.insert(rec);
            }
        }
        let f = LabelFilter::class("cpu");
        for kind in [
            AggKind::Min,
            AggKind::Max,
            AggKind::Mean,
            AggKind::Sum,
            AggKind::Count,
            AggKind::Trend,
        ] {
            assert_eq!(
                chunked.query_windows(&f, 0, u64::MAX, 30 * 60_000, kind),
                naive.query_windows(&f, 0, u64::MAX, 30 * 60_000, kind),
                "{kind:?} engine parity"
            );
        }
    }
}
