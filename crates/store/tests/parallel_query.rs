//! Parallel-vs-sequential query parity.
//!
//! The fan-out path splits selected series across scoped threads but
//! folds each series with the same sequential code and merges in
//! series-key order, so its output must be **byte-identical** to the
//! sequential iterator — for any label selection, window width,
//! aggregator and thread count. This file is also the TSan target for
//! the parallel query path (`ci.yml` runs it under
//! `-Zsanitizer=thread`).

use agentgrid_store::{
    AggKind, Classifier, LabelFilter, ManagementStore, NaiveStore, Record, SeriesWindows,
};
use proptest::prelude::*;

fn record_strategy() -> impl Strategy<Value = Record> {
    (
        0u8..6,
        prop_oneof![
            Just("cpu.load.1"),
            Just("cpu.load.5"),
            Just("storage.disk.used-pct"),
            Just("storage.ram.used"),
            Just("if.1.in-octets"),
            Just("processes.count"),
        ],
        -1000.0f64..1000.0,
        0u64..50_000,
    )
        .prop_map(|(dev, metric, value, ts)| Record::new(format!("d{dev}"), metric, value, ts * 60))
}

fn filter_strategy() -> impl Strategy<Value = LabelFilter> {
    prop_oneof![
        Just(LabelFilter::Any),
        Just(LabelFilter::class("cpu")),
        Just(LabelFilter::class("cpu").or(LabelFilter::class("disk"))),
        Just(LabelFilter::device("d1").or(LabelFilter::device("d3"))),
        Just(LabelFilter::device("d2").and(LabelFilter::class("interface"))),
        Just(LabelFilter::oid("cpu.load.1").or(LabelFilter::class("process"))),
    ]
}

/// Bit-level view of a result set: f64 compared by representation.
type BitRows<'a> = Vec<(&'a (String, String), Vec<(u64, u64)>)>;

fn as_bits(rows: &[SeriesWindows]) -> BitRows<'_> {
    rows.iter()
        .map(|r| {
            (
                &r.key,
                r.windows
                    .iter()
                    .map(|w| (w.window_ms, w.value.to_bits()))
                    .collect(),
            )
        })
        .collect()
}

proptest! {
    /// Fan-out over any thread count returns byte-identical results to
    /// the sequential path, on both engines.
    #[test]
    fn parallel_query_matches_sequential(
        records in prop::collection::vec(record_strategy(), 1..120),
        filter in filter_strategy(),
        step in prop_oneof![Just(1_000u64), Just(10_000), Just(60_000)],
        threads in 1usize..9,
        kind_ix in 0usize..6,
    ) {
        let kind = [AggKind::Min, AggKind::Max, AggKind::Mean, AggKind::Sum, AggKind::Count, AggKind::Trend][kind_ix];
        let mut chunked = ManagementStore::new(Classifier::standard());
        let mut naive = NaiveStore::new(Classifier::standard());
        for r in &records {
            chunked.insert(r.clone());
            naive.insert(r.clone());
        }
        let runs = [
            (
                "chunked",
                chunked.query_windows(&filter, 0, u64::MAX, step, kind),
                chunked.query_windows_parallel(&filter, 0, u64::MAX, step, kind, threads),
            ),
            (
                "naive",
                naive.query_windows(&filter, 0, u64::MAX, step, kind),
                naive.query_windows_parallel(&filter, 0, u64::MAX, step, kind, threads),
            ),
        ];
        for (engine, seq, par) in &runs {
            prop_assert_eq!(
                as_bits(seq),
                as_bits(par),
                "{} {:?} threads={}",
                engine,
                kind,
                threads
            );
        }
    }
}

/// Many reader threads querying the same store concurrently (the shape
/// TSan needs to see): every thread gets the sequential answer.
#[test]
fn concurrent_readers_agree_with_sequential() {
    let mut store = ManagementStore::default();
    for i in 0..2_000u64 {
        for dev in ["r1", "r2", "r3", "r4"] {
            store.insert(Record::new(dev, "cpu.load.1", (i % 31) as f64, i * 1_000));
        }
    }
    let filter = LabelFilter::class("cpu");
    let expected = store.query_windows(&filter, 0, u64::MAX, 120_000, AggKind::Mean);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                for threads in [1, 2, 4, 8] {
                    let got = store.query_windows_parallel(
                        &filter,
                        0,
                        u64::MAX,
                        120_000,
                        AggKind::Mean,
                        threads,
                    );
                    assert_eq!(as_bits(&expected), as_bits(&got));
                }
            });
        }
    });
}

/// The lazy aggregate cache is populated safely under concurrent
/// `stats` readers (OnceLock initialization racing across threads).
#[test]
fn concurrent_stats_after_invalidation_are_consistent() {
    let mut store = ManagementStore::default();
    for i in 0..5_000u64 {
        store.insert(Record::new("d", "cpu.load.1", (i % 17) as f64, i * 1_000));
    }
    // Invalidate the rolling aggregate via an out-of-order insert.
    store.insert(Record::new("d", "cpu.load.1", 3.0, 500));
    let expected = store.stats("d", "cpu.load.1", 0, u64::MAX).unwrap();
    store.insert(Record::new("d", "cpu.load.1", 4.0, 750));
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| scope.spawn(|| store.stats("d", "cpu.load.1", 0, u64::MAX).unwrap()))
            .collect();
        for h in handles {
            let got = h.join().unwrap();
            assert_eq!(got.count, expected.count + 1);
            assert_eq!(got.min.to_bits(), expected.min.to_bits());
            assert_eq!(got.max.to_bits(), expected.max.to_bits());
        }
    });
}
