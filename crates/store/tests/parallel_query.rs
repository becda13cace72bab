//! Concurrent readers of one store.
//!
//! A `ManagementStore` is shared read-only across threads (`&self`
//! queries) while its lazy whole-series aggregate caches fill on first
//! use. These tests race readers against each other and check every
//! thread sees the sequential answer. This file is also the TSan target
//! for the store (`ci.yml` runs it under `-Zsanitizer=thread`).

use agentgrid_store::{AggKind, LabelFilter, ManagementStore, Record, SeriesWindows};

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

/// Four reader threads running the same windowed query concurrently
/// (the shape TSan needs to see): every thread gets the sequential
/// answer.
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
                for _ in 0..4 {
                    let got = store.query_windows(&filter, 0, u64::MAX, 120_000, AggKind::Mean);
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
