//! Chunked-vs-naive equivalence harness.
//!
//! [`NaiveStore`] is the executable specification (the store exactly as
//! it shipped before chunking — same convention as the rules crate's
//! `NaiveEngine`). These proptests drive both engines with identical
//! operation sequences — in-order appends, out-of-order inserts,
//! same-timestamp replacements and prunes, over small chunk capacities
//! so seal/split/merge paths are exercised constantly — and require
//! **bit-identical** observables: `stats`, `latest`, `trend_per_min`,
//! `range` and windowed queries. NaN values are mixed into the inserts,
//! and both engines must drop them. Float comparisons go through
//! `to_bits`, so `-0.0` vs `0.0` or differently-ordered summation
//! cannot slip through.
//!
//! The second half round-trips the chunk codec over adversarial floats
//! (`-0.0`, subnormals, infinities, random bit patterns) and extreme
//! timestamp deltas, and pins NaN rejection.

use agentgrid_store::{
    AggKind, Classifier, EncodeError, LabelFilter, ManagementStore, NaiveStore, Record, SealedChunk,
};
use proptest::prelude::*;

/// One store operation, applied to both engines in lockstep.
#[derive(Debug, Clone)]
enum Op {
    Insert(Record),
    Prune(u64),
}

fn record_strategy() -> impl Strategy<Value = Record> {
    (
        0u8..4,
        prop_oneof![
            Just("cpu.load.1"),
            Just("storage.disk.used-pct"),
            Just("if.1.in-octets"),
            Just("weird.metric"),
        ],
        prop_oneof![
            // Shim prop_oneof! is unweighted; repeat the common arm.
            -1000.0f64..1000.0,
            -1000.0f64..1000.0,
            -1000.0f64..1000.0,
            -1000.0f64..1000.0,
            Just(0.0),
            Just(-0.0),
            Just(f64::MIN_POSITIVE / 4.0),
            Just(f64::NAN),
        ],
        // Narrow timestamp range → frequent out-of-order inserts and
        // same-timestamp replacements across the sequence.
        0u64..2_000,
        0u8..2,
    )
        .prop_map(|(dev, metric, value, ts, site)| {
            Record::new(format!("d{dev}"), metric, value, ts * 50).with_site(format!("s{site}"))
        })
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let insert = || record_strategy().prop_map(Op::Insert);
    prop_oneof![
        insert(),
        insert(),
        insert(),
        insert(),
        insert(),
        insert(),
        insert(),
        insert(),
        insert(),
        (0u64..120_000).prop_map(Op::Prune),
    ]
}

fn bits(v: f64) -> u64 {
    v.to_bits()
}

/// Asserts every observable of the two engines is bit-identical.
fn assert_equivalent(chunked: &ManagementStore, naive: &NaiveStore) -> Result<(), TestCaseError> {
    prop_assert_eq!(chunked.len(), naive.len());
    prop_assert_eq!(
        chunked.devices().collect::<Vec<_>>(),
        naive.devices().collect::<Vec<_>>()
    );
    prop_assert_eq!(chunked.partitions(), naive.partitions());
    let all = LabelFilter::Any;
    prop_assert_eq!(chunked.select(&all), naive.select(&all));
    for (device, metric) in naive.select(&all) {
        prop_assert_eq!(
            chunked.latest(&device, &metric).map(|(t, v)| (t, bits(v))),
            naive.latest(&device, &metric).map(|(t, v)| (t, bits(v)))
        );
        for (from, to) in [
            (0u64, u64::MAX),
            (10_000, 60_000),
            (25_000, 26_000),
            (99_000, 120_000),
        ] {
            let c: Vec<(u64, u64)> = chunked
                .range(&device, &metric, from, to)
                .map(|(t, v)| (t, bits(v)))
                .collect();
            let n: Vec<(u64, u64)> = naive
                .range(&device, &metric, from, to)
                .map(|(t, v)| (t, bits(v)))
                .collect();
            prop_assert_eq!(c, n, "range [{}, {}) of {}/{}", from, to, device, metric);
            let c = chunked.stats(&device, &metric, from, to);
            let n = naive.stats(&device, &metric, from, to);
            prop_assert_eq!(c.is_some(), n.is_some());
            if let (Some(c), Some(n)) = (c, n) {
                prop_assert_eq!(c.count, n.count);
                prop_assert_eq!(bits(c.min), bits(n.min), "min of {}/{}", device, metric);
                prop_assert_eq!(bits(c.max), bits(n.max), "max of {}/{}", device, metric);
                prop_assert_eq!(bits(c.mean), bits(n.mean), "mean of {}/{}", device, metric);
                prop_assert_eq!(bits(c.last), bits(n.last), "last of {}/{}", device, metric);
            }
            let c = chunked.trend_per_min(&device, &metric, from, to);
            let n = naive.trend_per_min(&device, &metric, from, to);
            prop_assert_eq!(c.map(bits), n.map(bits), "trend of {}/{}", device, metric);
        }
    }
    Ok(())
}

proptest! {
    /// The chunked engine is observationally bit-identical to the
    /// NaiveStore spec under arbitrary interleavings of in-order
    /// appends, out-of-order inserts, replacements and prunes — at
    /// chunk capacities small enough that every sequence seals, splits
    /// and merges chunks. A NaN insert changes neither engine.
    #[test]
    fn chunked_store_matches_naive_spec(
        ops in prop::collection::vec(op_strategy(), 1..120),
        capacity in prop_oneof![Just(4usize), Just(8), Just(32)],
    ) {
        let mut chunked = ManagementStore::with_chunk_capacity(Classifier::standard(), capacity);
        let mut naive = NaiveStore::new(Classifier::standard());
        for op in ops {
            match op {
                Op::Insert(record) => {
                    let nan = record.value.is_nan();
                    let (device, metric) = (record.device.clone(), record.metric.clone());
                    let observe = |c: &ManagementStore, n: &NaiveStore| {
                        let bits_of = |p: Option<(u64, f64)>| p.map(|(t, v)| (t, bits(v)));
                        (
                            c.len(),
                            n.len(),
                            bits_of(c.latest(&device, &metric)),
                            bits_of(n.latest(&device, &metric)),
                        )
                    };
                    let before = observe(&chunked, &naive);
                    chunked.insert(record.clone());
                    naive.insert(record);
                    if nan {
                        prop_assert_eq!(observe(&chunked, &naive), before, "NaN must be dropped");
                    }
                }
                Op::Prune(horizon) => {
                    prop_assert_eq!(chunked.prune_before(horizon), naive.prune_before(horizon));
                }
            }
        }
        assert_equivalent(&chunked, &naive)?;
    }

    /// Windowed multi-series queries agree bit-for-bit across engines
    /// for every aggregator and a range of window widths.
    #[test]
    fn windowed_queries_match_naive_spec(
        records in prop::collection::vec(record_strategy(), 1..80),
        step in prop_oneof![Just(1_000u64), Just(7_000), Just(30_000), Just(u64::MAX / 2)],
        capacity in prop_oneof![Just(4usize), Just(16)],
    ) {
        let mut chunked = ManagementStore::with_chunk_capacity(Classifier::standard(), capacity);
        let mut naive = NaiveStore::new(Classifier::standard());
        for r in records {
            chunked.insert(r.clone());
            naive.insert(r);
        }
        let filter = LabelFilter::class("cpu").or(LabelFilter::class("disk")).or(LabelFilter::Any);
        for kind in [AggKind::Min, AggKind::Max, AggKind::Mean, AggKind::Sum, AggKind::Count, AggKind::Trend] {
            let c = chunked.query_windows(&filter, 0, u64::MAX, step, kind);
            let n = naive.query_windows(&filter, 0, u64::MAX, step, kind);
            prop_assert_eq!(c.len(), n.len(), "{:?}", kind);
            for (cw, nw) in c.iter().zip(&n) {
                prop_assert_eq!(&cw.key, &nw.key);
                let cb: Vec<(u64, u64)> = cw.windows.iter().map(|w| (w.window_ms, bits(w.value))).collect();
                let nb: Vec<(u64, u64)> = nw.windows.iter().map(|w| (w.window_ms, bits(w.value))).collect();
                prop_assert_eq!(cb, nb, "{:?} windows of {:?}", kind, cw.key);
            }
        }
    }

    /// The chunk codec is bit-lossless over adversarial values: random
    /// bit patterns (filtered of NaN), signed zeros, subnormals,
    /// infinities and the extreme finite magnitudes.
    #[test]
    fn codec_round_trips_adversarial_floats(
        raw in prop::collection::vec(
            prop_oneof![
                any::<u64>(),
                any::<u64>(),
                any::<u64>(),
                any::<u64>(),
                any::<u64>(),
                any::<u64>(),
                Just(0.0f64.to_bits()),
                Just((-0.0f64).to_bits()),
                Just((f64::MIN_POSITIVE / 8.0).to_bits()),
                Just(f64::INFINITY.to_bits()),
                Just(f64::NEG_INFINITY.to_bits()),
                Just(f64::MAX.to_bits()),
                Just(f64::MIN.to_bits()),
            ],
            1..300,
        ),
    ) {
        let points: Vec<(u64, f64)> = raw
            .iter()
            .map(|&b| f64::from_bits(b))
            .filter(|v| !v.is_nan())
            .enumerate()
            .map(|(i, v)| (i as u64, v))
            .collect();
        if points.is_empty() {
            // Everything was NaN; nothing to round-trip.
            return Ok(());
        }
        let chunk = SealedChunk::try_encode(&points).unwrap();
        let decoded = chunk.decode();
        prop_assert_eq!(points.len(), decoded.len());
        for (a, b) in points.iter().zip(&decoded) {
            prop_assert_eq!(a.0, b.0);
            prop_assert_eq!(bits(a.1), bits(b.1));
        }
    }

    /// The chunk codec is exact over extreme timestamp deltas — from
    /// 1 ms cadence jitter up to deltas that only fit the 64-bit raw
    /// escape bucket.
    #[test]
    fn codec_round_trips_extreme_deltas(
        deltas in prop::collection::vec(
            prop_oneof![
                1u64..500,
                1u64..500,
                1u64..500,
                1u64..500,
                1u64..100_000,
                1u64..100_000,
                (u32::MAX as u64)..(u32::MAX as u64 * 1024),
                Just(u64::MAX / 4),
            ],
            1..200,
        ),
        start in 0u64..1_000_000,
    ) {
        let mut ts = start;
        let mut points = vec![(ts, 1.0)];
        for (i, d) in deltas.iter().enumerate() {
            let Some(next) = ts.checked_add(*d) else { break };
            ts = next;
            points.push((ts, i as f64));
        }
        let chunk = SealedChunk::try_encode(&points).unwrap();
        prop_assert_eq!(chunk.decode(), points);
    }

    /// NaN anywhere in the input is rejected, never silently encoded.
    #[test]
    fn codec_rejects_nan(
        n in 1usize..50,
        nan_at in 0usize..50,
        nan_bits in prop_oneof![
            Just(f64::NAN.to_bits()),
            // A signalling-ish payload: NaN with a nonzero mantissa.
            Just(0x7ff0_0000_0000_0001u64),
            Just(0xfff8_dead_beef_0000u64),
        ],
    ) {
        let mut points: Vec<(u64, f64)> = (0..n).map(|i| (i as u64, i as f64)).collect();
        let slot = nan_at % n;
        points[slot].1 = f64::from_bits(nan_bits);
        prop_assert_eq!(SealedChunk::try_encode(&points), Err(EncodeError::NotANumber));
    }
}

/// Regression test for the prune/rescan fix: a burst of prunes on the
/// chunked engine performs **zero** aggregate refolds until the next
/// `stats` call, and that single lazy refold is bit-identical to the
/// naive engine's eagerly-rescanned aggregates.
#[test]
fn prune_burst_refolds_lazily_and_matches_eager_spec() {
    let mut chunked = ManagementStore::with_chunk_capacity(Classifier::standard(), 16);
    let mut naive = NaiveStore::new(Classifier::standard());
    for i in 0..500u64 {
        let r = Record::new("d0", "cpu.load.1", (i % 23) as f64, i * 1_000);
        chunked.insert(r.clone());
        naive.insert(r);
    }
    // Warm the whole-series fast path, then prune repeatedly.
    assert!(chunked.stats("d0", "cpu.load.1", 0, u64::MAX).is_some());
    let refolds_before = chunked.agg_refolds();
    for horizon in [50_000u64, 100_000, 150_000, 200_000, 250_000] {
        assert_eq!(
            chunked.prune_before(horizon),
            naive.prune_before(horizon),
            "prune at {horizon}"
        );
    }
    assert_eq!(
        chunked.agg_refolds(),
        refolds_before,
        "prunes must only invalidate, never eagerly refold"
    );
    let c = chunked.stats("d0", "cpu.load.1", 0, u64::MAX).unwrap();
    let n = naive.stats("d0", "cpu.load.1", 0, u64::MAX).unwrap();
    assert_eq!(
        chunked.agg_refolds(),
        refolds_before + 1,
        "one refold serves the whole prune burst"
    );
    assert_eq!(c.count, n.count);
    assert_eq!(c.min.to_bits(), n.min.to_bits());
    assert_eq!(c.max.to_bits(), n.max.to_bits());
    assert_eq!(c.mean.to_bits(), n.mean.to_bits());
    // A second stats call is served from the cache.
    let _ = chunked.stats("d0", "cpu.load.1", 0, u64::MAX);
    assert_eq!(chunked.agg_refolds(), refolds_before + 1);
}
