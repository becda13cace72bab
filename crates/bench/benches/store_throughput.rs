//! Store throughput benchmark: the record-per-point `NaiveStore` spec vs
//! the chunk-compressed engine on the same 20-series telemetry workload.
//! Three axes: ingest (classify + index + append/encode), the
//! capacity-report "daily peak" windowed sweep (where the chunked engine
//! absorbs whole-chunk min/max summaries without decompressing), and the
//! consolidation "mean per ten minutes" sweep (which decodes every
//! point). `repro --store-bench-json <path>` records the same comparison
//! without Criterion for CI artifacts.

use agentgrid_bench::{store_workload, BenchStore};
use agentgrid_store::{AggKind, ManagementStore, NaiveStore, Record};
use criterion::{criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_engine<S: BenchStore>(group: &mut BenchmarkGroup<'_>, label: &str, records: &[Record]) {
    let n = records.len();
    group.bench_with_input(
        BenchmarkId::new(format!("ingest/{label}"), n),
        records,
        |b, records| b.iter(|| black_box(S::ingest(records))),
    );
    let store = S::ingest(records);
    group.bench_with_input(
        BenchmarkId::new(format!("daily_peak/{label}"), n),
        &store,
        |b, store| b.iter(|| black_box(store.sweep(1_440 * 60_000, AggKind::Max))),
    );
    group.bench_with_input(
        BenchmarkId::new(format!("mean_10m/{label}"), n),
        &store,
        |b, store| b.iter(|| black_box(store.sweep(10 * 60_000, AggKind::Mean))),
    );
}

fn bench_store_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("store");
    group.sample_size(10);
    for n in [10_000usize, 100_000] {
        let records = store_workload(n);
        bench_engine::<NaiveStore>(&mut group, "naive", &records);
        bench_engine::<ManagementStore>(&mut group, "chunked", &records);
    }
    group.finish();
}

criterion_group!(benches, bench_store_throughput);
criterion_main!(benches);
