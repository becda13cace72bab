//! End-to-end live-grid benchmark (Fig. 2): the full
//! collect→classify→broker→analyze→alert pipeline over simulated
//! minutes, against the centralized and multi-agent baselines on the
//! identical network — the live-system counterpart of Figure 6. A
//! second group times one round of a grid with a long history, report
//! included: a round's cost must not grow with the run behind it.

use agentgrid::grid::ManagementGrid;
use agentgrid_baselines::{CentralizedManager, MultiAgentSystem};
use agentgrid_bench::{standard_network, ALL_SKILLS};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

const MINUTES: u64 = 5;

fn bench_live_grid(c: &mut Criterion) {
    let mut group = c.benchmark_group("live_5min");
    group.sample_size(10);
    group.bench_function("agent-grid", |b| {
        b.iter(|| {
            let mut grid = ManagementGrid::builder()
                .network(standard_network(2, 4, 3))
                .collectors_per_site(2)
                .analyzer("pg-1", 1.0, ALL_SKILLS)
                .analyzer("pg-2", 1.0, ALL_SKILLS)
                .build();
            let report = grid.run(MINUTES * 60_000, 60_000);
            black_box(report.records_stored)
        })
    });
    group.bench_function("multi-agent", |b| {
        b.iter(|| {
            let mut mas = MultiAgentSystem::new(standard_network(2, 4, 3), 2);
            let reports = mas.run(MINUTES * 60_000, 60_000);
            black_box(reports.values().map(|r| r.records).sum::<usize>())
        })
    });
    group.bench_function("centralized", |b| {
        b.iter(|| {
            let mut manager = CentralizedManager::new(standard_network(2, 4, 3));
            let report = manager.run(MINUTES * 60_000, 60_000);
            black_box(report.records_stored)
        })
    });
    group.finish();
}

/// Rounds run before the timed round.
const WARM_ROUNDS: u64 = 100;

fn bench_round_after_history(c: &mut Criterion) {
    let mut group = c.benchmark_group("live_round");
    group.bench_function("8x4-2shards-after-100-rounds", |b| {
        let mut grid = ManagementGrid::builder()
            .network(standard_network(8, 4, 3))
            .analyzer("pg-1", 1.0, ALL_SKILLS)
            .analyzer("pg-2", 1.0, ALL_SKILLS)
            .analyzer("pg-3", 1.0, ALL_SKILLS)
            .analyzer("pg-4", 1.0, ALL_SKILLS)
            .shards(2)
            .build();
        grid.run(WARM_ROUNDS * 60_000, 60_000);
        // Each iteration runs one more 60 s round and drops its report.
        b.iter(|| black_box(grid.run(60_000, 60_000).assignments.len()))
    });
    group.finish();
}

criterion_group!(benches, bench_live_grid, bench_round_after_history);
criterion_main!(benches);
