//! Inference benchmark: the naive reference matcher vs the incremental
//! (TREAT-style agenda + alpha-indexed) engine on the same rule set and
//! fact stream, at 10/100/1000 facts — plus the store's whole-series
//! `stats`/`latest` hot loop. The naive engine rebuilds its conflict set
//! from scratch every recognize-act cycle; the incremental engine only
//! re-matches rules touched by the previous cycle's delta, so the gap
//! widens with fact count. `repro --bench-json <path>` records the same
//! comparison without Criterion for CI artifacts.
//!
//! The `analysis_task` group times one analysis task of each kind the
//! live grid runs — a level-1 site task, a level-2 site task and the
//! level-3 sweep — on the store a 4-site x 8-device grid holds after 100
//! poll rounds (gridbench's `multisite` shape), each through a held
//! engine set to its level's view, as an analyzer runs it.

use agentgrid::grid::{analyze_task_with, ManagementGrid, DEFAULT_RULES};
use agentgrid_acl::ontology::AnalysisTask;
use agentgrid_bench::{
    inference_facts, inference_kb, inference_store, standard_network, ALL_SKILLS,
};
use agentgrid_rules::{parse_rules, Engine, KnowledgeBase, NaiveEngine, View};
use agentgrid_store::ManagementStore;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;

const MAX_CYCLES: u64 = 100_000;

fn bench_inference(c: &mut Criterion) {
    let kb = Arc::new(inference_kb());
    let mut group = c.benchmark_group("inference");
    group.sample_size(20);
    for n in [10usize, 100, 1000] {
        let facts = inference_facts(n);
        group.bench_with_input(BenchmarkId::new("naive", n), &facts, |b, facts| {
            b.iter(|| {
                let mut engine = NaiveEngine::new((*kb).clone()).with_max_cycles(MAX_CYCLES);
                for fact in facts {
                    engine.insert(fact.clone());
                }
                black_box(engine.run().stats.match_attempts)
            })
        });
        group.bench_with_input(BenchmarkId::new("incremental", n), &facts, |b, facts| {
            b.iter(|| {
                let mut engine = Engine::shared(Arc::clone(&kb)).with_max_cycles(MAX_CYCLES);
                for fact in facts {
                    engine.insert(fact.clone());
                }
                black_box(engine.run().stats.match_attempts)
            })
        });
    }
    group.finish();
}

fn bench_store_stats(c: &mut Criterion) {
    let store = inference_store(1000);
    c.bench_function("store_stats_hot_loop", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for device in 0..5 {
                let device = format!("host-{device}");
                for metric in ["cpu.load.1", "storage.ram.used"] {
                    let stats = store
                        .stats(&device, metric, 0, u64::MAX)
                        .expect("series populated");
                    acc += stats.mean + stats.max;
                    acc += store.latest(&device, metric).expect("series populated").1;
                }
            }
            black_box(acc)
        })
    });
}

/// The store of a 4-site x 8-device grid after `rounds` poll rounds.
fn multisite_store(rounds: u64) -> ManagementStore {
    let mut builder = ManagementGrid::builder().network(standard_network(4, 8, 101));
    for analyzer in ["pg-1", "pg-2", "pg-3", "pg-4"] {
        builder = builder.analyzer(analyzer, 1.0, ALL_SKILLS);
    }
    let mut grid = builder.build();
    grid.run(rounds * 60_000, 60_000);
    let store = grid.store();
    let store = store.lock().clone();
    store
}

fn bench_analysis_task(c: &mut Criterion) {
    let store = multisite_store(100);
    let kb = Arc::new(KnowledgeBase::from_rules(
        parse_rules(DEFAULT_RULES).expect("default rules parse"),
    ));
    let site_task = |partition: &str, level| {
        AnalysisTask::new("t", partition, partition, level, 100).with_site("site-0")
    };
    let cases = [
        (
            "l1_site_interface",
            site_task("interface", 1),
            View::PerDevice,
        ),
        ("l2_site_disk", site_task("disk", 2), View::PerDevice),
        (
            "l3_sweep",
            AnalysisTask::new("t", "correlation", "*", 3, 100),
            View::Correlation,
        ),
    ];
    let mut group = c.benchmark_group("analysis_task");
    for (name, task, view) in cases {
        let mut engine = Engine::shared(Arc::clone(&kb));
        engine.set_view(view);
        group.bench_function(name, |b| {
            b.iter(|| black_box(analyze_task_with(&mut engine, &store, &task, 0).1))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_inference,
    bench_store_stats,
    bench_analysis_task
);
criterion_main!(benches);
