//! Load-balancing ablation benchmark (extension Ext-2): awarding 1 000
//! analysis tasks over a heterogeneous container pool under each policy,
//! through the select-and-charge the live grid root uses.

use agentgrid::balance::{
    award, ContractNet, KnowledgeCapacityIdle, LeastLoaded, LoadBalancer, Random, RoundRobin,
};
use agentgrid::ontology::{AnalysisTask, ResourceProfile};
use agentgrid_platform::DirectoryFacilitator;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn directory() -> DirectoryFacilitator {
    let mut df = DirectoryFacilitator::new();
    for i in 0..8 {
        df.register_container(ResourceProfile::new(
            format!("pg-{i}"),
            1.0 + (i % 4) as f64,
            1.0,
            4096,
            ["cpu", "disk", "memory", "interface"],
        ));
    }
    df
}

fn tasks() -> Vec<AnalysisTask> {
    (0..1000)
        .map(|i| {
            let skill = ["cpu", "disk", "memory", "interface"][i % 4];
            AnalysisTask::new(format!("t{i}"), skill, skill, 1, 100 + (i as u64 % 400))
        })
        .collect()
}

fn bench_policies(c: &mut Criterion) {
    let directory = directory();
    let tasks = tasks();
    let policies: [Box<dyn LoadBalancer>; 5] = [
        Box::new(KnowledgeCapacityIdle),
        Box::new(RoundRobin::default()),
        Box::new(LeastLoaded),
        Box::new(ContractNet),
        Box::new(Random::new(42)),
    ];
    for policy in &policies {
        c.bench_function(&format!("lb_divide_1000/{}", policy.name()), |b| {
            b.iter(|| {
                // Every iteration starts from the same policy state and
                // idle accounts.
                let mut policy = policy.boxed_clone();
                let mut df = directory.clone();
                let awarded = tasks
                    .iter()
                    .filter(|task| award(policy.as_mut(), &mut df, task, |_, _| true).is_some())
                    .count();
                black_box(awarded)
            })
        });
    }
}

criterion_group!(benches, bench_policies);
criterion_main!(benches);
