//! Substrate micro-benchmarks: the building blocks whose costs the
//! architecture-level numbers decompose into — SNMP walks, CLI polls,
//! content-codec round-trips, store inserts and rule-engine runs.
//!
//! `collected_batch_codec` times the in-memory batch codec the grid runs
//! between collector and classifier (`to_content` then `from_content`)
//! on one `multisite` poll round: a site's 8 devices, about 21
//! observations each. The text benches print and parse instead, which
//! only a wire between processes would.

use std::sync::Arc;

use agentgrid::grid::ManagementGrid;
use agentgrid_acl::ontology::{CollectedBatch, FromContent, Observation, ToContent};
use agentgrid_acl::{Envelope, Value};
use agentgrid_bench::{standard_network, ALL_SKILLS};
use agentgrid_net::{cli, snmp, Device, DeviceKind, Oid};
use agentgrid_rules::{parse_rules, Engine, Fact, KnowledgeBase};
use agentgrid_store::{ManagementStore, Record};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_snmp_walk(c: &mut Criterion) {
    let mut device = Device::builder("bench", DeviceKind::Switch)
        .interfaces(24)
        .cpus(4)
        .seed(1)
        .build();
    device.tick(60_000);
    c.bench_function("snmp_walk_full_mib", |b| {
        b.iter(|| black_box(snmp::walk(&mut device, &Oid::from([1])).unwrap().len()))
    });
}

fn bench_cli_poll(c: &mut Criterion) {
    let mut device = Device::builder("bench", DeviceKind::Server)
        .cpus(4)
        .seed(2)
        .build();
    device.tick(60_000);
    c.bench_function("cli_poll_all_commands", |b| {
        b.iter(|| {
            let mut values = 0usize;
            for command in cli::COMMANDS {
                let report = cli::execute(&device, command).unwrap();
                values += cli::parse_report(&report).len();
            }
            black_box(values)
        })
    });
}

fn bench_content_codec(c: &mut Criterion) {
    let value = Value::list((0..100).map(|i| {
        Value::map([
            ("device", Value::from(format!("dev-{i}"))),
            ("metric", Value::from("cpu.load.1")),
            ("value", Value::from(i as f64)),
        ])
    }));
    let text = value.to_string();
    c.bench_function("content_print_parse_100obs", |b| {
        b.iter(|| {
            let printed = value.to_string();
            let parsed: Value = printed.parse().unwrap();
            black_box(parsed.node_count())
        })
    });
    c.bench_function("content_parse_only_100obs", |b| {
        b.iter(|| black_box(text.parse::<Value>().unwrap().node_count()))
    });
    let msg = agentgrid_acl::AclMessage::builder(agentgrid_acl::Performative::Inform)
        .sender(agentgrid_acl::AgentId::new("a@x"))
        .receiver(agentgrid_acl::AgentId::new("b@y"))
        .content(value)
        .build()
        .unwrap();
    c.bench_function("envelope_roundtrip_100obs", |b| {
        b.iter(|| {
            let bytes = Envelope::seal(&msg).encode();
            black_box(Envelope::decode(bytes).unwrap().open().unwrap())
        })
    });
}

/// One site's poll round of a 4-site x 8-device grid, as its collector
/// ships it: one shared `Arc<str>` per device and per (device, metric)
/// name. The series and values are those the grid's store holds after
/// one round.
fn multisite_poll_round() -> CollectedBatch {
    let mut grid = ManagementGrid::builder()
        .network(standard_network(4, 8, 101))
        .analyzer("pg-1", 1.0, ALL_SKILLS)
        .build();
    grid.run(60_000, 60_000);
    let store = grid.store();
    let store = store.lock();
    let mut observations = Vec::new();
    for device in store.devices_at("site-0") {
        let name: Arc<str> = Arc::from(device);
        for metric in store.metrics_of(device) {
            let (ts, value) = store.latest(device, metric).expect("a polled series");
            observations.push(Observation::new(Arc::clone(&name), metric, value, ts));
        }
    }
    CollectedBatch::new("cg-site-0-b1", "cg-site-0@grid", "site-0", observations)
}

fn bench_collected_batch_codec(c: &mut Criterion) {
    let batch = multisite_poll_round();
    assert!(batch.observations.len() >= 8 * 15, "a full poll round");
    c.bench_function("collected_batch_codec", |b| {
        b.iter(|| {
            let content = black_box(&batch).to_content();
            let decoded = CollectedBatch::from_content(&content).expect("batch decodes");
            black_box(decoded.observations.len())
        })
    });
}

fn bench_store_insert(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_insert");
    for n in [100usize, 1000] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut store = ManagementStore::default();
                for i in 0..n {
                    store.insert(Record::new(
                        format!("d{}", i % 20),
                        "cpu.load.1",
                        i as f64,
                        i as u64,
                    ));
                }
                black_box(store.len())
            })
        });
    }
    group.finish();
}

fn bench_rule_engine(c: &mut Criterion) {
    let kb = KnowledgeBase::from_rules(parse_rules(agentgrid::grid::DEFAULT_RULES).unwrap());
    let mut group = c.benchmark_group("rule_engine_run");
    // The default rule set contains a two-pattern correlation rule, so the
    // naive engine's cost grows quadratically in the hot-fact count (see
    // DESIGN.md §8 on RETE); keep the sizes realistic for one partition.
    group.sample_size(20);
    for facts in [20usize, 60] {
        group.bench_with_input(BenchmarkId::from_parameter(facts), &facts, |b, &facts| {
            b.iter(|| {
                let mut engine = Engine::new(kb.clone());
                for i in 0..facts {
                    engine.insert(
                        Fact::new("cpu")
                            .with("device", format!("d{i}"))
                            .with("value", (i % 100) as f64),
                    );
                }
                black_box(engine.run().findings.len())
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_snmp_walk,
    bench_cli_poll,
    bench_content_codec,
    bench_collected_batch_codec,
    bench_store_insert,
    bench_rule_engine
);
criterion_main!(benches);
