//! Multicast fan-out benchmark: one message with a deep content tree
//! delivered to 1, 8 and 64 receivers through the routing path the
//! deterministic stepper and the pool share.
//!
//! Routing moves `Arc<AclMessage>`s, so fan-out is N refcount bumps —
//! per-receiver cost must stay flat as the receiver count grows. The
//! `deep_clone_baseline` series re-creates the cost shape routing had
//! before shared messages (one deep clone of the content tree per
//! receiver) as the comparison anchor: at 64 receivers the multicast
//! series must beat it clearly.

use agentgrid_acl::{AclMessage, AgentId, Performative, SharedMessage, Value};
use agentgrid_platform::{Agent, Platform};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

const RECEIVERS: [usize; 3] = [1, 8, 64];
const CONTAINERS: usize = 4;

struct Sink;
impl Agent for Sink {}

/// A content tree shaped like a large collected batch (~1k nodes).
fn deep_payload() -> Value {
    Value::list((0..64).map(|d| {
        Value::map([
            ("device", Value::from(format!("srv-{d}"))),
            ("metric", Value::symbol("cpu.load.1")),
            (
                "samples",
                Value::list((0..12).map(|s| Value::Float(s as f64 * 0.25))),
            ),
        ])
    }))
}

fn receiver_ids(n: usize) -> Vec<AgentId> {
    (0..n)
        .map(|i| AgentId::with_platform(format!("sink-{i}"), "bench"))
        .collect()
}

fn multicast(to: &[AgentId]) -> AclMessage {
    AclMessage::builder(Performative::Inform)
        .sender(AgentId::new("driver@bench"))
        .receivers(to.iter().cloned())
        .content(deep_payload())
        .build()
        .unwrap()
}

/// Deterministic platform with `n` sinks spread over [`CONTAINERS`].
fn deterministic_platform(n: usize) -> Platform {
    let mut platform = Platform::new("bench");
    for c in 0..CONTAINERS {
        platform.add_container(format!("c{c}"));
    }
    for (i, _) in receiver_ids(n).iter().enumerate() {
        platform
            .spawn(&format!("c{}", i % CONTAINERS), &format!("sink-{i}"), Sink)
            .unwrap();
    }
    platform
}

fn bench_deterministic(c: &mut Criterion) {
    let mut group = c.benchmark_group("message_fanout/deterministic");
    for n in RECEIVERS {
        let mut platform = deterministic_platform(n);
        let message: SharedMessage = multicast(&receiver_ids(n)).into_shared();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                platform.post(SharedMessage::clone(&message));
                black_box(platform.step(0))
            })
        });
    }
    group.finish();
}

fn bench_deterministic_deep_clone_baseline(c: &mut Criterion) {
    let mut group = c.benchmark_group("message_fanout/deep_clone_baseline");
    for n in RECEIVERS {
        let mut platform = deterministic_platform(n);
        // One unicast per receiver, deep-cloned per iteration: the cost
        // shape of per-receiver `AclMessage::clone()` fan-out.
        let unicasts: Vec<AclMessage> = receiver_ids(n)
            .into_iter()
            .map(|id| multicast(std::slice::from_ref(&id)))
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                for message in &unicasts {
                    platform.post(message.clone());
                }
                black_box(platform.step(0))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_deterministic,
    bench_deterministic_deep_clone_baseline,
);
criterion_main!(benches);
