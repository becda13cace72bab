//! Property tests for the overload-protection layer: the alert
//! exemption of shed-by-priority mailboxes must hold for every
//! burst shape, mailbox cap and container count — an alert-class
//! message is deferred past the cap, never dropped.

use agentgrid_suite::acl::{AclMessage, AgentId, Performative, Value};
use agentgrid_suite::platform::{Agent, MailboxConfig, MessageClass, Platform, Runtime};
use proptest::prelude::*;

struct Sink;
impl Agent for Sink {}

/// xorshift64 — deterministic burst shapes from a proptest-drawn seed.
struct Lcg(u64);
impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// One concept per message class, plus extras that map to the same
/// class, so every rung of the priority lattice shows up in a burst.
const CONCEPTS: [&str; 6] = [
    "alert",
    "collected-batch",
    "analysis-task",
    "done",
    "observation",
    "resource-profile",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever mix of traffic floods a bounded container, zero
    /// alert-class messages are shed: when the lowest-priority victim
    /// in the waiting queue is itself an alert, the incoming message is
    /// deferred instead, and an incoming alert always outranks any
    /// non-alert victim.
    #[test]
    fn shed_by_priority_never_drops_an_alert(
        seed in 0u64..10_000,
        capacity in 1usize..5,
        containers in 1usize..4,
        windows in 2u64..14,
    ) {
        let mut platform = Platform::create("x");
        platform.set_overload(MailboxConfig::new(capacity), None);
        let mut sinks = Vec::new();
        for i in 0..containers {
            let container = format!("c{i}");
            platform.add_container(&container);
            sinks.push(
                platform
                    .spawn_agent(&container, &format!("sink-{i}"), Sink)
                    .unwrap(),
            );
        }
        let mut rng = Lcg(seed | 1);
        let mut alerts_sent = 0u64;
        for window in 1..=windows {
            let t = window * 1_000;
            // Open the window, pour a burst into it, drain.
            platform.run_until_idle(t);
            let burst = 3 + rng.next() % 14;
            for _ in 0..burst {
                let concept = CONCEPTS[(rng.next() % CONCEPTS.len() as u64) as usize];
                if concept == "alert" {
                    alerts_sent += 1;
                }
                let receiver = sinks[(rng.next() % sinks.len() as u64) as usize].clone();
                let message = AclMessage::builder(Performative::Inform)
                    .sender(AgentId::new("driver"))
                    .receiver(receiver)
                    .content(Value::map([("concept", Value::symbol(concept))]))
                    .build()
                    .unwrap();
                platform.post(message);
            }
            platform.run_until_idle(t);
        }
        let stats = platform.overload_stats().expect("overload protection configured");
        prop_assert_eq!(
            stats.shed(MessageClass::Alert),
            0,
            "alerts sent: {}, stats: {:?}",
            alerts_sent,
            stats
        );
        // The property is vacuous unless the burst actually overflowed
        // somewhere: with cap 1 and bursts of >= 3 it always does.
        if capacity == 1 {
            prop_assert!(stats.shed_total() > 0);
        }
    }
}
