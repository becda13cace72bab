//! Property-based tests for the content codec, envelope and protocols.

use agentgrid_acl::ontology::{CollectedBatch, FromContent, Observation, ToContent};
use agentgrid_acl::protocol::{ContractNetInitiator, ContractNetOutcome};
use agentgrid_acl::{AclMessage, AgentId, ConversationId, Envelope, Performative, Value};
use proptest::prelude::*;

/// Strategy producing arbitrary content-language values (bounded depth).
fn value_strategy() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Nil),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        // Finite floats only: NaN breaks PartialEq-based round-trip checks.
        prop::num::f64::NORMAL.prop_map(Value::Float),
        "[a-z][a-z0-9-]{0,12}".prop_map(Value::symbol),
        ".{0,20}".prop_map(Value::from),
    ];
    leaf.prop_recursive(3, 64, 8, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..6).prop_map(Value::List),
            prop::collection::btree_map("[a-z][a-z0-9-]{0,8}", inner, 0..5).prop_map(Value::map),
        ]
    })
}

/// Text a device or metric name may carry, including the characters the
/// printer escapes: quotes, backslashes and newlines.
const AWKWARD_TEXT: &str = "[a-z0-9.\"\\\n -]{0,12}";

/// Strategy producing collected batches with awkward strings, finite
/// values and any timestamp the content's `i64` can carry.
fn batch_strategy() -> impl Strategy<Value = CollectedBatch> {
    let value = prop_oneof![prop::num::f64::NORMAL, Just(0.0), -1e6f64..1e6];
    let observation = (AWKWARD_TEXT, AWKWARD_TEXT, value, any::<u64>())
        .prop_map(|(device, metric, value, ts)| Observation::new(device, metric, value, ts >> 1));
    (
        AWKWARD_TEXT,
        AWKWARD_TEXT,
        AWKWARD_TEXT,
        prop::collection::vec(observation, 0..8),
    )
        .prop_map(|(id, collector, site, observations)| {
            CollectedBatch::new(id, collector, site, observations)
        })
}

proptest! {
    /// A batch survives its in-memory codec (the path the grid runs) and
    /// the text it prints.
    #[test]
    fn collected_batch_round_trips_in_memory_and_through_text(batch in batch_strategy()) {
        let content = batch.to_content();
        prop_assert_eq!(&CollectedBatch::from_content(&content).expect("decodes"), &batch);
        let parsed: Value = content.to_string().parse().expect("printed batch must parse");
        prop_assert_eq!(&parsed, &content);
        prop_assert_eq!(CollectedBatch::from_content(&parsed).expect("decodes"), batch);
    }

    /// Printing then parsing any value yields the same value.
    #[test]
    fn value_display_parse_round_trip(v in value_strategy()) {
        let text = v.to_string();
        let parsed: Value = text.parse().expect("printed value must parse");
        prop_assert_eq!(parsed, v);
    }

    /// node_count is positive and at least the number of list items.
    #[test]
    fn node_count_is_sane(v in value_strategy()) {
        let n = v.node_count();
        prop_assert!(n >= 1);
        if let Some(items) = v.as_list() {
            prop_assert!(n >= items.len());
        }
    }

    /// Messages survive envelope encode/decode for every performative.
    #[test]
    fn envelope_round_trip(
        p_index in 0usize..Performative::ALL.len(),
        sender in "[a-z]{1,8}@[a-z]{1,8}",
        receiver in "[a-z]{1,8}@[a-z]{1,8}",
        content in value_strategy(),
        conv in proptest::option::of("[a-z0-9-]{1,12}"),
    ) {
        let mut builder = AclMessage::builder(Performative::ALL[p_index])
            .sender(AgentId::new(sender))
            .receiver(AgentId::new(receiver))
            .content(content);
        if let Some(c) = conv {
            builder = builder.conversation(ConversationId::new(c));
        }
        let msg = builder.build().unwrap();
        let decoded = Envelope::decode(Envelope::seal(&msg).encode())
            .expect("decode")
            .open()
            .expect("open");
        prop_assert_eq!(decoded, msg);
    }

    /// The contract-net award always goes to a maximal bid from an invited
    /// bidder, and never to a refuser.
    #[test]
    fn contract_net_awards_a_maximal_invited_bid(
        bids in prop::collection::vec((0u8..20, 0.0f64..100.0), 1..10),
    ) {
        let me = AgentId::new("root@g");
        let participants: Vec<AgentId> = (0..20)
            .map(|i| AgentId::new(format!("p{i:02}@g")))
            .collect();
        let mut cnet =
            ContractNetInitiator::new(me, participants.clone(), Value::Nil);
        cnet.call_for_proposals();

        let mut expected_max: Option<f64> = None;
        let mut answered = std::collections::BTreeSet::new();
        for (idx, bid) in bids {
            let who = &participants[idx as usize];
            if answered.insert(who.clone()) {
                // Alternate: even indices bid, odd indices refuse.
                if idx % 2 == 0 {
                    cnet.handle_propose(who, bid).unwrap();
                    expected_max =
                        Some(expected_max.map_or(bid, |m: f64| m.max(bid)));
                } else {
                    cnet.handle_refuse(who).unwrap();
                }
            }
        }

        match cnet.award().unwrap() {
            ContractNetOutcome::Awarded { winner, bid, .. } => {
                prop_assert_eq!(Some(bid), expected_max);
                prop_assert!(winner.local_name().starts_with('p'));
                let idx: usize = winner.local_name()[1..].parse().unwrap();
                prop_assert_eq!(idx % 2, 0, "refusers must never win");
            }
            ContractNetOutcome::NoBids => {
                prop_assert_eq!(expected_max, None);
            }
        }
    }
}
