//! The batch-first delivery contract shared by every runtime.
//!
//! Routing used to be a per-message affair: each queued
//! [`SharedMessage`] was resolved, admitted, and delivered leg by leg.
//! All runtimes now drain their inbox into a batch and group it into
//! **per-container batches** first; receiver resolution happens here,
//! once per batch, and the runtimes then hand the batches to the network
//! adversary (while it has a window open; it is the only drop path, see
//! [`net`](crate::net)), apply overload admission
//! ([`MailboxTracker::admit_batch`]) and flush each container's batch in
//! one go. The grouping preserves posted order
//! within every container batch, so per-(sender, receiver) FIFO
//! ordering is untouched; what changes is the locking and delivery
//! shape — one routing-table acquisition and one channel send (or one
//! mailbox walk) per container per batch instead of per message.
//!
//! [`MailboxTracker::admit_batch`]: crate::overload::MailboxTracker::admit_batch

use std::collections::BTreeMap;

use agentgrid_acl::{AgentId, SharedMessage};

/// One container's share of a routed batch: messages in posted order,
/// each with the exact list of its receivers resident in that container.
/// Fan-out is refcount bumps on the shared allocation, never a deep
/// clone.
pub(crate) type ContainerBatch = Vec<(SharedMessage, Vec<AgentId>)>;

/// Groups a drained inbox batch into per-container batches.
///
/// `resolve` maps a receiver to its current container; unresolved legs
/// go to `fail` (dead-letter or requeue-once, decided by the caller) in
/// exactly the order a per-message router would have failed them.
///
/// Resolution is memoized for the duration of the call: fan-out batches
/// name the same handful of receivers hundreds of times per round, and
/// agents do not move containers mid-batch, so each receiver is probed
/// against the routing table exactly once. Unresolved receivers are
/// cached too — but `fail` still fires for every leg naming them, in
/// posted order, so dead-letter accounting is unchanged.
///
/// The returned map iterates in container-name order, so batch-first
/// routing stays deterministic on the deterministic runtimes.
pub(crate) fn group_into_batches(
    batch: &[SharedMessage],
    mut resolve: impl FnMut(&AgentId) -> Option<String>,
    mut fail: impl FnMut(&SharedMessage, &AgentId),
) -> BTreeMap<String, ContainerBatch> {
    let mut per_container: BTreeMap<String, ContainerBatch> = BTreeMap::new();
    let mut resolved: BTreeMap<AgentId, Option<String>> = BTreeMap::new();
    for message in batch {
        let mut groups: BTreeMap<String, Vec<AgentId>> = BTreeMap::new();
        for receiver in message.receivers() {
            let home = resolved
                .entry(receiver.clone())
                .or_insert_with(|| resolve(receiver));
            match home {
                Some(container) => groups
                    .entry(container.clone())
                    .or_default()
                    .push(receiver.clone()),
                None => fail(message, receiver),
            }
        }
        for (container, receivers) in groups {
            per_container
                .entry(container)
                .or_default()
                .push((SharedMessage::clone(message), receivers));
        }
    }
    per_container
}

/// Number of delivery legs in a container batch (what the
/// `agentgrid_delivery_batch_size` histogram observes per flush).
pub(crate) fn batch_legs(batch: &ContainerBatch) -> u64 {
    batch
        .iter()
        .map(|(_, receivers)| receivers.len() as u64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use agentgrid_acl::{AclMessage, Performative};

    fn msg(sender: &str, receivers: &[&str]) -> SharedMessage {
        let mut builder = AclMessage::builder(Performative::Inform).sender(AgentId::new(sender));
        for r in receivers {
            builder = builder.receiver(AgentId::new(*r));
        }
        builder.build().unwrap().into_shared()
    }

    #[test]
    fn grouping_preserves_posted_order_per_container() {
        let batch = vec![
            msg("s", &["a@x", "b@x"]),
            msg("s", &["a@x"]),
            msg("s", &["b@x"]),
        ];
        let homes: BTreeMap<&str, &str> = [("a@x", "c1"), ("b@x", "c2")].into();
        let grouped = group_into_batches(
            &batch,
            |r| homes.get(r.name()).map(|c| (*c).to_owned()),
            |_, _| panic!("everything resolves"),
        );
        let c1 = &grouped["c1"];
        assert_eq!(c1.len(), 2);
        assert!(SharedMessage::ptr_eq(&c1[0].0, &batch[0]));
        assert!(SharedMessage::ptr_eq(&c1[1].0, &batch[1]));
        let c2 = &grouped["c2"];
        assert_eq!(c2.len(), 2);
        assert!(SharedMessage::ptr_eq(&c2[0].0, &batch[0]));
        assert!(SharedMessage::ptr_eq(&c2[1].0, &batch[2]));
        assert_eq!(batch_legs(c1), 2);
    }

    #[test]
    fn resolution_is_memoized_but_fail_fires_per_leg() {
        let batch = vec![
            msg("s", &["a@x", "ghost@x"]),
            msg("s", &["a@x", "ghost@x"]),
            msg("s", &["a@x"]),
        ];
        let mut probes = Vec::new();
        let mut failed = Vec::new();
        let grouped = group_into_batches(
            &batch,
            |r| {
                probes.push(r.clone());
                (r.name() == "a@x").then(|| "c1".to_owned())
            },
            |_, r| failed.push(r.clone()),
        );
        // One probe per distinct receiver, resolvable or not...
        assert_eq!(probes, vec![AgentId::new("a@x"), AgentId::new("ghost@x")]);
        // ...but every unresolved leg still dead-letters, in order.
        assert_eq!(failed, vec![AgentId::new("ghost@x"); 2]);
        assert_eq!(grouped["c1"].len(), 3);
    }
}
