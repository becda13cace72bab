use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::{AgentId, Performative, Value};

/// A reference-counted [`AclMessage`].
///
/// Runtimes move messages around as `Arc`s so that multicast fan-out and
/// dead-letter capture are pointer bumps instead of deep clones of the
/// content tree. `Arc<T>` implements `From<T>`, so any API accepting
/// `impl Into<SharedMessage>` also accepts a plain [`AclMessage`].
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use agentgrid_acl::{AclMessage, AgentId, Performative, SharedMessage};
///
/// let msg = AclMessage::builder(Performative::Inform)
///     .sender(AgentId::new("a@p"))
///     .receiver(AgentId::new("b@p"))
///     .build()?;
/// let shared: SharedMessage = msg.into_shared();
/// let copy = Arc::clone(&shared); // fan-out: no deep clone
/// assert!(Arc::ptr_eq(&shared, &copy));
/// # Ok::<(), agentgrid_acl::BuildMessageError>(())
/// ```
pub type SharedMessage = Arc<AclMessage>;

/// Identifier tying the messages of one conversation together.
///
/// Conversation identifiers are plain strings on the wire; [`ConversationId::fresh`]
/// mints process-unique ones for protocol initiators.
///
/// # Examples
///
/// ```
/// use agentgrid_acl::ConversationId;
/// let a = ConversationId::fresh("cnet");
/// let b = ConversationId::fresh("cnet");
/// assert_ne!(a, b);
/// assert!(a.as_str().starts_with("cnet-"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ConversationId(String);

static NEXT_CONVERSATION: AtomicU64 = AtomicU64::new(1);

impl ConversationId {
    /// Creates a conversation id from an explicit string.
    pub fn new(id: impl Into<String>) -> Self {
        ConversationId(id.into())
    }

    /// Mints a process-unique conversation id with the given prefix.
    pub fn fresh(prefix: &str) -> Self {
        let n = NEXT_CONVERSATION.fetch_add(1, Ordering::Relaxed);
        ConversationId(format!("{prefix}-{n}"))
    }

    /// The identifier text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for ConversationId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for ConversationId {
    fn from(s: &str) -> Self {
        ConversationId::new(s)
    }
}

/// A FIPA-ACL message.
///
/// Messages are the only way grids talk to each other: the classifier grid
/// notifies the processor grid that data is ready with an `inform`, the
/// processor root opens a contract-net with `cfp`, containers bid with
/// `propose`, and so on (paper §3.2–3.5).
///
/// Construct messages through [`AclMessage::builder`]; reply to them with
/// [`AclMessage::reply`], which flips sender/receiver and preserves
/// the conversation id, ontology and protocol.
///
/// # Examples
///
/// ```
/// use agentgrid_acl::{AclMessage, AgentId, Performative, Value};
///
/// let cfp = AclMessage::builder(Performative::Cfp)
///     .sender(AgentId::new("pg-root@grid"))
///     .receiver(AgentId::new("container-a@grid"))
///     .protocol("fipa-contract-net")
///     .content(Value::list([Value::symbol("analyze"), Value::from("batch-9")]))
///     .build()?;
/// let bid = cfp.reply(Performative::Propose, Value::from(0.7));
/// assert_eq!(bid.receivers()[0].name(), "pg-root@grid");
/// assert_eq!(bid.conversation_id(), cfp.conversation_id());
/// # Ok::<(), agentgrid_acl::BuildMessageError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AclMessage {
    performative: Performative,
    sender: AgentId,
    receivers: Vec<AgentId>,
    reply_to: Option<AgentId>,
    content: Value,
    language: String,
    ontology: Option<String>,
    protocol: Option<String>,
    conversation_id: Option<ConversationId>,
    in_reply_to: Option<String>,
    reply_with: Option<String>,
}

impl AclMessage {
    /// Starts building a message with the given performative.
    pub fn builder(performative: Performative) -> AclMessageBuilder {
        AclMessageBuilder {
            performative,
            sender: None,
            receivers: Vec::new(),
            reply_to: None,
            content: Value::Nil,
            language: "agentgrid-sl".to_owned(),
            ontology: None,
            protocol: None,
            conversation_id: None,
            in_reply_to: None,
            reply_with: None,
        }
    }

    /// The communicative act of this message.
    pub fn performative(&self) -> Performative {
        self.performative
    }

    /// The sending agent.
    pub fn sender(&self) -> &AgentId {
        &self.sender
    }

    /// The receiving agents (at least one).
    pub fn receivers(&self) -> &[AgentId] {
        &self.receivers
    }

    /// Agent replies should be addressed to, when different from the sender.
    pub fn reply_to(&self) -> Option<&AgentId> {
        self.reply_to.as_ref()
    }

    /// The message content.
    pub fn content(&self) -> &Value {
        &self.content
    }

    /// The content language (defaults to `agentgrid-sl`).
    pub fn language(&self) -> &str {
        &self.language
    }

    /// The ontology the content is expressed in, if declared.
    pub fn ontology(&self) -> Option<&str> {
        self.ontology.as_deref()
    }

    /// The interaction protocol this message belongs to, if declared.
    pub fn protocol(&self) -> Option<&str> {
        self.protocol.as_deref()
    }

    /// The conversation this message belongs to, if declared.
    pub fn conversation_id(&self) -> Option<&ConversationId> {
        self.conversation_id.as_ref()
    }

    /// The `reply-with` tag of the message this one answers.
    pub fn in_reply_to(&self) -> Option<&str> {
        self.in_reply_to.as_deref()
    }

    /// The tag replies to this message should carry in `in-reply-to`.
    pub fn reply_with(&self) -> Option<&str> {
        self.reply_with.as_deref()
    }

    /// Builds a reply: receiver becomes `reply_to` (or the sender),
    /// sender becomes the first receiver, and conversation id, ontology,
    /// protocol and reply tags are carried over.
    pub fn reply(&self, performative: Performative, content: Value) -> AclMessage {
        let target = self.reply_to.clone().unwrap_or_else(|| self.sender.clone());
        let replier = self
            .receivers
            .first()
            .cloned()
            .unwrap_or_else(|| AgentId::new("unknown"));
        AclMessage {
            performative,
            sender: replier,
            receivers: vec![target],
            reply_to: None,
            content,
            language: self.language.clone(),
            ontology: self.ontology.clone(),
            protocol: self.protocol.clone(),
            conversation_id: self.conversation_id.clone(),
            in_reply_to: self.reply_with.clone(),
            reply_with: None,
        }
    }

    /// A copy of this message addressed to a single receiver; every
    /// other field is carried over. Runtimes use this to requeue the
    /// failed leg of a multicast without re-delivering to receivers the
    /// original already reached.
    pub fn narrowed(&self, receiver: AgentId) -> AclMessage {
        AclMessage {
            receivers: vec![receiver],
            ..self.clone()
        }
    }

    /// Approximate size of this message for network-cost accounting:
    /// header fields plus the node count of the content tree.
    pub fn cost_weight(&self) -> usize {
        8 + self.content.node_count()
    }

    /// Wraps this message in an [`Arc`] for zero-copy routing.
    ///
    /// Equivalent to `Arc::new(self)`; reads better at call sites that
    /// hand a freshly built message to a runtime.
    pub fn into_shared(self) -> SharedMessage {
        Arc::new(self)
    }
}

/// Builder for [`AclMessage`] (see [`AclMessage::builder`]).
#[derive(Debug, Clone)]
pub struct AclMessageBuilder {
    performative: Performative,
    sender: Option<AgentId>,
    receivers: Vec<AgentId>,
    reply_to: Option<AgentId>,
    content: Value,
    language: String,
    ontology: Option<String>,
    protocol: Option<String>,
    conversation_id: Option<ConversationId>,
    in_reply_to: Option<String>,
    reply_with: Option<String>,
}

impl AclMessageBuilder {
    /// Sets the sending agent (required).
    pub fn sender(mut self, sender: AgentId) -> Self {
        self.sender = Some(sender);
        self
    }

    /// Adds a receiver (at least one required).
    pub fn receiver(mut self, receiver: AgentId) -> Self {
        self.receivers.push(receiver);
        self
    }

    /// Adds several receivers.
    pub fn receivers(mut self, receivers: impl IntoIterator<Item = AgentId>) -> Self {
        self.receivers.extend(receivers);
        self
    }

    /// Directs replies to an agent other than the sender.
    pub fn reply_to(mut self, agent: AgentId) -> Self {
        self.reply_to = Some(agent);
        self
    }

    /// Sets the content value.
    pub fn content(mut self, content: Value) -> Self {
        self.content = content;
        self
    }

    /// Sets the content from s-expression text.
    ///
    /// # Panics
    ///
    /// Panics if `text` is not valid content-language syntax; use
    /// [`content`](Self::content) with a pre-parsed [`Value`] for dynamic
    /// input.
    pub fn content_text(self, text: &str) -> Self {
        let value = text
            .parse::<Value>()
            .unwrap_or_else(|e| panic!("invalid content text {text:?}: {e}"));
        self.content(value)
    }

    /// Sets the content language name.
    pub fn language(mut self, language: impl Into<String>) -> Self {
        self.language = language.into();
        self
    }

    /// Declares the ontology of the content.
    pub fn ontology(mut self, ontology: impl Into<String>) -> Self {
        self.ontology = Some(ontology.into());
        self
    }

    /// Declares the interaction protocol.
    pub fn protocol(mut self, protocol: impl Into<String>) -> Self {
        self.protocol = Some(protocol.into());
        self
    }

    /// Sets the conversation id.
    pub fn conversation(mut self, id: ConversationId) -> Self {
        self.conversation_id = Some(id);
        self
    }

    /// Sets the `in-reply-to` tag.
    pub fn in_reply_to(mut self, tag: impl Into<String>) -> Self {
        self.in_reply_to = Some(tag.into());
        self
    }

    /// Sets the `reply-with` tag.
    pub fn reply_with(mut self, tag: impl Into<String>) -> Self {
        self.reply_with = Some(tag.into());
        self
    }

    /// Finishes the message.
    ///
    /// # Errors
    ///
    /// Returns [`BuildMessageError`] if no sender or no receiver was set.
    pub fn build(self) -> Result<AclMessage, BuildMessageError> {
        let sender = self.sender.ok_or(BuildMessageError::MissingSender)?;
        if self.receivers.is_empty() {
            return Err(BuildMessageError::MissingReceiver);
        }
        Ok(AclMessage {
            performative: self.performative,
            sender,
            receivers: self.receivers,
            reply_to: self.reply_to,
            content: self.content,
            language: self.language,
            ontology: self.ontology,
            protocol: self.protocol,
            conversation_id: self.conversation_id,
            in_reply_to: self.in_reply_to,
            reply_with: self.reply_with,
        })
    }
}

/// Error returned by [`AclMessageBuilder::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum BuildMessageError {
    /// No sender was provided.
    MissingSender,
    /// No receiver was provided.
    MissingReceiver,
}

impl fmt::Display for BuildMessageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildMessageError::MissingSender => f.write_str("message has no sender"),
            BuildMessageError::MissingReceiver => f.write_str("message has no receiver"),
        }
    }
}

impl std::error::Error for BuildMessageError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> AclMessageBuilder {
        AclMessage::builder(Performative::Inform)
            .sender(AgentId::new("a@p"))
            .receiver(AgentId::new("b@p"))
    }

    #[test]
    fn builder_requires_sender_and_receiver() {
        let no_sender = AclMessage::builder(Performative::Inform)
            .receiver(AgentId::new("b"))
            .build();
        assert_eq!(no_sender.unwrap_err(), BuildMessageError::MissingSender);

        let no_receiver = AclMessage::builder(Performative::Inform)
            .sender(AgentId::new("a"))
            .build();
        assert_eq!(no_receiver.unwrap_err(), BuildMessageError::MissingReceiver);
    }

    #[test]
    fn builder_sets_all_fields() {
        let msg = base()
            .reply_to(AgentId::new("c@p"))
            .ontology("mgmt")
            .protocol("fipa-request")
            .conversation(ConversationId::new("k1"))
            .in_reply_to("t0")
            .reply_with("t1")
            .language("sl0")
            .content(Value::Int(5))
            .build()
            .unwrap();
        assert_eq!(msg.reply_to().unwrap().name(), "c@p");
        assert_eq!(msg.ontology(), Some("mgmt"));
        assert_eq!(msg.protocol(), Some("fipa-request"));
        assert_eq!(msg.conversation_id().unwrap().as_str(), "k1");
        assert_eq!(msg.in_reply_to(), Some("t0"));
        assert_eq!(msg.reply_with(), Some("t1"));
        assert_eq!(msg.language(), "sl0");
        assert_eq!(msg.content().as_int(), Some(5));
    }

    #[test]
    fn reply_flips_direction_and_keeps_context() {
        let msg = base()
            .protocol("fipa-request")
            .conversation(ConversationId::new("k9"))
            .reply_with("tag-3")
            .build()
            .unwrap();
        let reply = msg.reply(Performative::Agree, Value::Nil);
        assert_eq!(reply.sender().name(), "b@p");
        assert_eq!(reply.receivers()[0].name(), "a@p");
        assert_eq!(reply.protocol(), Some("fipa-request"));
        assert_eq!(reply.conversation_id().unwrap().as_str(), "k9");
        assert_eq!(reply.in_reply_to(), Some("tag-3"));
    }

    #[test]
    fn reply_prefers_reply_to() {
        let msg = base().reply_to(AgentId::new("relay@p")).build().unwrap();
        let reply = msg.reply(Performative::Inform, Value::Nil);
        assert_eq!(reply.receivers()[0].name(), "relay@p");
    }

    #[test]
    fn fresh_conversation_ids_are_unique() {
        let ids: Vec<_> = (0..100).map(|_| ConversationId::fresh("t")).collect();
        let mut dedup = ids.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len());
    }

    #[test]
    fn shared_message_multicast_shares_one_allocation() {
        let msg = base().content(Value::Int(7)).build().unwrap();
        let shared = msg.into_shared();
        let copies: Vec<SharedMessage> = (0..8).map(|_| Arc::clone(&shared)).collect();
        assert!(copies.iter().all(|c| Arc::ptr_eq(c, &shared)));
        // Replying through the Arc still works ergonomically.
        let reply = shared.reply(Performative::Agree, Value::Nil);
        assert_eq!(reply.receivers()[0].name(), "a@p");
    }

    #[test]
    fn cost_weight_grows_with_content() {
        let small = base().content(Value::Int(1)).build().unwrap();
        let big = base()
            .content(Value::list((0..50).map(Value::from)))
            .build()
            .unwrap();
        assert!(big.cost_weight() > small.cost_weight());
    }
}
