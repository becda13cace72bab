use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use agentgrid_acl::{AgentId, SharedMessage};
use agentgrid_telemetry::TelemetryHandle;

use crate::agent::{Agent, AgentState};
use crate::container::{AgentSlot, Container, DfRef};
use crate::delivery::{batch_legs, group_into_batches, ContainerBatch};
use crate::net::{NetAdversary, NetCommand, NetStats};
use crate::overload::{MailboxConfig, MailboxTracker, OverloadStats, PressureSignal};
use crate::DirectoryFacilitator;

/// Errors raised by [`Platform`] management operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PlatformError {
    /// The named container does not exist.
    NoSuchContainer(String),
    /// The agent does not exist (or is dead).
    NoSuchAgent(AgentId),
    /// An agent with that name already exists.
    DuplicateAgent(AgentId),
    /// A container with that name already exists.
    DuplicateContainer(String),
    /// The operation is not supported by this runtime.
    Unsupported(&'static str),
}

impl fmt::Display for PlatformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlatformError::NoSuchContainer(name) => write!(f, "no container `{name}`"),
            PlatformError::NoSuchAgent(id) => write!(f, "no agent `{id}`"),
            PlatformError::DuplicateAgent(id) => write!(f, "agent `{id}` already exists"),
            PlatformError::DuplicateContainer(name) => {
                write!(f, "container `{name}` already exists")
            }
            PlatformError::Unsupported(what) => {
                write!(f, "operation not supported by this runtime: {what}")
            }
        }
    }
}

impl std::error::Error for PlatformError {}

/// Transport fault injection, for resilience tests.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TransportFault {
    /// Deliver everything (default).
    None,
    /// Silently drop messages addressed to this agent.
    DropTo(AgentId),
    /// Silently drop messages sent by this agent.
    DropFrom(AgentId),
}

/// A composable set of active [`TransportFault`]s.
///
/// The single-fault API used to be replace-semantics: one `SetFault`
/// clobbered whatever window was open, and one `ClearFault` healed
/// everything. The set makes concurrent fault windows compose:
/// **union semantics** (a leg is dropped if *any* active fault matches
/// it), scoped removal (closing one window leaves the others open), and
/// [`TransportFault::None`] is the identity (inserting it does
/// nothing). Duplicated inserts collapse, so a window opened twice
/// closes with one removal.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultSet {
    active: Vec<TransportFault>,
}

impl FaultSet {
    /// The set holding exactly `fault` (empty for
    /// [`TransportFault::None`]) — the bridge from the legacy
    /// replace-semantics API.
    pub fn just(fault: TransportFault) -> Self {
        let mut set = FaultSet::default();
        set.insert(fault);
        set
    }

    /// Adds a fault to the set. `None` and duplicates are no-ops.
    pub fn insert(&mut self, fault: TransportFault) {
        if matches!(fault, TransportFault::None) || self.active.contains(&fault) {
            return;
        }
        self.active.push(fault);
    }

    /// Removes exactly this fault; other active faults stay in force.
    pub fn remove(&mut self, fault: &TransportFault) {
        self.active.retain(|f| f != fault);
    }

    /// Heals everything.
    pub fn clear(&mut self) {
        self.active.clear();
    }

    /// Whether no fault is active.
    pub fn is_empty(&self) -> bool {
        self.active.is_empty()
    }

    /// Whether any active fault drops messages sent by `sender`.
    pub fn drops_from(&self, sender: &AgentId) -> bool {
        self.active
            .iter()
            .any(|f| matches!(f, TransportFault::DropFrom(from) if from == sender))
    }

    /// Whether any active fault drops legs addressed to `receiver`.
    pub fn drops_to(&self, receiver: &AgentId) -> bool {
        self.active
            .iter()
            .any(|f| matches!(f, TransportFault::DropTo(to) if to == receiver))
    }
}

/// The agent platform: containers, message transport, AMS and DF.
///
/// Stepping model: [`step`](Platform::step) routes all messages queued in
/// the previous step into mailboxes, then lets every active agent consume
/// its mailbox and take a tick, collecting newly sent messages for the
/// next step. Everything iterates in name order → fully deterministic.
///
/// See the [crate-level example](crate) for an end-to-end exchange.
#[derive(Debug)]
pub struct Platform {
    name: String,
    pub(crate) containers: BTreeMap<String, Container>,
    pub(crate) df: DirectoryFacilitator,
    pub(crate) in_flight: Vec<SharedMessage>,
    dead_letters: Vec<SharedMessage>,
    faults: FaultSet,
    /// The seeded network adversary + reliability layer; `None` (the
    /// default) routes exactly as before.
    net: Option<NetAdversary>,
    pub(crate) now_ms: u64,
    delivered: u64,
    pub(crate) telemetry: Option<TelemetryHandle>,
    /// When set, an undeliverable message is requeued once (narrowed to
    /// the failed receiver) for the next clock advance instead of
    /// dead-lettering immediately. Default off: exact dead-letter
    /// accounting is part of the deterministic baseline.
    requeue_dead_letters: bool,
    /// Narrowed copies already requeued once — a second failure of any
    /// of these dead-letters for real. Holding the [`Arc`]s keeps the
    /// pointer identity check sound. Entries drain when their retry
    /// fails (each retry copy fails at most once more), so the ledger
    /// holds only retries still in flight.
    requeue_ledger: Vec<SharedMessage>,
    /// Requeued messages waiting for the clock to advance.
    requeue_parked: Vec<SharedMessage>,
    /// Total messages ever requeued (monotone; the ledger itself drains).
    requeued_total: usize,
    /// Opt-in bounded-mailbox layer; `None` routes exactly as before.
    overload: Option<MailboxTracker>,
}

impl Platform {
    /// Creates a platform with the given name (the `@platform` suffix of
    /// agent ids).
    pub fn new(name: impl Into<String>) -> Self {
        Platform {
            name: name.into(),
            containers: BTreeMap::new(),
            df: DirectoryFacilitator::new(),
            in_flight: Vec::new(),
            dead_letters: Vec::new(),
            faults: FaultSet::default(),
            net: None,
            now_ms: 0,
            delivered: 0,
            telemetry: None,
            requeue_dead_letters: false,
            requeue_ledger: Vec::new(),
            requeue_parked: Vec::new(),
            requeued_total: 0,
            overload: None,
        }
    }

    /// Attaches a telemetry sink: metrics and conversation traces are
    /// recorded from this point on. Containers created before or after
    /// attachment are both covered.
    pub fn set_telemetry(&mut self, telemetry: TelemetryHandle) {
        for (name, container) in self.containers.iter_mut() {
            container.scope = Some(telemetry.container_scope(name));
        }
        if let Some(tracker) = &mut self.overload {
            tracker.set_telemetry(TelemetryHandle::clone(&telemetry));
        }
        self.telemetry = Some(telemetry);
    }

    /// Enables bounded per-container mailboxes (see
    /// [`overload`](crate::overload)): each container accepts at most
    /// `config.capacity` deliveries per clock window, and excess traffic
    /// is deferred or shed per `config.policy`. The optional
    /// `pressure` signal is notified on every deferral/shed so upstream
    /// producers (collectors) can pace themselves.
    pub fn set_overload(&mut self, config: MailboxConfig, pressure: Option<Arc<PressureSignal>>) {
        self.overload = Some(MailboxTracker::new(
            config,
            pressure,
            self.telemetry.clone(),
        ));
    }

    /// Shed/deferral counters of the bounded-mailbox layer; `None` when
    /// overload protection is off.
    pub fn overload_stats(&self) -> Option<OverloadStats> {
        self.overload.as_ref().map(MailboxTracker::stats)
    }

    /// The attached telemetry sink, if any.
    pub fn telemetry(&self) -> Option<TelemetryHandle> {
        self.telemetry.clone()
    }

    /// The platform name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds an empty container.
    ///
    /// # Panics
    ///
    /// Panics if the container already exists (configuration bug).
    pub fn add_container(&mut self, name: impl Into<String>) -> &mut Self {
        let name = name.into();
        let mut container = Container::new();
        if let Some(telemetry) = &self.telemetry {
            container.scope = Some(telemetry.container_scope(&name));
        }
        assert!(
            self.containers.insert(name.clone(), container).is_none(),
            "container `{name}` already exists"
        );
        self
    }

    /// Removes a container abruptly ("crash"): its agents die, their
    /// directory entries are removed, and queued messages to them
    /// dead-letter. Returns the ids of the killed agents.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::NoSuchContainer`] if absent.
    pub fn kill_container(&mut self, name: &str) -> Result<Vec<AgentId>, PlatformError> {
        let container = self
            .containers
            .remove(name)
            .ok_or_else(|| PlatformError::NoSuchContainer(name.to_owned()))?;
        let ids: Vec<AgentId> = container.agents.keys().cloned().collect();
        for id in &ids {
            self.df.deregister(id);
        }
        self.df.deregister_container(name);
        Ok(ids)
    }

    /// Removes a container abruptly *without* touching the directory —
    /// a **silent** crash: the dead container keeps advertising its
    /// (stale) profile and services, exactly like a host that lost power
    /// before deregistering. Liveness detection (heartbeat staleness)
    /// is what notices. Returns the ids of the killed agents.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::NoSuchContainer`] if absent.
    pub fn crash_container_silent(&mut self, name: &str) -> Result<Vec<AgentId>, PlatformError> {
        let container = self
            .containers
            .remove(name)
            .ok_or_else(|| PlatformError::NoSuchContainer(name.to_owned()))?;
        Ok(container.agents.keys().cloned().collect())
    }

    /// Switches the dead-letter requeue policy: when on, the first
    /// delivery failure of a message requeues a copy narrowed to the
    /// failed receiver (retried after the next clock advance); only a
    /// second failure dead-letters. Default off.
    pub fn set_dead_letter_requeue(&mut self, enabled: bool) {
        self.requeue_dead_letters = enabled;
    }

    /// Messages requeued under the dead-letter requeue policy so far
    /// (monotone total; ledger entries drain once their retry resolves).
    pub fn requeued_count(&self) -> usize {
        self.requeued_total
    }

    /// Spawns an agent into a container under `local_name`; its full id
    /// becomes `local_name@platform`. The agent's `setup` runs
    /// immediately.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::NoSuchContainer`] or
    /// [`PlatformError::DuplicateAgent`].
    pub fn spawn(
        &mut self,
        container: &str,
        local_name: &str,
        agent: impl Agent + 'static,
    ) -> Result<AgentId, PlatformError> {
        let id = AgentId::with_platform(local_name, &self.name);
        if self.find_agent(&id).is_some() {
            return Err(PlatformError::DuplicateAgent(id));
        }
        let holder = self
            .containers
            .get_mut(container)
            .ok_or_else(|| PlatformError::NoSuchContainer(container.to_owned()))?;
        let mut slot = AgentSlot {
            agent: Box::new(agent),
            state: AgentState::Active,
            mailbox: Default::default(),
        };
        let mut outbox = Vec::new();
        {
            let mut ctx =
                crate::agent::AgentCtx::new(&id, container, self.now_ms, &mut outbox, &mut self.df);
            slot.agent.setup(&mut ctx);
        }
        if let Some(telemetry) = &self.telemetry {
            // Setup-time sends open new conversations.
            for sent in &outbox {
                if let Some(scope) = &holder.scope {
                    scope.on_sent();
                }
                telemetry.message_sent(sent, None, self.now_ms);
            }
        }
        holder.agents.insert(id.clone(), slot);
        self.in_flight.extend(outbox);
        Ok(id)
    }

    /// The container hosting an agent, if alive.
    pub fn find_agent(&self, id: &AgentId) -> Option<&str> {
        self.containers
            .iter()
            .find(|(_, c)| c.hosts(id))
            .map(|(name, _)| name.as_str())
    }

    /// Read access to a container.
    pub fn container(&self, name: &str) -> Option<&Container> {
        self.containers.get(name)
    }

    /// Container names, in order.
    pub fn container_names(&self) -> impl Iterator<Item = &str> {
        self.containers.keys().map(String::as_str)
    }

    /// Read access to the directory facilitator.
    pub fn df(&self) -> &DirectoryFacilitator {
        &self.df
    }

    /// Write access to the directory facilitator (registration from
    /// outside agent context, e.g. scenario setup).
    pub fn df_mut(&mut self) -> &mut DirectoryFacilitator {
        &mut self.df
    }

    /// Injects (or clears) a transport fault, with the legacy
    /// **replace** semantics: the new fault becomes the whole set
    /// ([`TransportFault::None`] heals everything). Composable windows
    /// go through [`net_command`](Self::net_command) with
    /// [`NetCommand::AddFault`]/[`NetCommand::RemoveFault`].
    pub fn set_fault(&mut self, fault: TransportFault) {
        self.faults = FaultSet::just(fault);
    }

    /// Applies one command against the network layer: legacy fault-set
    /// edits, per-link fault windows, partitions, the adversary seed,
    /// or the reliability policy (see [`crate::net`]).
    pub fn net_command(&mut self, command: NetCommand) {
        match command {
            NetCommand::AddFault(fault) => self.faults.insert(fault),
            NetCommand::RemoveFault(fault) => self.faults.remove(&fault),
            NetCommand::ClearFaults => self.faults.clear(),
            other => self
                .net
                .get_or_insert_with(|| NetAdversary::new(0))
                .command(other),
        }
    }

    /// Counters of the network adversary/reliability layer; `None`
    /// while no [`net_command`](Self::net_command) has touched it.
    pub fn net_stats(&self) -> Option<NetStats> {
        self.net.as_ref().map(NetAdversary::stats)
    }

    /// Messages that could not be delivered (unknown/dead receivers).
    /// A multicast with several unreachable receivers appears once per
    /// unreachable receiver, all entries sharing one allocation.
    pub fn dead_letters(&self) -> &[SharedMessage] {
        &self.dead_letters
    }

    /// Total messages delivered so far (traffic accounting).
    pub fn delivered_count(&self) -> u64 {
        self.delivered
    }

    /// Number of dead-lettered messages so far.
    pub fn dead_letter_count(&self) -> usize {
        self.dead_letters.len()
    }

    /// Sends a message from outside any agent (e.g. the user interface
    /// pushing feedback in). Routed on the next step. Accepts a plain
    /// [`AclMessage`](agentgrid_acl::AclMessage) or a
    /// [`SharedMessage`].
    pub fn post(&mut self, message: impl Into<SharedMessage>) {
        let message = message.into();
        if let Some(telemetry) = &self.telemetry {
            telemetry.message_sent(&message, None, self.now_ms);
        }
        self.in_flight.push(message);
    }

    /// Suspends an agent (mailbox accumulates, no scheduling).
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::NoSuchAgent`] if absent.
    pub fn suspend(&mut self, id: &AgentId) -> Result<(), PlatformError> {
        self.set_state(id, AgentState::Suspended)
    }

    /// Resumes a suspended agent.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::NoSuchAgent`] if absent.
    pub fn resume(&mut self, id: &AgentId) -> Result<(), PlatformError> {
        self.set_state(id, AgentState::Active)
    }

    fn set_state(&mut self, id: &AgentId, state: AgentState) -> Result<(), PlatformError> {
        for container in self.containers.values_mut() {
            if let Some(slot) = container.agents.get_mut(id) {
                slot.state = state;
                return Ok(());
            }
        }
        Err(PlatformError::NoSuchAgent(id.clone()))
    }

    /// Kills an agent: removed from its container and the directory.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::NoSuchAgent`] if absent.
    pub fn kill(&mut self, id: &AgentId) -> Result<(), PlatformError> {
        for container in self.containers.values_mut() {
            if container.agents.remove(id).is_some() {
                self.df.deregister(id);
                return Ok(());
            }
        }
        Err(PlatformError::NoSuchAgent(id.clone()))
    }

    /// **Mobility**: moves a live agent — with its state and pending
    /// mailbox — to another container (the paper's migration of analysis
    /// activities). `setup` is *not* re-run.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::NoSuchAgent`] or
    /// [`PlatformError::NoSuchContainer`].
    pub fn migrate(&mut self, id: &AgentId, to_container: &str) -> Result<(), PlatformError> {
        if !self.containers.contains_key(to_container) {
            return Err(PlatformError::NoSuchContainer(to_container.to_owned()));
        }
        let slot = self
            .containers
            .values_mut()
            .find_map(|c| c.agents.remove(id))
            .ok_or_else(|| PlatformError::NoSuchAgent(id.clone()))?;
        self.containers
            .get_mut(to_container)
            .expect("checked above")
            .agents
            .insert(id.clone(), slot);
        Ok(())
    }

    /// The routing half of a step: retry parked requeues on a clock
    /// advance, drain overload deferrals due this window, then drain the
    /// queue into per-container batches and flush them
    /// ([`route_batch`](Self::route_batch)). Shared between
    /// [`step`](Platform::step) and runtimes that replace only the tick
    /// phase (the pool runtime). Returns the number of messages routed.
    pub(crate) fn pre_tick(&mut self, now_ms: u64) -> usize {
        let advanced = now_ms > self.now_ms;
        if advanced && !self.requeue_parked.is_empty() {
            // The outage may have healed since the failure: retry parked
            // messages on the first step of the new timestamp.
            let parked = std::mem::take(&mut self.requeue_parked);
            self.in_flight.extend(parked);
        }
        self.now_ms = now_ms;
        // One telemetry handle for the whole step — not re-cloned per
        // drained leg, routed message or ticked container.
        let telemetry = self.telemetry.clone();
        if advanced {
            if let Some(tracker) = &mut self.overload {
                // New clock window: budgets reset, deferred legs drain.
                let due = tracker.begin_window();
                for (message, receiver) in due {
                    self.deliver_leg(&message, &receiver, telemetry.as_deref());
                }
            }
            // Delayed and retransmitted legs due by now re-enter,
            // re-resolving receivers like overload deferrals do.
            let due = match &mut self.net {
                Some(net) => {
                    let containers = &self.containers;
                    net.due(
                        now_ms,
                        |agent| resolve_in(containers, agent),
                        telemetry.as_deref(),
                    )
                }
                None => Vec::new(),
            };
            for (message, receiver) in due {
                self.deliver_leg(&message, &receiver, telemetry.as_deref());
            }
        }
        let to_route = std::mem::take(&mut self.in_flight);
        let routed = to_route.len();
        self.route_batch(&to_route, telemetry.as_deref());
        routed
    }

    /// Runs one step at simulated time `now_ms`: route queued messages,
    /// then let every active agent consume its mailbox and tick. Returns
    /// the number of messages routed this step.
    pub fn step(&mut self, now_ms: u64) -> usize {
        let routed = self.pre_tick(now_ms);
        let telemetry = self.telemetry.clone();
        let mut outbox = Vec::new();
        {
            let mut df = DfRef::Direct(&mut self.df);
            for (name, container) in self.containers.iter_mut() {
                container.tick_agents(name, now_ms, &mut outbox, &mut df, telemetry.as_deref());
            }
        }
        self.in_flight.extend(outbox);
        routed
    }

    /// Steps repeatedly at the same timestamp until no messages are in
    /// flight (a quiescent exchange). Returns the number of steps taken.
    /// Stops after 10 000 steps as a runaway safety net.
    pub fn run_until_idle(&mut self, now_ms: u64) -> usize {
        let mut steps = 0;
        loop {
            steps += 1;
            self.step(now_ms);
            if self.in_flight.is_empty() || steps >= 10_000 {
                return steps;
            }
        }
    }

    /// Batch-first routing: the drained queue is grouped into
    /// per-container batches (transport faults and receiver resolution
    /// applied once, up front), unresolved legs fail in posted order,
    /// then each container batch goes through overload admission **once**
    /// and flushes into mailboxes in container-name order. Fan-out stays
    /// N `Arc::clone`s of one shared allocation.
    fn route_batch(
        &mut self,
        batch: &[SharedMessage],
        telemetry: Option<&agentgrid_telemetry::Telemetry>,
    ) {
        let mut failed: Vec<(SharedMessage, AgentId)> = Vec::new();
        let mut batches = {
            let containers = &self.containers;
            group_into_batches(
                batch,
                &self.faults,
                |receiver| resolve_in(containers, receiver),
                |message, receiver| failed.push((SharedMessage::clone(message), receiver.clone())),
            )
        };
        for (message, receiver) in &failed {
            self.fail_leg(message, receiver, telemetry);
        }
        let now_ms = self.now_ms;
        if let Some(net) = &mut self.net {
            // The adversary sits between routing and admission: legs it
            // drops/delays/parks never reach the overload layer.
            let containers = &self.containers;
            let mut survived: BTreeMap<String, ContainerBatch> = BTreeMap::new();
            for (container, legs) in batches {
                let legs = net.process_batch(
                    &container,
                    legs,
                    |agent| resolve_in(containers, agent),
                    now_ms,
                    telemetry,
                );
                if !legs.is_empty() {
                    survived.insert(container, legs);
                }
            }
            batches = survived;
        }
        for (container, legs) in batches {
            let legs = match &mut self.overload {
                Some(tracker) => tracker.admit_batch(&container, legs, now_ms),
                None => legs,
            };
            self.flush_batch(&container, &legs, telemetry);
        }
    }

    /// Delivers one admitted container batch into its mailboxes and
    /// records the batch size.
    fn flush_batch(
        &mut self,
        container: &str,
        legs: &ContainerBatch,
        telemetry: Option<&agentgrid_telemetry::Telemetry>,
    ) {
        if let Some(t) = telemetry {
            t.batch_flushed(batch_legs(legs));
        }
        for (message, receivers) in legs {
            for receiver in receivers {
                self.deliver_to(container, message, receiver, telemetry);
            }
        }
    }

    /// The container currently hosting a live (non-dead) `receiver`.
    fn resolve(&self, receiver: &AgentId) -> Option<String> {
        resolve_in(&self.containers, receiver)
    }

    /// Delivers one admitted leg, re-resolving the container first (it
    /// may have died while the leg sat in the overload waiting queue).
    fn deliver_leg(
        &mut self,
        message: &SharedMessage,
        receiver: &AgentId,
        telemetry: Option<&agentgrid_telemetry::Telemetry>,
    ) {
        match self.resolve(receiver) {
            Some(container) => self.deliver_to(&container, message, receiver, telemetry),
            None => self.fail_leg(message, receiver, telemetry),
        }
    }

    fn deliver_to(
        &mut self,
        container: &str,
        message: &SharedMessage,
        receiver: &AgentId,
        telemetry: Option<&agentgrid_telemetry::Telemetry>,
    ) {
        let present = self
            .containers
            .get(container)
            .is_some_and(|c| c.agents.contains_key(receiver));
        if !present {
            return self.fail_leg(message, receiver, telemetry);
        }
        let holder = self.containers.get_mut(container).expect("checked above");
        let slot = holder.agents.get_mut(receiver).expect("checked above");
        slot.mailbox.push_back(SharedMessage::clone(message));
        self.delivered += 1;
        if let (Some(t), Some(scope)) = (telemetry, &holder.scope) {
            t.message_delivered(message, receiver, scope, self.now_ms);
        }
    }

    /// One undeliverable (message, receiver) leg: requeue once if the
    /// policy is on, otherwise dead-letter.
    fn fail_leg(
        &mut self,
        message: &SharedMessage,
        receiver: &AgentId,
        telemetry: Option<&agentgrid_telemetry::Telemetry>,
    ) {
        if self.requeue_dead_letters {
            match self
                .requeue_ledger
                .iter()
                .position(|m| SharedMessage::ptr_eq(m, message))
            {
                None => {
                    // First failure: requeue once, narrowed to the
                    // failed receiver so receivers the multicast
                    // already reached are not delivered twice.
                    let retry = message.narrowed(receiver.clone()).into_shared();
                    self.requeue_ledger.push(SharedMessage::clone(&retry));
                    self.requeue_parked.push(retry);
                    self.requeued_total += 1;
                    return;
                }
                Some(at) => {
                    // Second failure of a requeued copy: drain the
                    // ledger entry (this allocation is never re-sent)
                    // and dead-letter for real.
                    self.requeue_ledger.swap_remove(at);
                }
            }
        }
        if let Some(t) = telemetry {
            t.message_dead_lettered(message, receiver, self.now_ms);
        }
        self.dead_letters.push(SharedMessage::clone(message));
    }
}

/// The container currently hosting a live (non-dead) `receiver`. A free
/// function so batch grouping can resolve against a field borrow while
/// the failure path mutates other platform state.
pub(crate) fn resolve_in(
    containers: &BTreeMap<String, Container>,
    receiver: &AgentId,
) -> Option<String> {
    containers
        .iter()
        .find(|(_, c)| {
            c.agents
                .get(receiver)
                .is_some_and(|slot| slot.state != AgentState::Dead)
        })
        .map(|(name, _)| name.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AgentCtx;
    use agentgrid_acl::{AclMessage, Performative, Value};

    /// Counts messages; replies to `ping` with `pong`.
    struct Ponger {
        received: u64,
    }

    impl Agent for Ponger {
        fn on_message(&mut self, message: &AclMessage, ctx: &mut AgentCtx<'_>) {
            self.received += 1;
            if message.content() == &Value::symbol("ping") {
                ctx.send(message.reply(Performative::Inform, Value::symbol("pong")));
            }
        }
    }

    /// Sends `count` pings to `target` on setup; counts pongs.
    struct Pinger {
        target: AgentId,
        count: usize,
        pongs: u64,
    }

    impl Agent for Pinger {
        fn setup(&mut self, ctx: &mut AgentCtx<'_>) {
            for _ in 0..self.count {
                let msg = AclMessage::builder(Performative::Request)
                    .sender(ctx.self_id().clone())
                    .receiver(self.target.clone())
                    .content(Value::symbol("ping"))
                    .build()
                    .unwrap();
                ctx.send(msg);
            }
        }
        fn on_message(&mut self, _message: &AclMessage, _ctx: &mut AgentCtx<'_>) {
            self.pongs += 1;
        }
    }

    fn two_agent_platform(pings: usize) -> (Platform, AgentId, AgentId) {
        let mut p = Platform::new("t");
        p.add_container("c1").add_container("c2");
        let ponger = p.spawn("c2", "ponger", Ponger { received: 0 }).unwrap();
        let pinger = p
            .spawn(
                "c1",
                "pinger",
                Pinger {
                    target: ponger.clone(),
                    count: pings,
                    pongs: 0,
                },
            )
            .unwrap();
        (p, pinger, ponger)
    }

    #[test]
    fn messages_round_trip_between_containers() {
        let (mut p, _, _) = two_agent_platform(3);
        let steps = p.run_until_idle(0);
        assert!(steps >= 2, "ping and pong need separate steps");
        // 3 pings delivered + 3 pongs delivered.
        assert_eq!(p.delivered_count(), 6);
        assert!(p.dead_letters().is_empty());
    }

    #[test]
    fn unknown_receiver_dead_letters() {
        let mut p = Platform::new("t");
        p.add_container("c1");
        let msg = AclMessage::builder(Performative::Inform)
            .sender(AgentId::new("outside"))
            .receiver(AgentId::new("ghost@t"))
            .build()
            .unwrap();
        p.post(msg);
        p.step(0);
        assert_eq!(p.dead_letters().len(), 1);
    }

    #[test]
    fn duplicate_agent_and_missing_container_error() {
        let mut p = Platform::new("t");
        p.add_container("c1");
        p.spawn("c1", "a", Ponger { received: 0 }).unwrap();
        assert!(matches!(
            p.spawn("c1", "a", Ponger { received: 0 }),
            Err(PlatformError::DuplicateAgent(_))
        ));
        assert!(matches!(
            p.spawn("nope", "b", Ponger { received: 0 }),
            Err(PlatformError::NoSuchContainer(_))
        ));
    }

    #[test]
    fn suspend_holds_mail_until_resume() {
        let (mut p, _pinger, ponger) = two_agent_platform(2);
        p.suspend(&ponger).unwrap();
        p.step(0); // pings routed into the suspended mailbox
        p.step(0);
        let c2 = p.container("c2").unwrap();
        assert_eq!(c2.pending_messages(), 2);
        p.resume(&ponger).unwrap();
        p.run_until_idle(0);
        assert_eq!(p.container("c2").unwrap().pending_messages(), 0);
    }

    #[test]
    fn kill_agent_dead_letters_future_mail() {
        let (mut p, _, ponger) = two_agent_platform(1);
        p.kill(&ponger).unwrap();
        p.run_until_idle(0);
        assert_eq!(p.dead_letters().len(), 1);
        assert!(p.find_agent(&ponger).is_none());
    }

    #[test]
    fn kill_container_reports_agents_and_cleans_df() {
        let (mut p, _, ponger) = two_agent_platform(1);
        p.df_mut()
            .register_service(ponger.clone(), "analysis", ["x"]);
        let killed = p.kill_container("c2").unwrap();
        assert_eq!(killed, vec![ponger]);
        assert_eq!(p.df().service_count(), 0);
        assert!(p.container("c2").is_none());
    }

    #[test]
    fn migration_preserves_agent_state_and_mail_flow() {
        let (mut p, pinger, ponger) = two_agent_platform(1);
        p.run_until_idle(0);
        // Move the ponger to c1 and ping again via post().
        p.migrate(&ponger, "c1").unwrap();
        assert_eq!(p.find_agent(&ponger), Some("c1"));
        let msg = AclMessage::builder(Performative::Request)
            .sender(pinger.clone())
            .receiver(ponger.clone())
            .content(Value::symbol("ping"))
            .build()
            .unwrap();
        p.post(msg);
        p.run_until_idle(1);
        // 1 ping + 1 pong before migration, 1 ping + 1 pong after.
        assert_eq!(p.delivered_count(), 4);
    }

    #[test]
    fn migrate_errors_are_reported() {
        let (mut p, _, ponger) = two_agent_platform(1);
        assert!(matches!(
            p.migrate(&ponger, "nope"),
            Err(PlatformError::NoSuchContainer(_))
        ));
        assert!(matches!(
            p.migrate(&AgentId::new("ghost@t"), "c1"),
            Err(PlatformError::NoSuchAgent(_))
        ));
    }

    #[test]
    fn drop_to_fault_suppresses_delivery() {
        let (mut p, _, ponger) = two_agent_platform(2);
        p.set_fault(TransportFault::DropTo(ponger.clone()));
        p.run_until_idle(0);
        assert_eq!(p.delivered_count(), 0);
        assert!(
            p.dead_letters().is_empty(),
            "drops are silent, not dead-lettered"
        );
        p.set_fault(TransportFault::None);
    }

    #[test]
    fn drop_from_fault_suppresses_sender() {
        let (mut p, pinger, _) = two_agent_platform(2);
        p.set_fault(TransportFault::DropFrom(pinger.clone()));
        p.run_until_idle(0);
        assert_eq!(p.delivered_count(), 0);
    }

    #[test]
    fn spawn_runs_setup_immediately() {
        let mut p = Platform::new("t");
        p.add_container("c1");
        // A pinger's setup queues messages even before any step.
        p.spawn(
            "c1",
            "pinger",
            Pinger {
                target: AgentId::new("nobody@t"),
                count: 2,
                pongs: 0,
            },
        )
        .unwrap();
        p.step(0);
        assert_eq!(p.dead_letters().len(), 2);
    }

    #[test]
    fn multicast_shares_one_allocation() {
        let mut p = Platform::new("t");
        p.add_container("c");
        let msg = AclMessage::builder(Performative::Inform)
            .sender(AgentId::new("outside"))
            .receiver(AgentId::new("ghost1@t"))
            .receiver(AgentId::new("ghost2@t"))
            .build()
            .unwrap();
        p.post(msg);
        p.step(0);
        // Both dead-letter entries point at the same allocation: routing
        // multicasts by bumping the refcount, not by deep-cloning.
        let letters = p.dead_letters();
        assert_eq!(letters.len(), 2);
        assert!(std::sync::Arc::ptr_eq(&letters[0], &letters[1]));
    }

    #[test]
    fn multicast_reaches_every_receiver() {
        let mut p = Platform::new("t");
        p.add_container("c");
        p.spawn("c", "a", Ponger { received: 0 }).unwrap();
        p.spawn("c", "b", Ponger { received: 0 }).unwrap();
        let msg = AclMessage::builder(Performative::Inform)
            .sender(AgentId::new("outside"))
            .receiver(AgentId::new("a@t"))
            .receiver(AgentId::new("b@t"))
            .build()
            .unwrap();
        p.post(msg);
        p.step(0);
        assert_eq!(p.delivered_count(), 2);

        // A ghost among the receivers dead-letters exactly once and
        // leaves delivery to the live residents untouched.
        let msg = AclMessage::builder(Performative::Inform)
            .sender(AgentId::new("outside"))
            .receiver(AgentId::new("a@t"))
            .receiver(AgentId::new("b@t"))
            .receiver(AgentId::new("ghost@t"))
            .build()
            .unwrap();
        p.post(msg);
        p.step(0);
        assert_eq!(p.delivered_count(), 4, "each live receiver hears it once");
        assert_eq!(p.dead_letters().len(), 1);
        assert_eq!(p.dead_letters()[0].receivers().len(), 3);
    }
}
