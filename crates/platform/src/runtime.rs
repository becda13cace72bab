//! The [`Runtime`] abstraction: one wiring, two execution models.
//!
//! Everything above the platform layer (the management grids, baselines,
//! benchmarks) builds scenarios out of the same four verbs — create
//! containers, spawn agents, register directory entries, post messages —
//! and then drives the system to quiescence at successive simulated
//! times. [`Runtime`] captures exactly that surface, so scenario code
//! written once runs on either execution model:
//!
//! * [`Platform`] — the deterministic single-threaded stepper; name-order
//!   iteration makes runs exactly reproducible.
//! * [`PoolRuntime`](crate::PoolRuntime) — the stepper with a
//!   work-stealing parallel tick phase; its outboxes merge in
//!   container-name order, so its runs are byte-identical to the
//!   stepper's.
//!
//! Agent code ([`Agent`] impls) is identical on both; only the driver
//! changes. Delivery guarantees shared by both runtimes:
//!
//! * every reachable receiver of a multicast gets the message **exactly
//!   once**, and all receivers observe the **same shared allocation**
//!   ([`SharedMessage`]) — fan-out never deep-clones content;
//! * each unreachable receiver produces exactly one dead letter;
//! * messages between one (sender, receiver) pair stay in order.
//!
//! # Examples
//!
//! ```
//! use agentgrid_platform::runtime::Runtime;
//! use agentgrid_platform::{Agent, Platform, PoolRuntime};
//!
//! struct Noop;
//! impl Agent for Noop {}
//!
//! fn build<R: Runtime>() -> R {
//!     let mut rt = R::create("grid");
//!     rt.add_container("c1");
//!     rt.spawn_agent("c1", "a", Noop).unwrap();
//!     rt
//! }
//!
//! let mut deterministic: Platform = build();
//! deterministic.run_until_idle(0);
//! let mut pool: PoolRuntime = build();
//! pool.run_until_idle(0);
//! ```

use std::sync::Arc;

use agentgrid_acl::{AgentId, SharedMessage};
use agentgrid_telemetry::TelemetryHandle;

use crate::agent::Agent;
use crate::net::{NetCommand, NetStats};
use crate::overload::{MailboxConfig, OverloadStats, PressureSignal};
use crate::{DirectoryFacilitator, Platform, PlatformError, TransportFault};

/// Common driver surface of the deterministic and pool runtimes.
///
/// See the [module docs](self) for the contract. The trait is not object
/// safe (it has constructor and generic methods); use it as a static
/// bound: `fn scenario<R: Runtime>(rt: &mut R)`.
pub trait Runtime {
    /// Creates an empty runtime; `name` becomes the `@platform` suffix
    /// of spawned agent ids.
    fn create(name: &str) -> Self
    where
        Self: Sized;

    /// Adds an empty container.
    ///
    /// # Panics
    ///
    /// Panics if the container already exists.
    fn add_container(&mut self, name: &str);

    /// Spawns an agent into a container under `local_name`.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError`] for unknown containers or duplicate agent
    /// names.
    fn spawn_agent(
        &mut self,
        container: &str,
        local_name: &str,
        agent: impl Agent + 'static,
    ) -> Result<AgentId, PlatformError>
    where
        Self: Sized;

    /// Runs `f` with exclusive access to the directory facilitator.
    fn with_df<T>(&mut self, f: impl FnOnce(&mut DirectoryFacilitator) -> T) -> T
    where
        Self: Sized;

    /// Sends a message from outside any agent.
    fn post(&mut self, message: impl Into<SharedMessage>)
    where
        Self: Sized;

    /// Advances the clock to `now_ms` and drives the runtime until no
    /// message is queued or being processed. Returns how many
    /// delivery/tick rounds it took.
    fn run_until_idle(&mut self, now_ms: u64) -> usize;

    /// Total messages delivered to agents so far.
    fn delivered_count(&self) -> u64;

    /// Messages that could not be delivered so far (one per unreachable
    /// receiver).
    fn dead_letter_count(&self) -> usize;

    /// Number of containers.
    fn container_count(&self) -> usize;

    /// Removes a container abruptly but **orderly**: its agents'
    /// services and its resource profile leave the directory, so the
    /// rest of the grid observes the departure immediately. Returns the
    /// killed agents' ids.
    ///
    /// # Errors
    ///
    /// [`PlatformError::NoSuchContainer`] if absent.
    fn kill_container(&mut self, name: &str) -> Result<Vec<AgentId>, PlatformError>;

    /// Removes a container **silently**: the process vanishes but the
    /// directory keeps its stale profile and service entries, exactly as
    /// a real crash would leave them. Only heartbeat-staleness detection
    /// (the recovery layer) notices. Returns the crashed agents' ids.
    ///
    /// # Errors
    ///
    /// [`PlatformError::NoSuchContainer`] if absent.
    fn crash_container_silent(&mut self, name: &str) -> Result<Vec<AgentId>, PlatformError>;

    /// Injects (or clears) a transport fault affecting message routing
    /// from now on; drops are silent (no dead letters), as on a lossy
    /// network.
    fn set_transport_fault(&mut self, fault: TransportFault);

    /// Switches the requeue-once dead-letter policy: an undeliverable
    /// message is narrowed to its failed receiver and retried once on
    /// the next clock advance before dead-lettering for real. Off by
    /// default.
    fn set_dead_letter_requeue(&mut self, enabled: bool);

    /// Attaches a telemetry sink: counters, conversation traces and
    /// per-container resource profiles record into it from then on.
    fn set_telemetry(&mut self, telemetry: TelemetryHandle);

    /// The attached telemetry sink, if any.
    fn telemetry(&self) -> Option<TelemetryHandle>;

    /// Enables bounded per-container mailboxes with the given overflow
    /// policy (see [`MailboxConfig`]). The capacity is a per-container
    /// delivery budget per clock window, so shed/deferred totals depend
    /// only on the simulated clock, never on scheduling. Off by default
    /// (today's unbounded behaviour).
    fn set_overload(&mut self, config: MailboxConfig, pressure: Option<Arc<PressureSignal>>);

    /// Overload counters (shed per class, deferrals, peak backlog);
    /// `None` unless [`set_overload`](Runtime::set_overload) was called.
    fn overload_stats(&self) -> Option<OverloadStats>;

    /// Declares a container's agents independent of the shared
    /// directory/store cluster, so a runtime with a parallel tick phase
    /// (the [`pool`](crate::pool) runtime) may execute it on a worker
    /// thread. Purely a hint: runtimes without such a phase ignore it,
    /// and it is safe to call before the container exists.
    fn hint_parallel(&mut self, container: &str) {
        let _ = container;
    }

    /// Declares a container part of a named **parallel group**: the
    /// group's containers depend on each other (a federated shard's
    /// root, classifier and analyzers share load/liveness state through
    /// the directory) but on nothing outside the group, so a runtime
    /// with a parallel tick phase may execute the whole group — ticked
    /// internally in container-name order — on one worker thread,
    /// concurrently with other groups and with
    /// [`hint_parallel`](Runtime::hint_parallel)ed containers. Purely a
    /// hint: runtimes without such a phase ignore it, and it is safe to
    /// call before the container exists.
    fn hint_parallel_group(&mut self, group: &str, container: &str) {
        let _ = (group, container);
    }

    /// Applies one command against the network layer (composable fault
    /// windows, per-link faults, partitions, reliability — see
    /// [`net`](crate::net)). Default: ignored, for runtimes without a
    /// network layer.
    fn net_command(&mut self, command: NetCommand) {
        let _ = command;
    }

    /// Counters of the network adversary/reliability layer; `None`
    /// while untouched (or unsupported by the runtime).
    fn net_stats(&self) -> Option<NetStats> {
        None
    }
}

impl Runtime for Platform {
    fn create(name: &str) -> Self {
        Platform::new(name)
    }

    fn add_container(&mut self, name: &str) {
        Platform::add_container(self, name);
    }

    fn spawn_agent(
        &mut self,
        container: &str,
        local_name: &str,
        agent: impl Agent + 'static,
    ) -> Result<AgentId, PlatformError> {
        self.spawn(container, local_name, agent)
    }

    fn with_df<T>(&mut self, f: impl FnOnce(&mut DirectoryFacilitator) -> T) -> T {
        f(self.df_mut())
    }

    fn post(&mut self, message: impl Into<SharedMessage>) {
        Platform::post(self, message);
    }

    fn run_until_idle(&mut self, now_ms: u64) -> usize {
        Platform::run_until_idle(self, now_ms)
    }

    fn delivered_count(&self) -> u64 {
        Platform::delivered_count(self)
    }

    fn dead_letter_count(&self) -> usize {
        self.dead_letters().len()
    }

    fn container_count(&self) -> usize {
        self.container_names().count()
    }

    fn kill_container(&mut self, name: &str) -> Result<Vec<AgentId>, PlatformError> {
        Platform::kill_container(self, name)
    }

    fn crash_container_silent(&mut self, name: &str) -> Result<Vec<AgentId>, PlatformError> {
        Platform::crash_container_silent(self, name)
    }

    fn set_transport_fault(&mut self, fault: TransportFault) {
        Platform::set_fault(self, fault);
    }

    fn set_dead_letter_requeue(&mut self, enabled: bool) {
        Platform::set_dead_letter_requeue(self, enabled);
    }

    fn set_telemetry(&mut self, telemetry: TelemetryHandle) {
        Platform::set_telemetry(self, telemetry);
    }

    fn telemetry(&self) -> Option<TelemetryHandle> {
        Platform::telemetry(self)
    }

    fn set_overload(&mut self, config: MailboxConfig, pressure: Option<Arc<PressureSignal>>) {
        Platform::set_overload(self, config, pressure);
    }

    fn overload_stats(&self) -> Option<OverloadStats> {
        Platform::overload_stats(self)
    }

    fn net_command(&mut self, command: NetCommand) {
        Platform::net_command(self, command);
    }

    fn net_stats(&self) -> Option<NetStats> {
        Platform::net_stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AgentCtx, PoolRuntime};
    use agentgrid_acl::{AclMessage, Performative, Value};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    struct Counter {
        hits: Arc<AtomicUsize>,
    }

    impl Agent for Counter {
        fn on_message(&mut self, _msg: &AclMessage, _ctx: &mut AgentCtx<'_>) {
            self.hits.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn ping(to: AgentId) -> AclMessage {
        AclMessage::builder(Performative::Request)
            .sender(AgentId::new("driver"))
            .receiver(to)
            .content(Value::symbol("ping"))
            .build()
            .unwrap()
    }

    /// The same generic scenario body, run against both runtimes.
    fn scenario<R: Runtime>(hits: &Arc<AtomicUsize>) -> R {
        let mut rt = R::create("x");
        rt.add_container("c1");
        rt.spawn_agent(
            "c1",
            "counter",
            Counter {
                hits: Arc::clone(hits),
            },
        )
        .unwrap();
        rt.with_df(|df| {
            df.register_service(AgentId::with_platform("counter", "x"), "count", ["n"])
        });
        rt.post(ping(AgentId::with_platform("counter", "x")));
        rt.run_until_idle(0);
        rt
    }

    #[test]
    fn one_scenario_runs_on_both_runtimes() {
        fn check<R: Runtime>() {
            let hits = Arc::new(AtomicUsize::new(0));
            let rt: R = scenario(&hits);
            assert_eq!(hits.load(Ordering::SeqCst), 1);
            assert_eq!(rt.delivered_count(), 1);
            assert_eq!(rt.dead_letter_count(), 0);
        }
        check::<Platform>();
        check::<PoolRuntime>();
    }

    #[test]
    fn silent_crash_keeps_directory_entries_on_both_runtimes() {
        fn scenario<R: Runtime>() -> (usize, usize) {
            let mut rt = R::create("x");
            rt.add_container("c1");
            let id = rt
                .spawn_agent(
                    "c1",
                    "victim",
                    Counter {
                        hits: Arc::new(AtomicUsize::new(0)),
                    },
                )
                .unwrap();
            rt.with_df(|df| {
                df.register_service(id.clone(), "analysis", ["c1"]);
                df.register_container(crate::ResourceProfile::new("c1", 1.0, 1.0, 64, ["cpu"]));
            });
            rt.run_until_idle(0);
            rt.crash_container_silent("c1").unwrap();
            let stale = rt.with_df(|df| (df.service_count(), df.container_profiles().count()));
            (stale.0, stale.1)
        }
        assert_eq!(scenario::<Platform>(), (1, 1), "crash leaves stale entries");
        assert_eq!(scenario::<PoolRuntime>(), (1, 1));
    }
}
