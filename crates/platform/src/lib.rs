//! Agent platform for `agentgrid` — the AgentLight/FIPA substitute.
//!
//! The paper builds its grids on AgentLight, a FIPA-compliant platform of
//! "small agents" (§2). This crate provides the equivalent runtime:
//!
//! * an [`Agent`] trait with lifecycle callbacks (`setup`, `on_message`,
//!   `on_tick`) and an [`AgentCtx`] handle for sending messages, reading
//!   the clock and querying the directory;
//! * [`Container`]s that host agents (the paper's unit of grid
//!   membership and load distribution);
//! * a [`Platform`] that steps containers deterministically, routes
//!   [`AclMessage`]s between them, and offers an AMS (agent lifecycle)
//!   and a [`DirectoryFacilitator`] holding per-container
//!   [`ResourceProfile`]s (Fig. 4);
//! * **mobility**: [`Platform::migrate`] moves a live agent (with its
//!   state) between containers — the paper's future-work item on
//!   migrating analysis activities;
//! * failure injection: containers can be killed and messages dropped,
//!   so fault-tolerance behaviour is testable.
//!
//! The default platform is *synchronous and deterministic*: `step(now_ms)`
//! delivers all in-flight messages, then ticks every agent, in name
//! order. Determinism makes grid behaviour reproducible in tests and
//! benchmarks; the wall-clock performance dimension is measured
//! separately on `agentgrid-des`. For the same stepper with a parallel
//! tick phase see [`pool`], and for driver code that should run on
//! either execution model, the [`runtime::Runtime`] trait.
//!
//! # Examples
//!
//! ```
//! use agentgrid_acl::{AclMessage, AgentId, Performative, Value};
//! use agentgrid_platform::{Agent, AgentCtx, Platform};
//!
//! struct Echo;
//! impl Agent for Echo {
//!     fn on_message(&mut self, msg: &AclMessage, ctx: &mut AgentCtx<'_>) {
//!         ctx.send(msg.reply(Performative::Inform, Value::symbol("echoed")));
//!     }
//! }
//!
//! struct Caller { heard: bool }
//! impl Agent for Caller {
//!     fn setup(&mut self, ctx: &mut AgentCtx<'_>) {
//!         let msg = AclMessage::builder(Performative::Request)
//!             .sender(ctx.self_id().clone())
//!             .receiver(AgentId::new("echo@main"))
//!             .build()
//!             .unwrap();
//!         ctx.send(msg);
//!     }
//!     fn on_message(&mut self, _msg: &AclMessage, _ctx: &mut AgentCtx<'_>) {
//!         self.heard = true;
//!     }
//! }
//!
//! let mut platform = Platform::new("main");
//! platform.add_container("main");
//! platform.spawn("main", "echo", Echo).unwrap();
//! platform.spawn("main", "caller", Caller { heard: false }).unwrap();
//! platform.run_until_idle(0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod agent;
mod container;
mod delivery;
mod df;
pub mod net;
pub mod overload;
mod platform;
pub mod pool;
pub mod runtime;

pub use agent::{Agent, AgentCtx, AgentState};
pub use agentgrid_acl::ontology::ResourceProfile;
pub use container::Container;
pub use df::{window_load, DirectoryFacilitator, ServiceEntry, RECORDS_PER_WINDOW};
pub use net::{LinkFaults, LinkSelector, NetCommand, NetStats, ReliabilityConfig, Window};
pub use overload::{MailboxConfig, MessageClass, OverloadStats, PressureSignal};
pub use platform::{Platform, PlatformError};
pub use pool::PoolRuntime;
pub use runtime::{Runtime, TransportFault};

// Telemetry surface, re-exported so runtime users attach sinks without
// naming the telemetry crate.
pub use agentgrid_telemetry::{ContainerScope, ContainerStats, Telemetry, TelemetryHandle};

// Re-exported so platform users need not depend on the acl crate
// explicitly for the common types.
pub use agentgrid_acl::{AclMessage, AgentId, Performative, SharedMessage, Value};
