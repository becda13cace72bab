//! `agentgrid` — grids of agents for computer and telecommunication
//! network management.
//!
//! This crate is a faithful, executable reproduction of the architecture
//! proposed by Assunção, Westphall and Koch (Middleware 2003): a network
//! management system decomposed into four cooperating **grids of
//! agents** — collectors, classifiers, processors and interfaces —
//! replacing the classic centralized manager.
//!
//! The main entry points:
//!
//! * [`grid::ManagementGrid`] — the live system (paper Fig. 2): point it
//!   at a simulated [`Network`](agentgrid_net::Network), configure
//!   analyzer containers, run simulated time, get alerts and reports;
//! * [`costmodel`] — Table 1, the relative task costs of the evaluation;
//! * [`scenario`] — the three architectures of Figure 6 as
//!   discrete-event simulations (centralized / multi-agent / agent grid);
//! * [`balance`] — the load-balancing policies of §3.5 plus ablation
//!   baselines and a contract-net variant;
//! * [`broker`] — the Fig. 3 task-division broker;
//! * [`mobility`] — agent migration driven rebalancing (the paper's
//!   future-work item);
//! * [`workflow`] — the traditional management workflow of Fig. 1 as an
//!   executable pipeline;
//! * [`recovery`] — heartbeat liveness, retry/backoff and re-brokering
//!   policies (always on; tuned via [`grid::GridBuilder::recovery`]);
//! * [`chaos`] — seeded, simulated-time chaos schedules for recovery
//!   testing ([`grid::GridBuilder::chaos`]);
//! * [`overload`] — bounded mailboxes, priority shedding, admission
//!   control, circuit breakers and collector pacing (opt-in via
//!   [`grid::GridBuilder::overload`]);
//! * [`federation`] — the inter-grid protocol behind domain-partitioned
//!   peer shards: spill-over brokering and cross-domain finding
//!   summaries (opt-in via [`grid::GridBuilder::shards`]).
//!
//! # Quickstart
//!
//! ```
//! use agentgrid::grid::ManagementGrid;
//! use agentgrid_net::{Device, DeviceKind, Network};
//!
//! let mut network = Network::new();
//! network.add_device(Device::builder("r1", DeviceKind::Router).site("hq").seed(7).build());
//! network.add_device(Device::builder("s1", DeviceKind::Server).site("hq").seed(8).build());
//!
//! let mut grid = ManagementGrid::builder()
//!     .network(network)
//!     .analyzer("pg-1", 1.0, ["cpu", "memory", "disk", "interface",
//!                             "process", "system", "other", "correlation"])
//!     .build();
//! let report = grid.run(5 * 60_000, 60_000); // five minutes, 1-minute ticks
//! assert!(report.records_stored > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod balance;
pub mod broker;
pub mod chaos;
pub mod costmodel;
pub mod federation;
pub mod grid;
pub mod mobility;
pub mod overload;
pub mod recovery;
pub mod scenario;
pub mod workflow;

pub use agentgrid_acl::ontology;
pub use chaos::{ChaosAction, ChaosPlan};
pub use costmodel::{CostModel, RequestType, TaskCost, TaskKind};
pub use grid::{GridReport, ManagementGrid};
pub use overload::{
    AdmissionConfig, BreakerConfig, MailboxConfig, MessageClass, OverflowPolicy, OverloadConfig,
};
pub use recovery::{BackoffPolicy, Liveness, LivenessConfig, RecoveryConfig};
pub use scenario::{Architecture, Workload};
