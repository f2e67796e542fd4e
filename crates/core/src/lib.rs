//! # iat — I/O-Aware LLC Management
//!
//! A faithful implementation of **IAT**, the mechanism of *"Don't Forget
//! the I/O When Allocating Your LLC"* (ISCA 2021): the first LLC manager
//! that treats I/O (DDIO) as a first-class citizen.
//!
//! IAT runs as a periodic daemon. Each iteration executes the paper's six
//! steps (Fig. 5):
//!
//! 1. **Get Tenant Info** — learn each tenant's cores, priority
//!    (performance-critical vs. best-effort vs. the software stack) and
//!    whether it is an I/O workload ([`LlcPolicy::set_tenants`]);
//! 2. **LLC Alloc** — program the initial CAT layout;
//! 3. **Poll Prof Data** — read IPC, LLC reference/miss per tenant and
//!    chip-wide DDIO hit/miss from the performance counters;
//! 4. **State Transition** — drive the five-state Mealy FSM of Fig. 6
//!    ([`State`], [`fsm::next_state`]);
//! 5. **LLC Re-alloc** — grow/shrink DDIO's or a tenant's ways one way per
//!    iteration and *shuffle* tenant ranges so the least cache-hungry
//!    best-effort tenants absorb any unavoidable overlap with DDIO's ways;
//! 6. **Sleep** — wait out the polling interval.
//!
//! The daemon only observes the system through [`iat_perf`] counters and
//! only acts through the [`iat_rdt`] register file, exactly like the
//! paper's user-space `pqos`-based implementation.
//!
//! Baselines from the paper's evaluation — static CAT, *Core-only* and
//! *I/O-iso* — are provided in [`policies`] behind the common
//! [`LlcPolicy`] trait; Core-only and I/O-iso are expressed as feature
//! flags over the same engine ([`IatFlags`]), matching how the paper
//! constructs them ("disabling the I/O Demand state and LLC shuffling").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod daemon;
pub mod fsm;
pub mod layout;
pub mod policies;
mod tenant_info;
mod trend;

pub use config::IatConfig;
pub use daemon::{Action, IatDaemon, IatFlags, StepReport};
pub use fsm::State;
pub use layout::{LayoutPlanner, Placement, PlanInput};
pub use policies::{LlcPolicy, StaticCat};
pub use tenant_info::{Priority, TenantInfo};
pub use trend::Trend;
