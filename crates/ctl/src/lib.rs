//! Service-mode control plane (`grouter-ctl`).
//!
//! The cluster runtime (`grouter_runtime::cluster`) provides the
//! *mechanism* of service mode: worker heartbeats riding the sharded
//! frontend fabric, router-side drop budgets, and a [`RouterAgent`] hook
//! consulted on every admitted request. This crate provides the *policy*:
//!
//! * [`HeartbeatRouter`] — the heartbeat-view scheduler. Its entire
//!   knowledge of the cluster is the last surviving snapshot per group
//!   plus its own routing history; between beats the view is stale by
//!   construction, and a classic 3×-interval failure detector marks silent
//!   busy groups suspect ([`grouter_sim::params::HEARTBEAT_SUSPECT_FACTOR`]).
//! * [`ServiceSim`] — a [`grouter_runtime::ClusterSim`] wired for service
//!   mode: one open-loop stream entering at the router group, heartbeat
//!   daemons on every group, optional randomized control-plane faults
//!   ([`grouter_sim::fault::FaultPlan::randomized_ctl`]).
//!
//! Everything here runs inside the router group's deterministic event
//! dispatch: same seed ⇒ byte-identical admission log, metrics CSV and
//! recovery log on 1, 2 or 8 worker threads (pinned by the golden and
//! sharded suites).

// No panics or prints in data-plane code; exceptions are `#[expect]`s (DESIGN §5.3).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::print_stdout,
        clippy::print_stderr,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason
    )
)]

pub mod admission;
pub mod router;
pub mod service;

pub use admission::{admit, pick_group, Admission, DecodeBudget, DecodeView};
pub use router::HeartbeatRouter;
pub use service::{ServiceConfig, ServiceSim};
