//! # grouter-sim
//!
//! Deterministic discrete-event simulation substrate used by the GROUTER
//! reproduction.
//!
//! The paper evaluates GROUTER on real DGX-class GPU servers; this crate is the
//! hardware substitute (see `DESIGN.md` §2). It provides:
//!
//! * [`time`] — integer-nanosecond simulated clock types.
//! * [`engine`] — a generic event queue / scheduler with deterministic
//!   tie-breaking.
//! * [`flownet`] — a flow-level network model: transfers are flows over link
//!   paths, and bandwidth is shared with max-min fairness honouring per-flow
//!   rate floors (SLO guarantees) and caps (rate limiting). Allocation is
//!   incremental and scoped to contention components.
//! * [`flownet_ref`] — the full-recompute reference allocator, kept as the
//!   property-test oracle and benchmark baseline for [`flownet`].
//! * [`fault`] — seed-replayable fault-injection plans scheduled into the
//!   event queue (link flaps, NIC failures, GPU losses).
//! * [`stats`] — streaming percentiles, histograms and time series used by the
//!   elastic-storage policies and the experiment harness.
//! * [`table`] — a windowed table over ids from a monotone counter: O(1)
//!   lookup, id-ordered iteration, sized by the live ids' span.
//! * [`rng`] — seeded deterministic random number helpers.
//! * [`shard`] — a conservative parallel engine: many [`engine`] timelines
//!   advanced in safe windows bounded by a cross-shard lookahead, with
//!   deterministic `(timestamp, shard, sequence)` message delivery.
//! * [`params`] — the single calibration table for all hardware constants.
//!
//! Everything in this crate is fully deterministic: two runs with the same
//! seed produce bit-identical event orders — including sharded runs, where
//! the result is additionally independent of the worker thread count.

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

pub mod engine;
pub mod fault;
pub mod flownet;
pub mod flownet_ref;
pub mod fxhash;
pub mod params;
pub mod rng;
pub mod shard;
pub mod stats;
pub mod table;
pub mod time;

pub use engine::{EventWorld, Scheduler, Simulation};
pub use fault::{FaultDomain, FaultEvent, FaultKind, FaultPlan, FaultPlanConfig};
pub use flownet::{FlowId, FlowNet, FlowNetError, FlowOptions, LinkId, LinkPath, PathTooLong};
pub use flownet_ref::ReferenceNet;
pub use fxhash::{FxHashMap, FxHashSet};
pub use shard::{Envelope, RunStats, ShardWorld, ShardedEngine};
pub use time::{SimDuration, SimTime};
