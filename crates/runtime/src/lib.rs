//! # grouter-runtime
//!
//! The serverless inference platform the paper builds on (INFless-style):
//! workflow DAGs of CPU and GPU functions, MAPA-style placement,
//! time-multiplexed GPU execution, request queues, pre-warming, and SLO
//! accounting — everything the data plane needs from its host system
//! (`DESIGN.md` §2).
//!
//! * [`spec`] — workflow/stage descriptions (sequence, condition, fan-in,
//!   fan-out patterns of Fig. 12).
//! * [`placement`] — function → GPU/CPU placement policies.
//! * [`dataplane`] — the [`dataplane::DataPlane`] trait every data plane
//!   (GROUTER and the baselines) implements, plus the operation types the
//!   executor runs.
//! * [`metrics`] — per-instance latency breakdowns (compute vs gFn–gFn vs
//!   gFn–host data passing, Fig. 3) and aggregate summaries.
//! * [`world`] — cluster state: topology, flow network, pools, matrices,
//!   GPU/CPU occupancy.
//! * [`exec`] — the event-driven executor tying it all together.

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

pub mod cluster;
pub mod dataplane;
pub mod exec;
pub mod fault;
pub mod metrics;
pub mod placement;
pub mod simple_plane;
pub mod slab;
pub mod spec;
pub mod stream;
pub mod world;

pub use cluster::{
    ArrivalSource, ClusterArrival, ClusterPort, ClusterSim, CrossMsg, GroupSetup, Heartbeat,
    HeartbeatConfig, RouterAgent,
};
pub use dataplane::{DataOp, DataPlane, Destination, LegHealth, LegHolds, OpLeg, PlaneCtx, PutOp};
pub use exec::{Event, Runtime};
pub use fault::{FaultState, RecoveryEvent};
pub use metrics::{InstanceRecord, Metrics, PassCategory};
pub use placement::{mapa_scan, pin_decode, PlacementPolicy, Placer};
pub use slab::NvFlowIndex;
pub use spec::{StageKind, StageSpec, WorkflowSpec};
pub use stream::TokenStream;
pub use world::World;
