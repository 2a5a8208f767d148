//! # grouter-transfer
//!
//! GROUTER's *efficient parallel data transfers* (paper §4.3): the machinery
//! that turns "move N bytes from A to B" into a set of concurrent flows over
//! NVLink, PCIe and NIC links.
//!
//! * [`chunk`] — capacity-proportional byte shares across heterogeneous
//!   paths (§4.3.3).
//! * [`rate`] — SLO-aware transfer rate control: `Rate_least =
//!   size / (L_slo − L_infer)`, idle-bandwidth assignment to the tightest
//!   SLO (§4.3.2).
//! * [`pipeline`] — the batched chunk-admission discipline on one link:
//!   the fairness-vs-overhead trade-off behind the 5-chunk batch default.
//! * [`plan`] — transfer planning for every data-passing pattern: parallel
//!   PCIe staging via route GPUs, parallel NIC fan-out/fan-in, the parallel
//!   NVLink paths Algorithm 1 reserved in a node's
//!   [`grouter_topology::PathLedger`], plus the degraded single-path
//!   variants the baselines use.
//! * [`exec`] — the transfer engine: starts a plan's flows on the
//!   [`grouter_sim::FlowNet`], tracks completions and cancellations, and
//!   answers which in-flight transfers route through a GPU.

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

pub mod chunk;
pub mod exec;
pub mod pipeline;
pub mod plan;
pub mod rate;

pub use exec::{TransferDone, TransferEngine, TransferId};
pub use pipeline::{BatchPipeline, Completion, Offered};
pub use plan::{PlanConfig, PlannedFlow, TransferPlan};
pub use rate::{rate_least, rate_least_typed, RateController, RateLeast, SloSpec};
