//! # GROUTER — a GPU-centric data plane for serverless inference workflows
//!
//! Rust reproduction of *"Efficient Data Passing for Serverless Inference
//! Workflows: A GPU-Centric Approach"* (EuroSys '26). The paper's testbeds
//! (DGX-V100/A100, 4×A10, 8×H800) are replaced by a deterministic
//! flow-level cluster simulator (see `DESIGN.md`); everything above the
//! hardware — the unified Put/Get framework, bandwidth harvesting,
//! Algorithm 1 topology-aware scheduling, and elastic GPU storage — is
//! implemented faithfully.
//!
//! ## Crate map
//!
//! * [`GrouterPlane`] / [`GrouterConfig`] — the contribution: the data
//!   plane with its four components and their ablation switches.
//! * [`runtime`] (re-export) — the serverless platform substrate.
//! * [`topology`], [`sim`], [`mem`], [`transfer`], [`store`] — the
//!   subsystems, re-exported for convenience.
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use grouter::{grouter_runtime_on, GrouterConfig};
//! use grouter::runtime::spec::{StageSpec, WorkflowSpec};
//! use grouter::sim::time::{SimDuration, SimTime};
//! use grouter::topology::presets;
//!
//! // A two-stage GPU workflow on one DGX-V100 node.
//! let mut wf = WorkflowSpec::new("demo", 4e6);
//! let det = wf.push(StageSpec::gpu(
//!     "detect", vec![], SimDuration::from_millis(20), 16e6, 1e9,
//! ));
//! wf.push(StageSpec::gpu(
//!     "classify", vec![det], SimDuration::from_millis(10), 1e6, 1e9,
//! ));
//!
//! let mut rt = grouter_runtime_on(presets::dgx_v100(), 1, GrouterConfig::full());
//! rt.submit(Arc::new(wf), SimTime::ZERO);
//! rt.run();
//!
//! let metrics = rt.metrics();
//! assert_eq!(metrics.completed(), 1);
//! // GROUTER keeps data passing well below compute for this workflow.
//! let rec = &metrics.records()[0];
//! assert!(rec.passing_total() < rec.compute);
//! ```

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

pub mod config;
pub mod plane;
pub mod prelude;

pub use config::GrouterConfig;
pub use plane::GrouterPlane;

// Re-export the subsystem crates under stable names so downstream users
// depend on `grouter` alone.
pub use grouter_mem as mem;
pub use grouter_runtime as runtime;
pub use grouter_sim as sim;
pub use grouter_store as store;
pub use grouter_topology as topology;
pub use grouter_transfer as transfer;

use grouter_runtime::world::RuntimeConfig;
use grouter_runtime::Runtime;
use grouter_topology::graph::TopologySpec;

/// Build a [`Runtime`] with a GROUTER data plane on `num_nodes` copies of
/// `spec`, using default platform settings (MAPA placement, pre-warming,
/// elastic pools).
pub fn grouter_runtime_on(spec: TopologySpec, num_nodes: usize, cfg: GrouterConfig) -> Runtime {
    Runtime::new(
        spec,
        num_nodes,
        Box::new(GrouterPlane::new(cfg)),
        RuntimeConfig::default(),
    )
}

/// Same as [`grouter_runtime_on`] with explicit platform configuration.
pub fn grouter_runtime_with(
    spec: TopologySpec,
    num_nodes: usize,
    cfg: GrouterConfig,
    runtime_cfg: RuntimeConfig,
) -> Runtime {
    Runtime::new(
        spec,
        num_nodes,
        Box::new(GrouterPlane::new(cfg)),
        runtime_cfg,
    )
}
