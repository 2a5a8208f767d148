//! # grouter-topology
//!
//! Models of the GPU server/cluster interconnects the paper evaluates on,
//! plus the graph algorithms GROUTER's transfer scheduler relies on:
//!
//! * [`graph`] — the [`graph::Topology`] type: nodes × GPUs with NVLink,
//!   PCIe (switches + host uplinks), NIC and host-memory links, all realised
//!   as [`grouter_sim::FlowNet`] links so concurrent transfers contend
//!   realistically.
//! * [`presets`] — the paper's testbeds: DGX-V100 (asymmetric hybrid cube
//!   mesh, Fig. 6), DGX-A100 (NVSwitch), 4×A10 (no NVLink, Fig. 20a) and
//!   8×H800 (LLM experiment, §6.4).
//! * [`paths`] — simple-path enumeration over the NVLink graph and
//!   **Algorithm 1** (contention-aware parallel path selection).
//! * [`bwmatrix`] — the global bandwidth-usage matrix `BW(g, b)` that
//!   Algorithm 1 reads and updates (§4.3.3).

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

pub mod bwmatrix;
pub mod cache;
pub mod graph;
pub mod ledger;
pub mod paths;
pub mod presets;

pub use bwmatrix::BwMatrix;
pub use cache::{CacheStats, CachedPaths, PathCache, PathSelector};
pub use graph::{GpuRef, Topology, TopologyKind};
pub use ledger::{PathLedger, Rebalance, ResId};
pub use paths::{
    check_endpoints, enumerate_paths, select_parallel_paths, try_enumerate_paths, BadEndpoints,
    NvPath, PathSelection,
};
