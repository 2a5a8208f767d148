//! # grouter-baselines
//!
//! The comparator data planes the paper evaluates against (§6
//! "Baselines"), over the same simulated cluster:
//!
//! * [`infless::InflessPlane`] — **INFless+**: host-centric data passing.
//!   Every intermediate object is serialised into a host-side shared-memory
//!   store; every gFn hop costs serialise + PCIe down + PCIe up +
//!   deserialise (Fig. 2a).
//! * [`nvshmem::nvshmem_plane`] — **NVSHMEM+**: a GPU-side store that is
//!   blind to function placement: objects land on a *random* GPU of the
//!   producer's node, transfers use a single path, cross-node data is
//!   relayed store-to-store over one NIC (Fig. 4), and eviction is LRU.
//! * [`deepplan::deepplan_plane`] — **DeepPlan+**: NVSHMEM+ plus
//!   storage-driven parallel PCIe for gFn–host transfers, without topology
//!   awareness (route GPUs may share switches and lack NVLink).
//! * [`mooncake::mooncake_plane`] — **Mooncake+**: a KV-cache-centric store
//!   for the LLM experiment (§6.4): per-node cache GPU, no placement
//!   awareness, and one NIC per tensor-parallel rank.
//!
//! The last three are configurations of one placement-blind GPU store,
//! [`grouter_runtime::simple_plane::StorePlane`]; INFless+ is its own
//! [`grouter_runtime::DataPlane`].

pub mod deepplan;
pub mod infless;
pub mod mooncake;
pub mod nvshmem;

pub use deepplan::deepplan_plane;
pub use infless::InflessPlane;
pub use mooncake::mooncake_plane;
pub use nvshmem::nvshmem_plane;
