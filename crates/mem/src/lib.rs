//! # grouter-mem
//!
//! GROUTER's *elastic GPU data storage* (paper §4.4) as pure, testable
//! policy + accounting. Actual byte movement (evicting to host memory,
//! restoring to GPU) is executed by the data plane; this crate decides
//! **how much pool to hold** and **which objects to migrate**.
//!
//! * [`pool`] — per-GPU [`pool::ElasticPool`]: pool-based allocation
//!   (microseconds) vs native `cudaMalloc` (milliseconds), growth bounded by
//!   the 50 %-of-free-memory cap, idle reclamation, plus the static and
//!   NVSHMEM-symmetric pooling disciplines used as baselines in Fig. 20(c).
//! * [`scaler`] — the histogram pre-warming estimator of §4.4.1:
//!   `R_window`, `R_size`, `R_con` 99th percentiles per function and the
//!   resulting target pool size `Σ R_size·R_con·1{active}`.
//! * [`eviction`] — migration victim selection: classic LRU (NVSHMEM+
//!   baseline), the request-queue-aware policy (RQ), and queue-aware +
//!   proactive restore (GROUTER, Fig. 11b).
//! * [`pinned`] — the circular pinned host-buffer ring reused across
//!   batched PCIe transfers (§4.3.2).

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

pub mod eviction;
pub mod pinned;
pub mod pool;
pub mod scaler;

pub use eviction::{
    EvictionPolicy, GrouterPolicy, LruPolicy, ObjectMeta, QueueAwarePolicy, RestoreQueue,
    VictimHeap, VictimRank,
};
pub use pinned::PinnedRing;
pub use pool::{AllocError, AllocGrant, ElasticPool, PoolDiscipline, PoolOccupancy};
pub use scaler::PrewarmScaler;
