//! Hardware calibration table.
//!
//! Every physical constant used by the simulation lives here, so the mapping
//! from the paper's testbeds to the model is auditable in one place (see
//! `DESIGN.md` §2 and `EXPERIMENTS.md`). Link speeds are datasheet values for
//! the paper's hardware; software latencies are set to the magnitudes the
//! paper reports (e.g. "millisecond-level" `cudaMalloc`, "<10 µs" path
//! selection, CUDA IPC open cost).

use crate::time::SimDuration;

/// One gigabyte per second in bytes/second.
pub const GBPS: f64 = 1e9;
/// One gigabit per second in bytes/second.
pub const GBITPS: f64 = 1e9 / 8.0;
/// Mebibyte in bytes.
pub const MIB: f64 = 1024.0 * 1024.0;
/// Gibibyte in bytes.
pub const GIB: f64 = 1024.0 * MIB;

// ---------------------------------------------------------------------------
// Interconnect bandwidths (bytes/second)
// ---------------------------------------------------------------------------

/// Single NVLink2 connection on DGX-V100 (paper §4.3.3: 24 GB/s class).
pub const NVLINK_V100_SINGLE: f64 = 24.0 * GBPS;
/// Double NVLink2 connection on DGX-V100 (48 GB/s class).
pub const NVLINK_V100_DOUBLE: f64 = 48.0 * GBPS;
/// Per-GPU NVLink3 port into the NVSwitch fabric on DGX-A100.
pub const NVLINK_A100_PORT: f64 = 300.0 * GBPS;
/// Per-GPU NVLink port on H800 nodes (paper §6.4: 200 GB/s).
pub const NVLINK_H800_PORT: f64 = 200.0 * GBPS;

/// PCIe 3.0 ×16 effective bandwidth (V100 hosts).
pub const PCIE_GEN3_X16: f64 = 12.0 * GBPS;
/// PCIe 4.0 ×16 effective bandwidth (A100 / A10 hosts).
pub const PCIE_GEN4_X16: f64 = 24.0 * GBPS;
/// PCIe 5.0 ×16 effective bandwidth (H800 hosts).
pub const PCIE_GEN5_X16: f64 = 48.0 * GBPS;

/// 100 Gbps NIC (p3.16xlarge has 4 of them).
pub const NIC_100G: f64 = 100.0 * GBITPS;
/// 200 Gbps NIC (p4d.24xlarge has 8; H800 nodes use 200 Gbps networks).
pub const NIC_200G: f64 = 200.0 * GBITPS;

/// Host DRAM bandwidth available to staged copies. High enough that DRAM is
/// never the bottleneck against a handful of PCIe uplinks, matching real
/// servers.
pub const HOST_DRAM_BW: f64 = 150.0 * GBPS;

/// Intra-host shared-memory copy bandwidth for cFn–cFn exchanges. The paper
/// measures cFn–cFn via shared memory as "negligible overhead".
pub const HOST_SHM_BW: f64 = 25.0 * GBPS;

/// Serialization/deserialization bandwidth for host-centric storage
/// (Fig. 2a): external stores hold language objects, so every GPU tensor is
/// serialised on `Put` and deserialised on `Get`. GPU-side stores exchange
/// raw device buffers and skip this entirely — a large part of why
/// host-centric data passing dominates end-to-end latency (Fig. 3).
pub const HOST_SERIALIZE_BW: f64 = 1.5 * GBPS;

// ---------------------------------------------------------------------------
// Software / control-plane latencies
// ---------------------------------------------------------------------------

/// First-time CUDA IPC handle open + map into a foreign address space.
pub const IPC_MAP_FIRST: SimDuration = SimDuration::from_micros(50);
/// Re-mapping a cached IPC handle.
pub const IPC_MAP_CACHED: SimDuration = SimDuration::from_micros(5);
/// GPUDirect RDMA registration / QP setup per transfer.
pub const GDR_SETUP: SimDuration = SimDuration::from_micros(20);
/// Launching one DMA copy (PCIe or NVLink) on a stream.
pub const DMA_LAUNCH: SimDuration = SimDuration::from_micros(5);
/// Per-chunk pipeline overhead (stream sync + doorbell).
pub const CHUNK_OVERHEAD: SimDuration = SimDuration::from_micros(5);
/// Establishing a network connection for a batch of chunks.
pub const NIC_CONN_SETUP: SimDuration = SimDuration::from_micros(30);

/// Native `cudaMalloc`/`cudaFree` cost (paper §4.4.1: millisecond-level).
pub const CUDA_MALLOC: SimDuration = SimDuration::from_millis(1);
/// Allocation served from a pre-warmed memory pool.
pub const POOL_ALLOC: SimDuration = SimDuration::from_micros(10);
/// Pinned host memory allocation (expensive; why the pinned ring is reused).
pub const PINNED_ALLOC: SimDuration = SimDuration::from_millis(2);

/// Local (same-node) mapping-table lookup.
pub const LOCAL_TABLE_LOOKUP: SimDuration = SimDuration::from_micros(2);
/// Global-table RPC on a local miss (hierarchical control plane, §4.2.2).
pub const GLOBAL_TABLE_LOOKUP: SimDuration = SimDuration::from_micros(30);

/// One-way latency between node groups through the cluster frontend
/// (gateway dispatch + cross-rack fabric floor). Doubles as the sharded
/// engine's conservative lookahead: no cross-group message can land
/// sooner, so each group may safely simulate this far ahead of the rest.
pub const CROSS_GROUP_LATENCY: SimDuration = SimDuration::from_millis(1);
/// Effective bandwidth of one directed frontend channel between groups
/// (request/response payloads, not intra-group data-plane traffic).
pub const CROSS_GROUP_BW: f64 = 10.0 * GBPS;

/// Worker heartbeat period in service mode: each active node group
/// publishes a state snapshot (queue depth, mean pool occupancy, whether
/// it is still busy) to the router this often. Small against the paper's
/// second-scale SLOs, large against the per-request service times — the
/// router's view is genuinely stale between beats.
pub const HEARTBEAT_INTERVAL: SimDuration = SimDuration::from_millis(50);
/// Modelled wire size of one heartbeat on the frontend channel: what a
/// real worker sends (a few counters plus per-GPU pool occupancy), not
/// the three values the simulated beat carries. It sets how long a beat
/// holds the channel, so it fixes service-mode timing.
pub const HEARTBEAT_BYTES: f64 = 256.0;
/// A worker is suspected dead after this many silent heartbeat intervals
/// (classic 3× failure-detector timeout); the router stops routing to it
/// until a fresh heartbeat arrives.
pub const HEARTBEAT_SUSPECT_FACTOR: u64 = 3;

// ---------------------------------------------------------------------------
// GROUTER policy defaults (paper values)
// ---------------------------------------------------------------------------

/// Default transfer chunk size (paper §4.3.1: 2 MB).
pub const CHUNK_SIZE: f64 = 2.0 * MIB;
/// Chunks per batch for fair preemption (paper §4.3.2: 5).
pub const CHUNKS_PER_BATCH: usize = 5;
/// Minimum storage memory pool retained during idle periods (§4.4.1: 300 MB).
pub const MIN_POOL_BYTES: f64 = 300.0 * 1e6;
/// Fraction of free GPU memory the storage may occupy (§4.4.2: 50 %).
pub const STORAGE_FREE_FRACTION: f64 = 0.5;

/// Capacity of the per-node circular pinned staging buffer GROUTER shares
/// across functions (§4.3.2). Baselines that pin per transfer pay
/// [`PINNED_ALLOC`] each time instead.
pub const PINNED_RING_BYTES: f64 = 128.0 * 1e6;
/// Staging footprint one active host transfer takes from the ring (a few
/// in-flight batches of 2 MB chunks).
pub const PINNED_STAGE_BYTES: f64 = 16.0 * 1e6;

/// GPU memory capacity per V100 (16 GB variant used in the paper's Fig. 7).
pub const V100_MEM_BYTES: f64 = 16.0 * GIB;
/// GPU memory capacity per A100 (p4d: 40 GB).
pub const A100_MEM_BYTES: f64 = 40.0 * GIB;
/// GPU memory capacity per A10 (24 GB).
pub const A10_MEM_BYTES: f64 = 24.0 * GIB;
/// GPU memory capacity per H800 (80 GB).
pub const H800_MEM_BYTES: f64 = 80.0 * GIB;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions() {
        assert_eq!(GBITPS * 8.0, GBPS);
        assert_eq!(NIC_100G, 12.5e9);
        assert_eq!(CHUNK_SIZE, 2.0 * 1024.0 * 1024.0);
    }

    #[test]
    fn link_speed_ordering_matches_hardware() {
        // NVLink beats PCIe, which beats a single NIC, on every testbed
        // (checked when the test compiles: the operands are constants).
        const {
            assert!(NVLINK_V100_SINGLE > PCIE_GEN3_X16);
            assert!(PCIE_GEN3_X16 > NIC_100G * 0.9);
            assert!(NVLINK_A100_PORT > PCIE_GEN4_X16);
            assert!(NVLINK_H800_PORT > PCIE_GEN5_X16);
        }
    }

    #[test]
    fn double_link_is_twice_single() {
        assert_eq!(NVLINK_V100_DOUBLE, 2.0 * NVLINK_V100_SINGLE);
    }
}
