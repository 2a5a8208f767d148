//! **DeepPlan+** — NVSHMEM+ with storage-driven parallel PCIe (paper §6).
//!
//! DeepPlan's direct-host-access trick loads data over *all* PCIe links of a
//! node in parallel. Grafted onto the NVSHMEM+ store this accelerates
//! gFn–host transfers, but:
//!
//! * route GPUs are chosen without topology awareness — same-switch GPUs
//!   share one host uplink and NVLink-less peers double traffic on the
//!   source's own PCIe segment (§3.2.2), which is why DeepPlan+ can lose to
//!   NVSHMEM+ on asymmetric DGX-V100 boxes (Fig. 13b);
//! * bandwidth is not partitioned, so co-located workflows interfere
//!   (Fig. 5b: 3.65× gFn–host degradation);
//! * the storage service, not the consumer, pulls host data: blind to
//!   placement, it stages into a random GPU and relays from there;
//! * gFn–gFn transfers and the placement-blind store are unchanged.

use grouter_runtime::simple_plane::StorePlane;
use grouter_transfer::plan::PlanConfig;

use crate::nvshmem::nvshmem_plane;

/// The DeepPlan+ store: [`nvshmem_plane`] with parallel-PCIe gFn–host
/// planning and storage-driven host-to-GPU pulls.
pub fn deepplan_plane(seed: u64) -> StorePlane {
    StorePlane {
        name: "DeepPlan+",
        host_cfg: PlanConfig::deepplan(),
        storage_pull_relay: true,
        ..nvshmem_plane(seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grouter_runtime::dataplane::{DataPlane, Destination, PlaneEnv};
    use grouter_sim::time::SimTime;
    use grouter_store::{AccessToken, FunctionId, WorkflowId};
    use grouter_topology::{presets, GpuRef};

    const TOKEN: AccessToken = AccessToken {
        function: FunctionId(1),
        workflow: WorkflowId(1),
    };

    #[test]
    fn deepplan_reports_its_name() {
        let plane = deepplan_plane(1);
        assert_eq!(plane.name(), "DeepPlan+");
    }

    #[test]
    fn host_data_is_staged_through_a_store_gpu_over_parallel_pcie() {
        let mut env = PlaneEnv::new(presets::dgx_v100(), 1);
        let mut plane = deepplan_plane(2);
        let put = plane.put(
            &mut env.ctx(SimTime::ZERO),
            TOKEN,
            Destination::Host(0),
            64e6,
            8,
        );
        let id = put.expect("put").id;
        let consumer = Destination::Gpu(GpuRef::new(0, 4));
        let relayed = (0..8)
            .filter(|_| {
                let get = plane.get(&mut env.ctx(SimTime::ZERO), TOKEN, id, consumer);
                let legs = get.expect("get").legs;
                assert!(legs[0].plan.flows.len() > 1, "parallel PCIe pull");
                legs.len() == 2
            })
            .count();
        // 7 in 8 random staging GPUs are not the consumer's.
        assert!(relayed >= 4, "relayed {relayed} of 8");
    }
}
