//! **Mooncake+** — KV-cache-centric store for the LLM experiment (§6.4).
//!
//! Mooncake manages KV caches in a distributed cache pool. Ported onto the
//! serverless platform it keeps two of its traits the paper calls out:
//!
//! * **No function-placement awareness** — KV blocks live on a fixed
//!   per-node cache GPU, so producers and consumers pay relay copies;
//! * **NIC usage scales with tensor parallelism** — each TP rank drives its
//!   own NIC, so at TP=1 cross-node KV transfer uses a single NIC and only
//!   approaches GROUTER's multi-NIC bandwidth at TP=8 (Fig. 19b).

use grouter_runtime::simple_plane::{StorePlane, StoreSite};
use grouter_transfer::plan::PlanConfig;

/// The Mooncake+ store for a deployment of tensor-parallel degree `tp`:
/// KV lands on GPU 0 of the producer's node, and a cross-node transfer
/// drives one NIC per TP rank. Panics when `tp` is 0.
pub fn mooncake_plane(tp: u32) -> StorePlane {
    assert!(tp >= 1, "tensor parallelism must be at least 1");
    StorePlane {
        name: "Mooncake+",
        site: StoreSite::Cache,
        xnode_cfg: PlanConfig {
            parallel_nics: tp > 1,
            max_paths: tp as usize,
            ..PlanConfig::grouter()
        },
        ..StorePlane::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grouter_runtime::dataplane::{DataPlane, Destination, PlaneEnv};
    use grouter_sim::time::SimTime;
    use grouter_store::{AccessToken, FunctionId, Location, WorkflowId};
    use grouter_topology::{presets, GpuRef};

    const TOKEN: AccessToken = AccessToken {
        function: FunctionId(1),
        workflow: WorkflowId(1),
    };

    #[test]
    fn kv_lands_on_the_cache_gpu() {
        let mut env = PlaneEnv::new(presets::h800x8(), 1);
        let mut plane = mooncake_plane(1);
        let producer = Destination::Gpu(GpuRef::new(0, 5));
        let put = plane.put(&mut env.ctx(SimTime::ZERO), TOKEN, producer, 2e9, 1);
        let put = put.unwrap();
        assert_eq!(
            env.store.peek(put.id).unwrap().location,
            Location::Gpu(GpuRef::new(0, 0))
        );
        // Producer ≠ cache GPU → relay copy.
        assert_eq!(put.op.legs.len(), 1);
    }

    #[test]
    fn nic_fanout_grows_with_tp() {
        let mut env = PlaneEnv::new(presets::h800x8(), 2);
        let mut plane1 = mooncake_plane(1);
        let mut plane8 = mooncake_plane(8);
        let producer = Destination::Gpu(GpuRef::new(0, 0));
        let put = plane1.put(&mut env.ctx(SimTime::ZERO), TOKEN, producer, 2e9, 2);
        let id = put.unwrap().id;
        let consumer = Destination::Gpu(GpuRef::new(1, 3));
        let g1 = plane1.get(&mut env.ctx(SimTime::ZERO), TOKEN, id, consumer);
        let g8 = plane8.get(&mut env.ctx(SimTime::ZERO), TOKEN, id, consumer);
        let flows1 = g1.unwrap().legs[0].plan.flows.len();
        let flows8 = g8.unwrap().legs[0].plan.flows.len();
        assert_eq!(flows1, 1, "TP=1 uses a single NIC");
        assert!(flows8 > 2, "TP=8 fans over NICs, got {flows8}");
    }

    #[test]
    #[should_panic(expected = "tensor parallelism")]
    fn zero_tp_rejected() {
        let _ = mooncake_plane(0);
    }
}
