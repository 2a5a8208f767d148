//! **NVSHMEM+** — GPU-side storage without placement awareness (paper §3,
//! Fig. 4).
//!
//! INFless extended with an NVSHMEM-backed GPU store. Objects bypass host
//! memory, but the store cannot see where functions run:
//!
//! * a `Put` lands on a **random GPU** of the producer's node — usually a
//!   relay copy instead of staying local;
//! * a `Get` moves the data store → consumer over a **single path**;
//! * functions only talk to their **local node's** store, so cross-node
//!   consumption relays store(A) → store(B) over **one NIC**, then
//!   store(B) → consumer — the tripled copies of Fig. 4;
//! * eviction under memory pressure is **LRU** (§4.4.2's strawman).

use grouter_runtime::simple_plane::{StorePlane, StoreSite};
use grouter_sim::rng::DetRng;

/// The NVSHMEM+ store: every GPU `Put`, and every cross-node `Get`'s relay
/// copy, lands on a GPU drawn from `seed`; every leg takes a single path.
pub fn nvshmem_plane(seed: u64) -> StorePlane {
    StorePlane {
        name: "NVSHMEM+",
        site: StoreSite::Random(DetRng::new(seed)),
        ..StorePlane::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grouter_runtime::dataplane::{DataOp, DataPlane, Destination, PlaneEnv, PutOp};
    use grouter_sim::time::SimTime;
    use grouter_store::{AccessToken, DataId, FunctionId, Location, StoreError, WorkflowId};
    use grouter_topology::{presets, GpuRef};

    const MB: f64 = 1e6;

    fn token(workflow: u64) -> AccessToken {
        AccessToken {
            function: FunctionId(1),
            workflow: WorkflowId(workflow),
        }
    }

    fn put(plane: &mut StorePlane, env: &mut PlaneEnv, producer: GpuRef, bytes: f64) -> PutOp {
        let dest = Destination::Gpu(producer);
        let put = plane.put(&mut env.ctx(SimTime::ZERO), token(1), dest, bytes, 1);
        put.unwrap()
    }

    fn get(
        plane: &mut StorePlane,
        env: &mut PlaneEnv,
        workflow: u64,
        id: DataId,
        consumer: GpuRef,
    ) -> Result<DataOp, StoreError> {
        let dest = Destination::Gpu(consumer);
        plane.get(&mut env.ctx(SimTime::ZERO), token(workflow), id, dest)
    }

    #[test]
    fn put_lands_on_random_gpu_of_same_node() {
        let mut env = PlaneEnv::new(presets::dgx_v100(), 1);
        let mut plane = nvshmem_plane(7);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..32 {
            let put = put(&mut plane, &mut env, GpuRef::new(0, 2), 1.0 * MB);
            let Location::Gpu(g) = env.store.peek(put.id).unwrap().location else {
                panic!("GPU store")
            };
            assert_eq!(g.node, 0);
            seen.insert(g.gpu);
        }
        // Random placement touches many GPUs — placement blindness.
        assert!(seen.len() >= 4, "store GPUs {seen:?}");
    }

    #[test]
    fn put_to_other_gpu_needs_a_relay_leg() {
        let mut env = PlaneEnv::new(presets::dgx_v100(), 1);
        let mut plane = nvshmem_plane(1);
        // Count the puts that landed on a different GPU than the producer.
        let relayed = (0..16)
            .filter(|_| {
                let put = put(&mut plane, &mut env, GpuRef::new(0, 0), 1.0 * MB);
                !put.op.legs.is_empty()
            })
            .count();
        // 7/8 of random picks are non-local.
        assert!(relayed >= 10, "relayed {relayed}");
    }

    #[test]
    fn cross_node_get_relays_through_remote_store() {
        let mut env = PlaneEnv::new(presets::dgx_v100(), 2);
        let mut plane = nvshmem_plane(3);
        let put = put(&mut plane, &mut env, GpuRef::new(0, 0), 10.0 * MB);
        let get = get(&mut plane, &mut env, 1, put.id, GpuRef::new(1, 5)).unwrap();
        // Store → remote store (NIC), then remote store → consumer: the
        // extra copies of Fig. 4 (2 legs, possibly 1 if the random remote
        // store happens to be GPU 5 itself).
        assert!(!get.legs.is_empty());
        assert!(get.legs.len() <= 2);
        assert_eq!(get.legs[0].plan.flows.len(), 1, "single NIC only");
    }

    #[test]
    fn access_control_enforced() {
        let mut env = PlaneEnv::new(presets::dgx_v100(), 1);
        let mut plane = nvshmem_plane(3);
        let put = put(&mut plane, &mut env, GpuRef::new(0, 0), 1.0 * MB);
        let err = get(&mut plane, &mut env, 99, put.id, GpuRef::new(0, 1)).unwrap_err();
        assert!(matches!(err, StoreError::AccessDenied { .. }));
    }
}
