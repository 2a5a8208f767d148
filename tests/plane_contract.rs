//! Data-plane contract: every plane must satisfy the same Put/Get semantics
//! across all source/destination pattern combinations, enforce access
//! control, and clean up pool accounting.

use grouter::runtime::dataplane::{Destination, PlaneEnv};
use grouter::sim::time::SimTime;
use grouter::store::{AccessToken, FunctionId, StoreError, WorkflowId};
use grouter::topology::{presets, GpuRef};
use grouter_integration_tests::all_planes;

fn token(wf: u64) -> AccessToken {
    AccessToken {
        function: FunctionId(1),
        workflow: WorkflowId(wf),
    }
}

/// Every (source, destination) combination must produce a plan whose flows
/// reference valid links and whose byte totals match the object size.
#[test]
fn put_get_covers_every_pattern() {
    let sources = [
        Destination::Gpu(GpuRef::new(0, 0)),
        Destination::Host(0),
        Destination::Gpu(GpuRef::new(1, 5)),
    ];
    let dests = [
        Destination::Gpu(GpuRef::new(0, 0)),
        Destination::Gpu(GpuRef::new(0, 3)),
        Destination::Gpu(GpuRef::new(1, 2)),
        Destination::Host(0),
        Destination::Host(1),
    ];
    for mut plane in all_planes(3) {
        for &src in &sources {
            for &dst in &dests {
                let mut cl = PlaneEnv::new(presets::dgx_v100(), 2);
                let bytes = 32e6;
                let put = plane
                    .put(&mut cl.ctx(SimTime::ZERO), token(1), src, bytes, 1)
                    .unwrap_or_else(|e| panic!("{}: put {src:?} failed: {e}", plane.name()));
                let get = plane
                    .get(&mut cl.ctx(SimTime::ZERO), token(1), put.id, dst)
                    .unwrap_or_else(|e| {
                        panic!("{}: get {src:?}->{dst:?} failed: {e}", plane.name())
                    });
                // Legs carry the full object (or nothing for zero-copy).
                for leg in put.op.legs.iter().chain(get.legs.iter()) {
                    if !leg.plan.is_zero_copy() {
                        let assigned = leg.plan.assigned_bytes();
                        assert!(
                            (assigned - bytes).abs() < 1.0,
                            "{}: leg carries {assigned} of {bytes}",
                            plane.name()
                        );
                    }
                    // Paths reference links that exist.
                    for flow in &leg.plan.flows {
                        for l in &flow.links {
                            assert!((l.0 as usize) < cl.net.num_links());
                        }
                    }
                }
                // Consuming releases the object.
                plane.on_consumed(&mut cl.ctx(SimTime::ZERO), put.id);
                assert!(
                    cl.store.peek(put.id).is_none(),
                    "{}: object not GC'd",
                    plane.name()
                );
            }
        }
    }
}

#[test]
fn pools_return_to_zero_after_consumption() {
    for mut plane in all_planes(7) {
        let mut cl = PlaneEnv::new(presets::dgx_v100(), 1);
        let mut ids = Vec::new();
        for i in 0..6 {
            let put = plane
                .put(
                    &mut cl.ctx(SimTime::ZERO),
                    token(1),
                    Destination::Gpu(GpuRef::new(0, i % 8)),
                    64e6,
                    1,
                )
                .expect("put");
            ids.push(put.id);
        }
        for id in ids {
            plane.on_consumed(&mut cl.ctx(SimTime::ZERO), id);
        }
        for (i, pool) in cl.pools.iter().enumerate() {
            assert_eq!(
                pool.used(),
                0.0,
                "{}: pool {i} still holds {}",
                plane.name(),
                pool.used()
            );
        }
    }
}

#[test]
fn access_control_is_universal() {
    for mut plane in all_planes(11) {
        let mut cl = PlaneEnv::new(presets::dgx_v100(), 1);
        let put = plane
            .put(
                &mut cl.ctx(SimTime::ZERO),
                token(1),
                Destination::Gpu(GpuRef::new(0, 2)),
                1e6,
                1,
            )
            .expect("put");
        let err = plane
            .get(
                &mut cl.ctx(SimTime::ZERO),
                token(2),
                put.id,
                Destination::Gpu(GpuRef::new(0, 3)),
            )
            .unwrap_err();
        assert!(
            matches!(err, StoreError::AccessDenied { .. }),
            "{}: expected AccessDenied, got {err:?}",
            plane.name()
        );
    }
}

#[test]
fn unknown_object_is_reported_not_panicked() {
    use grouter::store::DataId;
    for mut plane in all_planes(13) {
        let mut cl = PlaneEnv::new(presets::dgx_v100(), 1);
        let err = plane
            .get(
                &mut cl.ctx(SimTime::ZERO),
                token(1),
                DataId(424242),
                Destination::Gpu(GpuRef::new(0, 0)),
            )
            .unwrap_err();
        assert!(
            matches!(err, StoreError::UnknownData(_)),
            "{}",
            plane.name()
        );
    }
}

#[test]
fn double_consume_is_idempotent() {
    for mut plane in all_planes(17) {
        let mut cl = PlaneEnv::new(presets::dgx_v100(), 1);
        let put = plane
            .put(
                &mut cl.ctx(SimTime::ZERO),
                token(1),
                Destination::Gpu(GpuRef::new(0, 1)),
                8e6,
                1,
            )
            .expect("put");
        plane.on_consumed(&mut cl.ctx(SimTime::ZERO), put.id);
        // Second consume of a GC'd object must be harmless.
        plane.on_consumed(&mut cl.ctx(SimTime::ZERO), put.id);
        assert_eq!(cl.pools[1].used(), 0.0, "{}", plane.name());
    }
}

#[test]
fn memory_pressure_hook_never_leaves_overflow() {
    for mut plane in all_planes(19) {
        let mut cl = PlaneEnv::new(presets::dgx_v100(), 1);
        // Fill GPU 0's pool.
        let mut ids = Vec::new();
        for _ in 0..10 {
            if let Ok(put) = plane.put(
                &mut cl.ctx(SimTime::ZERO),
                token(1),
                Destination::Gpu(GpuRef::new(0, 0)),
                500e6,
                1,
            ) {
                ids.push(put.id);
            }
        }
        // Functions suddenly occupy most of the GPU.
        let capacity = cl.topo.gpu_mem_bytes();
        for pool in cl.pools.iter_mut() {
            pool.set_runtime_used(capacity * 0.9);
        }
        for g in 0..8 {
            plane.on_memory_change(&mut cl.ctx(SimTime::ZERO), GpuRef::new(0, g));
        }
        for (i, pool) in cl.pools.iter().enumerate() {
            assert!(
                pool.used() <= pool.storage_cap() + 1.0,
                "{}: pool {i} over cap after pressure hook ({} > {})",
                plane.name(),
                pool.used(),
                pool.storage_cap()
            );
        }
    }
}

#[test]
fn multi_consumer_objects_survive_until_last_reader() {
    for mut plane in all_planes(23) {
        let mut cl = PlaneEnv::new(presets::dgx_v100(), 1);
        let put = plane
            .put(
                &mut cl.ctx(SimTime::ZERO),
                token(1),
                Destination::Gpu(GpuRef::new(0, 0)),
                16e6,
                3,
            )
            .expect("put");
        // Three consumers read it; the object must stay resolvable until the
        // last one consumes.
        for round in 0..3 {
            let get = plane.get(
                &mut cl.ctx(SimTime::ZERO),
                token(1),
                put.id,
                Destination::Gpu(GpuRef::new(0, (round + 1) as usize)),
            );
            assert!(get.is_ok(), "{}: round {round} failed", plane.name());
            plane.on_consumed(&mut cl.ctx(SimTime::ZERO), put.id);
        }
        assert!(
            cl.store.peek(put.id).is_none(),
            "{}: object outlived its consumers",
            plane.name()
        );
        let total_pool: f64 = cl.pools.iter().map(|p| p.used()).sum();
        assert_eq!(total_pool, 0.0, "{}: pool leak", plane.name());
    }
}

#[test]
fn oversized_objects_fall_back_to_host_storage() {
    use grouter::store::Location;
    for mut plane in all_planes(29) {
        let mut cl = PlaneEnv::new(presets::dgx_v100(), 1);
        // 10 GB exceeds the 8 GB storage cap of an idle 16 GB V100.
        let put = plane
            .put(
                &mut cl.ctx(SimTime::ZERO),
                token(1),
                Destination::Gpu(GpuRef::new(0, 0)),
                10e9,
                1,
            )
            .expect("oversized put must still succeed");
        let loc = cl.store.peek(put.id).expect("registered").location;
        assert!(
            matches!(loc, Location::Host(_)),
            "{}: oversized object stored at {loc:?}",
            plane.name()
        );
        // And it is still readable.
        let get = plane.get(
            &mut cl.ctx(SimTime::ZERO),
            token(1),
            put.id,
            Destination::Gpu(GpuRef::new(0, 1)),
        );
        assert!(get.is_ok(), "{}", plane.name());
    }
}
