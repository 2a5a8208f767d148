//! **INFless+** — the host-centric baseline (paper §6, Fig. 2a).
//!
//! INFless extended with a host-side shared-memory storage layer. Every
//! intermediate object lives in host memory: GPU producers serialise and
//! copy down over their own PCIe link; GPU consumers copy up and
//! deserialise. gFn–gFn hops therefore cost two PCIe crossings plus
//! serialisation at both ends — the 92 %-of-latency pathology of Fig. 3.

use grouter_runtime::dataplane::{DataOp, DataPlane, Destination, OpLeg, PlaneCtx, PutOp};
use grouter_runtime::simple_plane::gc_consumed;
use grouter_sim::time::SimDuration;
use grouter_store::{AccessToken, DataId, Location, StoreError};
use grouter_topology::GpuRef;
use grouter_transfer::plan::PlanConfig;

/// Serialisation latency of a host-centric store (`bytes / HOST_SERIALIZE_BW`).
fn serialize_latency(bytes: f64) -> SimDuration {
    SimDuration::from_secs_f64(bytes / grouter_sim::params::HOST_SERIALIZE_BW)
}

/// Host-centric data plane.
#[derive(Debug)]
pub struct InflessPlane {
    cfg: PlanConfig,
}

impl InflessPlane {
    pub fn new() -> InflessPlane {
        InflessPlane {
            cfg: PlanConfig::single_path(),
        }
    }
}

impl Default for InflessPlane {
    fn default() -> Self {
        Self::new()
    }
}

impl DataPlane for InflessPlane {
    fn name(&self) -> &'static str {
        "INFless+"
    }

    fn put(
        &mut self,
        ctx: &mut PlaneCtx<'_>,
        token: AccessToken,
        source: Destination,
        bytes: f64,
        consumers: u32,
    ) -> Result<PutOp, StoreError> {
        let node = match source {
            Destination::Gpu(g) => g.node,
            Destination::Host(n) => n,
        };
        let (id, lookup) = ctx
            .store
            .put(ctx.now, token, Location::Host(node), bytes, consumers);
        let mut legs = Vec::new();
        let mut control = lookup;
        if let Destination::Gpu(g) = source {
            // Serialise the device tensor, pin a staging buffer (allocated
            // per transfer — no shared ring), then stage it down over the
            // producer's own PCIe link only.
            control = control + serialize_latency(bytes) + grouter_sim::params::PINNED_ALLOC;
            legs.push(OpLeg::d2h(ctx, g, bytes, &self.cfg));
        }
        Ok(PutOp {
            id,
            op: DataOp {
                control_latency: control,
                legs,
            },
        })
    }

    fn get(
        &mut self,
        ctx: &mut PlaneCtx<'_>,
        token: AccessToken,
        id: DataId,
        dest: Destination,
    ) -> Result<DataOp, StoreError> {
        let node = match dest {
            Destination::Gpu(g) => g.node,
            Destination::Host(n) => n,
        };
        let (entry, lookup) = ctx.store.resolve(ctx.now, node, token, id)?;
        let Location::Host(data_node) = entry.location else {
            unreachable!("host-centric store never holds GPU-resident data");
        };
        let mut legs = Vec::new();
        let mut control = lookup;
        match dest {
            Destination::Gpu(g) => {
                if data_node != g.node {
                    legs.push(OpLeg::host_to_host(ctx, data_node, g.node, entry.bytes));
                }
                control =
                    control + serialize_latency(entry.bytes) + grouter_sim::params::PINNED_ALLOC;
                legs.push(OpLeg::h2d(ctx, g, entry.bytes, &self.cfg));
            }
            Destination::Host(n) => {
                legs.push(OpLeg::host_to_host(ctx, data_node, n, entry.bytes));
            }
        }
        Ok(DataOp {
            control_latency: control,
            legs,
        })
    }

    fn on_consumed(&mut self, ctx: &mut PlaneCtx<'_>, id: DataId) -> Vec<DataOp> {
        gc_consumed(ctx, id);
        Vec::new()
    }

    fn on_memory_change(&mut self, _ctx: &mut PlaneCtx<'_>, _gpu: GpuRef) -> Vec<DataOp> {
        // Host storage: nothing to migrate.
        Vec::new()
    }
}

/// Convenience: expected host-centric gFn–gFn round-trip floor for `bytes`
/// on a PCIe link of `pcie_bw` — serialise + d2h + h2d + deserialise. Used
/// by tests and the Fig. 3 analysis.
pub fn host_roundtrip_floor(bytes: f64, pcie_bw: f64) -> SimDuration {
    serialize_latency(bytes)
        + SimDuration::from_secs_f64(bytes / pcie_bw)
        + SimDuration::from_secs_f64(bytes / pcie_bw)
        + serialize_latency(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use grouter_runtime::placement::PlacementPolicy;
    use grouter_runtime::spec::{StageSpec, WorkflowSpec};
    use grouter_runtime::world::RuntimeConfig;
    use grouter_runtime::{metrics::PassCategory, Runtime};
    use grouter_sim::time::SimTime;
    use grouter_topology::presets;
    use std::sync::Arc;

    const MB: f64 = 1e6;

    #[test]
    fn gfn_to_gfn_passes_through_host() {
        // Two GPU stages on different GPUs: INFless+ must pay
        // serialise + d2h + h2d + deserialise for the 120 MB hop.
        let mut wf = WorkflowSpec::new("hop", 1.0 * MB);
        let a = wf.push(StageSpec::gpu(
            "a",
            vec![],
            SimDuration::from_millis(5),
            120.0 * MB,
            1e9,
        ));
        wf.push(StageSpec::gpu(
            "b",
            vec![a],
            SimDuration::from_millis(5),
            1.0 * MB,
            1e9,
        ));
        let pin = PlacementPolicy::Pinned(vec![
            Destination::Gpu(grouter_topology::GpuRef::new(0, 0)),
            Destination::Gpu(grouter_topology::GpuRef::new(0, 3)),
        ]);
        let cfg = RuntimeConfig {
            placement: pin,
            placement_nodes: vec![0],
            ..Default::default()
        };
        let mut rt = Runtime::new(presets::dgx_v100(), 1, Box::new(InflessPlane::new()), cfg);
        rt.submit(Arc::new(wf), SimTime::ZERO);
        rt.run();
        let rec = &rt.metrics().records()[0];
        // Logical-edge attribution: the a→b gFn–gFn hop is booked as
        // gFn–gFn even though INFless+ routes it through host memory, and
        // it must cost at least serialise + d2h + h2d + deserialise.
        let gg = rec.passing_of(PassCategory::GpuGpu);
        let floor = host_roundtrip_floor(120.0 * MB, grouter_sim::params::PCIE_GEN3_X16);
        assert!(
            gg >= floor,
            "gFn-gFn time {gg} below physical floor {floor}"
        );
        // Ingress/egress hops show up as gFn–host traffic.
        assert!(rec.passing_of(PassCategory::GpuHost) > SimDuration::ZERO);
    }

    #[test]
    fn serialization_dominates_large_objects() {
        // 1 GB at 1.5 GB/s serialise + deserialise ≈ 1.33 s vs ~0.17 s of
        // PCIe time: the paper's "data passing dominates" shape.
        let floor = host_roundtrip_floor(1e9, grouter_sim::params::PCIE_GEN3_X16);
        let ser = serialize_latency(1e9);
        assert!(ser.as_secs_f64() * 2.0 / floor.as_secs_f64() > 0.8);
    }
}
