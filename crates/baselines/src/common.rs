//! Shared plumbing for the baseline planes.

use grouter_runtime::dataplane::{OpLeg, PlaneCtx};
use grouter_sim::time::SimDuration;
use grouter_topology::GpuRef;
use grouter_transfer::plan::{
    plan_cross_node, plan_d2h, plan_h2d, plan_host_to_host, plan_intra_node, plan_shm, PlanConfig,
};

/// Serialisation latency of host-centric stores (`bytes / HOST_SERIALIZE_BW`).
pub fn serialize_latency(bytes: f64) -> SimDuration {
    SimDuration::from_secs_f64(bytes / grouter_sim::params::HOST_SERIALIZE_BW)
}

/// Single-path intra-node GPU-to-GPU leg (`None` for the same GPU).
pub fn leg_intra(
    ctx: &PlaneCtx<'_>,
    node: usize,
    src: usize,
    dst: usize,
    bytes: f64,
    cfg: &PlanConfig,
) -> Option<OpLeg> {
    if src == dst {
        return None;
    }
    let plan = plan_intra_node(ctx.topo, ctx.net, None, node, src, dst, bytes, cfg);
    Some(OpLeg::new(plan, node))
}

/// Device-to-host leg with the given planner config.
pub fn leg_d2h(ctx: &PlaneCtx<'_>, gpu: GpuRef, bytes: f64, cfg: &PlanConfig) -> OpLeg {
    OpLeg::new(
        plan_d2h(ctx.topo, ctx.net, gpu.node, gpu.gpu, bytes, cfg),
        gpu.node,
    )
}

/// Host-to-device leg with the given planner config.
pub fn leg_h2d(ctx: &PlaneCtx<'_>, gpu: GpuRef, bytes: f64, cfg: &PlanConfig) -> OpLeg {
    OpLeg::new(
        plan_h2d(ctx.topo, ctx.net, gpu.node, gpu.gpu, bytes, cfg),
        gpu.node,
    )
}

/// Cross-node GPU-to-GPU leg.
pub fn leg_xnode(
    ctx: &PlaneCtx<'_>,
    src: GpuRef,
    dst: GpuRef,
    bytes: f64,
    cfg: &PlanConfig,
) -> OpLeg {
    OpLeg::new(
        plan_cross_node(ctx.topo, ctx.net, src, dst, bytes, cfg),
        src.node,
    )
}

/// Host-to-host network leg.
pub fn leg_hh(ctx: &PlaneCtx<'_>, src_node: usize, dst_node: usize, bytes: f64) -> OpLeg {
    OpLeg::new(
        plan_host_to_host(ctx.topo, ctx.net, src_node, dst_node, bytes),
        src_node,
    )
}

/// Intra-host shared-memory leg.
pub fn leg_shm(ctx: &PlaneCtx<'_>, node: usize, bytes: f64) -> OpLeg {
    OpLeg::new(plan_shm(ctx.topo, ctx.net, node, bytes), node)
}
