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

use grouter_mem::AllocError;
use grouter_runtime::dataplane::{DataOp, DataPlane, Destination, PlaneCtx, PutOp};
use grouter_runtime::simple_plane::{evict_lru, gc_consumed};
use grouter_sim::time::SimDuration;
use grouter_store::{AccessToken, DataId, Location, StoreError};
use grouter_topology::GpuRef;
use grouter_transfer::plan::PlanConfig;

use crate::common;

/// KV-cache store plane.
#[derive(Debug)]
pub struct MooncakePlane {
    /// Tensor-parallel degree of the deployment (NICs used per transfer).
    tp: u32,
    single: PlanConfig,
}

impl MooncakePlane {
    pub fn new(tp: u32) -> MooncakePlane {
        assert!(tp >= 1, "tensor parallelism must be at least 1");
        MooncakePlane {
            tp,
            single: PlanConfig::single_path(),
        }
    }

    /// The per-node cache GPU (fixed: GPU 0).
    fn cache_gpu(node: usize) -> GpuRef {
        GpuRef::new(node, 0)
    }

    /// Cross-node planning: one NIC per TP rank.
    fn xnode_cfg(&self) -> PlanConfig {
        PlanConfig {
            parallel_nics: self.tp > 1,
            max_paths: self.tp as usize,
            ..PlanConfig::grouter()
        }
    }
}

impl DataPlane for MooncakePlane {
    fn name(&self) -> &'static str {
        "Mooncake+"
    }

    fn put(
        &mut self,
        ctx: &mut PlaneCtx<'_>,
        token: AccessToken,
        source: Destination,
        bytes: f64,
        consumers: u32,
    ) -> Result<PutOp, StoreError> {
        match source {
            Destination::Gpu(g) => {
                let cache = Self::cache_gpu(g.node);
                let (alloc_lat, mut legs) = match ctx.pool(cache).try_alloc(bytes) {
                    Ok(grant) => (grant.latency, Vec::new()),
                    Err(AllocError::NeedsEviction { shortfall }) => {
                        let legs = evict_lru(ctx, cache, shortfall, &self.single);
                        let grant = ctx
                            .pool(cache)
                            .try_alloc(bytes)
                            .expect("eviction freed space");
                        (grant.latency, legs)
                    }
                    Err(AllocError::TooLarge) => {
                        let (id, lookup) =
                            ctx.store
                                .put(ctx.now, token, Location::Host(g.node), bytes, consumers);
                        return Ok(PutOp {
                            id,
                            op: DataOp {
                                control_latency: lookup,
                                legs: vec![common::leg_d2h(ctx, g, bytes, &self.single)],
                            },
                        });
                    }
                };
                let (id, lookup) =
                    ctx.store
                        .put(ctx.now, token, Location::Gpu(cache), bytes, consumers);
                if let Some(leg) =
                    common::leg_intra(ctx, g.node, g.gpu, cache.gpu, bytes, &self.single)
                {
                    legs.push(leg);
                }
                Ok(PutOp {
                    id,
                    op: DataOp {
                        control_latency: lookup + alloc_lat,
                        legs,
                    },
                })
            }
            Destination::Host(n) => {
                let (id, lookup) =
                    ctx.store
                        .put(ctx.now, token, Location::Host(n), bytes, consumers);
                Ok(PutOp {
                    id,
                    op: DataOp::control_only(lookup),
                })
            }
        }
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
        let mut legs = Vec::new();
        match (entry.location, dest) {
            (Location::Gpu(s), Destination::Gpu(d)) => {
                if s.node == d.node {
                    if let Some(leg) =
                        common::leg_intra(ctx, s.node, s.gpu, d.gpu, entry.bytes, &self.single)
                    {
                        legs.push(leg);
                    } else {
                        return Ok(DataOp::control_only(
                            lookup + grouter_sim::params::IPC_MAP_CACHED,
                        ));
                    }
                } else {
                    // Cache(A) → cache(B) over the TP ranks' NICs, then the
                    // local relay to the consumer.
                    let remote_cache = Self::cache_gpu(d.node);
                    legs.push(common::leg_xnode(
                        ctx,
                        s,
                        remote_cache,
                        entry.bytes,
                        &self.xnode_cfg(),
                    ));
                    if let Some(leg) = common::leg_intra(
                        ctx,
                        d.node,
                        remote_cache.gpu,
                        d.gpu,
                        entry.bytes,
                        &self.single,
                    ) {
                        legs.push(leg);
                    }
                }
            }
            (Location::Gpu(s), Destination::Host(n)) => {
                legs.push(common::leg_d2h(ctx, s, entry.bytes, &self.single));
                if s.node != n {
                    legs.push(common::leg_hh(ctx, s.node, n, entry.bytes));
                }
            }
            (Location::Host(h), Destination::Gpu(d)) => {
                if h != d.node {
                    legs.push(common::leg_hh(ctx, h, d.node, entry.bytes));
                }
                legs.push(common::leg_h2d(ctx, d, entry.bytes, &self.single));
            }
            (Location::Host(a), Destination::Host(b)) => {
                if a == b {
                    legs.push(common::leg_shm(ctx, a, entry.bytes));
                } else {
                    legs.push(common::leg_hh(ctx, a, b, entry.bytes));
                }
            }
        }
        Ok(DataOp {
            control_latency: lookup,
            legs,
        })
    }

    fn on_consumed(&mut self, ctx: &mut PlaneCtx<'_>, id: DataId) -> Vec<DataOp> {
        gc_consumed(ctx, id);
        Vec::new()
    }

    fn on_memory_change(&mut self, ctx: &mut PlaneCtx<'_>, gpu: GpuRef) -> Vec<DataOp> {
        let over = ctx.pool(gpu).used() - ctx.pool(gpu).storage_cap();
        if over <= 0.0 {
            return Vec::new();
        }
        let legs = evict_lru(ctx, gpu, over, &self.single);
        if legs.is_empty() {
            Vec::new()
        } else {
            vec![DataOp {
                control_latency: SimDuration::ZERO,
                legs,
            }]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grouter_runtime::dataplane::PlaneEnv;
    use grouter_sim::time::SimTime;
    use grouter_store::{FunctionId, WorkflowId};
    use grouter_topology::presets;

    fn token() -> AccessToken {
        AccessToken {
            function: FunctionId(1),
            workflow: WorkflowId(1),
        }
    }

    #[test]
    fn kv_lands_on_the_cache_gpu() {
        let mut env = PlaneEnv::new(presets::h800x8(), 1);
        let mut plane = MooncakePlane::new(1);
        let put = plane
            .put(
                &mut env.ctx(SimTime::ZERO),
                token(),
                Destination::Gpu(GpuRef::new(0, 5)),
                2e9,
                1,
            )
            .unwrap();
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
        let mut plane1 = MooncakePlane::new(1);
        let mut plane8 = MooncakePlane::new(8);
        let put = plane1
            .put(
                &mut env.ctx(SimTime::ZERO),
                token(),
                Destination::Gpu(GpuRef::new(0, 0)),
                2e9,
                2,
            )
            .unwrap();
        let g1 = plane1
            .get(
                &mut env.ctx(SimTime::ZERO),
                token(),
                put.id,
                Destination::Gpu(GpuRef::new(1, 3)),
            )
            .unwrap();
        let g8 = plane8
            .get(
                &mut env.ctx(SimTime::ZERO),
                token(),
                put.id,
                Destination::Gpu(GpuRef::new(1, 3)),
            )
            .unwrap();
        let flows1 = g1.legs[0].plan.flows.len();
        let flows8 = g8.legs[0].plan.flows.len();
        assert_eq!(flows1, 1, "TP=1 uses a single NIC");
        assert!(flows8 > 2, "TP=8 fans over NICs, got {flows8}");
    }

    #[test]
    #[should_panic(expected = "tensor parallelism")]
    fn zero_tp_rejected() {
        let _ = MooncakePlane::new(0);
    }
}
