//! A minimal reference data plane.
//!
//! [`LocalityPlane`] stores every output where it was produced (GPU outputs
//! in the producer's pool, CPU outputs in host memory) and serves every
//! `Get` over a single direct path. It exists to (a) document the
//! [`DataPlane`] contract with the simplest correct implementation,
//! (b) exercise the executor in this crate's tests without pulling in the
//! full GROUTER/baseline planes, and (c) host [`evict_lru`] and
//! [`gc_consumed`], which the baseline planes share.
//!
//! It is *not* one of the paper's systems: GROUTER adds bandwidth
//! harvesting, topology-aware multi-path transfers and elastic storage on
//! top of this locality baseline; the baselines degrade it in other
//! directions (host-only storage, random store GPU).

use grouter_mem::{AllocError, EvictionPolicy, LruPolicy, ObjectMeta};
use grouter_sim::time::SimDuration;
use grouter_store::{AccessToken, DataId, Location, StoreError};
use grouter_topology::GpuRef;
use grouter_transfer::plan::{
    plan_cross_node, plan_d2h, plan_h2d, plan_intra_node, plan_shm, PlanConfig, TransferPlan,
};

use crate::dataplane::{DataOp, DataPlane, Destination, OpLeg, PlaneCtx, PutOp};

/// Store-local, single-path data plane.
#[derive(Debug, Default)]
pub struct LocalityPlane;

impl LocalityPlane {
    pub fn new() -> LocalityPlane {
        LocalityPlane
    }
}

/// Free at least `need` bytes of `gpu`'s pool by migrating LRU victims to
/// host memory, each move planned with `cfg`. Returns the migration legs. A
/// victim that vanished from the store or cannot move is skipped, not
/// fatal. Shared by every plane that evicts to host.
pub fn evict_lru(ctx: &mut PlaneCtx<'_>, gpu: GpuRef, need: f64, cfg: &PlanConfig) -> Vec<OpLeg> {
    let metas: Vec<ObjectMeta> = ctx
        .store
        .resident_at(Location::Gpu(gpu))
        .map(|e| ObjectMeta {
            key: e.id.0,
            bytes: e.bytes,
            last_access: e.last_access,
            next_use: e.next_use,
        })
        .collect();
    let mut legs = Vec::new();
    for v in LruPolicy.select_victims(&metas, need) {
        let id = DataId(v);
        let Some(bytes) = ctx.store.peek(id).map(|e| e.bytes) else {
            continue;
        };
        if ctx.store.relocate(id, Location::Host(gpu.node)).is_err() {
            continue;
        }
        let plan = plan_d2h(ctx.topo, ctx.net, gpu.node, gpu.gpu, bytes, cfg);
        legs.push(OpLeg::new(plan, gpu.node));
        ctx.pool(gpu).free(bytes);
    }
    legs
}

/// Release a fully consumed object's pool space: the shared `on_consumed`
/// body of planes that keep no state of their own about stored objects.
pub fn gc_consumed(ctx: &mut PlaneCtx<'_>, id: DataId) {
    let stored = ctx.store.peek(id).map(|e| (e.location, e.bytes));
    if ctx.store.consumed(id) {
        if let Some((Location::Gpu(g), bytes)) = stored {
            ctx.pool(g).free(bytes);
        }
    }
}

impl DataPlane for LocalityPlane {
    fn name(&self) -> &'static str {
        "Locality"
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
                let mut legs = Vec::new();
                let mut control = SimDuration::ZERO;
                let grant = match ctx.pool(g).try_alloc(bytes) {
                    Ok(grant) => grant,
                    #[expect(
                        clippy::expect_used,
                        reason = "evict_lru() freed at least `shortfall`, so the retry cannot fail"
                    )]
                    Err(AllocError::NeedsEviction { shortfall }) => {
                        legs.extend(evict_lru(ctx, g, shortfall, &PlanConfig::single_path()));
                        ctx.pool(g).try_alloc(bytes).expect("eviction freed space")
                    }
                    Err(AllocError::TooLarge) => {
                        // Fall back to host storage for oversized objects.
                        let (id, lat) =
                            ctx.store
                                .put(ctx.now, token, Location::Host(g.node), bytes, consumers);
                        let plan = plan_d2h(
                            ctx.topo,
                            ctx.net,
                            g.node,
                            g.gpu,
                            bytes,
                            &PlanConfig::single_path(),
                        );
                        return Ok(PutOp {
                            id,
                            op: DataOp {
                                control_latency: lat,
                                legs: vec![OpLeg::new(plan, g.node)],
                            },
                        });
                    }
                };
                control = control + grant.latency;
                let (id, lat) = ctx
                    .store
                    .put(ctx.now, token, Location::Gpu(g), bytes, consumers);
                Ok(PutOp {
                    id,
                    op: DataOp {
                        control_latency: control + lat,
                        legs,
                    },
                })
            }
            Destination::Host(n) => {
                let (id, lat) = ctx
                    .store
                    .put(ctx.now, token, Location::Host(n), bytes, consumers);
                Ok(PutOp {
                    id,
                    op: DataOp::control_only(lat),
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
        let cfg = PlanConfig::single_path();
        let plan: TransferPlan = match (entry.location, dest) {
            (Location::Gpu(s), Destination::Gpu(d)) if s == d => {
                return Ok(DataOp::control_only(
                    lookup + grouter_sim::params::IPC_MAP_CACHED,
                ));
            }
            (Location::Gpu(s), Destination::Gpu(d)) if s.node == d.node => plan_intra_node(
                ctx.topo,
                ctx.net,
                None,
                s.node,
                s.gpu,
                d.gpu,
                entry.bytes,
                &cfg,
            ),
            (Location::Gpu(s), Destination::Gpu(d)) => {
                plan_cross_node(ctx.topo, ctx.net, s, d, entry.bytes, &cfg)
            }
            (Location::Host(n), Destination::Gpu(d)) if n == d.node => {
                plan_h2d(ctx.topo, ctx.net, d.node, d.gpu, entry.bytes, &cfg)
            }
            (Location::Host(n), Destination::Gpu(d)) => {
                // Remote host data: network hop, then PCIe up.
                let mut op = DataOp {
                    control_latency: lookup,
                    legs: vec![
                        OpLeg::new(
                            grouter_transfer::plan::plan_host_to_host(
                                ctx.topo,
                                ctx.net,
                                n,
                                d.node,
                                entry.bytes,
                            ),
                            n,
                        ),
                        OpLeg::new(
                            plan_h2d(ctx.topo, ctx.net, d.node, d.gpu, entry.bytes, &cfg),
                            d.node,
                        ),
                    ],
                };
                op.control_latency = lookup;
                return Ok(op);
            }
            (Location::Gpu(s), Destination::Host(n)) if s.node == n => {
                plan_d2h(ctx.topo, ctx.net, s.node, s.gpu, entry.bytes, &cfg)
            }
            (Location::Gpu(s), Destination::Host(n)) => {
                let mut legs = vec![OpLeg::new(
                    plan_d2h(ctx.topo, ctx.net, s.node, s.gpu, entry.bytes, &cfg),
                    s.node,
                )];
                legs.push(OpLeg::new(
                    grouter_transfer::plan::plan_host_to_host(
                        ctx.topo,
                        ctx.net,
                        s.node,
                        n,
                        entry.bytes,
                    ),
                    s.node,
                ));
                return Ok(DataOp {
                    control_latency: lookup,
                    legs,
                });
            }
            (Location::Host(a), Destination::Host(b)) if a == b => {
                plan_shm(ctx.topo, ctx.net, a, entry.bytes)
            }
            (Location::Host(a), Destination::Host(b)) => {
                grouter_transfer::plan::plan_host_to_host(ctx.topo, ctx.net, a, b, entry.bytes)
            }
        };
        Ok(DataOp {
            control_latency: lookup,
            legs: vec![OpLeg::new(plan, entry.location.node())],
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
        let legs = evict_lru(ctx, gpu, over, &PlanConfig::single_path());
        if legs.is_empty() {
            return Vec::new();
        }
        vec![DataOp {
            control_latency: SimDuration::ZERO,
            legs,
        }]
    }
}
