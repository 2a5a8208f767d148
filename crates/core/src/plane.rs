//! The GROUTER data plane (paper §4).
//!
//! [`GrouterPlane`] implements [`DataPlane`] with all four components:
//!
//! 1. **Unified data-passing framework** — `Put` detects the producer's GPU
//!    and stores the object *there* (zero-copy via CUDA IPC address
//!    sharing); `Get` resolves the object and moves it once, directly to
//!    the consumer, choosing the pattern-appropriate engine (§4.2).
//! 2. **Fine-grained bandwidth harvesting** — gFn–host traffic fans out
//!    over route-GPU PCIe links, cross-node traffic over multiple NICs;
//!    SLO transfers receive `Rate_least` floors and the tightest SLO gets
//!    the idle bandwidth (§4.3.2).
//! 3. **Topology-aware transfer scheduling** — intra-node transfers use
//!    Algorithm 1 over the node's bandwidth matrix, reserving parallel
//!    NVLink paths that are released when the transfer completes (§4.3.3).
//! 4. **Elastic storage** — pool sizing follows the pre-warm scaler,
//!    migration is request-queue-aware, and migrated objects are restored
//!    proactively when memory frees up (§4.4).

use std::collections::{BTreeMap, BTreeSet};

use grouter_mem::{
    AllocError, EvictionPolicy, GrouterPolicy, LruPolicy, ObjectMeta, RestoreQueue, VictimHeap,
};
use grouter_runtime::dataplane::{
    DataOp, DataPlane, Destination, LegHealth, OpLeg, PlaneCtx, PlaneStats, PutOp,
};
use grouter_runtime::simple_plane::StoreSite;
use grouter_sim::rng::DetRng;
use grouter_sim::time::SimDuration;
use grouter_store::{AccessToken, DataId, Location, StoreError};
use grouter_topology::GpuRef;
use grouter_transfer::plan::{
    nvlink_route_links, plan_intra_node, PlanConfig, PlannedFlow, TransferPlan,
};

use crate::config::GrouterConfig;

/// Proactive restores fill a pool only up to this fraction of its storage
/// capacity (§4.4.2).
const RESTORE_HEADROOM: f64 = 0.7;

/// The GPU-centric data plane.
#[derive(Debug)]
pub struct GrouterPlane {
    cfg: GrouterConfig,
    /// Where a GPU `Put` stores: the producer's GPU with the unified
    /// framework, a random GPU of its node (NVSHMEM-style) without it.
    site: StoreSite,
    /// Objects migrated to host memory and the GPU they should return to.
    /// An object is tracked from the moment `migrate` moves it off its GPU
    /// until `restores` brings it back or `on_consumed` drops it, so an
    /// object resident on a GPU is never tracked.
    migrated_home: BTreeMap<u64, GpuRef>,
    /// The same objects grouped by home GPU, so that restoring to one GPU
    /// walks only the objects that belong there.
    migrated_by_home: BTreeMap<GpuRef, BTreeSet<u64>>,
    /// `migrate`'s buffers, kept between calls: the GPU's residents as the
    /// policy sees them, the selection heap and the chosen victims.
    victim_metas: Vec<ObjectMeta>,
    victim_heap: VictimHeap,
    victims: Vec<u64>,
    /// `restores`' candidates, taken soonest-needed first.
    restore_queue: RestoreQueue,
    stats: PlaneStats,
}

impl GrouterPlane {
    pub fn new(cfg: GrouterConfig) -> GrouterPlane {
        GrouterPlane {
            cfg,
            site: if cfg.unified_framework {
                StoreSite::Local
            } else {
                StoreSite::Random(DetRng::new(0x6706_7265))
            },
            migrated_home: BTreeMap::new(),
            migrated_by_home: BTreeMap::new(),
            victim_metas: Vec::new(),
            victim_heap: VictimHeap::default(),
            victims: Vec::new(),
            restore_queue: RestoreQueue::default(),
            stats: PlaneStats::default(),
        }
    }

    pub fn config(&self) -> GrouterConfig {
        self.cfg
    }

    /// Record `id` as migrated to host memory from `home`.
    fn track_migrated(&mut self, id: u64, home: GpuRef) {
        self.migrated_home.insert(id, home);
        self.migrated_by_home.entry(home).or_default().insert(id);
    }

    /// Forget a migrated object (restored or consumed); returns its home.
    fn untrack_migrated(&mut self, id: u64) -> Option<GpuRef> {
        let home = self.migrated_home.remove(&id)?;
        if let Some(ids) = self.migrated_by_home.get_mut(&home) {
            ids.remove(&id);
        }
        Some(home)
    }

    /// Stage a host-bound leg through the node's circular pinned buffer
    /// (§4.3.2): reuse is free; overflow falls back to an ad-hoc pinned
    /// allocation whose latency is added to the leg setup.
    fn apply_pinned(&self, ctx: &mut PlaneCtx<'_>, leg: &mut OpLeg) {
        let node = leg.nv_node;
        let want = grouter_sim::params::PINNED_STAGE_BYTES.min(leg.plan.total_bytes);
        if want <= 0.0 {
            return;
        }
        let grant = ctx.pinned[node].acquire(want);
        leg.plan.setup = leg.plan.setup + grant.latency;
        if !grant.pinned_fresh {
            leg.pinned_release = Some((node, want));
        }
    }

    /// Attach `Rate_least` floors and the tightest-SLO weight to a PCIe/NIC
    /// leg (§4.3.2). No-op without bandwidth harvesting or without an SLO.
    fn apply_slo(&self, ctx: &mut PlaneCtx<'_>, leg: &mut OpLeg) {
        if !self.cfg.bandwidth_harvesting {
            return;
        }
        let Some(slo) = ctx.slo else {
            return;
        };
        if leg.plan.flows.is_empty() || leg.plan.total_bytes <= 0.0 {
            return;
        }
        let node = leg.nv_node;
        // The bandwidth domain is what this plan can reach: the sum of its
        // paths' bottleneck capacities.
        let domain_bw: f64 = leg
            .plan
            .flows
            .iter()
            .map(|f| {
                f.links
                    .iter()
                    .map(|&l| ctx.net.link_capacity(l))
                    .fold(f64::INFINITY, f64::min)
            })
            .sum();
        let token = ctx.rates[node].register(ctx.now, leg.plan.total_bytes, slo);
        for flow in &mut leg.plan.flows {
            flow.opts = ctx.rates[node].flow_options(token, flow.bytes, domain_bw);
        }
        leg.rate_token = Some((node, token));
        if ctx.trace.on(grouter_obs::Comp::Plane) {
            use grouter_transfer::rate::{rate_least_typed, RateLeast};
            let guaranteed = matches!(
                rate_least_typed(leg.plan.total_bytes, slo, domain_bw),
                RateLeast::Guaranteed(_)
            );
            let floor: f64 = leg.plan.flows.iter().map(|f| f.opts.floor).sum();
            let weight = leg.plan.flows.first().map_or(0.0, |f| f.opts.weight);
            ctx.trace.instant(
                grouter_obs::Comp::Plane,
                "rate_clamp",
                grouter_obs::Ids::NONE.with_flow(token),
                vec![
                    ("node", node.into()),
                    ("bytes", leg.plan.total_bytes.into()),
                    ("domain_bw", domain_bw.into()),
                    ("floor", floor.into()),
                    ("weight", weight.into()),
                    ("guaranteed", guaranteed.into()),
                ],
            );
            ctx.trace.count(grouter_obs::Comp::Plane, "rate_clamps", 1);
        }
    }

    /// Build an intra-node gFn–gFn leg through the node's reservation
    /// ledger: Algorithm 1 path selection with direct-path priority —
    /// indirect occupants of the direct edge are reassigned to alternative
    /// routes (§4.3.3), and the executor re-paths their in-flight flows.
    fn ledger_intra_leg(
        &mut self,
        ctx: &mut PlaneCtx<'_>,
        node: usize,
        src: usize,
        dst: usize,
        bytes: f64,
    ) -> OpLeg {
        use grouter_sim::params;
        let max_hops = if ctx.topo.has_nvswitch() {
            1
        } else {
            self.cfg.max_hops
        };
        let (res, sel, rebalances) =
            ctx.ledgers[node].reserve(src, dst, max_hops, self.cfg.max_paths);
        // Resolve each selected GPU route to its links up front. A hop
        // without an NVLink edge cannot happen while the path cache is
        // epoch-coherent with the topology; if it ever does, that path is
        // dropped and planning degrades rather than crashing the data plane.
        // Routes move into the planned flows instead of being re-cloned per
        // path, and each flow carries its selected rate as the capacity its
        // byte share is split by.
        let mut flows: Vec<PlannedFlow> = sel
            .paths
            .into_iter()
            .filter_map(|p| {
                Some(PlannedFlow {
                    links: nvlink_route_links(ctx.topo, node, &p.gpus)?,
                    bytes: p.rate,
                    opts: Default::default(),
                    nv_reservation: None, // the ledger owns the reservation
                    route: Some(p.gpus),
                })
            })
            .collect();
        if flows.is_empty() {
            // No NVLink route (all masked out by failures, or none existed):
            // fall back to the single-path planner (PCIe peer-to-peer or
            // shortest route). The leg is typed Degraded so the executor's
            // recovery log and the plane stats surface the downgrade instead
            // of silently absorbing it.
            let single = PlanConfig::single_path();
            let plan = plan_intra_node(ctx.topo, ctx.net, None, node, src, dst, bytes, &single);
            ctx.ledgers[node].release(res);
            self.stats.degraded_legs += 1;
            return OpLeg {
                health: LegHealth::Degraded,
                ..OpLeg::new(plan, node)
            };
        }
        grouter_transfer::chunk::split_in_place(bytes, &mut flows, |f| &mut f.bytes);
        let plan = TransferPlan {
            flows,
            setup: params::IPC_MAP_FIRST + params::DMA_LAUNCH + params::CHUNK_OVERHEAD,
            total_bytes: bytes,
        };
        let mut leg = OpLeg::new(plan, node);
        leg.ledger_release = Some((node, res));
        leg.reroutes = rebalances.into_iter().map(|rb| (node, rb)).collect();
        leg
    }

    /// Allocate `bytes` of pool space on `gpu`, migrating victims to host
    /// memory if needed (queue-aware with ES, LRU without). Returns the
    /// allocation latency and the migration legs; `Err(())` when the object
    /// can never fit (caller falls back to host storage).
    fn alloc(
        &mut self,
        ctx: &mut PlaneCtx<'_>,
        gpu: GpuRef,
        bytes: f64,
    ) -> Result<(SimDuration, Vec<OpLeg>), ()> {
        let idx = ctx.pool_index(gpu);
        match ctx.pools[idx].try_alloc(bytes) {
            Ok(grant) => Ok((grant.latency, Vec::new())),
            Err(AllocError::NeedsEviction { shortfall }) => {
                let legs = self.migrate(ctx, gpu, shortfall);
                match ctx.pools[idx].try_alloc(bytes) {
                    Ok(grant) => Ok((grant.latency, legs)),
                    Err(_) => Err(()),
                }
            }
            Err(AllocError::TooLarge) => Err(()),
        }
    }

    /// Migrate at least `need` bytes off `gpu` to host memory.
    fn migrate(&mut self, ctx: &mut PlaneCtx<'_>, gpu: GpuRef, need: f64) -> Vec<OpLeg> {
        self.victim_metas.clear();
        self.victim_metas.extend(
            ctx.store
                .resident_at(Location::Gpu(gpu))
                .map(|e| ObjectMeta {
                    key: e.id.0,
                    bytes: e.bytes,
                    last_access: e.last_access,
                    next_use: e.next_use,
                }),
        );
        let policy: &dyn EvictionPolicy = if self.cfg.elastic_storage {
            &GrouterPolicy
        } else {
            &LruPolicy
        };
        let mut victims = std::mem::take(&mut self.victims);
        policy.take_victims(
            &self.victim_metas,
            need,
            &mut self.victim_heap,
            &mut victims,
        );
        let host_cfg = self.cfg.host_cfg();
        let mut legs = Vec::new();
        for &v in &victims {
            let id = DataId(v);
            // Victims were selected from the store's entries above, so
            // both lookups hold; a vanished victim is skipped, not fatal.
            let Some(bytes) = ctx.store.peek(id).map(|e| e.bytes) else {
                continue;
            };
            if ctx.store.relocate(id, Location::Host(gpu.node)).is_err() {
                continue;
            }
            legs.push(OpLeg::d2h(ctx, gpu, bytes, &host_cfg));
            let idx = ctx.pool_index(gpu);
            ctx.pools[idx].free(bytes);
            self.stats.migrations += 1;
            if self.cfg.elastic_storage {
                self.track_migrated(v, gpu);
            }
        }
        self.victims = victims;
        legs
    }

    /// Proactively restore migrated objects to `gpu` while pool space
    /// allows (§4.4.2). Soonest-needed first; each restoration is its own
    /// background operation.
    fn restores(&mut self, ctx: &mut PlaneCtx<'_>, gpu: GpuRef) -> Vec<DataOp> {
        if !self.cfg.elastic_storage || !self.cfg.proactive_restore {
            return Vec::new();
        }
        // Past the headroom line no candidate fits (see the loop below), so
        // skip collecting and ordering them.
        let idx = ctx.pool_index(gpu);
        if ctx.pools[idx].used() > RESTORE_HEADROOM * ctx.pools[idx].storage_cap() {
            return Vec::new();
        }
        let Some(homed_here) = self.migrated_by_home.get(&gpu) else {
            return Vec::new();
        };
        let store = &*ctx.store;
        self.restore_queue
            .refill(homed_here.iter().filter_map(|&id| {
                let entry = store.peek(DataId(id))?;
                if !matches!(entry.location, Location::Host(_)) {
                    return None;
                }
                Some(ObjectMeta {
                    key: id,
                    bytes: entry.bytes,
                    last_access: entry.last_access,
                    next_use: entry.next_use,
                })
            }));
        let host_cfg = self.cfg.host_cfg();
        let mut ops = Vec::new();
        // Soonest-needed first, taken one at a time: the loop stops at the
        // first candidate that does not fit, so only what it restores is
        // ordered, the same sequence a full sort would start with.
        while let Some(key) = self.restore_queue.pop_soonest() {
            let id = DataId(key);
            // Candidates come from the store scan above; a candidate that
            // vanished in between is skipped, not fatal.
            let Some(bytes) = ctx.store.peek(id).map(|e| e.bytes) else {
                continue;
            };
            // Leave headroom for incoming puts: restoring into a full pool
            // would just force the next put to evict again (thrash), and the
            // restore traffic would contend with critical-path transfers.
            if ctx.pools[idx].used() + bytes > RESTORE_HEADROOM * ctx.pools[idx].storage_cap() {
                break;
            }
            let Ok(grant) = ctx.pools[idx].try_alloc(bytes) else {
                break; // no headroom; stop restoring
            };
            if ctx.store.relocate(id, Location::Gpu(gpu)).is_err() {
                // Undo the reservation; the object is gone from the store.
                ctx.pools[idx].free(bytes);
                continue;
            }
            self.untrack_migrated(key);
            self.stats.restores += 1;
            ops.push(DataOp {
                control_latency: grant.latency,
                legs: vec![OpLeg::h2d(ctx, gpu, bytes, &host_cfg)],
            });
        }
        ops
    }

    /// Track demand and resize the pool toward the pre-warm target (§4.4.1).
    fn resize_pool(&self, ctx: &mut PlaneCtx<'_>, gpu: GpuRef) {
        if !self.cfg.elastic_storage {
            return;
        }
        let idx = ctx.pool_index(gpu);
        let target = ctx.scalers[idx].target_bytes(ctx.now);
        if target > ctx.pools[idx].reserved() {
            ctx.pools[idx].prewarm_toward(target);
        } else {
            ctx.pools[idx].reclaim_toward(target);
        }
    }
}

impl DataPlane for GrouterPlane {
    fn name(&self) -> &'static str {
        "GROUTER"
    }

    fn put(
        &mut self,
        ctx: &mut PlaneCtx<'_>,
        token: AccessToken,
        source: Destination,
        bytes: f64,
        consumers: u32,
    ) -> Result<PutOp, StoreError> {
        let g = match source {
            Destination::Gpu(g) => g,
            Destination::Host(n) => {
                let (id, lookup) =
                    ctx.store
                        .put(ctx.now, token, Location::Host(n), bytes, consumers);
                return Ok(PutOp {
                    id,
                    op: DataOp::control_only(lookup),
                });
            }
        };
        // Locality: keep the data on the producer's GPU. Without the unified
        // framework the store is placement-blind (random).
        let store_gpu = self.site.pick(ctx.topo, g);
        let Ok((alloc_lat, mut legs)) = self.alloc(ctx, store_gpu, bytes) else {
            // Oversized object: store in host memory.
            let (id, lookup) =
                ctx.store
                    .put(ctx.now, token, Location::Host(g.node), bytes, consumers);
            let mut leg = OpLeg::d2h(ctx, g, bytes, &self.cfg.host_cfg());
            self.apply_slo(ctx, &mut leg);
            self.apply_pinned(ctx, &mut leg);
            return Ok(PutOp {
                id,
                op: DataOp {
                    control_latency: lookup,
                    legs: vec![leg],
                },
            });
        };
        if self.cfg.elastic_storage {
            let idx = ctx.pool_index(store_gpu);
            ctx.scalers[idx].on_output(token.function.0, bytes);
        }
        let (id, lookup) =
            ctx.store
                .put(ctx.now, token, Location::Gpu(store_gpu), bytes, consumers);
        if store_gpu != g {
            // Relay copy (only without UF).
            let (src, dst) = (g.gpu, store_gpu.gpu);
            if self.cfg.topology_aware {
                legs.push(self.ledger_intra_leg(ctx, g.node, src, dst, bytes));
            } else {
                legs.extend(OpLeg::intra(
                    ctx,
                    g.node,
                    src,
                    dst,
                    bytes,
                    &self.cfg.intra_cfg(),
                ));
            }
        }
        Ok(PutOp {
            id,
            op: DataOp {
                control_latency: lookup + alloc_lat + grouter_sim::params::IPC_MAP_CACHED,
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
        let mut legs: Vec<OpLeg> = Vec::new();
        match (entry.location, dest) {
            (Location::Gpu(s), Destination::Gpu(d)) if s == d => {
                // Zero-copy address sharing (§4.2.2).
                return Ok(DataOp::control_only(
                    lookup + grouter_sim::params::IPC_MAP_CACHED,
                ));
            }
            (Location::Gpu(s), Destination::Gpu(d)) if s.node == d.node => {
                if self.cfg.topology_aware && ctx.topo.has_nvlink() {
                    legs.push(self.ledger_intra_leg(ctx, s.node, s.gpu, d.gpu, entry.bytes));
                } else {
                    let cfg = self.cfg.intra_cfg();
                    legs.extend(OpLeg::intra(ctx, s.node, s.gpu, d.gpu, entry.bytes, &cfg));
                }
            }
            (Location::Gpu(s), Destination::Gpu(d)) => {
                // Direct GDR, multi-NIC when harvesting (Fig. 9a).
                let mut leg = OpLeg::cross_node(ctx, s, d, entry.bytes, &self.cfg.xnode_cfg());
                if ctx.trace.on(grouter_obs::Comp::Plane) {
                    ctx.trace.instant(
                        grouter_obs::Comp::Plane,
                        "route_gpu",
                        grouter_obs::Ids::NONE,
                        vec![
                            ("src_node", s.node.into()),
                            ("src_gpu", s.gpu.into()),
                            ("dst_node", d.node.into()),
                            ("dst_gpu", d.gpu.into()),
                            ("paths", leg.plan.flows.len().into()),
                            ("bytes", entry.bytes.into()),
                        ],
                    );
                    ctx.trace
                        .count(grouter_obs::Comp::Plane, "route_gpu_selections", 1);
                }
                self.apply_slo(ctx, &mut leg);
                legs.push(leg);
            }
            (Location::Gpu(s), Destination::Host(n)) => {
                let mut leg = OpLeg::d2h(ctx, s, entry.bytes, &self.cfg.host_cfg());
                self.apply_slo(ctx, &mut leg);
                self.apply_pinned(ctx, &mut leg);
                legs.push(leg);
                if s.node != n {
                    legs.push(OpLeg::host_to_host(ctx, s.node, n, entry.bytes));
                }
            }
            (Location::Host(h), Destination::Gpu(d)) => {
                if h != d.node {
                    legs.push(OpLeg::host_to_host(ctx, h, d.node, entry.bytes));
                }
                let mut leg = OpLeg::h2d(ctx, d, entry.bytes, &self.cfg.host_cfg());
                self.apply_slo(ctx, &mut leg);
                self.apply_pinned(ctx, &mut leg);
                legs.push(leg);
            }
            (Location::Host(a), Destination::Host(b)) => {
                legs.push(OpLeg::host_to_host(ctx, a, b, entry.bytes));
            }
        }
        Ok(DataOp {
            control_latency: lookup,
            legs,
        })
    }

    fn on_consumed(&mut self, ctx: &mut PlaneCtx<'_>, id: DataId) -> Vec<DataOp> {
        let entry = ctx.store.peek(id).cloned();
        let mut freed_gpu = None;
        if ctx.store.consumed(id) {
            if let Some(entry) = entry {
                match entry.location {
                    Location::Gpu(g) => {
                        let idx = ctx.pool_index(g);
                        ctx.pools[idx].free(entry.bytes);
                        if self.cfg.elastic_storage {
                            ctx.scalers[idx].on_consumed(entry.producer.0);
                        }
                        freed_gpu = Some(g);
                    }
                    // A migrated object consumed straight from host memory:
                    // its pool bytes were freed at migration time, but the
                    // home GPU's pre-warm scaler still counts the output as
                    // live — without this release the leaked count inflates
                    // the concurrency p99 and the pool over-reserves forever.
                    Location::Host(_) => {
                        let home = self.untrack_migrated(id.0);
                        if self.cfg.elastic_storage {
                            if let Some(home) = home {
                                let idx = ctx.pool_index(home);
                                ctx.scalers[idx].on_consumed(entry.producer.0);
                            }
                        }
                    }
                }
            }
        }
        // Memory just freed: shrink toward target, then restore what fits.
        if let Some(g) = freed_gpu {
            self.resize_pool(ctx, g);
            return self.restores(ctx, g);
        }
        Vec::new()
    }

    fn on_memory_change(&mut self, ctx: &mut PlaneCtx<'_>, gpu: GpuRef) -> Vec<DataOp> {
        let idx = ctx.pool_index(gpu);
        let over = ctx.pools[idx].used() - ctx.pools[idx].storage_cap();
        if over > 0.0 {
            let legs = self.migrate(ctx, gpu, over);
            if legs.is_empty() {
                return Vec::new();
            }
            return vec![DataOp {
                control_latency: SimDuration::ZERO,
                legs,
            }];
        }
        self.restores(ctx, gpu)
    }

    fn stats(&self) -> PlaneStats {
        self.stats
    }

    fn on_request(&mut self, ctx: &mut PlaneCtx<'_>, stages: &[Destination]) {
        // Each GPU once, in the order of its first stage.
        for (i, dest) in stages.iter().enumerate() {
            if let Destination::Gpu(g) = *dest {
                if !stages.iter().take(i).any(|d| d == dest) {
                    self.resize_pool(ctx, g);
                }
            }
        }
    }
}
