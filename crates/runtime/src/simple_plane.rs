//! The placement-blind GPU store: one data plane, set by data.
//!
//! [`StorePlane`] keeps a GPU producer's output in the pool of one GPU of
//! the producer's node and moves it one hop at a time over single paths:
//! LRU eviction to host memory relieves a full pool, and an object no pool
//! can hold spills to host memory. Its configurations differ only in data:
//!
//! * a [`StoreSite`], the GPU of a node that holds objects: the producer's
//!   own, a random one, or the node's cache GPU. A cross-node `Get` first
//!   lands the object on the site of the consumer's node, then relays it;
//! * the gFn–host planner, for spills, evictions and host–GPU `Get`s;
//! * the cross-node planner;
//! * whether the store pulls host data into a site GPU before relaying it
//!   to the consumer (storage-driven loads).
//!
//! [`StorePlane::new`] is the locality configuration ([`LocalityPlane`]),
//! which the `serve` cluster mode runs: an output stays on the GPU that
//! produced it and moves once, straight to its consumer. It is not one of
//! the paper's systems: GROUTER adds bandwidth harvesting, topology-aware
//! multi-path transfers and elastic storage on top of it.
//! `grouter-baselines` builds the paper's NVSHMEM+, DeepPlan+ and Mooncake+
//! as three more configurations.

use grouter_mem::{AllocError, EvictionPolicy, LruPolicy, ObjectMeta};
use grouter_sim::rng::DetRng;
use grouter_sim::time::SimDuration;
use grouter_store::{AccessToken, DataId, Location, StoreError};
use grouter_topology::{GpuRef, Topology};
use grouter_transfer::plan::PlanConfig;

use crate::dataplane::{DataOp, DataPlane, Destination, OpLeg, PlaneCtx, PutOp};

/// The GPU of each node that a [`StoreSite::Cache`] store keeps objects on.
const CACHE_GPU: usize = 0;

/// Which GPU of a node holds a stored object.
#[derive(Debug)]
pub enum StoreSite {
    /// The GPU named: the producer on `Put`, the consumer on a cross-node
    /// `Get`.
    Local,
    /// A uniformly random GPU of the named GPU's node, drawn per object
    /// (a store blind to function placement).
    Random(DetRng),
    /// GPU 0 of the named GPU's node (a per-node cache GPU).
    Cache,
}

impl StoreSite {
    /// The site on `named`'s node.
    pub fn pick(&mut self, topo: &Topology, named: GpuRef) -> GpuRef {
        match self {
            StoreSite::Local => named,
            StoreSite::Random(rng) => GpuRef::new(
                named.node,
                rng.next_below(topo.gpus_per_node() as u64) as usize,
            ),
            StoreSite::Cache => GpuRef::new(named.node, CACHE_GPU),
        }
    }
}

/// GPU-side store with single-path gFn–gFn legs and LRU eviction.
#[derive(Debug)]
pub struct StorePlane {
    /// Name in reports.
    pub name: &'static str,
    pub site: StoreSite,
    /// Planner for gFn–host legs: spills, evictions and host–GPU `Get`s.
    pub host_cfg: PlanConfig,
    /// Planner for GPU-to-GPU legs between nodes.
    pub xnode_cfg: PlanConfig,
    /// A host-to-GPU `Get` is pulled by the store into the site GPU of the
    /// consumer's node, then relayed to the consumer.
    pub storage_pull_relay: bool,
}

/// The locality configuration's name in signatures: [`StorePlane::new`].
pub type LocalityPlane = StorePlane;

impl StorePlane {
    /// The locality configuration: the producer's GPU holds its outputs,
    /// every leg takes a single path.
    pub fn new() -> StorePlane {
        StorePlane {
            name: "Locality",
            site: StoreSite::Local,
            host_cfg: PlanConfig::single_path(),
            xnode_cfg: PlanConfig::single_path(),
            storage_pull_relay: false,
        }
    }
}

impl Default for StorePlane {
    fn default() -> Self {
        Self::new()
    }
}

/// Free at least `need` bytes of `gpu`'s pool by migrating LRU victims to
/// host memory, each move planned with `cfg`. Returns the migration legs. A
/// victim that vanished from the store or cannot move is skipped, not
/// fatal.
fn evict_lru(ctx: &mut PlaneCtx<'_>, gpu: GpuRef, need: f64, cfg: &PlanConfig) -> Vec<OpLeg> {
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
        legs.push(OpLeg::d2h(ctx, gpu, bytes, cfg));
        ctx.pool(gpu).free(bytes);
    }
    legs
}

/// Release a fully consumed object's pool space: the `on_consumed` body of
/// planes that keep no state of their own about stored objects.
pub fn gc_consumed(ctx: &mut PlaneCtx<'_>, id: DataId) {
    let stored = ctx.store.peek(id).map(|e| (e.location, e.bytes));
    if ctx.store.consumed(id) {
        if let Some((Location::Gpu(g), bytes)) = stored {
            ctx.pool(g).free(bytes);
        }
    }
}

impl DataPlane for StorePlane {
    fn name(&self) -> &'static str {
        self.name
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
        let site = self.site.pick(ctx.topo, g);
        let mut legs = Vec::new();
        let grant = match ctx.pool(site).try_alloc(bytes) {
            Err(AllocError::NeedsEviction { shortfall }) => {
                legs = evict_lru(ctx, site, shortfall, &self.host_cfg);
                ctx.pool(site).try_alloc(bytes)
            }
            first => first,
        };
        let Ok(grant) = grant else {
            // The pool cannot hold the object: spill it to host memory.
            let (id, lookup) =
                ctx.store
                    .put(ctx.now, token, Location::Host(g.node), bytes, consumers);
            legs.push(OpLeg::d2h(ctx, g, bytes, &self.host_cfg));
            return Ok(PutOp {
                id,
                op: DataOp {
                    control_latency: lookup,
                    legs,
                },
            });
        };
        let (id, lookup) = ctx
            .store
            .put(ctx.now, token, Location::Gpu(site), bytes, consumers);
        // Relay copy producer → site, unless the site is the producer.
        legs.extend(OpLeg::intra(ctx, g.node, g.gpu, site.gpu, bytes));
        Ok(PutOp {
            id,
            op: DataOp {
                control_latency: lookup + grant.latency,
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
        let (entry, lookup) = ctx.store.resolve(ctx.now, dest.node_of(), token, id)?;
        if let (Location::Gpu(s), Destination::Gpu(d)) = (entry.location, dest) {
            if s == d {
                return Ok(DataOp::control_only(
                    lookup + grouter_sim::params::IPC_MAP_CACHED,
                ));
            }
        }
        let bytes = entry.bytes;
        // Each list is allocated at its final length: most gets carry one
        // leg.
        let legs = match (entry.location, dest) {
            (Location::Gpu(s), Destination::Gpu(d)) if s.node == d.node => {
                OpLeg::intra(ctx, d.node, s.gpu, d.gpu, bytes)
                    .into_iter()
                    .collect()
            }
            (Location::Gpu(s), Destination::Gpu(d)) => {
                // Functions reach only their own node's store: the object
                // crosses to the site of the consumer's node, then relays to
                // the consumer.
                let via = self.site.pick(ctx.topo, d);
                let mut legs = Vec::with_capacity(1 + usize::from(via != d));
                legs.push(OpLeg::cross_node(ctx, s, via, bytes, &self.xnode_cfg));
                legs.extend(OpLeg::intra(ctx, d.node, via.gpu, d.gpu, bytes));
                legs
            }
            (Location::Gpu(s), Destination::Host(n)) => {
                let mut legs = Vec::with_capacity(1 + usize::from(s.node != n));
                legs.push(OpLeg::d2h(ctx, s, bytes, &self.host_cfg));
                if s.node != n {
                    legs.push(OpLeg::host_to_host(ctx, s.node, n, bytes));
                }
                legs
            }
            (Location::Host(h), Destination::Gpu(d)) => {
                let to = if self.storage_pull_relay {
                    self.site.pick(ctx.topo, d)
                } else {
                    d
                };
                let mut legs =
                    Vec::with_capacity(1 + usize::from(h != d.node) + usize::from(to != d));
                if h != d.node {
                    legs.push(OpLeg::host_to_host(ctx, h, d.node, bytes));
                }
                legs.push(OpLeg::h2d(ctx, to, bytes, &self.host_cfg));
                legs.extend(OpLeg::intra(ctx, d.node, to.gpu, d.gpu, bytes));
                legs
            }
            (Location::Host(a), Destination::Host(b)) => {
                vec![OpLeg::host_to_host(ctx, a, b, bytes)]
            }
        };
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
        let legs = evict_lru(ctx, gpu, over, &self.host_cfg);
        if legs.is_empty() {
            return Vec::new();
        }
        vec![DataOp {
            control_latency: SimDuration::ZERO,
            legs,
        }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataplane::PlaneEnv;
    use grouter_sim::params;
    use grouter_sim::time::SimTime;
    use grouter_store::{FunctionId, WorkflowId};
    use grouter_topology::presets;

    const TOKEN: AccessToken = AccessToken {
        function: FunctionId(1),
        workflow: WorkflowId(1),
    };

    /// A 16 MB object put by a function on `producer`.
    fn put(env: &mut PlaneEnv, plane: &mut StorePlane, producer: GpuRef) -> PutOp {
        plane
            .put(
                &mut env.ctx(SimTime::ZERO),
                TOKEN,
                Destination::Gpu(producer),
                16e6,
                1,
            )
            .expect("put")
    }

    #[test]
    fn a_gpu_put_stays_on_the_producer_with_no_legs() {
        let mut env = PlaneEnv::new(presets::dgx_v100(), 1);
        let mut plane = LocalityPlane::new();
        let producer = GpuRef::new(0, 3);
        let put = put(&mut env, &mut plane, producer);
        assert!(put.op.legs.is_empty());
        assert_eq!(
            env.store.peek(put.id).map(|e| e.location),
            Some(Location::Gpu(producer))
        );
        assert_eq!(env.pools[3].used(), 16e6);
    }

    #[test]
    fn a_put_that_eviction_cannot_make_room_for_spills_to_host() {
        let mut env = PlaneEnv::new(presets::dgx_v100(), 1);
        let mut plane = LocalityPlane::new();
        // Pool space held by no stored object, so there is nothing to evict.
        let cap = env.pools[2].storage_cap();
        env.pools[2].try_alloc(cap - 8e6).expect("fill the pool");
        let put = put(&mut env, &mut plane, GpuRef::new(0, 2));
        assert_eq!(
            env.store.peek(put.id).map(|e| e.location),
            Some(Location::Host(0))
        );
        assert_eq!(put.op.legs.len(), 1, "the spill's device-to-host copy");
    }

    #[test]
    fn a_same_gpu_get_maps_the_cached_address_only() {
        let mut env = PlaneEnv::new(presets::dgx_v100(), 1);
        let mut plane = LocalityPlane::new();
        let gpu = GpuRef::new(0, 5);
        let put = put(&mut env, &mut plane, gpu);
        let get = plane
            .get(
                &mut env.ctx(SimTime::ZERO),
                TOKEN,
                put.id,
                Destination::Gpu(gpu),
            )
            .expect("get");
        assert!(get.legs.is_empty());
        // The producer's node already caches the object's mapping.
        assert_eq!(
            get.control_latency,
            params::LOCAL_TABLE_LOOKUP + params::IPC_MAP_CACHED
        );
    }

    #[test]
    fn a_cross_node_get_is_one_single_nic_leg_to_the_consumer() {
        let mut env = PlaneEnv::new(presets::dgx_v100(), 2);
        let mut plane = LocalityPlane::new();
        let producer = GpuRef::new(0, 1);
        let put = put(&mut env, &mut plane, producer);
        let consumer = GpuRef::new(1, 6);
        let get = plane
            .get(
                &mut env.ctx(SimTime::ZERO),
                TOKEN,
                put.id,
                Destination::Gpu(consumer),
            )
            .expect("get");
        // No relay through a store GPU of the consumer's node.
        assert_eq!(get.legs.len(), 1);
        let leg = &get.legs[0];
        assert_eq!(leg.nv_node, producer.node);
        assert_eq!(leg.plan.flows.len(), 1, "a single NIC path");
        let direct = grouter_transfer::plan::plan_cross_node(
            &env.topo,
            &env.net,
            producer,
            consumer,
            16e6,
            &PlanConfig::single_path(),
        );
        assert_eq!(leg.plan.flows[0].links, direct.flows[0].links);
    }
}
