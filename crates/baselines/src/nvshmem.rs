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

use grouter_mem::AllocError;
use grouter_runtime::dataplane::{DataOp, DataPlane, Destination, PlaneCtx, PutOp};
use grouter_runtime::simple_plane::{evict_lru, gc_consumed};
use grouter_sim::rng::DetRng;
use grouter_sim::time::SimDuration;
use grouter_store::{AccessToken, DataId, Location, StoreError};
use grouter_topology::GpuRef;
use grouter_transfer::plan::PlanConfig;

use crate::common;

/// GPU-side store with random object placement.
#[derive(Debug)]
pub struct NvshmemPlane {
    rng: DetRng,
    /// gFn–host transfer planning (single path for NVSHMEM+, parallel PCIe
    /// for DeepPlan+ which reuses this plane).
    pub(crate) host_cfg: PlanConfig,
    /// gFn–gFn transfer planning (always single path).
    pub(crate) gpu_cfg: PlanConfig,
    /// DeepPlan+ only: the *storage service* performs host→GPU pulls, and —
    /// being blind to placement — stages into a random GPU first, then
    /// relays to the consumer (§6 "Baselines").
    pub(crate) storage_pull_relay: bool,
    name: &'static str,
}

impl NvshmemPlane {
    pub fn new(seed: u64) -> NvshmemPlane {
        NvshmemPlane {
            rng: DetRng::new(seed),
            host_cfg: PlanConfig::single_path(),
            gpu_cfg: PlanConfig::single_path(),
            storage_pull_relay: false,
            name: "NVSHMEM+",
        }
    }

    pub(crate) fn with_host_cfg(mut self, cfg: PlanConfig, name: &'static str) -> NvshmemPlane {
        self.host_cfg = cfg;
        self.storage_pull_relay = true;
        self.name = name;
        self
    }

    /// The store's placement choice: a uniformly random GPU on `node`.
    fn pick_store_gpu(&mut self, ctx: &PlaneCtx<'_>, node: usize) -> GpuRef {
        let g = self.rng.next_below(ctx.topo.gpus_per_node() as u64) as usize;
        GpuRef::new(node, g)
    }
}

impl DataPlane for NvshmemPlane {
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
        match source {
            Destination::Gpu(g) => {
                let store_gpu = self.pick_store_gpu(ctx, g.node);
                // Allocate symmetric-heap space; LRU-evict on pressure.
                let (alloc_lat, mut legs) = match ctx.pool(store_gpu).try_alloc(bytes) {
                    Ok(grant) => (grant.latency, Vec::new()),
                    Err(AllocError::NeedsEviction { shortfall }) => {
                        let legs = evict_lru(ctx, store_gpu, shortfall, &self.host_cfg);
                        let grant = ctx
                            .pool(store_gpu)
                            .try_alloc(bytes)
                            .expect("eviction freed space");
                        (grant.latency, legs)
                    }
                    Err(AllocError::TooLarge) => {
                        // Spill to host memory.
                        let (id, lookup) =
                            ctx.store
                                .put(ctx.now, token, Location::Host(g.node), bytes, consumers);
                        return Ok(PutOp {
                            id,
                            op: DataOp {
                                control_latency: lookup,
                                legs: vec![common::leg_d2h(ctx, g, bytes, &self.host_cfg)],
                            },
                        });
                    }
                };
                let (id, lookup) =
                    ctx.store
                        .put(ctx.now, token, Location::Gpu(store_gpu), bytes, consumers);
                // Relay copy producer → store GPU (zero-copy only by luck).
                if let Some(leg) =
                    common::leg_intra(ctx, g.node, g.gpu, store_gpu.gpu, bytes, &self.gpu_cfg)
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
                        common::leg_intra(ctx, s.node, s.gpu, d.gpu, entry.bytes, &self.gpu_cfg)
                    {
                        legs.push(leg);
                    } else {
                        return Ok(DataOp::control_only(
                            lookup + grouter_sim::params::IPC_MAP_CACHED,
                        ));
                    }
                } else {
                    // Functions only reach their local store: relay
                    // store(s.node) → store(d.node) over one NIC, then to
                    // the consumer (Fig. 4's tripled copies).
                    let remote_store = self.pick_store_gpu(ctx, d.node);
                    legs.push(common::leg_xnode(
                        ctx,
                        s,
                        remote_store,
                        entry.bytes,
                        &self.gpu_cfg,
                    ));
                    if let Some(leg) = common::leg_intra(
                        ctx,
                        d.node,
                        remote_store.gpu,
                        d.gpu,
                        entry.bytes,
                        &self.gpu_cfg,
                    ) {
                        legs.push(leg);
                    }
                }
            }
            (Location::Gpu(s), Destination::Host(n)) => {
                legs.push(common::leg_d2h(ctx, s, entry.bytes, &self.host_cfg));
                if s.node != n {
                    legs.push(common::leg_hh(ctx, s.node, n, entry.bytes));
                }
            }
            (Location::Host(h), Destination::Gpu(d)) => {
                if h != d.node {
                    legs.push(common::leg_hh(ctx, h, d.node, entry.bytes));
                }
                if self.storage_pull_relay {
                    // The storage service pulls to a random GPU of the node
                    // (it cannot see the consumer), then relays over a
                    // single path.
                    let staging = self.pick_store_gpu(ctx, d.node);
                    legs.push(common::leg_h2d(ctx, staging, entry.bytes, &self.host_cfg));
                    if let Some(leg) = common::leg_intra(
                        ctx,
                        d.node,
                        staging.gpu,
                        d.gpu,
                        entry.bytes,
                        &self.gpu_cfg,
                    ) {
                        legs.push(leg);
                    }
                } else {
                    legs.push(common::leg_h2d(ctx, d, entry.bytes, &self.host_cfg));
                }
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
        let legs = evict_lru(ctx, gpu, over, &self.host_cfg);
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
    use grouter_mem::{ElasticPool, PinnedRing, PoolDiscipline, PrewarmScaler};
    use grouter_sim::time::SimTime;
    use grouter_sim::FlowNet;
    use grouter_store::{DataStore, FunctionId, WorkflowId};
    use grouter_topology::{presets, PathLedger, Topology};
    use grouter_transfer::rate::RateController;

    const MB: f64 = 1e6;

    struct Fixture {
        topo: Topology,
        net: FlowNet,
        store: DataStore,
        pools: Vec<ElasticPool>,
        scalers: Vec<PrewarmScaler>,
        ledgers: Vec<PathLedger>,
        pinned: Vec<grouter_mem::PinnedRing>,
        rates: Vec<RateController>,
    }

    impl Fixture {
        fn new(nodes: usize) -> Fixture {
            let mut net = FlowNet::new();
            let topo = Topology::build(presets::dgx_v100(), nodes, &mut net);
            let pools = (0..topo.num_gpus())
                .map(|_| ElasticPool::new(PoolDiscipline::Elastic, topo.gpu_mem_bytes()))
                .collect();
            let scalers = (0..topo.num_gpus()).map(|_| PrewarmScaler::new()).collect();
            let ledgers = (0..nodes)
                .map(|_| PathLedger::from_topology(&topo))
                .collect();
            let pinned = (0..nodes)
                .map(|_| PinnedRing::new(grouter_sim::params::PINNED_RING_BYTES))
                .collect();
            let rates = (0..nodes).map(|_| RateController::new()).collect();
            Fixture {
                store: DataStore::new(nodes),
                topo,
                net,
                pools,
                scalers,
                ledgers,
                pinned,
                rates,
            }
        }

        fn ctx(&mut self) -> PlaneCtx<'_> {
            PlaneCtx {
                topo: &self.topo,
                net: &self.net,
                store: &mut self.store,
                pools: &mut self.pools,
                scalers: &mut self.scalers,
                ledgers: &mut self.ledgers,
                pinned: &mut self.pinned,
                rates: &mut self.rates,
                now: SimTime::ZERO,
                slo: None,
                trace: &grouter_obs::DISABLED,
            }
        }
    }

    fn token() -> AccessToken {
        AccessToken {
            function: FunctionId(1),
            workflow: WorkflowId(1),
        }
    }

    #[test]
    fn put_lands_on_random_gpu_of_same_node() {
        let mut fx = Fixture::new(1);
        let mut plane = NvshmemPlane::new(7);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..32 {
            let put = plane
                .put(
                    &mut fx.ctx(),
                    token(),
                    Destination::Gpu(GpuRef::new(0, 2)),
                    1.0 * MB,
                    1,
                )
                .unwrap();
            let loc = fx.store.peek(put.id).unwrap().location;
            let Location::Gpu(g) = loc else {
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
        let mut fx = Fixture::new(1);
        let mut plane = NvshmemPlane::new(1);
        // Find a put that landed on a different GPU than the producer.
        let mut relayed = 0;
        for _ in 0..16 {
            let put = plane
                .put(
                    &mut fx.ctx(),
                    token(),
                    Destination::Gpu(GpuRef::new(0, 0)),
                    1.0 * MB,
                    1,
                )
                .unwrap();
            if !put.op.legs.is_empty() {
                relayed += 1;
            }
        }
        // 7/8 of random picks are non-local.
        assert!(relayed >= 10, "relayed {relayed}");
    }

    #[test]
    fn cross_node_get_relays_through_remote_store() {
        let mut fx = Fixture::new(2);
        let mut plane = NvshmemPlane::new(3);
        let put = plane
            .put(
                &mut fx.ctx(),
                token(),
                Destination::Gpu(GpuRef::new(0, 0)),
                10.0 * MB,
                1,
            )
            .unwrap();
        let get = plane
            .get(
                &mut fx.ctx(),
                token(),
                put.id,
                Destination::Gpu(GpuRef::new(1, 5)),
            )
            .unwrap();
        // Store → remote store (NIC), then remote store → consumer: the
        // extra copies of Fig. 4 (2 legs, possibly 1 if the random remote
        // store happens to be GPU 5 itself).
        assert!(!get.legs.is_empty());
        assert!(get.legs.len() <= 2);
        assert_eq!(get.legs[0].plan.flows.len(), 1, "single NIC only");
    }

    #[test]
    fn access_control_enforced() {
        let mut fx = Fixture::new(1);
        let mut plane = NvshmemPlane::new(3);
        let put = plane
            .put(
                &mut fx.ctx(),
                token(),
                Destination::Gpu(GpuRef::new(0, 0)),
                1.0 * MB,
                1,
            )
            .unwrap();
        let intruder = AccessToken {
            function: FunctionId(9),
            workflow: WorkflowId(99),
        };
        let err = plane
            .get(
                &mut fx.ctx(),
                intruder,
                put.id,
                Destination::Gpu(GpuRef::new(0, 1)),
            )
            .unwrap_err();
        assert!(matches!(err, StoreError::AccessDenied { .. }));
    }
}
