//! The data-plane interface.
//!
//! Every data plane — GROUTER and all baselines — implements [`DataPlane`]:
//! a policy that decides *where* a `Put` stores its bytes and *which paths*
//! a `Get` uses, expressed as [`DataOp`]s (sequences of transfer legs) that
//! the executor runs on the simulated cluster. This mirrors the paper's
//! architecture: the storage/transfer layer is a service below the
//! serverless platform, swapped out per experiment.

use grouter_mem::{ElasticPool, PinnedRing, PoolDiscipline, PrewarmScaler};
use grouter_sim::time::{SimDuration, SimTime};
use grouter_sim::{params, FlowNet};
use grouter_store::{AccessToken, DataId, DataStore, StoreError};
use grouter_topology::graph::TopologySpec;
use grouter_topology::ledger::{PathLedger, Rebalance, ResId};
use grouter_topology::{GpuRef, Topology};
use grouter_transfer::plan::{
    plan_cross_node, plan_d2h, plan_h2d, plan_host_to_host, plan_intra_node, plan_shm, PlanConfig,
    TransferPlan,
};
use grouter_transfer::rate::{RateController, SloSpec};

pub use grouter_store::patterns::Destination;

/// Whether a leg runs over the plane's preferred path class or a degraded
/// fallback. The executor surfaces degraded legs in the recovery log so a
/// plane that silently downgrades to PCIe under NVLink loss is observable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LegHealth {
    /// The plane's first-choice path class.
    Nominal,
    /// A fallback (e.g. single-path PCIe because every NVLink route to the
    /// destination is masked out).
    Degraded,
}

/// One transfer leg of a data operation.
#[derive(Clone, Debug)]
pub struct OpLeg {
    pub plan: TransferPlan,
    /// Node whose bandwidth matrix holds the plan's NVLink reservations.
    pub nv_node: usize,
    /// Nominal vs degraded-fallback path class (see [`LegHealth`]).
    pub health: LegHealth,
    /// Registered SLO-transfer token to release on completion, if any.
    pub rate_token: Option<(usize, u64)>,
    /// Ledger reservation `(node, id)` to release when the leg completes
    /// (GROUTER's Algorithm 1 reservations).
    pub ledger_release: Option<(usize, ResId)>,
    /// Pinned-ring bytes `(node, bytes)` to return when the leg completes.
    pub pinned_release: Option<(usize, f64)>,
    /// Rebalances of *other* functions' paths to apply when this leg
    /// starts: `(node, move)` — the executor re-paths the in-flight flow.
    pub reroutes: Vec<(usize, Rebalance)>,
}

impl OpLeg {
    pub fn new(plan: TransferPlan, nv_node: usize) -> OpLeg {
        OpLeg {
            plan,
            nv_node,
            health: LegHealth::Nominal,
            rate_token: None,
            ledger_release: None,
            pinned_release: None,
            reroutes: Vec::new(),
        }
    }

    /// GPU-to-GPU leg within `node` (`None` for the same GPU, which needs
    /// no copy). The planner works without a reservation ledger.
    pub fn intra(
        ctx: &PlaneCtx<'_>,
        node: usize,
        src: usize,
        dst: usize,
        bytes: f64,
        cfg: &PlanConfig,
    ) -> Option<OpLeg> {
        (src != dst).then(|| {
            let plan = plan_intra_node(ctx.topo, ctx.net, None, node, src, dst, bytes, cfg);
            OpLeg::new(plan, node)
        })
    }

    /// Device-to-host leg from `gpu` into its node's memory.
    pub fn d2h(ctx: &PlaneCtx<'_>, gpu: GpuRef, bytes: f64, cfg: &PlanConfig) -> OpLeg {
        let plan = plan_d2h(ctx.topo, ctx.net, gpu.node, gpu.gpu, bytes, cfg);
        OpLeg::new(plan, gpu.node)
    }

    /// Host-to-device leg from `gpu`'s node memory into `gpu`.
    pub fn h2d(ctx: &PlaneCtx<'_>, gpu: GpuRef, bytes: f64, cfg: &PlanConfig) -> OpLeg {
        let plan = plan_h2d(ctx.topo, ctx.net, gpu.node, gpu.gpu, bytes, cfg);
        OpLeg::new(plan, gpu.node)
    }

    /// GPU-to-GPU leg between nodes, held by the source node.
    pub fn cross_node(
        ctx: &PlaneCtx<'_>,
        src: GpuRef,
        dst: GpuRef,
        bytes: f64,
        cfg: &PlanConfig,
    ) -> OpLeg {
        let plan = plan_cross_node(ctx.topo, ctx.net, src, dst, bytes, cfg);
        OpLeg::new(plan, src.node)
    }

    /// Host-to-host leg: shared memory within a node, the network between
    /// two, held by the source node.
    pub fn host_to_host(ctx: &PlaneCtx<'_>, src: usize, dst: usize, bytes: f64) -> OpLeg {
        let plan = if src == dst {
            plan_shm(ctx.topo, ctx.net, src, bytes)
        } else {
            plan_host_to_host(ctx.topo, ctx.net, src, dst, bytes)
        };
        OpLeg::new(plan, src)
    }
}

/// A data operation: control-plane latency plus zero or more transfer legs
/// executed strictly in order (relays need two legs).
#[derive(Clone, Debug, Default)]
pub struct DataOp {
    pub control_latency: SimDuration,
    pub legs: Vec<OpLeg>,
}

impl DataOp {
    /// An operation that finishes after only control-plane latency.
    pub fn control_only(latency: SimDuration) -> DataOp {
        DataOp {
            control_latency: latency,
            legs: Vec::new(),
        }
    }

    /// Total bytes moved across all legs.
    pub fn bytes_moved(&self) -> f64 {
        self.legs.iter().map(|l| l.plan.total_bytes).sum()
    }
}

/// Result of a `Put`: the new object id plus the work to perform.
#[derive(Clone, Debug)]
pub struct PutOp {
    pub id: DataId,
    pub op: DataOp,
}

/// Mutable view of the cluster state a plane may consult and update.
///
/// Indexing: `pools`/`scalers` are flat `node * gpus_per_node + gpu`;
/// `ledgers`/`rates` are per node.
pub struct PlaneCtx<'a> {
    pub topo: &'a Topology,
    pub net: &'a FlowNet,
    pub store: &'a mut DataStore,
    pub pools: &'a mut [ElasticPool],
    pub scalers: &'a mut [PrewarmScaler],
    pub ledgers: &'a mut [PathLedger],
    /// Per-node circular pinned staging buffers (§4.3.2).
    pub pinned: &'a mut [PinnedRing],
    pub rates: &'a mut [RateController],
    pub now: SimTime,
    /// SLO of the workflow the current operation belongs to (`None` for
    /// background work or uncalibrated workflows). Feeds the `Rate_least`
    /// guarantees of §4.3.2.
    pub slo: Option<SloSpec>,
    /// Trace recorder for plane-level decisions (route-GPU picks, rate
    /// clamps), borrowed from the world; [`PlaneEnv::ctx`] borrows
    /// [`grouter_obs::DISABLED`].
    pub trace: &'a grouter_obs::Recorder,
}

impl<'a> PlaneCtx<'a> {
    /// Flat pool index for a GPU.
    pub fn pool_index(&self, gpu: GpuRef) -> usize {
        gpu.node * self.topo.gpus_per_node() + gpu.gpu
    }

    pub fn pool(&mut self, gpu: GpuRef) -> &mut ElasticPool {
        let idx = self.pool_index(gpu);
        &mut self.pools[idx]
    }

    pub fn scaler(&mut self, gpu: GpuRef) -> &mut PrewarmScaler {
        let idx = self.pool_index(gpu);
        &mut self.scalers[idx]
    }
}

/// The cluster state a [`PlaneCtx`] borrows, owned: for running a plane
/// outside the executor (the llm serving groups, capability probes, unit
/// tests). Pools are elastic, every node has its own ledger, pinned ring
/// and rate controller, and path caches start cold. [`crate::world::World`]
/// keeps its own copy of these parts, because it also wires them to its
/// recorder and warms one path cache for every node to clone.
pub struct PlaneEnv {
    pub topo: Topology,
    pub net: FlowNet,
    pub store: DataStore,
    pub pools: Vec<ElasticPool>,
    pub scalers: Vec<PrewarmScaler>,
    pub ledgers: Vec<PathLedger>,
    pub pinned: Vec<PinnedRing>,
    pub rates: Vec<RateController>,
}

impl PlaneEnv {
    /// `nodes` copies of `spec`, with every pool and ledger idle.
    pub fn new(spec: TopologySpec, nodes: usize) -> PlaneEnv {
        let mut net = FlowNet::new();
        let topo = Topology::build(spec, nodes, &mut net);
        let gpus = topo.num_gpus();
        PlaneEnv {
            store: DataStore::new(nodes),
            pools: (0..gpus)
                .map(|_| ElasticPool::new(PoolDiscipline::Elastic, topo.gpu_mem_bytes()))
                .collect(),
            scalers: (0..gpus).map(|_| PrewarmScaler::new()).collect(),
            ledgers: (0..nodes)
                .map(|_| PathLedger::from_topology(&topo))
                .collect(),
            pinned: (0..nodes)
                .map(|_| PinnedRing::new(params::PINNED_RING_BYTES))
                .collect(),
            rates: (0..nodes).map(|_| RateController::new()).collect(),
            topo,
            net,
        }
    }

    /// A context at `now` for work outside any workflow: no SLO, no trace.
    pub fn ctx(&mut self, now: SimTime) -> PlaneCtx<'_> {
        PlaneCtx {
            topo: &self.topo,
            net: &self.net,
            store: &mut self.store,
            pools: &mut self.pools,
            scalers: &mut self.scalers,
            ledgers: &mut self.ledgers,
            pinned: &mut self.pinned,
            rates: &mut self.rates,
            now,
            slo: None,
            trace: &grouter_obs::DISABLED,
        }
    }
}

/// Operation counters a plane may expose for overhead reports
/// (Figs. 7b, 18, 20).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlaneStats {
    /// Objects migrated from GPU storage to host memory.
    pub migrations: u64,
    /// Objects proactively restored from host memory to GPU storage.
    pub restores: u64,
    /// Legs planned on a degraded fallback path class (no nominal route
    /// survived masking) — the typed counterpart of a silent downgrade.
    pub degraded_legs: u64,
}

/// A pluggable data plane.
/// `Send` because a whole [`crate::world::World`] (which owns its plane)
/// may be moved to a shard worker thread by the sharded cluster engine.
pub trait DataPlane: Send {
    /// Short name for reports ("GROUTER", "INFless+", …).
    fn name(&self) -> &'static str;

    /// Store `bytes` produced by `token.function` running at `source`.
    /// `consumers` is how many downstream `Get`s will read the object.
    fn put(
        &mut self,
        ctx: &mut PlaneCtx<'_>,
        token: AccessToken,
        source: Destination,
        bytes: f64,
        consumers: u32,
    ) -> Result<PutOp, StoreError>;

    /// Fetch object `id` for a consumer at `dest`.
    fn get(
        &mut self,
        ctx: &mut PlaneCtx<'_>,
        token: AccessToken,
        id: DataId,
        dest: Destination,
    ) -> Result<DataOp, StoreError>;

    /// One consumer of `id` finished reading it (prompt GC hook). Returns
    /// background operations (e.g. proactive restorations now that memory
    /// freed up).
    fn on_consumed(&mut self, ctx: &mut PlaneCtx<'_>, id: DataId) -> Vec<DataOp>;

    /// Runtime GPU memory changed on `gpu` (a function started or stopped).
    /// Returns background migration operations needed to relieve pressure.
    fn on_memory_change(&mut self, ctx: &mut PlaneCtx<'_>, gpu: GpuRef) -> Vec<DataOp>;

    /// A request arrived for a workflow whose stages run at the given
    /// destinations (pre-warming hook for the elastic store).
    fn on_request(&mut self, _ctx: &mut PlaneCtx<'_>, _stages: &[Destination]) {}

    /// Migration/restoration counters (zero for planes that don't track).
    fn stats(&self) -> PlaneStats {
        PlaneStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_only_op_has_no_bytes() {
        let op = DataOp::control_only(SimDuration::from_micros(2));
        assert_eq!(op.bytes_moved(), 0.0);
        assert!(op.legs.is_empty());
    }
}
