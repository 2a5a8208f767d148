//! Cluster + platform state for the executor.
//!
//! [`World`] owns everything the event handlers mutate: the interconnect
//! flow network, the transfer engine, the metadata store, per-GPU memory
//! pools and pre-warm scalers, per-node bandwidth matrices and rate
//! controllers, GPU run queues, live workflow instances and in-flight data
//! operations.

use std::collections::VecDeque;
use std::sync::Arc;

use grouter_mem::{ElasticPool, PinnedRing, PoolDiscipline, PrewarmScaler};
use grouter_sim::rng::DetRng;
use grouter_sim::stats::TimeSeries;
use grouter_sim::table::RidTable;
use grouter_sim::time::{SimDuration, SimTime};
use grouter_sim::{FlowNet, FxHashMap};
use grouter_store::DataStore;
use grouter_store::{DataId, WorkflowId};
use grouter_topology::graph::TopologySpec;
use grouter_topology::{PathLedger, Topology};
use grouter_transfer::exec::{TransferDone, TransferEngine, TransferId};
use grouter_transfer::rate::RateController;

use crate::dataplane::{DataPlane, Destination, OpLeg};
use crate::metrics::{Metrics, PassCategory};
use crate::placement::{PlacementPolicy, Placer};
use crate::slab::NvFlowIndex;
use crate::spec::WorkflowSpec;

/// Executor configuration.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    pub placement: PlacementPolicy,
    /// Nodes functions may be placed on (defaults to all nodes).
    pub placement_nodes: Vec<usize>,
    /// Deterministic seed for branch sampling and random-placement planes.
    pub seed: u64,
    /// Record a per-GPU idle-memory time series (Fig. 7a).
    pub sample_memory: bool,
    /// GPU pool discipline (elastic for GROUTER, static/symmetric for the
    /// memory-overhead baselines of Fig. 20c).
    pub pool_discipline: PoolDiscipline,
    /// Enable full tracing: every component records into the flight
    /// recorder. When `false` (default) the world's recorder is disabled
    /// and every emit site costs one `None` check; the recovery log
    /// ([`World::recovery_log`]) is kept either way.
    pub trace: bool,
    /// Flight-recorder ring capacity in events (oldest evicted first).
    pub trace_buffer: usize,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            placement: PlacementPolicy::Mapa,
            placement_nodes: Vec::new(),
            seed: 42,
            sample_memory: false,
            pool_discipline: PoolDiscipline::Elastic,
            trace: false,
            trace_buffer: 65_536,
        }
    }
}

/// Lifecycle of one stage of one instance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum StageState {
    /// Waiting for `deps_left` upstream stages.
    Waiting {
        deps_left: u32,
    },
    /// Inputs being fetched (`gets_left` outstanding `Get`s).
    Fetching {
        gets_left: u32,
    },
    /// Inputs resident; waiting for the GPU.
    Queued,
    Running,
    /// Output `Put` in flight.
    Storing,
    Done,
    /// Conditional branch not taken (or all deps skipped).
    Skipped,
}

/// Per-instance stage bookkeeping.
#[derive(Clone, Debug)]
pub struct StageRun {
    pub state: StageState,
    pub output: Option<DataId>,
    /// Global enqueue rank (queue-aware migration input).
    pub rank: Option<u64>,
    /// When the stage entered its GPU queue (the traced dispatch's queue
    /// wait; `None` for host stages, which never queue).
    pub enqueued: Option<SimTime>,
    /// Execution attempt, bumped on every recovery reset. Scheduled events
    /// (compute completions, retry re-issues) carry the attempt they were
    /// created under and no-op when it has moved on.
    pub attempt: u32,
    /// Inputs this attempt has already consumed (`Get` completed), one bit
    /// per input position: bit `k` is the current output of the stage's
    /// `k`-th dependency, bit 0 of a root the workflow input. A bit drops
    /// when that output is replaced, so it always speaks of the object the
    /// store holds now. A reset re-fetches everything, so these claims must
    /// be re-added to the store's pending-consumer counts.
    pub got: u64,
    /// Response egress for this terminal already completed (guards against
    /// double egress when a terminal stage re-runs).
    pub egressed: bool,
}

/// One live workflow invocation.
#[derive(Debug)]
pub struct Instance {
    pub spec: Arc<WorkflowSpec>,
    pub arrived: SimTime,
    pub placements: Vec<Destination>,
    pub stages: Vec<StageRun>,
    pub input_data: DataId,
    /// Non-skipped terminal stages whose egress has not completed yet.
    pub terminals_left: u32,
    pub compute_total: SimDuration,
    /// Data-passing time by category, indexed by [`PassCategory::index`].
    pub passing: [SimDuration; PassCategory::COUNT],
    /// Data-passing operations in completion order, folded into the
    /// metrics' per-category statistics when the instance finishes. The
    /// buffer comes from and goes back to [`World::free_op_logs`].
    pub op_durations: Vec<(PassCategory, SimDuration)>,
    pub workflow_id: WorkflowId,
    /// Interned workflow name (id into `Metrics`' name table).
    pub wf_name: u32,
    /// Stable per-(workflow, stage) function identity (pre-warm statistics).
    /// Shared across every instance of the workflow — no per-arrival copy.
    pub fn_ids: Arc<[u64]>,
}

impl Instance {
    /// Per-instance consumer count of `stage`'s output: non-skipped
    /// dependents plus the response egress for terminals.
    pub fn consumers_of(&self, stage: usize) -> u32 {
        let mut n = 0;
        for (j, s) in self.spec.stages.iter().enumerate() {
            if s.deps.contains(&stage) && self.stages[j].state != StageState::Skipped {
                n += 1;
            }
        }
        let is_terminal = self.spec.is_terminal(stage);
        if is_terminal && self.stages[stage].state != StageState::Skipped {
            n += 1;
        }
        n
    }

    /// `stage` consumed `data`: set the bit of every input position whose
    /// object is `data` now. An object that is no longer any position's
    /// (its producer was reset meanwhile) sets none.
    pub(crate) fn mark_got(&mut self, stage: usize, data: DataId) {
        let Some(st) = self.spec.stages.get(stage) else {
            return;
        };
        let bits = if st.deps.is_empty() {
            u64::from(data == self.input_data)
        } else {
            let stages = &self.stages;
            input_bits(&st.deps, |d| {
                stages.get(d).is_some_and(|run| run.output == Some(data))
            })
        };
        if let Some(run) = self.stages.get_mut(stage) {
            run.got |= bits;
        }
    }

    /// Whether `stage` consumed the current output of `producer` (`None`:
    /// the workflow input, which only roots consume).
    pub(crate) fn got_from(&self, stage: usize, producer: Option<usize>) -> bool {
        let (Some(run), Some(st)) = (self.stages.get(stage), self.spec.stages.get(stage)) else {
            return false;
        };
        let bits = match producer {
            None => 1,
            Some(p) => input_bits(&st.deps, |d| d == p),
        };
        run.got & bits != 0
    }

    /// `producer`'s output (`None`: the workflow input) is being replaced:
    /// no consumer has fetched the new object yet.
    pub(crate) fn forget_fetches_of(&mut self, producer: Option<usize>) {
        for (run, st) in self.stages.iter_mut().zip(&self.spec.stages) {
            let bits = match producer {
                None => u64::from(st.deps.is_empty()),
                Some(p) => input_bits(&st.deps, |d| d == p),
            };
            run.got &= !bits;
        }
    }
}

/// The [`StageRun::got`] bits of the input positions whose dependency
/// satisfies `hit`.
fn input_bits(deps: &[usize], hit: impl Fn(usize) -> bool) -> u64 {
    deps.iter()
        .enumerate()
        .filter(|&(_, &d)| hit(d))
        .fold(0, |bits, (k, _)| bits | 1 << k)
}

/// What a finished [`crate::dataplane::DataOp`] was doing.
#[derive(Clone, Copy, Debug)]
pub enum OpKind {
    /// Fetch one input of `stage`.
    Get {
        inst: u64,
        stage: usize,
        data: DataId,
    },
    /// Store `stage`'s output.
    Put {
        inst: u64,
        stage: usize,
        data: DataId,
    },
    /// Move a terminal output to host memory (the response).
    Egress {
        inst: u64,
        stage: usize,
        data: DataId,
    },
    /// Migration / restoration traffic not on any request's critical path.
    Background,
}

/// An in-flight data operation.
#[derive(Debug)]
pub struct PendingOp {
    /// Legs not yet begun, in order.
    pub legs: VecDeque<OpLeg>,
    /// The front of `legs` is staged: `advance_op` found it and it waits
    /// out its setup latency until the `BeginLeg` event pops it.
    pub staged: bool,
    pub started: SimTime,
    pub kind: OpKind,
    pub category: PassCategory,
    /// SLO rate-controller registration of the current leg, released when
    /// the leg completes.
    pub rate_token: Option<(usize, u64)>,
    /// Ledger reservation of the current leg, released when it completes.
    pub ledger_release: Option<(usize, grouter_topology::ResId)>,
    /// Pinned-ring bytes of the current leg, returned when it completes.
    pub pinned_release: Option<(usize, f64)>,
    /// Trace span covering the op from issue to completion (0 = untraced).
    pub span: u64,
}

/// Compute occupancy of one GPU (time-multiplexed, §4.3.2 footnote).
#[derive(Debug, Default)]
pub struct GpuExec {
    pub busy: bool,
    pub queue: VecDeque<(u64, usize)>,
    /// Whole-GPU failure: no dispatch until the recovery engine clears it.
    pub failed: bool,
}

/// All mutable simulation state.
pub struct World {
    pub topo: Topology,
    pub net: FlowNet,
    pub engine: TransferEngine,
    pub store: DataStore,
    pub pools: Vec<ElasticPool>,
    pub scalers: Vec<PrewarmScaler>,
    pub ledgers: Vec<PathLedger>,
    pub pinned: Vec<PinnedRing>,
    pub rates: Vec<RateController>,
    /// Taken out while a plane method runs (borrow split).
    pub plane: Option<Box<dyn DataPlane>>,
    pub gpus: Vec<GpuExec>,
    pub placer: Placer,
    pub rng: DetRng,
    /// Live workflow instances by id (`next_instance` hands them out).
    pub instances: RidTable<Instance>,
    /// In-flight data operations by id (`next_op` hands them out).
    pub ops: RidTable<PendingOp>,
    pub transfer_waiters: FxHashMap<TransferId, u64>,
    /// Live NVLink flows and their current `(node, GPU route)`, reverse-
    /// indexed so a ledger rebalance finds the in-flight flow for a route
    /// without scanning (see [`NvFlowIndex`]).
    pub nv_flow_index: NvFlowIndex,
    /// Staged legs of cancelled ops, parked until their still-in-flight
    /// `BeginLeg` event fires and releases them.
    pub orphan_legs: FxHashMap<u64, OpLeg>,
    /// Recycled buffer for flow-completion harvests (net-wake batches).
    pub flow_scratch: Vec<grouter_sim::FlowId>,
    /// Recycled buffer for the transfers a net wake finished.
    pub done_scratch: Vec<TransferDone>,
    /// Recycled buffer for the flows a leg start began, with their routes.
    pub started_scratch: Vec<(grouter_sim::FlowId, Option<Vec<usize>>)>,
    /// Recycled buffer for the inputs of the stage being enqueued or
    /// invoked.
    pub input_scratch: Vec<DataId>,
    /// Recycled buffer of stage indices: an arrival's roots, a finished
    /// stage's dependents.
    pub stage_scratch: Vec<usize>,
    /// Emptied operation logs of finished and failed instances, handed to
    /// the next arrivals: at most one per instance ever live at once.
    pub free_op_logs: Vec<Vec<(PassCategory, SimDuration)>>,
    pub metrics: Metrics,
    pub mem_series: Vec<TimeSeries>,
    /// Watched links and their utilisation-fraction time series (enabled by
    /// `Runtime::schedule_link_samples`).
    pub link_series: Vec<(grouter_sim::LinkId, TimeSeries)>,
    pub config: RuntimeConfig,
    pub enqueue_counter: u64,
    pub next_instance: u64,
    pub next_op: u64,
    /// In-flight flows re-pathed by direct-path rebalancing (§4.3.3).
    pub rebalances_applied: u64,
    /// Fault-injection bookkeeping (failed GPUs, degraded-link baselines,
    /// per-stage retry budgets).
    pub fault: crate::fault::FaultState,
    /// Cross-group port installed when this world is one shard of a
    /// [`crate::cluster::ClusterSim`]; `None` for standalone worlds.
    pub cluster: Option<Box<crate::cluster::ClusterPort>>,
    /// The flight recorder every component in this world reports into
    /// (disabled unless [`RuntimeConfig::trace`] is set).
    pub rec: grouter_obs::Recorder,
}

impl World {
    /// Build a cluster of `num_nodes` copies of `spec` with `plane` as the
    /// data plane.
    pub fn new(
        spec: TopologySpec,
        num_nodes: usize,
        plane: Box<dyn DataPlane>,
        mut config: RuntimeConfig,
    ) -> World {
        let mut net = FlowNet::new();
        let topo = Topology::build(spec, num_nodes, &mut net);
        if config.placement_nodes.is_empty() {
            config.placement_nodes = (0..num_nodes).collect();
        }
        // The world's flight recorder, on only under full tracing. Every
        // component below gets a clone of the handle.
        let rec = if config.trace {
            grouter_obs::Recorder::enabled(config.trace_buffer)
        } else {
            grouter_obs::Recorder::disabled()
        };
        net.set_recorder(rec.clone());
        let n_gpus = topo.num_gpus();
        let pools: Vec<ElasticPool> = (0..n_gpus)
            .map(|g| {
                let mut p = ElasticPool::new(config.pool_discipline, topo.gpu_mem_bytes());
                p.set_recorder(rec.clone(), g as u64);
                p
            })
            .collect();
        let scalers = (0..n_gpus).map(|_| PrewarmScaler::new()).collect();
        let ledgers = {
            // Every node shares the same NVLink fabric, so the loop-free
            // path sets are identical: warm one prototype's path cache once
            // and clone it per node — the first transfer on any node is
            // already a cache hit.
            let mut proto = PathLedger::from_topology(&topo);
            if topo.has_nvlink() {
                let hops = if topo.has_nvswitch() { 1 } else { 3 };
                proto.warm(hops);
            }
            proto.set_recorder(rec.clone());
            vec![proto; num_nodes]
        };
        let pinned = (0..num_nodes)
            .map(|_| PinnedRing::new(grouter_sim::params::PINNED_RING_BYTES))
            .collect();
        let rates = (0..num_nodes).map(|_| RateController::new()).collect();
        let placer = Placer::new(
            config.placement.clone(),
            &topo,
            config.placement_nodes.clone(),
        );
        let mem_series = (0..n_gpus).map(|_| TimeSeries::new()).collect();
        let mut engine = TransferEngine::new();
        engine.set_recorder(rec.clone());
        let mut store = DataStore::new(num_nodes);
        store.set_recorder(rec.clone());
        World {
            rng: DetRng::new(config.seed),
            placer,
            gpus: (0..n_gpus).map(|_| GpuExec::default()).collect(),
            engine,
            store,
            pools,
            scalers,
            ledgers,
            pinned,
            rates,
            plane: Some(plane),
            instances: RidTable::new(),
            ops: RidTable::new(),
            transfer_waiters: FxHashMap::default(),
            nv_flow_index: NvFlowIndex::default(),
            orphan_legs: FxHashMap::default(),
            flow_scratch: Vec::new(),
            done_scratch: Vec::new(),
            started_scratch: Vec::new(),
            input_scratch: Vec::new(),
            stage_scratch: Vec::new(),
            free_op_logs: Vec::new(),
            metrics: Metrics::new(),
            mem_series,
            link_series: Vec::new(),
            config,
            enqueue_counter: 0,
            next_instance: 0,
            next_op: 0,
            rebalances_applied: 0,
            fault: Default::default(),
            cluster: None,
            rec,
            topo,
            net,
        }
    }

    /// Every fault this world absorbed and every recovery action it took,
    /// in the order they happened.
    pub fn recovery_log(&self) -> &[(SimTime, crate::fault::RecoveryEvent)] {
        &self.fault.log
    }

    /// Append a typed recovery event to the recovery log, and to the trace
    /// as a `Comp::Fault` instant when tracing is on.
    pub(crate) fn log_recovery(&mut self, now: SimTime, ev: crate::fault::RecoveryEvent) {
        if self.rec.on(grouter_obs::Comp::Fault) {
            crate::fault::record_recovery(&self.rec, now, &ev);
        }
        self.fault.log.push((now, ev));
    }

    /// Return a departed instance's operation log for a later arrival.
    pub(crate) fn recycle_op_log(&mut self, mut log: Vec<(PassCategory, SimDuration)>) {
        log.clear();
        self.free_op_logs.push(log);
    }

    /// Flat GPU index (canonical ordering from [`Topology::flat_index`]).
    pub fn gpu_index(&self, node: usize, gpu: usize) -> usize {
        self.topo.flat_index(node, gpu)
    }

    /// Idle (neither runtime- nor pool-reserved) memory on a GPU.
    pub fn idle_gpu_memory(&self, node: usize, gpu: usize) -> f64 {
        self.pools[self.gpu_index(node, gpu)].idle_gpu_memory()
    }

    /// Record utilisation (fraction of capacity) for every watched link.
    pub fn sample_links(&mut self, now: SimTime) {
        for (link, series) in &mut self.link_series {
            let used = self.net.link_utilization(*link);
            let cap = self.net.link_capacity(*link);
            series.record(now, used / cap);
        }
    }

    /// Record idle memory for every GPU (Fig. 7a sampling).
    pub fn sample_memory(&mut self, now: SimTime) {
        for idx in 0..self.pools.len() {
            let v = self.pools[idx].idle_gpu_memory();
            self.mem_series[idx].record(now, v);
        }
    }

    /// Are any requests still in flight?
    pub fn quiescent(&self) -> bool {
        self.instances.is_empty() && self.ops.is_empty() && self.engine.in_flight() == 0
    }

    /// `true` when every node's path ledger holds no reservations and its
    /// bandwidth matrix is fully idle — i.e. no NVLink bandwidth leaked.
    pub fn ledgers_idle(&self) -> bool {
        let g = self.topo.gpus_per_node();
        self.ledgers.iter().all(|l| {
            l.active() == 0
                && (0..g)
                    .all(|a| (0..g).all(|b| l.bwm().capacity(a, b) <= 0.0 || l.bwm().is_idle(a, b)))
        }) && self.nv_flow_index.is_empty()
    }
}
