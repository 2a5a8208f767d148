//! Event-driven workflow executor.
//!
//! Drives workflow instances through their stage lifecycle:
//!
//! ```text
//! arrival → place → [per stage] fetch inputs (Get) → queue on GPU →
//! compute → store output (Put) → notify dependents → … → egress → record
//! ```
//!
//! Data movement runs on the flow network; a single "net wake" event (with
//! version-stamped staleness guards) advances the network to each next flow
//! completion and resumes whatever operation was waiting.

use std::sync::Arc;

use grouter_sim::engine::{Scheduler, Simulation};
use grouter_sim::time::{SimDuration, SimTime};
use grouter_store::{AccessToken, DataId, FunctionId, Location, WorkflowId};
use grouter_topology::graph::TopologySpec;
use grouter_transfer::exec::BeginOutcome;

use crate::dataplane::{DataOp, DataPlane, Destination, PlaneCtx};
use crate::metrics::{InstanceRecord, Metrics, PassCategory};
use crate::spec::{StageKind, WorkflowSpec};
use crate::world::{Instance, OpKind, PendingOp, RuntimeConfig, StageRun, StageState, World};

/// Cached per-spec submit identities: the held `Arc<WorkflowSpec>` pins the
/// cache key's allocation, `u32` is the interned workflow name, `Arc<[u64]>`
/// the shared function-id table.
type SpecCacheEntry = (Arc<WorkflowSpec>, u32, Arc<[u64]>);

/// Public driver: a [`World`] plus its event queue.
pub struct Runtime {
    sim: Simulation<World>,
    function_ids: std::collections::HashMap<(String, usize), u64>,
    /// Per-spec submit cache keyed on `Arc` identity: interned workflow
    /// name and shared function-id table, computed once per spec. The held
    /// `Arc` keeps the pointer alive so it can never be reused by a
    /// different allocation.
    spec_cache: grouter_sim::FxHashMap<usize, SpecCacheEntry>,
}

impl Runtime {
    pub fn new(
        spec: TopologySpec,
        num_nodes: usize,
        plane: Box<dyn DataPlane>,
        config: RuntimeConfig,
    ) -> Runtime {
        let world = World::new(spec, num_nodes, plane, config);
        let mut sim = Simulation::new(world);
        let rec = sim.world.rec.clone();
        sim.sched.set_recorder(rec);
        Runtime {
            sim,
            function_ids: std::collections::HashMap::new(),
            spec_cache: grouter_sim::FxHashMap::default(),
        }
    }

    /// The world's trace recorder (shared handle; cheap to clone).
    pub fn recorder(&self) -> &grouter_obs::Recorder {
        &self.sim.world.rec
    }

    /// Schedule a request for `spec` at absolute time `at`.
    pub fn submit(&mut self, spec: Arc<WorkflowSpec>, at: SimTime) {
        let (wf_name, fn_ids) = self.spec_identity(&spec);
        self.sim.world.metrics.arrivals += 1;
        self.sim.sched.schedule_at(
            at,
            Event::Arrival {
                spec,
                wf_name,
                fn_ids,
            },
        );
    }

    /// The submit identities of `spec` — interned workflow name and stable
    /// per-stage function ids — computed once per distinct spec.
    fn spec_identity(&mut self, spec: &Arc<WorkflowSpec>) -> (u32, Arc<[u64]>) {
        let cache_key = Arc::as_ptr(spec) as usize;
        match self.spec_cache.get(&cache_key) {
            Some((_, wf, ids)) => (*wf, ids.clone()),
            None => {
                #[expect(
                    clippy::expect_used,
                    reason = "submit() is the public entry point; an invalid spec is caller error and must abort"
                )]
                spec.validate().expect("workflow spec must be valid");
                // Stable per-(workflow, stage) function identities for the
                // pre-warm scalers: stage 0 of "traffic" is the same
                // function on every request.
                let base = self.function_ids.len() as u64;
                for i in 0..spec.stages.len() {
                    let key = (spec.name.clone(), i);
                    let next = base + i as u64 + 1;
                    self.function_ids.entry(key).or_insert(next);
                }
                let ids: Arc<[u64]> = (0..spec.stages.len())
                    .map(|i| self.function_ids[&(spec.name.clone(), i)])
                    .collect();
                let wf = self.sim.world.metrics.intern(&spec.name);
                self.spec_cache
                    .insert(cache_key, (spec.clone(), wf, ids.clone()));
                (wf, ids)
            }
        }
    }

    /// Register `spec` with a cluster port: compute its submit identities
    /// against this group's world and append it to the port's registry.
    /// Returns the logical id (registry index).
    pub fn cluster_register(
        &mut self,
        port: &mut crate::cluster::ClusterPort,
        spec: Arc<WorkflowSpec>,
    ) -> u32 {
        let (wf_name, fn_ids) = self.spec_identity(&spec);
        port.registry.push(crate::cluster::RegisteredSpec {
            spec,
            wf_name,
            fn_ids,
        });
        (port.registry.len() - 1) as u32
    }

    /// Kick the cluster arrival pump: schedule the first `NextArrival`
    /// pull. Requires an installed [`crate::cluster::ClusterPort`] with a
    /// source; a no-op otherwise.
    pub fn start_cluster_arrivals(&mut self) {
        let has_source = self
            .sim
            .world
            .cluster
            .as_ref()
            .is_some_and(|p| p.source.is_some());
        if has_source {
            self.sim
                .sched
                .schedule_at(SimTime::ZERO, Event::NextArrival);
        }
    }

    /// Surrender the driver wrapper, keeping the warmed-up simulation
    /// (scheduled events, installed fault plans, cluster port) — the form
    /// the sharded engine consumes.
    pub fn into_sim(self) -> Simulation<World> {
        self.sim
    }

    /// Record per-GPU idle-memory samples every `every` until `until`
    /// (Fig. 7a). Must be called before `run`.
    pub fn schedule_memory_samples(&mut self, every: SimDuration, until: SimTime) {
        let mut t = SimTime::ZERO;
        while t <= until {
            self.sim.sched.schedule_at(t, Event::MemSample);
            t += every;
        }
    }

    /// Watch `links`, sampling their utilisation every `every` until
    /// `until` (bandwidth-aggregation analysis, Fig. 5a). Must be called
    /// before `run`.
    pub fn schedule_link_samples(
        &mut self,
        links: Vec<grouter_sim::LinkId>,
        every: SimDuration,
        until: SimTime,
    ) {
        for l in links {
            self.sim
                .world
                .link_series
                .push((l, grouter_sim::stats::TimeSeries::new()));
        }
        let mut t = SimTime::ZERO;
        while t <= until {
            self.sim.sched.schedule_at(t, Event::LinkSample);
            t += every;
        }
    }

    /// Change a link's capacity at the current instant (failure injection /
    /// co-tenant congestion) and reschedule the network wake so in-flight
    /// transfers adapt. Mutating `world().net` directly would strand live
    /// flows: the pending wake events carry stale version stamps.
    pub fn set_link_capacity(&mut self, link: grouter_sim::LinkId, capacity: f64) {
        let now = self.sim.now();
        self.sim.world.net.set_link_capacity(now, link, capacity);
        schedule_net_wake(&mut self.sim.world, &mut self.sim.sched);
    }

    /// Install a deterministic fault plan: every event is scheduled into the
    /// simulation and interpreted by the recovery engine ([`crate::fault`]),
    /// interleaving deterministically with workload events. Must be called
    /// before `run`.
    pub fn install_fault_plan(&mut self, plan: &grouter_sim::fault::FaultPlan) {
        for ev in plan.events() {
            self.sim.sched.schedule_at(ev.at, Event::Fault(ev.clone()));
        }
    }

    /// Run to quiescence (all submitted requests completed).
    pub fn run(&mut self) {
        self.sim.run();
    }

    /// Run until the clock passes `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.sim.run_until(deadline);
    }

    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    pub fn metrics(&self) -> &Metrics {
        &self.sim.world.metrics
    }

    pub fn world(&self) -> &World {
        &self.sim.world
    }

    pub fn world_mut(&mut self) -> &mut World {
        &mut self.sim.world
    }
}

// ---------------------------------------------------------------------------
// Typed event core
// ---------------------------------------------------------------------------

/// Every event the executor schedules, as a value: the scheduler's queue
/// holds this enum directly and dispatch matches on it.
#[derive(Debug)]
pub enum Event {
    /// A submitted request arrives.
    Arrival {
        spec: Arc<WorkflowSpec>,
        /// Interned workflow name (id into `Metrics`' name table).
        wf_name: u32,
        fn_ids: Arc<[u64]>,
    },
    /// Record per-GPU idle-memory samples (Fig. 7a).
    MemSample,
    /// Record watched-link utilisation samples (Fig. 5a).
    LinkSample,
    /// Stage compute finished (stale when the attempt moved on).
    ComputeDone {
        inst: u64,
        stage: usize,
        attempt: u32,
    },
    /// An op's control latency (or previous leg) finished: pop the next leg.
    AdvanceOp { op: u64 },
    /// The staged leg's setup latency elapsed: start its flows.
    BeginLeg { op: u64 },
    /// Flow-network wake, version-stamped against re-allocation staleness.
    NetWake { version: u64 },
    /// An injected fault fires (interpreted by [`crate::fault`]).
    Fault(grouter_sim::fault::FaultEvent),
    /// Deferred dispatch attempt after recovery freed a GPU.
    TryDispatchGpu { gpu: usize },
    /// Deferred stage re-entry after a recovery reset wave; dropped when a
    /// later reset superseded `attempt`.
    StageReadyIfWaiting {
        inst: u64,
        stage: usize,
        attempt: u32,
    },
    /// Re-issue a cancelled data operation after its retry backoff.
    ReIssue {
        inst: u64,
        stage: usize,
        kind: OpKind,
        attempt: u32,
    },
    /// Pull the next arrival from the cluster port's open-loop source.
    NextArrival,
    /// A request reached this group's gateway: run locally or forward to
    /// its home group.
    ClusterIngress { spec: u32, home: u32 },
    /// A cross-group envelope from group `src` stamped for this instant.
    ClusterDeliver {
        src: u32,
        msg: crate::cluster::CrossMsg,
    },
    /// Service-mode worker heartbeat: publish a state snapshot to the
    /// router and keep the chain alive while the group has work.
    HeartbeatTick,
}

impl grouter_sim::EventWorld for World {
    type Event = Event;

    fn dispatch(&mut self, s: &mut Scheduler<World>, ev: Event) {
        match ev {
            Event::Arrival {
                spec,
                wf_name,
                fn_ids,
            } => arrival(self, s, spec, wf_name, fn_ids),
            Event::MemSample => self.sample_memory(s.now()),
            Event::LinkSample => self.sample_links(s.now()),
            Event::ComputeDone {
                inst,
                stage,
                attempt,
            } => compute_done(self, s, inst, stage, attempt),
            Event::AdvanceOp { op } => advance_op(self, s, op),
            Event::BeginLeg { op } => begin_leg(self, s, op),
            Event::NetWake { version } => net_wake(self, s, version),
            Event::Fault(ev) => crate::fault::apply_fault(self, s, &ev),
            Event::TryDispatchGpu { gpu } => try_dispatch_gpu(self, s, gpu),
            Event::StageReadyIfWaiting {
                inst,
                stage,
                attempt,
            } => {
                let ok = self.instances.get(inst).is_some_and(|i| {
                    i.stages[stage].attempt == attempt
                        && matches!(i.stages[stage].state, StageState::Waiting { deps_left: 0 })
                });
                if ok {
                    stage_ready(self, s, inst, stage);
                }
            }
            Event::ReIssue {
                inst,
                stage,
                kind,
                attempt,
            } => crate::fault::re_issue(self, s, inst, stage, kind, attempt),
            Event::NextArrival => crate::cluster::next_arrival(self, s),
            Event::ClusterIngress { spec, home } => crate::cluster::ingress(self, s, spec, home),
            Event::ClusterDeliver { src, msg } => crate::cluster::deliver(self, s, src, msg),
            Event::HeartbeatTick => crate::cluster::heartbeat_tick(self, s),
        }
    }
}

/// Run a closure against the plane with a borrow-split context.
pub(crate) fn with_plane<R>(
    w: &mut World,
    now: SimTime,
    slo: Option<grouter_transfer::rate::SloSpec>,
    f: impl FnOnce(&mut dyn DataPlane, &mut PlaneCtx<'_>) -> R,
) -> R {
    #[expect(
        clippy::expect_used,
        reason = "with_plane restores the plane before returning, and the event loop is single-threaded"
    )]
    let mut plane = w.plane.take().expect("plane re-entrancy");
    let r = {
        let mut ctx = PlaneCtx {
            topo: &w.topo,
            net: &w.net,
            store: &mut w.store,
            pools: &mut w.pools,
            scalers: &mut w.scalers,
            ledgers: &mut w.ledgers,
            pinned: &mut w.pinned,
            rates: &mut w.rates,
            now,
            slo,
            trace: &w.rec,
        };
        f(plane.as_mut(), &mut ctx)
    };
    w.plane = Some(plane);
    r
}

/// SLO spec of an instance's workflow (for `Rate_least`), if calibrated.
pub(crate) fn instance_slo(inst: &Instance) -> Option<grouter_transfer::rate::SloSpec> {
    if inst.spec.slo > SimDuration::ZERO {
        Some(grouter_transfer::rate::SloSpec {
            slo: inst.spec.slo,
            infer: inst.spec.critical_path_compute(),
        })
    } else {
        None
    }
}

/// Latency attribution by *logical* edge, as in the paper's Fig. 3: a
/// gFn→gFn hop counts as gFn–gFn passing even when a host-centric plane
/// routes it through host memory; cFn and ingress/egress endpoints count as
/// host-side.
fn edge_category(producer_is_gfn: bool, consumer_is_gfn: bool) -> PassCategory {
    match (producer_is_gfn, consumer_is_gfn) {
        (true, true) => PassCategory::GpuGpu,
        (false, false) => PassCategory::HostHost,
        _ => PassCategory::GpuHost,
    }
}

// ---------------------------------------------------------------------------
// Arrival
// ---------------------------------------------------------------------------

pub(crate) fn arrival(
    w: &mut World,
    s: &mut Scheduler<World>,
    spec: Arc<WorkflowSpec>,
    wf_name: u32,
    fn_ids: Arc<[u64]>,
) {
    let now = s.now();
    let inst_id = w.next_instance;
    w.next_instance += 1;
    let mut placements = w.placer.place(&w.topo, &spec, &mut w.rng);

    // Failed-GPU avoidance: the load-aware policies already steer around
    // down GPUs, but pinned placements (and the all-GPUs-down corner) can
    // still land on one. Remap onto a healthy GPU; when none exists the
    // request fails *typed* instead of queueing on a dead device forever.
    if !w.fault.failed_gpus.is_empty() {
        for p in placements.iter_mut() {
            let Destination::Gpu(g) = *p else { continue };
            if !w.gpus[w.gpu_index(g.node, g.gpu)].failed {
                continue;
            }
            match w.placer.pick_healthy(&w.topo, Some(g.node)) {
                Some(ng) => {
                    w.placer.release(&w.topo, *p);
                    *p = Destination::Gpu(ng);
                    w.placer.bump(&w.topo, *p);
                }
                None => {
                    for d in &placements {
                        w.placer.release(&w.topo, *d);
                    }
                    w.metrics.failed += 1;
                    w.log_recovery(
                        now,
                        crate::fault::RecoveryEvent::InstanceFailed { inst: inst_id },
                    );
                    return;
                }
            }
        }
    }

    // Conditional branch sampling: pick one alternative per group. The stage
    // records double as the skip marks; a stage left unskipped learns its
    // count of live dependencies once every skip is settled.
    let n_stages = spec.stages.len();
    let mut stages: Vec<StageRun> = (0..n_stages)
        .map(|_| StageRun {
            state: StageState::Waiting { deps_left: 0 },
            output: None,
            rank: None,
            enqueued: None,
            attempt: 0,
            got: 0,
            egressed: false,
        })
        .collect();
    let mut groups: std::collections::BTreeMap<u32, Vec<usize>> = Default::default();
    for (i, st) in spec.stages.iter().enumerate() {
        if let Some((g, _)) = st.cond_group {
            groups.entry(g).or_default().push(i);
        }
    }
    for members in groups.values() {
        #[expect(
            clippy::expect_used,
            reason = "members were collected from stages whose cond_group is Some"
        )]
        let total: f64 = members
            .iter()
            .map(|&i| spec.stages[i].cond_group.expect("grouped").1)
            .sum();
        let mut pick = w.rng.next_f64() * total;
        let mut chosen = members[members.len() - 1];
        for &i in members {
            #[expect(
                clippy::expect_used,
                reason = "members were collected from stages whose cond_group is Some"
            )]
            let wgt = spec.stages[i].cond_group.expect("grouped").1;
            if pick < wgt {
                chosen = i;
                break;
            }
            pick -= wgt;
        }
        for &i in members {
            if i != chosen {
                stages[i].state = StageState::Skipped;
            }
        }
    }
    let skipped = |stages: &[StageRun], i: usize| stages[i].state == StageState::Skipped;
    // Cascade: a stage whose deps are all skipped is skipped too.
    for i in 0..n_stages {
        let deps = &spec.stages[i].deps;
        if !deps.is_empty() && deps.iter().all(|&d| skipped(&stages, d)) {
            stages[i].state = StageState::Skipped;
        }
    }

    // Live stages: their dependency counts, the terminals still to egress,
    // the data operations a failure-free run makes (one Get per input, one
    // Put, one egress per terminal) and the roots.
    let mut terminals_left = 0u32;
    let mut ops = 0usize;
    let mut roots = std::mem::take(&mut w.stage_scratch);
    for i in 0..n_stages {
        if skipped(&stages, i) {
            continue;
        }
        let deps_left = spec.stages[i]
            .deps
            .iter()
            .filter(|&&d| !skipped(&stages, d))
            .count() as u32;
        stages[i].state = StageState::Waiting { deps_left };
        ops += deps_left.max(1) as usize + 1;
        if spec.is_terminal(i) {
            terminals_left += 1;
            ops += 1;
        }
        if spec.stages[i].deps.is_empty() {
            roots.push(i);
        }
    }

    // Pre-warm hook for the elastic store.
    with_plane(w, now, None, |p, ctx| p.on_request(ctx, &placements));
    for (i, &fid) in fn_ids.iter().enumerate() {
        if !skipped(&stages, i) {
            if let Destination::Gpu(g) = placements[i] {
                let idx = g.node * w.topo.gpus_per_node() + g.gpu;
                w.scalers[idx].on_request(fid, now);
            }
        }
    }

    // The request payload lands in host memory of the first root's node.
    let input_node = roots
        .first()
        .map(|&r| match placements[r] {
            Destination::Gpu(g) => g.node,
            Destination::Host(n) => n,
        })
        .unwrap_or(0);
    let token = AccessToken {
        function: FunctionId(0),
        workflow: WorkflowId(inst_id),
    };
    let (input_data, _) = w.store.put(
        now,
        token,
        Location::Host(input_node),
        spec.input_bytes,
        roots.len() as u32,
    );

    // The operation log comes from the free list, sized for a failure-free
    // run's operations.
    let mut op_durations = w.free_op_logs.pop().unwrap_or_default();
    op_durations.reserve(ops);
    w.instances.insert(
        inst_id,
        Instance {
            spec,
            arrived: now,
            placements,
            stages,
            input_data,
            terminals_left,
            compute_total: SimDuration::ZERO,
            passing: [SimDuration::ZERO; PassCategory::COUNT],
            op_durations,
            workflow_id: WorkflowId(inst_id),
            wf_name,
            fn_ids,
        },
    );

    for &root in &roots {
        stage_ready(w, s, inst_id, root);
    }
    roots.clear();
    w.stage_scratch = roots;
    if w.config.sample_memory {
        w.sample_memory(now);
    }
}

// ---------------------------------------------------------------------------
// Stage lifecycle
// ---------------------------------------------------------------------------

/// Stage dependencies are satisfied: enqueue it. Serverless functions call
/// `Get` when they are *invoked*, not when upstream data appears, so inputs
/// stay in the store while the stage waits in the GPU queue — the
/// accumulation the elastic storage of §4.4 manages (Figs. 7 and 11).
pub(crate) fn stage_ready(w: &mut World, s: &mut Scheduler<World>, inst_id: u64, stage: usize) {
    // Queue rank drives queue-aware migration: record which queued stage
    // will consume each input and when.
    let rank = w.enqueue_counter;
    w.enqueue_counter += 1;
    let mut inputs = std::mem::take(&mut w.input_scratch);
    let dest = {
        let inst = &mut w.instances[inst_id];
        inst.stages[stage].rank = Some(rank);
        inst.stages[stage].state = StageState::Queued;
        stage_inputs(inst, stage, &mut inputs);
        inst.placements[stage]
    };
    for &d in &inputs {
        let cur = w.store.peek(d).and_then(|e| e.next_use);
        if cur.is_none_or(|c| rank < c) {
            w.store.set_next_use(d, Some(rank));
        }
    }
    inputs.clear();
    w.input_scratch = inputs;
    match dest {
        Destination::Gpu(g) => {
            let idx = w.gpu_index(g.node, g.gpu);
            if w.rec.on(grouter_obs::Comp::Runtime) {
                let inst = &mut w.instances[inst_id];
                inst.stages[stage].enqueued = Some(s.now());
                w.rec.instant(
                    grouter_obs::Comp::Runtime,
                    "stage_enqueue",
                    grouter_obs::Ids::inst(inst_id),
                    vec![
                        ("stage", stage.into()),
                        ("gpu", idx.into()),
                        ("rank", rank.into()),
                    ],
                );
            }
            w.gpus[idx].queue.push_back((inst_id, stage));
            try_dispatch_gpu(w, s, idx);
        }
        Destination::Host(_) => {
            // CPU slots are not a bottleneck in the paper's workloads.
            start_fetch(w, s, inst_id, stage);
        }
    }
}

/// Write into `out` (cleared first) the data IDs a stage consumes: outputs
/// of completed deps, or the workflow input for roots.
fn stage_inputs(inst: &Instance, stage: usize, out: &mut Vec<DataId>) {
    out.clear();
    let deps = &inst.spec.stages[stage].deps;
    if deps.is_empty() {
        out.push(inst.input_data);
    } else {
        #[expect(
            clippy::expect_used,
            reason = "stage_done records the output before dependents are enqueued"
        )]
        out.extend(
            deps.iter()
                .filter(|&&d| inst.stages[d].state == StageState::Done)
                .map(|&d| inst.stages[d].output.expect("done stage has output")),
        );
    }
}

pub(crate) fn try_dispatch_gpu(w: &mut World, s: &mut Scheduler<World>, gpu_idx: usize) {
    if w.gpus[gpu_idx].busy || w.gpus[gpu_idx].failed {
        return;
    }
    loop {
        let Some((inst_id, stage)) = w.gpus[gpu_idx].queue.pop_front() else {
            return;
        };
        // Recovery can fail an instance or reset a stage while it sits in
        // the queue; such entries are dropped here rather than eagerly
        // scrubbed from every queue.
        let valid = w
            .instances
            .get(inst_id)
            .map(|i| i.stages[stage].state == StageState::Queued)
            .unwrap_or(false);
        if valid {
            w.gpus[gpu_idx].busy = true;
            if w.rec.on(grouter_obs::Comp::Runtime) {
                let enqueued = w
                    .instances
                    .get(inst_id)
                    .and_then(|i| i.stages[stage].enqueued);
                let wait_ns = enqueued.map_or(0, |t| s.now().as_nanos() - t.as_nanos());
                w.rec.instant(
                    grouter_obs::Comp::Runtime,
                    "stage_dispatch",
                    grouter_obs::Ids::inst(inst_id),
                    vec![
                        ("stage", stage.into()),
                        ("gpu", gpu_idx.into()),
                        ("queue_wait_ns", wait_ns.into()),
                    ],
                );
                w.rec
                    .count(grouter_obs::Comp::Runtime, "stage_dispatches", 1);
            }
            start_fetch(w, s, inst_id, stage);
            return;
        }
    }
}

/// The function was invoked (GPU assigned / CPU slot taken): fetch inputs
/// through the data plane, then run.
fn start_fetch(w: &mut World, s: &mut Scheduler<World>, inst_id: u64, stage: usize) {
    let now = s.now();
    let mut inputs = std::mem::take(&mut w.input_scratch);
    let (token, dest) = {
        let inst = &mut w.instances[inst_id];
        let token = AccessToken {
            function: FunctionId(inst.fn_ids[stage]),
            workflow: inst.workflow_id,
        };
        stage_inputs(inst, stage, &mut inputs);
        inst.stages[stage].state = StageState::Fetching {
            gets_left: inputs.len() as u32,
        };
        (token, inst.placements[stage])
    };
    if inputs.is_empty() {
        w.input_scratch = inputs;
        start_running(w, s, inst_id, stage);
        return;
    }
    for &d in &inputs {
        let cat = {
            let inst = &w.instances[inst_id];
            let producer_gfn = if d == inst.input_data {
                false // workflow input arrives via host memory
            } else {
                inst.spec
                    .stages
                    .iter()
                    .enumerate()
                    .find(|(j, _)| inst.stages[*j].output == Some(d))
                    .map(|(_, st)| st.is_gpu())
                    .unwrap_or(false)
            };
            edge_category(producer_gfn, inst.spec.stages[stage].is_gpu())
        };
        let slo = instance_slo(&w.instances[inst_id]);
        #[expect(
            clippy::panic,
            reason = "a failed plane Get/Put is a DataPlane contract violation, so the run aborts"
        )]
        let op = with_plane(w, now, slo, |p, ctx| p.get(ctx, token, d, dest))
            .unwrap_or_else(|e| panic!("Get({d:?}) failed: {e}"));
        start_op(
            w,
            s,
            op,
            OpKind::Get {
                inst: inst_id,
                stage,
                data: d,
            },
            cat,
        );
    }
    inputs.clear();
    w.input_scratch = inputs;
}

fn start_running(w: &mut World, s: &mut Scheduler<World>, inst_id: u64, stage: usize) {
    let now = s.now();
    let (dest, compute, mem_bytes, attempt) = {
        let inst = &mut w.instances[inst_id];
        inst.stages[stage].state = StageState::Running;
        let spec = &inst.spec.stages[stage];
        let mem = match spec.kind {
            StageKind::Gpu { mem_bytes } => mem_bytes,
            StageKind::Cpu => 0.0,
        };
        (
            inst.placements[stage],
            spec.compute,
            mem,
            inst.stages[stage].attempt,
        )
    };

    // Containers are pre-warmed (the paper's setting, SHEPHERD-style), so a
    // stage starts computing at once.
    if let Destination::Gpu(g) = dest {
        // Model memory while running — may squeeze the storage pool.
        let idx = w.gpu_index(g.node, g.gpu);
        let used = w.pools[idx].runtime_used() + mem_bytes;
        w.pools[idx].set_runtime_used(used);
        let background = with_plane(w, now, None, |p, ctx| p.on_memory_change(ctx, g));
        run_background(w, s, background);
        if w.config.sample_memory {
            w.sample_memory(now);
        }
    }

    s.schedule_in(
        compute,
        Event::ComputeDone {
            inst: inst_id,
            stage,
            attempt,
        },
    );
}

fn compute_done(w: &mut World, s: &mut Scheduler<World>, inst_id: u64, stage: usize, attempt: u32) {
    let now = s.now();
    let (dest, compute, mem_bytes, output_bytes, fid) = {
        // The instance may have failed, or the stage may have been reset to
        // a newer attempt, while this completion was in flight. Recovery
        // already unwound the GPU/pool state; a stale completion must not
        // touch it again.
        let Some(inst) = w.instances.get_mut(inst_id) else {
            return;
        };
        if inst.stages[stage].attempt != attempt || inst.stages[stage].state != StageState::Running
        {
            return;
        }
        let spec = &inst.spec.stages[stage];
        // Saturating: a stage re-run after recovery adds its compute again,
        // so the total can pass the parse-time bound on the stages' sum.
        inst.compute_total = inst.compute_total.saturating_add(spec.compute);
        let mem = match spec.kind {
            StageKind::Gpu { mem_bytes } => mem_bytes,
            StageKind::Cpu => 0.0,
        };
        (
            inst.placements[stage],
            spec.compute,
            mem,
            spec.output_bytes,
            inst.fn_ids[stage],
        )
    };
    let _ = compute;

    if let Destination::Gpu(g) = dest {
        let idx = w.gpu_index(g.node, g.gpu);
        w.gpus[idx].busy = false;
        let used = (w.pools[idx].runtime_used() - mem_bytes).max(0.0);
        w.pools[idx].set_runtime_used(used);
        let background = with_plane(w, now, None, |p, ctx| p.on_memory_change(ctx, g));
        run_background(w, s, background);
        try_dispatch_gpu(w, s, idx);
        if w.config.sample_memory {
            w.sample_memory(now);
        }
    }

    // Store the output through the data plane. On a recovery re-run some
    // dependents may already hold their copy from the first attempt, so the
    // consumer count is restricted to the ones that will actually fetch.
    let consumers = {
        let inst = &w.instances[inst_id];
        if inst.stages[stage].attempt == 0 {
            inst.consumers_of(stage)
        } else {
            crate::fault::rerun_consumers(inst, stage)
        }
    };
    let token = AccessToken {
        function: FunctionId(fid),
        workflow: w.instances[inst_id].workflow_id,
    };
    w.instances[inst_id].stages[stage].state = StageState::Storing;
    let slo = instance_slo(&w.instances[inst_id]);
    #[expect(
        clippy::panic,
        reason = "a failed plane Get/Put is a DataPlane contract violation, so the run aborts"
    )]
    let put = with_plane(w, now, slo, |p, ctx| {
        p.put(ctx, token, dest, output_bytes, consumers)
    })
    .unwrap_or_else(|e| panic!("Put for stage {stage} failed: {e}"));
    let cat = {
        let inst = &w.instances[inst_id];
        let producer_gfn = inst.spec.stages[stage].is_gpu();
        // Attribute the put to the dominant downstream edge: gFn–gFn when
        // any live dependent is a GPU function, otherwise host-side
        // (cFn consumers or the response egress).
        let any_gfn_consumer = inst.spec.stages.iter().enumerate().any(|(j, st)| {
            st.deps.contains(&stage) && inst.stages[j].state != StageState::Skipped && st.is_gpu()
        });
        edge_category(producer_gfn, any_gfn_consumer)
    };
    start_op(
        w,
        s,
        put.op,
        OpKind::Put {
            inst: inst_id,
            stage,
            data: put.id,
        },
        cat,
    );
}

fn stage_done(w: &mut World, s: &mut Scheduler<World>, inst_id: u64, stage: usize, data: DataId) {
    let now = s.now();
    let mut dependents = std::mem::take(&mut w.stage_scratch);
    let (is_terminal, dest) = {
        let inst = &mut w.instances[inst_id];
        inst.stages[stage].state = StageState::Done;
        inst.stages[stage].output = Some(data);
        // A re-run of a terminal whose egress already completed must not
        // egress (and decrement `terminals_left`) twice.
        let is_terminal = inst.spec.is_terminal(stage) && !inst.stages[stage].egressed;
        for (j, st) in inst.spec.stages.iter().enumerate() {
            if st.deps.contains(&stage)
                && matches!(inst.stages[j].state, StageState::Waiting { .. })
            {
                dependents.push(j);
            }
        }
        (is_terminal, inst.placements[stage])
    };
    let topo = &w.topo;
    w.placer.release(topo, dest);

    for &j in &dependents {
        let ready = {
            let inst = &mut w.instances[inst_id];
            if let StageState::Waiting { deps_left } = inst.stages[j].state {
                let left = deps_left - 1;
                inst.stages[j].state = StageState::Waiting { deps_left: left };
                left == 0
            } else {
                false
            }
        };
        if ready {
            stage_ready(w, s, inst_id, j);
        }
    }
    dependents.clear();
    w.stage_scratch = dependents;

    if is_terminal {
        // Response egress: pull the output into host memory.
        let (token, node) = {
            let inst = &w.instances[inst_id];
            let node = match inst.placements[stage] {
                Destination::Gpu(g) => g.node,
                Destination::Host(n) => n,
            };
            (
                AccessToken {
                    function: FunctionId(inst.fn_ids[stage]),
                    workflow: inst.workflow_id,
                },
                node,
            )
        };
        let cat = edge_category(w.instances[inst_id].spec.stages[stage].is_gpu(), false);
        let slo = instance_slo(&w.instances[inst_id]);
        #[expect(
            clippy::panic,
            reason = "a failed plane Get/Put is a DataPlane contract violation, so the run aborts"
        )]
        let op = with_plane(w, now, slo, |p, ctx| {
            p.get(ctx, token, data, Destination::Host(node))
        })
        .unwrap_or_else(|e| panic!("egress Get failed: {e}"));
        start_op(
            w,
            s,
            op,
            OpKind::Egress {
                inst: inst_id,
                stage,
                data,
            },
            cat,
        );
    }
}

fn finish_instance(w: &mut World, s: &mut Scheduler<World>, inst_id: u64) {
    let now = s.now();
    #[expect(
        clippy::expect_used,
        reason = "scheduled events reference instances that outlive them; a miss is a scheduler bug"
    )]
    let inst = w.instances.remove(inst_id).expect("live");
    // Response payload back to the admitting gateway: the terminal stages'
    // outputs (what egress returned to the caller).
    let resp_bytes: f64 = (0..inst.spec.stages.len())
        .filter(|&t| inst.spec.is_terminal(t))
        .map(|t| inst.spec.stages[t].output_bytes)
        .sum();
    let record = InstanceRecord {
        workflow: inst.wf_name,
        arrived: inst.arrived,
        completed: now,
        compute: inst.compute_total,
        passing: inst.passing,
    };
    w.metrics.record(record, &inst.op_durations);
    w.recycle_op_log(inst.op_durations);
    crate::cluster::on_instance_finished(w, now, inst_id, resp_bytes);
    let _ = s;
}

// ---------------------------------------------------------------------------
// Data operations
// ---------------------------------------------------------------------------

pub(crate) fn start_op(
    w: &mut World,
    s: &mut Scheduler<World>,
    op: DataOp,
    kind: OpKind,
    category: PassCategory,
) {
    let op_id = w.next_op;
    w.next_op += 1;
    let span = if w.rec.on(grouter_obs::Comp::Runtime) {
        let (label, ids) = match kind {
            OpKind::Get { inst, .. } => ("get", grouter_obs::Ids::op(op_id).with_inst(inst)),
            OpKind::Put { inst, .. } => ("put", grouter_obs::Ids::op(op_id).with_inst(inst)),
            OpKind::Egress { inst, .. } => ("egress", grouter_obs::Ids::op(op_id).with_inst(inst)),
            OpKind::Background => ("background", grouter_obs::Ids::op(op_id)),
        };
        w.rec.begin(
            grouter_obs::Comp::Runtime,
            "op",
            ids,
            vec![("kind", label.into()), ("legs", op.legs.len().into())],
        )
    } else {
        0
    };
    w.ops.insert(
        op_id,
        PendingOp {
            legs: op.legs.into(),
            staged: false,
            started: s.now(),
            kind,
            category,
            rate_token: None,
            ledger_release: None,
            pinned_release: None,
            span,
        },
    );
    s.schedule_in(op.control_latency, Event::AdvanceOp { op: op_id });
}

fn advance_op(w: &mut World, s: &mut Scheduler<World>, op_id: u64) {
    let Some(pending) = w.ops.get_mut(op_id) else {
        return;
    };
    match pending.legs.front() {
        None => complete_op(w, s, op_id),
        Some(leg) => {
            let setup = leg.plan.setup;
            pending.staged = true;
            s.schedule_in(setup, Event::BeginLeg { op: op_id });
        }
    }
}

fn begin_leg(w: &mut World, s: &mut Scheduler<World>, op_id: u64) {
    let now = s.now();
    let leg = match w.ops.get_mut(op_id) {
        Some(pending) => {
            pending.staged = false;
            #[expect(
                clippy::expect_used,
                reason = "advance_op stages exactly one leg per BeginLeg event"
            )]
            let leg = pending.legs.pop_front().expect("staged leg");
            pending.rate_token = leg.rate_token;
            pending.ledger_release = leg.ledger_release;
            pending.pinned_release = leg.pinned_release;
            leg
        }
        None => {
            // The op was cancelled by recovery between advance_op and this
            // event; cancel_op parked the staged leg. Its pre-attached
            // reservations were made when the plane built it and would leak
            // without an explicit release.
            if let Some(leg) = w.orphan_legs.remove(&op_id) {
                release_leg_resources(w, &leg);
            }
            return;
        }
    };
    if leg.health == crate::dataplane::LegHealth::Degraded {
        w.log_recovery(now, crate::fault::RecoveryEvent::DegradedLeg { op: op_id });
    }
    // Apply direct-path rebalances: move other functions' in-flight flows
    // onto their new routes (§4.3.3 reassignment). A flow that already
    // finished simply isn't in the index any more. The reroutes and the
    // leg's own flow starts all land at this instant, so the whole leg is
    // one allocation batch: rates are recomputed once, over the union of
    // the touched contention components.
    w.net.begin_batch();
    for (node, rb) in &leg.reroutes {
        if let Some(fid) = w.nv_flow_index.find(*node, &rb.old) {
            #[expect(
                clippy::expect_used,
                reason = "ledger rebalances route over edges of the live topology"
            )]
            let links = grouter_transfer::plan::nvlink_route_links(&w.topo, *node, &rb.new)
                .expect("rebalance routes use existing edges");
            #[expect(
                clippy::expect_used,
                reason = "the flow id comes from nv_flow_index, which tracks only live flows"
            )]
            w.net
                .reroute_flow(now, fid, links)
                .expect("rerouted flow is live");
            w.nv_flow_index.insert(fid, *node, rb.new.clone());
            w.rebalances_applied += 1;
        }
    }
    let outcome = w.engine.begin(
        &mut w.net,
        now,
        leg.plan,
        leg.nv_node,
        &mut w.started_scratch,
    );
    w.net.commit_batch();
    match outcome {
        #[expect(
            clippy::panic,
            reason = "a plan over unknown links is a planner/topology mismatch, so the run aborts"
        )]
        Err(e) => panic!("transfer begin failed: {e}"),
        Ok(BeginOutcome::Immediate) => {
            release_rate_token(w, op_id);
            release_ledger(w, op_id);
            advance_op(w, s, op_id);
        }
        Ok(BeginOutcome::InFlight(tid)) => {
            for (fid, route) in w.started_scratch.drain(..) {
                if let Some(route) = route {
                    w.nv_flow_index.insert(fid, leg.nv_node, route);
                }
            }
            w.transfer_waiters.insert(tid, op_id);
            schedule_net_wake(w, s);
        }
    }
}

/// Release a not-yet-begun leg's reservations (rate token, ledger paths,
/// pinned staging bytes) without running it.
pub(crate) fn release_leg_resources(w: &mut World, leg: &crate::dataplane::OpLeg) {
    if let Some((node, token)) = leg.rate_token {
        w.rates[node].finish(token);
    }
    if let Some((node, res)) = leg.ledger_release {
        w.ledgers[node].release(res);
    }
    if let Some((node, bytes)) = leg.pinned_release {
        w.pinned[node].release(bytes);
    }
}

fn release_rate_token(w: &mut World, op_id: u64) {
    if let Some(pending) = w.ops.get_mut(op_id) {
        if let Some((node, token)) = pending.rate_token.take() {
            w.rates[node].finish(token);
        }
    }
}

fn release_ledger(w: &mut World, op_id: u64) {
    if let Some(pending) = w.ops.get_mut(op_id) {
        if let Some((node, res)) = pending.ledger_release.take() {
            w.ledgers[node].release(res);
        }
        if let Some((node, bytes)) = pending.pinned_release.take() {
            w.pinned[node].release(bytes);
        }
    }
}

fn complete_op(w: &mut World, s: &mut Scheduler<World>, op_id: u64) {
    let now = s.now();
    // Read the record's `Copy` fields in place and drop the rest (its
    // emptied leg queue) where it lies, rather than moving the record out.
    let op = &w.ops[op_id];
    let (span, started, kind, category) = (op.span, op.started, op.kind, op.category);
    w.ops.discard(op_id);
    w.rec.end(span, vec![]);
    let duration = now - started;
    match kind {
        OpKind::Get { inst, stage, data } => {
            record_pass(w, inst, category, duration);
            // The consumer has its copy; release the stored object.
            let background = with_plane(w, now, None, |p, ctx| p.on_consumed(ctx, data));
            run_background(w, s, background);
            let ready = {
                let Some(instance) = w.instances.get_mut(inst) else {
                    return;
                };
                if let StageState::Fetching { gets_left } = instance.stages[stage].state {
                    instance.mark_got(stage, data);
                    let left = gets_left - 1;
                    instance.stages[stage].state = StageState::Fetching { gets_left: left };
                    left == 0
                } else {
                    false
                }
            };
            if ready {
                start_running(w, s, inst, stage);
            }
        }
        OpKind::Put { inst, stage, data } => {
            record_pass(w, inst, category, duration);
            stage_done(w, s, inst, stage, data);
        }
        OpKind::Egress { inst, stage, data } => {
            record_pass(w, inst, category, duration);
            let background = with_plane(w, now, None, |p, ctx| p.on_consumed(ctx, data));
            run_background(w, s, background);
            let done = {
                let Some(instance) = w.instances.get_mut(inst) else {
                    return;
                };
                instance.stages[stage].egressed = true;
                instance.terminals_left -= 1;
                instance.terminals_left == 0
            };
            if done {
                finish_instance(w, s, inst);
            }
        }
        OpKind::Background => {}
    }
}

fn record_pass(w: &mut World, inst_id: u64, cat: PassCategory, dur: SimDuration) {
    if let Some(inst) = w.instances.get_mut(inst_id) {
        if let Some(slot) = inst.passing.get_mut(cat.index()) {
            *slot = *slot + dur;
        }
        inst.op_durations.push((cat, dur));
    }
}

pub(crate) fn run_background(w: &mut World, s: &mut Scheduler<World>, ops: Vec<DataOp>) {
    for op in ops {
        start_op(w, s, op, OpKind::Background, PassCategory::GpuHost);
    }
}

// ---------------------------------------------------------------------------
// Network wake
// ---------------------------------------------------------------------------

pub(crate) fn schedule_net_wake(w: &mut World, s: &mut Scheduler<World>) {
    let Some(at) = w.net.next_completion() else {
        return;
    };
    let version = w.net.version();
    s.schedule_at(at, Event::NetWake { version });
}

/// Harvest the flow network at a wake instant: one event per *batch* of
/// completions sharing the instant, not one per flow.
fn net_wake(w: &mut World, s: &mut Scheduler<World>, version: u64) {
    if w.net.version() != version {
        return; // stale wake; a fresher one is scheduled
    }
    let mut done = std::mem::take(&mut w.flow_scratch);
    w.net.advance_to_into(s.now(), &mut done);
    for fid in &done {
        w.nv_flow_index.remove(fid);
    }
    let mut finished = std::mem::take(&mut w.done_scratch);
    w.engine.on_flows_complete(&done, &mut finished);
    done.clear();
    w.flow_scratch = done;
    for td in finished.drain(..) {
        for (route, rate) in &td.nv_releases {
            w.ledgers[td.nv_node].bwm_mut().release_path(route, *rate);
        }
        if let Some(op_id) = w.transfer_waiters.remove(&td.id) {
            release_rate_token(w, op_id);
            release_ledger(w, op_id);
            advance_op(w, s, op_id);
        }
    }
    w.done_scratch = finished;
    schedule_net_wake(w, s);
}
