//! Cluster-scale sharded runtime: node groups as conservative shards.
//!
//! A 64–128-GPU serverless cluster is modelled as a set of *node groups*
//! (one DGX-class node each, or a small rack), every group owning a full
//! [`World`] — its own topology, data plane, event timeline and RNG stream.
//! Groups interact only through the cluster frontend: a request is routed
//! to a *home* group, and if the gateway that admitted it belongs to a
//! different group, the invocation (and later its response) crosses a
//! frontend channel with [`params::CROSS_GROUP_LATENCY`] one-way latency
//! and [`params::CROSS_GROUP_BW`] bandwidth. That latency is the
//! conservative lookahead of the sharded engine: no group can affect
//! another sooner, so every group may simulate that far ahead of the
//! global safe horizon in parallel (see `grouter_sim::shard`).
//!
//! Determinism: group worlds draw from [`DetRng::split`] streams of the
//! run seed, cross-group messages are delivered in `(time, src, seq)`
//! order regardless of worker threads, and merged reports iterate groups
//! in index order — the same seed yields byte-identical metrics CSV and
//! recovery logs on 1 or N threads.

use std::sync::Arc;

use grouter_sim::engine::Scheduler;
use grouter_sim::fault::FaultPlan;
use grouter_sim::params;
use grouter_sim::rng::DetRng;
use grouter_sim::shard::{Envelope, RunStats, ShardWorld, ShardedEngine};
use grouter_sim::time::{SimDuration, SimTime};
use grouter_sim::FxHashMap;
use grouter_topology::graph::TopologySpec;

use crate::dataplane::DataPlane;
use crate::exec::{Event, Runtime};
use crate::metrics::Metrics;
use crate::spec::WorkflowSpec;
use crate::world::{RuntimeConfig, World};

/// A message crossing the cluster frontend between two groups.
#[derive(Clone, Debug)]
pub enum CrossMsg {
    /// Forwarded invocation: run logical workflow `spec` here; tell
    /// `origin` when it finishes.
    Invoke { spec: u32, origin: u32 },
    /// Completion notification flowing back to the admitting group.
    Response,
    /// Worker state snapshot published to the router (service mode). Boxed:
    /// the snapshot carries per-GPU vectors and must not fatten every
    /// envelope in the fabric.
    Heartbeat(Box<Heartbeat>),
}

/// One worker heartbeat: everything the router's scheduler is allowed to
/// know about a group, as of the emission instant (`DESIGN.md` §5.9). The
/// router's view is exactly the last snapshot per group — between beats it
/// is stale by construction, which is the point of the control-plane
/// boundary.
#[derive(Clone, Debug, PartialEq)]
pub struct Heartbeat {
    /// Emitting group.
    pub group: u32,
    /// Per-group monotone sequence number.
    pub seq: u64,
    /// Virtual emission time.
    pub at: SimTime,
    /// Live workflow instances on the group (queue depth).
    pub depth: u32,
    /// Per-GPU memory occupancy snapshots (flat index).
    pub pool: Vec<grouter_mem::PoolOccupancy>,
    /// Requests completed so far.
    pub completed: u64,
    /// Requests failed (typed) so far.
    pub failed: u64,
    /// `false` on the final beat before the group's daemon goes idle; the
    /// router must not suspect a group that told it it went quiet.
    pub active: bool,
}

/// Router-side admission/placement policy consulted by the service-mode
/// gateway. The mechanism (heartbeat transport, drop budgets, arming) lives
/// here in `runtime`; the policy (`grouter-ctl`'s heartbeat-view scheduler)
/// is injected through this trait.
///
/// Every call happens inside the router group's deterministic event
/// dispatch, so implementations may keep mutable state and an admission log
/// without any thread-count dependence.
pub trait RouterAgent: Send {
    /// A heartbeat from `src` survived the fabric (and any drop budget).
    fn on_heartbeat(&mut self, now: SimTime, src: u32, hb: &Heartbeat, rec: &grouter_obs::Recorder);

    /// Pick the executing group for a request admitted at the router.
    fn route(&mut self, now: SimTime, spec: u32, rec: &grouter_obs::Recorder) -> u32;

    /// The admission log accumulated so far (one line per routed request);
    /// byte-identical across worker thread counts.
    fn admission_log(&self) -> String;
}

/// Heartbeat wiring for one group: publish snapshots to group `to` every
/// `interval` while the group has live work.
#[derive(Clone, Copy, Debug)]
pub struct HeartbeatConfig {
    /// Router group receiving this group's beats.
    pub to: u32,
    /// Beat period (virtual time).
    pub interval: SimDuration,
}

impl Default for HeartbeatConfig {
    fn default() -> HeartbeatConfig {
        HeartbeatConfig {
            to: 0,
            interval: params::HEARTBEAT_INTERVAL,
        }
    }
}

/// Open-loop request generator a group's gateway pulls from. Arrivals must
/// be non-decreasing in time; `home` picks the executing group (locality
/// routing keeps most requests on the admitting group).
pub trait ArrivalSource: Send {
    fn next(&mut self) -> Option<ClusterArrival>;
}

/// One frontend arrival: at `at`, logical workflow `spec` (an index into
/// the cluster-global registry) is admitted and routed to group `home`.
#[derive(Clone, Copy, Debug)]
pub struct ClusterArrival {
    pub at: SimTime,
    pub spec: u32,
    pub home: u32,
}

/// A workflow registered with a group, with the submit identities the
/// executor needs precomputed (interned name + stable function ids).
pub struct RegisteredSpec {
    pub spec: Arc<WorkflowSpec>,
    pub wf_name: u32,
    pub fn_ids: Arc<[u64]>,
}

/// Per-group cluster frontend state, carried inside the group's [`World`].
///
/// Registry indices are *cluster-global logical ids*: every group registers
/// the same workflow list in the same order (heterogeneous groups register
/// their own GPU-tuned variant at the same index), so a forwarded `Invoke`
/// names the right workflow everywhere.
pub struct ClusterPort {
    /// This group's index.
    pub group: u32,
    /// Total groups in the cluster.
    pub groups: u32,
    pub registry: Vec<RegisteredSpec>,
    /// This group's share of the frontend request stream.
    pub source: Option<Box<dyn ArrivalSource>>,
    /// One-way frontend latency (also the engine lookahead floor).
    pub cross_latency: SimDuration,
    /// Directed per-(src,dst) frontend channel bandwidth, bytes/sec.
    pub cross_bw: f64,
    /// Envelopes produced this window, drained by the sharded engine.
    pub(crate) outbox: Vec<Envelope<CrossMsg>>,
    /// Per-destination envelope sequence counter.
    seq: u64,
    /// FIFO serialization point of each directed channel: the next message
    /// to `dst` cannot depart before the previous one finished transmitting.
    busy_until: FxHashMap<u32, SimTime>,
    /// Admitting group of each remotely-requested live instance.
    origin: FxHashMap<u64, u32>,
    /// Responses received for requests this group admitted (local
    /// completions count immediately; remote ones on `Response` delivery).
    pub responses: u64,
    /// Invocations this group forwarded elsewhere.
    pub remote_out: u64,
    /// Invocations this group executed for another group.
    pub remote_in: u64,
    /// Service-mode heartbeat wiring; `None` outside service mode.
    pub hb: Option<HeartbeatConfig>,
    /// Per-group heartbeat sequence counter.
    pub(crate) hb_seq: u64,
    /// A heartbeat tick chain is scheduled (armed on admit, disarmed by the
    /// final idle beat — the chain never outlives the work, so service runs
    /// still quiesce).
    pub(crate) hb_armed: bool,
    /// Worker death: the daemon is silent until a `WorkerRestart`.
    pub(crate) hb_muted: bool,
    /// Router-side fault budget: the next `hb_drop[g]` heartbeats from
    /// group `g` are lost before the agent sees them (`HeartbeatLoss`).
    pub(crate) hb_drop: Vec<u32>,
    /// Heartbeats published by this group.
    pub hb_sent: u64,
    /// Heartbeats this group's agent consumed.
    pub hb_recv: u64,
    /// Heartbeats lost to an injected drop budget.
    pub hb_drops: u64,
    /// Router-side admission/placement policy (service mode, router group
    /// only).
    pub agent: Option<Box<dyn RouterAgent>>,
}

impl ClusterPort {
    pub fn new(group: u32, groups: u32) -> ClusterPort {
        ClusterPort {
            group,
            groups,
            registry: Vec::new(),
            source: None,
            cross_latency: params::CROSS_GROUP_LATENCY,
            cross_bw: params::CROSS_GROUP_BW,
            outbox: Vec::new(),
            seq: 0,
            busy_until: FxHashMap::default(),
            origin: FxHashMap::default(),
            responses: 0,
            remote_out: 0,
            remote_in: 0,
            hb: None,
            hb_seq: 0,
            hb_armed: false,
            hb_muted: false,
            hb_drop: vec![0; groups as usize],
            hb_sent: 0,
            hb_recv: 0,
            hb_drops: 0,
            agent: None,
        }
    }

    /// Queue `msg` for `dst`: serialize on the directed channel's FIFO,
    /// transmit `bytes` at the channel bandwidth, then add the one-way
    /// latency. The stamped time is always ≥ `now + cross_latency`, which
    /// is what licenses the engine's lookahead.
    fn send(&mut self, now: SimTime, dst: u32, bytes: f64, msg: CrossMsg) {
        let busy = self
            .busy_until
            .get(&dst)
            .copied()
            .unwrap_or(SimTime::ZERO)
            .max(now);
        let xfer = SimDuration::from_secs_f64(bytes.max(0.0) / self.cross_bw);
        let ready = busy + xfer;
        self.busy_until.insert(dst, ready);
        self.outbox.push(Envelope {
            at: ready + self.cross_latency,
            src: self.group,
            dst,
            seq: self.seq,
            msg,
        });
        self.seq += 1;
    }
}

/// The engine lookahead a cluster of these ports supports: the frontend
/// one-way latency, which every cross-group message pays on top of its
/// send time.
pub fn cross_group_lookahead() -> SimDuration {
    params::CROSS_GROUP_LATENCY
}

// ---------------------------------------------------------------------------
// Event handlers (dispatched from `exec`)
// ---------------------------------------------------------------------------

/// Pull the next arrival off this group's source and schedule its ingress
/// plus the following pull (chained so the event queue holds O(1) future
/// arrivals instead of the whole trace).
pub(crate) fn next_arrival(w: &mut World, s: &mut Scheduler<World>) {
    let Some(port) = w.cluster.as_mut() else {
        return;
    };
    let Some(source) = port.source.as_mut() else {
        return;
    };
    if let Some(a) = source.next() {
        debug_assert!(a.at >= s.now(), "arrival sources must be time-ordered");
        let at = a.at.max(s.now());
        s.schedule_at(
            at,
            Event::ClusterIngress {
                spec: a.spec,
                home: a.home,
            },
        );
        s.schedule_at(at, Event::NextArrival);
    }
}

/// A request reached this group's gateway: run it here if this is its home
/// group, otherwise forward the invocation across the frontend. A
/// service-mode router (a group carrying a [`RouterAgent`]) re-routes
/// requests homed on it from the agent's heartbeat view instead of the
/// omniscient scan.
pub(crate) fn ingress(w: &mut World, s: &mut Scheduler<World>, spec: u32, home: u32) {
    let now = s.now();
    let rec = w.rec.clone();
    let Some(port) = w.cluster.as_mut() else {
        return;
    };
    let me = port.group;
    let groups = port.groups;
    let mut home = home;
    if home == me {
        if let Some(mut agent) = port.agent.take() {
            rec.count(grouter_obs::Comp::Ctl, "admit", 1);
            home = agent.route(now, spec, &rec);
            debug_assert!(home < groups, "agent routed to unknown group");
            if home != me {
                rec.count(grouter_obs::Comp::Ctl, "route_remote", 1);
            }
            port.agent = Some(agent);
        }
    }
    if home == me {
        admit(w, s, spec, None);
    } else {
        port.remote_out += 1;
        let bytes = port.registry[spec as usize].spec.input_bytes;
        port.send(now, home, bytes, CrossMsg::Invoke { spec, origin: me });
    }
}

/// A frontend envelope from group `src` stamped for this instant: execute a
/// forwarded invocation, account a returning response, or absorb a worker
/// heartbeat into the router's view.
pub(crate) fn deliver(w: &mut World, s: &mut Scheduler<World>, src: u32, msg: CrossMsg) {
    let now = s.now();
    match msg {
        CrossMsg::Invoke { spec, origin } => {
            if let Some(port) = w.cluster.as_mut() {
                port.remote_in += 1;
            }
            admit(w, s, spec, Some(origin));
        }
        CrossMsg::Response => {
            if let Some(port) = w.cluster.as_mut() {
                port.responses += 1;
            }
        }
        CrossMsg::Heartbeat(hb) => {
            let rec = w.rec.clone();
            let Some(port) = w.cluster.as_mut() else {
                return;
            };
            // Injected router-side loss: burn the budget before the agent
            // ever sees the beat.
            let dropped = match port.hb_drop.get_mut(src as usize) {
                Some(budget) if *budget > 0 => {
                    *budget -= 1;
                    port.hb_drops += 1;
                    true
                }
                _ => false,
            };
            if dropped {
                rec.count(grouter_obs::Comp::Ctl, "hb_drop", 1);
                w.log_recovery(
                    now,
                    crate::fault::RecoveryEvent::HbDropped {
                        group: src as usize,
                    },
                );
                return;
            }
            port.hb_recv += 1;
            if let Some(mut agent) = port.agent.take() {
                rec.count(grouter_obs::Comp::Ctl, "hb_recv", 1);
                agent.on_heartbeat(now, src, &hb, &rec);
                port.agent = Some(agent);
            }
        }
    }
}

/// Schedule the heartbeat tick chain if service-mode wiring is installed
/// and the daemon is neither already ticking nor dead. Called on every
/// admit: the chain runs exactly while the group has work (plus one final
/// idle beat), so it never blocks global quiescence.
pub(crate) fn arm_heartbeat(w: &mut World, s: &mut Scheduler<World>) {
    let Some(port) = w.cluster.as_mut() else {
        return;
    };
    let Some(hb) = port.hb else {
        return;
    };
    if port.hb_armed || port.hb_muted {
        return;
    }
    port.hb_armed = true;
    s.schedule_at(s.now() + hb.interval, Event::HeartbeatTick);
}

/// Emit one heartbeat and keep the chain alive while the group is busy.
/// The last beat of a burst reports `active: false` and disarms; a muted
/// (dead) worker silently drops the chain until restart re-arms it.
pub(crate) fn heartbeat_tick(w: &mut World, s: &mut Scheduler<World>) {
    let now = s.now();
    // Snapshot world state before borrowing the port.
    let depth = w.instances.len() as u32;
    let active = depth > 0;
    let pool: Vec<grouter_mem::PoolOccupancy> = w.pools.iter().map(|p| p.occupancy()).collect();
    let completed = w.metrics.completed() as u64;
    let failed = w.metrics.failed;
    let rec = w.rec.clone();
    let Some(port) = w.cluster.as_mut() else {
        return;
    };
    let Some(cfg) = port.hb else {
        return;
    };
    if port.hb_muted {
        port.hb_armed = false;
        return;
    }
    let hb = Heartbeat {
        group: port.group,
        seq: port.hb_seq,
        at: now,
        depth,
        pool,
        completed,
        failed,
        active,
    };
    port.hb_seq += 1;
    port.hb_sent += 1;
    rec.count(grouter_obs::Comp::Ctl, "hb_sent", 1);
    let src = port.group;
    if cfg.to == src {
        // The router's own worker daemon: zero network staleness, no
        // envelope — the snapshot goes straight into the agent's view.
        if let Some(mut agent) = port.agent.take() {
            port.hb_recv += 1;
            rec.count(grouter_obs::Comp::Ctl, "hb_recv", 1);
            agent.on_heartbeat(now, src, &hb, &rec);
            port.agent = Some(agent);
        }
    } else {
        port.send(
            now,
            cfg.to,
            params::HEARTBEAT_BYTES,
            CrossMsg::Heartbeat(Box::new(hb)),
        );
    }
    if active {
        s.schedule_at(now + cfg.interval, Event::HeartbeatTick);
    } else {
        port.hb_armed = false;
    }
}

/// Start a registered workflow on this group's world, remembering the
/// admitting group so the completion can be routed back.
fn admit(w: &mut World, s: &mut Scheduler<World>, spec_idx: u32, origin: Option<u32>) {
    let (spec, wf_name, fn_ids) = {
        #[expect(
            clippy::expect_used,
            reason = "admit is only reachable from cluster events, which require the port"
        )]
        let port = w.cluster.as_ref().expect("admit on non-cluster world");
        let r = &port.registry[spec_idx as usize];
        (r.spec.clone(), r.wf_name, r.fn_ids.clone())
    };
    // `arrival` consumes this id; a fail-fast arrival never inserts it.
    let inst_id = w.next_instance;
    w.metrics.arrivals += 1;
    crate::exec::arrival(w, s, spec, wf_name, fn_ids);
    if let Some(origin) = origin {
        if w.instances.contains_key(inst_id) {
            if let Some(port) = w.cluster.as_mut() {
                port.origin.insert(inst_id, origin);
            }
        }
    }
    // Service mode: admitting work (re)starts the worker's heartbeat
    // daemon; a no-op without heartbeat wiring.
    arm_heartbeat(w, s);
}

/// Executor hook: an instance finished. Route the response (terminal-stage
/// output bytes) back to its admitting group, or count it locally.
pub(crate) fn on_instance_finished(w: &mut World, now: SimTime, inst_id: u64, resp_bytes: f64) {
    let Some(port) = w.cluster.as_mut() else {
        return;
    };
    match port.origin.remove(&inst_id) {
        Some(origin) if origin != port.group => {
            port.send(now, origin, resp_bytes, CrossMsg::Response);
        }
        _ => port.responses += 1,
    }
}

/// Executor hook: an instance failed (typed recovery failure). Failed
/// requests never answer their admitting gateway; drop the routing entry
/// so the origin map cannot grow over a chaotic run.
pub(crate) fn on_instance_failed(w: &mut World, inst_id: u64) {
    if let Some(port) = w.cluster.as_mut() {
        port.origin.remove(&inst_id);
    }
}

impl ShardWorld for World {
    type Msg = CrossMsg;

    fn drain_outbox(&mut self, sink: &mut Vec<Envelope<CrossMsg>>) {
        if let Some(port) = self.cluster.as_mut() {
            sink.append(&mut port.outbox);
        }
    }

    fn apply_message(&mut self, sched: &mut Scheduler<World>, env: Envelope<CrossMsg>) {
        sched.schedule_at(
            env.at,
            Event::ClusterDeliver {
                src: env.src,
                msg: env.msg,
            },
        );
    }
}

// ---------------------------------------------------------------------------
// ClusterSim facade
// ---------------------------------------------------------------------------

/// Everything needed to build one group's world.
pub struct GroupSetup {
    pub topo: TopologySpec,
    pub nodes: usize,
    pub plane: Box<dyn DataPlane>,
    pub config: RuntimeConfig,
    /// Cluster-global workflow registry, in logical-id order. Every group
    /// must supply the same-length list; heterogeneous groups supply their
    /// own GPU-tuned variants at matching indices.
    pub specs: Vec<Arc<WorkflowSpec>>,
    pub source: Option<Box<dyn ArrivalSource>>,
    /// Fault plans to install on this group's world (data-plane and
    /// control-plane plans compose; each is scheduled independently).
    pub fault_plans: Vec<FaultPlan>,
    /// Service-mode heartbeat wiring for this group's worker daemon.
    pub hb: Option<HeartbeatConfig>,
    /// Router-side scheduling policy; set on exactly the router group in
    /// service mode.
    pub agent: Option<Box<dyn RouterAgent>>,
}

/// A sharded cluster: one [`World`] per node group under a conservative
/// parallel engine, plus deterministic merged reporting.
pub struct ClusterSim {
    engine: ShardedEngine<World>,
}

impl ClusterSim {
    /// Build the cluster. Each group's world seeds its RNG from
    /// `DetRng::new(run_seed).split(group)` — deterministic and independent
    /// of group construction order.
    pub fn new(run_seed: u64, groups: Vec<GroupSetup>) -> ClusterSim {
        let n = groups.len() as u32;
        assert!(n > 0, "a cluster needs at least one group");
        let root = DetRng::new(run_seed);
        let mut sims = Vec::with_capacity(groups.len());
        for (g, setup) in groups.into_iter().enumerate() {
            let mut rt = Runtime::new(setup.topo, setup.nodes, setup.plane, setup.config);
            rt.world_mut().rng = root.split(g as u64);
            let mut port = ClusterPort::new(g as u32, n);
            for spec in setup.specs {
                rt.cluster_register(&mut port, spec);
            }
            port.source = setup.source;
            port.hb = setup.hb;
            port.agent = setup.agent;
            rt.world_mut().cluster = Some(Box::new(port));
            for plan in &setup.fault_plans {
                rt.install_fault_plan(plan);
            }
            rt.start_cluster_arrivals();
            sims.push(rt.into_sim());
        }
        ClusterSim {
            engine: ShardedEngine::from_sims(sims, cross_group_lookahead()),
        }
    }

    /// Run every group to global quiescence on `threads` threads, the
    /// calling thread included. The result is byte-identical for any
    /// thread count.
    pub fn run(&mut self, threads: usize) -> RunStats {
        self.engine.run(threads)
    }

    pub fn groups(&self) -> usize {
        self.engine.shards()
    }

    pub fn world(&self, group: usize) -> &World {
        &self.engine.shard(group).world
    }

    /// A group's local virtual clock (groups stop at slightly different
    /// instants; the cluster-wide sim time is the max).
    pub fn now(&self, group: usize) -> SimTime {
        self.engine.shard(group).now()
    }

    #[expect(
        clippy::expect_used,
        reason = "ClusterSim::new installs a port on every group world it builds"
    )]
    pub fn port(&self, group: usize) -> &ClusterPort {
        self.world(group)
            .cluster
            .as_ref()
            .expect("cluster worlds carry a port")
    }

    pub fn arrivals(&self) -> u64 {
        self.each().map(|w| w.metrics.arrivals).sum()
    }

    pub fn completed(&self) -> usize {
        self.each().map(|w| w.metrics.completed()).sum()
    }

    pub fn failed(&self) -> u64 {
        self.each().map(|w| w.metrics.failed).sum()
    }

    pub fn responses(&self) -> u64 {
        (0..self.groups()).map(|g| self.port(g).responses).sum()
    }

    /// Heartbeats published / consumed / injected-dropped, cluster-wide.
    pub fn heartbeat_stats(&self) -> (u64, u64, u64) {
        (0..self.groups()).fold((0, 0, 0), |(s, r, d), g| {
            let p = self.port(g);
            (s + p.hb_sent, r + p.hb_recv, d + p.hb_drops)
        })
    }

    /// The router agent's admission log, if any group carries one (service
    /// mode). Byte-identical across worker thread counts.
    pub fn admission_log(&self) -> Option<String> {
        (0..self.groups()).find_map(|g| self.port(g).agent.as_ref().map(|a| a.admission_log()))
    }

    fn each(&self) -> impl Iterator<Item = &World> {
        self.engine.sims().iter().map(|s| &s.world)
    }

    /// Merged per-instance metrics, grouped deterministically: the standard
    /// CSV prefixed with a `group` column, groups in index order. Identical
    /// bytes for any worker thread count.
    pub fn merged_csv(&self) -> String {
        let mut out = format!("group,{}", Metrics::CSV_HEADER);
        for (g, w) in self.each().enumerate() {
            w.metrics.write_csv_rows(&mut out, Some(g));
        }
        out
    }

    /// Merged recovery log, ordered by `(time, group, per-group index)` —
    /// a deterministic global interleaving of every group's typed log.
    pub fn merged_recovery_log(&self) -> String {
        let mut rows: Vec<(SimTime, usize, usize, String)> = Vec::new();
        for (g, w) in self.each().enumerate() {
            for (i, (t, ev)) in w.recovery_log().iter().enumerate() {
                rows.push((*t, g, i, format!("{ev:?}")));
            }
        }
        rows.sort_by_key(|r| (r.0, r.1, r.2));
        let mut out = String::new();
        for (t, g, _, ev) in rows {
            out.push_str(&format!("{} g{} {}\n", t.as_nanos(), g, ev));
        }
        out
    }
}
