//! Failure recovery for the executor — the world-side interpreter of a
//! [`grouter_sim::fault::FaultPlan`].
//!
//! A fault plan says *what* breaks and *when*; this module says what the
//! platform does about it:
//!
//! * **Link degrade/restore** — rescale the FlowNet capacity (in-flight
//!   flows re-share automatically) and remember the healthy baseline.
//! * **NIC failure** — both directions of the NIC's links crawl at a
//!   residual trickle until repaired (cross-node traffic survives, slowly).
//! * **Route-GPU loss** — the GPU vanishes from the bandwidth matrix
//!   (Algorithm 1 replans around it); transfers routed through it are
//!   cancelled and retried with bounded exponential backoff over whatever
//!   paths survive — down to the single-path PCIe fallback, surfaced as a
//!   [`crate::dataplane::LegHealth::Degraded`] leg.
//! * **Whole-GPU failure** — compute, NVLink ports and stored intermediates
//!   all go at once: the pool is quarantined, resident objects are purged,
//!   stages placed there restart on a healthy GPU, and lost intermediates
//!   are re-produced by re-running their producer stages (lineage
//!   re-execution). When no healthy GPU remains, or the per-stage retry
//!   budget is exhausted, the instance terminates with a *typed* failure
//!   (`Metrics::failed`) — never a silent stall.
//!
//! Every action is recorded as a `Comp::Fault` instant in the observability
//! trace; `World::recovery_log()` decodes that stream back into typed events,
//! which chaos tests replay byte-for-byte: the whole module is deterministic
//! (BTree iteration, sorted id collection, no wall-clock).

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use grouter_sim::engine::Scheduler;
use grouter_sim::fault::{FaultEvent, FaultKind};
use grouter_sim::time::{SimDuration, SimTime};
use grouter_sim::LinkId;
use grouter_store::{AccessToken, DataId, FunctionId, Location};
use grouter_topology::GpuRef;

use crate::dataplane::Destination;
use crate::exec::{self, Event};
use crate::metrics::PassCategory;
use crate::spec::StageKind;
use crate::world::{Instance, OpKind, StageState, World};

/// Residual capacity factor of a failed NIC's links (keeping the FlowNet's
/// strictly-positive capacity invariant while modelling a dead device).
const NIC_RESIDUAL_FACTOR: f64 = 0.02;

/// Per-stage cap on data-operation retries before the instance fails typed.
const MAX_OP_RETRIES: u32 = 4;

/// Fault-injection bookkeeping carried by the [`World`].
#[derive(Debug, Default)]
pub struct FaultState {
    /// Flat indices of currently-failed GPUs.
    pub failed_gpus: BTreeSet<usize>,
    /// Healthy capacity of every link a fault has touched, for restores.
    pub link_baseline: BTreeMap<LinkId, f64>,
    /// Retry counters per `(instance, stage)` — bounded by
    /// [`MAX_OP_RETRIES`].
    pub retries: BTreeMap<(u64, usize), u32>,
}

/// One entry of `World::recovery_log`: a fault the world absorbed or a
/// recovery action it took. Typed so tests (and operators) observe degraded
/// service instead of inferring it from stalls.
#[derive(Clone, Debug, PartialEq)]
pub enum RecoveryEvent {
    LinkDegraded {
        link: LinkId,
    },
    LinkRestored {
        link: LinkId,
    },
    NicDegraded {
        node: usize,
        nic: usize,
    },
    NicRestored {
        node: usize,
        nic: usize,
    },
    /// A GPU's NVLink ports died; Algorithm 1 replans around it.
    RouteLost {
        gpu: usize,
    },
    RouteRestored {
        gpu: usize,
    },
    /// Whole-GPU failure with the intermediates it destroyed.
    GpuFailed {
        gpu: usize,
        lost_objects: usize,
        lost_bytes: f64,
    },
    GpuRestored {
        gpu: usize,
    },
    /// A data operation was cancelled and re-issued (attempt = retry count).
    OpRetried {
        inst: u64,
        stage: usize,
        attempt: u32,
    },
    /// A stage was reset to re-run (re-placement and/or lineage).
    StageRestarted {
        inst: u64,
        stage: usize,
    },
    /// The instance terminated with a typed failure.
    InstanceFailed {
        inst: u64,
    },
    /// A leg was planned on a degraded fallback path class.
    DegradedLeg {
        op: u64,
    },
    /// Service mode: this worker group died — heartbeat daemon silent,
    /// every local GPU failed (the host gateway survives).
    WorkerDied,
    /// Service mode: the worker came back — GPUs restored, daemon re-armed.
    WorkerRestarted,
    /// Service mode: a router-side drop budget was armed for `group`'s
    /// next `drops` heartbeats.
    HbLossArmed {
        group: usize,
        drops: u32,
    },
    /// Service mode: one heartbeat from `group` was lost to a drop budget
    /// before the router's agent saw it.
    HbDropped {
        group: usize,
    },
}

// ---------------------------------------------------------------------------
// Trace-stream codec
// ---------------------------------------------------------------------------
//
// `World::recovery_log` is a *view* over the observability trace: every
// recovery action is encoded as a `Comp::Fault` instant (always recorded,
// even with tracing off — see `MASK_FAULT_ONLY`), and decoded back on
// demand. Chaos tests keep comparing the decoded log byte-for-byte.

/// Encode one recovery action as a fault instant stamped at `now`.
pub(crate) fn record_recovery(rec: &grouter_obs::Recorder, now: SimTime, ev: &RecoveryEvent) {
    use grouter_obs::{Comp, Ids, Val};
    let mut ids = Ids::NONE;
    let (name, args): (&'static str, Vec<(&'static str, Val)>) = match *ev {
        RecoveryEvent::LinkDegraded { link } => {
            ("link_degraded", vec![("link", u64::from(link.0).into())])
        }
        RecoveryEvent::LinkRestored { link } => {
            ("link_restored", vec![("link", u64::from(link.0).into())])
        }
        RecoveryEvent::NicDegraded { node, nic } => (
            "nic_degraded",
            vec![("node", node.into()), ("nic", nic.into())],
        ),
        RecoveryEvent::NicRestored { node, nic } => (
            "nic_restored",
            vec![("node", node.into()), ("nic", nic.into())],
        ),
        RecoveryEvent::RouteLost { gpu } => ("route_lost", vec![("gpu", gpu.into())]),
        RecoveryEvent::RouteRestored { gpu } => ("route_restored", vec![("gpu", gpu.into())]),
        RecoveryEvent::GpuFailed {
            gpu,
            lost_objects,
            lost_bytes,
        } => (
            "gpu_failed",
            vec![
                ("gpu", gpu.into()),
                ("lost_objects", lost_objects.into()),
                ("lost_bytes", lost_bytes.into()),
            ],
        ),
        RecoveryEvent::GpuRestored { gpu } => ("gpu_restored", vec![("gpu", gpu.into())]),
        RecoveryEvent::OpRetried {
            inst,
            stage,
            attempt,
        } => {
            ids = Ids::inst(inst);
            (
                "op_retried",
                vec![("stage", stage.into()), ("attempt", attempt.into())],
            )
        }
        RecoveryEvent::StageRestarted { inst, stage } => {
            ids = Ids::inst(inst);
            ("stage_restarted", vec![("stage", stage.into())])
        }
        RecoveryEvent::InstanceFailed { inst } => {
            ids = Ids::inst(inst);
            ("instance_failed", vec![])
        }
        RecoveryEvent::DegradedLeg { op } => {
            ids = Ids::op(op);
            ("degraded_leg", vec![])
        }
        RecoveryEvent::WorkerDied => ("worker_died", vec![]),
        RecoveryEvent::WorkerRestarted => ("worker_restarted", vec![]),
        RecoveryEvent::HbLossArmed { group, drops } => (
            "hb_loss_armed",
            vec![("group", group.into()), ("drops", drops.into())],
        ),
        RecoveryEvent::HbDropped { group } => ("hb_dropped", vec![("group", group.into())]),
    };
    rec.instant_at(now.as_nanos(), Comp::Fault, name, ids, args);
}

/// Decode a fault instant back into its typed form. Non-fault events (and
/// fault events that are not recovery actions) decode to `None`.
pub(crate) fn decode_recovery(e: &grouter_obs::Event) -> Option<(SimTime, RecoveryEvent)> {
    use grouter_obs::{Comp, Val};
    if e.comp != Comp::Fault {
        return None;
    }
    let arg_u64 = |k: &str| -> Option<u64> {
        e.args
            .iter()
            .find(|(n, _)| *n == k)
            .and_then(|(_, v)| match *v {
                Val::U64(x) => Some(x),
                _ => None,
            })
    };
    let arg_f64 = |k: &str| -> Option<f64> {
        e.args
            .iter()
            .find(|(n, _)| *n == k)
            .and_then(|(_, v)| match *v {
                Val::F64(x) => Some(x),
                _ => None,
            })
    };
    let link = || -> Option<LinkId> { Some(LinkId(u32::try_from(arg_u64("link")?).ok()?)) };
    let ev = match e.name {
        "link_degraded" => RecoveryEvent::LinkDegraded { link: link()? },
        "link_restored" => RecoveryEvent::LinkRestored { link: link()? },
        "nic_degraded" => RecoveryEvent::NicDegraded {
            node: arg_u64("node")? as usize,
            nic: arg_u64("nic")? as usize,
        },
        "nic_restored" => RecoveryEvent::NicRestored {
            node: arg_u64("node")? as usize,
            nic: arg_u64("nic")? as usize,
        },
        "route_lost" => RecoveryEvent::RouteLost {
            gpu: arg_u64("gpu")? as usize,
        },
        "route_restored" => RecoveryEvent::RouteRestored {
            gpu: arg_u64("gpu")? as usize,
        },
        "gpu_failed" => RecoveryEvent::GpuFailed {
            gpu: arg_u64("gpu")? as usize,
            lost_objects: arg_u64("lost_objects")? as usize,
            lost_bytes: arg_f64("lost_bytes")?,
        },
        "gpu_restored" => RecoveryEvent::GpuRestored {
            gpu: arg_u64("gpu")? as usize,
        },
        "op_retried" => RecoveryEvent::OpRetried {
            inst: e.ids.inst?,
            stage: arg_u64("stage")? as usize,
            attempt: arg_u64("attempt")? as u32,
        },
        "stage_restarted" => RecoveryEvent::StageRestarted {
            inst: e.ids.inst?,
            stage: arg_u64("stage")? as usize,
        },
        "instance_failed" => RecoveryEvent::InstanceFailed { inst: e.ids.inst? },
        "degraded_leg" => RecoveryEvent::DegradedLeg { op: e.ids.op? },
        "worker_died" => RecoveryEvent::WorkerDied,
        "worker_restarted" => RecoveryEvent::WorkerRestarted,
        "hb_loss_armed" => RecoveryEvent::HbLossArmed {
            group: arg_u64("group")? as usize,
            drops: arg_u64("drops")? as u32,
        },
        "hb_dropped" => RecoveryEvent::HbDropped {
            group: arg_u64("group")? as usize,
        },
        _ => return None,
    };
    Some((SimTime(e.t_ns), ev))
}

/// The `(inst, stage, data)` of a request-owned op (`None` for background
/// migration traffic).
fn op_owner(kind: &OpKind) -> Option<(u64, usize, DataId)> {
    match *kind {
        OpKind::Get { inst, stage, data }
        | OpKind::Put { inst, stage, data }
        | OpKind::Egress { inst, stage, data } => Some((inst, stage, data)),
        OpKind::Background => None,
    }
}

// ---------------------------------------------------------------------------
// Fault dispatch
// ---------------------------------------------------------------------------

/// Interpret one fault event against the world. Dispatched for each
/// `Event::Fault` that [`crate::Runtime::install_fault_plan`] schedules.
pub(crate) fn apply_fault(w: &mut World, s: &mut Scheduler<World>, ev: &FaultEvent) {
    let now = s.now();
    match &ev.kind {
        FaultKind::LinkDegrade { link, factor } => {
            let cur = w.net.link_capacity(*link);
            let base = *w.fault.link_baseline.entry(*link).or_insert(cur);
            // FlowNet rejects non-positive capacities; plans guarantee
            // factor > 0, the clamp guards hand-written scripts.
            w.net
                .set_link_capacity(now, *link, (base * factor).max(base * 1e-6));
            w.log_recovery(now, RecoveryEvent::LinkDegraded { link: *link });
            exec::schedule_net_wake(w, s);
        }
        FaultKind::LinkRestore { link } => {
            if let Some(&base) = w.fault.link_baseline.get(link) {
                w.net.set_link_capacity(now, *link, base);
            }
            w.log_recovery(now, RecoveryEvent::LinkRestored { link: *link });
            exec::schedule_net_wake(w, s);
        }
        FaultKind::NicFail { node, nic } => {
            let (tx, rx) = w.topo.nic_links(*node, *nic);
            for link in [tx, rx] {
                let cur = w.net.link_capacity(link);
                let base = *w.fault.link_baseline.entry(link).or_insert(cur);
                w.net
                    .set_link_capacity(now, link, base * NIC_RESIDUAL_FACTOR);
            }
            w.log_recovery(
                now,
                RecoveryEvent::NicDegraded {
                    node: *node,
                    nic: *nic,
                },
            );
            exec::schedule_net_wake(w, s);
        }
        FaultKind::NicRestore { node, nic } => {
            let (tx, rx) = w.topo.nic_links(*node, *nic);
            for link in [tx, rx] {
                if let Some(&base) = w.fault.link_baseline.get(&link) {
                    w.net.set_link_capacity(now, link, base);
                }
            }
            w.log_recovery(
                now,
                RecoveryEvent::NicRestored {
                    node: *node,
                    nic: *nic,
                },
            );
            exec::schedule_net_wake(w, s);
        }
        FaultKind::RouteGpuLoss { gpu } => {
            let per = w.topo.gpus_per_node();
            let (node, local) = (*gpu / per, *gpu % per);
            w.ledgers[node].mask_node(local);
            w.log_recovery(now, RecoveryEvent::RouteLost { gpu: *gpu });
            recover_route_ops(w, s, node, local, None);
            exec::schedule_net_wake(w, s);
        }
        FaultKind::RouteGpuRestore { gpu } => {
            // A whole-GPU failure subsumes the route loss; GpuRestore
            // handles the unmask then.
            if !w.fault.failed_gpus.contains(gpu) {
                let per = w.topo.gpus_per_node();
                w.ledgers[*gpu / per].unmask_node(*gpu % per);
            }
            w.log_recovery(now, RecoveryEvent::RouteRestored { gpu: *gpu });
        }
        FaultKind::GpuFail { gpu } => {
            apply_gpu_fail(w, s, *gpu);
        }
        FaultKind::GpuRestore { gpu } => {
            apply_gpu_restore(w, now, *gpu);
        }
        FaultKind::WorkerDeath => {
            // The worker host dies mid-heartbeat-interval: the daemon goes
            // silent (the router only finds out via its failure detector)
            // and every local GPU fails at once. The gateway itself
            // survives, so forwarded invocations keep arriving and fail
            // typed instead of stalling.
            if let Some(port) = w.cluster.as_mut() {
                port.hb_muted = true;
            }
            w.log_recovery(now, RecoveryEvent::WorkerDied);
            for gpu in 0..w.topo.num_gpus() {
                apply_gpu_fail(w, s, gpu);
            }
        }
        FaultKind::WorkerRestart => {
            if let Some(port) = w.cluster.as_mut() {
                port.hb_muted = false;
            }
            w.log_recovery(now, RecoveryEvent::WorkerRestarted);
            // A host restart brings every local GPU back (including any
            // that failed independently before the death).
            let downed: Vec<usize> = w.fault.failed_gpus.iter().copied().collect();
            for gpu in downed {
                apply_gpu_restore(w, now, gpu);
            }
            // Live work resumes the daemon immediately; otherwise the next
            // admit re-arms it.
            if !w.instances.is_empty() {
                crate::cluster::arm_heartbeat(w, s);
            }
        }
        FaultKind::HeartbeatLoss { group, drops } => {
            // Router-side: arm a drop budget so the next `drops` beats
            // from `group` vanish before the agent's view sees them.
            if let Some(port) = w.cluster.as_mut() {
                if let Some(budget) = port.hb_drop.get_mut(*group) {
                    *budget += drops;
                }
            }
            w.log_recovery(
                now,
                RecoveryEvent::HbLossArmed {
                    group: *group,
                    drops: *drops,
                },
            );
        }
    }
    #[cfg(feature = "audit")]
    audit_recovery(w);
}

/// Bring a failed GPU back: clear device and placement flags, unmask its
/// routes, release the pool quarantine. Idempotent — a GPU that is not
/// down is left untouched.
fn apply_gpu_restore(w: &mut World, now: SimTime, gpu: usize) {
    if w.fault.failed_gpus.remove(&gpu) {
        let per = w.topo.gpus_per_node();
        w.gpus[gpu].failed = false;
        w.gpus[gpu].busy = false;
        w.gpus[gpu].queue.clear();
        w.placer.set_failed(gpu, false);
        w.ledgers[gpu / per].unmask_node(gpu % per);
        w.pools[gpu].release_quarantine();
        w.log_recovery(now, RecoveryEvent::GpuRestored { gpu });
    }
}

/// Whole-GPU failure: quarantine the device, purge its data, restart the
/// work it carried, re-produce what it destroyed.
fn apply_gpu_fail(w: &mut World, s: &mut Scheduler<World>, gpu: usize) {
    let now = s.now();
    if !w.fault.failed_gpus.insert(gpu) {
        return; // already down
    }
    let per = w.topo.gpus_per_node();
    let (node, local) = (gpu / per, gpu % per);
    let gref = GpuRef::new(node, local);
    w.gpus[gpu].failed = true;
    w.placer.set_failed(gpu, true);
    w.ledgers[node].mask_node(local);

    // Work that must restart elsewhere: stages queued on the device plus
    // every unfinished stage placed on it (the ops they own go with them).
    let mut affected: BTreeSet<(u64, usize)> = w.gpus[gpu].queue.iter().copied().collect();
    w.gpus[gpu].queue.clear();
    w.gpus[gpu].busy = false;
    for (&inst_id, inst) in w.instances.iter() {
        for (stage, run) in inst.stages.iter().enumerate() {
            if inst.placements[stage] == Destination::Gpu(gref)
                && !matches!(run.state, StageState::Done | StageState::Skipped)
            {
                affected.insert((inst_id, stage));
            }
        }
    }
    // Ops reading data stored on the dead GPU lose their source mid-flight.
    for (_, op) in w.ops.iter() {
        if let Some((inst_id, stage, data)) = op_owner(&op.kind) {
            let data_here = w
                .store
                .peek(data)
                .is_some_and(|e| e.location == Location::Gpu(gref));
            if data_here {
                affected.insert((inst_id, stage));
            }
        }
    }
    // Transfers merely *routed* through the GPU (both endpoints alive):
    // retry over surviving paths instead of restarting the whole stage.
    recover_route_ops(w, s, node, local, Some(&affected));

    // Data loss: purge everything resident on the device. Producers of
    // still-needed objects re-run (lineage recovery).
    let lost = w.store.purge_at(Location::Gpu(gref));
    let lost_bytes: f64 = lost.iter().map(|e| e.bytes).sum();
    let mut producers: Vec<(u64, usize)> = Vec::new();
    for e in &lost {
        if e.pending_consumers == 0 {
            continue;
        }
        if let Some(inst) = w.instances.get(&e.workflow.0) {
            if let Some(p) = inst.stages.iter().position(|run| run.output == Some(e.id)) {
                producers.push((e.workflow.0, p));
            }
        }
    }
    w.pools[gpu].quarantine();
    w.scalers[gpu].quarantine();
    w.log_recovery(
        now,
        RecoveryEvent::GpuFailed {
            gpu,
            lost_objects: lost.len(),
            lost_bytes,
        },
    );

    let mut visited: BTreeSet<(u64, usize)> = BTreeSet::new();
    for &(inst_id, stage) in &affected {
        reset_stage(w, s, inst_id, stage, &mut visited);
    }
    for &(inst_id, p) in &producers {
        restart_stage(w, s, inst_id, p, &mut visited);
    }
    // One reconciliation pass per touched instance: pending-consumer counts
    // must equal the number of future consumes after the reset wave.
    let touched: BTreeSet<u64> = visited.iter().map(|&(i, _)| i).collect();
    for inst_id in touched {
        fixup_claims(w, s, inst_id);
    }
    exec::schedule_net_wake(w, s);
}

// ---------------------------------------------------------------------------
// Op-level recovery (cancel + bounded retry)
// ---------------------------------------------------------------------------

/// Tear down an in-flight data operation: release its current-leg holds,
/// its queued legs' pre-attached reservations, and any transfers (flows,
/// NVLink path reservations) it was waiting on. Returns what it was doing.
pub(crate) fn cancel_op(w: &mut World, s: &mut Scheduler<World>, op_id: u64) -> Option<OpKind> {
    let now = s.now();
    let mut op = w.ops.remove(&op_id)?;
    w.rec.end(op.span, vec![("cancelled", true.into())]);
    if let Some((node, token)) = op.rate_token.take() {
        w.rates[node].finish(token);
    }
    if let Some((node, res)) = op.ledger_release.take() {
        w.ledgers[node].release(res);
    }
    if let Some((node, bytes)) = op.pinned_release.take() {
        w.pinned[node].release(bytes);
    }
    if let Some(leg) = op.staged.take() {
        // A BeginLeg event for this leg is still in flight; park the leg so
        // that event releases its reservations at the instant it fires.
        w.orphan_legs.insert(op_id, leg);
    }
    for leg in op.legs.drain(..) {
        exec::release_leg_resources(w, &leg);
    }
    let mut tids: Vec<grouter_transfer::exec::TransferId> = w
        .transfer_waiters
        .iter()
        .filter(|&(_, &waiter)| waiter == op_id)
        .map(|(&tid, _)| tid)
        .collect();
    tids.sort();
    for tid in tids {
        w.transfer_waiters.remove(&tid);
        if let Some((td, flows)) = w.engine.cancel(&mut w.net, now, tid) {
            for fid in &flows {
                w.nv_flow_index.remove(fid);
            }
            for (route, rate) in &td.nv_releases {
                w.ledgers[td.nv_node].bwm_mut().release_path(route, *rate);
            }
        }
    }
    exec::schedule_net_wake(w, s);
    Some(op.kind)
}

/// Cancel `op_id` and schedule a re-issue with exponential backoff; on
/// budget exhaustion the owning instance fails typed. Background traffic is
/// simply dropped (it is best-effort by definition).
fn recover_op(w: &mut World, s: &mut Scheduler<World>, op_id: u64) {
    let now = s.now();
    let Some(kind) = cancel_op(w, s, op_id) else {
        return;
    };
    let Some((inst_id, stage, _)) = op_owner(&kind) else {
        return; // background migration/restore traffic: dropped
    };
    let Some(inst) = w.instances.get(&inst_id) else {
        return;
    };
    let attempt = inst.stages[stage].attempt;
    let n = {
        let c = w.fault.retries.entry((inst_id, stage)).or_insert(0);
        *c += 1;
        *c
    };
    if n > MAX_OP_RETRIES {
        fail_instance(w, s, inst_id);
        return;
    }
    w.log_recovery(
        now,
        RecoveryEvent::OpRetried {
            inst: inst_id,
            stage,
            attempt: n,
        },
    );
    let delay = SimDuration::from_millis(1u64 << (n - 1).min(8));
    s.schedule_in(
        delay,
        Event::ReIssue {
            inst: inst_id,
            stage,
            kind,
            attempt,
        },
    );
}

/// Re-plan a cancelled operation through the data plane over the *current*
/// (degraded) topology. Runs after the backoff delay; a stage reset or
/// instance failure in the meantime makes it a no-op.
pub(crate) fn re_issue(
    w: &mut World,
    s: &mut Scheduler<World>,
    inst_id: u64,
    stage: usize,
    kind: OpKind,
    attempt: u32,
) {
    let now = s.now();
    let Some(inst) = w.instances.get(&inst_id) else {
        return;
    };
    if inst.stages[stage].attempt != attempt {
        return; // the stage was reset; its re-run re-drives the data flow
    }
    let Some((_, _, data)) = op_owner(&kind) else {
        return;
    };
    if w.store.peek(data).is_none() {
        // The object was destroyed by a later failure while this retry sat
        // in backoff: fall back to lineage re-execution.
        let producer = w
            .instances
            .get(&inst_id)
            .and_then(|i| i.stages.iter().position(|run| run.output == Some(data)));
        let mut visited = BTreeSet::new();
        match (&kind, producer) {
            (OpKind::Put { .. }, _) | (_, None) => {
                restart_stage(w, s, inst_id, stage, &mut visited)
            }
            (_, Some(p)) => restart_stage(w, s, inst_id, p, &mut visited),
        }
        fixup_claims(w, s, inst_id);
        return;
    }
    let inst = &w.instances[&inst_id];
    let token = AccessToken {
        function: FunctionId(inst.fn_ids[stage]),
        workflow: inst.workflow_id,
    };
    let slo = exec::instance_slo(inst);
    let dest = match kind {
        OpKind::Get { .. } => inst.placements[stage],
        OpKind::Put { .. } => {
            // The store committed the object's location when the put was
            // planned; re-issuing degenerates to completing from wherever
            // the bytes now live (zero-copy for the same GPU).
            // Peek succeeded above.
            match w.store.peek(data).map(|e| e.location) {
                Some(Location::Gpu(g)) => Destination::Gpu(g),
                Some(Location::Host(n)) => Destination::Host(n),
                None => return,
            }
        }
        OpKind::Egress { .. } => Destination::Host(inst.placements[stage].node_of()),
        OpKind::Background => return,
    };
    match exec::with_plane(w, now, slo, |p, ctx| p.get(ctx, token, data, dest)) {
        Ok(op) => exec::start_op(w, s, op, kind, PassCategory::Recovery),
        Err(_) => fail_instance(w, s, inst_id),
    }
}

/// Retry every op whose NVLink traffic runs through `(node, local)` —
/// in-flight transfers and not-yet-begun legs alike. Ops in `skip` are
/// owned by stages the caller is about to reset wholesale.
fn recover_route_ops(
    w: &mut World,
    s: &mut Scheduler<World>,
    node: usize,
    local: usize,
    skip: Option<&BTreeSet<(u64, usize)>>,
) {
    let mut op_ids: BTreeSet<u64> = BTreeSet::new();
    for tid in w.engine.transfers_using_route(node, local) {
        if let Some(&op_id) = w.transfer_waiters.get(&tid) {
            op_ids.insert(op_id);
        }
    }
    for (&op_id, op) in w.ops.iter() {
        let routed_through = op.legs.iter().any(|leg| {
            leg.nv_node == node
                && leg
                    .plan
                    .flows
                    .iter()
                    .any(|f| f.route.as_ref().is_some_and(|r| r.contains(&local)))
        });
        if routed_through {
            op_ids.insert(op_id);
        }
    }
    for op_id in op_ids {
        let Some(op) = w.ops.get(&op_id) else {
            continue;
        };
        if let Some((inst_id, stage, _)) = op_owner(&op.kind) {
            if skip.is_some_and(|set| set.contains(&(inst_id, stage))) {
                continue; // reset_stage will cancel it
            }
        }
        recover_op(w, s, op_id);
    }
}

// ---------------------------------------------------------------------------
// Stage-level recovery (reset / lineage restart)
// ---------------------------------------------------------------------------

/// Reset a stage to re-run from its inputs: cancel its ops, undo occupancy,
/// re-place off failed GPUs, recompute dependencies (restarting `Done`
/// upstream stages whose outputs no longer exist), and re-enter `Waiting`.
fn reset_stage(
    w: &mut World,
    s: &mut Scheduler<World>,
    inst_id: u64,
    stage: usize,
    visited: &mut BTreeSet<(u64, usize)>,
) {
    let now = s.now();
    if !visited.insert((inst_id, stage)) {
        return;
    }
    let Some(inst) = w.instances.get(&inst_id) else {
        return;
    };
    if matches!(inst.stages[stage].state, StageState::Skipped) {
        return;
    }
    let old_state = inst.stages[stage].state;
    let old_dest = inst.placements[stage];
    let mem = match inst.spec.stages[stage].kind {
        StageKind::Gpu { mem_bytes } => mem_bytes,
        StageKind::Cpu => 0.0,
    };

    // Cancel the stage's in-flight data operations. A cancelled Put's
    // half-stored output is garbage: drain its claims so the plane GCs it.
    let mut op_ids: Vec<u64> = w
        .ops
        .iter()
        .filter(|(_, op)| op_owner(&op.kind).is_some_and(|(i, j, _)| i == inst_id && j == stage))
        .map(|(&id, _)| id)
        .collect();
    // Slab iteration is slot-ordered; cancel in ascending id order (the
    // BTreeMap order the recovery goldens were captured under).
    op_ids.sort_unstable();
    for id in op_ids {
        if let Some(OpKind::Put { data, .. }) = cancel_op(w, s, id) {
            drain_object(w, s, data);
        }
    }

    // Out of every run queue (try_dispatch_gpu also validates lazily, but
    // eager scrubbing keeps queue lengths meaningful).
    for exec_gpu in w.gpus.iter_mut() {
        exec_gpu
            .queue
            .retain(|&(i, j)| !(i == inst_id && j == stage));
    }

    // Undo compute occupancy on a still-healthy GPU. `busy` is held from
    // dispatch (Fetching) through completion, but runtime memory is only
    // charged once the stage is Running. (On a failed GPU the quarantine
    // already zeroed the pool and apply_gpu_fail cleared `busy`.)
    if matches!(old_state, StageState::Running | StageState::Fetching { .. }) {
        if let Destination::Gpu(g) = old_dest {
            let idx = w.gpu_index(g.node, g.gpu);
            if !w.gpus[idx].failed {
                w.gpus[idx].busy = false;
                if matches!(old_state, StageState::Running) {
                    let used = (w.pools[idx].runtime_used() - mem).max(0.0);
                    w.pools[idx].set_runtime_used(used);
                    let background =
                        exec::with_plane(w, now, None, |p, ctx| p.on_memory_change(ctx, g));
                    exec::run_background(w, s, background);
                }
                // Deferred so the dispatch sees post-recovery state only.
                s.schedule_in(SimDuration::ZERO, Event::TryDispatchGpu { gpu: idx });
            }
        }
    }

    // Placement. Load-slot bookkeeping follows the executor's convention:
    // a slot is held from arrival until stage_done releases it.
    let was_done = matches!(old_state, StageState::Done);
    let on_failed =
        matches!(old_dest, Destination::Gpu(g) if w.gpus[w.gpu_index(g.node, g.gpu)].failed);
    let mut dest = old_dest;
    if on_failed {
        if !was_done {
            w.placer.release(&w.topo, old_dest);
        }
        match w.placer.pick_healthy(&w.topo, Some(old_dest.node_of())) {
            Some(healthy) => {
                dest = Destination::Gpu(healthy);
                w.placer.bump(&w.topo, dest);
            }
            None => {
                fail_instance(w, s, inst_id);
                return;
            }
        }
    } else if was_done {
        // stage_done released the slot when the stage completed; the re-run
        // holds it again.
        w.placer.bump(&w.topo, old_dest);
    }

    // Dependencies: a `Done` upstream whose output vanished must itself
    // re-run (lineage); everything else still counts as satisfied.
    let (deps_left, dead_deps) = {
        let inst = &w.instances[&inst_id];
        let mut left = 0u32;
        let mut dead = Vec::new();
        for &d in &inst.spec.stages[stage].deps {
            if matches!(inst.stages[d].state, StageState::Skipped) {
                continue;
            }
            let done_with_data = matches!(inst.stages[d].state, StageState::Done)
                && inst.stages[d]
                    .output
                    .is_some_and(|o| w.store.peek(o).is_some());
            if !done_with_data {
                left += 1;
                if matches!(inst.stages[d].state, StageState::Done) {
                    dead.push(d);
                }
            }
        }
        (left, dead)
    };

    let attempt_now = {
        // Still live: fail_instance above is the only removal and it returns.
        let Some(inst) = w.instances.get_mut(&inst_id) else {
            return;
        };
        inst.placements[stage] = dest;
        inst.stages[stage].attempt += 1;
        inst.stages[stage].output = None;
        inst.stages[stage].rank = None;
        inst.stages[stage].got.clear();
        inst.stages[stage].state = StageState::Waiting { deps_left };
        inst.stages[stage].attempt
    };
    w.log_recovery(
        now,
        RecoveryEvent::StageRestarted {
            inst: inst_id,
            stage,
        },
    );
    for d in dead_deps {
        restart_stage(w, s, inst_id, d, visited);
    }
    if deps_left == 0 {
        // Deferred past the current recovery wave (and its claims fixup) so
        // the fetch sees a consistent store; the dispatch-side guard drops
        // the event if a later reset in the same wave superseded this one.
        s.schedule_in(
            SimDuration::ZERO,
            Event::StageReadyIfWaiting {
                inst: inst_id,
                stage,
                attempt: attempt_now,
            },
        );
    }
}

/// Re-run producer stage `p` because its stored output was destroyed:
/// dependents that still needed that output re-enter `Waiting` too.
fn restart_stage(
    w: &mut World,
    s: &mut Scheduler<World>,
    inst_id: u64,
    p: usize,
    visited: &mut BTreeSet<(u64, usize)>,
) {
    let Some(inst) = w.instances.get(&inst_id) else {
        return;
    };
    // Computed before the reset clears `output`: a dependent that already
    // consumed its copy (`got`) keeps it and must not re-run.
    let old_output = inst.stages[p].output;
    let needy: Vec<usize> = inst
        .spec
        .stages
        .iter()
        .enumerate()
        .filter(|(j, st)| {
            st.deps.contains(&p)
                && match inst.stages[*j].state {
                    StageState::Waiting { .. } | StageState::Queued => true,
                    StageState::Fetching { .. } => old_output
                        .map(|o| !inst.stages[*j].got.contains(&o))
                        .unwrap_or(true),
                    _ => false,
                }
        })
        .map(|(j, _)| j)
        .collect();
    reset_stage(w, s, inst_id, p, visited);
    for j in needy {
        reset_stage(w, s, inst_id, j, visited);
    }
}

/// Consumer count of a *re-run* put. Unlike `Instance::consumers_of`, this
/// excludes dependents that already hold their copy from a previous attempt
/// (a `Fetching` dependent fixed its input set when it was invoked and will
/// never fetch the re-produced object).
pub(crate) fn rerun_consumers(inst: &Instance, stage: usize) -> u32 {
    let mut n = 0;
    for (j, st) in inst.spec.stages.iter().enumerate() {
        if st.deps.contains(&stage)
            && matches!(
                inst.stages[j].state,
                StageState::Waiting { .. } | StageState::Queued
            )
        {
            n += 1;
        }
    }
    if inst.spec.is_terminal(stage)
        && inst.stages[stage].state != StageState::Skipped
        && !inst.stages[stage].egressed
    {
        n += 1;
    }
    n
}

// ---------------------------------------------------------------------------
// Claims reconciliation & typed failure
// ---------------------------------------------------------------------------

/// Release every outstanding claim on `data` through the plane so its
/// storage accounting (pool bytes, scaler live-output counts, migration
/// homes) unwinds and the object is GC'd.
fn drain_object(w: &mut World, s: &mut Scheduler<World>, data: DataId) {
    let now = s.now();
    let Some(pending) = w.store.peek(data).map(|e| e.pending_consumers) else {
        return;
    };
    for _ in 0..pending.max(1) {
        let background = exec::with_plane(w, now, None, |p, ctx| p.on_consumed(ctx, data));
        exec::run_background(w, s, background);
        if w.store.peek(data).is_none() {
            break;
        }
    }
}

/// Restore the invariant that every live object's pending-consumer count
/// equals the number of consumes still ahead of it, after a reset wave
/// changed which stages will (re-)fetch what. Re-creates the workflow input
/// in host memory when roots must re-fetch a fully-consumed one.
fn fixup_claims(w: &mut World, s: &mut Scheduler<World>, inst_id: u64) {
    let now = s.now();
    let Some(inst) = w.instances.get(&inst_id) else {
        return;
    };

    // How many future fetches does `data` have from dependents in the given
    // states? Waiting/Queued stages will fetch on invocation; a Fetching
    // stage re-fetches only what it has not `got`.
    let future_fetches = |deps_on: Option<usize>, data: DataId, inst: &Instance| -> u32 {
        let mut n = 0;
        for (j, st) in inst.spec.stages.iter().enumerate() {
            let is_consumer = match deps_on {
                Some(p) => st.deps.contains(&p),
                None => st.deps.is_empty(),
            };
            if !is_consumer {
                continue;
            }
            match inst.stages[j].state {
                StageState::Waiting { .. } | StageState::Queued => n += 1,
                StageState::Fetching { .. } if !inst.stages[j].got.contains(&data) => n += 1,
                _ => {}
            }
        }
        n
    };

    let input_id = inst.input_data;
    let input_needed = future_fetches(None, input_id, inst);
    let input_bytes = inst.spec.input_bytes;
    let wf = inst.workflow_id;
    let input_node = inst
        .spec
        .stages
        .iter()
        .enumerate()
        .filter(|(j, st)| {
            st.deps.is_empty() && !matches!(inst.stages[*j].state, StageState::Skipped)
        })
        .map(|(j, _)| inst.placements[j].node_of())
        .next()
        .unwrap_or(0);

    let mut outs: Vec<(DataId, u32)> = Vec::new();
    for (p, run) in inst.stages.iter().enumerate() {
        if !matches!(run.state, StageState::Done) {
            continue;
        }
        let Some(o) = run.output else { continue };
        if w.store.peek(o).is_none() {
            continue;
        }
        let mut needed = future_fetches(Some(p), o, inst);
        if inst.spec.is_terminal(p) && !run.egressed {
            needed += 1; // the response egress still consumes one claim
        }
        outs.push((o, needed));
    }

    match w.store.peek(input_id).map(|e| e.pending_consumers) {
        Some(cur) => adjust_claims(w, s, input_id, cur, input_needed),
        None if input_needed > 0 => {
            // The input was fully consumed before a root was reset: the
            // request payload is durable in host memory, re-register it.
            let token = AccessToken {
                function: FunctionId(0),
                workflow: wf,
            };
            let (new_id, _) = w.store.put(
                now,
                token,
                Location::Host(input_node),
                input_bytes,
                input_needed,
            );
            if let Some(inst) = w.instances.get_mut(&inst_id) {
                inst.input_data = new_id;
            }
        }
        None => {}
    }
    for (o, needed) in outs {
        if let Some(cur) = w.store.peek(o).map(|e| e.pending_consumers) {
            adjust_claims(w, s, o, cur, needed);
        }
    }
}

/// Move `data`'s pending-consumer count from `cur` to `needed`: deficits
/// are re-registered, surpluses drained through the plane (its GC hook owns
/// the pool/scaler bookkeeping).
fn adjust_claims(w: &mut World, s: &mut Scheduler<World>, data: DataId, cur: u32, needed: u32) {
    let now = s.now();
    if needed > cur {
        w.store.add_pending(data, needed - cur);
    } else {
        for _ in 0..(cur - needed) {
            let background = exec::with_plane(w, now, None, |p, ctx| p.on_consumed(ctx, data));
            exec::run_background(w, s, background);
            if w.store.peek(data).is_none() {
                break;
            }
        }
    }
}

/// Terminate an instance with a typed failure: cancel its ops, release its
/// queue slots, occupancy, placement load and data claims, and count it in
/// `Metrics::failed`. The arrivals identity `completed + failed == arrivals`
/// is the chaos suite's termination check.
pub(crate) fn fail_instance(w: &mut World, s: &mut Scheduler<World>, inst_id: u64) {
    let now = s.now();
    if !w.instances.contains_key(&inst_id) {
        return;
    }
    let mut op_ids: Vec<u64> = w
        .ops
        .iter()
        .filter(|(_, op)| op_owner(&op.kind).is_some_and(|(i, _, _)| i == inst_id))
        .map(|(&id, _)| id)
        .collect();
    op_ids.sort_unstable();
    let mut orphan_puts: Vec<DataId> = Vec::new();
    for id in op_ids {
        if let Some(OpKind::Put { data, .. }) = cancel_op(w, s, id) {
            orphan_puts.push(data);
        }
    }
    for exec_gpu in w.gpus.iter_mut() {
        exec_gpu.queue.retain(|&(i, _)| i != inst_id);
    }
    let stage_info: Vec<(StageState, Destination, f64)> = {
        let inst = &w.instances[&inst_id];
        (0..inst.spec.stages.len())
            .map(|j| {
                let mem = match inst.spec.stages[j].kind {
                    StageKind::Gpu { mem_bytes } => mem_bytes,
                    StageKind::Cpu => 0.0,
                };
                (inst.stages[j].state, inst.placements[j], mem)
            })
            .collect()
    };
    for &(state, dest, mem) in &stage_info {
        if matches!(state, StageState::Running | StageState::Fetching { .. }) {
            if let Destination::Gpu(g) = dest {
                let idx = w.gpu_index(g.node, g.gpu);
                if !w.gpus[idx].failed {
                    w.gpus[idx].busy = false;
                    if matches!(state, StageState::Running) {
                        let used = (w.pools[idx].runtime_used() - mem).max(0.0);
                        w.pools[idx].set_runtime_used(used);
                        let background =
                            exec::with_plane(w, now, None, |p, ctx| p.on_memory_change(ctx, g));
                        exec::run_background(w, s, background);
                    }
                    s.schedule_in(SimDuration::ZERO, Event::TryDispatchGpu { gpu: idx });
                }
            }
        }
        // stage_done already released completed stages' slots.
        if !matches!(state, StageState::Done | StageState::Skipped) {
            w.placer.release(&w.topo, dest);
        }
    }
    let mut doomed: Vec<DataId> = vec![w.instances[&inst_id].input_data];
    doomed.extend(
        w.instances[&inst_id]
            .stages
            .iter()
            .filter_map(|run| run.output),
    );
    doomed.extend(orphan_puts);
    for data in doomed {
        drain_object(w, s, data);
    }
    w.instances.remove(&inst_id);
    crate::cluster::on_instance_failed(w, inst_id);
    w.fault.retries.retain(|&(i, _), _| i != inst_id);
    w.metrics.failed += 1;
    w.log_recovery(now, RecoveryEvent::InstanceFailed { inst: inst_id });
}

// ---------------------------------------------------------------------------
// Audit
// ---------------------------------------------------------------------------

/// "recovery.no_orphans": after a fault is absorbed, no waiter references a
/// cancelled transfer, no transfer waits for a dead op, and no request op
/// belongs to a dead instance. Aggregated so the checker fires on every
/// fault event, even when the world is idle.
#[cfg(feature = "audit")]
fn audit_recovery(w: &World) {
    let stale_waiters = w
        .transfer_waiters
        .keys()
        .filter(|tid| !w.engine.is_active(**tid))
        .count();
    let dead_waited_ops = w
        .transfer_waiters
        .values()
        .filter(|op_id| !w.ops.contains_key(op_id))
        .count();
    let orphan_ops = w
        .ops
        .values()
        .filter(|op| op_owner(&op.kind).is_some_and(|(i, _, _)| !w.instances.contains_key(&i)))
        .count();
    grouter_audit::check(
        "recovery.no_orphans",
        stale_waiters == 0 && dead_waited_ops == 0 && orphan_ops == 0,
        || {
            format!(
                "{stale_waiters} waiter(s) on cancelled transfers, \
                 {dead_waited_ops} transfer(s) waiting for dead ops, \
                 {orphan_ops} op(s) owned by dead instances"
            )
        },
    );
}
