//! Transfer execution over the flow network.
//!
//! [`TransferEngine`] turns a [`TransferPlan`] into live flows and tracks
//! them to completion. The surrounding event loop owns the
//! [`grouter_sim::FlowNet`] and calls [`TransferEngine::on_flows_complete`]
//! with whatever [`grouter_sim::FlowNet::advance_to`] harvested; the engine
//! reports which logical transfers finished so the runtime can resume the
//! waiting function and release NVLink reservations.
//!
//! Both calls write into buffers the caller keeps, and finished transfer
//! records go back to a free list with their flow and route lists'
//! capacity intact, so a warm engine starts and retires transfers without
//! touching the allocator.

use std::collections::BTreeMap;

use grouter_sim::time::SimTime;
use grouter_sim::{FlowId, FlowNet, FlowNetError, FxHashMap};

use crate::plan::TransferPlan;

/// Identifies one logical transfer.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TransferId(pub u64);

#[derive(Debug, Default)]
struct Active {
    /// Flows not yet complete. Plans are at most a handful of paths wide, so
    /// a flat vector with `swap_remove` beats a hash set on every metric.
    pending: Vec<FlowId>,
    started: SimTime,
    bytes: f64,
    nv_releases: Vec<(Vec<usize>, f64)>,
    /// Every GPU on the NVLink routes of this transfer's flows, routes
    /// concatenated: all [`TransferEngine::transfers_using_route`] asks is
    /// whether a GPU is on any of them.
    route_gpus: Vec<usize>,
    /// Node whose bandwidth matrix holds the reservations.
    nv_node: usize,
    /// Open `transfer.leg` span (0 when tracing was off at begin).
    span: u64,
}

/// A finished transfer.
#[derive(Clone, Debug)]
pub struct TransferDone {
    pub id: TransferId,
    /// When the flows started (after plan setup).
    pub started: SimTime,
    pub bytes: f64,
    /// NVLink reservations `(gpu route, rate)` to release on `nv_node`.
    pub nv_releases: Vec<(Vec<usize>, f64)>,
    pub nv_node: usize,
}

/// Tracks in-flight transfers.
#[derive(Debug, Default)]
pub struct TransferEngine {
    next_id: u64,
    active: BTreeMap<u64, Active>,
    /// Retired records, vectors emptied but not freed, for the next begin.
    spare: Vec<Active>,
    flow_owner: FxHashMap<FlowId, u64>,
    /// Observability handle ([`TransferEngine::set_recorder`]).
    rec: grouter_obs::Recorder,
}

/// A plan could not be started: one of its flows references links the flow
/// network does not know (a planner/topology mismatch). Flows started
/// before the failing one have been cancelled — the engine and the network
/// are left as if `begin` was never called.
#[derive(Clone, Debug, PartialEq)]
pub struct BeginError {
    /// Index of the failing flow within `plan.flows`.
    pub flow_index: usize,
    pub source: FlowNetError,
}

impl std::fmt::Display for BeginError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "planned flow #{} could not start: {}",
            self.flow_index, self.source
        )
    }
}

impl std::error::Error for BeginError {}

/// Result of starting a plan.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BeginOutcome {
    /// Flows are in flight; completion arrives via `on_flows_complete`.
    /// [`TransferEngine::begin`] wrote each started flow with its GPU route
    /// (if any) into the caller's buffer, so the caller can index flows for
    /// live rebalancing.
    InFlight(TransferId),
    /// The plan was zero-copy: it is already complete (after its setup
    /// latency, which the caller charges).
    Immediate,
}

impl TransferEngine {
    pub fn new() -> TransferEngine {
        Self::default()
    }

    /// Attach an observability recorder: each non-zero-copy transfer then
    /// runs inside a `transfer.leg` span and every started chunk flow emits
    /// a flow-correlated `chunk_flow` instant.
    pub fn set_recorder(&mut self, rec: grouter_obs::Recorder) {
        self.rec = rec;
    }

    /// `--features audit`: the two tracking maps must mirror each other —
    /// every owned flow is pending in its active transfer and every pending
    /// flow has exactly one ownership record.
    #[cfg(feature = "audit")]
    fn audit_pending(&self) {
        if !grouter_audit::every("transfer.pending", 8) {
            return;
        }
        grouter_audit::record_hit("transfer.pending");
        // Sorted so a corrupt ownership map aborts naming the same flow
        // each run (`check` panics on the first violation it sees).
        let mut owners: Vec<(FlowId, u64)> =
            self.flow_owner.iter().map(|(&f, &t)| (f, t)).collect();
        owners.sort_unstable();
        for (fid, tid) in owners.iter().map(|(f, t)| (f, t)) {
            grouter_audit::check(
                "transfer.pending",
                self.active
                    .get(tid)
                    .is_some_and(|a| a.pending.contains(fid)),
                || format!("flow {fid:?} owned by transfer {tid} but not pending there"),
            );
        }
        let pending_total: usize = self.active.values().map(|a| a.pending.len()).sum();
        grouter_audit::check(
            "transfer.pending",
            pending_total == self.flow_owner.len(),
            || {
                format!(
                    "{pending_total} pending flows vs {} ownership records",
                    self.flow_owner.len()
                )
            },
        );
    }

    /// Number of in-flight transfers.
    pub fn in_flight(&self) -> usize {
        self.active.len()
    }

    /// Whether `id` is still live (started and neither completed nor
    /// cancelled). Recovery audits use this to detect orphaned waiters.
    pub fn is_active(&self, id: TransferId) -> bool {
        self.active.contains_key(&id.0)
    }

    /// Start `plan`'s flows at `now`. `nv_node` names the node whose
    /// bandwidth matrix holds the plan's NVLink reservations (ignored when
    /// the plan has none).
    ///
    /// The plan is consumed: its link paths, reservations and routes move
    /// straight into the flow network, the active-transfer record and
    /// `started`, so a steady-state leg start performs no per-flow clones.
    /// `started` is cleared, then receives each started flow with its GPU
    /// route (if any); it is left empty on error and for zero-copy plans.
    ///
    /// The caller is responsible for charging `plan.setup` *before* `now`
    /// (schedule `begin` at `t + setup`).
    pub fn begin(
        &mut self,
        net: &mut FlowNet,
        now: SimTime,
        plan: TransferPlan,
        nv_node: usize,
        started: &mut Vec<(FlowId, Option<Vec<usize>>)>,
    ) -> Result<BeginOutcome, BeginError> {
        started.clear();
        if plan.is_zero_copy() {
            return Ok(BeginOutcome::Immediate);
        }
        let id = self.next_id;
        self.next_id += 1;
        let total_bytes = plan.total_bytes;
        let mut act = self.spare.pop().unwrap_or_default();
        // A multi-path plan starts all of its flows at the same instant;
        // batching collapses the per-flow rate recomputes into one pass
        // over the affected contention component.
        net.begin_batch();
        for (flow_index, flow) in plan.flows.into_iter().enumerate() {
            match net.start_flow(now, flow.links, flow.bytes, flow.opts) {
                Ok(fid) => {
                    act.pending.push(fid);
                    self.flow_owner.insert(fid, id);
                    if let Some(res) = flow.nv_reservation {
                        act.nv_releases.push(res);
                    }
                    if let Some(route) = &flow.route {
                        act.route_gpus.extend_from_slice(route);
                    }
                    started.push((fid, flow.route));
                }
                Err(source) => {
                    // Unwind the flows already started so the caller sees
                    // an all-or-nothing failure.
                    for (fid, _) in started.drain(..) {
                        self.flow_owner.remove(&fid);
                        let _ = net.cancel_flow(now, fid);
                    }
                    net.commit_batch();
                    self.retire(act);
                    return Err(BeginError { flow_index, source });
                }
            }
        }
        net.commit_batch();
        let mut span = 0;
        if self.rec.on(grouter_obs::Comp::Transfer) {
            span = self.rec.begin(
                grouter_obs::Comp::Transfer,
                "leg",
                grouter_obs::Ids::NONE,
                vec![
                    ("transfer", id.into()),
                    ("bytes", total_bytes.into()),
                    ("chunk_flows", started.len().into()),
                    ("nv_node", nv_node.into()),
                ],
            );
            for (fid, route) in started.iter() {
                let mut args: Vec<(&'static str, grouter_obs::Val)> = vec![("transfer", id.into())];
                if let Some(route) = route {
                    args.push(("route_gpus", format!("{route:?}").into()));
                }
                self.rec.instant(
                    grouter_obs::Comp::Transfer,
                    "chunk_flow",
                    grouter_obs::Ids::flow(fid.0),
                    args,
                );
            }
        }
        act.started = now;
        act.bytes = total_bytes;
        act.nv_node = nv_node;
        act.span = span;
        self.active.insert(id, act);
        #[cfg(feature = "audit")]
        self.audit_pending();
        Ok(BeginOutcome::InFlight(TransferId(id)))
    }

    /// Empty a finished or abandoned record's vectors, keeping their
    /// capacity, and park it for the next [`TransferEngine::begin`].
    fn retire(&mut self, mut act: Active) {
        act.pending.clear();
        act.nv_releases.clear();
        act.route_gpus.clear();
        self.spare.push(act);
    }

    /// Move a record's results out and retire it.
    fn finish(&mut self, id: u64, mut act: Active) -> TransferDone {
        let done = TransferDone {
            id: TransferId(id),
            started: act.started,
            bytes: act.bytes,
            nv_releases: std::mem::take(&mut act.nv_releases),
            nv_node: act.nv_node,
        };
        self.retire(act);
        done
    }

    /// Feed flow completions from `FlowNet::advance_to`; appends to
    /// `finished` the transfers whose last flow just finished, in ascending
    /// id order.
    pub fn on_flows_complete(&mut self, done: &[FlowId], finished: &mut Vec<TransferDone>) {
        let first = finished.len();
        for fid in done {
            let Some(tid) = self.flow_owner.remove(fid) else {
                continue; // flow owned by someone else (e.g. background noise)
            };
            // Ownership implies an active entry (the audit checker verifies
            // the two maps stay coherent); a miss would only drop the
            // completion, never crash the data plane.
            let Some(entry) = self.active.get_mut(&tid) else {
                debug_assert!(false, "flow owner {tid} has no active transfer");
                continue;
            };
            if let Some(pos) = entry.pending.iter().position(|f| f == fid) {
                entry.pending.swap_remove(pos);
            }
            if entry.pending.is_empty() {
                if let Some(act) = self.active.remove(&tid) {
                    if act.span != 0 {
                        self.rec.end(act.span, vec![("bytes", act.bytes.into())]);
                    }
                    let td = self.finish(tid, act);
                    finished.push(td);
                }
            }
        }
        if let Some(new) = finished.get_mut(first..) {
            new.sort_by_key(|t| t.id);
        }
        #[cfg(feature = "audit")]
        self.audit_pending();
    }

    /// Abort an in-flight transfer, cancelling its flows. Returns the
    /// reservations to release plus the flow ids that were torn down (so the
    /// caller can drop any per-flow indices), or `None` if the id is
    /// unknown/complete.
    pub fn cancel(
        &mut self,
        net: &mut FlowNet,
        now: SimTime,
        id: TransferId,
    ) -> Option<(TransferDone, Vec<FlowId>)> {
        let act = self.active.remove(&id.0)?;
        self.rec.end(act.span, vec![("cancelled", true.into())]);
        let mut cancelled: Vec<FlowId> = act.pending.to_vec();
        cancelled.sort();
        for fid in &cancelled {
            self.flow_owner.remove(fid);
            let _ = net.cancel_flow(now, *fid);
        }
        Some((self.finish(id.0, act), cancelled))
    }

    /// In-flight transfers on `nv_node` whose NVLink routes visit `gpu`
    /// (endpoint or relay) — the set a GPU failure strands mid-flight.
    /// Ascending id order.
    pub fn transfers_using_route(&self, nv_node: usize, gpu: usize) -> Vec<TransferId> {
        self.active
            .iter()
            .filter(|(_, a)| a.nv_node == nv_node && a.route_gpus.contains(&gpu))
            .map(|(&id, _)| TransferId(id))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{plan_d2h, plan_intra_node, PlanConfig, TransferPlan};
    use grouter_sim::time::SimDuration;
    use grouter_topology::{presets, PathSelector, Topology};

    const MB: f64 = 1e6;

    fn setup() -> (FlowNet, Topology) {
        let mut net = FlowNet::new();
        let topo = Topology::build(presets::dgx_v100(), 1, &mut net);
        (net, topo)
    }

    /// Drive the net until all of `eng`'s transfers finish; returns
    /// (finish time, completions).
    fn drain(net: &mut FlowNet, eng: &mut TransferEngine) -> (SimTime, Vec<TransferDone>) {
        let mut all = Vec::new();
        let mut t = SimTime::ZERO;
        while eng.in_flight() > 0 {
            let next = net.next_completion().expect("flows make progress");
            t = next;
            let done = net.advance_to(next);
            eng.on_flows_complete(&done, &mut all);
        }
        (t, all)
    }

    #[test]
    fn zero_copy_completes_immediately() {
        let (mut net, _) = setup();
        let mut eng = TransferEngine::new();
        let plan = TransferPlan::zero_copy(SimDuration::from_micros(5));
        assert_eq!(
            eng.begin(&mut net, SimTime::ZERO, plan, 0, &mut Vec::new())
                .unwrap(),
            BeginOutcome::Immediate
        );
        assert_eq!(eng.in_flight(), 0);
    }

    #[test]
    fn single_flow_transfer_completes_with_expected_latency() {
        let (mut net, topo) = setup();
        let mut eng = TransferEngine::new();
        let cfg = PlanConfig::single_path();
        // 120 MB over one 12 GB/s PCIe chain → 10 ms.
        let plan = plan_d2h(&topo, &net, 0, 0, 120.0 * MB, &cfg);
        let out = eng
            .begin(&mut net, SimTime::ZERO, plan, 0, &mut Vec::new())
            .unwrap();
        assert!(matches!(out, BeginOutcome::InFlight(..)));
        let (t, done) = drain(&mut net, &mut eng);
        assert_eq!(done.len(), 1);
        assert!((t.as_millis_f64() - 10.0).abs() < 0.05, "t = {t}");
    }

    #[test]
    fn parallel_transfer_is_faster_than_single() {
        let (mut net1, topo1) = setup();
        let mut eng = TransferEngine::new();
        let single = plan_d2h(&topo1, &net1, 0, 0, 480.0 * MB, &PlanConfig::single_path());
        eng.begin(&mut net1, SimTime::ZERO, single, 0, &mut Vec::new())
            .unwrap();
        let (t_single, _) = drain(&mut net1, &mut eng);

        let (mut net2, topo2) = setup();
        let mut eng2 = TransferEngine::new();
        let par = plan_d2h(&topo2, &net2, 0, 0, 480.0 * MB, &PlanConfig::grouter());
        eng2.begin(&mut net2, SimTime::ZERO, par, 0, &mut Vec::new())
            .unwrap();
        let (t_par, _) = drain(&mut net2, &mut eng2);

        // 4 disjoint PCIe chains → ~4× faster (paper: 2–4×).
        let speedup = t_single.as_secs_f64() / t_par.as_secs_f64();
        assert!(speedup > 3.5, "speedup {speedup}");
    }

    #[test]
    fn transfer_finishes_only_when_all_flows_do() {
        let (mut net, topo) = setup();
        let mut eng = TransferEngine::new();
        let mut sel = PathSelector::from_topology(&topo);
        let plan = plan_intra_node(
            &topo,
            &net,
            Some(&mut sel),
            0,
            0,
            1,
            100.0 * MB,
            &PlanConfig::grouter(),
        );
        assert!(plan.flows.len() >= 2);
        eng.begin(&mut net, SimTime::ZERO, plan.clone(), 0, &mut Vec::new())
            .unwrap();
        // First completion may not finish the transfer if flows end at
        // different instants; drain handles the general case.
        let (_, done) = drain(&mut net, &mut eng);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].nv_releases.len(), plan.flows.len());
    }

    #[test]
    fn reservations_surface_in_completion() {
        let (mut net, topo) = setup();
        let mut eng = TransferEngine::new();
        let mut sel = PathSelector::from_topology(&topo);
        let plan = plan_intra_node(
            &topo,
            &net,
            Some(&mut sel),
            0,
            0,
            3,
            10.0 * MB,
            &PlanConfig::grouter(),
        );
        eng.begin(&mut net, SimTime::ZERO, plan, 0, &mut Vec::new())
            .unwrap();
        let (_, done) = drain(&mut net, &mut eng);
        for (route, rate) in &done[0].nv_releases {
            assert!(route.len() >= 2);
            assert!(*rate > 0.0);
            sel.bwm_mut().release_path(route, *rate);
        }
        // Fully released → matrix idle again.
        assert!(sel.bwm().is_idle(0, 3));
    }

    #[test]
    fn cancel_removes_flows_and_returns_reservations() {
        let (mut net, topo) = setup();
        let mut eng = TransferEngine::new();
        let plan = plan_d2h(&topo, &net, 0, 0, 480.0 * MB, &PlanConfig::grouter());
        let BeginOutcome::InFlight(id) = eng
            .begin(&mut net, SimTime::ZERO, plan, 0, &mut Vec::new())
            .unwrap()
        else {
            panic!("expected in-flight");
        };
        assert!(net.num_flows() > 0);
        let flows_before = net.num_flows();
        let (done, cancelled) = eng
            .cancel(&mut net, SimTime::ZERO, id)
            .expect("cancellable");
        assert_eq!(done.id, id);
        assert_eq!(cancelled.len(), flows_before, "every pending flow reported");
        assert!(cancelled.windows(2).all(|w| w[0] < w[1]), "sorted flow ids");
        assert_eq!(net.num_flows(), 0);
        assert_eq!(eng.in_flight(), 0);
        // Double-cancel is a no-op.
        assert!(eng.cancel(&mut net, SimTime::ZERO, id).is_none());
    }

    #[test]
    fn route_query_finds_transfers_crossing_a_gpu() {
        let (mut net, topo) = setup();
        let mut eng = TransferEngine::new();
        let mut sel = PathSelector::from_topology(&topo);
        let plan = plan_intra_node(
            &topo,
            &net,
            Some(&mut sel),
            0,
            0,
            3,
            100.0 * MB,
            &PlanConfig::grouter(),
        );
        let BeginOutcome::InFlight(id) = eng
            .begin(&mut net, SimTime::ZERO, plan.clone(), 0, &mut Vec::new())
            .unwrap()
        else {
            panic!("expected in-flight");
        };
        // Endpoints are always on some route.
        assert_eq!(eng.transfers_using_route(0, 0), vec![id]);
        assert_eq!(eng.transfers_using_route(0, 3), vec![id]);
        // Wrong node → no hit even for the same GPU index.
        assert!(eng.transfers_using_route(1, 0).is_empty());
        // A GPU on no route of this transfer → no hit.
        let on_routes: std::collections::HashSet<usize> = plan
            .flows
            .iter()
            .filter_map(|f| f.route.as_ref())
            .flatten()
            .copied()
            .collect();
        if let Some(absent) = (0..8).find(|g| !on_routes.contains(g)) {
            assert!(eng.transfers_using_route(0, absent).is_empty());
        }
    }

    #[test]
    fn concurrent_transfers_complete_independently() {
        let (mut net, topo) = setup();
        let mut eng = TransferEngine::new();
        let small = plan_d2h(&topo, &net, 0, 2, 12.0 * MB, &PlanConfig::single_path());
        let large = plan_d2h(&topo, &net, 0, 4, 480.0 * MB, &PlanConfig::single_path());
        eng.begin(&mut net, SimTime::ZERO, small, 0, &mut Vec::new())
            .unwrap();
        eng.begin(&mut net, SimTime::ZERO, large, 0, &mut Vec::new())
            .unwrap();
        // Distinct switches → no contention; small finishes first.
        let next = net.next_completion().unwrap();
        let done = net.advance_to(next);
        let mut finished = Vec::new();
        eng.on_flows_complete(&done, &mut finished);
        assert_eq!(finished.len(), 1);
        assert!((finished[0].bytes - 12.0 * MB).abs() < 1.0);
        assert_eq!(eng.in_flight(), 1);
        let (_, rest) = drain(&mut net, &mut eng);
        assert_eq!(rest.len(), 1);
    }

    #[test]
    fn foreign_flows_are_ignored() {
        let (mut net, topo) = setup();
        let mut eng = TransferEngine::new();
        // A flow the engine does not own.
        let links = topo.d2h_path(0, 6);
        let fid = net
            .start_flow(SimTime::ZERO, links, 1.0 * MB, Default::default())
            .unwrap();
        let mut done = Vec::new();
        eng.on_flows_complete(&[fid], &mut done);
        assert!(done.is_empty());
    }
}
