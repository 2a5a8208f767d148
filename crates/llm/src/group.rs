//! One serving group: a node's prefill engines, decode engines, GPU store
//! and data plane.
//!
//! A group is a self-contained shard: it owns its topology, flow network,
//! store, pools and plane, and talks to the router only through typed
//! envelopes. Prefill runs as a serial per-GPU queue (earliest-free GPU
//! wins); decode runs as continuous batches, one per decode GPU, emitting
//! one token per batch step. KV lives in the GPU store as block objects
//! ([`crate::blocks`]); growth, pressure migration and host restores all
//! go through the plane under test, which is what the TTFT/TBT gates
//! measure.

use std::collections::BTreeMap;

use grouter::{GrouterConfig, GrouterPlane};
use grouter_baselines::mooncake_plane;
use grouter_ctl::DecodeView;
use grouter_runtime::dataplane::{DataPlane, Destination, PlaneEnv};
use grouter_runtime::pin_decode;
use grouter_sim::params;
use grouter_sim::table::RidTable;
use grouter_sim::time::{SimDuration, SimTime};
use grouter_store::{AccessToken, DataId, FunctionId, Location, WorkflowId};
use grouter_topology::{presets, GpuRef};
use grouter_workloads::llm::{LlmModel, LlmRequestSpec};

use crate::blocks::{KvBlock, KvBlockMap, RequestKv, KV_BLOCK_TOKENS};
use crate::exec::{run_op, run_ops};
use crate::metrics::LlmMetrics;
use crate::request::ActiveRequest;

/// Which data plane a group serves over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlaneKind {
    /// The full GROUTER plane: locality puts, elastic storage, proactive
    /// restoration.
    Grouter,
    /// The Mooncake+ baseline: every object staged through the node's
    /// fixed cache GPU, LRU eviction to host, no proactive restore.
    Mooncake,
}

// The reference deployment every serving group runs (DESIGN.md §5.10).

/// GPUs of one serving group: a single H800 node ([`presets::h800x8`]).
pub const NODE_GPUS: usize = 8;
/// Tensor-parallel degree of every model instance.
const TP: u32 = 1;
/// Model weights resident on every GPU (runtime footprint floor).
const WEIGHTS_BYTES: f64 = 26e9;
/// Decode activation/scratch bytes per active sequence — the pressure
/// knob: a growing batch shrinks the pool's storage cap and triggers the
/// plane's migration path.
const ACT_PER_SEQ: f64 = 3.0e9;
/// Every this-many tokens, decode re-touches its KV: blocks not resident
/// on the decode GPU are fetched through the plane (remote relay for
/// Mooncake+, h2d restore for migrated blocks).
const TOUCH_TOKENS: u32 = 64;

/// Group-level configuration (shared by every group of a run).
#[derive(Clone, Copy, Debug)]
pub struct GroupParams {
    pub plane: PlaneKind,
    /// GPUs `[0, prefill_gpus)` run prefill.
    pub prefill_gpus: usize,
    /// GPUs `[prefill_gpus, prefill_gpus + decode_gpus)` run decode.
    pub decode_gpus: usize,
}

/// Events a group schedules for itself.
#[derive(Clone, Copy, Debug)]
pub enum GroupEv {
    PrefillDone {
        rid: u64,
    },
    HandoffDone {
        rid: u64,
    },
    DecodeTick {
        gpu: usize,
    },
    Beat,
    /// Chaos script: the decode GPU at this flat index fails.
    Fail {
        gpu: usize,
    },
}

/// Messages a group emits toward the router.
#[derive(Clone, Copy, Debug)]
pub enum GroupOut {
    View(DecodeView),
    Done { rid: u64, ok: bool },
}

/// Scheduling/sending side effects of one group step, applied by the world.
#[derive(Debug, Default)]
pub struct Actions {
    pub schedule: Vec<(SimTime, GroupEv)>,
    pub send: Vec<GroupOut>,
}

impl Actions {
    fn at(&mut self, t: SimTime, ev: GroupEv) {
        self.schedule.push((t, ev));
    }
    fn send(&mut self, out: GroupOut) {
        self.send.push(out);
    }
}

pub struct GroupState {
    pub params: GroupParams,
    /// The node's topology, flow network, store, pools and ledgers.
    pub env: PlaneEnv,
    pub plane: Box<dyn DataPlane>,
    /// Earliest instant each prefill GPU is free (serial prefill queue).
    prefill_free_at: Vec<SimTime>,
    /// Continuous batch per decode GPU (flat index): sorted request ids.
    batches: BTreeMap<usize, Vec<u64>>,
    tick_scheduled: BTreeMap<usize, bool>,
    /// The batch a decode tick walks, copied out so the walk can mutate
    /// the group; kept between ticks to reuse its allocation.
    tick_rids: Vec<u64>,
    /// The requests a decode tick finished, completed after its walk.
    tick_finished: Vec<u64>,
    /// `prefill_done`'s staged blocks (id, tokens, bytes) and healthy
    /// decode GPUs, and `touch_kv`'s block ids: per-event lists kept
    /// between events to reuse their allocations.
    staged: Vec<(DataId, u32, f64)>,
    eligible: Vec<usize>,
    touch_ids: Vec<DataId>,
    requests: RidTable<ActiveRequest>,
    /// Requests pinned to a decode GPU (`decode_gpu` set): kept by
    /// [`GroupState::set_decode_pin`] and [`GroupState::retire`], the only
    /// writers of a pin, so [`GroupState::view`] need not count them.
    decoding: u32,
    kv: KvBlockMap,
    failed: Vec<bool>,
    beat_on: bool,
    pub metrics: LlmMetrics,
    /// Monotone ordinal for `next_use` eviction hints.
    next_use_clock: u64,
}

impl GroupState {
    pub fn new(p: GroupParams) -> GroupState {
        let mut env = PlaneEnv::new(presets::h800x8(), 1);
        for pool in &mut env.pools {
            // Model weights are resident everywhere from the start; the
            // storage cap is computed over what remains.
            let _ = pool.set_runtime_used(WEIGHTS_BYTES);
        }
        let n_gpus = env.topo.num_gpus();
        let plane: Box<dyn DataPlane> = match p.plane {
            PlaneKind::Grouter => Box::new(GrouterPlane::new(GrouterConfig::full())),
            PlaneKind::Mooncake => Box::new(mooncake_plane(TP)),
        };
        let mut batches = BTreeMap::new();
        let mut tick_scheduled = BTreeMap::new();
        for g in p.prefill_gpus..p.prefill_gpus + p.decode_gpus {
            batches.insert(g, Vec::new());
            tick_scheduled.insert(g, false);
        }
        GroupState {
            prefill_free_at: vec![SimTime::ZERO; p.prefill_gpus],
            kv: KvBlockMap::new(n_gpus),
            failed: vec![false; n_gpus],
            params: p,
            env,
            plane,
            batches,
            tick_scheduled,
            tick_rids: Vec::new(),
            tick_finished: Vec::new(),
            staged: Vec::new(),
            eligible: Vec::new(),
            touch_ids: Vec::new(),
            requests: RidTable::new(),
            decoding: 0,
            beat_on: false,
            metrics: LlmMetrics::default(),
            next_use_clock: 0,
        }
    }

    fn token(rid: u64) -> AccessToken {
        AccessToken {
            function: FunctionId(rid),
            workflow: WorkflowId(rid),
        }
    }

    /// The heartbeat view the router sees: O(1), from the kept count of
    /// decoding requests and the block map's kept KV total.
    pub fn view(&self) -> DecodeView {
        let view = DecodeView {
            active: self.decoding,
            kv_bytes: self.kv.total_bytes(),
            queued: self.requests.len() as u32 - self.decoding,
        };
        #[cfg(feature = "audit")]
        if grouter_audit::every("llm.view", 16) {
            self.audit_view(&view);
        }
        view
    }

    /// `--features audit`: the `llm.view` checker. Recounts the view the
    /// long way (decoding requests by filter, KV bytes summed over every
    /// block in request-id order) and requires the kept values to match
    /// exactly (`==`, under which the two float zeros agree).
    #[cfg(feature = "audit")]
    fn audit_view(&self, view: &DecodeView) {
        let decoding = self
            .requests
            .values()
            .filter(|r| r.decode_gpu.is_some())
            .count() as u32;
        let summed = self.kv.summed_bytes();
        grouter_audit::check(
            "llm.view",
            view.active == decoding && view.kv_bytes == summed,
            || {
                format!(
                    "view says {} decoding and {} KV bytes, the tables hold {decoding} and {summed}",
                    view.active, view.kv_bytes
                )
            },
        );
    }

    /// Pin `rid` to a decode GPU, or unpin it with `None`: the one writer
    /// of `decode_gpu`, keeping the decoding count [`GroupState::view`]
    /// reports.
    fn set_decode_pin(&mut self, rid: u64, pin: Option<GpuRef>) {
        let Some(r) = self.requests.get_mut(rid) else {
            return;
        };
        let was = std::mem::replace(&mut r.decode_gpu, pin).is_some();
        match (was, pin.is_some()) {
            (false, true) => self.decoding += 1,
            (true, false) => self.decoding -= 1,
            _ => {}
        }
    }

    /// Remove `rid` from the group's requests, unpinning it first, and drop
    /// its producer-only history from every scaler. Every caller has run
    /// [`GroupState::drop_kv`] first, and a retired rid never produces
    /// again (nor is it ever requested), so nothing reads that history.
    fn retire(&mut self, rid: u64) -> Option<ActiveRequest> {
        let req = self.requests.remove(rid)?;
        if req.decode_gpu.is_some() {
            self.decoding -= 1;
        }
        for sc in &mut self.env.scalers {
            sc.forget(rid);
        }
        Some(req)
    }

    pub fn quiescent(&self) -> bool {
        self.requests.is_empty() && self.kv.is_empty()
    }

    fn ensure_beat(&mut self, now: SimTime, out: &mut Actions) {
        if !self.beat_on {
            self.beat_on = true;
            out.at(now + params::HEARTBEAT_INTERVAL, GroupEv::Beat);
        }
    }

    pub fn beat(&mut self, now: SimTime, out: &mut Actions) {
        if self.requests.is_empty() {
            self.beat_on = false;
            return;
        }
        out.send(GroupOut::View(self.view()));
        out.at(now + params::HEARTBEAT_INTERVAL, GroupEv::Beat);
    }

    // ------------------------------------------------------------------
    // Prefill
    // ------------------------------------------------------------------

    /// Admit one request into the group (router `Admit` envelope).
    pub fn admit(
        &mut self,
        now: SimTime,
        rid: u64,
        spec: LlmRequestSpec,
        arrival: SimTime,
        out: &mut Actions,
    ) {
        self.metrics.admitted += 1;
        self.requests.insert(rid, ActiveRequest::new(spec, arrival));
        self.start_prefill(now, rid, out);
        self.ensure_beat(now, out);
    }

    /// Queue `rid` on the earliest-free healthy prefill GPU.
    fn start_prefill(&mut self, now: SimTime, rid: u64, out: &mut Actions) {
        let Some(req) = self.requests.get(rid) else {
            return;
        };
        let mut best: Option<usize> = None;
        for g in 0..self.params.prefill_gpus {
            if self.failed[g] {
                continue;
            }
            match best {
                Some(b) if self.prefill_free_at[g] >= self.prefill_free_at[b] => {}
                _ => best = Some(g),
            }
        }
        let Some(g) = best else {
            self.fail_request(now, rid, out);
            return;
        };
        let start = now.max(self.prefill_free_at[g]);
        let done = start + req.spec.model.prefill_latency(req.kv_tokens, TP);
        self.prefill_free_at[g] = done;
        self.set_decode_pin(rid, None);
        out.at(done, GroupEv::PrefillDone { rid });
    }

    /// Prefill finished: chunk the KV into block objects on the prefill
    /// GPU, pick the decode pin, and hand every block off through the
    /// plane (get to the decode GPU, consume the source, re-put at the
    /// decode pin — Mooncake+ stages both directions through its cache
    /// GPU; GROUTER's locality put lands directly on the pin).
    pub fn prefill_done(&mut self, now: SimTime, rid: u64, out: &mut Actions) {
        let Some(req) = self.requests.get(rid) else {
            return;
        };
        let spec = req.spec;
        let kv_tokens = req.kv_tokens;
        // KV was produced on the least-loaded prefill GPU; which one no
        // longer matters for the handoff (intra-node costs are uniform
        // across prefill GPUs), so block sources rotate for link balance.
        let pf = GpuRef::new(0, (rid as usize) % self.params.prefill_gpus.max(1));
        let per_token = spec.model.kv_bytes_per_token();

        // Chunked puts: one store object per KV block.
        let mut t = now;
        let mut staged = std::mem::take(&mut self.staged);
        staged.clear();
        let mut remaining = kv_tokens;
        while remaining > 0 {
            let tok = remaining.min(KV_BLOCK_TOKENS);
            let bytes = per_token * tok as f64;
            let put = self.plane.put(
                &mut self.env.ctx(t),
                Self::token(rid),
                Destination::Gpu(pf),
                bytes,
                1,
            );
            match put {
                Ok(po) => {
                    t += run_op(&po.op, &mut self.env);
                    staged.push((po.id, tok, bytes));
                }
                Err(_) => break,
            }
            remaining -= tok;
        }

        // Pinned-consumer placement over healthy decode GPUs.
        let mut eligible = std::mem::take(&mut self.eligible);
        eligible.clear();
        eligible.extend(
            (self.params.prefill_gpus..self.params.prefill_gpus + self.params.decode_gpus)
                .filter(|&g| !self.failed[g]),
        );
        if eligible.is_empty() {
            for (id, _, _) in &staged {
                let ops = self.plane.on_consumed(&mut self.env.ctx(t), *id);
                run_ops(&ops, &mut self.env);
            }
            self.staged = staged;
            self.eligible = eligible;
            self.fail_request(now, rid, out);
            return;
        }
        let dg_flat = pin_decode(self.kv.home_bytes(), &eligible);
        self.eligible = eligible;
        let dg = GpuRef::new(0, dg_flat);

        // Handoff: fetch every block to the decode GPU in parallel.
        let mut hand = SimDuration::ZERO;
        for (id, _, _) in &staged {
            let got = self.plane.get(
                &mut self.env.ctx(t),
                Self::token(rid),
                *id,
                Destination::Gpu(dg),
            );
            if let Ok(op) = got {
                hand = hand.max(run_op(&op, &mut self.env));
            }
        }
        t += hand;

        // Consume the staged source blocks and re-put each one at its
        // decode home.
        let mut blocks: Vec<KvBlock> = Vec::with_capacity(staged.len());
        for (id, tok, bytes) in &staged {
            let ops = self.plane.on_consumed(&mut self.env.ctx(t), *id);
            run_ops(&ops, &mut self.env);
            let put = self.plane.put(
                &mut self.env.ctx(t),
                Self::token(rid),
                Destination::Gpu(dg),
                *bytes,
                1,
            );
            if let Ok(po) = put {
                t += run_op(&po.op, &mut self.env);
                let home = self
                    .env
                    .store
                    .peek(po.id)
                    .map(|e| e.location)
                    .unwrap_or(Location::Gpu(dg));
                blocks.push(KvBlock {
                    id: po.id,
                    tokens: *tok,
                    bytes: *bytes,
                    home,
                    sealed: true,
                });
            }
        }
        self.staged = staged;
        if let Some(tail) = blocks.last_mut() {
            tail.sealed = tail.tokens >= KV_BLOCK_TOKENS;
        }
        self.kv.insert(
            rid,
            RequestKv {
                decode_gpu: dg,
                blocks,
            },
            self.env.topo.gpus_per_node(),
        );
        self.refresh_next_use(rid);
        self.set_decode_pin(rid, Some(dg));
        if let Some(r) = self.requests.get_mut(rid) {
            r.ready_at = t + spec.model.first_token_latency(TP);
        }
        out.at(t, GroupEv::HandoffDone { rid });
        self.kv.audit_blocks(&self.env.store);
    }

    // ------------------------------------------------------------------
    // Decode
    // ------------------------------------------------------------------

    /// Handoff complete: join the decode GPU's continuous batch.
    pub fn handoff_done(&mut self, now: SimTime, rid: u64, out: &mut Actions) {
        let Some(dg) = self.requests.get(rid).and_then(|r| r.decode_gpu) else {
            return;
        };
        let flat = dg.gpu;
        if let Some(batch) = self.batches.get_mut(&flat) {
            if let Err(pos) = batch.binary_search(&rid) {
                batch.insert(pos, rid);
            }
        }
        self.update_pressure(now, flat);
        let step = self.step_latency(flat);
        if let Some(flag) = self.tick_scheduled.get_mut(&flat) {
            if !*flag {
                *flag = true;
                out.at(now + step, GroupEv::DecodeTick { gpu: flat });
            }
        }
    }

    /// Decode batch footprint changed: republish the GPU's runtime memory
    /// (weights + per-sequence activations) and let the plane react —
    /// migrating KV overage out, or proactively restoring when pressure
    /// dropped.
    fn update_pressure(&mut self, now: SimTime, flat: usize) {
        let n = self.batches.get(&flat).map(|b| b.len()).unwrap_or(0) as f64;
        let used = WEIGHTS_BYTES + ACT_PER_SEQ * n;
        let _overflow = self.env.pools[flat].set_runtime_used(used);
        let gpu = GpuRef::new(0, flat);
        let ops = self.plane.on_memory_change(&mut self.env.ctx(now), gpu);
        run_ops(&ops, &mut self.env);
    }

    /// One decode step on `gpu`'s batch: the slowest model in the batch
    /// sets the pace. The step time depends only on the model and the
    /// batch size, so it is computed once per model present.
    fn step_latency(&self, gpu: usize) -> SimDuration {
        let floor = SimDuration::from_millis(1);
        let Some(batch) = self.batches.get(&gpu) else {
            return floor;
        };
        let mut present = [false; LlmModel::ALL.len()];
        for r in batch.iter().filter_map(|&rid| self.requests.get(rid)) {
            for (p, m) in present.iter_mut().zip(LlmModel::ALL) {
                *p |= m == r.spec.model;
            }
        }
        let n = batch.len() as u32;
        LlmModel::ALL
            .iter()
            .zip(present)
            .filter(|&(_, p)| p)
            .map(|(m, _)| m.decode_step_latency(n, TP))
            .fold(floor, SimDuration::max)
    }

    pub fn decode_tick(&mut self, now: SimTime, gpu: usize, out: &mut Actions) {
        if let Some(flag) = self.tick_scheduled.get_mut(&gpu) {
            *flag = false;
        }
        let mut rids = std::mem::take(&mut self.tick_rids);
        rids.clear();
        if let Some(batch) = self.batches.get(&gpu) {
            rids.extend_from_slice(batch);
        }
        if rids.is_empty() {
            self.tick_rids = rids;
            return;
        }
        let step = self.step_latency(gpu);
        let mut finished = std::mem::take(&mut self.tick_finished);
        finished.clear();
        for &rid in &rids {
            let ready = match self.requests.get(rid) {
                Some(r) => r.ready_at,
                None => continue,
            };
            if ready > now {
                continue;
            }
            self.emit_token(now, rid);
            let emitted = self
                .requests
                .get(rid)
                .map(|r| r.stream.emitted)
                .unwrap_or(0);
            if emitted > 0 && emitted.is_multiple_of(TOUCH_TOKENS) {
                let stall = self.touch_kv(now, rid);
                if stall > SimDuration::ZERO {
                    self.metrics.restore_stalls += 1;
                    if let Some(r) = self.requests.get_mut(rid) {
                        r.ready_at = now + stall;
                    }
                }
            }
            if self
                .requests
                .get(rid)
                .map(|r| r.stream.complete())
                .unwrap_or(false)
            {
                finished.push(rid);
            }
        }
        self.tick_rids = rids;
        for &rid in &finished {
            self.complete_request(now, rid, out);
        }
        self.tick_finished = finished;
        let live = self
            .batches
            .get(&gpu)
            .map(|b| !b.is_empty())
            .unwrap_or(false);
        if live {
            if let Some(flag) = self.tick_scheduled.get_mut(&gpu) {
                *flag = true;
            }
            out.at(now + step, GroupEv::DecodeTick { gpu });
        }
        self.kv.audit_blocks(&self.env.store);
    }

    /// Emit one token: record stream progress and append its KV.
    fn emit_token(&mut self, now: SimTime, rid: u64) {
        #[cfg(feature = "audit")]
        if let Some(r) = self.requests.get(rid) {
            grouter_audit::check(
                "llm.stream_order",
                r.stream.last_emit.map(|t| now >= t).unwrap_or(true),
                || format!("request {rid}: token completion before its predecessor"),
            );
        }
        if let Some(r) = self.requests.get_mut(rid) {
            r.stream.emit(now);
        }
        self.metrics.tokens += 1;
        self.append_kv(now, rid);
    }

    /// Append one token's KV: grow the tail block in place when its pool
    /// has headroom, otherwise seal it and open a fresh block through the
    /// plane (whose put path owns eviction/migration under pressure).
    fn append_kv(&mut self, now: SimTime, rid: u64) {
        let Some((model, dg)) = self
            .requests
            .get(rid)
            .and_then(|r| r.decode_gpu.map(|d| (r.spec.model, d)))
        else {
            return;
        };
        let delta = model.kv_bytes_per_token();
        let tail = self
            .kv
            .get(rid)
            .and_then(|kv| kv.blocks.last())
            .map(|b| (b.id, b.tokens, b.sealed));
        let mut grown = false;
        if let Some((tid, tokens, sealed)) = tail {
            if !sealed && tokens < KV_BLOCK_TOKENS {
                let loc = self.env.store.peek(tid).map(|e| e.location);
                let reserve = match loc {
                    Some(Location::Gpu(g)) => {
                        let flat = g.node * self.env.topo.gpus_per_node() + g.gpu;
                        self.env.pools[flat].try_alloc(delta).is_ok()
                    }
                    // Migrated tails grow host-side; host memory is not
                    // pool-tracked.
                    Some(Location::Host(_)) => true,
                    None => false,
                };
                if reserve && self.env.store.grow(now, tid, delta).is_ok() {
                    self.kv
                        .extend_tail(rid, delta, self.env.topo.gpus_per_node());
                    grown = true;
                }
            }
        }
        if !grown {
            // Seal the tail (it is full, or its pool is out of headroom)
            // and open a new block through the plane.
            self.kv.seal_tail(rid);
            let put = self.plane.put(
                &mut self.env.ctx(now),
                Self::token(rid),
                Destination::Gpu(dg),
                delta,
                1,
            );
            if let Ok(po) = put {
                run_op(&po.op, &mut self.env);
                let home = self
                    .env
                    .store
                    .peek(po.id)
                    .map(|e| e.location)
                    .unwrap_or(Location::Gpu(dg));
                let block = KvBlock {
                    id: po.id,
                    tokens: 1,
                    bytes: delta,
                    home,
                    sealed: false,
                };
                self.kv
                    .push_block(rid, block, self.env.topo.gpus_per_node());
            }
            self.refresh_next_use(rid);
        }
    }

    /// The periodic KV touch: fetch every block not resident on the decode
    /// GPU (Mooncake+ relays from its cache GPU; migrated blocks restore
    /// from host). Returns the stall the stream absorbs.
    fn touch_kv(&mut self, now: SimTime, rid: u64) -> SimDuration {
        let Some(kvreq) = self.kv.get(rid) else {
            return SimDuration::ZERO;
        };
        let dg = kvreq.decode_gpu;
        let mut ids = std::mem::take(&mut self.touch_ids);
        ids.clear();
        ids.extend(kvreq.blocks.iter().map(|b| b.id));
        let mut stall = SimDuration::ZERO;
        for &id in &ids {
            let resident = self
                .env
                .store
                .peek(id)
                .map(|e| e.location == Location::Gpu(dg))
                .unwrap_or(true);
            if resident {
                continue;
            }
            let got = self.plane.get(
                &mut self.env.ctx(now),
                Self::token(rid),
                id,
                Destination::Gpu(dg),
            );
            if let Ok(op) = got {
                stall = stall + run_op(&op, &mut self.env);
            }
        }
        self.touch_ids = ids;
        stall
    }

    /// Refresh eviction hints: the tail block is about to be appended
    /// (near use), older blocks are only re-read at touch points (far), so
    /// the plane's queue-aware victim selection migrates cold blocks first.
    fn refresh_next_use(&mut self, rid: u64) {
        self.next_use_clock += 1;
        let clock = self.next_use_clock;
        let Some(kvreq) = self.kv.get(rid) else {
            return;
        };
        let n = kvreq.blocks.len();
        for (i, b) in kvreq.blocks.iter().enumerate() {
            let rank = if i + 1 == n {
                clock
            } else {
                clock + 1_000 + (n - i) as u64
            };
            self.env.store.set_next_use(b.id, Some(rank));
        }
    }

    // ------------------------------------------------------------------
    // Completion, failure, chaos
    // ------------------------------------------------------------------

    /// Drop a request's KV through the consumed path (pool bytes freed,
    /// scaler live-output released — identical accounting whether the
    /// bytes were read or lost).
    fn drop_kv(&mut self, now: SimTime, rid: u64) {
        let Some(kvreq) = self.kv.remove(rid, self.env.topo.gpus_per_node()) else {
            return;
        };
        for b in kvreq.blocks {
            let ops = self.plane.on_consumed(&mut self.env.ctx(now), b.id);
            run_ops(&ops, &mut self.env);
        }
    }

    fn complete_request(&mut self, now: SimTime, rid: u64, out: &mut Actions) {
        self.drop_kv(now, rid);
        let Some(req) = self.retire(rid) else {
            return;
        };
        self.metrics.completed += 1;
        if let Some(t) = req.stream.ttft() {
            self.metrics.ttft.record(t.as_secs_f64());
        }
        if let Some(t) = req.stream.mean_tbt() {
            self.metrics.tbt.record(t.as_secs_f64());
        }
        self.leave_batch(now, rid, req.decode_gpu);
        out.send(GroupOut::Done { rid, ok: true });
        out.send(GroupOut::View(self.view()));
    }

    /// Typed failure: the request leaves the system with its KV dropped
    /// and the router told.
    fn fail_request(&mut self, now: SimTime, rid: u64, out: &mut Actions) {
        self.drop_kv(now, rid);
        let Some(req) = self.retire(rid) else {
            return;
        };
        self.metrics.failed += 1;
        self.leave_batch(now, rid, req.decode_gpu);
        out.send(GroupOut::Done { rid, ok: false });
        out.send(GroupOut::View(self.view()));
    }

    fn leave_batch(&mut self, now: SimTime, rid: u64, dg: Option<GpuRef>) {
        let Some(dg) = dg else {
            return;
        };
        let flat = dg.gpu;
        if let Some(batch) = self.batches.get_mut(&flat) {
            if let Ok(pos) = batch.binary_search(&rid) {
                batch.remove(pos);
            }
        }
        self.update_pressure(now, flat);
    }

    /// Chaos: a decode GPU fails mid-stream. Requests pinned there lose
    /// their KV; each gets one lineage re-materialization (a fresh prefill
    /// over prompt + generated-so-far), a second loss is a typed failure.
    pub fn fail_gpu(&mut self, now: SimTime, gpu: usize, out: &mut Actions) {
        if gpu >= self.failed.len() || self.failed[gpu] {
            return;
        }
        self.failed[gpu] = true;
        let rids: Vec<u64> = self
            .batches
            .get_mut(&gpu)
            .map(std::mem::take)
            .unwrap_or_default();
        // Also catch requests pinned to the GPU but still in handoff.
        let pinned_inflight: Vec<u64> = self
            .requests
            .iter()
            .filter(|(rid, r)| {
                !rids.contains(rid) && r.decode_gpu.map(|d| d.gpu == gpu).unwrap_or(false)
            })
            .map(|(rid, _)| rid)
            .collect();
        for rid in rids.into_iter().chain(pinned_inflight) {
            self.drop_kv(now, rid);
            let retried = self.requests.get(rid).map(|r| r.retried).unwrap_or(true);
            if retried {
                if self.retire(rid).is_none() {
                    continue;
                }
                self.metrics.failed += 1;
                out.send(GroupOut::Done { rid, ok: false });
            } else if let Some(r) = self.requests.get_mut(rid) {
                r.retried = true;
                r.kv_tokens = r.spec.prompt_tokens + r.stream.emitted;
                self.set_decode_pin(rid, None);
                self.metrics.rematerialized += 1;
                self.start_prefill(now, rid, out);
            }
        }
        // The dead GPU's batch is gone: republish its runtime footprint.
        let _ = self.env.pools[gpu].set_runtime_used(WEIGHTS_BYTES);
        let view = self.view();
        // Rematerialized requests went back to prefill: check the kept
        // count on this rare path every time, not only when sampled.
        #[cfg(feature = "audit")]
        self.audit_view(&view);
        out.send(GroupOut::View(view));
    }

    /// Leak check for chaos/golden tests: after a drained run nothing may
    /// linger in the store, the pools, or the prewarm scalers.
    pub fn assert_drained(&self) {
        assert!(self.requests.is_empty(), "requests linger");
        assert!(self.kv.is_empty(), "KV blocks linger");
        assert_eq!(self.env.store.len(), 0, "store not empty");
        for (i, pool) in self.env.pools.iter().enumerate() {
            assert_eq!(pool.used(), 0.0, "pool {i} leaks stored bytes");
        }
        for (i, sc) in self.env.scalers.iter().enumerate() {
            assert_eq!(sc.total_live_outputs(), 0, "scaler {i} leaks live outputs");
            assert!(sc.is_empty(), "scaler {i} keeps {} functions", sc.len());
        }
    }
}
