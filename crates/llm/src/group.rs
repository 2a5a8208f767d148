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
use grouter_baselines::MooncakePlane;
use grouter_ctl::DecodeView;
use grouter_mem::{ElasticPool, PinnedRing, PoolDiscipline, PrewarmScaler};
use grouter_runtime::dataplane::{DataPlane, Destination, PlaneCtx};
use grouter_runtime::pin_decode;
use grouter_sim::table::RidTable;
use grouter_sim::time::{SimDuration, SimTime};
use grouter_sim::{params, FlowNet};
use grouter_store::{AccessToken, DataStore, FunctionId, Location, WorkflowId};
use grouter_topology::{presets, GpuRef, PathLedger, Topology};
use grouter_transfer::rate::RateController;
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

/// Group-level configuration (shared by every group of a run).
#[derive(Clone, Copy, Debug)]
pub struct GroupParams {
    pub plane: PlaneKind,
    /// GPUs `[0, prefill_gpus)` run prefill.
    pub prefill_gpus: usize,
    /// GPUs `[prefill_gpus, prefill_gpus + decode_gpus)` run decode.
    pub decode_gpus: usize,
    pub tp: u32,
    /// Continuous-batch slots per decode GPU.
    pub max_batch: u32,
    /// Model weights resident on every GPU (runtime footprint floor).
    pub weights_bytes: f64,
    /// Decode activation/scratch bytes per active sequence — the pressure
    /// knob: a growing batch shrinks the pool's storage cap and triggers
    /// the plane's migration path.
    pub act_per_seq: f64,
    /// Every this-many tokens, decode re-touches its KV: blocks not
    /// resident on the decode GPU are fetched through the plane (remote
    /// relay for Mooncake+, h2d restore for migrated blocks).
    pub touch_tokens: u32,
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
    pub topo: Topology,
    pub net: FlowNet,
    pub store: DataStore,
    pub pools: Vec<ElasticPool>,
    pub scalers: Vec<PrewarmScaler>,
    pub ledgers: Vec<PathLedger>,
    pub pinned: Vec<PinnedRing>,
    pub rates: Vec<RateController>,
    pub plane: Box<dyn DataPlane>,
    /// Earliest instant each prefill GPU is free (serial prefill queue).
    prefill_free_at: Vec<SimTime>,
    /// Continuous batch per decode GPU (flat index): sorted request ids.
    batches: BTreeMap<usize, Vec<u64>>,
    tick_scheduled: BTreeMap<usize, bool>,
    /// The batch a decode tick walks, copied out so the walk can mutate
    /// the group; kept between ticks to reuse its allocation.
    tick_rids: Vec<u64>,
    requests: RidTable<ActiveRequest>,
    kv: KvBlockMap,
    failed: Vec<bool>,
    beat_on: bool,
    pub metrics: LlmMetrics,
    /// Monotone ordinal for `next_use` eviction hints.
    next_use_clock: u64,
}

impl GroupState {
    pub fn new(p: GroupParams) -> GroupState {
        let mut net = FlowNet::new();
        let topo = Topology::build(presets::h800x8(), 1, &mut net);
        let n_gpus = topo.num_gpus();
        let mut pools: Vec<ElasticPool> = (0..n_gpus)
            .map(|_| ElasticPool::new(PoolDiscipline::Elastic, topo.gpu_mem_bytes()))
            .collect();
        for pool in &mut pools {
            // Model weights are resident everywhere from the start; the
            // storage cap is computed over what remains.
            let _ = pool.set_runtime_used(p.weights_bytes);
        }
        let scalers = (0..n_gpus).map(|_| PrewarmScaler::new()).collect();
        let ledgers = vec![PathLedger::from_topology(&topo)];
        let pinned = vec![PinnedRing::new(params::PINNED_RING_BYTES)];
        let rates = vec![RateController::new()];
        let plane: Box<dyn DataPlane> = match p.plane {
            PlaneKind::Grouter => Box::new(GrouterPlane::new(GrouterConfig::full())),
            PlaneKind::Mooncake => Box::new(MooncakePlane::new(p.tp)),
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
            topo,
            net,
            store: DataStore::new(1),
            pools,
            scalers,
            ledgers,
            pinned,
            rates,
            plane,
            batches,
            tick_scheduled,
            tick_rids: Vec::new(),
            requests: RidTable::new(),
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

    /// Run a closure against the plane with a freshly assembled context.
    fn with_plane<R>(
        &mut self,
        now: SimTime,
        f: impl FnOnce(&mut dyn DataPlane, &mut PlaneCtx<'_>) -> R,
    ) -> R {
        let GroupState {
            topo,
            net,
            store,
            pools,
            scalers,
            ledgers,
            pinned,
            rates,
            plane,
            ..
        } = self;
        let mut ctx = PlaneCtx {
            topo,
            net,
            store,
            pools,
            scalers,
            ledgers,
            pinned,
            rates,
            now,
            slo: None,
            trace: &grouter_obs::DISABLED,
        };
        f(plane.as_mut(), &mut ctx)
    }

    fn run(&mut self, op: &grouter_runtime::DataOp) -> SimDuration {
        run_op(
            op,
            &self.net,
            &mut self.ledgers,
            &mut self.pinned,
            &mut self.rates,
        )
    }

    fn run_background(&mut self, ops: &[grouter_runtime::DataOp]) -> SimDuration {
        run_ops(
            ops,
            &self.net,
            &mut self.ledgers,
            &mut self.pinned,
            &mut self.rates,
        )
    }

    /// The heartbeat view the router sees.
    pub fn view(&self) -> DecodeView {
        let active = self
            .requests
            .values()
            .filter(|r| r.decode_gpu.is_some())
            .count() as u32;
        DecodeView {
            active,
            kv_bytes: self.kv.total_bytes(),
            queued: self.requests.len() as u32 - active,
        }
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
        let done = start
            + req
                .spec
                .model
                .prefill_latency(req.kv_tokens, self.params.tp);
        self.prefill_free_at[g] = done;
        if let Some(r) = self.requests.get_mut(rid) {
            r.decode_gpu = None;
        }
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
        let mut staged: Vec<(grouter_store::DataId, u32, f64)> = Vec::new();
        let mut remaining = kv_tokens;
        while remaining > 0 {
            let tok = remaining.min(KV_BLOCK_TOKENS);
            let bytes = per_token * tok as f64;
            let put = self.with_plane(t, |p, ctx| {
                p.put(ctx, Self::token(rid), Destination::Gpu(pf), bytes, 1)
            });
            match put {
                Ok(po) => {
                    t += self.run(&po.op);
                    staged.push((po.id, tok, bytes));
                }
                Err(_) => break,
            }
            remaining -= tok;
        }

        // Pinned-consumer placement over healthy decode GPUs.
        let eligible: Vec<usize> = (self.params.prefill_gpus
            ..self.params.prefill_gpus + self.params.decode_gpus)
            .filter(|&g| !self.failed[g])
            .collect();
        if eligible.is_empty() {
            for (id, _, _) in &staged {
                let ops = self.with_plane(t, |p, ctx| p.on_consumed(ctx, *id));
                self.run_background(&ops);
            }
            self.fail_request(now, rid, out);
            return;
        }
        let dg_flat = pin_decode(self.kv.home_bytes(), &eligible);
        let dg = GpuRef::new(0, dg_flat);

        // Handoff: fetch every block to the decode GPU in parallel.
        let mut hand = SimDuration::ZERO;
        for (id, _, _) in &staged {
            let got = self.with_plane(t, |p, ctx| {
                p.get(ctx, Self::token(rid), *id, Destination::Gpu(dg))
            });
            if let Ok(op) = got {
                hand = hand.max(self.run(&op));
            }
        }
        t += hand;

        // Consume the staged source blocks and re-put each one at its
        // decode home.
        let mut blocks: Vec<KvBlock> = Vec::with_capacity(staged.len());
        for (id, tok, bytes) in &staged {
            let ops = self.with_plane(t, |p, ctx| p.on_consumed(ctx, *id));
            self.run_background(&ops);
            let put = self.with_plane(t, |p, ctx| {
                p.put(ctx, Self::token(rid), Destination::Gpu(dg), *bytes, 1)
            });
            if let Ok(po) = put {
                t += self.run(&po.op);
                let home = self
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
        if let Some(tail) = blocks.last_mut() {
            tail.sealed = tail.tokens >= KV_BLOCK_TOKENS;
        }
        self.kv.insert(
            rid,
            RequestKv {
                decode_gpu: dg,
                blocks,
            },
            self.topo.gpus_per_node(),
        );
        self.refresh_next_use(rid);
        if let Some(r) = self.requests.get_mut(rid) {
            r.decode_gpu = Some(dg);
            r.ready_at = t + spec.model.first_token_latency(self.params.tp);
        }
        out.at(t, GroupEv::HandoffDone { rid });
        self.kv.audit_blocks(&self.store);
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
        let used = self.params.weights_bytes + self.params.act_per_seq * n;
        let _overflow = self.pools[flat].set_runtime_used(used);
        let gpu = GpuRef::new(0, flat);
        let ops = self.with_plane(now, |p, ctx| p.on_memory_change(ctx, gpu));
        self.run_background(&ops);
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
            .map(|(m, _)| m.decode_step_latency(n, self.params.tp))
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
        let mut finished: Vec<u64> = Vec::new();
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
            if emitted > 0 && emitted.is_multiple_of(self.params.touch_tokens) {
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
        for rid in finished {
            self.complete_request(now, rid, out);
        }
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
        self.kv.audit_blocks(&self.store);
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
            .map(|b| (b.id, b.tokens, b.sealed, b.home));
        let mut grown = false;
        if let Some((tid, tokens, sealed, home)) = tail {
            if !sealed && tokens < KV_BLOCK_TOKENS {
                let loc = self.store.peek(tid).map(|e| e.location);
                let reserve = match loc {
                    Some(Location::Gpu(g)) => {
                        let flat = g.node * self.topo.gpus_per_node() + g.gpu;
                        self.pools[flat].try_alloc(delta).is_ok()
                    }
                    // Migrated tails grow host-side; host memory is not
                    // pool-tracked.
                    Some(Location::Host(_)) => true,
                    None => false,
                };
                if reserve && self.store.grow(now, tid, delta).is_ok() {
                    let gpn = self.topo.gpus_per_node();
                    if let Some(kv) = self.kv.get_mut(rid) {
                        if let Some(b) = kv.blocks.last_mut() {
                            b.tokens += 1;
                            b.bytes += delta;
                            if b.tokens >= KV_BLOCK_TOKENS {
                                b.sealed = true;
                            }
                        }
                    }
                    self.kv.credit(home, delta, gpn);
                    grown = true;
                }
            }
        }
        if !grown {
            // Seal the tail (it is full, or its pool is out of headroom)
            // and open a new block through the plane.
            if let Some(kv) = self.kv.get_mut(rid) {
                if let Some(b) = kv.blocks.last_mut() {
                    b.sealed = true;
                }
            }
            let put = self.with_plane(now, |p, ctx| {
                p.put(ctx, Self::token(rid), Destination::Gpu(dg), delta, 1)
            });
            if let Ok(po) = put {
                self.run(&po.op);
                let home = self
                    .store
                    .peek(po.id)
                    .map(|e| e.location)
                    .unwrap_or(Location::Gpu(dg));
                let gpn = self.topo.gpus_per_node();
                if let Some(kv) = self.kv.get_mut(rid) {
                    kv.blocks.push(KvBlock {
                        id: po.id,
                        tokens: 1,
                        bytes: delta,
                        home,
                        sealed: false,
                    });
                }
                self.kv.credit(home, delta, gpn);
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
        let ids: Vec<grouter_store::DataId> = kvreq.blocks.iter().map(|b| b.id).collect();
        let mut stall = SimDuration::ZERO;
        for id in ids {
            let resident = self
                .store
                .peek(id)
                .map(|e| e.location == Location::Gpu(dg))
                .unwrap_or(true);
            if resident {
                continue;
            }
            let got = self.with_plane(now, |p, ctx| {
                p.get(ctx, Self::token(rid), id, Destination::Gpu(dg))
            });
            if let Ok(op) = got {
                stall = stall + self.run(&op);
            }
        }
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
        let hints: Vec<(grouter_store::DataId, u64)> = kvreq
            .blocks
            .iter()
            .enumerate()
            .map(|(i, b)| {
                let rank = if i + 1 == n {
                    clock
                } else {
                    clock + 1_000 + (n - i) as u64
                };
                (b.id, rank)
            })
            .collect();
        for (id, rank) in hints {
            self.store.set_next_use(id, Some(rank));
        }
    }

    // ------------------------------------------------------------------
    // Completion, failure, chaos
    // ------------------------------------------------------------------

    /// Drop a request's KV through the consumed path (pool bytes freed,
    /// scaler live-output released — identical accounting whether the
    /// bytes were read or lost).
    fn drop_kv(&mut self, now: SimTime, rid: u64) {
        let Some(kvreq) = self.kv.remove(rid, self.topo.gpus_per_node()) else {
            return;
        };
        for b in kvreq.blocks {
            let ops = self.with_plane(now, |p, ctx| p.on_consumed(ctx, b.id));
            self.run_background(&ops);
        }
    }

    fn complete_request(&mut self, now: SimTime, rid: u64, out: &mut Actions) {
        self.drop_kv(now, rid);
        let Some(req) = self.requests.remove(rid) else {
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
        let Some(req) = self.requests.remove(rid) else {
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
                let Some(_req) = self.requests.remove(rid) else {
                    continue;
                };
                self.metrics.failed += 1;
                out.send(GroupOut::Done { rid, ok: false });
            } else if let Some(r) = self.requests.get_mut(rid) {
                r.retried = true;
                r.decode_gpu = None;
                r.kv_tokens = r.spec.prompt_tokens + r.stream.emitted;
                self.metrics.rematerialized += 1;
                self.start_prefill(now, rid, out);
            }
        }
        // The dead GPU's batch is gone: republish its runtime footprint.
        let _ = self.pools[gpu].set_runtime_used(self.params.weights_bytes);
        out.send(GroupOut::View(self.view()));
    }

    /// Leak check for chaos/golden tests: after a drained run nothing may
    /// linger in the store, the pools, or the prewarm scalers.
    pub fn assert_drained(&self) {
        assert!(self.requests.is_empty(), "requests linger");
        assert!(self.kv.is_empty(), "KV blocks linger");
        assert_eq!(self.store.len(), 0, "store not empty");
        for (i, pool) in self.pools.iter().enumerate() {
            assert_eq!(pool.used(), 0.0, "pool {i} leaks stored bytes");
        }
        for (i, sc) in self.scalers.iter().enumerate() {
            assert_eq!(sc.total_live_outputs(), 0, "scaler {i} leaks live outputs");
        }
    }
}
