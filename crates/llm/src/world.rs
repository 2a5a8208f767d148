//! The sharded serving world: one router shard plus one shard per group.
//!
//! Shard 0 runs the router (open-loop arrivals, heartbeat views,
//! decode-aware admission); shards `1..=G` each run one serving group
//! ([`crate::group::GroupState`]). Shards talk only through typed
//! envelopes with the engine's conservative lookahead, so a run is
//! byte-identical at any worker-thread count.

use std::collections::VecDeque;

use grouter_ctl::{pick_group, DecodeBudget, DecodeView};
use grouter_sim::rng::DetRng;
use grouter_sim::time::{SimDuration, SimTime};
use grouter_sim::{Envelope, EventWorld, Scheduler, ShardWorld};
use grouter_workloads::llm::{LlmMix, LlmRequestSpec};
use grouter_workloads::OpenLoopGen;

use crate::group::{Actions, GroupEv, GroupOut, GroupState};

/// Typed events of one shard.
#[derive(Debug)]
pub enum Ev {
    /// Router: the next open-loop arrival fires.
    Arrival,
    /// Group: an internal serving event.
    Group(GroupEv),
    /// Delivery of a router→group admission envelope.
    MsgAdmit {
        rid: u64,
        spec: LlmRequestSpec,
        arrival: SimTime,
    },
    /// Delivery of a group→router heartbeat view.
    MsgView { group: usize, view: DecodeView },
    /// Delivery of a group→router request completion.
    MsgDone { rid: u64, ok: bool },
}

/// Cross-shard messages.
#[derive(Clone, Copy, Debug)]
pub enum Msg {
    Admit {
        rid: u64,
        spec: LlmRequestSpec,
        arrival: SimTime,
    },
    View {
        group: usize,
        view: DecodeView,
    },
    Done {
        rid: u64,
        ok: bool,
    },
}

/// Router-side state (shard 0).
pub struct RouterState {
    pub gen: OpenLoopGen,
    /// Arrivals still to schedule (including the one in flight).
    pub remaining: u64,
    pub mix: LlmMix,
    pub rng: DetRng,
    pub next_rid: u64,
    /// Deferred requests, FIFO.
    pub pending: VecDeque<(u64, LlmRequestSpec, SimTime)>,
    /// Last heartbeat view per group.
    pub views: Vec<DecodeView>,
    pub budget: DecodeBudget,
    pub completed: u64,
    pub failed: u64,
}

impl RouterState {
    pub fn new(
        gen: OpenLoopGen,
        requests: u64,
        mix: LlmMix,
        rng: DetRng,
        groups: usize,
        budget: DecodeBudget,
    ) -> RouterState {
        RouterState {
            gen,
            remaining: requests,
            mix,
            rng,
            next_rid: 0,
            pending: VecDeque::new(),
            views: vec![
                DecodeView {
                    active: 0,
                    kv_bytes: 0.0,
                    queued: 0,
                };
                groups
            ],
            budget,
            completed: 0,
            failed: 0,
        }
    }
}

/// What a shard is.
pub enum Role {
    Router(Box<RouterState>),
    Group(Box<GroupState>),
}

/// One shard of the LLM serving simulation.
pub struct LlmWorld {
    pub shard: u32,
    pub lookahead: SimDuration,
    pub role: Role,
    outbox: Vec<Envelope<Msg>>,
    seq: u64,
    /// A group's side-effect buffer, drained by `apply_actions` and reused
    /// by the next event.
    acts: Actions,
}

impl LlmWorld {
    pub fn router(state: RouterState, lookahead: SimDuration) -> LlmWorld {
        LlmWorld {
            shard: 0,
            lookahead,
            role: Role::Router(Box::new(state)),
            outbox: Vec::new(),
            seq: 0,
            acts: Actions::default(),
        }
    }

    pub fn group(index: usize, state: GroupState, lookahead: SimDuration) -> LlmWorld {
        LlmWorld {
            shard: index as u32 + 1,
            lookahead,
            role: Role::Group(Box::new(state)),
            outbox: Vec::new(),
            seq: 0,
            acts: Actions::default(),
        }
    }

    /// The group state, when this shard is a group.
    pub fn group_state(&self) -> Option<&GroupState> {
        match &self.role {
            Role::Group(g) => Some(g),
            Role::Router(_) => None,
        }
    }

    pub fn router_state(&self) -> Option<&RouterState> {
        match &self.role {
            Role::Router(r) => Some(r.as_ref()),
            Role::Group(_) => None,
        }
    }

    fn send(&mut self, now: SimTime, dst: u32, msg: Msg) {
        self.seq += 1;
        self.outbox.push(Envelope {
            at: now + self.lookahead,
            src: self.shard,
            dst,
            seq: self.seq,
            msg,
        });
    }

    /// Apply a group's side effects: local schedules plus envelopes to the
    /// router. The drained buffer goes back to `self.acts` for reuse.
    fn apply_actions(&mut self, sched: &mut Scheduler<Self>, now: SimTime, mut acts: Actions) {
        let group = self.shard as usize - 1;
        for (at, ev) in acts.schedule.drain(..) {
            sched.schedule_at(at, Ev::Group(ev));
        }
        for out in acts.send.drain(..) {
            let msg = match out {
                GroupOut::View(view) => Msg::View { group, view },
                GroupOut::Done { rid, ok } => Msg::Done { rid, ok },
            };
            self.send(now, 0, msg);
        }
        self.acts = acts;
    }

    // ------------------------------------------------------------------
    // Router
    // ------------------------------------------------------------------

    /// Route one request: admit to the best group or park it as pending.
    fn route(&mut self, now: SimTime, rid: u64, spec: LlmRequestSpec, arrival: SimTime) {
        let picked = {
            let Role::Router(r) = &mut self.role else {
                return;
            };
            let kv_need = spec.model.kv_bytes(spec.prompt_tokens + spec.output_tokens);
            match pick_group(&r.views, r.budget, kv_need) {
                Some(g) => {
                    // Optimistic view update so a burst between heartbeats
                    // does not dogpile one group.
                    r.views[g].queued += 1;
                    r.views[g].kv_bytes += kv_need;
                    Some(g)
                }
                None => {
                    r.pending.push_back((rid, spec, arrival));
                    None
                }
            }
        };
        if let Some(g) = picked {
            self.send(now, g as u32 + 1, Msg::Admit { rid, spec, arrival });
        }
    }

    /// Retry deferred requests after any view refresh.
    fn drain_pending(&mut self, now: SimTime) {
        loop {
            let Role::Router(r) = &mut self.role else {
                return;
            };
            let Some((rid, spec, arrival)) = r.pending.pop_front() else {
                return;
            };
            let kv_need = spec.model.kv_bytes(spec.prompt_tokens + spec.output_tokens);
            if pick_group(&r.views, r.budget, kv_need).is_none() {
                r.pending.push_front((rid, spec, arrival));
                return;
            }
            self.route(now, rid, spec, arrival);
        }
    }

    fn on_arrival(&mut self, sched: &mut Scheduler<Self>) {
        let now = sched.now();
        let Role::Router(r) = &mut self.role else {
            return;
        };
        if r.remaining == 0 {
            return;
        }
        r.remaining -= 1;
        let rid = r.next_rid;
        r.next_rid += 1;
        let spec = r.mix.sample(&mut r.rng);
        if r.remaining > 0 {
            if let Some(next) = r.gen.next() {
                sched.schedule_at(next, Ev::Arrival);
            } else {
                r.remaining = 0;
            }
        }
        self.route(now, rid, spec, now);
    }
}

impl EventWorld for LlmWorld {
    type Event = Ev;

    fn dispatch(&mut self, sched: &mut Scheduler<Self>, ev: Ev) {
        let now = sched.now();
        match ev {
            Ev::Arrival => self.on_arrival(sched),
            Ev::Group(gev) => {
                let Role::Group(g) = &mut self.role else {
                    return;
                };
                let mut acts = std::mem::take(&mut self.acts);
                match gev {
                    GroupEv::PrefillDone { rid } => g.prefill_done(now, rid, &mut acts),
                    GroupEv::HandoffDone { rid } => g.handoff_done(now, rid, &mut acts),
                    GroupEv::DecodeTick { gpu } => g.decode_tick(now, gpu, &mut acts),
                    GroupEv::Beat => g.beat(now, &mut acts),
                    GroupEv::Fail { gpu } => g.fail_gpu(now, gpu, &mut acts),
                }
                self.apply_actions(sched, now, acts);
            }
            Ev::MsgAdmit { rid, spec, arrival } => {
                let Role::Group(g) = &mut self.role else {
                    return;
                };
                let mut acts = std::mem::take(&mut self.acts);
                g.admit(now, rid, spec, arrival, &mut acts);
                self.apply_actions(sched, now, acts);
            }
            Ev::MsgView { group, view } => {
                if let Role::Router(r) = &mut self.role {
                    if group < r.views.len() {
                        r.views[group] = view;
                    }
                }
                self.drain_pending(now);
            }
            Ev::MsgDone { rid: _, ok } => {
                if let Role::Router(r) = &mut self.role {
                    if ok {
                        r.completed += 1;
                    } else {
                        r.failed += 1;
                    }
                }
                self.drain_pending(now);
            }
        }
    }
}

impl ShardWorld for LlmWorld {
    type Msg = Msg;

    fn drain_outbox(&mut self, sink: &mut Vec<Envelope<Msg>>) {
        sink.append(&mut self.outbox);
    }

    fn apply_message(&mut self, sched: &mut Scheduler<Self>, env: Envelope<Msg>) {
        let ev = match env.msg {
            Msg::Admit { rid, spec, arrival } => Ev::MsgAdmit { rid, spec, arrival },
            Msg::View { group, view } => Ev::MsgView { group, view },
            Msg::Done { rid, ok } => Ev::MsgDone { rid, ok },
        };
        sched.schedule_at(env.at, ev);
    }
}
