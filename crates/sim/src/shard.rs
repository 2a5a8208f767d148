//! Conservative parallel simulation: many timelines, one virtual clock.
//!
//! The PR 6 engine runs one world on one timeline. At cluster scale (64–128
//! GPUs, millions of invocations) that single global event queue is the
//! bottleneck: every arrival, flow wakeup and stage completion across the
//! whole cluster funnels through one heap and one cache-hostile world.
//!
//! [`ShardedEngine`] instead runs `N` *shards* — each a full
//! [`Simulation`] owning its own typed-event timeline — and synchronises
//! them conservatively, YAWNS-style:
//!
//! 1. **Window.** Let `T` be the minimum next-event time across all shards
//!    and all undelivered cross-shard envelopes. Every shard may safely
//!    execute events with `t < T + L`, where `L` is the *lookahead*: the
//!    guaranteed minimum latency of any cross-shard interaction (derived
//!    from topology — a cross-group message rides at least one NIC hop, so
//!    `L ≥` NIC setup + propagation; see DESIGN.md §5.7).
//! 2. **Barrier.** At the window edge every shard drains its outbox of
//!    timestamped [`Envelope`]s. Because an envelope sent at `t_send ≥ T`
//!    is stamped `at ≥ t_send + L ≥ T + L`, it can never land inside the
//!    window just executed — no shard ever receives a message in its past.
//! 3. **Deliver.** Envelopes are sorted by `(at, src, seq)` — a total order
//!    fixed at send time — and applied to their destination shards before
//!    the next window opens. Thread arrival order never influences
//!    delivery order, which is what makes the engine deterministic: same
//!    seed ⇒ byte-identical results whether the shards run inline on one
//!    thread or spread over eight.
//!
//! `run(threads)` with `threads ≤ 1` executes the identical window
//! algorithm inline; with more threads, shards are partitioned over
//! persistent workers (`shard i → worker i mod threads`) coordinated with
//! two barriers per window. The window sequence itself depends only on
//! event timestamps, so the epoch structure — and therefore every
//! tie-breaking decision — is the same for every thread count.

use std::panic::{self, AssertUnwindSafe};
// grouter-lint: allow(no-shared-mut-across-shards): epoch-barrier plumbing for the threaded driver; simulation state never crosses shards outside envelopes
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
// grouter-lint: allow(no-shared-mut-across-shards): worker handoff slots, touched only at window edges under the barriers
use std::sync::{Barrier, Mutex};

use crate::engine::{EventWorld, Scheduler, Simulation};
use crate::time::{SimDuration, SimTime};

/// A timestamped cross-shard message.
///
/// `seq` is assigned by the *sending* world, monotonically per shard, so
/// `(at, src, seq)` is a total order over all envelopes of a run that is
/// fixed the moment a message is sent — the delivery order can never
/// depend on which worker thread happened to finish first.
#[derive(Clone, Debug)]
pub struct Envelope<M> {
    /// Virtual delivery time; must be ≥ send time + the engine lookahead.
    pub at: SimTime,
    /// Sending shard index.
    pub src: u32,
    /// Destination shard index.
    pub dst: u32,
    /// Per-sender monotone sequence number (ties on `at` break by
    /// `(src, seq)`).
    pub seq: u64,
    pub msg: M,
}

/// A world that can participate in a sharded run.
///
/// Contract (checked with debug assertions in the engine):
/// * every envelope pushed by [`drain_outbox`](ShardWorld::drain_outbox)
///   satisfies `at ≥ now + lookahead` of the sending shard;
/// * [`apply_message`](ShardWorld::apply_message) schedules any resulting
///   events at `≥ env.at` (the scheduler clamp makes earlier impossible
///   anyway — the clock never runs backwards).
pub trait ShardWorld: EventWorld + Send
where
    Self::Event: Send,
{
    type Msg: Send + 'static;

    /// Move every envelope produced since the last call into `sink`.
    fn drain_outbox(&mut self, sink: &mut Vec<Envelope<Self::Msg>>);

    /// Apply one incoming envelope (typically: schedule a typed event at
    /// `env.at`).
    fn apply_message(&mut self, sched: &mut Scheduler<Self>, env: Envelope<Self::Msg>);
}

/// Counters reported by [`ShardedEngine::run`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Synchronisation windows executed.
    pub epochs: u64,
    /// Cross-shard envelopes delivered.
    pub messages: u64,
}

/// `N` independent simulations advanced in lockstep safe windows.
pub struct ShardedEngine<W: ShardWorld>
where
    W::Event: Send,
{
    sims: Vec<Simulation<W>>,
    lookahead: SimDuration,
    /// Envelopes produced in the last window, awaiting sorted delivery.
    pending: Vec<Envelope<W::Msg>>,
}

impl<W: ShardWorld> ShardedEngine<W>
where
    W::Event: Send,
{
    /// Build an engine over pre-seeded shard worlds. `lookahead` must be
    /// positive: a zero lookahead would admit zero-latency cross-shard
    /// interaction, and the safe window would never contain any event.
    pub fn new(worlds: Vec<W>, lookahead: SimDuration) -> Self {
        assert!(
            lookahead > SimDuration::ZERO,
            "conservative sync needs a positive lookahead"
        );
        ShardedEngine {
            sims: worlds.into_iter().map(Simulation::new).collect(),
            lookahead,
            pending: Vec::new(),
        }
    }

    /// Build an engine over already-running simulations (worlds that were
    /// warmed up — events scheduled, state installed — before sharding).
    pub fn from_sims(sims: Vec<Simulation<W>>, lookahead: SimDuration) -> Self {
        assert!(
            lookahead > SimDuration::ZERO,
            "conservative sync needs a positive lookahead"
        );
        ShardedEngine {
            sims,
            lookahead,
            pending: Vec::new(),
        }
    }

    /// The minimum cross-shard latency the window protocol relies on.
    pub fn lookahead(&self) -> SimDuration {
        self.lookahead
    }

    pub fn shards(&self) -> usize {
        self.sims.len()
    }

    pub fn shard(&self, i: usize) -> &Simulation<W> {
        &self.sims[i]
    }

    pub fn shard_mut(&mut self, i: usize) -> &mut Simulation<W> {
        &mut self.sims[i]
    }

    pub fn sims(&self) -> &[Simulation<W>] {
        &self.sims
    }

    /// Run to global quiescence (no pending events, no undelivered
    /// envelopes) on `threads` worker threads. `threads ≤ 1` runs the same
    /// window algorithm inline. Returns window/message counters.
    pub fn run(&mut self, threads: usize) -> RunStats {
        if threads <= 1 || self.sims.len() <= 1 {
            self.run_inline()
        } else {
            self.run_threaded(threads.min(self.sims.len()))
        }
    }

    /// Sort pending envelopes into their fixed delivery order and compute
    /// the next window horizon, or `None` at global quiescence.
    fn next_horizon(&mut self, stats: &mut RunStats) -> Option<SimTime> {
        self.pending.sort_unstable_by_key(|e| (e.at, e.src, e.seq));
        let mut t = self.pending.first().map(|e| e.at);
        for sim in &self.sims {
            if let Some(n) = sim.sched.next_event_at() {
                t = Some(t.map_or(n, |t0| t0.min(n)));
            }
        }
        let t = t?;
        stats.epochs += 1;
        stats.messages += self.pending.len() as u64;
        Some(t.saturating_add(self.lookahead))
    }

    fn deliver(sim: &mut Simulation<W>, env: Envelope<W::Msg>) {
        let Simulation { world, sched } = sim;
        world.apply_message(sched, env);
    }

    fn run_inline(&mut self) -> RunStats {
        let mut stats = RunStats::default();
        while let Some(horizon) = self.next_horizon(&mut stats) {
            // Drained in place: the buffer keeps its capacity for the
            // envelopes this window sends.
            for env in self.pending.drain(..) {
                Self::deliver(&mut self.sims[env.dst as usize], env);
            }
            for sim in &mut self.sims {
                sim.run_before(horizon);
                let before = self.pending.len();
                sim.world.drain_outbox(&mut self.pending);
                debug_assert!(
                    self.pending[before..].iter().all(|e| e.at >= horizon),
                    "cross-shard envelope stamped inside the safe window"
                );
            }
        }
        stats
    }

    fn run_threaded(&mut self, threads: usize) -> RunStats {
        const STOP: u64 = u64::MAX;
        let mut stats = RunStats::default();

        // Worker mailboxes. Main touches a slot only between the `done` and
        // `start` barriers; its worker only between `start` and `done` — the
        // mutexes are never contended, they just carry the data across the
        // barrier synchronisation.
        struct Io<W: ShardWorld>
        where
            W::Event: Send,
        {
            inbox: Vec<Envelope<W::Msg>>,
            outbox: Vec<Envelope<W::Msg>>,
            next: Option<SimTime>,
            sims: Vec<(usize, Simulation<W>)>,
        }

        let lookahead = self.lookahead;
        let mut per: Vec<Vec<(usize, Simulation<W>)>> = (0..threads).map(|_| Vec::new()).collect();
        for (i, sim) in std::mem::take(&mut self.sims).into_iter().enumerate() {
            per[i % threads].push((i, sim));
        }
        // grouter-lint: allow(no-shared-mut-across-shards): one slot per worker, locked only at window edges; envelope order carries determinism
        let ios: Vec<Mutex<Io<W>>> = per
            .into_iter()
            .map(|sims| {
                // grouter-lint: allow(no-shared-mut-across-shards): see slot vector above
                Mutex::new(Io {
                    inbox: Vec::new(),
                    outbox: Vec::new(),
                    next: None,
                    sims,
                })
            })
            .collect();
        let start = Barrier::new(threads + 1);
        let done = Barrier::new(threads + 1);
        // Current window horizon in nanoseconds; `STOP` ends the run.
        // grouter-lint: allow(no-shared-mut-across-shards): window broadcast written by main between barriers, read by workers after
        let horizon = AtomicU64::new(0);
        // grouter-lint: allow(no-shared-mut-across-shards): sticky poison flag so one panicking shard aborts the scope cleanly
        let panicked = AtomicBool::new(false);

        std::thread::scope(|scope| {
            for k in 0..threads {
                let (ios, start, done) = (&ios, &start, &done);
                let (horizon, panicked) = (&horizon, &panicked);
                scope.spawn(move || {
                    let mut mine = {
                        // grouter-lint: allow(no-panic-in-dataplane): lock poisoning is already a shard panic; propagating it is the orderly shutdown path
                        let mut io = ios[k].lock().unwrap();
                        std::mem::take(&mut io.sims)
                    };
                    // Initial handshake: report first next-event times so
                    // main can open the first window.
                    {
                        // grouter-lint: allow(no-panic-in-dataplane): lock poisoning is already a shard panic; propagating it is the orderly shutdown path
                        let mut io = ios[k].lock().unwrap();
                        io.next = mine
                            .iter()
                            .filter_map(|(_, s)| s.sched.next_event_at())
                            .min();
                    }
                    done.wait();
                    loop {
                        start.wait();
                        let h = horizon.load(Ordering::SeqCst);
                        if h == STOP {
                            // grouter-lint: allow(no-panic-in-dataplane): lock poisoning is already a shard panic; propagating it is the orderly shutdown path
                            ios[k].lock().unwrap().sims = mine;
                            return;
                        }
                        // A panicking shard must still reach the `done`
                        // barrier or main would hang; the flag re-raises the
                        // panic on the main thread.
                        let res = panic::catch_unwind(AssertUnwindSafe(|| {
                            let inbox = {
                                // grouter-lint: allow(no-panic-in-dataplane): lock poisoning is already a shard panic; propagating it is the orderly shutdown path
                                let mut io = ios[k].lock().unwrap();
                                std::mem::take(&mut io.inbox)
                            };
                            for env in inbox {
                                let (_, sim) = mine
                                    .iter_mut()
                                    .find(|(i, _)| *i == env.dst as usize)
                                    // grouter-lint: allow(no-panic-in-dataplane): routing is dst % threads by construction; a miss is engine corruption
                                    .expect("envelope routed to wrong worker");
                                Self::deliver(sim, env);
                            }
                            let mut outbox = Vec::new();
                            let mut next: Option<SimTime> = None;
                            for (_, sim) in mine.iter_mut() {
                                sim.run_before(SimTime(h));
                                let before = outbox.len();
                                sim.world.drain_outbox(&mut outbox);
                                debug_assert!(
                                    outbox[before..].iter().all(|e| e.at.as_nanos() >= h),
                                    "cross-shard envelope stamped inside the safe window"
                                );
                                if let Some(n) = sim.sched.next_event_at() {
                                    next = Some(next.map_or(n, |n0| n0.min(n)));
                                }
                            }
                            // grouter-lint: allow(no-panic-in-dataplane): lock poisoning is already a shard panic; propagating it is the orderly shutdown path
                            let mut io = ios[k].lock().unwrap();
                            io.outbox = outbox;
                            io.next = next;
                        }));
                        if res.is_err() {
                            panicked.store(true, Ordering::SeqCst);
                        }
                        done.wait();
                    }
                });
            }

            done.wait(); // initial handshake
            loop {
                // Same horizon computation as the inline path, over the
                // workers' reported minima plus undelivered envelopes.
                self.pending.sort_unstable_by_key(|e| (e.at, e.src, e.seq));
                let mut t = self.pending.first().map(|e| e.at);
                for io in &ios {
                    // grouter-lint: allow(no-panic-in-dataplane): lock poisoning is already a shard panic; propagating it is the orderly shutdown path
                    if let Some(n) = io.lock().unwrap().next {
                        t = Some(t.map_or(n, |t0| t0.min(n)));
                    }
                }
                let Some(t) = t else {
                    horizon.store(STOP, Ordering::SeqCst);
                    start.wait();
                    break;
                };
                stats.epochs += 1;
                stats.messages += self.pending.len() as u64;
                let h = t.saturating_add(lookahead);
                // Route envelopes in their sorted order; each worker's inbox
                // receives its shards' sub-sequence in delivery order.
                for env in self.pending.drain(..) {
                    let w = env.dst as usize % threads;
                    // grouter-lint: allow(no-panic-in-dataplane): lock poisoning is already a shard panic; propagating it is the orderly shutdown path
                    ios[w].lock().unwrap().inbox.push(env);
                }
                horizon.store(h.as_nanos(), Ordering::SeqCst);
                start.wait();
                done.wait();
                if panicked.load(Ordering::SeqCst) {
                    horizon.store(STOP, Ordering::SeqCst);
                    start.wait();
                    // grouter-lint: allow(no-panic-in-dataplane): re-raise a shard worker's panic after an orderly shutdown
                    panic!("sharded engine: shard worker panicked");
                }
                for io in &ios {
                    // grouter-lint: allow(no-panic-in-dataplane): lock poisoning is already a shard panic; propagating it is the orderly shutdown path
                    let mut io = io.lock().unwrap();
                    self.pending.append(&mut io.outbox);
                }
            }
        });

        let mut collected: Vec<(usize, Simulation<W>)> = ios
            .into_iter()
            // grouter-lint: allow(no-panic-in-dataplane): scope has joined every worker; the mutex cannot be poisoned or held
            .flat_map(|m| m.into_inner().unwrap().sims)
            .collect();
        collected.sort_unstable_by_key(|(i, _)| *i);
        self.sims = collected.into_iter().map(|(_, s)| s).collect();
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const L: u64 = 1_000; // lookahead in ns

    /// Test world: shards pass tokens around a ring, logging every hop.
    struct Ring {
        id: u32,
        n: u32,
        log: Vec<(u64, u64, u32)>, // (time, token, hops_left)
        outbox: Vec<Envelope<Token>>,
        seq: u64,
    }

    #[derive(Clone, Debug)]
    struct Token {
        id: u64,
        hops: u32,
    }

    impl EventWorld for Ring {
        type Event = Token;
        fn dispatch(&mut self, s: &mut Scheduler<Self>, ev: Token) {
            self.log.push((s.now().as_nanos(), ev.id, ev.hops));
            if ev.hops > 0 {
                let dst = (self.id + 1) % self.n;
                self.outbox.push(Envelope {
                    at: s.now().saturating_add(SimDuration(L)),
                    src: self.id,
                    dst,
                    seq: self.seq,
                    msg: Token {
                        id: ev.id,
                        hops: ev.hops - 1,
                    },
                });
                self.seq += 1;
            }
        }
    }

    impl ShardWorld for Ring {
        type Msg = Token;
        fn drain_outbox(&mut self, sink: &mut Vec<Envelope<Token>>) {
            sink.append(&mut self.outbox);
        }
        fn apply_message(&mut self, sched: &mut Scheduler<Self>, env: Envelope<Token>) {
            sched.schedule_at(env.at, env.msg);
        }
    }

    fn ring(
        n: u32,
        tokens: u64,
        hops: u32,
        threads: usize,
    ) -> (Vec<Vec<(u64, u64, u32)>>, RunStats) {
        let worlds: Vec<Ring> = (0..n)
            .map(|id| Ring {
                id,
                n,
                log: Vec::new(),
                outbox: Vec::new(),
                seq: 0,
            })
            .collect();
        let mut eng = ShardedEngine::new(worlds, SimDuration(L));
        for tok in 0..tokens {
            // Stagger injections so shards start at unequal virtual times.
            let shard = (tok % n as u64) as usize;
            eng.shard_mut(shard)
                .sched
                .schedule_at(SimTime(tok * 37), Token { id: tok, hops });
        }
        let stats = eng.run(threads);
        (
            eng.sims().iter().map(|s| s.world.log.clone()).collect(),
            stats,
        )
    }

    #[test]
    fn tokens_complete_all_hops() {
        let (logs, stats) = ring(4, 8, 10, 1);
        let total: usize = logs.iter().map(Vec::len).sum();
        // Each token fires once at injection plus once per hop.
        assert_eq!(total, 8 * 11);
        assert!(stats.epochs > 0);
        assert_eq!(stats.messages, 8 * 10);
    }

    #[test]
    fn parallel_matches_inline_byte_for_byte() {
        let base = ring(5, 16, 23, 1);
        for threads in [2, 3, 5, 8] {
            assert_eq!(ring(5, 16, 23, threads), base, "threads={threads}");
        }
    }

    #[test]
    fn messages_never_arrive_in_a_shards_past() {
        // Per-shard logs must be in nondecreasing time order: a message
        // landing in the past would fire out of order.
        let (logs, _) = ring(3, 9, 40, 4);
        for log in logs {
            assert!(log.windows(2).all(|w| w[0].0 <= w[1].0));
        }
    }

    #[test]
    fn same_instant_envelopes_deliver_in_src_seq_order() {
        // Two shards send to shard 0 with identical delivery times; the
        // applied order must be (src, seq), not arrival luck. Shard worlds
        // log in dispatch order, so the log exposes delivery order.
        struct Sink {
            log: Vec<(u32, u64)>,
            outbox: Vec<Envelope<(u32, u64)>>,
        }
        enum SinkEv {
            /// Shard `src` sends two envelopes to shard 0, both stamped
            /// with the same delivery instant.
            Kick {
                src: u32,
            },
            Deliver((u32, u64)),
        }
        impl EventWorld for Sink {
            type Event = SinkEv;
            fn dispatch(&mut self, s: &mut Scheduler<Self>, ev: SinkEv) {
                match ev {
                    SinkEv::Kick { src } => {
                        for seq in 0..2 {
                            self.outbox.push(Envelope {
                                at: s.now().saturating_add(SimDuration(L)),
                                src,
                                dst: 0,
                                seq,
                                msg: (src, seq),
                            });
                        }
                    }
                    SinkEv::Deliver(msg) => self.log.push(msg),
                }
            }
        }
        impl ShardWorld for Sink {
            type Msg = (u32, u64);
            fn drain_outbox(&mut self, sink: &mut Vec<Envelope<(u32, u64)>>) {
                sink.append(&mut self.outbox);
            }
            fn apply_message(&mut self, sched: &mut Scheduler<Self>, env: Envelope<(u32, u64)>) {
                sched.schedule_at(env.at, SinkEv::Deliver(env.msg));
            }
        }
        let run = |threads: usize| {
            let worlds: Vec<Sink> = (0..3)
                .map(|_| Sink {
                    log: Vec::new(),
                    outbox: Vec::new(),
                })
                .collect();
            let mut eng = ShardedEngine::new(worlds, SimDuration(L));
            // Kick shards 2 and 1 (in that order) at the same instant.
            for src in [2u32, 1] {
                eng.shard_mut(src as usize)
                    .sched
                    .schedule_at(SimTime(0), SinkEv::Kick { src });
            }
            eng.run(threads);
            eng.shard(0).world.log.clone()
        };
        let expect = vec![(1, 0), (1, 1), (2, 0), (2, 1)];
        for threads in [1, 2, 3] {
            assert_eq!(run(threads), expect, "threads={threads}");
        }
    }

    #[test]
    #[should_panic(expected = "positive lookahead")]
    fn zero_lookahead_is_rejected() {
        let _ = ShardedEngine::<Ring>::new(Vec::new(), SimDuration::ZERO);
    }
}
