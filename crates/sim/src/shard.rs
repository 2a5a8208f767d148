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
//! 2. **Window edge.** At the window edge every shard drains its outbox of
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
//! `run(threads)` splits the shards into `threads` contiguous chunks. The
//! calling thread runs the first chunk itself and one scoped worker runs
//! each other chunk; per window a worker receives `(horizon, inbox)` over a
//! channel and replies with `(outbox, next event time)`. With one thread
//! nothing is spawned and the loop runs every shard in place. The window
//! sequence itself depends only on event timestamps, so the epoch
//! structure — and therefore every tie-breaking decision — is the same for
//! every thread count.

use std::sync::mpsc::{channel, Receiver, Sender};

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

/// The calling thread's end of one worker's channels, plus the worker's
/// state between windows.
struct Worker<M> {
    to: Sender<(SimTime, Vec<Envelope<M>>)>,
    from: Receiver<(Vec<Envelope<M>>, Option<SimTime>)>,
    /// Envelopes for the worker's shards in the next window: the buffer its
    /// last outbox came back in, so it keeps its capacity.
    inbox: Vec<Envelope<M>>,
    /// Earliest pending event over the worker's shards.
    next: Option<SimTime>,
}

impl<W: ShardWorld> ShardedEngine<W>
where
    W::Event: Send,
{
    /// Build an engine over pre-seeded shard worlds. `lookahead` must be
    /// positive: a zero lookahead would admit zero-latency cross-shard
    /// interaction, and the safe window would never contain any event.
    pub fn new(worlds: Vec<W>, lookahead: SimDuration) -> Self {
        Self::from_sims(worlds.into_iter().map(Simulation::new).collect(), lookahead)
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
    /// envelopes) on `threads` threads, the calling thread included; the
    /// window sequence is the same for every thread count. Returns
    /// window/message counters.
    ///
    /// A panicking shard on a worker closes that worker's channels; the
    /// loop then returns and the scope re-raises the panic.
    pub fn run(&mut self, threads: usize) -> RunStats {
        let size = self.sims.len().div_ceil(threads.max(1)).max(1);
        let mut chunks = self.sims.chunks_mut(size);
        let own = chunks.next().unwrap_or_default();
        let (lookahead, pending) = (self.lookahead, &mut self.pending);
        // Nothing to spawn: run the loop outside a thread scope, which
        // measured a few percent faster on one-thread runs.
        if chunks.len() == 0 {
            return Self::run_windows(own, size, lookahead, pending, &mut []);
        }
        std::thread::scope(|scope| {
            let mut workers: Vec<Worker<W::Msg>> = chunks
                .enumerate()
                .map(|(k, chunk)| {
                    let base = (k + 1) * size;
                    let next = Self::next_event(chunk);
                    let (to, rx) = channel::<(SimTime, Vec<Envelope<W::Msg>>)>();
                    let (tx, from) = channel();
                    scope.spawn(move || {
                        // The inbox, once delivered, carries the outbox back.
                        while let Ok((horizon, mut mail)) = rx.recv() {
                            for env in mail.drain(..) {
                                Self::deliver(&mut chunk[env.dst as usize - base], env);
                            }
                            let next = Self::window(chunk, horizon, &mut mail);
                            if tx.send((mail, next)).is_err() {
                                return;
                            }
                        }
                    });
                    Worker {
                        to,
                        from,
                        inbox: Vec::new(),
                        next,
                    }
                })
                .collect();
            Self::run_windows(own, size, lookahead, pending, &mut workers)
        })
    }

    /// The window loop. The calling thread runs `own` (shards `0..size`);
    /// `workers[k]` runs shards `(k + 1) * size..`.
    fn run_windows(
        own: &mut [Simulation<W>],
        size: usize,
        lookahead: SimDuration,
        pending: &mut Vec<Envelope<W::Msg>>,
        workers: &mut [Worker<W::Msg>],
    ) -> RunStats {
        let mut next = Self::next_event(own);
        let mut stats = RunStats::default();
        loop {
            pending.sort_unstable_by_key(|e| (e.at, e.src, e.seq));
            let first = pending.first().map(|e| e.at);
            let Some(t) = workers
                .iter()
                .map(|w| w.next)
                .chain([first, next])
                .fold(None, earliest)
            else {
                return stats;
            };
            stats.epochs += 1;
            stats.messages += pending.len() as u64;
            let horizon = t.saturating_add(lookahead);
            // Drained in place: the buffer keeps its capacity for the
            // envelopes this window sends.
            for env in pending.drain(..) {
                let dst = env.dst as usize;
                if dst < size {
                    Self::deliver(&mut own[dst], env);
                } else {
                    workers[dst / size - 1].inbox.push(env);
                }
            }
            for w in workers.iter_mut() {
                if w.to.send((horizon, std::mem::take(&mut w.inbox))).is_err() {
                    return stats;
                }
            }
            next = Self::window(own, horizon, pending);
            for w in workers.iter_mut() {
                let Ok((mut outbox, n)) = w.from.recv() else {
                    return stats;
                };
                pending.append(&mut outbox);
                w.inbox = outbox;
                w.next = n;
            }
        }
    }

    fn deliver(sim: &mut Simulation<W>, env: Envelope<W::Msg>) {
        let Simulation { world, sched } = sim;
        world.apply_message(sched, env);
    }

    /// Execute `chunk`'s events before `horizon`, drain the envelopes they
    /// sent into `out`, and return the chunk's earliest pending event.
    fn window(
        chunk: &mut [Simulation<W>],
        horizon: SimTime,
        out: &mut Vec<Envelope<W::Msg>>,
    ) -> Option<SimTime> {
        let mut next = None;
        for sim in chunk.iter_mut() {
            sim.run_before(horizon);
            let before = out.len();
            sim.world.drain_outbox(out);
            debug_assert!(
                out.iter().skip(before).all(|e| e.at >= horizon),
                "cross-shard envelope stamped inside the safe window"
            );
            next = earliest(next, sim.sched.next_event_at());
        }
        next
    }

    fn next_event(chunk: &[Simulation<W>]) -> Option<SimTime> {
        chunk
            .iter()
            .map(|s| s.sched.next_event_at())
            .fold(None, earliest)
    }
}

/// The earlier of two optional instants; `None` means "nothing pending".
fn earliest(a: Option<SimTime>, b: Option<SimTime>) -> Option<SimTime> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, None) => a,
        (None, b) => b,
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
        /// Panic on the third dispatch (a shard whose event handler fails).
        faulty: bool,
    }

    #[derive(Clone, Debug)]
    struct Token {
        id: u64,
        hops: u32,
    }

    impl EventWorld for Ring {
        type Event = Token;
        fn dispatch(&mut self, s: &mut Scheduler<Self>, ev: Token) {
            assert!(
                !(self.faulty && self.log.len() == 2),
                "shard {} failed",
                self.id
            );
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

    /// A ring of `n` shards with `tokens` tokens of `hops` hops each; shard
    /// `faulty` (if any) panics on its third dispatch, with a far-future
    /// event still pending.
    fn ring_engine(n: u32, tokens: u64, hops: u32, faulty: Option<u32>) -> ShardedEngine<Ring> {
        let worlds: Vec<Ring> = (0..n)
            .map(|id| Ring {
                id,
                n,
                log: Vec::new(),
                outbox: Vec::new(),
                seq: 0,
                faulty: faulty == Some(id),
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
        if let Some(f) = faulty {
            let late = Token {
                id: tokens,
                hops: 0,
            };
            eng.shard_mut(f as usize)
                .sched
                .schedule_at(SimTime(1 << 40), late);
        }
        eng
    }

    /// Each shard's delivery log: `(time, token, hops_left)` per delivery.
    type RingLogs = Vec<Vec<(u64, u64, u32)>>;

    fn ring(n: u32, tokens: u64, hops: u32, threads: usize) -> (RingLogs, RunStats) {
        let mut eng = ring_engine(n, tokens, hops, None);
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
    fn a_panicking_shard_fails_the_run_instead_of_hanging() {
        use std::time::{Duration, Instant};
        // Shard 0 runs on the calling thread at every thread count; shard
        // 3 runs on a worker at 2 and 4 threads.
        for threads in [1, 2, 4] {
            for faulty in [0, 3] {
                let run =
                    std::thread::spawn(move || ring_engine(4, 8, 10, Some(faulty)).run(threads));
                let deadline = Instant::now() + Duration::from_secs(30);
                while !run.is_finished() {
                    assert!(
                        Instant::now() < deadline,
                        "threads={threads} faulty={faulty}: run hung"
                    );
                    std::thread::sleep(Duration::from_millis(1));
                }
                assert!(
                    run.join().is_err(),
                    "threads={threads} faulty={faulty}: run completed"
                );
            }
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
