//! Discrete-event scheduler: a binary heap of typed events plus a FIFO lane.
//!
//! The world implements [`EventWorld`] with an associated `Event` type and a
//! `dispatch` function. Scheduling moves the event value into the queue; no
//! per-event allocation beyond the containers' amortised growth.
//!
//! Ordering is pinned by golden tests: events fire in `(at, seq)` order,
//! i.e. nondecreasing virtual time with ties in schedule order. `seq` is a
//! per-scheduler counter stamped when an event is scheduled, and an event
//! scheduled in the past is clamped to `now`, so the clock never runs
//! backwards.
//!
//! An event whose time is not before the last one appended to the lane
//! joins the back of the lane; any other goes onto the heap. Since `seq`
//! only grows, the lane is sorted by `(at, seq)` by construction, and
//! [`Simulation::step`] fires whichever front is earlier: the order is the
//! same as one heap's, whichever container holds an event. A trace
//! submitted before the run (workflow mode schedules its whole arrival
//! trace up front, 8,596 events at seed 11) then costs O(1) per event
//! instead of a heap push and pop over thousands of pending entries. The
//! benchmark workloads average 1.03–1.15 events per distinct timestamp, so
//! grouping same-instant events into buckets would save almost no heap
//! operations (DESIGN.md §5.6).

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::{SimDuration, SimTime};

/// A world driven by typed events.
///
/// `dispatch` is the single decode point: the engine hands back the event
/// value and the world routes it to its handler.
pub trait EventWorld: Sized {
    type Event;
    fn dispatch(&mut self, sched: &mut Scheduler<Self>, ev: Self::Event);
}

/// One pending event, keyed by `(at, seq)`.
struct Pending<E> {
    at: SimTime,
    seq: u64,
    ev: E,
}

impl<E> PartialEq for Pending<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl<E> Eq for Pending<E> {}
impl<E> PartialOrd for Pending<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Pending<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

impl<E> Pending<E> {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

/// The event queue and simulated clock.
///
/// Handed to every firing event so it can schedule more events.
pub struct Scheduler<W: EventWorld> {
    now: SimTime,
    /// Events scheduled out of time order.
    queue: BinaryHeap<Pending<W::Event>>,
    /// Events scheduled in nondecreasing time order, oldest first.
    lane: VecDeque<Pending<W::Event>>,
    /// Time of the event last appended to `lane` (`ZERO` before the first).
    /// Kept beside the deque so the append test reads no deque memory.
    lane_tail: SimTime,
    /// Stamp of the next scheduled event; breaks ties on `at`.
    seq: u64,
    /// Observability handle. The scheduler is the source of truth for
    /// virtual time, so it mirrors the clock into the recorder before each
    /// dispatch; world code then emits events without threading `now`.
    rec: grouter_obs::Recorder,
}

impl<W: EventWorld> Default for Scheduler<W> {
    fn default() -> Self {
        Scheduler {
            now: SimTime::ZERO,
            queue: BinaryHeap::new(),
            lane: VecDeque::new(),
            lane_tail: SimTime::ZERO,
            seq: 0,
            rec: grouter_obs::Recorder::disabled(),
        }
    }
}

impl<W: EventWorld> Scheduler<W> {
    pub fn new() -> Self {
        Self::default()
    }

    /// The current simulated instant.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    #[inline]
    pub fn pending(&self) -> usize {
        self.queue.len() + self.lane.len()
    }

    /// Schedule a typed event to fire at absolute time `at`.
    ///
    /// Scheduling in the past is a logic error; the event is clamped to `now`
    /// so the clock never runs backwards.
    #[inline]
    pub fn schedule_at(&mut self, at: SimTime, ev: W::Event) {
        let seq = self.seq;
        self.seq += 1;
        let at = at.max(self.now);
        // No test for an empty lane is needed: its last entry fired at
        // `lane_tail`, so `now`, and with it `at`, is not before it.
        if at >= self.lane_tail {
            self.lane_tail = at;
            self.lane.push_back(Pending { at, seq, ev });
        } else {
            self.queue.push(Pending { at, seq, ev });
        }
    }

    /// Schedule a typed event to fire `delay` after the current instant.
    #[inline]
    pub fn schedule_in(&mut self, delay: SimDuration, ev: W::Event) {
        self.schedule_at(self.now.saturating_add(delay), ev);
    }

    /// Schedule a typed event to fire immediately (after already-queued
    /// events at the current instant).
    #[inline]
    pub fn schedule_now(&mut self, ev: W::Event) {
        self.schedule_at(self.now, ev);
    }

    /// Timestamp of the next pending event, if any. The sharded engine uses
    /// this to compute the global safe window without popping anything.
    #[inline]
    pub fn next_event_at(&self) -> Option<SimTime> {
        match (self.queue.peek(), self.lane.front()) {
            (Some(h), Some(l)) => Some(h.at.min(l.at)),
            (h, l) => h.or(l).map(|p| p.at),
        }
    }

    /// Remove the earliest pending event by `(at, seq)`, from whichever
    /// container holds it.
    #[inline]
    fn pop_next(&mut self) -> Option<Pending<W::Event>> {
        match (self.queue.peek(), self.lane.front()) {
            (Some(h), Some(l)) if h.key() < l.key() => self.queue.pop(),
            (_, Some(_)) => self.lane.pop_front(),
            (_, None) => self.queue.pop(),
        }
    }

    /// Attach a recorder whose virtual clock follows this scheduler.
    pub fn set_recorder(&mut self, rec: grouter_obs::Recorder) {
        rec.set_now(self.now.as_nanos());
        self.rec = rec;
    }

    /// The attached recorder (disabled handle when none was attached).
    pub fn recorder(&self) -> &grouter_obs::Recorder {
        &self.rec
    }

    /// `engine.timeline` (`--features audit`): no pending event lies before
    /// `now`, every stamp was issued by this scheduler's counter, and the
    /// lane is sorted by `(at, seq)`.
    #[cfg(feature = "audit")]
    fn audit_timeline(&self) {
        grouter_audit::record_hit("engine.timeline");
        for (a, b) in self.lane.iter().zip(self.lane.iter().skip(1)) {
            grouter_audit::check("engine.timeline", a.key() < b.key(), || {
                format!(
                    "lane entry (at {}, seq {}) precedes (at {}, seq {})",
                    a.at.as_nanos(),
                    a.seq,
                    b.at.as_nanos(),
                    b.seq
                )
            });
        }
        for p in self.queue.iter().chain(&self.lane) {
            grouter_audit::check(
                "engine.timeline",
                p.at >= self.now && p.seq < self.seq,
                || {
                    format!(
                        "pending event (at {}, seq {}) breaks now {} / next seq {}",
                        p.at.as_nanos(),
                        p.seq,
                        self.now.as_nanos(),
                        self.seq
                    )
                },
            );
        }
    }
}

/// A world plus its scheduler; owns the run loop.
pub struct Simulation<W: EventWorld> {
    pub world: W,
    pub sched: Scheduler<W>,
}

impl<W: EventWorld> Simulation<W> {
    pub fn new(world: W) -> Self {
        Simulation {
            world,
            sched: Scheduler::new(),
        }
    }

    /// Fire the next event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        #[cfg(feature = "audit")]
        if grouter_audit::every("engine.timeline", 64) {
            self.sched.audit_timeline();
        }
        let Some(Pending { at, ev, .. }) = self.sched.pop_next() else {
            return false;
        };
        debug_assert!(at >= self.sched.now);
        self.sched.now = at;
        self.sched.rec.set_now(at.as_nanos());
        self.world.dispatch(&mut self.sched, ev);
        true
    }

    /// Run until the queue drains.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Run until the queue drains or the clock would pass `deadline`.
    ///
    /// Events scheduled exactly at `deadline` still fire. On return the clock
    /// reads `min(deadline, time of last fired event)`.
    pub fn run_until(&mut self, deadline: SimTime) {
        while self.sched.next_event_at().is_some_and(|at| at <= deadline) {
            self.step();
        }
    }

    /// Run until the queue drains or the next event would fire at or after
    /// `bound` (strictly exclusive, unlike [`Simulation::run_until`]).
    ///
    /// This is the primitive the conservative sharded engine needs: a shard
    /// may execute exactly the events with `t < horizon` — the horizon
    /// itself is not safe, because a cross-shard message can land there.
    pub fn run_before(&mut self, bound: SimTime) {
        while self.sched.next_event_at().is_some_and(|at| at < bound) {
            self.step();
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test world: every event logs `(now, label)`; a `Spawn` then schedules
    /// a `Log` child at an absolute time (clamped when in the past).
    #[derive(Default)]
    struct World {
        log: Vec<(u64, &'static str)>,
    }

    enum Ev {
        Log(&'static str),
        Spawn(&'static str, SimTime, &'static str),
    }

    impl EventWorld for World {
        type Event = Ev;
        fn dispatch(&mut self, s: &mut Scheduler<Self>, ev: Ev) {
            let now = s.now().as_nanos();
            match ev {
                Ev::Log(label) => self.log.push((now, label)),
                Ev::Spawn(label, at, child) => {
                    self.log.push((now, label));
                    s.schedule_at(at, Ev::Log(child));
                }
            }
        }
    }

    fn labels(sim: &Simulation<World>) -> Vec<&'static str> {
        sim.world.log.iter().map(|&(_, l)| l).collect()
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Simulation::new(World::default());
        sim.sched.schedule_at(SimTime(30), Ev::Log("c"));
        sim.sched.schedule_at(SimTime(10), Ev::Log("a"));
        sim.sched.schedule_at(SimTime(20), Ev::Log("b"));
        sim.run();
        assert_eq!(sim.world.log, vec![(10, "a"), (20, "b"), (30, "c")]);
        assert_eq!(sim.now(), SimTime(30));
    }

    #[test]
    fn ties_fire_in_schedule_order() {
        let mut sim = Simulation::new(World::default());
        for name in ["first", "second", "third"] {
            sim.sched.schedule_at(SimTime(5), Ev::Log(name));
        }
        sim.run();
        assert_eq!(labels(&sim), vec!["first", "second", "third"]);
    }

    /// Plain `Log` events and `Spawn` events (the typed form of the boxed
    /// closures that once scheduled children) tied at one instant fire in
    /// schedule order, and the children spawned at that instant follow them.
    #[test]
    fn typed_and_boxed_ties_interleave_in_schedule_order() {
        let mut sim = Simulation::new(World::default());
        sim.sched.schedule_at(SimTime(5), Ev::Log("log-1"));
        sim.sched
            .schedule_at(SimTime(5), Ev::Spawn("spawn-2", SimTime(5), "child-2"));
        sim.sched.schedule_at(SimTime(5), Ev::Log("log-3"));
        sim.sched
            .schedule_at(SimTime(5), Ev::Spawn("spawn-4", SimTime(5), "child-4"));
        sim.run();
        assert_eq!(
            labels(&sim),
            vec!["log-1", "spawn-2", "log-3", "spawn-4", "child-2", "child-4"]
        );
    }

    #[test]
    fn events_can_schedule_events() {
        let mut sim = Simulation::new(World::default());
        sim.sched
            .schedule_at(SimTime(10), Ev::Spawn("parent", SimTime(15), "child"));
        sim.run();
        assert_eq!(sim.world.log, vec![(10, "parent"), (15, "child")]);
    }

    #[test]
    fn same_instant_follow_ups_fire_after_queued_ties() {
        // An event firing at t=5 schedules a follow-up at t=5; the follow-up
        // must run after the other already-queued t=5 events (global
        // schedule order).
        let mut sim = Simulation::new(World::default());
        sim.sched
            .schedule_at(SimTime(5), Ev::Spawn("a", SimTime(5), "a-child"));
        sim.sched.schedule_at(SimTime(5), Ev::Log("b"));
        sim.run();
        assert_eq!(labels(&sim), vec!["a", "b", "a-child"]);
    }

    #[test]
    fn past_scheduling_clamps_to_now() {
        let mut sim = Simulation::new(World::default());
        // The child is deliberately scheduled in the past.
        sim.sched
            .schedule_at(SimTime(100), Ev::Spawn("parent", SimTime(1), "clamped"));
        sim.run();
        assert_eq!(sim.world.log, vec![(100, "parent"), (100, "clamped")]);
        assert_eq!(sim.now(), SimTime(100));
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Simulation::new(World::default());
        sim.sched.schedule_at(SimTime(10), Ev::Log("in"));
        sim.sched.schedule_at(SimTime(50), Ev::Log("out"));
        sim.run_until(SimTime(20));
        assert_eq!(sim.world.log, vec![(10, "in")]);
        // the out-of-window event is still pending
        assert_eq!(sim.sched.pending(), 1);
        sim.run();
        assert_eq!(sim.world.log.len(), 2);
    }

    #[test]
    fn run_until_inclusive_of_deadline() {
        let mut sim = Simulation::new(World::default());
        sim.sched.schedule_at(SimTime(20), Ev::Log("edge"));
        sim.run_until(SimTime(20));
        assert_eq!(sim.world.log, vec![(20, "edge")]);
    }

    #[test]
    fn run_before_excludes_the_bound() {
        let mut sim = Simulation::new(World::default());
        sim.sched.schedule_at(SimTime(10), Ev::Log("in"));
        sim.sched.schedule_at(SimTime(20), Ev::Log("edge"));
        sim.run_before(SimTime(20));
        assert_eq!(sim.world.log, vec![(10, "in")]);
        assert_eq!(sim.sched.next_event_at(), Some(SimTime(20)));
    }

    /// The tie-heavy schedule on which the forced boxed mode and the
    /// bucketed timeline were compared still fires in the order both gave:
    /// time first, then schedule order.
    #[test]
    fn forced_boxed_mode_matches_bucketed_ordering() {
        let times = [30u64, 10, 10, 50, 10, 30, 0, 50];
        let names = ["a", "b", "c", "d", "e", "f", "g", "h"];
        let mut sim = Simulation::new(World::default());
        for (&t, &name) in times.iter().zip(&names) {
            sim.sched.schedule_at(SimTime(t), Ev::Log(name));
        }
        sim.run();
        assert_eq!(
            sim.world.log,
            vec![
                (0, "g"),
                (10, "b"),
                (10, "c"),
                (10, "e"),
                (30, "a"),
                (30, "f"),
                (50, "d"),
                (50, "h"),
            ]
        );
    }

    /// Events split across the lane and the heap: the queries and both
    /// bounded runs see the earlier front, whichever container holds it.
    #[test]
    fn queries_and_bounded_runs_span_lane_and_heap() {
        let mut sim = Simulation::new(World::default());
        for (t, name) in [(10, "l10"), (20, "l20"), (40, "l40")] {
            sim.sched.schedule_at(SimTime(t), Ev::Log(name));
        }
        // Before the lane's tail (40): these go onto the heap.
        for (t, name) in [(5, "h5"), (15, "h15"), (20, "h20"), (30, "h30")] {
            sim.sched.schedule_at(SimTime(t), Ev::Log(name));
        }
        assert_eq!((sim.sched.lane.len(), sim.sched.queue.len()), (3, 4));
        assert_eq!(sim.sched.pending(), 7);
        assert_eq!(sim.sched.next_event_at(), Some(SimTime(5)));

        sim.run_before(SimTime(15));
        assert_eq!(labels(&sim), vec!["h5", "l10"]);
        assert_eq!(sim.sched.next_event_at(), Some(SimTime(15)));
        assert_eq!(sim.sched.pending(), 5);

        // The tie at 20: the lane entry was scheduled first, as it always
        // is (the tail never falls, so a later lane entry cannot tie with
        // an earlier heap entry).
        sim.run_until(SimTime(20));
        assert_eq!(labels(&sim), vec!["h5", "l10", "h15", "l20", "h20"]);
        assert_eq!(sim.now(), SimTime(20));
        assert_eq!(sim.sched.next_event_at(), Some(SimTime(30)));
        assert_eq!(sim.sched.pending(), 2);

        // The lane front (40) is now later than the heap front (30).
        sim.run_before(SimTime(40));
        assert_eq!(sim.sched.next_event_at(), Some(SimTime(40)));
        assert_eq!((sim.sched.lane.len(), sim.sched.queue.len()), (1, 0));
        sim.run();
        assert_eq!(
            sim.world.log,
            vec![
                (5, "h5"),
                (10, "l10"),
                (15, "h15"),
                (20, "l20"),
                (20, "h20"),
                (30, "h30"),
                (40, "l40"),
            ]
        );
        assert_eq!(sim.sched.pending(), 0);
        assert_eq!(sim.sched.next_event_at(), None);
    }

    /// The `engine.timeline` audit aborts on a pending event stamped before
    /// `now` or with a sequence number the counter never issued.
    #[cfg(feature = "audit")]
    #[test]
    fn corrupt_heap_entry_fails_the_timeline_audit() {
        // After one event fired at t=10 the counter has issued seq 0 only.
        let audit_with = |at: u64, seq: u64| -> String {
            let mut sim = Simulation::new(World::default());
            sim.sched.schedule_at(SimTime(10), Ev::Log("a"));
            sim.run();
            sim.sched.audit_timeline();
            sim.sched.queue.push(Pending {
                at: SimTime(at),
                seq,
                ev: Ev::Log("corrupt"),
            });
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                sim.sched.audit_timeline();
            }))
            .unwrap_err();
            err.downcast_ref::<String>().cloned().unwrap_or_default()
        };
        let msg = audit_with(5, 0);
        assert!(msg.contains("(at 5, seq 0) breaks now 10"), "{msg}");
        let msg = audit_with(20, 1);
        assert!(
            msg.contains("(at 20, seq 1) breaks now 10 / next seq 1"),
            "{msg}"
        );
    }

    /// The `engine.timeline` audit aborts on a lane that is not sorted by
    /// `(at, seq)`: popping its front would fire a later event first.
    #[cfg(feature = "audit")]
    #[test]
    fn out_of_order_lane_entry_fails_the_timeline_audit() {
        let mut sim = Simulation::new(World::default());
        for (t, name) in [(10, "a"), (20, "b"), (30, "c")] {
            sim.sched.schedule_at(SimTime(t), Ev::Log(name));
        }
        assert_eq!(sim.sched.lane.len(), 3);
        sim.sched.audit_timeline();
        sim.sched.lane.swap(1, 2);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.sched.audit_timeline();
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("lane entry (at 30, seq 2) precedes (at 20, seq 1)"),
            "{msg}"
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    struct W {
        fired: Vec<u64>,
    }

    impl EventWorld for W {
        type Event = ();
        fn dispatch(&mut self, s: &mut Scheduler<Self>, _ev: ()) {
            self.fired.push(s.now().as_nanos());
        }
    }

    /// Every event logs its label when it fires. Its follow-up `(mode,
    /// delta)` schedules one more event from inside `dispatch`: mode 0 at
    /// `now`, 1 at `now - delta` (in the past), 2 at `now + delta`, and any
    /// other mode nothing. Each schedule call is logged with the clamped
    /// time the engine must honour.
    struct Log {
        scheduled: Vec<(u64, u32)>,
        fired: Vec<u32>,
    }

    const LEAF: (u8, u64) = (3, 0);

    impl Log {
        /// Log a schedule call at `at` and hand out the new event's label.
        fn stamp(&mut self, s: &Scheduler<Self>, at: SimTime) -> u32 {
            let label = self.scheduled.len() as u32;
            self.scheduled.push((at.max(s.now()).as_nanos(), label));
            label
        }
    }

    impl EventWorld for Log {
        type Event = (u32, (u8, u64));
        fn dispatch(&mut self, s: &mut Scheduler<Self>, (label, (mode, delta)): Self::Event) {
            self.fired.push(label);
            let now = s.now();
            match mode {
                0 => {
                    let l = self.stamp(s, now);
                    s.schedule_now((l, LEAF));
                }
                1 => {
                    let at = SimTime(now.as_nanos().saturating_sub(delta));
                    let l = self.stamp(s, at);
                    s.schedule_at(at, (l, LEAF));
                }
                2 => {
                    let l = self.stamp(s, now.saturating_add(SimDuration(delta)));
                    s.schedule_in(SimDuration(delta), (l, LEAF));
                }
                _ => {}
            }
        }
    }

    /// Reference model of the bucketed timeline the heap replaced: one FIFO
    /// bucket per timestamp, drained smallest first, with each follow-up
    /// appended to the bucket of its clamped time. Returns the firing order
    /// of labels, handed out in schedule order as `Log::stamp` does.
    fn bucket_model(roots: &[(u64, u8, u64)]) -> Vec<u32> {
        use std::collections::{BTreeMap, VecDeque};
        let mut buckets: BTreeMap<u64, VecDeque<<Log as EventWorld>::Event>> = BTreeMap::new();
        let mut next = 0u32;
        for &(t, mode, delta) in roots {
            buckets
                .entry(t)
                .or_default()
                .push_back((next, (mode, delta)));
            next += 1;
        }
        let mut fired = Vec::new();
        while let Some(mut bucket) = buckets.first_entry() {
            let now = *bucket.key();
            let (label, (mode, delta)) = bucket.get_mut().pop_front().unwrap();
            if bucket.get().is_empty() {
                bucket.remove();
            }
            fired.push(label);
            let at = match mode {
                0 => now,
                1 => now.saturating_sub(delta).max(now),
                2 => now + delta,
                _ => continue,
            };
            buckets.entry(at).or_default().push_back((next, LEAF));
            next += 1;
        }
        fired
    }

    proptest! {
        /// Whatever the schedule order, events fire in nondecreasing time
        /// and the clock never runs backwards.
        #[test]
        fn events_fire_in_nondecreasing_time(
            times in proptest::collection::vec(0u64..10_000, 1..64),
        ) {
            let mut sim = Simulation::new(W { fired: Vec::new() });
            for &t in &times {
                sim.sched.schedule_at(SimTime(t), ());
            }
            sim.run();
            let mut sorted = times.clone();
            sorted.sort_unstable();
            prop_assert_eq!(&sim.world.fired, &sorted);
        }

        /// Chained scheduling (each event schedules a follow-up) terminates
        /// with the clock at the final hop.
        #[test]
        fn chained_events_advance_monotonically(hops in 1u64..50, step in 1u64..1000) {
            struct Chain {
                remaining: u64,
                step: u64,
            }
            impl EventWorld for Chain {
                type Event = ();
                fn dispatch(&mut self, s: &mut Scheduler<Self>, _ev: ()) {
                    if self.remaining > 0 {
                        self.remaining -= 1;
                        let d = SimDuration(self.step);
                        s.schedule_in(d, ());
                    }
                }
            }
            let mut sim = Simulation::new(Chain { remaining: hops, step });
            sim.sched.schedule_at(SimTime::ZERO, ());
            sim.run();
            // The k-th firing happens at k·step; the last event (which sees
            // remaining == 0 and schedules nothing) fires at hops·step.
            prop_assert_eq!(sim.now().as_nanos(), hops * step);
        }

        /// Tie-heavy random schedules, with follow-ups scheduled from inside
        /// `dispatch` at `now`, in the past and ahead, fire exactly in
        /// (clamped time, schedule order): the schedule log stably sorted
        /// by clamped time.
        #[test]
        fn fires_in_clamped_time_then_schedule_order(
            roots in proptest::collection::vec((0u64..16, 0u8..4, 0u64..8), 1..48),
        ) {
            let mut sim = Simulation::new(Log {
                scheduled: Vec::new(),
                fired: Vec::new(),
            });
            for &(t, mode, delta) in &roots {
                let l = sim.world.stamp(&sim.sched, SimTime(t));
                sim.sched.schedule_at(SimTime(t), (l, (mode, delta)));
            }
            sim.run();
            let mut expect = sim.world.scheduled.clone();
            expect.sort_by_key(|&(at, _)| at);
            let expect: Vec<u32> = expect.into_iter().map(|(_, label)| label).collect();
            prop_assert_eq!(&sim.world.fired, &expect);
        }

        /// Long ascending runs, which land in the lane, mixed with runs that
        /// start below the lane's tail (heap inserts), partial runs that
        /// drain the lane between segments, and follow-ups scheduled from
        /// `dispatch`: events fire in the schedule log stably sorted by
        /// clamped time, i.e. in `(at, seq)` order.
        #[test]
        fn lane_and_heap_fire_in_clamped_time_then_schedule_order(
            segments in proptest::collection::vec(
                (
                    0u64..4_000,
                    proptest::collection::vec((0u64..4, 0u8..5, 0u64..64), 1..64),
                    // A partial run to this time; none from 4,000 on.
                    0u64..8_000,
                ),
                1..8,
            ),
        ) {
            let mut sim = Simulation::new(Log {
                scheduled: Vec::new(),
                fired: Vec::new(),
            });
            let mut longest_lane = 0;
            for (base, run, stop) in &segments {
                let mut t = *base;
                for &(step, mode, delta) in run {
                    t += step;
                    let l = sim.world.stamp(&sim.sched, SimTime(t));
                    sim.sched.schedule_at(SimTime(t), (l, (mode, delta)));
                    longest_lane = longest_lane.max(sim.sched.lane.len());
                }
                if *stop < 4_000 {
                    sim.run_until(SimTime(*stop));
                }
            }
            // The first segment is ascending and meets an empty lane.
            prop_assert!(longest_lane >= segments[0].1.len());
            sim.run();
            let mut expect = sim.world.scheduled.clone();
            expect.sort_by_key(|&(at, _)| at);
            let expect: Vec<u32> = expect.into_iter().map(|(_, label)| label).collect();
            prop_assert_eq!(&sim.world.fired, &expect);
        }

        /// The heap, keyed by `(at, seq)` as the boxed heap was, fires
        /// tie-heavy schedules with follow-ups in the same order as the
        /// bucketed timeline model.
        #[test]
        fn bucketed_equals_boxed_heap(
            roots in proptest::collection::vec((0u64..16, 0u8..4, 0u64..8), 1..48),
        ) {
            let mut sim = Simulation::new(Log {
                scheduled: Vec::new(),
                fired: Vec::new(),
            });
            for &(t, mode, delta) in &roots {
                let l = sim.world.stamp(&sim.sched, SimTime(t));
                sim.sched.schedule_at(SimTime(t), (l, (mode, delta)));
            }
            sim.run();
            prop_assert_eq!(&sim.world.fired, &bucket_model(&roots));
        }
    }
}
