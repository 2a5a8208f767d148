//! # grouter-obs — deterministic, virtual-time observability
//!
//! A zero-dependency structured-event subsystem for the GROUTER data plane.
//! Components emit *typed events* — spans (begin/end pairs) and instants —
//! tagged with correlation ids (data-op, flow, workflow instance) into a
//! bounded ring-buffer **flight recorder**, plus per-component counters and
//! log-bucketed histograms. A drained [`Trace`] snapshot can be queried
//! in-process ([`Trace::events_for_flow`], [`Trace::spans_overlapping`]) or
//! exported as Chrome `trace_event` JSON (loadable in `chrome://tracing` /
//! Perfetto) and a compact CSV summary.
//!
//! ## Determinism contract
//!
//! All timestamps are **virtual nanoseconds** mirrored from the simulation
//! clock ([`Recorder::set_now`], driven by `grouter_sim::Simulation::step`);
//! nothing in this crate reads wall-clock time. Event sequence numbers are
//! assigned in emit order, ring eviction is FIFO, and every exporter
//! iterates `BTreeMap`s — so same-seed, same-config runs produce
//! **byte-identical** exports. Traces are diffable CI artifacts.
//!
//! ## Cost model
//!
//! [`Recorder`] is a cheap cloneable handle. Tracing is runtime-switchable
//! per component via an atomic bitmask: a *disabled* emit is one relaxed
//! atomic load and a branch (measured ≤3% on the 1k-flow FlowNet churn
//! scenario — see `BENCH_obs.json`), and a fully detached handle
//! ([`Recorder::disabled`]) is a `None` check. Hot paths must pre-check
//! [`Recorder::on`] before building argument vectors.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

pub mod export;

/// The subsystem a trace event originates from. Doubles as the Chrome-trace
/// track (`tid`) and the bit position in the runtime enable mask.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
#[repr(u8)]
pub enum Comp {
    /// Discrete-event scheduler (`grouter-sim::engine`).
    Sim = 0,
    /// Flow-level network model (`grouter-sim::flownet`).
    Net = 1,
    /// Path enumeration / cache (`grouter-topology`).
    Topo = 2,
    /// GPU memory pools and pre-warm scalers (`grouter-mem`).
    Mem = 3,
    /// Object store (`grouter-store`).
    Store = 4,
    /// Transfer engine legs and chunk batches (`grouter-transfer`).
    Transfer = 5,
    /// Workflow runtime: stage dispatch, queue waits (`grouter-runtime`).
    Runtime = 6,
    /// Data-plane policy decisions (`grouter-core`).
    Plane = 7,
    /// Fault injection and recovery waves (`grouter-runtime::fault`).
    Fault = 8,
    /// Control plane: router admission/routing decisions and worker
    /// heartbeats (`grouter-ctl` over `grouter-runtime::cluster`).
    Ctl = 9,
    /// LLM serving: prefill/decode disaggregation, KV block lifecycle and
    /// token-stream progress (`grouter-llm`).
    Llm = 10,
}

/// All components, in `tid` order. Keep in sync with [`Comp`].
pub const COMPONENTS: [Comp; 11] = [
    Comp::Sim,
    Comp::Net,
    Comp::Topo,
    Comp::Mem,
    Comp::Store,
    Comp::Transfer,
    Comp::Runtime,
    Comp::Plane,
    Comp::Fault,
    Comp::Ctl,
    Comp::Llm,
];

impl Comp {
    /// Bit in the runtime enable mask.
    #[inline]
    pub const fn bit(self) -> u32 {
        1 << (self as u8)
    }

    /// Short lowercase label used as the Chrome-trace category and the CSV
    /// component column.
    pub const fn label(self) -> &'static str {
        match self {
            Comp::Sim => "sim",
            Comp::Net => "net",
            Comp::Topo => "topo",
            Comp::Mem => "mem",
            Comp::Store => "store",
            Comp::Transfer => "transfer",
            Comp::Runtime => "runtime",
            Comp::Plane => "plane",
            Comp::Fault => "fault",
            Comp::Ctl => "ctl",
            Comp::Llm => "llm",
        }
    }
}

/// Enable mask covering every component.
pub const MASK_ALL: u32 = (1 << COMPONENTS.len()) - 1;
/// Default mask: only recovery/fault events, which back the runtime's
/// `recovery_log` view and must survive with tracing "off".
pub const MASK_FAULT_ONLY: u32 = Comp::Fault.bit();

/// A typed event argument value.
#[derive(Clone, Debug, PartialEq)]
pub enum Val {
    U64(u64),
    I64(i64),
    /// Rendered with `format_f64` (shortest round-trip-stable form) so
    /// exports stay byte-identical across runs.
    F64(f64),
    Str(String),
    Bool(bool),
}

impl From<u64> for Val {
    fn from(v: u64) -> Self {
        Val::U64(v)
    }
}
impl From<usize> for Val {
    fn from(v: usize) -> Self {
        Val::U64(v as u64)
    }
}
impl From<u32> for Val {
    fn from(v: u32) -> Self {
        Val::U64(u64::from(v))
    }
}
impl From<i64> for Val {
    fn from(v: i64) -> Self {
        Val::I64(v)
    }
}
impl From<f64> for Val {
    fn from(v: f64) -> Self {
        Val::F64(v)
    }
}
impl From<bool> for Val {
    fn from(v: bool) -> Self {
        Val::Bool(v)
    }
}
impl From<&str> for Val {
    fn from(v: &str) -> Self {
        Val::Str(v.to_string())
    }
}
impl From<String> for Val {
    fn from(v: String) -> Self {
        Val::Str(v)
    }
}

/// Correlation ids attaching an event to data-plane entities. All optional;
/// [`Ids::NONE`] for purely structural events.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ids {
    /// Data-op id (`runtime` op table key).
    pub op: Option<u64>,
    /// `FlowNet` flow id.
    pub flow: Option<u64>,
    /// Workflow instance id.
    pub inst: Option<u64>,
}

impl Ids {
    pub const NONE: Ids = Ids {
        op: None,
        flow: None,
        inst: None,
    };

    pub fn op(op: u64) -> Ids {
        Ids {
            op: Some(op),
            ..Ids::NONE
        }
    }

    pub fn flow(flow: u64) -> Ids {
        Ids {
            flow: Some(flow),
            ..Ids::NONE
        }
    }

    pub fn inst(inst: u64) -> Ids {
        Ids {
            inst: Some(inst),
            ..Ids::NONE
        }
    }

    pub fn with_flow(mut self, flow: u64) -> Ids {
        self.flow = Some(flow);
        self
    }

    pub fn with_inst(mut self, inst: u64) -> Ids {
        self.inst = Some(inst);
        self
    }
}

/// Event phase, mirroring the Chrome `trace_event` `ph` field.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    /// Span begin (`ph:"b"` async begin; paired by span id).
    Begin,
    /// Span end (`ph:"e"`).
    End,
    /// Instant event (`ph:"i"`).
    Instant,
}

/// One recorded event.
#[derive(Clone, Debug)]
pub struct Event {
    /// Virtual time, nanoseconds.
    pub t_ns: u64,
    /// Emit-order sequence number (total order within a recorder).
    pub seq: u64,
    pub comp: Comp,
    pub name: &'static str,
    pub phase: Phase,
    /// Non-zero for [`Phase::Begin`]/[`Phase::End`]; pairs the two halves.
    pub span: u64,
    pub ids: Ids,
    pub args: Vec<(&'static str, Val)>,
}

/// Log2-bucketed histogram over `u64` samples (latency ns, bytes).
///
/// Bucket `b` holds values in `[2^(b-1)+1, 2^b]` (bucket 0 holds zero), so
/// quantile readout is exact to within one power of two and — because the
/// readout walks fixed integer bucket counts — perfectly deterministic.
#[derive(Clone, Debug)]
pub struct Hist {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
        }
    }
}

impl Hist {
    #[inline]
    fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    pub fn min(&self) -> u64 {
        self.min
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    /// Upper bound of the bucket containing the `q`-quantile sample
    /// (`q` in `[0, 1]`), clamped to the observed max. Returns `None` when
    /// empty. `quantile(0.5)` is the p50 readout, `quantile(0.99)` the p99.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target sample, 1-based; ceil without float rounding
        // surprises at the boundaries.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let hi = if b == 0 { 0 } else { 1u64 << b };
                return Some(hi.min(self.max).max(self.min));
            }
        }
        Some(self.max)
    }
}

/// Aggregates owned by the recorder, keyed `(component, name)`.
#[derive(Clone, Debug, Default)]
pub struct Stats {
    pub counters: BTreeMap<(Comp, &'static str), u64>,
    pub hists: BTreeMap<(Comp, &'static str), Hist>,
}

struct State {
    ring: VecDeque<Event>,
    cap: usize,
    /// Events evicted from the ring (FIFO) because it was full.
    dropped: u64,
    next_seq: u64,
    next_span: u64,
    /// Open spans: id → (comp, name, begin ns). Checked at drain time by the
    /// `obs.spans_balanced` auditor.
    live: BTreeMap<u64, (Comp, &'static str, u64)>,
    stats: Stats,
}

struct Inner {
    mask: AtomicU32,
    clock_ns: AtomicU64,
    state: Mutex<State>,
}

/// A drained, immutable snapshot of the flight recorder: the event ring in
/// `(t_ns, seq)` order plus counter/histogram aggregates. All queries and
/// exporters live here so the recorder lock is never held across I/O.
#[derive(Clone, Debug)]
pub struct Trace {
    pub events: Vec<Event>,
    pub stats: Stats,
    /// Events evicted by ring-buffer wrap before this snapshot.
    pub dropped: u64,
}

/// A reconstructed span (paired begin/end) returned by
/// [`Trace::spans_overlapping`].
#[derive(Clone, Debug)]
pub struct SpanView<'a> {
    pub begin: &'a Event,
    /// `None` when the end half was evicted or the span was still open.
    pub end: Option<&'a Event>,
    pub t0_ns: u64,
    /// End instant; open spans extend to the snapshot horizon (max event t).
    pub t1_ns: u64,
}

impl Trace {
    /// Every event correlated with `flow`, in `(t_ns, seq)` order.
    pub fn events_for_flow(&self, flow: u64) -> Vec<&Event> {
        self.events
            .iter()
            .filter(|e| e.ids.flow == Some(flow))
            .collect()
    }

    /// Events with the given name, in order.
    pub fn events_named(&self, name: &str) -> Vec<&Event> {
        self.events.iter().filter(|e| e.name == name).collect()
    }

    /// Spans whose `[t0, t1]` interval intersects `[from_ns, to_ns]`
    /// (inclusive). Spans whose begin was evicted from the ring are not
    /// reconstructable and are skipped; open spans extend to the snapshot
    /// horizon.
    pub fn spans_overlapping(&self, from_ns: u64, to_ns: u64) -> Vec<SpanView<'_>> {
        let horizon = self.events.last().map(|e| e.t_ns).unwrap_or(0);
        let mut ends: BTreeMap<u64, &Event> = BTreeMap::new();
        for e in &self.events {
            if e.phase == Phase::End {
                ends.insert(e.span, e);
            }
        }
        let mut out = Vec::new();
        for e in &self.events {
            if e.phase != Phase::Begin {
                continue;
            }
            let end = ends.get(&e.span).copied();
            let t1 = end.map(|x| x.t_ns).unwrap_or(horizon);
            if e.t_ns <= to_ns && t1 >= from_ns {
                out.push(SpanView {
                    begin: e,
                    end,
                    t0_ns: e.t_ns,
                    t1_ns: t1,
                });
            }
        }
        out
    }

    /// Counter value, 0 when never incremented.
    pub fn counter(&self, comp: Comp, name: &str) -> u64 {
        self.stats
            .counters
            .iter()
            .find(|((c, n), _)| *c == comp && *n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Histogram readout, if any samples were recorded.
    pub fn hist(&self, comp: Comp, name: &str) -> Option<&Hist> {
        self.stats
            .hists
            .iter()
            .find(|((c, n), _)| *c == comp && *n == name)
            .map(|(_, h)| h)
    }
}

/// Cheap cloneable handle to the flight recorder. `Recorder::disabled()`
/// carries no allocation at all; emit calls on it are a `None` check.
#[derive(Clone)]
pub struct Recorder(Option<Arc<Inner>>);

/// A disabled recorder for code that needs `&Recorder` with no recorder of
/// its own to borrow.
pub static DISABLED: Recorder = Recorder::disabled();

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            None => write!(f, "Recorder(disabled)"),
            Some(i) => write!(f, "Recorder(mask={:#x})", i.mask.load(Ordering::Relaxed)),
        }
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::disabled()
    }
}

impl Recorder {
    /// A detached handle: every call is a no-op after a `None` check.
    pub const fn disabled() -> Recorder {
        Recorder(None)
    }

    /// A recorder with a ring of `cap` events and the given component mask
    /// (see [`MASK_ALL`], [`MASK_FAULT_ONLY`]).
    pub fn with_mask(cap: usize, mask: u32) -> Recorder {
        Recorder(Some(Arc::new(Inner {
            mask: AtomicU32::new(mask),
            clock_ns: AtomicU64::new(0),
            state: Mutex::new(State {
                ring: VecDeque::new(),
                cap: cap.max(1),
                dropped: 0,
                next_seq: 0,
                next_span: 0,
                live: BTreeMap::new(),
                stats: Stats::default(),
            }),
        })))
    }

    /// A fully enabled recorder.
    pub fn enabled(cap: usize) -> Recorder {
        Recorder::with_mask(cap, MASK_ALL)
    }

    /// True when events from `comp` are currently recorded. Hot paths call
    /// this before building argument vectors.
    #[inline]
    pub fn on(&self, comp: Comp) -> bool {
        match &self.0 {
            None => false,
            Some(i) => i.mask.load(Ordering::Relaxed) & comp.bit() != 0,
        }
    }

    pub fn mask(&self) -> u32 {
        match &self.0 {
            None => 0,
            Some(i) => i.mask.load(Ordering::Relaxed),
        }
    }

    /// Advance the virtual clock. Called by the simulation engine before
    /// dispatching each event; standalone users (benches, tests) may drive
    /// it directly.
    #[inline]
    pub fn set_now(&self, t_ns: u64) {
        if let Some(i) = &self.0 {
            i.clock_ns.store(t_ns, Ordering::Relaxed);
        }
    }

    /// Current virtual time in nanoseconds.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        match &self.0 {
            None => 0,
            Some(i) => i.clock_ns.load(Ordering::Relaxed),
        }
    }

    fn push(state: &mut State, ev: Event) {
        if state.ring.len() == state.cap {
            state.ring.pop_front();
            state.dropped += 1;
        }
        state.ring.push_back(ev);
    }

    /// Record an instant event at the recorder's current virtual time.
    pub fn instant(
        &self,
        comp: Comp,
        name: &'static str,
        ids: Ids,
        args: Vec<(&'static str, Val)>,
    ) {
        let t_ns = self.now_ns();
        self.instant_at(t_ns, comp, name, ids, args);
    }

    /// Record an instant event at an explicit virtual time — for callers
    /// that carry `now` themselves (e.g. fault handlers driven outside a
    /// `Simulation`, where the recorder clock may not be synced).
    pub fn instant_at(
        &self,
        t_ns: u64,
        comp: Comp,
        name: &'static str,
        ids: Ids,
        args: Vec<(&'static str, Val)>,
    ) {
        let Some(i) = &self.0 else { return };
        if i.mask.load(Ordering::Relaxed) & comp.bit() == 0 {
            return;
        }
        let mut st = i.state.lock().unwrap();
        let seq = st.next_seq;
        st.next_seq += 1;
        Self::push(
            &mut st,
            Event {
                t_ns,
                seq,
                comp,
                name,
                phase: Phase::Instant,
                span: 0,
                ids,
                args,
            },
        );
    }

    /// Open a span; returns its id (0 when not recorded). Pass the id to
    /// [`Recorder::end`]; `end(0, ..)` is a no-op, so callers need no
    /// enabled-state bookkeeping of their own.
    #[must_use]
    pub fn begin(
        &self,
        comp: Comp,
        name: &'static str,
        ids: Ids,
        args: Vec<(&'static str, Val)>,
    ) -> u64 {
        let Some(i) = &self.0 else { return 0 };
        if i.mask.load(Ordering::Relaxed) & comp.bit() == 0 {
            return 0;
        }
        let t_ns = i.clock_ns.load(Ordering::Relaxed);
        let mut st = i.state.lock().unwrap();
        st.next_span += 1;
        let span = st.next_span;
        let seq = st.next_seq;
        st.next_seq += 1;
        #[cfg(feature = "audit")]
        grouter_audit::check("obs.spans_balanced", !st.live.contains_key(&span), || {
            format!("span id {span} reused while open")
        });
        st.live.insert(span, (comp, name, t_ns));
        Self::push(
            &mut st,
            Event {
                t_ns,
                seq,
                comp,
                name,
                phase: Phase::Begin,
                span,
                ids,
                args,
            },
        );
        span
    }

    /// Close a span opened by [`Recorder::begin`]. The span's duration is
    /// also recorded into the `(comp, name)` latency histogram.
    pub fn end(&self, span: u64, args: Vec<(&'static str, Val)>) {
        if span == 0 {
            return;
        }
        let Some(i) = &self.0 else { return };
        let t_ns = i.clock_ns.load(Ordering::Relaxed);
        let mut st = i.state.lock().unwrap();
        let Some((comp, name, t0)) = st.live.remove(&span) else {
            return;
        };
        let seq = st.next_seq;
        st.next_seq += 1;
        st.stats
            .hists
            .entry((comp, name))
            .or_default()
            .record(t_ns.saturating_sub(t0));
        Self::push(
            &mut st,
            Event {
                t_ns,
                seq,
                comp,
                name,
                phase: Phase::End,
                span,
                ids: Ids::NONE,
                args,
            },
        );
    }

    /// Add `delta` to the `(comp, name)` counter (subject to the mask).
    pub fn count(&self, comp: Comp, name: &'static str, delta: u64) {
        let Some(i) = &self.0 else { return };
        if i.mask.load(Ordering::Relaxed) & comp.bit() == 0 {
            return;
        }
        let mut st = i.state.lock().unwrap();
        *st.stats.counters.entry((comp, name)).or_insert(0) += delta;
    }

    /// Record a sample (latency ns, bytes, ...) into the `(comp, name)`
    /// histogram (subject to the mask).
    pub fn sample(&self, comp: Comp, name: &'static str, v: u64) {
        let Some(i) = &self.0 else { return };
        if i.mask.load(Ordering::Relaxed) & comp.bit() == 0 {
            return;
        }
        let mut st = i.state.lock().unwrap();
        st.stats.hists.entry((comp, name)).or_default().record(v);
    }

    /// Clone out a snapshot without draining the ring.
    pub fn snapshot(&self) -> Trace {
        match &self.0 {
            None => Trace {
                events: Vec::new(),
                stats: Stats::default(),
                dropped: 0,
            },
            Some(i) => {
                let st = i.state.lock().unwrap();
                Trace {
                    events: st.ring.iter().cloned().collect(),
                    stats: st.stats.clone(),
                    dropped: st.dropped,
                }
            }
        }
    }

    /// Drain the ring into a [`Trace`], leaving counters/histograms in
    /// place. Drain time is when span balance is checked: under the `audit`
    /// feature the `obs.spans_balanced` checker fires, panicking if any span
    /// is still open (every begin must have had a matching end).
    pub fn drain(&self) -> Trace {
        match &self.0 {
            None => Trace {
                events: Vec::new(),
                stats: Stats::default(),
                dropped: 0,
            },
            Some(i) => {
                let mut st = i.state.lock().unwrap();
                #[cfg(feature = "audit")]
                grouter_audit::check("obs.spans_balanced", st.live.is_empty(), || {
                    let mut names: Vec<String> = st
                        .live
                        .values()
                        .map(|(c, n, t)| format!("{}.{n}@{t}ns", c.label()))
                        .collect();
                    names.truncate(8);
                    format!(
                        "{} span(s) still open at drain: {}",
                        st.live.len(),
                        names.join(", ")
                    )
                });
                let events: Vec<Event> = st.ring.drain(..).collect();
                let dropped = st.dropped;
                st.dropped = 0;
                Trace {
                    events,
                    stats: st.stats.clone(),
                    dropped,
                }
            }
        }
    }
}

/// Deterministic shortest-form rendering for `f64` values in exports.
/// Rust's `{}` float formatting is shortest-round-trip and stable across
/// runs and platforms for the same bit pattern.
pub fn format_f64(v: f64) -> String {
    if v.is_nan() {
        "\"NaN\"".to_string()
    } else if v.is_infinite() {
        if v > 0.0 {
            "\"inf\"".to_string()
        } else {
            "\"-inf\"".to_string()
        }
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let r = Recorder::disabled();
        assert!(!r.on(Comp::Net));
        let sp = r.begin(Comp::Net, "x", Ids::NONE, vec![]);
        assert_eq!(sp, 0);
        r.end(sp, vec![]);
        r.instant(Comp::Net, "y", Ids::NONE, vec![]);
        r.count(Comp::Net, "c", 3);
        assert!(r.drain().events.is_empty());
    }

    #[test]
    fn mask_gates_components() {
        let r = Recorder::with_mask(16, Comp::Fault.bit());
        assert!(r.on(Comp::Fault));
        assert!(!r.on(Comp::Net));
        r.instant(Comp::Net, "dropped", Ids::NONE, vec![]);
        r.instant(Comp::Fault, "kept", Ids::NONE, vec![]);
        let t = r.drain();
        assert_eq!(t.events.len(), 1);
        assert_eq!(t.events[0].name, "kept");
    }

    #[test]
    fn spans_pair_and_record_latency() {
        let r = Recorder::enabled(16);
        r.set_now(1_000);
        let sp = r.begin(
            Comp::Transfer,
            "leg",
            Ids::flow(7),
            vec![("bytes", 64u64.into())],
        );
        assert_ne!(sp, 0);
        r.set_now(4_000);
        r.end(sp, vec![]);
        let t = r.drain();
        assert_eq!(t.events.len(), 2);
        assert_eq!(t.events[0].phase, Phase::Begin);
        assert_eq!(t.events[1].phase, Phase::End);
        assert_eq!(t.events[0].span, t.events[1].span);
        let h = t.hist(Comp::Transfer, "leg").unwrap();
        assert_eq!(h.count(), 1);
        // 3000 ns lands in bucket (4096]; readout clamps to observed max.
        assert_eq!(h.quantile(0.5), Some(3_000));
    }

    #[test]
    fn ring_evicts_fifo_and_counts_drops() {
        let r = Recorder::enabled(4);
        for k in 0..10u64 {
            r.set_now(k);
            r.instant(Comp::Sim, "tick", Ids::NONE, vec![("k", k.into())]);
        }
        let t = r.drain();
        assert_eq!(t.events.len(), 4);
        assert_eq!(t.dropped, 6);
        assert_eq!(t.events[0].t_ns, 6);
        let r2 = Recorder::enabled(4);
        for _ in 0..10u64 {
            r2.instant(Comp::Sim, "tick", Ids::NONE, vec![]);
        }
        assert_eq!(r2.snapshot().dropped, 6);
    }

    #[test]
    fn queries_filter_by_ids_and_window() {
        let r = Recorder::enabled(64);
        r.set_now(10);
        let a = r.begin(Comp::Transfer, "leg", Ids::flow(1), vec![]);
        r.set_now(20);
        let b = r.begin(Comp::Transfer, "leg", Ids::flow(2), vec![]);
        r.set_now(30);
        r.end(a, vec![]);
        r.set_now(40);
        r.end(b, vec![]);
        r.instant(Comp::Net, "wave", Ids::flow(2), vec![]);
        let t = r.drain();
        assert_eq!(t.events_for_flow(1).len(), 1);
        assert_eq!(t.events_for_flow(2).len(), 2);
        let spans = t.spans_overlapping(25, 35);
        assert_eq!(spans.len(), 2); // [10,30] and [20,40] both intersect
        let spans = t.spans_overlapping(31, 35);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].t0_ns, 20);
        assert_eq!(spans[0].t1_ns, 40);
    }

    #[test]
    fn hist_quantiles_are_deterministic() {
        let mut h = Hist::default();
        for v in [1u64, 2, 3, 100, 1000, 100_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 100_000);
        let p50 = h.quantile(0.5).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        assert!(p50 <= p99);
        assert_eq!(h.quantile(0.0), Some(2)); // bucket upper bound for value 1
        assert_eq!(h.quantile(1.0), Some(100_000));
        // Zero handling: bucket 0.
        let mut z = Hist::default();
        z.record(0);
        assert_eq!(z.quantile(0.5), Some(0));
    }

    #[test]
    fn counters_accumulate() {
        let r = Recorder::enabled(4);
        r.count(Comp::Topo, "cache_hit", 1);
        r.count(Comp::Topo, "cache_hit", 2);
        r.count(Comp::Topo, "cache_miss", 1);
        let t = r.snapshot();
        assert_eq!(t.counter(Comp::Topo, "cache_hit"), 3);
        assert_eq!(t.counter(Comp::Topo, "cache_miss"), 1);
        assert_eq!(t.counter(Comp::Topo, "absent"), 0);
    }
}
