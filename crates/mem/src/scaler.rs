//! Histogram-based pool pre-warming (paper §4.4.1, Fig. 11a).
//!
//! For each function the scaler tracks sliding-window 99th percentiles of:
//!
//! * `R_window` — request inter-arrival time: how long after the last
//!   request memory should stay reserved;
//! * `R_size` — intermediate (output) data size;
//! * `R_con` — data accumulation / concurrency in the store.
//!
//! After each execution the function's share of the pool is
//! `Data_size = R_size · R_con`, held while `now < last_request + R_window`;
//! the total target is the sum over currently active functions
//! (`MemPool_size = Σ Data_size · 1{window overlaps now}`), floored at the
//! minimum pool.
//!
//! The target costs what changed since the last one. Each requested
//! function caches the first nanosecond it goes idle, so the walk over
//! functions compares integers; the walk's sum is cached until the
//! earliest of those instants among the functions it counted. Only a
//! request for a function the sum does not count, a counted function's
//! `R_size · R_con` changing bits, or [`PrewarmScaler::quarantine`] drops
//! the sum; a counted function's request folds its new idle instant in. A
//! scaler nobody asks for a target never builds the sum.

use std::collections::BTreeMap;

use grouter_sim::params;
use grouter_sim::stats::WindowedPercentile;
use grouter_sim::time::{SimDuration, SimTime};

/// Samples remembered per function per signal.
const WINDOW: usize = 256;

/// `R_window` before any interval is known, in seconds.
const DEFAULT_WINDOW_S: f64 = 1.0;

/// One function's histories on this GPU and its outputs not yet consumed.
#[derive(Debug)]
struct FuncStats {
    interval_s: WindowedPercentile,
    size_bytes: WindowedPercentile,
    concurrency: WindowedPercentile,
    live_outputs: u32,
}

impl FuncStats {
    fn new() -> FuncStats {
        FuncStats {
            interval_s: WindowedPercentile::new(WINDOW),
            size_bytes: WindowedPercentile::new(WINDOW),
            concurrency: WindowedPercentile::new(WINDOW),
            live_outputs: 0,
        }
    }

    /// `R_window` in seconds; a conservative default before any history.
    fn window_s(&mut self) -> f64 {
        self.interval_s.p99().unwrap_or(DEFAULT_WINDOW_S)
    }
}

/// The longest gap after a request, in nanoseconds, that a window of
/// `window_s` seconds still covers: the largest `d` with
/// `SimDuration(d).as_secs_f64() <= window_s`, or `None` when not even a
/// zero gap is (a negative or NaN window). The test is monotone in `d`, so
/// the answer is a bisection; `window_s · 1e9` brackets it to within a
/// nanosecond or two wherever `d` is exact in an `f64`.
fn covered_gap(window_s: f64) -> Option<u64> {
    let covers = |d: u64| SimDuration(d).as_secs_f64() <= window_s;
    if !covers(0) {
        return None;
    }
    if covers(u64::MAX) {
        return Some(u64::MAX);
    }
    let guess = (window_s * 1e9) as u64;
    let (near_lo, near_hi) = (guess.saturating_sub(1), guess.saturating_add(2));
    let (mut lo, mut hi) = if covers(near_lo) && !covers(near_hi) {
        (near_lo, near_hi)
    } else {
        (0, u64::MAX)
    };
    // covers(lo) && !covers(hi)
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if covers(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(lo)
}

/// A function with at least one recorded request: the only kind that can
/// be active, so the only kind the target sums over. Its idle instant and
/// `R_size · R_con` are cached until a request or an output changes them.
#[derive(Debug)]
struct Requested {
    stats: FuncStats,
    last_request: SimTime,
    idle_at: Option<SimTime>,
    reservation: Option<f64>,
    /// Whether the scaler's cached demand counts this function; meaningful
    /// only while that demand exists.
    counted: bool,
}

impl Requested {
    /// `R_size · R_con` — the reservation while the function is active.
    fn reservation(&mut self) -> f64 {
        let s = &mut self.stats;
        *self.reservation.get_or_insert_with(|| {
            let size = s.size_bytes.p99().unwrap_or(0.0);
            let con = s.concurrency.p99().unwrap_or(1.0).max(1.0);
            size * con
        })
    }

    /// The first instant at which the function is idle: it is active at
    /// `now` exactly when `now < idle_at`, i.e. when the gap since its
    /// last request (zero before it) is at most `R_window`.
    /// [`SimTime::MAX`] stands for never, as elsewhere in the simulator.
    fn idle_at(&mut self) -> SimTime {
        let (stats, last) = (&mut self.stats, self.last_request);
        *self
            .idle_at
            .get_or_insert_with(|| match covered_gap(stats.window_s()) {
                Some(gap) => SimTime(last.0.saturating_add(gap).saturating_add(1)),
                None => SimTime::ZERO,
            })
    }
}

/// The last walk's demand (`Σ R_size·R_con` over the functions it
/// counted), exact for every `now` in `from..until`.
#[derive(Clone, Copy, Debug)]
struct Demand {
    bytes: f64,
    from: SimTime,
    until: SimTime,
}

/// Per-GPU pre-warm estimator across all functions that store data there.
///
/// Functions that only produced outputs here (a stage re-placed by fault
/// recovery, or an LLM request's KV blocks) live apart from requested ones
/// until their first request arrives, so the target walks only functions
/// that can be active, or until [`PrewarmScaler::forget`] drops them.
#[derive(Debug, Default)]
pub struct PrewarmScaler {
    requested: BTreeMap<u64, Requested>,
    producers: BTreeMap<u64, FuncStats>,
    demand: Option<Demand>,
}

impl PrewarmScaler {
    pub fn new() -> PrewarmScaler {
        Self::default()
    }

    /// Record a request arrival for `func` (feeds `R_window`).
    pub fn on_request(&mut self, func: u64, now: SimTime) {
        if let Some(r) = self.requested.get_mut(&func) {
            r.stats
                .interval_s
                .record((now - r.last_request.min(now)).as_secs_f64());
            r.last_request = now;
            r.idle_at = None;
            if let Some(d) = self.demand.as_mut().filter(|_| r.counted) {
                // Counted and still active: the sum holds until it idles.
                d.until = d.until.min(r.idle_at());
            } else {
                self.demand = None;
            }
            return;
        }
        let stats = self.producers.remove(&func).unwrap_or_else(FuncStats::new);
        self.requested.insert(
            func,
            Requested {
                stats,
                last_request: now,
                idle_at: None,
                reservation: None,
                counted: false,
            },
        );
        self.demand = None;
    }

    /// Record that `func` produced an output of `bytes` (feeds `R_size` and,
    /// via the live-output count, `R_con`).
    pub fn on_output(&mut self, func: u64, bytes: f64) {
        let Some(r) = self.requested.get_mut(&func) else {
            let stats = self.producers.entry(func).or_insert_with(FuncStats::new);
            record_output(stats, bytes);
            return;
        };
        record_output(&mut r.stats, bytes);
        let before = r.reservation.take();
        if r.counted && self.demand.is_some() {
            let after = r.reservation();
            if before.map(f64::to_bits) != Some(after.to_bits()) {
                self.demand = None;
            }
        }
    }

    /// Record that one of `func`'s outputs was consumed/deleted.
    pub fn on_consumed(&mut self, func: u64) {
        let stats = match self.requested.get_mut(&func) {
            Some(r) => &mut r.stats,
            None => self.producers.entry(func).or_insert_with(FuncStats::new),
        };
        stats.live_outputs = stats.live_outputs.saturating_sub(1);
    }

    /// Drop producer-only `func` and its history once all of its outputs
    /// are consumed: the caller promises `func` will neither produce nor be
    /// requested here again (an LLM request that left its group). A
    /// function with live outputs stays, so the leak check still sees it,
    /// and a requested one is never dropped. The scaler does not prune at
    /// zero on its own: a re-placed stage's history must survive until its
    /// first request here.
    pub fn forget(&mut self, func: u64) {
        if self
            .producers
            .get(&func)
            .is_some_and(|s| s.live_outputs == 0)
        {
            self.producers.remove(&func);
        }
    }

    /// The pool size the GPU should hold at `now`:
    /// `max(Σ_active R_size·R_con, MIN_POOL_BYTES)`.
    pub fn target_bytes(&mut self, now: SimTime) -> f64 {
        let demand = match self.demand {
            Some(d) if d.from <= now && now < d.until => d.bytes,
            _ => self.walk(now),
        };
        #[cfg(feature = "audit")]
        if grouter_audit::every("scaler.demand", 16) {
            let full = self.uncached_demand(now);
            grouter_audit::check("scaler.demand", demand == full, || {
                format!("cached pre-warm demand {demand} at {now:?}, full walk {full}")
            });
        }
        let target = demand.max(params::MIN_POOL_BYTES);
        #[cfg(feature = "audit")]
        grouter_audit::check(
            "scaler.floor",
            target.is_finite() && target >= params::MIN_POOL_BYTES,
            || format!("pre-warm target {target} violates the 300 MB floor"),
        );
        target
    }

    /// Sum `R_size·R_con` over the functions active at `now`, in id order,
    /// mark which ones it counted, and cache the sum until the first of
    /// them goes idle.
    fn walk(&mut self, now: SimTime) -> f64 {
        let mut bytes = 0.0;
        let mut until = SimTime::MAX;
        for r in self.requested.values_mut() {
            let idle_at = r.idle_at();
            r.counted = now < idle_at;
            if r.counted {
                bytes += r.reservation();
                until = until.min(idle_at);
            }
        }
        self.demand = Some(Demand {
            bytes,
            from: now,
            until,
        });
        bytes
    }

    /// The demand at `now` from first principles: every requested
    /// function's percentiles read afresh and its activity tested in float
    /// seconds, with no cached instant, reservation or sum.
    #[cfg(any(test, feature = "audit"))]
    fn uncached_demand(&mut self, now: SimTime) -> f64 {
        let mut bytes = 0.0;
        for r in self.requested.values_mut() {
            let s = &mut r.stats;
            let gap = (now - r.last_request.min(now)).as_secs_f64();
            if gap <= s.window_s() {
                let size = s.size_bytes.p99().unwrap_or(0.0);
                let con = s.concurrency.p99().unwrap_or(1.0).max(1.0);
                bytes += size * con;
            }
        }
        bytes
    }

    /// Reservation window for one function, if known (testing/diagnostics).
    pub fn window_secs(&mut self, func: u64) -> Option<f64> {
        match self.requested.get_mut(&func) {
            Some(r) => Some(r.stats.window_s()),
            None => self
                .producers
                .contains_key(&func)
                .then_some(DEFAULT_WINDOW_S),
        }
    }

    /// Outstanding (produced but unconsumed) outputs currently counted for
    /// `func` (testing/diagnostics). Every `on_output` must eventually be
    /// balanced by an `on_consumed`, or the concurrency p99 ratchets up and
    /// the pre-warm target over-reserves.
    pub fn live_outputs(&self, func: u64) -> u32 {
        match self.requested.get(&func) {
            Some(r) => r.stats.live_outputs,
            None => self.producers.get(&func).map_or(0, |s| s.live_outputs),
        }
    }

    /// Total outstanding outputs across every tracked function — the leak
    /// indicator chaos tests assert drains to zero.
    pub fn total_live_outputs(&self) -> u64 {
        self.requested
            .values()
            .map(|r| &r.stats)
            .chain(self.producers.values())
            .map(|s| s.live_outputs as u64)
            .sum()
    }

    /// Drop every reservation this GPU's scaler holds: the GPU failed, its
    /// stored outputs are gone, and keeping their histograms would inflate
    /// the pre-warm target of the (empty) pool when the GPU rejoins. The
    /// scaler restarts with no history, exactly as at boot.
    pub fn quarantine(&mut self) {
        self.requested.clear();
        self.producers.clear();
        self.demand = None;
    }

    /// Number of tracked functions.
    pub fn len(&self) -> usize {
        self.requested.len() + self.producers.len()
    }

    pub fn is_empty(&self) -> bool {
        self.requested.is_empty() && self.producers.is_empty()
    }
}

/// Feed one output of `bytes` into `R_size` and, through the live-output
/// count, `R_con`.
fn record_output(stats: &mut FuncStats, bytes: f64) {
    stats.size_bytes.record(bytes);
    stats.live_outputs += 1;
    stats.concurrency.record(stats.live_outputs as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use grouter_sim::time::SimDuration;

    const MB: f64 = 1e6;

    #[test]
    fn empty_scaler_targets_the_floor() {
        let mut s = PrewarmScaler::new();
        assert_eq!(s.target_bytes(SimTime::ZERO), params::MIN_POOL_BYTES);
    }

    #[test]
    fn active_function_reserves_size_times_concurrency() {
        let mut s = PrewarmScaler::new();
        let mut t = SimTime::ZERO;
        // Steady 100 ms arrivals, 200 MB outputs, concurrency up to 4.
        for i in 0..100 {
            t += SimDuration::from_millis(100);
            s.on_request(7, t);
            s.on_output(7, 200.0 * MB);
            if i % 4 == 3 {
                for _ in 0..4 {
                    s.on_consumed(7);
                }
            }
        }
        // Right after a request the function is active: target ≈ 200 MB × 4.
        let target = s.target_bytes(t);
        assert!(
            (target - 800.0 * MB).abs() < 1.0,
            "target {target} vs expected 800 MB"
        );
    }

    #[test]
    fn window_expiry_releases_reservation() {
        let mut s = PrewarmScaler::new();
        let mut t = SimTime::ZERO;
        for _ in 0..50 {
            t += SimDuration::from_millis(10);
            s.on_request(1, t);
            s.on_output(1, 800.0 * MB);
            s.on_consumed(1);
        }
        // Active now (interval p99 ≈ 10 ms).
        assert!(s.target_bytes(t) > params::MIN_POOL_BYTES);
        // Two seconds of silence ≫ R_window → back to the floor.
        let later = t + SimDuration::from_secs(2);
        assert_eq!(s.target_bytes(later), params::MIN_POOL_BYTES);
    }

    #[test]
    fn target_sums_across_functions() {
        let mut s = PrewarmScaler::new();
        let mut t = SimTime::ZERO;
        for _ in 0..20 {
            t += SimDuration::from_millis(100);
            s.on_request(1, t);
            s.on_output(1, 400.0 * MB);
            s.on_consumed(1);
            s.on_request(2, t);
            s.on_output(2, 300.0 * MB);
            s.on_consumed(2);
        }
        let target = s.target_bytes(t);
        assert!((target - 700.0 * MB).abs() < 1.0, "target {target}");
    }

    #[test]
    fn concurrency_p99_scales_reservation() {
        let mut s = PrewarmScaler::new();
        let mut t = SimTime::ZERO;
        // Bursts of 8 outstanding outputs before consumption.
        for _ in 0..30 {
            t += SimDuration::from_millis(100);
            s.on_request(3, t);
            for _ in 0..8 {
                s.on_output(3, 100.0 * MB);
            }
            for _ in 0..8 {
                s.on_consumed(3);
            }
        }
        let target = s.target_bytes(t);
        assert!((target - 800.0 * MB).abs() < 1.0, "target {target}");
    }

    #[test]
    fn window_tracks_interval_p99() {
        let mut s = PrewarmScaler::new();
        let mut t = SimTime::ZERO;
        for _ in 0..100 {
            t += SimDuration::from_millis(250);
            s.on_request(9, t);
        }
        let w = s.window_secs(9).unwrap();
        assert!((w - 0.25).abs() < 1e-9, "window {w}");
    }

    #[test]
    fn producer_only_function_never_raises_the_target() {
        let mut s = PrewarmScaler::new();
        for _ in 0..10 {
            s.on_output(4, 2000.0 * MB);
        }
        assert_eq!(s.target_bytes(SimTime::ZERO), params::MIN_POOL_BYTES);
        assert_eq!(s.window_secs(4), Some(DEFAULT_WINDOW_S));
    }

    #[test]
    fn first_request_keeps_the_output_history() {
        // A stage re-placed here by fault recovery produces before this GPU
        // ever sees its request: R_size and R_con must survive the request.
        let mut s = PrewarmScaler::new();
        for _ in 0..3 {
            s.on_output(4, 500.0 * MB);
        }
        let t = SimTime::ZERO + SimDuration::from_secs(5);
        s.on_request(4, t);
        assert_eq!(s.live_outputs(4), 3);
        let target = s.target_bytes(t);
        assert!((target - 1500.0 * MB).abs() < 1.0, "target {target}");
    }

    #[test]
    fn cached_percentiles_refresh_after_each_record() {
        let mut s = PrewarmScaler::new();
        let mut t = SimTime::ZERO;
        s.on_request(1, t);
        s.on_output(1, 400.0 * MB);
        assert!((s.target_bytes(t) - 400.0 * MB).abs() < 1.0);
        // A larger output lifts R_size (and R_con: two outputs are live).
        s.on_output(1, 600.0 * MB);
        assert!((s.target_bytes(t) - 1200.0 * MB).abs() < 1.0);
        // Consuming records nothing, so the reservation stands.
        s.on_consumed(1);
        s.on_consumed(1);
        assert!((s.target_bytes(t) - 1200.0 * MB).abs() < 1.0);
        // A new interval replaces the default R_window at once...
        t += SimDuration::from_millis(100);
        s.on_request(1, t);
        assert!((s.window_secs(1).unwrap() - 0.1).abs() < 1e-9);
        // ...so 0.2 s of silence now ends the reservation.
        let later = t + SimDuration::from_millis(200);
        assert_eq!(s.target_bytes(later), params::MIN_POOL_BYTES);
    }

    #[test]
    fn bookkeeping_covers_requested_and_producer_only_functions() {
        let mut s = PrewarmScaler::new();
        s.on_request(1, SimTime::ZERO);
        s.on_output(1, MB);
        s.on_output(2, MB);
        s.on_output(2, MB);
        assert_eq!(s.len(), 2);
        assert_eq!(s.live_outputs(1), 1);
        assert_eq!(s.live_outputs(2), 2);
        assert_eq!(s.total_live_outputs(), 3);
        s.on_consumed(2);
        assert_eq!(s.total_live_outputs(), 2);
        s.quarantine();
        assert!(s.is_empty());
        assert_eq!(s.total_live_outputs(), 0);
        assert_eq!(s.window_secs(1), None);
    }

    #[test]
    fn forget_drops_a_drained_producer_only_function() {
        let mut s = PrewarmScaler::new();
        s.on_output(5, MB);
        s.on_output(5, MB);
        s.on_consumed(5);
        s.on_consumed(5);
        s.forget(5);
        assert!(s.is_empty());
        assert_eq!(s.window_secs(5), None);
        // Forgetting an unknown function is a no-op.
        s.forget(6);
        assert!(s.is_empty());
    }

    #[test]
    fn forget_keeps_a_function_with_live_outputs() {
        let mut s = PrewarmScaler::new();
        s.on_output(5, MB);
        s.on_output(5, MB);
        s.on_consumed(5);
        s.forget(5);
        assert_eq!(s.len(), 1);
        assert_eq!(s.live_outputs(5), 1);
        assert_eq!(s.total_live_outputs(), 1);
        s.on_consumed(5);
        s.forget(5);
        assert!(s.is_empty());
    }

    #[test]
    fn forget_never_drops_a_requested_function() {
        let mut s = PrewarmScaler::new();
        let t = SimTime::ZERO;
        s.on_request(1, t);
        s.on_output(1, 400.0 * MB);
        s.on_consumed(1);
        s.forget(1);
        assert_eq!(s.len(), 1);
        assert!((s.target_bytes(t) - 400.0 * MB).abs() < 1.0);
    }

    #[test]
    fn covered_gap_is_the_last_covered_nanosecond() {
        let covers = |d: u64, w: f64| SimDuration(d).as_secs_f64() <= w;
        for w in [
            0.0,
            1e-9,
            1.5e-9,
            0.1,
            0.25,
            1.0,
            0.3,
            7.123456789,
            480.0,
            1e7,
            1.5e10,
        ] {
            let gap = covered_gap(w).expect("a non-negative window covers a zero gap");
            assert!(
                covers(gap, w) && !covers(gap + 1, w),
                "window {w}: gap {gap}"
            );
        }
        // Past the last representable gap every gap is covered.
        assert_eq!(covered_gap(2e10), Some(u64::MAX));
        assert_eq!(covered_gap(f64::INFINITY), Some(u64::MAX));
        assert_eq!(covered_gap(-1.0), None);
        assert_eq!(covered_gap(f64::NAN), None);
    }

    #[test]
    fn demand_holds_until_a_counted_function_idles() {
        let mut s = PrewarmScaler::new();
        let t0 = SimTime::ZERO + SimDuration::from_secs(1);
        s.on_request(1, t0);
        s.on_output(1, 400.0 * MB);
        // The default one-second window: active through t0 + 1 s exactly.
        let last = t0 + SimDuration::from_secs(1);
        assert!((s.target_bytes(t0) - 400.0 * MB).abs() < 1.0);
        assert!((s.target_bytes(last) - 400.0 * MB).abs() < 1.0);
        let idle = last + SimDuration::from_nanos(1);
        assert_eq!(s.target_bytes(idle), params::MIN_POOL_BYTES);
        // A request re-activates it, and a new output size shows at once.
        s.on_request(1, idle);
        assert!((s.target_bytes(idle) - 400.0 * MB).abs() < 1.0);
        s.on_output(1, 900.0 * MB);
        assert!((s.target_bytes(idle) - 1800.0 * MB).abs() < 1.0);
    }

    /// One step of the cached-versus-uncached property below.
    #[derive(Clone, Copy, Debug)]
    enum Step {
        Request(u64),
        Output(u64, f64),
        Consumed(u64),
        Forget(u64),
        Quarantine,
        /// Advance the clock by this many nanoseconds.
        Wait(u64),
        /// Jump to a requested function's idle instant, or the nanosecond
        /// before it (when still ahead).
        ToIdle(u64, bool),
    }

    fn step() -> impl proptest::strategy::Strategy<Value = Step> {
        use proptest::strategy::Strategy;
        (0u8..40, 0u64..5, 0u8..6, 0u64..3_000_000_000).prop_map(|(op, f, k, ns)| match op {
            0..=7 => Step::Request(f),
            // A few sizes, so a reservation often keeps its bits.
            8..=17 => Step::Output(f, [0.0, 1.0, 64.0, 200.0, 1e3, 4.5e3][usize::from(k)] * MB),
            18..=23 => Step::Consumed(f),
            24 | 25 => Step::Forget(f),
            26 => Step::Quarantine,
            27..=33 => Step::Wait(match k {
                0 => 0,
                1 => 1,
                2 => ns % 1_000,
                3 => ns % 50_000_000,
                _ => ns,
            }),
            _ => Step::ToIdle(f, k % 2 == 0),
        })
    }

    proptest::proptest! {
        /// The cached target equals a walk from first principles, bit for
        /// bit, after every step of any interleaving on a monotone clock,
        /// including clocks landing exactly on (and just before) an idle
        /// instant.
        #[test]
        fn cached_target_matches_an_uncached_walk(
            steps in proptest::collection::vec(step(), 1..400),
        ) {
            let mut s = PrewarmScaler::new();
            let mut now = SimTime::ZERO;
            for (i, st) in steps.into_iter().enumerate() {
                match st {
                    Step::Request(f) => s.on_request(f, now),
                    Step::Output(f, bytes) => s.on_output(f, bytes),
                    Step::Consumed(f) => s.on_consumed(f),
                    Step::Forget(f) => s.forget(f),
                    Step::Quarantine => s.quarantine(),
                    Step::Wait(ns) => now = now.saturating_add(SimDuration(ns)),
                    Step::ToIdle(f, exact) => {
                        if let Some(r) = s.requested.get_mut(&f) {
                            let idle = r.idle_at();
                            let to = if exact { idle } else { SimTime(idle.0.saturating_sub(1)) };
                            now = now.max(to);
                        }
                    }
                }
                let got = s.target_bytes(now);
                let want = s.uncached_demand(now).max(params::MIN_POOL_BYTES);
                proptest::prop_assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "step {} ({:?}) at {:?}: {} vs {}",
                    i,
                    st,
                    now,
                    got,
                    want
                );
            }
        }
    }

    #[test]
    fn a_request_after_forget_starts_from_empty_history() {
        let mut s = PrewarmScaler::new();
        for _ in 0..3 {
            s.on_output(4, 500.0 * MB);
        }
        for _ in 0..3 {
            s.on_consumed(4);
        }
        s.forget(4);
        let t = SimTime::ZERO + SimDuration::from_secs(5);
        s.on_request(4, t);
        assert_eq!(s.live_outputs(4), 0);
        // No R_size history survives: the function reserves nothing.
        assert_eq!(s.target_bytes(t), params::MIN_POOL_BYTES);
        assert_eq!(s.window_secs(4), Some(DEFAULT_WINDOW_S));
    }
}
