//! Streaming statistics used by the elastic-storage policies (99th-percentile
//! trackers) and by the experiment harness (latency distributions, time
//! series).
//!
//! [`WindowedPercentile`] answers one query, the nearest-rank p99 of its
//! window, from the window's three largest samples, which hold the answer
//! for every window up to [`MAX_WINDOW`] samples. Once queried, a record is
//! a ring push plus at most three compares; only evicting one of the three
//! rescans the ring.

use crate::time::SimTime;

/// The largest window a [`WindowedPercentile`] takes: up to here the
/// nearest-rank p99 of `n` samples is one of the three largest
/// (`n - ⌈0.99·n⌉ ≤ 2`; at 300 samples it is the fourth).
pub const MAX_WINDOW: usize = 299;

/// A window's largest samples in descending `f64::total_cmp` order, with
/// multiplicity: the first `len` slots hold the `min(3, n)` largest of the
/// `n` samples offered.
#[derive(Clone, Copy, Debug, Default)]
struct Largest {
    vals: [f64; 3],
    len: u8,
}

impl Largest {
    /// Take `value` into the list if it ranks among the three largest.
    fn offer(&mut self, value: f64) {
        let mut carry = value;
        for slot in self.vals.iter_mut().take(usize::from(self.len)) {
            if carry.total_cmp(slot).is_gt() {
                carry = std::mem::replace(slot, carry);
            }
        }
        if let Some(slot) = self.vals.get_mut(usize::from(self.len)) {
            *slot = carry;
            self.len += 1;
        }
    }

    /// Whether `x` ranks at or above the smallest kept sample; always true
    /// while fewer than three are kept.
    fn reaches(&self, x: f64) -> bool {
        usize::from(self.len) < self.vals.len()
            || self.vals.last().is_some_and(|min| x.total_cmp(min).is_ge())
    }
}

/// A bounded-window sample tracker with a 99th-percentile query.
///
/// GROUTER's elastic storage characterises each function with the 99th
/// percentiles of request interval (`R_window`), intermediate data size
/// (`R_size`) and concurrency (`R_con`) (paper §4.4.1, Fig. 11a). These are
/// computed over a sliding window of recent observations.
#[derive(Clone, Debug)]
pub struct WindowedPercentile {
    /// The window in arrival order; once full, a ring whose oldest sample
    /// sits at `cursor`.
    samples: Vec<f64>,
    // Both at most MAX_WINDOW, so the tracker stays 64 bytes.
    window: u16,
    cursor: u16,
    /// The window's three largest samples, or empty until the first query
    /// of a non-empty window. Once built, `record` keeps them current, so
    /// a query is a single lookup; trackers that are never queried — most
    /// of them — never pay for the list.
    top: Largest,
}

// Every function keeps three trackers per GPU; a larger tracker shifted
// `serve`'s peak heap by a megabyte in measurement.
const _: () = assert!(std::mem::size_of::<WindowedPercentile>() <= 64);

impl WindowedPercentile {
    /// Create a tracker remembering the most recent `window` samples.
    ///
    /// # Panics
    /// Panics if `window` is zero or larger than [`MAX_WINDOW`].
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be non-empty");
        assert!(
            window <= MAX_WINDOW,
            "window must hold at most {MAX_WINDOW} samples"
        );
        WindowedPercentile {
            // Lazily grown: most trackers (one per function × signal × GPU)
            // see far fewer samples than the window bound, and eager 256-slot
            // buffers made tracker creation the hottest part of arrivals.
            samples: Vec::new(),
            window: u16::try_from(window).unwrap_or(u16::MAX),
            cursor: 0,
            top: Largest::default(),
        }
    }

    /// Record one observation.
    pub fn record(&mut self, value: f64) {
        let evicted = if self.samples.len() < usize::from(self.window) {
            self.samples.push(value);
            None
        } else {
            let oldest = self.samples.get_mut(usize::from(self.cursor));
            self.cursor = (self.cursor + 1) % self.window;
            oldest.map(|slot| std::mem::replace(slot, value))
        };
        if self.top.len == 0 {
            return;
        }
        match evicted {
            // A bit-equal replacement leaves the window's multiset as it was.
            Some(old) if old.to_bits() == value.to_bits() => {}
            // One of the largest left: the next largest may sit anywhere.
            Some(old) if self.top.reaches(old) => self.rescan(),
            _ => self.top.offer(value),
        }
    }

    /// Rebuild the largest-samples list from the ring.
    fn rescan(&mut self) {
        self.top = Largest::default();
        for &x in &self.samples {
            self.top.offer(x);
        }
    }

    /// Number of samples currently held.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The 99th percentile over the window, or `None` when empty.
    ///
    /// Uses the nearest-rank method, which matches how serverless pre-warming
    /// policies read "the 99th percentile" of a small histogram.
    pub fn p99(&mut self) -> Option<f64> {
        let n = self.samples.len();
        if n == 0 {
            return None;
        }
        if self.top.len == 0 {
            self.rescan();
        }
        // Counted down from the largest sample: at most 2 below MAX_WINDOW.
        let rank = ((0.99 * n as f64).ceil() as usize).clamp(1, n);
        self.top.vals.get(n - rank).copied()
    }
}

/// An unbounded latency/throughput sample collector for experiment reporting.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    samples: Vec<f64>,
}

impl Summary {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn record(&mut self, value: f64) {
        self.samples.push(value);
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Smallest sample; 0 when empty, like [`Summary::mean`].
    pub fn min(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Largest sample; 0 when empty, like [`Summary::mean`].
    pub fn max(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Quantile by nearest rank; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// All recorded samples (read-only), for CDF plotting.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// A `(time, value)` series, e.g. idle GPU memory over a trace (Fig. 7a).
#[derive(Clone, Debug, Default)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a point. Timestamps must be non-decreasing; out-of-order points
    /// are clamped to the previous timestamp so the series stays monotone.
    pub fn record(&mut self, t: SimTime, value: f64) {
        let t = match self.points.last() {
            Some(&(prev, _)) if t < prev => prev,
            _ => t,
        };
        self.points.push((t, value));
    }

    pub fn len(&self) -> usize {
        self.points.len()
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Maximum value over the series.
    pub fn max_value(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|&(_, v)| v)
            .max_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
    }

    /// Time-weighted average value over the series.
    pub fn time_weighted_mean(&self) -> Option<f64> {
        if self.points.len() < 2 {
            return self.points.first().map(|&(_, v)| v);
        }
        let mut area = 0.0;
        let mut span = 0.0;
        for pair in self.points.windows(2) {
            let dt = (pair[1].0 - pair[0].0).as_secs_f64();
            area += pair[0].1 * dt;
            span += dt;
        }
        if span == 0.0 {
            Some(self.points[0].1)
        } else {
            Some(area / span)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windowed_percentile_basics() {
        let mut w = WindowedPercentile::new(100);
        assert!(w.p99().is_none());
        for i in 1..=100 {
            w.record(i as f64);
        }
        assert_eq!(w.p99(), Some(99.0));
        // Kept current after the first query, through evictions.
        w.record(0.5);
        assert_eq!(w.p99(), Some(99.0));
        w.record(1000.0);
        assert_eq!(w.p99(), Some(100.0));
        assert_eq!(w.len(), 100);
    }

    #[test]
    fn windowed_percentile_evicts_oldest() {
        let mut w = WindowedPercentile::new(3);
        for v in [100.0, 1.0, 2.0, 3.0] {
            w.record(v);
        }
        // 100.0 fell out of the window; the p99 of three samples is the
        // largest.
        assert_eq!(w.p99(), Some(3.0));
        assert_eq!(w.len(), 3);
    }

    #[test]
    #[should_panic(expected = "window must be non-empty")]
    fn zero_window_panics() {
        let _ = WindowedPercentile::new(0);
    }

    #[test]
    #[should_panic(expected = "window must hold at most 299 samples")]
    fn oversize_window_panics() {
        let _ = WindowedPercentile::new(MAX_WINDOW + 1);
    }

    /// Nearest-rank rank of the p99 among `n` samples, as `p99` computes it.
    fn p99_rank(n: usize) -> usize {
        ((0.99 * n as f64).ceil() as usize).clamp(1, n)
    }

    #[test]
    fn the_three_largest_hold_the_p99_of_every_allowed_window() {
        for n in 1..=MAX_WINDOW {
            assert!(n - p99_rank(n) < 3, "n = {n}");
        }
        assert_eq!(MAX_WINDOW + 1 - p99_rank(MAX_WINDOW + 1), 3);
    }

    /// Nearest-rank p99 of `window`, sorted from scratch.
    fn resorted_p99(window: &std::collections::VecDeque<f64>) -> Option<f64> {
        let mut sorted: Vec<f64> = window.iter().copied().collect();
        sorted.sort_by(f64::total_cmp);
        let rank = p99_rank(sorted.len().max(1));
        sorted.get(rank - 1).copied()
    }

    proptest::proptest! {
        /// The incrementally maintained window answers every query exactly
        /// as re-sorting the live samples would, bit for bit, whatever the
        /// interleaving of records and queries: through wrap-around and
        /// heavy eviction of windows from 1 to 256 samples, with runs of
        /// equal values and with duplicate, negative and signed-zero
        /// samples.
        #[test]
        fn incremental_window_matches_a_resort(
            window in proptest::prop_oneof![1usize..9, 100usize..257, proptest::Just(256usize)],
            ops in proptest::collection::vec((0u8..4, 0u8..16, 1u8..6), 0..1600),
        ) {
            let mut w = WindowedPercentile::new(window);
            let mut live = std::collections::VecDeque::new();
            for (op, code, run) in ops {
                if op == 0 {
                    let got = w.p99().map(f64::to_bits);
                    let want = resorted_p99(&live).map(f64::to_bits);
                    proptest::prop_assert_eq!(got, want, "over {:?}", live);
                    continue;
                }
                // A few distinct values, so duplicates are common; an op
                // of 3 records a run of the same value.
                let value = if code == 15 { -0.0 } else { f64::from(code) * 0.5 - 3.0 };
                let times = if op == 3 { run } else { 1 };
                for _ in 0..times {
                    w.record(value);
                    live.push_back(value);
                    if live.len() > window {
                        live.pop_front();
                    }
                }
            }
            proptest::prop_assert_eq!(w.len(), live.len());
            proptest::prop_assert_eq!(
                w.p99().map(f64::to_bits),
                resorted_p99(&live).map(f64::to_bits)
            );
        }
    }

    #[test]
    fn summary_quantiles() {
        let mut s = Summary::new();
        for i in 1..=1000 {
            s.record(i as f64);
        }
        assert_eq!(s.p50(), 500.0);
        assert_eq!(s.p99(), 990.0);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 1000.0);
        assert!((s.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn empty_summary_reports_zero() {
        // An empty run (`serve --total 0`, a workflow run at `--seconds 0`)
        // prints its summary: every statistic is 0, never an infinity.
        let s = Summary::new();
        assert_eq!(
            (s.min(), s.max(), s.mean(), s.p50(), s.p99()),
            (0.0, 0.0, 0.0, 0.0, 0.0)
        );
        let mut one = Summary::new();
        one.record(-2.5);
        assert_eq!((one.min(), one.max()), (-2.5, -2.5));
    }

    #[test]
    fn summary_orders_nan_after_every_number() {
        // Under `partial_cmp` a NaN compares "equal" to everything, which is
        // no order at all; the standard sort may panic on it. `total_cmp`
        // puts NaN last and leaves the numbers in their usual order.
        let mut s = Summary::new();
        for i in 0..300u64 {
            let v = i * 7919 % 300; // a permutation of 0..300
            s.record(if v % 7 == 0 { f64::NAN } else { v as f64 });
        }
        // 257 numbers (1..300 minus multiples of 7), then 43 NaNs: the
        // 150th number is 174.
        assert_eq!(s.p50(), 174.0);
        assert!(s.quantile(0.75).is_finite() && s.quantile(1.0).is_nan());
    }

    #[test]
    fn summary_empty_is_zero() {
        let s = Summary::new();
        assert_eq!(s.p99(), 0.0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn timeseries_max_value() {
        let mut ts = TimeSeries::new();
        for i in 0..10 {
            ts.record(SimTime(i * 10), i as f64);
        }
        assert_eq!(ts.max_value(), Some(9.0));
    }

    #[test]
    fn timeseries_clamps_out_of_order() {
        let mut ts = TimeSeries::new();
        ts.record(SimTime(100), 1.0);
        ts.record(SimTime(50), 2.0); // clamped to t=100
        assert_eq!(ts.points()[1].0, SimTime(100));
    }

    #[test]
    fn time_weighted_mean_weights_by_duration() {
        let mut ts = TimeSeries::new();
        ts.record(SimTime(0), 10.0);
        ts.record(SimTime(90), 0.0);
        ts.record(SimTime(100), 0.0);
        // 10.0 held for 90 ns, 0.0 for 10 ns → mean 9.0
        assert!((ts.time_weighted_mean().unwrap() - 9.0).abs() < 1e-9);
    }
}
