//! Streaming statistics used by the elastic-storage policies (99th-percentile
//! trackers) and by the experiment harness (latency distributions, time
//! series).

use crate::time::SimTime;

/// A bounded-window sample tracker with percentile queries.
///
/// GROUTER's elastic storage characterises each function with the 99th
/// percentiles of request interval (`R_window`), intermediate data size
/// (`R_size`) and concurrency (`R_con`) (paper §4.4.1, Fig. 11a). These are
/// computed over a sliding window of recent observations.
#[derive(Clone, Debug)]
pub struct WindowedPercentile {
    window: usize,
    /// The window in arrival order; once full, a ring whose oldest sample
    /// sits at `cursor`.
    samples: Vec<f64>,
    cursor: usize,
    /// `samples` in `f64::total_cmp` order, or empty until the first query
    /// of a non-empty window. Once built, `record` keeps it current (one
    /// binary search for the evicted sample, one for the new one, one
    /// shift between them), so a query is a single lookup. Trackers that
    /// are never queried — most of them — never pay for the copy.
    sorted: Vec<f64>,
}

impl WindowedPercentile {
    /// Create a tracker remembering the most recent `window` samples.
    ///
    /// # Panics
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be non-empty");
        WindowedPercentile {
            window,
            // Lazily grown: most trackers (one per function × signal × GPU)
            // see far fewer samples than the window bound, and eager 256-slot
            // buffers made tracker creation the hottest part of arrivals.
            samples: Vec::new(),
            cursor: 0,
            sorted: Vec::new(),
        }
    }

    /// Record one observation.
    pub fn record(&mut self, value: f64) {
        let evicted = if self.samples.len() < self.window {
            self.samples.push(value);
            None
        } else {
            let oldest = self.samples.get_mut(self.cursor);
            self.cursor = (self.cursor + 1) % self.window;
            oldest.map(|slot| std::mem::replace(slot, value))
        };
        if !self.sorted.is_empty() {
            self.update_sorted(evicted, value);
        }
    }

    /// Keep `sorted` equal to the window after `value` replaced `evicted`
    /// (or was appended, when nothing was evicted).
    fn update_sorted(&mut self, evicted: Option<f64>, value: f64) {
        let sorted = &mut self.sorted;
        let to = sorted.partition_point(|x| x.total_cmp(&value).is_lt());
        let from = evicted.and_then(|old| sorted.binary_search_by(|x| x.total_cmp(&old)).ok());
        // Shift the samples between the evicted slot and the insertion
        // point by one, towards the evicted slot, and drop `value` into the
        // gap that opens.
        let slot = match from {
            None => {
                sorted.insert(to, value);
                return;
            }
            Some(from) if to <= from => {
                sorted.copy_within(to..from, to + 1);
                to
            }
            Some(from) => {
                sorted.copy_within(from + 1..to, from);
                to - 1
            }
        };
        if let Some(s) = sorted.get_mut(slot) {
            *s = value;
        }
    }

    /// Number of samples currently held.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The `q`-quantile (q in [0, 1]) over the window, or `None` when empty.
    ///
    /// Uses the nearest-rank method, which matches how serverless pre-warming
    /// policies read "the 99th percentile" of a small histogram.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        if self.sorted.is_empty() {
            self.sorted.extend_from_slice(&self.samples);
            self.sorted.sort_by(f64::total_cmp);
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.sorted.len() as f64).ceil() as usize).clamp(1, self.sorted.len());
        self.sorted.get(rank - 1).copied()
    }

    /// Convenience: the 99th percentile.
    pub fn p99(&mut self) -> Option<f64> {
        self.quantile(0.99)
    }

    /// Mean over the window, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.samples.iter().sum::<f64>() / self.samples.len() as f64)
        }
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

    /// Down-sample to at most `n` evenly spaced points (for printing).
    pub fn resample(&self, n: usize) -> Vec<(SimTime, f64)> {
        if self.points.len() <= n || n == 0 {
            return self.points.clone();
        }
        let step = self.points.len() as f64 / n as f64;
        (0..n)
            .map(|i| self.points[(i as f64 * step) as usize])
            .collect()
    }

    /// Minimum value over the series.
    pub fn min_value(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|&(_, v)| v)
            .min_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
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
        assert_eq!(w.quantile(0.5), Some(50.0));
        assert_eq!(w.quantile(1.0), Some(100.0));
        assert_eq!(w.quantile(0.0), Some(1.0));
        assert_eq!(w.mean(), Some(50.5));
    }

    #[test]
    fn windowed_percentile_evicts_oldest() {
        let mut w = WindowedPercentile::new(3);
        for v in [100.0, 1.0, 2.0, 3.0] {
            w.record(v);
        }
        // 100.0 fell out of the window.
        assert_eq!(w.quantile(1.0), Some(3.0));
        assert_eq!(w.len(), 3);
    }

    #[test]
    #[should_panic(expected = "window must be non-empty")]
    fn zero_window_panics() {
        let _ = WindowedPercentile::new(0);
    }

    /// Nearest-rank `q`-quantile of `window`, sorted from scratch.
    fn resorted_quantile(window: &std::collections::VecDeque<f64>, q: f64) -> Option<f64> {
        let mut sorted: Vec<f64> = window.iter().copied().collect();
        sorted.sort_by(f64::total_cmp);
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len().max(1));
        sorted.get(rank - 1).copied()
    }

    proptest::proptest! {
        /// The incrementally maintained window answers every query exactly
        /// as re-sorting the live samples would, bit for bit, whatever the
        /// interleaving of records and queries, through wrap-around and with
        /// duplicate, negative and signed-zero samples.
        #[test]
        fn incremental_window_matches_a_resort(
            window in proptest::prop_oneof![1usize..9, proptest::Just(256usize)],
            ops in proptest::collection::vec((0u8..4, 0u8..16), 0..1200),
        ) {
            let mut w = WindowedPercentile::new(window);
            let mut live = std::collections::VecDeque::new();
            for (op, code) in ops {
                if op == 0 {
                    let q = [0.0, 0.5, 0.99, 1.0][usize::from(code % 4)];
                    let got = w.quantile(q).map(f64::to_bits);
                    let want = resorted_quantile(&live, q).map(f64::to_bits);
                    proptest::prop_assert_eq!(got, want, "q {} over {:?}", q, live);
                } else {
                    // A few distinct values, so duplicates are common.
                    let value = if code == 15 { -0.0 } else { f64::from(code) * 0.5 - 3.0 };
                    w.record(value);
                    live.push_back(value);
                    if live.len() > window {
                        live.pop_front();
                    }
                }
            }
            proptest::prop_assert_eq!(w.len(), live.len());
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
        assert!(s.quantile(1.0).is_nan());
        let cdf = s.cdf_points(4);
        assert_eq!(cdf[1].0, 174.0);
        assert!(cdf[2].0.is_finite() && cdf[3].0.is_nan());
    }

    #[test]
    fn summary_empty_is_zero() {
        let s = Summary::new();
        assert_eq!(s.p99(), 0.0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn timeseries_resample_and_stats() {
        let mut ts = TimeSeries::new();
        for i in 0..10 {
            ts.record(SimTime(i * 10), i as f64);
        }
        assert_eq!(ts.resample(5).len(), 5);
        assert_eq!(ts.min_value(), Some(0.0));
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

impl Summary {
    /// `n` evenly spaced CDF points `(value, fraction ≤ value)` — the shape
    /// the paper's distribution figures (e.g. Fig. 18a) plot.
    pub fn cdf_points(&self, n: usize) -> Vec<(f64, f64)> {
        if self.samples.is_empty() || n == 0 {
            return Vec::new();
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        (1..=n)
            .map(|k| {
                let q = k as f64 / n as f64;
                let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
                (sorted[rank - 1], q)
            })
            .collect()
    }

    /// Comma-separated `value,cdf` lines for external plotting.
    pub fn cdf_csv(&self, n: usize) -> String {
        let mut out = String::from("value,cdf\n");
        for (v, q) in self.cdf_points(n) {
            out.push_str(&format!("{v},{q}\n"));
        }
        out
    }
}

impl TimeSeries {
    /// Comma-separated `seconds,value` lines for external plotting.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("seconds,value\n");
        for &(t, v) in &self.points {
            out.push_str(&format!("{},{v}\n", t.as_secs_f64()));
        }
        out
    }
}

#[cfg(test)]
mod csv_tests {
    use super::*;

    #[test]
    fn cdf_points_are_monotone_and_cover_range() {
        let mut s = Summary::new();
        for i in 1..=100 {
            s.record(i as f64);
        }
        let cdf = s.cdf_points(10);
        assert_eq!(cdf.len(), 10);
        assert!(cdf.windows(2).all(|w| w[0].0 <= w[1].0 && w[0].1 < w[1].1));
        assert_eq!(cdf.last().unwrap().0, 100.0);
        assert_eq!(cdf.last().unwrap().1, 1.0);
    }

    #[test]
    fn cdf_empty_and_zero_n() {
        let s = Summary::new();
        assert!(s.cdf_points(5).is_empty());
        let mut s2 = Summary::new();
        s2.record(1.0);
        assert!(s2.cdf_points(0).is_empty());
    }

    #[test]
    fn csv_headers_present() {
        let mut s = Summary::new();
        s.record(2.0);
        assert!(s.cdf_csv(2).starts_with("value,cdf\n"));
        let mut ts = TimeSeries::new();
        ts.record(SimTime(1_000_000_000), 7.0);
        let csv = ts.to_csv();
        assert!(csv.starts_with("seconds,value\n"));
        assert!(csv.contains("1,7"));
    }
}
