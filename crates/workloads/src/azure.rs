//! Azure-Functions-style request traces (paper §6, \[39\]).
//!
//! The paper drives its evaluation with production traces whose request
//! arrivals fall into three characteristic patterns; we synthesise each with
//! matching statistics (the raw traces are not redistributable —
//! DESIGN.md §2):
//!
//! * **Sporadic** — low-rate Poisson arrivals (the long tail of rarely
//!   invoked functions).
//! * **Periodic** — diurnal/cron-like sinusoidal rate modulation.
//! * **Bursty** — Markov-modulated on/off process: quiet background traffic
//!   punctuated by bursts an order of magnitude above the mean.

use grouter_sim::rng::DetRng;
use grouter_sim::time::{SimDuration, SimTime};

/// The three arrival patterns of the Azure trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArrivalPattern {
    Sporadic,
    Periodic,
    Bursty,
}

impl ArrivalPattern {
    pub const ALL: [ArrivalPattern; 3] = [
        ArrivalPattern::Sporadic,
        ArrivalPattern::Periodic,
        ArrivalPattern::Bursty,
    ];

    pub fn name(self) -> &'static str {
        match self {
            ArrivalPattern::Sporadic => "sporadic",
            ArrivalPattern::Periodic => "periodic",
            ArrivalPattern::Bursty => "bursty",
        }
    }
}

/// Arrival processes stop here, in seconds: the simulated clock ends at
/// 2^64 ns (about 1.84e10 s, 584 years), and an arrival stamped at
/// `SimTime::MAX` could never be reached by an event loop.
const CLOCK_END_S: f64 = 1.8e10;

/// `t` seconds on the simulated clock; `t` is below [`CLOCK_END_S`], so the
/// conversion never saturates.
fn clock_time(t: f64) -> SimTime {
    SimTime((t * 1e9) as u64)
}

/// Generate arrival times over `[0, duration)` with mean rate `mean_rps`:
/// an [`OpenLoopGen`] on a copy of `rng`, collected. `rng` is left where the
/// generator's copy ended, as if the caller had drawn every number itself.
pub fn generate_trace(
    pattern: ArrivalPattern,
    mean_rps: f64,
    duration: SimDuration,
    rng: &mut DetRng,
) -> Vec<SimTime> {
    let mut gen = OpenLoopGen::new(pattern, mean_rps, duration, rng.clone());
    let trace = gen.by_ref().collect();
    *rng = gen.rng;
    trace
}

/// Incremental arrival generator with mean rate `mean_rps`, emitting one
/// arrival at a time.
///
/// All patterns use thinning over a fine time grid so the mean rate is met
/// while the shape differs:
/// * sporadic: constant rate;
/// * periodic: `λ(t) = mean · (1 + 0.9 sin(2πt / period))` with a 10 s
///   period;
/// * bursty: two-state modulation — ON at 8× mean for ~0.5 s, OFF at
///   0.12× mean for ~4 s (expected rate ≈ mean).
///
/// Cluster-scale sweeps drive millions of invocations; materialising the
/// whole trace up front costs hundreds of MB and pollutes the cache before
/// the run even starts. `OpenLoopGen` holds O(1) state; [`generate_trace`]
/// collects one for callers that want the whole trace.
#[derive(Clone, Debug)]
pub struct OpenLoopGen {
    pattern: ArrivalPattern,
    mean_rps: f64,
    /// Horizon in seconds, at most [`CLOCK_END_S`] (the horizon of
    /// count-bounded callers).
    horizon: f64,
    rng: DetRng,
    /// Current process time, seconds.
    t: f64,
    /// Bursty modulation state.
    on: bool,
    phase_end: f64,
}

impl OpenLoopGen {
    /// Arrivals over `[0, duration)`.
    pub fn new(
        pattern: ArrivalPattern,
        mean_rps: f64,
        duration: SimDuration,
        mut rng: DetRng,
    ) -> OpenLoopGen {
        assert!(mean_rps > 0.0, "rate must be positive");
        let phase_end = if pattern == ArrivalPattern::Bursty {
            rng.exponential(4.0)
        } else {
            0.0
        };
        OpenLoopGen {
            pattern,
            mean_rps,
            horizon: duration.as_secs_f64().min(CLOCK_END_S),
            rng,
            t: 0.0,
            on: false,
            phase_end,
        }
    }

    /// A generator bounded only by the end of the simulated clock — the
    /// caller bounds the run by arrival count (open-loop cluster sweeps)
    /// instead of by horizon.
    pub fn unbounded(pattern: ArrivalPattern, mean_rps: f64, rng: DetRng) -> OpenLoopGen {
        OpenLoopGen::new(pattern, mean_rps, SimDuration::MAX, rng)
    }
}

impl Iterator for OpenLoopGen {
    type Item = SimTime;

    fn next(&mut self) -> Option<SimTime> {
        match self.pattern {
            ArrivalPattern::Sporadic => {
                self.t += self.rng.exponential(1.0 / self.mean_rps);
                if self.t >= self.horizon {
                    return None;
                }
                Some(clock_time(self.t))
            }
            ArrivalPattern::Periodic => {
                let peak = self.mean_rps * 1.9;
                let period = 10.0;
                loop {
                    self.t += self.rng.exponential(1.0 / peak);
                    if self.t >= self.horizon {
                        return None;
                    }
                    let lambda = self.mean_rps
                        * (1.0 + 0.9 * (2.0 * std::f64::consts::PI * self.t / period).sin());
                    if self.rng.next_f64() < lambda / peak {
                        return Some(clock_time(self.t));
                    }
                }
            }
            ArrivalPattern::Bursty => {
                let on_rate = self.mean_rps * 8.0;
                let off_rate = self.mean_rps * 0.12;
                loop {
                    let rate = if self.on { on_rate } else { off_rate };
                    let dt = self.rng.exponential(1.0 / rate);
                    if self.t + dt >= self.phase_end {
                        self.t = self.phase_end;
                        self.on = !self.on;
                        self.phase_end = self.t
                            + if self.on {
                                self.rng.exponential(0.5)
                            } else {
                                self.rng.exponential(4.0)
                            };
                        if self.t >= self.horizon {
                            return None;
                        }
                    } else {
                        self.t += dt;
                        if self.t >= self.horizon {
                            return None;
                        }
                        return Some(clock_time(self.t));
                    }
                }
            }
        }
    }
}

/// Coefficient of variation of inter-arrival times (trace shape check).
pub fn interarrival_cv(trace: &[SimTime]) -> f64 {
    if trace.len() < 3 {
        return 0.0;
    }
    let gaps: Vec<f64> = trace
        .windows(2)
        .map(|w| (w[1] - w[0]).as_secs_f64())
        .collect();
    let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
    let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
    if mean == 0.0 {
        0.0
    } else {
        var.sqrt() / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(p: ArrivalPattern, rps: f64, secs: u64, seed: u64) -> Vec<SimTime> {
        let mut rng = DetRng::new(seed);
        generate_trace(p, rps, SimDuration::from_secs(secs), &mut rng)
    }

    #[test]
    fn traces_are_sorted_and_within_horizon() {
        for p in ArrivalPattern::ALL {
            let t = trace(p, 20.0, 60, 7);
            assert!(t.windows(2).all(|w| w[0] <= w[1]), "{p:?} unsorted");
            assert!(t.iter().all(|&x| x < SimTime(60 * 1_000_000_000)));
            assert!(!t.is_empty());
        }
    }

    #[test]
    fn mean_rates_are_close() {
        for p in ArrivalPattern::ALL {
            let t = trace(p, 50.0, 120, 11);
            let rate = t.len() as f64 / 120.0;
            assert!((rate - 50.0).abs() < 12.0, "{p:?} rate {rate} far from 50");
        }
    }

    #[test]
    fn burstiness_ordering_matches_patterns() {
        let cv_sporadic = interarrival_cv(&trace(ArrivalPattern::Sporadic, 30.0, 300, 3));
        let cv_bursty = interarrival_cv(&trace(ArrivalPattern::Bursty, 30.0, 300, 3));
        // Poisson CV ≈ 1; bursty must be clearly super-Poissonian.
        assert!((cv_sporadic - 1.0).abs() < 0.2, "sporadic cv {cv_sporadic}");
        assert!(cv_bursty > 1.5, "bursty cv {cv_bursty}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = trace(ArrivalPattern::Bursty, 25.0, 30, 9);
        let b = trace(ArrivalPattern::Bursty, 25.0, 30, 9);
        assert_eq!(a, b);
        let c = trace(ArrivalPattern::Bursty, 25.0, 30, 10);
        assert_ne!(a, c);
    }

    /// One seed's trace per pattern and the caller's next draw after it,
    /// pinned: a change to any process's draw order or arithmetic, or to
    /// where `generate_trace` leaves the caller's RNG, shows here.
    #[test]
    fn generate_trace_is_pinned_per_pattern() {
        let pins = [
            (
                ArrivalPattern::Sporadic,
                2309,
                0x3608_eec7_4ab9_8715_u64,
                0xd95f_ea44_545c_89de_u64,
            ),
            (
                ArrivalPattern::Periodic,
                2391,
                0x85d0_59ef_90d1_f328,
                0xc182_5ed8_f4ad_cfdc,
            ),
            (
                ArrivalPattern::Bursty,
                1524,
                0x355e_9a57_07ec_6640,
                0xf346_4094_5d46_d4c9,
            ),
        ];
        for (p, len, hash, next) in pins {
            let mut rng = DetRng::new(13);
            let t = generate_trace(p, 40.0, SimDuration::from_secs(60), &mut rng);
            let h = t.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, x| {
                (h ^ x.as_nanos()).wrapping_mul(0x100_0000_01b3)
            });
            assert_eq!((t.len(), h), (len, hash), "{p:?} trace changed");
            assert_eq!(
                rng.next_u64(),
                next,
                "{p:?} left the caller's RNG elsewhere"
            );
        }
    }

    #[test]
    fn open_loop_same_seed_is_byte_identical() {
        let a: Vec<SimTime> =
            OpenLoopGen::unbounded(ArrivalPattern::Bursty, 500.0, DetRng::new(21))
                .take(10_000)
                .collect();
        let b: Vec<SimTime> =
            OpenLoopGen::unbounded(ArrivalPattern::Bursty, 500.0, DetRng::new(21))
                .take(10_000)
                .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn open_loop_rate_holds_under_backlog() {
        // Open-loop means the arrival process never slows down with the
        // consumer: after N draws the clock must sit at ≈ N/λ regardless
        // of how far behind a simulated server would be.
        let n = 200_000usize;
        let rps = 4_000.0;
        let last = OpenLoopGen::unbounded(ArrivalPattern::Sporadic, rps, DetRng::new(5))
            .take(n)
            .last()
            .expect("nonempty");
        let elapsed = last.as_secs_f64();
        let expect = n as f64 / rps;
        assert!(
            (elapsed - expect).abs() / expect < 0.05,
            "open-loop clock drifted: {elapsed:.2}s for {n} arrivals at {rps} rps (expect ≈{expect:.2}s)"
        );
    }

    #[test]
    fn open_loop_generates_a_million_arrivals() {
        // Generation speed guard for the cluster sweep: a million arrivals
        // must stream through in O(n) with O(1) state (no materialised
        // trace). Monotonicity is checked on the fly.
        let mut gen = OpenLoopGen::unbounded(ArrivalPattern::Sporadic, 4_000.0, DetRng::new(77));
        let mut prev = SimTime::ZERO;
        for _ in 0..1_000_000 {
            let t = gen.next().expect("unbounded generator never ends");
            assert!(t >= prev);
            prev = t;
        }
        assert!(prev > SimTime::ZERO);
    }

    /// A rate so low that the next arrival lies past the end of the clock
    /// ends the stream: no arrival is stamped `SimTime::MAX`, which no
    /// event loop could ever reach.
    #[test]
    fn tiny_rates_end_the_stream_instead_of_saturating_the_clock() {
        let end = clock_time(CLOCK_END_S);
        assert!(end < SimTime::MAX);
        for p in [ArrivalPattern::Sporadic, ArrivalPattern::Periodic] {
            for seed in 0..16 {
                let times: Vec<SimTime> = OpenLoopGen::unbounded(p, 1e-12, DetRng::new(seed))
                    .take(64)
                    .collect();
                assert!(times.len() < 64, "{p:?} seed {seed}: stream never ended");
                assert!(times.iter().all(|&t| t < end), "{p:?}: {times:?}");
            }
        }
    }

    #[test]
    fn periodic_rate_oscillates() {
        let t = trace(ArrivalPattern::Periodic, 100.0, 100, 5);
        // Count arrivals in 1 s buckets; the spread must exceed Poisson noise.
        let mut buckets = vec![0u32; 100];
        for x in &t {
            buckets[(x.as_secs_f64() as usize).min(99)] += 1;
        }
        let max = *buckets.iter().max().expect("nonempty") as f64;
        let min = *buckets.iter().min().expect("nonempty") as f64;
        assert!(
            max > 2.0 * min.max(1.0),
            "no visible modulation: {max} vs {min}"
        );
    }
}
