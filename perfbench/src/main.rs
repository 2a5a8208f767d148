//! `perfbench`: host-time benchmark of the GROUTER simulator.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the workload is set up and run again and again until
//! `--seconds` have passed (at least [`MIN_REPS`] times), untraced, and the
//! end-to-end metrics summarise those repetitions. With `--trace 1`
//! one untraced run, one allocation-counted run and one traced run (plus a
//! two-thread run for the sharded modes) give the per-layer metrics. Every
//! run checks its simulated output; see `README.md` beside this crate.

mod host;
mod llm;
mod report;
mod serve;
mod spans;
mod wf;

use std::time::Instant;

use report::{interquartile_mean, median, Report, Values};

#[global_allocator]
static ALLOC: host::Counting = host::Counting;

/// Fewest timed repetitions a `--trace 0` run makes, however short
/// `--seconds` is.
const MIN_REPS: usize = 3;

/// Set-ups per repetition: all but the last are timed and dropped, so
/// `setup_s` is a median over several samples even when runs are long.
const SETUPS_PER_REP: usize = 5;

/// The benchmark's workloads, in `BENCHMARK.json` order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Wf,
    Serve,
    Llm,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Wf, Workload::Serve, Workload::Llm];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Wf => "wf_v100_contended",
            Workload::Serve => "serve_uniform64",
            Workload::Llm => "llm_grouter",
        }
    }
}

/// Host seconds of each set-up phase; `None` where the phase happens inside
/// a call the benchmark cannot split.
#[derive(Clone, Copy, Debug, Default)]
pub struct Phases {
    pub world: f64,
    pub trace_gen: Option<f64>,
    pub submit: Option<f64>,
}

impl Phases {
    pub fn total(&self) -> f64 {
        self.world + self.trace_gen.unwrap_or(0.0) + self.submit.unwrap_or(0.0)
    }

    pub fn values(&self) -> Values {
        let mut v = Values::default();
        v.set("setup.world_s", self.world);
        v.put("setup.trace_gen_s", self.trace_gen);
        v.put("setup.submit_s", self.submit);
        v
    }
}

/// What one simulation produced.
#[derive(Debug)]
pub struct Outcome {
    pub arrivals: u64,
    pub completed: u64,
    /// Simulated seconds the run covered.
    pub sim_secs: f64,
    /// FNV-1a of the run's deterministic output.
    pub digest: u64,
    /// Virtual-time results (`model.*`).
    pub model: Values,
}

impl Outcome {
    pub fn drained(&self, failed: u64) -> bool {
        self.completed + failed == self.arrivals
    }
}

/// One timed repetition: set-up phases, run-phase wall time, outcome.
#[derive(Debug)]
pub struct Rep {
    pub phases: Phases,
    pub run_s: f64,
    /// Requests the program itself reported as failed.
    pub failed: u64,
    pub out: Outcome,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == val)
                        .ok_or_else(|| format!("unknown workload {val}"))?,
                )
            }
            "--seed" => seed = Some(val.parse().map_err(|_| format!("bad seed {val}"))?),
            "--seconds" => {
                let s: f64 = val.parse().map_err(|_| format!("bad seconds {val}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {val}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {val}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            std::process::exit(2);
        }
    };
    let report = if args.trace {
        traced(args.workload, args.seed)
    } else {
        timed(args.workload, args.seed, args.seconds)
    };
    println!("{}", report.detail_line());
    println!("{}", report.result_line());
}

/// Repeat set-up + run until `seconds` have passed; report interquartile
/// means of speed-normalised rates (see [`host::calibrate`]) and the median
/// set-up time.
fn timed(w: Workload, seed: u64, seconds: f64) -> Report {
    let llm_horizon = (w == Workload::Llm).then(|| llm::arrival_horizon(seed));
    let once = || match w {
        Workload::Wf => wf::once(seed),
        Workload::Serve => serve::once(seed),
        Workload::Llm => llm::once(seed, llm_horizon.unwrap_or_default()),
    };
    let setup_only = || match w {
        Workload::Wf => wf::setup_only(seed),
        Workload::Serve => serve::setup_only(seed),
        Workload::Llm => llm::setup_only(seed),
    };
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    // Host speed before the first repetition and after each one.
    let mut speed = vec![host::calibrate()];
    let mut setups: Vec<Vec<f64>> = Vec::new();
    let mut peak_rss = None;
    while reps.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        let mut s: Vec<f64> = (1..SETUPS_PER_REP).map(|_| setup_only().total()).collect();
        let rep = once();
        s.push(rep.phases.total());
        setups.push(s);
        reps.push(rep);
        speed.push(host::calibrate());
        if reps.len() == 1 {
            // The peak of one set-up and run. Later repetitions only add
            // allocator fragmentation, which grows with run length.
            peak_rss = host::peak_rss_mb();
        }
    }
    // Repetition i ran between calibrations i and i + 1. Multiplying a
    // rate (dividing a duration) by its scale quotes it at the reference
    // host speed.
    let scale: Vec<f64> = (0..reps.len())
        .map(|i| (speed[i] + speed[i + 1]) / 2.0 / host::REFERENCE_MS)
        .collect();

    let mut r = Report {
        workload: w.name(),
        seed,
        reps: reps.len(),
        ..Report::default()
    };
    for rep in &reps {
        r.attempted += rep.out.arrivals;
        r.failed += rep.out.arrivals.saturating_sub(rep.out.completed);
    }
    r.check("drained", reps.iter().all(|x| x.out.drained(x.failed)));
    let d0 = reps[0].out.digest;
    r.check("digest_repeats", reps.iter().all(|x| x.out.digest == d0));
    r.digests.push(("timed".into(), d0));

    let normalised = |f: &dyn Fn(&Rep) -> f64| {
        let v: Vec<f64> = reps.iter().zip(&scale).map(|(x, k)| f(x) * k).collect();
        interquartile_mean(&v)
    };
    r.rep_rates = reps
        .iter()
        .map(|x| x.out.completed as f64 / x.run_s)
        .collect();
    r.calibration_ms = speed;
    r.scored.set(
        "requests_per_sec",
        normalised(&|x| x.out.completed as f64 / x.run_s),
    );
    r.scored.set(
        "sim_sec_per_wall_sec",
        normalised(&|x| x.out.sim_secs / x.run_s),
    );
    let setup: Vec<f64> = setups
        .iter()
        .zip(&scale)
        .flat_map(|(s, k)| s.iter().map(move |t| t / k))
        .collect();
    r.scored.set("setup_s", median(&setup));
    r.scored.put("peak_rss_mb", peak_rss);

    let last = reps.pop().expect("at least MIN_REPS repetitions");
    r.model = last.out.model;
    if w == Workload::Llm {
        r.model
            .set("model.p99_first_half_ms", llm::first_half_ttft_p99_ms(seed));
    }
    r
}

/// The per-layer run: untraced reference, allocation-counted and traced
/// runs of one workload.
fn traced(w: Workload, seed: u64) -> Report {
    let mut r = Report {
        workload: w.name(),
        seed,
        trace: true,
        ..Report::default()
    };
    match w {
        Workload::Wf => wf::traced(seed, &mut r),
        Workload::Serve => serve::traced(seed, &mut r),
        Workload::Llm => llm::traced(seed, &mut r),
    }
    r
}

/// Record one simulation of a traced run in `r`: its requests, its digest
/// and its drain check.
pub fn account(r: &mut Report, label: &str, out: &Outcome, failed: u64) {
    r.attempted += out.arrivals;
    r.failed += out.arrivals.saturating_sub(out.completed);
    r.reps += 1;
    r.digests.push((label.to_string(), out.digest));
    r.check(format!("{label}_drained"), out.drained(failed));
}

/// Check that every recorded digest equals the first.
pub fn check_digests_agree(r: &mut Report) {
    let first = r.digests.first().map(|d| d.1);
    let ok = r.digests.iter().all(|d| Some(d.1) == first);
    r.check("digests_agree", ok);
}

/// Where the traced run writes its spans, relative to the working
/// directory (the checkout root when run as `BENCHMARK.json` says).
pub fn spans_path(w: Workload) -> std::path::PathBuf {
    std::path::Path::new("perfbench/out").join(format!("{}.spans.tsv", w.name()))
}

/// Most spans a traced run writes out (a `serve` run records ~2M plane
/// calls; the metrics are computed from all of them in memory).
const SPANS_WRITTEN: usize = 500_000;

/// Write a traced run's spans and note whether that worked.
pub fn write_spans(r: &mut Report, w: Workload, log: &spans::Log) {
    let ok = log.write_tsv(&spans_path(w), SPANS_WRITTEN).is_ok();
    r.check("spans_written", ok);
}

/// Per-layer values every traced run derives from its allocation-counted
/// run and its traced/untraced wall times.
pub fn host_values(completed: u64, allocs: u64, bytes: u64, overhead: f64) -> Values {
    let mut v = Values::default();
    let n = completed.max(1) as f64;
    v.set("host.allocs_per_request", allocs as f64 / n);
    v.set("host.alloc_bytes_per_request", bytes as f64 / n);
    v.set("trace.overhead_ratio", overhead);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn args_parse_and_reject() {
        let a = args("--workload serve_uniform64 --seed 9 --seconds 10 --trace 1").expect("valid");
        assert_eq!(a.workload, Workload::Serve);
        assert_eq!(a.seed, 9);
        assert!(a.trace);
        assert_eq!(a.seconds, 10.0);
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload llm_grouter").is_err());
        assert!(args("--workload llm_grouter --seed 1 --trace 2").is_err());
        assert!(args("--workload llm_grouter --seed 1 --seconds 0").is_err());
        assert!(args("--workload llm_grouter --seed").is_err());
    }
}
