//! `llm_grouter`: `run_llm_serve` on the reference configuration with the
//! GROUTER plane, [`REQUESTS`] requests, one worker thread.
//!
//! `run_llm_serve` builds, runs and reports in one call and exposes neither
//! its end clock nor its set-up, so: set-up is timed as a zero-request
//! call, the simulated span is the arrival horizon redrawn from the same
//! seed, and drain lag is not observable.

use std::time::Instant;

use grouter_llm::{run_llm_serve, LlmReport, LlmServeConfig, PlaneKind};
use grouter_sim::rng::DetRng;
use grouter_sim::shard::RunStats;
use grouter_workloads::OpenLoopGen;

use crate::report::{Report, Values};
use crate::{Outcome, Phases, Rep};

/// Requests per run.
pub const REQUESTS: u64 = 10_000;

fn config(seed: u64, requests: u64, threads: usize) -> LlmServeConfig {
    LlmServeConfig {
        seed,
        requests,
        threads,
        ..LlmServeConfig::reference(PlaneKind::Grouter)
    }
}

/// Simulated time of the last of [`REQUESTS`] arrivals: the open-loop
/// stream `run_llm_serve` draws from `seed` (its generator is the first
/// fork of the seed's stream).
pub fn arrival_horizon(seed: u64) -> f64 {
    let cfg = config(seed, REQUESTS, 1);
    let mut rng = DetRng::new(seed);
    OpenLoopGen::unbounded(cfg.pattern, cfg.rps, rng.fork(1))
        .take(REQUESTS as usize)
        .last()
        .map_or(0.0, |t| t.as_secs_f64())
}

/// p99 TTFT of a run over only the first half of the requests (the same
/// arrival prefix). Against the full run's p99 it shows whether the
/// backlog grows over the trace.
pub fn first_half_ttft_p99_ms(seed: u64) -> f64 {
    run_llm_serve(&config(seed, REQUESTS / 2, 1))
        .metrics
        .ttft
        .p99()
        * 1e3
}

/// Set-up alone: a zero-request call, i.e. world build, the first arrival
/// draw and an empty report.
pub fn setup_only(seed: u64) -> Phases {
    let t = Instant::now();
    let report = run_llm_serve(&config(seed, 0, 1));
    assert_eq!(
        report.completed + report.failed,
        0,
        "a zero-request run serves nothing"
    );
    Phases {
        world: t.elapsed().as_secs_f64(),
        trace_gen: None,
        submit: None,
    }
}

/// One timed repetition.
pub fn once(seed: u64, horizon: f64) -> Rep {
    let phases = setup_only(seed);
    let t1 = Instant::now();
    let report = run_llm_serve(&config(seed, REQUESTS, 1));
    let run_s = t1.elapsed().as_secs_f64();
    Rep {
        phases,
        run_s,
        failed: report.failed,
        out: outcome(&report, REQUESTS, horizon),
    }
}

fn outcome(report: &LlmReport, requests: u64, horizon: f64) -> Outcome {
    let m = &report.metrics;
    let mut model = Values::default();
    model.set("model.ttft_p50_ms", m.ttft.p50() * 1e3);
    model.set("model.ttft_p99_ms", m.ttft.p99() * 1e3);
    model.set("model.tbt_mean_ms", m.tbt.mean() * 1e3);
    for absent in [
        "model.latency_p50_ms",
        "model.latency_p99_ms",
        "model.passing_ms_mean",
        "model.sim_horizon_s",
        "model.drain_lag_s",
        "model.p99_second_half_ms",
    ] {
        model.absent(absent);
    }
    Outcome {
        arrivals: requests,
        completed: report.completed,
        sim_secs: horizon,
        digest: report.digest,
        model,
    }
}

fn timed_run(seed: u64, threads: usize) -> (LlmReport, f64) {
    let t = Instant::now();
    let report = run_llm_serve(&config(seed, REQUESTS, threads));
    (report, t.elapsed().as_secs_f64())
}

/// Untraced reference, allocation-counted run and a two-thread run. The
/// plane runs with its recorder disabled, so plane and store counters are
/// absent here; the layer numbers come from the run report.
pub fn traced(seed: u64, r: &mut Report) {
    let horizon = arrival_horizon(seed);
    let plain = once(seed, horizon);
    crate::account(r, "untraced", &plain.out, plain.failed);
    r.scored.extend(plain.phases.values());

    let ((report, counted_s), allocs, bytes) = crate::host::count_allocs(|| timed_run(seed, 1));
    let counted = outcome(&report, REQUESTS, horizon);
    crate::account(r, "counted", &counted, report.failed);

    let (two, two_s) = timed_run(seed, 2);
    let out2 = outcome(&two, REQUESTS, horizon);
    crate::account(r, "threads2", &out2, two.failed);
    crate::check_digests_agree(r);

    let v = &mut r.scored;
    let m = &report.metrics;
    v.set("llm.tokens", m.tokens as f64);
    v.set("llm.migrations", report.migrations as f64);
    v.set("llm.restores", report.restores as f64);
    v.set("llm.restore_stalls", m.restore_stalls as f64);
    v.set("llm.rematerialized", m.rematerialized as f64);
    let stats = RunStats {
        epochs: report.epochs,
        messages: report.messages,
    };
    v.extend(crate::serve::shard_values(
        &stats,
        report.completed,
        plain.run_s,
        two_s,
    ));
    v.extend(crate::host_values(
        report.completed,
        allocs,
        bytes,
        counted_s / plain.run_s,
    ));
    const BYPASSED: [&str; 9] = [
        "engine.",
        "runtime.",
        "plane.",
        "topology.",
        "flownet.",
        "store.",
        "mem.",
        "cluster.",
        "ctl.",
    ];
    for &(name, _) in crate::report::PER_LAYER {
        if BYPASSED.iter().any(|p| name.starts_with(p)) {
            v.absent(name);
        }
    }
    v.extend(counted.model);
    v.set("model.p99_first_half_ms", first_half_ttft_p99_ms(seed));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_horizon_is_seeded() {
        assert_eq!(arrival_horizon(4), arrival_horizon(4));
        assert_ne!(arrival_horizon(4), arrival_horizon(5));
        // 10k requests at 20 req/s span roughly 500 s.
        let h = arrival_horizon(4);
        assert!((400.0..600.0).contains(&h), "{h}");
    }
}
