//! `wf_v100_contended`: the six-workflow suite (batch 4) at Sporadic
//! 3 req/s per workflow on two DGX-V100 nodes under the full GROUTER plane,
//! as in `crates/bench/benches/e2e.rs`, with the trace lengthened from 4 s
//! to [`HORIZON_S`] so one run takes a measurable fraction of a second.

use std::sync::Arc;
use std::time::Instant;

use grouter::{GrouterConfig, GrouterPlane};
use grouter_llm::fnv64;
use grouter_obs::Comp;
use grouter_runtime::spec::WorkflowSpec;
use grouter_runtime::world::{RuntimeConfig, World};
use grouter_runtime::{DataPlane, InstanceRecord, Runtime};
use grouter_sim::rng::DetRng;
use grouter_sim::time::{SimDuration, SimTime};
use grouter_topology::presets;
use grouter_workloads::models::GpuClass;
use grouter_workloads::{generate_trace, suite, ArrivalPattern, WorkloadParams};

use crate::report::{half_p99s, quantile, Report, Values};
use crate::spans::{self, Kind, TimedPlane};
use crate::{Outcome, Phases, Rep, Workload};

/// Simulated seconds of arrivals.
pub const HORIZON_S: u64 = 480;
const RPS_PER_WORKFLOW: f64 = 3.0;

pub type Trace = Vec<(Arc<WorkflowSpec>, SimTime)>;

/// Open-loop arrivals of every suite workflow over `horizon_s`, merged in
/// time order (the generation of `benches/e2e.rs` with `seed`).
pub fn arrivals(seed: u64, horizon_s: u64) -> Trace {
    let specs = suite(WorkloadParams {
        batch: 4,
        gpu: GpuClass::V100,
    });
    let mut rng = DetRng::new(seed);
    let mut out = Vec::new();
    for (k, spec) in specs.iter().enumerate() {
        let mut sub = rng.fork(k as u64);
        for t in generate_trace(
            ArrivalPattern::Sporadic,
            RPS_PER_WORKFLOW,
            SimDuration::from_secs(horizon_s),
            &mut sub,
        ) {
            out.push((spec.clone(), t));
        }
    }
    out.sort_by_key(|&(_, t)| t);
    out
}

fn grouter() -> Box<dyn DataPlane> {
    Box::new(GrouterPlane::new(GrouterConfig::full()))
}

fn runtime(plane: Box<dyn DataPlane>, trace: bool) -> Runtime {
    Runtime::new(
        presets::dgx_v100(),
        2,
        plane,
        RuntimeConfig {
            trace,
            ..RuntimeConfig::default()
        },
    )
}

fn submit(rt: &mut Runtime, trace: &Trace) {
    for (spec, t) in trace {
        rt.submit(spec.clone(), *t);
    }
}

/// One timed repetition.
pub fn once(seed: u64) -> Rep {
    once_with(seed, HORIZON_S, grouter())
}

/// Set-up alone (the world is dropped), for extra set-up samples.
pub fn setup_only(seed: u64) -> Phases {
    prepare(seed, HORIZON_S, grouter()).2
}

/// Generate arrivals, build the world and submit them, timing each phase.
fn prepare(seed: u64, horizon_s: u64, plane: Box<dyn DataPlane>) -> (Runtime, Trace, Phases) {
    let t0 = Instant::now();
    let trace = arrivals(seed, horizon_s);
    let t1 = Instant::now();
    let mut rt = runtime(plane, false);
    let t2 = Instant::now();
    submit(&mut rt, &trace);
    let t3 = Instant::now();
    let phases = Phases {
        world: (t2 - t1).as_secs_f64(),
        trace_gen: Some((t1 - t0).as_secs_f64()),
        submit: Some((t3 - t2).as_secs_f64()),
    };
    (rt, trace, phases)
}

fn once_with(seed: u64, horizon_s: u64, plane: Box<dyn DataPlane>) -> Rep {
    let (mut rt, trace, phases) = prepare(seed, horizon_s, plane);
    let t = Instant::now();
    rt.run();
    let run_s = t.elapsed().as_secs_f64();
    Rep {
        phases,
        run_s,
        failed: rt.metrics().failed,
        out: outcome(rt.world(), rt.now(), &trace),
    }
}

/// Virtual-time results over per-instance records: latency quantiles, mean
/// data-passing time and the first-half/second-half p99 split.
pub fn records_model<'a>(records: impl Iterator<Item = &'a InstanceRecord>) -> Values {
    let mut lat = Vec::new();
    let mut passing = 0.0;
    let mut halves = Vec::new();
    for r in records {
        let ms = r.latency().as_millis_f64();
        lat.push(ms);
        passing += r.passing_total().as_millis_f64();
        halves.push((r.arrived.as_secs_f64(), ms));
    }
    let mut v = Values::default();
    v.set("model.latency_p50_ms", quantile(&lat, 0.5));
    v.set("model.latency_p99_ms", quantile(&lat, 0.99));
    v.set("model.passing_ms_mean", passing / lat.len().max(1) as f64);
    let (first, second) = half_p99s(halves);
    v.set("model.p99_first_half_ms", first);
    v.set("model.p99_second_half_ms", second);
    for absent in [
        "model.ttft_p50_ms",
        "model.ttft_p99_ms",
        "model.tbt_mean_ms",
    ] {
        v.absent(absent);
    }
    v
}

/// Digest and model outputs of a drained world.
pub fn outcome(w: &World, now: SimTime, trace: &Trace) -> Outcome {
    let last = trace.last().map_or(SimTime::ZERO, |x| x.1);
    let mut model = records_model(w.metrics.records().iter());
    model.set("model.sim_horizon_s", now.as_secs_f64());
    model.set("model.drain_lag_s", now.since(last).as_secs_f64());
    Outcome {
        arrivals: w.metrics.arrivals,
        completed: w.metrics.completed() as u64,
        sim_secs: now.as_secs_f64(),
        digest: fnv64(w.metrics.to_csv().as_bytes()),
        model,
    }
}

/// Untraced reference, allocation-counted run, then the traced run: every
/// `Simulation::step` and every plane call timed from outside.
pub fn traced(seed: u64, r: &mut Report) {
    let plain = once(seed);
    crate::account(r, "untraced", &plain.out, plain.failed);
    r.scored.extend(plain.phases.values());

    let trace = arrivals(seed, HORIZON_S);
    let mut rt = runtime(grouter(), false);
    submit(&mut rt, &trace);
    let ((), allocs, bytes) = crate::host::count_allocs(|| rt.run());
    let counted = outcome(rt.world(), rt.now(), &trace);
    crate::account(r, "counted", &counted, rt.metrics().failed);

    let mut rt = runtime(Box::new(TimedPlane::new(grouter())), true);
    submit(&mut rt, &trace);
    let mut sim = rt.into_sim();
    spans::start();
    let run = spans::open(Kind::Run);
    loop {
        let s = spans::open(Kind::Step);
        let more = sim.step();
        spans::close(s);
        if !more {
            break;
        }
    }
    spans::close(run);
    let mut log = spans::finish();
    // The last step found the queue empty: it dispatched nothing.
    log.spans.pop();
    let w = &sim.world;
    let out = outcome(w, sim.now(), &trace);
    crate::account(r, "traced", &out, w.metrics.failed);
    crate::check_digests_agree(r);
    crate::write_spans(r, Workload::Wf, &log);

    let run_ns = log.total_ns(Kind::Run) as f64;
    let completed = out.completed.max(1) as f64;
    let steps = log.durations(Kind::Step);
    let v = &mut r.scored;
    v.set("engine.events", steps.len() as f64);
    v.set("engine.events_per_request", steps.len() as f64 / completed);
    v.set("engine.step_ns_p50", quantile(&steps, 0.5));
    v.set("engine.step_ns_p99", quantile(&steps, 0.99));
    v.set(
        "runtime.dispatch_self_share",
        log.self_ns(Kind::Step) as f64 / run_ns,
    );
    v.set("runtime.data_ops_per_request", w.next_op as f64 / completed);
    v.set("runtime.rebalances", w.rebalances_applied as f64);
    v.extend(plane_values(&log, run_ns));
    let stats = w.plane.as_ref().map(|p| p.stats()).unwrap_or_default();
    v.set("plane.migrations", stats.migrations as f64);
    v.set("plane.restores", stats.restores as f64);
    v.set("plane.degraded_legs", stats.degraded_legs as f64);
    v.extend(world_values([w].into_iter(), &[w.rec.snapshot()]));
    for absent in [
        "shard.epochs",
        "shard.messages",
        "shard.requests_per_epoch",
        "shard.wall_us_per_epoch",
        "shard.w2_over_w1",
        "cluster.remote_share",
        "ctl.heartbeats_per_request",
        "llm.tokens",
        "llm.migrations",
        "llm.restores",
        "llm.restore_stalls",
        "llm.rematerialized",
    ] {
        v.absent(absent);
    }
    v.extend(crate::host_values(
        counted.completed,
        allocs,
        bytes,
        run_ns / 1e9 / plain.run_s,
    ));
    v.extend(out.model);
}

/// Plane-call metrics from a span log: share of the run phase, call counts,
/// mean/p99 call times, background-hook time and bytes per returned op.
pub fn plane_values(log: &spans::Log, run_ns: f64) -> Values {
    let mean = |k: Kind| log.total_ns(k) as f64 / log.calls(k).max(1) as f64;
    let mut v = Values::default();
    v.set("plane.share", log.plane_ns() as f64 / run_ns);
    v.set("plane.put_calls", log.calls(Kind::Put) as f64);
    v.set("plane.get_calls", log.calls(Kind::Get) as f64);
    v.set("plane.put_ns_mean", mean(Kind::Put));
    v.set("plane.get_ns_mean", mean(Kind::Get));
    v.set(
        "plane.get_ns_p99",
        quantile(&log.durations(Kind::Get), 0.99),
    );
    v.set(
        "plane.bg_ns_total",
        (log.total_ns(Kind::Consumed)
            + log.total_ns(Kind::MemoryChange)
            + log.total_ns(Kind::Request)) as f64,
    );
    v.set("plane.bytes_per_op", log.bytes / log.ops.max(1) as f64);
    v
}

/// Layer counters read from traced worlds: obs counters (plane, flownet,
/// store, mem), path-cache statistics and store lookup locality, summed
/// over `worlds` (whose recorder snapshots are `snaps`, in order).
pub fn world_values<'a>(
    worlds: impl Iterator<Item = &'a World>,
    snaps: &[grouter_obs::Trace],
) -> Values {
    let count = |c: Comp, n: &str| snaps.iter().map(|s| s.counter(c, n)).sum::<u64>() as f64;
    let (mut hits, mut misses, mut inval, mut local, mut global, mut ops) = (0, 0, 0, 0, 0, 0);
    for w in worlds {
        for l in &w.ledgers {
            let c = l.cache_stats();
            hits += c.hits;
            misses += c.misses;
            inval += c.invalidations;
        }
        let (lh, gl) = w.store.lookup_stats();
        local += lh;
        global += gl;
        ops += w.next_op;
    }
    let mut v = Values::default();
    v.set("plane.rate_clamps", count(Comp::Plane, "rate_clamps"));
    v.set(
        "plane.route_gpu_selections",
        count(Comp::Plane, "route_gpu_selections"),
    );
    v.set(
        "topology.path_cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    v.set("topology.path_cache_misses", misses as f64);
    v.set("topology.invalidations", inval as f64);
    let waves = count(Comp::Net, "realloc_waves");
    v.set("flownet.realloc_waves", waves);
    v.set("flownet.realloc_waves_per_op", waves / ops.max(1) as f64);
    let puts = count(Comp::Store, "puts");
    v.set("store.puts", puts);
    v.set("store.gets", count(Comp::Store, "gets"));
    v.set("store.grows", count(Comp::Store, "grows"));
    v.set("store.migrations", count(Comp::Store, "migrations"));
    v.set(
        "store.local_lookup_ratio",
        local as f64 / (local + global).max(1) as f64,
    );
    let native = count(Comp::Mem, "native_allocs");
    v.set("mem.native_allocs", native);
    v.set("mem.native_allocs_per_put", native / puts.max(1.0));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forwarding_plane_leaves_the_digest_unchanged() {
        let plain = once_with(5, 3, grouter());
        spans::start();
        let timed = once_with(5, 3, Box::new(TimedPlane::new(grouter())));
        let log = spans::finish();
        assert!(plain.out.completed > 0);
        assert_eq!(plain.out.completed, timed.out.completed);
        assert_eq!(plain.out.digest, timed.out.digest);
        assert!(log.calls(Kind::Put) > 0 && log.calls(Kind::Get) > 0);
    }

    #[test]
    fn seed_changes_the_trace_and_repeats_it() {
        let a = arrivals(1, 4);
        let b = arrivals(1, 4);
        let c = arrivals(2, 4);
        let key = |t: &Trace| t.iter().map(|x| x.1).collect::<Vec<_>>();
        assert_eq!(key(&a), key(&b));
        assert_ne!(key(&a), key(&c));
    }
}
