//! `serve_uniform64`: the `serve` subcommand's defaults (Sporadic at
//! 400 req/s, 50 ms heartbeats, no faults) on the uniform 64-GPU preset,
//! 200k invocations, one worker thread. The cluster is assembled the way
//! `ServiceSim::build` does it (`service_setups` + `HeartbeatRouter` on the
//! router group + `ClusterSim::new`), except that the router's arrivals are
//! drawn up front so generation is set-up work.

use std::time::Instant;

use grouter_ctl::HeartbeatRouter;
use grouter_llm::fnv64;
use grouter_obs::Comp;
use grouter_runtime::simple_plane::LocalityPlane;
use grouter_runtime::{ArrivalSource, ClusterArrival, ClusterSim, DataPlane};
use grouter_sim::params;
use grouter_sim::shard::RunStats;
use grouter_sim::time::{SimDuration, SimTime};
use grouter_workloads::cluster::{service_setups, ClusterPreset, ROUTER_GROUP};
use grouter_workloads::ArrivalPattern;

use crate::report::{Report, Values};
use crate::spans::{self, Kind, TimedPlane};
use crate::{Outcome, Phases, Rep, Workload};

/// Invocations in the trace.
pub const TOTAL: u64 = 200_000;
const RPS: f64 = 400.0;
const HB: SimDuration = params::HEARTBEAT_INTERVAL;

/// Arrivals drawn before the run, replayed in order.
struct Pregenerated(std::vec::IntoIter<ClusterArrival>);

impl ArrivalSource for Pregenerated {
    fn next(&mut self) -> Option<ClusterArrival> {
        self.0.next()
    }
}

struct Built {
    sim: ClusterSim,
    last_arrival: SimTime,
    phases: Phases,
}

fn build(seed: u64, total: u64, plane: fn() -> Box<dyn DataPlane>, trace: bool) -> Built {
    let t0 = Instant::now();
    let mut setups = service_setups(
        &ClusterPreset::uniform_64(),
        ArrivalPattern::Sporadic,
        RPS,
        total,
        seed,
        HB,
        |_| plane(),
    );
    let t1 = Instant::now();
    let router = ROUTER_GROUP as usize;
    let mut source = setups[router]
        .source
        .take()
        .expect("service mode feeds the router group");
    let mut arrivals = Vec::with_capacity(total as usize);
    while let Some(a) = source.next() {
        arrivals.push(a);
    }
    let last_arrival = arrivals.last().map_or(SimTime::ZERO, |a| a.at);
    setups[router].source = Some(Box::new(Pregenerated(arrivals.into_iter())));
    let t2 = Instant::now();
    let groups = setups.len() as u32;
    setups[router].agent = Some(Box::new(HeartbeatRouter::new(groups, HB)));
    for s in &mut setups {
        s.config.trace = trace;
    }
    let sim = ClusterSim::new(seed, setups);
    let t3 = Instant::now();
    Built {
        sim,
        last_arrival,
        phases: Phases {
            // Workflow registration happens inside `ClusterSim::new`, so it
            // is part of the world phase here.
            world: ((t1 - t0) + (t3 - t2)).as_secs_f64(),
            trace_gen: Some((t2 - t1).as_secs_f64()),
            submit: None,
        },
    }
}

fn locality() -> Box<dyn DataPlane> {
    Box::new(LocalityPlane::new())
}

fn timed_locality() -> Box<dyn DataPlane> {
    Box::new(TimedPlane::new(locality()))
}

/// Set-up alone (the cluster is dropped), for extra set-up samples.
pub fn setup_only(seed: u64) -> Phases {
    build(seed, TOTAL, locality, false).phases
}

/// One timed repetition.
pub fn once(seed: u64) -> Rep {
    once_with(seed, TOTAL, locality, 1).0
}

fn once_with(
    seed: u64,
    total: u64,
    plane: fn() -> Box<dyn DataPlane>,
    threads: usize,
) -> (Rep, RunStats) {
    let mut b = build(seed, total, plane, false);
    let t = Instant::now();
    let stats = b.sim.run(threads);
    let run_s = t.elapsed().as_secs_f64();
    let rep = Rep {
        phases: b.phases,
        run_s,
        failed: b.sim.failed(),
        out: outcome(&b.sim, b.last_arrival),
    };
    (rep, stats)
}

fn outcome(sim: &ClusterSim, last_arrival: SimTime) -> Outcome {
    let end = (0..sim.groups())
        .map(|g| sim.now(g))
        .max()
        .unwrap_or(SimTime::ZERO);
    let mut model = crate::wf::records_model(
        (0..sim.groups()).flat_map(|g| sim.world(g).metrics.records().iter()),
    );
    model.set("model.sim_horizon_s", end.as_secs_f64());
    model.set("model.drain_lag_s", end.since(last_arrival).as_secs_f64());
    // The CLI's three digests (per-request CSV, admission log, recovery
    // log), folded into one.
    let mut bytes = sim.merged_csv().into_bytes();
    bytes.extend_from_slice(sim.admission_log().unwrap_or_default().as_bytes());
    bytes.extend_from_slice(sim.merged_recovery_log().as_bytes());
    Outcome {
        arrivals: sim.arrivals(),
        completed: sim.completed() as u64,
        sim_secs: end.as_secs_f64(),
        digest: fnv64(&bytes),
        model,
    }
}

/// Untraced reference, allocation-counted run, traced run (plane calls
/// timed, obs counters on) and a two-thread run.
pub fn traced(seed: u64, r: &mut Report) {
    let (plain, stats) = once_with(seed, TOTAL, locality, 1);
    crate::account(r, "untraced", &plain.out, plain.failed);
    r.scored.extend(plain.phases.values());

    let mut b = build(seed, TOTAL, locality, false);
    let (_, allocs, bytes) = crate::host::count_allocs(|| b.sim.run(1));
    let counted = outcome(&b.sim, b.last_arrival);
    crate::account(r, "counted", &counted, b.sim.failed());
    drop(b);

    let mut b = build(seed, TOTAL, timed_locality, true);
    spans::start();
    let run = spans::open(Kind::Run);
    b.sim.run(1);
    spans::close(run);
    let log = spans::finish();
    let sim = &b.sim;
    let out = outcome(sim, b.last_arrival);
    crate::account(r, "traced", &out, sim.failed());
    crate::write_spans(r, Workload::Serve, &log);

    let (two, _) = once_with(seed, TOTAL, locality, 2);
    crate::account(r, "threads2", &two.out, two.failed);
    crate::check_digests_agree(r);

    let run_ns = log.total_ns(Kind::Run) as f64;
    let completed = out.completed.max(1) as f64;
    let arrivals = out.arrivals.max(1) as f64;
    let worlds = || (0..sim.groups()).map(|g| sim.world(g));
    let snaps: Vec<_> = worlds().map(|w| w.rec.snapshot()).collect();
    let ctl = |n: &str| snaps.iter().map(|s| s.counter(Comp::Ctl, n)).sum::<u64>() as f64;
    let v = &mut r.scored;
    for absent in [
        "engine.events",
        "engine.events_per_request",
        "engine.step_ns_p50",
        "engine.step_ns_p99",
        "llm.tokens",
        "llm.migrations",
        "llm.restores",
        "llm.restore_stalls",
        "llm.rematerialized",
    ] {
        v.absent(absent);
    }
    // No step loop here: everything outside plane calls (shard windows,
    // dispatch, FlowNet, placement, control plane) is one self-time bucket.
    v.set(
        "runtime.dispatch_self_share",
        (run_ns - log.plane_ns() as f64) / run_ns,
    );
    v.set(
        "runtime.data_ops_per_request",
        worlds().map(|w| w.next_op).sum::<u64>() as f64 / completed,
    );
    v.set(
        "runtime.rebalances",
        worlds().map(|w| w.rebalances_applied).sum::<u64>() as f64,
    );
    v.extend(crate::wf::plane_values(&log, run_ns));
    let (mut mig, mut res, mut deg) = (0, 0, 0);
    for w in worlds() {
        let s = w.plane.as_ref().map(|p| p.stats()).unwrap_or_default();
        mig += s.migrations;
        res += s.restores;
        deg += s.degraded_legs;
    }
    v.set("plane.migrations", mig as f64);
    v.set("plane.restores", res as f64);
    v.set("plane.degraded_legs", deg as f64);
    v.extend(crate::wf::world_values(worlds(), &snaps));
    v.extend(shard_values(&stats, out.completed, plain.run_s, two.run_s));
    v.set(
        "cluster.remote_share",
        ctl("route_remote") / ctl("admit").max(1.0),
    );
    let (hb_sent, _, _) = sim.heartbeat_stats();
    v.set("ctl.heartbeats_per_request", hb_sent as f64 / arrivals);
    v.extend(crate::host_values(
        counted.completed,
        allocs,
        bytes,
        run_ns / 1e9 / plain.run_s,
    ));
    v.extend(out.model);
}

/// Sharded-engine metrics from a one-thread run's counters and the wall
/// times of the one- and two-thread runs.
pub fn shard_values(stats: &RunStats, completed: u64, wall1: f64, wall2: f64) -> Values {
    let epochs = stats.epochs.max(1) as f64;
    let mut v = Values::default();
    v.set("shard.epochs", stats.epochs as f64);
    v.set("shard.messages", stats.messages as f64);
    v.set("shard.requests_per_epoch", completed as f64 / epochs);
    v.set("shard.wall_us_per_epoch", wall1 * 1e6 / epochs);
    v.set("shard.w2_over_w1", wall1 / wall2);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pregenerated_arrivals_match_the_service_facade() {
        let total = 600;
        let (rep, _) = once_with(3, total, locality, 1);
        let cfg = grouter_ctl::ServiceConfig {
            total,
            seed: 3,
            rps: RPS,
            hb_interval: HB,
            ..grouter_ctl::ServiceConfig::default()
        };
        let mut svc = grouter_ctl::ServiceSim::build(&ClusterPreset::uniform_64(), &cfg);
        svc.run(1);
        let mut bytes = svc.merged_csv().into_bytes();
        bytes.extend_from_slice(svc.admission_log().as_bytes());
        bytes.extend_from_slice(svc.merged_recovery_log().as_bytes());
        assert_eq!(rep.out.arrivals, total);
        assert_eq!(rep.out.digest, fnv64(&bytes));
        let (timed, _) = once_with(3, total, timed_locality, 1);
        assert_eq!(timed.out.digest, rep.out.digest);
    }
}
