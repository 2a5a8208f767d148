//! Chaos property suite for the fault-injection/recovery engine (ISSUE 4).
//!
//! Each case runs the full GROUTER plane under a sporadic `traffic` trace
//! (8 req/s over 2 s: 14–20 arrivals for each sweep seed) with a
//! seed-derived randomized [`FaultPlan`] whose faults land inside the same
//! window, and asserts the recovery contract from DESIGN.md §5.4:
//!
//! * **live work** — the trace brings at least [`MIN_ARRIVALS`] requests,
//!   so the faults race real transfers rather than an idle cluster;
//! * **termination** — every arrival ends as exactly one completion or one
//!   typed failure; the world drains to quiescence (no silent stalls);
//! * **no leaks** — pools, scalers, ledgers, and the object store are all
//!   empty once the last instance terminates;
//! * **determinism** — re-running the same seed reproduces the metrics CSV
//!   and the recovery log byte-for-byte.
//!
//! Every assertion message carries the seed. Replay a failure with
//! `GROUTER_CHAOS_SEED=<seed> cargo test -p grouter-integration-tests
//! --test chaos` — when the env var is set, only that seed runs (on both
//! topologies).

use grouter::runtime::world::RuntimeConfig;
use grouter::runtime::{RecoveryEvent, Runtime};
use grouter::sim::fault::{FaultDomain, FaultPlan, FaultPlanConfig};
use grouter::sim::rng::DetRng;
use grouter::sim::time::{SimDuration, SimTime};
use grouter::sim::LinkId;
use grouter::topology::graph::TopologySpec;
use grouter::topology::presets;
use grouter::{GrouterConfig, GrouterPlane};
use grouter_ctl::{ServiceConfig, ServiceSim};
use grouter_workloads::apps::{suite, traffic, WorkloadParams};
use grouter_workloads::azure::{generate_trace, ArrivalPattern};
use grouter_workloads::cluster::ClusterPreset;
use grouter_workloads::models::GpuClass;

/// How long the trace keeps arriving; faults land inside the same window so
/// recovery always races live work.
const TRACE_SECS: u64 = 2;
const RPS: f64 = 8.0;

/// Fewest arrivals a chaos case may fault. A bursty trace at this rate gave
/// some sweep seeds one to three requests, which left the faults almost
/// nothing to race.
const MIN_ARRIVALS: u64 = 10;

/// Harvested fault targets: every GPU/node/NIC, plus the NIC links and the
/// D2H chains of the first few GPUs as degrade/restore candidates.
fn domain_of(rt: &Runtime) -> FaultDomain {
    let topo = &rt.world().topo;
    let mut links: Vec<LinkId> = Vec::new();
    for node in 0..topo.num_nodes() {
        for nic in 0..topo.num_nics() {
            let (tx, rx) = topo.nic_links(node, nic);
            links.push(tx);
            links.push(rx);
        }
        for gpu in 0..topo.gpus_per_node().min(4) {
            links.extend(topo.d2h_path(node, gpu));
        }
    }
    FaultDomain {
        gpus: topo.num_gpus(),
        nodes: topo.num_nodes(),
        nics_per_node: topo.num_nics(),
        links,
    }
}

/// One chaos run; returns the runtime (drained) and the plan it absorbed.
fn chaos_run(seed: u64, topo: TopologySpec, gpu: GpuClass) -> (Runtime, FaultPlan) {
    chaos_run_with(seed, topo, gpu, RuntimeConfig::default())
}

fn chaos_run_with(
    seed: u64,
    topo: TopologySpec,
    gpu: GpuClass,
    config: RuntimeConfig,
) -> (Runtime, FaultPlan) {
    let spec = traffic(WorkloadParams { batch: 4, gpu });
    let mut rt = Runtime::new(
        topo,
        1,
        Box::new(GrouterPlane::new(GrouterConfig::full())),
        config,
    );
    let mut rng = DetRng::new(seed);
    for t in generate_trace(
        ArrivalPattern::Sporadic,
        RPS,
        SimDuration::from_secs(TRACE_SECS),
        &mut rng,
    ) {
        rt.submit(spec.clone(), t);
    }
    let plan = FaultPlan::randomized(
        seed,
        &domain_of(&rt),
        &FaultPlanConfig {
            horizon: SimDuration::from_secs(TRACE_SECS),
            faults: 5,
            ..FaultPlanConfig::default()
        },
    );
    rt.install_fault_plan(&plan);
    rt.run();
    (rt, plan)
}

/// The recovery contract every chaos run must satisfy at drain.
fn assert_contract(rt: &Runtime, seed: u64, plan: &FaultPlan) {
    let m = rt.metrics();
    let w = rt.world();
    assert!(
        m.arrivals >= MIN_ARRIVALS,
        "seed {seed}: {} arrivals leave the faults no live work to race",
        m.arrivals
    );
    assert_eq!(
        m.completed() as u64 + m.failed,
        m.arrivals,
        "seed {seed}: arrivals must all terminate (plan: {:?})",
        plan.events()
    );
    assert!(w.quiescent(), "seed {seed}: world did not drain");
    assert!(w.ledgers_idle(), "seed {seed}: NVLink bandwidth leaked");
    assert!(
        w.store.is_empty(),
        "seed {seed}: {} object(s) leaked in the store",
        w.store.len()
    );
    for (idx, pool) in w.pools.iter().enumerate() {
        assert!(
            pool.used() == 0.0 && pool.runtime_used() == 0.0,
            "seed {seed}: pool {idx} leaked (used {}, runtime {})",
            pool.used(),
            pool.runtime_used()
        );
    }
    for (idx, scaler) in w.scalers.iter().enumerate() {
        assert_eq!(
            scaler.total_live_outputs(),
            0,
            "seed {seed}: scaler {idx} still counts live outputs"
        );
    }
}

/// Seeds to sweep: the env override when set, otherwise a fixed batch.
fn seeds() -> Vec<u64> {
    if let Ok(s) = std::env::var("GROUTER_CHAOS_SEED") {
        let seed = s
            .parse::<u64>()
            .expect("GROUTER_CHAOS_SEED must be an integer seed");
        return vec![seed];
    }
    (1..=6).map(|i| 0xC4A0_5000 + i).collect()
}

fn sweep(topo: fn() -> TopologySpec, gpu: GpuClass) {
    for seed in seeds() {
        let (rt, plan) = chaos_run(seed, topo(), gpu);
        assert_contract(&rt, seed, &plan);
    }
}

#[test]
fn chaos_traffic_v100_terminates_without_leaks() {
    sweep(presets::dgx_v100, GpuClass::V100);
}

#[test]
fn chaos_executor_tables_stay_the_size_of_the_live_set() {
    // The executor keeps instances and ops in windows over their monotone
    // ids, so a window spans the live ids and the holes between them, not
    // every id ever issued. Step a faulted run of the six-workflow suite
    // (retries and lineage replays included) by hand and bound both
    // windows after every event by twice the most slots they were measured
    // to hold: 15 op slots for at most 11 live ops, and 18 instance slots
    // for at most 12 live instances.
    const OPS_MAX_SPAN: usize = 2 * 15;
    const INSTANCES_MAX_SPAN: usize = 2 * 18;
    let seed = 0xC4A0_5001;
    let mut rt = Runtime::new(
        presets::dgx_v100(),
        1,
        Box::new(GrouterPlane::new(GrouterConfig::full())),
        RuntimeConfig::default(),
    );
    let mut rng = DetRng::new(seed);
    let horizon = SimDuration::from_secs(TRACE_SECS);
    for spec in suite(WorkloadParams {
        batch: 4,
        gpu: GpuClass::V100,
    }) {
        for t in generate_trace(ArrivalPattern::Sporadic, RPS, horizon, &mut rng) {
            rt.submit(spec.clone(), t);
        }
    }
    let plan = FaultPlan::randomized(
        seed,
        &domain_of(&rt),
        &FaultPlanConfig {
            horizon,
            faults: 5,
            ..FaultPlanConfig::default()
        },
    );
    rt.install_fault_plan(&plan);
    let mut sim = rt.into_sim();
    while sim.step() {
        let w = &sim.world;
        assert!(
            w.ops.span() <= OPS_MAX_SPAN && w.instances.span() <= INSTANCES_MAX_SPAN,
            "seed {seed}: {} op slots for {} live ops, {} instance slots for {} live \
             instances (plan: {:?})",
            w.ops.span(),
            w.ops.len(),
            w.instances.span(),
            w.instances.len(),
            plan.events()
        );
    }
    let w = &sim.world;
    assert!(
        w.ops.is_empty() && w.instances.is_empty(),
        "seed {seed}: work left behind"
    );
    assert_eq!(
        (w.ops.span(), w.instances.span()),
        (0, 0),
        "seed {seed}: slots left behind"
    );
}

#[test]
fn chaos_traffic_a100_terminates_without_leaks() {
    sweep(presets::dgx_a100, GpuClass::A100);
}

/// Cross-node: two V100 boxes so NIC failures and cross-node re-plans are
/// actually on the fault path.
#[test]
fn chaos_traffic_two_node_terminates_without_leaks() {
    for seed in seeds() {
        let spec = traffic(WorkloadParams {
            batch: 4,
            gpu: GpuClass::V100,
        });
        let mut rt = Runtime::new(
            presets::dgx_v100(),
            2,
            Box::new(GrouterPlane::new(GrouterConfig::full())),
            RuntimeConfig::default(),
        );
        let mut rng = DetRng::new(seed);
        for t in generate_trace(
            ArrivalPattern::Sporadic,
            RPS,
            SimDuration::from_secs(TRACE_SECS),
            &mut rng,
        ) {
            rt.submit(spec.clone(), t);
        }
        let plan = FaultPlan::randomized(
            seed,
            &domain_of(&rt),
            &FaultPlanConfig {
                horizon: SimDuration::from_secs(TRACE_SECS),
                faults: 5,
                ..FaultPlanConfig::default()
            },
        );
        rt.install_fault_plan(&plan);
        rt.run();
        assert_contract(&rt, seed, &plan);
    }
}

/// Same seed twice → byte-identical metrics CSV, identical recovery log.
#[test]
fn chaos_same_seed_replays_byte_identically() {
    for seed in seeds() {
        let (a, _) = chaos_run(seed, presets::dgx_v100(), GpuClass::V100);
        let (b, _) = chaos_run(seed, presets::dgx_v100(), GpuClass::V100);
        assert_eq!(
            a.metrics().to_csv(),
            b.metrics().to_csv(),
            "seed {seed}: metrics CSV diverged between identical runs"
        );
        assert_eq!(
            a.metrics().failed,
            b.metrics().failed,
            "seed {seed}: failure count diverged"
        );
        assert_eq!(
            a.world().recovery_log(),
            b.world().recovery_log(),
            "seed {seed}: recovery log diverged between identical runs"
        );
    }
}

/// A plan with GPU failures must leave a typed trail — never a silent stall.
#[test]
fn chaos_recovery_log_records_absorbed_faults() {
    let mut saw_gpu_fail = false;
    for seed in seeds() {
        let (rt, plan) = chaos_run(seed, presets::dgx_v100(), GpuClass::V100);
        if !plan.is_empty() {
            assert!(
                !rt.world().recovery_log().is_empty(),
                "seed {seed}: faults were injected but the recovery log is empty"
            );
        }
        saw_gpu_fail |= rt
            .world()
            .recovery_log()
            .iter()
            .any(|(_, ev)| matches!(ev, RecoveryEvent::GpuFailed { .. }));
    }
    if std::env::var("GROUTER_CHAOS_SEED").is_err() {
        assert!(
            saw_gpu_fail,
            "fixed seed batch never produced a GpuFailed event; rebalance seeds"
        );
    }
}

/// The recovery log does not live in the flight recorder: a traced run
/// whose 64-event ring wraps many times over keeps every entry of the
/// untraced run's log.
#[test]
fn chaos_recovery_log_survives_a_wrapped_trace_ring() {
    let seed = 3;
    let (untraced, _) = chaos_run(seed, presets::dgx_v100(), GpuClass::V100);
    let (traced, _) = chaos_run_with(
        seed,
        presets::dgx_v100(),
        GpuClass::V100,
        RuntimeConfig {
            trace: true,
            trace_buffer: 64,
            ..RuntimeConfig::default()
        },
    );
    assert!(
        traced.recorder().snapshot().dropped > 0,
        "seed {seed}: the trace ring never wrapped"
    );
    assert!(!untraced.world().recovery_log().is_empty());
    assert_eq!(
        traced.world().recovery_log(),
        untraced.world().recovery_log(),
        "seed {seed}: tracing changed the recovery log"
    );
}

/// `SimTime` sanity for the suite's window: every injected fault lies inside
/// the configured horizon, so the assertions above always race live work.
#[test]
fn chaos_plans_stay_inside_horizon() {
    for seed in seeds() {
        let spec = traffic(WorkloadParams {
            batch: 4,
            gpu: GpuClass::V100,
        });
        let mut rt = Runtime::new(
            presets::dgx_v100(),
            1,
            Box::new(GrouterPlane::new(GrouterConfig::full())),
            RuntimeConfig::default(),
        );
        rt.submit(spec, SimTime::ZERO);
        let cfg = FaultPlanConfig {
            horizon: SimDuration::from_secs(TRACE_SECS),
            faults: 5,
            ..FaultPlanConfig::default()
        };
        let plan = FaultPlan::randomized(seed, &domain_of(&rt), &cfg);
        let restore_slack = cfg.max_outage;
        for ev in plan.events() {
            assert!(
                ev.at <= SimTime::ZERO + cfg.horizon + restore_slack,
                "seed {seed}: event at {:?} beyond horizon+outage",
                ev.at
            );
        }
        assert_eq!(plan.seed(), seed, "plan must carry its seed for replay");
    }
}

// ---------------------------------------------------------------------------
// Control-plane chaos (ISSUE 9): worker death mid-heartbeat-interval and
// router-side heartbeat loss, injected into a live service-mode cluster.
// ---------------------------------------------------------------------------

/// A reduced service fleet (4 V100 groups) with the heartbeat router at the
/// gateway and the randomized control-plane fault plan armed.
fn ctl_chaos_run(seed: u64, threads: usize) -> ServiceSim {
    let mut preset = ClusterPreset::uniform_64();
    preset.groups.truncate(4);
    let cfg = ServiceConfig {
        total: 1_500,
        seed,
        ctl_faults: true,
        ..ServiceConfig::default()
    };
    let mut svc = ServiceSim::build(&preset, &cfg);
    svc.run(threads);
    svc
}

fn ctl_seeds() -> Vec<u64> {
    if let Ok(s) = std::env::var("GROUTER_CHAOS_SEED") {
        let seed = s
            .parse::<u64>()
            .expect("GROUTER_CHAOS_SEED must be an integer seed");
        return vec![seed];
    }
    (1..=4).map(|i| 0xC71_7000 + i).collect()
}

/// Termination and leak-freedom with the control plane active: worker
/// deaths and dropped heartbeats must not strand an invocation, leak an
/// object, or leave bandwidth reserved in any group.
#[test]
fn ctl_chaos_terminates_without_leaks() {
    for seed in ctl_seeds() {
        let svc = ctl_chaos_run(seed, 2);
        assert_eq!(
            svc.completed() as u64 + svc.failed(),
            svc.arrivals(),
            "seed {seed}: every admitted request must terminate"
        );
        let sim = svc.cluster();
        for g in 0..sim.groups() {
            let w = sim.world(g);
            assert!(w.quiescent(), "seed {seed}: group {g} did not drain");
            assert!(
                w.ledgers_idle(),
                "seed {seed}: group {g} leaked NVLink bandwidth"
            );
            assert!(
                w.store.is_empty(),
                "seed {seed}: group {g} leaked {} object(s)",
                w.store.len()
            );
            for (idx, pool) in w.pools.iter().enumerate() {
                assert!(
                    pool.used() == 0.0 && pool.runtime_used() == 0.0,
                    "seed {seed}: group {g} pool {idx} leaked"
                );
            }
            for (idx, scaler) in w.scalers.iter().enumerate() {
                assert_eq!(
                    scaler.total_live_outputs(),
                    0,
                    "seed {seed}: group {g} scaler {idx} still counts live outputs"
                );
            }
        }
    }
}

/// The new fault kinds actually land and are visible in the typed recovery
/// log: worker deaths, heartbeat-loss arming, and the per-beat drops the
/// budget burns.
#[test]
fn ctl_chaos_recovery_log_records_ctl_faults() {
    let svc = ctl_chaos_run(0xC71_7001, 2);
    let log = svc.merged_recovery_log();
    assert!(
        log.contains("WorkerDied"),
        "no worker death in the recovery log:\n{log}"
    );
    assert!(
        log.contains("HbLossArmed"),
        "no heartbeat-loss arming in the recovery log:\n{log}"
    );
    let (_, _, dropped) = svc.cluster().heartbeat_stats();
    if dropped > 0 {
        assert!(
            log.contains("HbDropped"),
            "{dropped} beats dropped but none logged:\n{log}"
        );
    }
}

/// Replayability with the control plane active: same seed, same outputs,
/// byte for byte — metrics CSV, admission log and recovery log.
#[test]
fn ctl_chaos_same_seed_replays_byte_identically() {
    for seed in ctl_seeds() {
        let a = ctl_chaos_run(seed, 2);
        let b = ctl_chaos_run(seed, 2);
        assert_eq!(
            a.merged_csv(),
            b.merged_csv(),
            "seed {seed}: metrics CSV not replayable"
        );
        assert_eq!(
            a.admission_log(),
            b.admission_log(),
            "seed {seed}: admission log not replayable"
        );
        assert_eq!(
            a.merged_recovery_log(),
            b.merged_recovery_log(),
            "seed {seed}: recovery log not replayable"
        );
    }
}

// ---------------------------------------------------------------------------
// LLM serving chaos (ISSUE 10): a decode GPU dies mid-stream while its
// continuous batch holds pinned KV. Streams either re-materialize from
// lineage (prompt + emitted tokens re-prefilled elsewhere) or fail typed;
// nothing leaks, and the same seed replays byte-for-byte at any thread
// count. Leak-freedom is enforced inside `run_llm_serve` itself: every
// group's `assert_drained` (store/pool/scaler all empty) runs before the
// report is built, so a leak panics the run rather than skewing metrics.
// ---------------------------------------------------------------------------

/// Reduced-scale disaggregated run with the second decode GPU of group 0
/// killed mid-run. The fail time is seed-derived so different seeds cut the
/// batch at different stream depths.
fn llm_chaos_cfg(seed: u64) -> grouter_llm::LlmServeConfig {
    let base = grouter_llm::LlmServeConfig::reference(grouter_llm::PlaneKind::Grouter);
    let fail_at = SimTime::ZERO + SimDuration::from_millis(1_500 + (seed % 5) * 700);
    grouter_llm::LlmServeConfig {
        requests: 300,
        rps: 40.0,
        seed,
        fail: Some((0, base.prefill_gpus() + 1, fail_at)),
        ..base
    }
}

fn llm_seeds() -> Vec<u64> {
    if let Ok(s) = std::env::var("GROUTER_CHAOS_SEED") {
        let seed = s
            .parse::<u64>()
            .expect("GROUTER_CHAOS_SEED must be an integer seed");
        return vec![seed];
    }
    (1..=3).map(|i| 0x11A_A000 + i).collect()
}

/// Termination under decode failure: every admitted request still resolves
/// as a completion or a typed failure, and the failure window actually hits
/// live streams (re-materializations or typed failures are visible).
#[test]
fn llm_chaos_decode_failure_terminates_without_leaks() {
    for seed in llm_seeds() {
        let cfg = llm_chaos_cfg(seed);
        let report = grouter_llm::run_llm_serve(&cfg);
        assert_eq!(
            report.completed + report.failed,
            cfg.requests,
            "seed {seed}: requests leaked at the router"
        );
        assert_eq!(
            report.metrics.completed + report.metrics.failed,
            cfg.requests,
            "seed {seed}: requests leaked in the groups"
        );
        assert!(
            report.metrics.rematerialized > 0 || report.failed > 0,
            "seed {seed}: the decode failure never hit an in-flight stream"
        );
        assert!(
            report.completed > 0,
            "seed {seed}: the surviving decode GPUs completed nothing"
        );
    }
}

/// Chaos replay: the same seed under the same decode failure produces a
/// byte-identical metrics CSV whether the shards run on 1 or 8 threads.
#[test]
fn llm_chaos_same_seed_replays_byte_identically() {
    for seed in llm_seeds() {
        let cfg = llm_chaos_cfg(seed);
        let a = grouter_llm::run_llm_serve(&cfg);
        let b = grouter_llm::run_llm_serve(&grouter_llm::LlmServeConfig {
            threads: 8,
            ..cfg.clone()
        });
        assert_eq!(a.csv, b.csv, "seed {seed}: chaos replay CSV diverged");
        assert_eq!(
            a.digest, b.digest,
            "seed {seed}: chaos replay digest diverged"
        );
    }
}
