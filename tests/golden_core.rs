//! Golden determinism tests for the event core (ISSUE 6 satellite).
//!
//! The typed-event scheduler replaced the boxed-closure `BinaryHeap` core;
//! these tests pin the *observable* behaviour of the old core byte-for-byte:
//! the golden files under `tests/golden/` were generated on the
//! boxed-closure engine before the rearchitecture and are compared, not
//! regenerated, by CI. Any ordering drift in the bucketed timeline — ties
//! firing out of schedule order, flow-completion waves batched differently,
//! interned ids leaking into output — shows up here as a byte diff.
//!
//! Regenerate (only when an intentional behaviour change is being made):
//! `GROUTER_GOLDEN_WRITE=1 cargo test -p grouter-integration-tests --test
//! golden_core`.

use std::fmt::Write as _;
use std::path::PathBuf;

use grouter::runtime::world::RuntimeConfig;
use grouter::runtime::Runtime;
use grouter::sim::fault::{FaultDomain, FaultPlan, FaultPlanConfig};
use grouter::sim::rng::DetRng;
use grouter::sim::time::SimDuration;
use grouter::sim::LinkId;
use grouter::topology::presets;
use grouter::{GrouterConfig, GrouterPlane};
use grouter_workloads::apps::{suite, traffic, WorkloadParams};
use grouter_workloads::azure::{generate_trace, ArrivalPattern};
use grouter_workloads::models::GpuClass;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden")
}

/// Compare `got` against the committed golden file, or rewrite it when
/// `GROUTER_GOLDEN_WRITE=1`.
fn check(name: &str, got: &str) {
    let path = golden_dir().join(name);
    if std::env::var("GROUTER_GOLDEN_WRITE").is_ok() {
        std::fs::create_dir_all(golden_dir()).expect("create tests/golden");
        std::fs::write(&path, got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    assert_eq!(
        got,
        want,
        "output diverged from golden {}: a run the goldens pin is no longer \
         byte-identical",
        path.display()
    );
}

fn fault_domain(rt: &Runtime) -> FaultDomain {
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

/// Chaos run identical in shape to `chaos.rs::chaos_run` (bursty traffic,
/// randomized 5-fault plan) for a fixed seed.
fn chaos_run(seed: u64) -> Runtime {
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
    let mut rng = DetRng::new(seed);
    for t in generate_trace(
        ArrivalPattern::Bursty,
        8.0,
        SimDuration::from_secs(2),
        &mut rng,
    ) {
        rt.submit(spec.clone(), t);
    }
    let plan = FaultPlan::randomized(
        seed,
        &fault_domain(&rt),
        &FaultPlanConfig {
            horizon: SimDuration::from_secs(2),
            faults: 5,
            ..FaultPlanConfig::default()
        },
    );
    rt.install_fault_plan(&plan);
    rt.run();
    rt
}

fn recovery_log_text(rt: &Runtime) -> String {
    let mut out = String::new();
    for (at, ev) in rt.world().recovery_log() {
        writeln!(out, "{} {:?}", at.as_nanos(), ev).unwrap();
    }
    out
}

/// Fault-free run of the full six-workflow suite on a contended two-node
/// V100 testbed — the same regime as `bench_e2e`'s `v100_contended` case.
fn suite_run() -> Runtime {
    let specs = suite(WorkloadParams {
        batch: 4,
        gpu: GpuClass::V100,
    });
    let mut rt = Runtime::new(
        presets::dgx_v100(),
        2,
        Box::new(GrouterPlane::new(GrouterConfig::full())),
        RuntimeConfig::default(),
    );
    let mut rng = DetRng::new(42);
    let mut arrivals = Vec::new();
    for (k, spec) in specs.iter().enumerate() {
        let mut sub = rng.fork(k as u64);
        for t in generate_trace(
            ArrivalPattern::Sporadic,
            3.0,
            SimDuration::from_secs(4),
            &mut sub,
        ) {
            arrivals.push((spec.clone(), t));
        }
    }
    arrivals.sort_by_key(|&(_, t)| t);
    for (spec, t) in arrivals {
        rt.submit(spec, t);
    }
    rt.run();
    rt
}

#[test]
fn golden_chaos_metrics_and_recovery_log() {
    for seed in [0xC4A0_5001u64, 0xC4A0_5004] {
        let rt = chaos_run(seed);
        check(
            &format!("chaos_{seed:x}_metrics.csv"),
            &rt.metrics().to_csv(),
        );
        check(
            &format!("chaos_{seed:x}_recovery.txt"),
            &recovery_log_text(&rt),
        );
    }
}

#[test]
fn golden_suite_metrics() {
    let rt = suite_run();
    check("suite_v100_metrics.csv", &rt.metrics().to_csv());
}

/// The two golden runs repeated in-process must agree with themselves —
/// catches process-random iteration (e.g. an un-seeded hash map) that a
/// single-run golden comparison could miss if the golden file happened to
/// be regenerated in the same process layout.
#[test]
fn golden_runs_self_replay() {
    let a = chaos_run(0xC4A0_5001);
    let b = chaos_run(0xC4A0_5001);
    assert_eq!(a.metrics().to_csv(), b.metrics().to_csv());
    assert_eq!(recovery_log_text(&a), recovery_log_text(&b));
    let c = suite_run();
    let d = suite_run();
    assert_eq!(c.metrics().to_csv(), d.metrics().to_csv());
}

// ---------------------------------------------------------------------------
// Service-mode goldens (ISSUE 9): heartbeat-view router + control-plane
// faults, pinned byte-for-byte across shard thread counts.
// ---------------------------------------------------------------------------

/// A reduced service-mode run (4 V100 groups, heartbeat router at the
/// gateway, randomized control-plane fault plan armed) on `threads` shard
/// workers. The golden files pin the *merged* outputs, so any ordering
/// drift in the conservative parallel engine or the router's admission
/// order shows up as a byte diff.
fn service_run(threads: usize) -> grouter_ctl::ServiceSim {
    use grouter_ctl::{ServiceConfig, ServiceSim};
    use grouter_workloads::cluster::ClusterPreset;

    let mut preset = ClusterPreset::uniform_64();
    preset.groups.truncate(4);
    let cfg = ServiceConfig {
        total: 1_000,
        seed: 0xC4A0_5009,
        ctl_faults: true,
        ..ServiceConfig::default()
    };
    let mut svc = ServiceSim::build(&preset, &cfg);
    svc.run(threads);
    svc
}

/// Merged metrics CSV and admission log, byte-identical on 1, 2 and 8
/// threads *and* to the committed goldens.
#[test]
fn golden_service_outputs_thread_invariant() {
    let base = service_run(1);
    check("service_c4a05009_metrics.csv", &base.merged_csv());
    check("service_c4a05009_admission.txt", &base.admission_log());
    check("service_c4a05009_recovery.txt", &base.merged_recovery_log());
    for threads in [2usize, 8] {
        let svc = service_run(threads);
        assert_eq!(
            svc.merged_csv(),
            base.merged_csv(),
            "service CSV diverged from the 1-thread run at {threads} threads"
        );
        assert_eq!(
            svc.admission_log(),
            base.admission_log(),
            "admission log diverged from the 1-thread run at {threads} threads"
        );
        assert_eq!(
            svc.merged_recovery_log(),
            base.merged_recovery_log(),
            "recovery log diverged from the 1-thread run at {threads} threads"
        );
    }
}

// ---------------------------------------------------------------------------
// LLM-mode goldens: the disaggregated serving report on both planes, and a
// decode-GPU failure mid-stream. At seed 7 the GROUTER run migrates and
// restores KV blocks about a thousand times, so these pin the pressure path
// (victim selection, proactive restore order) and the decode bookkeeping.
// ---------------------------------------------------------------------------

/// The reduced-scale serving config of `crates/llm/tests/serve.rs`.
fn llm_small(plane: grouter_llm::PlaneKind) -> grouter_llm::LlmServeConfig {
    grouter_llm::LlmServeConfig {
        requests: 300,
        rps: 40.0,
        ..grouter_llm::LlmServeConfig::reference(plane)
    }
}

#[test]
fn golden_llm_reports_on_both_planes() {
    use grouter_llm::{run_llm_serve, PlaneKind};
    check(
        "llm_grouter_seed7_report.csv",
        &run_llm_serve(&llm_small(PlaneKind::Grouter)).csv,
    );
    check(
        "llm_mooncake_seed7_report.csv",
        &run_llm_serve(&llm_small(PlaneKind::Mooncake)).csv,
    );
}

/// The decode-GPU failure of `crates/llm/tests/serve.rs`: the second decode
/// GPU of group 0 fails two seconds in, forcing lineage re-materialization.
#[test]
fn golden_llm_decode_gpu_failure_report() {
    use grouter::sim::time::SimTime;
    use grouter_llm::{run_llm_serve, LlmServeConfig, PlaneKind};
    let base = llm_small(PlaneKind::Grouter);
    let cfg = LlmServeConfig {
        fail: Some((
            0,
            base.prefill_gpus() + 1,
            SimTime::ZERO + SimDuration::from_secs(2),
        )),
        ..base
    };
    check(
        "llm_grouter_seed7_decode_fail_report.csv",
        &run_llm_serve(&cfg).csv,
    );
}
