//! Integration suite for the sharded cluster engine (ISSUE 7).
//!
//! A [`ClusterSim`] partitions a 64–128-GPU fleet into node-group shards
//! under the conservative parallel engine. The contract pinned here:
//!
//! * **functional** — every admitted invocation terminates, every completed
//!   one answers its admitting gateway, remote routing actually happens;
//! * **determinism across thread counts** — the same seed produces
//!   byte-identical merged metrics CSV and merged recovery log whether the
//!   groups run inline or on 2 or 8 worker threads (the hard requirement
//!   of DESIGN.md §5.7);
//! * **chaos** — the PR 5 recovery contract (termination, no leaks,
//!   replayability) holds per group when randomized fault plans run inside
//!   a sharded cluster.

use grouter::runtime::cluster::ClusterSim;
use grouter::runtime::simple_plane::LocalityPlane;
use grouter::sim::fault::{FaultDomain, FaultPlan, FaultPlanConfig};
use grouter::sim::time::SimDuration;
use grouter_ctl::{ServiceConfig, ServiceSim};
use grouter_runtime::cluster::GroupSetup;
use grouter_workloads::azure::ArrivalPattern;
use grouter_workloads::cluster::{group_setups, ClusterPreset};

const SEED: u64 = 4242;

/// A reduced fleet (4 V100 groups, 32 GPUs) the suite can run in seconds.
fn small_preset() -> ClusterPreset {
    let mut p = ClusterPreset::uniform_64();
    p.groups.truncate(4);
    p
}

fn setups(per_group: u64, faults: bool) -> Vec<GroupSetup> {
    let preset = small_preset();
    let mut setups = group_setups(
        &preset,
        ArrivalPattern::Sporadic,
        400.0,
        per_group,
        SEED,
        |_| Box::new(LocalityPlane::new()),
    );
    if faults {
        for (g, setup) in setups.iter_mut().enumerate() {
            let domain = FaultDomain {
                gpus: setup.topo.gpus_per_node * setup.nodes,
                nodes: setup.nodes,
                nics_per_node: setup.topo.nics.len(),
                links: Vec::new(),
            };
            setup.fault_plans = vec![FaultPlan::randomized(
                SEED ^ (g as u64).wrapping_mul(0x9E37_79B9),
                &domain,
                &FaultPlanConfig {
                    horizon: SimDuration::from_secs(2),
                    faults: 4,
                    ..FaultPlanConfig::default()
                },
            )];
        }
    }
    setups
}

/// Functional contract: the cluster drains, every completion answers its
/// gateway, and locality routing leaves real cross-group traffic.
#[test]
fn cluster_completes_and_routes_cross_group() {
    let mut sim = ClusterSim::new(SEED, setups(1_500, false));
    let stats = sim.run(1);
    assert!(stats.epochs > 0);
    assert!(stats.messages > 0, "locality < 1 must produce envelopes");
    let total = 4 * 1_500;
    assert_eq!(sim.arrivals(), total);
    assert_eq!(sim.completed() as u64 + sim.failed(), total);
    assert_eq!(sim.failed(), 0, "fault-free run must not fail requests");
    assert_eq!(
        sim.responses(),
        sim.completed() as u64,
        "every completed invocation answers its admitting gateway"
    );
    let remote: u64 = (0..sim.groups()).map(|g| sim.port(g).remote_in).sum();
    assert!(remote > 0, "0.9 locality must forward some invocations");
    for g in 0..sim.groups() {
        let w = sim.world(g);
        assert!(w.quiescent(), "group {g} did not drain");
        assert!(w.store.is_empty(), "group {g} leaked objects");
    }
}

/// The hard requirement: same seed ⇒ byte-identical merged metrics CSV and
/// recovery log for 1, 2 and 8 worker threads, fault plans included.
#[test]
fn thread_count_never_changes_merged_outputs() {
    let mut runs = Vec::new();
    for threads in [1usize, 2, 8] {
        let mut sim = ClusterSim::new(SEED, setups(800, true));
        sim.run(threads);
        runs.push((threads, sim.merged_csv(), sim.merged_recovery_log()));
    }
    let (_, csv0, rec0) = &runs[0];
    assert!(!csv0.is_empty() && csv0.lines().count() > 1);
    assert!(!rec0.is_empty(), "fault plans must leave a recovery log");
    for (threads, csv, rec) in &runs[1..] {
        assert_eq!(csv, csv0, "metrics CSV diverged at {threads} threads");
        assert_eq!(rec, rec0, "recovery log diverged at {threads} threads");
    }
}

/// Chaos inside the sharded engine: the PR 5 recovery contract holds per
/// group, and the run still drains globally.
#[test]
fn sharded_chaos_preserves_recovery_contract() {
    let mut sim = ClusterSim::new(SEED, setups(800, true));
    sim.run(2);
    let total = 4 * 800;
    assert_eq!(sim.arrivals(), total);
    assert_eq!(
        sim.completed() as u64 + sim.failed(),
        total,
        "every arrival must terminate under faults"
    );
    assert_eq!(sim.responses(), sim.completed() as u64);
    for g in 0..sim.groups() {
        let w = sim.world(g);
        assert!(w.quiescent(), "group {g} did not drain");
        assert!(w.ledgers_idle(), "group {g} leaked NVLink bandwidth");
        assert!(w.store.is_empty(), "group {g} leaked objects");
        for (idx, pool) in w.pools.iter().enumerate() {
            assert!(
                pool.used() == 0.0 && pool.runtime_used() == 0.0,
                "group {g} pool {idx} leaked"
            );
        }
    }
}

/// Service mode under the same hard requirement: the heartbeat-view router
/// at the gateway plus randomized control-plane faults, and still the same
/// seed ⇒ byte-identical merged metrics CSV, admission log, *and* recovery
/// log on 1, 2 and 8 worker threads.
#[test]
fn service_mode_thread_count_never_changes_outputs() {
    let cfg = ServiceConfig {
        total: 2_000,
        seed: SEED,
        ctl_faults: true,
        ..ServiceConfig::default()
    };
    let mut runs = Vec::new();
    for threads in [1usize, 2, 8] {
        let mut svc = ServiceSim::build(&small_preset(), &cfg);
        svc.run(threads);
        runs.push((
            threads,
            svc.merged_csv(),
            svc.admission_log(),
            svc.merged_recovery_log(),
        ));
    }
    let (_, csv0, adm0, rec0) = &runs[0];
    assert!(csv0.lines().count() > 1, "service run produced no records");
    assert_eq!(
        adm0.lines().count(),
        2_000,
        "router must log every admission"
    );
    assert!(!rec0.is_empty(), "ctl fault plan must leave a recovery log");
    for (threads, csv, adm, rec) in &runs[1..] {
        assert_eq!(csv, csv0, "service CSV diverged at {threads} threads");
        assert_eq!(adm, adm0, "admission log diverged at {threads} threads");
        assert_eq!(rec, rec0, "recovery log diverged at {threads} threads");
    }
}

/// Heterogeneous preset sanity: V100 and A100 groups coexist, each with
/// its own GPU-tuned registry, and the cluster still drains.
#[test]
fn heterogeneous_cluster_drains() {
    let mut preset = ClusterPreset::hetero_64();
    preset.groups.truncate(4);
    let mut sim = ClusterSim::new(
        SEED,
        group_setups(&preset, ArrivalPattern::Sporadic, 300.0, 600, SEED, |_| {
            Box::new(LocalityPlane::new())
        }),
    );
    sim.run(2);
    assert_eq!(sim.completed() as u64 + sim.failed(), 4 * 600);
    assert_eq!(sim.responses(), sim.completed() as u64);
}
