//! Whole-system integration: every workflow × every plane × every testbed
//! completes, leaves no residue, and preserves the paper's ordering.

use grouter::runtime::metrics::PassCategory;
use grouter::topology::presets;
use grouter_integration_tests::{all_planes, run_bursty};
use grouter_workloads::apps::{suite, WorkloadParams};
use grouter_workloads::models::GpuClass;

#[test]
fn every_workflow_completes_on_every_plane() {
    let params = WorkloadParams {
        batch: 4,
        gpu: GpuClass::V100,
    };
    for spec in suite(params) {
        for plane in all_planes(5) {
            let label = plane.name();
            let rt = run_bursty(presets::dgx_v100(), 1, plane, spec.clone(), 3.0, 4, 9);
            let m = rt.metrics();
            assert_eq!(
                m.completed() as u64,
                m.arrivals,
                "{label}/{}: {} of {} completed",
                spec.name,
                m.completed(),
                m.arrivals
            );
            assert!(rt.world().quiescent(), "{label}/{}: residue", spec.name);
            // Latency is at least the compute floor for every record.
            for rec in m.records() {
                assert!(
                    rec.latency() >= rec.compute || rec.compute > rec.latency(),
                    "sanity"
                );
                assert!(rec.latency().as_nanos() > 0);
            }
        }
    }
}

#[test]
fn every_testbed_runs_the_traffic_workflow() {
    for (spec, gpu) in [
        (presets::dgx_v100(), GpuClass::V100),
        (presets::dgx_a100(), GpuClass::A100),
        (presets::a10x4(), GpuClass::A10),
        (presets::h800x8(), GpuClass::H800),
    ] {
        let params = WorkloadParams { batch: 4, gpu };
        let wf = grouter_workloads::apps::traffic(params);
        for plane in all_planes(3) {
            let label = plane.name();
            // High enough rate that the bursty trace always produces
            // arrivals inside the short test horizon.
            let rt = run_bursty(spec.clone(), 1, plane, wf.clone(), 10.0, 4, 1);
            assert!(rt.metrics().completed() > 0, "{label} on {:?}", spec.kind);
            assert!(rt.world().quiescent());
        }
    }
}

#[test]
fn grouter_never_loses_to_host_centric_on_data_passing() {
    let params = WorkloadParams {
        batch: 8,
        gpu: GpuClass::V100,
    };
    for spec in suite(params) {
        let mut passing = Vec::new();
        for plane in all_planes(7) {
            let rt = run_bursty(presets::dgx_v100(), 1, plane, spec.clone(), 2.0, 4, 3);
            passing.push(rt.metrics().passing_ms(None).mean());
        }
        // planes order: INFless+, NVSHMEM+, DeepPlan+, GROUTER
        assert!(
            passing[3] <= passing[0],
            "{}: GROUTER {} vs INFless+ {}",
            spec.name,
            passing[3],
            passing[0]
        );
        assert!(
            passing[3] <= passing[1] * 1.05,
            "{}: GROUTER {} vs NVSHMEM+ {}",
            spec.name,
            passing[3],
            passing[1]
        );
    }
}

#[test]
fn multi_node_cluster_distributes_and_completes() {
    let params = WorkloadParams {
        batch: 4,
        gpu: GpuClass::V100,
    };
    let spec = grouter_workloads::apps::video(params);
    for plane in all_planes(11) {
        let label = plane.name();
        let rt = run_bursty(presets::dgx_v100(), 3, plane, spec.clone(), 4.0, 4, 13);
        assert_eq!(
            rt.metrics().completed() as u64,
            rt.metrics().arrivals,
            "{label}"
        );
        assert!(rt.world().quiescent(), "{label}");
    }
}

#[test]
fn runs_are_bit_deterministic() {
    let params = WorkloadParams {
        batch: 8,
        gpu: GpuClass::V100,
    };
    let spec = grouter_workloads::apps::traffic(params);
    let collect = || {
        let plane = Box::new(grouter::GrouterPlane::new(grouter::GrouterConfig::full()));
        let rt = run_bursty(presets::dgx_v100(), 1, plane, spec.clone(), 5.0, 5, 99);
        rt.metrics()
            .records()
            .iter()
            .map(|r| (r.arrived.as_nanos(), r.completed.as_nanos()))
            .collect::<Vec<_>>()
    };
    assert_eq!(collect(), collect());
}

#[test]
fn cfn_cfn_passing_is_negligible() {
    // Paper §2.2: cFn–cFn via shared memory is negligible overhead.
    let params = WorkloadParams {
        batch: 8,
        gpu: GpuClass::V100,
    };
    let spec = grouter_workloads::apps::image(params);
    for plane in all_planes(17) {
        let rt = run_bursty(presets::dgx_v100(), 1, plane, spec.clone(), 2.0, 4, 5);
        for rec in rt.metrics().records() {
            let hh = rec.passing_of(PassCategory::HostHost).as_millis_f64();
            assert!(hh < 5.0, "cFn-cFn took {hh} ms");
        }
    }
}

#[test]
fn degradation_with_flows_in_flight_does_not_strand_them() {
    // Regression test for the stale-wake hazard: degrade a link while a
    // large transfer is actively using it; the transfer must still finish.
    use grouter::runtime::dataplane::Destination;
    use grouter::runtime::placement::PlacementPolicy;
    use grouter::runtime::spec::{StageSpec, WorkflowSpec};
    use grouter::sim::time::{SimDuration, SimTime};
    use grouter::topology::GpuRef;
    use std::sync::Arc;

    let mut wf = WorkflowSpec::new("bigegress", 1e6);
    wf.push(StageSpec::gpu(
        "render",
        vec![],
        SimDuration::from_millis(1),
        480e6, // ~10 ms on one 48 GB/s path, far longer once degraded
        1e9,
    ));
    let pin = PlacementPolicy::Pinned(vec![Destination::Gpu(GpuRef::new(0, 0))]);
    let cfg = grouter::runtime::world::RuntimeConfig {
        placement: pin,
        placement_nodes: vec![0],
        ..Default::default()
    };
    let mut rt = grouter::runtime::Runtime::new(
        presets::dgx_v100(),
        1,
        Box::new(grouter::GrouterPlane::new(grouter::GrouterConfig::full())),
        cfg,
    );
    rt.submit(Arc::new(wf), SimTime::ZERO);
    // Stop in the middle of the egress transfer.
    rt.run_until(SimTime(5_000_000));
    assert!(
        rt.world().net.num_flows() > 0,
        "test setup: a flow must be in flight"
    );
    // Every PCIe uplink collapses to 5% capacity.
    for uplink in rt.world().topo.uplink_links(0) {
        let cap = rt.world().net.link_capacity(uplink);
        rt.set_link_capacity(uplink, cap * 0.05);
    }
    rt.run();
    assert_eq!(rt.metrics().completed(), 1, "transfer stranded");
    let lat = rt.metrics().records()[0].latency();
    assert!(
        lat > SimDuration::from_millis(50),
        "degradation should visibly slow the transfer, got {lat}"
    );
    assert!(rt.world().quiescent());
}

#[test]
fn workloads_survive_mid_run_link_degradation() {
    // Failure injection: halfway through a bursty run, the busiest PCIe
    // uplink and a double NVLink drop to 10% capacity. Everything must
    // still complete (slower), and the ledgers must stay clean.
    use grouter::sim::time::SimTime;
    use grouter_workloads::apps::{traffic, WorkloadParams};
    use grouter_workloads::models::GpuClass;

    let params = WorkloadParams {
        batch: 8,
        gpu: GpuClass::V100,
    };
    let spec = traffic(params);
    for plane in all_planes(31) {
        let label = plane.name();
        let mut rt = grouter::runtime::Runtime::new(
            presets::dgx_v100(),
            1,
            plane,
            grouter::runtime::world::RuntimeConfig::default(),
        );
        let mut rng = grouter::sim::rng::DetRng::new(41);
        for t in grouter_workloads::azure::generate_trace(
            grouter_workloads::azure::ArrivalPattern::Bursty,
            8.0,
            grouter::sim::time::SimDuration::from_secs(8),
            &mut rng,
        ) {
            rt.submit(spec.clone(), t);
        }
        // Run half the horizon, then degrade links under live traffic.
        rt.run_until(SimTime(4_000_000_000));
        let uplink = rt.world().topo.uplink_links(0)[0];
        let cap = rt.world().net.link_capacity(uplink);
        rt.set_link_capacity(uplink, cap * 0.1);
        rt.run();
        let m = rt.metrics();
        assert_eq!(m.completed() as u64, m.arrivals, "{label}: lost requests");
        assert!(rt.world().quiescent(), "{label}: residue");
        assert!(rt.world().ledgers_idle(), "{label}: reservation leak");
    }
}

/// Build the diamond DAG (s0 → {s1, s2} → s3) pinned to four distinct GPUs
/// so the producer's output must cross NVLink to both consumers, with a
/// scripted fault plan installed before the run.
fn diamond_with_faults(plan: grouter::sim::fault::FaultPlan) -> grouter::runtime::Runtime {
    let mut rt = diamond_runtime(plan);
    rt.run();
    rt
}

/// The diamond DAG's runtime with `plan` installed, not yet run.
fn diamond_runtime(plan: grouter::sim::fault::FaultPlan) -> grouter::runtime::Runtime {
    use std::sync::Arc;

    use grouter::runtime::dataplane::Destination;
    use grouter::runtime::spec::{StageSpec, WorkflowSpec};
    use grouter::runtime::PlacementPolicy;
    use grouter::sim::time::{SimDuration, SimTime};
    use grouter::topology::GpuRef;
    use grouter::{GrouterConfig, GrouterPlane};

    let mut wf = WorkflowSpec::new("diamond", 16e6);
    let s0 = wf.push(StageSpec::gpu(
        "s0",
        vec![],
        SimDuration::from_millis(4),
        512e6,
        2e9,
    ));
    let s1 = wf.push(StageSpec::gpu(
        "s1",
        vec![s0],
        SimDuration::from_millis(3),
        32e6,
        2e9,
    ));
    let s2 = wf.push(StageSpec::gpu(
        "s2",
        vec![s0],
        SimDuration::from_millis(3),
        32e6,
        2e9,
    ));
    wf.push(StageSpec::gpu(
        "s3",
        vec![s1, s2],
        SimDuration::from_millis(2),
        8e6,
        2e9,
    ));
    let config = grouter::runtime::world::RuntimeConfig {
        placement: PlacementPolicy::Pinned(vec![
            Destination::Gpu(GpuRef::new(0, 0)),
            Destination::Gpu(GpuRef::new(0, 1)),
            Destination::Gpu(GpuRef::new(0, 2)),
            Destination::Gpu(GpuRef::new(0, 3)),
        ]),
        ..Default::default()
    };
    let mut rt = grouter::runtime::Runtime::new(
        presets::dgx_v100(),
        1,
        Box::new(GrouterPlane::new(GrouterConfig::full())),
        config,
    );
    rt.submit(Arc::new(wf), SimTime::ZERO);
    rt.install_fault_plan(&plan);
    rt
}

#[test]
fn diamond_dag_replays_lineage_after_producer_gpu_failure() {
    // Kill the producer GPU while its 512 MB output is mid-transfer to both
    // consumers: the object is purged with pending claims, so recovery must
    // re-execute s0 on a healthy GPU (lineage) and the instance must still
    // complete — never stall, never silently drop.
    use grouter::runtime::RecoveryEvent;
    use grouter::sim::fault::{FaultEvent, FaultKind, FaultPlan};
    use grouter::sim::time::{SimDuration, SimTime};

    let rt = diamond_with_faults(FaultPlan::scripted(vec![FaultEvent {
        at: SimTime::ZERO + SimDuration::from_millis(7),
        kind: FaultKind::GpuFail { gpu: 0 },
    }]));
    let m = rt.metrics();
    assert_eq!(
        m.completed(),
        1,
        "instance must complete via lineage replay"
    );
    assert_eq!(
        m.failed, 0,
        "no typed failure expected: lineage can recover"
    );
    let log = &rt.world().recovery_log();
    assert!(
        log.iter()
            .any(|(_, e)| matches!(e, RecoveryEvent::GpuFailed { gpu: 0, .. })),
        "log must record the absorbed GPU failure: {log:?}"
    );
    assert!(
        log.iter()
            .any(|(_, e)| matches!(e, RecoveryEvent::StageRestarted { stage: 0, .. })),
        "producer must be re-executed from lineage: {log:?}"
    );
    assert!(rt.world().quiescent(), "residue after recovery");
    assert!(rt.world().ledgers_idle(), "reservation leak after recovery");
    assert!(rt.world().store.is_empty(), "object leak after recovery");
}

#[test]
fn diamond_dag_route_loss_reissues_transfers_under_recovery_category() {
    // The producer GPU's NVLink ports die mid-transfer but its memory
    // survives: in-flight transfers are cancelled and re-issued over the
    // degraded matrix (gFn–host PCIe fallback), and the re-issued passing
    // time lands in `PassCategory::Recovery` so the paper-figure categories
    // stay failure-free.
    use grouter::runtime::RecoveryEvent;
    use grouter::sim::fault::{FaultEvent, FaultKind, FaultPlan};
    use grouter::sim::time::{SimDuration, SimTime};

    let rt = diamond_with_faults(FaultPlan::scripted(vec![
        FaultEvent {
            at: SimTime::ZERO + SimDuration::from_millis(7),
            kind: FaultKind::RouteGpuLoss { gpu: 0 },
        },
        FaultEvent {
            at: SimTime::ZERO + SimDuration::from_millis(60),
            kind: FaultKind::RouteGpuRestore { gpu: 0 },
        },
    ]));
    let m = rt.metrics();
    assert_eq!(m.completed(), 1, "route loss alone must not fail the DAG");
    assert_eq!(m.failed, 0);
    let log = &rt.world().recovery_log();
    assert!(
        log.iter()
            .any(|(_, e)| matches!(e, RecoveryEvent::OpRetried { .. })),
        "in-flight transfers must be retried: {log:?}"
    );
    assert!(
        m.op_count(PassCategory::Recovery) > 0,
        "re-issued ops must be accounted under Recovery; ops: {}, log: {log:?}",
        m.op_count_total()
    );
    assert!(rt.world().quiescent(), "residue after route-loss recovery");
    assert!(rt.world().ledgers_idle(), "reservation leak after recovery");
}

#[test]
fn route_loss_retries_an_op_whose_leg_waits_out_its_setup() {
    // A leg staged by AdvanceOp waits out its setup latency before
    // BeginLeg starts its flows. A route GPU lost inside that window must
    // retry the op like one whose flows already run: find the first op
    // staged with an NVLink route, then lose the route's far GPU halfway
    // through the setup.
    use grouter::runtime::world::OpKind;
    use grouter::runtime::RecoveryEvent;
    use grouter::sim::fault::{FaultEvent, FaultKind, FaultPlan};
    use grouter::sim::time::SimDuration;

    let mut sim = diamond_runtime(FaultPlan::scripted(vec![])).into_sim();
    let (at, gpu, owner) = loop {
        assert!(sim.step(), "the run never staged an NVLink leg");
        let w = &sim.world;
        let staged = w.ops.iter().find_map(|(_, op)| {
            let leg = op.legs.front().filter(|_| op.staged)?;
            let route = leg.plan.flows.iter().find_map(|f| f.route.as_ref())?;
            let (OpKind::Get { inst, stage, .. } | OpKind::Put { inst, stage, .. }) = op.kind
            else {
                return None;
            };
            let gpu = w.topo.flat_index(leg.nv_node, *route.last()?);
            Some((leg.plan.setup, gpu, (inst, stage)))
        });
        if let Some((setup, gpu, owner)) = staged {
            let half = SimDuration::from_nanos(setup.as_nanos() / 2);
            assert!(half > SimDuration::ZERO, "a staged leg has a setup latency");
            break (sim.sched.now() + half, gpu, owner);
        }
    };

    let rt = diamond_with_faults(FaultPlan::scripted(vec![FaultEvent {
        at,
        kind: FaultKind::RouteGpuLoss { gpu },
    }]));
    let log = rt.world().recovery_log();
    assert!(
        log.iter().any(|(t, e)| *t == at
            && matches!(*e, RecoveryEvent::OpRetried { inst, stage, .. } if (inst, stage) == owner)),
        "the staged op of {owner:?} must be retried when GPU {gpu} is lost at {at}: {log:?}"
    );
    assert_eq!(
        rt.metrics().completed(),
        1,
        "route loss alone must not fail the DAG"
    );
    assert!(rt.world().quiescent(), "residue after route-loss recovery");
    assert!(rt.world().ledgers_idle(), "reservation leak after recovery");
}
