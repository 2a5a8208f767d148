//! End-to-end executor tests with the reference locality plane.

use std::sync::Arc;

use grouter_runtime::dataplane::Destination;
use grouter_runtime::metrics::PassCategory;
use grouter_runtime::placement::PlacementPolicy;
use grouter_runtime::simple_plane::LocalityPlane;
use grouter_runtime::spec::{StageSpec, WorkflowSpec};
use grouter_runtime::world::RuntimeConfig;
use grouter_runtime::Runtime;
use grouter_sim::time::{SimDuration, SimTime};
use grouter_topology::presets;
use grouter_topology::GpuRef;

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

const MB: f64 = 1e6;

fn linear_workflow() -> Arc<WorkflowSpec> {
    let mut wf = WorkflowSpec::new("linear", 4.0 * MB);
    let a = wf.push(StageSpec::cpu("decode", vec![], ms(5), 8.0 * MB));
    let b = wf.push(StageSpec::gpu("detect", vec![a], ms(20), 12.0 * MB, 1e9));
    wf.push(StageSpec::gpu("classify", vec![b], ms(10), 1.0 * MB, 1e9));
    Arc::new(wf)
}

fn runtime_with(policy: PlacementPolicy) -> Runtime {
    let cfg = RuntimeConfig {
        placement: policy,
        placement_nodes: vec![0],
        ..Default::default()
    };
    Runtime::new(presets::dgx_v100(), 1, Box::new(LocalityPlane::new()), cfg)
}

#[test]
fn linear_workflow_completes() {
    let mut rt = runtime_with(PlacementPolicy::Mapa);
    rt.submit(linear_workflow(), SimTime::ZERO);
    rt.run();
    let m = rt.metrics();
    assert_eq!(m.completed(), 1);
    let rec = &m.records()[0];
    // Latency ≥ compute floor (35 ms) and includes data passing.
    assert!(rec.latency() >= ms(35), "latency {}", rec.latency());
    assert_eq!(rec.compute, ms(35));
    assert!(rec.passing_total() > SimDuration::ZERO);
    // The cFn→gFn handoff and egress produce gFn–host traffic.
    assert!(rec.passing_of(PassCategory::GpuHost) > SimDuration::ZERO);
    // No instances or flows left behind.
    assert!(rt.world().quiescent());
}

#[test]
fn latency_is_deterministic_across_runs() {
    let run = || {
        let mut rt = runtime_with(PlacementPolicy::Mapa);
        for i in 0..5 {
            rt.submit(linear_workflow(), SimTime(i * 10_000_000));
        }
        rt.run();
        rt.metrics()
            .records()
            .iter()
            .map(|r| r.latency().as_nanos())
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

#[test]
fn fan_out_fan_in_completes() {
    let mut wf = WorkflowSpec::new("diamond", 4.0 * MB);
    let a = wf.push(StageSpec::gpu("split", vec![], ms(5), 8.0 * MB, 1e9));
    let b = wf.push(StageSpec::gpu("left", vec![a], ms(10), 2.0 * MB, 1e9));
    let c = wf.push(StageSpec::gpu("right", vec![a], ms(15), 2.0 * MB, 1e9));
    wf.push(StageSpec::gpu("merge", vec![b, c], ms(5), 1.0 * MB, 1e9));
    let mut rt = runtime_with(PlacementPolicy::Mapa);
    rt.submit(Arc::new(wf), SimTime::ZERO);
    rt.run();
    let m = rt.metrics();
    assert_eq!(m.completed(), 1);
    // Compute floor: every executed stage's time accrues.
    assert_eq!(m.records()[0].compute, ms(35));
    assert!(rt.world().quiescent());
}

#[test]
fn conditional_branch_runs_exactly_one_alternative() {
    let mut wf = WorkflowSpec::new("cond", 4.0 * MB);
    let a = wf.push(StageSpec::gpu("detect", vec![], ms(10), 4.0 * MB, 1e9));
    let b1 = wf.push(StageSpec::gpu("person", vec![a], ms(20), 1.0 * MB, 1e9).with_cond(0, 0.5));
    let b2 = wf.push(StageSpec::gpu("car", vec![a], ms(30), 1.0 * MB, 1e9).with_cond(0, 0.5));
    let _ = (b1, b2);
    let spec = Arc::new(wf);
    let mut rt = runtime_with(PlacementPolicy::Mapa);
    for i in 0..20 {
        rt.submit(spec.clone(), SimTime(i * 200_000_000));
    }
    rt.run();
    let m = rt.metrics();
    assert_eq!(m.completed(), 20);
    for rec in m.records() {
        // Exactly one branch ran: compute is 10+20 or 10+30 ms.
        assert!(
            rec.compute == ms(30) || rec.compute == ms(40),
            "compute {:?}",
            rec.compute
        );
    }
    // With weight 0.5/0.5 and 20 samples, both branches appear.
    let fast = m.records().iter().filter(|r| r.compute == ms(30)).count();
    assert!(fast > 0 && fast < 20, "branch sampling degenerate: {fast}");
}

#[test]
fn gpu_is_time_multiplexed() {
    // Two instances pinned to the same GPU must serialise their compute.
    let mut wf = WorkflowSpec::new("pinned", 1.0 * MB);
    wf.push(StageSpec::gpu("only", vec![], ms(50), 1.0 * MB, 1e9));
    let spec = Arc::new(wf);
    let pin = PlacementPolicy::Pinned(vec![Destination::Gpu(GpuRef::new(0, 0))]);
    let mut rt = runtime_with(pin);
    rt.submit(spec.clone(), SimTime::ZERO);
    rt.submit(spec, SimTime::ZERO);
    rt.run();
    let m = rt.metrics();
    assert_eq!(m.completed(), 2);
    let mut latencies: Vec<f64> = m
        .records()
        .iter()
        .map(|r| r.latency().as_millis_f64())
        .collect();
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    // Second request waits ~50 ms for the first.
    assert!(
        latencies[1] - latencies[0] > 45.0,
        "latencies {latencies:?}"
    );
}

#[test]
fn separate_gpus_run_in_parallel() {
    let mut wf = WorkflowSpec::new("solo", 1.0 * MB);
    wf.push(StageSpec::gpu("only", vec![], ms(50), 1.0 * MB, 1e9));
    let spec = Arc::new(wf);
    let mut rt = runtime_with(PlacementPolicy::RoundRobin);
    rt.submit(spec.clone(), SimTime::ZERO);
    rt.submit(spec, SimTime::ZERO);
    rt.run();
    let m = rt.metrics();
    let latencies: Vec<f64> = m
        .records()
        .iter()
        .map(|r| r.latency().as_millis_f64())
        .collect();
    // Both finish in about one compute time (plus data passing).
    for l in &latencies {
        assert!(*l < 80.0, "latencies {latencies:?}");
    }
}

#[test]
fn zero_copy_when_producer_and_consumer_share_gpu() {
    let g = Destination::Gpu(GpuRef::new(0, 2));
    let mut wf = WorkflowSpec::new("samegpu", 1.0 * MB);
    let a = wf.push(StageSpec::gpu("a", vec![], ms(5), 64.0 * MB, 1e9));
    wf.push(StageSpec::gpu("b", vec![a], ms(5), 1.0 * MB, 1e9));
    let mut rt = runtime_with(PlacementPolicy::Pinned(vec![g, g]));
    rt.submit(Arc::new(wf), SimTime::ZERO);
    rt.run();
    let rec = &rt.metrics().records()[0];
    // The 64 MB a→b hop is zero-copy: gFn–gFn passing is only control-plane
    // microseconds, far below the ~5 ms a PCIe trip would take.
    let gg = rec.passing_of(PassCategory::GpuGpu);
    assert!(gg < SimDuration::from_millis(1), "gFn-gFn time {gg}");
}

#[test]
fn cross_node_workflow_completes() {
    let mut wf = WorkflowSpec::new("xnode", 1.0 * MB);
    let a = wf.push(StageSpec::gpu("a", vec![], ms(5), 100.0 * MB, 1e9));
    wf.push(StageSpec::gpu("b", vec![a], ms(5), 1.0 * MB, 1e9));
    let pin = PlacementPolicy::Pinned(vec![
        Destination::Gpu(GpuRef::new(0, 0)),
        Destination::Gpu(GpuRef::new(1, 0)),
    ]);
    let cfg = RuntimeConfig {
        placement: pin,
        placement_nodes: vec![0, 1],
        ..Default::default()
    };
    let mut rt = Runtime::new(presets::dgx_v100(), 2, Box::new(LocalityPlane::new()), cfg);
    rt.submit(Arc::new(wf), SimTime::ZERO);
    rt.run();
    let m = rt.metrics();
    assert_eq!(m.completed(), 1);
    let rec = &m.records()[0];
    // 100 MB over a single 100 Gbps NIC ≈ 8 ms minimum.
    let gg = rec.passing_of(PassCategory::GpuGpu);
    assert!(gg >= SimDuration::from_millis(8), "cross-node time {gg}");
    assert!(rt.world().quiescent());
}

#[test]
fn memory_sampling_produces_series() {
    let cfg = RuntimeConfig {
        placement: PlacementPolicy::Mapa,
        placement_nodes: vec![0],
        sample_memory: true,
        ..Default::default()
    };
    let mut rt = Runtime::new(presets::dgx_v100(), 1, Box::new(LocalityPlane::new()), cfg);
    rt.schedule_memory_samples(SimDuration::from_millis(10), SimTime(100_000_000));
    rt.submit(linear_workflow(), SimTime::ZERO);
    rt.run();
    let series = &rt.world().mem_series;
    assert!(series.iter().any(|s| s.len() > 5));
    // Idle memory never exceeds capacity.
    for s in series {
        for &(_, v) in s.points() {
            assert!(v <= 16.0 * 1024.0 * 1024.0 * 1024.0);
            assert!(v >= 0.0);
        }
    }
}

#[test]
fn arrivals_counted_even_before_completion() {
    let mut rt = runtime_with(PlacementPolicy::Mapa);
    rt.submit(linear_workflow(), SimTime::ZERO);
    assert_eq!(rt.metrics().arrivals, 1);
    assert_eq!(rt.metrics().completed(), 0);
    rt.run();
    assert_eq!(rt.metrics().completed(), 1);
}

#[test]
fn multiple_conditional_groups_sample_independently() {
    // Two independent condition groups: exactly one alternative per group
    // runs each request.
    let mut wf = WorkflowSpec::new("twocond", 1.0 * MB);
    let a = wf.push(StageSpec::gpu("a", vec![], ms(2), 1.0 * MB, 1e9));
    wf.push(StageSpec::gpu("b1", vec![a], ms(10), 1.0 * MB, 1e9).with_cond(0, 0.5));
    wf.push(StageSpec::gpu("b2", vec![a], ms(20), 1.0 * MB, 1e9).with_cond(0, 0.5));
    wf.push(StageSpec::gpu("c1", vec![a], ms(1), 1.0 * MB, 1e9).with_cond(1, 0.5));
    wf.push(StageSpec::gpu("c2", vec![a], ms(3), 1.0 * MB, 1e9).with_cond(1, 0.5));
    let spec = Arc::new(wf);
    let mut rt = runtime_with(PlacementPolicy::Mapa);
    for i in 0..16 {
        rt.submit(spec.clone(), SimTime(i * 300_000_000));
    }
    rt.run();
    for rec in rt.metrics().records() {
        // compute = 2 + (10|20) + (1|3)
        let c = rec.compute.as_millis_f64();
        assert!(
            [13.0, 15.0, 23.0, 25.0]
                .iter()
                .any(|v| (c - v).abs() < 1e-6),
            "unexpected compute {c}"
        );
    }
}

#[test]
fn skipped_branches_cascade_through_chains() {
    // a → (b1|b2) where b1 → c1 (only c1 depends on b1): when b2 wins, c1
    // must cascade-skip, and the workflow still terminates via b2.
    let mut wf = WorkflowSpec::new("cascade", 1.0 * MB);
    let a = wf.push(StageSpec::gpu("a", vec![], ms(2), 1.0 * MB, 1e9));
    let b1 = wf.push(StageSpec::gpu("b1", vec![a], ms(4), 1.0 * MB, 1e9).with_cond(0, 0.5));
    wf.push(StageSpec::gpu("b2", vec![a], ms(6), 1.0 * MB, 1e9).with_cond(0, 0.5));
    wf.push(StageSpec::gpu("c1", vec![b1], ms(8), 1.0 * MB, 1e9));
    let spec = Arc::new(wf);
    let mut rt = runtime_with(PlacementPolicy::Mapa);
    for i in 0..12 {
        rt.submit(spec.clone(), SimTime(i * 400_000_000));
    }
    rt.run();
    let m = rt.metrics();
    assert_eq!(m.completed(), 12);
    for rec in m.records() {
        let c = rec.compute.as_millis_f64();
        // b1 path: 2+4+8 = 14; b2 path: 2+6 = 8 (c1 skipped).
        assert!(
            (c - 14.0).abs() < 1e-6 || (c - 8.0).abs() < 1e-6,
            "unexpected compute {c}"
        );
    }
    assert!(rt.world().quiescent());
}

#[test]
fn run_until_can_resume_mid_workflow() {
    let mut rt = runtime_with(PlacementPolicy::Mapa);
    rt.submit(linear_workflow(), SimTime::ZERO);
    // Stop mid-flight, then resume.
    rt.run_until(SimTime(10_000_000));
    assert_eq!(rt.metrics().completed(), 0);
    assert!(!rt.world().quiescent());
    rt.run();
    assert_eq!(rt.metrics().completed(), 1);
    assert!(rt.world().quiescent());
}

#[test]
fn link_sampling_records_series() {
    let cfg = RuntimeConfig {
        placement: PlacementPolicy::Mapa,
        placement_nodes: vec![0],
        ..Default::default()
    };
    let mut rt = Runtime::new(presets::dgx_v100(), 1, Box::new(LocalityPlane::new()), cfg);
    let uplinks = rt.world().topo.uplink_links(0);
    // Sample fast enough to catch millisecond-scale PCIe transfers.
    rt.schedule_link_samples(uplinks, SimDuration::from_micros(50), SimTime(100_000_000));
    rt.submit(linear_workflow(), SimTime::ZERO);
    rt.run();
    assert_eq!(rt.world().link_series.len(), 4);
    for (_, series) in &rt.world().link_series {
        assert!(series.len() > 100);
        for &(_, v) in series.points() {
            assert!((0.0..=1.0 + 1e-9).contains(&v), "utilisation fraction {v}");
        }
    }
    // At least one uplink saw traffic (the 48 MB decode output ingest).
    assert!(rt
        .world()
        .link_series
        .iter()
        .any(|(_, s)| s.max_value().unwrap_or(0.0) > 0.0));
}

#[test]
fn pinned_placement_on_host_only_stages() {
    // A pure-CPU workflow never touches GPUs or pools.
    let mut wf = WorkflowSpec::new("cpuonly", 1.0 * MB);
    let a = wf.push(StageSpec::cpu("extract", vec![], ms(3), 2.0 * MB));
    wf.push(StageSpec::cpu("aggregate", vec![a], ms(2), 1.0 * MB));
    let pin = PlacementPolicy::Pinned(vec![Destination::Host(0), Destination::Host(0)]);
    let cfg = RuntimeConfig {
        placement: pin,
        placement_nodes: vec![0],
        ..Default::default()
    };
    let mut rt = Runtime::new(presets::dgx_v100(), 1, Box::new(LocalityPlane::new()), cfg);
    rt.submit(Arc::new(wf), SimTime::ZERO);
    rt.run();
    let rec = &rt.metrics().records()[0];
    assert_eq!(rec.compute, ms(5));
    assert_eq!(rec.passing_of(PassCategory::GpuGpu), SimDuration::ZERO);
    assert_eq!(rec.passing_of(PassCategory::GpuHost), SimDuration::ZERO);
    for pool in &rt.world().pools {
        assert_eq!(pool.used(), 0.0);
    }
}
