//! Elastic GPU storage under memory pressure (paper §4.4 / Fig. 18):
//! run a bursty workload with most GPU memory occupied by models and watch
//! how eviction policy and proactive restoration change tail latency.
//!
//! ```text
//! cargo run -p grouter-examples --example elastic_storage --release
//! ```

use std::sync::Arc;

use grouter::runtime::dataplane::{DataPlane, Destination};
use grouter::runtime::placement::PlacementPolicy;
use grouter::runtime::spec::{StageSpec, WorkflowSpec};
use grouter::runtime::world::RuntimeConfig;
use grouter::runtime::Runtime;
use grouter::sim::rng::DetRng;
use grouter::sim::time::SimDuration;
use grouter::topology::{presets, GpuRef};
use grouter::{GrouterConfig, GrouterPlane};
use grouter_baselines::NvshmemPlane;
use grouter_workloads::azure::{generate_trace, ArrivalPattern};

const MB: f64 = 1e6;

/// Producer/consumer chain on two GPUs: outputs pile up in GPU storage
/// while the consumer queue drains, forcing migrations when memory is
/// scarce.
fn chain() -> Arc<WorkflowSpec> {
    let mut wf = WorkflowSpec::new("chain", 2.0 * MB);
    let a = wf.push(StageSpec::gpu(
        "produce",
        vec![],
        SimDuration::from_millis(4),
        220.0 * MB,
        1e9,
    ));
    wf.push(StageSpec::gpu(
        "consume",
        vec![a],
        SimDuration::from_millis(18),
        1.0 * MB,
        1e9,
    ));
    Arc::new(wf)
}

fn run(plane: Box<dyn DataPlane>, occupied_frac: f64) -> (String, f64, f64, u64) {
    let name = plane.name().to_string();
    let pin = PlacementPolicy::Pinned(vec![
        Destination::Gpu(GpuRef::new(0, 0)),
        Destination::Gpu(GpuRef::new(0, 3)),
    ]);
    let cfg = RuntimeConfig {
        placement: pin,
        placement_nodes: vec![0],
        ..Default::default()
    };
    let mut rt = Runtime::new(presets::dgx_v100(), 1, plane, cfg);
    // Models occupy most of both GPUs before any request arrives.
    let capacity = rt.world().topo.gpu_mem_bytes();
    for idx in [0usize, 3] {
        rt.world_mut().pools[idx].set_runtime_used(capacity * occupied_frac);
    }
    let mut rng = DetRng::new(99);
    let trace = generate_trace(
        ArrivalPattern::Bursty,
        25.0,
        SimDuration::from_secs(12),
        &mut rng,
    );
    for t in &trace {
        rt.submit(chain(), *t);
    }
    rt.run();
    let m = rt.metrics();
    let lat = m.latency_ms(None);
    let pool = &rt.world().pools[0];
    (name, lat.p50(), lat.p99(), pool.native_allocs())
}

fn main() {
    println!("Elastic storage under memory pressure (cf. Fig. 18).");
    println!("Producer/consumer chain, bursty trace, 80% of GPU memory taken by models.\n");
    println!(
        "{:<22} {:>10} {:>10} {:>14}",
        "plane", "p50 (ms)", "p99 (ms)", "native allocs"
    );
    let runs: Vec<(Box<dyn DataPlane>, &str)> = vec![
        (Box::new(NvshmemPlane::new(3)), "NVSHMEM+ (LRU)"),
        (
            Box::new(GrouterPlane::new(GrouterConfig::full().no_es())),
            "GROUTER w/o ES (LRU)",
        ),
        (
            Box::new(GrouterPlane::new(GrouterConfig::full())),
            "GROUTER (queue-aware)",
        ),
    ];
    let mut p99 = Vec::new();
    for (plane, label) in runs {
        let (_, p50, p99v, allocs) = run(plane, 0.8);
        println!("{:<22} {:>10.1} {:>10.1} {:>14}", label, p50, p99v, allocs);
        p99.push(p99v);
    }
    println!(
        "\nQueue-aware migration + proactive restore cuts P99 by {:.0}% vs LRU.",
        (1.0 - p99[2] / p99[0]) * 100.0
    );
}
