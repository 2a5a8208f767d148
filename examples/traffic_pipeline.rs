//! The paper's motivating application (Fig. 1): the *Traffic* monitoring
//! workflow under a bursty Azure-style trace, across all four data planes.
//!
//! ```text
//! cargo run -p grouter-examples --example traffic_pipeline --release
//! ```

use grouter::runtime::dataplane::DataPlane;
use grouter::runtime::world::RuntimeConfig;
use grouter::runtime::Runtime;
use grouter::sim::rng::DetRng;
use grouter::sim::time::SimDuration;
use grouter::topology::presets;
use grouter::{GrouterConfig, GrouterPlane};
use grouter_baselines::{deepplan_plane, InflessPlane, NvshmemPlane};
use grouter_workloads::apps::{traffic, WorkloadParams};
use grouter_workloads::azure::{generate_trace, ArrivalPattern};
use grouter_workloads::models::GpuClass;

fn run(plane: Box<dyn DataPlane>) -> (String, f64, f64, f64, f64) {
    let name = plane.name().to_string();
    let params = WorkloadParams {
        batch: 8,
        gpu: GpuClass::V100,
    };
    let spec = traffic(params);
    let mut rng = DetRng::new(2024);
    let trace = generate_trace(
        ArrivalPattern::Bursty,
        12.0,
        SimDuration::from_secs(20),
        &mut rng,
    );
    let mut rt = Runtime::new(presets::dgx_v100(), 1, plane, RuntimeConfig::default());
    for t in &trace {
        rt.submit(spec.clone(), *t);
    }
    rt.run();
    let m = rt.metrics();
    let lat = m.latency_ms(None);
    let (compute, gg, gh, _) = m.breakdown_ms(None);
    (name, lat.p50(), lat.p99(), compute, gg + gh)
}

fn main() {
    println!("Traffic-monitoring workflow (Fig. 1), bursty trace, DGX-V100.");
    println!("decode → preprocess → YOLO → postprocess → person|car recognition\n");
    println!(
        "{:<12} {:>10} {:>10} {:>13} {:>15}",
        "plane", "p50 (ms)", "p99 (ms)", "compute (ms)", "data pass (ms)"
    );
    let planes: Vec<Box<dyn DataPlane>> = vec![
        Box::new(InflessPlane::new()),
        Box::new(NvshmemPlane::new(7)),
        deepplan_plane(7),
        Box::new(GrouterPlane::new(GrouterConfig::full())),
    ];
    let mut p99s = Vec::new();
    for plane in planes {
        let (name, p50, p99, compute, pass) = run(plane);
        println!(
            "{:<12} {:>10.1} {:>10.1} {:>13.1} {:>15.1}",
            name, p50, p99, compute, pass
        );
        p99s.push((name, p99));
    }
    let base = p99s[0].1;
    let ours = p99s.last().expect("rows").1;
    println!(
        "\nGROUTER reduces P99 latency by {:.0}% vs INFless+ on this trace.",
        (1.0 - ours / base) * 100.0
    );
}
