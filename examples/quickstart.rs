//! Quickstart: run one inference workflow on a simulated DGX-V100 node and
//! compare GROUTER against the host-centric baseline.
//!
//! ```text
//! cargo run -p grouter-examples --example quickstart
//! ```

use std::sync::Arc;

use grouter::runtime::dataplane::DataPlane;
use grouter::runtime::spec::{StageSpec, WorkflowSpec};
use grouter::runtime::world::RuntimeConfig;
use grouter::runtime::Runtime;
use grouter::sim::time::{SimDuration, SimTime};
use grouter::topology::presets;
use grouter::{GrouterConfig, GrouterPlane};
use grouter_baselines::{nvshmem_plane, InflessPlane};

const MB: f64 = 1e6;

/// A three-stage detection pipeline: decode (CPU) → detect → classify.
fn pipeline() -> Arc<WorkflowSpec> {
    let mut wf = WorkflowSpec::new("quickstart", 4.0 * MB);
    let decode = wf.push(StageSpec::cpu(
        "decode",
        vec![],
        SimDuration::from_millis(4),
        48.0 * MB,
    ));
    let detect = wf.push(StageSpec::gpu(
        "detect",
        vec![decode],
        SimDuration::from_millis(22),
        24.0 * MB,
        1.9e9,
    ));
    wf.push(StageSpec::gpu(
        "classify",
        vec![detect],
        SimDuration::from_millis(9),
        1.0 * MB,
        0.8e9,
    ));
    Arc::new(wf)
}

fn run(plane: Box<dyn DataPlane>) -> (String, f64, f64, f64) {
    let name = plane.name().to_string();
    let mut rt = Runtime::new(presets::dgx_v100(), 1, plane, RuntimeConfig::default());
    for i in 0..20 {
        rt.submit(pipeline(), SimTime(i * 100_000_000));
    }
    rt.run();
    let m = rt.metrics();
    let (compute, gg, gh, _) = m.breakdown_ms(None);
    (name, m.latency_ms(None).mean(), compute, gg + gh)
}

fn main() {
    println!("GROUTER quickstart — 20 requests of a decode→detect→classify pipeline");
    println!("on one simulated DGX-V100 node (8×V100, asymmetric NVLink).\n");
    println!(
        "{:<12} {:>14} {:>14} {:>16}",
        "plane", "mean e2e (ms)", "compute (ms)", "data passing (ms)"
    );
    let planes: Vec<Box<dyn DataPlane>> = vec![
        Box::new(InflessPlane::new()),
        Box::new(nvshmem_plane(42)),
        Box::new(GrouterPlane::new(GrouterConfig::full())),
    ];
    let mut rows = Vec::new();
    for plane in planes {
        let row = run(plane);
        println!(
            "{:<12} {:>14.2} {:>14.2} {:>16.2}",
            row.0, row.1, row.2, row.3
        );
        rows.push(row);
    }
    let host = rows[0].3;
    let ours = rows[2].3;
    println!(
        "\nGROUTER cuts data-passing latency by {:.0}% vs the host-centric plane.",
        (1.0 - ours / host) * 100.0
    );
}
