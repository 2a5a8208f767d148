//! SLO-aware bandwidth partitioning (paper §4.3.2 / Fig. 17): a
//! latency-critical *driving* workflow co-located with the transfer-hungry
//! *video* workflow, with and without GROUTER's `Rate_least` guarantees.
//!
//! ```text
//! cargo run -p grouter-examples --example bandwidth_partitioning --release
//! ```

use std::sync::Arc;

use grouter::runtime::spec::WorkflowSpec;
use grouter::runtime::world::RuntimeConfig;
use grouter::runtime::Runtime;
use grouter::sim::rng::DetRng;
use grouter::sim::time::{SimDuration, SimTime};
use grouter::topology::presets;
use grouter::{GrouterConfig, GrouterPlane};
use grouter_workloads::apps::{driving, video, WorkloadParams};
use grouter_workloads::azure::{generate_trace, ArrivalPattern};
use grouter_workloads::models::GpuClass;

/// Calibrate the driving workflow's SLO at 1.5× its solo mean latency.
fn calibrated_driving(params: WorkloadParams) -> Arc<WorkflowSpec> {
    let spec = driving(params);
    let mut rt = Runtime::new(
        presets::dgx_v100(),
        1,
        Box::new(GrouterPlane::new(GrouterConfig::full())),
        RuntimeConfig::default(),
    );
    for i in 0..10u64 {
        rt.submit(spec.clone(), SimTime(i * 2_000_000_000));
    }
    rt.run();
    let solo_ms = rt.metrics().latency_ms(None).mean();
    let mut wf = (*spec).clone();
    wf.slo = SimDuration::from_secs_f64(solo_ms / 1e3 * 1.5);
    Arc::new(wf)
}

fn corun(cfg: GrouterConfig, d: &Arc<WorkflowSpec>, v: &Arc<WorkflowSpec>) -> (f64, f64, f64) {
    let mut rt = Runtime::new(
        presets::dgx_v100(),
        1,
        Box::new(GrouterPlane::new(cfg)),
        RuntimeConfig::default(),
    );
    let mut rng = DetRng::new(55);
    let mut sub = rng.fork(0);
    for t in generate_trace(
        ArrivalPattern::Bursty,
        8.0,
        SimDuration::from_secs(12),
        &mut sub,
    ) {
        rt.submit(d.clone(), t);
    }
    let mut sub = rng.fork(1);
    for t in generate_trace(
        ArrivalPattern::Bursty,
        8.0,
        SimDuration::from_secs(12),
        &mut sub,
    ) {
        rt.submit(v.clone(), t);
    }
    rt.run();
    let m = rt.metrics();
    (
        m.latency_ms(Some("driving")).p99(),
        m.slo_compliance(Some("driving"), d.slo) * 100.0,
        m.latency_ms(Some("video")).p99(),
    )
}

fn main() {
    let params = WorkloadParams {
        batch: 8,
        gpu: GpuClass::V100,
    };
    println!("Bandwidth partitioning under co-location (cf. Fig. 17).");
    println!("driving (latency-critical, SLO = 1.5x solo) + video (transfer-hungry), DGX-V100.\n");

    let d = calibrated_driving(params);
    let v = video(params);
    println!("driving SLO: {:.0} ms\n", d.slo.as_millis_f64());
    println!(
        "{:<34} {:>16} {:>12} {:>14}",
        "variant", "driving p99 (ms)", "SLO met", "video p99 (ms)"
    );
    let (p99, slo, vp99) = corun(GrouterConfig::full(), &d, &v);
    println!(
        "{:<34} {:>16.0} {:>11.0}% {:>14.0}",
        "GROUTER (Rate_least guarantees)", p99, slo, vp99
    );
    let (p99n, slon, vp99n) = corun(GrouterConfig::full().no_bh(), &d, &v);
    println!(
        "{:<34} {:>16.0} {:>11.0}% {:>14.0}",
        "no partitioning (shared links)", p99n, slon, vp99n
    );
    println!(
        "\npartitioning cuts driving p99 by {:.0}% (video p99 changes by {:+.0}%).",
        (1.0 - p99 / p99n) * 100.0,
        (vp99 / vp99n - 1.0) * 100.0
    );
}
