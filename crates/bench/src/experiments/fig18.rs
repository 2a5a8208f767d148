//! **Fig. 18** — elasticity of GPU storage under memory limits.
//!
//! (a) end-to-end latency with only 10 % of GPU memory available;
//! (b) end-to-end latency across availability ratios;
//! (c) average gFn–gFn data-passing latency.
//!
//! Paper: GROUTER cuts tail latency by 46/27/7 % vs INFless+/LRU/RQ at
//! 10 %, still wins at 1 %, and cuts data-passing delays by 83/72/49 %.

use std::sync::Arc;

use crate::harness::{fmt_ms, PlaneKind, Table};
use grouter::runtime::metrics::{Metrics, PassCategory};
use grouter::runtime::spec::{StageSpec, WorkflowSpec};
use grouter::runtime::world::RuntimeConfig;
use grouter::runtime::Runtime;
use grouter::sim::rng::DetRng;
use grouter::sim::time::SimDuration;
use grouter::topology::presets;
use grouter::GrouterConfig;
use grouter_workloads::azure::{generate_trace, ArrivalPattern};

const MB: f64 = 1e6;

/// The four systems of Fig. 18.
fn variants() -> Vec<(&'static str, PlaneKind)> {
    vec![
        ("INFless+", PlaneKind::Infless),
        ("LRU", PlaneKind::Nvshmem),
        (
            "RQ",
            PlaneKind::GrouterCfg(GrouterConfig::full().no_restore()),
        ),
        ("GROUTER", PlaneKind::Grouter),
    ]
}

/// Producer/consumer chain that accumulates outputs in GPU storage.
fn chain() -> Arc<WorkflowSpec> {
    let mut wf = WorkflowSpec::new("chain", 2.0 * MB);
    let a = wf.push(StageSpec::gpu(
        "produce",
        vec![],
        SimDuration::from_millis(4),
        180.0 * MB,
        1e9,
    ));
    wf.push(StageSpec::gpu(
        "consume",
        vec![a],
        SimDuration::from_millis(16),
        1.0 * MB,
        1e9,
    ));
    Arc::new(wf)
}

fn run_at(plane: PlaneKind, avail: f64) -> Metrics {
    use grouter::runtime::dataplane::Destination;
    use grouter::runtime::placement::PlacementPolicy;
    use grouter::topology::GpuRef;

    let pin = PlacementPolicy::Pinned(vec![
        Destination::Gpu(GpuRef::new(0, 0)),
        Destination::Gpu(GpuRef::new(0, 3)),
    ]);
    let cfg = RuntimeConfig {
        placement: pin,
        placement_nodes: vec![0],
        ..Default::default()
    };
    let mut rt = Runtime::new(presets::dgx_v100(), 1, plane.build(3), cfg);
    let cap = rt.world().topo.gpu_mem_bytes();
    for idx in 0..8 {
        rt.world_mut().pools[idx].set_runtime_used(cap * (1.0 - avail));
    }
    let mut rng = DetRng::new(99);
    for t in generate_trace(
        ArrivalPattern::Bursty,
        22.0,
        SimDuration::from_secs(12),
        &mut rng,
    ) {
        rt.submit(chain(), t);
    }
    rt.run();
    rt.metrics().clone()
}

pub fn run() -> String {
    let mut out = String::from(
        "Fig. 18 — elastic GPU storage under memory limits (bursty producer/consumer chain)\n\n(a) 10% available GPU memory\n",
    );
    let mut table = Table::new(
        &["system", "p50 (ms)", "p99 (ms)", "avg gFn-gFn pass (ms)"],
        &[10, 10, 10, 22],
    );
    let mut p99_at_10 = Vec::new();
    for (label, plane) in variants() {
        let m = run_at(plane, 0.10);
        let lat = m.latency_ms(None);
        let pass = m.op_mean_ms(PassCategory::GpuGpu);
        p99_at_10.push(lat.p99());
        table.row(&[
            label.to_string(),
            fmt_ms(lat.p50()),
            fmt_ms(lat.p99()),
            fmt_ms(pass),
        ]);
    }
    out.push_str(&table.finish());
    // The paper plots (a) as a latency CDF; print the distribution tails.
    out.push_str("\nlatency CDF at 10% available memory (ms at P25/P50/P75/P90/P99):\n");
    let mut cdf_table = Table::new(
        &["system", "p25", "p50", "p75", "p90", "p99"],
        &[10, 9, 9, 9, 9, 9],
    );
    for (label, plane) in variants() {
        let m = run_at(plane, 0.10);
        let lat = m.latency_ms(None);
        cdf_table.row(&[
            label.to_string(),
            fmt_ms(lat.quantile(0.25)),
            fmt_ms(lat.quantile(0.50)),
            fmt_ms(lat.quantile(0.75)),
            fmt_ms(lat.quantile(0.90)),
            fmt_ms(lat.quantile(0.99)),
        ]);
    }
    out.push_str(&cdf_table.finish());
    out.push_str(&format!(
        "GROUTER p99 vs INFless+/LRU/RQ: {:+.0}% / {:+.0}% / {:+.0}%  (paper: -46/-27/-7%)\n\n",
        (p99_at_10[3] / p99_at_10[0] - 1.0) * 100.0,
        (p99_at_10[3] / p99_at_10[1] - 1.0) * 100.0,
        (p99_at_10[3] / p99_at_10[2] - 1.0) * 100.0,
    ));

    out.push_str("(b) end-to-end p99 (ms) across availability ratios\n");
    let mut table = Table::new(
        &["avail", "INFless+", "LRU", "RQ", "GROUTER"],
        &[7, 10, 10, 10, 10],
    );
    for avail in [0.01, 0.05, 0.10, 0.25, 0.50] {
        let mut row = vec![format!("{:.0}%", avail * 100.0)];
        for (_, plane) in variants() {
            let m = run_at(plane, avail);
            row.push(fmt_ms(m.latency_ms(None).p99()));
        }
        table.row(&row);
    }
    out.push_str(&table.finish());
    out.push_str("paper: GROUTER still ahead at 1% available memory (-24/-14/-9% e2e)\n\n");

    out.push_str("(c) average gFn-gFn data-passing latency at 10% (see table (a), last column)\n");
    out.push_str("paper: -83% / -72% / -49% vs INFless+/LRU/RQ\n");
    out
}
