//! Shared experiment plumbing: plane construction, trace runs, hop-latency
//! probes, throughput search, and table formatting.

use std::fmt::Write as _;
use std::sync::Arc;

use grouter::runtime::dataplane::{DataPlane, Destination};
use grouter::runtime::metrics::{Metrics, PassCategory};
use grouter::runtime::placement::PlacementPolicy;
use grouter::runtime::spec::{StageSpec, WorkflowSpec};
use grouter::runtime::world::RuntimeConfig;
use grouter::runtime::Runtime;
use grouter::sim::rng::DetRng;
use grouter::sim::time::{SimDuration, SimTime};
use grouter::topology::graph::TopologySpec;
use grouter::topology::GpuRef;
use grouter::{GrouterConfig, GrouterPlane};
use grouter_baselines::{deepplan_plane, mooncake_plane, nvshmem_plane, InflessPlane};
use grouter_workloads::azure::{generate_trace, ArrivalPattern};

pub const MB: f64 = 1e6;

/// Which data plane an experiment run uses.
#[derive(Clone, Copy, Debug)]
pub enum PlaneKind {
    Infless,
    Nvshmem,
    Deepplan,
    Grouter,
    GrouterCfg(GrouterConfig),
    Mooncake(u32),
}

impl PlaneKind {
    /// The four planes most figures compare.
    pub const MAIN: [PlaneKind; 4] = [
        PlaneKind::Infless,
        PlaneKind::Nvshmem,
        PlaneKind::Deepplan,
        PlaneKind::Grouter,
    ];

    pub fn label(&self) -> &'static str {
        match self {
            PlaneKind::Infless => "INFless+",
            PlaneKind::Nvshmem => "NVSHMEM+",
            PlaneKind::Deepplan => "DeepPlan+",
            PlaneKind::Grouter => "GROUTER",
            PlaneKind::GrouterCfg(_) => "GROUTER*",
            PlaneKind::Mooncake(_) => "Mooncake+",
        }
    }

    pub fn build(&self, seed: u64) -> Box<dyn DataPlane> {
        match self {
            PlaneKind::Infless => Box::new(InflessPlane::new()),
            PlaneKind::Nvshmem => Box::new(nvshmem_plane(seed)),
            PlaneKind::Deepplan => Box::new(deepplan_plane(seed)),
            PlaneKind::Grouter => Box::new(GrouterPlane::new(GrouterConfig::full())),
            PlaneKind::GrouterCfg(cfg) => Box::new(GrouterPlane::new(*cfg)),
            PlaneKind::Mooncake(tp) => Box::new(mooncake_plane(*tp)),
        }
    }
}

/// Run `spec` under a trace and return the metrics.
#[allow(clippy::too_many_arguments)]
pub fn run_trace(
    topo: TopologySpec,
    nodes: usize,
    plane: PlaneKind,
    specs: &[Arc<WorkflowSpec>],
    pattern: ArrivalPattern,
    rps_per_spec: f64,
    secs: u64,
    seed: u64,
) -> Metrics {
    let mut rt = Runtime::new(topo, nodes, plane.build(seed), RuntimeConfig::default());
    let mut rng = DetRng::new(seed);
    for (k, spec) in specs.iter().enumerate() {
        let mut sub = rng.fork(k as u64);
        let trace = generate_trace(
            pattern,
            rps_per_spec,
            SimDuration::from_secs(secs),
            &mut sub,
        );
        for t in trace {
            rt.submit(spec.clone(), t);
        }
    }
    rt.run();
    rt.metrics().clone()
}

/// Build a two-stage hop workflow: `producer` emits `bytes`, `consumer`
/// receives. Input/output payloads are negligible so the hop dominates.
pub fn hop_spec(bytes: f64, compute_ms: u64) -> Arc<WorkflowSpec> {
    let mut wf = WorkflowSpec::new("hop", 1e3);
    let a = wf.push(StageSpec::gpu(
        "src",
        vec![],
        SimDuration::from_millis(compute_ms),
        bytes,
        1e9,
    ));
    wf.push(StageSpec::gpu(
        "dst",
        vec![a],
        SimDuration::from_millis(compute_ms),
        1e3,
        1e9,
    ));
    Arc::new(wf)
}

/// Data-passing latency (ms) of a single gFn→gFn hop of `bytes` between two
/// pinned GPUs: the time from the upstream `Put` to the downstream data
/// arrival (Fig. 13's metric).
pub fn gfn_hop_ms(
    topo: TopologySpec,
    nodes: usize,
    plane: PlaneKind,
    src: GpuRef,
    dst: GpuRef,
    bytes: f64,
    seed: u64,
) -> f64 {
    let pin = PlacementPolicy::Pinned(vec![Destination::Gpu(src), Destination::Gpu(dst)]);
    let cfg = RuntimeConfig {
        placement: pin,
        placement_nodes: (0..nodes).collect(),
        ..Default::default()
    };
    let mut rt = Runtime::new(topo, nodes, plane.build(seed), cfg);
    rt.submit(hop_spec(bytes, 1), SimTime::ZERO);
    rt.run();
    rt.metrics().records()[0]
        .passing_of(PassCategory::GpuGpu)
        .as_millis_f64()
}

/// Data-passing latency (ms) between host memory and a GPU function: a
/// single gFn whose input of `bytes` arrives via host memory (Fig. 13b).
pub fn host_gfn_ms(
    topo: TopologySpec,
    plane: PlaneKind,
    gpu: GpuRef,
    bytes: f64,
    seed: u64,
) -> f64 {
    let mut wf = WorkflowSpec::new("hosthop", bytes);
    wf.push(StageSpec::gpu(
        "sink",
        vec![],
        SimDuration::from_millis(1),
        1e3,
        1e9,
    ));
    let pin = PlacementPolicy::Pinned(vec![Destination::Gpu(gpu)]);
    let cfg = RuntimeConfig {
        placement: pin,
        placement_nodes: vec![gpu.node],
        ..Default::default()
    };
    let mut rt = Runtime::new(topo, gpu.node + 1, plane.build(seed), cfg);
    rt.submit(Arc::new(wf), SimTime::ZERO);
    rt.run();
    rt.metrics().records()[0]
        .passing_of(PassCategory::GpuHost)
        .as_millis_f64()
}

/// Calibrate a workflow's SLO as `factor ×` its mean solo latency on
/// `plane` (paper §4.3.2 / §6.3), returning a spec with the SLO set.
pub fn with_calibrated_slo(
    topo: TopologySpec,
    nodes: usize,
    plane: PlaneKind,
    spec: &Arc<WorkflowSpec>,
    factor: f64,
    seed: u64,
) -> Arc<WorkflowSpec> {
    let mut rt = Runtime::new(topo, nodes, plane.build(seed), RuntimeConfig::default());
    for i in 0..10u64 {
        rt.submit(spec.clone(), SimTime(i * 2_000_000_000));
    }
    rt.run();
    let mean_ms = rt.metrics().latency_ms(None).mean();
    let slo = SimDuration::from_secs_f64(mean_ms / 1e3 * factor);
    let mut out = (**spec).clone();
    out.slo = slo;
    Arc::new(out)
}

/// Maximum sustainable throughput (requests/s): the highest Poisson arrival
/// rate at which P99 latency stays within `slo`, found by doubling + binary
/// search (Fig. 15's metric).
pub fn max_throughput_rps(
    topo: TopologySpec,
    nodes: usize,
    plane: PlaneKind,
    spec: &Arc<WorkflowSpec>,
    slo: SimDuration,
    seed: u64,
) -> f64 {
    let sustainable = |rps: f64| -> bool {
        let m = run_trace(
            topo.clone(),
            nodes,
            plane,
            std::slice::from_ref(spec),
            ArrivalPattern::Sporadic,
            rps,
            15,
            seed,
        );
        if m.completed() == 0 {
            return false;
        }
        m.latency_ms(None).p99() <= slo.as_millis_f64()
    };
    let mut lo = 0.0;
    let mut hi = 2.0;
    while sustainable(hi) && hi < 4096.0 {
        lo = hi;
        hi *= 2.0;
    }
    for _ in 0..7 {
        let mid = 0.5 * (lo + hi);
        if sustainable(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Simple fixed-width table formatter.
pub struct Table {
    out: String,
    widths: Vec<usize>,
}

impl Table {
    pub fn new(headers: &[&str], widths: &[usize]) -> Table {
        assert_eq!(headers.len(), widths.len());
        let mut t = Table {
            out: String::new(),
            widths: widths.to_vec(),
        };
        let cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
        t.row_cells(&cells);
        t
    }

    pub fn row(&mut self, cells: &[String]) {
        self.row_cells(cells);
    }

    fn row_cells(&mut self, cells: &[String]) {
        for (i, c) in cells.iter().enumerate() {
            let w = self.widths.get(i).copied().unwrap_or(12);
            let _ = write!(self.out, "{c:>w$}  ");
        }
        self.out.push('\n');
    }

    pub fn finish(self) -> String {
        self.out
    }
}

/// `x` as a percentage-reduction string vs `base`.
pub fn pct_reduction(base: f64, x: f64) -> String {
    if base <= 0.0 {
        return "-".to_string();
    }
    format!("{:+.0}%", (x / base - 1.0) * 100.0)
}

/// Format a float with sensible precision for tables.
pub fn fmt_ms(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 1.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}
