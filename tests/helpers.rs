//! Shared fixtures for the cross-crate integration tests.

use std::sync::Arc;

use grouter::runtime::dataplane::DataPlane;
use grouter::runtime::world::RuntimeConfig;
use grouter::runtime::Runtime;
use grouter::sim::rng::DetRng;
use grouter::sim::time::SimDuration;
use grouter::topology::graph::TopologySpec;
use grouter::{GrouterConfig, GrouterPlane};
use grouter_baselines::{deepplan_plane, nvshmem_plane, InflessPlane};
use grouter_runtime::spec::WorkflowSpec;
use grouter_workloads::azure::{generate_trace, ArrivalPattern};

/// All four evaluated planes with a deterministic seed, in the paper's
/// order: INFless+, NVSHMEM+, DeepPlan+, GROUTER.
pub fn all_planes(seed: u64) -> Vec<Box<dyn DataPlane>> {
    vec![
        Box::new(InflessPlane::new()),
        Box::new(nvshmem_plane(seed)),
        Box::new(deepplan_plane(seed)),
        Box::new(GrouterPlane::new(GrouterConfig::full())),
    ]
}

/// Run `spec` under a short bursty trace on `topo` and return the runtime.
pub fn run_bursty(
    topo: TopologySpec,
    nodes: usize,
    plane: Box<dyn DataPlane>,
    spec: Arc<WorkflowSpec>,
    rps: f64,
    secs: u64,
    seed: u64,
) -> Runtime {
    let mut rt = Runtime::new(topo, nodes, plane, RuntimeConfig::default());
    let mut rng = DetRng::new(seed);
    for t in generate_trace(
        ArrivalPattern::Bursty,
        rps,
        SimDuration::from_secs(secs),
        &mut rng,
    ) {
        rt.submit(spec.clone(), t);
    }
    rt.run();
    rt
}
