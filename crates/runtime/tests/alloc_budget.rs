//! Allocation budget of a steady-state workflow request. Once the executor
//! is warm, a request of a two-stage GPU workflow allocates its `Instance`
//! (placements and stage records) and the plane's plans for its data
//! operations, and nothing per stage, per transfer or per network wake:
//! the executor's and the transfer engine's buffers and records are all
//! recycled, and so is the instance's operation log, which the metrics
//! fold into per-category counts and sums before it goes back to the
//! world's free list.

use std::sync::Arc;

use grouter_audit::{count_allocs, CountingAlloc};
use grouter_runtime::placement::PlacementPolicy;
use grouter_runtime::simple_plane::LocalityPlane;
use grouter_runtime::spec::{StageSpec, WorkflowSpec};
use grouter_runtime::world::RuntimeConfig;
use grouter_runtime::Runtime;
use grouter_sim::time::{SimDuration, SimTime};
use grouter_topology::presets;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

/// Two GPU stages on one DGX-V100: the input comes in from host memory,
/// the first stage's output crosses NVLink (MAPA places the stages on
/// different GPUs under load), the second's leaves as the response.
fn two_stage() -> Arc<WorkflowSpec> {
    let mut wf = WorkflowSpec::new("pair", 4e6);
    let a = wf.push(StageSpec::gpu("detect", vec![], ms(5), 8e6, 1e9));
    wf.push(StageSpec::gpu("classify", vec![a], ms(5), 1e6, 1e9));
    Arc::new(wf)
}

// One test function: the checkers' samplers are process-wide, and a second
// test on another thread would advance them inside the measured window.
#[test]
fn warm_request_allocations() {
    let cfg = RuntimeConfig {
        placement: PlacementPolicy::Mapa,
        placement_nodes: vec![0],
        ..Default::default()
    };
    let mut rt = Runtime::new(presets::dgx_v100(), 1, Box::new(LocalityPlane::new()), cfg);
    let spec = two_stage();
    // Warm-up: enough requests, overlapping and alone, to size every
    // recycled buffer, the event queue and the metrics' record list
    // (10 records: the next push stays within its capacity of 16).
    for i in 0..10 {
        rt.submit(spec.clone(), SimTime(i * 2_000_000));
    }
    rt.run();
    assert_eq!(rt.metrics().completed(), 10);

    let at = rt.now() + SimDuration::from_secs(1);
    let (_, allocs) = count_allocs(|| {
        rt.submit(spec.clone(), at);
        rt.run();
    });
    assert_eq!(rt.metrics().completed(), 11);
    assert!(rt.world().quiescent());
    // Two for the `Instance`, the rest for the plane's leg and plan lists
    // (6 in all when last measured).
    assert!(allocs <= 8, "one warm request made {allocs} allocations");
}
