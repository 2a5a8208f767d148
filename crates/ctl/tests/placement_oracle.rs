//! Placement oracle: bounded staleness of the heartbeat-view router.
//!
//! A service run whose router sees 50×-staler heartbeats (and suffers
//! control-plane faults) may complete fewer requests at a worse p99, but
//! the gap is pinned: regressions past the pinned factors mean the failure
//! detector or the routed-since correction broke.

use grouter_ctl::{ServiceConfig, ServiceSim};
use grouter_sim::time::SimDuration;
use grouter_workloads::cluster::ClusterPreset;

fn small_preset() -> ClusterPreset {
    let mut p = ClusterPreset::uniform_64();
    p.groups.truncate(4);
    p
}

fn service_run(hb_millis: u64) -> (u64, f64) {
    let cfg = ServiceConfig {
        total: 3_000,
        seed: 0xDE6,
        hb_interval: SimDuration::from_millis(hb_millis),
        ctl_faults: true,
        ..ServiceConfig::default()
    };
    let mut svc = ServiceSim::build(&small_preset(), &cfg);
    svc.run(2);
    assert_eq!(
        svc.completed() as u64 + svc.failed(),
        svc.arrivals(),
        "service run must account for every arrival"
    );
    (svc.completed() as u64, svc.latency_ms().p99())
}

/// Bounded staleness ⇒ bounded degradation: with 50×-staler heartbeats
/// under the same randomized control-plane fault plan, the router may
/// lose some completions and latency, but within pinned factors.
#[test]
fn stale_view_degradation_is_bounded() {
    let (fresh_done, fresh_p99) = service_run(5);
    let (stale_done, stale_p99) = service_run(250);
    // Completed count: the stale router must still finish the vast
    // majority of what the fresh router finishes.
    assert!(
        stale_done * 10 >= fresh_done * 9,
        "stale completions {stale_done} fell below 90% of fresh {fresh_done}"
    );
    // p99 latency: staleness may cost tail latency, but not an order of
    // magnitude.
    assert!(
        stale_p99 <= fresh_p99 * 8.0,
        "stale p99 {stale_p99}ms exceeds 8x fresh p99 {fresh_p99}ms"
    );
}
