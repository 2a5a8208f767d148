//! End-to-end gates for the disaggregated serving subsystem: determinism
//! across worker-thread counts, completion accounting on both planes, and
//! chaos replay of a decode-GPU failure.

use grouter_llm::{run_llm_serve, LlmServeConfig, PlaneKind, NODE_GPUS};
use grouter_sim::time::{SimDuration, SimTime};
use grouter_topology::presets;

/// A reduced-scale config that still exercises admission, handoff, batching
/// and pressure in a few seconds of wall time.
fn small(plane: PlaneKind) -> LlmServeConfig {
    LlmServeConfig {
        requests: 300,
        rps: 40.0,
        ..LlmServeConfig::reference(plane)
    }
}

#[test]
fn prefill_takes_the_h800_gpus_decode_leaves() {
    // Each group builds its node from the H800 preset.
    assert_eq!(NODE_GPUS, presets::h800x8().gpus_per_node);
    assert_eq!(small(PlaneKind::Grouter).prefill_gpus(), 4);
}

#[test]
fn serve_is_byte_identical_across_worker_threads() {
    for plane in [PlaneKind::Grouter, PlaneKind::Mooncake] {
        let mut digests = Vec::new();
        for threads in [1usize, 2, 8] {
            let cfg = LlmServeConfig {
                threads,
                ..small(plane)
            };
            let report = run_llm_serve(&cfg);
            digests.push((report.digest, report.csv.clone()));
        }
        assert_eq!(
            digests[0].1, digests[1].1,
            "{plane:?}: 1-thread vs 2-thread CSV diverged"
        );
        assert_eq!(
            digests[0].1, digests[2].1,
            "{plane:?}: 1-thread vs 8-thread CSV diverged"
        );
        assert_eq!(digests[0].0, digests[1].0);
        assert_eq!(digests[0].0, digests[2].0);
    }
}

#[test]
fn every_request_resolves_on_both_planes() {
    for plane in [PlaneKind::Grouter, PlaneKind::Mooncake] {
        let cfg = small(plane);
        let report = run_llm_serve(&cfg);
        assert_eq!(
            report.completed + report.failed,
            cfg.requests,
            "{plane:?}: requests leaked at the router"
        );
        assert_eq!(
            report.metrics.completed + report.metrics.failed,
            cfg.requests,
            "{plane:?}: requests leaked in the groups"
        );
        assert!(report.completed > 0, "{plane:?}: nothing completed");
        assert!(
            report.metrics.ttft.len() as u64 == report.completed,
            "{plane:?}: one TTFT sample per completion"
        );
        assert!(report.metrics.tokens > 0);
    }
}

#[test]
fn seeds_change_the_outcome_and_reseeds_reproduce_it() {
    let a = run_llm_serve(&small(PlaneKind::Grouter));
    let b = run_llm_serve(&small(PlaneKind::Grouter));
    assert_eq!(a.digest, b.digest, "same seed must reproduce");
    let c = run_llm_serve(&LlmServeConfig {
        seed: 8,
        ..small(PlaneKind::Grouter)
    });
    assert_ne!(a.digest, c.digest, "a different seed must perturb the run");
}

#[test]
fn decode_gpu_failure_rematerializes_and_replays_identically() {
    let base = small(PlaneKind::Grouter);
    let cfg = LlmServeConfig {
        // Fail the second decode GPU of group 0 (decode instances occupy the
        // flat indices after the prefill GPUs) two seconds in, mid-stream.
        fail: Some((
            0,
            base.prefill_gpus() + 1,
            SimTime::ZERO + SimDuration::from_secs(2),
        )),
        ..base
    };
    let a = run_llm_serve(&cfg);
    // Every request still resolves (re-materialized from lineage or failed
    // typed) and the leak check inside run_llm_serve already passed.
    assert_eq!(a.completed + a.failed, cfg.requests);
    assert!(
        a.metrics.rematerialized > 0 || a.failed > 0,
        "the failure window must hit at least one in-flight stream"
    );
    // Same-seed chaos replay is byte-identical, at any thread count.
    let b = run_llm_serve(&LlmServeConfig {
        threads: 8,
        ..cfg.clone()
    });
    assert_eq!(a.csv, b.csv);
    assert_eq!(a.digest, b.digest);
}
