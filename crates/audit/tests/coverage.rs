//! Coverage gate for the invariant auditor (ISSUE 3 acceptance): drive each
//! audited subsystem through a realistic slice of work and assert that every
//! checker actually ran at least once. A checker that silently stops firing
//! is worse than no checker — it reads as "invariant holds" when nothing was
//! looked at.
//!
//! Hit counters are process-wide, so one test exercises all five crates in
//! sequence and asserts the full roster at the end.

use std::sync::Arc;

use grouter::{GrouterConfig, GrouterPlane};
use grouter_audit as audit;
use grouter_mem::{ElasticPool, PoolDiscipline, PrewarmScaler};
use grouter_runtime::spec::{StageSpec, WorkflowSpec};
use grouter_runtime::world::RuntimeConfig;
use grouter_runtime::Runtime;
use grouter_sim::fault::{FaultEvent, FaultKind, FaultPlan};
use grouter_sim::time::SimDuration;
use grouter_sim::{FlowNet, FlowOptions, SimTime};
use grouter_store::{AccessToken, DataStore, FunctionId, Location, WorkflowId};
use grouter_topology::{presets, GpuRef, PathSelector, Topology};
use grouter_transfer::plan::{plan_d2h, PlanConfig};
use grouter_transfer::TransferEngine;

/// Every checker the data plane registers, by crate:
/// sim (5), topology (2), transfer (1), store (1), mem (4), runtime (1),
/// obs (1), llm (3).
const CHECKERS: [&str; 18] = [
    "flownet.link_caps",
    "flownet.slab",
    "flownet.heap",
    "flownet.fairness",
    "engine.timeline",
    "pathcache.epoch",
    "pathcache.rederive",
    "transfer.pending",
    "store.tables",
    "pool.accounting",
    "pool.quarantine",
    "scaler.floor",
    "scaler.demand",
    "recovery.no_orphans",
    "obs.spans_balanced",
    "llm.kv_blocks",
    "llm.stream_order",
    "llm.view",
];

#[test]
fn every_checker_fires_at_least_once() {
    // --- FlowNet + TransferEngine: a planned multi-path transfer plus a
    // best-effort flow contending on the same D2H chain, driven to
    // completion so the heap/slab checkers see churn in both directions.
    let mut net = FlowNet::new();
    let topo = Topology::build(presets::dgx_v100(), 1, &mut net);
    let mut engine = TransferEngine::new();
    let plan = plan_d2h(&topo, &net, 0, 0, 120e6, &PlanConfig::grouter());
    engine
        .begin(&mut net, SimTime::ZERO, plan, 0, &mut Vec::new())
        .expect("planned transfer starts");
    net.start_flow(
        SimTime::ZERO,
        topo.d2h_path(0, 0),
        60e6,
        FlowOptions::default(),
    )
    .expect("contending flow starts");
    while engine.in_flight() > 0 {
        let due = net.next_completion().expect("transfer still in flight");
        let done = net.advance_to(due);
        engine.on_flows_complete(&done, &mut Vec::new());
    }
    let rest = net.next_completion().expect("best-effort flow still live");
    net.advance_to(rest);

    // --- Path cache: enough selections to re-fire the throttled rederive
    // sampler (period 32), plus a degrade to bump the matrix epoch.
    let mut selector = PathSelector::from_topology(&topo);
    for _ in 0..33 {
        selector.select(0, 3, 3, 4);
        selector.release_last();
    }
    selector.degrade_link(0, 3, 0.0);
    selector.select(0, 3, 3, 4);
    selector.release_last();

    // --- Store tables: insert + remove through the public Put/consumed API.
    let mut store = DataStore::new(2);
    let token = AccessToken {
        function: FunctionId(1),
        workflow: WorkflowId(1),
    };
    let (id, _) = store.put(
        SimTime::ZERO,
        token,
        Location::Gpu(GpuRef::new(0, 0)),
        1e6,
        1,
    );
    assert!(store.consumed(id));

    // --- Elastic pool + pre-warm scaler.
    let mut pool = ElasticPool::new(PoolDiscipline::Elastic, 16e9);
    pool.try_alloc(1e9).expect("fits in an idle pool");
    pool.free(1e9);
    pool.reclaim_toward(0.0);
    let mut scaler = PrewarmScaler::new();
    let t = SimTime::ZERO + SimDuration::from_millis(5);
    scaler.on_request(1, t);
    scaler.on_output(1, 1e6);
    let target = scaler.target_bytes(t);
    pool.prewarm_toward(target);
    scaler.on_consumed(1);
    // A quarantine/rejoin cycle drives the emptiness identity while the
    // pool is actually quarantined (it is vacuous on a healthy pool).
    pool.quarantine();
    pool.release_quarantine();

    // --- Recovery engine: kill a GPU under a live two-stage workflow so the
    // no-orphans sweep runs against real cancelled ops and reset stages.
    let mut wf = WorkflowSpec::new("coverage", 4e6);
    let a = wf.push(StageSpec::gpu(
        "a",
        vec![],
        SimDuration::from_millis(5),
        32e6,
        1e9,
    ));
    wf.push(StageSpec::gpu(
        "b",
        vec![a],
        SimDuration::from_millis(5),
        4e6,
        1e9,
    ));
    let wf = Arc::new(wf);
    let mut rt = Runtime::new(
        presets::dgx_v100(),
        1,
        Box::new(GrouterPlane::new(GrouterConfig::full())),
        RuntimeConfig::default(),
    );
    for i in 0..8u64 {
        rt.submit(wf.clone(), SimTime::ZERO + SimDuration::from_millis(i));
    }
    rt.install_fault_plan(&FaultPlan::scripted(vec![FaultEvent {
        at: SimTime::ZERO + SimDuration::from_millis(6),
        kind: FaultKind::GpuFail { gpu: 0 },
    }]));
    rt.run();
    let m = rt.metrics();
    assert_eq!(
        m.completed() as u64 + m.failed,
        m.arrivals,
        "every arrival must terminate as a completion or a typed failure"
    );

    // --- LLM serving: a reduced-scale disaggregated run pushes KV blocks
    // through prefill handoff, decode append/seal and completion, firing the
    // block-map checker (sampled every 8 audits), the per-token stream
    // monotonicity checker and the heartbeat-view recount (sampled every 16
    // views).
    let llm_cfg = grouter_llm::LlmServeConfig {
        groups: 1,
        requests: 60,
        rps: 40.0,
        ..grouter_llm::LlmServeConfig::reference(grouter_llm::PlaneKind::Grouter)
    };
    let llm = grouter_llm::run_llm_serve(&llm_cfg);
    assert_eq!(llm.completed + llm.failed, llm_cfg.requests);

    // --- Observability: a balanced begin/end pair drained through the
    // flight recorder fires the span-accounting checker.
    let rec = grouter_obs::Recorder::enabled(64);
    let span = rec.begin(
        grouter_obs::Comp::Runtime,
        "coverage",
        grouter_obs::Ids::NONE,
        vec![],
    );
    rec.set_now(1_000);
    rec.end(span, vec![]);
    rec.drain();

    for name in CHECKERS {
        assert!(
            audit::hits(name) >= 1,
            "checker {name} never ran; hit counters: {:?}",
            audit::all_hits()
        );
    }
}
