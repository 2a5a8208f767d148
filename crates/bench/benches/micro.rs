//! Criterion micro-benchmarks for GROUTER's hot paths.
//!
//! The headline check: Algorithm 1 path selection must stay below the
//! paper's reported 10 µs (§4.3.3). The rest bound the per-operation costs
//! of the control plane: flow-rate recomputation, transfer planning,
//! Put/Get metadata handling, eviction victim selection, and the pre-warm
//! scaler.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use grouter::mem::{EvictionPolicy, GrouterPolicy, LruPolicy, ObjectMeta, PrewarmScaler};
use grouter::sim::time::SimTime;
use grouter::sim::{FlowNet, FlowOptions};
use grouter::store::{AccessToken, DataStore, FunctionId, Location, WorkflowId};
use grouter::topology::paths::select_parallel_paths;
use grouter::topology::{presets, BwMatrix, GpuRef, PathLedger, PathSelector, Topology};
use grouter::transfer::pipeline::{BatchPipeline, Offered};
use grouter::transfer::plan::{plan_cross_node, plan_d2h, plan_intra_node, PlanConfig};

fn v100() -> (FlowNet, Topology) {
    let mut net = FlowNet::new();
    let topo = Topology::build(presets::dgx_v100(), 2, &mut net);
    (net, topo)
}

/// Algorithm 1 on the asymmetric V100 mesh — the paper claims < 10 µs.
fn bench_path_selection(c: &mut Criterion) {
    let (_, topo) = v100();
    c.bench_function("algorithm1_select_parallel_paths", |b| {
        b.iter(|| {
            let mut bwm = BwMatrix::from_topology(&topo);
            let sel = select_parallel_paths(&mut bwm, black_box(0), black_box(1), 3, 4);
            black_box(sel.total_rate())
        })
    });
}

fn bench_flownet_recompute(c: &mut Criterion) {
    c.bench_function("flownet_recompute_64_flows", |b| {
        b.iter(|| {
            let mut net = FlowNet::new();
            let links: Vec<_> = (0..16)
                .map(|i| net.add_link(format!("l{i}"), 12e9))
                .collect();
            for i in 0..64 {
                let path = vec![links[i % 16], links[(i * 7 + 3) % 16]];
                net.start_flow(SimTime::ZERO, path, 1e9, FlowOptions::default())
                    .expect("flow");
            }
            black_box(net.next_completion())
        })
    });
}

fn bench_transfer_planning(c: &mut Criterion) {
    let (net, topo) = v100();
    let grouter = PlanConfig::grouter();
    c.bench_function("plan_d2h_parallel_pcie", |b| {
        b.iter(|| black_box(plan_d2h(&topo, &net, 0, 0, 256e6, &grouter)))
    });
    c.bench_function("plan_intra_node_parallel_nvlink", |b| {
        // Warmed selector outside the loop: this measures the cached,
        // allocation-free steady state the runtime actually runs in.
        let mut sel = PathSelector::from_topology(&topo);
        sel.warm(grouter.max_hops);
        b.iter(|| {
            let plan = plan_intra_node(&topo, &net, Some(&mut sel), 0, 0, 1, 256e6, &grouter);
            // Undo the plan's reservations so the matrix never saturates.
            for f in &plan.flows {
                if let Some((route, rate)) = &f.nv_reservation {
                    sel.bwm_mut().release_path(route, *rate);
                }
            }
            black_box(plan)
        })
    });
    c.bench_function("plan_cross_node_multi_nic", |b| {
        b.iter(|| {
            black_box(plan_cross_node(
                &topo,
                &net,
                GpuRef::new(0, 0),
                GpuRef::new(1, 3),
                256e6,
                &grouter,
            ))
        })
    });
}

fn bench_store_ops(c: &mut Criterion) {
    c.bench_function("store_put_resolve_consume", |b| {
        b.iter(|| {
            let mut store = DataStore::new(2);
            let token = AccessToken {
                function: FunctionId(1),
                workflow: WorkflowId(1),
            };
            let (id, _) = store.put(SimTime::ZERO, token, Location::Host(0), 1e6, 1);
            let _ = store.resolve(SimTime::ZERO, 1, token, id);
            black_box(store.consumed(id))
        })
    });
}

fn bench_eviction(c: &mut Criterion) {
    let objects: Vec<ObjectMeta> = (0..1000)
        .map(|i| ObjectMeta {
            key: i,
            bytes: 2e6,
            last_access: SimTime(i * 17 % 997),
            next_use: if i % 3 == 0 {
                None
            } else {
                Some(i * 31 % 1009)
            },
        })
        .collect();
    c.bench_function("eviction_lru_1000_objects", |b| {
        b.iter(|| black_box(LruPolicy.select_victims(black_box(&objects), 50e6)))
    });
    c.bench_function("eviction_queue_aware_1000_objects", |b| {
        b.iter(|| black_box(GrouterPolicy.select_victims(black_box(&objects), 50e6)))
    });
}

fn bench_scaler(c: &mut Criterion) {
    c.bench_function("prewarm_scaler_update_and_target", |b| {
        let mut s = PrewarmScaler::new();
        let mut t = 0u64;
        b.iter(|| {
            t += 10_000_000;
            s.on_request(1, SimTime(t));
            s.on_output(1, 50e6);
            s.on_consumed(1);
            black_box(s.target_bytes(SimTime(t)))
        })
    });
}

/// Ledger reserve + rebalance + release: the full Algorithm 1 + direct-path
/// priority cycle (paper claims the whole selection stays < 10 µs).
fn bench_ledger(c: &mut Criterion) {
    let (_, topo) = v100();
    c.bench_function("ledger_reserve_rebalance_release", |b| {
        b.iter(|| {
            let mut ledger = PathLedger::from_topology(&topo);
            let (a, _, _) = ledger.reserve(black_box(0), black_box(1), 3, 3);
            let (bid, _, reb) = ledger.reserve(black_box(0), black_box(3), 3, 1);
            ledger.release(a);
            ledger.release(bid);
            black_box(reb)
        })
    });
}

fn bench_batch_pipeline(c: &mut Criterion) {
    let p = BatchPipeline::with_defaults(12e9);
    let offered: Vec<Offered> = (0..16)
        .map(|i| Offered {
            arrival: SimTime(i as u64 * 200_000),
            bytes: 32e6,
        })
        .collect();
    c.bench_function("batch_pipeline_16_transfers", |b| {
        b.iter(|| black_box(p.simulate(black_box(&offered))))
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_path_selection,
        bench_flownet_recompute,
        bench_transfer_planning,
        bench_store_ops,
        bench_eviction,
        bench_scaler,
        bench_ledger,
        bench_batch_pipeline
);
criterion_main!(benches);
