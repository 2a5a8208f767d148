//! `bench_flownet` — churn microbenchmarks for the flow-level allocator.
//!
//! The workload models serverless inference churn on a DGX-V100 cluster:
//! a steady population of concurrent flows (chunked transfers over
//! realistic d2h / h2d / NVLink paths) where every event replaces one flow
//! and re-reads the next completion estimate. The cluster grows with the
//! flow population (one V100 node per 64 flows) the way a real deployment
//! would, so contention components stay node-local while the global flow
//! table keeps growing — exactly the regime the incremental allocator is
//! built for.
//!
//! Each size runs twice: against the incremental [`FlowNet`] and against
//! the full-recompute [`ReferenceNet`] baseline. `scripts/bench_smoke.sh`
//! scrapes the emitted JSON lines and checks the 1024-flow speedup.

use std::collections::VecDeque;

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use grouter::sim::time::SimTime;
use grouter::sim::{FlowNet, FlowOptions, LinkId, LinkPath, ReferenceNet};
use grouter::topology::{presets, Topology};

const CHUNK_BYTES: f64 = 2e6; // GROUTER's 2 MB chunk granularity

/// One V100 node per 64 concurrent flows keeps per-node contention
/// realistic as the population grows.
fn nodes_for(flows: usize) -> usize {
    (flows / 64).max(1)
}

/// A pool of realistic transfer paths: per GPU d2h and h2d (PCIe + DRAM),
/// plus every directed NVLink edge. Round-robin assignment spreads flows
/// over nodes, so churn on one node leaves the others' components alone.
fn path_pool(topo: &Topology) -> Vec<LinkPath> {
    let mut pool = Vec::new();
    for node in 0..topo.num_nodes() {
        for gpu in 0..topo.gpus_per_node() {
            pool.push(topo.d2h_path(node, gpu));
            pool.push(topo.h2d_path(node, gpu));
        }
        for &(a, b, _) in topo.nvlink_pairs() {
            if let Some(links) = topo.nvlink_edge(node, a, b) {
                pool.push(links);
            }
        }
    }
    pool
}

fn flow_opts(i: usize) -> FlowOptions {
    FlowOptions {
        // A third of the flows carry an SLO floor, as under rate control.
        floor: if i.is_multiple_of(3) { 1e9 } else { 0.0 },
        cap: f64::INFINITY,
        weight: 1.0,
    }
}

/// Churn step on the incremental allocator: retire the oldest flow, admit
/// a replacement, re-read the completion estimate.
fn bench_incremental(c: &mut Criterion, flows: usize) {
    let mut net = FlowNet::new();
    let topo = Topology::build(presets::dgx_v100(), nodes_for(flows), &mut net);
    let pool = path_pool(&topo);
    let mut live = VecDeque::with_capacity(flows);
    for i in 0..flows {
        let f = net
            .start_flow(
                SimTime::ZERO,
                pool[i % pool.len()],
                CHUNK_BYTES,
                flow_opts(i),
            )
            .expect("valid path");
        live.push_back(f);
    }
    let mut next = flows;
    c.bench_function(&format!("flownet_churn/{flows}"), |b| {
        b.iter(|| {
            let victim = live.pop_front().expect("population is steady");
            net.cancel_flow(SimTime::ZERO, victim).expect("live flow");
            let f = net
                .start_flow(
                    SimTime::ZERO,
                    pool[next % pool.len()],
                    CHUNK_BYTES,
                    flow_opts(next),
                )
                .expect("valid path");
            live.push_back(f);
            next += 1;
            black_box(net.next_completion())
        })
    });
}

/// The same churn step against the full-recompute reference allocator.
fn bench_reference(c: &mut Criterion, flows: usize) {
    // Build the topology once to learn the link layout, then mirror it
    // into the reference net (LinkIds are assigned identically).
    let mut layout = FlowNet::new();
    let topo = Topology::build(presets::dgx_v100(), nodes_for(flows), &mut layout);
    let mut net = ReferenceNet::new();
    for i in 0..layout.num_links() {
        let l = LinkId(i as u32);
        net.add_link(layout.link_name(l), layout.link_capacity(l));
    }
    let pool = path_pool(&topo);
    let mut live = VecDeque::with_capacity(flows);
    for i in 0..flows {
        let f = net
            .start_flow(
                SimTime::ZERO,
                pool[i % pool.len()].to_vec(),
                CHUNK_BYTES,
                flow_opts(i),
            )
            .expect("valid path");
        live.push_back(f);
    }
    let mut next = flows;
    c.bench_function(&format!("flownet_ref_churn/{flows}"), |b| {
        b.iter(|| {
            let victim = live.pop_front().expect("population is steady");
            net.cancel_flow(SimTime::ZERO, victim).expect("live flow");
            let f = net
                .start_flow(
                    SimTime::ZERO,
                    pool[next % pool.len()].to_vec(),
                    CHUNK_BYTES,
                    flow_opts(next),
                )
                .expect("valid path");
            live.push_back(f);
            next += 1;
            black_box(net.next_completion())
        })
    });
}

fn bench_flownet(c: &mut Criterion) {
    for &flows in &[64usize, 256, 1024] {
        bench_incremental(c, flows);
        bench_reference(c, flows);
    }
}

criterion_group!(benches, bench_flownet);
criterion_main!(benches);
