//! Property tests that churn the audited data plane through randomized
//! event sequences. The assertions live inside the crates themselves: with
//! the `audit` feature unified on, any invariant violation (link
//! over-subscription, slab/heap incoherence, fairness drift from the
//! reference allocator, stale cache epochs, broken pool accounting) panics
//! the case and proptest shrinks the offending sequence.

use proptest::prelude::*;

use grouter_mem::{ElasticPool, PoolDiscipline, PrewarmScaler};
use grouter_sim::time::SimDuration;
use grouter_sim::{FlowId, FlowNet, FlowOptions, SimTime};
use grouter_topology::{presets, PathSelector, Topology};

/// One scripted FlowNet action: (op selector, small index, magnitude).
type Op = (u8, u8, u64);

fn drive_flownet(ops: &[Op]) {
    let mut net = FlowNet::new();
    let links: Vec<_> = (0..4)
        .map(|i| net.add_link(format!("l{i}"), 10e9))
        .collect();
    let mut live: Vec<FlowId> = Vec::new();
    let mut now = SimTime::ZERO;
    for &(op, sel, amt) in ops {
        match op % 4 {
            0 => {
                // Two-hop path over adjacent links: guarantees link sharing
                // so the fairness oracle sees contended components.
                let a = sel as usize % links.len();
                let path = vec![links[a], links[(a + 1) % links.len()]];
                let opts = FlowOptions {
                    floor: (amt % 7) as f64 * 1e8,
                    cap: f64::INFINITY,
                    weight: (sel % 3) as f64 + 1.0,
                };
                let id = net
                    .start_flow(now, path, (amt as f64).max(1.0) * 1e5, opts)
                    .expect("links exist");
                live.push(id);
            }
            1 => {
                if !live.is_empty() {
                    let id = live.swap_remove(sel as usize % live.len());
                    let _ = net.cancel_flow(now, id);
                }
            }
            2 => {
                now += SimDuration::from_micros(amt);
                let done = net.advance_to(now);
                live.retain(|f| !done.contains(f));
            }
            _ => {
                if let Some(due) = net.next_completion() {
                    now = now.max(due);
                    let done = net.advance_to(now);
                    live.retain(|f| !done.contains(f));
                }
            }
        }
    }
    // Drain: every remaining flow must still complete cleanly.
    while let Some(due) = net.next_completion() {
        now = now.max(due);
        net.advance_to(now);
    }
}

fn drive_selector(pairs: &[(u8, u8)], degrade_at: usize) {
    let mut scratch = FlowNet::new();
    let topo = Topology::build(presets::dgx_v100(), 1, &mut scratch);
    let mut selector = PathSelector::from_topology(&topo);
    let gpus = topo.num_gpus();
    for (i, &(s, d)) in pairs.iter().enumerate() {
        if i == degrade_at {
            selector.degrade_link(s as usize % gpus, d as usize % gpus, 0.0);
        }
        let src = s as usize % gpus;
        let dst = d as usize % gpus;
        if src == dst {
            continue;
        }
        selector.select(src, dst, 3, 4);
        selector.release_last();
    }
}

fn drive_pool(ops: &[Op]) {
    let mut pool = ElasticPool::new(PoolDiscipline::Elastic, 16e9);
    let mut scaler = PrewarmScaler::new();
    let mut grants: Vec<f64> = Vec::new();
    let mut now = SimTime::ZERO;
    for &(op, sel, amt) in ops {
        now += SimDuration::from_micros(amt + 1);
        let bytes = (amt as f64 + 1.0) * 1e6;
        match op % 5 {
            0 => {
                if pool.try_alloc(bytes).is_ok() {
                    grants.push(bytes);
                    scaler.on_request(sel as u64 % 3, now);
                    scaler.on_output(sel as u64 % 3, bytes);
                }
            }
            1 => {
                if !grants.is_empty() {
                    let b = grants.swap_remove(sel as usize % grants.len());
                    pool.free(b);
                    scaler.on_consumed(sel as u64 % 3);
                }
            }
            2 => pool.reclaim_toward(scaler.target_bytes(now)),
            3 => {
                pool.prewarm_toward(scaler.target_bytes(now));
            }
            _ => {
                pool.set_runtime_used(bytes.min(pool.capacity() / 2.0));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn audited_flownet_survives_random_churn(
        ops in proptest::collection::vec((0u8..4, any::<u8>(), 1u64..500), 1..80)
    ) {
        drive_flownet(&ops);
    }

    #[test]
    fn audited_selector_survives_random_queries(
        pairs in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..40),
        degrade_at in 0usize..40,
    ) {
        drive_selector(&pairs, degrade_at);
    }

    #[test]
    fn audited_pool_survives_random_traffic(
        ops in proptest::collection::vec((0u8..5, any::<u8>(), 0u64..2_000), 1..80)
    ) {
        drive_pool(&ops);
    }
}
