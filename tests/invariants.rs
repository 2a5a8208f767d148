//! Property-based invariants across the core data structures: bandwidth
//! conservation in the flow network, byte conservation in path splitting,
//! soundness of eviction selection, and Algorithm 1 reservation hygiene.

use proptest::prelude::*;

use grouter::mem::{EvictionPolicy, GrouterPolicy, LruPolicy, ObjectMeta};
use grouter::sim::time::SimTime;
use grouter::sim::{FlowNet, FlowOptions};
use grouter::topology::paths::select_parallel_paths;
use grouter::topology::{presets, BwMatrix, Topology};
use grouter::transfer::chunk::split_in_place;

proptest! {
    /// Shares are non-negative, sum to the total, and only positive-capacity
    /// paths receive bytes.
    #[test]
    fn proportional_split_conserves_bytes(
        bytes in 0.0f64..1e12,
        caps in proptest::collection::vec(-1.0f64..100.0, 0..12),
    ) {
        let mut shares = caps.clone();
        split_in_place(bytes, &mut shares, |c| c);
        prop_assert_eq!(shares.len(), caps.len());
        let sum: f64 = shares.iter().sum();
        let usable: f64 = caps.iter().filter(|&&c| c > 0.0).sum();
        if usable > 0.0 {
            prop_assert!((sum - bytes).abs() < 1e-3 * bytes.max(1.0), "sum {} vs {}", sum, bytes);
        } else {
            prop_assert_eq!(sum, 0.0);
        }
        for (share, cap) in shares.iter().zip(&caps) {
            prop_assert!(*share >= 0.0);
            if *cap <= 0.0 {
                prop_assert_eq!(*share, 0.0);
            }
        }
    }

    /// Max-min allocation never oversubscribes a link, and every flow on an
    /// otherwise-empty link gets the full capacity.
    #[test]
    fn flownet_respects_capacities(
        seed in 0u64..1000,
        n_links in 1usize..8,
        n_flows in 1usize..24,
    ) {
        let mut rng = grouter::sim::rng::DetRng::new(seed);
        let mut net = FlowNet::new();
        let links: Vec<_> = (0..n_links)
            .map(|i| net.add_link(format!("l{i}"), rng.uniform(1e9, 50e9)))
            .collect();
        let mut flows = Vec::new();
        for _ in 0..n_flows {
            let len = 1 + rng.next_below(3.min(n_links as u64)) as usize;
            let mut path = Vec::new();
            let mut start = rng.next_below(n_links as u64) as usize;
            for _ in 0..len {
                if !path.contains(&links[start]) {
                    path.push(links[start]);
                }
                start = (start + 1) % n_links;
            }
            flows.push(
                net.start_flow(SimTime::ZERO, path, rng.uniform(1.0, 1e9), FlowOptions::default())
                    .expect("valid flow"),
            );
        }
        for (i, &l) in links.iter().enumerate() {
            let used = net.link_utilization(l);
            let cap = net.link_capacity(l);
            prop_assert!(used <= cap + 16.0, "link {i}: {used} > {cap}");
        }
        for f in &flows {
            prop_assert!(net.flow_rate(*f).expect("live") >= 0.0);
        }
        // Everything eventually completes.
        let mut guard = 0;
        while net.num_flows() > 0 {
            let t = net.next_completion().expect("progress");
            net.advance_to(t);
            guard += 1;
            prop_assert!(guard < 10_000, "no progress");
        }
    }

    /// Flows with floors get at least the floor when the link has room.
    #[test]
    fn flownet_honours_feasible_floors(
        floor_gb in 0.1f64..4.0,
        extra_flows in 0usize..8,
    ) {
        let mut net = FlowNet::new();
        let l = net.add_link("l", 10e9);
        let protected = net
            .start_flow(
                SimTime::ZERO,
                vec![l],
                1e9,
                FlowOptions { floor: floor_gb * 1e9, ..Default::default() },
            )
            .expect("flow");
        for _ in 0..extra_flows {
            net.start_flow(SimTime::ZERO, vec![l], 1e9, FlowOptions::default())
                .expect("flow");
        }
        let rate = net.flow_rate(protected).expect("live");
        prop_assert!(rate >= floor_gb * 1e9 - 16.0, "rate {rate} < floor");
    }

    /// Eviction policies: victims are unique, drawn from the resident set,
    /// and cover the need whenever it is coverable at all.
    #[test]
    fn eviction_selection_is_sound(
        seed in 0u64..1000,
        n in 0usize..64,
        need_mb in 0.0f64..2000.0,
    ) {
        let mut rng = grouter::sim::rng::DetRng::new(seed);
        let objects: Vec<ObjectMeta> = (0..n)
            .map(|i| ObjectMeta {
                key: i as u64,
                bytes: rng.uniform(1e6, 100e6),
                last_access: SimTime(rng.next_below(1_000_000)),
                next_use: if rng.next_f64() < 0.3 { None } else { Some(rng.next_below(100)) },
            })
            .collect();
        let need = need_mb * 1e6;
        for policy in [&LruPolicy as &dyn EvictionPolicy, &GrouterPolicy] {
            let victims = policy.select_victims(&objects, need);
            let mut seen = std::collections::HashSet::new();
            let mut freed = 0.0;
            for v in &victims {
                prop_assert!(seen.insert(*v), "duplicate victim {v}");
                let obj = objects.iter().find(|o| o.key == *v);
                prop_assert!(obj.is_some(), "victim {v} not resident");
                freed += obj.expect("present").bytes;
            }
            let total: f64 = objects.iter().map(|o| o.bytes).sum();
            if total >= need {
                prop_assert!(freed >= need, "{}: freed {freed} < need {need}", policy.name());
            } else {
                prop_assert_eq!(victims.len(), objects.len());
            }
        }
    }

    /// Algorithm 1 never leaves the bandwidth matrix negative, and releasing
    /// every selection restores full idleness.
    #[test]
    fn algorithm1_reservation_hygiene(
        src in 0usize..8,
        dst in 0usize..8,
        max_paths in 1usize..8,
    ) {
        prop_assume!(src != dst);
        let mut net = FlowNet::new();
        let topo = Topology::build(presets::dgx_v100(), 1, &mut net);
        let mut bwm = BwMatrix::from_topology(&topo);
        let sel = select_parallel_paths(&mut bwm, src, dst, 3, max_paths);
        for a in 0..8 {
            for b in 0..8 {
                prop_assert!(bwm.residual(a, b) >= 0.0);
                prop_assert!(bwm.residual(a, b) <= bwm.capacity(a, b));
            }
        }
        for p in &sel.paths {
            prop_assert!(p.gpus.len() >= 2);
            prop_assert_eq!(p.gpus[0], src);
            prop_assert_eq!(*p.gpus.last().expect("path"), dst);
            prop_assert!(p.rate > 0.0);
            bwm.release_path(&p.gpus, p.rate);
        }
        for a in 0..8 {
            for b in 0..8 {
                if bwm.capacity(a, b) > 0.0 {
                    prop_assert!(bwm.is_idle(a, b), "({a},{b}) not restored");
                }
            }
        }
    }
}
