//! Property tests over the transfer planners: whatever the pattern, config
//! and size, plans conserve bytes, reference valid links, and respect the
//! configured fan-out bound.

use proptest::prelude::*;

use grouter_sim::FlowNet;
use grouter_topology::graph::TopologySpec;
use grouter_topology::{presets, GpuRef, PathLedger, Topology};
use grouter_transfer::plan::{
    plan_cross_node, plan_d2h, plan_h2d, plan_intra_node, plan_nvlink_paths, plan_shm, PlanConfig,
    TransferPlan,
};

fn arb_cfg() -> impl Strategy<Value = PlanConfig> {
    (any::<bool>(), any::<bool>(), any::<bool>(), 1usize..6).prop_map(
        |(pcie, nics, ta, max_paths)| PlanConfig {
            parallel_pcie: pcie,
            parallel_nics: nics,
            topology_aware: ta,
            max_paths,
        },
    )
}

fn arb_preset() -> impl Strategy<Value = TopologySpec> {
    prop_oneof![
        Just(presets::dgx_v100()),
        Just(presets::dgx_a100()),
        Just(presets::a10x4()),
        Just(presets::h800x8()),
    ]
}

fn check_plan(plan: &TransferPlan, bytes: f64, net: &FlowNet, max_paths: usize) {
    if bytes > 0.0 && !plan.is_zero_copy() {
        let assigned = plan.assigned_bytes();
        assert!(
            (assigned - bytes).abs() < 1e-3 * bytes.max(1.0),
            "assigned {assigned} of {bytes}"
        );
    }
    assert!(plan.flows.len() <= max_paths.max(1), "fan-out exceeded");
    for f in &plan.flows {
        assert!(f.bytes >= 0.0);
        assert!(!f.links.is_empty());
        for l in &f.links {
            assert!((l.0 as usize) < net.num_links(), "dangling link");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The single-path plan, and the plan over the NVLink paths a ledger
    /// reserved, move every byte over valid links; releasing the
    /// reservation leaves every residual within [0, capacity].
    #[test]
    fn intra_node_plans_are_sound(
        spec in arb_preset(),
        src in 0usize..8,
        dst in 0usize..8,
        bytes in 0.0f64..1e9,
        max_hops in 1usize..4,
        max_paths in 1usize..6,
    ) {
        let mut net = FlowNet::new();
        let topo = Topology::build(spec, 1, &mut net);
        let g = topo.gpus_per_node();
        let (src, dst) = (src % g, dst % g);
        let plan = plan_intra_node(&topo, &net, 0, src, dst, bytes);
        if src == dst {
            prop_assert!(plan.is_zero_copy());
        } else {
            check_plan(&plan, bytes, &net, 1);
            let mut ledger = PathLedger::from_topology(&topo);
            let (id, selection, _) = ledger.reserve(src, dst, max_hops, max_paths);
            let picked = selection.paths.len();
            match plan_nvlink_paths(&topo, 0, selection, bytes) {
                Some(plan) => {
                    check_plan(&plan, bytes, &net, max_paths);
                    prop_assert_eq!(plan.flows.len(), picked, "a flow per reserved path");
                    prop_assert!(plan.flows.iter().all(|f| f.route.is_some()));
                }
                None => prop_assert_eq!(picked, 0),
            }
            prop_assert!(ledger.release(id));
            let bwm = ledger.bwm();
            for a in 0..g {
                for b in 0..g {
                    prop_assert!(bwm.residual(a, b) <= bwm.capacity(a, b) + 1.0);
                    prop_assert!(bwm.residual(a, b) >= 0.0);
                }
            }
        }
    }

    #[test]
    fn host_plans_are_sound(
        spec in arb_preset(),
        cfg in arb_cfg(),
        gpu in 0usize..8,
        bytes in 0.0f64..1e9,
    ) {
        let mut net = FlowNet::new();
        let topo = Topology::build(spec, 1, &mut net);
        let gpu = gpu % topo.gpus_per_node();
        let d = plan_d2h(&topo, &net, 0, gpu, bytes, &cfg);
        check_plan(&d, bytes, &net, cfg.max_paths);
        let h = plan_h2d(&topo, &net, 0, gpu, bytes, &cfg);
        check_plan(&h, bytes, &net, cfg.max_paths);
        let s = plan_shm(&topo, &net, 0, bytes);
        check_plan(&s, bytes, &net, 1);
    }

    #[test]
    fn cross_node_plans_are_sound(
        spec in arb_preset(),
        cfg in arb_cfg(),
        src in 0usize..8,
        dst in 0usize..8,
        bytes in 0.0f64..1e9,
    ) {
        let mut net = FlowNet::new();
        let topo = Topology::build(spec, 2, &mut net);
        let g = topo.gpus_per_node();
        let plan = plan_cross_node(
            &topo,
            &net,
            GpuRef::new(0, src % g),
            GpuRef::new(1, dst % g),
            bytes,
            &cfg,
        );
        check_plan(&plan, bytes, &net, cfg.max_paths);
        prop_assert!(!plan.flows.is_empty(), "cross-node always moves bytes");
    }
}
