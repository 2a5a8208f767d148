//! Transfer planning: pattern → concrete multi-path flow layout.
//!
//! A [`TransferPlan`] is the static part of one data movement: which link
//! paths participate, how many bytes each carries (capacity-proportional,
//! §4.3.3), and the software setup latency to charge before the first byte
//! moves. Executing the plan (starting flows, waiting for completions) is
//! [`crate::exec`]'s job.
//!
//! Parallel NVLink paths come from Algorithm 1 in the node's
//! [`grouter_topology::PathLedger`], which also holds their reservations;
//! [`plan_nvlink_paths`] turns the ledger's selection into flows. The other
//! planners have a GROUTER mode and the degraded modes the baselines use
//! (single path, or DeepPlan-style parallel PCIe without topology
//! awareness), selected through [`PlanConfig`].

use grouter_sim::time::SimDuration;
use grouter_sim::{params, FlowNet, FlowOptions, LinkId, LinkPath, PathTooLong};
use grouter_topology::{GpuRef, PathSelection, Topology};

/// Feature switches for the PCIe and NIC planners (the ablation knobs of
/// Fig. 16 map to these plus the storage/locality toggles in the core
/// crate).
#[derive(Clone, Copy, Debug)]
pub struct PlanConfig {
    /// Stage gFn–host traffic over peer GPUs' PCIe links in parallel (BH).
    pub parallel_pcie: bool,
    /// Fan cross-node traffic over multiple NICs in parallel (BH).
    pub parallel_nics: bool,
    /// Select route GPUs topology-aware (exclude shared PCIe switches,
    /// require NVLink reachability). DeepPlan+ sets this to `false`.
    pub topology_aware: bool,
    /// Maximum parallel paths per transfer.
    pub max_paths: usize,
}

impl PlanConfig {
    /// Full GROUTER behaviour.
    pub fn grouter() -> PlanConfig {
        PlanConfig {
            parallel_pcie: true,
            parallel_nics: true,
            topology_aware: true,
            max_paths: 4,
        }
    }

    /// One path per transfer (NCCL/NVSHMEM-style point-to-point).
    pub fn single_path() -> PlanConfig {
        PlanConfig {
            parallel_pcie: false,
            parallel_nics: false,
            topology_aware: true,
            max_paths: 1,
        }
    }

    /// DeepPlan: parallel PCIe staging, but no topology awareness and no
    /// NIC multi-pathing.
    pub fn deepplan() -> PlanConfig {
        PlanConfig {
            parallel_pcie: true,
            parallel_nics: false,
            topology_aware: false,
            max_paths: 4,
        }
    }
}

/// One flow of a plan.
#[derive(Clone, Debug)]
pub struct PlannedFlow {
    /// Ordered links the bytes traverse.
    pub links: LinkPath,
    /// Bytes assigned to this path.
    pub bytes: f64,
    /// Rate constraints (rewritten by the SLO controller where applicable).
    pub opts: FlowOptions,
    /// GPU route of this flow, if it rides NVLink paths — the key under
    /// which the executor indexes the flow for live rebalancing.
    pub route: Option<Vec<usize>>,
}

/// A planned transfer, ready for [`crate::TransferEngine::begin`].
#[derive(Clone, Debug)]
pub struct TransferPlan {
    /// Parallel flows (empty ⇒ zero-copy: only `setup` is charged).
    pub flows: Vec<PlannedFlow>,
    /// Software latency before the first byte moves (IPC mapping, DMA
    /// launch, GDR/connection setup, pipeline fill).
    pub setup: SimDuration,
    /// Total payload bytes.
    pub total_bytes: f64,
}

impl TransferPlan {
    /// A same-GPU exchange: address sharing via IPC, no data movement.
    pub fn zero_copy(setup: SimDuration) -> TransferPlan {
        TransferPlan {
            flows: Vec::new(),
            setup,
            total_bytes: 0.0,
        }
    }

    pub fn is_zero_copy(&self) -> bool {
        self.flows.is_empty()
    }

    /// Sum of per-flow byte assignments (== `total_bytes` up to rounding).
    pub fn assigned_bytes(&self) -> f64 {
        self.flows.iter().map(|f| f.bytes).sum()
    }
}

/// A candidate flow over `links` with no NVLink route. Its `bytes` holds
/// the path's bottleneck capacity until [`share_by_capacity`] replaces it
/// with the flow's share.
fn candidate(net: &FlowNet, links: LinkPath) -> PlannedFlow {
    PlannedFlow {
        bytes: path_capacity(net, &links),
        links,
        opts: FlowOptions::default(),
        route: None,
    }
}

/// Split `bytes` over candidate flows in proportion to the capacity each
/// carries in its `bytes` field. Flows left with no share are dropped,
/// except in a zero-byte plan, which keeps them to signal completion.
fn share_by_capacity(mut flows: Vec<PlannedFlow>, bytes: f64) -> Vec<PlannedFlow> {
    crate::chunk::split_in_place(bytes, &mut flows, |f| &mut f.bytes);
    flows.retain(|f| f.bytes > 0.0 || bytes == 0.0);
    flows
}

/// Consecutive `(from, to)` GPU pairs of a route.
fn hops(route: &[usize]) -> impl DoubleEndedIterator<Item = (usize, usize)> + '_ {
    route.windows(2).map(|h| (h[0], h[1]))
}

/// Link sequence for a GPU route that must ride NVLink edges only.
/// `None` when some hop has no NVLink edge, or the path would outgrow a
/// [`LinkPath`] — callers drop or degrade the path instead of panicking in
/// the data plane.
pub fn nvlink_route_links(topo: &Topology, node: usize, route: &[usize]) -> Option<LinkPath> {
    let mut links = LinkPath::new();
    for (a, b) in hops(route) {
        links
            .extend_from_slice(&topo.nvlink_edge(node, a, b)?)
            .ok()?;
    }
    Some(links)
}

/// Bottleneck hardware capacity of a link path.
fn path_capacity(net: &FlowNet, links: &[LinkId]) -> f64 {
    links
        .iter()
        .map(|&l| net.link_capacity(l))
        .fold(f64::INFINITY, f64::min)
}

/// Software latency of a GPU-to-GPU copy within a node: first IPC mapping,
/// DMA launch and one chunk's overhead.
fn peer_copy_setup() -> SimDuration {
    params::IPC_MAP_FIRST + params::DMA_LAUNCH + params::CHUNK_OVERHEAD
}

/// Plan an intra-node gFn–gFn transfer over one path (paper §4.2.2
/// pattern 1): the planner of every leg that does not go through a node's
/// reservation ledger, and the degraded fallback of one that does.
///
/// * Same GPU → zero-copy (IPC address sharing).
/// * NVLink machine → direct edge, else the shortest NVLink route, else
///   PCIe peer-to-peer.
/// * PCIe-only machine → PCIe peer-to-peer.
pub fn plan_intra_node(
    topo: &Topology,
    net: &FlowNet,
    node: usize,
    src: usize,
    dst: usize,
    bytes: f64,
) -> TransferPlan {
    if src == dst {
        return TransferPlan::zero_copy(params::IPC_MAP_CACHED);
    }
    let setup = peer_copy_setup();
    // Direct edge, else shortest route; a PCIe-only machine has none. The
    // route comes from the live topology, so every hop has an edge; should
    // one be missing, feeder_links degrades that hop to PCIe p2p.
    if let Some(route) = topo.nvlink_route(src, dst) {
        let mut links = LinkPath::new();
        if feeder_links(&mut links, topo, node, hops(route)).is_ok() {
            return TransferPlan {
                flows: share_by_capacity(vec![candidate(net, links)], bytes),
                setup,
                total_bytes: bytes,
            };
        }
    }
    // PCIe peer-to-peer fallback.
    let links = topo.pcie_p2p_path(node, src, dst);
    TransferPlan {
        flows: share_by_capacity(vec![candidate(net, links)], bytes),
        setup,
        total_bytes: bytes,
    }
}

/// Plan an intra-node gFn–gFn transfer over the parallel NVLink paths that
/// Algorithm 1 reserved in `node`'s [`grouter_topology::PathLedger`]
/// (paper §4.3.3, Fig. 9b): one flow per selected route, keyed by that
/// route for live rebalancing, with the bytes split in proportion to the
/// rates reserved. The ledger keeps the reservations; this only lays out
/// the flows.
///
/// Routes move into the flows rather than being cloned. A route with a hop
/// that has no NVLink edge cannot happen while the ledger's path cache is
/// epoch-coherent with the topology; if it ever does, that path is dropped
/// so planning degrades instead of crashing the data plane. `None` when no
/// route is left: the caller falls back to [`plan_intra_node`].
pub fn plan_nvlink_paths(
    topo: &Topology,
    node: usize,
    selection: PathSelection,
    bytes: f64,
) -> Option<TransferPlan> {
    let mut flows: Vec<PlannedFlow> = selection
        .paths
        .into_iter()
        .filter_map(|p| {
            Some(PlannedFlow {
                links: nvlink_route_links(topo, node, &p.gpus)?,
                bytes: p.rate,
                opts: FlowOptions::default(),
                route: Some(p.gpus),
            })
        })
        .collect();
    if flows.is_empty() {
        return None;
    }
    // Unlike `share_by_capacity`, drop no flow, even one left with no
    // share: each stands for a route the ledger reserved.
    crate::chunk::split_in_place(bytes, &mut flows, |f| &mut f.bytes);
    Some(TransferPlan {
        flows,
        setup: peer_copy_setup(),
        total_bytes: bytes,
    })
}

/// Route-GPU candidates for parallel PCIe staging from `gpu`.
///
/// Topology-aware (GROUTER, Fig. 5a): NVLink neighbours of `gpu` on *other*
/// PCIe switches, at most one per switch (shared-switch GPUs share one host
/// uplink and are excluded), best NVLink bandwidth first.
///
/// Naive (DeepPlan+): the first GPUs by index, regardless of switch sharing
/// or NVLink reachability — unreachable ones are fed over PCIe peer-to-peer,
/// which doubles traffic on `gpu`'s own PCIe segment (§3.2.2).
///
/// Both modes read the topology's precomputed feeder tables, truncated to
/// the `max_paths` budget here (for the topology-aware table, a prefix is
/// exactly what a limited search would have produced — see
/// [`Topology::pcie_feeder_route_table`]).
fn pcie_feeder_routes<'t>(
    topo: &'t Topology,
    gpu: usize,
    cfg: &PlanConfig,
) -> impl Iterator<Item = &'t [usize]> {
    let aware = cfg.topology_aware;
    let table = if aware {
        topo.pcie_feeder_route_table(gpu)
    } else {
        topo.naive_feeder_route_table(gpu)
    };
    let prefix = table
        .get(..cfg.max_paths.saturating_sub(1))
        .unwrap_or(table);
    // Topology-aware routes go nearest first, so the widest feeders carry
    // shares first: a stable sort of the prefix by (hops, last GPU). The
    // keys below are unique (the table index breaks ties), so yielding the
    // prefix in increasing key order is that sort, with nothing allocated;
    // the prefix holds at most `max_paths - 1` routes. Naive routes keep
    // table order.
    let keyed = move || {
        prefix.iter().enumerate().map(move |(i, r)| {
            let key = if aware {
                (r.len(), r.last().copied().unwrap_or(0), i)
            } else {
                (0, 0, i)
            };
            (key, r.as_slice())
        })
    };
    let next_after = move |floor: Option<(usize, usize, usize)>| {
        keyed()
            .filter(|&(key, _)| Some(key) > floor)
            .min_by_key(|&(key, _)| key)
    };
    std::iter::successors(next_after(None), move |&(key, _)| next_after(Some(key)))
        .map(|(_, route)| route)
}

/// Append the feeder path along `hops` (GPU pairs) to `links`: NVLink
/// edges when they exist, PCIe peer-to-peer otherwise — the naive mode's
/// congestion source (the data crosses `gpu`'s own PCIe segment twice,
/// §3.2.2).
fn feeder_links(
    links: &mut LinkPath,
    topo: &Topology,
    node: usize,
    hops: impl Iterator<Item = (usize, usize)>,
) -> Result<(), PathTooLong> {
    for (a, b) in hops {
        match topo.nvlink_edge(node, a, b) {
            Some(edge) => links.extend_from_slice(&edge)?,
            None => links.extend_from_slice(&topo.pcie_p2p_path(node, a, b))?,
        }
    }
    Ok(())
}

/// Plan a device-to-host transfer (paper §4.2.2 pattern 3 / Fig. 5a).
pub fn plan_d2h(
    topo: &Topology,
    net: &FlowNet,
    node: usize,
    gpu: usize,
    bytes: f64,
    cfg: &PlanConfig,
) -> TransferPlan {
    let setup = params::DMA_LAUNCH + params::CHUNK_OVERHEAD;
    let mut flows = Vec::with_capacity(cfg.max_paths.max(1));
    flows.push(candidate(net, topo.d2h_path(node, gpu)));
    if cfg.parallel_pcie && topo.has_nvlink() {
        for route in pcie_feeder_routes(topo, gpu, cfg) {
            let Some(&peer) = route.last() else {
                continue; // feeder routes are at least [gpu, peer]
            };
            // Feed the peer, then stage through its own PCIe path.
            let mut links = LinkPath::new();
            let fits = feeder_links(&mut links, topo, node, hops(route))
                .and_then(|()| links.extend_from_slice(&topo.d2h_path(node, peer)));
            if fits.is_ok() {
                flows.push(candidate(net, links));
            }
        }
    }
    TransferPlan {
        flows: share_by_capacity(flows, bytes),
        setup,
        total_bytes: bytes,
    }
}

/// Plan a host-to-device transfer (mirror of [`plan_d2h`]).
pub fn plan_h2d(
    topo: &Topology,
    net: &FlowNet,
    node: usize,
    gpu: usize,
    bytes: f64,
    cfg: &PlanConfig,
) -> TransferPlan {
    let setup = params::DMA_LAUNCH + params::CHUNK_OVERHEAD;
    let mut flows = Vec::with_capacity(cfg.max_paths.max(1));
    flows.push(candidate(net, topo.h2d_path(node, gpu)));
    if cfg.parallel_pcie && topo.has_nvlink() {
        for route in pcie_feeder_routes(topo, gpu, cfg) {
            let Some(&peer) = route.last() else {
                continue; // feeder routes are at least [gpu, peer]
            };
            // Stage into the peer, then feed back along the route: peer → gpu.
            let mut links = topo.h2d_path(node, peer);
            let back = hops(route).rev().map(|(a, b)| (b, a));
            if feeder_links(&mut links, topo, node, back).is_ok() {
                flows.push(candidate(net, links));
            }
        }
    }
    TransferPlan {
        flows: share_by_capacity(flows, bytes),
        setup,
        total_bytes: bytes,
    }
}

/// NIC routes for a cross-node transfer (Fig. 9a): per NIC, a forwarding
/// GPU on the NIC's switch reachable from `src` over NVLink, and the mirror
/// entry GPU on the destination node. Yields `(nic, src-side GPU route
/// ending at the forwarder, dst-side route from the entry GPU)`.
fn nic_routes(
    topo: &Topology,
    src_gpu: usize,
    dst_gpu: usize,
) -> impl Iterator<Item = (usize, &[usize], &[usize])> {
    (0..topo.num_nics()).filter_map(move |nic| {
        let fwd = best_gpu_on_nic_switch(topo, src_gpu, nic)?;
        let entry = best_gpu_on_nic_switch(topo, dst_gpu, nic)?;
        let src_route = topo.nvlink_route(src_gpu, fwd)?;
        let dst_route = topo.nvlink_route(entry, dst_gpu)?;
        Some((nic, src_route, dst_route))
    })
}

/// The GPU on `nic`'s switch that is cheapest to reach from `from` over
/// NVLink (`from` itself when it is already on that switch).
fn best_gpu_on_nic_switch(topo: &Topology, from: usize, nic: usize) -> Option<usize> {
    let sw = topo.switch_of_nic(nic);
    if topo.switch_of(from) == sw {
        return Some(from);
    }
    (0..topo.gpus_per_node())
        .filter(|&g| topo.switch_of(g) == sw)
        .filter_map(|g| topo.nvlink_route(from, g).map(|r| (r.len(), g)))
        .min()
        .map(|(_, g)| g)
}

/// Plan a cross-node gFn–gFn transfer (paper §4.2.2 pattern 2, Fig. 9a).
///
/// GROUTER (`parallel_nics`): split across every usable NIC; each share
/// rides NVLink to a forwarding GPU, GDR out of its NIC, into the mirror
/// GPU on the remote node, and NVLink again to the destination. Baselines
/// use the single NIC nearest the source, straight into the destination.
pub fn plan_cross_node(
    topo: &Topology,
    net: &FlowNet,
    src: GpuRef,
    dst: GpuRef,
    bytes: f64,
    cfg: &PlanConfig,
) -> TransferPlan {
    assert_ne!(src.node, dst.node, "cross-node plan needs distinct nodes");
    let setup = params::GDR_SETUP + params::NIC_CONN_SETUP + params::CHUNK_OVERHEAD;

    let mut flows = Vec::with_capacity(cfg.max_paths.max(1));
    if cfg.parallel_nics && topo.has_nvlink() {
        for (nic, src_route, dst_route) in nic_routes(topo, src.gpu, dst.gpu) {
            // Routes come from the topology's cached `nvlink_route`, so
            // every hop has an edge and the endpoints exist; a NIC whose
            // routes cannot be resolved is simply skipped.
            let path = || {
                let (&fwd, &entry) = (src_route.last()?, dst_route.first()?);
                let mut links = nvlink_route_links(topo, src.node, src_route)?;
                let dst_links = nvlink_route_links(topo, dst.node, dst_route)?;
                links
                    .extend_from_slice(&topo.gdr_tx_path(src.node, fwd, nic))
                    .ok()?;
                links
                    .extend_from_slice(&topo.gdr_rx_path(dst.node, entry, nic))
                    .ok()?;
                links.extend_from_slice(&dst_links).ok()?;
                Some(links)
            };
            let Some(links) = path() else {
                continue;
            };
            flows.push(candidate(net, links));
            if flows.len() >= cfg.max_paths {
                break;
            }
        }
    }
    if flows.is_empty() {
        // Single NIC: the source's nearest NIC into the destination GPU.
        // Each half is at most four links, so the join always fits.
        let nic = topo.nic_of_gpu(src.gpu);
        let mut links = topo.gdr_tx_path(src.node, src.gpu, nic);
        if links
            .extend_from_slice(&topo.gdr_rx_path(dst.node, dst.gpu, nic))
            .is_ok()
        {
            flows.push(candidate(net, links));
        }
    }
    TransferPlan {
        flows: share_by_capacity(flows, bytes),
        setup,
        total_bytes: bytes,
    }
}

/// Host-centric cross-node hop: DRAM → NIC → DRAM (used by INFless+).
/// The kernel bonds host traffic across the node's NICs; model that by
/// spreading node pairs deterministically over the NIC set.
pub fn plan_host_to_host(
    topo: &Topology,
    net: &FlowNet,
    src_node: usize,
    dst_node: usize,
    bytes: f64,
) -> TransferPlan {
    let nic = (src_node * 7 + dst_node * 3) % topo.num_nics().max(1);
    let links = topo.host_net_path(src_node, dst_node, nic);
    TransferPlan {
        flows: share_by_capacity(vec![candidate(net, links)], bytes),
        setup: params::NIC_CONN_SETUP,
        total_bytes: bytes,
    }
}

/// cFn–cFn exchange over host shared memory ("negligible overhead", §2.2).
pub fn plan_shm(topo: &Topology, net: &FlowNet, node: usize, bytes: f64) -> TransferPlan {
    let links = topo.shm_path(node);
    TransferPlan {
        flows: share_by_capacity(vec![candidate(net, links)], bytes),
        setup: SimDuration::from_micros(2),
        total_bytes: bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grouter_topology::{presets, PathLedger};

    const MB: f64 = 1e6;

    fn v100(nodes: usize) -> (FlowNet, Topology) {
        let mut net = FlowNet::new();
        let topo = Topology::build(presets::dgx_v100(), nodes, &mut net);
        (net, topo)
    }

    /// The ledger-backed plan GROUTER makes for `src → dst` on node 0: an
    /// Algorithm 1 reservation of up to four paths (direct paths only on
    /// NVSwitch fabrics, as the plane asks), laid out by
    /// [`plan_nvlink_paths`], with the reservation's id.
    fn ledger_plan(
        topo: &Topology,
        ledger: &mut PathLedger,
        src: usize,
        dst: usize,
        bytes: f64,
    ) -> (grouter_topology::ResId, Option<TransferPlan>) {
        let max_hops = if topo.has_nvswitch() { 1 } else { 3 };
        let (id, selection, _) = ledger.reserve(src, dst, max_hops, 4);
        (id, plan_nvlink_paths(topo, 0, selection, bytes))
    }

    #[test]
    fn same_gpu_is_zero_copy() {
        let (net, topo) = v100(1);
        let p = plan_intra_node(&topo, &net, 0, 2, 2, 100.0 * MB);
        assert!(p.is_zero_copy());
        assert_eq!(p.setup, params::IPC_MAP_CACHED);
    }

    #[test]
    fn parallel_nvlink_plan_conserves_bytes() {
        let (_, topo) = v100(1);
        let mut ledger = PathLedger::from_topology(&topo);
        let (id, p) = ledger_plan(&topo, &mut ledger, 0, 1, 100.0 * MB);
        let p = p.expect("NVLink routes");
        assert!(p.flows.len() >= 2, "weak pair should use parallel paths");
        assert!((p.assigned_bytes() - 100.0 * MB).abs() < 1.0);
        // Every flow is keyed by its route for live rebalancing, and the
        // ledger, not the plan, holds the reservation.
        assert!(p.flows.iter().all(|f| f.route.is_some()));
        assert!(!ledger.bwm().is_idle(0, 1));
        assert!(ledger.release(id));
        assert!(ledger.bwm().is_idle(0, 1));
    }

    #[test]
    fn single_path_uses_direct_edge() {
        let (net, topo) = v100(1);
        let p = plan_intra_node(&topo, &net, 0, 0, 3, 100.0 * MB);
        assert_eq!(p.flows.len(), 1);
        assert_eq!(p.flows[0].links.len(), 1, "0-3 is a direct NVLink edge");
    }

    #[test]
    fn weak_pair_without_ta_takes_shortest_route() {
        let (net, topo) = v100(1);
        // 1 and 4 lack a direct NVLink.
        let p = plan_intra_node(&topo, &net, 0, 1, 4, 100.0 * MB);
        assert_eq!(p.flows.len(), 1);
        assert_eq!(p.flows[0].links.len(), 2, "two NVLink hops");
    }

    #[test]
    fn a10_falls_back_to_pcie_p2p() {
        let mut net = FlowNet::new();
        let topo = Topology::build(presets::a10x4(), 1, &mut net);
        let mut ledger = PathLedger::from_topology(&topo);
        let (_, p) = ledger_plan(&topo, &mut ledger, 0, 1, 100.0 * MB);
        assert!(p.is_none(), "no NVLink route to plan over");
        let p = plan_intra_node(&topo, &net, 0, 0, 1, 100.0 * MB);
        assert_eq!(p.flows.len(), 1);
        // Distinct switches → 4 PCIe hops.
        assert_eq!(p.flows[0].links.len(), 4);
    }

    #[test]
    fn d2h_grouter_uses_disjoint_uplinks() {
        let (net, topo) = v100(1);
        let cfg = PlanConfig::grouter();
        let p = plan_d2h(&topo, &net, 0, 0, 400.0 * MB, &cfg);
        assert_eq!(p.flows.len(), 4, "direct + 3 route GPUs");
        // No two flows may share any PCIe link (switch uplinks in
        // particular). The final DRAM sink is legitimately shared and never
        // the bottleneck.
        for i in 0..p.flows.len() {
            for j in (i + 1)..p.flows.len() {
                let a = &p.flows[i].links[..p.flows[i].links.len() - 1];
                let b = &p.flows[j].links[..p.flows[j].links.len() - 1];
                let shared = a.iter().filter(|l| b.contains(l)).count();
                assert_eq!(shared, 0, "flows {i} and {j} share PCIe links");
            }
        }
        assert!((p.assigned_bytes() - 400.0 * MB).abs() < 1.0);
    }

    #[test]
    fn d2h_deepplan_congests_shared_resources() {
        let (net, topo) = v100(1);
        let cfg = PlanConfig::deepplan();
        let p = plan_d2h(&topo, &net, 0, 0, 400.0 * MB, &cfg);
        assert!(p.flows.len() >= 2);
        // Naive route choice includes GPU 1 — the same-switch neighbour —
        // whose staging path shares the uplink with the direct path.
        let mut any_shared = false;
        for i in 0..p.flows.len() {
            for j in (i + 1)..p.flows.len() {
                let a = &p.flows[i].links[..p.flows[i].links.len() - 1];
                let b = &p.flows[j].links[..p.flows[j].links.len() - 1];
                if a.iter().any(|l| b.contains(l)) {
                    any_shared = true;
                }
            }
        }
        assert!(any_shared, "DeepPlan mode should exhibit PCIe link sharing");
    }

    #[test]
    fn d2h_single_path_has_one_flow() {
        let (net, topo) = v100(1);
        let cfg = PlanConfig::single_path();
        let p = plan_d2h(&topo, &net, 0, 0, 400.0 * MB, &cfg);
        assert_eq!(p.flows.len(), 1);
        assert_eq!(p.flows[0].links.len(), 3);
    }

    #[test]
    fn h2d_mirrors_d2h_shape() {
        let (net, topo) = v100(1);
        let cfg = PlanConfig::grouter();
        let d = plan_d2h(&topo, &net, 0, 2, 100.0 * MB, &cfg);
        let h = plan_h2d(&topo, &net, 0, 2, 100.0 * MB, &cfg);
        assert_eq!(d.flows.len(), h.flows.len());
        assert!((h.assigned_bytes() - 100.0 * MB).abs() < 1.0);
    }

    #[test]
    fn cross_node_grouter_fans_over_nics() {
        let (net, topo) = v100(2);
        let cfg = PlanConfig::grouter();
        let p = plan_cross_node(
            &topo,
            &net,
            GpuRef::new(0, 0),
            GpuRef::new(1, 3),
            400.0 * MB,
            &cfg,
        );
        assert!(p.flows.len() >= 2, "expected multi-NIC fan-out");
        assert!((p.assigned_bytes() - 400.0 * MB).abs() < 1.0);
    }

    #[test]
    fn cross_node_single_nic_baseline() {
        let (net, topo) = v100(2);
        let cfg = PlanConfig::single_path();
        let p = plan_cross_node(
            &topo,
            &net,
            GpuRef::new(0, 0),
            GpuRef::new(1, 3),
            400.0 * MB,
            &cfg,
        );
        assert_eq!(p.flows.len(), 1);
    }

    #[test]
    fn cross_node_works_without_nvlink() {
        let mut net = FlowNet::new();
        let topo = Topology::build(presets::a10x4(), 2, &mut net);
        let cfg = PlanConfig::grouter();
        let p = plan_cross_node(
            &topo,
            &net,
            GpuRef::new(0, 1),
            GpuRef::new(1, 2),
            100.0 * MB,
            &cfg,
        );
        assert_eq!(p.flows.len(), 1, "no NVLink → single NIC");
        assert!((p.assigned_bytes() - 100.0 * MB).abs() < 1.0);
    }

    #[test]
    fn host_paths_have_sane_shapes() {
        let (net, topo) = v100(2);
        let hh = plan_host_to_host(&topo, &net, 0, 1, 100.0 * MB);
        assert_eq!(hh.flows.len(), 1);
        assert_eq!(hh.flows[0].links.len(), 4);
        let shm = plan_shm(&topo, &net, 0, 100.0 * MB);
        assert_eq!(shm.flows.len(), 1);
        assert_eq!(shm.flows[0].links.len(), 1);
    }

    #[test]
    fn nvswitch_plan_is_direct_only() {
        let mut net = FlowNet::new();
        let topo = Topology::build(presets::dgx_a100(), 1, &mut net);
        let mut ledger = PathLedger::from_topology(&topo);
        let (_, p) = ledger_plan(&topo, &mut ledger, 0, 5, 100.0 * MB);
        let p = p.expect("NVSwitch route");
        assert_eq!(p.flows.len(), 1, "NVSwitch gains nothing from detours");
        assert_eq!(p.flows[0].links.len(), 2, "egress + ingress port");
    }

    /// Every candidate the planners build on the shipped presets fits a
    /// `LinkPath`, so none is dropped for length: each plan has one flow per
    /// candidate the topology offers, and the longest path (cross-node GDR
    /// with NVLink legs on both sides) stays below the capacity.
    #[test]
    fn preset_candidates_all_fit_a_link_path() {
        let cfgs = [
            PlanConfig::grouter(),
            PlanConfig::single_path(),
            PlanConfig::deepplan(),
        ];
        let specs = [
            presets::dgx_v100(),
            presets::dgx_a100(),
            presets::a10x4(),
            presets::h800x8(),
        ];
        let longest = |p: &TransferPlan| p.flows.iter().map(|f| f.links.len()).max();
        let mut overall = 0;
        for spec in specs {
            let mut net = FlowNet::new();
            let topo = Topology::build(spec, 2, &mut net);
            let g = topo.gpus_per_node();
            // Intra-node: one path, or one flow per path the ledger picked.
            let mut ledger = PathLedger::from_topology(&topo);
            for a in 0..g {
                for b in 0..g {
                    let plan = plan_intra_node(&topo, &net, 0, a, b, MB);
                    assert_eq!(plan.flows.len(), usize::from(a != b), "intra {a}->{b}");
                    overall = overall.max(longest(&plan).unwrap_or(0));
                    if a != b {
                        let max_hops = if topo.has_nvswitch() { 1 } else { 3 };
                        let (id, selection, _) = ledger.reserve(a, b, max_hops, 4);
                        let picked = selection.paths.len();
                        let plan = plan_nvlink_paths(&topo, 0, selection, MB);
                        assert!(ledger.release(id));
                        let flows = plan.as_ref().map_or(0, |p| p.flows.len());
                        assert_eq!(flows, picked, "nvlink {a}->{b}");
                        overall = overall.max(plan.as_ref().and_then(longest).unwrap_or(0));
                    }
                }
            }
            for cfg in &cfgs {
                let staged = cfg.parallel_pcie && topo.has_nvlink();
                let nic_fanout = cfg.parallel_nics && topo.has_nvlink();
                for a in 0..g {
                    // Feeder routes come out as a stable (hops, last GPU)
                    // sort of the table prefix; naive ones in table order.
                    let limit = cfg.max_paths - 1;
                    let mut sorted: Vec<&[usize]> = if cfg.topology_aware {
                        topo.pcie_feeder_route_table(a)
                            .iter()
                            .take(limit)
                            .map(|r| &r[..])
                            .collect()
                    } else {
                        topo.naive_feeder_route_table(a)
                            .iter()
                            .take(limit)
                            .map(|r| &r[..])
                            .collect()
                    };
                    if cfg.topology_aware {
                        sorted.sort_by_key(|r| (r.len(), r.last().copied()));
                    }
                    let feeders: Vec<&[usize]> = pcie_feeder_routes(&topo, a, cfg).collect();
                    assert_eq!(feeders, sorted);
                    let want = 1 + if staged { feeders.len() } else { 0 };
                    for plan in [
                        plan_d2h(&topo, &net, 0, a, MB, cfg),
                        plan_h2d(&topo, &net, 0, a, MB, cfg),
                    ] {
                        assert_eq!(plan.flows.len(), want, "gpu {a}");
                        overall = overall.max(longest(&plan).unwrap_or(0));
                    }
                    for b in 0..g {
                        let nics = nic_routes(&topo, a, b).count().min(cfg.max_paths);
                        let want = if nic_fanout && nics > 0 { nics } else { 1 };
                        let (src, dst) = (GpuRef::new(0, a), GpuRef::new(1, b));
                        let plan = plan_cross_node(&topo, &net, src, dst, MB, cfg);
                        assert_eq!(plan.flows.len(), want, "cross {a}->{b}");
                        overall = overall.max(longest(&plan).unwrap_or(0));
                    }
                }
            }
        }
        assert_eq!(overall, 8, "longest planned path");
        assert!(overall < LinkPath::CAPACITY);
    }

    #[test]
    fn zero_byte_plan_keeps_a_flow_for_signalling() {
        let (net, topo) = v100(1);
        let cfg = PlanConfig::single_path();
        let p = plan_d2h(&topo, &net, 0, 0, 0.0, &cfg);
        // Zero-byte transfers still complete through the engine.
        assert_eq!(p.total_bytes, 0.0);
        assert_eq!(p.flows.len(), 1);
        assert_eq!(p.flows[0].bytes, 0.0);
    }
}
