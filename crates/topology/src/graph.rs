//! Cluster interconnect graph.
//!
//! A [`Topology`] realises a cluster of identical GPU servers as links inside
//! a [`FlowNet`]. Every physical resource that can be contended gets its own
//! directed link:
//!
//! * **NVLink** — per-direction links between directly connected GPU pairs
//!   (DGX-V100 hybrid cube mesh) or per-GPU egress/ingress switch ports
//!   (NVSwitch machines, where any pair communicates at port speed but
//!   fan-in still saturates the receiver's port).
//! * **PCIe** — each GPU has an ×16 segment to its PCIe switch (used both for
//!   host staging and for GPUDirect RDMA through a co-located NIC), and each
//!   switch has one ×16 uplink to the host. GPUs sharing a switch share that
//!   uplink — the constraint behind topology-aware route-GPU selection
//!   (§4.3.1).
//! * **NIC** — per-NIC tx/rx links; each NIC hangs off one PCIe switch.
//! * **Host memory** — DRAM read/write links plus an intra-host shared-memory
//!   link for cFn–cFn exchanges.

use grouter_sim::{FlowNet, LinkId, LinkPath};

/// Globally identifies a GPU: `(server node, local index)`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct GpuRef {
    pub node: usize,
    pub gpu: usize,
}

impl GpuRef {
    pub fn new(node: usize, gpu: usize) -> Self {
        GpuRef { node, gpu }
    }
}

impl std::fmt::Display for GpuRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}g{}", self.node, self.gpu)
    }
}

/// Which testbed this topology models.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TopologyKind {
    /// p3.16xlarge: 8×V100, asymmetric NVLink mesh, 4 PCIe switches, 4 NICs.
    DgxV100,
    /// p4d.24xlarge: 8×A100 behind NVSwitch, 8 NICs.
    DgxA100,
    /// 4×A10 without NVLink (Fig. 20a).
    A10x4,
    /// 8×H800 behind NVSwitch, 200 GB/s ports (LLM experiment, §6.4).
    H800x8,
}

/// Declarative description of one server model; `Topology::build` turns it
/// into links. Public so tests and exotic experiments can craft custom boxes.
#[derive(Clone, Debug)]
pub struct TopologySpec {
    pub kind: TopologyKind,
    pub gpus_per_node: usize,
    /// Undirected NVLink pairs `(a, b, bytes/s)`; empty on NVSwitch machines.
    pub nvlink_pairs: Vec<(usize, usize, f64)>,
    /// Per-GPU NVSwitch port bandwidth; `None` for point-to-point NVLink.
    pub nvswitch_port_bw: Option<f64>,
    /// PCIe ×16 segment/uplink bandwidth.
    pub pcie_bw: f64,
    /// `switch_of[g]` = index of the PCIe switch GPU `g` hangs off.
    pub switch_of: Vec<usize>,
    /// Per-NIC `(attached switch, bytes/s)`.
    pub nics: Vec<(usize, f64)>,
    /// `nic_of_gpu[g]` = index of the NIC nearest to GPU `g`.
    pub nic_of_gpu: Vec<usize>,
    /// GPU memory capacity in bytes.
    pub gpu_mem_bytes: f64,
    /// Host DRAM bandwidth.
    pub dram_bw: f64,
    /// Intra-host shared-memory bandwidth (cFn–cFn).
    pub shm_bw: f64,
}

impl TopologySpec {
    fn num_switches(&self) -> usize {
        self.switch_of.iter().copied().max().map_or(0, |m| m + 1)
    }

    fn validate(&self) {
        let g = self.gpus_per_node;
        assert!(g > 0, "a node needs at least one GPU");
        assert_eq!(self.switch_of.len(), g, "switch_of must cover every GPU");
        assert_eq!(self.nic_of_gpu.len(), g, "nic_of_gpu must cover every GPU");
        for &(a, b, bw) in &self.nvlink_pairs {
            assert!(a < g && b < g && a != b, "bad NVLink pair ({a},{b})");
            assert!(bw > 0.0, "NVLink bandwidth must be positive");
        }
        for &(sw, bw) in &self.nics {
            assert!(sw < self.num_switches(), "NIC attached to unknown switch");
            assert!(bw > 0.0, "NIC bandwidth must be positive");
        }
        for &n in &self.nic_of_gpu {
            assert!(n < self.nics.len(), "nic_of_gpu references unknown NIC");
        }
    }
}

/// Per-node link tables.
struct NodeLinks {
    /// Directed NVLink edge `a → b`, flattened `a * g + b`.
    nvlink: Vec<Option<LinkId>>,
    /// Bandwidth of that edge (0.0 = not connected).
    nvlink_bw: Vec<f64>,
    /// NVSwitch per-GPU ports (empty when `nvswitch_port_bw` is `None`).
    switch_egress: Vec<LinkId>,
    switch_ingress: Vec<LinkId>,
    /// GPU ↔ PCIe-switch segments.
    pcie_up: Vec<LinkId>,
    pcie_down: Vec<LinkId>,
    /// PCIe-switch ↔ host uplinks.
    uplink_up: Vec<LinkId>,
    uplink_down: Vec<LinkId>,
    /// Host DRAM.
    dram_w: LinkId,
    dram_r: LinkId,
    /// Intra-host shared memory.
    shm: LinkId,
    /// NIC tx/rx.
    nic_tx: Vec<LinkId>,
    nic_rx: Vec<LinkId>,
}

/// A built cluster topology: `num_nodes` identical servers.
///
/// The NVLink graph is immutable once built (faults mask *bandwidth*, in the
/// ledger's matrix — never edges), so every pure graph query the planners
/// repeat per transfer is precomputed here once: neighbor lists in both
/// expansion orders, all-pairs shortest routes, and the edge-disjoint feeder
/// routes of Fig. 5a. Planning then reads tables instead of re-running BFS.
pub struct Topology {
    spec: TopologySpec,
    num_nodes: usize,
    nodes: Vec<NodeLinks>,
    /// Per-GPU NVLink neighbors, ascending index (BFS order of
    /// [`Topology::nvlink_shortest_route`]).
    neighbors: Vec<Vec<usize>>,
    /// Per-GPU neighbors in descending-bandwidth, index-tie-broken order —
    /// the expansion order of the feeder-route search.
    neighbors_by_bw: Vec<Vec<usize>>,
    /// All-pairs shortest NVLink routes, flattened `a * g + b`.
    routes: Vec<Option<Vec<usize>>>,
    /// Topology-aware feeder routes per GPU (one per reachable foreign PCIe
    /// switch, edge-disjoint, in discovery order, no path limit applied).
    feeder_routes: Vec<Vec<Vec<usize>>>,
    /// Naive (index-order) feeder routes per GPU — the DeepPlan+ mode.
    naive_feeder_routes: Vec<Vec<Vec<usize>>>,
}

impl Topology {
    /// Build `num_nodes` copies of `spec` inside `net`.
    pub fn build(spec: TopologySpec, num_nodes: usize, net: &mut FlowNet) -> Topology {
        spec.validate();
        assert!(num_nodes > 0, "cluster needs at least one node");
        let g = spec.gpus_per_node;
        let mut nodes = Vec::with_capacity(num_nodes);
        for n in 0..num_nodes {
            let mut nvlink = vec![None; g * g];
            let mut nvlink_bw = vec![0.0; g * g];
            for &(a, b, bw) in &spec.nvlink_pairs {
                let fwd = net.add_link(format!("n{n}:nvl{a}->{b}"), bw);
                let rev = net.add_link(format!("n{n}:nvl{b}->{a}"), bw);
                nvlink[a * g + b] = Some(fwd);
                nvlink[b * g + a] = Some(rev);
                nvlink_bw[a * g + b] = bw;
                nvlink_bw[b * g + a] = bw;
            }
            let (switch_egress, switch_ingress) = match spec.nvswitch_port_bw {
                Some(port) => (
                    (0..g)
                        .map(|i| net.add_link(format!("n{n}:nvsw-eg{i}"), port))
                        .collect(),
                    (0..g)
                        .map(|i| net.add_link(format!("n{n}:nvsw-in{i}"), port))
                        .collect(),
                ),
                None => (Vec::new(), Vec::new()),
            };
            let pcie_up = (0..g)
                .map(|i| net.add_link(format!("n{n}:pcie-up{i}"), spec.pcie_bw))
                .collect();
            let pcie_down = (0..g)
                .map(|i| net.add_link(format!("n{n}:pcie-dn{i}"), spec.pcie_bw))
                .collect();
            let s = spec.num_switches();
            let uplink_up = (0..s)
                .map(|i| net.add_link(format!("n{n}:sw-up{i}"), spec.pcie_bw))
                .collect();
            let uplink_down = (0..s)
                .map(|i| net.add_link(format!("n{n}:sw-dn{i}"), spec.pcie_bw))
                .collect();
            let dram_w = net.add_link(format!("n{n}:dram-w"), spec.dram_bw);
            let dram_r = net.add_link(format!("n{n}:dram-r"), spec.dram_bw);
            let shm = net.add_link(format!("n{n}:shm"), spec.shm_bw);
            let nic_tx = spec
                .nics
                .iter()
                .enumerate()
                .map(|(i, &(_, bw))| net.add_link(format!("n{n}:nic-tx{i}"), bw))
                .collect();
            let nic_rx = spec
                .nics
                .iter()
                .enumerate()
                .map(|(i, &(_, bw))| net.add_link(format!("n{n}:nic-rx{i}"), bw))
                .collect();
            nodes.push(NodeLinks {
                nvlink,
                nvlink_bw,
                switch_egress,
                switch_ingress,
                pcie_up,
                pcie_down,
                uplink_up,
                uplink_down,
                dram_w,
                dram_r,
                shm,
                nic_tx,
                nic_rx,
            });
        }
        let mut topo = Topology {
            spec,
            num_nodes,
            nodes,
            neighbors: Vec::new(),
            neighbors_by_bw: Vec::new(),
            routes: Vec::new(),
            feeder_routes: Vec::new(),
            naive_feeder_routes: Vec::new(),
        };
        topo.neighbors = (0..g).map(|a| topo.compute_neighbors(a)).collect();
        topo.neighbors_by_bw = (0..g)
            .map(|a| {
                let mut n = topo.neighbors[a].clone();
                n.sort_by(|&x, &y| {
                    topo.nvlink_bw(a, y)
                        .total_cmp(&topo.nvlink_bw(a, x))
                        .then(x.cmp(&y))
                });
                n
            })
            .collect();
        topo.routes = (0..g)
            .flat_map(|a| (0..g).map(move |b| (a, b)))
            .map(|(a, b)| topo.compute_shortest_route(a, b))
            .collect();
        topo.feeder_routes = (0..g).map(|a| topo.compute_feeder_routes(a)).collect();
        topo.naive_feeder_routes = (0..g)
            .map(|a| (0..g).filter(|&b| b != a).map(|b| vec![a, b]).collect())
            .collect();
        topo
    }

    pub fn kind(&self) -> TopologyKind {
        self.spec.kind
    }

    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    pub fn gpus_per_node(&self) -> usize {
        self.spec.gpus_per_node
    }

    pub fn num_gpus(&self) -> usize {
        self.num_nodes * self.spec.gpus_per_node
    }

    /// Flat cluster-wide index of `(node, gpu)` — the canonical ordering for
    /// per-GPU vectors (load, failure flags, occupancy snapshots).
    pub fn flat_index(&self, node: usize, gpu: usize) -> usize {
        debug_assert!(node < self.num_nodes && gpu < self.spec.gpus_per_node);
        node * self.spec.gpus_per_node + gpu
    }

    pub fn gpu_mem_bytes(&self) -> f64 {
        self.spec.gpu_mem_bytes
    }

    pub fn num_nics(&self) -> usize {
        self.spec.nics.len()
    }

    /// `true` when GPUs talk through an NVSwitch (all-to-all at port speed).
    pub fn has_nvswitch(&self) -> bool {
        self.spec.nvswitch_port_bw.is_some()
    }

    /// `true` when the machine has any GPU-to-GPU NVLink connectivity.
    pub fn has_nvlink(&self) -> bool {
        self.has_nvswitch() || !self.spec.nvlink_pairs.is_empty()
    }

    /// PCIe switch index for a GPU.
    pub fn switch_of(&self, gpu: usize) -> usize {
        self.spec.switch_of[gpu]
    }

    /// NIC nearest to a GPU (attached to a switch reachable without crossing
    /// the host bridge).
    pub fn nic_of_gpu(&self, gpu: usize) -> usize {
        self.spec.nic_of_gpu[gpu]
    }

    /// Switch a NIC is attached to.
    pub fn switch_of_nic(&self, nic: usize) -> usize {
        self.spec.nics[nic].0
    }

    /// A GPU co-located with `nic` (same PCIe switch), preferring the lowest
    /// index; used to pick the forwarding GPU for parallel NIC transfers.
    pub fn gpu_near_nic(&self, nic: usize) -> usize {
        let sw = self.spec.nics[nic].0;
        (0..self.spec.gpus_per_node)
            .find(|&g| self.spec.switch_of[g] == sw)
            .unwrap_or(0)
    }

    /// NVLink bandwidth between two GPUs on `node` (0.0 when not directly
    /// connected). On NVSwitch machines every distinct pair connects at port
    /// speed.
    pub fn nvlink_bw(&self, a: usize, b: usize) -> f64 {
        if a == b {
            return 0.0;
        }
        if let Some(port) = self.spec.nvswitch_port_bw {
            return port;
        }
        self.nodes[0].nvlink_bw[a * self.spec.gpus_per_node + b]
    }

    /// Directed single-hop NVLink path `a → b` on `node`, if connected.
    pub fn nvlink_edge(&self, node: usize, a: usize, b: usize) -> Option<LinkPath> {
        if a == b {
            return None;
        }
        let links = &self.nodes[node];
        if self.has_nvswitch() {
            return Some(LinkPath::from([
                links.switch_egress[a],
                links.switch_ingress[b],
            ]));
        }
        links.nvlink[a * self.spec.gpus_per_node + b].map(|l| LinkPath::from([l]))
    }

    /// GPUs directly NVLink-connected to `a`, ascending index (empty on
    /// PCIe-only machines; everyone else on NVSwitch machines).
    pub fn nvlink_neighbors(&self, a: usize) -> &[usize] {
        &self.neighbors[a]
    }

    fn compute_neighbors(&self, a: usize) -> Vec<usize> {
        let g = self.spec.gpus_per_node;
        if self.has_nvswitch() {
            return (0..g).filter(|&b| b != a).collect();
        }
        (0..g).filter(|&b| self.nvlink_bw(a, b) > 0.0).collect()
    }

    /// Device-to-host path: GPU segment → switch uplink → DRAM write.
    pub fn d2h_path(&self, node: usize, gpu: usize) -> LinkPath {
        let links = &self.nodes[node];
        let sw = self.spec.switch_of[gpu];
        LinkPath::from([links.pcie_up[gpu], links.uplink_up[sw], links.dram_w])
    }

    /// Host-to-device path: DRAM read → switch downlink → GPU segment.
    pub fn h2d_path(&self, node: usize, gpu: usize) -> LinkPath {
        let links = &self.nodes[node];
        let sw = self.spec.switch_of[gpu];
        LinkPath::from([links.dram_r, links.uplink_down[sw], links.pcie_down[gpu]])
    }

    /// PCIe peer-to-peer path `a → b` (the only gFn–gFn route on machines
    /// without NVLink). Same-switch pairs stay inside the switch; otherwise
    /// the transfer crosses the host bridge via both uplinks.
    pub fn pcie_p2p_path(&self, node: usize, a: usize, b: usize) -> LinkPath {
        assert_ne!(a, b, "p2p path requires distinct GPUs");
        let links = &self.nodes[node];
        let (sa, sb) = (self.spec.switch_of[a], self.spec.switch_of[b]);
        let (up, down) = (links.pcie_up[a], links.pcie_down[b]);
        if sa == sb {
            return LinkPath::from([up, down]);
        }
        LinkPath::from([up, links.uplink_up[sa], links.uplink_down[sb], down])
    }

    /// Sender half of a GPUDirect RDMA path: GPU `gpu` pushes through its
    /// PCIe segment into `nic`. Switch-local NICs are reached peer-to-peer
    /// under the switch; a NIC on another switch costs both host-bridge
    /// uplinks (the congestion GROUTER's NIC-route selection avoids).
    pub fn gdr_tx_path(&self, node: usize, gpu: usize, nic: usize) -> LinkPath {
        let links = &self.nodes[node];
        let (sg, sn) = (self.spec.switch_of[gpu], self.spec.nics[nic].0);
        let (up, tx) = (links.pcie_up[gpu], links.nic_tx[nic]);
        if sg == sn {
            return LinkPath::from([up, tx]);
        }
        LinkPath::from([up, links.uplink_up[sg], links.uplink_down[sn], tx])
    }

    /// Receiver half of a GPUDirect RDMA path: `nic` writes into GPU `gpu`.
    pub fn gdr_rx_path(&self, node: usize, gpu: usize, nic: usize) -> LinkPath {
        let links = &self.nodes[node];
        let (sg, sn) = (self.spec.switch_of[gpu], self.spec.nics[nic].0);
        let (rx, down) = (links.nic_rx[nic], links.pcie_down[gpu]);
        if sg == sn {
            return LinkPath::from([rx, down]);
        }
        LinkPath::from([rx, links.uplink_up[sn], links.uplink_down[sg], down])
    }

    /// Shortest NVLink route `a → b` on one node as a GPU sequence
    /// (precomputed BFS, deterministic ascending neighbor order), or `None`
    /// when `b` is unreachable over NVLink. Used to reach NIC-adjacent
    /// forwarding GPUs (Fig. 9a).
    pub fn nvlink_shortest_route(&self, a: usize, b: usize) -> Option<Vec<usize>> {
        self.nvlink_route(a, b).map(|r| r.to_vec())
    }

    /// Borrowed form of [`Topology::nvlink_shortest_route`] for hot planning
    /// paths: the route slice lives in the topology's all-pairs table.
    pub fn nvlink_route(&self, a: usize, b: usize) -> Option<&[usize]> {
        self.routes[a * self.spec.gpus_per_node + b].as_deref()
    }

    fn compute_shortest_route(&self, a: usize, b: usize) -> Option<Vec<usize>> {
        if a == b {
            return Some(vec![a]);
        }
        let g = self.spec.gpus_per_node;
        let mut prev = vec![usize::MAX; g];
        let mut queue = std::collections::VecDeque::from([a]);
        prev[a] = a;
        while let Some(cur) = queue.pop_front() {
            for &next in &self.neighbors[cur] {
                if prev[next] == usize::MAX {
                    prev[next] = cur;
                    if next == b {
                        let mut route = vec![b];
                        let mut at = b;
                        while at != a {
                            at = prev[at];
                            route.push(at);
                        }
                        route.reverse();
                        return Some(route);
                    }
                    queue.push_back(next);
                }
            }
        }
        None
    }

    /// Edge-disjoint feeder routes from `gpu` toward foreign PCIe switches
    /// (topology-aware route-GPU selection, Fig. 5a): one route per
    /// reachable foreign switch, in switch discovery order, with no path
    /// limit applied. Callers truncate to their `max_paths` budget — valid
    /// because the search's used-edge set grows monotonically, so a limited
    /// run's result is exactly a prefix of this table.
    pub fn pcie_feeder_route_table(&self, gpu: usize) -> &[Vec<usize>] {
        &self.feeder_routes[gpu]
    }

    /// Index-order feeder pairs `[gpu, peer]` for the naive (DeepPlan+)
    /// staging mode, which ignores switch sharing and NVLink reachability.
    pub fn naive_feeder_route_table(&self, gpu: usize) -> &[Vec<usize>] {
        &self.naive_feeder_routes[gpu]
    }

    fn compute_feeder_routes(&self, gpu: usize) -> Vec<Vec<usize>> {
        let my_switch = self.switch_of(gpu);
        let mut switches: Vec<usize> = (0..self.spec.gpus_per_node)
            .map(|g| self.switch_of(g))
            .filter(|&s| s != my_switch)
            .collect();
        switches.sort_unstable();
        switches.dedup();
        let mut used = std::collections::HashSet::new();
        let mut routes = Vec::new();
        for sw in switches {
            let found = self.route_avoiding(gpu, |g| self.switch_of(g) == sw, &used);
            if let Some(route) = found {
                for hop in route.windows(2) {
                    used.insert((hop[0], hop[1]));
                }
                routes.push(route);
            }
        }
        routes
    }

    /// BFS from `src` over NVLink edges not in `used`, to the nearest GPU
    /// satisfying `target`. Neighbours expand in descending link-bandwidth
    /// order (index-tie-broken) so wide links are preferred at equal depth.
    fn route_avoiding(
        &self,
        src: usize,
        target: impl Fn(usize) -> bool,
        used: &std::collections::HashSet<(usize, usize)>,
    ) -> Option<Vec<usize>> {
        let g = self.spec.gpus_per_node;
        let mut prev = vec![usize::MAX; g];
        prev[src] = src;
        let mut queue = std::collections::VecDeque::from([src]);
        while let Some(cur) = queue.pop_front() {
            for &next in &self.neighbors_by_bw[cur] {
                if prev[next] != usize::MAX || used.contains(&(cur, next)) {
                    continue;
                }
                prev[next] = cur;
                if target(next) {
                    let mut route = vec![next];
                    let mut at = next;
                    while at != src {
                        at = prev[at];
                        route.push(at);
                    }
                    route.reverse();
                    return Some(route);
                }
                queue.push_back(next);
            }
        }
        None
    }

    /// Full cross-node GDR path `src → dst` over the given NICs (the fabric
    /// between NICs is assumed non-blocking, as on AWS EFA placements).
    pub fn gdr_path(&self, src: GpuRef, src_nic: usize, dst: GpuRef, dst_nic: usize) -> LinkPath {
        assert_ne!(src.node, dst.node, "GDR path is cross-node");
        let mut p = self.gdr_tx_path(src.node, src.gpu, src_nic);
        let rx = self.gdr_rx_path(dst.node, dst.gpu, dst_nic);
        // Cannot fail: each half is at most 4 links.
        let _ = p.extend_from_slice(&rx);
        p
    }

    /// Host-to-host network path (host-centric cross-node data passing):
    /// DRAM read → NIC tx → NIC rx → DRAM write.
    pub fn host_net_path(&self, src_node: usize, dst_node: usize, nic: usize) -> LinkPath {
        assert_ne!(src_node, dst_node, "host network path is cross-node");
        LinkPath::from([
            self.nodes[src_node].dram_r,
            self.nodes[src_node].nic_tx[nic],
            self.nodes[dst_node].nic_rx[nic],
            self.nodes[dst_node].dram_w,
        ])
    }

    /// Intra-host shared-memory path (cFn–cFn).
    pub fn shm_path(&self, node: usize) -> LinkPath {
        LinkPath::from([self.nodes[node].shm])
    }

    /// The undirected NVLink pair list `(a, b, bw)` (empty for NVSwitch).
    pub fn nvlink_pairs(&self) -> &[(usize, usize, f64)] {
        &self.spec.nvlink_pairs
    }

    /// The PCIe switch→host uplinks of `node` (one per switch) — the
    /// contended resources parallel PCIe staging spreads over (Fig. 5a).
    pub fn uplink_links(&self, node: usize) -> Vec<LinkId> {
        self.nodes[node].uplink_up.clone()
    }

    /// The per-GPU device→switch PCIe segments of `node`.
    pub fn pcie_up_links(&self, node: usize) -> Vec<LinkId> {
        self.nodes[node].pcie_up.clone()
    }

    /// The NIC transmit links of `node`.
    pub fn nic_tx_links(&self, node: usize) -> Vec<LinkId> {
        self.nodes[node].nic_tx.clone()
    }

    /// Both directions of one NIC: `(tx, rx)`. Fault injection throttles the
    /// pair together — a dead NIC neither sends nor receives.
    pub fn nic_links(&self, node: usize, nic: usize) -> (LinkId, LinkId) {
        let links = &self.nodes[node];
        (links.nic_tx[nic], links.nic_rx[nic])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use grouter_sim::params;

    #[test]
    fn v100_nvlink_statistics_match_paper() {
        // Paper Fig. 6a: 28 % of pairs at half bandwidth, 42 % with no NVLink.
        let mut net = FlowNet::new();
        let t = Topology::build(presets::dgx_v100(), 1, &mut net);
        let g = t.gpus_per_node();
        let mut none = 0;
        let mut single = 0;
        let mut double = 0;
        let mut total = 0;
        for a in 0..g {
            for b in (a + 1)..g {
                total += 1;
                let bw = t.nvlink_bw(a, b);
                if bw == 0.0 {
                    none += 1;
                } else if bw == params::NVLINK_V100_SINGLE {
                    single += 1;
                } else if bw == params::NVLINK_V100_DOUBLE {
                    double += 1;
                } else {
                    panic!("unexpected bandwidth {bw}");
                }
            }
        }
        assert_eq!(total, 28);
        assert_eq!(single, 8); // 28.6 % ≈ paper's 28 %
        assert_eq!(none, 12); // 42.9 % ≈ paper's 42 %
        assert_eq!(double, 8);
    }

    #[test]
    fn v100_each_gpu_has_six_links() {
        let mut net = FlowNet::new();
        let t = Topology::build(presets::dgx_v100(), 1, &mut net);
        for a in 0..8 {
            let total: f64 = (0..8).map(|b| t.nvlink_bw(a, b)).sum();
            // 6 links × 24 GB/s each.
            assert_eq!(total, 6.0 * params::NVLINK_V100_SINGLE, "gpu {a}");
        }
    }

    #[test]
    fn nvswitch_connects_all_pairs() {
        let mut net = FlowNet::new();
        let t = Topology::build(presets::dgx_a100(), 1, &mut net);
        assert!(t.has_nvswitch());
        for a in 0..8 {
            for b in 0..8 {
                if a != b {
                    assert_eq!(t.nvlink_bw(a, b), params::NVLINK_A100_PORT);
                    assert_eq!(t.nvlink_edge(0, a, b).unwrap().len(), 2);
                }
            }
        }
    }

    #[test]
    fn a10_has_no_nvlink() {
        let mut net = FlowNet::new();
        let t = Topology::build(presets::a10x4(), 1, &mut net);
        assert!(!t.has_nvlink());
        assert!(t.nvlink_neighbors(0).is_empty());
        assert_eq!(t.nvlink_edge(0, 0, 1), None);
    }

    #[test]
    fn shared_switch_pairs_share_uplink() {
        let mut net = FlowNet::new();
        let t = Topology::build(presets::dgx_v100(), 1, &mut net);
        // GPUs 0 and 1 share a switch: their d2h paths share the uplink link.
        let p0 = t.d2h_path(0, 0);
        let p1 = t.d2h_path(0, 1);
        assert_eq!(p0[1], p1[1], "same uplink expected");
        // GPUs 0 and 2 do not.
        let p2 = t.d2h_path(0, 2);
        assert_ne!(p0[1], p2[1]);
    }

    #[test]
    fn pcie_p2p_same_switch_is_short() {
        let mut net = FlowNet::new();
        let t = Topology::build(presets::a10x4(), 1, &mut net);
        // a10x4 gives each GPU its own switch → always 4 hops.
        assert_eq!(t.pcie_p2p_path(0, 0, 1).len(), 4);
        let mut net2 = FlowNet::new();
        let t2 = Topology::build(presets::dgx_v100(), 1, &mut net2);
        // 0 and 1 share a switch → 2 hops.
        assert_eq!(t2.pcie_p2p_path(0, 0, 1).len(), 2);
        assert_eq!(t2.pcie_p2p_path(0, 0, 2).len(), 4);
    }

    #[test]
    fn gdr_uses_local_pcie_segment() {
        let mut net = FlowNet::new();
        let t = Topology::build(presets::dgx_v100(), 2, &mut net);
        let nic = t.nic_of_gpu(0);
        let p = t.gdr_path(GpuRef::new(0, 0), nic, GpuRef::new(1, 0), nic);
        assert_eq!(p.len(), 4); // pcie_up, nic_tx, nic_rx, pcie_dn
                                // The d2h path shares the GPU segment → contention is modelled.
        assert_eq!(p[0], t.d2h_path(0, 0)[0]);
    }

    #[test]
    fn gdr_via_remote_nic_crosses_host_bridge() {
        let mut net = FlowNet::new();
        let t = Topology::build(presets::dgx_v100(), 2, &mut net);
        // NIC 3 hangs off switch 3; GPU 0 is on switch 0 → 2 extra hops.
        let local = t.gdr_tx_path(0, 0, 0);
        let remote = t.gdr_tx_path(0, 0, 3);
        assert_eq!(local.len(), 2);
        assert_eq!(remote.len(), 4);
    }

    #[test]
    fn nvlink_shortest_route_finds_detours() {
        let mut net = FlowNet::new();
        let t = Topology::build(presets::dgx_v100(), 1, &mut net);
        // Adjacent pair: direct.
        assert_eq!(t.nvlink_shortest_route(0, 3), Some(vec![0, 3]));
        // Non-adjacent pair (1,4): two hops.
        let route = t.nvlink_shortest_route(1, 4).unwrap();
        assert_eq!(route.len(), 3);
        assert_eq!(route[0], 1);
        assert_eq!(route[2], 4);
        assert!(t.nvlink_bw(route[0], route[1]) > 0.0);
        assert!(t.nvlink_bw(route[1], route[2]) > 0.0);
        // Self route.
        assert_eq!(t.nvlink_shortest_route(2, 2), Some(vec![2]));
        // PCIe-only machine: unreachable.
        let mut net2 = FlowNet::new();
        let t2 = Topology::build(presets::a10x4(), 1, &mut net2);
        assert_eq!(t2.nvlink_shortest_route(0, 1), None);
    }

    #[test]
    fn multi_node_builds_disjoint_links() {
        let mut net = FlowNet::new();
        let t = Topology::build(presets::dgx_v100(), 2, &mut net);
        assert_eq!(t.num_gpus(), 16);
        let a = t.d2h_path(0, 0);
        let b = t.d2h_path(1, 0);
        assert!(
            a.iter().all(|l| !b.contains(l)),
            "nodes must not share links"
        );
    }

    #[test]
    fn nic_affinity_is_local() {
        let mut net = FlowNet::new();
        let t = Topology::build(presets::dgx_v100(), 1, &mut net);
        for g in 0..8 {
            let nic = t.nic_of_gpu(g);
            assert_eq!(t.switch_of(g), t.switch_of_nic(nic), "gpu {g}");
        }
        for nic in 0..t.num_nics() {
            let g = t.gpu_near_nic(nic);
            assert_eq!(t.switch_of(g), t.switch_of_nic(nic));
        }
    }

    #[test]
    fn neighbors_are_symmetric_on_v100() {
        let mut net = FlowNet::new();
        let t = Topology::build(presets::dgx_v100(), 1, &mut net);
        for a in 0..8 {
            for &b in t.nvlink_neighbors(a) {
                assert!(t.nvlink_neighbors(b).contains(&a));
                assert_eq!(t.nvlink_bw(a, b), t.nvlink_bw(b, a));
            }
        }
    }
}

#[cfg(test)]
mod accessor_tests {
    use super::*;
    use crate::presets;

    #[test]
    fn link_group_accessors_have_expected_sizes() {
        let mut net = FlowNet::new();
        let t = Topology::build(presets::dgx_v100(), 2, &mut net);
        for node in 0..2 {
            assert_eq!(t.uplink_links(node).len(), 4, "one uplink per switch");
            assert_eq!(t.pcie_up_links(node).len(), 8, "one segment per GPU");
            assert_eq!(t.nic_tx_links(node).len(), 4);
            for nic in 0..4 {
                let (tx, rx) = t.nic_links(node, nic);
                assert_eq!(tx, t.nic_tx_links(node)[nic]);
                assert_ne!(tx, rx, "tx/rx are distinct simplex links");
                // rx is the receive side host_net_path wires in.
                if node == 1 {
                    assert_eq!(t.host_net_path(0, 1, nic)[2], rx);
                }
            }
        }
        // Groups are disjoint across nodes and within a node.
        let mut all: Vec<LinkId> = Vec::new();
        for node in 0..2 {
            all.extend(t.uplink_links(node));
            all.extend(t.pcie_up_links(node));
            all.extend(t.nic_tx_links(node));
        }
        let mut dedup = all.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len(), "link groups overlap");
    }

    #[test]
    fn h800_gdr_paths_are_local() {
        let mut net = FlowNet::new();
        let t = Topology::build(presets::h800x8(), 2, &mut net);
        // Every GPU has a same-switch NIC on H800 boxes → 2-hop GDR halves.
        for g in 0..8 {
            let nic = t.nic_of_gpu(g);
            assert_eq!(t.gdr_tx_path(0, g, nic).len(), 2, "gpu {g}");
            assert_eq!(t.gdr_rx_path(1, g, nic).len(), 2, "gpu {g}");
        }
    }

    #[test]
    fn a100_nvswitch_edges_share_ports_per_gpu() {
        let mut net = FlowNet::new();
        let t = Topology::build(presets::dgx_a100(), 1, &mut net);
        // All edges out of GPU 0 use the same egress port link.
        let e1 = t.nvlink_edge(0, 0, 1).unwrap();
        let e2 = t.nvlink_edge(0, 0, 7).unwrap();
        assert_eq!(e1[0], e2[0], "shared egress port");
        assert_ne!(e1[1], e2[1], "distinct ingress ports");
    }
}
