//! Function placement.
//!
//! GROUTER's platform places functions with a MAPA-style policy (§5):
//! maximise the GPU-interconnect bandwidth between communicating functions
//! while spreading load. Baselines and microbenchmarks use round-robin or
//! pinned placements.

use grouter_sim::rng::DetRng;
use grouter_topology::Topology;

use crate::dataplane::Destination;
use crate::spec::WorkflowSpec;
use grouter_topology::GpuRef;

/// Placement policies.
#[derive(Clone, Debug)]
pub enum PlacementPolicy {
    /// MAPA-style: for each GPU stage pick the GPU maximising
    /// `Σ NVLink-bw to already-placed upstream stages − load penalty`.
    Mapa,
    /// Cycle GPU stages over the cluster's GPUs in order.
    RoundRobin,
    /// Fixed placement per stage (microbenchmarks); must cover every stage.
    Pinned(Vec<Destination>),
}

/// Pinned-consumer placement for streaming workloads: pick the decode GPU
/// that will *own* a request's KV cache for its whole token stream. The KV
/// object is pinned to that GPU's pool (only pressure-triggered migration
/// re-hosts it), so the right choice is the eligible GPU currently holding
/// the least live KV bytes — load balance by resident state, not queue
/// depth. Ties break to the lowest flat index so placement is deterministic.
///
/// `kv_bytes[i]` is live KV resident on flat GPU `i`; `eligible` lists the
/// flat indices of decode instances (callers exclude failed GPUs).
pub fn pin_decode(kv_bytes: &[f64], eligible: &[usize]) -> usize {
    assert!(!eligible.is_empty(), "no eligible decode GPUs");
    let mut best = eligible[0];
    for &g in eligible {
        assert!(g < kv_bytes.len(), "decode GPU {g} out of range");
        if kv_bytes[g] < kv_bytes[best] || (kv_bytes[g] == kv_bytes[best] && g < best) {
            best = g;
        }
    }
    best
}

/// Tracks per-GPU queue depth so placement can balance load.
#[derive(Debug)]
pub struct Placer {
    policy: PlacementPolicy,
    /// Outstanding stage count per flat GPU index.
    load: Vec<u32>,
    /// GPUs currently failed (flat index); placement avoids them while the
    /// recovery engine has them marked down.
    failed: Vec<bool>,
    rr_next: usize,
    /// Round-robin cursor for root CPU stages (spreads ingress across
    /// nodes instead of funnelling every request through node 0).
    cpu_rr: usize,
    /// Nodes eligible for placement (experiments restrict to one node or
    /// spread across several).
    nodes: Vec<usize>,
}

impl Placer {
    pub fn new(policy: PlacementPolicy, topo: &Topology, nodes: Vec<usize>) -> Placer {
        assert!(!nodes.is_empty(), "placement domain must be non-empty");
        for &n in &nodes {
            assert!(n < topo.num_nodes(), "placement node {n} out of range");
        }
        Placer {
            policy,
            load: vec![0; topo.num_gpus()],
            failed: vec![false; topo.num_gpus()],
            rr_next: 0,
            cpu_rr: 0,
            nodes,
        }
    }

    /// Place all stages of one workflow instance. CPU stages land on the
    /// node hosting the majority of their upstream GPU stages (or the first
    /// domain node).
    pub fn place(
        &mut self,
        topo: &Topology,
        spec: &WorkflowSpec,
        rng: &mut DetRng,
    ) -> Vec<Destination> {
        let mut out: Vec<Destination> = Vec::with_capacity(spec.stages.len());
        match &self.policy {
            PlacementPolicy::Pinned(fixed) => {
                assert_eq!(
                    fixed.len(),
                    spec.stages.len(),
                    "pinned placement must cover every stage"
                );
                out.extend(fixed.iter().copied());
            }
            PlacementPolicy::RoundRobin => {
                for stage in &spec.stages {
                    if stage.is_gpu() {
                        let (node, gpu) = self.next_rr(topo);
                        out.push(Destination::Gpu(GpuRef::new(node, gpu)));
                    } else {
                        out.push(Destination::Host(self.nodes[0]));
                    }
                }
            }
            PlacementPolicy::Mapa => {
                for (i, stage) in spec.stages.iter().enumerate() {
                    if stage.is_gpu() {
                        let gpu = self.mapa_pick(topo, &spec.stages[i].deps, &out, rng);
                        out.push(Destination::Gpu(gpu));
                    } else {
                        // CPU stages follow their producers' node; root CPU
                        // stages rotate across the domain so ingress traffic
                        // doesn't funnel through one node.
                        let node = spec.stages[i]
                            .deps
                            .iter()
                            .map(|&d| match out[d] {
                                Destination::Gpu(g) => g.node,
                                Destination::Host(n) => n,
                            })
                            .next()
                            .unwrap_or_else(|| {
                                let n = self.nodes[self.cpu_rr % self.nodes.len()];
                                self.cpu_rr += 1;
                                n
                            });
                        out.push(Destination::Host(node));
                    }
                }
            }
        }
        for dest in &out {
            if let Destination::Gpu(g) = dest {
                self.load[g.node * topo.gpus_per_node() + g.gpu] += 1;
            }
        }
        out
    }

    /// A stage finished: decrement its GPU's load counter.
    pub fn release(&mut self, topo: &Topology, dest: Destination) {
        if let Destination::Gpu(g) = dest {
            let idx = g.node * topo.gpus_per_node() + g.gpu;
            self.load[idx] = self.load[idx].saturating_sub(1);
        }
    }

    /// Re-add a stage to its GPU's load counter (recovery re-placement).
    pub fn bump(&mut self, topo: &Topology, dest: Destination) {
        if let Destination::Gpu(g) = dest {
            self.load[g.node * topo.gpus_per_node() + g.gpu] += 1;
        }
    }

    /// Mark a GPU (flat index) down or back up for placement.
    pub fn set_failed(&mut self, idx: usize, failed: bool) {
        self.failed[idx] = failed;
    }

    /// Nodes eligible for placement.
    pub fn nodes(&self) -> &[usize] {
        &self.nodes
    }

    /// Least-loaded healthy GPU in the domain, preferring `prefer_node`
    /// (re-placement of a stage stranded on a failed GPU: staying on the
    /// producer's node keeps the data passing intra-node). `None` when every
    /// domain GPU is down.
    pub fn pick_healthy(&self, topo: &Topology, prefer_node: Option<usize>) -> Option<GpuRef> {
        let g = topo.gpus_per_node();
        let mut best: Option<(bool, u32, usize, usize)> = None;
        for &node in &self.nodes {
            for gpu in 0..g {
                let idx = node * g + gpu;
                if self.failed[idx] {
                    continue;
                }
                let key = (Some(node) != prefer_node, self.load[idx], node, gpu);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
        }
        best.map(|(_, _, node, gpu)| GpuRef::new(node, gpu))
    }

    fn next_rr(&mut self, topo: &Topology) -> (usize, usize) {
        let g = topo.gpus_per_node();
        let total = self.nodes.len() * g;
        for _ in 0..total {
            let slot = self.rr_next % total;
            self.rr_next += 1;
            if !self.failed[self.nodes[slot / g] * g + slot % g] {
                return (self.nodes[slot / g], slot % g);
            }
        }
        // Every domain GPU is down: fall back to the plain rotation (the
        // arrival path converts the doomed placement into a typed failure).
        let slot = self.rr_next % total;
        self.rr_next += 1;
        (self.nodes[slot / g], slot % g)
    }

    /// MAPA-style scoring: connectivity to placed upstream stages minus a
    /// load penalty; ties broken by lower load, then index (deterministic).
    fn mapa_pick(
        &self,
        topo: &Topology,
        deps: &[usize],
        placed: &[Destination],
        _rng: &mut DetRng,
    ) -> GpuRef {
        mapa_scan(topo, &self.nodes, &self.load, &self.failed, deps, placed)
    }
}

/// The MAPA scoring scan, as a pure function of per-GPU state: `load` and
/// `failed` are indexed by flat GPU index ([`Topology::flat_index`]), and
/// the [`Placer`] passes its live counters.
pub fn mapa_scan(
    topo: &Topology,
    nodes: &[usize],
    load: &[u32],
    failed: &[bool],
    deps: &[usize],
    placed: &[Destination],
) -> GpuRef {
    let g = topo.gpus_per_node();
    let mut best: Option<(f64, u32, usize, usize)> = None; // (-score, load, node, gpu)
    for &node in nodes {
        for gpu in 0..g {
            let idx = node * g + gpu;
            if failed[idx] {
                continue;
            }
            let load = load[idx];
            let mut conn = 0.0;
            for &d in deps {
                match placed[d] {
                    Destination::Gpu(up) if up.node == node => {
                        conn += if up.gpu == gpu {
                            // Same GPU: zero-copy beats any link, but
                            // serialises compute; value it like a top
                            // link rather than infinity.
                            2.0 * topo.nvlink_bw(0, 1).max(1e9)
                        } else {
                            topo.nvlink_bw(up.gpu, gpu)
                        };
                    }
                    // Node affinity: staying on the producer's node
                    // avoids a NIC hop entirely (hierarchical control
                    // plane, §5 — "minimizing inter-node transfers").
                    Destination::Gpu(_) | Destination::Host(_) if placed[d].node_of() == node => {
                        conn += 40e9;
                    }
                    _ => {}
                }
            }
            // One queued stage costs one "link" of score.
            let score = conn - load as f64 * 25e9;
            let key = (-score, load, node, gpu);
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        }
    }
    // Every domain GPU failed: return the first slot and let the
    // arrival path turn the placement into a typed instance failure.
    let (_, _, node, gpu) = best.unwrap_or((0.0, 0, nodes[0], 0));
    GpuRef::new(node, gpu)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::StageSpec;
    use grouter_sim::time::SimDuration;
    use grouter_sim::FlowNet;
    use grouter_topology::presets;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn v100() -> Topology {
        let mut net = FlowNet::new();
        Topology::build(presets::dgx_v100(), 2, &mut net)
    }

    fn chain(n: usize) -> WorkflowSpec {
        let mut wf = WorkflowSpec::new("chain", 1e6);
        for i in 0..n {
            let deps = if i == 0 { vec![] } else { vec![i - 1] };
            wf.push(StageSpec::gpu(format!("s{i}"), deps, ms(10), 1e6, 1e9));
        }
        wf
    }

    #[test]
    fn round_robin_cycles_gpus() {
        let topo = v100();
        let mut placer = Placer::new(PlacementPolicy::RoundRobin, &topo, vec![0]);
        let mut rng = DetRng::new(1);
        let placed = placer.place(&topo, &chain(10), &mut rng);
        let gpus: Vec<usize> = placed
            .iter()
            .map(|d| match d {
                Destination::Gpu(g) => g.gpu,
                _ => panic!("gpu stage"),
            })
            .collect();
        assert_eq!(gpus, vec![0, 1, 2, 3, 4, 5, 6, 7, 0, 1]);
    }

    #[test]
    fn mapa_prefers_connected_gpus() {
        let topo = v100();
        let mut placer = Placer::new(PlacementPolicy::Mapa, &topo, vec![0]);
        let mut rng = DetRng::new(1);
        let placed = placer.place(&topo, &chain(3), &mut rng);
        // Consecutive stages must be NVLink-connected (or co-located).
        for pair in placed.windows(2) {
            let (Destination::Gpu(a), Destination::Gpu(b)) = (pair[0], pair[1]) else {
                panic!("gpu stages");
            };
            assert_eq!(a.node, b.node);
            assert!(
                a.gpu == b.gpu || topo.nvlink_bw(a.gpu, b.gpu) > 0.0,
                "stages on weakly connected pair {a}-{b}"
            );
        }
    }

    #[test]
    fn mapa_balances_load_across_instances() {
        let topo = v100();
        let mut placer = Placer::new(PlacementPolicy::Mapa, &topo, vec![0]);
        let mut rng = DetRng::new(1);
        let mut used = std::collections::BTreeSet::new();
        for _ in 0..8 {
            let placed = placer.place(&topo, &chain(1), &mut rng);
            if let Destination::Gpu(g) = placed[0] {
                used.insert(g.gpu);
            }
        }
        // Eight single-stage instances spread over all eight GPUs.
        assert_eq!(used.len(), 8);
    }

    #[test]
    fn release_decrements_load() {
        let topo = v100();
        let mut placer = Placer::new(PlacementPolicy::Mapa, &topo, vec![0]);
        let mut rng = DetRng::new(1);
        let placed = placer.place(&topo, &chain(1), &mut rng);
        placer.release(&topo, placed[0]);
        assert!(placer.load.iter().all(|&l| l == 0));
    }

    #[test]
    fn cpu_stages_follow_their_producers_node() {
        let topo = v100();
        let mut placer = Placer::new(PlacementPolicy::Mapa, &topo, vec![1]);
        let mut rng = DetRng::new(1);
        let mut wf = WorkflowSpec::new("mixed", 1e6);
        let a = wf.push(StageSpec::gpu("det", vec![], ms(10), 1e6, 1e9));
        wf.push(StageSpec::cpu("post", vec![a], ms(2), 1e5));
        let placed = placer.place(&topo, &wf, &mut rng);
        let Destination::Gpu(g) = placed[0] else {
            panic!()
        };
        assert_eq!(g.node, 1, "domain restricted to node 1");
        assert_eq!(placed[1], Destination::Host(1));
    }

    #[test]
    #[should_panic(expected = "pinned placement must cover")]
    fn pinned_must_cover_all_stages() {
        let topo = v100();
        let mut placer = Placer::new(
            PlacementPolicy::Pinned(vec![Destination::Host(0)]),
            &topo,
            vec![0],
        );
        let mut rng = DetRng::new(1);
        placer.place(&topo, &chain(2), &mut rng);
    }

    #[test]
    fn pin_decode_prefers_least_kv_then_lowest_index() {
        let kv = [4e9, 1e9, 1e9, 9e9];
        assert_eq!(pin_decode(&kv, &[0, 1, 2, 3]), 1);
        assert_eq!(pin_decode(&kv, &[2, 1]), 1);
        assert_eq!(pin_decode(&kv, &[3]), 3);
    }
}
