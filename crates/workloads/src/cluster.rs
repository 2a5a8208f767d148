//! Cluster-scale presets: 64–128-GPU heterogeneous fleets and the
//! open-loop request streams that drive them.
//!
//! The sharded engine models a cluster as node *groups* (one DGX-class
//! server each) under a frontend that routes requests mostly to the
//! admitting group ([`LOCALITY`]). This module packages:
//!
//! * [`cluster_mix`] — a light inference workflow mix (1–3 stages,
//!   single-digit-ms compute, MB-scale tensors) sized so one group
//!   sustains hundreds of requests per second and a million-invocation
//!   trace finishes in minutes of wall time;
//! * [`ClusterPreset`] — 64- and 128-GPU fleets, homogeneous (the
//!   apples-to-apples baseline against the monolithic single-shard core)
//!   and heterogeneous (alternating V100/A100 groups, each registering
//!   its own GPU-tuned workflow variants);
//! * [`OpenLoopArrivals`] — an [`ArrivalSource`] wrapping
//!   [`azure::OpenLoopGen`]: each group's gateway draws its own Poisson
//!   stream from a split RNG and routes 1-in-10 requests to a uniformly
//!   random other group;
//! * [`group_setups`] — assembly of ready-to-run [`GroupSetup`]s.

use std::sync::Arc;

use grouter_runtime::cluster::{ArrivalSource, ClusterArrival, GroupSetup};
use grouter_runtime::dataplane::DataPlane;
use grouter_runtime::spec::{StageSpec, WorkflowSpec};
use grouter_runtime::world::RuntimeConfig;
use grouter_sim::rng::DetRng;
use grouter_sim::time::{SimDuration, SimTime};
use grouter_topology::graph::TopologySpec;
use grouter_topology::presets;

use crate::azure::{ArrivalPattern, OpenLoopGen};
use crate::models::{GpuClass, MIB};

/// Fraction of requests a gateway keeps on its own group.
pub const LOCALITY: f64 = 0.9;

/// Light inference mix for cluster sweeps, tuned per GPU class. The three
/// workflows cover the single-stage, CPU→GPU and GPU→GPU shapes without
/// the heavyweight suite's 100-ms critical paths — throughput, not model
/// fidelity, is what the sweep stresses.
pub fn cluster_mix(gpu: GpuClass) -> Vec<Arc<WorkflowSpec>> {
    let f = gpu.speed_factor();
    let ms = |x: f64| SimDuration::from_nanos((x * f * 1e6).round() as u64);

    // Single GPU stage: an embedding lookup.
    let mut embed = WorkflowSpec::new("embed", 0.25 * MIB);
    embed.push(StageSpec::gpu("encode", vec![], ms(3.0), 0.02 * MIB, 0.8e9));

    // CPU decode feeding one GPU inference.
    let mut classify = WorkflowSpec::new("classify", 0.5 * MIB);
    let dec = classify.push(StageSpec::cpu(
        "decode",
        vec![],
        SimDuration::from_nanos(1_000_000),
        2.0 * MIB,
    ));
    classify.push(StageSpec::gpu(
        "infer",
        vec![dec],
        ms(5.0),
        0.06 * MIB,
        1.2e9,
    ));

    // Two chained GPU stages: the gFn→gFn hop the paper optimises.
    let mut rank = WorkflowSpec::new("rank", 1.0 * MIB);
    let enc = rank.push(StageSpec::gpu("encode", vec![], ms(4.0), 3.0 * MIB, 1.0e9));
    rank.push(StageSpec::gpu(
        "score",
        vec![enc],
        ms(3.0),
        0.04 * MIB,
        1.0e9,
    ));

    vec![Arc::new(embed), Arc::new(classify), Arc::new(rank)]
}

/// One node group of a cluster preset.
#[derive(Clone, Debug)]
pub struct GroupSpec {
    pub topo: fn() -> TopologySpec,
    pub gpu: GpuClass,
    /// Nodes in this group (each node is one `topo` replica).
    pub nodes: usize,
}

/// A fleet of node groups.
#[derive(Clone, Debug)]
pub struct ClusterPreset {
    pub name: &'static str,
    pub groups: Vec<GroupSpec>,
}

impl ClusterPreset {
    pub fn total_gpus(&self) -> usize {
        self.groups
            .iter()
            .map(|g| g.nodes * (g.topo)().gpus_per_node)
            .sum()
    }

    /// 64 GPUs as 8 homogeneous V100 groups — the sharded side of the
    /// gated monolithic-vs-sharded comparison.
    pub fn uniform_64() -> ClusterPreset {
        ClusterPreset {
            name: "uniform64",
            groups: vec![
                GroupSpec {
                    topo: presets::dgx_v100,
                    gpu: GpuClass::V100,
                    nodes: 1,
                };
                8
            ],
        }
    }

    /// 128 GPUs as 16 homogeneous V100 groups (the 128-GPU side of the
    /// monolithic-vs-sharded scaling comparison).
    pub fn uniform_128() -> ClusterPreset {
        ClusterPreset {
            name: "uniform128",
            groups: vec![
                GroupSpec {
                    topo: presets::dgx_v100,
                    gpu: GpuClass::V100,
                    nodes: 1,
                };
                16
            ],
        }
    }

    /// 64 GPUs, heterogeneous: V100 and A100 groups alternating. Each
    /// group registers its own GPU-tuned workflow variants at matching
    /// logical ids, which a single monolithic world cannot express
    /// (`Topology::build` replicates one spec).
    pub fn hetero_64() -> ClusterPreset {
        ClusterPreset {
            name: "hetero64",
            groups: Self::alternating(8),
        }
    }

    /// 128 GPUs, heterogeneous, 16 groups.
    pub fn hetero_128() -> ClusterPreset {
        ClusterPreset {
            name: "hetero128",
            groups: Self::alternating(16),
        }
    }

    fn alternating(n: usize) -> Vec<GroupSpec> {
        (0..n)
            .map(|g| {
                if g % 2 == 0 {
                    GroupSpec {
                        topo: presets::dgx_v100,
                        gpu: GpuClass::V100,
                        nodes: 1,
                    }
                } else {
                    GroupSpec {
                        topo: presets::dgx_a100,
                        gpu: GpuClass::A100,
                        nodes: 1,
                    }
                }
            })
            .collect()
    }
}

/// Open-loop arrival source for one group's gateway: a Poisson(-ish)
/// stream of `count` invocations at `rps`, workflow drawn uniformly from
/// the registry, [`LOCALITY`] of them homed locally and the rest on a
/// uniformly random other group.
pub struct OpenLoopArrivals {
    gen: OpenLoopGen,
    rng: DetRng,
    group: u32,
    groups: u32,
    specs: u32,
    remaining: u64,
}

impl OpenLoopArrivals {
    /// `rng` seeds both the arrival process and the routing draws; give
    /// each group a distinct [`DetRng::split`] stream of the run seed.
    pub fn new(
        pattern: ArrivalPattern,
        rps: f64,
        count: u64,
        rng: DetRng,
        group: u32,
        groups: u32,
        specs: u32,
    ) -> OpenLoopArrivals {
        assert!(specs > 0 && groups > 0);
        OpenLoopArrivals {
            gen: OpenLoopGen::unbounded(pattern, rps, rng.split(0)),
            rng: rng.split(1),
            group,
            groups,
            specs,
            remaining: count,
        }
    }
}

impl ArrivalSource for OpenLoopArrivals {
    fn next(&mut self) -> Option<ClusterArrival> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let at: SimTime = self.gen.next()?;
        let spec = self.rng.next_below(self.specs as u64) as u32;
        let home = if self.groups == 1 || self.rng.next_f64() < LOCALITY {
            self.group
        } else {
            // Uniform over the other groups.
            let r = self.rng.next_below(self.groups as u64 - 1) as u32;
            if r >= self.group {
                r + 1
            } else {
                r
            }
        };
        Some(ClusterArrival { at, spec, home })
    }
}

/// One [`GroupSetup`] per group of `preset`: the group's topology and
/// GPU-tuned [`cluster_mix`] registry, the run `seed` on its world (world
/// RNGs are split from it by `ClusterSim::new`), `plane(g)` as its data
/// plane, `hb` as its heartbeat wiring, and `source(g, specs)` as its
/// arrival source.
fn build_setups(
    preset: &ClusterPreset,
    seed: u64,
    hb: Option<grouter_runtime::HeartbeatConfig>,
    plane: impl Fn(usize) -> Box<dyn DataPlane>,
    source: impl Fn(usize, u32) -> Option<Box<dyn ArrivalSource>>,
) -> Vec<GroupSetup> {
    preset
        .groups
        .iter()
        .enumerate()
        .map(|(g, gs)| {
            let specs = cluster_mix(gs.gpu);
            GroupSetup {
                topo: (gs.topo)(),
                nodes: gs.nodes,
                plane: plane(g),
                config: RuntimeConfig {
                    seed,
                    ..RuntimeConfig::default()
                },
                source: source(g, specs.len() as u32),
                specs,
                fault_plans: Vec::new(),
                hb,
                agent: None,
            }
        })
        .collect()
}

/// Assemble ready-to-run group setups for `preset`: per-group GPU-tuned
/// [`cluster_mix`] registries and [`OpenLoopArrivals`] sources emitting
/// `per_group` invocations each at `rps` per group. `plane` builds each
/// group's data plane (planes are not `Clone`); `seed` splits into
/// per-group arrival streams — world RNGs are split separately by
/// `ClusterSim::new` from the run seed.
pub fn group_setups(
    preset: &ClusterPreset,
    pattern: ArrivalPattern,
    rps: f64,
    per_group: u64,
    seed: u64,
    plane: impl Fn(usize) -> Box<dyn DataPlane>,
) -> Vec<GroupSetup> {
    let n = preset.groups.len() as u32;
    let root = DetRng::new(seed).fork(0xA21);
    build_setups(preset, seed, None, plane, |g, specs| {
        let rng = root.split(g as u64);
        let source = OpenLoopArrivals::new(pattern, rps, per_group, rng, g as u32, n, specs);
        Some(Box::new(source))
    })
}

/// The group hosting the service-mode router (and its gateway).
pub const ROUTER_GROUP: u32 = 0;

/// Assemble service-mode group setups for `preset`: every group runs a
/// heartbeat daemon publishing to the router group, and the single
/// open-loop stream (`total` invocations at `rps`) enters at the router's
/// gateway — an [`OpenLoopArrivals`] over one group, so every request is
/// homed there and the router's heartbeat-view agent, not the trace,
/// decides where it runs. The caller installs the router agent on
/// `setups[ROUTER_GROUP as usize].agent` (the policy lives in
/// `grouter-ctl`; this crate only wires the fabric).
pub fn service_setups(
    preset: &ClusterPreset,
    pattern: ArrivalPattern,
    rps: f64,
    total: u64,
    seed: u64,
    hb_interval: SimDuration,
    plane: impl Fn(usize) -> Box<dyn DataPlane>,
) -> Vec<GroupSetup> {
    let root = DetRng::new(seed).fork(0xA22);
    let hb = grouter_runtime::HeartbeatConfig {
        to: ROUTER_GROUP,
        interval: hb_interval,
    };
    build_setups(preset, seed, Some(hb), plane, |g, specs| {
        (g as u32 == ROUTER_GROUP).then(|| {
            let rng = root.split(g as u64);
            let source = OpenLoopArrivals::new(pattern, rps, total, rng, ROUTER_GROUP, 1, specs);
            Box::new(source) as Box<dyn ArrivalSource>
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_the_advertised_gpu_counts() {
        assert_eq!(ClusterPreset::uniform_64().total_gpus(), 64);
        assert_eq!(ClusterPreset::hetero_64().total_gpus(), 64);
        assert_eq!(ClusterPreset::hetero_128().total_gpus(), 128);
    }

    #[test]
    fn arrivals_are_mostly_local_and_time_ordered() {
        let mut src = OpenLoopArrivals::new(
            ArrivalPattern::Sporadic,
            1000.0,
            20_000,
            DetRng::new(3),
            2,
            8,
            3,
        );
        let mut prev = SimTime::ZERO;
        let mut local = 0u64;
        let mut n = 0u64;
        while let Some(a) = src.next() {
            assert!(a.at >= prev);
            prev = a.at;
            assert!(a.home < 8 && a.spec < 3);
            if a.home == 2 {
                local += 1;
            }
            n += 1;
        }
        assert_eq!(n, 20_000);
        let frac = local as f64 / n as f64;
        assert!((frac - LOCALITY).abs() < 0.02, "locality {frac}");
    }

    #[test]
    fn cluster_mix_scales_with_gpu_class() {
        let v = cluster_mix(GpuClass::V100);
        let a = cluster_mix(GpuClass::A100);
        assert_eq!(v.len(), a.len());
        // A100 variants are faster but structurally identical.
        for (wv, wa) in v.iter().zip(&a) {
            assert_eq!(wv.name, wa.name);
            assert_eq!(wv.stages.len(), wa.stages.len());
        }
        assert!(v[0].stages[0].compute > a[0].stages[0].compute);
    }
}
