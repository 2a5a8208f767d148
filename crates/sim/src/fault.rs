//! Deterministic fault injection for the discrete-event sim.
//!
//! Production GPU clusters see link flaps, NIC failures and whole-GPU
//! losses as everyday events; the healthy-path assumption baked into the
//! GROUTER data plane (route-GPU harvesting, Algorithm 1 selection) must
//! therefore be exercised under churn. A [`FaultPlan`] is a *seed-replayable
//! script* of such events: either written out explicitly (scripted) or
//! generated from a [`DetRng`] seed (randomized), and scheduled as typed
//! events into a world's [`crate::engine::Scheduler`] so faults interleave
//! deterministically with regular workload events. Two installs of the same
//! plan over the same workload produce bit-identical simulations.
//!
//! The plan itself is pure data — it does not know how a world reacts to a
//! fault. The world schedules each [`FaultEvent`] as one of its own events
//! and interprets it in `dispatch` (the runtime's recovery engine).

use crate::flownet::LinkId;
use crate::rng::DetRng;
use crate::time::{SimDuration, SimTime};

/// One fault (or repair) the plan injects. GPUs and NICs are named by flat
/// cluster-wide indices (`node * per_node + local`); FlowNet links by their
/// [`LinkId`]. The sim crate assigns no meaning to these — the world
/// interprets them against its topology.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultKind {
    /// Scale a FlowNet link to `factor` × its healthy capacity
    /// (`0 < factor ≤ 1`; FlowNet rejects non-positive capacities).
    LinkDegrade { link: LinkId, factor: f64 },
    /// Return a previously degraded FlowNet link to its healthy capacity.
    LinkRestore { link: LinkId },
    /// A GPU's NVLink ports die: it disappears from the bandwidth matrix
    /// (both as an endpoint and as an intermediate *route* GPU) but keeps
    /// computing and keeps its memory.
    RouteGpuLoss { gpu: usize },
    /// The NVLink ports of a route-lost GPU come back.
    RouteGpuRestore { gpu: usize },
    /// A NIC fails: cross-node traffic over it crawls at a residual trickle
    /// until repaired.
    NicFail { node: usize, nic: usize },
    /// The failed NIC is replaced.
    NicRestore { node: usize, nic: usize },
    /// Whole-GPU failure: compute, stored intermediates and links are all
    /// lost at once.
    GpuFail { gpu: usize },
    /// The failed GPU rejoins empty (pool unquarantined, links unmasked).
    GpuRestore { gpu: usize },
    /// Control plane: the worker group this plan is installed on dies —
    /// its heartbeat daemon goes silent and every local GPU fails at once.
    /// (The host gateway survives: requests already in flight toward the
    /// group still arrive and terminate as typed failures.)
    WorkerDeath,
    /// The dead worker rejoins: GPUs restore empty and heartbeats resume.
    WorkerRestart,
    /// Control plane, router side: the next `drops` heartbeats *from*
    /// worker `group` are lost before the router sees them (frontend
    /// message loss); the router keeps routing on its stale view.
    HeartbeatLoss { group: usize, drops: u32 },
}

/// A [`FaultKind`] pinned to a simulation instant.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultEvent {
    pub at: SimTime,
    pub kind: FaultKind,
}

/// The fault targets a randomized plan may draw from. The caller harvests
/// these from its topology (the sim crate cannot).
#[derive(Clone, Debug, Default)]
pub struct FaultDomain {
    /// Total GPUs in the cluster (flat indexing).
    pub gpus: usize,
    /// Number of nodes.
    pub nodes: usize,
    /// NICs per node.
    pub nics_per_node: usize,
    /// FlowNet links eligible for degrade/restore flapping.
    pub links: Vec<LinkId>,
}

/// Shape of a randomized plan.
#[derive(Clone, Debug)]
pub struct FaultPlanConfig {
    /// Faults are injected uniformly over `[0, horizon)`.
    pub horizon: SimDuration,
    /// Number of fault events (each may add a paired repair).
    pub faults: usize,
    /// Outage duration range for paired repairs.
    pub min_outage: SimDuration,
    pub max_outage: SimDuration,
    /// Permit whole-GPU failures (the most destructive kind).
    pub allow_gpu_fail: bool,
}

impl Default for FaultPlanConfig {
    fn default() -> Self {
        FaultPlanConfig {
            horizon: SimDuration::from_secs_f64(0.2),
            faults: 4,
            min_outage: SimDuration::from_secs_f64(0.005),
            max_outage: SimDuration::from_secs_f64(0.060),
            allow_gpu_fail: true,
        }
    }
}

/// The shape of every randomized control-plane plan set
/// ([`FaultPlan::randomized_ctl`]): its events land uniformly over
/// `[0, CTL_HORIZON)`.
const CTL_HORIZON: SimDuration = SimDuration::from_secs(2);
/// Worker-death events (each may add a paired restart).
const CTL_DEATHS: usize = 2;
/// Router-side heartbeat-loss events.
const CTL_HB_LOSSES: usize = 3;
/// Heartbeats dropped per loss event, drawn from `1..=CTL_MAX_DROPS`.
const CTL_MAX_DROPS: u32 = 4;
/// Outage duration range for paired restarts.
const CTL_MIN_OUTAGE: SimDuration = SimDuration::from_millis(200);
const CTL_MAX_OUTAGE: SimDuration = SimDuration::from_millis(800);

/// A deterministic, seed-replayable schedule of fault events.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// A hand-written plan (tests script exact failure instants). Events
    /// are stably sorted by time so installation order is deterministic
    /// regardless of authoring order.
    pub fn scripted(mut events: Vec<FaultEvent>) -> FaultPlan {
        events.sort_by_key(|e| e.at);
        FaultPlan { seed: 0, events }
    }

    /// Generate a randomized plan from `seed`. The same `(seed, domain,
    /// config)` triple always yields the identical plan — chaos tests print
    /// the seed on failure and replay it verbatim.
    pub fn randomized(seed: u64, domain: &FaultDomain, cfg: &FaultPlanConfig) -> FaultPlan {
        let mut rng = DetRng::new(seed).fork(0xFA01);
        let mut events = Vec::new();
        let horizon = cfg.horizon.as_nanos().max(1);
        for _ in 0..cfg.faults {
            let at = SimTime(rng.next_below(horizon));
            let outage = SimDuration(
                cfg.min_outage.as_nanos()
                    + rng.next_below(
                        cfg.max_outage
                            .as_nanos()
                            .saturating_sub(cfg.min_outage.as_nanos())
                            .max(1),
                    ),
            );
            let back = at.saturating_add(outage);
            // Weighted kind choice: link flaps are common, NIC failures
            // less so, GPU losses rare.
            let roll = rng.next_below(10);
            match roll {
                0..=4 if !domain.links.is_empty() => {
                    let link = *rng.choose(&domain.links);
                    let factor = rng.uniform(0.02, 0.5);
                    events.push(FaultEvent {
                        at,
                        kind: FaultKind::LinkDegrade { link, factor },
                    });
                    events.push(FaultEvent {
                        at: back,
                        kind: FaultKind::LinkRestore { link },
                    });
                }
                5..=6 if domain.gpus > 0 => {
                    let gpu = rng.next_below(domain.gpus as u64) as usize;
                    events.push(FaultEvent {
                        at,
                        kind: FaultKind::RouteGpuLoss { gpu },
                    });
                    events.push(FaultEvent {
                        at: back,
                        kind: FaultKind::RouteGpuRestore { gpu },
                    });
                }
                7 if domain.nodes > 0 && domain.nics_per_node > 0 => {
                    let node = rng.next_below(domain.nodes as u64) as usize;
                    let nic = rng.next_below(domain.nics_per_node as u64) as usize;
                    events.push(FaultEvent {
                        at,
                        kind: FaultKind::NicFail { node, nic },
                    });
                    events.push(FaultEvent {
                        at: back,
                        kind: FaultKind::NicRestore { node, nic },
                    });
                }
                _ if cfg.allow_gpu_fail && domain.gpus > 0 => {
                    let gpu = rng.next_below(domain.gpus as u64) as usize;
                    events.push(FaultEvent {
                        at,
                        kind: FaultKind::GpuFail { gpu },
                    });
                    // Half the failures heal within the outage window, the
                    // rest stay down for the remainder of the run.
                    if rng.next_u64().is_multiple_of(2) {
                        events.push(FaultEvent {
                            at: back,
                            kind: FaultKind::GpuRestore { gpu },
                        });
                    }
                }
                _ => {
                    // Domain cannot express the rolled kind (e.g. GPU kills
                    // disabled): fall back to a route loss when possible.
                    if domain.gpus > 0 {
                        let gpu = rng.next_below(domain.gpus as u64) as usize;
                        events.push(FaultEvent {
                            at,
                            kind: FaultKind::RouteGpuLoss { gpu },
                        });
                        events.push(FaultEvent {
                            at: back,
                            kind: FaultKind::RouteGpuRestore { gpu },
                        });
                    }
                }
            }
        }
        events.sort_by_key(|e| e.at);
        FaultPlan { seed, events }
    }

    /// Generate randomized control-plane fault plans for a `groups`-wide
    /// service cluster with the router on group `router`: one plan per
    /// group, to be installed alongside any data-plane plan. Worker deaths
    /// land on non-router groups (their own plan); heartbeat losses land on
    /// the router's plan. A dedicated generator — rather than new arms in
    /// [`FaultPlan::randomized`] — keeps the existing weighted-roll RNG
    /// stream byte-stable for every seed the chaos goldens pin.
    pub fn randomized_ctl(seed: u64, groups: u32, router: u32) -> Vec<FaultPlan> {
        assert!(groups > 0 && router < groups);
        let mut rng = DetRng::new(seed).fork(0xC71);
        let mut per_group: Vec<Vec<FaultEvent>> = vec![Vec::new(); groups as usize];
        let horizon = CTL_HORIZON.as_nanos();
        let workers: Vec<u32> = (0..groups).filter(|&g| g != router).collect();
        for _ in 0..CTL_DEATHS {
            if workers.is_empty() {
                break;
            }
            let g = *rng.choose(&workers);
            let at = SimTime(rng.next_below(horizon));
            let outage = SimDuration(
                CTL_MIN_OUTAGE.as_nanos()
                    + rng.next_below(CTL_MAX_OUTAGE.as_nanos() - CTL_MIN_OUTAGE.as_nanos()),
            );
            per_group[g as usize].push(FaultEvent {
                at,
                kind: FaultKind::WorkerDeath,
            });
            // Half the deaths revive within the outage window; the rest
            // stay down for the remainder of the run.
            if rng.next_u64().is_multiple_of(2) {
                per_group[g as usize].push(FaultEvent {
                    at: at.saturating_add(outage),
                    kind: FaultKind::WorkerRestart,
                });
            }
        }
        for _ in 0..CTL_HB_LOSSES {
            if workers.is_empty() {
                break;
            }
            let g = *rng.choose(&workers);
            let at = SimTime(rng.next_below(horizon));
            let drops = 1 + rng.next_below(u64::from(CTL_MAX_DROPS)) as u32;
            per_group[router as usize].push(FaultEvent {
                at,
                kind: FaultKind::HeartbeatLoss {
                    group: g as usize,
                    drops,
                },
            });
        }
        per_group
            .into_iter()
            .map(|mut events| {
                events.sort_by_key(|e| e.at);
                FaultPlan { seed, events }
            })
            .collect()
    }

    /// The generating seed (0 for scripted plans) — printed by failing
    /// chaos tests for replay.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The scheduled events, time-ordered.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn domain() -> FaultDomain {
        FaultDomain {
            gpus: 16,
            nodes: 2,
            nics_per_node: 4,
            links: (0..12).map(LinkId).collect(),
        }
    }

    #[test]
    fn randomized_plans_replay_byte_identically() {
        let cfg = FaultPlanConfig::default();
        let a = FaultPlan::randomized(42, &domain(), &cfg);
        let b = FaultPlan::randomized(42, &domain(), &cfg);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        let c = FaultPlan::randomized(43, &domain(), &cfg);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn events_are_time_ordered_and_within_kind_invariants() {
        let cfg = FaultPlanConfig {
            faults: 32,
            ..FaultPlanConfig::default()
        };
        let plan = FaultPlan::randomized(7, &domain(), &cfg);
        let evs = plan.events();
        assert!(evs.windows(2).all(|w| w[0].at <= w[1].at));
        for e in evs {
            match &e.kind {
                FaultKind::LinkDegrade { factor, .. } => {
                    assert!(*factor > 0.0 && *factor <= 1.0);
                }
                FaultKind::GpuFail { gpu }
                | FaultKind::GpuRestore { gpu }
                | FaultKind::RouteGpuLoss { gpu }
                | FaultKind::RouteGpuRestore { gpu } => assert!(*gpu < 16),
                FaultKind::NicFail { node, nic } | FaultKind::NicRestore { node, nic } => {
                    assert!(*node < 2 && *nic < 4);
                }
                FaultKind::LinkRestore { .. } => {}
                // Control-plane faults come only from `randomized_ctl`.
                FaultKind::WorkerDeath
                | FaultKind::WorkerRestart
                | FaultKind::HeartbeatLoss { .. } => {
                    unreachable!("randomized() must not emit ctl faults")
                }
            }
        }
    }

    #[test]
    fn randomized_ctl_plans_are_deterministic_and_well_formed() {
        let plans = FaultPlan::randomized_ctl(99, 4, 0);
        assert_eq!(plans, FaultPlan::randomized_ctl(99, 4, 0));
        assert_eq!(plans.len(), 4);
        let mut deaths = 0;
        let mut losses = 0;
        for (g, plan) in plans.iter().enumerate() {
            assert!(plan.events().windows(2).all(|w| w[0].at <= w[1].at));
            for e in plan.events() {
                // A restart lands at most one outage after its death.
                assert!(e.at.as_nanos() < CTL_HORIZON.as_nanos() + CTL_MAX_OUTAGE.as_nanos());
                if matches!(e.kind, FaultKind::WorkerRestart) {
                    assert!(e.at.as_nanos() >= CTL_MIN_OUTAGE.as_nanos());
                } else {
                    assert!(e.at.as_nanos() < CTL_HORIZON.as_nanos());
                }
                match &e.kind {
                    FaultKind::WorkerDeath | FaultKind::WorkerRestart => {
                        // Deaths never land on the router group.
                        assert_ne!(g, 0);
                        if matches!(e.kind, FaultKind::WorkerDeath) {
                            deaths += 1;
                        }
                    }
                    FaultKind::HeartbeatLoss { group, drops } => {
                        // Losses are router-side drop budgets for worker groups.
                        assert_eq!(g, 0);
                        assert!(*group != 0 && *group < 4);
                        assert!(*drops >= 1 && *drops <= CTL_MAX_DROPS);
                        losses += 1;
                    }
                    other => unreachable!("unexpected data-plane fault {other:?}"),
                }
            }
        }
        assert_eq!(deaths, CTL_DEATHS);
        assert_eq!(losses, CTL_HB_LOSSES);
    }

    #[test]
    fn randomized_ctl_single_group_degenerates_to_empty_plans() {
        // With no worker groups there is nothing to kill or mute.
        let plans = FaultPlan::randomized_ctl(7, 1, 0);
        assert_eq!(plans.len(), 1);
        assert!(plans[0].is_empty());
    }
}
