//! Service-mode cluster facade: a [`ClusterSim`] wired for router/worker
//! operation — the whole open-loop stream enters at the router group, every
//! group runs a heartbeat daemon, and [`HeartbeatRouter`] makes the
//! admission decisions from its stale view. Optional randomized
//! control-plane faults ([`FaultPlan::randomized_ctl`]) kill workers
//! mid-heartbeat-interval and drop heartbeats router-side.

use grouter_runtime::cluster::ClusterSim;
use grouter_runtime::simple_plane::LocalityPlane;
use grouter_sim::fault::FaultPlan;
use grouter_sim::params;
use grouter_sim::shard::RunStats;
use grouter_sim::stats::Summary;
use grouter_sim::time::SimDuration;
use grouter_workloads::azure::ArrivalPattern;
use grouter_workloads::cluster::{service_setups, ClusterPreset, ROUTER_GROUP};

use crate::HeartbeatRouter;

/// Everything a service run needs beyond the fleet preset.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    pub pattern: ArrivalPattern,
    /// Offered load at the router gateway, requests/second.
    pub rps: f64,
    /// Total invocations in the trace.
    pub total: u64,
    pub seed: u64,
    /// Worker heartbeat period — the staleness knob.
    pub hb_interval: SimDuration,
    /// Randomized control-plane faults (worker deaths + heartbeat loss,
    /// [`FaultPlan::randomized_ctl`]); `false` for a fault-free run.
    pub ctl_faults: bool,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            pattern: ArrivalPattern::Sporadic,
            rps: 400.0,
            total: 10_000,
            seed: 42,
            hb_interval: params::HEARTBEAT_INTERVAL,
            ctl_faults: false,
        }
    }
}

/// A running service cluster (router + workers over the sharded fabric).
pub struct ServiceSim {
    sim: ClusterSim,
}

impl ServiceSim {
    /// Build the cluster: service arrivals on the router group, heartbeat
    /// wiring everywhere, a [`HeartbeatRouter`] agent on the router, and
    /// per-group control-plane fault plans when configured.
    pub fn build(preset: &ClusterPreset, cfg: &ServiceConfig) -> ServiceSim {
        let mut setups = service_setups(
            preset,
            cfg.pattern,
            cfg.rps,
            cfg.total,
            cfg.seed,
            cfg.hb_interval,
            |_| Box::new(LocalityPlane::new()),
        );
        let n = setups.len() as u32;
        if cfg.ctl_faults {
            let plans = FaultPlan::randomized_ctl(cfg.seed, n, ROUTER_GROUP);
            for (g, plan) in plans.into_iter().enumerate() {
                if !plan.is_empty() {
                    setups[g].fault_plans.push(plan);
                }
            }
        }
        if let Some(router) = setups.get_mut(ROUTER_GROUP as usize) {
            router.agent = Some(Box::new(HeartbeatRouter::new(n, cfg.hb_interval)));
        }
        ServiceSim {
            sim: ClusterSim::new(cfg.seed, setups),
        }
    }

    /// Run to global quiescence on `threads` threads, the calling thread
    /// included; byte-identical outputs for any thread count.
    pub fn run(&mut self, threads: usize) -> RunStats {
        self.sim.run(threads)
    }

    /// The underlying cluster (worlds, ports, merged reports).
    pub fn cluster(&self) -> &ClusterSim {
        &self.sim
    }

    pub fn arrivals(&self) -> u64 {
        self.sim.arrivals()
    }

    pub fn completed(&self) -> usize {
        self.sim.completed()
    }

    pub fn failed(&self) -> u64 {
        self.sim.failed()
    }

    /// Merged per-instance metrics CSV (deterministic group order).
    pub fn merged_csv(&self) -> String {
        self.sim.merged_csv()
    }

    /// Merged typed recovery log.
    pub fn merged_recovery_log(&self) -> String {
        self.sim.merged_recovery_log()
    }

    /// The router's admission log (empty when no agent is installed).
    pub fn admission_log(&self) -> String {
        self.sim.admission_log().unwrap_or_default()
    }

    /// Cluster-wide end-to-end latency distribution, milliseconds.
    pub fn latency_ms(&self) -> Summary {
        let mut s = Summary::new();
        for g in 0..self.sim.groups() {
            for r in self.sim.world(g).metrics.records() {
                s.record(r.latency().as_millis_f64());
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_preset() -> ClusterPreset {
        let mut p = ClusterPreset::uniform_64();
        p.groups.truncate(3);
        p
    }

    #[test]
    fn service_run_drains_and_routes_everywhere() {
        let cfg = ServiceConfig {
            total: 1_200,
            seed: 7,
            ..ServiceConfig::default()
        };
        let mut svc = ServiceSim::build(&small_preset(), &cfg);
        svc.run(1);
        assert_eq!(svc.arrivals(), 1_200);
        assert_eq!(svc.completed() as u64 + svc.failed(), 1_200);
        assert_eq!(svc.failed(), 0, "fault-free run completes everything");
        // The heartbeat view actually spreads load off the router group.
        let log = svc.admission_log();
        assert_eq!(log.lines().count(), 1_200);
        let remote = log.lines().filter(|l| !l.contains("-> g0")).count();
        assert!(remote > 0, "router never spread load:\n{log}");
        let (sent, recv, dropped) = svc.cluster().heartbeat_stats();
        assert!(sent > 0 && recv > 0);
        assert_eq!(dropped, 0);
        assert_eq!(sent, recv, "every beat survives a fault-free fabric");
    }

    #[test]
    fn same_seed_same_outputs_with_ctl_faults() {
        let cfg = ServiceConfig {
            total: 800,
            seed: 11,
            ctl_faults: true,
            ..ServiceConfig::default()
        };
        let run = |threads: usize| {
            let mut svc = ServiceSim::build(&small_preset(), &cfg);
            svc.run(threads);
            (
                svc.merged_csv(),
                svc.admission_log(),
                svc.merged_recovery_log(),
            )
        };
        let a = run(1);
        let b = run(2);
        assert_eq!(a.0, b.0, "metrics CSV differs across thread counts");
        assert_eq!(a.1, b.1, "admission log differs across thread counts");
        assert_eq!(a.2, b.2, "recovery log differs across thread counts");
        assert!(
            a.2.contains("WorkerDied"),
            "ctl plan injected no death:\n{}",
            a.2
        );
    }
}
