//! End-to-end disaggregated serving runs with TTFT/TBT reporting.
//!
//! [`run_llm_serve`] drives open-loop arrivals through the sharded router +
//! group world on either data plane and folds every group's metrics into a
//! deterministic report. The report's CSV (and its FNV digest) is
//! byte-identical for a given seed at any worker-thread count — that is the
//! property `scripts/ci.sh` gates on.

use grouter_ctl::DecodeBudget;
use grouter_sim::rng::DetRng;
use grouter_sim::time::SimTime;
use grouter_sim::{params, ShardedEngine, Simulation};
use grouter_workloads::llm::LlmMix;
use grouter_workloads::{ArrivalPattern, OpenLoopGen};

use crate::group::{GroupEv, GroupParams, GroupState};
pub use crate::group::{PlaneKind, NODE_GPUS};
use crate::metrics::{fnv64, LlmMetrics};
use crate::world::{Ev, LlmWorld, RouterState};

/// The reference deployment's router-side admission budget: batch slots
/// per decode GPU, and the KV soft cap per group.
const MAX_BATCH: u32 = 16;
const KV_SOFT_CAP: f64 = 4.0 * 20e9;

/// The reference request mix: the 13B/7B chat mix with ~2K-token prompts
/// and ~256-token answers.
fn reference_mix() -> LlmMix {
    LlmMix {
        prompt_median: 2048.0,
        output_mean: 256.0,
        ..LlmMix::chat()
    }
}

/// Configuration of one serving run. The deployment itself (model mix,
/// batch slots, weights, activation pressure, KV budget) is the reference
/// one, fixed in named constants (`DESIGN.md` §5.10).
#[derive(Clone, Debug)]
pub struct LlmServeConfig {
    pub plane: PlaneKind,
    /// Serving groups (one node each); shard count is `groups + 1`.
    pub groups: usize,
    pub seed: u64,
    /// Total requests the open-loop source injects.
    pub requests: u64,
    /// Mean arrival rate, requests per second (whole cluster).
    pub rps: f64,
    pub pattern: ArrivalPattern,
    /// GPUs of each group's node that run decode; the rest run prefill
    /// ([`LlmServeConfig::prefill_gpus`]).
    pub decode_gpus: usize,
    /// Chaos: fail decode GPU `(group, flat gpu index)` at the given time.
    pub fail: Option<(usize, usize, SimTime)>,
    /// Threads for the sharded engine, the calling thread included.
    pub threads: usize,
}

impl LlmServeConfig {
    /// The reference setup: 13B/7B chat mix with ~2K-token prompts on H800
    /// nodes, four prefill and four decode GPUs per group, weights pinning
    /// 26 GB of each 80 GB GPU so a deep decode batch squeezes the KV pool.
    pub fn reference(plane: PlaneKind) -> LlmServeConfig {
        LlmServeConfig {
            plane,
            groups: 2,
            seed: 7,
            requests: 10_000,
            rps: 20.0,
            pattern: ArrivalPattern::Sporadic,
            decode_gpus: 4,
            fail: None,
            threads: 1,
        }
    }

    /// GPUs of each group's node that run prefill: the [`NODE_GPUS`] that
    /// decode does not take. Prefill GPUs come first in flat index order.
    pub fn prefill_gpus(&self) -> usize {
        NODE_GPUS.saturating_sub(self.decode_gpus)
    }
}

/// The merged result of one serving run.
#[derive(Debug)]
pub struct LlmReport {
    pub metrics: LlmMetrics,
    /// Router-observed completions/failures (cross-checked against groups).
    pub completed: u64,
    pub failed: u64,
    pub migrations: u64,
    pub restores: u64,
    pub epochs: u64,
    pub messages: u64,
    /// Deterministic metrics CSV (seed- but not thread-dependent).
    pub csv: String,
    /// FNV-1a of `csv` — the digest CI compares across thread counts.
    pub digest: u64,
}

fn us(x: f64) -> f64 {
    (x * 1e6 * 1000.0).round() / 1000.0
}

/// Run one disaggregated serving experiment to completion.
pub fn run_llm_serve(cfg: &LlmServeConfig) -> LlmReport {
    assert!(cfg.groups >= 1, "need at least one serving group");
    assert!(cfg.threads >= 1, "need at least one thread");
    let lookahead = params::CROSS_GROUP_LATENCY;
    let mut rng = DetRng::new(cfg.seed);
    let gen = OpenLoopGen::unbounded(cfg.pattern, cfg.rps, rng.fork(1));
    let budget = DecodeBudget {
        max_active: (cfg.decode_gpus as u32) * MAX_BATCH,
        kv_soft_cap: KV_SOFT_CAP,
    };
    let mut router = RouterState::new(
        gen,
        cfg.requests,
        reference_mix(),
        rng.fork(2),
        cfg.groups,
        budget,
    );
    let first = router.gen.next().unwrap_or(SimTime::ZERO);

    let gp = GroupParams {
        plane: cfg.plane,
        prefill_gpus: cfg.prefill_gpus(),
        decode_gpus: cfg.decode_gpus,
    };

    let mut sims: Vec<Simulation<LlmWorld>> = Vec::with_capacity(cfg.groups + 1);
    let mut router_sim = Simulation::new(LlmWorld::router(router, lookahead));
    router_sim.sched.schedule_at(first, Ev::Arrival);
    sims.push(router_sim);
    for g in 0..cfg.groups {
        let mut sim = Simulation::new(LlmWorld::group(g, GroupState::new(gp), lookahead));
        if let Some((fg, gpu, at)) = cfg.fail {
            if fg == g {
                sim.sched.schedule_at(at, Ev::Group(GroupEv::Fail { gpu }));
            }
        }
        sims.push(sim);
    }

    let mut engine = ShardedEngine::from_sims(sims, lookahead);
    let stats = engine.run(cfg.threads);

    let mut metrics = LlmMetrics::default();
    let mut migrations = 0u64;
    let mut restores = 0u64;
    for g in 0..cfg.groups {
        let world = &engine.shard(g + 1).world;
        let Some(gs) = world.group_state() else {
            continue;
        };
        // A finished run must leave nothing behind: every request resolved,
        // every KV block consumed, every pool byte and scaler reservation
        // returned. This is the leak contract chaos tests replay against.
        gs.assert_drained();
        metrics.merge(&gs.metrics);
        let ps = gs.plane.stats();
        migrations += ps.migrations;
        restores += ps.restores;
    }
    let (completed, failed) = engine
        .shard(0)
        .world
        .router_state()
        .map(|r| (r.completed, r.failed))
        .unwrap_or((0, 0));

    let csv = format!(
        "plane,admitted,completed,failed,tokens,ttft_p50_us,ttft_p99_us,\
         tbt_mean_us,tbt_p99_us,migrations,restores,stalls,remat\n\
         {},{},{},{},{},{:.3},{:.3},{:.3},{:.3},{},{},{},{}\n",
        match cfg.plane {
            PlaneKind::Grouter => "grouter",
            PlaneKind::Mooncake => "mooncake",
        },
        metrics.admitted,
        metrics.completed,
        metrics.failed,
        metrics.tokens,
        us(metrics.ttft.p50()),
        us(metrics.ttft.p99()),
        us(metrics.tbt.mean()),
        us(metrics.tbt.p99()),
        migrations,
        restores,
        metrics.restore_stalls,
        metrics.rematerialized,
    );
    let digest = fnv64(csv.as_bytes());

    LlmReport {
        metrics,
        completed,
        failed,
        migrations,
        restores,
        epochs: stats.epochs,
        messages: stats.messages,
        csv,
        digest,
    }
}
