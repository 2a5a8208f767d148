//! Analytic execution of data-plane operations.
//!
//! The full executor (`grouter_runtime::exec`) runs every leg as live
//! flows through the max-min [`grouter_sim::FlowNet`]. A serving group
//! instead executes operations *analytically*: each leg takes
//! `setup + max over flows of bytes / bottleneck-capacity`, i.e. every
//! flow gets its path's full hardware bandwidth (the dedicated-bandwidth
//! approximation — DESIGN.md §5.10 discusses the gap). What is **not**
//! approximated is the resource contract: every leg's rate token, ledger
//! reservation, pinned-ring bytes and NVLink path reservations are
//! released exactly as `release_leg_resources` would, or the group's
//! ledgers would leak reservations and later operations would starve.

use grouter_runtime::dataplane::{DataOp, OpLeg, PlaneEnv};
use grouter_sim::time::SimDuration;
use grouter_sim::FlowNet;

/// Duration of one leg at dedicated hardware bandwidth.
fn leg_duration(leg: &OpLeg, net: &FlowNet) -> SimDuration {
    let mut slowest = 0.0f64;
    for flow in &leg.plan.flows {
        let cap = flow
            .links
            .iter()
            .map(|&l| net.link_capacity(l))
            .fold(f64::INFINITY, f64::min);
        if cap.is_finite() && cap > 0.0 {
            slowest = slowest.max(flow.bytes / cap);
        }
    }
    leg.plan.setup + SimDuration::from_secs_f64(slowest)
}

/// Release everything a completed leg held — the analytic mirror of the
/// full executor's `release_leg_resources`, plus the NVLink path
/// reservations the flow teardown path would return.
fn release_leg(leg: &OpLeg, env: &mut PlaneEnv) {
    if let Some((node, token)) = leg.rate_token {
        env.rates[node].finish(token);
    }
    if let Some((node, res)) = leg.ledger_release {
        env.ledgers[node].release(res);
    }
    if let Some((node, bytes)) = leg.pinned_release {
        env.pinned[node].release(bytes);
    }
    for flow in &leg.plan.flows {
        if let Some((route, rate)) = &flow.nv_reservation {
            env.ledgers[leg.nv_node]
                .bwm_mut()
                .release_path(route, *rate);
        }
    }
}

/// Execute one operation: control latency plus its legs run strictly in
/// order, with every leg's resources released on completion. Returns the
/// operation's total duration.
pub fn run_op(op: &DataOp, env: &mut PlaneEnv) -> SimDuration {
    let mut total = op.control_latency;
    for leg in &op.legs {
        total = total + leg_duration(leg, &env.net);
        release_leg(leg, env);
    }
    total
}

/// Execute a batch of background operations (migrations, proactive
/// restores); returns the sum of their durations.
pub fn run_ops(ops: &[DataOp], env: &mut PlaneEnv) -> SimDuration {
    let mut total = SimDuration::ZERO;
    for op in ops {
        total = total + run_op(op, env);
    }
    total
}
