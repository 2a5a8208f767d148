//! Oracle property tests: the incremental, contention-scoped allocator
//! ([`grouter_sim::FlowNet`]) must agree with the full-recompute reference
//! ([`grouter_sim::ReferenceNet`]) when both are driven by the same event
//! sequence over a randomized topology.
//!
//! Rates are compared after *every* event within a relative tolerance of
//! 1e-6 (component-scoped fills change floating-point accumulation order,
//! so bit equality is not expected; anything beyond ulp noise is a real
//! divergence). Completion sets from `advance_to` must match exactly, and
//! per-link utilization must agree as well.

use grouter_sim::{FlowId, FlowNet, FlowOptions, LinkId, ReferenceNet, SimTime};
use proptest::prelude::*;

const REL_TOL: f64 = 1e-6;

/// One scripted event. Indices are resolved against the live-flow list
/// modulo its length, so a script is meaningful for any interleaving.
#[derive(Clone, Debug)]
enum Op {
    Start {
        path: Vec<usize>,
        bytes: f64,
        floor: f64,
        cap: f64,
        weight: f64,
    },
    Cancel(usize),
    Reroute(usize, Vec<usize>),
    SetLinkCapacity(usize, f64),
    Advance(u64),
    AdvanceToNextCompletion,
}

fn arb_op(n_links: usize) -> impl Strategy<Value = Op> {
    let path = proptest::collection::vec(0..n_links, 1..4);
    let path2 = proptest::collection::vec(0..n_links, 1..4);
    prop_oneof![
        (path, 1e3f64..2e9, 0.0f64..8e9, 0.0f64..1e11, 0.1f64..4.0).prop_map(
            |(path, bytes, floor, cap, weight)| Op::Start {
                path,
                bytes,
                floor,
                // Exercise the non-positive-cap normalisation path too.
                cap: if cap < 1e8 { 0.0 } else { cap },
                weight,
            }
        ),
        (0usize..64).prop_map(Op::Cancel),
        (0usize..64, path2).prop_map(|(i, p)| Op::Reroute(i, p)),
        (0usize..16, 1e9f64..50e9).prop_map(|(l, c)| Op::SetLinkCapacity(l, c)),
        (1u64..500_000_000).prop_map(Op::Advance),
        Just(Op::AdvanceToNextCompletion),
    ]
}

fn arb_scenario() -> impl Strategy<Value = (Vec<f64>, Vec<Op>)> {
    (2usize..8).prop_flat_map(|n_links| {
        (
            proptest::collection::vec(1e9f64..50e9, n_links),
            proptest::collection::vec(arb_op(n_links), 1..40),
        )
    })
}

struct Harness {
    inc: FlowNet,
    refn: ReferenceNet,
    links: Vec<LinkId>,
    /// (incremental id, reference id) pairs — ids are assigned in the same
    /// order by both, but kept separate to avoid relying on that.
    live: Vec<(FlowId, FlowId)>,
    now: SimTime,
}

impl Harness {
    fn new(caps: &[f64]) -> Self {
        let mut inc = FlowNet::new();
        let mut refn = ReferenceNet::new();
        let links: Vec<LinkId> = caps
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let l = inc.add_link(format!("l{i}"), c);
                let lr = refn.add_link(format!("l{i}"), c);
                assert_eq!(l, lr);
                l
            })
            .collect();
        Harness {
            inc,
            refn,
            links,
            live: Vec::new(),
            now: SimTime::ZERO,
        }
    }

    /// Drop completed flows from the live list (both nets remove them on
    /// `advance_to`; the list must follow).
    fn forget(&mut self, done: &[FlowId]) {
        self.live.retain(|(fi, _)| !done.contains(fi));
    }

    fn check(&mut self) -> Result<(), String> {
        for &(fi, fr) in &self.live {
            let ri = self
                .inc
                .flow_rate(fi)
                .map_err(|e| format!("incremental lost flow {fi:?}: {e}"))?;
            let rr = self
                .refn
                .flow_rate(fr)
                .map_err(|e| format!("reference lost flow {fr:?}: {e}"))?;
            let tol = REL_TOL * rr.abs().max(1.0);
            if (ri - rr).abs() > tol {
                return Err(format!(
                    "rate mismatch for {fi:?}: incremental {ri} vs reference {rr}"
                ));
            }
            let mi = self.inc.flow_remaining(fi).unwrap();
            let mr = self.refn.flow_remaining(fr).unwrap();
            // Remaining diverges only by settle-chaining float noise plus
            // rate noise integrated over at most ~0.5 simulated seconds.
            let mtol = REL_TOL * mr.abs().max(1.0) + tol;
            if (mi - mr).abs() > mtol {
                return Err(format!(
                    "remaining mismatch for {fi:?}: incremental {mi} vs reference {mr}"
                ));
            }
        }
        for &l in &self.links {
            let ui = self.inc.link_utilization(l);
            let ur = self.refn.link_utilization(l);
            if (ui - ur).abs() > REL_TOL * ur.abs().max(1.0) {
                return Err(format!(
                    "utilization mismatch on {l:?}: incremental {ui} vs reference {ur}"
                ));
            }
        }
        if self.inc.num_flows() != self.refn.num_flows() {
            return Err(format!(
                "flow count mismatch: incremental {} vs reference {}",
                self.inc.num_flows(),
                self.refn.num_flows()
            ));
        }
        Ok(())
    }

    fn apply(&mut self, op: &Op) -> Result<(), String> {
        match op {
            Op::Start {
                path,
                bytes,
                floor,
                cap,
                weight,
            } => {
                let p: Vec<LinkId> = path.iter().map(|&i| self.links[i]).collect();
                let opts = FlowOptions {
                    floor: *floor,
                    cap: *cap,
                    weight: *weight,
                };
                let fi = self
                    .inc
                    .start_flow(self.now, p.clone(), *bytes, opts)
                    .map_err(|e| e.to_string())?;
                let fr = self
                    .refn
                    .start_flow(self.now, p, *bytes, opts)
                    .map_err(|e| e.to_string())?;
                self.live.push((fi, fr));
            }
            Op::Cancel(i) => {
                if self.live.is_empty() {
                    return Ok(());
                }
                let (fi, fr) = self.live.remove(i % self.live.len());
                self.inc
                    .cancel_flow(self.now, fi)
                    .map_err(|e| e.to_string())?;
                self.refn
                    .cancel_flow(self.now, fr)
                    .map_err(|e| e.to_string())?;
            }
            Op::Reroute(i, path) => {
                if self.live.is_empty() {
                    return Ok(());
                }
                let (fi, fr) = self.live[i % self.live.len()];
                let p: Vec<LinkId> = path.iter().map(|&i| self.links[i]).collect();
                self.inc
                    .reroute_flow(self.now, fi, p.clone())
                    .map_err(|e| e.to_string())?;
                self.refn
                    .reroute_flow(self.now, fr, p)
                    .map_err(|e| e.to_string())?;
            }
            Op::SetLinkCapacity(i, c) => {
                let l = self.links[i % self.links.len()];
                self.inc.set_link_capacity(self.now, l, *c);
                self.refn.set_link_capacity(self.now, l, *c);
            }
            Op::Advance(dt) => {
                self.now = SimTime(self.now.0 + dt);
                let di = self.inc.advance_to(self.now);
                let dr = self.refn.advance_to(self.now);
                if di != dr {
                    return Err(format!("completion sets differ: {di:?} vs {dr:?}"));
                }
                self.forget(&di);
            }
            Op::AdvanceToNextCompletion => {
                // Both allocators must agree on *when* the next completion
                // happens (within a few ns of quantization) and on *which*
                // flows complete there.
                let ti = self.inc.next_completion();
                let tr = self.refn.next_completion();
                match (ti, tr) {
                    (None, None) => {}
                    (Some(ti), Some(tr)) => {
                        let diff = ti.as_nanos().abs_diff(tr.as_nanos());
                        if diff > 16 {
                            return Err(format!(
                                "next_completion differs by {diff} ns: {ti:?} vs {tr:?}"
                            ));
                        }
                        // Advance both to the *later* estimate so ns
                        // quantization cannot strand one side short.
                        let t = ti.max(tr).max(self.now);
                        self.now = t;
                        let di = self.inc.advance_to(t);
                        let dr = self.refn.advance_to(t);
                        if di != dr {
                            return Err(format!("completion sets differ: {di:?} vs {dr:?}"));
                        }
                        self.forget(&di);
                    }
                    _ => {
                        return Err(format!(
                            "next_completion presence differs: {ti:?} vs {tr:?}"
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Incremental ≡ full recompute on randomized topologies and event
    /// sequences covering floors, caps (incl. zero-cap normalisation),
    /// weights, reroutes, link degradation, cancels and completions.
    #[test]
    fn incremental_matches_reference((caps, ops) in arb_scenario()) {
        let mut h = Harness::new(&caps);
        for op in &ops {
            h.apply(op).map_err(|e| format!("applying {op:?}: {e}"))?;
            h.check().map_err(|e| format!("after {op:?}: {e}"))?;
        }
        // Drain both to empty: they must agree on every completion batch.
        let mut guard = 0;
        while h.inc.num_flows() > 0 || h.refn.num_flows() > 0 {
            h.apply(&Op::AdvanceToNextCompletion)
                .map_err(|e| format!("draining: {e}"))?;
            h.check().map_err(|e| format!("draining: {e}"))?;
            guard += 1;
            prop_assert!(guard < 10_000, "drain did not converge");
        }
    }

    /// Determinism: the incremental allocator is bit-identical across two
    /// runs of the same scenario (no iteration-order or slab-reuse leakage).
    #[test]
    fn incremental_is_deterministic((caps, ops) in arb_scenario()) {
        let run = |caps: &[f64], ops: &[Op]| -> Vec<u64> {
            let mut h = Harness::new(caps);
            let mut trace = Vec::new();
            for op in ops {
                let _ = h.apply(op);
                for &(fi, _) in &h.live {
                    trace.push(h.inc.flow_rate(fi).unwrap().to_bits());
                    trace.push(h.inc.flow_remaining(fi).unwrap().to_bits());
                }
                if let Some(t) = h.inc.next_completion() {
                    trace.push(t.as_nanos());
                }
            }
            trace
        };
        let a = run(&caps, &ops);
        let b = run(&caps, &ops);
        prop_assert_eq!(a, b, "incremental allocator not deterministic");
    }
}
