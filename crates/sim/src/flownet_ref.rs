//! Reference (non-incremental) flow allocator.
//!
//! This is the original full-recompute implementation of [`crate::FlowNet`]:
//! flows in a `BTreeMap`, per-link member lists rebuilt from scratch and
//! progressive filling re-run over *every* flow on *every* event, eager
//! settling of all flows, and O(flows) scans for `next_completion` and
//! `link_utilization`.
//!
//! It is kept for two purposes:
//!
//! * **Oracle.** The incremental, contention-scoped allocator must produce
//!   the same rates; property tests drive both with identical event
//!   sequences over randomized topologies and compare (see
//!   `tests/flownet_oracle.rs`).
//! * **Baseline.** The `bench_flownet` Criterion group measures the
//!   incremental allocator's speedup against this implementation under
//!   churn.
//!
//! The only intentional semantic change from the seed version is shared
//! with the production allocator: non-positive caps are normalised to
//! "uncapped" and the effective cap is `cap.max(floor)`, so a contradictory
//! throttle can no longer stall a flow below its SLO floor (or forever).

use std::collections::BTreeMap;

use crate::flownet::{FlowId, FlowNetError, FlowOptions, LinkId, EPS_BYTES, EPS_RATE};
use crate::time::{SimDuration, SimTime};

#[derive(Clone, Debug)]
struct Link {
    capacity: f64,
}

#[derive(Clone, Debug)]
struct Flow {
    path: Vec<LinkId>,
    remaining: f64,
    rate: f64,
    floor: f64,
    cap: f64,
    weight: f64,
}

impl Flow {
    fn effective_cap(&self) -> f64 {
        self.cap.max(self.floor)
    }
}

fn normalize_cap(cap: f64) -> f64 {
    if cap > 0.0 {
        cap
    } else {
        f64::INFINITY
    }
}

/// Full-recompute reference allocator. Mirrors the [`crate::FlowNet`] API
/// surface used by tests and benches; every event settles all flows and
/// re-runs progressive filling globally.
pub struct ReferenceNet {
    links: Vec<Link>,
    flows: BTreeMap<u64, Flow>,
    now: SimTime,
    next_id: u64,
    version: u64,
}

impl Default for ReferenceNet {
    fn default() -> Self {
        Self::new()
    }
}

impl ReferenceNet {
    pub fn new() -> Self {
        ReferenceNet {
            links: Vec::new(),
            flows: BTreeMap::new(),
            now: SimTime::ZERO,
            next_id: 0,
            version: 0,
        }
    }

    pub fn add_link(&mut self, _name: impl Into<String>, capacity: f64) -> LinkId {
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "link capacity must be positive and finite"
        );
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link { capacity });
        id
    }

    pub fn num_flows(&self) -> usize {
        self.flows.len()
    }

    pub fn version(&self) -> u64 {
        self.version
    }

    pub fn now(&self) -> SimTime {
        self.now
    }

    pub fn start_flow(
        &mut self,
        now: SimTime,
        path: Vec<LinkId>,
        bytes: f64,
        opts: FlowOptions,
    ) -> Result<FlowId, FlowNetError> {
        if path.is_empty() {
            return Err(FlowNetError::EmptyPath);
        }
        for &l in &path {
            if l.0 as usize >= self.links.len() {
                return Err(FlowNetError::UnknownLink(l));
            }
        }
        self.settle(now);
        let id = self.next_id;
        self.next_id += 1;
        self.flows.insert(
            id,
            Flow {
                path,
                remaining: bytes.max(0.0),
                rate: 0.0,
                floor: opts.floor.max(0.0),
                cap: normalize_cap(opts.cap),
                weight: if opts.weight > 0.0 { opts.weight } else { 1.0 },
            },
        );
        self.recompute_rates();
        Ok(FlowId(id))
    }

    pub fn cancel_flow(&mut self, now: SimTime, id: FlowId) -> Result<(), FlowNetError> {
        self.settle(now);
        if self.flows.remove(&id.0).is_none() {
            return Err(FlowNetError::UnknownFlow(id));
        }
        self.recompute_rates();
        Ok(())
    }

    pub fn set_link_capacity(&mut self, now: SimTime, link: LinkId, capacity: f64) {
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "link capacity must be positive and finite"
        );
        self.settle(now);
        self.links[link.0 as usize].capacity = capacity;
        self.recompute_rates();
    }

    pub fn reroute_flow(
        &mut self,
        now: SimTime,
        id: FlowId,
        new_path: Vec<LinkId>,
    ) -> Result<(), FlowNetError> {
        if new_path.is_empty() {
            return Err(FlowNetError::EmptyPath);
        }
        for &l in &new_path {
            if l.0 as usize >= self.links.len() {
                return Err(FlowNetError::UnknownLink(l));
            }
        }
        self.settle(now);
        let flow = self
            .flows
            .get_mut(&id.0)
            .ok_or(FlowNetError::UnknownFlow(id))?;
        flow.path = new_path;
        self.recompute_rates();
        Ok(())
    }

    pub fn flow_rate(&self, id: FlowId) -> Result<f64, FlowNetError> {
        self.flows
            .get(&id.0)
            .map(|f| f.rate)
            .ok_or(FlowNetError::UnknownFlow(id))
    }

    pub fn flow_remaining(&self, id: FlowId) -> Result<f64, FlowNetError> {
        self.flows
            .get(&id.0)
            .map(|f| f.remaining)
            .ok_or(FlowNetError::UnknownFlow(id))
    }

    pub fn link_utilization(&self, link: LinkId) -> f64 {
        self.flows
            .values()
            .flat_map(|f| f.path.iter().filter(|&&p| p == link).map(|_| f.rate))
            .sum()
    }

    pub fn next_completion(&self) -> Option<SimTime> {
        self.flows
            .values()
            .filter(|f| f.rate > EPS_RATE || f.remaining <= EPS_BYTES)
            .map(|f| {
                if f.remaining <= EPS_BYTES {
                    self.now
                } else {
                    self.now + SimDuration::from_secs_f64(f.remaining / f.rate)
                }
            })
            .min()
    }

    pub fn advance_to(&mut self, now: SimTime) -> Vec<FlowId> {
        self.settle(now);
        let done: Vec<u64> = self
            .flows
            .iter()
            .filter(|(_, f)| f.remaining <= EPS_BYTES)
            .map(|(&id, _)| id)
            .collect();
        if done.is_empty() {
            return Vec::new();
        }
        for id in &done {
            self.flows.remove(id);
        }
        self.recompute_rates();
        done.into_iter().map(FlowId).collect()
    }

    fn settle(&mut self, now: SimTime) {
        if now <= self.now {
            return;
        }
        let dt = (now - self.now).as_secs_f64();
        for flow in self.flows.values_mut() {
            flow.remaining = (flow.remaining - flow.rate * dt).max(0.0);
        }
        self.now = now;
    }

    fn recompute_rates(&mut self) {
        self.version += 1;
        if self.flows.is_empty() {
            return;
        }

        let ids: Vec<u64> = self.flows.keys().copied().collect();
        let n = ids.len();
        let mut rate = vec![0.0f64; n];
        let mut frozen = vec![false; n];

        // Per-link members, rebuilt from scratch on every event.
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); self.links.len()];
        for (idx, id) in ids.iter().enumerate() {
            for &l in &self.flows[id].path {
                members[l.0 as usize].push(idx);
            }
        }

        // Step 1: floors, with proportional scaling on oversubscribed links.
        let mut scale = vec![1.0f64; n];
        for (li, link) in self.links.iter().enumerate() {
            let total_floor: f64 = members[li].iter().map(|&i| self.flows[&ids[i]].floor).sum();
            if total_floor > link.capacity {
                let factor = link.capacity / total_floor;
                for &i in &members[li] {
                    scale[i] = scale[i].min(factor);
                }
            }
        }
        for (i, id) in ids.iter().enumerate() {
            let f = &self.flows[id];
            rate[i] = (f.floor * scale[i]).min(f.effective_cap());
            if f.effective_cap() - rate[i] <= EPS_RATE || f.remaining <= EPS_BYTES {
                frozen[i] = true;
            }
        }

        // Step 2: progressive filling of the idle bandwidth.
        loop {
            if frozen.iter().all(|&f| f) {
                break;
            }
            let mut limiting_inc = f64::INFINITY;
            for (li, link) in self.links.iter().enumerate() {
                let used: f64 = members[li].iter().map(|&i| rate[i]).sum();
                let active_weight: f64 = members[li]
                    .iter()
                    .filter(|&&i| !frozen[i])
                    .map(|&i| self.flows[&ids[i]].weight)
                    .sum();
                if active_weight > 0.0 {
                    let residual = (link.capacity - used).max(0.0);
                    limiting_inc = limiting_inc.min(residual / active_weight);
                }
            }
            for (i, id) in ids.iter().enumerate() {
                if !frozen[i] {
                    let f = &self.flows[id];
                    limiting_inc = limiting_inc.min((f.effective_cap() - rate[i]) / f.weight);
                }
            }
            if !limiting_inc.is_finite() {
                break;
            }
            if limiting_inc > 0.0 {
                for (i, id) in ids.iter().enumerate() {
                    if !frozen[i] {
                        rate[i] += limiting_inc * self.flows[id].weight;
                    }
                }
            }
            let mut any_frozen = false;
            for (li, link) in self.links.iter().enumerate() {
                let used: f64 = members[li].iter().map(|&i| rate[i]).sum();
                if link.capacity - used <= EPS_RATE {
                    for &i in &members[li] {
                        if !frozen[i] {
                            frozen[i] = true;
                            any_frozen = true;
                        }
                    }
                }
            }
            for (i, id) in ids.iter().enumerate() {
                if !frozen[i] && self.flows[id].effective_cap() - rate[i] <= EPS_RATE {
                    frozen[i] = true;
                    any_frozen = true;
                }
            }
            if !any_frozen {
                break;
            }
        }

        for (i, id) in ids.iter().enumerate() {
            if let Some(f) = self.flows.get_mut(id) {
                f.rate = rate[i];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_matches_basic_fair_share() {
        let mut net = ReferenceNet::new();
        let l = net.add_link("l", 10e9);
        let f1 = net
            .start_flow(SimTime::ZERO, vec![l], 1e9, FlowOptions::default())
            .unwrap();
        let f2 = net
            .start_flow(SimTime::ZERO, vec![l], 1e9, FlowOptions::default())
            .unwrap();
        assert!((net.flow_rate(f1).unwrap() - 5e9).abs() < 2.0);
        assert!((net.flow_rate(f2).unwrap() - 5e9).abs() < 2.0);
    }

    #[test]
    fn reference_applies_cap_normalization() {
        let mut net = ReferenceNet::new();
        let l = net.add_link("l", 10e9);
        let f = net
            .start_flow(
                SimTime::ZERO,
                vec![l],
                1e9,
                FlowOptions {
                    cap: 0.0,
                    ..Default::default()
                },
            )
            .unwrap();
        assert!((net.flow_rate(f).unwrap() - 10e9).abs() < 2.0);
        assert!(net.next_completion().is_some());
    }
}
