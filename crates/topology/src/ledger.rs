//! Reservation ledger with **direct-path priority rebalancing** (§4.3.3).
//!
//! Algorithm 1 alone picks paths for one transfer in isolation. The full
//! scheduler also enforces the paper's priority rule: *"GROUTER prioritizes
//! direct NVLink paths between GPUs. If these paths are already occupied by
//! other functions (as part of indirect routes), GROUTER reassigns those
//! functions to alternative routes."*
//!
//! [`PathLedger`] owns the node's bandwidth matrix plus the set of live
//! reservations, so it can *move* an existing reservation's indirect path
//! off a direct edge when a new transfer between that edge's endpoints
//! arrives. Each move is reported as a [`Rebalance`] so the executor can
//! re-path the in-flight flow ([`grouter_sim::FlowNet::reroute_flow`]).

use std::collections::BTreeMap;

use crate::bwmatrix::BwMatrix;
use crate::cache::{CacheStats, PathSelector};
use crate::graph::Topology;
use crate::paths::{check_endpoints, NvPath, PathSelection};

/// Identifies one live reservation in a [`PathLedger`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ResId(pub u64);

/// An existing reservation's path moved to make room for a direct path.
#[derive(Clone, Debug, PartialEq)]
pub struct Rebalance {
    pub reservation: ResId,
    /// The GPU route vacated.
    pub old: Vec<usize>,
    /// The replacement route (same endpoints, same reserved rate).
    pub new: Vec<usize>,
    /// The reserved rate that moved with the path.
    pub rate: f64,
}

/// Bandwidth matrix + live reservations for one node.
///
/// # Examples
///
/// ```
/// use grouter_sim::FlowNet;
/// use grouter_topology::{presets, PathLedger, Topology};
///
/// let mut net = FlowNet::new();
/// let topo = Topology::build(presets::dgx_v100(), 1, &mut net);
/// let mut ledger = PathLedger::from_topology(&topo);
///
/// // Weak pair (0,1): Algorithm 1 aggregates parallel NVLink paths.
/// let (id, selection, _rebalances) = ledger.reserve(0, 1, 3, 4);
/// assert!(selection.paths.len() >= 2);
/// assert!(selection.total_rate() >= 48e9);
/// ledger.release(id);
/// assert!(ledger.bwm().is_idle(0, 1));
/// ```
#[derive(Clone, Debug)]
pub struct PathLedger {
    selector: PathSelector,
    reservations: BTreeMap<u64, Vec<NvPath>>,
    next: u64,
}

impl PathLedger {
    pub fn from_topology(topo: &Topology) -> PathLedger {
        PathLedger {
            selector: PathSelector::from_topology(topo),
            reservations: BTreeMap::new(),
            next: 0,
        }
    }

    /// Read access to the underlying matrix.
    pub fn bwm(&self) -> &BwMatrix {
        self.selector.bwm()
    }

    /// Raw matrix access for callers that manage reservations themselves
    /// (the planner-level API used by tests and non-ledger planes). Paths
    /// occupied this way are invisible to rebalancing. Capacity changes made
    /// here still invalidate the path cache via the topology epoch.
    pub fn bwm_mut(&mut self) -> &mut BwMatrix {
        self.selector.bwm_mut()
    }

    /// The cached selector serving this ledger's Algorithm 1 calls.
    pub fn selector(&self) -> &PathSelector {
        &self.selector
    }

    /// Attach an observability recorder to the underlying selector (see
    /// [`PathSelector::set_recorder`]).
    pub fn set_recorder(&mut self, rec: grouter_obs::Recorder) {
        self.selector.set_recorder(rec);
    }

    /// Path-cache statistics (hits / misses / epoch invalidations).
    pub fn cache_stats(&self) -> CacheStats {
        self.selector.cache().stats()
    }

    /// Pre-enumerate every GPU pair at `max_hops` so the first transfer of
    /// each pair is already a cache hit (done once at world build; clones of
    /// this ledger share the warm cache).
    pub fn warm(&mut self, max_hops: usize) {
        self.selector.warm(max_hops);
    }

    /// Degrade the directed NVLink `a → b` to `new_cap` bytes/s. Live
    /// reservations keep their booked rates (the matrix clamps); cached
    /// path sets are invalidated through the topology epoch.
    pub fn degrade_link(&mut self, a: usize, b: usize, new_cap: f64) {
        self.selector.degrade_link(a, b, new_cap);
    }

    /// Restore the directed NVLink `a → b` to its hardware baseline
    /// capacity (see [`BwMatrix::restore_link`]). Cached path sets are
    /// invalidated through the topology epoch.
    pub fn restore_link(&mut self, a: usize, b: usize) {
        self.selector.restore_link(a, b);
    }

    /// Mask a failed GPU out of this node's matrix: every edge touching it
    /// drops to zero capacity and cached path sets are invalidated. Live
    /// reservations crossing the GPU keep their ids (release stays
    /// idempotent) but their bandwidth is forfeited.
    pub fn mask_node(&mut self, g: usize) {
        self.selector.mask_node(g);
    }

    /// Readmit a recovered GPU (see [`BwMatrix::unmask_node`]).
    pub fn unmask_node(&mut self, g: usize) {
        self.selector.unmask_node(g);
    }

    /// Number of live reservations.
    pub fn active(&self) -> usize {
        self.reservations.len()
    }

    /// Reserve parallel paths `src → dst`, first evicting *indirect* users
    /// of the direct edge onto alternative routes when possible. Returns
    /// the reservation id, the selection (rates already reserved), and the
    /// rebalances the caller must apply to in-flight traffic.
    pub fn reserve(
        &mut self,
        src: usize,
        dst: usize,
        max_hops: usize,
        max_paths: usize,
    ) -> (ResId, PathSelection, Vec<Rebalance>) {
        let rebalances = self.rebalance_direct(src, dst, max_hops);
        self.selector.select(src, dst, max_hops, max_paths);
        // Move the scratch into the reservation store (no per-path copy);
        // the caller's view is the one clone. Buffers come back through
        // `release` → `recycle`.
        let paths = self.selector.take_last_selection();
        let sel = PathSelection {
            paths: paths.clone(),
        };
        let id = self.next;
        self.next += 1;
        self.reservations.insert(id, paths);
        (ResId(id), sel, rebalances)
    }

    /// Release a reservation, restoring its bandwidth. Returns `false` for
    /// unknown/already-released ids (idempotent).
    pub fn release(&mut self, id: ResId) -> bool {
        match self.reservations.remove(&id.0) {
            Some(paths) => {
                for p in &paths {
                    self.selector.bwm_mut().release_path(&p.gpus, p.rate);
                }
                self.selector.recycle(paths);
                true
            }
            None => false,
        }
    }

    /// Free the direct edge `src → dst` of reservations that cross it as
    /// part of an *indirect* route (different endpoints), re-routing each
    /// onto an alternative path that can carry its reserved rate.
    fn rebalance_direct(&mut self, src: usize, dst: usize, max_hops: usize) -> Vec<Rebalance> {
        // Degenerate endpoints cannot name a direct edge; selection will
        // degrade to an empty set, so there is nothing to make room for.
        if check_endpoints(self.bwm().len(), src, dst).is_err() {
            return Vec::new();
        }
        if self.bwm().capacity(src, dst) <= 0.0 || self.bwm().is_idle(src, dst) {
            return Vec::new();
        }
        // Collect indirect users of the edge (deterministic order).
        let mut candidates: Vec<(u64, usize)> = Vec::new();
        for (&rid, paths) in &self.reservations {
            for (pi, p) in paths.iter().enumerate() {
                let (Some(&first), Some(&last)) = (p.gpus.first(), p.gpus.last()) else {
                    continue; // reserve() never records an empty route
                };
                let endpoints = (first, last);
                let uses_edge = p.gpus.windows(2).any(|h| h[0] == src && h[1] == dst);
                if uses_edge && endpoints != (src, dst) {
                    candidates.push((rid, pi));
                }
            }
        }
        let mut out = Vec::new();
        for (rid, pi) in candidates {
            if self.bwm().is_idle(src, dst) {
                break;
            }
            let old = self.reservations[&rid][pi].clone();
            let (Some(&s), Some(&d)) = (old.gpus.first(), old.gpus.last()) else {
                continue; // empty routes were filtered out above
            };
            // Temporarily release the old path, then look for an
            // alternative with enough residual that avoids the edge. The
            // candidate set comes from the path cache — no DFS here.
            self.selector.bwm_mut().release_path(&old.gpus, old.rate);
            let alternative = self
                .selector
                .find_alternative(s, d, max_hops, (src, dst), old.rate);
            match alternative {
                Some(new_route) => {
                    self.selector.bwm_mut().occupy_path(&new_route, old.rate);
                    // `rid` was enumerated from the live reservation map and
                    // nothing in this loop removes entries, so the lookup
                    // cannot miss; tolerate it anyway rather than crash.
                    if let Some(paths) = self.reservations.get_mut(&rid) {
                        paths[pi] = NvPath {
                            gpus: new_route.clone(),
                            rate: old.rate,
                        };
                        out.push(Rebalance {
                            reservation: ResId(rid),
                            old: old.gpus,
                            new: new_route,
                            rate: old.rate,
                        });
                    }
                }
                None => {
                    // No viable alternative: put the old path back.
                    self.selector.bwm_mut().occupy_path(&old.gpus, old.rate);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use grouter_sim::{params, FlowNet};

    fn ledger() -> PathLedger {
        let mut net = FlowNet::new();
        let topo = Topology::build(presets::dgx_v100(), 1, &mut net);
        PathLedger::from_topology(&topo)
    }

    #[test]
    fn reserve_and_release_roundtrip() {
        let mut l = ledger();
        let (id, sel, reb) = l.reserve(0, 1, 3, 4);
        assert!(!sel.is_empty());
        assert!(reb.is_empty(), "nothing to rebalance on an idle node");
        assert_eq!(l.active(), 1);
        assert!(l.release(id));
        assert_eq!(l.active(), 0);
        assert!(l.bwm().is_idle(0, 1));
        // Idempotent.
        assert!(!l.release(id));
    }

    #[test]
    fn direct_path_evicts_indirect_user() {
        let mut l = ledger();
        // Transfer A: 0 → 1 over three paths. Its parallel selection uses
        // indirect routes that cross other direct edges (e.g. 0→3 then
        // 3→1), while leaving the 0→4 links free as rebalance headroom.
        let (a, sel_a, _) = l.reserve(0, 1, 3, 3);
        let crosses_03 = sel_a
            .paths
            .iter()
            .any(|p| p.gpus.windows(2).any(|h| h[0] == 0 && h[1] == 3));
        assert!(
            crosses_03,
            "expected an indirect path over edge (0,3): {sel_a:?}"
        );
        assert!(!l.bwm().is_idle(0, 3));

        // Transfer B arrives for exactly that pair: the indirect user must
        // be reassigned so B can claim the full direct edge.
        let (b, sel_b, rebalances) = l.reserve(0, 3, 3, 1);
        assert!(
            !rebalances.is_empty(),
            "expected a rebalance to free the direct edge"
        );
        for rb in &rebalances {
            assert_eq!(rb.reservation, a);
            assert_eq!(rb.old[0], 0);
            assert_eq!(*rb.old.last().unwrap(), 1);
            assert_eq!(rb.new[0], 0, "endpoints preserved");
            assert_eq!(*rb.new.last().unwrap(), 1);
            assert!(!rb.new.windows(2).any(|h| h[0] == 0 && h[1] == 3));
        }
        // B got the full direct bandwidth.
        assert_eq!(sel_b.paths[0].gpus, vec![0, 3]);
        assert!(
            (sel_b.paths[0].rate - params::NVLINK_V100_DOUBLE).abs() < 1.0,
            "direct rate {}",
            sel_b.paths[0].rate
        );
        // Releasing everything restores a fully idle matrix.
        l.release(a);
        l.release(b);
        for x in 0..8 {
            for y in 0..8 {
                if l.bwm().capacity(x, y) > 0.0 {
                    assert!(l.bwm().is_idle(x, y), "({x},{y}) leaked");
                }
            }
        }
    }

    #[test]
    fn no_rebalance_when_direct_user_owns_the_edge() {
        let mut l = ledger();
        // A reserves the direct edge 0→3 itself (endpoints match).
        let (_a, _, _) = l.reserve(0, 3, 1, 1);
        // B wants the same pair: the occupant is a *direct* user, so no
        // reassignment happens; B shares what's left (phase 2).
        let (_b, _sel, rebalances) = l.reserve(0, 3, 1, 1);
        assert!(rebalances.is_empty());
    }

    #[test]
    fn rebalance_skipped_when_no_alternative_fits() {
        let mut l = ledger();
        // Saturate everything around GPU 0 with reservations.
        let mut ids = Vec::new();
        for dst in [1usize, 2, 3, 4] {
            let (id, _, _) = l.reserve(0, dst, 3, 8);
            ids.push(id);
        }
        // Now GPU 0's outgoing bandwidth is exhausted; a new reservation on
        // (0,3) cannot evict anyone into thin air — the ledger must not
        // corrupt the matrix trying.
        let before_out = l.bwm().out_bw(0);
        let (_c, _, _) = l.reserve(0, 3, 3, 2);
        assert!(l.bwm().out_bw(0) <= before_out + 1.0);
        for (x, y) in [(0, 1), (0, 2), (0, 3), (0, 4)] {
            assert!(l.bwm().residual(x, y) >= 0.0, "({x},{y}) negative");
        }
    }

    #[test]
    fn degenerate_endpoints_yield_empty_selection() {
        let mut l = ledger();
        // Self-loop and out-of-range endpoints degrade to an empty
        // selection (host-path fallback) instead of aborting the run.
        let (id, sel, reb) = l.reserve(5, 5, 3, 4);
        assert!(sel.is_empty());
        assert!(reb.is_empty());
        l.release(id);
        let (_, sel, _) = l.reserve(0, 99, 3, 4);
        assert!(sel.is_empty());
        let (_, sel, _) = l.reserve(99, 0, 3, 4);
        assert!(sel.is_empty());
    }

    #[test]
    fn degrade_roundtrip_returns_links_to_baseline() {
        let mut l = ledger();
        let (id, sel, _) = l.reserve(0, 1, 3, 4);
        assert!(!sel.is_empty());
        let epoch0 = l.bwm().epoch();
        // Degrade a link several live paths cross, mid-reservation.
        l.degrade_link(0, 3, 10e9);
        assert_eq!(l.bwm().epoch(), epoch0 + 1, "one bump per degradation");
        assert_eq!(l.bwm().capacity(0, 3), 10e9);
        // Releasing returns every link exactly to its (possibly degraded)
        // baseline — no residual leak in either direction.
        l.release(id);
        for x in 0..8 {
            for y in 0..8 {
                let cap = l.bwm().capacity(x, y);
                if cap > 0.0 {
                    assert!(
                        (l.bwm().residual(x, y) - cap).abs() < 1e-6,
                        "({x},{y}) residual {} != cap {cap}",
                        l.bwm().residual(x, y)
                    );
                }
            }
        }
    }

    #[test]
    fn cache_hits_accumulate_and_epoch_invalidates() {
        let mut l = ledger();
        l.warm(3);
        let warm_misses = l.cache_stats().misses;
        let (a, _, _) = l.reserve(0, 1, 3, 4);
        assert_eq!(
            l.cache_stats().misses,
            warm_misses,
            "warm cache: reserve must not re-enumerate"
        );
        assert!(l.cache_stats().hits > 0);
        l.release(a);
        // A degradation event invalidates the cache exactly once; the next
        // lookup re-enumerates under the new capacities.
        l.degrade_link(0, 3, 1e9);
        let inv0 = l.cache_stats().invalidations;
        let (_b, _, _) = l.reserve(0, 1, 3, 4);
        assert_eq!(l.cache_stats().invalidations, inv0 + 1);
        assert!(l.cache_stats().misses > warm_misses);
    }

    #[test]
    fn reservations_are_deterministic() {
        let run = || {
            let mut l = ledger();
            let (_, s1, _) = l.reserve(0, 1, 3, 4);
            let (_, s2, r2) = l.reserve(0, 3, 3, 2);
            (s1.paths, s2.paths, r2)
        };
        let a = run();
        let b = run();
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
        assert_eq!(a.2, b.2);
    }
}
