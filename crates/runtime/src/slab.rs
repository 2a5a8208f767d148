//! The executor's route index for in-flight NVLink flows.
//!
//! A ledger rebalance (§4.3.3) names a GPU route, and the executor must
//! find the live flow on it to re-path. [`NvFlowIndex`] keeps each live
//! NVLink flow's `(node, route)` beside a reverse index keyed by a route
//! fingerprint, so that lookup is one hash away instead of a scan over
//! every live flow. (Instances and data operations live in
//! [`grouter_sim::table::RidTable`]s on the `World`.)

use grouter_sim::fxhash::fx_hash_one;
use grouter_sim::{FlowId, FxHashMap};

/// Live NVLink flows and their current `(node, GPU route)`, with a reverse
/// index so a ledger rebalance finds the in-flight flow for a route in O(1)
/// instead of scanning every live flow.
#[derive(Debug, Default)]
pub struct NvFlowIndex {
    forward: FxHashMap<FlowId, (usize, Vec<usize>)>,
    /// `(node, route fingerprint)` → flows currently on that route. The
    /// fingerprint is a hash; `find` verifies against `forward` so a
    /// collision can never return the wrong flow.
    reverse: FxHashMap<(usize, u64), Vec<FlowId>>,
}

impl NvFlowIndex {
    /// Register (or re-path) a live flow.
    pub fn insert(&mut self, fid: FlowId, node: usize, route: Vec<usize>) {
        if self.forward.contains_key(&fid) {
            self.unlink(fid);
        }
        let key = (node, fx_hash_one(&route));
        self.reverse.entry(key).or_default().push(fid);
        self.forward.insert(fid, (node, route));
    }

    pub fn remove(&mut self, fid: &FlowId) {
        if self.forward.contains_key(fid) {
            self.unlink(*fid);
            self.forward.remove(fid);
        }
    }

    /// The lowest-id live flow currently on `(node, route)`, if any.
    pub fn find(&self, node: usize, route: &[usize]) -> Option<FlowId> {
        let key = (node, fx_hash_one(&route));
        self.reverse
            .get(&key)?
            .iter()
            .filter(|fid| {
                // Verify against the forward map: fingerprints may collide.
                self.forward
                    .get(fid)
                    .is_some_and(|(n, r)| *n == node && r == route)
            })
            .min()
            .copied()
    }

    pub fn is_empty(&self) -> bool {
        self.forward.is_empty()
    }

    pub fn len(&self) -> usize {
        self.forward.len()
    }

    /// Drop `fid` from the reverse index (forward entry untouched).
    fn unlink(&mut self, fid: FlowId) {
        let Some((node, route)) = self.forward.get(&fid) else {
            return;
        };
        let key = (*node, fx_hash_one(route));
        if let Some(v) = self.reverse.get_mut(&key) {
            v.retain(|f| *f != fid);
            if v.is_empty() {
                self.reverse.remove(&key);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nv_flow_index_finds_by_route() {
        let mut ix = NvFlowIndex::default();
        ix.insert(FlowId(7), 0, vec![1, 2, 3]);
        ix.insert(FlowId(9), 0, vec![1, 2, 3]); // same route, higher id
        ix.insert(FlowId(8), 1, vec![1, 2, 3]); // same route, other node
        assert_eq!(ix.find(0, &[1, 2, 3]), Some(FlowId(7)));
        assert_eq!(ix.find(1, &[1, 2, 3]), Some(FlowId(8)));
        assert_eq!(ix.find(0, &[3, 2, 1]), None);
        ix.remove(&FlowId(7));
        assert_eq!(ix.find(0, &[1, 2, 3]), Some(FlowId(9)));
        ix.remove(&FlowId(9));
        assert_eq!(ix.find(0, &[1, 2, 3]), None);
    }

    #[test]
    fn nv_flow_index_reroute_replaces_reverse_entry() {
        let mut ix = NvFlowIndex::default();
        ix.insert(FlowId(1), 0, vec![0, 1]);
        // Re-path the same flow: the old route must stop matching.
        ix.insert(FlowId(1), 0, vec![0, 2, 1]);
        assert_eq!(ix.find(0, &[0, 1]), None);
        assert_eq!(ix.find(0, &[0, 2, 1]), Some(FlowId(1)));
        assert_eq!(ix.len(), 1);
        ix.remove(&FlowId(1));
        assert!(ix.is_empty());
    }
}
