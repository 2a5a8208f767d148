//! Hierarchical mapping tables (paper §4.2.2).
//!
//! "For scalability, each node maintains a local mapping table, while a
//! centralized scheduler holds a global table. Lookups and updates are first
//! served by the local table, falling back to the global table only on
//! misses." A local hit costs [`grouter_sim::params::LOCAL_TABLE_LOOKUP`];
//! a miss adds a [`grouter_sim::params::GLOBAL_TABLE_LOOKUP`] RPC, after
//! which the entry is cached locally (the §7 invocation-time metadata sync).
//!
//! The global table is a [`RidTable`]: [`DataId`]s come from the store's
//! monotone counter and objects die as their last consumer reads them
//! (§4.4.2), so the table holds one slot per id from the oldest live object
//! to the newest and trims both ends as objects die. Its size follows the
//! live objects, not every object a run has ever put.

use grouter_sim::params;
use grouter_sim::table::RidTable;
use grouter_sim::time::SimDuration;

use crate::id::{DataEntry, DataId};

/// Dense bitset over data ids. [`DataId`]s are allocated by a monotone
/// counter, so id-indexed storage stays compact and every membership test
/// is one shift and mask instead of a tree walk.
#[derive(Debug, Clone, Default)]
struct IdBits(Vec<u64>);

impl IdBits {
    #[inline]
    fn contains(&self, id: u64) -> bool {
        let w = (id / 64) as usize;
        self.0
            .get(w)
            .is_some_and(|bits| bits & (1 << (id % 64)) != 0)
    }

    #[inline]
    fn insert(&mut self, id: u64) {
        let w = (id / 64) as usize;
        if w >= self.0.len() {
            self.0.resize(w + 1, 0);
        }
        self.0[w] |= 1 << (id % 64);
    }

    #[inline]
    fn remove(&mut self, id: u64) {
        let w = (id / 64) as usize;
        if let Some(bits) = self.0.get_mut(w) {
            *bits &= !(1 << (id % 64));
        }
    }

    /// Set bits in ascending order (audit/diagnostics only).
    #[cfg(feature = "audit")]
    fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.0.iter().enumerate().flat_map(|(w, &bits)| {
            (0..64).filter_map(move |b| (bits & (1 << b) != 0).then_some(w as u64 * 64 + b))
        })
    }
}

/// Local per-node caches over one global table.
///
/// The common lookup/update path is a direct slot access in the global
/// window — this sits under every `Get`/`Put` the runtime issues — and the
/// window iterates in ascending id order, the order every location scan
/// (`entries_at`, `bytes_at`, `purge_at`, migration victim lists) relies on.
#[derive(Debug)]
pub struct MappingTables {
    /// `local[node]` = set of data ids whose entry is cached on that node.
    local: Vec<IdBits>,
    /// Every live entry, by id.
    global: RidTable<DataEntry>,
    local_hits: u64,
    global_lookups: u64,
}

impl MappingTables {
    pub fn new(num_nodes: usize) -> MappingTables {
        assert!(num_nodes > 0, "need at least one node");
        MappingTables {
            local: vec![IdBits::default(); num_nodes],
            global: RidTable::new(),
            local_hits: 0,
            global_lookups: 0,
        }
    }

    #[inline]
    fn slot(&self, id: DataId) -> Option<&DataEntry> {
        self.global.get(id.0)
    }

    /// Register a new entry; its metadata is immediately visible on the
    /// producing node and in the global table.
    pub fn insert(&mut self, entry: DataEntry) {
        let node = entry.location.node();
        self.local[node].insert(entry.id.0);
        self.global.insert(entry.id.0, entry);
        #[cfg(feature = "audit")]
        self.audit_tables();
    }

    /// `--features audit`: the hierarchical tables stay coherent — every
    /// locally cached id resolves in the global table (stale pointers are
    /// scrubbed only through `lookup`, never created by `insert`/`remove`),
    /// and every global entry's location names a known node.
    #[cfg(feature = "audit")]
    fn audit_tables(&self) {
        if !grouter_audit::every("store.tables", 16) {
            return;
        }
        grouter_audit::record_hit("store.tables");
        for (node, cache) in self.local.iter().enumerate() {
            for id in cache.iter() {
                grouter_audit::check("store.tables", self.slot(DataId(id)).is_some(), || {
                    format!("node {node} caches DataId({id}), absent from the global table")
                });
            }
        }
        for entry in self.entries() {
            grouter_audit::check(
                "store.tables",
                entry.location.node() < self.local.len(),
                || {
                    format!(
                        "{:?} located on out-of-range node {}",
                        entry.id,
                        entry.location.node()
                    )
                },
            );
        }
    }

    /// Look up `id` from `node`. Returns the entry (if any) and the control-
    /// plane latency of the lookup. A miss on the local table falls back to
    /// the global table and caches the result.
    pub fn lookup(&mut self, node: usize, id: DataId) -> (Option<&DataEntry>, SimDuration) {
        if self.local[node].contains(id.0) {
            self.local_hits += 1;
            // The cached pointer may be stale after removal; verify against
            // the global table (same node-local cost).
            if self.slot(id).is_some() {
                return (self.slot(id), params::LOCAL_TABLE_LOOKUP);
            }
            self.local[node].remove(id.0);
            return (None, params::LOCAL_TABLE_LOOKUP);
        }
        self.global_lookups += 1;
        let latency = params::LOCAL_TABLE_LOOKUP + params::GLOBAL_TABLE_LOOKUP;
        if self.slot(id).is_some() {
            self.local[node].insert(id.0);
            (self.slot(id), latency)
        } else {
            (None, latency)
        }
    }

    /// Mutable access to an entry (location updates, access stamps). Does not
    /// model latency: callers pair it with a prior `lookup`.
    pub fn get_mut(&mut self, id: DataId) -> Option<&mut DataEntry> {
        self.global.get_mut(id.0)
    }

    /// Read-only access without latency accounting (diagnostics, policies).
    pub fn peek(&self, id: DataId) -> Option<&DataEntry> {
        self.slot(id)
    }

    /// Remove an entry everywhere.
    pub fn remove(&mut self, id: DataId) -> Option<DataEntry> {
        for cache in &mut self.local {
            cache.remove(id.0);
        }
        let removed = self.global.remove(id.0);
        #[cfg(feature = "audit")]
        self.audit_tables();
        removed
    }

    /// All live entries (deterministic id order).
    pub fn entries(&self) -> impl Iterator<Item = &DataEntry> {
        self.global.values()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.global.len()
    }

    pub fn is_empty(&self) -> bool {
        self.global.is_empty()
    }

    /// (local hits, global lookups) — for the CPU-overhead report (Fig. 20b).
    pub fn lookup_stats(&self) -> (u64, u64) {
        (self.local_hits, self.global_lookups)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::{FunctionId, Location, WorkflowId};
    use grouter_sim::time::SimTime;
    use grouter_topology::GpuRef;

    fn entry(id: u64, node: usize) -> DataEntry {
        DataEntry {
            id: DataId(id),
            bytes: 1e6,
            location: Location::Gpu(GpuRef::new(node, 0)),
            workflow: WorkflowId(1),
            producer: FunctionId(1),
            created: SimTime::ZERO,
            last_access: SimTime::ZERO,
            pending_consumers: 1,
            next_use: None,
        }
    }

    #[test]
    fn local_hit_is_cheap() {
        let mut t = MappingTables::new(2);
        t.insert(entry(1, 0));
        let (found, lat) = t.lookup(0, DataId(1));
        assert!(found.is_some());
        assert_eq!(lat, params::LOCAL_TABLE_LOOKUP);
        assert_eq!(t.lookup_stats(), (1, 0));
    }

    #[test]
    fn remote_lookup_pays_global_rpc_then_caches() {
        let mut t = MappingTables::new(2);
        t.insert(entry(1, 0));
        let (found, lat) = t.lookup(1, DataId(1));
        assert!(found.is_some());
        assert_eq!(
            lat,
            params::LOCAL_TABLE_LOOKUP + params::GLOBAL_TABLE_LOOKUP
        );
        // Second lookup from node 1 hits the cache.
        let (_, lat2) = t.lookup(1, DataId(1));
        assert_eq!(lat2, params::LOCAL_TABLE_LOOKUP);
        assert_eq!(t.lookup_stats(), (1, 1));
    }

    #[test]
    fn missing_id_still_costs_a_global_lookup() {
        let mut t = MappingTables::new(1);
        let (found, lat) = t.lookup(0, DataId(42));
        assert!(found.is_none());
        assert_eq!(
            lat,
            params::LOCAL_TABLE_LOOKUP + params::GLOBAL_TABLE_LOOKUP
        );
    }

    #[test]
    fn removal_invalidates_caches() {
        let mut t = MappingTables::new(2);
        t.insert(entry(1, 0));
        t.lookup(1, DataId(1)); // cache on node 1
        t.remove(DataId(1));
        let (found, _) = t.lookup(1, DataId(1));
        assert!(found.is_none());
        assert!(t.is_empty());
    }

    #[test]
    fn stale_local_pointer_degrades_gracefully() {
        let mut t = MappingTables::new(1);
        t.insert(entry(1, 0));
        // Simulate a stale cache: remove globally but re-add the pointer.
        t.remove(DataId(1));
        t.local[0].insert(1);
        let (found, lat) = t.lookup(0, DataId(1));
        assert!(found.is_none());
        assert_eq!(lat, params::LOCAL_TABLE_LOOKUP);
        // Stale pointer was scrubbed.
        assert!(!t.local[0].contains(1));
    }

    #[test]
    fn the_global_table_is_sized_by_live_objects() {
        // 100,000 objects put in batches of 16 and consumed out of order
        // within each batch: at most 16 are ever alive at once.
        let mut t = MappingTables::new(2);
        for batch in 0..100_000u64 / 16 {
            let base = batch * 16;
            for id in base..base + 16 {
                t.insert(entry(id, (id % 2) as usize));
            }
            for k in 0..16 {
                t.remove(DataId(base + k * 5 % 16));
                assert!(t.global.span() <= 16, "{} slots", t.global.span());
            }
        }
        assert!(t.is_empty());
        for id in 100_000..100_016 {
            t.insert(entry(id, 0));
        }
        assert_eq!(t.len(), 16);
        assert!(t.global.span() <= 16, "{} slots", t.global.span());
    }

    #[test]
    fn entries_iterate_in_id_order() {
        let mut t = MappingTables::new(1);
        t.insert(entry(3, 0));
        t.insert(entry(1, 0));
        t.insert(entry(2, 0));
        let ids: Vec<u64> = t.entries().map(|e| e.id.0).collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }
}
