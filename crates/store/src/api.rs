//! The `Put`/`Get` metadata service.
//!
//! [`DataStore`] owns the mapping tables and enforces access control. Every
//! operation returns the control-plane latency it cost so the runtime can
//! charge it on the critical path. The store is policy-free: callers decide
//! *where* a `Put` lands — GROUTER picks the producer's GPU (locality),
//! NVSHMEM+ picks a random GPU, INFless+ picks host memory.
//!
//! The tables list each location's live ids in ascending order
//! ([`crate::table`]), so the per-location reads a memory-pressure or
//! failure path makes ([`DataStore::resident_at`], `entries_at`,
//! `bytes_at`, `purge_at`) cost the objects at that location, not the
//! store's whole id window.

use grouter_sim::time::{SimDuration, SimTime};

use crate::id::{AccessToken, DataEntry, DataId, Location, WorkflowId};
use crate::table::MappingTables;

/// Store operation failures.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StoreError {
    /// No such object (expired, consumed, or never existed).
    UnknownData(DataId),
    /// The token's workflow does not own the object (§7 access control).
    AccessDenied {
        data: DataId,
        expected: WorkflowId,
        presented: WorkflowId,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::UnknownData(id) => write!(f, "unknown data {id:?}"),
            StoreError::AccessDenied {
                data,
                expected,
                presented,
            } => write!(
                f,
                "access denied for {data:?}: owned by {expected:?}, presented {presented:?}"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

/// The metadata half of the unified data-passing framework.
#[derive(Debug)]
pub struct DataStore {
    tables: MappingTables,
    next_id: u64,
    /// Observability handle ([`DataStore::set_recorder`]); Put/Get/migrate
    /// instants are emitted when `Comp::Store` is enabled.
    rec: grouter_obs::Recorder,
}

impl DataStore {
    pub fn new(num_nodes: usize) -> DataStore {
        DataStore {
            tables: MappingTables::new(num_nodes),
            next_id: 0,
            rec: grouter_obs::Recorder::disabled(),
        }
    }

    /// Attach an observability recorder.
    pub fn set_recorder(&mut self, rec: grouter_obs::Recorder) {
        self.rec = rec;
    }

    fn emit_store_event(&self, name: &'static str, id: DataId, bytes: f64, location: Location) {
        self.rec.instant(
            grouter_obs::Comp::Store,
            name,
            grouter_obs::Ids::NONE,
            vec![
                ("data", id.0.into()),
                ("bytes", bytes.into()),
                ("loc", format!("{location:?}").into()),
            ],
        );
    }

    /// Register an object produced by `token.function` at `location`.
    /// Returns the new globally unique id and the control-plane latency.
    ///
    /// `pending_consumers` is the number of downstream functions that will
    /// `Get` the object (known from the workflow DAG at invocation time).
    pub fn put(
        &mut self,
        now: SimTime,
        token: AccessToken,
        location: Location,
        bytes: f64,
        pending_consumers: u32,
    ) -> (DataId, SimDuration) {
        let id = DataId(self.next_id);
        self.next_id += 1;
        self.tables.insert(DataEntry {
            id,
            bytes,
            location,
            workflow: token.workflow,
            producer: token.function,
            created: now,
            last_access: now,
            pending_consumers,
            next_use: None,
        });
        if self.rec.on(grouter_obs::Comp::Store) {
            self.emit_store_event("put", id, bytes, location);
            self.rec.count(grouter_obs::Comp::Store, "puts", 1);
        }
        (id, grouter_sim::params::LOCAL_TABLE_LOOKUP)
    }

    /// Authenticate and resolve an object for a `Get` issued from `node`.
    /// On success returns a copy of the entry and the lookup latency; the
    /// access stamp is refreshed.
    pub fn resolve(
        &mut self,
        now: SimTime,
        node: usize,
        token: AccessToken,
        id: DataId,
    ) -> Result<(DataEntry, SimDuration), StoreError> {
        let (entry, latency) = self.tables.lookup(node, id);
        let Some(entry) = entry else {
            return Err(StoreError::UnknownData(id));
        };
        if entry.workflow != token.workflow {
            return Err(StoreError::AccessDenied {
                data: id,
                expected: entry.workflow,
                presented: token.workflow,
            });
        }
        let snapshot = entry.clone();
        if let Some(entry) = self.tables.get_mut(id) {
            entry.last_access = now;
        }
        if self.rec.on(grouter_obs::Comp::Store) {
            self.emit_store_event("get", id, snapshot.bytes, snapshot.location);
            self.rec.count(grouter_obs::Comp::Store, "gets", 1);
        }
        Ok((snapshot, latency))
    }

    /// Record that one consumer finished reading `id`. When the last
    /// consumer finishes the object is removed (prompt garbage collection,
    /// §4.4.2) and `true` is returned.
    pub fn consumed(&mut self, id: DataId) -> bool {
        let Some(entry) = self.tables.get_mut(id) else {
            return false;
        };
        entry.pending_consumers = entry.pending_consumers.saturating_sub(1);
        if entry.pending_consumers == 0 {
            self.tables.remove(id);
            true
        } else {
            false
        }
    }

    /// Add `n` future consumers to a live object. Recovery uses this when a
    /// stage that already consumed an input is reset: the retry will read the
    /// input again, so the earlier decrement must be compensated or the store
    /// garbage-collects the object one consume too early.
    pub fn add_pending(&mut self, id: DataId, n: u32) {
        if let Some(entry) = self.tables.get_mut(id) {
            entry.pending_consumers += n;
        }
    }

    /// Grow a live object in place by `delta` bytes (append-mostly KV-cache
    /// blocks, §6.4: decode extends the context one block group at a time
    /// while the object stays addressable). The caller owns the matching
    /// pool accounting at the object's current residency. Returns the new
    /// total size and the table-update latency.
    pub fn grow(
        &mut self,
        now: SimTime,
        id: DataId,
        delta: f64,
    ) -> Result<(f64, SimDuration), StoreError> {
        match self.tables.get_mut(id) {
            Some(entry) => {
                entry.bytes += delta.max(0.0);
                entry.last_access = now;
                let (bytes, location) = (entry.bytes, entry.location);
                if self.rec.on(grouter_obs::Comp::Store) {
                    self.emit_store_event("grow", id, bytes, location);
                    self.rec.count(grouter_obs::Comp::Store, "grows", 1);
                }
                Ok((bytes, grouter_sim::params::LOCAL_TABLE_LOOKUP))
            }
            None => Err(StoreError::UnknownData(id)),
        }
    }

    /// Update an object's location after migration/restoration.
    pub fn relocate(&mut self, id: DataId, location: Location) -> Result<(), StoreError> {
        match self.tables.rehome(id, location) {
            Some(entry) => {
                let bytes = entry.bytes;
                if self.rec.on(grouter_obs::Comp::Store) {
                    self.emit_store_event("migrate", id, bytes, location);
                    self.rec.count(grouter_obs::Comp::Store, "migrations", 1);
                }
                Ok(())
            }
            None => Err(StoreError::UnknownData(id)),
        }
    }

    /// Update the queue rank of the earliest pending consumer (queue-aware
    /// migration input).
    pub fn set_next_use(&mut self, id: DataId, rank: Option<u64>) {
        if let Some(entry) = self.tables.get_mut(id) {
            entry.next_use = rank;
        }
    }

    /// Forcibly remove `id` regardless of pending consumers (data destroyed
    /// by a GPU failure or an aborted transfer). Returns the entry so the
    /// caller can unwind pool/scaler accounting. Idempotent.
    pub fn purge(&mut self, id: DataId) -> Option<DataEntry> {
        let entry = self.tables.peek(id).cloned()?;
        self.tables.remove(id);
        Some(entry)
    }

    /// Forcibly remove every object resident at `location` (the data loss of
    /// a whole-GPU failure). Returns the purged entries in deterministic
    /// order; lineage recovery re-executes their producers as needed.
    pub fn purge_at(&mut self, location: Location) -> Vec<DataEntry> {
        self.tables.remove_all_at(location)
    }

    /// Objects currently resident on `location`, borrowed, in ascending id
    /// order: what a caller that only reads them (a victim scan) walks
    /// instead of cloning [`DataStore::entries_at`]. It walks that
    /// location's list of live ids, not the whole store.
    pub fn resident_at(&self, location: Location) -> impl Iterator<Item = &DataEntry> {
        self.tables.residents(location)
    }

    /// Copies of the objects currently resident on `location`, in ascending
    /// id order.
    pub fn entries_at(&self, location: Location) -> Vec<DataEntry> {
        self.resident_at(location).cloned().collect()
    }

    /// Total bytes resident at `location`.
    pub fn bytes_at(&self, location: Location) -> f64 {
        self.resident_at(location).map(|e| e.bytes).sum()
    }

    /// Read an entry without authentication or latency (policies, tests).
    pub fn peek(&self, id: DataId) -> Option<&DataEntry> {
        self.tables.peek(id)
    }

    /// Live object count.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// (local hits, global lookups) forwarded from the tables.
    pub fn lookup_stats(&self) -> (u64, u64) {
        self.tables.lookup_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::FunctionId;
    use grouter_topology::GpuRef;

    fn token(func: u64, wf: u64) -> AccessToken {
        AccessToken {
            function: FunctionId(func),
            workflow: WorkflowId(wf),
        }
    }

    fn gpu(node: usize, g: usize) -> Location {
        Location::Gpu(GpuRef::new(node, g))
    }

    #[test]
    fn put_then_resolve_roundtrip() {
        let mut store = DataStore::new(2);
        let (id, _) = store.put(SimTime::ZERO, token(1, 10), gpu(0, 3), 5e6, 1);
        let (entry, _) = store.resolve(SimTime(100), 0, token(2, 10), id).unwrap();
        assert_eq!(entry.bytes, 5e6);
        assert_eq!(entry.location, gpu(0, 3));
        // Access stamp refreshed.
        assert_eq!(store.peek(id).unwrap().last_access, SimTime(100));
    }

    #[test]
    fn ids_are_unique_and_monotone() {
        let mut store = DataStore::new(1);
        let (a, _) = store.put(SimTime::ZERO, token(1, 1), gpu(0, 0), 1.0, 1);
        let (b, _) = store.put(SimTime::ZERO, token(1, 1), gpu(0, 0), 1.0, 1);
        assert!(b.0 > a.0);
    }

    #[test]
    fn cross_workflow_access_is_denied() {
        let mut store = DataStore::new(1);
        let (id, _) = store.put(SimTime::ZERO, token(1, 10), gpu(0, 0), 1e6, 1);
        let err = store
            .resolve(SimTime::ZERO, 0, token(5, 99), id)
            .unwrap_err();
        assert!(matches!(err, StoreError::AccessDenied { .. }));
    }

    #[test]
    fn unknown_data_reported() {
        let mut store = DataStore::new(1);
        let err = store
            .resolve(SimTime::ZERO, 0, token(1, 1), DataId(7))
            .unwrap_err();
        assert_eq!(err, StoreError::UnknownData(DataId(7)));
    }

    #[test]
    fn last_consumer_triggers_garbage_collection() {
        let mut store = DataStore::new(1);
        let (id, _) = store.put(SimTime::ZERO, token(1, 1), gpu(0, 0), 1e6, 2);
        assert!(!store.consumed(id), "one consumer left");
        assert!(store.consumed(id), "last consumer frees the object");
        assert!(store.is_empty());
        assert!(!store.consumed(id), "idempotent on missing objects");
    }

    #[test]
    fn grow_extends_a_live_object_in_place() {
        let mut store = DataStore::new(1);
        let (id, _) = store.put(SimTime::ZERO, token(1, 1), gpu(0, 0), 4e6, 1);
        let (total, _) = store.grow(SimTime(50), id, 1e6).unwrap();
        assert_eq!(total, 5e6);
        let entry = store.peek(id).unwrap();
        assert_eq!(entry.bytes, 5e6);
        assert_eq!(entry.location, gpu(0, 0), "grow never moves the object");
        assert_eq!(entry.last_access, SimTime(50), "grow refreshes the stamp");
        // Negative deltas are clamped: grow is append-only.
        let (total, _) = store.grow(SimTime(60), id, -3e6).unwrap();
        assert_eq!(total, 5e6);
        assert_eq!(
            store.grow(SimTime::ZERO, DataId(99), 1.0),
            Err(StoreError::UnknownData(DataId(99)))
        );
    }

    #[test]
    fn relocate_updates_location() {
        let mut store = DataStore::new(2);
        let (id, _) = store.put(SimTime::ZERO, token(1, 1), gpu(0, 0), 1e6, 1);
        store.relocate(id, Location::Host(0)).unwrap();
        assert_eq!(store.peek(id).unwrap().location, Location::Host(0));
        assert_eq!(
            store.relocate(DataId(99), Location::Host(0)),
            Err(StoreError::UnknownData(DataId(99)))
        );
    }

    #[test]
    fn entries_at_filters_by_location() {
        let mut store = DataStore::new(1);
        store.put(SimTime::ZERO, token(1, 1), gpu(0, 0), 1e6, 1);
        store.put(SimTime::ZERO, token(1, 1), gpu(0, 1), 2e6, 1);
        store.put(SimTime::ZERO, token(1, 1), gpu(0, 0), 3e6, 1);
        assert_eq!(store.entries_at(gpu(0, 0)).len(), 2);
        assert_eq!(store.bytes_at(gpu(0, 0)), 4e6);
        assert_eq!(store.bytes_at(gpu(0, 1)), 2e6);
        assert_eq!(store.bytes_at(Location::Host(0)), 0.0);
    }

    #[test]
    fn next_use_rank_is_settable() {
        let mut store = DataStore::new(1);
        let (id, _) = store.put(SimTime::ZERO, token(1, 1), gpu(0, 0), 1e6, 1);
        store.set_next_use(id, Some(3));
        assert_eq!(store.peek(id).unwrap().next_use, Some(3));
        store.set_next_use(id, None);
        assert_eq!(store.peek(id).unwrap().next_use, None);
    }

    #[test]
    fn purge_ignores_pending_consumers_and_is_idempotent() {
        let mut store = DataStore::new(1);
        let (id, _) = store.put(SimTime::ZERO, token(1, 1), gpu(0, 0), 5e6, 3);
        let entry = store.purge(id).expect("live entry purged");
        assert_eq!(entry.bytes, 5e6);
        assert_eq!(entry.pending_consumers, 3);
        assert!(store.is_empty());
        assert!(store.purge(id).is_none(), "second purge is a no-op");
        assert!(matches!(
            store.resolve(SimTime::ZERO, 0, token(1, 1), id),
            Err(StoreError::UnknownData(_))
        ));
    }

    #[test]
    fn purge_at_drops_exactly_the_failed_gpus_objects() {
        let mut store = DataStore::new(1);
        let (a, _) = store.put(SimTime::ZERO, token(1, 1), gpu(0, 0), 1e6, 1);
        let (b, _) = store.put(SimTime::ZERO, token(1, 1), gpu(0, 1), 2e6, 1);
        let (c, _) = store.put(SimTime::ZERO, token(1, 1), gpu(0, 0), 3e6, 2);
        let lost = store.purge_at(gpu(0, 0));
        assert_eq!(
            lost.iter().map(|e| e.id).collect::<Vec<_>>(),
            vec![a, c],
            "deterministic id order"
        );
        assert!(store.peek(a).is_none());
        assert!(store.peek(c).is_none());
        assert_eq!(store.peek(b).unwrap().bytes, 2e6, "survivor untouched");
        assert!(store.purge_at(gpu(0, 0)).is_empty());
    }

    #[test]
    fn remote_resolve_is_slower_than_local() {
        let mut store = DataStore::new(2);
        let (id, _) = store.put(SimTime::ZERO, token(1, 1), gpu(0, 0), 1e6, 2);
        let (_, lat_remote) = store.resolve(SimTime::ZERO, 1, token(1, 1), id).unwrap();
        let (_, lat_local) = store.resolve(SimTime::ZERO, 0, token(1, 1), id).unwrap();
        assert!(lat_remote > lat_local);
    }
}
