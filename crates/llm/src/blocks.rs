//! The KV block map: block-granular KV-cache objects per request.
//!
//! A request's KV cache is a sequence of GPU-store objects of at most
//! [`KV_BLOCK_TOKENS`] tokens each (vLLM-style paged blocks, coarsened to
//! keep store traffic tractable). Blocks are **append-mostly**: the tail
//! block grows in place ([`grouter_store::DataStore::grow`] plus a pool
//! reservation) until it fills or its pool runs out of headroom, at which
//! point it is sealed and the next block is a fresh plane `Put` — so every
//! block rides the plane's own allocation, eviction and migration
//! machinery. Each block remembers its *home* location (where the plane
//! stored it); residency elsewhere means the pressure path migrated it.

use grouter_sim::table::RidTable;
use grouter_store::{DataId, DataStore, Location};
use grouter_topology::GpuRef;

/// Tokens per KV block.
pub const KV_BLOCK_TOKENS: u32 = 256;

/// One KV block object.
#[derive(Clone, Copy, Debug)]
pub struct KvBlock {
    pub id: DataId,
    /// Tokens covered by this block (≤ [`KV_BLOCK_TOKENS`]).
    pub tokens: u32,
    pub bytes: f64,
    /// Where the plane stored the block at `Put` time. The GROUTER plane
    /// pins this to the decode GPU; Mooncake+ pins it to the node's cache
    /// GPU. Any other residency is a migration.
    pub home: Location,
    /// A sealed block no longer grows in place; appends open a new block.
    pub sealed: bool,
}

/// The KV state of one request.
#[derive(Clone, Debug)]
pub struct RequestKv {
    /// Decode GPU the request is pinned to.
    pub decode_gpu: GpuRef,
    pub blocks: Vec<KvBlock>,
}

impl RequestKv {
    pub fn total_bytes(&self) -> f64 {
        self.blocks.iter().map(|b| b.bytes).sum()
    }
}

/// Request id → KV blocks, plus per-GPU live-KV totals for pinned-consumer
/// placement.
#[derive(Debug, Default)]
pub struct KvBlockMap {
    map: RidTable<RequestKv>,
    /// Live KV bytes *homed* on each flat GPU (residency may differ while
    /// a block is migrated; placement balances by ownership).
    home_bytes: Vec<f64>,
}

impl KvBlockMap {
    pub fn new(num_gpus: usize) -> KvBlockMap {
        KvBlockMap {
            map: RidTable::new(),
            home_bytes: vec![0.0; num_gpus],
        }
    }

    pub fn insert(&mut self, rid: u64, kv: RequestKv, gpus_per_node: usize) {
        for b in &kv.blocks {
            self.credit(b.home, b.bytes, gpus_per_node);
        }
        self.map.insert(rid, kv);
    }

    pub fn get(&self, rid: u64) -> Option<&RequestKv> {
        self.map.get(rid)
    }

    pub fn get_mut(&mut self, rid: u64) -> Option<&mut RequestKv> {
        self.map.get_mut(rid)
    }

    pub fn remove(&mut self, rid: u64, gpus_per_node: usize) -> Option<RequestKv> {
        let kv = self.map.remove(rid)?;
        for b in &kv.blocks {
            self.credit(b.home, -b.bytes, gpus_per_node);
        }
        Some(kv)
    }

    /// Record `delta` home bytes for a block (append growth or a fresh
    /// block joining the map).
    pub fn credit(&mut self, home: Location, delta: f64, gpus_per_node: usize) {
        if let Location::Gpu(g) = home {
            let idx = g.node * gpus_per_node + g.gpu;
            if idx < self.home_bytes.len() {
                self.home_bytes[idx] += delta;
            }
        }
    }

    /// Live KV bytes homed per flat GPU — the load vector
    /// [`grouter_runtime::pin_decode`] balances on.
    pub fn home_bytes(&self) -> &[f64] {
        &self.home_bytes
    }

    /// Live KV bytes over every request, summed in request-id order.
    pub fn total_bytes(&self) -> f64 {
        self.map.values().map(|kv| kv.total_bytes()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// `--features audit`: the `llm.kv_blocks` checker. Every mapped block
    /// resolves in the store with matching byte count, and resides either
    /// at its home (the pinned decode GPU for GROUTER, the cache GPU for
    /// Mooncake+) or on host memory (pressure-migrated) — never on some
    /// third GPU the placement contract knows nothing about.
    #[cfg(feature = "audit")]
    pub fn audit_blocks(&self, store: &DataStore) {
        if !grouter_audit::every("llm.kv_blocks", 8) {
            return;
        }
        grouter_audit::record_hit("llm.kv_blocks");
        for (rid, kv) in self.map.iter() {
            for b in &kv.blocks {
                let Some(entry) = store.peek(b.id) else {
                    grouter_audit::check("llm.kv_blocks", false, || {
                        format!("request {rid}: block {:?} vanished from the store", b.id)
                    });
                    return;
                };
                grouter_audit::check("llm.kv_blocks", entry.bytes == b.bytes, || {
                    format!(
                        "request {rid}: block {:?} map says {} bytes, store says {}",
                        b.id, b.bytes, entry.bytes
                    )
                });
                let resident_ok =
                    entry.location == b.home || matches!(entry.location, Location::Host(_));
                grouter_audit::check("llm.kv_blocks", resident_ok, || {
                    format!(
                        "request {rid}: block {:?} homed at {:?} but resident at {:?}",
                        b.id, b.home, entry.location
                    )
                });
            }
        }
    }

    #[cfg(not(feature = "audit"))]
    pub fn audit_blocks(&self, _store: &DataStore) {}
}
