//! Per-GPU storage memory pool.
//!
//! Native GPU allocation (`cudaMalloc`/`cudaFree`) costs milliseconds, so
//! GPU stores keep a pre-allocated pool and serve allocations from it in
//! microseconds. The paper contrasts three pooling disciplines:
//!
//! * **Elastic** (GROUTER, §4.4.1) — the pool grows on demand and shrinks
//!   back to the pre-warm target (a 300 MB floor in idle periods), and never
//!   exceeds 50 % of free GPU memory.
//! * **Static** — a fixed reservation sized for the peak, released only by
//!   manual reclamation (PyTorch-style); the paper measures 4× over-use.
//! * **Symmetric** — NVSHMEM's symmetric heap: every allocation is mirrored
//!   on *all* GPUs of the job, so one GPU's demand bloats every GPU.
//!
//! The pool tracks *bytes*, not addresses: fragmentation is out of scope
//! (GMLake-style defragmentation is orthogonal, §7).

use grouter_sim::params;
use grouter_sim::time::SimDuration;

/// Which pooling discipline a pool follows.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PoolDiscipline {
    /// GROUTER: grow on demand, shrink to the scaler's target.
    Elastic,
    /// Fixed pre-reservation of the given size; never shrinks.
    Static { bytes: f64 },
    /// NVSHMEM symmetric heap of the given per-GPU size; never shrinks and
    /// is charged to every GPU in the job regardless of local demand.
    Symmetric { bytes: f64 },
}

/// A successful allocation: the modelled latency the caller must charge.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AllocGrant {
    /// Allocation latency (pool hit: µs; pool growth: ms for `cudaMalloc`).
    pub latency: SimDuration,
    /// Whether the pool had to grow (a native allocation happened).
    pub grew: bool,
}

/// Allocation failure.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AllocError {
    /// The object can fit only after evicting `shortfall` bytes of stored
    /// data (pool is at its cap or the GPU is out of memory).
    NeedsEviction { shortfall: f64 },
    /// The object can never fit on this GPU (larger than the storage cap).
    TooLarge,
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::NeedsEviction { shortfall } => {
                write!(f, "needs eviction of {shortfall:.0} bytes")
            }
            AllocError::TooLarge => write!(f, "object exceeds storage capacity"),
        }
    }
}

impl std::error::Error for AllocError {}

/// Byte-level accounting of one GPU's storage pool.
///
/// # Examples
///
/// ```
/// use grouter_mem::{ElasticPool, PoolDiscipline};
///
/// let mut pool = ElasticPool::new(PoolDiscipline::Elastic, 16e9);
/// // First allocation fits the 300 MB idle floor: a fast pool hit.
/// assert!(!pool.try_alloc(100e6).unwrap().grew);
/// // Growing past the floor costs a native cudaMalloc.
/// assert!(pool.try_alloc(500e6).unwrap().grew);
/// pool.free(600e6);
/// // Idle reclamation shrinks the reservation back toward the floor.
/// pool.reclaim_toward(0.0);
/// assert_eq!(pool.reserved(), 300e6);
/// ```
#[derive(Clone, Debug)]
pub struct ElasticPool {
    discipline: PoolDiscipline,
    /// Total GPU memory.
    capacity: f64,
    /// Memory held by function execution (models, activations) — not ours.
    runtime_used: f64,
    /// Pool bytes currently allocated from the GPU.
    reserved: f64,
    /// Pool bytes handed out to live objects.
    used: f64,
    /// Idle floor (paper: 300 MB).
    min_pool: f64,
    /// Fraction of free memory the pool may occupy (paper: 0.5).
    free_fraction: f64,
    /// Number of native (`cudaMalloc`) growth events, for overhead reports.
    native_allocs: u64,
    /// High-water marks for the memory-overhead report (Fig. 20c).
    peak_used: f64,
    peak_reserved: f64,
    /// Failed-GPU quarantine: the pool holds nothing and admits nothing
    /// until the GPU rejoins (see [`ElasticPool::quarantine`]).
    quarantined: bool,
    /// Observability handle + the owning GPU's global index for event
    /// correlation ([`ElasticPool::set_recorder`]).
    rec: grouter_obs::Recorder,
    gpu_tag: u64,
}

impl ElasticPool {
    /// Create a pool on a GPU with `capacity` bytes of memory.
    pub fn new(discipline: PoolDiscipline, capacity: f64) -> ElasticPool {
        assert!(capacity > 0.0, "GPU capacity must be positive");
        let reserved = match discipline {
            PoolDiscipline::Elastic => params::MIN_POOL_BYTES.min(capacity),
            PoolDiscipline::Static { bytes } | PoolDiscipline::Symmetric { bytes } => {
                bytes.min(capacity)
            }
        };
        ElasticPool {
            discipline,
            capacity,
            runtime_used: 0.0,
            reserved,
            used: 0.0,
            min_pool: params::MIN_POOL_BYTES,
            free_fraction: params::STORAGE_FREE_FRACTION,
            native_allocs: 1, // the initial reservation
            peak_used: 0.0,
            peak_reserved: reserved,
            quarantined: false,
            rec: grouter_obs::Recorder::disabled(),
            gpu_tag: 0,
        }
    }

    /// Attach an observability recorder; `gpu` tags this pool's events
    /// (grow / shrink / pre-warm / quarantine) with the owning GPU's global
    /// index.
    pub fn set_recorder(&mut self, rec: grouter_obs::Recorder, gpu: u64) {
        self.rec = rec;
        self.gpu_tag = gpu;
    }

    fn emit_pool_event(&self, name: &'static str, extra: f64, key: &'static str) {
        self.rec.instant(
            grouter_obs::Comp::Mem,
            name,
            grouter_obs::Ids::NONE,
            vec![
                ("gpu", self.gpu_tag.into()),
                ("reserved", self.reserved.into()),
                ("used", self.used.into()),
                (key, extra.into()),
            ],
        );
    }

    /// Quarantine a failed GPU's pool: every stored byte is lost, the
    /// reservation is surrendered and further allocations are refused until
    /// [`ElasticPool::release_quarantine`]. Returns the live demand that was
    /// dropped (the caller purges the matching store entries). Idempotent.
    pub fn quarantine(&mut self) -> f64 {
        if self.quarantined {
            return 0.0;
        }
        let lost = self.used;
        self.quarantined = true;
        self.used = 0.0;
        self.reserved = 0.0;
        self.runtime_used = 0.0;
        if self.rec.on(grouter_obs::Comp::Mem) {
            self.emit_pool_event("pool_quarantine", lost, "lost");
        }
        #[cfg(feature = "audit")]
        self.audit_accounting();
        lost
    }

    /// Readmit a recovered GPU: the pool restarts empty at its discipline's
    /// initial reservation (a fresh native allocation). Idempotent.
    pub fn release_quarantine(&mut self) {
        if !self.quarantined {
            return;
        }
        self.quarantined = false;
        self.reserved = match self.discipline {
            PoolDiscipline::Elastic => self.min_pool.min(self.capacity),
            PoolDiscipline::Static { bytes } | PoolDiscipline::Symmetric { bytes } => {
                bytes.min(self.capacity)
            }
        };
        self.native_allocs += 1;
        self.note_peaks();
        #[cfg(feature = "audit")]
        self.audit_accounting();
    }

    /// Whether the pool is currently quarantined.
    pub fn is_quarantined(&self) -> bool {
        self.quarantined
    }

    /// `--features audit`: byte accounting stays coherent after every
    /// mutation — demand within the reservation, the reservation within the
    /// GPU, peaks ahead of live values, and the elastic idle floor held.
    #[cfg(feature = "audit")]
    fn audit_accounting(&self) {
        grouter_audit::check(
            "pool.accounting",
            self.used >= 0.0
                && self.used <= self.reserved + 0.5
                && self.reserved <= self.capacity + 0.5,
            || {
                format!(
                    "used {} / reserved {} / capacity {}",
                    self.used, self.reserved, self.capacity
                )
            },
        );
        grouter_audit::check(
            "pool.accounting",
            self.peak_used + 0.5 >= self.used && self.peak_reserved + 0.5 >= self.reserved,
            || {
                format!(
                    "peaks ({}, {}) behind live values ({}, {})",
                    self.peak_used, self.peak_reserved, self.used, self.reserved
                )
            },
        );
        if matches!(self.discipline, PoolDiscipline::Elastic) && !self.quarantined {
            grouter_audit::check(
                "scaler.floor",
                self.reserved + 0.5 >= self.min_pool.min(self.capacity),
                || {
                    format!(
                        "elastic reservation {} fell below the idle floor {}",
                        self.reserved,
                        self.min_pool.min(self.capacity)
                    )
                },
            );
        }
        // Quarantine accounting identity: a quarantined pool holds nothing —
        // no demand, no reservation, no runtime charge.
        grouter_audit::check(
            "pool.quarantine",
            !self.quarantined
                || (self.used == 0.0 && self.reserved == 0.0 && self.runtime_used == 0.0),
            || {
                format!(
                    "quarantined pool still holds used {} / reserved {} / runtime {}",
                    self.used, self.reserved, self.runtime_used
                )
            },
        );
    }

    fn note_peaks(&mut self) {
        self.peak_used = self.peak_used.max(self.used);
        self.peak_reserved = self.peak_reserved.max(self.reserved);
    }

    /// Highest live demand ever observed.
    pub fn peak_used(&self) -> f64 {
        self.peak_used
    }

    /// Largest reservation ever held (the storage footprint peak).
    pub fn peak_reserved(&self) -> f64 {
        self.peak_reserved
    }

    pub fn discipline(&self) -> PoolDiscipline {
        self.discipline
    }

    /// Total GPU memory.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Pool bytes currently reserved from the GPU (the storage *footprint*).
    pub fn reserved(&self) -> f64 {
        self.reserved
    }

    /// Pool bytes held by live objects (the storage *demand*).
    pub fn used(&self) -> f64 {
        self.used
    }

    /// Memory used by function execution.
    pub fn runtime_used(&self) -> f64 {
        self.runtime_used
    }

    /// GPU memory not taken by the runtime or the pool.
    pub fn idle_gpu_memory(&self) -> f64 {
        (self.capacity - self.runtime_used - self.reserved).max(0.0)
    }

    /// The most the pool may reserve right now: `free_fraction` of the
    /// memory not used by function execution (paper §4.4.2: 50 % of free
    /// memory), but never below the idle floor.
    pub fn storage_cap(&self) -> f64 {
        let cap = (self.capacity - self.runtime_used).max(0.0) * self.free_fraction;
        cap.max(self.min_pool.min(self.capacity))
    }

    /// Number of native allocation events so far.
    pub fn native_allocs(&self) -> u64 {
        self.native_allocs
    }

    /// Share of the GPU taken by function execution and the pool's
    /// reservation, clamped to `[0, 1]` (0 for a GPU without capacity).
    /// Service-mode heartbeats report its mean over a group's GPUs
    /// (`DESIGN.md` §5.9).
    pub fn occupied_fraction(&self) -> f64 {
        if self.capacity <= 0.0 {
            return 0.0;
        }
        ((self.runtime_used + self.reserved) / self.capacity).clamp(0.0, 1.0)
    }

    /// Record a change in runtime (function execution) memory usage.
    ///
    /// Returns the number of stored bytes that must be migrated away to
    /// respect the new cap (0.0 when the pool still fits). The caller evicts
    /// via its migration policy and then calls [`ElasticPool::free`].
    pub fn set_runtime_used(&mut self, bytes: f64) -> f64 {
        if self.quarantined {
            return 0.0; // a failed GPU executes nothing
        }
        self.runtime_used = bytes.clamp(0.0, self.capacity);
        let cap = self.storage_cap();
        if self.reserved > cap && matches!(self.discipline, PoolDiscipline::Elastic) {
            // Shrink the empty part of the pool for free; live objects can
            // only leave via migration.
            let shrinkable = self.reserved - self.used;
            let overshoot = self.reserved - cap;
            self.reserved -= overshoot.min(shrinkable);
        }
        #[cfg(feature = "audit")]
        self.audit_accounting();
        (self.used - self.storage_cap()).max(0.0)
    }

    /// Allocate `bytes` for a new object.
    pub fn try_alloc(&mut self, bytes: f64) -> Result<AllocGrant, AllocError> {
        assert!(bytes >= 0.0, "allocation size must be non-negative");
        if self.quarantined {
            // Nothing fits on a failed GPU; callers fall back elsewhere.
            return Err(AllocError::TooLarge);
        }
        let cap = self.storage_cap();
        if bytes > cap {
            return Err(AllocError::TooLarge);
        }
        if self.used + bytes <= self.reserved {
            self.used += bytes;
            self.note_peaks();
            #[cfg(feature = "audit")]
            self.audit_accounting();
            return Ok(AllocGrant {
                latency: params::POOL_ALLOC,
                grew: false,
            });
        }
        match self.discipline {
            PoolDiscipline::Static { .. } | PoolDiscipline::Symmetric { .. } => {
                // Fixed pools never grow: demand beyond the reservation needs
                // eviction.
                Err(AllocError::NeedsEviction {
                    shortfall: self.used + bytes - self.reserved,
                })
            }
            PoolDiscipline::Elastic => {
                let want = self.used + bytes;
                if want <= cap {
                    self.reserved = want;
                    self.used = want;
                    self.native_allocs += 1;
                    self.note_peaks();
                    if self.rec.on(grouter_obs::Comp::Mem) {
                        self.emit_pool_event("pool_grow", bytes, "bytes");
                        self.rec.count(grouter_obs::Comp::Mem, "native_allocs", 1);
                    }
                    #[cfg(feature = "audit")]
                    self.audit_accounting();
                    Ok(AllocGrant {
                        latency: params::CUDA_MALLOC,
                        grew: true,
                    })
                } else {
                    Err(AllocError::NeedsEviction {
                        shortfall: want - cap,
                    })
                }
            }
        }
    }

    /// Release `bytes` of a live object (consumed, deleted, or migrated).
    /// No-op while quarantined: the failed GPU's objects were purged with the
    /// pool, so a late free would double-count.
    pub fn free(&mut self, bytes: f64) {
        if self.quarantined {
            return;
        }
        self.used = (self.used - bytes).max(0.0);
        #[cfg(feature = "audit")]
        self.audit_accounting();
    }

    /// Shrink an elastic pool's reservation toward `target` bytes (the
    /// pre-warm scaler's estimate). Reservation never drops below live use
    /// or the idle floor. No-op for fixed disciplines.
    pub fn reclaim_toward(&mut self, target: f64) {
        if !matches!(self.discipline, PoolDiscipline::Elastic) || self.quarantined {
            return;
        }
        let floor = self.used.max(self.min_pool.min(self.capacity));
        let before = self.reserved;
        self.reserved = self.reserved.min(target.max(floor)).max(floor);
        if self.reserved < before && self.rec.on(grouter_obs::Comp::Mem) {
            self.emit_pool_event("pool_shrink", before - self.reserved, "released");
        }
        #[cfg(feature = "audit")]
        self.audit_accounting();
    }

    /// Grow an elastic pool's reservation toward `target` ahead of demand
    /// (pre-warming). Bounded by the storage cap. Returns `true` if a native
    /// allocation happened.
    pub fn prewarm_toward(&mut self, target: f64) -> bool {
        if !matches!(self.discipline, PoolDiscipline::Elastic) || self.quarantined {
            return false;
        }
        let goal = target.min(self.storage_cap());
        let grew = if goal > self.reserved {
            self.reserved = goal;
            self.native_allocs += 1;
            self.note_peaks();
            if self.rec.on(grouter_obs::Comp::Mem) {
                self.emit_pool_event("prewarm", goal, "target");
                self.rec.count(grouter_obs::Comp::Mem, "native_allocs", 1);
            }
            true
        } else {
            false
        };
        #[cfg(feature = "audit")]
        self.audit_accounting();
        grew
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GB: f64 = 1e9;

    fn elastic(capacity: f64) -> ElasticPool {
        ElasticPool::new(PoolDiscipline::Elastic, capacity)
    }

    #[test]
    fn pool_hit_is_fast_growth_is_slow() {
        let mut p = elastic(16.0 * GB);
        // First alloc fits the 300 MB floor.
        let g = p.try_alloc(100e6).unwrap();
        assert!(!g.grew);
        assert_eq!(g.latency, params::POOL_ALLOC);
        // Second alloc exceeds the floor → native growth.
        let g = p.try_alloc(400e6).unwrap();
        assert!(g.grew);
        assert_eq!(g.latency, params::CUDA_MALLOC);
        assert_eq!(p.used(), 500e6);
    }

    #[test]
    fn cap_is_half_of_free_memory() {
        let mut p = elastic(16.0 * GB);
        assert_eq!(p.storage_cap(), 8.0 * GB);
        p.set_runtime_used(8.0 * GB);
        assert_eq!(p.storage_cap(), 4.0 * GB);
    }

    #[test]
    fn occupied_fraction_is_runtime_plus_reservation_within_capacity() {
        let mut p = elastic(16.0 * GB);
        // The 300 MB idle floor alone.
        assert_eq!(p.occupied_fraction(), 300e6 / (16.0 * GB));
        p.set_runtime_used(8.0 * GB);
        assert_eq!(p.occupied_fraction(), (8.0 * GB + 300e6) / (16.0 * GB));
        // Runtime memory at capacity plus the floor is clamped to 1.
        p.set_runtime_used(16.0 * GB);
        assert_eq!(p.occupied_fraction(), 1.0);
        // A GPU without capacity counts as empty.
        p.capacity = 0.0;
        assert_eq!(p.occupied_fraction(), 0.0);
    }

    #[test]
    fn alloc_beyond_cap_needs_eviction() {
        let mut p = elastic(16.0 * GB);
        p.try_alloc(7.5 * GB).unwrap();
        match p.try_alloc(1.0 * GB) {
            Err(AllocError::NeedsEviction { shortfall }) => {
                assert!((shortfall - 0.5 * GB).abs() < 1.0);
            }
            other => panic!("expected NeedsEviction, got {other:?}"),
        }
    }

    #[test]
    fn object_larger_than_cap_rejected() {
        let mut p = elastic(16.0 * GB);
        assert_eq!(p.try_alloc(9.0 * GB), Err(AllocError::TooLarge));
    }

    #[test]
    fn free_releases_demand_but_not_reservation() {
        let mut p = elastic(16.0 * GB);
        p.try_alloc(2.0 * GB).unwrap();
        let reserved = p.reserved();
        p.free(2.0 * GB);
        assert_eq!(p.used(), 0.0);
        assert_eq!(p.reserved(), reserved, "reservation kept for reuse");
        // Reclaim shrinks it back toward the floor.
        p.reclaim_toward(0.0);
        assert_eq!(p.reserved(), params::MIN_POOL_BYTES);
    }

    #[test]
    fn static_pool_never_grows() {
        let mut p = ElasticPool::new(PoolDiscipline::Static { bytes: 1.0 * GB }, 16.0 * GB);
        p.try_alloc(0.9 * GB).unwrap();
        assert!(matches!(
            p.try_alloc(0.2 * GB),
            Err(AllocError::NeedsEviction { .. })
        ));
        p.reclaim_toward(0.0);
        assert_eq!(p.reserved(), 1.0 * GB, "static pools ignore reclamation");
    }

    #[test]
    fn runtime_pressure_forces_migration() {
        let mut p = elastic(16.0 * GB);
        p.try_alloc(6.0 * GB).unwrap();
        // Functions now occupy 8 GB → cap drops to 4 GB; 2 GB must move.
        let must_move = p.set_runtime_used(8.0 * GB);
        assert!((must_move - 2.0 * GB).abs() < 1.0);
        // Caller migrates and frees.
        p.free(2.0 * GB);
        assert!(p.used() <= p.storage_cap() + 1.0);
    }

    #[test]
    fn runtime_pressure_shrinks_empty_reservation_silently() {
        let mut p = elastic(16.0 * GB);
        p.try_alloc(6.0 * GB).unwrap();
        p.free(5.0 * GB); // 1 GB live, 6 GB reserved
        let must_move = p.set_runtime_used(8.0 * GB);
        assert_eq!(must_move, 0.0, "live data fits under the new cap");
        assert!(p.reserved() <= p.storage_cap() + 1.0);
        assert_eq!(p.used(), 1.0 * GB);
    }

    #[test]
    fn prewarm_grows_reservation_within_cap() {
        let mut p = elastic(16.0 * GB);
        assert!(p.prewarm_toward(2.0 * GB));
        assert_eq!(p.reserved(), 2.0 * GB);
        // Cannot exceed the cap.
        assert!(p.prewarm_toward(100.0 * GB));
        assert_eq!(p.reserved(), p.storage_cap());
        // No growth needed → no native alloc.
        assert!(!p.prewarm_toward(1.0 * GB));
    }

    #[test]
    fn idle_memory_accounting() {
        let mut p = elastic(16.0 * GB);
        p.set_runtime_used(4.0 * GB);
        p.prewarm_toward(2.0 * GB);
        assert_eq!(p.idle_gpu_memory(), 10.0 * GB);
    }

    #[test]
    fn quarantine_drops_everything_and_refuses_allocs() {
        let mut p = elastic(16.0 * GB);
        p.try_alloc(2.0 * GB).unwrap();
        p.set_runtime_used(4.0 * GB);
        let lost = p.quarantine();
        assert_eq!(lost, 2.0 * GB, "live demand reported as lost");
        assert!(p.is_quarantined());
        assert_eq!(p.used(), 0.0);
        assert_eq!(p.reserved(), 0.0);
        assert_eq!(p.runtime_used(), 0.0);
        assert_eq!(p.try_alloc(1e6), Err(AllocError::TooLarge));
        assert!(!p.prewarm_toward(1.0 * GB));
        assert_eq!(p.set_runtime_used(1.0 * GB), 0.0);
        // Idempotent: a second quarantine loses nothing more.
        assert_eq!(p.quarantine(), 0.0);
    }

    #[test]
    fn release_quarantine_restarts_at_the_idle_floor() {
        let mut p = elastic(16.0 * GB);
        p.try_alloc(2.0 * GB).unwrap();
        p.quarantine();
        let allocs = p.native_allocs();
        p.release_quarantine();
        assert!(!p.is_quarantined());
        assert_eq!(p.reserved(), params::MIN_POOL_BYTES);
        assert_eq!(p.used(), 0.0);
        assert_eq!(p.native_allocs(), allocs + 1, "rejoin re-reserves natively");
        assert!(p.try_alloc(100e6).is_ok());
        // Idempotent.
        p.release_quarantine();
        assert_eq!(p.reserved(), params::MIN_POOL_BYTES);
    }

    #[test]
    fn native_alloc_counter_counts_growth() {
        let mut p = elastic(16.0 * GB);
        let start = p.native_allocs();
        p.try_alloc(100e6).unwrap(); // hit
        p.try_alloc(1.0 * GB).unwrap(); // growth
        assert_eq!(p.native_allocs(), start + 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    #[derive(Clone, Debug)]
    enum Op {
        Alloc(f64),
        Free(f64),
        Runtime(f64),
        Reclaim(f64),
        Prewarm(f64),
        Quarantine,
        Rejoin,
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (1e6..4e9).prop_map(Op::Alloc),
            (1e6..4e9).prop_map(Op::Free),
            (0.0..16e9).prop_map(Op::Runtime),
            (0.0..8e9).prop_map(Op::Reclaim),
            (0.0..8e9).prop_map(Op::Prewarm),
            Just(Op::Quarantine),
            Just(Op::Rejoin),
        ]
    }

    proptest! {
        /// Pool accounting invariants hold under arbitrary operation
        /// sequences: used ≤ reserved ≤ capacity, cap respected after
        /// every successful allocation, nothing goes negative.
        #[test]
        fn accounting_invariants(ops in proptest::collection::vec(arb_op(), 1..64)) {
            let mut pool = ElasticPool::new(PoolDiscipline::Elastic, 16e9);
            let mut live = 0.0f64;
            for op in ops {
                match op {
                    Op::Alloc(b) => {
                        if pool.try_alloc(b).is_ok() {
                            live += b;
                        }
                    }
                    Op::Free(b) => {
                        let b = b.min(live);
                        pool.free(b);
                        live -= b;
                    }
                    Op::Runtime(b) => {
                        let must_move = pool.set_runtime_used(b);
                        // Caller contract: migrate exactly what was asked.
                        if must_move > 0.0 {
                            pool.free(must_move.min(live));
                            live = (live - must_move).max(0.0);
                        }
                    }
                    Op::Reclaim(t) => pool.reclaim_toward(t),
                    Op::Prewarm(t) => {
                        pool.prewarm_toward(t);
                    }
                    Op::Quarantine => {
                        pool.quarantine();
                        live = 0.0;
                    }
                    Op::Rejoin => pool.release_quarantine(),
                }
                if pool.is_quarantined() {
                    prop_assert_eq!(pool.used(), 0.0, "quarantined pool holds demand");
                    prop_assert_eq!(pool.reserved(), 0.0, "quarantined pool holds reservation");
                }
                prop_assert!(pool.used() >= -1.0, "negative use");
                prop_assert!(
                    pool.used() <= pool.reserved() + 1.0,
                    "used {} > reserved {}",
                    pool.used(),
                    pool.reserved()
                );
                prop_assert!(
                    pool.reserved() <= pool.capacity() + 1.0,
                    "reserved beyond capacity"
                );
                prop_assert!(pool.idle_gpu_memory() >= 0.0);
                prop_assert!(pool.peak_used() >= pool.used() - 1.0);
                prop_assert!(pool.peak_reserved() >= pool.reserved() - 1.0);
            }
        }

        /// Fixed disciplines never change their reservation.
        #[test]
        fn fixed_pools_hold_their_reservation(ops in proptest::collection::vec(arb_op(), 1..32)) {
            for discipline in [
                PoolDiscipline::Static { bytes: 4e9 },
                PoolDiscipline::Symmetric { bytes: 4e9 },
            ] {
                let mut pool = ElasticPool::new(discipline, 16e9);
                let initial = pool.reserved();
                for op in ops.clone() {
                    match op {
                        Op::Alloc(b) => {
                            let _ = pool.try_alloc(b);
                        }
                        Op::Free(b) => pool.free(b),
                        Op::Runtime(b) => {
                            let _ = pool.set_runtime_used(b);
                        }
                        Op::Reclaim(t) => pool.reclaim_toward(t),
                        Op::Prewarm(t) => {
                            pool.prewarm_toward(t);
                        }
                        Op::Quarantine => {
                            pool.quarantine();
                        }
                        Op::Rejoin => pool.release_quarantine(),
                    }
                    // Quarantine is the only event that moves a fixed
                    // reservation; rejoin restores it exactly.
                    let expect = if pool.is_quarantined() { 0.0 } else { initial };
                    prop_assert_eq!(pool.reserved(), expect);
                }
            }
        }
    }
}
