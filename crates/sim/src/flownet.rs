//! Flow-level network model.
//!
//! Interconnect hardware (NVLink, PCIe, NIC, host paths) is modelled as a set
//! of directed links with fixed capacity in bytes/second. A data transfer
//! (or one chunk of a multi-path transfer) is a *flow* over an ordered list
//! of links. Bandwidth is divided between concurrent flows by **weighted
//! max-min fairness** extended with:
//!
//! * per-flow **floors** — a guaranteed minimum rate, used by GROUTER's
//!   SLO-aware transfer rate control (`Rate_least`, paper §4.3.2);
//! * per-flow **caps** — a maximum rate, used to throttle bandwidth-hungry
//!   workflows (bandwidth partitioning, Fig. 17);
//! * per-flow **weights** — idle bandwidth beyond the floors is distributed
//!   proportionally to weight, letting the controller hand spare bandwidth to
//!   the function with the tightest SLO.
//!
//! The model is quasi-stationary: whenever the flow set or any constraint
//! changes, affected rates are recomputed and progress is settled up to the
//! current instant. This is the standard flow-level approximation used by
//! network simulators; it reproduces contention, aggregation and isolation
//! effects without per-packet simulation.
//!
//! # Incremental, contention-scoped allocation
//!
//! GROUTER's mechanisms (2 MB chunking, 5-chunk batches, parallel-path
//! bandwidth harvesting) turn one logical transfer into many short-lived
//! flows, so the allocator is on the hot path of every simulated byte. The
//! implementation is engineered around three ideas:
//!
//! 1. **Slab storage.** Flows live in a dense `Vec` slab with a free list;
//!    external [`FlowId`]s stay stable (monotonic, arrival-ordered) via a
//!    side index. Per-link member lists are maintained *incrementally* on
//!    flow add/remove/reroute instead of being rebuilt per recompute.
//! 2. **Contention components.** A flow event re-runs progressive filling
//!    only over the flows transitively sharing links with the changed flow
//!    (its *contention component*). Disjoint components — different nodes,
//!    different PCIe switches, independent NVLink cliques, the common case
//!    on DGX presets — keep their rates and completion estimates untouched.
//!    Within the recomputed component, member order is normalised to
//!    ascending `FlowId` so results are independent of event history.
//! 3. **Lazy completion heap.** [`FlowNet::next_completion`] pops a min-heap
//!    of projected completion times instead of scanning every flow; entries
//!    are invalidated by per-flow recompute stamps. Per-link aggregate rates
//!    make [`FlowNet::link_utilization`] O(1).
//!
//! Progress settling is lazy as well: each flow records the instant its
//! `remaining` was last materialised, and projections use the (constant)
//! current rate, so an event settles only the flows whose rates it changes.
//!
//! The historical full-recompute allocator is preserved in
//! [`crate::flownet_ref`] and property tests assert the two agree on rates
//! for randomized topologies, constraints and event sequences.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::fxhash::FxHashMap;
use crate::time::{SimDuration, SimTime};

/// Identifies a link inside one [`FlowNet`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LinkId(pub u32);

/// An ordered link sequence stored inline, so building, copying and
/// dropping a path never touches the allocator. Derefs to `&[LinkId]`.
///
/// The longest path the transfer planners build on the shipped presets is
/// 8 links (cross-node GPUDirect RDMA with NVLink legs on both sides);
/// [`LinkPath::CAPACITY`] leaves twice that.
#[derive(Clone, Copy)]
pub struct LinkPath {
    len: u8,
    links: [LinkId; LinkPath::CAPACITY],
}

/// A [`LinkPath`] append that would exceed [`LinkPath::CAPACITY`]; the path
/// is left unchanged.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PathTooLong;

impl std::fmt::Display for PathTooLong {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "link path exceeds {} links", LinkPath::CAPACITY)
    }
}

impl std::error::Error for PathTooLong {}

impl LinkPath {
    /// Most links one path holds.
    pub const CAPACITY: usize = 16;

    /// The empty path.
    pub const fn new() -> LinkPath {
        LinkPath {
            len: 0,
            links: [LinkId(0); LinkPath::CAPACITY],
        }
    }

    /// Append `links` in order; all or nothing.
    pub fn extend_from_slice(&mut self, links: &[LinkId]) -> Result<(), PathTooLong> {
        let start = usize::from(self.len);
        let end = start + links.len();
        let dst = self.links.get_mut(start..end).ok_or(PathTooLong)?;
        dst.copy_from_slice(links);
        self.len = u8::try_from(end).map_err(|_| PathTooLong)?;
        Ok(())
    }
}

impl Default for LinkPath {
    fn default() -> Self {
        LinkPath::new()
    }
}

impl std::ops::Deref for LinkPath {
    type Target = [LinkId];

    #[inline]
    fn deref(&self) -> &[LinkId] {
        self.links.get(..usize::from(self.len)).unwrap_or_default()
    }
}

impl AsRef<[LinkId]> for LinkPath {
    fn as_ref(&self) -> &[LinkId] {
        self
    }
}

impl IntoIterator for LinkPath {
    type Item = LinkId;
    type IntoIter = std::iter::Take<std::array::IntoIter<LinkId, { LinkPath::CAPACITY }>>;

    fn into_iter(self) -> Self::IntoIter {
        self.links.into_iter().take(usize::from(self.len))
    }
}

impl<'a> IntoIterator for &'a LinkPath {
    type Item = &'a LinkId;
    type IntoIter = std::slice::Iter<'a, LinkId>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Compile-time proof that an `N`-link array fits a [`LinkPath`].
struct Fits<const N: usize>;

impl<const N: usize> Fits<N> {
    const OK: () = assert!(
        N <= LinkPath::CAPACITY,
        "array longer than LinkPath::CAPACITY"
    );
}

/// Builds a path of at most [`LinkPath::CAPACITY`] links; a longer array
/// does not compile.
impl<const N: usize> From<[LinkId; N]> for LinkPath {
    fn from(links: [LinkId; N]) -> LinkPath {
        let () = Fits::<N>::OK;
        let mut path = LinkPath::new();
        // Cannot fail: `Fits` checked the length at compile time.
        let _ = path.extend_from_slice(&links);
        path
    }
}

impl PartialEq for LinkPath {
    fn eq(&self, other: &LinkPath) -> bool {
        **self == **other
    }
}

impl Eq for LinkPath {}

impl std::fmt::Debug for LinkPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Identifies a flow inside one [`FlowNet`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FlowId(pub u64);

/// Rate constraints for a new flow. All rates are bytes/second.
#[derive(Clone, Copy, Debug)]
pub struct FlowOptions {
    /// Guaranteed minimum rate (0 = best effort).
    pub floor: f64,
    /// Maximum rate (`f64::INFINITY` = unlimited).
    pub cap: f64,
    /// Share of idle bandwidth relative to other flows (default 1.0).
    pub weight: f64,
}

impl Default for FlowOptions {
    fn default() -> Self {
        FlowOptions {
            floor: 0.0,
            cap: f64::INFINITY,
            weight: 1.0,
        }
    }
}

/// A unidirectional interconnect edge.
#[derive(Clone, Debug)]
struct Link {
    name: String,
    capacity: f64,
    /// Slot indices of flows whose path crosses this link (a flow appears
    /// once per path occurrence). Maintained incrementally; *not* ordered.
    members: Vec<u32>,
    /// Aggregate allocated rate of `members`, maintained by every refill
    /// that touches this link. Makes `link_utilization` O(1).
    rate_sum: f64,
}

/// Sentinel id marking a free slab slot.
const FREE: u64 = u64::MAX;

#[derive(Clone, Debug)]
struct Slot {
    /// External flow id, or [`FREE`].
    id: u64,
    path: Vec<LinkId>,
    /// For each entry of `path`: this flow's index in that link's `members`
    /// list (kept in sync under swap-removal).
    member_pos: Vec<u32>,
    /// Bytes left as of `settled_at`.
    remaining: f64,
    rate: f64,
    floor: f64,
    /// Requested cap, normalised to a positive value or `INFINITY` (a
    /// non-positive or NaN cap would stall the flow forever; it is treated
    /// as "uncapped"). The *effective* cap is `cap.max(floor)`: the SLO
    /// floor is a guarantee and dominates a contradictory throttle.
    cap: f64,
    weight: f64,
    /// Instant at which `remaining` was last materialised.
    settled_at: SimTime,
    /// Version of the last refill that assigned `rate`; completion-heap
    /// entries carrying an older stamp are stale.
    stamp: u64,
}

impl Slot {
    #[inline]
    fn effective_cap(&self) -> f64 {
        self.cap.max(self.floor)
    }

    /// Bytes left when projected forward to `now` at the current rate.
    #[inline]
    fn remaining_at(&self, now: SimTime) -> f64 {
        if now <= self.settled_at {
            return self.remaining;
        }
        let dt = (now - self.settled_at).as_secs_f64();
        (self.remaining - self.rate * dt).max(0.0)
    }
}

/// Errors returned by [`FlowNet`] operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FlowNetError {
    /// A flow path must contain at least one link.
    EmptyPath,
    /// The referenced link does not exist.
    UnknownLink(LinkId),
    /// The referenced flow does not exist (already completed or cancelled).
    UnknownFlow(FlowId),
}

impl std::fmt::Display for FlowNetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowNetError::EmptyPath => write!(f, "flow path is empty"),
            FlowNetError::UnknownLink(l) => write!(f, "unknown link {l:?}"),
            FlowNetError::UnknownFlow(fl) => write!(f, "unknown flow {fl:?}"),
        }
    }
}

impl std::error::Error for FlowNetError {}

/// Below this many bytes a flow counts as finished (absorbs ns rounding).
pub(crate) const EPS_BYTES: f64 = 0.5;
/// Below this rate (bytes/s) an allocation increment counts as zero.
pub(crate) const EPS_RATE: f64 = 1.0;

/// Reusable buffers for component collection and progressive filling, so
/// steady-state recomputes allocate nothing.
#[derive(Default)]
struct Scratch {
    /// Component members (slot indices), sorted by external id before fill.
    comp_flows: Vec<u32>,
    /// Component links (global link indices), in discovery order.
    comp_links: Vec<u32>,
    /// Epoch stamps: slot visited during the current collection.
    flow_seen: Vec<u64>,
    /// Epoch stamps: link visited during the current collection.
    link_seen: Vec<u64>,
    /// Epoch of the current collection.
    epoch: u64,
    /// Global link index → local index into `comp_links` (epoch-checked).
    link_local: Vec<u32>,
    /// Global slot index → local index into `comp_flows` (valid post-sort).
    flow_local: Vec<u32>,
    // Per-fill SoA mirrors of the component's flows.
    rate: Vec<f64>,
    frozen: Vec<bool>,
    scale: Vec<f64>,
    floor: Vec<f64>,
    eff_cap: Vec<f64>,
    weight: Vec<f64>,
    // CSR of per-link member lists (local flow indices, ascending id).
    csr_start: Vec<u32>,
    csr_entries: Vec<u32>,
    /// Per-link write cursor during CSR construction (recycled per fill).
    csr_cursor: Vec<u32>,
    /// Harvest/removal buffers recycled across completion waves.
    harvest: Vec<u32>,
    freed_links: Vec<u32>,
}

/// Deferred-recompute state for a batch of same-instant updates.
#[derive(Default)]
struct Batch {
    depth: u32,
    /// Slots whose constraints/paths changed (validated at commit).
    seed_flows: Vec<u32>,
    /// Links whose membership or capacity changed.
    seed_links: Vec<u32>,
}

/// The flow-level network simulator.
///
/// Time does not advance by itself: the owner calls [`FlowNet::advance_to`]
/// (typically from a scheduled event at [`FlowNet::next_completion`]) to
/// settle progress and harvest completed flows.
///
/// # Examples
///
/// ```
/// use grouter_sim::{FlowNet, FlowOptions, SimTime};
///
/// let mut net = FlowNet::new();
/// let pcie = net.add_link("pcie", 12e9); // 12 GB/s
/// let flow = net
///     .start_flow(SimTime::ZERO, vec![pcie], 120e6, FlowOptions::default())
///     .unwrap();
/// // 120 MB over 12 GB/s → 10 ms.
/// let done_at = net.next_completion().unwrap();
/// assert_eq!(net.advance_to(done_at), vec![flow]);
/// assert!((done_at.as_millis_f64() - 10.0).abs() < 0.01);
/// ```
pub struct FlowNet {
    links: Vec<Link>,
    slots: Vec<Slot>,
    free_slots: Vec<u32>,
    /// External id → slot index. Touched only at the API boundary; all hot
    /// loops run on slot indices.
    id_index: FxHashMap<u64, u32>,
    live_flows: usize,
    now: SimTime,
    next_id: u64,
    version: u64,
    /// Min-heap of `(completion ns, flow id, stamp)` projections. Entries
    /// are lazily discarded when the flow is gone or was re-stamped.
    completions: BinaryHeap<Reverse<(u64, u64, u64)>>,
    scratch: Scratch,
    batch: Batch,
    /// Observability handle ([`FlowNet::set_recorder`]); disabled by
    /// default, so the per-recompute cost is one atomic load.
    rec: grouter_obs::Recorder,
}

impl Default for FlowNet {
    fn default() -> Self {
        Self::new()
    }
}

impl FlowNet {
    pub fn new() -> Self {
        FlowNet {
            links: Vec::new(),
            slots: Vec::new(),
            free_slots: Vec::new(),
            id_index: FxHashMap::default(),
            live_flows: 0,
            now: SimTime::ZERO,
            next_id: 0,
            version: 0,
            completions: BinaryHeap::new(),
            scratch: Scratch::default(),
            batch: Batch::default(),
            rec: grouter_obs::Recorder::disabled(),
        }
    }

    /// Attach an observability recorder; rate-reallocation waves are then
    /// emitted as `net.realloc_wave` instants (when [`grouter_obs::Comp::Net`]
    /// is enabled in the recorder's mask).
    pub fn set_recorder(&mut self, rec: grouter_obs::Recorder) {
        self.rec = rec;
    }

    /// Register a link with `capacity` bytes/second.
    ///
    /// # Panics
    /// Panics if `capacity` is not strictly positive and finite: a
    /// zero-capacity link would deadlock every flow routed over it.
    pub fn add_link(&mut self, name: impl Into<String>, capacity: f64) -> LinkId {
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "link capacity must be positive and finite"
        );
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link {
            name: name.into(),
            capacity,
            members: Vec::new(),
            rate_sum: 0.0,
        });
        self.scratch.link_seen.push(0);
        self.scratch.link_local.push(0);
        id
    }

    /// Capacity of `link` in bytes/second.
    pub fn link_capacity(&self, link: LinkId) -> f64 {
        self.links[link.0 as usize].capacity
    }

    /// Human-readable link name (for diagnostics).
    pub fn link_name(&self, link: LinkId) -> &str {
        &self.links[link.0 as usize].name
    }

    /// Number of registered links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Number of in-flight flows.
    pub fn num_flows(&self) -> usize {
        self.live_flows
    }

    /// Monotone counter bumped whenever any rate may have changed. Event
    /// handlers snapshot it to detect stale wake-ups.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Current settle point of the model.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Defer rate recomputation until the matching [`FlowNet::commit_batch`].
    ///
    /// Use around a burst of same-instant updates (starting every flow of a
    /// multi-path plan, applying a set of reroutes): the allocator then runs
    /// progressive filling once over the union of affected contention
    /// components instead of once per call. Batches nest; only the
    /// outermost commit recomputes. Rates and completion estimates read
    /// between `begin_batch` and `commit_batch` are stale, and
    /// [`FlowNet::advance_to`] must not be called inside a batch.
    pub fn begin_batch(&mut self) {
        self.batch.depth += 1;
    }

    /// Close the current batch; on the outermost close, recompute the union
    /// of all contention components touched since [`FlowNet::begin_batch`].
    pub fn commit_batch(&mut self) {
        assert!(self.batch.depth > 0, "commit_batch without begin_batch");
        self.batch.depth -= 1;
        if self.batch.depth > 0 {
            return;
        }
        let mut seed_flows = std::mem::take(&mut self.batch.seed_flows);
        let mut seed_links = std::mem::take(&mut self.batch.seed_links);
        if !seed_flows.is_empty() || !seed_links.is_empty() {
            // A slot recorded as a seed may have been cancelled (and
            // possibly reused) later in the same batch; freed slots are
            // skipped — their links were recorded separately at removal
            // time.
            seed_flows.retain(|&s| self.slots[s as usize].id != FREE);
            self.recompute_scoped(&seed_flows, &seed_links);
        }
        // Recycle the seed buffers for the next batch.
        seed_flows.clear();
        seed_links.clear();
        self.batch.seed_flows = seed_flows;
        self.batch.seed_links = seed_links;
    }

    /// Start transferring `bytes` over `path`. Progress is settled to `now`
    /// first, then rates are recomputed for the affected contention
    /// component. The path is copied into a recycled slot buffer, so a
    /// steady-state start allocates nothing.
    pub fn start_flow(
        &mut self,
        now: SimTime,
        path: impl AsRef<[LinkId]>,
        bytes: f64,
        opts: FlowOptions,
    ) -> Result<FlowId, FlowNetError> {
        let path = path.as_ref();
        self.check_path(path)?;
        self.advance_clock(now);
        let id = self.next_id;
        self.next_id += 1;
        let slot_idx = self.alloc_slot(id, path, bytes, opts);
        self.attach_members(slot_idx);
        self.id_index.insert(id, slot_idx);
        self.live_flows += 1;
        self.recompute_scoped(&[slot_idx], &[]);
        Ok(FlowId(id))
    }

    /// Abort a flow; remaining bytes are discarded.
    pub fn cancel_flow(&mut self, now: SimTime, id: FlowId) -> Result<(), FlowNetError> {
        let slot = *self
            .id_index
            .get(&id.0)
            .ok_or(FlowNetError::UnknownFlow(id))?;
        self.advance_clock(now);
        self.remove_flows(&[slot]);
        Ok(())
    }

    /// Change a flow's guaranteed floor (SLO re-negotiation).
    pub fn set_floor(&mut self, now: SimTime, id: FlowId, floor: f64) -> Result<(), FlowNetError> {
        let slot = *self
            .id_index
            .get(&id.0)
            .ok_or(FlowNetError::UnknownFlow(id))?;
        self.advance_clock(now);
        self.settle_slot(slot);
        self.slots[slot as usize].floor = floor.max(0.0);
        self.recompute_scoped(&[slot], &[]);
        Ok(())
    }

    /// Change a flow's rate cap (bandwidth partitioning).
    ///
    /// Non-positive caps are normalised to "uncapped", and a cap below the
    /// flow's floor is dominated by the floor: a literal `cap = 0` would
    /// otherwise leave the flow with `remaining > 0`, `rate = 0` and no
    /// completion ever scheduled — a silent stall.
    pub fn set_cap(&mut self, now: SimTime, id: FlowId, cap: f64) -> Result<(), FlowNetError> {
        let slot = *self
            .id_index
            .get(&id.0)
            .ok_or(FlowNetError::UnknownFlow(id))?;
        self.advance_clock(now);
        self.settle_slot(slot);
        self.slots[slot as usize].cap = normalize_cap(cap);
        self.recompute_scoped(&[slot], &[]);
        Ok(())
    }

    /// Change a link's capacity mid-run (failure injection: congestion from
    /// co-tenants, link flaps, degraded lanes). Progress is settled first;
    /// rates of the link's contention component are recomputed against the
    /// new capacity.
    ///
    /// # Panics
    /// Panics if `capacity` is not strictly positive and finite (a dead link
    /// would deadlock its flows; model removal by rerouting instead).
    pub fn set_link_capacity(&mut self, now: SimTime, link: LinkId, capacity: f64) {
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "link capacity must be positive and finite"
        );
        self.advance_clock(now);
        self.links[link.0 as usize].capacity = capacity;
        self.recompute_scoped(&[], &[link.0]);
    }

    /// Move an in-flight flow onto a new link path (topology-aware
    /// rebalancing, paper §4.3.3: a function occupying a direct path as part
    /// of an indirect route can be reassigned to an alternative route).
    /// Progress is settled first; remaining bytes continue on the new path.
    /// Both the vacated and the newly joined contention components are
    /// recomputed.
    pub fn reroute_flow(
        &mut self,
        now: SimTime,
        id: FlowId,
        new_path: impl AsRef<[LinkId]>,
    ) -> Result<(), FlowNetError> {
        let new_path = new_path.as_ref();
        self.check_path(new_path)?;
        let slot = *self
            .id_index
            .get(&id.0)
            .ok_or(FlowNetError::UnknownFlow(id))?;
        self.advance_clock(now);
        self.settle_slot(slot);
        let mut old_links = std::mem::take(&mut self.scratch.freed_links);
        old_links.clear();
        old_links.extend(self.slots[slot as usize].path.iter().map(|l| l.0));
        self.detach_members(slot);
        {
            let s = &mut self.slots[slot as usize];
            s.path.clear();
            s.path.extend_from_slice(new_path);
        }
        self.attach_members(slot);
        self.recompute_scoped(&[slot], &old_links);
        old_links.clear();
        self.scratch.freed_links = old_links;
        Ok(())
    }

    /// Change a flow's idle-bandwidth weight.
    pub fn set_weight(
        &mut self,
        now: SimTime,
        id: FlowId,
        weight: f64,
    ) -> Result<(), FlowNetError> {
        let slot = *self
            .id_index
            .get(&id.0)
            .ok_or(FlowNetError::UnknownFlow(id))?;
        self.advance_clock(now);
        self.settle_slot(slot);
        self.slots[slot as usize].weight = if weight > 0.0 { weight } else { 1.0 };
        self.recompute_scoped(&[slot], &[]);
        Ok(())
    }

    /// Current allocated rate of `id` in bytes/second.
    pub fn flow_rate(&self, id: FlowId) -> Result<f64, FlowNetError> {
        self.id_index
            .get(&id.0)
            .map(|&s| self.slots[s as usize].rate)
            .ok_or(FlowNetError::UnknownFlow(id))
    }

    /// Bytes not yet delivered for `id`, projected to the current instant.
    pub fn flow_remaining(&self, id: FlowId) -> Result<f64, FlowNetError> {
        self.id_index
            .get(&id.0)
            .map(|&s| self.slots[s as usize].remaining_at(self.now))
            .ok_or(FlowNetError::UnknownFlow(id))
    }

    /// Aggregate rate currently crossing `link`. O(1): maintained by every
    /// refill touching the link.
    pub fn link_utilization(&self, link: LinkId) -> f64 {
        self.links[link.0 as usize].rate_sum
    }

    /// Earliest instant at which some flow completes, or `None` when no flow
    /// is making progress. Lazily discards stale heap entries.
    pub fn next_completion(&mut self) -> Option<SimTime> {
        debug_assert!(self.batch.depth == 0, "next_completion inside a batch");
        while let Some(&Reverse((at, id, stamp))) = self.completions.peek() {
            match self.id_index.get(&id) {
                Some(&s) if self.slots[s as usize].stamp == stamp => {
                    // Completions projected from an older settle point never
                    // report earlier than the current settle point.
                    return Some(SimTime(at.max(self.now.0)));
                }
                _ => {
                    self.completions.pop();
                }
            }
        }
        None
    }

    /// Advance the model to `now`, returning the flows that completed (in
    /// ascending `FlowId` order). Completed flows are removed; the affected
    /// contention components are recomputed.
    pub fn advance_to(&mut self, now: SimTime) -> Vec<FlowId> {
        let mut out = Vec::new();
        self.advance_to_into(now, &mut out);
        out
    }

    /// [`FlowNet::advance_to`] into a caller-owned buffer: the whole batch
    /// of flows completing by `now` is appended to `out` (ascending
    /// `FlowId`), so a steady-state caller recycling its buffer harvests a
    /// completion wave without allocating.
    pub fn advance_to_into(&mut self, now: SimTime, out: &mut Vec<FlowId>) {
        assert!(self.batch.depth == 0, "advance_to inside a batch");
        self.advance_clock(now);
        let horizon = self.now.0;
        let start = out.len();
        // A harvest frees bandwidth, which can push a peer's projected
        // completion down to this very instant — loop until quiescent.
        // The harvest buffer is recycled across waves (taken out of scratch
        // so `remove_flows` can borrow the rest of `self`).
        let mut harvested = std::mem::take(&mut self.scratch.harvest);
        loop {
            harvested.clear();
            while let Some(&Reverse((at, id, stamp))) = self.completions.peek() {
                if at > horizon {
                    break;
                }
                self.completions.pop();
                if let Some(&s) = self.id_index.get(&id) {
                    if self.slots[s as usize].stamp == stamp {
                        harvested.push(s);
                    }
                }
            }
            if harvested.is_empty() {
                break;
            }
            for &s in &harvested {
                out.push(FlowId(self.slots[s as usize].id));
            }
            self.remove_flows(&harvested);
        }
        harvested.clear();
        self.scratch.harvest = harvested;
        out[start..].sort_unstable();
    }

    // -- internals ----------------------------------------------------------

    /// Move the settle point forward (never backwards). Individual flows
    /// settle lazily when their component is next recomputed.
    #[inline]
    fn advance_clock(&mut self, now: SimTime) {
        if now > self.now {
            self.now = now;
        }
    }

    /// Materialise one flow's progress at the current settle point.
    #[inline]
    fn settle_slot(&mut self, slot: u32) {
        let now = self.now;
        let s = &mut self.slots[slot as usize];
        if s.settled_at < now {
            let dt = (now - s.settled_at).as_secs_f64();
            s.remaining = (s.remaining - s.rate * dt).max(0.0);
            s.settled_at = now;
        }
    }

    /// Fill a free slot with a new flow (members not yet attached). A
    /// recycled slot keeps its `path` and `member_pos` buffers (cleared on
    /// removal), sized on creation for any [`LinkPath`], so steady-state
    /// starts allocate nothing.
    fn alloc_slot(&mut self, id: u64, path: &[LinkId], bytes: f64, opts: FlowOptions) -> u32 {
        let idx = match self.free_slots.pop() {
            Some(idx) => idx,
            None => {
                self.slots.push(Slot {
                    id: FREE,
                    path: Vec::with_capacity(LinkPath::CAPACITY),
                    member_pos: Vec::with_capacity(LinkPath::CAPACITY),
                    remaining: 0.0,
                    rate: 0.0,
                    floor: 0.0,
                    cap: f64::INFINITY,
                    weight: 1.0,
                    settled_at: SimTime::ZERO,
                    stamp: 0,
                });
                self.scratch.flow_seen.push(0);
                self.scratch.flow_local.push(0);
                (self.slots.len() - 1) as u32
            }
        };
        let s = &mut self.slots[idx as usize];
        s.id = id;
        s.path.clear();
        s.path.extend_from_slice(path);
        s.remaining = bytes.max(0.0);
        s.rate = 0.0;
        s.floor = opts.floor.max(0.0);
        s.cap = normalize_cap(opts.cap);
        s.weight = if opts.weight > 0.0 { opts.weight } else { 1.0 };
        s.settled_at = self.now;
        s.stamp = 0;
        idx
    }

    /// A flow path must be non-empty and name only known links.
    fn check_path(&self, path: &[LinkId]) -> Result<(), FlowNetError> {
        if path.is_empty() {
            return Err(FlowNetError::EmptyPath);
        }
        match path.iter().find(|l| l.0 as usize >= self.links.len()) {
            Some(&l) => Err(FlowNetError::UnknownLink(l)),
            None => Ok(()),
        }
    }

    /// Insert `slot` into the member list of every link on its path,
    /// recording positions for O(1) removal.
    fn attach_members(&mut self, slot: u32) {
        let path = std::mem::take(&mut self.slots[slot as usize].path);
        let mut member_pos = std::mem::take(&mut self.slots[slot as usize].member_pos);
        member_pos.clear();
        for &LinkId(l) in &path {
            let members = &mut self.links[l as usize].members;
            member_pos.push(members.len() as u32);
            members.push(slot);
        }
        let s = &mut self.slots[slot as usize];
        s.path = path;
        s.member_pos = member_pos;
    }

    /// Remove `slot` from every member list on its path via swap-removal,
    /// patching the displaced flow's recorded position.
    fn detach_members(&mut self, slot: u32) {
        let path = std::mem::take(&mut self.slots[slot as usize].path);
        let mut member_pos = std::mem::take(&mut self.slots[slot as usize].member_pos);
        for (k, &LinkId(l)) in path.iter().enumerate() {
            let pos = member_pos[k] as usize;
            let members = &mut self.links[l as usize].members;
            debug_assert_eq!(members[pos], slot);
            members.swap_remove(pos);
            if pos < members.len() {
                let moved = members[pos];
                let old_last = members.len() as u32;
                if moved == slot {
                    // A duplicate link in our own path: patch the local copy.
                    for (kk, &LinkId(ll)) in path.iter().enumerate() {
                        if ll == l && member_pos[kk] == old_last {
                            member_pos[kk] = pos as u32;
                            break;
                        }
                    }
                } else {
                    let ms = &mut self.slots[moved as usize];
                    for (kk, &LinkId(ll)) in ms.path.iter().enumerate() {
                        if ll == l && ms.member_pos[kk] == old_last {
                            ms.member_pos[kk] = pos as u32;
                            break;
                        }
                    }
                }
            }
        }
        let s = &mut self.slots[slot as usize];
        s.path = path;
        s.member_pos = member_pos;
    }

    /// Remove a set of live flows and recompute the contention components
    /// they leave behind.
    fn remove_flows(&mut self, removed: &[u32]) {
        // Collect the affected links before the membership edits (into a
        // recycled buffer — completion waves are too frequent to allocate).
        let mut freed_links = std::mem::take(&mut self.scratch.freed_links);
        freed_links.clear();
        for &s in removed {
            freed_links.extend(self.slots[s as usize].path.iter().map(|l| l.0));
        }
        for &s in removed {
            self.detach_members(s);
            let slot = &mut self.slots[s as usize];
            let id = slot.id;
            slot.id = FREE;
            slot.path.clear();
            slot.member_pos.clear();
            slot.rate = 0.0;
            self.id_index.remove(&id);
            self.free_slots.push(s);
            self.live_flows -= 1;
        }
        if self.batch.depth > 0 {
            self.batch.seed_links.extend_from_slice(&freed_links);
        } else {
            self.recompute_scoped(&[], &freed_links);
        }
        freed_links.clear();
        self.scratch.freed_links = freed_links;
    }

    /// Recompute rates for the union of contention components reachable from
    /// `seed_flows` (live slots) and `seed_links`, leaving every other
    /// component untouched. Under an open batch, only records the seeds.
    fn recompute_scoped(&mut self, seed_flows: &[u32], seed_links: &[u32]) {
        if self.batch.depth > 0 {
            self.batch.seed_flows.extend_from_slice(seed_flows);
            self.batch.seed_links.extend_from_slice(seed_links);
            return;
        }
        self.version += 1;
        self.collect_component(seed_flows, seed_links);
        self.refill_component();
        self.maybe_compact_completions();
        if self.rec.on(grouter_obs::Comp::Net) {
            self.emit_realloc_wave();
        }
        #[cfg(feature = "audit")]
        self.audit_recompute();
    }

    /// One `net.realloc_wave` instant per progressive-filling pass: how many
    /// flows/links the contention component spanned and the post-fill
    /// aggregate rate, the quantities that explain why a transfer's rate
    /// moved (cold path — only reached when `Comp::Net` tracing is on).
    fn emit_realloc_wave(&self) {
        let mut rate_sum = 0.0;
        for &s in &self.scratch.comp_flows {
            rate_sum += self.slots[s as usize].rate;
        }
        self.rec.instant(
            grouter_obs::Comp::Net,
            "realloc_wave",
            grouter_obs::Ids::NONE,
            vec![
                ("flows", self.scratch.comp_flows.len().into()),
                ("links", self.scratch.comp_links.len().into()),
                ("version", self.version.into()),
                ("rate_sum", rate_sum.into()),
            ],
        );
        self.rec.count(grouter_obs::Comp::Net, "realloc_waves", 1);
        self.rec.sample(
            grouter_obs::Comp::Net,
            "component_flows",
            self.scratch.comp_flows.len() as u64,
        );
    }

    /// Post-recompute invariants (`--features audit`): per-link capacity
    /// respected and aggregates coherent (every recompute, scoped to the
    /// component just touched), slab/heap coherence and the fairness oracle
    /// (sampled — see the `grouter-audit` crate's deterministic sampler).
    #[cfg(feature = "audit")]
    fn audit_recompute(&self) {
        grouter_audit::record_hit("flownet.link_caps");
        for &l in &self.scratch.comp_links {
            let link = &self.links[l as usize];
            let sum: f64 = link
                .members
                .iter()
                .map(|&m| self.slots[m as usize].rate)
                .sum();
            let tol = EPS_RATE * (link.members.len() as f64 + 1.0);
            grouter_audit::check("flownet.link_caps", sum <= link.capacity + tol, || {
                format!(
                    "link {} allocated {sum} over capacity {}",
                    link.name, link.capacity
                )
            });
            grouter_audit::check(
                "flownet.link_caps",
                (link.rate_sum - sum).abs() <= tol,
                || {
                    format!(
                        "link {} aggregate {} diverged from member sum {sum}",
                        link.name, link.rate_sum
                    )
                },
            );
        }

        if grouter_audit::every("flownet.slab", 8) {
            let live = self.slots.iter().filter(|s| s.id != FREE).count();
            grouter_audit::check(
                "flownet.slab",
                live == self.live_flows && live == self.id_index.len(),
                || {
                    format!(
                        "live slots {live}, live_flows {}, id_index {}",
                        self.live_flows,
                        self.id_index.len()
                    )
                },
            );
            // Sorted so a corrupt slab aborts naming the same flow each run.
            let mut index: Vec<(u64, u32)> = self.id_index.iter().map(|(&i, &s)| (i, s)).collect();
            index.sort_unstable();
            for (id, slot) in index {
                grouter_audit::check(
                    "flownet.slab",
                    self.slots.get(slot as usize).map(|s| s.id) == Some(id),
                    || format!("flow {id} indexed at slot {slot} which holds another flow"),
                );
            }
            for &f in &self.free_slots {
                grouter_audit::check("flownet.slab", self.slots[f as usize].id == FREE, || {
                    format!("free-listed slot {f} holds a live flow")
                });
            }
        }

        if grouter_audit::every("flownet.heap", 8) {
            // Every live flow that is due a wake-up (progressing, or already
            // drained) must have a projection under its current stamp —
            // otherwise its completion event is lost forever.
            let fresh: std::collections::BTreeSet<(u64, u64)> = self
                .completions
                .iter()
                .map(|&Reverse((_, id, stamp))| (id, stamp))
                .collect();
            for slot in &self.slots {
                if slot.id == FREE || (slot.rate <= EPS_RATE && slot.remaining > EPS_BYTES) {
                    continue;
                }
                grouter_audit::check(
                    "flownet.heap",
                    fresh.contains(&(slot.id, slot.stamp)),
                    || {
                        format!(
                            "flow {} (stamp {}) has no completion projection",
                            slot.id, slot.stamp
                        )
                    },
                );
            }
        }

        // Replay small components through the full-recompute reference
        // allocator and require identical rates: the incremental allocator's
        // fairness must not drift from the oracle.
        if grouter_audit::every("flownet.fairness", 16) {
            let n = self.scratch.comp_flows.len();
            if n > 0 && n <= 64 {
                let mut reference = crate::flownet_ref::ReferenceNet::new();
                let mut local = vec![u32::MAX; self.links.len()];
                for &l in &self.scratch.comp_links {
                    local[l as usize] = reference.add_link("", self.links[l as usize].capacity).0;
                }
                // `comp_flows` is sorted by ascending external id, so the
                // oracle's BTreeMap iteration (and its floating-point
                // accumulation order) matches the component's.
                for &s in &self.scratch.comp_flows {
                    let slot = &self.slots[s as usize];
                    let path: Vec<LinkId> = slot
                        .path
                        .iter()
                        .map(|&LinkId(l)| LinkId(local[l as usize]))
                        .collect();
                    let started = reference.start_flow(
                        self.now,
                        path,
                        slot.remaining,
                        FlowOptions {
                            floor: slot.floor,
                            cap: slot.cap,
                            weight: slot.weight,
                        },
                    );
                    grouter_audit::check("flownet.fairness", started.is_ok(), || {
                        format!("oracle rejected live flow {}'s path", slot.id)
                    });
                }
                for (i, &s) in self.scratch.comp_flows.iter().enumerate() {
                    let slot = &self.slots[s as usize];
                    let want = reference.flow_rate(FlowId(i as u64)).unwrap_or(f64::NAN);
                    let tol = 1e-6 * want.abs().max(1.0) + EPS_RATE;
                    grouter_audit::check(
                        "flownet.fairness",
                        (slot.rate - want).abs() <= tol,
                        || {
                            format!(
                                "flow {}: incremental rate {} vs reference {want}",
                                slot.id, slot.rate
                            )
                        },
                    );
                }
            }
        }
    }

    /// Flood-fill the contention component: flows pull in every link on
    /// their path, links pull in every member flow.
    fn collect_component(&mut self, seed_flows: &[u32], seed_links: &[u32]) {
        let scratch = &mut self.scratch;
        scratch.epoch += 1;
        let epoch = scratch.epoch;
        scratch.comp_flows.clear();
        scratch.comp_links.clear();
        for &s in seed_flows {
            if scratch.flow_seen[s as usize] != epoch {
                scratch.flow_seen[s as usize] = epoch;
                scratch.comp_flows.push(s);
            }
        }
        for &l in seed_links {
            if scratch.link_seen[l as usize] != epoch {
                scratch.link_seen[l as usize] = epoch;
                scratch.comp_links.push(l);
            }
        }
        let mut next_flow = 0usize;
        let mut next_link = 0usize;
        loop {
            if next_link < scratch.comp_links.len() {
                let l = scratch.comp_links[next_link];
                next_link += 1;
                for &m in &self.links[l as usize].members {
                    if scratch.flow_seen[m as usize] != epoch {
                        scratch.flow_seen[m as usize] = epoch;
                        scratch.comp_flows.push(m);
                    }
                }
                continue;
            }
            if next_flow < scratch.comp_flows.len() {
                let f = scratch.comp_flows[next_flow];
                next_flow += 1;
                for &LinkId(l) in &self.slots[f as usize].path {
                    if scratch.link_seen[l as usize] != epoch {
                        scratch.link_seen[l as usize] = epoch;
                        scratch.comp_links.push(l);
                    }
                }
                continue;
            }
            break;
        }
        // Normalise member order to ascending external id: allocation (and
        // its floating-point accumulation order) must not depend on the
        // history of slab reuse.
        let slots = &self.slots;
        scratch
            .comp_flows
            .sort_unstable_by_key(|&s| slots[s as usize].id);
    }

    /// Weighted max-min progressive filling over the collected component
    /// (see `collect_component`), then write-back: rates, per-link
    /// aggregates, completion-heap entries.
    ///
    /// 1. Every flow starts at its floor (scaled down proportionally on links
    ///    where floors alone oversubscribe capacity — the admission controller
    ///    should prevent this, but the model stays robust if it does not).
    /// 2. Progressive filling: all unfrozen flows gain rate in proportion to
    ///    their weight until a link saturates or a flow hits its cap; binding
    ///    flows freeze; repeat.
    fn refill_component(&mut self) {
        let scratch = &mut self.scratch;
        let n = scratch.comp_flows.len();
        let version = self.version;
        let now = self.now;

        // Settle members to the current instant; their rates change below.
        for &s in &scratch.comp_flows {
            let slot = &mut self.slots[s as usize];
            if slot.settled_at < now {
                let dt = (now - slot.settled_at).as_secs_f64();
                slot.remaining = (slot.remaining - slot.rate * dt).max(0.0);
                slot.settled_at = now;
            }
        }

        if n == 0 {
            // Links may still need their aggregates zeroed (e.g. the last
            // member of a link was cancelled).
            for &l in &scratch.comp_links {
                debug_assert!(self.links[l as usize].members.is_empty());
                self.links[l as usize].rate_sum = 0.0;
            }
            return;
        }

        // SoA mirrors + local indices.
        scratch.rate.clear();
        scratch.frozen.clear();
        scratch.scale.clear();
        scratch.floor.clear();
        scratch.eff_cap.clear();
        scratch.weight.clear();
        for (local, &s) in scratch.comp_flows.iter().enumerate() {
            let slot = &self.slots[s as usize];
            scratch.flow_local[s as usize] = local as u32;
            scratch.rate.push(0.0);
            scratch.frozen.push(false);
            scratch.scale.push(1.0);
            scratch.floor.push(slot.floor);
            scratch.eff_cap.push(slot.effective_cap());
            scratch.weight.push(slot.weight);
        }

        // CSR of per-link member lists in ascending-id order (flow-major
        // construction over the sorted component preserves it, including
        // duplicate entries for a path that crosses a link twice).
        for (li, &l) in scratch.comp_links.iter().enumerate() {
            scratch.link_local[l as usize] = li as u32;
        }
        scratch.csr_start.clear();
        scratch.csr_start.resize(scratch.comp_links.len() + 1, 0);
        for &s in &scratch.comp_flows {
            for &LinkId(l) in &self.slots[s as usize].path {
                scratch.csr_start[scratch.link_local[l as usize] as usize + 1] += 1;
            }
        }
        for li in 1..scratch.csr_start.len() {
            scratch.csr_start[li] += scratch.csr_start[li - 1];
        }
        scratch.csr_entries.clear();
        scratch
            .csr_entries
            .resize(scratch.csr_start.last().copied().unwrap_or(0) as usize, 0);
        scratch.csr_cursor.clear();
        scratch
            .csr_cursor
            .extend_from_slice(&scratch.csr_start[..scratch.comp_links.len()]);
        for (local, &s) in scratch.comp_flows.iter().enumerate() {
            for &LinkId(l) in &self.slots[s as usize].path {
                let li = scratch.link_local[l as usize] as usize;
                scratch.csr_entries[scratch.csr_cursor[li] as usize] = local as u32;
                scratch.csr_cursor[li] += 1;
            }
        }
        let members_of = |scratch: &Scratch, li: usize| -> std::ops::Range<usize> {
            scratch.csr_start[li] as usize..scratch.csr_start[li + 1] as usize
        };

        // Step 1: floors, with proportional scaling on oversubscribed links.
        for (li, &l) in scratch.comp_links.iter().enumerate() {
            let capacity = self.links[l as usize].capacity;
            let r = members_of(scratch, li);
            let total_floor: f64 = scratch.csr_entries[r.clone()]
                .iter()
                .map(|&i| scratch.floor[i as usize])
                .sum();
            if total_floor > capacity {
                let factor = capacity / total_floor;
                for e in r {
                    let i = scratch.csr_entries[e] as usize;
                    scratch.scale[i] = scratch.scale[i].min(factor);
                }
            }
        }
        for (i, &s) in scratch.comp_flows.iter().enumerate() {
            scratch.rate[i] = (scratch.floor[i] * scratch.scale[i]).min(scratch.eff_cap[i]);
            if scratch.eff_cap[i] - scratch.rate[i] <= EPS_RATE
                || self.slots[s as usize].remaining <= EPS_BYTES
            {
                scratch.frozen[i] = true;
            }
        }

        // Step 2: progressive filling of the idle bandwidth.
        // Each iteration freezes at least one flow, so it terminates.
        loop {
            if scratch.frozen.iter().all(|&f| f) {
                break;
            }
            // Residual capacity and active weight per link.
            let mut limiting_inc = f64::INFINITY; // in rate-per-unit-weight
            for (li, &l) in scratch.comp_links.iter().enumerate() {
                let capacity = self.links[l as usize].capacity;
                let r = members_of(scratch, li);
                let mut used = 0.0;
                let mut active_weight = 0.0;
                for &i in &scratch.csr_entries[r] {
                    used += scratch.rate[i as usize];
                    if !scratch.frozen[i as usize] {
                        active_weight += scratch.weight[i as usize];
                    }
                }
                if active_weight > 0.0 {
                    let residual = (capacity - used).max(0.0);
                    limiting_inc = limiting_inc.min(residual / active_weight);
                }
            }
            // Cap headroom, in per-unit-weight terms.
            for i in 0..n {
                if !scratch.frozen[i] {
                    limiting_inc = limiting_inc
                        .min((scratch.eff_cap[i] - scratch.rate[i]) / scratch.weight[i]);
                }
            }
            if !limiting_inc.is_finite() {
                break;
            }
            if limiting_inc > 0.0 {
                for i in 0..n {
                    if !scratch.frozen[i] {
                        scratch.rate[i] += limiting_inc * scratch.weight[i];
                    }
                }
            }
            // Freeze flows bound by a saturated link or their cap.
            let mut any_frozen = false;
            for (li, &l) in scratch.comp_links.iter().enumerate() {
                let capacity = self.links[l as usize].capacity;
                let r = members_of(scratch, li);
                let used: f64 = scratch.csr_entries[r.clone()]
                    .iter()
                    .map(|&i| scratch.rate[i as usize])
                    .sum();
                if capacity - used <= EPS_RATE {
                    for e in r {
                        let i = scratch.csr_entries[e] as usize;
                        if !scratch.frozen[i] {
                            scratch.frozen[i] = true;
                            any_frozen = true;
                        }
                    }
                }
            }
            for i in 0..n {
                if !scratch.frozen[i] && scratch.eff_cap[i] - scratch.rate[i] <= EPS_RATE {
                    scratch.frozen[i] = true;
                    any_frozen = true;
                }
            }
            if !any_frozen {
                // Nothing binds (all remaining flows unconstrained with zero
                // residual everywhere) — freeze everything to terminate.
                break;
            }
        }

        // Write-back: rates, stamps, completion projections, per-link sums.
        for (i, &s) in scratch.comp_flows.iter().enumerate() {
            let slot = &mut self.slots[s as usize];
            slot.rate = scratch.rate[i];
            slot.stamp = version;
            if slot.remaining <= EPS_BYTES {
                self.completions.push(Reverse((now.0, slot.id, version)));
            } else if slot.rate > EPS_RATE {
                let done = now + SimDuration::from_secs_f64(slot.remaining / slot.rate);
                self.completions.push(Reverse((done.0, slot.id, version)));
            }
        }
        for (li, &l) in scratch.comp_links.iter().enumerate() {
            let r = members_of(scratch, li);
            self.links[l as usize].rate_sum = scratch.csr_entries[r]
                .iter()
                .map(|&i| scratch.rate[i as usize])
                .sum();
        }
    }

    /// Bound heap garbage: when stale entries dominate, rebuild from live
    /// flows (deterministic — derived from slab state only).
    fn maybe_compact_completions(&mut self) {
        if self.completions.len() < 1024 || self.completions.len() < 8 * self.live_flows {
            return;
        }
        let mut fresh = BinaryHeap::with_capacity(self.live_flows);
        for slot in &self.slots {
            if slot.id == FREE {
                continue;
            }
            if slot.remaining <= EPS_BYTES {
                fresh.push(Reverse((slot.settled_at.0, slot.id, slot.stamp)));
            } else if slot.rate > EPS_RATE {
                let done = slot.settled_at + SimDuration::from_secs_f64(slot.remaining / slot.rate);
                fresh.push(Reverse((done.0, slot.id, slot.stamp)));
            }
        }
        self.completions = fresh;
    }
}

/// Non-positive (or NaN) caps stall a flow forever; treat them as
/// "uncapped". Positive caps pass through — the floor dominates at
/// allocation time via `Slot::effective_cap`.
#[inline]
fn normalize_cap(cap: f64) -> f64 {
    if cap > 0.0 {
        cap
    } else {
        f64::INFINITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GB: f64 = 1e9;

    fn net_one_link(cap: f64) -> (FlowNet, LinkId) {
        let mut net = FlowNet::new();
        let l = net.add_link("l0", cap);
        (net, l)
    }

    #[test]
    fn single_flow_gets_full_capacity() {
        let (mut net, l) = net_one_link(10.0 * GB);
        let f = net
            .start_flow(SimTime::ZERO, vec![l], GB, FlowOptions::default())
            .unwrap();
        assert!((net.flow_rate(f).unwrap() - 10.0 * GB).abs() < 1.0);
        // 1 GB over 10 GB/s = 100 ms
        let done_at = net.next_completion().unwrap();
        assert!((done_at.as_millis_f64() - 100.0).abs() < 1e-3);
        let done = net.advance_to(done_at);
        assert_eq!(done, vec![f]);
        assert_eq!(net.num_flows(), 0);
    }

    #[test]
    fn two_flows_share_fairly() {
        let (mut net, l) = net_one_link(10.0 * GB);
        let f1 = net
            .start_flow(SimTime::ZERO, vec![l], GB, FlowOptions::default())
            .unwrap();
        let f2 = net
            .start_flow(SimTime::ZERO, vec![l], GB, FlowOptions::default())
            .unwrap();
        assert!((net.flow_rate(f1).unwrap() - 5.0 * GB).abs() < 2.0);
        assert!((net.flow_rate(f2).unwrap() - 5.0 * GB).abs() < 2.0);
    }

    #[test]
    fn flow_rate_recovers_after_departure() {
        let (mut net, l) = net_one_link(10.0 * GB);
        let f1 = net
            .start_flow(SimTime::ZERO, vec![l], GB, FlowOptions::default())
            .unwrap();
        let f2 = net
            .start_flow(SimTime::ZERO, vec![l], 0.5 * GB, FlowOptions::default())
            .unwrap();
        // f2 finishes first (same rate, half the bytes): at t=100ms.
        let t1 = net.next_completion().unwrap();
        assert_eq!(net.advance_to(t1), vec![f2]);
        // f1 has 0.5 GB left and now the full 10 GB/s.
        assert!((net.flow_rate(f1).unwrap() - 10.0 * GB).abs() < 2.0);
        let t2 = net.next_completion().unwrap();
        assert!((t2.as_millis_f64() - 150.0).abs() < 0.01);
    }

    #[test]
    fn path_limited_by_slowest_link() {
        let mut net = FlowNet::new();
        let fast = net.add_link("fast", 40.0 * GB);
        let slow = net.add_link("slow", 10.0 * GB);
        let f = net
            .start_flow(SimTime::ZERO, vec![fast, slow], GB, FlowOptions::default())
            .unwrap();
        assert!((net.flow_rate(f).unwrap() - 10.0 * GB).abs() < 2.0);
    }

    #[test]
    fn max_min_bottleneck_allocation() {
        // Classic example: flows A (link1), B (link1+link2), C (link2).
        // link1 = 10, link2 = 4 → B bottlenecked at 2 on link2 (shares with C),
        // A then gets 8 on link1, C gets 2.
        let mut net = FlowNet::new();
        let l1 = net.add_link("l1", 10.0);
        let l2 = net.add_link("l2", 4.0);
        let a = net
            .start_flow(SimTime::ZERO, vec![l1], 1e9, FlowOptions::default())
            .unwrap();
        let b = net
            .start_flow(SimTime::ZERO, vec![l1, l2], 1e9, FlowOptions::default())
            .unwrap();
        let c = net
            .start_flow(SimTime::ZERO, vec![l2], 1e9, FlowOptions::default())
            .unwrap();
        assert!((net.flow_rate(b).unwrap() - 2.0).abs() < 1e-6);
        assert!((net.flow_rate(c).unwrap() - 2.0).abs() < 1e-6);
        assert!((net.flow_rate(a).unwrap() - 8.0).abs() < 1e-6);
    }

    #[test]
    fn floor_is_guaranteed_under_contention() {
        let (mut net, l) = net_one_link(10.0 * GB);
        let slo = net
            .start_flow(
                SimTime::ZERO,
                vec![l],
                GB,
                FlowOptions {
                    floor: 8.0 * GB,
                    ..Default::default()
                },
            )
            .unwrap();
        // Four best-effort flows pile on.
        let mut others = Vec::new();
        for _ in 0..4 {
            others.push(
                net.start_flow(SimTime::ZERO, vec![l], GB, FlowOptions::default())
                    .unwrap(),
            );
        }
        let r = net.flow_rate(slo).unwrap();
        assert!(r >= 8.0 * GB - 1.0, "floor violated: {r}");
        // Idle 2 GB/s is split 5 ways (the SLO flow also competes for idle).
        let r0 = net.flow_rate(others[0]).unwrap();
        assert!(
            (r0 - 0.4 * GB).abs() < 10.0,
            "unexpected best-effort rate {r0}"
        );
    }

    #[test]
    fn cap_limits_rate() {
        let (mut net, l) = net_one_link(10.0 * GB);
        let capped = net
            .start_flow(
                SimTime::ZERO,
                vec![l],
                GB,
                FlowOptions {
                    cap: 2.0 * GB,
                    ..Default::default()
                },
            )
            .unwrap();
        let free = net
            .start_flow(SimTime::ZERO, vec![l], GB, FlowOptions::default())
            .unwrap();
        assert!(net.flow_rate(capped).unwrap() <= 2.0 * GB + 1.0);
        // The free flow gets the rest.
        assert!((net.flow_rate(free).unwrap() - 8.0 * GB).abs() < 2.0);
    }

    #[test]
    fn zero_cap_does_not_stall() {
        // Regression: a literal cap = 0 used to leave the flow with
        // remaining > 0, rate = 0, and no completion ever scheduled.
        let (mut net, l) = net_one_link(10.0 * GB);
        let f = net
            .start_flow(
                SimTime::ZERO,
                vec![l],
                GB,
                FlowOptions {
                    cap: 0.0,
                    ..Default::default()
                },
            )
            .unwrap();
        // Normalised to uncapped: full link rate, completes at 100 ms.
        assert!((net.flow_rate(f).unwrap() - 10.0 * GB).abs() < 2.0);
        let done = net.next_completion().expect("flow makes progress");
        assert!((done.as_millis_f64() - 100.0).abs() < 1e-3);
        assert_eq!(net.advance_to(done), vec![f]);
    }

    #[test]
    fn set_cap_zero_does_not_stall() {
        let (mut net, l) = net_one_link(10.0 * GB);
        let f = net
            .start_flow(SimTime::ZERO, vec![l], GB, FlowOptions::default())
            .unwrap();
        net.set_cap(SimTime::ZERO, f, 0.0).unwrap();
        assert!(net.next_completion().is_some(), "flow stalled by zero cap");
        assert!((net.flow_rate(f).unwrap() - 10.0 * GB).abs() < 2.0);
    }

    #[test]
    fn cap_below_floor_is_dominated_by_floor() {
        // The SLO floor is a guarantee; a contradictory throttle must not
        // starve the flow below it (which would also break the completion
        // estimate the SLO controller derives from the floor).
        let (mut net, l) = net_one_link(10.0 * GB);
        let f = net
            .start_flow(
                SimTime::ZERO,
                vec![l],
                GB,
                FlowOptions {
                    floor: 4.0 * GB,
                    cap: 1.0 * GB,
                    ..Default::default()
                },
            )
            .unwrap();
        let r = net.flow_rate(f).unwrap();
        assert!(r >= 4.0 * GB - 1.0, "floor violated by low cap: {r}");
    }

    #[test]
    fn weights_split_idle_bandwidth_proportionally() {
        let (mut net, l) = net_one_link(9.0 * GB);
        let heavy = net
            .start_flow(
                SimTime::ZERO,
                vec![l],
                GB,
                FlowOptions {
                    weight: 2.0,
                    ..Default::default()
                },
            )
            .unwrap();
        let light = net
            .start_flow(SimTime::ZERO, vec![l], GB, FlowOptions::default())
            .unwrap();
        assert!((net.flow_rate(heavy).unwrap() - 6.0 * GB).abs() < 2.0);
        assert!((net.flow_rate(light).unwrap() - 3.0 * GB).abs() < 2.0);
    }

    #[test]
    fn oversubscribed_floors_scale_down() {
        let (mut net, l) = net_one_link(10.0 * GB);
        let f1 = net
            .start_flow(
                SimTime::ZERO,
                vec![l],
                GB,
                FlowOptions {
                    floor: 8.0 * GB,
                    ..Default::default()
                },
            )
            .unwrap();
        let f2 = net
            .start_flow(
                SimTime::ZERO,
                vec![l],
                GB,
                FlowOptions {
                    floor: 12.0 * GB,
                    ..Default::default()
                },
            )
            .unwrap();
        let r1 = net.flow_rate(f1).unwrap();
        let r2 = net.flow_rate(f2).unwrap();
        // Total never exceeds capacity; floors shrink proportionally (8:12).
        assert!(r1 + r2 <= 10.0 * GB + 2.0);
        assert!((r1 / r2 - 8.0 / 12.0).abs() < 1e-3);
    }

    #[test]
    fn cancel_releases_bandwidth() {
        let (mut net, l) = net_one_link(10.0 * GB);
        let f1 = net
            .start_flow(SimTime::ZERO, vec![l], GB, FlowOptions::default())
            .unwrap();
        let f2 = net
            .start_flow(SimTime::ZERO, vec![l], GB, FlowOptions::default())
            .unwrap();
        net.cancel_flow(SimTime::ZERO, f2).unwrap();
        assert!((net.flow_rate(f1).unwrap() - 10.0 * GB).abs() < 2.0);
        assert_eq!(
            net.cancel_flow(SimTime::ZERO, f2),
            Err(FlowNetError::UnknownFlow(f2))
        );
    }

    #[test]
    fn partial_progress_is_settled_on_changes() {
        let (mut net, l) = net_one_link(10.0 * GB);
        let f1 = net
            .start_flow(SimTime::ZERO, vec![l], GB, FlowOptions::default())
            .unwrap();
        // At t=50ms, half the bytes have moved; a second flow arrives.
        let t = SimTime(50_000_000);
        let _f2 = net
            .start_flow(t, vec![l], GB, FlowOptions::default())
            .unwrap();
        let rem = net.flow_remaining(f1).unwrap();
        assert!((rem - 0.5 * GB).abs() < 1e3, "remaining {rem}");
        // f1 now needs 0.5 GB at 5 GB/s → completes at t=150ms.
        let done_at = net.next_completion().unwrap();
        assert!((done_at.as_millis_f64() - 150.0).abs() < 0.01);
    }

    #[test]
    fn zero_byte_flow_completes_immediately() {
        let (mut net, l) = net_one_link(10.0 * GB);
        let f = net
            .start_flow(SimTime::ZERO, vec![l], 0.0, FlowOptions::default())
            .unwrap();
        assert_eq!(net.next_completion(), Some(SimTime::ZERO));
        assert_eq!(net.advance_to(SimTime::ZERO), vec![f]);
    }

    #[test]
    fn empty_path_rejected() {
        let mut net = FlowNet::new();
        assert_eq!(
            net.start_flow(SimTime::ZERO, vec![], GB, FlowOptions::default()),
            Err(FlowNetError::EmptyPath)
        );
    }

    #[test]
    fn unknown_link_rejected() {
        let mut net = FlowNet::new();
        assert_eq!(
            net.start_flow(SimTime::ZERO, vec![LinkId(7)], GB, FlowOptions::default()),
            Err(FlowNetError::UnknownLink(LinkId(7)))
        );
    }

    #[test]
    fn version_bumps_on_rate_changes() {
        let (mut net, l) = net_one_link(10.0 * GB);
        let v0 = net.version();
        let f = net
            .start_flow(SimTime::ZERO, vec![l], GB, FlowOptions::default())
            .unwrap();
        assert!(net.version() > v0);
        let v1 = net.version();
        net.set_cap(SimTime::ZERO, f, GB).unwrap();
        assert!(net.version() > v1);
    }

    #[test]
    fn link_utilization_reports_aggregate_rate() {
        let (mut net, l) = net_one_link(10.0 * GB);
        net.start_flow(SimTime::ZERO, vec![l], GB, FlowOptions::default())
            .unwrap();
        net.start_flow(SimTime::ZERO, vec![l], GB, FlowOptions::default())
            .unwrap();
        assert!((net.link_utilization(l) - 10.0 * GB).abs() < 4.0);
    }

    #[test]
    fn degrading_a_link_slows_its_flows() {
        let (mut net, l) = net_one_link(10.0 * GB);
        let f = net
            .start_flow(SimTime::ZERO, vec![l], GB, FlowOptions::default())
            .unwrap();
        // Halfway through, the link loses 80% of its capacity.
        let t = SimTime(50_000_000);
        net.set_link_capacity(t, l, 2.0 * GB);
        assert!((net.flow_rate(f).unwrap() - 2.0 * GB).abs() < 2.0);
        // 0.5 GB left at 2 GB/s → completes at 50ms + 250ms.
        let done = net.next_completion().unwrap();
        assert!((done.as_millis_f64() - 300.0).abs() < 0.01, "done {done}");
        // Restoring capacity speeds the flow back up.
        net.set_link_capacity(SimTime(100_000_000), l, 10.0 * GB);
        assert!((net.flow_rate(f).unwrap() - 10.0 * GB).abs() < 2.0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_injection_rejected() {
        let (mut net, l) = net_one_link(10.0 * GB);
        net.set_link_capacity(SimTime::ZERO, l, 0.0);
    }

    #[test]
    fn reroute_moves_remaining_bytes() {
        let mut net = FlowNet::new();
        let slow = net.add_link("slow", 1.0 * GB);
        let fast = net.add_link("fast", 10.0 * GB);
        let f = net
            .start_flow(SimTime::ZERO, vec![slow], GB, FlowOptions::default())
            .unwrap();
        // Half the bytes drained at 1 GB/s by t=500ms; reroute to the fast
        // link: remaining 0.5 GB at 10 GB/s → +50 ms.
        let t = SimTime(500_000_000);
        net.reroute_flow(t, f, vec![fast]).unwrap();
        assert!((net.flow_remaining(f).unwrap() - 0.5 * GB).abs() < 1e3);
        assert!((net.flow_rate(f).unwrap() - 10.0 * GB).abs() < 2.0);
        let done = net.next_completion().unwrap();
        assert!((done.as_millis_f64() - 550.0).abs() < 0.01, "done {done}");
        // The old link is free for others.
        assert_eq!(net.link_utilization(slow), 0.0);
    }

    #[test]
    fn reroute_validates_inputs() {
        let (mut net, l) = net_one_link(10.0 * GB);
        let f = net
            .start_flow(SimTime::ZERO, vec![l], GB, FlowOptions::default())
            .unwrap();
        assert_eq!(
            net.reroute_flow(SimTime::ZERO, f, vec![]),
            Err(FlowNetError::EmptyPath)
        );
        assert_eq!(
            net.reroute_flow(SimTime::ZERO, f, vec![LinkId(9)]),
            Err(FlowNetError::UnknownLink(LinkId(9)))
        );
        assert_eq!(
            net.reroute_flow(SimTime::ZERO, FlowId(99), vec![l]),
            Err(FlowNetError::UnknownFlow(FlowId(99)))
        );
    }

    #[test]
    fn parallel_paths_aggregate_bandwidth() {
        // Two disjoint links: two chunks of one logical transfer run in
        // parallel, halving completion time — the basis of bandwidth
        // harvesting.
        let mut net = FlowNet::new();
        let l1 = net.add_link("p1", 10.0 * GB);
        let l2 = net.add_link("p2", 10.0 * GB);
        net.start_flow(SimTime::ZERO, vec![l1], GB, FlowOptions::default())
            .unwrap();
        net.start_flow(SimTime::ZERO, vec![l2], GB, FlowOptions::default())
            .unwrap();
        let done_at = net.next_completion().unwrap();
        assert!((done_at.as_millis_f64() - 100.0).abs() < 1e-3);
        let done = net.advance_to(done_at);
        assert_eq!(done.len(), 2);
    }

    #[test]
    fn disjoint_components_are_not_recomputed() {
        // Two independent links: events on one must not re-stamp flows on
        // the other (the whole point of contention scoping).
        let mut net = FlowNet::new();
        let l1 = net.add_link("c1", 10.0 * GB);
        let l2 = net.add_link("c2", 10.0 * GB);
        let a = net
            .start_flow(SimTime::ZERO, vec![l1], GB, FlowOptions::default())
            .unwrap();
        let stamp_a = {
            let s = net.id_index[&a.0];
            net.slots[s as usize].stamp
        };
        // Churn on the other component.
        for _ in 0..5 {
            let f = net
                .start_flow(SimTime::ZERO, vec![l2], GB, FlowOptions::default())
                .unwrap();
            net.cancel_flow(SimTime::ZERO, f).unwrap();
        }
        let stamp_a_after = {
            let s = net.id_index[&a.0];
            net.slots[s as usize].stamp
        };
        assert_eq!(stamp_a, stamp_a_after, "disjoint component was touched");
        assert!((net.flow_rate(a).unwrap() - 10.0 * GB).abs() < 2.0);
    }

    #[test]
    fn batch_defers_recompute_to_commit() {
        let (mut net, l) = net_one_link(10.0 * GB);
        net.begin_batch();
        let f1 = net
            .start_flow(SimTime::ZERO, vec![l], GB, FlowOptions::default())
            .unwrap();
        let f2 = net
            .start_flow(SimTime::ZERO, vec![l], GB, FlowOptions::default())
            .unwrap();
        // Rates are stale until commit.
        assert_eq!(net.flow_rate(f1).unwrap(), 0.0);
        net.commit_batch();
        assert!((net.flow_rate(f1).unwrap() - 5.0 * GB).abs() < 2.0);
        assert!((net.flow_rate(f2).unwrap() - 5.0 * GB).abs() < 2.0);
    }

    #[test]
    fn batch_with_cancel_and_reuse_commits_cleanly() {
        let (mut net, l) = net_one_link(10.0 * GB);
        net.begin_batch();
        let f1 = net
            .start_flow(SimTime::ZERO, vec![l], GB, FlowOptions::default())
            .unwrap();
        net.cancel_flow(SimTime::ZERO, f1).unwrap();
        // The freed slot is immediately reused by the next start.
        let f2 = net
            .start_flow(SimTime::ZERO, vec![l], GB, FlowOptions::default())
            .unwrap();
        net.commit_batch();
        assert!((net.flow_rate(f2).unwrap() - 10.0 * GB).abs() < 2.0);
        assert_eq!(net.flow_rate(f1), Err(FlowNetError::UnknownFlow(f1)));
        assert_eq!(net.num_flows(), 1);
    }

    #[test]
    fn nested_batches_recompute_once_at_outermost_commit() {
        let (mut net, l) = net_one_link(10.0 * GB);
        net.begin_batch();
        net.begin_batch();
        let f = net
            .start_flow(SimTime::ZERO, vec![l], GB, FlowOptions::default())
            .unwrap();
        net.commit_batch();
        // Inner commit must not recompute yet.
        assert_eq!(net.flow_rate(f).unwrap(), 0.0);
        net.commit_batch();
        assert!((net.flow_rate(f).unwrap() - 10.0 * GB).abs() < 2.0);
    }

    #[test]
    fn duplicate_link_in_path_counts_twice() {
        // A path crossing the same link twice consumes double capacity on
        // it, exactly like two hops; removal must not corrupt membership.
        let (mut net, l) = net_one_link(10.0 * GB);
        let f = net
            .start_flow(SimTime::ZERO, vec![l, l], GB, FlowOptions::default())
            .unwrap();
        // Weighted fill: the flow's rate is counted twice on the link, so
        // it converges to capacity/2.
        assert!((net.flow_rate(f).unwrap() - 5.0 * GB).abs() < 2.0);
        assert!((net.link_utilization(l) - 10.0 * GB).abs() < 4.0);
        net.cancel_flow(SimTime::ZERO, f).unwrap();
        assert_eq!(net.num_flows(), 0);
        assert_eq!(net.link_utilization(l), 0.0);
    }

    #[test]
    fn link_utilization_matches_member_sum_under_churn() {
        // The O(1) aggregate must track the true member-rate sum through
        // arrivals, departures, reroutes and constraint changes.
        let mut net = FlowNet::new();
        let links: Vec<LinkId> = (0..4)
            .map(|i| net.add_link(format!("l{i}"), 10.0 * GB))
            .collect();
        let mut live: Vec<(FlowId, Vec<LinkId>)> = Vec::new();
        let mut t = SimTime::ZERO;
        for step in 0u64..200 {
            t = SimTime(t.0 + 100_000);
            match step % 5 {
                0 | 1 => {
                    let path = vec![links[(step % 4) as usize], links[((step + 1) % 4) as usize]];
                    let f = net
                        .start_flow(t, path.clone(), GB, FlowOptions::default())
                        .unwrap();
                    live.push((f, path));
                }
                2 => {
                    if !live.is_empty() {
                        let (f, _) = live.remove((step as usize * 7) % live.len());
                        net.cancel_flow(t, f).unwrap();
                    }
                }
                3 => {
                    let pick = (step as usize * 3) % live.len().max(1);
                    if let Some((f, path)) = live.get_mut(pick) {
                        let new_path = vec![links[(step % 4) as usize]];
                        if net.reroute_flow(t, *f, new_path.clone()).is_ok() {
                            *path = new_path;
                        }
                    }
                }
                _ => {
                    if let Some((f, _)) = live.get((step as usize) % live.len().max(1)) {
                        let _ = net.set_weight(t, *f, 1.0 + (step % 3) as f64);
                    }
                }
            }
            // Compare the O(1) aggregate against a full scan.
            for &l in &links {
                let expected: f64 = live
                    .iter()
                    .map(|(f, path)| {
                        let crossings = path.iter().filter(|&&p| p == l).count() as f64;
                        crossings * net.flow_rate(*f).unwrap_or(0.0)
                    })
                    .sum();
                let got = net.link_utilization(l);
                assert!(
                    (got - expected).abs() <= 1e-6 * expected.max(1.0),
                    "step {step} link {l:?}: aggregate {got} != member sum {expected}"
                );
            }
        }
    }

    #[test]
    fn link_path_appends_keep_their_order() {
        let mut p = LinkPath::new();
        assert!(p.is_empty());
        p.extend_from_slice(&[LinkId(3)]).unwrap();
        p.extend_from_slice(&[LinkId(1), LinkId(2)]).unwrap();
        p.extend_from_slice(&[LinkId(0)]).unwrap();
        let want = [LinkId(3), LinkId(1), LinkId(2), LinkId(0)];
        assert_eq!(&*p, &want);
        assert_eq!(p.into_iter().collect::<Vec<_>>(), want);
    }

    #[test]
    fn link_path_equals_the_slice_it_was_built_from() {
        let links: Vec<LinkId> = (0..5).map(LinkId).collect();
        let mut p = LinkPath::new();
        p.extend_from_slice(&links).unwrap();
        assert_eq!(&*p, links.as_slice());
        let array = LinkPath::from([LinkId(0), LinkId(1), LinkId(2), LinkId(3), LinkId(4)]);
        assert_eq!(p, array);
        assert_ne!(p, LinkPath::from([LinkId(0)]));
    }

    #[test]
    fn full_link_path_refuses_one_more_link_unchanged() {
        let mut p = LinkPath::new();
        for i in 0..LinkPath::CAPACITY {
            p.extend_from_slice(&[LinkId(i as u32)]).unwrap();
        }
        let before = p;
        assert_eq!(p.extend_from_slice(&[LinkId(99)]), Err(PathTooLong));
        assert_eq!(p, before);
        assert_eq!(p.len(), LinkPath::CAPACITY);
        // An append that only partly fits is refused whole.
        let mut q = LinkPath::from([LinkId(1); 10]);
        let over = [LinkId(2); LinkPath::CAPACITY - 9];
        assert_eq!(q.extend_from_slice(&over), Err(PathTooLong));
        assert_eq!(&*q, &[LinkId(1); 10]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_net_and_flows() -> impl Strategy<Value = (Vec<f64>, Vec<(Vec<usize>, f64, f64, f64)>)> {
        // (link capacities, flows as (path link indices, bytes, floor, cap))
        (2usize..6).prop_flat_map(|n_links| {
            let caps = proptest::collection::vec(1e9..50e9, n_links);
            let flows = proptest::collection::vec(
                (
                    proptest::collection::vec(0..n_links, 1..3),
                    1e3..1e9,  // bytes
                    0.0..5e9,  // floor
                    1e8..1e11, // cap
                ),
                1..16,
            );
            (caps, flows)
        })
    }

    proptest! {
        /// Invariants under arbitrary floors and caps: per-link usage never
        /// exceeds capacity, every flow respects its *effective* cap (the
        /// floor dominates a contradictory lower cap), and the system
        /// always drains to empty.
        #[test]
        fn rates_respect_links_and_caps((caps, flow_specs) in arb_net_and_flows()) {
            let mut net = FlowNet::new();
            let links: Vec<LinkId> = caps
                .iter()
                .enumerate()
                .map(|(i, &c)| net.add_link(format!("l{i}"), c))
                .collect();
            let mut flows = Vec::new();
            for (path_idx, bytes, floor, cap) in flow_specs {
                let mut path: Vec<LinkId> = path_idx.iter().map(|&i| links[i]).collect();
                path.dedup();
                let f = net
                    .start_flow(
                        SimTime::ZERO,
                        path,
                        bytes,
                        FlowOptions { floor, cap, weight: 1.0 },
                    )
                    .expect("valid flow");
                flows.push((f, floor.max(cap)));
            }
            // Effective-cap invariant.
            for &(f, eff_cap) in &flows {
                let r = net.flow_rate(f).expect("live");
                prop_assert!(r <= eff_cap + EPS_RATE, "rate {r} over effective cap {eff_cap}");
            }
            // Link invariant — floors may legitimately oversubscribe only
            // when infeasible, and we scale them down, so usage ≤ capacity.
            for (i, &l) in links.iter().enumerate() {
                let used = net.link_utilization(l);
                prop_assert!(used <= caps[i] * (1.0 + 1e-9) + EPS_RATE, "link {i}");
            }
            // Drain.
            let mut guard = 0;
            while net.num_flows() > 0 {
                let t = net.next_completion().expect("progress");
                net.advance_to(t);
                guard += 1;
                prop_assert!(guard < 100_000);
            }
        }

        /// Settling at arbitrary intermediate instants never changes the
        /// final completion time of a lone flow (quasi-stationarity).
        #[test]
        fn settling_is_exact(bytes in 1e3f64..1e9, cap_gbps in 1.0f64..50.0, cuts in proptest::collection::vec(1u64..1_000_000_000, 0..8)) {
            let capacity = cap_gbps * 1e9;
            let reference = {
                let mut net = FlowNet::new();
                let l = net.add_link("l", capacity);
                net.start_flow(SimTime::ZERO, vec![l], bytes, FlowOptions::default())
                    .expect("flow");
                net.next_completion().expect("progress")
            };
            let mut net = FlowNet::new();
            let l = net.add_link("l", capacity);
            net.start_flow(SimTime::ZERO, vec![l], bytes, FlowOptions::default())
                .expect("flow");
            let mut sorted = cuts.clone();
            sorted.sort_unstable();
            for t in sorted {
                let at = SimTime(t);
                if at < reference {
                    net.advance_to(at);
                }
            }
            let done = net.next_completion().expect("progress");
            // Interior settles may only shift completion by ns rounding.
            let diff = done.as_nanos().abs_diff(reference.as_nanos());
            prop_assert!(diff <= cuts.len() as u64 + 1, "diff {diff}");
        }
    }
}
