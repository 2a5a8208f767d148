//! Migration victim selection (paper §4.4.2, Fig. 11b).
//!
//! When GPU memory pressure rises, stored intermediate data must move to
//! host memory. The policies differ in *which* objects go first:
//!
//! * [`LruPolicy`] — least-recently-*accessed* first. This is what DNN-
//!   oriented memory managers do, and it is wrong for serverless workflows:
//!   the output of function `a₁` was written earliest, so LRU evicts it even
//!   though its consumer `b₁` is at the *head* of the request queue.
//! * [`QueueAwarePolicy`] (RQ) — evict the data whose consumer sits deepest
//!   in the request queue (needed latest); data for imminent invocations
//!   stays resident.
//! * [`GrouterPolicy`] — queue-aware selection plus *proactive restoration*:
//!   a [`RestoreQueue`] hands migrated objects back in ascending need order
//!   so the store can pull them back as soon as memory frees.
//!
//! Both orders are taken lazily from a binary heap: a caller orders only
//! the prefix it uses. A caller that selects often keeps the heaps (a
//! [`VictimHeap`], a [`RestoreQueue`]) and its output buffer between calls,
//! so a warm selection allocates nothing.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use grouter_sim::time::SimTime;

/// Metadata the policies see for each stored object.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ObjectMeta {
    /// Opaque object key (the store's data ID).
    pub key: u64,
    /// Object size in bytes.
    pub bytes: f64,
    /// Last time the object was written or read.
    pub last_access: SimTime,
    /// Queue rank of the *earliest* pending consumer of this object:
    /// 0 = next to run. `None` = no known pending consumer (safest victim).
    pub next_use: Option<u64>,
}

/// The key victims leave in, ascending: each policy maps an object to a
/// class, an order within the class and, last, the object's key.
pub type VictimRank = (u8, u64, u64);

/// The heap victim selection orders candidates in: `(rank, input
/// position)`, smallest first. Kept by a caller that selects often, so the
/// heap's buffer is reused from one selection to the next.
#[derive(Debug, Default)]
pub struct VictimHeap(BinaryHeap<Reverse<(VictimRank, usize)>>);

/// A victim-selection strategy.
pub trait EvictionPolicy {
    /// Where `o` falls in eviction order: victims leave in ascending rank.
    fn victim_rank(&self, o: &ObjectMeta) -> VictimRank;

    /// Policy name for reports.
    fn name(&self) -> &'static str;

    /// Pick objects to migrate, in order, until at least `need` bytes are
    /// covered, into `out` (cleared first). `objects` is the resident set.
    ///
    /// Equal ranks keep input order, so the result is the prefix a stable
    /// sort by rank would give. Only that prefix is ordered: the heap is
    /// built in O(n) and each victim costs O(log n), where a sort orders
    /// every resident object to take a few. `heap` and `out` keep their
    /// buffers for the caller's next selection.
    fn take_victims(
        &self,
        objects: &[ObjectMeta],
        need: f64,
        heap: &mut VictimHeap,
        out: &mut Vec<u64>,
    ) {
        out.clear();
        heap.0.clear();
        heap.0.extend(
            objects
                .iter()
                .enumerate()
                .map(|(i, o)| Reverse((self.victim_rank(o), i))),
        );
        let mut freed = 0.0;
        loop {
            if freed >= need {
                break;
            }
            let Some(obj) = heap.0.pop().and_then(|Reverse((_, i))| objects.get(i)) else {
                break;
            };
            freed += obj.bytes;
            out.push(obj.key);
        }
    }

    /// [`EvictionPolicy::take_victims`] into fresh buffers: the selected
    /// keys in eviction order.
    fn select_victims(&self, objects: &[ObjectMeta], need: f64) -> Vec<u64> {
        let mut out = Vec::new();
        self.take_victims(objects, need, &mut VictimHeap::default(), &mut out);
        out
    }
}

/// Classic least-recently-used eviction (the NVSHMEM+ baseline).
#[derive(Clone, Copy, Debug, Default)]
pub struct LruPolicy;

impl EvictionPolicy for LruPolicy {
    fn victim_rank(&self, o: &ObjectMeta) -> VictimRank {
        // Oldest access first; key breaks ties deterministically.
        (0, o.last_access.0, o.key)
    }

    fn name(&self) -> &'static str {
        "LRU"
    }
}

/// Request-queue-aware eviction (RQ): evict data needed latest first.
#[derive(Clone, Copy, Debug, Default)]
pub struct QueueAwarePolicy;

impl EvictionPolicy for QueueAwarePolicy {
    fn victim_rank(&self, o: &ObjectMeta) -> VictimRank {
        // Best victims first: objects nobody is scheduled to read, then
        // objects whose consumer sits deepest in the queue.
        match o.next_use {
            None => (0, 0, o.key),
            Some(rank) => (1, u64::MAX - rank, o.key),
        }
    }

    fn name(&self) -> &'static str {
        "RQ"
    }
}

/// GROUTER's policy: queue-aware victim selection (identical to
/// [`QueueAwarePolicy`]) + a [`RestoreQueue`] for proactive restoration of
/// migrated data when memory frees up.
#[derive(Clone, Copy, Debug, Default)]
pub struct GrouterPolicy;

impl EvictionPolicy for GrouterPolicy {
    fn victim_rank(&self, o: &ObjectMeta) -> VictimRank {
        QueueAwarePolicy.victim_rank(o)
    }

    fn name(&self) -> &'static str {
        "GROUTER"
    }
}

/// Migrated objects in restoration order: soonest-needed first, ties by
/// key; objects without a known consumer are not restored proactively.
///
/// Taken lazily, like victims: [`RestoreQueue::refill`] heapifies the
/// candidates in O(n) and each [`RestoreQueue::pop_soonest`] costs
/// O(log n), so a restore pass that stops at the first object that does
/// not fit orders only what it restores. Kept by its caller, so the heap's
/// buffer is reused from one pass to the next.
#[derive(Debug, Default)]
pub struct RestoreQueue(BinaryHeap<Reverse<(u64, u64)>>);

impl RestoreQueue {
    /// Replace the queue's contents with `migrated`.
    pub fn refill(&mut self, migrated: impl IntoIterator<Item = ObjectMeta>) {
        self.0.clear();
        self.0.extend(
            migrated
                .into_iter()
                .filter_map(|o| Some(Reverse((o.next_use?, o.key)))),
        );
    }

    /// The key of the soonest-needed object left, removed from the queue.
    pub fn pop_soonest(&mut self) -> Option<u64> {
        self.0.pop().map(|Reverse((_, key))| key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(key: u64, bytes: f64, last_access: u64, next_use: Option<u64>) -> ObjectMeta {
        ObjectMeta {
            key,
            bytes,
            last_access: SimTime(last_access),
            next_use,
        }
    }

    #[test]
    fn lru_evicts_oldest_access_first() {
        let objects = vec![
            obj(1, 100.0, 10, Some(0)), // oldest access but needed next!
            obj(2, 100.0, 20, Some(5)),
            obj(3, 100.0, 30, Some(9)),
        ];
        let victims = LruPolicy.select_victims(&objects, 150.0);
        assert_eq!(victims, vec![1, 2], "LRU ignores the queue");
    }

    #[test]
    fn queue_aware_evicts_latest_needed_first() {
        // Fig. 11b: a1's output (consumer b1 enqueued earlier) must outlive
        // a2's output (consumer b2 enqueued later), regardless of access
        // recency.
        let objects = vec![
            obj(1, 100.0, 10, Some(0)), // a1's output — b1 is next
            obj(2, 100.0, 20, Some(7)), // a2's output — b2 is far back
        ];
        let victims = QueueAwarePolicy.select_victims(&objects, 100.0);
        assert_eq!(victims, vec![2]);
    }

    #[test]
    fn queue_aware_prefers_unconsumed_objects() {
        let objects = vec![
            obj(1, 100.0, 10, Some(3)),
            obj(2, 100.0, 20, None), // nobody scheduled to read it
            obj(3, 100.0, 30, Some(1)),
        ];
        let victims = QueueAwarePolicy.select_victims(&objects, 250.0);
        assert_eq!(victims, vec![2, 1, 3]);
    }

    #[test]
    fn selection_stops_once_need_met() {
        let objects = vec![
            obj(1, 400.0, 10, None),
            obj(2, 400.0, 20, Some(1)),
            obj(3, 400.0, 30, Some(0)),
        ];
        let victims = QueueAwarePolicy.select_victims(&objects, 300.0);
        assert_eq!(victims, vec![1], "one object already covers the need");
    }

    #[test]
    fn empty_set_yields_no_victims() {
        assert!(LruPolicy.select_victims(&[], 100.0).is_empty());
        assert!(QueueAwarePolicy.select_victims(&[], 100.0).is_empty());
    }

    #[test]
    fn need_larger_than_everything_selects_all() {
        let objects = vec![obj(1, 10.0, 1, None), obj(2, 10.0, 2, Some(0))];
        let victims = GrouterPolicy.select_victims(&objects, 1e9);
        assert_eq!(victims.len(), 2);
    }

    #[test]
    fn grouter_matches_queue_aware_selection() {
        let objects = vec![
            obj(1, 100.0, 10, Some(0)),
            obj(2, 100.0, 20, Some(7)),
            obj(3, 100.0, 5, None),
        ];
        assert_eq!(
            GrouterPolicy.select_victims(&objects, 100.0),
            QueueAwarePolicy.select_victims(&objects, 100.0)
        );
    }

    #[test]
    fn restore_order_is_soonest_first() {
        let migrated = vec![
            obj(1, 100.0, 10, Some(9)),
            obj(2, 100.0, 20, Some(2)),
            obj(3, 100.0, 30, None), // never proactively restored
            obj(4, 100.0, 40, Some(5)),
            obj(0, 100.0, 50, Some(5)), // same need as 4: key breaks the tie
        ];
        let mut queue = RestoreQueue::default();
        queue.refill(vec![obj(7, 100.0, 0, Some(0))]);
        queue.refill(migrated);
        let order: Vec<u64> = std::iter::from_fn(|| queue.pop_soonest()).collect();
        assert_eq!(
            order,
            vec![2, 0, 4, 1],
            "a refill forgets the previous pass"
        );
    }

    /// The selection the heap replaced: stable-sort every object, then take
    /// a prefix until `need` is covered.
    fn sorted_prefix<K: Ord>(
        objects: &[ObjectMeta],
        need: f64,
        rank: impl Fn(&ObjectMeta) -> K,
    ) -> Vec<u64> {
        let mut ordered: Vec<&ObjectMeta> = objects.iter().collect();
        ordered.sort_by_key(|o| rank(o));
        let mut out = Vec::new();
        let mut freed = 0.0;
        for obj in ordered {
            if freed >= need {
                break;
            }
            freed += obj.bytes;
            out.push(obj.key);
        }
        out
    }

    proptest::proptest! {
        /// Heap selection returns exactly the full-sort prefix for both
        /// policies: few distinct ranks, stamps and keys make ties common
        /// (equal keys fall back to input order), and `need` ranges from
        /// negative through zero to more than everything resident.
        #[test]
        fn heap_selection_matches_a_full_sort(
            raw in proptest::collection::vec((0u64..6, 1u32..5, 0u64..4, 0u64..5), 0..40),
            need_code in 0u32..14,
        ) {
            let objects: Vec<ObjectMeta> = raw
                .iter()
                .map(|&(key, mb, stamp, rank)| ObjectMeta {
                    key,
                    bytes: f64::from(mb) * 100.0,
                    last_access: SimTime(stamp),
                    next_use: (rank > 0).then_some(rank),
                })
                .collect();
            let total: f64 = objects.iter().map(|o| o.bytes).sum();
            let need = match need_code {
                0 => -50.0,
                1 => 0.0,
                2 => total + 1.0,
                c => f64::from(c - 3) * 150.0,
            };
            proptest::prop_assert_eq!(
                LruPolicy.select_victims(&objects, need),
                sorted_prefix(&objects, need, |o| (o.last_access, o.key))
            );
            let queue_rank = |o: &ObjectMeta| match o.next_use {
                None => (0u8, 0u64, o.key),
                Some(rank) => (1, u64::MAX - rank, o.key),
            };
            let want = sorted_prefix(&objects, need, queue_rank);
            proptest::prop_assert_eq!(QueueAwarePolicy.select_victims(&objects, need), want.clone());
            proptest::prop_assert_eq!(GrouterPolicy.select_victims(&objects, need), want.clone());
            // Warm buffers left over from another selection change nothing.
            let (mut heap, mut out) = (VictimHeap::default(), vec![99]);
            LruPolicy.take_victims(&objects, total + 1.0, &mut heap, &mut out);
            GrouterPolicy.take_victims(&objects, need, &mut heap, &mut out);
            proptest::prop_assert_eq!(out, want);
        }
    }

    #[test]
    fn deterministic_tie_break_by_key() {
        let objects = vec![obj(5, 100.0, 10, Some(3)), obj(2, 100.0, 10, Some(3))];
        let victims = QueueAwarePolicy.select_victims(&objects, 100.0);
        assert_eq!(victims, vec![2], "ties resolve by key for determinism");
    }
}
