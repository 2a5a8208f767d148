//! A windowed, id-ordered table for ids handed out by a monotone counter.
//!
//! The llm router numbers requests from one counter, the store numbers
//! data objects from another, and the runtime executor numbers workflow
//! instances and data operations from two more, so the ids alive at any
//! instant sit in a window that slides up as the counter moves on: a
//! request completes within seconds of arriving, an intermediate object
//! dies once its last consumer has read it, and a data operation lives for
//! a few transfer legs. [`RidTable`] keeps one slot per id of that
//! window in a deque that starts at the smallest live id. A lookup is an
//! index, iteration walks the slots in id order, and both ends are trimmed
//! as their ids leave, so the table holds what lives between the oldest
//! and the newest live id, not every id ever issued. An id below the
//! window start is accepted too: the llm router may admit a deferred
//! request after later ids have already arrived, and the window then grows
//! at the front.
//!
//! Indexing (`table[rid]`) is for ids the caller knows are live, as with a
//! map, and panics on a miss; `get` is the fallible lookup.

use std::collections::VecDeque;

/// A map from id to `T` with O(1) lookup and id-ordered iteration.
#[derive(Debug)]
pub struct RidTable<T> {
    /// The id of `slots`' first element.
    start: u64,
    /// One slot per id in `start..start + slots.len()`. Neither end is ever
    /// an empty slot, so the deque spans exactly the live ids.
    slots: VecDeque<Option<T>>,
    len: usize,
}

impl<T> Default for RidTable<T> {
    fn default() -> Self {
        RidTable {
            start: 0,
            slots: VecDeque::new(),
            len: 0,
        }
    }
}

impl<T> RidTable<T> {
    pub fn new() -> RidTable<T> {
        RidTable::default()
    }

    /// Number of live ids.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slots the window holds: the live ids and the holes between them.
    pub fn span(&self) -> usize {
        self.slots.len()
    }

    /// Slot position of `rid`, if it falls inside the window.
    fn position(&self, rid: u64) -> Option<usize> {
        let offset = usize::try_from(rid.checked_sub(self.start)?).ok()?;
        (offset < self.slots.len()).then_some(offset)
    }

    pub fn get(&self, rid: u64) -> Option<&T> {
        self.slots.get(self.position(rid)?)?.as_ref()
    }

    pub fn get_mut(&mut self, rid: u64) -> Option<&mut T> {
        let pos = self.position(rid)?;
        self.slots.get_mut(pos)?.as_mut()
    }

    pub fn contains_key(&self, rid: u64) -> bool {
        self.get(rid).is_some()
    }

    /// Insert `value` under `rid`, returning the value it replaces.
    pub fn insert(&mut self, rid: u64, value: T) -> Option<T> {
        if self.slots.is_empty() {
            self.start = rid;
        }
        while rid < self.start {
            self.slots.push_front(None);
            self.start -= 1;
        }
        // `rid >= start` now, and the window never spans more than the
        // ids in flight, so the offset fits in memory.
        let offset = (rid - self.start) as usize;
        if offset >= self.slots.len() {
            // Past the newest id, the common case: append the value itself
            // rather than an empty slot to fill.
            self.slots.resize_with(offset, || None);
            self.slots.push_back(Some(value));
            self.len += 1;
            return None;
        }
        let old = self.slots.get_mut(offset)?.replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Remove `rid`, trimming empty slots off both ends of the window.
    pub fn remove(&mut self, rid: u64) -> Option<T> {
        let pos = self.position(rid)?;
        let old = self.slots.get_mut(pos)?.take()?;
        self.len -= 1;
        self.trim();
        Some(old)
    }

    /// Remove `rid` and drop its value where it lies, for a caller that no
    /// longer needs it: unlike [`RidTable::remove`], a large value is not
    /// moved out first. Returns whether `rid` was live.
    pub fn discard(&mut self, rid: u64) -> bool {
        let Some(slot) = self.position(rid).and_then(|pos| self.slots.get_mut(pos)) else {
            return false;
        };
        if slot.is_none() {
            return false;
        }
        *slot = None;
        self.len -= 1;
        self.trim();
        true
    }

    /// Drop the empty slots off both ends of the window.
    fn trim(&mut self) {
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.start += 1;
        }
        while let Some(None) = self.slots.back() {
            self.slots.pop_back();
        }
    }

    /// Live entries in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        (self.start..)
            .zip(&self.slots)
            .filter_map(|(rid, slot)| slot.as_ref().map(|v| (rid, v)))
    }

    /// Live values in ascending id order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().flatten()
    }
}

impl<T> std::ops::Index<u64> for RidTable<T> {
    type Output = T;

    #[expect(
        clippy::expect_used,
        reason = "indexing is for ids the caller knows are live, as with a map; a miss is a caller bug"
    )]
    fn index(&self, rid: u64) -> &T {
        self.get(rid).expect("no entry for id")
    }
}

impl<T> std::ops::IndexMut<u64> for RidTable<T> {
    #[expect(
        clippy::expect_used,
        reason = "indexing is for ids the caller knows are live, as with a map; a miss is a caller bug"
    )]
    fn index_mut(&mut self, rid: u64) -> &mut T {
        self.get_mut(rid).expect("no entry for id")
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;

    #[test]
    fn window_trims_as_the_oldest_ids_leave() {
        let mut t = RidTable::new();
        for rid in 10..15u64 {
            assert_eq!(t.insert(rid, rid * 2), None);
        }
        assert_eq!(t.remove(10), Some(20));
        assert_eq!(t.remove(12), Some(24));
        assert_eq!(t.slots.len(), 4, "a hole in the middle stays");
        assert_eq!(t.remove(11), Some(22));
        assert_eq!((t.start, t.slots.len()), (13, 2));
        assert_eq!(t.remove(14), Some(28));
        assert_eq!((t.start, t.slots.len()), (13, 1));
        assert_eq!(t.remove(13), Some(26));
        assert!(t.is_empty() && t.slots.is_empty());
        // An emptied table restarts its window at the next id.
        t.insert(1_000, 0);
        assert_eq!((t.start, t.slots.len()), (1_000, 1));
    }

    #[test]
    fn ids_below_the_window_grow_it_at_the_front() {
        let mut t = RidTable::new();
        t.insert(7, 'b');
        t.insert(4, 'a');
        assert_eq!(t.start, 4);
        assert_eq!(t.get(4), Some(&'a'));
        assert_eq!(t.get(5), None);
        assert_eq!(t.get(3), None);
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![(4, &'a'), (7, &'b')]);
    }

    proptest::proptest! {
        /// Any sequence of inserts, removes (moving the value out or
        /// discarding it in place), lookups and in-place updates leaves the
        /// table agreeing with a `BTreeMap` on every answer, on ordered
        /// iteration and on length, including inserts below the window
        /// start and re-insertion after removal, and the window spans
        /// exactly the oldest to the newest live id.
        #[test]
        fn matches_a_btreemap(
            ops in proptest::collection::vec((0u8..5, 0u64..48), 0..400),
        ) {
            let mut table = RidTable::new();
            let mut model = BTreeMap::new();
            for (step, (op, rid)) in ops.into_iter().enumerate() {
                // Ids drift upward like the router's counter, with some
                // arriving below the current window.
                let rid = rid + step as u64 / 8;
                let value = step as u64;
                match op {
                    0 | 1 => proptest::prop_assert_eq!(
                        table.insert(rid, value),
                        model.insert(rid, value)
                    ),
                    2 if step % 2 == 0 => {
                        proptest::prop_assert_eq!(table.remove(rid), model.remove(&rid))
                    }
                    2 => proptest::prop_assert_eq!(table.discard(rid), model.remove(&rid).is_some()),
                    3 => {
                        proptest::prop_assert_eq!(table.get(rid), model.get(&rid));
                        proptest::prop_assert_eq!(table.contains_key(rid), model.contains_key(&rid));
                        if let Some(v) = model.get(&rid) {
                            proptest::prop_assert_eq!(&table[rid], v);
                        }
                    }
                    _ => {
                        if let Some(v) = table.get_mut(rid) {
                            *v += 1_000;
                        }
                        if let Some(v) = model.get_mut(&rid) {
                            *v += 1_000;
                        }
                    }
                }
                proptest::prop_assert_eq!(table.len(), model.len());
                let span = match (model.keys().next(), model.keys().next_back()) {
                    (Some(lo), Some(hi)) => (hi - lo + 1) as usize,
                    _ => 0,
                };
                proptest::prop_assert_eq!(table.span(), span);
                proptest::prop_assert_eq!(table.is_empty(), model.is_empty());
                let got: Vec<(u64, u64)> = table.iter().map(|(k, v)| (k, *v)).collect();
                let want: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
                proptest::prop_assert_eq!(got, want);
                let got: Vec<u64> = table.values().copied().collect();
                let want: Vec<u64> = model.values().copied().collect();
                proptest::prop_assert_eq!(got, want);
            }
        }
    }
}
