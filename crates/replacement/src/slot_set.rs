//! Per-slot metadata containers shared by the policies.
//!
//! Every policy attaches some state to the slots of a fixed-size arena:
//! a reference bit (CLOCK, SIEVE), or a mark bit plus dense swap-removable
//! pools of slot ids (Marking). The containers here capture the two shapes
//! once, so the **arena contract** — slot ids handed to a [`Policy`] are
//! always `< capacity`, because `CacheSim` mints them from its own
//! fixed-size arena — is asserted in exactly one place per shape instead of
//! at every indexing site.
//!
//! [`Policy`]: crate::policy::Policy

use crate::policy::SlotId;

/// Sentinel position for "not a member" in [`SlotPool`].
const NONE: usize = usize::MAX;

/// A per-slot metadata array, fixed at the arena's capacity.
///
/// A thin wrapper over `Vec<T>` whose only access paths are the slot-id
/// accessors below; the arena contract (`s < capacity`) lives here.
#[derive(Clone, Debug, Default)]
pub struct SlotVec<T>(Vec<T>);

impl<T: Clone> SlotVec<T> {
    /// A `capacity`-sized array with every slot set to `value`.
    pub fn filled(value: T, capacity: usize) -> Self {
        SlotVec(vec![value; capacity])
    }
}

impl<T> SlotVec<T> {
    /// The metadata of slot `s`.
    #[inline]
    pub fn get(&self, s: SlotId) -> &T {
        // atp-lint: allow(no-panic-hotpath, reason = "arena contract: CacheSim mints slot ids < capacity and the array is fixed at capacity entries")
        &self.0[s]
    }

    /// Mutable metadata of slot `s`.
    #[inline]
    pub fn get_mut(&mut self, s: SlotId) -> &mut T {
        // atp-lint: allow(no-panic-hotpath, reason = "arena contract: CacheSim mints slot ids < capacity and the array is fixed at capacity entries")
        &mut self.0[s]
    }

    /// Copies out the metadata of slot `s`.
    #[inline]
    pub fn at(&self, s: SlotId) -> T
    where
        T: Copy,
    {
        *self.get(s)
    }

    /// Overwrites the metadata of slot `s`.
    #[inline]
    pub fn set(&mut self, s: SlotId, value: T) {
        *self.get_mut(s) = value;
    }
}

/// A dense, swap-removable set of slot ids with O(1) insert, remove,
/// membership, and uniform indexing — the "pool + position map" idiom
/// randomized Marking uses.
///
/// Members are stored contiguously (so a random index picks uniformly);
/// a per-slot position map makes removal O(1) by swapping the last
/// member into the hole. Insertion order is preserved except at removal
/// points, and removal is *order-deterministic*: the same operation
/// sequence always yields the same dense layout, which keeps a seeded
/// policy's victims reproducible.
#[derive(Clone, Debug)]
pub struct SlotPool {
    dense: Vec<SlotId>,
    pos: SlotVec<usize>,
}

impl SlotPool {
    /// An empty pool over an arena of `capacity` slots.
    pub fn with_capacity(capacity: usize) -> Self {
        SlotPool {
            dense: Vec::with_capacity(capacity),
            pos: SlotVec::filled(NONE, capacity),
        }
    }

    /// Number of members.
    #[inline]
    pub fn len(&self) -> usize {
        self.dense.len()
    }

    /// Whether the pool has no members.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.dense.is_empty()
    }

    /// Whether slot `s` is a member.
    #[inline]
    pub fn contains(&self, s: SlotId) -> bool {
        self.pos.at(s) != NONE
    }

    /// Adds slot `s`; returns `false` (and changes nothing) if it was
    /// already a member.
    #[inline]
    pub fn insert(&mut self, s: SlotId) -> bool {
        if self.contains(s) {
            return false;
        }
        self.pos.set(s, self.dense.len());
        self.dense.push(s);
        true
    }

    /// Removes slot `s` by swapping the last member into its position;
    /// returns `false` (and changes nothing) if it was not a member.
    #[inline]
    pub fn remove(&mut self, s: SlotId) -> bool {
        let i = self.pos.at(s);
        if i == NONE {
            return false;
        }
        // atp-lint: allow(unwrap-policy, no-panic-hotpath, reason = "the membership check above proves s is pooled, so the dense array is non-empty")
        let last = self.dense.pop().expect("pool nonempty");
        if last != s {
            // atp-lint: allow(no-panic-hotpath, reason = "i came from the position map of a current member, so it indexes the dense array before the pop")
            self.dense[i] = last;
            self.pos.set(last, i);
        }
        self.pos.set(s, NONE);
        true
    }

    /// The member at dense position `i` (for uniform random selection).
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn get(&self, i: usize) -> SlotId {
        // atp-lint: allow(no-panic-hotpath, reason = "documented contract: callers index below len(), typically via rng.next_below(len)")
        self.dense[i]
    }

    /// The members, in dense order.
    #[inline]
    pub fn as_slice(&self) -> &[SlotId] {
        &self.dense
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_vec_round_trips() {
        let mut v = SlotVec::filled(0u32, 4);
        v.set(2, 7);
        *v.get_mut(3) += 1;
        assert_eq!(v.at(2), 7);
        assert_eq!(v.at(3), 1);
        assert_eq!(v.at(0), 0);
    }

    #[test]
    fn pool_insert_remove_membership() {
        let mut p = SlotPool::with_capacity(5);
        assert!(p.insert(3) && p.insert(1) && p.insert(4));
        assert!(!p.insert(3), "double insert is a no-op");
        assert_eq!(p.len(), 3);
        assert!(p.contains(1) && !p.contains(0));
        assert!(p.remove(3));
        assert!(!p.remove(3), "double remove is a no-op");
        assert!(!p.contains(3));
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn pool_swap_remove_is_order_deterministic() {
        // Removing a middle member swaps the last into its hole — the
        // layout Marking relies on for seed reproducibility.
        let mut p = SlotPool::with_capacity(6);
        for s in [0usize, 1, 2, 3] {
            p.insert(s);
        }
        p.remove(1);
        assert_eq!(p.as_slice(), &[0, 3, 2]);
        assert_eq!(p.get(1), 3);
    }

    #[test]
    fn pool_drains_and_refills() {
        let mut p = SlotPool::with_capacity(3);
        for s in 0..3 {
            p.insert(s);
        }
        for s in 0..3 {
            assert!(p.remove(s));
        }
        assert!(p.is_empty());
        assert!(p.insert(2));
        assert_eq!(p.as_slice(), &[2]);
    }
}
