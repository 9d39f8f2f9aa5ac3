//! Linear-scan oracle for the ASID-tagged TLB.
//!
//! [`LinearAsidTlb`] is the LRU case of [`super::LinearPolicyTlb`] with
//! multi-tenant semantics spelled out as obviously as possible: one
//! recency `Vec` whose keys are `(asid, huge)` pairs, a lookup that scans
//! for the private entry first and the global ([`Asid::GLOBAL`]) entry
//! second, and an ASID flush that walks the list removing one tenant's
//! private entries while leaving everyone else's — globals included — in
//! their exact recency positions. [`atp_tlb::AsidTlb`] with the LRU policy
//! must match it operation for operation: hits, victims, flush counts.

use atp_types::{Asid, TaggedHugePage, VirtHugePage};

/// A fully associative LRU ASID-tagged TLB as a linearly scanned
/// recency list.
#[derive(Clone, Debug)]
pub struct LinearAsidTlb<V> {
    /// Front = most recently used.
    entries: Vec<(TaggedHugePage, V)>,
    capacity: usize,
}

impl<V> LinearAsidTlb<V> {
    /// Creates an empty TLB with `capacity` entries shared by all
    /// tenants.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be nonzero");
        Self {
            entries: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// Capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Resident entry count (all tenants plus globals).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the TLB is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn position(&self, key: TaggedHugePage) -> Option<usize> {
        self.entries.iter().position(|(k, _)| *k == key)
    }

    /// Whether tenant `asid` would hit on `huge` (private or global),
    /// without touching recency.
    pub fn contains(&self, asid: Asid, huge: VirtHugePage) -> bool {
        self.position(TaggedHugePage::new(asid, huge)).is_some()
            || self.position(TaggedHugePage::global(huge)).is_some()
    }

    /// Looks up `huge` for tenant `asid`: private entry first, then the
    /// global one. A hit moves the matching entry to the front.
    pub fn lookup(&mut self, asid: Asid, huge: VirtHugePage) -> Option<&V> {
        let pos = self
            .position(TaggedHugePage::new(asid, huge))
            .or_else(|| self.position(TaggedHugePage::global(huge)))?;
        let entry = self.entries.remove(pos);
        self.entries.insert(0, entry);
        Some(&self.entries[0].1)
    }

    /// Inserts a private entry for tenant `asid` at the front, returning
    /// the LRU victim (possibly another tenant's) if the TLB was full.
    ///
    /// # Panics
    /// Panics if the `(asid, huge)` entry is already resident.
    pub fn insert(
        &mut self,
        asid: Asid,
        huge: VirtHugePage,
        value: V,
    ) -> Option<(TaggedHugePage, V)> {
        self.insert_key(TaggedHugePage::new(asid, huge), value)
    }

    /// Inserts a global (all-tenants) entry.
    ///
    /// # Panics
    /// Panics if the global entry for `huge` is already resident.
    pub fn insert_global(&mut self, huge: VirtHugePage, value: V) -> Option<(TaggedHugePage, V)> {
        self.insert_key(TaggedHugePage::global(huge), value)
    }

    fn insert_key(&mut self, key: TaggedHugePage, value: V) -> Option<(TaggedHugePage, V)> {
        assert!(self.position(key).is_none(), "insert of resident TLB entry");
        let victim = if self.entries.len() == self.capacity {
            self.entries.pop()
        } else {
            None
        };
        self.entries.insert(0, (key, value));
        victim
    }

    /// Invalidates tenant `asid`'s private entry for `huge`, returning
    /// its value if resident. Globals are untouched.
    pub fn invalidate(&mut self, asid: Asid, huge: VirtHugePage) -> Option<V> {
        let pos = self.position(TaggedHugePage::new(asid, huge))?;
        Some(self.entries.remove(pos).1)
    }

    /// Invalidates the global entry for `huge`.
    pub fn invalidate_global(&mut self, huge: VirtHugePage) -> Option<V> {
        let pos = self.position(TaggedHugePage::global(huge))?;
        Some(self.entries.remove(pos).1)
    }

    /// Removes every private entry of `asid`, preserving every other
    /// entry's recency position. Returns how many were removed.
    /// Flushing [`Asid::GLOBAL`] removes nothing, mirroring the SUT.
    pub fn flush_asid(&mut self, asid: Asid) -> u64 {
        if asid.is_global() {
            return 0;
        }
        let before = self.entries.len();
        self.entries.retain(|(k, _)| k.asid != asid);
        (before - self.entries.len()) as u64
    }

    /// Looks up `(asid, huge)`, filling a private entry on a miss.
    /// Returns whether it hit.
    pub fn access_or_fill(
        &mut self,
        asid: Asid,
        huge: VirtHugePage,
        fill: impl FnOnce() -> V,
    ) -> bool {
        if self.lookup(asid, huge).is_some() {
            return true;
        }
        self.insert(asid, huge, fill());
        false
    }

    /// Resident keys from most- to least-recently used.
    pub fn recency_order(&self) -> impl Iterator<Item = TaggedHugePage> + '_ {
        self.entries.iter().map(|&(k, _)| k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(x: u64) -> VirtHugePage {
        VirtHugePage(x)
    }

    #[test]
    fn private_then_global_probe_order() {
        let mut t: LinearAsidTlb<u64> = LinearAsidTlb::new(4);
        t.insert_global(h(1), 100);
        t.insert(Asid(1), h(1), 11);
        // Tenant 1 sees its private value; tenant 2 falls through to the
        // global entry.
        assert_eq!(t.lookup(Asid(1), h(1)), Some(&11));
        assert_eq!(t.lookup(Asid(2), h(1)), Some(&100));
    }

    #[test]
    fn flush_spares_globals_and_other_tenants() {
        let mut t: LinearAsidTlb<u64> = LinearAsidTlb::new(8);
        t.insert(Asid(1), h(1), 1);
        t.insert(Asid(1), h(2), 2);
        t.insert(Asid(2), h(1), 3);
        t.insert_global(h(9), 4);
        assert_eq!(t.flush_asid(Asid(1)), 2);
        assert_eq!(t.len(), 2);
        assert_eq!(t.lookup(Asid(2), h(1)), Some(&3));
        assert_eq!(t.lookup(Asid(1), h(9)), Some(&4));
        assert_eq!(t.flush_asid(Asid::GLOBAL), 0);
    }

    #[test]
    fn cross_tenant_lru_eviction() {
        let mut t: LinearAsidTlb<u64> = LinearAsidTlb::new(2);
        t.insert(Asid(1), h(1), 1);
        t.insert(Asid(2), h(1), 2);
        t.lookup(Asid(1), h(1));
        // Tenant 2's entry is LRU; tenant 3's fill evicts it.
        let victim = t.insert(Asid(3), h(1), 3);
        assert_eq!(victim, Some((TaggedHugePage::new(Asid(2), h(1)), 2)));
    }
}
