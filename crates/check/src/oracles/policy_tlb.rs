//! Linear-scan fully-associative TLB oracle, parameterized by policy.
//!
//! [`LinearPolicyTlb`] is the reference for every policy with a
//! monomorphized fast path in the fused slot-arena core (LRU, FIFO,
//! CLOCK, SIEVE). It is written against the *published descriptions* of
//! those policies — one `Vec` ordered front-to-back from
//! newest to oldest, per-entry one-bit state, everything a linear scan —
//! with no code shared with `atp_replacement`'s intrusive-list
//! implementations. Differential tests drive both over identical scripts
//! and require bit-for-bit agreement on hits, victims, and residency.

use atp_types::VirtHugePage;

/// Which reference policy the oracle simulates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RefPolicy {
    /// Least-recently used: hits move to front, evict the back.
    Lru,
    /// First-in first-out: hits do nothing, evict the back.
    Fifo,
    /// CLOCK / second chance: hits set a reference bit; the sweep takes the
    /// back, recycling referenced entries to the front with the bit
    /// cleared.
    Clock,
    /// SIEVE: hits set a visited bit; a persistent hand sweeps from oldest
    /// toward newest clearing bits, evicts the first unvisited entry, and
    /// stays where it stopped.
    Sieve,
}

/// One resident entry: key, payload, and the policy's one-bit state
/// (reference bit for CLOCK, visited bit for SIEVE, unused otherwise).
#[derive(Debug)]
struct Entry<V> {
    key: VirtHugePage,
    value: V,
    flag: bool,
}

/// A fully associative TLB under a configurable reference policy, as a
/// linearly scanned `Vec` (front = newest).
#[derive(Debug)]
pub struct LinearPolicyTlb<V> {
    entries: Vec<Entry<V>>,
    capacity: usize,
    policy: RefPolicy,
    /// SIEVE hand: the key the next sweep starts from, if still resident.
    hand: Option<VirtHugePage>,
}

impl<V> LinearPolicyTlb<V> {
    /// Creates an empty TLB with `capacity` entries under `policy`.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize, policy: RefPolicy) -> Self {
        assert!(capacity > 0, "capacity must be nonzero");
        Self {
            entries: Vec::with_capacity(capacity),
            capacity,
            policy,
            hand: None,
        }
    }

    /// Resident entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the TLB is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `u` is resident (no recency effect).
    pub fn contains(&self, u: VirtHugePage) -> bool {
        self.entries.iter().any(|e| e.key == u)
    }

    /// Looks up `u`, applying the policy's hit rule.
    pub fn lookup(&mut self, u: VirtHugePage) -> Option<&V> {
        let pos = self.entries.iter().position(|e| e.key == u)?;
        match self.policy {
            RefPolicy::Lru => {
                let e = self.entries.remove(pos);
                self.entries.insert(0, e);
                Some(&self.entries[0].value)
            }
            RefPolicy::Fifo => Some(&self.entries[pos].value),
            RefPolicy::Clock | RefPolicy::Sieve => {
                self.entries[pos].flag = true;
                Some(&self.entries[pos].value)
            }
        }
    }

    /// Updates the value of a resident entry in place, with no policy
    /// effect. Returns whether the entry was resident.
    pub fn update(&mut self, u: VirtHugePage, f: impl FnOnce(&mut V)) -> bool {
        match self.entries.iter_mut().find(|e| e.key == u) {
            Some(e) => {
                f(&mut e.value);
                true
            }
            None => false,
        }
    }

    /// Chooses and removes the policy's victim. Caller guarantees the TLB
    /// is full (and therefore nonempty).
    fn evict(&mut self) -> (VirtHugePage, V) {
        match self.policy {
            RefPolicy::Lru | RefPolicy::Fifo => {
                // atp-lint: allow(unwrap-policy, reason = "oracle contract: evict is never called on an empty TLB")
                let e = self.entries.pop().expect("evict on empty TLB");
                (e.key, e.value)
            }
            RefPolicy::Clock => loop {
                let last = self.entries.len() - 1;
                if self.entries[last].flag {
                    // Second chance: recycle to the front, bit cleared.
                    let mut e = self.entries.remove(last);
                    e.flag = false;
                    self.entries.insert(0, e);
                } else {
                    let e = self.entries.remove(last);
                    return (e.key, e.value);
                }
            },
            RefPolicy::Sieve => {
                // Sweep from the hand (or the back) toward the front,
                // clearing visited bits; wrap to the back past the front.
                let mut pos = self
                    .hand
                    .and_then(|h| self.entries.iter().position(|e| e.key == h))
                    .unwrap_or(self.entries.len() - 1);
                while self.entries[pos].flag {
                    self.entries[pos].flag = false;
                    pos = if pos == 0 {
                        self.entries.len() - 1
                    } else {
                        pos - 1
                    };
                }
                // Hand rests one step past the victim, toward the front.
                self.hand = pos.checked_sub(1).map(|p| self.entries[p].key);
                let e = self.entries.remove(pos);
                (e.key, e.value)
            }
        }
    }

    /// Inserts `u → value` at the front, returning the victim if full.
    ///
    /// # Panics
    /// Panics if `u` is already resident.
    pub fn insert(&mut self, u: VirtHugePage, value: V) -> Option<(VirtHugePage, V)> {
        assert!(!self.contains(u), "insert of resident TLB entry");
        let victim = if self.entries.len() == self.capacity {
            Some(self.evict())
        } else {
            None
        };
        self.entries.insert(
            0,
            Entry {
                key: u,
                value,
                flag: false,
            },
        );
        victim
    }

    /// Invalidates `u`, returning its value if resident. If the SIEVE hand
    /// pointed at `u`, it moves one step toward the front.
    pub fn invalidate(&mut self, u: VirtHugePage) -> Option<V> {
        let pos = self.entries.iter().position(|e| e.key == u)?;
        if self.hand == Some(u) {
            self.hand = pos.checked_sub(1).map(|p| self.entries[p].key);
        }
        Some(self.entries.remove(pos).value)
    }

    /// Looks up `u`, filling from `fill` on a miss. Returns whether it hit.
    pub fn access_or_fill(&mut self, u: VirtHugePage, fill: impl FnOnce() -> V) -> bool {
        if self.lookup(u).is_some() {
            return true;
        }
        self.insert(u, fill());
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(x: u64) -> VirtHugePage {
        VirtHugePage(x)
    }

    #[test]
    fn fifo_ignores_hits() {
        let mut t: LinearPolicyTlb<u64> = LinearPolicyTlb::new(2, RefPolicy::Fifo);
        t.insert(u(1), 10);
        t.insert(u(2), 20);
        t.lookup(u(1)); // no refresh under FIFO
        assert_eq!(t.insert(u(3), 30), Some((u(1), 10)));
    }

    #[test]
    fn clock_gives_second_chance() {
        let mut t: LinearPolicyTlb<u64> = LinearPolicyTlb::new(2, RefPolicy::Clock);
        t.insert(u(1), 10);
        t.insert(u(2), 20);
        t.lookup(u(1)); // set 1's bit
        assert_eq!(t.insert(u(3), 30), Some((u(2), 20)));
        assert!(t.contains(u(1)));
    }

    #[test]
    fn sieve_hand_persists() {
        let mut t: LinearPolicyTlb<u64> = LinearPolicyTlb::new(3, RefPolicy::Sieve);
        for k in 1..=3 {
            t.insert(u(k), k * 10);
        }
        for k in 1..=3 {
            t.lookup(u(k)); // visit all
        }
        // First eviction clears every bit and wraps to evict the oldest (1);
        // the hand then rests past it, so 2 goes next without re-sweeping.
        assert_eq!(t.insert(u(4), 40), Some((u(1), 10)));
        assert_eq!(t.insert(u(5), 50), Some((u(2), 20)));
    }
}
