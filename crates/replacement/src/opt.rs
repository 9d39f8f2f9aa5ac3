//! Belady's OPT: the offline farthest-in-future algorithm.
//!
//! OPT evicts the resident item whose next use is farthest in the future;
//! it is optimal for the classic paging problem and serves as the lower
//! bound in our policy comparisons (Lemma 1 reduces both the TLB and the
//! RAM sub-problems to classic paging, so OPT bounds both).
//!
//! Implementation: one backward scan precomputes each position's next-use
//! index, finding the nearest later occurrence of each item in an
//! [`atp_hash::LastTouch`]; the forward simulation keeps residents in a
//! max-heap by next use with lazy deletion. O(n log P) total.

use atp_hash::{FxHashMap, LastTouch};
use std::collections::BinaryHeap;

/// Result of an offline OPT simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OptStats {
    /// Number of misses (compulsory + capacity).
    pub misses: u64,
    /// Number of hits.
    pub hits: u64,
}

/// Runs Belady's OPT on `trace` with a cache of `capacity` entries.
///
/// # Panics
/// Panics if `capacity == 0`.
pub fn opt_misses(trace: &[u64], capacity: usize) -> OptStats {
    assert!(capacity > 0, "capacity must be nonzero");
    let n = trace.len();

    // next_use[i] = next position after i where trace[i] recurs, or n (never).
    let mut next_use = vec![n; n];
    let mut last_seen = LastTouch::new();
    for i in (0..n).rev() {
        if let Some(j) = last_seen.replace(trace[i], i as u64) {
            next_use[i] = j as usize;
        }
    }

    // resident: key -> current next-use; heap of (next_use, key) lazy-deleted.
    let mut resident: FxHashMap<u64, usize> = FxHashMap::default();
    let mut heap: BinaryHeap<(usize, u64)> = BinaryHeap::new();
    let mut misses = 0u64;
    let mut hits = 0u64;

    for (i, &k) in trace.iter().enumerate() {
        let nu = next_use[i];
        if let Some(entry) = resident.get_mut(&k) {
            hits += 1;
            *entry = nu;
            heap.push((nu, k));
            continue;
        }
        misses += 1;
        if resident.len() == capacity {
            // Pop until a live entry (matching the resident's current next-use).
            loop {
                // atp-lint: allow(unwrap-policy, reason = "invariant: the heap holds every resident key, so a live victim exists")
                let (cand_nu, cand_k) = heap.pop().expect("heap has a live victim");
                if resident.get(&cand_k) == Some(&cand_nu) {
                    resident.remove(&cand_k);
                    break;
                }
            }
        }
        resident.insert(k, nu);
        heap.push((nu, k));
    }

    OptStats { misses, hits }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheSim;
    use crate::lru::Lru;

    #[test]
    fn textbook_example() {
        // Classic Belady example: 3 frames.
        let trace = [7u64, 0, 1, 2, 0, 3, 0, 4, 2, 3, 0, 3, 2];
        let s = opt_misses(&trace, 3);
        // Known OPT fault count for this trace/capacity is 7.
        assert_eq!(s.misses, 7);
        assert_eq!(s.hits as usize, trace.len() - 7);
    }

    #[test]
    fn compulsory_misses_only_when_capacity_suffices() {
        let trace: Vec<u64> = (0..10).chain(0..10).chain(0..10).collect();
        let s = opt_misses(&trace, 10);
        assert_eq!(s.misses, 10);
    }

    #[test]
    fn cyclic_scan_opt_beats_lru() {
        // cap+1 cycle: LRU misses always; OPT misses ~1/cap of the time.
        let cap = 8usize;
        let trace: Vec<u64> = (0..1000u64).map(|i| i % (cap as u64 + 1)).collect();
        let opt = opt_misses(&trace, cap).misses;
        let mut lru = CacheSim::new(cap, Lru::new(cap));
        let mut lru_misses = 0u64;
        for &k in &trace {
            lru_misses += u64::from(!lru.access(k).is_hit());
        }
        assert_eq!(lru_misses, 1000);
        assert!(opt < 200, "opt misses {opt}");
    }

    #[test]
    fn opt_never_exceeds_lru() {
        use atp_hash::CounterRng;
        let mut rng = CounterRng::new(21, 0);
        let trace: Vec<u64> = (0..5000).map(|_| rng.next_below(64)).collect();
        for cap in [2usize, 4, 8, 16, 32] {
            let opt = opt_misses(&trace, cap).misses;
            let mut lru = CacheSim::new(cap, Lru::new(cap));
            let mut lru_misses = 0u64;
            for &k in &trace {
                lru_misses += u64::from(!lru.access(k).is_hit());
            }
            assert!(opt <= lru_misses, "cap {cap}: opt {opt} > lru {lru_misses}");
        }
    }

    #[test]
    fn monotone_in_capacity() {
        let trace: Vec<u64> = (0..2000u64).map(|i| (i * i + i / 3) % 97).collect();
        let mut prev = u64::MAX;
        for cap in [1usize, 2, 4, 8, 16, 32, 64] {
            let m = opt_misses(&trace, cap).misses;
            assert!(m <= prev, "OPT misses must not increase with capacity");
            prev = m;
        }
    }

    #[test]
    fn empty_trace() {
        let s = opt_misses(&[], 4);
        assert_eq!(s.misses, 0);
        assert_eq!(s.hits, 0);
    }
}
