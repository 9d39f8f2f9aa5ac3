//! Reuse-distance analysis and LRU miss-ratio curves (Mattson et al.).
//!
//! The *reuse distance* of an access is the number of distinct pages touched
//! since the previous access to the same page (∞ for first touches). Because
//! LRU is a stack algorithm, one pass over the trace yields its miss count
//! at **every** cache size simultaneously: an access hits in a cache of
//! capacity `c` iff its reuse distance is `< c`. Experiments use the curve
//! to place `P` relative to the working set (e.g. the paper's Fig-1c cache
//! "slightly below" the touched set).
//!
//! Implementation: classic O(n log n) — a Fenwick tree counts "live" last
//! positions above the previous occurrence of the page. That occurrence
//! comes from an [`atp_hash::LastTouch`], one array slot per page where
//! the trace's pages are dense and a hash map above them, so a single
//! address space pays no hash per access.

use atp_hash::LastTouch;
use atp_types::VirtPage;

/// A Fenwick (binary indexed) tree over positions.
#[derive(Clone, Debug)]
struct Fenwick {
    tree: Vec<u32>,
}

impl Fenwick {
    fn new(n: usize) -> Self {
        Self {
            tree: vec![0; n + 1],
        }
    }

    /// Adds `delta` at 0-based position `i`.
    fn add(&mut self, i: usize, delta: i32) {
        let mut i = i + 1;
        while i < self.tree.len() {
            self.tree[i] = (self.tree[i] as i32 + delta) as u32;
            i += i & i.wrapping_neg();
        }
    }

    /// Sum over positions `[0, i]` (0-based, inclusive).
    fn prefix(&self, i: usize) -> u32 {
        let mut i = i + 1;
        let mut s = 0;
        while i > 0 {
            s += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        s
    }
}

/// Reuse-distance histogram plus the derived LRU miss-ratio curve.
///
/// ```
/// use atp_trace::ReuseProfile;
/// use atp_types::VirtPage;
///
/// // A cyclic scan of 4 pages: every non-cold access has distance 3.
/// let trace: Vec<VirtPage> = (0..40).map(|i| VirtPage(i % 4)).collect();
/// let profile = ReuseProfile::compute(&trace, 16);
/// assert_eq!(profile.cold_misses, 4);
/// assert_eq!(profile.lru_misses(4), 4);   // fits: compulsory only
/// assert_eq!(profile.lru_misses(3), 40);  // one short: total thrash
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct ReuseProfile {
    /// `histogram[d]` = number of accesses with reuse distance exactly `d`
    /// (capped at `histogram.len()-1`; the last bucket also absorbs larger
    /// finite distances).
    pub histogram: Vec<u64>,
    /// Number of first touches (infinite distance = compulsory misses).
    pub cold_misses: u64,
    /// Total accesses.
    pub total: u64,
}

impl ReuseProfile {
    /// Computes the profile over `trace`. `max_distance` caps the histogram
    /// resolution (distances beyond it land in the final bucket).
    pub fn compute(trace: &[VirtPage], max_distance: usize) -> Self {
        let n = trace.len();
        let mut fenwick = Fenwick::new(n);
        let mut last_pos = LastTouch::new();
        let mut histogram = vec![0u64; max_distance + 1];
        let mut cold = 0u64;

        for (i, p) in trace.iter().enumerate() {
            match last_pos.replace(p.0, i as u64) {
                None => cold += 1,
                Some(prev) => {
                    let prev = prev as usize;
                    // Distinct pages accessed strictly between prev and i =
                    // live markers in (prev, i).
                    let between =
                        fenwick.prefix(i.saturating_sub(1)) as u64 - fenwick.prefix(prev) as u64;
                    let d = (between as usize).min(max_distance);
                    histogram[d] += 1;
                    // The page's marker moves from prev to i.
                    fenwick.add(prev, -1);
                }
            }
            fenwick.add(i, 1);
        }

        Self {
            histogram,
            cold_misses: cold,
            total: n as u64,
        }
    }

    /// LRU misses at cache capacity `c` (in pages): cold misses plus all
    /// accesses with reuse distance ≥ c. Exact for `c ≤ max_distance`.
    pub fn lru_misses(&self, c: usize) -> u64 {
        let reuse_hits: u64 = self
            .histogram
            .iter()
            .take(c.min(self.histogram.len()))
            .sum();
        self.total - reuse_hits
    }

    /// LRU miss *ratio* at capacity `c`.
    pub fn lru_miss_ratio(&self, c: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.lru_misses(c) as f64 / self.total as f64
        }
    }

    /// The whole miss-ratio curve at the given capacities.
    pub fn curve(&self, capacities: &[usize]) -> Vec<(usize, f64)> {
        capacities
            .iter()
            .map(|&c| (c, self.lru_miss_ratio(c)))
            .collect()
    }

    /// Smallest capacity whose miss ratio is at most `target` (None if even
    /// the full histogram resolution can't reach it) — the "working set at
    /// tolerance target".
    pub fn capacity_for_miss_ratio(&self, target: f64) -> Option<usize> {
        (1..self.histogram.len()).find(|&c| self.lru_miss_ratio(c) <= target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atp_replacement::{CacheSim, Lru};

    fn pages(ids: &[u64]) -> Vec<VirtPage> {
        ids.iter().map(|&i| VirtPage(i)).collect()
    }

    fn lru_misses_direct(trace: &[VirtPage], cap: usize) -> u64 {
        let mut c = CacheSim::new(cap, Lru::new(cap));
        let mut misses = 0;
        for p in trace {
            misses += u64::from(!c.access(p.0).is_hit());
        }
        misses
    }

    #[test]
    fn textbook_distances() {
        // a b c a: reuse distance of final a is 2 (b, c).
        let t = pages(&[1, 2, 3, 1]);
        let prof = ReuseProfile::compute(&t, 10);
        assert_eq!(prof.cold_misses, 3);
        assert_eq!(prof.histogram[2], 1);
        assert_eq!(prof.total, 4);
    }

    #[test]
    fn immediate_reuse_is_distance_zero() {
        let t = pages(&[7, 7, 7]);
        let prof = ReuseProfile::compute(&t, 4);
        assert_eq!(prof.cold_misses, 1);
        assert_eq!(prof.histogram[0], 2);
    }

    #[test]
    fn matches_real_lru_at_every_capacity() {
        use atp_hash::CounterRng;
        let mut rng = CounterRng::new(3, 0);
        let t: Vec<VirtPage> = (0..4000).map(|_| VirtPage(rng.next_below(128))).collect();
        let prof = ReuseProfile::compute(&t, 256);
        for cap in [1usize, 2, 5, 16, 33, 64, 100, 128] {
            assert_eq!(
                prof.lru_misses(cap),
                lru_misses_direct(&t, cap),
                "capacity {cap}"
            );
        }
    }

    #[test]
    fn curve_is_monotone_nonincreasing() {
        use atp_hash::CounterRng;
        let mut rng = CounterRng::new(9, 1);
        let t: Vec<VirtPage> = (0..5000)
            .map(|_| VirtPage((rng.next_f64().powi(2) * 400.0) as u64))
            .collect();
        let prof = ReuseProfile::compute(&t, 512);
        let curve = prof.curve(&[1, 2, 4, 8, 16, 32, 64, 128, 256, 400]);
        for w in curve.windows(2) {
            assert!(w[1].1 <= w[0].1, "MRC must be nonincreasing: {curve:?}");
        }
    }

    #[test]
    fn capacity_for_miss_ratio_finds_working_set() {
        // Cyclic scan over 50 pages: miss ratio snaps from 1 to ~0 at c=50.
        let t: Vec<VirtPage> = (0..5000u64).map(|i| VirtPage(i % 50)).collect();
        let prof = ReuseProfile::compute(&t, 128);
        assert_eq!(prof.capacity_for_miss_ratio(0.05), Some(50));
        assert!(prof.lru_miss_ratio(49) > 0.98);
    }

    #[test]
    fn cold_misses_equal_unique_pages() {
        let t = pages(&[5, 1, 5, 2, 1, 9, 9, 5]);
        let prof = ReuseProfile::compute(&t, 8);
        assert_eq!(prof.cold_misses, 4);
    }

    #[test]
    fn empty_trace() {
        let prof = ReuseProfile::compute(&[], 4);
        assert_eq!(prof.total, 0);
        assert_eq!(prof.lru_miss_ratio(10), 0.0);
    }
}
