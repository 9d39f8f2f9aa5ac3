//! A page → last-touch map that is an array where pages are dense.
//!
//! Reuse tracking needs one operation per access: "page `p` is touched at
//! time `now`; when was it touched before?". A hash map answers that with
//! a hash and a probe per access. [`LastTouch`] answers it with one array
//! slot for every page in a dense prefix `[0, D)` and keeps only the pages
//! at or above `D` in a map, the restrictive-plus-flexible split Utopia
//! makes for translations. Single address spaces are dense ranges starting
//! at page 0, so they end up entirely in the array; pages spread over a
//! wide space (tenant `a`'s page `v` at `a · vspan + v`) stay mostly in the
//! map.
//!
//! **How `D` grows.** `D` is 0 or a power of two, and never more than
//! [`DENSE_FLOOR`] or twice the distinct pages recorded, whichever is
//! larger. So the array never costs more than 16 bytes per distinct page,
//! about what a map entry costs. When a page at or above `D` is touched
//! for the first time and the largest power of two within that bound lies
//! above it, `D` grows to that power of two. The rule compares pages with
//! the bound and does no arithmetic on them, so pages up to `u64::MAX`
//! are safe. A growth moves the map's pages below the new `D` into the
//! array, so every page lives in exactly one of the two parts.

use crate::fx::FxHashMap;

/// Pages the array may cover however few pages were recorded: a 32 KiB
/// array, small enough that a short or sparse run loses nothing by it.
pub const DENSE_FLOOR: u64 = 1 << 12;

/// How many array slots each distinct recorded page may pay for.
const SLOTS_PER_PAGE: u64 = 2;

/// A map from page to the time it was last touched; see the module docs.
///
/// ```
/// use atp_hash::LastTouch;
///
/// let mut t = LastTouch::new();
/// assert_eq!(t.replace(7, 0), None);
/// assert_eq!(t.replace(7, 5), Some(0));
/// assert_eq!(t.replace(1 << 40, 6), None); // far above the array
/// assert_eq!(t.replace(1 << 40, 9), Some(6));
/// assert_eq!(t.len(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct LastTouch {
    /// `dense[p]` is one more than page `p`'s last touch; 0 means never.
    dense: Vec<u64>,
    /// Last touch of each recorded page at or above `dense.len()`.
    sparse: FxHashMap<u64, u64>,
    /// Distinct pages recorded, over both parts.
    len: u64,
}

impl LastTouch {
    /// An empty map.
    pub fn new() -> Self {
        LastTouch::default()
    }

    /// Records a touch of `page` at time `now` and returns the time of its
    /// previous touch, or `None` if this is its first. Times need not
    /// increase, but `now` must be below `u64::MAX`.
    #[inline]
    pub fn replace(&mut self, page: u64, now: u64) -> Option<u64> {
        debug_assert!(now < u64::MAX, "now must be below u64::MAX");
        if page < self.dense.len() as u64 {
            let prev = std::mem::replace(&mut self.dense[page as usize], now + 1);
            if prev == 0 {
                self.len += 1;
                return None;
            }
            return Some(prev - 1);
        }
        self.replace_sparse(page, now)
    }

    /// [`LastTouch::replace`] for a page at or above the array.
    fn replace_sparse(&mut self, page: u64, now: u64) -> Option<u64> {
        if let Some(t) = self.sparse.get_mut(&page) {
            return Some(std::mem::replace(t, now));
        }
        self.len += 1;
        let d = self.dense_bound();
        if page < d {
            self.grow(d as usize);
            self.dense[page as usize] = now + 1;
        } else {
            self.sparse.insert(page, now);
        }
        None
    }

    /// The largest `D` the recorded pages pay for: the largest power of
    /// two within [`DENSE_FLOOR`] or [`SLOTS_PER_PAGE`] slots per
    /// distinct page.
    fn dense_bound(&self) -> u64 {
        let slots = DENSE_FLOOR.max(self.len.saturating_mul(SLOTS_PER_PAGE));
        1 << slots.ilog2()
    }

    /// Extends the array to `d` slots and moves the map's pages below `d`
    /// into it.
    fn grow(&mut self, d: usize) {
        let dense = &mut self.dense;
        dense.resize(d, 0);
        self.sparse.retain(|&p, &mut t| {
            let moves = p < d as u64;
            if moves {
                dense[p as usize] = t + 1;
            }
            !moves
        });
    }

    /// Distinct pages recorded.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether no page was recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_is_none_and_later_ones_return_the_previous_time() {
        let mut t = LastTouch::new();
        assert!(t.is_empty());
        assert_eq!(t.replace(3, 10), None);
        assert_eq!(t.replace(3, 11), Some(10));
        assert_eq!(t.replace(3, 4), Some(11), "times need not increase");
        assert_eq!(t.replace(0, 0), None);
        assert_eq!(t.replace(0, 1), Some(0), "time 0 is a real touch");
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn a_small_page_gets_the_floor_sized_array() {
        let mut t = LastTouch::new();
        t.replace(5, 0);
        assert_eq!(t.dense.len() as u64, DENSE_FLOOR);
        assert_eq!(t.replace(5, 2), Some(0));
    }

    #[test]
    fn the_array_grows_only_within_twice_the_distinct_pages() {
        let mut t = LastTouch::new();
        t.replace(DENSE_FLOOR, 0);
        assert_eq!(
            t.dense.len() as u64,
            0,
            "one page may not pay for 2 · floor slots"
        );
        for p in 0..DENSE_FLOOR {
            t.replace(p, p + 1);
        }
        assert_eq!(
            t.dense.len() as u64,
            DENSE_FLOOR,
            "page DENSE_FLOOR is still above it"
        );
        // DENSE_FLOOR + 2 distinct pages pay for 2 · DENSE_FLOOR slots, so
        // the next new page above the array grows it and moves the map's
        // page in.
        t.replace(DENSE_FLOOR + 1, 0);
        assert_eq!(t.dense.len() as u64, 2 * DENSE_FLOOR);
        assert!(t.sparse.is_empty(), "page DENSE_FLOOR moved into the array");
        assert_eq!(t.replace(DENSE_FLOOR, 7), Some(0));
        assert_eq!(t.len(), DENSE_FLOOR + 2);
    }

    #[test]
    fn growth_moves_exactly_the_pages_below_the_new_bound() {
        let mut t = LastTouch::new();
        let high = [5000u64, 9000, 1 << 20, u64::MAX - 1, u64::MAX];
        for (i, &p) in high.iter().enumerate() {
            assert_eq!(t.replace(p, i as u64), None);
        }
        assert_eq!(t.dense.len() as u64, 0);
        for p in 0..5000u64 {
            t.replace(p, 100);
        }
        // 5,005 pages pay for 8,192 slots but not 16,384: 5000 moves,
        // 9000 stays.
        assert_eq!(t.dense.len() as u64, 8192);
        assert_eq!(t.sparse.len(), 4);
        for (i, &p) in high.iter().enumerate() {
            assert_eq!(t.replace(p, 200), Some(i as u64), "page {p}");
        }
        assert_eq!(t.len(), 5005);
    }

    #[test]
    fn pages_at_the_top_of_the_space_stay_in_the_map() {
        let mut t = LastTouch::new();
        assert_eq!(t.replace(u64::MAX, 0), None);
        assert_eq!(t.replace(u64::MAX - 1, 1), None);
        assert_eq!(t.replace(u64::MAX, 2), Some(0));
        assert_eq!(t.replace(u64::MAX - 1, 3), Some(1));
        assert_eq!(t.dense.len() as u64, 0);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn the_largest_time_round_trips() {
        let mut t = LastTouch::new();
        let last = u64::MAX - 1;
        t.replace(1, last);
        t.replace(1 << 50, last);
        assert_eq!(t.replace(1, 0), Some(last));
        assert_eq!(t.replace(1 << 50, 0), Some(last));
    }
}
