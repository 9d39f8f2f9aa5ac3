//! Sparse TLB-value encoding: trading decoding misses for coverage.
//!
//! Section 5 motivates the decoding-miss cost with exactly this design:
//! "imagine … a memory-management algorithm chooses to encode for each
//! virtual huge page u in the TLB only the physical addresses of u's most
//! commonly accessed constituent pages; then the pages that do not get
//! encoded would incur decoding misses when they were accessed."
//!
//! [`SparseValue`] stores up to `K` `(index, code)` pairs instead of a dense
//! array of `hmax` codes. Budget: `K · (⌈log₂ hmax⌉ + bits) ≤ w`, so for
//! sparsely-resident huge pages a *much* larger `hmax` fits the same `w` —
//! at the price that a resident-but-unencoded page decodes to "unknown"
//! (a decoding miss, cost ε), rather than breaking correctness.
//!
//! The pairs are bit-packed back to back into the same inline
//! [`MAX_VALUE_BITS`]-bit budget as the dense value, the way a hardware
//! entry would hold them: each pair is the code in its low `bits` bits and
//! the index above it. Code 0 never names a resident page, so an all-zero
//! pair is an empty one; the encoded pairs are the leading nonempty ones,
//! in the order they were set (a removal moves the last pair into the gap).
//! The value is `Copy`, so a fill or an eviction moves words and no heap
//! block.
//!
//! Compare with the dense [`crate::encoding::TlbValue`], which can always
//! encode all `hmax` constituents but caps `hmax` at `w / bits`.

use crate::encoding::{field_mask, read_field, write_field, SlotCode, MAX_VALUE_BITS, VALUE_WORDS};
use crate::params::bits_for;

/// A sparse `w`-bit TLB value: up to `K` (constituent index, slot code)
/// pairs over a huge page of `hmax` constituents.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SparseValue {
    /// `capacity` packed pairs; pairs past the encoded prefix are zero.
    words: [u64; VALUE_WORDS],
    hmax: u32,
    capacity: u16,
    index_bits: u8,
    code_bits: u8,
}

impl SparseValue {
    /// Creates an empty sparse value for huge pages of `hmax` constituents
    /// with `bits`-bit slot codes, fitting a `w`-bit budget.
    ///
    /// # Panics
    /// Panics if `w` exceeds [`MAX_VALUE_BITS`], if `bits` exceeds 32 (the
    /// width of a [`SlotCode`]), or if even one pair does not fit in `w`
    /// bits.
    pub fn new(w: u32, hmax: u32, bits: u32) -> Self {
        assert!(
            w <= MAX_VALUE_BITS,
            "w={w} exceeds the {MAX_VALUE_BITS}-bit value budget"
        );
        assert!(bits <= 32, "code width {bits} exceeds 32 bits");
        let index_bits = bits_for(hmax as u64);
        let capacity = w / (index_bits + bits);
        assert!(
            capacity >= 1,
            "w={w} cannot hold one ({index_bits} + {bits})-bit pair"
        );
        Self {
            words: [0; VALUE_WORDS],
            hmax,
            capacity: capacity as u16,
            index_bits: index_bits as u8,
            code_bits: bits as u8,
        }
    }

    /// Number of `(index, code)` pairs that fit (`K`).
    pub fn capacity(&self) -> u32 {
        self.capacity as u32
    }

    /// Number of encoded constituents.
    pub fn encoded(&self) -> u32 {
        self.end_bit() as u32 / self.pair_bits()
    }

    /// Huge-page size this value covers.
    pub fn hmax(&self) -> u32 {
        self.hmax
    }

    /// Bits used by the current contents (≤ w by construction).
    pub fn size_bits(&self) -> u32 {
        self.end_bit() as u32
    }

    /// Whether all `K` pairs are in use, so that a new constituent would
    /// be dropped. O(1): only the last pair's code is read.
    #[inline]
    pub fn is_full(&self) -> bool {
        let last = (self.capacity as u32 - 1) * self.pair_bits();
        read_field(&self.words, last as usize, self.code_bits as u32) != 0
    }

    #[inline]
    fn pair_bits(&self) -> u32 {
        self.index_bits as u32 + self.code_bits as u32
    }

    /// Scans the encoded pairs for index `target`: `Ok((bit, code))` of
    /// its pair, else `Err(bit)` of the first empty pair (`K · pair_bits`
    /// when the value is full).
    #[inline]
    fn scan(&self, target: Option<u32>) -> Result<(usize, u32), usize> {
        let code_bits = self.code_bits as u32;
        let width = self.pair_bits();
        let end = self.capacity as usize * width as usize;
        if end <= 64 {
            return self.scan_word(target);
        }
        let code_mask = field_mask(code_bits);
        let mut bit = 0;
        while bit < end {
            let pair = read_field(&self.words, bit, width);
            let code = pair & code_mask;
            if code == 0 {
                return Err(bit);
            }
            if target.is_some_and(|i| pair >> code_bits == i as u64) {
                return Ok((bit, code as u32));
            }
            bit += width as usize;
        }
        Err(end)
    }

    /// [`SparseValue::scan`] for pairs that all sit in the first word (any
    /// `w ≤ 64`): every pair is compared at once (SWAR), the way a hardware
    /// entry matches its index fields in parallel.
    #[inline]
    fn scan_word(&self, target: Option<u32>) -> Result<(usize, u32), usize> {
        let code_bits = self.code_bits as u32;
        let width = self.pair_bits();
        // Bit 0 and the top bit of every pair slot in the word, and each
        // slot's bits below its top; the top bit of every slot whose masked
        // value is nonzero. Slots past `K` are zero, so they read as empty.
        let bases = FIELD_BASES[width as usize];
        let tops = bases << (width - 1);
        let below = tops - bases;
        let nonzero = |v: u64| (((v & below) + below) | v) & tops;
        let code_lanes = bases * field_mask(code_bits);
        let x = self.words[0];
        let occupied = nonzero(x & code_lanes);
        if let Some(i) = target {
            let wanted = bases * ((i as u64) << code_bits);
            let hit = occupied & !nonzero((x ^ wanted) & !code_lanes);
            if hit != 0 {
                let off = hit.trailing_zeros() + 1 - width;
                return Ok((off as usize, ((x >> off) & field_mask(code_bits)) as u32));
            }
        }
        let empty = tops & !occupied;
        Err(if empty == 0 {
            self.capacity as usize * width as usize
        } else {
            (empty.trailing_zeros() + 1 - width) as usize
        })
    }

    /// The bit just past the last encoded pair.
    fn end_bit(&self) -> usize {
        match self.scan(None) {
            Ok((bit, _)) | Err(bit) => bit,
        }
    }

    /// Records constituent `i`'s code. Returns `true` if the code is now
    /// encoded, `false` if it had to be dropped (value full) — the caller
    /// will pay a decoding miss when `i` is next accessed.
    ///
    /// Setting [`SlotCode::ABSENT`] removes any existing entry (eviction).
    ///
    /// # Panics
    /// Panics if `i ≥ hmax` or the code exceeds `bits` bits.
    #[inline]
    pub fn set(&mut self, i: u32, code: SlotCode) -> bool {
        assert!(i < self.hmax, "constituent index {i} out of range");
        let code_bits = self.code_bits as u32;
        if !code.is_absent() {
            assert!(
                code.0 as u64 <= field_mask(code_bits),
                "code {} exceeds {} bits",
                code.0,
                code_bits
            );
        }
        let width = self.pair_bits();
        match self.scan(Some(i)) {
            Ok((bit, _)) if code.is_absent() => {
                // Swap-remove: the last pair fills the gap.
                let last = self.end_bit() - width as usize;
                let moved = read_field(&self.words, last, width);
                write_field(&mut self.words, bit, width, moved);
                write_field(&mut self.words, last, width, 0);
                true
            }
            Ok((bit, _)) => {
                // The code is the pair's low field.
                write_field(&mut self.words, bit, code_bits, code.0 as u64);
                true
            }
            // Removing a non-entry is a no-op.
            Err(_) if code.is_absent() => true,
            Err(end) if end < self.capacity as usize * width as usize => {
                let pair = ((i as u64) << code_bits) | code.0 as u64;
                write_field(&mut self.words, end, width, pair);
                true
            }
            Err(_) => false, // dropped: resident but unencoded
        }
    }

    /// Reads constituent `i`'s code: `Some(code)` if encoded, `None` if this
    /// value has no information about `i` (absent *or* unencoded — the
    /// decoder cannot tell, which is precisely what makes the miss a
    /// *decoding* miss rather than an error).
    #[inline]
    pub fn get(&self, i: u32) -> Option<SlotCode> {
        if i >= self.hmax {
            return None; // never encoded (and wider than an index field)
        }
        self.scan(Some(i)).ok().map(|(_, code)| SlotCode(code))
    }

    /// Whether nothing is encoded.
    pub fn is_empty(&self) -> bool {
        self.end_bit() == 0
    }
}

/// `FIELD_BASES[w]`: bit 0 of every whole `w`-bit slot in a 64-bit word.
const FIELD_BASES: [u64; 65] = {
    let mut table = [0u64; 65];
    let mut width = 1;
    while width <= 64 {
        let mut at = 0;
        while at + width <= 64 {
            table[width] |= 1 << at;
            at += width;
        }
        width += 1;
    }
    table
};

/// The largest `hmax` a sparse value supports for a given `w`, `bits`, and
/// a target number of simultaneously-encodable constituents `k`.
///
/// Unlike the dense encoding's `hmax = w / bits`, the sparse `hmax` grows
/// *exponentially* in the leftover budget: `hmax = 2^((w/k) − bits)`.
pub fn sparse_hmax(w: u32, bits: u32, k: u32) -> u64 {
    let per_pair = w / k.max(1);
    if per_pair <= bits {
        return 1;
    }
    1u64 << (per_pair - bits).min(63)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_respects_budget() {
        // hmax = 4096 → 12-bit indices; 5-bit codes → 17 bits/pair;
        // w = 64 → K = 3.
        let v = SparseValue::new(64, 4096, 5);
        assert_eq!(v.capacity(), 3);
        assert!(v.size_bits() <= 64);
    }

    #[test]
    fn set_get_roundtrip_and_drop() {
        let mut v = SparseValue::new(64, 4096, 5);
        assert!(v.set(7, SlotCode(1)));
        assert!(v.set(100, SlotCode(2)));
        assert!(v.set(4000, SlotCode(3)));
        // Full: the fourth distinct constituent is dropped.
        assert!(!v.set(9, SlotCode(4)));
        assert_eq!(v.get(7), Some(SlotCode(1)));
        assert_eq!(v.get(9), None, "dropped → decoding miss");
        assert_eq!(v.encoded(), 3);
        assert!(v.size_bits() <= 64);
    }

    #[test]
    fn eviction_frees_a_slot() {
        let mut v = SparseValue::new(64, 4096, 5);
        v.set(1, SlotCode(1));
        v.set(2, SlotCode(2));
        v.set(3, SlotCode(3));
        assert!(!v.set(4, SlotCode(4)));
        v.set(2, SlotCode::ABSENT); // constituent 2 evicted from RAM
        assert!(v.set(4, SlotCode(4)), "freed slot is reusable");
        assert_eq!(v.get(2), None);
        assert_eq!(v.get(4), Some(SlotCode(4)));
    }

    #[test]
    fn update_in_place_never_drops() {
        let mut v = SparseValue::new(64, 4096, 5);
        v.set(1, SlotCode(1));
        v.set(2, SlotCode(2));
        v.set(3, SlotCode(3));
        assert!(v.set(1, SlotCode(9)), "updating an encoded entry is free");
        assert_eq!(v.get(1), Some(SlotCode(9)));
    }

    #[test]
    fn absent_removal_of_unencoded_is_noop() {
        let mut v = SparseValue::new(64, 16, 5);
        assert!(v.set(3, SlotCode::ABSENT));
        assert!(v.is_empty());
    }

    #[test]
    fn sparse_hmax_beats_dense_for_sparse_residency() {
        // Dense: w=64, 5-bit codes → hmax = 12 (⌊64/5⌋).
        // Sparse with K=2 encodable: hmax = 2^(32-5) = 2^27 constituents!
        assert_eq!(sparse_hmax(64, 5, 2), 1 << 27);
        assert!(sparse_hmax(64, 5, 2) > (64 / 5) as u64);
        // Degenerate: no room beyond the code → hmax 1.
        assert_eq!(sparse_hmax(8, 8, 1), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn index_bound_checked() {
        let mut v = SparseValue::new(64, 16, 5);
        v.set(16, SlotCode(1));
    }

    #[test]
    fn decoding_miss_accounting_demo() {
        // The §5 scenario end to end at the data-structure level: 8
        // resident constituents, only 3 encodable → 5 accesses out of 8
        // decode as misses.
        let mut v = SparseValue::new(64, 4096, 5);
        let mut dropped = 0;
        for i in 0..8u32 {
            if !v.set(i, SlotCode(i + 1)) {
                dropped += 1;
            }
        }
        assert_eq!(dropped, 5);
        let misses = (0..8u32).filter(|&i| v.get(i).is_none()).count();
        assert_eq!(misses, 5);
    }

    #[test]
    fn pairs_pack_across_word_edges_at_full_width() {
        // w = 512, hmax = 2^20 (20-bit indices), 32-bit codes: 52-bit pairs
        // straddle word edges; K = 9 fills 468 of 512 bits.
        let mut v = SparseValue::new(512, 1 << 20, 32);
        assert_eq!(v.capacity(), 9);
        for k in 0..9u32 {
            assert!(v.set((1 << 20) - 1 - k, SlotCode(u32::MAX - k)));
        }
        assert!(!v.set(5, SlotCode(1)), "full value drops the code");
        for k in 0..9u32 {
            assert_eq!(v.get((1 << 20) - 1 - k), Some(SlotCode(u32::MAX - k)));
        }
        assert_eq!(v.size_bits(), 9 * 52);
        // Removing the first pair moves the last into its place.
        v.set((1 << 20) - 1, SlotCode::ABSENT);
        assert_eq!(v.encoded(), 8);
        assert_eq!(v.get((1 << 20) - 9), Some(SlotCode(u32::MAX - 8)));
        assert!(v.set(5, SlotCode(1)));
    }

    #[test]
    #[should_panic(expected = "exceeds the 512-bit value budget")]
    fn wider_than_a_cache_line_rejected() {
        SparseValue::new(513, 64, 5);
    }

    #[test]
    fn fits_one_cache_line_plus_header() {
        assert!(std::mem::size_of::<SparseValue>() <= 72);
    }
}
