//! Reference TLB-value encoders: the heap-backed dense and sparse values.
//!
//! These are the original `Vec`-backed [`TlbValue`] and [`SparseValue`]
//! of `atp_core`, kept verbatim apart from their imports. The simulator's
//! values are inline, `Copy` and bit-packed (`atp_core::TlbValue`,
//! `atp_core::SparseValue`); these are the obvious implementations they
//! are checked against: a dense value is a packed `Vec<u64>` with
//! per-call bounds arithmetic, a sparse value a `Vec` of `(index, code)`
//! pairs scanned linearly. `crates/check/tests/diff_tlb_value.rs` drives
//! both over identical set/clear/get sequences.

use atp_core::params::bits_for;
use atp_core::SlotCode;

/// A `w`-bit TLB value: `hmax` codes of `bits` bits, little-endian packed
/// into 64-bit words.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TlbValue {
    words: Vec<u64>,
    bits: u32,
    count: u32,
}

impl TlbValue {
    /// Creates an all-absent value holding `count` codes of `bits` bits.
    ///
    /// # Panics
    /// Panics if `bits` is 0 or > 32, or `count` is 0.
    pub fn new(count: u32, bits: u32) -> Self {
        assert!((1..=32).contains(&bits), "code width must be 1..=32 bits");
        assert!(count > 0, "value must hold at least one code");
        let total_bits = count as usize * bits as usize;
        Self {
            words: vec![0; total_bits.div_ceil(64)],
            bits,
            count,
        }
    }

    /// Total size in bits (must be ≤ w; checked by the scheme).
    #[inline]
    pub fn size_bits(&self) -> u32 {
        self.count * self.bits
    }

    /// Number of codes.
    #[inline]
    pub fn count(&self) -> u32 {
        self.count
    }

    /// Width of each code in bits.
    #[inline]
    pub fn code_bits(&self) -> u32 {
        self.bits
    }

    /// Reads code `i`.
    ///
    /// # Panics
    /// Panics if `i >= count`.
    pub fn get(&self, i: u32) -> SlotCode {
        assert!(i < self.count, "code index {i} out of range");
        let bit = i as usize * self.bits as usize;
        let (word, off) = (bit / 64, (bit % 64) as u32);
        let mask = if self.bits == 32 {
            u32::MAX as u64
        } else {
            (1u64 << self.bits) - 1
        };
        let lo = self.words[word] >> off;
        let val = if off + self.bits <= 64 {
            lo & mask
        } else {
            let hi = self.words[word + 1] << (64 - off);
            (lo | hi) & mask
        };
        SlotCode(val as u32)
    }

    /// Writes code `i`.
    ///
    /// # Panics
    /// Panics if `i >= count` or the code does not fit in `bits` bits.
    pub fn set(&mut self, i: u32, code: SlotCode) {
        assert!(i < self.count, "code index {i} out of range");
        let mask = if self.bits == 32 {
            u32::MAX as u64
        } else {
            (1u64 << self.bits) - 1
        };
        assert!(
            (code.0 as u64) <= mask,
            "code {} does not fit in {} bits",
            code.0,
            self.bits
        );
        let bit = i as usize * self.bits as usize;
        let (word, off) = (bit / 64, (bit % 64) as u32);
        self.words[word] &= !(mask << off);
        self.words[word] |= (code.0 as u64) << off;
        if off + self.bits > 64 {
            let spill = off + self.bits - 64;
            let hi_mask = (1u64 << spill) - 1;
            self.words[word + 1] &= !hi_mask;
            self.words[word + 1] |= (code.0 as u64) >> (64 - off);
        }
    }

    /// Whether every code is absent (the huge page has no resident pages).
    pub fn is_all_absent(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of resident (nonzero) codes.
    pub fn resident_count(&self) -> u32 {
        (0..self.count)
            .filter(|&i| !self.get(i).is_absent())
            .count() as u32
    }
}

/// A sparse `w`-bit TLB value: up to `K` (constituent index, slot code)
/// pairs over a huge page of `hmax` constituents.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SparseValue {
    entries: Vec<(u32, SlotCode)>,
    capacity: u32,
    hmax: u32,
    bits: u32,
}

impl SparseValue {
    /// Creates an empty sparse value for huge pages of `hmax` constituents
    /// with `bits`-bit slot codes, fitting a `w`-bit budget.
    ///
    /// # Panics
    /// Panics if even one pair does not fit in `w` bits.
    pub fn new(w: u32, hmax: u32, bits: u32) -> Self {
        let pair_bits = bits_for(hmax as u64) + bits;
        let capacity = w / pair_bits;
        assert!(
            capacity >= 1,
            "w={w} cannot hold one ({} + {bits})-bit pair",
            bits_for(hmax as u64)
        );
        Self {
            entries: Vec::with_capacity(capacity as usize),
            capacity,
            hmax,
            bits,
        }
    }

    /// Number of `(index, code)` pairs that fit (`K`).
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Number of encoded constituents.
    pub fn encoded(&self) -> u32 {
        self.entries.len() as u32
    }

    /// Huge-page size this value covers.
    pub fn hmax(&self) -> u32 {
        self.hmax
    }

    /// Bits used by the current contents (≤ w by construction).
    pub fn size_bits(&self) -> u32 {
        self.entries.len() as u32 * (bits_for(self.hmax as u64) + self.bits)
    }

    /// Records constituent `i`'s code. Returns `true` if the code is now
    /// encoded, `false` if it had to be dropped (value full) — the caller
    /// will pay a decoding miss when `i` is next accessed.
    ///
    /// Setting [`SlotCode::ABSENT`] removes any existing entry (eviction).
    ///
    /// # Panics
    /// Panics if `i ≥ hmax` or the code exceeds `bits` bits.
    pub fn set(&mut self, i: u32, code: SlotCode) -> bool {
        assert!(i < self.hmax, "constituent index {i} out of range");
        if !code.is_absent() {
            let mask = if self.bits >= 32 {
                u32::MAX
            } else {
                (1u32 << self.bits) - 1
            };
            assert!(code.0 <= mask, "code {} exceeds {} bits", code.0, self.bits);
        }
        match self.entries.iter().position(|&(idx, _)| idx == i) {
            Some(pos) => {
                if code.is_absent() {
                    self.entries.swap_remove(pos);
                } else {
                    self.entries[pos].1 = code;
                }
                true
            }
            None => {
                if code.is_absent() {
                    true // removing a non-entry is a no-op
                } else if (self.entries.len() as u32) < self.capacity {
                    self.entries.push((i, code));
                    true
                } else {
                    false // dropped: resident but unencoded
                }
            }
        }
    }

    /// Reads constituent `i`'s code: `Some(code)` if encoded, `None` if this
    /// value has no information about `i` (absent *or* unencoded — the
    /// decoder cannot tell, which is precisely what makes the miss a
    /// *decoding* miss rather than an error).
    pub fn get(&self, i: u32) -> Option<SlotCode> {
        self.entries
            .iter()
            .find(|&&(idx, _)| idx == i)
            .map(|&(_, c)| c)
    }

    /// Whether nothing is encoded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}
