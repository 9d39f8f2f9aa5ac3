//! Compact TLB-value encoding: ψ(u) as a bit-packed array of slot codes.
//!
//! A `w`-bit TLB value is treated as an array of `hmax` fixed-width codes
//! (`a_1, …, a_hmax` in the proof of Theorem 1). Code 0 means "not
//! resident" (the decoding function's `−1`); nonzero codes name a slot
//! within the page's hashed bin(s), interpreted by the allocator.
//!
//! [`TlbValue`] is the packed bit vector; it is the *only* state a TLB entry
//! carries. It is a `Copy` value with inline room for
//! [`MAX_VALUE_BITS`] = 512 bits — one cache line, the widest `w` that §8
//! considers — so a TLB fill copies one word-array and no value owns a heap
//! block. The same packing (little-endian codes over 64-bit words) backs
//! the scheme's shadow slab, whose entries may be wider than 512 bits; the
//! free functions here read and write it in place.

/// Widest TLB value the inline encodings hold, in bits (one cache line).
pub const MAX_VALUE_BITS: u32 = 512;

/// Words of inline storage behind [`MAX_VALUE_BITS`].
pub(crate) const VALUE_WORDS: usize = MAX_VALUE_BITS as usize / 64;

/// A per-page slot code. `0` = not resident; the allocator defines the
/// meaning of nonzero values (see each allocator's `decode`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct SlotCode(pub u32);

impl SlotCode {
    /// The "not resident" code (eq. 4's `−1`).
    pub const ABSENT: SlotCode = SlotCode(0);

    /// Whether this code marks the page as absent.
    #[inline]
    pub const fn is_absent(self) -> bool {
        self.0 == 0
    }
}

/// All-ones mask of a `width`-bit field (`width ≤ 64`).
#[inline]
pub(crate) fn field_mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Reads the `width`-bit field (`width ≤ 64`) starting at bit `bit` of the
/// little-endian packed `words`.
#[inline]
pub(crate) fn read_field(words: &[u64], bit: usize, width: u32) -> u64 {
    let (word, off) = (bit / 64, (bit % 64) as u32);
    let lo = words[word] >> off;
    let val = if off + width <= 64 {
        lo
    } else {
        lo | (words[word + 1] << (64 - off))
    };
    val & field_mask(width)
}

/// Writes `val` (which must fit) into the `width`-bit field at bit `bit`.
#[inline]
pub(crate) fn write_field(words: &mut [u64], bit: usize, width: u32, val: u64) {
    let (word, off) = (bit / 64, (bit % 64) as u32);
    let mask = field_mask(width);
    words[word] = (words[word] & !(mask << off)) | (val << off);
    if off + width > 64 {
        let hi_mask = field_mask(off + width - 64);
        words[word + 1] = (words[word + 1] & !hi_mask) | (val >> (64 - off));
    }
}

/// The nonzero codes of a packed code array, as `(index, code)` in index
/// order. Zero words are skipped whole, so walking a sparsely populated
/// array costs O(words + codes yielded).
#[derive(Clone, Debug)]
pub struct ResidentCodes<'a> {
    words: &'a [u64],
    bits: u32,
    /// First bit not yet searched.
    next_bit: usize,
}

impl<'a> ResidentCodes<'a> {
    /// Codes of `bits` bits packed into `words`; bits past the last code
    /// must be zero.
    pub(crate) fn new(words: &'a [u64], bits: u32) -> Self {
        Self {
            words,
            bits,
            next_bit: 0,
        }
    }
}

impl Iterator for ResidentCodes<'_> {
    type Item = (u32, SlotCode);

    #[inline]
    fn next(&mut self) -> Option<(u32, SlotCode)> {
        let mut word = self.next_bit / 64;
        let mut w = *self.words.get(word)? & (u64::MAX << (self.next_bit % 64));
        while w == 0 {
            word += 1;
            w = *self.words.get(word)?;
        }
        // The lowest set bit belongs to the first nonzero code at or after
        // `next_bit`; a code straddling a word edge is found through
        // whichever half holds a set bit.
        let bits = self.bits as usize;
        let i = (word * 64 + w.trailing_zeros() as usize) / bits;
        self.next_bit = (i + 1) * bits;
        let code = read_field(self.words, i * bits, self.bits) as u32;
        Some((i as u32, SlotCode(code)))
    }
}

/// A `w`-bit TLB value: `count` codes of `bits` bits, little-endian packed
/// into inline 64-bit words (at most [`MAX_VALUE_BITS`] bits in all).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TlbValue {
    /// Packed codes; bits past `count · bits` stay zero.
    words: [u64; VALUE_WORDS],
    bits: u32,
    count: u32,
}

impl TlbValue {
    /// Creates an all-absent value holding `count` codes of `bits` bits.
    ///
    /// # Panics
    /// Panics if `bits` is 0 or > 32, `count` is 0, or the codes need more
    /// than [`MAX_VALUE_BITS`] bits.
    pub fn new(count: u32, bits: u32) -> Self {
        assert!((1..=32).contains(&bits), "code width must be 1..=32 bits");
        assert!(count > 0, "value must hold at least one code");
        assert!(
            count as u64 * bits as u64 <= MAX_VALUE_BITS as u64,
            "{count} codes of {bits} bits exceed {MAX_VALUE_BITS} bits"
        );
        Self {
            words: [0; VALUE_WORDS],
            bits,
            count,
        }
    }

    /// A value holding `count` codes of `bits` bits copied from the packed
    /// `words` (a shadow-slab entry of exactly the codes' width).
    ///
    /// # Panics
    /// As [`TlbValue::new`].
    pub(crate) fn from_words(count: u32, bits: u32, words: &[u64]) -> Self {
        let mut value = Self::new(count, bits);
        value.words[..words.len()].copy_from_slice(words);
        value
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
    #[inline]
    pub fn get(&self, i: u32) -> SlotCode {
        assert!(i < self.count, "code index {i} out of range");
        let bit = i as usize * self.bits as usize;
        SlotCode(read_field(&self.words, bit, self.bits) as u32)
    }

    /// Writes code `i`.
    ///
    /// # Panics
    /// Panics if `i >= count` or the code does not fit in `bits` bits.
    #[inline]
    pub fn set(&mut self, i: u32, code: SlotCode) {
        assert!(i < self.count, "code index {i} out of range");
        assert!(
            (code.0 as u64) <= field_mask(self.bits),
            "code {} does not fit in {} bits",
            code.0,
            self.bits
        );
        let bit = i as usize * self.bits as usize;
        write_field(&mut self.words, bit, self.bits, code.0 as u64);
    }

    /// Whether every code is absent (the huge page has no resident pages).
    pub fn is_all_absent(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of resident (nonzero) codes.
    pub fn resident_count(&self) -> u32 {
        ResidentCodes::new(&self.words, self.bits).count() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_widths() {
        for bits in 1..=32u32 {
            let count = (MAX_VALUE_BITS / bits).min(37);
            let mut v = TlbValue::new(count, bits);
            let mask = if bits == 32 {
                u32::MAX
            } else {
                (1u32 << bits) - 1
            };
            for i in 0..count {
                v.set(
                    i,
                    SlotCode(i.wrapping_mul(2_654_435_761u32.wrapping_mul(i + 1)) & mask),
                );
            }
            for i in 0..count {
                let expect = i.wrapping_mul(2_654_435_761u32.wrapping_mul(i + 1)) & mask;
                assert_eq!(v.get(i).0, expect, "bits={bits} i={i}");
            }
        }
    }

    #[test]
    fn starts_all_absent() {
        let v = TlbValue::new(16, 5);
        assert!(v.is_all_absent());
        assert_eq!(v.resident_count(), 0);
        for i in 0..16 {
            assert!(v.get(i).is_absent());
        }
    }

    #[test]
    fn set_then_clear_restores_absent() {
        let mut v = TlbValue::new(8, 7);
        v.set(3, SlotCode(99));
        assert_eq!(v.resident_count(), 1);
        assert!(!v.is_all_absent());
        v.set(3, SlotCode::ABSENT);
        assert!(v.is_all_absent());
    }

    #[test]
    fn neighboring_codes_do_not_clobber() {
        let mut v = TlbValue::new(10, 3);
        for i in 0..10 {
            v.set(i, SlotCode(7));
        }
        v.set(5, SlotCode(0));
        for i in 0..10 {
            assert_eq!(v.get(i).0, if i == 5 { 0 } else { 7 });
        }
    }

    #[test]
    fn word_boundary_straddling() {
        // 7-bit codes: code 9 occupies bits 63..70, straddling words 0/1.
        let mut v = TlbValue::new(20, 7);
        v.set(9, SlotCode(0b1010101));
        assert_eq!(v.get(9).0, 0b1010101);
        // Neighbors unaffected.
        assert_eq!(v.get(8).0, 0);
        assert_eq!(v.get(10).0, 0);
    }

    #[test]
    fn size_bits_matches() {
        let v = TlbValue::new(9, 7);
        assert_eq!(v.size_bits(), 63);
        let v = TlbValue::new(64, 1);
        assert_eq!(v.size_bits(), 64);
        let v = TlbValue::new(64, 8);
        assert_eq!(v.size_bits(), MAX_VALUE_BITS);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_code_rejected() {
        let mut v = TlbValue::new(4, 3);
        v.set(0, SlotCode(8));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_index_rejected() {
        let v = TlbValue::new(4, 3);
        v.get(4);
    }

    #[test]
    #[should_panic(expected = "exceed 512 bits")]
    fn wider_than_a_cache_line_rejected() {
        TlbValue::new(103, 5);
    }

    #[test]
    fn fits_one_cache_line_plus_header() {
        assert!(std::mem::size_of::<TlbValue>() <= 72);
    }

    #[test]
    fn resident_codes_walk_in_index_order_across_word_edges() {
        // 7-bit codes straddle words; a code whose low half is zero is
        // still found through its high half.
        let mut v = TlbValue::new(64, 7);
        for (i, c) in [(0u32, 3u32), (9, 0b1000000), (10, 1), (45, 127), (63, 2)] {
            v.set(i, SlotCode(c));
        }
        let got: Vec<(u32, u32)> = ResidentCodes::new(&v.words, 7)
            .map(|(i, c)| (i, c.0))
            .collect();
        assert_eq!(got, [(0, 3), (9, 0b1000000), (10, 1), (45, 127), (63, 2)]);
        assert_eq!(v.resident_count(), 5);
        assert_eq!(ResidentCodes::new(&[0, 0, 0], 5).next(), None);
    }

    #[test]
    fn field_helpers_cover_full_words() {
        let mut words = [0u64; 3];
        write_field(&mut words, 40, 64, u64::MAX - 5);
        assert_eq!(read_field(&words, 40, 64), u64::MAX - 5);
        assert_eq!(read_field(&words, 0, 40), 0);
        assert_eq!(read_field(&words, 104, 64), 0);
        write_field(&mut words, 40, 64, 0);
        assert_eq!(words, [0; 3]);
    }
}
