//! The huge-page decoupling scheme (Section 3).
//!
//! [`DecouplingScheme`] wires a [`RamAllocator`] to the TLB encoding:
//!
//! * it exposes `ram_insert` / `ram_evict` for the RAM-replacement policy's
//!   changes to the active set `A`; `ram_insert` hands back the whole
//!   [`Placement`], so the caller updates a TLB-resident value without
//!   asking the allocator again,
//! * it maintains the **shadow table** of ψ-values — one packed code array
//!   per virtual huge page with at least one resident constituent — so that
//!   every update is O(1) (this is exactly the hash table sketched in the
//!   proof of Theorem 1). The arrays live in one slab of
//!   `⌈hmax · bits / 64⌉`-word slots that a map from huge page to slot
//!   indexes; a slot whose last code is cleared goes on a free list, so
//!   creating or removing an entry allocates nothing,
//! * it provides `psi(u)` for dense TLB fills (a [`TlbValue`] copied out of
//!   the slab), `resident_codes(u)` for sparse ones, and the pure decoding
//!   function `decode(v, ψ)` of eq. (4),
//! * it tracks the failure set `F` of pages the allocator could not place.
//!
//! The shadow is not bounded by the hardware width: a sparse manager keeps
//! a dense shadow of `coverage · bits` bits per huge page, which may be far
//! wider than the [`crate::encoding::MAX_VALUE_BITS`] a [`TlbValue`] holds.
//!
//! The scheme is oblivious to the replacement policies, and they to it —
//! the separation the paper's framework requires.

use crate::alloc::{PagingFailure, Placement, RamAllocator};
use crate::encoding::{read_field, write_field, ResidentCodes, SlotCode, TlbValue};
use crate::params::hmax_for;
use atp_hash::{FxHashMap, FxHashSet};
use atp_types::{HugePageGeometry, PhysPage, VirtHugePage, VirtPage};
use std::collections::hash_map::Entry;

/// Lifetime statistics of a decoupling scheme.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchemeStats {
    /// Successful placements.
    pub placements: u64,
    /// Paging failures ever observed.
    pub failures: u64,
    /// Evictions processed.
    pub evictions: u64,
}

/// The shadow table: the packed code array of every huge page with a
/// resident constituent, in fixed-stride slots of one slab.
#[derive(Clone, Debug)]
struct Shadow {
    /// Huge page → slot index.
    slots: FxHashMap<VirtHugePage, u32>,
    /// `stride` words per slot; a free slot is all zero.
    slab: Vec<u64>,
    /// Free slots, reused last-freed first.
    free: Vec<u32>,
    stride: usize,
    bits: u32,
}

impl Shadow {
    fn new(codes: u64, bits: u32) -> Self {
        Self {
            slots: FxHashMap::default(),
            slab: Vec::new(),
            free: Vec::new(),
            stride: (codes * bits as u64).div_ceil(64) as usize,
            bits,
        }
    }

    #[inline]
    fn words(&self, slot: u32) -> &[u64] {
        let at = slot as usize * self.stride;
        &self.slab[at..at + self.stride]
    }

    /// The packed codes of `u`, if it has a resident constituent.
    #[inline]
    fn get(&self, u: VirtHugePage) -> Option<&[u64]> {
        self.slots.get(&u).map(|&slot| self.words(slot))
    }

    /// Writes a nonzero code for constituent `idx` of `u`, creating `u`'s
    /// entry on its first resident constituent.
    fn set(&mut self, u: VirtHugePage, idx: u32, code: SlotCode) {
        let (slab, free, stride) = (&mut self.slab, &mut self.free, self.stride);
        let slot = *self.slots.entry(u).or_insert_with(|| {
            free.pop().unwrap_or_else(|| {
                let slot = (slab.len() / stride) as u32;
                slab.resize(slab.len() + stride, 0);
                slot
            })
        });
        let at = slot as usize * stride;
        let bit = idx as usize * self.bits as usize;
        write_field(&mut slab[at..at + stride], bit, self.bits, code.0 as u64);
    }

    /// Clears constituent `idx` of `u`; the entry goes once all its codes
    /// are absent.
    fn clear(&mut self, u: VirtHugePage, idx: u32) {
        if let Entry::Occupied(entry) = self.slots.entry(u) {
            let slot = *entry.get();
            let at = slot as usize * self.stride;
            let words = &mut self.slab[at..at + self.stride];
            write_field(words, idx as usize * self.bits as usize, self.bits, 0);
            if words.iter().all(|&w| w == 0) {
                entry.remove();
                self.free.push(slot);
            }
        }
    }

    fn iter(&self) -> impl Iterator<Item = (VirtHugePage, &[u64])> {
        self.slots.iter().map(|(&u, &slot)| (u, self.words(slot)))
    }
}

/// A huge-page decoupling scheme over allocator `A`.
///
/// ```
/// use atp_core::{DecouplingScheme, IcebergAlloc};
/// use atp_types::VirtPage;
///
/// let alloc = IcebergAlloc::with_geometry(64, 8, 4, 42);
/// let mut scheme = DecouplingScheme::new(alloc, 64); // w = 64 bits
/// assert_eq!(scheme.hmax(), 8); // 5-bit codes → 8 pages per TLB value
///
/// let v = VirtPage(19);
/// let placed = scheme.ram_insert(v).unwrap();
/// let psi = scheme.psi(scheme.geometry().huge_of(v));
/// assert_eq!(scheme.decode(v, &psi), Some(placed.frame)); // eq. (4)
/// scheme.ram_evict(v);
/// assert_eq!(scheme.decode(v, &scheme.psi(scheme.geometry().huge_of(v))), None);
/// ```
#[derive(Clone, Debug)]
pub struct DecouplingScheme<A: RamAllocator> {
    alloc: A,
    geom: HugePageGeometry,
    bits: u32,
    hmax: u64,
    w: u32,
    shadow: Shadow,
    failed: FxHashSet<VirtPage>,
    stats: SchemeStats,
}

impl<A: RamAllocator> DecouplingScheme<A> {
    /// Creates a scheme for `w`-bit TLB values, choosing the largest
    /// power-of-two `hmax` whose codes fit: `hmax = ⌊w / bits⌋` rounded down
    /// to a power of two.
    pub fn new(alloc: A, w: u32) -> Self {
        let bits = alloc.bits_per_code();
        let hmax = hmax_for(w, bits);
        Self::with_hmax(alloc, w, hmax)
    }

    /// Creates a scheme with an explicit `hmax` (must fit in `w` bits).
    ///
    /// # Panics
    /// Panics if `hmax` is not a power of two or `hmax · bits > w`.
    pub fn with_hmax(alloc: A, w: u32, hmax: u64) -> Self {
        let bits = alloc.bits_per_code();
        assert!(hmax.is_power_of_two(), "hmax must be a power of two");
        assert!(
            hmax * bits as u64 <= w as u64,
            "hmax={hmax} codes of {bits} bits exceed w={w}"
        );
        Self {
            alloc,
            // atp-lint: allow(unwrap-policy, reason = "constructor contract: documented # Panics on invalid (non-power-of-two) huge-page config")
            geom: HugePageGeometry::new(hmax).expect("power of two"),
            bits,
            hmax,
            w,
            shadow: Shadow::new(hmax, bits),
            failed: FxHashSet::default(),
            stats: SchemeStats::default(),
        }
    }

    /// Maximum huge-page size this scheme supports.
    #[inline]
    pub fn hmax(&self) -> u64 {
        self.hmax
    }

    /// Bits per slot code.
    #[inline]
    pub fn bits_per_code(&self) -> u32 {
        self.bits
    }

    /// TLB value width `w`.
    #[inline]
    pub fn w(&self) -> u32 {
        self.w
    }

    /// Huge-page geometry (`r(v)` etc.).
    #[inline]
    pub fn geometry(&self) -> HugePageGeometry {
        self.geom
    }

    /// The underlying allocator.
    #[inline]
    pub fn allocator(&self) -> &A {
        &self.alloc
    }

    /// Lifetime statistics.
    #[inline]
    pub fn stats(&self) -> SchemeStats {
        self.stats
    }

    /// Current size of the failure set `F`.
    #[inline]
    pub fn failed_count(&self) -> usize {
        self.failed.len()
    }

    /// Whether `v` is currently experiencing a paging failure.
    #[inline]
    pub fn is_failed(&self, v: VirtPage) -> bool {
        !self.failed.is_empty() && self.failed.contains(&v)
    }

    /// Handles the RAM-replacement policy adding `v` to the active set.
    ///
    /// On success, the shadow ψ-value of `v`'s huge page is updated and the
    /// placement (frame and slot code) returned. On failure, `v` joins `F`
    /// (until evicted) and the caller must service accesses to it
    /// out-of-band.
    ///
    /// # Panics
    /// Panics if `v` is already active (policy bug) — failed pages count
    /// as active.
    pub fn ram_insert(&mut self, v: VirtPage) -> Result<Placement, PagingFailure> {
        assert!(!self.is_failed(v), "page {v:?} inserted while failed");
        match self.alloc.place(v) {
            Ok(pl) => {
                self.stats.placements += 1;
                let u = self.geom.huge_of(v);
                let idx = self.geom.index_within(v) as u32;
                self.shadow.set(u, idx, pl.code);
                Ok(pl)
            }
            Err(f) => {
                self.stats.failures += 1;
                self.failed.insert(v);
                Err(f)
            }
        }
    }

    /// Handles the RAM-replacement policy removing `v` from the active set.
    /// Returns the freed frame (or `None` if `v` was failed or absent).
    pub fn ram_evict(&mut self, v: VirtPage) -> Option<PhysPage> {
        self.stats.evictions += 1;
        if !self.failed.is_empty() && self.failed.remove(&v) {
            return None;
        }
        let frame = self.alloc.free(v)?;
        let u = self.geom.huge_of(v);
        self.shadow.clear(u, self.geom.index_within(v) as u32);
        Some(frame)
    }

    /// The current ψ-value for huge page `u` (all-absent if no constituent
    /// is resident), copied out of the shadow for insertion into a TLB.
    ///
    /// # Panics
    /// Panics if `hmax · bits` exceeds [`crate::encoding::MAX_VALUE_BITS`]
    /// (a shadow wider than any TLB value, such as a sparse manager's; read
    /// it through [`DecouplingScheme::resident_codes`]).
    pub fn psi(&self, u: VirtHugePage) -> TlbValue {
        let (count, bits) = (self.hmax as u32, self.bits);
        match self.shadow.get(u) {
            Some(words) => TlbValue::from_words(count, bits, words),
            None => TlbValue::new(count, bits),
        }
    }

    /// The resident constituents of huge page `u` as `(index, code)` in
    /// index order, read in place from the shadow. Whole zero words are
    /// skipped, so taking the first `K` costs O(words + K) for any width.
    pub fn resident_codes(&self, u: VirtHugePage) -> ResidentCodes<'_> {
        ResidentCodes::new(self.shadow.get(u).unwrap_or(&[]), self.bits)
    }

    /// The TLB-decoding function `f(v, ψ)` of eq. (4): returns `φ(v)` if the
    /// value encodes `v` as resident, else `None`. Pure in `(v, ψ)` given
    /// the scheme's fixed random bits.
    pub fn decode(&self, v: VirtPage, psi: &TlbValue) -> Option<PhysPage> {
        let idx = self.geom.index_within(v) as u32;
        self.alloc.decode(v, psi.get(idx))
    }

    /// Direct translation via the shadow table (what a page-table walk would
    /// return): `φ(v)` if placed.
    pub fn frame_of(&self, v: VirtPage) -> Option<PhysPage> {
        self.alloc.frame_of(v)
    }

    /// Current slot code of `v` ([`SlotCode::ABSENT`] if not placed), for
    /// incremental TLB-value maintenance.
    pub fn code_of(&self, v: VirtPage) -> SlotCode {
        self.alloc.code_of(v)
    }

    /// Index of `v` within its huge page, as a `u32` for `TlbValue` access.
    pub fn index_within(&self, v: VirtPage) -> u32 {
        self.geom.index_within(v) as u32
    }

    /// Code of constituent `i` in a packed shadow entry.
    fn shadow_code(&self, words: &[u64], i: u64) -> SlotCode {
        let width = self.bits;
        SlotCode(read_field(words, i as usize * width as usize, width) as u32)
    }

    /// Verifies eq. (4) plus injectivity over the entire current state,
    /// reading the shadow slab directly; used by tests and debug
    /// assertions. O(resident).
    pub fn check_invariants(&self) {
        let mut frames = FxHashSet::default();
        for (v, frame) in self.alloc.iter_placed() {
            assert!(frames.insert(frame.0), "φ not injective at frame {frame:?}");
            let words = self
                .shadow
                .get(self.geom.huge_of(v))
                .unwrap_or_else(|| panic!("placed page {v:?} missing shadow entry"));
            let code = self.shadow_code(words, self.geom.index_within(v));
            assert_eq!(
                self.alloc.decode(v, code),
                Some(frame),
                "decode mismatch for {v:?}"
            );
        }
        // Every shadow code decodes to the frame of its constituent page,
        // and absent codes correspond to non-resident pages.
        for (u, words) in self.shadow.iter() {
            for i in 0..self.hmax {
                let v = self.geom.constituent(u, i);
                let decoded = self.alloc.decode(v, self.shadow_code(words, i));
                match self.alloc.frame_of(v) {
                    Some(frame) => assert_eq!(decoded, Some(frame)),
                    None => assert_eq!(decoded, None, "ghost code for {v:?}"),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::{FullyAssociativeAlloc, IcebergAlloc, OneChoiceAlloc};
    use atp_hash::CounterRng;

    fn scheme_iceberg() -> DecouplingScheme<IcebergAlloc> {
        DecouplingScheme::new(IcebergAlloc::with_geometry(64, 8, 4, 5), 64)
    }

    #[test]
    fn hmax_derivation() {
        // Iceberg 64×(8,4): codes need ceil(log2(1+8+8)) = 5 bits → hmax = 8
        // codes in w=64 → floor(64/5)=12 → power of two 8.
        let s = scheme_iceberg();
        assert_eq!(s.bits_per_code(), 5);
        assert_eq!(s.hmax(), 8);
    }

    #[test]
    #[should_panic(expected = "exceed w")]
    fn oversized_hmax_rejected() {
        DecouplingScheme::with_hmax(IcebergAlloc::with_geometry(64, 8, 4, 5), 16, 8);
    }

    #[test]
    fn insert_decode_evict_roundtrip() {
        let mut s = scheme_iceberg();
        let v = VirtPage(19);
        let frame = s.ram_insert(v).unwrap().frame;
        let u = s.geometry().huge_of(v);
        let psi = s.psi(u);
        assert_eq!(s.decode(v, &psi), Some(frame));
        // Sibling pages decode as absent.
        for sib in s.geometry().constituents(u) {
            if sib != v {
                assert_eq!(s.decode(sib, &psi), None);
            }
        }
        assert_eq!(s.ram_evict(v), Some(frame));
        let psi = s.psi(u);
        assert_eq!(s.decode(v, &psi), None);
    }

    #[test]
    fn shadow_entries_appear_and_disappear() {
        let mut s = scheme_iceberg();
        let g = s.geometry();
        let u = g.huge_of(VirtPage(100));
        assert!(s.psi(u).is_all_absent());
        s.ram_insert(g.constituent(u, 1)).unwrap();
        s.ram_insert(g.constituent(u, 3)).unwrap();
        assert_eq!(s.psi(u).resident_count(), 2);
        s.ram_evict(g.constituent(u, 1));
        assert_eq!(s.psi(u).resident_count(), 1);
        s.ram_evict(g.constituent(u, 3));
        assert!(s.psi(u).is_all_absent());
        assert!(s.shadow.slots.is_empty(), "empty shadow entries reclaimed");
        // The freed slot is reused: a new huge page grows no slab.
        let slab_words = s.shadow.slab.len();
        s.ram_insert(g.constituent(g.huge_of(VirtPage(900)), 2))
            .unwrap();
        assert_eq!(s.shadow.slots.len(), 1);
        assert_eq!(s.shadow.slab.len(), slab_words, "free slot recycled");
        assert!(s.shadow.free.is_empty());
    }

    #[test]
    fn slab_stride_is_the_code_width_rounded_to_words() {
        // hmax · bits ≤ 64 takes one word per entry, not a cache line.
        assert_eq!(scheme_iceberg().shadow.stride, 1);
        // One-choice at w = 4096: 1024 four-bit codes, 64 words per entry,
        // far wider than any TLB value; the shadow still serves it.
        let mut s = DecouplingScheme::new(OneChoiceAlloc::with_geometry(32, 8, 2), 4096);
        assert_eq!(s.shadow.stride, 64);
        let g = s.geometry();
        let pages = [
            g.constituent(VirtHugePage(3), 1000),
            g.constituent(VirtHugePage(3), 7),
        ];
        let codes: Vec<_> = pages
            .iter()
            .map(|&v| s.ram_insert(v).unwrap().code)
            .collect();
        let got: Vec<_> = s.resident_codes(VirtHugePage(3)).collect();
        assert_eq!(got, [(7, codes[1]), (1000, codes[0])]);
        assert_eq!(s.resident_codes(VirtHugePage(4)).next(), None);
        s.check_invariants();
    }

    #[test]
    #[should_panic(expected = "exceed 512 bits")]
    fn psi_of_a_shadow_wider_than_any_tlb_value_panics() {
        let s = DecouplingScheme::new(OneChoiceAlloc::with_geometry(32, 8, 2), 4096);
        s.psi(VirtHugePage(0));
    }

    #[test]
    fn failures_tracked_until_evicted() {
        // Tiny allocator: 1 bin, 1 front, 1 back → only 2 pages fit legally
        // (and h2==h3==the same bin).
        let mut s = DecouplingScheme::new(IcebergAlloc::with_geometry(1, 1, 1, 3), 64);
        s.ram_insert(VirtPage(0)).unwrap();
        s.ram_insert(VirtPage(1)).unwrap();
        assert!(s.ram_insert(VirtPage(2)).is_err());
        assert!(s.is_failed(VirtPage(2)));
        assert_eq!(s.failed_count(), 1);
        assert_eq!(s.stats().failures, 1);
        // Eviction clears the failure without touching the allocator.
        assert_eq!(s.ram_evict(VirtPage(2)), None);
        assert!(!s.is_failed(VirtPage(2)));
        assert_eq!(s.failed_count(), 0);
    }

    #[test]
    fn invariants_hold_under_churn_all_allocators() {
        fn churn<A: RamAllocator>(mut s: DecouplingScheme<A>, universe: u64) {
            let mut rng = CounterRng::new(77, 1);
            let mut active: Vec<u64> = Vec::new();
            for step in 0..4000u64 {
                if active.len() < 100 || rng.next_bool(0.4) {
                    let mut v = rng.next_below(universe);
                    while active.contains(&v) {
                        v = rng.next_below(universe);
                    }
                    match s.ram_insert(VirtPage(v)) {
                        Ok(_) | Err(_) => active.push(v),
                    }
                } else {
                    let i = rng.next_below(active.len() as u64) as usize;
                    let v = active.swap_remove(i);
                    s.ram_evict(VirtPage(v));
                }
                if step % 500 == 0 {
                    s.check_invariants();
                }
            }
            s.check_invariants();
        }
        churn(
            DecouplingScheme::new(IcebergAlloc::with_geometry(64, 4, 3, 2), 64),
            4096,
        );
        churn(
            DecouplingScheme::new(OneChoiceAlloc::with_geometry(32, 8, 2), 4096),
            4096,
        );
        churn(
            DecouplingScheme::new(FullyAssociativeAlloc::new(256), 64),
            4096,
        );
    }

    #[test]
    fn decode_is_pure_snapshot() {
        // A psi snapshot taken before later churn still decodes what it
        // encoded at snapshot time (values are copied, not referenced) —
        // this is what makes a *stale TLB entry* well-defined.
        let mut s = scheme_iceberg();
        let g = s.geometry();
        let v = VirtPage(42);
        let frame = s.ram_insert(v).unwrap().frame;
        let snapshot = s.psi(g.huge_of(v));
        // Churn elsewhere.
        for x in 200..260u64 {
            let _ = s.ram_insert(VirtPage(x));
        }
        assert_eq!(s.decode(v, &snapshot), Some(frame));
    }

    #[test]
    #[should_panic(expected = "inserted while failed")]
    fn double_insert_of_failed_page_panics() {
        let mut s = DecouplingScheme::new(IcebergAlloc::with_geometry(1, 1, 1, 3), 64);
        s.ram_insert(VirtPage(0)).unwrap();
        s.ram_insert(VirtPage(1)).unwrap();
        let _ = s.ram_insert(VirtPage(2));
        let _ = s.ram_insert(VirtPage(2));
    }
}
