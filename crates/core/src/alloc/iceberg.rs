//! The Iceberg\[2\] allocator (Theorem 3, the Decoupling Theorem).
//!
//! Each bin has a **front** tier of `front_cap` slots and a **back** tier of
//! `back_cap` slots. A page first tries the front of its `h₁` bin; if that
//! tier is full, it falls back to Greedy\[2\] over the *back* tiers of its
//! `h₂`/`h₃` bins (comparing back loads only — footnote 4: the two tiers
//! ignore each other). By Theorem 2, with `λ = log log P · log log log P`
//! the maximum load is `(1+o(1))λ + log log n + O(1)` whp, so bins of size
//! `Θ̃(log log P)` suffice and codes take `Θ(log log log P)` bits:
//!
//! ```text
//! code 0                                  absent
//! code 1 ..= F                            front slot (code−1) of bin h₁(v)
//! code F+1 ..= F+B                        back slot  (code−F−1) of bin h₂(v)
//! code F+B+1 ..= F+2B                     back slot  (code−F−B−1) of bin h₃(v)
//! ```

use super::{PagingFailure, Placement, RamAllocator};
use crate::encoding::SlotCode;
use crate::params::{bits_for, IcebergParams};
use atp_hash::{FxHashMap, PageHasher};
use atp_types::{PhysPage, VirtPage};
use std::collections::hash_map::Entry;

/// Where a placed page lives, for bookkeeping.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Pos {
    bin: u64,
    /// Slot within the bin: `< front_cap` is front tier, else back tier.
    slot: u32,
    /// 0, 1, or 2: which hash function chose the bin.
    hash_index: u8,
}

/// One tier's per-bin LIFO free stacks, flat: bin `b`'s stack is
/// `slots[b·cap .. b·cap + len[b]]`, top last.
#[derive(Clone, Debug)]
struct FreeStacks {
    slots: Vec<u32>,
    len: Vec<u32>,
    cap: u32,
}

impl FreeStacks {
    /// Every bin's stack holds `first..first + cap`, popping `first` first.
    fn full(bins: u64, first: u32, cap: u32) -> Self {
        let one_bin = (first..first + cap).rev();
        Self {
            slots: (0..bins).flat_map(|_| one_bin.clone()).collect(),
            len: vec![cap; bins as usize],
            cap,
        }
    }

    /// Occupied slots of bin `b`.
    #[inline]
    fn load(&self, b: u64) -> u32 {
        self.cap - self.len[b as usize]
    }

    #[inline]
    fn pop(&mut self, b: u64) -> Option<u32> {
        let len = &mut self.len[b as usize];
        if *len == 0 {
            return None;
        }
        *len -= 1;
        Some(self.slots[b as usize * self.cap as usize + *len as usize])
    }

    #[inline]
    fn push(&mut self, b: u64, slot: u32) {
        let len = &mut self.len[b as usize];
        self.slots[b as usize * self.cap as usize + *len as usize] = slot;
        *len += 1;
    }
}

/// Iceberg\[2\] allocator.
#[derive(Clone, Debug)]
pub struct IcebergAlloc {
    hasher: PageHasher,
    front_free: FreeStacks,
    back_free: FreeStacks,
    placed: FxHashMap<VirtPage, Pos>,
    front_cap: u32,
    back_cap: u32,
    bits: u32,
    /// Lifetime count of placements that overflowed to the back tier.
    back_placements: u64,
}

impl IcebergAlloc {
    /// Creates the allocator from derived or custom parameters.
    pub fn new(params: &IcebergParams, seed: u64) -> Self {
        Self::with_geometry(params.bins, params.front_cap, params.back_cap, seed)
    }

    /// Creates the allocator with explicit geometry.
    ///
    /// # Panics
    /// Panics if any dimension is zero.
    pub fn with_geometry(bins: u64, front_cap: u32, back_cap: u32, seed: u64) -> Self {
        assert!(
            bins > 0 && front_cap > 0 && back_cap > 0,
            "bins, front_cap, back_cap must be nonzero"
        );
        Self {
            hasher: PageHasher::new(seed, bins, 3),
            front_free: FreeStacks::full(bins, 0, front_cap),
            back_free: FreeStacks::full(bins, front_cap, back_cap),
            placed: FxHashMap::default(),
            front_cap,
            back_cap,
            bits: bits_for(1 + front_cap as u64 + 2 * back_cap as u64),
            back_placements: 0,
        }
    }

    /// Number of bins `n`.
    pub fn bins(&self) -> u64 {
        self.front_free.len.len() as u64
    }

    /// Front-tier capacity per bin.
    pub fn front_cap(&self) -> u32 {
        self.front_cap
    }

    /// Back-tier capacity per bin.
    pub fn back_cap(&self) -> u32 {
        self.back_cap
    }

    /// Back-tier load of bin `b`.
    pub fn back_load(&self, b: u64) -> u32 {
        self.back_free.load(b)
    }

    /// Front-tier load of bin `b`.
    pub fn front_load(&self, b: u64) -> u32 {
        self.front_free.load(b)
    }

    /// Lifetime count of placements that spilled to the back tier; the
    /// theory says this stays a small fraction of all placements.
    pub fn back_placements(&self) -> u64 {
        self.back_placements
    }

    #[inline]
    fn bin_stride(&self) -> u64 {
        (self.front_cap + self.back_cap) as u64
    }

    #[inline]
    fn frame(&self, bin: u64, slot: u32) -> PhysPage {
        PhysPage(bin * self.bin_stride() + slot as u64)
    }

    fn code_for(&self, pos: Pos) -> SlotCode {
        match pos.hash_index {
            0 => SlotCode(1 + pos.slot),
            1 => SlotCode(1 + self.front_cap + (pos.slot - self.front_cap)),
            2 => SlotCode(1 + self.front_cap + self.back_cap + (pos.slot - self.front_cap)),
            _ => unreachable!(),
        }
    }

    /// Takes a slot for `v`: the front of `h₁(v)`, else Greedy\[2\] over the
    /// back tiers of `h₂(v)`/`h₃(v)` (comparing back loads only).
    fn take_slot(
        hasher: &PageHasher,
        front: &mut FreeStacks,
        back: &mut FreeStacks,
        v: VirtPage,
    ) -> Option<Pos> {
        let b1 = hasher.bin(v, 0);
        if let Some(slot) = front.pop(b1) {
            return Some(Pos {
                bin: b1,
                slot,
                hash_index: 0,
            });
        }
        let b2 = hasher.bin(v, 1);
        let b3 = hasher.bin(v, 2);
        let order = if back.load(b2) <= back.load(b3) {
            [(b2, 1u8), (b3, 2u8)]
        } else {
            [(b3, 2u8), (b2, 1u8)]
        };
        order.into_iter().find_map(|(bin, hash_index)| {
            back.pop(bin).map(|slot| Pos {
                bin,
                slot,
                hash_index,
            })
        })
    }
}

impl RamAllocator for IcebergAlloc {
    fn place(&mut self, v: VirtPage) -> Result<Placement, PagingFailure> {
        // One probe of `placed`: the vacant entry is filled on success and
        // dropped on failure.
        let Entry::Vacant(entry) = self.placed.entry(v) else {
            panic!("page {v:?} double-placed");
        };
        let pos = Self::take_slot(&self.hasher, &mut self.front_free, &mut self.back_free, v)
            .ok_or(PagingFailure { page: v })?;
        entry.insert(pos);
        if pos.hash_index != 0 {
            self.back_placements += 1;
        }
        Ok(Placement {
            frame: self.frame(pos.bin, pos.slot),
            code: self.code_for(pos),
        })
    }

    fn free(&mut self, v: VirtPage) -> Option<PhysPage> {
        let pos = self.placed.remove(&v)?;
        if pos.slot < self.front_cap {
            self.front_free.push(pos.bin, pos.slot);
        } else {
            self.back_free.push(pos.bin, pos.slot);
        }
        Some(self.frame(pos.bin, pos.slot))
    }

    fn frame_of(&self, v: VirtPage) -> Option<PhysPage> {
        self.placed.get(&v).map(|p| self.frame(p.bin, p.slot))
    }

    fn code_of(&self, v: VirtPage) -> SlotCode {
        self.placed
            .get(&v)
            .map_or(SlotCode::ABSENT, |&p| self.code_for(p))
    }

    fn decode(&self, v: VirtPage, code: SlotCode) -> Option<PhysPage> {
        if code.is_absent() {
            return None;
        }
        let c = code.0 - 1;
        let f = self.front_cap;
        let b = self.back_cap;
        if c < f {
            Some(self.frame(self.hasher.bin(v, 0), c))
        } else if c < f + b {
            Some(self.frame(self.hasher.bin(v, 1), f + (c - f)))
        } else if c < f + 2 * b {
            Some(self.frame(self.hasher.bin(v, 2), f + (c - f - b)))
        } else {
            None
        }
    }

    fn bits_per_code(&self) -> u32 {
        self.bits
    }

    fn phys_pages(&self) -> u64 {
        self.bins() * self.bin_stride()
    }

    fn resident(&self) -> u64 {
        self.placed.len() as u64
    }

    fn associativity(&self) -> u64 {
        (self.front_cap + 2 * self.back_cap) as u64
    }

    fn iter_placed(&self) -> Box<dyn Iterator<Item = (VirtPage, PhysPage)> + '_> {
        Box::new(
            self.placed
                .iter()
                .map(|(&v, &p)| (v, self.frame(p.bin, p.slot))),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::contract::churn_contract;

    #[test]
    fn contract_holds() {
        churn_contract(IcebergAlloc::with_geometry(32, 8, 4, 11), 4000, 200, 10_000);
    }

    #[test]
    fn prefers_front_tier() {
        let mut a = IcebergAlloc::with_geometry(64, 8, 4, 1);
        for v in 0..32u64 {
            a.place(VirtPage(v)).unwrap();
        }
        assert_eq!(
            a.back_placements(),
            0,
            "sparse fill must stay in front tiers"
        );
    }

    #[test]
    fn overflow_goes_to_less_loaded_back_bin() {
        // One bin, tiny front: forces back placements; then all back slots
        // of both h2/h3 (same single bin) exhaust → failure.
        let mut a = IcebergAlloc::with_geometry(1, 1, 2, 2);
        assert!(a.place(VirtPage(0)).is_ok()); // front
        assert!(a.place(VirtPage(1)).is_ok()); // back
        assert!(a.place(VirtPage(2)).is_ok()); // back
        assert!(a.place(VirtPage(3)).is_err(), "all tiers full");
        assert_eq!(a.back_placements(), 2);
    }

    #[test]
    fn code_ranges_decode_to_distinct_tiers() {
        let mut a = IcebergAlloc::with_geometry(16, 2, 2, 3);
        // Fill until we observe both tiers used.
        let mut saw_front = false;
        let mut saw_back = false;
        for v in 0..48u64 {
            if let Ok(p) = a.place(VirtPage(v)) {
                assert_eq!(a.decode(VirtPage(v), p.code), Some(p.frame));
                if p.code.0 <= 2 {
                    saw_front = true;
                } else {
                    saw_back = true;
                }
            }
        }
        assert!(saw_front && saw_back);
    }

    #[test]
    fn theory_params_survive_fill_without_failures() {
        let params = IcebergParams::derive(1 << 14);
        let mut a = IcebergAlloc::new(&params, 42);
        for v in 0..params.max_resident {
            a.place(VirtPage(v))
                .expect("no failure at theory params (Theorem 3)");
        }
        assert_eq!(a.resident(), params.max_resident);
    }

    #[test]
    fn iceberg_needs_smaller_bins_than_one_choice() {
        // Same P, same zero-failure requirement on a full fill: iceberg's
        // derived bin size is much smaller (the Θ̃(log P) vs Θ̃(loglog P) gap).
        use crate::params::OneChoiceParams;
        let p = 1u64 << 20;
        let oc = OneChoiceParams::derive(p);
        let ib = IcebergParams::derive(p);
        assert!(
            ((ib.front_cap + ib.back_cap) as u64) * 3 < oc.bin_size as u64,
            "iceberg bins {} not ≪ one-choice bins {}",
            ib.front_cap + ib.back_cap,
            oc.bin_size
        );
    }

    #[test]
    fn free_restores_correct_tier() {
        let mut a = IcebergAlloc::with_geometry(1, 1, 1, 7);
        a.place(VirtPage(0)).unwrap(); // front slot
        a.place(VirtPage(1)).unwrap(); // back slot
        let f0 = a.frame_of(VirtPage(0)).unwrap();
        a.free(VirtPage(0));
        // Front slot free again: next placement goes to front.
        let p = a.place(VirtPage(2)).unwrap();
        assert_eq!(p.frame, f0);
        assert_eq!(p.code.0, 1, "front code");
    }

    #[test]
    #[should_panic(expected = "double-placed")]
    fn double_place_panics() {
        let mut a = IcebergAlloc::with_geometry(4, 2, 2, 9);
        a.place(VirtPage(5)).unwrap();
        let _ = a.place(VirtPage(5));
    }

    #[test]
    fn flat_free_stacks_pop_lowest_slot_first_per_tier() {
        // Each bin's stacks start full and pop in slot order, front slots
        // 0.. then back slots front_cap..; a freed slot is the next popped.
        let mut a = IcebergAlloc::with_geometry(1, 3, 2, 4);
        let frames: Vec<u64> = (0..5u64)
            .map(|v| a.place(VirtPage(v)).unwrap().frame.0)
            .collect();
        assert_eq!(frames, [0, 1, 2, 3, 4]);
        assert_eq!((a.front_load(0), a.back_load(0)), (3, 2));
        assert_eq!(a.free(VirtPage(1)), Some(PhysPage(1)));
        assert_eq!(a.free(VirtPage(3)), Some(PhysPage(3)));
        assert_eq!(a.place(VirtPage(9)).unwrap().frame, PhysPage(1));
        assert_eq!(a.place(VirtPage(10)).unwrap().frame, PhysPage(3));
        assert!(a.place(VirtPage(11)).is_err());
    }

    #[test]
    fn decode_rejects_out_of_range() {
        let a = IcebergAlloc::with_geometry(4, 2, 2, 9);
        // codes: 1..=2 front, 3..=4 back(h2), 5..=6 back(h3); 7+ invalid.
        assert!(a.decode(VirtPage(0), SlotCode(6)).is_some());
        assert_eq!(a.decode(VirtPage(0), SlotCode(7)), None);
    }
}
