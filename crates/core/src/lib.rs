//! Huge-page decoupling — the paper's core contribution (Sections 3–4).
//!
//! A **huge-page decoupling scheme** lets the TLB cache virtual huge pages of
//! size `hmax` while RAM is allocated at base-page granularity, by encoding
//! in each `w`-bit TLB value *where* every resident constituent page lives.
//! The three parts defined in Section 3:
//!
//! 1. a **RAM-allocation scheme** assigning a stable, injective physical
//!    address `φ(v)` to each active page — implemented by the
//!    low-associativity allocators in [`alloc`]:
//!    [`alloc::FullyAssociativeAlloc`] (baseline: `log P` bits per page),
//!    [`alloc::OneChoiceAlloc`] (Theorem 1: bins of size `Θ̃(log P)`,
//!    `Θ(log log P)` bits per page), and
//!    [`alloc::IcebergAlloc`] (Theorem 3: Iceberg\[2\] bins of size
//!    `Θ̃(log log P)`, `Θ(log log log P)` bits per page);
//! 2. a **TLB-encoding scheme** assembling the `w`-bit value
//!    `ψ(u)` as a bit-packed array of per-page slot codes held inline in a
//!    `Copy` value of at most 512 bits ([`encoding`]; the sparse variant
//!    packs `(index, code)` pairs instead, [`encoding_sparse`]);
//! 3. a **TLB-decoding scheme** — the pure function `f(v, ψ(u))` of eq. (4)
//!    recovering `φ(v)` or "not resident" in O(1).
//!
//! [`scheme::DecouplingScheme`] wires the three together, maintains the
//! constant-time shadow table of ψ-values (one per huge page with at least
//! one resident constituent — exactly the structure Theorem 1's proof
//! sketches — kept in the slots of one slab), and tracks the
//! paging-failure set `F`.
//!
//! Theory-guided parameter derivations live in [`params`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod encoding;
pub mod encoding_sparse;
pub mod params;
pub mod scheme;
pub mod tenancy;

pub use alloc::{
    FullyAssociativeAlloc, GreedyAlloc, IcebergAlloc, OneChoiceAlloc, PagingFailure, Placement,
    RamAllocator,
};
pub use encoding::{ResidentCodes, SlotCode, TlbValue, MAX_VALUE_BITS};
pub use encoding_sparse::{sparse_hmax, SparseValue};
pub use params::{hmax_for, AllocatorKind, IcebergParams, OneChoiceParams};
pub use scheme::DecouplingScheme;
pub use tenancy::SharedPoolAlloc;

// Both TLB values are `Copy`, so neither can own a heap block: a fill or
// an eviction moves a value's inline words and nothing else.
const _: () = {
    const fn assert_copy<T: Copy>() {}
    assert_copy::<TlbValue>();
    assert_copy::<SparseValue>();
};
