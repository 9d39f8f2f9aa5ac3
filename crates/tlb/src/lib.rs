//! The TLB model.
//!
//! A TLB is a small key-value cache: keys are virtual huge-page addresses,
//! values are whatever the encoding scheme stores — a physical huge-page
//! base for classic physically-contiguous huge pages, or a `w`-bit decoupled
//! encoding ψ(u) for the paper's scheme. The paper's cost model has one
//! TLB organization: the experiments model "the TLB as a fully associative
//! cache and use LRU as the replacement policy" (Section 6). This crate
//! provides it:
//!
//! * [`Tlb`] — fully associative, ℓ entries, pluggable replacement policy,
//!   with a scalar entry point (one access at a time, what the managers
//!   run) and a batch entry point ([`Tlb::access_or_fill_batch`]) that
//!   retires whole access streams through a speculative resolution cache
//!   with validation at retire, bit-for-bit equivalent to the scalar path
//!   for every policy;
//! * [`AsidTlb`] — the same structure keyed by ASID-tagged huge pages,
//!   with the global-entry (kernel-bit) matching rule and targeted
//!   `flush_asid` invalidation: the substrate of the multi-tenant
//!   simulations, where context switches flush nothing.
//!
//! Both support explicit invalidation, needed for TLB shootdowns in the
//! multicore extension and for decoupling-driven value updates. [`Tlb`] is
//! generic over its key type ([`TlbKey`]), defaulting to a plain
//! `VirtHugePage` (one address space).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asid;
pub mod full;
pub mod key;

pub use asid::{AsidHitRun, AsidTlb, AsidTlbStats};
pub use full::{Tlb, TlbStats};
pub use key::TlbKey;
