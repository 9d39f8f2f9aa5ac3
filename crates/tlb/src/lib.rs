//! TLB models.
//!
//! A TLB is a small key-value cache: keys are virtual huge-page addresses,
//! values are whatever the encoding scheme stores — a physical huge-page
//! base for classic physically-contiguous huge pages, or a `w`-bit decoupled
//! encoding ψ(u) for the paper's scheme. This crate provides:
//!
//! * [`Tlb`] — fully associative, ℓ entries, pluggable replacement policy
//!   (the paper's experiments model "the TLB as a fully associative cache
//!   and use LRU as the replacement policy", Section 6), with a scalar
//!   entry point (one access at a time, what the managers run) and a
//!   batch entry point ([`Tlb::access_or_fill_batch`]) that retires whole
//!   access streams through a speculative resolution cache with
//!   validation at retire, bit-for-bit equivalent to the scalar path for
//!   every policy;
//! * [`SetAssocTlb`] — s sets × a ways with per-set LRU, modeling real
//!   hardware organizations;
//! * [`SplitTlb`] — separate structures per page-size class, as real CPUs
//!   provide ("most systems that implement huge pages use different TLBs for
//!   each size", footnote 1; e.g. Cascade Lake's 1536-entry 4k/2M L2 dTLB
//!   plus a 16-entry 1G TLB);
//!
//! All models support explicit invalidation, needed for TLB shootdowns in
//! the multicore extension and for decoupling-driven value updates.
//!
//! Every variant is generic over its key type ([`TlbKey`]), defaulting to
//! a plain `VirtHugePage` (one address space). Keying by
//! `atp_types::TaggedHugePage` turns any variant into an ASID-tagged TLB
//! with targeted `flush_asid` invalidation, and [`AsidTlb`] adds the
//! global-entry (kernel-bit) matching rule on top — the substrate of the
//! multi-tenant simulations, where context switches flush nothing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asid;
pub mod full;
pub mod key;
pub mod set_assoc;
pub mod split;
pub mod twolevel;

pub use asid::{AsidHitRun, AsidTlb, AsidTlbStats};
pub use full::{Tlb, TlbStats};
pub use key::TlbKey;
pub use set_assoc::SetAssocTlb;
pub use split::SplitTlb;
pub use twolevel::{Level, TwoLevelStats, TwoLevelTlb};
