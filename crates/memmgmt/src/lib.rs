//! Memory-management algorithms in the address-translation cost model
//! (Sections 5–6).
//!
//! A memory-management algorithm controls the TLB contents `T`, the active
//! set `A`, the decoding function `f`, and the virtual-to-physical map `φ`.
//! Its cost on a request sequence is `C = C_TLB + C_IO + C_D` (ε per TLB
//! miss, 1 per IO, ε per decoding miss). This crate implements:
//!
//! * [`ClassicMm`] — physically contiguous huge pages of size `h`: the
//!   trace-driven simulator of Section 6 (each fault moves `h` pages at a
//!   cost of `h` IOs; TLB entries cover `h` pages). `h = 1` is classic
//!   paging with no huge pages.
//! * [`VirtualOnlyMm`] — the TLB-optimizing algorithm `X` of Theorem 4:
//!   only `C_TLB` matters, computed over the huge-page request stream
//!   `r(p_1), r(p_2), …` (Lemma 1).
//! * [`PagingOnlyMm`] — the IO-optimizing algorithm `Y` of Theorem 4: only
//!   `C_IO` matters, classic paging on `σ` with `(1−δ)P` pages (Lemma 1).
//! * [`DecoupledMm`] — the combined algorithm `Z` built from a huge-page
//!   decoupling scheme per the proof of Theorem 4, including the
//!   paging-failure path (cost `1 + ε` per affected request, no TLB
//!   encoding).
//! * [`HybridMm`] — the Section 8 extension: decoupled entries whose slots
//!   are moderate-size physical huge pages (chunks), trading a little IO
//!   amplification for `chunk×` more TLB coverage.
//!
//! All managers are [`Stages`] implementations run by the shared
//! [`Pipeline`] — a staged access path (TLB probe → residency → translate)
//! with a pluggable [`SimObserver`] seam ([`Recorder`] captures per-stage
//! counters and histograms; the default [`NoopObserver`] costs nothing).
//! Every pipeline implements [`MemoryManager`] and can be driven by
//! `atp-sim`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classic;
pub mod decoupled;
pub mod hybrid;
pub mod observe;
pub mod only;
pub mod pipeline;
pub mod sparse;
pub mod tenancy;
pub mod thp;
pub mod traits;

pub use classic::ClassicMm;
pub use decoupled::DecoupledMm;
pub use hybrid::HybridMm;
pub use observe::{
    latency_classes, EvictionEvent, LatencyClass, NoopObserver, Recorder, SimObserver,
    StageCounters, TlbEvent,
};
pub use only::{PagingOnlyMm, VirtualOnlyMm};
pub use pipeline::{Pipeline, Stages, TlbProbe};
pub use sparse::{SparseConfig, SparseDecoupledMm};
pub use tenancy::{TenantArena, TenantManager, TenantMm, TenantMmConfig};
pub use thp::{ThpConfig, ThpMm, ThpStats};
pub use traits::{AccessReport, MemoryManager};
