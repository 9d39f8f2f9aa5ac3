//! # atp — Paging and the Address-Translation Problem
//!
//! A trace-driven simulation library reproducing **"Paging and the
//! Address-Translation Problem"** (Bender et al., SPAA 2021): the
//! address-translation cost model, huge-page decoupling via
//! low-associativity paging and Iceberg\[2\] hashing, compact TLB encodings,
//! and the Simulation Theorem combining a TLB-optimal and an IO-optimal
//! policy into one algorithm with the best of both.
//!
//! ## Quick start
//!
//! ```
//! use atp::memmgmt::{ClassicMm, DecoupledMm, MemoryManager};
//! use atp::memmgmt::classic::ClassicConfig;
//! use atp::memmgmt::decoupled::DecoupledConfig;
//! use atp::core::{IcebergAlloc, IcebergParams};
//! use atp::replacement::PolicyKind;
//! use atp::types::VirtPage;
//!
//! // Classic physically contiguous huge pages of 8 pages: every fault
//! // moves 8 pages.
//! let mut classic = ClassicMm::new(ClassicConfig::paper(8, 1 << 14));
//!
//! // Huge-page decoupling over an Iceberg[2] allocator: same TLB coverage,
//! // page-granular IOs.
//! let params = IcebergParams::derive(1 << 14);
//! let mut decoupled = DecoupledMm::new(
//!     IcebergAlloc::new(&params, 42),
//!     DecoupledConfig {
//!         tlb_value_bits: 64,
//!         tlb_entries: 1536,
//!         tlb_policy: PolicyKind::Lru,
//!         resident_pages: params.max_resident,
//!         ram_policy: PolicyKind::Lru,
//!         seed: 42,
//!     },
//! );
//!
//! for p in 0..1024u64 {
//!     classic.access(VirtPage(p));
//!     decoupled.access(VirtPage(p));
//! }
//! // Decoupling faults once per page; classic faults 8 pages at a time.
//! assert_eq!(decoupled.costs().ios, 1024);
//! assert_eq!(classic.costs().ios, 1024);
//! // ... but on sparse access patterns classic pays 8× the IOs; see the
//! // `huge_page_tradeoff` example.
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |--------|----------|
//! | [`types`] | page ids, parameters, the ε/1 cost model |
//! | [`hash`] | seeded deterministic hashing & counter RNG |
//! | [`ballsbins`] | one-choice / Greedy\[d\] / Iceberg\[d\] games |
//! | [`replacement`] | LRU, FIFO, CLOCK, SIEVE, Marking, Belady OPT |
//! | [`tlb`] | the fully associative TLB, plain and ASID-tagged |
//! | [`core`] | **the contribution**: allocators, encodings, scheme |
//! | [`memmgmt`] | classic, X, Y, Z, and hybrid managers |
//! | [`workloads`] | Figure-1 workloads + extras |
//! | [`trace`] | binary trace format |
//! | [`sim`] | drivers, parallel sweeps, multicore extension |
//! | [`obs`] | event tracing, metrics registry, windowed exports |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use atp_ballsbins as ballsbins;
pub use atp_core as core;
pub use atp_hash as hash;
pub use atp_memmgmt as memmgmt;
pub use atp_obs as obs;
pub use atp_replacement as replacement;
pub use atp_sim as sim;
pub use atp_tlb as tlb;
pub use atp_trace as trace;
pub use atp_types as types;
pub use atp_workloads as workloads;
