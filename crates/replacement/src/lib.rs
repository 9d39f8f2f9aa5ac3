//! Page-replacement policies over a generic cache simulator.
//!
//! The paper's framework is policy-agnostic: a huge-page decoupling scheme
//! accepts an arbitrary **RAM-replacement policy** and an arbitrary
//! **TLB-replacement policy**, each an online paging algorithm in the classic
//! Sleator–Tarjan sense (Lemma 1 reduces both sub-problems to classic
//! paging). This crate supplies the policies the experiments run:
//!
//! * online: [`Lru`], [`Fifo`], [`Clock`] (second chance), [`Sieve`], and
//!   randomized [`Marking`] (Fiat et al. [22], O(log k)-competitive);
//! * offline: [`opt::opt_misses`] — Belady's farthest-in-future algorithm,
//!   used as the lower-bound comparator in experiments.
//!
//! All online policies plug into [`CacheSim`], which owns the key→slot map
//! and calls back into the policy on hits, insertions, and removals. Every
//! operation is O(1), amortized over the hand sweeps of CLOCK and SIEVE and
//! Marking's phase resets.
//!
//! The simulator also supports *explicit invalidation* ([`CacheSim::remove`])
//! because TLBs are invalidated by shootdowns, not only by capacity misses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod any;
pub mod cache;
pub mod clock;
pub mod fifo;
pub mod list;
pub mod lru;
pub mod marking;
pub mod opt;
pub mod policy;
pub mod sieve;
pub mod slot_set;

pub use any::AnyPolicy;
pub use cache::{AccessResult, CacheSim, HitRun, LANES};
pub use clock::Clock;
pub use fifo::Fifo;
pub use lru::Lru;
pub use marking::Marking;
pub use policy::{Policy, PolicyBuild, PolicyKind, SlotId};
pub use sieve::Sieve;
pub use slot_set::{SlotPool, SlotVec};
