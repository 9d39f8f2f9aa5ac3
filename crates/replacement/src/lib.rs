//! Page-replacement policies over a generic cache simulator.
//!
//! The paper's framework is policy-agnostic: a huge-page decoupling scheme
//! accepts an arbitrary **RAM-replacement policy** and an arbitrary
//! **TLB-replacement policy**, each an online paging algorithm in the classic
//! Sleator–Tarjan sense (Lemma 1 reduces both sub-problems to classic
//! paging). This crate supplies the menu:
//!
//! * online: [`Lru`], [`Fifo`], [`Clock`] (second chance), [`Mru`],
//!   [`Lfu`] (ordered-map implementation), [`Slru`] (segmented LRU),
//!   [`TwoQ`] (simplified 2Q), [`RandomPolicy`];
//! * offline: [`opt::OptCache`] — Belady's farthest-in-future algorithm,
//!   used as the lower-bound comparator in experiments.
//!
//! All online policies plug into [`CacheSim`], which owns the key→slot map
//! and calls back into the policy on hits, insertions, and removals. Every
//! operation is O(1) except `Lfu` bucket maintenance (amortized O(1)).
//!
//! The simulator also supports *explicit invalidation* ([`CacheSim::remove`])
//! because TLBs are invalidated by shootdowns, not only by capacity misses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod any;
pub mod cache;
pub mod clock;
pub mod fifo;
pub mod lfu;
pub mod list;
pub mod lru;
pub mod lruk;
pub mod marking;
pub mod mru;
pub mod opt;
pub mod policy;
pub mod random;
pub mod sieve;
pub mod slot_set;
pub mod slru;
pub mod twoq;

pub use any::AnyPolicy;
pub use cache::{AccessResult, CacheSim, HitRun, LANES};
pub use clock::Clock;
pub use fifo::Fifo;
pub use lfu::Lfu;
pub use lru::Lru;
pub use lruk::LruK;
pub use marking::Marking;
pub use mru::Mru;
pub use opt::OptCache;
pub use policy::{Policy, PolicyBuild, PolicyKind, SlotId};
pub use random::RandomPolicy;
pub use sieve::Sieve;
pub use slot_set::{SlotPool, SlotVec};
pub use slru::Slru;
pub use twoq::TwoQ;

/// Constructs a boxed policy by kind, for runtime-configured experiments.
pub fn make_policy(kind: PolicyKind, capacity: usize, seed: u64) -> Box<dyn Policy> {
    match kind {
        PolicyKind::Lru => Box::new(Lru::new(capacity)),
        PolicyKind::Fifo => Box::new(Fifo::new(capacity)),
        PolicyKind::Clock => Box::new(Clock::new(capacity)),
        PolicyKind::Mru => Box::new(Mru::new(capacity)),
        PolicyKind::Lfu => Box::new(Lfu::new(capacity)),
        PolicyKind::Slru => Box::new(Slru::new(capacity)),
        PolicyKind::TwoQ => Box::new(TwoQ::new(capacity)),
        PolicyKind::Random => Box::new(RandomPolicy::new(capacity, seed)),
        PolicyKind::LruK => Box::new(LruK::two(capacity)),
        PolicyKind::Sieve => Box::new(Sieve::new(capacity)),
        PolicyKind::Marking => Box::new(Marking::new(capacity, seed)),
    }
}
