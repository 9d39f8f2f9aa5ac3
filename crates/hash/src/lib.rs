//! Deterministic hashing substrate for the Address-Translation Problem.
//!
//! Every randomized component in this workspace — the balls-and-bins games,
//! the low-associativity RAM allocators, the workload generators — draws its
//! randomness from seeded, *deterministic* hash functions so that experiments
//! are exactly reproducible. This crate provides:
//!
//! * [`mix::splitmix64`] and friends — 64-bit finalizers/mixers,
//! * [`xx::XxHash64`] — a streaming 64-bit hasher (xxHash64 algorithm),
//! * [`fx::FxHasher`] / [`fx::FxBuildHasher`] — the rustc-style fast hasher
//!   used for internal `HashMap`s (std's SipHash is a measured bottleneck in
//!   page-granular simulators; see the perf-book "Hashing" chapter),
//! * [`pagehash::PageHasher`] — `k` independent page→bin choices via
//!   seeded double hashing, the paper's `h_1, …, h_k`,
//! * [`counter::CounterRng`] — a counter-based deterministic RNG stream so
//!   that (e.g.) edge `j` of graph node `v` is a pure function of `(v, j)`,
//! * [`flat::SlotIndex`] — a fixed-geometry open-addressing `hash → slot`
//!   index with a precomputed-hash API and explicit bucket prefetch, the
//!   probe structure under the batched translation engine,
//! * [`last_touch::LastTouch`] — a page → last-touch-time map kept as an
//!   array over a dense page prefix with a hash map for the pages above
//!   it, the reuse tracking behind reuse-distance histograms, LRU
//!   miss-ratio curves and OPT's next-use pass.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counter;
pub mod flat;
pub mod fx;
pub mod last_touch;
pub mod mix;
pub mod pagehash;
pub mod xx;

pub use counter::CounterRng;
pub use flat::{fx_hash, SlotIndex, NO_SLOT};
pub use fx::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use last_touch::LastTouch;
pub use mix::{mix2, mix3, splitmix64};
pub use pagehash::PageHasher;
pub use xx::XxHash64;
