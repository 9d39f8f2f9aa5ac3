//! Naive reference models ("oracles") for every randomized subsystem.
//!
//! Each oracle is the *obvious* implementation of a subsystem's contract —
//! exhaustive scans, flat maps, quadratic lookahead — deliberately too
//! slow for simulation but trivially auditable. Differential tests
//! (`crates/check/tests/`) drive each production implementation and its
//! oracle over identical generated inputs and fail on the first diverging
//! step:
//!
//! | family        | oracle                                      | systems under test                          |
//! |---------------|---------------------------------------------|---------------------------------------------|
//! | balls-and-bins| [`NaiveGame`] (exhaustive bin scan)         | `Game` under `OneChoice`/`Greedy`/`Iceberg` |
//! | TLB           | [`LinearPolicyTlb`] (linear scan per policy)| `Tlb<_, P>` for LRU/FIFO/CLOCK/SIEVE        |
//! | ASID TLB      | [`LinearAsidTlb`] (tagged linear-scan LRU)  | `AsidTlb` (private/global probe, ASID flush) |
//! | OPT           | [`opt_misses_naive`] (exhaustive lookahead) | `opt::opt_misses`                           |
//! | batching      | [`run_single_step`] (unbatched driver)      | `run_batched` over all seven managers       |
//! | TLB values    | [`VecTlbValue`], [`VecSparseValue`] (heap)  | inline `TlbValue`/`SparseValue`, scheme shadow |

pub mod asid_tlb;
pub mod ballsbins;
pub mod batching;
pub mod belady;
pub mod encoders;
pub mod policy_tlb;

pub use asid_tlb::LinearAsidTlb;
pub use ballsbins::NaiveGame;
pub use batching::{counters_modulo_batches, run_single_step};
pub use belady::opt_misses_naive;
pub use encoders::{SparseValue as VecSparseValue, TlbValue as VecTlbValue};
pub use policy_tlb::{LinearPolicyTlb, RefPolicy};
