//! Theorem 4 (i), (ii) and (iii) and Lemma 1 as generated properties.
//!
//! The decoupled manager `Z` glues `X`'s TLB replacement to `Y`'s RAM
//! replacement through a decoupling scheme, so while the scheme's failure
//! set `F` is empty eq. (7) holds with equality, access for access:
//!
//! * **(i)** Z's TLB misses equal those of `X(hmax)` — virtual huge pages of
//!   Z's coverage under the same TLB policy — and the sparse manager's
//!   equal `X(coverage)`'s. Both managers fill ψ(u) exactly on X's misses
//!   and keep TLB-resident values current with the in-place `Tlb::update`,
//!   so this also pins that the update never touches replacement state.
//! * **(ii)** While `F = ∅`, Z's IOs equal `Y(m)`'s: RAM replacement is
//!   Y's policy over base pages, one IO per fault.
//! * **(iii)** With `F ≠ ∅`, Z's excess over X and Y is exactly its
//!   paging-failure accesses: TLB misses still equal `X(hmax)`'s, each
//!   failed access pays one decoding miss, and one IO more than `Y(m)`
//!   when it hits in RAM (a miss pays the IO Y pays too). A degenerate
//!   Iceberg allocator forces the failures.
//! * **Lemma 1** reduces X and Y to classical paging: `X(hmax)`'s TLB
//!   misses are the misses of a 64-entry cache over the huge-page stream
//!   ⌊v/hmax⌋, and `Y(m)`'s IOs those of an m-page cache over the page
//!   stream. The caches here are the linear-scan [`LinearPolicyTlb`]
//!   oracle, which shares no code with `atp-replacement`, so this checks
//!   every `AnyPolicy` arm X and Y reach, lane-group retire included.
//!
//! Traces concatenate uniform, Zipf, phased and sequential segments over
//! four times the resident budget. Every case runs LRU, FIFO, CLOCK and
//! SIEVE at batch sizes {1, 13, 4096}, at P = 2^12 or 2^14 with
//! theory-derived Iceberg parameters. (ii) is checked on the trace prefix
//! before the first paging failure, so it holds whether or not a case
//! reaches one. (iii) runs the same traces at P = 768 instead. Failures
//! shrink to a minimal segment list and print an
//! `ATP_CHECK_SEED` replay line.

use atp_check::oracles::{LinearPolicyTlb, RefPolicy};
use atp_check::{bools, check_config, ensure_eq, u64s, vecs, Config, Gen};
use atp_core::{IcebergAlloc, IcebergParams};
use atp_memmgmt::decoupled::DecoupledConfig;
use atp_memmgmt::{
    DecoupledMm, MemoryManager, PagingOnlyMm, SparseConfig, SparseDecoupledMm, VirtualOnlyMm,
};
use atp_replacement::PolicyKind;
use atp_sim::run_batched;
use atp_types::{Costs, VirtHugePage, VirtPage};
use atp_workloads::{PhasedWorkingSet, UniformRandom, Zipfian};

const TLB: u64 = 64;
const COVERAGE: u64 = 64;
const SEED: u64 = 3;
/// Y's resident pages in the Lemma 1 check, small because the oracle
/// scans linearly.
const RAM: u64 = 256;
const BATCHES: [usize; 3] = [1, 13, 4096];
/// Each policy with its linear-scan oracle twin.
const POLICIES: [(PolicyKind, RefPolicy); 4] = [
    (PolicyKind::Lru, RefPolicy::Lru),
    (PolicyKind::Fifo, RefPolicy::Fifo),
    (PolicyKind::Clock, RefPolicy::Clock),
    (PolicyKind::Sieve, RefPolicy::Sieve),
];

/// A case: P = 2^14 (else 2^12), then `(kind, length, seed)` segments.
type Case = (bool, Vec<(u64, u64, u64)>);

fn cases() -> impl Gen<Value = Case> {
    (
        bools(),
        vecs((u64s(0..=3), u64s(1..=4000), u64s(0..=u64::MAX)), 1..=5),
    )
}

/// Expands the segments over `span` pages: uniform, Zipf (s = 1), phased
/// working sets of `span / 8` pages, or a wrapping sequential scan.
fn trace(segments: &[(u64, u64, u64)], span: u64) -> Vec<VirtPage> {
    segments
        .iter()
        .flat_map(|&(kind, len, seed)| -> Box<dyn Iterator<Item = VirtPage>> {
            let len = len as usize;
            match kind {
                0 => Box::new(UniformRandom::new(seed, span).take(len)),
                1 => Box::new(Zipfian::new(seed, span, 1.0).take(len)),
                2 => Box::new(PhasedWorkingSet::new(seed, span, span / 8, 500).take(len)),
                _ => {
                    let start = seed % span;
                    Box::new((0..len as u64).map(move |i| VirtPage((start + i) % span)))
                }
            }
        })
        .collect()
}

fn run(mm: &mut dyn MemoryManager, pages: &[VirtPage], batch: usize) -> Costs {
    run_batched(mm, pages.iter().copied(), 0, pages.len() as u64, batch).costs
}

fn z(params: &IcebergParams, policy: PolicyKind) -> DecoupledMm<IcebergAlloc> {
    z_with(IcebergAlloc::new(params, SEED), params.max_resident, policy)
}

fn z_with(alloc: IcebergAlloc, m: u64, policy: PolicyKind) -> DecoupledMm<IcebergAlloc> {
    DecoupledMm::new(
        alloc,
        DecoupledConfig {
            tlb_value_bits: 64,
            tlb_entries: TLB,
            tlb_policy: policy,
            resident_pages: m,
            ram_policy: policy,
            seed: SEED,
        },
    )
}

/// (iii)'s resident budget, m = ⌊0.9·P⌋ = 691 of P = 768.
const DEGENERATE_M: u64 = 768 * 9 / 10;

/// (iii)'s Z: Iceberg bins of 8 front and 4 back slots, far below the
/// sizes Theorem 3 derives, loaded to `DEGENERATE_M`, a load no
/// failure-free Iceberg\[2\] of this geometry sustains.
fn z_degenerate(policy: PolicyKind) -> DecoupledMm<IcebergAlloc> {
    z_with(
        IcebergAlloc::with_geometry(64, 8, 4, SEED),
        DEGENERATE_M,
        policy,
    )
}

fn sparse(params: &IcebergParams, policy: PolicyKind) -> SparseDecoupledMm<IcebergAlloc> {
    SparseDecoupledMm::new(
        IcebergAlloc::new(params, SEED),
        SparseConfig {
            tlb_value_bits: 64,
            coverage: COVERAGE,
            tlb_entries: TLB,
            tlb_policy: policy,
            resident_pages: params.max_resident,
            ram_policy: policy,
            seed: SEED,
        },
    )
}

/// Index of Z's first paging-failure access (the trace length if none).
fn first_failure(params: &IcebergParams, policy: PolicyKind, pages: &[VirtPage]) -> usize {
    let mut mm = z(params, policy);
    pages
        .iter()
        .position(|&v| mm.access(v).paging_failure)
        .unwrap_or(pages.len())
}

fn theorem4(case: &Case) -> Result<(), String> {
    let (big, segments) = case;
    let params = IcebergParams::derive(if *big { 1 << 14 } else { 1 << 12 });
    let pages = trace(segments, 4 * params.max_resident);
    for (policy, _) in POLICIES {
        let hmax = z(&params, policy).coverage();
        let x = run(&mut VirtualOnlyMm::new(hmax, TLB, policy, SEED), &pages, 1);
        let x_cov = run(
            &mut VirtualOnlyMm::new(COVERAGE, TLB, policy, SEED),
            &pages,
            1,
        );
        let clean = &pages[..first_failure(&params, policy, &pages)];
        let y = run(
            &mut PagingOnlyMm::new(params.max_resident, policy, SEED),
            clean,
            1,
        );
        for batch in BATCHES {
            let at = format!("{policy:?}, batch {batch}");
            let zc = run(&mut z(&params, policy), &pages, batch);
            ensure_eq!(
                zc.tlb_misses,
                x.tlb_misses,
                "(i) Z vs X(hmax={hmax}) ({at})"
            );
            let sc = run(&mut sparse(&params, policy), &pages, batch);
            ensure_eq!(
                sc.tlb_misses,
                x_cov.tlb_misses,
                "(i) sparse vs X(coverage={COVERAGE}) ({at})"
            );
            let zc = if clean.len() == pages.len() {
                zc
            } else {
                run(&mut z(&params, policy), clean, batch)
            };
            ensure_eq!(zc.paging_failures, 0, "prefix before F ≠ ∅ ({at})");
            ensure_eq!(zc.ios, y.ios, "(ii) Z vs Y(m) while F = ∅ ({at})");
        }
    }
    Ok(())
}

fn theorem4_with_failures(case: &Case) -> Result<(), String> {
    // The P = 2^14 flag does not apply: the allocator is fixed.
    let (_, segments) = case;
    let span = 4 * DEGENERATE_M;
    // One sequential sweep of the span comes first: 4m distinct pages
    // through m frames' worth of RAM churn the allocator into failures,
    // so F ≠ ∅ in every case, however short the generated segments.
    let pages: Vec<VirtPage> = (0..span)
        .map(VirtPage)
        .chain(trace(segments, span))
        .collect();
    for (policy, _) in POLICIES {
        let hmax = z_degenerate(policy).coverage();
        let x = run(&mut VirtualOnlyMm::new(hmax, TLB, policy, SEED), &pages, 1);
        // Z's RAM is Y(m): the same policy at the same capacity. Driven in
        // lockstep, a failed access hit in Z's RAM exactly when Y paid no
        // IO for it.
        let mut zs = z_degenerate(policy);
        let mut y = PagingOnlyMm::new(DEGENERATE_M, policy, SEED);
        let mut failed_hits = 0;
        for &v in &pages {
            let failed = zs.access(v).paging_failure;
            let y_hit = y.access(v).ios == 0;
            failed_hits += u64::from(failed && y_hit);
        }
        let y = y.costs();
        for batch in BATCHES {
            let at = format!("{policy:?}, batch {batch}");
            let zc = run(&mut z_degenerate(policy), &pages, batch);
            if zc.paging_failures == 0 {
                return Err(format!("F stayed empty, nothing to check ({at})"));
            }
            ensure_eq!(
                zc.tlb_misses,
                x.tlb_misses,
                "(iii)(a) Z vs X(hmax={hmax}) with F ≠ ∅ ({at})"
            );
            ensure_eq!(
                zc.decode_misses,
                zc.paging_failures,
                "(iii)(b) one decoding miss per failed access ({at})"
            );
            ensure_eq!(
                zc.ios,
                y.ios + failed_hits,
                "(iii)(c) Z vs Y(m) plus failed RAM hits ({at})"
            );
        }
    }
    Ok(())
}

/// Misses of a `capacity`-entry linear-scan cache under `policy` over
/// `keys`.
fn oracle_misses(keys: impl Iterator<Item = u64>, capacity: u64, policy: RefPolicy) -> u64 {
    let mut cache = LinearPolicyTlb::new(capacity as usize, policy);
    keys.filter(|&k| !cache.access_or_fill(VirtHugePage(k), || ()))
        .count() as u64
}

fn lemma1(case: &Case) -> Result<(), String> {
    let (big, segments) = case;
    let params = IcebergParams::derive(if *big { 1 << 14 } else { 1 << 12 });
    let pages = trace(segments, 4 * params.max_resident);
    for (policy, reference) in POLICIES {
        let hmax = z(&params, policy).coverage();
        let huge_misses = oracle_misses(pages.iter().map(|v| v.0 / hmax), TLB, reference);
        let page_misses = oracle_misses(pages.iter().map(|v| v.0), RAM, reference);
        for batch in BATCHES {
            let at = format!("{policy:?}, batch {batch}");
            let x = run(
                &mut VirtualOnlyMm::new(hmax, TLB, policy, SEED),
                &pages,
                batch,
            );
            ensure_eq!(
                x.tlb_misses,
                huge_misses,
                "X(hmax={hmax}) vs paging over huge pages ({at})"
            );
            let y = run(&mut PagingOnlyMm::new(RAM, policy, SEED), &pages, batch);
            ensure_eq!(y.ios, page_misses, "Y(m={RAM}) vs paging over pages ({at})");
        }
    }
    Ok(())
}

#[test]
fn x_and_y_equal_classical_paging() {
    let name = "x_and_y_equal_classical_paging";
    check_config(
        name,
        &cases(),
        &Config::for_property(name).with_cases(6),
        lemma1,
    );
}

#[test]
fn decoupled_tlb_misses_equal_x_and_ios_equal_y_while_f_is_empty() {
    let name = "decoupled_tlb_misses_equal_x_and_ios_equal_y_while_f_is_empty";
    check_config(
        name,
        &cases(),
        &Config::for_property(name).with_cases(6),
        theorem4,
    );
}

#[test]
fn decoupled_pays_exactly_its_paging_failures_when_f_is_not_empty() {
    let name = "decoupled_pays_exactly_its_paging_failures_when_f_is_not_empty";
    check_config(
        name,
        &cases(),
        &Config::for_property(name).with_cases(6),
        theorem4_with_failures,
    );
}

#[test]
#[ignore = "large sizes: run with --ignored"]
fn theorem4_holds_over_many_generated_traces() {
    let name = "theorem4_holds_over_many_generated_traces";
    check_config(
        name,
        &cases(),
        &Config::for_property(name).with_cases(64),
        theorem4,
    );
}
