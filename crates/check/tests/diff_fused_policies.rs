//! Differential tests: the fused slot-arena `Tlb`/`CacheSim` against the
//! linear-scan per-policy oracle [`LinearPolicyTlb`], for every policy
//! with a monomorphized fast path (LRU, FIFO, CLOCK, SIEVE).
//!
//! Scripts interleave both fill paths (`lookup` then `insert`, and the
//! one-probe `access_or_fill`), `invalidate`, and `update` so that slot
//! recycling, policy-metadata cleanup on explicit removal, and (for
//! SIEVE) hand maintenance are all exercised — the places where a fused
//! arena could silently diverge from the textbook policy description.
//! Victims are compared entry-for-entry, not just hit/miss streams.

use atp_check::oracles::{LinearPolicyTlb, RefPolicy};
use atp_check::{check, differential, ensure_eq, u64s, usizes, vecs};
use atp_replacement::{AnyPolicy, Clock, Fifo, Lru, Policy, PolicyBuild, PolicyKind, Sieve};
use atp_tlb::Tlb;
use atp_types::VirtHugePage;

/// Adversary scripts: `(page, op)` with op 0 = `lookup` then `insert` on a
/// miss, 1 = `access_or_fill`, 2 = invalidate, 3 = update — access-heavy
/// so caches actually fill and evict.
fn scripts() -> impl atp_check::Gen<Value = Vec<(u64, u64)>> {
    vecs((u64s(0..=16), u64s(0..=3)), 0..=300)
}

/// Drives a fused `Tlb<u64, P>` and the oracle over one script, comparing
/// every observable: hit/miss, evicted victim entries (`access_or_fill`
/// reports none; a wrong victim shows in later ops and the final count),
/// invalidated values, update residency, and final entry counts.
fn run_policy_diff<P: Policy>(
    name: &'static str,
    sut: &mut Tlb<u64, P>,
    oracle: &mut LinearPolicyTlb<u64>,
    ops: &[(u64, u64)],
) -> Result<(), String> {
    differential(
        name,
        "LinearPolicyTlb",
        ops.iter().copied(),
        |&(p, op)| {
            let u = VirtHugePage(p);
            match op {
                1 => (None, None, None, Some(sut.access_or_fill(u, || p * 10))),
                2 => (sut.invalidate(u), None, None, None),
                3 => (None, Some(sut.update(u, |v| *v += 1)), None, None),
                _ => {
                    if sut.lookup(u).is_some() {
                        (None, None, Some(None), None)
                    } else {
                        (None, None, Some(Some(sut.insert(u, p * 10))), None)
                    }
                }
            }
        },
        |&(p, op)| {
            let u = VirtHugePage(p);
            match op {
                1 => (None, None, None, Some(oracle.access_or_fill(u, || p * 10))),
                2 => (oracle.invalidate(u), None, None, None),
                3 => (None, Some(oracle.update(u, |v| *v += 1)), None, None),
                _ => {
                    if oracle.lookup(u).is_some() {
                        (None, None, Some(None), None)
                    } else {
                        (None, None, Some(Some(oracle.insert(u, p * 10))), None)
                    }
                }
            }
        },
    )?;
    ensure_eq!(sut.len(), oracle.len(), "resident entry count");
    Ok(())
}

fn check_monomorphized<P: Policy + PolicyBuild>(test: &'static str, refp: RefPolicy) {
    let gen = (usizes(1..=8), scripts());
    check(test, &gen, |(cap, ops)| {
        let mut sut: Tlb<u64, P> = Tlb::monomorphic(*cap as u64, 0);
        let mut oracle: LinearPolicyTlb<u64> = LinearPolicyTlb::new(*cap, refp);
        run_policy_diff(test, &mut sut, &mut oracle, ops)
    });
}

#[test]
fn fused_lru_tlb_matches_policy_oracle() {
    check_monomorphized::<Lru>("fused_lru_tlb_matches_policy_oracle", RefPolicy::Lru);
}

#[test]
fn fused_fifo_tlb_matches_policy_oracle() {
    check_monomorphized::<Fifo>("fused_fifo_tlb_matches_policy_oracle", RefPolicy::Fifo);
}

#[test]
fn fused_clock_tlb_matches_policy_oracle() {
    check_monomorphized::<Clock>("fused_clock_tlb_matches_policy_oracle", RefPolicy::Clock);
}

#[test]
fn fused_sieve_tlb_matches_policy_oracle() {
    check_monomorphized::<Sieve>("fused_sieve_tlb_matches_policy_oracle", RefPolicy::Sieve);
}

/// The runtime-dispatched path must be indistinguishable from the
/// monomorphized one: `Tlb<_, AnyPolicy>` against the same oracle.
#[test]
fn any_policy_tlb_matches_policy_oracle() {
    let kinds = [
        (PolicyKind::Lru, RefPolicy::Lru),
        (PolicyKind::Fifo, RefPolicy::Fifo),
        (PolicyKind::Clock, RefPolicy::Clock),
        (PolicyKind::Sieve, RefPolicy::Sieve),
    ];
    let gen = (usizes(1..=8), usizes(0..=3), scripts());
    check(
        "any_policy_tlb_matches_policy_oracle",
        &gen,
        |(cap, ki, ops)| {
            let (kind, refp) = kinds[*ki];
            let mut sut: Tlb<u64, AnyPolicy> = Tlb::new(*cap as u64, kind, 0);
            let mut oracle: LinearPolicyTlb<u64> = LinearPolicyTlb::new(*cap, refp);
            run_policy_diff("Tlb<AnyPolicy>", &mut sut, &mut oracle, ops)
        },
    );
}

/// Long-trace sweep at realistic TLB sizes for the `--ignored` CI step.
#[test]
#[ignore = "large oracle size; run via the dedicated CI step"]
fn fused_policies_match_oracle_at_scale() {
    use atp_check::CounterRng;
    let mut rng = CounterRng::new(0xF05E, 0);
    let ops: Vec<(u64, u64)> = (0..100_000)
        .map(|_| (rng.next_below(2000), rng.next_below(12)))
        .collect();
    fn drive<P: Policy + PolicyBuild>(refp: RefPolicy, ops: &[(u64, u64)]) {
        let mut sut: Tlb<u64, P> = Tlb::monomorphic(1024, 0);
        let mut oracle: LinearPolicyTlb<u64> = LinearPolicyTlb::new(1024, refp);
        for (i, &(p, op)) in ops.iter().enumerate() {
            let u = VirtHugePage(p);
            match op {
                10 => assert_eq!(
                    sut.invalidate(u),
                    oracle.invalidate(u),
                    "{refp:?}: invalidate diverged at op {i}"
                ),
                11 => assert_eq!(
                    sut.update(u, |v| *v ^= 1),
                    oracle.update(u, |v| *v ^= 1),
                    "{refp:?}: update diverged at op {i}"
                ),
                _ => {
                    let sut_hit = sut.lookup(u).is_some();
                    let oracle_hit = oracle.lookup(u).is_some();
                    assert_eq!(sut_hit, oracle_hit, "{refp:?}: hit/miss diverged at op {i}");
                    if !sut_hit {
                        assert_eq!(
                            sut.insert(u, p),
                            oracle.insert(u, p),
                            "{refp:?}: victim diverged at op {i}"
                        );
                    }
                }
            }
        }
        assert_eq!(sut.len(), oracle.len());
    }
    drive::<Lru>(RefPolicy::Lru, &ops);
    drive::<Fifo>(RefPolicy::Fifo, &ops);
    drive::<Clock>(RefPolicy::Clock, &ops);
    drive::<Sieve>(RefPolicy::Sieve, &ops);
}
