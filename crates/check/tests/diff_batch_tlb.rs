//! Differential for the batch entry point of `Tlb`
//! (`access_or_fill_batch`: speculative resolution cache, validated
//! retire) against its scalar path (`access_or_fill` on a twin `Tlb`),
//! for every replacement policy, over generated churn scripts of accesses
//! and invalidations flushed at batch sizes {1, 8, 13, 4096}. Hits, the
//! full counter block, and the resident set must stay identical at every
//! flush point; divergences shrink to a minimal script. An `--ignored` sweep rechecks the same invariant at
//! production scale (1536 entries, long deterministic churn).

use atp_check::{check_config, ensure_eq, from_fn, vecs, Config, CounterRng, Gen};
use atp_replacement::{AnyPolicy, PolicyKind};
use atp_tlb::Tlb;
use atp_types::{NoProf, VirtHugePage};

const ENTRIES: u64 = 16;
/// Page span ~3× capacity: plenty of hits, steady evictions.
const SPAN: u64 = 48;
const BATCHES: [usize; 4] = [1, 8, 13, 4096];
const POLICIES: [PolicyKind; 4] = [
    PolicyKind::Lru,
    PolicyKind::Fifo,
    PolicyKind::Clock,
    PolicyKind::Sieve,
];

/// `(invalidate?, page)` scripts; shrinks toward plain accesses of 0.
fn script_gen(span: u64) -> impl Gen<Value = Vec<(bool, u64)>> {
    let op = from_fn(
        move |rng: &mut CounterRng| (rng.next_below(10) == 0, rng.next_below(span)),
        |&(inv, v): &(bool, u64)| {
            let mut out = Vec::new();
            if inv {
                out.push((false, v));
            }
            if v > 0 {
                out.push((inv, 0));
                out.push((inv, v / 2));
            }
            out
        },
    );
    vecs(op, 0..=600)
}

fn diff_script(
    script: &[(bool, u64)],
    policy: PolicyKind,
    entries: u64,
    batch: usize,
) -> Result<(), String> {
    let mut fast = Tlb::<u64, _>::new(entries, policy, 0);
    let mut gold = Tlb::<u64, _>::new(entries, policy, 0);
    let mut pending: Vec<VirtHugePage> = Vec::new();
    let mut step = 0usize;
    let flush = |fast: &mut Tlb<u64, AnyPolicy>,
                 gold: &mut Tlb<u64, AnyPolicy>,
                 pending: &mut Vec<VirtHugePage>,
                 step: usize|
     -> Result<(), String> {
        let fast_hits = fast.access_or_fill_batch(pending, |u| u, |u| u.0 * 3, NoProf);
        let mut gold_hits = 0u64;
        for &u in pending.iter() {
            if gold.access_or_fill(u, || u.0 * 3) {
                gold_hits += 1;
            }
        }
        pending.clear();
        ensure_eq!(
            fast_hits,
            gold_hits,
            "batch hits diverged before step {step} ({policy:?})"
        );
        ensure_eq!(
            fast.stats(),
            gold.stats(),
            "counters diverged before step {step} ({policy:?})"
        );
        Ok(())
    };
    for &(invalidate, page) in script {
        let u = VirtHugePage(page);
        if invalidate {
            // Invalidations are synchronous events: drain the batch
            // first, exactly as a shootdown would interrupt a stream.
            flush(&mut fast, &mut gold, &mut pending, step)?;
            ensure_eq!(
                fast.invalidate(u),
                gold.invalidate(u),
                "invalidate({page}) diverged at step {step} ({policy:?})"
            );
        } else {
            pending.push(u);
            if pending.len() == batch {
                flush(&mut fast, &mut gold, &mut pending, step)?;
            }
        }
        step += 1;
    }
    flush(&mut fast, &mut gold, &mut pending, step)?;
    ensure_eq!(
        fast.len(),
        gold.len(),
        "resident counts diverged at end ({policy:?})"
    );
    let mut a: Vec<(u64, u64)> = fast.iter().map(|(k, v)| (k.0, *v)).collect();
    let mut b: Vec<(u64, u64)> = gold.iter().map(|(k, v)| (k.0, *v)).collect();
    a.sort_unstable();
    b.sort_unstable();
    ensure_eq!(a, b, "resident sets diverged at end ({policy:?})");
    Ok(())
}

#[test]
fn batch_tlb_matches_fused_at_every_policy_and_batch_size() {
    for policy in POLICIES {
        for batch in BATCHES {
            let name = format!("diff_batch_tlb_{policy:?}_{batch}").to_lowercase();
            let cfg = Config::for_property(&name).with_cases(4);
            check_config(&name, &script_gen(SPAN), &cfg, |script| {
                diff_script(script, policy, ENTRIES, batch)
            });
        }
    }
}

#[test]
#[ignore = "at-scale sweep: run with --ignored"]
fn batch_tlb_matches_fused_at_production_scale() {
    // The hotpath bench's TLB geometry (1536 entries) with a long
    // deterministic churn script per policy: same invariant, no
    // shrinking needed — the script is a pure function of the rng.
    const BIG_ENTRIES: u64 = 1536;
    const BIG_SPAN: u64 = 4096;
    for policy in POLICIES {
        let mut rng = CounterRng::new(0xB16_5CA1E, policy as u64);
        let script: Vec<(bool, u64)> = (0..200_000)
            .map(|_| (rng.next_below(25) == 0, rng.next_below(BIG_SPAN)))
            .collect();
        for batch in [1usize, 16, 4096] {
            diff_script(&script, policy, BIG_ENTRIES, batch)
                .unwrap_or_else(|e| panic!("at-scale divergence: {e}"));
        }
    }
}
