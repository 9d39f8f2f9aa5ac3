//! Differential tests: the ASID-tagged TLB against the tagged
//! linear-scan LRU oracle [`LinearAsidTlb`].
//!
//! The equivalence under test: `AsidTlb` with the LRU policy is one
//! fully-associative LRU cache over `(asid, huge)` keys with a
//! private-then-global probe on lookup, so every hit/miss decision,
//! eviction victim, invalidation result, and `flush_asid` count must
//! match the oracle step for step — across context switches, global
//! (kernel) entries shared by all tenants, and targeted ASID flushes.

use atp_check::oracles::LinearAsidTlb;
use atp_check::{check, differential, ensure_eq, u64s, usizes, vecs, Gen};
use atp_replacement::{AnyPolicy, PolicyKind, LANES};
use atp_tlb::AsidTlb;
use atp_types::{Asid, TaggedHugePage, VirtHugePage};

/// Adversary scripts: `(kind, asid, page)` ops over a small tenant pool
/// and page universe so cross-tenant churn hammers tiny capacities.
/// Kinds: 0 invalidate, 1 invalidate-global, 2 flush-asid, 3 fill a
/// global entry (guarded), otherwise access-or-fill.
fn scripts() -> impl Gen<Value = Vec<(u64, u64, u64)>> {
    vecs((u64s(0..=15), u64s(0..=3), u64s(0..=16)), 0..=300)
}

/// One comparable step outcome: `(invalidated value, global-fill victim,
/// hit?, flushed count)`.
type Step = (
    Option<u64>,
    Option<(TaggedHugePage, u64)>,
    Option<bool>,
    u64,
);

#[test]
fn asid_tlb_lru_matches_linear_oracle() {
    let gen = (usizes(1..=8), scripts());
    check("asid_tlb_lru_matches_linear_oracle", &gen, |(cap, ops)| {
        let mut sut: AsidTlb<u64> = AsidTlb::lru(*cap as u64);
        let mut oracle: LinearAsidTlb<u64> = LinearAsidTlb::new(*cap);
        differential(
            "AsidTlb::lru",
            "LinearAsidTlb",
            ops.iter().copied(),
            |&(kind, a, p)| -> Step {
                let (asid, u) = (Asid(a as u32), VirtHugePage(p));
                match kind {
                    0 => (sut.invalidate(asid, u), None, None, 0),
                    1 => (sut.invalidate_global(u), None, None, 0),
                    2 => (None, None, None, sut.flush_asid(asid)),
                    3 if !sut.contains(Asid::GLOBAL, u) => {
                        (None, sut.insert_global(u, p * 100), None, 0)
                    }
                    3 => (None, None, None, 0),
                    _ => (None, None, Some(sut.access_or_fill(asid, u, || p * 10)), 0),
                }
            },
            |&(kind, a, p)| -> Step {
                let (asid, u) = (Asid(a as u32), VirtHugePage(p));
                match kind {
                    0 => (oracle.invalidate(asid, u), None, None, 0),
                    1 => (oracle.invalidate_global(u), None, None, 0),
                    2 => (None, None, None, oracle.flush_asid(asid)),
                    3 if !oracle.contains(Asid::GLOBAL, u) => {
                        (None, oracle.insert_global(u, p * 100), None, 0)
                    }
                    3 => (None, None, None, 0),
                    _ => (
                        None,
                        None,
                        Some(oracle.access_or_fill(asid, u, || p * 10)),
                        0,
                    ),
                }
            },
        )?;
        ensure_eq!(sut.len(), oracle.len(), "resident entry count");
        Ok(())
    });
}

#[test]
fn asid_tlb_any_policy_lru_matches_linear_oracle() {
    // The runtime-dispatched (`AnyPolicy`) construction the tenant
    // manager uses must agree with the oracle too, not just the
    // monomorphic `AsidTlb::lru`.
    let gen = (usizes(1..=8), u64s(0..=u64::MAX), scripts());
    check(
        "asid_tlb_any_policy_lru_matches_linear_oracle",
        &gen,
        |(cap, seed, ops)| {
            let mut sut = AsidTlb::<u64, AnyPolicy>::new(*cap as u64, PolicyKind::Lru, *seed);
            let mut oracle: LinearAsidTlb<u64> = LinearAsidTlb::new(*cap);
            differential(
                "AsidTlb(AnyPolicy/Lru)",
                "LinearAsidTlb",
                ops.iter().copied(),
                |&(kind, a, p)| {
                    let (asid, u) = (Asid(a as u32), VirtHugePage(p));
                    match kind {
                        0..=1 => (sut.invalidate(asid, u), false, 0),
                        2 => (None, false, sut.flush_asid(asid)),
                        _ => (None, sut.access_or_fill(asid, u, || p), 0),
                    }
                },
                |&(kind, a, p)| {
                    let (asid, u) = (Asid(a as u32), VirtHugePage(p));
                    match kind {
                        0..=1 => (oracle.invalidate(asid, u), false, 0),
                        2 => (None, false, oracle.flush_asid(asid)),
                        _ => (None, oracle.access_or_fill(asid, u, || p), 0),
                    }
                },
            )?;
            ensure_eq!(sut.len(), oracle.len(), "resident entry count");
            Ok(())
        },
    );
}

/// The tenant manager's lane-group drive: each [`LANES`]-wide group's
/// leading hit run retires through `resolve_hit_run` → `retire_hit_run`,
/// the rest replay per lane from the first full miss. Returns the hits.
fn access_or_fill_lane_groups(tlb: &mut AsidTlb<u64>, asid: Asid, huges: &[VirtHugePage]) -> u64 {
    let mut hits = 0u64;
    for group in huges.chunks(LANES) {
        let run = tlb.resolve_hit_run(asid, group);
        tlb.retire_hit_run(&run);
        hits += run.len() as u64;
        for &u in &group[run.len()..] {
            if tlb.access_or_fill(asid, u, || u.0 * 10) {
                hits += 1;
            }
        }
    }
    hits
}

/// Drains a same-ASID run three ways — lane-group retire, fused
/// sequential, linear oracle — and checks the hit counts agree.
fn flush_wide(
    wide: &mut AsidTlb<u64>,
    fused: &mut AsidTlb<u64>,
    oracle: &mut LinearAsidTlb<u64>,
    asid: Asid,
    pending: &mut Vec<VirtHugePage>,
    step: usize,
) -> Result<(), String> {
    let w = access_or_fill_lane_groups(wide, asid, pending);
    let mut f = 0u64;
    let mut o = 0u64;
    for &u in pending.iter() {
        if fused.access_or_fill(asid, u, || u.0 * 10) {
            f += 1;
        }
        if oracle.access_or_fill(asid, u, || u.0 * 10) {
            o += 1;
        }
    }
    pending.clear();
    ensure_eq!(w, f, "wide vs fused hits diverged before step {step}");
    ensure_eq!(w, o, "wide vs oracle hits diverged before step {step}");
    Ok(())
}

#[test]
fn asid_tlb_wide_probe_matches_fused_path_and_linear_oracle() {
    // The lane-group retire (`resolve_hit_run` → `retire_hit_run`, then
    // per-lane replay) must be bit-for-bit the fused per-access path —
    // including the private/global hit split — and agree with the linear
    // oracle on every membership decision, under invalidation/flush churn
    // at every drain width.
    let gen = (usizes(1..=8), scripts());
    check(
        "asid_tlb_wide_matches_fused_and_oracle",
        &gen,
        |(cap, ops)| {
            for group in [1usize, 3, 16, 64] {
                let mut wide: AsidTlb<u64> = AsidTlb::lru(*cap as u64);
                let mut fused: AsidTlb<u64> = AsidTlb::lru(*cap as u64);
                let mut oracle: LinearAsidTlb<u64> = LinearAsidTlb::new(*cap);
                let mut pending: Vec<VirtHugePage> = Vec::new();
                let mut cur = Asid(0);
                for (step, &(kind, a, p)) in ops.iter().enumerate() {
                    let (asid, u) = (Asid(a as u32), VirtHugePage(p));
                    if kind >= 4 {
                        // Same-ASID runs accumulate; an ASID change or a full
                        // lane group drains, as the tenant manager does.
                        if asid != cur {
                            flush_wide(
                                &mut wide,
                                &mut fused,
                                &mut oracle,
                                cur,
                                &mut pending,
                                step,
                            )?;
                            cur = asid;
                        }
                        pending.push(u);
                        if pending.len() == group {
                            flush_wide(
                                &mut wide,
                                &mut fused,
                                &mut oracle,
                                cur,
                                &mut pending,
                                step,
                            )?;
                        }
                        continue;
                    }
                    // Control ops are synchronous: drain first.
                    flush_wide(&mut wide, &mut fused, &mut oracle, cur, &mut pending, step)?;
                    match kind {
                        0 => {
                            let got = wide.invalidate(asid, u);
                            ensure_eq!(got, fused.invalidate(asid, u), "invalidate at {step}");
                            ensure_eq!(got, oracle.invalidate(asid, u), "invalidate at {step}");
                        }
                        1 => {
                            let got = wide.invalidate_global(u);
                            ensure_eq!(got, fused.invalidate_global(u), "inv-global at {step}");
                            ensure_eq!(got, oracle.invalidate_global(u), "inv-global at {step}");
                        }
                        2 => {
                            let got = wide.flush_asid(asid);
                            ensure_eq!(got, fused.flush_asid(asid), "flush at {step}");
                            ensure_eq!(got, oracle.flush_asid(asid), "flush at {step}");
                        }
                        _ => {
                            if !wide.contains(Asid::GLOBAL, u) {
                                let got = wide.insert_global(u, p * 100);
                                ensure_eq!(
                                    got,
                                    fused.insert_global(u, p * 100),
                                    "g-fill at {step}"
                                );
                                ensure_eq!(
                                    got,
                                    oracle.insert_global(u, p * 100),
                                    "g-fill at {step}"
                                );
                            }
                        }
                    }
                }
                flush_wide(
                    &mut wide,
                    &mut fused,
                    &mut oracle,
                    cur,
                    &mut pending,
                    ops.len(),
                )?;
                ensure_eq!(
                    wide.stats(),
                    fused.stats(),
                    "group {group}: stats split diverged"
                );
                ensure_eq!(wide.len(), fused.len(), "group {group}: wide vs fused len");
                ensure_eq!(
                    wide.len(),
                    oracle.len(),
                    "group {group}: wide vs oracle len"
                );
            }
            Ok(())
        },
    );
}

/// Long-trace, larger-capacity sweep for the dedicated `--ignored` CI step.
#[test]
#[ignore = "large oracle size; run via the dedicated CI step"]
fn asid_tlb_matches_linear_oracle_at_scale() {
    use atp_check::CounterRng;
    let mut rng = CounterRng::new(0xA51D, 0);
    let mut sut: AsidTlb<u64> = AsidTlb::lru(1024);
    let mut oracle: LinearAsidTlb<u64> = LinearAsidTlb::new(1024);
    for i in 0..200_000u64 {
        let asid = Asid(rng.next_below(8) as u32);
        let u = VirtHugePage(rng.next_below(3000));
        match rng.next_below(64) {
            0 => assert_eq!(
                sut.flush_asid(asid),
                oracle.flush_asid(asid),
                "flush diverged at op {i}"
            ),
            1 => assert_eq!(
                sut.invalidate(asid, u),
                oracle.invalidate(asid, u),
                "invalidate diverged at op {i}"
            ),
            2 if !sut.contains(Asid::GLOBAL, u) && !oracle.contains(Asid::GLOBAL, u) => {
                assert_eq!(
                    sut.insert_global(u, u.0),
                    oracle.insert_global(u, u.0),
                    "global fill diverged at op {i}"
                );
            }
            _ => assert_eq!(
                sut.access_or_fill(asid, u, || u.0),
                oracle.access_or_fill(asid, u, || u.0),
                "access diverged at op {i}"
            ),
        }
    }
    assert_eq!(sut.len(), oracle.len(), "final resident counts differ");
}
