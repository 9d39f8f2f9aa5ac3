//! Cross-crate properties: Belady dominance over every online policy, and
//! trace-codec round-trips over real workload output.

use atp::replacement::{opt::opt_misses, AnyPolicy, CacheSim, PolicyKind};
use atp::trace::{decode_trace, encode_trace, TraceStats};
use atp::types::VirtPage;
use atp::workloads::{Bimodal, ParetoWalk, PhasedWorkingSet, Zipfian};
use atp_check::{check, check_config, ensure, ensure_eq, u64s, usizes, vecs, Config};

fn online_misses(trace: &[u64], cap: usize, kind: PolicyKind) -> u64 {
    let mut sim = CacheSim::new(cap, AnyPolicy::new(kind, cap, 7));
    let mut misses = 0;
    for &k in trace {
        misses += u64::from(!sim.access(k).is_hit());
    }
    misses
}

/// OPT is a lower bound for every online policy on every trace — the
/// bedrock of the paper's Lemma-1 reductions. Randomized over traces and
/// capacities by the `atp-check` harness: a violation shrinks to a
/// minimal trace and prints an `ATP_CHECK_SEED` replay command.
#[test]
fn opt_lower_bounds_all_policies() {
    let gen = (vecs(u64s(0..=63), 1..=600), usizes(1..=31));
    let cfg = Config::for_property("opt_lower_bounds_all_policies").with_cases(48);
    check_config(
        "opt_lower_bounds_all_policies",
        &gen,
        &cfg,
        |(trace, cap)| {
            let opt = opt_misses(trace, *cap).misses;
            for kind in PolicyKind::ALL {
                let m = online_misses(trace, *cap, kind);
                ensure!(opt <= m, "OPT({opt}) beat by {kind} ({m}) at cap {cap}");
            }
            Ok(())
        },
    );
}

/// The trace codec is lossless on arbitrary page-id sequences.
#[test]
fn codec_roundtrip() {
    let gen = vecs(u64s(0..=1 << 48), 0..=500);
    check("codec_roundtrip", &gen, |ids| {
        let pages: Vec<VirtPage> = ids.iter().map(|&p| VirtPage(p)).collect();
        let decoded = decode_trace(&encode_trace(&pages));
        match decoded {
            Ok(d) => ensure_eq!(d, pages, "codec round-trip"),
            Err(e) => return Err(format!("decode failed: {e}")),
        }
        Ok(())
    });
}

#[test]
fn codec_roundtrips_real_workloads() {
    let traces: Vec<Vec<VirtPage>> = vec![
        Bimodal::scaled(1, 1 << 14).take(10_000).collect(),
        ParetoWalk::new(2, 1 << 14, 0.01).take(10_000).collect(),
        Zipfian::new(3, 1 << 14, 1.2).take(10_000).collect(),
        PhasedWorkingSet::new(4, 1 << 14, 128, 500)
            .take(10_000)
            .collect(),
    ];
    for t in traces {
        let rt = decode_trace(&encode_trace(&t)).expect("decode");
        assert_eq!(rt, t);
        let stats = TraceStats::compute(&t);
        assert_eq!(stats.length as usize, t.len());
        assert!(stats.unique_pages > 0);
    }
}

#[test]
fn lru_inclusion_property() {
    // The classic stack property: an LRU cache of size c+1 hits whenever an
    // LRU cache of size c hits. (This is what makes LRU a "stack algorithm"
    // and underlies resource-augmentation analyses à la Sleator–Tarjan.)
    let trace: Vec<u64> = Zipfian::new(5, 512, 1.1)
        .take(20_000)
        .map(|p| p.0)
        .collect();
    let mut prev = u64::MAX;
    for cap in [4usize, 8, 16, 32, 64] {
        let m = online_misses(&trace, cap, PolicyKind::Lru);
        assert!(m <= prev, "LRU misses increased with capacity");
        prev = m;
    }
}

#[test]
fn fifo_is_not_a_stack_algorithm() {
    // Belady's anomaly exists for FIFO: find a capacity pair where more
    // cache means more misses on the canonical anomaly trace.
    let trace: Vec<u64> = vec![1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5];
    let m3 = online_misses(&trace, 3, PolicyKind::Fifo);
    let m4 = online_misses(&trace, 4, PolicyKind::Fifo);
    assert_eq!(m3, 9);
    assert_eq!(m4, 10, "Belady's anomaly should reproduce");
}
