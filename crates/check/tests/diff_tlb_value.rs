//! Differential suite for the inline TLB values and the scheme's slab
//! shadow table.
//!
//! Part one drives the packed, `Copy` [`TlbValue`] and [`SparseValue`]
//! against the heap-backed reference encoders ([`VecTlbValue`],
//! [`VecSparseValue`]) over generated set/clear/get sequences:
//!
//! * dense values at every `(hmax, bits)` that the Iceberg, one-choice and
//!   fully-associative parameters give for `P ∈ {2^10, 2^14, 2^20, 2^26,
//!   2^30}` and `w ∈ {64, 128, 512}`;
//! * sparse values at coverage {64, 1024, 4096} over the same code widths
//!   and `w`, with index streams narrow enough that values fill up and
//!   drop codes.
//!
//! Part two works at the scheme level: after random `ram_insert` /
//! `ram_evict` sequences, `psi(u)` and the first-`K` selection
//! `resident_codes(u)` must equal what a shadow rebuilt from the
//! allocator's `code_of` gives — at a dense width, at a wide sparse shadow
//! (coverage 4096, far wider than any TLB value), and over a degenerate
//! Iceberg geometry whose failure set `F` is nonempty.
//!
//! Failures shrink to a minimal op sequence and print an
//! `ATP_CHECK_SEED` replay line; larger sizes are `#[ignore]`d.

use atp_check::oracles::{VecSparseValue, VecTlbValue};
use atp_check::{bools, check, check_config, ensure, ensure_eq, u64s, vecs, Config, Gen};
use atp_core::params::bits_for;
use atp_core::{
    hmax_for, DecouplingScheme, IcebergAlloc, IcebergParams, OneChoiceAlloc, OneChoiceParams,
    RamAllocator, SlotCode, SparseValue, TlbValue,
};
use atp_types::{VirtHugePage, VirtPage};

const PHYS_SHIFTS: [u32; 5] = [10, 14, 20, 26, 30];
const WIDTHS: [u32; 3] = [64, 128, 512];
const COVERAGES: [u32; 3] = [64, 1024, 4096];

/// Code widths of the Iceberg, one-choice and fully-associative schemes
/// at each physical size.
fn code_widths() -> Vec<u32> {
    let mut bits: Vec<u32> = PHYS_SHIFTS
        .iter()
        .flat_map(|&shift| {
            let p = 1u64 << shift;
            [
                IcebergParams::derive(p).bits_per_code,
                OneChoiceParams::derive(p).bits_per_code,
                bits_for(p + 1),
            ]
        })
        .collect();
    bits.sort_unstable();
    bits.dedup();
    bits
}

/// Every dense `(hmax, bits)` the schemes derive.
fn dense_shapes() -> Vec<(u32, u32)> {
    let mut shapes: Vec<(u32, u32)> = code_widths()
        .into_iter()
        .flat_map(|bits| WIDTHS.map(|w| (hmax_for(w, bits) as u32, bits)))
        .collect();
    shapes.sort_unstable();
    shapes.dedup();
    shapes
}

/// Value ops: `(index seed, code seed, clear)`. The index seed's low bit
/// picks a narrow stream (a few times `K` indices, so sparse values fill
/// and drop) or one over the whole huge page.
fn value_ops(len: usize) -> impl Gen<Value = Vec<(u64, u64, bool)>> {
    vecs((u64s(0..=u64::MAX), u64s(0..=u64::MAX), bools()), 0..=len)
}

fn code_in(seed: u64, bits: u32) -> SlotCode {
    SlotCode((seed & ((1u64 << bits) - 1)) as u32)
}

/// One dense shape against the reference encoder.
fn diff_dense(count: u32, bits: u32, ops: &[(u64, u64, bool)]) -> Result<(), String> {
    let mut sut = TlbValue::new(count, bits);
    let mut oracle = VecTlbValue::new(count, bits);
    for (step, &(i_seed, c_seed, clear)) in ops.iter().enumerate() {
        let i = (i_seed >> 1) as u32 % count;
        let code = if clear {
            SlotCode::ABSENT
        } else {
            code_in(c_seed, bits)
        };
        sut.set(i, code);
        oracle.set(i, code);
        ensure_eq!(
            sut.get(i),
            oracle.get(i),
            "({count}×{bits}) step {step}: get({i}) after set"
        );
    }
    for i in 0..count {
        ensure_eq!(sut.get(i), oracle.get(i), "({count}×{bits}) get({i})");
    }
    ensure_eq!(
        sut.resident_count(),
        oracle.resident_count(),
        "({count}×{bits}) resident_count"
    );
    ensure_eq!(
        sut.is_all_absent(),
        oracle.is_all_absent(),
        "({count}×{bits}) is_all_absent"
    );
    ensure_eq!(
        sut.size_bits(),
        oracle.size_bits(),
        "({count}×{bits}) size_bits"
    );
    Ok(())
}

/// One sparse shape against the reference encoder.
fn diff_sparse(w: u32, cov: u32, bits: u32, ops: &[(u64, u64, bool)]) -> Result<(), String> {
    let shape = format!("(w={w}, cov={cov}, bits={bits})");
    let mut sut = SparseValue::new(w, cov, bits);
    let mut oracle = VecSparseValue::new(w, cov, bits);
    ensure_eq!(sut.capacity(), oracle.capacity(), "{shape} capacity");
    let narrow = 3 * sut.capacity() as u64;
    let mut touched = Vec::new();
    for (step, &(i_seed, c_seed, clear)) in ops.iter().enumerate() {
        let span = if i_seed & 1 == 0 { narrow } else { cov as u64 };
        let i = ((i_seed >> 1) % span.min(cov as u64)) as u32;
        let code = if clear {
            SlotCode::ABSENT
        } else {
            code_in(c_seed, bits)
        };
        ensure_eq!(
            sut.set(i, code),
            oracle.set(i, code),
            "{shape} step {step}: set({i}, {code:?}) result"
        );
        ensure_eq!(sut.get(i), oracle.get(i), "{shape} step {step}: get({i})");
        ensure_eq!(
            sut.is_full(),
            oracle.encoded() == oracle.capacity(),
            "{shape} step {step}: is_full"
        );
        touched.push(i);
    }
    for &i in &touched {
        ensure_eq!(sut.get(i), oracle.get(i), "{shape} get({i})");
    }
    ensure_eq!(sut.encoded(), oracle.encoded(), "{shape} encoded");
    ensure_eq!(sut.size_bits(), oracle.size_bits(), "{shape} size_bits");
    ensure_eq!(sut.is_empty(), oracle.is_empty(), "{shape} is_empty");
    Ok(())
}

#[test]
fn dense_values_match_vec_encoder_at_every_derived_shape() {
    let shapes = dense_shapes();
    assert!(shapes.len() >= 10, "shapes cover the derived widths");
    check(
        "dense_values_match_vec_encoder_at_every_derived_shape",
        &value_ops(200),
        |ops| {
            shapes
                .iter()
                .try_for_each(|&(count, bits)| diff_dense(count, bits, ops))
        },
    );
}

#[test]
fn sparse_values_match_vec_encoder_including_full_drops() {
    let bits = code_widths();
    check(
        "sparse_values_match_vec_encoder_including_full_drops",
        &value_ops(200),
        |ops| {
            for w in WIDTHS {
                for cov in COVERAGES {
                    for &b in &bits {
                        diff_sparse(w, cov, b, ops)?;
                    }
                }
            }
            Ok(())
        },
    );
}

#[test]
fn sparse_values_drop_exactly_when_the_reference_does() {
    // Deterministic narrow fill: every shape must see drops, so the
    // full-value contract is exercised, not merely possible.
    for w in WIDTHS {
        for cov in COVERAGES {
            let mut sut = SparseValue::new(w, cov, 5);
            let mut oracle = VecSparseValue::new(w, cov, 5);
            let n = (2 * sut.capacity()).min(cov);
            let mut drops = 0;
            for i in 0..n {
                let kept = sut.set(i, SlotCode(1 + i % 31));
                assert_eq!(kept, oracle.set(i, SlotCode(1 + i % 31)));
                drops += u32::from(!kept);
            }
            assert_eq!(drops, n - sut.capacity(), "w={w} cov={cov}");
            assert!(drops > 0 && sut.is_full());
        }
    }
}

/// Scheme ops: `(page seed, evict-if-active)`.
fn scheme_ops(len: usize) -> impl Gen<Value = Vec<(u64, bool)>> {
    vecs((u64s(0..=u64::MAX), bools()), 0..=len)
}

/// Drives `s` over `ops` (insert an inactive page; evict an active one
/// when asked), then checks every touched huge page's shadow against one
/// rebuilt from `code_of`: the dense copy (`psi`) when it fits a TLB
/// value, and the first `k` resident codes in index order.
fn diff_scheme<A: RamAllocator>(
    mut s: DecouplingScheme<A>,
    universe: u64,
    k: usize,
    ops: &[(u64, bool)],
) -> Result<(), String> {
    let geom = s.geometry();
    let mut active = std::collections::BTreeSet::new();
    let mut huge = std::collections::BTreeSet::new();
    let mut failed = 0u64;
    for &(seed, evict) in ops {
        let v = seed % universe;
        if active.contains(&v) {
            if evict {
                s.ram_evict(VirtPage(v));
                active.remove(&v);
            }
        } else {
            match s.ram_insert(VirtPage(v)) {
                Ok(placed) => {
                    ensure_eq!(s.code_of(VirtPage(v)), placed.code, "placement code of {v}")
                }
                Err(_) => failed += 1,
            }
            active.insert(v);
        }
        huge.insert(geom.huge_of(VirtPage(v)).0);
    }
    let hmax = s.hmax();
    let dense_fits = hmax * s.bits_per_code() as u64 <= 512;
    for &u in &huge {
        let u = VirtHugePage(u);
        let rebuilt: Vec<(u32, SlotCode)> = (0..hmax)
            .map(|i| (i as u32, s.code_of(geom.constituent(u, i))))
            .filter(|(_, c)| !c.is_absent())
            .collect();
        let got: Vec<(u32, SlotCode)> = s.resident_codes(u).take(k).collect();
        let want: Vec<(u32, SlotCode)> = rebuilt.iter().copied().take(k).collect();
        ensure_eq!(got, want, "first {k} resident codes of {u:?}");
        ensure_eq!(
            s.resident_codes(u).count(),
            rebuilt.len(),
            "resident count of {u:?}"
        );
        if dense_fits {
            let psi = s.psi(u);
            let mut oracle = VecTlbValue::new(hmax as u32, s.bits_per_code());
            for &(i, c) in &rebuilt {
                oracle.set(i, c);
            }
            for i in 0..hmax as u32 {
                ensure_eq!(psi.get(i), oracle.get(i), "psi({u:?}).get({i})");
            }
            ensure_eq!(psi.is_all_absent(), rebuilt.is_empty(), "psi({u:?}) empty");
        }
    }
    ensure!(
        s.failed_count() as u64 <= failed,
        "F holds a page never failed"
    );
    s.check_invariants();
    Ok(())
}

fn sparse_k(cov: u64, bits: u32) -> usize {
    SparseValue::new(64, cov as u32, bits).capacity() as usize
}

#[test]
fn dense_shadow_matches_rebuilt_codes() {
    check(
        "dense_shadow_matches_rebuilt_codes",
        &scheme_ops(600),
        |ops| {
            let s = DecouplingScheme::new(IcebergAlloc::with_geometry(64, 8, 4, 5), 64);
            let k = sparse_k(s.hmax(), s.bits_per_code());
            diff_scheme(s, 2048, k, ops)
        },
    );
}

#[test]
fn wide_sparse_shadow_matches_rebuilt_codes() {
    // Coverage 4096 with 5-bit codes: 20480-bit shadow entries (320 words),
    // 40× wider than any TLB value.
    check(
        "wide_sparse_shadow_matches_rebuilt_codes",
        &scheme_ops(600),
        |ops| {
            let alloc = IcebergAlloc::with_geometry(256, 8, 4, 7);
            let bits = alloc.bits_per_code();
            let s = DecouplingScheme::with_hmax(alloc, 4096 * bits, 4096);
            diff_scheme(s, 4096 * 6, sparse_k(4096, bits), ops)
        },
    );
}

#[test]
fn degenerate_iceberg_shadow_matches_rebuilt_codes_with_failures() {
    // 4 bins × (2 front, 1 back): 12 frames for a universe of 64 pages, so
    // the failure set F fills up and must stay out of the shadow.
    check(
        "degenerate_iceberg_shadow_matches_rebuilt_codes_with_failures",
        &scheme_ops(400),
        |ops| {
            let s = DecouplingScheme::new(IcebergAlloc::with_geometry(4, 2, 1, 3), 64);
            diff_scheme(s, 64, 3, ops)
        },
    );
    // This geometry does reach F ≠ ∅.
    let mut s = DecouplingScheme::new(IcebergAlloc::with_geometry(4, 2, 1, 3), 64);
    let failures = (0..64u64)
        .filter(|&v| s.ram_insert(VirtPage(v)).is_err())
        .count();
    assert!(failures > 0 && s.failed_count() == failures);
}

#[test]
fn one_choice_wide_dense_shadow_matches_rebuilt_codes() {
    // w = 4096: 1024 four-bit codes per entry — a dense shadow wider than
    // a TLB value, read only through `resident_codes`.
    check(
        "one_choice_wide_dense_shadow_matches_rebuilt_codes",
        &scheme_ops(600),
        |ops| {
            let s = DecouplingScheme::new(OneChoiceAlloc::with_geometry(32, 8, 2), 4096);
            ensure!(s.hmax() == 1024, "hmax {}", s.hmax());
            diff_scheme(s, 4096 * 3, 7, ops)
        },
    );
}

#[test]
#[ignore = "large sizes: run with --ignored"]
fn theory_sized_shadows_match_rebuilt_codes() {
    let cfg = Config::for_property("theory_sized_shadows_match_rebuilt_codes").with_cases(16);
    check_config(
        "theory_sized_shadows_match_rebuilt_codes",
        &scheme_ops(20_000),
        &cfg,
        |ops| {
            let params = IcebergParams::derive(1 << 16);
            let s = DecouplingScheme::new(IcebergAlloc::new(&params, 11), 64);
            let k = sparse_k(s.hmax(), s.bits_per_code());
            diff_scheme(s, 1 << 17, k, ops)?;
            let alloc = IcebergAlloc::new(&params, 13);
            let bits = alloc.bits_per_code();
            let s = DecouplingScheme::with_hmax(alloc, 4096 * bits, 4096);
            diff_scheme(s, 1 << 18, sparse_k(4096, bits), ops)
        },
    );
    let cfg = Config::for_property("long_value_sequences_match_vec_encoders").with_cases(16);
    check_config(
        "long_value_sequences_match_vec_encoders",
        &value_ops(5000),
        &cfg,
        |ops| {
            for (count, bits) in dense_shapes() {
                diff_dense(count, bits, ops)?;
            }
            for w in WIDTHS {
                for cov in COVERAGES {
                    for b in code_widths() {
                        diff_sparse(w, cov, b, ops)?;
                    }
                }
            }
            Ok(())
        },
    );
}
