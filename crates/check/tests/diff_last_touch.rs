//! Differential for `LastTouch`, the page → last-touch map behind reuse
//! tracking: against a `std` HashMap oracle, every `replace` must return
//! the same previous touch and `len` must agree after every step, on
//! generated streams that keep the array part dense (Zipf, uniform,
//! ascending), spread pages over a 256-tenant `a · 2^18 + v` embedding,
//! send many high pages first so that a later growth has to move map
//! entries into the array, and touch the edges of the page space. The
//! same streams then drive X through the batched driver at batch sizes
//! {1, 13, 4096}, and the `Recorder`'s reuse histogram and cold count must
//! equal an oracle recorder's over the same accesses: hit runs and replayed
//! lanes record the same reuse.

use std::collections::HashMap;

use atp_check::{check_config, ensure_eq, from_fn, Config, CounterRng, Gen};
use atp_hash::last_touch::DENSE_FLOOR;
use atp_hash::LastTouch;
use atp_memmgmt::observe::HIST_BUCKETS;
use atp_memmgmt::only::VirtualOnlyStages;
use atp_memmgmt::{Pipeline, Recorder};
use atp_replacement::PolicyKind;
use atp_sim::run_batched;
use atp_types::{Asid, TenantOp, VirtPage};
use atp_workloads::{TenantMix, UniformRandom, Zipfian};

/// Pages per tenant in the tenant embedding.
const TENANT_VSPAN: u64 = 1 << 18;

/// How a generated stream is built. Shrinking works on the recipe, so a
/// counterexample prints as a few numbers, not thousands of pages.
#[derive(Clone, Debug, PartialEq)]
enum Recipe {
    /// `len` Zipf(1.0) draws over pages `[0, span)`.
    Zipf { seed: u64, span: u64, len: u64 },
    /// `len` uniform draws over pages `[0, span)`.
    Uniform { seed: u64, span: u64, len: u64 },
    /// `start, start + 1, …, start + pages − 1`, `laps` times over.
    Ascending { start: u64, pages: u64, laps: u64 },
    /// `len` accesses of 256 Zipf-scheduled tenants, tenant `a`'s page
    /// `v` at `a · 2^18 + v`.
    Tenants { seed: u64, len: u64 },
    /// `high` pages `DENSE_FLOOR + k · stride` first, then pages
    /// `0..low`, then every high page again: once `low` outgrows the
    /// floor, the array grows over pages the map holds.
    HighFirst { high: u64, stride: u64, low: u64 },
    /// A Zipf stream with pages 0, `u64::MAX − 1` and `u64::MAX`
    /// interleaved every `every` accesses.
    Edges { seed: u64, len: u64, every: u64 },
}

impl Recipe {
    fn pages(&self) -> Vec<u64> {
        match *self {
            Recipe::Zipf { seed, span, len } => Zipfian::new(seed, span, 1.0)
                .take(len as usize)
                .map(|v| v.0)
                .collect(),
            Recipe::Uniform { seed, span, len } => UniformRandom::new(seed, span)
                .take(len as usize)
                .map(|v| v.0)
                .collect(),
            Recipe::Ascending { start, pages, laps } => {
                (0..laps).flat_map(|_| start..start + pages).collect()
            }
            Recipe::Tenants { seed, len } => {
                let mut out = Vec::with_capacity(len as usize);
                let mut current = Asid::SINGLE;
                for op in TenantMix::new(seed, 256, TENANT_VSPAN, 1.1, 1.01, 64, 0.05) {
                    if out.len() as u64 == len {
                        break;
                    }
                    match op {
                        TenantOp::Access(v) => out.push(u64::from(current.0) * TENANT_VSPAN + v.0),
                        TenantOp::Switch(to) => current = to,
                        TenantOp::Retire(_) => {}
                    }
                }
                out
            }
            Recipe::HighFirst { high, stride, low } => {
                let highs: Vec<u64> = (0..high).map(|k| DENSE_FLOOR + k * stride).collect();
                highs
                    .iter()
                    .copied()
                    .chain(0..low)
                    .chain(highs.iter().copied())
                    .collect()
            }
            Recipe::Edges { seed, len, every } => {
                let zipf: Vec<u64> = Zipfian::new(seed, 1 << 14, 1.0)
                    .take(len as usize)
                    .map(|v| v.0)
                    .collect();
                let edges = [0, u64::MAX - 1, u64::MAX].into_iter().cycle();
                zipf.chunks(every as usize)
                    .zip(edges)
                    .flat_map(|(chunk, edge)| std::iter::once(edge).chain(chunk.iter().copied()))
                    .collect()
            }
        }
    }

    /// The sizes a shrink may make smaller: every field but the seeds.
    fn sizes(&mut self) -> Vec<&mut u64> {
        match self {
            Recipe::Zipf { span, len, .. } | Recipe::Uniform { span, len, .. } => vec![len, span],
            Recipe::Ascending { start, pages, laps } => vec![start, pages, laps],
            Recipe::Tenants { len, .. } => vec![len],
            Recipe::HighFirst { high, stride, low } => vec![high, stride, low],
            Recipe::Edges { len, every, .. } => vec![len, every],
        }
    }

    /// The recipe with one size halved, cut by an eighth or cut by one
    /// (never below 1), so a shrink can home in on a growth boundary.
    fn shrink(&self) -> Vec<Recipe> {
        let fields = self.clone().sizes().len();
        let mut out = Vec::new();
        for f in 0..fields {
            let n = *self.clone().sizes()[f];
            for m in [n / 2, n - n / 8, n.saturating_sub(1)] {
                if (1..n).contains(&m) {
                    let mut r = self.clone();
                    *r.sizes()[f] = m;
                    if !out.contains(&r) {
                        out.push(r);
                    }
                }
            }
        }
        out
    }
}

/// Recipes with streams of up to `max_len` accesses. The high-first
/// recipe always reaches past [`DENSE_FLOOR`] distinct pages, so every
/// case of it grows the array over map entries.
fn recipes(max_len: u64) -> impl Gen<Value = Recipe> {
    from_fn(
        move |rng: &mut CounterRng| {
            let seed = rng.next_u64();
            let len = 1 + rng.next_below(max_len);
            let span = 1 << (6 + rng.next_below(13));
            match rng.next_below(6) {
                0 => Recipe::Zipf { seed, span, len },
                1 => Recipe::Uniform { seed, span, len },
                2 => Recipe::Ascending {
                    start: rng.next_below(3 * DENSE_FLOOR),
                    pages: 1 + rng.next_below(max_len / 2),
                    laps: 1 + rng.next_below(3),
                },
                3 => Recipe::Tenants { seed, len },
                4 => Recipe::HighFirst {
                    high: 1 + rng.next_below(64),
                    stride: 1 + rng.next_below(1 << 12),
                    low: DENSE_FLOOR + rng.next_below(max_len),
                },
                _ => Recipe::Edges {
                    seed,
                    len,
                    every: 1 + rng.next_below(64),
                },
            }
        },
        |r: &Recipe| r.shrink(),
    )
}

/// Every `replace` and `len` of `LastTouch` equal the HashMap oracle's.
fn last_touch_matches_oracle(recipe: &Recipe) -> Result<(), String> {
    let mut touch = LastTouch::new();
    let mut oracle: HashMap<u64, u64> = HashMap::new();
    for (now, p) in recipe.pages().into_iter().enumerate() {
        let now = now as u64;
        ensure_eq!(
            touch.replace(p, now),
            oracle.insert(p, now),
            "step {now}: replace({p}) diverged"
        );
        ensure_eq!(touch.len(), oracle.len() as u64, "step {now}: len diverged");
    }
    Ok(())
}

/// Reuse histogram and cold count of `pages`, recomputed with a HashMap.
fn oracle_reuse(pages: &[u64]) -> ([u64; HIST_BUCKETS], u64) {
    let mut last: HashMap<u64, u64> = HashMap::new();
    let mut hist = [0; HIST_BUCKETS];
    let mut cold = 0;
    for (now, &p) in pages.iter().enumerate() {
        match last.insert(p, now as u64) {
            None => cold += 1,
            Some(prev) => hist[(now as u64 - prev).ilog2() as usize] += 1,
        }
    }
    (hist, cold)
}

/// X over the recipe's stream at each batch size records the oracle's
/// reuse histogram and cold count.
fn recorder_matches_oracle(recipe: &Recipe) -> Result<(), String> {
    let pages = recipe.pages();
    let (hist, cold) = oracle_reuse(&pages);
    let half = pages.len() as u64 / 2;
    for batch in [1, 13, 4096] {
        let mut x = Pipeline::with_observer(
            VirtualOnlyStages::new(8, 16, PolicyKind::Lru, 3),
            Recorder::new(),
        );
        let stream = pages.iter().map(|&p| VirtPage(p));
        run_batched(&mut x, stream, half, pages.len() as u64 - half, batch);
        let rec = x.observer();
        ensure_eq!(
            rec.accesses(),
            pages.len() as u64,
            "batch {batch}: accesses"
        );
        ensure_eq!(
            rec.cold_accesses(),
            cold,
            "batch {batch}: cold count diverged"
        );
        ensure_eq!(
            rec.reuse_histogram(),
            &hist[..],
            "batch {batch}: reuse histogram diverged"
        );
    }
    Ok(())
}

#[test]
fn last_touch_matches_a_hashmap_oracle() {
    let name = "last_touch_matches_a_hashmap_oracle";
    check_config(
        name,
        &recipes(6_000),
        &Config::for_property(name).with_cases(96),
        last_touch_matches_oracle,
    );
}

#[test]
fn recorder_reuse_matches_an_oracle_recorder_at_every_batch() {
    let name = "recorder_reuse_matches_an_oracle_recorder_at_every_batch";
    check_config(
        name,
        &recipes(6_000),
        &Config::for_property(name).with_cases(24),
        recorder_matches_oracle,
    );
}

/// Streams of up to 2^20 accesses, the sizes atp-e2e runs, for the
/// dedicated `--ignored` CI step.
#[test]
#[ignore = "large oracle size; run via the dedicated CI step"]
fn last_touch_and_recorder_match_their_oracles_at_scale() {
    let name = "last_touch_and_recorder_match_their_oracles_at_scale";
    check_config(
        name,
        &recipes(1 << 20),
        &Config::for_property(name).with_cases(12),
        |recipe| {
            last_touch_matches_oracle(recipe)?;
            recorder_matches_oracle(recipe)
        },
    );
}
