//! Differential for the flat open-addressing `SlotIndex` (the probe core
//! under `CacheSim` and `Tlb`): against a `std` HashMap oracle over
//! generated insert/remove/lookup/touch churn, membership and key→slot
//! resolution must agree after every op — including through the
//! backward-shift deletions that keep probe chains compact.

use std::collections::HashMap;

use atp_check::{check, ensure, ensure_eq, from_fn, vecs, CounterRng, Gen};
use atp_hash::flat::{fx_hash, SlotIndex};

const CAPACITY: usize = 24;
/// Key span ~2× capacity so inserts regularly collide with residents.
const SPAN: u64 = 48;

/// One churn op; the index under test maps keys to the slots the arena
/// model assigns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    /// Insert the key if absent (and capacity remains).
    Insert(u64),
    /// Remove the key if present.
    Remove(u64),
    /// Probe the key (must agree with the oracle either way).
    Lookup(u64),
    /// Prefetch the key's bucket — must be semantically inert.
    Touch(u64),
}

fn ops_gen() -> impl Gen<Value = Vec<Op>> {
    let op = from_fn(
        |rng: &mut CounterRng| {
            let k = rng.next_below(SPAN);
            match rng.next_below(8) {
                0..=2 => Op::Insert(k),
                3 | 4 => Op::Remove(k),
                5 | 6 => Op::Lookup(k),
                _ => Op::Touch(k),
            }
        },
        |op: &Op| {
            let (ctor, k): (fn(u64) -> Op, u64) = match *op {
                Op::Insert(k) => (Op::Insert, k),
                Op::Remove(k) => (Op::Remove, k),
                Op::Lookup(k) => (Op::Lookup, k),
                Op::Touch(k) => (Op::Touch, k),
            };
            let mut out = Vec::new();
            if !matches!(op, Op::Lookup(0)) {
                out.push(Op::Lookup(0));
            }
            if k > 0 {
                out.push(ctor(0));
                out.push(ctor(k / 2));
            }
            out
        },
    );
    vecs(op, 0..=500)
}

#[test]
fn slot_index_matches_a_hashmap_oracle_under_churn() {
    check(
        "slot_index_matches_a_hashmap_oracle_under_churn",
        &ops_gen(),
        |ops| {
            let mut index = SlotIndex::with_capacity(CAPACITY);
            // Slot arena mirroring how CacheSim and Tlb use the index:
            // the arena owns the keys, the index only resolves hashes.
            let mut arena: Vec<u64> = Vec::new();
            let mut free: Vec<u32> = Vec::new();
            let mut oracle: HashMap<u64, u32> = HashMap::new();
            let probe = |index: &SlotIndex, arena: &[u64], k: u64| -> Option<u32> {
                index.get(fx_hash(&k), |s| arena[s as usize] == k)
            };
            for (i, &op) in ops.iter().enumerate() {
                match op {
                    Op::Insert(k) => {
                        if oracle.contains_key(&k) || oracle.len() == CAPACITY {
                            continue;
                        }
                        let slot = free.pop().unwrap_or(arena.len() as u32);
                        if slot as usize == arena.len() {
                            arena.push(k);
                        } else {
                            arena[slot as usize] = k;
                        }
                        index.insert(fx_hash(&k), slot);
                        oracle.insert(k, slot);
                    }
                    Op::Remove(k) => {
                        let got = index.remove(fx_hash(&k), |s| arena[s as usize] == k);
                        let want = oracle.remove(&k);
                        ensure_eq!(got, want, "step {i}: remove({k}) diverged");
                        if let Some(slot) = got {
                            free.push(slot);
                        }
                    }
                    Op::Lookup(k) => {
                        ensure_eq!(
                            probe(&index, &arena, k),
                            oracle.get(&k).copied(),
                            "step {i}: lookup({k}) diverged"
                        );
                    }
                    Op::Touch(k) => index.touch(fx_hash(&k)),
                }
                ensure_eq!(index.len(), oracle.len(), "step {i}: len diverged");
            }
            // Closing sweep over the whole key space: every resident key
            // resolves to its slot, every absent key misses — the
            // backward-shift deletes left no unreachable or phantom keys.
            for k in 0..SPAN {
                ensure_eq!(
                    probe(&index, &arena, k),
                    oracle.get(&k).copied(),
                    "final sweep: key {k}"
                );
            }
            ensure!(
                index.iter().count() == oracle.len(),
                "iter() count disagrees with oracle size"
            );
            Ok(())
        },
    );
}
