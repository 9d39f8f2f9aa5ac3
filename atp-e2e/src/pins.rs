//! The committed seed-1 outcomes every seed-1 run must reproduce.
//!
//! `pins.txt` holds one line per (workload, cell): the measured and the
//! warmup `Costs` and the measured shootdowns, in the format [`line`]
//! writes. A run prints its own lines prefixed `pin `, so
//! `e2e --workload W --seed 1 … | sed -n 's/^pin //p'` regenerates them.

use atp_types::Costs;

use crate::cells::Outcome;

const PINS: &str = include_str!("../pins.txt");

/// The seed the pins were taken at.
pub const PIN_SEED: u64 = 1;

fn costs(c: &Costs) -> String {
    format!(
        "{} {} {} {} {} {}",
        c.ios, c.tlb_misses, c.decode_misses, c.paging_failures, c.accesses, c.tlb_hits
    )
}

/// The pin line of `cell` on `workload` with outcome `o`.
pub fn line(workload: &str, cell: &str, o: &Outcome) -> String {
    format!(
        "{workload} {cell} measure {} warmup {} shootdowns {}",
        costs(&o.measure),
        costs(&o.warmup),
        o.shootdowns
    )
}

/// Checks `o` against the committed pin of `cell` on `workload`.
pub fn check(workload: &str, cell: &str, o: &Outcome) -> Result<(), String> {
    let want = line(workload, cell, o);
    let prefix = format!("{workload} {cell} ");
    match PINS.lines().find(|l| l.starts_with(&prefix)) {
        Some(pin) if pin == want => Ok(()),
        Some(pin) => Err(format!(
            "outcome differs from pin\n  pin: {pin}\n  got: {want}"
        )),
        None => Err(format!("no pin for {workload} {cell}")),
    }
}
