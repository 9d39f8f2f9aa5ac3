//! Shared infrastructure for the figure/table reproducers.
//!
//! Every `bin/` target regenerates one of the paper's artifacts (see
//! DESIGN.md §3 for the index). All default to a laptop-scale configuration
//! that preserves the paper's ratios; pass `--paper` for the full-scale
//! parameters (64 GB address spaces, 100 M accesses — budget hours and RAM
//! accordingly).

#![forbid(unsafe_code)]

pub mod compare;
pub mod gate;

use atp_memmgmt::classic::{ClassicConfig, ClassicMm};
use atp_replacement::PolicyKind;
use atp_types::{Costs, VirtPage};

/// Run-scale selector parsed from CLI args.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Reduced dimensions, same ratios; minutes on a laptop.
    Laptop,
    /// The paper's exact dimensions; hours.
    Paper,
}

impl Scale {
    /// Parses `--paper` from argv.
    pub fn from_args() -> Self {
        if std::env::args().any(|a| a == "--paper") {
            Scale::Paper
        } else {
            Scale::Laptop
        }
    }
}

/// Prints a TSV header line.
pub fn tsv_header(cols: &[&str]) {
    println!("{}", cols.join("\t"));
}

/// Prints one TSV row.
pub fn tsv_row(cells: &[String]) {
    println!("{}", cells.join("\t"));
}

/// The huge-page sizes of Figure 1: `h ∈ {2^0, …, 2^10}`.
pub fn figure1_sizes() -> Vec<u64> {
    (0..=10).map(|i| 1u64 << i).collect()
}

/// Runs a classic manager over a shared trace with the paper protocol and
/// returns measured costs.
pub fn classic_run(
    trace: &[VirtPage],
    h: u64,
    phys_pages: u64,
    tlb_entries: u64,
    warmup: u64,
    measure: u64,
) -> Costs {
    let mut m = ClassicMm::new(ClassicConfig {
        huge_pages: h,
        phys_pages,
        tlb_entries,
        tlb_policy: PolicyKind::Lru,
        ram_policy: PolicyKind::Lru,
        seed: 0xF16,
    });
    atp_sim::run(&mut m, trace.iter().copied(), warmup, measure).costs
}

/// Drives a full Figure-1 sweep over `trace` and prints the table, then the
/// decoupled reference point.
pub fn figure1_table(
    label: &str,
    trace: &[VirtPage],
    phys_pages: u64,
    tlb_entries: u64,
    warmup: u64,
    measure: u64,
) {
    use atp_core::{IcebergAlloc, IcebergParams};
    use atp_memmgmt::decoupled::DecoupledConfig;
    use atp_memmgmt::DecoupledMm;

    println!(
        "# {label}: P={phys_pages} pages, ℓ={tlb_entries}, warmup={warmup}, measure={measure}"
    );
    println!("# opt_ios_full: Belady lower bound on IOs over the FULL trace (warmup+measure),");
    println!("# at huge-page granularity — the offline floor no replacement policy can beat.");
    tsv_header(&["h", "ios", "tlb_misses", "opt_ios_full"]);
    let sizes = figure1_sizes();
    let rows = atp_sim::sweep(&sizes, 0, |&h| {
        let c = classic_run(trace, h, phys_pages, tlb_entries, warmup, measure);
        // Offline OPT at huge-page granularity: each miss moves h pages.
        let huge_trace: Vec<u64> = trace.iter().map(|p| p.0 / h).collect();
        let units = (phys_pages / h).max(1) as usize;
        let opt = atp_replacement::opt::opt_misses(&huge_trace, units).misses * h;
        (h, c, opt)
    });
    for (h, c, opt) in rows {
        tsv_row(&[
            h.to_string(),
            c.ios.to_string(),
            c.tlb_misses.to_string(),
            opt.to_string(),
        ]);
    }

    let params = IcebergParams::derive(phys_pages);
    let mut z = DecoupledMm::new(
        IcebergAlloc::new(&params, 0xF16),
        DecoupledConfig {
            tlb_value_bits: 64,
            tlb_entries,
            tlb_policy: PolicyKind::Lru,
            resident_pages: params.max_resident,
            ram_policy: PolicyKind::Lru,
            seed: 0xF16,
        },
    );
    let hmax = z.coverage();
    let s = atp_sim::run(&mut z, trace.iter().copied(), warmup, measure);
    tsv_row(&[
        format!("decoupled(hmax={hmax})"),
        s.costs.ios.to_string(),
        s.costs.tlb_misses.to_string(),
    ]);
    println!(
        "# decoupled: bits/code={}, δ_eff={:.3}, paging failures={}",
        params.bits_per_code, params.delta_eff, s.costs.paging_failures
    );
}
