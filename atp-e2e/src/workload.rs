//! The four workloads: what each generates from a seed, and why.

use atp_types::{Asid, TenantOp, VirtPage};
use atp_workloads::{Graph500Config, Graph500Trace, TenantMix, UniformRandom, Zipfian};

/// Physical pages, unless a workload says otherwise.
const PHYS: u64 = 1 << 16;
/// Virtual pages of the zipf and uniform workloads, and of each tenant.
const VSPAN: u64 = 1 << 18;

/// One named set of inputs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// graph500 BFS at 99% memory: almost every access is a pure hit, so
    /// per-access fixed costs (driver, pipeline glue, fast path,
    /// observer delivery) dominate.
    G500Hit,
    /// Zipf s=1.0: most lanes replay through all three stages, so TLB
    /// fill, RAM replacement and encode/decode share the time.
    ZipfMixed,
    /// Uniform over 4× memory: the fill/evict path rather than the hit
    /// path.
    UniformMiss,
    /// 256 Zipf-scheduled tenants with churn: the only workload with
    /// context switches, tagging and retirement shootdowns.
    TenantsChurn,
}

/// A generated workload: the trace plus the sizes the cells use.
#[derive(Debug)]
pub struct Trace {
    /// The single-address-space page stream. For the tenant workload,
    /// tenant `a`'s page `v` is `a · vspan + v`, the embedding
    /// `TenantArena` uses.
    pub pages: Vec<VirtPage>,
    /// The tenant op stream, for the tenant workload.
    pub ops: Option<Vec<TenantOp>>,
    /// Physical pages the managers get.
    pub phys: u64,
    /// Virtual pages per address space (the arena's embedding stride).
    pub vspan: u64,
    /// Warmup accesses.
    pub warmup: u64,
    /// Measured accesses.
    pub measure: u64,
    /// Warmup and measured accesses of the thp cell.
    pub thp: (u64, u64),
    /// Physical pages of the thp cell.
    pub thp_phys: u64,
}

// Sizes are set so that one round over every cell takes 1.5-2 s on a
// 2-core laptop-class machine, leaving room for several interleaved
// rounds in a run of a few seconds.

/// graph500: R-MAT scale and edge factor, and the accesses kept. A BFS at
/// scale 17 records about 8.9M accesses; cutting every seed to the same
/// length keeps runs comparable across seeds.
const G500_SCALE: u32 = 17;
const G500_EDGE_FACTOR: u64 = 16;
const G500_ACCESSES: u64 = 8_000_000;
const G500_WARMUP: u64 = 2_000_000;

const ZIPF_S: f64 = 1.0;
const ZIPF_WARMUP: u64 = 500_000;
const ZIPF_MEASURE: u64 = 1_500_000;

const UNIFORM_WARMUP: u64 = 250_000;
const UNIFORM_MEASURE: u64 = 750_000;

const TENANTS: u64 = 256;
const TENANT_SKEW: f64 = 1.1;
const PAGE_SKEW: f64 = 1.01;
const QUANTUM: u64 = 256;
const CHURN: f64 = 0.05;
const TENANT_WARMUP: u64 = 300_000;
const TENANT_MEASURE: u64 = 900_000;

/// thp's budgets. Once its frame pool is full, every fault
/// rejection-samples the whole pool for a free frame: tens of µs per
/// fault, so thp cannot run a whole trace where faults keep coming.
/// On uniform it runs a fragmentation cell: warmup that fills all 65,536
/// frames (about 75k accesses), then a short stretch of that steady
/// state. On zipf and tenants it runs a prefix that stays below the pool
/// size, so its cost there is the fault and promotion path itself.
const THP_FILL: (u64, u64) = (80_000, 5_000);
const THP_UNFILLED: (u64, u64) = (60_000, 20_000);

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::G500Hit,
        Workload::ZipfMixed,
        Workload::UniformMiss,
        Workload::TenantsChurn,
    ];

    /// The name used on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::G500Hit => "g500_hit",
            Workload::ZipfMixed => "zipf_mixed",
            Workload::UniformMiss => "uniform_miss",
            Workload::TenantsChurn => "tenants_churn",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The generator parameters, for provenance.
    pub fn params(self) -> String {
        let thp = |(w, m): (u64, u64)| format!("thp={w}+{m}");
        match self {
            Workload::G500Hit => format!(
                "graph500 scale={G500_SCALE} edge_factor={G500_EDGE_FACTOR} \
                 accesses={G500_ACCESSES} warmup={G500_WARMUP} phys=99%_of_touched \
                 thp_phys={PHYS}"
            ),
            Workload::ZipfMixed => format!(
                "zipf s={ZIPF_S} pages={VSPAN} warmup={ZIPF_WARMUP} measure={ZIPF_MEASURE} \
                 phys={PHYS} {}",
                thp(THP_UNFILLED)
            ),
            Workload::UniformMiss => format!(
                "uniform pages={VSPAN} warmup={UNIFORM_WARMUP} measure={UNIFORM_MEASURE} \
                 phys={PHYS} {}",
                thp(THP_FILL)
            ),
            Workload::TenantsChurn => format!(
                "tenant_mix tenants={TENANTS} tenant_skew={TENANT_SKEW} page_skew={PAGE_SKEW} \
                 vspan={VSPAN} quantum={QUANTUM} churn={CHURN} warmup={TENANT_WARMUP} \
                 measure={TENANT_MEASURE} phys={PHYS} {}",
                thp(THP_UNFILLED)
            ),
        }
    }

    /// Generates the workload's inputs from `seed`.
    pub fn generate(self, seed: u64) -> Trace {
        match self {
            Workload::G500Hit => {
                let g = Graph500Trace::generate(&Graph500Config {
                    scale: G500_SCALE,
                    edge_factor: G500_EDGE_FACTOR,
                    seed,
                    max_accesses: G500_ACCESSES as usize,
                });
                let pages: Vec<VirtPage> = g.iter().collect();
                let measure = pages.len() as u64 - G500_WARMUP.min(pages.len() as u64);
                Trace {
                    pages,
                    ops: None,
                    // The Figure-1c laptop pressure: memory slightly below
                    // the touched set.
                    phys: (g.touched_pages() * 99 / 100).max(2048),
                    vspan: g.footprint_pages(),
                    warmup: G500_WARMUP,
                    measure,
                    thp: (G500_WARMUP, measure),
                    // Under that pressure thp's random frame placement
                    // fragments the pool before most runs fill, so whether
                    // any run is ever promoted depends on the graph; after
                    // the first promotion every access hashes into a
                    // non-empty huge-page map and runs about 35% slower. With
                    // room to spare every seed promotes every run, and the
                    // cell measures the simulator rather than the seed.
                    thp_phys: PHYS,
                }
            }
            Workload::ZipfMixed => Trace {
                pages: Zipfian::new(seed, VSPAN, ZIPF_S)
                    .take((ZIPF_WARMUP + ZIPF_MEASURE) as usize)
                    .collect(),
                ops: None,
                phys: PHYS,
                vspan: VSPAN,
                warmup: ZIPF_WARMUP,
                measure: ZIPF_MEASURE,
                thp: THP_UNFILLED,
                thp_phys: PHYS,
            },
            Workload::UniformMiss => Trace {
                pages: UniformRandom::new(seed, VSPAN)
                    .take((UNIFORM_WARMUP + UNIFORM_MEASURE) as usize)
                    .collect(),
                ops: None,
                phys: PHYS,
                vspan: VSPAN,
                warmup: UNIFORM_WARMUP,
                measure: UNIFORM_MEASURE,
                thp: THP_FILL,
                thp_phys: PHYS,
            },
            Workload::TenantsChurn => {
                let mix =
                    TenantMix::new(seed, TENANTS, VSPAN, TENANT_SKEW, PAGE_SKEW, QUANTUM, CHURN);
                let (ops, pages) = take_tenant_ops(mix, VSPAN, TENANT_WARMUP + TENANT_MEASURE);
                Trace {
                    pages,
                    ops: Some(ops),
                    phys: PHYS,
                    vspan: VSPAN,
                    warmup: TENANT_WARMUP,
                    measure: TENANT_MEASURE,
                    thp: THP_UNFILLED,
                    thp_phys: PHYS,
                }
            }
        }
    }
}

/// Takes ops from `mix` until `accesses` accesses are in, and flattens
/// them into one address space (tenant `a`'s page `v` at `a · vspan + v`).
pub fn take_tenant_ops(
    mix: impl Iterator<Item = TenantOp>,
    vspan: u64,
    accesses: u64,
) -> (Vec<TenantOp>, Vec<VirtPage>) {
    let mut ops = Vec::new();
    let mut pages = Vec::with_capacity(accesses as usize);
    let mut current = Asid::SINGLE;
    for op in mix {
        if pages.len() as u64 == accesses {
            break;
        }
        match op {
            TenantOp::Access(v) => pages.push(VirtPage(u64::from(current.0) * vspan + v.0)),
            TenantOp::Switch(to) => current = to,
            TenantOp::Retire(_) => {}
        }
        ops.push(op);
    }
    (ops, pages)
}
