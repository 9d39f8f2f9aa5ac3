//! Golden tests pinning the observability export formats byte-for-byte.
//!
//! Exports are consumed by scripts and CI artifact checks outside this
//! repository, so their bytes are a public interface: a hand-traced event
//! sequence pins each format exactly, and a real pipeline run on a fixed
//! seed pins determinism (two identical runs must export identical bytes).
//! If an *intentional* schema change breaks a golden, update the expected
//! string here and bump the schema version in `atp::obs`.

use atp::hash::XxHash64;
use atp::memmgmt::classic::{ClassicConfig, ClassicStages};
use atp::memmgmt::only::VirtualOnlyStages;
use atp::memmgmt::{
    AccessReport, EvictionEvent, MemoryManager, Pipeline, Recorder, SimObserver, TlbEvent,
};
use atp::obs::json::parse;
use atp::obs::{run_registry, EventLog, ExportFormat, RunObserver, Shared, Windowed};
use atp::replacement::PolicyKind;
use atp::sim::run;
use atp::trace::ReuseProfile;
use atp::types::{Asid, CostModel, TenantOp, VirtPage};
use atp::workloads::{TenantMix, Zipfian};

fn report(tlb_miss: bool, decode_miss: bool, ios: u64) -> AccessReport {
    AccessReport {
        tlb_miss,
        ios,
        decode_miss,
        paging_failure: false,
    }
}

/// A tiny hand-traceable event sequence: two accesses (one faulting), an
/// eviction, and a batch boundary.
fn tiny_log() -> EventLog {
    let mut log = EventLog::new(8);
    log.on_tlb_event(TlbEvent::Miss);
    log.on_tlb_event(TlbEvent::Fill);
    log.on_access(VirtPage(5), report(true, false, 2));
    log.on_tlb_event(TlbEvent::Hit);
    log.on_access(VirtPage(5), report(false, false, 0));
    log.on_eviction(EvictionEvent { unit: 9, pages: 64 });
    log.on_batch_boundary(2);
    log
}

#[test]
fn jsonl_golden() {
    assert_eq!(
        tiny_log().to_jsonl(),
        "{\"schema\":\"atp-events-v1\",\"clock\":2,\"recorded\":6,\"dropped\":0}\n\
         {\"clock\":0,\"event\":\"tlb_miss\"}\n\
         {\"clock\":0,\"event\":\"tlb_fill\"}\n\
         {\"clock\":0,\"event\":\"fault\",\"page\":5,\"ios\":2}\n\
         {\"clock\":1,\"event\":\"tlb_hit\"}\n\
         {\"clock\":2,\"event\":\"eviction\",\"unit\":9,\"pages\":64}\n\
         {\"clock\":2,\"event\":\"batch_boundary\",\"len\":2}\n"
    );
}

#[test]
fn chrome_trace_golden() {
    assert_eq!(
        tiny_log().to_chrome_trace(),
        "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"schema\":\"atp-trace-events-v1\",\
         \"clock\":2,\"recorded\":6,\"dropped\":0},\"traceEvents\":[\n\
         {\"name\":\"tlb_miss\",\"ph\":\"i\",\"ts\":0,\"pid\":0,\"tid\":0,\"s\":\"t\"},\n\
         {\"name\":\"tlb_fill\",\"ph\":\"i\",\"ts\":0,\"pid\":0,\"tid\":0,\"s\":\"t\"},\n\
         {\"name\":\"fault\",\"ph\":\"i\",\"ts\":0,\"pid\":0,\"tid\":0,\"s\":\"t\",\
         \"args\":{\"page\":5,\"ios\":2}},\n\
         {\"name\":\"tlb_hit\",\"ph\":\"i\",\"ts\":1,\"pid\":0,\"tid\":0,\"s\":\"t\"},\n\
         {\"name\":\"eviction\",\"ph\":\"i\",\"ts\":2,\"pid\":0,\"tid\":0,\"s\":\"t\",\
         \"args\":{\"unit\":9,\"pages\":64}},\n\
         {\"name\":\"batch_boundary\",\"ph\":\"i\",\"ts\":2,\"pid\":0,\"tid\":0,\"s\":\"t\",\
         \"args\":{\"len\":2}}\n\
         ]}\n"
    );
}

#[test]
fn window_csv_golden() {
    let mut w = Windowed::new(2, 0.5);
    w.on_access(VirtPage(1), report(true, false, 2));
    w.on_access(VirtPage(2), report(false, false, 0));
    w.on_eviction(EvictionEvent { unit: 3, pages: 8 });
    w.on_access(VirtPage(3), report(true, true, 0));
    assert_eq!(
        w.to_csv(),
        "window,start,accesses,tlb_misses,tlb_miss_rate,decode_misses,\
         ios,faults,fault_amplification,evictions,cost\n\
         0,0,2,1,0.500000,0,2,1,2.0000,0,2.5000\n\
         1,2,1,1,1.000000,1,0,0,0.0000,1,1.0000\n"
    );
}

/// Runs the classic pipeline on a fixed-seed zipf trace with the full
/// observer stack attached and returns every export artifact.
fn observed_run() -> (String, String, String, [String; 3]) {
    let obs = Shared::new(
        RunObserver::new(Recorder::new())
            .with_events(1 << 12)
            .with_window(1 << 10, 0.01),
    );
    let mut pipeline = Pipeline::with_observer(
        ClassicStages::new(ClassicConfig {
            huge_pages: 8,
            phys_pages: 1 << 12,
            tlb_entries: 128,
            tlb_policy: PolicyKind::Lru,
            ram_policy: PolicyKind::Lru,
            seed: 11,
        }),
        obs.clone(),
    );
    for p in Zipfian::new(42, 1 << 14, 1.1).take(20_000) {
        pipeline.access(p);
    }
    let costs = pipeline.costs();
    obs.with(|o| {
        let reg = run_registry(
            "classic",
            "zipf",
            &costs,
            CostModel::new(0.01),
            Some(&o.recorder),
        );
        (
            o.events.as_ref().unwrap().to_jsonl(),
            o.events.as_ref().unwrap().to_chrome_trace(),
            o.windowed.as_ref().unwrap().to_csv(),
            [
                reg.render(ExportFormat::Json),
                reg.render(ExportFormat::Csv),
                reg.render(ExportFormat::Prometheus),
            ],
        )
    })
}

#[test]
fn same_seed_runs_export_identical_bytes() {
    let (jsonl_a, chrome_a, csv_a, metrics_a) = observed_run();
    let (jsonl_b, chrome_b, csv_b, metrics_b) = observed_run();
    assert_eq!(jsonl_a, jsonl_b, "JSONL must be byte-deterministic");
    assert_eq!(
        chrome_a, chrome_b,
        "Chrome trace must be byte-deterministic"
    );
    assert_eq!(csv_a, csv_b, "window CSV must be byte-deterministic");
    assert_eq!(metrics_a, metrics_b, "metrics must be byte-deterministic");
}

#[test]
fn real_run_chrome_trace_is_structurally_valid() {
    let (_, chrome, _, _) = observed_run();
    let doc = parse(&chrome).expect("Chrome trace must be valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .expect("traceEvents array present");
    assert!(!events.is_empty(), "a 20k-access run emits events");
    for e in events {
        assert_eq!(e.get("ph").and_then(|p| p.as_str()), Some("i"));
        assert!(e.get("ts").and_then(|t| t.as_f64()).is_some());
        assert!(e.get("name").and_then(|n| n.as_str()).is_some());
        assert!(e.get("pid").is_some() && e.get("tid").is_some());
    }
    // Clocks are non-decreasing: the ring keeps the most recent tail.
    let ts: Vec<f64> = events
        .iter()
        .map(|e| e.get("ts").unwrap().as_f64().unwrap())
        .collect();
    assert!(ts.windows(2).all(|w| w[0] <= w[1]));
}

#[test]
fn real_run_jsonl_lines_all_parse() {
    let (jsonl, _, csv, _) = observed_run();
    let mut lines = jsonl.lines();
    let meta = parse(lines.next().expect("meta header")).unwrap();
    assert_eq!(
        meta.get("schema").and_then(|s| s.as_str()),
        Some("atp-events-v1")
    );
    assert_eq!(meta.get("clock").and_then(|c| c.as_f64()), Some(20_000.0));
    for line in lines {
        let ev = parse(line).unwrap_or_else(|e| panic!("bad JSONL line {line:?}: {e}"));
        assert!(ev.get("event").and_then(|n| n.as_str()).is_some());
    }
    // The window CSV covers every access: 1k-sized windows over 20k
    // accesses, with the access counts summing back to the total.
    let rows: Vec<&str> = csv.lines().skip(1).collect();
    assert_eq!(rows.len(), 20_000 / (1 << 10) + 1);
    let total: u64 = rows
        .iter()
        .map(|r| r.split(',').nth(2).unwrap().parse::<u64>().unwrap())
        .sum();
    assert_eq!(total, 20_000);
}

/// Accesses in each stream of the reuse goldens.
const REUSE_ACCESSES: usize = 60_000;

/// Private virtual pages per tenant in the flattened tenant stream.
const TENANT_VSPAN: u64 = 1 << 16;

/// The two streams the reuse goldens pin: a Zipf stream over a dense
/// page range, and 64 Zipf-scheduled tenants flattened into one address
/// space (tenant `a`'s page `v` at `a · 2^16 + v`, as atp-e2e flattens
/// `tenants_churn`), whose pages lie far above their distinct count.
fn reuse_streams() -> [(&'static str, Vec<VirtPage>); 2] {
    let zipf = Zipfian::new(7, 1 << 16, 1.0).take(REUSE_ACCESSES).collect();
    let mut tenants = Vec::with_capacity(REUSE_ACCESSES);
    let mut current = Asid::SINGLE;
    for op in TenantMix::new(7, 64, TENANT_VSPAN, 1.1, 1.01, 256, 0.05) {
        if tenants.len() == REUSE_ACCESSES {
            break;
        }
        match op {
            TenantOp::Access(v) => {
                tenants.push(VirtPage(u64::from(current.0) * TENANT_VSPAN + v.0));
            }
            TenantOp::Switch(to) => current = to,
            TenantOp::Retire(_) => {}
        }
    }
    [("zipf", zipf), ("tenants", tenants)]
}

/// The `atp_reuse_*` rows of the CSV metrics export of X run over
/// `stream` by the batched driver at its default batch, with the
/// recorder stack atp-e2e's `x_observed` cell attaches.
fn x_reuse_rows(workload: &str, stream: &[VirtPage]) -> String {
    let obs = Shared::new(RunObserver::new(Recorder::new()).with_window(1 << 12, 0.01));
    let mut pipeline = Pipeline::with_observer(
        VirtualOnlyStages::new(64, 128, PolicyKind::Lru, 11),
        obs.clone(),
    );
    let half = stream.len() as u64 / 2;
    let stats = run(&mut pipeline, stream.iter().copied(), half, half);
    let csv = obs.with(|o| {
        run_registry(
            "x",
            workload,
            &stats.costs,
            CostModel::new(0.01),
            Some(&o.recorder),
        )
        .render(ExportFormat::Csv)
    });
    csv.lines()
        .filter(|l| l.starts_with("atp_reuse_"))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// `ReuseProfile::compute` over `stream`: cold misses, LRU misses at a
/// ladder of capacities, and a digest of every histogram bucket.
fn reuse_profile_summary(stream: &[VirtPage]) -> String {
    let prof = ReuseProfile::compute(stream, 1 << 14);
    let mut digest = XxHash64::with_seed(0);
    for &c in &prof.histogram {
        digest.update(&c.to_le_bytes());
    }
    let misses: Vec<String> = [1usize, 16, 256, 1024, 4096, 1 << 14]
        .iter()
        .map(|&c| format!("{c}:{}", prof.lru_misses(c)))
        .collect();
    format!(
        "total={} cold={} lru_misses={} hist={:016x}",
        prof.total,
        prof.cold_misses,
        misses.join(","),
        digest.digest()
    )
}

#[test]
fn reuse_exports_golden() {
    let [(zipf_name, zipf), (tenants_name, tenants)] = reuse_streams();
    assert_eq!(
        x_reuse_rows(zipf_name, &zipf),
        "atp_reuse_cold,counter,manager=x;workload=zipf,value,15556\n\
         atp_reuse_distance,histogram,manager=x;workload=zipf,bucket_2^0,794\n\
         atp_reuse_distance,histogram,manager=x;workload=zipf,bucket_2^1,1257\n\
         atp_reuse_distance,histogram,manager=x;workload=zipf,bucket_2^2,2258\n\
         atp_reuse_distance,histogram,manager=x;workload=zipf,bucket_2^3,3178\n\
         atp_reuse_distance,histogram,manager=x;workload=zipf,bucket_2^4,3692\n\
         atp_reuse_distance,histogram,manager=x;workload=zipf,bucket_2^5,3575\n\
         atp_reuse_distance,histogram,manager=x;workload=zipf,bucket_2^6,3455\n\
         atp_reuse_distance,histogram,manager=x;workload=zipf,bucket_2^7,3505\n\
         atp_reuse_distance,histogram,manager=x;workload=zipf,bucket_2^8,3580\n\
         atp_reuse_distance,histogram,manager=x;workload=zipf,bucket_2^9,3351\n\
         atp_reuse_distance,histogram,manager=x;workload=zipf,bucket_2^10,3441\n\
         atp_reuse_distance,histogram,manager=x;workload=zipf,bucket_2^11,3444\n\
         atp_reuse_distance,histogram,manager=x;workload=zipf,bucket_2^12,3242\n\
         atp_reuse_distance,histogram,manager=x;workload=zipf,bucket_2^13,2858\n\
         atp_reuse_distance,histogram,manager=x;workload=zipf,bucket_2^14,2092\n\
         atp_reuse_distance,histogram,manager=x;workload=zipf,bucket_2^15,722\n\
         atp_reuse_distance,histogram,manager=x;workload=zipf,count,44444\n\
         atp_reuse_distance,histogram,manager=x;workload=zipf,sum,163073417\n"
    );
    assert_eq!(
        x_reuse_rows(tenants_name, &tenants),
        "atp_reuse_cold,counter,manager=x;workload=tenants,value,30063\n\
         atp_reuse_distance,histogram,manager=x;workload=tenants,bucket_2^0,823\n\
         atp_reuse_distance,histogram,manager=x;workload=tenants,bucket_2^1,1351\n\
         atp_reuse_distance,histogram,manager=x;workload=tenants,bucket_2^2,2301\n\
         atp_reuse_distance,histogram,manager=x;workload=tenants,bucket_2^3,3222\n\
         atp_reuse_distance,histogram,manager=x;workload=tenants,bucket_2^4,3387\n\
         atp_reuse_distance,histogram,manager=x;workload=tenants,bucket_2^5,3158\n\
         atp_reuse_distance,histogram,manager=x;workload=tenants,bucket_2^6,2402\n\
         atp_reuse_distance,histogram,manager=x;workload=tenants,bucket_2^7,1289\n\
         atp_reuse_distance,histogram,manager=x;workload=tenants,bucket_2^8,434\n\
         atp_reuse_distance,histogram,manager=x;workload=tenants,bucket_2^9,1013\n\
         atp_reuse_distance,histogram,manager=x;workload=tenants,bucket_2^10,1174\n\
         atp_reuse_distance,histogram,manager=x;workload=tenants,bucket_2^11,2016\n\
         atp_reuse_distance,histogram,manager=x;workload=tenants,bucket_2^12,1951\n\
         atp_reuse_distance,histogram,manager=x;workload=tenants,bucket_2^13,2690\n\
         atp_reuse_distance,histogram,manager=x;workload=tenants,bucket_2^14,2079\n\
         atp_reuse_distance,histogram,manager=x;workload=tenants,bucket_2^15,647\n\
         atp_reuse_distance,histogram,manager=x;workload=tenants,count,29937\n\
         atp_reuse_distance,histogram,manager=x;workload=tenants,sum,137645866\n"
    );
}

#[test]
fn reuse_profile_golden() {
    let [(_, zipf), (_, tenants)] = reuse_streams();
    assert_eq!(
        reuse_profile_summary(&zipf),
        "total=60000 cold=15556 \
         lru_misses=1:59206,16:51862,256:36374,1024:28406,4096:20389,16384:15556 \
         hist=f2fa6f816fa2689a"
    );
    assert_eq!(
        reuse_profile_summary(&tenants),
        "total=60000 cold=30063 \
         lru_misses=1:59177,16:51676,256:41846,1024:39984,4096:36180,16384:30971 \
         hist=ca9b9bfc2c14ebf2"
    );
}
