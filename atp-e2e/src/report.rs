//! Turning timed runs into named metrics, and writing them out.

use atp_obs::json::{self, Json};
use atp_obs::MetricsRegistry;

use crate::cells::{CellId, Mgr, Run};
use crate::timing::{Span, Tally, MM_CALLS, SAMPLE_EVERY, TENANT_CALLS};

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How many measurements the value rests on.
    pub samples: u64,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str, samples: u64) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        samples,
    }
}

/// The median (mean of the middle two for an even count); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Median over rep rounds of `a`'s wall time over `b`'s in the same
/// round.
fn paired_ratio(a: &[Run], b: &[Run]) -> f64 {
    let ratios: Vec<f64> = a
        .iter()
        .zip(b)
        .map(|(a, b)| ratio(a.wall_ns, b.wall_ns))
        .collect();
    median(&ratios)
}

/// Every timed rep of every cell, plus the set-up measurements.
#[derive(Debug)]
pub struct Measured {
    /// Per cell (in [`CellId::ALL`] order), its reps in measurement order.
    pub reps: Vec<(CellId, Vec<Run>)>,
    /// Set-up times (trace generation + manager construction), seconds.
    pub setup_s: Vec<f64>,
    /// Trace-generation times, seconds.
    pub gen_s: Vec<f64>,
    /// Length of the generated trace, in accesses.
    pub trace_accesses: u64,
    /// Peak resident set of the process, MB.
    pub peak_rss_mb: f64,
}

impl Measured {
    fn reps_of(&self, cell: CellId) -> &[Run] {
        self.reps
            .iter()
            .find(|(c, _)| *c == cell)
            .map_or(&[], |(_, r)| r.as_slice())
    }

    /// A cell's median wall time per driver call, ns.
    fn median_wall_ns(&self, cell: CellId) -> f64 {
        let walls: Vec<f64> = self.reps_of(cell).iter().map(|r| r.wall_ns).collect();
        median(&walls)
    }

    fn accesses(&self, cell: CellId) -> u64 {
        self.reps_of(cell)
            .first()
            .map_or(0, |r| r.outcome.accesses())
    }
}

/// The end-to-end metrics: `acc_per_s.<cell>` (median over reps of one
/// driver call), `setup_s` and `peak_rss_mb`.
pub fn end_to_end(m: &Measured) -> Vec<Metric> {
    let mut out: Vec<Metric> = CellId::ALL
        .iter()
        .filter(|c| c.end_to_end())
        .map(|&c| {
            let reps = m.reps_of(c).len() as u64;
            let per_s = ratio(m.accesses(c) as f64 * 1e9, m.median_wall_ns(c));
            metric(format!("acc_per_s.{}", c.name()), per_s, "acc/s", reps)
        })
        .collect();
    out.push(metric(
        "setup_s",
        median(&m.setup_s),
        "s",
        m.setup_s.len() as u64,
    ));
    out.push(metric("peak_rss_mb", m.peak_rss_mb, "MB", 1));
    out
}

/// The per-layer metrics, from the untraced reps and the traced reps of
/// each traced cell (summed over reps).
pub fn per_layer(m: &Measured, traced: &[(CellId, Vec<Run>)]) -> Vec<Metric> {
    let mut out = Vec::new();
    let gens = m.gen_s.len() as u64;
    out.push(metric(
        "workloads.gen_ns_per_acc",
        ratio(median(&m.gen_s) * 1e9, m.trace_accesses as f64),
        "ns/acc",
        gens,
    ));
    let null_reps = m.reps_of(CellId::Null).len() as u64;
    out.push(metric(
        "sim.null_ns_per_acc",
        ratio(
            m.median_wall_ns(CellId::Null),
            m.accesses(CellId::Null) as f64,
        ),
        "ns/acc",
        null_reps,
    ));
    let x = CellId::Mgr(Mgr::X);
    let x_reps = m.reps_of(x).len() as u64;
    out.push(metric(
        "obs.observer_tax",
        paired_ratio(m.reps_of(CellId::XObserved), m.reps_of(x)),
        "ratio",
        x_reps,
    ));
    out.push(metric(
        "obs.profiler_tax",
        paired_ratio(m.reps_of(CellId::XProfiled), m.reps_of(x)),
        "ratio",
        x_reps,
    ));
    for (cell, runs) in traced {
        if let Some(first) = runs.first() {
            layer_metrics(&mut out, m, *cell, first, runs);
        }
    }
    out
}

/// The per-layer metrics of one traced cell, from its traced reps
/// (`first` among them) added up.
fn layer_metrics(out: &mut Vec<Metric>, m: &Measured, cell: CellId, first: &Run, runs: &[Run]) {
    let n = cell.name();
    let mut t = Tally::default();
    for tally in runs.iter().filter_map(|r| r.tally.as_ref()) {
        t.merge(tally);
    }
    let wall_ns: f64 = runs.iter().map(|r| r.wall_ns).sum();
    let acc = runs.iter().map(|r| r.outcome.accesses()).sum::<u64>() as f64;
    let calls = match cell {
        CellId::Tagged | CellId::Arena => TENANT_CALLS,
        _ => MM_CALLS,
    };
    out.push(metric(
        format!("sim.driver_self_ns_per_acc.{n}"),
        ratio(t.driver_self_ns(wall_ns, runs.len(), calls), acc),
        "ns/acc",
        t.calls(calls),
    ));
    if matches!(cell, CellId::Mgr(_) | CellId::Arena) {
        out.push(metric(
            format!("memmgmt.pipeline_self_ns_per_acc.{n}"),
            ratio(t.pipeline_self_ns(), acc),
            "ns/acc",
            t.timed_groups,
        ));
        out.push(metric(
            format!("memmgmt.fast_path_share.{n}"),
            ratio(t.retired as f64, t.lanes as f64),
            "ratio",
            t.lanes,
        ));
        out.push(metric(
            format!("memmgmt.retire_batch_ns_per_lane.{n}"),
            ratio(t.net_ns(Span::Retire), t.timed_lanes as f64),
            "ns/lane",
            t.span(Span::Retire).calls,
        ));
        for (stage, span) in [
            ("tlb", Span::Tlb),
            ("translate", Span::Translate),
            ("residency", Span::Residency),
        ] {
            out.push(metric(
                format!("memmgmt.{stage}_stage_ns_per_call.{n}"),
                t.per_call_ns(span),
                "ns/call",
                t.span(span).calls,
            ));
        }
        out.push(metric(
            format!("memmgmt.residency_stage_p99_ns.{n}"),
            t.residency_quantile_ns(0.99),
            "ns",
            t.residency_raw_ns.len() as u64,
        ));
    }
    if matches!(cell, CellId::Tagged | CellId::Arena) {
        for (what, span) in [
            ("context_switch", Span::ContextSwitch),
            ("retire_tenant", Span::RetireTenant),
        ] {
            out.push(metric(
                format!("memmgmt.{what}_ns_per_call.{n}"),
                t.per_call_ns(span),
                "ns/call",
                t.span(span).calls,
            ));
        }
        // The arena's batches carry the timed groups' instrumentation.
        let batches = t.net_ns(Span::TenantBatch) - t.timing_excess_ns();
        out.push(metric(
            format!("memmgmt.access_batch_ns_per_acc.{n}"),
            ratio(batches.max(0.0), acc),
            "ns/acc",
            t.span(Span::TenantBatch).calls,
        ));
    }
    let c = first.outcome.measure;
    let per_1k = |x: u64| ratio(x as f64 * 1000.0, c.accesses as f64);
    for (what, x) in [
        ("tlb_misses", c.tlb_misses),
        ("ios", c.ios),
        ("decode_misses", c.decode_misses),
        ("paging_failures", c.paging_failures),
    ] {
        out.push(metric(
            format!("model.{what}_per_1k.{n}"),
            per_1k(x),
            "count/1k",
            c.accesses,
        ));
    }
    if cell == CellId::Tagged {
        out.push(metric(
            "model.shootdowns_per_1k.tagged",
            per_1k(first.outcome.shootdowns),
            "count/1k",
            c.accesses,
        ));
    }
    out.push(metric(
        format!("bench.trace_overhead.{n}"),
        paired_ratio(runs, m.reps_of(cell)),
        "ratio",
        runs.len() as u64,
    ));
}

/// The last line of standard output: the result object.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(&m.name),
                json::fmt_f64(m.value),
                json::quote(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Run context recorded in the artifact.
#[derive(Debug)]
pub struct Provenance<'a> {
    pub workload: &'a str,
    pub params: &'a str,
    pub seed: u64,
    pub label: &'a str,
    pub reps: usize,
}

/// Writes (or updates) an `atp-metrics-v1` artifact at `path`: rows of
/// other workloads already in the file are kept, so one file can collect
/// a run of every workload, each made by its own process.
pub fn write_artifact(
    path: &str,
    p: &Provenance<'_>,
    e2e: &[Metric],
    layers: &[Metric],
) -> Result<(), String> {
    let mut reg = MetricsRegistry::new();
    let mut meta: Vec<(String, String)> = Vec::new();
    if let Ok(text) = std::fs::read_to_string(path) {
        let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        if let Some(Json::Obj(fields)) = doc.get("meta") {
            for (k, v) in fields {
                meta.push((k.clone(), v.as_str().unwrap_or_default().to_string()));
            }
        }
        for row in doc.get("metrics").and_then(Json::as_arr).unwrap_or(&[]) {
            let Some(Json::Obj(labels)) = row.get("labels") else {
                continue;
            };
            let labels: Vec<(&str, &str)> = labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str().unwrap_or_default()))
                .collect();
            let name = row.get("name").and_then(Json::as_str);
            let value = row.get("value").and_then(Json::as_f64);
            if let (Some(name), Some(value)) = (name, value) {
                if !labels.contains(&("workload", p.workload)) {
                    reg.gauge(name, "", &labels, value);
                }
            }
        }
    }
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let w = p.workload;
    let mut set = |k: String, v: String| match meta.iter_mut().find(|(mk, _)| *mk == k) {
        Some(slot) => slot.1 = v,
        None => meta.push((k, v)),
    };
    set("bench".into(), "e2e".into());
    set("revision".into(), p.label.into());
    set("build_profile".into(), profile.into());
    set("nproc".into(), nproc.to_string());
    set("sample_every".into(), SAMPLE_EVERY.to_string());
    set(format!("{w}.params"), p.params.into());
    set(format!("{w}.seed"), p.seed.to_string());
    set(format!("{w}.reps"), p.reps.to_string());
    for (k, v) in &meta {
        reg.set_meta(k, v);
    }
    for (kind, metrics) in [("end_to_end", e2e), ("per_layer", layers)] {
        for m in metrics {
            let samples = m.samples.to_string();
            let labels = [
                ("workload", w),
                ("metric", m.name.as_str()),
                ("unit", m.unit),
                ("samples", samples.as_str()),
            ];
            reg.gauge(&format!("atp_e2e_{kind}"), "", &labels, m.value);
        }
    }
    std::fs::write(path, reg.to_json()).map_err(|e| format!("writing {path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(true, 3, 0, &[metric("acc_per_s.x", 1.5e8, "acc/s", 3)]);
        let doc = json::parse(&line).expect("valid JSON");
        assert_eq!(doc.get("attempted").and_then(Json::as_f64), Some(3.0));
        let v = doc
            .get("metrics")
            .and_then(|m| m.get("acc_per_s.x"))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64);
        assert_eq!(v, Some(1.5e8));
    }
}
