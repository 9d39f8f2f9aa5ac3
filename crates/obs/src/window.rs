//! Windowed time series: per-window miss rates, ε-cost, IO counts, and
//! fault amplification, so Figure-1-style *phase* plots fall out of a
//! single run instead of end-of-run totals.
//!
//! [`Windowed`] is a [`SimObserver`] that slices the access stream into
//! fixed-size windows of `N` accesses and accumulates one [`WindowRow`]
//! per slice. Export with [`Windowed::to_csv`]; all values derive from
//! logical counts only, so fixed-seed runs emit byte-identical CSV.

use crate::phase::{PhaseBoundary, PhaseConfig, PhaseDetector};
use atp_memmgmt::{AccessReport, EvictionEvent, SimObserver};
use atp_types::VirtPage;

/// Aggregates for one window of accesses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WindowRow {
    /// Zero-based window index.
    pub index: u64,
    /// Logical clock (completed accesses) at window start.
    pub start: u64,
    /// Accesses in this window (equals the window size except possibly for
    /// the final partial window).
    pub accesses: u64,
    /// TLB misses.
    pub tlb_misses: u64,
    /// Decoding misses.
    pub decode_misses: u64,
    /// IOs performed.
    pub ios: u64,
    /// Accesses that performed ≥ 1 IO.
    pub faults: u64,
    /// Residency evictions.
    pub evictions: u64,
    /// Phase id assigned by the detector (0 when detection is off).
    pub phase: u64,
}

impl WindowRow {
    /// TLB miss rate within the window (0 for an empty window).
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.tlb_misses as f64 / self.accesses as f64
        }
    }

    /// TLB miss rate in integer parts-per-million (the phase-detection
    /// signal; 0 for an empty window).
    pub fn miss_rate_ppm(&self) -> u64 {
        (self.tlb_misses * 1_000_000)
            .checked_div(self.accesses)
            .unwrap_or(0)
    }

    /// IOs per fault (the huge-page amplification signal; 0 if no faults).
    pub fn amplification(&self) -> f64 {
        if self.faults == 0 {
            0.0
        } else {
            self.ios as f64 / self.faults as f64
        }
    }

    /// Model cost of the window: `ios + ε·(tlb_misses + decode_misses)`.
    pub fn cost(&self, epsilon: f64) -> f64 {
        self.ios as f64 + epsilon * (self.tlb_misses + self.decode_misses) as f64
    }
}

/// The windowed time-series observer.
#[derive(Clone, Debug)]
pub struct Windowed {
    window: u64,
    epsilon: f64,
    rows: Vec<WindowRow>,
    cur: WindowRow,
    clock: u64,
    detector: Option<PhaseDetector>,
}

impl Windowed {
    /// Creates an observer slicing every `window` accesses; `epsilon` is
    /// used for the per-window ε-cost column.
    ///
    /// # Panics
    /// Panics if `window` is zero.
    pub fn new(window: u64, epsilon: f64) -> Self {
        assert!(window > 0, "window size must be positive");
        Windowed {
            window,
            epsilon,
            rows: Vec::new(),
            cur: WindowRow::default(),
            clock: 0,
            detector: None,
        }
    }

    /// Attaches online phase detection: each completed window feeds the
    /// detector, rows carry the phase id, the CSV grows a `phase` column,
    /// and boundaries accumulate for [`Windowed::take_boundaries`].
    pub fn with_phases(mut self, config: PhaseConfig) -> Self {
        self.detector = Some(PhaseDetector::new(config));
        self
    }

    /// The phase detector, if detection is enabled.
    pub fn detector(&self) -> Option<&PhaseDetector> {
        self.detector.as_ref()
    }

    /// Drains phase boundaries detected since the last call (empty when
    /// detection is off).
    pub fn take_boundaries(&mut self) -> Vec<PhaseBoundary> {
        self.detector
            .as_mut()
            .map(PhaseDetector::take_pending)
            .unwrap_or_default()
    }

    /// The window size in accesses.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Completed windows (excludes the in-progress one).
    pub fn rows(&self) -> &[WindowRow] {
        &self.rows
    }

    /// The in-progress window, if it has seen any accesses.
    pub fn partial(&self) -> Option<WindowRow> {
        (self.cur.accesses > 0).then_some(self.cur)
    }

    /// Completed rows plus the trailing partial window (if non-empty).
    pub fn all_rows(&self) -> Vec<WindowRow> {
        let mut out = self.rows.clone();
        out.extend(self.partial());
        out
    }

    /// CSV export: header plus one row per window (including a trailing
    /// partial window). Rates are fixed to six decimals so the bytes are
    /// stable and diffable. A `phase` column is appended **only** when
    /// phase detection is enabled, so existing consumers (and the pinned
    /// goldens) are unaffected by default.
    pub fn to_csv(&self) -> String {
        let phases = self.detector.is_some();
        let mut out = String::from(
            "window,start,accesses,tlb_misses,tlb_miss_rate,decode_misses,\
             ios,faults,fault_amplification,evictions,cost",
        );
        if phases {
            out.push_str(",phase");
        }
        out.push('\n');
        for r in self.all_rows() {
            out.push_str(&format!(
                "{},{},{},{},{:.6},{},{},{},{:.4},{},{:.4}",
                r.index,
                r.start,
                r.accesses,
                r.tlb_misses,
                r.miss_rate(),
                r.decode_misses,
                r.ios,
                r.faults,
                r.amplification(),
                r.evictions,
                r.cost(self.epsilon)
            ));
            if phases {
                out.push_str(&format!(",{}", r.phase));
            }
            out.push('\n');
        }
        out
    }
}

impl Windowed {
    /// Closes the in-progress window if it is full: feeds the detector,
    /// stores the row and opens the next window at the current clock.
    fn close_if_full(&mut self) {
        if self.cur.accesses < self.window {
            return;
        }
        let mut done = self.cur;
        if let Some(d) = &mut self.detector {
            // A window that deviates opens the new phase itself, so
            // feed first, then stamp with the (possibly bumped) id.
            d.on_window(done.index, done.start, done.miss_rate_ppm());
            done.phase = d.phase();
        }
        self.rows.push(done);
        self.cur = WindowRow {
            index: done.index + 1,
            start: self.clock,
            phase: done.phase,
            ..WindowRow::default()
        };
    }
}

impl SimObserver for Windowed {
    fn on_access(&mut self, _v: VirtPage, report: AccessReport) {
        self.cur.accesses += 1;
        if report.tlb_miss {
            self.cur.tlb_misses += 1;
        }
        if report.decode_miss {
            self.cur.decode_misses += 1;
        }
        if report.ios > 0 {
            self.cur.faults += 1;
            self.cur.ios += report.ios;
        }
        self.clock += 1;
        self.close_if_full();
    }

    /// A pure hit only counts as an access, so the run is added in bulk up
    /// to each window edge, and each full window closes exactly as in
    /// [`Windowed::on_access`].
    fn on_hit_run(&mut self, vs: &[VirtPage]) {
        let mut left = vs.len() as u64;
        while left > 0 {
            let take = left.min(self.window - self.cur.accesses);
            self.cur.accesses += take;
            self.clock += take;
            left -= take;
            self.close_if_full();
        }
    }

    fn on_eviction(&mut self, _event: EvictionEvent) {
        self.cur.evictions += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(tlb_miss: bool, ios: u64) -> AccessReport {
        AccessReport {
            tlb_miss,
            ios,
            decode_miss: false,
            paging_failure: false,
        }
    }

    #[test]
    fn windows_close_at_the_boundary() {
        let mut w = Windowed::new(4, 0.01);
        for i in 0..10u64 {
            w.on_access(VirtPage(i), report(i % 2 == 0, u64::from(i == 3)));
        }
        assert_eq!(w.rows().len(), 2, "two full windows of 4");
        assert_eq!(w.partial().unwrap().accesses, 2, "trailing partial of 2");
        let r0 = w.rows()[0];
        assert_eq!((r0.index, r0.start, r0.accesses), (0, 0, 4));
        assert_eq!(r0.tlb_misses, 2);
        assert_eq!((r0.faults, r0.ios), (1, 1));
        let r1 = w.rows()[1];
        assert_eq!((r1.index, r1.start), (1, 4));
    }

    #[test]
    fn rates_and_cost() {
        let r = WindowRow {
            accesses: 8,
            tlb_misses: 2,
            decode_misses: 1,
            ios: 6,
            faults: 2,
            ..WindowRow::default()
        };
        assert_eq!(r.miss_rate(), 0.25);
        assert_eq!(r.amplification(), 3.0);
        assert_eq!(r.cost(0.5), 6.0 + 0.5 * 3.0);
        assert_eq!(WindowRow::default().miss_rate(), 0.0);
        assert_eq!(WindowRow::default().amplification(), 0.0);
    }

    #[test]
    fn csv_includes_partial_window() {
        let mut w = Windowed::new(2, 0.01);
        for i in 0..3u64 {
            w.on_access(VirtPage(i), report(true, 0));
        }
        w.on_eviction(EvictionEvent { unit: 1, pages: 2 });
        let csv = w.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3, "header + full + partial");
        assert!(lines[0].starts_with("window,start,accesses"));
        assert!(lines[1].starts_with("0,0,2,2,1.000000,"));
        assert!(lines[2].starts_with("1,2,1,1,1.000000,"));
        assert!(lines[2].contains(",1,"), "eviction lands in current window");
    }

    #[test]
    #[should_panic(expected = "window size must be positive")]
    fn zero_window_rejected() {
        Windowed::new(0, 0.01);
    }

    #[test]
    fn final_partial_window_is_exact() {
        // 7 accesses, window 3: rows of 3 + 3, partial of 1. Misses land
        // on accesses 0, 3, 6 → per-window misses 1, 1, 1.
        let mut w = Windowed::new(3, 0.5);
        for i in 0..7u64 {
            w.on_access(VirtPage(i), report(i % 3 == 0, u64::from(i == 4) * 2));
        }
        let rows = w.all_rows();
        assert_eq!(rows.len(), 3);
        let p = rows[2];
        assert_eq!((p.index, p.start, p.accesses), (2, 6, 1));
        assert_eq!(p.tlb_misses, 1);
        assert_eq!(p.miss_rate(), 1.0);
        assert_eq!(rows[1].ios, 2, "the double-IO fault is in window 1");
        assert_eq!(rows[1].faults, 1);
        assert_eq!(rows[1].cost(0.5), 2.0 + 0.5);
        let csv = w.to_csv();
        assert_eq!(csv.lines().count(), 4, "header + 2 full + 1 partial");
        assert!(csv.lines().nth(3).unwrap().starts_with("2,6,1,1,1.000000,"));
    }

    #[test]
    fn window_larger_than_trace_yields_one_partial_row() {
        let mut w = Windowed::new(1000, 0.01);
        for i in 0..5u64 {
            w.on_access(VirtPage(i), report(i == 0, 1));
        }
        assert!(w.rows().is_empty(), "no window ever filled");
        let p = w.partial().expect("everything sits in the partial window");
        assert_eq!((p.accesses, p.tlb_misses, p.ios, p.faults), (5, 1, 5, 5));
        assert_eq!(w.all_rows().len(), 1);
        assert_eq!(w.to_csv().lines().count(), 2, "header + the partial row");
    }

    #[test]
    fn zero_access_state_exports_header_only() {
        // Evictions without any access accumulate in the unborn window,
        // which is not exported: no accesses means no rows at all.
        let mut w = Windowed::new(4, 0.01);
        w.on_eviction(EvictionEvent { unit: 1, pages: 1 });
        assert!(w.rows().is_empty());
        assert_eq!(w.partial(), None);
        assert_eq!(
            w.to_csv(),
            format!("{}\n", w.to_csv().lines().next().unwrap())
        );
        // Once an access arrives, the pending eviction is in its window.
        w.on_access(VirtPage(0), report(false, 0));
        assert_eq!(w.partial().unwrap().evictions, 1);
    }

    #[test]
    fn phase_column_appears_only_when_enabled() {
        let plain = Windowed::new(2, 0.01);
        assert!(!plain.to_csv().lines().next().unwrap().ends_with(",phase"));
        let mut w = Windowed::new(2, 0.01).with_phases(PhaseConfig::default());
        assert!(w.to_csv().lines().next().unwrap().ends_with(",phase"));
        w.on_access(VirtPage(0), report(false, 0));
        assert!(w.to_csv().lines().nth(1).unwrap().ends_with(",0"));
    }

    /// Feeds `segments` — a hit run of `n` pages for `Some(n)`, one TLB
    /// miss for `None` — to one window as runs and to another lane by
    /// lane, and asserts both end in the same state.
    fn assert_runs_match_lanes(window: u64, segments: &[Option<u64>]) {
        let cfg = PhaseConfig {
            warm_windows: 1,
            abs_floor_ppm: 1,
            rel_pct: 1,
        };
        let mut runs = Windowed::new(window, 0.5).with_phases(cfg);
        let mut lanes = Windowed::new(window, 0.5).with_phases(cfg);
        let mut page = 0u64;
        for seg in segments {
            match *seg {
                Some(n) => {
                    let vs: Vec<VirtPage> = (page..page + n).map(VirtPage).collect();
                    runs.on_hit_run(&vs);
                    for &v in &vs {
                        lanes.on_access(v, AccessReport::default());
                    }
                    page += n;
                }
                None => {
                    runs.on_access(VirtPage(page), report(true, 1));
                    lanes.on_access(VirtPage(page), report(true, 1));
                    page += 1;
                }
            }
        }
        assert_eq!(runs.all_rows(), lanes.all_rows(), "{segments:?}");
        assert_eq!(runs.to_csv(), lanes.to_csv());
        assert_eq!(runs.take_boundaries(), lanes.take_boundaries());
        assert_eq!(
            runs.detector().unwrap().phase(),
            lanes.detector().unwrap().phase()
        );
    }

    #[test]
    fn hit_run_ending_exactly_at_a_window_edge() {
        assert_runs_match_lanes(4, &[Some(4), Some(4), None, Some(3)]);
        assert_runs_match_lanes(4, &[None, Some(3), Some(4)]);
    }

    #[test]
    fn hit_run_straddling_a_window_edge() {
        assert_runs_match_lanes(4, &[Some(3), Some(3), None, Some(2), Some(5)]);
    }

    #[test]
    fn hit_run_spanning_several_windows() {
        assert_runs_match_lanes(4, &[None, Some(13), None, Some(16), Some(1)]);
        let mut w = Windowed::new(4, 0.01);
        let vs: Vec<VirtPage> = (0..18).map(VirtPage).collect();
        w.on_hit_run(&vs);
        let starts: Vec<u64> = w.all_rows().iter().map(|r| r.start).collect();
        assert_eq!(starts, [0, 4, 8, 12, 16], "four full windows + a partial");
    }

    #[test]
    fn hit_runs_at_window_size_one() {
        assert_runs_match_lanes(1, &[Some(5), None, Some(1), None, None, Some(3)]);
    }

    #[test]
    fn two_phase_series_stamps_rows_and_reports_the_boundary() {
        // Phase A: no misses. Phase B (from access 8): every access misses.
        let cfg = PhaseConfig {
            warm_windows: 2,
            abs_floor_ppm: 20_000,
            rel_pct: 50,
        };
        let mut w = Windowed::new(4, 0.01).with_phases(cfg);
        for i in 0..16u64 {
            w.on_access(VirtPage(i), report(i >= 8, 0));
        }
        let phases: Vec<u64> = w.rows().iter().map(|r| r.phase).collect();
        assert_eq!(phases, [0, 0, 1, 1], "window 2 opens phase 1");
        let bs = w.take_boundaries();
        assert_eq!(bs.len(), 1);
        assert_eq!((bs[0].window, bs[0].start, bs[0].phase), (2, 8, 1));
        assert_eq!((bs[0].from_ppm, bs[0].to_ppm), (0, 1_000_000));
        assert!(w.take_boundaries().is_empty(), "drained once");
        assert_eq!(w.detector().unwrap().phase(), 1);
    }
}
