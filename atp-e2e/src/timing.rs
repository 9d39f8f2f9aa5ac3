//! Host-time spans recorded around the simulator's public seams.
//!
//! Three wrappers carry the instrumentation, so no simulator crate knows
//! it is being timed:
//!
//! * [`Timed`] wraps a manager's [`Stages`]. It counts lane groups in
//!   `prepare_batch` and times the stage calls and `retire_batch` of one
//!   group in every [`SAMPLE_EVERY`]; every other group runs the bare
//!   stages behind one flag test.
//! * [`TimedMm`] and [`TimedTenant`] wrap the manager the driver calls and
//!   time every `access_batch`, `batch_boundary`, `context_switch` and
//!   `retire_tenant`, each level under its own span kinds.
//!
//! All three record into one shared [`Probe`]. A timed lane group is a
//! span of its own, from its `prepare_batch` to the next group or the end
//! of the batch.
//!
//! A clock read costs tens of nanoseconds, as much as a whole pipelined
//! access, and more inside real work than in a tight loop, because the
//! work evicts the clock's cache lines. So the probe measures the clock
//! where it is used: every timed group and every timed outer call first
//! records one empty span, and the median empty span is taken out of
//! every span. The untimed groups' cost is read off the exact batch spans
//! with the timed groups taken out, so instrumentation left inside a
//! timed group never reaches the pipeline's self time.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::{Duration, Instant};

use atp_memmgmt::{AccessReport, MemoryManager, SimObserver, Stages, TenantManager, TlbProbe};
use atp_types::{Asid, Costs, ProfSink, VirtPage};

use crate::report::median;

/// One lane group in this many has its stage calls timed. 257 is prime,
/// so it is coprime with the driver's 256-group batch (4096 accesses in
/// 16-lane groups) and the 16-group tenant quantum: the timed group walks
/// every position of a batch instead of always landing on its first
/// group. Sampled spans are scaled up by the measured groups/timed ratio.
pub const SAMPLE_EVERY: u64 = 257;

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The kinds of span the wrappers record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Span {
    /// `MemoryManager::access_batch` ([`TimedMm`]).
    MmBatch,
    /// `MemoryManager::batch_boundary` ([`TimedMm`]).
    MmBoundary,
    /// `TenantManager::access_batch` ([`TimedTenant`]).
    TenantBatch,
    /// `TenantManager::batch_boundary` ([`TimedTenant`]).
    TenantBoundary,
    /// `TenantManager::context_switch`.
    ContextSwitch,
    /// `TenantManager::retire_tenant`.
    RetireTenant,
    /// `Stages::tlb_stage` (timed groups only).
    Tlb,
    /// `Stages::residency_stage` (timed groups only).
    Residency,
    /// `Stages::translate_stage` (timed groups only).
    Translate,
    /// `Stages::retire_batch` (timed groups only).
    Retire,
}

const SPAN_KINDS: usize = 10;

/// The spans a single-address-space driver call is made of.
pub const MM_CALLS: &[Span] = &[Span::MmBatch, Span::MmBoundary];
/// The spans a tenant driver call is made of.
pub const TENANT_CALLS: &[Span] = &[
    Span::TenantBatch,
    Span::TenantBoundary,
    Span::ContextSwitch,
    Span::RetireTenant,
];

/// Running total of one kind of span.
#[derive(Clone, Copy, Debug, Default)]
pub struct Acc {
    /// Spans recorded.
    pub calls: u64,
    /// Their summed clock time.
    pub raw_ns: u64,
}

/// Everything a traced run recorded.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    spans: [Acc; SPAN_KINDS],
    /// Lane groups prepared (exact).
    pub groups: u64,
    /// Lanes offered to `retire_batch` (exact).
    pub lanes: u64,
    /// Lanes `retire_batch` retired on the fast path (exact).
    pub retired: u64,
    /// Timed groups.
    pub timed_groups: u64,
    /// Lanes in timed groups.
    pub timed_lanes: u64,
    /// Summed span of the timed groups.
    pub group_raw_ns: u64,
    /// Child spans recorded inside timed groups.
    pub group_children: u64,
    /// Summed time of those child spans.
    pub group_children_raw_ns: u64,
    /// Every timed residency-stage call, for its tail.
    pub residency_raw_ns: Vec<u64>,
    /// Every empty span, for the clock's cost.
    pub clock_raw_ns: Vec<u64>,
}

impl Tally {
    /// Adds another run's recording to this one.
    pub fn merge(&mut self, o: &Tally) {
        for (a, b) in self.spans.iter_mut().zip(&o.spans) {
            a.calls += b.calls;
            a.raw_ns += b.raw_ns;
        }
        self.groups += o.groups;
        self.lanes += o.lanes;
        self.retired += o.retired;
        self.timed_groups += o.timed_groups;
        self.timed_lanes += o.timed_lanes;
        self.group_raw_ns += o.group_raw_ns;
        self.group_children += o.group_children;
        self.group_children_raw_ns += o.group_children_raw_ns;
        self.residency_raw_ns.extend_from_slice(&o.residency_raw_ns);
        self.clock_raw_ns.extend_from_slice(&o.clock_raw_ns);
    }

    /// The running total of one span kind.
    pub fn span(&self, s: Span) -> Acc {
        self.spans[s as usize]
    }

    /// What the clock adds to a span here: the median empty span.
    pub fn clock_ns(&self) -> f64 {
        let v: Vec<f64> = self.clock_raw_ns.iter().map(|&n| n as f64).collect();
        median(&v)
    }

    /// Summed time of one span kind, net of the clock.
    pub fn net_ns(&self, s: Span) -> f64 {
        let a = self.span(s);
        (a.raw_ns as f64 - a.calls as f64 * self.clock_ns()).max(0.0)
    }

    /// Mean net time per span; 0 when nothing was recorded.
    pub fn per_call_ns(&self, s: Span) -> f64 {
        let calls = self.span(s).calls;
        if calls == 0 {
            0.0
        } else {
            self.net_ns(s) / calls as f64
        }
    }

    /// Groups per timed group: the factor that scales sampled spans up
    /// to the whole run.
    pub fn scale(&self) -> f64 {
        if self.timed_groups == 0 {
            0.0
        } else {
            self.groups as f64 / self.timed_groups as f64
        }
    }

    /// Timed groups' span minus the child spans inside them. Children
    /// nest inside their group, so this is never negative; tests assert
    /// it on real runs.
    #[cfg(test)]
    pub fn group_self_raw_ns(&self) -> i128 {
        i128::from(self.group_raw_ns) - i128::from(self.group_children_raw_ns)
    }

    /// Mean time of an untimed lane group: the batch spans with the timed
    /// groups taken out, over the untimed groups.
    pub fn untimed_group_ns(&self) -> f64 {
        let untimed = self.groups.saturating_sub(self.timed_groups);
        let outside = self
            .span(Span::MmBatch)
            .raw_ns
            .saturating_sub(self.group_raw_ns);
        if untimed == 0 {
            0.0
        } else {
            outside as f64 / untimed as f64
        }
    }

    /// Time the instrumentation of the timed groups added to the batch
    /// spans: their span over what as many untimed groups take.
    pub fn timing_excess_ns(&self) -> f64 {
        (self.group_raw_ns as f64 - self.timed_groups as f64 * self.untimed_group_ns()).max(0.0)
    }

    /// The pipeline's own time over the whole run: every group at the
    /// untimed groups' mean cost, minus the child spans (net of the
    /// clock) scaled up to all groups. Below zero reads as 0: the
    /// pipeline's own time is then below what sampling resolves.
    pub fn pipeline_self_ns(&self) -> f64 {
        let children =
            self.group_children_raw_ns as f64 - self.group_children as f64 * self.clock_ns();
        let batch = self.untimed_group_ns() * self.groups as f64;
        (batch - children.max(0.0) * self.scale()).max(0.0)
    }

    /// Calls into the manager of the kinds in `calls`.
    pub fn calls(&self, calls: &[Span]) -> u64 {
        calls.iter().map(|&s| self.span(s).calls).sum()
    }

    /// Raw time of the calls into the manager of the kinds in `calls`.
    pub fn calls_raw_ns(&self, calls: &[Span]) -> u64 {
        calls.iter().map(|&s| self.span(s).raw_ns).sum()
    }

    /// The driver's own time in `driver_calls` driver calls that took
    /// `wall_ns` in all and were made of the spans `calls`: the wall time
    /// minus those spans, minus the clock reads each timed call adds
    /// outside its span (its empty span and one read of its own, about
    /// three clock costs) and those around the driver calls. Below zero
    /// reads as 0.
    pub fn driver_self_ns(&self, wall_ns: f64, driver_calls: usize, calls: &[Span]) -> f64 {
        let reads = 3.0 * self.calls(calls) as f64 + driver_calls as f64;
        (wall_ns - self.calls_raw_ns(calls) as f64 - reads * self.clock_ns()).max(0.0)
    }

    /// The `q`-quantile of the timed residency-stage calls, net of the
    /// clock; 0 when none was timed.
    pub fn residency_quantile_ns(&self, q: f64) -> f64 {
        if self.residency_raw_ns.is_empty() {
            return 0.0;
        }
        let mut v = self.residency_raw_ns.clone();
        v.sort_unstable();
        let rank = ((v.len() - 1) as f64 * q).round() as usize;
        (v[rank.min(v.len() - 1)] as f64 - self.clock_ns()).max(0.0)
    }
}

/// The state all wrappers of one traced run share. Interior mutability
/// because `Stages::prepare_batch` takes `&self`.
#[derive(Debug, Default)]
pub struct Probe {
    groups: Cell<u64>,
    /// Groups left until the next timed one.
    countdown: Cell<u64>,
    lanes: Cell<u64>,
    retired: Cell<u64>,
    /// Whether the lane group in flight is timed.
    timing: Cell<bool>,
    /// Start of the timed group in flight.
    opened: Cell<Option<Instant>>,
    tally: RefCell<Tally>,
}

impl Probe {
    /// A fresh probe.
    pub fn new() -> Rc<Self> {
        Rc::new(Self::default())
    }

    #[inline]
    fn timing(&self) -> bool {
        self.timing.get()
    }

    /// A new lane group of `lanes` starts: close the timed group before
    /// it, if any, and open this one if its turn has come. The common
    /// case is two counter updates and a test.
    #[inline]
    fn begin_group(&self, lanes: usize) {
        self.groups.set(self.groups.get() + 1);
        let left = self.countdown.get();
        if left == 0 || self.timing.get() {
            self.turn_group(lanes, left == 0);
        } else {
            self.countdown.set(left - 1);
        }
    }

    #[cold]
    #[inline(never)]
    fn turn_group(&self, lanes: usize, open: bool) {
        self.end_batch(Instant::now());
        if open {
            self.countdown.set(SAMPLE_EVERY - 1);
            self.sample_clock();
            self.tally.borrow_mut().timed_lanes += lanes as u64;
            self.timing.set(true);
            self.opened.set(Some(Instant::now()));
        } else {
            self.countdown.set(self.countdown.get() - 1);
        }
    }

    /// The driven batch ended at `now`: close the timed group in flight.
    fn end_batch(&self, now: Instant) {
        self.timing.set(false);
        if let Some(start) = self.opened.take() {
            let mut t = self.tally.borrow_mut();
            t.timed_groups += 1;
            t.group_raw_ns += nanos(now - start);
        }
    }

    /// Records one empty span: what the clock adds in this context.
    fn sample_clock(&self) {
        let t0 = Instant::now();
        std::hint::black_box(());
        let d = t0.elapsed();
        self.tally.borrow_mut().clock_raw_ns.push(nanos(d));
    }

    #[cold]
    #[inline(never)]
    fn child(&self, span: Span, d: Duration) {
        let ns = nanos(d);
        let mut t = self.tally.borrow_mut();
        t.spans[span as usize].calls += 1;
        t.spans[span as usize].raw_ns += ns;
        t.group_children += 1;
        t.group_children_raw_ns += ns;
        if span == Span::Residency {
            t.residency_raw_ns.push(ns);
        }
    }

    /// Times `f`, a call the driver makes into the manager, after one
    /// empty span; closes a timed group `f` left open.
    fn outer<R>(&self, span: Span, f: impl FnOnce() -> R) -> R {
        self.sample_clock();
        let t0 = Instant::now();
        let r = f();
        let t1 = Instant::now();
        self.end_batch(t1);
        let mut t = self.tally.borrow_mut();
        t.spans[span as usize].calls += 1;
        t.spans[span as usize].raw_ns += nanos(t1 - t0);
        r
    }

    /// Everything recorded so far.
    pub fn tally(&self) -> Tally {
        let mut t = self.tally.borrow().clone();
        t.groups = self.groups.get();
        t.lanes = self.lanes.get();
        t.retired = self.retired.get();
        t
    }
}

/// Evaluates `$call`, as a child span of the timed group if one is in
/// flight. The timed copy sits in a cold closure, so the untimed path
/// costs the bare call plus one flag test.
macro_rules! timed_child {
    ($probe:expr, $span:expr, $call:expr) => {{
        if $probe.timing() {
            #[cold]
            #[inline(never)]
            fn cold<R>(f: impl FnOnce() -> R) -> R {
                f()
            }
            cold(|| {
                let t0 = Instant::now();
                let r = $call;
                $probe.child($span, t0.elapsed());
                r
            })
        } else {
            $call
        }
    }};
}

/// [`Stages`] wrapper: counts lane groups and times the stages of one
/// group in [`SAMPLE_EVERY`]. Every method delegates, so the wrapped
/// manager takes the same fast path and reaches the same outcomes.
#[derive(Debug)]
pub struct Timed<S> {
    inner: S,
    probe: Rc<Probe>,
}

impl<S: Stages> Timed<S> {
    /// Wraps `inner`, recording into `probe`.
    pub fn new(inner: S, probe: Rc<Probe>) -> Self {
        Self { inner, probe }
    }
}

impl<S: Stages> Stages for Timed<S> {
    fn map_addr(&self, v: VirtPage) -> VirtPage {
        self.inner.map_addr(v)
    }

    fn io_scale(&self) -> u64 {
        self.inner.io_scale()
    }

    fn tlb_stage<O: SimObserver>(&mut self, addr: VirtPage, obs: &mut O) -> TlbProbe {
        timed_child!(self.probe, Span::Tlb, self.inner.tlb_stage(addr, obs))
    }

    fn residency_stage<O: SimObserver>(
        &mut self,
        addr: VirtPage,
        probe: TlbProbe,
        report: &mut AccessReport,
        obs: &mut O,
    ) {
        timed_child!(
            self.probe,
            Span::Residency,
            self.inner.residency_stage(addr, probe, report, obs)
        )
    }

    fn translate_stage<O: SimObserver>(
        &mut self,
        addr: VirtPage,
        probe: TlbProbe,
        report: &mut AccessReport,
        obs: &mut O,
    ) {
        timed_child!(
            self.probe,
            Span::Translate,
            self.inner.translate_stage(addr, probe, report, obs)
        )
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn prepare_batch(&self, addrs: &[VirtPage]) {
        self.probe.begin_group(addrs.len());
        self.inner.prepare_batch(addrs);
    }

    fn retire_batch(&mut self, addrs: &[VirtPage]) -> usize {
        let retired = timed_child!(self.probe, Span::Retire, self.inner.retire_batch(addrs));
        let p = &self.probe;
        p.lanes.set(p.lanes.get() + addrs.len() as u64);
        p.retired.set(p.retired.get() + retired as u64);
        retired
    }
}

/// [`MemoryManager`] wrapper: times every call the driver makes.
#[derive(Debug)]
pub struct TimedMm<M> {
    inner: M,
    probe: Rc<Probe>,
}

impl<M: MemoryManager> TimedMm<M> {
    /// Wraps `inner`, recording into `probe`.
    pub fn new(inner: M, probe: Rc<Probe>) -> Self {
        Self { inner, probe }
    }
}

impl<M: MemoryManager> MemoryManager for TimedMm<M> {
    fn access(&mut self, v: VirtPage) -> AccessReport {
        self.inner.access(v)
    }

    fn costs(&self) -> Costs {
        self.inner.costs()
    }

    fn reset_costs(&mut self) {
        self.inner.reset_costs();
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn batch_boundary(&mut self, len: usize) {
        let inner = &mut self.inner;
        self.probe
            .outer(Span::MmBoundary, || inner.batch_boundary(len));
    }

    fn access_batch(&mut self, vs: &[VirtPage]) {
        let inner = &mut self.inner;
        self.probe.outer(Span::MmBatch, || inner.access_batch(vs));
    }

    fn access_batch_profiled(&mut self, vs: &[VirtPage], prof: &mut dyn ProfSink) {
        self.inner.access_batch_profiled(vs, prof);
    }
}

/// [`TenantManager`] wrapper: times every call the tenant driver makes.
#[derive(Debug)]
pub struct TimedTenant<T> {
    inner: T,
    probe: Rc<Probe>,
}

impl<T: TenantManager> TimedTenant<T> {
    /// Wraps `inner`, recording into `probe`.
    pub fn new(inner: T, probe: Rc<Probe>) -> Self {
        Self { inner, probe }
    }
}

impl<T: TenantManager> TenantManager for TimedTenant<T> {
    fn access(&mut self, asid: Asid, v: VirtPage) -> AccessReport {
        self.inner.access(asid, v)
    }

    fn context_switch(&mut self, from: Asid, to: Asid) -> u64 {
        let inner = &mut self.inner;
        self.probe
            .outer(Span::ContextSwitch, || inner.context_switch(from, to))
    }

    fn retire_tenant(&mut self, asid: Asid) -> u64 {
        let inner = &mut self.inner;
        self.probe
            .outer(Span::RetireTenant, || inner.retire_tenant(asid))
    }

    fn costs(&self) -> Costs {
        self.inner.costs()
    }

    fn tenant_costs(&self) -> Vec<(Asid, Costs)> {
        self.inner.tenant_costs()
    }

    fn reset_costs(&mut self) {
        self.inner.reset_costs();
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn batch_boundary(&mut self, len: usize) {
        let inner = &mut self.inner;
        self.probe
            .outer(Span::TenantBoundary, || inner.batch_boundary(len));
    }

    fn access_batch(&mut self, asid: Asid, vs: &[VirtPage]) {
        let inner = &mut self.inner;
        self.probe
            .outer(Span::TenantBatch, || inner.access_batch(asid, vs));
    }
}
