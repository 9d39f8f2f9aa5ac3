//! The staged translation pipeline.
//!
//! Every memory manager in this crate services a request through the same
//! three stages, in order:
//!
//! 1. **TLB stage** — probe the translation cache ([`Stages::tlb_stage`]).
//!    The probe can resolve immediately (`Hit`/`Miss`), be `Deferred` to
//!    the translate stage (managers that touch RAM before the TLB, like
//!    the classic huge-page simulator), or `Bypass` the TLB entirely (the
//!    IO-only algorithm `Y`).
//! 2. **Residency stage** — consult the RAM cache, perform IOs, evict and
//!    update the decoupling scheme ([`Stages::residency_stage`]).
//! 3. **Translate stage** — decode/walk and install translations
//!    ([`Stages::translate_stage`]): ψ(u) fills after a miss, deferred
//!    probes, decode-miss re-encodes.
//!
//! [`Pipeline`] owns the stages plus a [`SimObserver`], runs the three
//! stages for each access, applies the address map and IO scale hooks
//! (used by the hybrid chunked manager), emits observer events, and keeps
//! the [`Costs`] tally. Managers are thin [`Stages`] implementations; all
//! probe/tally plumbing lives here, once.

use crate::observe::{NoopObserver, SimObserver, TlbEvent};
use crate::traits::{tally, tally_hits, AccessReport, MemoryManager};
use atp_replacement::LANES;
use atp_types::{Costs, NoProf, ProfSink, StageOp, VirtPage};

/// Outcome of the TLB stage for one access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TlbProbe {
    /// The TLB holds a translation for the request.
    Hit,
    /// The TLB does not; the translate stage will install one.
    Miss,
    /// The probe is deferred to the translate stage (RAM-first managers
    /// perform a single combined touch-or-fill after residency).
    Deferred,
    /// This manager has no TLB in the request path.
    Bypass,
}

/// A memory manager expressed as the three pipeline stages.
///
/// Stage methods are generic over the observer so that a `NoopObserver`
/// pipeline monomorphizes to the bare access path. Implementations must
/// only report events through `obs`; cost accounting goes through the
/// [`AccessReport`] and is tallied centrally by [`Pipeline`].
pub trait Stages {
    /// Maps the requested page into this manager's internal address space
    /// (the hybrid manager maps base pages to chunk ids). Default:
    /// identity.
    fn map_addr(&self, v: VirtPage) -> VirtPage {
        v
    }

    /// Multiplier applied to the residency stage's IO count (the hybrid
    /// manager moves whole chunks per fault). Default: 1.
    fn io_scale(&self) -> u64 {
        1
    }

    /// Stage 1: probe the TLB for `addr`.
    fn tlb_stage<O: SimObserver>(&mut self, addr: VirtPage, obs: &mut O) -> TlbProbe;

    /// Stage 2: make `addr` resident, recording IOs (and failure-path
    /// costs) in `report`.
    fn residency_stage<O: SimObserver>(
        &mut self,
        addr: VirtPage,
        probe: TlbProbe,
        report: &mut AccessReport,
        obs: &mut O,
    );

    /// Stage 3: install or refresh translations for `addr`. A `Deferred`
    /// probe must be resolved here by setting `report.tlb_miss`.
    fn translate_stage<O: SimObserver>(
        &mut self,
        addr: VirtPage,
        probe: TlbProbe,
        report: &mut AccessReport,
        obs: &mut O,
    );

    /// Human-readable description for reports.
    fn name(&self) -> String;

    /// Warms cache lines for a small window of *mapped* upcoming
    /// addresses (the prefetch stage of [`Pipeline::access_batch`]).
    /// Takes `&self` so implementations are structurally incapable of
    /// changing outcomes: they may only touch probe lines
    /// (`CacheSim::touch`, `Tlb::touch`), never policy state, counters,
    /// or membership. Default: no-op.
    fn prepare_batch(&self, _addrs: &[VirtPage]) {}

    /// Batched fast path: retires the *leading* run of `addrs` (already
    /// mapped) that are pure hits at every stage — no IOs, no TLB miss,
    /// no evictions, no stage-level observer events — applying exactly
    /// the per-access hit effects (policy refresh + hit counters) in
    /// access order, and returns how long that run is. The remaining
    /// lanes replay through the staged path.
    ///
    /// Implementations resolve the lane group in their caches
    /// (`CacheSim::resolve_hit_run`, which wide-probes the group so the
    /// probe misses overlap; a later cache only over the earlier one's
    /// run), truncate the runs to the shortest, and retire them
    /// (`CacheSim::retire_hit_run`). Stopping at the first
    /// non-hit is what keeps this bit-for-bit equal to sequential
    /// retirement: hits never change membership, so the group's probe
    /// resolutions stay valid exactly until the first lane that must
    /// mutate. Default: 0 (every lane replays; no fast path).
    fn retire_batch(&mut self, _addrs: &[VirtPage]) -> usize {
        0
    }
}

/// A staged, observable memory manager: [`Stages`] + [`SimObserver`] +
/// the shared cost tally.
#[derive(Debug)]
pub struct Pipeline<S: Stages, O: SimObserver = NoopObserver> {
    stages: S,
    observer: O,
    costs: Costs,
}

impl<S: Stages> Pipeline<S> {
    /// Builds an unobserved pipeline (zero-cost [`NoopObserver`]).
    pub fn from_stages(stages: S) -> Self {
        Pipeline::with_observer(stages, NoopObserver)
    }
}

impl<S: Stages, O: SimObserver> Pipeline<S, O> {
    /// Builds a pipeline with an explicit observer.
    pub fn with_observer(stages: S, observer: O) -> Self {
        Pipeline {
            stages,
            observer,
            costs: Costs::default(),
        }
    }

    /// The manager's stage state (TLBs, RAM caches, schemes…).
    pub fn stages(&self) -> &S {
        &self.stages
    }

    /// Mutable stage state (for tests and calibration drivers).
    pub fn stages_mut(&mut self) -> &mut S {
        &mut self.stages
    }

    /// The observer.
    pub fn observer(&self) -> &O {
        &self.observer
    }

    /// Consumes the pipeline, returning the observer.
    pub fn into_observer(self) -> O {
        self.observer
    }

    /// The one body of [`MemoryManager::access_batch`] and
    /// [`MemoryManager::access_batch_profiled`]: for each [`LANES`]-wide
    /// window, map the addresses, let the stages warm their probe lines
    /// ([`Stages::prepare_batch`], a `&self` hook that cannot change
    /// outcomes), retire the leading pure-hit run in one group step
    /// ([`Stages::retire_batch`]), and replay the rest in order through
    /// the normal staged path. Bit-for-bit equivalent to per-access
    /// [`MemoryManager::access`], including the observer event stream: a
    /// pure hit emits no stage events either way, so the fast path hands
    /// the retired run to [`SimObserver::on_hit_run`], whose contract is
    /// the pipeline-level `Hit` + access report of each page in order.
    ///
    /// `prof` receives, per window, the fast-path occupancy and the
    /// per-stage op counts (every lane is prepared; retired lanes skip
    /// the stage walk; replayed lanes run all three stages). With
    /// [`NoProf`] the accounting folds away.
    fn drive_batch<PS: ProfSink>(&mut self, vs: &[VirtPage], mut prof: PS) {
        let mut mapped = [VirtPage(0); LANES];
        let profiled = prof.enabled();
        for sub in vs.chunks(LANES) {
            for (i, &v) in sub.iter().enumerate() {
                mapped[i] = self.stages.map_addr(v);
            }
            self.stages.prepare_batch(&mapped[..sub.len()]);
            let retired = self.stages.retire_batch(&mapped[..sub.len()]);
            debug_assert!(retired <= sub.len(), "retired more lanes than given");
            if profiled {
                prof.lane_occupancy(retired as u64);
                prof.stage_op(StageOp::Prepare, sub.len() as u64);
                if retired > 0 {
                    prof.stage_op(StageOp::RetireFast, retired as u64);
                }
                let replayed = (sub.len() - retired) as u64;
                if replayed > 0 {
                    prof.stage_op(StageOp::Tlb, replayed);
                    prof.stage_op(StageOp::Residency, replayed);
                    prof.stage_op(StageOp::Translate, replayed);
                }
            }
            if retired > 0 {
                // The per-access epilogue of a pure hit, once for the run:
                // every report is the default (no miss, no IOs, no decode
                // miss).
                tally_hits(&mut self.costs, retired as u64);
                self.observer.on_hit_run(&sub[..retired]);
            }
            for &v in &sub[retired..] {
                self.access(v);
            }
        }
    }
}

impl<S: Stages, O: SimObserver> MemoryManager for Pipeline<S, O> {
    fn access(&mut self, v: VirtPage) -> AccessReport {
        let addr = self.stages.map_addr(v);
        let mut report = AccessReport::default();

        let probe = self.stages.tlb_stage(addr, &mut self.observer);
        self.stages
            .residency_stage(addr, probe, &mut report, &mut self.observer);
        self.stages
            .translate_stage(addr, probe, &mut report, &mut self.observer);

        match probe {
            TlbProbe::Hit => report.tlb_miss = false,
            TlbProbe::Miss => report.tlb_miss = true,
            // Bypass: no TLB in the path; the model charges nothing (and
            // the tally counts the access as a hit). Deferred: the
            // translate stage resolved the probe into `report`.
            TlbProbe::Bypass | TlbProbe::Deferred => {}
        }
        report.ios *= self.stages.io_scale();

        self.observer.on_tlb_event(if report.tlb_miss {
            TlbEvent::Miss
        } else {
            TlbEvent::Hit
        });
        if report.decode_miss {
            self.observer.on_decode_miss(v);
        }
        tally(&mut self.costs, report);
        self.observer.on_access(v, report);
        report
    }

    fn costs(&self) -> Costs {
        self.costs
    }

    fn reset_costs(&mut self) {
        self.costs = Costs::default();
    }

    fn name(&self) -> String {
        self.stages.name()
    }

    fn batch_boundary(&mut self, len: usize) {
        self.observer.on_batch_boundary(len);
    }

    /// Software-pipelined batch drive: retires each lane group's leading
    /// pure-hit run in one step and replays the rest; bit-for-bit equal
    /// to per-access [`Self::access`], observer event stream included.
    fn access_batch(&mut self, vs: &[VirtPage]) {
        self.drive_batch(vs, NoProf);
    }

    /// [`Self::access_batch`] with lane-group accounting into `prof`;
    /// outcomes, costs, and the observer event stream are identical.
    fn access_batch_profiled(&mut self, vs: &[VirtPage], prof: &mut dyn ProfSink) {
        self.drive_batch(vs, prof);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::Recorder;

    /// A toy manager: direct-mapped one-entry TLB over an infinite RAM
    /// that faults on first touch.
    struct Toy {
        tlb: Option<u64>,
        resident: std::collections::HashSet<u64>,
    }

    impl Stages for Toy {
        fn tlb_stage<O: SimObserver>(&mut self, addr: VirtPage, _obs: &mut O) -> TlbProbe {
            if self.tlb == Some(addr.0) {
                TlbProbe::Hit
            } else {
                TlbProbe::Miss
            }
        }

        fn residency_stage<O: SimObserver>(
            &mut self,
            addr: VirtPage,
            _probe: TlbProbe,
            report: &mut AccessReport,
            _obs: &mut O,
        ) {
            if self.resident.insert(addr.0) {
                report.ios = 1;
            }
        }

        fn translate_stage<O: SimObserver>(
            &mut self,
            addr: VirtPage,
            probe: TlbProbe,
            _report: &mut AccessReport,
            obs: &mut O,
        ) {
            if probe == TlbProbe::Miss {
                self.tlb = Some(addr.0);
                obs.on_tlb_event(TlbEvent::Fill);
            }
        }

        fn name(&self) -> String {
            "toy".into()
        }
    }

    fn toy() -> Toy {
        Toy {
            tlb: None,
            resident: Default::default(),
        }
    }

    #[test]
    fn pipeline_tallies_and_reports() {
        let mut p = Pipeline::from_stages(toy());
        let r = p.access(VirtPage(7));
        assert!(r.tlb_miss);
        assert_eq!(r.ios, 1);
        let r = p.access(VirtPage(7));
        assert!(!r.tlb_miss);
        assert_eq!(r.ios, 0);
        let c = p.costs();
        assert_eq!(c.accesses, 2);
        assert_eq!(c.tlb_misses, 1);
        assert_eq!(c.tlb_hits, 1);
        assert_eq!(c.ios, 1);
        assert_eq!(p.name(), "toy");
    }

    #[test]
    fn observer_sees_stage_events() {
        let mut p = Pipeline::with_observer(toy(), Recorder::new());
        p.access(VirtPage(1));
        p.access(VirtPage(1));
        p.access(VirtPage(2));
        p.batch_boundary(3);
        let c = p.observer().counters();
        assert_eq!(c.tlb_misses, 2);
        assert_eq!(c.tlb_hits, 1);
        assert_eq!(c.tlb_fills, 2);
        assert_eq!(c.faults, 2);
        assert_eq!(c.residency_hits, 1);
        assert_eq!(c.batches, 1);
        assert_eq!(p.observer().accesses(), 3);
    }

    #[test]
    fn profiled_batch_matches_unprofiled_and_accounts_stages() {
        use atp_types::{EvictCause, ProfSink};

        #[derive(Default)]
        struct Tally {
            lanes: Vec<u64>,
            ops: std::collections::BTreeMap<&'static str, u64>,
            evictions: u64,
        }
        impl ProfSink for Tally {
            fn lane_occupancy(&mut self, retired: u64) {
                self.lanes.push(retired);
            }
            fn stage_op(&mut self, op: StageOp, n: u64) {
                *self.ops.entry(op.name()).or_insert(0) += n;
            }
            fn eviction(&mut self, _cause: EvictCause) {
                self.evictions += 1;
            }
        }

        let trace: Vec<VirtPage> = (0..40).map(|i| VirtPage(i % 7)).collect();
        let mut plain = Pipeline::from_stages(toy());
        plain.access_batch(&trace);
        let mut prof = Pipeline::from_stages(toy());
        let mut t = Tally::default();
        prof.access_batch_profiled(&trace, &mut t);

        assert_eq!(
            prof.costs(),
            plain.costs(),
            "profiling must not change outcomes"
        );
        // Toy has no fast path: every lane group retires zero lanes and
        // replays everything through all three stages.
        assert_eq!(t.lanes, vec![0, 0, 0]);
        assert_eq!(t.ops["prepare"], 40);
        assert_eq!(t.ops.get("retire_fast"), None);
        assert_eq!(t.ops["tlb"], 40);
        assert_eq!(t.ops["residency"], 40);
        assert_eq!(t.ops["translate"], 40);
    }

    #[test]
    fn reset_costs_keeps_stage_state() {
        let mut p = Pipeline::from_stages(toy());
        p.access(VirtPage(1));
        p.reset_costs();
        assert_eq!(p.costs(), Costs::default());
        let r = p.access(VirtPage(1));
        assert_eq!(r.ios, 0, "residency survives the reset");
    }
}
