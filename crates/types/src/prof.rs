//! The profiling seam of the hot paths: [`ProfSink`].
//!
//! The two batched paths of the workspace accept a `ProfSink` and report
//! *logical* operation counts into it: the batch entry point of the one
//! TLB type (`Tlb::access_or_fill_batch` — resolution outcomes, probe
//! lengths, miss-run lengths, capacity evictions) and the pipeline's
//! lane-group retire (`Pipeline::access_batch_profiled` — lane occupancy
//! and per-stage op counts). All quantities are deterministic functions
//! of (seed, trace, config); no wall clock is involved, so profiles are
//! byte-reproducible like every other export.
//!
//! The seam is designed to cost nothing when unused:
//!
//! * every method defaults to an empty body, and [`NoProf`] overrides
//!   nothing, so a monomorphized call against `NoProf` inlines to no code
//!   at all — each path has one body, generic over the sink, and callers
//!   without a profiler pass `NoProf`, which compiles to the unprofiled
//!   loop;
//! * the trait is object-safe, so cold control paths (driver plumbing,
//!   `Box<dyn MemoryManager>`) can pass `&mut dyn ProfSink` without
//!   monomorphizing the whole driver stack.
//!
//! The concrete collecting sink lives in `atp-obs::profile`; this crate
//! only defines the vocabulary so the hot-path crates stay free of any
//! observability dependency.

/// Why an entry left a cache-like structure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvictCause {
    /// Evicted by the replacement policy to make room for a cold insert.
    Capacity,
    /// Explicitly invalidated (shootdown, unmap, decoupling move).
    Invalidation,
    /// Dropped by a bulk per-tenant flush (`flush_asid`, retirement).
    Flush,
}

impl EvictCause {
    /// Stable lowercase label for exports.
    pub fn name(self) -> &'static str {
        match self {
            EvictCause::Capacity => "capacity",
            EvictCause::Invalidation => "invalidation",
            EvictCause::Flush => "flush",
        }
    }

    /// All causes, in export order.
    pub const ALL: [EvictCause; 3] = [
        EvictCause::Capacity,
        EvictCause::Invalidation,
        EvictCause::Flush,
    ];
}

/// A pipeline-stage operation, for per-stage op accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StageOp {
    /// Prefetch/prepare work issued for a lane (hash + probe-line touch).
    Prepare,
    /// A lane retired on the fast path (wide-probe hit run, validated
    /// resolution) without re-dispatching the full stage walk.
    RetireFast,
    /// A replayed access ran the TLB stage.
    Tlb,
    /// A replayed access ran the residency stage.
    Residency,
    /// A replayed access ran the translate stage.
    Translate,
}

impl StageOp {
    /// Stable lowercase label for exports.
    pub fn name(self) -> &'static str {
        match self {
            StageOp::Prepare => "prepare",
            StageOp::RetireFast => "retire_fast",
            StageOp::Tlb => "tlb",
            StageOp::Residency => "residency",
            StageOp::Translate => "translate",
        }
    }

    /// All ops, in export order.
    pub const ALL: [StageOp; 5] = [
        StageOp::Prepare,
        StageOp::RetireFast,
        StageOp::Tlb,
        StageOp::Residency,
        StageOp::Translate,
    ];
}

/// Receiver of logical hot-path profiling events.
///
/// All methods are no-ops by default; a sink overrides what it collects.
/// The trait is object-safe (`&mut dyn ProfSink` works), and hot loops
/// that are generic over `PS: ProfSink` monomorphize the no-op sink
/// [`NoProf`] away entirely.
pub trait ProfSink {
    /// Whether this sink is actually collecting. Hot loops hoist this to
    /// skip *derived* measurements (e.g. the extra pure-read probe that
    /// computes a probe length) — it constant-folds to `false` for
    /// [`NoProf`], which is what makes the off state free. Plain counter
    /// reports need no guard; only work done *solely* to feed the sink
    /// should be gated on it.
    fn enabled(&self) -> bool {
        true
    }

    /// `n` accesses resolved through the fast lane: a resolution-cache
    /// hint validated against the key arena (or a wide-probe hit run).
    fn rc_hit(&mut self, _n: u64) {}

    /// `n` accesses whose fast-lane hint was stale but that still hit on
    /// the slow lane's full probe.
    fn rc_stale(&mut self, _n: u64) {}

    /// `n` accesses that missed outright (cold miss: probe proved absence
    /// and a fill was performed).
    fn rc_cold(&mut self, _n: u64) {}

    /// A slow-lane probe inspected `len` buckets before resolving.
    fn probe_len(&mut self, _len: u64) {}

    /// A run of `len` consecutive misses ended (a hit or a batch boundary
    /// terminated it).
    fn miss_run(&mut self, _len: u64) {}

    /// A lane group retired `retired` of its lanes on the fast path.
    fn lane_occupancy(&mut self, _retired: u64) {}

    /// An entry was evicted for the given cause.
    fn eviction(&mut self, _cause: EvictCause) {}

    /// The pipeline performed `n` operations of kind `op`.
    fn stage_op(&mut self, _op: StageOp, _n: u64) {}
}

/// The zero-cost default sink: overrides nothing, so every profiled entry
/// point driven with `&mut NoProf` compiles to its unprofiled twin.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoProf;

impl ProfSink for NoProf {
    fn enabled(&self) -> bool {
        false
    }
}

/// Forwarding impl so `&mut dyn ProfSink` (and `&mut S`) plug into
/// `PS: ProfSink` generic entry points without re-monomorphizing.
impl<S: ProfSink + ?Sized> ProfSink for &mut S {
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    fn rc_hit(&mut self, n: u64) {
        (**self).rc_hit(n);
    }

    fn rc_stale(&mut self, n: u64) {
        (**self).rc_stale(n);
    }

    fn rc_cold(&mut self, n: u64) {
        (**self).rc_cold(n);
    }

    fn probe_len(&mut self, len: u64) {
        (**self).probe_len(len);
    }

    fn miss_run(&mut self, len: u64) {
        (**self).miss_run(len);
    }

    fn lane_occupancy(&mut self, retired: u64) {
        (**self).lane_occupancy(retired);
    }

    fn eviction(&mut self, cause: EvictCause) {
        (**self).eviction(cause);
    }

    fn stage_op(&mut self, op: StageOp, n: u64) {
        (**self).stage_op(op, n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Tally {
        hits: u64,
        stales: u64,
        colds: u64,
        probes: Vec<u64>,
        runs: Vec<u64>,
        lanes: Vec<u64>,
        evictions: Vec<EvictCause>,
        ops: Vec<(StageOp, u64)>,
    }

    impl ProfSink for Tally {
        fn rc_hit(&mut self, n: u64) {
            self.hits += n;
        }
        fn rc_stale(&mut self, n: u64) {
            self.stales += n;
        }
        fn rc_cold(&mut self, n: u64) {
            self.colds += n;
        }
        fn probe_len(&mut self, len: u64) {
            self.probes.push(len);
        }
        fn miss_run(&mut self, len: u64) {
            self.runs.push(len);
        }
        fn lane_occupancy(&mut self, retired: u64) {
            self.lanes.push(retired);
        }
        fn eviction(&mut self, cause: EvictCause) {
            self.evictions.push(cause);
        }
        fn stage_op(&mut self, op: StageOp, n: u64) {
            self.ops.push((op, n));
        }
    }

    fn drive<PS: ProfSink>(mut prof: PS) {
        prof.rc_hit(3);
        prof.rc_stale(1);
        prof.rc_cold(2);
        prof.probe_len(4);
        prof.miss_run(2);
        prof.lane_occupancy(16);
        prof.eviction(EvictCause::Capacity);
        prof.stage_op(StageOp::RetireFast, 16);
    }

    #[test]
    fn noprof_accepts_everything() {
        drive(NoProf);
        assert!(!NoProf.enabled());
        assert!(Tally::default().enabled(), "collecting sinks default on");
    }

    #[test]
    fn mut_ref_forwards_to_the_sink() {
        let mut t = Tally::default();
        drive(&mut t);
        assert_eq!((t.hits, t.stales, t.colds), (3, 1, 2));
        assert_eq!(t.probes, [4]);
        assert_eq!(t.runs, [2]);
        assert_eq!(t.lanes, [16]);
        assert_eq!(t.evictions, [EvictCause::Capacity]);
        assert_eq!(t.ops, [(StageOp::RetireFast, 16)]);
    }

    #[test]
    fn dyn_sink_forwards_too() {
        let mut t = Tally::default();
        {
            let dy: &mut dyn ProfSink = &mut t;
            drive(dy);
        }
        assert_eq!(t.hits, 3);
    }

    #[test]
    fn names_are_stable() {
        let causes: Vec<&str> = EvictCause::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(causes, ["capacity", "invalidation", "flush"]);
        let ops: Vec<&str> = StageOp::ALL.iter().map(|o| o.name()).collect();
        assert_eq!(
            ops,
            ["prepare", "retire_fast", "tlb", "residency", "translate"]
        );
    }
}
