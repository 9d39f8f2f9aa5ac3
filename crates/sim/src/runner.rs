//! Single-run driver with the paper's warmup/measure protocol.
//!
//! Traces are streamed in fixed-size batches through a reused buffer:
//! the driver pulls up to [`DEFAULT_BATCH`] pages from the trace iterator,
//! replays them against the manager, then announces the chunk via
//! [`MemoryManager::batch_boundary`] (pipelines forward it to their
//! observer). Batching keeps the iterator → manager handoff out of the
//! per-access hot path and gives observers natural flush points without
//! changing the access sequence in any way.

use atp_memmgmt::MemoryManager;
use atp_types::{Costs, ProfSink, VirtPage};

/// Default batch size for [`run`] (pages per chunk).
pub const DEFAULT_BATCH: usize = 4096;

/// Most pages a driver reserves for its chunk buffer up front. The buffer
/// grows on demand, so an oversized batch allocates only for the pages
/// the trace actually supplies.
pub(crate) const MAX_CHUNK_RESERVE: usize = 1 << 16;

/// Result of one simulation run.
///
/// Deliberately wall-clock-free: a `SimStats` is a pure function of
/// (manager, trace, warmup, measure), so goldens and observability
/// exports derived from it can be pinned byte-for-byte. Callers that
/// want to report elapsed time (CLI, benches) time around the call.
#[derive(Clone, Debug)]
pub struct SimStats {
    /// Manager description.
    pub name: String,
    /// Costs accumulated during the measurement phase.
    pub costs: Costs,
    /// Costs accumulated during warmup (informational).
    pub warmup_costs: Costs,
}

/// Drives `mgr` over `trace`: `warmup` accesses to fill caches (counters
/// then reset — "100 million accesses to warm up the cache"), then
/// `measure` accesses that are reported. Stops early if the trace ends.
/// Streams in [`DEFAULT_BATCH`]-sized chunks.
pub fn run<M: MemoryManager + ?Sized>(
    mgr: &mut M,
    trace: impl IntoIterator<Item = VirtPage>,
    warmup: u64,
    measure: u64,
) -> SimStats {
    run_batched(mgr, trace, warmup, measure, DEFAULT_BATCH)
}

/// [`run`] with an explicit batch size.
///
/// # Panics
/// Panics if `batch` is zero.
pub fn run_batched<M: MemoryManager + ?Sized>(
    mgr: &mut M,
    trace: impl IntoIterator<Item = VirtPage>,
    warmup: u64,
    measure: u64,
    batch: usize,
) -> SimStats {
    run_phases(mgr, trace, warmup, measure, batch, |m, vs| {
        m.access_batch(vs)
    })
}

/// [`run_batched`] with hot-path profiling: identical drive protocol and
/// outcomes, but each chunk is serviced through
/// [`MemoryManager::access_batch_profiled`], so lane occupancy and stage
/// op counts land in `prof`. Both phases (warmup and measurement) are
/// profiled; callers that want measurement-only profiles can reset or
/// swap the sink between phases.
///
/// # Panics
/// Panics if `batch` is zero.
pub fn run_batched_profiled<M: MemoryManager + ?Sized>(
    mgr: &mut M,
    trace: impl IntoIterator<Item = VirtPage>,
    warmup: u64,
    measure: u64,
    batch: usize,
    prof: &mut dyn ProfSink,
) -> SimStats {
    run_phases(mgr, trace, warmup, measure, batch, |m, vs| {
        m.access_batch_profiled(vs, prof)
    })
}

/// The warmup → reset → measure protocol shared by [`run_batched`] and
/// [`run_batched_profiled`], which differ only in how a chunk is
/// serviced. Taking that as a closure keeps each driver's monomorphized
/// loop free of the other's entry point.
fn run_phases<M: MemoryManager + ?Sized>(
    mgr: &mut M,
    trace: impl IntoIterator<Item = VirtPage>,
    warmup: u64,
    measure: u64,
    batch: usize,
    mut service: impl FnMut(&mut M, &[VirtPage]),
) -> SimStats {
    assert!(batch > 0, "batch size must be positive");
    let mut iter = trace.into_iter();
    let mut buf = Vec::with_capacity(batch.min(MAX_CHUNK_RESERVE));
    drive(mgr, &mut iter, warmup, batch, &mut buf, &mut service);
    let warmup_costs = mgr.costs();
    mgr.reset_costs();
    drive(mgr, &mut iter, measure, batch, &mut buf, &mut service);
    SimStats {
        name: mgr.name(),
        costs: mgr.costs(),
        warmup_costs,
    }
}

/// Replays up to `total` accesses in `batch`-sized chunks through the
/// reused `buf`, handing each chunk to `service` and announcing its
/// boundary. Stops when the trace ends.
fn drive<M: MemoryManager + ?Sized>(
    mgr: &mut M,
    iter: &mut impl Iterator<Item = VirtPage>,
    total: u64,
    batch: usize,
    buf: &mut Vec<VirtPage>,
    service: &mut impl FnMut(&mut M, &[VirtPage]),
) {
    let mut remaining = total;
    while remaining > 0 {
        let want = remaining.min(batch as u64) as usize;
        buf.clear();
        buf.extend(iter.by_ref().take(want));
        if buf.is_empty() {
            break;
        }
        // Batched engines software-pipeline the chunk; the default is a
        // plain per-access loop. Either way the access sequence, and the
        // boundary emission below, are bit-for-bit the same — in
        // particular, an empty final chunk broke out above and announces
        // no boundary.
        service(mgr, buf);
        mgr.batch_boundary(buf.len());
        remaining -= buf.len() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atp_memmgmt::classic::{ClassicConfig, ClassicMm, ClassicStages};
    use atp_memmgmt::{MemoryManager, Pipeline, Recorder};
    use atp_workloads::Sequential;

    #[test]
    fn warmup_is_excluded_from_measurement() {
        let mut m = ClassicMm::new(ClassicConfig::paper(1, 64));
        // 64-page cyclic scan over a 64-page RAM: warmup takes all the
        // compulsory misses; measurement sees none.
        let stats = run(&mut m, Sequential::new(64), 64, 128);
        assert_eq!(stats.warmup_costs.ios, 64);
        assert_eq!(stats.costs.ios, 0);
        assert_eq!(stats.costs.accesses, 128);
    }

    #[test]
    fn short_trace_stops_early() {
        let mut m = ClassicMm::new(ClassicConfig::paper(1, 16));
        let trace: Vec<_> = Sequential::new(8).take(10).collect();
        let stats = run(&mut m, trace, 4, 100);
        assert_eq!(stats.costs.accesses, 6);
    }

    #[test]
    fn name_propagates() {
        let mut m = ClassicMm::new(ClassicConfig::paper(4, 64));
        let stats = run(&mut m, Sequential::new(16), 0, 16);
        assert_eq!(stats.name, m.name());
    }

    #[test]
    fn batching_preserves_costs() {
        // Same trace, different chunkings: identical Costs.
        let trace: Vec<_> = Sequential::new(300).take(5000).collect();
        let mut a = ClassicMm::new(ClassicConfig::paper(4, 128));
        let mut b = ClassicMm::new(ClassicConfig::paper(4, 128));
        let sa = run_batched(&mut a, trace.iter().copied(), 1000, 4000, 7);
        let sb = run_batched(&mut b, trace.iter().copied(), 1000, 4000, 4096);
        assert_eq!(sa.costs, sb.costs);
        assert_eq!(sa.warmup_costs, sb.warmup_costs);
    }

    #[test]
    fn profiled_run_matches_unprofiled() {
        use atp_types::StageOp;

        #[derive(Default)]
        struct Tally {
            prepared: u64,
        }
        impl ProfSink for Tally {
            fn stage_op(&mut self, op: StageOp, n: u64) {
                if op == StageOp::Prepare {
                    self.prepared += n;
                }
            }
        }

        let trace: Vec<_> = Sequential::new(300).take(5000).collect();
        let mut plain = ClassicMm::new(ClassicConfig::paper(4, 128));
        let sp = run_batched(&mut plain, trace.iter().copied(), 1000, 4000, 512);
        let mut profiled = ClassicMm::new(ClassicConfig::paper(4, 128));
        let mut t = Tally::default();
        let sq = run_batched_profiled(
            &mut profiled,
            trace.iter().copied(),
            1000,
            4000,
            512,
            &mut t,
        );
        assert_eq!(sp.costs, sq.costs);
        assert_eq!(sp.warmup_costs, sq.warmup_costs);
        assert_eq!(t.prepared, 5000, "every driven access is prepared once");
    }

    #[test]
    fn observers_see_batch_boundaries() {
        let mut m = Pipeline::with_observer(
            ClassicStages::new(ClassicConfig::paper(1, 64)),
            Recorder::new(),
        );
        // 10 accesses in chunks of 4 → boundaries after 4, 4, 2.
        let trace: Vec<_> = Sequential::new(8).take(10).collect();
        run_batched(&mut m, trace, 0, 100, 4);
        assert_eq!(m.observer().counters().batches, 3);
    }
}
