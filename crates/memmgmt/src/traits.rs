//! The memory-manager interface.

use atp_types::{Costs, ProfSink, VirtPage};

/// What servicing one page request cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AccessReport {
    /// The TLB missed (cost ε).
    pub tlb_miss: bool,
    /// Number of IOs performed (cost 1 each; `h` for physical huge pages).
    pub ios: u64,
    /// A decoding miss occurred (cost ε).
    pub decode_miss: bool,
    /// The request hit a page in the failure set `F`.
    pub paging_failure: bool,
}

/// A memory-management algorithm servicing a stream of virtual-page requests.
pub trait MemoryManager {
    /// Services a request for `v`, returning its cost breakdown.
    fn access(&mut self, v: VirtPage) -> AccessReport;

    /// Cumulative event counts.
    fn costs(&self) -> Costs;

    /// Resets the cumulative counters (e.g. after cache warmup) without
    /// touching TLB/RAM state — exactly how the paper measures ("100 million
    /// accesses to warm up the cache, then measured ... for another 100
    /// million accesses").
    fn reset_costs(&mut self);

    /// Human-readable description for reports.
    fn name(&self) -> String;

    /// Hook called by batched drivers after each chunk of `_len` accesses.
    /// Default: no-op; pipelines forward it to their observer.
    fn batch_boundary(&mut self, _len: usize) {}

    /// Services a batch of requests in order. Semantically identical to
    /// calling [`MemoryManager::access`] once per page (the default does
    /// exactly that); batched engines override it to run a software
    /// pipeline — hash precompute and arena prefetch a few accesses ahead
    /// — without changing any observable outcome. Callers that need the
    /// per-access [`AccessReport`]s must use `access` directly.
    fn access_batch(&mut self, vs: &[VirtPage]) {
        for &v in vs {
            self.access(v);
        }
    }

    /// [`MemoryManager::access_batch`] with hot-path profiling: identical
    /// outcomes, but lane occupancy, per-stage op counts, and resolution
    /// breakdowns are reported into `prof`. The default ignores the sink
    /// and just batches — managers without a software pipeline have
    /// nothing stage-level to report.
    fn access_batch_profiled(&mut self, vs: &[VirtPage], prof: &mut dyn ProfSink) {
        let _ = prof;
        self.access_batch(vs);
    }
}

impl<M: MemoryManager + ?Sized> MemoryManager for Box<M> {
    fn access(&mut self, v: VirtPage) -> AccessReport {
        (**self).access(v)
    }

    fn costs(&self) -> Costs {
        (**self).costs()
    }

    fn reset_costs(&mut self) {
        (**self).reset_costs()
    }

    fn name(&self) -> String {
        (**self).name()
    }

    fn batch_boundary(&mut self, len: usize) {
        (**self).batch_boundary(len)
    }

    fn access_batch(&mut self, vs: &[VirtPage]) {
        (**self).access_batch(vs)
    }

    fn access_batch_profiled(&mut self, vs: &[VirtPage], prof: &mut dyn ProfSink) {
        (**self).access_batch_profiled(vs, prof)
    }
}

/// Folds an [`AccessReport`] into a [`Costs`] tally.
pub fn tally(costs: &mut Costs, r: AccessReport) {
    costs.accesses += 1;
    costs.ios += r.ios;
    if r.tlb_miss {
        costs.tlb_misses += 1;
    } else {
        costs.tlb_hits += 1;
    }
    if r.decode_miss {
        costs.decode_misses += 1;
    }
    if r.paging_failure {
        costs.paging_failures += 1;
    }
}

/// Folds a run of `n` pure hits into a [`Costs`] tally: the same as `n`
/// calls of [`tally`] with `AccessReport::default()`, in one step.
pub fn tally_hits(costs: &mut Costs, n: u64) {
    costs.accesses += n;
    costs.tlb_hits += n;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_accumulates() {
        let mut c = Costs::default();
        tally(
            &mut c,
            AccessReport {
                tlb_miss: true,
                ios: 4,
                decode_miss: false,
                paging_failure: false,
            },
        );
        tally(
            &mut c,
            AccessReport {
                tlb_miss: false,
                ios: 0,
                decode_miss: true,
                paging_failure: true,
            },
        );
        assert_eq!(c.accesses, 2);
        assert_eq!(c.ios, 4);
        assert_eq!(c.tlb_misses, 1);
        assert_eq!(c.tlb_hits, 1);
        assert_eq!(c.decode_misses, 1);
        assert_eq!(c.paging_failures, 1);
    }

    #[test]
    fn tally_hits_is_n_default_tallies() {
        let mut one_by_one = Costs::default();
        for _ in 0..5 {
            tally(&mut one_by_one, AccessReport::default());
        }
        let mut run = Costs::default();
        tally_hits(&mut run, 5);
        assert_eq!(run, one_by_one);
    }
}
