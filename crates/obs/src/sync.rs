//! A thread-safe recorder for concurrent drivers.
//!
//! [`Shared`](crate::Shared) is `Rc`-based and single-threaded;
//! `run_multicore` and `atp_sim::sweep` need an observer whose clones can
//! be handed to worker threads. [`SyncRecorder`] wraps a [`Recorder`] in
//! `Arc<Mutex<…>>`: clone one handle per worker, read the aggregate after
//! the join. Lock traffic only exists when observation is requested —
//! unobserved runs keep the zero-cost `NoopObserver` path.

use atp_memmgmt::{AccessReport, EvictionEvent, Recorder, SimObserver, TlbEvent};
use atp_types::VirtPage;
use std::sync::{Arc, Mutex};

/// A `Send + Sync` recorder handle; all clones feed one shared [`Recorder`].
#[derive(Clone, Debug, Default)]
pub struct SyncRecorder(Arc<Mutex<Recorder>>);

impl SyncRecorder {
    /// A fresh recorder with reuse-distance tracking enabled.
    pub fn new() -> Self {
        SyncRecorder::from_recorder(Recorder::new())
    }

    /// A fresh recorder without the reuse-distance map — constant memory
    /// regardless of trace footprint; use for sweeps and multicore runs
    /// where only the stage counters matter.
    pub fn without_reuse_tracking() -> Self {
        SyncRecorder::from_recorder(Recorder::without_reuse_tracking())
    }

    /// Wraps an existing recorder.
    pub fn from_recorder(r: Recorder) -> Self {
        SyncRecorder(Arc::new(Mutex::new(r)))
    }

    /// Runs `f` on the inner recorder.
    pub fn with<R>(&self, f: impl FnOnce(&Recorder) -> R) -> R {
        // atp-lint: allow(unwrap-policy, reason = "a poisoned lock means a sibling thread already panicked; propagating that panic is the intended behavior")
        f(&self.0.lock().expect("sync recorder poisoned"))
    }

    /// Clones out the inner recorder's current state.
    pub fn snapshot(&self) -> Recorder {
        // atp-lint: allow(unwrap-policy, reason = "a poisoned lock means a sibling thread already panicked; propagating that panic is the intended behavior")
        self.0.lock().expect("sync recorder poisoned").clone()
    }
}

impl SimObserver for SyncRecorder {
    fn on_access(&mut self, v: VirtPage, report: AccessReport) {
        self.0
            .lock()
            // atp-lint: allow(unwrap-policy, reason = "a poisoned lock means a sibling thread already panicked; propagating that panic is the intended behavior")
            .expect("sync recorder poisoned")
            .on_access(v, report);
    }

    fn on_tlb_event(&mut self, event: TlbEvent) {
        self.0
            .lock()
            // atp-lint: allow(unwrap-policy, reason = "a poisoned lock means a sibling thread already panicked; propagating that panic is the intended behavior")
            .expect("sync recorder poisoned")
            .on_tlb_event(event);
    }

    fn on_eviction(&mut self, event: EvictionEvent) {
        self.0
            .lock()
            // atp-lint: allow(unwrap-policy, reason = "a poisoned lock means a sibling thread already panicked; propagating that panic is the intended behavior")
            .expect("sync recorder poisoned")
            .on_eviction(event);
    }

    fn on_decode_miss(&mut self, v: VirtPage) {
        self.0
            .lock()
            // atp-lint: allow(unwrap-policy, reason = "a poisoned lock means a sibling thread already panicked; propagating that panic is the intended behavior")
            .expect("sync recorder poisoned")
            .on_decode_miss(v);
    }

    fn on_batch_boundary(&mut self, len: usize) {
        self.0
            .lock()
            // atp-lint: allow(unwrap-policy, reason = "a poisoned lock means a sibling thread already panicked; propagating that panic is the intended behavior")
            .expect("sync recorder poisoned")
            .on_batch_boundary(len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_one_tally_across_threads() {
        let rec = SyncRecorder::without_reuse_tracking();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let mut handle = rec.clone();
                s.spawn(move || {
                    for i in 0..100u64 {
                        handle.on_tlb_event(TlbEvent::Miss);
                        handle.on_access(
                            VirtPage(t * 1000 + i),
                            AccessReport {
                                tlb_miss: true,
                                ios: 1,
                                decode_miss: false,
                                paging_failure: false,
                            },
                        );
                    }
                });
            }
        });
        assert_eq!(rec.with(|r| r.accesses()), 400);
        assert_eq!(rec.with(|r| r.counters().tlb_misses), 400);
        assert_eq!(rec.with(|r| r.counters().ios), 400);
    }
}
