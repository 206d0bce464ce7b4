//! Run epochs: the registry behind quiescence-free chunk reclamation.
//!
//! The original reuse horizon was global: retired chunks stayed quarantined until *no
//! run at all* was active (`ChunkStore::reclaim_retired`, called by the runtimes
//! between runs). That horizon never arrives on a server that keeps many independent
//! runs in flight, so recycling would stop exactly when traffic is sustained.
//!
//! [`RunEpochs`] replaces the global horizon with a per-run one. Every run draws a
//! monotone **epoch** at begin and retires it at dispose. A chunk retired on behalf of
//! run *e* is stamped `retired_at = e` in the quarantine; it becomes reusable as soon
//! as the **min-active-epoch watermark** passes it — i.e. once every run with epoch
//! `<= e` has disposed (`ChunkStore::reclaim_watermark`). Runs that begin *after* the
//! retirement can never hold an `ObjPtr` into the chunk (pointers must not cross
//! runs), so they never hold reclamation back.
//!
//! With a single run at a time the watermark degenerates to the old horizon: the only
//! active epoch is the run's own, and its dispose advances the watermark past
//! everything it retired. Only the baselines, whose flat heaps are shared across
//! runs, still dispose of those at the global horizon; the hierarchical runtime's
//! A5 ablation that kept it is retired (DESIGN.md §§5, 7).

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Monotone run-epoch registry: issues epochs at run begin, retires them at run
/// dispose, and tracks the min-active-epoch watermark in between.
///
/// Epochs start at 1; tag 0 on a chunk means "not owned by any epoch-tracked run"
/// (baselines before registration, store-level tests) and such chunks fall back to a
/// conservative stamp at retirement.
pub struct RunEpochs {
    /// Next epoch to issue. `next - 1` is the latest epoch ever issued.
    next: AtomicU64,
    /// Epochs issued but not yet retired. The `BTreeSet` keeps `first()` (the
    /// watermark) O(log n); begin/end are rare relative to allocation, so one mutex
    /// is fine.
    active: parking_lot::Mutex<BTreeSet<u64>>,
    /// Cached copy of the watermark (`min_active`), refreshed under the `active`
    /// lock, so hot paths can read it with one atomic load.
    watermark: AtomicU64,
    /// Number of currently active runs (gauge, kept outside the lock for stats).
    active_runs: AtomicUsize,
    /// Highest number of simultaneously active runs ever observed.
    active_runs_peak: AtomicUsize,
}

impl RunEpochs {
    /// Creates a registry with no active runs and epoch 1 as the next to issue.
    pub fn new() -> RunEpochs {
        RunEpochs {
            next: AtomicU64::new(1),
            active: parking_lot::Mutex::new(BTreeSet::new()),
            watermark: AtomicU64::new(1),
            active_runs: AtomicUsize::new(0),
            active_runs_peak: AtomicUsize::new(0),
        }
    }

    /// Begins a run: issues a fresh epoch and marks it active. The issue and the
    /// insertion happen under one lock so the watermark never observes a gap.
    pub fn begin(&self) -> u64 {
        let mut active = self.active.lock();
        let epoch = self.next.fetch_add(1, Ordering::Relaxed);
        active.insert(epoch);
        self.refresh_watermark(&active);
        self.store_gauges(&active);
        epoch
    }

    /// Ends the run that holds `epoch`, advancing the watermark past it if it was
    /// the oldest active run. Idempotent: retiring an unknown epoch is a no-op (the
    /// panic-unwind path may race a normal end).
    pub fn end(&self, epoch: u64) {
        let mut active = self.active.lock();
        active.remove(&epoch);
        self.refresh_watermark(&active);
        self.store_gauges(&active);
    }

    /// Publishes the active-run gauges. Called under the `active` lock: stored
    /// after it, a begin's or end's count could land after a later end's and
    /// leave a nonzero gauge with no run active.
    fn store_gauges(&self, active: &BTreeSet<u64>) {
        let n = active.len();
        self.active_runs.store(n, Ordering::Relaxed);
        self.active_runs_peak.fetch_max(n, Ordering::Relaxed);
    }

    fn refresh_watermark(&self, active: &BTreeSet<u64>) {
        // With no active run, everything ever retired is past the horizon: the
        // watermark is the next epoch to issue (strictly above every stamp).
        let min = active
            .first()
            .copied()
            .unwrap_or_else(|| self.next.load(Ordering::Relaxed));
        self.watermark.store(min, Ordering::Relaxed);
    }

    /// The latest epoch ever issued (0 before the first run). Used as the
    /// conservative retirement stamp for chunks that carry no run tag: such a chunk
    /// is reclaimable only once every run alive at retirement has disposed.
    pub fn stamp(&self) -> u64 {
        self.next.load(Ordering::Relaxed) - 1
    }

    /// The min-active-epoch watermark: every chunk whose retirement stamp is
    /// **strictly below** this is past its reuse horizon. Equals the next epoch to
    /// issue when no run is active (the degenerate single-run / quiescent case).
    pub fn min_active(&self) -> u64 {
        self.watermark.load(Ordering::Relaxed)
    }

    /// Number of currently active runs.
    pub fn active_runs(&self) -> usize {
        self.active_runs.load(Ordering::Relaxed)
    }

    /// Highest number of simultaneously active runs ever observed.
    pub fn active_runs_peak(&self) -> usize {
        self.active_runs_peak.load(Ordering::Relaxed)
    }
}

impl Default for RunEpochs {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epochs_are_monotone_from_one() {
        let e = RunEpochs::new();
        assert_eq!(e.stamp(), 0, "no epoch issued yet");
        assert_eq!(e.begin(), 1);
        assert_eq!(e.begin(), 2);
        assert_eq!(e.stamp(), 2);
    }

    #[test]
    fn watermark_tracks_oldest_active_run() {
        let e = RunEpochs::new();
        let a = e.begin(); // 1
        let b = e.begin(); // 2
        let c = e.begin(); // 3
        assert_eq!(e.min_active(), a);
        // Ending a *younger* run does not move the watermark.
        e.end(b);
        assert_eq!(e.min_active(), a);
        // Ending the oldest advances it to the next-oldest survivor.
        e.end(a);
        assert_eq!(e.min_active(), c);
        // Quiescence: watermark strictly above every epoch ever issued.
        e.end(c);
        assert_eq!(e.min_active(), 4);
        assert!(e.min_active() > e.stamp());
    }

    #[test]
    fn active_run_gauges() {
        let e = RunEpochs::new();
        assert_eq!(e.active_runs(), 0);
        let a = e.begin();
        let b = e.begin();
        assert_eq!(e.active_runs(), 2);
        assert_eq!(e.active_runs_peak(), 2);
        e.end(a);
        e.end(b);
        assert_eq!(e.active_runs(), 0);
        assert_eq!(e.active_runs_peak(), 2, "peak is sticky");
        // Ending an unknown epoch is harmless.
        e.end(999);
        assert_eq!(e.active_runs(), 0);
    }

    #[test]
    fn concurrent_begin_end_keeps_watermark_sound() {
        let e = std::sync::Arc::new(RunEpochs::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let e = std::sync::Arc::clone(&e);
            handles.push(std::thread::spawn(move || {
                for _ in 0..500 {
                    let epoch = e.begin();
                    // The watermark can never pass an active epoch.
                    assert!(e.min_active() <= epoch);
                    e.end(epoch);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(e.active_runs(), 0);
        assert_eq!(e.min_active(), e.stamp() + 1);
        assert!(e.active_runs_peak() >= 1);
    }
}
