//! Statistics counters shared by the baseline runtimes.

use hh_api::{LatencyRecorder, RunStats};
use hh_objmodel::StoreStats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Atomic statistics counters for a baseline runtime.
#[derive(Default, Debug)]
pub struct Counters {
    /// Nanoseconds spent collecting.
    pub gc_nanos: AtomicU64,
    /// Number of collections.
    pub gc_count: AtomicU64,
    /// Number of stop-the-world pauses.
    pub world_stops: AtomicU64,
    /// Words allocated by mutators.
    pub allocated_words: AtomicU64,
    /// Transitive promotion passes to the global heap (DLG baseline).
    pub promotions: AtomicU64,
    /// Objects promoted to the global heap (DLG baseline).
    pub promoted_objects: AtomicU64,
    /// Words promoted to the global heap (DLG baseline).
    pub promoted_words: AtomicU64,
    /// Forwarding hops walked by the read barrier (`common::resolve_tracked`).
    pub fwd_hops: AtomicU64,
    /// Forwarding hops short-cut by path compression (chains of length ≥ 2).
    pub fwd_compressions: AtomicU64,
    /// Words copied by collections.
    pub gc_copied_words: AtomicU64,
    /// Bulk field operations executed.
    pub bulk_ops: AtomicU64,
    /// Words moved by bulk field operations.
    pub bulk_words: AtomicU64,
    /// Forwarding resolutions performed inside bulk operations (at most one per object
    /// operand).
    pub bulk_master_lookups: AtomicU64,
    /// Collections run in team mode (safepoint-parked workers were offered the
    /// collection; participation is best-effort — see `gc_steal_blocks`; GC v2).
    pub gc_parallel_collections: AtomicU64,
    /// Scan blocks stolen between GC team members during collections.
    pub gc_steal_blocks: AtomicU64,
    /// Longest single collection pause observed, in nanoseconds (`fetch_max`).
    pub gc_max_pause_ns: AtomicU64,
    /// One sample per stop-the-world pause; feeds the GC pause CDF in
    /// [`RunStats`] (same recorder the hierarchical runtime uses, so pause
    /// percentiles compare like with like across runtimes).
    pub gc_pauses: parking_lot::Mutex<LatencyRecorder>,
}

impl Counters {
    /// Adds `d` to the GC time.
    pub fn add_gc_time(&self, d: Duration) {
        self.gc_nanos
            .fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Records one stop-the-world pause: high-water mark plus a CDF sample.
    pub fn record_gc_pause(&self, d: Duration) {
        let ns = d.as_nanos() as u64;
        self.gc_max_pause_ns.fetch_max(ns, Ordering::Relaxed);
        self.gc_pauses.lock().record_ns(ns);
    }

    /// Snapshot into the common [`RunStats`] format, merging in the chunk store's
    /// memory accounting.
    pub fn snapshot(&self, store: &StoreStats, heaps: u64) -> RunStats {
        let pauses = self.gc_pauses.lock().summary();
        RunStats {
            gc_time: Duration::from_nanos(self.gc_nanos.load(Ordering::Relaxed)),
            gc_count: self.gc_count.load(Ordering::Relaxed),
            world_stops: self.world_stops.load(Ordering::Relaxed),
            allocated_words: self.allocated_words.load(Ordering::Relaxed),
            promotions: self.promotions.load(Ordering::Relaxed),
            promoted_objects: self.promoted_objects.load(Ordering::Relaxed),
            promoted_words: self.promoted_words.load(Ordering::Relaxed),
            fwd_hops: self.fwd_hops.load(Ordering::Relaxed),
            fwd_compressions: self.fwd_compressions.load(Ordering::Relaxed),
            heaps_created: heaps,
            // The baselines have no lazy heap policy; scheduler counters are overlaid
            // from the pool by each runtime's `Runtime::stats`.
            heaps_elided: 0,
            sched_steals: 0,
            sched_parks: 0,
            sched_wakes: 0,
            peak_live_words: store.peak_words as u64,
            gc_copied_words: self.gc_copied_words.load(Ordering::Relaxed),
            bulk_ops: self.bulk_ops.load(Ordering::Relaxed),
            bulk_words: self.bulk_words.load(Ordering::Relaxed),
            bulk_master_lookups: self.bulk_master_lookups.load(Ordering::Relaxed),
            // Flat heaps never collect subtrees; the store lifecycle fields apply to
            // every runtime.
            subtree_collections: 0,
            gc_parallel_collections: self.gc_parallel_collections.load(Ordering::Relaxed),
            gc_steal_blocks: self.gc_steal_blocks.load(Ordering::Relaxed),
            gc_max_pause_ns: self.gc_max_pause_ns.load(Ordering::Relaxed),
            gc_pause_count: pauses.count,
            gc_pause_p50_ns: pauses.p50_ns,
            gc_pause_p99_ns: pauses.p99_ns,
            gc_pause_p999_ns: pauses.p999_ns,
            // The baselines only collect stop-the-world.
            gc_increments: 0,
            gc_incremental_collections: 0,
            chunks_created: store.chunks_created as u64,
            chunks_recycled: store.chunks_recycled as u64,
            alloc_cache_hits: store.alloc_cache_hits as u64,
            live_words: store.live_words as u64,
            free_words: store.free_words as u64,
            epoch_reclaims: store.epoch_reclaims as u64,
            active_runs_peak: store.active_runs_peak as u64,
            quarantine_lag_words: store.quarantined_words as u64,
        }
    }

    /// Records one bulk operation moving `words` words. Forwarding resolutions are
    /// counted separately, at the `resolve` call sites themselves (see
    /// `common::resolve_counted`), so `bulk_master_lookups` measures what actually
    /// happened rather than restating what the implementation intends.
    #[inline]
    pub fn record_bulk(&self, words: u64) {
        self.bulk_ops.fetch_add(1, Ordering::Relaxed);
        self.bulk_words.fetch_add(words, Ordering::Relaxed);
    }

    /// Zeroes all counters.
    pub fn reset(&self) {
        for c in [
            &self.gc_nanos,
            &self.gc_count,
            &self.world_stops,
            &self.allocated_words,
            &self.promotions,
            &self.promoted_objects,
            &self.promoted_words,
            &self.fwd_hops,
            &self.fwd_compressions,
            &self.gc_copied_words,
            &self.bulk_ops,
            &self.bulk_words,
            &self.bulk_master_lookups,
            &self.gc_parallel_collections,
            &self.gc_steal_blocks,
            &self.gc_max_pause_ns,
        ] {
            c.store(0, Ordering::Relaxed);
        }
        self.gc_pauses.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_reset() {
        let c = Counters::default();
        c.allocated_words.fetch_add(5, Ordering::Relaxed);
        c.world_stops.fetch_add(2, Ordering::Relaxed);
        let store = StoreStats {
            peak_words: 9,
            chunks_recycled: 4,
            free_words: 11,
            ..Default::default()
        };
        let s = c.snapshot(&store, 3);
        assert_eq!(s.allocated_words, 5);
        assert_eq!(s.world_stops, 2);
        assert_eq!(s.peak_live_words, 9);
        assert_eq!(s.heaps_created, 3);
        assert_eq!(s.chunks_recycled, 4);
        assert_eq!(s.free_words, 11);
        c.reset();
        assert_eq!(c.snapshot(&StoreStats::default(), 0).allocated_words, 0);
    }
}
