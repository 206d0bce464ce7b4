//! Statistics counters of a runtime, sharded per worker.
//!
//! Every counter exists once per pool worker plus once for threads outside the
//! pool (a server's executors, the thread that builds the runtime), and each
//! shard sits on cache lines of its own. An operation bumps a counter in the
//! calling worker's shard only, so counting never makes two workers write one
//! cache line; [`Counters::snapshot`] sums the shards and [`Counters::reset`]
//! zeroes all of them. DESIGN.md §6.8 has the shard-index rule.

use hh_api::{LatencyRecorder, RunStats};
use hh_objmodel::StoreStats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Declares [`CounterShard`]'s fields once, and with them its `reset`.
macro_rules! counter_shard {
    ($( $(#[$doc:meta])* $name:ident, )*) => {
        /// One worker's counters (see the module docs). 128-byte alignment keeps
        /// each shard off its neighbours' cache lines, including the adjacent
        /// line that the hardware prefetcher pulls in pairs.
        #[derive(Default, Debug)]
        #[repr(align(128))]
        pub struct CounterShard {
            $( $(#[$doc])* pub $name: AtomicU64, )*
        }

        impl CounterShard {
            fn reset(&self) {
                $( self.$name.store(0, Ordering::Relaxed); )*
            }
        }
    };
}

counter_shard! {
    /// Nanoseconds spent in garbage collections (summed over workers).
    gc_nanos,
    /// Number of collections.
    gc_count,
    /// Words copied by collections (survivors).
    gc_copied_words,
    /// Words allocated by mutators.
    allocated_words,
    /// Batched promotion passes performed (one per promoting pointer write).
    promotions,
    /// Objects copied by promotions.
    promoted_objects,
    /// Words copied by promotions.
    promoted_words,
    /// Forwarding-pointer hops walked by `findMaster` and promotion chases.
    fwd_hops,
    /// Forwarding-chain hops short-cut to the master by path compression.
    fwd_compressions,
    /// Lock-path scratch buffers allocated (or grown) by the promotion machinery.
    /// After warm-up this stays flat: `write_promote` reuses one per-worker buffer
    /// set instead of allocating fresh `Vec`s per promotion (regression-tested).
    promo_buf_allocs,
    /// Heaps created.
    heaps_created,
    /// Heap creations (and their `join_heap` splices) skipped because the fork was not
    /// stolen and the branch ran in the parent's heap (lazy steal-time heap policy).
    heaps_elided,
    /// Successful steals observed through the scheduler's on-steal hook (resettable,
    /// unlike the pool-lifetime counters).
    sched_steals,
    /// Bulk field operations executed.
    bulk_ops,
    /// Words moved by bulk field operations.
    bulk_words,
    /// `findMaster` resolutions performed inside bulk operations (at most one per
    /// object operand, i.e. amortized across each contiguous slice).
    bulk_master_lookups,
    /// Collections whose zone spanned more than one heap (an internal node plus its
    /// completed descendants — see `Inner::collect_subtree`).
    subtree_collections,
    /// Collections run in team mode (helpers drafted, i.e. configured team size
    /// > 1; participation is best-effort — see `gc_steal_blocks`; GC v2).
    gc_parallel_collections,
    /// Scan blocks stolen between GC team members during collections.
    gc_steal_blocks,
    /// Bounded drain increments executed by incremental collections (each at most
    /// `GC_INCREMENT_WORDS` of scanning; safepoint ticks and idle-worker drains).
    gc_increments,
    /// Collections that ran mutator-concurrently (incremental windows finalized).
    gc_incremental_collections,
    /// Runs that ended by unwind (panic, cooperative abort, or injected fault)
    /// rather than by returning; the teardown guard completed their epoch end.
    /// Not part of `RunStats` — read through `HhRuntime::aborted_runs`.
    runs_aborted,
    /// Incremental finalizes completed by the unwind guard after a schedule
    /// hook panicked mid-finalize (the injected-crash recovery path). Not part
    /// of `RunStats` — read through `HhRuntime::finalize_rescues`.
    gc_finalize_rescues,
    /// Panics raised *inside* `end_run`'s hook-bearing teardown prefix while
    /// the thread was already unwinding a prior panic — contained (counted,
    /// not propagated, which would double-panic) after the unconditional
    /// teardown tail still ran. Expected under fault injection (a hook can
    /// fire a second fault during the forced finalize); with hooks
    /// uninstalled, nonzero values indicate a teardown-path bug.
    teardown_panics,
}

impl CounterShard {
    /// Adds `d` to the GC time counter.
    pub fn add_gc_time(&self, d: Duration) {
        self.gc_nanos
            .fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Records one bulk operation moving `words` words. Master lookups are counted
    /// separately, at the `findMaster` call sites themselves, so `bulk_master_lookups`
    /// measures what actually happened rather than restating what the implementation
    /// intends.
    pub fn record_bulk(&self, words: u64) {
        self.bulk_ops.fetch_add(1, Ordering::Relaxed);
        self.bulk_words.fetch_add(words, Ordering::Relaxed);
    }
}

/// A runtime's counters: one [`CounterShard`] per pool worker plus one for every
/// other thread, and the two pause statistics, which are written once per
/// collection pause and need no sharding.
#[derive(Debug)]
pub struct Counters {
    shards: Box<[CounterShard]>,
    /// Longest single collection pause observed, in nanoseconds (updated by
    /// `fetch_max`; resettable).
    gc_max_pause_ns: AtomicU64,
    /// Every mutator-observed GC pause (one sample per STW collection, per
    /// incremental seed / safepoint tick / finalize). Feeds the pause CDF in
    /// `RunStats`; idle-worker drains do not pause a mutator and are not sampled.
    gc_pauses: parking_lot::Mutex<LatencyRecorder>,
}

impl Counters {
    /// Counters for a pool of `n_workers` workers.
    pub fn new(n_workers: usize) -> Counters {
        Counters {
            shards: (0..=n_workers).map(|_| CounterShard::default()).collect(),
            gc_max_pause_ns: AtomicU64::new(0),
            gc_pauses: parking_lot::Mutex::new(LatencyRecorder::default()),
        }
    }

    /// The shard of pool worker `worker`, or the shared shard of threads outside
    /// the pool for `None`.
    #[inline]
    pub fn shard(&self, worker: Option<usize>) -> &CounterShard {
        &self.shards[worker.unwrap_or(self.shards.len() - 1)]
    }

    /// The sum of one counter over every shard.
    pub fn total(&self, counter: impl Fn(&CounterShard) -> &AtomicU64) -> u64 {
        self.shards
            .iter()
            .map(|s| counter(s).load(Ordering::Relaxed))
            .sum()
    }

    /// Records one mutator-observed GC pause: updates the high-water mark and
    /// appends a sample to the pause CDF.
    pub fn record_gc_pause(&self, d: Duration) {
        let ns = d.as_nanos() as u64;
        self.gc_max_pause_ns.fetch_max(ns, Ordering::Relaxed);
        self.gc_pauses.lock().record_ns(ns);
    }

    /// Builds a [`RunStats`] snapshot, combining these counters with the chunk
    /// store's memory accounting (supplied by the caller).
    pub fn snapshot(&self, store: &StoreStats) -> RunStats {
        let pauses = self.gc_pauses.lock().summary();
        RunStats {
            gc_time: Duration::from_nanos(self.total(|s| &s.gc_nanos)),
            gc_count: self.total(|s| &s.gc_count),
            world_stops: 0,
            allocated_words: self.total(|s| &s.allocated_words),
            promotions: self.total(|s| &s.promotions),
            promoted_objects: self.total(|s| &s.promoted_objects),
            promoted_words: self.total(|s| &s.promoted_words),
            fwd_hops: self.total(|s| &s.fwd_hops),
            fwd_compressions: self.total(|s| &s.fwd_compressions),
            heaps_created: self.total(|s| &s.heaps_created),
            heaps_elided: self.total(|s| &s.heaps_elided),
            sched_steals: self.total(|s| &s.sched_steals),
            // Parking counters live in the scheduler pool; the runtime overlays them
            // in `Runtime::stats`.
            sched_parks: 0,
            sched_wakes: 0,
            peak_live_words: store.peak_words as u64,
            gc_copied_words: self.total(|s| &s.gc_copied_words),
            bulk_ops: self.total(|s| &s.bulk_ops),
            bulk_words: self.total(|s| &s.bulk_words),
            bulk_master_lookups: self.total(|s| &s.bulk_master_lookups),
            subtree_collections: self.total(|s| &s.subtree_collections),
            gc_parallel_collections: self.total(|s| &s.gc_parallel_collections),
            gc_steal_blocks: self.total(|s| &s.gc_steal_blocks),
            gc_max_pause_ns: self.gc_max_pause_ns.load(Ordering::Relaxed),
            gc_pause_count: pauses.count,
            gc_pause_p50_ns: pauses.p50_ns,
            gc_pause_p99_ns: pauses.p99_ns,
            gc_pause_p999_ns: pauses.p999_ns,
            gc_increments: self.total(|s| &s.gc_increments),
            gc_incremental_collections: self.total(|s| &s.gc_incremental_collections),
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

    /// Resets every counter of every shard to zero.
    pub fn reset(&self) {
        for shard in self.shards.iter() {
            shard.reset();
        }
        self.gc_max_pause_ns.store(0, Ordering::Relaxed);
        self.gc_pauses.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counters_and_store() {
        let c = Counters::new(2);
        c.shard(Some(0))
            .allocated_words
            .fetch_add(10, Ordering::Relaxed);
        c.shard(Some(1))
            .allocated_words
            .fetch_add(5, Ordering::Relaxed);
        c.shard(None)
            .allocated_words
            .fetch_add(1, Ordering::Relaxed);
        c.shard(Some(1))
            .promoted_objects
            .fetch_add(2, Ordering::Relaxed);
        c.shard(None).promoted_words.fetch_add(6, Ordering::Relaxed);
        c.shard(Some(0))
            .subtree_collections
            .fetch_add(1, Ordering::Relaxed);
        c.shard(Some(1)).add_gc_time(Duration::from_millis(3));
        let store = StoreStats {
            peak_words: 77,
            live_words: 40,
            free_words: 8,
            chunks_recycled: 3,
            alloc_cache_hits: 5,
            ..Default::default()
        };
        let s = c.snapshot(&store);
        assert_eq!(s.allocated_words, 16);
        assert_eq!(s.promoted_objects, 2);
        assert_eq!(s.promoted_words, 6);
        assert_eq!(s.peak_live_words, 77);
        assert_eq!(s.live_words, 40);
        assert_eq!(s.free_words, 8);
        assert_eq!(s.chunks_recycled, 3);
        assert_eq!(s.alloc_cache_hits, 5);
        assert_eq!(s.subtree_collections, 1);
        assert!(s.gc_time >= Duration::from_millis(3));
    }

    #[test]
    fn shards_are_distinct_and_outsiders_share_the_last() {
        let c = Counters::new(3);
        let addr = |s: &CounterShard| s as *const CounterShard as usize;
        let workers: Vec<usize> = (0..3).map(|w| addr(c.shard(Some(w)))).collect();
        assert!(workers.windows(2).all(|w| w[1] - w[0] >= 128));
        assert_eq!(addr(c.shard(None)), workers[2] + (workers[1] - workers[0]));
    }

    #[test]
    fn reset_zeroes_everything() {
        let c = Counters::new(2);
        for w in [Some(0), Some(1), None] {
            c.shard(w).allocated_words.fetch_add(10, Ordering::Relaxed);
            c.shard(w).gc_count.fetch_add(1, Ordering::Relaxed);
            c.shard(w).teardown_panics.fetch_add(1, Ordering::Relaxed);
        }
        c.record_gc_pause(Duration::from_micros(5));
        c.reset();
        let s = c.snapshot(&StoreStats::default());
        assert_eq!(s.allocated_words, 0);
        assert_eq!(s.gc_count, 0);
        assert_eq!(s.gc_max_pause_ns, 0);
        assert_eq!(s.gc_pause_count, 0);
        assert_eq!(c.total(|s| &s.teardown_panics), 0);
    }
}
