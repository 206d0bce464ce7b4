//! Statistics counters of a runtime, sharded per worker.
//!
//! Every counter exists once per pool worker plus once for threads outside the
//! pool (a server's executors, the thread that builds the runtime), and each
//! shard sits on cache lines of its own. An operation bumps a counter in the
//! calling worker's shard only, so counting never makes two workers write one
//! cache line; [`Counters::snapshot`] sums the shards and [`Counters::reset`]
//! zeroes all of them. The hierarchical runtime and the baselines both count
//! here; DESIGN.md §6.8 has the shard-index rule. The counted fields are
//! declared once, with the rest of [`RunStats`], in [`crate::stats`].

use crate::latency::LatencyRecorder;
use crate::stats::{CounterShard, RunStats};
use hh_objmodel::StoreStats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

impl CounterShard {
    /// Adds `d` to the GC time counter (kept in nanoseconds).
    pub fn add_gc_time(&self, d: Duration) {
        self.gc_time
            .fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Records one bulk operation moving `words` words. Master lookups are counted
    /// separately, at the resolution sites themselves, so `bulk_master_lookups`
    /// measures what actually happened rather than restating what the
    /// implementation intends.
    #[inline]
    pub fn record_bulk(&self, words: u64) {
        self.bulk_ops.fetch_add(1, Ordering::Relaxed);
        self.bulk_words.fetch_add(words, Ordering::Relaxed);
    }
}

/// A runtime's counters: one [`CounterShard`] per pool worker plus one for every
/// other thread, and the GC pause samples, which are written once per collection
/// pause and need no sharding.
#[derive(Debug)]
pub struct Counters {
    shards: Box<[CounterShard]>,
    /// Every mutator-observed GC pause (one sample per stop-the-world collection,
    /// per incremental seed / safepoint tick / finalize). Feeds the pause CDF and
    /// the longest pause in [`RunStats`]; idle-worker drains do not pause a
    /// mutator and are not sampled.
    gc_pauses: Mutex<LatencyRecorder>,
}

impl Counters {
    /// Counters for a pool of `n_workers` workers.
    pub fn new(n_workers: usize) -> Counters {
        Counters {
            shards: (0..=n_workers).map(|_| CounterShard::default()).collect(),
            gc_pauses: Mutex::new(LatencyRecorder::default()),
        }
    }

    /// The shard of pool worker `worker`, or the shared shard of threads outside
    /// the pool for `None`.
    #[inline]
    pub fn shard(&self, worker: Option<usize>) -> &CounterShard {
        &self.shards[worker.unwrap_or(self.shards.len() - 1)]
    }

    /// The sum of one counter over every shard.
    pub(crate) fn total(&self, counter: impl Fn(&CounterShard) -> &AtomicU64) -> u64 {
        self.shards
            .iter()
            .map(|s| counter(s).load(Ordering::Relaxed))
            .sum()
    }

    /// Records one mutator-observed GC pause.
    pub fn record_gc_pause(&self, d: Duration) {
        self.pauses().record(d);
    }

    /// Builds a [`RunStats`] snapshot, combining these counters with the chunk
    /// store's memory accounting (supplied by the caller). The scheduler fields
    /// read zero: each runtime overlays its own.
    pub fn snapshot(&self, store: &StoreStats) -> RunStats {
        let pauses = self.pauses().summary();
        RunStats::from_parts(self, store, &pauses)
    }

    /// Resets every counter of every shard, and the pause samples, to zero.
    pub fn reset(&self) {
        for shard in self.shards.iter() {
            shard.reset();
        }
        self.pauses().clear();
    }

    /// The pause recorder. A panic while it is held leaves a valid sample
    /// vector (each update is one push or clear), so a poisoned lock is reused.
    fn pauses(&self) -> MutexGuard<'_, LatencyRecorder> {
        self.gc_pauses
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
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
        assert_eq!(s.subtree_collections, 1);
        assert_eq!(s.gc_time, Duration::from_millis(3));
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
        assert_eq!(s.teardown_panics, 0);
    }

    /// The pause recorder feeds the longest pause and the pause CDF, and a reset
    /// clears it with the shards.
    #[test]
    fn snapshot_and_reset() {
        let c = Counters::new(1);
        c.shard(Some(0)).world_stops.fetch_add(2, Ordering::Relaxed);
        c.record_gc_pause(Duration::from_nanos(300));
        c.record_gc_pause(Duration::from_nanos(100));
        let s = c.snapshot(&StoreStats::default());
        assert_eq!(s.world_stops, 2);
        assert_eq!(s.gc_max_pause_ns, 300);
        assert_eq!(s.gc_pause_count, 2);
        assert_eq!(s.gc_pause_p50_ns, 100);
        c.reset();
        let s = c.snapshot(&StoreStats::default());
        assert_eq!((s.world_stops, s.gc_pause_count), (0, 0));
    }
}
