//! Run statistics reported by every runtime.

use std::time::Duration;

/// Counters accumulated by a runtime over one benchmark run.
///
/// These are the quantities the paper's evaluation reports: GC time (the `GC_s` /
/// `GC_72` columns of Figures 10–11), promotion volume (the §4.4 Manticore comparison),
/// and peak heap occupancy (the memory consumption of Figure 13).
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// Wall-clock time spent inside garbage collections, summed over all workers.
    pub gc_time: Duration,
    /// Number of garbage collections performed.
    pub gc_count: u64,
    /// Number of stop-the-world pauses (baselines only; 0 for the hierarchical runtime).
    pub world_stops: u64,
    /// Total words allocated by mutators.
    pub allocated_words: u64,
    /// Number of batched promotion passes performed (one per pointer write that had
    /// to evacuate a closure; the DLG baseline counts its transitive
    /// promote-to-global passes here).
    pub promotions: u64,
    /// Number of objects copied by promotions.
    pub promoted_objects: u64,
    /// Total words copied by promotions.
    pub promoted_words: u64,
    /// Forwarding-pointer hops walked while resolving master copies (`findMaster` on
    /// the hierarchical runtime, the forwarding barrier on the baselines). With path
    /// compression enabled this stays close to the number of resolutions.
    pub fwd_hops: u64,
    /// Forwarding-chain hops short-cut by path compression: after a resolution walks
    /// a chain of length ≥ 2, every intermediate hop is CAS-redirected to the master
    /// so the amortized resolution cost is O(1).
    pub fwd_compressions: u64,
    /// Number of heaps created (hierarchical runtime) or local heaps (DLG baseline).
    pub heaps_created: u64,
    /// Heap creations skipped by the lazy steal-time heap policy: an unstolen branch
    /// runs in its parent's heap, eliding the child heap and its join splice
    /// (hierarchical runtime only; 0 elsewhere).
    pub heaps_elided: u64,
    /// Successful work steals observed by the scheduler. Resettable on the
    /// hierarchical runtime (fed by the on-steal hook); pool-lifetime on the baselines.
    pub sched_steals: u64,
    /// Times a scheduler worker parked while idle (pool-lifetime counter).
    pub sched_parks: u64,
    /// Wakeups delivered to parked scheduler workers (pool-lifetime counter).
    pub sched_wakes: u64,
    /// Peak number of live words held in chunks at any point of the run.
    pub peak_live_words: u64,
    /// Words copied by garbage collections (survivors).
    pub gc_copied_words: u64,
    /// Number of bulk field operations (`read_imm_bulk`, `read_mut_bulk`,
    /// `write_nonptr_bulk`, `fill_nonptr`, `copy_nonptr`) executed.
    pub bulk_ops: u64,
    /// Total words moved by bulk field operations.
    pub bulk_words: u64,
    /// Forwarding-chain / master-copy resolutions performed *inside* bulk operations.
    /// A runtime that amortizes correctly performs at most one per object operand —
    /// i.e. at most `2 * bulk_ops` in total (copies have two operands), independent of
    /// slice length.
    pub bulk_master_lookups: u64,
    /// Collections whose zone spanned more than one heap — an internal node of the
    /// hierarchy plus its completed descendants (hierarchical runtime only).
    pub subtree_collections: u64,
    /// Collections run in *team mode*: helpers were drafted (jobs injected /
    /// pause-work offered) alongside the triggering thread (GC v2). Helpers are
    /// best-effort, so a busy pool may leave the trigger collecting alone even
    /// in team mode — [`RunStats::gc_steal_blocks`] measures the parallelism
    /// actually realized.
    pub gc_parallel_collections: u64,
    /// Scan blocks stolen between GC team members during parallel collections
    /// (the work-stealing traffic of the evacuation wavefront).
    pub gc_steal_blocks: u64,
    /// Longest single collection pause observed, in nanoseconds (a gauge of the
    /// worst-case latency the collector imposes; merged by max).
    pub gc_max_pause_ns: u64,
    /// Mutator-observed GC pause samples behind the percentile gauges below: one
    /// per STW collection, and one per incremental seed / safepoint drain /
    /// finalize (idle-worker drains pause no mutator and are not sampled).
    pub gc_pause_count: u64,
    /// Median mutator-observed GC pause, in nanoseconds (gauge; merged by max —
    /// snapshots cannot re-derive percentiles without the raw samples).
    pub gc_pause_p50_ns: u64,
    /// 99th-percentile mutator-observed GC pause, in nanoseconds (gauge; merged
    /// by max).
    pub gc_pause_p99_ns: u64,
    /// 99.9th-percentile mutator-observed GC pause, in nanoseconds (gauge;
    /// merged by max).
    pub gc_pause_p999_ns: u64,
    /// Bounded drain increments executed by incremental collections (safepoint
    /// ticks plus idle-worker drains; 0 unless `incremental_gc` is on).
    pub gc_increments: u64,
    /// Collections completed mutator-concurrently, i.e. incremental windows
    /// finalized (a subset of `gc_count`; 0 unless `incremental_gc` is on).
    pub gc_incremental_collections: u64,
    /// Number of chunks ever minted by the chunk store (monotone).
    pub chunks_created: u64,
    /// Times a retired chunk was reused for a new owner instead of minting a fresh
    /// one (monotone).
    pub chunks_recycled: u64,
    /// Default-sized chunk requests served from a per-thread allocation cache.
    pub alloc_cache_hits: u64,
    /// Words currently held by active chunks (gauge, at snapshot time).
    pub live_words: u64,
    /// Words currently parked on the store's free lists and allocation caches
    /// (gauge, at snapshot time).
    pub free_words: u64,
    /// Quarantined chunks moved out of quarantine (freed or released) by the
    /// epoch watermark — i.e. reclaimed because every run whose epoch could hold
    /// a stale pointer into them had ended, without waiting for global quiescence
    /// (monotone).
    pub epoch_reclaims: u64,
    /// Highest number of simultaneously active epoch-tracked runs observed
    /// (gauge of run overlap; merged by max).
    pub active_runs_peak: u64,
    /// Words currently held by quarantined chunks — retired but not yet past the
    /// reuse watermark (gauge, at snapshot time; the "watermark lag" a server
    /// pays for quiescence-free reclamation).
    pub quarantine_lag_words: u64,
}

impl RunStats {
    /// Promotion volume in bytes (words are 8 bytes).
    pub fn promoted_bytes(&self) -> u64 {
        self.promoted_words * 8
    }

    /// Peak heap occupancy in bytes.
    pub fn peak_live_bytes(&self) -> u64 {
        self.peak_live_words * 8
    }

    /// Fraction of `elapsed` spent in GC (0.0 if `elapsed` is zero).
    pub fn gc_fraction(&self, elapsed: Duration) -> f64 {
        if elapsed.is_zero() {
            0.0
        } else {
            self.gc_time.as_secs_f64() / elapsed.as_secs_f64()
        }
    }

    /// Merges another stats snapshot into this one (summing counters, taking max of peaks).
    pub fn merge(&mut self, other: &RunStats) {
        self.gc_time += other.gc_time;
        self.gc_count += other.gc_count;
        self.world_stops += other.world_stops;
        self.allocated_words += other.allocated_words;
        self.promotions += other.promotions;
        self.promoted_objects += other.promoted_objects;
        self.promoted_words += other.promoted_words;
        self.fwd_hops += other.fwd_hops;
        self.fwd_compressions += other.fwd_compressions;
        self.heaps_created += other.heaps_created;
        self.heaps_elided += other.heaps_elided;
        self.sched_steals += other.sched_steals;
        self.sched_parks += other.sched_parks;
        self.sched_wakes += other.sched_wakes;
        self.peak_live_words = self.peak_live_words.max(other.peak_live_words);
        self.gc_copied_words += other.gc_copied_words;
        self.bulk_ops += other.bulk_ops;
        self.bulk_words += other.bulk_words;
        self.bulk_master_lookups += other.bulk_master_lookups;
        self.subtree_collections += other.subtree_collections;
        self.gc_parallel_collections += other.gc_parallel_collections;
        self.gc_steal_blocks += other.gc_steal_blocks;
        self.gc_max_pause_ns = self.gc_max_pause_ns.max(other.gc_max_pause_ns);
        self.gc_pause_count += other.gc_pause_count;
        // Percentiles of merged sample sets cannot be reconstructed from two
        // summaries; keeping the worse (larger) side is the conservative bound.
        self.gc_pause_p50_ns = self.gc_pause_p50_ns.max(other.gc_pause_p50_ns);
        self.gc_pause_p99_ns = self.gc_pause_p99_ns.max(other.gc_pause_p99_ns);
        self.gc_pause_p999_ns = self.gc_pause_p999_ns.max(other.gc_pause_p999_ns);
        self.gc_increments += other.gc_increments;
        self.gc_incremental_collections += other.gc_incremental_collections;
        self.chunks_created += other.chunks_created;
        self.chunks_recycled += other.chunks_recycled;
        self.alloc_cache_hits += other.alloc_cache_hits;
        self.epoch_reclaims += other.epoch_reclaims;
        // Gauges: merged snapshots keep the larger instantaneous value, like peaks.
        self.live_words = self.live_words.max(other.live_words);
        self.free_words = self.free_words.max(other.free_words);
        self.active_runs_peak = self.active_runs_peak.max(other.active_runs_peak);
        self.quarantine_lag_words = self.quarantine_lag_words.max(other.quarantine_lag_words);
    }

    /// Fraction of chunk requests served by reuse rather than fresh minting
    /// (0.0 when no chunk was ever handed out). `chunks_created + chunks_recycled`
    /// counts every chunk the store ever handed to a heap.
    pub fn recycle_rate(&self) -> f64 {
        let total = self.chunks_created + self.chunks_recycled;
        if total == 0 {
            0.0
        } else {
            self.chunks_recycled as f64 / total as f64
        }
    }

    /// Average words per bulk operation (0.0 if no bulk operation ran) — the
    /// amortization factor the bulk API buys over scalar access.
    pub fn bulk_amortization(&self) -> f64 {
        if self.bulk_ops == 0 {
            0.0
        } else {
            self.bulk_words as f64 / self.bulk_ops as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        let s = RunStats {
            promoted_words: 10,
            peak_live_words: 3,
            ..Default::default()
        };
        assert_eq!(s.promoted_bytes(), 80);
        assert_eq!(s.peak_live_bytes(), 24);
    }

    #[test]
    fn gc_fraction_handles_zero_elapsed() {
        let s = RunStats {
            gc_time: Duration::from_millis(10),
            ..Default::default()
        };
        assert_eq!(s.gc_fraction(Duration::ZERO), 0.0);
        let f = s.gc_fraction(Duration::from_millis(100));
        assert!((f - 0.1).abs() < 1e-9);
    }

    #[test]
    fn merge_sums_and_maxes() {
        let mut a = RunStats {
            gc_count: 1,
            allocated_words: 100,
            peak_live_words: 50,
            bulk_ops: 2,
            bulk_words: 128,
            bulk_master_lookups: 2,
            promotions: 1,
            fwd_hops: 10,
            fwd_compressions: 4,
            ..Default::default()
        };
        let b = RunStats {
            gc_count: 2,
            allocated_words: 200,
            peak_live_words: 30,
            bulk_ops: 1,
            bulk_words: 64,
            bulk_master_lookups: 2,
            promotions: 2,
            fwd_hops: 5,
            fwd_compressions: 1,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.gc_count, 3);
        assert_eq!(a.allocated_words, 300);
        assert_eq!(a.peak_live_words, 50);
        assert_eq!(a.bulk_ops, 3);
        assert_eq!(a.bulk_words, 192);
        assert_eq!(a.bulk_master_lookups, 4);
        assert_eq!(a.promotions, 3);
        assert_eq!(a.fwd_hops, 15);
        assert_eq!(a.fwd_compressions, 5);
    }

    #[test]
    fn recycle_rate_counts_reuse_over_all_handouts() {
        assert_eq!(RunStats::default().recycle_rate(), 0.0);
        let s = RunStats {
            chunks_created: 6,
            chunks_recycled: 2,
            ..Default::default()
        };
        assert!((s.recycle_rate() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn merge_handles_memory_lifecycle_fields() {
        let mut a = RunStats {
            subtree_collections: 1,
            chunks_recycled: 3,
            chunks_created: 5,
            alloc_cache_hits: 7,
            live_words: 100,
            free_words: 10,
            ..Default::default()
        };
        let b = RunStats {
            subtree_collections: 2,
            chunks_recycled: 1,
            chunks_created: 2,
            alloc_cache_hits: 1,
            live_words: 50,
            free_words: 60,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.subtree_collections, 3);
        assert_eq!(a.chunks_recycled, 4);
        assert_eq!(a.chunks_created, 7);
        assert_eq!(a.alloc_cache_hits, 8);
        assert_eq!(a.live_words, 100, "gauges merge by max");
        assert_eq!(a.free_words, 60, "gauges merge by max");
    }

    #[test]
    fn merge_handles_epoch_fields() {
        let mut a = RunStats {
            epoch_reclaims: 5,
            active_runs_peak: 3,
            quarantine_lag_words: 100,
            ..Default::default()
        };
        let b = RunStats {
            epoch_reclaims: 2,
            active_runs_peak: 7,
            quarantine_lag_words: 40,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.epoch_reclaims, 7, "counter merges by sum");
        assert_eq!(a.active_runs_peak, 7, "gauges merge by max");
        assert_eq!(a.quarantine_lag_words, 100, "gauges merge by max");
    }

    #[test]
    fn bulk_amortization_is_words_per_op() {
        assert_eq!(RunStats::default().bulk_amortization(), 0.0);
        let s = RunStats {
            bulk_ops: 4,
            bulk_words: 1024,
            ..Default::default()
        };
        assert!((s.bulk_amortization() - 256.0).abs() < 1e-9);
    }

    #[test]
    fn debug_output_contains_counters() {
        let s = RunStats {
            gc_time: Duration::from_millis(5),
            gc_count: 2,
            promoted_words: 7,
            ..Default::default()
        };
        let d = format!("{s:?}");
        assert!(d.contains("promoted_words: 7"));
    }
}
