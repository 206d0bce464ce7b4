//! Run statistics reported by every runtime, declared once.
//!
//! The one `run_stats!` declaration below lists every [`RunStats`] field with
//! its merge rule. From it come the struct, [`RunStats::merge`], the per-worker
//! [`CounterShard`] (one atomic per counted field) and the part of
//! [`Counters::snapshot`] that sums the shards and reads the chunk store and the
//! pause recorder. Adding a counter touches that declaration and the sites that
//! increment it, for the hierarchical runtime and the baselines alike.

use crate::counters::Counters;
use crate::latency::LatencySummary;
use hh_objmodel::StoreStats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A [`RunStats`] value read as a count: a `u64` as is, a `Duration` in
/// nanoseconds (the unit its shard counter accumulates).
trait Count {
    fn from_count(n: u64) -> Self;
    #[cfg(test)]
    fn as_count(&self) -> u64;
}

impl Count for u64 {
    fn from_count(n: u64) -> u64 {
        n
    }
    #[cfg(test)]
    fn as_count(&self) -> u64 {
        *self
    }
}

impl Count for Duration {
    fn from_count(n: u64) -> Duration {
        Duration::from_nanos(n)
    }
    #[cfg(test)]
    fn as_count(&self) -> u64 {
        self.as_nanos() as u64
    }
}

/// Generates [`RunStats`], its `merge`, [`CounterShard`] and the snapshot body
/// from one field list.
///
/// * `counted` fields are per-worker shard counters: the snapshot sums the
///   shards, and `merge` sums.
/// * `sampled` fields are read at snapshot time — from the chunk store
///   (`store.<field>`), from the pause recorder (`pauses.<field>`), or left at
///   zero for the runtime's `overlay` of scheduler counters — and name their
///   merge rule: `sum` for counts, `max` for gauges and peaks.
macro_rules! run_stats {
    (
        counted {
            $( $(#[$cdoc:meta])* $counted:ident: $cty:ty, )*
        }
        sampled {
            $( $(#[$sdoc:meta])* $rule:ident $sampled:ident: $sty:ty = $src:ident $(. $from:ident)?, )*
        }
    ) => {
        /// Counters accumulated by a runtime over one benchmark run.
        ///
        /// These are the quantities the paper's evaluation reports: GC time (the
        /// `GC_s` / `GC_72` columns of Figures 10–11), promotion volume (the §4.4
        /// Manticore comparison), and peak heap occupancy (the memory consumption
        /// of Figure 13).
        #[derive(Clone, Debug, Default)]
        pub struct RunStats {
            $( $(#[$cdoc])* pub $counted: $cty, )*
            $( $(#[$sdoc])* pub $sampled: $sty, )*
        }

        /// One worker's counters: an atomic per counted [`RunStats`] field (see
        /// [`Counters`]). 128-byte alignment keeps each shard off its neighbours'
        /// cache lines, including the adjacent line that the hardware prefetcher
        /// pulls in pairs.
        #[derive(Default, Debug)]
        #[repr(align(128))]
        pub struct CounterShard {
            $( $(#[$cdoc])* pub $counted: AtomicU64, )*
        }

        impl CounterShard {
            pub(crate) fn reset(&self) {
                $( self.$counted.store(0, Ordering::Relaxed); )*
            }
        }

        impl RunStats {
            /// Merges another snapshot into this one, each field by its declared
            /// rule: counts sum, gauges and peaks keep the larger side.
            pub fn merge(&mut self, other: &RunStats) {
                $( self.$counted += other.$counted; )*
                $( run_stats!(@merge $rule self.$sampled, other.$sampled); )*
            }

            /// The snapshot of `counters`, the chunk store's `store` accounting
            /// and the GC `pauses` summary; overlaid fields read zero.
            pub(crate) fn from_parts(
                counters: &Counters,
                store: &StoreStats,
                pauses: &LatencySummary,
            ) -> RunStats {
                RunStats {
                    $( $counted: Count::from_count(counters.total(|s| &s.$counted)), )*
                    $( $sampled: run_stats!(@read store pauses $src $(. $from)?), )*
                }
            }
        }

        #[cfg(test)]
        impl RunStats {
            /// Every field in declaration order: name, merge rule, value as a count.
            fn walk(&self) -> Vec<(&'static str, &'static str, u64)> {
                vec![
                    $( (stringify!($counted), "sum", self.$counted.as_count()), )*
                    $( (stringify!($sampled), stringify!($rule), self.$sampled.as_count()), )*
                ]
            }

            /// A snapshot whose fields take successive values of `next`, in
            /// declaration order.
            fn numbered(mut next: impl FnMut() -> u64) -> RunStats {
                RunStats {
                    $( $counted: Count::from_count(next()), )*
                    $( $sampled: Count::from_count(next()), )*
                }
            }
        }
    };
    (@merge sum $a:expr, $b:expr) => { $a += $b };
    (@merge max $a:expr, $b:expr) => { $a = $a.max($b) };
    (@read $store:ident $pauses:ident store . $f:ident) => { $store.$f as u64 };
    (@read $store:ident $pauses:ident pauses . $f:ident) => { $pauses.$f };
    (@read $store:ident $pauses:ident overlay) => { 0 };
}

run_stats! {
    counted {
        /// Wall-clock time spent inside garbage collections, summed over all workers.
        gc_time: Duration,
        /// Number of garbage collections performed.
        gc_count: u64,
        /// Number of stop-the-world pauses (baselines only; 0 for the hierarchical runtime).
        world_stops: u64,
        /// Total words allocated by mutators.
        allocated_words: u64,
        /// Number of batched promotion passes performed (one per pointer write that had
        /// to evacuate a closure; the DLG baseline counts its transitive
        /// promote-to-global passes here).
        promotions: u64,
        /// Number of objects copied by promotions.
        promoted_objects: u64,
        /// Total words copied by promotions.
        promoted_words: u64,
        /// Forwarding-pointer hops walked while resolving master copies (`findMaster` on
        /// the hierarchical runtime, the forwarding barrier on the baselines). With path
        /// compression enabled this stays close to the number of resolutions.
        fwd_hops: u64,
        /// Forwarding-chain hops short-cut by path compression: after a resolution walks
        /// a chain of length ≥ 2, every intermediate hop is CAS-redirected to the master
        /// so the amortized resolution cost is O(1).
        fwd_compressions: u64,
        /// Number of heaps created (hierarchical runtime) or local heaps (DLG baseline).
        heaps_created: u64,
        /// Heap creations skipped by the lazy steal-time heap policy: an unstolen branch
        /// runs in its parent's heap, eliding the child heap and its join splice
        /// (hierarchical runtime only; 0 elsewhere).
        heaps_elided: u64,
        /// Successful work steals observed by the scheduler. Resettable on the
        /// hierarchical runtime (fed by the on-steal hook); pool-lifetime on the baselines.
        sched_steals: u64,
        /// Words copied by garbage collections (survivors).
        gc_copied_words: u64,
        /// Number of bulk field operations (`read_imm_bulk`, `read_mut_bulk`,
        /// `write_nonptr_bulk`, `fill_nonptr`, `copy_nonptr`) executed.
        bulk_ops: u64,
        /// Total words moved by bulk field operations.
        bulk_words: u64,
        /// Forwarding-chain / master-copy resolutions performed *inside* bulk operations.
        /// A runtime that amortizes correctly performs at most one per object operand —
        /// i.e. at most `2 * bulk_ops` in total (copies have two operands), independent of
        /// slice length.
        bulk_master_lookups: u64,
        /// Collections whose zone spanned more than one heap — an internal node of the
        /// hierarchy plus its completed descendants (hierarchical runtime only).
        subtree_collections: u64,
        /// Collections run in *team mode*: helpers were drafted (jobs injected /
        /// pause-work offered) alongside the triggering thread (GC v2). Helpers are
        /// best-effort, so a busy pool may leave the trigger collecting alone even
        /// in team mode — [`RunStats::gc_steal_blocks`] measures the parallelism
        /// actually realized.
        gc_parallel_collections: u64,
        /// Scan blocks stolen between GC team members during parallel collections
        /// (the work-stealing traffic of the evacuation wavefront).
        gc_steal_blocks: u64,
        /// Bounded drain increments executed by incremental collections (safepoint
        /// ticks plus idle-worker drains; 0 unless `incremental_gc` is on).
        gc_increments: u64,
        /// Collections completed mutator-concurrently, i.e. incremental windows
        /// finalized (a subset of `gc_count`; 0 unless `incremental_gc` is on).
        gc_incremental_collections: u64,
        /// Lock-path scratch buffers allocated (or grown) by the hierarchical
        /// runtime's promotion machinery. Stays flat after warm-up: `write_promote`
        /// reuses one buffer set per worker instead of allocating per promotion.
        promo_buf_allocs: u64,
        /// Runs that ended by unwind (panic, cooperative abort, or injected fault)
        /// rather than by returning; the hierarchical runtime's teardown guard
        /// completed their epoch end.
        runs_aborted: u64,
        /// Incremental finalizes completed by the unwind guard after a schedule
        /// hook panicked mid-finalize (the injected-crash recovery path).
        gc_finalize_rescues: u64,
        /// Panics raised inside `end_run`'s hook-bearing teardown prefix while the
        /// thread was already unwinding a prior panic: contained (counted, not
        /// propagated, which would double-panic) after the unconditional teardown
        /// tail still ran. Expected under fault injection; with hooks uninstalled,
        /// a nonzero value indicates a teardown-path bug.
        teardown_panics: u64,
    }
    sampled {
        /// Times a scheduler worker parked while idle (pool-lifetime counter).
        sum sched_parks: u64 = overlay,
        /// Wakeups delivered to parked scheduler workers (pool-lifetime counter).
        sum sched_wakes: u64 = overlay,
        /// Peak number of live words held in chunks at any point of the run.
        max peak_live_words: u64 = store.peak_words,
        /// Longest single collection pause observed, in nanoseconds (a gauge of the
        /// worst-case latency the collector imposes).
        max gc_max_pause_ns: u64 = pauses.max_ns,
        /// Mutator-observed GC pause samples behind the percentile gauges below: one
        /// per STW collection, and one per incremental seed / safepoint drain /
        /// finalize (idle-worker drains pause no mutator and are not sampled).
        sum gc_pause_count: u64 = pauses.count,
        /// Median mutator-observed GC pause, in nanoseconds. Percentiles of merged
        /// sample sets cannot be rebuilt from two summaries, so merging keeps the
        /// worse (larger) side.
        max gc_pause_p50_ns: u64 = pauses.p50_ns,
        /// 99th-percentile mutator-observed GC pause, in nanoseconds.
        max gc_pause_p99_ns: u64 = pauses.p99_ns,
        /// 99.9th-percentile mutator-observed GC pause, in nanoseconds.
        max gc_pause_p999_ns: u64 = pauses.p999_ns,
        /// Number of chunks ever minted by the chunk store (monotone).
        sum chunks_created: u64 = store.chunks_created,
        /// Times a retired chunk was reused for a new owner instead of minting a fresh
        /// one (monotone).
        sum chunks_recycled: u64 = store.chunks_recycled,
        /// Default-sized chunk requests served from a per-thread allocation cache.
        sum alloc_cache_hits: u64 = store.alloc_cache_hits,
        /// Words currently held by active chunks (gauge, at snapshot time).
        max live_words: u64 = store.live_words,
        /// Words currently parked on the store's free lists and allocation caches
        /// (gauge, at snapshot time).
        max free_words: u64 = store.free_words,
        /// Quarantined chunks moved out of quarantine (freed or released) by the
        /// epoch watermark — i.e. reclaimed because every run whose epoch could hold
        /// a stale pointer into them had ended, without waiting for global quiescence
        /// (monotone).
        sum epoch_reclaims: u64 = store.epoch_reclaims,
        /// Highest number of simultaneously active epoch-tracked runs observed
        /// (gauge of run overlap).
        max active_runs_peak: u64 = store.active_runs_peak,
        /// Words currently held by quarantined chunks — retired but not yet past the
        /// reuse watermark (gauge, at snapshot time; the "watermark lag" a server
        /// pays for quiescence-free reclamation).
        max quarantine_lag_words: u64 = store.quarantined_words,
    }
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

    /// Walks the declaration: every field gets a distinct value on both sides,
    /// the larger one on alternating sides, so a sum, a max, and a rule that
    /// keeps either side all tell apart. The gauge list is written out here, not
    /// read from the declaration, so flipping a declared rule fails the test.
    #[test]
    fn merge_sums_and_maxes() {
        const GAUGES: [&str; 9] = [
            "peak_live_words",
            "gc_max_pause_ns",
            "gc_pause_p50_ns",
            "gc_pause_p99_ns",
            "gc_pause_p999_ns",
            "live_words",
            "free_words",
            "active_runs_peak",
            "quarantine_lag_words",
        ];
        let mut i = 0;
        let a = RunStats::numbered(|| {
            i += 1;
            10 * i
        });
        let mut j = 0;
        let b = RunStats::numbered(|| {
            j += 1;
            if j % 2 == 0 {
                1000 * j
            } else {
                j
            }
        });
        let mut merged = a.clone();
        merged.merge(&b);
        let (a, b, merged) = (a.walk(), b.walk(), merged.walk());
        for ((&(name, rule, x), &(_, _, y)), &(_, _, m)) in a.iter().zip(&b).zip(&merged) {
            let gauge = GAUGES.contains(&name);
            assert_eq!(
                rule,
                if gauge { "max" } else { "sum" },
                "{name}: declared rule"
            );
            assert_eq!(
                m,
                if gauge { x.max(y) } else { x + y },
                "{name}: merged value"
            );
        }
        for gauge in GAUGES {
            assert!(a.iter().any(|f| f.0 == gauge), "{gauge} is not a field");
        }
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
