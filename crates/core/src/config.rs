//! Runtime configuration.

/// Tunables of the hierarchical-heap runtime.
#[derive(Clone, Debug)]
pub struct HhConfig {
    /// Number of scheduler worker threads.
    pub n_workers: usize,
    /// Default chunk size in words (larger objects get dedicated chunks).
    pub chunk_words: usize,
    /// A task heap whose allocation volume exceeds this many words becomes eligible for
    /// collection at the next safe point.
    pub gc_threshold_words: usize,
    /// Size of the GC team a collection runs on (GC v2 / ablation A4).
    ///
    /// `0` (the default) means "the pool size": the triggering worker plus up to
    /// `n_workers - 1` drafted helpers — parked or idle pool workers that pick up
    /// the collection's helper jobs instead of sleeping through the pause. `1`
    /// preserves the v1 single-threaded collection shape (no team, no forwarding
    /// CAS) as the A4 ablation baseline; values above the pool size are clamped.
    /// Helpers are best-effort — a busy pool contributes fewer members and the
    /// collection still completes. See DESIGN.md §9.
    pub gc_workers: usize,
    /// Cap, in words, on the chunk store's free pool (memory v2).
    ///
    /// Chunks retired by collections flow back to the allocator through size-classed
    /// free lists once they pass the reuse horizon (see DESIGN.md §5). When the free
    /// pool would exceed this many words, the excess chunks are released instead of
    /// kept for reuse, bounding the runtime's resident footprint between bursts.
    pub max_free_words: usize,
    /// Run the debug-build invariant checker (promotion v2).
    ///
    /// When enabled **and** the build has `debug_assertions`, the runtime verifies
    /// after every promotion that each freshly promoted copy is disentangled (no
    /// field points into a heap strictly deeper than the promotion target) with an
    /// acyclic forwarding chain, and after every collection that the collected zone
    /// contains no down-pointers and no forwarding cycles. Violations panic with the
    /// offending objects. Defaults to on in debug builds (so every debug `cargo
    /// test` run is checked) and compiles to nothing in release builds.
    pub check_invariants: bool,
    /// Collect owned leaf heaps incrementally, concurrent with their mutator
    /// (GC v3 / ablation A6 when off).
    ///
    /// When enabled, an owner-triggered leaf collection pauses the mutator only to
    /// evacuate its pinned roots; the mutator then resumes while the remaining live
    /// set drains in bounded increments (~one scan block each) at subsequent safe
    /// points and on idle scheduler workers. A write barrier on every mutating
    /// entry point forwards from-space objects on access, so the mutator never
    /// writes to a stale copy. The zone is retired once the wavefront is drained
    /// and in-flight barrier accesses have quiesced. Off by default (the A6
    /// ablation: monolithic stop-the-mutator collections, GC v2 shape) because the
    /// barrier costs one atomic flag load per mutating operation even when no
    /// collection is active. See DESIGN.md §11.
    pub incremental_gc: bool,
    /// Create child heaps lazily, at steal time (scheduler v2 / ablation A2).
    ///
    /// When enabled (the default), `join` does not create heaps up front: both
    /// branches of an unstolen fork run in the parent's heap — the branch that was not
    /// stolen executes sequentially on the forking worker, so this is observably the
    /// sequential execution — and a fresh child heap is created only when a thief
    /// actually takes the right branch. Skipped creations are counted in the
    /// `heaps_elided` statistic. When disabled, every fork eagerly creates two child
    /// heaps and splices them back at the join, as in the v1 runtime; the flag exists
    /// so that ablation and the promotion-machinery tests can pin the eager shape.
    pub lazy_child_heaps: bool,
}

impl HhConfig {
    /// Configuration with `n_workers` workers and default memory parameters.
    pub fn with_workers(n_workers: usize) -> Self {
        HhConfig {
            n_workers,
            ..Default::default()
        }
    }
}

impl Default for HhConfig {
    fn default() -> Self {
        HhConfig {
            n_workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            chunk_words: 8 * 1024,
            gc_threshold_words: 4 * 1024 * 1024,
            gc_workers: 0,
            max_free_words: 64 * 1024 * 1024, // 512 MiB of reusable chunk memory
            check_invariants: cfg!(debug_assertions),
            incremental_gc: false,
            lazy_child_heaps: true,
        }
    }
}

impl HhConfig {
    /// Configuration with the v1 eager per-fork child heaps (see
    /// [`HhConfig::lazy_child_heaps`]). Used by the ablation experiments and by tests
    /// that exercise the promotion machinery deterministically (an unstolen branch
    /// under the lazy policy allocates in the parent's heap, so its publishing writes
    /// are same-heap and promote nothing).
    pub fn eager_heaps(n_workers: usize) -> Self {
        HhConfig {
            n_workers,
            lazy_child_heaps: false,
            ..Default::default()
        }
    }

    /// Configuration with mutator-concurrent incremental leaf collections (GC v3,
    /// see [`HhConfig::incremental_gc`]). The default shape — monolithic
    /// stop-the-mutator collections — is the A6 ablation this contrasts with.
    pub fn incremental(n_workers: usize) -> Self {
        HhConfig {
            n_workers,
            incremental_gc: true,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = HhConfig::default();
        assert!(c.n_workers >= 1);
        assert!(c.chunk_words >= 16);
        assert!(c.gc_threshold_words > c.chunk_words);
        assert!(c.max_free_words > c.gc_threshold_words);
        assert_eq!(c.gc_workers, 0, "default GC team = pool size");
        assert!(
            !c.incremental_gc,
            "incremental collection is opt-in; the default shape is the A6 ablation"
        );
        assert!(HhConfig::incremental(2).incremental_gc);
        assert_eq!(
            c.check_invariants,
            cfg!(debug_assertions),
            "invariant checking defaults to on exactly in debug builds"
        );
    }

    #[test]
    fn with_workers_overrides_only_workers() {
        let c = HhConfig::with_workers(3);
        assert_eq!(c.n_workers, 3);
        assert_eq!(c.chunk_words, HhConfig::default().chunk_words);
    }
}
