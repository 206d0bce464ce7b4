//! Runtime configuration.

/// Tunables of the hierarchical-heap runtime.
#[derive(Clone, Debug)]
pub struct HhConfig {
    /// Number of scheduler worker threads.
    pub n_workers: usize,
    /// Default chunk size in words (larger objects get dedicated chunks).
    pub chunk_words: usize,
    /// A task heap becomes eligible for collection at the next safe point once it
    /// has received this many words since its last collection: allocated by its
    /// tasks, promoted into it, or brought in by joined children. The words a
    /// collection retained never count, so a heap whose live data exceeds the
    /// threshold is collected once per threshold of new words, not at every safe
    /// point. See DESIGN.md §6.8.
    pub gc_threshold_words: usize,
    /// Run the debug-build invariant checker (promotion v2).
    ///
    /// When the build has `debug_assertions`, the runtime verifies after every
    /// promotion that each freshly promoted copy is disentangled (no field points
    /// into a heap strictly deeper than the promotion target) with an acyclic
    /// forwarding chain, and after every collection that the collected zone contains
    /// no down-pointers and no forwarding cycles. Violations panic with the
    /// offending objects. The default is on in debug builds, so every debug `cargo
    /// test` run is checked; `false` switches it off there (for a timing run).
    /// Release builds compile the checker out whatever this says.
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
    /// `heaps_elided` statistic. When disabled, every branch of every fork runs in a
    /// child heap of its own, as in the v1 runtime; the flag exists so that ablation
    /// and the promotion-machinery tests can pin the eager shape. Either way, a child
    /// heap joins its parent when its branch ends.
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
