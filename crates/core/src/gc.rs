//! Promotion-aware semispace collection of one heap of the hierarchy — **GC v2:
//! parallel, hash-free evacuation**, on the shared evacuation engine
//! ([`hh_sched::EvacEngine`], GC v3).
//!
//! The v1 collector (the paper's §3.4 / Figure 14, generalized to subtrees) was a
//! single-threaded Cheney pass whose inner loop paid a `HashSet<ChunkId>` membership
//! probe, a registry `heap_of` resolution, and a `HashMap` to-space lookup per
//! visited object while the pool's other workers sat parked. GC v2 attacks both
//! levels:
//!
//! * **Hash-free membership** — at zone assembly every chunk of the zone is stamped
//!   with an epoch-tagged *collection state* ([`hh_objmodel::ChunkGcState`]):
//!   the forward step's three-way test ("already a to-space copy?" / "outside the
//!   zone?" / "live from-space object?") collapses into **one atomic load of chunk
//!   metadata**. Epochs are drawn fresh per collection
//!   ([`hh_objmodel::ChunkStore::next_gc_epoch`]), so nothing is ever cleared and
//!   concurrent collections of disjoint heaps cannot confuse each other's tags.
//! * **Parallel evacuation** — the collection runs on a *GC team*
//!   ([`hh_sched::TeamSync`]): the triggering worker plus parked/idle pool workers
//!   drafted through [`hh_sched::Worker::run_gc_team`], sized by
//!   [`crate::HhConfig::gc_workers`]. With `gc_workers = 1` (ablation A4) no team
//!   is drafted and the forwarding install degrades to a plain store — the v1
//!   shape minus the hash probes.
//!
//! Since GC v3, the member body, span pack/steal loop, CAS forwarding race,
//! idle-termination protocol, merge and from-space retirement live in **one**
//! shared module — `hh_sched::evac` — consumed by this collector and the flat
//! baseline collector alike. This module contributes only what is hierarchical
//! about the collection: the zone is one heap, which also owns the to-space
//! ([`hh_sched::ToSpaceOwner`]: chunks owned and run-tagged by the collected heap,
//! so survivors keep their placement in the hierarchy), zone assembly (chunk
//! stamping plus the quarantine rescue walk), and the post-collection installation
//! of the heap's chunk list. A zone never spans more than one heap: a child heap
//! joins its parent when its task ends, so the heap a collector may run on has no
//! live descendant (DESIGN.md §5.3). §9 gives the full correctness argument for the
//! team protocol, §11 for the incremental mode built on the same engine.

use crate::runtime::Inner;
use hh_heaps::HeapId;
use hh_objmodel::{ChunkId, ObjPtr};
use hh_sched::{EvacEngine, ToSpaceOwner, Worker};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Instant;

impl Inner {
    /// Effective GC team size: `gc_workers` (0 = "pool size"), clamped to the pool.
    pub(crate) fn gc_team_size(&self) -> usize {
        let configured = if self.config.gc_workers == 0 {
            self.n_workers()
        } else {
            self.config.gc_workers
        };
        configured.clamp(1, self.n_workers())
    }

    /// True if the words `heap` received since its last collection warrant another
    /// at the next safe point. The one trigger of the zone collector and of the
    /// incremental window start; what the last collection retained never counts.
    pub(crate) fn should_collect(&self, heap: HeapId) -> bool {
        self.registry.heap(heap).allocated_words() >= self.config.gc_threshold_words
    }

    /// Stamps the from-space chunks `old` of the (resolved) heap `heap` for `epoch`.
    /// Shared between the synchronous and incremental collection paths; the
    /// incremental start flips the heap's list *out* first
    /// (`replace_chunks(Vec::new(), 0)`, so the resuming mutator allocates into
    /// fresh zone-outside chunks) and stamps the flipped-out list.
    ///
    /// Besides the heap's own chunk list, this runs the **rescue pass**:
    /// chunks retired by earlier collections stay readable until the reuse
    /// horizon, and a root may still point into one (an unpinned local
    /// re-pinned after the collection that retired the chunk). Their owner
    /// resolves to the heap, so stamp them from-space too — the tag-based
    /// membership test then rescues reachable objects stranded there, exactly
    /// as v1's `heap_of` resolution did. Assembly-time cost, off the per-object
    /// hot loop. The walk runs *under the quarantine lock* (`with_quarantine`):
    /// epoch reclamation frees quarantined chunks while other runs are
    /// mid-flight, so a snapshot taken outside the lock could stamp a chunk
    /// that a concurrent `reclaim_watermark` has just recycled to another run.
    /// Holding the lock pins quarantine membership for the duration of the
    /// stamping; chunks of *this* heap's run cannot become reclaimable
    /// concurrently anyway (the run is still active, so the watermark is at or
    /// below its epoch).
    pub(crate) fn stamp_chunks(&self, heap: HeapId, epoch: u64, old: &[ChunkId]) {
        let store = self.registry.store();
        for &c in old {
            store.chunk(c).set_gc_from_space(epoch);
        }
        store.with_quarantine(|quarantined| {
            for &(id, _retired_at) in quarantined {
                let chunk = store.chunk(id);
                let owner = HeapId::from_raw(chunk.owner());
                if !owner.is_none() && self.registry.resolve(owner) == heap {
                    chunk.set_gc_from_space(epoch);
                }
            }
        });
    }

    /// The to-space owner of a collection of the (resolved) heap `heap`: the
    /// heap itself, so a collection preserves each survivor's placement in the
    /// hierarchy. To-space chunks inherit the heap's run tag so that (a) the
    /// debug cross-run assertion accepts survivors and (b) when the run later
    /// disposes, its to-space chunks carry the run's own epoch stamp into
    /// quarantine instead of a conservative latest-issued stamp — under
    /// overlapping runs the conservative stamp would park them behind every
    /// younger run and visibly degrade recycling.
    pub(crate) fn to_space_owner(&self, heap: HeapId) -> ToSpaceOwner {
        let h = self.registry.heap(heap);
        ToSpaceOwner {
            raw: heap.raw(),
            run_tag: h.run_tag(),
            root: h.parent().is_none(),
        }
    }

    /// Collects the (resolved) heap `heap`, treating `roots` as the root set and
    /// rewriting each root to its new location. The caller guarantees that
    /// nothing outside the heap's ownership domain can observe it (see
    /// `HhCtx::with_quiescent_heap`), which is why no *mutator* synchronizes with
    /// the collection — exactly the independence property the paper's design is
    /// built around. (The drafted GC team members touch only the quiescent zone
    /// and its to-space.) Memory merged upward at earlier joins (now part of the
    /// heap's chunk list) is evacuated along with everything else, so it stops
    /// being immortal.
    ///
    /// `worker` is the calling task's worker, which drafts the team. See the
    /// module docs for the GC v2 structure (chunk-tag membership, the team,
    /// scan-block stealing, the CAS forwarding race — all in `hh_sched::evac` now).
    pub(crate) fn collect_heap(&self, worker: &Worker, heap: HeapId, roots: &mut [ObjPtr]) {
        // A monolithic collection requires a quiescent zone; an open incremental
        // window (necessarily of a disjoint zone, but conservatively: any) is
        // completed first so the two engines never interleave on shared store
        // structures' lifecycle (quarantine stamps, heap chunk lists).
        self.finalize_incremental_now(|_| true);
        let start = Instant::now();
        let store = Arc::clone(self.registry.store());
        let team = self.gc_team_size();
        let epoch = store.next_gc_epoch();

        // --- Zone assembly: stamp membership into chunk metadata. ----------------
        let old = self.registry.heap(heap).chunks();
        self.stamp_chunks(heap, epoch, &old);

        // --- Run the evacuation on the team. -------------------------------------
        let engine = Arc::new(EvacEngine::new(
            self.to_space_owner(heap),
            Arc::clone(&store),
            epoch,
            team,
            false,
        ));
        // The root set, rewritten in place by the trigger (slot 0). It lives in
        // a shared vector because `run_gc_team` runs the trigger through the
        // same `Fn(usize)` closure it publishes to helpers.
        let shared_roots = Arc::new(Mutex::new(roots.to_vec()));
        if team > 1 {
            let work: Arc<dyn Fn(usize) + Send + Sync> = {
                let engine = Arc::clone(&engine);
                let shared_roots = Arc::clone(&shared_roots);
                Arc::new(move |slot| {
                    if slot == 0 {
                        engine.run_trigger(|fwd| {
                            for r in shared_roots.lock().iter_mut() {
                                *r = fwd(*r);
                            }
                        });
                    } else {
                        engine.run_helper(slot);
                    }
                })
            };
            worker.run_gc_team(team - 1, work);
        } else {
            engine.run_trigger(|fwd| {
                for r in shared_roots.lock().iter_mut() {
                    *r = fwd(*r);
                }
            });
        }
        engine.await_team();
        roots.copy_from_slice(&shared_roots.lock());

        // --- Install the to-space; retire the from-space. ------------------------
        let outcome = engine.merge();
        if !outcome.chunks.is_empty() || !old.is_empty() {
            // The engine's merge already moved a partially filled bump chunk to
            // the end of the list — the heap's resume point.
            self.registry
                .heap(heap)
                .replace_chunks(outcome.chunks, outcome.occupied_words);
        }
        engine.retire_from_space(&old);

        // --- Statistics. ---------------------------------------------------------
        self.record_collection(
            team,
            outcome.steal_blocks,
            outcome.copied_words,
            start.elapsed(),
        );

        // Debug builds: re-verify disentanglement and forwarding acyclicity over the
        // just-collected heap (still quiescent — same precondition the collection
        // itself ran under). No-op in release builds.
        self.verify_heap(heap);
    }

    /// Bumps the collection counters and records the pause.
    pub(crate) fn record_collection(
        &self,
        team: usize,
        steal_blocks: u64,
        copied_words: u64,
        pause: std::time::Duration,
    ) {
        use std::sync::atomic::Ordering;
        let shard = self.shard();
        shard.gc_count.fetch_add(1, Ordering::Relaxed);
        if team > 1 {
            shard
                .gc_parallel_collections
                .fetch_add(1, Ordering::Relaxed);
        }
        if steal_blocks > 0 {
            shard
                .gc_steal_blocks
                .fetch_add(steal_blocks, Ordering::Relaxed);
        }
        shard
            .gc_copied_words
            .fetch_add(copied_words, Ordering::Relaxed);
        shard.add_gc_time(pause);
        self.counters.record_gc_pause(pause);
    }
}
