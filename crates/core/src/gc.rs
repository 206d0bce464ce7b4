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
//!   ([`hh_sched::TeamSync`]) of the pool's size: the triggering worker plus
//!   parked/idle pool workers drafted through [`hh_sched::Worker::run_gc_team`].
//!   A one-worker runtime drafts no team and its forwarding install degrades to a
//!   plain store — the v1 shape minus the hash probes.
//!
//! Since GC v3, the member body, span pack/steal loop, CAS forwarding race,
//! idle-termination protocol, merge and from-space retirement live in **one**
//! shared module — `hh_sched::evac` — and one synchronous driver,
//! [`hh_sched::EvacEngine::collect`], runs this collector and the flat baseline
//! collector alike: each supplies only its drafter. This module contributes only
//! what is hierarchical about the collection: the zone is one heap, which also
//! owns the to-space ([`hh_sched::ToSpaceOwner`]: chunks owned and run-tagged by
//! the collected heap, so survivors keep their placement in the hierarchy), zone
//! assembly (chunk stamping plus the quarantine rescue walk), and the
//! post-collection installation of the heap's chunk list. A zone never spans more than one heap: a child heap
//! joins its parent when its task ends, so the heap a collector may run on has no
//! live descendant (DESIGN.md §5.3). §9 gives the full correctness argument for the
//! team protocol, §11 for the incremental mode built on the same engine.

use crate::runtime::Inner;
use hh_api::Collected;
use hh_heaps::HeapId;
use hh_objmodel::{ChunkId, ObjPtr};
use hh_sched::{EvacEngine, ToSpaceOwner, Worker};
use std::time::Instant;

impl Inner {
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
    /// `worker` is the calling task's worker, which drafts the rest of the pool
    /// into the team. See the module docs for the GC v2 structure (chunk-tag
    /// membership, the team, scan-block stealing, the CAS forwarding race — all
    /// in `hh_sched::evac` now).
    pub(crate) fn collect_heap(&self, worker: &Worker, heap: HeapId, roots: &mut [ObjPtr]) {
        // A monolithic collection requires a quiescent zone; an open incremental
        // window (necessarily of a disjoint zone, but conservatively: any) is
        // completed first so the two engines never interleave on shared store
        // structures' lifecycle (quarantine stamps, heap chunk lists).
        self.finalize_incremental_now(|_| true);
        let start = Instant::now();
        let store = self.registry.store();
        let members = self.n_workers();
        let epoch = store.next_gc_epoch();
        let old = self.registry.heap(heap).chunks();
        self.stamp_chunks(heap, epoch, &old);
        let outcome = EvacEngine::collect(
            self.to_space_owner(heap),
            store,
            epoch,
            members,
            &old,
            |work| worker.run_gc_team(members - 1, work),
            |fwd| roots.iter_mut().for_each(|r| *r = fwd(*r)),
        );
        let (copied, steals) = (outcome.copied_words, outcome.steal_blocks);
        if !outcome.chunks.is_empty() || !old.is_empty() {
            // The engine's merge already moved a partially filled bump chunk to
            // the end of the list — the heap's resume point.
            self.registry
                .heap(heap)
                .replace_chunks(outcome.chunks, outcome.occupied_words);
        }
        let how = Collected::Pause {
            members,
            pause: start.elapsed(),
        };
        self.counters
            .record_collection(self.shard(), how, copied, steals);

        // Debug builds: re-verify disentanglement and forwarding acyclicity over the
        // just-collected heap (still quiescent — same precondition the collection
        // itself ran under). No-op in release builds.
        self.verify_heap(heap);
    }
}
