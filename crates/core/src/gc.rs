//! Promotion-aware semispace collection of a heap-hierarchy subtree — **GC v2:
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
//!   zone?" / "live from-space object, and of which heap?") collapses into **one
//!   atomic load of chunk metadata**. Epochs are drawn fresh per collection
//!   ([`hh_objmodel::ChunkStore::next_gc_epoch`]), so nothing is ever cleared and
//!   concurrent collections of disjoint subtrees cannot confuse each other's tags.
//! * **Parallel evacuation** — the collection runs on a *GC team*
//!   ([`hh_sched::TeamSync`]): the triggering worker plus parked/idle pool workers
//!   drafted through [`hh_sched::Pool::run_gc_team`], sized by
//!   [`crate::HhConfig::gc_workers`]. With `gc_workers = 1` (ablation A4) no team
//!   is drafted and the forwarding install degrades to a plain store — the v1
//!   shape minus the hash probes.
//!
//! Since GC v3, the member body, span pack/steal loop, CAS forwarding race, and
//! idle-termination protocol live in **one** shared module — `hh_sched::evac` —
//! consumed by this collector and the flat baseline collector alike. This module
//! contributes only what is hierarchical about the collection: the slot-to-heap
//! mapping (`HierZone`, one to-space per zone heap so survivors keep their
//! placement in the hierarchy), zone assembly (chunk stamping plus the quarantine
//! rescue walk), and the post-collection installation of per-heap chunk lists.
//! DESIGN.md §9 gives the full correctness argument for the team protocol, §11
//! for the incremental mode built on the same engine.

use crate::runtime::Inner;
use hh_heaps::HeapId;
use hh_objmodel::{Chunk, ChunkId, ChunkStore, Header, ObjPtr, GC_MAX_ZONE_SLOTS};
use hh_sched::{EvacEngine, EvacZone};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Instant;

/// The hierarchical slot-to-heap mapping: zone slot `i` allocates to-space
/// chunks owned (and run-tagged) by the zone's `i`-th heap, so a subtree
/// collection preserves each survivor's placement in the hierarchy.
pub(crate) struct HierZone {
    store: Arc<ChunkStore>,
    /// Raw heap id per zone slot, for tagging freshly allocated to-space chunks.
    heap_raws: Vec<u32>,
    /// Run epoch per zone slot (the heap's run tag). To-space chunks inherit it
    /// so that (a) the debug cross-run assertion accepts survivors and
    /// (b) when the run later disposes, its to-space chunks carry the run's own
    /// epoch stamp into quarantine instead of a conservative latest-issued
    /// stamp — under overlapping runs the conservative stamp would park them
    /// behind every younger run and visibly degrade recycling.
    heap_tags: Vec<u64>,
    /// Per zone slot: the heap is a root, so its to-space chunks are marked
    /// root-owned as its allocation cursors' chunks are.
    heap_roots: Vec<bool>,
}

impl HierZone {
    fn activated(&self, slot: u16, chunk: &Chunk) {
        if self.heap_roots[slot as usize] {
            chunk.set_root_owned();
        }
    }
}

impl EvacZone for HierZone {
    fn n_slots(&self) -> usize {
        self.heap_raws.len()
    }

    fn alloc_dedicated(&self, slot: u16, header: Header) -> (Arc<Chunk>, ObjPtr) {
        let (chunk, ptr) = self.store.alloc_dedicated_for_run(
            self.heap_raws[slot as usize],
            header,
            self.heap_tags[slot as usize],
        );
        self.activated(slot, &chunk);
        (chunk, ptr)
    }

    fn alloc_chunk(&self, slot: u16, min_words: usize) -> Arc<Chunk> {
        let chunk = self.store.alloc_chunk_for_run(
            self.heap_raws[slot as usize],
            min_words,
            self.heap_tags[slot as usize],
        );
        self.activated(slot, &chunk);
        chunk
    }
}

impl Inner {
    /// Effective GC team size: `gc_workers` (0 = "pool size"), clamped to the pool.
    pub(crate) fn gc_team_size(&self) -> usize {
        let configured = if self.config.gc_workers == 0 {
            self.pool.n_workers()
        } else {
            self.config.gc_workers
        };
        configured.clamp(1, self.pool.n_workers())
    }

    /// True if `heap`'s allocation volume warrants a collection at the next safe point.
    pub(crate) fn should_collect(&self, heap: HeapId) -> bool {
        self.registry.heap(heap).allocated_words() >= self.config.gc_threshold_words
    }

    /// Collects the (leaf) heap `heap_id`, treating `roots` as the root set and
    /// rewriting each root to its new location.
    ///
    /// Thanks to disentanglement no other task can hold pointers into a leaf heap, so
    /// the owning task collects it without synchronizing with any *mutator* — exactly
    /// the independence property the paper's design is built around. (The drafted GC
    /// team members touch only the quiescent zone and its to-space.) This is the
    /// degenerate (single-heap) case of [`Inner::collect_subtree`].
    pub(crate) fn collect_heap(&self, heap_id: HeapId, roots: &mut [ObjPtr]) {
        let top = self.registry.resolve(heap_id);
        self.collect_zone(vec![top], roots);
    }

    /// Collects the whole live subtree rooted at `heap_id`: the (resolved) heap
    /// itself plus every live descendant, in one promotion-aware evacuation.
    ///
    /// The live descendants are heaps created by steals whose fork has not joined
    /// yet. The caller must hold the steal gate exclusively (see
    /// `HhCtx::maybe_collect_borrowed`): that guarantees no stolen task is executing
    /// anywhere, so every such descendant's owner has already finished — the heap is
    /// merely waiting for its join splice — and the only running tasks of the subtree
    /// are the caller's own domain, whose pins form `roots`. Memory merged upward at
    /// earlier joins (now part of the internal node's chunk list) is evacuated along
    /// with everything else, so it stops being immortal.
    pub(crate) fn collect_subtree(&self, heap_id: HeapId, roots: &mut [ObjPtr]) {
        let top = self.registry.resolve(heap_id);
        let zone = self.registry.live_subtree(top);
        self.collect_zone(zone, roots);
    }

    /// Stamps the zone's chunks from-space for `epoch` and returns the per-heap
    /// old chunk lists. Shared between the synchronous and incremental
    /// collection paths.
    ///
    /// Besides the heaps' own chunk lists, this runs the **rescue pass**:
    /// chunks retired by earlier collections stay readable until the reuse
    /// horizon, and a root may still point into one (an unpinned local
    /// re-pinned after the collection that retired the chunk). Their owner
    /// resolves into the zone, so stamp them from-space too — the tag-based
    /// membership test then rescues reachable objects stranded there, exactly
    /// as v1's `heap_of` resolution did. Assembly-time cost, off the per-object
    /// hot loop. The walk runs *under the quarantine lock* (`with_quarantine`):
    /// epoch reclamation frees quarantined chunks while other runs are
    /// mid-flight, so a snapshot taken outside the lock could stamp a chunk
    /// that a concurrent `reclaim_watermark` has just recycled to another run.
    /// Holding the lock pins quarantine membership for the duration of the
    /// stamping; chunks of *this* zone's run cannot become reclaimable
    /// concurrently anyway (the run is still active, so the watermark is at or
    /// below its epoch).
    pub(crate) fn stamp_zone(
        &self,
        store: &Arc<ChunkStore>,
        zone: &[HeapId],
        epoch: u64,
    ) -> Vec<(HeapId, Vec<ChunkId>)> {
        let old_chunks: Vec<(HeapId, Vec<ChunkId>)> = zone
            .iter()
            .map(|&h| (h, self.registry.heap(h).chunks()))
            .collect();
        self.stamp_chunks(store, zone, epoch, &old_chunks);
        old_chunks
    }

    /// The stamping body of [`Inner::stamp_zone`], taking the per-heap chunk
    /// lists explicitly: the incremental start path flips each zone heap's list
    /// *out* first (`replace_chunks(Vec::new(), 0)`, so the resuming mutator
    /// allocates into fresh zone-outside chunks) and stamps the flipped-out
    /// lists, which `heap.chunks()` no longer returns.
    pub(crate) fn stamp_chunks(
        &self,
        store: &Arc<ChunkStore>,
        zone: &[HeapId],
        epoch: u64,
        old_chunks: &[(HeapId, Vec<ChunkId>)],
    ) {
        for (slot, (_, chunks)) in old_chunks.iter().enumerate() {
            for &c in chunks {
                store.chunk(c).set_gc_from_space(epoch, slot as u16);
            }
        }
        {
            let slot_of: std::collections::HashMap<HeapId, u16> = zone
                .iter()
                .enumerate()
                .map(|(i, &h)| (h, i as u16))
                .collect();
            store.with_quarantine(|quarantined| {
                for &(id, _retired_at) in quarantined {
                    let chunk = store.chunk(id);
                    let owner = HeapId::from_raw(chunk.owner());
                    if owner.is_none() || (owner.raw() as usize) >= self.registry.n_heaps() {
                        continue;
                    }
                    if let Some(&slot) = slot_of.get(&self.registry.resolve(owner)) {
                        chunk.set_gc_from_space(epoch, slot);
                    }
                }
            });
        }
    }

    /// Builds the engine's zone mapping for `zone`.
    pub(crate) fn hier_zone(&self, store: &Arc<ChunkStore>, zone: &[HeapId]) -> HierZone {
        HierZone {
            store: Arc::clone(store),
            heap_raws: zone.iter().map(|h| h.raw()).collect(),
            heap_tags: zone
                .iter()
                .map(|&h| self.registry.heap(h).run_tag())
                .collect(),
            heap_roots: zone
                .iter()
                .map(|&h| self.registry.heap(h).parent().is_none())
                .collect(),
        }
    }

    /// The shared collection body: evacuates `zone` (a set of live heaps), treating
    /// `roots` as the root set and rewriting each root to its new location. Every
    /// survivor is evacuated into a to-space owned by its own (resolved) heap, so a
    /// subtree collection preserves each survivor's placement in the hierarchy.
    ///
    /// See the module docs for the GC v2 structure (chunk-tag membership, the team,
    /// scan-block stealing, the CAS forwarding race — all in `hh_sched::evac` now).
    pub(crate) fn collect_zone(&self, zone: Vec<HeapId>, roots: &mut [ObjPtr]) {
        // A monolithic collection requires a quiescent zone; an open incremental
        // window (necessarily of a disjoint zone, but conservatively: any) is
        // completed first so the two engines never interleave on shared store
        // structures' lifecycle (quarantine stamps, heap chunk lists).
        self.finalize_incremental_now(|_| true);
        let zone_ids = if self.invariants_enabled() {
            zone.clone()
        } else {
            Vec::new()
        };
        let start = Instant::now();
        let store = Arc::clone(self.registry.store());
        let n_heaps = zone.len();
        assert!(
            n_heaps <= GC_MAX_ZONE_SLOTS,
            "collection zone exceeds the chunk tag's slot range"
        );
        let team = self.gc_team_size();
        let epoch = store.next_gc_epoch();

        // --- Zone assembly: stamp membership into chunk metadata. ----------------
        let old_chunks = self.stamp_zone(&store, &zone, epoch);

        // --- Run the evacuation on the team. -------------------------------------
        let engine = Arc::new(EvacEngine::new(
            self.hier_zone(&store, &zone),
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
            self.pool.run_gc_team(team - 1, work);
        } else {
            engine.run_trigger(|fwd| {
                for r in shared_roots.lock().iter_mut() {
                    *r = fwd(*r);
                }
            });
        }
        engine.await_team();
        roots.copy_from_slice(&shared_roots.lock());

        // --- Merge per-member to-spaces and install them. ------------------------
        let outcome = engine.merge();
        self.install_to_spaces(&store, epoch, old_chunks, outcome.per_slot);

        // --- Statistics. ---------------------------------------------------------
        self.record_collection(
            n_heaps,
            team,
            outcome.steal_blocks,
            outcome.copied_words,
            start.elapsed(),
        );

        // Debug builds: re-verify disentanglement and forwarding acyclicity over the
        // just-collected zone (the zone is still quiescent — same precondition the
        // collection itself ran under). No-op in release builds.
        self.verify_heaps(&zone_ids);
    }

    /// Installs the merged to-spaces into their heaps and retires the old
    /// from-space chunks. `epoch` is the collection's epoch: an old chunk whose
    /// tag now reads `ToSpace` was promoted in place (a dedicated large-object
    /// chunk handed over wholesale) — it is part of the installed to-space and
    /// must not be retired.
    pub(crate) fn install_to_spaces(
        &self,
        store: &Arc<ChunkStore>,
        epoch: u64,
        old_chunks: Vec<(HeapId, Vec<ChunkId>)>,
        per_slot: Vec<(Vec<ChunkId>, usize)>,
    ) {
        for ((heap, old), (chunks, words)) in old_chunks.into_iter().zip(per_slot) {
            if chunks.is_empty() {
                debug_assert_eq!(words, 0, "to-space words without to-space chunks");
                // Zero survivors. A heap that also had no from-space chunks (an
                // empty descendant swept into the zone) needs no flip at all;
                // otherwise install the empty to-space so the old chunks retire.
                if !old.is_empty() {
                    self.registry.heap(heap).replace_chunks(Vec::new(), 0);
                }
            } else {
                // The engine's merge already moved a partially filled bump chunk
                // to the end of the list — the heap's resume point.
                self.registry.heap(heap).replace_chunks(chunks, words);
            }
            // Retire the old from-space. Old chunk contents stay readable until the
            // store's reuse horizon passes (they enter the quarantine — see
            // `ChunkStore::reclaim_retired`), which keeps stale `ObjPtr` copies
            // held in Rust locals harmless — they resolve through forwarding
            // pointers on their next mutable access. See DESIGN.md §2 and §5.
            for c in old {
                if matches!(
                    store.chunk(c).gc_state(epoch),
                    hh_objmodel::ChunkGcState::ToSpace(_)
                ) {
                    continue; // promoted in place — now part of the to-space
                }
                store.retire_chunk(c);
            }
        }
    }

    /// Bumps the collection counters and records the pause.
    pub(crate) fn record_collection(
        &self,
        n_heaps: usize,
        team: usize,
        steal_blocks: u64,
        copied_words: u64,
        pause: std::time::Duration,
    ) {
        use std::sync::atomic::Ordering;
        let shard = self.shard();
        shard.gc_count.fetch_add(1, Ordering::Relaxed);
        if n_heaps > 1 {
            shard.subtree_collections.fetch_add(1, Ordering::Relaxed);
        }
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
