//! Shared machinery for the baseline runtimes: flat heaps over the chunk store, the
//! forwarding-resolution read barrier, root registries, and a plain semispace collector.

use hh_api::CounterShard;
use hh_objmodel::{Chunk, ChunkId, ChunkStore, Header, ObjPtr};
use hh_sched::{EvacEngine, EvacZone, Safepoints};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Raw owner id used for the shared global heap of the parallel baselines.
pub const OWNER_GLOBAL: u32 = u32::MAX - 1;

/// A flat (non-hierarchical) heap: a bag of chunks with one allocation cursor per lane.
///
/// Lanes give the parallel baselines per-worker allocation buffers (the paper's
/// `mlton-spoonhower` supports parallel allocation) while keeping a single logical heap
/// that is collected as a whole.
pub struct FlatHeap {
    store: Arc<ChunkStore>,
    owner_raw: u32,
    lanes: Vec<Mutex<Option<ChunkId>>>,
    chunks: Mutex<Vec<ChunkId>>,
    allocated_words: AtomicUsize,
}

impl FlatHeap {
    /// Creates a flat heap with `lanes` independent allocation cursors.
    pub fn new(store: Arc<ChunkStore>, owner_raw: u32, lanes: usize) -> FlatHeap {
        FlatHeap {
            store,
            owner_raw,
            lanes: (0..lanes.max(1)).map(|_| Mutex::new(None)).collect(),
            chunks: Mutex::new(Vec::new()),
            allocated_words: AtomicUsize::new(0),
        }
    }

    /// Words allocated since creation or the last [`FlatHeap::replace_chunks`].
    #[inline]
    pub fn allocated_words(&self) -> usize {
        self.allocated_words.load(Ordering::Relaxed)
    }

    /// Allocates an object in lane `lane`.
    ///
    /// Objects larger than the store's default chunk size get a dedicated chunk
    /// without displacing the lane's current bump chunk, so a large-object detour
    /// does not abandon the partially filled chunk that subsequent small objects
    /// still fit in.
    pub fn alloc(&self, lane: usize, header: Header) -> ObjPtr {
        let lane = lane % self.lanes.len();
        let size = header.size_words();
        let mut cur = self.lanes[lane].lock();
        if self.store.needs_dedicated_chunk(header) {
            let (chunk, ptr) = self.store.alloc_dedicated(self.owner_raw, header);
            self.chunks.lock().push(chunk.id());
            self.allocated_words.fetch_add(size, Ordering::Relaxed);
            return ptr;
        }
        if let Some(id) = *cur {
            let chunk = self.store.chunk(id);
            if let Some(ptr) = self.store.alloc_in_chunk(chunk, header) {
                self.allocated_words.fetch_add(size, Ordering::Relaxed);
                return ptr;
            }
        }
        let chunk = self.store.alloc_chunk(self.owner_raw, size);
        let ptr = self
            .store
            .alloc_in_chunk(&chunk, header)
            .expect("fresh chunk too small");
        *cur = Some(chunk.id());
        self.chunks.lock().push(chunk.id());
        self.allocated_words.fetch_add(size, Ordering::Relaxed);
        ptr
    }

    /// Snapshot of every chunk currently belonging to this heap.
    pub fn chunks(&self) -> Vec<ChunkId> {
        self.chunks.lock().clone()
    }

    /// Replaces the chunk list after a collection and resets all allocation cursors.
    /// Returns the old chunk list.
    pub fn replace_chunks(&self, new_chunks: Vec<ChunkId>, new_words: usize) -> Vec<ChunkId> {
        let mut chunks = self.chunks.lock();
        let old = std::mem::replace(&mut *chunks, new_chunks);
        for lane in &self.lanes {
            *lane.lock() = None;
        }
        self.allocated_words.store(new_words, Ordering::Relaxed);
        old
    }

    /// Retires every chunk of this heap and resets its allocation state. Used by the
    /// runtimes to dispose of a completed run's memory before recycling (memory v2).
    pub fn dispose(&self) {
        for c in self.replace_chunks(Vec::new(), 0) {
            self.store.retire_chunk(c);
        }
    }
}

/// Run-boundary bookkeeping shared by the baseline runtimes (memory v2).
///
/// The flat heaps of a completed run are unreachable once `run` has returned, but
/// stale `ObjPtr`s in that run's Rust locals resolved through forwarding until then —
/// so disposal (retire + reclaim into the store's free lists) happens at the *next*
/// run start, and only once no other run is active — the global reuse horizon
/// `HhRuntime` replaced with per-run epochs; see DESIGN.md §5.
#[derive(Default)]
pub struct RunEpoch {
    state: Mutex<EpochState>,
}

#[derive(Default)]
struct EpochState {
    /// Number of `run` calls currently executing.
    active: usize,
    /// True once at least one run has completed since the last disposal.
    completed: bool,
}

impl RunEpoch {
    /// Marks a run as starting. If no other run is active and a previous run has
    /// completed, `dispose` runs first — the runtime retires its heaps' chunks and
    /// reclaims the store's quarantine there. The returned guard marks the run as
    /// completed when dropped, so a panicking run closure cannot leave the epoch
    /// permanently active (which would disable recycling for good).
    #[must_use = "dropping the guard ends the run"]
    pub fn begin(&self, dispose: impl FnOnce()) -> RunEpochGuard<'_> {
        let mut st = self.state.lock();
        if st.active == 0 && st.completed {
            dispose();
            st.completed = false;
        }
        st.active += 1;
        RunEpochGuard { epoch: self }
    }
}

/// Ends a run on drop; see [`RunEpoch::begin`].
pub struct RunEpochGuard<'a> {
    epoch: &'a RunEpoch,
}

impl Drop for RunEpochGuard<'_> {
    fn drop(&mut self) {
        let mut st = self.epoch.state.lock();
        st.active -= 1;
        st.completed = true;
    }
}

/// Registers one baseline `run` with the chunk store's epoch registry
/// ([`hh_objmodel::RunEpochs`]) for its duration.
///
/// The baselines keep the quiescent full-dispose policy above (their flat heaps are
/// shared across runs, so per-run disposal does not apply), but registering the run
/// buys two things under overlapping load: the store's `active_runs_peak` gauge
/// reports the overlap `serve` actually achieved, and dropping the guard advances
/// the min-active-epoch watermark and drains the eligible quarantine — so chunks
/// retired by *mid-run collections* recycle as soon as every run alive at their
/// retirement has ended, instead of waiting for global quiescence. (Baseline
/// allocations are untagged, so retirees carry the conservative latest-issued
/// stamp; see `ChunkStore::retire_chunk`.)
pub struct StoreEpochGuard<'a> {
    store: &'a ChunkStore,
    epoch: u64,
}

impl<'a> StoreEpochGuard<'a> {
    /// Draws a fresh run epoch from `store`'s registry.
    #[must_use = "dropping the guard ends the run's epoch"]
    pub fn begin(store: &'a ChunkStore) -> StoreEpochGuard<'a> {
        let epoch = store.run_epochs().begin();
        StoreEpochGuard { store, epoch }
    }
}

impl Drop for StoreEpochGuard<'_> {
    fn drop(&mut self) {
        self.store.run_epochs().end(self.epoch);
        self.store.reclaim_watermark();
    }
}

/// Follows an object's forwarding chain to its newest copy, counting the hops.
///
/// The baselines install forwarding pointers in two situations — semispace collection
/// and (for the DLG design) promotion to the global heap — and every mutable access
/// resolves through this barrier so that stale pointers held in Rust locals stay
/// correct. This is the moral equivalent of the read barrier the MultiMLton work
/// worries about (§6 of the paper); its cost is one predictable branch per access.
/// Unlike the plain walk [`ChunkStore::resolve_fwd`], it **path-compresses** chains
/// of two or more hops via [`ChunkStore::compress_fwd_chain`], so the amortized barrier
/// cost stays O(1) for objects that have been copied many times (promotion v2
/// counter parity with the hierarchical runtime; the lock-freedom argument lives on
/// that method and `ObjView::compress_fwd`).
#[inline]
pub fn resolve_tracked(store: &ChunkStore, counters: &CounterShard, obj: ObjPtr) -> ObjPtr {
    let mut cur = obj;
    let mut hops = 0u64;
    loop {
        let v = store.view(cur);
        if !v.has_fwd() {
            break;
        }
        cur = v.fwd();
        hops += 1;
    }
    if hops > 0 {
        counters.fwd_hops.fetch_add(hops, Ordering::Relaxed);
        if hops >= 2 {
            let done = store.compress_fwd_chain(obj, cur);
            if done > 0 {
                counters.fwd_compressions.fetch_add(done, Ordering::Relaxed);
            }
        }
    }
    cur
}

/// As [`resolve_tracked`], but also counts the resolution in the bulk-operation
/// statistics.
///
/// Every baseline bulk operation resolves forwarding through this wrapper, so the
/// `bulk_master_lookups` counter is a measurement: if an implementation regressed to
/// per-element resolution, the counter would expose it.
#[inline]
pub fn resolve_counted(store: &ChunkStore, counters: &CounterShard, obj: ObjPtr) -> ObjPtr {
    counters.bulk_master_lookups.fetch_add(1, Ordering::Relaxed);
    resolve_tracked(store, counters, obj)
}

/// A registry of per-task shadow stacks, so a collector can find every root.
#[derive(Default)]
pub struct RootRegistry {
    next_id: AtomicU64,
    sets: Mutex<HashMap<u64, Arc<Mutex<Vec<ObjPtr>>>>>,
}

impl RootRegistry {
    /// Registers a new task's root set and returns its id plus the shared vector.
    pub fn register(&self) -> (u64, Arc<Mutex<Vec<ObjPtr>>>) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let set = Arc::new(Mutex::new(Vec::new()));
        self.sets.lock().insert(id, Arc::clone(&set));
        (id, set)
    }

    /// Removes a task's root set.
    pub fn unregister(&self, id: u64) {
        self.sets.lock().remove(&id);
    }

    /// Applies `f` to every registered root slot (used by collectors to trace and
    /// rewrite roots). The world must be stopped while this runs.
    pub fn for_each_root_mut(&self, mut f: impl FnMut(&mut ObjPtr)) {
        let sets = self.sets.lock();
        for set in sets.values() {
            let mut roots = set.lock();
            for r in roots.iter_mut() {
                f(r);
            }
        }
    }
}

/// Result of a semispace collection.
pub struct CollectOutcome {
    /// Chunks of the new from-space (the to-space that was just filled).
    pub new_chunks: Vec<ChunkId>,
    /// Words of live data copied (survivors; excludes evacuation-race waste).
    pub copied_words: usize,
    /// Words occupying the to-space (survivors plus race-loser fillers) — what the
    /// heap's allocation volume should restart from.
    pub occupied_words: usize,
    /// Scan blocks stolen between team members (0 for a solo collection).
    pub steal_blocks: u64,
}

/// The flat slot-to-heap mapping for the shared evacuation engine
/// ([`hh_sched::EvacEngine`], GC v3): a single zone slot backed by one owner's
/// to-space. The member body, span pack/steal loop, CAS forwarding race, and
/// idle-termination protocol all live in `hh_sched::evac` — shared verbatim
/// with the hierarchical collector, so a protocol fix lands in both at once.
struct FlatZone {
    store: Arc<ChunkStore>,
    owner_raw: u32,
}

impl EvacZone for FlatZone {
    fn n_slots(&self) -> usize {
        1
    }

    fn alloc_dedicated(&self, _slot: u16, header: Header) -> (Arc<Chunk>, ObjPtr) {
        self.store.alloc_dedicated(self.owner_raw, header)
    }

    fn alloc_chunk(&self, _slot: u16, min_words: usize) -> Arc<Chunk> {
        self.store.alloc_chunk(self.owner_raw, min_words)
    }
}

/// A plain (non-hierarchical) semispace collection over an explicit zone,
/// optionally run on a **GC team** (GC v2): `draft = Some((safepoints, helpers))`
/// offers the collection to up to `helpers` threads parked at the safepoint — the
/// stop-the-world baselines' workers stop sleeping through the pause and collect
/// instead, with the same evacuation engine as the hierarchical collector. `None`
/// is a solo collection by the calling thread.
///
/// `zone` is the set of chunks being evacuated; objects outside it are left alone
/// (membership is decided by epoch-tagged chunk metadata, not hash sets). Roots are
/// rewritten in place via `registry`. The caller must have stopped the world;
/// drafted helpers are parked mutators, so they are quiescent by construction.
///
/// The trigger is **pre-registered** at engine construction — before the
/// pause-work offer is published — and non-idle throughout seeding, so a
/// drafted helper that joins first and finds no work can never observe an
/// all-idle team and finish the collection before the roots have seeded the
/// wavefront (the PR-5 race, now guarded in exactly one place:
/// `hh_sched::evac`).
pub fn par_semispace_collect(
    store: &Arc<ChunkStore>,
    owner_raw: u32,
    zone: &[ChunkId],
    registry: &RootRegistry,
    draft: Option<(&Safepoints, usize)>,
) -> CollectOutcome {
    let epoch = store.next_gc_epoch();
    for &c in zone {
        store.chunk(c).set_gc_from_space(epoch, 0);
    }
    let team = 1 + draft.map_or(0, |(_, helpers)| helpers);
    let engine = Arc::new(EvacEngine::new(
        FlatZone {
            store: Arc::clone(store),
            owner_raw,
        },
        Arc::clone(store),
        epoch,
        team,
        false,
    ));
    // Slot assignment for drafted helpers (slot 0 is the triggering thread).
    let next_slot = Arc::new(AtomicUsize::new(1));
    let drafted = match draft {
        Some((safepoints, helpers)) if helpers > 0 => {
            let offer_engine = Arc::clone(&engine);
            let offer_slot = Arc::clone(&next_slot);
            safepoints.begin_pause_work(Arc::new(move || {
                let slot = offer_slot.fetch_add(1, Ordering::Relaxed);
                offer_engine.run_helper(slot);
            }));
            Some(safepoints)
        }
        _ => None,
    };
    engine.run_trigger(|fwd| {
        registry.for_each_root_mut(|r| *r = fwd(*r));
    });
    engine.await_team();
    if let Some(safepoints) = drafted {
        safepoints.end_pause_work();
    }
    let outcome = engine.merge();
    for c in zone {
        // A zone chunk whose tag now reads `ToSpace` held one large object and
        // was promoted in place — it is part of `new_chunks`, not garbage.
        if matches!(
            store.chunk(*c).gc_state(epoch),
            hh_objmodel::ChunkGcState::ToSpace(_)
        ) {
            continue;
        }
        store.retire_chunk(*c);
    }
    let (new_chunks, occupied_words) = outcome
        .per_slot
        .into_iter()
        .next()
        .expect("flat zone has exactly one slot");
    CollectOutcome {
        new_chunks,
        copied_words: outcome.copied_words as usize,
        occupied_words,
        steal_blocks: outcome.steal_blocks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hh_objmodel::ObjKind;

    fn setup() -> (Arc<ChunkStore>, FlatHeap) {
        let store = Arc::new(ChunkStore::new(256));
        let heap = FlatHeap::new(Arc::clone(&store), OWNER_GLOBAL, 2);
        (store, heap)
    }

    #[test]
    fn flat_heap_allocates_across_lanes() {
        let (store, heap) = setup();
        let h = Header::new(3, 0, ObjKind::Tuple);
        let a = heap.alloc(0, h);
        let b = heap.alloc(1, h);
        assert_ne!(a, b);
        assert_eq!(store.view(a).n_fields(), 3);
        assert_eq!(heap.allocated_words(), 2 * h.size_words());
        assert!(!heap.chunks().is_empty());
    }

    #[test]
    fn resolve_tracked_counts_hops_and_compresses_long_chains() {
        use std::sync::atomic::Ordering;
        let (store, heap) = setup();
        let h = Header::new(1, 0, ObjKind::Ref);
        let a = heap.alloc(0, h);
        let b = heap.alloc(0, h);
        let c = heap.alloc(0, h);
        store.view(a).set_fwd(b);
        store.view(b).set_fwd(c);
        let counters = CounterShard::default();
        assert_eq!(resolve_tracked(&store, &counters, a), c);
        assert_eq!(counters.fwd_hops.load(Ordering::Relaxed), 2);
        assert_eq!(counters.fwd_compressions.load(Ordering::Relaxed), 1);
        // The chain was short-cut: a now points straight at c…
        assert_eq!(store.view(a).fwd(), c);
        // …so the next resolution walks a single hop and compresses nothing.
        assert_eq!(resolve_tracked(&store, &counters, a), c);
        assert_eq!(counters.fwd_hops.load(Ordering::Relaxed), 3);
        assert_eq!(counters.fwd_compressions.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn root_registry_registers_and_iterates() {
        let reg = RootRegistry::default();
        let count = |reg: &RootRegistry| {
            let mut seen = 0;
            reg.for_each_root_mut(|_| seen += 1);
            seen
        };
        assert_eq!(count(&reg), 0);
        let (id1, set1) = reg.register();
        let (_id2, set2) = reg.register();
        set1.lock().push(ObjPtr::new(hh_objmodel::ChunkId(0), 4));
        set2.lock().push(ObjPtr::new(hh_objmodel::ChunkId(1), 8));
        assert_eq!(count(&reg), 2);
        reg.unregister(id1);
        assert_eq!(count(&reg), 1);
    }

    #[test]
    fn semispace_collect_preserves_rooted_graph_and_drops_garbage() {
        let (store, heap) = setup();
        // Build: root cons-list of 5 cells, plus 100 garbage arrays.
        let mut list = ObjPtr::NULL;
        for i in 0..5u64 {
            let cell = heap.alloc(0, Header::new(3, 2, ObjKind::Cons));
            let v = store.view(cell);
            v.set_field_ptr(0, ObjPtr::NULL);
            v.set_field_ptr(1, list);
            v.set_field(2, i);
            list = cell;
        }
        for _ in 0..100 {
            heap.alloc(0, Header::new(50, 0, ObjKind::ArrayData));
        }
        let registry = RootRegistry::default();
        let (_id, roots) = registry.register();
        roots.lock().push(list);

        let zone = heap.chunks();
        let outcome = par_semispace_collect(&store, OWNER_GLOBAL, &zone, &registry, None);
        heap.replace_chunks(outcome.new_chunks, outcome.copied_words);

        // Live data: 5 cells of 5 words each.
        assert_eq!(outcome.copied_words, 5 * 5);
        // Walk through the updated root.
        let new_root = roots.lock()[0];
        let mut cur = new_root;
        let mut tags = Vec::new();
        while !cur.is_null() {
            let v = store.view(cur);
            tags.push(v.field(2));
            cur = v.field_ptr(1);
        }
        assert_eq!(tags, vec![4, 3, 2, 1, 0]);
        // The stale pointer also resolves to the same data through forwarding.
        let resolved = store.resolve_fwd(list);
        assert_eq!(store.view(resolved).field(2), 4);
    }

    #[test]
    fn collect_twice_is_stable() {
        let (store, heap) = setup();
        let obj = heap.alloc(0, Header::new(3, 0, ObjKind::ArrayData));
        store.view(obj).set_field(1, 42);
        let registry = RootRegistry::default();
        let (_id, roots) = registry.register();
        roots.lock().push(obj);
        for _ in 0..2 {
            let zone = heap.chunks();
            let outcome = par_semispace_collect(&store, OWNER_GLOBAL, &zone, &registry, None);
            heap.replace_chunks(outcome.new_chunks, outcome.copied_words);
            assert_eq!(outcome.copied_words, 5);
        }
        let cur = roots.lock()[0];
        assert_eq!(store.view(cur).field(1), 42);
    }
}
