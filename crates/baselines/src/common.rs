//! Shared machinery for the baseline runtimes: flat heaps over the chunk store, the
//! forwarding-resolution read barrier, and a plain semispace collector.

use hh_api::CounterShard;
use hh_objmodel::{ChunkId, ChunkStore, Header, ObjPtr};
use hh_sched::{EvacEngine, EvacOutcome, ToSpaceOwner};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
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

    /// Retires every chunk of this heap and resets its allocation state. The
    /// runtimes call it when their last active run ends.
    pub fn dispose(&self) {
        for c in self.replace_chunks(Vec::new(), 0) {
            self.store.retire_chunk(c);
        }
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

/// A plain (non-hierarchical) semispace collection over an explicit zone, on the
/// shared synchronous driver ([`EvacEngine::collect`]) with a team of `members`
/// (GC v2). With more than one member, `draft` receives the helper body: the
/// stop-the-world baselines offer it to their workers parked at the safepoint,
/// which collect instead of sleeping through the pause. A team of one is a solo
/// collection by the calling thread and never drafts.
///
/// `zone` is the set of chunks being evacuated; objects outside it are left alone
/// (membership is decided by epoch-tagged chunk metadata, not hash sets). Every slot
/// of every shadow stack in `roots` (one per worker lane) is rewritten in place. The
/// caller must have stopped the world; drafted helpers are parked mutators, so they
/// are quiescent by construction. Returns the merged to-space, for the caller to
/// install.
pub fn par_semispace_collect(
    store: &Arc<ChunkStore>,
    owner_raw: u32,
    zone: &[ChunkId],
    roots: &[Mutex<Vec<ObjPtr>>],
    members: usize,
    draft: impl FnOnce(Arc<dyn Fn(usize) + Send + Sync>),
) -> EvacOutcome {
    let epoch = store.next_gc_epoch();
    for &c in zone {
        store.chunk(c).set_gc_from_space(epoch);
    }
    // The flat to-space belongs to one owner, attributed to no run.
    let owner = ToSpaceOwner {
        raw: owner_raw,
        run_tag: 0,
        root: false,
    };
    EvacEngine::collect(owner, store, epoch, members, zone, draft, |fwd| {
        for stack in roots {
            for r in stack.lock().iter_mut() {
                *r = fwd(*r);
            }
        }
    })
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
        let roots = [Mutex::new(vec![list])];

        let zone = heap.chunks();
        let outcome = par_semispace_collect(&store, OWNER_GLOBAL, &zone, &roots, 1, |_| ());
        heap.replace_chunks(outcome.chunks, outcome.occupied_words);

        // Live data: 5 cells of 5 words each.
        assert_eq!(outcome.copied_words, 5 * 5);
        // Walk through the updated root.
        let new_root = roots[0].lock()[0];
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
        let roots = [Mutex::new(vec![obj])];
        for _ in 0..2 {
            let zone = heap.chunks();
            let outcome = par_semispace_collect(&store, OWNER_GLOBAL, &zone, &roots, 1, |_| ());
            heap.replace_chunks(outcome.chunks, outcome.occupied_words);
            assert_eq!(outcome.copied_words, 5);
        }
        let cur = roots[0].lock()[0];
        assert_eq!(store.view(cur).field(1), 42);
    }
}
