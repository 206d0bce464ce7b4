//! A single heap in the hierarchy.

use crate::id::HeapId;
use crate::rwlock::HeapRwLock;
use hh_objmodel::{Chunk, ChunkId, ChunkStore, Header, ObjPtr};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;

/// Raw value of a [`Heap`] cursor's chunk slot while the cursor has no bump chunk.
const NO_CHUNK: u32 = u32::MAX;

/// Capacity in words of a cursor's first chunk: one 4 KiB page (clamped to the
/// store's default chunk size). Later chunks grow with the cursor's demand up to the
/// default (see [`Heap::alloc_obj`]).
pub const FIRST_CHUNK_WORDS: usize = 512;

/// 64 bytes between two field groups of a [`Heap`]: a byte before the pad and a
/// byte after it are at least 64 bytes apart, so they can never share a cache
/// line — wherever the allocator places the heap. Over-aligning the groups instead
/// would take every heap creation through the allocator's aligned path, which
/// costs far more than the pad's bytes.
#[derive(Default)]
struct LinePad {
    _bytes: [u64; 8],
}

/// One heap of the hierarchy.
///
/// A heap is a linked list of chunks with a bump allocator, a readers–writer lock, a
/// depth, and a `merged_into` forwarding link installed when the heap is joined into its
/// parent (after which it is no longer allocated into and all queries forward to the
/// parent).
///
/// The fields fall into three groups by who writes them, each kept off the others'
/// cache lines (DESIGN.md §6.8): the read-mostly **identity**; the **promotion side**
/// — the lock word, the steal gate, the promoters' bump cursor and their word
/// count, written by promoters into this heap and by its stolen children — and the
/// **owner side**, the owner's bump cursor and word counts. Allocation takes no
/// lock: each side bumps its own chunk, and the chunk-list mutex is taken only to
/// refill either cursor.
#[repr(C)]
pub struct Heap {
    // -- Identity: fixed at creation, except `merged_into` (set once by the join,
    // then only path-compressed). Read by every heap resolution.
    id: HeapId,
    parent: HeapId,
    /// Epoch of the run this heap belongs to (0 = untracked). Fixed at creation;
    /// children inherit it from their parent. Chunks allocated by this heap carry
    /// the tag, which becomes their quarantine stamp at retirement.
    run_tag: u64,
    depth: u32,
    /// Raw id of the heap this one has been merged into, or `HeapId::NONE.raw()` while live.
    merged_into: AtomicU32,
    _identity_end: LinePad,

    // -- Promotion side: written by promoters into this heap, under its WRITE lock
    // or, for one-object promotions, its READ lock (and reset by the collector's
    // flip), and by this heap's stolen children (the steal gate).
    /// The paper's per-heap readers–writer lock.
    pub lock: HeapRwLock,
    /// The steal gate of the lazy heap policy: a stolen child of this heap holds
    /// the read side for its whole run, and a collector of this heap needs the
    /// write side (`try_write`). It guards no data, so a poisoned gate is held like
    /// a clean one. See DESIGN.md §4.2.
    pub steal_gate: std::sync::RwLock<()>,
    /// Raw id of the chunk promotions ([`BatchAlloc`]) bump into (always also in
    /// `chunks`), or [`NO_CHUNK`]. Changes only under the `chunks` mutex.
    promo_current: AtomicU32,
    /// Words allocated by promotions ([`BatchAlloc`]) since creation or the last flip.
    promoted_words: AtomicUsize,
    _promotion_end: LinePad,

    // -- Owner side: allocation.
    /// Raw id of the chunk the owner's [`Heap::alloc_obj`] bumps into (always also
    /// in `chunks`), or [`NO_CHUNK`]. Changes only under the `chunks` mutex.
    current: AtomicU32,
    /// Words allocated by [`Heap::alloc_obj`] since creation or the last flip.
    owner_words: AtomicUsize,
    /// Words joined children brought in since the last flip: each child's whole
    /// volume, its survivors included.
    absorbed_words: AtomicUsize,
    /// Words the last flip installed and later adopted collections added: what
    /// collection retained, kept apart so that it never counts toward the trigger.
    survived_words: AtomicUsize,
    /// All chunks owned by this heap, in allocation order; the mutex also serializes
    /// refills of both cursors.
    chunks: Mutex<Vec<ChunkId>>,
    _owner_end: LinePad,
}

/// Places `header` in `chunk` with the initialization a caller asked for (see
/// [`BatchAlloc::alloc_for_copy`]), or `None` when it does not fit.
#[inline]
fn place(store: &ChunkStore, chunk: &Chunk, header: Header, for_copy: bool) -> Option<ObjPtr> {
    if for_copy {
        store.alloc_in_chunk_for_copy(chunk, header)
    } else {
        store.alloc_in_chunk(chunk, header)
    }
}

impl Heap {
    #[cfg(test)]
    pub(crate) fn new(id: HeapId, parent: HeapId, depth: u32) -> Heap {
        Self::new_tagged(id, parent, depth, 0)
    }

    pub(crate) fn new_tagged(id: HeapId, parent: HeapId, depth: u32, run_tag: u64) -> Heap {
        Heap {
            id,
            parent,
            run_tag,
            depth,
            merged_into: AtomicU32::new(HeapId::NONE.raw()),
            _identity_end: LinePad::default(),
            lock: HeapRwLock::new(),
            steal_gate: std::sync::RwLock::new(()),
            promo_current: AtomicU32::new(NO_CHUNK),
            promoted_words: AtomicUsize::new(0),
            _promotion_end: LinePad::default(),
            current: AtomicU32::new(NO_CHUNK),
            owner_words: AtomicUsize::new(0),
            absorbed_words: AtomicUsize::new(0),
            survived_words: AtomicUsize::new(0),
            chunks: Mutex::new(Vec::new()),
            _owner_end: LinePad::default(),
        }
    }

    /// This heap's id.
    #[inline]
    pub fn id(&self) -> HeapId {
        self.id
    }

    /// The heap's parent at creation time (NONE for the root heap).
    #[inline]
    pub fn parent(&self) -> HeapId {
        self.parent
    }

    /// Epoch of the run this heap belongs to (0 = not epoch-tracked).
    #[inline]
    pub fn run_tag(&self) -> u64 {
        self.run_tag
    }

    /// Depth in the hierarchy: the root is at depth 0.
    #[inline]
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// The heap this one has been merged into, or NONE while it is still live.
    #[inline]
    pub fn merged_into(&self) -> HeapId {
        HeapId::from_raw(self.merged_into.load(Ordering::Acquire))
    }

    /// True if the heap has not been merged into its parent yet.
    #[inline]
    pub fn is_live(&self) -> bool {
        self.merged_into().is_none()
    }

    /// Records that this heap has been merged into `target` (used by `join_heap`).
    #[cfg(test)]
    pub(crate) fn set_merged_into(&self, target: HeapId) {
        self.merged_into.store(target.raw(), Ordering::Release);
    }

    /// Path compression helper used by the registry.
    pub(crate) fn compress_merged_into(&self, old: HeapId, new: HeapId) {
        let _ = self.merged_into.compare_exchange(
            old.raw(),
            new.raw(),
            Ordering::AcqRel,
            Ordering::Acquire,
        );
    }

    /// Allocates an object with the given header in this heap (`freshObj`), on the
    /// owner's account.
    ///
    /// Thread-safe and lock-free apart from chunk refills: the owning task bumps the
    /// owner cursor's chunk, while promotions by other tasks (holding this heap's
    /// lock) bump the promotion cursor's chunk through [`Heap::batch_alloc`].
    ///
    /// Each refill sizes the cursor's next chunk to its demand: as many words as the
    /// cursor has placed since heap creation or the last flip (never fewer than the
    /// object), rounded up to a power of two and clamped to
    /// [`FIRST_CHUNK_WORDS`]..=the store's default. So a fresh cursor starts with a
    /// page, and each refill doubles the words it holds until its chunks reach the
    /// default size.
    ///
    /// Objects larger than the default get a dedicated chunk *without* displacing the
    /// cursor's chunk, so a large-object detour does not abandon the partially
    /// filled chunk that subsequent small objects still fit in.
    pub fn alloc_obj(&self, store: &ChunkStore, header: Header) -> ObjPtr {
        let cursor = Cursor {
            chunk: &self.current,
            placed: &self.owner_words,
            unpublished: 0,
        };
        let ptr = self.bump(store, cursor, header, false).0;
        self.owner_words
            .fetch_add(header.size_words(), Ordering::Relaxed);
        ptr
    }

    /// The allocation path shared by both cursors: load the cursor's chunk, bump
    /// it, and refill only when the object does not fit. Returns the object and the
    /// chunk it landed in.
    #[inline]
    fn bump<'s>(
        &self,
        store: &'s ChunkStore,
        cursor: Cursor<'_>,
        header: Header,
        for_copy: bool,
    ) -> (ObjPtr, &'s Arc<Chunk>) {
        if store.needs_dedicated_chunk(header) {
            let (chunk, ptr) = store.alloc_dedicated_for_run(self.id.raw(), header, self.run_tag);
            self.mark_root_owned(&chunk);
            self.chunks.lock().push(chunk.id());
            return (ptr, store.chunk(chunk.id()));
        }
        let mut seen = cursor.chunk.load(Ordering::Acquire);
        loop {
            if seen != NO_CHUNK {
                let chunk = store.chunk(ChunkId(seen));
                if let Some(ptr) = place(store, chunk, header, for_copy) {
                    return (ptr, chunk);
                }
            }
            match self.refill(store, cursor, header, for_copy, seen) {
                Ok(placed) => return placed,
                Err(now) => seen = now,
            }
        }
    }

    /// Replaces the cursor's chunk `seen`, which `header` did not fit, with a fresh
    /// one sized to the cursor's demand and holding the object. Returns `Err` with
    /// the cursor's new chunk if another allocator refilled it first; the caller
    /// retries there.
    ///
    /// A failed bump left `seen`'s cursor past its capacity, so no allocator can
    /// place anything in it again: the unused tail stays raw, and chunk walkers stop
    /// at it. The fresh chunk is published only once the object is placed in it, so
    /// a refill always makes progress however small the chunks are.
    #[cold]
    fn refill<'s>(
        &self,
        store: &'s ChunkStore,
        cursor: Cursor<'_>,
        header: Header,
        for_copy: bool,
        seen: u32,
    ) -> Result<(ObjPtr, &'s Arc<Chunk>), u32> {
        let mut chunks = self.chunks.lock();
        // A cursor's chunk changes only under this mutex, so the mutex orders this
        // load after any refill that moved it.
        let now = cursor.chunk.load(Ordering::Relaxed);
        if now != seen {
            return Err(now);
        }
        // Size the chunk to the cursor's demand: as many words as it has placed,
        // never fewer than the object, a power of two within [first, default].
        let default = store.default_chunk_words();
        let placed = cursor.placed.load(Ordering::Relaxed) + cursor.unpublished;
        let words = placed
            .max(header.size_words())
            .next_power_of_two()
            .clamp(FIRST_CHUNK_WORDS.min(default), default);
        let chunk = store.alloc_sized_chunk_for_run(self.id.raw(), words, self.run_tag);
        self.mark_root_owned(&chunk);
        let ptr = place(store, &chunk, header, for_copy)
            .expect("fresh chunk cannot be too small for the object it was sized for");
        chunks.push(chunk.id());
        // Release: an allocator that loads the new id also sees the chunk's
        // activation (owner, run tag, reset cursor).
        cursor.chunk.store(chunk.id().0, Ordering::Release);
        Ok((ptr, store.chunk(chunk.id())))
    }

    /// Marks a chunk just activated for this heap as root-owned if this heap is a
    /// root ([`Chunk::is_root_owned`]).
    #[inline]
    pub fn mark_root_owned(&self, chunk: &Chunk) {
        if self.parent.is_none() {
            chunk.set_root_owned();
        }
    }

    /// Opens a promotion-side allocation session on this heap: objects are placed
    /// as by [`Heap::alloc_obj`], but through the promotion cursor — a bump chunk of
    /// their own, so the owner's and the promoters' bumps never share a cache line —
    /// and their words are tallied in the session and published to the heap's
    /// promotion-side accounting once, when it drops. Promoters hold the heap's
    /// WRITE lock while the session lives, or its READ lock for a one-object
    /// promotion: sessions may then run concurrently and share the cursor, and a
    /// refill sizes its chunk from an approximate tally (another session's words
    /// may not be published yet).
    pub fn batch_alloc<'a>(&'a self, store: &'a ChunkStore) -> BatchAlloc<'a> {
        BatchAlloc {
            heap: self,
            store,
            words: 0,
        }
    }

    /// Words this heap received since creation or the last [`Heap::replace_chunks`]:
    /// what the owner and the promoters allocated into it, and what joined children
    /// brought. The collection trigger's count: the words a collection retained
    /// never count, so a heap whose live data exceeds the threshold is not
    /// collected again until it has received a threshold's worth of new words.
    pub fn allocated_words(&self) -> usize {
        self.owner_words.load(Ordering::Relaxed)
            + self.promoted_words.load(Ordering::Relaxed)
            + self.absorbed_words.load(Ordering::Relaxed)
    }

    /// Snapshot of the chunk ids currently owned by this heap.
    pub fn chunks(&self) -> Vec<ChunkId> {
        self.chunks.lock().clone()
    }

    /// Splices all of `child`'s chunks onto this heap's chunk list (`joinHeap`) and
    /// forwards `child` to this heap. The child's allocation state is emptied.
    /// Constant-time apart from the list splice.
    ///
    /// The forwarding link is published while the child's chunk list is still
    /// locked, so a concurrent [`Heap::adopt_collected_chunks`] on the child either
    /// lands before the splice (and its chunks move with the rest) or sees the
    /// link and hands its chunks back.
    pub fn absorb_chunks_of(&self, child: &Heap) {
        let mut child_chunks = child.chunks.lock();
        let mut my_chunks = self.chunks.lock();
        my_chunks.append(&mut child_chunks);
        child.reset_cursors(NO_CHUNK);
        let w = child.owner_words.swap(0, Ordering::Relaxed)
            + child.promoted_words.swap(0, Ordering::Relaxed)
            + child.absorbed_words.swap(0, Ordering::Relaxed)
            + child.survived_words.swap(0, Ordering::Relaxed);
        self.absorbed_words.fetch_add(w, Ordering::Relaxed);
        child.merged_into.store(self.id.raw(), Ordering::Release);
    }

    /// Points the owner cursor at `owner_chunk` and empties the promotion cursor.
    /// Caller holds the `chunks` mutex.
    fn reset_cursors(&self, owner_chunk: u32) {
        self.current.store(owner_chunk, Ordering::Release);
        self.promo_current.store(NO_CHUNK, Ordering::Release);
    }

    /// Replaces this heap's chunk list wholesale (used by the collector to install the
    /// to-space, holding `survived_words` words, as the new from-space). Returns the
    /// old chunk list.
    ///
    /// Only at a point where nothing allocates into the heap (the collector's
    /// quiescence): the bump path takes no lock, so the flip of the current chunk
    /// would otherwise race it.
    pub fn replace_chunks(&self, new_chunks: Vec<ChunkId>, survived_words: usize) -> Vec<ChunkId> {
        let mut chunks = self.chunks.lock();
        let old = std::mem::replace(&mut *chunks, new_chunks);
        self.reset_cursors(chunks.last().map_or(NO_CHUNK, |c| c.0));
        self.owner_words.store(0, Ordering::Relaxed);
        self.promoted_words.store(0, Ordering::Relaxed);
        self.absorbed_words.store(0, Ordering::Relaxed);
        self.survived_words.store(survived_words, Ordering::Relaxed);
        old
    }

    /// Prepends collected to-space chunks to this heap's chunk list without touching
    /// either allocation cursor (used by the incremental collector's finalize: the
    /// mutator and promoters have been allocating fresh chunks into this heap since
    /// the roots-only pause, and their bump chunks must stay current). Its
    /// `collected_words` survivors never count toward the trigger.
    ///
    /// Hands `collected` back, adopting nothing, when this heap has been merged
    /// away: the survivors belong to the heap it was merged into (see
    /// [`crate::HeapRegistry::adopt_collected`]).
    pub fn adopt_collected_chunks(
        &self,
        mut collected: Vec<ChunkId>,
        collected_words: usize,
    ) -> Result<(), Vec<ChunkId>> {
        let mut chunks = self.chunks.lock();
        if !self.is_live() {
            return Err(collected);
        }
        collected.append(&mut chunks);
        *chunks = collected;
        // Both cursors still name their bump chunks (or none if nothing was
        // allocated since the flip); those stay on the list after the adopted ones.
        self.survived_words
            .fetch_add(collected_words, Ordering::Relaxed);
        Ok(())
    }

    /// Empties the heap's allocation state and returns every chunk it held. Unlike
    /// [`Heap::replace_chunks`] it installs no to-space: the runtimes use it to
    /// dispose of a completed run's heap tree before recycling.
    pub fn take_all_chunks(&self) -> Vec<ChunkId> {
        let mut chunks = self.chunks.lock();
        self.reset_cursors(NO_CHUNK);
        self.owner_words.store(0, Ordering::Relaxed);
        self.promoted_words.store(0, Ordering::Relaxed);
        self.absorbed_words.store(0, Ordering::Relaxed);
        self.survived_words.store(0, Ordering::Relaxed);
        std::mem::take(&mut *chunks)
    }
}

/// One of a heap's two bump cursors, as [`Heap::bump`] and [`Heap::refill`] see it.
#[derive(Copy, Clone)]
struct Cursor<'h> {
    /// The cursor's chunk slot: `current` or `promo_current`.
    chunk: &'h AtomicU32,
    /// The cursor's published word count since heap creation or the last flip…
    placed: &'h AtomicUsize,
    /// …plus the words it placed that are not published yet (a live
    /// [`BatchAlloc`]'s tally). Their sum is the demand a refill sizes the next
    /// chunk for.
    unpublished: usize,
}

/// A promotion-side allocation session on one heap (see [`Heap::batch_alloc`]):
/// places objects with the same rules as [`Heap::alloc_obj`] (large objects get
/// dedicated chunks without displacing the cursor's chunk) through the heap's
/// promotion cursor, and publishes their words to the heap's promotion-side
/// accounting once, on drop.
pub struct BatchAlloc<'a> {
    heap: &'a Heap,
    store: &'a ChunkStore,
    words: usize,
}

impl<'a> BatchAlloc<'a> {
    /// Allocates one object with `header` in the session's heap, fully initialized
    /// (pointer fields NULLed) as by [`Heap::alloc_obj`].
    pub fn alloc(&mut self, header: Header) -> ObjPtr {
        self.bump(header, false).0
    }

    /// Allocates one object with `header`, initializing only the header and the
    /// forwarding slot (see [`ChunkStore::alloc_in_chunk_for_copy`]): the caller
    /// must store every field before the object becomes reachable. Returns the
    /// pointer plus the chunk it landed in, so evacuation loops can build views
    /// without a chunk-table lookup.
    pub fn alloc_for_copy(&mut self, header: Header) -> (ObjPtr, &'a Arc<Chunk>) {
        self.bump(header, true)
    }

    fn bump(&mut self, header: Header, for_copy: bool) -> (ObjPtr, &'a Arc<Chunk>) {
        let heap = self.heap;
        let cursor = Cursor {
            chunk: &heap.promo_current,
            placed: &heap.promoted_words,
            unpublished: self.words,
        };
        self.words += header.size_words();
        heap.bump(self.store, cursor, header, for_copy)
    }

    /// Words allocated through this cursor so far.
    pub fn allocated_words(&self) -> usize {
        self.words
    }
}

impl Drop for BatchAlloc<'_> {
    fn drop(&mut self) {
        self.heap
            .promoted_words
            .fetch_add(self.words, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for Heap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Heap")
            .field("id", &self.id)
            .field("parent", &self.parent)
            .field("depth", &self.depth())
            .field("merged_into", &self.merged_into())
            .field("allocated_words", &self.allocated_words())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hh_objmodel::ObjKind;

    fn store() -> ChunkStore {
        ChunkStore::new(64)
    }

    #[test]
    fn alloc_in_heap_tracks_words_and_chunks() {
        let store = store();
        let h = Heap::new(HeapId(0), HeapId::NONE, 0);
        let header = Header::new(6, 0, ObjKind::Tuple); // 8 words
        let mut ptrs = Vec::new();
        for _ in 0..20 {
            ptrs.push(h.alloc_obj(&store, header));
        }
        assert_eq!(h.allocated_words(), 20 * 8);
        assert!(
            h.chunks().len() >= 2,
            "64-word chunks should have overflowed"
        );
        // All objects readable and distinct.
        ptrs.sort();
        ptrs.dedup();
        assert_eq!(ptrs.len(), 20);
        for p in ptrs {
            assert_eq!(store.view(p).n_fields(), 6);
            assert_eq!(store.chunk_owner(p), 0);
        }
    }

    #[test]
    fn huge_object_gets_its_own_chunk() {
        let store = store();
        let h = Heap::new(HeapId(3), HeapId::NONE, 0);
        let header = Header::new(1000, 0, ObjKind::ArrayData);
        let p = h.alloc_obj(&store, header);
        assert_eq!(store.view(p).n_fields(), 1000);
        assert_eq!(store.chunk_owner(p), 3);
    }

    #[test]
    fn large_object_detour_keeps_the_current_chunk() {
        let store = store(); // 64-word chunks
        let h = Heap::new(HeapId(0), HeapId::NONE, 0);
        let small = Header::new(2, 0, ObjKind::Tuple); // 4 words
        let first = h.alloc_obj(&store, small);
        // A large object must get a dedicated chunk…
        let big = h.alloc_obj(&store, Header::new(500, 0, ObjKind::ArrayData));
        // …and the next small object must land back in the first, partially filled
        // chunk rather than opening a third one.
        let second = h.alloc_obj(&store, small);
        assert_eq!(second.chunk(), first.chunk(), "current chunk was abandoned");
        assert_ne!(big.chunk(), first.chunk());
        assert_eq!(h.chunks().len(), 2);
    }

    #[test]
    fn absorb_moves_chunks_and_words() {
        let store = store();
        let parent = Heap::new(HeapId(0), HeapId::NONE, 0);
        let child = Heap::new(HeapId(1), HeapId(0), 1);
        let header = Header::new(2, 0, ObjKind::Tuple);
        for _ in 0..10 {
            child.alloc_obj(&store, header);
        }
        let child_words = child.allocated_words();
        let child_chunks = child.chunks();
        assert!(child_words > 0 && !child_chunks.is_empty());
        parent.alloc_obj(&store, header);
        let mut spliced = parent.chunks();
        parent.absorb_chunks_of(&child);
        spliced.extend(child_chunks);
        assert_eq!(parent.chunks(), spliced, "the child's list is appended");
        assert!(child.chunks().is_empty());
        assert_eq!(child.allocated_words(), 0);
        assert_eq!(parent.allocated_words(), child_words + header.size_words());
        assert_eq!(
            child.merged_into(),
            HeapId(0),
            "the splice forwards the child"
        );
    }

    #[test]
    fn replace_chunks_swaps_spaces() {
        let store = store();
        let h = Heap::new(HeapId(0), HeapId::NONE, 0);
        let header = Header::new(2, 0, ObjKind::Tuple);
        for _ in 0..10 {
            h.alloc_obj(&store, header);
        }
        let before = h.chunks();
        let old = h.replace_chunks(vec![], 0);
        assert!(!old.is_empty());
        assert_eq!(old, before, "the flip returns the whole from-space");
        assert!(h.chunks().is_empty());
        assert_eq!(h.allocated_words(), 0);
        // Allocation after a flip starts a new chunk.
        let p = h.alloc_obj(&store, header);
        assert_eq!(store.view(p).n_fields(), 2);
        assert_eq!(h.chunks(), [p.chunk()]);
    }

    /// The trigger's count is the words a heap received since its last collection:
    /// a flip's and an adoption's survivors never enter it, but a join hands a
    /// child's survivors to its parent, which has never collected them.
    #[test]
    fn survivors_count_toward_the_trigger_only_when_a_join_hands_them_on() {
        let store = store();
        let parent = Heap::new(HeapId(0), HeapId::NONE, 0);
        let child = Heap::new(HeapId(1), HeapId(0), 1);
        let header = Header::new(2, 0, ObjKind::Tuple);
        child.replace_chunks(vec![], 100);
        assert!(child.adopt_collected_chunks(vec![], 20).is_ok());
        assert_eq!(child.allocated_words(), 0);
        assert_eq!(child.survived_words.load(Ordering::Relaxed), 120);
        child.alloc_obj(&store, header);
        assert_eq!(child.allocated_words(), header.size_words());
        parent.absorb_chunks_of(&child);
        assert_eq!(parent.allocated_words(), 120 + header.size_words());
        assert_eq!(parent.survived_words.load(Ordering::Relaxed), 0);
    }

    /// A root heap marks every chunk it activates, cursor and dedicated alike, so
    /// a CAS can tell from the chunk that no promotion copies its objects; a child
    /// heap marks none.
    #[test]
    fn root_heaps_mark_their_chunks_root_owned() {
        let store = store(); // 64-word chunks
        let root = Heap::new(HeapId(0), HeapId::NONE, 0);
        let child = Heap::new(HeapId(1), HeapId(0), 1);
        let small = Header::new(2, 0, ObjKind::Tuple);
        let big = Header::new(500, 0, ObjKind::ArrayData);
        for p in [
            root.alloc_obj(&store, small),
            root.alloc_obj(&store, big),
            root.batch_alloc(&store).alloc(small),
        ] {
            assert!(store.chunk(p.chunk()).is_root_owned());
        }
        for p in [child.alloc_obj(&store, small), child.alloc_obj(&store, big)] {
            assert!(!store.chunk(p.chunk()).is_root_owned());
        }
    }

    #[test]
    fn merged_into_transitions() {
        let h = Heap::new(HeapId(5), HeapId(2), 3);
        assert!(h.is_live());
        assert_eq!(h.parent(), HeapId(2));
        assert_eq!(h.depth(), 3);
        h.set_merged_into(HeapId(2));
        assert!(!h.is_live());
        assert_eq!(h.merged_into(), HeapId(2));
        h.compress_merged_into(HeapId(2), HeapId(0));
        assert_eq!(h.merged_into(), HeapId(0));
        // Compression with a stale old value is a no-op.
        h.compress_merged_into(HeapId(2), HeapId(7));
        assert_eq!(h.merged_into(), HeapId(0));
    }

    #[test]
    fn batch_alloc_matches_alloc_obj_placement() {
        let store = store(); // 64-word chunks
        let h = Heap::new(HeapId(0), HeapId::NONE, 0);
        let small = Header::new(2, 0, ObjKind::Tuple); // 4 words
        let big = Header::new(500, 0, ObjKind::ArrayData);
        let mut ptrs = Vec::new();
        {
            let mut batch = h.batch_alloc(&store);
            for _ in 0..10 {
                ptrs.push(batch.alloc(small));
            }
            // A large object takes a dedicated chunk without displacing the bump chunk…
            let huge = batch.alloc(big);
            let after = batch.alloc(small);
            assert_eq!(
                after.chunk(),
                ptrs.last().unwrap().chunk(),
                "bump chunk abandoned by the large-object detour"
            );
            assert_ne!(huge.chunk(), after.chunk());
            assert_eq!(batch.allocated_words(), 11 * 4 + big.size_words());
            ptrs.push(huge);
            ptrs.push(after);
        }
        // Words are published when the cursor drops; objects are live and distinct.
        assert_eq!(h.allocated_words(), 11 * 4 + big.size_words());
        ptrs.sort();
        ptrs.dedup();
        assert_eq!(ptrs.len(), 12);
        // Ordinary allocation goes through the owner cursor: a chunk of its own.
        let next = h.alloc_obj(&store, small);
        assert_eq!(store.view(next).n_fields(), 2);
        assert_ne!(
            next.chunk(),
            ptrs[0].chunk(),
            "owner bumped the promotion chunk"
        );
    }

    /// The three field groups are at least a cache line apart, and the owner group
    /// is a line away from whatever the allocator places after the heap. Each group
    /// is checked as the byte range spanned by all of its fields, so both bump
    /// cursors are covered: `promo_current` with the promotion side, `current` with
    /// the owner side.
    #[test]
    fn field_groups_never_share_a_cache_line() {
        use std::mem::{offset_of, size_of};
        /// `(first byte, one past the last byte)` of a group of `(offset, size)` fields.
        fn range(fields: &[(usize, usize)]) -> (usize, usize) {
            let start = fields.iter().map(|&(o, _)| o).min().unwrap();
            let end = fields.iter().map(|&(o, n)| o + n).max().unwrap();
            (start, end)
        }
        let identity = range(&[
            (offset_of!(Heap, id), size_of::<HeapId>()),
            (offset_of!(Heap, parent), size_of::<HeapId>()),
            (offset_of!(Heap, run_tag), size_of::<u64>()),
            (offset_of!(Heap, depth), size_of::<u32>()),
            (offset_of!(Heap, merged_into), size_of::<AtomicU32>()),
        ]);
        let promotion = range(&[
            (offset_of!(Heap, lock), size_of::<HeapRwLock>()),
            (
                offset_of!(Heap, steal_gate),
                size_of::<std::sync::RwLock<()>>(),
            ),
            (offset_of!(Heap, promo_current), size_of::<AtomicU32>()),
            (offset_of!(Heap, promoted_words), size_of::<AtomicUsize>()),
        ]);
        let owner = range(&[
            (offset_of!(Heap, current), size_of::<AtomicU32>()),
            (offset_of!(Heap, owner_words), size_of::<AtomicUsize>()),
            (offset_of!(Heap, absorbed_words), size_of::<AtomicUsize>()),
            (offset_of!(Heap, survived_words), size_of::<AtomicUsize>()),
            (offset_of!(Heap, chunks), size_of::<Mutex<Vec<ChunkId>>>()),
        ]);
        assert!(promotion.0 >= identity.1 + 64);
        assert!(owner.0 >= promotion.1 + 64);
        assert!(size_of::<Heap>() >= owner.1 + 64);
    }

    /// The owner bump-allocates into heap H while promoters, each holding H's WRITE
    /// lock in turn, allocate into it through sessions on the promotion cursor. With
    /// 64-word chunks both cursors refill constantly, racing each other for H's chunk
    /// list. Every object must get its own words, stay readable in a chunk on H's
    /// list, and be counted exactly once — and no chunk may hold both an owner object
    /// and a promoted copy, so the two sides never write one chunk's cursor.
    #[test]
    fn owner_and_promoters_allocate_into_one_heap_concurrently() {
        use crate::HeapRegistry;
        use std::collections::HashSet;
        const PROMOTERS: u64 = 4;
        const OWNER_OBJECTS: u64 = 20_000;
        const PASSES: u64 = 1_500;
        /// Fills every data field of `p` with `tag`; pointer field 0 links `prev`.
        fn fill(store: &ChunkStore, p: ObjPtr, prev: ObjPtr, tag: u64) {
            let v = store.view(p);
            v.set_field_ptr(0, prev);
            for f in 1..v.n_fields() {
                v.set_field(f, tag);
            }
        }
        // Sizes 4..=9 words: mostly not dividing the chunk, so failed bumps leave tails.
        let header = |k: u64| Header::new(2 + (k % 6) as usize, 1, ObjKind::Tuple);
        let reg = HeapRegistry::new(Arc::new(ChunkStore::new(64)));
        let root = reg.new_root_heap();
        let h = reg.new_child_heap(root);
        let heap = reg.heap(h);
        let store = reg.store();

        let (owned, promoted) = std::thread::scope(|s| {
            let owner = s.spawn(|| {
                let mut prev = ObjPtr::NULL;
                (0..OWNER_OBJECTS)
                    .map(|k| {
                        let p = reg.alloc_obj(h, header(k));
                        fill(store, p, prev, k);
                        prev = p;
                        (p, k)
                    })
                    .collect::<Vec<_>>()
            });
            let promoters: Vec<_> = (1..=PROMOTERS)
                .map(|t| {
                    s.spawn(move || {
                        let mut out = Vec::new();
                        for pass in 0..PASSES {
                            heap.lock.lock_exclusive();
                            let mut batch = heap.batch_alloc(store);
                            let mut prev = ObjPtr::NULL;
                            for j in 0..1 + pass % 3 {
                                let tag = (t << 32) | (pass << 8) | j;
                                let p = batch.alloc(header(tag));
                                fill(store, p, prev, tag);
                                prev = p;
                                out.push((p, tag));
                            }
                            drop(batch);
                            heap.lock.unlock_exclusive();
                        }
                        out
                    })
                })
                .collect();
            let promoted: Vec<_> = promoters
                .into_iter()
                .flat_map(|p| p.join().unwrap())
                .collect();
            (owner.join().unwrap(), promoted)
        });

        let words = |objs: &[(ObjPtr, u64)]| -> usize {
            objs.iter().map(|&(_, tag)| header(tag).size_words()).sum()
        };
        assert_eq!(
            heap.allocated_words(),
            words(&owned) + words(&promoted),
            "owner plus promoted words, each counted once"
        );
        let on_list: HashSet<ChunkId> = heap.chunks().into_iter().collect();
        for &(p, tag) in owned.iter().chain(&promoted) {
            assert!(
                on_list.contains(&p.chunk()),
                "{p:?} is in a chunk off H's list"
            );
            let v = store.view(p);
            assert_eq!(v.header(), header(tag), "{p:?}'s header was overwritten");
            for f in 1..v.n_fields() {
                assert_eq!(v.field(f), tag, "{p:?} field {f} was overwritten");
            }
        }
        let owner_chunks: HashSet<ChunkId> = owned.iter().map(|&(p, _)| p.chunk()).collect();
        for &(p, _) in &promoted {
            assert!(
                !owner_chunks.contains(&p.chunk()),
                "promoted copy {p:?} shares a chunk with owner objects"
            );
        }
        let mut all: Vec<(ObjPtr, u64)> = owned.into_iter().chain(promoted).collect();
        all.sort_by_key(|&(p, _)| (p.chunk(), p.offset()));
        for pair in all.windows(2) {
            let ((a, a_tag), (b, _)) = (pair[0], pair[1]);
            if a.chunk() == b.chunk() {
                assert!(
                    a.offset() as usize + header(a_tag).size_words() <= b.offset() as usize,
                    "{a:?} and {b:?} overlap"
                );
            }
        }
        assert!(reg.check_disentangled().is_empty());
    }

    #[test]
    fn promotion_stats_accumulate() {
        let store = store();
        let h = Heap::new(HeapId(0), HeapId::NONE, 0);
        h.alloc_obj(&store, Header::new(1, 0, ObjKind::Ref)); // 3 owner words
        {
            let mut batch = h.batch_alloc(&store);
            batch.alloc(Header::new(2, 0, ObjKind::Tuple)); // 4 words
            batch.alloc(Header::new(4, 0, ObjKind::Tuple)); // 6 words
            assert_eq!(batch.allocated_words(), 10);
            assert_eq!(
                h.allocated_words(),
                3,
                "published only when the session ends"
            );
        }
        assert_eq!(
            h.allocated_words(),
            13,
            "promoted words count toward the trigger"
        );
        h.replace_chunks(Vec::new(), 0);
        assert_eq!(h.allocated_words(), 0, "a flip resets the promoted words");
    }

    /// Capacities of `chunks` in list order.
    fn capacities(store: &ChunkStore, chunks: &[ChunkId]) -> Vec<usize> {
        chunks.iter().map(|&c| store.chunk(c).capacity()).collect()
    }

    /// Each cursor's first chunk is one page; every refill takes a chunk holding as
    /// many words as the cursor has placed, so the cursor's words double per refill
    /// until its chunks reach the default size, where they stay. A flip starts the
    /// schedule over, and an object larger than the next step is placed by one
    /// refill sized for it.
    #[test]
    fn refills_double_from_one_page_to_the_default_chunk() {
        let store = ChunkStore::new(8 * 1024);
        let tile = Header::new(6, 0, ObjKind::Tuple); // 8 words: tiles every chunk
        let schedule = [512, 512, 1024, 2048, 4096, 8192, 8192];
        let words: usize = schedule.iter().sum();

        // Owner cursor.
        let h = Heap::new(HeapId(0), HeapId::NONE, 0);
        for _ in 0..words / tile.size_words() {
            h.alloc_obj(&store, tile);
        }
        assert_eq!(capacities(&store, &h.chunks()), schedule);

        // Promotion cursor, across several sessions.
        let p = Heap::new(HeapId(1), HeapId::NONE, 0);
        for _ in 0..words / tile.size_words() / 64 {
            let mut batch = p.batch_alloc(&store);
            for _ in 0..64 {
                batch.alloc(tile);
            }
        }
        assert_eq!(capacities(&store, &p.chunks()), schedule);

        // A flip restarts the owner's schedule at one page.
        h.replace_chunks(Vec::new(), 0);
        h.alloc_obj(&store, tile);
        assert_eq!(capacities(&store, &h.chunks()), [512]);

        // An object bigger than the next step (here one page) gets one chunk that
        // fits it, and becomes the cursor's chunk.
        let big = Header::new(2998, 0, ObjKind::ArrayData); // 3000 words
        let p = h.alloc_obj(&store, big);
        assert_eq!(capacities(&store, &h.chunks()), [512, 4096]);
        assert_eq!(p.chunk(), h.chunks()[1]);
        let after = h.alloc_obj(&store, tile);
        assert_eq!(
            after.chunk(),
            p.chunk(),
            "the refill for the big object is current"
        );
    }
}
