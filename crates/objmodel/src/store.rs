//! The chunk store: the global table mapping chunk ids to chunks, plus the chunk
//! memory lifecycle (free lists, recycling, release).
//!
//! This is the stand-in for MLton's address-masked chunk metadata: given an [`ObjPtr`],
//! `heapOf` needs the chunk's metadata in O(1). The store also carries the global memory
//! accounting used to reproduce the paper's Figure 13 (memory consumption and
//! inflation): total words currently held by live chunks and the peak ever reached.
//!
//! ## Chunk lifecycle
//!
//! A chunk moves through four states (see DESIGN.md §5 for the full story):
//!
//! ```text
//! fresh ──mint──▶ active ──retire──▶ quarantined ──reclaim──▶ free ──reuse──▶ active
//!                                                    │
//!                                                    └──(over max_free_words)──▶ released
//! ```
//!
//! * **active**: owned by a heap, counted in `live_words`.
//! * **quarantined**: retired by a collection. The chunk's contents stay readable —
//!   stale [`ObjPtr`]s held in Rust locals resolve to current data through the
//!   forwarding pointers the evacuation installed (the stack-map substitution,
//!   DESIGN.md §2) — so a retired chunk must not be reused while any task of the run
//!   that produced those pointers is still alive.
//! * **free**: past the reuse horizon — per run via the epoch watermark
//!   ([`ChunkStore::reclaim_watermark`], called at every run dispose) or globally at
//!   quiescence ([`ChunkStore::reclaim_retired`]) — parked on a size-classed
//!   lock-free free list and counted in `free_words`.
//! * **released**: the free pool exceeded [`ChunkStore::set_max_free_words`]; the chunk is
//!   dropped from all accounting, modelling a buffer returned to the OS. (The backing
//!   allocation itself stays in the table because `ObjPtr` resolution requires the
//!   id → chunk mapping to be stable; release is an accounting notion, exactly like
//!   retirement.)
//!
//! Reuse re-tags the chunk with its new owner, zeroes the previously used words, and
//! advances the chunk's *generation* so stale pointers from before the reuse are
//! detectable (see [`Chunk::generation`]).
//!
//! ## One acquisition path
//!
//! Every chunk request — default ([`ChunkStore::alloc_chunk`]), smaller than the
//! default ([`ChunkStore::alloc_sized_chunk_for_run`]) or oversized — takes the same
//! route: pop the request's size class's lock-free free list, check the chunk's
//! capacity, and otherwise mint one chunk at the class boundary. Minting reserves the
//! table slot with one fetch-and-add ([`AppendVec::push_with`]), so the store takes
//! no lock to hand out a chunk; its one mutex guards the quarantine.

use crate::appendvec::AppendVec;
use crate::chunk::{Chunk, ChunkId};
use crate::epoch::RunEpochs;
use crate::header::Header;
use crate::objptr::ObjPtr;
use crate::view::ObjView;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Default chunk capacity in words (64 Ki words = 512 KiB).
pub const DEFAULT_CHUNK_WORDS: usize = 64 * 1024;

/// Capacity at the bottom of size class 0 (the smallest default chunk the store
/// accepts). Class boundaries count from this fixed minimum, not from the default
/// chunk size, so chunks smaller than the default have classes of their own.
const MIN_CLASS_WORDS: usize = 16;

/// Number of size classes: class `k` holds chunks whose capacity lies in
/// `[MIN_CLASS_WORDS << k, MIN_CLASS_WORDS << (k+1))`; the top class is open-ended.
const N_CLASSES: usize = 32;

/// Size class of a chunk of `capacity` words (see [`N_CLASSES`]).
fn class_of(capacity: usize) -> usize {
    let above = (capacity / MIN_CLASS_WORDS).max(1);
    (above.ilog2() as usize).min(N_CLASSES - 1)
}

/// Smallest class every chunk of which satisfies a request of `min_words`: the
/// class whose boundary `MIN_CLASS_WORDS << k` is the first at or above it. Chunks
/// minted for a request are rounded up to that boundary, so class membership and
/// fit coincide everywhere but the open-ended top class.
fn class_for_request(min_words: usize) -> usize {
    let units = min_words.div_ceil(MIN_CLASS_WORDS).max(1);
    (units.next_power_of_two().ilog2() as usize).min(N_CLASSES - 1)
}

/// Snapshot of the store's memory accounting and chunk lifecycle state.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Words currently held by active (non-retired) chunks.
    pub live_words: usize,
    /// Highest value `live_words` has ever reached.
    pub peak_words: usize,
    /// Total words ever allocated in chunks (monotone).
    pub total_allocated_words: usize,
    /// Words currently parked on the free lists (never above
    /// [`ChunkStore::set_max_free_words`]).
    pub free_words: usize,
    /// Number of chunks ever created.
    pub chunks_created: usize,
    /// Number of retire events performed by collections (monotone; a recycled chunk
    /// can retire again).
    pub chunks_retired: usize,
    /// Number of times a free chunk was reused for a new owner (monotone).
    pub chunks_recycled: usize,
    /// Number of chunks whose buffers were released because the free pool exceeded
    /// its cap (terminal state).
    pub chunks_released: usize,
    /// Chunks currently owned by heaps.
    pub chunks_active: usize,
    /// Chunks retired but not yet past the reuse horizon.
    pub chunks_quarantined: usize,
    /// Chunks currently parked on the free lists.
    pub chunks_free: usize,
    /// Chunks whose quarantine exit (to the free lists or release) was driven by the
    /// epoch watermark ([`ChunkStore::reclaim_watermark`]) rather than by global
    /// quiescence.
    pub epoch_reclaims: usize,
    /// Runs currently registered as active with the store's [`RunEpochs`].
    pub active_runs: usize,
    /// Highest number of simultaneously active runs ever observed.
    pub active_runs_peak: usize,
    /// Words currently held by quarantined chunks — the watermark lag: memory
    /// retired but not yet past its run's reuse horizon.
    pub quarantined_words: usize,
}

/// A lock-free Treiber stack of chunk ids, linked through [`Chunk::free_next`].
///
/// The head packs `(tag << 32) | index` with `u32::MAX` as the empty index; the tag
/// advances on every successful push and pop, which rules out ABA (chunks are never
/// deallocated, so reading a stale `free_next` is harmless — the CAS then fails on
/// the tag). Deliberately no `Default`: a zeroed head would decode as "chunk 0 is
/// free", not as empty.
struct FreeStack {
    head: AtomicU64,
}

const EMPTY: u32 = u32::MAX;

impl FreeStack {
    fn new() -> FreeStack {
        FreeStack {
            head: AtomicU64::new(EMPTY as u64),
        }
    }

    fn push(&self, table: &AppendVec<Arc<Chunk>>, id: ChunkId) {
        let chunk = table.get(id.0 as usize).expect("pushing unknown chunk");
        let mut head = self.head.load(Ordering::Acquire);
        loop {
            chunk.free_next.store(head as u32, Ordering::Release);
            let next = ((head >> 32).wrapping_add(1) << 32) | id.0 as u64;
            match self
                .head
                .compare_exchange_weak(head, next, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return,
                Err(h) => head = h,
            }
        }
    }

    fn pop(&self, table: &AppendVec<Arc<Chunk>>) -> Option<ChunkId> {
        let mut head = self.head.load(Ordering::Acquire);
        loop {
            let idx = head as u32;
            if idx == EMPTY {
                return None;
            }
            let chunk = table.get(idx as usize).expect("free list holds unknown id");
            let next_idx = chunk.free_next.load(Ordering::Acquire);
            let next = ((head >> 32).wrapping_add(1) << 32) | next_idx as u64;
            match self
                .head
                .compare_exchange_weak(head, next, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return Some(ChunkId(idx)),
                Err(h) => head = h,
            }
        }
    }
}

/// The global chunk table plus memory accounting and the chunk lifecycle.
pub struct ChunkStore {
    chunks: AppendVec<Arc<Chunk>>,
    default_chunk_words: usize,
    /// Size class of a default chunk. Every chunk in it has exactly the default
    /// capacity: smaller chunks are minted at the boundary of a lower class, and
    /// oversized ones at the boundary of a higher one.
    default_class: usize,
    /// Size-classed free lists of reusable chunks.
    free: [FreeStack; N_CLASSES],
    /// Chunks retired by collections, awaiting their reuse horizon. Each record
    /// carries `retired_at`: the epoch of the run the chunk was retired on behalf of
    /// (or, for untagged chunks, the latest epoch issued at retirement). The chunk
    /// becomes reusable once the min-active-epoch watermark passes that stamp.
    quarantine: parking_lot::Mutex<Vec<(ChunkId, u64)>>,
    /// Run-epoch registry: the per-run reuse horizons (see [`RunEpochs`]).
    run_epochs: RunEpochs,
    /// Cap on `free_words`: reclaimed chunks beyond it are released instead of reused.
    max_free_words: AtomicUsize,
    /// Source of collection epochs (see [`Chunk::gc_state`]): each collection draws a
    /// fresh epoch, so concurrent collections of disjoint zones never confuse each
    /// other's chunk tags and tags never need clearing.
    gc_epochs: AtomicU64,

    // -- accounting gauges and counters ------------------------------------
    live_words: AtomicUsize,
    peak_words: AtomicUsize,
    total_words: AtomicUsize,
    free_words: AtomicUsize,
    chunks_retired: AtomicUsize,
    chunks_recycled: AtomicUsize,
    chunks_released: AtomicUsize,
    chunks_active: AtomicUsize,
    chunks_quarantined: AtomicUsize,
    chunks_free: AtomicUsize,
    epoch_reclaims: AtomicUsize,
    quarantined_words: AtomicUsize,
}

impl ChunkStore {
    /// Creates a store whose freshly allocated chunks default to `default_chunk_words`
    /// words (larger objects get a dedicated chunk of exactly the needed size).
    pub fn new(default_chunk_words: usize) -> Self {
        assert!(
            default_chunk_words >= MIN_CLASS_WORDS,
            "chunks must hold at least one small object"
        );
        ChunkStore {
            chunks: AppendVec::new(),
            default_chunk_words,
            default_class: class_of(default_chunk_words),
            free: std::array::from_fn(|_| FreeStack::new()),
            quarantine: parking_lot::Mutex::new(Vec::new()),
            run_epochs: RunEpochs::new(),
            max_free_words: AtomicUsize::new(usize::MAX),
            gc_epochs: AtomicU64::new(0),
            live_words: AtomicUsize::new(0),
            peak_words: AtomicUsize::new(0),
            total_words: AtomicUsize::new(0),
            free_words: AtomicUsize::new(0),
            chunks_retired: AtomicUsize::new(0),
            chunks_recycled: AtomicUsize::new(0),
            chunks_released: AtomicUsize::new(0),
            chunks_active: AtomicUsize::new(0),
            chunks_quarantined: AtomicUsize::new(0),
            chunks_free: AtomicUsize::new(0),
            epoch_reclaims: AtomicUsize::new(0),
            quarantined_words: AtomicUsize::new(0),
        }
    }

    /// The store's run-epoch registry. Runtimes register every run here
    /// ([`RunEpochs::begin`] / [`RunEpochs::end`]) so retired chunks can be
    /// reclaimed per run by [`ChunkStore::reclaim_watermark`] instead of waiting
    /// for global quiescence.
    pub fn run_epochs(&self) -> &RunEpochs {
        &self.run_epochs
    }

    /// Creates a store with the default chunk size.
    pub fn with_default_chunk_size() -> Self {
        Self::new(DEFAULT_CHUNK_WORDS)
    }

    /// The default chunk capacity in words.
    pub fn default_chunk_words(&self) -> usize {
        self.default_chunk_words
    }

    /// Sets the cap on the free pool: a reclaim ([`ChunkStore::reclaim_watermark`] or
    /// [`ChunkStore::reclaim_retired`]) that would push `free_words` beyond this
    /// releases the excess chunks instead of keeping them for reuse. Defaults to
    /// unlimited.
    pub fn set_max_free_words(&self, words: usize) {
        self.max_free_words.store(words, Ordering::Relaxed);
    }

    /// Mints a brand-new chunk (id == table index) in the **active** state,
    /// attributed to the run holding `run_tag` (0 = untracked).
    fn mint_active(&self, owner: u32, n_words: usize, run_tag: u64) -> Arc<Chunk> {
        // Zero the buffer before reserving the index: readers that race to the new
        // id spin only while the `Arc` is built and stored.
        let words = (0..n_words).map(|_| AtomicU64::new(0)).collect();
        let idx = self
            .chunks
            .push_with(|idx| Arc::new(Chunk::with_words(ChunkId(idx as u32), owner, words)));
        let chunk = Arc::clone(self.chunk(ChunkId(idx as u32)));
        chunk.set_run_tag(run_tag);
        self.total_words.fetch_add(n_words, Ordering::Relaxed);
        self.chunks_active.fetch_add(1, Ordering::Relaxed);
        self.note_live(n_words);
        chunk
    }

    fn note_live(&self, n_words: usize) {
        let live = self.live_words.fetch_add(n_words, Ordering::Relaxed) + n_words;
        self.peak_words.fetch_max(live, Ordering::Relaxed);
    }

    /// Moves a free chunk into the active state for `owner`, resetting and re-tagging
    /// it. Only retired chunks reach the free lists, so every activation is a reuse.
    fn activate_free(&self, id: ChunkId, owner: u32, run_tag: u64) -> Arc<Chunk> {
        let chunk = Arc::clone(self.chunk(id));
        debug_assert!(chunk.is_retired(), "free list holds a never-used chunk");
        chunk.recycle(owner);
        chunk.set_run_tag(run_tag);
        let cap = chunk.capacity();
        self.chunks_recycled.fetch_add(1, Ordering::Relaxed);
        self.free_words.fetch_sub(cap, Ordering::Relaxed);
        self.chunks_free.fetch_sub(1, Ordering::Relaxed);
        self.chunks_active.fetch_add(1, Ordering::Relaxed);
        self.note_live(cap);
        chunk
    }

    /// The one acquisition path: a chunk of at least `min_words` words for `owner`,
    /// reused from the request's size class when one is free, else minted.
    ///
    /// A request a default chunk fits gets exactly a default chunk: the default class
    /// holds nothing else, since smaller chunks are minted at the boundary of a lower
    /// class and oversized ones at the boundary of a higher one. Oversized chunks are
    /// rounded **up to their class boundary** (`MIN_CLASS_WORDS << k`), so an
    /// identical request on a rerun (the common case) pops the very chunk it retired,
    /// and they search the next class too. The capacity check matters only in the
    /// open-ended top class; a too-small chunk goes back.
    fn acquire(&self, owner: u32, min_words: usize, run_tag: u64) -> Arc<Chunk> {
        let class = class_for_request(min_words);
        let (class, mint_words, searched) = if class < self.default_class {
            (class, MIN_CLASS_WORDS << class, 1)
        } else if min_words <= self.default_chunk_words {
            (self.default_class, self.default_chunk_words, 1)
        } else {
            (class, (MIN_CLASS_WORDS << class).max(min_words), 2)
        };
        for free in self.free[class..].iter().take(searched) {
            if let Some(id) = free.pop(&self.chunks) {
                if self.chunk(id).capacity() >= min_words {
                    return self.activate_free(id, owner, run_tag);
                }
                free.push(&self.chunks, id);
            }
        }
        self.mint_active(owner, mint_words, run_tag)
    }

    /// Allocates a chunk owned by raw heap `owner`, large enough for at least
    /// `min_words` words and never smaller than the default. The chunk carries no
    /// run attribution (`run_tag` 0); heaps of epoch-tracked runs use
    /// [`ChunkStore::alloc_chunk_for_run`] instead.
    pub fn alloc_chunk(&self, owner: u32, min_words: usize) -> Arc<Chunk> {
        self.alloc_chunk_for_run(owner, min_words, 0)
    }

    /// As [`ChunkStore::alloc_chunk`], but attributes the chunk to the run holding
    /// epoch `run_tag`: retirement stamps the quarantine record with that epoch, so
    /// the chunk is reclaimed as soon as that run (and every older one) disposes.
    pub fn alloc_chunk_for_run(&self, owner: u32, min_words: usize, run_tag: u64) -> Arc<Chunk> {
        self.acquire(owner, min_words.max(self.default_chunk_words), run_tag)
    }

    /// Allocates a chunk of at least `words` words, attributed as by
    /// [`ChunkStore::alloc_chunk_for_run`], for a cursor that may need less than a
    /// default chunk. Below the default class, `words` rounds up to its size class's
    /// boundary; a request in the default chunk's class or above is an ordinary
    /// [`ChunkStore::alloc_chunk_for_run`].
    pub fn alloc_sized_chunk_for_run(&self, owner: u32, words: usize, run_tag: u64) -> Arc<Chunk> {
        self.acquire(owner, words, run_tag)
    }

    /// True if an object with `header` needs a dedicated chunk (it does not fit a
    /// default-sized one).
    #[inline]
    pub fn needs_dedicated_chunk(&self, header: Header) -> bool {
        header.size_words() > self.default_chunk_words
    }

    /// Allocates a dedicated chunk for one large object and the object inside it,
    /// returning both. Callers splice the chunk into their own chunk list *without*
    /// making it the current bump chunk, so a large-object detour never abandons a
    /// partially filled chunk (the shared body of the large-object paths in
    /// `Heap::alloc_obj`, `FlatHeap::alloc`, and both collectors' to-space
    /// allocators).
    pub fn alloc_dedicated(&self, owner: u32, header: Header) -> (Arc<Chunk>, ObjPtr) {
        self.alloc_dedicated_for_run(owner, header, 0)
    }

    /// As [`ChunkStore::alloc_dedicated`], attributed to the run holding `run_tag`
    /// (see [`ChunkStore::alloc_chunk_for_run`]).
    pub fn alloc_dedicated_for_run(
        &self,
        owner: u32,
        header: Header,
        run_tag: u64,
    ) -> (Arc<Chunk>, ObjPtr) {
        let chunk = self.alloc_chunk_for_run(owner, header.size_words(), run_tag);
        let ptr = self
            .alloc_in_chunk(&chunk, header)
            .expect("dedicated chunk too small for the object it was sized for");
        (chunk, ptr)
    }

    /// Looks up a chunk by id.
    #[inline]
    pub fn chunk(&self, id: ChunkId) -> &Arc<Chunk> {
        self.chunks
            .get(id.0 as usize)
            .expect("dangling ChunkId: chunk not present in store")
    }

    /// Number of chunks ever created (including retired ones).
    pub fn n_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Draws a fresh, never-reissued collection epoch (starting at 1, so the zero
    /// tag of a fresh chunk never matches any collection).
    pub fn next_gc_epoch(&self) -> u64 {
        self.gc_epochs.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Runs `f` over the current quarantine records `(chunk, retired_at)` **with the
    /// quarantine locked**: no chunk can be reclaimed (and recycled to a new owner)
    /// between being observed by `f` and `f` acting on it. Collections use this at
    /// zone assembly to stamp retired chunks whose owner resolves into the zone —
    /// with quiescence-free reclaim, a plain snapshot could see a chunk that the
    /// watermark hands to a new heap before the collection stamps it from-space,
    /// which would retire live data. Keep `f` short; it blocks retirement and
    /// reclamation.
    pub fn with_quarantine<R>(&self, f: impl FnOnce(&[(ChunkId, u64)]) -> R) -> R {
        f(&self.quarantine.lock())
    }

    /// Retires a chunk after its live contents were evacuated: memory accounting
    /// drops its words and the chunk enters the quarantine, stamped with its reuse
    /// horizon — the owning run's epoch (the chunk's run tag) when it has one, else
    /// the latest epoch issued (conservative: every run alive now must dispose
    /// first). [`ChunkStore::reclaim_watermark`] or [`ChunkStore::reclaim_retired`]
    /// later move it to the free lists.
    pub fn retire_chunk(&self, id: ChunkId) {
        let chunk = self.chunk(id);
        if chunk.try_retire() {
            let run_tag = chunk.run_tag();
            let retired_at = if run_tag != 0 {
                run_tag
            } else {
                self.run_epochs.stamp()
            };
            self.live_words
                .fetch_sub(chunk.capacity(), Ordering::Relaxed);
            self.quarantined_words
                .fetch_add(chunk.capacity(), Ordering::Relaxed);
            self.chunks_retired.fetch_add(1, Ordering::Relaxed);
            self.chunks_active.fetch_sub(1, Ordering::Relaxed);
            self.chunks_quarantined.fetch_add(1, Ordering::Relaxed);
            self.quarantine.lock().push((id, retired_at));
        }
    }

    /// Moves one reclaimed chunk out of quarantine accounting and onto its free list,
    /// or releases it when parking it would push the free pool over `cap_limit`.
    /// The words are reserved with one atomic update, so concurrent reclaims cannot
    /// both pass the check. Returns `true` if the chunk was parked for reuse.
    fn park_or_release(&self, id: ChunkId, cap_limit: usize) -> bool {
        let chunk = self.chunk(id);
        debug_assert!(chunk.is_retired(), "quarantine holds a non-retired chunk");
        let cap = chunk.capacity();
        self.chunks_quarantined.fetch_sub(1, Ordering::Relaxed);
        self.quarantined_words.fetch_sub(cap, Ordering::Relaxed);
        let reserved = self
            .free_words
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |free| {
                free.checked_add(cap).filter(|&w| w <= cap_limit)
            })
            .is_ok();
        if reserved {
            self.chunks_free.fetch_add(1, Ordering::Relaxed);
            self.free[class_of(cap)].push(&self.chunks, id);
        } else {
            // Over the cap: model returning the buffer to the OS. The chunk stays
            // in the table (ObjPtr resolution needs id stability) but leaves all
            // accounting for good.
            self.chunks_released.fetch_add(1, Ordering::Relaxed);
        }
        reserved
    }

    /// Takes every quarantined chunk stamped below `horizon` out of the quarantine
    /// and parks or releases it, in quarantine order. Returns the number of chunks
    /// taken and the number parked for reuse.
    fn drain_quarantine(&self, horizon: u64) -> (usize, usize) {
        let cap_limit = self.max_free_words.load(Ordering::Relaxed);
        let mut taken = Vec::new();
        self.quarantine.lock().retain(|&(id, retired_at)| {
            let keep = retired_at >= horizon;
            if !keep {
                taken.push(id);
            }
            keep
        });
        let parked = taken
            .iter()
            .filter(|&&id| self.park_or_release(id, cap_limit))
            .count();
        (taken.len(), parked)
    }

    /// Moves every quarantined chunk whose reuse horizon has passed — its
    /// `retired_at` stamp is strictly below the min-active-epoch watermark — to the
    /// free lists (or releases it over the free-pool cap). Returns the number of
    /// chunks made reusable.
    ///
    /// This is the quiescence-free reclaim: runtimes call it at every run dispose,
    /// so one run's chunks recycle while other runs are still mid-flight. Soundness:
    /// only tasks of the run a chunk was retired for can hold stale [`ObjPtr`]s into
    /// it (pointers must not cross runs — DESIGN.md §5), and `retired_at` is that
    /// run's epoch, so `retired_at < min_active` means every such task is gone.
    pub fn reclaim_watermark(&self) -> usize {
        let (taken, parked) = self.drain_quarantine(self.run_epochs.min_active());
        self.epoch_reclaims.fetch_add(taken, Ordering::Relaxed);
        parked
    }

    /// Moves every quarantined chunk to the free lists (or releases it once the free
    /// pool exceeds [`ChunkStore::set_max_free_words`]), making the memory retired by
    /// past collections available for reuse. This is the **global** horizon — the
    /// watermark drain with an unbounded horizon, used by the baselines between runs.
    ///
    /// # Reuse horizon
    ///
    /// The caller asserts that no stale [`ObjPtr`] into a quarantined chunk will be
    /// dereferenced again. Retired chunks stay readable precisely so that pointers
    /// held in Rust locals keep resolving through forwarding (DESIGN.md §2); those
    /// locals die with the tasks of the run that created them, so the runtimes call
    /// this between runs, when no task is live. Returns the number of chunks moved
    /// to the free lists.
    pub fn reclaim_retired(&self) -> usize {
        self.drain_quarantine(u64::MAX).1
    }

    /// Resolves an object pointer to a view of the object.
    ///
    /// Pointers into retired chunks remain dereferenceable until the chunk passes the
    /// reuse horizon: retirement is an accounting notion (the evacuated from-space no
    /// longer counts towards live memory), and stale pointers held outside the managed
    /// heap resolve to current data through the forwarding pointers the evacuation
    /// installed. See DESIGN.md §2 (stack-map substitution) and §5 (reuse horizon)
    /// for why this is the faithful simulation choice.
    #[inline]
    pub fn view(&self, ptr: ObjPtr) -> ObjView<'_> {
        debug_assert!(!ptr.is_null(), "dereferencing NULL ObjPtr");
        let chunk = self.chunk(ptr.chunk());
        ObjView::new(chunk, ptr.offset())
    }

    /// Allocates an object with the given header inside `chunk`, returning its pointer,
    /// or `None` if the chunk is full.
    pub fn alloc_in_chunk(&self, chunk: &Chunk, header: Header) -> Option<ObjPtr> {
        let off = chunk.try_bump(header.size_words())?;
        let ptr = ObjPtr::new(chunk.id(), off);
        let view = ObjView::new(chunk, off);
        view.init(header);
        Some(ptr)
    }

    /// As [`ChunkStore::alloc_in_chunk`], but initializes only the header and the
    /// forwarding slot, leaving the fields as the chunk's raw words (see
    /// [`ObjView::init_for_copy`]). For evacuation-style copies that overwrite every
    /// field before publishing the object; skips one store per pointer field.
    pub fn alloc_in_chunk_for_copy(&self, chunk: &Chunk, header: Header) -> Option<ObjPtr> {
        let off = chunk.try_bump(header.size_words())?;
        let ptr = ObjPtr::new(chunk.id(), off);
        ObjView::new(chunk, off).init_for_copy(header);
        Some(ptr)
    }

    /// Raw heap id recorded on the chunk containing `ptr` (the heap the object was
    /// *allocated* into; the heap registry resolves merges on top of this).
    #[inline]
    pub fn chunk_owner(&self, ptr: ObjPtr) -> u32 {
        self.chunk(ptr.chunk()).owner()
    }

    /// Follows `ptr`'s forwarding chain to its end — the newest copy — without
    /// counting hops or compressing. For cold paths (stale-pointer fallbacks, a
    /// post-retirement barrier bounce); the hop-counting hot paths compress long
    /// chains through [`ChunkStore::compress_fwd_chain`]. Every hop stays readable
    /// until the store's reuse horizon passes its chunk.
    #[inline]
    pub fn resolve_fwd(&self, mut ptr: ObjPtr) -> ObjPtr {
        loop {
            let v = self.view(ptr);
            if !v.has_fwd() {
                return ptr;
            }
            ptr = v.fwd();
        }
    }

    /// Shortcuts every hop of the forwarding chain `from → … → end` directly to
    /// `end`, returning the number of hops rewritten.
    ///
    /// `end` must be reachable from `from` by following forwarding pointers (the
    /// caller just walked the chain). Safe without any lock by the monotonicity
    /// argument of [`ObjView::compress_fwd`]; a failed CAS (a concurrent
    /// compression or chain extension won) is simply skipped — the chain is intact
    /// either way, so this never retries and never loops.
    pub fn compress_fwd_chain(&self, from: ObjPtr, end: ObjPtr) -> u64 {
        let mut walk = from;
        let mut done = 0u64;
        while walk != end {
            let v = self.view(walk);
            let next = v.fwd();
            if next.is_null() || next == end {
                break;
            }
            if v.compress_fwd(next, end) {
                done += 1;
            }
            walk = next;
        }
        done
    }

    /// Current memory accounting snapshot.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            live_words: self.live_words.load(Ordering::Relaxed),
            peak_words: self.peak_words.load(Ordering::Relaxed),
            total_allocated_words: self.total_words.load(Ordering::Relaxed),
            free_words: self.free_words.load(Ordering::Relaxed),
            chunks_created: self.chunks.len(),
            chunks_retired: self.chunks_retired.load(Ordering::Relaxed),
            chunks_recycled: self.chunks_recycled.load(Ordering::Relaxed),
            chunks_released: self.chunks_released.load(Ordering::Relaxed),
            chunks_active: self.chunks_active.load(Ordering::Relaxed),
            chunks_quarantined: self.chunks_quarantined.load(Ordering::Relaxed),
            chunks_free: self.chunks_free.load(Ordering::Relaxed),
            epoch_reclaims: self.epoch_reclaims.load(Ordering::Relaxed),
            active_runs: self.run_epochs.active_runs(),
            active_runs_peak: self.run_epochs.active_runs_peak(),
            quarantined_words: self.quarantined_words.load(Ordering::Relaxed),
        }
    }
}

impl Default for ChunkStore {
    fn default() -> Self {
        Self::with_default_chunk_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::ObjKind;
    use std::sync::Arc as StdArc;

    #[test]
    fn alloc_chunk_and_lookup() {
        let store = ChunkStore::new(1024);
        let c = store.alloc_chunk(3, 0);
        assert_eq!(c.capacity(), 1024);
        assert_eq!(c.owner(), 3);
        let looked = store.chunk(c.id());
        assert_eq!(looked.id(), c.id());
    }

    #[test]
    fn big_object_gets_dedicated_chunk() {
        let store = ChunkStore::new(64);
        let c = store.alloc_chunk(0, 1_000);
        assert!(c.capacity() >= 1_000);
    }

    #[test]
    fn alloc_object_and_view() {
        let store = ChunkStore::new(1024);
        let c = store.alloc_chunk(0, 0);
        let h = Header::new(3, 1, ObjKind::Tuple);
        let p = store.alloc_in_chunk(&c, h).unwrap();
        let v = store.view(p);
        assert_eq!(v.n_fields(), 3);
        assert_eq!(v.n_ptr(), 1);
        v.set_field(2, 99);
        assert_eq!(store.view(p).field(2), 99);
    }

    #[test]
    fn resolve_follows_forwarding_chain() {
        let store = ChunkStore::new(1024);
        let c = store.alloc_chunk(0, 0);
        let h = Header::new(1, 0, ObjKind::Ref);
        let [a, b, d] = [(); 3].map(|_| store.alloc_in_chunk(&c, h).unwrap());
        store.view(a).set_fwd(b);
        store.view(b).set_fwd(d);
        assert_eq!(store.resolve_fwd(a), d);
        assert_eq!(store.resolve_fwd(d), d);
    }

    #[test]
    fn alloc_until_full_returns_none() {
        let store = ChunkStore::new(16);
        let c = store.alloc_chunk(0, 0);
        let h = Header::new(2, 0, ObjKind::Tuple); // 4 words
        let mut count = 0;
        while store.alloc_in_chunk(&c, h).is_some() {
            count += 1;
        }
        assert_eq!(count, 4);
    }

    #[test]
    fn memory_accounting_tracks_peak_and_retire() {
        let store = ChunkStore::new(100);
        let a = store.alloc_chunk(0, 0);
        let b = store.alloc_chunk(0, 0);
        let s = store.stats();
        assert_eq!(s.live_words, 200);
        assert_eq!(s.peak_words, 200);
        store.retire_chunk(a.id());
        let s = store.stats();
        assert_eq!(s.live_words, 100);
        assert_eq!(s.peak_words, 200);
        assert_eq!(s.chunks_retired, 1);
        // Retiring twice is idempotent.
        store.retire_chunk(a.id());
        assert_eq!(store.stats().live_words, 100);
        store.retire_chunk(b.id());
        assert_eq!(store.stats().live_words, 0);
        assert_eq!(store.stats().peak_words, 200);
    }

    #[test]
    fn chunk_owner_reflects_allocation_heap() {
        let store = ChunkStore::new(64);
        let c = store.alloc_chunk(42, 0);
        let p = store
            .alloc_in_chunk(&c, Header::new(1, 0, ObjKind::Ref))
            .unwrap();
        assert_eq!(store.chunk_owner(p), 42);
    }

    #[test]
    fn concurrent_chunk_allocation_ids_are_unique_and_resolvable() {
        let store = StdArc::new(ChunkStore::new(64));
        let mut handles = Vec::new();
        for t in 0..8u32 {
            let store = StdArc::clone(&store);
            handles.push(std::thread::spawn(move || {
                let mut ids = Vec::new();
                for _ in 0..200 {
                    let c = store.alloc_chunk(t, 0);
                    ids.push(c.id());
                }
                ids
            }));
        }
        let mut all: Vec<ChunkId> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        // All returned chunks must be resolvable to a chunk with that id.
        for &id in &all {
            let c = store.chunk(id);
            assert_eq!(c.id(), id);
        }
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 8 * 200, "chunk ids must be unique");
    }

    // -- lifecycle: recycling, release, conservation --------------------------

    #[test]
    fn retire_reclaim_recycle_roundtrip() {
        let store = ChunkStore::new(128);
        let a = store.alloc_chunk(0, 0);
        let p = store
            .alloc_in_chunk(&a, Header::new(2, 0, ObjKind::Tuple))
            .unwrap();
        store.view(p).set_field(0, 7);
        let gen_before = a.generation();
        store.retire_chunk(a.id());
        // Quarantined: contents still readable, nothing reusable yet.
        assert_eq!(store.view(p).field(0), 7);
        assert_eq!(store.stats().chunks_quarantined, 1);
        assert_eq!(store.stats().free_words, 0);

        assert_eq!(store.reclaim_retired(), 1);
        let s = store.stats();
        assert_eq!(s.chunks_quarantined, 0);
        assert_eq!(s.chunks_free, 1);
        assert_eq!(s.free_words, 128);

        // The next default-sized request reuses the same buffer for the new owner.
        let b = store.alloc_chunk(9, 0);
        assert_eq!(b.id(), a.id(), "free chunk must be reused");
        assert_eq!(b.owner(), 9);
        assert_eq!(b.generation(), gen_before + 1);
        assert!(!b.is_retired());
        assert_eq!(b.used(), 0, "object area must be reset");
        let s = store.stats();
        assert_eq!(s.chunks_recycled, 1);
        assert_eq!(s.free_words, 0);
        assert_eq!(s.live_words, 128);
    }

    #[test]
    fn reclaim_releases_beyond_the_free_cap() {
        let store = ChunkStore::new(100);
        store.set_max_free_words(150); // room for one 100-word chunk, not two
        let held = [store.alloc_chunk(0, 0), store.alloc_chunk(0, 0)];
        assert_eq!(store.stats().free_words, 0);
        store.retire_chunk(held[0].id());
        store.retire_chunk(held[1].id());
        assert_eq!(store.reclaim_retired(), 1);
        let s = store.stats();
        assert_eq!(s.chunks_free, 1);
        assert_eq!(s.chunks_released, 1);
        assert_eq!(s.free_words, 100);
    }

    /// The free pool never holds more than its cap: minting parks nothing, and a
    /// reclaim reserves a chunk's words against the cap before parking it.
    #[test]
    fn free_pool_never_exceeds_its_cap() {
        let store = ChunkStore::new(64);
        store.set_max_free_words(256);
        let big = [store.alloc_chunk(0, 128), store.alloc_chunk(0, 128)];
        assert!(big.iter().all(|c| c.capacity() == 128));
        for c in &big {
            store.retire_chunk(c.id());
        }
        assert_eq!(store.reclaim_retired(), 2);
        assert_eq!(store.stats().free_words, 256, "the pool is exactly full");
        // A default request finds no default chunk free: it mints one, and parks
        // nothing beside it.
        let c = store.alloc_chunk(1, 0);
        assert_eq!(c.capacity(), 64);
        let s = store.stats();
        assert!(s.free_words <= 256, "free pool over its cap: {s:?}");
        assert_eq!(s.free_words, 256);
        assert_eq!(s.chunks_free, 2);
        // A further retiree does not fit the full pool and is released.
        store.retire_chunk(c.id());
        assert_eq!(store.reclaim_retired(), 0);
        let s = store.stats();
        assert_eq!((s.free_words, s.chunks_released), (256, 1));
    }

    #[test]
    fn oversized_chunks_recycle_through_size_classes() {
        let store = ChunkStore::new(64);
        let big = store.alloc_chunk(1, 1_000);
        let big_id = big.id();
        store.retire_chunk(big_id);
        store.reclaim_retired();
        // A default-sized request must not get the 1000-word chunk's slot…
        let small = store.alloc_chunk(2, 0);
        assert_ne!(small.id(), big_id);
        // …but a request its class can serve (class k guarantees `default << k`
        // words, here 512) reuses it.
        let again = store.alloc_chunk(3, 500);
        assert_eq!(again.id(), big_id);
        assert!(again.capacity() >= 500);
        assert_eq!(again.owner(), 3);
    }

    /// A retired sub-default chunk goes back to its own size class: default
    /// requests never get it, and the next request of its class reuses it.
    #[test]
    fn sub_default_chunks_never_serve_default_requests() {
        let store = ChunkStore::new(1024);
        let small = store.alloc_sized_chunk_for_run(1, 512, 0);
        assert_eq!(small.capacity(), 512);
        store.retire_chunk(small.id());
        assert_eq!(store.reclaim_retired(), 1);
        for _ in 0..8 {
            let c = store.alloc_chunk(2, 0);
            assert_ne!(c.id(), small.id());
            assert!(
                c.capacity() >= 1024,
                "default request got {} words",
                c.capacity()
            );
        }
        let again = store.alloc_sized_chunk_for_run(3, 300, 0);
        assert_eq!(
            again.id(),
            small.id(),
            "a 512-class request reuses the chunk"
        );
        assert_eq!(again.owner(), 3);
        // Sub-default requests round up to their class boundary; one in the
        // default's own class gets a default chunk.
        assert_eq!(store.alloc_sized_chunk_for_run(0, 20, 0).capacity(), 32);
        assert_eq!(store.alloc_sized_chunk_for_run(0, 600, 0).capacity(), 1024);
        let odd = ChunkStore::new(1000); // 512 shares a class with the default
        assert_eq!(odd.alloc_sized_chunk_for_run(0, 512, 0).capacity(), 1000);
    }

    /// chunks_created == active + quarantined + free + released, and free_words stays
    /// within its cap, at **every** point of a randomized interleaving of
    /// sub-default, default and oversized traffic — including mid-overlap, while
    /// several run epochs are active and the watermark reclaims some runs' chunks
    /// but not others'.
    #[test]
    fn prop_lifecycle_conservation() {
        let mut state = 0xFEED_FACE_0123_4567u64;
        // Discard the LCG's low bits: modulo-8 arm selection on the raw state would
        // cycle with period 8 and starve arms.
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 11
        };
        let store = ChunkStore::new(64);
        store.set_max_free_words(64 * 8);
        let mut owned: Vec<(ChunkId, u64)> = Vec::new();
        // Simulated overlapping runs: epochs currently active.
        let mut runs: Vec<u64> = Vec::new();
        for step in 0..600 {
            match next() % 8 {
                0 | 1 => {
                    // Allocate on behalf of a random active run (or untracked).
                    let tag = if runs.is_empty() || next() % 4 == 0 {
                        0
                    } else {
                        runs[(next() as usize) % runs.len()]
                    };
                    let owner = (next() % 7) as u32;
                    let (min, chunk) = match next() % 4 {
                        0 => {
                            let min = 64 + (next() % 512) as usize;
                            (min, store.alloc_chunk_for_run(owner, min, tag))
                        }
                        1 => {
                            let min = 1 + (next() % 40) as usize;
                            (min, store.alloc_sized_chunk_for_run(owner, min, tag))
                        }
                        _ => (64, store.alloc_chunk_for_run(owner, 0, tag)),
                    };
                    assert!(chunk.capacity() >= min, "{min}-word request at step {step}");
                    owned.push((chunk.id(), tag));
                }
                2 | 3 => {
                    if !owned.is_empty() {
                        let i = (next() as usize) % owned.len();
                        store.retire_chunk(owned.swap_remove(i).0);
                    }
                }
                4 => {
                    if runs.len() < 4 {
                        runs.push(store.run_epochs().begin());
                    }
                }
                5 => {
                    if !runs.is_empty() {
                        let i = (next() as usize) % runs.len();
                        let epoch = runs.swap_remove(i);
                        // Dispose: retire the run's remaining chunks, end its epoch,
                        // then advance the watermark — the runtime lifecycle.
                        let mut remaining = Vec::new();
                        owned.retain(|&(id, tag)| {
                            if tag == epoch {
                                remaining.push(id);
                                false
                            } else {
                                true
                            }
                        });
                        for id in remaining {
                            store.retire_chunk(id);
                        }
                        store.run_epochs().end(epoch);
                        store.reclaim_watermark();
                    }
                }
                6 => {
                    store.reclaim_watermark();
                }
                _ => {
                    if runs.is_empty() {
                        // Global quiescence only: the full-horizon reclaim.
                        store.reclaim_retired();
                    }
                }
            }
            let s = store.stats();
            assert_eq!(
                s.chunks_created,
                s.chunks_active + s.chunks_quarantined + s.chunks_free + s.chunks_released,
                "conservation violated at step {step}: {s:?}"
            );
            assert_eq!(s.chunks_active, owned.len(), "active count at step {step}");
            assert!(
                s.free_words <= 64 * 8,
                "free pool over its cap at step {step}: {s:?}"
            );
        }
        assert!(store.stats().chunks_recycled > 0, "recycling must occur");
        assert!(
            store.stats().chunks_released > 0,
            "release cap must trigger"
        );
        assert!(
            store.stats().epoch_reclaims > 0,
            "watermark reclaim must trigger mid-overlap"
        );
    }

    /// The watermark frees exactly the chunks whose owning run (and every older run)
    /// has disposed, while younger runs keep theirs quarantined — and never frees a
    /// chunk whose run is still active.
    #[test]
    fn watermark_reclaims_per_run_without_quiescence() {
        let store = ChunkStore::new(128);
        let a = store.run_epochs().begin();
        let b = store.run_epochs().begin();
        let ca = store.alloc_chunk_for_run(1, 0, a);
        let cb = store.alloc_chunk_for_run(2, 0, b);
        assert_eq!(ca.run_tag(), a);

        // A disposes while B is still mid-flight.
        store.retire_chunk(ca.id());
        store.run_epochs().end(a);
        assert_eq!(store.reclaim_watermark(), 1, "A's chunk passes its horizon");
        let s = store.stats();
        assert_eq!(s.epoch_reclaims, 1);
        assert_eq!(s.active_runs, 1, "B still active");

        // B's chunk retired mid-flight (as a collection would): its stamp is B's
        // epoch, and B is still active, so the watermark must hold it back.
        store.retire_chunk(cb.id());
        assert_eq!(store.reclaim_watermark(), 0, "B's horizon not reached");
        assert_eq!(store.stats().chunks_quarantined, 1);

        store.run_epochs().end(b);
        assert_eq!(store.reclaim_watermark(), 1);
        let s = store.stats();
        assert_eq!(s.chunks_quarantined, 0);
        assert_eq!(s.quarantined_words, 0);
        assert_eq!(s.active_runs_peak, 2);
    }

    /// An untagged retiree is stamped conservatively: it waits for every run alive
    /// at retirement, but not for runs that begin afterwards.
    #[test]
    fn untagged_retiree_waits_for_runs_alive_at_retirement() {
        let store = ChunkStore::new(128);
        let witness = store.alloc_chunk(0, 0).id();
        let old = store.run_epochs().begin();
        store.retire_chunk(witness); // run_tag 0 → stamped with `old`'s epoch
        assert_eq!(store.reclaim_watermark(), 0, "old run still active");
        // A run that begins after the retirement does not hold it back.
        let young = store.run_epochs().begin();
        store.run_epochs().end(old);
        assert_eq!(store.reclaim_watermark(), 1);
        store.run_epochs().end(young);
    }

    /// Eight threads recycle sub-default, default and oversized chunks through the
    /// shared free lists, each round inside its own run epoch: every handout goes
    /// to exactly one holder (a claim in a shared table must succeed), fits its
    /// request and starts empty, and the lifecycle counts balance at the end.
    #[test]
    fn concurrent_recycling_hands_each_chunk_to_one_holder() {
        const THREADS: usize = 8;
        const ROUNDS: usize = 1000;
        const REQUESTS: [usize; 3] = [20, 64, 200]; // sub-default, default, oversized
        const CAP: usize = THREADS * (32 + 64 + 256);
        let store = StdArc::new(ChunkStore::new(64));
        store.set_max_free_words(CAP);
        // Each handout mints at most one chunk, which bounds the id space.
        let claims: StdArc<Vec<std::sync::atomic::AtomicBool>> = StdArc::new(
            (0..THREADS * ROUNDS * REQUESTS.len())
                .map(|_| Default::default())
                .collect(),
        );
        // A barrier makes all eight hold their chunks at once in every round.
        // Threads record violations instead of panicking, so a failed check cannot
        // leave the others waiting at the barrier forever.
        let barrier = StdArc::new(std::sync::Barrier::new(THREADS));
        let handles: Vec<_> = (0..THREADS as u32)
            .map(|t| {
                let (store, claims) = (StdArc::clone(&store), StdArc::clone(&claims));
                let barrier = StdArc::clone(&barrier);
                std::thread::spawn(move || {
                    let mut violations = Vec::new();
                    for _ in 0..ROUNDS {
                        let epoch = store.run_epochs().begin();
                        let mut held = Vec::new();
                        for words in REQUESTS {
                            let c = store.alloc_sized_chunk_for_run(t, words, epoch);
                            if c.capacity() < words || (c.owner(), c.used()) != (t, 0) {
                                let got = (c.id(), c.capacity(), c.owner(), c.used());
                                violations.push(format!("{words}-word request got {got:?}"));
                            }
                            match claims.get(c.id().0 as usize) {
                                Some(claim) if !claim.swap(true, Ordering::AcqRel) => held.push(c),
                                _ => violations.push(format!("{:?} has two holders", c.id())),
                            }
                        }
                        barrier.wait();
                        for c in &held {
                            claims[c.id().0 as usize].store(false, Ordering::Release);
                            store.retire_chunk(c.id());
                        }
                        store.run_epochs().end(epoch);
                        store.reclaim_watermark();
                        if store.stats().free_words > CAP {
                            violations.push(format!("free pool over its cap: {:?}", store.stats()));
                        }
                    }
                    violations
                })
            })
            .collect();
        let violations: Vec<String> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        assert!(violations.is_empty(), "{violations:?}");
        store.reclaim_watermark();
        let s = store.stats();
        assert_eq!(
            s.chunks_created,
            s.chunks_active + s.chunks_quarantined + s.chunks_free + s.chunks_released,
            "conservation violated: {s:?}"
        );
        assert_eq!((s.chunks_active, s.chunks_quarantined), (0, 0), "{s:?}");
        assert!(s.free_words <= CAP, "{s:?}");
        assert!(s.chunks_recycled > 0, "nothing was recycled: {s:?}");
    }

    /// Recycling never resurrects stale `ObjPtr`s: after a chunk is reused, pointers
    /// formed against its previous generation observe a bumped generation tag and a
    /// zeroed object area rather than the old objects.
    #[test]
    fn prop_recycling_never_resurrects_stale_objptrs() {
        let mut state = 0x5151_AB1E_D00D_F00Du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        for _case in 0..32 {
            let store = ChunkStore::new(64);
            let chunk = store.alloc_chunk(0, 0);
            chunk.set_owner(1);
            let gen0 = chunk.generation();
            // Populate with objects carrying recognizable payloads.
            let mut stale: Vec<ObjPtr> = Vec::new();
            loop {
                let fields = 1 + (next() % 6) as usize;
                let Some(p) = store.alloc_in_chunk(&chunk, Header::new(fields, 0, ObjKind::Tuple))
                else {
                    break;
                };
                for f in 0..fields {
                    store.view(p).set_field(f, 0xA5A5_0000 + f as u64);
                }
                stale.push(p);
            }
            assert!(!stale.is_empty());
            store.retire_chunk(chunk.id());
            store.reclaim_retired();
            let reused = store.alloc_chunk(2, 0);
            assert_eq!(reused.id(), chunk.id());
            // Old pointers are detectably stale: the generation moved on and the old
            // headers read as zero (an empty object), so no old payload is reachable.
            assert_eq!(chunk.generation(), gen0 + 1);
            for p in stale {
                let raw_header = chunk.word(p.offset() as usize).load(Ordering::Relaxed);
                assert_eq!(raw_header, 0, "stale header must be poisoned to zero");
            }
        }
    }
}
