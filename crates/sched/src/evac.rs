//! The shared evacuation engine (GC v3) — **one** copy of the span pack/steal
//! loop, the team-member body, the idle-termination protocol and the synchronous
//! collection driver ([`EvacEngine::collect`]), consumed by both the hierarchical
//! collector (`hh-runtime`'s `collect_heap`) and the flat baseline collector
//! (`hh-baselines`' `par_semispace_collect`).
//!
//! GC v2 (PR 5) grew this machinery twice — once per collector — and its
//! trigger-preregistration race had to be fixed in both copies. The engine
//! factors the duplicated ~1.7k lines down to one implementation. A collection
//! evacuates one zone into **one** to-space, owned by a [`ToSpaceOwner`]: the
//! collected heap for the hierarchical runtime (every zone is one leaf heap,
//! since a child heap joins its parent when its task ends), the global heap for
//! the flat baselines. The two collectors differ only in that value; everything
//! else lives here:
//!
//! * **one private to-space cursor per member** — each team member
//!   bump-allocates copies into chunks of its own, which the engine allocates
//!   for the owner and stamps `ToSpace` for this collection's epoch, so
//!   membership tests stay one atomic chunk-metadata load;
//! * **scan blocks** — contiguous spans of fully written copies, published on a
//!   per-member [`SpanDeque`] (the scheduler's Chase–Lev [`crate::queue::Deque`]
//!   over two-word elements) once [`SCAN_BLOCK_WORDS`] accumulate; idle members
//!   steal blocks from busy ones through the scheduler's own victim scan,
//!   wavefront-style;
//! * **the CAS forwarding race** — concurrent members (or mutators, below)
//!   racing to evacuate one object resolve through
//!   [`hh_objmodel::ObjView::try_set_fwd`]; the loser retags its copy as an
//!   opaque filler and adopts the winner's;
//! * **idle-based termination** — [`TeamSync`]: all registered members idle ∧
//!   all deques empty ⇒ no work can ever appear again.
//!
//! ## Two drive modes
//!
//! **Synchronous team** (GC v2's shape, ablation A6 of the hierarchical
//! runtime): [`EvacEngine::collect`], the one driver. It hands the helper body to
//! the caller's drafter (pool jobs for the hierarchical runtime, a pause-work
//! offer to parked mutators for the stop-the-world baselines), runs the trigger
//! member in the caller's frame, awaits the team, merges and retires the
//! from-space. Mutators are quiescent throughout.
//!
//! **Incremental / mutator-concurrent** (GC v3): the initial pause only seeds
//! the roots ([`EvacEngine::seed_roots`]); mutators then resume against the
//! still-unscanned wavefront. Three engine entry points keep that sound:
//!
//! * [`EvacEngine::barrier_forward`] — the mutator write barrier: before any
//!   field write touching a FROM-tagged chunk, the object (and, for pointer
//!   stores, the value) is forwarded on access. This closes the lost-update
//!   race of concurrent evacuation (mutator writes from-space original after
//!   the collector copied its fields but before the forwarding install).
//! * [`EvacEngine::drain_increment`] — a bounded slice of the scan wavefront,
//!   run at mutator safepoints and by idle pool workers. The pause cost of any
//!   single call is ~one scan block (plus at most one oversized object).
//! * [`EvacEngine::finalize`] — retires the collection: closes increments,
//!   drains the residue, and waits out in-flight barrier operations before the
//!   caller merges and retires the from-space. The quiescence handshake is a
//!   Dekker-style store/load protocol on two `SeqCst` flags (`closed`,
//!   `retired`) against the in-flight counters; see the method docs.
//!
//! Scanners in mutator-concurrent mode rewrite pointer fields by **CAS**
//! ([`hh_objmodel::ObjView::cas_field_ptr`]) instead of a plain store: a
//! concurrent mutator pointer store must win (its value was pre-forwarded by
//! the write barrier), so a failed CAS is skipped, never retried.
//!
//! DESIGN.md §9 (team protocol) and §11 (incremental protocol) give the full
//! correctness arguments.

use crate::queue::{steal_other, Span, SpanDeque};
use crate::team::TeamSync;
use hh_objmodel::{Chunk, ChunkGcState, ChunkId, ChunkStore, Header, ObjPtr, ObjView, OFF_FIELDS};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// A member flushes the unscanned tail of its current to-space chunk to its
/// deque (making it stealable) whenever it grows past this many words. Blocks
/// therefore carry at least this much scan work (except final tails), keeping
/// steal traffic amortized over hundreds of objects. It is also the unit of
/// incremental draining: one [`EvacEngine::drain_increment`] budget is
/// expressed in multiples of this.
pub const SCAN_BLOCK_WORDS: u32 = 512;

/// Flag bit (in a span's second word) marking a **raw pointer-range** span:
/// `start..end` are word offsets of consecutive pointer *fields* of one large
/// object, not an object-header walk. See [`pack_raw_span`].
const SPAN_RAW_PTRS: u64 = 1 << 63;

#[inline]
fn pack_span(chunk: ChunkId, start: u32, end: u32) -> Span {
    (((chunk.0 as u64) << 32) | start as u64, end as u64)
}

/// Packs a raw pointer-range span. Ordinary spans are parsed by walking object
/// headers from `start`, which forces a whole object to be scanned by one
/// party in one go — unacceptable for a multi-thousand-word array inside a
/// bounded increment. An object's pointer fields are a contiguous word prefix
/// (`OFF_FIELDS .. OFF_FIELDS + n_ptr`), so a large object's scan work is
/// instead published as raw ranges over that prefix, splittable at *any* word:
/// increments honor their budget exactly and team members parallelize the
/// scan of a single huge object.
#[inline]
fn pack_raw_span(chunk: ChunkId, start: u32, end: u32) -> Span {
    (
        ((chunk.0 as u64) << 32) | start as u64,
        end as u64 | SPAN_RAW_PTRS,
    )
}

#[inline]
fn span_is_raw(span: Span) -> bool {
    span.1 & SPAN_RAW_PTRS != 0
}

#[inline]
fn unpack_span(span: Span) -> (ChunkId, u32, u32) {
    (ChunkId((span.0 >> 32) as u32), span.0 as u32, span.1 as u32)
}

/// The owner of a collection's to-space: every chunk the engine allocates for
/// copies is owned by heap `raw` and attributed to run `run_tag` (see
/// [`ChunkStore::alloc_chunk_for_run`]), so survivors keep their placement, and
/// is marked root-owned when the owner is a root heap (see
/// [`Chunk::is_root_owned`]), as the owner's own allocation chunks are.
#[derive(Copy, Clone, Debug)]
pub struct ToSpaceOwner {
    /// Raw id of the owning heap.
    pub raw: u32,
    /// Run epoch the to-space chunks are attributed to (0 = untracked).
    pub run_tag: u64,
    /// True if the owner is a root heap.
    pub root: bool,
}

/// One member's private to-space cursor.
#[derive(Default)]
struct ToCursor {
    /// Chunks this member allocated, in allocation order.
    chunks: Vec<ChunkId>,
    /// Current bump chunk, held by `Arc` so the per-copy path performs no
    /// chunk-table lookup.
    current: Option<Arc<Chunk>>,
    /// End offset of the last fully written copy in `current`. Everything
    /// below it is walkable: completed survivors or scrubbed race-loser
    /// fillers.
    filled: u32,
    /// Offset up to which spans of `current` have been handed out for
    /// scanning.
    scanned: u32,
    /// Words this member placed in the to-space: copies, race-loser fillers,
    /// and large objects promoted in place.
    words: usize,
}

/// One member's collection state: its to-space cursor plus statistics.
#[derive(Default)]
struct EvacWorker {
    to: ToCursor,
    /// Words of survivors this member won (excludes race-loser fillers).
    copied_words: u64,
    /// Words of large objects this member promoted in place (dedicated chunks
    /// retagged to-space instead of copied).
    inplace_words: u64,
    /// Words wasted on evacuation-race losses.
    waste_words: u64,
    /// Scan blocks this member stole from other members' deques.
    steal_blocks: u64,
    /// Xorshift state for randomized steal-victim order.
    rng: u64,
}

/// Merged result of one evacuation: the to-space chunk list plus statistics.
#[derive(Default)]
pub struct EvacOutcome {
    /// The to-space chunks (a partially filled bump chunk last, so the owner
    /// resumes allocation from it).
    pub chunks: Vec<ChunkId>,
    /// Words occupying the to-space (`copied + inplace + waste`): the owner's
    /// allocation volume after the collection.
    pub occupied_words: usize,
    /// Words of live data copied (survivors; excludes evacuation-race waste).
    pub copied_words: u64,
    /// Words of live large objects promoted in place (their dedicated chunks
    /// were retagged to-space and handed over wholesale, never copied).
    pub inplace_words: u64,
    /// Words wasted on evacuation-race losses (opaque fillers).
    pub waste_words: u64,
    /// Scan blocks stolen between members (0 for a solo collection).
    pub steal_blocks: u64,
}

/// The evacuation engine: shared state of one collection, driven either by a
/// synchronous team or incrementally under running mutators (see the module
/// docs).
pub struct EvacEngine {
    owner: ToSpaceOwner,
    store: Arc<ChunkStore>,
    /// This collection's epoch (chunk tags are tested against it).
    epoch: u64,
    /// One scan-block deque per slot (owner pushes/pops, others steal). The
    /// barrier slot's deque is owned by whichever thread holds the barrier
    /// slot's mutex — lock hand-off gives successive owners the release/
    /// acquire edge the deque's owner-side contract needs.
    deques: Vec<SpanDeque>,
    /// One private state per slot (locked by its member for a synchronous
    /// collection; locked per-operation by incremental drains and barriers).
    slots: Vec<Mutex<EvacWorker>>,
    sync: TeamSync,
    /// Set once every root has been forwarded; checked before merging to catch
    /// any regression of the trigger pre-registration (a team terminating
    /// without the trigger would retire the zone with all live data).
    roots_seeded: AtomicBool,
    /// Install forwarding by CAS (more than one evacuating party); plain store
    /// when single-threaded.
    concurrent: bool,
    /// Mutators run during the collection: scanners must CAS pointer rewrites
    /// and the barrier/drain/finalize surface is live.
    mutator_concurrent: bool,
    /// Stops new [`EvacEngine::drain_increment`] slices (finalize has taken
    /// over the remaining wavefront).
    closed: AtomicBool,
    /// Stops new [`EvacEngine::barrier_forward`] operations (the collection is
    /// complete; every reachable from-space object carries a forwarding
    /// pointer).
    retired: AtomicBool,
    /// In-flight [`EvacEngine::drain_increment`] calls.
    drain_inflight: AtomicUsize,
    /// In-flight [`EvacEngine::barrier_forward`] calls.
    barrier_inflight: AtomicUsize,
}

impl EvacEngine {
    /// Creates the engine for one collection whose to-space `owner` owns.
    ///
    /// `members` is the team size (slot 0 is the trigger); a
    /// `mutator_concurrent` engine gets one extra hidden slot through which
    /// [`EvacEngine::barrier_forward`] evacuates. The trigger is
    /// **pre-registered** ([`TeamSync::with_trigger`]): helper jobs are
    /// published before the trigger runs its member body, and a fast helper
    /// alone must not be able to terminate the team before the roots have
    /// seeded the wavefront.
    pub fn new(
        owner: ToSpaceOwner,
        store: Arc<ChunkStore>,
        epoch: u64,
        members: usize,
        mutator_concurrent: bool,
    ) -> EvacEngine {
        let slots = members + usize::from(mutator_concurrent);
        EvacEngine {
            owner,
            store,
            epoch,
            deques: (0..slots).map(|_| SpanDeque::new()).collect(),
            slots: (0..slots)
                .map(|slot| {
                    Mutex::new(EvacWorker {
                        rng: 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(slot as u64 + 1) | 1,
                        ..EvacWorker::default()
                    })
                })
                .collect(),
            sync: TeamSync::with_trigger(),
            roots_seeded: AtomicBool::new(false),
            concurrent: members > 1 || mutator_concurrent,
            mutator_concurrent,
            closed: AtomicBool::new(false),
            retired: AtomicBool::new(false),
            drain_inflight: AtomicUsize::new(0),
            barrier_inflight: AtomicUsize::new(0),
        }
    }

    /// This collection's epoch (callers test chunk tags against it).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of team member slots (excluding the hidden barrier slot).
    fn member_slots(&self) -> usize {
        self.slots.len() - usize::from(self.mutator_concurrent)
    }

    /// The hidden barrier slot's index.
    fn barrier_slot(&self) -> usize {
        debug_assert!(self.mutator_concurrent);
        self.slots.len() - 1
    }

    /// Makes a freshly allocated chunk part of this collection's to-space.
    fn activate(&self, chunk: &Chunk) {
        chunk.set_gc_to_space(self.epoch);
        if self.owner.root {
            chunk.set_root_owned();
        }
    }

    // --- The copy step (shared by every drive mode). -------------------------

    /// Allocates a copy of `header` in `w`'s to-space, returning the pointer,
    /// the chunk it landed in, and whether that chunk is a dedicated
    /// large-object chunk. Mirrors the placement rules of heap allocation:
    /// large objects get dedicated chunks without displacing the bump chunk.
    fn alloc_to(
        &self,
        w: &mut EvacWorker,
        my_slot: usize,
        header: Header,
    ) -> (ObjPtr, Arc<Chunk>, bool) {
        let ToSpaceOwner { raw, run_tag, .. } = self.owner;
        let to = &mut w.to;
        let size = header.size_words();
        to.words += size;
        if self.store.needs_dedicated_chunk(header) {
            let (chunk, ptr) = self.store.alloc_dedicated_for_run(raw, header, run_tag);
            self.activate(&chunk);
            to.chunks.push(chunk.id());
            return (ptr, chunk, true);
        }
        if let Some(cur) = &to.current {
            if let Some(ptr) = self.store.alloc_in_chunk_for_copy(cur, header) {
                return (ptr, Arc::clone(cur), false);
            }
        }
        // Current chunk absent or full: open a new one. Flush the old chunk's
        // unscanned tail first — `take_tail` only looks at the *current* chunk,
        // so scan work left behind in a retired cursor would otherwise be lost.
        if let Some(prev) = &to.current {
            if to.filled > to.scanned {
                self.deques[my_slot].push(pack_span(prev.id(), to.scanned, to.filled));
            }
        }
        let chunk = self.store.alloc_chunk_for_run(raw, size, run_tag);
        self.activate(&chunk);
        to.chunks.push(chunk.id());
        to.current = Some(Arc::clone(&chunk));
        to.filled = 0;
        to.scanned = 0;
        let ptr = self
            .store
            .alloc_in_chunk_for_copy(&chunk, header)
            .expect("fresh to-space chunk too small for the object it was sized for");
        (ptr, chunk, false)
    }

    /// Publishes the pointer-field prefix of a large object (one alone in its
    /// dedicated chunk) as raw pointer-range blocks of at most
    /// [`SCAN_BLOCK_WORDS`] each, so no single increment or steal swallows the
    /// whole object.
    fn push_ptr_prefix_spans(&self, my_slot: usize, obj: ObjPtr, n_ptr: usize) {
        let first = obj.offset() + OFF_FIELDS as u32;
        let end = first + n_ptr as u32;
        let mut off = first;
        while off < end {
            let stop = (off + SCAN_BLOCK_WORDS).min(end);
            self.deques[my_slot].push(pack_raw_span(obj.chunk(), off, stop));
            off = stop;
        }
    }

    /// Records a completed (fully written, forwarding-resolved) copy: advances
    /// the member's filled boundary and publishes scan blocks. Called for
    /// winners *and* scrubbed race losers — both are walkable and must be
    /// covered by some span so block walks stay contiguous. `dedicated` is
    /// `Some(n_ptr)` when the copy sits alone in a dedicated chunk (race
    /// losers pass `Some(0)` — a filler is never scanned).
    fn complete_copy(
        &self,
        w: &mut EvacWorker,
        my_slot: usize,
        copy: ObjPtr,
        size: usize,
        dedicated: Option<usize>,
    ) {
        if let Some(n_ptr) = dedicated {
            // Dedicated chunks hold exactly one object; publish its pointer
            // prefix in bounded raw ranges.
            self.push_ptr_prefix_spans(my_slot, copy, n_ptr);
            return;
        }
        let to = &mut w.to;
        debug_assert_eq!(to.filled, copy.offset(), "out-of-order copy completion");
        to.filled = copy.offset() + size as u32;
        if to.filled - to.scanned >= SCAN_BLOCK_WORDS {
            let chunk = to.current.as_ref().expect("completing into no chunk").id();
            self.deques[my_slot].push(pack_span(chunk, to.scanned, to.filled));
            to.scanned = to.filled;
        }
    }

    /// `cheneyCopy` — the hash-free, race-tolerant step. Returns the relocated
    /// address of `obj` with respect to this collection.
    ///
    /// * a chunk tag of `ToSpace` identifies a copy made by this collection —
    ///   reuse it;
    /// * `Outside` identifies an object beyond the zone — an ancestor heap, a
    ///   copy made by an earlier *promotion* (reusing it eliminates the
    ///   duplicate left in the subtree), or, defensively, any unrelated heap;
    /// * `FromSpace` is live data of the zone: follow its forwarding chain if
    ///   one exists, otherwise evacuate it into the to-space and race to
    ///   install the forwarding pointer.
    fn forward(&self, w: &mut EvacWorker, my_slot: usize, obj: ObjPtr) -> ObjPtr {
        if obj.is_null() {
            return ObjPtr::NULL;
        }
        let mut cur = obj;
        loop {
            let chunk = self.store.chunk(cur.chunk());
            if chunk.gc_state(self.epoch) != ChunkGcState::FromSpace {
                // Case 1: already a to-space copy made by this collection.
                // Case 2: outside the collection zone.
                return cur;
            }
            let v = ObjView::new(chunk, cur.offset());
            // Follow forwarding chains (they may lead to a promotion copy above
            // us, to a to-space copy, or to another from-space object of the
            // zone).
            let fwd = v.fwd();
            if !fwd.is_null() {
                cur = fwd;
                continue;
            }
            // Case 3a: a live large object fills a dedicated chunk of its own
            // (the store's placement invariant for anything over the default
            // chunk size), so it can be transferred wholesale: retag the chunk
            // to-space and hand the object to the scan wavefront. This skips
            // both the copy and — the expensive part under running mutators —
            // a dedicated-chunk mint inside a bounded pause. The object never
            // moves, so no forwarding pointer is installed; the chunk-tag CAS
            // arbitrates racing evacuators, and a loser re-reads the tag as
            // `ToSpace` on its next loop iteration. Chunks already retired
            // (quarantine rescues) are excluded: their lifecycle belongs to
            // the store, so their objects are copied out as usual.
            let header = v.header();
            let size = header.size_words();
            if self.store.needs_dedicated_chunk(header) && !chunk.is_retired() {
                if chunk.try_gc_promote_in_place(self.epoch) {
                    // The retirement test above races with the store (a
                    // quarantine rescue may retire the chunk between the load
                    // and the CAS). Promoting a retired chunk in place would
                    // hand its id to the finalizer's adopt list while the
                    // store's reclamation also owns it — the same
                    // double-ownership shape as the end_run overlap race
                    // (DESIGN.md §11.5). Re-check after winning and revert.
                    if chunk.is_retired() {
                        chunk.set_gc_from_space(self.epoch);
                        continue;
                    }
                    w.to.words += size;
                    w.to.chunks.push(cur.chunk());
                    w.inplace_words += size as u64;
                    self.push_ptr_prefix_spans(my_slot, cur, header.n_ptr());
                    return cur;
                }
                continue;
            }
            // Case 3b: live from-space object — evacuate it into the to-space,
            // then race to publish the copy.
            let (copy, copy_chunk, dedicated) = self.alloc_to(w, my_slot, header);
            let cv = ObjView::new(&copy_chunk, copy.offset());
            for f in 0..header.n_fields() {
                cv.set_field(f, v.field(f));
            }
            let won = if self.concurrent {
                v.try_set_fwd(copy).is_ok()
            } else {
                v.set_fwd(copy);
                true
            };
            if won {
                w.copied_words += size as u64;
                let ded = dedicated.then(|| header.n_ptr());
                self.complete_copy(w, my_slot, copy, size, ded);
                return copy;
            }
            // Another party won the race: our copy is unreachable. Retag it as
            // an opaque filler so scans and invariant walks never interpret its
            // fields as pointers, keep it covered by the span (walkers must be
            // able to step over it), and adopt the winner's copy.
            cv.retag_as_filler();
            w.waste_words += size as u64;
            self.complete_copy(w, my_slot, copy, size, dedicated.then_some(0));
            cur = v.fwd();
            debug_assert!(!cur.is_null(), "lost the forwarding race to a NULL");
        }
    }

    /// Walks every object of a scan block, forwarding its pointer fields. The
    /// block covers only fully written copies (winners and scrubbed fillers),
    /// starts and ends at object boundaries, and is owned exclusively by this
    /// member (deque removal is exactly-once).
    ///
    /// Under quiescent mutators (synchronous mode) plain field stores suffice.
    /// Under running mutators the rewrite is a CAS: a concurrent mutator
    /// pointer store must win — its value was pre-forwarded by the write
    /// barrier — so a failed CAS is skipped, never retried.
    fn scan_span(&self, w: &mut EvacWorker, my_slot: usize, span: Span) {
        let mut budget = usize::MAX;
        self.scan_span_bounded(w, my_slot, span, &mut budget);
    }

    /// As [`EvacEngine::scan_span`], but stops at an object boundary once
    /// `budget` words have been walked, pushing the span's remainder back onto
    /// this member's deque. A single call therefore scans at most `budget`
    /// words plus one oversized object — and large objects never appear whole:
    /// anything over the default chunk size is published as raw pointer-range
    /// spans (see [`pack_raw_span`]), which split at any word, so those honor
    /// the budget exactly.
    fn scan_span_bounded(
        &self,
        w: &mut EvacWorker,
        my_slot: usize,
        span: Span,
        budget: &mut usize,
    ) {
        let (chunk_id, start, end) = unpack_span(span);
        let chunk = Arc::clone(self.store.chunk(chunk_id));
        if span_is_raw(span) {
            // Consecutive pointer fields of one large object: forward each
            // word, CAS-rewriting under running mutators exactly as the
            // object walk below does.
            let mut off = start;
            while off < end {
                if *budget == 0 {
                    self.deques[my_slot].push(pack_raw_span(chunk_id, off, end));
                    return;
                }
                let word = chunk.word(off as usize);
                let old = ObjPtr::from_bits(word.load(Ordering::Acquire));
                let new = self.forward(w, my_slot, old);
                if new != old {
                    if self.mutator_concurrent {
                        let _ = word.compare_exchange(
                            old.to_bits(),
                            new.to_bits(),
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        );
                    } else {
                        word.store(new.to_bits(), Ordering::Release);
                    }
                }
                off += 1;
                *budget -= 1;
            }
            return;
        }
        let mut off = start;
        while off < end {
            if *budget == 0 {
                // Out of budget mid-span: hand the rest back as a fresh block.
                self.deques[my_slot].push(pack_span(chunk_id, off, end));
                return;
            }
            let v = ObjView::new(&chunk, off);
            let header = v.header();
            for f in 0..header.n_ptr() {
                let old = v.field_ptr(f);
                let new = self.forward(w, my_slot, old);
                if new != old {
                    if self.mutator_concurrent {
                        v.cas_field_ptr(f, old, new);
                    } else {
                        v.set_field_ptr(f, new);
                    }
                }
            }
            let size = header.size_words() as u32;
            off += size;
            *budget = budget.saturating_sub(size as usize);
        }
    }

    /// Claims the unscanned tail of this member's current chunk, if any.
    fn take_tail(w: &mut EvacWorker) -> Option<Span> {
        let to = &mut w.to;
        if to.filled <= to.scanned {
            return None;
        }
        let chunk = to.current.as_ref().expect("filled words without a chunk");
        let span = pack_span(chunk.id(), to.scanned, to.filled);
        to.scanned = to.filled;
        Some(span)
    }

    /// Flushes the unscanned tail of `w` onto this member's deque, making the
    /// work visible to other parties. Incremental drains and barriers must do
    /// this before releasing their slot: the slot may next be claimed by a
    /// different thread (or inspected by finalize), and a tail is otherwise
    /// invisible.
    fn flush_tail(&self, w: &mut EvacWorker, my_slot: usize) {
        if let Some(span) = Self::take_tail(w) {
            self.deques[my_slot].push(span);
        }
    }

    /// The one drain step of every loop below: the newest block on this slot's own
    /// deque, else the unscanned tail of `w`'s current chunk, else (if `steal`) a block
    /// stolen from another slot through the shared victim scan, counted in
    /// `steal_blocks`.
    fn next_span(&self, w: &mut EvacWorker, slot: usize, steal: bool) -> Option<Span> {
        if let Some(span) = self.deques[slot].pop() {
            return Some(span);
        }
        if let Some(span) = Self::take_tail(w) {
            return Some(span);
        }
        if !steal {
            return None;
        }
        let span = steal_other(&self.deques, slot, &mut w.rng)?;
        w.steal_blocks += 1;
        Some(span)
    }

    // --- Synchronous team mode. ----------------------------------------------

    /// The team-member body: process own blocks, then own tails, then steal;
    /// announce idle when nothing is visible and terminate when the whole team
    /// is idle with empty deques.
    fn member_loop(&self, w: &mut EvacWorker, slot: usize) {
        loop {
            if let Some(span) = self.next_span(w, slot, true) {
                self.scan_span(w, slot, span);
                continue;
            }
            // Nothing visible: announce idle and wait for either work or
            // termination.
            self.sync.enter_idle();
            let finished = loop {
                if self.sync.is_done() {
                    break true;
                }
                if self.deques.iter().any(|d| !d.is_empty()) {
                    self.sync.exit_idle();
                    break false;
                }
                if self.sync.all_idle() && self.deques.iter().all(|d| d.is_empty()) {
                    // Every member idle and no block queued: idle members
                    // create no work, so this state is stable — the collection
                    // is complete.
                    self.sync.finish();
                    break true;
                }
                std::thread::yield_now();
            };
            if finished {
                break;
            }
        }
    }

    /// Runs one synchronous collection of the zone stamped `FromSpace` for
    /// `epoch` (its chunks are `from_space`) on a team of `members`, retires the
    /// from-space and returns the merged to-space for the caller to install.
    ///
    /// With `members > 1`, `draft` receives the helper body, publishes it to up
    /// to `members - 1` threads as `body(1) .. body(members - 1)`, and returns;
    /// a late or out-of-range slot bounces. A team of one never drafts, and its
    /// forwarding install is a plain store. The trigger (slot 0) then runs in
    /// the caller's frame, where `seed` applies the forward step to every root.
    /// It is pre-registered and non-idle throughout seeding, so a fast helper
    /// that finds no work can never finish the collection before the roots
    /// have seeded the wavefront.
    pub fn collect(
        owner: ToSpaceOwner,
        store: &Arc<ChunkStore>,
        epoch: u64,
        members: usize,
        from_space: &[ChunkId],
        draft: impl FnOnce(Arc<dyn Fn(usize) + Send + Sync>),
        seed: impl FnOnce(&mut dyn FnMut(ObjPtr) -> ObjPtr),
    ) -> EvacOutcome {
        let engine = Arc::new(Self::new(owner, Arc::clone(store), epoch, members, false));
        if members > 1 {
            let team = Arc::clone(&engine);
            draft(Arc::new(move |slot| team.run_helper(slot)));
        }
        engine.run_trigger(seed);
        engine.await_team();
        let outcome = engine.merge();
        engine.retire_from_space(from_space);
        outcome
    }

    /// Runs the triggering member (slot 0): seeds the roots through `seed`,
    /// then works the wavefront to termination.
    fn run_trigger(&self, seed: impl FnOnce(&mut dyn FnMut(ObjPtr) -> ObjPtr)) {
        // Depart on drop (unwind included): a trigger killed mid-collection
        // must still count as departed, or a later `await_team` caller would
        // spin forever on its registration.
        let _depart = self.sync.depart_on_drop();
        let mut w = self.slots[0].lock();
        seed(&mut |p| self.forward(&mut w, 0, p));
        self.roots_seeded.store(true, Ordering::Release);
        self.member_loop(&mut w, 0);
    }

    /// Runs a drafted helper member. A helper arriving after the collection
    /// finished (stale injector job) registers nothing and returns
    /// immediately; a slot beyond the team size likewise bounces.
    fn run_helper(&self, slot: usize) {
        if slot == 0 || slot >= self.member_slots() {
            return;
        }
        if !self.sync.try_register() {
            return;
        }
        // As in `run_trigger`: a helper that panics out of its member loop
        // (contained by the pool's worker shield) must not leave a dangling
        // registration behind.
        let _depart = self.sync.depart_on_drop();
        let mut w = self.slots[slot].lock();
        self.member_loop(&mut w, slot);
    }

    /// Blocks until every registered member has departed (only the triggering
    /// thread calls this, after its own member body returned). After this, all
    /// per-member state is owned by the caller again.
    fn await_team(&self) {
        self.sync.await_departures();
        debug_assert!(
            self.roots_seeded.load(Ordering::Acquire),
            "evacuation team finished without the trigger forwarding the roots"
        );
    }

    // --- Incremental / mutator-concurrent mode. ------------------------------

    /// Seeds the roots (the only stop-the-world work of an incremental
    /// collection): forwards every root through the supplied closure, then
    /// publishes the resulting scan blocks. Mutators may resume as soon as
    /// this returns; the remaining wavefront drains through
    /// [`EvacEngine::drain_increment`] / [`EvacEngine::barrier_forward`] /
    /// [`EvacEngine::finalize`].
    pub fn seed_roots(&self, seed: impl FnOnce(&mut dyn FnMut(ObjPtr) -> ObjPtr)) {
        debug_assert!(
            self.mutator_concurrent,
            "seed_roots on a synchronous engine"
        );
        let mut w = self.slots[0].lock();
        seed(&mut |p| self.forward(&mut w, 0, p));
        // Publish the seeded tail: increments from any thread must see it.
        self.flush_tail(&mut w, 0);
        self.roots_seeded.store(true, Ordering::Release);
    }

    /// Drains up to `budget_words` of the remaining scan wavefront (plus at
    /// most one oversized object), on behalf of whichever member slot is free.
    /// Returns `true` if the caller observed the wavefront empty — a hint to
    /// attempt [`EvacEngine::finalize`]; the authoritative quiescence check
    /// lives there.
    ///
    /// Called from mutator safepoints and idle pool workers. If every slot is
    /// busy (other threads are draining) or finalize has closed the engine,
    /// the call is a no-op returning `false`.
    pub fn drain_increment(&self, budget_words: usize) -> bool {
        self.drain_inflight.fetch_add(1, Ordering::SeqCst);
        if self.closed.load(Ordering::SeqCst) {
            self.drain_inflight.fetch_sub(1, Ordering::SeqCst);
            return false;
        }
        let mut claimed = None;
        for slot in 0..self.member_slots() {
            if let Some(w) = self.slots[slot].try_lock() {
                claimed = Some((slot, w));
                break;
            }
        }
        let Some((slot, mut w)) = claimed else {
            self.drain_inflight.fetch_sub(1, Ordering::SeqCst);
            return false;
        };
        let mut budget = budget_words;
        let drained = loop {
            if budget == 0 {
                break false;
            }
            let Some(span) = self.next_span(&mut w, slot, true) else {
                break true;
            };
            self.scan_span_bounded(&mut w, slot, span, &mut budget);
        };
        // The slot may be claimed by a different thread next: leave no work
        // hidden in its tail.
        self.flush_tail(&mut w, slot);
        drop(w);
        self.drain_inflight.fetch_sub(1, Ordering::SeqCst);
        drained
    }

    /// The mutator write barrier: forwards `obj` on access (installing its
    /// forwarding pointer if this is the first touch), returning the relocated
    /// address — or `None` if the collection has already been retired, in
    /// which case the caller falls back to the ordinary forwarding-chain
    /// resolution (every reachable from-space object carries one by then).
    ///
    /// The in-flight counter and the `retired` flag form a Dekker-style
    /// handshake with [`EvacEngine::finalize`]: an operation that saw
    /// `retired == false` is visible in `barrier_inflight` to the finalizer's
    /// subsequent wait, so the engine is never dismantled under a live
    /// barrier operation.
    pub fn barrier_forward(&self, obj: ObjPtr) -> Option<ObjPtr> {
        self.barrier_inflight.fetch_add(1, Ordering::SeqCst);
        if self.retired.load(Ordering::SeqCst) {
            self.barrier_inflight.fetch_sub(1, Ordering::SeqCst);
            return None;
        }
        let slot = self.barrier_slot();
        let mut w = self.slots[slot].lock();
        let res = self.forward(&mut w, slot, obj);
        // Flush after *every* operation: the barrier slot runs no member loop,
        // so an unflushed tail here would never be scanned.
        self.flush_tail(&mut w, slot);
        drop(w);
        if self.closed.load(Ordering::SeqCst) {
            // Finalize is draining toward quiescence: consume our own spill so
            // an operation that raced past finalize's empty-deques check
            // leaves no orphaned work behind its inflight decrement.
            self.drain_own(slot);
        }
        self.barrier_inflight.fetch_sub(1, Ordering::SeqCst);
        Some(res)
    }

    /// Drains this slot's own deque (and any tails its scans spill) to empty.
    fn drain_own(&self, slot: usize) {
        let mut w = self.slots[slot].lock();
        while let Some(span) = self.next_span(&mut w, slot, false) {
            self.scan_span(&mut w, slot, span);
        }
    }

    /// Solo-drains the whole wavefront (own deque, tails, steals) on slot 0.
    fn drain_solo(&self) {
        let mut w = self.slots[0].lock();
        while let Some(span) = self.next_span(&mut w, 0, true) {
            self.scan_span(&mut w, 0, span);
        }
        self.flush_tail(&mut w, 0);
    }

    /// Retires an incremental collection: drains the remaining wavefront to
    /// empty (with the write barrier still active — disabling it any earlier
    /// would reopen the lost-update race for the residue), then quiesces the
    /// barrier surface. On return the engine holds the complete evacuation:
    /// every reachable from-space object carries a forwarding pointer, no
    /// operation is in flight, and the caller may [`EvacEngine::merge`] and
    /// retire the from-space.
    ///
    /// Quiescence handshake (all `SeqCst`):
    /// 1. `closed := true`; wait `drain_inflight == 0`. New drain increments
    ///    bounce; in-flight ones flushed their tails before decrementing, so
    ///    their work is visible in the deques.
    /// 2. Loop: solo-drain; stop once *deques empty* then
    ///    `barrier_inflight == 0` (in that order). A barrier operation that
    ///    decremented before the counter read either flushed its spill before
    ///    our deque check (we saw it) or observed `closed` and self-drained
    ///    ([`EvacEngine::barrier_forward`]); one still in flight holds the
    ///    counter up. Either way no orphaned work can hide behind the
    ///    observation.
    /// 3. `retired := true`; wait `barrier_inflight == 0` again (Dekker: an
    ///    operation that saw `retired == false` is counted), then mop up
    ///    defensively. Post-quiescence operations find forwarding chains
    ///    already installed — the wavefront was complete — so they create no
    ///    new work.
    pub fn finalize(&self) {
        debug_assert!(self.mutator_concurrent, "finalize on a synchronous engine");
        self.closed.store(true, Ordering::SeqCst);
        while self.drain_inflight.load(Ordering::SeqCst) != 0 {
            std::thread::yield_now();
        }
        loop {
            self.drain_solo();
            if self.deques.iter().all(|d| d.is_empty())
                && self.barrier_inflight.load(Ordering::SeqCst) == 0
            {
                break;
            }
            std::thread::yield_now();
        }
        self.retired.store(true, Ordering::SeqCst);
        while self.barrier_inflight.load(Ordering::SeqCst) != 0 {
            std::thread::yield_now();
        }
        self.drain_solo();
        debug_assert!(
            self.deques.iter().all(|d| d.is_empty()),
            "work appeared after barrier retirement"
        );
    }

    // --- Merging and retirement. --------------------------------------------

    /// Merges every member's to-space into one chunk list. *A* partially filled
    /// bump chunk is moved to the end of the list — it becomes the owner's
    /// resume point; other members' partial chunks keep their unused tails
    /// (bounded internal fragmentation, reclaimed at the next collection).
    ///
    /// Call once the team has departed (synchronous mode: [`EvacEngine::collect`]
    /// does) or after [`EvacEngine::finalize`] (incremental mode); the engine
    /// must be quiescent.
    pub fn merge(&self) -> EvacOutcome {
        debug_assert!(
            self.roots_seeded.load(Ordering::Acquire),
            "merging an evacuation whose roots were never seeded"
        );
        let mut out = EvacOutcome::default();
        let mut partial = None;
        for slot in self.slots.iter() {
            let mut w = slot.lock();
            out.copied_words += w.copied_words;
            out.inplace_words += w.inplace_words;
            out.waste_words += w.waste_words;
            out.steal_blocks += w.steal_blocks;
            out.chunks.append(&mut w.to.chunks);
            out.occupied_words += w.to.words;
            if let Some(cur) = w.to.current.take() {
                partial = Some(cur.id());
            }
        }
        // To-space conservation: every occupying word is a copied survivor, an
        // in-place-promoted survivor, or an evacuation-race filler.
        debug_assert_eq!(
            out.copied_words + out.inplace_words + out.waste_words,
            out.occupied_words as u64,
            "to-space words unaccounted for"
        );
        // Resume-point invariant: heaps bump-allocate from the *last* chunk of
        // the list, so make sure that is a partially filled bump chunk, not a
        // full or dedicated chunk that happened to be merged after it.
        // Constant-time swap_remove — the list is otherwise unordered, and the
        // common single-member case already has the bump chunk last.
        if let Some(cur) = partial {
            if out.chunks.last() != Some(&cur) {
                if let Some(pos) = out.chunks.iter().position(|&c| c == cur) {
                    out.chunks.swap_remove(pos);
                    out.chunks.push(cur);
                }
            }
        }
        out
    }

    /// Retires the collection's from-space chunks `old`. Their contents stay
    /// readable until the store's reuse horizon passes (they enter the
    /// quarantine — see `ChunkStore::reclaim_watermark`), which keeps stale
    /// `ObjPtr` copies held in Rust locals harmless: they resolve through
    /// forwarding pointers on their next mutable access (DESIGN.md §2 and §5).
    /// A chunk whose tag reads `ToSpace` was promoted in place (a dedicated
    /// large-object chunk handed over wholesale): it is part of the merged
    /// to-space and is not retired.
    pub fn retire_from_space(&self, old: &[ChunkId]) {
        for &c in old {
            if self.store.chunk(c).gc_state(self.epoch) != ChunkGcState::ToSpace {
                self.store.retire_chunk(c);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hh_objmodel::ObjKind;

    #[test]
    fn span_packing_roundtrips() {
        let span = pack_span(ChunkId(7), 12, 400);
        assert_eq!(unpack_span(span), (ChunkId(7), 12, 400));
        let span = pack_span(ChunkId(u32::MAX), u32::MAX, u32::MAX);
        assert_eq!(unpack_span(span), (ChunkId(u32::MAX), u32::MAX, u32::MAX));
        assert!(!span_is_raw(span));
        let raw = pack_raw_span(ChunkId(7), 12, 400);
        assert!(span_is_raw(raw));
        assert_eq!(unpack_span(raw), (ChunkId(7), 12, 400));
    }

    /// A to-space owned by the untracked, non-root heap `raw`.
    fn owner(raw: u32) -> ToSpaceOwner {
        ToSpaceOwner {
            raw,
            run_tag: 0,
            root: false,
        }
    }

    fn build_list(store: &Arc<ChunkStore>, owner: u32, n: u64) -> (Vec<ChunkId>, ObjPtr) {
        let mut chunks = Vec::new();
        let mut cur_chunk: Option<Arc<Chunk>> = None;
        let mut list = ObjPtr::NULL;
        for i in 0..n {
            let header = Header::new(3, 2, ObjKind::Cons);
            let ptr = loop {
                if let Some(c) = &cur_chunk {
                    if let Some(p) = store.alloc_in_chunk(c, header) {
                        break p;
                    }
                }
                let c = store.alloc_chunk(owner, header.size_words());
                chunks.push(c.id());
                cur_chunk = Some(c);
            };
            let v = store.view(ptr);
            v.set_field_ptr(0, ObjPtr::NULL);
            v.set_field_ptr(1, list);
            v.set_field(2, i);
            list = ptr;
        }
        (chunks, list)
    }

    fn walk_tags(store: &Arc<ChunkStore>, mut cur: ObjPtr) -> Vec<u64> {
        let mut tags = Vec::new();
        while !cur.is_null() {
            let v = store.view(cur);
            tags.push(v.field(2));
            cur = v.field_ptr(1);
        }
        tags
    }

    #[test]
    fn solo_synchronous_evacuation_preserves_the_graph() {
        let store = Arc::new(ChunkStore::new(256));
        let raw = 9;
        let (chunks, list) = build_list(&store, raw, 5);
        let epoch = store.next_gc_epoch();
        for &c in &chunks {
            store.chunk(c).set_gc_from_space(epoch);
        }
        let mut new_root = list;
        let outcome = EvacEngine::collect(
            owner(raw),
            &store,
            epoch,
            1,
            &chunks,
            |_| panic!("a team of one drafts no helper"),
            |fwd| new_root = fwd(new_root),
        );
        assert_eq!(outcome.copied_words, 5 * 5);
        assert_eq!(outcome.waste_words, 0);
        assert_eq!(outcome.occupied_words, 25);
        assert_eq!(outcome.steal_blocks, 0);
        assert_ne!(new_root, list);
        assert!(
            chunks.iter().all(|&c| store.chunk(c).is_retired()),
            "the driver retires the from-space"
        );
        assert_eq!(walk_tags(&store, new_root), vec![4, 3, 2, 1, 0]);
    }

    #[test]
    fn two_member_evacuation_merges_with_the_bump_chunk_last() {
        const N: u64 = 2_000;
        let store = Arc::new(ChunkStore::new(256));
        let raw = 15;
        let (mut chunks, list) = build_list(&store, raw, N);
        // The list's tail points at a large array in a dedicated chunk: it is
        // reached last and promoted in place, so the trigger's own chunk list
        // ends with the dedicated chunk, not its bump chunk.
        let big_header = Header::new(300, 0, ObjKind::ArrayData);
        let (big_chunk, big) = store.alloc_dedicated(raw, big_header);
        chunks.push(big_chunk.id());
        let mut tail = list;
        while !store.view(tail).field_ptr(1).is_null() {
            tail = store.view(tail).field_ptr(1);
        }
        store.view(tail).set_field_ptr(0, big);
        let epoch = store.next_gc_epoch();
        for &c in &chunks {
            store.chunk(c).set_gc_from_space(epoch);
        }
        let mut new_root = list;
        let outcome = std::thread::scope(|s| {
            EvacEngine::collect(
                owner(raw),
                &store,
                epoch,
                2,
                &chunks,
                |work| {
                    s.spawn(move || work(1));
                },
                |fwd| new_root = fwd(new_root),
            )
        });
        assert_eq!(outcome.copied_words, N * 5);
        assert_eq!(outcome.inplace_words, big_header.size_words() as u64);
        assert_eq!(
            outcome.occupied_words as u64,
            outcome.copied_words + outcome.inplace_words + outcome.waste_words
        );
        assert_eq!(
            walk_tags(&store, new_root),
            (0..N).rev().collect::<Vec<_>>()
        );
        let mut new_tail = new_root;
        while !store.view(new_tail).field_ptr(1).is_null() {
            new_tail = store.view(new_tail).field_ptr(1);
        }
        assert_eq!(store.view(new_tail).field_ptr(0), big, "moved in place");
        assert!(outcome.chunks.contains(&big_chunk.id()));
        let last = *outcome.chunks.last().unwrap();
        assert_ne!(last, big_chunk.id(), "the resume point is a bump chunk");
        assert_eq!(store.chunk(last).capacity(), 256);
        assert_eq!(store.chunk(last).gc_state(epoch), ChunkGcState::ToSpace);
    }

    #[test]
    fn incremental_evacuation_drains_in_bounded_slices() {
        let store = Arc::new(ChunkStore::new(256));
        let raw = 11;
        let (chunks, list) = build_list(&store, raw, 200);
        let epoch = store.next_gc_epoch();
        for &c in &chunks {
            store.chunk(c).set_gc_from_space(epoch);
        }
        let engine = EvacEngine::new(owner(raw), Arc::clone(&store), epoch, 1, true);
        let roots = Mutex::new(vec![list]);
        engine.seed_roots(|fwd| {
            for r in roots.lock().iter_mut() {
                *r = fwd(*r);
            }
        });
        // Drain in small increments; each slice is bounded.
        let mut increments = 0;
        while !engine.drain_increment(64) {
            increments += 1;
            assert!(increments < 1_000, "incremental drain failed to terminate");
        }
        engine.finalize();
        let outcome = engine.merge();
        assert_eq!(outcome.copied_words, 200 * 5);
        assert!(
            increments > 1,
            "budget of 64 words must take several slices"
        );
        let new_root = roots.lock()[0];
        assert_eq!(walk_tags(&store, new_root).len(), 200);
    }

    #[test]
    fn barrier_forward_evacuates_on_access_and_bounces_after_retirement() {
        let store = Arc::new(ChunkStore::new(256));
        let raw = 13;
        let (chunks, list) = build_list(&store, raw, 3);
        let epoch = store.next_gc_epoch();
        for &c in &chunks {
            store.chunk(c).set_gc_from_space(epoch);
        }
        let engine = EvacEngine::new(owner(raw), Arc::clone(&store), epoch, 1, true);
        let roots = Mutex::new(vec![list]);
        engine.seed_roots(|fwd| {
            for r in roots.lock().iter_mut() {
                *r = fwd(*r);
            }
        });
        // A mutator touches the (already-evacuated) head through a stale
        // pointer: the barrier returns the existing copy.
        let via_barrier = engine.barrier_forward(list).expect("engine is live");
        assert_eq!(via_barrier, roots.lock()[0]);
        engine.finalize();
        assert_eq!(engine.barrier_forward(list), None, "retired engine bounces");
        let outcome = engine.merge();
        assert_eq!(outcome.copied_words, 3 * 5);
    }
}
