//! Memory chunks.
//!
//! A [`Chunk`] is a contiguous block of 64-bit words into which objects are allocated by
//! bumping a cursor. Heaps (in `hh-heaps`) are linked lists of chunks; joining two heaps
//! moves chunks between lists without copying, exactly as in the paper's implementation
//! section ("a heap is a linked-list of variable-sized memory regions called chunks").
//!
//! Each chunk records the heap that allocated it (`owner`). Resolving the *current* heap
//! of an object — after any number of heap joins — is the job of the heap registry; the
//! chunk only remembers where the object was born.
//!
//! Each chunk also carries one packed collection tag, `epoch << 2 | {FROM, TO}` (see
//! [`ChunkGcState`]): `FROM` marks live data of the zone that collection `epoch`
//! evacuates, `TO` its one to-space. A collection needs nothing more, because it
//! evacuates one zone heap into one to-space.

use crate::objptr::ObjPtr;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};

/// Identifier of a chunk inside a [`ChunkStore`](crate::store::ChunkStore).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ChunkId(pub u32);

/// Raw heap id meaning "no heap" (used before a chunk is adopted and in tests).
pub const RAW_HEAP_NONE: u32 = u32::MAX;

/// Decoded per-chunk collection state (see [`Chunk::gc_state`]).
///
/// A collection stamps every chunk it involves with its own *epoch* (drawn from
/// [`crate::ChunkStore::next_gc_epoch`]), so membership tests during the evacuation
/// are one atomic load on the chunk instead of hash-set probes, and nothing ever
/// needs to be cleared: a later collection simply stamps a later epoch, and a stale
/// stamp reads as [`ChunkGcState::Outside`].
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ChunkGcState {
    /// The chunk is not involved in the collection of the given epoch.
    Outside,
    /// From-space of the collection: live data of the zone, to be evacuated.
    FromSpace,
    /// To-space of the collection: the chunk holds copies made by this collection
    /// (or a large object it promoted in place).
    ToSpace,
}

/// Bit layout of the packed collection-state word: `epoch << 2 | flags`.
const GC_FLAG_FROM: u64 = 0b01;
const GC_FLAG_TO: u64 = 0b10;
const GC_EPOCH_SHIFT: u32 = 2;

/// A diagnostic snapshot of one chunk's lifecycle and collection state, taken by
/// [`Chunk::forensics`]. Invariant checkers attach this to their reports so a
/// violation seen once in a thousand serve runs carries enough context (who owned
/// the chunk, which run it was attributed to, which collection last tagged it and
/// as what) to be diagnosed post-mortem instead of re-run.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct ChunkForensics {
    /// The chunk's id.
    pub chunk: ChunkId,
    /// Raw heap id recorded on the chunk (allocation-time owner, pre-merge).
    pub owner: u32,
    /// Run epoch the chunk is attributed to (0 = untracked).
    pub run_tag: u64,
    /// Reuse generation at snapshot time.
    pub generation: u32,
    /// Whether the chunk was retired at snapshot time.
    pub retired: bool,
    /// Collection epoch of the last gc tag stamped on the chunk (0 = never tagged
    /// or recycled since).
    pub gc_epoch: u64,
    /// FROM bit of the last gc tag.
    pub gc_from: bool,
    /// TO bit of the last gc tag.
    pub gc_to: bool,
}

impl std::fmt::Display for ChunkForensics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let phase = match (self.gc_from, self.gc_to) {
            (false, false) => "untagged",
            (true, false) => "FROM",
            (false, true) => "TO",
            (true, true) => "FROM|TO",
        };
        write!(
            f,
            "chunk {} (owner {}, run_tag {}, gen {}, {}, gc epoch {} {})",
            self.chunk.0,
            self.owner,
            self.run_tag,
            self.generation,
            if self.retired { "retired" } else { "active" },
            self.gc_epoch,
            phase,
        )
    }
}

/// A fixed-capacity block of atomically accessed words with bump allocation.
pub struct Chunk {
    id: ChunkId,
    /// Raw id of the heap this chunk was allocated into (interpreted by `hh-heaps`).
    owner: AtomicU32,
    /// Set when the chunk is activated for a root heap (see [`Chunk::is_root_owned`]).
    root_owned: std::sync::atomic::AtomicBool,
    /// Next free word index.
    top: AtomicUsize,
    /// True once the chunk's contents have been retired by a collection; retained only
    /// for accounting (stale pointers must no longer be dereferenced).
    retired: std::sync::atomic::AtomicBool,
    /// Reuse generation: 0 for a freshly minted chunk, bumped on every recycle
    /// (reuse). Lets tests and debug checks detect stale [`ObjPtr`]s that
    /// survived past a chunk's reuse horizon (the pointer itself carries no
    /// generation, but the chunk it claims to point into does).
    generation: AtomicU32,
    /// Intrusive link used by the store's lock-free free lists (Treiber stacks).
    /// `u32::MAX` means "not linked". Only the store touches this field, and only
    /// while the chunk is in the free state.
    pub(crate) free_next: AtomicU32,
    /// Packed epoch-tagged collection state (see [`ChunkGcState`]). Written during
    /// zone assembly (from-space) and by to-space allocation; read by every
    /// `forward` step of a collection. Never cleared — a stale epoch decodes as
    /// [`ChunkGcState::Outside`].
    gc_tag: AtomicU64,
    /// Run epoch of the run this chunk is currently allocated on behalf of, or 0
    /// when the chunk is not attributed to an epoch-tracked run. Set at activation,
    /// read at retirement (the quarantine stamp) and by the cross-run debug check.
    run_tag: AtomicU64,
    words: Box<[AtomicU64]>,
}

impl Chunk {
    /// Creates a zero-filled chunk of `n_words` words owned by raw heap `owner`.
    pub fn new(id: ChunkId, owner: u32, n_words: usize) -> Chunk {
        Chunk::with_words(id, owner, (0..n_words).map(|_| AtomicU64::new(0)).collect())
    }

    /// Creates a chunk over an already zero-filled `words` buffer, which the store
    /// builds before it reserves the chunk's id.
    pub(crate) fn with_words(id: ChunkId, owner: u32, words: Box<[AtomicU64]>) -> Chunk {
        assert!(
            words.len() <= crate::MAX_CHUNK_WORDS,
            "a chunk of {} words would set the forwarding slot's pending bit in its offsets",
            words.len()
        );
        Chunk {
            id,
            owner: AtomicU32::new(owner),
            root_owned: std::sync::atomic::AtomicBool::new(false),
            top: AtomicUsize::new(0),
            retired: std::sync::atomic::AtomicBool::new(false),
            generation: AtomicU32::new(0),
            free_next: AtomicU32::new(u32::MAX),
            gc_tag: AtomicU64::new(0),
            run_tag: AtomicU64::new(0),
            words,
        }
    }

    /// This chunk's id.
    #[inline]
    pub fn id(&self) -> ChunkId {
        self.id
    }

    /// Total capacity in words.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.words.len()
    }

    /// Number of words already allocated.
    #[inline]
    pub fn used(&self) -> usize {
        self.top.load(Ordering::Relaxed).min(self.capacity())
    }

    /// Words still available for allocation.
    #[inline]
    pub fn free(&self) -> usize {
        self.capacity() - self.used()
    }

    /// Raw id of the heap this chunk was allocated into.
    #[inline]
    pub fn owner(&self) -> u32 {
        self.owner.load(Ordering::Acquire)
    }

    /// True if the heap this chunk was activated for is a root of its hierarchy.
    /// No promotion ever copies an object of a root heap (no heap is shallower),
    /// so its objects are never forwarded by one. `false` says nothing: a chunk
    /// that joined a root heap later, or whose owner did not say, stays `false`.
    #[inline]
    pub fn is_root_owned(&self) -> bool {
        self.root_owned.load(Ordering::Relaxed)
    }

    /// Records that the chunk's owner is a root heap. Called by the owner right
    /// after activation, before any object in the chunk is reachable; a recycle
    /// clears it.
    #[inline]
    pub fn set_root_owned(&self) {
        self.root_owned.store(true, Ordering::Relaxed);
    }

    /// Re-points the chunk at a (possibly merged) heap. Used for path compression by the
    /// heap registry and when to-space chunks are adopted by their heap after a flip.
    #[inline]
    pub fn set_owner(&self, raw_heap: u32) {
        self.owner.store(raw_heap, Ordering::Release);
    }

    /// Compare-and-set the owner; used for lock-free path compression.
    #[inline]
    pub fn compare_set_owner(&self, expected: u32, new: u32) -> bool {
        self.owner
            .compare_exchange(expected, new, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Marks the chunk as retired (its contents were evacuated by a collection).
    pub fn retire(&self) {
        self.retired.store(true, Ordering::Release);
    }

    /// Atomically transitions the chunk to retired; returns `true` for exactly one
    /// caller, making retirement accounting race-free.
    pub(crate) fn try_retire(&self) -> bool {
        self.retired
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// True if the chunk has been retired.
    pub fn is_retired(&self) -> bool {
        self.retired.load(Ordering::Acquire)
    }

    /// The chunk's reuse generation: 0 until the chunk's first reuse, then one
    /// more per reuse. An `ObjPtr` formed while the chunk was in an earlier generation
    /// is stale and must not be dereferenced.
    #[inline]
    pub fn generation(&self) -> u32 {
        self.generation.load(Ordering::Acquire)
    }

    /// Run epoch this chunk is currently attributed to (0 = untracked). See
    /// [`Chunk::set_run_tag`].
    #[inline]
    pub fn run_tag(&self) -> u64 {
        self.run_tag.load(Ordering::Acquire)
    }

    /// Attributes the chunk to the run that holds `epoch`. The store sets this at
    /// activation (mint / reuse) from the allocating heap's run tag; retirement
    /// reads it back as the quarantine stamp, so a chunk becomes reusable exactly
    /// when its owning run — the only run whose tasks may hold `ObjPtr`s into it —
    /// has disposed.
    #[inline]
    pub fn set_run_tag(&self, epoch: u64) {
        self.run_tag.store(epoch, Ordering::Release);
    }

    /// The packed tag of collection `epoch` with phase `flag`. The tag holds
    /// 64 - `GC_EPOCH_SHIFT` epoch bits; beyond that the shift truncates and every
    /// tag would decode as Outside (2^62 collections away, but enforce the bound
    /// rather than rely on it silently).
    #[inline]
    fn gc_tag_of(epoch: u64, flag: u64) -> u64 {
        debug_assert!(
            epoch < 1 << (64 - GC_EPOCH_SHIFT),
            "GC epoch exceeds the chunk tag's epoch field"
        );
        (epoch << GC_EPOCH_SHIFT) | flag
    }

    /// Stamps this chunk as **from-space** of the collection `epoch`. Called during
    /// zone assembly, before any collector worker starts evacuating (the `Release`
    /// store pairs with the `Acquire` load in [`Chunk::gc_state`]).
    #[inline]
    pub fn set_gc_from_space(&self, epoch: u64) {
        self.gc_tag
            .store(Self::gc_tag_of(epoch, GC_FLAG_FROM), Ordering::Release);
    }

    /// Stamps this chunk as **to-space** of the collection `epoch`. Called by the
    /// allocating collector worker before the chunk becomes reachable through any
    /// forwarding pointer.
    #[inline]
    pub fn set_gc_to_space(&self, epoch: u64) {
        self.gc_tag
            .store(Self::gc_tag_of(epoch, GC_FLAG_TO), Ordering::Release);
    }

    /// Atomically retags this chunk from **from-space** to **to-space** of the same
    /// collection `epoch` — the in-place promotion of a dedicated large-object
    /// chunk, whose single object is transferred wholesale instead of being copied.
    /// The CAS arbitrates racing evacuators: exactly one caller wins (and performs
    /// the transfer bookkeeping); losers re-read the tag and find the object
    /// already in to-space.
    #[inline]
    pub fn try_gc_promote_in_place(&self, epoch: u64) -> bool {
        self.gc_tag
            .compare_exchange(
                Self::gc_tag_of(epoch, GC_FLAG_FROM),
                Self::gc_tag_of(epoch, GC_FLAG_TO),
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
    }

    /// Decodes this chunk's collection state **with respect to** collection `epoch`:
    /// one atomic load replaces the old per-object `HashSet` membership probe and
    /// `heap_of` resolution. A tag stamped by any other (earlier or concurrent)
    /// collection decodes as [`ChunkGcState::Outside`] — distinct collections use
    /// distinct epochs and disjoint zones, so tags never need clearing.
    #[inline]
    pub fn gc_state(&self, epoch: u64) -> ChunkGcState {
        let tag = self.gc_tag.load(Ordering::Acquire);
        if tag >> GC_EPOCH_SHIFT != epoch {
            ChunkGcState::Outside
        } else if tag & GC_FLAG_TO != 0 {
            ChunkGcState::ToSpace
        } else {
            ChunkGcState::FromSpace
        }
    }

    /// Takes a diagnostic snapshot of the chunk's lifecycle and collection state:
    /// the **raw** gc tag decoded without an epoch filter (unlike
    /// [`Chunk::gc_state`], which hides tags of other collections), plus run tag,
    /// owner, generation and retirement. Each field is an independent atomic load —
    /// the snapshot is for post-mortem reports, not synchronization.
    pub fn forensics(&self) -> ChunkForensics {
        let tag = self.gc_tag.load(Ordering::Acquire);
        ChunkForensics {
            chunk: self.id,
            owner: self.owner(),
            run_tag: self.run_tag(),
            generation: self.generation(),
            retired: self.is_retired(),
            gc_epoch: tag >> GC_EPOCH_SHIFT,
            gc_from: tag & GC_FLAG_FROM != 0,
            gc_to: tag & GC_FLAG_TO != 0,
        }
    }

    /// Resets the chunk for reuse by a new owner: the previously used word prefix is
    /// zeroed (so recycled chunks behave like fresh, zero-filled ones and stale
    /// headers read as empty objects), the bump cursor restarts at 0, the retired
    /// flag clears, and the generation advances.
    ///
    /// The caller (the store) must guarantee the reuse horizon: no stale `ObjPtr`
    /// into this chunk may be dereferenced again. In this codebase that horizon is
    /// "every run alive at the chunk's retirement has ended" — the epoch watermark
    /// of `ChunkStore::reclaim_watermark` and DESIGN.md §5.2.
    pub(crate) fn recycle(&self, new_owner: u32) {
        let used = self.used();
        for i in 0..used {
            self.words[i].store(0, Ordering::Relaxed);
        }
        // Hygiene only: a stale tag would decode as Outside anyway (epochs are
        // never reissued), but a recycled chunk starts with a clean slate. The run
        // tag is cleared too — the store re-stamps it for the new owner's run.
        self.gc_tag.store(0, Ordering::Relaxed);
        self.run_tag.store(0, Ordering::Relaxed);
        self.root_owned.store(false, Ordering::Relaxed);
        self.generation.fetch_add(1, Ordering::AcqRel);
        self.owner.store(new_owner, Ordering::Release);
        self.retired.store(false, Ordering::Release);
        // Publish the cleared words and state before the cursor restart makes the
        // chunk allocatable again.
        self.top.store(0, Ordering::Release);
    }

    /// Attempts to reserve `n_words` contiguous words, returning the starting offset.
    ///
    /// Allocation within a chunk is thread-safe (a fetch-add with a capacity check) so
    /// that promotions — which allocate into *ancestor* heaps while holding the heap's
    /// write lock — do not race with the owning task's allocations unsafely. Over-bumps
    /// are benign: the cursor may exceed capacity transiently but no slot beyond the
    /// capacity is ever handed out.
    pub fn try_bump(&self, n_words: usize) -> Option<u32> {
        debug_assert!(n_words > 0);
        let start = self.top.fetch_add(n_words, Ordering::AcqRel);
        if start + n_words <= self.capacity() {
            Some(start as u32)
        } else {
            None
        }
    }

    /// The word at index `i`.
    #[inline]
    pub fn word(&self, i: usize) -> &AtomicU64 {
        &self.words[i]
    }

    /// True if the object pointer refers to a word range inside this chunk.
    pub fn contains(&self, ptr: ObjPtr) -> bool {
        !ptr.is_null() && ptr.chunk() == self.id && (ptr.offset() as usize) < self.used()
    }
}

impl std::fmt::Debug for Chunk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Chunk")
            .field("id", &self.id)
            .field("owner", &self.owner())
            .field("used", &self.used())
            .field("capacity", &self.capacity())
            .field("retired", &self.is_retired())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn bump_allocates_disjoint_ranges() {
        let c = Chunk::new(ChunkId(0), 5, 100);
        let a = c.try_bump(10).unwrap();
        let b = c.try_bump(20).unwrap();
        assert_eq!(a, 0);
        assert_eq!(b, 10);
        assert_eq!(c.used(), 30);
        assert_eq!(c.free(), 70);
    }

    #[test]
    fn bump_fails_when_full() {
        let c = Chunk::new(ChunkId(0), 0, 16);
        assert!(c.try_bump(16).is_some());
        assert!(c.try_bump(1).is_none());
    }

    #[test]
    fn bump_exact_boundary() {
        let c = Chunk::new(ChunkId(0), 0, 8);
        assert_eq!(c.try_bump(8), Some(0));
        assert!(c.try_bump(1).is_none());
    }

    #[test]
    fn words_are_zero_initialized() {
        let c = Chunk::new(ChunkId(1), 0, 64);
        for i in 0..64 {
            assert_eq!(c.word(i).load(Ordering::Relaxed), 0);
        }
    }

    #[test]
    fn owner_changes_visible() {
        let c = Chunk::new(ChunkId(2), 7, 8);
        assert_eq!(c.owner(), 7);
        c.set_owner(9);
        assert_eq!(c.owner(), 9);
        assert!(c.compare_set_owner(9, 11));
        assert!(!c.compare_set_owner(9, 13));
        assert_eq!(c.owner(), 11);
    }

    #[test]
    fn contains_checks_chunk_and_range() {
        let c = Chunk::new(ChunkId(3), 0, 32);
        c.try_bump(4).unwrap();
        assert!(c.contains(ObjPtr::new(ChunkId(3), 0)));
        assert!(c.contains(ObjPtr::new(ChunkId(3), 3)));
        assert!(!c.contains(ObjPtr::new(ChunkId(3), 4)));
        assert!(!c.contains(ObjPtr::new(ChunkId(4), 0)));
        assert!(!c.contains(ObjPtr::NULL));
    }

    #[test]
    fn retire_flag() {
        let c = Chunk::new(ChunkId(0), 0, 8);
        assert!(!c.is_retired());
        c.retire();
        assert!(c.is_retired());
    }

    #[test]
    fn gc_state_roundtrips_and_respects_epochs() {
        let c = Chunk::new(ChunkId(0), 0, 16);
        assert_eq!(c.gc_state(1), ChunkGcState::Outside, "untagged chunk");
        c.set_gc_from_space(7);
        assert_eq!(c.gc_state(7), ChunkGcState::FromSpace);
        assert_eq!(c.gc_state(8), ChunkGcState::Outside, "stale epoch");
        assert_eq!(
            c.gc_state(6),
            ChunkGcState::Outside,
            "future tag, old epoch"
        );
        assert!(
            !c.try_gc_promote_in_place(8),
            "promotion needs this epoch's FROM"
        );
        assert!(c.try_gc_promote_in_place(7));
        assert_eq!(c.gc_state(7), ChunkGcState::ToSpace);
        assert!(!c.try_gc_promote_in_place(7), "one promoter wins");
        c.set_gc_to_space(8);
        assert_eq!(c.gc_state(8), ChunkGcState::ToSpace);
        assert_eq!(
            c.gc_state(7),
            ChunkGcState::Outside,
            "old epoch overwritten"
        );
        // The epoch field is 62 bits wide: epochs past the old 2^46 bound, up
        // to the last one, round-trip.
        for epoch in [1 << 46, (1 << 62) - 1] {
            c.set_gc_from_space(epoch);
            assert_eq!(c.gc_state(epoch), ChunkGcState::FromSpace);
            assert_eq!(c.gc_state(epoch - 1), ChunkGcState::Outside);
            assert_eq!(c.forensics().gc_epoch, epoch);
        }
        // Recycling clears the tag.
        c.retire();
        c.recycle(2);
        assert_eq!(c.gc_state(8), ChunkGcState::Outside);
    }

    #[test]
    fn recycle_resets_contents_and_bumps_generation() {
        let c = Chunk::new(ChunkId(0), 3, 64);
        let off = c.try_bump(8).unwrap() as usize;
        c.word(off).store(0xDEAD_BEEF, Ordering::Relaxed);
        c.set_root_owned();
        c.retire();
        assert_eq!(c.generation(), 0);
        c.recycle(9);
        assert_eq!(c.generation(), 1);
        assert_eq!(c.owner(), 9);
        assert!(!c.is_retired());
        assert!(
            !c.is_root_owned(),
            "the new owner says whether it is a root"
        );
        assert_eq!(c.used(), 0);
        assert_eq!(
            c.word(off).load(Ordering::Relaxed),
            0,
            "old data must be gone"
        );
        // The chunk allocates from the start again, like a fresh one.
        assert_eq!(c.try_bump(4), Some(0));
    }

    #[test]
    fn concurrent_bump_no_overlap() {
        let c = Arc::new(Chunk::new(ChunkId(0), 0, 100_000));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                let mut offsets = Vec::new();
                for _ in 0..1000 {
                    if let Some(o) = c.try_bump(7) {
                        offsets.push(o);
                    }
                }
                offsets
            }));
        }
        let mut all: Vec<u32> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        // Every reservation is 7 words, so successive offsets differ by at least 7.
        for w in all.windows(2) {
            assert!(
                w[1] >= w[0] + 7,
                "overlapping reservations: {} {}",
                w[0],
                w[1]
            );
        }
    }
}
