//! Promotion: copying data up the hierarchy to preserve disentanglement
//! (the paper's Figure 7, `writePromote` and `promote`) — **promotion v2**.
//!
//! The v1 implementation followed Figure 7 literally: one registry allocation (with
//! its heap-lookup, merge resolution, and allocation-mutex round trip), one per-heap
//! statistics update, and two global counter increments *per promoted object*, plus a
//! fresh `Vec<HeapId>` per promotion for the lock path. Promotion v2 keeps the same
//! locking protocol and the same copy order but batches everything that can be
//! batched:
//!
//! * **Batched transitive promotion** (`promote_value_batched`): the
//!   pointee's reachable closure is evacuated in one Cheney-style pass through a
//!   single allocation cursor ([`hh_heaps::BatchAlloc`]) on the target heap — one
//!   heap-accounting update and one flush of the counters per *pass*.
//! * **Forwarding-chain path compression**: whenever a chase walks a chain of two or
//!   more hops, every intermediate hop is CAS-shortcut to the chain's end
//!   ([`hh_objmodel::ObjView::compress_fwd`]), so the amortized `find_master` is
//!   O(1) even for objects promoted many times. Compressions and hops are counted
//!   (`fwd_compressions`, `fwd_hops`).
//! * **Reusable per-worker scratch** (`PromoScratch`): the lock path, the Cheney
//!   worklist, and the debug-checker's copy log live in thread-local buffers reused
//!   across promotions, so the lock path performs no heap allocation after warm-up
//!   (regression-tested via the `promo_buf_allocs` counter).
//!
//! * **One-object early-out** (`promote_leaf`): a pointee none of whose pointer
//!   fields needs promoting — every promotion of the mutator-heavy workloads — is
//!   copied with one allocation and none of the pass machinery.
//!
//! The v1 per-object path (ablation A3) was retired once the early-out covered the
//! small closures it was competitive on; DESIGN.md §7 pins its last measurement.
//! See DESIGN.md §6.

use crate::ops::Located;
use crate::runtime::Inner;
use hh_heaps::{BatchAlloc, Heap, HeapId};
use hh_objmodel::{Chunk, ChunkStore, Header, ObjPtr, ObjView};
use std::cell::RefCell;
use std::sync::atomic::{fence, Ordering};
use std::sync::Arc;

/// Per-worker scratch buffers reused across promotions (cleared, never shrunk).
#[derive(Default)]
struct PromoScratch {
    /// Heaps locked by the current `write_promote` below the top of its path,
    /// deepest first.
    locked: Vec<HeapId>,
    /// Cheney worklist of copies whose pointer fields still need scanning, with
    /// each copy's pointer-field count (saves a header reload in the scan phase).
    pending: Vec<(ObjPtr, u32)>,
    /// Debug-build invariant checker's log of the pass's copies.
    copies: Vec<ObjPtr>,
}

thread_local! {
    static SCRATCH: RefCell<PromoScratch> = RefCell::new(PromoScratch::default());
}

/// Per-pass tallies, flushed to the worker's counter shard once per promotion.
#[derive(Default)]
struct PassStats {
    objects: u64,
    hops: u64,
    compressions: u64,
}

/// A tiny per-pass cache mapping chunk ids to their depth classification relative
/// to the promotion target ("does this chunk's heap lie strictly deeper?").
///
/// Sound for the duration of one promotion pass: every heap the closure can touch
/// is an ancestor-or-self of the promoting task's heap (disentanglement), and none
/// of those heaps can be `join_heap`-merged while the pass runs — their owner tasks
/// are the promoter's own ancestors, suspended at forks that cannot complete before
/// the promoter returns. Chunk recycling is likewise impossible mid-pass (the reuse
/// horizon requires no active run). So a chunk's classification is stable for the
/// pass, and the cache turns the dominant per-field cost (`heap_of` → `resolve` →
/// `depth`, several dependent atomic loads) into one integer compare for the common
/// case of bump-allocation locality (consecutive closure objects share chunks).
struct ChunkClassCache<'s> {
    entries: [Option<(u32, bool, &'s Arc<Chunk>)>; 4],
    next: usize,
}

impl<'s> ChunkClassCache<'s> {
    fn new() -> ChunkClassCache<'s> {
        ChunkClassCache {
            entries: [None; 4],
            next: 0,
        }
    }

    #[inline]
    fn get(&self, chunk: u32) -> Option<(bool, &'s Arc<Chunk>)> {
        self.entries
            .iter()
            .flatten()
            .find(|&&(c, _, _)| c == chunk)
            .map(|&(_, deeper, r)| (deeper, r))
    }

    #[inline]
    fn insert(&mut self, chunk: u32, deeper: bool, chunk_ref: &'s Arc<Chunk>) {
        self.entries[self.next] = Some((chunk, deeper, chunk_ref));
        self.next = (self.next + 1) % self.entries.len();
    }
}

impl Inner {
    /// `writePromote` (Figure 7, lines 13–27).
    ///
    /// Preconditions, as `write_ptr_impl` just established them: `obj` is (a
    /// candidate for) the master copy of the object being written, `pointee` is the
    /// non-NULL `ptr`, and `obj`'s heap is strictly shallower than `pointee`'s.
    ///
    /// The three phases of the paper:
    /// 1. lock, in WRITE mode and bottom-up, every heap on the path from `heapOf(ptr)`
    ///    to the heap of the *current* master copy of `obj` (re-chasing forwarding
    ///    pointers that appear while we climb);
    /// 2. promote the pointee into the master's heap and store the promoted address;
    /// 3. unlock the path top-down.
    ///
    /// The lock path is recorded in a reusable per-worker buffer (no allocation on
    /// this path after warm-up) and the promotion itself runs as one batched pass
    /// (see the module docs).
    pub(crate) fn write_promote<'a>(
        &'a self,
        mut obj: Located<'a>,
        field: usize,
        ptr: ObjPtr,
        pointee: Located<'a>,
    ) {
        let store = self.registry.store();
        SCRATCH.with(|scratch| {
            let mut scratch = scratch.borrow_mut();
            let scratch = &mut *scratch;
            let caps_before =
                scratch.locked.capacity() + scratch.pending.capacity() + scratch.copies.capacity();
            scratch.locked.clear();

            // Phase 1: path locking, deepest heap first. `cur` is the top of the
            // locked path; the heaps below it go straight into the reusable buffer
            // instead of a path `Vec` materialized per climb.
            let mut cur = pointee.heap;
            cur.lock.lock_exclusive();
            loop {
                while cur.id() != obj.heap.id() {
                    let parent = cur.parent();
                    if parent.is_none() {
                        // `obj`'s heap was not an ancestor: treat the root as the end
                        // of the path (defensive — disentanglement violations would
                        // already have been detected by the depth comparison in
                        // `write_ptr_impl`).
                        break;
                    }
                    scratch.locked.push(cur.id());
                    cur = if parent == obj.heap.id() {
                        obj.heap
                    } else {
                        self.registry.heap(self.registry.resolve(parent))
                    };
                    cur.lock.lock_exclusive();
                }
                if !obj.view.has_fwd() {
                    break;
                }
                // The master moved further up while we were climbing; keep locking
                // upward from where we are.
                obj = self.locate(store.view(obj.view.fwd()));
            }

            // Phase 2: promote and publish. We hold WRITE locks on every heap between
            // the pointee and the master (inclusive), so no concurrent `findMaster`
            // can observe a half-copied object and no concurrent promotion can race
            // on the same forwarding pointers.
            let target = obj.heap;
            let target_depth = target.depth();
            self.shard().promotions.fetch_add(1, Ordering::Relaxed);
            let promoted = match self.promote_leaf(target, target_depth, pointee.view) {
                Some(copy) => copy,
                None => self.promote_value_batched(
                    target,
                    target_depth,
                    ptr,
                    &mut scratch.pending,
                    &mut scratch.copies,
                ),
            };
            obj.view.set_field(field, promoted.to_bits());

            // Phase 3: unlock top-down.
            cur.lock.unlock_exclusive();
            for h in scratch.locked.iter().rev() {
                self.registry.heap(*h).lock.unlock_exclusive();
            }
            scratch.locked.clear();

            // Regression guard: the reusable buffers grow at most a handful of times
            // per worker thread, ever; a per-promotion allocation would show up as a
            // monotonically climbing counter (see `tests/promo_alloc.rs`).
            let caps_after =
                scratch.locked.capacity() + scratch.pending.capacity() + scratch.copies.capacity();
            if caps_after != caps_before {
                self.shard()
                    .promo_buf_allocs
                    .fetch_add(1, Ordering::Relaxed);
            }
        });
    }

    /// Early-out of `promote` for a one-object closure: the root `v` (which lies below
    /// `target`) has no copy yet and every pointer field is NULL or already at or
    /// above `target_depth`, so the pass would copy exactly this object and scan
    /// nothing. Copies it with one allocation — no worklist, chunk classification
    /// cache or copy log — and flushes the counters once. Returns `None`, having
    /// changed nothing that matters, when the general pass is needed.
    fn promote_leaf(&self, target: &Heap, target_depth: u32, v: ObjView<'_>) -> Option<ObjPtr> {
        let store = self.registry.store();
        if v.has_fwd() {
            return None;
        }
        let header = v.header();
        for f in 0..header.n_ptr() {
            let p = v.field_ptr(f);
            if !p.is_null() && self.locate(store.view(p)).heap.depth() > target_depth {
                return None;
            }
        }
        let (copy, chunk) = target.batch_alloc(store).alloc_for_copy(header);
        if !self.copy_and_forward(v, ObjView::new(chunk, copy.offset()), copy, header) {
            // Lost the install to an incremental collection: the general pass
            // follows the winner's copy.
            return None;
        }
        target.note_promoted_in(1);
        let shard = self.shard();
        shard.promoted_objects.fetch_add(1, Ordering::Relaxed);
        shard
            .promoted_words
            .fetch_add(header.size_words() as u64, Ordering::Relaxed);
        self.verify_promotion(target.id(), &[copy]);
        Some(copy)
    }

    /// Copies `v`'s fields into its fresh copy `cv` (at `copy`) and installs `v`'s
    /// forwarding pointer. Returns `false` if an incremental collection forwarded
    /// `v` first; `cv` is then an unreachable filler.
    fn copy_and_forward(
        &self,
        v: ObjView<'_>,
        cv: ObjView<'_>,
        copy: ObjPtr,
        header: Header,
    ) -> bool {
        let fill = |from: usize| {
            for f in from..header.n_fields() {
                cv.set_field(f, v.field(f));
            }
        };
        if !self.incremental_active.load(Ordering::Acquire) {
            // The forwarding pointer is installed *before* the fields are filled in
            // (as in the paper): an optimistic writer that misses it wrote before
            // the copy reads the field, and one that sees it waits for our WRITE
            // locks. Concurrent `findMaster` calls cannot observe the half-filled
            // copy for the same reason, and `readImmutable` never follows
            // forwarding pointers. The fence keeps the field loads from overtaking
            // the install (it pairs with the optimistic bulk writers' fence and
            // with `cas_nonptr`'s read-modify-write).
            v.set_fwd(copy);
            fence(Ordering::SeqCst);
            fill(0);
            return true;
        }
        // An incremental collection may be evacuating `v`'s heap right now:
        // idle-worker drains install forwarding pointers without holding our write
        // locks, so the install must be a CAS, and the fields are filled *before*
        // publishing the copy (engine scanners chase forwarding chains outside our
        // locks and must never observe a half-written copy). On loss the copy is
        // retagged as an opaque filler.
        fill(0);
        self.fire_hook(crate::hooks::GcScheduleEvent::PromoteCopyFilled);
        if v.try_set_fwd(copy).is_err() {
            cv.retag_as_filler();
            return false;
        }
        // A lock-free optimistic write (`write_nonptr`, `cas_nonptr`, the bulk
        // writes) that landed on `v` between the fill and the install passed its
        // `!has_fwd()` re-check and is missing from the copy: take the non-pointer
        // fields again now that every later writer sees the pointer and waits for
        // our locks. (Pointer fields are only written under the heap lock or by
        // `v`'s own task.)
        fence(Ordering::SeqCst);
        fill(header.n_ptr());
        true
    }

    /// `promote` (Figure 7, lines 28–40) as one batched Cheney pass: the reachable
    /// closure of `root` that lies below `target` is evacuated into `target` through
    /// a single allocation cursor, and every forwarding chain walked on the way is
    /// path-compressed. Returns a pointer to a copy of `root` residing in `target`
    /// or one of its ancestors.
    fn promote_value_batched(
        &self,
        heap: &Heap,
        target_depth: u32,
        root: ObjPtr,
        pending: &mut Vec<(ObjPtr, u32)>,
        copies: &mut Vec<ObjPtr>,
    ) -> ObjPtr {
        let store: &ChunkStore = self.registry.store();
        let record_copies = self.invariants_enabled();
        pending.clear();
        copies.clear();
        let mut stats = PassStats::default();
        let mut cache = ChunkClassCache::new();

        let words;
        let result;
        {
            // One cursor for the whole pass: its words reach the heap's accounting
            // once, when it drops.
            let mut batch = heap.batch_alloc(store);
            result = self.forward_batched(
                store,
                target_depth,
                root,
                &mut batch,
                pending,
                copies,
                record_copies,
                &mut stats,
                &mut cache,
            );
            // Scan phase: fix up the pointer fields of every copy we made,
            // transitively promoting what they reach. Copy chunks always belong to
            // the target heap, so a cache miss here may classify them as
            // not-deeper without consulting the registry.
            while let Some((copy, n_ptr)) = pending.pop() {
                let chunk_id = copy.chunk().0;
                let chunk_ref = match cache.get(chunk_id) {
                    Some((_, r)) => r,
                    None => {
                        let r = store.chunk(copy.chunk());
                        cache.insert(chunk_id, false, r);
                        r
                    }
                };
                let v = ObjView::new(chunk_ref, copy.offset());
                for f in 0..n_ptr as usize {
                    let old = v.field_ptr(f);
                    let new = self.forward_batched(
                        store,
                        target_depth,
                        old,
                        &mut batch,
                        pending,
                        copies,
                        record_copies,
                        &mut stats,
                        &mut cache,
                    );
                    v.set_field_ptr(f, new);
                }
            }
            words = batch.allocated_words();
        }

        // One statistics flush per pass instead of several atomics per object.
        heap.note_promoted_in(stats.objects as usize);
        let shard = self.shard();
        shard
            .promoted_objects
            .fetch_add(stats.objects, Ordering::Relaxed);
        shard
            .promoted_words
            .fetch_add(words as u64, Ordering::Relaxed);
        if stats.hops > 0 {
            shard.fwd_hops.fetch_add(stats.hops, Ordering::Relaxed);
        }
        if stats.compressions > 0 {
            shard
                .fwd_compressions
                .fetch_add(stats.compressions, Ordering::Relaxed);
        }

        if record_copies {
            self.verify_promotion(heap.id(), copies);
            copies.clear();
        }
        result
    }

    /// One step of the batched pass: returns an existing copy of `obj` at or above
    /// `target_depth` if one exists (lines 29–31), otherwise copies `obj` through the
    /// batch cursor, installs its forwarding pointer, and schedules the copy for
    /// scanning (leaf objects with no pointer fields skip the worklist). Chains of
    /// two or more hops are compressed to their end; the depth classification is
    /// served from the per-pass chunk cache (see [`ChunkClassCache`]).
    #[allow(clippy::too_many_arguments)]
    fn forward_batched<'s>(
        &self,
        store: &'s ChunkStore,
        target_depth: u32,
        obj: ObjPtr,
        batch: &mut BatchAlloc<'_>,
        pending: &mut Vec<(ObjPtr, u32)>,
        copies: &mut Vec<ObjPtr>,
        record_copies: bool,
        stats: &mut PassStats,
        cache: &mut ChunkClassCache<'s>,
    ) -> ObjPtr {
        if obj.is_null() {
            return ObjPtr::NULL;
        }
        let mut cur = obj;
        let mut hops = 0u64;
        let resolved = loop {
            let chunk_id = cur.chunk().0;
            let (deeper, chunk_ref) = match cache.get(chunk_id) {
                Some(hit) => hit,
                None => {
                    let r = store.chunk(cur.chunk());
                    let d = self.registry.depth(self.registry.heap_of(cur)) > target_depth;
                    cache.insert(chunk_id, d, r);
                    (d, r)
                }
            };
            if !deeper {
                // Already at or above the target heap: no copy needed.
                break cur;
            }
            let v = ObjView::new(chunk_ref, cur.offset());
            if v.has_fwd() {
                cur = v.fwd();
                hops += 1;
                continue;
            }
            // Introduce a new copy in the target heap. `alloc_for_copy` leaves the
            // fields raw — `copy_and_forward` stores every one before the lock is
            // released. If an incremental collection won the install, its to-space
            // copy — still deeper than the target — is promoted on the next trip
            // around the loop.
            let header = v.header();
            let (copy, copy_chunk) = batch.alloc_for_copy(header);
            let cv = ObjView::new(copy_chunk, copy.offset());
            if !self.copy_and_forward(v, cv, copy, header) {
                cur = v.fwd();
                hops += 1;
                continue;
            }
            stats.objects += 1;
            if header.n_ptr() > 0 {
                pending.push((copy, header.n_ptr() as u32));
            }
            if record_copies {
                copies.push(copy);
            }
            break copy;
        };
        stats.hops += hops;
        if hops >= 2 {
            stats.compressions += store.compress_fwd_chain(obj, resolved);
        }
        resolved
    }
}

#[cfg(test)]
mod tests {
    use crate::hooks::{GcScheduleEvent, GcScheduleHooks};
    use crate::{HhConfig, HhRuntime};
    use hh_objmodel::{Header, ObjKind, ObjPtr};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// Stalls the promoter between filling the copy and installing the forwarding
    /// pointer until the test has landed its optimistic write.
    #[derive(Default)]
    struct FillGate {
        reached: AtomicBool,
        release: AtomicBool,
    }

    impl GcScheduleHooks for FillGate {
        fn on_event(&self, event: GcScheduleEvent) {
            if event == GcScheduleEvent::PromoteCopyFilled {
                self.reached.store(true, Ordering::Release);
                while !self.release.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            }
        }
    }

    /// A non-promoting pointer write decides against promotion on a candidate
    /// master found without a lock, and only then takes that heap's READ lock. A
    /// promotion that forwards the candidate in between must not swallow the write:
    /// after the lock the writer sees the forwarding pointer, chases on, decides
    /// again, and stores into the final master. Deterministic: the test holds the
    /// candidate's heap WRITE-locked until the writer is parked on it, promotes the
    /// candidate the way `write_promote` does, and only then releases.
    #[test]
    fn ancestor_write_racing_a_promotion_of_its_master_lands_on_the_final_master() {
        let rt = HhRuntime::new(HhConfig::eager_heaps(1));
        let inner = rt.inner();
        let reg = &inner.registry;
        let store = reg.store();
        let root = reg.new_root_heap();
        let mid = reg.new_child_heap(root);
        let leaf = reg.new_child_heap(mid);
        let holder = reg.alloc_obj(root, Header::new(1, 1, ObjKind::Ref));
        let x = reg.alloc_obj(mid, Header::new(2, 1, ObjKind::Ref));
        // At the root: never deeper than any master of `x`, so the write never promotes.
        let target = reg.alloc_obj(root, Header::new(1, 0, ObjKind::Ref));
        let (root_heap, mid_heap) = (reg.heap(root), reg.heap(mid));

        mid_heap.lock.lock_exclusive();
        std::thread::scope(|s| {
            // A task below `mid` writes into `x`, which lives in its ancestor `mid`.
            let writer = s.spawn(|| inner.write_ptr_impl(leaf, x, 0, target));
            let deadline = Instant::now() + Duration::from_secs(60);
            while !mid_heap.lock.has_parked() {
                assert!(Instant::now() < deadline, "the writer never waited on mid");
                std::thread::yield_now();
            }
            // The writer holds `x` as its candidate master. Promote `x` to the root
            // under the path's WRITE locks, as a publish into `holder` would.
            root_heap.lock.lock_exclusive();
            let copy = inner
                .promote_leaf(root_heap, 0, store.view(x))
                .expect("x has no pointer field below the root");
            store.view(holder).set_field_ptr(0, copy);
            root_heap.lock.unlock_exclusive();
            mid_heap.lock.unlock_exclusive();
            writer.join().unwrap();
        });

        let master = store.view(x).fwd();
        assert_eq!(reg.heap_of(master), root, "x's master is the root copy");
        assert_eq!(store.view(master).field_ptr(0), target, "write lost");
        assert_eq!(
            store.view(x).field_ptr(0),
            ObjPtr::NULL,
            "written to a stale copy"
        );
        assert_eq!(reg.check_disentangled().len(), 0);
    }

    /// Under an open incremental window the promoter fills the copy *before* it
    /// CAS-installs the forwarding pointer. A lock-free optimistic `write_nonptr`
    /// and `cas_nonptr` landing in between pass their `!has_fwd()` re-check, so the
    /// promoter must pick them up after the install or they are lost.
    #[test]
    fn optimistic_writes_between_fill_and_install_reach_the_master() {
        let rt = HhRuntime::new(HhConfig::incremental(1));
        let gate = Arc::new(FillGate::default());
        rt.install_gc_hooks(Arc::clone(&gate) as Arc<dyn GcScheduleHooks>);
        let inner = rt.inner();
        let reg = &inner.registry;
        let root = reg.new_root_heap();
        let mid = reg.new_child_heap(root);
        let promoter_heap = reg.new_child_heap(mid);
        let holder = reg.alloc_obj(root, Header::new(1, 1, ObjKind::Ref));
        let x = reg.alloc_obj(mid, Header::new(2, 0, ObjKind::Ref));
        inner.write_nonptr_impl(x, 1, 10);
        // A window is open somewhere in the runtime (nothing of ours is in its zone).
        inner.incremental_active.store(true, Ordering::Release);

        std::thread::scope(|s| {
            // A task two levels down publishes `x` into the root: promotes it.
            s.spawn(|| inner.write_ptr_impl(promoter_heap, holder, 0, x));
            let deadline = Instant::now() + Duration::from_secs(60);
            while !gate.reached.load(Ordering::Acquire) {
                assert!(Instant::now() < deadline, "promoter never reached the gate");
                std::thread::yield_now();
            }
            // A sibling's lock-free writes land on the not-yet-forwarded original.
            inner.write_nonptr_impl(x, 0, 42);
            assert_eq!(inner.cas_nonptr_impl(x, 1, 10, 11), Ok(10));
            gate.release.store(true, Ordering::Release);
        });
        inner.incremental_active.store(false, Ordering::Release);

        assert!(reg.store().view(x).has_fwd(), "x was promoted");
        assert_eq!(inner.read_mut_impl(x, 0), 42, "write_nonptr lost");
        assert_eq!(inner.read_mut_impl(x, 1), 11, "cas_nonptr lost");
        assert_eq!(reg.check_disentangled().len(), 0);
    }
}
