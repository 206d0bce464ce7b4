//! Promotion: copying data up the hierarchy to preserve disentanglement
//! (the paper's Figure 7, `writePromote` and `promote`) — **promotion v2**.
//!
//! The v1 implementation followed Figure 7 literally: one registry allocation (with
//! its heap-lookup, merge resolution, and allocation-mutex round trip), one per-heap
//! statistics update, and two global counter increments *per promoted object*, plus a
//! fresh `Vec<HeapId>` per promotion for the lock path. Promotion v2 keeps the paper's
//! copy order and batches everything that can be batched:
//!
//! * **Batched transitive promotion** (`promote_value_batched`): the
//!   pointee's reachable closure is evacuated in one Cheney-style pass through a
//!   single allocation cursor ([`hh_heaps::BatchAlloc`]) on the target heap — one
//!   heap-accounting update and one flush of the counters per *pass*.
//! * **Forwarding-chain path compression**: whenever a chase walks a chain of two or
//!   more hops, every intermediate hop is CAS-shortcut to the chain's end
//!   ([`hh_objmodel::ObjView::compress_fwd`]), so the amortized chase to the master
//!   is O(1) even for objects promoted many times. Compressions and hops are counted
//!   (`fwd_compressions`, `fwd_hops`).
//! * **Reusable per-worker scratch** (`PromoScratch`): the lock path, the Cheney
//!   worklist, and the pass's list of hops to publish live in thread-local buffers
//!   reused across promotions, so the lock path performs no heap allocation after
//!   warm-up (regression-tested via the `promo_buf_allocs` counter).
//!
//! * **One-object early-out** (`promote_leaf`): a pointee none of whose pointer
//!   fields needs promoting — every promotion of the mutator-heavy workloads — is
//!   copied with one allocation and none of the pass machinery, under a shorter
//!   lock path: the pointee's heap in WRITE mode and the target in READ mode only.
//!
//! Every hop a promotion installs is **pending** until its copy is final: right
//! after the fill for a one-object promotion, at the end of the pass for a batched
//! one. The promoter WRITE-holds the original's heap until it publishes the hop, so
//! the lock-free accesses of `ops.rs` wait on that heap instead of reading a copy
//! that is not final (DESIGN.md §6.7).
//!
//! The v1 per-object path (ablation A3) was retired once the early-out covered the
//! small closures it was competitive on; DESIGN.md §7 pins its last measurement.
//! See DESIGN.md §6.

use crate::ops::{Located, ReadLocked};
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
    /// The pass's `(original, copy)` pairs, whose pending hops are published once
    /// the scan phase has made every copy final.
    forwarded: Vec<(ObjPtr, ObjPtr)>,
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
    /// Every promotion WRITE-locks the pointee's heap first. A one-object promotion
    /// (`promote_leaf` applies) then READ-locks only the target — the master's heap
    /// — and leaves the heaps in between unlocked ([`Inner::write_promote_leaf`]).
    /// Anything else takes the paper's three phases:
    /// 1. lock, in WRITE mode and bottom-up, every heap on the path from `heapOf(ptr)`
    ///    to the heap of the *current* master copy of `obj` (re-chasing forwarding
    ///    pointers that appear while we climb);
    /// 2. promote the pointee into the master's heap and store the promoted address;
    /// 3. unlock the path top-down.
    ///
    /// Either way locks are taken in decreasing depth, and every hop a promotion
    /// installs stays pending until its copy is final (DESIGN.md §6.7). The lock path
    /// is recorded in a reusable per-worker buffer (no allocation on this path after
    /// warm-up) and the general promotion runs as one batched pass (see the module
    /// docs).
    pub(crate) fn write_promote<'a>(
        &'a self,
        mut obj: Located<'a>,
        field: usize,
        ptr: ObjPtr,
        pointee: Located<'a>,
    ) {
        let store = self.registry.store();
        self.shard().promotions.fetch_add(1, Ordering::Relaxed);
        pointee.heap.lock.lock_exclusive();
        if self.write_promote_leaf(&mut obj, field, pointee.view) {
            pointee.heap.lock.unlock_exclusive();
            return;
        }
        SCRATCH.with(|scratch| {
            let mut scratch = scratch.borrow_mut();
            let scratch = &mut *scratch;
            let caps_before = scratch.locked.capacity()
                + scratch.pending.capacity()
                + scratch.forwarded.capacity();
            scratch.locked.clear();

            // Phase 1: path locking, deepest heap first. `cur` is the top of the
            // locked path; the heaps below it go straight into the reusable buffer
            // instead of a path `Vec` materialized per climb.
            let mut cur = pointee.heap;
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
                // upward from where we are. We hold its heap's WRITE lock, so the
                // promotion that moved it has published its hop.
                obj = self.locate(store.view(obj.view.fwd()));
            }

            // Phase 2: promote and publish. We hold WRITE locks on every heap between
            // the pointee and the master (inclusive), so no concurrent promotion can
            // race on the same forwarding pointers, and the pass's hops stay pending
            // until every copy is final.
            let target = obj.heap;
            let promoted = self.promote_value_batched(
                target,
                target.depth(),
                ptr,
                &mut scratch.pending,
                &mut scratch.forwarded,
            );
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
            let caps_after = scratch.locked.capacity()
                + scratch.pending.capacity()
                + scratch.forwarded.capacity();
            if caps_after != caps_before {
                self.shard()
                    .promo_buf_allocs
                    .fetch_add(1, Ordering::Relaxed);
            }
        });
    }

    /// A one-object promotion of `pointee` (whose heap the caller WRITE-holds) into
    /// `obj`'s heap, storing the copy into `obj`'s `field`, under a READ lock on the
    /// target only. That lock keeps the master where it is: promoting it further
    /// needs the target's WRITE lock. The heaps between the pointee's and the
    /// target are not locked: a one-object promotion touches no object in them.
    /// Concurrent one-object promoters into one target share its promotion cursor,
    /// which is safe because the bump is a `fetch_add` and a refill re-checks the
    /// cursor under the heap's `chunks` mutex.
    ///
    /// Returns `false`, having changed nothing, when `pointee` is not a one-object
    /// closure for the master's heap ([`Inner::leaf_header`]) or lost its install
    /// to an incremental collection; the caller then takes the full WRITE path.
    fn write_promote_leaf<'a>(
        &'a self,
        obj: &mut Located<'a>,
        field: usize,
        pointee: ObjView<'_>,
    ) -> bool {
        let store = self.registry.store();
        loop {
            let target = obj.heap;
            let target_depth = target.depth();
            let Some(header) = self.leaf_header(target_depth, pointee) else {
                return false;
            };
            let locked = ReadLocked::new(target);
            if obj.view.has_fwd() {
                // Promoted further up before we held its heap. Its promoter released
                // the WRITE lock we just waited for, so the hop is published; the new
                // target is shallower, so the leaf test is taken again.
                let next = obj.view.fwd();
                drop(locked);
                *obj = self.locate(store.view(next));
                continue;
            }
            let Some(copy) = self.promote_leaf(target, pointee, header) else {
                return false;
            };
            obj.view.set_field(field, copy.to_bits());
            return true;
        }
    }

    /// The test of `promote`'s early-out for a one-object closure: `v` (which lies
    /// below the target) has no copy yet and every pointer field is NULL or already
    /// at or above `target_depth`, so the pass would copy exactly this object and
    /// scan nothing. Returns `v`'s header if so; `None` when the general pass is
    /// needed.
    fn leaf_header(&self, target_depth: u32, v: ObjView<'_>) -> Option<Header> {
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
        Some(header)
    }

    /// The early-out itself, for a `v` that passed [`Inner::leaf_header`]: copies
    /// it into `target` with one allocation — no worklist, chunk classification
    /// cache or copy log —, publishes its hop, and flushes the counters once.
    /// Returns `None`, having changed nothing that matters, if an incremental
    /// collection forwarded `v` first.
    fn promote_leaf(&self, target: &Heap, v: ObjView<'_>, header: Header) -> Option<ObjPtr> {
        let store = self.registry.store();
        let (copy, chunk) = target.batch_alloc(store).alloc_for_copy(header);
        if !self.copy_and_forward(v, ObjView::new(chunk, copy.offset()), copy, header) {
            // Lost the install to an incremental collection: the general pass
            // follows the winner's copy.
            return None;
        }
        self.verify_promotion(target.id(), [copy]);
        v.publish_fwd(copy);
        let shard = self.shard();
        shard.promoted_objects.fetch_add(1, Ordering::Relaxed);
        shard
            .promoted_words
            .fetch_add(header.size_words() as u64, Ordering::Relaxed);
        Some(copy)
    }

    /// Copies `v`'s fields into its fresh copy `cv` (at `copy`) and installs `v`'s
    /// forwarding pointer **pending**: the caller holds `v`'s heap WRITE lock and
    /// publishes the hop ([`ObjView::publish_fwd`]) once the copy is final — right
    /// away for a one-object promotion, at the end of the pass for a batched one,
    /// whose copies still point deeper until the scan phase fixes them. Returns
    /// `false` if an incremental collection forwarded `v` first; `cv` is then an
    /// unreachable filler.
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
        if self.active_gc_epoch.load(Ordering::Acquire) == 0 {
            // The forwarding pointer is installed *before* the fields are filled in
            // (as in the paper): an optimistic writer that misses it wrote before
            // the copy reads the field, and one that sees it re-applies its write to
            // the copy once the hop is published. The fence keeps the field loads
            // from overtaking the install (it pairs with the optimistic bulk
            // writers' fence and with the fence of an announced `cas_nonptr`, whose
            // CAS lands before the fill once the promoter has seen it announced).
            v.set_fwd_pending(copy);
            fence(Ordering::SeqCst);
            self.await_cas(v.ptr());
            fill(0);
            return true;
        }
        // An incremental collection may be evacuating `v`'s heap right now:
        // idle-worker drains install forwarding pointers without holding our write
        // locks, so the install must be a CAS, and the fields are filled *before*
        // installing (engine scanners follow pending hops like ready ones, outside
        // our locks, and must never observe a half-written copy). On loss the copy
        // is retagged as an opaque filler.
        fill(0);
        self.fire_hook(crate::hooks::GcScheduleEvent::PromoteCopyFilled);
        if v.try_set_fwd_pending(copy).is_err() {
            cv.retag_as_filler();
            return false;
        }
        // A lock-free optimistic write (`write_nonptr`, the bulk writes, an
        // announced `cas_nonptr`) that landed on `v` between the fill and the
        // install passed its `!has_fwd()` check and is missing from the copy: take
        // the non-pointer fields again now that every later writer sees the
        // pointer and waits for the hop to be published. (Pointer fields are only
        // written under the heap lock or by `v`'s own task.)
        fence(Ordering::SeqCst);
        self.await_cas(v.ptr());
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
        forwarded: &mut Vec<(ObjPtr, ObjPtr)>,
    ) -> ObjPtr {
        let store: &ChunkStore = self.registry.store();
        pending.clear();
        forwarded.clear();
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
                forwarded,
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
                        forwarded,
                        &mut stats,
                        &mut cache,
                    );
                    v.set_field_ptr(f, new);
                }
            }
            words = batch.allocated_words();
        }

        // One statistics flush per pass instead of several atomics per object.
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

        // Every copy is final now: publish the pass's hops.
        self.verify_promotion(heap.id(), forwarded.iter().map(|&(_, copy)| copy));
        for &(orig, copy) in forwarded.iter() {
            store.view(orig).publish_fwd(copy);
        }
        forwarded.clear();
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
        forwarded: &mut Vec<(ObjPtr, ObjPtr)>,
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
            // fields raw — `copy_and_forward` stores every one before the hop is
            // published. If an incremental collection won the install, its to-space
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
            forwarded.push((cur, copy));
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
            let v = store.view(x);
            let header = inner
                .leaf_header(0, v)
                .expect("x has no pointer field below the root");
            let copy = inner.promote_leaf(root_heap, v, header).unwrap();
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
    /// landing in between passes its `!has_fwd()` re-check, so the promoter must
    /// pick it up after the install or it is lost. A `cas_nonptr` cannot land there:
    /// from a thread outside the pool, on an object outside a root heap, it holds
    /// the object's heap READ lock, so it waits (parked on that heap) until the
    /// promotion is published, then succeeds on the master. Run on an object promoted for the first time, and on one
    /// whose master is already a copy — reached by the writes through the
    /// original's hop — and is promoted again, published through the original (the
    /// full WRITE path) or through the copy (the one-object path).
    #[test]
    fn optimistic_writes_between_fill_and_install_reach_the_master() {
        for (promoted_before, publish_copy) in [(false, false), (true, false), (true, true)] {
            let rt = HhRuntime::new(HhConfig::incremental(1));
            let gate = Arc::new(FillGate::default());
            rt.install_gc_hooks(Arc::clone(&gate) as Arc<dyn GcScheduleHooks>);
            let inner = rt.inner();
            let reg = &inner.registry;
            let root = reg.new_root_heap();
            let mid = reg.new_child_heap(root);
            let promoter_heap = reg.new_child_heap(mid);
            let holder = reg.alloc_obj(root, Header::new(1, 1, ObjKind::Ref));
            let x = if promoted_before {
                // Allocated one level further down and published into `mid`: `x`
                // forwards to its copy in `mid`, which the gated promotion moves.
                let below = reg.new_child_heap(promoter_heap);
                let x = reg.alloc_obj(below, Header::new(2, 0, ObjKind::Ref));
                let mid_holder = reg.alloc_obj(mid, Header::new(1, 1, ObjKind::Ref));
                inner.write_ptr_impl(below, mid_holder, 0, x);
                assert_eq!(reg.heap_of(reg.store().resolve_fwd(x)), mid);
                x
            } else {
                reg.alloc_obj(mid, Header::new(2, 0, ObjKind::Ref))
            };
            inner.write_nonptr_impl(x, 1, 10);
            // A window is open somewhere in the runtime (nothing of ours is in its
            // zone): an epoch never issued, so no chunk reads as its from-space.
            inner.active_gc_epoch.store(u64::MAX, Ordering::Release);

            std::thread::scope(|s| {
                // A task two levels down publishes `x` into the root: promotes it.
                let published = if publish_copy {
                    reg.store().resolve_fwd(x)
                } else {
                    x
                };
                s.spawn(move || inner.write_ptr_impl(promoter_heap, holder, 0, published));
                let deadline = Instant::now() + Duration::from_secs(60);
                while !gate.reached.load(Ordering::Acquire) {
                    assert!(Instant::now() < deadline, "promoter never reached the gate");
                    std::thread::yield_now();
                }
                // A sibling's lock-free write lands on the not-yet-forwarded master.
                inner.write_nonptr_impl(x, 0, 42);
                // Its CAS waits for the promotion on the master's heap.
                let cas = s.spawn(|| inner.cas_nonptr_impl(x, 1, 10, 11));
                let mid_heap = reg.heap(mid);
                while !mid_heap.lock.has_parked() {
                    assert!(Instant::now() < deadline, "the CAS never waited on mid");
                    std::thread::yield_now();
                }
                gate.release.store(true, Ordering::Release);
                assert_eq!(cas.join().unwrap(), Ok(10));
            });
            inner.active_gc_epoch.store(0, Ordering::Release);

            let master = reg.store().resolve_fwd(x);
            assert_eq!(reg.heap_of(master), root, "x was promoted to the root");
            assert_eq!(inner.read_mut_impl(x, 0), 42, "write_nonptr lost");
            assert_eq!(inner.read_mut_impl(x, 1), 11, "cas_nonptr lost");
            assert_eq!(reg.check_disentangled().len(), 0);
        }
    }

    /// A promotion installs its hop pending and publishes it only once the copy is
    /// final, holding the original's heap WRITE lock throughout. A lock-free reader
    /// that meets the pending hop must wait on that heap — not read the copy — and
    /// return the filled value once the hop is published. Deterministic: the test
    /// plays the promoter, installs the hop to an unfilled copy, and fills and
    /// publishes only after the reader has parked on the carrier's heap.
    #[test]
    fn reader_waits_out_a_pending_hop_on_the_carrier_heap() {
        let rt = HhRuntime::new(HhConfig::eager_heaps(1));
        let inner = rt.inner();
        let reg = &inner.registry;
        let store = reg.store();
        let root = reg.new_root_heap();
        let mid = reg.new_child_heap(root);
        let header = Header::new(1, 0, ObjKind::Ref);
        let x = reg.alloc_obj(mid, header);
        inner.write_nonptr_impl(x, 0, 1);
        let mid_heap = reg.heap(mid);

        mid_heap.lock.lock_exclusive();
        let (copy, chunk) = reg.heap(root).batch_alloc(store).alloc_for_copy(header);
        let cv = hh_objmodel::ObjView::new(chunk, copy.offset());
        cv.set_field(0, 0xBAD);
        store.view(x).set_fwd_pending(copy);
        std::thread::scope(|s| {
            let reader = s.spawn(|| inner.read_mut_impl(x, 0));
            let deadline = Instant::now() + Duration::from_secs(60);
            while !mid_heap.lock.has_parked() {
                assert!(Instant::now() < deadline, "the reader never waited on mid");
                std::thread::yield_now();
            }
            cv.set_field(0, 7);
            store.view(x).publish_fwd(copy);
            mid_heap.lock.unlock_exclusive();
            assert_eq!(
                reader.join().unwrap(),
                7,
                "read the copy before it was final"
            );
        });
        inner.write_nonptr_impl(x, 0, 8);
        assert_eq!(
            cv.field(0),
            8,
            "a write after the publish lands on the copy"
        );
    }

    /// A batched pass copies a closure whose copies point deeper until its scan
    /// phase fixes them; their hops stay pending until the whole pass is done. A
    /// reader racing the pass through the original must therefore never get a
    /// pointer from a copy that is deeper than the copy's heap, nor any other value
    /// than the final copy's: neither when it meets the hop pending (it waits), nor
    /// when it reads as soon as the hop is published (alternate rounds).
    #[test]
    fn racing_reads_of_a_batched_closure_never_see_a_deeper_pointer() {
        const N: usize = 256;
        for round in 0..8 {
            let rt = HhRuntime::new(HhConfig::eager_heaps(1));
            let inner = rt.inner();
            let reg = &inner.registry;
            let store = reg.store();
            let root = reg.new_root_heap();
            let leaf = reg.new_child_heap(root);
            let holder = reg.alloc_obj(root, Header::new(1, 1, ObjKind::Ref));
            let arr = reg.alloc_obj(leaf, Header::new(N, N, ObjKind::ArrayPtr));
            for f in 0..N {
                let elem = reg.alloc_obj(leaf, Header::new(1, 0, ObjKind::Ref));
                inner.write_ptr_impl(leaf, arr, f, elem);
            }
            let go = AtomicBool::new(false);
            let got = std::thread::scope(|s| {
                let reader = s.spawn(|| {
                    go.store(true, Ordering::Release);
                    let seen = |hop: Option<ObjPtr>| match hop {
                        Some(hop) => !hop.is_null(),
                        None => round % 2 == 0,
                    };
                    while !seen(store.view(arr).fwd_ready()) {
                        std::hint::spin_loop();
                    }
                    // Read the last element: the scan phase fixes it last.
                    ObjPtr::from_bits(inner.read_mut_impl(arr, N - 1))
                });
                while !go.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
                inner.write_ptr_impl(leaf, holder, 0, arr);
                reader.join().unwrap()
            });
            // The final copy's element, which is a root-heap copy itself.
            let want = store.view(store.resolve_fwd(arr)).field_ptr(N - 1);
            assert_eq!(reg.heap_of(want), root);
            assert_eq!(got, want, "read out of an unfinished copy");
            assert_eq!(hh_api::Runtime::stats(&rt).promoted_objects, N as u64 + 1);
            assert_eq!(reg.check_disentangled().len(), 0);
        }
    }
}
