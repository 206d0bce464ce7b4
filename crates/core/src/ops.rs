//! Mutable-access operations: `readMutable`, `writeNonptr`, `writePtr` (the paper's
//! Figure 6 and the dispatch part of Figure 7), and the chase to the master copy
//! that replaces Figure 6's locked `findMaster` (DESIGN.md §6.7).

use crate::runtime::Inner;
use hh_heaps::{Heap, HeapId};
use hh_objmodel::{ObjPtr, ObjView};
use std::sync::atomic::{fence, Ordering};

/// An object resolved to its chunk view and its (live) heap, so that code handed one
/// need not walk the chunk and heap tables again.
#[derive(Copy, Clone)]
pub(crate) struct Located<'a> {
    pub(crate) view: ObjView<'a>,
    pub(crate) heap: &'a Heap,
}

/// A READ lock on a heap, held for as long as this guard lives (so no promotion out
/// of the heap can start meanwhile). Dropping the guard releases the lock — also on
/// unwind.
pub(crate) struct ReadLocked<'a>(&'a Heap);

impl<'a> ReadLocked<'a> {
    #[inline]
    pub(crate) fn new(heap: &'a Heap) -> Self {
        heap.lock.lock_shared();
        ReadLocked(heap)
    }
}

impl Drop for ReadLocked<'_> {
    #[inline]
    fn drop(&mut self) {
        self.0.lock.unlock_shared();
    }
}

impl Inner {
    /// Resolves `view`'s object to its heap.
    #[inline]
    pub(crate) fn locate<'a>(&'a self, view: ObjView<'a>) -> Located<'a> {
        Located {
            view,
            heap: self.registry.heap_of_chunk(view.chunk()),
        }
    }

    /// Chases `start`'s forwarding chain without any lock, to the first copy that has
    /// no forwarding pointer: the *candidate* master, returned with its view. Every
    /// hop it follows is ready, so the candidate's contents are final
    /// ([`hh_objmodel::ObjView::fwd_ready`]); a pending hop is waited out on its
    /// carrier's heap ([`Inner::await_copy`]). Only a re-check of the candidate's
    /// forwarding slot after operating on it (or a lock on its heap) makes it the
    /// master.
    ///
    /// Chains of two or more hops are **path-compressed** after the chase — every
    /// intermediate hop is CAS-shortcut to the chain's end (see
    /// [`hh_objmodel::ChunkStore::compress_fwd_chain`]) — so an object promoted `k`
    /// times costs `O(k)` once and `O(1)` on every later resolution. Hops and
    /// compressions are counted only when a chain was actually walked.
    #[inline(always)]
    fn chase(&self, start: ObjPtr) -> (ObjPtr, ObjView<'_>) {
        let store: &hh_objmodel::ChunkStore = self.registry.store();
        let mut cur = start;
        let mut hops = 0u64;
        let v = loop {
            let v = store.view(cur);
            match v.fwd_ready() {
                Some(next) if next.is_null() => break v,
                Some(next) => {
                    cur = next;
                    hops += 1;
                }
                None => self.await_copy(v),
            }
        };
        if hops > 0 {
            let shard = self.shard();
            shard.fwd_hops.fetch_add(hops, Ordering::Relaxed);
            if hops >= 2 {
                let done = store.compress_fwd_chain(start, cur);
                if done > 0 {
                    shard.fwd_compressions.fetch_add(done, Ordering::Relaxed);
                }
            }
        }
        (cur, v)
    }

    /// Waits until `v`'s pending hop is published. The promoter installed it while
    /// holding the WRITE lock of `v`'s heap and publishes it before releasing that
    /// lock, so one READ acquisition of the heap waits it out (the caller re-reads
    /// the slot). The caller holds no heap lock, so the wait cannot close a cycle.
    #[cold]
    #[inline(never)]
    fn await_copy(&self, v: ObjView<'_>) {
        drop(ReadLocked::new(self.registry.heap_of_chunk(v.chunk())));
    }

    /// [`Inner::chase`], out of line, for [`Inner::at_master`].
    #[cold]
    #[inline(never)]
    fn chase_cold(&self, start: ObjPtr) -> (ObjPtr, ObjView<'_>) {
        self.chase(start)
    }

    /// Applies `op` to the master copy of `obj` without a lock: chases to the
    /// candidate master, runs `op` on it, and re-checks its forwarding slot — the
    /// first copy's fast path (Figure 6), run on whichever copy is the candidate. If
    /// a promotion forwarded the candidate meanwhile, `op` is applied again from
    /// there (the promotion copied either the old or the new value; the re-run makes
    /// it the new one). `fenced` puts a `SeqCst` fence between `op` and the re-check
    /// for the bulk writes (DESIGN.md §6.7).
    ///
    /// Only the chase is a call. `op` stays in the caller's frame: a bulk operation
    /// that handed its closure to an out-of-line slow half would pin the closure's
    /// captures in memory, and its slice loop would reload them after every atomic
    /// store (`core.bulk_write_ns_per_word` ≈ 1.0 → 1.5 on the reference host).
    #[inline(always)]
    fn at_master<R>(&self, obj: ObjPtr, fenced: bool, mut op: impl FnMut(ObjView<'_>) -> R) -> R {
        let mut start = obj;
        loop {
            let (cur, v) = self.chase_cold(start);
            let res = op(v);
            if fenced {
                fence(Ordering::SeqCst);
            }
            if !v.has_fwd() {
                return res;
            }
            start = cur;
        }
    }

    /// `readMutable` (Figure 6, lines 11–17).
    pub(crate) fn read_mut_impl(&self, obj: ObjPtr, field: usize) -> u64 {
        // Fast path: read optimistically, then check that the object has no copies.
        let v = self.registry.store().view(obj);
        let res = v.field(field);
        if !v.has_fwd() {
            return res;
        }
        self.read_master(obj, field)
    }

    /// `writeNonptr` (Figure 6, lines 18–23).
    pub(crate) fn write_nonptr_impl(&self, obj: ObjPtr, field: usize, val: u64) {
        // Incremental-GC write barrier: ensure a from-space `obj` is forwarded
        // *before* the store below, so the optimistic-write recheck (and the
        // chase to the master) necessarily lands in to-space and the update cannot
        // be lost to a concurrent evacuation snapshot.
        self.gc_barrier(obj);
        // Fast path: write optimistically, then check whether `obj` was the master.
        let v = self.registry.store().view(obj);
        v.set_field(field, val);
        if !v.has_fwd() {
            return;
        }
        self.write_master(obj, field, val);
    }

    /// Atomic compare-and-swap on a mutable non-pointer field.
    ///
    /// Not part of the paper's Figure 6, but required by the BFS benchmarks (§4.2),
    /// which mark vertices visited with a compare-and-swap. Unlike a store, a CAS
    /// cannot simply be re-applied to the master when a promotion overtakes it: if
    /// the copy already carries the new value, the re-run fails and reports a CAS
    /// that took effect as lost. So a CAS runs optimistically only on an object of
    /// a root heap, which no promotion ever copies (no heap is shallower), as its
    /// chunk records ([`hh_objmodel::Chunk::is_root_owned`]); anywhere else it
    /// first keeps the promoter out ([`Inner::cas_master`]).
    pub(crate) fn cas_nonptr_impl(
        &self,
        obj: ObjPtr,
        field: usize,
        expected: u64,
        new: u64,
    ) -> Result<u64, u64> {
        self.gc_barrier(obj);
        let v = self.registry.store().view(obj);
        if !v.has_fwd() {
            if v.chunk().is_root_owned() {
                let res = v.cas_field(field, expected, new);
                // Only an evacuation could forward a root-heap object, and the
                // barrier above already forwarded it if it is in a window's
                // from-space.
                if !v.has_fwd() {
                    return res;
                }
            } else if let Some(res) = self.announced_cas(obj, v, field, expected, new) {
                return res;
            }
        }
        self.cas_master(obj, field, expected, new)
    }

    /// The CAS on `v` (the object at `at`, outside a root heap) by a pool worker,
    /// announced to promoters (see [`Inner::cas_master`]). `None` if the caller is
    /// not a pool worker or `v` has a forwarding pointer: nothing was changed.
    #[inline]
    fn announced_cas(
        &self,
        at: ObjPtr,
        v: ObjView<'_>,
        field: usize,
        expected: u64,
        new: u64,
    ) -> Option<Result<u64, u64>> {
        let slot = &self.cas_slots[self.pool.current_worker_index()?].0;
        slot.store(at.to_bits(), Ordering::SeqCst);
        let res = (!v.has_fwd_seqcst()).then(|| v.cas_field(field, expected, new));
        slot.store(ObjPtr::NULL.to_bits(), Ordering::Release);
        res
    }

    // The scalar operations' slow halves live out of line so that the optimistic
    // halves — Figure 8's few-instruction fast paths — stay small enough to inline
    // into `HhCtx` with their chunk lookup.

    #[cold]
    #[inline(never)]
    fn read_master(&self, obj: ObjPtr, field: usize) -> u64 {
        self.at_master(obj, false, |v| v.field(field))
    }

    #[cold]
    #[inline(never)]
    fn write_master(&self, obj: ObjPtr, field: usize, val: u64) {
        self.at_master(obj, false, |v| v.set_field(field, val));
    }

    /// The CAS of [`Inner::cas_nonptr_impl`] on the master, exact: no promotion
    /// of the master can copy the field between the check that the master has no
    /// forwarding pointer and the CAS.
    ///
    /// A pool worker announces the candidate in its [`crate::runtime::CasSlot`]
    /// (a `SeqCst` store) and only then checks the candidate's forwarding slot (a
    /// `SeqCst` load), while a promoter installs the hop, fences, and waits until
    /// no slot announces the object before it copies the fields
    /// ([`Inner::await_cas`]). This is Dekker's handshake: either the CAS sees the
    /// hop and moves on to the copy, or the promoter sees the announcement and
    /// copies only after the CAS, whose value the copy then carries. A thread
    /// outside the pool has no slot and holds the master heap's READ lock across
    /// the check and the CAS instead; the promoter holds that heap's WRITE lock. A
    /// root-heap master needs neither.
    #[cold]
    #[inline(never)]
    fn cas_master(&self, obj: ObjPtr, field: usize, expected: u64, new: u64) -> Result<u64, u64> {
        let mut start = obj;
        loop {
            let (cur, v) = self.chase(start);
            if v.chunk().is_root_owned() {
                let res = v.cas_field(field, expected, new);
                if !v.has_fwd() {
                    return res;
                }
            } else if self.pool.current_worker_index().is_some() {
                if let Some(res) = self.announced_cas(cur, v, field, expected, new) {
                    return res;
                }
            } else {
                let _locked = ReadLocked::new(self.registry.heap_of_chunk(v.chunk()));
                if !v.has_fwd() {
                    return v.cas_field(field, expected, new);
                }
            }
            start = cur;
        }
    }

    /// The promoter's half of [`Inner::cas_master`]'s handshake, called after it
    /// installed `obj`'s hop and fenced (`SeqCst`), before it copies the fields:
    /// waits until no pool worker announces a CAS on `obj`.
    pub(crate) fn await_cas(&self, obj: ObjPtr) {
        for slot in self.cas_slots.iter() {
            let mut spins = 0u32;
            while slot.0.load(Ordering::Acquire) == obj.to_bits() {
                spins += 1;
                if spins < 64 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Bulk field operations (ParCtx v2).
    //
    // The scalar operations above pay one forwarding check per word, and one chase
    // to the master per word once the object has been promoted. The bulk
    // operations pay each once per object operand, through `on_master` below.
    // ------------------------------------------------------------------

    /// Applies `op` — a straight field loop over one slice, storing iff `stores` — to
    /// the master copy of `obj`, with the optimistic protocol Figure 6 gives the
    /// scalars: operate on `obj` itself, then re-check that it has no forwarding
    /// pointer. If it had none before and after, `obj` was the master throughout,
    /// and a promotion that forwards it later copies (or, under an incremental
    /// window, re-copies) its fields only after installing the pointer — so
    /// everything `op` stored is carried over. Otherwise `op` is (re-)applied to the
    /// master the same way, lock-free ([`Inner::at_master`]): the chase waits out a
    /// promotion in progress, and a promotion that overtakes the slice on the
    /// candidate makes the re-check fail and the slice run again on the newer copy.
    /// Slow-path resolutions are counted in `bulk_master_lookups`: at most one per
    /// operand call, never one per element.
    ///
    /// The fence between a storing `op` and the re-check pairs with the one the
    /// promoter issues between installing the pointer and copying
    /// (`copy_and_forward`): without them both sides could miss each other's store
    /// (store buffering) and the slice's tail would be lost. A slice amortizes the
    /// fence; the scalar `write_nonptr` keeps the paper's fence-free fast path
    /// (DESIGN.md §6.7).
    fn on_master(&self, obj: ObjPtr, stores: bool, mut op: impl FnMut(ObjView<'_>)) {
        let v = self.registry.store().view(obj);
        if !v.has_fwd() {
            op(v);
            if stores {
                fence(Ordering::SeqCst);
            }
            if !v.has_fwd() {
                return;
            }
        }
        self.shard()
            .bulk_master_lookups
            .fetch_add(1, Ordering::Relaxed);
        self.at_master(obj, stores, op);
    }

    /// Bulk `readMutable`.
    pub(crate) fn read_mut_bulk_impl(&self, obj: ObjPtr, start: usize, out: &mut [u64]) {
        if out.is_empty() {
            return;
        }
        self.shard().record_bulk(out.len() as u64);
        self.on_master(obj, false, |v| {
            for (k, slot) in out.iter_mut().enumerate() {
                *slot = v.field(start + k);
            }
        });
    }

    /// Bulk `writeNonptr`.
    pub(crate) fn write_nonptr_bulk_impl(&self, obj: ObjPtr, start: usize, vals: &[u64]) {
        if vals.is_empty() {
            return;
        }
        self.gc_barrier(obj);
        self.shard().record_bulk(vals.len() as u64);
        self.on_master(obj, true, |v| {
            for (k, &val) in vals.iter().enumerate() {
                v.set_field(start + k, val);
            }
        });
    }

    /// Bulk fill.
    pub(crate) fn fill_nonptr_impl(&self, obj: ObjPtr, start: usize, len: usize, val: u64) {
        if len == 0 {
            return;
        }
        self.gc_barrier(obj);
        self.shard().record_bulk(len as u64);
        self.on_master(obj, true, |v| {
            for k in 0..len {
                v.set_field(start + k, val);
            }
        });
    }

    /// Object→object range copy: one master resolution per operand (two in total).
    ///
    /// The source slice is staged through a buffer between the two resolutions, so
    /// each operand is resolved (and re-checked) on its own. The buffer is a
    /// **per-worker thread-local**,
    /// reused across calls (GC v2 satellite): the old `vec![0u64; len]` paid one
    /// heap allocation per copy on a hot bulk path. Growth is accounted to the
    /// `promo_buf_allocs` scratch-buffer counter, so `tests/promo_alloc.rs` can
    /// assert the steady state allocates nothing. Capacity beyond
    /// `COPY_BUF_RETAIN_WORDS` is returned once a copy no longer needs it, so an
    /// occasional huge copy doesn't pin its footprint on the thread for life.
    pub(crate) fn copy_nonptr_impl(
        &self,
        src: ObjPtr,
        src_start: usize,
        dst: ObjPtr,
        dst_start: usize,
        len: usize,
    ) {
        use std::cell::RefCell;
        thread_local! {
            static COPY_BUF: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
        }
        /// Capacity retained across calls (words). An oversized copy must not pin
        /// its capacity on the worker thread for the process lifetime, so the
        /// excess is given back — but only once a copy arrives that no longer
        /// needs it (hysteresis: a steady stream of oversized copies keeps
        /// reusing the large buffer instead of churning allocate/free per call).
        const COPY_BUF_RETAIN_WORDS: usize = 64 * 1024;
        if len == 0 {
            return;
        }
        // Only the destination is written; source reads chase to the master and
        // from-space stays readable until finalize retires it.
        self.gc_barrier(dst);
        self.shard().record_bulk(len as u64);
        COPY_BUF.with(|cell| {
            let mut buf = cell.borrow_mut();
            let cap_before = buf.capacity();
            buf.clear();
            buf.resize(len, 0);
            self.on_master(src, false, |v| {
                for (k, slot) in buf.iter_mut().enumerate() {
                    *slot = v.field(src_start + k);
                }
            });
            self.on_master(dst, true, |v| {
                for (k, &val) in buf.iter().enumerate() {
                    v.set_field(dst_start + k, val);
                }
            });
            if buf.capacity() != cap_before {
                self.shard()
                    .promo_buf_allocs
                    .fetch_add(1, Ordering::Relaxed);
            }
            if len <= COPY_BUF_RETAIN_WORDS && buf.capacity() > COPY_BUF_RETAIN_WORDS {
                buf.clear();
                buf.shrink_to(COPY_BUF_RETAIN_WORDS);
            }
        });
    }

    /// `writePtr` (Figure 7, lines 1–12).
    pub(crate) fn write_ptr_impl(
        &self,
        current_heap: HeapId,
        obj: ObjPtr,
        field: usize,
        ptr: ObjPtr,
    ) {
        // Barrier the written-to object *and* the written value: storing a
        // from-space address would outlive the window's from-space chunks, so
        // the value is substituted with its to-space copy here.
        self.gc_barrier(obj);
        let ptr = self.gc_barrier_value(ptr);
        let store = self.registry.store();

        // Fast path (lines 2–5): the object lives in the current task's heap — which is
        // necessarily a leaf, so no promotion can be needed — and has no copies.
        let v = store.view(obj);
        if !v.has_fwd() && self.registry.heap_of_chunk(v.chunk()).id() == current_heap {
            v.set_field(field, ptr.to_bits());
            return;
        }

        // Slow path. Writing NULL can never create entanglement; neither can a
        // pointee at the master's level or above (lines 7–10). The pointee's heap is
        // an ancestor-or-self of the running task's, so it cannot move meanwhile.
        let pointee = (!ptr.is_null()).then(|| self.locate(store.view(ptr)));
        let mut start = obj;
        loop {
            // Whether the write promotes depends only on the master's depth, so the
            // candidate master is found without a lock.
            let (cur, v) = self.chase(start);
            let master = self.locate(v);
            if let Some(pointee) = pointee.filter(|p| p.heap.depth() > master.heap.depth()) {
                // Lines 11–12: writing would create a down-pointer; promote first.
                // `write_promote` re-validates the master under the WRITE locks of
                // its path, so no READ lock is taken here. Both heaps are
                // ancestors-or-self of the running task's heap, so neither can be
                // merged away before `write_promote` uses it.
                self.write_promote(master, field, ptr, pointee);
                return;
            }
            // A non-promoting write stores into the master under its READ lock. If a
            // promotion forwarded the candidate before the lock was taken, the
            // master moved up: chase on from the candidate and decide again (the new
            // master is shallower, so the write may now have to promote).
            let _locked = ReadLocked::new(master.heap);
            if !v.has_fwd() {
                v.set_field(field, ptr.to_bits());
                return;
            }
            start = cur;
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{HhConfig, HhRuntime};
    use hh_api::{ParCtx, Runtime};
    use hh_objmodel::{Header, ObjKind, ObjPtr};

    /// A CAS that took effect must be reported as such when a promotion overtakes
    /// it. Two threads race per round: one CAS-adds into `x`, retrying on failure
    /// as `adversary::cas_add` does, while the other publishes `x` into the root.
    /// A CAS that succeeds on the original and then sees the new forwarding
    /// pointer must not re-run on a copy that already carries its value: the
    /// re-run fails, the caller retries, and the sum comes out one too high. The
    /// adder runs on a thread outside the pool (the READ-locked CAS) and on a pool
    /// worker (the announced CAS).
    #[test]
    fn a_cas_that_took_effect_is_not_retried_under_a_concurrent_promotion() {
        use std::sync::atomic::{AtomicBool, Ordering};
        const ROUNDS: usize = 2_000;
        const ADDS: u64 = 64;
        fn cas_add(c: &impl ParCtx, x: ObjPtr) {
            let mut cur = c.read_mut(x, 0);
            while let Err(seen) = c.cas_nonptr(x, 0, cur, cur + 1) {
                cur = seen;
            }
        }

        // Outside the pool, on heaps built by hand.
        let rt = HhRuntime::new(HhConfig::eager_heaps(1));
        let inner = rt.inner();
        let reg = &inner.registry;
        let root = reg.new_root_heap();
        let mid = reg.new_child_heap(root);
        let leaf = reg.new_child_heap(mid);
        let mut wrong = 0;
        for _ in 0..ROUNDS {
            let holder = reg.alloc_obj(root, Header::new(1, 1, ObjKind::Ref));
            let x = reg.alloc_obj(mid, Header::new(1, 0, ObjKind::Ref));
            inner.write_nonptr_impl(x, 0, 0);
            let go = AtomicBool::new(false);
            std::thread::scope(|s| {
                s.spawn(|| {
                    while !go.load(Ordering::Acquire) {
                        std::hint::spin_loop();
                    }
                    inner.write_ptr_impl(leaf, holder, 0, x);
                });
                go.store(true, Ordering::Release);
                for _ in 0..ADDS {
                    let mut cur = inner.read_mut_impl(x, 0);
                    while let Err(seen) = inner.cas_nonptr_impl(x, 0, cur, cur + 1) {
                        cur = seen;
                    }
                }
            });
            wrong += usize::from(inner.read_mut_impl(x, 0) != ADDS);
        }
        assert_eq!(
            wrong, 0,
            "outside the pool: {wrong} of {ROUNDS} rounds added twice"
        );

        // On two pool workers: `x` lives in the left branch's heap, and the
        // stolen right branch publishes it into the root while the left adds.
        let rt = HhRuntime::new(HhConfig::eager_heaps(2));
        let (wrong, raced) = rt.run(|ctx| {
            let cell = ctx.alloc_ref_ptr(ObjPtr::NULL);
            let (mut wrong, mut raced) = (0, 0);
            for _ in 0..ROUNDS {
                let (w, r) = ctx
                    .join(
                        |m| {
                            let x = m.alloc_ref_data(0);
                            let started = AtomicBool::new(false);
                            let (raced, ()) = m.join(
                                |a| {
                                    // Bounded: if the right branch is not stolen it
                                    // runs after this one, and the round is serial.
                                    let raced = (0..1_000_000).any(|_| {
                                        std::hint::spin_loop();
                                        started.load(Ordering::Acquire)
                                    });
                                    for _ in 0..ADDS {
                                        cas_add(a, x);
                                    }
                                    raced
                                },
                                |b| {
                                    started.store(true, Ordering::Release);
                                    b.write_ptr(cell, 0, x);
                                },
                            );
                            (usize::from(m.read_mut(x, 0) != ADDS), usize::from(raced))
                        },
                        |_| (),
                    )
                    .0;
                wrong += w;
                raced += r;
            }
            (wrong, raced)
        });
        assert_eq!(
            wrong, 0,
            "on pool workers: {wrong} of {ROUNDS} rounds added twice"
        );
        assert!(
            raced > 0,
            "no round ran the adder against a stolen promoter"
        );
    }

    /// A bulk operation that panics while it holds the master's READ lock (here: a
    /// slice running past the object's last field, caught by the debug bounds
    /// check) must release the lock on unwind, or every later promotion into that
    /// heap would wait forever.
    #[test]
    #[cfg(debug_assertions)]
    fn panic_inside_a_bulk_op_on_a_forwarded_object_releases_the_heap_lock() {
        use hh_heaps::HeapId;
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::Arc;
        let rt = HhRuntime::new(HhConfig::eager_heaps(2));
        let inner = rt.inner();
        let reg = &inner.registry;
        let root = reg.new_root_heap();
        let child = reg.new_child_heap(root);
        let holder = reg.alloc_obj(root, Header::new(1, 1, ObjKind::Ref));
        let arr = reg.alloc_obj(child, Header::new(4, 0, ObjKind::ArrayData));
        inner.write_ptr_impl(child, holder, 0, arr);
        assert!(reg.store().view(arr).has_fwd(), "arr was promoted");

        let mut out = [0u64; 8];
        let read = catch_unwind(AssertUnwindSafe(|| {
            inner.read_mut_bulk_impl(arr, 0, &mut out)
        }));
        assert!(read.is_err(), "reading 8 fields of a 4-field object");
        let write = catch_unwind(AssertUnwindSafe(|| inner.fill_nonptr_impl(arr, 2, 6, 1)));
        assert!(write.is_err(), "filling past the last field");
        for id in 0..reg.n_heaps() {
            let heap = reg.heap(HeapId::from_raw(id as u32));
            assert!(!heap.lock.is_locked(), "{:?} left locked", heap.id());
        }
        // The lock is usable again, and so is the runtime.
        inner.write_nonptr_bulk_impl(arr, 0, &[5, 6, 7, 8]);
        assert_eq!(inner.read_mut_impl(arr, 3), 8);
        let ctl = Arc::new(hh_api::RunCtl::new());
        assert!(rt.try_run(&ctl, |ctx| ctx.alloc_ref_data(3)).is_ok());
    }
}
