//! Mutable-access operations: `findMaster`, `readMutable`, `writeNonptr`, `writePtr`
//! (the paper's Figure 6 and the dispatch part of Figure 7).

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

/// What `findMaster` returns: the master copy of an object, with a READ lock held on
/// its heap for as long as this guard lives (so no promotion can install a newer
/// copy meanwhile). Dropping the guard releases the lock — also on unwind.
pub(crate) struct Master<'a>(Located<'a>);

impl<'a> std::ops::Deref for Master<'a> {
    type Target = Located<'a>;
    fn deref(&self) -> &Located<'a> {
        &self.0
    }
}

impl Drop for Master<'_> {
    #[inline]
    fn drop(&mut self) {
        self.0.heap.lock.unlock_shared();
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

    /// `findMaster` (Figure 6, lines 5–10): walks the forwarding chain to the master
    /// copy using double-checked locking, and returns with a READ lock held on the
    /// master's heap (released when the returned [`Master`] drops).
    ///
    /// Inlined into each operation so the guard stays in registers: returning its
    /// three words through memory cost every slow-path access ~9 ns on the
    /// reference host.
    #[inline(always)]
    pub(crate) fn find_master(&self, obj: ObjPtr) -> Master<'_> {
        let mut start = obj;
        loop {
            let (cur, v) = self.chase(start);
            // Candidate master found: lock its heap in shared mode and re-check. A
            // concurrent promotion may have installed a forwarding pointer in between;
            // if so, drop the lock and chase again from the candidate.
            let master = self.locate(v);
            master.heap.lock.lock_shared();
            let master = Master(master);
            if !v.has_fwd() {
                return master;
            }
            start = cur;
        }
    }

    /// Chases `start`'s forwarding chain without any lock, to the first copy that has
    /// no forwarding pointer: the *candidate* master, returned with its view. Only a
    /// lock on its heap (or, for a promotion, the WRITE-locked path) makes it final.
    ///
    /// Promotion v2: chains of two or more hops are **path-compressed** after the
    /// chase — every intermediate hop is CAS-shortcut to the chain's end (see
    /// [`hh_objmodel::ChunkStore::compress_fwd_chain`]) — so an object promoted `k`
    /// times costs `O(k)` once and `O(1)` on every later resolution. The fast path (no
    /// forwarding pointer) performs no extra atomic traffic; hops and compressions are
    /// counted only when a chain was actually walked.
    #[inline(always)]
    fn chase(&self, start: ObjPtr) -> (ObjPtr, ObjView<'_>) {
        let store: &hh_objmodel::ChunkStore = self.registry.store();
        let mut cur = start;
        let mut hops = 0u64;
        let v = loop {
            let v = store.view(cur);
            if !v.has_fwd() {
                break v;
            }
            cur = v.fwd();
            hops += 1;
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
        // *before* the store below, so the optimistic-write recheck (and
        // `find_master`) necessarily lands in to-space and the update cannot be
        // lost to a concurrent evacuation snapshot.
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
    /// which mark vertices visited with a compare-and-swap. The structure mirrors
    /// `writeNonptr`: apply to the object, then re-apply to the master copy if the
    /// object turns out to have been promoted.
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
            let res = v.cas_field(field, expected, new);
            if !v.has_fwd() {
                return res;
            }
            // A promotion raced with us; fall through and apply on the master copy
            // (the promotion copied either the pre- or post-CAS value, and the CAS
            // below re-establishes the intended outcome on the authoritative copy).
        }
        self.cas_master(obj, field, expected, new)
    }

    // The scalar operations' locked halves live out of line so that the optimistic
    // halves — Figure 8's few-instruction fast paths — stay small enough to inline
    // into `HhCtx` with their chunk lookup.

    #[cold]
    #[inline(never)]
    fn read_master(&self, obj: ObjPtr, field: usize) -> u64 {
        self.find_master(obj).view.field(field)
    }

    #[cold]
    #[inline(never)]
    fn write_master(&self, obj: ObjPtr, field: usize, val: u64) {
        self.find_master(obj).view.set_field(field, val);
    }

    #[cold]
    #[inline(never)]
    fn cas_master(&self, obj: ObjPtr, field: usize, expected: u64, new: u64) -> Result<u64, u64> {
        self.find_master(obj).view.cas_field(field, expected, new)
    }

    // ------------------------------------------------------------------
    // Bulk field operations (ParCtx v2).
    //
    // The scalar operations above pay one forwarding check per word, and one
    // `findMaster` (forwarding-chain walk plus a heap lock round-trip) per word once
    // the object has been promoted. The bulk operations pay each once per object
    // operand, through `on_master` below.
    // ------------------------------------------------------------------

    /// Applies `op` — a straight field loop over one slice, storing iff `stores` — to
    /// the master copy of `obj`, with the optimistic protocol Figure 6 gives the
    /// scalars: operate on `obj` itself, then re-check that it has no forwarding
    /// pointer. If it had none before and after, `obj` was the master throughout,
    /// and a promotion that forwards it later copies (or, under an incremental
    /// window, re-copies) its fields only after installing the pointer — so
    /// everything `op` stored is carried over. Otherwise `op` is (re-)applied to the
    /// master under its heap's READ lock, which keeps a concurrent promotion — it
    /// takes the WRITE lock — from installing a newer copy mid-slice. Slow-path
    /// resolutions are counted in `bulk_master_lookups`: at most one per operand,
    /// never one per element.
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
        op(self.find_master(obj).view);
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
    /// at most one heap read lock is held at a time — taking both at once could
    /// deadlock against a writer waiting between the two acquisitions under the
    /// writer-preferring heap lock. The buffer is a **per-worker thread-local**,
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
        // Only the destination is written; source reads resolve through
        // `find_master` and from-space stays readable until finalize retires it.
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
            master.heap.lock.lock_shared();
            let master = Master(master);
            if !v.has_fwd() {
                master.view.set_field(field, ptr.to_bits());
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
    use hh_heaps::HeapId;
    use hh_objmodel::{Header, ObjKind};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;

    /// A bulk operation that panics while it holds the master's READ lock (here: a
    /// slice running past the object's last field, caught by the debug bounds
    /// check) must release the lock on unwind, or every later promotion into that
    /// heap would wait forever.
    #[test]
    #[cfg(debug_assertions)]
    fn panic_inside_a_bulk_op_on_a_forwarded_object_releases_the_heap_lock() {
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
