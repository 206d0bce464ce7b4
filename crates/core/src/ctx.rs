//! The per-task context: Figure 3's operations bound to one task and its heap.

use crate::runtime::Inner;
use hh_api::ParCtx;
use hh_heaps::HeapId;
use hh_objmodel::{Header, ObjKind, ObjPtr};
use hh_sched::Worker;
use parking_lot::Mutex;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// The shared shadow stack of one heap's **ownership domain**: the heap's owner plus
/// every task borrowing the heap under the lazy steal-time policy. All of those tasks
/// execute on one worker thread (that is what made the elision sound), nested on its
/// call stack, so a single pin vector — allocated once when the heap's owner context
/// is created, and shared by `Arc::clone` with each borrower — holds every pin that
/// can point into the heap. That makes it the complete root set for any collection of
/// the heap, no matter which domain member triggers it or which sibling frames a
/// help-loop interleaving has suspended. The mutex is uncontended (single-thread
/// access); it exists to keep the frame `Send + Sync` across the fork closures.
struct RootFrame {
    pins: Mutex<Vec<ObjPtr>>,
}

impl RootFrame {
    fn new() -> Arc<RootFrame> {
        Arc::new(RootFrame {
            pins: Mutex::new(Vec::new()),
        })
    }
}

/// The context of one running task in the hierarchical-heap runtime.
///
/// A context is created for the root task by `HhRuntime::run` (see
/// [`Runtime::run`](hh_api::Runtime::run)) and for every child task by `join` (the
/// paper's `forkjoin`, Figure 5). It
/// knows the task's heap — always a leaf of the hierarchy while the task runs — and
/// carries the task's shadow stack of GC roots.
///
/// Under the lazy steal-time heap policy (`lazy_child_heaps`, the default), a context
/// either **owns** its heap (the root task, a stolen branch, or any branch in eager
/// mode — the heap was created for this task) or **borrows** the parent's heap (an
/// unstolen branch, which runs sequentially on the forking worker). Owners collect on
/// threshold between their joins; borrowers collect the shared heap only while no
/// stolen task is in flight (the steal gate), using the heap domain's shared shadow
/// stack as the root set. See the `RootFrame` and `maybe_collect_borrowed`
/// internals and DESIGN.md §4.2 / §5.
pub struct HhCtx {
    inner: Arc<Inner>,
    heap: HeapId,
    /// Epoch of the run this task belongs to (the heap's run tag; 0 when the run is
    /// not epoch-tracked). Read by the cross-run assertion, which only exists in
    /// debug builds — hence dead in release.
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    run_tag: u64,
    worker: Worker,
    /// True if this task's heap was created for it (root / stolen / eager mode), false
    /// if it runs in its parent's heap under the lazy policy.
    owns_heap: bool,
    /// The shadow stack of this task's heap domain — shared with the heap's owner and
    /// every other borrower of the heap (see [`RootFrame`]). Owners allocate a fresh
    /// one; borrowers clone the forking context's, so the fork fast path stays
    /// allocation-free.
    frame: Arc<RootFrame>,
    /// Cancellation token of the run this task belongs to (`None` for plain
    /// `run` calls): polled at `maybe_collect` and fork entry, so every task of
    /// the run unwinds cooperatively once the server cancels it or its deadline
    /// fires (DESIGN.md §13).
    run_ctl: Option<Arc<hh_api::RunCtl>>,
    /// Keeps `HhCtx: !Sync` (as it was when the shadow stack was a `RefCell`): a
    /// context belongs to the task executing it, and the GC gating arguments assume
    /// no other thread can drive its operations — without this marker, a branch
    /// closure could capture `&HhCtx` of the suspended parent and, from a stolen
    /// branch, race its allocations and collections from another worker.
    _not_sync: std::marker::PhantomData<std::cell::Cell<()>>,
}

impl HhCtx {
    pub(crate) fn new(
        inner: Arc<Inner>,
        heap: HeapId,
        worker: Worker,
        owns_heap: bool,
        run_ctl: Option<Arc<hh_api::RunCtl>>,
    ) -> HhCtx {
        let run_tag = inner.registry.heap(heap).run_tag();
        HhCtx {
            inner,
            heap,
            run_tag,
            worker,
            owns_heap,
            frame: RootFrame::new(),
            run_ctl,
            _not_sync: std::marker::PhantomData,
        }
    }

    /// A context that borrows the forking context's heap (lazy policy, unstolen
    /// branch): same heap, same shared shadow stack, same cancellation token.
    fn new_borrowed(
        domain_frame: Arc<RootFrame>,
        inner: Arc<Inner>,
        heap: HeapId,
        worker: Worker,
        run_ctl: Option<Arc<hh_api::RunCtl>>,
    ) -> HhCtx {
        let run_tag = inner.registry.heap(heap).run_tag();
        HhCtx {
            inner,
            heap,
            run_tag,
            worker,
            owns_heap: false,
            frame: domain_frame,
            run_ctl,
            _not_sync: std::marker::PhantomData,
        }
    }

    /// Cooperative abort poll: unwinds with a typed [`hh_api::RunAbort`] payload
    /// once the run's token has fired. One atomic load per call for runs with a
    /// token; free (a `None` test) for plain `run` calls.
    #[inline]
    fn poll_abort(&self) {
        if let Some(ctl) = &self.run_ctl {
            ctl.check();
        }
    }

    /// Cross-run assertion (debug builds only): the chunk an accessed object
    /// lives in must belong to this task's run. A stale `ObjPtr` carried
    /// across runs points into a chunk that is either still quarantined under its
    /// old run's tag or already recycled to a different run — both read as a foreign
    /// tag here and panic instead of silently resolving through recycled memory.
    ///
    /// The one undetectable case is a chunk recycled back into the *same* run that
    /// is doing the access (possible only for pointers retired mid-run by a
    /// collection); those still hit the zeroed-header / generation-tag debug checks
    /// of the object layer. Chunk-level tags are the strongest check available
    /// without fattening `ObjPtr` beyond 64 bits.
    #[inline]
    fn check_cross_run(&self, obj: ObjPtr) {
        #[cfg(debug_assertions)]
        if !obj.is_null() {
            let tag = self.inner.registry.store().chunk(obj.chunk()).run_tag();
            assert!(
                tag == self.run_tag,
                "cross-run ObjPtr: {obj:?} points into a chunk of run epoch {tag}, \
                 accessed from run epoch {}",
                self.run_tag
            );
        }
        #[cfg(not(debug_assertions))]
        let _ = obj;
    }

    /// This task's counter shard. A context runs on the worker it was created
    /// on (a fork's continuation never migrates), so its handle's index picks the
    /// shard without the thread-local lookup of [`Inner::shard`].
    #[inline]
    fn counters(&self) -> &hh_api::CounterShard {
        self.inner.counters.shard(Some(self.worker.index()))
    }

    /// The heap this task allocates into.
    pub fn heap(&self) -> HeapId {
        self.heap
    }

    /// True if this task's heap was created for it; false for an unstolen branch
    /// running in its parent's heap (lazy steal-time heap policy).
    pub fn owns_heap(&self) -> bool {
        self.owns_heap
    }

    /// Depth of this task's heap in the hierarchy (root task = 0). Under the lazy
    /// policy an unstolen branch reports its parent's depth — it *is* running in the
    /// parent's heap.
    pub fn depth(&self) -> u32 {
        self.inner.registry.heap(self.heap).depth()
    }

    /// Forces a collection of this task's heap, regardless of the threshold, when it
    /// is safe to run one. Only pinned objects are guaranteed to be retained
    /// (unpinned from-space data stays readable through forwarding but no longer
    /// counts as live memory). The heap domain's shared shadow stack forms the root
    /// set.
    ///
    /// On a task that owns its heap this always collects (between its joins nothing
    /// else can reach the heap). On a task that *borrows* its heap (lazy policy),
    /// the collection is best-effort: an in-flight stolen task may be reading this
    /// heap lock-free as one of its ancestors, so the call is skipped — never run
    /// unsoundly — unless the steal gate is free. Returns `true` if a collection ran.
    pub fn force_collect(&self) -> bool {
        if !self.owns_heap {
            // Same gating as `maybe_collect_borrowed`; `try_write` (not a blocking
            // `write`) also avoids self-deadlock when the caller is itself a
            // descendant of a stolen task that holds the gate's read lock.
            let Ok(_gate) = self.inner.steal_gate.try_write() else {
                return false;
            };
            let mut roots = self.frame.pins.lock();
            self.inner.collect_subtree(self.heap, &mut roots);
            return true;
        }
        let mut roots = self.frame.pins.lock();
        self.inner.collect_heap(self.heap, &mut roots);
        true
    }

    /// Number of currently pinned roots in this task's heap domain (diagnostics).
    pub fn root_count(&self) -> usize {
        self.frame.pins.lock().len()
    }

    /// The v1 eager fork shape (`lazy_child_heaps == false`): one fresh heap per
    /// child, run both branches, then join both child heaps back into the parent heap
    /// (a constant-time list splice). Kept for ablation A2 and for tests that need
    /// every branch to own a heap.
    fn join_eager<RA, RB, FA, FB>(&self, fa: FA, fb: FB) -> (RA, RB)
    where
        FA: FnOnce(&Self) -> RA + Send,
        FB: FnOnce(&Self) -> RB + Send,
        RA: Send,
        RB: Send,
    {
        let heap_f = self.inner.registry.new_child_heap(self.heap);
        let heap_g = self.inner.registry.new_child_heap(self.heap);
        self.counters()
            .heaps_created
            .fetch_add(2, Ordering::Relaxed);

        let inner_a = Arc::clone(&self.inner);
        let inner_b = Arc::clone(&self.inner);
        let ctl_a = self.run_ctl.clone();
        let ctl_b = self.run_ctl.clone();
        let (ra, rb) = self.worker.join(
            move || {
                let worker = Worker::current_in(&inner_a.pool)
                    .expect("task branch must execute on a pool worker");
                let ctx = HhCtx::new(inner_a, heap_f, worker, true, ctl_a);
                fa(&ctx)
            },
            move || {
                let worker = Worker::current_in(&inner_b.pool)
                    .expect("task branch must execute on a pool worker");
                let ctx = HhCtx::new(inner_b, heap_g, worker, true, ctl_b);
                fb(&ctx)
            },
        );

        self.inner.registry.join_heap(self.heap, heap_f);
        self.inner.registry.join_heap(self.heap, heap_g);
        (ra, rb)
    }

    /// Threshold collection for a context that borrows its heap: a *subtree*
    /// collection of the borrowed heap plus its completed descendants.
    ///
    /// Sound because nothing outside this heap's ownership domain can observe the
    /// subtree mid-collection once `steal_gate.try_write()` succeeds: no stolen task
    /// is in flight anywhere (each holds a read lock for its whole run and could be
    /// reading this heap as an ancestor), and none can start until the write guard
    /// drops. Any live *descendant* heap was created by a steal, so — with the gate
    /// held — its owner has already finished and the heap only awaits its join
    /// splice; no task runs in it and its pins were dropped when its task completed.
    /// Everything *inside* the domain runs on this worker's thread, suspended
    /// beneath this frame, and its pins all live in the shared domain frame — the
    /// complete root set, rewritten in place by the collector. Ancestors above the
    /// owner cannot hold pointers into a heap created after their frames suspended,
    /// and no heap outside the subtree can point into it (that would be
    /// entanglement). A completed descendant's unpinned data (e.g. a branch's return
    /// value, held only in a suspended Rust frame) is not retained; like all unpinned
    /// from-space data it stays readable through the retired chunks until the
    /// store's reuse horizon, and is rescued by the next collection that can reach
    /// it. See DESIGN.md §5.
    fn maybe_collect_borrowed(&self) {
        let Ok(_gate) = self.inner.steal_gate.try_write() else {
            return;
        };
        // The domain frame holds every pin that can point into this heap — the
        // owner's and every borrower's, including frames suspended by help-loop
        // interleaving — so it is the complete root set (see `RootFrame`).
        let mut roots = self.frame.pins.lock();
        self.inner.collect_subtree(self.heap, &mut roots);
    }
}

impl ParCtx for HhCtx {
    fn alloc(&self, n_ptr: usize, n_nonptr: usize, kind: ObjKind) -> ObjPtr {
        // Modeled allocation failure (the chaos layer's OOM site): checked
        // before any counter or heap state is touched, so an injected failure
        // leaves nothing half-done. One relaxed load when no hooks are
        // installed.
        if self.inner.hook_alloc_fault() {
            std::panic::panic_any(hh_api::InjectedFault { site: "alloc" });
        }
        let header = Header::new(n_ptr + n_nonptr, n_ptr, kind);
        self.counters()
            .allocated_words
            .fetch_add(header.size_words() as u64, Ordering::Relaxed);
        self.inner.registry.alloc_obj(self.heap, header)
    }

    fn read_imm(&self, obj: ObjPtr, field: usize) -> u64 {
        // readImmutable: single load, never consults the forwarding chain (Figure 6).
        self.check_cross_run(obj);
        self.inner.registry.store().view(obj).field(field)
    }

    fn read_mut(&self, obj: ObjPtr, field: usize) -> u64 {
        self.check_cross_run(obj);
        self.inner.read_mut_impl(obj, field)
    }

    fn write_nonptr(&self, obj: ObjPtr, field: usize, val: u64) {
        self.check_cross_run(obj);
        self.inner.write_nonptr_impl(obj, field, val);
    }

    fn write_ptr(&self, obj: ObjPtr, field: usize, ptr: ObjPtr) {
        self.check_cross_run(obj);
        self.check_cross_run(ptr);
        self.inner.write_ptr_impl(self.heap, obj, field, ptr);
    }

    fn cas_nonptr(&self, obj: ObjPtr, field: usize, expected: u64, new: u64) -> Result<u64, u64> {
        self.check_cross_run(obj);
        self.inner.cas_nonptr_impl(obj, field, expected, new)
    }

    fn obj_len(&self, obj: ObjPtr) -> usize {
        self.check_cross_run(obj);
        self.inner.registry.store().view(obj).n_fields()
    }

    fn read_imm_bulk(&self, obj: ObjPtr, start: usize, out: &mut [u64]) {
        // Immutable fields never change and never need the forwarding chain: a single
        // view resolution amortizes the whole slice.
        if out.is_empty() {
            return;
        }
        self.check_cross_run(obj);
        self.counters().record_bulk(out.len() as u64);
        let v = self.inner.registry.store().view(obj);
        for (k, slot) in out.iter_mut().enumerate() {
            *slot = v.field(start + k);
        }
    }

    fn read_mut_bulk(&self, obj: ObjPtr, start: usize, out: &mut [u64]) {
        self.check_cross_run(obj);
        self.inner.read_mut_bulk_impl(obj, start, out);
    }

    fn write_nonptr_bulk(&self, obj: ObjPtr, start: usize, vals: &[u64]) {
        self.check_cross_run(obj);
        self.inner.write_nonptr_bulk_impl(obj, start, vals);
    }

    fn fill_nonptr(&self, obj: ObjPtr, start: usize, len: usize, val: u64) {
        self.check_cross_run(obj);
        self.inner.fill_nonptr_impl(obj, start, len, val);
    }

    fn copy_nonptr(
        &self,
        src: ObjPtr,
        src_start: usize,
        dst: ObjPtr,
        dst_start: usize,
        len: usize,
    ) {
        self.check_cross_run(src);
        self.check_cross_run(dst);
        self.inner
            .copy_nonptr_impl(src, src_start, dst, dst_start, len);
    }

    fn join<RA, RB, FA, FB>(&self, fa: FA, fb: FB) -> (RA, RB)
    where
        FA: FnOnce(&Self) -> RA + Send,
        FB: FnOnce(&Self) -> RB + Send,
        RA: Send,
        RB: Send,
    {
        // Fork entry is the second cancellation point (with `maybe_collect`):
        // it bounds abort latency for fork-heavy phases that allocate little.
        self.poll_abort();
        if !self.inner.config.lazy_child_heaps {
            return self.join_eager(fa, fb);
        }
        // forkjoin, steal-time heap placement: no heap is created up front. The left
        // branch always runs inline on this worker, sequentially — it continues in
        // the parent's heap. The right branch learns from the scheduler whether it
        // was actually stolen (the on-steal hook): if so, the *thief* creates one
        // fresh child heap for it (paying the heap cost only where parallelism
        // actually happened); if not, it runs sequentially after the left branch,
        // also in the parent's heap, and the fork was heap-free.
        let parent_heap = self.heap;
        let frame_a = Arc::clone(&self.frame);
        let frame_b = Arc::clone(&self.frame);
        let inner_a = Arc::clone(&self.inner);
        let inner_b = Arc::clone(&self.inner);
        let ctl_a = self.run_ctl.clone();
        let ctl_b = self.run_ctl.clone();
        let (ra, (rb, stolen_heap)) = self.worker.join_context(
            move || {
                let worker = Worker::current_in(&inner_a.pool)
                    .expect("task branch must execute on a pool worker");
                // The left branch always executes inline on the forking worker: it
                // continues in the parent's heap, with its shadow stack chained to
                // the suspended forking frame.
                let ctx = HhCtx::new_borrowed(frame_a, inner_a, parent_heap, worker, ctl_a);
                fa(&ctx)
            },
            move |stolen| {
                let worker = Worker::current_in(&inner_b.pool)
                    .expect("task branch must execute on a pool worker");
                if stolen {
                    // Hold the steal gate (shared) for the whole stolen run: this
                    // task reads its ancestor heaps lock-free, so borrowers must not
                    // collect them while it is in flight (see
                    // `maybe_collect_borrowed`).
                    let gate_owner = Arc::clone(&inner_b);
                    let _gate = gate_owner
                        .steal_gate
                        .read()
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                    let heap = inner_b.registry.new_child_heap(parent_heap);
                    let counters = inner_b.counters.shard(Some(worker.index()));
                    counters.heaps_created.fetch_add(1, Ordering::Relaxed);
                    // The left sibling's heap is still elided.
                    counters.heaps_elided.fetch_add(1, Ordering::Relaxed);
                    let ctx = HhCtx::new(inner_b, heap, worker, true, ctl_b);
                    (fb(&ctx), Some(heap))
                } else {
                    inner_b
                        .counters
                        .shard(Some(worker.index()))
                        .heaps_elided
                        .fetch_add(2, Ordering::Relaxed);
                    // Unstolen: runs on the forking worker, in the parent's heap,
                    // chained to the suspended forking frame.
                    let ctx = HhCtx::new_borrowed(frame_b, inner_b, parent_heap, worker, ctl_b);
                    (fb(&ctx), None)
                }
            },
        );
        // Only a stolen branch created a heap, so only that one needs the join splice.
        if let Some(heap) = stolen_heap {
            self.inner.registry.join_heap(parent_heap, heap);
        }
        (ra, rb)
    }

    fn pin(&self, obj: ObjPtr) {
        // Under an open incremental window the pin slot must hold a *retained*
        // address: frames created mid-window were not part of the seeded root
        // set, so the pinned object is evacuated here, through the barrier,
        // instead (no-op when no window is open or the object is outside it).
        let obj = self.inner.gc_barrier_value(obj);
        self.frame.pins.lock().push(obj);
    }

    fn unpin(&self, obj: ObjPtr) {
        let mut roots = self.frame.pins.lock();
        if let Some(pos) = roots.iter().rposition(|r| *r == obj) {
            roots.swap_remove(pos);
            return;
        }
        // A collection (or promotion) between pin and unpin rewrote the pin slot
        // in place, so the caller may hold a stale from-space address and the
        // slot some other hop of the object's forwarding history — and path
        // compression can shortcut either pointer past the other's hop. Old
        // copies stay readable until the reuse horizon, and forwarding is
        // confluent (every hop reaches the same final master), so compare
        // resolved masters rather than raw pointers to keep pin/unpin balanced
        // across collections.
        if obj.is_null() {
            return;
        }
        let store = self.inner.registry.store();
        let master = store.resolve_fwd(obj);
        if let Some(pos) = roots
            .iter()
            .rposition(|r| !r.is_null() && store.resolve_fwd(*r) == master)
        {
            roots.swap_remove(pos);
        }
    }

    fn maybe_collect(&self) {
        // Cooperative cancellation fires at the same safe points that may run
        // GC work: a poll here bounds how long a cancelled run keeps computing
        // by the workload's own collect-poll cadence (`par_for` leaves, loop
        // bodies), with no extra instrumentation.
        self.poll_abort();
        if self.inner.config.incremental_gc {
            // Safe points service an open window first: bounded drains must keep
            // running even while this heap is below threshold, and a contending
            // trigger helps the open collection finish instead of stacking a
            // monolithic pause on top of it.
            if self.inner.incremental_tick(true) {
                return;
            }
            // Test-only: installed schedule hooks may force a window open at
            // this safe point even under threshold (no-op in production).
            if !self.inner.should_collect(self.heap) && !self.inner.hook_force_collect() {
                return;
            }
            if self.owns_heap {
                // The owner starts between its own joins: no live descendants,
                // so the domain frame's pins are the complete root set (any
                // completed child was already joined, its chunks absorbed into
                // this heap's — now flipped — list).
                let top = self.inner.registry.resolve(self.heap);
                let mut roots = self.frame.pins.lock();
                let _ = self.inner.start_incremental(vec![top], &mut roots);
            } else {
                // A borrower needs the sync path's quiescence argument at seed
                // time — an in-flight stolen task may hold pins into this heap
                // taken before the window — but only for the seed pause: the
                // gate drops as soon as the mutator resumes, and everything
                // forked afterwards is covered by the barriers.
                let Ok(_gate) = self.inner.steal_gate.try_write() else {
                    return;
                };
                let zone = self.inner.registry.live_subtree(self.heap);
                let mut roots = self.frame.pins.lock();
                let _ = self.inner.start_incremental(zone, &mut roots);
            }
            return;
        }
        if !self.inner.should_collect(self.heap) {
            return;
        }
        if self.owns_heap {
            // The owner collects between its own joins: it has no live descendants
            // then, and no concurrent task has this heap on its ancestor path.
            let mut roots = self.frame.pins.lock();
            self.inner.collect_heap(self.heap, &mut roots);
        } else {
            // A borrower may collect the shared heap only when provably nothing else
            // can observe it (no stolen task in flight, chain covers all of the
            // heap's live contexts) — the common case in sequential stretches.
            self.maybe_collect_borrowed();
        }
    }

    fn n_workers(&self) -> usize {
        self.inner.pool.n_workers()
    }
}
