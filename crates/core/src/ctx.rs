//! The per-task context: Figure 3's operations bound to one task and its heap.

use crate::runtime::Inner;
use hh_api::ParCtx;
use hh_heaps::HeapId;
use hh_objmodel::{Header, ObjKind, ObjPtr};
use hh_sched::Worker;
use parking_lot::Mutex;
use std::sync::atomic::Ordering;
use std::sync::{Arc, TryLockError};

/// The shared shadow stack of one heap's **ownership domain**: the heap's owner plus
/// every task borrowing the heap under the lazy steal-time policy. All of those tasks
/// execute on one worker thread (that is what made the elision sound), nested on its
/// call stack, so a single pin vector — allocated once when the heap's owner context
/// is created, and shared by `Arc::clone` with each borrower — holds every pin that
/// can point into the heap. That makes it the complete root set for any collection of
/// the heap, no matter which domain member triggers it or which sibling frames a
/// help-loop interleaving has suspended. The mutex is uncontended (single-thread
/// access); it exists to keep the frame `Send + Sync` across the fork closures.
pub(crate) struct RootFrame {
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
/// mode — the heap was created for this task and joins its parent when the task
/// ends) or **borrows** the parent's heap (an unstolen branch, which runs
/// sequentially on the forking worker). Either collects the heap on threshold only
/// while no stolen child of the heap is in flight (the heap's steal gate), using the
/// heap domain's shared shadow stack as the root set; an owner between its joins
/// always qualifies. See the `RootFrame` and `HhCtx::with_quiescent_heap` internals
/// and DESIGN.md §4.2 / §5.
pub struct HhCtx {
    inner: Arc<Inner>,
    heap: HeapId,
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
    /// A context for a task running in `heap`: an owner with a fresh shadow stack
    /// when `domain_frame` is `None`, otherwise a borrower of the forking context's
    /// heap, sharing its domain's shadow stack (so the fork fast path stays
    /// allocation-free).
    pub(crate) fn new(
        inner: Arc<Inner>,
        heap: HeapId,
        worker: Worker,
        domain_frame: Option<Arc<RootFrame>>,
        run_ctl: Option<Arc<hh_api::RunCtl>>,
    ) -> HhCtx {
        HhCtx {
            inner,
            heap,
            worker,
            owns_heap: domain_frame.is_none(),
            frame: domain_frame.unwrap_or_else(RootFrame::new),
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
    /// lives in must belong to this task's run, the run tag of its heap (fixed
    /// at creation, shared by the run's whole tree). A stale `ObjPtr` carried
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
            let run = self.inner.registry.heap(self.heap).run_tag();
            assert!(
                tag == run,
                "cross-run ObjPtr: {obj:?} points into a chunk of run epoch {tag}, \
                 accessed from run epoch {run}"
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
    /// the collection is best-effort: a stolen sibling still in flight may be
    /// reading this heap lock-free as one of its ancestors, so the call is skipped —
    /// never run unsoundly — unless the heap's steal gate is free. Stolen tasks
    /// elsewhere, under other heaps or in other runs, never block it. Returns `true`
    /// if a collection ran.
    pub fn force_collect(&self) -> bool {
        self.with_quiescent_heap(|heap, roots| self.inner.collect_heap(&self.worker, heap, roots))
    }

    /// Number of currently pinned roots in this task's heap domain (diagnostics).
    pub fn root_count(&self) -> usize {
        self.frame.pins.lock().len()
    }

    /// Runs `collect` on this task's (resolved) heap with the domain frame's pins as
    /// the root set, when nothing outside the heap's ownership domain can observe
    /// the heap; returns `false`, having run nothing, otherwise. Every collection
    /// zone is this one heap: a child heap joins its parent when its task ends, so a
    /// heap whose collector may run has no live descendant (DESIGN.md §4.2, §5.3).
    ///
    /// Owners and borrowers follow one rule: the collector needs its heap's steal
    /// gate exclusively (`try_write`: while a stolen child runs, the collection is
    /// skipped, never waited for). Every stolen child of the heap holds the read
    /// side for its whole run and joins its heap before releasing it; a stolen
    /// grandchild holds its own parent's gate, whose owner in turn holds this one
    /// until every join beneath it returns. So while the gate is held no task
    /// beneath this heap runs elsewhere, and none starts until it drops. Between its
    /// joins an owner finds the gate free. Everything else of the domain runs on
    /// this worker's thread, suspended beneath this frame, and its pins all live in
    /// the shared frame. Ancestors above the owner cannot hold pointers into a heap
    /// created after their frames suspended, and no heap outside the domain can
    /// point into it (that would be entanglement).
    fn with_quiescent_heap(&self, collect: impl FnOnce(HeapId, &mut [ObjPtr])) -> bool {
        let heap = self.inner.registry.resolve(self.heap);
        // The gate a thief holds is its parent's, looked up unresolved: the same
        // heap, because a heap joins its parent only once its owning branch ended.
        debug_assert_eq!(heap, self.heap, "a live task's heap has joined its parent");
        let _gate = match self.inner.registry.heap(heap).steal_gate.try_write() {
            Err(TryLockError::WouldBlock) => return false,
            held => held,
        };
        collect(heap, &mut self.frame.pins.lock());
        true
    }
}

/// What both branches of a fork borrow from the forking context, which outlives
/// them: `join` returns only once both have finished.
struct Fork<'a> {
    worker: &'a Worker,
    inner: &'a Arc<Inner>,
    parent: HeapId,
    frame: &'a Arc<RootFrame>,
    run_ctl: &'a Option<Arc<hh_api::RunCtl>>,
}

/// One branch of `fork`, run on the worker executing it (a thief, if the branch
/// was `stolen`). In eager mode, or when the branch was stolen, it runs in a fresh
/// child heap of the forker's heap that joins it when the branch ends — on return
/// and on unwind alike, and, for a stolen branch, before the branch releases the
/// forker's heap's steal gate. Otherwise it borrows the forker's heap, on the
/// domain's shadow stack. `elided` counts the fork's child heaps that were never
/// created.
fn run_branch<R>(fork: &Fork<'_>, stolen: bool, elided: u64, f: impl FnOnce(&HhCtx) -> R) -> R {
    let Fork {
        inner,
        parent,
        run_ctl,
        ..
    } = *fork;
    let worker = fork
        .worker
        .current_peer()
        .expect("task branch must execute on a pool worker");
    let counters = inner.counters.shard(Some(worker.index()));
    if elided > 0 {
        counters.heaps_elided.fetch_add(elided, Ordering::Relaxed);
    }
    if inner.config.lazy_child_heaps && !stolen {
        let frame = Some(Arc::clone(fork.frame));
        return f(&HhCtx::new(
            Arc::clone(inner),
            parent,
            worker,
            frame,
            run_ctl.clone(),
        ));
    }
    // A stolen branch holds its parent heap's steal gate (shared) for its whole
    // run: it reads its ancestor heaps lock-free, so the parent must not be
    // collected while it is in flight (see `HhCtx::with_quiescent_heap`).
    let _gate = stolen.then(|| {
        counters.sched_steals.fetch_add(1, Ordering::Relaxed);
        inner.registry.heap(parent).steal_gate.read()
    });
    counters.heaps_created.fetch_add(1, Ordering::Relaxed);
    /// `joinHeap` at the end of the branch's task (Figure 5).
    struct JoinOnDrop<'a> {
        registry: &'a hh_heaps::HeapRegistry,
        parent: HeapId,
        heap: HeapId,
    }
    impl Drop for JoinOnDrop<'_> {
        fn drop(&mut self) {
            self.registry.join_heap(self.parent, self.heap);
        }
    }
    let heap = inner.registry.new_child_heap(parent);
    let _join = JoinOnDrop {
        registry: &inner.registry,
        parent,
        heap,
    };
    f(&HhCtx::new(
        Arc::clone(inner),
        heap,
        worker,
        None,
        run_ctl.clone(),
    ))
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
        // forkjoin. Eager mode gives every branch a fresh child heap. The lazy
        // steal-time policy creates none up front: the left branch always runs
        // inline on this worker and continues in the parent's heap; the right
        // branch learns from the scheduler whether it was stolen (`join_context`'s
        // flag) — if so, the *thief* creates its child heap, paying the heap cost
        // only where parallelism actually happened; if not, it runs after the left
        // branch, also in the parent's heap, and the fork was heap-free.
        let eager = !self.inner.config.lazy_child_heaps;
        let fork = &Fork {
            worker: &self.worker,
            inner: &self.inner,
            parent: self.heap,
            frame: &self.frame,
            run_ctl: &self.run_ctl,
        };
        self.worker.join_context(
            move || run_branch(fork, false, 0, fa),
            move |stolen| {
                // This branch accounts for the fork's elided heaps: the lazy left
                // branch's, and its own when unstolen.
                let elided = if eager { 0 } else { 1 + u64::from(!stolen) };
                run_branch(fork, stolen, elided, fb)
            },
        )
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
        let store = self.inner.registry.store();
        hh_api::unpin_from(&mut self.frame.pins.lock(), store, obj);
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
            self.with_quiescent_heap(|heap, roots| {
                let _ = self.inner.start_incremental(heap, roots);
            });
            return;
        }
        if self.inner.should_collect(self.heap) {
            self.with_quiescent_heap(|heap, roots| {
                self.inner.collect_heap(&self.worker, heap, roots)
            });
        }
    }

    fn n_workers(&self) -> usize {
        self.inner.n_workers()
    }
}
