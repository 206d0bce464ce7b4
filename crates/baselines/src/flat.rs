//! The one context and runtime behind all three baselines.
//!
//! The baselines differ in exactly three memory-management decisions, which a
//! [`Policy`] makes (DESIGN.md, "Baselines: one context, three policies"):
//!
//! * **allocation target** — [`Policy::alloc`];
//! * **pointer-write barrier** — [`Policy::write_barrier`];
//! * **collection scope** — [`Policy::zone`] / [`Policy::install`] (plus the
//!   bookkeeping that goes with it: [`Policy::allocated_words`],
//!   [`Policy::dispose`], [`Policy::heaps`]).
//!
//! Everything else — the `ParCtx` op set, the bulk bodies, pin/unpin, join, the
//! stop-the-world trigger, `run` and `stats` — lives once, in [`FlatCtx`] and
//! [`FlatRuntime`]. A run ends as an `HhRuntime` run does: its epoch leaves the
//! store's [`RunEpochs`](hh_objmodel::RunEpochs), the last active run disposes the
//! policy's heaps, and the quarantine drains to the new watermark (see
//! [`RunGuard`]). Whether tasks run on a pool is the policy's [`Exec`], an
//! associated type: the sequential instantiation ([`Inline`]) resolves every
//! safepoint poll to nothing and every fork to two inline calls at
//! monomorphisation, so `SeqRuntime` — the `T_s` every overhead and speedup
//! ratio divides by — carries no pool, no poll and no `dyn`.

use crate::common::{par_semispace_collect, resolve_counted, resolve_tracked, FlatHeap};
use hh_api::{Collected, CounterShard, Counters, ParCtx, RunStats, Runtime};
use hh_objmodel::{ChunkId, ChunkStore, Header, ObjKind, ObjPtr};
use hh_sched::{Pool, Safepoints, Worker};
use parking_lot::Mutex;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// How a baseline's tasks execute: inline on the caller, or on a worker pool
/// with a stop-the-world safepoint protocol.
pub trait Exec: Send + Sync + Sized + 'static {
    /// True when tasks run on a pool. A `const`, so branches on it fold away.
    const PARALLEL: bool;
    /// The per-task worker handle.
    type Worker: Send;
    /// Builds the executor for `n_workers` workers.
    fn new(n_workers: usize) -> Self;
    /// Number of workers.
    fn n_workers(&self) -> usize;
    /// The allocation lane of `worker`.
    fn lane(worker: &Self::Worker) -> usize;
    /// A safe point: parks here while another worker collects.
    fn poll(&self);
    /// Runs `f` with every other worker parked; false if another thread's
    /// collection ran instead.
    fn stop_the_world(&self, f: impl FnOnce()) -> bool;
    /// Offers the helper body of a collection team of `n_workers` members to the
    /// other workers of a stopped world.
    fn draft(&self, work: Arc<dyn Fn(usize) + Send + Sync>);
    /// Forks `fa` inline and `fb` as a stealable task; `fb` learns whether it
    /// was stolen.
    fn join<RA, RB, FA, FB>(&self, worker: &Self::Worker, fa: FA, fb: FB) -> (RA, RB)
    where
        FA: FnOnce(Self::Worker) -> RA + Send,
        FB: FnOnce(Self::Worker, bool) -> RB + Send,
        RA: Send,
        RB: Send;
    /// Runs the root task.
    fn run<R: Send>(&self, f: impl FnOnce(Self::Worker) -> R + Send) -> R;
    /// Overlays scheduler counters on a statistics snapshot.
    fn overlay(&self, stats: &mut RunStats);
}

/// Sequential execution: one thread, no pool, no safepoints.
pub struct Inline;

impl Exec for Inline {
    const PARALLEL: bool = false;
    type Worker = ();

    fn new(_: usize) -> Inline {
        Inline
    }

    fn n_workers(&self) -> usize {
        1
    }

    #[inline(always)]
    fn lane(_: &()) -> usize {
        0
    }

    #[inline(always)]
    fn poll(&self) {}

    #[inline(always)]
    fn stop_the_world(&self, f: impl FnOnce()) -> bool {
        f();
        false
    }

    fn draft(&self, _: Arc<dyn Fn(usize) + Send + Sync>) {
        unreachable!("a team of one drafts no helper")
    }

    fn join<RA, RB, FA, FB>(&self, _: &(), fa: FA, fb: FB) -> (RA, RB)
    where
        FA: FnOnce(()) -> RA + Send,
        FB: FnOnce((), bool) -> RB + Send,
        RA: Send,
        RB: Send,
    {
        (fa(()), fb((), false))
    }

    fn run<R: Send>(&self, f: impl FnOnce(()) -> R + Send) -> R {
        f(())
    }

    fn overlay(&self, _: &mut RunStats) {}
}

/// Pool execution with stop-the-world collection through [`Safepoints`].
pub struct Pooled {
    pool: Pool,
    safepoints: Arc<Safepoints>,
}

impl Exec for Pooled {
    const PARALLEL: bool = true;
    type Worker = Worker;

    fn new(n_workers: usize) -> Pooled {
        let pool = Pool::new(n_workers);
        // Every worker takes part in the safepoint protocol for the lifetime of the
        // pool (it polls either from mutator operations or from the idle/help hooks).
        // Workers asleep on the pool condvar are not polling, so a requested
        // collection kicks them awake; they then re-run the idle hook, hit `poll`,
        // and park at the safepoint where the collector can count them.
        let waker = pool.waker();
        let safepoints = Arc::new(Safepoints::new(n_workers, move || waker.wake_all()));
        let sp = Arc::clone(&safepoints);
        pool.set_idle_hook(move |_| sp.poll());
        Pooled { pool, safepoints }
    }

    fn n_workers(&self) -> usize {
        self.pool.n_workers()
    }

    #[inline]
    fn lane(worker: &Worker) -> usize {
        worker.index()
    }

    #[inline]
    fn poll(&self) {
        self.safepoints.poll();
    }

    fn stop_the_world(&self, f: impl FnOnce()) -> bool {
        self.safepoints.stop_the_world(f)
    }

    fn draft(&self, work: Arc<dyn Fn(usize) + Send + Sync>) {
        // The world is stopped, so every other worker is parked at the safepoint —
        // draft them into the collection team instead of letting them sleep.
        self.safepoints.begin_pause_work(work);
    }

    fn join<RA, RB, FA, FB>(&self, worker: &Worker, fa: FA, fb: FB) -> (RA, RB)
    where
        FA: FnOnce(Worker) -> RA + Send,
        FB: FnOnce(Worker, bool) -> RB + Send,
        RA: Send,
        RB: Send,
    {
        let current = || {
            worker
                .current_peer()
                .expect("task branch must execute on a pool worker")
        };
        worker.join_context(move || fa(current()), move |stolen| fb(current(), stolen))
    }

    fn run<R: Send>(&self, f: impl FnOnce(Worker) -> R + Send) -> R {
        self.pool.run(move |worker| f(worker.clone()))
    }

    fn overlay(&self, stats: &mut RunStats) {
        let sched = self.pool.sched_stats();
        stats.sched_steals = sched.steals as u64;
        stats.sched_parks = sched.parks as u64;
        stats.sched_wakes = sched.wakes as u64;
    }
}

/// The three decisions that tell the baselines apart. The defaults describe one
/// flat heap ([`Policy::heap`]) collected whole.
pub trait Policy: Send + Sync + Sized + 'static {
    /// Inline or pooled execution.
    type Exec: Exec;
    /// The runtime's name in output tables.
    const NAME: &'static str;
    /// Raw owner id of the heap that collection survivors land in.
    const OWNER: u32;

    /// Builds the policy's heaps over `store` for `n_workers` workers.
    fn new(store: &Arc<ChunkStore>, n_workers: usize) -> Self;

    /// The heap the defaults below allocate into and collect.
    fn heap(&self) -> &FlatHeap;

    /// Allocation target: places an object for a task on `lane` that was (or was
    /// not) `stolen`.
    #[inline]
    fn alloc(
        &self,
        _counters: &CounterShard,
        lane: usize,
        _stolen: bool,
        header: Header,
    ) -> ObjPtr {
        self.heap().alloc(lane, header)
    }

    /// Pointer-write barrier: returns what to store when writing `ptr` into the
    /// (resolved) object `obj`.
    #[inline(always)]
    fn write_barrier(
        &self,
        _store: &ChunkStore,
        _counters: &CounterShard,
        _lane: usize,
        _obj: ObjPtr,
        ptr: ObjPtr,
    ) -> ObjPtr {
        ptr
    }

    /// Words allocated since the last collection (the trigger's measure).
    #[inline]
    fn allocated_words(&self) -> usize {
        self.heap().allocated_words()
    }

    /// Collection scope: the chunks a collection evacuates.
    fn zone(&self) -> Vec<ChunkId> {
        self.heap().chunks()
    }

    /// Installs a collection's to-space.
    fn install(&self, new_chunks: Vec<ChunkId>, occupied_words: usize) {
        self.heap().replace_chunks(new_chunks, occupied_words);
    }

    /// Retires a completed run's memory.
    fn dispose(&self) {
        self.heap().dispose();
    }

    /// Number of heaps, for `RunStats::heaps_created`.
    fn heaps(&self) -> u64 {
        1
    }
}

pub(crate) struct FlatInner<P: Policy> {
    pub(crate) store: Arc<ChunkStore>,
    pub(crate) policy: P,
    pub(crate) counters: Counters,
    exec: P::Exec,
    /// One shadow stack of GC roots per worker lane (see [`FlatCtx`]).
    roots: Vec<Mutex<Vec<ObjPtr>>>,
    /// Orders run begins against run ends (see [`RunGuard`]).
    runs: Mutex<()>,
    gc_threshold_words: usize,
}

impl<P: Policy> FlatInner<P> {
    /// Safe point plus, if the heap is over threshold, a stop-the-world collection
    /// counted into the calling task's `counters`.
    fn maybe_collect(&self, counters: &CounterShard) {
        self.exec.poll();
        if self.policy.allocated_words() < self.gc_threshold_words {
            return;
        }
        let collected = self.exec.stop_the_world(|| {
            // Re-check under exclusion: another collection may just have run.
            if P::Exec::PARALLEL && self.policy.allocated_words() < self.gc_threshold_words {
                return;
            }
            self.collect(counters);
        });
        if collected {
            counters.world_stops.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn collect(&self, c: &CounterShard) {
        let start = Instant::now();
        let members = self.exec.n_workers();
        let outcome = par_semispace_collect(
            &self.store,
            P::OWNER,
            &self.policy.zone(),
            &self.roots,
            members,
            |work| self.exec.draft(work),
        );
        let (copied, steals) = (outcome.copied_words, outcome.steal_blocks);
        self.policy.install(outcome.chunks, outcome.occupied_words);
        let pause = start.elapsed();
        let how = Collected::Pause { members, pause };
        self.counters.record_collection(c, how, copied, steals);
    }
}

/// One run of a baseline runtime, registered with the store's
/// [`RunEpochs`](hh_objmodel::RunEpochs) from begin to drop.
///
/// The drop runs on unwind too, so a panicking run closure cannot pin the
/// watermark. Under the runtime's run lock it ends the run's epoch and, if that
/// was the last active run, disposes the policy's heaps — they are shared by
/// every run in flight, so only the last one out may retire them, and a run that
/// begins meanwhile waits for the lock rather than allocating into heaps about to
/// go. The quarantine then drains to the new watermark: with no run active that
/// is every chunk retired so far, so the runtime holds no live chunk between runs.
struct RunGuard<'a, P: Policy> {
    inner: &'a FlatInner<P>,
    epoch: u64,
}

impl<'a, P: Policy> RunGuard<'a, P> {
    fn begin(inner: &'a FlatInner<P>) -> Self {
        let _runs = inner.runs.lock();
        let epoch = inner.store.run_epochs().begin();
        RunGuard { inner, epoch }
    }
}

impl<P: Policy> Drop for RunGuard<'_, P> {
    fn drop(&mut self) {
        let _runs = self.inner.runs.lock();
        let epochs = self.inner.store.run_epochs();
        epochs.end(self.epoch);
        if epochs.active_runs() == 0 {
            self.inner.policy.dispose();
        }
        self.inner.store.reclaim_watermark();
    }
}

/// A baseline runtime: `SeqRuntime`, `StwRuntime` or `DlgRuntime`.
pub struct FlatRuntime<P: Policy> {
    pub(crate) inner: Arc<FlatInner<P>>,
}

impl<P: Policy> FlatRuntime<P> {
    pub(crate) fn build(n_workers: usize, chunk_words: usize, gc_threshold_words: usize) -> Self {
        let n = n_workers.max(1);
        let store = Arc::new(ChunkStore::new(chunk_words));
        FlatRuntime {
            inner: Arc::new(FlatInner {
                policy: P::new(&store, n),
                exec: P::Exec::new(n),
                store,
                roots: (0..n).map(|_| Mutex::new(Vec::new())).collect(),
                counters: Counters::new(n),
                runs: Mutex::new(()),
                gc_threshold_words,
            }),
        }
    }
}

impl<P: Policy> FlatRuntime<P> {
    /// Snapshot of the chunk store's memory accounting and lifecycle state, as
    /// `HhRuntime::store_stats` reports it.
    pub fn store_stats(&self) -> hh_objmodel::StoreStats {
        self.inner.store.stats()
    }
}

impl<P: Policy<Exec = Pooled>> FlatRuntime<P> {
    /// Creates a runtime with `n_workers` workers and default memory parameters.
    pub fn with_workers(n_workers: usize) -> Self {
        Self::with_params(n_workers, 8 * 1024, 4 * 1024 * 1024)
    }

    /// Creates a runtime with explicit chunk size and GC threshold (in words).
    pub fn with_params(n_workers: usize, chunk_words: usize, gc_threshold_words: usize) -> Self {
        Self::build(n_workers, chunk_words, gc_threshold_words)
    }
}

/// The per-task context of a baseline runtime.
///
/// A task pins onto its worker lane's shadow stack, above the `base` the stack had
/// when the context was created, and the context's drop truncates the stack back to
/// `base`. That is sound because one worker's task frames are nested: a task
/// stolen or helped while its worker waits in a join runs on that worker's call
/// stack and ends before the join returns, so a context is always the top frame of
/// its lane while its task runs. `SeqRuntime` has one lane, so once it collects it
/// serves one run at a time (its stop-the-world excludes no other thread either).
pub struct FlatCtx<P: Policy> {
    inner: Arc<FlatInner<P>>,
    worker: <P::Exec as Exec>::Worker,
    /// True if this task was obtained by a steal (the DLG policy allocates its
    /// objects globally).
    stolen: bool,
    /// Length of the lane's shadow stack when this task began.
    base: usize,
    /// Keeps `FlatCtx: !Sync`: a branch that drove its suspended parent's context
    /// from another worker would pin onto the parent's lane out of nesting order.
    _not_sync: std::marker::PhantomData<std::cell::Cell<()>>,
}

impl<P: Policy> FlatCtx<P> {
    fn new(inner: Arc<FlatInner<P>>, worker: <P::Exec as Exec>::Worker, stolen: bool) -> Self {
        let base = inner.roots[P::Exec::lane(&worker)].lock().len();
        FlatCtx {
            inner,
            worker,
            stolen,
            base,
            _not_sync: std::marker::PhantomData,
        }
    }

    /// The shadow stack of this task's worker lane.
    #[inline]
    fn roots(&self) -> &Mutex<Vec<ObjPtr>> {
        &self.inner.roots[P::Exec::lane(&self.worker)]
    }

    /// This task's counter shard: its worker's lane (always 0 under `Inline`).
    #[inline]
    fn counters(&self) -> &CounterShard {
        self.inner.counters.shard(Some(P::Exec::lane(&self.worker)))
    }

    #[inline]
    fn resolve(&self, obj: ObjPtr) -> ObjPtr {
        resolve_tracked(&self.inner.store, self.counters(), obj)
    }

    /// One poll, bulk accounting, and one counted resolution of `obj`.
    #[inline]
    fn bulk_target(&self, obj: ObjPtr, words: usize) -> ObjPtr {
        self.inner.exec.poll();
        let counters = self.counters();
        counters.record_bulk(words as u64);
        resolve_counted(&self.inner.store, counters, obj)
    }
}

impl<P: Policy> Drop for FlatCtx<P> {
    fn drop(&mut self) {
        self.roots().lock().truncate(self.base);
    }
}

// Every non-generic op is an out-of-line call, as it was when each baseline had
// its own non-generic context (and as `HhCtx`'s are). A generic body would
// otherwise be inlined into the calling crate, making `SeqRuntime` — the `T_s`
// of every overhead and speedup ratio — faster than the runtimes it is compared
// with (by 25–35 % on the BFS rows when it was; DESIGN.md §14).
impl<P: Policy> ParCtx for FlatCtx<P> {
    #[inline(never)]
    fn alloc(&self, n_ptr: usize, n_nonptr: usize, kind: ObjKind) -> ObjPtr {
        // Parallel policies poll and may collect at every allocation; the
        // sequential one collects only at explicit `maybe_collect` safe points.
        let counters = self.counters();
        if P::Exec::PARALLEL {
            self.inner.maybe_collect(counters);
        }
        let header = Header::new(n_ptr + n_nonptr, n_ptr, kind);
        counters
            .allocated_words
            .fetch_add(header.size_words() as u64, Ordering::Relaxed);
        let lane = P::Exec::lane(&self.worker);
        self.inner.policy.alloc(counters, lane, self.stolen, header)
    }

    #[inline(never)]
    fn read_imm(&self, obj: ObjPtr, field: usize) -> u64 {
        self.inner.store.view(obj).field(field)
    }

    #[inline(never)]
    fn read_mut(&self, obj: ObjPtr, field: usize) -> u64 {
        self.inner.exec.poll();
        let obj = self.resolve(obj);
        self.inner.store.view(obj).field(field)
    }

    #[inline(never)]
    fn write_nonptr(&self, obj: ObjPtr, field: usize, val: u64) {
        self.inner.exec.poll();
        let obj = self.resolve(obj);
        self.inner.store.view(obj).set_field(field, val);
    }

    #[inline(never)]
    fn write_ptr(&self, obj: ObjPtr, field: usize, ptr: ObjPtr) {
        self.inner.exec.poll();
        let obj = self.resolve(obj);
        let ptr = self.inner.policy.write_barrier(
            &self.inner.store,
            self.counters(),
            P::Exec::lane(&self.worker),
            obj,
            ptr,
        );
        self.inner.store.view(obj).set_field(field, ptr.to_bits());
    }

    #[inline(never)]
    fn cas_nonptr(&self, obj: ObjPtr, field: usize, expected: u64, new: u64) -> Result<u64, u64> {
        self.inner.exec.poll();
        let obj = self.resolve(obj);
        self.inner.store.view(obj).cas_field(field, expected, new)
    }

    #[inline(never)]
    fn obj_len(&self, obj: ObjPtr) -> usize {
        self.inner.store.view(obj).n_fields()
    }

    // Bulk operations: one safepoint poll and one counted forwarding resolution per
    // object operand, then a straight field loop. Not polling inside the loop is
    // safe for the stop-the-world designs — a collection cannot start until every
    // thread parks at a poll, so no forwarding pointer appears mid-slice — and for
    // DLG it matches the scalar loop with respect to concurrent promotion (the
    // scalar path also resolves once before each access). `bulk_master_lookups`
    // counts the resolutions, so a regression to per-element lookups would show.

    #[inline(never)]
    fn read_imm_bulk(&self, obj: ObjPtr, start: usize, out: &mut [u64]) {
        if out.is_empty() {
            return;
        }
        // Immutable fields never need the forwarding chain.
        self.counters().record_bulk(out.len() as u64);
        let v = self.inner.store.view(obj);
        for (k, slot) in out.iter_mut().enumerate() {
            *slot = v.field(start + k);
        }
    }

    #[inline(never)]
    fn read_mut_bulk(&self, obj: ObjPtr, start: usize, out: &mut [u64]) {
        if out.is_empty() {
            return;
        }
        let v = self.inner.store.view(self.bulk_target(obj, out.len()));
        for (k, slot) in out.iter_mut().enumerate() {
            *slot = v.field(start + k);
        }
    }

    #[inline(never)]
    fn write_nonptr_bulk(&self, obj: ObjPtr, start: usize, vals: &[u64]) {
        if vals.is_empty() {
            return;
        }
        let v = self.inner.store.view(self.bulk_target(obj, vals.len()));
        for (k, &val) in vals.iter().enumerate() {
            v.set_field(start + k, val);
        }
    }

    #[inline(never)]
    fn fill_nonptr(&self, obj: ObjPtr, start: usize, len: usize, val: u64) {
        if len == 0 {
            return;
        }
        let v = self.inner.store.view(self.bulk_target(obj, len));
        for k in 0..len {
            v.set_field(start + k, val);
        }
    }

    #[inline(never)]
    fn copy_nonptr(
        &self,
        src: ObjPtr,
        src_start: usize,
        dst: ObjPtr,
        dst_start: usize,
        len: usize,
    ) {
        if len == 0 {
            return;
        }
        let sv = self.inner.store.view(self.bulk_target(src, len));
        let dst = resolve_counted(&self.inner.store, self.counters(), dst);
        let dv = self.inner.store.view(dst);
        for k in 0..len {
            dv.set_field(dst_start + k, sv.field(src_start + k));
        }
    }

    fn join<RA, RB, FA, FB>(&self, fa: FA, fb: FB) -> (RA, RB)
    where
        FA: FnOnce(&Self) -> RA + Send,
        FB: FnOnce(&Self) -> RB + Send,
        RA: Send,
        RB: Send,
    {
        if !P::Exec::PARALLEL {
            // Sequential elision of parallelism: run left then right on this context.
            return (fa(self), fb(self));
        }
        self.inner.exec.poll();
        let inner_a = Arc::clone(&self.inner);
        let inner_b = Arc::clone(&self.inner);
        self.inner.exec.join(
            &self.worker,
            // The left branch always runs inline on the parent's worker.
            move |worker| fa(&FlatCtx::new(inner_a, worker, false)),
            // A stolen right branch models a task communicated between processors.
            move |worker, stolen| fb(&FlatCtx::new(inner_b, worker, stolen)),
        )
    }

    #[inline(never)]
    fn pin(&self, obj: ObjPtr) {
        self.roots().lock().push(obj);
    }

    #[inline(never)]
    fn unpin(&self, obj: ObjPtr) {
        hh_api::unpin_from(&mut self.roots().lock(), &self.inner.store, obj);
    }

    #[inline(never)]
    fn maybe_collect(&self) {
        self.inner.maybe_collect(self.counters());
    }

    #[inline(never)]
    fn n_workers(&self) -> usize {
        self.inner.exec.n_workers()
    }
}

impl<P: Policy> Runtime for FlatRuntime<P> {
    type Ctx = FlatCtx<P>;

    fn name(&self) -> &'static str {
        P::NAME
    }

    fn n_workers(&self) -> usize {
        self.inner.exec.n_workers()
    }

    fn run<R, F>(&self, f: F) -> R
    where
        R: Send,
        F: FnOnce(&Self::Ctx) -> R + Send,
    {
        let _run = RunGuard::begin(&self.inner);
        let inner = Arc::clone(&self.inner);
        self.inner
            .exec
            .run(move |worker| f(&FlatCtx::new(inner, worker, false)))
    }

    fn stats(&self) -> RunStats {
        let inner = &self.inner;
        let mut stats = inner.counters.snapshot(&inner.store.stats());
        stats.heaps_created = inner.policy.heaps();
        inner.exec.overlay(&mut stats);
        stats
    }

    fn reset_stats(&self) {
        self.inner.counters.reset();
    }
}
