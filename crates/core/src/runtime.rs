//! Runtime construction and the [`Runtime`] implementation.

use crate::config::HhConfig;
use crate::ctx::HhCtx;
use hh_api::{CounterShard, Counters, RunStats, Runtime};
use hh_heaps::{HeapId, HeapRegistry};
use hh_objmodel::ChunkStore;
use hh_sched::{Pool, PoolId};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Shared state of one hierarchical-heap runtime: the heap registry (which owns the
/// chunk store), the configuration, and the statistics counters. The scheduler
/// pool is not part of it: [`HhRuntime`] owns the pool, and the pool's hooks own
/// an `Arc<Inner>`, so no cycle keeps either alive.
pub(crate) struct Inner {
    pub(crate) registry: HeapRegistry,
    /// The pool's identity: tells its workers apart from other threads.
    pub(crate) pool: PoolId,
    pub(crate) config: HhConfig,
    /// One shard per pool worker plus one for outside threads; operations count
    /// into [`Inner::shard`].
    pub(crate) counters: Counters,
    /// True while an incremental collection window is open (GC v3). The write
    /// barrier's per-operation test: one atomic load, behind a plain
    /// `config.incremental_gc` test so the A6 shape pays nothing.
    pub(crate) incremental_active: std::sync::atomic::AtomicBool,
    /// The open incremental collection, if any (at most one per runtime).
    /// Barrier cold paths and increment drains clone the `Arc` out and release
    /// the lock immediately — in particular, the finalize handshake must never
    /// run under it (barrier calls need the lock to reach the engine).
    pub(crate) active_gc: parking_lot::Mutex<Option<Arc<crate::incremental::ActiveGc>>>,
    /// GC epoch of the open window: lets the barrier cold path test a chunk's
    /// zone membership (`gc_state(epoch)`) before touching the `active_gc` lock,
    /// so operations on untouched heaps never contend on it.
    pub(crate) active_gc_epoch: std::sync::atomic::AtomicU64,
    /// Fast guard for the test-only schedule hooks: the rare-path sites fire
    /// events only when this is set, so an un-hooked runtime pays one relaxed
    /// load at schedule points and nothing anywhere else.
    hooks_installed: std::sync::atomic::AtomicBool,
    /// Test-only schedule hooks (see [`crate::hooks`]): per-runtime, so
    /// parallel tests never observe each other's schedules.
    hooks: parking_lot::Mutex<Option<Arc<dyn crate::hooks::GcScheduleHooks>>>,
    /// One per pool worker: the object its `cas_nonptr` is about to change, or
    /// NULL (see `Inner::cas_master`).
    pub(crate) cas_slots: Box<[CasSlot]>,
}

/// A pool worker's announcement of the object its CAS is about to change
/// (`ObjPtr::NULL` bits between CASes), on cache lines of its own: the worker
/// writes it on every CAS outside a root heap, and only promoters read it.
#[repr(align(128))]
pub(crate) struct CasSlot(pub(crate) std::sync::atomic::AtomicU64);

impl Inner {
    /// Number of pool workers (there is one CAS slot per worker).
    pub(crate) fn n_workers(&self) -> usize {
        self.cas_slots.len()
    }

    /// The calling thread's counter shard: its worker's own, or the shared one of
    /// threads outside the pool. One thread-local load.
    #[inline]
    pub(crate) fn shard(&self) -> &CounterShard {
        self.counters.shard(self.pool.current_worker_index())
    }

    /// Fires a test-only schedule event (no-op unless hooks are installed; the
    /// handler may block — see [`crate::hooks`]). Only rare paths call this.
    #[inline]
    pub(crate) fn fire_hook(&self, event: crate::hooks::GcScheduleEvent) {
        if self.hooks_installed.load(Ordering::Relaxed) {
            self.fire_hook_cold(event);
        }
    }

    #[cold]
    fn fire_hook_cold(&self, event: crate::hooks::GcScheduleEvent) {
        let hooks = self.hooks.lock().clone();
        if let Some(h) = hooks {
            h.on_event(event);
        }
    }

    /// True when installed schedule hooks ask to force a collection trigger at
    /// the calling safe point (see [`crate::hooks::GcScheduleHooks::force_collect`]).
    #[inline]
    pub(crate) fn hook_force_collect(&self) -> bool {
        if !self.hooks_installed.load(Ordering::Relaxed) {
            return false;
        }
        let hooks = self.hooks.lock().clone();
        hooks.is_some_and(|h| h.force_collect())
    }

    /// True when installed schedule hooks ask the calling allocation to fail
    /// (see [`crate::hooks::GcScheduleHooks::inject_alloc_fault`]). One relaxed
    /// load on the allocation path when no hooks are installed.
    #[inline]
    pub(crate) fn hook_alloc_fault(&self) -> bool {
        if !self.hooks_installed.load(Ordering::Relaxed) {
            return false;
        }
        self.hook_alloc_fault_cold()
    }

    #[cold]
    fn hook_alloc_fault_cold(&self) -> bool {
        let hooks = self.hooks.lock().clone();
        hooks.is_some_and(|h| h.inject_alloc_fault())
    }

    /// Starts a run: the run draws a monotone epoch from the store's
    /// [`hh_objmodel::RunEpochs`] and its root heap carries that tag, so every chunk
    /// the run allocates is attributed to it; nothing is disposed here — each run
    /// cleans up after *itself* at `end_run`.
    ///
    /// An `ObjPtr` must not be carried from one `run` into a later one: its chunk
    /// may have been recycled for the new run (debug builds catch such stale
    /// pointers: the access paths assert the chunk's run tag — see
    /// `HhCtx::check_cross_run`).
    fn begin_run(&self) -> (HeapId, u64) {
        let epoch = self.registry.store().run_epochs().begin();
        let root = self.registry.new_root_heap_for_run(epoch);
        self.shard().heaps_created.fetch_add(1, Ordering::Relaxed);
        (root, epoch)
    }

    /// Ends a run: the run's own heap tree is disposed immediately (its tasks are
    /// gone, so no live `ObjPtr` into it remains *inside* the managed world — only
    /// the caller's Rust locals, which must not cross runs), its epoch retires, and
    /// the quarantine is drained up to the new watermark — reclaiming this run's
    /// chunks, and any older conservative stamps it was holding back, while other
    /// runs keep flying. Every child heap joined its parent when its task ended, so
    /// the tree is the root heap alone.
    fn end_run(&self, root: HeapId, epoch: u64) {
        // A window of the ending run must complete before its tree is disposed:
        // its semispaces are on no heap's chunk list mid-window, so disposal
        // would leak both.
        //
        // Both the forced finalize and the pre-dispose event fire schedule
        // hooks, and hooks may panic (the fault-injection layer models crashes
        // that way — a run that *returned* can still be killed at its own
        // teardown finalize). Teardown must dispose the tree and end the epoch
        // regardless, or the reclamation watermark is pinned for the rest of
        // the runtime's life; so the hook-bearing prefix runs caught, the
        // unconditional tail runs after, and the panic is re-raised last
        // (`EndRunGuard` decides whether re-raising is safe).
        let teardown = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.finalize_incremental_now(|gc| gc.zone_run_tag == epoch);
            self.fire_hook(crate::hooks::GcScheduleEvent::EndRunPreDispose { run_epoch: epoch });
        }));
        self.registry.dispose_subtree(root);
        let store = self.registry.store();
        store.run_epochs().end(epoch);
        store.reclaim_watermark();
        if let Err(payload) = teardown {
            std::panic::resume_unwind(payload);
        }
    }
}

/// Ends the run on drop, so a panicking run closure (propagated by `Pool::run`)
/// cannot leave the epoch permanently active — which would disable disposal and
/// recycling for the rest of the runtime's life.
///
/// The drop is itself panic-aware: `end_run` can re-raise a hook panic (see
/// its teardown comment), and this guard usually runs *during* an unwind of
/// the run closure's own panic. Re-raising there would be a double panic
/// (process abort), so a teardown panic is propagated only when the thread is
/// not already unwinding; otherwise it is contained and counted
/// (`RunStats::teardown_panics`) and the original panic continues.
struct EndRunGuard<'a> {
    inner: &'a Inner,
    root: HeapId,
    epoch: u64,
}

impl Drop for EndRunGuard<'_> {
    fn drop(&mut self) {
        let unwinding = std::thread::panicking();
        if unwinding {
            // The run is ending by unwind (panic, cooperative abort, or
            // injected fault) rather than by returning.
            self.inner
                .shard()
                .runs_aborted
                .fetch_add(1, Ordering::Relaxed);
        }
        let teardown = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.inner.end_run(self.root, self.epoch);
        }));
        if let Err(payload) = teardown {
            if unwinding {
                self.inner
                    .shard()
                    .teardown_panics
                    .fetch_add(1, Ordering::Relaxed);
            } else {
                std::panic::resume_unwind(payload);
            }
        }
    }
}

/// The disentanglement checker's full report ([`HhRuntime::check_disentangled_report`]):
/// every violation with per-chunk forensics, plus the incremental-window state at
/// check time — a window still open (or mid-finalize) when the hierarchy is
/// supposed to be quiescent is itself a scheduling bug worth reporting.
#[derive(Clone, Debug)]
pub struct DisentanglementReport {
    /// The violations found (empty when the invariant holds).
    pub violations: Vec<hh_heaps::EntanglementViolation>,
    /// True if an incremental window was installed at check time.
    pub window_open: bool,
    /// True if the installed window had entered finalization.
    pub window_finalizing: bool,
    /// Collection epoch of the installed window (0 = none).
    pub window_epoch: u64,
}

impl DisentanglementReport {
    /// True when no violation was found.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl std::fmt::Display for DisentanglementReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} disentanglement violation(s); window open: {}, finalizing: {}, epoch {}",
            self.violations.len(),
            self.window_open,
            self.window_finalizing,
            self.window_epoch
        )?;
        for v in &self.violations {
            write!(f, "\n  {v}")?;
        }
        Ok(())
    }
}

/// The hierarchical-heap runtime with mutation support (`mlton-parmem` in the paper's
/// terminology).
///
/// ```
/// use hh_runtime::{HhRuntime, HhConfig};
/// use hh_api::{ParCtx, Runtime};
///
/// let rt = HhRuntime::new(HhConfig::with_workers(2));
/// let sum = rt.run(|ctx| {
///     let r = ctx.alloc_ref_data(1);
///     let (a, b) = ctx.join(|c| c.read_mut(r, 0) + 1, |c| c.read_mut(r, 0) + 2);
///     a + b
/// });
/// assert_eq!(sum, 5);
/// ```
pub struct HhRuntime {
    /// Declared first, so it drops first: every worker is joined on the owner's
    /// thread, and the pool's hooks release their `Arc<Inner>`, before `inner`
    /// drops. A worker therefore never tears the runtime down.
    pool: Pool,
    inner: Arc<Inner>,
}

impl HhRuntime {
    /// Creates a runtime from a configuration.
    pub fn new(config: HhConfig) -> HhRuntime {
        let store = Arc::new(ChunkStore::new(config.chunk_words));
        let registry = HeapRegistry::new(store);
        let pool = Pool::new(config.n_workers);
        let inner = Arc::new(Inner {
            registry,
            pool: pool.id(),
            counters: Counters::new(pool.n_workers()),
            incremental_active: std::sync::atomic::AtomicBool::new(false),
            active_gc: parking_lot::Mutex::new(None),
            active_gc_epoch: std::sync::atomic::AtomicU64::new(0),
            hooks_installed: std::sync::atomic::AtomicBool::new(false),
            hooks: parking_lot::Mutex::new(None),
            cas_slots: (0..pool.n_workers())
                .map(|_| CasSlot(hh_objmodel::ObjPtr::NULL.to_bits().into()))
                .collect(),
            config,
        });
        if inner.config.incremental_gc {
            // Idle workers drain increments of an open window instead of
            // spinning: the collection makes progress on cycles that would
            // otherwise be wasted, without charging any mutator a pause (hence
            // `record_pause = false`).
            let inner = Arc::clone(&inner);
            pool.set_idle_hook(move |_worker| {
                if inner.incremental_active.load(Ordering::Relaxed) {
                    inner.incremental_tick(false);
                }
            });
        }
        HhRuntime { pool, inner }
    }

    /// Creates a runtime with `n` workers and default memory parameters.
    pub fn with_workers(n: usize) -> HhRuntime {
        Self::new(HhConfig::with_workers(n))
    }

    /// The shared state, for in-crate tests that drive `Inner`'s operations directly.
    #[cfg(test)]
    pub(crate) fn inner(&self) -> &Inner {
        &self.inner
    }

    /// The configuration this runtime was built with.
    pub fn config(&self) -> &HhConfig {
        &self.inner.config
    }

    /// Walks every live heap and returns the number of disentanglement violations
    /// (0 when the invariant holds). Only meaningful while no tasks are running.
    /// For forensics — per-violation chunk context plus window state — use
    /// [`HhRuntime::check_disentangled_report`].
    pub fn check_disentangled(&self) -> usize {
        self.inner.registry.check_disentangled().len()
    }

    /// As [`HhRuntime::check_disentangled`], but returns the full forensic
    /// report: every violation with the chunk-level context of both ends
    /// (run tag, gc tag epoch and FROM/TO, retirement, generation, depths)
    /// plus the incremental-window state at check time. This is what turns a
    /// one-in-a-thousand race hit into a diagnosable artifact.
    pub fn check_disentangled_report(&self) -> DisentanglementReport {
        let (window_open, window_finalizing, window_epoch) = {
            let slot = self.inner.active_gc.lock();
            match slot.as_ref() {
                Some(gc) => (true, gc.is_finalizing(), gc.engine.epoch()),
                None => (false, false, 0),
            }
        };
        DisentanglementReport {
            violations: self.inner.registry.check_disentangled(),
            window_open,
            window_finalizing,
            window_epoch,
        }
    }

    /// Installs the test-only GC schedule hooks (see [`crate::hooks`]): the
    /// deterministic window-schedule harness used by the race stress lanes and
    /// pinned reproducers. Not part of the public API surface.
    #[doc(hidden)]
    pub fn install_gc_hooks(&self, hooks: Arc<dyn crate::hooks::GcScheduleHooks>) {
        *self.inner.hooks.lock() = Some(hooks);
        self.inner.hooks_installed.store(true, Ordering::Release);
    }

    /// Snapshot of the chunk store's memory accounting and lifecycle state (chunk
    /// counts per state, free/live/peak words — for tests, the harness, and
    /// diagnostics).
    pub fn store_stats(&self) -> hh_objmodel::StoreStats {
        self.inner.registry.store().stats()
    }

    /// Oldest still-active run epoch (the reclamation watermark; epoch-mode
    /// diagnostics). A run that ends — even by panic — must stop pinning this.
    pub fn min_active_epoch(&self) -> u64 {
        self.inner.registry.store().run_epochs().min_active()
    }

    /// Number of currently active run epochs (0 when the runtime is quiescent).
    pub fn active_runs(&self) -> usize {
        self.inner.registry.store().run_epochs().active_runs()
    }

    /// As [`Runtime::run`], with a cancellation token: the
    /// run's safe points (`maybe_collect`, fork entry) poll `ctl` and unwind
    /// with a typed [`hh_api::RunAbort`] payload once it fires. Panics (with
    /// that payload) when the run aborts — pair with
    /// [`Runtime::try_run`] to get a value back.
    pub fn run_with_ctl<R, F>(&self, ctl: &Arc<hh_api::RunCtl>, f: F) -> R
    where
        R: Send,
        F: FnOnce(&HhCtx) -> R + Send,
    {
        self.run_inner(Some(Arc::clone(ctl)), f)
    }

    fn run_inner<R, F>(&self, ctl: Option<Arc<hh_api::RunCtl>>, f: F) -> R
    where
        R: Send,
        F: FnOnce(&HhCtx) -> R + Send,
    {
        // Each root task gets a fresh root heap, mirroring `main` owning the root of
        // the hierarchy in the paper's Figure 2. The guard ends the run — disposing
        // of its heap tree and recycling its chunks (see `Inner::end_run`) — even if
        // `f` panics out through `Pool::run`.
        let (root_heap, epoch) = self.inner.begin_run();
        let _guard = EndRunGuard {
            inner: &self.inner,
            root: root_heap,
            epoch,
        };
        let inner = Arc::clone(&self.inner);
        self.pool.run(move |worker| {
            let ctx = HhCtx::new(Arc::clone(&inner), root_heap, worker.clone(), None, ctl);
            f(&ctx)
        })
    }
}

impl Runtime for HhRuntime {
    type Ctx = HhCtx;

    fn name(&self) -> &'static str {
        "parmem"
    }

    fn n_workers(&self) -> usize {
        self.pool.n_workers()
    }

    fn run<R, F>(&self, f: F) -> R
    where
        R: Send,
        F: FnOnce(&Self::Ctx) -> R + Send,
    {
        self.run_inner(None, f)
    }

    fn try_run<R, F>(&self, ctl: &Arc<hh_api::RunCtl>, f: F) -> Result<R, hh_api::RunError>
    where
        R: Send,
        F: FnOnce(&Self::Ctx) -> R + Send,
    {
        // Overrides the trait default (which can only wrap `run`) so the token
        // actually reaches this runtime's safe points: `maybe_collect` and
        // fork entry poll it and unwind with a typed payload.
        if let Some(reason) = ctl.aborted() {
            return Err(hh_api::RunError::from_abort(reason));
        }
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.run_with_ctl(ctl, f))) {
            Ok(r) => Ok(r),
            Err(payload) => Err(hh_api::RunError::from_panic(payload)),
        }
    }

    fn stats(&self) -> RunStats {
        let store_stats = self.inner.registry.store().stats();
        let mut stats = self.inner.counters.snapshot(&store_stats);
        // Parking statistics live in the pool (cumulative over its lifetime); steals
        // are counted by each stolen branch, so they reset with the other counters.
        let sched = self.pool.sched_stats();
        stats.sched_parks = sched.parks as u64;
        stats.sched_wakes = sched.wakes as u64;
        stats
    }

    fn reset_stats(&self) {
        self.inner.counters.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hh_api::ParCtx;
    use std::sync::atomic::{AtomicBool, AtomicU32};
    use std::time::{Duration, Instant};

    /// The left branch of a fork whose right branch records its heap in `stolen`
    /// when it owns one: yields until that heap has joined its parent, and
    /// returns whether it did within the deadline. The fork's `join` cannot
    /// return before this branch does, so `true` means the stolen heap joined
    /// before the forker's `join` returned.
    fn wait_for_stolen_join(rt: &HhRuntime, stolen: &AtomicU32) -> bool {
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            let raw = stolen.load(Ordering::Acquire);
            if raw != HeapId::NONE.raw()
                && !rt.inner().registry.heap(HeapId::from_raw(raw)).is_live()
            {
                return true;
            }
            std::thread::yield_now();
        }
        false
    }

    /// A stolen branch's work: allocates into its heap and records the heap.
    fn stolen_branch(c: &HhCtx, stolen: &AtomicU32) {
        let o = c.alloc_data_array(64);
        c.write_nonptr(o, 0, 1);
        assert!(c.owns_heap(), "the right branch runs on the other worker");
        stolen.store(c.heap().raw(), Ordering::Release);
    }

    /// After a finished run every chunk is back in the store: none is still held
    /// by a heap the run's disposal missed.
    fn assert_store_drained(rt: &HhRuntime) {
        let s = rt.store_stats();
        assert_eq!(
            s.chunks_created,
            s.chunks_active + s.chunks_quarantined + s.chunks_free,
            "chunk conservation violated: {s:?}"
        );
        assert_eq!(s.chunks_active, 0, "a heap outlived its run: {s:?}");
        assert_eq!(rt.active_runs(), 0);
    }

    #[test]
    fn child_heap_joins_when_its_stolen_branch_returns() {
        let rt = HhRuntime::with_workers(2);
        let stolen = AtomicU32::new(HeapId::NONE.raw());
        let joined = rt.run(|ctx| {
            let (joined, ()) = ctx.join(
                |_| wait_for_stolen_join(&rt, &stolen),
                |c| stolen_branch(c, &stolen),
            );
            joined
        });
        assert!(
            joined,
            "the stolen heap was still live while the forker waited"
        );
        let s = rt.stats();
        assert_eq!((s.heaps_created, s.heaps_elided), (2, 1));
        assert_store_drained(&rt);
    }

    #[test]
    fn child_heap_joins_when_its_stolen_branch_panics() {
        let rt = HhRuntime::with_workers(2);
        let stolen = AtomicU32::new(HeapId::NONE.raw());
        let joined = AtomicBool::new(false);
        let ctl = hh_api::RunCtl::new();
        let result = rt.try_run(&ctl, |ctx| {
            ctx.join(
                |_| joined.store(wait_for_stolen_join(&rt, &stolen), Ordering::Relaxed),
                |c| {
                    stolen_branch(c, &stolen);
                    panic!("deliberate panic in a stolen branch");
                },
            );
        });
        assert!(result.is_err(), "the branch's panic reaches the run");
        assert!(
            joined.load(Ordering::Relaxed),
            "the panicking branch's heap did not join while the forker waited"
        );
        assert_eq!(rt.stats().runs_aborted, 1);
        assert_store_drained(&rt);
    }

    #[test]
    fn run_returns_closure_result() {
        let rt = HhRuntime::with_workers(2);
        assert_eq!(rt.run(|_| 7), 7);
        assert_eq!(rt.name(), "parmem");
        assert_eq!(rt.n_workers(), 2);
    }

    #[test]
    fn doc_example_behaviour() {
        let rt = HhRuntime::new(HhConfig::with_workers(2));
        let sum = rt.run(|ctx| {
            let r = ctx.alloc_ref_data(1);
            let (a, b) = ctx.join(|c| c.read_mut(r, 0) + 1, |c| c.read_mut(r, 0) + 2);
            a + b
        });
        assert_eq!(sum, 5);
    }

    #[test]
    fn stats_track_allocation_and_heaps() {
        let rt = HhRuntime::with_workers(1);
        rt.run(|ctx| {
            let _a = ctx.alloc_data_array(100);
            let _ = ctx.join(|c| c.alloc_data_array(10), |c| c.alloc_data_array(10));
        });
        let s = rt.stats();
        assert!(s.allocated_words >= 120);
        // Lazy steal-time heaps on a single worker: nothing is ever stolen, so the
        // fork creates no heaps — both elisions are accounted instead.
        assert_eq!(s.heaps_created, 1, "only the root heap");
        assert_eq!(s.heaps_elided, 2, "one unstolen fork elides two heaps");
        assert!(s.peak_live_words > 0);
        rt.reset_stats();
        assert_eq!(rt.stats().allocated_words, 0);
    }

    #[test]
    fn eager_config_creates_two_heaps_per_fork() {
        let rt = HhRuntime::new(HhConfig::eager_heaps(1));
        rt.run(|ctx| {
            let _ = ctx.join(|c| c.alloc_data_array(10), |c| c.alloc_data_array(10));
        });
        let s = rt.stats();
        assert_eq!(s.heaps_created, 3, "root + two children");
        assert_eq!(s.heaps_elided, 0);
    }

    #[test]
    fn heap_accounting_is_conserved_across_policies() {
        // Per fork: created + elided == 2 in both modes, regardless of stealing.
        for workers in [1, 4] {
            let rt = HhRuntime::with_workers(workers);
            rt.run(|ctx| {
                fn tree<C: hh_api::ParCtx>(c: &C, depth: usize) {
                    if depth == 0 {
                        let _ = c.alloc_data_array(8);
                    } else {
                        c.join(|c| tree(c, depth - 1), |c| tree(c, depth - 1));
                    }
                }
                tree(ctx, 6);
            });
            let s = rt.stats();
            let forks = (1u64 << 6) - 1; // 63 join calls in a depth-6 full binary tree
            assert_eq!(
                (s.heaps_created - 1) + s.heaps_elided,
                2 * forks,
                "workers={workers}: non-root creations plus elisions must cover every fork"
            );
        }
    }
}
