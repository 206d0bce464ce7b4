//! Mutator-concurrent incremental zone collection (**GC v3**, DESIGN.md §11).
//!
//! A monolithic collection (`gc.rs`, the A6 ablation shape) pauses the triggering
//! mutator for the whole evacuation — the pause grows with the live set. The
//! incremental mode bounds the mutator pause by ~one scan block instead:
//!
//! 1. **Start (the measured pause)** — at a safe point, the zone heap's
//!    chunk list is *flipped out* (the mutator resumes allocating into fresh,
//!    untagged chunks), the old chunks are stamped from-space (plus the quarantine
//!    rescue walk), and only the domain frame's **pins** are evacuated, through
//!    [`hh_sched::EvacEngine::seed_roots`]. The engine is left installed in
//!    `ActiveGc` and the mutator resumes.
//! 2. **Increments** — the remaining wavefront drains in bounded slices at later
//!    safe points (`Inner::incremental_tick` from `maybe_collect`, one scan
//!    block: `GC_INCREMENT_WORDS`) and on idle scheduler workers (the pool's
//!    idle hook, `GC_IDLE_INCREMENT_WORDS`). Safe-point drains are mutator
//!    pauses and feed the pause recorder; idle-worker drains cost only
//!    otherwise-wasted cycles, record no pause sample, and carry most of the
//!    wavefront.
//! 3. **Write barrier** — while a window is open, every mutating entry point
//!    forwards a from-space operand *before* the write
//!    (`Inner::gc_barrier` / `Inner::gc_barrier_value` via
//!    [`hh_sched::EvacEngine::barrier_forward`]): the copy exists and the
//!    forwarding pointer is installed before the write resolves, so the existing
//!    write-then-recheck fast paths re-apply the write on the to-space master and
//!    no update is ever lost. Reads need no barrier: `read_imm` fields are
//!    immutable (any copy serves), and `read_mut` already rechecks the forwarding
//!    pointer — a from-space object is frozen the moment its forwarding pointer
//!    is installed, because every subsequent write barriers first.
//! 4. **Finalize** — when an increment reports the wavefront empty, one thread —
//!    preferably an idle worker, since the quiescence handshake is not bounded
//!    like a drain slice (safe points only claim it through the
//!    `GC_FINALIZE_STALENESS` valve, or when forced) —
//!    claims the collection (`ActiveGc::finalizing`), runs the engine's
//!    closed/retired handshake (residual barrier traffic is drained, late barrier
//!    calls bounce to ordinary forwarding resolution), adopts the to-space chunk
//!    list into the heap now holding the zone heap's objects *without* touching
//!    the mutator's current bump chunk ([`hh_heaps::HeapRegistry::adopt_collected`]:
//!    the zone heap may join its parent mid-window, and an adoption that races the
//!    join re-resolves), and retires the from-space.
//!
//! **Root-set completeness.** A window spans joins, so tasks forked *during* the
//! window may receive from-space pointers. Every pointer they store passes the
//! value barrier (`Inner::gc_barrier_value` in `write_ptr`), and every pin they
//! take is forwarded at `pin` time — so nothing reachable from a frame younger
//! than the window can keep a from-space address past retirement. Frames *older*
//! than the window cannot hold zone pointers: owner and borrower alike start only
//! under a momentary exclusive acquisition of the heap's steal gate (no stolen
//! child of the heap in flight, and every stolen child's heap already joined; an
//! owner, between its joins, always gets it), exactly the sync collector's
//! quiescence argument — but held only for the seed pause.
//! Unpinned Rust locals keep the established semantics: readable until the reuse
//! horizon, rescued by a later collection's quarantine walk if still reachable.

use crate::runtime::Inner;
use hh_heaps::HeapId;
use hh_objmodel::{ChunkGcState, ChunkId, ObjPtr};
use hh_sched::{EvacEngine, SCAN_BLOCK_WORDS};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Word budget of one *safe-point* drain slice (one scan block): the knob that
/// bounds a mutator pause independently of the live-set size. Kept at a single
/// block so a safe-point drain holds the engine as briefly as possible — on an
/// oversubscribed machine every extra microsecond of hold time is another
/// chance to absorb a scheduler preemption into a recorded pause.
pub(crate) const GC_INCREMENT_WORDS: usize = SCAN_BLOCK_WORDS as usize;

/// Word budget of one *idle-worker* drain slice. Idle workers burn free cycles
/// and record no pause sample, so they take bigger bites (and carry most of
/// the wavefront) while safe-point slices stay minimal.
pub(crate) const GC_IDLE_INCREMENT_WORDS: usize = 4 * SCAN_BLOCK_WORDS as usize;

/// After this many safe-point drains have observed the wavefront empty without
/// any idle worker claiming the finalize, the next safe-point drain claims it
/// itself. Finalize (quiescence handshake + merge + retirement) is preferably
/// idle-worker work — it is not bounded like a drain slice — but a saturated
/// pool must not leave the window open indefinitely: at most one window exists
/// per runtime, so a lingering one blocks all future collections.
///
/// A one-worker runtime has no idle worker, so there this valve is the only
/// way a window closes: after 64 empty safe-point drains, and no window opens
/// meanwhile. One-worker `frontier_bfs(8000)` at the `gc` benchmark's geometry
/// (1 Ki-word chunks, a 16 Ki-word threshold) therefore finalizes one window,
/// which copies about 1 k words of the 67 k it allocates.
const GC_FINALIZE_STALENESS: usize = 64;

/// One in-flight incremental collection. Installed in `Inner::active_gc` between
/// the roots-only start pause and the finalize; shared (via `Arc`) with every
/// thread that drains an increment or takes the write barrier's cold path.
pub(crate) struct ActiveGc {
    /// The evacuation engine, in mutator-concurrent mode (one member slot plus
    /// the hidden barrier slot).
    pub(crate) engine: EvacEngine,
    /// Safe-point drains that observed the wavefront empty while the window
    /// stayed unclaimed (see `GC_FINALIZE_STALENESS`).
    empty_safepoint_ticks: AtomicUsize,
    /// The zone heap (as resolved at the start; it may join its parent
    /// mid-window). Its run tag names the run the window belongs to: `end_run`
    /// force-finalizes a window whose run is ending, otherwise both semispaces
    /// would leak (neither is on a heap's chunk list during the window, so
    /// run-end disposal would miss them). A heap's tag is fixed at creation and
    /// shared by its whole tree, so the join does not change it.
    pub(crate) heap: HeapId,
    /// The flipped-out from-space chunk list — retired at finalize (the zone
    /// heap's own list was emptied at the flip).
    old_chunks: Vec<ChunkId>,
    /// Claim flag: exactly one thread runs the finalize handshake.
    finalizing: AtomicBool,
}

impl ActiveGc {
    /// True once a thread has claimed finalization of this window.
    pub(crate) fn is_finalizing(&self) -> bool {
        self.finalizing.load(Ordering::Acquire)
    }
}

impl Inner {
    /// Starts an incremental collection of the (resolved) heap `heap`, seeding
    /// `roots` (rewritten in place) as the complete current root set. Returns
    /// `false` — having collected nothing — when another window is already open
    /// (at most one per runtime; contending triggers keep draining the open one
    /// from their own safe points instead, which is what makes it finish).
    ///
    /// The caller must guarantee root-set completeness (see the module docs and
    /// `HhCtx::with_quiescent_heap`).
    pub(crate) fn start_incremental(&self, heap: HeapId, roots: &mut [ObjPtr]) -> bool {
        let Some(mut guard) = self.active_gc.try_lock() else {
            return false;
        };
        if guard.is_some() {
            return false;
        }
        let start = Instant::now();
        let store = Arc::clone(self.registry.store());
        let epoch = store.next_gc_epoch();
        // Flip: take the heap's chunks out. The mutator's next allocation opens a
        // fresh (untagged, hence zone-outside) chunk, so everything it allocates
        // from here on is correctly excluded from the collection.
        let old_chunks = self.registry.heap(heap).replace_chunks(Vec::new(), 0);
        self.stamp_chunks(heap, epoch, &old_chunks);
        let engine = EvacEngine::new(self.to_space_owner(heap), store, epoch, 1, true);
        // Evacuate the pins — the only part of the live set the mutator waits
        // for. Publication order: barriers must be fully armed (engine, then the
        // epoch, Release) before any *other* thread can reach a
        // from-space object; until this function returns none can (the caller
        // holds the heap's steal gate: no live descendant, no stolen child).
        engine.seed_roots(|fwd| {
            for r in roots.iter_mut() {
                *r = fwd(*r);
            }
        });
        *guard = Some(Arc::new(ActiveGc {
            engine,
            empty_safepoint_ticks: AtomicUsize::new(0),
            heap,
            old_chunks,
            finalizing: AtomicBool::new(false),
        }));
        self.active_gc_epoch.store(epoch, Ordering::Release);
        drop(guard);
        self.fire_hook(crate::hooks::GcScheduleEvent::WindowStart { epoch });
        let pause = start.elapsed();
        self.shard().add_gc_time(pause);
        self.counters.record_gc_pause(pause);
        true
    }

    /// Drains one bounded increment of the open window, if any. Returns `true`
    /// when a window was open (work was done, or its finalize was observed /
    /// completed). `record_pause` distinguishes mutator safe-point drains (a
    /// real pause, sampled) from idle-worker drains (free cycles, GC time only).
    ///
    /// Safe-point drains take one scan block and — crucially — do **not** claim
    /// the finalize when they observe the wavefront empty: the finalize's
    /// quiescence handshake waits on other threads and is not bounded like a
    /// drain slice, so it belongs on an idle worker, where it pauses no
    /// mutator. A staleness valve (`GC_FINALIZE_STALENESS`) keeps a saturated
    /// pool from leaving the window open indefinitely.
    pub(crate) fn incremental_tick(&self, record_pause: bool) -> bool {
        let gc = {
            match &*self.active_gc.lock() {
                Some(g) => Arc::clone(g),
                None => return false,
            }
        };
        let start = Instant::now();
        let budget = if record_pause {
            GC_INCREMENT_WORDS
        } else {
            GC_IDLE_INCREMENT_WORDS
        };
        let wavefront_empty = gc.engine.drain_increment(budget);
        self.shard().gc_increments.fetch_add(1, Ordering::Relaxed);
        let may_finalize = wavefront_empty
            && (!record_pause
                || gc.empty_safepoint_ticks.fetch_add(1, Ordering::Relaxed)
                    >= GC_FINALIZE_STALENESS);
        if may_finalize && !gc.finalizing.swap(true, Ordering::AcqRel) {
            self.finalize_claimed(&gc, start, record_pause);
            return true;
        }
        let pause = start.elapsed();
        self.shard().add_gc_time(pause);
        if record_pause {
            self.counters.record_gc_pause(pause);
        }
        true
    }

    /// Force-finalizes the open window if `filter` accepts it, blocking until the
    /// window is closed. Used by the monolithic collector's prologue (any window:
    /// `collect_zone` requires a quiescent zone) and by `end_run` (the ending
    /// run's window: its semispaces are on no heap's chunk list and would leak).
    pub(crate) fn finalize_incremental_now(&self, filter: impl Fn(&ActiveGc) -> bool) {
        if !self.config.incremental_gc {
            return;
        }
        loop {
            let gc = {
                match &*self.active_gc.lock() {
                    Some(g) if filter(g) => Arc::clone(g),
                    _ => return,
                }
            };
            if gc.finalizing.swap(true, Ordering::AcqRel) {
                // Another thread claimed it; wait for the uninstall — the
                // *last* step of finalization, so the claimer's survivor
                // adoption and from-space retirement are complete before this
                // returns — then re-check (a different window may have opened
                // since). Waiting only for the claim flag, or for any earlier
                // finalize step, would let `end_run` dispose a tree the
                // claimer is still adopting survivors into (DESIGN.md §11.5).
                let mut waited = false;
                while {
                    let slot = self.active_gc.lock();
                    slot.as_ref().is_some_and(|g| Arc::ptr_eq(g, &gc))
                } {
                    if !waited {
                        waited = true;
                        self.fire_hook(crate::hooks::GcScheduleEvent::FinalizeWait {
                            epoch: gc.engine.epoch(),
                        });
                    }
                    std::thread::yield_now();
                }
                continue;
            }
            self.finalize_claimed(&gc, Instant::now(), true);
            return;
        }
    }

    /// Completes a claimed window: engine handshake, uninstall, to-space
    /// adoption, from-space retirement, statistics. `started` marks where this
    /// thread's pause began (its final drain, for `incremental_tick`).
    ///
    /// **Panic safety.** The schedule hooks fired here may panic (the
    /// fault-injection layer models crashes exactly that way). This thread
    /// owns the `finalizing` claim, and nothing ever clears that flag:
    /// unwinding without completing would leave the window installed forever,
    /// spinning every `finalize_incremental_now` waiter (`end_run`, monolithic
    /// collects) and pinning the run epoch — the epoch leak of ISSUE 10. So
    /// the hook calls run under an unwind guard that completes the remaining
    /// finalize steps *hook-free* before letting the panic continue. The
    /// hook-free tail itself (`finalize_merge_and_uninstall`) consults no
    /// hooks and must not panic.
    fn finalize_claimed(&self, gc: &Arc<ActiveGc>, started: Instant, record_pause: bool) {
        struct FinalizeGuard<'a> {
            inner: &'a Inner,
            gc: &'a Arc<ActiveGc>,
            engine_finalized: bool,
            completed: bool,
        }
        impl Drop for FinalizeGuard<'_> {
            fn drop(&mut self) {
                if self.completed {
                    return;
                }
                if !self.engine_finalized {
                    self.gc.engine.finalize();
                }
                self.inner.finalize_merge_and_uninstall(self.gc);
                self.inner
                    .shard()
                    .gc_finalize_rescues
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        let mut guard = FinalizeGuard {
            inner: self,
            gc,
            engine_finalized: false,
            completed: false,
        };
        let epoch = gc.engine.epoch();
        self.fire_hook(crate::hooks::GcScheduleEvent::FinalizeClaimed { epoch });
        // Residual drain + barrier quiescence. Barriers must stay answerable
        // until `retired` flips inside, so the window epoch is cleared only after.
        gc.engine.finalize();
        guard.engine_finalized = true;
        self.fire_hook(crate::hooks::GcScheduleEvent::FinalizePreMerge { epoch });
        self.finalize_merge_and_uninstall(gc);
        guard.completed = true;
        let pause = started.elapsed();
        self.shard().add_gc_time(pause);
        if record_pause {
            self.counters.record_gc_pause(pause);
        }
        // Fired after the guard is disarmed: the window is fully closed, so a
        // panic here (the `finalize-done` fault site) is pure propagation.
        self.fire_hook(crate::hooks::GcScheduleEvent::FinalizeDone { epoch });
    }

    /// Hook-free tail of a claimed finalize: survivor adoption, from-space
    /// retirement, window uninstall (LAST), collection counters. Shared by the
    /// normal `finalize_claimed` path and its unwind guard, which replays the
    /// tail after a hook panic without re-firing hooks (re-firing could inject
    /// a second fault and turn recovery into an abort loop).
    fn finalize_merge_and_uninstall(&self, gc: &Arc<ActiveGc>) {
        let outcome = gc.engine.merge();
        if !outcome.chunks.is_empty() {
            self.registry
                .adopt_collected(gc.heap, outcome.chunks, outcome.occupied_words);
        }
        // From-space chunks carry the run's own tag, so under overlapping runs
        // they quarantine behind this run's epoch, not a conservative
        // latest-issued stamp.
        gc.engine.retire_from_space(&gc.old_chunks);
        // Uninstall LAST — after survivor adoption and from-space retirement.
        // `finalize_incremental_now`'s waiter (the `end_run` path) unblocks on
        // this uninstall; doing it any earlier let an ending run dispose its
        // heap tree and advance the epoch-reclamation watermark while this
        // thread was still adopting its survivors, recycling the chunks those
        // survivors point into under a younger run (DESIGN.md §11.5). Barriers
        // taken between `engine.finalize()` and here get `None` from the
        // retired engine and fall back to the forwarding chain, so keeping the
        // window installed through the adopt/retire phase is benign.
        {
            let mut slot = self.active_gc.lock();
            debug_assert!(
                slot.as_ref().is_some_and(|g| Arc::ptr_eq(g, gc)),
                "finalizing a window that is not installed"
            );
            *slot = None;
            self.active_gc_epoch.store(0, Ordering::Release);
        }
        self.counters.record_collection(
            self.shard(),
            hh_api::Collected::Incremental,
            outcome.copied_words,
            outcome.steal_blocks,
        );
        // The debug invariant walk (`verify_heaps`) is deliberately skipped here:
        // it requires a quiescent zone, and at an incremental finalize the zone's
        // mutator is running on another frame (or another thread, for idle-worker
        // finalizes). The stress lane covers the same ground with the end-of-run
        // `check_disentangled` walk instead.
    }

    /// The write barrier's object hook: before a mutating operation touches
    /// `obj`, forward it out of the from-space so the operation's own
    /// write-then-recheck path lands on the to-space master. Two-level fast
    /// path: a plain config test (compiled shape, free when the feature is off),
    /// then one load of the window epoch per operation while it is on.
    #[inline]
    pub(crate) fn gc_barrier(&self, obj: ObjPtr) {
        if !self.config.incremental_gc || obj.is_null() {
            return;
        }
        let epoch = self.active_gc_epoch.load(Ordering::Acquire);
        if epoch != 0 {
            self.gc_barrier_slow(obj, epoch);
        }
    }

    /// The write barrier's value hook: as `Inner::gc_barrier`, but returns the
    /// forwarded pointer so the caller *stores* a retained (to-space) address —
    /// used where a pointer is published into a place the collector will not
    /// revisit (`write_ptr`'s value operand, `pin` slots of mid-window frames).
    #[inline]
    pub(crate) fn gc_barrier_value(&self, p: ObjPtr) -> ObjPtr {
        if !self.config.incremental_gc || p.is_null() {
            return p;
        }
        let epoch = self.active_gc_epoch.load(Ordering::Acquire);
        if epoch == 0 {
            return p;
        }
        self.gc_barrier_value_slow(p, epoch)
    }

    #[cold]
    fn gc_barrier_slow(&self, obj: ObjPtr, epoch: u64) {
        let _ = self.gc_barrier_value_slow(obj, epoch);
    }

    /// Cold path: only reached while window `epoch` is (or just was) open. One
    /// chunk-tag load filters out everything outside the zone before any lock
    /// is touched.
    #[cold]
    fn gc_barrier_value_slow(&self, p: ObjPtr, epoch: u64) -> ObjPtr {
        let store = self.registry.store();
        let chunk = store.chunk(p.chunk());
        // A stale epoch (a window that closed after the epoch load) decodes as
        // `Outside`: the closed window needed no barrier, and a chunk stamped by
        // a *newer* window reads that window's epoch or `Outside` conservatively
        // — the re-check under the engine's own epoch below settles it.
        if chunk.gc_state(epoch) != ChunkGcState::FromSpace {
            return p;
        }
        let gc = {
            match &*self.active_gc.lock() {
                Some(g) => Arc::clone(g),
                None => return store.resolve_fwd(p),
            }
        };
        if gc.engine.epoch() != epoch
            && chunk.gc_state(gc.engine.epoch()) != ChunkGcState::FromSpace
        {
            return store.resolve_fwd(p);
        }
        match gc.engine.barrier_forward(p) {
            Some(fwd) => fwd,
            // Retired between the epoch load and the call: the evacuation is
            // complete, so ordinary forwarding resolution takes over.
            None => store.resolve_fwd(p),
        }
    }
}
