//! Deterministic window-schedule reproducer for the epoch-inc × server-overlap
//! disentanglement race (DESIGN.md §11.5).
//!
//! The bug class: `finalize_claimed` used to uninstall the window *before*
//! merging the engine and adopting the survivors' to-space chunks into the zone
//! heaps. `end_run`'s forced finalize (`finalize_incremental_now`) waits only
//! for the uninstall, so the ending run could dispose its heap tree, end its
//! epoch, and advance the reclamation watermark while the finalizer was still
//! mid-adoption. The survivors were then adopted *after* disposal emptied the
//! heaps — escaping retirement forever — and their pointer fields referenced
//! post-flip chunks that the watermark had already recycled into a younger
//! tenant's heaps: mass disentanglement violations, visible once in ~15 release
//! serve runs and never under a debugger.
//!
//! This test pins that schedule with the GC schedule hooks (`hh_runtime::hooks`):
//! a gate stalls the finalizer at `FinalizePreMerge` (after the engine
//! handshake, before survivor adoption), the mutator run ends against the
//! stalled finalizer, and a second tenant run recycles the first run's chunks.
//! On the pre-fix ordering the race fires *every* time (the end_run thread sails
//! past the already-uninstalled window); post-fix, `end_run` blocks until the
//! finalizer fully completes (observed via `FinalizeWait`) and the report is
//! clean. The watcher below follows whichever of the two control flows the
//! runtime exhibits, so the single named test is the reproducer on pre-fix
//! builds and the regression test on fixed ones.

use hh_api::{ObjKind, ParCtx, Runtime};
use hh_runtime::hooks::{GcScheduleEvent, GcScheduleHooks};
use hh_runtime::{HhConfig, HhRuntime};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Chunk capacity: one (ref cell + padding array) pair per post-flip chunk.
const CHUNK_WORDS: usize = 256;
/// Post-flip objects written into the survivor (< GC_FINALIZE_STALENESS safe
/// points, so the mutator never claims the finalize itself).
const POST_FLIP: usize = 8;

#[derive(Default)]
struct Gate {
    /// Arms the one-shot pre-merge stall.
    armed: AtomicBool,
    /// Set when the finalizer reaches the gate.
    reached: AtomicBool,
    /// Opened by the test to let the finalizer proceed.
    release: AtomicBool,
    /// Set when a forced finalize observed the window still installed and
    /// started waiting for the claimer — the post-fix control flow.
    waiter_seen: AtomicBool,
    /// Set when finalization fully completed.
    finalize_done: AtomicBool,
    /// Set by the test to force a window open at the next safe point.
    force: AtomicBool,
}

impl GcScheduleHooks for Gate {
    fn on_event(&self, event: GcScheduleEvent) {
        match event {
            GcScheduleEvent::FinalizePreMerge { .. }
                if self.armed.swap(false, Ordering::AcqRel) =>
            {
                self.reached.store(true, Ordering::Release);
                while !self.release.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            }
            GcScheduleEvent::FinalizeWait { .. } => {
                self.waiter_seen.store(true, Ordering::Release);
            }
            GcScheduleEvent::FinalizeDone { .. } => {
                self.finalize_done.store(true, Ordering::Release);
            }
            _ => {}
        }
    }

    fn force_collect(&self) -> bool {
        self.force.load(Ordering::Acquire)
    }
}

fn spin_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::yield_now();
    }
}

#[test]
fn epoch_inc_finalize_vs_end_run_pinned_schedule() {
    let gate = Arc::new(Gate::default());
    gate.armed.store(true, Ordering::Release);
    let rt = HhRuntime::new(HhConfig {
        n_workers: 2,
        chunk_words: CHUNK_WORDS,
        // No spontaneous windows: the hook's force_collect opens exactly one.
        gc_threshold_words: usize::MAX / 2,
        check_invariants: true,
        incremental_gc: true,
        ..Default::default()
    });
    rt.install_gc_hooks(Arc::clone(&gate) as Arc<dyn GcScheduleHooks>);

    std::thread::scope(|scope| {
        // Tenant A: opens a window with a pinned survivor, then writes
        // post-flip pointers into the survivor's to-space copy mid-window.
        let a_done = Arc::new(AtomicBool::new(false));
        let a_handle = {
            let rt = &rt;
            let gate = Arc::clone(&gate);
            let a_done = Arc::clone(&a_done);
            scope.spawn(move || {
                rt.run(|ctx| {
                    let survivor = ctx.alloc(POST_FLIP, 0, ObjKind::Tuple);
                    ctx.pin(survivor);
                    // Open the window: the survivor is the root set, its copy is
                    // seeded into to-space, and the heap's chunk list is flipped
                    // out as from-space.
                    gate.force.store(true, Ordering::Release);
                    ctx.maybe_collect();
                    gate.force.store(false, Ordering::Release);
                    // Post-flip allocations land in fresh (zone-outside) chunks
                    // of this run's heap — one ref per chunk, padded so each
                    // pair fills its chunk. The writes resolve through the
                    // survivor's forwarding pointer onto the to-space copy.
                    for i in 0..POST_FLIP {
                        let post = ctx.alloc(0, 1, ObjKind::Ref);
                        ctx.write_nonptr(post, 0, i as u64);
                        let _pad = ctx.alloc_data_array(CHUNK_WORDS - 16);
                        ctx.write_ptr(survivor, i, post);
                    }
                    // Let the idle worker drain the wavefront, claim the
                    // finalize, and stall at the pre-merge gate before this run
                    // ends (an idle worker claims eagerly once the wavefront is
                    // empty; this thread takes no more safe points).
                    spin_until("finalizer to reach the pre-merge gate", || {
                        gate.reached.load(Ordering::Acquire)
                    });
                });
                a_done.store(true, Ordering::Release);
            })
        };

        spin_until("finalizer to reach the pre-merge gate", || {
            gate.reached.load(Ordering::Acquire)
        });
        // Two control flows from here:
        //   * pre-fix: the window was uninstalled before the gate, so tenant
        //     A's end_run sails through, disposes its tree and advances the
        //     watermark while the finalizer is still stalled → `a_done`.
        //   * post-fix: the window is uninstalled last, so A's end_run observes
        //     it installed and waits for the claimer → `waiter_seen`.
        spin_until("tenant A to finish or block in end_run", || {
            a_done.load(Ordering::Acquire) || gate.waiter_seen.load(Ordering::Acquire)
        });

        if a_done.load(Ordering::Acquire) {
            // Pre-fix flow: reproduce the violation deterministically. Tenant
            // A's chunks are already reclaimed; tenant B recycles them before
            // the stalled finalizer adopts A's survivors.
            a_handle.join().unwrap();
            run_tenant_b(&rt);
            gate.release.store(true, Ordering::Release);
            spin_until("stalled finalizer to complete", || {
                gate.finalize_done.load(Ordering::Acquire)
            });
            assert!(
                rt.store_stats().chunks_recycled > 0,
                "tenant B must recycle tenant A's chunks for the schedule to bite"
            );
        } else {
            // Post-fix flow: end_run is correctly blocked behind the
            // finalizer. Run tenant B concurrently (it cannot recycle A's
            // chunks — nothing of A's is reclaimed yet), then open the gate.
            run_tenant_b(&rt);
            gate.release.store(true, Ordering::Release);
            a_handle.join().unwrap();
            spin_until("stalled finalizer to complete", || {
                gate.finalize_done.load(Ordering::Acquire)
            });
        }

        let report = rt.check_disentangled_report();
        assert!(
            report.is_clean(),
            "epoch-inc finalize × end_run overlap left entanglement \
             (survivors adopted after run disposal; see DESIGN.md §11.5):\n{report}"
        );
    });
}

/// Tenant B: a second overlapping run that allocates enough
/// chunk-filling arrays to drain the store's free lists, so any chunk tenant A's
/// disposal reclaimed is recycled under a new owner.
fn run_tenant_b(rt: &HhRuntime) {
    rt.run(|ctx| {
        for i in 0..64 {
            let a = ctx.alloc_data_array(CHUNK_WORDS - 16);
            ctx.write_nonptr(a, 0, i as u64);
        }
    });
}
