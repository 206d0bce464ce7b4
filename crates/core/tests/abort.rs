//! Run-boundary failure model: cooperative cancellation, deadlines, injected
//! faults, and the abort-teardown guarantees (DESIGN.md §13).
//!
//! The centerpiece is the deterministic, hook-gated reproducer of the pre-fix
//! epoch leak: a run killed by a panic *inside the incremental finalize* (a
//! schedule hook throwing between the claim and the merge) used to leave the
//! window installed with its `finalizing` claim set forever. `end_run`'s forced
//! finalize waits for exactly that window to uninstall, so the dying run's
//! teardown could never complete — its run epoch stayed registered, pinned
//! `min_active_epoch`, and every younger tenant's retired chunks quarantined
//! forever (unbounded growth under perpetual overlap). The fix is the finalize
//! unwind guard: an unwinding finalizer completes the merge/adopt/uninstall
//! tail hook-free, counted in `gc_finalize_rescues`. The test pins the schedule
//! with a certain fault at the `finalize-claimed` hook site on one worker, then
//! proves the epoch was released by running a younger tenant and watching its
//! chunks actually recycle.

use hh_api::{silence_expected_aborts, ParCtx, RunCtl, RunError, Runtime};
use hh_runtime::{FaultPlan, FaultSite, GcScheduleHooks, HhConfig, HhCtx, HhRuntime};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Allocation churn with a safe point per iteration (the poll cadence
/// cancellation, deadlines, and incremental windows all key off).
fn churn(ctx: &HhCtx, iters: usize) -> u64 {
    let mut sum = 0u64;
    for i in 0..iters {
        let o = ctx.alloc_ref_data(i as u64);
        sum = sum.wrapping_add(ctx.read_mut(o, 0));
        ctx.maybe_collect();
    }
    sum
}

/// Chunk-lifecycle conservation at quiescence (the store side of "an aborted
/// run leaves the store exactly as conserved as a completed one").
fn assert_conserved(rt: &HhRuntime) {
    let s = rt.store_stats();
    assert_eq!(
        s.chunks_created,
        s.chunks_active + s.chunks_quarantined + s.chunks_free,
        "chunk conservation violated after abort"
    );
    assert_eq!(rt.active_runs(), 0, "run epoch leaked");
}

#[test]
fn try_run_passes_results_and_checks_ctl_upfront() {
    let rt = HhRuntime::new(HhConfig::with_workers(1));
    let ctl = RunCtl::new();
    assert_eq!(
        rt.try_run(&ctl, |ctx| churn(ctx, 10)),
        Ok(churn_expected(10))
    );
    // A pre-fired token short-circuits: the closure must never start.
    let cancelled = RunCtl::new();
    cancelled.cancel();
    let ran = AtomicBool::new(false);
    let r = rt.try_run(&cancelled, |_| ran.store(true, Ordering::Relaxed));
    assert_eq!(r, Err(RunError::Cancelled));
    assert!(!ran.load(Ordering::Relaxed));
    assert_conserved(&rt);
}

/// `churn`'s pure expected value (alloc init values summed).
fn churn_expected(iters: usize) -> u64 {
    (0..iters as u64).sum()
}

#[test]
fn cancellation_aborts_a_running_task_tree() {
    silence_expected_aborts();
    let rt = HhRuntime::new(HhConfig::with_workers(hh_api::env_workers(2)));
    let ctl = RunCtl::new();
    let r = std::thread::scope(|scope| {
        let canceller = {
            let ctl = Arc::clone(&ctl);
            scope.spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                ctl.cancel();
            })
        };
        // Churn far longer than the cancel delay; the run must be cut short at
        // a safe point (bounded, so a broken abort path fails instead of
        // hanging: the closure eventually returns Ok and the assert fires).
        let r = rt.try_run(&ctl, |ctx| {
            let deadline = Instant::now() + Duration::from_secs(30);
            while Instant::now() < deadline {
                std::hint::black_box(churn(ctx, 64));
            }
            0
        });
        canceller.join().unwrap();
        r
    });
    assert_eq!(r, Err(RunError::Cancelled));
    assert_eq!(
        rt.stats().runs_aborted,
        1,
        "teardown guard must count the abort"
    );
    assert_conserved(&rt);
}

#[test]
fn deadline_expiry_aborts_the_run() {
    silence_expected_aborts();
    let rt = HhRuntime::new(HhConfig::with_workers(1));
    let ctl = RunCtl::with_deadline(Duration::from_millis(10));
    let r = rt.try_run(&ctl, |ctx| {
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            std::hint::black_box(churn(ctx, 64));
        }
        0
    });
    assert_eq!(r, Err(RunError::DeadlineExceeded));
    assert_conserved(&rt);
}

#[test]
fn certain_alloc_fault_kills_the_run_and_conserves() {
    silence_expected_aborts();
    let rt = HhRuntime::new(HhConfig::with_workers(1));
    let plan = Arc::new(FaultPlan::uniform(0xFA11, 0).with_rate(FaultSite::Alloc, 1_000_000));
    rt.install_gc_hooks(Arc::clone(&plan) as Arc<dyn GcScheduleHooks>);
    let ctl = RunCtl::new();
    let r = rt.try_run(&ctl, |ctx| churn(ctx, 100));
    assert_eq!(r, Err(RunError::InjectedFault("alloc")));
    assert!(plan.injected_at(FaultSite::Alloc) >= 1);
    assert_eq!(rt.stats().runs_aborted, 1);
    assert_conserved(&rt);
    // Disarmed, the same runtime serves the next tenant untouched.
    plan.set_armed(false);
    let ctl = RunCtl::new();
    assert_eq!(
        rt.try_run(&ctl, |ctx| churn(ctx, 50)),
        Ok(churn_expected(50))
    );
    assert_conserved(&rt);
}

/// The epoch-leak reproducer (module docs): one worker, incremental GC,
/// low threshold so the churn opens a real window, and
/// a certain fault at the `finalize-claimed` hook. Pre-fix, the panic escaped
/// with the window still installed and `finalizing` set — the teardown's
/// forced finalize then waited forever on a claim nobody would release, the
/// run epoch never ended, and the watermark stayed pinned. Post-fix the
/// finalize unwind guard completes the window hook-free (`gc_finalize_rescues`),
/// teardown ends the epoch, and a younger tenant's chunks recycle.
#[test]
fn finalize_fault_does_not_leak_the_run_epoch() {
    silence_expected_aborts();
    let mut cfg = HhConfig::incremental(1);
    cfg.gc_threshold_words = 4_096;
    cfg.chunk_words = 256;
    let rt = HhRuntime::new(cfg);
    let plan =
        Arc::new(FaultPlan::uniform(0x1EAC, 0).with_rate(FaultSite::FinalizeClaimed, 1_000_000));
    rt.install_gc_hooks(Arc::clone(&plan) as Arc<dyn GcScheduleHooks>);

    let watermark_before = rt.min_active_epoch();
    let ctl = RunCtl::new();
    let r = rt.try_run(&ctl, |ctx| churn(ctx, 20_000));
    assert_eq!(r, Err(RunError::InjectedFault("finalize-claimed")));
    assert!(
        rt.stats().gc_finalize_rescues >= 1,
        "the unwinding finalizer must complete its window (rescue), not abandon it"
    );
    assert_eq!(rt.active_runs(), 0, "the dead run's epoch leaked");
    assert!(
        rt.min_active_epoch() > watermark_before,
        "the dead run pinned the reclamation watermark"
    );
    assert_conserved(&rt);

    // The younger tenant: with the watermark unpinned, its retired chunks must
    // actually recycle instead of growing the quarantine forever.
    plan.set_armed(false);
    let ctl = RunCtl::new();
    assert_eq!(
        rt.try_run(&ctl, |ctx| churn(ctx, 20_000)),
        Ok(churn_expected(20_000))
    );
    let stats = rt.stats();
    assert!(
        stats.chunks_recycled > 0,
        "younger tenant's handouts never recycled: watermark still pinned? \
         (created {}, recycled {})",
        stats.chunks_created,
        stats.chunks_recycled
    );
    assert_conserved(&rt);
}

/// A panic thrown by the `EndRunPreDispose` hook (teardown prefix) on a run
/// that *returned normally*: the teardown tail — subtree disposal, epoch end,
/// watermark advance — must still run before the panic re-raises, so the next
/// tenant sees a clean runtime.
#[test]
fn teardown_prefix_hook_panic_still_ends_the_epoch() {
    silence_expected_aborts();
    struct DisposeBomb {
        armed: AtomicBool,
    }
    impl GcScheduleHooks for DisposeBomb {
        fn on_event(&self, event: hh_runtime::hooks::GcScheduleEvent) {
            if let hh_runtime::hooks::GcScheduleEvent::EndRunPreDispose { .. } = event {
                if self.armed.swap(false, Ordering::AcqRel) {
                    panic!("teardown-prefix bomb");
                }
            }
        }
    }
    let rt = HhRuntime::new(HhConfig::with_workers(1));
    rt.install_gc_hooks(Arc::new(DisposeBomb {
        armed: AtomicBool::new(true),
    }));
    let ctl = RunCtl::new();
    let r = rt.try_run(&ctl, |ctx| churn(ctx, 10));
    assert_eq!(r, Err(RunError::Panic("teardown-prefix bomb".to_string())));
    assert_conserved(&rt);
    // Disarmed bomb: the runtime serves on.
    let ctl = RunCtl::new();
    assert_eq!(
        rt.try_run(&ctl, |ctx| churn(ctx, 10)),
        Ok(churn_expected(10))
    );
    assert_conserved(&rt);
}
