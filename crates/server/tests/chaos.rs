//! Chaos lanes: seeded fault-injection sweeps plus deterministic overlap-abort
//! scenarios on the shared multi-tenant runtime.
//!
//! The sweep lane drives 64 chaos seeds (each a full serve experiment under an
//! armed [`FaultPlan`]) and asserts every seed ends with at least one genuinely
//! aborted attempt, quiescent invariants, zero leaked run epochs, and
//! checksum-correct survivors. Replay protocol (parity with the stress lanes):
//! `HH_CHAOS_SEED=<i>` reruns just sweep index `i`; `HH_CHAOS_SEEDS=<n>` widens
//! or narrows the sweep (default 64); `HH_WORKERS` sizes the pools (the CI
//! chaos job runs the sweep at 1 and 8). A dirty seed appends one JSON
//! forensics line (sweep index, seed, rate, abort counts, and the violation's
//! `Display`) to `$HH_VIOLATION_JSON` when set, before the assertion fails.
//!
//! The two overlap-abort tests are the deterministic core of the failure model:
//! three overlapping server runs, one killed mid-promotion (between two
//! publishing writes inside a fork) or mid-incremental-window (a certain fault
//! at the window-start hook), after which the store must conserve, the
//! reclamation watermark must advance past the dead run's epoch, and the two
//! survivors must produce exactly the results a fault-free runtime produces.

use hh_api::{silence_expected_aborts, InjectedFault, ParCtx, RunCtl, RunError, Runtime};
use hh_runtime::{FaultPlan, FaultSite, GcScheduleHooks, HhConfig, HhCtx, HhRuntime};
use hh_server::{append_violation_json, chaos_one, verify_quiescent, ChaosConfig};
use std::sync::{Arc, Barrier};

/// Sweep indices: `HH_CHAOS_SEED` pins one for replay, otherwise
/// `HH_CHAOS_SEEDS` (default 64) sequential indices.
fn sweep_indices() -> Vec<u64> {
    if let Ok(s) = std::env::var("HH_CHAOS_SEED") {
        return vec![s.parse().expect("HH_CHAOS_SEED must be a sweep index")];
    }
    let n: u64 = std::env::var("HH_CHAOS_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(64);
    (0..n).collect()
}

#[test]
fn chaos_sweep_every_seed_aborts_and_holds_invariants() {
    let cfg = ChaosConfig::default();
    for i in sweep_indices() {
        let seed = cfg.base_seed + i;
        let out = chaos_one(&cfg, seed);
        if !out.clean() {
            append_violation_json(&out.violation_json(i));
        }
        // `chaos_one` escalates the fault rate until the seed aborts, so this
        // is an assertion about the lane's own honesty: a sweep where nothing
        // ever died would vacuously "pass" every invariant below.
        assert!(
            out.report.aborted >= 1,
            "seed {seed:#x} never aborted a run"
        );
        assert!(
            out.injected >= 1,
            "seed {seed:#x} aborted without injecting"
        );
        assert!(
            out.clean(),
            "HH_CHAOS_SEED={i} replays this failure: {}",
            out.violation_json(i),
        );
    }
}

/// Fixed survivor workload: its result is a pure function of nothing but the
/// ops below, so a fault-free runtime recomputes the expected value exactly.
fn survivor_work(ctx: &HhCtx) -> u64 {
    let mut objs = Vec::new();
    for i in 0..200u64 {
        objs.push(ctx.alloc_ref_data(i * 3 + 1));
    }
    let mut sum = 0u64;
    for o in &objs {
        sum = sum.wrapping_add(ctx.read_mut(*o, 0));
    }
    sum
}

/// Runs the victim closure and two survivors as three overlapping runs (a
/// barrier inside the run bodies guarantees all three are simultaneously
/// active), then asserts the post-abort invariants: the victim died of its
/// injected fault, both survivors are checksum-correct, the teardown guard ran
/// (`runs_aborted`), no run epoch leaked, the reclamation watermark advanced
/// past the dead run's epoch, and the store conserves.
fn overlap_abort_case<V>(rt: &HhRuntime, victim: V, expected_site: &'static str)
where
    V: FnOnce(&HhCtx, &Barrier) -> u64 + Send,
{
    let watermark_before = rt.min_active_epoch();
    let start = Barrier::new(3);
    let (victim_res, s1, s2) = std::thread::scope(|scope| {
        let start = &start;
        let v = scope.spawn(move || {
            let ctl = RunCtl::new();
            rt.try_run(&ctl, |ctx| victim(ctx, start))
        });
        let mut survivors = Vec::new();
        for _ in 0..2 {
            survivors.push(scope.spawn(move || {
                let ctl = RunCtl::new();
                rt.try_run(&ctl, |ctx| {
                    start.wait();
                    survivor_work(ctx)
                })
            }));
        }
        let s2 = survivors.pop().unwrap().join().unwrap();
        let s1 = survivors.pop().unwrap().join().unwrap();
        (v.join().unwrap(), s1, s2)
    });
    assert_eq!(victim_res, Err(RunError::InjectedFault(expected_site)));
    let expected = HhRuntime::new(HhConfig::with_workers(2)).run(survivor_work);
    assert_eq!(s1, Ok(expected), "survivor 1 corrupted by the abort");
    assert_eq!(s2, Ok(expected), "survivor 2 corrupted by the abort");
    assert!(rt.stats().runs_aborted >= 1, "teardown guard never ran");
    assert_eq!(rt.active_runs(), 0, "the aborted run leaked its epoch");
    assert!(
        rt.min_active_epoch() > watermark_before,
        "the aborted run pinned the reclamation watermark"
    );
    verify_quiescent(rt).unwrap();
}

#[test]
fn abort_mid_promotion_amid_three_overlapping_runs() {
    silence_expected_aborts();
    let mut cfg = HhConfig::with_workers(hh_api::env_workers(4).max(3));
    // Eager child heaps: every fork allocates in its own heap, so publishing a
    // child object into the parent's array is guaranteed to promote.
    cfg.lazy_child_heaps = false;
    let rt = HhRuntime::new(cfg);
    overlap_abort_case(
        &rt,
        |ctx, start| {
            let cell = ctx.alloc_ptr_array(8);
            start.wait();
            let ((), ()) = ctx.join(
                |c| {
                    for _ in 0..64 {
                        std::hint::black_box(c.alloc_ref_data(1));
                    }
                },
                |c| {
                    // Publish child allocations into the parent's array — each
                    // write promotes the child object upward — then die between
                    // two promoting writes: the abort unwinds across the fork
                    // with promotion state in flight.
                    for i in 0..4usize {
                        let x = c.alloc_ref_data(i as u64);
                        c.write_ptr(cell, i, x);
                    }
                    std::panic::panic_any(InjectedFault { site: "alloc" });
                },
            );
            0
        },
        "alloc",
    );
}

#[test]
fn abort_mid_incremental_window_amid_three_overlapping_runs() {
    silence_expected_aborts();
    let mut cfg = HhConfig::incremental(hh_api::env_workers(4).max(3));
    // Low threshold so the victim's allocations actually open a window.
    cfg.gc_threshold_words = 20_000;
    let rt = HhRuntime::new(cfg);
    // Certain fault at window-start only: the victim dies the moment it opens
    // its incremental window, leaving the window for the abort teardown's
    // forced finalize. The survivors never call `maybe_collect`, so they can
    // not trip the site themselves.
    let plan = Arc::new(FaultPlan::uniform(0xB00, 0).with_rate(FaultSite::WindowStart, 1_000_000));
    rt.install_gc_hooks(Arc::clone(&plan) as Arc<dyn GcScheduleHooks>);
    overlap_abort_case(
        &rt,
        |ctx, start| {
            start.wait();
            for _ in 0..200 {
                std::hint::black_box(ctx.alloc_data_array(256));
                ctx.maybe_collect();
            }
            0
        },
        "window-start",
    );
    assert!(
        plan.injected_at(FaultSite::WindowStart) >= 1,
        "the window-start fault never fired"
    );
}
