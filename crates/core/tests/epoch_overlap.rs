//! Epoch-based quiescence-free reclamation (DESIGN.md §5) and the debug-build
//! cross-run pointer check.
//!
//! The deterministic overlap test pins the exact property the watermark buys over
//! the retired global horizon (A5, DESIGN.md §7): a run that *began first*
//! (smallest epoch) gets its chunks reclaimed the moment it ends — while younger
//! runs are still mid-flight — because the min-active-epoch watermark has moved
//! past its epoch. Under the global horizon nothing was reclaimed until every run
//! ended.

use hh_api::{ObjKind, ParCtx, Runtime};
use hh_runtime::{HhConfig, HhRuntime};
use std::sync::{Barrier, Condvar, Mutex};

/// A reusable open/wait gate (std condvar; the vendored parking_lot is not a dev
/// dependency of this crate).
struct Gate {
    open: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    fn new() -> Gate {
        Gate {
            open: Mutex::new(false),
            cv: Condvar::new(),
        }
    }

    fn wait(&self) {
        let mut g = self.open.lock().unwrap();
        while !*g {
            g = self.cv.wait(g).unwrap();
        }
    }

    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.cv.notify_all();
    }
}

/// Run A (epoch 1) allocates and ends while runs B and C (epochs 2, 3) are still
/// mid-flight: A's retired chunks must leave the quarantine immediately — epoch 1
/// is below the new watermark (min active epoch = 2) — with no global quiescence
/// anywhere in sight.
#[test]
fn first_run_reclaims_while_later_runs_still_flying() {
    let rt = HhRuntime::new(HhConfig::with_workers(4));
    let a_started = Barrier::new(2);
    let bc_started = Barrier::new(3);
    let a_finish = Gate::new();
    let bc_finish = Gate::new();

    std::thread::scope(|scope| {
        // Run A: allocate a few chunks' worth, then hold until told to finish.
        let a = scope.spawn(|| {
            rt.run(|ctx| {
                let mut sum = 0u64;
                for i in 0..4u64 {
                    let arr = ctx.alloc_data_array(3000);
                    ctx.write_nonptr(arr, 0, i);
                    sum += ctx.read_mut(arr, 0);
                }
                a_started.wait();
                a_finish.wait();
                sum
            })
        });
        a_started.wait(); // A is in flight and holds epoch 1.

        // Runs B and C: allocate, then hold — they stay active past A's end.
        let b = scope.spawn(|| {
            rt.run(|ctx| {
                let arr = ctx.alloc_data_array(500);
                ctx.write_nonptr(arr, 0, 7);
                bc_started.wait();
                bc_finish.wait();
                ctx.read_mut(arr, 0)
            })
        });
        let c = scope.spawn(|| {
            rt.run(|ctx| {
                let arr = ctx.alloc_data_array(500);
                ctx.write_nonptr(arr, 0, 8);
                bc_started.wait();
                bc_finish.wait();
                ctx.read_mut(arr, 0)
            })
        });
        bc_started.wait(); // B and C are in flight (epochs 2 and 3).

        assert_eq!(rt.stats().epoch_reclaims, 0, "no run has ended yet");

        // A ends while B and C are still mid-flight.
        a_finish.open();
        assert_eq!(a.join().unwrap(), 6);

        // The watermark (min active epoch = 2) passed A's epoch 1: A's chunks left
        // the quarantine at A's own end_run — no quiescence was needed.
        let stats = rt.stats();
        let store = rt.store_stats();
        assert_eq!(store.active_runs, 2, "B and C must still be registered");
        assert!(
            stats.epoch_reclaims > 0,
            "A's retirement must reclaim via the watermark: {stats:?}"
        );
        assert_eq!(
            store.chunks_quarantined, 0,
            "nothing older than the watermark may linger in quarantine"
        );
        assert_eq!(stats.active_runs_peak, 3, "A, B and C overlapped");

        bc_finish.open();
        assert_eq!(b.join().unwrap(), 7);
        assert_eq!(c.join().unwrap(), 8);
    });

    // Quiescent now: the lifecycle must conserve and everything must have been
    // disposed per run (the quarantine drains as the last epochs retire).
    let s = rt.store_stats();
    assert_eq!(
        s.chunks_created,
        s.chunks_active + s.chunks_quarantined + s.chunks_free,
        "chunk conservation: {s:?}"
    );
    assert_eq!(s.active_runs, 0);
    assert_eq!(s.chunks_quarantined, 0, "final watermark drains everything");
}

/// Debug builds: carrying an `ObjPtr` from one run into a later one
/// trips the chunk-tag assertion on its first access instead of silently reading
/// recycled memory.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "cross-run ObjPtr")]
fn stale_cross_run_pointer_is_caught_in_server_mode() {
    let rt = HhRuntime::new(HhConfig::with_workers(1));
    let stale = rt.run(|ctx| {
        let p = ctx.alloc_ref_data(42);
        assert_eq!(ctx.read_mut(p, 0), 42);
        p
    });
    // New run, new epoch; `stale`'s chunk is still tagged with the dead run's
    // epoch (quarantined or already on a free list).
    rt.run(|ctx| ctx.read_mut(stale, 0));
}

/// The cross-run check must not reject legitimate same-run accesses, across
/// forks and promotions included.
#[test]
fn server_mode_accepts_same_run_pointers() {
    let rt = HhRuntime::new(HhConfig::with_workers(2));
    for _ in 0..3 {
        let v = rt.run(|ctx| {
            // One pointer field (0) and one data field (1).
            let shared = ctx.alloc(1, 1, ObjKind::Ref);
            ctx.write_nonptr(shared, 1, 5);
            let (a, b) = ctx.join(
                |c| c.read_mut(shared, 1) + 1,
                |c| {
                    let local = c.alloc_ref_data(10);
                    // Publishing write: promotes `local` up; later accesses resolve
                    // through forwarding and must still pass the run-tag check.
                    c.write_ptr(shared, 0, local);
                    c.read_mut(local, 0)
                },
            );
            let promoted = ctx.read_mut_ptr(shared, 0);
            a + b + ctx.read_mut(promoted, 0)
        });
        assert_eq!(v, 6 + 10 + 10);
    }
}
