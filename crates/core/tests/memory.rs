//! Memory-lifecycle integration tests for the hierarchical-heap runtime: chunk
//! recycling across runs, bounded steady-state footprint, one-heap collection zones,
//! and lifecycle conservation.

use hh_api::{ParCtx, Runtime};
use hh_objmodel::ObjPtr;
use hh_runtime::{HhConfig, HhRuntime};
use std::sync::atomic::{AtomicBool, Ordering};

fn churn_runtime(workers: usize) -> HhRuntime {
    HhRuntime::new(HhConfig {
        n_workers: workers,
        chunk_words: 256,
        gc_threshold_words: 8 * 1024,
        ..Default::default()
    })
}

/// One run's worth of allocation churn: builds and drops arrays, keeps one pinned
/// survivor, and polls the collector.
fn churn(ctx: &impl ParCtx, rounds: usize) -> u64 {
    let keep = ctx.alloc_data_array(64);
    for i in 0..64 {
        ctx.write_nonptr(keep, i, i as u64);
    }
    ctx.pin(keep);
    for _ in 0..rounds {
        let garbage = ctx.alloc_data_array(200);
        ctx.write_nonptr(garbage, 0, 1);
        ctx.maybe_collect();
    }
    let mut sum = 0;
    for i in 0..64 {
        sum += ctx.read_mut(keep, i);
    }
    ctx.unpin(keep);
    sum
}

/// The acceptance bound of memory v2: under steady-state churn (repeated runs on one
/// runtime), the footprint stops growing after warmup — retired chunks flow back
/// through the free lists instead of accumulating forever. Before recycling, every
/// run's chunks were immortal and the peak of N runs was ~N times one run's.
///
/// The store never gives a buffer back, so the words it ever minted are what it
/// holds: those must stop growing too. A reclaim that dropped a chunk from the free
/// lists without freeing its buffer would keep `peak_live_words` flat while every
/// run minted afresh.
#[test]
fn steady_state_footprint_is_bounded_across_runs() {
    let rt = churn_runtime(1);
    let expected: u64 = (0..64).sum();

    // Warmup: two runs (the second run's start is the first horizon crossing).
    for _ in 0..2 {
        assert_eq!(rt.run(|ctx| churn(ctx, 120)), expected);
    }
    let warm = rt.stats();
    let peak_after_warmup = warm.peak_live_words;
    let minted_after_warmup = rt.store_stats().total_allocated_words;

    for _ in 0..10 {
        assert_eq!(rt.run(|ctx| churn(ctx, 120)), expected);
    }
    let s = rt.stats();
    assert!(
        s.chunks_recycled > 0,
        "steady-state churn must be served by recycling: {s:?}"
    );
    // Peak resident words stay flat: each run reuses the previous run's chunks.
    assert!(
        s.peak_live_words <= peak_after_warmup * 2,
        "footprint grew across iterations: warmup peak {} words, final peak {} words",
        peak_after_warmup,
        s.peak_live_words
    );
    // The acceptance bound: after warmup, one run's peak stays within 2x of what the
    // run actually keeps live plus the recyclable pool.
    assert!(
        s.peak_live_words <= 2 * (s.live_words + s.free_words).max(1),
        "peak {} not within 2x of live {} + free {}",
        s.peak_live_words,
        s.live_words,
        s.free_words
    );
    let minted = rt.store_stats().total_allocated_words;
    assert_eq!(
        minted, minted_after_warmup,
        "the store kept minting after warmup: {minted_after_warmup} words, then {minted}"
    );
}

/// Lifecycle conservation at the runtime level: after any number of runs, every chunk
/// the store ever created is in exactly one state.
#[test]
fn chunk_lifecycle_is_conserved_across_runs() {
    let rt = churn_runtime(2);
    for round in 0..5 {
        rt.run(|ctx| churn(ctx, 60));
        let s = rt.store_stats();
        assert_eq!(
            s.chunks_created,
            s.chunks_active + s.chunks_quarantined + s.chunks_free,
            "conservation violated after round {round}: {s:?}"
        );
    }
}

/// A small run holds small chunks: with a forced steal, the run has two heaps (the
/// root and the thief's) and a promotion into the root, yet a few hundred words of
/// objects must occupy well under one default chunk. Each heap cursor's first chunk
/// is one page; when every refill took a full default chunk, the same run held at
/// least two 8 Ki-word chunks.
#[test]
fn forced_steal_run_holds_well_under_one_default_chunk() {
    let cfg = HhConfig::with_workers(2);
    let chunk_words = cfg.chunk_words as u64;
    let rt = HhRuntime::new(cfg);
    let thief_done = &*Box::leak(Box::new(AtomicBool::new(false)));
    let (live, sum) = rt.run(|ctx| {
        let holder = ctx.alloc_ref_ptr(ObjPtr::NULL);
        let keep = ctx.alloc_data_array(100);
        let (stolen, _) = ctx.join(
            move |_| {
                // Spin until the other worker has stolen and run the right branch.
                let mut spins = 0u64;
                while !thief_done.load(Ordering::Acquire) {
                    std::thread::yield_now();
                    spins += 1;
                    if spins > 50_000_000 {
                        return false;
                    }
                }
                true
            },
            move |c| {
                let local = c.alloc_data_array(100);
                let cell = c.alloc_ref_data(7);
                c.write_nonptr(local, 0, 5);
                c.write_ptr(holder, 0, cell); // promotes `cell` into the root heap
                thief_done.store(true, Ordering::Release);
            },
        );
        assert!(stolen, "the right branch was never stolen");
        ctx.write_nonptr(keep, 0, 1);
        let live = rt.stats().live_words;
        let cell = ctx.read_mut_ptr(holder, 0);
        (live, ctx.read_mut(cell, 0) + ctx.read_mut(keep, 0))
    });
    assert_eq!(sum, 8);
    let s = rt.stats();
    assert!(s.sched_steals >= 1 && s.promoted_objects >= 1, "{s:?}");
    assert!(
        live <= chunk_words / 4,
        "{live} words held for a few hundred words of objects (default chunk {chunk_words})"
    );
}

/// A borrower collects its heap after a stolen sibling completed: the sibling's
/// heap joined the parent when its branch ended, so the collection zone is the one
/// borrowed heap and no collection spans a subtree.
///
/// Shape: fork(left, right). The right branch is stolen (a second worker picks it up
/// while the left spins), creates a child heap, fills it, finishes — joining its heap
/// into the parent — and releases the steal gate. The left branch — still running,
/// borrowing the parent heap — then forces a collection, which now covers the
/// stolen branch's memory as part of the parent's.
#[test]
fn borrower_collects_subtree_spanning_completed_descendant() {
    let rt = HhRuntime::new(HhConfig {
        n_workers: 2,
        chunk_words: 256,
        gc_threshold_words: 1 << 20,
        ..Default::default()
    });
    let right_done = &*Box::leak(Box::new(AtomicBool::new(false)));
    let observed = rt.run(move |ctx| {
        let keep = ctx.alloc_data_array(16);
        for i in 0..16 {
            ctx.write_nonptr(keep, i, (i as u64) * 3);
        }
        ctx.pin(keep);
        let (collected, _) = ctx.join(
            move |c| {
                // Wait until the stolen right branch has finished, then force a
                // borrower collection. On a single-CPU machine the yield lets the
                // second worker run.
                let mut spins = 0u64;
                while !right_done.load(Ordering::Acquire) {
                    std::thread::yield_now();
                    spins += 1;
                    if spins > 50_000_000 {
                        return false; // bail out rather than hang the suite
                    }
                }
                // Retry: the heap's gate stays closed until the right branch has
                // joined its heap and returned.
                let mut tries = 0;
                while !c.force_collect() {
                    std::thread::yield_now();
                    tries += 1;
                    if tries > 1_000_000 {
                        return false;
                    }
                }
                true
            },
            move |c| {
                // Allocate real data in the (possibly stolen) branch so a stolen run
                // creates a heap with content, then signal completion.
                let local = c.alloc_data_array(128);
                c.write_nonptr(local, 0, 42);
                right_done.store(true, Ordering::Release);
            },
        );
        assert!(collected, "borrower collection never ran");
        // Pinned data survives the collection.
        let mut sum = 0;
        for i in 0..16 {
            sum += ctx.read_mut(keep, i);
        }
        ctx.unpin(keep);
        sum
    });
    assert_eq!(observed, (0..16u64).map(|i| i * 3).sum());
    let s = rt.stats();
    assert!(s.gc_count >= 1);
    assert_eq!(
        s.subtree_collections, 0,
        "a collection zone spanned more than one heap: {s:?}"
    );
    assert_eq!(rt.check_disentangled(), 0);
    assert_store_drained(&rt);
}

/// Spins (yielding, so a one-CPU host runs the other worker) until `flag` is set;
/// fails the test after a minute rather than hang it.
fn wait_for(flag: &AtomicBool) {
    let start = std::time::Instant::now();
    while !flag.load(Ordering::Acquire) {
        assert!(
            start.elapsed().as_secs() < 60,
            "the awaited branch never ran"
        );
        std::thread::yield_now();
    }
}

/// A borrower beneath a stolen task collects: the gate it needs is its own
/// heap's, which no stolen task holds, not the one the stolen task holds on its
/// parent's heap for its whole run.
///
/// Shape: fork(left, right) at the root. The left branch spins until the right
/// one runs, which it can only do stolen, on the other worker; so the spinning
/// worker never steals the right branch's own fork. The right branch forks, and
/// its unstolen left child, borrowing the stolen branch's heap, forces a
/// collection.
#[test]
fn borrower_beneath_a_stolen_task_collects() {
    let rt = HhRuntime::new(HhConfig {
        n_workers: 2,
        gc_threshold_words: 1 << 20,
        ..Default::default()
    });
    let done = &AtomicBool::new(false);
    let (borrowed, collected) = rt.run(|ctx| {
        let ((), right) = ctx.join(
            |_| wait_for(done),
            |c| {
                assert!(c.owns_heap(), "the right branch runs only stolen");
                let keep = c.alloc_data_array(4);
                c.write_nonptr(keep, 3, 9);
                c.pin(keep);
                let (collected, ()) = c.join(|b| (!b.owns_heap(), b.force_collect()), |_| ());
                assert_eq!(c.read_mut(keep, 3), 9, "the pinned object survives");
                c.unpin(keep);
                done.store(true, Ordering::Release);
                collected
            },
        );
        right
    });
    assert!(borrowed, "the forced collection ran on a borrower");
    assert!(
        collected,
        "a borrower beneath a stolen task never collected"
    );
    assert!(rt.stats().gc_count >= 1);
}

/// Another tenant's stolen task does not block a borrower's collection.
///
/// Tenant A's right branch is stolen and parks until it is released; A's left
/// branch waits for that, then returns, so its worker helps while A's join waits.
/// Tenant B's run, started only then, executes from that help loop, and B's
/// borrower forces a collection while A's stolen task is still in flight.
#[test]
fn another_tenants_stolen_task_does_not_block_a_borrower() {
    let rt = HhRuntime::new(HhConfig {
        n_workers: 2,
        gc_threshold_words: 1 << 20,
        ..Default::default()
    });
    let parked = AtomicBool::new(false);
    let release = AtomicBool::new(false);
    let collected = std::thread::scope(|scope| {
        let a = scope.spawn(|| {
            rt.run(|ctx| {
                ctx.join(
                    |_| wait_for(&parked),
                    |c| {
                        assert!(c.owns_heap(), "A's right branch runs only stolen");
                        parked.store(true, Ordering::Release);
                        wait_for(&release);
                    },
                )
            })
        });
        wait_for(&parked);
        let collected = rt.run(|ctx| {
            let (collected, ()) = ctx.join(
                |c| {
                    assert!(!c.owns_heap(), "B's left branch borrows B's heap");
                    c.force_collect()
                },
                |_| (),
            );
            collected
        });
        release.store(true, Ordering::Release);
        a.join().unwrap();
        collected
    });
    assert!(
        collected,
        "a stolen task of another run blocked the borrower"
    );
}

/// At P workers (`HH_WORKERS`, default 2), runs that steal, abort and panic leave
/// no heap behind: every child heap joined its parent as its branch ended, so each
/// run's disposal retires all of the run's chunks, and no collection spans more
/// than one heap.
#[test]
fn runs_that_steal_abort_and_panic_leave_no_heap_behind() {
    hh_api::silence_expected_aborts();
    let rt = HhRuntime::new(HhConfig {
        n_workers: hh_api::env_workers(2),
        chunk_words: 256,
        gc_threshold_words: 2 * 1024,
        ..Default::default()
    });
    fn tree(c: &impl ParCtx, depth: usize, fail_at: Option<usize>) -> u64 {
        if depth == 0 {
            let o = c.alloc_ref_data(1);
            c.maybe_collect();
            return c.read_mut(o, 0);
        }
        let (a, b) = c.join(
            |c| tree(c, depth - 1, None),
            |c| {
                let v = tree(c, depth - 1, fail_at);
                if fail_at == Some(depth) {
                    std::panic::panic_any(hh_api::InjectedFault { site: "test" });
                }
                v
            },
        );
        a + b
    }
    for round in 0..6 {
        // Whether a leaf's heap reaches the threshold depends on the schedule,
        // so the run's root task also forces one owner collection after its
        // join tree returns (an owner never skips one).
        let (sum, collected) = rt.run(|ctx| (tree(ctx, 10, None), ctx.force_collect()));
        assert_eq!(sum, 1 << 10);
        assert!(collected, "round {round}: an owner's forced collection ran");
        assert_store_drained(&rt);
        // Forks until its deadline fires; the abort unwinds every branch in flight.
        let ctl = hh_api::RunCtl::with_deadline(std::time::Duration::from_millis(5));
        let aborted = rt.try_run(&ctl, |ctx| loop {
            tree(ctx, 8, None);
        });
        assert!(
            aborted.is_err(),
            "round {round}: the deadline aborts the run"
        );
        assert_store_drained(&rt);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.run(|ctx| tree(ctx, 10, Some(3 + round % 4)))
        }));
        assert!(
            panicked.is_err(),
            "round {round}: the injected panic reaches the run"
        );
        assert_store_drained(&rt);
    }
    let s = rt.stats();
    assert!(s.gc_count > 0, "{s:?}");
    assert_eq!(s.subtree_collections, 0, "{s:?}");
}

/// After the runtime's runs have all finished, every chunk is back in the store:
/// conserved across states, and none still held by a heap.
fn assert_store_drained(rt: &HhRuntime) {
    let s = rt.store_stats();
    assert_eq!(
        s.chunks_created,
        s.chunks_active + s.chunks_quarantined + s.chunks_free,
        "chunk conservation violated: {s:?}"
    );
    assert_eq!(s.chunks_active, 0, "a heap outlived its run: {s:?}");
    assert_eq!(rt.active_runs(), 0, "run epoch leaked");
}

/// A panicking run must not wedge the run-epoch bookkeeping: disposal and recycling
/// keep working on subsequent runs.
#[test]
fn panicking_run_does_not_disable_recycling() {
    let rt = churn_runtime(1);
    rt.run(|ctx| churn(ctx, 60));
    let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        rt.run(|ctx| {
            let _ = ctx.alloc_data_array(100);
            panic!("deliberate test panic");
        })
    }));
    assert!(boom.is_err(), "the panic must propagate out of run");
    // Later runs still cross the reuse horizon and recycle earlier runs' chunks.
    for _ in 0..2 {
        rt.run(|ctx| churn(ctx, 60));
    }
    let s = rt.stats();
    assert!(
        s.chunks_recycled > 0,
        "recycling must survive a panicked run: {s:?}"
    );
    let store = rt.store_stats();
    assert_eq!(
        store.chunks_created,
        store.chunks_active + store.chunks_quarantined + store.chunks_free,
        "conservation must survive a panicked run: {store:?}"
    );
}

/// `ObjPtr`s do not outlive their run: carrying one into a later run observes the
/// recycled chunk's reset state, not the old object. (This documents the reuse
/// horizon rather than desirable behaviour — the old pointer is *stale*, and debug
/// builds catch a dereference via the zeroed header.)
#[test]
fn pointers_do_not_survive_across_runs() {
    let rt = churn_runtime(1);
    let stale: ObjPtr = rt.run(|ctx| {
        let p = ctx.alloc_data_array(8);
        ctx.write_nonptr(p, 0, 77);
        p
    });
    // Second run: the first run's tree is disposed and recycled.
    rt.run(|ctx| {
        let _ = ctx.alloc_data_array(8);
    });
    let store_stats = rt.store_stats();
    assert!(
        store_stats.chunks_retired > 0,
        "first run's chunks must have been retired: {store_stats:?}"
    );
    let _ = stale; // must not be dereferenced — that is the point
}

/// The collection trigger counts the words a heap received since its last
/// collection, never the words that collection retained: a heap whose pinned live
/// set is twice the threshold, collected once, is not collected again by safe
/// points that allocate nothing. Both collector shapes share the rule (the
/// incremental one opens its window on it). One worker and the `gc` benchmark's
/// geometry: 1 Ki-word chunks, a 16 Ki-word threshold.
#[test]
fn live_data_over_threshold_is_not_recollected_without_allocation() {
    const THRESHOLD: usize = 16 * 1024;
    const ARRAYS: usize = 2 * THRESHOLD / 1000 + 1;
    for incremental_gc in [false, true] {
        let rt = HhRuntime::new(HhConfig {
            n_workers: 1,
            chunk_words: 1024,
            gc_threshold_words: THRESHOLD,
            incremental_gc,
            ..Default::default()
        });
        let sum = rt.run(|ctx| {
            let keep = ctx.alloc_ptr_array(ARRAYS);
            ctx.pin(keep);
            for i in 0..ARRAYS {
                let a = ctx.alloc_data_array(1000);
                ctx.write_nonptr(a, 0, i as u64);
                ctx.write_ptr(keep, i, a);
            }
            assert!(ctx.force_collect(), "an owner always collects");
            for _ in 0..100 {
                ctx.maybe_collect();
            }
            let sum = (0..ARRAYS)
                .map(|i| ctx.read_mut(ctx.read_mut_ptr(keep, i), 0))
                .sum::<u64>();
            ctx.unpin(keep);
            sum
        });
        assert_eq!(sum, (0..ARRAYS as u64).sum());
        let s = rt.stats();
        assert_eq!(s.gc_count, 1, "incremental_gc={incremental_gc}: {s:?}");
        assert!(
            s.gc_copied_words >= 2 * THRESHOLD as u64,
            "the live set must survive: {s:?}"
        );
    }
}
