//! Memory-lifecycle integration tests for the hierarchical-heap runtime: chunk
//! recycling across runs, bounded steady-state footprint, subtree collection, and
//! lifecycle conservation.

use hh_api::{ParCtx, Runtime};
use hh_objmodel::ObjPtr;
use hh_runtime::{HhConfig, HhRuntime};
use std::sync::atomic::{AtomicBool, Ordering};

fn churn_runtime(workers: usize) -> HhRuntime {
    HhRuntime::new(HhConfig {
        n_workers: workers,
        chunk_words: 256,
        gc_threshold_words: 8 * 1024,
        max_free_words: 1 << 30,
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
/// runtime), the peak footprint stops growing after warmup — retired chunks flow back
/// through the free lists instead of accumulating forever. Before recycling, every
/// run's chunks were immortal and the peak of N runs was ~N times one run's.
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
            s.chunks_active + s.chunks_quarantined + s.chunks_free + s.chunks_released,
            "conservation violated after round {round}: {s:?}"
        );
    }
}

/// `max_free_words` bounds the recyclable pool: with a tiny cap, reclaimed chunks are
/// released instead of parked for reuse.
#[test]
fn free_pool_cap_releases_excess_buffers() {
    let rt = HhRuntime::new(HhConfig {
        n_workers: 1,
        chunk_words: 256,
        gc_threshold_words: 8 * 1024,
        max_free_words: 512, // at most two 256-word chunks stay reusable
        ..Default::default()
    });
    for _ in 0..4 {
        rt.run(|ctx| churn(ctx, 80));
    }
    let s = rt.store_stats();
    assert!(
        s.chunks_released > 0,
        "the free-pool cap must release excess buffers: {s:?}"
    );
    assert!(
        s.free_words <= 512,
        "free pool exceeded its cap: {} words",
        s.free_words
    );
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

/// Subtree collection: a borrower task collects its heap together with a *completed
/// descendant* heap (created by a steal whose join has not resolved yet), in one
/// pass, without disturbing pinned data.
///
/// Shape: fork(left, right). The right branch is stolen (a second worker picks it up
/// while the left spins), creates a child heap, finishes, and releases the steal
/// gate. The left branch — still running, borrowing the parent heap — then forces a
/// collection: the child heap is live (its join splice only happens after the left
/// branch returns), so the zone spans two heaps.
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
                // Wait until the stolen right branch has finished (and with it
                // released the steal gate), then force a borrower collection. On a
                // single-CPU machine the yield lets the second worker run.
                let mut spins = 0u64;
                while !right_done.load(Ordering::Acquire) {
                    std::thread::yield_now();
                    spins += 1;
                    if spins > 50_000_000 {
                        return false; // bail out rather than hang the suite
                    }
                }
                // The right branch's heap is merged only after *this* branch returns,
                // so if the right branch was stolen its heap is still a live
                // descendant here. Retry: the gate closes again if another steal is
                // in flight.
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
        // Pinned data survives the (possibly multi-heap) collection.
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
    // Whether the fork was actually stolen depends on scheduling; only a stolen fork
    // leaves a live descendant for the zone to span. When it was, the subtree
    // counter must have seen it.
    if s.sched_steals > 0 {
        assert!(
            s.subtree_collections >= 1,
            "a stolen fork existed but no subtree collection was counted: {s:?}"
        );
    }
    assert_eq!(rt.check_disentangled(), 0);
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
        store.chunks_active + store.chunks_quarantined + store.chunks_free + store.chunks_released,
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
