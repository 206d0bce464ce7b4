//! Stress and failure-injection style integration tests: high fork fan-out, deep
//! nesting, contended promotion targets, panics crossing task boundaries, and repeated
//! collections — the situations where a runtime bug would show up as entanglement, a
//! lost update, or a hang.

use hierheap::{HhConfig, HhRuntime, ObjKind, ObjPtr, ParCtx, Runtime};

fn small_runtime(workers: usize) -> HhRuntime {
    HhRuntime::new(HhConfig {
        n_workers: workers,
        chunk_words: 512,
        gc_threshold_words: 20_000,
        ..Default::default()
    })
}

/// Many tasks repeatedly write freshly allocated objects into a single root-allocated
/// cell: the maximally contended promotion scenario (every write promotes to the root,
/// as in `usp-tree`). The final value must be one of the written records, fully intact.
#[test]
fn contended_promotions_to_a_single_root_cell() {
    // Eager per-fork heaps so every leaf allocates in its own heap and each publish
    // into the root cell promotes deterministically (under the default lazy policy,
    // leaves of unstolen subtrees run in the root heap and need no promotion).
    let rt = HhRuntime::new(HhConfig {
        n_workers: 4,
        chunk_words: 512,
        gc_threshold_words: 20_000,
        lazy_child_heaps: false,
        ..Default::default()
    });
    let (value, tag) = rt.run(|ctx| {
        let cell = ctx.alloc_ref_ptr(ObjPtr::NULL);
        fn hammer<C: ParCtx>(c: &C, cell: ObjPtr, lo: u64, hi: u64) {
            if hi - lo == 1 {
                for round in 0..20u64 {
                    let rec = c.alloc(0, 2, ObjKind::ArrayData);
                    c.write_nonptr(rec, 0, lo);
                    c.write_nonptr(rec, 1, lo ^ round);
                    c.write_ptr(cell, 0, rec);
                    c.maybe_collect();
                }
            } else {
                let mid = lo + (hi - lo) / 2;
                c.join(|c| hammer(c, cell, lo, mid), |c| hammer(c, cell, mid, hi));
            }
        }
        hammer(ctx, cell, 0, 32);
        let p = ctx.read_mut_ptr(cell, 0);
        (ctx.read_mut(p, 0), ctx.read_mut(p, 1))
    });
    assert!(value < 32, "winner id out of range: {value}");
    // The record's two fields were written by the same task iteration (field0 = id,
    // field1 = id ^ round with round < 20), so they must be consistent: a torn record
    // would make the recovered round out of range.
    assert!(tag ^ value < 20, "torn record: round {}", tag ^ value);
    assert_eq!(rt.check_disentangled(), 0);
    assert!(rt.stats().promoted_objects > 0);
}

/// Deep nesting: a fork chain hundreds of levels deep, each level touching an object of
/// the level above (distant reads/writes across many depths).
#[test]
fn deep_nesting_with_distant_access() {
    let rt = small_runtime(2);
    let total = rt.run(|ctx| {
        fn descend<C: ParCtx>(c: &C, acc_cell: ObjPtr, depth: u64) -> u64 {
            // Distant non-pointer write into an ancestor-allocated counter.
            let old = c.read_mut(acc_cell, 0);
            c.write_nonptr(acc_cell, 0, old + 1);
            if depth == 0 {
                c.read_mut(acc_cell, 0)
            } else {
                let (a, _) = c.join(|c| descend(c, acc_cell, depth - 1), |_| ());
                a
            }
        }
        let counter = ctx.alloc_ref_data(0);
        descend(ctx, counter, 300)
    });
    assert_eq!(total, 301);
    assert_eq!(rt.check_disentangled(), 0);
}

/// Wide fan-out: thousands of sibling tasks each allocating and publishing results,
/// exercising heap creation/join bookkeeping at scale.
#[test]
fn wide_fanout_allocates_and_joins_many_heaps() {
    let rt = small_runtime(4);
    let sum = rt.run(|ctx| {
        fn spread<C: ParCtx>(c: &C, lo: u64, hi: u64) -> u64 {
            if hi - lo == 1 {
                let obj = c.alloc_ref_data(hh_api_hash(lo));
                c.read_mut(obj, 0)
            } else {
                let mid = lo + (hi - lo) / 2;
                let (a, b) = c.join(|c| spread(c, lo, mid), |c| spread(c, mid, hi));
                a.wrapping_add(b)
            }
        }
        spread(ctx, 0, 2048)
    });
    let expected = (0..2048u64).map(hh_api_hash).fold(0u64, u64::wrapping_add);
    assert_eq!(sum, expected);
    // Lazy steal-time heaps: each of the 2047 forks accounts for exactly two heap
    // slots, split between real creations (stolen) and elisions (unstolen).
    let s = rt.stats();
    assert_eq!(
        s.heaps_created - 1 + s.heaps_elided,
        2 * 2047,
        "two heap slots per fork expected"
    );
    assert!(
        s.heaps_elided > 0,
        "a fan-out this wide must have unstolen forks"
    );
    assert_eq!(rt.check_disentangled(), 0);
}

fn hh_api_hash(x: u64) -> u64 {
    hierheap::hash64(x)
}

/// A panic in a deeply nested task propagates to the caller of `run` without poisoning
/// the runtime: subsequent runs still work and stay disentangled.
#[test]
fn panics_propagate_and_runtime_survives() {
    let rt = small_runtime(3);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        rt.run(|ctx| {
            ctx.join(
                |c| c.join(|_| panic!("injected failure"), |_| ()),
                |c| c.alloc_ref_data(1),
            )
        })
    }));
    assert!(result.is_err(), "the injected panic must reach the caller");

    // The runtime remains usable afterwards.
    let v = rt.run(|ctx| {
        let r = ctx.alloc_ref_data(5);
        ctx.read_mut(r, 0)
    });
    assert_eq!(v, 5);
    assert_eq!(rt.check_disentangled(), 0);
}

/// Seed-driven wavefront stress lane: 64 hash-derived irregular-wavefront
/// instances (grid shape, seed count, and grain all vary per seed), each run on
/// the hierarchical runtime in both the monolithic A6 shape and the
/// mutator-concurrent incremental shape, under tiny chunks and thresholds with
/// the invariant checker on, and checked against the independent sequential
/// reconstruction oracle. `HH_STRESS_SEED=<n>` replays one seed;
/// `HH_STRESS_SEEDS` overrides the count; `HH_WORKERS` sizes the pools.
#[test]
fn stress_wavefront_forced() {
    use hh_workloads::wavefront::{wavefront, wavefront_reference};

    let run_one = |seed: u64| {
        let replay = format!(
            "seed {seed} (replay: HH_STRESS_SEED={seed} cargo test --test stress stress_wavefront)"
        );
        let width = 12 + (hierheap::hash64(seed ^ 0x11) % 30) as usize;
        let height = 12 + (hierheap::hash64(seed ^ 0x22) % 30) as usize;
        let seeds = 1 + (hierheap::hash64(seed ^ 0x33) % 12) as usize;
        let grain = 4 + (hierheap::hash64(seed ^ 0x44) % 12) as usize;
        let expected = wavefront_reference(width, height, seeds, seed);
        let workers = hh_api::env_workers(4).max(2);
        for incremental_gc in [false, true] {
            // Eager heaps so every tile publish promotes regardless of steal luck.
            let rt = HhRuntime::new(HhConfig {
                n_workers: workers,
                chunk_words: 256,
                gc_threshold_words: 2 * 1024,
                lazy_child_heaps: false,
                incremental_gc,
                ..Default::default()
            });
            let shape = if incremental_gc { "incremental" } else { "A6" };
            assert_eq!(
                rt.run(|c| wavefront(c, width, height, seeds, grain, seed)),
                expected,
                "wavefront ({shape}) diverged from the reference on {replay}"
            );
            assert_eq!(
                rt.check_disentangled(),
                0,
                "wavefront ({shape}) left entanglement on {replay}"
            );
        }
    };

    if let Ok(one) = std::env::var("HH_STRESS_SEED") {
        run_one(one.parse().expect("HH_STRESS_SEED must be an integer"));
        return;
    }
    let count: u64 = std::env::var("HH_STRESS_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64);
    for seed in 0..count {
        run_one(seed);
    }
}

/// Repeated forced collections interleaved with mutation keep pinned data intact and
/// keep memory accounting monotone in the right direction.
#[test]
fn repeated_collections_keep_pinned_data_and_account_memory() {
    let rt = small_runtime(1);
    rt.run(|ctx| {
        let keep = ctx.alloc_data_array(64);
        for i in 0..64 {
            ctx.write_nonptr(keep, i, (i as u64) * 3);
        }
        ctx.pin(keep);
        for round in 0..20 {
            for _ in 0..50 {
                let _garbage = ctx.alloc_data_array(128);
            }
            ctx.force_collect();
            for i in 0..64 {
                assert_eq!(
                    ctx.read_mut(keep, i),
                    (i as u64) * 3,
                    "round {round}, slot {i}"
                );
            }
        }
        ctx.unpin(keep);
    });
    let stats = rt.stats();
    assert_eq!(stats.gc_count, 20);
    assert!(
        stats.gc_copied_words >= 20 * 66,
        "survivor copied each round"
    );
}
