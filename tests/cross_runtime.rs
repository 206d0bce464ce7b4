//! Cross-crate integration tests: the benchmark suite run end-to-end on all four
//! runtimes through the public facade, checking agreement, disentanglement, and the
//! headline qualitative results of the paper.

use hierheap::lowlevel::StoreStats;
use hierheap::workloads::suite::{run_timed, BenchId, Params};
use hierheap::{
    hash64, DlgRuntime, HhConfig, HhRuntime, ObjPtr, ParCtx, Rng, Runtime, SeqRuntime, StwRuntime,
};

fn tiny() -> Params {
    Params {
        scale: 0.0002,
        grain: 512,
    }
}

/// The core agreement property: every deterministic benchmark computes the same result
/// checksum on every runtime.
#[test]
fn all_runtimes_agree_on_deterministic_benchmarks() {
    let p = tiny();
    let deterministic: Vec<BenchId> = BenchId::ALL
        .into_iter()
        .filter(|b| *b != BenchId::Reachability) // benign race ⇒ nondeterministic count
        .collect();
    for id in deterministic {
        let seq = SeqRuntime::new();
        let expected = seq.run(|ctx| run_timed(ctx, id, p)).checksum;

        let stw = StwRuntime::with_workers(3);
        assert_eq!(
            stw.run(|ctx| run_timed(ctx, id, p)).checksum,
            expected,
            "{} on stw",
            id.name()
        );

        let hh = HhRuntime::with_workers(3);
        assert_eq!(
            hh.run(|ctx| run_timed(ctx, id, p)).checksum,
            expected,
            "{} on parmem",
            id.name()
        );
        assert_eq!(hh.check_disentangled(), 0, "{} entangled", id.name());

        // The DLG baseline cannot express the imperative benchmarks in the paper; here
        // it can run them (same API), but to mirror the evaluation we only require
        // agreement on the pure ones.
        if id.is_pure() {
            let dlg = DlgRuntime::with_workers(3);
            assert_eq!(
                dlg.run(|ctx| run_timed(ctx, id, p)).checksum,
                expected,
                "{} on dlg",
                id.name()
            );
        }
    }
}

/// The adversarial workloads (`wavefront`, `entangle`) agree across all four
/// runtimes *and* across the hierarchical runtime's collector shapes — a
/// one-worker runtime (serial GC), A6 (monolithic collections on a team, the
/// default shape), and incremental collection — under GC-pressure thresholds
/// with the invariant checker on, leaving no entanglement after any run.
#[test]
fn adversarial_workloads_agree_across_runtimes_and_ablations() {
    let p = tiny();
    for id in BenchId::ADVERSARIAL {
        let expected = SeqRuntime::new().run(|ctx| run_timed(ctx, id, p)).checksum;
        assert_eq!(
            StwRuntime::with_workers(3)
                .run(|ctx| run_timed(ctx, id, p))
                .checksum,
            expected,
            "{} on stw",
            id.name()
        );
        assert_eq!(
            DlgRuntime::with_workers(3)
                .run(|ctx| run_timed(ctx, id, p))
                .checksum,
            expected,
            "{} on dlg",
            id.name()
        );
        let base = HhConfig {
            n_workers: 3,
            chunk_words: 256,
            gc_threshold_words: 4 * 1024,
            ..HhConfig::default()
        };
        let shapes: [(&str, HhConfig); 3] = [
            (
                "one worker (serial GC)",
                HhConfig {
                    n_workers: 1,
                    ..base.clone()
                },
            ),
            ("A6 (monolithic GC)", base.clone()),
            (
                "incremental GC",
                HhConfig {
                    incremental_gc: true,
                    ..base.clone()
                },
            ),
        ];
        for (label, cfg) in shapes {
            let hh = HhRuntime::new(cfg);
            assert_eq!(
                hh.run(|ctx| run_timed(ctx, id, p)).checksum,
                expected,
                "{} on parmem {label}",
                id.name()
            );
            assert_eq!(
                hh.check_disentangled(),
                0,
                "{} entangled under {label}",
                id.name()
            );
        }
    }
}

/// §4.4: the pure `map` benchmark promotes nothing on the hierarchical runtime, while
/// the Manticore-style baseline promotes the data of stolen tasks.
#[test]
fn promotion_volume_shape_matches_the_paper() {
    let p = Params {
        scale: 0.001,
        grain: 256,
    };
    let hh = HhRuntime::with_workers(4);
    hh.run(|ctx| run_timed(ctx, BenchId::Map, p));
    assert_eq!(
        hh.stats().promoted_objects,
        0,
        "parmem must not promote on map"
    );

    // The DLG baseline's promotion comes from data built by stolen tasks. With a
    // flat-array sequence representation `map` builds nothing in its leaves, so the
    // effect shows on `msort-pure`, whose leaves allocate their partitions locally.
    // Run it a few times and require that at least one run with several workers
    // promotes something (steals are scheduling-dependent).
    let mut dlg_promoted = 0;
    for _ in 0..5 {
        let dlg = DlgRuntime::with_workers(4);
        dlg.run(|ctx| run_timed(ctx, BenchId::MsortPure, p));
        dlg_promoted += dlg.stats().promoted_words;
        if dlg_promoted > 0 {
            break;
        }
    }
    assert!(
        dlg_promoted > 0,
        "the DLG baseline should promote data built by stolen tasks on msort-pure"
    );
}

/// The imperative BFS variants exercise exactly the promotion machinery Figure 9
/// predicts: `usp` does not promote, `usp-tree` does.
#[test]
fn bfs_promotion_matches_figure9() {
    let p = Params {
        scale: 0.001,
        grain: 256,
    };
    let hh = HhRuntime::with_workers(4);
    hh.run(|ctx| run_timed(ctx, BenchId::Usp, p));
    assert_eq!(hh.stats().promoted_objects, 0, "usp must not promote");

    // Eager per-fork heaps for the usp-tree half: Figure 9 is about the benchmark's
    // representative *operation*, so the assertion must not depend on whether the
    // scheduler happened to steal (under the lazy steal-time heap policy an unstolen
    // leaf's tree-extension writes are same-heap and promote nothing).
    let hh2 = HhRuntime::new(HhConfig::eager_heaps(4));
    hh2.run(|ctx| run_timed(ctx, BenchId::UspTree, p));
    assert!(
        hh2.stats().promoted_objects > 0,
        "usp-tree must perform promoting writes"
    );
    assert_eq!(hh2.check_disentangled(), 0);
}

/// Every mutator-heavy and adversarial workload publishes cross-heap structures:
/// under eager per-fork heaps (so the count does not depend on steals) the
/// hierarchical runtime promotes at least once on each, and stays disentangled.
#[test]
fn eager_heaps_promote_on_every_mutator_and_adversarial_workload() {
    let p = Params {
        scale: 0.0005,
        grain: 256,
    };
    for &id in BenchId::MUTATOR.iter().chain(BenchId::ADVERSARIAL.iter()) {
        let rt = HhRuntime::new(HhConfig::eager_heaps(2));
        rt.run(|ctx| run_timed(ctx, id, p));
        assert!(
            rt.stats().promotions > 0,
            "{}: eager run never promoted",
            id.name()
        );
        assert_eq!(rt.check_disentangled(), 0, "{} entangled", id.name());
    }
}

/// Every runtime reuses chunk memory across runs: the second run of a workload on
/// the same runtime is served (in part) from the chunks the first one retired.
#[test]
fn every_runtime_recycles_chunks_on_a_second_run() {
    fn twice<R: Runtime>(rt: &R, id: BenchId) -> u64 {
        for _ in 0..2 {
            rt.run(|ctx| run_timed(ctx, id, tiny()));
        }
        rt.stats().chunks_recycled
    }
    for id in [BenchId::Reduce, BenchId::MsortPure] {
        let recycled = [
            ("seq", twice(&SeqRuntime::new(), id)),
            ("stw", twice(&StwRuntime::with_workers(2), id)),
            ("dlg", twice(&DlgRuntime::with_workers(2), id)),
            ("parmem", twice(&HhRuntime::with_workers(2), id)),
        ];
        for (runtime, n) in recycled {
            assert!(
                n > 0,
                "{} on {runtime}: no chunks recycled across runs",
                id.name()
            );
        }
    }
    // A run whose closure panics still ends its epoch: the two runs after it
    // recycle its chunks and compute the right answer on every baseline.
    fn after_panic<R: Runtime>(rt: &R, expected: u64) {
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.run::<(), _>(|ctx| {
                ctx.alloc_data_array(64);
                panic!("deliberate panic inside a {} run", rt.name());
            })
        }));
        assert!(panicked.is_err());
        rt.run(|ctx| run_timed(ctx, BenchId::Reduce, tiny()));
        let last = rt.run(|ctx| run_timed(ctx, BenchId::Reduce, tiny()));
        assert_eq!(
            last.checksum,
            expected,
            "{} after a panicked run",
            rt.name()
        );
        assert!(
            rt.stats().chunks_recycled > 0,
            "{}: no chunks recycled after a panicked run",
            rt.name()
        );
    }
    let expected = SeqRuntime::new()
        .run(|ctx| run_timed(ctx, BenchId::Reduce, tiny()))
        .checksum;
    after_panic(&SeqRuntime::new(), expected);
    after_panic(&StwRuntime::with_workers(2), expected);
    after_panic(&DlgRuntime::with_workers(2), expected);
}

/// Garbage collection triggers under allocation pressure on every runtime that
/// implements it, without corrupting results.
#[test]
fn collections_happen_under_pressure_and_results_survive() {
    let p = Params {
        scale: 0.001,
        grain: 512,
    };
    // Small GC thresholds force collections during msort-pure (allocation heavy).
    // Eager per-fork heaps: every leaf owns its heap, so threshold collections are
    // deterministic; under the lazy policy only heap owners (root and stolen tasks)
    // collect, which is scheduling-dependent.
    let hh = HhRuntime::new(HhConfig {
        n_workers: 3,
        chunk_words: 1024,
        gc_threshold_words: 8_000,
        lazy_child_heaps: false,
        ..Default::default()
    });
    let seq = SeqRuntime::new();
    let expected = seq
        .run(|ctx| run_timed(ctx, BenchId::MsortPure, p))
        .checksum;
    let got = hh.run(|ctx| run_timed(ctx, BenchId::MsortPure, p)).checksum;
    assert_eq!(expected, got);
    assert!(
        hh.stats().gc_count > 0,
        "msort-pure with a small threshold must collect leaf heaps"
    );
}

// ---------------------------------------------------------------------------
// ParCtx v2: bulk operations are observationally equivalent to scalar loops.
// ---------------------------------------------------------------------------

/// Applies a deterministic random mix of scalar and bulk operations to two arrays and
/// returns both arrays' final contents. Run once with `use_bulk = false` (scalar loops
/// only) and once with `use_bulk = true`; the results must be identical on every
/// runtime.
type ArrayPair = (Vec<u64>, Vec<u64>);

const MIX_LEN: usize = 257; // deliberately not a power of two

fn random_op_mix<C: ParCtx>(ctx: &C, seed: u64, use_bulk: bool) -> ArrayPair {
    let a = ctx.alloc_data_array(MIX_LEN);
    let b = ctx.alloc_data_array(MIX_LEN);
    random_op_mix_on(ctx, a, b, seed, use_bulk)
}

/// The op mix of [`random_op_mix`] on two given `MIX_LEN`-word arrays (which may be
/// stale pointers to promoted objects).
fn random_op_mix_on<C: ParCtx>(
    ctx: &C,
    a: ObjPtr,
    b: ObjPtr,
    seed: u64,
    use_bulk: bool,
) -> ArrayPair {
    const LEN: usize = MIX_LEN;
    let mut rng = Rng::new(seed);
    for _ in 0..40 {
        let start = (rng.next_u64() % (LEN as u64 - 1)) as usize;
        let len = 1 + (rng.next_u64() % (LEN - start) as u64) as usize;
        let op = rng.next_u64() % 4;
        match op {
            0 => {
                // Bulk write vs. scalar write loop.
                let vals: Vec<u64> = (0..len).map(|_| rng.next_u64()).collect();
                if use_bulk {
                    ctx.write_nonptr_bulk(a, start, &vals);
                } else {
                    for (k, &v) in vals.iter().enumerate() {
                        ctx.write_nonptr(a, start + k, v);
                    }
                }
            }
            1 => {
                // Fill vs. scalar fill loop.
                let v = rng.next_u64();
                if use_bulk {
                    ctx.fill_nonptr(b, start, len, v);
                } else {
                    for k in 0..len {
                        ctx.write_nonptr(b, start + k, v);
                    }
                }
            }
            2 => {
                // Object→object copy vs. scalar copy loop.
                if use_bulk {
                    ctx.copy_nonptr(a, start, b, start, len);
                } else {
                    for k in 0..len {
                        let v = ctx.read_mut(a, start + k);
                        ctx.write_nonptr(b, start + k, v);
                    }
                }
            }
            _ => {
                // Read-modify-write through the bulk read vs. scalar reads.
                let mut buf = vec![0u64; len];
                if use_bulk {
                    ctx.read_mut_bulk(a, start, &mut buf);
                } else {
                    for (k, slot) in buf.iter_mut().enumerate() {
                        *slot = ctx.read_mut(a, start + k);
                    }
                }
                for x in buf.iter_mut() {
                    *x = x.wrapping_mul(0x9E3779B97F4A7C15).rotate_left(17);
                }
                if use_bulk {
                    ctx.write_nonptr_bulk(a, start, &buf);
                } else {
                    for (k, &v) in buf.iter().enumerate() {
                        ctx.write_nonptr(a, start + k, v);
                    }
                }
            }
        }
    }
    let read_all = |obj: ObjPtr| -> Vec<u64> {
        let mut out = vec![0u64; LEN];
        if use_bulk {
            ctx.read_mut_bulk(obj, 0, &mut out);
        } else {
            for (k, slot) in out.iter_mut().enumerate() {
                *slot = ctx.read_mut(obj, k);
            }
        }
        out
    };
    (read_all(a), read_all(b))
}

/// Property: on all four runtimes, a random mix of bulk operations leaves memory in
/// exactly the state the corresponding scalar loops would.
#[test]
fn bulk_ops_equal_scalar_loops_on_all_runtimes() {
    for seed in [1u64, 42, 0xC0FFEE] {
        let reference = SeqRuntime::new().run(|ctx| random_op_mix(ctx, seed, false));
        let runs: [(&str, ArrayPair); 4] = [
            (
                "seq",
                SeqRuntime::new().run(|ctx| random_op_mix(ctx, seed, true)),
            ),
            (
                "stw",
                StwRuntime::with_workers(3).run(|ctx| random_op_mix(ctx, seed, true)),
            ),
            (
                "dlg",
                DlgRuntime::with_workers(3).run(|ctx| random_op_mix(ctx, seed, true)),
            ),
            (
                "parmem",
                HhRuntime::with_workers(3).run(|ctx| random_op_mix(ctx, seed, true)),
            ),
        ];
        for (name, got) in runs {
            assert_eq!(
                got, reference,
                "bulk vs scalar mismatch on {name} (seed {seed})"
            );
        }
        // Scalar loops on the parallel runtimes agree too (sanity of the reference).
        let hh_scalar = HhRuntime::with_workers(3).run(|ctx| random_op_mix(ctx, seed, false));
        assert_eq!(
            hh_scalar, reference,
            "scalar mismatch on parmem (seed {seed})"
        );
    }
}

/// Property: the same equivalence holds when the operands are stale pointers to
/// objects promoted zero, one or two times — zero exercises the optimistic bulk path
/// (operate, then re-check the forwarding pointer), one and two the locked path
/// behind a forwarding chain — and the master copies end up holding the result.
#[test]
fn bulk_ops_equal_scalar_loops_on_promoted_operands() {
    /// Runs the mix two eager forks down, after publishing both arrays `promotions`
    /// levels up; returns what the mix read back through the stale pointers and
    /// what the root reads through the published (master) pointers.
    fn mix_after_promotions(
        rt: &HhRuntime,
        seed: u64,
        use_bulk: bool,
        promotions: usize,
    ) -> (ArrayPair, Option<ArrayPair>) {
        rt.run(|ctx| {
            let top = ctx.alloc_ptr_array(2);
            let seen = ctx
                .join(
                    |c1| {
                        let mid = c1.alloc_ptr_array(2);
                        c1.join(
                            |c2| {
                                let a = c2.alloc_data_array(MIX_LEN);
                                let b = c2.alloc_data_array(MIX_LEN);
                                for cell in [mid, top].into_iter().take(promotions) {
                                    c2.write_ptr(cell, 0, a);
                                    c2.write_ptr(cell, 1, b);
                                }
                                random_op_mix_on(c2, a, b, seed, use_bulk)
                            },
                            |_| (),
                        )
                        .0
                    },
                    |_| (),
                )
                .0;
            let masters = (promotions == 2).then(|| {
                let read_all = |obj: ObjPtr| {
                    let mut out = vec![0u64; MIX_LEN];
                    ctx.read_mut_bulk(obj, 0, &mut out);
                    out
                };
                (
                    read_all(ctx.read_mut_ptr(top, 0)),
                    read_all(ctx.read_mut_ptr(top, 1)),
                )
            });
            (seen, masters)
        })
    }

    for seed in [7u64, 0xB01C] {
        let reference = SeqRuntime::new().run(|ctx| random_op_mix(ctx, seed, false));
        for promotions in 0..=2 {
            for use_bulk in [false, true] {
                let rt = HhRuntime::new(HhConfig::eager_heaps(hh_api::env_workers(2)));
                let (seen, masters) = mix_after_promotions(&rt, seed, use_bulk, promotions);
                let what = format!("seed {seed}, {promotions} promotions, bulk {use_bulk}");
                assert_eq!(seen, reference, "through the stale pointers ({what})");
                if let Some(masters) = masters {
                    assert_eq!(masters, reference, "through the master copies ({what})");
                }
                assert_eq!(rt.check_disentangled(), 0, "{what}");
                let s = rt.stats();
                assert_eq!(s.promotions, 2 * promotions as u64, "{what}");
                assert_eq!(s.promoted_objects, 2 * promotions as u64, "{what}");
                if use_bulk && promotions == 0 {
                    assert_eq!(
                        s.bulk_master_lookups, 0,
                        "unforwarded operands must stay on the optimistic path ({what})"
                    );
                }
            }
        }
    }
}

/// Property: bulk operations remain correct under concurrent promotion — a child task
/// bulk-writes an array that gets promoted mid-run, and the parent then reads the
/// values through the master copy.
#[test]
fn bulk_writes_survive_concurrent_promotion() {
    const LEN: usize = 300;
    for trial in 0..5u64 {
        // Eager per-fork heaps: the child below is the *left* (never stolen) branch,
        // so under the lazy policy it would run in the root heap and its publishing
        // write would correctly promote nothing.
        let rt = HhRuntime::new(HhConfig::eager_heaps(4));
        let (expected, got) = rt.run(|ctx| {
            let cell = ctx.alloc_ref_ptr(ObjPtr::NULL);
            let (vals, _) = ctx.join(
                |c| {
                    // The child allocates the array locally and seeds it.
                    let arr = c.alloc_data_array(LEN);
                    c.fill_nonptr(arr, 0, LEN, 7);
                    // Writing the array into the root-allocated cell promotes it: the
                    // child's `arr` pointer now leads to the master through a
                    // forwarding chain.
                    c.write_ptr(cell, 0, arr);
                    // Bulk-write through the stale pointer; the runtime must resolve
                    // the master once and land every word there.
                    let vals: Vec<u64> = (0..LEN as u64).map(|i| hash64(trial ^ i)).collect();
                    c.write_nonptr_bulk(arr, 0, &vals);
                    // And a bulk read through the stale pointer sees them.
                    let mut back = vec![0u64; LEN];
                    c.read_mut_bulk(arr, 0, &mut back);
                    assert_eq!(back, vals, "child read-back through forwarding chain");
                    vals
                },
                |_| (),
            );
            // The parent reads through the master copy.
            let master = ctx.read_mut_ptr(cell, 0);
            let mut out = vec![0u64; LEN];
            ctx.read_mut_bulk(master, 0, &mut out);
            (vals, out)
        });
        assert_eq!(
            got, expected,
            "parent must see the child's bulk writes (trial {trial})"
        );
        assert_eq!(rt.check_disentangled(), 0);
        let stats = rt.stats();
        assert!(
            stats.promoted_objects > 0,
            "the write_ptr must have promoted"
        );
        assert!(stats.bulk_ops > 0);
    }
}

/// A genuinely *racing* variant of the promotion test: one child continuously
/// bulk-writes uniform patterns into arrays it allocated, while its sibling
/// concurrently promotes those same arrays by publishing them into every cell of
/// `cells` in turn — one promotion per cell, each one level further up (the array
/// pointer crosses between the tasks through a Rust-side atomic, so the promotions
/// really do run while bulk writes are in flight). With `pre`, the writer first
/// publishes each array into `pre` itself, so the arrays are already promoted
/// when the writes begin and the sibling promotes their copies again. Returns the
/// number of torn slices the writer read back through its stale pointer.
fn race_bulk_writer_against_promoter<C: ParCtx>(
    ctx: &C,
    pre: Option<ObjPtr>,
    cells: &[ObjPtr],
    trial: u64,
) -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    const LEN: usize = 512;
    const ROUNDS: u64 = 30;
    const PATTERNS: u64 = 40;
    // Rust-side mailbox handing freshly allocated array pointers to the promoter;
    // `progress` is 1 once the promoter runs and counts its publishes after that;
    // `done` ends the promoter's spin loop.
    let mailbox = AtomicU64::new(0);
    let progress = AtomicU64::new(0);
    let done = AtomicU64::new(0);
    let publish = |c: &C, bits: u64| {
        for &cell in cells {
            c.write_ptr(cell, 0, ObjPtr::from_bits(bits));
        }
        progress.fetch_add(1, Ordering::Release);
    };
    // The writer's heap joins the parent when the writer returns, after which a
    // publish is a same-heap write and promotes nothing. So the writer starts once
    // the promoter runs on another worker, and returns only after it has
    // published at least once. Bounded, so a schedule that never steals cannot
    // hang the suite.
    let await_progress = |at_least: u64| {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while progress.load(Ordering::Acquire) < at_least && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
    };
    ctx.join(
        |c| {
            await_progress(1);
            let mut torn = 0u64;
            let mut back = vec![0u64; LEN];
            for round in 0..ROUNDS {
                let arr = c.alloc_data_array(LEN);
                c.fill_nonptr(arr, 0, LEN, u64::MAX);
                if let Some(pre) = pre {
                    c.write_ptr(pre, 0, arr);
                }
                mailbox.store(arr.to_bits(), Ordering::Release);
                for pat in 0..PATTERNS {
                    let val = trial << 32 | round << 16 | pat;
                    c.fill_nonptr(arr, 0, LEN, val);
                    c.read_mut_bulk(arr, 0, &mut back);
                    if back.windows(2).any(|w| w[0] != w[1]) {
                        torn += 1;
                    }
                }
            }
            await_progress(2);
            done.store(1, Ordering::Release);
            torn
        },
        |c| {
            // Promote whatever array the writer last published, as soon as it
            // appears, while the writer keeps bulk-writing it.
            progress.store(1, Ordering::Release);
            let mut last = 0u64;
            while done.load(Ordering::Acquire) == 0 {
                let bits = mailbox.load(Ordering::Acquire);
                if bits != 0 && bits != last {
                    last = bits;
                    publish(c, bits);
                }
                std::hint::spin_loop();
            }
        },
    )
    .0
}

/// The writer's bulk slices run lock-free on whichever copy of its array is the
/// master: on the array itself while it is unforwarded, and through its stale
/// pointer's forwarding chain afterwards. A promotion keeps the hop to a copy
/// pending until the copy is filled, and a chase waits a pending hop out, so no
/// slice lands on a copy before its fill. A slice that a promotion overtakes fails
/// its re-check and is applied again to the newer copy. So every observer ordered
/// after the slice — the writer reading back through its stale pointer, and the
/// parent reading the master copy — must see a *uniform* array, never a torn
/// half-pattern: whether the array is promoted once or twice under the writer's
/// feet, or is already promoted when the writes begin and is promoted again. A
/// regression that skipped the re-check, or let a chase past a pending hop, shows
/// up here as a torn read.
#[test]
fn bulk_writes_race_concurrent_promotion_without_tearing() {
    // How many promotions the sibling makes, and whether the writer promotes each
    // array once itself before the race.
    for (trial, hops, again) in [
        (0u64, 1, false),
        (1, 2, false),
        (2, 1, true),
        (3, 1, false),
        (4, 2, false),
        (5, 1, true),
    ] {
        // Eager per-fork heaps, for the same reason as above: the writer is the left
        // branch and must allocate in its own heap for the promoter to have anything
        // to promote.
        let rt = HhRuntime::new(HhConfig::eager_heaps(4));
        let torn = rt.run(|ctx| {
            let cell = ctx.alloc_ref_ptr(ObjPtr::NULL);
            let mut torn = if hops == 1 && !again {
                race_bulk_writer_against_promoter(ctx, None, &[cell], trial)
            } else {
                // One fork further down. Either the sibling publishes into the
                // middle heap first, so every array is promoted twice and the
                // writer's pointer ends up two forwarding hops from the master;
                // or the writer itself publishes into the middle heap, and the
                // sibling promotes that copy again while the writes run on it.
                ctx.join(
                    |c| {
                        let mid = c.alloc_ref_ptr(ObjPtr::NULL);
                        if again {
                            race_bulk_writer_against_promoter(c, Some(mid), &[cell], trial)
                        } else {
                            race_bulk_writer_against_promoter(c, None, &[mid, cell], trial)
                        }
                    },
                    |_| (),
                )
                .0
            };
            // The parent observes the last promoted array through the master copy.
            let master = ctx.read_mut_ptr(cell, 0);
            if !master.is_null() {
                let mut out = vec![0u64; ctx.obj_len(master)];
                ctx.read_mut_bulk(master, 0, &mut out);
                if out.windows(2).any(|w| w[0] != w[1]) {
                    torn += 1;
                }
            }
            torn
        });
        assert_eq!(
            torn, 0,
            "torn bulk slice under concurrent promotion (trial {trial}, {hops} hops, again: {again})"
        );
        assert_eq!(rt.check_disentangled(), 0);
        assert!(
            rt.stats().promoted_objects > 0,
            "the promoter must have promoted at least one in-flight array (trial {trial})"
        );
    }
}

/// The promotion volume of the two promotion-bound workloads is fixed by the program,
/// not by which path copies the objects: under eager per-fork heaps every
/// `union_find` edge record and every cross-subtree `entangle` message is a
/// one-object closure published into the root heap — exactly one promotion, one
/// promoted object and its size in words each — at one worker and at eight, with the
/// invariant checker on.
#[test]
fn promotion_counts_are_exact_on_union_find_and_entangle() {
    use hierheap::workloads::adversary::entangle;
    use hierheap::workloads::mutator::union_find;
    const N: usize = 80_000;
    const ACTORS: usize = 16;
    const OPS: usize = 4_000;
    const PERMILLE: u64 = 500;
    const SEED: u64 = 0x5EED;
    // `entangle`'s own send predicate (see `adversary.rs`).
    let sends = (0..ACTORS as u64)
        .flat_map(|t| (0..OPS as u64).map(move |op| hash64(SEED ^ (t << 32) ^ op)))
        .filter(|h| h % 1000 < PERMILLE)
        .count() as u64;
    let uf_expected = SeqRuntime::new().run(|c| union_find(c, N, N, 512, SEED));
    let en_expected = SeqRuntime::new().run(|c| entangle(c, ACTORS, OPS, PERMILLE, SEED));
    for workers in [1, 8] {
        let eager = || HhRuntime::new(HhConfig::eager_heaps(workers));
        let rt = eager();
        assert_eq!(rt.run(|c| union_find(c, N, N, 512, SEED)), uf_expected);
        assert_eq!(rt.check_disentangled(), 0);
        let s = rt.stats();
        let counts = (s.promotions, s.promoted_objects, s.promoted_words);
        // A record is one non-pointer field: header + forwarding slot + field.
        assert_eq!(
            counts,
            (N as u64, N as u64, 3 * N as u64),
            "{workers} workers"
        );

        let rt = eager();
        assert_eq!(
            rt.run(|c| entangle(c, ACTORS, OPS, PERMILLE, SEED)),
            en_expected
        );
        assert_eq!(rt.check_disentangled(), 0);
        let s = rt.stats();
        let counts = (s.promotions, s.promoted_objects, s.promoted_words);
        // A message is two non-pointer fields.
        assert_eq!(counts, (sends, sends, 4 * sends), "{workers} workers");
    }
}

/// Per-worker counter shards lose and double-count nothing, on the hierarchical
/// runtime and on the parallel baselines alike: what the three promotion-bound
/// programs allocate and move in bulk is fixed by the program, so the shard sums at
/// one worker and at eight (eager heaps on `HhRuntime`, so eight workers really
/// promote from many shards) must agree exactly, and `reset_stats` must clear every
/// shard, not only the caller's.
#[test]
fn sharded_counters_are_exact_across_worker_counts() {
    use hierheap::workloads::adversary::entangle;
    use hierheap::workloads::mutator::{frontier_bfs, union_find};
    use hierheap::RunStats;
    const SEED: u64 = 0x5EED;

    fn program<C: ParCtx>(c: &C, name: &str) -> u64 {
        match name {
            "union_find" => union_find(c, 20_000, 20_000, 256, SEED),
            "frontier_bfs" => frontier_bfs(c, 20_000, 6, 16, SEED),
            "entangle" => entangle(c, 16, 2_000, 500, SEED),
            _ => unreachable!("{name}"),
        }
    }

    /// Runs `name` on `make(1)` and `make(8)`; `check` also sees each runtime's
    /// stats before and after `reset_stats`.
    fn across<R: Runtime>(
        name: &str,
        make: impl Fn(usize) -> R,
        check: impl Fn(&R, &RunStats, &RunStats),
    ) {
        let counts = |workers: usize| {
            let rt = make(workers);
            let what = format!("{} {name} at {workers} workers", rt.name());
            let checksum = rt.run(|c| program(c, name));
            let s = rt.stats();
            rt.reset_stats();
            let z = rt.stats();
            // Every shard counter but `heaps_created` and `sched_steals`, which
            // the baselines overlay from their heap count and their pool.
            assert_eq!(
                [
                    z.gc_count,
                    z.world_stops,
                    z.allocated_words,
                    z.promotions,
                    z.promoted_objects,
                    z.promoted_words,
                    z.fwd_hops,
                    z.fwd_compressions,
                    z.heaps_elided,
                    z.gc_copied_words,
                    z.bulk_ops,
                    z.bulk_words,
                    z.bulk_master_lookups,
                    z.subtree_collections,
                    z.gc_parallel_collections,
                    z.gc_steal_blocks,
                    z.gc_max_pause_ns,
                    z.gc_pause_count,
                    z.gc_increments,
                    z.gc_incremental_collections,
                    z.promo_buf_allocs,
                    z.runs_aborted,
                    z.gc_finalize_rescues,
                    z.teardown_panics,
                ],
                [0; 24],
                "{what}: reset_stats"
            );
            assert!(z.gc_time.is_zero(), "{what}");
            check(&rt, &s, &z);
            (checksum, s.allocated_words, s.bulk_ops, s.bulk_words)
        };
        assert_eq!(counts(1), counts(8), "{name}: 1 vs 8 workers");
    }

    for name in ["union_find", "frontier_bfs", "entangle"] {
        across(
            name,
            |workers| HhRuntime::new(HhConfig::eager_heaps(workers)),
            |rt, s, z| {
                assert_eq!(rt.check_disentangled(), 0, "{name}");
                assert!(s.promotions > 0, "{name}: eager heaps promote");
                assert_eq!((z.heaps_created, z.sched_steals), (0, 0), "{name}");
            },
        );
        across(name, StwRuntime::with_workers, |_, _, _| ());
        across(name, DlgRuntime::with_workers, |_, _, _| ());
    }
}

/// The acceptance property of the bulk redesign: the hierarchical runtime resolves
/// the master at most once per object operand of each bulk operation — i.e. at most
/// `2 * bulk_ops` lookups in total — independent of slice length.
#[test]
fn bulk_master_lookups_are_amortized_per_slice() {
    let p = tiny();
    for id in [
        BenchId::Map,
        BenchId::Tabulate,
        BenchId::Msort,
        BenchId::Smvm,
    ] {
        let rt = HhRuntime::with_workers(3);
        rt.run(|ctx| run_timed(ctx, id, p));
        let s = rt.stats();
        assert!(s.bulk_ops > 0, "{} should use bulk operations", id.name());
        assert!(
            s.bulk_master_lookups <= 2 * s.bulk_ops,
            "{}: {} master lookups for {} bulk ops — not amortized per slice",
            id.name(),
            s.bulk_master_lookups,
            s.bulk_ops
        );
        assert!(
            s.bulk_amortization() > 4.0,
            "{}: bulk ops moved only {:.1} words each on average",
            id.name(),
            s.bulk_amortization()
        );
    }
}

/// Scheduler v2 acceptance: the lazy steal-time heap policy is observationally
/// equivalent to the eager per-fork policy — same checksums on every benchmark, same
/// bulk/scalar equivalence, clean disentanglement — while actually eliding heaps on
/// every fork-join workload.
#[test]
fn lazy_heap_policy_is_observationally_equivalent_and_elides_heaps() {
    let p = tiny();
    let deterministic: Vec<BenchId> = BenchId::ALL
        .into_iter()
        .filter(|b| *b != BenchId::Reachability) // benign race ⇒ nondeterministic count
        .collect();
    for id in deterministic {
        let eager = HhRuntime::new(HhConfig::eager_heaps(3));
        let expected = eager.run(|ctx| run_timed(ctx, id, p)).checksum;
        assert_eq!(
            eager.check_disentangled(),
            0,
            "{} entangled (eager)",
            id.name()
        );
        assert_eq!(eager.stats().heaps_elided, 0, "{} eager elided", id.name());

        let lazy = HhRuntime::with_workers(3);
        assert_eq!(
            lazy.run(|ctx| run_timed(ctx, id, p)).checksum,
            expected,
            "{}: lazy vs eager checksum",
            id.name()
        );
        assert_eq!(
            lazy.check_disentangled(),
            0,
            "{} entangled (lazy)",
            id.name()
        );
        let s = lazy.stats();
        // Every fork either created heaps (stolen) or elided them; with a tiny scale
        // every benchmark still forks at least once, so elisions must show up.
        assert!(
            s.heaps_elided > 0,
            "{}: lazy policy elided no heaps (created {})",
            id.name(),
            s.heaps_created
        );
        // Conservation: two heap slots per fork, split between created and elided.
        assert_eq!(
            (s.heaps_created - 1 + s.heaps_elided) % 2,
            0,
            "{}: created+elided must cover forks exactly",
            id.name()
        );
    }

    // The bulk/scalar equivalence property holds under the lazy policy too.
    let reference = SeqRuntime::new().run(|ctx| random_op_mix(ctx, 7, false));
    let lazy = HhRuntime::with_workers(3).run(|ctx| random_op_mix(ctx, 7, true));
    assert_eq!(lazy, reference, "lazy bulk vs scalar mismatch");
}

/// The facade's quickstart doc example, kept in sync as a real test.
#[test]
fn facade_quickstart_compiles_and_runs() {
    use hierheap::{ObjPtr, ParCtx};
    let rt = HhRuntime::with_workers(2);
    let value = rt.run(|ctx| {
        let shared = ctx.alloc_ref_ptr(ObjPtr::NULL);
        ctx.join(
            |c| {
                let local = c.alloc_ref_data(41);
                c.write_ptr(shared, 0, local);
            },
            |_| (),
        );
        let p = ctx.read_mut_ptr(shared, 0);
        ctx.read_mut(p, 0) + 1
    });
    assert_eq!(value, 42);
}

// ---------------------------------------------------------------------------
// The baselines' run boundary and per-lane root stacks.
// ---------------------------------------------------------------------------

/// Words of the array the root-stack tests pin: well under their chunk size, so a
/// collection that keeps it copies it.
const PINNED_WORDS: usize = 1_000;

/// Baseline geometry for the root-stack tests: two workers, 4 Ki-word chunks, and a
/// threshold the pinned array alone stays under.
fn small_stw() -> StwRuntime {
    StwRuntime::with_params(2, 4 * 1024, 20_000)
}

/// A baseline returns its memory to the store when its last run ends, as
/// `HhRuntime` does: no chunk stays live, the quarantine is drained, and every
/// chunk ever minted is free.
#[test]
fn baselines_hold_no_live_chunk_after_their_last_run() {
    fn check<R: Runtime>(rt: &R, store_stats: fn(&R) -> StoreStats) {
        let name = rt.name();
        for round in 0..2 {
            let sum = rt.run(|ctx| run_timed(ctx, BenchId::Reduce, tiny()).checksum);
            assert_ne!(sum, 0);
            let s = store_stats(rt);
            assert_eq!(s.live_words, 0, "{name} round {round}: {s:?}");
            assert_eq!(s.quarantined_words, 0, "{name} round {round}: {s:?}");
            assert_eq!(s.active_runs, 0, "{name} round {round}");
            assert_eq!(
                s.chunks_created,
                s.chunks_active + s.chunks_quarantined + s.chunks_free,
                "{name} round {round}: chunk conservation {s:?}"
            );
            assert_eq!(s.chunks_free, s.chunks_created, "{name} round {round}");
            assert_eq!(rt.stats().live_words, 0, "{name} round {round}");
        }
    }
    check(&SeqRuntime::new(), SeqRuntime::store_stats);
    check(&StwRuntime::with_workers(2), StwRuntime::store_stats);
    check(&DlgRuntime::with_workers(2), DlgRuntime::store_stats);
}

/// Two runs of one `StwRuntime` in flight at once share its heap: the first to end
/// leaves the heap live under the other, and the last one out disposes it.
#[test]
fn overlapping_stw_runs_leave_the_shared_heap_to_the_last_one() {
    let rt = StwRuntime::with_workers(2);
    let both_in_flight = std::sync::Barrier::new(2);
    let first_ended = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        s.spawn(|| {
            rt.run(|ctx| {
                let r = ctx.alloc_data_array(64);
                ctx.write_nonptr(r, 0, 1);
                both_in_flight.wait();
            });
            first_ended.wait();
        });
        rt.run(|ctx| {
            let r = ctx.alloc_data_array(64);
            ctx.write_nonptr(r, 0, 2);
            both_in_flight.wait();
            first_ended.wait();
            let s = rt.store_stats();
            assert_eq!(s.active_runs, 1);
            assert!(s.live_words > 0, "the first run out disposed a shared heap");
            assert_eq!(ctx.read_mut(r, 0), 2);
        });
    });
    let s = rt.store_stats();
    assert_eq!(s.active_runs_peak, 2);
    assert_eq!(
        s.live_words, 0,
        "the last run out left the heap live: {s:?}"
    );
    assert_eq!(s.chunks_free, s.chunks_created);
}

/// A pin taken in a stolen branch is a root of a stop-the-world collection that
/// another worker's allocation forces: the pinned array is copied, reads back, and
/// its stale pointer still unpins it.
#[test]
fn pins_in_stolen_branches_survive_a_forced_world_stop() {
    use std::sync::atomic::{AtomicBool, Ordering};
    let rt = small_stw();
    let (started, done) = (AtomicBool::new(false), AtomicBool::new(false));
    rt.run(|ctx| {
        let forker = std::thread::current().id();
        ctx.join(
            |c| {
                // Hold the right branch on the deque until a thief takes it, then
                // keep polling so its collection can stop this worker too.
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
                while !started.load(Ordering::Acquire) {
                    assert!(std::time::Instant::now() < deadline, "no thief came");
                    std::thread::yield_now();
                }
                while !done.load(Ordering::Acquire) {
                    c.maybe_collect();
                    std::thread::yield_now();
                }
            },
            |c| {
                started.store(true, Ordering::Release);
                assert_ne!(std::thread::current().id(), forker, "branch not stolen");
                let keep = c.alloc_data_array(PINNED_WORDS);
                c.write_nonptr(keep, 7, 777);
                c.pin(keep);
                let before = rt.stats().gc_count;
                while rt.stats().gc_count == before {
                    c.alloc_data_array(500);
                }
                assert_eq!(c.read_mut(keep, 7), 777);
                c.unpin(keep);
                done.store(true, Ordering::Release);
            },
        );
    });
    let s = rt.stats();
    assert!(s.gc_count >= 1);
    assert!(
        s.gc_copied_words >= PINNED_WORDS as u64,
        "the stolen branch's pin was no root: {} words copied",
        s.gc_copied_words
    );
}

/// A branch's pins go with its context: a pin it never released is no root of a
/// later collection in its parent.
#[test]
fn a_pin_left_by_a_finished_branch_is_no_root() {
    let rt = small_stw();
    rt.run(|ctx| {
        ctx.join(
            |c| {
                let left_behind = c.alloc_data_array(PINNED_WORDS);
                c.pin(left_behind);
            },
            |_| (),
        );
        while rt.stats().gc_count == 0 {
            ctx.alloc_data_array(500);
            ctx.maybe_collect();
        }
    });
    let s = rt.stats();
    assert!(
        s.gc_copied_words < PINNED_WORDS as u64,
        "a finished branch's pin kept its array: {} words copied",
        s.gc_copied_words
    );
}
