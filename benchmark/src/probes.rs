//! Per-layer unit costs: tight loops over each crate's public functions, in the
//! style of the paper's Fig. 8. Run by the traced run only.
//!
//! Every probe times [`BATCHES`] batches of a fixed number of operations and
//! reports the median batch, in nanoseconds per operation. The inputs are
//! fixed (a unit cost has no workload seed), and each probe builds what it
//! needs and drops it, so probes do not warm each other's caches.

use crate::programs::{self, Program};
use crate::report::Measured;
use crate::stats::median;
use hh_api::{ObjKind, ObjPtr, ParCtx, Runtime};
use hh_baselines::SeqRuntime;
use hh_heaps::{HeapRegistry, HeapRwLock};
use hh_objmodel::{ChunkStore, Header, RunEpochs};
use hh_runtime::{HhConfig, HhRuntime};
use hh_sched::Pool;
use hh_server::BoundedQueue;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const BATCHES: usize = 5;
const CHUNK_WORDS: usize = 8 * 1024;

/// Median over batches of `batch()`'s elapsed time, per operation.
fn per_op(ops: u64, mut batch: impl FnMut() -> Duration) -> f64 {
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| batch().as_nanos() as f64 / ops as f64)
        .collect();
    median(&samples).expect("BATCHES > 0")
}

/// Times `ops` calls of `op`.
fn time_ops(ops: u64, mut op: impl FnMut()) -> Duration {
    let t0 = Instant::now();
    for _ in 0..ops {
        op();
    }
    t0.elapsed()
}

/// Per-operation cost of `op`: `ops` calls per batch, median batch.
fn cost(ops: u64, mut op: impl FnMut()) -> f64 {
    per_op(ops, || time_ops(ops, &mut op))
}

fn small() -> Header {
    Header::new(2, 1, ObjKind::Ref)
}

fn objmodel(m: &mut Measured) {
    // Fresh chunks: a new store per batch, so every request mints.
    m.set(
        "objmodel.chunk_mint_ns",
        per_op(256, || {
            let store = ChunkStore::new(CHUNK_WORDS);
            let t0 = Instant::now();
            for _ in 0..256 {
                black_box(store.alloc_chunk(1, 1));
            }
            t0.elapsed()
        }),
    );
    // Recycled chunks: acquire, retire, pass the watermark — the steady state
    // of a server whose runs hand chunks to one another.
    let store = ChunkStore::new(CHUNK_WORDS);
    m.set(
        "objmodel.chunk_acquire_ns",
        cost(20_000, || {
            let c = store.alloc_chunk(1, 1);
            store.retire_chunk(c.id());
            black_box(store.reclaim_watermark());
        }),
    );
    // Bump allocation inside a chunk; the chunk turnover is not timed.
    m.set(
        "objmodel.alloc_in_chunk_ns",
        per_op(1, || {
            let (mut spent, mut n) = (Duration::ZERO, 0u32);
            while n < 100_000 {
                let c = store.alloc_chunk(1, 1);
                let t0 = Instant::now();
                while store.alloc_in_chunk(&c, small()).is_some() {
                    n += 1;
                }
                spent += t0.elapsed();
                store.retire_chunk(c.id());
                store.reclaim_watermark();
            }
            spent / n
        }),
    );
    let epochs = RunEpochs::new();
    m.set(
        "objmodel.epoch_begin_end_ns",
        cost(100_000, || {
            let e = epochs.begin();
            epochs.end(e);
        }),
    );
}

fn heaps(m: &mut Measured) {
    let store = Arc::new(ChunkStore::new(CHUNK_WORDS));
    let reg = HeapRegistry::new(Arc::clone(&store));
    m.set(
        "heaps.alloc_obj_ns",
        per_op(100_000, || {
            let root = reg.new_root_heap();
            let d = time_ops(100_000, || {
                black_box(reg.alloc_obj(root, small()));
            });
            reg.dispose_subtree(root);
            store.reclaim_retired();
            d
        }),
    );
    m.set(
        "heaps.batch_alloc_ns",
        per_op(100_000, || {
            let root = reg.new_root_heap();
            let d = {
                let mut cursor = reg.heap(root).batch_alloc(&store);
                time_ops(100_000, || {
                    black_box(cursor.alloc(small()));
                })
            };
            reg.dispose_subtree(root);
            store.reclaim_retired();
            d
        }),
    );
    let root = reg.new_root_heap();
    m.set(
        "heaps.child_join_ns",
        cost(20_000, || {
            let child = reg.new_child_heap(root);
            reg.join_heap(root, child);
        }),
    );
    let obj = reg.alloc_obj(root, small());
    m.set(
        "heaps.heap_of_ns",
        cost(500_000, || {
            black_box(reg.heap_of(black_box(obj)));
        }),
    );
    let deep = (0..8).fold(root, |h, _| reg.new_child_heap(h));
    m.set(
        "heaps.is_ancestor_ns",
        cost(500_000, || {
            black_box(reg.is_ancestor_or_self(black_box(root), black_box(deep)));
        }),
    );
    let lock = HeapRwLock::new();
    m.set(
        "heaps.rwlock_shared_ns",
        cost(500_000, || {
            lock.lock_shared();
            lock.unlock_shared();
        }),
    );
    m.set(
        "heaps.rwlock_exclusive_ns",
        cost(500_000, || {
            lock.lock_exclusive();
            lock.unlock_exclusive();
        }),
    );
}

/// A fork whose left arm cannot finish until its right arm has run, so the
/// right arm has to be stolen: the cost of a steal-and-handshake.
fn stolen_join(join: impl FnOnce(&(dyn Fn() + Sync), &(dyn Fn() + Sync))) {
    let flag = AtomicBool::new(false);
    join(
        &|| {
            let mut spins = 0u32;
            while !flag.load(Ordering::Acquire) {
                spins += 1;
                if spins.is_multiple_of(64) {
                    // One core: let the thief run.
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
        },
        &|| flag.store(true, Ordering::Release),
    );
}

fn sched(m: &mut Measured) {
    let one = Pool::new(1);
    m.set(
        "sched.join_unstolen_ns",
        per_op(200_000, || {
            one.run(|w| {
                time_ops(200_000, || {
                    black_box(w.join(|| black_box(1u64), || black_box(2u64)));
                })
            })
        }),
    );
    drop(one);
    let two = Pool::new(2);
    m.set(
        "sched.join_stolen_ns",
        per_op(5_000, || {
            two.run(|w| {
                time_ops(5_000, || {
                    stolen_join(|left, right| {
                        w.join(left, right);
                    })
                })
            })
        }),
    );
    m.set(
        "sched.pool_run_ns",
        cost(5_000, || {
            two.run(|_| ());
        }),
    );
}

/// One-worker runtime with eager per-fork heaps: every `join` arm owns a child
/// heap, so ancestor and promoting writes happen deterministically.
fn eager() -> HhRuntime {
    HhRuntime::new(HhConfig {
        check_invariants: false,
        ..HhConfig::eager_heaps(1)
    })
}

fn core_ops(m: &mut Measured) {
    const OPS: u64 = 200_000;
    let rt = HhRuntime::with_workers(1);
    // Allocation: every batch is a run of its own, after one discarded batch,
    // so chunks are recycled as in the workloads' measured reps (which mint
    // none). Batches inside one run would mint every chunk, and the price of
    // fresh pages swings 1–5 ns/word with the state of the process's memory.
    let small = || {
        rt.run(|ctx| {
            time_ops(100_000, || {
                black_box(ctx.alloc(1, 1, ObjKind::Ref));
            })
        })
    };
    small();
    m.set("core.alloc_ns", per_op(100_000, small));
    let array = || {
        rt.run(|ctx| {
            time_ops(400, || {
                black_box(ctx.alloc_data_array(1024));
            })
        })
    };
    array();
    m.set("core.alloc_array_ns_per_word", per_op(400 * 1024, array));
    // Each run returns its (name, ns) pairs; `Measured` stays on this thread.
    let local: Vec<(&'static str, f64)> = rt.run(|ctx| {
        let obj = ctx.alloc(1, 3, ObjKind::Ref);
        let target = ctx.alloc_ref_data(1);
        let arr = ctx.alloc_data_array(4096);
        let dst = ctx.alloc_data_array(4096);
        let mut buf = vec![0u64; 4096];
        let mut acc = 0u64;
        let out = vec![
            (
                "core.read_imm_ns",
                cost(OPS, || {
                    acc = acc.wrapping_add(ctx.read_imm(black_box(obj), 2))
                }),
            ),
            (
                "core.read_mut_ns",
                cost(OPS, || {
                    acc = acc.wrapping_add(ctx.read_mut(black_box(obj), 2))
                }),
            ),
            (
                "core.write_nonptr_ns",
                cost(OPS, || ctx.write_nonptr(black_box(obj), 2, 7)),
            ),
            (
                "core.cas_nonptr_ns",
                per_op(OPS, || {
                    ctx.write_nonptr(obj, 3, 0);
                    let mut cur = 0u64;
                    time_ops(OPS, || {
                        cur = match ctx.cas_nonptr(obj, 3, cur, cur + 1) {
                            Ok(_) => cur + 1,
                            Err(seen) => seen,
                        };
                    })
                }),
            ),
            (
                "core.write_ptr_fast_ns",
                cost(OPS, || ctx.write_ptr(black_box(obj), 0, target)),
            ),
            (
                "core.bulk_read_ns_per_word",
                per_op(2_000 * 4096, || {
                    time_ops(2_000, || ctx.read_mut_bulk(arr, 0, &mut buf))
                }),
            ),
            (
                "core.bulk_write_ns_per_word",
                per_op(2_000 * 4096, || {
                    time_ops(2_000, || ctx.write_nonptr_bulk(arr, 0, &buf))
                }),
            ),
            (
                "core.copy_ns_per_word",
                per_op(2_000 * 4096, || {
                    time_ops(2_000, || ctx.copy_nonptr(arr, 0, dst, 0, 4096))
                }),
            ),
            (
                "core.join_unstolen_ns",
                cost(OPS, || {
                    black_box(ctx.join(|_| black_box(1u64), |_| black_box(2u64)));
                }),
            ),
            (
                "core.pin_unpin_ns",
                cost(OPS, || {
                    ctx.pin(obj);
                    ctx.unpin(obj);
                }),
            ),
            (
                "core.maybe_collect_idle_ns",
                cost(OPS, || ctx.maybe_collect()),
            ),
        ];
        black_box(acc);
        out
    });
    for (name, ns) in local {
        m.set(name, ns);
    }

    // Distant and promoted objects need child heaps.
    let rt = eager();
    let distant: Vec<(&'static str, f64)> = rt.run(|ctx| {
        let obj = ctx.alloc(1, 3, ObjKind::Ref);
        let sibling = ctx.alloc_ref_data(1);
        let holder = ctx.alloc_ref_ptr(ObjPtr::NULL);
        let (mut rows, stale) = ctx
            .join(
                |c| {
                    let rows = vec![
                        (
                            // Object in an ancestor heap, pointee at the same depth:
                            // master lookup and depth comparison, no promotion.
                            "core.write_ptr_ancestor_ns",
                            cost(OPS, || c.write_ptr(black_box(obj), 0, sibling)),
                        ),
                        (
                            // A fresh local object published into the ancestor:
                            // allocation plus a one-object promotion.
                            "core.write_ptr_promoting_ns",
                            cost(20_000, || {
                                let fresh = c.alloc_ref_data(1);
                                c.write_ptr(holder, 0, fresh);
                            }),
                        ),
                    ];
                    let stale = c.alloc(1, 3, ObjKind::Ref);
                    c.write_ptr(holder, 0, stale);
                    (rows, stale)
                },
                |_| (),
            )
            .0;
        // `stale` now carries a forwarding pointer to its master copy.
        let mut acc = 0u64;
        rows.push((
            "core.read_mut_promoted_ns",
            cost(OPS, || {
                acc = acc.wrapping_add(ctx.read_mut(black_box(stale), 2))
            }),
        ));
        rows.push((
            "core.write_nonptr_promoted_ns",
            cost(OPS, || ctx.write_nonptr(black_box(stale), 2, 7)),
        ));
        black_box(acc);
        rows
    });
    for (name, ns) in distant {
        m.set(name, ns);
    }

    // The incremental barrier's standing cost: collector on, no window open.
    let rt = HhRuntime::new(HhConfig::incremental(1));
    let ns = rt.run(|ctx| {
        let obj = ctx.alloc(1, 3, ObjKind::Ref);
        cost(OPS, || ctx.write_nonptr(black_box(obj), 2, 7))
    });
    m.set("core.write_nonptr_inc_ns", ns);

    // Promotion of a cons chain, per object: each repetition is its own run,
    // so the chain is never already promoted.
    let rt = eager();
    for (name, len, reps) in [
        ("core.promote64_ns_per_obj", 64usize, 400u64),
        ("core.promote1024_ns_per_obj", 1024, 40),
    ] {
        let ns = per_op(reps * len as u64, || {
            (0..reps)
                .map(|_| {
                    rt.run(|ctx| {
                        let holder = ctx.alloc_ref_ptr(ObjPtr::NULL);
                        ctx.join(
                            |c| {
                                let head = (0..len).fold(ObjPtr::NULL, |tail, k| {
                                    c.alloc_cons(ObjPtr::NULL, tail, k as u64)
                                });
                                let t0 = Instant::now();
                                c.write_ptr(holder, 0, head);
                                t0.elapsed()
                            },
                            |_| (),
                        )
                        .0
                    })
                })
                .sum()
        });
        m.set(name, ns);
    }

    // Steal-and-handshake through the runtime's `join` (child heap included),
    // and the empty run a server pays per request.
    let rt = HhRuntime::with_workers(2);
    let ns = per_op(5_000, || {
        rt.run(|ctx| {
            time_ops(5_000, || {
                stolen_join(|left, right| {
                    ctx.join(|_| left(), |_| right());
                })
            })
        })
    });
    m.set("core.join_stolen_ns", ns);
    let rt = HhRuntime::with_workers(crate::host::workers());
    m.set("core.run_boundary_ns", cost(5_000, || rt.run(|_| ())));
}

fn baselines(m: &mut Measured) {
    const OPS: u64 = 200_000;
    let rt = SeqRuntime::new();
    let rows: Vec<(&'static str, f64)> = rt.run(|ctx| {
        let obj = ctx.alloc(1, 3, ObjKind::Ref);
        let target = ctx.alloc_ref_data(1);
        let mut acc = 0u64;
        let rows = vec![
            (
                "baselines.seq_alloc_ns",
                cost(100_000, || {
                    black_box(ctx.alloc(1, 1, ObjKind::Ref));
                }),
            ),
            (
                "baselines.seq_read_mut_ns",
                cost(OPS, || {
                    acc = acc.wrapping_add(ctx.read_mut(black_box(obj), 2))
                }),
            ),
            (
                "baselines.seq_write_ptr_ns",
                cost(OPS, || ctx.write_ptr(black_box(obj), 0, target)),
            ),
            (
                "baselines.seq_join_ns",
                cost(OPS, || {
                    black_box(ctx.join(|_| black_box(1u64), |_| black_box(2u64)));
                }),
            ),
        ];
        black_box(acc);
        rows
    });
    for (name, ns) in rows {
        m.set(name, ns);
    }
}

/// Median kernel time of `prog` on `rt` after one warm-up, with the last rep's
/// statistics.
fn kernel_probe(rt: &HhRuntime, prog: Program, n: usize) -> (f64, hh_api::RunStats) {
    let mut ns = Vec::new();
    let mut stats = rt.stats();
    for i in 0..4 {
        let out = rt.run(|ctx| programs::execute(ctx, prog, n, 1, || rt.reset_stats(), || ()));
        stats = rt.stats();
        if i > 0 {
            ns.push((out.kernel_end - out.kernel_start).as_nanos() as f64);
        }
    }
    (median(&ns).expect("three reps"), stats)
}

/// The two `BENCH_pr8.json` rows kept as unit costs of the workload layer.
fn workloads(m: &mut Measured) {
    if !m.has("workloads.wavefront_ns_per_cell") {
        let rt = HhRuntime::with_workers(crate::host::workers());
        let (ns, _) = kernel_probe(&rt, Program::Wavefront, 192);
        m.set(
            "workloads.wavefront_ns_per_cell",
            ns / programs::wavefront_cells(192) as f64,
        );
    }
    // Eager heaps make the promotion volume schedule-independent.
    let (ns, stats) = kernel_probe(&eager(), Program::Entangle, 4_000);
    m.set(
        "workloads.entangle_promote_ns_per_obj",
        ns / stats.promoted_objects.max(1) as f64,
    );
}

fn server(m: &mut Measured) {
    let q: BoundedQueue<u64> = BoundedQueue::new(64);
    m.set(
        "server.queue_push_pop_ns",
        cost(200_000, || {
            let _ = q.push(black_box(1));
            black_box(q.pop());
        }),
    );
}

/// Runs the whole probe set into `m`.
pub fn run(m: &mut Measured) {
    objmodel(m);
    heaps(m);
    sched(m);
    core_ops(m);
    baselines(m);
    workloads(m);
    server(m);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Checks;
    use crate::trace::Tracer;

    #[test]
    fn per_op_is_the_median_batch_over_its_operation_count() {
        let mut durations = [50u64, 10, 30, 20, 40].into_iter();
        let ns = per_op(10, || Duration::from_nanos(durations.next().unwrap()));
        assert_eq!(ns, 3.0);
    }

    #[test]
    fn a_stolen_join_runs_both_arms_even_sequentially_reversed() {
        // The right arm first, as a thief would: the left arm then returns.
        let order = std::sync::Mutex::new(Vec::new());
        stolen_join(|left, right| {
            right();
            order.lock().unwrap().push("right");
            left();
            order.lock().unwrap().push("left");
        });
        assert_eq!(*order.lock().unwrap(), ["right", "left"]);
    }

    /// Every probe yields a positive cost under a schema name (`set` asserts
    /// the name in debug builds).
    #[test]
    fn every_probe_reports_a_positive_cost() {
        let mut m = Measured::new(Checks::default(), Tracer::new(false, Instant::now(), 0));
        run(&mut m);
        for l in crate::schema::LAYERS.iter().filter(|l| m.has(l.name)) {
            assert!(m.get(l.name) > 0.0, "{} = {}", l.name, m.get(l.name));
        }
        for name in [
            "objmodel.chunk_acquire_ns",
            "heaps.child_join_ns",
            "sched.join_stolen_ns",
            "core.write_ptr_promoting_ns",
            "core.run_boundary_ns",
            "baselines.seq_join_ns",
            "workloads.entangle_promote_ns_per_obj",
            "server.queue_push_pop_ns",
        ] {
            assert!(m.has(name), "{name} missing");
        }
    }
}
