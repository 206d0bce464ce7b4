//! Regression tests for the promotion lock path's allocation behaviour
//! (promotion v2): `write_promote` must reuse one per-worker scratch-buffer set
//! instead of allocating fresh `Vec`s per promotion, and the unstolen fast path
//! must not touch the promotion machinery at all.
//!
//! The measurement is the `promo_buf_allocs` counter, which the runtime bumps
//! whenever a promotion pass created **or grew** a lock-path scratch buffer (the
//! capacities are compared before/after each pass, so any per-promotion `Vec`
//! allocation would register on every single promotion).

use hh_api::{ObjKind, ObjPtr, ParCtx, Runtime};
use hh_runtime::{HhConfig, HhRuntime};

/// One promoting write: a child (owning a fresh heap under the eager config) builds
/// a chain of `chain_len` objects and publishes it into a parent-heap ref.
fn promote_once<C: ParCtx>(ctx: &C, chain_len: usize) {
    let holder = ctx.alloc_ref_ptr(ObjPtr::NULL);
    ctx.join(
        |c| {
            let mut head = ObjPtr::NULL;
            for k in 0..chain_len {
                head = c.alloc_cons(ObjPtr::NULL, head, k as u64);
            }
            c.write_ptr(holder, 0, head);
        },
        |_| (),
    );
}

#[test]
fn unstolen_fast_path_performs_zero_lock_path_allocations() {
    // One worker, lazy heaps: no fork is ever stolen, every branch runs in the
    // parent's heap, and every pointer write takes the allocation-free fast path.
    let rt = HhRuntime::new(HhConfig::with_workers(1));
    rt.run(|ctx| {
        let target = ctx.alloc_ref_data(7);
        ctx.join(
            |c| {
                let obj = c.alloc(1, 1, ObjKind::Ref);
                for _ in 0..10_000 {
                    c.write_ptr(obj, 0, target);
                }
            },
            |_| (),
        );
    });
    let s = rt.stats();
    assert_eq!(
        s.promotions, 0,
        "unstolen same-heap writes must not promote"
    );
    assert_eq!(
        s.promo_buf_allocs, 0,
        "the fast path must never touch the promotion scratch buffers"
    );
}

#[test]
fn bulk_copy_path_reuses_the_thread_local_staging_buffer() {
    // `copy_nonptr` stages the source slice through a per-worker thread-local
    // buffer between its two lock scopes (GC v2 satellite; it used to allocate a
    // fresh `vec![0u64; len]` per call). Growth is accounted to the shared
    // scratch-buffer counter, so the steady state must report zero.
    let rt = HhRuntime::new(HhConfig::with_workers(1));
    // Warm-up: the first copy on the worker thread sizes the buffer.
    rt.run(|ctx| {
        let a = ctx.alloc_data_array(512);
        let b = ctx.alloc_data_array(512);
        ctx.copy_nonptr(a, 0, b, 0, 512);
    });
    rt.reset_stats();
    rt.run(|ctx| {
        let a = ctx.alloc_data_array(512);
        let b = ctx.alloc_data_array(512);
        for k in 0..1_000u64 {
            ctx.write_nonptr(a, (k % 512) as usize, k);
            ctx.copy_nonptr(a, 0, b, 0, 512);
            ctx.copy_nonptr(b, 0, a, 0, 257); // shorter lengths reuse the same buffer
        }
        assert_eq!(ctx.read_mut(b, 0), ctx.read_mut(a, 0));
    });
    let s = rt.stats();
    assert!(s.bulk_ops >= 2_000, "copies must be counted as bulk ops");
    assert_eq!(
        s.promo_buf_allocs, 0,
        "steady-state bulk copies allocated staging buffers"
    );
}

#[test]
fn repeated_promotions_reuse_the_per_worker_buffers() {
    let rt = HhRuntime::new(HhConfig::eager_heaps(1));
    // Warm-up: the first promotions on each worker thread may create / grow the
    // thread's scratch buffers (bounded by the largest lock path + worklist seen).
    rt.run(|ctx| {
        for _ in 0..4 {
            promote_once(ctx, 32);
        }
    });
    let warmed = rt.stats().promo_buf_allocs;
    rt.reset_stats();

    // Steady state: hundreds of promotions of the same shape must perform zero
    // further lock-path allocations.
    rt.run(|ctx| {
        for _ in 0..400 {
            promote_once(ctx, 32);
        }
    });
    let s = rt.stats();
    assert!(
        s.promotions >= 400,
        "every publish must promote under eager heaps (saw {})",
        s.promotions
    );
    assert_eq!(
        s.promo_buf_allocs, 0,
        "steady-state promotions allocated lock-path buffers (warm-up did {warmed})"
    );
}
