//! A Doligez–Leroy–Gonthier / Manticore-style baseline: per-worker local heaps, a
//! shared global heap, and eager promotion of data that escapes a local heap.
//!
//! The policy modelled here (see §6 of the paper and DESIGN.md):
//!
//! * ordinary allocation goes to the allocating *worker's* local heap;
//! * storing a pointer into an object that lives in the global heap first promotes the
//!   pointee — and everything reachable from it — into the global heap (the DLG
//!   invariant forbids global→local pointers);
//! * tasks created by a *steal* allocate directly in the global heap, modelling
//!   Manticore's promotion of data communicated between processors (task results,
//!   scheduler cells). The volume of such allocation is reported as promotion volume,
//!   which is what the paper's §4.4 measurement ("manticore promoted nearly 340 MB of
//!   data on `map`") compares against.
//! * collection is stop-the-world over all heaps (a simplification — Manticore collects
//!   local heaps independently — that does not affect the promotion-cost comparison this
//!   baseline exists for; the paper does not report Manticore GC percentages either).

use crate::common::{resolve_tracked, FlatHeap, OWNER_GLOBAL};
use crate::flat::{FlatCtx, FlatRuntime, Policy, Pooled};
use hh_api::CounterShard;
use hh_objmodel::{ChunkId, ChunkStore, Header, ObjPtr};
use parking_lot::Mutex;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// The DLG policy: a local heap per worker plus the global heap.
pub struct Dlg {
    global: FlatHeap,
    locals: Vec<FlatHeap>,
    promote_lock: Mutex<()>,
}

/// The DLG / Manticore-style baseline runtime.
pub type DlgRuntime = FlatRuntime<Dlg>;

/// Per-task context of the DLG baseline.
pub type DlgCtx = FlatCtx<Dlg>;

fn is_global(store: &ChunkStore, obj: ObjPtr) -> bool {
    store.chunk_owner(obj) == OWNER_GLOBAL
}

impl Dlg {
    /// Transitively copies `root` into the global heap, installing forwarding pointers,
    /// and returns the address of the global copy. Serialized by `promote_lock`.
    ///
    /// Each copy is filled before its forwarding pointer is installed, so the
    /// pointer's `Release` store publishes a complete copy to any reader that
    /// resolves through it. Still open (DESIGN.md, "Baselines: one context, three
    /// policies"): a writer that resolved to the old object before the install can
    /// store there after the fill, and that write is lost.
    pub(crate) fn promote_to_global(
        &self,
        store: &ChunkStore,
        counters: &CounterShard,
        lane: usize,
        root: ObjPtr,
    ) -> ObjPtr {
        if root.is_null() {
            return ObjPtr::NULL;
        }
        let _guard = self.promote_lock.lock();
        counters.promotions.fetch_add(1, Ordering::Relaxed);
        let mut pending: Vec<ObjPtr> = Vec::new();
        let forward = |mut cur: ObjPtr, pending: &mut Vec<ObjPtr>| -> ObjPtr {
            while !cur.is_null() && !is_global(store, cur) {
                let v = store.view(cur);
                if v.has_fwd() {
                    cur = v.fwd();
                    continue;
                }
                let header = v.header();
                let copy = self.global.alloc(lane, header);
                let cv = store.view(copy);
                for f in 0..header.n_fields() {
                    cv.set_field(f, v.field(f));
                }
                v.set_fwd(copy);
                counters.promoted_objects.fetch_add(1, Ordering::Relaxed);
                counters
                    .promoted_words
                    .fetch_add(header.size_words() as u64, Ordering::Relaxed);
                pending.push(copy);
                return copy;
            }
            cur
        };
        let result = forward(root, &mut pending);
        while let Some(copy) = pending.pop() {
            let v = store.view(copy);
            for f in 0..v.n_ptr() {
                v.set_field_ptr(f, forward(v.field_ptr(f), &mut pending));
            }
        }
        result
    }
}

impl Policy for Dlg {
    type Exec = Pooled;
    const NAME: &'static str = "dlg";
    const OWNER: u32 = OWNER_GLOBAL;

    fn new(store: &Arc<ChunkStore>, n_workers: usize) -> Dlg {
        Dlg {
            global: FlatHeap::new(Arc::clone(store), OWNER_GLOBAL, n_workers),
            locals: (0..n_workers)
                .map(|w| FlatHeap::new(Arc::clone(store), w as u32, 1))
                .collect(),
            promote_lock: Mutex::new(()),
        }
    }

    fn heap(&self) -> &FlatHeap {
        &self.global
    }

    #[inline]
    fn alloc(&self, counters: &CounterShard, lane: usize, stolen: bool, header: Header) -> ObjPtr {
        if stolen {
            // Communicated-task allocation: counts as promotion volume.
            counters
                .promoted_words
                .fetch_add(header.size_words() as u64, Ordering::Relaxed);
            counters.promoted_objects.fetch_add(1, Ordering::Relaxed);
            self.global.alloc(lane, header)
        } else {
            self.locals[lane].alloc(0, header)
        }
    }

    #[inline]
    fn write_barrier(
        &self,
        store: &ChunkStore,
        counters: &CounterShard,
        lane: usize,
        obj: ObjPtr,
        ptr: ObjPtr,
    ) -> ObjPtr {
        if ptr.is_null() {
            return ptr;
        }
        let ptr = resolve_tracked(store, counters, ptr);
        // The DLG invariant: no pointers from the global heap into a local heap.
        if is_global(store, obj) && !is_global(store, ptr) {
            self.promote_to_global(store, counters, lane, ptr)
        } else {
            ptr
        }
    }

    #[inline]
    fn allocated_words(&self) -> usize {
        let locals: usize = self.locals.iter().map(FlatHeap::allocated_words).sum();
        self.global.allocated_words() + locals
    }

    fn zone(&self) -> Vec<ChunkId> {
        let mut zone = self.global.chunks();
        for local in &self.locals {
            zone.extend(local.chunks());
        }
        zone
    }

    fn install(&self, new_chunks: Vec<ChunkId>, occupied_words: usize) {
        // Survivors all land in the global heap; local heaps restart empty.
        self.global.replace_chunks(new_chunks, occupied_words);
        for local in &self.locals {
            local.replace_chunks(Vec::new(), 0);
        }
    }

    fn dispose(&self) {
        self.global.dispose();
        for local in &self.locals {
            local.dispose();
        }
    }

    fn heaps(&self) -> u64 {
        1 + self.locals.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hh_api::{ParCtx, Runtime};
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn local_allocation_and_global_write_barrier() {
        let rt = DlgRuntime::with_workers(2);
        let v = rt.run(|ctx| {
            // A ref allocated by the root task lives in a local heap; move it to the
            // global heap by making it reachable from a global object first.
            let global_cell = ctx.alloc_ref_ptr(ObjPtr::NULL);
            let (_, _) = ctx.join(
                |c| {
                    let payload = c.alloc_ref_data(31);
                    c.write_ptr(global_cell, 0, payload);
                },
                |_| (),
            );
            let p = ctx.read_mut_ptr(global_cell, 0);
            ctx.read_mut(p, 0)
        });
        assert_eq!(v, 31);
    }

    #[test]
    fn writes_into_global_objects_promote_transitively() {
        let rt = DlgRuntime::with_workers(1);
        rt.run(|ctx| {
            // Build a global array by promoting: first allocate locally, then force it
            // global by writing it into an object we make global via stolen allocation…
            // Simpler: allocate a chain locally and write it into a cell that is already
            // global because it was itself promoted.
            let cell = ctx.alloc_ref_ptr(ObjPtr::NULL);
            let holder = ctx.alloc_ref_ptr(ObjPtr::NULL);
            // Make `holder` global by promoting it through a write into `cell` after
            // `cell` is promoted… to bootstrap, promote `cell` directly:
            let promoted_cell = rt_inner_promote(&rt, cell);
            // Now a write of a local chain into the (global) promoted cell must promote
            // the whole chain.
            let mut chain = ObjPtr::NULL;
            for i in 0..5u64 {
                chain = ctx.alloc_cons(ObjPtr::NULL, chain, i);
            }
            ctx.write_ptr(promoted_cell, 0, chain);
            let mut cur = ctx.read_mut_ptr(promoted_cell, 0);
            let mut count = 0;
            while !cur.is_null() {
                count += 1;
                cur = ctx.read_imm_ptr(cur, 1);
            }
            assert_eq!(count, 5);
            let _ = holder;
        });
        let s = rt.stats();
        assert!(
            s.promoted_objects >= 5,
            "chain must have been promoted, saw {}",
            s.promoted_objects
        );
    }

    // Test helper: reach into the runtime to promote an object to the global heap.
    fn rt_inner_promote(rt: &DlgRuntime, obj: ObjPtr) -> ObjPtr {
        let inner = &rt.inner;
        inner
            .policy
            .promote_to_global(&inner.store, inner.counters.shard(None), 0, obj)
    }

    #[test]
    fn parallel_reduction_is_correct_and_counts_stolen_allocation() {
        let rt = DlgRuntime::with_workers(4);
        let total = rt.run(|ctx| {
            fn build<C: ParCtx>(c: &C, lo: u64, hi: u64) -> u64 {
                if hi - lo <= 32 {
                    let arr = c.alloc_data_array((hi - lo) as usize);
                    for (k, i) in (lo..hi).enumerate() {
                        c.write_nonptr(arr, k, hh_api::hash64(i) % 1000);
                    }
                    (0..(hi - lo) as usize).map(|k| c.read_mut(arr, k)).sum()
                } else {
                    let mid = lo + (hi - lo) / 2;
                    let (a, b) = c.join(|c| build(c, lo, mid), |c| build(c, mid, hi));
                    a + b
                }
            }
            build(ctx, 0, 2048)
        });
        let expected: u64 = (0..2048u64).map(|i| hh_api::hash64(i) % 1000).sum();
        assert_eq!(total, expected);
    }

    #[test]
    fn stop_the_world_collection_preserves_pinned_data() {
        let rt = DlgRuntime::with_params(2, 256, 20_000);
        rt.run(|ctx| {
            let keep = ctx.alloc_ref_data(9);
            ctx.pin(keep);
            for _ in 0..300 {
                let _g = ctx.alloc_data_array(100);
            }
            assert_eq!(ctx.read_mut(keep, 0), 9);
        });
        assert!(rt.stats().gc_count >= 1);
    }

    /// Regression: a promoted copy is filled before its forwarding pointer
    /// publishes it. One branch promotes `N` local arrays (every field `k + 1`)
    /// one at a time through a global cell while its sibling — stolen whenever a
    /// second worker is free — reads the last field of the array being promoted.
    /// With the old publish-then-fill order that read could resolve to the
    /// zeroed copy. Wide objects make the window the whole fill, not one store.
    #[test]
    fn promoted_copies_are_filled_before_they_are_published() {
        const N: usize = 20_000;
        const W: usize = 32;
        let rt = DlgRuntime::with_workers(hh_api::env_workers(4).max(2));
        rt.run(|ctx| {
            let objs: Vec<ObjPtr> = (1..=N as u64)
                .map(|k| {
                    let a = ctx.alloc_data_array(W);
                    ctx.fill_nonptr(a, 0, W, k);
                    a
                })
                .collect();
            let cell = rt_inner_promote(&rt, ctx.alloc_ref_ptr(ObjPtr::NULL));
            let next = AtomicUsize::new(0);
            ctx.join(
                |c| {
                    for (k, &obj) in objs.iter().enumerate() {
                        next.store(k, Ordering::Release);
                        c.write_ptr(cell, 0, obj);
                    }
                    next.store(N, Ordering::Release);
                },
                |c| loop {
                    let k = next.load(Ordering::Acquire);
                    if k >= N {
                        break;
                    }
                    let v = c.read_mut(objs[k], W - 1);
                    assert_eq!(v, k as u64 + 1, "unfilled promoted copy of object {k}");
                },
            );
        });
    }
}
