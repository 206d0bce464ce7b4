//! The `mlton-spoonhower` baseline: parallel fork/join execution and parallel
//! allocation, but *sequential, stop-the-world* garbage collection.
//!
//! All workers allocate into one shared global heap through per-worker allocation lanes.
//! When the heap exceeds its threshold, the allocating worker requests a collection
//! through [`hh_sched::Safepoints`]: every other worker parks at its next safe point
//! (allocations, mutable accesses, fork/join boundaries, and the scheduler's idle / help
//! loops all poll), and the collection runs while the world is stopped — on a team of
//! the parked workers since GC v2, but still a pause every processor pays for. This
//! reproduces the property the paper's speedup comparison hinges on.

use crate::common::{FlatHeap, OWNER_GLOBAL};
use crate::flat::{FlatCtx, FlatRuntime, Policy, Pooled};
use hh_objmodel::ChunkStore;
use std::sync::Arc;

/// The stop-the-world policy: one shared heap with a lane per worker.
pub struct Stw {
    heap: FlatHeap,
}

impl Policy for Stw {
    type Exec = Pooled;
    const NAME: &'static str = "stw";
    const OWNER: u32 = OWNER_GLOBAL;

    fn new(store: &Arc<ChunkStore>, n_workers: usize) -> Stw {
        Stw {
            heap: FlatHeap::new(Arc::clone(store), OWNER_GLOBAL, n_workers),
        }
    }

    fn heap(&self) -> &FlatHeap {
        &self.heap
    }
}

/// The stop-the-world parallel baseline runtime.
pub type StwRuntime = FlatRuntime<Stw>;

/// Per-task context of the stop-the-world baseline.
pub type StwCtx = FlatCtx<Stw>;

#[cfg(test)]
mod tests {
    use super::*;
    use hh_api::{ParCtx, Runtime};
    use hh_objmodel::ObjPtr;

    #[test]
    fn parallel_sum_with_shared_mutation() {
        let rt = StwRuntime::with_workers(4);
        let total = rt.run(|ctx| {
            fn sum<C: ParCtx>(c: &C, lo: u64, hi: u64) -> u64 {
                if hi - lo <= 64 {
                    (lo..hi).map(hh_api::hash64).fold(0u64, u64::wrapping_add)
                } else {
                    let mid = lo + (hi - lo) / 2;
                    let (a, b) = c.join(|c| sum(c, lo, mid), |c| sum(c, mid, hi));
                    a.wrapping_add(b)
                }
            }
            sum(ctx, 0, 4096)
        });
        let expected = (0..4096u64)
            .map(hh_api::hash64)
            .fold(0u64, u64::wrapping_add);
        assert_eq!(total, expected);
    }

    #[test]
    fn stop_the_world_collections_happen_under_allocation_pressure() {
        let rt = StwRuntime::with_params(4, 256, 20_000);
        rt.run(|ctx| {
            fn churn<C: ParCtx>(c: &C, depth: usize, keep: ObjPtr) {
                if depth == 0 {
                    for _ in 0..50 {
                        let _g = c.alloc_data_array(64);
                    }
                    assert_eq!(c.read_mut(keep, 0), 123);
                } else {
                    c.join(|c| churn(c, depth - 1, keep), |c| churn(c, depth - 1, keep));
                }
            }
            let keep = ctx.alloc_ref_data(123);
            ctx.pin(keep);
            churn(ctx, 4, keep);
            assert_eq!(ctx.read_mut(keep, 0), 123);
        });
        let s = rt.stats();
        assert!(
            s.gc_count >= 1,
            "expected at least one stop-the-world collection"
        );
        assert_eq!(s.gc_count, s.world_stops);
        assert_eq!(s.promoted_objects, 0);
    }

    #[test]
    fn shared_ref_visible_across_tasks() {
        let rt = StwRuntime::with_workers(2);
        let v = rt.run(|ctx| {
            let r = ctx.alloc_ref_ptr(ObjPtr::NULL);
            let (_, _) = ctx.join(
                |c| {
                    let payload = c.alloc_ref_data(55);
                    c.write_ptr(r, 0, payload);
                },
                |_| (),
            );
            let p = ctx.read_mut_ptr(r, 0);
            ctx.read_mut(p, 0)
        });
        assert_eq!(v, 55);
    }
}
