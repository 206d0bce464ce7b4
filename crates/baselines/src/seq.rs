//! The sequential baseline (`mlton` in the paper's tables).
//!
//! One flat heap, no locks, no parallelism: `join` simply runs both branches in order on
//! the calling thread, and a plain semispace collection runs at safe points when the
//! heap exceeds its threshold. Benchmark times measured on this runtime are the `T_s`
//! baseline against which the parallel runtimes' overhead and speedup are computed.

use crate::common::FlatHeap;
use crate::flat::{FlatCtx, FlatRuntime, Inline, Policy};
use hh_objmodel::ChunkStore;
use std::sync::Arc;

/// The sequential policy: one heap, inline execution, solo collection.
pub struct Seq {
    heap: FlatHeap,
}

impl Policy for Seq {
    type Exec = Inline;
    const NAME: &'static str = "seq";
    const OWNER: u32 = u32::MAX - 2;

    fn new(store: &Arc<ChunkStore>, _: usize) -> Seq {
        Seq {
            heap: FlatHeap::new(Arc::clone(store), Self::OWNER, 1),
        }
    }

    #[inline(always)]
    fn heap(&self) -> &FlatHeap {
        &self.heap
    }
}

/// The sequential baseline runtime.
pub type SeqRuntime = FlatRuntime<Seq>;

/// The per-task context of the sequential baseline (all tasks share the single heap).
pub type SeqCtx = FlatCtx<Seq>;

impl FlatRuntime<Seq> {
    /// Creates a sequential runtime with default memory parameters.
    pub fn new() -> SeqRuntime {
        Self::with_params(8 * 1024, 4 * 1024 * 1024, true)
    }

    /// Creates a sequential runtime with explicit chunk size and GC threshold (words);
    /// `enable_gc = false` means a threshold no heap reaches.
    pub fn with_params(
        chunk_words: usize,
        gc_threshold_words: usize,
        enable_gc: bool,
    ) -> SeqRuntime {
        let threshold = if enable_gc {
            gc_threshold_words
        } else {
            usize::MAX
        };
        Self::build(1, chunk_words, threshold)
    }
}

impl Default for FlatRuntime<Seq> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hh_api::{ParCtx, Runtime};
    use hh_objmodel::ObjPtr;

    #[test]
    fn basic_ops_and_join() {
        let rt = SeqRuntime::new();
        let v = rt.run(|ctx| {
            let r = ctx.alloc_ref_data(10);
            let (a, b) = ctx.join(|c| c.read_mut(r, 0) + 1, |c| c.read_mut(r, 0) + 2);
            ctx.write_nonptr(r, 0, a + b);
            ctx.read_mut(r, 0)
        });
        assert_eq!(v, 23);
        assert_eq!(rt.name(), "seq");
        assert!(rt.stats().allocated_words >= 3);
    }

    #[test]
    fn gc_triggers_and_preserves_pinned_data() {
        let rt = SeqRuntime::with_params(256, 5_000, true);
        rt.run(|ctx| {
            let keep = ctx.alloc_data_array(16);
            ctx.write_nonptr(keep, 3, 777);
            ctx.pin(keep);
            for _ in 0..200 {
                let _garbage = ctx.alloc_data_array(100);
                ctx.maybe_collect();
            }
            assert_eq!(ctx.read_mut(keep, 3), 777);
        });
        let s = rt.stats();
        assert!(s.gc_count >= 1);
        assert!(s.gc_copied_words > 0);
    }

    #[test]
    fn pointer_writes_never_promote() {
        let rt = SeqRuntime::new();
        rt.run(|ctx| {
            let cell = ctx.alloc_ref_ptr(ObjPtr::NULL);
            let (_, _) = ctx.join(
                |c| {
                    let local = c.alloc_ref_data(5);
                    c.write_ptr(cell, 0, local);
                },
                |c| {
                    let p = c.read_mut_ptr(cell, 0);
                    if !p.is_null() {
                        assert_eq!(c.read_mut(p, 0), 5);
                    }
                },
            );
        });
        assert_eq!(rt.stats().promoted_objects, 0);
    }
}
