//! The [`ParCtx`] and [`Runtime`] traits: the paper's high-level operations.

use crate::abort::RunError;
use crate::stats::RunStats;
use hh_objmodel::{ChunkStore, ObjKind, ObjPtr};

/// The per-task execution context: the paper's high-level operations (Figure 3) plus
/// root pinning and a GC safe point.
///
/// Every benchmark is written once against this trait; the hierarchical-heap runtime
/// and the three baselines implement it. A `ParCtx` value is specific to one running
/// task: [`ParCtx::join`] hands each child closure a *fresh* context bound to that
/// child's heap, mirroring `forkjoin` creating one heap per child task.
pub trait ParCtx: Sized {
    /// `alloc`: allocates an object with `n_ptr` pointer fields followed by `n_nonptr`
    /// non-pointer fields in the current task's heap, returning its pointer.
    ///
    /// Pointer fields start out as [`ObjPtr::NULL`]; non-pointer fields start out zero.
    fn alloc(&self, n_ptr: usize, n_nonptr: usize, kind: ObjKind) -> ObjPtr;

    /// `readImmutable`: reads field `field` of an object whose fields never change after
    /// initialization. Never touches the forwarding chain — this is the single-load fast
    /// path pure functional code lives on.
    fn read_imm(&self, obj: ObjPtr, field: usize) -> u64;

    /// `readMutable`: reads a mutable field, going through the master copy if the object
    /// has been promoted.
    fn read_mut(&self, obj: ObjPtr, field: usize) -> u64;

    /// `writeNonptr`: writes non-pointer data (ints, float bits) to a mutable field,
    /// updating the master copy if the object has been promoted.
    fn write_nonptr(&self, obj: ObjPtr, field: usize, val: u64);

    /// `writePtr`: writes an object pointer into a mutable field. This is the operation
    /// that may trigger promotion to preserve disentanglement.
    fn write_ptr(&self, obj: ObjPtr, field: usize, ptr: ObjPtr);

    /// Atomic compare-and-swap on a mutable non-pointer field (used by the BFS
    /// benchmarks to mark vertices visited). Returns `Ok(prev)` on success, `Err(seen)`
    /// on failure, like [`std::sync::atomic::AtomicU64::compare_exchange`].
    fn cas_nonptr(&self, obj: ObjPtr, field: usize, expected: u64, new: u64) -> Result<u64, u64>;

    /// Number of fields of an object (needed by generic code walking arrays).
    fn obj_len(&self, obj: ObjPtr) -> usize;

    /// `forkjoin`: runs both closures, potentially in parallel, each with a fresh child
    /// context, and waits for both.
    fn join<RA, RB, FA, FB>(&self, fa: FA, fb: FB) -> (RA, RB)
    where
        FA: FnOnce(&Self) -> RA + Send,
        FB: FnOnce(&Self) -> RB + Send,
        RA: Send,
        RB: Send;

    // ------------------------------------------------------------------
    // Bulk field operations (ParCtx v2).
    //
    // The scalar operations above pay one virtual call plus one forwarding-chain check
    // per 64-bit word. The bulk operations below express a whole contiguous field range
    // in one call so a runtime can amortize that bookkeeping per slice: the
    // hierarchical runtime resolves the master copy once per slice, and the
    // baselines resolve their forwarding barrier once.
    //
    // The default implementations are plain scalar loops, so every `ParCtx` impl is
    // automatically correct; runtimes override them for speed. Bulk operations are
    // observationally equivalent to the corresponding scalar loops (the
    // `cross_runtime` property tests pin this down on all four runtimes).
    // ------------------------------------------------------------------

    /// Bulk `readImmutable`: reads fields `start .. start + out.len()` of an immutable
    /// object into `out`.
    fn read_imm_bulk(&self, obj: ObjPtr, start: usize, out: &mut [u64]) {
        for (k, slot) in out.iter_mut().enumerate() {
            *slot = self.read_imm(obj, start + k);
        }
    }

    /// Bulk `readMutable`: reads fields `start .. start + out.len()` through the master
    /// copy into `out`.
    fn read_mut_bulk(&self, obj: ObjPtr, start: usize, out: &mut [u64]) {
        for (k, slot) in out.iter_mut().enumerate() {
            *slot = self.read_mut(obj, start + k);
        }
    }

    /// Bulk `writeNonptr`: writes `vals` into fields `start .. start + vals.len()`,
    /// updating the master copy if the object has been promoted.
    fn write_nonptr_bulk(&self, obj: ObjPtr, start: usize, vals: &[u64]) {
        for (k, &v) in vals.iter().enumerate() {
            self.write_nonptr(obj, start + k, v);
        }
    }

    /// Fills fields `start .. start + len` with `val` (a bulk non-pointer write of one
    /// repeated value, without materializing a buffer).
    fn fill_nonptr(&self, obj: ObjPtr, start: usize, len: usize, val: u64) {
        for k in 0..len {
            self.write_nonptr(obj, start + k, val);
        }
    }

    /// Copies `len` non-pointer fields from `src[src_start..]` to `dst[dst_start..]`
    /// (an object→object range copy). Reads go through the source's master copy and
    /// writes through the destination's, exactly as the scalar loop would.
    ///
    /// `src` and `dst` may be the same object only if the ranges do not overlap.
    fn copy_nonptr(
        &self,
        src: ObjPtr,
        src_start: usize,
        dst: ObjPtr,
        dst_start: usize,
        len: usize,
    ) {
        for k in 0..len {
            let v = self.read_mut(src, src_start + k);
            self.write_nonptr(dst, dst_start + k, v);
        }
    }

    // ------------------------------------------------------------------
    // N-ary fork-join (ParCtx v2).
    // ------------------------------------------------------------------

    /// N-ary `forkjoin`: runs every closure in `fns`, potentially in parallel, and
    /// returns their results in order.
    ///
    /// The default implementation divides and conquers over binary [`ParCtx::join`],
    /// so the task tree (and therefore the heap hierarchy) stays balanced: `n` closures
    /// produce a tree of depth `⌈log₂ n⌉`. Closures run in child contexts created by
    /// the underlying joins — except that a single remaining closure runs directly on
    /// the context that holds it (just as the two arms of a plain `join` may), so
    /// callers must not rely on every task getting its own fresh heap.
    fn join_many<R, F>(&self, fns: Vec<F>) -> Vec<R>
    where
        F: FnOnce(&Self) -> R + Send,
        R: Send,
    {
        match fns.len() {
            0 => Vec::new(),
            1 => {
                let f = fns.into_iter().next().expect("len checked");
                vec![f(self)]
            }
            n => {
                let mut left = fns;
                let right = left.split_off(n / 2);
                let (mut ra, mut rb) =
                    self.join(move |c| c.join_many(left), move |c| c.join_many(right));
                ra.append(&mut rb);
                ra
            }
        }
    }

    /// Grain-controlled parallel for: splits `range` divide-and-conquer style until
    /// subranges are at most `grain` long, then invokes `body` on each leaf subrange
    /// and polls [`ParCtx::maybe_collect`] after it.
    ///
    /// Leaf subranges are disjoint, cover `range` exactly, and arrive in no particular
    /// order; the body must only perform writes that commute across leaves (the same
    /// contract the workloads' hand-rolled splitters had). The body receives the leaf
    /// *range* rather than a single index so it can use the bulk operations above.
    /// Leaves run in the child contexts created by the recursive joins — except a
    /// range that already fits in one grain, which runs directly on the calling
    /// context — so bodies must not rely on a fresh heap per leaf.
    fn par_for<F>(&self, range: std::ops::Range<usize>, grain: usize, body: F)
    where
        F: Fn(&Self, std::ops::Range<usize>) + Sync + Send + Copy,
    {
        let (lo, hi) = (range.start, range.end);
        if hi <= lo {
            return;
        }
        if hi - lo <= grain.max(1) {
            body(self, lo..hi);
            self.maybe_collect();
        } else {
            let mid = lo + (hi - lo) / 2;
            self.join(
                move |c| c.par_for(lo..mid, grain, body),
                move |c| c.par_for(mid..hi, grain, body),
            );
        }
    }

    /// Grain-controlled parallel map: one task per grain-aligned block of `range`,
    /// each invoking `body` on its block and polling [`ParCtx::maybe_collect`], with
    /// the per-block results returned in range order.
    ///
    /// This is [`ParCtx::par_for`] for loops that produce a value per leaf (partial
    /// reductions, per-block counts, per-block output lists) — it owns the
    /// block-boundary arithmetic so callers don't hand-roll `b * grain ..
    /// min((b + 1) * grain, n)` at every site. Blocks are aligned to multiples of
    /// `grain` from `range.start`; the execution contract (disjoint coverage,
    /// commuting writes, no fresh-heap guarantee for single-block ranges) matches
    /// `par_for`.
    fn par_map<R, F>(&self, range: std::ops::Range<usize>, grain: usize, body: F) -> Vec<R>
    where
        F: Fn(&Self, std::ops::Range<usize>) -> R + Sync + Send + Copy,
        R: Send,
    {
        let (lo, hi) = (range.start, range.end);
        if hi <= lo {
            return Vec::new();
        }
        let grain = grain.max(1);
        let n_blocks = (hi - lo).div_ceil(grain);
        self.join_many(
            (0..n_blocks)
                .map(|b| {
                    move |c: &Self| {
                        let blo = lo + b * grain;
                        let bhi = (blo + grain).min(hi);
                        let r = body(c, blo..bhi);
                        c.maybe_collect();
                        r
                    }
                })
                .collect(),
        )
    }

    /// Registers `obj` as a GC root for this task (shadow-stack substitute for stack maps).
    fn pin(&self, obj: ObjPtr);

    /// Removes one pin of `obj`.
    fn unpin(&self, obj: ObjPtr);

    /// A GC safe point: the runtime may collect the current task's heap here if its
    /// allocation volume warrants it. Only pinned objects (and objects reachable from
    /// them) are guaranteed to survive.
    fn maybe_collect(&self);

    /// Number of worker threads the runtime is configured with.
    fn n_workers(&self) -> usize;

    // ------------------------------------------------------------------
    // Provided conveniences built on the required operations.
    // ------------------------------------------------------------------

    /// Reads a pointer out of an immutable field.
    fn read_imm_ptr(&self, obj: ObjPtr, field: usize) -> ObjPtr {
        ObjPtr::from_bits(self.read_imm(obj, field))
    }

    /// Reads a pointer out of a mutable field (through the master copy).
    fn read_mut_ptr(&self, obj: ObjPtr, field: usize) -> ObjPtr {
        ObjPtr::from_bits(self.read_mut(obj, field))
    }

    /// Allocates a mutable reference cell holding non-pointer data.
    fn alloc_ref_data(&self, init: u64) -> ObjPtr {
        let r = self.alloc(0, 1, ObjKind::Ref);
        self.write_nonptr(r, 0, init);
        r
    }

    /// Allocates a mutable reference cell holding an object pointer.
    fn alloc_ref_ptr(&self, init: ObjPtr) -> ObjPtr {
        let r = self.alloc(1, 0, ObjKind::Ref);
        self.write_ptr(r, 0, init);
        r
    }

    /// Allocates a mutable array of `len` non-pointer elements, initialized to zero.
    fn alloc_data_array(&self, len: usize) -> ObjPtr {
        self.alloc(0, len, ObjKind::ArrayData)
    }

    /// Allocates a mutable array of `len` pointer elements, initialized to NULL.
    fn alloc_ptr_array(&self, len: usize) -> ObjPtr {
        self.alloc(len, 0, ObjKind::ArrayPtr)
    }

    /// Allocates an immutable cons cell `(head_ptr, tail_ptr, value)`.
    fn alloc_cons(&self, head: ObjPtr, tail: ObjPtr, value: u64) -> ObjPtr {
        let c = self.alloc(2, 1, ObjKind::Cons);
        self.write_ptr(c, 0, head);
        self.write_ptr(c, 1, tail);
        self.write_nonptr(c, 2, value);
        c
    }

    /// Pins `obj` for the duration of `f` (RAII-style helper when lexical scoping fits).
    fn with_pinned<R>(&self, obj: ObjPtr, f: impl FnOnce(&Self) -> R) -> R {
        self.pin(obj);
        let r = f(self);
        self.unpin(obj);
        r
    }
}

/// An RAII pin on a GC root.
///
/// Constructed by [`Rooted::new`]; the pin is released on drop. Keeping the handle alive
/// keeps the object (and everything reachable from it) alive across collections.
pub struct Rooted<'c, C: ParCtx> {
    ctx: &'c C,
    obj: ObjPtr,
}

impl<'c, C: ParCtx> Rooted<'c, C> {
    /// Pins `obj` in `ctx` until the returned handle is dropped.
    pub fn new(ctx: &'c C, obj: ObjPtr) -> Self {
        ctx.pin(obj);
        Rooted { ctx, obj }
    }

    /// The pinned object.
    pub fn ptr(&self) -> ObjPtr {
        self.obj
    }
}

impl<C: ParCtx> Drop for Rooted<'_, C> {
    fn drop(&mut self) {
        self.ctx.unpin(self.obj);
    }
}

/// Removes the topmost pin of `obj` from the shadow stack `pins`: every runtime's
/// [`ParCtx::unpin`].
///
/// A collection (or promotion) between pin and unpin rewrote the pin slot in place,
/// so the caller may hold a stale from-space address and the slot some other hop of
/// the object's forwarding history — and path compression can shortcut either
/// pointer past the other's hop. Old copies stay readable until the reuse horizon,
/// and forwarding is confluent (every hop reaches the same final master), so when no
/// slot holds `obj` itself, the slot whose resolved master is `obj`'s goes instead,
/// keeping pin/unpin balanced across collections.
#[inline]
pub fn unpin_from(pins: &mut Vec<ObjPtr>, store: &ChunkStore, obj: ObjPtr) {
    if let Some(pos) = pins.iter().rposition(|r| *r == obj) {
        pins.swap_remove(pos);
        return;
    }
    if obj.is_null() {
        return;
    }
    let master = store.resolve_fwd(obj);
    if let Some(pos) = pins
        .iter()
        .rposition(|r| !r.is_null() && store.resolve_fwd(*r) == master)
    {
        pins.swap_remove(pos);
    }
}

/// A runtime: a scheduler plus a memory manager, able to run a root task and report
/// statistics. Implemented by `HhRuntime`, `SeqRuntime`, `StwRuntime`, and `DlgRuntime`.
pub trait Runtime: Sync {
    /// The per-task context type handed to tasks.
    type Ctx: ParCtx;

    /// Short, stable name used in harness output tables (e.g. `"parmem"`, `"stw"`).
    fn name(&self) -> &'static str;

    /// Number of worker threads.
    fn n_workers(&self) -> usize;

    /// Runs `f` as the root task and returns its result.
    fn run<R, F>(&self, f: F) -> R
    where
        R: Send,
        F: FnOnce(&Self::Ctx) -> R + Send;

    /// Runs `f` as the root task under a cancellation token, converting any
    /// unwind escaping the run into a typed [`RunError`] instead of propagating
    /// it into the caller (the crash-safe entry point servers use; DESIGN.md
    /// §13).
    ///
    /// The provided implementation checks `ctl` once up front, then catches
    /// whatever [`Runtime::run`] unwinds with and classifies it via
    /// [`RunError::from_panic`]. Runtimes with cooperative safe points
    /// (`HhRuntime`) override this to thread `ctl` into every task context, so
    /// cancellation and deadlines fire *mid-run* at `maybe_collect` and fork
    /// points; on the default implementation they are only observed at the run
    /// boundary.
    ///
    /// Runtime-side teardown (heap disposal, run-epoch retirement, open-window
    /// finalization) is the runtime's own responsibility on the unwind path —
    /// this method only guarantees the failure reaches the caller as a value.
    fn try_run<R, F>(&self, ctl: &std::sync::Arc<crate::abort::RunCtl>, f: F) -> Result<R, RunError>
    where
        R: Send,
        F: FnOnce(&Self::Ctx) -> R + Send,
    {
        if let Some(reason) = ctl.aborted() {
            return Err(RunError::from_abort(reason));
        }
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.run(f))) {
            Ok(r) => Ok(r),
            Err(payload) => Err(RunError::from_panic(payload)),
        }
    }

    /// Statistics accumulated since construction or the last [`Runtime::reset_stats`].
    fn stats(&self) -> RunStats;

    /// Resets the statistics counters (peak memory tracking included).
    fn reset_stats(&self);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::collections::HashMap;

    /// A tiny single-threaded mock used to exercise the provided helper methods and the
    /// `Rooted` RAII handle without pulling in a real runtime.
    struct MockCtx {
        objects: RefCell<Vec<(ObjKind, usize, Vec<u64>)>>,
        pins: RefCell<HashMap<u64, usize>>,
    }

    impl MockCtx {
        fn new() -> Self {
            MockCtx {
                objects: RefCell::new(Vec::new()),
                pins: RefCell::new(HashMap::new()),
            }
        }
        fn pin_count(&self, obj: ObjPtr) -> usize {
            *self.pins.borrow().get(&obj.to_bits()).unwrap_or(&0)
        }
    }

    impl ParCtx for MockCtx {
        fn alloc(&self, n_ptr: usize, n_nonptr: usize, kind: ObjKind) -> ObjPtr {
            let mut objs = self.objects.borrow_mut();
            let idx = objs.len();
            let mut fields = vec![ObjPtr::NULL.to_bits(); n_ptr];
            fields.extend(std::iter::repeat_n(0u64, n_nonptr));
            objs.push((kind, n_ptr, fields));
            ObjPtr::new(hh_objmodel::ChunkId(0), idx as u32)
        }
        fn read_imm(&self, obj: ObjPtr, field: usize) -> u64 {
            self.objects.borrow()[obj.offset() as usize].2[field]
        }
        fn read_mut(&self, obj: ObjPtr, field: usize) -> u64 {
            self.read_imm(obj, field)
        }
        fn write_nonptr(&self, obj: ObjPtr, field: usize, val: u64) {
            self.objects.borrow_mut()[obj.offset() as usize].2[field] = val;
        }
        fn write_ptr(&self, obj: ObjPtr, field: usize, ptr: ObjPtr) {
            self.objects.borrow_mut()[obj.offset() as usize].2[field] = ptr.to_bits();
        }
        fn cas_nonptr(
            &self,
            obj: ObjPtr,
            field: usize,
            expected: u64,
            new: u64,
        ) -> Result<u64, u64> {
            let cur = self.read_mut(obj, field);
            if cur == expected {
                self.write_nonptr(obj, field, new);
                Ok(cur)
            } else {
                Err(cur)
            }
        }
        fn obj_len(&self, obj: ObjPtr) -> usize {
            self.objects.borrow()[obj.offset() as usize].2.len()
        }
        fn join<RA, RB, FA, FB>(&self, fa: FA, fb: FB) -> (RA, RB)
        where
            FA: FnOnce(&Self) -> RA + Send,
            FB: FnOnce(&Self) -> RB + Send,
        {
            (fa(self), fb(self))
        }
        fn pin(&self, obj: ObjPtr) {
            *self.pins.borrow_mut().entry(obj.to_bits()).or_insert(0) += 1;
        }
        fn unpin(&self, obj: ObjPtr) {
            let mut pins = self.pins.borrow_mut();
            let c = pins.get_mut(&obj.to_bits()).expect("unpin without pin");
            *c -= 1;
        }
        fn maybe_collect(&self) {}
        fn n_workers(&self) -> usize {
            1
        }
    }

    #[test]
    fn ref_helpers_roundtrip() {
        let ctx = MockCtx::new();
        let r = ctx.alloc_ref_data(17);
        assert_eq!(ctx.read_mut(r, 0), 17);
        let target = ctx.alloc_ref_data(5);
        let rp = ctx.alloc_ref_ptr(target);
        assert_eq!(ctx.read_mut_ptr(rp, 0), target);
    }

    #[test]
    fn array_helpers_have_requested_lengths() {
        let ctx = MockCtx::new();
        let d = ctx.alloc_data_array(10);
        let p = ctx.alloc_ptr_array(3);
        assert_eq!(ctx.obj_len(d), 10);
        assert_eq!(ctx.obj_len(p), 3);
        assert!(ctx.read_mut_ptr(p, 0).is_null());
        assert_eq!(ctx.read_mut(d, 9), 0);
    }

    #[test]
    fn cons_helper_lays_out_fields() {
        let ctx = MockCtx::new();
        let head = ctx.alloc_ref_data(1);
        let cell = ctx.alloc_cons(head, ObjPtr::NULL, 99);
        assert_eq!(ctx.read_imm_ptr(cell, 0), head);
        assert!(ctx.read_imm_ptr(cell, 1).is_null());
        assert_eq!(ctx.read_imm(cell, 2), 99);
    }

    #[test]
    fn rooted_pins_and_unpins() {
        let ctx = MockCtx::new();
        let obj = ctx.alloc_ref_data(0);
        {
            let _root = Rooted::new(&ctx, obj);
            assert_eq!(ctx.pin_count(obj), 1);
            {
                let _root2 = Rooted::new(&ctx, obj);
                assert_eq!(ctx.pin_count(obj), 2);
            }
            assert_eq!(ctx.pin_count(obj), 1);
        }
        assert_eq!(ctx.pin_count(obj), 0);
    }

    #[test]
    fn with_pinned_balances() {
        let ctx = MockCtx::new();
        let obj = ctx.alloc_ref_data(3);
        let val = ctx.with_pinned(obj, |c| c.read_mut(obj, 0));
        assert_eq!(val, 3);
        assert_eq!(ctx.pin_count(obj), 0);
    }

    #[test]
    fn bulk_defaults_match_scalar_loops() {
        let ctx = MockCtx::new();
        let a = ctx.alloc_data_array(16);
        let b = ctx.alloc_data_array(16);
        let vals: Vec<u64> = (0..8u64).map(|i| i * 11 + 1).collect();
        ctx.write_nonptr_bulk(a, 4, &vals);
        for (k, &v) in vals.iter().enumerate() {
            assert_eq!(ctx.read_mut(a, 4 + k), v);
        }
        let mut out = vec![0u64; 8];
        ctx.read_mut_bulk(a, 4, &mut out);
        assert_eq!(out, vals);
        ctx.read_imm_bulk(a, 4, &mut out);
        assert_eq!(out, vals);
        ctx.fill_nonptr(a, 0, 4, 9);
        assert_eq!(
            (0..4).map(|i| ctx.read_mut(a, i)).collect::<Vec<_>>(),
            vec![9; 4]
        );
        ctx.copy_nonptr(a, 4, b, 2, 8);
        let mut copied = vec![0u64; 8];
        ctx.read_mut_bulk(b, 2, &mut copied);
        assert_eq!(copied, vals);
        // Untouched destination fields stay zero.
        assert_eq!(ctx.read_mut(b, 0), 0);
        assert_eq!(ctx.read_mut(b, 10), 0);
    }

    #[test]
    fn empty_bulk_ops_are_noops() {
        let ctx = MockCtx::new();
        let a = ctx.alloc_data_array(4);
        ctx.write_nonptr_bulk(a, 0, &[]);
        ctx.read_mut_bulk(a, 0, &mut []);
        ctx.fill_nonptr(a, 0, 0, 7);
        ctx.copy_nonptr(a, 0, a, 2, 0);
        assert_eq!(
            (0..4).map(|i| ctx.read_mut(a, i)).collect::<Vec<_>>(),
            vec![0; 4]
        );
    }

    #[test]
    fn join_many_returns_results_in_order() {
        let ctx = MockCtx::new();
        let tasks: Vec<_> = (0..9u64).map(|i| move |_c: &MockCtx| i * i).collect();
        let results = ctx.join_many(tasks);
        assert_eq!(results, (0..9u64).map(|i| i * i).collect::<Vec<_>>());
        let none: Vec<fn(&MockCtx) -> u64> = Vec::new();
        assert!(ctx.join_many(none).is_empty());
        let one: Vec<_> = vec![|_c: &MockCtx| 42u64];
        assert_eq!(ctx.join_many(one), vec![42]);
    }

    #[test]
    fn par_map_returns_block_results_in_order() {
        let ctx = MockCtx::new();
        // Blocks of 10 over 0..25: [0..10), [10..20), [20..25).
        let sums = ctx.par_map(0..25, 10, |_c, r| {
            (r.start, r.end, r.map(|i| i as u64).sum::<u64>())
        });
        assert_eq!(sums, vec![(0, 10, 45), (10, 20, 145), (20, 25, 110)]);
        assert!(ctx.par_map(7..7, 4, |_c, _r| 0u64).is_empty());
        // grain 0 is clamped to 1: one block per index.
        assert_eq!(ctx.par_map(3..6, 0, |_c, r| r.start), vec![3, 4, 5]);
    }

    #[test]
    fn par_for_covers_range_exactly_once() {
        let ctx = MockCtx::new();
        let hits = ctx.alloc_data_array(100);
        ctx.par_for(0..100, 7, move |c, r| {
            for i in r {
                let prev = c.read_mut(hits, i);
                c.write_nonptr(hits, i, prev + 1);
            }
        });
        for i in 0..100 {
            assert_eq!(
                ctx.read_mut(hits, i),
                1,
                "index {i} visited wrong number of times"
            );
        }
        // Empty and tiny ranges terminate without touching anything.
        ctx.par_for(5..5, 4, move |_c, _r| {
            unreachable!("empty range must not call body")
        });
        ctx.par_for(3..4, 0, move |c, r| {
            assert_eq!(r, 3..4);
            c.write_nonptr(hits, 3, 99);
        });
        assert_eq!(ctx.read_mut(hits, 3), 99);
    }
}
