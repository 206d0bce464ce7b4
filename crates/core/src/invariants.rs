//! Debug-build invariant checking (promotion v2).
//!
//! When [`crate::HhConfig::check_invariants`] is set **and** the build carries
//! `debug_assertions`, the runtime re-verifies its two structural invariants at the
//! moments they could break:
//!
//! * **after every promotion** — each freshly promoted copy must be disentangled
//!   (none of its pointer fields may reach a heap that is not an ancestor-or-self of
//!   the promotion target, in particular no heap strictly deeper than the target)
//!   and every forwarding chain touched must be acyclic;
//! * **after every collection** — the collected heap's surviving objects must hold
//!   only ancestor-or-self pointers, and no survivor may carry a forwarding cycle.
//!
//! Both checks run only over memory the calling task has exclusive access to at that
//! point (the promotion holds the WRITE lock of every original's heap and inspects
//! only the copies it just made, before publishing the hops to them; a collection's zone is quiescent by the GC gating argument of
//! DESIGN.md §4.2/§5), so they are race-free even under heavy stealing. Violations
//! panic with the offending objects, which is exactly what the stress harness
//! (`crates/core/tests/stress.rs`) wants: a seed that corrupts the hierarchy fails
//! loudly at the operation that corrupted it, not at some later checksum.
//!
//! In release builds (`debug_assertions` off) every entry point is a no-op branch on
//! a constant, so the checker costs nothing.

use crate::runtime::Inner;
use hh_heaps::HeapId;
use hh_objmodel::{ChunkStore, ObjPtr};

impl Inner {
    /// True if the invariant checker should run: debug build + config opt-in
    /// (the default config opts in exactly when `debug_assertions` are on).
    #[inline]
    pub(crate) fn invariants_enabled(&self) -> bool {
        cfg!(debug_assertions) && self.config.check_invariants
    }

    /// Post-promotion check over the pass's fresh copies (see module docs). The
    /// caller still holds the WRITE lock of every original's heap and has not
    /// published the hops to the copies yet, so no concurrent access has reached
    /// them; the check must not take any heap lock itself (it only reads registry
    /// metadata and chunk words).
    pub(crate) fn verify_promotion(
        &self,
        target: HeapId,
        copies: impl IntoIterator<Item = ObjPtr>,
    ) {
        if !self.invariants_enabled() {
            return;
        }
        let store: &ChunkStore = self.registry.store();
        let target = self.registry.resolve(target);
        for copy in copies {
            let v = store.view(copy);
            assert_fwd_acyclic(store, copy);
            for f in 0..v.n_ptr() {
                let p = v.field_ptr(f);
                if p.is_null() {
                    continue;
                }
                assert_fwd_acyclic(store, p);
                let to_heap = self.registry.heap_of(p);
                assert!(
                    self.registry.is_ancestor_or_self(to_heap, target),
                    "promotion invariant violated: copy {copy:?} (target heap {target:?}, \
                     depth {}) field {f} points to {p:?} in non-ancestor heap {to_heap:?} \
                     (depth {}); holder {}; target {}",
                    self.registry.depth(target),
                    self.registry.depth(to_heap),
                    store.chunk(copy.chunk()).forensics(),
                    store.chunk(p.chunk()).forensics(),
                );
            }
        }
    }

    /// Post-collection check over the collected heap (see module docs): every
    /// survivor's pointer fields must stay within the survivor's heap or an
    /// ancestor, and no survivor may carry a forwarding cycle. The heap is quiescent
    /// while this runs (same precondition as the collection itself).
    pub(crate) fn verify_heap(&self, h: HeapId) {
        if !self.invariants_enabled() {
            return;
        }
        let store: &ChunkStore = self.registry.store();
        self.registry.for_each_object(h, |obj, view| {
            assert_fwd_acyclic(store, obj);
            for f in 0..view.n_ptr() {
                if let Some(v) = self.registry.entanglement_of(obj, f, h) {
                    panic!(
                        "collection invariant violated: object {obj:?} in heap {h:?} \
                         (depth {}) field {f} points to {:?} in non-ancestor heap \
                         {:?} (depth {}); holder {}; target {}",
                        v.holder_depth,
                        v.target,
                        v.target_heap,
                        v.target_depth,
                        v.holder_chunk,
                        v.target_chunk,
                    );
                }
            }
        });
    }
}

/// Panics if the forwarding chain starting at `from` contains a cycle (Floyd's
/// tortoise-and-hare, so the check is O(chain length) with no allocation).
fn assert_fwd_acyclic(store: &ChunkStore, from: ObjPtr) {
    let step = |p: ObjPtr| -> Option<ObjPtr> {
        let v = store.view(p);
        let next = v.fwd();
        if next.is_null() {
            None
        } else {
            Some(next)
        }
    };
    let mut slow = from;
    let mut fast = from;
    loop {
        let Some(f1) = step(fast) else { return };
        let Some(f2) = step(f1) else { return };
        fast = f2;
        slow = step(slow).expect("tortoise cannot outrun the hare");
        assert!(
            slow != fast,
            "forwarding cycle detected on the chain starting at {from:?}"
        );
    }
}
