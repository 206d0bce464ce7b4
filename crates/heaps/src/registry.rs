//! The heap registry: creation, lookup, hierarchy maintenance, and `heapOf`.

use crate::heap::Heap;
use crate::id::HeapId;
use hh_objmodel::{AppendVec, Chunk, ChunkForensics, ChunkId, ChunkStore, Header, ObjPtr, ObjView};
use std::sync::Arc;

/// One disentanglement violation found by [`HeapRegistry::check_disentangled`]:
/// a pointer field whose target's heap is *not* an ancestor of (or equal to) the
/// holder's heap, together with the chunk-level forensics ([`ChunkForensics`]:
/// run tag, gc tag epoch and FROM/TO bits, retirement, generation) of both ends.
/// The context is captured at detection time so a violation seen once under a
/// racy schedule is diagnosable from its report alone.
#[derive(Clone, Debug)]
pub struct EntanglementViolation {
    /// The object holding the offending pointer.
    pub holder: ObjPtr,
    /// Index of the offending pointer field within the holder.
    pub field: usize,
    /// Resolved heap of the holder.
    pub holder_heap: HeapId,
    /// Depth of the holder's heap.
    pub holder_depth: u32,
    /// Forensics of the chunk the holder lives in.
    pub holder_chunk: ChunkForensics,
    /// The pointee.
    pub target: ObjPtr,
    /// Resolved heap of the pointee — not an ancestor of `holder_heap`.
    pub target_heap: HeapId,
    /// Depth of the pointee's heap.
    pub target_depth: u32,
    /// Forensics of the chunk the pointee lives in.
    pub target_chunk: ChunkForensics,
}

impl std::fmt::Display for EntanglementViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:?} field {} in heap {:?} (depth {}) [{}] -> {:?} in non-ancestor heap {:?} (depth {}) [{}]",
            self.holder,
            self.field,
            self.holder_heap,
            self.holder_depth,
            self.holder_chunk,
            self.target,
            self.target_heap,
            self.target_depth,
            self.target_chunk,
        )
    }
}

/// The global table of heaps plus the operations that maintain the hierarchy.
///
/// The registry owns the [`ChunkStore`] so that `heapOf` — chunk lookup followed by
/// merge-link resolution — is a single-object operation.
///
/// Heap creation is lock-free: ids are reserved by the [`AppendVec`]'s fetch-and-add
/// (see [`AppendVec::push_with`]), so concurrent steals — the only multi-threaded
/// source of heap creation under the lazy steal-time policy — never serialize on a
/// global mutex.
pub struct HeapRegistry {
    store: Arc<ChunkStore>,
    heaps: AppendVec<Arc<Heap>>,
}

impl HeapRegistry {
    /// Creates an empty registry over the given chunk store.
    pub fn new(store: Arc<ChunkStore>) -> Self {
        HeapRegistry {
            store,
            heaps: AppendVec::new(),
        }
    }

    /// The underlying chunk store.
    #[inline]
    pub fn store(&self) -> &Arc<ChunkStore> {
        &self.store
    }

    /// Number of heaps ever created.
    pub fn n_heaps(&self) -> usize {
        self.heaps.len()
    }

    fn create(&self, parent: HeapId, depth: u32, run_tag: u64) -> HeapId {
        // Atomic id reservation: the AppendVec's fetch-and-add assigns the index and
        // the heap is constructed *with* that index, so id == table slot holds by
        // construction, without a creation lock.
        let idx = self.heaps.push_with(|idx| {
            let id = HeapId::from_index(idx);
            Arc::new(Heap::new_tagged(id, parent, depth, run_tag))
        });
        HeapId::from_index(idx)
    }

    /// Creates a root heap (depth 0, no parent), not attributed to any run epoch.
    pub fn new_root_heap(&self) -> HeapId {
        self.create(HeapId::NONE, 0, 0)
    }

    /// Creates a root heap attributed to the run holding epoch `run_tag` (drawn from
    /// the store's [`hh_objmodel::RunEpochs`]): every chunk the run's heap tree
    /// allocates carries the tag, so disposal stamps the quarantine with the run's
    /// own epoch and the watermark can reclaim it without global quiescence.
    pub fn new_root_heap_for_run(&self, run_tag: u64) -> HeapId {
        self.create(HeapId::NONE, 0, run_tag)
    }

    /// `newChildHeap`: creates a heap one level below `parent`, inheriting the
    /// parent's run tag (a run's whole heap tree shares one epoch).
    pub fn new_child_heap(&self, parent: HeapId) -> HeapId {
        let parent_heap = self.heap(parent);
        debug_assert!(parent_heap.is_live(), "forking a child under a merged heap");
        self.create(parent, parent_heap.depth() + 1, parent_heap.run_tag())
    }

    /// Looks up a heap by id.
    ///
    /// # Panics
    /// Panics on [`HeapId::NONE`] or an id that was never created.
    #[inline]
    pub fn heap(&self, id: HeapId) -> &Arc<Heap> {
        debug_assert!(!id.is_none(), "looking up HeapId::NONE");
        self.heaps
            .get(id.raw() as usize)
            .expect("dangling HeapId: heap not present in registry")
    }

    /// Resolves a (possibly merged) heap id to the live heap currently holding its
    /// objects, compressing the forwarding chain as it goes.
    pub fn resolve(&self, id: HeapId) -> HeapId {
        let mut cur = id;
        // First pass: find the representative.
        loop {
            let h = self.heap(cur);
            let next = h.merged_into();
            if next.is_none() {
                break;
            }
            cur = next;
        }
        // Second pass: path compression.
        let root = cur;
        let mut walk = id;
        while walk != root {
            let h = self.heap(walk);
            let next = h.merged_into();
            if next.is_none() {
                break;
            }
            h.compress_merged_into(next, root);
            walk = next;
        }
        root
    }

    /// `heapOf`: the live heap currently holding the object at `ptr`.
    ///
    /// Implemented as chunk-metadata lookup (the paper's address-mask lookup) followed by
    /// merge-link resolution; the chunk's owner field is path-compressed so repeated
    /// queries are O(1).
    pub fn heap_of(&self, ptr: ObjPtr) -> HeapId {
        self.owner_of(self.store.chunk(ptr.chunk())).0
    }

    /// As [`HeapRegistry::heap_of`], for a caller that already holds the object's
    /// chunk and wants the heap itself.
    #[inline]
    pub fn heap_of_chunk(&self, chunk: &Chunk) -> &Heap {
        self.owner_of(chunk).1
    }

    /// The live heap owning `chunk`: one table lookup when the recorded owner has
    /// not been merged away.
    #[inline]
    fn owner_of(&self, chunk: &Chunk) -> (HeapId, &Heap) {
        let recorded = HeapId::from_raw(chunk.owner());
        let heap = self.heap(recorded);
        if heap.is_live() {
            return (recorded, heap);
        }
        let resolved = self.resolve(recorded);
        chunk.compare_set_owner(recorded.raw(), resolved.raw());
        (resolved, self.heap(resolved))
    }

    /// `depth`: the depth of (the resolved version of) heap `id`.
    pub fn depth(&self, id: HeapId) -> u32 {
        self.heap(self.resolve(id)).depth()
    }

    /// `freshObj`: allocates an object with `header` in (the resolved version of) `heap`.
    pub fn alloc_obj(&self, heap: HeapId, header: Header) -> ObjPtr {
        let live = self.resolve(heap);
        self.heap(live).alloc_obj(&self.store, header)
    }

    /// `joinHeap(parent, child)`: merges `child` into `parent`.
    ///
    /// The child's chunks are spliced onto the parent's chunk list and the child records
    /// a forwarding link; no objects are copied. The child must be a live heap whose
    /// resolved parent is `parent`.
    pub fn join_heap(&self, parent: HeapId, child: HeapId) {
        let parent = self.resolve(parent);
        let child_heap = self.heap(child);
        debug_assert!(child_heap.is_live(), "joining an already-merged heap");
        debug_assert_ne!(parent, child, "joining a heap into itself");
        self.heap(parent).absorb_chunks_of(child_heap);
    }

    /// Adopts a finished incremental collection's to-space `chunks` (holding
    /// `words` words of survivors) into the heap that now holds `heap`'s objects.
    /// `heap` may be joined into its parent at any moment while the collection
    /// runs, so an adoption that loses that race re-resolves and retries.
    pub fn adopt_collected(&self, heap: HeapId, mut chunks: Vec<ChunkId>, words: usize) {
        loop {
            match self
                .heap(self.resolve(heap))
                .adopt_collected_chunks(chunks, words)
            {
                Ok(()) => return,
                Err(back) => chunks = back,
            }
        }
    }

    /// True if `ancestor` is `h` itself or a (transitive) parent of `h`, after resolving
    /// merges. This is the relation used to define disentanglement.
    pub fn is_ancestor_or_self(&self, ancestor: HeapId, h: HeapId) -> bool {
        let ancestor = self.resolve(ancestor);
        let mut cur = self.resolve(h);
        loop {
            if cur == ancestor {
                return true;
            }
            let parent = self.heap(cur).parent();
            if parent.is_none() {
                return false;
            }
            cur = self.resolve(parent);
        }
    }

    /// Disposes of a finished run's heap tree: every chunk of (the resolved version
    /// of) `root` is retired, entering the store's quarantine, and the heap's
    /// allocation state is emptied. Every child heap joins its parent when its task
    /// ends, so once the run's tasks are gone the whole tree is its root.
    ///
    /// Used by runtimes once a run has completed and its result has been consumed:
    /// the tree is unreachable, so its memory can flow back to the allocator via
    /// [`ChunkStore::reclaim_watermark`]. Returns the number of chunks retired.
    pub fn dispose_subtree(&self, root: HeapId) -> usize {
        let chunks = self.heap(self.resolve(root)).take_all_chunks();
        let retired = chunks.len();
        for chunk in chunks {
            self.store.retire_chunk(chunk);
        }
        retired
    }

    /// Calls `visit` on every object of the live heap `id`. The heap must be
    /// quiescent while this runs.
    pub fn for_each_object(&self, id: HeapId, mut visit: impl FnMut(ObjPtr, ObjView<'_>)) {
        for chunk_id in self.heap(id).chunks() {
            let chunk = self.store.chunk(chunk_id);
            let mut off = 0usize;
            while off < chunk.used() {
                let view = ObjView::new(chunk, off as u32);
                let size = view.header().size_words();
                if off + size > chunk.used() {
                    // Raw bump-gap tail: a failed `try_bump` advances the cursor
                    // past the last real object (benign over-bump), so the words
                    // from here on are unwritten — not objects.
                    break;
                }
                visit(ObjPtr::new(chunk_id, off as u32), view);
                off += size;
            }
        }
    }

    /// The violation, if pointer field `field` of `holder` (an object of the live
    /// heap `holder_heap`) points into a heap that is not an ancestor of (or equal
    /// to) `holder_heap`.
    pub fn entanglement_of(
        &self,
        holder: ObjPtr,
        field: usize,
        holder_heap: HeapId,
    ) -> Option<EntanglementViolation> {
        let target = self.store.view(holder).field_ptr(field);
        if target.is_null() {
            return None;
        }
        let target_heap = self.heap_of(target);
        if self.is_ancestor_or_self(target_heap, holder_heap) {
            return None;
        }
        Some(EntanglementViolation {
            holder,
            field,
            holder_heap,
            holder_depth: self.depth(holder_heap),
            holder_chunk: self.store.chunk(holder.chunk()).forensics(),
            target,
            target_heap,
            target_depth: self.depth(target_heap),
            target_chunk: self.store.chunk(target.chunk()).forensics(),
        })
    }

    /// Walks every pointer field of every object in every live heap and checks the
    /// disentanglement invariant: each pointee's heap is an ancestor of (or equal to)
    /// the pointer's heap. Returns one [`EntanglementViolation`] per offending field,
    /// each carrying the chunk forensics of both ends.
    ///
    /// This is a debugging / property-testing facility: it is O(heap size) and assumes
    /// the hierarchy is quiescent while it runs.
    pub fn check_disentangled(&self) -> Vec<EntanglementViolation> {
        let mut violations = Vec::new();
        for idx in 0..self.heaps.len() {
            let id = HeapId::from_index(idx);
            if !self.heap(id).is_live() {
                continue;
            }
            self.for_each_object(id, |obj, view| {
                violations
                    .extend((0..view.n_ptr()).filter_map(|f| self.entanglement_of(obj, f, id)));
            });
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hh_objmodel::ObjKind;

    fn registry() -> HeapRegistry {
        HeapRegistry::new(Arc::new(ChunkStore::new(256)))
    }

    #[test]
    fn root_and_children_depths() {
        let reg = registry();
        let root = reg.new_root_heap();
        let a = reg.new_child_heap(root);
        let b = reg.new_child_heap(root);
        let aa = reg.new_child_heap(a);
        assert_eq!(reg.depth(root), 0);
        assert_eq!(reg.depth(a), 1);
        assert_eq!(reg.depth(b), 1);
        assert_eq!(reg.depth(aa), 2);
        assert_eq!(reg.heap(aa).parent(), a);
        assert_eq!(reg.n_heaps(), 4);
    }

    #[test]
    fn heap_of_fresh_allocation() {
        let reg = registry();
        let root = reg.new_root_heap();
        let child = reg.new_child_heap(root);
        let p = reg.alloc_obj(child, Header::new(1, 0, ObjKind::Ref));
        assert_eq!(reg.heap_of(p), child);
        let q = reg.alloc_obj(root, Header::new(1, 0, ObjKind::Ref));
        assert_eq!(reg.heap_of(q), root);
    }

    #[test]
    fn join_redirects_heap_of_and_depth() {
        let reg = registry();
        let root = reg.new_root_heap();
        let child = reg.new_child_heap(root);
        let p = reg.alloc_obj(child, Header::new(2, 0, ObjKind::Tuple));
        reg.join_heap(root, child);
        assert_eq!(reg.heap_of(p), root);
        assert_eq!(reg.depth(child), 0, "resolved depth follows the merge");
        assert_eq!(reg.resolve(child), root);
        assert!(!reg.heap(child).is_live());
        // Allocating "into" the merged heap goes to the parent.
        let q = reg.alloc_obj(child, Header::new(1, 0, ObjKind::Ref));
        assert_eq!(reg.heap_of(q), root);
    }

    #[test]
    fn chained_joins_resolve_to_root() {
        let reg = registry();
        let root = reg.new_root_heap();
        let mut ids = vec![root];
        for _ in 0..10 {
            let child = reg.new_child_heap(*ids.last().unwrap());
            ids.push(child);
        }
        let deepest = *ids.last().unwrap();
        let p = reg.alloc_obj(deepest, Header::new(1, 0, ObjKind::Ref));
        // Join bottom-up.
        for w in ids.windows(2).rev() {
            reg.join_heap(w[0], w[1]);
        }
        assert_eq!(reg.heap_of(p), root);
        for &id in &ids {
            assert_eq!(reg.resolve(id), root);
        }
    }

    #[test]
    fn ancestor_relation() {
        let reg = registry();
        let root = reg.new_root_heap();
        let a = reg.new_child_heap(root);
        let b = reg.new_child_heap(root);
        let aa = reg.new_child_heap(a);
        assert!(reg.is_ancestor_or_self(root, aa));
        assert!(reg.is_ancestor_or_self(a, aa));
        assert!(reg.is_ancestor_or_self(aa, aa));
        assert!(!reg.is_ancestor_or_self(b, aa));
        assert!(!reg.is_ancestor_or_self(aa, a));
        // After joining a into root, root is still an ancestor of aa through the merge.
        reg.join_heap(root, a);
        assert!(reg.is_ancestor_or_self(root, aa));
        assert!(
            reg.is_ancestor_or_self(a, aa),
            "merged heap resolves to root"
        );
    }

    #[test]
    fn disentanglement_checker_accepts_up_pointers_and_flags_down_pointers() {
        let reg = registry();
        let root = reg.new_root_heap();
        let child = reg.new_child_heap(root);
        let parent_obj = reg.alloc_obj(root, Header::new(1, 1, ObjKind::Ref));
        let child_obj = reg.alloc_obj(child, Header::new(1, 1, ObjKind::Ref));
        // Up-pointer: child -> root object. Allowed.
        reg.store().view(child_obj).set_field_ptr(0, parent_obj);
        assert!(reg.check_disentangled().is_empty());
        // Down-pointer: root object -> child object. Violation.
        reg.store().view(parent_obj).set_field_ptr(0, child_obj);
        let violations = reg.check_disentangled();
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].holder_heap, root);
        assert_eq!(violations[0].target_heap, child);
        assert_eq!(violations[0].holder_depth, 0);
        assert_eq!(violations[0].target_depth, 1);
        assert_eq!(violations[0].field, 0);
        // Joining the child into the root resolves the violation (same heap now).
        reg.join_heap(root, child);
        assert!(reg.check_disentangled().is_empty());
    }

    #[test]
    fn cross_pointer_between_siblings_is_flagged() {
        let reg = registry();
        let root = reg.new_root_heap();
        let left = reg.new_child_heap(root);
        let right = reg.new_child_heap(root);
        let l = reg.alloc_obj(left, Header::new(1, 1, ObjKind::Ref));
        let r = reg.alloc_obj(right, Header::new(1, 1, ObjKind::Ref));
        reg.store().view(l).set_field_ptr(0, r);
        let violations = reg.check_disentangled();
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].holder_heap, left);
        assert_eq!(violations[0].target_heap, right);
        // Both ends report their chunk forensics (fresh chunks: active, untagged).
        assert!(!violations[0].holder_chunk.retired);
        assert_eq!(violations[0].target_chunk.gc_epoch, 0);
    }

    #[test]
    fn adoption_into_a_just_merged_heap_lands_on_its_parent() {
        let reg = registry();
        let root = reg.new_root_heap();
        let child = reg.new_child_heap(root);
        // The to-space of a collection of `child` that finishes after the join.
        let survivors = reg.store().alloc_chunk(child.raw(), 16).id();
        reg.join_heap(root, child);
        let back = reg.heap(child).adopt_collected_chunks(vec![survivors], 16);
        assert_eq!(back, Err(vec![survivors]), "a merged heap adopts nothing");
        assert_eq!(reg.heap(child).n_chunks(), 0);
        reg.adopt_collected(child, vec![survivors], 16);
        assert_eq!(reg.heap(root).chunks(), vec![survivors]);
        // Survivors never count toward the collection trigger.
        assert_eq!(reg.heap(root).allocated_words(), 0);
    }

    #[test]
    fn adoption_racing_the_join_never_strands_survivors() {
        let reg = registry();
        for _ in 0..200 {
            let root = reg.new_root_heap();
            let child = reg.new_child_heap(root);
            let own = reg
                .alloc_obj(child, Header::new(2, 0, ObjKind::Tuple))
                .chunk();
            let survivors = reg.store().alloc_chunk(child.raw(), 16).id();
            std::thread::scope(|s| {
                s.spawn(|| reg.join_heap(root, child));
                s.spawn(|| reg.adopt_collected(child, vec![survivors], 16));
            });
            assert_eq!(
                reg.heap(child).n_chunks(),
                0,
                "survivors stranded on a merged heap"
            );
            let mut on_root = reg.heap(root).chunks();
            on_root.sort();
            let mut expected = vec![own, survivors];
            expected.sort();
            assert_eq!(on_root, expected);
            reg.dispose_subtree(root);
        }
    }

    #[test]
    fn dispose_subtree_retires_every_chunk() {
        let reg = registry();
        let root = reg.new_root_heap();
        let child = reg.new_child_heap(root);
        let _p = reg.alloc_obj(root, Header::new(3, 0, ObjKind::Tuple));
        let _q = reg.alloc_obj(child, Header::new(3, 0, ObjKind::Tuple));
        let live_before = reg.store().stats().live_words;
        assert!(live_before > 0);
        // A child joins its parent when its task ends, so a finished run's tree is
        // its root.
        reg.join_heap(root, child);
        let retired = reg.dispose_subtree(root);
        assert!(retired >= 2);
        assert_eq!(reg.heap(root).n_chunks(), 0);
        assert_eq!(reg.heap(child).n_chunks(), 0);
        let s = reg.store().stats();
        assert_eq!(s.live_words, 0);
        assert_eq!(s.chunks_quarantined, retired);
    }

    #[test]
    fn concurrent_child_creation_and_allocation() {
        let reg = Arc::new(HeapRegistry::new(Arc::new(ChunkStore::new(256))));
        let root = reg.new_root_heap();
        let mut handles = Vec::new();
        for _ in 0..8 {
            let reg = Arc::clone(&reg);
            handles.push(std::thread::spawn(move || {
                let mut ptrs = Vec::new();
                for _ in 0..50 {
                    let child = reg.new_child_heap(root);
                    let p = reg.alloc_obj(child, Header::new(3, 0, ObjKind::Tuple));
                    assert_eq!(reg.heap_of(p), child);
                    reg.join_heap(root, child);
                    assert_eq!(reg.heap_of(p), root);
                    ptrs.push(p);
                }
                ptrs
            }));
        }
        let mut all: Vec<ObjPtr> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 8 * 50);
        for p in all {
            assert_eq!(reg.heap_of(p), root);
        }
    }
}
