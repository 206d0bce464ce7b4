//! Behavioural integration tests for the hierarchical-heap runtime: promotion, master
//! copies, disentanglement, collection, and concurrency.

use hh_api::{ParCtx, Runtime};
use hh_objmodel::{ObjKind, ObjPtr};
use hh_runtime::{HhConfig, HhRuntime};

fn runtime(workers: usize) -> HhRuntime {
    HhRuntime::new(HhConfig {
        n_workers: workers,
        chunk_words: 1024,
        gc_threshold_words: 64 * 1024,
        ..Default::default()
    })
}

/// A runtime with the v1 eager per-fork child heaps. The promotion tests below write
/// from an *unstolen* child into a parent object; under the default lazy steal-time
/// heap policy such a child runs in the parent's heap (the write is same-heap and
/// correctly promotes nothing), so to exercise the promotion machinery
/// deterministically they pin the eager shape. Steal-driven promotion under the lazy
/// policy is covered by `prop_random_mutation_trees_stay_disentangled` and the
/// cross-runtime suite.
fn eager_runtime(workers: usize) -> HhRuntime {
    HhRuntime::new(HhConfig {
        n_workers: workers,
        chunk_words: 1024,
        gc_threshold_words: 64 * 1024,
        lazy_child_heaps: false,
        ..Default::default()
    })
}

/// A reference allocated by the parent and written by both children with locally
/// allocated data: the canonical entanglement scenario of §2. Writing must promote, all
/// reads must go through the master copy, and the final hierarchy must be disentangled.
#[test]
fn children_writing_local_data_into_parent_ref_promotes() {
    let rt = eager_runtime(2);
    let observed = rt.run(|ctx| {
        let shared = ctx.alloc_ref_ptr(ObjPtr::NULL);
        let (_, _) = ctx.join(
            |c| {
                // Child 1: write a locally allocated pair into the parent's ref.
                let local = c.alloc(0, 2, ObjKind::ArrayData);
                c.write_nonptr(local, 0, 111);
                c.write_nonptr(local, 1, 222);
                c.write_ptr(shared, 0, local);
            },
            |c| {
                // Child 2: read whatever the ref holds (racy which child wins, but the
                // value must always be a fully readable, promoted object or NULL).
                let seen = c.read_mut_ptr(shared, 0);
                if !seen.is_null() {
                    let a = c.read_mut(seen, 0);
                    let b = c.read_mut(seen, 1);
                    assert!((a, b) == (111, 222) || (a, b) == (0, 0));
                }
            },
        );
        let final_ptr = ctx.read_mut_ptr(shared, 0);
        assert!(!final_ptr.is_null());
        (ctx.read_mut(final_ptr, 0), ctx.read_mut(final_ptr, 1))
    });
    assert_eq!(observed, (111, 222));
    assert_eq!(rt.check_disentangled(), 0);
    let stats = rt.stats();
    assert!(
        stats.promoted_objects >= 1,
        "a promotion must have occurred"
    );
}

/// Promotion through several levels: the deepest task writes into a root-allocated ref,
/// so the promoted copy must land at the root and every intermediate read must agree.
#[test]
fn deep_promotion_reaches_the_root() {
    let rt = eager_runtime(2);
    let value = rt.run(|ctx| {
        let shared = ctx.alloc_ref_ptr(ObjPtr::NULL);
        fn descend<C: ParCtx>(c: &C, shared: ObjPtr, depth: usize) {
            if depth == 0 {
                let local = c.alloc(0, 1, ObjKind::ArrayData);
                c.write_nonptr(local, 0, 4242);
                c.write_ptr(shared, 0, local);
            } else {
                c.join(|c| descend(c, shared, depth - 1), |_| ());
            }
        }
        descend(ctx, shared, 6);
        let p = ctx.read_mut_ptr(shared, 0);
        ctx.read_mut(p, 0)
    });
    assert_eq!(value, 4242);
    assert_eq!(rt.check_disentangled(), 0);
    assert!(rt.stats().promoted_objects >= 1);
}

/// Writing a pointer to data that already lives at or above the target's heap must not
/// promote anything (the "non-promoting write" column of Figure 8).
#[test]
fn up_pointer_writes_do_not_promote() {
    let rt = runtime(2);
    rt.run(|ctx| {
        let ancestor_data = ctx.alloc_ref_data(5);
        let shared = ctx.alloc_ref_ptr(ObjPtr::NULL);
        let (_, _) = ctx.join(
            |c| c.write_ptr(shared, 0, ancestor_data),
            |c| {
                // A purely local structure with pointer writes: also no promotion.
                let cell = c.alloc_ref_ptr(ObjPtr::NULL);
                let local = c.alloc_ref_data(1);
                c.write_ptr(cell, 0, local);
            },
        );
    });
    assert_eq!(rt.stats().promoted_objects, 0);
    assert_eq!(rt.check_disentangled(), 0);
}

/// Transitive promotion: writing a list of locally allocated cons cells into a parent
/// ref must copy the whole list upward, and reads through the promoted list must see the
/// original values.
#[test]
fn promotion_copies_transitively_reachable_data() {
    let rt = eager_runtime(2);
    let collected = rt.run(|ctx| {
        let shared = ctx.alloc_ref_ptr(ObjPtr::NULL);
        let (_, _) = ctx.join(
            |c| {
                let mut list = ObjPtr::NULL;
                for i in 0..20u64 {
                    let payload = c.alloc_ref_data(i * 10);
                    list = c.alloc_cons(payload, list, i);
                }
                c.write_ptr(shared, 0, list);
            },
            |_| (),
        );
        // Parent walks the promoted list.
        let mut out = Vec::new();
        let mut cur = ctx.read_mut_ptr(shared, 0);
        while !cur.is_null() {
            let payload = ctx.read_imm_ptr(cur, 0);
            let tag = ctx.read_imm(cur, 2);
            out.push((tag, ctx.read_mut(payload, 0)));
            cur = ctx.read_imm_ptr(cur, 1);
        }
        out
    });
    assert_eq!(collected.len(), 20);
    for (i, (tag, val)) in collected.iter().rev().enumerate() {
        assert_eq!(*tag, i as u64);
        assert_eq!(*val, i as u64 * 10);
    }
    assert_eq!(rt.check_disentangled(), 0);
    let stats = rt.stats();
    assert!(
        stats.promoted_objects >= 40,
        "20 cons cells + 20 payload refs must be promoted, saw {}",
        stats.promoted_objects
    );
}

/// Repeated writes at decreasing depths create chains of copies; the master copy (the
/// shallowest) must be the one all mutable accesses agree on.
#[test]
fn master_copy_is_authoritative_after_repeated_promotion() {
    let rt = runtime(2);
    let (v_before, v_after) = rt.run(|ctx| {
        let root_ref = ctx.alloc_ref_ptr(ObjPtr::NULL);
        // A mutable cell allocated two levels down gets promoted to the root when the
        // grandchild writes it into the root ref.
        let cell = ctx
            .join(
                |c| {
                    c.join(
                        |cc| {
                            let cell = cc.alloc_ref_data(7);
                            cc.write_ptr(root_ref, 0, cell);
                            cell
                        },
                        |_| ObjPtr::NULL,
                    )
                    .0
                },
                |_| ObjPtr::NULL,
            )
            .0;
        // `cell` is a stale pointer to the original (deep) copy; the master lives at the
        // root now. Mutable reads and writes through either pointer must agree.
        let before = ctx.read_mut(cell, 0);
        ctx.write_nonptr(cell, 0, 99);
        let through_root = ctx.read_mut_ptr(root_ref, 0);
        let after = ctx.read_mut(through_root, 0);
        (before, after)
    });
    assert_eq!(v_before, 7);
    assert_eq!(
        v_after, 99,
        "update through the old copy must reach the master"
    );
    assert_eq!(rt.check_disentangled(), 0);
}

/// Concurrent compare-and-swap increments from many tasks on a root-allocated counter.
#[test]
fn cas_increments_are_not_lost() {
    let rt = runtime(4);
    let total = 64u64;
    let final_value = rt.run(|ctx| {
        let counter = ctx.alloc_ref_data(0);
        fn bump<C: ParCtx>(c: &C, counter: ObjPtr, n: u64) {
            if n == 1 {
                loop {
                    let cur = c.read_mut(counter, 0);
                    if c.cas_nonptr(counter, 0, cur, cur + 1).is_ok() {
                        break;
                    }
                }
            } else {
                c.join(|c| bump(c, counter, n / 2), |c| bump(c, counter, n - n / 2));
            }
        }
        bump(ctx, counter, total);
        ctx.read_mut(counter, 0)
    });
    assert_eq!(final_value, total);
    assert_eq!(rt.check_disentangled(), 0);
}

/// Immutable reads must be valid on any copy: build a tuple, promote it, and check the
/// stale pointer still yields the same immutable fields.
#[test]
fn immutable_reads_agree_across_copies() {
    let rt = runtime(2);
    rt.run(|ctx| {
        let shared = ctx.alloc_ref_ptr(ObjPtr::NULL);
        let stale = ctx
            .join(
                |c| {
                    let t = c.alloc(0, 3, ObjKind::Tuple);
                    c.write_nonptr(t, 0, 1);
                    c.write_nonptr(t, 1, 2);
                    c.write_nonptr(t, 2, 3);
                    c.write_ptr(shared, 0, t);
                    t
                },
                |_| ObjPtr::NULL,
            )
            .0;
        let master = ctx.read_mut_ptr(shared, 0);
        for f in 0..3 {
            assert_eq!(ctx.read_imm(stale, f), ctx.read_imm(master, f));
        }
    });
}

/// Leaf-heap collection preserves pinned data, collects garbage from the accounting
/// point of view, and leaves values intact.
#[test]
fn collection_preserves_pinned_survivors() {
    let rt = HhRuntime::new(HhConfig {
        n_workers: 1,
        chunk_words: 256,
        gc_threshold_words: 1 << 20,
        ..Default::default()
    });
    rt.run(|ctx| {
        // Survivor: a small list we pin.
        let mut survivor = ObjPtr::NULL;
        for i in 0..10u64 {
            survivor = ctx.alloc_cons(ObjPtr::NULL, survivor, i);
        }
        ctx.pin(survivor);
        // Garbage: large arrays we drop on the floor.
        for _ in 0..50 {
            let g = ctx.alloc_data_array(1000);
            ctx.write_nonptr(g, 0, 1);
        }
        ctx.force_collect();
        // The survivor list is still intact when read through fresh master lookups.
        let mut cur = survivor;
        // After collection the pinned root vector was updated, but our local copy may be
        // stale; mutable reads resolve through forwarding, immutable reads are valid on
        // any copy, so walking still works.
        let mut tags = Vec::new();
        while !cur.is_null() {
            tags.push(ctx.read_imm(cur, 2));
            cur = ctx.read_imm_ptr(cur, 1);
        }
        assert_eq!(tags, (0..10u64).rev().collect::<Vec<_>>());
        ctx.unpin(survivor);
    });
    let stats = rt.stats();
    assert_eq!(stats.gc_count, 1);
    assert!(stats.gc_copied_words > 0);
    assert!(
        stats.gc_copied_words < 5_000,
        "garbage arrays must not be copied (copied {} words)",
        stats.gc_copied_words
    );
}

/// Lazy steal-time heaps: tasks that *borrow* the root heap still perform threshold
/// collections when nothing else can observe the heap (deterministically so on one
/// worker, where no steal can ever be in flight), and the collection treats the pins
/// of every suspended ancestor frame as roots — a leaf must never collect away an
/// object its grandparent pinned.
#[test]
fn lazy_borrower_collections_preserve_ancestor_pins() {
    let rt = HhRuntime::new(HhConfig {
        n_workers: 1,
        chunk_words: 256,
        gc_threshold_words: 10_000,
        ..Default::default()
    });
    rt.run(|ctx| {
        // Pin in the root frame, then descend through borrowing forks whose leaves
        // allocate garbage and poll; the collections they trigger run against the
        // shared root heap.
        let keep = ctx.alloc_data_array(32);
        for i in 0..32 {
            ctx.write_nonptr(keep, i, (i as u64) * 7);
        }
        ctx.pin(keep);
        fn churn<C: ParCtx>(c: &C, depth: usize, keep: ObjPtr) {
            if depth == 0 {
                for _ in 0..20 {
                    let _garbage = c.alloc_data_array(200);
                    c.maybe_collect();
                }
            } else {
                c.join(
                    |c| churn(c, depth - 1, keep),
                    |c| {
                        // The right branch pins through its own (borrowing) frame
                        // too; both pins must survive collections triggered deeper.
                        c.pin(keep);
                        churn(c, depth - 1, keep);
                        c.unpin(keep);
                    },
                );
            }
        }
        churn(ctx, 3, keep);
        for i in 0..32 {
            assert_eq!(ctx.read_mut(keep, i), (i as u64) * 7, "slot {i}");
        }
        ctx.unpin(keep);
    });
    let stats = rt.stats();
    assert!(stats.heaps_elided > 0, "all forks must have been elided");
    assert!(
        stats.gc_count >= 1,
        "borrowing leaves must still collect under pressure (got {})",
        stats.gc_count
    );
    assert_eq!(rt.check_disentangled(), 0);
}

/// The GC threshold actually triggers collections through `maybe_collect`.
#[test]
fn maybe_collect_honours_threshold() {
    let rt = HhRuntime::new(HhConfig {
        n_workers: 1,
        chunk_words: 256,
        gc_threshold_words: 10_000,
        ..Default::default()
    });
    rt.run(|ctx| {
        for _ in 0..100 {
            let _garbage = ctx.alloc_data_array(500);
            ctx.maybe_collect();
        }
    });
    assert!(
        rt.stats().gc_count >= 1,
        "threshold crossings must trigger collections"
    );
}

/// A tournament-style reduction: every join point allocates a node and sets "parent
/// pointers" in both operands — the representative local, non-promoting write pattern.
#[test]
fn tournament_reduction_uses_only_local_writes() {
    let rt = runtime(4);
    let max = rt.run(|ctx| {
        fn tourney<C: ParCtx>(c: &C, lo: u64, hi: u64) -> (ObjPtr, u64) {
            if hi - lo == 1 {
                // Leaf contestant: [fitness, parent-ptr] — parent stored as a ptr field.
                let node = c.alloc(1, 1, ObjKind::Node);
                c.write_nonptr(node, 1, hh_api::hash64(lo) % 1_000_000);
                (node, c.read_mut(node, 1))
            } else {
                let mid = lo + (hi - lo) / 2;
                let ((ln, lv), (rn, rv)) = c.join(|c| tourney(c, lo, mid), |c| tourney(c, mid, hi));
                let winner_val = lv.max(rv);
                let node = c.alloc(1, 1, ObjKind::Node);
                c.write_nonptr(node, 1, winner_val);
                // The loser's parent pointer records who eliminated it.
                c.write_ptr(ln, 0, node);
                c.write_ptr(rn, 0, node);
                (node, winner_val)
            }
        }
        let (_root, max) = tourney(ctx, 0, 64);
        max
    });
    let expected = (0..64u64)
        .map(|i| hh_api::hash64(i) % 1_000_000)
        .max()
        .unwrap();
    assert_eq!(max, expected);
    assert_eq!(rt.check_disentangled(), 0);
    // Parent pointers are written after the children's heaps have been joined into the
    // writer's heap, so these are local writes and no promotion is needed.
    assert_eq!(rt.stats().promoted_objects, 0);
}

/// Random fork trees where every leaf performs a mix of local allocation, up-pointer
/// writes, and down-pointer (promoting) writes into a root-allocated pointer array.
/// Afterwards the hierarchy must be disentangled and every array slot must hold
/// either NULL or a readable object with the leaf's signature value.
///
/// Randomized with a deterministic seed (the build has no network access for proptest).
#[test]
fn prop_random_mutation_trees_stay_disentangled() {
    let mut rng = hh_api::Rng::new(0xBEE5);
    for _case in 0..24 {
        let depth = 1 + (rng.next_u64() % 4) as usize;
        let slots = 1 + (rng.next_u64() % 7) as usize;
        let seed = rng.next_u64();
        let workers = 1 + (rng.next_u64() % 3) as usize;
        let rt = runtime(workers);
        let slots_u64 = slots as u64;
        let ok = rt.run(move |ctx| {
            let table = ctx.alloc_ptr_array(slots);
            fn leaf<C: ParCtx>(c: &C, table: ObjPtr, slots: u64, id: u64) {
                // Local structure.
                let local = c.alloc(1, 1, ObjKind::Node);
                c.write_nonptr(local, 1, id);
                let payload = c.alloc_ref_data(id.wrapping_mul(3));
                c.write_ptr(local, 0, payload);
                // Down-pointer write into the root table: must promote.
                let slot = (hh_api::hash64(id) % slots) as usize;
                c.write_ptr(table, slot, local);
            }
            fn go<C: ParCtx>(c: &C, table: ObjPtr, slots: u64, depth: usize, id: u64) {
                if depth == 0 {
                    leaf(c, table, slots, id);
                } else {
                    c.join(
                        |c| go(c, table, slots, depth - 1, id * 2 + 1),
                        |c| go(c, table, slots, depth - 1, id * 2 + 2),
                    );
                }
            }
            go(ctx, table, slots_u64, depth, seed % 1024);
            // Validate every slot.
            for s in 0..slots {
                let p = ctx.read_mut_ptr(table, s);
                if p.is_null() {
                    continue;
                }
                let id = ctx.read_mut(p, 1);
                let payload = ctx.read_mut_ptr(p, 0);
                if payload.is_null() {
                    return false;
                }
                if ctx.read_mut(payload, 0) != id.wrapping_mul(3) {
                    return false;
                }
            }
            true
        });
        assert!(ok, "a table slot held an inconsistent object");
        assert_eq!(rt.check_disentangled(), 0);
    }
}

/// Promotion v2: a twice-promoted object carries a two-hop forwarding chain; the
/// first resolution through the stale pointer walks both hops and **path-compresses**
/// the chain, so later resolutions are single-hop. Pins the `fwd_hops` /
/// `fwd_compressions` counter semantics.
#[test]
fn double_promotion_chain_is_path_compressed_on_resolution() {
    let rt = eager_runtime(1);
    rt.run(|ctx| {
        // Depth 0: the outer holder.
        let holder0 = ctx.alloc_ref_ptr(ObjPtr::NULL);
        ctx.join(
            |c1| {
                // Depth 1: the inner holder.
                let holder1 = c1.alloc_ref_ptr(ObjPtr::NULL);
                let stale = c1
                    .join(
                        |c2| {
                            // Depth 2: allocate and publish into depth 1 — first
                            // promotion (chain d2 → d1).
                            let obj = c2.alloc_ref_data(42);
                            c2.write_ptr(holder1, 0, obj);
                            obj
                        },
                        |_| ObjPtr::NULL,
                    )
                    .0;
                // Publish the depth-1 master into depth 0 — second promotion: the
                // original now forwards d2 → d1 → d0.
                let master1 = c1.read_mut_ptr(holder1, 0);
                c1.write_ptr(holder0, 0, master1);
                // First read through the stale depth-2 pointer: walks 2 hops and
                // compresses the chain to the master.
                assert_eq!(c1.read_mut(stale, 0), 42);
                // Second read: the compressed chain is a single hop.
                assert_eq!(c1.read_mut(stale, 0), 42);
            },
            |_| (),
        );
    });
    let s = rt.stats();
    assert!(
        s.promotions >= 2,
        "two promoting writes, saw {}",
        s.promotions
    );
    assert!(
        s.fwd_compressions >= 1,
        "the two-hop chain must have been compressed (hops {}, compressions {})",
        s.fwd_hops,
        s.fwd_compressions
    );
    assert!(
        s.fwd_hops >= 3,
        "expected 2 hops on the first resolution + 1 after compression, saw {}",
        s.fwd_hops
    );
    assert_eq!(rt.check_disentangled(), 0);
}

/// A heap's owner keeps bump-allocating into it while stolen tasks promote into
/// it. Under the lazy policy the left branch of a fork runs in the parent's heap
/// H; everything the stolen right branch publishes into H's holder array is
/// copied into H's promotion chunk by promotions holding H's WRITE lock. Chunks of
/// 64 words make the two cursors' refills race for H's chunk list. Every object must keep its own words
/// (its payload survives intact), the counters must be exact, and the hierarchy
/// disentangled. At least two workers, so the right branch is always stolen.
#[test]
fn owner_allocation_races_promotions_into_its_heap() {
    use std::sync::atomic::{AtomicBool, Ordering};
    const OWNER_OBJECTS: u64 = 40_000;
    const LEAVES: usize = 16;
    const PER_LEAF: usize = 400;
    const PUBLISHED: usize = LEAVES * PER_LEAF;
    // A published object: three data fields.
    const PUBLISHED_WORDS: u64 = 5;

    /// Publishes `PER_LEAF` fresh objects per leaf of `lo..hi` into `holder`.
    fn publish(c: &impl ParCtx, holder: ObjPtr, lo: usize, hi: usize) {
        if hi - lo > 1 {
            let mid = (lo + hi) / 2;
            c.join(
                |c| publish(c, holder, lo, mid),
                |c| publish(c, holder, mid, hi),
            );
            return;
        }
        for k in lo * PER_LEAF..(lo + 1) * PER_LEAF {
            let obj = c.alloc(0, 3, ObjKind::Tuple);
            for f in 0..3 {
                c.write_nonptr(obj, f, (k as u64) << 8 | f as u64);
            }
            c.write_ptr(holder, k, obj);
        }
    }

    let workers = hh_api::env_workers(4).max(2);
    let rt = HhRuntime::new(HhConfig {
        n_workers: workers,
        chunk_words: 64,
        ..Default::default()
    });
    let owner_words = rt.run(|ctx| {
        let holder = ctx.alloc_ptr_array(PUBLISHED);
        let started = AtomicBool::new(false);
        let (owned, ()) = ctx.join(
            |c| {
                // Wait for the thief, then allocate alongside its promotions.
                let mut spins = 0u32;
                while !started.load(Ordering::Acquire) {
                    spins += 1;
                    if spins.is_multiple_of(64) {
                        std::thread::yield_now();
                    } else {
                        std::hint::spin_loop();
                    }
                }
                (0..OWNER_OBJECTS)
                    .map(|k| {
                        let len = 1 + (k % 6) as usize;
                        let obj = c.alloc(0, len, ObjKind::ArrayData);
                        for f in 0..len {
                            c.write_nonptr(obj, f, !k);
                        }
                        (obj, k)
                    })
                    .collect::<Vec<_>>()
            },
            |c| {
                started.store(true, Ordering::Release);
                publish(c, holder, 0, LEAVES);
            },
        );
        for &(obj, k) in &owned {
            for f in 0..ctx.obj_len(obj) {
                assert_eq!(ctx.read_mut(obj, f), !k, "owner object {k} was overwritten");
            }
        }
        for k in 0..PUBLISHED {
            let obj = ctx.read_mut_ptr(holder, k);
            for f in 0..3 {
                let want = (k as u64) << 8 | f as u64;
                assert_eq!(ctx.read_mut(obj, f), want, "published object {k}");
            }
        }
        owned
            .iter()
            .map(|&(obj, _)| ctx.obj_len(obj) as u64 + 2)
            .sum::<u64>()
    });
    assert_eq!(rt.check_disentangled(), 0);
    let s = rt.stats();
    let published = PUBLISHED as u64;
    assert_eq!(
        (s.promotions, s.promoted_objects, s.promoted_words),
        (published, published, published * PUBLISHED_WORDS),
        "every publish promotes its one object into H"
    );
    let holder_words = PUBLISHED as u64 + 2;
    assert_eq!(
        s.allocated_words,
        holder_words + owner_words + published * PUBLISHED_WORDS
    );
}
