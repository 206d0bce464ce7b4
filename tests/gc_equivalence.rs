//! GC v2 acceptance tests: the parallel zone collector must be observably
//! equivalent to the serial (`gc_workers = 1`, ablation A4) collector — same
//! workload checksums, zero entanglement, comparable footprint — on the
//! mutator-heavy and adversarial workloads under tiny GC thresholds, and the
//! team counters must fire when a team is configured.

use hierheap::workloads::adversary::entangle;
use hierheap::workloads::mutator::{frontier_bfs, lru_churn, union_find};
use hierheap::workloads::wavefront::wavefront;
use hierheap::{HhConfig, HhRuntime, ObjPtr, ParCtx, Runtime};

/// Tiny chunks and GC thresholds so collections fire constantly, on a pool big
/// enough that a team actually has members to draft.
///
/// The threshold must stay below what one *stolen* task of the smallest workload
/// allocates on its own (~7.5K words for an lru-churn task): when every task is
/// stolen into a private heap — likely on a loaded machine — no heap sees the
/// other tasks' allocation, and a threshold above the per-task volume would let
/// the whole run finish without a single collection.
fn cfg(gc_workers: usize) -> HhConfig {
    HhConfig {
        n_workers: 4,
        gc_workers,
        chunk_words: 256,
        gc_threshold_words: 4 * 1024,
        check_invariants: true,
        ..HhConfig::default()
    }
}

/// Runs `work` under the serial collector and under a team of 8 (clamped to the
/// pool), asserting checksum equality, no entanglement, collections on both
/// sides, and that the parallel run's resident footprint stays within a small
/// factor of the serial run's (parallel evacuation wastes bounded words on
/// per-member partial chunks and CAS-race fillers, never unbounded ones).
fn assert_equivalent(work: impl Fn(&hierheap::HhCtx) -> u64 + Send + Copy) {
    // Borrower collections are best-effort (skipped whenever a stolen ancestor
    // holds the steal gate), so under adversarial scheduling — e.g. a loaded CI
    // machine where a stolen task stays in flight across every task's threshold
    // check — a run can legitimately finish with zero mid-run collections. The
    // root is an owner (never gated) and its heap absorbs all joined
    // allocation, so one final root-level threshold check makes `gc_count > 0`
    // deterministic without forcing a collection that thresholds didn't earn.
    let work = move |ctx: &hierheap::HhCtx| {
        let sum = work(ctx);
        ctx.maybe_collect();
        sum
    };
    let serial = HhRuntime::new(cfg(1));
    let serial_sum = serial.run(work);
    assert_eq!(
        serial.check_disentangled(),
        0,
        "serial run left entanglement"
    );
    let s = serial.stats();
    assert!(s.gc_count > 0, "thresholds must force collections");
    assert_eq!(
        s.gc_parallel_collections, 0,
        "gc_workers=1 must not form teams"
    );

    let parallel = HhRuntime::new(cfg(8));
    let parallel_sum = parallel.run(work);
    assert_eq!(
        parallel.check_disentangled(),
        0,
        "parallel run left entanglement"
    );
    let p = parallel.stats();
    assert_eq!(serial_sum, parallel_sum, "gc_workers=1 ≢ gc_workers=N");
    assert!(p.gc_count > 0, "thresholds must force collections");
    assert_eq!(
        p.gc_parallel_collections, p.gc_count,
        "every collection must run in team mode when a team is configured"
    );
    assert!(
        p.live_words <= s.live_words * 4 + 64 * 1024,
        "parallel collector footprint blew up: {} vs serial {}",
        p.live_words,
        s.live_words
    );
}

#[test]
fn serial_and_parallel_gc_agree_on_union_find() {
    assert_equivalent(|ctx| union_find(ctx, 3_000, 4_000, 256, 0xDEAD));
}

#[test]
fn serial_and_parallel_gc_agree_on_bfs_frontier() {
    assert_equivalent(|ctx| frontier_bfs(ctx, 2_000, 6, 128, 0xBEEF));
}

#[test]
fn serial_and_parallel_gc_agree_on_lru_churn() {
    assert_equivalent(|ctx| lru_churn(ctx, 8, 4_000, 64, 2_048, 0xF00D));
}

#[test]
fn serial_and_parallel_gc_agree_on_wavefront() {
    assert_equivalent(|ctx| wavefront(ctx, 64, 64, 48, 16, 0x7A3E));
}

#[test]
fn serial_and_parallel_gc_agree_on_entangle() {
    // 70% of ops cross subtrees: promotion traffic interleaves with the
    // constantly firing collections on both collector shapes.
    assert_equivalent(|ctx| entangle(ctx, 8, 4_000, 700, 0xAD55));
}

/// A forced collection of a large live set under a configured team bumps the
/// team counters, survives intact, and reports a max pause.
#[test]
fn forced_team_collection_preserves_live_data_and_counts() {
    let rt = HhRuntime::new(HhConfig {
        n_workers: 4,
        gc_workers: 4,
        chunk_words: 256,
        gc_threshold_words: usize::MAX / 2, // only the forced collection runs
        check_invariants: true,
        ..HhConfig::default()
    });
    rt.run(|ctx| {
        // A pinned list of 4000 cells plus plenty of garbage.
        let mut head = ObjPtr::NULL;
        for k in 0..4_000u64 {
            head = ctx.alloc_cons(ObjPtr::NULL, head, k);
            for _ in 0..2 {
                let _junk = ctx.alloc_data_array(16);
            }
        }
        ctx.pin(head);
        assert!(ctx.force_collect());
        // The list survived the evacuation in order.
        let mut cur = head;
        // `head` itself was a stale pointer rewritten in the pin set; re-read it.
        assert_eq!(ctx.root_count(), 1);
        let mut expect = 4_000u64;
        // Walk through the forwarded root: read_imm on the (possibly stale) head
        // still resolves because retired chunks stay readable, but the pinned slot
        // was rewritten — walk from the stale head through forwarding-safe reads.
        while !cur.is_null() {
            expect -= 1;
            assert_eq!(ctx.read_imm(cur, 2), expect);
            cur = ctx.read_imm_ptr(cur, 1);
        }
        assert_eq!(expect, 0);
        // `head` is the stale from-space address while the pin slot holds the
        // rewritten to-space one; unpin must resolve through forwarding so
        // pin/unpin stays balanced across collections.
        ctx.unpin(head);
        assert_eq!(
            ctx.root_count(),
            0,
            "stale-pointer unpin left the pin behind"
        );
    });
    let s = rt.stats();
    assert!(s.gc_count >= 1);
    assert_eq!(s.gc_parallel_collections, s.gc_count);
    assert!(s.gc_copied_words >= 4_000 * 5, "live list must be copied");
    assert!(s.gc_max_pause_ns > 0, "max pause must be recorded");
    assert_eq!(rt.check_disentangled(), 0);
}

/// The STW baseline's global collection now drafts its safepoint-parked workers:
/// under allocation pressure the team counter fires and results stay correct.
#[test]
fn stw_collections_run_in_team_mode() {
    use hierheap::StwRuntime;
    let rt = StwRuntime::with_params(4, 256, 20_000);
    let total = rt.run(|ctx| {
        fn churn<C: ParCtx>(c: &C, depth: usize, keep: ObjPtr) -> u64 {
            if depth == 0 {
                for _ in 0..50 {
                    let _g = c.alloc_data_array(64);
                }
                return c.read_mut(keep, 0);
            }
            let (a, b) = c.join(|c| churn(c, depth - 1, keep), |c| churn(c, depth - 1, keep));
            a + b
        }
        let keep = ctx.alloc_ref_data(3);
        ctx.pin(keep);
        churn(ctx, 4, keep)
    });
    assert_eq!(total, 3 * 16);
    let s = rt.stats();
    assert!(s.gc_count >= 1, "pressure must force a collection");
    assert_eq!(
        s.gc_parallel_collections, s.gc_count,
        "every STW collection must draft its parked workers"
    );
    assert!(s.gc_max_pause_ns > 0);
}
