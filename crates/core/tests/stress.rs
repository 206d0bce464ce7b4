//! Model-based stress harness (promotion v2).
//!
//! A deterministic, seed-driven interpreter generates random programs over the
//! `ParCtx` surface — fork/join trees whose tasks allocate, read, write, CAS, build
//! immutable lists, run bulk operations, publish locally allocated structures into
//! parent-owned arrays (the promotion trigger), and poll collection — and executes
//! each program on:
//!
//! * a **sequential reference oracle** ([`model::ModelCtx`]): a plain in-memory model
//!   of the heap semantics with inline joins, no promotion, no GC — the definition of
//!   the expected checksum;
//! * all four real runtimes (`seq`, `stw`, `dlg`, `parmem`), plus `parmem` with
//!   eager per-fork heaps (every publish promotes deterministically).
//!
//! The programs are constructed so every schedule computes the same checksum:
//! parallel siblings write only disjoint slots of shared arrays — except the
//! **mailbox ops**, where both siblings CAS-add into the *same* accumulator slots
//! (addition commutes, so the sum is schedule-independent) and publish message
//! records into per-lane log slots mid-flight — and read shared mutable data only
//! after the join. A third of the seeds run with tiny GC
//! thresholds so collections, promotions, and chunk recycling interleave. The
//! hierarchical runtime runs with `check_invariants` on, so a seed that corrupts the
//! hierarchy fails at the corrupting operation, and the failing **seed is printed**
//! so `HH_STRESS_SEED=<n> cargo test -p hh-runtime --test stress` replays it.
//!
//! `HH_STRESS_SEEDS` overrides the seed count (64 in CI); `HH_WORKERS` sizes the
//! pools (the CI matrix runs 1 and 8).

use hh_api::{hash64, ObjKind, ObjPtr, ParCtx, Rng, Runtime};
use hh_baselines::{DlgRuntime, SeqRuntime, StwRuntime};
use hh_runtime::{HhConfig, HhRuntime};

mod model {
    //! The sequential reference oracle: heap semantics without a heap.

    use super::*;
    use std::cell::RefCell;

    struct MObj {
        n_ptr: usize,
        fields: Vec<u64>,
    }

    /// An in-memory model of the `ParCtx` semantics: objects are vectors of words,
    /// `join` runs both branches inline, promotion and collection do not exist.
    /// Whatever checksum a program computes here is what every real runtime and
    /// every real schedule must compute.
    pub struct ModelCtx {
        objs: RefCell<Vec<MObj>>,
        pins: RefCell<Vec<ObjPtr>>,
    }

    impl ModelCtx {
        pub fn new() -> ModelCtx {
            ModelCtx {
                objs: RefCell::new(Vec::new()),
                pins: RefCell::new(Vec::new()),
            }
        }

        pub fn run<R>(f: impl FnOnce(&ModelCtx) -> R) -> R {
            f(&ModelCtx::new())
        }
    }

    impl ParCtx for ModelCtx {
        fn alloc(&self, n_ptr: usize, n_nonptr: usize, _kind: ObjKind) -> ObjPtr {
            let mut objs = self.objs.borrow_mut();
            let idx = objs.len();
            let mut fields = vec![ObjPtr::NULL.to_bits(); n_ptr];
            fields.extend(std::iter::repeat_n(0u64, n_nonptr));
            objs.push(MObj { n_ptr, fields });
            ObjPtr::new(hh_objmodel::ChunkId(0), idx as u32)
        }
        fn read_imm(&self, obj: ObjPtr, field: usize) -> u64 {
            self.objs.borrow()[obj.offset() as usize].fields[field]
        }
        fn read_mut(&self, obj: ObjPtr, field: usize) -> u64 {
            self.read_imm(obj, field)
        }
        fn write_nonptr(&self, obj: ObjPtr, field: usize, val: u64) {
            let mut objs = self.objs.borrow_mut();
            let o = &mut objs[obj.offset() as usize];
            debug_assert!(field >= o.n_ptr);
            o.fields[field] = val;
        }
        fn write_ptr(&self, obj: ObjPtr, field: usize, ptr: ObjPtr) {
            let mut objs = self.objs.borrow_mut();
            let o = &mut objs[obj.offset() as usize];
            debug_assert!(field < o.n_ptr);
            o.fields[field] = ptr.to_bits();
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
            self.objs.borrow()[obj.offset() as usize].fields.len()
        }
        fn join<RA, RB, FA, FB>(&self, fa: FA, fb: FB) -> (RA, RB)
        where
            FA: FnOnce(&Self) -> RA + Send,
            FB: FnOnce(&Self) -> RB + Send,
        {
            (fa(self), fb(self))
        }
        fn pin(&self, obj: ObjPtr) {
            self.pins.borrow_mut().push(obj);
        }
        fn unpin(&self, obj: ObjPtr) {
            let mut pins = self.pins.borrow_mut();
            if let Some(pos) = pins.iter().rposition(|p| *p == obj) {
                pins.swap_remove(pos);
            }
        }
        fn maybe_collect(&self) {}
        fn n_workers(&self) -> usize {
            1
        }
    }
}

// ---------------------------------------------------------------------------
// The seed-driven program.
// ---------------------------------------------------------------------------

/// Builds a cons chain of `n` hash-derived values, keeping the head pinned across
/// allocations (an allocation may trigger a collection on the STW baselines).
fn build_chain<C: ParCtx>(c: &C, seed: u64, n: u64) -> ObjPtr {
    let mut head = ObjPtr::NULL;
    for k in 0..n {
        let next = c.alloc_cons(ObjPtr::NULL, head, hash64(seed ^ k));
        if !head.is_null() {
            c.unpin(head);
        }
        c.pin(next);
        head = next;
    }
    if !head.is_null() {
        c.unpin(head);
    }
    head
}

/// Folds a cons chain with `read_imm` (immutable cells are never promoted reads).
fn fold_chain<C: ParCtx>(c: &C, mut cur: ObjPtr, mut acc: u64) -> u64 {
    while !cur.is_null() {
        acc = acc.wrapping_mul(31).wrapping_add(c.read_imm(cur, 2));
        cur = c.read_imm_ptr(cur, 1);
    }
    acc
}

/// Mailbox sends per fork lane (sizes the accumulator array and each lane's slice
/// of the message log).
const MB_SENDS: usize = 4;

/// One cross-sibling mailbox send (the stress-oracle entanglement op): folds a
/// hash-derived payload into a mailbox accumulator slot that **both** siblings
/// target with a CAS-add retry loop — addition commutes, so the final sum is
/// schedule-independent even though the adds contend — and publishes a message
/// record into this lane's private slice of the parent's log, a promoting pointer
/// write that crosses subtrees *mid-flight*, while the sibling is still running.
/// Previously every cross-task write in the generator hit sibling-disjoint slots;
/// this is the op that finally makes the oracle cover entangled schedules.
fn mailbox_send<C: ParCtx>(
    c: &C,
    mailbox: ObjPtr,
    mlog: ObjPtr,
    lane: usize,
    k: usize,
    seed: u64,
) -> u64 {
    let payload = hash64(seed ^ 0x4D41_494C ^ k as u64); // "MAIL"
    let mut cur = c.read_mut(mailbox, k % MB_SENDS);
    loop {
        match c.cas_nonptr(mailbox, k % MB_SENDS, cur, cur.wrapping_add(payload)) {
            Ok(_) => break,
            Err(seen) => cur = seen,
        }
    }
    let msg = c.alloc(0, 1, ObjKind::Node);
    c.write_nonptr(msg, 0, payload);
    c.write_ptr(mlog, lane * MB_SENDS + k, msg);
    payload
}

/// One branch's epilogue: build a chain locally and publish it into the parent's
/// pointer array (the promotion trigger on the hierarchical runtime), then fill this
/// branch's disjoint quarter of the parent's data array with distant writes.
fn publish<C: ParCtx>(c: &C, shared: ObjPtr, slot: usize, sd: ObjPtr, seed: u64, r: u64) -> u64 {
    let mut rng = Rng::new(seed ^ 0x9A7);
    let chain = build_chain(c, seed ^ 0xCAFE, 1 + rng.next_below(6));
    c.pin(chain);
    c.write_ptr(shared, slot, chain);
    c.unpin(chain);
    let base = slot * 4;
    for j in 0..4 {
        c.write_nonptr(sd, base + j, hash64(seed ^ r ^ (j as u64)));
    }
    r
}

/// The interpreter: a deterministic random program over the `ParCtx` surface.
/// Every value folded into the returned checksum is schedule-independent (parallel
/// siblings touch disjoint slots; shared mutable state is read only after joins).
fn exec<C: ParCtx>(c: &C, seed: u64, depth: u32) -> u64 {
    let mut rng = Rng::new(seed | 1);
    let mut acc = hash64(seed);

    // Private scratch array: all operand determinism is per-task.
    let len = 4 + rng.next_below(28) as usize;
    let arr = c.alloc_data_array(len);
    c.pin(arr);

    let n_ops = 8 + rng.next_below(24) as usize;
    let mut list = ObjPtr::NULL;
    for _ in 0..n_ops {
        match rng.next_below(8) {
            0 => {
                let i = rng.next_below(len as u64) as usize;
                c.write_nonptr(arr, i, rng.next_u64());
            }
            1 => {
                let i = rng.next_below(len as u64) as usize;
                acc ^= c.read_mut(arr, i);
            }
            2 => {
                let start = rng.next_below(len as u64) as usize;
                let l = rng.next_below((len - start) as u64 + 1) as usize;
                c.fill_nonptr(arr, start, l, rng.next_u64());
            }
            3 => {
                let start = rng.next_below(len as u64) as usize;
                let l = rng.next_below((len - start) as u64 + 1) as usize;
                let vals: Vec<u64> = (0..l as u64).map(|k| hash64(seed ^ k)).collect();
                c.write_nonptr_bulk(arr, start, &vals);
                let mut out = vec![0u64; l];
                c.read_mut_bulk(arr, start, &mut out);
                for v in out {
                    acc = acc.wrapping_add(v);
                }
            }
            4 => {
                let i = rng.next_below(len as u64) as usize;
                let cur = c.read_mut(arr, i);
                acc ^= match c.cas_nonptr(arr, i, cur, cur.wrapping_add(7)) {
                    Ok(prev) => prev,
                    Err(seen) => seen.rotate_left(3),
                };
            }
            5 => {
                // Extend the private immutable list; keep it reachable via pins.
                if !list.is_null() {
                    c.unpin(list);
                }
                list = c.alloc_cons(ObjPtr::NULL, list, rng.next_u64());
                c.pin(list);
            }
            6 => {
                // Non-overlapping halves copy.
                let half = len / 2;
                if half > 0 {
                    let l = rng.next_below(half as u64) as usize;
                    c.copy_nonptr(arr, 0, arr, half, l);
                }
            }
            _ => c.maybe_collect(),
        }
    }
    acc = fold_chain(c, list, acc);
    if !list.is_null() {
        c.unpin(list);
    }

    if depth > 0 && rng.next_below(10) < 9 {
        // Fork: the children get disjoint slots of `shared` (pointer publishes) and
        // disjoint quarters of `sd` (distant non-pointer writes).
        let shared = c.alloc_ptr_array(2);
        let sd = c.alloc_data_array(8);
        // Mailbox state for the cross-sibling ops: contended accumulator slots
        // plus a per-lane message log.
        let mailbox = c.alloc_data_array(MB_SENDS);
        let mlog = c.alloc_ptr_array(2 * MB_SENDS);
        c.pin(shared);
        c.pin(sd);
        c.pin(mailbox);
        c.pin(mlog);
        let s1 = hash64(seed ^ 0xA1);
        let s2 = hash64(seed ^ 0xB2);
        // Each branch sends half its mailbox traffic before its recursive body and
        // half after, so the promoting sends interleave with the sibling's whole
        // subtree rather than clustering at the join.
        let branch = move |cc: &C, lane: usize, s: u64| {
            let mut m = 0u64;
            for k in 0..MB_SENDS / 2 {
                m = m.wrapping_add(mailbox_send(cc, mailbox, mlog, lane, k, s));
            }
            let r = exec(cc, s, depth - 1);
            for k in MB_SENDS / 2..MB_SENDS {
                m = m.wrapping_add(mailbox_send(cc, mailbox, mlog, lane, k, s));
            }
            publish(cc, shared, lane, sd, s, r).wrapping_add(m)
        };
        let (a, b) = c.join(move |cc| branch(cc, 0, s1), move |cc| branch(cc, 1, s2));
        acc = acc.wrapping_add(a).wrapping_add(b.rotate_left(7));
        // Read the published structures back through the master copies.
        for slot in 0..2 {
            let head = c.read_mut_ptr(shared, slot);
            acc = fold_chain(c, head, acc);
        }
        for i in 0..8 {
            acc ^= c.read_mut(sd, i).wrapping_mul(i as u64 + 1);
        }
        // Fold the mailbox: accumulator sums (commutative, so deterministic) and
        // the per-lane message payloads (single-writer slots).
        for i in 0..MB_SENDS {
            acc = acc.wrapping_add(c.read_mut(mailbox, i).wrapping_mul(i as u64 + 1));
        }
        for s in 0..2 * MB_SENDS {
            let msg = c.read_mut_ptr(mlog, s);
            if !msg.is_null() {
                acc ^= c.read_imm(msg, 0).rotate_left((s % 7) as u32);
            }
        }
        c.maybe_collect();
        c.unpin(mlog);
        c.unpin(mailbox);
        c.unpin(sd);
        c.unpin(shared);
    }

    c.unpin(arr);
    acc
}

// ---------------------------------------------------------------------------
// The driver.
// ---------------------------------------------------------------------------

struct Case {
    seed: u64,
    depth: u32,
    /// Tiny GC thresholds so collections interleave with promotion.
    gc_pressure: bool,
}

impl Case {
    fn from_seed(seed: u64) -> Case {
        Case {
            seed,
            depth: 2 + (hash64(seed ^ 0xD0) % 3) as u32, // 2..=4
            gc_pressure: seed.is_multiple_of(3),
        }
    }
}

fn run_case_everywhere(case: &Case) {
    let seed = case.seed;
    let depth = case.depth;
    let replay = format!(
        "seed {seed} (replay: HH_STRESS_SEED={seed} cargo test -p hh-runtime --test stress)"
    );

    let expected = model::ModelCtx::run(|c| exec(c, seed, depth));
    let workers = hh_api::env_workers(4);
    let (chunk, threshold) = if case.gc_pressure {
        (256, 8 * 1024)
    } else {
        (4 * 1024, 4 * 1024 * 1024)
    };

    let seq = SeqRuntime::with_params(chunk, threshold, true);
    assert_eq!(
        seq.run(|c| exec(c, seed, depth)),
        expected,
        "seq diverged from the model on {replay}"
    );

    let stw = StwRuntime::with_params(workers, chunk, threshold);
    assert_eq!(
        stw.run(|c| exec(c, seed, depth)),
        expected,
        "stw diverged from the model on {replay}"
    );

    let dlg = DlgRuntime::with_params(workers, chunk, threshold);
    assert_eq!(
        dlg.run(|c| exec(c, seed, depth)),
        expected,
        "dlg diverged from the model on {replay}"
    );

    let hh_cfg = |lazy: bool, n: usize| HhConfig {
        n_workers: n,
        chunk_words: chunk,
        gc_threshold_words: threshold,
        check_invariants: true,
        lazy_child_heaps: lazy,
        ..Default::default()
    };

    let hh = HhRuntime::new(hh_cfg(true, workers));
    assert_eq!(
        hh.run(|c| exec(c, seed, depth)),
        expected,
        "parmem diverged from the model on {replay}"
    );
    assert_eq!(
        hh.check_disentangled(),
        0,
        "parmem left entanglement on {replay}"
    );

    // Eager per-fork heaps: every publish promotes, even unstolen, so the promotion
    // machinery is exercised deterministically regardless of steal luck.
    let eager = HhRuntime::new(hh_cfg(false, workers.min(2)));
    assert_eq!(
        eager.run(|c| exec(c, seed, depth)),
        expected,
        "parmem-eager diverged from the model on {replay}"
    );
    assert_eq!(
        eager.check_disentangled(),
        0,
        "parmem-eager left entanglement on {replay}"
    );
    let s = eager.stats();
    // A program that forked at all performed publishes, and under eager heaps every
    // publish is cross-heap — it must have promoted. (heaps_created > 1 ⇔ some fork
    // ran; a forkless seed legitimately promotes nothing.)
    assert!(
        s.heaps_created == 1 || s.promotions > 0,
        "eager run forked but never promoted on {replay}"
    );
}

fn seed_count() -> u64 {
    std::env::var("HH_STRESS_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

/// GC v2 lane: one seed on the hierarchical runtime with **parallel collection
/// forced** — a GC team of 8 (clamped to the pool), tiny chunks, and a tiny
/// `gc_threshold_words` on *every* seed, so the parallel evacuation (chunk-tag
/// membership, CAS forwarding races, scan-block stealing) interleaves with
/// promotion and recycling throughout. Run lazy and eager so both the subtree
/// (borrower) and leaf (owner) collection shapes go parallel.
fn run_case_parallel_gc(case: &Case) {
    let seed = case.seed;
    let depth = case.depth;
    let replay = format!(
        "seed {seed} (replay: HH_STRESS_SEED={seed} cargo test -p hh-runtime --test stress)"
    );
    let expected = model::ModelCtx::run(|c| exec(c, seed, depth));
    let workers = hh_api::env_workers(4).max(2);
    let hh_cfg = |lazy: bool| HhConfig {
        n_workers: workers,
        gc_workers: 8,
        chunk_words: 256,
        gc_threshold_words: 8 * 1024,
        check_invariants: true,
        lazy_child_heaps: lazy,
        ..Default::default()
    };
    for lazy in [true, false] {
        let hh = HhRuntime::new(hh_cfg(lazy));
        assert_eq!(
            hh.run(|c| exec(c, seed, depth)),
            expected,
            "parmem (parallel GC, lazy={lazy}) diverged from the model on {replay}"
        );
        assert_eq!(
            hh.check_disentangled(),
            0,
            "parmem (parallel GC, lazy={lazy}) left entanglement on {replay}"
        );
        let s = hh.stats();
        assert_eq!(
            s.gc_parallel_collections, s.gc_count,
            "forced team must cover every collection (lazy={lazy}, {replay})"
        );
    }
}

/// GC v3 lane: the hierarchical runtime as a **server with mutator-concurrent
/// incremental collection forced** — tiny chunks and threshold on every seed, the
/// invariant checker on, and two *overlapping* runs per seed (epoch-tracked, like
/// a multi-tenant server), so incremental windows open, drain, and finalize while
/// both mutators keep allocating, promoting and recycling mid-flight. Each run is
/// checked against the model's checksum for its own seed, and the runtime must be
/// fully disentangled after the overlap. Returns the number of collections that
/// actually completed incrementally, so the driver can assert the lane exercised
/// the machinery at all (a single seed's program may legitimately stay under
/// threshold).
fn run_case_incremental_gc(case: &Case) -> u64 {
    let seed = case.seed;
    let depth = case.depth;
    let replay = format!(
        "seed {seed} (replay: HH_STRESS_SEED={seed} cargo test -p hh-runtime --test stress)"
    );
    // One level deeper than the other lanes, and a threshold of a few chunks:
    // the seed programs are small (hundreds of words), so this is what makes
    // windows actually open on most seeds.
    let depth = depth + 1;
    let seed_b = seed ^ 0x5EED_B00F;
    let expected_a = model::ModelCtx::run(|c| exec(c, seed, depth));
    let expected_b = model::ModelCtx::run(|c| exec(c, seed_b, depth));
    let workers = hh_api::env_workers(4).max(2);
    let rt = HhRuntime::new(HhConfig {
        n_workers: workers,
        chunk_words: 128,
        gc_threshold_words: 512,
        check_invariants: true,
        incremental_gc: true,
        ..Default::default()
    });
    let mut incremental = 0;
    std::thread::scope(|scope| {
        let rt_ref = &rt;
        let b = scope.spawn(move || rt_ref.run(|c| exec(c, seed_b, depth)));
        assert_eq!(
            rt.run(|c| exec(c, seed, depth)),
            expected_a,
            "parmem (incremental, server) diverged from the model on {replay}"
        );
        incremental += rt.stats().gc_incremental_collections;
        assert_eq!(
            b.join().unwrap(),
            expected_b,
            "overlapped parmem run (incremental, server) diverged on {replay}"
        );
    });
    incremental += rt.stats().gc_incremental_collections;
    assert_eq!(
        rt.check_disentangled(),
        0,
        "parmem (incremental, server) left entanglement on {replay}"
    );
    incremental
}

/// Entanglement lane (promotion-saturated schedules): every seed runs with
/// **eager per-fork child heaps**, so every mailbox send, message publish, and
/// chain publish is a cross-heap promoting write — no steal luck required — under
/// tiny chunks and thresholds with the invariant checker on. Two shapes per seed:
/// the monolithic A6 collector, then mutator-concurrent incremental collection in
/// two overlapping runs (the GC v3 + promotion v2 combination
/// the adversarial front exists to exercise). Returns the promotions performed so
/// the driver can assert the lane really is saturated.
fn run_case_entangled(case: &Case) -> u64 {
    let seed = case.seed;
    let depth = case.depth;
    let replay = format!(
        "seed {seed} (replay: HH_STRESS_SEED={seed} cargo test -p hh-runtime --test stress)"
    );
    let expected = model::ModelCtx::run(|c| exec(c, seed, depth));
    let workers = hh_api::env_workers(4).max(2);

    // A6 shape: monolithic stop-the-mutator collections, eager heaps.
    let a6 = HhRuntime::new(HhConfig {
        n_workers: workers,
        chunk_words: 256,
        gc_threshold_words: 2 * 1024,
        check_invariants: true,
        lazy_child_heaps: false,
        ..Default::default()
    });
    assert_eq!(
        a6.run(|c| exec(c, seed, depth)),
        expected,
        "parmem-eager (A6) diverged from the model on {replay}"
    );
    assert_eq!(
        a6.check_disentangled(),
        0,
        "parmem-eager (A6) left entanglement on {replay}"
    );
    let mut promotions = a6.stats().promotions;

    // Incremental collection with two overlapping eager runs.
    let depth = depth + 1;
    let seed_b = seed ^ 0x5EED_B00F;
    let expected_a = model::ModelCtx::run(|c| exec(c, seed, depth));
    let expected_b = model::ModelCtx::run(|c| exec(c, seed_b, depth));
    let inc = HhRuntime::new(HhConfig {
        n_workers: workers,
        chunk_words: 128,
        gc_threshold_words: 512,
        check_invariants: true,
        lazy_child_heaps: false,
        incremental_gc: true,
        ..Default::default()
    });
    std::thread::scope(|scope| {
        let rt_ref = &inc;
        let b = scope.spawn(move || rt_ref.run(|c| exec(c, seed_b, depth)));
        assert_eq!(
            inc.run(|c| exec(c, seed, depth)),
            expected_a,
            "parmem-eager (incremental, server) diverged from the model on {replay}"
        );
        promotions += inc.stats().promotions;
        assert_eq!(
            b.join().unwrap(),
            expected_b,
            "overlapped parmem-eager run (incremental, server) diverged on {replay}"
        );
    });
    promotions += inc.stats().promotions;
    assert_eq!(
        inc.check_disentangled(),
        0,
        "parmem-eager (incremental, server) left entanglement on {replay}"
    );
    promotions
}

#[test]
fn stress_entangled_forced() {
    if let Ok(one) = std::env::var("HH_STRESS_SEED") {
        let seed: u64 = one.parse().expect("HH_STRESS_SEED must be an integer");
        run_case_entangled(&Case::from_seed(seed));
        return;
    }
    let mut promotions = 0;
    for seed in 0..seed_count() {
        promotions += run_case_entangled(&Case::from_seed(seed));
    }
    assert!(
        promotions > 0,
        "the entanglement lane never promoted — it is not promotion-saturated"
    );
}

#[test]
fn stress_incremental_gc_forced() {
    if let Ok(one) = std::env::var("HH_STRESS_SEED") {
        let seed: u64 = one.parse().expect("HH_STRESS_SEED must be an integer");
        run_case_incremental_gc(&Case::from_seed(seed));
        return;
    }
    let mut incremental = 0;
    for seed in 0..seed_count() {
        incremental += run_case_incremental_gc(&Case::from_seed(seed));
    }
    assert!(
        incremental > 0,
        "the lane never completed an incremental collection — pressure knobs are dead"
    );
}

#[test]
fn stress_parallel_gc_forced() {
    if let Ok(one) = std::env::var("HH_STRESS_SEED") {
        let seed: u64 = one.parse().expect("HH_STRESS_SEED must be an integer");
        run_case_parallel_gc(&Case::from_seed(seed));
        return;
    }
    for seed in 0..seed_count() {
        run_case_parallel_gc(&Case::from_seed(seed));
    }
}

#[test]
fn stress_all_runtimes_match_the_model() {
    if let Ok(one) = std::env::var("HH_STRESS_SEED") {
        let seed: u64 = one.parse().expect("HH_STRESS_SEED must be an integer");
        run_case_everywhere(&Case::from_seed(seed));
        return;
    }
    for seed in 0..seed_count() {
        run_case_everywhere(&Case::from_seed(seed));
    }
}

/// The model itself is deterministic (same seed → same checksum), and distinct seeds
/// produce distinct programs — a meta-check that the harness has actual coverage.
#[test]
fn model_is_deterministic_and_seeds_differ() {
    let a = model::ModelCtx::run(|c| exec(c, 11, 3));
    let b = model::ModelCtx::run(|c| exec(c, 11, 3));
    assert_eq!(a, b);
    let distinct: std::collections::HashSet<u64> = (0..16)
        .map(|s| model::ModelCtx::run(|c| exec(c, s, 2)))
        .collect();
    assert!(distinct.len() >= 15, "seeds collapse to too few programs");
}
