//! The entanglement adversary: a shared work-log / actor-mailbox workload where a
//! *tunable* fraction of writes crosses subtrees and promotes.
//!
//! `actors` sibling tasks each process a deterministic op stream. With probability
//! `promote_permille / 1000` an op is a **cross-subtree send**: the actor
//! allocates a message in its own heap, publishes it into the shared
//! per-(sender, receiver) slot of a work-log matrix (a promoting pointer write on
//! the hierarchical runtime whenever the actor runs outside the log's subtree),
//! and folds the payload into the receiver's mailbox accumulator with a CAS-add
//! retry loop. Otherwise the op churns a task-private scratch ring — the
//! hierarchy-friendly case that never touches shared state.
//!
//! Sweeping `promote_permille` from 0 to 1000 moves the workload from perfectly
//! hierarchy-friendly (zero pointer writes, zero promotions) to
//! promotion-saturated (every op publishes and promotes); the
//! `promote_rate_sweeps_from_friendly_to_saturated` test below pins both ends.
//!
//! Determinism (the oracle-soundness argument, DESIGN.md §12): each actor's op
//! stream, receivers, and payloads are hash-derived from `(seed, actor, op)`, so
//! they do not depend on the schedule. The three shared sinks are each
//! schedule-independent:
//! * mailbox accumulators receive their deltas via CAS-add — addition is
//!   commutative and associative, so the final sum is the same no matter how the
//!   concurrent adds interleave;
//! * the work-log matrix slot `(t, r)` is written only by actor `t`, whose ops are
//!   sequential — the surviving message is its *last* send to `r`;
//! * scratch rings are task-private.
//!
//! The checksum folds actor accumulators, mailbox sums, and the surviving log
//! messages only after the join.

use hh_api::{hash64, ObjKind, ParCtx};
use hh_objmodel::ObjPtr;

/// Size of each actor's private scratch ring (the hierarchy-friendly sink).
const SCRATCH: usize = 64;

/// Commutative fold into a shared accumulator slot: CAS-add with retry. The final
/// value of the slot is the wrapping sum of every delta folded into it, regardless
/// of interleaving.
fn cas_add<C: ParCtx>(c: &C, arr: ObjPtr, slot: usize, delta: u64) {
    let mut cur = c.read_mut(arr, slot);
    loop {
        match c.cas_nonptr(arr, slot, cur, cur.wrapping_add(delta)) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// The entanglement adversary: `actors` tasks, `ops_per_actor` ops each, with
/// `promote_permille`/1000 of ops publishing cross-subtree (see module docs).
/// Returns a deterministic checksum.
pub fn entangle<C: ParCtx>(
    ctx: &C,
    actors: usize,
    ops_per_actor: usize,
    promote_permille: u64,
    seed: u64,
) -> u64 {
    assert!(actors > 0 && promote_permille <= 1000);
    // Mailbox accumulators (one per receiver) and the (sender × receiver)
    // work-log matrix, both rooted above every actor.
    let inbox = ctx.alloc_data_array(actors);
    let log = ctx.alloc_ptr_array(actors * actors);
    ctx.pin(inbox);
    ctx.pin(log);

    let accs = ctx.join_many(
        (0..actors)
            .map(|t| {
                move |c: &C| {
                    let scratch = c.alloc_data_array(SCRATCH);
                    let mut acc = seed ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    for op in 0..ops_per_actor {
                        let h = hash64(seed ^ ((t as u64) << 32) ^ op as u64);
                        if h % 1000 < promote_permille && actors > 1 {
                            // Cross-subtree send to a deterministic other actor.
                            let r = (t + 1 + (h >> 10) as usize % (actors - 1)) % actors;
                            let payload = hash64(h ^ 0x4D41_494C); // "MAIL"
                            let msg = c.alloc(0, 2, ObjKind::Node);
                            c.write_nonptr(msg, 0, payload);
                            c.write_nonptr(msg, 1, op as u64);
                            // The promoting publish: single writer per (t, r) slot.
                            c.write_ptr(log, t * actors + r, msg);
                            // Commutative fold into the receiver's mailbox.
                            cas_add(c, inbox, r, payload);
                            // Read back through the (now possibly stale) local
                            // pointer — the forwarding-chain traffic `fwd_hops`
                            // measures.
                            acc = acc.wrapping_add(c.read_mut(msg, 0).rotate_left(7));
                        } else {
                            // Hierarchy-friendly op: churn the private ring.
                            let slot = (h >> 10) as usize % SCRATCH;
                            let old = c.read_mut(scratch, slot);
                            c.write_nonptr(scratch, slot, old ^ h);
                            acc = acc.wrapping_add(old ^ h);
                        }
                        if op % 512 == 511 {
                            c.maybe_collect();
                        }
                    }
                    acc
                }
            })
            .collect(),
    );

    // Fold the shared sinks after the join: mailbox sums (commutative, so
    // deterministic) and the surviving last message of every (sender, receiver)
    // pair (single-writer, so deterministic).
    let mut acc = accs.into_iter().fold(0u64, u64::wrapping_add);
    for r in 0..actors {
        acc = acc.wrapping_add(ctx.read_mut(inbox, r).wrapping_mul(r as u64 | 1));
    }
    for s in 0..actors * actors {
        let msg = ctx.read_mut_ptr(log, s);
        if !msg.is_null() {
            acc = acc
                .wrapping_add(ctx.read_imm(msg, 0).wrapping_mul(s as u64 | 1))
                .wrapping_add(ctx.read_imm(msg, 1));
        }
    }
    ctx.unpin(log);
    ctx.unpin(inbox);
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use hh_api::Runtime;
    use hh_baselines::{DlgRuntime, SeqRuntime, StwRuntime};
    use hh_runtime::{HhConfig, HhRuntime};

    const ACTORS: usize = 8;
    const OPS: usize = 1200;
    const SEED: u64 = 0xE17A_61E5;

    #[test]
    fn entangle_agrees_across_runtimes_at_every_rate() {
        let workers = hh_api::env_workers(3);
        for rate in [0u64, 100, 500, 1000] {
            let expected = SeqRuntime::new().run(|c| entangle(c, ACTORS, OPS, rate, SEED));
            assert_eq!(
                StwRuntime::with_workers(workers).run(|c| entangle(c, ACTORS, OPS, rate, SEED)),
                expected,
                "stw rate={rate}"
            );
            assert_eq!(
                DlgRuntime::with_workers(workers).run(|c| entangle(c, ACTORS, OPS, rate, SEED)),
                expected,
                "dlg rate={rate}"
            );
            let hh = HhRuntime::with_workers(workers);
            assert_eq!(
                hh.run(|c| entangle(c, ACTORS, OPS, rate, SEED)),
                expected,
                "parmem rate={rate}"
            );
            assert_eq!(hh.check_disentangled(), 0, "rate={rate}");
        }
    }

    /// The promote-rate knob really is the promotion knob: under eager heaps rate 0
    /// promotes nothing (no pointer write ever happens) and rate 1000 promotes on
    /// every send; the saturated run promotes strictly more than a mid-rate run.
    #[test]
    fn promote_rate_sweeps_from_friendly_to_saturated() {
        let expected0 = SeqRuntime::new().run(|c| entangle(c, ACTORS, OPS, 0, SEED));
        let eager0 = HhRuntime::new(HhConfig::eager_heaps(2));
        assert_eq!(eager0.run(|c| entangle(c, ACTORS, OPS, 0, SEED)), expected0);
        assert_eq!(
            eager0.stats().promotions,
            0,
            "rate 0 must perform no promotions even under eager heaps"
        );

        let mut prev = 0u64;
        for rate in [500u64, 1000] {
            let expected = SeqRuntime::new().run(|c| entangle(c, ACTORS, OPS, rate, SEED));
            let eager = HhRuntime::new(HhConfig::eager_heaps(2));
            assert_eq!(
                eager.run(|c| entangle(c, ACTORS, OPS, rate, SEED)),
                expected
            );
            let s = eager.stats();
            assert!(
                s.promotions > prev,
                "rate {rate} must promote more than the previous rate ({} <= {prev})",
                s.promotions
            );
            prev = s.promotions;
        }
    }
}
