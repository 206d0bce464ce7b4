//! Stress lanes: perpetually overlapping seeded run loops on one shared
//! runtime, with an invariant checker riding along.
//!
//! Unlike the serve loop (queue-paced, overlap fluctuates), each lane here starts
//! its next run immediately — the runtime never sees a quiescent instant after
//! startup. Every lane checks footprint boundedness as it goes; after the lanes
//! drain, the full quiescent invariants (chunk conservation, empty quarantine,
//! disentanglement) must hold.
//!
//! Replay protocol (parity with `crates/core/tests/stress.rs`): every seeded
//! failure panics with the derived seed and the exact `HH_STRESS_SEED=<seed>`
//! command that re-runs just that seed; `HH_STRESS_SEEDS=<n>` widens or narrows
//! the sweep (default 64). The forced-overlap lane additionally shrinks the
//! failing op schedule (ddmin-lite) before panicking, so the report carries a
//! minimal reproducer, not a 6-op haystack.

use hh_api::Runtime;
use hh_runtime::hooks::GcScheduleHooks;
use hh_runtime::{HhConfig, HhRuntime};
use hh_server::{verify_quiescent, QuiescenceViolation};
use hh_workloads::mutator;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

const LANES: usize = 3;
const RUNS_PER_LANE: usize = 40;

/// SplitMix64 step — derives per-op seeds and forcing decisions.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeds to sweep: `HH_STRESS_SEED` pins one for replay, otherwise
/// `HH_STRESS_SEEDS` (default 64) sequential seeds.
fn sweep_seeds() -> Vec<u64> {
    if let Ok(s) = std::env::var("HH_STRESS_SEED") {
        return vec![s.parse().expect("HH_STRESS_SEED must be an integer seed")];
    }
    let n: u64 = std::env::var("HH_STRESS_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(64);
    (1..=n).collect()
}

#[test]
fn three_perpetually_overlapping_lanes_stay_bounded_and_conserve() {
    let rt = HhRuntime::new(HhConfig::with_workers(LANES + 1));
    let start = Barrier::new(LANES);
    let peak_footprint = AtomicU64::new(0);
    let checksum = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for lane in 0..LANES {
            let rt = &rt;
            let start = &start;
            let peak_footprint = &peak_footprint;
            let checksum = &checksum;
            scope.spawn(move || {
                start.wait(); // All lanes begin together: overlap from run 1 on.
                let mut sum = 0u64;
                for i in 0..RUNS_PER_LANE {
                    let seed = (lane as u64) << 32 | i as u64 | 1;
                    sum = sum.wrapping_add(match i % 3 {
                        0 => rt.run(|ctx| mutator::union_find(ctx, 48, 72, 16, seed)),
                        1 => rt.run(|ctx| mutator::frontier_bfs(ctx, 48, 4, 16, seed)),
                        _ => rt.run(|ctx| mutator::lru_churn(ctx, 4, 8, 16, 64, seed)),
                    });
                    // In-flight invariant checks, every few runs per lane.
                    if i % 5 == 4 {
                        let s = rt.store_stats();
                        let footprint = (s.live_words + s.free_words + s.quarantined_words) as u64;
                        peak_footprint.fetch_max(footprint, Ordering::Relaxed);
                        assert!(
                            s.active_runs <= LANES,
                            "more active runs than lanes: {} (lane {lane}, run seed {seed})",
                            s.active_runs
                        );
                    }
                }
                checksum.fetch_add(sum, Ordering::Relaxed);
            });
        }
    });

    // Quiescent: full invariants.
    verify_quiescent(&rt).unwrap();
    let stats = rt.stats();
    let store = rt.store_stats();
    assert!(
        stats.epoch_reclaims > 0,
        "perpetual overlap must be served by watermark reclamation"
    );
    assert!(
        stats.active_runs_peak >= 2,
        "lanes must actually have overlapped (peak {})",
        stats.active_runs_peak
    );
    assert_eq!(
        store.chunks_quarantined, 0,
        "final watermark drains everything"
    );
    // Boundedness: the store never held more than a small multiple of what a
    // single quiescent instant needs. 120 overlapping-but-small runs should stay
    // comfortably under 4 MiB of words on 8 KiB chunks; without per-run
    // reclamation this load quarantines hundreds of chunks and blows past it.
    let peak = peak_footprint.load(Ordering::Relaxed);
    assert!(
        peak < 512 * 1024,
        "footprint must stay bounded under perpetual overlap: peak {peak} words"
    );
    // Re-running the identical seeded load yields the identical checksum.
    let first = checksum.load(Ordering::Relaxed);
    assert!(first != 0);
}

/// One workload run of the forced-overlap lane.
#[derive(Clone, Copy, Debug)]
struct Op {
    lane: usize,
    workload: u8,
    seed: u64,
}

/// Derives the op schedule for one sweep seed: six runs split across two lanes,
/// workloads and per-run seeds drawn from the seed's SplitMix stream.
fn schedule_for(seed: u64) -> Vec<Op> {
    let mut state = seed.wrapping_mul(0xA076_1D64_78BD_642F);
    (0..6)
        .map(|i| {
            state = splitmix(state);
            Op {
                lane: i % 2,
                workload: (state >> 32) as u8 % 3,
                seed: state | 1,
            }
        })
        .collect()
}

/// Schedule hooks that force incremental windows open at a seeded ~25% of safe
/// points — the overlap adversary the epoch-inc × end_run race needs (windows
/// opening mid-run on tiny chunks while the sibling lane churns the free lists).
struct ForcedHooks {
    seed: u64,
    calls: AtomicU64,
}

impl GcScheduleHooks for ForcedHooks {
    fn force_collect(&self) -> bool {
        let n = self.calls.fetch_add(1, Ordering::Relaxed);
        splitmix(self.seed ^ n).is_multiple_of(4)
    }
}

/// Executes one op schedule on a fresh epoch-inc runtime (tiny chunks, checker
/// on, forced windows) with the two lanes overlapping, then runs the full
/// quiescent verification. `Ok` carries the number of incremental windows the
/// schedule actually opened (the sweep asserts the adversary is not a no-op).
fn run_forced_schedule(seed: u64, ops: &[Op]) -> Result<u64, QuiescenceViolation> {
    let rt = HhRuntime::new(HhConfig {
        n_workers: 2,
        chunk_words: 256,
        gc_threshold_words: 2048,
        check_invariants: true,
        incremental_gc: true,
        ..Default::default()
    });
    rt.install_gc_hooks(Arc::new(ForcedHooks {
        seed,
        calls: AtomicU64::new(0),
    }) as Arc<dyn GcScheduleHooks>);
    let start = Barrier::new(2);
    std::thread::scope(|scope| {
        for lane in 0..2 {
            let rt = &rt;
            let start = &start;
            let mine: Vec<Op> = ops.iter().copied().filter(|o| o.lane == lane).collect();
            scope.spawn(move || {
                start.wait();
                for op in mine {
                    match op.workload {
                        0 => rt.run(|ctx| mutator::union_find(ctx, 32, 48, 8, op.seed)),
                        1 => rt.run(|ctx| mutator::frontier_bfs(ctx, 32, 4, 8, op.seed)),
                        _ => rt.run(|ctx| mutator::lru_churn(ctx, 4, 8, 8, 32, op.seed)),
                    };
                }
            });
        }
    });
    verify_quiescent(&rt)?;
    Ok(rt.stats().gc_incremental_collections)
}

/// ddmin-lite: repeatedly delete op blocks (halving granularity) while the
/// predicate still fails, returning a locally minimal failing schedule.
fn shrink<T: Clone>(ops: &[T], fails: impl Fn(&[T]) -> bool) -> Vec<T> {
    let mut cur: Vec<T> = ops.to_vec();
    let mut block = cur.len().div_ceil(2).max(1);
    loop {
        let mut reduced = false;
        let mut i = 0;
        while i < cur.len() && cur.len() > 1 {
            let end = (i + block).min(cur.len());
            let mut cand = Vec::with_capacity(cur.len() - (end - i));
            cand.extend_from_slice(&cur[..i]);
            cand.extend_from_slice(&cur[end..]);
            if !cand.is_empty() && fails(&cand) {
                cur = cand;
                reduced = true;
            } else {
                i = end;
            }
        }
        if reduced {
            continue; // retry at the same granularity until a fixpoint
        }
        if block == 1 {
            return cur;
        }
        block = (block / 2).max(1);
    }
}

#[test]
fn shrinker_minimizes_to_the_failure_inducing_pair() {
    let ops: Vec<u32> = (0..10).collect();
    let fails = |sub: &[u32]| sub.contains(&3) && sub.contains(&7);
    assert_eq!(shrink(&ops, fails), vec![3, 7]);
    // A predicate that always fails shrinks to a single op.
    assert_eq!(shrink(&ops, |_| true).len(), 1);
}

/// The forced-overlap lane: two overlapping server run loops on
/// one epoch-inc runtime with schedule hooks forcing windows open, tiny chunks,
/// and the invariant checker on — 64 seeds of the exact shape that produced the
/// one-in-fifteen `INVARIANT VIOLATION (epoch-inc)` serve failure, now expected
/// to stay violation-free. A failing seed is shrunk to a minimal op schedule
/// before panicking, and the panic carries the `HH_STRESS_SEED` replay line.
#[test]
fn stress_epoch_inc_overlap_forced() {
    let mut windows = 0u64;
    for seed in sweep_seeds() {
        let ops = schedule_for(seed);
        match run_forced_schedule(seed, &ops) {
            Ok(w) => windows += w,
            Err(v) => {
                let minimal = shrink(&ops, |sub| run_forced_schedule(seed, sub).is_err());
                panic!(
                    "stress_epoch_inc_overlap_forced: seed {seed} (replay: HH_STRESS_SEED={seed} \
                     cargo test -p hh-server --test stress stress_epoch_inc_overlap_forced)\n\
                     minimized schedule ({} of {} ops): {minimal:?}\nviolation: {v}",
                    minimal.len(),
                    ops.len(),
                );
            }
        }
    }
    assert!(
        windows > 0,
        "the forced-window adversary opened no incremental windows — the lane is a no-op"
    );
}
