//! The serve loop: N client threads push run requests through a bounded queue to M
//! executor threads, each of which drives an independent `Runtime::run` on the
//! *shared* runtime — so at any instant up to M runs overlap on one chunk store.
//!
//! This is the experiment the epoch watermark exists for (DESIGN.md §5): under
//! perpetual overlap the retired global reuse horizon ("reclaim when no run is
//! active", A5) never passed, so quarantined chunks piled up and every run paid
//! fresh minting.
//! With per-run epochs each completed run's chunks recycle as soon as every run
//! alive at their retirement has ended — the quarantine stays bounded by the
//! in-flight working set and `chunks_recycled` approaches 100% of handouts.
//!
//! The loop measures nothing: `hhbench serve` is the serve measurement. It
//! accounts for every request and leaves the runtime for [`verify_quiescent`].

use crate::queue::BoundedQueue;
use hh_api::{RunCtl, RunError, RunStats, Runtime};
use hh_workloads::ServeWorkloadId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Configuration of one serve session.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Total number of independent runs to execute.
    pub runs: usize,
    /// Client (producer) threads generating requests.
    pub clients: usize,
    /// Executor (consumer) threads driving runs on the shared runtime — the degree
    /// of run overlap the server sustains.
    pub executors: usize,
    /// Bounded queue capacity (admission control / back-pressure).
    pub queue_cap: usize,
    /// Base seed; every request derives its own seed and workload from it.
    pub seed: u64,
    /// Workload size multiplier (1 = smoke-test sized requests).
    pub scale: usize,
    /// Pin every request to one registry workload; `None` dispatches the default
    /// mutator mix off each request's seed.
    pub workload: Option<ServeWorkloadId>,
    /// Per-run wall-clock budget. Executors attach a deadline token to every
    /// attempt; the runtime polls it cooperatively at safe points and the run
    /// unwinds with a typed abort when it expires. `None` = no deadline.
    pub deadline_ms: Option<u64>,
    /// Maximum attempts per request (≥ 1). Attempts beyond the first happen
    /// only for *retryable* failures — runs killed by an injected fault — never
    /// for deadlines, cancellations, or genuine workload panics.
    pub max_attempts: u32,
    /// Base backoff between retry attempts, microseconds; each wait is jittered
    /// to 50–150 % of this (seeded, so a chaos sweep stays reproducible).
    pub backoff_us: u64,
    /// Admission control: when the number of requests currently *executing*
    /// reaches this watermark, clients stop blocking on a full queue and shed
    /// instead — `try_push`, with queue-full becoming a typed rejection the
    /// report counts. `None` = always apply back-pressure, never shed.
    pub shed_inflight: Option<usize>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            runs: 1000,
            clients: 2,
            executors: 4,
            queue_cap: 64,
            seed: 0x5eed_0001,
            scale: 1,
            workload: None,
            deadline_ms: None,
            max_attempts: 1,
            backoff_us: 200,
            shed_inflight: None,
        }
    }
}

impl ServeConfig {
    /// The workload request `seed` runs: the pinned one, otherwise the default
    /// mutator mix selected off the seed's high bits (the low bits of simple
    /// generators are the weak ones). Each result is a pure function of
    /// `(workload, seed, scale)`.
    pub(crate) fn workload_for(&self, seed: u64) -> ServeWorkloadId {
        self.workload
            .unwrap_or_else(|| ServeWorkloadId::from_mix_seed(seed))
    }
}

/// Outcome of one serve session.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Runs completed. Equals the configured total on a clean pass; under fault
    /// injection, deadlines, or load shedding it is the *partial* result count
    /// (see the abort counters below — the report always accounts for every
    /// configured request: `runs + rejected + deadline_hits + failed ==
    /// requested`).
    pub runs: u64,
    /// Requests the session was configured to serve.
    pub requested: u64,
    /// Attempts that ended in any abort (injected fault, deadline, panic) —
    /// retried attempts included, so this can exceed the per-request failure
    /// counters.
    pub aborted: u64,
    /// Retry attempts performed after fault-killed attempts.
    pub retried: u64,
    /// Requests shed by admission control (queue full past the in-flight
    /// watermark) or refused because the queue closed (an executor died).
    pub rejected: u64,
    /// Requests whose final attempt exceeded its deadline (cooperative abort).
    pub deadline_hits: u64,
    /// Requests whose final attempt failed non-retryably or exhausted
    /// `max_attempts`.
    pub failed: u64,
    /// Seeds of the requests that completed, in no particular order. Each run's
    /// result is a pure function of (workload, seed, scale), so a chaos harness
    /// can recompute every survivor's contribution and audit `checksum`.
    pub completed_seeds: Vec<u64>,
    /// Commutative checksum over all run results (deterministic for a given
    /// config/seed regardless of interleaving — a correctness canary).
    pub checksum: u64,
    /// Runtime statistics accumulated over the session.
    pub stats: RunStats,
}

/// SplitMix64 — derives per-request seeds from the base seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-executor outcome tally, merged into the report after the scope joins.
#[derive(Default)]
struct ExecTally {
    completed_seeds: Vec<u64>,
    aborted: u64,
    retried: u64,
    deadline_hits: u64,
    failed: u64,
}

/// Runs the serve session on `rt`: `cfg.clients` producers feed `cfg.runs`
/// request seeds through a bounded queue to `cfg.executors` consumers, each
/// driving overlapping `Runtime::try_run` calls on the shared runtime. Any abort
/// — cooperative, injected, or a genuine panic — comes back as a typed
/// [`RunError`] instead of unwinding into the executor thread.
pub fn serve<R: Runtime>(rt: &R, cfg: &ServeConfig) -> ServeReport {
    assert!(cfg.runs > 0 && cfg.clients > 0 && cfg.executors > 0);
    rt.reset_stats();
    let queue: Arc<BoundedQueue<u64>> = Arc::new(BoundedQueue::new(cfg.queue_cap));
    let checksum = AtomicU64::new(0);
    // Active-run gauge for admission control: requests currently executing.
    let inflight = AtomicU64::new(0);
    let max_attempts = cfg.max_attempts.max(1);

    let mut tallies: Vec<ExecTally> = Vec::new();
    let mut rejected = 0u64;
    std::thread::scope(|scope| {
        // Clients: split the request count evenly, remainder to the first.
        let mut handles = Vec::new();
        let per_client = cfg.runs / cfg.clients;
        for c in 0..cfg.clients {
            let mine = per_client + usize::from(c == 0) * (cfg.runs % cfg.clients);
            let queue = Arc::clone(&queue);
            let inflight = &inflight;
            let mut rng = cfg.seed ^ (c as u64).wrapping_mul(0xA076_1D64_78BD_642F);
            handles.push(scope.spawn(move || {
                let mut shed = 0u64;
                for _ in 0..mine {
                    let seed = splitmix(&mut rng);
                    // Admission control: past the in-flight watermark the
                    // server stops applying back-pressure and sheds — a full
                    // queue is a typed rejection, not a blocked client. A
                    // closed queue (the executors died) also rejects rather
                    // than silently dropping the rest of the request count.
                    let over = cfg
                        .shed_inflight
                        .is_some_and(|w| inflight.load(Ordering::Relaxed) >= w as u64);
                    let refused = if over {
                        queue.try_push(seed).is_err()
                    } else {
                        queue.push(seed).is_err()
                    };
                    if refused {
                        shed += 1;
                    }
                }
                shed
            }));
        }
        // Executors: drain until the closed queue is empty.
        let executors: Vec<_> = (0..cfg.executors)
            .map(|e| {
                let queue = Arc::clone(&queue);
                let checksum = &checksum;
                let inflight = &inflight;
                let mut backoff_rng = cfg.seed
                    ^ 0xD6E8_FEB8_6659_FD93
                    ^ (e as u64).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
                scope.spawn(move || {
                    // If this executor dies of an unexpected panic, close the
                    // queue on the way out: blocked producers get a rejection
                    // back instead of deadlocking on a condvar nobody signals.
                    let close_guard = queue.close_on_drop();
                    let mut t = ExecTally::default();
                    while let Some(seed) = queue.pop() {
                        let w = cfg.workload_for(seed);
                        let mut attempt = 0u32;
                        loop {
                            attempt += 1;
                            // A fresh token per attempt: fired tokens are
                            // permanent, and the deadline budget is per-run.
                            let ctl = match cfg.deadline_ms {
                                Some(ms) => RunCtl::with_deadline(Duration::from_millis(ms)),
                                None => RunCtl::new(),
                            };
                            inflight.fetch_add(1, Ordering::Relaxed);
                            let r = rt.try_run(&ctl, |ctx| w.run(ctx, seed, cfg.scale));
                            inflight.fetch_sub(1, Ordering::Relaxed);
                            match r {
                                Ok(v) => {
                                    checksum.fetch_add(v, Ordering::Relaxed);
                                    t.completed_seeds.push(seed);
                                    break;
                                }
                                Err(err) => {
                                    t.aborted += 1;
                                    if err.is_retryable() && attempt < max_attempts {
                                        t.retried += 1;
                                        if cfg.backoff_us > 0 {
                                            // Jittered 50–150 % of the base, seeded:
                                            // retries decorrelate without making the
                                            // sweep irreproducible.
                                            let jitter =
                                                splitmix(&mut backoff_rng) % cfg.backoff_us;
                                            std::thread::sleep(Duration::from_micros(
                                                cfg.backoff_us / 2 + jitter,
                                            ));
                                        }
                                        continue;
                                    }
                                    match err {
                                        // Serve never cancels explicitly, and a
                                        // deadline expiry latches the shared
                                        // cancelled flag — sibling tasks of a
                                        // deadlined run may abort as Cancelled,
                                        // and either payload can win the race to
                                        // the run boundary. Both mean "deadline".
                                        RunError::Cancelled | RunError::DeadlineExceeded => {
                                            t.deadline_hits += 1
                                        }
                                        RunError::InjectedFault(_) | RunError::Panic(_) => {
                                            t.failed += 1
                                        }
                                    }
                                    break;
                                }
                            }
                        }
                    }
                    drop(close_guard);
                    t
                })
            })
            .collect();
        for h in handles {
            rejected += h.join().expect("client thread panicked");
        }
        queue.close();
        for e in executors {
            tallies.push(e.join().expect("executor thread panicked"));
        }
    });

    let mut completed_seeds = Vec::new();
    let (mut aborted, mut retried, mut deadline_hits, mut failed) = (0u64, 0u64, 0u64, 0u64);
    for t in tallies {
        completed_seeds.extend(t.completed_seeds);
        aborted += t.aborted;
        retried += t.retried;
        deadline_hits += t.deadline_hits;
        failed += t.failed;
    }
    let completed = completed_seeds.len() as u64;
    // Every configured request ends in exactly one bucket. On a clean pass
    // (no faults armed, no deadline, no shedding) this degenerates to the old
    // "every request must complete" assertion.
    assert_eq!(
        completed + rejected + deadline_hits + failed,
        cfg.runs as u64,
        "every request must be accounted for (completed {completed}, rejected {rejected}, \
         deadline {deadline_hits}, failed {failed})"
    );
    ServeReport {
        runs: completed,
        requested: cfg.runs as u64,
        aborted,
        retried,
        rejected,
        deadline_hits,
        failed,
        completed_seeds,
        checksum: checksum.load(Ordering::Relaxed),
        stats: rt.stats(),
    }
}

/// A failed post-serve quiescence check: the one-line `reason` plus, for
/// disentanglement failures, the full per-violation forensics report
/// (offending slots, chunk `run_tag`/`gc_state`, heap depths, window state).
/// `Display` prints both; it is the one rendering of a violation, for panic
/// messages and `$HH_VIOLATION_JSON` lines alike.
#[derive(Clone, Debug)]
pub struct QuiescenceViolation {
    /// One-line description of the first violated invariant.
    pub reason: String,
    /// Per-violation forensics when the disentanglement walk failed.
    pub disentanglement: Option<hh_runtime::DisentanglementReport>,
}

impl std::fmt::Display for QuiescenceViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.reason)?;
        if let Some(report) = &self.disentanglement {
            write!(f, "\n{report}")?;
        }
        Ok(())
    }
}

/// Post-serve invariant check for the hierarchical runtime: with the server
/// quiescent, the chunk lifecycle must conserve
/// (`created == active + quarantined + free`) and every live heap must
/// be disentangled. Returns the first violation with full forensics.
pub fn verify_quiescent(rt: &hh_runtime::HhRuntime) -> Result<(), QuiescenceViolation> {
    let plain = |reason: String| QuiescenceViolation {
        reason,
        disentanglement: None,
    };
    let s = rt.store_stats();
    if s.chunks_created != s.chunks_active + s.chunks_quarantined + s.chunks_free {
        return Err(plain(format!(
            "chunk conservation violated: created {} != active {} + quarantined {} + free {}",
            s.chunks_created, s.chunks_active, s.chunks_quarantined, s.chunks_free
        )));
    }
    if s.active_runs != 0 {
        return Err(plain(format!(
            "{} runs still registered active",
            s.active_runs
        )));
    }
    let report = rt.check_disentangled_report();
    if !report.is_clean() {
        return Err(QuiescenceViolation {
            reason: format!("{} disentanglement violations", report.violations.len()),
            disentanglement: Some(report),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{append_violation_json, audit_survivors};
    use hh_runtime::{FaultPlan, GcScheduleHooks, HhConfig, HhRuntime};

    fn small_cfg(runs: usize) -> ServeConfig {
        ServeConfig {
            runs,
            clients: 2,
            executors: 3,
            queue_cap: 8,
            seed: 7,
            ..ServeConfig::default()
        }
    }

    /// Where [`HoldFirstEnd`] stands.
    enum Hold {
        /// No run has ended yet.
        Open,
        /// The run of this epoch waits at its `EndRunPreDispose`, still registered.
        Holding(u64),
        /// Another run reached its own end; nothing is held any more.
        Released,
    }

    /// Holds the first run to reach `EndRunPreDispose` until another run reaches
    /// its own, so two runs are registered at once on every schedule. A deadline
    /// turns a schedule with no second run into a failed assertion, not a hang.
    struct HoldFirstEnd {
        hold: std::sync::Mutex<Hold>,
        released: std::sync::Condvar,
    }

    impl GcScheduleHooks for HoldFirstEnd {
        fn on_event(&self, event: hh_runtime::hooks::GcScheduleEvent) {
            let hh_runtime::hooks::GcScheduleEvent::EndRunPreDispose { run_epoch } = event else {
                return;
            };
            let mut hold = self.hold.lock().unwrap();
            match *hold {
                Hold::Open => {
                    *hold = Hold::Holding(run_epoch);
                    let _ = self
                        .released
                        .wait_timeout_while(hold, Duration::from_secs(60), |h| {
                            matches!(h, Hold::Holding(_))
                        })
                        .unwrap();
                }
                Hold::Holding(held) if held != run_epoch => {
                    *hold = Hold::Released;
                    self.released.notify_all();
                }
                _ => {}
            }
        }
    }

    #[test]
    fn serve_completes_all_runs_and_conserves_chunks() {
        let rt = HhRuntime::new(HhConfig::with_workers(2));
        rt.install_gc_hooks(Arc::new(HoldFirstEnd {
            hold: std::sync::Mutex::new(Hold::Open),
            released: std::sync::Condvar::new(),
        }));
        let report = serve(&rt, &small_cfg(48));
        assert_eq!(report.runs, 48);
        assert_eq!(report.completed_seeds.len(), 48);
        assert!(
            report.stats.active_runs_peak >= 2,
            "executors must actually overlap runs (peak {})",
            report.stats.active_runs_peak
        );
        // The epoch watermark reclaims per run, mid-overlap.
        assert!(
            report.stats.epoch_reclaims > 0,
            "watermark reclamation must fire under overlap"
        );
        verify_quiescent(&rt).unwrap();
    }

    #[test]
    fn serve_checksum_is_deterministic_across_interleavings() {
        let a = serve(&HhRuntime::new(HhConfig::with_workers(2)), &small_cfg(32));
        let b = serve(&HhRuntime::new(HhConfig::with_workers(2)), &small_cfg(32));
        assert_eq!(
            a.checksum, b.checksum,
            "run results must not depend on scheduling"
        );
    }

    /// A runtime shape: its label and its config for a pool size.
    type Shape = (&'static str, fn(usize) -> HhConfig);

    /// The two collector shapes every session runs under: epoch reclamation
    /// with stop-the-world zone collection, and the same with incremental
    /// collection.
    const SHAPES: [Shape; 2] = [
        ("epoch", HhConfig::with_workers),
        ("epoch-inc", HhConfig::incremental),
    ];

    /// The CI session shape: 2 clients, 3 executors, queue cap 16, default seed.
    fn session_cfg(runs: usize) -> ServeConfig {
        ServeConfig {
            runs,
            clients: 2,
            executors: 3,
            queue_cap: 16,
            ..ServeConfig::default()
        }
    }

    /// Serves `cfg` on a fresh `shape` runtime of `workers` pool workers, with a
    /// seeded uniform fault plan when `faults_ppm > 0`, then checks quiescence.
    /// A violation appends one forensics line (its `Display`, escaped) to
    /// `$HH_VIOLATION_JSON` before the panic.
    fn session(
        name: &str,
        (label, shape): Shape,
        workers: usize,
        cfg: &ServeConfig,
        faults_ppm: u32,
    ) -> ServeReport {
        let rt = HhRuntime::new(shape(workers));
        let plan = (faults_ppm > 0).then(|| {
            hh_api::silence_expected_aborts();
            let p = Arc::new(FaultPlan::uniform(cfg.seed ^ 0xFA17_5EED, faults_ppm));
            rt.install_gc_hooks(Arc::clone(&p) as Arc<dyn GcScheduleHooks>);
            p
        });
        let report = serve(&rt, cfg);
        if let Some(p) = plan {
            p.set_armed(false);
        }
        if let Err(v) = verify_quiescent(&rt) {
            append_violation_json(&format!(
                "{{\"kind\":\"serve-violation\",\"session\":{name:?},\"shape\":{label:?},\
                 \"workers\":{workers},\"seed\":{},\"violation\":{:?}}}",
                cfg.seed,
                v.to_string(),
            ));
            panic!(
                "{name} ({label}, {workers} workers, seed {}): {v}",
                cfg.seed
            );
        }
        report
    }

    /// CI serve session: 200 overlapping runs of the default mix on 2 workers
    /// under both collector shapes; each ends quiescent, and the two shapes
    /// agree on the checksum.
    #[test]
    fn session_mix_agrees_across_collector_shapes() {
        let cfg = session_cfg(200);
        let [a, b] = SHAPES.map(|shape| session("mix", shape, 2, &cfg, 0));
        for r in [&a, &b] {
            assert_eq!(r.runs, 200);
            assert!(r.stats.epoch_reclaims > 0, "no watermark reclamation");
        }
        assert_eq!(a.checksum, b.checksum, "collector shapes disagree");
    }

    /// Pinned registry workloads, including the two adversarial suite ids: 60
    /// runs each on 2 workers complete under both collector shapes, end
    /// quiescent, and agree on the checksum across shapes (and so across
    /// interleavings).
    #[test]
    fn pinned_workloads_serve_deterministically() {
        for w in [ServeWorkloadId::Wavefront, ServeWorkloadId::Entangle] {
            let cfg = ServeConfig {
                workload: Some(w),
                ..session_cfg(60)
            };
            let [a, b] = SHAPES.map(|shape| session(w.name(), shape, 2, &cfg, 0));
            assert_eq!(a.runs, 60, "{}", w.name());
            assert_eq!(b.runs, 60, "{}", w.name());
            assert_eq!(a.checksum, b.checksum, "{} nondeterministic", w.name());
        }
    }

    /// CI faulted session: 120 runs under a 4000 ppm fault plan with retries,
    /// a deadline and shedding, at `HH_WORKERS` (default 2) under both collector
    /// shapes. `serve` asserts every request is accounted for; each shape must
    /// abort something, end quiescent, and keep every survivor's result exact.
    #[test]
    fn session_under_faults_accounts_and_audits_survivors() {
        let cfg = ServeConfig {
            max_attempts: 3,
            deadline_ms: Some(5000),
            shed_inflight: Some(8),
            ..session_cfg(120)
        };
        let workers = hh_api::env_workers(2);
        for shape in SHAPES {
            let r = session("faults", shape, workers, &cfg, 4000);
            assert!(r.aborted > 0, "{}: no attempt was aborted", shape.0);
            assert!(
                audit_survivors(&cfg, workers, &r),
                "{}: a survivor's result differs from a fault-free run",
                shape.0
            );
        }
    }

    /// The `Display` of a violation — the one rendering panics and forensics
    /// lines carry — names the window state, both ends' heap and depth, and
    /// both chunks' run tag, generation, retirement and GC tag.
    #[test]
    fn violation_display_carries_window_state_and_chunk_forensics() {
        use hh_objmodel::{ChunkForensics, ChunkId, ObjPtr};
        use hh_runtime::{DisentanglementReport, EntanglementViolation, HeapId};
        let chunk = |id: u32, owner: u32| ChunkForensics {
            chunk: ChunkId(id),
            owner,
            run_tag: 7 + u64::from(owner),
            generation: 1 + owner,
            retired: owner == 1,
            gc_epoch: 3,
            gc_from: owner == 1,
            gc_to: owner == 0,
        };
        let v = QuiescenceViolation {
            reason: "1 disentanglement violations".into(),
            disentanglement: Some(DisentanglementReport {
                violations: vec![EntanglementViolation {
                    holder: ObjPtr::new(ChunkId(2), 0),
                    field: 5,
                    holder_heap: HeapId(0),
                    holder_depth: 1,
                    holder_chunk: chunk(2, 0),
                    target: ObjPtr::new(ChunkId(4), 242),
                    target_heap: HeapId(1),
                    target_depth: 2,
                    target_chunk: chunk(4, 1),
                }],
                window_open: true,
                window_finalizing: false,
                window_epoch: 3,
            }),
        };
        let text = v.to_string();
        for key in [
            "1 disentanglement violations",
            "window open: true, finalizing: false, epoch 3",
            "field 5 in heap HeapId(0) (depth 1)",
            "non-ancestor heap HeapId(1) (depth 2)",
            "chunk 2 (owner 0, run_tag 7, gen 1, active, gc epoch 3 TO)",
            "chunk 4 (owner 1, run_tag 8, gen 2, retired, gc epoch 3 FROM)",
        ] {
            assert!(text.contains(key), "missing {key:?} in {text}");
        }
    }
}
