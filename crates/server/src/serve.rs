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

use crate::queue::BoundedQueue;
use hh_api::{LatencyRecorder, LatencySummary};
use hh_api::{RunCtl, RunError, RunStats, Runtime};
use hh_workloads::ServeWorkloadId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of one serve experiment.
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
    /// Executors sample the store footprint every this many completed runs.
    pub sample_every: usize,
    /// Pin every request to one registry workload (`serve --workload`); `None`
    /// dispatches the default mutator mix off each request's seed.
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
            sample_every: 16,
            workload: None,
            deadline_ms: None,
            max_attempts: 1,
            backoff_us: 200,
            shed_inflight: None,
        }
    }
}

/// One queued run request.
struct Job {
    seed: u64,
    enqueued: Instant,
}

/// Outcome of one serve experiment.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Runtime name (`"parmem"`, `"seq"`, ...).
    pub runtime: &'static str,
    /// Reclamation mode label (`"epoch"` or `"global"`).
    pub mode: &'static str,
    /// Workload label: a registry suite id when the config pinned one, `"mix"`
    /// for the default mutator mix (keeps artifact lines from different
    /// workloads distinct in the bench gate).
    pub workload: &'static str,
    /// Runs completed. Equals the configured total on a clean pass; under fault
    /// injection, deadlines, or load shedding it is the *partial* result count
    /// (see the abort counters below — the report always accounts for every
    /// configured request: `runs + rejected + deadline_hits + failed ==
    /// requested`).
    pub runs: u64,
    /// Requests the experiment was configured to serve.
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
    /// Workload size multiplier the experiment ran at (carried into the JSON
    /// report so artifact lines from different tenant mixes stay distinct).
    pub scale: usize,
    /// Wall-clock duration of the whole experiment.
    pub elapsed_s: f64,
    /// Completed runs per second.
    pub throughput_rps: f64,
    /// Enqueue-to-completion latency percentiles.
    pub latency: LatencySummary,
    /// Commutative checksum over all run results (deterministic for a given
    /// config/seed regardless of interleaving — a correctness canary).
    pub checksum: u64,
    /// Largest store footprint observed at any sample point: live + free +
    /// quarantined words. Boundedness of this under perpetual overlap is the
    /// tentpole claim.
    pub peak_footprint_words: u64,
    /// Store footprint after the last run completed.
    pub final_footprint_words: u64,
    /// Runtime statistics accumulated over the experiment.
    pub stats: RunStats,
}

impl ServeReport {
    /// Fraction of chunk handouts served by recycling.
    pub fn recycle_rate(&self) -> f64 {
        self.stats.recycle_rate()
    }

    /// Renders the report as one JSON object (hand-rolled — the environment has no
    /// serde; all fields are numbers or plain ASCII strings, so no escaping is
    /// needed).
    pub fn to_json(&self) -> String {
        let l = &self.latency;
        let s = &self.stats;
        format!(
            concat!(
                "{{\"experiment\":\"serve\",\"runtime\":\"{}\",\"mode\":\"{}\",\"workload\":\"{}\",",
                "\"runs\":{},\"requested\":{},\"aborted\":{},\"retried\":{},\"rejected\":{},",
                "\"deadline_hits\":{},\"failed\":{},",
                "\"scale\":{},\"elapsed_s\":{:.6},\"throughput_rps\":{:.2},",
                "\"p50_us\":{:.1},\"p99_us\":{:.1},\"p999_us\":{:.1},\"max_us\":{:.1},\"mean_us\":{:.1},",
                "\"checksum\":{},\"recycle_rate\":{:.6},\"chunks_created\":{},\"chunks_recycled\":{},",
                "\"epoch_reclaims\":{},\"active_runs_peak\":{},\"quarantine_lag_words\":{},",
                "\"peak_footprint_words\":{},\"final_footprint_words\":{},\"peak_live_words\":{},",
                "\"gc_count\":{},\"gc_max_pause_ns\":{},\"gc_pause_p999_ns\":{}}}"
            ),
            self.runtime,
            self.mode,
            self.workload,
            self.runs,
            self.requested,
            self.aborted,
            self.retried,
            self.rejected,
            self.deadline_hits,
            self.failed,
            self.scale,
            self.elapsed_s,
            self.throughput_rps,
            l.p50_ns as f64 / 1e3,
            l.p99_ns as f64 / 1e3,
            l.p999_ns as f64 / 1e3,
            l.max_ns as f64 / 1e3,
            l.mean_ns as f64 / 1e3,
            self.checksum,
            self.recycle_rate(),
            s.chunks_created,
            s.chunks_recycled,
            s.epoch_reclaims,
            s.active_runs_peak,
            s.quarantine_lag_words,
            self.peak_footprint_words,
            self.final_footprint_words,
            s.peak_live_words,
            s.gc_count,
            s.gc_max_pause_ns,
            s.gc_pause_p999_ns,
        )
    }
}

/// SplitMix64 — derives per-request seeds from the base seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Executes one request attempt through the workload registry: a pinned
/// workload when the config names one, otherwise the default mutator mix
/// selected off the seed's high bits (the low bits of simple generators are the
/// weak ones). Every registry workload allocates, forks, promotes, and retires
/// enough chunks per run to exercise the whole reclamation path. The attempt
/// runs under `ctl` (cancellation + deadline) and any abort — cooperative,
/// injected, or a genuine panic — comes back as a typed [`RunError`] instead of
/// unwinding into the executor thread.
fn try_run_one<R: Runtime>(
    rt: &R,
    workload: Option<ServeWorkloadId>,
    ctl: &Arc<RunCtl>,
    seed: u64,
    scale: usize,
) -> Result<u64, RunError> {
    let w = workload.unwrap_or_else(|| ServeWorkloadId::from_mix_seed(seed));
    rt.try_run(ctl, |ctx| w.run(ctx, seed, scale))
}

/// Per-executor outcome tally, merged into the report after the scope joins.
#[derive(Default)]
struct ExecTally {
    rec: LatencyRecorder,
    completed_seeds: Vec<u64>,
    aborted: u64,
    retried: u64,
    deadline_hits: u64,
    failed: u64,
}

/// Runs the serve experiment on `rt`: `cfg.clients` producers feed `cfg.runs`
/// requests through a bounded queue to `cfg.executors` consumers, each driving
/// overlapping `Runtime::run` calls on the shared runtime. `mode` is a label
/// carried into the report (the runtime's reclamation mode is fixed at its
/// construction).
pub fn serve<R: Runtime>(rt: &R, cfg: &ServeConfig, mode: &'static str) -> ServeReport {
    assert!(cfg.runs > 0 && cfg.clients > 0 && cfg.executors > 0);
    rt.reset_stats();
    let queue: Arc<BoundedQueue<Job>> = Arc::new(BoundedQueue::new(cfg.queue_cap));
    let checksum = AtomicU64::new(0);
    let peak_footprint = AtomicU64::new(0);
    // Active-run gauge for admission control: requests currently executing.
    let inflight = AtomicU64::new(0);
    let sample_every = cfg.sample_every.max(1);
    let max_attempts = cfg.max_attempts.max(1);
    let start = Instant::now();

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
                    let job = Job {
                        seed,
                        enqueued: Instant::now(),
                    };
                    // Admission control: past the in-flight watermark the
                    // server stops applying back-pressure and sheds — a full
                    // queue is a typed rejection, not a blocked client. A
                    // closed queue (the executors died) also rejects rather
                    // than silently dropping the rest of the request count.
                    let over = cfg
                        .shed_inflight
                        .is_some_and(|w| inflight.load(Ordering::Relaxed) >= w as u64);
                    let refused = if over {
                        queue.try_push(job).is_err()
                    } else {
                        queue.push(job).is_err()
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
                let peak_footprint = &peak_footprint;
                let inflight = &inflight;
                let mut backoff_rng = cfg.seed
                    ^ 0xD6E8_FEB8_6659_FD93
                    ^ (e as u64).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
                scope.spawn(move || {
                    // If this executor dies of an unexpected panic, close the
                    // queue on the way out: blocked producers get a rejection
                    // back instead of deadlocking on a condvar nobody signals.
                    let close_guard = queue.close_on_drop();
                    let mut t = ExecTally {
                        rec: LatencyRecorder::with_capacity(cfg.runs / cfg.executors + 1),
                        ..ExecTally::default()
                    };
                    let mut done = 0usize;
                    while let Some(job) = queue.pop() {
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
                            let r = try_run_one(rt, cfg.workload, &ctl, job.seed, cfg.scale);
                            inflight.fetch_sub(1, Ordering::Relaxed);
                            match r {
                                Ok(v) => {
                                    t.rec.record(job.enqueued.elapsed());
                                    checksum.fetch_add(v, Ordering::Relaxed);
                                    t.completed_seeds.push(job.seed);
                                    done += 1;
                                    if done.is_multiple_of(sample_every) {
                                        let s = rt.stats();
                                        let footprint =
                                            s.live_words + s.free_words + s.quarantine_lag_words;
                                        peak_footprint.fetch_max(footprint, Ordering::Relaxed);
                                    }
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

    let elapsed = start.elapsed();
    let mut all = LatencyRecorder::default();
    let mut completed_seeds = Vec::new();
    let (mut aborted, mut retried, mut deadline_hits, mut failed) = (0u64, 0u64, 0u64, 0u64);
    for t in tallies {
        all.merge(t.rec);
        completed_seeds.extend(t.completed_seeds);
        aborted += t.aborted;
        retried += t.retried;
        deadline_hits += t.deadline_hits;
        failed += t.failed;
    }
    let completed = all.len() as u64;
    // Every configured request ends in exactly one bucket. On a clean pass
    // (no faults armed, no deadline, no shedding) this degenerates to the old
    // "every request must complete" assertion.
    assert_eq!(
        completed + rejected + deadline_hits + failed,
        cfg.runs as u64,
        "every request must be accounted for (completed {completed}, rejected {rejected}, \
         deadline {deadline_hits}, failed {failed})"
    );
    let stats = rt.stats();
    let final_footprint = stats.live_words + stats.free_words + stats.quarantine_lag_words;
    ServeReport {
        runtime: rt.name(),
        mode,
        workload: cfg.workload.map_or("mix", ServeWorkloadId::name),
        runs: completed,
        requested: cfg.runs as u64,
        aborted,
        retried,
        rejected,
        deadline_hits,
        failed,
        completed_seeds,
        scale: cfg.scale,
        elapsed_s: elapsed.as_secs_f64(),
        throughput_rps: completed as f64 / elapsed.as_secs_f64().max(1e-9),
        latency: all.summarize(),
        checksum: checksum.load(Ordering::Relaxed),
        peak_footprint_words: peak_footprint.load(Ordering::Relaxed).max(final_footprint),
        final_footprint_words: final_footprint,
        stats,
    }
}

/// A failed post-serve quiescence check: the one-line `reason` plus, for
/// disentanglement failures, the full per-violation forensics report
/// (offending slots, chunk `run_tag`/`gc_state`, heap depths, window state).
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

/// How many individual violations a JSON line carries before truncating (a mass
/// violation lists hundreds of identical-shaped entries; the first few plus the
/// count carry all the signal).
const VIOLATION_JSON_CAP: usize = 32;

impl QuiescenceViolation {
    /// Renders the violation as one machine-readable JSON line carrying enough
    /// context to replay (seed/mode/workload/scale) and diagnose (window state,
    /// per-violation chunk forensics). Hand-rolled like [`ServeReport::to_json`];
    /// the only free-form text is `reason`, which is escaped.
    pub fn to_json(&self, cfg: &ServeConfig, mode: &str) -> String {
        let escape = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
        let mut out = format!(
            concat!(
                "{{\"experiment\":\"serve-violation\",\"mode\":\"{}\",\"workload\":\"{}\",",
                "\"seed\":{},\"scale\":{},\"runs\":{},\"reason\":\"{}\""
            ),
            escape(mode),
            cfg.workload.map_or("mix", ServeWorkloadId::name),
            cfg.seed,
            cfg.scale,
            cfg.runs,
            escape(&self.reason),
        );
        if let Some(report) = &self.disentanglement {
            out.push_str(&format!(
                ",\"window_open\":{},\"window_finalizing\":{},\"window_epoch\":{},\
                 \"violation_count\":{},\"violations\":[",
                report.window_open,
                report.window_finalizing,
                report.window_epoch,
                report.violations.len(),
            ));
            for (i, v) in report
                .violations
                .iter()
                .take(VIOLATION_JSON_CAP)
                .enumerate()
            {
                if i > 0 {
                    out.push(',');
                }
                let chunk_json = |c: &hh_objmodel::ChunkForensics| {
                    format!(
                        "{{\"chunk\":{},\"owner\":{},\"run_tag\":{},\"generation\":{},\
                         \"retired\":{},\"gc_epoch\":{},\"gc_slot\":{},\"gc_from\":{},\
                         \"gc_to\":{}}}",
                        c.chunk.0,
                        c.owner,
                        c.run_tag,
                        c.generation,
                        c.retired,
                        c.gc_epoch,
                        c.gc_slot,
                        c.gc_from,
                        c.gc_to,
                    )
                };
                out.push_str(&format!(
                    "{{\"holder\":\"{:?}\",\"field\":{},\"holder_heap\":{},\
                     \"holder_depth\":{},\"holder_chunk\":{},\"target\":\"{:?}\",\
                     \"target_heap\":{},\"target_depth\":{},\"target_chunk\":{}}}",
                    v.holder,
                    v.field,
                    v.holder_heap.raw(),
                    v.holder_depth,
                    chunk_json(&v.holder_chunk),
                    v.target,
                    v.target_heap.raw(),
                    v.target_depth,
                    chunk_json(&v.target_chunk),
                ));
            }
            out.push(']');
        }
        out.push('}');
        out
    }
}

/// Post-serve invariant check for the hierarchical runtime: with the server
/// quiescent, the chunk lifecycle must conserve
/// (`created == active + quarantined + free + released`) and every live heap must
/// be disentangled. Returns the first violation with full forensics.
pub fn verify_quiescent(rt: &hh_runtime::HhRuntime) -> Result<(), QuiescenceViolation> {
    let plain = |reason: String| QuiescenceViolation {
        reason,
        disentanglement: None,
    };
    let s = rt.store_stats();
    let accounted = s.chunks_active + s.chunks_quarantined + s.chunks_free + s.chunks_released;
    if s.chunks_created != accounted {
        return Err(plain(format!(
            "chunk conservation violated: created {} != active {} + quarantined {} + free {} + released {}",
            s.chunks_created, s.chunks_active, s.chunks_quarantined, s.chunks_free, s.chunks_released
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
    use hh_runtime::{HhConfig, HhRuntime};

    fn small_cfg(runs: usize) -> ServeConfig {
        ServeConfig {
            runs,
            clients: 2,
            executors: 3,
            queue_cap: 8,
            seed: 7,
            scale: 1,
            sample_every: 4,
            workload: None,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn serve_completes_all_runs_and_conserves_chunks() {
        let rt = HhRuntime::new(HhConfig::with_workers(2));
        let report = serve(&rt, &small_cfg(48), "epoch");
        assert_eq!(report.runs, 48);
        assert_eq!(report.latency.count, 48);
        assert!(report.throughput_rps > 0.0);
        assert!(report.peak_footprint_words >= report.final_footprint_words);
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
        let a = serve(
            &HhRuntime::new(HhConfig::with_workers(2)),
            &small_cfg(32),
            "epoch",
        );
        let b = serve(
            &HhRuntime::new(HhConfig::with_workers(2)),
            &small_cfg(32),
            "epoch",
        );
        assert_eq!(
            a.checksum, b.checksum,
            "run results must not depend on scheduling"
        );
    }

    /// Pinned registry workloads (the `--workload` path) complete, stay
    /// deterministic across interleavings, and leave the runtime quiescent —
    /// including the two adversarial suite ids.
    #[test]
    fn pinned_workloads_serve_deterministically() {
        for w in [ServeWorkloadId::Wavefront, ServeWorkloadId::Entangle] {
            let cfg = ServeConfig {
                workload: Some(w),
                ..small_cfg(24)
            };
            let rt_a = HhRuntime::new(HhConfig::with_workers(2));
            let a = serve(&rt_a, &cfg, "epoch");
            assert_eq!(a.runs, 24, "{}", w.name());
            assert_eq!(a.workload, w.name());
            assert!(a
                .to_json()
                .contains(&format!("\"workload\":\"{}\"", w.name())));
            verify_quiescent(&rt_a).unwrap();
            let b = serve(&HhRuntime::new(HhConfig::with_workers(2)), &cfg, "epoch");
            assert_eq!(a.checksum, b.checksum, "{} nondeterministic", w.name());
        }
    }

    #[test]
    fn violation_json_is_well_formed_and_carries_forensics() {
        use hh_objmodel::{ChunkForensics, ChunkId, ObjPtr};
        use hh_runtime::{DisentanglementReport, EntanglementViolation, HeapId};
        let chunk = |id: u32, owner: u32| ChunkForensics {
            chunk: ChunkId(id),
            owner,
            run_tag: 7,
            generation: 1,
            retired: owner == 1,
            gc_epoch: 3,
            gc_slot: 0,
            gc_from: false,
            gc_to: owner == 0,
        };
        let v = QuiescenceViolation {
            reason: "1 disentanglement \"violations\"".into(),
            disentanglement: Some(DisentanglementReport {
                violations: vec![EntanglementViolation {
                    holder: ObjPtr::new(ChunkId(2), 0),
                    field: 5,
                    holder_heap: HeapId(0),
                    holder_depth: 0,
                    holder_chunk: chunk(2, 0),
                    target: ObjPtr::new(ChunkId(4), 242),
                    target_heap: HeapId(1),
                    target_depth: 0,
                    target_chunk: chunk(4, 1),
                }],
                window_open: true,
                window_finalizing: false,
                window_epoch: 3,
            }),
        };
        let json = v.to_json(&small_cfg(8), "epoch-inc");
        for key in [
            "\"experiment\":\"serve-violation\"",
            "\"mode\":\"epoch-inc\"",
            "\"workload\":\"mix\"",
            "\"seed\":7",
            "\"reason\":\"1 disentanglement \\\"violations\\\"\"",
            "\"window_open\":true",
            "\"window_epoch\":3",
            "\"violation_count\":1",
            "\"field\":5",
            "\"run_tag\":7",
            "\"retired\":true",
            "\"gc_to\":true",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        // The Display form shows the reason plus one line per violation.
        let text = format!("{v}");
        assert!(text.contains("field 5"));
        assert!(text.contains("run_tag 7"));
    }

    #[test]
    fn json_report_is_well_formed() {
        let rt = HhRuntime::new(HhConfig::with_workers(1));
        let report = serve(
            &rt,
            &ServeConfig {
                runs: 6,
                clients: 1,
                executors: 2,
                ..small_cfg(6)
            },
            "epoch",
        );
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        for key in [
            "\"experiment\":\"serve\"",
            "\"runtime\":\"parmem\"",
            "\"mode\":\"epoch\"",
            "\"workload\":\"mix\"",
            "\"runs\":6",
            "\"scale\":1",
            "\"p999_us\":",
            "\"gc_max_pause_ns\":",
            "\"recycle_rate\":",
            "\"epoch_reclaims\":",
            "\"active_runs_peak\":",
            "\"peak_footprint_words\":",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // Balanced quotes and braces — cheap structural sanity without a parser.
        assert_eq!(json.matches('"').count() % 2, 0);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
