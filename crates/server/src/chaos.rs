//! Seeded chaos lane: serve sweeps with the fault-injection layer armed.
//!
//! Each chaos *seed* builds a fresh hierarchical runtime, installs a seeded
//! [`FaultPlan`] (panics and allocation failures at hook
//! sites, per-site probability derived from the seed), and drives a small
//! multi-tenant [`serve`] sweep against it. Afterwards the lane checks what the
//! failure model promises (DESIGN.md §13):
//!
//! * the serve accounting conserves requests (asserted inside [`serve`]);
//! * at least one run was actually aborted — a chaos seed that never fired
//!   proves nothing, so the per-seed fault rate escalates until one does;
//! * the runtime is quiescent: chunk conservation, zero registered runs
//!   (no leaked epochs pinning the reclamation watermark), disentangled heaps;
//! * every *surviving* run's result is checksum-correct — each result is a pure
//!   function of `(workload, seed, scale)`, so the lane recomputes the
//!   survivors' contributions on a fresh fault-free runtime and compares.
//!
//! The sweep is fully deterministic in its inputs (chaos seed → fault plan,
//! request seeds, backoff jitter); outcomes still vary with scheduling, which
//! is the point — every seed explores a different interleaving of faults
//! against the same invariants.

use crate::serve::{serve, verify_quiescent, QuiescenceViolation, ServeConfig, ServeReport};
use hh_runtime::{FaultPlan, HhConfig, HhRuntime, Runtime};
use hh_workloads::ServeWorkloadId;
use std::sync::Arc;

/// Configuration of one chaos sweep (`tests/chaos.rs` picks the sweep width).
#[derive(Clone, Copy, Debug)]
pub struct ChaosConfig {
    /// First chaos seed; seed `i` of the sweep is `base_seed + i`.
    pub base_seed: u64,
    /// Requests per seed's serve sweep.
    pub runs: usize,
    /// Client threads per sweep.
    pub clients: usize,
    /// Executor threads per sweep (the run-overlap degree faults land in).
    pub executors: usize,
    /// Pool workers of each runtime.
    pub workers: usize,
    /// Initial uniform per-site fault rate, parts per million. Escalates
    /// (×8, capped at certainty) until the seed produces at least one abort.
    pub rate_ppm: u32,
    /// Optional per-run deadline for the swept runs.
    pub deadline_ms: Option<u64>,
    /// Attempts per request (retry budget for fault-killed runs).
    pub max_attempts: u32,
    /// Workload scale of the swept runs.
    pub scale: usize,
    /// Sweep the incremental-GC runtime shape (windows give the fault plan its
    /// finalize sites); `false` sweeps the monolithic-collection shape.
    pub incremental: bool,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            base_seed: 0xC4A0_5EED,
            runs: 10,
            clients: 2,
            executors: 3,
            workers: hh_api::env_workers(2),
            rate_ppm: 60,
            deadline_ms: None,
            max_attempts: 2,
            scale: 1,
            incremental: true,
        }
    }
}

/// What one chaos seed did and left behind.
#[derive(Debug)]
pub struct ChaosOutcome {
    /// The chaos seed.
    pub seed: u64,
    /// The fault rate (ppm) the seed ended up running at (after escalation).
    pub rate_ppm: u32,
    /// Faults the plan injected across the sweep.
    pub injected: u64,
    /// Runs whose teardown ran under an unwind (the runtime's abort counter).
    pub aborted_runs: u64,
    /// Incremental-finalize rescues the runtime performed (hook panic mid-
    /// finalize, window completed by the unwind guard).
    pub finalize_rescues: u64,
    /// Runs still registered active after the sweep (must be 0 — a leaked
    /// run epoch would pin the reclamation watermark forever).
    pub active_runs: u64,
    /// First violated quiescence invariant, if any (must be `None`).
    pub violation: Option<QuiescenceViolation>,
    /// True when the survivors' recomputed checksum matches the report.
    pub checksum_ok: bool,
    /// The serve report of the (final, post-escalation) sweep.
    pub report: ServeReport,
}

impl ChaosOutcome {
    /// True when the seed upheld every invariant the lane checks.
    pub fn clean(&self) -> bool {
        self.report.aborted > 0
            && self.active_runs == 0
            && self.violation.is_none()
            && self.checksum_ok
    }

    /// One JSON line of replay forensics for a dirty seed (hand-rolled — no
    /// serde here): the sweep index (`HH_CHAOS_SEED=<sweep_index>` replays it),
    /// seed, fault rate, the first violated invariant and the serve report.
    pub fn violation_json(&self, sweep_index: u64) -> String {
        let reason = match &self.violation {
            Some(v) => v.reason.clone(),
            None if !self.checksum_ok => "survivor checksum mismatch".to_string(),
            None => format!("{} leaked run epoch(s)", self.active_runs),
        };
        format!(
            "{{\"kind\":\"chaos-violation\",\"sweep_index\":{sweep_index},\"seed\":{},\
             \"rate_ppm\":{},\"reason\":{reason:?},\"active_runs\":{},\"checksum_ok\":{},\
             \"report\":{}}}",
            self.seed,
            self.rate_ppm,
            self.active_runs,
            self.checksum_ok,
            self.report.to_json(),
        )
    }
}

/// Recomputes the survivors' checksum on a fresh fault-free runtime. Every
/// request result is a pure function of `(workload, seed, scale)`, so a
/// mismatch means an abort corrupted a *surviving* run's heap.
fn audit_survivors(cfg: &ChaosConfig, report: &ServeReport) -> bool {
    let rt = HhRuntime::new(HhConfig::with_workers(cfg.workers));
    let mut sum = 0u64;
    for &seed in &report.completed_seeds {
        let w = ServeWorkloadId::from_mix_seed(seed);
        sum = sum.wrapping_add(rt.run(|ctx| w.run(ctx, seed, cfg.scale)));
    }
    sum == report.checksum
}

/// Runs one chaos seed: serve under an armed fault plan, then check the
/// post-mortem invariants. Escalates the fault rate until the seed actually
/// aborts at least one attempt (a quiet seed would vacuously "pass"); at the
/// certainty cap the very first allocation of every run faults, so the loop
/// always terminates.
pub fn chaos_one(cfg: &ChaosConfig, seed: u64) -> ChaosOutcome {
    hh_api::silence_expected_aborts();
    let mut rate = cfg.rate_ppm.max(1);
    loop {
        let shape = if cfg.incremental {
            HhConfig::incremental(cfg.workers)
        } else {
            HhConfig::with_workers(cfg.workers)
        };
        let rt = HhRuntime::new(shape);
        let plan = Arc::new(FaultPlan::uniform(seed, rate));
        rt.install_gc_hooks(Arc::clone(&plan) as Arc<dyn hh_runtime::GcScheduleHooks>);
        plan.set_armed(true);
        let serve_cfg = ServeConfig {
            runs: cfg.runs,
            clients: cfg.clients,
            executors: cfg.executors,
            queue_cap: 8,
            seed: seed ^ 0x5EED_C4A0_57AB_1E00,
            scale: cfg.scale,
            sample_every: 4,
            workload: None,
            deadline_ms: cfg.deadline_ms,
            max_attempts: cfg.max_attempts,
            backoff_us: 50,
            shed_inflight: None,
        };
        let report = serve(&rt, &serve_cfg, "chaos");
        plan.set_armed(false);
        if report.aborted == 0 {
            rate = rate.saturating_mul(8).min(1_000_000);
            continue;
        }
        let checksum_ok = audit_survivors(cfg, &report);
        let stats = rt.stats();
        return ChaosOutcome {
            seed,
            rate_ppm: rate,
            injected: plan.injected_total(),
            aborted_runs: stats.runs_aborted,
            finalize_rescues: stats.gc_finalize_rescues,
            active_runs: rt.active_runs() as u64,
            violation: verify_quiescent(&rt).err(),
            checksum_ok,
            report,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_chaos_seed_aborts_and_stays_quiescent() {
        let cfg = ChaosConfig {
            runs: 6,
            ..ChaosConfig::default()
        };
        let out = chaos_one(&cfg, cfg.base_seed);
        assert!(out.report.aborted > 0, "escalation must force an abort");
        assert!(
            out.clean(),
            "seed {:#x} (rate {} ppm): violation={:?} active={} checksum_ok={}",
            out.seed,
            out.rate_ppm,
            out.violation.as_ref().map(|v| v.reason.clone()),
            out.active_runs,
            out.checksum_ok
        );
        let json = out.violation_json(3);
        for key in [
            "\"kind\":\"chaos-violation\"",
            "\"sweep_index\":3",
            &format!("\"seed\":{}", out.seed),
            "\"reason\":",
            "\"report\":{",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
