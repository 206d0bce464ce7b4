//! Running one benchmark on one runtime and collecting its statistics.

use hh_api::{RunStats, Runtime};
use hh_baselines::{DlgRuntime, SeqRuntime, StwRuntime};
use hh_runtime::{HhConfig, HhRuntime};
use hh_workloads::suite::{run_timed, BenchId, Params};
use std::time::{Duration, Instant};

/// The four runtimes of the evaluation.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum RuntimeKind {
    /// Sequential baseline (`mlton`).
    Seq,
    /// Stop-the-world parallel baseline (`mlton-spoonhower`).
    Stw,
    /// DLG / Manticore-style baseline (`manticore`).
    Dlg,
    /// The hierarchical-heap runtime (`mlton-parmem`, this paper).
    Parmem,
}

impl RuntimeKind {
    /// The label used in the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            RuntimeKind::Seq => "mlton (seq)",
            RuntimeKind::Stw => "mlton-spoonhower (stw)",
            RuntimeKind::Dlg => "manticore-style (dlg)",
            RuntimeKind::Parmem => "mlton-parmem (ours)",
        }
    }

    /// Short name used in compact tables.
    pub fn short(self) -> &'static str {
        match self {
            RuntimeKind::Seq => "seq",
            RuntimeKind::Stw => "stw",
            RuntimeKind::Dlg => "dlg",
            RuntimeKind::Parmem => "parmem",
        }
    }
}

/// One benchmark run on one runtime configuration.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Runtime short name (`seq`, `stw`, `dlg`, `parmem`).
    pub runtime: String,
    /// Benchmark name.
    pub bench: String,
    /// Number of workers used.
    pub workers: usize,
    /// Wall-clock time of the timed kernel.
    pub elapsed: Duration,
    /// Result checksum (for cross-runtime agreement checks).
    pub checksum: u64,
    /// Runtime statistics accumulated over the whole run (including input preparation).
    pub stats: RunStats,
}

impl Measurement {
    /// GC time as a fraction of the kernel's elapsed time, capped at 1.0.
    pub fn gc_fraction(&self) -> f64 {
        self.stats.gc_fraction(self.elapsed).min(1.0)
    }
}

/// Runs `bench` once on an *existing* runtime and collects its statistics.
///
/// Unlike [`measure`], which constructs a fresh runtime, this lets callers reuse one
/// runtime across several runs — the pattern the memory-lifecycle experiments need,
/// since chunks retired by one run are recycled by the next (`repro mem`, the
/// `chunk_churn` bench).
pub fn measure_on<R: Runtime>(
    rt: &R,
    bench: BenchId,
    params: Params,
    workers: usize,
) -> Measurement {
    let outcome = rt.run(|ctx| run_timed(ctx, bench, params));
    Measurement {
        runtime: rt.name().to_string(),
        bench: bench.name().to_string(),
        workers,
        elapsed: outcome.elapsed,
        checksum: outcome.checksum,
        stats: rt.stats(),
    }
}

/// Runs `bench` on a freshly constructed runtime of the given kind with `workers`
/// workers and problem sizes from `params`.
pub fn measure(kind: RuntimeKind, workers: usize, bench: BenchId, params: Params) -> Measurement {
    match kind {
        RuntimeKind::Seq => {
            let rt = SeqRuntime::new();
            measure_on(&rt, bench, params, 1)
        }
        RuntimeKind::Stw => {
            let rt = StwRuntime::with_workers(workers);
            measure_on(&rt, bench, params, workers)
        }
        RuntimeKind::Dlg => {
            let rt = DlgRuntime::with_workers(workers);
            measure_on(&rt, bench, params, workers)
        }
        RuntimeKind::Parmem => {
            let rt = HhRuntime::new(HhConfig::with_workers(workers));
            measure_on(&rt, bench, params, workers)
        }
    }
}

/// Runs the hierarchical runtime with explicit configuration (used by the ablations).
pub fn measure_parmem_with_config(config: HhConfig, bench: BenchId, params: Params) -> Measurement {
    let workers = config.n_workers;
    let rt = HhRuntime::new(config);
    measure_on(&rt, bench, params, workers)
}

// ---------------------------------------------------------------------------
// Promotion v2 micro-measurement (shared by `repro promote` and the
// `promote_overhead` bench, so both always measure the same thing).
// ---------------------------------------------------------------------------

/// A runtime configured for promotion micro-measurement: one worker, eager
/// per-fork heaps (a publish promotes even unstolen), invariant checker off.
pub fn promotion_runtime() -> HhRuntime {
    HhRuntime::new(HhConfig {
        n_workers: 1,
        lazy_child_heaps: false,
        check_invariants: false,
        ..HhConfig::default()
    })
}

/// Times `iters` promotions of a freshly built `chain_len`-object cons closure,
/// timing **only** the promoting `write_ptr` (the build is untimed). Each
/// repetition is its own `run`, so the closure is never already promoted and the
/// heaps are recycled between repetitions.
pub fn time_promotions(rt: &HhRuntime, chain_len: usize, iters: u64) -> Duration {
    use hh_api::{ObjPtr, ParCtx};
    let mut total = Duration::ZERO;
    for _ in 0..iters {
        total += rt.run(|ctx| {
            let holder = ctx.alloc_ref_ptr(ObjPtr::NULL);
            ctx.join(
                |c| {
                    let mut head = ObjPtr::NULL;
                    for k in 0..chain_len {
                        head = c.alloc_cons(ObjPtr::NULL, head, k as u64);
                    }
                    let start = Instant::now();
                    c.write_ptr(holder, 0, head);
                    start.elapsed()
                },
                |_| Duration::ZERO,
            )
            .0
        });
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_runs_on_all_runtimes_and_agrees() {
        let params = Params::tiny();
        let seq = measure(RuntimeKind::Seq, 1, BenchId::Reduce, params);
        for kind in [RuntimeKind::Stw, RuntimeKind::Dlg, RuntimeKind::Parmem] {
            let m = measure(kind, 2, BenchId::Reduce, params);
            assert_eq!(m.checksum, seq.checksum, "{:?} disagrees with seq", kind);
            assert_eq!(m.workers, 2);
            assert!(!m.bench.is_empty());
        }
    }

    #[test]
    fn labels_are_distinct() {
        let kinds = [
            RuntimeKind::Seq,
            RuntimeKind::Stw,
            RuntimeKind::Dlg,
            RuntimeKind::Parmem,
        ];
        let mut shorts: Vec<&str> = kinds.iter().map(|k| k.short()).collect();
        shorts.sort_unstable();
        shorts.dedup();
        assert_eq!(shorts.len(), 4);
    }
}
