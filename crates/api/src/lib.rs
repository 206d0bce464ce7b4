//! # hh-api — the high-level operation interface (ParCtx v2)
//!
//! The paper reduces full Standard ML plus nested parallelism to six high-level
//! operations (its Figure 3): `forkjoin`, `alloc`, `readImmutable`, `readMutable`,
//! `writeNonptr`, and `writePtr`. Every runtime in this repository — the hierarchical
//! heap runtime (`hh-runtime`) and the three baselines (`hh-baselines`) — implements
//! exactly that interface, expressed here as the [`ParCtx`] trait, and every benchmark
//! in `hh-workloads` is written once, generically, against it.
//!
//! ## The v2 surface: bulk operations and n-ary fork-join
//!
//! The paper's scalar operations pay one virtual call plus one forwarding-chain check
//! per 64-bit word, and binary `forkjoin` forces every workload to hand-roll its own
//! recursive range splitting. ParCtx v2 adds two families of provided methods that
//! remove both costs without changing the model:
//!
//! * **Bulk field operations** — [`ParCtx::read_imm_bulk`], [`ParCtx::read_mut_bulk`],
//!   [`ParCtx::write_nonptr_bulk`], [`ParCtx::fill_nonptr`], and
//!   [`ParCtx::copy_nonptr`] (object→object range copy) express a whole contiguous
//!   field range in one call. The default implementations are scalar loops (so every
//!   `ParCtx` impl is automatically correct); the runtimes override them to resolve
//!   the master copy (or the baselines' forwarding barrier) **once per slice**. Bulk
//!   traffic is reported through the `bulk_*` counters of [`RunStats`].
//! * **N-ary fork-join** — [`ParCtx::join_many`] runs any number of tasks with one
//!   call (divide-and-conquer over binary [`ParCtx::join`], so the heap hierarchy
//!   stays balanced), and [`ParCtx::par_for`] is the grain-controlled parallel loop
//!   every workload previously hand-rolled: it hands each leaf task a disjoint
//!   subrange, sized for the bulk operations above, and polls
//!   [`ParCtx::maybe_collect`] at each leaf.
//!
//! In addition to the paper's operations the trait carries:
//!
//! * `cas_nonptr`, the atomic compare-and-swap the BFS benchmarks use to mark vertices
//!   visited (§4.2 of the paper);
//! * explicit root pinning (`pin` / `unpin` / [`Rooted`]), the stand-in for MLton's
//!   precise stack maps (see DESIGN.md, substitutions); and
//! * `maybe_collect`, the safe point at which a runtime may run a garbage collection.
//!
//! The [`Runtime`] trait is the harness-facing factory: it runs a root task on the
//! runtime's scheduler and reports [`RunStats`] (GC time, promotions, bulk-operation
//! volume, peak memory) used to regenerate the paper's tables. Every runtime counts
//! into the per-worker shards of one [`Counters`] type, and every `RunStats` field is
//! declared once, with its merge rule, in [`stats`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abort;
pub mod bits;
pub mod counters;
pub mod ctx;
pub mod latency;
pub mod rng;
pub mod stats;

pub use abort::{silence_expected_aborts, AbortReason, InjectedFault, RunAbort, RunCtl, RunError};
pub use bits::{f64_from_bits, f64_to_bits};
pub use counters::Counters;
pub use ctx::{ParCtx, Rooted, Runtime};
pub use latency::{LatencyRecorder, LatencySummary};
pub use rng::{hash64, Rng};
pub use stats::{CounterShard, RunStats};

pub use hh_objmodel::{ObjKind, ObjPtr};

/// Worker count taken from the `HH_WORKERS` environment variable, falling back to
/// `default` when the variable is unset or unparsable (zero is treated as unset).
///
/// The CI test matrix runs the suite with `HH_WORKERS=1` (single-CPU schedules: no
/// steals, everything sequentialized) and `HH_WORKERS=8` (contended schedules:
/// steals, promotions, parallel collections), so concurrency-sensitive tests should
/// size their pools through this helper rather than hard-coding a count.
pub fn env_workers(default: usize) -> usize {
    std::env::var("HH_WORKERS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}
