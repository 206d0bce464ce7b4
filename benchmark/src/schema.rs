//! The benchmark's vocabulary: workloads, headline metrics, per-layer metrics.
//!
//! `BENCHMARK.json` (repository root) repeats the names, units and bounds for
//! the driver; `hhbench schema` prints it from these tables and a test fails
//! when the committed file differs, so this file is the single place a name is
//! defined. What the driver's schema
//! has no key for — which workloads a headline metric is reported on, which
//! end-to-end metric a layer metric is expected to move — lives only here and
//! in `README.md`.

use crate::programs::Program;
use hh_workloads::ServeWorkloadId;
use Better::{Higher as Hi, Lower as Lo};

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Programs run to completion, one at a time (the paper's evaluation).
    Batch,
    /// As `Batch`, under tiny GC thresholds, each program on the zone collector
    /// and on the incremental collector.
    Gc,
    /// Many short runs on one shared runtime, open loop then closed loop.
    Serve,
}

pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub why: &'static str,
    /// `(program, n)` at full size — pinned on the reference host so a kernel
    /// takes tens of milliseconds on `SeqRuntime`.
    pub programs: &'static [(Program, usize)],
    /// `n` divisor for `--smoke`.
    pub smoke_div: usize,
}

/// GC-workload heap geometry (the harness's `repro gc` shape): small enough
/// that every program collects hundreds of times.
pub const GC_CHUNK_WORDS: usize = 1024;
pub const GC_THRESHOLD_WORDS: usize = 16 * 1024;

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "pure",
        kind: Kind::Batch,
        why: "Fig. 10 class: only alloc, read_imm and join, so allocation, chunk acquire and the \
              scheduler do the work; bypasses promotion, findMaster, write barriers and GC",
        programs: &[
            (Program::Fib, 34),
            (Program::Tabulate, 1_500_000),
            (Program::Map, 1_500_000),
            (Program::Filter, 1_500_000),
            (Program::MsortPure, 80_000),
            (Program::Strassen, 256),
        ],
        smoke_div: 16,
    },
    Workload {
        name: "imperative",
        kind: Kind::Batch,
        why: "Fig. 11 rows of local/distant non-pointer writes, CAS and non-promoting pointer \
              writes: the write side of the op layer that pure only reads",
        programs: &[
            (Program::Msort, 200_000),
            (Program::Dedup, 150_000),
            (Program::Tourney, 600_000),
            (Program::Reachability, 100_000),
            (Program::Usp, 100_000),
        ],
        smoke_div: 16,
    },
    Workload {
        name: "promote",
        kind: Kind::Batch,
        why: "distant promoting pointer writes: promotion, heap rw-locks, forwarding chains; \
              at 1 worker lazy heaps elide them all, so t1_ms is the control for tp_ms",
        programs: &[
            (Program::UspTree, 60_000),
            (Program::MultiUspTree, 20_000),
            (Program::UnionFind, 80_000),
            (Program::FrontierBfs, 50_000),
            (Program::Wavefront, 320),
            (Program::Entangle, 8_000),
        ],
        smoke_div: 16,
    },
    Workload {
        name: "gc",
        kind: Kind::Gc,
        why: "tiny GC thresholds, zone and incremental collector: the only workload where \
              evacuation, pauses and the incremental barrier do most of the work",
        programs: &[
            (Program::FrontierBfs, 8_000),
            (Program::Wavefront, 192),
            (Program::UnionFind, 20_000),
        ],
        smoke_div: 8,
    },
    Workload {
        name: "serve",
        kind: Kind::Serve,
        why: "multi-tenant short runs on one shared runtime: run boundary, epoch reclamation \
              and chunk recycling dominate; open loop, latency from intended start",
        programs: &[
            (Program::Serve(ServeWorkloadId::UnionFind), SERVE_SCALE),
            (Program::Serve(ServeWorkloadId::FrontierBfs), SERVE_SCALE),
            (Program::Serve(ServeWorkloadId::LruChurn), SERVE_SCALE),
            (Program::Serve(ServeWorkloadId::Wavefront), SERVE_SCALE),
            (Program::Serve(ServeWorkloadId::Entangle), SERVE_SCALE),
        ],
        smoke_div: 1,
    },
];

/// Serve request size: makes the median request ≈ 0.5 ms on the reference host.
pub const SERVE_SCALE: usize = 24;
/// Open-loop arrival rates r1..r5 in requests/s, pinned as absolute numbers at
/// ≈ 35/50/70/85/120 % of the reference host's open-loop knee (≈ 1150 req/s;
/// README "Method"); r5 is a deliberate overload probe.
pub const SERVE_RATES_RPS: [f64; 5] = [400.0, 600.0, 800.0, 1000.0, 1400.0];
/// `max_rate_rps` is the highest rate whose p99 latency stays under this.
pub const SERVE_P99_LIMIT_US: f64 = 40_000.0;

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Where a headline metric is reported.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum On {
    All,
    Gc,
    Serve,
}

impl On {
    pub fn covers(self, kind: Kind) -> bool {
        match self {
            On::All => true,
            On::Gc => kind == Kind::Gc,
            On::Serve => kind == Kind::Serve,
        }
    }
}

pub struct Headline {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen.
    pub bound: f64,
    pub on: On,
}

/// The end-to-end metrics, with the share of the baseline median by which each
/// may worsen: three times the worst spread over workloads seen in ten-run sets
/// on the reference host (`baseline/stability.json`, README "bounds"), rounded
/// up, at most 0.25 — the absolute times sit at that cap because they swing
/// with the host, the tail latencies and saturated throughput with spreads
/// still wider than a third of it. Those reported on every workload (`On::All`, minus
/// `fail_share`, which the driver takes from `attempted`/`failed`) are the
/// `end_to_end` list of `BENCHMARK.json`; the workload-specific ones cannot be
/// there — the driver wants every end-to-end metric from every workload, never
/// zero — so they are listed under `per_layer` by the same names and gated by
/// `hhbench compare` with the bounds below.
pub const HEADLINE: [Headline; 15] = [
    h("setup_s", "s", Lo, 0.25, On::All),
    h("tp_ms", "ms", Lo, 0.25, On::All),
    h("t1_ms", "ms", Lo, 0.25, On::All),
    h("overhead", "ratio", Lo, 0.15, On::All),
    h("speedup", "ratio", Hi, 0.15, On::All),
    h("mem_inflation", "ratio", Lo, 0.08, On::All),
    h("gc_share", "ratio", Lo, 0.25, On::Gc),
    h("gc_pause_p50_us", "us", Lo, 0.10, On::Gc),
    h("gc_pause_p99_us", "us", Lo, 0.25, On::Gc),
    h("lat_mid_p50_us", "us", Lo, 0.25, On::Serve),
    h("lat_mid_p99_us", "us", Lo, 0.25, On::Serve),
    h("lat_hi_p99_us", "us", Lo, 0.25, On::Serve),
    h("max_rate_rps", "req/s", Hi, 0.25, On::Serve),
    h("closed_rps", "req/s", Hi, 0.25, On::Serve),
    h("fail_share", "ratio", Lo, 0.0, On::All),
];

const fn h(name: &'static str, unit: &'static str, better: Better, bound: f64, on: On) -> Headline {
    Headline {
        name,
        unit,
        better,
        bound,
        on,
    }
}

pub fn headline(name: &str) -> Option<&'static Headline> {
    HEADLINE.iter().find(|h| h.name == name)
}

/// The driver-facing `end_to_end` list.
pub fn driver_end_to_end() -> impl Iterator<Item = &'static Headline> {
    HEADLINE
        .iter()
        .filter(|h| h.on == On::All && h.name != "fail_share")
}

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric and workload this is expected to move (written
    /// down before measuring; see README "How the metrics interact").
    pub moves: (&'static str, &'static str),
}

const fn l(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: (&'static str, &'static str),
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
    }
}

/// Per-layer metrics: `<crate>.<metric>`; unit costs are tight loops over the
/// layer's public functions, counts are statistics deltas of the workload's
/// measured reps (P workers, kernel only).
// One metric per line: a table, not code.
#[rustfmt::skip]
pub const LAYERS: &[Layer] = &[
    // Workload-specific headline metrics (see `HEADLINE`).
    l("gc_share", "ratio", Lo, ("tp_ms", "gc")),
    l("gc_pause_p50_us", "us", Lo, ("gc_pause_p50_us", "gc")),
    l("gc_pause_p99_us", "us", Lo, ("gc_pause_p99_us", "gc")),
    l("lat_mid_p50_us", "us", Lo, ("lat_mid_p50_us", "serve")),
    l("lat_mid_p99_us", "us", Lo, ("lat_mid_p99_us", "serve")),
    l("lat_hi_p99_us", "us", Lo, ("lat_hi_p99_us", "serve")),
    l("max_rate_rps", "req/s", Hi, ("max_rate_rps", "serve")),
    l("closed_rps", "req/s", Hi, ("closed_rps", "serve")),
    l("fail_share", "ratio", Lo, ("fail_share", "all")),
    // The benchmark's own instrumentation.
    l("bench.trace_overhead", "ratio", Lo, ("tp_ms", "all")),
    l("est_share.alloc", "ratio", Lo, ("tp_ms", "pure")),
    l("est_share.run_boundary", "ratio", Lo, ("closed_rps", "serve")),
    // objmodel
    l("objmodel.chunk_acquire_ns", "ns", Lo, ("closed_rps", "serve")),
    l("objmodel.chunk_mint_ns", "ns", Lo, ("tp_ms", "pure")),
    l("objmodel.alloc_in_chunk_ns", "ns", Lo, ("tp_ms", "pure")),
    l("objmodel.epoch_begin_end_ns", "ns", Lo, ("closed_rps", "serve")),
    l("objmodel.chunks_created", "count", Lo, ("mem_inflation", "pure")),
    l("objmodel.chunks_recycled", "count", Hi, ("closed_rps", "serve")),
    l("objmodel.recycle_rate", "ratio", Hi, ("closed_rps", "serve")),
    l("objmodel.alloc_cache_hit_rate", "ratio", Hi, ("closed_rps", "serve")),
    l("objmodel.epoch_reclaims", "count", Hi, ("closed_rps", "serve")),
    l("objmodel.quarantine_lag_words", "words", Lo, ("mem_inflation", "serve")),
    // heaps
    l("heaps.alloc_obj_ns", "ns", Lo, ("tp_ms", "pure")),
    l("heaps.batch_alloc_ns", "ns", Lo, ("tp_ms", "promote")),
    l("heaps.child_join_ns", "ns", Lo, ("speedup", "pure")),
    l("heaps.heap_of_ns", "ns", Lo, ("t1_ms", "imperative")),
    l("heaps.is_ancestor_ns", "ns", Lo, ("t1_ms", "imperative")),
    l("heaps.rwlock_shared_ns", "ns", Lo, ("tp_ms", "promote")),
    l("heaps.rwlock_exclusive_ns", "ns", Lo, ("tp_ms", "promote")),
    l("heaps.created", "count", Lo, ("mem_inflation", "promote")),
    l("heaps.elided", "count", Hi, ("t1_ms", "pure")),
    l("heaps.elide_rate", "ratio", Hi, ("t1_ms", "pure")),
    // sched
    l("sched.join_unstolen_ns", "ns", Lo, ("t1_ms", "pure")),
    l("sched.join_stolen_ns", "ns", Lo, ("speedup", "pure")),
    l("sched.pool_run_ns", "ns", Lo, ("lat_mid_p50_us", "serve")),
    l("sched.steals", "count", Lo, ("speedup", "pure")),
    l("sched.parks", "count", Lo, ("speedup", "pure")),
    l("sched.wakes", "count", Lo, ("speedup", "pure")),
    // core: unit costs
    l("core.alloc_ns", "ns", Lo, ("tp_ms", "pure")),
    l("core.alloc_array_ns_per_word", "ns", Lo, ("tp_ms", "pure")),
    l("core.read_imm_ns", "ns", Lo, ("tp_ms", "pure")),
    l("core.read_mut_ns", "ns", Lo, ("t1_ms", "imperative")),
    l("core.write_nonptr_ns", "ns", Lo, ("t1_ms", "imperative")),
    l("core.cas_nonptr_ns", "ns", Lo, ("t1_ms", "imperative")),
    l("core.write_ptr_fast_ns", "ns", Lo, ("t1_ms", "imperative")),
    l("core.write_ptr_ancestor_ns", "ns", Lo, ("t1_ms", "imperative")),
    l("core.write_ptr_promoting_ns", "ns", Lo, ("tp_ms", "promote")),
    l("core.read_mut_promoted_ns", "ns", Lo, ("tp_ms", "promote")),
    l("core.write_nonptr_promoted_ns", "ns", Lo, ("tp_ms", "promote")),
    l("core.write_nonptr_inc_ns", "ns", Lo, ("tp_ms", "gc")),
    l("core.bulk_read_ns_per_word", "ns", Lo, ("t1_ms", "imperative")),
    l("core.bulk_write_ns_per_word", "ns", Lo, ("t1_ms", "imperative")),
    l("core.copy_ns_per_word", "ns", Lo, ("t1_ms", "imperative")),
    l("core.promote64_ns_per_obj", "ns", Lo, ("tp_ms", "promote")),
    l("core.promote1024_ns_per_obj", "ns", Lo, ("tp_ms", "promote")),
    l("core.join_unstolen_ns", "ns", Lo, ("t1_ms", "pure")),
    l("core.join_stolen_ns", "ns", Lo, ("speedup", "pure")),
    l("core.run_boundary_ns", "ns", Lo, ("closed_rps", "serve")),
    l("core.pin_unpin_ns", "ns", Lo, ("tp_ms", "promote")),
    l("core.maybe_collect_idle_ns", "ns", Lo, ("tp_ms", "pure")),
    l("core.gc_ns_per_word", "ns", Lo, ("gc_share", "gc")),
    l("core.gc_pause_p999_us", "us", Lo, ("gc_pause_p99_us", "gc")),
    l("core.gc_pause_max_us", "us", Lo, ("gc_pause_p99_us", "gc")),
    // core: counts
    l("core.allocated_words", "words", Lo, ("tp_ms", "pure")),
    l("core.promotions", "count", Lo, ("tp_ms", "promote")),
    l("core.promoted_objects", "count", Lo, ("tp_ms", "promote")),
    l("core.promoted_words", "words", Lo, ("tp_ms", "promote")),
    l("core.fwd_hops", "count", Lo, ("tp_ms", "promote")),
    l("core.fwd_compressions", "count", Hi, ("tp_ms", "promote")),
    l("core.bulk_ops", "count", Lo, ("t1_ms", "imperative")),
    l("core.bulk_words", "words", Lo, ("t1_ms", "imperative")),
    l("core.peak_live_words", "words", Lo, ("mem_inflation", "pure")),
    l("core.gc_count", "count", Lo, ("gc_share", "gc")),
    l("core.gc_copied_words", "words", Lo, ("gc_share", "gc")),
    l("core.gc_increments", "count", Lo, ("gc_pause_p99_us", "gc")),
    l("core.gc_pause_count", "count", Lo, ("gc_pause_p99_us", "gc")),
    // baselines
    l("baselines.ts_ms", "ms", Lo, ("overhead", "all")),
    l("baselines.seq_alloc_ns", "ns", Lo, ("overhead", "pure")),
    l("baselines.seq_read_mut_ns", "ns", Lo, ("overhead", "imperative")),
    l("baselines.seq_write_ptr_ns", "ns", Lo, ("overhead", "imperative")),
    l("baselines.seq_join_ns", "ns", Lo, ("overhead", "pure")),
    l("baselines.stw_tp_ms", "ms", Lo, ("tp_ms", "all")),
    l("baselines.dlg_tp_ms", "ms", Lo, ("tp_ms", "all")),
    // workloads (continuity with the BENCH_pr8.json gated rows)
    l("workloads.wavefront_ns_per_cell", "ns", Lo, ("tp_ms", "promote")),
    l("workloads.entangle_promote_ns_per_obj", "ns", Lo, ("tp_ms", "promote")),
    // server
    l("server.queue_push_pop_ns", "ns", Lo, ("lat_mid_p50_us", "serve")),
    l("server.lat_r1_p50_us", "us", Lo, ("lat_mid_p50_us", "serve")),
    l("server.lat_r2_p50_us", "us", Lo, ("lat_mid_p50_us", "serve")),
    l("server.lat_r3_p50_us", "us", Lo, ("lat_mid_p50_us", "serve")),
    l("server.lat_r4_p50_us", "us", Lo, ("lat_hi_p99_us", "serve")),
    l("server.lat_r5_p50_us", "us", Lo, ("max_rate_rps", "serve")),
    l("server.lat_r1_p99_us", "us", Lo, ("lat_mid_p99_us", "serve")),
    l("server.lat_r2_p99_us", "us", Lo, ("lat_mid_p99_us", "serve")),
    l("server.lat_r3_p99_us", "us", Lo, ("lat_hi_p99_us", "serve")),
    l("server.lat_r4_p99_us", "us", Lo, ("lat_hi_p99_us", "serve")),
    l("server.lat_r5_p99_us", "us", Lo, ("max_rate_rps", "serve")),
    l("server.queue_wait_p50_us", "us", Lo, ("lat_mid_p50_us", "serve")),
    l("server.queue_wait_p99_us", "us", Lo, ("lat_hi_p99_us", "serve")),
    l("server.run_self_p50_us", "us", Lo, ("lat_mid_p50_us", "serve")),
    l("server.gen_late_p99_us", "us", Lo, ("lat_mid_p99_us", "serve")),
    l("server.backlog_end_r1", "count", Lo, ("max_rate_rps", "serve")),
    l("server.backlog_end_r2", "count", Lo, ("max_rate_rps", "serve")),
    l("server.backlog_end_r3", "count", Lo, ("max_rate_rps", "serve")),
    l("server.backlog_end_r4", "count", Lo, ("max_rate_rps", "serve")),
    l("server.backlog_end_r5", "count", Lo, ("max_rate_rps", "serve")),
    l("server.closed_rps_inc", "req/s", Hi, ("closed_rps", "serve")),
    l("server.footprint_peak_words", "words", Lo, ("mem_inflation", "serve")),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        for name in driver_end_to_end()
            .map(|h| h.name)
            .chain(LAYERS.iter().map(|l| l.name))
            .chain(WORKLOADS.iter().map(|w| w.name))
        {
            assert!(seen.insert(name), "{name} is used twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(LAYERS.len() <= 128);
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn workload_specific_headlines_are_listed_as_layers() {
        for h in HEADLINE
            .iter()
            .filter(|h| h.on != On::All || h.name == "fail_share")
        {
            assert!(LAYERS.iter().any(|l| l.name == h.name), "{}", h.name);
        }
        assert_eq!(headline("tp_ms").map(|h| h.bound), Some(0.25));
        assert!(
            On::Gc.covers(Kind::Gc) && !On::Gc.covers(Kind::Serve) && On::All.covers(Kind::Batch)
        );
    }

    #[test]
    fn moves_name_known_metrics_and_workloads() {
        for l in LAYERS {
            let (metric, wl) = l.moves;
            assert!(
                headline(metric).is_some(),
                "{}: unknown metric {metric}",
                l.name
            );
            assert!(
                wl == "all" || workload(wl).is_some(),
                "{}: unknown workload {wl}",
                l.name
            );
        }
    }
}
