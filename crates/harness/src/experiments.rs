//! The experiments: one function per table / figure of the paper's evaluation.

use crate::measure::{measure, measure_on, measure_parmem_with_config, Measurement, RuntimeKind};
use crate::table::{megabytes, percent, ratio, secs, Table};
use hh_api::{ObjKind, ParCtx, Runtime};
use hh_baselines::{DlgRuntime, SeqRuntime, StwRuntime};
use hh_objmodel::ObjPtr;
use hh_runtime::{HhConfig, HhRuntime};
use hh_workloads::suite::{BenchId, Params};
use std::time::Instant;

/// Configuration of an experiment run.
#[derive(Copy, Clone, Debug)]
pub struct ExpConfig {
    /// Problem-size scale relative to the paper (1.0 = paper sizes).
    pub scale: f64,
    /// Maximum number of workers (the paper's 72-core column becomes this).
    pub procs: usize,
    /// Sequential grain.
    pub grain: usize,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            scale: 0.005,
            procs: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .min(16),
            grain: 2048,
        }
    }
}

impl ExpConfig {
    fn params(&self) -> Params {
        Params {
            scale: self.scale,
            grain: self.grain,
        }
    }
}

// ---------------------------------------------------------------------------
// Figure 8: cost of memory operations.
// ---------------------------------------------------------------------------

/// Figure 8: per-operation cost (nanoseconds) of each memory operation on local,
/// distant, and promoted objects, measured on the hierarchical runtime.
pub fn fig8(iterations: u64) -> Table {
    let mut table = Table::new(
        "Figure 8 — cost of memory operations (ns/op, hierarchical runtime)",
        &[
            "object",
            "read-imm",
            "read-mut",
            "write-nonptr",
            "write-ptr",
        ],
    );
    let rt = HhRuntime::new(HhConfig::with_workers(2));
    let rows = rt.run(|ctx| {
        let iters = iterations.max(1000);

        // Helper: measure ns/op of `op` run `iters` times.
        let time_op = |op: &mut dyn FnMut()| -> f64 {
            let start = Instant::now();
            for _ in 0..iters {
                op();
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        };

        let mut rows: Vec<Vec<String>> = Vec::new();

        // -- Local objects: allocated by this task, no copies. --------------------
        {
            let obj = ctx.alloc(1, 3, ObjKind::Ref);
            let target = ctx.alloc_ref_data(1);
            let mut acc = 0u64;
            let r_imm = time_op(&mut || acc = acc.wrapping_add(ctx.read_imm(obj, 2)));
            let r_mut = time_op(&mut || acc = acc.wrapping_add(ctx.read_mut(obj, 2)));
            let w_np = time_op(&mut || ctx.write_nonptr(obj, 2, acc));
            let w_p = time_op(&mut || ctx.write_ptr(obj, 0, target));
            rows.push(vec![
                "local".into(),
                format!("{r_imm:.1}"),
                format!("{r_mut:.1}"),
                format!("{w_np:.1}"),
                format!("{w_p:.1}"),
            ]);
            std::hint::black_box(acc);
        }

        // -- Distant objects: allocated by an ancestor, still no copies. ----------
        {
            let obj = ctx.alloc(1, 3, ObjKind::Ref);
            let ancestor_target = ctx.alloc_ref_data(1);
            let row = ctx
                .join(
                    |c| {
                        let mut acc = 0u64;
                        let r_imm = time_op_in(c, iters, &mut |cc| {
                            acc = acc.wrapping_add(cc.read_imm(obj, 2))
                        });
                        let r_mut = time_op_in(c, iters, &mut |cc| {
                            acc = acc.wrapping_add(cc.read_mut(obj, 2))
                        });
                        let w_np = time_op_in(c, iters, &mut |cc| cc.write_nonptr(obj, 2, acc));
                        // Non-promoting pointer write: the pointee is at the same depth
                        // (the root) as the object.
                        let w_p =
                            time_op_in(c, iters, &mut |cc| cc.write_ptr(obj, 0, ancestor_target));
                        std::hint::black_box(acc);
                        vec![
                            "distant".to_string(),
                            format!("{r_imm:.1}"),
                            format!("{r_mut:.1}"),
                            format!("{w_np:.1}"),
                            format!("{w_p:.1}"),
                        ]
                    },
                    |_| (),
                )
                .0;
            rows.push(row);
        }

        // -- Promoted objects: objects that have acquired forwarding pointers. ----
        {
            let holder = ctx.alloc_ref_ptr(ObjPtr::NULL);
            // A child task creates an object and writes it into the parent's ref,
            // forcing a promotion; the original (deep) copy is then a "promoted object".
            let stale = ctx
                .join(
                    |c| {
                        let obj = c.alloc(1, 3, ObjKind::Ref);
                        c.write_nonptr(obj, 2, 7);
                        c.write_ptr(holder, 0, obj);
                        obj
                    },
                    |_| ObjPtr::NULL,
                )
                .0;
            let target = ctx.alloc_ref_data(1);
            let mut acc = 0u64;
            let r_imm = time_op(&mut || acc = acc.wrapping_add(ctx.read_imm(stale, 2)));
            let r_mut = time_op(&mut || acc = acc.wrapping_add(ctx.read_mut(stale, 2)));
            let w_np = time_op(&mut || ctx.write_nonptr(stale, 2, acc));
            let w_p = time_op(&mut || ctx.write_ptr(stale, 0, target));
            rows.push(vec![
                "promoted".into(),
                format!("{r_imm:.1}"),
                format!("{r_mut:.1}"),
                format!("{w_np:.1}"),
                format!("{w_p:.1}"),
            ]);
            std::hint::black_box(acc);
        }
        rows
    });
    for row in rows {
        table.row(row);
    }
    table
}

fn time_op_in<C: ParCtx>(_ctx: &C, iters: u64, op: &mut dyn FnMut(&C)) -> f64 {
    // The context is threaded explicitly so the closure can use the child context.
    let start = Instant::now();
    for _ in 0..iters {
        // Safety valve against the optimizer removing the loop entirely.
        std::hint::black_box(());
    }
    let overhead = start.elapsed();
    let start = Instant::now();
    for _ in 0..iters {
        op(_ctx);
    }
    (start.elapsed().saturating_sub(overhead)).as_nanos() as f64 / iters as f64
}

// ---------------------------------------------------------------------------
// Figure 9: representative operations.
// ---------------------------------------------------------------------------

/// Figure 9: each benchmark's representative memory operation, plus the measured
/// promotion counts on the hierarchical runtime as corroboration.
///
/// The measurement pins the eager per-fork heap shape (ablation A2): Figure 9
/// classifies each benchmark's representative *operation*, so the corroborating
/// counts must not depend on how many forks the scheduler happened to steal (under
/// the default lazy steal-time policy, an unstolen task's publishing writes are
/// same-heap and promote nothing — on a single-core machine the whole column would
/// read 0).
pub fn fig9(cfg: ExpConfig) -> Table {
    let mut table = Table::new(
        "Figure 9 — representative operations per benchmark",
        &[
            "benchmark",
            "representative operation",
            "promoted objects (measured, parmem, eager heaps)",
        ],
    );
    let params = Params {
        scale: cfg.scale.min(0.001),
        grain: cfg.grain,
    };
    for id in BenchId::ALL {
        let m = measure_parmem_with_config(HhConfig::eager_heaps(cfg.procs.min(4)), id, params);
        table.row(vec![
            id.name().to_string(),
            id.representative_operation().to_string(),
            m.stats.promoted_objects.to_string(),
        ]);
    }
    table
}

// ---------------------------------------------------------------------------
// Figures 10 and 11: the main benchmark tables.
// ---------------------------------------------------------------------------

fn bench_table(title: &str, benches: &[BenchId], kinds: &[RuntimeKind], cfg: ExpConfig) -> Table {
    let mut header: Vec<String> = vec!["benchmark".into(), "Ts(seq)".into(), "GCs".into()];
    for kind in kinds {
        header.push(format!("{}: T1", kind.short()));
        header.push(format!("{}: ovh", kind.short()));
        header.push(format!("{}: T{}", kind.short(), cfg.procs));
        header.push(format!("{}: spd", kind.short()));
        header.push(format!("{}: GC{}", kind.short(), cfg.procs));
    }
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(title, &header_refs);
    let params = cfg.params();

    for &bench in benches {
        let seq = measure(RuntimeKind::Seq, 1, bench, params);
        let ts = seq.elapsed.as_secs_f64();
        let mut cells = vec![
            bench.name().to_string(),
            secs(seq.elapsed),
            percent(seq.gc_fraction()),
        ];
        for &kind in kinds {
            let one = measure(kind, 1, bench, params);
            let many = measure(kind, cfg.procs, bench, params);
            cells.push(secs(one.elapsed));
            cells.push(ratio(one.elapsed.as_secs_f64(), ts));
            cells.push(secs(many.elapsed));
            cells.push(ratio(ts, many.elapsed.as_secs_f64()));
            cells.push(percent(many.gc_fraction()));
        }
        table.row(cells);
    }
    table
}

/// Figure 10: execution times, overheads, speedups and GC fractions of the pure
/// benchmarks on the stop-the-world baseline, the DLG baseline, and the hierarchical
/// runtime, against the sequential baseline.
pub fn fig10(cfg: ExpConfig) -> Table {
    bench_table(
        "Figure 10 — pure benchmarks",
        &BenchId::PURE,
        &[RuntimeKind::Stw, RuntimeKind::Dlg, RuntimeKind::Parmem],
        cfg,
    )
}

/// Figure 11: the imperative benchmarks, extended with the adversarial pair
/// (`wavefront`, `entangle`) so the promotion-saturated end of the spectrum
/// shows up next to the paper's imperative programs. As in the paper, the
/// Manticore-style baseline is omitted (its source model cannot express these
/// programs).
pub fn fig11(cfg: ExpConfig) -> Table {
    let benches: Vec<BenchId> = BenchId::IMPERATIVE
        .iter()
        .chain(BenchId::ADVERSARIAL.iter())
        .copied()
        .collect();
    bench_table(
        "Figure 11 — imperative and adversarial benchmarks",
        &benches,
        &[RuntimeKind::Stw, RuntimeKind::Parmem],
        cfg,
    )
}

// ---------------------------------------------------------------------------
// Figure 12: speedup curves.
// ---------------------------------------------------------------------------

/// Figure 12: speedup of the hierarchical runtime as the worker count grows, for a
/// representative subset of benchmarks.
pub fn fig12(cfg: ExpConfig) -> Table {
    let benches = [
        BenchId::Fib,
        BenchId::Filter,
        BenchId::MsortPure,
        BenchId::Msort,
        BenchId::Dedup,
        BenchId::Raytracer,
        BenchId::Reachability,
    ];
    let mut procs = vec![1usize];
    let mut p = 2;
    while p < cfg.procs {
        procs.push(p);
        p *= 2;
    }
    if *procs.last().unwrap() != cfg.procs {
        procs.push(cfg.procs);
    }

    let mut header: Vec<String> = vec!["benchmark".into()];
    for p in &procs {
        header.push(format!("P={p}"));
    }
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(
        "Figure 12 — speedups of the hierarchical runtime",
        &header_refs,
    );
    let params = cfg.params();

    for bench in benches {
        let seq = measure(RuntimeKind::Seq, 1, bench, params);
        let ts = seq.elapsed.as_secs_f64();
        let mut cells = vec![bench.name().to_string()];
        for &p in &procs {
            let m = measure(RuntimeKind::Parmem, p, bench, params);
            cells.push(ratio(ts, m.elapsed.as_secs_f64()));
        }
        table.row(cells);
    }
    table
}

// ---------------------------------------------------------------------------
// Figure 13: memory consumption and inflation.
// ---------------------------------------------------------------------------

/// Figure 13: peak memory consumption of the sequential baseline (Ms, in MB) and the
/// inflation factors of the stop-the-world baseline and the hierarchical runtime on 1
/// and `procs` workers.
pub fn fig13(cfg: ExpConfig) -> Table {
    let mut table = Table::new(
        "Figure 13 — memory consumption (MB) and inflation",
        &[
            "benchmark",
            "Ms(seq)",
            "stw: I1",
            "stw: IP",
            "parmem: I1",
            "parmem: IP",
        ],
    );
    let params = cfg.params();
    for bench in BenchId::ALL {
        let seq = measure(RuntimeKind::Seq, 1, bench, params);
        let ms = seq.stats.peak_live_bytes();
        let infl = |m: &Measurement| ratio(m.stats.peak_live_bytes() as f64, ms as f64);
        let stw1 = measure(RuntimeKind::Stw, 1, bench, params);
        let stwp = measure(RuntimeKind::Stw, cfg.procs, bench, params);
        let hh1 = measure(RuntimeKind::Parmem, 1, bench, params);
        let hhp = measure(RuntimeKind::Parmem, cfg.procs, bench, params);
        table.row(vec![
            bench.name().to_string(),
            megabytes(ms),
            infl(&stw1),
            infl(&stwp),
            infl(&hh1),
            infl(&hhp),
        ]);
    }
    table
}

// ---------------------------------------------------------------------------
// §4.4: promotion volume (the Manticore 340 MB observation).
// ---------------------------------------------------------------------------

/// §4.4 promotion-volume comparison: bytes promoted by the DLG/Manticore-style baseline
/// versus the hierarchical runtime (the paper reports ~340 MB vs 0 on `map` at full
/// scale). `map` and `msort-pure` are both shown: with a flat-array sequence
/// representation `map`'s leaves build nothing, so the communication-promotion effect
/// is most visible on `msort-pure`, whose leaves allocate their partitions locally (see
/// EXPERIMENTS.md, E6).
pub fn promotion_volume(cfg: ExpConfig) -> Table {
    let mut table = Table::new(
        "Promotion volume (§4.4)",
        &[
            "benchmark",
            "runtime",
            "workers",
            "promoted objects",
            "promoted MB",
        ],
    );
    let params = cfg.params();
    for bench in [BenchId::Map, BenchId::MsortPure] {
        for (kind, workers) in [
            (RuntimeKind::Dlg, cfg.procs),
            (RuntimeKind::Parmem, cfg.procs),
        ] {
            let m = measure(kind, workers, bench, params);
            table.row(vec![
                bench.name().to_string(),
                kind.short().to_string(),
                workers.to_string(),
                m.stats.promoted_objects.to_string(),
                megabytes(m.stats.promoted_bytes()),
            ]);
        }
    }
    table
}

// ---------------------------------------------------------------------------
// Scheduler counters (not in the paper; scheduler v2 observability).
// ---------------------------------------------------------------------------

/// Scheduler summary: per benchmark, the hierarchical runtime's steal / park / wake
/// counters and the heap accounting of the lazy steal-time heap policy. `heaps_elided`
/// is the direct measure of how often the common (unstolen) fork path ran heap-free;
/// `parks`/`wakes` show the idle protocol actually sleeping instead of spinning.
pub fn sched_counters(cfg: ExpConfig) -> Table {
    let mut table = Table::new(
        "Scheduler counters (parmem, lazy steal-time heaps)",
        &[
            "benchmark",
            "steals",
            "parks",
            "wakes",
            "heaps created",
            "heaps elided",
        ],
    );
    let params = cfg.params();
    for id in BenchId::ALL {
        let m = measure(RuntimeKind::Parmem, cfg.procs, id, params);
        table.row(vec![
            id.name().to_string(),
            m.stats.sched_steals.to_string(),
            m.stats.sched_parks.to_string(),
            m.stats.sched_wakes.to_string(),
            m.stats.heaps_created.to_string(),
            m.stats.heaps_elided.to_string(),
        ]);
    }
    table
}

// ---------------------------------------------------------------------------
// Memory lifecycle (not in the paper; memory v2 observability).
// ---------------------------------------------------------------------------

/// Memory-lifecycle summary (`repro mem`): per benchmark and runtime, the steady-state
/// footprint — peak/live/free words — plus how much of the chunk traffic was served by
/// recycling rather than fresh allocation.
///
/// Each benchmark runs **twice on one runtime**: the reuse horizon passes between
/// runs (a completed run's heap tree is disposed of and its chunks reclaimed when the
/// next run begins, DESIGN.md §5), so the second run's chunk demand is served from
/// the free lists. The table reports the state after the second run; `recycle%` is
/// the fraction of all chunks ever handed out that were reused buffers.
pub fn mem_lifecycle(cfg: ExpConfig) -> Table {
    mem_lifecycle_for(cfg, &BenchId::ALL)
}

fn mem_lifecycle_for(cfg: ExpConfig, benches: &[BenchId]) -> Table {
    let mut table = Table::new(
        "Memory lifecycle — steady state after two runs (peak/live/free in Kwords)",
        &[
            "benchmark",
            "runtime",
            "peak",
            "live",
            "free",
            "recycled",
            "recycle%",
            "cache hits",
            "subtree GCs",
        ],
    );
    let params = cfg.params();
    let kwords = |w: u64| format!("{:.1}", w as f64 / 1024.0);
    for &bench in benches {
        for kind in [
            RuntimeKind::Seq,
            RuntimeKind::Stw,
            RuntimeKind::Dlg,
            RuntimeKind::Parmem,
        ] {
            let m = match kind {
                RuntimeKind::Seq => {
                    let rt = SeqRuntime::new();
                    measure_on(&rt, bench, params, 1);
                    measure_on(&rt, bench, params, 1)
                }
                RuntimeKind::Stw => {
                    let rt = StwRuntime::with_workers(cfg.procs);
                    measure_on(&rt, bench, params, cfg.procs);
                    measure_on(&rt, bench, params, cfg.procs)
                }
                RuntimeKind::Dlg => {
                    let rt = DlgRuntime::with_workers(cfg.procs);
                    measure_on(&rt, bench, params, cfg.procs);
                    measure_on(&rt, bench, params, cfg.procs)
                }
                RuntimeKind::Parmem => {
                    let rt = HhRuntime::new(HhConfig::with_workers(cfg.procs));
                    measure_on(&rt, bench, params, cfg.procs);
                    measure_on(&rt, bench, params, cfg.procs)
                }
            };
            let s = &m.stats;
            table.row(vec![
                bench.name().to_string(),
                kind.short().to_string(),
                kwords(s.peak_live_words),
                kwords(s.live_words),
                kwords(s.free_words),
                s.chunks_recycled.to_string(),
                percent(s.recycle_rate()),
                s.alloc_cache_hits.to_string(),
                s.subtree_collections.to_string(),
            ]);
        }
    }
    table
}

// ---------------------------------------------------------------------------
// Promotion v2 (not in the paper; DESIGN.md §6).
// ---------------------------------------------------------------------------

/// `repro promote`, part 1 — microbenchmark: cost per promoted object on
/// closures of increasing size. Each repetition publishes a freshly built cons
/// closure from a child heap into a parent-heap ref under the eager per-fork
/// configuration, and only the promoting `write_ptr` is timed (shared helpers
/// in [`mod@crate::measure`], so this table and the `promote_overhead` bench
/// always measure the same thing). The configuration is fixed (1 worker, fixed
/// closure sizes); the CLI flags apply to part 2 only. (The retired v1
/// per-object path's last measurement is pinned in DESIGN.md §7, A3.)
pub fn promote_micro(_cfg: ExpConfig) -> Table {
    use crate::measure::{promotion_runtime, time_promotions};

    let mut table = Table::new(
        "Promotion v2 — batched promotion (ns per promoted object; \
         fixed 1-worker eager config, --scale/--procs/--grain not applicable)",
        &["closure objects", "ns/obj"],
    );
    for &len in &[16usize, 256, 1024, 4096] {
        let reps = (200_000 / len).clamp(20, 2_000) as u64;
        let rt = promotion_runtime();
        // Warm the runtime once so chunk minting is off the measured path.
        time_promotions(&rt, len, 2);
        let total = time_promotions(&rt, len, reps);
        let per_obj = total.as_nanos() as f64 / (reps as usize * len) as f64;
        table.row(vec![len.to_string(), format!("{per_obj:.1}")]);
    }
    table
}

/// `repro promote`, part 2 — the mutator-heavy and adversarial workloads:
/// promotion and forwarding-chain counters on the runtimes that promote
/// (`parmem` lazy and eager, `dlg`). `fwd hops` vs `compressions` shows path
/// compression keeping the amortized `findMaster` flat; `promotions` vs
/// `promoted objects` shows the batching factor (objects evacuated per pass).
pub fn promote_workloads(cfg: ExpConfig) -> Table {
    let mut table = Table::new(
        "Promotion v2 — mutator-heavy workloads (counters)",
        &[
            "benchmark",
            "runtime",
            "promotions",
            "promoted objs",
            "promoted KW",
            "fwd hops",
            "compressions",
        ],
    );
    let params = cfg.params();
    for &bench in BenchId::MUTATOR.iter().chain(BenchId::ADVERSARIAL.iter()) {
        for mode in ["parmem", "parmem-eager", "dlg"] {
            let m = match mode {
                "parmem" => measure(RuntimeKind::Parmem, cfg.procs, bench, params),
                "parmem-eager" => {
                    measure_parmem_with_config(HhConfig::eager_heaps(cfg.procs), bench, params)
                }
                _ => measure(RuntimeKind::Dlg, cfg.procs, bench, params),
            };
            let s = &m.stats;
            table.row(vec![
                bench.name().to_string(),
                mode.to_string(),
                s.promotions.to_string(),
                s.promoted_objects.to_string(),
                format!("{:.1}", s.promoted_words as f64 / 1024.0),
                s.fwd_hops.to_string(),
                s.fwd_compressions.to_string(),
            ]);
        }
    }
    table
}

/// `repro promote`, part 3 — the promote-rate sweep: the `entangle` adversary
/// run on the eager hierarchical runtime at cross-subtree write fractions
/// {0, 0.1, 0.5, 1.0}, printing the promotion and forwarding counters at each
/// point. This is the "where does promotion cost overtake hierarchy benefit"
/// crossover as a table: at rate 0 nothing promotes (every write stays inside
/// the sending actor's subtree), and each step up multiplies promoted volume
/// and the forwarding traffic the mutators absorb.
pub fn promote_rate_sweep(cfg: ExpConfig) -> Table {
    use hh_workloads::adversary::entangle;

    let mut table = Table::new(
        "Promotion v2 — entangle promote-rate sweep (parmem, eager heaps)",
        &[
            "promote rate",
            "elapsed",
            "promotions",
            "promoted objs",
            "promoted KW",
            "fwd hops",
            "compressions",
        ],
    );
    // Same shape as the suite's `entangle` entry, with the rate swept instead
    // of pinned at the midpoint.
    let actors = 16;
    let ops = ((2_000_000.0 * cfg.scale) as usize).max(8_000) / actors;
    for &permille in &[0u64, 100, 500, 1000] {
        let rt = HhRuntime::new(HhConfig::eager_heaps(cfg.procs));
        let start = Instant::now();
        rt.run(move |ctx| entangle(ctx, actors, ops, permille, 0xC0DE_0005));
        let elapsed = start.elapsed();
        let s = rt.stats();
        table.row(vec![
            format!("{:.1}", permille as f64 / 1000.0),
            secs(elapsed),
            s.promotions.to_string(),
            s.promoted_objects.to_string(),
            format!("{:.1}", s.promoted_words as f64 / 1024.0),
            s.fwd_hops.to_string(),
            s.fwd_compressions.to_string(),
        ]);
    }
    table
}

// ---------------------------------------------------------------------------
// GC v2 (not in the paper; DESIGN.md §9).
// ---------------------------------------------------------------------------

/// `repro gc` — collection behaviour of all four runtimes on the mutator-heavy
/// and adversarial workloads under a GC threshold small enough that collections
/// actually fire:
/// the pause CDF (count, p50/p99/p999/max), copied volume, and the team steal
/// counter. The hierarchical runtime is reported three times: the default GC
/// team, the serial `gc_workers = 1` ablation (A4), and the GC v3
/// mutator-concurrent incremental collector (`incremental_gc`; switching it off
/// is ablation A6 — the plain `parmem` row). The incremental row's pauses are
/// individual safepoint increments, so its tail should stay bounded by the
/// increment budget while the stop-the-world rows' tails grow with the live set.
pub fn gc_pause_table(cfg: ExpConfig) -> Table {
    gc_pause_report(cfg).0
}

/// As [`gc_pause_table`], additionally returning one JSON line per
/// benchmark × runtime with the headline GC metrics (hand-rolled — no serde in
/// this environment): `gc_max_pause_ns`, the pause tail, copied volume, and
/// the evacuation cost in ns per copied word. `repro gc --json PATH` appends
/// these to the benchmark artifact (`BENCH_pr7.json`) that the CI bench gate
/// diffs across PRs.
pub fn gc_pause_report(cfg: ExpConfig) -> (Table, Vec<String>) {
    let mut json: Vec<String> = Vec::new();
    let mut table = Table::new(
        "GC v3 — pause CDF and team counters (tiny thresholds)",
        &[
            "benchmark",
            "runtime",
            "GCs",
            "incr GCs",
            "stolen blocks",
            "copied Kw",
            "gc time",
            "pauses",
            "p50",
            "p99",
            "p999",
            "max pause",
        ],
    );
    let params = cfg.params();
    let chunk = 1024;
    let threshold = 16 * 1024;
    let pause_us = |ns: u64| format!("{:.1} µs", ns as f64 / 1e3);
    let kwords = |w: u64| format!("{:.1}", w as f64 / 1024.0);
    for &bench in BenchId::MUTATOR.iter().chain(BenchId::ADVERSARIAL.iter()) {
        let mut measurements: Vec<(String, &'static str, Measurement)> = Vec::new();
        let seq = SeqRuntime::with_params(chunk, threshold, true);
        measurements.push(("seq".into(), "seq", measure_on(&seq, bench, params, 1)));
        let stw = StwRuntime::with_params(cfg.procs, chunk, threshold, true);
        measurements.push((
            "stw".into(),
            "stw",
            measure_on(&stw, bench, params, cfg.procs),
        ));
        let dlg = DlgRuntime::with_params(cfg.procs, chunk, threshold, true);
        measurements.push((
            "dlg".into(),
            "dlg",
            measure_on(&dlg, bench, params, cfg.procs),
        ));
        for (label, key, gc_workers, incremental) in [
            ("parmem (A6)", "parmem_a6", 0usize, false),
            ("parmem gc=1 (A4)", "parmem_a4", 1, false),
            ("parmem inc (v3)", "parmem_inc", 0, true),
        ] {
            let m = measure_parmem_with_config(
                HhConfig {
                    n_workers: cfg.procs,
                    chunk_words: chunk,
                    gc_threshold_words: threshold,
                    gc_workers,
                    incremental_gc: incremental,
                    ..Default::default()
                },
                bench,
                params,
            );
            measurements.push((label.into(), key, m));
        }
        for (label, key, m) in measurements {
            let s = &m.stats;
            table.row(vec![
                bench.name().to_string(),
                label,
                s.gc_count.to_string(),
                s.gc_incremental_collections.to_string(),
                s.gc_steal_blocks.to_string(),
                kwords(s.gc_copied_words),
                secs(s.gc_time),
                s.gc_pause_count.to_string(),
                pause_us(s.gc_pause_p50_ns),
                pause_us(s.gc_pause_p99_ns),
                pause_us(s.gc_pause_p999_ns),
                pause_us(s.gc_max_pause_ns),
            ]);
            let gc_ns = s.gc_time.as_nanos() as f64;
            json.push(format!(
                concat!(
                    "{{\"experiment\":\"gc\",\"benchmark\":\"{}\",\"runtime\":\"{}\",",
                    "\"elapsed_s\":{:.6},\"gc_count\":{},\"gc_incremental_collections\":{},",
                    "\"gc_pause_count\":{},\"gc_pause_p50_ns\":{},\"gc_pause_p99_ns\":{},",
                    "\"gc_pause_p999_ns\":{},\"gc_max_pause_ns\":{},\"gc_copied_words\":{},",
                    "\"gc_time_s\":{:.6},\"ns_per_copied_word\":{:.2},\"checksum\":{}}}"
                ),
                bench.name(),
                key,
                m.elapsed.as_secs_f64(),
                s.gc_count,
                s.gc_incremental_collections,
                s.gc_pause_count,
                s.gc_pause_p50_ns,
                s.gc_pause_p99_ns,
                s.gc_pause_p999_ns,
                s.gc_max_pause_ns,
                s.gc_copied_words,
                s.gc_time.as_secs_f64(),
                gc_ns / (s.gc_copied_words.max(1)) as f64,
                m.checksum,
            ));
        }
    }
    (table, json)
}

// ---------------------------------------------------------------------------
// Adversarial workloads (DESIGN.md §12).
// ---------------------------------------------------------------------------

/// `repro adversarial` — headline costs of the adversarial workloads, plus one
/// JSON line per row for the CI bench gate. `wavefront` reports nanoseconds per
/// grid cell to reach the reconstruction fixpoint (metric `ns_per_cell`) on all
/// four runtimes and the incremental hierarchical shape; `entangle` reports the
/// per-promoted-object cost of the run (`promote_ns_per_obj`) on the eager
/// hierarchical runtime at promote rates 0.1/0.5/1.0 — eager heaps make the
/// promotion volume deterministic, so the metric is stable across schedules.
pub fn adversarial_report(cfg: ExpConfig) -> (Table, Vec<String>) {
    use hh_workloads::adversary::entangle;

    let mut json: Vec<String> = Vec::new();
    let mut table = Table::new(
        "Adversarial workloads — wavefront ns/cell, entangle promotion cost",
        &[
            "benchmark",
            "runtime",
            "elapsed",
            "ns/cell",
            "promotions",
            "promoted objs",
            "promote ns/obj",
        ],
    );
    let params = cfg.params();

    // Wavefront: ns per grid cell, same side formula as the suite entry.
    let side = ((2048.0 * cfg.scale.sqrt()) as usize).clamp(64, 2048);
    let cells = (side * side) as f64;
    let mut wavefront_rows: Vec<(&'static str, Measurement)> = vec![
        (
            "seq",
            measure(RuntimeKind::Seq, 1, BenchId::Wavefront, params),
        ),
        (
            "stw",
            measure(RuntimeKind::Stw, cfg.procs, BenchId::Wavefront, params),
        ),
        (
            "dlg",
            measure(RuntimeKind::Dlg, cfg.procs, BenchId::Wavefront, params),
        ),
        (
            "parmem",
            measure(RuntimeKind::Parmem, cfg.procs, BenchId::Wavefront, params),
        ),
        (
            "parmem_inc",
            measure_parmem_with_config(
                HhConfig::incremental(cfg.procs),
                BenchId::Wavefront,
                params,
            ),
        ),
    ];
    for (key, m) in wavefront_rows.drain(..) {
        let ns_per_cell = m.elapsed.as_nanos() as f64 / cells;
        table.row(vec![
            "wavefront".into(),
            key.into(),
            secs(m.elapsed),
            format!("{ns_per_cell:.1}"),
            "-".into(),
            "-".into(),
            "-".into(),
        ]);
        json.push(format!(
            concat!(
                "{{\"experiment\":\"adversarial\",\"benchmark\":\"wavefront\",",
                "\"runtime\":\"{}\",\"elapsed_s\":{:.6},\"cells\":{},",
                "\"ns_per_cell\":{:.2},\"checksum\":{}}}"
            ),
            key,
            m.elapsed.as_secs_f64(),
            cells as u64,
            ns_per_cell,
            m.checksum,
        ));
    }

    // Entangle: per-promoted-object cost at each non-zero promote rate. The
    // `mode` field keys the gate line (one per rate); rate 0 promotes nothing
    // under eager heaps, so it has no per-object cost to track.
    let actors = 16;
    let ops = ((2_000_000.0 * cfg.scale) as usize).max(8_000) / actors;
    for &permille in &[100u64, 500, 1000] {
        let rt = HhRuntime::new(HhConfig::eager_heaps(cfg.procs));
        let start = Instant::now();
        let checksum = rt.run(move |ctx| entangle(ctx, actors, ops, permille, 0xC0DE_0005));
        let elapsed = start.elapsed();
        let s = rt.stats();
        let ns_per_obj = elapsed.as_nanos() as f64 / s.promoted_objects.max(1) as f64;
        table.row(vec![
            format!("entangle r={:.1}", permille as f64 / 1000.0),
            "parmem_eager".into(),
            secs(elapsed),
            "-".into(),
            s.promotions.to_string(),
            s.promoted_objects.to_string(),
            format!("{ns_per_obj:.1}"),
        ]);
        json.push(format!(
            concat!(
                "{{\"experiment\":\"adversarial\",\"benchmark\":\"entangle\",",
                "\"mode\":\"entangle-r{}\",\"runtime\":\"parmem_eager\",",
                "\"elapsed_s\":{:.6},\"promotions\":{},\"promoted_objects\":{},",
                "\"promote_ns_per_obj\":{:.2},\"checksum\":{}}}"
            ),
            permille,
            elapsed.as_secs_f64(),
            s.promotions,
            s.promoted_objects,
            ns_per_obj,
            checksum,
        ));
    }
    (table, json)
}

// ---------------------------------------------------------------------------
// Ablations (not in the paper; DESIGN.md A1/A2).
// ---------------------------------------------------------------------------

/// Ablation A1: the hierarchical runtime with its fast paths disabled, to quantify how
/// much of the design's efficiency comes from them.
pub fn ablation_fastpath(cfg: ExpConfig) -> Table {
    let mut table = Table::new(
        "Ablation A1 — fast paths on/off (parmem)",
        &[
            "benchmark",
            "fast paths (s)",
            "no fast paths (s)",
            "slowdown",
        ],
    );
    let params = cfg.params();
    for bench in [BenchId::Msort, BenchId::Tourney, BenchId::Usp] {
        let with = measure_parmem_with_config(HhConfig::with_workers(cfg.procs), bench, params);
        let without = measure_parmem_with_config(
            HhConfig {
                n_workers: cfg.procs,
                enable_read_write_fast_path: false,
                enable_write_ptr_fast_path: false,
                ..Default::default()
            },
            bench,
            params,
        );
        table.row(vec![
            bench.name().to_string(),
            secs(with.elapsed),
            secs(without.elapsed),
            ratio(without.elapsed.as_secs_f64(), with.elapsed.as_secs_f64()),
        ]);
    }
    table
}

// ---------------------------------------------------------------------------
// hh-server: overlapping runs under epoch vs global-horizon reclamation (A5).
// ---------------------------------------------------------------------------

/// `repro serve` — the multi-tenant experiment (DESIGN.md §5): `runs` independent
/// small runs flow from client threads through a bounded queue onto one shared
/// runtime, so several runs overlap at every instant. One row per reclamation
/// mode: the default epoch watermark keeps recycling mid-overlap; the A5 global
/// horizon (reclaim only when *no* run is active) never gets to reclaim under
/// sustained load, so it mints a fresh chunk per run and its footprint grows with
/// the request count.
pub fn serve_overlap(cfg: ExpConfig, runs: usize) -> Table {
    let mut table = Table::new(
        "serve — overlapping independent runs, epoch vs global-horizon reclamation (A5)",
        &[
            "mode",
            "runs",
            "runs/s",
            "p50 (us)",
            "p99 (us)",
            "p999 (us)",
            "recycle%",
            "epoch reclaims",
            "overlap peak",
            "peak footprint (Kw)",
        ],
    );
    let serve_cfg = hh_server::ServeConfig {
        runs,
        clients: 2,
        executors: cfg.procs.max(2),
        queue_cap: 64,
        seed: 0x5eed_0001,
        scale: 1,
        sample_every: 8,
        workload: None,
        ..hh_server::ServeConfig::default()
    };
    let us = |ns: u64| format!("{:.1}", ns as f64 / 1e3);
    for (mode, config) in [
        ("epoch", HhConfig::with_workers(cfg.procs)),
        ("global (A5)", HhConfig::global_horizon(cfg.procs)),
    ] {
        let rt = HhRuntime::new(config);
        let label = if mode == "epoch" { "epoch" } else { "global" };
        let r = hh_server::serve(&rt, &serve_cfg, label);
        hh_server::verify_quiescent(&rt)
            .unwrap_or_else(|e| panic!("serve {mode}: invariant violated: {e}"));
        table.row(vec![
            mode.to_string(),
            r.runs.to_string(),
            format!("{:.0}", r.throughput_rps),
            us(r.latency.p50_ns),
            us(r.latency.p99_ns),
            us(r.latency.p999_ns),
            percent(r.recycle_rate()),
            r.stats.epoch_reclaims.to_string(),
            r.stats.active_runs_peak.to_string(),
            format!("{:.1}", r.peak_footprint_words as f64 / 1024.0),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ExpConfig {
        ExpConfig {
            scale: 0.0002,
            procs: 2,
            grain: 512,
        }
    }

    #[test]
    fn fig8_produces_three_rows() {
        let t = fig8(2_000);
        assert_eq!(t.n_rows(), 3);
        let s = t.render();
        assert!(s.contains("local") && s.contains("distant") && s.contains("promoted"));
    }

    #[test]
    fn fig9_covers_all_benchmarks() {
        let t = fig9(tiny_cfg());
        assert_eq!(t.n_rows(), BenchId::ALL.len());
        let s = t.render();
        assert!(s.contains("usp-tree"));
        assert!(s.contains("distant promoting writes"));
    }

    #[test]
    fn fig12_has_speedup_columns() {
        let cfg = tiny_cfg();
        let t = fig12(cfg);
        assert_eq!(t.n_rows(), 7);
        assert!(t.render().contains("P=2"));
    }

    #[test]
    fn sched_counters_cover_the_suite_and_show_elisions() {
        let t = sched_counters(ExpConfig {
            scale: 0.0005,
            procs: 2,
            grain: 256,
        });
        assert_eq!(t.n_rows(), BenchId::ALL.len());
        let rendered = t.render();
        // Every fork-join workload must elide heaps under the lazy policy: each data
        // row's last column (heaps elided) must be positive.
        for line in rendered.lines().skip(3) {
            let toks: Vec<&str> = line.split_whitespace().collect();
            if toks.is_empty() {
                continue;
            }
            let elided: u64 = toks.last().unwrap().parse().expect("elided column");
            assert!(
                elided > 0,
                "{}: no heaps elided on a fork-join workload",
                toks[0]
            );
        }
    }

    #[test]
    fn promote_tables_render_and_eager_rows_promote() {
        let micro = promote_micro(tiny_cfg());
        assert_eq!(micro.n_rows(), 4);
        assert!(micro.render().contains("1024"));

        let t = promote_workloads(ExpConfig {
            scale: 0.0005,
            procs: 2,
            grain: 256,
        });
        assert_eq!(
            t.n_rows(),
            3 * (BenchId::MUTATOR.len() + BenchId::ADVERSARIAL.len())
        );
        // Every eager parmem row must show promotions (column 2) — the mutator
        // and adversarial workloads all publish cross-heap structures.
        for line in t.render().lines().skip(3) {
            let toks: Vec<&str> = line.split_whitespace().collect();
            if toks.len() < 3 || toks[1] != "parmem-eager" {
                continue;
            }
            let promotions: u64 = toks[2].parse().expect("promotions column");
            assert!(promotions > 0, "{}: eager run never promoted", toks[0]);
        }
    }

    #[test]
    fn mem_lifecycle_reports_recycling_in_steady_state() {
        let t = mem_lifecycle_for(tiny_cfg(), &[BenchId::Reduce, BenchId::MsortPure]);
        assert_eq!(t.n_rows(), 2 * 4);
        let rendered = t.render();
        // Every runtime reuses chunk memory on its second run: the recycled column
        // (index 5) must be positive on each data row.
        for line in rendered.lines().skip(3) {
            let toks: Vec<&str> = line.split_whitespace().collect();
            if toks.is_empty() {
                continue;
            }
            let recycled: u64 = toks[5].parse().expect("recycled column");
            assert!(
                recycled > 0,
                "{} on {}: no chunks recycled across runs",
                toks[0],
                toks[1]
            );
        }
    }

    #[test]
    fn gc_pause_table_covers_mutator_and_adversarial_workloads_on_six_rows_each() {
        let t = gc_pause_table(tiny_cfg());
        // 3 mutator + 2 adversarial workloads ×
        // (seq, stw, dlg, parmem-A6, parmem-A4, parmem-inc).
        assert_eq!(t.n_rows(), 5 * 6);
        let rendered = t.render();
        assert!(rendered.contains("union-find"));
        assert!(rendered.contains("wavefront"));
        assert!(rendered.contains("entangle"));
        assert!(rendered.contains("(A4)"));
        assert!(rendered.contains("(A6)"));
        assert!(rendered.contains("parmem inc (v3)"));
        assert!(rendered.contains("max pause"));
        assert!(rendered.contains("p999"));
    }

    #[test]
    fn promote_rate_sweep_shows_the_crossover() {
        let t = promote_rate_sweep(tiny_cfg());
        assert_eq!(t.n_rows(), 4);
        let rendered = t.render();
        let row = |rate: &str| -> Vec<String> {
            rendered
                .lines()
                .find(|l| l.split_whitespace().next() == Some(rate))
                .unwrap_or_else(|| panic!("no row for rate {rate}"))
                .split_whitespace()
                .map(str::to_string)
                .collect()
        };
        // Columns: rate, elapsed, promotions, ...
        let promotions = |rate: &str| -> u64 { row(rate)[2].parse().expect("promotions column") };
        assert_eq!(
            promotions("0.0"),
            0,
            "rate 0 must not promote under eager heaps"
        );
        assert!(promotions("1.0") > promotions("0.1"));
    }

    #[test]
    fn adversarial_report_emits_gate_metrics() {
        let (t, json) = adversarial_report(tiny_cfg());
        // 5 wavefront runtimes + 3 entangle rates.
        assert_eq!(t.n_rows(), 5 + 3);
        assert_eq!(json.len(), 8);
        assert!(json.iter().any(|l| l.contains("\"ns_per_cell\":")));
        assert!(json.iter().any(|l| l.contains("\"promote_ns_per_obj\":")));
        assert!(json
            .iter()
            .any(|l| l.contains("\"mode\":\"entangle-r1000\"")));
        // All wavefront rows computed the same fixpoint.
        let sums: Vec<&str> = json
            .iter()
            .filter(|l| l.contains("wavefront"))
            .map(|l| l.split("\"checksum\":").nth(1).unwrap())
            .collect();
        assert!(sums.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn serve_overlap_contrasts_epoch_and_global_modes() {
        let t = serve_overlap(
            ExpConfig {
                scale: 0.0005,
                procs: 2,
                grain: 256,
            },
            24,
        );
        assert_eq!(t.n_rows(), 2);
        let rendered = t.render();
        assert!(rendered.contains("epoch"));
        assert!(rendered.contains("global (A5)"));
        // The A5 row reclaims nothing via the watermark.
        let global_line = rendered
            .lines()
            .find(|l| l.trim_start().starts_with("global"))
            .unwrap();
        let toks: Vec<&str> = global_line.split_whitespace().collect();
        // columns: global (A5) runs runs/s p50 p99 p999 recycle% reclaims peak footprint
        assert_eq!(
            toks[toks.len() - 3],
            "0",
            "A5 epoch reclaims: {global_line}"
        );
    }

    #[test]
    fn promotion_volume_shows_dlg_promoting_more_than_parmem() {
        let t = promotion_volume(ExpConfig {
            scale: 0.0005,
            procs: 3,
            grain: 256,
        });
        assert_eq!(t.n_rows(), 4);
        let rendered = t.render();
        // The map/parmem row must report zero promoted objects.
        let parmem_line = rendered
            .lines()
            .find(|l| {
                let toks: Vec<&str> = l.split_whitespace().collect();
                toks.first() == Some(&"map") && toks.get(1) == Some(&"parmem")
            })
            .unwrap();
        assert!(
            parmem_line.split_whitespace().any(|tok| tok == "0"),
            "parmem should promote nothing on map: {parmem_line}"
        );
    }
}
