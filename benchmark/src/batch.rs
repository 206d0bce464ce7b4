//! The batch method (workloads `pure`, `imperative`, `promote`, `gc`).
//!
//! Three runtimes — `SeqRuntime`, `HhRuntime` at 1 worker and at P workers (one
//! such set per collector on `gc`) — are built once and shared by the
//! workload's rows (a row is a program, or program × collector on `gc`). For
//! each row the `SeqRuntime` run is the oracle and each runtime gets one
//! discarded warm-up rep (first touch and chunk minting are not overhead).
//! Then *rounds* follow until `--seconds` is used: a round visits every row and
//! runs it once on each runtime, the runtime order rotated every round. A slow
//! spell of the host therefore lands on a few reps of every row and every
//! runtime alike, where the medians discard it, instead of on all reps of one
//! row. Input preparation happens inside each `run`, but only the kernel call
//! is timed and counted.

use crate::programs::{self, Program};
use crate::report::{repeat_set_up, Checks, Measured, RunOpts, SETUP_REPEATS};
use crate::schema::{Kind, Workload, GC_CHUNK_WORDS, GC_THRESHOLD_WORDS};
use crate::stats::{geomean, median, quartiles};
use crate::trace::Tracer;
use crate::{host, json::Json};
use hh_api::{RunStats, Runtime};
use hh_baselines::{DlgRuntime, SeqRuntime, StwRuntime};
use hh_runtime::{HhConfig, HhRuntime};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Fewest measured rounds, whatever `--seconds` says.
const MIN_ROUNDS: usize = 3;
const MAX_ROUNDS: usize = 1000;
/// Fewest pauses the incremental runtime must record for its p99 to mean
/// something (ten samples beyond it).
const MIN_PAUSES: u64 = 1000;

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Collector {
    /// Default thresholds: no collection is expected at all.
    Default,
    /// Tiny thresholds, monolithic zone collections.
    Zone,
    /// Tiny thresholds, mutator-concurrent incremental collections.
    Incremental,
}

impl Collector {
    fn label(self) -> &'static str {
        match self {
            Collector::Default => "",
            Collector::Zone => "zone",
            Collector::Incremental => "inc",
        }
    }

    fn seq(self) -> SeqRuntime {
        match self {
            Collector::Default => SeqRuntime::new(),
            _ => SeqRuntime::with_params(GC_CHUNK_WORDS, GC_THRESHOLD_WORDS, true),
        }
    }

    pub fn hh_config(self, workers: usize) -> HhConfig {
        match self {
            Collector::Default => HhConfig::with_workers(workers),
            _ => HhConfig {
                n_workers: workers,
                chunk_words: GC_CHUNK_WORDS,
                gc_threshold_words: GC_THRESHOLD_WORDS,
                incremental_gc: self == Collector::Incremental,
                ..HhConfig::default()
            },
        }
    }
}

pub struct RowSpec {
    pub prog: Program,
    pub n: usize,
    pub collector: Collector,
}

pub fn rows_of(w: &Workload, smoke: bool) -> Vec<RowSpec> {
    let collectors: &[Collector] = match w.kind {
        Kind::Gc => &[Collector::Zone, Collector::Incremental],
        _ => &[Collector::Default],
    };
    let mut rows = Vec::new();
    for &(prog, n) in w.programs {
        for &collector in collectors {
            rows.push(RowSpec {
                prog,
                n: size(prog, n, smoke, w.smoke_div),
                collector,
            });
        }
    }
    rows
}

/// `--smoke` size of a program: `fib`'s argument shrinks additively (its work
/// is exponential in it), side lengths by the square root, the rest linearly.
pub fn size(prog: Program, n: usize, smoke: bool, div: usize) -> usize {
    if !smoke || div <= 1 {
        return n;
    }
    match prog {
        Program::Fib => n.saturating_sub(8).max(18),
        Program::Strassen => (n / 2).max(32),
        Program::Wavefront => ((n as f64 / (div as f64).sqrt()) as usize).max(32),
        _ => (n / div).max(2048),
    }
}

/// One execution of a program on a runtime.
struct Rep {
    run_start: Instant,
    kernel_start: Instant,
    kernel_end: Instant,
    run_end: Instant,
    checksum: u64,
    /// What the kernel added to the runtime's statistics.
    stats: RunStats,
}

impl Rep {
    fn kernel_ns(&self) -> u64 {
        (self.kernel_end - self.kernel_start).as_nanos() as u64
    }
}

/// What a kernel added to a runtime's counters: `after - before` for every
/// monotone count, `after` for gauges, peaks and percentiles. Deltas rather
/// than `reset_stats`, because a reset would also discard the pause samples
/// the row-level percentiles are taken over.
fn delta(before: &RunStats, mut after: RunStats) -> RunStats {
    macro_rules! sub {
        ($($field:ident),*) => { $(after.$field -= before.$field;)* };
    }
    sub!(
        gc_time,
        gc_count,
        world_stops,
        allocated_words,
        promotions,
        promoted_objects,
        promoted_words,
        fwd_hops,
        fwd_compressions,
        heaps_created,
        heaps_elided,
        sched_steals,
        sched_parks,
        sched_wakes,
        gc_copied_words,
        bulk_ops,
        bulk_words,
        bulk_master_lookups,
        subtree_collections,
        gc_parallel_collections,
        gc_steal_blocks,
        gc_pause_count,
        gc_increments,
        gc_incremental_collections,
        chunks_created,
        chunks_recycled,
        alloc_cache_hits,
        epoch_reclaims
    );
    after
}

/// Runs `prog` once on `rt`. A panic escaping the run is a failed rep, not a
/// crashed benchmark.
fn rep<R: Runtime>(rt: &R, prog: Program, n: usize, seed: u64) -> Result<Rep, String> {
    let before: Mutex<Option<RunStats>> = Mutex::new(None);
    let after: Mutex<Option<RunStats>> = Mutex::new(None);
    let run_start = Instant::now();
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        rt.run(|ctx| {
            programs::execute(
                ctx,
                prog,
                n,
                seed,
                || *before.lock().expect("stats slot") = Some(rt.stats()),
                || *after.lock().expect("stats slot") = Some(rt.stats()),
            )
        })
    }))
    .map_err(|p| {
        let msg = p
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| p.downcast_ref::<&str>().copied())
            .unwrap_or("non-string panic");
        format!("{} panicked: {msg}", prog.name())
    })?;
    let run_end = Instant::now();
    let take = |slot: Mutex<Option<RunStats>>| slot.into_inner().expect("stats slot");
    let (before, after) = (take(before), take(after));
    Ok(Rep {
        run_start,
        kernel_start: out.kernel_start,
        kernel_end: out.kernel_end,
        run_end,
        checksum: out.checksum,
        stats: delta(
            &before.expect("start hook ran"),
            after.expect("end hook ran"),
        ),
    })
}

struct Runtimes {
    collector: Collector,
    seq: SeqRuntime,
    hh1: HhRuntime,
    hhp: HhRuntime,
}

/// Samples of one runtime on one row.
#[derive(Default)]
struct Samples {
    kernel_ns: Vec<f64>,
    /// Whether the rep was recorded with spans on (traced runs alternate).
    traced: Vec<bool>,
    stats: Vec<RunStats>,
}

impl Samples {
    fn median_ms(&self) -> f64 {
        median(&self.kernel_ns).unwrap_or(f64::NAN) / 1e6
    }

    fn summary(&self) -> Json {
        let (q1, q3) = quartiles(&self.kernel_ns).unwrap_or((f64::NAN, f64::NAN));
        Json::obj([
            ("median_ms", Json::Num(self.median_ms())),
            ("q1_ms", Json::Num(q1 / 1e6)),
            ("q3_ms", Json::Num(q3 / 1e6)),
            ("samples", Json::from(self.kernel_ns.len())),
        ])
    }

    fn med(&self, f: impl Fn(&RunStats) -> f64) -> f64 {
        median(&self.stats.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    }

    /// Words held by active chunks when the kernel returned (median over
    /// reps). Nothing is freed inside a run at default thresholds, so there
    /// this is the run's peak footprint, inputs included.
    fn footprint(&self) -> f64 {
        self.med(|s| s.live_words as f64)
    }
}

/// Everything measured on one row.
struct Row {
    label: String,
    prog: Program,
    n: usize,
    collector: Collector,
    oracle: Option<u64>,
    seq: Samples,
    hh1: Samples,
    hhp: Samples,
    stw_ms: Option<f64>,
    dlg_ms: Option<f64>,
}

/// Checks one checksum against the oracle.
fn check_rep(
    checks: &mut Checks,
    what: &str,
    got: &Result<Rep, String>,
    want: Option<u64>,
) -> Option<u64> {
    match got {
        Err(e) => {
            checks.fail(format!("{what}: {e}"));
            None
        }
        Ok(r) => {
            match want {
                Some(w) if w != r.checksum => {
                    checks.fail(format!("{what}: checksum {:#x}, oracle {w:#x}", r.checksum))
                }
                _ => checks.pass(),
            }
            Some(r.checksum)
        }
    }
}

fn check_disentangled(checks: &mut Checks, what: &str, rt: &HhRuntime) {
    match rt.check_disentangled() {
        0 => checks.pass(),
        v => checks.fail(format!("{what}: {v} disentanglement violations")),
    }
}

fn label(spec: &RowSpec) -> String {
    match spec.collector.label() {
        "" => spec.prog.name().to_string(),
        c => format!("{}/{c}", spec.prog.name()),
    }
}

/// Builds the runtimes, computes every row's oracle, warms every runtime up
/// on every row. Returns the runtimes and the oracles, in row order.
fn set_up(
    specs: &[RowSpec],
    seed: u64,
    workers: usize,
    checks: &mut Checks,
) -> (Vec<Runtimes>, Vec<Option<u64>>) {
    let mut rts: Vec<Runtimes> = Vec::new();
    for spec in specs {
        if !rts.iter().any(|r| r.collector == spec.collector) {
            rts.push(Runtimes {
                collector: spec.collector,
                seq: spec.collector.seq(),
                hh1: HhRuntime::new(spec.collector.hh_config(1)),
                hhp: HhRuntime::new(spec.collector.hh_config(workers)),
            });
        }
    }
    let oracles = specs
        .iter()
        .map(|spec| {
            let label = label(spec);
            let rt = runtimes_of(&rts, spec.collector);
            // The sequential run is both the oracle and `seq`'s warm-up; where
            // the suite has a runtime-independent reference, the oracle itself
            // is checked.
            let reference = programs::reference_checksum(spec.prog, spec.n, seed);
            let oracle = check_rep(
                checks,
                &format!("{label} oracle"),
                &rep(&rt.seq, spec.prog, spec.n, seed),
                reference,
            );
            for (name, hh) in [("t1", &rt.hh1), ("tp", &rt.hhp)] {
                let what = format!("{label} {name} warm-up");
                check_rep(checks, &what, &rep(hh, spec.prog, spec.n, seed), oracle);
                check_disentangled(checks, &what, hh);
            }
            oracle
        })
        .collect();
    (rts, oracles)
}

fn runtimes_of(rts: &[Runtimes], collector: Collector) -> &Runtimes {
    rts.iter()
        .find(|r| r.collector == collector)
        .expect("set_up builds one runtime set per collector in use")
}

fn add_spans(tracer: &mut Tracer, rep_id: u64, parent: u64, r: &Rep, rt: &'static str) {
    let run = tracer.reserve();
    tracer.add("prepare", r.run_start, r.kernel_start, run, rep_id);
    tracer.add("kernel", r.kernel_start, r.kernel_end, run, rep_id);
    tracer.add_with_id(run, rt, r.run_start, r.run_end, parent, rep_id);
    tracer.counters(
        r.run_end,
        vec![
            ("allocated_words", r.stats.allocated_words as f64),
            ("promotions", r.stats.promotions as f64),
            ("gc_count", r.stats.gc_count as f64),
            ("chunks_created", r.stats.chunks_created as f64),
            ("chunks_recycled", r.stats.chunks_recycled as f64),
            ("steals", r.stats.sched_steals as f64),
        ],
    );
}

/// One round on one row: a rep on each runtime, starting with runtime
/// `round % 3`.
#[allow(clippy::too_many_arguments)]
fn round_on_row(
    row: &mut Row,
    rt: &Runtimes,
    round: usize,
    rep_id: u64,
    seed: u64,
    kind: Kind,
    spans_on: bool,
    tracer: &mut Tracer,
    checks: &mut Checks,
) {
    let start = Instant::now();
    let parent = if spans_on { tracer.reserve() } else { 0 };
    for k in 0..3 {
        let which = (round + k) % 3;
        let (name, result): (&'static str, _) = match which {
            0 => ("run:seq", rep(&rt.seq, row.prog, row.n, seed)),
            1 => ("run:t1", rep(&rt.hh1, row.prog, row.n, seed)),
            _ => ("run:tp", rep(&rt.hhp, row.prog, row.n, seed)),
        };
        let what = format!("{} {name} round {round}", row.label);
        check_rep(checks, &what, &result, row.oracle);
        let Ok(r) = result else { continue };
        if spans_on {
            add_spans(tracer, rep_id, parent, &r, name);
        }
        if which > 0 {
            let hh = if which == 1 { &rt.hh1 } else { &rt.hhp };
            check_disentangled(checks, &what, hh);
            check_predictions(checks, &what, kind, which == 1, &r.stats);
        }
        let samples = match which {
            0 => &mut row.seq,
            1 => &mut row.hh1,
            _ => &mut row.hhp,
        };
        samples.kernel_ns.push(r.kernel_ns() as f64);
        samples.traced.push(spans_on);
        samples.stats.push(r.stats);
    }
    if spans_on {
        tracer.add_with_id(parent, "rep", start, Instant::now(), 0, rep_id);
    }
}

/// Median kernel time of a row on one of the other parallel runtimes: one
/// warm-up and three reps (context for T_P, not gated).
fn baseline_ms<R: Runtime>(rt: &R, row: &Row, seed: u64, checks: &mut Checks) -> Option<f64> {
    let mut ns = Vec::new();
    for i in 0..4 {
        let r = rep(rt, row.prog, row.n, seed);
        let what = format!("{} {} rep {i}", row.label, rt.name());
        check_rep(checks, &what, &r, row.oracle);
        if let (Ok(r), true) = (r, i > 0) {
            ns.push(r.kernel_ns() as f64);
        }
    }
    median(&ns).map(|m| m / 1e6)
}

/// The predictions the interaction list makes about counts, asserted on every
/// measured rep: a violated one means the workload no longer isolates what it
/// claims to isolate.
fn check_predictions(checks: &mut Checks, what: &str, kind: Kind, one_worker: bool, s: &RunStats) {
    if one_worker {
        // No steals ⇒ no child heaps ⇒ nothing to promote.
        checks.expect(s.promotions == 0, || {
            format!("{what}: {} promotions at one worker", s.promotions)
        });
    }
    if kind == Kind::Batch {
        checks.expect(s.gc_count == 0, || {
            format!("{what}: {} collections at default thresholds", s.gc_count)
        });
    }
}

/// Runs a batch workload and derives its metrics.
pub fn run(w: &Workload, opts: &RunOpts) -> Measured {
    let process_start = Instant::now();
    let workers = host::workers();
    let specs = rows_of(w, opts.smoke);
    let mut tracer = Tracer::new(opts.trace, process_start, 0);
    let mut checks = Checks::default();

    let ((rts, oracles), setup_s) =
        repeat_set_up(|| set_up(&specs, opts.seed, workers, &mut checks));

    let mut rows: Vec<Row> = specs
        .iter()
        .zip(oracles)
        .map(|(spec, oracle)| Row {
            label: label(spec),
            prog: spec.prog,
            n: spec.n,
            collector: spec.collector,
            oracle,
            seq: Samples::default(),
            hh1: Samples::default(),
            hhp: Samples::default(),
            stw_ms: None,
            dlg_ms: None,
        })
        .collect();

    let budget = Duration::from_secs_f64(opts.seconds);
    let started = Instant::now();
    let mut round = 0usize;
    while round < MAX_ROUNDS && (round < MIN_ROUNDS || started.elapsed() < budget) {
        // Traced runs record spans on every other round: the untraced rounds
        // are the baseline of `bench.trace_overhead`.
        let spans_on = opts.trace && round.is_multiple_of(2);
        for (i, row) in rows.iter_mut().enumerate() {
            let rt = runtimes_of(&rts, row.collector);
            let rep_id = (round * specs.len() + i) as u64;
            round_on_row(
                row,
                rt,
                round,
                rep_id,
                opts.seed,
                w.kind,
                spans_on,
                &mut tracer,
                &mut checks,
            );
        }
        round += 1;
    }
    // Pause percentiles cover every pause the P-worker runtime recorded, on
    // every row, warm-ups and preparation included: the incremental runtime's
    // where there is one.
    let pauses = rts
        .iter()
        .max_by_key(|r| r.collector == Collector::Incremental)
        .map(|r| r.hhp.stats())
        .expect("at least one runtime set");
    drop(rts);

    if opts.trace && w.kind == Kind::Batch {
        // The other two parallel runtimes, for the `baselines.*_tp_ms` columns.
        // Not on `gc`: under its tiny thresholds their whole-heap collections
        // take seconds per rep (`union_find` 11 s on `stw`), and a traced run
        // has to end within the driver's three minutes.
        let stw = StwRuntime::with_workers(workers);
        let dlg = DlgRuntime::with_workers(workers);
        for row in rows.iter_mut() {
            row.stw_ms = baseline_ms(&stw, row, opts.seed, &mut checks);
            row.dlg_ms = baseline_ms(&dlg, row, opts.seed, &mut checks);
        }
    }

    let mut m = Measured::new(checks, tracer);
    m.set("setup_s", setup_s);
    derive(&mut m, w, &rows, &pauses, workers, opts);
    m
}

/// Reads one count out of a statistics snapshot.
type Field<'a> = &'a dyn Fn(&RunStats) -> f64;

fn geo(rows: &[Row], f: impl Fn(&Row) -> f64) -> f64 {
    geomean(&rows.iter().map(f).collect::<Vec<_>>()).unwrap_or(f64::NAN)
}

fn derive(
    m: &mut Measured,
    w: &Workload,
    rows: &[Row],
    pauses: &RunStats,
    workers: usize,
    opts: &RunOpts,
) {
    let p = workers as f64;
    m.set("tp_ms", geo(rows, |r| r.hhp.median_ms()));
    m.set("t1_ms", geo(rows, |r| r.hh1.median_ms()));
    m.set(
        "overhead",
        geo(rows, |r| r.hh1.median_ms() / r.seq.median_ms()),
    );
    m.set(
        "speedup",
        geo(rows, |r| r.seq.median_ms() / r.hhp.median_ms()),
    );
    // Programs that allocate nothing managed (`fib`) have no footprint to compare.
    let with_memory: Vec<f64> = rows
        .iter()
        .map(|r| (r.hhp.footprint(), r.seq.footprint()))
        .filter(|&(tp, seq)| tp > 0.0 && seq > 0.0)
        .map(|(tp, seq)| tp / seq)
        .collect();
    m.set("mem_inflation", geomean(&with_memory).unwrap_or(f64::NAN));
    m.set("baselines.ts_ms", geo(rows, |r| r.seq.median_ms()));
    if rows
        .iter()
        .all(|r| r.stw_ms.is_some() && r.dlg_ms.is_some())
    {
        m.set(
            "baselines.stw_tp_ms",
            geo(rows, |r| r.stw_ms.unwrap_or(f64::NAN)),
        );
        m.set(
            "baselines.dlg_tp_ms",
            geo(rows, |r| r.dlg_ms.unwrap_or(f64::NAN)),
        );
    }

    // GC: share of the P workers' time, and the incremental runtime's pauses.
    let total = |f: Field| -> f64 { rows.iter().flat_map(|r| r.hhp.stats.iter()).map(f).sum() };
    let tp_total_ns: f64 = rows.iter().flat_map(|r| r.hhp.kernel_ns.iter()).sum();
    let gc_ns = total(&|s| s.gc_time.as_nanos() as f64);
    m.set("gc_share", gc_ns / (p * tp_total_ns));
    m.set(
        "core.gc_ns_per_word",
        gc_ns / total(&|s| s.gc_copied_words as f64).max(1.0),
    );
    let pause_us = |ns: u64| ns as f64 / 1e3;
    if w.kind == Kind::Gc {
        m.checks
            .expect(pauses.gc_pause_count >= MIN_PAUSES || opts.smoke, || {
                format!(
                    "only {} pauses behind the incremental p99",
                    pauses.gc_pause_count
                )
            });
        m.set("gc_pause_p50_us", pause_us(pauses.gc_pause_p50_ns));
        m.set("gc_pause_p99_us", pause_us(pauses.gc_pause_p99_ns));
    }
    m.set("core.gc_pause_p999_us", pause_us(pauses.gc_pause_p999_ns));
    m.set("core.gc_pause_max_us", pause_us(pauses.gc_max_pause_ns));

    // Counts: per-rep medians at P workers (kernel only), summed over rows.
    let count = |f: Field| -> f64 { rows.iter().map(|r| r.hhp.med(f)).sum() };
    let counts: [(&'static str, Field); 21] = [
        ("core.allocated_words", &|s| s.allocated_words as f64),
        ("core.promotions", &|s| s.promotions as f64),
        ("core.promoted_objects", &|s| s.promoted_objects as f64),
        ("core.promoted_words", &|s| s.promoted_words as f64),
        ("core.fwd_hops", &|s| s.fwd_hops as f64),
        ("core.fwd_compressions", &|s| s.fwd_compressions as f64),
        ("core.bulk_ops", &|s| s.bulk_ops as f64),
        ("core.bulk_words", &|s| s.bulk_words as f64),
        ("core.gc_count", &|s| s.gc_count as f64),
        ("core.gc_copied_words", &|s| s.gc_copied_words as f64),
        ("core.gc_increments", &|s| s.gc_increments as f64),
        ("core.gc_pause_count", &|s| s.gc_pause_count as f64),
        ("objmodel.chunks_created", &|s| s.chunks_created as f64),
        ("objmodel.chunks_recycled", &|s| s.chunks_recycled as f64),
        ("objmodel.epoch_reclaims", &|s| s.epoch_reclaims as f64),
        ("objmodel.quarantine_lag_words", &|s| {
            s.quarantine_lag_words as f64
        }),
        ("heaps.created", &|s| s.heaps_created as f64),
        ("heaps.elided", &|s| s.heaps_elided as f64),
        ("sched.steals", &|s| s.sched_steals as f64),
        ("sched.parks", &|s| s.sched_parks as f64),
        ("sched.wakes", &|s| s.sched_wakes as f64),
    ];
    for (name, f) in counts {
        m.set(name, count(f));
    }
    let handouts = m.get("objmodel.chunks_created") + m.get("objmodel.chunks_recycled");
    m.set(
        "objmodel.recycle_rate",
        ratio(m.get("objmodel.chunks_recycled"), handouts),
    );
    let cache_hits = count(&|s| s.alloc_cache_hits as f64);
    m.set("objmodel.alloc_cache_hit_rate", ratio(cache_hits, handouts));
    let forks = m.get("heaps.created") + m.get("heaps.elided");
    m.set("heaps.elide_rate", ratio(m.get("heaps.elided"), forks));
    let peak = rows.iter().map(|r| r.hhp.footprint()).fold(0.0, f64::max);
    m.set("core.peak_live_words", peak);

    if let Some(wf) = rows.iter().find(|r| r.prog == Program::Wavefront) {
        let cells = programs::wavefront_cells(wf.n) as f64;
        m.set(
            "workloads.wavefront_ns_per_cell",
            wf.hhp.median_ms() * 1e6 / cells,
        );
    }

    if opts.trace {
        // Traced over untraced kernel time at P workers, per row, then geomean.
        let overhead = geo(rows, |r| {
            let pick = |on: bool| -> Vec<f64> {
                r.hhp
                    .kernel_ns
                    .iter()
                    .zip(&r.hhp.traced)
                    .filter(|(_, &t)| t == on)
                    .map(|(&ns, _)| ns)
                    .collect()
            };
            match (median(&pick(true)), median(&pick(false))) {
                (Some(t), Some(u)) => t / u,
                _ => f64::NAN,
            }
        });
        m.set("bench.trace_overhead", overhead);
    }

    // Inputs of the computed shares (`est_share.*`): runs and worker-time.
    m.runs_per_tp = rows.len() as f64;
    m.tp_worker_ns = p * rows.iter().map(|r| r.hhp.median_ms() * 1e6).sum::<f64>();

    m.rows = Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj([
                    ("row", Json::str(r.label.clone())),
                    ("n", Json::from(r.n)),
                    ("ts", r.seq.summary()),
                    ("t1", r.hh1.summary()),
                    ("tp", r.hhp.summary()),
                    ("overhead", Json::Num(r.hh1.median_ms() / r.seq.median_ms())),
                    ("speedup", Json::Num(r.seq.median_ms() / r.hhp.median_ms())),
                    ("footprint_words_seq", Json::Num(r.seq.footprint())),
                    ("footprint_words_tp", Json::Num(r.hhp.footprint())),
                    (
                        "promotions_tp",
                        Json::Num(r.hhp.med(|s| s.promotions as f64)),
                    ),
                    (
                        "promotions_t1",
                        Json::Num(r.hh1.med(|s| s.promotions as f64)),
                    ),
                    ("gc_count_tp", Json::Num(r.hhp.med(|s| s.gc_count as f64))),
                    (
                        "gc_pause_count_tp",
                        Json::Num(r.hhp.med(|s| s.gc_pause_count as f64)),
                    ),
                    ("steals_tp", Json::Num(r.hhp.med(|s| s.sched_steals as f64))),
                    ("stw_tp_ms", r.stw_ms.map_or(Json::Null, Json::Num)),
                    ("dlg_tp_ms", r.dlg_ms.map_or(Json::Null, Json::Num)),
                ])
            })
            .collect(),
    );
    let rounds = rows.first().map_or(0, |r| r.hhp.kernel_ns.len());
    m.sampling = Json::obj([
        (
            "method",
            Json::str("median of reps interleaved over rows and runtimes; geomean over rows"),
        ),
        ("warmup_reps", Json::from(1u64)),
        ("setup_repeats", Json::from(SETUP_REPEATS)),
        ("rounds", Json::from(rounds)),
        (
            "order",
            Json::str("every round visits every row; seq,t1,tp rotated by one every round"),
        ),
        ("workload_kind", Json::str(format!("{:?}", w.kind))),
    ]);
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema;

    #[test]
    fn smoke_sizes_shrink_each_program_its_own_way() {
        assert_eq!(size(Program::Fib, 30, true, 16), 22);
        assert_eq!(size(Program::Strassen, 128, true, 16), 64);
        assert_eq!(size(Program::Wavefront, 320, true, 16), 80);
        assert_eq!(size(Program::Map, 1_600_000, true, 16), 100_000);
        assert_eq!(size(Program::Map, 1_600_000, false, 16), 1_600_000);
        assert_eq!(size(Program::Msort, 10_000, true, 16), 2048, "floor");
    }

    #[test]
    fn gc_workload_has_a_zone_and_an_incremental_row_per_program() {
        let gc = schema::workload("gc").unwrap();
        let rows = rows_of(gc, false);
        assert_eq!(rows.len(), 2 * gc.programs.len());
        assert!(
            rows.iter()
                .filter(|r| r.collector == Collector::Incremental)
                .count()
                == gc.programs.len()
        );
        assert!(Collector::Incremental.hh_config(2).incremental_gc);
        assert!(!Collector::Zone.hh_config(2).incremental_gc);
        assert_eq!(
            Collector::Zone.hh_config(2).gc_threshold_words,
            GC_THRESHOLD_WORDS
        );
        let pure = rows_of(schema::workload("pure").unwrap(), false);
        assert!(pure.iter().all(|r| r.collector == Collector::Default));
    }

    #[test]
    fn a_rep_reports_kernel_only_statistics_and_a_panicking_rep_is_an_error() {
        let rt = HhRuntime::with_workers(1);
        let r = rep(&rt, Program::Map, 20_000, 1).unwrap();
        // The input (20 000 words) was allocated before the kernel: only the
        // output array and leaf buffers are counted.
        assert!(r.stats.allocated_words >= 20_000 && r.stats.allocated_words < 40_000);
        assert!(r.kernel_start >= r.run_start && r.run_end >= r.kernel_end);
        // strassen asserts n is a power of two ≥ LEAF.
        let silent = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let bad = rep(&rt, Program::Strassen, 3, 1);
        std::panic::set_hook(silent);
        assert!(bad.is_err_and(|e| e.contains("strassen panicked")));
        assert_eq!(rt.active_runs(), 0, "the failed run still ended its epoch");
    }
}
