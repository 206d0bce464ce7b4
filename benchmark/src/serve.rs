//! The `serve` workload: many short runs on one shared runtime.
//!
//! **Open loop** (independent users): one generator thread sends requests on a
//! seeded exponential schedule at five fixed rates, whatever the system does;
//! the benchmark owns the queue and the P executor threads, each of which pops
//! a request and drives `Runtime::try_run` on the shared `HhRuntime`. Latency
//! runs from the request's *intended* send time, so a stall is charged to every
//! request it delays, and the generator's own lateness is reported.
//!
//! **Closed loop** (callers that wait for their reply): rounds of four slices —
//! `SeqRuntime`, `HhRuntime` at one worker and the shared P-worker `HhRuntime`
//! with one client each, then the shared runtime saturated by P clients —
//! rotated every round like the batch method's reps. Per request program, the
//! median *kernel time* of the one-client slices gives Tₛ, T₁ and T_P, as on
//! the batch workloads; the saturated slices give `closed_rps`. The rest of the
//! `try_run` call — run boundary, pool injection, two thread hand-offs — is
//! reported per program (`*_service_ms` rows) and at the mid rate
//! (`server.run_self_p50_us`) but kept out of the gated times: its wake-up
//! latency follows the host (T₁ as service time spread 27 % between runs, Tₛ
//! on the calling thread 2 %). T_P is taken with one request in flight because
//! that is reproducible: under saturation the P workers flip between serving
//! one request each and stealing from one another (which promotes), and
//! throughput swings 2× between slices.

use crate::programs;
use crate::report::{repeat_set_up, Checks, Measured, RunOpts, SETUP_REPEATS};
use crate::schema::{Workload, SERVE_P99_LIMIT_US, SERVE_RATES_RPS};
use crate::stats::{geomean, median, median_sorted, percentile};
use crate::trace::Tracer;
use crate::{host, json::Json};
use hh_api::{hash64, Rng, RunCtl, Runtime};
use hh_baselines::{DlgRuntime, SeqRuntime, StwRuntime};
use hh_runtime::{HhConfig, HhRuntime};
use hh_server::{verify_quiescent, BoundedQueue};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Closed-loop rounds, and slices per round: `seq`, `t1`, `tp` with one client,
/// and `tp` saturated by P clients (index [`SATURATED`]). Many short slices
/// (≈ 0.16 s at 20 s), so a slow second of the host lands on all four alike:
/// with four rounds of 0.6 s slices `overhead` spread 5 % between runs.
const ROUNDS: usize = 16;
const SLICES: usize = 4;
const SATURATED: usize = 3;
/// Requests per program and runtime in the warm-up.
const WARMUP_REQUESTS: usize = 12;
/// One result in this many is recomputed on `SeqRuntime` afterwards.
const VERIFY_ONE_IN: u64 = 16;
/// The open-loop queue never refuses in a healthy run; a refusal is a failure.
const QUEUE_CAP: usize = 1 << 16;

/// One request of the deterministic stream.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Request {
    pub id: u64,
    pub prog: usize,
    pub seed: u64,
}

/// Request `id` of the stream for run seed `seed`: which program, which input.
pub fn request(seed: u64, id: u64, n_programs: usize) -> Request {
    let h = hash64(seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    Request {
        id,
        // High bits: the low bits of simple generators are the weak ones.
        prog: ((h >> 33) % n_programs as u64) as usize,
        seed: hash64(h),
    }
}

/// Intended send offsets (ns from segment start) of a Poisson process of
/// `rate_rps` over `dur`: exponential gaps from a seeded generator.
pub fn schedule(seed: u64, rate_rps: f64, dur: Duration) -> Vec<u64> {
    let mut rng = Rng::new(hash64(seed ^ rate_rps.to_bits()));
    let end = dur.as_nanos() as f64;
    let mut at = 0.0f64;
    let mut out = Vec::new();
    loop {
        // Inverse-CDF sampling; 1 - u is in (0, 1].
        at += -(1.0 - rng.next_f64()).ln() / rate_rps * 1e9;
        if at >= end {
            return out;
        }
        out.push(at as u64);
    }
}

struct Job {
    req: Request,
    due: Instant,
    sent: Instant,
}

/// A completed (or failed) request.
struct Done {
    req: Request,
    due: Instant,
    sent: Instant,
    deq: Instant,
    kernel: Option<(Instant, Instant)>,
    done: Instant,
    checksum: Option<u64>,
    /// Words held by active chunks when the kernel returned (one-client
    /// slices only: the request's own footprint).
    live_words: Option<u64>,
}

impl Done {
    /// The whole `try_run` call, as its caller saw it.
    fn service_ns(&self) -> u64 {
        (self.done - self.deq).as_nanos() as u64
    }

    /// The kernel alone; 0 for a request that failed before reaching it.
    fn kernel_ns(&self) -> u64 {
        self.kernel
            .map_or(0, |(k0, k1)| (k1 - k0).as_nanos() as u64)
    }
}

/// Drives one request on `rt`; `footprint` samples the store at kernel end.
fn serve_one<R: Runtime>(rt: &R, w: &Workload, job: Job, deq: Instant, footprint: bool) -> Done {
    let (prog, n) = w.programs[job.req.prog];
    let ctl = RunCtl::new();
    let live = AtomicU64::new(0);
    let out = rt.try_run(&ctl, |ctx| {
        programs::execute(
            ctx,
            prog,
            n,
            job.req.seed,
            || (),
            || {
                if footprint {
                    live.store(rt.stats().live_words, Ordering::Relaxed);
                }
            },
        )
    });
    let done = Instant::now();
    Done {
        req: job.req,
        due: job.due,
        sent: job.sent,
        deq,
        kernel: out.as_ref().ok().map(|o| (o.kernel_start, o.kernel_end)),
        done,
        checksum: out.ok().map(|o| o.checksum),
        live_words: footprint.then(|| live.into_inner()),
    }
}

fn add_spans(tracer: &mut Tracer, d: &Done, open: bool) {
    let req = tracer.reserve();
    let run = tracer.reserve();
    if open {
        tracer.add("queue_wait", d.sent, d.deq, req, d.req.id);
    }
    if let Some((k0, k1)) = d.kernel {
        tracer.add("kernel", k0, k1, run, d.req.id);
    }
    tracer.add_with_id(run, "run", d.deq, d.done, req, d.req.id);
    let start = if open { d.due } else { d.deq };
    tracer.add_with_id(req, "request", start, d.done, 0, d.req.id);
}

/// Sleeps, then spins, until `due`: sleeping alone overshoots by the timer
/// slack, spinning alone takes a core from the system under test.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(100);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

struct Segment {
    start: Instant,
    end: Instant,
    scheduled: usize,
    rejected: u64,
    done: Vec<Done>,
}

/// One open-loop segment at `rate_rps`: generator on this thread, `executors`
/// threads serving. Returns once every accepted request has completed.
#[allow(clippy::too_many_arguments)]
fn open_segment(
    rt: &HhRuntime,
    w: &Workload,
    seed: u64,
    first_id: u64,
    rate_rps: f64,
    dur: Duration,
    executors: usize,
    tracers: &mut [Tracer],
) -> Segment {
    let offsets = schedule(seed, rate_rps, dur);
    let queue: BoundedQueue<Job> = BoundedQueue::new(QUEUE_CAP);
    let mut rejected = 0u64;
    let mut done = Vec::with_capacity(offsets.len());
    let start = Instant::now() + Duration::from_millis(2);
    std::thread::scope(|scope| {
        let handles: Vec<_> = tracers
            .iter_mut()
            .take(executors)
            .map(|tracer| {
                let queue = &queue;
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    while let Some(job) = queue.pop() {
                        let d = serve_one(rt, w, job, Instant::now(), false);
                        if tracer.enabled() {
                            add_spans(tracer, &d, true);
                        }
                        mine.push(d);
                    }
                    mine
                })
            })
            .collect();
        for (k, &off) in offsets.iter().enumerate() {
            let due = start + Duration::from_nanos(off);
            wait_until(due);
            let job = Job {
                req: request(seed, first_id + k as u64, w.programs.len()),
                due,
                sent: Instant::now(),
            };
            if queue.try_push(job).is_err() {
                rejected += 1;
            }
        }
        queue.close();
        for h in handles {
            done.extend(h.join().expect("executor thread panicked"));
        }
    });
    Segment {
        start,
        end: start + dur,
        scheduled: offsets.len(),
        rejected,
        done,
    }
}

/// One closed-loop slice: `clients` threads, each sending its next request as
/// soon as the previous one returned, for `dur`.
#[allow(clippy::too_many_arguments)]
fn closed_slice<R: Runtime>(
    rt: &R,
    w: &Workload,
    seed: u64,
    next_id: &AtomicU64,
    clients: usize,
    dur: Duration,
    tracers: &mut [Tracer],
    spans_on: bool,
) -> (Vec<Done>, f64) {
    let start = Instant::now();
    let deadline = start + dur;
    let mut done = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = tracers
            .iter_mut()
            .take(clients)
            .map(|tracer| {
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let now = Instant::now();
                        if now >= deadline {
                            return mine;
                        }
                        let id = next_id.fetch_add(1, Ordering::Relaxed);
                        let job = Job {
                            req: request(seed, id, w.programs.len()),
                            due: now,
                            sent: now,
                        };
                        let d = serve_one(rt, w, job, now, clients == 1);
                        if spans_on && tracer.enabled() {
                            add_spans(tracer, &d, false);
                        }
                        mine.push(d);
                    }
                })
            })
            .collect();
        for h in handles {
            done.extend(h.join().expect("client thread panicked"));
        }
    });
    let rps = done.len() as f64 / start.elapsed().as_secs_f64();
    (done, rps)
}

/// Latency percentiles of one open-loop segment and whether it kept up.
struct SegmentStats {
    p50_us: f64,
    p99_us: f64,
    /// Where the latency went: waiting in the queue, being served, and how
    /// late the generator itself sent.
    wait_p50_us: f64,
    wait_p99_us: f64,
    service_p50_us: f64,
    self_p50_us: f64,
    late_p99_us: f64,
    backlog_end: f64,
    completed_share: f64,
    backlog_first: f64,
    backlog_last: f64,
    failed: u64,
    keeps_up: bool,
}

fn us(ns: Option<u64>) -> f64 {
    ns.map_or(0.0, |n| n as f64 / 1e3)
}

/// Mean backlog (sent, not yet done) over `[from, to)`, sampled every 5 ms.
fn mean_backlog(seg: &Segment, from: Instant, to: Instant) -> f64 {
    let step = Duration::from_millis(5);
    let (mut t, mut sum, mut n) = (from, 0.0, 0u32);
    while t < to {
        sum += seg
            .done
            .iter()
            .filter(|d| d.sent <= t && d.done > t)
            .count() as f64;
        n += 1;
        t += step;
    }
    sum / n.max(1) as f64
}

fn segment_stats(seg: &Segment, workers: usize) -> SegmentStats {
    let mut lat: Vec<u64> = seg
        .done
        .iter()
        .filter(|d| d.checksum.is_some())
        .map(|d| (d.done - d.due).as_nanos() as u64)
        .collect();
    lat.sort_unstable();
    let failed = seg.rejected + seg.done.iter().filter(|d| d.checksum.is_none()).count() as u64;
    let by_end = seg
        .done
        .iter()
        .filter(|d| d.checksum.is_some() && d.done <= seg.end)
        .count();
    let third = (seg.end - seg.start) / 3;
    let backlog_first = mean_backlog(seg, seg.start, seg.start + third);
    let backlog_last = mean_backlog(seg, seg.end - third, seg.end);
    let p99 = percentile(&lat, 0.99);
    let of = |f: &dyn Fn(&Done) -> u64| sorted(seg.done.iter().map(f).collect());
    let wait = of(&|d| (d.deq - d.sent).as_nanos() as u64);
    let service = of(&|d| d.service_ns());
    let late = of(&|d| (d.sent - d.due).as_nanos() as u64);
    let run_self = of(&|d| d.service_ns().saturating_sub(d.kernel_ns()));
    let completed_share = by_end as f64 / seg.scheduled.max(1) as f64;
    SegmentStats {
        p50_us: us(median_sorted(&lat)),
        p99_us: us(p99),
        wait_p50_us: us(median_sorted(&wait)),
        wait_p99_us: us(percentile(&wait, 0.99)),
        service_p50_us: us(median_sorted(&service)),
        self_p50_us: us(median_sorted(&run_self)),
        late_p99_us: us(percentile(&late, 0.99)),
        backlog_end: seg
            .done
            .iter()
            .filter(|d| d.sent <= seg.end && d.done > seg.end)
            .count() as f64,
        completed_share,
        backlog_first,
        backlog_last,
        failed,
        // A failed or refused request misses the limit by definition. The
        // backlog may wander, not grow: "larger" allows the requests in
        // service plus a doubling of a small early queue.
        keeps_up: failed == 0
            && p99.is_some_and(|p| p as f64 / 1e3 <= SERVE_P99_LIMIT_US)
            && completed_share >= 0.99
            && backlog_last <= 2.0 * backlog_first + workers as f64,
    }
}

struct Runtimes {
    seq: SeqRuntime,
    hh1: HhRuntime,
    hhp: HhRuntime,
}

fn new_tracers(enabled: bool, origin: Instant, n: usize) -> Vec<Tracer> {
    (0..n.max(1))
        .map(|t| Tracer::new(enabled, origin, t as u32))
        .collect()
}

/// Ids of requests outside the measured stream (which counts up from 0).
const WARMUP_IDS: u64 = u64::MAX / 2;

/// Builds the three runtimes and warms them: every program a few times on
/// each, sequentially, then concurrently on the shared one.
fn set_up(w: &Workload, seed: u64, workers: usize, checks: &mut Checks) -> Runtimes {
    let rts = Runtimes {
        seq: SeqRuntime::new(),
        hh1: HhRuntime::with_workers(1),
        hhp: HhRuntime::with_workers(workers),
    };
    let n = w.programs.len();
    fn once<R: Runtime>(rt: &R, w: &Workload, req: Request) -> Option<u64> {
        let now = Instant::now();
        let job = Job {
            req,
            due: now,
            sent: now,
        };
        serve_one(rt, w, job, now, false).checksum
    }
    for k in 0..(WARMUP_REQUESTS * n) as u64 {
        let req = request(seed, WARMUP_IDS + k, n);
        let sums = [
            once(&rts.seq, w, req),
            once(&rts.hh1, w, req),
            once(&rts.hhp, w, req),
        ];
        checks.expect(
            sums[0].is_some() && sums[0] == sums[1] && sums[0] == sums[2],
            || format!("warm-up request {k}: seq, t1, tp = {sums:x?}"),
        );
    }
    let ids = AtomicU64::new(WARMUP_IDS + (WARMUP_REQUESTS * n) as u64);
    let mut off = new_tracers(false, Instant::now(), workers);
    let warm = Duration::from_millis(200);
    let (done, _) = closed_slice(&rts.hhp, w, seed, &ids, workers, warm, &mut off, false);
    checks.expect(done.iter().all(|d| d.checksum.is_some()), || {
        "concurrent warm-up: a request failed".to_string()
    });
    rts
}

fn footprint(rt: &HhRuntime) -> f64 {
    let s = rt.stats();
    (s.live_words + s.free_words + s.quarantine_lag_words) as f64
}

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

/// Indices of the "mid" (r2) and "hi" (r4) rates in [`SERVE_RATES_RPS`].
const MID: usize = 1;
const HI: usize = 3;

const P50: [&str; 5] = [
    "server.lat_r1_p50_us",
    "server.lat_r2_p50_us",
    "server.lat_r3_p50_us",
    "server.lat_r4_p50_us",
    "server.lat_r5_p50_us",
];
const P99: [&str; 5] = [
    "server.lat_r1_p99_us",
    "server.lat_r2_p99_us",
    "server.lat_r3_p99_us",
    "server.lat_r4_p99_us",
    "server.lat_r5_p99_us",
];
const BACKLOG: [&str; 5] = [
    "server.backlog_end_r1",
    "server.backlog_end_r2",
    "server.backlog_end_r3",
    "server.backlog_end_r4",
    "server.backlog_end_r5",
];

pub fn run(w: &Workload, opts: &RunOpts) -> Measured {
    let process_start = Instant::now();
    let workers = host::workers();
    let mut checks = Checks::default();
    let n_prog = w.programs.len();

    let (rts, setup_s) = repeat_set_up(|| set_up(w, opts.seed, workers, &mut checks));
    rts.hhp.reset_stats();
    let before = rts.hhp.stats();

    let mut tracers = new_tracers(opts.trace, process_start, workers);
    // Everything served, for the correctness pass at the end.
    let mut all: Vec<Done> = Vec::new();
    let mut peak_footprint = footprint(&rts.hhp);

    // Open loop: half the time, five rates, rising.
    let seg_dur = Duration::from_secs_f64(opts.seconds * 0.5 / SERVE_RATES_RPS.len() as f64);
    let mut next_id = 0u64;
    let mut segs: Vec<(f64, usize, SegmentStats)> = Vec::new();
    for &rate in &SERVE_RATES_RPS {
        let mut seg = open_segment(
            &rts.hhp,
            w,
            opts.seed,
            next_id,
            rate,
            seg_dur,
            workers,
            &mut tracers,
        );
        next_id += seg.scheduled as u64;
        peak_footprint = peak_footprint.max(footprint(&rts.hhp));
        checks.attempted += seg.rejected;
        checks.failed += seg.rejected;
        segs.push((rate, seg.scheduled, segment_stats(&seg, workers)));
        all.append(&mut seg.done);
    }
    let open_requests = all.len();

    // Closed loop: the other half, rounds of four slices, rotated: `seq`, `t1`
    // and `tp` with one client each (a request with nothing else in flight),
    // then the shared runtime saturated by P clients.
    let slice = Duration::from_secs_f64(opts.seconds * 0.5 / (SLICES * ROUNDS) as f64);
    let ids = AtomicU64::new(next_id);
    let mut by_rt: [Vec<Done>; SLICES] = Default::default();
    let mut tp_rps: Vec<(bool, f64)> = Vec::new();
    // Median service time of each one-client `tp` slice, with and without
    // spans: the reproducible side of the closed loop carries the overhead.
    let mut tp_slice_ns: Vec<(bool, f64)> = Vec::new();
    for round in 0..ROUNDS {
        // Traced runs record spans on every other round; the rest are the
        // baseline of `bench.trace_overhead` and the source of `closed_rps`.
        let spans_on = opts.trace && round.is_multiple_of(2);
        for k in 0..SLICES {
            let which = (round + k) % SLICES;
            let t = &mut tracers;
            let (done, rps) = match which {
                0 => closed_slice(&rts.seq, w, opts.seed, &ids, 1, slice, t, spans_on),
                1 => closed_slice(&rts.hh1, w, opts.seed, &ids, 1, slice, t, spans_on),
                2 => closed_slice(&rts.hhp, w, opts.seed, &ids, 1, slice, t, spans_on),
                _ => closed_slice(&rts.hhp, w, opts.seed, &ids, workers, slice, t, spans_on),
            };
            if which == SATURATED {
                tp_rps.push((spans_on, rps));
            } else if which == 2 {
                let ns: Vec<f64> = done.iter().map(|d| d.service_ns() as f64).collect();
                tp_slice_ns.push((spans_on, median(&ns).unwrap_or(f64::NAN)));
            }
            if which >= 2 {
                peak_footprint = peak_footprint.max(footprint(&rts.hhp));
            }
            by_rt[which].extend(done);
        }
    }
    let after = rts.hhp.stats();
    let hhp_requests = (open_requests + by_rt[2].len() + by_rt[SATURATED].len()).max(1) as f64;

    // Per request program: median time (ms) of the requests that completed.
    let per_prog_of = |src: &[Done], ns: fn(&Done) -> u64| -> Vec<f64> {
        (0..n_prog)
            .map(|p| {
                let ns: Vec<f64> = src
                    .iter()
                    .filter(|d| d.req.prog == p && d.checksum.is_some())
                    .map(|d| ns(d) as f64)
                    .collect();
                median(&ns).unwrap_or(f64::NAN) / 1e6
            })
            .collect()
    };
    let per_prog = |src: &[Done]| per_prog_of(src, Done::kernel_ns);

    // Traced run only: the same closed load on the incremental collector
    // (`epoch-inc`), and the request mix on the two other parallel runtimes
    // with one client (they are context for T_P, not multi-tenant servers).
    let mut context: Vec<(&'static str, f64)> = Vec::new();
    if opts.trace {
        let mut off = new_tracers(false, process_start, workers);
        let warm_ids = AtomicU64::new(WARMUP_IDS / 2);
        // One longer slice each, after a warm-up of a quarter of it.
        let long = Duration::from_secs_f64(opts.seconds / 32.0);
        let warm = long / 4;
        let inc = HhRuntime::new(HhConfig::incremental(workers));
        closed_slice(
            &inc, w, opts.seed, &warm_ids, workers, warm, &mut off, false,
        );
        let (done, rps) = closed_slice(&inc, w, opts.seed, &ids, workers, long, &mut off, false);
        context.push(("server.closed_rps_inc", rps));
        all.extend(done);
        checks.expect(verify_quiescent(&inc).is_ok(), || {
            "epoch-inc runtime not quiescent after serve".to_string()
        });
        let stw = StwRuntime::with_workers(workers);
        closed_slice(&stw, w, opts.seed, &warm_ids, 1, warm, &mut off, false);
        let (done, _) = closed_slice(&stw, w, opts.seed, &ids, 1, long / 2, &mut off, false);
        context.push((
            "baselines.stw_tp_ms",
            geomean(&per_prog(&done)).unwrap_or(f64::NAN),
        ));
        all.extend(done);
        let dlg = DlgRuntime::with_workers(workers);
        closed_slice(&dlg, w, opts.seed, &warm_ids, 1, warm, &mut off, false);
        let (done, _) = closed_slice(&dlg, w, opts.seed, &ids, 1, long / 2, &mut off, false);
        context.push((
            "baselines.dlg_tp_ms",
            geomean(&per_prog(&done)).unwrap_or(f64::NAN),
        ));
        all.extend(done);
    }

    let [ts, t1, tp] = [&by_rt[0], &by_rt[1], &by_rt[2]].map(|src| per_prog(src));
    let tp_saturated = per_prog(&by_rt[SATURATED]);
    let [t1_service, tp_service] =
        [&by_rt[1], &by_rt[2]].map(|src| per_prog_of(src, Done::service_ns));
    // Footprint when the kernel returns, one request in flight: per-program
    // medians, as on the batch workloads.
    let footprint_of = |src: &[Done]| -> Vec<f64> {
        (0..n_prog)
            .map(|p| {
                let words: Vec<f64> = src
                    .iter()
                    .filter(|d| d.req.prog == p)
                    .filter_map(|d| d.live_words.map(|w| w as f64))
                    .collect();
                median(&words).unwrap_or(f64::NAN)
            })
            .collect()
    };
    let footprints = [footprint_of(&by_rt[0]), footprint_of(&by_rt[2])];

    let closed_samples = by_rt.iter().map(Vec::len).collect::<Vec<_>>();
    for src in by_rt.iter_mut() {
        all.append(src);
    }

    // Correctness: every request completed; a seeded sample recomputed on a
    // sequential runtime; both shared runtimes quiescent and disentangled.
    let oracle = SeqRuntime::new();
    for d in &all {
        let (prog, n) = w.programs[d.req.prog];
        let Some(got) = d.checksum else {
            checks.fail(format!("request {} ({}) failed", d.req.id, prog.name()));
            continue;
        };
        if hash64(d.req.seed).is_multiple_of(VERIFY_ONE_IN) {
            let want = oracle
                .run(|ctx| programs::execute(ctx, prog, n, d.req.seed, || (), || ()).checksum);
            checks.expect(got == want, || {
                format!(
                    "request {} ({}): {got:#x}, SeqRuntime {want:#x}",
                    d.req.id,
                    prog.name()
                )
            });
        } else {
            checks.pass();
        }
    }
    for (name, rt) in [("t1", &rts.hh1), ("tp", &rts.hhp)] {
        match verify_quiescent(rt) {
            Ok(()) => checks.pass(),
            Err(v) => checks.fail(format!("{name} runtime after serve: {}", v.reason)),
        }
    }

    let mut tracer = Tracer::new(opts.trace, process_start, 0);
    for t in tracers {
        tracer.merge(t);
    }
    let mut m = Measured::new(checks, tracer);

    let ratio_geo = |a: &[f64], b: &[f64]| -> f64 {
        geomean(&a.iter().zip(b).map(|(x, y)| x / y).collect::<Vec<_>>()).unwrap_or(f64::NAN)
    };
    m.set("setup_s", setup_s);
    m.set("tp_ms", geomean(&tp).unwrap_or(f64::NAN));
    m.set("t1_ms", geomean(&t1).unwrap_or(f64::NAN));
    m.set("baselines.ts_ms", geomean(&ts).unwrap_or(f64::NAN));
    m.set("overhead", ratio_geo(&t1, &ts));
    m.set("speedup", ratio_geo(&ts, &tp));
    m.set("mem_inflation", ratio_geo(&footprints[1], &footprints[0]));
    // `closed_rps` comes from the slices recorded without spans.
    let of = |pairs: &[(bool, f64)], on: bool| -> Option<f64> {
        let picked: Vec<f64> = pairs.iter().filter(|p| p.0 == on).map(|p| p.1).collect();
        median(&picked)
    };
    m.set("closed_rps", of(&tp_rps, false).unwrap_or(f64::NAN));
    if let (Some(t), Some(u)) = (of(&tp_slice_ns, true), of(&tp_slice_ns, false)) {
        m.set("bench.trace_overhead", t / u);
    }
    for (name, v) in context {
        m.set(name, v);
    }

    let mut max_rate = 0.0f64;
    for (i, (rate, _, st)) in segs.iter().enumerate() {
        m.set(P50[i], st.p50_us);
        m.set(P99[i], st.p99_us);
        m.set(BACKLOG[i], st.backlog_end);
        if st.keeps_up {
            max_rate = max_rate.max(*rate);
        }
    }
    m.set("lat_mid_p50_us", segs[MID].2.p50_us);
    m.set("lat_mid_p99_us", segs[MID].2.p99_us);
    m.set("lat_hi_p99_us", segs[HI].2.p99_us);
    m.set("max_rate_rps", max_rate);
    // Where the mid-rate latency goes, and how late the generator itself ran
    // there (it, not the scheduler, must set the load; the rows carry every
    // rate's lateness).
    m.set("server.queue_wait_p50_us", segs[MID].2.wait_p50_us);
    m.set("server.queue_wait_p99_us", segs[MID].2.wait_p99_us);
    m.set("server.run_self_p50_us", segs[MID].2.self_p50_us);
    let late = segs
        .iter()
        .map(|(_, _, st)| st.late_p99_us)
        .fold(0.0, f64::max);
    m.set("server.gen_late_p99_us", late);
    m.set("server.footprint_peak_words", peak_footprint);

    // Store and scheduler counts of the shared runtime over the measured phase.
    let created = (after.chunks_created - before.chunks_created) as f64;
    let recycled = (after.chunks_recycled - before.chunks_recycled) as f64;
    let hits = (after.alloc_cache_hits - before.alloc_cache_hits) as f64;
    let handouts = (created + recycled).max(1.0);
    m.set("objmodel.chunks_created", created);
    m.set("objmodel.chunks_recycled", recycled);
    m.set("objmodel.recycle_rate", recycled / handouts);
    m.set("objmodel.alloc_cache_hit_rate", hits / handouts);
    m.set(
        "objmodel.epoch_reclaims",
        (after.epoch_reclaims - before.epoch_reclaims) as f64,
    );
    m.set(
        "objmodel.quarantine_lag_words",
        after.quarantine_lag_words as f64,
    );
    m.set("heaps.created", after.heaps_created as f64);
    m.set("heaps.elided", after.heaps_elided as f64);
    let forks = (after.heaps_created + after.heaps_elided).max(1) as f64;
    m.set("heaps.elide_rate", after.heaps_elided as f64 / forks);
    m.set("sched.steals", after.sched_steals as f64);
    m.set(
        "sched.parks",
        after.sched_parks.saturating_sub(before.sched_parks) as f64,
    );
    m.set(
        "sched.wakes",
        after.sched_wakes.saturating_sub(before.sched_wakes) as f64,
    );
    // Operation counts, scaled to one request of each program so they sit
    // beside Σ T_P the way a batch workload's per-rep counts do.
    let per_mix = n_prog as f64 / hhp_requests;
    for (name, total) in [
        ("core.allocated_words", after.allocated_words),
        ("core.promotions", after.promotions),
        ("core.promoted_objects", after.promoted_objects),
        ("core.promoted_words", after.promoted_words),
        ("core.fwd_hops", after.fwd_hops),
        ("core.fwd_compressions", after.fwd_compressions),
        ("core.bulk_ops", after.bulk_ops),
        ("core.bulk_words", after.bulk_words),
        ("core.gc_count", after.gc_count),
        ("core.gc_copied_words", after.gc_copied_words),
        ("core.gc_increments", after.gc_increments),
        ("core.gc_pause_count", after.gc_pause_count),
    ] {
        m.set(name, total as f64 * per_mix);
    }
    m.set("core.peak_live_words", after.peak_live_words as f64);
    m.set("core.gc_pause_p999_us", after.gc_pause_p999_ns as f64 / 1e3);
    m.set("core.gc_pause_max_us", after.gc_max_pause_ns as f64 / 1e3);
    m.runs_per_tp = n_prog as f64;
    m.tp_worker_ns = workers as f64 * tp.iter().sum::<f64>() * 1e6;

    let program_rows = w.programs.iter().enumerate().map(|(p, (prog, n))| {
        Json::obj([
            ("row", Json::str(prog.name())),
            ("n", Json::from(*n)),
            ("ts_ms", Json::Num(ts[p])),
            ("t1_ms", Json::Num(t1[p])),
            ("tp_ms", Json::Num(tp[p])),
            ("tp_saturated_ms", Json::Num(tp_saturated[p])),
            ("t1_service_ms", Json::Num(t1_service[p])),
            ("tp_service_ms", Json::Num(tp_service[p])),
        ])
    });
    let rate_rows = segs.iter().map(|(rate, scheduled, st)| {
        Json::obj([
            ("row", Json::str(format!("open@{rate}"))),
            ("rate_rps", Json::Num(*rate)),
            ("scheduled", Json::from(*scheduled)),
            ("failed", Json::from(st.failed)),
            ("p50_us", Json::Num(st.p50_us)),
            ("p99_us", Json::Num(st.p99_us)),
            ("queue_wait_p50_us", Json::Num(st.wait_p50_us)),
            ("service_p50_us", Json::Num(st.service_p50_us)),
            ("gen_late_p99_us", Json::Num(st.late_p99_us)),
            ("completed_share", Json::Num(st.completed_share)),
            ("backlog_first", Json::Num(st.backlog_first)),
            ("backlog_last", Json::Num(st.backlog_last)),
            ("backlog_end", Json::Num(st.backlog_end)),
            ("keeps_up", Json::Bool(st.keeps_up)),
        ])
    });
    m.rows = Json::Arr(program_rows.chain(rate_rows).collect());
    m.sampling = Json::obj([
        (
            "method",
            Json::str(
                "open loop: latency from intended send time; closed loop: per-program median \
                 kernel time, geomean over programs",
            ),
        ),
        ("open_segment_s", Json::Num(seg_dur.as_secs_f64())),
        (
            "open_rates_rps",
            Json::Arr(SERVE_RATES_RPS.iter().map(|&r| Json::Num(r)).collect()),
        ),
        ("p99_limit_us", Json::Num(SERVE_P99_LIMIT_US)),
        ("closed_rounds", Json::from(ROUNDS)),
        ("closed_slice_s", Json::Num(slice.as_secs_f64())),
        (
            "closed_samples_seq_t1_tp_saturated",
            Json::Arr(closed_samples.iter().map(|&n| Json::from(n)).collect()),
        ),
        (
            "closed_slice_rps_tp",
            Json::Arr(tp_rps.iter().map(|&(_, r)| Json::Num(r.round())).collect()),
        ),
        ("clients", Json::from(workers)),
        ("executors", Json::from(workers)),
        ("warmup_requests_per_program", Json::from(WARMUP_REQUESTS)),
        ("setup_repeats", Json::from(SETUP_REPEATS)),
        ("verified_one_in", Json::from(VERIFY_ONE_IN)),
    ]);
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema;

    #[test]
    fn the_open_loop_schedule_is_a_function_of_the_seed() {
        let d = Duration::from_millis(500);
        let a = schedule(7, 1000.0, d);
        assert_eq!(a, schedule(7, 1000.0, d));
        assert_ne!(a, schedule(8, 1000.0, d));
        assert_ne!(a, schedule(7, 1100.0, d), "each rate has its own stream");
        assert!(a.windows(2).all(|w| w[0] <= w[1]) && *a.last().unwrap() < d.as_nanos() as u64);
        // ~500 arrivals; a Poisson count is within 5 sigma of its mean.
        assert!((388..=612).contains(&a.len()), "{} arrivals", a.len());
        // Exponential gaps: the mean gap is 1/rate.
        let mean_gap = *a.last().unwrap() as f64 / a.len() as f64;
        assert!((0.8e6..1.25e6).contains(&mean_gap));
    }

    #[test]
    fn the_request_stream_is_deterministic_and_mixes_all_programs() {
        let reqs: Vec<Request> = (0..500).map(|i| request(3, i, 5)).collect();
        assert_eq!(reqs[17], request(3, 17, 5));
        assert_ne!(reqs[17].seed, request(4, 17, 5).seed);
        for p in 0..5 {
            let share = reqs.iter().filter(|r| r.prog == p).count();
            assert!((50..=150).contains(&share), "program {p}: {share} of 500");
        }
    }

    #[test]
    fn a_segment_that_falls_behind_does_not_keep_up() {
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        let mk = |i: u64, sent: u64, done: u64| Done {
            req: request(1, i, 5),
            due: t0 + ms(sent),
            sent: t0 + ms(sent),
            deq: t0 + ms(sent),
            kernel: None,
            done: t0 + ms(done),
            checksum: Some(0),
            live_words: None,
        };
        // 300 requests, 1 per ms; served in 1 ms each: no backlog.
        let healthy = Segment {
            start: t0,
            end: t0 + ms(300),
            scheduled: 300,
            rejected: 0,
            done: (0..300).map(|i| mk(i, i, i + 1)).collect(),
        };
        let st = segment_stats(&healthy, 2);
        assert!(
            st.keeps_up,
            "p99 {} share {}",
            st.p99_us, st.completed_share
        );
        assert_eq!(
            (st.p50_us, st.p99_us, st.service_p50_us),
            (1000.0, 1000.0, 1000.0)
        );
        // Same arrivals, service at half the rate: the queue grows all along.
        let behind = Segment {
            done: (0..300).map(|i| mk(i, i, 2 * i + 2)).collect(),
            ..healthy
        };
        let st = segment_stats(&behind, 2);
        assert!(!st.keeps_up);
        assert!(st.backlog_last > st.backlog_first && st.completed_share < 0.99);
        // A refusal alone disqualifies a rate.
        let refused = Segment {
            start: t0,
            end: t0 + ms(300),
            scheduled: 300,
            rejected: 1,
            done: (0..299).map(|i| mk(i, i, i + 1)).collect(),
        };
        assert!(!segment_stats(&refused, 2).keeps_up);
    }

    #[test]
    fn a_closed_slice_serves_correct_results_on_every_runtime() {
        let w = schema::workload("serve").unwrap();
        let ids = AtomicU64::new(0);
        let mut tracers = vec![
            Tracer::new(true, Instant::now(), 0),
            Tracer::new(true, Instant::now(), 1),
        ];
        let hh = HhRuntime::with_workers(2);
        let (done, rps) = closed_slice(
            &hh,
            w,
            9,
            &ids,
            2,
            Duration::from_millis(60),
            &mut tracers,
            true,
        );
        assert!(rps > 0.0 && !done.is_empty());
        let seq = SeqRuntime::new();
        for d in done.iter().take(20) {
            let (prog, n) = w.programs[d.req.prog];
            let want =
                seq.run(|c| programs::execute(c, prog, n, d.req.seed, || (), || ()).checksum);
            assert_eq!(d.checksum, Some(want), "{}", prog.name());
        }
        assert!(verify_quiescent(&hh).is_ok());
        // request -> run -> kernel, three spans per request.
        let spans: usize = tracers.iter().map(|t| t.spans.len()).sum();
        assert_eq!(spans, 3 * done.len());
    }
}
