//! `serve` — drive overlapping independent runs against one shared runtime and
//! report throughput, latency percentiles, and memory-reclamation behavior.
//!
//! ```text
//! serve [--runs N] [--clients C] [--executors E] [--workers W] [--queue-cap Q]
//!       [--seed S] [--scale K] [--gc-threshold WORDS]
//!       [--mode epoch|epoch-inc|all]
//!       [--runtime parmem|seq|stw|dlg] [--workload NAME] [--json PATH]
//!       [--faults PPM] [--deadline-ms MS] [--max-attempts N] [--backoff-us US]
//!       [--shed-inflight N]
//! ```
//!
//! `--mode epoch` (the default for parmem) runs the epoch-reclamation runtime.
//! `epoch-inc` is the same runtime with incremental collection (GC v3) enabled —
//! one tenant's collection no longer pauses for its whole live set, which shows
//! up in the tail of every other tenant's latency; `all` runs both shapes back to
//! back under the identical load. `--json PATH` appends one JSON object per mode
//! (machine-readable, for CI artifacts).
//! `--gc-threshold` lowers the per-heap collection threshold (parmem only) so a
//! large-live-set tenant mix actually collects mid-run — the configuration the
//! epoch vs epoch-inc p999 contrast is measured under. `--workload NAME` pins
//! every request to one registry workload (e.g. `wavefront`, `entangle`) instead
//! of the default mutator mix; unknown names are rejected with the list of valid
//! ids.
//!
//! The failure-model flags (DESIGN.md §13): `--faults PPM` installs a seeded
//! fault plan on the parmem runtime (per-hook-site panic probability in parts
//! per million) — runs it kills are retried up to `--max-attempts` times with
//! `--backoff-us`-jittered backoff, and the report's `requested` vs `runs`
//! (completed) gap plus the abort/retry/failed counters become the partial
//! result. `--deadline-ms` gives every run a cooperative deadline polled at
//! safe points; `--shed-inflight N` turns on admission control (clients shed
//! new requests while ≥ N runs are in flight, counted as `rejected`).

use hh_baselines::{DlgRuntime, SeqRuntime, StwRuntime};
use hh_runtime::{FaultPlan, GcScheduleHooks, HhConfig, HhRuntime, Runtime};
use hh_server::{serve, verify_quiescent, ServeConfig, ServeReport};
use hh_workloads::ServeWorkloadId;
use std::io::Write;
use std::sync::Arc;

fn usage() -> ! {
    let names: Vec<&str> = ServeWorkloadId::ALL.iter().map(|w| w.name()).collect();
    eprintln!(
        "usage: serve [--runs N] [--clients C] [--executors E] [--workers W] \
         [--queue-cap Q] [--seed S] [--scale K] [--gc-threshold WORDS] \
         [--mode epoch|epoch-inc|all] \
         [--runtime parmem|seq|stw|dlg] [--workload {}] [--json PATH] \
         [--faults PPM] [--deadline-ms MS] [--max-attempts N] [--backoff-us US] \
         [--shed-inflight N]",
        names.join("|")
    );
    std::process::exit(2);
}

fn print_report(r: &ServeReport) {
    let us = |ns: u64| ns as f64 / 1e3;
    println!(
        "{:<8} {:<8} {:>6} runs  {:>9.1} runs/s  p50 {:>8.1}us  p99 {:>8.1}us  \
         p999 {:>8.1}us  max {:>8.1}us",
        r.runtime,
        r.mode,
        r.runs,
        r.throughput_rps,
        us(r.latency.p50_ns),
        us(r.latency.p99_ns),
        us(r.latency.p999_ns),
        us(r.latency.max_ns),
    );
    if r.requested != r.runs || r.aborted > 0 || r.rejected > 0 {
        println!(
            "{:<17} requested {:>6}  completed {:>6}  aborted {:>4}  retried {:>4}  \
             rejected {:>4}  deadline {:>4}  failed {:>4}",
            "", r.requested, r.runs, r.aborted, r.retried, r.rejected, r.deadline_hits, r.failed,
        );
    }
    println!(
        "{:<17} recycle {:>5.1}%  created {:>6}  recycled {:>8}  epoch-reclaims {:>8}  \
         overlap-peak {:>3}  quarantine {:>9} w  peak-footprint {:>10} w",
        "",
        100.0 * r.recycle_rate(),
        r.stats.chunks_created,
        r.stats.chunks_recycled,
        r.stats.epoch_reclaims,
        r.stats.active_runs_peak,
        r.stats.quarantine_lag_words,
        r.peak_footprint_words,
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = ServeConfig::default();
    let mut workers = 2usize;
    let mut mode = String::from("epoch");
    let mut runtime = String::from("parmem");
    let mut json_path: Option<String> = None;
    let mut gc_threshold: Option<usize> = None;
    let mut faults_ppm: u32 = 0;
    let mut i = 0;
    while i < args.len() {
        let val = |i: usize| args.get(i + 1).cloned().unwrap_or_else(|| usage());
        let num = |i: usize| val(i).parse::<usize>().unwrap_or_else(|_| usage());
        match args[i].as_str() {
            "--runs" => cfg.runs = num(i),
            "--clients" => cfg.clients = num(i),
            "--executors" => cfg.executors = num(i),
            "--workers" => workers = num(i),
            "--queue-cap" => cfg.queue_cap = num(i),
            "--seed" => cfg.seed = val(i).parse().unwrap_or_else(|_| usage()),
            "--scale" => cfg.scale = num(i),
            "--gc-threshold" => gc_threshold = Some(num(i)),
            "--mode" => mode = val(i),
            "--runtime" => runtime = val(i),
            "--workload" => {
                let name = val(i);
                cfg.workload = Some(ServeWorkloadId::from_name(&name).unwrap_or_else(|| {
                    eprintln!("unknown workload {name:?}");
                    usage()
                }));
            }
            "--json" => json_path = Some(val(i)),
            "--faults" => faults_ppm = val(i).parse().unwrap_or_else(|_| usage()),
            "--deadline-ms" => cfg.deadline_ms = Some(num(i) as u64),
            "--max-attempts" => cfg.max_attempts = val(i).parse().unwrap_or_else(|_| usage()),
            "--backoff-us" => cfg.backoff_us = num(i) as u64,
            "--shed-inflight" => cfg.shed_inflight = Some(num(i)),
            _ => usage(),
        }
        i += 2;
    }

    if faults_ppm > 0 && runtime != "parmem" {
        eprintln!(
            "note: --faults installs hooks on the parmem runtime only; ignored for {runtime}"
        );
    }

    println!(
        "# serve — {} runs, {} clients -> queue({}) -> {} executors on {} pool workers, \
         scale {}, seed {}\n",
        cfg.runs, cfg.clients, cfg.queue_cap, cfg.executors, workers, cfg.scale, cfg.seed
    );

    let mut reports: Vec<ServeReport> = Vec::new();
    match runtime.as_str() {
        "parmem" => {
            if !matches!(mode.as_str(), "epoch" | "epoch-inc" | "all") {
                usage();
            }
            type ConfigCtor = fn(usize) -> HhConfig;
            let shapes: [(&str, ConfigCtor); 2] = [
                ("epoch", HhConfig::with_workers),
                ("epoch-inc", HhConfig::incremental),
            ];
            for (label, config) in shapes {
                if mode != "all" && mode != label {
                    continue;
                }
                let mut hh_cfg = config(workers);
                if let Some(t) = gc_threshold {
                    hh_cfg.gc_threshold_words = t;
                }
                let rt = HhRuntime::new(hh_cfg);
                let plan = (faults_ppm > 0).then(|| {
                    hh_api::silence_expected_aborts();
                    let p = Arc::new(FaultPlan::uniform(cfg.seed ^ 0xFA17_5EED, faults_ppm));
                    rt.install_gc_hooks(Arc::clone(&p) as Arc<dyn GcScheduleHooks>);
                    p
                });
                let report = serve(&rt, &cfg, label);
                if let Some(p) = &plan {
                    p.set_armed(false);
                    let stats = rt.stats();
                    println!(
                        "{:<17} faults {faults_ppm} ppm: injected {}  run-aborts {}  \
                         finalize-rescues {}",
                        "",
                        p.injected_total(),
                        stats.runs_aborted,
                        stats.gc_finalize_rescues,
                    );
                }
                if let Err(e) = verify_quiescent(&rt) {
                    // Human-readable forensics on stderr, one machine-readable
                    // JSON line on stdout (and into `$HH_VIOLATION_JSON` /
                    // `--json` when set) so CI can archive the failure with the
                    // replay seed even when the log scrolls away.
                    eprintln!("INVARIANT VIOLATION ({label}): {e}");
                    let line = e.to_json(&cfg, label);
                    println!("{line}");
                    let mut sinks: Vec<String> = json_path.iter().cloned().collect();
                    if let Ok(p) = std::env::var("HH_VIOLATION_JSON") {
                        if !p.is_empty() && !sinks.contains(&p) {
                            sinks.push(p);
                        }
                    }
                    for path in sinks {
                        match std::fs::OpenOptions::new()
                            .create(true)
                            .append(true)
                            .open(&path)
                        {
                            Ok(mut out) => {
                                let _ = writeln!(out, "{line}");
                            }
                            Err(err) => eprintln!("cannot open {path}: {err}"),
                        }
                    }
                    std::process::exit(1);
                }
                print_report(&report);
                reports.push(report);
            }
        }
        // The baselines have no per-run heap trees; they dispose at global
        // quiescence by construction, so there is exactly one mode.
        "seq" => {
            let rt = SeqRuntime::new();
            let report = serve(&rt, &cfg, "quiescent");
            print_report(&report);
            reports.push(report);
        }
        "stw" => {
            let rt = StwRuntime::with_workers(workers);
            let report = serve(&rt, &cfg, "quiescent");
            print_report(&report);
            reports.push(report);
        }
        "dlg" => {
            let rt = DlgRuntime::with_workers(workers);
            let report = serve(&rt, &cfg, "quiescent");
            print_report(&report);
            reports.push(report);
        }
        _ => usage(),
    }

    if let Some(path) = json_path {
        let mut out = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .unwrap_or_else(|e| {
                eprintln!("cannot open {path}: {e}");
                std::process::exit(1);
            });
        for r in &reports {
            writeln!(out, "{}", r.to_json()).expect("writing JSON report");
        }
        println!("\nwrote {} JSON record(s) to {path}", reports.len());
    }
}
