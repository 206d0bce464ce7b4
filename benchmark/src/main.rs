//! `hhbench` — the repository benchmark.
//!
//! ```text
//! hhbench run --workload <name> --seed <u64> [--seconds <s>] [--trace <0|1|PATH>]
//!             [--smoke] [--out RUNS.jsonl]
//! hhbench compare A.jsonl B.jsonl
//! hhbench stability --sets <N> [--seed <u64>] [--seconds <s>] [--smoke]
//!             [--out SUMMARY.json] [--runs RUNS.jsonl]
//! hhbench schema            # prints BENCHMARK.json from src/schema.rs
//! ```
//!
//! `run` prints every metric by name with its unit, checks outputs, and ends
//! its standard output with the driver's one-line JSON result. Everything is
//! measured from outside: this package generates inputs from the seed, calls
//! the crates' public functions, and times those calls. See `README.md`.

mod batch;
mod compare;
mod host;
mod json;
mod probes;
mod programs;
mod report;
mod schema;
mod serve;
mod stats;
mod trace;

use json::Json;
use report::{Measured, RunOpts};
use schema::{Kind, Workload};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage:
  hhbench run --workload <pure|imperative|promote|gc|serve> --seed <u64>
              [--seconds <s>] [--trace <0|1|PATH>] [--smoke] [--out RUNS.jsonl]
  hhbench compare A.jsonl B.jsonl
  hhbench stability --sets <N> [--seed <u64>] [--seconds <s>] [--smoke]
              [--out SUMMARY.json] [--runs RUNS.jsonl]
  hhbench schema";

/// Seconds one run measures when `--seconds` is absent (`run_seconds` of
/// `BENCHMARK.json`), and under `--smoke`.
const DEFAULT_SECONDS: f64 = 20.0;
const SMOKE_SECONDS: f64 = 1.5;

struct RunArgs {
    workload: &'static Workload,
    opts: RunOpts,
    /// Where a traced run writes its Chrome trace.
    trace_path: Option<PathBuf>,
    out: Option<PathBuf>,
}

/// Flag values by name; flags without a value (`--smoke`) map to `""`.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String], valueless: &[&str]) -> Result<Flags, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let name = a
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {a:?}"))?;
            let value = if valueless.contains(&name) {
                String::new()
            } else {
                it.next()
                    .ok_or_else(|| format!("--{name} needs a value"))?
                    .clone()
            };
            out.push((name.to_string(), value));
        }
        Ok(Flags(out))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn known(&self, names: &[&str]) -> Result<(), String> {
        match self.0.iter().find(|(n, _)| !names.contains(&n.as_str())) {
            Some((n, _)) => Err(format!("unknown flag --{n}")),
            None => Ok(()),
        }
    }

    fn seconds(&self, smoke: bool) -> Result<f64, String> {
        match self.get("seconds") {
            None => Ok(if smoke {
                SMOKE_SECONDS
            } else {
                DEFAULT_SECONDS
            }),
            Some(s) => match s.parse::<f64>() {
                Ok(v) if v > 0.0 && v <= 600.0 => Ok(v),
                _ => Err(format!("--seconds {s:?}: expected a number in (0, 600]")),
            },
        }
    }

    fn seed(&self) -> Result<Option<u64>, String> {
        self.get("seed")
            .map(|s| {
                s.parse::<u64>()
                    .map_err(|_| format!("--seed {s:?}: expected an unsigned integer"))
            })
            .transpose()
    }
}

/// Where generated files go by default: the package's ignored `out/`. `cargo
/// run` names the package directory at run time; the compile-time value serves
/// a binary started by hand.
fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
        .join("out")
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let f = Flags::parse(args, &["smoke"])?;
    f.known(&["workload", "seed", "seconds", "trace", "smoke", "out"])?;
    let name = f.get("workload").ok_or("--workload is required")?;
    let workload = schema::workload(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = f.seed()?.ok_or("--seed is required")?;
    let smoke = f.get("smoke").is_some();
    let trace_path = match f.get("trace") {
        None | Some("0") => None,
        Some("1") => Some(out_dir().join(format!("trace-{}-{seed}.json", workload.name))),
        Some(path) => Some(PathBuf::from(path)),
    };
    Ok(RunArgs {
        workload,
        opts: RunOpts {
            seed,
            seconds: f.seconds(smoke)?,
            smoke,
            trace: trace_path.is_some(),
        },
        trace_path,
        out: f.get("out").map(PathBuf::from),
    })
}

/// Runs one workload; the traced run adds the probe set and the computed
/// shares.
fn measure(w: &'static Workload, opts: &RunOpts) -> Measured {
    let mut m = match w.kind {
        Kind::Serve => serve::run(w, opts),
        _ => batch::run(w, opts),
    };
    if opts.trace {
        probes::run(&mut m);
        m.compute_est_shares();
    }
    m
}

fn write_file(path: &Path, text: &str, append: bool) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .write(true)
        .append(append)
        .truncate(!append)
        .open(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    file.write_all(text.as_bytes())
        .and_then(|()| file.flush())
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let a = parse_run(args)?;
    let traced = a.opts.trace;
    let mut m = measure(a.workload, &a.opts);
    report::print_table(&m, a.workload, traced);
    if let Some(path) = &a.trace_path {
        let meta = Json::obj([
            ("workload", Json::str(a.workload.name)),
            ("seed", Json::from(a.opts.seed)),
            ("host", host::fingerprint()),
            ("commit", Json::str(host::commit())),
        ]);
        let doc = trace::chrome_trace(&m.tracer.spans, &m.tracer.counters, meta);
        write_file(path, &doc.render(), false)?;
        println!(
            "trace: {} spans -> {}",
            m.tracer.spans.len(),
            path.display()
        );
    }
    // The result line may add a failed check (a missing headline value), so it
    // is built before the report that counts them.
    let line = report::result_line(&mut m, traced);
    if let Some(path) = &a.out {
        let rep = report::report(&m, a.workload, &a.opts);
        write_file(path, &(rep.render() + "\n"), true)?;
    }
    println!("{}", line.render());
    Ok(if m.checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn read_runs(path: &str) -> Result<compare::Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    compare::Runs::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare takes two runs files".to_string());
    };
    let verdict = compare::compare(&read_runs(a)?, &read_runs(b)?)?;
    println!("overall: {}", verdict.as_str());
    Ok(match verdict {
        compare::Verdict::Worse => ExitCode::FAILURE,
        _ => ExitCode::SUCCESS,
    })
}

fn cmd_stability(args: &[String]) -> Result<ExitCode, String> {
    let f = Flags::parse(args, &["smoke"])?;
    f.known(&["sets", "seed", "seconds", "smoke", "out", "runs"])?;
    let sets = match f.get("sets").map(str::parse::<usize>) {
        Some(Ok(n)) if (2..=100).contains(&n) => n,
        _ => return Err("--sets <N> is required, 2 to 100".to_string()),
    };
    let smoke = f.get("smoke").is_some();
    let seconds = f.seconds(smoke)?;
    let base_seed = f.seed()?.unwrap_or(1);
    let mut runs = compare::Runs::new();
    let mut failed = 0u64;
    for set in 0..sets {
        // A new seed per set, as the driver does between its runs.
        let opts = RunOpts {
            seed: base_seed + set as u64,
            seconds,
            smoke,
            trace: false,
        };
        for w in &schema::WORKLOADS {
            let mut m = measure(w, &opts);
            report::result_line(&mut m, false);
            failed += m.checks.failed;
            let rep = report::report(&m, w, &opts);
            eprintln!(
                "set {}/{sets} {}: tp_ms {:.4}, {} checks, {} failed",
                set + 1,
                w.name,
                m.get("tp_ms"),
                m.checks.attempted,
                m.checks.failed
            );
            if let Some(path) = f.get("runs") {
                write_file(Path::new(path), &(rep.render() + "\n"), true)?;
            }
            runs.add(&rep)?;
        }
    }
    let (doc, inside) = compare::stability_summary(&runs, sets, seconds);
    if let Some(path) = f.get("out") {
        // One row per line: the committed baseline should diff readably.
        let text = doc.render().replace("},{\"workload\"", "},\n{\"workload\"") + "\n";
        write_file(Path::new(path), &text, false)?;
    }
    println!("every spread inside its bound: {inside}; failed checks: {failed}");
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `BENCHMARK.json`, generated from the schema tables so that the ~110 names
/// are written down once; one entry per line.
fn benchmark_json() -> String {
    let lines = |entries: Vec<Json>| -> String {
        let body: Vec<String> = entries
            .iter()
            .map(|e| format!("    {}", e.render()))
            .collect();
        format!("[\n{}\n  ]", body.join(",\n"))
    };
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "run",
    ];
    let workloads = schema::WORKLOADS
        .iter()
        .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
        .collect();
    let end_to_end = schema::driver_end_to_end()
        .map(|h| {
            Json::obj([
                ("name", Json::str(h.name)),
                ("unit", Json::str(h.unit)),
                ("better", Json::str(h.better.as_str())),
                ("bound", Json::Num(h.bound)),
            ])
        })
        .collect();
    let per_layer = schema::LAYERS
        .iter()
        .map(|l| {
            Json::obj([
                ("name", Json::str(l.name)),
                ("unit", Json::str(l.unit)),
                ("better", Json::str(l.better.as_str())),
            ])
        })
        .collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        Json::Arr(command.iter().map(|&c| Json::str(c)).collect()).render(),
        DEFAULT_SECONDS,
        lines(workloads),
        lines(end_to_end),
        lines(per_layer),
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) => match cmd.as_str() {
            "run" => cmd_run(rest),
            "compare" => cmd_compare(rest),
            "stability" => cmd_stability(rest),
            "schema" if rest.is_empty() => {
                print!("{}", benchmark_json());
                Ok(ExitCode::SUCCESS)
            }
            other => Err(format!("unknown command {other:?}")),
        },
        None => Err("no command".to_string()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("hhbench: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn run_arguments_are_checked_where_they_enter() {
        let a = parse_run(&args("--workload gc --seed 5 --seconds 3 --trace 0")).unwrap();
        assert_eq!(
            (a.workload.name, a.opts.seed, a.opts.seconds, a.opts.trace),
            ("gc", 5, 3.0, false)
        );
        let a = parse_run(&args("--workload serve --seed 9 --trace 1 --smoke")).unwrap();
        assert!(a.opts.smoke && a.opts.trace && a.opts.seconds == SMOKE_SECONDS);
        assert!(a.trace_path.unwrap().ends_with("out/trace-serve-9.json"));
        let a = parse_run(&args("--workload pure --seed 1 --trace some/where.json")).unwrap();
        assert_eq!(a.trace_path, Some(PathBuf::from("some/where.json")));
        assert_eq!(a.opts.seconds, DEFAULT_SECONDS);
        for bad in [
            "--workload nope --seed 1",
            "--workload pure",
            "--seed 1",
            "--workload pure --seed -3",
            "--workload pure --seed 1 --seconds 0",
            "--workload pure --seed 1 --seconds 1e9",
            "--workload pure --seed 1 --frobnicate 2",
            "--workload pure --seed",
            "pure --seed 1",
        ] {
            assert!(parse_run(&args(bad)).is_err(), "{bad:?} should be rejected");
        }
    }

    /// The committed `BENCHMARK.json` is what `hhbench schema` prints.
    #[test]
    fn benchmark_json_is_generated_from_the_schema() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `hhbench schema`"
        );
        let doc = Json::parse(&committed).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!(committed.len() < 64 * 1024);
    }

    /// The names a smoke run prints equal the names the schema (and so
    /// `BENCHMARK.json`, by the schema's own test) declares, both ways, on a
    /// batch workload and on `serve`.
    #[test]
    fn smoke_runs_print_exactly_the_declared_names() {
        let end_to_end: BTreeSet<&str> = schema::driver_end_to_end().map(|h| h.name).collect();
        let layers: BTreeSet<&str> = schema::LAYERS.iter().map(|l| l.name).collect();
        for name in ["promote", "serve"] {
            let w = schema::workload(name).unwrap();
            for traced in [false, true] {
                let opts = RunOpts {
                    seed: 11,
                    seconds: 0.6,
                    smoke: true,
                    trace: traced,
                };
                let mut m = measure(w, &opts);
                let line = report::result_line(&mut m, traced);
                assert_eq!(m.checks.failed, 0, "{name}: {:?}", m.checks.failures);
                let printed: BTreeSet<&str> = line
                    .get("metrics")
                    .and_then(Json::as_obj)
                    .unwrap()
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                assert_eq!(
                    printed,
                    if traced {
                        layers.clone()
                    } else {
                        end_to_end.clone()
                    }
                );
                if traced {
                    // Every layer a traced run can fill on this workload is
                    // filled: only the other kinds' metrics stay absent.
                    for l in schema::LAYERS.iter().filter(|l| !m.has(l.name)) {
                        let other_kind = match w.kind {
                            Kind::Serve => {
                                l.name.starts_with("gc_") || l.name == "core.gc_ns_per_word"
                            }
                            _ => {
                                l.name.starts_with("server.")
                                    || l.name.starts_with("lat_")
                                    || [
                                        "max_rate_rps",
                                        "closed_rps",
                                        "gc_pause_p50_us",
                                        "gc_pause_p99_us",
                                    ]
                                    .contains(&l.name)
                            }
                        };
                        assert!(
                            other_kind || l.name == "fail_share",
                            "{name}: {} never set",
                            l.name
                        );
                    }
                    assert!(!m.tracer.spans.is_empty());
                }
            }
        }
    }
}
