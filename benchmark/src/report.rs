//! What one workload run produced, and how it is printed.
//!
//! Two renderings of the same [`Measured`]: the driver's result line (exactly
//! `correct`, `attempted`, `failed`, `metrics`) and the benchmark's own report
//! object, which additionally carries where and how the numbers were taken
//! (host fingerprint, commit, seed, sampling method, per-program rows) and is
//! what `compare` and `stability` read.

use crate::json::Json;
use crate::schema::{self, Workload};
use crate::trace::Tracer;
use crate::{host, trace};
use std::collections::BTreeMap;

/// Correctness checks: every checksum comparison, disentanglement walk,
/// quiescence check and count prediction is one attempt.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages (all are counted).
    pub failures: Vec<String>,
}

impl Checks {
    pub fn pass(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, msg: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.failures.len() < 16 {
            self.failures.push(msg);
        }
    }

    pub fn expect(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if ok {
            self.pass()
        } else {
            self.fail(msg())
        }
    }
}

/// How one workload run is to be made (the `run` flags).
pub struct RunOpts {
    pub seed: u64,
    /// Seconds the run measures.
    pub seconds: f64,
    /// Tiny sizes (batch workloads only; `serve` shrinks with `seconds`).
    pub smoke: bool,
    /// Traced run: spans, counter snapshots, and the `stw`/`dlg` columns.
    pub trace: bool,
}

/// Set-up is repeated this many times and the median reported, so one slow
/// page-fault storm does not decide `setup_s`.
pub const SETUP_REPEATS: usize = 3;

/// Runs `set_up` [`SETUP_REPEATS`] times, dropping each instance before the
/// next is built; returns the last instance (the one measured) and the median
/// set-up time in seconds.
pub fn repeat_set_up<T>(mut set_up: impl FnMut() -> T) -> (T, f64) {
    let mut seconds = Vec::with_capacity(SETUP_REPEATS);
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        drop(built.take());
        let t0 = std::time::Instant::now();
        built = Some(set_up());
        seconds.push(t0.elapsed().as_secs_f64());
    }
    let median = crate::stats::median(&seconds).expect("SETUP_REPEATS > 0");
    (built.expect("SETUP_REPEATS > 0"), median)
}

pub struct Measured {
    values: BTreeMap<&'static str, f64>,
    pub checks: Checks,
    pub tracer: Tracer,
    /// Per-program (or per-rate) detail rows.
    pub rows: Json,
    pub sampling: Json,
    /// Inputs of the computed `est_share.*` values: `Runtime::run` calls per
    /// summed T_P, and the P workers' time over that same sum.
    pub runs_per_tp: f64,
    pub tp_worker_ns: f64,
}

impl Measured {
    pub fn new(checks: Checks, tracer: Tracer) -> Measured {
        Measured {
            values: BTreeMap::new(),
            checks,
            tracer,
            rows: Json::Null,
            sampling: Json::Null,
            runs_per_tp: 0.0,
            tp_worker_ns: 0.0,
        }
    }

    /// Records a metric by its schema name.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            schema::headline(name).is_some() || schema::LAYERS.iter().any(|l| l.name == name),
            "{name} is not in the schema"
        );
        self.values.insert(name, value);
    }

    /// The recorded value; 0 for a metric this workload does not produce.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    pub fn has(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }

    /// `est_share.<x>` = count × unit cost / (P · T_P): *computed* from a
    /// probe's unit cost and a workload count, not measured.
    pub fn compute_est_shares(&mut self) {
        if self.tp_worker_ns <= 0.0 {
            return;
        }
        let alloc = self.get("core.allocated_words") * self.get("core.alloc_array_ns_per_word");
        self.set("est_share.alloc", alloc / self.tp_worker_ns);
        let boundary = self.runs_per_tp * self.get("core.run_boundary_ns");
        self.set("est_share.run_boundary", boundary / self.tp_worker_ns);
    }

    pub fn fail_share(&self) -> f64 {
        self.checks.failed as f64 / self.checks.attempted.max(1) as f64
    }

    /// A headline metric's value (`fail_share` is derived from the checks).
    fn headline_value(&self, h: &schema::Headline) -> f64 {
        if h.name == "fail_share" {
            self.fail_share()
        } else {
            self.get(h.name)
        }
    }
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// The driver's result line. `--trace 0` carries every `end_to_end` metric,
/// `--trace 1` every `per_layer` metric. A headline value that is missing or
/// not a positive finite number is itself a failed check.
pub fn result_line(m: &mut Measured, traced: bool) -> Json {
    let mut metrics = Vec::new();
    if traced {
        for l in schema::LAYERS {
            let v = m.get(l.name);
            metrics.push((l.name, metric(if v.is_finite() { v } else { 0.0 }, l.unit)));
        }
    } else {
        for h in schema::driver_end_to_end() {
            let v = m.get(h.name);
            let ok = v.is_finite() && v > 0.0;
            m.checks
                .expect(ok, || format!("{} = {v} is not a positive number", h.name));
            metrics.push((h.name, metric(if ok { v } else { 0.0 }, h.unit)));
        }
    }
    Json::obj([
        ("correct", Json::Bool(m.checks.failed == 0)),
        ("attempted", Json::from(m.checks.attempted.max(1))),
        ("failed", Json::from(m.checks.failed)),
        ("metrics", Json::obj(metrics)),
    ])
}

/// The benchmark's own report object (one line of a runs file).
pub fn report(m: &Measured, w: &Workload, opts: &RunOpts) -> Json {
    let headline = schema::HEADLINE
        .iter()
        .filter(|h| h.on.covers(w.kind))
        .map(|h| (h.name, metric(m.headline_value(h), h.unit)));
    let layers = schema::LAYERS
        .iter()
        .filter(|l| m.has(l.name) && schema::headline(l.name).is_none())
        .map(|l| (l.name, metric(m.get(l.name), l.unit)));
    let self_ns = trace::self_times(&m.tracer.spans);
    Json::obj([
        ("workload", Json::str(w.name)),
        ("kind", Json::str(format!("{:?}", w.kind))),
        ("seed", Json::from(opts.seed)),
        ("seconds", Json::Num(opts.seconds)),
        ("traced", Json::Bool(opts.trace)),
        ("host", host::fingerprint()),
        ("commit", Json::str(host::commit())),
        ("sampling", m.sampling.clone()),
        ("correct", Json::Bool(m.checks.failed == 0)),
        ("attempted", Json::from(m.checks.attempted)),
        ("failed", Json::from(m.checks.failed)),
        (
            "failures",
            Json::Arr(m.checks.failures.iter().map(Json::str).collect()),
        ),
        ("metrics", Json::obj(headline)),
        ("layers", Json::obj(layers)),
        ("rows", m.rows.clone()),
        (
            "span_self_ms",
            Json::obj(
                self_ns
                    .iter()
                    .map(|(&k, &ns)| (k, Json::Num(ns as f64 / 1e6))),
            ),
        ),
    ])
}

/// Human-readable listing: every metric by name with its unit.
pub fn print_table(m: &Measured, w: &Workload, traced: bool) {
    println!(
        "workload {} ({:?}), P = {}: {}",
        w.name,
        w.kind,
        host::workers(),
        w.why
    );
    for h in schema::HEADLINE.iter().filter(|h| h.on.covers(w.kind)) {
        println!("  {:<34} {:>14.4} {}", h.name, m.headline_value(h), h.unit);
    }
    for l in schema::LAYERS
        .iter()
        .filter(|l| m.has(l.name) && schema::headline(l.name).is_none())
    {
        // What the layer metric is expected to move (written down before
        // measuring), so a reader can hold the run against the prediction.
        println!(
            "  {:<34} {:>14.4} {:<6} {} is better; moves {} on {}",
            l.name,
            m.get(l.name),
            l.unit,
            l.better.as_str(),
            l.moves.0,
            l.moves.1
        );
    }
    if traced {
        for (name, ns) in trace::self_times(&m.tracer.spans) {
            println!("  self_time.{:<24} {:>14.4} ms", name, ns as f64 / 1e6);
        }
        println!("  (est_share.* are computed: count x probe unit cost / (P x T_P))");
    }
    println!(
        "  checks: {} attempted, {} failed",
        m.checks.attempted, m.checks.failed
    );
    for f in &m.checks.failures {
        println!("  FAILED: {f}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn measured() -> Measured {
        Measured::new(Checks::default(), Tracer::new(false, Instant::now(), 0))
    }

    #[test]
    fn checks_count_every_attempt_and_keep_the_first_messages() {
        let mut c = Checks::default();
        c.pass();
        c.expect(true, || unreachable!());
        c.expect(false, || "bad".to_string());
        for i in 0..40 {
            c.fail(format!("f{i}"));
        }
        assert_eq!((c.attempted, c.failed, c.failures.len()), (43, 41, 16));
    }

    #[test]
    fn untraced_line_has_exactly_the_end_to_end_names_and_rejects_missing_values() {
        let mut m = measured();
        for h in schema::driver_end_to_end() {
            m.set(h.name, 1.5);
        }
        let line = result_line(&mut m, false);
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        let names: Vec<&str> = line
            .get("metrics")
            .and_then(Json::as_obj)
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let want: Vec<&str> = schema::driver_end_to_end().map(|h| h.name).collect();
        assert_eq!(names, want);

        let mut missing = measured();
        let line = result_line(&mut missing, false);
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
        assert!(line.get("failed").and_then(Json::as_f64).unwrap() >= 1.0);
    }

    #[test]
    fn traced_line_has_every_layer_name_with_zero_for_the_absent() {
        let mut m = measured();
        m.set("core.alloc_ns", 12.5);
        let line = result_line(&mut m, true);
        let metrics = line.get("metrics").and_then(Json::as_obj).unwrap();
        assert_eq!(metrics.len(), schema::LAYERS.len());
        let value = |n: &str| {
            line.get("metrics")
                .unwrap()
                .get(n)
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64()
        };
        assert_eq!(value("core.alloc_ns"), Some(12.5));
        assert_eq!(value("server.lat_r1_p50_us"), Some(0.0));
    }

    #[test]
    fn est_shares_are_count_times_unit_cost_over_worker_time() {
        let mut m = measured();
        m.set("core.allocated_words", 1000.0);
        m.set("core.alloc_array_ns_per_word", 2.0);
        m.set("core.run_boundary_ns", 500.0);
        m.runs_per_tp = 4.0;
        m.tp_worker_ns = 10_000.0;
        m.compute_est_shares();
        assert_eq!(m.get("est_share.alloc"), 0.2);
        assert_eq!(m.get("est_share.run_boundary"), 0.2);
    }
}
