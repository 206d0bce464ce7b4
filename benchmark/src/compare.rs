//! `hhbench compare` and the summarising half of `hhbench stability`.
//!
//! Both read *runs files*: one report object per line, as written by
//! `hhbench run --out` (appending) and `hhbench stability --runs`. Values are
//! grouped per (workload, metric); a group's centre is its median and its
//! spread the interquartile range over the median, the driver's own measure.

use crate::json::Json;
use crate::schema::{self, Better, Headline};
use crate::stats::{median, quartiles, spread};
use std::collections::BTreeMap;

/// Headline values of one runs file: workload → metric → one value per run.
pub struct Runs {
    pub host: Json,
    pub commits: Vec<String>,
    pub values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
}

impl Runs {
    pub fn new() -> Runs {
        Runs {
            host: Json::Null,
            commits: Vec::new(),
            values: BTreeMap::new(),
        }
    }

    pub fn parse(text: &str) -> Result<Runs, String> {
        let mut runs = Runs::new();
        for (i, line) in text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty())
        {
            let report = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            runs.add(&report)
                .map_err(|e| format!("line {}: {e}", i + 1))?;
        }
        if runs.values.is_empty() {
            return Err("no runs".to_string());
        }
        Ok(runs)
    }

    pub fn add(&mut self, report: &Json) -> Result<(), String> {
        let workload = report
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("report without a workload")?;
        let host = report
            .get("host")
            .ok_or("report without a host fingerprint")?;
        if self.host == Json::Null {
            self.host = host.clone();
        } else if self.host != *host {
            return Err("runs from different hosts in one file".to_string());
        }
        if let Some(c) = report.get("commit").and_then(Json::as_str) {
            if !self.commits.iter().any(|k| k == c) {
                self.commits.push(c.to_string());
            }
        }
        let metrics = report
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("report without metrics")?;
        let group = self.values.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            let v = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            group.entry(name.clone()).or_default().push(v);
        }
        Ok(())
    }
}

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The run-to-run spread of either side is wider than the bound: the
    /// comparison cannot tell "unchanged" from "regressed".
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By how much `b` is worse than `a`, as a share of `a` (negative = better).
pub fn worse_by(h: &Headline, a: f64, b: f64) -> f64 {
    match h.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

pub fn verdict(h: &Headline, a: &[f64], b: &[f64]) -> Verdict {
    let (Some(ma), Some(mb)) = (median(a), median(b)) else {
        return Verdict::Unresolved;
    };
    if h.name == "fail_share" {
        return if mb > ma { Verdict::Worse } else { Verdict::Ok };
    }
    if ma == 0.0 || !ma.is_finite() || !mb.is_finite() {
        return Verdict::Unresolved;
    }
    // Spread first: a median beyond the bound proves nothing when runs of one
    // side already differ by more than the bound (`max_rate_rps` jumps between
    // two pinned rates). A single run per side has no spread to judge by.
    let wide = |xs: &[f64]| spread(xs).is_some_and(|s| s > h.bound);
    if wide(a) || wide(b) {
        Verdict::Unresolved
    } else if worse_by(h, ma, mb) > h.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// Prints one row per (metric, workload); returns the worst verdict seen.
pub fn compare(a: &Runs, b: &Runs) -> Result<Verdict, String> {
    if a.host != b.host {
        return Err(format!(
            "refusing to compare timings across hosts: A is {}, B is {}",
            a.host.render(),
            b.host.render()
        ));
    }
    println!(
        "A: commit {}   B: commit {}",
        a.commits.join("+"),
        b.commits.join("+")
    );
    println!(
        "{:<11} {:<16} {:>12} {:>12} {:>16} {:>6} {:>8} {:>8}  verdict",
        "workload",
        "metric",
        "A median",
        "B median",
        "B/A (base A)",
        "bound",
        "A spread",
        "B spread"
    );
    let mut worst = Verdict::Ok;
    for (workload, metrics_a) in &a.values {
        let Some(metrics_b) = b.values.get(workload) else {
            println!("{workload:<11} missing from B");
            worst = Verdict::Worse;
            continue;
        };
        for h in &schema::HEADLINE {
            let (Some(va), Some(vb)) = (metrics_a.get(h.name), metrics_b.get(h.name)) else {
                continue;
            };
            let v = verdict(h, va, vb);
            let (ma, mb) = (
                median(va).unwrap_or(f64::NAN),
                median(vb).unwrap_or(f64::NAN),
            );
            let pct =
                |xs: &[f64]| spread(xs).map_or("-".to_string(), |s| format!("{:.1}%", s * 100.0));
            println!(
                "{:<11} {:<16} {:>12.4} {:>12.4} {:>16} {:>5.0}% {:>8} {:>8}  {}",
                workload,
                h.name,
                ma,
                mb,
                if ma != 0.0 {
                    format!("{:.4}", mb / ma)
                } else {
                    "-".to_string()
                },
                h.bound * 100.0,
                pct(va),
                pct(vb),
                v.as_str()
            );
            worst = match (worst, v) {
                (Verdict::Worse, _) | (_, Verdict::Worse) => Verdict::Worse,
                (Verdict::Unresolved, _) | (_, Verdict::Unresolved) => Verdict::Unresolved,
                _ => Verdict::Ok,
            };
        }
    }
    Ok(worst)
}

/// Per (metric, workload): median, quartiles, spread, bound, and whether the
/// spread is inside the bound. Printed, and returned as the summary document.
pub fn stability_summary(runs: &Runs, sets: usize, seconds: f64) -> (Json, bool) {
    println!(
        "{:<11} {:<16} {:>12} {:>9} {:>6}  inside",
        "workload", "metric", "median", "spread", "bound"
    );
    let mut rows = Vec::new();
    let mut all_inside = true;
    for (workload, metrics) in &runs.values {
        for h in schema::HEADLINE.iter().filter(|h| h.name != "fail_share") {
            let Some(xs) = metrics.get(h.name) else {
                continue;
            };
            let m = median(xs).unwrap_or(f64::NAN);
            let (q1, q3) = quartiles(xs).unwrap_or((f64::NAN, f64::NAN));
            let s = spread(xs);
            // `setup_s` is judged by the drift of its median only.
            let inside = h.name == "setup_s" || s.is_some_and(|s| s <= h.bound);
            all_inside &= inside;
            println!(
                "{:<11} {:<16} {:>12.4} {:>8.1}% {:>5.0}%  {}",
                workload,
                h.name,
                m,
                s.unwrap_or(f64::NAN) * 100.0,
                h.bound * 100.0,
                if inside { "yes" } else { "NO" }
            );
            rows.push(Json::obj([
                ("workload", Json::str(workload.clone())),
                ("metric", Json::str(h.name)),
                ("unit", Json::str(h.unit)),
                ("median", Json::Num(m)),
                ("q1", Json::Num(q1)),
                ("q3", Json::Num(q3)),
                ("spread", s.map_or(Json::Null, Json::Num)),
                ("bound", Json::Num(h.bound)),
                ("inside", Json::Bool(inside)),
                ("samples", Json::from(xs.len())),
            ]));
        }
    }
    let doc = Json::obj([
        ("host", runs.host.clone()),
        ("commit", Json::str(runs.commits.join("+"))),
        ("sets", Json::from(sets)),
        ("seconds", Json::Num(seconds)),
        (
            "spread",
            Json::str("(q3 - q1) / median, quartiles as statistics.quantiles(n=4)"),
        ),
        ("rows", Json::Arr(rows)),
    ]);
    (doc, all_inside)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(workload: &str, host_cpu: &str, tp: f64, fail: f64) -> String {
        Json::obj([
            ("workload", Json::str(workload)),
            (
                "host",
                Json::obj([("cpu", Json::str(host_cpu)), ("nproc", Json::from(2u64))]),
            ),
            ("commit", Json::str("abc")),
            (
                "metrics",
                Json::obj([
                    (
                        "tp_ms",
                        Json::obj([("value", Json::Num(tp)), ("unit", Json::str("ms"))]),
                    ),
                    (
                        "fail_share",
                        Json::obj([("value", Json::Num(fail)), ("unit", Json::str("ratio"))]),
                    ),
                ]),
            ),
        ])
        .render()
    }

    fn runs(lines: &[String]) -> Runs {
        Runs::parse(&lines.join("\n")).unwrap()
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let tp = schema::headline("tp_ms").unwrap();
        let speedup = schema::headline("speedup").unwrap();
        let steady = [10.0, 10.1, 9.9, 10.0, 10.05];
        assert_eq!(
            verdict(tp, &steady, &[10.5, 10.4, 10.6, 10.5, 10.5]),
            Verdict::Ok
        );
        assert_eq!(
            verdict(tp, &steady, &[13.0, 12.9, 13.1, 13.0, 13.0]),
            Verdict::Worse
        );
        assert_eq!(
            verdict(tp, &steady, &[8.0, 8.0, 8.1, 7.9, 8.0]),
            Verdict::Ok,
            "faster is fine"
        );
        assert_eq!(
            verdict(speedup, &[2.0; 5], &[1.6; 5]),
            Verdict::Worse,
            "higher is better"
        );
        assert_eq!(verdict(speedup, &[2.0; 5], &[2.4; 5]), Verdict::Ok);
        // Same medians, but B's quartiles are 40 % apart.
        assert_eq!(
            verdict(tp, &steady, &[8.0, 12.0, 10.0, 7.9, 12.1]),
            Verdict::Unresolved
        );
        // A median 30 % worse inside a 50 % spread decides nothing either.
        assert_eq!(
            verdict(tp, &steady, &[9.0, 16.0, 13.0, 8.9, 16.1]),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(tp, &[10.0], &[13.0]),
            Verdict::Worse,
            "one run each"
        );
        let fail = schema::headline("fail_share").unwrap();
        assert_eq!(verdict(fail, &[0.0; 3], &[0.0; 3]), Verdict::Ok);
        assert_eq!(verdict(fail, &[0.0; 3], &[0.01; 3]), Verdict::Worse);
        assert!((worse_by(speedup, 2.0, 1.5) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn compare_groups_by_workload_and_refuses_other_hosts() {
        let a = runs(&[
            report("pure", "x", 10.0, 0.0),
            report("pure", "x", 10.2, 0.0),
            report("gc", "x", 5.0, 0.0),
        ]);
        assert_eq!(a.values["pure"]["tp_ms"], vec![10.0, 10.2]);
        assert_eq!(a.commits, ["abc"]);
        let same = runs(&[
            report("pure", "x", 10.1, 0.0),
            report("pure", "x", 10.3, 0.0),
            report("gc", "x", 5.1, 0.0),
        ]);
        assert_eq!(compare(&a, &same), Ok(Verdict::Ok));
        let slow = runs(&[report("pure", "x", 13.0, 0.0), report("gc", "x", 5.0, 0.0)]);
        assert_eq!(compare(&a, &slow), Ok(Verdict::Worse));
        let failing = runs(&[report("pure", "x", 10.0, 0.1), report("gc", "x", 5.0, 0.0)]);
        assert_eq!(compare(&a, &failing), Ok(Verdict::Worse));
        let missing = runs(&[report("pure", "x", 10.0, 0.0)]);
        assert_eq!(
            compare(&a, &missing),
            Ok(Verdict::Worse),
            "a workload disappeared"
        );
        let elsewhere = runs(&[report("pure", "y", 10.0, 0.0)]);
        assert!(compare(&a, &elsewhere)
            .unwrap_err()
            .contains("across hosts"));
        assert!(Runs::parse(
            &[report("pure", "x", 1.0, 0.0), report("pure", "y", 1.0, 0.0)].join("\n")
        )
        .is_err());
        assert!(Runs::parse("").is_err() && Runs::parse("{").is_err());
    }

    #[test]
    fn stability_flags_a_spread_outside_its_bound() {
        let steady: Vec<String> = [10.0, 10.1, 9.9, 10.0, 10.05]
            .iter()
            .map(|&t| report("pure", "x", t, 0.0))
            .collect();
        let (doc, inside) = stability_summary(&runs(&steady), 5, 20.0);
        assert!(inside);
        let rows = doc.get("rows").and_then(Json::as_arr).unwrap();
        assert_eq!(rows.len(), 1, "fail_share has no spread row");
        assert_eq!(rows[0].get("samples").and_then(Json::as_f64), Some(5.0));
        let wild: Vec<String> = [8.0, 12.0, 10.0, 7.9, 12.1]
            .iter()
            .map(|&t| report("pure", "x", t, 0.0))
            .collect();
        assert!(!stability_summary(&runs(&wild), 5, 20.0).1);
    }
}
