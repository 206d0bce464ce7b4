//! Latency accounting for the collectors' pause CDF: sample buffers summarized
//! into nearest-rank percentiles.
//!
//! Originally private to `hh-server` (enqueue-to-completion run latencies, which
//! `hhbench serve` now measures); the bounded-pause collector reuses the same
//! recorder for per-pause GC samples, so it lives here, next to
//! [`RunStats`](crate::RunStats), where every runtime can reach it.

use std::time::Duration;

/// Latency samples, in nanoseconds per event (a single collector pause for the
/// GC pause CDF).
#[derive(Default, Debug)]
pub struct LatencyRecorder {
    samples: Vec<u64>,
}

impl LatencyRecorder {
    /// Records one event's latency.
    pub fn record(&mut self, latency: Duration) {
        self.samples.push(latency.as_nanos() as u64);
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Discards every recorded sample (used by resettable counter blocks).
    pub fn clear(&mut self) {
        self.samples.clear();
    }

    /// Summarizes the samples without consuming the recorder (sorts a copy).
    /// Returns the all-zero summary when no sample was recorded.
    pub fn summary(&self) -> LatencySummary {
        if self.samples.is_empty() {
            return LatencySummary::default();
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let n = sorted.len();
        // Nearest-rank percentile: the smallest sample ≥ p of the distribution.
        let rank = |p: f64| -> u64 {
            let idx = ((p * n as f64).ceil() as usize).clamp(1, n) - 1;
            sorted[idx]
        };
        LatencySummary {
            count: n as u64,
            p50_ns: rank(0.50),
            p99_ns: rank(0.99),
            p999_ns: rank(0.999),
            max_ns: sorted[n - 1],
            mean_ns: sorted.iter().sum::<u64>() / n as u64,
        }
    }
}

/// Percentile summary of latencies, in nanoseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Number of samples summarized.
    pub count: u64,
    /// Median latency.
    pub p50_ns: u64,
    /// 99th-percentile latency.
    pub p99_ns: u64,
    /// 99.9th-percentile latency.
    pub p999_ns: u64,
    /// Worst observed latency.
    pub max_ns: u64,
    /// Arithmetic mean latency.
    pub mean_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder_of(ns: impl IntoIterator<Item = u64>) -> LatencyRecorder {
        let mut r = LatencyRecorder::default();
        for v in ns {
            r.record(Duration::from_nanos(v));
        }
        r
    }

    #[test]
    fn empty_summary_is_zero() {
        assert_eq!(
            LatencyRecorder::default().summary(),
            LatencySummary::default()
        );
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        // 1..=1000 ns: p50 = 500, p99 = 990, p999 = 999, max = 1000.
        let s = recorder_of(1..=1000).summary();
        assert_eq!(s.count, 1000);
        assert_eq!(s.p50_ns, 500);
        assert_eq!(s.p99_ns, 990);
        assert_eq!(s.p999_ns, 999);
        assert_eq!(s.max_ns, 1000);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let s = recorder_of([42]).summary();
        assert_eq!(s.p50_ns, 42);
        assert_eq!(s.p99_ns, 42);
        assert_eq!(s.p999_ns, 42);
        assert_eq!(s.max_ns, 42);
        assert_eq!(s.mean_ns, 42);
    }

    #[test]
    fn summary_does_not_consume_or_reorder() {
        let mut r = recorder_of([30, 10, 20]);
        let first = r.summary();
        assert_eq!(first.p50_ns, 20);
        r.record(Duration::from_nanos(40));
        let second = r.summary();
        assert_eq!(second.count, 4);
        assert_eq!(second.max_ns, 40);
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.summary(), LatencySummary::default());
    }
}
