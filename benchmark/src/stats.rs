//! Order statistics and aggregation helpers.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! "exclusive" method), because that is what the driver uses to judge the
//! run-to-run spread of a metric; using another definition here would make
//! `hhbench stability` disagree with the gate it is meant to predict.

/// Median of `xs` (mean of the two middle values for an even count).
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// First and third quartile, `statistics.quantiles(xs, n=4)` style. Needs at
/// least two values.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    if n < 2 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |k: usize| -> f64 {
        // Exclusive method: position k(n+1)/4, 1-based, linear interpolation,
        // clamped to the sample range.
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Interquartile range as a share of the median — the driver's "spread".
/// `None` when it cannot be computed (fewer than two values or zero median).
pub fn spread(xs: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(xs)?;
    let m = median(xs)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// Nearest-rank percentile `p` in `(0, 1)` of an **ascending** slice — or, when
/// fewer than ten samples lie beyond it, the highest lower percentile that has
/// ten beyond (choosing-metrics §1): a tail statistic resting on one or two
/// samples is mostly their luck. `None` with ten samples or fewer.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    let n = sorted.len();
    if n <= 10 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n - 10);
    Some(sorted[rank - 1])
}

/// Median of an ascending integer slice (nearest rank; no ten-beyond rule).
pub fn median_sorted(sorted: &[u64]) -> Option<u64> {
    let n = sorted.len();
    (n > 0).then(|| sorted[n.div_ceil(2) - 1])
}

/// Geometric mean; `None` when empty or any value is not strictly positive.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|&x| x.is_nan() || x <= 0.0) {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&xs).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25] is
        // extrapolating; ours clamps the interpolation base like Python does.
        let (q1, q3) = quartiles(&[1.0, 2.0]).unwrap();
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        // statistics.quantiles([10, 20, 30, 45, 50], n=4) == [15.0, 30.0, 47.5]
        let (q1, q3) = quartiles(&[50.0, 10.0, 30.0, 20.0, 45.0]).unwrap();
        assert!((q1 - 15.0).abs() < 1e-12 && (q3 - 47.5).abs() < 1e-12);
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&xs).unwrap() - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn percentile_keeps_ten_samples_beyond() {
        let xs: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&xs, 0.99), Some(990));
        assert_eq!(
            percentile(&xs, 0.999),
            Some(990),
            "p999 has one sample beyond: capped"
        );
        let small: Vec<u64> = (1..=100).collect();
        assert_eq!(
            percentile(&small, 0.99),
            Some(90),
            "the highest with ten beyond"
        );
        assert_eq!(percentile(&small, 0.50), Some(50));
        assert_eq!(percentile(&small[..10], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median_sorted(&[1, 2, 3, 4]), Some(2));
        assert_eq!(median_sorted(&[]), None);
    }

    #[test]
    fn geomean_rejects_non_positive() {
        assert!((geomean(&[1.0, 4.0]).unwrap() - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[]), None);
    }
}
