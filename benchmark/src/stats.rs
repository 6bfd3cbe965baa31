//! Order statistics over client samples.
//!
//! Timings are exact: nearest-rank percentiles over every sample, never
//! bucketed. A failed request is recorded as `f64::INFINITY`, so it
//! counts as missing any latency limit and can only push a percentile
//! up.

/// The nearest-rank `p`-th percentile (`0 < p ≤ 100`) of `samples`:
/// the smallest value with at least `p`% of the samples at or below it.
/// `None` when there are no samples.
pub fn nearest_rank(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Arithmetic mean; `None` when empty.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// The median (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// The first and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(data, n=4)`, the rule the run-to-run spread of
/// the benchmark is judged by. Needs at least two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let ld = samples.len();
    if ld < 2 {
        return None;
    }
    let mut data = samples.to_vec();
    data.sort_by(f64::total_cmp);
    let m = ld as i64 + 1;
    let at = |i: i64| {
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        // Clamping can push `delta` outside 0..4: Python extrapolates
        // then, and so does this.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// Interquartile range as a share of the median: the spread figure the
/// regression bounds are compared against.
pub fn relative_spread(samples: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(samples)?;
    let med = median(samples)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_an_observed_sample() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&xs, 50.0), Some(50.0));
        assert_eq!(nearest_rank(&xs, 99.0), Some(99.0));
        assert_eq!(nearest_rank(&xs, 100.0), Some(100.0));
        assert_eq!(nearest_rank(&xs, 0.5), Some(1.0));
        // Order of input does not matter.
        let rev: Vec<f64> = xs.iter().rev().copied().collect();
        assert_eq!(nearest_rank(&rev, 50.0), Some(50.0));
        assert_eq!(nearest_rank(&[7.0], 99.0), Some(7.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
        // Nearest rank, not interpolation: p50 of {1, 2} is 1.
        assert_eq!(nearest_rank(&[2.0, 1.0], 50.0), Some(1.0));
    }

    #[test]
    fn failed_samples_count_as_infinite_latency() {
        let mut xs: Vec<f64> = (1..=99).map(f64::from).collect();
        xs.push(f64::INFINITY);
        // One failure in a hundred is exactly the top percent.
        assert_eq!(nearest_rank(&xs, 99.0), Some(99.0));
        assert_eq!(nearest_rank(&xs, 100.0), Some(f64::INFINITY));
        xs.push(f64::INFINITY);
        assert_eq!(nearest_rank(&xs, 99.0), Some(f64::INFINITY));
        // Half the requests failing moves the median to infinity.
        let half = [1.0, 2.0, f64::INFINITY, f64::INFINITY];
        assert_eq!(nearest_rank(&half, 50.0), Some(2.0));
        assert_eq!(nearest_rank(&half, 51.0), Some(f64::INFINITY));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), Some((1.0, 4.5)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        let spread = relative_spread(&xs).unwrap();
        assert!((spread - 5.5 / 5.5).abs() < 1e-12, "{spread}");
    }
}
