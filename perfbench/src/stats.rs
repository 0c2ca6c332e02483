//! Order statistics for timing samples: medians, middle means, quartiles,
//! and the tail-percentile rule (report the highest percentile that still has at
//! least ten samples beyond it).

/// Percentiles the tail rule chooses from, highest first.
const TAIL_CANDIDATES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Minimum number of samples that must lie beyond a reported percentile.
const TAIL_MIN_BEYOND: f64 = 10.0;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolation percentile (`p` in 0..=100) of unsorted samples.
/// `None` on an empty slice.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let v = sorted(values);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (rank - lo as f64))
}

/// The median of unsorted samples.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// The mean of the middle half of unsorted samples: a quarter (rounded
/// up) is dropped from each end, but never the middle one or two, so up to
/// six samples it is the median. Robust like the median, yet it moves
/// smoothly when samples sit on a coarse grid (timer ticks) where the
/// median jumps a whole step. `None` on an empty slice.
pub fn middle_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let v = sorted(values);
    let drop = v.len().div_ceil(4).min((v.len() - 1) / 2);
    let middle = &v[drop..v.len() - drop];
    Some(middle.iter().sum::<f64>() / middle.len() as f64)
}

/// The highest candidate percentile with at least [`TAIL_MIN_BEYOND`]
/// samples beyond it, for a sample count `n`: p95 needs 200 samples, p90
/// needs 100, the median 20. `None` below 20 samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| n as f64 * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND - 1e-9)
}

/// Quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`; needs at least two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let v = sorted(values);
    let (ld, n) = (v.len(), 4usize);
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, slot) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    Some(out)
}

/// Interquartile distance as a share of the median: the run-to-run
/// spread a benchmark bound has to cover.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(percentile(&[0.0, 10.0], 95.0), Some(9.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn middle_mean_drops_a_quarter_from_each_end() {
        assert_eq!(middle_mean(&[]), None);
        assert_eq!(middle_mean(&[7.0]), Some(7.0));
        assert_eq!(middle_mean(&[9.0, 1.0]), Some(5.0));
        // up to six samples: the median
        assert_eq!(middle_mean(&[100.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(middle_mean(&[4.0, 1.0, 100.0, 3.0, 2.0]), Some(3.0));
        assert_eq!(middle_mean(&[6.0, 1.0, 100.0, 3.0, 2.0, 4.0]), Some(3.5));
        // eight samples on a 4-unit grid: the median sits on 80 whether
        // two or three samples read 84; the middle mean tells them apart
        let low = [84.0, 80.0, 80.0, 76.0, 80.0, 80.0, 80.0, 84.0];
        let high = [84.0, 80.0, 80.0, 76.0, 80.0, 84.0, 80.0, 84.0];
        assert_eq!((median(&low), median(&high)), (Some(80.0), Some(80.0)));
        assert_eq!(middle_mean(&low), Some(80.0));
        assert_eq!(middle_mean(&high), Some(81.0));
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), Some([1.0, 3.0, 5.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        let s = relative_spread(&v).unwrap();
        assert!((s - 5.5 / 5.5).abs() < 1e-12);
    }
}
