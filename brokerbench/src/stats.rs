//! Order statistics the benchmark reports.
//!
//! Timings are reported as a median plus a tail percentile, and a tail
//! percentile is only reported when at least [`MIN_BEYOND`] samples lie
//! beyond it — otherwise it would be one or two outliers, not a
//! percentile.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// One-based nearest rank of percentile `p` (0 < p ≤ 100) among `n`
/// sorted samples.
pub fn rank(n: usize, p: f64) -> usize {
    debug_assert!(p > 0.0 && p <= 100.0, "percentile out of range: {p}");
    // The small guard keeps float error from pushing an exact rank (e.g.
    // p99.9 of 10 000) up by one.
    let r = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n.max(1))
}

/// How many of `n` samples lie beyond the nearest-rank percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// Nearest-rank percentile `p` of `samples`, or `None` when `p` is a
/// tail percentile (above the median) with fewer than [`MIN_BEYOND`]
/// samples beyond it. Reorders `samples`.
pub fn percentile<T: Ord + Copy>(samples: &mut [T], p: f64) -> Option<T> {
    if samples.is_empty() || (p > 50.0 && beyond(samples.len(), p) < MIN_BEYOND) {
        return None;
    }
    let index = rank(samples.len(), p) - 1;
    Some(*samples.select_nth_unstable(index).1)
}

/// The median (nearest rank) of a non-empty sample. Reorders
/// `samples`.
pub fn median<T: Ord + Copy>(samples: &mut [T]) -> Option<T> {
    percentile(samples, 50.0)
}

/// Quartiles `[q1, q2, q3]` by the exclusive method — the same numbers
/// Python's `statistics.quantiles(values, n=4)` gives. Needs at least
/// two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1..4).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Percentile `p` of each window's samples, then the lower quartile
/// of those per-window values, with how many windows were too small
/// for `p`. A shared host can slow down for seconds at a time; such a
/// slowdown only lifts the windows it falls in, so the lower quartile
/// over windows keeps the speed of the code while a code change still
/// moves every window. `None` with fewer than two usable windows.
/// Reorders each window.
pub fn windowed_lower_quartile(windows: &mut [Vec<u64>], p: f64) -> (Option<f64>, usize) {
    let per_window: Vec<f64> = windows
        .iter_mut()
        .filter_map(|w| percentile(w, p))
        .map(|v| v as f64)
        .collect();
    let too_small = windows.len() - per_window.len();
    (quartiles(&per_window).map(|q| q[0]), too_small)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windowed_lower_quartile_takes_q1_of_the_window_percentiles() {
        // Window medians 1..=10 (one slow window at 100 does not count
        // for more than one): q1 of [1..=9, 100] is 2.75.
        let mut windows: Vec<Vec<u64>> = (1..=9).map(|m| vec![m, m, m]).collect();
        windows.push(vec![100, 100, 100]);
        assert_eq!(windowed_lower_quartile(&mut windows, 50.0), (Some(2.75), 0));
        // A p90 needs ten samples beyond it: 3-sample windows have none.
        assert_eq!(windowed_lower_quartile(&mut windows, 90.0), (None, 10));
        let mut windows = vec![(1..=200).collect::<Vec<u64>>(), (1..=200).collect()];
        assert_eq!(windowed_lower_quartile(&mut windows, 90.0), (Some(180.0), 0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates past the ends of tiny samples.
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 8.0, 4.0, 2.0, 1.0]),
            Some([1.5, 4.0, 12.0])
        );
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<u64> = (1..=1000).rev().collect();
        assert_eq!(median(&mut v), Some(500));
        assert_eq!(percentile(&mut v, 99.0), Some(990));
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(percentile(&mut v, 50.0), Some(500));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples has exactly 10 beyond it: reported.
        let mut v: Vec<u64> = (0..1000).collect();
        assert!(percentile(&mut v, 99.0).is_some());
        // p99 of 999 samples has 9 beyond it: withheld.
        let mut v: Vec<u64> = (0..999).collect();
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(percentile(&mut v, 99.0), None);
        // p99.9 needs 10 000 samples.
        assert_eq!(beyond(10_000, 99.9), 10);
        assert_eq!(beyond(9_999, 99.9), 9);
        // A median is always reported; a percentile of nothing is not.
        assert_eq!(median(&mut [7_u64]), Some(7));
        assert_eq!(median::<u64>(&mut []), None);
        assert_eq!(percentile::<u64>(&mut [], 50.0), None);
    }
}
