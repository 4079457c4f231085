//! Nearest-rank percentiles that say how much data stands behind them.

use serde::Serialize;

/// Fewer samples than this beyond a percentile leave it unresolved: one
/// outlier more or less would move it.
pub const MIN_BEYOND: usize = 10;

/// One percentile of a sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Quantile {
    /// The percentile asked for, in `(0, 100]`.
    pub p: f64,
    /// The observed sample at the nearest rank (`NaN` when empty).
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub n: usize,
    /// How many samples lie above the nearest rank.
    pub beyond: usize,
    /// Whether at least [`MIN_BEYOND`] samples lie beyond it.
    pub resolved: bool,
}

/// The nearest-rank `p`-th percentile of `samples`: the smallest sample
/// with at least `p` % of the samples at or below it. Always an observed
/// value, so never above the observed maximum.
pub fn percentile(samples: &[f64], p: f64) -> Quantile {
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    let n = samples.len();
    if n == 0 {
        return Quantile {
            p,
            value: f64::NAN,
            n,
            beyond: 0,
            resolved: false,
        };
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    let beyond = n - rank;
    Quantile {
        p,
        value: sorted[rank - 1],
        n,
        beyond,
        resolved: beyond >= MIN_BEYOND,
    }
}

/// Each work item's fastest repetition. Interference from other work on
/// the host only ever slows a repetition down, so the fastest one is the
/// item's own cost; the spread across items is kept.
pub fn fastest_per_item(items: &[Vec<f64>]) -> Vec<f64> {
    items
        .iter()
        .filter(|reps| !reps.is_empty())
        .map(|reps| reps.iter().copied().fold(f64::INFINITY, f64::min))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastest_per_item_keeps_items_apart() {
        let items = vec![vec![3.0, 1.0, 2.0], vec![], vec![5.0], vec![4.0, 9.0]];
        assert_eq!(fastest_per_item(&items), vec![1.0, 5.0, 4.0]);
    }

    #[test]
    fn nearest_rank_picks_an_observed_sample() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0).value, 50.0);
        assert_eq!(percentile(&s, 90.0).value, 90.0);
        assert_eq!(percentile(&s, 99.0).value, 99.0);
        assert_eq!(percentile(&s, 100.0).value, 100.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0).value, 2.0);
        assert_eq!(percentile(&[7.5], 1.0).value, 7.5);
    }

    #[test]
    fn never_above_the_observed_max() {
        for n in 1..60 {
            let s: Vec<f64> = (0..n).map(|i| (i * 37 % 11) as f64 + 0.25).collect();
            let max = s.iter().copied().fold(f64::MIN, f64::max);
            for p in [1.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
                let q = percentile(&s, p);
                assert!(q.value <= max, "n={n} p={p}");
                assert!(s.contains(&q.value));
            }
        }
    }

    #[test]
    fn reports_count_and_marks_thin_tails_unresolved() {
        let s: Vec<f64> = (0..100).map(f64::from).collect();
        let p50 = percentile(&s, 50.0);
        assert_eq!((p50.n, p50.beyond, p50.resolved), (100, 50, true));
        let p90 = percentile(&s, 90.0);
        assert_eq!((p90.beyond, p90.resolved), (10, true));
        let p99 = percentile(&s, 99.0);
        assert_eq!((p99.beyond, p99.resolved), (1, false));
        let few = percentile(&s[..5], 50.0);
        assert_eq!((few.n, few.beyond, few.resolved), (5, 2, false));
        let empty = percentile(&[], 50.0);
        assert_eq!((empty.n, empty.resolved), (0, false));
        assert!(empty.value.is_nan());
    }
}
