//! Order statistics and the host calibration loop.
//!
//! Quantiles follow Python's `statistics.quantiles(data, n=…)` with its
//! default `"exclusive"` method, so the quartiles this benchmark prints
//! are the ones an outside script computes from the same values.

use std::hint::black_box;
use std::time::Instant;

/// The `i`-th of the `n - 1` cut points that split `sorted` into `n`
/// equal groups (`quantile(s, 1, 2)` is the median, `quantile(s, 9, 10)`
/// the p90), computed exactly as Python's `statistics.quantiles` does.
///
/// # Panics
///
/// Panics if `sorted` is empty or `i` is not in `1..n`.
pub fn quantile(sorted: &[f64], i: usize, n: usize) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    assert!(0 < i && i < n, "cut point {i} of {n}");
    let ld = sorted.len();
    if ld == 1 {
        return sorted[0];
    }
    let m = ld + 1;
    let j = (i * m / n).clamp(1, ld - 1);
    // May be negative or exceed `n` after the clamp: Python extrapolates
    // from the two end samples then, and so does this.
    let delta = (i * m) as f64 - (j * n) as f64;
    let n = n as f64;
    (sorted[j - 1] * (n - delta) + sorted[j] * delta) / n
}

/// Median, first and third quartile, and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

/// Summarizes `values` (any order).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn summarize(values: &[f64]) -> Summary {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Summary {
        median: quantile(&v, 1, 2),
        q1: quantile(&v, 1, 4),
        q3: quantile(&v, 3, 4),
        n: v.len(),
    }
}

/// The median of `values` (any order).
pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

/// Each slice's fastest replay: element `k` is the minimum of every
/// run's `k`-th value. Runs of one seed replay identical slices, and
/// contention from other tenants only ever slows a slice down, so this
/// keeps the slice's own cost and drops the host's.
pub fn slice_minima(runs: &[&[f64]]) -> Vec<f64> {
    let n = runs.iter().map(|r| r.len()).min().unwrap_or(0);
    (0..n)
        .map(|k| runs.iter().map(|r| r[k]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// The highest reportable tail percentile for `n` samples: the highest
/// of p99.9, p99, p90, p75 and p50 with at least ten samples beyond it,
/// as a cut point `(i, n)` for [`quantile`]. `None` below 20 samples,
/// where only the median is meaningful.
pub fn tail_rank(n: usize) -> Option<(usize, usize)> {
    [(999, 1000), (99, 100), (9, 10), (3, 4), (1, 2)]
        .into_iter()
        .find(|&(i, of)| n * (of - i) >= 10 * of)
}

/// Words in the calibration buffer: 32 MiB, past the private caches, so
/// the loop slows down when neighbours crowd a shared last-level cache,
/// as the simulator does. A pure ALU loop stays flat through that.
const CALIBRATION_WORDS: usize = 4 << 20;

/// Dependent loads of the calibration loop.
const CALIBRATION_LOADS: u64 = 1_000_000;

/// Runs a fixed, simulator-independent chain of random loads and
/// returns its host seconds. Comparing it across rounds shows when the
/// host itself got slower; no metric is adjusted by it.
pub fn calibrate() -> f64 {
    let buf: Vec<u64> = (0..CALIBRATION_WORDS as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29))
        .collect();
    let start = Instant::now();
    let mut i = 0usize;
    for step in 0..CALIBRATION_LOADS {
        i = (buf[i] ^ step) as usize % CALIBRATION_WORDS;
    }
    black_box(i);
    start.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_on_odd_and_even_n() {
        // statistics.quantiles([1..=5]) == [1.5, 3.0, 4.5]
        let odd = summarize(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((odd.q1, odd.median, odd.q3, odd.n), (1.5, 3.0, 4.5, 5));
        // statistics.quantiles([1..=6]) == [1.75, 3.5, 5.25]
        let even = summarize(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!((even.q1, even.median, even.q3), (1.75, 3.5, 5.25));
        // statistics.quantiles([1, 2]) == [0.75, 1.5, 2.25]: extrapolated.
        let two = summarize(&[2.0, 1.0]);
        assert_eq!((two.q1, two.median, two.q3), (0.75, 1.5, 2.25));
        let one = summarize(&[7.0]);
        assert_eq!((one.q1, one.median, one.q3), (7.0, 7.0, 7.0));
    }

    #[test]
    fn p90_matches_python_deciles() {
        // statistics.quantiles(range(1, 121), n=10)[8] == 108.9
        let v: Vec<f64> = (1..=120).map(f64::from).collect();
        assert!((quantile(&v, 9, 10) - 108.9).abs() < 1e-9);
    }

    #[test]
    fn slice_minima_drop_slowdowns_of_any_run() {
        let runs: [&[f64]; 3] = [&[1.0, 10.0, 3.0], &[2.0, 2.0, 3.0], &[3.0, 3.0]];
        assert_eq!(
            slice_minima(&runs),
            vec![1.0, 2.0],
            "shortest run bounds the slices"
        );
    }

    #[test]
    fn tail_rank_keeps_ten_samples_beyond() {
        assert_eq!(tail_rank(19), None, "below 20 samples: p50 only");
        assert_eq!(tail_rank(20), Some((1, 2)));
        assert_eq!(tail_rank(39), Some((1, 2)));
        assert_eq!(tail_rank(40), Some((3, 4)));
        assert_eq!(tail_rank(99), Some((3, 4)));
        assert_eq!(tail_rank(100), Some((9, 10)));
        assert_eq!(
            tail_rank(120),
            Some((9, 10)),
            "every workload has >= 120 slices"
        );
        assert_eq!(tail_rank(1000), Some((99, 100)));
        assert_eq!(tail_rank(10_000), Some((999, 1000)));
    }
}
