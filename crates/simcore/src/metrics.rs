//! Latency metrics: log-bucketed histograms with quantile extraction.

use crate::time::SimDuration;

/// A log-linear histogram of non-negative `u64` samples (HDR-style).
///
/// Values are bucketed with a configurable number of sub-buckets per
/// power of two (`precision_bits`), bounding relative quantile error to
/// about `2^-precision_bits`. The default of 5 bits gives ≈3 % error — ample
/// for tail-latency reporting — with 64 octaves × 32 buckets of `u64`.
///
/// # Example
///
/// ```
/// use dsb_simcore::Histogram;
///
/// let mut h = Histogram::default();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 1000);
/// let p50 = h.quantile(0.5);
/// assert!((450..=550).contains(&p50), "p50 = {p50}");
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    precision_bits: u32,
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    max: u64,
    min: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new(5)
    }
}

impl Histogram {
    /// Creates a histogram with `2^precision_bits` sub-buckets per octave.
    ///
    /// # Panics
    ///
    /// Panics if `precision_bits` is not in `1..=8`.
    pub fn new(precision_bits: u32) -> Self {
        assert!(
            (1..=8).contains(&precision_bits),
            "precision_bits must be in 1..=8"
        );
        Histogram {
            precision_bits,
            buckets: Vec::new(),
            count: 0,
            sum: 0,
            max: 0,
            min: u64::MAX,
        }
    }

    /// A compact (3-bit, ≈12 % error) histogram for memory-sensitive
    /// per-window series.
    pub fn compact() -> Self {
        Histogram::new(3)
    }

    fn index_of(&self, value: u64) -> usize {
        let p = self.precision_bits;
        if value < (1 << p) {
            return value as usize;
        }
        let octave = 63 - value.leading_zeros(); // >= p
        let sub = ((value >> (octave - p)) - (1 << p)) as usize;
        (((octave - p + 1) as usize) << p) + sub
    }

    fn bucket_upper(&self, index: usize) -> u64 {
        let p = self.precision_bits;
        let base = 1usize << p;
        if index < base {
            return index as u64;
        }
        let octave = (index >> p) as u32 + p - 1;
        let sub = (index & (base - 1)) as u64;
        ((1u64 << p) + sub + 1) << (octave - p)
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let idx = self.index_of(value);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.max = self.max.max(value);
        self.min = self.min.min(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean of the samples (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest recorded sample (0 if empty).
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Smallest recorded sample (0 if empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// The `q`-quantile (`0 <= q <= 1`) as a bucket upper bound; exact
    /// samples are approximated within the bucket's relative precision.
    /// Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut acc = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            acc += c;
            if acc >= target {
                return self.bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// The `q`-quantile as a [`SimDuration`] (samples interpreted as ns).
    pub fn quantile_duration(&self, q: f64) -> SimDuration {
        SimDuration::from_nanos(self.quantile(q))
    }

    /// Number of samples `<= value`, within the bucket precision (samples
    /// are attributed to their bucket's upper bound, so the estimate may
    /// undercount by up to one bucket's width). Monotone in `value` and in
    /// recording order, which makes per-scrape deltas of it well defined —
    /// the property the telemetry SLO layer relies on.
    pub fn count_le(&self, value: u64) -> u64 {
        let mut acc = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            if self.bucket_upper(i) > value {
                break;
            }
            acc += c;
        }
        acc
    }

    /// Merges another histogram of the same precision into this one.
    ///
    /// # Panics
    ///
    /// Panics if the precisions differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.precision_bits, other.precision_bits,
            "cannot merge histograms of different precision"
        );
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (a, &b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        self.min = self.min.min(other.min);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_are_close() {
        let mut h = Histogram::default();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for q in [0.5, 0.9, 0.99, 0.999] {
            let est = h.quantile(q) as f64;
            let exact = q * 100_000.0;
            assert!(
                (est - exact).abs() / exact < 0.05,
                "q={q}: est {est} exact {exact}"
            );
        }
        assert_eq!(h.quantile(1.0), 100_000);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 100_000);
        assert!((h.mean() - 50_000.5).abs() < 1.0);
    }

    #[test]
    fn histogram_small_values_exact() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 2, 3, 17, 31] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.count(), 6);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 31);
    }

    #[test]
    fn histogram_empty() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max(), 0);
        assert!(h.is_empty());
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        for v in 1..=500u64 {
            a.record(v);
        }
        for v in 501..=1000u64 {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 1000);
        let p50 = a.quantile(0.5) as f64;
        assert!((p50 - 500.0).abs() / 500.0 < 0.05, "p50 {p50}");
    }

    #[test]
    fn histogram_huge_values() {
        let mut h = Histogram::default();
        h.record(u64::MAX / 2);
        h.record(1_000_000_000_000);
        assert_eq!(h.count(), 2);
        assert!(h.quantile(1.0) >= 1_000_000_000_000);
    }

    #[test]
    fn count_le_tracks_cdf() {
        let mut h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count_le(0), 0);
        assert_eq!(h.count_le(u64::MAX), 1000);
        let mid = h.count_le(500) as f64;
        assert!((mid - 500.0).abs() <= 500.0 * 0.05 + 2.0, "mid {mid}");
        // Monotone in the threshold.
        assert!(h.count_le(250) <= h.count_le(500));
        // Small values are exact (unit buckets below 2^precision).
        let mut s = Histogram::default();
        for v in [0u64, 1, 2, 3, 17] {
            s.record(v);
        }
        assert_eq!(s.count_le(3), 4);
    }

    #[test]
    fn histogram_merge_empty_into_empty() {
        let mut a = Histogram::default();
        let b = Histogram::default();
        a.merge(&b);
        assert!(a.is_empty());
        assert_eq!(a.count(), 0);
        assert_eq!(a.quantile(0.5), 0);
        assert_eq!(a.mean(), 0.0);
        assert_eq!(a.min(), 0);
        assert_eq!(a.max(), 0);
        // Still usable after the no-op merge.
        a.record(9);
        assert_eq!(a.min(), 9);
        assert_eq!(a.max(), 9);
    }

    #[test]
    fn histogram_merge_empty_into_populated_is_noop() {
        let mut a = Histogram::default();
        for v in 1..=100u64 {
            a.record(v);
        }
        let before = (a.count(), a.quantile(0.5), a.min(), a.max());
        a.merge(&Histogram::default());
        assert_eq!(before, (a.count(), a.quantile(0.5), a.min(), a.max()));
    }

    #[test]
    #[should_panic]
    fn merge_mismatched_precision_panics() {
        let mut a = Histogram::new(5);
        let b = Histogram::new(3);
        a.merge(&b);
    }
}
