//! Time-windowed metric series, used for the paper's timeline figures
//! (cascading QoS violations, recovery after scaling, hotspot heatmaps).

use crate::metrics::Histogram;
use crate::time::{SimDuration, SimTime};

/// A series of per-window compact histograms.
///
/// Records `(time, value)` observations and answers "what was the p99 in
/// window *k*?" — exactly what the paper's heatmap figures (Figs. 19, 20,
/// 22a) plot per microservice over time.
///
/// # Example
///
/// ```
/// use dsb_simcore::{SimDuration, SimTime, WindowedSeries};
///
/// let mut s = WindowedSeries::new(SimDuration::from_secs(1));
/// s.record(SimTime::from_millis(100), 10);
/// s.record(SimTime::from_millis(900), 30);
/// s.record(SimTime::from_millis(1500), 500);
/// assert_eq!(s.window_count(), 2);
/// assert_eq!(s.count(0), 2);
/// assert!(s.quantile(1, 0.99) >= 450);
/// ```
#[derive(Debug, Clone)]
pub struct WindowedSeries {
    window: SimDuration,
    windows: Vec<Histogram>,
}

impl WindowedSeries {
    /// Creates a series with the given window width.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: SimDuration) -> Self {
        assert!(window > SimDuration::ZERO, "window must be positive");
        WindowedSeries {
            window,
            windows: Vec::new(),
        }
    }

    /// The configured window width.
    pub fn window(&self) -> SimDuration {
        self.window
    }

    fn idx(&self, at: SimTime) -> usize {
        (at.as_nanos() / self.window.as_nanos()) as usize
    }

    /// Records an observation at virtual time `at`.
    pub fn record(&mut self, at: SimTime, value: u64) {
        let i = self.idx(at);
        if i >= self.windows.len() {
            self.windows.resize_with(i + 1, Histogram::compact);
        }
        self.windows[i].record(value);
    }

    /// Number of windows touched so far (index of last + 1).
    pub fn window_count(&self) -> usize {
        self.windows.len()
    }

    /// Observation count in window `i` (0 if out of range).
    pub fn count(&self, i: usize) -> u64 {
        self.windows.get(i).map_or(0, Histogram::count)
    }

    /// The `q`-quantile of window `i` (0 if out of range / empty).
    pub fn quantile(&self, i: usize, q: f64) -> u64 {
        self.windows.get(i).map_or(0, |h| h.quantile(q))
    }

    /// Mean of window `i` (0 if out of range / empty).
    pub fn mean(&self, i: usize) -> f64 {
        self.windows.get(i).map_or(0.0, Histogram::mean)
    }

    /// Merges another series of the same window width into this one,
    /// window by window.
    ///
    /// # Panics
    ///
    /// Panics if the window widths differ.
    pub fn merge(&mut self, other: &WindowedSeries) {
        assert_eq!(
            self.window, other.window,
            "cannot merge series of different window widths"
        );
        if other.windows.len() > self.windows.len() {
            self.windows
                .resize_with(other.windows.len(), Histogram::compact);
        }
        for (a, b) in self.windows.iter_mut().zip(&other.windows) {
            a.merge(b);
        }
    }

    /// Merges windows `[from, to)` into one histogram (out-of-range
    /// indices are ignored) — used to drop warm-up windows from reported
    /// quantiles.
    pub fn merged_range(&self, from: usize, to: usize) -> Histogram {
        let mut h = Histogram::compact();
        for w in self
            .windows
            .iter()
            .take(to.min(self.windows.len()))
            .skip(from)
        {
            h.merge(w);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_partition_time() {
        let mut s = WindowedSeries::new(SimDuration::from_secs(1));
        for ms in (0..5000).step_by(100) {
            s.record(SimTime::from_millis(ms), ms);
        }
        assert_eq!(s.window_count(), 5);
        assert_eq!(s.count(0), 10);
        assert_eq!(s.count(4), 10);
        assert!(s.quantile(4, 0.5) >= 4000);
        assert_eq!(s.quantile(99, 0.5), 0);
    }

    #[test]
    fn boundary_lands_in_next_window() {
        let mut s = WindowedSeries::new(SimDuration::from_secs(1));
        s.record(SimTime::from_secs(1), 7);
        assert_eq!(s.count(0), 0);
        assert_eq!(s.count(1), 1);
    }
}
