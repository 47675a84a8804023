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

    /// Collapses all windows into one histogram.
    pub fn total(&self) -> Histogram {
        self.merged_range(0, usize::MAX)
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

    /// Makes this series the window-by-window merge of `parts`, touching
    /// only windows whose summed count differs from this series' count —
    /// the incremental form of re-merging every part from scratch.
    ///
    /// Exact because part counts only grow and [`Histogram`] merging is
    /// all-integer: a window whose count is unchanged has no new samples,
    /// and a changed one is re-folded from every part's window. That
    /// holds as long as this series is written only by syncs from the
    /// same parts, which is how the simulator keeps its merged views.
    ///
    /// # Panics
    ///
    /// Panics if any part's window width differs from this series'.
    pub fn sync_from(&mut self, parts: &[&WindowedSeries]) {
        let mut len = self.windows.len();
        for p in parts {
            assert_eq!(
                self.window, p.window,
                "cannot merge series of different window widths"
            );
            len = len.max(p.windows.len());
        }
        self.windows.resize_with(len, Histogram::compact);
        for (i, w) in self.windows.iter_mut().enumerate() {
            let count: u64 = parts.iter().map(|p| p.count(i)).sum();
            if count == w.count() {
                continue;
            }
            w.reset();
            for p in parts {
                if let Some(pw) = p.windows.get(i) {
                    w.merge(pw);
                }
            }
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

/// Tracks busy time of a multi-unit resource (cores of a machine, workers
/// of an instance) per window, yielding utilization in `[0, 1]`.
///
/// Callers report busy intervals as they complete; intervals are split
/// across window boundaries.
///
/// # Example
///
/// ```
/// use dsb_simcore::{SimDuration, SimTime, UtilizationTracker};
///
/// let mut u = UtilizationTracker::new(SimDuration::from_secs(1), 2);
/// // One of two cores busy for the entire first window:
/// u.add_busy(SimTime::ZERO, SimTime::from_secs(1));
/// assert!((u.utilization(0) - 0.5).abs() < 1e-9);
/// assert_eq!(u.utilization(7), 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct UtilizationTracker {
    window: SimDuration,
    capacity: u32,
    busy_ns: Vec<u64>,
}

impl UtilizationTracker {
    /// Creates a tracker for a resource with `capacity` parallel units.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero or `capacity` is zero.
    pub fn new(window: SimDuration, capacity: u32) -> Self {
        assert!(window > SimDuration::ZERO, "window must be positive");
        assert!(capacity > 0, "capacity must be positive");
        UtilizationTracker {
            window,
            capacity,
            busy_ns: Vec::new(),
        }
    }

    /// Updates the capacity (e.g. after scaling a worker pool). Only
    /// affects utilization computed for later windows if queried via
    /// [`UtilizationTracker::utilization_with_capacity`]; the plain
    /// [`UtilizationTracker::utilization`] uses the latest capacity.
    pub fn set_capacity(&mut self, capacity: u32) {
        assert!(capacity > 0, "capacity must be positive");
        self.capacity = capacity;
    }

    /// Current capacity.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Reports that one unit was busy during `[from, to)`.
    pub fn add_busy(&mut self, from: SimTime, to: SimTime) {
        if to <= from {
            return;
        }
        let w = self.window.as_nanos();
        let mut cur = from.as_nanos();
        let end = to.as_nanos();
        while cur < end {
            let widx = (cur / w) as usize;
            let wend = (widx as u64 + 1) * w;
            let upto = end.min(wend);
            if widx >= self.busy_ns.len() {
                self.busy_ns.resize(widx + 1, 0);
            }
            self.busy_ns[widx] += upto - cur;
            cur = upto;
        }
    }

    /// Number of windows touched so far.
    pub fn window_count(&self) -> usize {
        self.busy_ns.len()
    }

    /// Utilization of window `i` with the current capacity (0 if untouched).
    pub fn utilization(&self, i: usize) -> f64 {
        self.utilization_with_capacity(i, self.capacity)
    }

    /// Utilization of window `i` assuming the given capacity.
    pub fn utilization_with_capacity(&self, i: usize, capacity: u32) -> f64 {
        let busy = self.busy_ns.get(i).copied().unwrap_or(0) as f64;
        busy / (self.window.as_nanos() as f64 * capacity.max(1) as f64)
    }

    /// Mean utilization over `[first, last]` windows (inclusive, clamped).
    pub fn mean_utilization(&self, first: usize, last: usize) -> f64 {
        if self.busy_ns.is_empty() || first > last {
            return 0.0;
        }
        let last = last.min(self.busy_ns.len().saturating_sub(1));
        let n = (last - first + 1) as f64;
        (first..=last).map(|i| self.utilization(i)).sum::<f64>() / n
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
        assert_eq!(s.total().count(), 50);
    }

    #[test]
    fn boundary_lands_in_next_window() {
        let mut s = WindowedSeries::new(SimDuration::from_secs(1));
        s.record(SimTime::from_secs(1), 7);
        assert_eq!(s.count(0), 0);
        assert_eq!(s.count(1), 1);
    }

    use dsb_testkit::Shrink;

    /// One generated observation: `value` recorded into part `part` at
    /// `at_ms`, then (if `sync`) the merged view is brought up to date.
    #[derive(Debug, Clone)]
    struct Obs {
        part: u8,
        at_ms: u16,
        value: u32,
        sync: bool,
    }

    impl Shrink for Obs {
        fn shrink(&self) -> Vec<Self> {
            let mut out = Vec::new();
            for at_ms in self.at_ms.shrink() {
                out.push(Obs { at_ms, ..*self });
            }
            for value in self.value.shrink() {
                out.push(Obs { value, ..*self });
            }
            if self.sync {
                out.push(Obs {
                    sync: false,
                    ..*self
                });
            }
            out
        }
    }

    /// `sync_from` at arbitrary points — including after late records
    /// into windows already synced — always equals a from-scratch
    /// `merge` of every part, field for field.
    #[test]
    fn sync_matches_merge_reference() {
        use dsb_testkit::{gen, prop, prop_assert_eq};
        const PARTS: usize = 3;
        prop!(
            cases = 200,
            |rng| {
                gen::vec_with(rng, 1, 80, |r| Obs {
                    part: gen::u8_in(r, 0, PARTS as u8),
                    at_ms: gen::u16_in(r, 0, 5_000),
                    value: gen::u32_in(r, 0, 1 << 20),
                    sync: gen::u32_in(r, 0, 4) == 0,
                })
            },
            |obs: &Vec<Obs>| {
                let w = SimDuration::from_secs(1);
                let mut parts = vec![WindowedSeries::new(w); PARTS];
                let mut synced = WindowedSeries::new(w);
                let check = |parts: &[WindowedSeries], synced: &WindowedSeries| {
                    let mut reference = WindowedSeries::new(w);
                    for p in parts {
                        reference.merge(p);
                    }
                    prop_assert_eq!(format!("{synced:?}"), format!("{reference:?}"));
                    Ok(())
                };
                for o in obs {
                    parts[o.part as usize]
                        .record(SimTime::from_millis(o.at_ms as u64), o.value as u64);
                    if o.sync {
                        synced.sync_from(&parts.iter().collect::<Vec<_>>());
                        check(&parts, &synced)?;
                    }
                }
                synced.sync_from(&parts.iter().collect::<Vec<_>>());
                check(&parts, &synced)
            }
        );
    }

    #[test]
    fn utilization_splits_across_windows() {
        let mut u = UtilizationTracker::new(SimDuration::from_secs(1), 1);
        u.add_busy(SimTime::from_millis(500), SimTime::from_millis(2500));
        assert!((u.utilization(0) - 0.5).abs() < 1e-9);
        assert!((u.utilization(1) - 1.0).abs() < 1e-9);
        assert!((u.utilization(2) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn utilization_ignores_empty_interval() {
        let mut u = UtilizationTracker::new(SimDuration::from_secs(1), 4);
        u.add_busy(SimTime::from_secs(2), SimTime::from_secs(2));
        u.add_busy(SimTime::from_secs(3), SimTime::from_secs(2));
        assert_eq!(u.window_count(), 0);
    }

    #[test]
    fn mean_utilization_averages() {
        let mut u = UtilizationTracker::new(SimDuration::from_secs(1), 2);
        u.add_busy(SimTime::ZERO, SimTime::from_secs(2)); // 0.5 in w0, w1
        u.add_busy(SimTime::ZERO, SimTime::from_secs(1)); // +0.5 in w0
        assert!((u.mean_utilization(0, 1) - 0.75).abs() < 1e-9);
    }

    #[test]
    fn capacity_change_affects_reading() {
        let mut u = UtilizationTracker::new(SimDuration::from_secs(1), 1);
        u.add_busy(SimTime::ZERO, SimTime::from_secs(1));
        assert!((u.utilization(0) - 1.0).abs() < 1e-9);
        u.set_capacity(4);
        assert!((u.utilization(0) - 0.25).abs() < 1e-9);
        assert!((u.utilization_with_capacity(0, 2) - 0.5).abs() < 1e-9);
    }
}
