//! The deterministic metrics registry.

use std::collections::BTreeMap;

use dsb_simcore::{SimDuration, SimTime};

/// The label set a metric is keyed by. All dimensions are optional; a
/// metric uses the ones that make sense for it (a worker-queue gauge has
/// only `service`, a connection-pool gauge has `service` + `target`, a
/// machine gauge only `machine`). `Ord` is derived, so registry iteration
/// order — and therefore every report — is deterministic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Labels {
    /// Owning service id.
    pub service: Option<u32>,
    /// Machine id.
    pub machine: Option<u32>,
    /// Downstream service id (connection-pool metrics).
    pub target: Option<u32>,
    /// Request-type id (end-to-end / SLO metrics).
    pub rtype: Option<u32>,
}

impl Labels {
    /// Labels for a per-service metric.
    pub fn service(id: u32) -> Self {
        Labels {
            service: Some(id),
            ..Labels::default()
        }
    }

    /// Labels for a per-machine metric.
    pub fn machine(id: u32) -> Self {
        Labels {
            machine: Some(id),
            ..Labels::default()
        }
    }

    /// Labels for a per-request-type metric.
    pub fn rtype(id: u32) -> Self {
        Labels {
            rtype: Some(id),
            ..Labels::default()
        }
    }

    /// Adds a downstream-service dimension.
    pub fn with_target(mut self, t: u32) -> Self {
        self.target = Some(t);
        self
    }
}

/// Canonical metric names recorded by the [`crate::Scraper`].
pub mod names {
    /// Gauge: requests queued for a worker, per service.
    pub const QUEUE_DEPTH: &str = "queue_depth";
    /// Gauge: queued + running invocations, per service.
    pub const INFLIGHT: &str = "inflight";
    /// Gauge: busy workers / total fixed workers × 1000, per service.
    pub const OCCUPANCY_PERMILLE: &str = "occupancy_permille";
    /// Gauge: `Up` instances, per service.
    pub const INSTANCES: &str = "instances";
    /// Counter: completed invocations, per service.
    pub const INVOCATIONS: &str = "invocations";
    /// Counter: requests dropped by admission control, per service.
    pub const DROPPED: &str = "dropped";
    /// Gauge: connections in use, per (service, target).
    pub const CONN_IN_USE: &str = "conn_in_use";
    /// Gauge: pooled connection capacity, per (service, target).
    pub const CONN_LIMIT: &str = "conn_limit";
    /// Gauge: invocations parked for a connection, per (service, target).
    pub const CONN_WAITERS: &str = "conn_waiters";
    /// Gauge: cores executing jobs, per machine.
    pub const BUSY_CORES: &str = "busy_cores";
    /// Gauge: jobs in the run queue, per machine.
    pub const RUN_QUEUE: &str = "run_queue";
    /// Gauge: total cores, per machine.
    pub const CORES: &str = "cores";
    /// Counter: requests injected, per request type.
    pub const ISSUED: &str = "issued";
    /// Counter: requests completed, per request type.
    pub const COMPLETED: &str = "completed";
    /// Counter: requests rejected, per request type.
    pub const REJECTED: &str = "rejected";
    /// Counter: completions measured against an SLO, per request type.
    pub const SLO_TOTAL: &str = "slo_total";
    /// Counter: completions within the SLO target, per request type.
    pub const SLO_GOOD: &str = "slo_good";
    /// Gauge: per-window span p99 (ns), per service — recorded only when
    /// the scrape interval equals the trace collector's window.
    pub const SPAN_P99_NS: &str = "span_p99_ns";
    /// Gauge: per-window span mean (ns), per service — same condition.
    pub const SPAN_MEAN_NS: &str = "span_mean_ns";
    /// Gauge: instances currently `Down` from chaos faults, app-wide
    /// (label-less). Recorded only once a fault has fired, so fault-free
    /// runs carry no fault series at all.
    pub const INSTANCES_DOWN: &str = "instances_down";
    /// Gauge: machine pairs currently partitioned, app-wide — same
    /// only-after-first-fault rule.
    pub const PARTITION_EDGES: &str = "partition_edges";
    /// Counter: cache lookups forced onto the miss path by a down or
    /// cold-refilling home shard, per (cache) service — same rule.
    pub const REFILL_MISSES: &str = "refill_misses";
    /// Counter: requests failed fast by faults, per request type — same
    /// rule.
    pub const FAILED: &str = "failed";
}

/// Whether a metric is a monotone total (recorded as per-scrape deltas)
/// or an instantaneous sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotone total; the registry stores per-scrape increments.
    Counter,
    /// Instantaneous value sampled at scrape time.
    Gauge,
}

#[derive(Debug)]
struct Metric {
    kind: Kind,
    /// `(sum, count)` of the samples recorded in each window.
    windows: Vec<(u64, u64)>,
    /// Last cumulative value seen (counters only).
    last: u64,
}

impl Metric {
    fn add(&mut self, w: usize, value: u64) {
        if w >= self.windows.len() {
            self.windows.resize(w + 1, (0, 0));
        }
        let (sum, count) = &mut self.windows[w];
        *sum += value;
        *count += 1;
    }
}

/// A deterministic store of metric timelines.
///
/// Every `(name, labels)` pair maps to the `(sum, count)` of the samples
/// recorded in each window; counters are stored as per-scrape increments
/// so window sums read back as "events in this window". Iteration is
/// `BTreeMap`-ordered, never hashed.
#[derive(Debug)]
pub struct Registry {
    window: SimDuration,
    metrics: BTreeMap<(&'static str, Labels), Metric>,
}

impl Registry {
    /// Creates a registry whose series bucket samples into `window`-wide
    /// windows (normally the scrape interval).
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: SimDuration) -> Self {
        assert!(window > SimDuration::ZERO, "window must be positive");
        Registry {
            window,
            metrics: BTreeMap::new(),
        }
    }

    /// The window width series were created with.
    pub fn window(&self) -> SimDuration {
        self.window
    }

    fn entry(&mut self, name: &'static str, labels: Labels, kind: Kind) -> &mut Metric {
        let m = self
            .metrics
            .entry((name, labels))
            .or_insert_with(|| Metric {
                kind,
                windows: Vec::new(),
                last: 0,
            });
        debug_assert_eq!(
            m.kind, kind,
            "metric {name} re-registered as a different kind"
        );
        m
    }

    fn window_of(&self, at: SimTime) -> usize {
        (at.as_nanos() / self.window.as_nanos()) as usize
    }

    /// Records an instantaneous sample.
    pub fn gauge(&mut self, name: &'static str, labels: Labels, at: SimTime, value: u64) {
        let w = self.window_of(at);
        self.entry(name, labels, Kind::Gauge).add(w, value);
    }

    /// Records a monotone cumulative total; the increment since the last
    /// call is stored (a total below the previous one records 0).
    pub fn counter(&mut self, name: &'static str, labels: Labels, at: SimTime, total: u64) {
        let w = self.window_of(at);
        let m = self.entry(name, labels, Kind::Counter);
        let delta = total.saturating_sub(m.last);
        m.last = total;
        m.add(w, delta);
    }

    /// Number of windows in a metric's series (index of the last window
    /// recorded + 1); 0 if the metric was never recorded.
    pub fn window_count(&self, name: &'static str, labels: &Labels) -> usize {
        self.metrics
            .get(&(name, *labels))
            .map_or(0, |m| m.windows.len())
    }

    /// Iterates over all recorded `(name, labels)` keys in stable order.
    pub fn keys(&self) -> impl Iterator<Item = (&'static str, &Labels)> {
        self.metrics.keys().map(|(n, l)| (*n, l))
    }

    /// Number of windows in the longest series (the run length in
    /// scrape windows).
    pub fn windows(&self) -> usize {
        self.metrics
            .values()
            .map(|m| m.windows.len())
            .max()
            .unwrap_or(0)
    }

    /// `(sum, count)` of the samples in windows `[from, to)`; windows
    /// past the last one recorded are empty.
    fn range(&self, name: &'static str, labels: &Labels, from: usize, to: usize) -> (u64, u64) {
        let Some(m) = self.metrics.get(&(name, *labels)) else {
            return (0, 0);
        };
        let windows = m.windows.get(from..to.min(m.windows.len()));
        windows
            .unwrap_or_default()
            .iter()
            .fold((0, 0), |(sum, count), &(s, c)| (sum + s, count + c))
    }

    /// Sum of samples over windows `[from, to)` — for counters, the total
    /// increment over that span.
    pub fn range_sum(&self, name: &'static str, labels: &Labels, from: usize, to: usize) -> u64 {
        self.range(name, labels, from, to).0
    }

    /// Mean of samples over windows `[from, to)` (0 if none).
    pub fn range_mean(&self, name: &'static str, labels: &Labels, from: usize, to: usize) -> f64 {
        match self.range(name, labels, from, to) {
            (_, 0) => 0.0,
            (sum, count) => sum as f64 / count as f64,
        }
    }

    /// Sum of samples in window `w`.
    pub fn window_sum(&self, name: &'static str, labels: &Labels, w: usize) -> u64 {
        self.range_sum(name, labels, w, w + 1)
    }

    /// Mean of samples in window `w` — for gauges scraped once per
    /// window, the sampled value itself.
    pub fn window_mean(&self, name: &'static str, labels: &Labels, w: usize) -> f64 {
        self.range_mean(name, labels, w, w + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn counter_stores_deltas() {
        let mut r = Registry::new(SimDuration::from_secs(1));
        let l = Labels::service(3);
        r.counter(names::INVOCATIONS, l, t(500), 10);
        r.counter(names::INVOCATIONS, l, t(1500), 25);
        r.counter(names::INVOCATIONS, l, t(2500), 25);
        assert_eq!(r.window_sum(names::INVOCATIONS, &l, 0), 10);
        assert_eq!(r.window_sum(names::INVOCATIONS, &l, 1), 15);
        assert_eq!(r.window_sum(names::INVOCATIONS, &l, 2), 0);
        assert_eq!(r.range_sum(names::INVOCATIONS, &l, 0, 3), 25);
    }

    #[test]
    fn counter_regression_records_zero() {
        let mut r = Registry::new(SimDuration::from_secs(1));
        let l = Labels::rtype(0);
        r.counter(names::ISSUED, l, t(500), 10);
        r.counter(names::ISSUED, l, t(1500), 5);
        assert_eq!(r.window_sum(names::ISSUED, &l, 1), 0);
    }

    #[test]
    fn gauge_reads_back_via_window_mean() {
        let mut r = Registry::new(SimDuration::from_secs(1));
        let l = Labels::service(0).with_target(1);
        r.gauge(names::CONN_WAITERS, l, t(500), 7);
        r.gauge(names::CONN_WAITERS, l, t(1500), 9);
        assert_eq!(r.window_mean(names::CONN_WAITERS, &l, 0), 7.0);
        assert_eq!(r.window_mean(names::CONN_WAITERS, &l, 1), 9.0);
        assert_eq!(r.range_mean(names::CONN_WAITERS, &l, 0, 2), 8.0);
        assert_eq!(r.windows(), 2);
    }

    #[test]
    fn labels_distinguish_series() {
        let mut r = Registry::new(SimDuration::from_secs(1));
        r.gauge(names::QUEUE_DEPTH, Labels::service(0), t(100), 1);
        r.gauge(names::QUEUE_DEPTH, Labels::service(1), t(100), 2);
        assert_eq!(
            r.window_mean(names::QUEUE_DEPTH, &Labels::service(0), 0),
            1.0
        );
        assert_eq!(
            r.window_mean(names::QUEUE_DEPTH, &Labels::service(1), 0),
            2.0
        );
        assert_eq!(r.keys().count(), 2);
        assert_eq!(r.window_count(names::QUEUE_DEPTH, &Labels::service(1)), 1);
        assert_eq!(r.window_count(names::QUEUE_DEPTH, &Labels::service(9)), 0);
    }

    /// Sums are kept as integers: a sample above 2^53 reads back exactly,
    /// where a round trip through an `f64` mean would lose its last bit.
    #[test]
    fn range_sum_is_exact_above_f64_precision() {
        let mut r = Registry::new(SimDuration::from_secs(1));
        let l = Labels::service(0);
        let v = (1 << 53) + 1;
        r.gauge(names::SPAN_P99_NS, l, t(500), v);
        assert_eq!(r.range_sum(names::SPAN_P99_NS, &l, 0, 1), v);
        assert_eq!(r.window_sum(names::SPAN_P99_NS, &l, 0), v);
    }
}
