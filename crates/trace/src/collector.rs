//! The centralized trace collector.

use std::collections::BTreeMap;

use dsb_simcore::{mix64, Histogram, SimDuration, WindowedSeries};

use crate::span::{Span, TraceId};

/// Aggregated tracing statistics for one service.
#[derive(Debug, Clone)]
pub struct ServiceTraceStats {
    /// Distribution of span durations over the whole run.
    pub latency: Histogram,
    /// Per-window span durations (ns), for timeline heatmaps.
    pub latency_windows: WindowedSeries,
    /// Total time spans spent queued for workers/connections, ns.
    pub queue_ns: u128,
    /// Total application-processing time, ns.
    pub app_ns: u128,
    /// Total network-processing time, ns.
    pub net_ns: u128,
    /// Number of spans recorded.
    pub spans: u64,
}

impl ServiceTraceStats {
    fn new(window: SimDuration) -> Self {
        ServiceTraceStats {
            latency: Histogram::default(),
            latency_windows: WindowedSeries::new(window),
            queue_ns: 0,
            app_ns: 0,
            net_ns: 0,
            spans: 0,
        }
    }

    /// The `q`-quantile of span latency over the whole run, as a
    /// [`SimDuration`] — the convenience experiments kept reimplementing
    /// on top of `latency.quantile(...)`.
    pub fn p(&self, q: f64) -> SimDuration {
        self.latency.quantile_duration(q)
    }

    /// Fraction of processing time spent in network processing (the
    /// paper's Fig. 15 metric): `net / (net + app)`.
    pub fn net_fraction(&self) -> f64 {
        let denom = (self.net_ns + self.app_ns) as f64;
        if denom == 0.0 {
            0.0
        } else {
            self.net_ns as f64 / denom
        }
    }

    /// Re-folds this service's aggregates from `parts` (the same service
    /// on every shard) unless their summed span count is unchanged.
    /// Every field is an integer, so the fold is exact in any order.
    fn sync_from(&mut self, parts: &[&ServiceTraceStats]) {
        let spans: u64 = parts.iter().map(|p| p.spans).sum();
        if spans == self.spans {
            return;
        }
        self.latency.reset();
        self.queue_ns = 0;
        self.app_ns = 0;
        self.net_ns = 0;
        for p in parts {
            self.latency.merge(&p.latency);
            self.queue_ns += p.queue_ns;
            self.app_ns += p.app_ns;
            self.net_ns += p.net_ns;
        }
        let windows: Vec<&WindowedSeries> = parts.iter().map(|p| &p.latency_windows).collect();
        self.latency_windows.sync_from(&windows);
        self.spans = spans;
    }
}

/// The centralized collector: per-service aggregates plus a sample of
/// complete traces (like Zipkin's sampled storage).
///
/// Aggregation is unconditional and cheap; full span retention is sampled
/// per trace so long runs stay within memory. The paper verifies tracing
/// overhead is < 0.1 % of end-to-end latency; in the simulator collection
/// is free (no simulated cost), which we note in EXPERIMENTS.md.
///
/// # Example
///
/// ```
/// use dsb_simcore::{SimDuration, SimTime};
/// use dsb_trace::{Span, SpanId, TraceCollector, TraceId};
///
/// let mut col = TraceCollector::new(SimDuration::from_secs(1), 1.0, 7);
/// col.record(Span {
///     trace: TraceId(1),
///     id: SpanId(1),
///     parent: None,
///     service: 0,
///     endpoint: 0,
///     start: SimTime::ZERO,
///     end: SimTime::from_micros(150),
///     queue_time: SimDuration::ZERO,
///     app_time: SimDuration::from_micros(100),
///     net_time: SimDuration::from_micros(50),
/// });
/// let stats = col.service(0).unwrap();
/// assert_eq!(stats.spans, 1);
/// assert!((stats.net_fraction() - 1.0 / 3.0).abs() < 1e-9);
/// assert_eq!(col.sampled_traces().count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct TraceCollector {
    window: SimDuration,
    sample_prob: f64,
    seed: u64,
    services: Vec<ServiceTraceStats>,
    sampled: BTreeMap<TraceId, Vec<Span>>,
    /// Traces that gained a sampled span since the last
    /// [`TraceCollector::sync_from`] drained this log (may repeat).
    touched: Vec<TraceId>,
    dropped: u64,
}

impl TraceCollector {
    /// Creates a collector with the given heatmap window width, trace
    /// sampling probability, and sampling seed.
    ///
    /// The per-trace keep/drop decision is a pure hash of `(seed,
    /// trace id)` rather than a stateful RNG draw: in a sharded run
    /// every shard owns its own collector, and all of them must reach
    /// the same verdict for a trace without coordinating — give them
    /// all the same seed and they do.
    pub fn new(window: SimDuration, sample_prob: f64, seed: u64) -> Self {
        debug_assert!(
            (0.0..=1.0).contains(&sample_prob),
            "sample_prob {sample_prob} outside [0, 1]; clamping"
        );
        TraceCollector {
            window,
            sample_prob: sample_prob.clamp(0.0, 1.0),
            seed,
            services: Vec::new(),
            sampled: BTreeMap::new(),
            touched: Vec::new(),
            dropped: 0,
        }
    }

    /// The keyed sampling verdict for a trace: stateless, so identical
    /// on every shard and independent of record order.
    #[inline]
    fn keeps(&self, trace: TraceId) -> bool {
        // Top 53 bits of the mix as a uniform in [0, 1).
        let u = (mix64(self.seed ^ mix64(trace.0)) >> 11) as f64 / (1u64 << 53) as f64;
        u < self.sample_prob
    }

    /// Records one completed span.
    pub fn record(&mut self, span: Span) {
        let idx = span.service as usize;
        if idx >= self.services.len() {
            let w = self.window;
            self.services
                .resize_with(idx + 1, || ServiceTraceStats::new(w));
        }
        let s = &mut self.services[idx];
        let dur = span.duration().as_nanos();
        s.latency.record(dur);
        s.latency_windows.record(span.end, dur);
        s.queue_ns += span.queue_time.as_nanos() as u128;
        s.app_ns += span.app_time.as_nanos() as u128;
        s.net_ns += span.net_time.as_nanos() as u128;
        s.spans += 1;

        // Fast path when sampling is off (the common configuration for
        // perf kernels): no trace ever qualifies, so skip the hash.
        if self.sample_prob == 0.0 {
            self.dropped += 1;
            return;
        }
        if self.keeps(span.trace) {
            self.touched.push(span.trace);
            self.sampled.entry(span.trace).or_default().push(span);
        } else {
            self.dropped += 1;
        }
    }

    /// Brings this collector up to date as the merge of `shards`, in
    /// slice order (shard 0, 1, 2, …), at a cost that follows what the
    /// shards recorded since the last sync rather than the run so far.
    ///
    /// The result equals a from-scratch fold of every shard in slice
    /// order: each sampled trace is the concatenation of its spans on
    /// shard 0, then shard 1, …, so serialized trace output is
    /// deterministic. Only traces in the shards' touched logs (drained
    /// here) are rebuilt, and only services whose summed span count
    /// moved are re-folded. This collector must be written only by syncs
    /// from the same shards, and never record spans itself.
    ///
    /// # Panics
    ///
    /// Panics if a shard disagrees with this collector on window width,
    /// sampling probability, or sampling seed — merged verdicts would be
    /// inconsistent otherwise.
    pub fn sync_from(&mut self, shards: &mut [&mut TraceCollector]) {
        let mut touched = Vec::new();
        let mut nsvc = self.services.len();
        for s in shards.iter_mut() {
            assert!(
                self.window == s.window && self.sample_prob == s.sample_prob && self.seed == s.seed,
                "cannot merge collectors with different configurations"
            );
            touched.append(&mut s.touched);
            nsvc = nsvc.max(s.services.len());
        }
        let w = self.window;
        self.services
            .resize_with(nsvc, || ServiceTraceStats::new(w));
        for (i, mine) in self.services.iter_mut().enumerate() {
            let parts: Vec<&ServiceTraceStats> =
                shards.iter().filter_map(|s| s.services.get(i)).collect();
            mine.sync_from(&parts);
        }
        touched.sort_unstable();
        touched.dedup();
        for trace in touched {
            let spans = self.sampled.entry(trace).or_default();
            spans.clear();
            for s in shards.iter() {
                if let Some(theirs) = s.sampled.get(&trace) {
                    spans.extend_from_slice(theirs);
                }
            }
        }
        self.dropped = shards.iter().map(|s| s.dropped).sum();
    }

    /// Aggregates for service `id`, if any span was recorded for it.
    pub fn service(&self, id: u32) -> Option<&ServiceTraceStats> {
        self.services.get(id as usize).filter(|s| s.spans > 0)
    }

    /// Number of services with at least one span.
    pub fn service_count(&self) -> usize {
        self.services.iter().filter(|s| s.spans > 0).count()
    }

    /// Iterates over retained complete traces.
    pub fn sampled_traces(&self) -> impl Iterator<Item = (&TraceId, &Vec<Span>)> {
        self.sampled.iter()
    }

    /// The spans of one sampled trace, if retained.
    pub fn trace(&self, id: TraceId) -> Option<&[Span]> {
        self.sampled.get(&id).map(Vec::as_slice)
    }

    /// Spans recorded but not retained (aggregation still happened).
    pub fn dropped_spans(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanId;
    use dsb_simcore::SimTime;

    fn span(trace: u64, svc: u32, start_us: u64, end_us: u64) -> Span {
        Span {
            trace: TraceId(trace),
            id: SpanId(trace * 100 + svc as u64),
            parent: None,
            service: svc,
            endpoint: 0,
            start: SimTime::from_micros(start_us),
            end: SimTime::from_micros(end_us),
            queue_time: SimDuration::from_micros(1),
            app_time: SimDuration::from_micros(5),
            net_time: SimDuration::from_micros(3),
        }
    }

    #[test]
    fn aggregates_per_service() {
        let mut c = TraceCollector::new(SimDuration::from_secs(1), 0.0, 1);
        c.record(span(1, 0, 0, 100));
        c.record(span(2, 0, 0, 200));
        c.record(span(3, 5, 0, 50));
        assert_eq!(c.service_count(), 2);
        let s0 = c.service(0).unwrap();
        assert_eq!(s0.spans, 2);
        assert!(s0.latency.quantile(1.0) >= 190_000);
        assert!(c.service(1).is_none());
        assert!(c.service(99).is_none());
    }

    #[test]
    fn sampling_zero_drops_all_traces() {
        let mut c = TraceCollector::new(SimDuration::from_secs(1), 0.0, 1);
        for i in 0..50 {
            c.record(span(i, 0, 0, 10));
        }
        assert_eq!(c.sampled_traces().count(), 0);
        assert_eq!(c.dropped_spans(), 50);
        // Aggregation unaffected by sampling.
        assert_eq!(c.service(0).unwrap().spans, 50);
    }

    #[test]
    fn sampling_one_keeps_all() {
        let mut c = TraceCollector::new(SimDuration::from_secs(1), 1.0, 1);
        for i in 0..20 {
            c.record(span(i, 0, 0, 10));
        }
        assert_eq!(c.sampled_traces().count(), 20);
        assert_eq!(c.dropped_spans(), 0);
    }

    #[test]
    fn sampling_decision_consistent_within_trace() {
        let mut c = TraceCollector::new(SimDuration::from_secs(1), 0.5, 42);
        for i in 0..200 {
            // 3 spans per trace.
            c.record(span(i, 0, 0, 10));
            c.record(span(i, 1, 0, 10));
            c.record(span(i, 2, 0, 10));
        }
        for (_, spans) in c.sampled_traces() {
            assert_eq!(spans.len(), 3, "trace must be kept or dropped whole");
        }
        let kept = c.sampled_traces().count();
        assert!((60..140).contains(&kept), "kept {kept} of 200");
    }

    #[test]
    fn p_quantile_convenience_matches_histogram() {
        let mut c = TraceCollector::new(SimDuration::from_secs(1), 0.0, 1);
        for i in 0..100 {
            c.record(span(i, 0, 0, 10 * (i + 1)));
        }
        let s = c.service(0).unwrap();
        assert_eq!(s.p(0.5).as_nanos(), s.latency.quantile(0.5));
        assert_eq!(s.p(0.99).as_nanos(), s.latency.quantile(0.99));
        assert_eq!(s.p(1.0), s.latency.quantile_duration(1.0));
    }

    #[test]
    fn net_fraction_computed() {
        let mut c = TraceCollector::new(SimDuration::from_secs(1), 0.0, 1);
        c.record(span(1, 0, 0, 10));
        let f = c.service(0).unwrap().net_fraction();
        assert!((f - 3.0 / 8.0).abs() < 1e-9);
    }

    #[test]
    fn windows_track_time() {
        let mut c = TraceCollector::new(SimDuration::from_secs(1), 0.0, 1);
        c.record(span(1, 0, 0, 100));
        c.record(span(2, 0, 1_500_000, 1_500_100));
        let s = c.service(0).unwrap();
        assert_eq!(s.latency_windows.count(0), 1);
        assert_eq!(s.latency_windows.count(1), 1);
    }

    #[test]
    fn sampling_zero_touches_nothing() {
        let mut c = TraceCollector::new(SimDuration::from_secs(1), 0.0, 1);
        c.record(span(1, 0, 0, 100));
        assert!(c.touched.is_empty());
    }

    /// The from-scratch fold `sync_from` replaced: clone shard 0, then
    /// merge every later shard into it in order. Kept as the oracle.
    fn reference_fold(shards: &[TraceCollector]) -> TraceCollector {
        let mut out = shards[0].clone();
        for other in &shards[1..] {
            if other.services.len() > out.services.len() {
                let w = out.window;
                out.services
                    .resize_with(other.services.len(), || ServiceTraceStats::new(w));
            }
            for (mine, theirs) in out.services.iter_mut().zip(&other.services) {
                mine.latency.merge(&theirs.latency);
                mine.latency_windows.merge(&theirs.latency_windows);
                mine.queue_ns += theirs.queue_ns;
                mine.app_ns += theirs.app_ns;
                mine.net_ns += theirs.net_ns;
                mine.spans += theirs.spans;
            }
            for (trace, spans) in &other.sampled {
                out.sampled
                    .entry(*trace)
                    .or_default()
                    .extend(spans.iter().cloned());
            }
            out.dropped += other.dropped;
        }
        out
    }

    /// Everything a reader of a merged collector can observe.
    fn view(c: &TraceCollector) -> String {
        format!("{:?}\n{:?}\n{}", c.services, c.sampled, c.dropped)
    }

    use dsb_testkit::Shrink;

    /// One generated span: recorded on shard `shard`, ending at `end_us`
    /// (random, so later records land in earlier windows too), then (if
    /// `sync`) the merged collector is brought up to date.
    #[derive(Debug, Clone)]
    struct Rec {
        shard: u8,
        trace: u8,
        service: u8,
        end_us: u32,
        sync: bool,
    }

    impl Shrink for Rec {
        fn shrink(&self) -> Vec<Self> {
            let mut out = Vec::new();
            for shard in self.shard.shrink() {
                out.push(Rec { shard, ..*self });
            }
            for trace in self.trace.shrink() {
                out.push(Rec { trace, ..*self });
            }
            for service in self.service.shrink() {
                out.push(Rec { service, ..*self });
            }
            for end_us in self.end_us.shrink() {
                out.push(Rec { end_us, ..*self });
            }
            if self.sync {
                out.push(Rec {
                    sync: false,
                    ..*self
                });
            }
            out
        }
    }

    /// Syncing at arbitrary points equals the ordered clone-and-merge
    /// fold of every shard: aggregates, windows, span order within each
    /// sampled trace, and the dropped count.
    #[test]
    fn sync_matches_reference_fold() {
        use dsb_testkit::{gen, prop, prop_assert_eq};
        const SHARDS: usize = 3;
        prop!(
            cases = 200,
            |rng| {
                gen::vec_with(rng, 1, 100, |r| Rec {
                    shard: gen::u8_in(r, 0, SHARDS as u8),
                    trace: gen::u8_in(r, 0, 16),
                    service: gen::u8_in(r, 0, 4),
                    end_us: gen::u32_in(r, 1, 4_000_000),
                    sync: gen::u32_in(r, 0, 5) == 0,
                })
            },
            |recs: &Vec<Rec>| {
                let new = || TraceCollector::new(SimDuration::from_secs(1), 0.5, 9);
                let mut shards: Vec<TraceCollector> = (0..SHARDS).map(|_| new()).collect();
                let mut merged = new();
                for (i, r) in recs.iter().enumerate() {
                    let end = r.end_us as u64;
                    let mut s = span(r.trace as u64, r.service as u32, end - end / 3, end);
                    s.id = SpanId(i as u64);
                    shards[r.shard as usize].record(s);
                    if r.sync {
                        let expect = view(&reference_fold(&shards));
                        merged.sync_from(&mut shards.iter_mut().collect::<Vec<_>>());
                        prop_assert_eq!(view(&merged), expect);
                    }
                }
                let expect = view(&reference_fold(&shards));
                merged.sync_from(&mut shards.iter_mut().collect::<Vec<_>>());
                prop_assert_eq!(view(&merged), expect);
                Ok(())
            }
        );
    }
}
