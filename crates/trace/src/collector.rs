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

    /// Moves `part`'s aggregates (this service, as one shard recorded it
    /// since the last sync) into these, leaving `part` empty. Every
    /// field is an integer, so the merge is exact in any order.
    fn absorb(&mut self, part: &mut ServiceTraceStats) {
        if part.spans == 0 {
            return;
        }
        let part = std::mem::replace(part, ServiceTraceStats::new(self.latency_windows.window()));
        self.latency.merge(&part.latency);
        self.latency_windows.merge(&part.latency_windows);
        self.queue_ns += part.queue_ns;
        self.app_ns += part.app_ns;
        self.net_ns += part.net_ns;
        self.spans += part.spans;
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
/// A collector used on its own records kept spans straight into its
/// trace map. A sharded run instead records into one
/// [`ShardCollector`] per shard and brings a merged collector up to
/// date with [`TraceCollector::sync_from`], which moves each shard's
/// aggregates and kept spans into the merged view: every statistic is
/// stored once, and a kept span costs 80 bytes plus its trace's share
/// of one map entry and one `Vec` sized to the trace.
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
    dropped: u64,
}

/// The shard a span was recorded on, read from the top 16 bits of its
/// id (see [`TraceCollector::sync_from`]).
#[inline]
fn shard_of(span: &Span) -> usize {
    (span.id.0 >> 48) as usize
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

    /// Folds `span` into its service's aggregates and returns whether
    /// its trace is kept, counting it as dropped otherwise.
    fn admit(&mut self, span: &Span) -> bool {
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
        let keep = self.sample_prob > 0.0 && self.keeps(span.trace);
        if !keep {
            self.dropped += 1;
        }
        keep
    }

    /// Records one completed span.
    pub fn record(&mut self, span: Span) {
        if self.admit(&span) {
            self.sampled.entry(span.trace).or_default().push(span);
        }
    }

    /// Brings this collector up to date as the merge of `shards`, in
    /// slice order (shard 0, 1, 2, …), by moving everything each shard
    /// recorded since the last sync in here and leaving the shard empty,
    /// so no sync re-reads what an earlier one moved.
    ///
    /// The result equals one collector that recorded every span itself,
    /// except for the order of each sampled trace's spans: the
    /// concatenation of its spans on shard 0, then shard 1, …, each
    /// shard's in record order, so serialized trace output is
    /// deterministic. Per-service aggregates and the dropped count are
    /// integers and merge exactly in any order. Each shard's kept spans
    /// move with one map lookup per trace and shard, and the trace's
    /// `Vec` grows to exactly its new length. A span from shard `i` goes
    /// after the trace's spans from shards ≤ `i` and before any from
    /// later shards, so a trace that straddles syncs keeps the order a
    /// single fold gives it. This collector must be written only by
    /// syncs from the same shards, and never record spans itself.
    ///
    /// Every span kept by `shards[i]` must carry `i` in the top 16 bits
    /// of its id, as the simulator's `(shard << 48) | counter` span ids
    /// do: that tag is how a merged span's shard is found. Checked by a
    /// `debug_assert!`.
    ///
    /// # Panics
    ///
    /// Panics if a shard disagrees with this collector on window width,
    /// sampling probability, or sampling seed — merged verdicts would be
    /// inconsistent otherwise.
    pub fn sync_from(&mut self, shards: &mut [&mut ShardCollector]) {
        let w = self.window;
        for (i, s) in shards.iter_mut().enumerate() {
            let local = &mut s.local;
            assert!(
                self.window == local.window
                    && self.sample_prob == local.sample_prob
                    && self.seed == local.seed,
                "cannot merge collectors with different configurations"
            );
            if local.services.len() > self.services.len() {
                self.services
                    .resize_with(local.services.len(), || ServiceTraceStats::new(w));
            }
            for (mine, part) in self.services.iter_mut().zip(&mut local.services) {
                mine.absorb(part);
            }
            self.dropped += std::mem::take(&mut local.dropped);
            // Stable, so each trace's spans keep their record order.
            s.kept.sort_by_key(|span| span.trace);
            for group in s.kept.chunk_by(|a, b| a.trace == b.trace) {
                debug_assert!(
                    group.iter().all(|span| shard_of(span) == i),
                    "a span synced from shard {i} carries another shard's tag"
                );
                let spans = self.sampled.entry(group[0].trace).or_default();
                let at = spans.partition_point(|span| shard_of(span) <= i);
                spans.reserve_exact(group.len());
                spans.extend_from_slice(group);
                spans[at..].rotate_right(group.len());
            }
            s.kept.clear();
        }
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

/// One shard's side of a sharded [`TraceCollector`]: the per-service
/// aggregates, dropped count and kept spans the shard recorded since the
/// last [`TraceCollector::sync_from`], kept spans in record order. The
/// sync moves all of it into the merged collector, so between syncs a
/// shard holds only what it recorded in its latest run slice.
#[derive(Debug, Clone)]
pub struct ShardCollector {
    /// Aggregates and dropped count not yet moved into the merged
    /// collector, and the configuration; its own trace map stays empty.
    local: TraceCollector,
    /// Kept spans not yet moved into the merged collector.
    kept: Vec<Span>,
}

impl ShardCollector {
    /// Creates a shard collector; see [`TraceCollector::new`] for the
    /// arguments. Every shard of one run and its merged collector take
    /// the same three.
    pub fn new(window: SimDuration, sample_prob: f64, seed: u64) -> Self {
        ShardCollector {
            local: TraceCollector::new(window, sample_prob, seed),
            kept: Vec::new(),
        }
    }

    /// Records one completed span. Its id must carry this shard's index
    /// in the top 16 bits (see [`TraceCollector::sync_from`]).
    pub fn record(&mut self, span: Span) {
        if self.local.admit(&span) {
            self.kept.push(span);
        }
    }

    /// Kept spans recorded since the last sync, waiting to move into the
    /// merged collector.
    pub fn pending_spans(&self) -> usize {
        self.kept.len()
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
    fn sampling_zero_keeps_nothing() {
        let mut c = ShardCollector::new(SimDuration::from_secs(1), 0.0, 1);
        c.record(span(1, 0, 0, 100));
        assert_eq!(c.pending_spans(), 0);
    }

    /// The span order of an ordered fold of every shard: each trace's
    /// spans on shard 0, then shard 1, …, read from standalone
    /// collectors that recorded the same spans as the shard collectors,
    /// each into its own trace map. Kept as the oracle for span order.
    fn reference_fold(shards: &[TraceCollector]) -> BTreeMap<TraceId, Vec<Span>> {
        let mut out: BTreeMap<TraceId, Vec<Span>> = BTreeMap::new();
        for shard in shards {
            for (trace, spans) in &shard.sampled {
                out.entry(*trace).or_default().extend_from_slice(spans);
            }
        }
        out
    }

    /// The aggregates a reader of a collector can observe.
    fn aggregates(c: &TraceCollector) -> String {
        format!("{:?}\n{}", c.services, c.dropped)
    }

    use dsb_testkit::{prop_assert, prop_assert_eq, Shrink};

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

    const SHARDS: usize = 3;

    fn new_collector() -> TraceCollector {
        TraceCollector::new(SimDuration::from_secs(1), 0.5, 9)
    }

    /// Records `recs` on `SHARDS` shard collectors, with span ids tagged
    /// by shard as the simulator mints them, and syncs a merged
    /// collector wherever a record asks for it and once at the end.
    /// Returns the final merged collector.
    fn check_syncs(recs: &[Rec]) -> Result<TraceCollector, String> {
        let fresh = || ShardCollector::new(SimDuration::from_secs(1), 0.5, 9);
        let mut shards: Vec<ShardCollector> = (0..SHARDS).map(|_| fresh()).collect();
        let mut mirror: Vec<TraceCollector> = (0..SHARDS).map(|_| new_collector()).collect();
        let mut whole = new_collector();
        let mut merged = new_collector();
        for (i, r) in recs.iter().enumerate() {
            let end = r.end_us as u64;
            let mut s = span(r.trace as u64, r.service as u32, end - end / 3, end);
            s.id = SpanId((r.shard as u64) << 48 | i as u64);
            shards[r.shard as usize].record(s);
            mirror[r.shard as usize].record(s);
            whole.record(s);
            if r.sync {
                sync_and_check(&mut merged, &mut shards, &mirror, &whole)?;
            }
        }
        sync_and_check(&mut merged, &mut shards, &mirror, &whole)?;
        Ok(merged)
    }

    /// Syncs `merged` from `shards`. Its aggregates and dropped count
    /// must then equal those of `whole`, one standalone collector that
    /// recorded every span itself; each sampled trace must hold its
    /// spans in the order of the reference fold of `mirror`, standalone
    /// collectors fed the same spans as the shards; no shard may still
    /// hold an aggregate, a dropped count or a kept span; and every
    /// merged trace's `Vec` must be exactly its length.
    fn sync_and_check(
        merged: &mut TraceCollector,
        shards: &mut [ShardCollector],
        mirror: &[TraceCollector],
        whole: &TraceCollector,
    ) -> Result<(), String> {
        merged.sync_from(&mut shards.iter_mut().collect::<Vec<_>>());
        prop_assert_eq!(aggregates(merged), aggregates(whole));
        prop_assert_eq!(
            format!("{:?}", merged.sampled),
            format!("{:?}", reference_fold(mirror))
        );
        prop_assert!(
            shards.iter().all(|s| s.pending_spans() == 0),
            "a shard still holds kept spans after a sync"
        );
        prop_assert!(
            shards.iter().all(|s| s.local.dropped == 0
                && s.local.services.iter().all(|v| v.spans == 0
                    && v.latency.count() == 0
                    && v.latency_windows.window_count() == 0)),
            "a shard still holds aggregates after a sync"
        );
        prop_assert!(
            merged.sampled.values().all(|v| v.capacity() == v.len()),
            "a merged trace's Vec is larger than the trace"
        );
        Ok(())
    }

    /// Syncing at arbitrary points gives the aggregates, windows and
    /// dropped count of one collector that recorded every span, and the
    /// span order within each sampled trace of an ordered fold of every
    /// shard.
    #[test]
    fn sync_matches_reference_fold() {
        use dsb_testkit::{gen, prop};
        prop!(
            cases = 200,
            |rng| {
                // Some cases sync after nearly every span; others let a
                // shard log up to a hundred spans between syncs, enough
                // to expose a sort that loses record order.
                let every = gen::u32_in(rng, 1, 200);
                gen::vec_with(rng, 1, 300, |r| Rec {
                    shard: gen::u8_in(r, 0, SHARDS as u8),
                    trace: gen::u8_in(r, 0, 16),
                    service: gen::u8_in(r, 0, 4),
                    end_us: gen::u32_in(r, 1, 4_000_000),
                    sync: gen::u32_in(r, 0, every) == 0,
                })
            },
            |recs: &Vec<Rec>| check_syncs(recs).map(drop)
        );
    }

    /// A trace that straddles syncs: shard 2's span is merged first, then
    /// shards 1 and 0 record spans of the same trace, and shard 2 one
    /// more. Each lands in shard order, as one fold of all four gives.
    #[test]
    fn lower_shard_span_after_a_synced_higher_one() {
        let t = (0..16u8)
            .find(|&t| new_collector().keeps(TraceId(t as u64)))
            .expect("some trace of 16 is kept at p = 0.5");
        let rec = |shard, sync| Rec {
            shard,
            trace: t,
            service: 0,
            end_us: 1_000,
            sync,
        };
        let recs = [rec(2, true), rec(1, false), rec(0, true), rec(2, true)];
        let merged = check_syncs(&recs).unwrap_or_else(|e| panic!("{e}"));
        let tags: Vec<usize> = merged
            .trace(TraceId(t as u64))
            .unwrap()
            .iter()
            .map(shard_of)
            .collect();
        assert_eq!(tags, [0, 1, 2, 2]);
    }
}
