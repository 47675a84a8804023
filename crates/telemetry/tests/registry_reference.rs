//! The registry's reads checked against a histogram-backed reference:
//! one `WindowedSeries` of compact histograms per key, window ranges
//! merged by `merged_range`, sums read back as `mean × count` rounded.

use std::collections::BTreeMap;

use dsb_simcore::{Histogram, SimDuration, SimTime, WindowedSeries};
use dsb_telemetry::{names, Kind, Labels, Registry};
use dsb_testkit::{gen, prop, prop_assert_eq};

struct Reference {
    window: SimDuration,
    series: BTreeMap<(&'static str, Labels), (WindowedSeries, u64)>,
}

impl Reference {
    fn new(window: SimDuration) -> Self {
        Reference {
            window,
            series: BTreeMap::new(),
        }
    }

    fn entry(&mut self, name: &'static str, labels: Labels) -> &mut (WindowedSeries, u64) {
        let window = self.window;
        self.series
            .entry((name, labels))
            .or_insert_with(|| (WindowedSeries::new(window), 0))
    }

    fn gauge(&mut self, name: &'static str, labels: Labels, at: SimTime, value: u64) {
        self.entry(name, labels).0.record(at, value);
    }

    fn counter(&mut self, name: &'static str, labels: Labels, at: SimTime, total: u64) {
        let (series, last) = self.entry(name, labels);
        series.record(at, total.saturating_sub(*last));
        *last = total;
    }

    fn merged(&self, name: &'static str, labels: &Labels, from: usize, to: usize) -> Histogram {
        match self.series.get(&(name, *labels)) {
            Some((s, _)) => s.merged_range(from, to),
            None => Histogram::compact(),
        }
    }

    fn range_sum(&self, name: &'static str, labels: &Labels, from: usize, to: usize) -> u64 {
        let h = self.merged(name, labels, from, to);
        (h.mean() * h.count() as f64).round() as u64
    }

    fn range_mean(&self, name: &'static str, labels: &Labels, from: usize, to: usize) -> f64 {
        self.merged(name, labels, from, to).mean()
    }

    fn window_count(&self, name: &'static str, labels: &Labels) -> usize {
        self.series
            .get(&(name, *labels))
            .map_or(0, |(s, _)| s.window_count())
    }

    fn windows(&self) -> usize {
        self.series
            .values()
            .map(|(s, _)| s.window_count())
            .max()
            .unwrap_or(0)
    }
}

/// Key `k` of the property below: gauges and counters over two
/// services; key 4 is never recorded.
fn key(k: u8) -> (&'static str, Labels, Kind) {
    let labels = Labels::service(u32::from(k / 2));
    if k.is_multiple_of(2) {
        (names::QUEUE_DEPTH, labels, Kind::Gauge)
    } else {
        (names::INVOCATIONS, labels, Kind::Counter)
    }
}

/// Random gauge and counter sequences read back identically through
/// every query: several samples in one window, gaps, windows recorded
/// out of order, counter totals that go down, and ranges with
/// `from ≥ to` or `to` past the end. Values stay below 2^40, so the
/// reference's `f64` sums are exact.
#[test]
fn reads_match_the_histogram_reference() {
    prop!(
        cases = 200,
        |rng| {
            gen::vec_with(rng, 0, 64, |r| {
                let value = if gen::bool_(r) {
                    gen::u64_in(r, 0, 100)
                } else {
                    gen::u64_in(r, 0, 1 << 40)
                };
                (
                    gen::u8_in(r, 0, 4),
                    gen::u8_in(r, 0, 12),
                    gen::u16_in(r, 0, 1000),
                    value,
                )
            })
        },
        |ops: &Vec<(u8, u8, u16, u64)>| {
            let window = SimDuration::from_secs(1);
            let mut reg = Registry::new(window);
            let mut reference = Reference::new(window);
            for &(k, w, ms, value) in ops {
                let (name, labels, kind) = key(k);
                let at = SimTime::from_millis(u64::from(w) * 1000 + u64::from(ms));
                match kind {
                    Kind::Gauge => {
                        reg.gauge(name, labels, at, value);
                        reference.gauge(name, labels, at, value);
                    }
                    Kind::Counter => {
                        reg.counter(name, labels, at, value);
                        reference.counter(name, labels, at, value);
                    }
                }
            }
            let n = reference.windows();
            prop_assert_eq!(reg.windows(), n);
            for k in 0..=4 {
                let (name, l, _) = key(k);
                prop_assert_eq!(
                    reg.window_count(name, &l),
                    reference.window_count(name, &l),
                    "window count of key {k}"
                );
                for w in 0..n + 2 {
                    prop_assert_eq!(
                        reg.window_sum(name, &l, w),
                        reference.range_sum(name, &l, w, w + 1),
                        "window_sum of key {k}, window {w}"
                    );
                    prop_assert_eq!(
                        reg.window_mean(name, &l, w),
                        reference.range_mean(name, &l, w, w + 1),
                        "window_mean of key {k}, window {w}"
                    );
                }
                for from in 0..n + 2 {
                    for to in 0..n + 2 {
                        prop_assert_eq!(
                            reg.range_sum(name, &l, from, to),
                            reference.range_sum(name, &l, from, to),
                            "range_sum of key {k} over [{from}, {to})"
                        );
                        prop_assert_eq!(
                            reg.range_mean(name, &l, from, to),
                            reference.range_mean(name, &l, from, to),
                            "range_mean of key {k} over [{from}, {to})"
                        );
                    }
                }
            }
            Ok(())
        }
    );
}
