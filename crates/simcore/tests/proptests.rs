//! Property-based tests for the simulation kernel's data structures,
//! on the in-repo `dsb-testkit` engine.

use dsb_simcore::{
    Dist, Histogram, Model, Rng, Scheduler, SimDuration, SimTime, WindowedSeries, Zipf,
};
use dsb_testkit::{gen, prop, prop_assert, prop_assert_eq};

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// Quantiles are monotone in q and bracketed by min/max.
#[test]
fn histogram_quantiles_monotone() {
    prop!(
        |rng| gen::vec_with(rng, 1, 500, |r| gen::u64_in(r, 0, 10_000_000_000)),
        |values: &Vec<u64>| {
            if values.is_empty() {
                return Ok(()); // outside the generator's domain (shrink artifact)
            }
            let mut h = Histogram::default();
            for &v in values {
                h.record(v);
            }
            let qs = [0.0, 0.1, 0.5, 0.9, 0.99, 1.0];
            let mut prev = 0;
            for &q in &qs {
                let x = h.quantile(q);
                prop_assert!(x >= prev, "quantile({q}) = {x} < previous {prev}");
                prev = x;
            }
            prop_assert!(h.quantile(0.0) >= h.min());
            prop_assert_eq!(h.quantile(1.0), h.max());
            prop_assert_eq!(h.count(), values.len() as u64);
            Ok(())
        }
    );
}

/// Quantile estimates stay within the documented ~3% relative error of
/// the exact order statistic (plus one bucket at the low end).
#[test]
fn histogram_quantile_error_bounded() {
    prop!(
        |rng| {
            (
                gen::vec_with(rng, 10, 400, |r| gen::u64_in(r, 1, 1_000_000_000)),
                gen::usize_in(rng, 0, 5),
            )
        },
        |&(ref values, qi): &(Vec<u64>, usize)| {
            if values.is_empty() {
                return Ok(());
            }
            let q = [0.1, 0.25, 0.5, 0.9, 0.99][qi % 5];
            let mut h = Histogram::default();
            for &v in values {
                h.record(v);
            }
            let mut sorted = values.clone();
            sorted.sort_unstable();
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1] as f64;
            let est = h.quantile(q) as f64;
            prop_assert!(
                (est - exact).abs() <= exact * 0.04 + 2.0,
                "q={q}: est {est} exact {exact}"
            );
            Ok(())
        }
    );
}

/// Merging histograms is equivalent to recording the union.
#[test]
fn histogram_merge_union() {
    prop!(
        |rng| {
            (
                gen::vec_with(rng, 0, 200, |r| gen::u64_in(r, 0, 1_000_000)),
                gen::vec_with(rng, 0, 200, |r| gen::u64_in(r, 0, 1_000_000)),
            )
        },
        |(a, b): &(Vec<u64>, Vec<u64>)| {
            let mut ha = Histogram::default();
            let mut hb = Histogram::default();
            let mut hu = Histogram::default();
            for &v in a {
                ha.record(v);
                hu.record(v);
            }
            for &v in b {
                hb.record(v);
                hu.record(v);
            }
            ha.merge(&hb);
            prop_assert_eq!(ha.count(), hu.count());
            for &q in &[0.1, 0.5, 0.9, 1.0] {
                prop_assert_eq!(ha.quantile(q), hu.quantile(q));
            }
            prop_assert_eq!(ha.max(), hu.max());
            prop_assert_eq!(ha.min(), hu.min());
            Ok(())
        }
    );
}

// ---------------------------------------------------------------------------
// Distributions
// ---------------------------------------------------------------------------

/// A plain-data distribution descriptor: generated (and shrunk) as
/// primitives, turned into a [`Dist`] inside the property. `kind`
/// selects the family, `p1`/`p2` are uniform in `[0, 1)` and mapped to
/// each family's parameter ranges.
type DistSpec = (u8, f64, f64);

fn arb_dist_spec(rng: &mut Rng) -> DistSpec {
    (gen::u8_in(rng, 0, 6), rng.f64(), rng.f64())
}

fn make_dist((kind, p1, p2): DistSpec) -> Dist {
    let p1 = p1.clamp(0.0, 1.0);
    let p2 = p2.clamp(0.0, 1.0);
    match kind % 6 {
        0 => Dist::constant(p1 * 1e6),
        1 => {
            let lo = 0.1 + p1 * 1e5;
            let f = 1.0 + p2;
            Dist::uniform(lo, lo * f + 1.0)
        }
        2 => Dist::exp(0.1 + p1 * 1e5),
        3 => Dist::erlang(1 + (p1 * 7.0) as u32, 0.1 + p2 * 1e5),
        4 => Dist::log_normal(0.1 + p1 * 1e5, 0.05 + p2 * 1.15),
        _ => {
            let lo = 1.0 + p2 * 99.0;
            Dist::pareto(1.05 + p1 * 1.95, lo, lo * 50.0)
        }
    }
}

/// All samples are non-negative and finite; the empirical mean of many
/// samples approaches the analytic mean.
#[test]
fn dist_samples_sane() {
    prop!(
        |rng| (arb_dist_spec(rng), gen::u64_in(rng, 0, 1_000_000)),
        |&(spec, seed): &(DistSpec, u64)| {
            let d = make_dist(spec);
            let mut rng = Rng::new(seed);
            let n = 30_000;
            let mut sum = 0.0;
            for _ in 0..n {
                let x = d.sample(&mut rng);
                prop_assert!(x.is_finite() && x >= 0.0, "bad sample {x} from {d:?}");
                sum += x;
            }
            let mean = sum / n as f64;
            let analytic = d.mean();
            prop_assert!(
                (mean - analytic).abs() <= analytic * 0.2 + 1e-6,
                "{d:?}: empirical {mean} vs analytic {analytic}"
            );
            Ok(())
        }
    );
}

/// Scaling a distribution scales its mean exactly.
#[test]
fn dist_scaled_mean() {
    prop!(
        |rng| (arb_dist_spec(rng), gen::f64_in(rng, 0.1, 10.0)),
        |&(spec, k): &(DistSpec, f64)| {
            let d = make_dist(spec);
            let k = k.abs().clamp(0.1, 10.0);
            let s = d.scaled(k);
            prop_assert!(
                (s.mean() - d.mean() * k).abs() <= d.mean() * k * 1e-9 + 1e-9,
                "{d:?} scaled by {k}"
            );
            Ok(())
        }
    );
}

/// Zipf pmf is a normalized, non-increasing distribution.
#[test]
fn zipf_pmf_valid() {
    prop!(
        |rng| (gen::usize_in(rng, 1, 2000), gen::f64_in(rng, 0.0, 3.0)),
        |&(n, s): &(usize, f64)| {
            let n = n.max(1);
            let s = s.abs().min(3.0);
            let z = Zipf::new(n, s);
            let mut total = 0.0;
            let mut prev = f64::INFINITY;
            for i in 0..n {
                let p = z.pmf(i);
                prop_assert!(p >= -1e-12);
                prop_assert!(p <= prev + 1e-12, "pmf not monotone at {i}");
                prev = p;
                total += p;
            }
            prop_assert!((total - 1.0).abs() < 1e-9);
            Ok(())
        }
    );
}

// ---------------------------------------------------------------------------
// Scheduler ordering
// ---------------------------------------------------------------------------

struct Recorder {
    seen: Vec<(u64, usize)>,
}

enum REv {
    Tag(usize),
}

impl Model for Recorder {
    type Event = REv;
    fn handle(&mut self, sched: &mut Scheduler<REv>, ev: REv) {
        let REv::Tag(i) = ev;
        self.seen.push((sched.now().as_nanos(), i));
    }
}

/// Events fire in non-decreasing time order; equal times preserve the
/// schedule order.
#[test]
fn scheduler_total_order() {
    prop!(
        |rng| gen::vec_with(rng, 1, 300, |r| gen::u64_in(r, 0, 1_000)),
        |times: &Vec<u64>| {
            let mut sched = Scheduler::new(0);
            for (i, &t) in times.iter().enumerate() {
                sched.schedule_at(SimTime::from_nanos(t), REv::Tag(i));
            }
            let mut m = Recorder { seen: Vec::new() };
            sched.run(&mut m);
            prop_assert_eq!(m.seen.len(), times.len());
            for w in m.seen.windows(2) {
                prop_assert!(w[0].0 <= w[1].0, "time went backwards");
                if w[0].0 == w[1].0 {
                    prop_assert!(w[0].1 < w[1].1, "tie not FIFO");
                }
            }
            Ok(())
        }
    );
}

// ---------------------------------------------------------------------------
// Windowed series
// ---------------------------------------------------------------------------

/// A sample landing exactly on a window edge is assigned to exactly one
/// window (the one opening at that instant), and counts are conserved
/// across the rollover: recording at `k*w - 1`, `k*w`, and `k*w + 1`
/// yields one sample left of the edge and two in the new window.
#[test]
fn windowed_series_edge_samples_land_in_one_window() {
    prop!(
        |rng| {
            (
                gen::u64_in(rng, 1, 10_000),
                gen::vec_with(rng, 1, 100, |r| gen::u64_in(r, 1, 200)),
            )
        },
        |&(w, ref ks): &(u64, Vec<u64>)| {
            let w = w.max(1);
            let window = SimDuration::from_nanos(w);
            for &k in ks {
                let k = k.max(1);
                let edge = k * w;
                let mut s = WindowedSeries::new(window);
                s.record(SimTime::from_nanos(edge), 1);
                // Exactly one window holds the edge sample...
                let holders: Vec<usize> =
                    (0..s.window_count()).filter(|&i| s.count(i) > 0).collect();
                prop_assert_eq!(holders.len(), 1, "edge {edge} w {w}");
                // ...and it is the window that *opens* at the edge.
                prop_assert_eq!(holders[0], k as usize);
                // Rollover conserves counts: neighbors split around the edge.
                s.record(SimTime::from_nanos(edge - 1), 2);
                if w > 1 {
                    prop_assert_eq!(s.count(k as usize - 1), 1);
                    prop_assert_eq!(s.count(k as usize), 1);
                }
                s.record(SimTime::from_nanos(edge + 1), 3);
                let total: u64 = (0..s.window_count()).map(|i| s.count(i)).sum();
                prop_assert_eq!(total, 3);
            }
            Ok(())
        }
    );
}

/// Windowed series place every sample in exactly one window.
#[test]
fn windowed_series_conserves_counts() {
    prop!(
        |rng| {
            gen::vec_with(rng, 0, 300, |r| {
                (gen::u64_in(r, 0, 10_000_000), gen::u64_in(r, 0, 1000))
            })
        },
        |samples: &Vec<(u64, u64)>| {
            let mut s = WindowedSeries::new(SimDuration::from_micros(100));
            for &(at, v) in samples {
                s.record(SimTime::from_nanos(at), v);
            }
            let total: u64 = (0..s.window_count()).map(|i| s.count(i)).sum();
            prop_assert_eq!(total, samples.len() as u64);
            prop_assert_eq!(s.merged_range(0, usize::MAX).count(), samples.len() as u64);
            Ok(())
        }
    );
}
