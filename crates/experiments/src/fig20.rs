//! Fig. 20 — microservices take longer than monoliths to recover from a
//! QoS violation, even with autoscaling.
//!
//! Both deployments see the same load spike and run the same
//! utilization-threshold autoscaler. The monolith's scaler has exactly one
//! knob (add monolith instances) and recovers as soon as they boot; the
//! microservice deployment upsizes whichever tiers *look* saturated —
//! backpressure makes that signal misleading, so it takes several rounds
//! (and several instance-startup delays) to find and fix the real culprit,
//! during which queues keep growing. The paper also quotes a 10.4× tail
//! degradation from mismanaging a single dependency; we report the peak
//! tail ratio between the two deployments.
//!
//! Recovery is read from an SLO alert on the scraped `slo_good` /
//! `slo_total` counters, the same burn-rate machinery `dsb-report` and
//! the chaos scorer use.

use dsb_apps::{monolith, social, BuiltApp};
use dsb_cluster::{Autoscaler, ScalePolicy};
use dsb_core::{RequestType, ServiceId};
use dsb_simcore::{SimDuration, SimTime};
use dsb_telemetry::{evaluate, Alert, BurnRule, Scraper, Slo};

use crate::harness::{build_sim, drive_ticked, make_cluster, merged_latency};
use crate::report::Table;
use crate::Scale;

/// Fires on every window in which at least 1 % of completions miss the
/// p99 target, i.e. the window's p99 is over target.
const VIOLATING_WINDOW: BurnRule = BurnRule {
    short: 1,
    long: 1,
    factor: 1.0,
};

/// Timeline of one deployment under the spike.
pub struct Recovery {
    /// Per-second merged p99 in ms.
    pub p99_ms: Vec<f64>,
    /// Time from QoS violation to recovery, if recovered.
    pub recovery: Option<SimDuration>,
    /// Scaling actions taken.
    pub actions: usize,
    /// Peak p99 (ms) after the spike started.
    pub peak_ms: f64,
}

fn run_one(app: &BuiltApp, base_qps: f64, spike_qps: f64, secs: u64, seed: u64) -> Recovery {
    let spike_at = secs / 4;
    let spike_until = secs / 2;
    let (mut sim, mut load) = build_sim(app, make_cluster(12), seed);
    // Real cluster managers bound churn: a few scale-outs per decision
    // interval, granted to the most-utilized services. The monolith's one
    // knob always wins the budget; the microservice deployment spends
    // rounds on backpressured (blocked-but-busy) tiers first.
    let mut scaler = Autoscaler::new(ScalePolicy {
        cooldown: SimDuration::from_secs(10),
        max_instances: 40,
        ..ScalePolicy::default()
    })
    .with_budget(3);
    for i in 0..app.spec.service_count() {
        scaler.manage(ServiceId(i as u32));
    }
    let slo = Slo::p99(RequestType(0), app.qos_p99);
    let mut scraper = Scraper::new(SimDuration::from_secs(1)).with_slo(slo);
    let mut p99_ms = Vec::new();
    {
        let scaler = &mut scaler;
        let scraper = &mut scraper;
        let p99 = &mut p99_ms;
        drive_ticked(
            &mut sim,
            &mut load,
            0,
            secs,
            |t| {
                let s = t.as_secs_f64() as u64;
                if s >= spike_at && s < spike_until {
                    spike_qps
                } else {
                    base_qps
                }
            },
            &mut |sim, s| {
                scaler.tick(sim);
                scraper.tick(sim, SimTime::from_secs(s + 1));
                p99.push(merged_latency(sim, s, s + 1).quantile(0.99) as f64 / 1e6);
            },
        );
    }
    let peak_ms = p99_ms[spike_at as usize..]
        .iter()
        .copied()
        .fold(0.0, f64::max);
    let alerts = evaluate(scraper.registry(), &slo, &VIOLATING_WINDOW);
    Recovery {
        p99_ms,
        recovery: recovery(&alerts, scraper.scrapes(), scraper.interval()),
        actions: scaler.events().len(),
        peak_ms,
    }
}

/// Time from QoS violation to recovery: the first alert's span in
/// `interval`-wide windows. `None` when nothing fired, or when the first
/// alert is still firing in the last of the `scrapes` windows.
fn recovery(alerts: &[Alert], scrapes: usize, interval: SimDuration) -> Option<SimDuration> {
    let first = alerts.first()?;
    (first.last_window + 1 < scrapes)
        .then(|| interval * (first.last_window + 1 - first.first_window) as u64)
}

/// Runs both deployments; returns `(microservices, monolith)`.
///
/// Apps are shrunk (worker pools / 8) so the spike is affordable to
/// simulate; the spike is sized at 1.6x each deployment's own measured
/// capacity so both are pushed equally far past saturation.
pub fn compare(scale: Scale, seed: u64) -> (Recovery, Recovery) {
    let secs = scale.secs(120);
    let micro_app = crate::harness::shrink(&social::social_network(), 8);
    let mono_app = crate::harness::shrink(&monolith::social_monolith(), 8);
    let cluster = make_cluster(12);
    let cal_secs = scale.secs(6);
    let micro_cap = crate::harness::max_qps_under_qos(
        &micro_app,
        &cluster,
        &|_| {},
        micro_app.qos_p99,
        cal_secs,
        seed,
    )
    .max(50.0);
    let mono_cap = crate::harness::max_qps_under_qos(
        &mono_app,
        &cluster,
        &|_| {},
        mono_app.qos_p99,
        cal_secs,
        seed,
    )
    .max(50.0);
    let micro = run_one(&micro_app, 0.4 * micro_cap, 1.6 * micro_cap, secs, seed);
    let mono = run_one(&mono_app, 0.4 * mono_cap, 1.6 * mono_cap, secs, seed);
    (micro, mono)
}

/// Regenerates Fig. 20.
pub fn run(scale: Scale) -> String {
    let (micro, mono) = compare(scale, 140);
    let mut t = Table::new(
        "Fig 20: recovery from a QoS violation (load spike), autoscaling on",
        &["t (s)", "microservices p99 (ms)", "monolith p99 (ms)"],
    );
    for (s, (a, b)) in micro.p99_ms.iter().zip(&mono.p99_ms).enumerate() {
        t.row_owned(vec![s.to_string(), format!("{a:.2}"), format!("{b:.2}")]);
    }
    let fmt = |r: &Recovery| {
        format!(
            "peak p99 {:.1}ms, scaling actions {}, recovery {}",
            r.peak_ms,
            r.actions,
            r.recovery
                .map_or("none within run".to_string(), |d| format!("{d}"))
        )
    };
    format!(
        "{}\nmicroservices: {}\nmonolith:      {}\npeak tail ratio (micro/mono): {:.1}x\n",
        t.render(),
        fmt(&micro),
        fmt(&mono),
        micro.peak_ms / mono.peak_ms.max(0.001)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spike_violates_and_scaler_works_far_harder_for_microservices() {
        let (micro, mono) = compare(Scale::Quick, 3);
        // Both deployments must experience the violation...
        assert!(micro.peak_ms > 5.0, "micro peak {}", micro.peak_ms);
        assert!(mono.peak_ms > 5.0, "mono peak {}", mono.peak_ms);
        // ...and the microservice deployment needs many times more
        // scaling actions to contain it (the monolith has one knob).
        assert!(
            micro.actions > 3 * mono.actions,
            "micro actions {} vs mono {}",
            micro.actions,
            mono.actions
        );
    }

    fn alert(first_window: usize, last_window: usize) -> Alert {
        Alert {
            rtype: RequestType(0),
            first_window,
            last_window,
            peak_short: 50.0,
            peak_long: 50.0,
            violations: 10,
            total: 100,
        }
    }

    #[test]
    fn recovery_is_the_first_ended_alerts_span() {
        let s = SimDuration::from_secs(1);
        let alerts = [alert(3, 7), alert(9, 9)];
        assert_eq!(recovery(&alerts, 12, s), Some(SimDuration::from_secs(5)));
        assert_eq!(
            recovery(&alerts[1..], 12, s / 4),
            Some(SimDuration::from_millis(250))
        );
    }

    #[test]
    fn alert_firing_in_the_last_window_is_no_recovery() {
        let s = SimDuration::from_secs(1);
        assert_eq!(recovery(&[alert(3, 11)], 12, s), None);
        assert_eq!(recovery(&[alert(3, 10)], 12, s), Some(s * 8));
    }

    #[test]
    fn no_alert_is_no_recovery() {
        assert_eq!(recovery(&[], 12, SimDuration::from_secs(1)), None);
    }
}
