//! Service-level objectives and multi-window burn-rate alerting.

use dsb_core::RequestType;
use dsb_simcore::SimDuration;

use crate::registry::{names, Labels, Registry};

/// A latency objective for one request type: at least `objective` of
/// completions must finish within `latency`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slo {
    /// The request type the objective covers.
    pub rtype: RequestType,
    /// The latency target.
    pub latency: SimDuration,
    /// Required fraction of completions within target (e.g. `0.99`).
    pub objective: f64,
}

impl Slo {
    /// A p99-style objective: 99 % of `rtype` completions within `latency`.
    pub fn p99(rtype: RequestType, latency: SimDuration) -> Self {
        Slo {
            rtype,
            latency,
            objective: 0.99,
        }
    }

    /// The error budget: the tolerated violating fraction.
    pub fn budget(&self) -> f64 {
        (1.0 - self.objective).max(1e-9)
    }
}

/// A multi-window burn-rate rule (the SRE-workbook alert shape): fire
/// when the violation rate burns the error budget at `factor`× or more
/// over *both* a short and a long trailing window. The short window
/// makes alerts recent, the long one makes them persistent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurnRule {
    /// Short trailing window, in scrape windows.
    pub short: usize,
    /// Long trailing window, in scrape windows.
    pub long: usize,
    /// Burn-rate threshold (1.0 = exactly exhausting the budget).
    pub factor: f64,
}

impl Default for BurnRule {
    fn default() -> Self {
        BurnRule {
            short: 1,
            long: 4,
            factor: 10.0,
        }
    }
}

/// A deterministic SLO alert: a maximal run of scrape windows in which
/// both burn rates stayed at or above the rule's factor.
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// Request type whose SLO is burning.
    pub rtype: RequestType,
    /// First scrape window of the violation.
    pub first_window: usize,
    /// Last scrape window of the violation (inclusive).
    pub last_window: usize,
    /// Highest short-window burn rate seen while firing.
    pub peak_short: f64,
    /// Highest long-window burn rate seen while firing.
    pub peak_long: f64,
    /// Completions over SLO target across the alert span.
    pub violations: u64,
    /// Completions measured across the alert span.
    pub total: u64,
}

/// Evaluates one SLO against the scraped `slo_good` / `slo_total`
/// counters, returning coalesced alerts in window order. Walks the whole
/// timeline, so it can run once after a simulation (or incrementally on
/// a growing registry — results for completed windows never change).
pub fn evaluate(reg: &Registry, slo: &Slo, rule: &BurnRule) -> Vec<Alert> {
    let labels = Labels::rtype(slo.rtype.0);
    let n = reg.window_count(names::SLO_TOTAL, &labels);
    let budget = slo.budget();
    let burn_over = |w: usize, wins: usize| -> f64 {
        let from = (w + 1).saturating_sub(wins.max(1));
        let total = reg.range_sum(names::SLO_TOTAL, &labels, from, w + 1);
        let good = reg.range_sum(names::SLO_GOOD, &labels, from, w + 1);
        if total == 0 {
            return 0.0;
        }
        (total.saturating_sub(good) as f64 / total as f64) / budget
    };
    let mut alerts = Vec::new();
    let mut active: Option<Alert> = None;
    for w in 0..n {
        let short = burn_over(w, rule.short);
        let long = burn_over(w, rule.long);
        if short >= rule.factor && long >= rule.factor {
            match &mut active {
                Some(a) => {
                    a.last_window = w;
                    a.peak_short = a.peak_short.max(short);
                    a.peak_long = a.peak_long.max(long);
                }
                None => {
                    active = Some(Alert {
                        rtype: slo.rtype,
                        first_window: w,
                        last_window: w,
                        peak_short: short,
                        peak_long: long,
                        violations: 0,
                        total: 0,
                    })
                }
            }
        } else if let Some(a) = active.take() {
            alerts.push(a);
        }
    }
    alerts.extend(active);
    for a in &mut alerts {
        let (from, to) = (a.first_window, a.last_window + 1);
        a.total = reg.range_sum(names::SLO_TOTAL, &labels, from, to);
        let good = reg.range_sum(names::SLO_GOOD, &labels, from, to);
        a.violations = a.total.saturating_sub(good);
    }
    alerts
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsb_simcore::SimTime;

    fn feed(reg: &mut Registry, window: usize, good: u64, total: u64) {
        let at = SimTime::from_millis(window as u64 * 1000 + 500);
        let l = Labels::rtype(0);
        // Cumulative totals: re-derive from what is already recorded.
        let prev_total = reg.range_sum(names::SLO_TOTAL, &l, 0, window);
        let prev_good = reg.range_sum(names::SLO_GOOD, &l, 0, window);
        reg.counter(names::SLO_TOTAL, l, at, prev_total + total);
        reg.counter(names::SLO_GOOD, l, at, prev_good + good);
    }

    fn slo() -> Slo {
        Slo::p99(RequestType(0), SimDuration::from_millis(5))
    }

    #[test]
    fn healthy_run_never_fires() {
        let mut reg = Registry::new(SimDuration::from_secs(1));
        for w in 0..10 {
            feed(&mut reg, w, 100, 100);
        }
        assert!(evaluate(&reg, &slo(), &BurnRule::default()).is_empty());
    }

    #[test]
    fn sustained_violation_fires_and_coalesces() {
        let mut reg = Registry::new(SimDuration::from_secs(1));
        // Two healthy windows, then 50% of requests blow the target.
        for w in 0..2 {
            feed(&mut reg, w, 100, 100);
        }
        for w in 2..8 {
            feed(&mut reg, w, 50, 100);
        }
        let alerts = evaluate(&reg, &slo(), &BurnRule::default());
        assert_eq!(alerts.len(), 1, "{alerts:?}");
        let a = &alerts[0];
        // Long window (4) still contains healthy windows at w=2; burn
        // crosses 10x once the violation dominates it.
        assert!(a.first_window >= 2 && a.first_window <= 3);
        assert_eq!(a.last_window, 7);
        assert!(a.peak_short >= 49.0, "short {}", a.peak_short);
        assert!(a.violations > 0 && a.violations <= a.total);
    }

    #[test]
    fn brief_blip_below_long_window_does_not_fire() {
        let mut reg = Registry::new(SimDuration::from_secs(1));
        // One bad window in a sea of good ones: the long window dilutes
        // it below the factor (50% of 1 of 4 windows = 12.5x... use a
        // milder blip: 8% violations for one window = 8x short burn).
        for w in 0..8 {
            let good = if w == 4 { 92 } else { 100 };
            feed(&mut reg, w, good, 100);
        }
        assert!(evaluate(&reg, &slo(), &BurnRule::default()).is_empty());
    }

    #[test]
    fn empty_windows_read_as_zero_burn() {
        let mut reg = Registry::new(SimDuration::from_secs(1));
        feed(&mut reg, 0, 0, 0);
        assert!(evaluate(&reg, &slo(), &BurnRule::default()).is_empty());
    }
}
