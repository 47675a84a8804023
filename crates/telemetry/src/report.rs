//! Export: JSONL (one object per scrape window / alert / root cause)
//! and a `dsb-top`-style text table.
//!
//! Everything here is rendered from the deterministic registry with
//! fixed-precision number formatting, so reports are byte-identical
//! across reruns at the same seed and golden-testable.

use std::fmt::Write as _;

use dsb_core::Simulation;

use crate::registry::{names, Labels};
use crate::rootcause::RootCause;
use crate::scrape::Scraper;
use crate::slo::Alert;

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn service_name(sim: &Simulation, id: u32) -> String {
    sim.app()
        .services
        .get(id as usize)
        .map_or_else(|| format!("svc{id}"), |s| s.name.clone())
}

/// Renders the full run as JSON Lines: one `scrape` object per scrape
/// window, then one `alert` object per alert and one `root_cause` object
/// per diagnosis, in that order.
pub fn jsonl(
    sim: &Simulation,
    scraper: &Scraper,
    alerts: &[Alert],
    causes: &[RootCause],
) -> String {
    let reg = scraper.registry();
    let nsvc = sim.app().service_count();
    let mut out = String::new();
    for w in 0..scraper.scrapes() {
        let _ = write!(
            out,
            "{{\"type\":\"scrape\",\"window\":{w},\"interval_ms\":{:.3}",
            scraper.interval().as_millis_f64()
        );
        out.push_str(",\"services\":[");
        for i in 0..nsvc {
            let l = Labels::service(i as u32);
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"queue\":{},\"inflight\":{},\"occ\":{:.3},\
                 \"instances\":{},\"invocations\":{},\"dropped\":{}}}",
                esc(&service_name(sim, i as u32)),
                reg.window_mean(names::QUEUE_DEPTH, &l, w).round() as u64,
                reg.window_mean(names::INFLIGHT, &l, w).round() as u64,
                reg.window_mean(names::OCCUPANCY_PERMILLE, &l, w) / 1000.0,
                reg.window_mean(names::INSTANCES, &l, w).round() as u64,
                reg.window_sum(names::INVOCATIONS, &l, w),
                reg.window_sum(names::DROPPED, &l, w),
            );
        }
        out.push_str("],\"pools\":[");
        let mut first = true;
        for (name, l) in reg.keys() {
            if name != names::CONN_WAITERS {
                continue;
            }
            let (Some(s), Some(t)) = (l.service, l.target) else {
                continue;
            };
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"from\":\"{}\",\"to\":\"{}\",\"in_use\":{},\"limit\":{},\"waiters\":{}}}",
                esc(&service_name(sim, s)),
                esc(&service_name(sim, t)),
                reg.window_mean(names::CONN_IN_USE, l, w).round() as u64,
                reg.window_mean(names::CONN_LIMIT, l, w).round() as u64,
                reg.window_mean(names::CONN_WAITERS, l, w).round() as u64,
            );
        }
        out.push_str("],\"machines\":{");
        let (mut busy, mut cores, mut runq) = (0u64, 0u64, 0u64);
        for m in 0..sim.machine_count() {
            let lm = Labels::machine(m as u32);
            busy += reg.window_mean(names::BUSY_CORES, &lm, w).round() as u64;
            cores += reg.window_mean(names::CORES, &lm, w).round() as u64;
            runq += reg.window_mean(names::RUN_QUEUE, &lm, w).round() as u64;
        }
        let _ = write!(
            out,
            "\"busy_cores\":{busy},\"cores\":{cores},\"run_queue\":{runq}}}"
        );
        out.push_str(",\"requests\":[");
        let mut first = true;
        for r in 0..sim.request_type_count() {
            let lr = Labels::rtype(r as u32);
            if reg.window_count(names::ISSUED, &lr) == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"rtype\":{r},\"issued\":{},\"completed\":{},\"rejected\":{}",
                reg.window_sum(names::ISSUED, &lr, w),
                reg.window_sum(names::COMPLETED, &lr, w),
                reg.window_sum(names::REJECTED, &lr, w),
            );
            if reg.window_count(names::SLO_TOTAL, &lr) > 0 {
                let _ = write!(
                    out,
                    ",\"slo_good\":{},\"slo_total\":{}",
                    reg.window_sum(names::SLO_GOOD, &lr, w),
                    reg.window_sum(names::SLO_TOTAL, &lr, w),
                );
            }
            out.push('}');
        }
        out.push_str("]}\n");
    }
    for a in alerts {
        let _ = writeln!(
            out,
            "{{\"type\":\"alert\",\"rtype\":{},\"first_window\":{},\"last_window\":{},\
             \"peak_short_burn\":{:.2},\"peak_long_burn\":{:.2},\"violations\":{},\"total\":{}}}",
            a.rtype.0,
            a.first_window,
            a.last_window,
            a.peak_short,
            a.peak_long,
            a.violations,
            a.total,
        );
    }
    for rc in causes {
        let _ = write!(
            out,
            "{{\"type\":\"root_cause\",\"rtype\":{},\"first_window\":{},\"last_window\":{},\
             \"culprit\":\"{}\",\"chain\":[",
            rc.rtype.0,
            rc.first_window,
            rc.last_window,
            esc(&service_name(sim, rc.culprit)),
        );
        for (i, t) in rc.chain.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"service\":\"{}\",\"queue\":{:.1},\"conn_occupancy\":{:.2},\"conn_waiters\":{:.1}}}",
                esc(&service_name(sim, t.service)),
                t.mean_queue_depth,
                t.conn_occupancy,
                t.conn_waiters,
            );
        }
        out.push_str("],\"attribution\":[");
        for (i, &(svc, share)) in rc.attribution.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "[\"{}\",{:.3}]", esc(&service_name(sim, svc)), share);
        }
        out.push(']');
        if let Some(ev) = &rc.fault {
            let _ = write!(
                out,
                ",\"fault\":{{\"instances_down\":{},\"partition_edges\":{},\"refill_misses\":{}",
                ev.instances_down, ev.partition_edges, ev.refill_misses,
            );
            if let Some(t) = ev.refill_top {
                let _ = write!(out, ",\"refill_top\":\"{}\"", esc(&service_name(sim, t)));
            }
            out.push('}');
        }
        let _ = writeln!(out, ",\"traces\":{}}}", rc.traces);
    }
    out
}

/// Renders a `dsb-top`-style text table: one row per service with
/// run-aggregated telemetry, followed by alert and root-cause lines.
pub fn top(
    sim: &Simulation,
    scraper: &Scraper,
    alerts: &[Alert],
    causes: &[RootCause],
    title: &str,
) -> String {
    let reg = scraper.registry();
    let n = scraper.scrapes();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "dsb-top — {title} ({n} windows x {:.0} ms)",
        scraper.interval().as_millis_f64()
    );
    let _ = writeln!(
        out,
        "{:<22}{:>6}{:>7}{:>8}{:>8}{:>10}{:>7}{:>11}",
        "SERVICE", "INST", "OCC", "QUEUE", "INFLT", "INVOC", "DROP", "P99(ms)"
    );
    for i in 0..sim.app().service_count() {
        let l = Labels::service(i as u32);
        let last = n.saturating_sub(1);
        let p99 = sim
            .collector()
            .service(i as u32)
            .map_or(0.0, |s| s.p(0.99).as_millis_f64());
        let _ = writeln!(
            out,
            "{:<22}{:>6}{:>7.2}{:>8.1}{:>8.1}{:>10}{:>7}{:>11.3}",
            service_name(sim, i as u32),
            reg.window_mean(names::INSTANCES, &l, last).round() as u64,
            reg.range_mean(names::OCCUPANCY_PERMILLE, &l, 0, n) / 1000.0,
            reg.range_mean(names::QUEUE_DEPTH, &l, 0, n),
            reg.range_mean(names::INFLIGHT, &l, 0, n),
            reg.range_sum(names::INVOCATIONS, &l, 0, n),
            reg.range_sum(names::DROPPED, &l, 0, n),
            p99,
        );
    }
    out.push_str(&alert_lines(sim, alerts, causes));
    out
}

/// Renders the ALERT / ROOT CAUSE lines of a run on their own — the tail
/// of [`top`], reusable under any other table.
pub fn alert_lines(sim: &Simulation, alerts: &[Alert], causes: &[RootCause]) -> String {
    let mut out = String::new();
    if alerts.is_empty() {
        out.push_str("no SLO alerts\n");
    }
    for a in alerts {
        let _ = writeln!(
            out,
            "ALERT rtype={}: windows {}..{}, burn short {:.1} long {:.1} ({}/{} over SLO)",
            a.rtype.0,
            a.first_window,
            a.last_window,
            a.peak_short,
            a.peak_long,
            a.violations,
            a.total,
        );
    }
    for rc in causes {
        let chain = rc
            .chain
            .iter()
            .map(|t| service_name(sim, t.service))
            .collect::<Vec<_>>()
            .join(" -> ");
        let evidence = rc
            .chain
            .first()
            .filter(|t| t.conn_waiters > 0.0)
            .map(|t| {
                format!(
                    "; `{}` conn pool {:.0}% occupied, {:.1} waiters avg",
                    service_name(sim, t.service),
                    t.conn_occupancy * 100.0,
                    t.conn_waiters,
                )
            })
            .unwrap_or_default();
        let attr = rc
            .attribution
            .iter()
            .map(|&(s, share)| format!("{} {:.0}%", service_name(sim, s), share * 100.0))
            .collect::<Vec<_>>()
            .join(", ");
        let fault = rc
            .fault
            .as_ref()
            .map(|ev| {
                let top = ev
                    .refill_top
                    .map(|t| format!(" (top `{}`)", service_name(sim, t)))
                    .unwrap_or_default();
                format!(
                    "; fault plane: {} down, {} partitioned, {} cold refills{top}",
                    ev.instances_down, ev.partition_edges, ev.refill_misses,
                )
            })
            .unwrap_or_default();
        let _ = writeln!(
            out,
            "ROOT CAUSE rtype={}: `{}` — chain {chain}{evidence}; critical path: {attr}{fault}; {} traces",
            rc.rtype.0,
            service_name(sim, rc.culprit),
            rc.traces,
        );
    }
    out
}

/// Renders a [`crate::DetectionScore`] as text: the headline precision /
/// recall line, then one line per injected fault with its detection
/// latency and the measured recovery time.
pub fn detection_lines(sim: &Simulation, score: &crate::DetectionScore) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "DETECTION precision {:.2} recall {:.2} ({} true, {} false alerts, {} faults)",
        score.precision,
        score.recall,
        score.true_alerts,
        score.false_alerts,
        score.detections.len(),
    );
    for d in &score.detections {
        let f = &d.fault;
        let _ = write!(
            out,
            "  fault {} @{:.0}..{:.0}ms: ",
            f.label,
            f.from.since(dsb_simcore::SimTime::ZERO).as_millis_f64(),
            f.until.since(dsb_simcore::SimTime::ZERO).as_millis_f64(),
        );
        if !d.detected {
            out.push_str("MISSED\n");
            continue;
        }
        let _ = write!(
            out,
            "detected w{}, ttd {:.0} ms, recovered {:.0} ms",
            d.detect_window.expect("detected"),
            d.time_to_detect.expect("detected").as_millis_f64(),
            d.time_to_recover.expect("detected").as_millis_f64(),
        );
        match (d.culprit_named, f.culprit) {
            (Some(true), Some(c)) => {
                let _ = write!(out, ", culprit `{}` named", service_name(sim, c.0));
            }
            (Some(false), Some(c)) => {
                let _ = write!(out, ", culprit `{}` NOT named", service_name(sim, c.0));
            }
            _ => {}
        }
        out.push('\n');
    }
    out
}

/// Convenience: evaluates every SLO registered on the scraper with
/// `rule`, diagnoses each alert, and returns `(alerts, causes)` — the
/// inputs [`jsonl`] and [`top`] take.
pub fn analyze(
    sim: &Simulation,
    scraper: &Scraper,
    rule: &crate::slo::BurnRule,
) -> (Vec<Alert>, Vec<RootCause>) {
    let mut alerts = Vec::new();
    for slo in scraper.slos() {
        alerts.extend(crate::slo::evaluate(scraper.registry(), slo, rule));
    }
    alerts.sort_by_key(|a| (a.first_window, a.rtype.0));
    let causes = alerts
        .iter()
        .filter_map(|a| crate::rootcause::diagnose(sim, scraper.registry(), a))
        .collect();
    (alerts, causes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_json_strings() {
        assert_eq!(esc("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(esc("tab\there"), "tab\\u0009here");
    }
}
