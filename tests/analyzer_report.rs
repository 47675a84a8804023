//! Pins the static-analysis report of every built-in application (plus
//! nine deliberate defect demos) to a golden fixture, so any change to a
//! diagnostic's wording, ordering, or firing conditions shows up as a
//! reviewable line diff. Every app is analyzed against the same
//! reference cluster the golden traces run on, with a 1-second DSB012
//! calibration window. A built-in app must analyze clean: any finding
//! on one fails before the fixture is compared or rewritten, so a bless
//! cannot pin it. Regenerate with:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --offline --test analyzer_report
//! ```

mod common;

use std::fmt::Write;

use deathstarbench_sim::analyzer::{Analyzer, Diagnostic};
use deathstarbench_sim::apps::{self, BuiltApp};
use dsb_testkit::golden;

fn report(out: &mut String, title: &str, app: &BuiltApp, qps: f64) -> Vec<Diagnostic> {
    let cluster = common::fixed_cluster();
    let mut an = Analyzer::new(&app.spec)
        .entry(app.frontend)
        .cluster(&cluster)
        .calibration(1.0)
        .slo(app.qos_p99);
    let total_weight: f64 = app.mix.entries().iter().map(|e| e.weight).sum();
    for e in app.mix.entries() {
        an = an.offered(e.entry, qps * e.weight / total_weight);
    }
    writeln!(out, "== {title} (qps {qps}) ==").unwrap();
    let diags = an.run();
    if diags.is_empty() {
        writeln!(out, "clean").unwrap();
    }
    for d in &diags {
        writeln!(out, "{d}").unwrap();
    }
    writeln!(out).unwrap();
    diags
}

#[test]
fn golden_analyzer_report() {
    let mut text = String::new();
    let mut findings = String::new();
    for (name, qps, app) in apps::all_builtin() {
        for d in report(&mut text, name, &app, qps) {
            writeln!(findings, "  {name}: {d}").unwrap();
        }
    }
    assert!(
        findings.is_empty(),
        "built-in apps must analyze clean; fix the app, not the fixture:\n{findings}"
    );
    // Defect demos: the analyzer must call out specs built to be broken.
    // The Fig. 17 case-B shape — 64 blocking nginx workers sharing a
    // 2-connection pool toward memcached.
    report(
        &mut text,
        "defect demo: twotier(64, 2)",
        &apps::twotier::twotier(64, 2),
        200.0,
    );
    // A single MongoDB tier offered far more load than 64 workers of
    // ~0.55 ms requests can absorb.
    report(
        &mut text,
        "defect demo: overloaded mongodb",
        &apps::singles::mongodb(),
        150_000.0,
    );
    // Four co-located encode stages overcommitting one machine's cores
    // while every per-tier check stays comfortable.
    report(
        &mut text,
        "defect demo: colocated encoders",
        &apps::defects::colocated_encoders(),
        5500.0,
    );
    // A 16-wide fan-out synchronizing arrivals over a 4-worker store:
    // only the calibration run sees the queueing.
    report(
        &mut text,
        "defect demo: burst chain",
        &apps::defects::burst_chain(),
        5.0,
    );
    // Fig. 17 case B at runtime: a 1-connection pool toward memcached
    // burns the SLO while nginx looks busy and memcached looks idle —
    // only the scraped calibration run (DSB013) names the real culprit.
    report(
        &mut text,
        "defect demo: twotier(64, 1) saturated",
        &apps::twotier::twotier(64, 1),
        30_000.0,
    );
    // Two blocking tiers calling each other: the call cycle (DSB001)
    // doubles as a circular wait across both worker pools (DSB014).
    report(
        &mut text,
        "defect demo: wait loop",
        &apps::defects::wait_loop(),
        50.0,
    );
    // An edge-zone gossip pair whose cross-drone hop certifies less
    // lookahead than one loopback epoch (DSB015).
    report(
        &mut text,
        "defect demo: edge gossip",
        &apps::defects::edge_gossip(),
        20.0,
    );
    // A cache-aside write path ordered cache-first: a reader refilling
    // inside the window resurrects pre-write state (DSB016).
    report(
        &mut text,
        "defect demo: stale refill",
        &apps::defects::stale_refill(),
        100.0,
    );
    // An app whose sole cache tier runs one replica: a single
    // cache-loss fault evicts the whole key space at once (DSB017).
    report(
        &mut text,
        "defect demo: bare cache",
        &apps::defects::bare_cache(),
        100.0,
    );
    let path = format!(
        "{}/tests/goldens/analyzer_report.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    golden::check(&path, &text);
}

/// Pins every built-in application's parallel-lookahead certificate —
/// the minimum safe epoch (in sim-time nanoseconds) a conservative
/// sharded engine could advance between synchronizations on the
/// reference cluster, and the hop that limits it.
#[test]
fn golden_lookahead_certificates() {
    let mut text = String::new();
    let cluster = common::fixed_cluster();
    for (name, _qps, app) in apps::all_builtin() {
        let cert = deathstarbench_sim::analyzer::lookahead_certificate(&app.spec, &cluster)
            .expect("every builtin has a feasible placement");
        let line = cert.render(|s| app.spec.service(s).name.clone());
        writeln!(text, "{name}: {line}").unwrap();
    }
    let path = format!("{}/tests/goldens/lookahead.txt", env!("CARGO_MANIFEST_DIR"));
    golden::check(&path, &text);
}
