//! `dsb-lint`: the repo's static correctness gate.
//!
//! Two passes, both wired into `ci.sh`:
//!
//! 1. **Spec pass** — runs [`dsb_analyzer::Analyzer`] over the eight
//!    built-in application variants, with each app's front-end as the
//!    entry point, the golden-fixture load as the offered load, the
//!    golden-fixture cluster as the placement target, and each app's
//!    p99 QoS target as the SLO (so the DSB011 machine-budget and the
//!    DSB012/DSB013 calibration passes run too). Every
//!    diagnostic must appear in the annotated [`EXPECTED`] table below;
//!    anything unexpected (and any stale annotation) fails the gate.
//!    Each app also prints its DSB015 lookahead certificate — the
//!    minimum safe epoch a conservative parallel engine could use.
//! 2. **Source pass** — runs the determinism lint over the simulator's
//!    sources, `crates/` and the root `src/`, against the
//!    `determinism_allow.txt` allowlist at the repo root. Any unallowed
//!    hazard, or any allowlist entry that no longer matches, fails the
//!    gate. `perfsuite/` is out of scope: it is a separate package that
//!    measures host time, so reading the wall clock is its job.

use std::path::Path;
use std::process::ExitCode;

use dsb_analyzer::{lint_sources, lookahead_certificate, Allowlist, Analyzer, Severity};
use dsb_core::{ClusterSpec, MachineSpec};

/// The reference cluster of `tests/common/mod.rs::fixed_cluster()`: 8
/// Xeon servers on 2 racks plus 24 edge devices. Placement-dependent
/// diagnostics are judged against the same machines the golden traces
/// run on.
fn fixture_cluster() -> ClusterSpec {
    let mut cluster = ClusterSpec::xeon_cluster(8, 2);
    for _ in 0..24 {
        cluster.machines.push(MachineSpec::edge_device());
    }
    cluster.trace_sample_prob = 0.0;
    cluster
}

/// Diagnostics the eight shipped apps are *expected* to produce, each
/// with the reason it is accepted rather than fixed:
/// `(app, code, service, reason)`; `"*"` matches every service. The
/// exact per-service list is pinned by `tests/goldens/analyzer_report.txt`,
/// so wildcards here cannot mask new findings.
///
/// Currently empty: the single-shard (DSB008) and one-sided endpoint
/// pair (DSB010) defects this table used to accept were fixed for real
/// — every sharded store now runs >= 2 shards and every cache/DB
/// endpoint pair is exercised from both sides.
const EXPECTED: &[(&str, &str, &str, &str)] = &[];

fn main() -> ExitCode {
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut failed = false;

    println!("== dsb-lint: spec pass (8 built-in apps) ==");
    let cluster = fixture_cluster();
    let mut seen_expected = vec![false; EXPECTED.len()];
    for (name, qps, app) in dsb_apps::all_builtin() {
        let mut an = Analyzer::new(&app.spec)
            .entry(app.frontend)
            .cluster(&cluster)
            .calibration(1.0)
            .slo(app.qos_p99);
        let total_weight: f64 = app.mix.entries().iter().map(|e| e.weight).sum();
        for e in app.mix.entries() {
            an = an.offered(e.entry, qps * e.weight / total_weight);
        }
        let diags = an.run();
        let mut unexpected = 0;
        for d in &diags {
            let hit = EXPECTED.iter().position(|&(a, c, s, _)| {
                a == name && c == d.code.as_str() && (s == "*" || s == d.service_name)
            });
            match hit {
                Some(i) => seen_expected[i] = true,
                None => {
                    unexpected += 1;
                    if d.severity >= Severity::Error {
                        failed = true;
                    }
                    println!("  {name}: {d}");
                }
            }
        }
        if unexpected == 0 {
            let note = if diags.len() > unexpected {
                " (expected diagnostics annotated)"
            } else {
                ""
            };
            println!("  {name}: clean{note}");
        } else {
            failed = true; // unexpected warnings also fail: annotate or fix
        }
        // The DSB015 certificate: how far a conservative parallel
        // engine could advance each shard between synchronizations.
        // The exact per-app lines are pinned by tests/goldens/lookahead.txt.
        match lookahead_certificate(&app.spec, &cluster) {
            Some(cert) => {
                println!(
                    "  {name}: {}",
                    cert.render(|s| app.spec.service(s).name.clone())
                );
            }
            None => {
                println!("  {name}: no feasible placement, lookahead certificate unavailable");
                failed = true;
            }
        }
    }
    for (i, &(app, code, svc, reason)) in EXPECTED.iter().enumerate() {
        if !seen_expected[i] {
            println!("  stale expectation: {app} {code} {svc} ({reason}) no longer fires");
            failed = true;
        }
    }

    println!("== dsb-lint: source pass (determinism hazards) ==");
    let allow_path = repo_root.join("determinism_allow.txt");
    let mut allow = match Allowlist::load(&allow_path) {
        Ok(a) => a,
        Err(e) => {
            println!("  cannot load {}: {e}", allow_path.display());
            return ExitCode::FAILURE;
        }
    };
    match lint_sources(&repo_root, &["crates", "src"], &mut allow) {
        Ok(findings) => {
            for f in &findings {
                println!("  {f}");
                failed = true;
            }
            for stale in allow.unused() {
                println!("  stale allowlist entry (delete it): {stale}");
                failed = true;
            }
            if findings.is_empty() {
                println!("  clean");
            }
        }
        Err(e) => {
            println!("  scan failed: {e}");
            failed = true;
        }
    }

    if failed {
        println!("dsb-lint: FAILED");
        ExitCode::FAILURE
    } else {
        println!("dsb-lint: ok");
        ExitCode::SUCCESS
    }
}
