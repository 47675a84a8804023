//! `dsb-lint`: the repo's static correctness gate.
//!
//! Two passes, both wired into `ci.sh`:
//!
//! 1. **Spec pass** — runs [`dsb_analyzer::Analyzer`] over the eight
//!    built-in application variants, with each app's front-end as the
//!    entry point, the golden-fixture load as the offered load, the
//!    golden-fixture cluster as the placement target, and each app's
//!    p99 QoS target as the SLO (so the DSB011 machine-budget and the
//!    DSB012/DSB013 calibration passes run too). Every app must analyze
//!    clean: any diagnostic fails the gate.
//!    Each app also prints its DSB015 lookahead certificate — the
//!    minimum safe epoch a conservative parallel engine could use.
//! 2. **Source pass** — runs the float-accumulation lint
//!    ([`dsb_analyzer::srclint`]) over the simulator's sources, `crates/`
//!    and the root `src/`: any float `+=` inside a `for` loop over
//!    `.keys()`/`.values()` fails the gate, with no exemptions. The other
//!    determinism rules are clippy bans (`clippy.toml` at the repo root,
//!    plus `-F unsafe-code`), which `ci.sh`'s clippy step enforces on
//!    every workspace target. `perfsuite/` is out of scope for both: it
//!    is a separate package that measures host time, so reading the wall
//!    clock is its job.

use std::path::Path;
use std::process::ExitCode;

use dsb_analyzer::{lint_sources, lookahead_certificate, Analyzer};
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

fn main() -> ExitCode {
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut failed = false;

    println!("== dsb-lint: spec pass (8 built-in apps) ==");
    let cluster = fixture_cluster();
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
        for d in &diags {
            println!("  {name}: {d}");
        }
        if diags.is_empty() {
            println!("  {name}: clean");
        } else {
            failed = true; // any diagnostic fails: fix the app
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
    println!("== dsb-lint: source pass (float accumulation in keyed loops) ==");
    match lint_sources(&repo_root, &["crates", "src"]) {
        Ok(findings) => {
            for f in &findings {
                println!("  {f}");
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
