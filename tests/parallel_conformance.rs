//! Parallel-conformance suite: the sharded engine must be *byte-identical*
//! to the serial engine for every app, seed, and worker count.
//!
//! The engine's determinism contract (see `crates/core/src/sim.rs` module
//! docs) is that event keys are minted by the model, never by the wheel,
//! so per-shard pop order — and therefore every downstream observable —
//! is independent of how shards are driven. This suite is the proof
//! obligation: for workers ∈ {1, 2, 3, 4, 8} it compares
//!
//! * event counts (`events_processed`),
//! * request totals (issued / completed / rejected),
//! * the full golden summary text (latency quantiles, per-service
//!   invocation counts, placement),
//! * serialized trace bytes (every sampled span, field by field), and
//! * the rendered `dsb-report` output (JSONL + `dsb-top` table)
//!
//! against the `workers = 1` run. Coverage: all 8 builtins plus a
//! 64-seed `dsb-gen` sweep, and the runtime epoch width is checked
//! against the static DSB015 `LookaheadCertificate` where one exists.

mod common;

use deathstarbench_sim::analyzer::lookahead_certificate;
use deathstarbench_sim::apps::{self, BuiltApp};
use deathstarbench_sim::core::{ClusterSpec, Simulation};
use deathstarbench_sim::experiments::observe;
use deathstarbench_sim::simcore::SimTime;
use deathstarbench_sim::workload::{OpenLoop, UserPopulation};
use dsb_gen::GenSpec;

/// Three threads over 5–30 lanes is an uneven split: in each epoch
/// window, some thread runs more lanes than another.
const WORKERS: [usize; 5] = [1, 2, 3, 4, 8];

/// The reference cluster with tracing forced on, so the digest covers
/// trace bytes (sampling verdicts, span fields, merge order) too.
fn traced_cluster() -> ClusterSpec {
    let mut c = common::fixed_cluster();
    c.trace_sample_prob = 0.25;
    c
}

/// Appends one `workers=N secs=X` sample to the timing file `ci.sh`
/// aggregates into its per-worker-count wall-time report. Best-effort:
/// timing is diagnostics, conformance is the assertions.
fn record_wall_time(workers: usize, secs: f64) {
    use std::io::Write as _;
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/target/conformance_times.txt");
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
    {
        let _ = writeln!(f, "workers={workers} secs={secs:.3}");
    }
}

/// One run of `app` on `cluster` under `workers` threads; returns the
/// full observable digest.
fn run_digest(
    app: &BuiltApp,
    cluster: &ClusterSpec,
    qps: f64,
    millis: u64,
    seed: u64,
    workers: usize,
) -> (u64, (u64, u64, u64), String, String) {
    let wall = std::time::Instant::now();
    let mut sim = Simulation::new(app.spec.clone(), cluster.clone(), seed);
    sim.set_workers(workers);
    let mut load = OpenLoop::new(app.mix.clone(), UserPopulation::uniform(500), seed);
    load.drive(&mut sim, SimTime::ZERO, SimTime::from_millis(millis), qps);
    sim.run_until_idle();
    let digest = (
        sim.events_processed(),
        common::totals(&sim),
        common::summary(app, &sim),
        common::trace_bytes(&sim),
    );
    record_wall_time(workers, wall.elapsed().as_secs_f64());
    digest
}

/// Asserts every parallel worker count reproduces the serial digest
/// byte-for-byte, and that the runtime epoch width respects the static
/// DSB015 certificate.
fn assert_conformance(name: &str, app: &BuiltApp, cluster: &ClusterSpec, qps: f64, millis: u64) {
    // Runtime lookahead must never exceed the certified safe epoch: the
    // static analyzer's bound is over *minimum* hop delays, so a runtime
    // window wider than the certificate could admit a causality miss.
    {
        let sim = Simulation::new(app.spec.clone(), cluster.clone(), 1);
        if let Some(min_epoch) = lookahead_certificate(&app.spec, cluster)
            .and_then(|cert| cert.min_epoch_ns())
            .filter(|&ns| ns > 0)
        {
            assert!(
                sim.lookahead_ns() <= min_epoch,
                "{name}: runtime lookahead {} ns exceeds certified min epoch {} ns",
                sim.lookahead_ns(),
                min_epoch
            );
        }
    }

    let serial = run_digest(app, cluster, qps, millis, 13, 1);
    for &w in &WORKERS[1..] {
        let par = run_digest(app, cluster, qps, millis, 13, w);
        assert_eq!(
            serial.0, par.0,
            "{name}: event count diverged at workers={w}"
        );
        assert_eq!(serial.1, par.1, "{name}: totals diverged at workers={w}");
        assert_eq!(
            serial.2, par.2,
            "{name}: summary bytes diverged at workers={w}"
        );
        assert_eq!(
            serial.3, par.3,
            "{name}: trace bytes diverged at workers={w}"
        );
    }
}

#[test]
fn social_network_conforms() {
    assert_conformance(
        "social-network",
        &apps::social::social_network(),
        &traced_cluster(),
        40.0,
        2_000,
    );
}

#[test]
fn media_service_conforms() {
    assert_conformance(
        "media-service",
        &apps::media::media_service(),
        &traced_cluster(),
        40.0,
        2_000,
    );
}

#[test]
fn ecommerce_conforms() {
    assert_conformance(
        "ecommerce",
        &apps::ecommerce::ecommerce(),
        &traced_cluster(),
        40.0,
        2_000,
    );
}

#[test]
fn banking_conforms() {
    assert_conformance(
        "banking",
        &apps::banking::banking(),
        &traced_cluster(),
        40.0,
        2_000,
    );
}

#[test]
fn swarm_edge_conforms() {
    assert_conformance(
        "swarm-edge",
        &apps::swarm::swarm(apps::swarm::SwarmVariant::Edge),
        &traced_cluster(),
        15.0,
        2_000,
    );
}

#[test]
fn swarm_cloud_conforms() {
    assert_conformance(
        "swarm-cloud",
        &apps::swarm::swarm(apps::swarm::SwarmVariant::Cloud),
        &traced_cluster(),
        15.0,
        2_000,
    );
}

#[test]
fn social_monolith_conforms() {
    assert_conformance(
        "social-monolith",
        &apps::monolith::social_monolith(),
        &traced_cluster(),
        40.0,
        2_000,
    );
}

#[test]
fn twotier_conforms() {
    assert_conformance(
        "twotier",
        &apps::twotier::twotier(64, 1024),
        &traced_cluster(),
        200.0,
        2_000,
    );
}

/// The `dsb-report` observability pipeline — scraper windows, SLO burn
/// alerts, root-cause attribution, both renderings — must not be able
/// to tell the engines apart either.
#[test]
fn dsb_report_output_conforms() {
    let app = apps::social::social_network();
    let serial = observe::observe_workers(&app, "conformance", 40.0, 2, 13, 1);
    for &w in &WORKERS[1..] {
        let par = observe::observe_workers(&app, "conformance", 40.0, 2, 13, w);
        assert_eq!(serial.jsonl, par.jsonl, "JSONL diverged at workers={w}");
        assert_eq!(serial.top, par.top, "dsb-top diverged at workers={w}");
    }
}

/// Chaos conformance: fault injection happens at quiesced boundaries, so
/// a chaos run — fault state, failures, refills, alerts, diagnoses, the
/// full JSONL — must be byte-identical under the serial and the sharded
/// engine. Two scenarios cover both injection families: machine-crash
/// (instance state flips + failed-fast propagation) and cache-loss
/// (forced misses + cold refills).
#[test]
fn chaos_runs_conform() {
    use deathstarbench_sim::experiments::chaos;
    // 4 s covers inject (2 s) → restart (3 s) → warm again (3.5–4 s);
    // the full-length runs are pinned by the tests/chaos.rs goldens.
    let secs = Some(4);
    for name in ["machine-crash", "cache-loss"] {
        let serial = chaos::run_scenario_for(name, 1, secs);
        for &w in &WORKERS[1..] {
            let par = chaos::run_scenario_for(name, w, secs);
            assert_eq!(
                serial.timeline, par.timeline,
                "{name}: timeline diverged at workers={w}"
            );
            assert_eq!(
                serial.jsonl, par.jsonl,
                "{name}: JSONL diverged at workers={w}"
            );
        }
    }
}

/// The 64-seed generated-app sweep: the same conformance obligation over
/// the `dsb-gen` space (arbitrary depth/width/fanout graphs, their own
/// clusters, partitioned stores), driven briefly at each spec's own
/// calibrated load.
///
/// The drive window is short (200 ms) and the offered load capped:
/// divergence between engines is a structural property that shows up
/// within the first few cross-shard exchanges, while wall time here is
/// dominated by epoch-barrier crossings on default (µs-scale lookahead)
/// fabrics — 64 specs × 4 worker counts of it. The builtins above cover
/// long-window behavior.
#[test]
fn generated_apps_conform() {
    for seed in 0..64u64 {
        let g = GenSpec::sample(0x9E37_79B9_7F4A_7C15_u64.wrapping_mul(seed + 1));
        let app = g.build();
        let mut cluster = g.cluster();
        cluster.trace_sample_prob = 0.25;
        let qps = g.qps().min(1_000.0);
        let serial = run_digest(&app, &cluster, qps, 200, seed, 1);
        for &w in &WORKERS[1..] {
            let par = run_digest(&app, &cluster, qps, 200, seed, w);
            assert_eq!(
                serial, par,
                "gen seed {seed}: digest diverged at workers={w} (spec {g:?})"
            );
        }
    }
}
