//! Determinism tests: every application, run twice at the same seed on
//! the same cluster, produces bit-identical totals, latency statistics,
//! and event counts — and a different seed produces a different run.
//! A run is also independent of how it is sliced into `advance_to`
//! calls: the merged stats and trace views come out byte-equal.

mod common;

use std::fmt::Write as _;

use deathstarbench_sim::apps::{self, BuiltApp};
use deathstarbench_sim::core::{ChaosEvent, ChaosPlan, RequestType, ServiceId, Simulation};
use deathstarbench_sim::simcore::{SimDuration, SimTime};
use deathstarbench_sim::workload::{OpenLoop, UserPopulation};

/// A compact fingerprint of a run: totals, events, and a mix of all
/// per-type latency quantiles (any nondeterminism in timing lands here).
fn digest(app: &BuiltApp, qps: f64, seed: u64) -> (u64, u64, u64, u64, u64) {
    let sim = common::run_fixed(app, qps, 2, seed);
    let (issued, completed, rejected) = common::totals(&sim);
    let mut lat = 0u64;
    for i in 0..sim.request_type_count() as u32 {
        if let Some(st) = sim.request_stats(RequestType(i)) {
            lat ^= st.latency.quantile(0.5).rotate_left(i);
            lat ^= st.latency.quantile(0.99).rotate_left(i + 17);
            lat ^= st.latency.max().rotate_left(i + 41);
        }
    }
    (issued, completed, rejected, lat, sim.events_processed())
}

fn assert_deterministic(name: &str, app: &BuiltApp, qps: f64) {
    let a = digest(app, qps, 7);
    let b = digest(app, qps, 7);
    assert_eq!(a, b, "{name}: same seed must reproduce bit-identically");
    let c = digest(app, qps, 8);
    assert_ne!(a, c, "{name}: different seeds must differ");
}

#[test]
fn social_network_is_deterministic() {
    assert_deterministic("social-network", &apps::social::social_network(), 40.0);
}

#[test]
fn media_service_is_deterministic() {
    assert_deterministic("media-service", &apps::media::media_service(), 40.0);
}

#[test]
fn ecommerce_is_deterministic() {
    assert_deterministic("ecommerce", &apps::ecommerce::ecommerce(), 40.0);
}

#[test]
fn banking_is_deterministic() {
    assert_deterministic("banking", &apps::banking::banking(), 40.0);
}

#[test]
fn swarm_edge_is_deterministic() {
    assert_deterministic(
        "swarm-edge",
        &apps::swarm::swarm(apps::swarm::SwarmVariant::Edge),
        15.0,
    );
}

#[test]
fn swarm_cloud_is_deterministic() {
    assert_deterministic(
        "swarm-cloud",
        &apps::swarm::swarm(apps::swarm::SwarmVariant::Cloud),
        15.0,
    );
}

// Whole-experiment replay: the paper figures must reproduce to the byte,
// not just to the digest — any drift in autoscaler timing, placement, or
// report formatting shows up here. Quick scale keeps these inside the CI
// time budget.

#[test]
fn fig17_replays_byte_identically() {
    use deathstarbench_sim::experiments::{fig17, Scale};
    let a = fig17::run(Scale::Quick);
    let b = fig17::run(Scale::Quick);
    assert!(!a.is_empty());
    assert_eq!(a, b, "fig17 quick-scale report drifted between runs");
}

#[test]
fn fig22_replays_byte_identically() {
    use deathstarbench_sim::experiments::{fig22, Scale};
    let a = fig22::run(Scale::Quick);
    let b = fig22::run(Scale::Quick);
    assert!(!a.is_empty());
    assert_eq!(a, b, "fig22 quick-scale report drifted between runs");
}

/// Everything the merged views expose, serialized: the golden summary,
/// every sampled span and the dropped count, each service's collector
/// aggregates down to per-window count/p99/mean, and each service's
/// execution stats (f64 sums included, via their exact `Debug` form).
fn merged_views(app: &BuiltApp, sim: &Simulation) -> String {
    let mut out = common::summary(app, sim);
    let failed: u64 = (0..sim.request_type_count() as u32)
        .filter_map(|r| sim.request_stats(RequestType(r)))
        .map(|st| st.failed)
        .sum();
    let _ = writeln!(out, "failed {failed}");
    out.push_str(&common::trace_bytes(sim));
    for i in 0..app.spec.service_count() as u32 {
        if let Some(t) = sim.collector().service(i) {
            let _ = writeln!(
                out,
                "svc {i}: spans={} q={} app={} net={} p50={} p99={} max={}",
                t.spans,
                t.queue_ns,
                t.app_ns,
                t.net_ns,
                t.latency.quantile(0.5),
                t.latency.quantile(0.99),
                t.latency.max(),
            );
            let w = &t.latency_windows;
            for k in 0..w.window_count() {
                let _ = writeln!(
                    out,
                    "  w{k}: n={} p99={} mean={}",
                    w.count(k),
                    w.quantile(k, 0.99),
                    w.mean(k)
                );
            }
        }
        let _ = writeln!(out, "stats {i}: {:?}", sim.service_stats(ServiceId(i)));
    }
    out
}

/// One traced two-tier run with a memcached machine crash mid-load, so
/// failed and partial traces are in the sampled set. `slices` lists the
/// `advance_to` targets (ns) to stop at before the final drain.
fn sliced_run(app: &BuiltApp, workers: usize, slices: &[u64]) -> String {
    let mut cluster = common::fixed_cluster();
    cluster.trace_sample_prob = 0.05;
    // Narrow windows, so the run spans several and slices end mid-window.
    cluster.window = SimDuration::from_millis(40);
    let mut sim = Simulation::new(app.spec.clone(), cluster, 5);
    sim.set_workers(workers);
    let mc = app.service("memcached");
    let plan = ChaosPlan {
        seed: 5,
        events: vec![ChaosEvent::MachineCrash {
            machine: sim.instance_machine(sim.instances_of(mc)[0]),
            at: SimTime::from_millis(150),
            restart_after: SimDuration::from_millis(100),
            cold_for: SimDuration::from_millis(50),
        }],
    };
    sim.install_chaos(&plan);
    let mut load = OpenLoop::new(app.mix.clone(), UserPopulation::uniform(500), 5);
    load.drive(&mut sim, SimTime::ZERO, SimTime::from_millis(400), 2_000.0);
    for &t in slices {
        sim.advance_to(SimTime::from_nanos(t));
    }
    sim.run_until_idle();
    merged_views(app, &sim)
}

/// The merged trace view takes over what the shards recorded at every
/// `advance_to`, and service stats fold on read, so how a run is sliced
/// must not show: one drain, 1 ms slices, and irregular slices agree
/// byte for byte, serially and on the sharded engine.
#[test]
fn slicing_does_not_change_merged_views() {
    let app = apps::twotier::twotier(64, 8);
    let ms: Vec<u64> = (1..=450).map(|k| k * 1_000_000).collect();
    // 1 ns to 16 ms steps, out of phase with the windows and the fault.
    let mut irregular = Vec::new();
    let mut t = 0u64;
    for k in 0u64..64 {
        t += (k * 7_919 % 13) * 1_000_000 + k * k * 997 + 1;
        irregular.push(t);
    }
    for workers in [1, 4] {
        let whole = sliced_run(&app, workers, &[]);
        assert!(whole.contains("\ntrace "), "no sampled traces to compare");
        assert!(!whole.contains("\nfailed 0\n"), "the fault failed nothing");
        assert_eq!(
            whole,
            sliced_run(&app, workers, &ms),
            "1 ms slices diverged at workers={workers}"
        );
        assert_eq!(
            whole,
            sliced_run(&app, workers, &irregular),
            "irregular slices diverged at workers={workers}"
        );
    }
}
