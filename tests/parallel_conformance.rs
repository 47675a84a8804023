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
//! against the `workers = 1` run. A host with fewer CPUs than workers
//! runs them on one epoch thread per CPU (`Simulation::set_workers`);
//! the lanes and windows are the same at every thread count. Coverage:
//! all 8 builtins plus a 64-seed `dsb-gen` sweep, and the runtime epoch
//! width is checked against the static DSB015 `LookaheadCertificate`
//! where one exists. The ms-fabric case pins the width itself: the one
//! run whose window is wider than the model lookahead, at a jitter that
//! puts a third of all hops exactly on their floor.

mod common;

use deathstarbench_sim::analyzer::lookahead_certificate;
use deathstarbench_sim::apps::{self, BuiltApp};
use deathstarbench_sim::core::{
    AppBuilder, AppSpec, ChaosEvent, ChaosPlan, ClusterSpec, EndpointRef, MachineId, RequestType,
    Simulation, Step,
};
use deathstarbench_sim::experiments::observe;
use deathstarbench_sim::net::Zone;
use deathstarbench_sim::simcore::{Dist, SimDuration, SimTime};
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
#[expect(
    clippy::disallowed_types,
    reason = "wall time feeds only ci.sh's timing report"
)]
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

/// A front tier of `n` instances calling a back tier of `n`; with
/// `colocate`, back instance `k` shares front instance `k`'s machine.
fn ms_front_back(n: u32, colocate: bool) -> (AppSpec, EndpointRef) {
    let mut app = AppBuilder::new("ms-front-back");
    let front = app.service("front").event_driven().instances(n).build();
    let back = app.service("back").instances(n);
    let back = if colocate {
        back.colocate_with(front)
    } else {
        back
    }
    .build();
    let get = app.endpoint(
        back,
        "get",
        Dist::constant(512.0),
        vec![Step::work_us(20.0)],
    );
    let root = app.endpoint(
        front,
        "root",
        Dist::constant(512.0),
        vec![Step::work_us(10.0), Step::call(get, 256.0)],
    );
    (app.build(), root)
}

/// What one ms-fabric run must reproduce at every worker count: events,
/// totals, failures and latency quantiles.
type MsDigest = (u64, (u64, u64, u64), u64, [u64; 4]);

/// What an ms-fabric run adds to plain client load.
#[derive(Clone, Copy)]
enum MsRun {
    Plain,
    /// A crash of machine 3 over [40, 120) ms and a partition of racks
    /// 0|1 machines over [80, 200) ms with timeout 0.
    Chaos,
    /// Every third request comes from [`Zone::Edge`].
    Edge,
    /// A second `front` instance joins at 150 ms.
    AddFront,
}

/// 300 requests into `entry`, one a millisecond, on the ms fabric,
/// under `run`. Returns the digest and the epoch window read before
/// the injections, after them and after 150 ms.
#[expect(
    clippy::disallowed_types,
    reason = "wall time feeds only ci.sh's timing report"
)]
fn ms_fabric_run(
    app: &AppSpec,
    entry: EndpointRef,
    workers: usize,
    run: MsRun,
) -> (MsDigest, [u64; 3]) {
    let mut cluster = ClusterSpec::xeon_cluster(8, 2);
    cluster.trace_sample_prob = 0.0;
    cluster.fabric.intra_rack_ns = 10_000_000;
    cluster.fabric.cross_rack_ns = 15_000_000;
    cluster.fabric.client_ns = 20_000_000;
    cluster.fabric.wireless_ns = 1_500_000;
    cluster.fabric.jitter_frac = 2.0;
    let ms = SimTime::from_millis;
    let wall = std::time::Instant::now();
    let mut sim = Simulation::new(app.clone(), cluster, 5);
    sim.set_workers(workers);
    if let MsRun::Chaos = run {
        let events = vec![
            ChaosEvent::MachineCrash {
                machine: MachineId(3),
                at: ms(40),
                restart_after: SimDuration::from_millis(80),
                cold_for: SimDuration::ZERO,
            },
            ChaosEvent::Partition {
                a: (0..4).map(MachineId).collect(),
                b: (4..8).map(MachineId).collect(),
                from: ms(80),
                until: ms(200),
                timeout: SimDuration::ZERO,
            },
        ];
        sim.install_chaos(&ChaosPlan { seed: 5, events });
    }
    let before = sim.lookahead_ns();
    for i in 0..300u64 {
        let origin = match run {
            MsRun::Edge if i % 3 == 0 => Zone::Edge,
            _ => Zone::Client,
        };
        sim.inject_from(ms(i), entry, RequestType(0), 256, i, origin);
    }
    let injected = sim.lookahead_ns();
    sim.advance_to(ms(150));
    if let MsRun::AddFront = run {
        sim.add_instance_now(sim.app().service_by_name("front").unwrap());
    }
    let late = sim.lookahead_ns();
    sim.run_until_idle();
    let st = sim.request_stats(RequestType(0)).expect("requests ran");
    let q = |p| st.latency.quantile(p);
    let digest = (
        sim.events_processed(),
        common::totals(&sim),
        st.failed,
        [q(0.5), q(0.9), q(0.99), st.latency.max()],
    );
    record_wall_time(workers, wall.elapsed().as_secs_f64());
    (digest, [before, injected, late])
}

/// The ms-fabric case, the one conformance run whose epoch window is
/// wider than the model lookahead. Its floors are 2 ms intra-rack,
/// 3 ms cross-rack, 4 ms to the client and 0.3 ms over the wireless
/// link, which sets the model lookahead. At a jitter of 2.0 about a
/// third of all hops land exactly on their floor (at the default 0.1 no
/// hop comes near it, and a window too wide goes unnoticed), so a
/// window wider than its hops allow trips the epoch driver's `at >
/// last` assertion in the checked CI step, and diverges from
/// `workers = 1` here; the parallel runs come before the window pins
/// for that reason. Each run pins the window its hops set:
///
/// * front→back, 8 instances each: the intra-rack floor, 2 ms;
/// * a single-tier app, which makes no calls: the client floor, 4 ms;
/// * front→back under a machine crash and a partition whose timeout 0
///   is clamped to the model lookahead: that lookahead, 0.3 ms;
/// * front→back with a third of its requests from the Edge: the
///   wireless floor, 0.3 ms, from the first Edge injection on;
/// * back co-located with front, one instance each: 4 ms, then 3 ms
///   (cross-rack) once a second front instance joins mid-run on the
///   other rack.
#[test]
fn ms_fabric_windows_conform() {
    const MS: u64 = 1_000_000;
    const L: u64 = 300_000;
    let (two_tier, root) = ms_front_back(8, false);
    let (colo, colo_root) = ms_front_back(1, true);
    let (one_tier, op) = {
        let mut app = AppBuilder::new("ms-one-tier");
        let svc = app.service("svc").event_driven().instances(8).build();
        let op = app.endpoint(svc, "op", Dist::constant(512.0), vec![Step::work_us(20.0)]);
        (app.build(), op)
    };
    for (name, app, entry, run, windows) in [
        ("front-back", &two_tier, root, MsRun::Plain, [2 * MS; 3]),
        ("one-tier", &one_tier, op, MsRun::Plain, [4 * MS; 3]),
        ("chaos", &two_tier, root, MsRun::Chaos, [L; 3]),
        ("edge", &two_tier, root, MsRun::Edge, [2 * MS, L, L]),
        (
            "co-located",
            &colo,
            colo_root,
            MsRun::AddFront,
            [4 * MS, 4 * MS, 3 * MS],
        ),
    ] {
        let (serial, read) = ms_fabric_run(app, entry, 1, run);
        assert!(serial.1 .1 > 0, "{name}: nothing completed: {serial:?}");
        for w in [2, 4] {
            let (par, _) = ms_fabric_run(app, entry, w, run);
            assert_eq!(serial, par, "{name}: diverged at workers={w}");
        }
        assert_eq!(read, windows, "{name}: epoch windows");
    }
}
