//! Cross-crate integration tests: whole applications on whole clusters,
//! with workload generation, tracing, cluster management and the
//! experiment harness working together.

use deathstarbench_sim::apps::{self, BuiltApp};
use deathstarbench_sim::cluster::{Autoscaler, ScalePolicy};
use deathstarbench_sim::core::{ClusterSpec, MachineSpec, RequestType, ServiceId, Simulation};
use deathstarbench_sim::experiments::harness::totals;
use deathstarbench_sim::simcore::{SimDuration, SimTime};
use deathstarbench_sim::trace::critical_path;
use deathstarbench_sim::workload::{OpenLoop, UserPopulation};

fn cluster() -> ClusterSpec {
    let mut c = ClusterSpec::xeon_cluster(8, 2);
    for _ in 0..24 {
        c.machines.push(MachineSpec::edge_device());
    }
    c
}

fn run(app: &BuiltApp, qps: f64, secs: u64, seed: u64) -> Simulation {
    let mut c = cluster();
    c.trace_sample_prob = 0.02;
    let mut sim = Simulation::new(app.spec.clone(), c, seed);
    let mut load = OpenLoop::new(app.mix.clone(), UserPopulation::uniform(500), seed);
    load.drive(&mut sim, SimTime::ZERO, SimTime::from_secs(secs), qps);
    sim.run_until_idle();
    sim
}

/// Every application runs end to end with zero lost requests and sane
/// latency, and every service that the mix exercises records spans.
#[test]
fn all_six_applications_conserve_requests() {
    let suite: Vec<BuiltApp> = vec![
        apps::social::social_network(),
        apps::media::media_service(),
        apps::ecommerce::ecommerce(),
        apps::banking::banking(),
        apps::swarm::swarm(apps::swarm::SwarmVariant::Edge),
        apps::swarm::swarm(apps::swarm::SwarmVariant::Cloud),
    ];
    for (i, app) in suite.iter().enumerate() {
        let sim = run(app, 40.0, 6, 10 + i as u64);
        let (issued, completed, _) = totals(&sim);
        assert!(issued > 100, "{}: issued {issued}", app.spec.name);
        assert_eq!(issued, completed, "{}: lost requests", app.spec.name);
        // The mix must exercise a decent fraction of the graph.
        let active = (0..app.spec.service_count())
            .filter(|&s| sim.collector().service(s as u32).is_some())
            .count();
        assert!(
            active as f64 >= app.spec.service_count() as f64 * 0.6,
            "{}: only {active}/{} services saw traffic",
            app.spec.name,
            app.spec.service_count()
        );
    }
}

/// The repost query (read + compose + broadcast) is the slowest Social
/// Network query type, as §3.8 reports; placing an order is far slower
/// than browsing in E-commerce.
#[test]
fn query_diversity_matches_paper() {
    let social = apps::social::social_network();
    let sim = run(&social, 120.0, 10, 3);
    let p99 = |rt: RequestType| sim.request_stats(rt).unwrap().p99();
    let repost = p99(apps::social::REPOST);
    assert!(
        repost > p99(apps::social::READ_POST),
        "repost must beat readPost"
    );
    assert!(repost > p99(apps::social::LOGIN));
    assert!(repost > p99(apps::social::READ_TIMELINE));

    let ecom = apps::ecommerce::ecommerce();
    let sim = run(&ecom, 120.0, 10, 4);
    let order = sim
        .request_stats(apps::ecommerce::PLACE_ORDER)
        .unwrap()
        .p99();
    let browse = sim.request_stats(apps::ecommerce::BROWSE).unwrap().p99();
    assert!(
        order > browse * 2,
        "placing an order ({order}) must be much slower than browsing ({browse})"
    );
}

/// Traces stitched across 6+ services form well-formed trees whose
/// critical path accounts for (most of) the end-to-end latency.
#[test]
fn traces_are_well_formed_trees() {
    let app = apps::social::social_network();
    let mut c = cluster();
    c.trace_sample_prob = 1.0;
    let mut sim = Simulation::new(app.spec.clone(), c, 5);
    let mut load = OpenLoop::new(app.mix.clone(), UserPopulation::uniform(100), 5);
    load.drive(&mut sim, SimTime::ZERO, SimTime::from_secs(2), 50.0);
    sim.run_until_idle();
    let mut checked = 0;
    for (_, spans) in sim.collector().sampled_traces() {
        let roots = spans.iter().filter(|s| s.parent.is_none()).count();
        assert_eq!(roots, 1, "exactly one root per trace");
        let root = spans.iter().find(|s| s.parent.is_none()).unwrap();
        for s in spans {
            assert!(s.start >= root.start && s.end <= root.end + SimDuration::from_millis(1));
        }
        let attr = critical_path(spans);
        let total: u64 = attr.iter().map(|a| a.ns).sum();
        let dur = root.duration().as_nanos();
        assert!(
            total <= dur + 1_000,
            "critical path {total} exceeds root duration {dur}"
        );
        assert!(total > dur / 2, "critical path must cover most of the root");
        checked += 1;
    }
    assert!(checked > 50, "checked {checked} traces");
}

/// An autoscaler managing the full Social Network absorbs a sustained
/// overload: instances grow and late-run tail improves vs the unmanaged
/// deployment.
#[test]
fn autoscaling_social_network_under_overload() {
    let app = deathstarbench_sim::experiments::harness::shrink(&apps::social::social_network(), 8);
    let run_managed = |managed: bool| {
        let mut c = cluster();
        c.trace_sample_prob = 0.0;
        let mut sim = Simulation::new(app.spec.clone(), c, 6);
        let mut load = OpenLoop::new(app.mix.clone(), UserPopulation::uniform(500), 6);
        let mut scaler = Autoscaler::new(ScalePolicy {
            cooldown: SimDuration::from_secs(4),
            max_instances: 30,
            ..ScalePolicy::default()
        });
        if managed {
            for i in 0..app.spec.service_count() {
                scaler.manage(ServiceId(i as u32));
            }
        }
        // Well above the shrunk deployment's ~3k QPS capacity.
        for s in 0..24u64 {
            let (a, b) = (SimTime::from_secs(s), SimTime::from_secs(s + 1));
            load.drive(&mut sim, a, b, 4_000.0);
            sim.advance_to(b);
            scaler.tick(&mut sim);
        }
        let mut h = deathstarbench_sim::simcore::Histogram::compact();
        for t in 0..16u32 {
            if let Some(st) = sim.request_stats(RequestType(t)) {
                h.merge(&st.windows.merged_range(18, 24));
            }
        }
        (h.quantile(0.99), scaler.events().len())
    };
    let (managed_p99, actions) = run_managed(true);
    let (unmanaged_p99, _) = run_managed(false);
    assert!(actions > 0, "scaler must act");
    assert!(
        managed_p99 < unmanaged_p99,
        "managed {managed_p99} must beat unmanaged {unmanaged_p99}"
    );
}

/// Determinism across the whole stack: same seed, same everything.
#[test]
fn full_stack_determinism() {
    let digest = |seed: u64| {
        let app = apps::media::media_service();
        let sim = run(&app, 60.0, 4, seed);
        let (issued, completed, _) = totals(&sim);
        let mut lat = 0u64;
        for i in 0..16u32 {
            if let Some(st) = sim.request_stats(RequestType(i)) {
                lat ^= st.latency.quantile(0.99).rotate_left(i);
            }
        }
        (issued, completed, lat, sim.events_processed())
    };
    assert_eq!(digest(77), digest(77));
    assert_ne!(digest(77), digest(78));
}

/// The experiment harness's goodput search brackets a real capacity:
/// offered load below it meets QoS, load 4x above it does not.
#[test]
fn goodput_search_is_consistent() {
    use deathstarbench_sim::experiments::harness as h;
    let app = h::shrink(&apps::banking::banking(), 8);
    let cluster = h::make_cluster(4);
    let g = h::max_qps_under_qos(&app, &cluster, &|_| {}, app.qos_p99, 4, 9);
    assert!(g > 0.0, "goodput {g}");
    let below = h::probe(&app, &cluster, &|_| {}, g * 0.5, 4, 1, 9);
    assert!(below.p99 <= app.qos_p99, "below-goodput probe violates QoS");
    let above = h::probe(&app, &cluster, &|_| {}, g * 4.0, 4, 1, 9);
    assert!(
        above.p99 > app.qos_p99 || above.completion < 0.95,
        "4x goodput should violate QoS"
    );
}
