//! # dsb-apps — the DeathStarBench application suite
//!
//! The six end-to-end services of §3, expressed as `dsb-core` application
//! graphs with calibrated per-tier demands, plus the auxiliary applications
//! the paper's experiments compare against:
//!
//! | Module | Paper section | Services |
//! |---|---|---|
//! | [`social`] | §3.2 Social Network | 36 |
//! | [`media`] | §3.3 Media Service | 38 |
//! | [`ecommerce`] | §3.4 E-commerce | 41 |
//! | [`banking`] | §3.5 Banking | 34 |
//! | [`swarm`] | §3.6 Swarm (edge & cloud variants) | 21 / 25 |
//! | [`monolith`] | §4/§6 monolithic counterparts | 1 + back-ends |
//! | [`singles`] | §4 single-tier baselines (nginx, memcached, MongoDB, Xapian, recommender) | 1 each |
//! | [`twotier`] | §6 Fig. 17 backpressure example | 2 |
//! | [`synthetic`] | §8 parameterized "death star" graphs | configurable |
//!
//! Every constructor returns a [`BuiltApp`]: the [`AppSpec`] plus the
//! app's client [`QueryMix`], its end-to-end QoS target, and the service
//! ordering used by the paper's heatmap figures (back-end at the top,
//! front-end at the bottom).

#![warn(missing_docs)]

use dsb_core::{AppBuilder, AppSpec, EndpointRef, ServiceId, Step};
use dsb_net::Protocol;
use dsb_simcore::{Dist, SimDuration};
use dsb_uarch::UarchProfile;
use dsb_workload::QueryMix;

pub mod banking;
pub mod defects;
pub mod ecommerce;
pub mod media;
pub mod monolith;
pub mod singles;
pub mod social;
pub mod swarm;
pub mod synthetic;
pub mod twotier;

/// A fully-assembled benchmark application.
#[derive(Debug, Clone)]
pub struct BuiltApp {
    /// The service graph.
    pub spec: AppSpec,
    /// The client-side query mix (weights model the §3.8 query diversity).
    pub mix: QueryMix,
    /// End-to-end p99 QoS target.
    pub qos_p99: SimDuration,
    /// The front-end (entry) service.
    pub frontend: ServiceId,
    /// Services ordered back-end first, front-end last (heatmap rows).
    pub order: Vec<ServiceId>,
}

impl BuiltApp {
    /// Looks up a service id by name.
    ///
    /// # Panics
    ///
    /// Panics if the name is unknown (a typo in an experiment).
    pub fn service(&self, name: &str) -> ServiceId {
        self.spec
            .service_by_name(name)
            .unwrap_or_else(|| panic!("unknown service {name} in {}", self.spec.name))
    }

    /// Name of a service id.
    pub fn name_of(&self, id: ServiceId) -> &str {
        &self.spec.service(id).name
    }

    /// Default SLOs: one p99 objective per request type in the query mix,
    /// each set to the app's end-to-end [`qos_p99`](Self::qos_p99) target.
    /// Feed them to a [`dsb_telemetry::Scraper`] to get burn-rate alerts
    /// out of the box.
    pub fn slos(&self) -> Vec<dsb_telemetry::Slo> {
        let mut seen = std::collections::BTreeSet::new();
        self.mix
            .entries()
            .iter()
            .filter(|e| seen.insert(e.rtype.0))
            .map(|e| dsb_telemetry::Slo::p99(e.rtype, self.qos_p99))
            .collect()
    }
}

/// The eight application variants pinned by the repo's golden fixtures,
/// in fixture order: `(fixture_name, golden_qps, app)`. The qps values
/// match `tests/goldens.rs`, so static capacity checks see the same
/// offered load the golden traces were produced under.
pub fn all_builtin() -> Vec<(&'static str, f64, BuiltApp)> {
    vec![
        ("social_network", 40.0, social::social_network()),
        ("media_service", 40.0, media::media_service()),
        ("ecommerce", 40.0, ecommerce::ecommerce()),
        ("banking", 40.0, banking::banking()),
        ("swarm_edge", 15.0, swarm::swarm(swarm::SwarmVariant::Edge)),
        (
            "swarm_cloud",
            15.0,
            swarm::swarm(swarm::SwarmVariant::Cloud),
        ),
        ("social_monolith", 40.0, monolith::social_monolith()),
        ("twotier", 200.0, twotier::twotier(64, 1024)),
    ]
}

/// Adds a memcached-style in-memory cache; returns `(id, get, set)`.
///
/// Event-driven, kernel-heavy profile, reached over Thrift RPC — the
/// standard caching tier in every application of the suite.
pub fn add_memcached(
    app: &mut AppBuilder,
    name: &str,
    instances: u32,
) -> (ServiceId, EndpointRef, EndpointRef) {
    let id = app
        .service(name)
        .profile(UarchProfile::memcached())
        .event_driven()
        .workers(16)
        .instances(instances)
        .protocol(Protocol::ThriftRpc)
        .lb(dsb_core::LbPolicy::Partition)
        .build();
    let get = app.endpoint(
        id,
        "get",
        Dist::log_normal(1024.0, 0.8),
        vec![Step::Compute {
            ns: Dist::log_normal(6_000.0, 0.3),
            domain: dsb_uarch::ExecDomain::User,
        }],
    );
    let set = app.endpoint(
        id,
        "set",
        Dist::constant(64.0),
        vec![Step::Compute {
            ns: Dist::log_normal(9_000.0, 0.3),
            domain: dsb_uarch::ExecDomain::User,
        }],
    );
    (id, get, set)
}

/// Adds a MongoDB-style persistent store; returns `(id, find, insert)`.
///
/// Blocking thread pool, I/O-bound (frequency-insensitive per Fig. 12),
/// sharded by partition key.
pub fn add_mongodb(
    app: &mut AppBuilder,
    name: &str,
    instances: u32,
) -> (ServiceId, EndpointRef, EndpointRef) {
    let id = app
        .service(name)
        .profile(UarchProfile::mongodb())
        .blocking()
        .workers(16)
        .instances(instances)
        .protocol(Protocol::ThriftRpc)
        .lb(dsb_core::LbPolicy::Partition)
        .build();
    let find = app.endpoint(
        id,
        "find",
        Dist::log_normal(2048.0, 0.8),
        vec![
            Step::Compute {
                ns: Dist::log_normal(120_000.0, 0.4),
                domain: dsb_uarch::ExecDomain::User,
            },
            Step::Io {
                ns: Dist::log_normal(1_200_000.0, 0.5),
            },
        ],
    );
    let insert = app.endpoint(
        id,
        "insert",
        Dist::constant(128.0),
        vec![
            Step::Compute {
                ns: Dist::log_normal(150_000.0, 0.4),
                domain: dsb_uarch::ExecDomain::User,
            },
            Step::Io {
                ns: Dist::log_normal(1_800_000.0, 0.5),
            },
        ],
    );
    (id, find, insert)
}

/// Adds a simple single-endpoint RPC microservice whose handler is pure
/// compute; returns `(id, endpoint)`. The workhorse for the suite's many
/// small single-concern tiers.
pub fn add_leaf(
    app: &mut AppBuilder,
    name: &str,
    profile: UarchProfile,
    instances: u32,
    work_us: f64,
    resp_bytes: f64,
) -> (ServiceId, EndpointRef) {
    let id = app
        .service(name)
        .profile(profile)
        .blocking()
        .workers(16)
        .instances(instances)
        .protocol(Protocol::ThriftRpc)
        .build();
    let ep = app.endpoint(
        id,
        "run",
        Dist::log_normal(resp_bytes, 0.5),
        vec![Step::work_us(work_us)],
    );
    (id, ep)
}

/// Adds a MySQL-style relational database; returns `(id, query)`.
pub fn add_mysql(app: &mut AppBuilder, name: &str, instances: u32) -> (ServiceId, EndpointRef) {
    let id = app
        .service(name)
        .profile(UarchProfile::mongodb())
        .blocking()
        .workers(32)
        .instances(instances)
        .protocol(Protocol::ThriftRpc)
        .lb(dsb_core::LbPolicy::Partition)
        .build();
    let query = app.endpoint(
        id,
        "query",
        Dist::log_normal(4096.0, 0.8),
        vec![
            Step::Compute {
                ns: Dist::log_normal(200_000.0, 0.4),
                domain: dsb_uarch::ExecDomain::User,
            },
            Step::Io {
                ns: Dist::log_normal(300_000.0, 0.6),
            },
        ],
    );
    (id, query)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsb_core::{ClusterSpec, RequestType, Simulation};
    use dsb_simcore::SimTime;
    use dsb_workload::{OpenLoop, UserPopulation};

    fn smoke(app: BuiltApp, qps: f64, secs: u64, seed: u64) {
        let mut cluster = ClusterSpec::xeon_cluster(8, 2);
        cluster.trace_sample_prob = 0.0;
        // Swarm needs edge devices.
        for _ in 0..24 {
            cluster.machines.push(dsb_core::MachineSpec::edge_device());
        }
        let mut sim = Simulation::new(app.spec.clone(), cluster, seed);
        let mut load = OpenLoop::new(app.mix.clone(), UserPopulation::uniform(500), seed);
        load.drive(&mut sim, SimTime::ZERO, SimTime::from_secs(secs), qps);
        sim.run_until_idle();
        let mut total_issued = 0;
        let mut total_completed = 0;
        for t in 0..16u32 {
            if let Some(st) = sim.request_stats(RequestType(t)) {
                total_issued += st.issued;
                total_completed += st.completed;
            }
        }
        assert!(total_issued > 0, "{}: no requests issued", app.spec.name);
        assert_eq!(
            total_issued, total_completed,
            "{}: requests lost",
            app.spec.name
        );
    }

    #[test]
    fn social_network_smoke() {
        let app = social::social_network();
        assert_eq!(app.spec.service_count(), 36);
        smoke(app, 60.0, 5, 1);
    }

    #[test]
    fn media_service_smoke() {
        let app = media::media_service();
        assert_eq!(app.spec.service_count(), 38);
        smoke(app, 60.0, 5, 2);
    }

    #[test]
    fn ecommerce_smoke() {
        let app = ecommerce::ecommerce();
        assert_eq!(app.spec.service_count(), 41);
        smoke(app, 60.0, 5, 3);
    }

    #[test]
    fn banking_smoke() {
        let app = banking::banking();
        assert_eq!(app.spec.service_count(), 34);
        smoke(app, 60.0, 5, 4);
    }

    #[test]
    fn swarm_edge_smoke() {
        let app = swarm::swarm(swarm::SwarmVariant::Edge);
        assert_eq!(app.spec.service_count(), 21);
        smoke(app, 20.0, 5, 5);
    }

    #[test]
    fn swarm_cloud_smoke() {
        let app = swarm::swarm(swarm::SwarmVariant::Cloud);
        assert_eq!(app.spec.service_count(), 25);
        smoke(app, 20.0, 5, 6);
    }

    #[test]
    fn monolith_smoke() {
        let app = monolith::social_monolith();
        assert!(app.spec.service_count() <= 6);
        smoke(app, 60.0, 5, 7);
    }

    #[test]
    fn singles_smoke() {
        for app in [
            singles::nginx(),
            singles::memcached(),
            singles::mongodb(),
            singles::xapian(),
            singles::recommender(),
        ] {
            assert_eq!(app.spec.service_count(), 1);
            smoke(app, 200.0, 3, 8);
        }
    }

    #[test]
    fn twotier_smoke() {
        smoke(twotier::twotier(64, 1024), 200.0, 3, 9);
    }

    #[test]
    fn all_graphs_are_connected_from_frontend() {
        for app in [
            social::social_network(),
            media::media_service(),
            ecommerce::ecommerce(),
            banking::banking(),
            swarm::swarm(swarm::SwarmVariant::Edge),
            swarm::swarm(swarm::SwarmVariant::Cloud),
        ] {
            // BFS from the front-end over call edges.
            let edges = app.spec.edges();
            let n = app.spec.service_count();
            let mut seen = vec![false; n];
            let mut stack = vec![app.frontend];
            seen[app.frontend.0 as usize] = true;
            while let Some(s) = stack.pop() {
                for &(a, b) in &edges {
                    if a == s && !seen[b.0 as usize] {
                        seen[b.0 as usize] = true;
                        stack.push(b);
                    }
                }
            }
            let unreachable: Vec<&str> = (0..n)
                .filter(|&i| !seen[i])
                .map(|i| app.spec.service(ServiceId(i as u32)).name.as_str())
                .collect();
            assert!(
                unreachable.is_empty(),
                "{}: unreachable services {unreachable:?}",
                app.spec.name
            );
        }
    }

    #[test]
    fn order_covers_all_services_once() {
        for app in [
            social::social_network(),
            media::media_service(),
            ecommerce::ecommerce(),
            banking::banking(),
        ] {
            assert_eq!(
                app.order.len(),
                app.spec.service_count(),
                "{}",
                app.spec.name
            );
            let unique: std::collections::BTreeSet<_> = app.order.iter().collect();
            assert_eq!(unique.len(), app.order.len(), "{}", app.spec.name);
            assert_eq!(*app.order.last().unwrap(), app.frontend);
        }
    }
}
