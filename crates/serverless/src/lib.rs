//! # dsb-serverless — serverless programming-framework model
//!
//! §7 of the paper runs every end-to-end service on AWS Lambda and compares
//! against EC2 containers (Fig. 21): Lambda with S3 state passing is much
//! slower (remote persistent storage on every hand-off), Lambda with
//! remote-memory state passing recovers most of it, costs are an order of
//! magnitude lower either way, and Lambda absorbs diurnal load swings that
//! EC2's threshold autoscaler chases sluggishly.
//!
//! This crate reproduces that setup:
//!
//! * [`to_serverless`] rewrites an application for Lambda execution: every
//!   service gets on-demand workers with cold starts, and every
//!   inter-function hand-off routes state through an inserted store
//!   service — S3-like (high-latency, I/O-bound) or memcached-like
//!   (remote memory), per [`ExecutionMode`].
//! * [`ec2_cost`] / [`lambda_cost`] implement the corresponding billing
//!   models (per-instance-hour vs per-request + GB-seconds + storage ops).

#![warn(missing_docs)]

use std::sync::Arc;

use dsb_core::{AppSpec, EndpointRef, ServiceId, Simulation, Step};
use dsb_net::Protocol;
use dsb_simcore::{Dist, SimDuration};
use dsb_uarch::UarchProfile;

/// How an application executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionMode {
    /// Long-running containers on dedicated instances (the baseline).
    Ec2,
    /// Lambda functions passing state through S3-like persistent storage.
    LambdaS3,
    /// Lambda functions passing state through remote memory (the paper's
    /// "four additional EC2 instances" configuration).
    LambdaMem,
}

impl ExecutionMode {
    /// Human-readable label, as used in Fig. 21.
    pub fn label(self) -> &'static str {
        match self {
            ExecutionMode::Ec2 => "Amazon EC2",
            ExecutionMode::LambdaS3 => "AWS Lambda (S3)",
            ExecutionMode::LambdaMem => "AWS Lambda (mem)",
        }
    }
}

/// Result of a serverless rewrite.
#[derive(Debug, Clone)]
pub struct ServerlessApp {
    /// The rewritten application.
    pub app: AppSpec,
    /// The inserted state-store service (`None` for [`ExecutionMode::Ec2`]).
    pub store: Option<ServiceId>,
}

/// Rewrites `app` for the given execution mode.
///
/// For the Lambda modes every service (except those in `keep_provisioned`,
/// e.g. databases that stay managed) is switched to on-demand workers with
/// a log-normal cold start; a state-store service is appended, a `get` is
/// prepended to every function body (functions are stateless and must load
/// their inputs), and a `put` precedes every downstream invocation.
///
/// [`ExecutionMode::Ec2`] returns the app unchanged.
pub fn to_serverless(
    app: &AppSpec,
    mode: ExecutionMode,
    keep_provisioned: &[ServiceId],
) -> ServerlessApp {
    if mode == ExecutionMode::Ec2 {
        return ServerlessApp {
            app: app.clone(),
            store: None,
        };
    }
    let mut out = app.clone();
    let store_id = ServiceId(out.services.len() as u32);
    let (store_spec, get_ref, put_ref) = make_store(mode, store_id);
    // Rewrite existing services.
    for (idx, svc) in out.services.iter_mut().enumerate() {
        let sid = ServiceId(idx as u32);
        if keep_provisioned.contains(&sid) {
            continue;
        }
        svc.workers = dsb_core::WorkerPolicy::OnDemand {
            // Median 120 ms container/function cold start.
            cold_start_ns: Dist::log_normal(120e6, 0.5),
        };
        for ep in &mut svc.endpoints {
            let mut body = vec![Step::call(get_ref, 8192.0)];
            body.extend(rewrite_steps(&ep.script, put_ref));
            ep.script = Arc::new(body);
        }
    }
    out.services.push(store_spec);
    ServerlessApp {
        app: out,
        store: Some(store_id),
    }
}

fn rewrite_steps(steps: &[Step], put: EndpointRef) -> Vec<Step> {
    let mut out = Vec::with_capacity(steps.len());
    for s in steps {
        match s {
            Step::Call { .. } | Step::ParCall { .. } | Step::FanCall { .. } => {
                out.push(Step::call(put, 8192.0));
                out.push(s.clone());
            }
            Step::Branch { p, then, els } => out.push(Step::Branch {
                p: *p,
                then: Arc::new(rewrite_steps(then, put)),
                els: Arc::new(rewrite_steps(els, put)),
            }),
            Step::CacheLookup {
                cache,
                hit,
                then,
                els,
            } => out.push(Step::CacheLookup {
                cache: *cache,
                hit: *hit,
                then: Arc::new(rewrite_steps(then, put)),
                els: Arc::new(rewrite_steps(els, put)),
            }),
            other => out.push(other.clone()),
        }
    }
    out
}

fn make_store(
    mode: ExecutionMode,
    id: ServiceId,
) -> (dsb_core::ServiceSpec, EndpointRef, EndpointRef) {
    let (name, get_script, put_script, workers, instances) = match mode {
        ExecutionMode::LambdaS3 => (
            "s3-store",
            // S3 GET: ~12 ms first-byte, I/O bound, rate-limited by the
            // worker pool.
            vec![Step::Io {
                ns: Dist::log_normal(12e6, 0.5),
            }],
            vec![Step::Io {
                ns: Dist::log_normal(18e6, 0.5),
            }],
            64u32,
            2u32,
        ),
        ExecutionMode::LambdaMem => (
            "mem-store",
            vec![Step::Compute {
                ns: Dist::log_normal(6_000.0, 0.4),
                domain: dsb_uarch::ExecDomain::User,
            }],
            vec![Step::Compute {
                ns: Dist::log_normal(8_000.0, 0.4),
                domain: dsb_uarch::ExecDomain::User,
            }],
            32,
            4,
        ),
        ExecutionMode::Ec2 => unreachable!("no store for EC2"),
    };
    let spec = dsb_core::ServiceSpec {
        name: name.to_string(),
        profile: UarchProfile::memcached(),
        concurrency: dsb_core::Concurrency::Blocking,
        workers: dsb_core::WorkerPolicy::Fixed(workers),
        protocol: Protocol::ThriftRpc,
        lb: dsb_core::LbPolicy::RoundRobin,
        initial_instances: instances,
        conn_limit: 1024,
        zone_pref: None,
        placement: dsb_core::PlacementHint::Spread,
        endpoints: vec![
            dsb_core::EndpointSpec {
                name: "get".to_string(),
                resp_bytes: Dist::constant(8192.0),
                script: Arc::new(get_script),
            },
            dsb_core::EndpointSpec {
                name: "put".to_string(),
                resp_bytes: Dist::constant(64.0),
                script: Arc::new(put_script),
            },
        ],
    };
    (
        spec,
        EndpointRef {
            service: id,
            endpoint: 0,
        },
        EndpointRef {
            service: id,
            endpoint: 1,
        },
    )
}

/// Billing parameters, defaulting to the 2018/2019 AWS price book the
/// paper's numbers reflect.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pricing {
    /// m5.12xlarge on-demand, USD per instance-hour.
    pub ec2_instance_hour: f64,
    /// USD per million Lambda requests.
    pub lambda_per_million_req: f64,
    /// USD per GB-second of Lambda duration.
    pub lambda_gb_second: f64,
    /// Assumed function memory, GB.
    pub lambda_mem_gb: f64,
    /// USD per 1000 S3 PUTs.
    pub s3_put_per_k: f64,
    /// USD per 1000 S3 GETs.
    pub s3_get_per_k: f64,
}

impl Default for Pricing {
    fn default() -> Self {
        Pricing {
            ec2_instance_hour: 2.304,
            lambda_per_million_req: 0.20,
            lambda_gb_second: 0.000_016_666_7,
            lambda_mem_gb: 1.0,
            s3_put_per_k: 0.005,
            s3_get_per_k: 0.0004,
        }
    }
}

/// A cost breakdown in USD for one run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostReport {
    /// Compute cost (instance-hours or GB-seconds + requests).
    pub compute_usd: f64,
    /// Storage-operation cost (S3 GET/PUT), if any.
    pub storage_usd: f64,
}

impl CostReport {
    /// Total cost.
    pub fn total(&self) -> f64 {
        self.compute_usd + self.storage_usd
    }
}

/// EC2 billing: instances reserved for the whole run across all services.
pub fn ec2_cost(sim: &Simulation, run: SimDuration, pricing: &Pricing) -> CostReport {
    let services = sim.app().service_count();
    let mut instances = 0usize;
    for i in 0..services {
        instances += sim.instance_count(ServiceId(i as u32));
    }
    CostReport {
        compute_usd: instances as f64 * run.as_secs_f64() / 3600.0 * pricing.ec2_instance_hour,
        storage_usd: 0.0,
    }
}

/// Lambda billing: per-invocation requests plus GB-seconds of billed
/// duration (span wall-clock), plus S3 operation costs when `store` is the
/// S3-backed store. The remote-memory configuration instead bills the
/// dedicated EC2 instances that hold intermediate state for the whole run
/// (the paper's "four additional EC2 instances").
pub fn lambda_cost_for_run(
    sim: &Simulation,
    store: Option<ServiceId>,
    s3_store: bool,
    run: SimDuration,
    pricing: &Pricing,
) -> CostReport {
    let mut requests = 0u64;
    let mut billed_ns = 0.0f64;
    let services = sim.app().service_count();
    for i in 0..services {
        let sid = ServiceId(i as u32);
        if Some(sid) == store {
            continue;
        }
        if let Some(stats) = sim.collector().service(sid.0) {
            requests += stats.spans;
            billed_ns += stats.latency.mean() * stats.spans as f64;
        }
    }
    let compute_usd = requests as f64 / 1e6 * pricing.lambda_per_million_req
        + billed_ns / 1e9 * pricing.lambda_mem_gb * pricing.lambda_gb_second;
    let mut storage_usd = match store {
        Some(sid) if s3_store => {
            // get is endpoint 0, put endpoint 1; we only have per-service
            // span counts, so split by the observed call pattern: one get
            // per function invocation, one put per downstream call — both
            // recorded as store spans. Approximate an even split.
            let ops = sim.collector().service(sid.0).map_or(0, |s| s.spans) as f64;
            (ops / 2.0) / 1000.0 * (pricing.s3_get_per_k + pricing.s3_put_per_k)
        }
        _ => 0.0,
    };
    if let (Some(sid), false) = (store, s3_store) {
        // Remote-memory store: dedicated instances billed per hour.
        storage_usd +=
            sim.instance_count(sid) as f64 * run.as_secs_f64() / 3600.0 * pricing.ec2_instance_hour;
    }
    CostReport {
        compute_usd,
        storage_usd,
    }
}

/// [`lambda_cost_for_run`] without remote-memory instance billing (kept
/// for S3-backed runs where the run length does not matter).
pub fn lambda_cost(
    sim: &Simulation,
    store: Option<ServiceId>,
    s3_store: bool,
    pricing: &Pricing,
) -> CostReport {
    lambda_cost_for_run(sim, store, s3_store, SimDuration::ZERO, pricing)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsb_core::{AppBuilder, ClusterSpec, RequestType};
    use dsb_simcore::SimTime;

    fn two_tier() -> (AppSpec, EndpointRef, ServiceId, ServiceId) {
        let mut app = AppBuilder::new("t");
        let back = app.service("back").workers(8).build();
        let get = app.endpoint(
            back,
            "get",
            Dist::constant(512.0),
            vec![Step::work_us(20.0)],
        );
        let front = app.service("front").workers(8).build();
        let root = app.endpoint(
            front,
            "root",
            Dist::constant(512.0),
            vec![Step::work_us(10.0), Step::call(get, 128.0)],
        );
        (app.build(), root, front, back)
    }

    #[test]
    fn ec2_mode_is_identity() {
        let (app, _, _, _) = two_tier();
        let s = to_serverless(&app, ExecutionMode::Ec2, &[]);
        assert!(s.store.is_none());
        assert_eq!(s.app.service_count(), app.service_count());
    }

    #[test]
    fn lambda_rewrite_inserts_store_edges() {
        let (app, _, front, back) = two_tier();
        let s = to_serverless(&app, ExecutionMode::LambdaS3, &[]);
        let store = s.store.unwrap();
        assert_eq!(s.app.service_count(), 3);
        let edges = s.app.edges();
        assert!(edges.contains(&(front, store)), "front must touch store");
        assert!(edges.contains(&(back, store)), "back must touch store");
        assert!(edges.contains(&(front, back)), "original edge preserved");
        // Every rewritten service is on-demand now.
        assert!(matches!(
            s.app.service(front).workers,
            dsb_core::WorkerPolicy::OnDemand { .. }
        ));
    }

    #[test]
    fn keep_provisioned_services_untouched() {
        let (app, _, _front, back) = two_tier();
        let s = to_serverless(&app, ExecutionMode::LambdaMem, &[back]);
        assert!(matches!(
            s.app.service(back).workers,
            dsb_core::WorkerPolicy::Fixed(_)
        ));
    }

    #[test]
    fn lambda_s3_slower_than_mem_and_ec2() {
        let run = |mode: ExecutionMode| {
            let (app, root, _, _) = two_tier();
            let s = to_serverless(&app, mode, &[]);
            let mut cluster = ClusterSpec::xeon_cluster(4, 1);
            cluster.trace_sample_prob = 0.0;
            let mut sim = Simulation::new(s.app, cluster, 11);
            for i in 0..200u64 {
                sim.inject(SimTime::from_millis(i * 5), root, RequestType(0), 256, i);
            }
            sim.run_until_idle();
            sim.request_stats(RequestType(0))
                .unwrap()
                .latency
                .quantile(0.5)
        };
        let ec2 = run(ExecutionMode::Ec2);
        let mem = run(ExecutionMode::LambdaMem);
        let s3 = run(ExecutionMode::LambdaS3);
        assert!(s3 > 3 * mem, "S3 {s3} vs mem {mem}");
        assert!(mem > ec2, "mem {mem} vs ec2 {ec2}");
    }

    #[test]
    fn costs_lambda_cheaper_at_low_utilization() {
        let (app, root, _, _) = two_tier();
        // EC2: run mostly idle.
        let mut cluster = ClusterSpec::xeon_cluster(4, 1);
        cluster.trace_sample_prob = 0.0;
        let mut sim = Simulation::new(app.clone(), cluster.clone(), 3);
        for i in 0..100u64 {
            sim.inject(SimTime::from_millis(i * 100), root, RequestType(0), 256, i);
        }
        sim.run_until_idle();
        let run_len = SimDuration::from_secs(10);
        let ec2 = ec2_cost(&sim, run_len, &Pricing::default());
        assert!(ec2.compute_usd > 0.0);

        // Lambda on the same traffic.
        let s = to_serverless(&app, ExecutionMode::LambdaS3, &[]);
        let mut sim2 = Simulation::new(s.app, cluster, 3);
        for i in 0..100u64 {
            sim2.inject(SimTime::from_millis(i * 100), root, RequestType(0), 256, i);
        }
        sim2.run_until_idle();
        let lam = lambda_cost(&sim2, s.store, true, &Pricing::default());
        assert!(lam.total() > 0.0);
        assert!(
            lam.total() < ec2.total() / 5.0,
            "lambda {} vs ec2 {}",
            lam.total(),
            ec2.total()
        );
    }

    #[test]
    fn labels_distinct() {
        let labels = [
            ExecutionMode::Ec2.label(),
            ExecutionMode::LambdaS3.label(),
            ExecutionMode::LambdaMem.label(),
        ];
        assert_eq!(
            labels
                .iter()
                .collect::<std::collections::BTreeSet<_>>()
                .len(),
            3
        );
    }
}
