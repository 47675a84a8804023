//! Static application and cluster descriptions: services, endpoints,
//! behaviour scripts, machines, and the builder API.

use std::sync::Arc;

use dsb_net::{Protocol, Zone};
use dsb_simcore::Dist;
use dsb_uarch::{CoreModel, ExecDomain, UarchProfile};

/// Index of a service within an application.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServiceId(pub u32);

/// Index of a running service instance within a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstanceId(pub u32);

/// Index of a machine within a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MachineId(pub u32);

/// A request-type tag, used to report per-query-type latency (the paper's
/// §3.8 query-diversity analysis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestType(pub u32);

/// A reference to one endpoint of one service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EndpointRef {
    /// The service exposing the endpoint.
    pub service: ServiceId,
    /// The endpoint's index within the service.
    pub endpoint: u32,
}

/// How a service schedules handlers onto its workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Concurrency {
    /// Thread-per-request: a worker is held for the whole invocation,
    /// *including* while blocked on downstream synchronous calls. This is
    /// the semantics that produces backpressure (Fig. 17) and misleading
    /// "busy but idle" utilization (Figs. 19–20).
    Blocking,
    /// Event-driven: the worker is released at the first downstream call;
    /// continuations run on the event loop (nginx/node.js style).
    Async,
}

/// How many workers an instance has.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkerPolicy {
    /// A fixed pool of `n` workers per instance.
    Fixed(u32),
    /// Serverless-style: a new worker is spawned per request when no warm
    /// one is free, after a sampled cold-start delay (ns).
    OnDemand {
        /// Cold-start delay distribution, ns.
        cold_start_ns: Dist,
    },
}

/// Load-balancing policy used by callers of a service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LbPolicy {
    /// Cycle through instances.
    RoundRobin,
    /// Pick the instance with the fewest queued + running invocations.
    LeastOutstanding,
    /// Hash the request's partition key (sharded back-ends; makes request
    /// skew concentrate load, Fig. 22b).
    Partition,
}

/// One step of a behaviour script.
///
/// Scripts are interpreted per invocation by the simulator. Compute demand
/// is expressed in *reference-core nanoseconds* (Xeon at nominal
/// frequency); the executing machine's `CoreModel` rescales it.
#[derive(Debug, Clone)]
pub enum Step {
    /// Burn CPU on the instance's machine.
    Compute {
        /// Demand in reference-core nanoseconds.
        ns: Dist,
        /// Accounting domain (user code, kernel, libraries).
        domain: ExecDomain,
    },
    /// Hold the worker without using a core (disk/NFS I/O, lock waits).
    /// Insensitive to core speed — this is what makes MongoDB tolerate
    /// frequency scaling in Fig. 12.
    Io {
        /// Wait time in nanoseconds (not rescaled by core speed).
        ns: Dist,
    },
    /// A synchronous call to another service's endpoint.
    Call {
        /// Callee.
        target: EndpointRef,
        /// Request payload size in bytes.
        req_bytes: Dist,
    },
    /// Parallel fan-out to several endpoints; joins when all respond.
    /// Only allowed toward non-blocking protocols (multiplexed RPC).
    ParCall {
        /// The parallel calls (callee, request size).
        calls: Vec<(EndpointRef, Dist)>,
    },
    /// Parallel fan-out of `n` identical calls (e.g. broadcast to
    /// followers' timelines); joins when all respond.
    FanCall {
        /// Callee.
        target: EndpointRef,
        /// Request payload size in bytes.
        req_bytes: Dist,
        /// Fan-out degree (sampled, rounded, min 0).
        n: Dist,
    },
    /// With probability `p`, run `then`, otherwise `els` (cache hit/miss,
    /// request-mix variation within a handler).
    Branch {
        /// Probability of taking `then`.
        p: f64,
        /// Steps executed on success.
        then: Arc<Vec<Step>>,
        /// Steps executed otherwise.
        els: Arc<Vec<Step>>,
    },
    /// A cache-aside lookup against a designated cache tier. Behaves
    /// exactly like [`Step::Branch`] with `p = hit`, except the
    /// simulator knows which service is the cache: when the request's
    /// home cache shard is down or refilling cold (a `ChaosPlan`
    /// cache-instance loss or machine restart), the hit draw is
    /// overridden to a miss and the `els` arm — the refill path — runs
    /// instead. The static analyzer uses the same marker to identify
    /// cache tiers structurally (DSB017).
    CacheLookup {
        /// The cache tier's get endpoint (also the first call in both
        /// arms, as built by [`Step::cache_lookup`]).
        cache: EndpointRef,
        /// Warm hit probability.
        hit: f64,
        /// Steps on a hit (the cache get).
        then: Arc<Vec<Step>>,
        /// Steps on a miss (the cache get plus the refill path).
        els: Arc<Vec<Step>>,
    },
}

impl Step {
    /// User-domain compute of `us` microseconds (log-normal, σ=0.4).
    pub fn work_us(us: f64) -> Step {
        Step::Compute {
            ns: Dist::log_normal(us * 1000.0, 0.4),
            domain: ExecDomain::User,
        }
    }

    /// Library-domain compute of `us` microseconds (log-normal, σ=0.4).
    pub fn libs_us(us: f64) -> Step {
        Step::Compute {
            ns: Dist::log_normal(us * 1000.0, 0.4),
            domain: ExecDomain::Libs,
        }
    }

    /// An I/O wait of `us` microseconds (log-normal, σ=0.6).
    pub fn io_us(us: f64) -> Step {
        Step::Io {
            ns: Dist::log_normal(us * 1000.0, 0.6),
        }
    }

    /// A synchronous call with the given request size in bytes.
    pub fn call(target: EndpointRef, req_bytes: f64) -> Step {
        Step::Call {
            target,
            req_bytes: Dist::constant(req_bytes),
        }
    }

    /// A cache-aside lookup: call the cache; on a miss (probability
    /// `1 - hit_ratio`) run `on_miss` (typically a DB call plus a cache
    /// fill).
    pub fn cache_lookup(cache_get: EndpointRef, hit_ratio: f64, on_miss: Vec<Step>) -> Step {
        Step::CacheLookup {
            cache: cache_get,
            hit: hit_ratio,
            then: Arc::new(vec![Step::call(cache_get, 128.0)]),
            els: Arc::new({
                let mut steps = vec![Step::call(cache_get, 128.0)];
                steps.extend(on_miss);
                steps
            }),
        }
    }

    /// Visits every step of `steps` in script order, each with `w` times
    /// the probability that an invocation reaches it. A
    /// [`Step::Branch`] or [`Step::CacheLookup`] is visited before its
    /// arms; `then` runs at `w * p`, then `els` at `w * (1 - p)`.
    ///
    /// With [`Step::mean`], the one static traversal of a script's tree:
    /// a new branching variant is taught to these two, the simulator's
    /// interpreter and `dsb-serverless`'s rewrite, and to no other
    /// reader.
    pub fn walk(steps: &[Step], w: f64, f: &mut impl FnMut(&Step, f64)) {
        for s in steps {
            f(s, w);
            match s {
                Step::Branch { p, then, els }
                | Step::CacheLookup {
                    hit: p, then, els, ..
                } => {
                    Step::walk(then, w * p, f);
                    Step::walk(els, w * (1.0 - p), f);
                }
                _ => {}
            }
        }
    }

    /// The branch-weighted mean of `leaf` over one invocation of
    /// `steps`: `leaf` of every non-branching step, summed in script
    /// order, with each branch adding `p * mean(then) + (1 - p) *
    /// mean(els)`.
    pub fn mean(steps: &[Step], leaf: &impl Fn(&Step) -> f64) -> f64 {
        let mut total = 0.0;
        for s in steps {
            total += match s {
                Step::Branch { p, then, els }
                | Step::CacheLookup {
                    hit: p, then, els, ..
                } => p * Step::mean(then, leaf) + (1.0 - p) * Step::mean(els, leaf),
                _ => leaf(s),
            };
        }
        total
    }

    /// The calls this step makes itself, as `(callee, request bytes,
    /// parallel)`: one for a `Call` or `FanCall`, one per member of a
    /// `ParCall`, none for any other step. `FanCall` and `ParCall`
    /// members are the parallel ones.
    pub fn calls(&self) -> impl Iterator<Item = (EndpointRef, &Dist, bool)> {
        let (one, par): (_, &[(EndpointRef, Dist)]) = match self {
            Step::Call { target, req_bytes } => (Some((*target, req_bytes, false)), &[]),
            Step::FanCall {
                target, req_bytes, ..
            } => (Some((*target, req_bytes, true)), &[]),
            Step::ParCall { calls } => (None, calls),
            _ => (None, &[]),
        };
        one.into_iter()
            .chain(par.iter().map(|(t, b)| (*t, b, true)))
    }
}

/// Every endpoint `s` names, with its parallel flag: its
/// [`Step::calls`] plus a `CacheLookup`'s cache marker, which the
/// simulator resolves to a service too.
fn named_targets(s: &Step) -> impl Iterator<Item = (EndpointRef, bool)> + '_ {
    let marker = match s {
        Step::CacheLookup { cache, .. } => Some((*cache, false)),
        _ => None,
    };
    marker
        .into_iter()
        .chain(s.calls().map(|(t, _, parallel)| (t, parallel)))
}

/// An endpoint: a named handler plus its response size.
#[derive(Debug, Clone)]
pub struct EndpointSpec {
    /// Handler name (e.g. `composePost`).
    pub name: String,
    /// Response payload size in bytes.
    pub resp_bytes: Dist,
    /// The behaviour script.
    pub script: Arc<Vec<Step>>,
}

/// The static description of one microservice.
#[derive(Debug, Clone)]
pub struct ServiceSpec {
    /// Service name (unique within the app).
    pub name: String,
    /// Microarchitectural profile of its instruction stream.
    pub profile: UarchProfile,
    /// Worker scheduling model.
    pub concurrency: Concurrency,
    /// Worker pool sizing.
    pub workers: WorkerPolicy,
    /// Protocol callers use to reach this service.
    pub protocol: Protocol,
    /// Load-balancing policy across its instances.
    pub lb: LbPolicy,
    /// Instances to start with.
    pub initial_instances: u32,
    /// Per-caller-instance connection limit toward this service (only
    /// enforced for blocking protocols).
    pub conn_limit: u32,
    /// Preferred placement zone (`None`: datacenter default).
    pub zone_pref: Option<Zone>,
    /// Placement affinity within the zone (deployment-table pinning).
    pub placement: crate::placement::PlacementHint,
    /// Exposed endpoints.
    pub endpoints: Vec<EndpointSpec>,
}

/// A complete application: a named set of services.
#[derive(Debug, Clone)]
pub struct AppSpec {
    /// Application name.
    pub name: String,
    /// All services, indexed by [`ServiceId`].
    pub services: Vec<ServiceSpec>,
}

impl AppSpec {
    /// Looks a service up by name.
    pub fn service_by_name(&self, name: &str) -> Option<ServiceId> {
        self.services
            .iter()
            .position(|s| s.name == name)
            .map(|i| ServiceId(i as u32))
    }

    /// The service spec for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn service(&self, id: ServiceId) -> &ServiceSpec {
        &self.services[id.0 as usize]
    }

    /// Number of services.
    pub fn service_count(&self) -> usize {
        self.services.len()
    }

    /// The service behind `t`, if `t` names one of its endpoints.
    pub fn callee(&self, t: EndpointRef) -> Option<&ServiceSpec> {
        self.services
            .get(t.service.0 as usize)
            .filter(|svc| (t.endpoint as usize) < svc.endpoints.len())
    }

    /// Every call that breaks the call-validity rule, as `(caller,
    /// endpoint index, problem)` in service, endpoint and script order:
    /// a target (or `CacheLookup` marker) naming no endpoint, and a
    /// parallel call to a service whose protocol holds one outstanding
    /// request per connection. [`AppBuilder::build`] panics on the first
    /// entry; the static analyzer reports them all.
    pub fn bad_calls(&self) -> Vec<(ServiceId, u32, BadCall)> {
        let mut bad = Vec::new();
        for (i, svc) in self.services.iter().enumerate() {
            for (e, ep) in svc.endpoints.iter().enumerate() {
                Step::walk(&ep.script, 1.0, &mut |s, _| {
                    for (t, parallel) in named_targets(s) {
                        let problem = match self.callee(t) {
                            None => BadCall::Dangling(t),
                            Some(c) if parallel && c.protocol.blocking_connections() => {
                                BadCall::ParallelToBlocking(t.service)
                            }
                            Some(_) => continue,
                        };
                        bad.push((ServiceId(i as u32), e as u32, problem));
                    }
                });
            }
        }
        bad
    }

    /// All dependency edges `(caller, callee)` implied by scripts.
    pub fn edges(&self) -> Vec<(ServiceId, ServiceId)> {
        let mut edges = Vec::new();
        for (i, svc) in self.services.iter().enumerate() {
            let from = ServiceId(i as u32);
            for ep in &svc.endpoints {
                Step::walk(&ep.script, 1.0, &mut |s, _| {
                    for (t, _) in named_targets(s) {
                        if !edges.contains(&(from, t.service)) {
                            edges.push((from, t.service));
                        }
                    }
                });
            }
        }
        edges
    }

    /// Renders the dependency graph in Graphviz DOT format (Fig. 18).
    pub fn to_dot(&self) -> String {
        let mut out = format!("digraph \"{}\" {{\n  rankdir=LR;\n", self.name);
        for s in &self.services {
            out.push_str(&format!("  \"{}\";\n", s.name));
        }
        for (a, b) in self.edges() {
            out.push_str(&format!(
                "  \"{}\" -> \"{}\";\n",
                self.service(a).name,
                self.service(b).name
            ));
        }
        out.push_str("}\n");
        out
    }
}

/// One way a call breaks the call-validity rule (see
/// [`AppSpec::bad_calls`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BadCall {
    /// The call names an endpoint that does not exist.
    Dangling(EndpointRef),
    /// A parallel call (`FanCall` or `ParCall`) to this service, whose
    /// protocol cannot multiplex outstanding requests on a connection.
    ParallelToBlocking(ServiceId),
}

/// Fluent construction of an [`AppSpec`].
///
/// # Example
///
/// ```
/// use dsb_core::{AppBuilder, Step};
/// use dsb_net::Protocol;
/// use dsb_simcore::Dist;
/// use dsb_uarch::UarchProfile;
///
/// let mut app = AppBuilder::new("two-tier");
/// let cache = app
///     .service("memcached")
///     .profile(UarchProfile::memcached())
///     .protocol(Protocol::ThriftRpc)
///     .workers(8)
///     .build();
/// let get = app.endpoint(cache, "get", Dist::constant(1024.0), vec![Step::work_us(8.0)]);
/// let front = app.service("front").build();
/// app.endpoint(
///     front,
///     "page",
///     Dist::constant(4096.0),
///     vec![Step::work_us(50.0), Step::call(get, 128.0)],
/// );
/// let spec = app.build();
/// assert_eq!(spec.service_count(), 2);
/// assert_eq!(spec.edges(), vec![(front, cache)]);
/// ```
#[derive(Debug)]
pub struct AppBuilder {
    name: String,
    services: Vec<ServiceSpec>,
}

impl AppBuilder {
    /// Starts building an application.
    pub fn new(name: &str) -> Self {
        AppBuilder {
            name: name.to_string(),
            services: Vec::new(),
        }
    }

    /// Declares a service; finish with [`ServiceBuilder::build`].
    pub fn service(&mut self, name: &str) -> ServiceBuilder<'_> {
        ServiceBuilder {
            app: self,
            spec: ServiceSpec {
                name: name.to_string(),
                profile: UarchProfile::microservice_default(),
                concurrency: Concurrency::Blocking,
                workers: WorkerPolicy::Fixed(8),
                protocol: Protocol::ThriftRpc,
                lb: LbPolicy::RoundRobin,
                initial_instances: 1,
                conn_limit: 128,
                zone_pref: None,
                placement: crate::placement::PlacementHint::Spread,
                endpoints: Vec::new(),
            },
        }
    }

    /// Adds an endpoint to an already-declared service; the returned
    /// [`EndpointRef`] is what callers' scripts name.
    ///
    /// # Panics
    ///
    /// Panics if `service` is unknown.
    pub fn endpoint(
        &mut self,
        service: ServiceId,
        name: &str,
        resp_bytes: Dist,
        script: Vec<Step>,
    ) -> EndpointRef {
        let svc = self
            .services
            .get_mut(service.0 as usize)
            .expect("endpoint() on unknown service");
        svc.endpoints.push(EndpointSpec {
            name: name.to_string(),
            resp_bytes,
            script: Arc::new(script),
        });
        EndpointRef {
            service,
            endpoint: (svc.endpoints.len() - 1) as u32,
        }
    }

    /// Finalizes the application.
    ///
    /// # Panics
    ///
    /// Panics on the first entry of [`AppSpec::bad_calls`]: a call (or
    /// cache marker) naming an out-of-range endpoint, or a
    /// `ParCall`/`FanCall` toward a blocking-connection protocol
    /// (head-of-line-blocked protocols cannot multiplex parallel calls in
    /// this model).
    pub fn build(self) -> AppSpec {
        let spec = AppSpec {
            name: self.name,
            services: self.services,
        };
        if let Some(&(from, _, bad)) = spec.bad_calls().first() {
            let caller = &spec.service(from).name;
            match bad {
                BadCall::Dangling(t) => panic!(
                    "{caller}: call to unknown endpoint {} of service {}",
                    t.endpoint, t.service.0
                ),
                BadCall::ParallelToBlocking(s) => panic!(
                    "{caller}: parallel calls to blocking protocol of {}",
                    spec.service(s).name
                ),
            }
        }
        spec
    }
}

/// Configures one service within an [`AppBuilder`].
#[derive(Debug)]
pub struct ServiceBuilder<'a> {
    app: &'a mut AppBuilder,
    spec: ServiceSpec,
}

impl ServiceBuilder<'_> {
    /// Sets the µarch profile.
    pub fn profile(mut self, p: UarchProfile) -> Self {
        self.spec.profile = p;
        self
    }

    /// Uses the event-driven concurrency model.
    pub fn event_driven(mut self) -> Self {
        self.spec.concurrency = Concurrency::Async;
        self
    }

    /// Uses the thread-per-request (blocking) concurrency model.
    pub fn blocking(mut self) -> Self {
        self.spec.concurrency = Concurrency::Blocking;
        self
    }

    /// Sets a fixed worker pool of `n` per instance.
    pub fn workers(mut self, n: u32) -> Self {
        self.spec.workers = WorkerPolicy::Fixed(n);
        self
    }

    /// Uses serverless-style on-demand workers.
    pub fn on_demand_workers(mut self, cold_start_ns: Dist) -> Self {
        self.spec.workers = WorkerPolicy::OnDemand { cold_start_ns };
        self
    }

    /// Sets the protocol callers use to reach this service.
    pub fn protocol(mut self, p: Protocol) -> Self {
        self.spec.protocol = p;
        self
    }

    /// Sets the load-balancing policy.
    pub fn lb(mut self, lb: LbPolicy) -> Self {
        self.spec.lb = lb;
        self
    }

    /// Sets the number of instances to start with.
    pub fn instances(mut self, n: u32) -> Self {
        self.spec.initial_instances = n.max(1);
        self
    }

    /// Sets the per-caller-instance connection limit (blocking protocols).
    pub fn conn_limit(mut self, n: u32) -> Self {
        self.spec.conn_limit = n.max(1);
        self
    }

    /// Prefers placement in the given zone (e.g. [`Zone::Edge`]).
    pub fn zone(mut self, z: Zone) -> Self {
        self.spec.zone_pref = Some(z);
        self
    }

    /// Pins instance `k` of this service to the machine hosting instance
    /// `k mod n` of `anchor` (which must be declared before this service).
    /// Models the paper's deployment tables, e.g. one full sensor stack
    /// per drone.
    pub fn colocate_with(mut self, anchor: ServiceId) -> Self {
        self.spec.placement = crate::placement::PlacementHint::CoLocate(anchor);
        self
    }

    /// Registers the service and returns its id.
    pub fn build(self) -> ServiceId {
        debug_assert!(
            self.spec.lb != LbPolicy::Partition || self.spec.initial_instances >= 2,
            "service `{}` uses LbPolicy::Partition over {} instance: give \
             sharded stores at least 2 shards, or use RoundRobin (DSB008)",
            self.spec.name,
            self.spec.initial_instances,
        );
        let id = ServiceId(self.app.services.len() as u32);
        self.app.services.push(self.spec);
        id
    }
}

/// One machine of the simulated cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineSpec {
    /// Number of cores.
    pub cores: u32,
    /// Core microarchitecture and frequency.
    pub core: CoreModel,
    /// NIC bandwidth, Gb/s.
    pub nic_gbps: f64,
    /// Topology location.
    pub zone: Zone,
}

impl MachineSpec {
    /// The paper's server: a two-socket, 40-core Xeon node with a 10 GbE
    /// NIC.
    pub fn xeon_server(rack: u16) -> Self {
        MachineSpec {
            cores: 40,
            core: CoreModel::xeon(),
            nic_gbps: 10.0,
            zone: Zone::Rack(rack),
        }
    }

    /// A Cavium ThunderX node: 96 wimpy in-order cores, same network.
    pub fn thunderx_server(rack: u16) -> Self {
        MachineSpec {
            cores: 96,
            core: CoreModel::thunderx(),
            nic_gbps: 10.0,
            zone: Zone::Rack(rack),
        }
    }

    /// An edge device (drone on-board computer): 2 very weak cores, wifi.
    pub fn edge_device() -> Self {
        MachineSpec {
            cores: 2,
            core: CoreModel::xeon().at_frequency(0.5),
            nic_gbps: 0.05,
            zone: Zone::Edge,
        }
    }
}

/// The whole cluster: machines plus global knobs.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Machines, indexed by [`MachineId`].
    pub machines: Vec<MachineSpec>,
    /// Network fabric latencies.
    pub fabric: dsb_net::FabricConfig,
    /// Delay from requesting a new instance to it serving traffic.
    pub instance_startup: dsb_simcore::SimDuration,
    /// Trace sampling probability (see `dsb-trace`).
    pub trace_sample_prob: f64,
    /// Width of metric windows (span-latency heatmaps, request-latency
    /// timelines).
    pub window: dsb_simcore::SimDuration,
    /// CPU scheduling quantum: compute steps longer than this run as
    /// round-robin timeslices (OS preemption). `SimDuration::MAX`
    /// disables preemption (an ablation knob).
    pub cpu_quantum: dsb_simcore::SimDuration,
}

impl ClusterSpec {
    /// `n` Xeon servers spread across `racks` racks, paper-like defaults.
    pub fn xeon_cluster(n: u32, racks: u16) -> Self {
        ClusterSpec {
            machines: (0..n)
                .map(|i| MachineSpec::xeon_server((i % racks.max(1) as u32) as u16))
                .collect(),
            fabric: dsb_net::FabricConfig::default(),
            instance_startup: dsb_simcore::SimDuration::from_secs(8),
            trace_sample_prob: 0.01,
            window: dsb_simcore::SimDuration::from_secs(1),
            cpu_quantum: dsb_simcore::SimDuration::from_millis(5),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_app() -> AppSpec {
        let mut app = AppBuilder::new("t");
        let b = app.service("b").build();
        let get = app.endpoint(b, "get", Dist::constant(100.0), vec![Step::work_us(5.0)]);
        let a = app.service("a").event_driven().build();
        app.endpoint(
            a,
            "root",
            Dist::constant(100.0),
            vec![Step::work_us(1.0), Step::call(get, 64.0)],
        );
        app.build()
    }

    #[test]
    fn builder_assigns_ids_in_order() {
        let spec = tiny_app();
        assert_eq!(spec.service_by_name("b"), Some(ServiceId(0)));
        assert_eq!(spec.service_by_name("a"), Some(ServiceId(1)));
        assert_eq!(spec.service_by_name("zzz"), None);
        assert_eq!(spec.service(ServiceId(1)).concurrency, Concurrency::Async);
    }

    #[test]
    fn edges_derived_from_scripts() {
        let spec = tiny_app();
        assert_eq!(spec.edges(), vec![(ServiceId(1), ServiceId(0))]);
    }

    #[test]
    fn dot_output_contains_services_and_edges() {
        let dot = tiny_app().to_dot();
        assert!(dot.contains("\"a\" -> \"b\""));
        assert!(dot.contains("digraph"));
    }

    #[test]
    #[should_panic(expected = "parallel calls to blocking protocol")]
    fn parallel_to_http_rejected() {
        let mut app = AppBuilder::new("bad");
        let b = app.service("b").protocol(Protocol::Http1).build();
        let get = app.endpoint(b, "get", Dist::constant(1.0), vec![]);
        let a = app.service("a").build();
        app.endpoint(
            a,
            "root",
            Dist::constant(1.0),
            vec![Step::FanCall {
                target: get,
                req_bytes: Dist::constant(10.0),
                n: Dist::constant(3.0),
            }],
        );
        app.build();
    }

    #[test]
    #[should_panic(expected = "unknown endpoint")]
    fn dangling_endpoint_rejected() {
        let mut app = AppBuilder::new("bad");
        let b = app.service("b").build();
        let a = app.service("a").build();
        app.endpoint(
            a,
            "root",
            Dist::constant(1.0),
            vec![Step::call(
                EndpointRef {
                    service: b,
                    endpoint: 7,
                },
                1.0,
            )],
        );
        app.build();
    }

    #[test]
    fn cache_lookup_marks_the_cache_tier() {
        let mut app = AppBuilder::new("c");
        let mc = app.service("mc").build();
        let get = app.endpoint(mc, "get", Dist::constant(1.0), vec![]);
        let db = app.service("db").build();
        let find = app.endpoint(db, "find", Dist::constant(1.0), vec![]);
        let s = Step::cache_lookup(get, 0.9, vec![Step::call(find, 64.0)]);
        match s {
            Step::CacheLookup {
                cache,
                hit,
                then,
                els,
            } => {
                assert_eq!(cache, get);
                assert_eq!(hit, 0.9);
                // Both arms start with the cache get, so call-graph
                // edges still come from the arms alone.
                assert_eq!(then.len(), 1);
                assert_eq!(els.len(), 2);
            }
            other => panic!("expected cache lookup, got {other:?}"),
        }
    }

    #[test]
    fn walk_mean_and_calls_follow_script_order() {
        let t = |endpoint| EndpointRef {
            service: ServiceId(0),
            endpoint,
        };
        let at = |ns: f64| Dist::constant(ns);
        let script = vec![
            Step::Compute {
                ns: at(1000.0),
                domain: ExecDomain::User,
            },
            Step::Branch {
                p: 0.25,
                then: Arc::new(vec![Step::call(t(1), 8.0)]),
                els: Arc::new(vec![
                    Step::CacheLookup {
                        cache: t(2),
                        hit: 0.75,
                        then: Arc::new(vec![Step::call(t(2), 8.0)]),
                        els: Arc::new(vec![
                            Step::call(t(2), 8.0),
                            Step::ParCall {
                                calls: vec![(t(3), at(16.0)), (t(4), at(32.0))],
                            },
                        ]),
                    },
                    Step::FanCall {
                        target: t(5),
                        req_bytes: at(8.0),
                        n: at(4.0),
                    },
                ]),
            },
            Step::Io { ns: at(2000.0) },
        ];
        let kind = |s: &Step| match s {
            Step::Compute { .. } => "compute",
            Step::Io { .. } => "io",
            Step::Call { .. } => "call",
            Step::ParCall { .. } => "par",
            Step::FanCall { .. } => "fan",
            Step::Branch { .. } => "branch",
            Step::CacheLookup { .. } => "cache",
        };
        let (mut visits, mut calls) = (Vec::new(), Vec::new());
        Step::walk(&script, 1.0, &mut |s, w| {
            visits.push((kind(s), w));
            calls.extend(
                s.calls()
                    .map(|(t, bytes, par)| (t.endpoint, bytes.mean(), par)),
            );
        });
        assert_eq!(
            visits,
            vec![
                ("compute", 1.0),
                ("branch", 1.0),
                ("call", 0.25),
                ("cache", 0.75),
                ("call", 0.5625),
                ("call", 0.1875),
                ("par", 0.1875),
                ("fan", 0.75),
                ("io", 1.0),
            ]
        );

        // Same nesting, same rounding as the hand-written expression.
        let leaf = |s: &Step| match s {
            Step::Compute { ns, .. } | Step::Io { ns } => ns.mean(),
            Step::Call { .. } => 0.1,
            Step::ParCall { .. } => 0.3,
            _ => 0.7,
        };
        let hand: f64 = 1000.0
            + (0.25 * 0.1 + (1.0 - 0.25) * ((0.75 * 0.1 + (1.0 - 0.75) * (0.1 + 0.3)) + 0.7))
            + 2000.0;
        assert_eq!(Step::mean(&script, &leaf).to_bits(), hand.to_bits());

        // Only call steps list calls: no cache marker, no branch node.
        assert_eq!(
            calls,
            vec![
                (1, 8.0, false),
                (2, 8.0, false),
                (2, 8.0, false),
                (3, 16.0, true),
                (4, 32.0, true),
                (5, 8.0, true),
            ]
        );
    }

    #[test]
    fn cluster_presets() {
        let c = ClusterSpec::xeon_cluster(20, 2);
        assert_eq!(c.machines.len(), 20);
        assert_eq!(c.machines[0].zone, Zone::Rack(0));
        assert_eq!(c.machines[1].zone, Zone::Rack(1));
        assert_eq!(MachineSpec::edge_device().cores, 2);
        assert!(MachineSpec::thunderx_server(0).cores > 40);
    }
}
