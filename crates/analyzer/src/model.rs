//! The shared static capacity model behind DSB009 and DSB011–DSB013.
//!
//! Every load-aware analyzer pass asks the same three questions: how
//! often is each endpoint invoked (offered entry rates propagated
//! through branch probabilities and expected fan-out degrees), how long
//! does one invocation hold a worker or a core, and how does that
//! demand compare to the provisioned pools and machines. This module
//! answers them once, publicly, so the differential-testing harness
//! (`dsb-gen`'s `dsb-diff`) can hold the *same* predictions the
//! diagnostics are built on against a fixed-seed simulation.

use std::collections::BTreeMap;
use std::fmt;

use dsb_core::{
    AppSpec, ClusterSpec, EndpointRef, LbPolicy, MachineId, PlacementPlan, ServiceId, Step,
    WorkerPolicy,
};
use dsb_net::Fabric;

/// Erlang-C: the probability an M/M/k arrival must queue, for `k` servers
/// offered `a` erlangs. Uses the numerically stable Erlang-B recurrence
/// `B(n) = a·B(n-1) / (n + a·B(n-1))`, then `C = k·B / (k - a·(1 - B))`.
/// The expected queueing delay in service-time units is
/// `Wq/S = C / (k·(1 - a/k))`. Returns 1.0 (certain wait) at or past
/// saturation.
pub fn erlang_c(k: u64, a: f64) -> f64 {
    if k == 0 || a >= k as f64 {
        return 1.0;
    }
    let mut b = 1.0;
    for n in 1..=k {
        b = a * b / (n as f64 + a * b);
    }
    let k = k as f64;
    let c = k * b / (k - a * (1.0 - b));
    c.clamp(0.0, 1.0)
}

/// Expected calls per invocation from `s` to each of its callees, given
/// the probability `w` that an invocation reaches `s` (see
/// [`Step::walk`]): a `FanCall` makes its mean degree's worth.
fn calls_per_visit(s: &Step, w: f64) -> f64 {
    match s {
        Step::FanCall { n, .. } => w * n.mean().max(0.0),
        _ => w,
    }
}

/// Service-level dependency edges over *valid* call targets only.
pub fn valid_edges(spec: &AppSpec) -> Vec<(ServiceId, ServiceId)> {
    let mut edges = Vec::new();
    for (i, svc) in spec.services.iter().enumerate() {
        let from = ServiceId(i as u32);
        for ep in &svc.endpoints {
            Step::walk(&ep.script, 1.0, &mut |s, _| {
                for (t, _, _) in s.calls() {
                    if spec.callee(t).is_some() && !edges.contains(&(from, t.service)) {
                        edges.push((from, t.service));
                    }
                }
            });
        }
    }
    edges
}

/// Kahn topological order of services (callers before callees); `None`
/// when the dependency graph is cyclic.
pub(crate) fn topo_order(spec: &AppSpec) -> Option<Vec<usize>> {
    let n = spec.services.len();
    let edges = valid_edges(spec);
    let mut indeg = vec![0u32; n];
    let mut adj = vec![Vec::new(); n];
    for &(a, b) in &edges {
        adj[a.0 as usize].push(b.0 as usize);
        indeg[b.0 as usize] += 1;
    }
    let mut order: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut head = 0;
    while head < order.len() {
        let v = order[head];
        head += 1;
        for &w in &adj[v] {
            indeg[w] -= 1;
            if indeg[w] == 0 {
                order.push(w);
            }
        }
    }
    (order.len() == n).then_some(order)
}

/// Expected per-endpoint arrival rates (req/s) given offered entry loads,
/// propagated through the call graph. `None` when the graph is cyclic.
pub fn endpoint_rates(spec: &AppSpec, offered: &[(EndpointRef, f64)]) -> Option<Vec<Vec<f64>>> {
    let order = topo_order(spec)?;
    let mut rates: Vec<Vec<f64>> = spec
        .services
        .iter()
        .map(|s| vec![0.0; s.endpoints.len()])
        .collect();
    for &(entry, qps) in offered {
        if spec.callee(entry).is_some() {
            rates[entry.service.0 as usize][entry.endpoint as usize] += qps;
        }
    }
    for &svc in &order {
        for e in 0..spec.services[svc].endpoints.len() {
            let rate = rates[svc][e];
            if rate <= 0.0 {
                continue;
            }
            Step::walk(&spec.services[svc].endpoints[e].script, 1.0, &mut |s, w| {
                for (t, _, _) in s.calls() {
                    if spec.callee(t).is_some() && t.service.0 as usize != svc {
                        rates[t.service.0 as usize][t.endpoint as usize] +=
                            rate * calls_per_visit(s, w);
                    }
                }
            });
        }
    }
    Some(rates)
}

/// Mean nanoseconds an invocation of `steps` holds a worker for locally
/// (compute + I/O; downstream calls excluded).
pub fn local_demand_ns(steps: &[Step]) -> f64 {
    Step::mean(steps, &|s| match s {
        Step::Compute { ns, .. } | Step::Io { ns } => ns.mean(),
        _ => 0.0,
    })
}

/// Mean nanoseconds of *CPU* demand per invocation (compute only — an
/// I/O phase holds a worker, not a core), branch-weighted. This is what
/// DSB011 charges against a machine's core budget; per-message network
/// processing is modeled separately (see [`net_demand_ns`] and
/// [`CapacityModel::machine_net`]).
pub fn compute_demand_ns(steps: &[Step]) -> f64 {
    Step::mean(steps, &|s| match s {
        Step::Compute { ns, .. } => ns.mean(),
        _ => 0.0,
    })
}

/// Client-ingress request payload (bytes) assumed by the static network
/// model. The offered-load interface carries only rates, not payload
/// sizes; this matches the suite's default query-mix request size, and
/// message costs are dominated by their per-message constants anyway.
pub const CLIENT_REQ_BYTES: u64 = 256;

/// Per-service network-processing CPU demand in reference-core ns/s:
/// the kernel (TCP/interrupt) plus library (de/serialization) cost of
/// every message the service sends or receives per second, mirroring
/// what `dsb-core` charges on machine cores per message. Per call edge
/// at rate `r`, the *caller* pays `r ×` (send request + receive
/// response) and the *callee* pays `r ×` (receive request + send
/// response), priced by the callee's protocol at the call site's mean
/// request bytes and the callee endpoint's mean response bytes. Entry
/// services additionally pay client ingress (receive side, at
/// [`CLIENT_REQ_BYTES`]) and the client reply (send side only).
/// Assumes NIC offload disabled — offload is a runtime toggle the
/// static spec does not carry.
pub fn net_demand_ns(
    spec: &AppSpec,
    rates: &[Vec<f64>],
    offered: &[(EndpointRef, f64)],
) -> Vec<f64> {
    let mut net = vec![0.0; spec.services.len()];
    for (i, svc) in spec.services.iter().enumerate() {
        for (e, ep) in svc.endpoints.iter().enumerate() {
            let rate = rates[i][e];
            if rate <= 0.0 {
                continue;
            }
            Step::walk(&ep.script, 1.0, &mut |s, w| {
                for (t, req_bytes, _) in s.calls() {
                    let Some(callee) = spec.callee(t) else {
                        continue;
                    };
                    if t.service.0 as usize == i {
                        continue; // self-calls carry no propagated rate
                    }
                    let proto = callee.protocol;
                    let req = proto.costs(req_bytes.mean().max(1.0) as u64);
                    let resp_bytes = callee.endpoints[t.endpoint as usize].resp_bytes.mean();
                    let resp = proto.costs(resp_bytes.max(1.0) as u64);
                    let msgs = rate * calls_per_visit(s, w);
                    net[i] += msgs
                        * (req.send_kernel_ns
                            + req.send_libs_ns
                            + resp.recv_kernel_ns
                            + resp.recv_libs_ns);
                    net[t.service.0 as usize] += msgs
                        * (req.recv_kernel_ns
                            + req.recv_libs_ns
                            + resp.send_kernel_ns
                            + resp.send_libs_ns);
                }
            });
        }
    }
    for &(entry, qps) in offered {
        let Some(svc) = spec.callee(entry) else {
            continue;
        };
        let proto = svc.protocol;
        let ingress = proto.costs(CLIENT_REQ_BYTES);
        let reply_bytes = svc.endpoints[entry.endpoint as usize].resp_bytes.mean();
        let reply = proto.costs(reply_bytes.max(1.0) as u64);
        net[entry.service.0 as usize] += qps
            * (ingress.recv_kernel_ns
                + ingress.recv_libs_ns
                + reply.send_kernel_ns
                + reply.send_libs_ns);
    }
    net
}

/// Cap (ns) on the statically-predicted queueing wait at a saturated
/// worker pool: overload must propagate to callers as an enormous but
/// finite hold time, not NaN.
const SATURATED_WAIT_NS: f64 = 1e12;

/// The static response-time / worker-hold model, computed leaf-up.
struct HoldModel {
    /// Mean response time (ns) per service, per endpoint: local demand
    /// plus downstream round-trips (message processing, propagation,
    /// M/M/k wait at the callee's pool when enabled, callee response
    /// time).
    resp_ns: Vec<Vec<f64>>,
    /// Worker-held erlangs per service, concurrency-aware: a *blocking*
    /// service holds its worker for the full response time (downstream
    /// calls included); an event-driven one releases at the first await
    /// point, so only local demand counts.
    hold: Vec<f64>,
}

/// Mean round-trip and response time for one script, given the callee
/// models already computed (leaf-up order guarantees availability).
/// Parallel fan-outs join on their slowest branch, so they contribute
/// the max — not the sum — of their round-trips.
fn script_resp_ns(
    spec: &AppSpec,
    svc: usize,
    steps: &[Step],
    resp_ns: &[Vec<f64>],
    wait_ns: &[f64],
    one_way_ns: f64,
) -> f64 {
    let call_rtt = |t: EndpointRef, req_bytes: f64| -> f64 {
        let Some(callee) = spec.callee(t) else {
            return 0.0;
        };
        if t.service.0 as usize == svc {
            return 0.0; // self-calls carry no propagated rate
        }
        let proto = callee.protocol;
        let req = proto.costs(req_bytes.max(1.0) as u64);
        let resp_bytes = callee.endpoints[t.endpoint as usize].resp_bytes.mean();
        let resp = proto.costs(resp_bytes.max(1.0) as u64);
        let processing = req.send_kernel_ns
            + req.send_libs_ns
            + req.recv_kernel_ns
            + req.recv_libs_ns
            + resp.send_kernel_ns
            + resp.send_libs_ns
            + resp.recv_kernel_ns
            + resp.recv_libs_ns;
        processing
            + 2.0 * one_way_ns
            + wait_ns[t.service.0 as usize]
            + resp_ns[t.service.0 as usize][t.endpoint as usize]
    };
    Step::mean(steps, &|s| match s {
        Step::Compute { ns, .. } | Step::Io { ns } => ns.mean(),
        Step::Call { target, req_bytes }
        | Step::FanCall {
            target, req_bytes, ..
        } => call_rtt(*target, req_bytes.mean()),
        Step::ParCall { calls } => calls
            .iter()
            .map(|(t, b)| call_rtt(*t, b.mean()))
            .fold(0.0, f64::max),
        _ => 0.0,
    })
}

/// Builds the hold model by walking services callee-first: each pool's
/// hold erlangs and M/M/k queue wait are known before any caller prices
/// a round-trip into it. With `with_wait` false the queue-wait term is
/// dropped, yielding the pure service-path *floor* on hold time (a
/// lower bound no amount of scheduling luck can beat). `None` on a
/// cyclic graph.
fn hold_model(
    spec: &AppSpec,
    rates: &[Vec<f64>],
    capacity: &[Option<f64>],
    one_way_ns: f64,
    with_wait: bool,
) -> Option<HoldModel> {
    let order = topo_order(spec)?;
    let n = spec.services.len();
    let mut resp_ns: Vec<Vec<f64>> = spec
        .services
        .iter()
        .map(|s| vec![0.0; s.endpoints.len()])
        .collect();
    let mut wait_ns = vec![0.0; n];
    let mut hold = vec![0.0; n];
    for &s in order.iter().rev() {
        let svc = &spec.services[s];
        let blocking = svc.concurrency == dsb_core::Concurrency::Blocking;
        let mut hold_x_rate_ns = 0.0; // Σ rate × per-invocation hold
        let mut total_rate = 0.0;
        for (e, ep) in svc.endpoints.iter().enumerate() {
            resp_ns[s][e] = script_resp_ns(spec, s, &ep.script, &resp_ns, &wait_ns, one_way_ns);
            let hold_one = if blocking {
                resp_ns[s][e]
            } else {
                local_demand_ns(&ep.script)
            };
            hold_x_rate_ns += rates[s][e] * hold_one;
            total_rate += rates[s][e];
        }
        hold[s] = hold_x_rate_ns / 1e9;
        wait_ns[s] = match capacity[s] {
            Some(k) if with_wait && total_rate > 0.0 => {
                let a = hold[s];
                if a >= k {
                    SATURATED_WAIT_NS
                } else {
                    // M/M/k: Wq = C(k, a) · S / (k − a), S = mean hold.
                    let mean_hold = hold_x_rate_ns / total_rate;
                    erlang_c(k as u64, a) * mean_hold / (k - a)
                }
            }
            // On-demand pools scale out instead of queueing.
            _ => 0.0,
        };
    }
    Some(HoldModel { resp_ns, hold })
}

/// The full static prediction for one `(spec, offered load)` pair: the
/// numbers DSB009 and DSB011 compare against thresholds, exposed as
/// data so a differential harness can compare them against measurement.
#[derive(Debug, Clone)]
pub struct CapacityModel {
    /// Expected arrival rate (req/s) per service, per endpoint.
    pub rates: Vec<Vec<f64>>,
    /// Worker-held erlangs per service counting *local demand only*
    /// (compute + I/O) — the number DSB009 compares against pool sizes.
    pub busy: Vec<f64>,
    /// Concurrency-aware worker-held erlangs per service: blocking
    /// services hold their worker across downstream round-trips
    /// (including the M/M/k wait at each callee's pool), event-driven
    /// ones only for local demand. For a blocking mid-tier this — not
    /// `busy` — is the demand that actually saturates the pool. The
    /// M/M/k wait assumes Poisson arrivals and exponential service, so
    /// against smoother real traffic this is an *upper* bound on hold.
    pub hold: Vec<f64>,
    /// Like `hold` but without any queue-wait term: the pure
    /// service-path *floor* on worker-held erlangs, a lower bound that
    /// holds however smooth the traffic is.
    pub hold_floor: Vec<f64>,
    /// Mean response time (ns) per service, per endpoint, under the
    /// no-core-contention approximation the hold model is built on
    /// (queue waits included, as in `hold`).
    pub resp_ns: Vec<Vec<f64>>,
    /// Reference-core CPU erlangs per service (compute only).
    pub compute: Vec<f64>,
    /// Reference-core erlangs per service of per-message network
    /// processing (kernel + libs, both directions; see [`net_demand_ns`]).
    pub net: Vec<f64>,
    /// Total fixed workers per service (`None`: on-demand pool).
    pub capacity: Vec<Option<f64>>,
    /// Actual-core erlangs per machine under the placement plan (empty
    /// without cluster context).
    pub machine_busy: Vec<f64>,
    /// Actual-core erlangs per machine of network-message processing
    /// under the placement plan (empty without cluster context). Kept
    /// separate from `machine_busy` because DSB011's compute-budget
    /// diagnostic intentionally excludes it; saturation predictions
    /// should add the two (see [`CapacityModel::max_machine_utilization_with_net`]).
    pub machine_net: Vec<f64>,
    /// Core budget per machine (empty without cluster context).
    pub machine_cores: Vec<f64>,
    /// Per-machine breakdown of `machine_busy` by service id.
    pub machine_by_service: Vec<BTreeMap<usize, f64>>,
}

impl CapacityModel {
    /// Builds the model; `None` when the call graph is cyclic (rates
    /// cannot be propagated). Machine-level fields are filled only when
    /// `cluster` is given and the placement plan is feasible.
    pub fn compute(
        spec: &AppSpec,
        offered: &[(EndpointRef, f64)],
        cluster: Option<&ClusterSpec>,
    ) -> Option<CapacityModel> {
        let rates = endpoint_rates(spec, offered)?;
        let busy: Vec<f64> = spec
            .services
            .iter()
            .enumerate()
            .map(|(i, svc)| {
                svc.endpoints
                    .iter()
                    .enumerate()
                    .map(|(e, ep)| rates[i][e] * local_demand_ns(&ep.script) / 1e9)
                    .sum()
            })
            .collect();
        let compute: Vec<f64> = spec
            .services
            .iter()
            .enumerate()
            .map(|(i, svc)| {
                svc.endpoints
                    .iter()
                    .enumerate()
                    .map(|(e, ep)| rates[i][e] * compute_demand_ns(&ep.script) / 1e9)
                    .sum()
            })
            .collect();
        let capacity: Vec<Option<f64>> = spec
            .services
            .iter()
            .map(|svc| match svc.workers {
                WorkerPolicy::Fixed(w) => Some((svc.initial_instances.max(1) * w) as f64),
                WorkerPolicy::OnDemand { .. } => None,
            })
            .collect();

        let net: Vec<f64> = net_demand_ns(spec, &rates, offered)
            .into_iter()
            .map(|ns| ns / 1e9)
            .collect();
        // Propagation estimate for downstream round-trips: intra-rack
        // once the app spans machines, loopback on a single box, zero
        // without cluster context.
        let one_way_ns = cluster.map_or(0.0, |c| {
            if c.machines.len() > 1 {
                c.fabric.intra_rack_ns as f64
            } else {
                c.fabric.loopback_ns as f64
            }
        });
        let hm = hold_model(spec, &rates, &capacity, one_way_ns, true)?;
        let floor = hold_model(spec, &rates, &capacity, one_way_ns, false)?;

        let mut model = CapacityModel {
            rates,
            busy,
            hold: hm.hold,
            hold_floor: floor.hold,
            resp_ns: hm.resp_ns,
            compute,
            net,
            capacity,
            machine_busy: Vec::new(),
            machine_net: Vec::new(),
            machine_cores: Vec::new(),
            machine_by_service: Vec::new(),
        };
        if let Some(cluster) = cluster {
            if let Some(plan) = feasible_plan(spec, cluster) {
                model.fill_machines(spec, cluster, &plan);
            }
        }
        Some(model)
    }

    fn fill_machines(&mut self, spec: &AppSpec, cluster: &ClusterSpec, plan: &PlacementPlan) {
        // Per-instance compute / network demand in reference-core erlangs.
        let share = |totals: &[f64]| -> Vec<f64> {
            totals
                .iter()
                .enumerate()
                .map(|(i, &t)| t / plan.machines_of(ServiceId(i as u32)).len().max(1) as f64)
                .collect()
        };
        let per_instance = share(&self.compute);
        let per_instance_net = share(&self.net);
        self.machine_busy = vec![0.0; cluster.machines.len()];
        self.machine_net = vec![0.0; cluster.machines.len()];
        self.machine_by_service = vec![BTreeMap::new(); cluster.machines.len()];
        for &(svc, m) in plan.instances() {
            let mi = m.0 as usize;
            let slowdown = cluster.machines[mi]
                .core
                .speed_factor(&spec.services[svc.0 as usize].profile);
            self.machine_net[mi] += per_instance_net[svc.0 as usize] * slowdown;
            let erlangs = per_instance[svc.0 as usize] * slowdown;
            if erlangs <= 0.0 {
                continue;
            }
            self.machine_busy[mi] += erlangs;
            *self.machine_by_service[mi]
                .entry(svc.0 as usize)
                .or_insert(0.0) += erlangs;
        }
        self.machine_cores = cluster
            .machines
            .iter()
            .map(|m| m.cores.max(1) as f64)
            .collect();
    }

    /// Worker-pool utilization of service `s` (`None`: on-demand pool),
    /// counting local demand only — what DSB009 reports.
    pub fn utilization(&self, s: usize) -> Option<f64> {
        self.capacity[s].map(|k| self.busy[s] / k)
    }

    /// Concurrency-aware worker-pool utilization of service `s`
    /// (`None`: on-demand pool), counting downstream hold time for
    /// blocking services.
    pub fn hold_utilization(&self, s: usize) -> Option<f64> {
        self.capacity[s].map(|k| self.hold[s] / k)
    }

    /// The highest worker-pool utilization across fixed-pool services
    /// (0.0 when every pool is on-demand), counting local demand only.
    pub fn max_tier_utilization(&self) -> f64 {
        (0..self.busy.len())
            .filter_map(|s| self.utilization(s))
            .fold(0.0, f64::max)
    }

    /// The highest *hold-based* worker-pool utilization across
    /// fixed-pool services. A blocking mid-tier with slow callees
    /// saturates long before its local-demand utilization says so;
    /// this is the bound that predicts it. Being wait-inclusive it is
    /// an upper bound — use it to certify head-room, not overload.
    pub fn max_tier_utilization_with_hold(&self) -> f64 {
        (0..self.hold.len())
            .filter_map(|s| self.hold_utilization(s))
            .fold(0.0, f64::max)
    }

    /// The highest *floor* (no-queue-wait) hold utilization across
    /// fixed-pool services: a lower bound on pool load that holds for
    /// arbitrarily smooth traffic — at or above 1.0 the pool falls
    /// behind no matter what, so use it to certify overload.
    pub fn max_tier_utilization_hold_floor(&self) -> f64 {
        (0..self.hold_floor.len())
            .filter_map(|s| self.capacity[s].map(|k| self.hold_floor[s] / k))
            .fold(0.0, f64::max)
    }

    /// The highest core-budget utilization across machines (0.0 without
    /// cluster context), counting *compute demand only* — the number
    /// DSB011 compares against its thresholds.
    pub fn max_machine_utilization(&self) -> f64 {
        self.machine_busy
            .iter()
            .zip(&self.machine_cores)
            .map(|(&b, &c)| b / c)
            .fold(0.0, f64::max)
    }

    /// The highest core-budget utilization across machines including
    /// per-message network processing. For chatty, low-compute services
    /// the message-handling kernel/library time dominates the core
    /// budget, so this — not [`Self::max_machine_utilization`] — is the
    /// utilization that predicts whether a machine actually saturates.
    pub fn max_machine_utilization_with_net(&self) -> f64 {
        self.machine_busy
            .iter()
            .zip(&self.machine_net)
            .zip(&self.machine_cores)
            .map(|((&b, &n), &c)| (b + n) / c)
            .fold(0.0, f64::max)
    }
}

/// The deterministic placement of the app on the cluster; `None` when
/// some service has no feasible machine (the placer would panic — a
/// deployment error outside the analyzer's scope).
pub(crate) fn feasible_plan(spec: &AppSpec, cluster: &ClusterSpec) -> Option<PlacementPlan> {
    let feasible = spec.services.iter().all(|s| {
        cluster.machines.iter().any(|m| match s.zone_pref {
            Some(z) => m.zone == z,
            None => !matches!(m.zone, dsb_net::Zone::Edge),
        })
    });
    feasible.then(|| PlacementPlan::compute(spec, cluster))
}

/// One cross-machine communicating hop discovered by the lookahead walk:
/// a call edge plus one `(caller machine, callee machine)` pair its load
/// balancing can route across.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct CrossHop {
    /// Guaranteed minimum one-way delay of this hop, ns. Zero for a
    /// same-host-only protocol spanning machines (the impossible hop a
    /// parallel engine cannot bound at all).
    pub min_delay_ns: u64,
    /// Calling service.
    pub caller: ServiceId,
    /// Called service.
    pub callee: ServiceId,
    /// A machine hosting a caller instance.
    pub from_machine: MachineId,
    /// A machine hosting a callee instance the LB can route to.
    pub to_machine: MachineId,
    /// Whether the callee's protocol is same-host-only (IPC).
    pub same_host_only: bool,
}

/// The per-app parallel-lookahead certificate: the minimum guaranteed
/// cross-machine network delay under the deterministic placement plan.
/// A conservative parallel engine sharded by machine may advance each
/// shard's clock by this epoch between synchronizations without ever
/// observing an event out of order — this is the bound the planned
/// parallel engine (ROADMAP) will run behind.
#[derive(Debug, Clone)]
pub struct LookaheadCertificate {
    /// Every cross-machine hop, sorted by `(min delay, caller, callee,
    /// machines)` — the first entry is the limiting hop.
    pub hops: Vec<CrossHop>,
    /// Number of distinct machines the app's instances occupy.
    pub machines_used: usize,
}

impl LookaheadCertificate {
    /// The certified minimum safe epoch in sim-time ns; `None` when no
    /// call edge can cross machines (single shard — embarrassingly
    /// parallel over seeds instead).
    pub fn min_epoch_ns(&self) -> Option<u64> {
        self.hops.first().map(|h| h.min_delay_ns)
    }

    /// The hop that limits the epoch, if any.
    pub fn limiting(&self) -> Option<&CrossHop> {
        self.hops.first()
    }

    /// Renders the one-line certificate for service-name context
    /// supplied by the caller (the certificate itself stores ids).
    pub fn render(&self, name_of: impl Fn(ServiceId) -> String) -> String {
        match self.limiting() {
            None => format!(
                "lookahead: no cross-machine call edges across {} machine(s); \
                 shards synchronize only at the horizon",
                self.machines_used
            ),
            Some(h) => format!(
                "lookahead: min safe epoch {} ns over {} cross-machine hop(s); \
                 limiting hop {} -> {} (machine {} -> {})",
                h.min_delay_ns,
                self.hops.len(),
                name_of(h.caller),
                name_of(h.callee),
                h.from_machine.0,
                h.to_machine.0,
            ),
        }
    }
}

impl fmt::Display for LookaheadCertificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render(|s| format!("svc{}", s.0)))
    }
}

/// Whether `caller -> callee` is a *partition-aligned* pair: both ends
/// route by partition key over the same instance count, and instance `k`
/// of each lands on the same machine. The simulator hashes the request's
/// partition key modulo the instance count on both sides, so such an
/// edge provably never crosses machines (this is how the drone swarm's
/// per-drone IPC stacks stay single-machine).
fn partition_aligned(spec: &AppSpec, plan: &PlacementPlan, c: ServiceId, d: ServiceId) -> bool {
    let (cs, ds) = (&spec.services[c.0 as usize], &spec.services[d.0 as usize]);
    if cs.lb != LbPolicy::Partition || ds.lb != LbPolicy::Partition {
        return false;
    }
    let (cm, dm) = (plan.machines_of(c), plan.machines_of(d));
    cm.len() == dm.len() && cm.iter().zip(dm).all(|(a, b)| a == b)
}

/// Computes the app's [`LookaheadCertificate`] under the deterministic
/// placement plan; `None` when no feasible plan exists. Every valid call
/// edge contributes the `(caller machine, callee machine)` pairs its
/// load balancing can produce — all distinct cross-machine pairs of the
/// two ends' machine sets, except partition-aligned edges, which are
/// proven same-machine. Hops of a same-host-only protocol that can
/// nevertheless span machines carry a zero bound.
pub fn lookahead_certificate(
    spec: &AppSpec,
    cluster: &ClusterSpec,
) -> Option<LookaheadCertificate> {
    let plan = feasible_plan(spec, cluster)?;
    let fabric = Fabric::new(cluster.fabric);
    let mut hops = Vec::new();
    for (c, d) in valid_edges(spec) {
        if c == d || partition_aligned(spec, &plan, c, d) {
            continue;
        }
        let same_host_only = spec.services[d.0 as usize].protocol.same_host_only();
        let mut from: Vec<MachineId> = plan.machines_of(c).to_vec();
        let mut to: Vec<MachineId> = plan.machines_of(d).to_vec();
        from.sort_unstable_by_key(|m| m.0);
        from.dedup();
        to.sort_unstable_by_key(|m| m.0);
        to.dedup();
        for &fm in &from {
            for &tm in &to {
                if fm == tm {
                    continue;
                }
                let min_delay_ns = if same_host_only {
                    0
                } else {
                    let (fz, tz) = (
                        cluster.machines[fm.0 as usize].zone,
                        cluster.machines[tm.0 as usize].zone,
                    );
                    fabric.min_delay(fz, tz).as_nanos()
                };
                hops.push(CrossHop {
                    min_delay_ns,
                    caller: c,
                    callee: d,
                    from_machine: fm,
                    to_machine: tm,
                    same_host_only,
                });
            }
        }
    }
    hops.sort();
    hops.dedup();
    let mut used: Vec<u32> = plan.instances().iter().map(|&(_, m)| m.0).collect();
    used.sort_unstable();
    used.dedup();
    Some(LookaheadCertificate {
        hops,
        machines_used: used.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsb_core::{AppBuilder, Step};
    use dsb_simcore::Dist;

    fn two_tier() -> (AppSpec, EndpointRef) {
        let mut app = AppBuilder::new("m");
        let leaf = app.service("leaf").workers(4).build();
        let lep = app.endpoint(
            leaf,
            "run",
            Dist::constant(64.0),
            vec![
                Step::Compute {
                    ns: Dist::constant(2_000_000.0),
                    domain: dsb_uarch::ExecDomain::User,
                },
                Step::Io {
                    ns: Dist::constant(3_000_000.0),
                },
            ],
        );
        let front = app.service("front").event_driven().workers(32).build();
        let fep = app.endpoint(
            front,
            "root",
            Dist::constant(64.0),
            vec![Step::call(lep, 64.0)],
        );
        (app.build(), fep)
    }

    #[test]
    fn capacity_model_propagates_rates_and_demand() {
        let (spec, entry) = two_tier();
        let m = CapacityModel::compute(&spec, &[(entry, 100.0)], None).unwrap();
        // 100 qps at the front, 100 qps at the leaf.
        assert!((m.rates[1][0] - 100.0).abs() < 1e-9);
        assert!((m.rates[0][0] - 100.0).abs() < 1e-9);
        // Leaf holds a worker 5 ms per call -> 0.5 erlangs; 2 ms of CPU.
        assert!((m.busy[0] - 0.5).abs() < 1e-9, "{}", m.busy[0]);
        assert!((m.compute[0] - 0.2).abs() < 1e-9, "{}", m.compute[0]);
        assert_eq!(m.capacity[0], Some(4.0));
        assert!((m.utilization(0).unwrap() - 0.125).abs() < 1e-9);
        assert!((m.max_tier_utilization() - 0.125).abs() < 1e-9);
        assert!(m.machine_busy.is_empty(), "no cluster context given");
        assert_eq!(m.max_machine_utilization(), 0.0);
    }

    #[test]
    fn capacity_model_fills_machines_with_cluster() {
        let (spec, entry) = two_tier();
        let cluster = dsb_core::ClusterSpec::xeon_cluster(2, 1);
        let m = CapacityModel::compute(&spec, &[(entry, 100.0)], Some(&cluster)).unwrap();
        assert_eq!(m.machine_busy.len(), 2);
        assert_eq!(m.machine_cores, vec![40.0, 40.0]);
        let total: f64 = m.machine_busy.iter().sum();
        // All compute demand lands somewhere; speed factors are ~1 on the
        // reference Xeon.
        let expected: f64 = m.compute.iter().sum();
        assert!(
            (total - expected).abs() / expected < 0.2,
            "{total} vs {expected}"
        );
    }

    #[test]
    fn net_demand_prices_every_message_side() {
        let (spec, entry) = two_tier();
        let m = CapacityModel::compute(&spec, &[(entry, 100.0)], None).unwrap();
        // ThriftRpc at 64 B payloads (kb = 0.0625): one front->leaf call
        // costs each side send+recv kernel+libs = 18_396.875 ns.
        let hop = (7_000.0 + 450.0 * 0.0625)
            + (1_500.0 + 250.0 * 0.0625)
            + (8_000.0 + 550.0 * 0.0625)
            + (1_800.0 + 300.0 * 0.0625);
        let leaf = 100.0 * hop / 1e9;
        assert!((m.net[0] - leaf).abs() < 1e-9, "{} vs {leaf}", m.net[0]);
        // The front also pays client ingress (256 B recv) + reply (64 B send).
        let client = (8_000.0 + 550.0 * 0.25)
            + (1_800.0 + 300.0 * 0.25)
            + (7_000.0 + 450.0 * 0.0625)
            + (1_500.0 + 250.0 * 0.0625);
        let front = 100.0 * (hop + client) / 1e9;
        assert!((m.net[1] - front).abs() < 1e-9, "{} vs {front}", m.net[1]);

        let cluster = dsb_core::ClusterSpec::xeon_cluster(1, 1);
        let m = CapacityModel::compute(&spec, &[(entry, 100.0)], Some(&cluster)).unwrap();
        let placed: f64 = m.machine_net.iter().sum();
        let total: f64 = m.net.iter().sum();
        assert!((placed - total).abs() / total < 0.2, "{placed} vs {total}");
        assert!(m.max_machine_utilization_with_net() > m.max_machine_utilization());
    }

    #[test]
    fn cyclic_graph_has_no_model() {
        let mut app = AppBuilder::new("loop");
        let a = app.service("a").build();
        let b = app.service("b").build();
        let bep = app.endpoint(b, "run", Dist::constant(1.0), vec![]);
        let aep = app.endpoint(a, "run", Dist::constant(1.0), vec![Step::call(bep, 64.0)]);
        let mut spec = app.build();
        let mut script = (*spec.services[b.0 as usize].endpoints[0].script).clone();
        script.push(Step::call(aep, 64.0));
        spec.services[b.0 as usize].endpoints[0].script = std::sync::Arc::new(script);
        assert!(CapacityModel::compute(&spec, &[(aep, 10.0)], None).is_none());
    }
}
