//! The spec analysis passes.
//!
//! Checks DSB001–DSB011 are purely static: they consume an [`AppSpec`]
//! (plus optional entry-point, offered-load, and cluster context) and
//! never run the simulator. DSB012 is the exception: enabling
//! [`Analyzer::calibration`] runs a short *deterministic* calibration
//! simulation and feeds the collected spans through
//! [`dsb_trace::critical_path`], so it can see cross-tier queueing that
//! per-tier queueing formulas cannot. Diagnostics come back sorted by
//! service id, then code, so reports are golden-testable byte for byte.

use std::collections::BTreeMap;

use dsb_core::{
    AppSpec, BadCall, ClusterSpec, Concurrency, EndpointRef, LbPolicy, PlacementPlan, RequestType,
    ServiceId, Simulation, Step, WorkerPolicy,
};
use dsb_simcore::{SimDuration, SimTime};
use dsb_telemetry::{critical_path_totals, evaluate, BurnRule, Scraper, Slo};

use crate::model::{erlang_c, feasible_plan, lookahead_certificate, valid_edges, CapacityModel};
use crate::{Code, Diagnostic, Severity};

/// Analyzes a spec with no external context: entry points are taken to
/// be every service that no script calls (in-degree zero).
pub fn analyze(spec: &AppSpec) -> Vec<Diagnostic> {
    Analyzer::new(spec).run()
}

/// A configurable analysis run.
///
/// # Example
///
/// ```
/// use dsb_analyzer::{Analyzer, Code};
/// use dsb_core::{AppBuilder, Step};
/// use dsb_simcore::Dist;
///
/// let mut app = AppBuilder::new("loop");
/// let a = app.service("a").build();
/// let b = app.service("b").build();
/// let bep = app.endpoint(b, "run", Dist::constant(1.0), vec![]);
/// let aep = app.endpoint(a, "run", Dist::constant(1.0), vec![Step::call(bep, 64.0)]);
/// // Close the cycle: b calls a back.
/// let mut spec = app.build();
/// let mut script = (*spec.services[b.0 as usize].endpoints[0].script).clone();
/// script.push(Step::call(aep, 64.0));
/// spec.services[b.0 as usize].endpoints[0].script = std::sync::Arc::new(script);
///
/// let diags = Analyzer::new(&spec).run();
/// assert!(diags.iter().any(|d| d.code == Code::CallCycle));
/// ```
#[derive(Debug)]
pub struct Analyzer<'a> {
    spec: &'a AppSpec,
    entries: Vec<ServiceId>,
    offered: Vec<(EndpointRef, f64)>,
    cluster: Option<&'a ClusterSpec>,
    calibration_secs: f64,
    slo: Option<SimDuration>,
}

impl<'a> Analyzer<'a> {
    /// Starts an analysis of `spec`.
    pub fn new(spec: &'a AppSpec) -> Self {
        Analyzer {
            spec,
            entries: Vec::new(),
            offered: Vec::new(),
            cluster: None,
            calibration_secs: 0.0,
            slo: None,
        }
    }

    /// Declares `service` an entry point (the front-end clients hit).
    /// May be called multiple times; when never called, every service
    /// with in-degree zero counts as an entry.
    pub fn entry(mut self, service: ServiceId) -> Self {
        if !self.entries.contains(&service) {
            self.entries.push(service);
        }
        self
    }

    /// Adds offered load: `qps` requests per second arriving at `entry`.
    /// Enables the DSB009 capacity check (skipped when the graph is
    /// cyclic, since rates cannot be propagated).
    pub fn offered(mut self, entry: EndpointRef, qps: f64) -> Self {
        self.offered.push((entry, qps));
        self
    }

    /// Provides the cluster the app deploys on. Enables the
    /// placement-aware passes: DSB007 then verifies actual machine-level
    /// co-location (via the deterministic [`PlacementPlan`]) instead of
    /// comparing zone hints, and DSB011 audits offered load against
    /// per-machine core budgets (with offered load, acyclic graph).
    pub fn cluster(mut self, cluster: &'a ClusterSpec) -> Self {
        self.cluster = Some(cluster);
        self
    }

    /// Enables DSB012: runs a deterministic calibration simulation of
    /// `secs` simulated seconds at the offered load (requires
    /// [`Analyzer::cluster`]), attributes end-to-end latency with
    /// [`dsb_trace::critical_path`], and flags tiers on blocking fan-out
    /// chains whose measured worker queueing far exceeds what per-tier
    /// Erlang-C admits. The run is seeded with a fixed constant, so
    /// reports stay byte-stable.
    pub fn calibration(mut self, secs: f64) -> Self {
        self.calibration_secs = secs;
        self
    }

    /// Enables DSB013: attaches a p99 latency objective of `latency` to
    /// every offered request type, scrapes the calibration simulation
    /// with a [`dsb_telemetry::Scraper`], and — when the SLO burns — runs
    /// the runtime root-cause engine. A warning fires when the tier it
    /// names differs from the one static capacity analysis predicts as
    /// the bottleneck, the Fig. 17/18 blind spot where latency is billed
    /// upstream of the tier causing it. Requires [`Analyzer::calibration`].
    pub fn slo(mut self, latency: SimDuration) -> Self {
        self.slo = Some(latency);
        self
    }

    /// Runs every check and returns the sorted diagnostics.
    pub fn run(&self) -> Vec<Diagnostic> {
        let spec = self.spec;
        let mut out = Vec::new();

        // DSB005 / DSB006 first: later passes only follow *valid* refs.
        self.report_bad_calls(&mut out);
        let edges = valid_edges(spec);

        // DSB001 cycles.
        let cycle_anchors = self.check_cycles(&edges, &mut out);

        // DSB004 / DSB010 reachability.
        self.check_reachability(&edges, &cycle_anchors, &mut out);

        // DSB002 blocking-pool backpressure, DSB003 fan-out sizing,
        // DSB007 IPC co-location, DSB008 degenerate partitioning.
        let plan = self.placement_plan();
        self.check_pools(plan.as_ref(), &mut out);

        // DSB014 circular waits across blocking pools (deadlock).
        self.check_wait_cycles(&edges, &mut out);

        // DSB016 cross-shard write-visibility windows (structural).
        self.check_write_visibility(&mut out);

        // DSB017 sole cache tier without replication.
        self.check_cache_replication(&mut out);

        // DSB015 lookahead certification under the placement plan.
        if let Some(cluster) = self.cluster {
            self.check_lookahead(cluster, &mut out);
        }

        // DSB009 offered load vs capacity, on the capacity model of the
        // offered load (none on a cyclic graph: rates cannot propagate).
        let model = (!self.offered.is_empty())
            .then(|| CapacityModel::compute(spec, &self.offered, self.cluster))
            .flatten();
        if let Some(model) = &model {
            self.check_capacity(model, &mut out);

            // DSB011 per-machine core budgets under the placement plan.
            if let (Some(cluster), Some(_)) = (self.cluster, plan.as_ref()) {
                self.check_machine_budget(cluster, model, &mut out);

                // DSB012 trace-driven critical-path queueing.
                if self.calibration_secs > 0.0 {
                    self.check_critical_path(cluster, model, &mut out);
                }
            }
        }

        out.sort();
        out.dedup();
        out
    }

    /// The deterministic placement of the app on the provided cluster;
    /// `None` without cluster context or when some service has no
    /// feasible machine (the placer would panic — a deployment error
    /// outside this analyzer's scope).
    fn placement_plan(&self) -> Option<PlacementPlan> {
        feasible_plan(self.spec, self.cluster?)
    }

    fn diag(
        &self,
        code: Code,
        severity: Severity,
        service: ServiceId,
        endpoint: Option<&str>,
        message: String,
    ) -> Diagnostic {
        Diagnostic {
            code,
            severity,
            service: Some(service),
            service_name: self.spec.services[service.0 as usize].name.clone(),
            endpoint: endpoint.map(str::to_string),
            message,
        }
    }

    // -- DSB005 / DSB006 ----------------------------------------------------

    /// Reports every [`AppSpec::bad_calls`] entry: the call-validity rule
    /// [`dsb_core::AppBuilder::build`] enforces by panicking.
    fn report_bad_calls(&self, out: &mut Vec<Diagnostic>) {
        let spec = self.spec;
        for (from, e, bad) in spec.bad_calls() {
            let (code, message) = match bad {
                BadCall::Dangling(t) => (
                    Code::DanglingEndpoint,
                    format!(
                        "call target (service {}, endpoint {}) does not exist",
                        t.service.0, t.endpoint
                    ),
                ),
                BadCall::ParallelToBlocking(callee) => {
                    let callee = spec.service(callee);
                    (
                        Code::ParallelToBlocking,
                        format!(
                            "parallel fan-out to `{}` over {}: one outstanding \
                             request per connection cannot multiplex parallel calls",
                            callee.name,
                            callee.protocol.name()
                        ),
                    )
                }
            };
            let ep = &spec.service(from).endpoints[e as usize].name;
            out.push(self.diag(code, Severity::Error, from, Some(ep), message));
        }
    }

    // -- DSB001 -------------------------------------------------------------

    /// Reports every strongly connected component with more than one
    /// service (or a self-loop) as a cycle. Returns each cycle's anchor
    /// (lowest-id member), used to seed default reachability roots —
    /// cycle members have no in-degree-0 ancestor and would otherwise
    /// all double-report as unreachable.
    fn check_cycles(
        &self,
        edges: &[(ServiceId, ServiceId)],
        out: &mut Vec<Diagnostic>,
    ) -> Vec<usize> {
        let n = self.spec.services.len();
        let mut adj = vec![Vec::new(); n];
        for &(a, b) in edges {
            adj[a.0 as usize].push(b.0 as usize);
        }
        let mut anchors = Vec::new();
        for scc in tarjan_sccs(&adj) {
            let is_cycle = scc.len() > 1 || adj[scc[0]].contains(&scc[0]);
            if !is_cycle {
                continue;
            }
            let anchor = *scc.iter().min().expect("non-empty SCC");
            anchors.push(anchor);
            let mut members: Vec<usize> = scc.clone();
            members.sort_unstable();
            let names: Vec<&str> = members
                .iter()
                .map(|&s| self.spec.services[s].name.as_str())
                .collect();
            // Whether the loop can also *deadlock* is DSB014's job: it
            // looks at which edges hold finite pool slots, which catches
            // conn-pool-only cycles this all-tiers-block test missed.
            out.push(self.diag(
                Code::CallCycle,
                Severity::Error,
                ServiceId(anchor as u32),
                None,
                format!("call cycle among {{{}}}", names.join(", ")),
            ));
        }
        anchors
    }

    // -- DSB004 / DSB010 ----------------------------------------------------

    fn check_reachability(
        &self,
        edges: &[(ServiceId, ServiceId)],
        cycle_anchors: &[usize],
        out: &mut Vec<Diagnostic>,
    ) {
        let spec = self.spec;
        let n = spec.services.len();

        // Entry set: explicit entries, else in-degree-zero services plus
        // one anchor per cycle (cycle members have no in-degree-0
        // ancestor; DSB001 already covers them).
        let mut roots: Vec<usize> = self.entries.iter().map(|s| s.0 as usize).collect();
        if roots.is_empty() {
            let mut indeg = vec![0u32; n];
            for &(_, b) in edges {
                indeg[b.0 as usize] += 1;
            }
            roots = (0..n).filter(|&i| indeg[i] == 0).collect();
            roots.extend_from_slice(cycle_anchors);
        }

        let mut adj = vec![Vec::new(); n];
        for &(a, b) in edges {
            adj[a.0 as usize].push(b.0 as usize);
        }
        let mut seen = vec![false; n];
        let mut stack = roots.clone();
        for &r in &roots {
            seen[r] = true;
        }
        while let Some(s) = stack.pop() {
            for &t in &adj[s] {
                if !seen[t] {
                    seen[t] = true;
                    stack.push(t);
                }
            }
        }
        for (i, svc) in spec.services.iter().enumerate() {
            if !seen[i] {
                out.push(self.diag(
                    Code::UnreachableService,
                    Severity::Warning,
                    ServiceId(i as u32),
                    None,
                    format!(
                        "`{}` is unreachable: no entry point's call graph ever invokes it",
                        svc.name
                    ),
                ));
            }
        }

        // DSB010: endpoints of reachable non-entry services that no valid
        // call references (entry services' endpoints are client-facing).
        let mut used = vec![Vec::new(); n];
        for (i, svc) in spec.services.iter().enumerate() {
            used[i] = vec![false; svc.endpoints.len()];
        }
        for svc in &spec.services {
            for ep in &svc.endpoints {
                Step::walk(&ep.script, 1.0, &mut |s, _| {
                    for (t, _, _) in s.calls() {
                        if spec.callee(t).is_some() {
                            used[t.service.0 as usize][t.endpoint as usize] = true;
                        }
                    }
                });
            }
        }
        for (i, svc) in spec.services.iter().enumerate() {
            if roots.contains(&i) || !seen[i] {
                continue;
            }
            for (e, ep) in svc.endpoints.iter().enumerate() {
                if !used[i][e] {
                    out.push(self.diag(
                        Code::UnusedEndpoint,
                        Severity::Warning,
                        ServiceId(i as u32),
                        Some(&ep.name),
                        format!("endpoint `{}` is never called by any script", ep.name),
                    ));
                }
            }
        }
    }

    // -- DSB002 / DSB003 / DSB007 / DSB008 ----------------------------------

    fn check_pools(&self, plan: Option<&PlacementPlan>, out: &mut Vec<Diagnostic>) {
        let spec = self.spec;
        for (i, svc) in spec.services.iter().enumerate() {
            let from = ServiceId(i as u32);

            // DSB008: partitioning with nothing to partition over.
            if svc.lb == LbPolicy::Partition && svc.initial_instances < 2 {
                out.push(self.diag(
                    Code::PartitionDegenerate,
                    Severity::Warning,
                    from,
                    None,
                    format!(
                        "`{}` uses partition load-balancing over a single instance: \
                         the partition key cannot spread load",
                        svc.name
                    ),
                ));
            }

            let blocking_workers = match (svc.concurrency, &svc.workers) {
                (Concurrency::Blocking, WorkerPolicy::Fixed(w)) => Some(*w),
                _ => None,
            };

            // Distinct callees reached synchronously from this service.
            let mut sync_callees: Vec<ServiceId> = Vec::new();
            for ep in &svc.endpoints {
                Step::walk(&ep.script, 1.0, &mut |s, _| {
                    for (t, _, parallel) in s.calls() {
                        if !parallel
                            && spec.callee(t).is_some()
                            && t.service != from
                            && !sync_callees.contains(&t.service)
                        {
                            sync_callees.push(t.service);
                        }
                    }
                });
            }

            for callee_id in sync_callees {
                let callee = &spec.services[callee_id.0 as usize];

                // DSB002: the Fig. 17 case-B shape — more blocking workers
                // than connections toward a head-of-line-blocked callee.
                if let Some(w) = blocking_workers {
                    if callee.protocol.blocking_connections() && callee.conn_limit < w {
                        out.push(self.diag(
                            Code::BlockingBackpressure,
                            Severity::Warning,
                            from,
                            None,
                            format!(
                                "{w} blocking workers of `{}` share only {} connections \
                                 toward `{}` ({}); under load, workers stall holding their \
                                 callers' connections while `{}` idles (Fig. 17 case B)",
                                svc.name,
                                callee.conn_limit,
                                callee.name,
                                callee.protocol.name(),
                                callee.name
                            ),
                        ));
                    }
                }

                // DSB007: same-host IPC cannot span a network hop. With a
                // placement plan, check the actual machine assignment;
                // without one, fall back to comparing zone hints.
                if callee.protocol.same_host_only() {
                    match plan {
                        Some(plan) => {
                            let callee_on: Vec<u32> =
                                plan.machines_of(callee_id).iter().map(|m| m.0).collect();
                            let mut missing: Vec<u32> = plan
                                .machines_of(from)
                                .iter()
                                .map(|m| m.0)
                                .filter(|m| !callee_on.contains(m))
                                .collect();
                            missing.sort_unstable();
                            missing.dedup();
                            if !missing.is_empty() {
                                out.push(self.diag(
                                    Code::IpcCrossZone,
                                    Severity::Warning,
                                    from,
                                    None,
                                    format!(
                                        "IPC edge `{}` -> `{}`: caller instances on \
                                         machines {missing:?} have no co-located `{}` \
                                         instance (same-host IPC cannot span machines)",
                                        svc.name, callee.name, callee.name,
                                    ),
                                ));
                            }
                        }
                        None if svc.zone_pref != callee.zone_pref => {
                            out.push(self.diag(
                                Code::IpcCrossZone,
                                Severity::Warning,
                                from,
                                None,
                                format!(
                                    "IPC edge `{}` ({}) -> `{}` ({}) crosses zones: \
                                     same-host IPC cannot span a network hop",
                                    svc.name,
                                    zone_name(svc.zone_pref),
                                    callee.name,
                                    zone_name(callee.zone_pref),
                                ),
                            ));
                        }
                        None => {}
                    }
                }
            }

            // DSB003: a single request's fan-out vs the callee's pool.
            for ep in &svc.endpoints {
                Step::walk(&ep.script, 1.0, &mut |s, _| {
                    let Step::FanCall { target, n, .. } = s else {
                        return;
                    };
                    let Some(callee) = spec.callee(*target) else {
                        return;
                    };
                    let mean_n = n.mean();
                    let WorkerPolicy::Fixed(w) = callee.workers else {
                        return; // on-demand pools absorb any fan-out
                    };
                    let total = (callee.initial_instances.max(1) * w) as f64;
                    if mean_n > total {
                        out.push(self.diag(
                            Code::FanoutOversubscription,
                            Severity::Warning,
                            from,
                            Some(&ep.name),
                            format!(
                                "fan-out of ~{:.0} parallel calls to `{}` exceeds its {} \
                                 total workers ({}x{}): one request can saturate the tier",
                                mean_n,
                                callee.name,
                                total as u64,
                                callee.initial_instances.max(1),
                                w
                            ),
                        ));
                    }
                });
            }
        }
    }

    // -- DSB014 -------------------------------------------------------------

    /// Circular-wait deadlock certification: restrict the call graph to
    /// *wait edges* — edges that hold a finite pool slot across the
    /// downstream call (the caller is blocking with fixed workers, or
    /// the callee's protocol holds one connection per outstanding
    /// request) — and report every cycle in that subgraph. Unlike the
    /// all-tiers-block special case DSB001 used to note, this also
    /// certifies conn-pool-only loops: event-driven tiers calling each
    /// other over HTTP/1.1 deadlock just the same once every connection
    /// slot is held by a request that cannot complete.
    fn check_wait_cycles(&self, edges: &[(ServiceId, ServiceId)], out: &mut Vec<Diagnostic>) {
        let spec = self.spec;
        let n = spec.services.len();
        let held = |a: ServiceId, b: ServiceId| -> Option<&'static str> {
            let caller = &spec.services[a.0 as usize];
            let callee = &spec.services[b.0 as usize];
            if caller.concurrency == Concurrency::Blocking
                && matches!(caller.workers, WorkerPolicy::Fixed(_))
            {
                Some("a blocking worker")
            } else if callee.protocol.blocking_connections() {
                Some("a connection slot")
            } else {
                None
            }
        };
        let mut adj = vec![Vec::new(); n];
        for &(a, b) in edges {
            if held(a, b).is_some() {
                adj[a.0 as usize].push(b.0 as usize);
            }
        }
        for scc in tarjan_sccs(&adj) {
            let is_cycle = scc.len() > 1 || adj[scc[0]].contains(&scc[0]);
            if !is_cycle {
                continue;
            }
            let mut members = scc;
            members.sort_unstable();
            let anchor = members[0];
            let in_scc = |s: usize| members.binary_search(&s).is_ok();
            let mut holds: Vec<String> = Vec::new();
            for &s in &members {
                for &t in &adj[s] {
                    if !in_scc(t) {
                        continue;
                    }
                    let what = held(ServiceId(s as u32), ServiceId(t as u32))
                        .expect("wait edges carry a held resource");
                    holds.push(format!(
                        "`{}` holds {what} across `{}` -> `{}`",
                        spec.services[s].name, spec.services[s].name, spec.services[t].name
                    ));
                }
            }
            out.push(self.diag(
                Code::WaitCycle,
                Severity::Error,
                ServiceId(anchor as u32),
                None,
                format!(
                    "circular wait: {} — once the pools drain, every member waits on \
                     the next and no request can complete (static dual of Fig. 17 \
                     backpressure)",
                    holds.join(", "),
                ),
            ));
        }
    }

    // -- DSB015 -------------------------------------------------------------

    /// Lookahead certification: computes the app's
    /// [`LookaheadCertificate`](crate::LookaheadCertificate) under the
    /// deterministic placement plan and flags every call edge whose
    /// guaranteed minimum cross-machine delay is below the loopback
    /// epoch floor — a same-host-only protocol the load balancer can
    /// route across machines (zero bound), or co-located edge devices
    /// whose jittered link floor undercuts loopback. A conservative
    /// parallel engine sharded by machine could not advance even one
    /// local delivery between synchronizations on such an edge.
    fn check_lookahead(&self, cluster: &ClusterSpec, out: &mut Vec<Diagnostic>) {
        let spec = self.spec;
        let Some(cert) = lookahead_certificate(spec, cluster) else {
            return;
        };
        let floor = cluster.fabric.loopback_ns;
        let mut seen: Vec<(ServiceId, ServiceId)> = Vec::new();
        // Hops are sorted by delay first, so the first hop of each edge
        // is that edge's limiting pair.
        for h in &cert.hops {
            if h.min_delay_ns >= floor || seen.contains(&(h.caller, h.callee)) {
                continue;
            }
            seen.push((h.caller, h.callee));
            let caller = &spec.services[h.caller.0 as usize];
            let callee = &spec.services[h.callee.0 as usize];
            let message = if h.same_host_only {
                format!(
                    "zero-lookahead edge `{}` -> `{}`: the {} load balancer can route \
                     this same-host-only call across machines (e.g. machine {} -> {}), \
                     leaving a parallel engine no delay bound at all — shards would \
                     run in lock-step",
                    caller.name,
                    callee.name,
                    lb_name(callee.lb),
                    h.from_machine.0,
                    h.to_machine.0,
                )
            } else {
                format!(
                    "cross-machine hop `{}` -> `{}` (machine {} -> {}) certifies only \
                     {} ns of lookahead, under the {floor} ns loopback epoch floor: \
                     shards could not advance one local delivery between syncs",
                    caller.name, callee.name, h.from_machine.0, h.to_machine.0, h.min_delay_ns,
                )
            };
            out.push(self.diag(
                Code::ZeroLookahead,
                Severity::Warning,
                h.caller,
                None,
                message,
            ));
        }
    }

    // -- DSB016 -------------------------------------------------------------

    /// Cross-shard write-visibility windows, by abstract interpretation
    /// of the behaviour scripts. Two facts are extracted per app:
    ///
    /// 1. *Cache-fill pairs* `(C, D)`: partition-routed store `C` is
    ///    read before partition-routed store `D` on some read path — the
    ///    cache-aside shape, where a miss on `C` is refilled from `D`.
    /// 2. *Certain write orders*: store writes that execute
    ///    unconditionally (not inside any probabilistic branch arm) on
    ///    one endpoint, in script order.
    ///
    /// A write path that certainly writes `C` before certainly writing
    /// `D` inverts the cache-aside protocol: between the two writes a
    /// reader that misses `C` refills it from the *pre-write* `D`, and
    /// under a parallel engine that window spans the certified lookahead
    /// epoch across shards. Probabilistic flushes (write-behind caches)
    /// and writes inside cache-miss arms are exempt — only a *certain*
    /// inversion fires.
    fn check_write_visibility(&self, out: &mut Vec<Diagnostic>) {
        let spec = self.spec;
        // 1. Cache-fill pairs from every script's read sequences.
        let mut pairs: Vec<(ServiceId, ServiceId)> = Vec::new();
        for svc in &spec.services {
            for ep in &svc.endpoints {
                read_pairs(spec, &ep.script, &mut pairs);
            }
        }
        if pairs.is_empty() {
            return;
        }
        pairs.sort_unstable_by_key(|&(c, d)| (c.0, d.0));
        // 2. Certain write order per endpoint vs the pairs.
        for (i, svc) in spec.services.iter().enumerate() {
            for ep in &svc.endpoints {
                let writes = certain_store_writes(spec, &ep.script);
                for &(c, d) in &pairs {
                    let Some(ci) = writes.iter().position(|&w| w == c) else {
                        continue;
                    };
                    if !writes[ci + 1..].contains(&d) {
                        continue;
                    }
                    out.push(self.diag(
                        Code::WriteVisibilityRace,
                        Severity::Warning,
                        ServiceId(i as u32),
                        Some(&ep.name),
                        format!(
                            "write path updates cache `{}` before the durable write to \
                             `{}` (read paths consult `{}` first): a reader missing the \
                             cache inside that window refills it from the pre-write \
                             store and the update is lost — under a sharded engine the \
                             window spans the certified lookahead epoch; write `{}` \
                             first, then update or invalidate `{}`",
                            spec.services[c.0 as usize].name,
                            spec.services[d.0 as usize].name,
                            spec.services[c.0 as usize].name,
                            spec.services[d.0 as usize].name,
                            spec.services[c.0 as usize].name,
                        ),
                    ));
                }
            }
        }
    }

    // -- DSB017 -------------------------------------------------------------

    /// Sole-cache replication: collects every service targeted by a
    /// `CacheLookup` step. When the app has exactly one such cache tier
    /// and it runs a single instance, a `ChaosPlan` cache-loss or
    /// machine crash takes the whole cached key space down at once —
    /// every lookup app-wide falls through cold to the backing store,
    /// the thundering-herd refill the failure studies warn about. Two
    /// or more instances under partition routing leave warm shards
    /// serving through any single fault.
    fn check_cache_replication(&self, out: &mut Vec<Diagnostic>) {
        let spec = self.spec;
        let mut caches: Vec<ServiceId> = Vec::new();
        for svc in &spec.services {
            for ep in &svc.endpoints {
                Step::walk(&ep.script, 1.0, &mut |s, _| {
                    if let Step::CacheLookup { cache, .. } = s {
                        if !caches.contains(&cache.service) {
                            caches.push(cache.service);
                        }
                    }
                });
            }
        }
        let [sole] = caches[..] else {
            return; // no cache tiers, or losses leave siblings serving
        };
        let Some(cache) = spec.services.get(sole.0 as usize) else {
            return; // dangling ref — DSB005's finding
        };
        if cache.initial_instances >= 2 {
            return;
        }
        out.push(self.diag(
            Code::SingleReplicaCache,
            Severity::Warning,
            sole,
            None,
            format!(
                "sole cache tier `{}` runs a single instance: one cache-loss or \
                 machine-crash fault evicts the entire cached key space and every \
                 lookup in the app refills cold against the backing store at once; \
                 run >= 2 partition-routed instances so a single fault leaves warm \
                 shards serving",
                cache.name,
            ),
        ));
    }

    // -- DSB009 -------------------------------------------------------------

    fn check_capacity(&self, model: &CapacityModel, out: &mut Vec<Diagnostic>) {
        for (i, svc) in self.spec.services.iter().enumerate() {
            let (&WorkerPolicy::Fixed(w), Some(capacity)) = (&svc.workers, model.capacity[i])
            else {
                continue; // on-demand tiers scale with load
            };
            let busy = model.busy[i];
            let util = busy / capacity;
            if util < 0.75 {
                // Raw utilization under-reports queueing pressure on small
                // pools: an M/M/k queue with few workers builds significant
                // wait long before 75% utilization (k=1 waits its own
                // service time at rho=1/2). Flag tiers whose expected
                // M/M/k queueing delay exceeds half a service time.
                if busy <= 0.0 {
                    continue;
                }
                let wait_over_service = erlang_c(capacity as u64, busy) / (capacity * (1.0 - util));
                if wait_over_service < 0.5 {
                    continue;
                }
                out.push(self.diag(
                    Code::TierOverload,
                    Severity::Warning,
                    ServiceId(i as u32),
                    None,
                    format!(
                        "offered load keeps ~{busy:.1} workers of `{}` busy against a \
                         pool of {} ({}x{}): only {:.0}% raw utilization, but M/M/{} \
                         queueing delay is ~{:.1}x the service time — the pool is too \
                         small to absorb arrival bursts",
                        svc.name,
                        capacity as u64,
                        svc.initial_instances.max(1),
                        w,
                        util * 100.0,
                        capacity as u64,
                        wait_over_service,
                    ),
                ));
                continue;
            }
            let (severity, verdict) = if util >= 1.0 {
                (Severity::Error, "queues grow without bound")
            } else {
                (Severity::Warning, "the tier is near saturation")
            };
            out.push(self.diag(
                Code::TierOverload,
                severity,
                ServiceId(i as u32),
                None,
                format!(
                    "offered load keeps ~{busy:.1} workers of `{}` busy against a pool \
                     of {} ({}x{}): {verdict} (service demand only; downstream waits \
                     make the true pressure higher)",
                    svc.name,
                    capacity as u64,
                    svc.initial_instances.max(1),
                    w
                ),
            ));
        }
    }

    // -- DSB011 -------------------------------------------------------------

    /// Offered load vs *per-machine core budgets*: a machine hosting
    /// several hot tiers can be overcommitted even when every pool passes
    /// DSB009, because worker counts say nothing about the cores the
    /// workers share. Reads the model's machine fields: the same
    /// deterministic [`PlacementPlan`] the simulator provisions with,
    /// compute demand only (I/O holds a worker, not a core), rescaled by
    /// each machine's core model.
    fn check_machine_budget(
        &self,
        cluster: &ClusterSpec,
        model: &CapacityModel,
        out: &mut Vec<Diagnostic>,
    ) {
        let spec = self.spec;
        for (mi, machine) in cluster.machines.iter().enumerate() {
            let busy = model.machine_busy[mi];
            let util = busy / model.machine_cores[mi];
            if util < 0.8 {
                continue;
            }
            let severity = if util >= 1.0 {
                Severity::Error
            } else {
                Severity::Warning
            };
            let mut top: Vec<(usize, f64)> = model.machine_by_service[mi]
                .iter()
                .map(|(&s, &e)| (s, e))
                .collect();
            top.sort_by(|a, b| {
                b.1.partial_cmp(&a.1)
                    .expect("erlangs are finite")
                    .then(a.0.cmp(&b.0))
            });
            top.truncate(3);
            let hot: Vec<String> = top
                .iter()
                .map(|&(s, e)| format!("`{}` ~{e:.1}", spec.services[s].name))
                .collect();
            out.push(Diagnostic {
                code: Code::MachineOvercommit,
                severity,
                service: None,
                service_name: String::new(),
                endpoint: None,
                message: format!(
                    "machine {mi} ({:?}, {} cores) is overcommitted: resident tiers \
                     demand ~{:.1} cores ({}) — each pool may pass its own capacity \
                     check, but they share this machine's core budget",
                    machine.zone,
                    machine.cores,
                    busy,
                    hot.join(", "),
                ),
            });
        }
    }

    // -- DSB012 -------------------------------------------------------------

    /// Trace-driven critical-path queueing: runs a short deterministic
    /// calibration simulation, attributes end-to-end latency with
    /// [`dsb_trace::critical_path`], and flags tiers sitting on a
    /// blocking fan-out chain whose *measured* worker queueing exceeds
    /// several times what per-tier Erlang-C admits at this load. That is
    /// exactly the blind spot of DSB009: a fan-out synchronizes arrivals
    /// downstream, so the Poisson assumption under M/M/k collapses.
    fn check_critical_path(
        &self,
        cluster: &ClusterSpec,
        model: &CapacityModel,
        out: &mut Vec<Diagnostic>,
    ) {
        let spec = self.spec;
        // Which services sit downstream (inclusive) of a parallel
        // fan-out, and through which (fanner, fan-target) edge.
        let fan = fan_chains(spec);
        if fan.is_empty() && self.slo.is_none() {
            return;
        }

        // Short calibration run: sample every trace, fixed seed, evenly
        // spaced arrivals per offered entry (keys spread over shards).
        let mut cal = cluster.clone();
        cal.trace_sample_prob = 1.0;
        let mut sim = Simulation::new(spec.clone(), cal, CALIBRATION_SEED);
        for (idx, &(entry, qps)) in self.offered.iter().enumerate() {
            if qps <= 0.0 || spec.callee(entry).is_none() {
                continue;
            }
            let n = (qps * self.calibration_secs).ceil() as u64;
            for j in 0..n {
                let at = SimTime::from_nanos((j as f64 * 1e9 / qps) as u64);
                let key = (j + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                sim.inject(at, entry, RequestType(idx as u32), 256, key);
            }
        }
        // With an SLO attached, scrape the run in CALIBRATION_WINDOWS
        // slices so burn rates and backpressure series exist afterwards.
        // Scraping is read-only, so the event sequence — and therefore
        // DSB012 and every golden report — is identical either way.
        let scraper = self.slo.map(|target| {
            let interval = SimDuration::from_nanos(
                ((self.calibration_secs * 1e9 / CALIBRATION_WINDOWS as f64) as u64).max(1),
            );
            let mut scr = Scraper::new(interval);
            for idx in 0..self.offered.len() {
                scr = scr.with_slo(Slo::p99(RequestType(idx as u32), target));
            }
            for step in 1..=CALIBRATION_WINDOWS {
                let t = SimTime::ZERO + interval * step;
                sim.advance_to(t);
                scr.tick(&sim, t);
            }
            sim.run_until_idle();
            scr.flush(&sim);
            scr
        });
        if scraper.is_none() {
            sim.run_until_idle();
        }
        if let Some(scr) = &scraper {
            self.check_qos_culprit(&sim, scr, model, out);
        }
        if fan.is_empty() {
            return;
        }

        // Critical-path attribution share per service across all traces.
        let (attr, _) = critical_path_totals(
            sim.collector().sampled_traces().map(|(_, s)| s.as_slice()),
            spec.services.len(),
        );
        let total_attr: u128 = attr.iter().sum();
        if total_attr == 0 {
            return;
        }

        for (i, svc) in spec.services.iter().enumerate() {
            let Some(&(fanner, target)) = fan.get(&i) else {
                continue; // sequential queueing is DSB009's domain
            };
            let Some(k) = model.capacity[i] else {
                continue; // on-demand pools spawn through bursts
            };
            let total_rate: f64 = model.rates[i].iter().sum();
            let offered_erl = model.busy[i];
            if total_rate <= 0.0 || offered_erl <= 0.0 || offered_erl >= k {
                continue; // idle, or saturated (DSB009 already errors)
            }
            let share = attr[i] as f64 / total_attr as f64;
            if share < 0.05 {
                continue; // not on the latency-critical path
            }
            let Some(st) = sim.collector().service(i as u32) else {
                continue;
            };
            if st.spans < 8 {
                continue; // too few observations to trust the mean
            }
            let measured_ns = st.queue_ns as f64 / st.spans as f64;
            let mean_service_ns = offered_erl * 1e9 / total_rate;
            let predicted_ns =
                erlang_c(k as u64, offered_erl) / (k * (1.0 - offered_erl / k)) * mean_service_ns;
            // Fire only on a clear multiple plus an absolute floor, so
            // near-zero predictions don't flag microsecond noise.
            if measured_ns <= 4.0 * predicted_ns + 500_000.0 {
                continue;
            }
            out.push(self.diag(
                Code::CriticalPathQueueing,
                Severity::Warning,
                ServiceId(i as u32),
                None,
                format!(
                    "calibration run measured ~{:.1} ms mean worker queueing at `{}` \
                     vs ~{:.1} ms admitted by M/M/{} at this load ({:.0}% of the \
                     end-to-end critical path): the fan-out `{}` -> `{}` synchronizes \
                     arrivals, which per-tier Erlang-C cannot see",
                    measured_ns / 1e6,
                    svc.name,
                    predicted_ns / 1e6,
                    k as u64,
                    share * 100.0,
                    spec.services[fanner].name,
                    spec.services[target].name,
                ),
            ));
        }
    }

    // -- DSB013 -------------------------------------------------------------

    /// Runtime-vs-static bottleneck comparison. When a burn-rate alert
    /// fires on the scraped calibration run, the telemetry root-cause
    /// engine walks saturated connection pools downstream of the tier
    /// the critical path bills the latency to. If the tier it names is
    /// not the tier static capacity analysis ranks busiest, the spec has
    /// a Fig. 17/18-style divergence no static pass can see: the billed
    /// tier holds connections while an apparently idle tier causes the
    /// wait.
    fn check_qos_culprit(
        &self,
        sim: &Simulation,
        scr: &Scraper,
        model: &CapacityModel,
        out: &mut Vec<Diagnostic>,
    ) {
        let spec = self.spec;
        // Static prediction: highest offered utilization across fixed
        // worker pools (lowest service id wins ties).
        let mut predicted: Option<(usize, f64)> = None;
        for i in 0..spec.services.len() {
            let Some(util) = model.utilization(i) else {
                continue;
            };
            if predicted.is_none_or(|(_, u)| util > u) {
                predicted = Some((i, util));
            }
        }
        let Some((predicted, util)) = predicted else {
            return;
        };
        let target = self.slo.expect("only called with an SLO attached");
        for slo in scr.slos() {
            // One diagnostic per request type: report the first alert.
            let Some(alert) = evaluate(scr.registry(), slo, &BurnRule::default())
                .into_iter()
                .next()
            else {
                continue;
            };
            let Some(rc) = dsb_telemetry::diagnose(sim, scr.registry(), &alert) else {
                continue;
            };
            if rc.culprit as usize == predicted {
                continue;
            }
            let chain = rc
                .chain
                .iter()
                .map(|t| format!("`{}`", spec.services[t.service as usize].name))
                .collect::<Vec<_>>()
                .join(" -> ");
            out.push(self.diag(
                Code::QosCulpritMismatch,
                Severity::Warning,
                ServiceId(rc.culprit),
                None,
                format!(
                    "calibration run burned the {:.0} ms p99 SLO for request type {} \
                     ({}/{} completions over target): the runtime root cause is \
                     `{}` (backpressure chain {chain}), not `{}` which static \
                     capacity analysis ranks busiest (~{:.0}% utilization) — \
                     latency is billed upstream of the tier causing it",
                    target.as_millis_f64(),
                    alert.rtype.0,
                    alert.violations,
                    alert.total,
                    spec.services[rc.culprit as usize].name,
                    spec.services[predicted].name,
                    util * 100.0,
                ),
            ));
        }
    }
}

/// Seed of the DSB012 calibration simulation: arbitrary but fixed, so
/// analyzer reports are byte-stable across runs.
const CALIBRATION_SEED: u64 = 0x00D5_B012;

/// Number of scrape windows the DSB013 calibration run is sliced into.
const CALIBRATION_WINDOWS: u64 = 8;

/// For every service reachable (inclusive) from some parallel fan-out
/// target, the `(fanning caller, fan target)` pair that reaches it.
/// Lowest caller id wins, so messages are deterministic.
fn fan_chains(spec: &AppSpec) -> BTreeMap<usize, (usize, usize)> {
    let n = spec.services.len();
    let mut adj = vec![Vec::new(); n];
    for (a, b) in valid_edges(spec) {
        adj[a.0 as usize].push(b.0 as usize);
    }
    let mut out = BTreeMap::new();
    for (i, svc) in spec.services.iter().enumerate() {
        for ep in &svc.endpoints {
            Step::walk(&ep.script, 1.0, &mut |s, _| {
                for (t, _, parallel) in s.calls() {
                    if !parallel || spec.callee(t).is_none() {
                        continue;
                    }
                    let target = t.service.0 as usize;
                    // BFS downstream of the fan target, inclusive.
                    let mut seen = vec![false; n];
                    let mut stack = vec![target];
                    seen[target] = true;
                    while let Some(s) = stack.pop() {
                        out.entry(s).or_insert((i, target));
                        for &w in &adj[s] {
                            if !seen[w] {
                                seen[w] = true;
                                stack.push(w);
                            }
                        }
                    }
                }
            });
        }
    }
    out
}

fn zone_name(z: Option<dsb_net::Zone>) -> String {
    match z {
        None => "datacenter".to_string(),
        Some(z) => format!("{z:?}"),
    }
}

fn lb_name(lb: LbPolicy) -> &'static str {
    match lb {
        LbPolicy::RoundRobin => "round-robin",
        LbPolicy::LeastOutstanding => "least-outstanding",
        LbPolicy::Partition => "partition",
    }
}

/// Endpoint names that read a record from a store.
const READ_ENDPOINTS: &[&str] = &["get", "find", "read", "query", "lookup", "fetch", "load"];
/// Endpoint names that mutate a record in a store.
const WRITE_ENDPOINTS: &[&str] = &[
    "set",
    "insert",
    "update",
    "write",
    "put",
    "delete",
    "invalidate",
    "store",
    "push",
    "append",
];

/// Classifies a call target as a store operation: the callee must be
/// partition-routed (a sharded store) and the endpoint name must be a
/// known read or write verb. Returns `(store service, is_write)`.
fn store_op(spec: &AppSpec, t: EndpointRef) -> Option<(ServiceId, bool)> {
    let callee = spec.callee(t)?;
    if callee.lb != LbPolicy::Partition {
        return None;
    }
    let name = callee.endpoints[t.endpoint as usize].name.as_str();
    if READ_ENDPOINTS.contains(&name) {
        Some((t.service, false))
    } else if WRITE_ENDPOINTS.contains(&name) {
        Some((t.service, true))
    } else {
        None
    }
}

/// Collects `(C, D)` pairs where store `C` is read before store `D` in
/// script order (both branch arms walked — an over-approximation that
/// only ever *adds* scrutiny, never misses a real pair). The first
/// orientation observed wins: once `C` is known to be consulted before
/// `D`, a later re-read of `C` (a fan-out over cache keys, say) must
/// not also record the reverse pair, or every cache-aside read path
/// would accuse both orders. `ParCall` members have no order among
/// themselves: they are read, but pair only with later reads.
fn read_pairs(spec: &AppSpec, steps: &[Step], pairs: &mut Vec<(ServiceId, ServiceId)>) {
    let mut reads_seen: Vec<ServiceId> = Vec::new();
    Step::walk(steps, 1.0, &mut |s, _| match s {
        Step::Call { target, .. } | Step::FanCall { target, .. } => {
            if let Some((store, false)) = store_op(spec, *target) {
                for &c in &reads_seen {
                    if c != store && !pairs.contains(&(c, store)) && !pairs.contains(&(store, c)) {
                        pairs.push((c, store));
                    }
                }
                if !reads_seen.contains(&store) {
                    reads_seen.push(store);
                }
            }
        }
        Step::ParCall { calls } => {
            for &(t, _) in calls {
                if let Some((store, false)) = store_op(spec, t) {
                    if !reads_seen.contains(&store) {
                        reads_seen.push(store);
                    }
                }
            }
        }
        _ => {}
    });
}

/// The stores *certainly* written by one invocation, in script order:
/// `Call`/`FanCall` write targets the walk reaches with probability 1.0.
/// Inside a branch arm with `0 < p < 1` nothing is certain (the
/// write-behind exemption); `ParCall` members are skipped (no defined
/// order between them).
fn certain_store_writes(spec: &AppSpec, steps: &[Step]) -> Vec<ServiceId> {
    let mut writes = Vec::new();
    Step::walk(steps, 1.0, &mut |s, w| match s {
        Step::Call { target, .. } | Step::FanCall { target, .. } if w >= 1.0 => {
            if let Some((store, true)) = store_op(spec, *target) {
                writes.push(store);
            }
        }
        _ => {}
    });
    writes
}

/// Iterative Tarjan strongly-connected components; returns each SCC as a
/// list of node indices (order unspecified inside an SCC).
fn tarjan_sccs(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = adj.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack = Vec::new();
    let mut next_index = 0usize;
    let mut sccs = Vec::new();

    // Explicit DFS frames: (node, next child position).
    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        let mut frames: Vec<(usize, usize)> = vec![(start, 0)];
        while let Some(&mut (v, ref mut child)) = frames.last_mut() {
            if *child == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if *child < adj[v].len() {
                let w = adj[v][*child];
                *child += 1;
                if index[w] == usize::MAX {
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut scc = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    sccs.push(scc);
                }
            }
        }
    }
    sccs
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsb_core::Step;
    use dsb_net::{Protocol, Zone};
    use dsb_simcore::Dist;
    use std::sync::Arc;

    /// A minimal hand-built service with one endpoint running `script`.
    fn svc(name: &str, script: Vec<Step>) -> dsb_core::ServiceSpec {
        dsb_core::ServiceSpec {
            name: name.to_string(),
            profile: dsb_uarch::UarchProfile::microservice_default(),
            concurrency: Concurrency::Blocking,
            workers: WorkerPolicy::Fixed(8),
            protocol: Protocol::ThriftRpc,
            lb: LbPolicy::RoundRobin,
            initial_instances: 1,
            conn_limit: 128,
            zone_pref: None,
            placement: dsb_core::PlacementHint::Spread,
            endpoints: vec![dsb_core::EndpointSpec {
                name: "run".to_string(),
                resp_bytes: Dist::constant(64.0),
                script: Arc::new(script),
            }],
        }
    }

    fn ep(service: u32) -> EndpointRef {
        EndpointRef {
            service: ServiceId(service),
            endpoint: 0,
        }
    }

    fn codes(diags: &[Diagnostic]) -> Vec<Code> {
        let mut v: Vec<Code> = diags.iter().map(|d| d.code).collect();
        v.dedup();
        v
    }

    #[test]
    fn clean_chain_has_no_diagnostics() {
        let spec = AppSpec {
            name: "chain".into(),
            services: vec![
                svc("front", vec![Step::call(ep(1), 64.0)]),
                svc("mid", vec![Step::call(ep(2), 64.0)]),
                svc("leaf", vec![Step::work_us(5.0)]),
            ],
        };
        assert!(analyze(&spec).is_empty(), "{:?}", analyze(&spec));
    }

    #[test]
    fn cycle_of_blocking_tiers_reports_cycle_and_wait_cycle() {
        let spec = AppSpec {
            name: "loop".into(),
            services: vec![
                svc("a", vec![Step::call(ep(1), 64.0)]),
                svc("b", vec![Step::call(ep(0), 64.0)]),
            ],
        };
        let d = analyze(&spec);
        assert_eq!(codes(&d), vec![Code::CallCycle, Code::WaitCycle]);
        assert_eq!(d[0].severity, Severity::Error);
        assert!(d[0].message.contains("a, b"), "{}", d[0].message);
        assert_eq!(d[1].severity, Severity::Error);
        assert!(
            d[1].message.contains("holds a blocking worker"),
            "{}",
            d[1].message
        );
    }

    #[test]
    fn async_thrift_cycle_is_a_cycle_but_not_a_wait_cycle() {
        // Event-driven tiers over a multiplexing protocol hold nothing
        // across the call: the loop is a design smell (DSB001) but it
        // cannot deadlock — exactly the DSB001/DSB014 delta.
        let mut a = svc("a", vec![Step::call(ep(1), 64.0)]);
        let mut b = svc("b", vec![Step::call(ep(0), 64.0)]);
        a.concurrency = Concurrency::Async;
        b.concurrency = Concurrency::Async;
        let spec = AppSpec {
            name: "loop".into(),
            services: vec![a, b],
        };
        assert_eq!(codes(&analyze(&spec)), vec![Code::CallCycle]);
    }

    #[test]
    fn conn_pool_only_cycle_still_deadlocks() {
        // The case the old all-tiers-block note missed: event-driven
        // tiers whose *protocol* holds one connection per outstanding
        // request form a circular wait through the connection pools.
        let mut a = svc("a", vec![Step::call(ep(1), 64.0)]);
        let mut b = svc("b", vec![Step::call(ep(0), 64.0)]);
        for s in [&mut a, &mut b] {
            s.concurrency = Concurrency::Async;
            s.protocol = Protocol::Http1;
        }
        let spec = AppSpec {
            name: "loop".into(),
            services: vec![a, b],
        };
        let d = analyze(&spec);
        assert_eq!(codes(&d), vec![Code::CallCycle, Code::WaitCycle]);
        assert!(
            d[1].message.contains("holds a connection slot"),
            "{}",
            d[1].message
        );
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let spec = AppSpec {
            name: "self".into(),
            services: vec![svc("a", vec![Step::call(ep(0), 64.0)])],
        };
        assert_eq!(
            codes(&analyze(&spec)),
            vec![Code::CallCycle, Code::WaitCycle]
        );
    }

    #[test]
    fn blocking_backpressure_flags_small_pool() {
        let mut callee = svc("memcached", vec![Step::work_us(5.0)]);
        callee.protocol = Protocol::Http1;
        callee.conn_limit = 2;
        let mut caller = svc("nginx", vec![Step::call(ep(0), 64.0)]);
        caller.workers = WorkerPolicy::Fixed(64);
        let spec = AppSpec {
            name: "twotier".into(),
            services: vec![callee, caller],
        };
        let d = analyze(&spec);
        assert_eq!(codes(&d), vec![Code::BlockingBackpressure]);
        assert_eq!(d[0].service_name, "nginx");
        assert!(d[0].message.contains("Fig. 17"), "{}", d[0].message);

        // An event-driven caller releases its worker: no finding.
        let mut spec2 = spec.clone();
        spec2.services[1].concurrency = Concurrency::Async;
        assert!(analyze(&spec2).is_empty());

        // A pool at least as large as the worker count: no finding.
        let mut spec3 = spec;
        spec3.services[0].conn_limit = 64;
        assert!(analyze(&spec3).is_empty());
    }

    #[test]
    fn fanout_oversubscription_flags_wide_fan() {
        let callee = svc("timeline", vec![Step::work_us(5.0)]);
        let caller = svc(
            "compose",
            vec![Step::FanCall {
                target: ep(0),
                req_bytes: Dist::constant(64.0),
                n: Dist::constant(100.0),
            }],
        );
        let spec = AppSpec {
            name: "fan".into(),
            services: vec![callee, caller],
        };
        let d = analyze(&spec);
        assert_eq!(codes(&d), vec![Code::FanoutOversubscription]);
        assert_eq!(d[0].endpoint.as_deref(), Some("run"));

        // Fan within the pool: clean.
        let mut spec2 = spec;
        spec2.services[0].workers = WorkerPolicy::Fixed(128);
        assert!(analyze(&spec2).is_empty());
    }

    #[test]
    fn unreachable_service_flagged_with_explicit_entry() {
        let spec = AppSpec {
            name: "island".into(),
            services: vec![
                svc("front", vec![Step::work_us(1.0)]),
                svc("orphan", vec![Step::work_us(1.0)]),
            ],
        };
        // Without entries both are in-degree-0 roots: clean.
        assert!(analyze(&spec).is_empty());
        // With an explicit front-end, the orphan is dead weight.
        let d = Analyzer::new(&spec).entry(ServiceId(0)).run();
        assert_eq!(codes(&d), vec![Code::UnreachableService]);
        assert_eq!(d[0].service_name, "orphan");
    }

    #[test]
    fn dangling_endpoint_is_an_error() {
        let unknown_service = EndpointRef {
            service: ServiceId(9),
            endpoint: 0,
        };
        let unknown_endpoint = EndpointRef {
            service: ServiceId(0),
            endpoint: 7,
        };
        let spec = AppSpec {
            name: "dangle".into(),
            services: vec![svc(
                "front",
                vec![
                    Step::Branch {
                        p: 0.5,
                        then: Arc::new(vec![Step::call(unknown_service, 64.0)]),
                        els: Arc::new(vec![]),
                    },
                    Step::call(unknown_endpoint, 64.0),
                ],
            )],
        };
        // Script order: a branch arm's calls before the steps after it.
        assert_eq!(
            spec.bad_calls(),
            vec![
                (ServiceId(0), 0, BadCall::Dangling(unknown_service)),
                (ServiceId(0), 0, BadCall::Dangling(unknown_endpoint)),
            ]
        );
        let d = analyze(&spec);
        assert_eq!(d.len(), 2);
        assert!(d
            .iter()
            .all(|d| d.code == Code::DanglingEndpoint && d.severity == Severity::Error));
    }

    #[test]
    fn parallel_fanout_to_blocking_protocol_is_an_error() {
        let mut callee = svc("php", vec![Step::work_us(5.0)]);
        callee.protocol = Protocol::Fcgi;
        let caller = svc(
            "front",
            vec![Step::ParCall {
                calls: vec![(ep(0), Dist::constant(64.0))],
            }],
        );
        let spec = AppSpec {
            name: "par".into(),
            services: vec![callee, caller],
        };
        let d = analyze(&spec);
        assert_eq!(codes(&d), vec![Code::ParallelToBlocking]);
        assert_eq!(d[0].severity, Severity::Error);
    }

    #[test]
    fn ipc_across_zones_flagged() {
        let mut callee = svc("sensor", vec![Step::work_us(1.0)]);
        callee.protocol = Protocol::Ipc;
        callee.zone_pref = Some(dsb_net::Zone::Edge);
        let caller = svc("planner", vec![Step::call(ep(0), 64.0)]); // datacenter
        let spec = AppSpec {
            name: "zones".into(),
            services: vec![callee, caller],
        };
        let d = analyze(&spec);
        assert_eq!(codes(&d), vec![Code::IpcCrossZone]);

        // Same zone on both ends: clean.
        let mut spec2 = spec;
        spec2.services[1].zone_pref = Some(dsb_net::Zone::Edge);
        assert!(analyze(&spec2).is_empty());
    }

    #[test]
    fn partition_over_one_instance_flagged() {
        let mut shard = svc("mongo", vec![Step::work_us(1.0)]);
        shard.lb = LbPolicy::Partition;
        let spec = AppSpec {
            name: "shard".into(),
            services: vec![shard, svc("front", vec![Step::call(ep(0), 64.0)])],
        };
        let d = analyze(&spec);
        assert_eq!(codes(&d), vec![Code::PartitionDegenerate]);

        let mut spec2 = spec;
        spec2.services[0].initial_instances = 4;
        assert!(analyze(&spec2).is_empty());
    }

    #[test]
    fn unused_endpoint_flagged_only_on_called_services() {
        let mut store = svc("store", vec![Step::work_us(1.0)]);
        store.endpoints.push(dsb_core::EndpointSpec {
            name: "never".to_string(),
            resp_bytes: Dist::constant(1.0),
            script: Arc::new(vec![]),
        });
        let spec = AppSpec {
            name: "dead".into(),
            services: vec![store, svc("front", vec![Step::call(ep(0), 64.0)])],
        };
        let d = analyze(&spec);
        assert_eq!(codes(&d), vec![Code::UnusedEndpoint]);
        assert_eq!(d[0].endpoint.as_deref(), Some("never"));
    }

    #[test]
    fn overload_fires_only_with_offered_load() {
        // 8 workers x 1 instance; 10ms of local demand per request.
        let leaf = svc(
            "db",
            vec![Step::Io {
                ns: Dist::constant(10_000_000.0),
            }],
        );
        let spec = AppSpec {
            name: "cap".into(),
            services: vec![leaf, svc("front", vec![Step::call(ep(0), 64.0)])],
        };
        assert!(analyze(&spec).is_empty());

        // 2000 qps x 10 ms = 20 busy workers > 8: error.
        let d = Analyzer::new(&spec)
            .entry(ServiceId(1))
            .offered(ep(1), 2000.0)
            .run();
        assert_eq!(codes(&d), vec![Code::TierOverload]);
        assert_eq!(d[0].severity, Severity::Error);
        assert_eq!(d[0].service_name, "db");

        // 700 qps x 10 ms = 7 busy workers: near saturation, warning.
        let d = Analyzer::new(&spec)
            .entry(ServiceId(1))
            .offered(ep(1), 700.0)
            .run();
        assert_eq!(codes(&d), vec![Code::TierOverload]);
        assert_eq!(d[0].severity, Severity::Warning);

        // 100 qps: clean.
        let d = Analyzer::new(&spec)
            .entry(ServiceId(1))
            .offered(ep(1), 100.0)
            .run();
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn branch_weights_scale_offered_load() {
        // Only 10% of front requests hit the db: 1000 qps -> 100 qps there.
        let leaf = svc(
            "db",
            vec![Step::Io {
                ns: Dist::constant(10_000_000.0),
            }],
        );
        let front = svc(
            "front",
            vec![Step::Branch {
                p: 0.1,
                then: Arc::new(vec![Step::call(ep(0), 64.0)]),
                els: Arc::new(vec![]),
            }],
        );
        let spec = AppSpec {
            name: "branchy".into(),
            services: vec![leaf, front],
        };
        // 1000 qps x 0.1 x 10ms = 1 busy worker out of 8: clean.
        let d = Analyzer::new(&spec)
            .entry(ServiceId(1))
            .offered(ep(1), 1000.0)
            .run();
        assert!(d.is_empty(), "{d:?}");
        // 10x the load pushes the db over its pool.
        let d = Analyzer::new(&spec)
            .entry(ServiceId(1))
            .offered(ep(1), 10_000.0)
            .run();
        assert_eq!(codes(&d), vec![Code::TierOverload]);
    }

    #[test]
    fn erlang_c_matches_known_values() {
        // M/M/1: C equals the utilization.
        assert!((erlang_c(1, 0.5) - 0.5).abs() < 1e-9);
        // Known table value: k=2, a=1 erlang -> C = 1/3.
        assert!((erlang_c(2, 1.0) - 1.0 / 3.0).abs() < 1e-9);
        // At or past saturation: certain wait.
        assert_eq!(erlang_c(4, 4.0), 1.0);
        assert_eq!(erlang_c(4, 5.0), 1.0);
    }

    #[test]
    fn small_pool_queueing_flagged_below_raw_threshold() {
        // A single-worker tier at 40% raw utilization: M/M/1 expected
        // wait is rho/(1-rho) = 0.67 service times, flagged well before
        // the 75% raw-utilization threshold.
        let mut leaf = svc(
            "queue",
            vec![Step::Io {
                ns: Dist::constant(10_000_000.0),
            }],
        );
        leaf.workers = WorkerPolicy::Fixed(1);
        let spec = AppSpec {
            name: "mm1".into(),
            services: vec![leaf, svc("front", vec![Step::call(ep(0), 64.0)])],
        };
        // 40 qps x 10 ms = 0.4 erlangs over 1 worker.
        let d = Analyzer::new(&spec)
            .entry(ServiceId(1))
            .offered(ep(1), 40.0)
            .run();
        assert_eq!(codes(&d), vec![Code::TierOverload]);
        assert_eq!(d[0].severity, Severity::Warning);
        assert!(d[0].message.contains("M/M/1"), "{}", d[0].message);

        // 25 qps -> rho = 0.25, wait = 1/3 of a service time: clean.
        let d = Analyzer::new(&spec)
            .entry(ServiceId(1))
            .offered(ep(1), 25.0)
            .run();
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn large_pool_absorbs_the_same_utilization() {
        // 70% utilization is a problem for one worker but fine across
        // 64: the pool absorbs arrival bursts (economy of scale).
        let mut leaf = svc(
            "db",
            vec![Step::Io {
                ns: Dist::constant(10_000_000.0),
            }],
        );
        leaf.workers = WorkerPolicy::Fixed(64);
        let spec = AppSpec {
            name: "mmk".into(),
            services: vec![leaf, svc("front", vec![Step::call(ep(0), 64.0)])],
        };
        // 4480 qps x 10 ms = 44.8 erlangs over 64 workers.
        let d = Analyzer::new(&spec)
            .entry(ServiceId(1))
            .offered(ep(1), 4480.0)
            .run();
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn diagnostics_are_sorted_and_deduped() {
        // Two defects on different services: order must be by service id.
        let mut callee = svc("z-callee", vec![Step::work_us(1.0)]);
        callee.protocol = Protocol::Http1;
        callee.conn_limit = 1;
        callee.lb = LbPolicy::Partition;
        let mut caller = svc("a-caller", vec![Step::call(ep(0), 64.0)]);
        caller.workers = WorkerPolicy::Fixed(16);
        let spec = AppSpec {
            name: "multi".into(),
            services: vec![callee, caller],
        };
        let d = analyze(&spec);
        assert_eq!(d.len(), 2, "{d:?}");
        assert_eq!(d[0].service, Some(ServiceId(0)));
        assert_eq!(d[0].code, Code::PartitionDegenerate);
        assert_eq!(d[1].service, Some(ServiceId(1)));
        assert_eq!(d[1].code, Code::BlockingBackpressure);
    }

    /// Two tiers, each ~0.6 erlangs of compute at 100 qps — comfortably
    /// inside its own worker pool — sharing a single-core machine.
    fn colocated_hot_tiers() -> AppSpec {
        let leaf = svc("leaf", vec![Step::work_us(6_000.0)]);
        let mut front = svc(
            "front",
            vec![Step::work_us(6_000.0), Step::call(ep(0), 64.0)],
        );
        front.workers = WorkerPolicy::Fixed(64);
        AppSpec {
            name: "hot".into(),
            services: vec![leaf, front],
        }
    }

    #[test]
    fn machine_budget_flags_colocation_that_dsb009_misses() {
        let mut cluster = ClusterSpec::xeon_cluster(1, 1);
        cluster.machines[0].cores = 1;
        let spec = colocated_hot_tiers();
        let d = Analyzer::new(&spec)
            .entry(ServiceId(1))
            .offered(ep(1), 100.0)
            .cluster(&cluster)
            .run();
        // Each pool passes DSB009 on its own; together they demand
        // ~1.2 cores of a 1-core machine.
        assert_eq!(codes(&d), vec![Code::MachineOvercommit]);
        assert_eq!(d[0].severity, Severity::Error);
        assert_eq!(d[0].service, None, "machine findings are app-wide");
        assert!(d[0].message.contains("machine 0"), "{}", d[0].message);
        assert!(d[0].message.contains("`front`"), "{}", d[0].message);

        // Enough cores: clean again.
        let roomy = ClusterSpec::xeon_cluster(1, 1);
        let d = Analyzer::new(&spec)
            .entry(ServiceId(1))
            .offered(ep(1), 100.0)
            .cluster(&roomy)
            .run();
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn machine_budget_needs_a_cluster_and_a_feasible_placement() {
        let mut cluster = ClusterSpec::xeon_cluster(1, 1);
        cluster.machines[0].cores = 1;
        // No cluster given: the pass cannot run.
        let mut spec = colocated_hot_tiers();
        let d = Analyzer::new(&spec)
            .entry(ServiceId(1))
            .offered(ep(1), 100.0)
            .run();
        assert!(d.is_empty(), "{d:?}");
        // A zone preference no machine satisfies: placement-dependent
        // passes are skipped rather than guessing (or panicking).
        spec.services[0].zone_pref = Some(Zone::Edge);
        let d = Analyzer::new(&spec)
            .entry(ServiceId(1))
            .offered(ep(1), 100.0)
            .cluster(&cluster)
            .run();
        assert!(d.is_empty(), "{d:?}");
    }

    /// One Xeon plus `edge` edge devices, for lookahead tests.
    fn edge_cluster(edge: usize) -> ClusterSpec {
        let mut cluster = ClusterSpec::xeon_cluster(1, 1);
        for _ in 0..edge {
            cluster.machines.push(dsb_core::MachineSpec::edge_device());
        }
        cluster
    }

    #[test]
    fn edge_to_edge_gossip_certifies_sub_loopback_lookahead() {
        // Two edge-zone services, two instances each, spread over edge
        // devices: the Edge<->Edge link floor (0.2 x 2 us = 400 ns) is
        // below the 2 us loopback epoch floor.
        let mut b = svc("gossip-peer", vec![Step::work_us(5.0)]);
        let mut a = svc("gossip", vec![Step::call(ep(0), 64.0)]);
        for s in [&mut a, &mut b] {
            s.zone_pref = Some(Zone::Edge);
            s.workers = WorkerPolicy::Fixed(1);
            s.initial_instances = 2;
        }
        let spec = AppSpec {
            name: "gossip".into(),
            services: vec![b, a],
        };
        // Without cluster context the pass cannot run.
        assert!(analyze(&spec).is_empty(), "{:?}", analyze(&spec));
        let cluster = edge_cluster(4);
        let d = Analyzer::new(&spec)
            .entry(ServiceId(1))
            .cluster(&cluster)
            .run();
        assert_eq!(codes(&d), vec![Code::ZeroLookahead]);
        assert_eq!(d[0].severity, Severity::Warning);
        assert_eq!(d[0].service_name, "gossip");
        assert!(d[0].message.contains("400 ns"), "{}", d[0].message);

        // The same app on datacenter machines clears the floor: the
        // intra-rack minimum (5 us) exceeds loopback (2 us).
        let mut dc = spec.clone();
        for s in &mut dc.services {
            s.zone_pref = None;
        }
        let racks = ClusterSpec::xeon_cluster(2, 1);
        let d = Analyzer::new(&dc).entry(ServiceId(1)).cluster(&racks).run();
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn ipc_spanning_machines_has_zero_lookahead() {
        // An IPC callee the round-robin balancer spreads over two
        // machines: no zone preference conflict (so no DSB007), but the
        // delay bound a parallel engine could certify is zero.
        let mut callee = svc("sidecar", vec![Step::work_us(1.0)]);
        callee.protocol = Protocol::Ipc;
        callee.initial_instances = 2;
        callee.workers = WorkerPolicy::Fixed(1);
        let mut caller = svc("app", vec![Step::call(ep(0), 64.0)]);
        caller.initial_instances = 2;
        caller.workers = WorkerPolicy::Fixed(1);
        let spec = AppSpec {
            name: "ipc".into(),
            services: vec![callee, caller],
        };
        let cluster = ClusterSpec::xeon_cluster(2, 1);
        let d = Analyzer::new(&spec)
            .entry(ServiceId(1))
            .cluster(&cluster)
            .run();
        assert_eq!(codes(&d), vec![Code::ZeroLookahead]);
        let zl = &d[0];
        assert!(zl.message.contains("zero-lookahead"), "{}", zl.message);
        assert!(zl.message.contains("round-robin"), "{}", zl.message);
    }

    /// A cache-aside pair: partition-routed `cache` (get/set) over
    /// partition-routed `db` (find/insert), with a read endpoint that
    /// consults the cache first and a write endpoint whose store order
    /// is given by `write_script`.
    fn cache_aside(write_first_cache: bool) -> AppSpec {
        let mk_store = |name: &str, eps: [&str; 2]| {
            let mut s = svc(name, vec![Step::work_us(2.0)]);
            s.lb = LbPolicy::Partition;
            s.initial_instances = 2;
            s.concurrency = Concurrency::Async;
            s.endpoints[0].name = eps[0].to_string();
            s.endpoints.push(dsb_core::EndpointSpec {
                name: eps[1].to_string(),
                resp_bytes: Dist::constant(16.0),
                script: Arc::new(vec![Step::work_us(2.0)]),
            });
            s
        };
        let cache = mk_store("cache", ["get", "set"]);
        let db = mk_store("db", ["find", "insert"]);
        let cache_get = ep(0);
        let cache_set = EndpointRef {
            service: ServiceId(0),
            endpoint: 1,
        };
        let db_find = ep(1);
        let db_insert = EndpointRef {
            service: ServiceId(1),
            endpoint: 1,
        };
        let read = Step::Branch {
            p: 0.9,
            then: Arc::new(vec![Step::call(cache_get, 16.0)]),
            els: Arc::new(vec![
                Step::call(cache_get, 16.0),
                Step::call(db_find, 16.0),
                Step::call(cache_set, 64.0),
            ]),
        };
        let write = if write_first_cache {
            vec![Step::call(cache_set, 64.0), Step::call(db_insert, 64.0)]
        } else {
            vec![Step::call(db_insert, 64.0), Step::call(cache_set, 64.0)]
        };
        let mut front = svc("front", vec![read]);
        front.concurrency = Concurrency::Async;
        front.endpoints.push(dsb_core::EndpointSpec {
            name: "write".to_string(),
            resp_bytes: Dist::constant(16.0),
            script: Arc::new(write),
        });
        AppSpec {
            name: "aside".into(),
            services: vec![cache, db, front],
        }
    }

    #[test]
    fn write_visibility_race_fires_only_on_certain_inversion() {
        // Durable-store-first ordering: clean.
        let good = cache_aside(false);
        let d = Analyzer::new(&good).entry(ServiceId(2)).run();
        assert!(d.is_empty(), "{d:?}");

        // Cache-first ordering inverts the cache-aside protocol.
        let bad = cache_aside(true);
        let d = Analyzer::new(&bad).entry(ServiceId(2)).run();
        assert_eq!(codes(&d), vec![Code::WriteVisibilityRace]);
        assert_eq!(d[0].severity, Severity::Warning);
        assert_eq!(d[0].service_name, "front");
        assert_eq!(d[0].endpoint.as_deref(), Some("write"));
        assert!(d[0].message.contains("`cache`"), "{}", d[0].message);

        // A probabilistic flush (write-behind) is exempt: the durable
        // write is not *certain*, so the order proves nothing.
        let mut behind = cache_aside(true);
        let write = vec![
            Step::call(
                EndpointRef {
                    service: ServiceId(0),
                    endpoint: 1,
                },
                64.0,
            ),
            Step::Branch {
                p: 0.1,
                then: Arc::new(vec![Step::call(
                    EndpointRef {
                        service: ServiceId(1),
                        endpoint: 1,
                    },
                    64.0,
                )]),
                els: Arc::new(vec![]),
            },
        ];
        behind.services[2].endpoints[1].script = Arc::new(write);
        let d = Analyzer::new(&behind).entry(ServiceId(2)).run();
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn critical_path_queueing_needs_the_calibration_window() {
        // front --FanCall 16--> mid (16 workers) --> leaf (4 workers,
        // 2 ms I/O). The fan-out synchronizes 16 arrivals over 4 leaf
        // workers; at 5 qps every static check is comfortable.
        let mut leaf = svc(
            "leaf",
            vec![Step::Io {
                ns: Dist::constant(2_000_000.0),
            }],
        );
        leaf.workers = WorkerPolicy::Fixed(4);
        let mut mid = svc("mid", vec![Step::call(ep(0), 64.0)]);
        mid.workers = WorkerPolicy::Fixed(16);
        let front = svc(
            "front",
            vec![Step::FanCall {
                target: ep(1),
                req_bytes: Dist::constant(64.0),
                n: Dist::constant(16.0),
            }],
        );
        let spec = AppSpec {
            name: "burst".into(),
            services: vec![leaf, mid, front],
        };
        let cluster = ClusterSpec::xeon_cluster(2, 1);
        let run = |calibration: f64| {
            Analyzer::new(&spec)
                .entry(ServiceId(2))
                .offered(ep(2), 5.0)
                .cluster(&cluster)
                .calibration(calibration)
                .run()
        };
        // Without a calibration window the queueing is invisible.
        assert!(run(0.0).is_empty(), "{:?}", run(0.0));
        let d = run(2.0);
        assert_eq!(codes(&d), vec![Code::CriticalPathQueueing]);
        assert_eq!(d[0].severity, Severity::Warning);
        assert_eq!(d[0].service_name, "leaf");
        assert!(
            d[0].message.contains("`front` -> `mid`"),
            "{}",
            d[0].message
        );
        // Byte-identical on a re-run: the calibration seed is fixed.
        assert_eq!(d, run(2.0));
    }
}
