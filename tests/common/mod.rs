//! Helpers shared by the root integration suites (goldens, determinism).

#![allow(dead_code)] // each test binary uses a subset

use deathstarbench_sim::apps::BuiltApp;
use deathstarbench_sim::core::{
    ClusterSpec, LbPolicy, MachineSpec, RequestType, ServiceId, Simulation,
};
use deathstarbench_sim::simcore::SimTime;
use deathstarbench_sim::workload::{OpenLoop, UserPopulation};
use std::fmt::Write as _;

/// Highest request-type id used by any app in the suite.
pub const MAX_RTYPE: u32 = 16;

/// The reference cluster every fixture is pinned to: 8 Xeon servers on
/// 2 racks plus 24 edge devices (needed by Swarm; harmless otherwise),
/// tracing off.
pub fn fixed_cluster() -> ClusterSpec {
    let mut cluster = ClusterSpec::xeon_cluster(8, 2);
    for _ in 0..24 {
        cluster.machines.push(MachineSpec::edge_device());
    }
    cluster.trace_sample_prob = 0.0;
    cluster
}

/// Runs `app` on the reference cluster under its own query mix at
/// `qps` for `secs` virtual seconds, then drains.
pub fn run_fixed(app: &BuiltApp, qps: f64, secs: u64, seed: u64) -> Simulation {
    let mut sim = Simulation::new(app.spec.clone(), fixed_cluster(), seed);
    let mut load = OpenLoop::new(app.mix.clone(), UserPopulation::uniform(500), seed);
    load.drive(&mut sim, SimTime::ZERO, SimTime::from_secs(secs), qps);
    sim.run_until_idle();
    sim
}

/// `(issued, completed, rejected)` summed over all request types.
pub fn totals(sim: &Simulation) -> (u64, u64, u64) {
    let mut t = (0, 0, 0);
    for i in 0..MAX_RTYPE {
        if let Some(st) = sim.request_stats(RequestType(i)) {
            t.0 += st.issued;
            t.1 += st.completed;
            t.2 += st.rejected;
        }
    }
    t
}

/// Renders the integer-only summary that golden fixtures pin: request
/// counts and latency percentiles per request type, plus per-service
/// invocation counts — broken down per endpoint for multi-endpoint
/// services (both halves of a cache's get/set pair must see traffic)
/// and per shard for `Partition` services (the load split across
/// shards) — and each service's instance-to-machine placement (so any
/// change to the placement policy shows up as a fixture diff, not just
/// as a latency shift). Every field is deterministic at a fixed seed,
/// and the latency percentiles move on any change to per-tier service
/// demand.
pub fn summary(app: &BuiltApp, sim: &Simulation) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "app: {}", app.spec.name);
    let _ = writeln!(out, "services: {}", app.spec.service_count());
    let _ = writeln!(out, "events: {}", sim.events_processed());
    for i in 0..MAX_RTYPE {
        if let Some(st) = sim.request_stats(RequestType(i)) {
            let _ = writeln!(
                out,
                "type {i}: issued={} completed={} rejected={} \
                 p50={}ns p90={}ns p99={}ns max={}ns",
                st.issued,
                st.completed,
                st.rejected,
                st.latency.quantile(0.5),
                st.latency.quantile(0.9),
                st.latency.quantile(0.99),
                st.latency.max(),
            );
        }
    }
    for i in 0..app.spec.service_count() {
        let id = ServiceId(i as u32);
        let svc = app.spec.service(id);
        let stats = sim.service_stats(id);
        let mut line = format!("service {}: invocations={}", svc.name, stats.invocations);
        if svc.endpoints.len() > 1 {
            let per_ep: Vec<String> = svc
                .endpoints
                .iter()
                .enumerate()
                .map(|(e, ep)| format!("{}={}", ep.name, stats.endpoint_count(e)))
                .collect();
            let _ = write!(line, " endpoints[{}]", per_ep.join(" "));
        }
        let machines: Vec<String> = sim
            .instances_of(id)
            .iter()
            .map(|inst| sim.instance_machine(*inst).0.to_string())
            .collect();
        let _ = write!(line, " machines[{}]", machines.join("|"));
        if svc.lb == LbPolicy::Partition {
            let per_shard: Vec<String> = sim
                .instances_of(id)
                .iter()
                .map(|inst| sim.instance_served(*inst).to_string())
                .collect();
            let _ = write!(line, " shards[{}]", per_shard.join("|"));
        }
        let _ = writeln!(out, "{line}");
    }
    out
}

/// Serializes every sampled trace, span by span, field by field. Any
/// divergence in span identity, ordering, or timing between engines
/// lands here as a byte diff.
pub fn trace_bytes(sim: &Simulation) -> String {
    let mut out = String::new();
    for (trace, spans) in sim.collector().sampled_traces() {
        let _ = writeln!(out, "trace {}", trace.0);
        for s in spans {
            let _ = writeln!(
                out,
                "  span {} parent {:?} svc {} ep {} [{}, {}] q={} app={} net={}",
                s.id.0,
                s.parent.map(|p| p.0),
                s.service,
                s.endpoint,
                s.start.as_nanos(),
                s.end.as_nanos(),
                s.queue_time.as_nanos(),
                s.app_time.as_nanos(),
                s.net_time.as_nanos(),
            );
        }
    }
    let _ = writeln!(out, "dropped {}", sim.collector().dropped_spans());
    out
}
