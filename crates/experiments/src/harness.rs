//! Shared experiment machinery: cluster construction, sliced load driving,
//! warmup-aware quantiles, provisioning, and goodput (max-QPS-under-QoS)
//! search.

use dsb_apps::BuiltApp;
use dsb_core::{ClusterSpec, MachineSpec, RequestType, ServiceId, Simulation};
use dsb_simcore::{Histogram, SimDuration, SimTime};
use dsb_workload::{OpenLoop, UserPopulation};

/// A datacenter of `n_xeon` servers across two racks, plus the 24 drone
/// edge devices (needed by the Swarm apps; harmless otherwise).
pub fn make_cluster(n_xeon: u32) -> ClusterSpec {
    let mut c = ClusterSpec::xeon_cluster(n_xeon, 2);
    for _ in 0..24 {
        c.machines.push(MachineSpec::edge_device());
    }
    c.trace_sample_prob = 0.002;
    c
}

/// Like [`make_cluster`] but with Cavium ThunderX servers.
pub fn make_thunderx_cluster(n: u32) -> ClusterSpec {
    let mut c = make_cluster(n);
    for m in &mut c.machines {
        if matches!(m.zone, dsb_net::Zone::Rack(_)) {
            *m = MachineSpec::thunderx_server(match m.zone {
                dsb_net::Zone::Rack(r) => r,
                _ => 0,
            });
        }
    }
    c
}

/// Builds a simulation plus an open-loop generator for the app's mix.
pub fn build_sim(app: &BuiltApp, cluster: ClusterSpec, seed: u64) -> (Simulation, OpenLoop) {
    build_sim_with_users(app, cluster, seed, UserPopulation::uniform(1000))
}

/// [`build_sim`] with a custom user population (skew experiments).
pub fn build_sim_with_users(
    app: &BuiltApp,
    cluster: ClusterSpec,
    seed: u64,
    users: UserPopulation,
) -> (Simulation, OpenLoop) {
    let sim = Simulation::new(app.spec.clone(), cluster, seed);
    let load = OpenLoop::new(app.mix.clone(), users, seed ^ 0xFEED);
    (sim, load)
}

/// Drives `qps` of the app's mix over `[from_s, to_s)` in one-second
/// slices (injection happens just-in-time, so controllers can react).
pub fn drive(sim: &mut Simulation, load: &mut OpenLoop, from_s: u64, to_s: u64, qps: f64) {
    drive_ticked(sim, load, from_s, to_s, |_| qps, &mut |_, _| {});
}

/// [`drive`] with a time-varying rate and a per-second controller tick.
pub fn drive_ticked(
    sim: &mut Simulation,
    load: &mut OpenLoop,
    from_s: u64,
    to_s: u64,
    qps: impl Fn(SimTime) -> f64,
    tick: &mut dyn FnMut(&mut Simulation, u64),
) {
    for s in from_s..to_s {
        let a = SimTime::from_secs(s);
        let b = SimTime::from_secs(s + 1);
        load.drive_fn(sim, a, b, &qps);
        sim.advance_to(b);
        tick(sim, s);
    }
}

/// Merges end-to-end latency across all request types over windows
/// `[from_s, to_s)` (seconds == windows at the default 1 s width).
pub fn merged_latency(sim: &Simulation, from_s: u64, to_s: u64) -> Histogram {
    let mut h = Histogram::compact();
    for t in 0..sim.request_type_count() as u32 {
        if let Some(st) = sim.request_stats(RequestType(t)) {
            h.merge(&st.windows.merged_range(from_s as usize, to_s as usize));
        }
    }
    h
}

/// The merged p99 over `[from_s, to_s)`.
pub fn merged_p99(sim: &Simulation, from_s: u64, to_s: u64) -> SimDuration {
    merged_latency(sim, from_s, to_s).quantile_duration(0.99)
}

/// `(issued, completed, rejected)` across all request types.
pub fn totals(sim: &Simulation) -> (u64, u64, u64) {
    let mut t = (0, 0, 0);
    for i in 0..sim.request_type_count() as u32 {
        if let Some(st) = sim.request_stats(RequestType(i)) {
            t.0 += st.issued;
            t.1 += st.completed;
            t.2 += st.rejected;
        }
    }
    t
}

/// Runs the §3.8 provisioning methodology on a scratch simulation and
/// returns the per-service instance counts it converged to.
pub fn provision_counts(
    app: &BuiltApp,
    cluster: &ClusterSpec,
    qps: f64,
    seed: u64,
) -> Vec<(ServiceId, usize)> {
    let (mut sim, mut load) = build_sim(app, cluster.clone(), seed);
    let services: Vec<ServiceId> = (0..app.spec.service_count())
        .map(|i| ServiceId(i as u32))
        .collect();
    dsb_cluster::provision(
        &mut sim,
        |sim, from, to| {
            load.drive_fn(sim, from, to, |_| qps);
        },
        &services,
        0.7,
        SimDuration::from_secs(3),
        8,
    );
    services
        .iter()
        .map(|&s| (s, sim.instance_count(s)))
        .collect()
}

/// Applies provisioned instance counts to a fresh simulation.
pub fn apply_counts(sim: &mut Simulation, counts: &[(ServiceId, usize)]) {
    for &(svc, n) in counts {
        dsb_cluster::scale_to(sim, svc, n);
    }
}

/// Returns a copy of `app` with every fixed worker pool divided by
/// `factor` (min 1). Latency at low load is unchanged, but capacity drops
/// proportionally — the standard trick to keep goodput searches and
/// overload experiments cheap while preserving who-saturates-first shapes.
pub fn shrink(app: &BuiltApp, factor: u32) -> BuiltApp {
    let mut out = app.clone();
    for svc in &mut out.spec.services {
        if let dsb_core::WorkerPolicy::Fixed(n) = svc.workers {
            svc.workers = dsb_core::WorkerPolicy::Fixed((n / factor).max(1));
        }
        svc.conn_limit = (svc.conn_limit / factor).max(1);
    }
    out
}

/// Outcome of one saturation probe.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    /// Offered load.
    pub qps: f64,
    /// Steady-state p99 (warmup excluded).
    pub p99: SimDuration,
    /// Completed / issued.
    pub completion: f64,
}

/// Runs the app at `qps` for `secs` seconds (first `warmup` excluded from
/// quantiles) with an arbitrary pre-run setup hook.
pub fn probe(
    app: &BuiltApp,
    cluster: &ClusterSpec,
    setup: &dyn Fn(&mut Simulation),
    qps: f64,
    secs: u64,
    warmup: u64,
    seed: u64,
) -> Probe {
    let (mut sim, mut load) = build_sim(app, cluster.clone(), seed);
    setup(&mut sim);
    drive(&mut sim, &mut load, 0, secs, qps);
    // Cool-down: let in-flight requests finish so the completion check
    // measures saturation backlogs, not the probe's edge (requests that
    // legitimately take seconds would otherwise read as "lost").
    sim.advance_to(SimTime::from_secs(secs + 3));
    let (issued, completed, _) = totals(&sim);
    Probe {
        qps,
        p99: merged_p99(&sim, warmup, secs),
        completion: if issued == 0 {
            0.0
        } else {
            completed as f64 / issued as f64
        },
    }
}

/// Finds the maximum sustainable QPS for which the steady-state p99 meets
/// `qos` and ≥ 95 % of requests complete within the run: geometric ramp-up
/// followed by a binary search. This is the paper's "max QPS at QoS"
/// goodput metric (Figs. 13, 22b, 22c).
pub fn max_qps_under_qos(
    app: &BuiltApp,
    cluster: &ClusterSpec,
    setup: &dyn Fn(&mut Simulation),
    qos: SimDuration,
    secs: u64,
    seed: u64,
) -> f64 {
    max_qps_under_qos_probes(app, cluster, setup, qos, secs, seed, 5)
}

/// [`max_qps_under_qos`] with an explicit bisection count. Each
/// bisection probe simulates `secs + 3` seconds near saturation — the
/// most expensive probes of the search — so quick-scale callers trade
/// goodput precision for wall time by passing 3 instead of the
/// default 5.
pub fn max_qps_under_qos_probes(
    app: &BuiltApp,
    cluster: &ClusterSpec,
    setup: &dyn Fn(&mut Simulation),
    qos: SimDuration,
    secs: u64,
    seed: u64,
    bisections: u32,
) -> f64 {
    let warmup = (secs / 3).max(1);
    let ok = |p: &Probe| p.p99 <= qos && p.completion >= 0.95;
    let mut lo = 0.0f64;
    let mut qps = 25.0f64;
    let mut hi = None;
    for _ in 0..10 {
        let p = probe(app, cluster, setup, qps, secs, warmup, seed);
        if ok(&p) {
            lo = qps;
            qps *= 4.0;
        } else {
            hi = Some(qps);
            break;
        }
    }
    let Some(mut hi) = hi else {
        return lo;
    };
    if lo == 0.0 {
        // Even the smallest probe violates QoS.
        return 0.0;
    }
    for _ in 0..bisections {
        let mid = (lo + hi) / 2.0;
        let p = probe(app, cluster, setup, mid, secs, warmup, seed);
        if ok(&p) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsb_apps::singles;

    #[test]
    fn drive_and_measure() {
        let app = singles::memcached();
        let (mut sim, mut load) = build_sim(&app, make_cluster(2), 1);
        drive(&mut sim, &mut load, 0, 4, 500.0);
        sim.run_until_idle();
        let (issued, completed, _) = totals(&sim);
        assert!(issued > 1500);
        assert_eq!(issued, completed);
        let p99 = merged_p99(&sim, 1, 4);
        assert!(p99 > SimDuration::from_micros(100));
        assert!(p99 < SimDuration::from_millis(5));
    }

    #[test]
    fn goodput_search_finds_saturation() {
        let app = singles::xapian();
        let cluster = make_cluster(2);
        let qps = max_qps_under_qos(&app, &cluster, &|_| {}, SimDuration::from_millis(4), 4, 7);
        // 16 workers x ~600us -> capacity around 26k/s; QoS binds earlier.
        assert!(qps > 100.0, "goodput {qps}");
        assert!(qps < 200_000.0, "goodput {qps}");
        // A slower platform yields lower goodput.
        let slow = max_qps_under_qos(
            &app,
            &cluster,
            &|sim| sim.set_all_frequencies(1.0),
            SimDuration::from_millis(4),
            4,
            7,
        );
        assert!(slow < qps, "slow {slow} vs fast {qps}");
    }

    #[test]
    fn provisioning_counts_apply() {
        let app = dsb_apps::twotier::twotier(8, 1024);
        let cluster = make_cluster(4);
        let counts = provision_counts(&app, &cluster, 12_000.0, 3);
        let (mut sim, _) = build_sim(&app, cluster, 3);
        apply_counts(&mut sim, &counts);
        for &(svc, n) in &counts {
            assert!(sim.instance_count(svc) >= n.min(1));
        }
    }
}
