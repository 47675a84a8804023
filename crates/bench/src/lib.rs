//! # dsb-bench — perf-baseline kernels
//!
//! Two fixed-size simulation kernels and the `dsb-bench` binary that
//! times them against the committed `BENCH_0.json` (the fig17 two-tier
//! kernel, [`mini_run_completed`]) and `BENCH_1.json` (the sharded
//! [`fig22_kernel`]). The layered host-time benchmark in `perfsuite/`
//! reuses [`fig22_kernel`].
//!
//! The *scientific* outputs live in `dsb-experiments`; these kernels
//! measure the simulator's own speed.

#![warn(missing_docs)]

use dsb_apps::BuiltApp;
use dsb_core::{RequestType, Simulation};
use dsb_experiments::harness::totals;
use dsb_simcore::SimTime;
use dsb_workload::{OpenLoop, UserPopulation};

/// Runs `app` for `secs` virtual seconds at `qps` on a small cluster and
/// returns `(events, completed)`: the simulation events processed (the
/// work metric) and total completions (sanity check).
pub fn mini_run_completed(app: &BuiltApp, qps: f64, secs: u64, seed: u64) -> (u64, u64) {
    let mut cluster = dsb_experiments::harness::make_cluster(4);
    cluster.trace_sample_prob = 0.0;
    let mut sim = Simulation::new(app.spec.clone(), cluster, seed);
    let mut load = OpenLoop::new(app.mix.clone(), UserPopulation::uniform(200), seed);
    load.drive(&mut sim, SimTime::ZERO, SimTime::from_secs(secs), qps);
    sim.run_until_idle();
    (sim.events_processed(), totals(&sim).1)
}

/// The fig22-style parallel kernel: a multi-rack cluster crunching long
/// compute chunked into fine preemption quanta — the event-dense shape
/// the sharded engine exists for (Fig. 22's tail-at-scale runs are this
/// workload at 10⁶-user scale).
///
/// Tuning notes, because every knob here serves the bench:
/// * `cpu_quantum = 0.5 µs` over 400 µs endpoints makes ~800 cheap
///   timeslice events per request, so the metric measures the engine's
///   event loop, not model bookkeeping;
/// * the fabric latencies are enlarged (ms-scale) so the epoch window is
///   fat and epoch barriers are rare — the regime a real multi-machine
///   deployment's 100 µs+ RPC delays put it in. The cruncher makes no
///   calls, so its only cross-shard hops are injections and client
///   replies, and the window is the 4 ms floor of the 20 ms client link
///   (see `Simulation::lookahead_ns`);
/// * 16 instances spread over all 8 machines keep every shard busy
///   inside each epoch.
pub fn fig22_kernel() -> (BuiltApp, dsb_core::ClusterSpec) {
    use dsb_core::{AppBuilder, Step};
    use dsb_simcore::{Dist, SimDuration};

    let mut app = AppBuilder::new("fig22-cruncher");
    let svc = app
        .service("cruncher")
        .profile(dsb_uarch::UarchProfile::memcached())
        .event_driven()
        .workers(32)
        .instances(16)
        .build();
    let crunch = app.endpoint(
        svc,
        "crunch",
        Dist::log_normal(512.0, 0.3),
        vec![Step::work_us(400.0)],
    );
    let spec = app.build();
    let built = BuiltApp {
        mix: dsb_workload::QueryMix::single(crunch, RequestType(0), 256.0),
        qos_p99: SimDuration::from_millis(50),
        order: vec![svc],
        frontend: svc,
        spec,
    };

    let mut cluster = dsb_core::ClusterSpec::xeon_cluster(8, 2);
    cluster.trace_sample_prob = 0.0;
    cluster.cpu_quantum = SimDuration::from_nanos(500);
    cluster.fabric.intra_rack_ns = 10_000_000;
    cluster.fabric.cross_rack_ns = 15_000_000;
    cluster.fabric.client_ns = 20_000_000;
    (built, cluster)
}

/// Runs the fig22 kernel for `secs` virtual seconds under `workers`
/// threads; returns `(events, completed)`. Identical across worker
/// counts by the parallel-conformance contract.
pub fn fig22_run(workers: usize, qps: f64, secs: u64, seed: u64) -> (u64, u64) {
    let (app, cluster) = fig22_kernel();
    let mut sim = Simulation::new(app.spec.clone(), cluster, seed);
    sim.set_workers(workers);
    let mut load = OpenLoop::new(app.mix.clone(), UserPopulation::uniform(200), seed);
    load.drive(&mut sim, SimTime::ZERO, SimTime::from_secs(secs), qps);
    sim.run_until_idle();
    (sim.events_processed(), totals(&sim).1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig22_kernel_is_event_dense_and_worker_invariant() {
        let serial = fig22_run(1, 400.0, 1, 7);
        assert!(serial.0 > 100_000, "events {serial:?}");
        assert!(serial.1 > 300, "completions {serial:?}");
        assert_eq!(serial, fig22_run(4, 400.0, 1, 7));
    }

    #[test]
    fn mini_run_does_work() {
        let app = dsb_apps::singles::memcached();
        let (events, completed) = mini_run_completed(&app, 500.0, 2, 1);
        assert!(events > 1_000);
        assert!(completed > 500);
    }
}
