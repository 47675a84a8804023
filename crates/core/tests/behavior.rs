//! Focused behavioural tests of `dsb-core` mechanisms that the paper's
//! experiments depend on: load-balancing policies, concurrency models,
//! draining, span semantics, and runtime reconfiguration.

use std::sync::Arc;

use dsb_core::{
    AppBuilder, AppSpec, ClusterSpec, Concurrency, EndpointRef, LbPolicy, RequestType, ServiceId,
    Simulation, Step,
};
use dsb_simcore::{Dist, SimDuration, SimTime};
use dsb_uarch::ExecDomain;

fn one_service(
    workers: u32,
    instances: u32,
    lb: LbPolicy,
    concurrency: Concurrency,
    work_us: f64,
) -> (AppSpec, EndpointRef, ServiceId) {
    let mut app = AppBuilder::new("t");
    let mut b = app
        .service("svc")
        .workers(workers)
        .instances(instances)
        .lb(lb);
    b = match concurrency {
        Concurrency::Async => b.event_driven(),
        Concurrency::Blocking => b.blocking(),
    };
    let svc = b.build();
    let ep = app.endpoint(
        svc,
        "op",
        Dist::constant(256.0),
        vec![Step::Compute {
            ns: Dist::constant(work_us * 1000.0),
            domain: ExecDomain::User,
        }],
    );
    (app.build(), ep, svc)
}

fn cluster(n: u32) -> ClusterSpec {
    let mut c = ClusterSpec::xeon_cluster(n, 1);
    c.trace_sample_prob = 1.0;
    c
}

#[test]
fn least_outstanding_balances_heterogeneous_instances() {
    // Two instances, one on a slow machine: LeastOutstanding shifts load
    // away from the slow one, RoundRobin does not.
    let run = |lb: LbPolicy| {
        let (spec, ep, _svc) = one_service(4, 2, lb, Concurrency::Blocking, 500.0);
        let mut sim = Simulation::new(spec, cluster(2), 3);
        sim.set_frequency(dsb_core::MachineId(0), 0.6);
        for i in 0..3000u64 {
            sim.inject(SimTime::from_micros(i * 150), ep, RequestType(0), 64, i);
        }
        sim.run_until_idle();
        sim.request_stats(RequestType(0))
            .unwrap()
            .latency
            .quantile(0.99)
    };
    let rr = run(LbPolicy::RoundRobin);
    let lo = run(LbPolicy::LeastOutstanding);
    assert!(
        lo < rr,
        "least-outstanding p99 {lo} must beat round-robin {rr} with a slow instance"
    );
}

#[test]
fn event_driven_sustains_more_concurrency_than_blocking() {
    // A tier that waits 10ms on I/O per request: 4 blocking workers cap
    // concurrency at 4; event-driven releases the worker at the call.
    let build = |concurrency: Concurrency| {
        let mut app = AppBuilder::new("t");
        let io = app.service("io").workers(256).build();
        let io_ep = app.endpoint(
            io,
            "wait",
            Dist::constant(64.0),
            vec![Step::Io {
                ns: Dist::constant(10_000_000.0),
            }],
        );
        let mut b = app.service("front").workers(4);
        if concurrency == Concurrency::Async {
            b = b.event_driven();
        }
        let front = b.build();
        let ep = app.endpoint(
            front,
            "op",
            Dist::constant(64.0),
            vec![Step::work_us(10.0), Step::call(io_ep, 64.0)],
        );
        (app.build(), ep)
    };
    let run = |concurrency| {
        let (spec, ep) = build(concurrency);
        let mut sim = Simulation::new(spec, cluster(2), 4);
        for i in 0..200u64 {
            sim.inject(SimTime::from_micros(i * 100), ep, RequestType(0), 64, i);
        }
        sim.run_until_idle();
        sim.request_stats(RequestType(0))
            .unwrap()
            .latency
            .quantile(0.99)
    };
    let blocking = run(Concurrency::Blocking);
    let event_driven = run(Concurrency::Async);
    // 200 requests x 10ms over 4 blocking workers ~ 500ms of queueing;
    // event-driven overlaps them all.
    assert!(
        blocking > 5 * event_driven,
        "blocking {blocking} vs event-driven {event_driven}"
    );
}

#[test]
fn spans_record_queue_time_when_workers_are_busy() {
    let (spec, ep, svc) = one_service(1, 1, LbPolicy::RoundRobin, Concurrency::Blocking, 1000.0);
    let mut sim = Simulation::new(spec, cluster(1), 5);
    for i in 0..10u64 {
        sim.inject(SimTime::ZERO, ep, RequestType(0), 64, i);
    }
    sim.run_until_idle();
    let stats = sim.collector().service(svc.0).unwrap();
    assert_eq!(stats.spans, 10);
    // 10 x 1ms serialized through one worker: total queueing ~ 45ms.
    assert!(
        stats.queue_ns > 30_000_000,
        "queue time {} too small",
        stats.queue_ns
    );
    assert!(stats.app_ns > 9_000_000, "app time {}", stats.app_ns);
}

#[test]
fn partition_lb_serializes_a_hot_key() {
    let (spec, ep, _svc) = one_service(4, 4, LbPolicy::Partition, Concurrency::Blocking, 100.0);
    let mut sim = Simulation::new(spec, cluster(4), 6);
    // All requests share a key: with Partition they serialize on one
    // instance's 4 workers even though 16 workers exist.
    for i in 0..40u64 {
        sim.inject(SimTime::ZERO, ep, RequestType(0), 64, 777);
        let _ = i;
    }
    sim.run_until_idle();
    let p = sim.request_stats(RequestType(0)).unwrap().latency.max();
    assert!(p > 900_000, "partitioned hot key must serialize: max {p}");
}

#[test]
fn draining_instance_finishes_work_then_gets_no_more() {
    let (spec, ep, svc) = one_service(2, 2, LbPolicy::RoundRobin, Concurrency::Blocking, 2000.0);
    let mut sim = Simulation::new(spec, cluster(2), 7);
    for i in 0..20u64 {
        sim.inject(SimTime::from_micros(i * 100), ep, RequestType(0), 64, i);
    }
    sim.advance_to(SimTime::from_millis(5));
    let victim = sim.instances_of(svc)[0];
    sim.retire_instance(victim);
    for i in 0..20u64 {
        sim.inject(
            sim.now() + SimDuration::from_micros(i * 100),
            ep,
            RequestType(0),
            64,
            i,
        );
    }
    sim.run_until_idle();
    let st = sim.request_stats(RequestType(0)).unwrap();
    assert_eq!(st.issued, 40);
    assert_eq!(st.completed, 40, "draining must not lose requests");
}

#[test]
fn branch_nesting_depth_is_handled() {
    // Deeply nested branches exercise the interpreter's frame stack.
    let mut app = AppBuilder::new("deep");
    let svc = app.service("svc").workers(4).build();
    let mut steps = vec![Step::work_us(1.0)];
    for _ in 0..30 {
        steps = vec![Step::Branch {
            p: 1.0,
            then: Arc::new(steps),
            els: Arc::new(vec![]),
        }];
    }
    let ep = app.endpoint(svc, "op", Dist::constant(64.0), steps);
    let mut sim = Simulation::new(app.build(), cluster(1), 8);
    sim.inject(SimTime::ZERO, ep, RequestType(0), 64, 1);
    sim.run_until_idle();
    assert_eq!(sim.request_stats(RequestType(0)).unwrap().completed, 1);
}

#[test]
fn response_sizes_affect_latency_via_nic_and_processing() {
    let run = |resp_bytes: f64| {
        let mut app = AppBuilder::new("t");
        let svc = app.service("svc").workers(8).build();
        let ep = app.endpoint(
            svc,
            "op",
            Dist::constant(resp_bytes),
            vec![Step::work_us(10.0)],
        );
        let mut sim = Simulation::new(app.build(), cluster(1), 10);
        for i in 0..50u64 {
            sim.inject(SimTime::from_millis(i), ep, RequestType(0), 64, i);
        }
        sim.run_until_idle();
        sim.request_stats(RequestType(0)).unwrap().latency.mean()
    };
    let small = run(256.0);
    let large = run(8.0 * 1024.0 * 1024.0); // 8 MB responses
    assert!(
        large > small + 5_000_000.0,
        "8MB responses must add transfer time: {small} vs {large}"
    );
}
