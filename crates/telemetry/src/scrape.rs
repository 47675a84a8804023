//! The scraper: polls a simulation's read-only telemetry hooks at a
//! fixed sim-time interval and feeds the registry.

use dsb_core::{MachineId, RequestType, ServiceId, Simulation};
use dsb_simcore::{SimDuration, SimTime};

use crate::registry::{names, Kind, Labels, Registry};
use crate::slo::Slo;

/// Scrapes a [`Simulation`] every `interval` of virtual time.
///
/// Drive it from a controller tick: [`Scraper::tick`] performs one scrape
/// per elapsed interval since the last call, so any tick cadence at least
/// as fine as the interval yields exactly one scrape per window. Samples
/// are stamped at the *midpoint* of the window they summarize, so window
/// `k` of every registry series describes sim-time
/// `[k·interval, (k+1)·interval)`.
///
/// Scraping only calls `&Simulation` getters — it cannot advance time,
/// touch the RNG, or reorder events, so a run with a scraper attached is
/// byte-identical to one without.
#[derive(Debug)]
pub struct Scraper {
    interval: SimDuration,
    scrapes: usize,
    registry: Registry,
    slos: Vec<Slo>,
}

impl Scraper {
    /// Creates a scraper with the given interval (also the registry's
    /// window width).
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn new(interval: SimDuration) -> Self {
        assert!(interval > SimDuration::ZERO, "interval must be positive");
        Scraper {
            interval,
            scrapes: 0,
            registry: Registry::new(interval),
            slos: Vec::new(),
        }
    }

    /// Registers an SLO: each scrape additionally records the
    /// `slo_total` / `slo_good` counters its burn-rate evaluation needs.
    pub fn with_slo(mut self, slo: Slo) -> Self {
        self.slos.push(slo);
        self
    }

    /// The scrape interval.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// The registered SLOs.
    pub fn slos(&self) -> &[Slo] {
        &self.slos
    }

    /// Completed scrapes (== complete registry windows).
    pub fn scrapes(&self) -> usize {
        self.scrapes
    }

    /// The collected metrics.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Scrapes once per interval window that has fully elapsed by `now` —
    /// the controller's tick time (e.g. the `advance_to` horizon; the
    /// scheduler's own clock stops at the last processed event, which can
    /// sit short of the horizon). Call from a periodic controller tick.
    pub fn tick(&mut self, sim: &Simulation, now: SimTime) {
        while self.interval * (self.scrapes as u64 + 1) <= now.since(SimTime::ZERO) {
            self.scrape_window(sim);
        }
    }

    /// One final scrape covering everything since the last tick. Call
    /// once after `run_until_idle`: drain completions land in a single
    /// trailing window (stamped as window `scrapes()`), instead of
    /// smearing empty windows out to the idle timestamp.
    pub fn flush(&mut self, sim: &Simulation) {
        if sim.now().since(SimTime::ZERO) > self.interval * self.scrapes as u64 {
            self.scrape_window(sim);
        }
    }

    fn scrape_window(&mut self, sim: &Simulation) {
        let k = self.scrapes as u64;
        let stamp = SimTime::ZERO + self.interval * k + self.interval / 2;
        let reg = &mut self.registry;

        for i in 0..sim.app().service_count() {
            let sid = ServiceId(i as u32);
            let l = Labels::service(i as u32);
            reg.gauge(names::QUEUE_DEPTH, l, stamp, sim.service_queue_depth(sid));
            reg.gauge(names::INFLIGHT, l, stamp, sim.service_inflight(sid));
            let occ = (sim.occupancy(sid) * 1000.0).round() as u64;
            reg.gauge(names::OCCUPANCY_PERMILLE, l, stamp, occ);
            reg.gauge(names::INSTANCES, l, stamp, sim.instance_count(sid) as u64);
            let st = sim.service_stats(sid);
            reg.counter(names::INVOCATIONS, l, stamp, st.invocations);
            reg.counter(names::DROPPED, l, stamp, st.dropped);
            let misses = st.refill_misses;
            fault_series(reg, Kind::Counter, names::REFILL_MISSES, l, stamp, misses);
            for t in sim.conn_pool_targets(sid) {
                if let Some(p) = sim.conn_pool(sid, t) {
                    let lt = l.with_target(t.0);
                    reg.gauge(names::CONN_IN_USE, lt, stamp, p.in_use);
                    reg.gauge(names::CONN_LIMIT, lt, stamp, p.limit);
                    reg.gauge(names::CONN_WAITERS, lt, stamp, p.waiters);
                }
            }
            // Span-latency timelines align with collector windows only
            // when the scrape interval matches the collector's width.
            if let Some(ts) = sim.collector().service(i as u32) {
                if ts.latency_windows.window() == self.interval {
                    let w = self.scrapes;
                    let p99 = ts.latency_windows.quantile(w, 0.99);
                    reg.gauge(names::SPAN_P99_NS, l, stamp, p99);
                    let mean = ts.latency_windows.mean(w) as u64;
                    reg.gauge(names::SPAN_MEAN_NS, l, stamp, mean);
                }
            }
        }

        for m in 0..sim.machine_count() {
            let mid = MachineId(m as u32);
            let lm = Labels::machine(m as u32);
            reg.gauge(
                names::BUSY_CORES,
                lm,
                stamp,
                sim.machine_busy_cores(mid) as u64,
            );
            reg.gauge(
                names::RUN_QUEUE,
                lm,
                stamp,
                sim.machine_run_queue(mid) as u64,
            );
            reg.gauge(names::CORES, lm, stamp, sim.machine_cores(mid) as u64);
        }

        for r in 0..sim.request_type_count() {
            if let Some(rs) = sim.request_stats(RequestType(r as u32)) {
                let lr = Labels::rtype(r as u32);
                reg.counter(names::ISSUED, lr, stamp, rs.issued);
                reg.counter(names::COMPLETED, lr, stamp, rs.completed);
                reg.counter(names::REJECTED, lr, stamp, rs.rejected);
                fault_series(reg, Kind::Counter, names::FAILED, lr, stamp, rs.failed);
            }
        }
        for slo in &self.slos {
            if let Some(rs) = sim.request_stats(slo.rtype) {
                let lr = Labels::rtype(slo.rtype.0);
                // Failed-fast requests never reach the latency histogram
                // but still burn the SLO: an error is as bad as a miss.
                let total = rs.latency.count() + rs.failed;
                let good = rs.latency.count_le(slo.latency.as_nanos());
                reg.counter(names::SLO_TOTAL, lr, stamp, total);
                reg.counter(names::SLO_GOOD, lr, stamp, good);
            }
        }
        // App-wide fault state, label-less.
        let l = Labels::default();
        let down = sim.instances_down();
        fault_series(reg, Kind::Gauge, names::INSTANCES_DOWN, l, stamp, down);
        let edges = sim.partition_edges();
        fault_series(reg, Kind::Gauge, names::PARTITION_EDGES, l, stamp, edges);
        self.scrapes += 1;
    }
}

/// Records a fault series: silent until its first nonzero value, so
/// fault-free runs carry none, then recorded every window (zeros
/// included) so recovery is visible.
fn fault_series(
    reg: &mut Registry,
    kind: Kind,
    name: &'static str,
    labels: Labels,
    at: SimTime,
    value: u64,
) {
    if value == 0 && reg.window_count(name, &labels) == 0 {
        return;
    }
    match kind {
        Kind::Counter => reg.counter(name, labels, at, value),
        Kind::Gauge => reg.gauge(name, labels, at, value),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsb_core::{AppBuilder, ClusterSpec, EndpointRef, Step};
    use dsb_simcore::Dist;

    fn tiny() -> (Simulation, EndpointRef) {
        let mut app = AppBuilder::new("t");
        let b = app.service("leaf").workers(4).build();
        let get = app.endpoint(b, "get", Dist::constant(200.0), vec![Step::work_us(50.0)]);
        let a = app.service("front").workers(4).build();
        let root = app.endpoint(
            a,
            "root",
            Dist::constant(200.0),
            vec![Step::work_us(20.0), Step::call(get, 64.0)],
        );
        let spec = app.build();
        let cluster = ClusterSpec::xeon_cluster(2, 1);
        (Simulation::new(spec, cluster, 7), root)
    }

    #[test]
    fn tick_scrapes_once_per_elapsed_window() {
        let (mut sim, root) = tiny();
        for j in 0..100u64 {
            sim.inject(SimTime::from_millis(j * 10), root, RequestType(0), 128, j);
        }
        let mut scr = Scraper::new(SimDuration::from_millis(250));
        for step in 1..=4u64 {
            let t = SimTime::from_millis(step * 250);
            sim.advance_to(t);
            scr.tick(&sim, t);
        }
        assert_eq!(scr.scrapes(), 4);
        // Irregular later tick still lands one scrape per window.
        sim.advance_to(SimTime::from_millis(1750));
        scr.tick(&sim, SimTime::from_millis(1750));
        assert_eq!(scr.scrapes(), 7);
        let reg = scr.registry();
        let front = Labels::service(1);
        // All 100 invocations accounted across windows.
        let total: u64 = (0..reg.windows())
            .map(|w| reg.window_sum(names::INVOCATIONS, &front, w))
            .sum();
        assert_eq!(total, 100);
        // Machine gauges present.
        assert_eq!(reg.window_mean(names::CORES, &Labels::machine(0), 0), 40.0);
    }

    #[test]
    fn scraping_does_not_perturb_the_run() {
        let run = |scrape: bool| {
            let (mut sim, root) = tiny();
            for j in 0..200u64 {
                sim.inject(SimTime::from_millis(j * 5), root, RequestType(0), 128, j);
            }
            let mut scr = Scraper::new(SimDuration::from_millis(100));
            for step in 1..=12u64 {
                let t = SimTime::from_millis(step * 100);
                sim.advance_to(t);
                if scrape {
                    scr.tick(&sim, t);
                }
            }
            sim.run_until_idle();
            (
                sim.events_processed(),
                sim.request_stats(RequestType(0))
                    .unwrap()
                    .latency
                    .quantile(0.99),
            )
        };
        assert_eq!(run(true), run(false));
    }

    /// Mid-run topology churn: a scale-up joins and the leaf's machine
    /// crashes between scrapes. Every scrape must report the instance
    /// count the simulation holds at that instant — and keep working
    /// when a conn-pool target it reported last window has vanished.
    #[test]
    fn scrapes_track_mid_run_topology_changes() {
        use dsb_core::{ChaosEvent, ChaosPlan, ServiceId};
        use dsb_net::Protocol;

        let mut app = AppBuilder::new("t");
        let b = app
            .service("leaf")
            .workers(4)
            .protocol(Protocol::Http1)
            .conn_limit(8)
            .build();
        let get = app.endpoint(b, "get", Dist::constant(200.0), vec![Step::work_us(50.0)]);
        let a = app
            .service("front")
            .workers(4)
            .protocol(Protocol::Http1)
            .build();
        let root = app.endpoint(
            a,
            "root",
            Dist::constant(200.0),
            vec![Step::work_us(20.0), Step::call(get, 64.0)],
        );
        let mut cluster = ClusterSpec::xeon_cluster(2, 1);
        // Default provisioning lag (8 s) outlasts this 2 s run.
        cluster.instance_startup = SimDuration::from_millis(500);
        let mut sim = Simulation::new(app.build(), cluster, 7);
        let leaf = ServiceId(0);
        for j in 0..400u64 {
            sim.inject(SimTime::from_millis(j * 5), root, RequestType(0), 128, j);
        }
        // The leaf's machine dies at 500 ms and restarts 300 ms later.
        let machine = sim.instance_machine(sim.instances_of(leaf)[0]);
        sim.install_chaos(&ChaosPlan {
            seed: 3,
            events: vec![ChaosEvent::MachineCrash {
                machine,
                at: SimTime::from_millis(500),
                restart_after: SimDuration::from_millis(300),
                cold_for: SimDuration::ZERO,
            }],
        });
        let mut scr = Scraper::new(SimDuration::from_millis(250));
        let mut expect = Vec::new();
        for step in 1..=8u64 {
            let t = SimTime::from_millis(step * 250);
            sim.advance_to(t);
            if step == 2 {
                // Scale-up racing the crash: joins after startup delay.
                sim.add_instance(leaf);
            }
            scr.tick(&sim, t);
            expect.push(sim.instance_count(leaf) as u64);
        }
        sim.run_until_idle();
        let reg = scr.registry();
        let l = Labels::service(0);
        // Each window reports exactly the Up count at its scrape, through
        // both the join and the crash/restart.
        for (w, &e) in expect.iter().enumerate() {
            assert_eq!(
                reg.window_mean(names::INSTANCES, &l, w).round() as u64,
                e,
                "window {w}"
            );
        }
        assert!(
            expect.contains(&0),
            "the crash window must report zero Up leaf instances: {expect:?}"
        );
        assert!(
            *expect.last().unwrap() >= 2,
            "restart + scale-up must both be Up by the end: {expect:?}"
        );
        // The crash reached the app-wide fault gauge.
        let ld = Labels::default();
        assert!((0..expect.len()).any(|w| reg.window_mean(names::INSTANCES_DOWN, &ld, w) > 0.0));
    }

    #[test]
    fn slo_counters_recorded() {
        let (mut sim, root) = tiny();
        for j in 0..50u64 {
            sim.inject(SimTime::from_millis(j * 10), root, RequestType(0), 128, j);
        }
        let slo = Slo::p99(RequestType(0), SimDuration::from_millis(50));
        let mut scr = Scraper::new(SimDuration::from_millis(250)).with_slo(slo);
        sim.run_until_idle();
        scr.flush(&sim);
        let reg = scr.registry();
        let l = Labels::rtype(0);
        let total: u64 = (0..reg.windows())
            .map(|w| reg.window_sum(names::SLO_TOTAL, &l, w))
            .sum();
        assert_eq!(total, 50);
    }
}
