//! The four workloads and one instrumented run of each.
//!
//! A run calls only public APIs of the simulator's crates and times
//! those calls from here: `OpenLoop::drive_fn`, `Simulation::{new,
//! install_chaos, advance_to, run_until_idle}`, `Scraper::{tick, flush}`,
//! `report::{analyze, jsonl, top, alert_lines, detection_lines}` and
//! `detect::score`.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use dsb_apps::BuiltApp;
use dsb_core::{ChaosEvent, ChaosPlan, ClusterSpec, RequestType, ServiceId, Simulation};
use dsb_experiments::harness::make_cluster;
use dsb_simcore::{SimDuration, SimTime};
use dsb_telemetry::{report, BurnRule, Scraper};
use dsb_workload::{OpenLoop, UserPopulation};

use crate::digest::{conservation, fnv64, Digest};
use crate::trace::Tracer;

/// Set-ups per run. The last one is the run's own; `setup_s` is the
/// median of all of them, because one set-up (30-300 µs) is too short
/// to time alone.
const SETUP_REPEATS: usize = 51;

/// Open-loop users every workload draws from (uniformly).
const USERS: usize = 1000;

/// How long past a fault's end an alert still counts as caused by it.
const GRACE: SimDuration = SimDuration::from_millis(1500);

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Engine and dispatch hot path: no traces, no scraper.
    TwotierHot,
    /// The `dsb-report` pipeline on the 30-tier social network.
    SocialObserved,
    /// The only workload on the sharded epoch driver.
    Fig22Sharded,
    /// Fail-fast paths, chaos boundaries and 4 Hz scraping.
    TwotierChaos,
}

/// Every workload, in round order.
pub const ALL: [Workload; 4] = [
    Workload::TwotierHot,
    Workload::SocialObserved,
    Workload::Fig22Sharded,
    Workload::TwotierChaos,
];

/// Offered load and slicing of a workload.
struct Shape {
    qps: f64,
    sim_ms: u64,
    slice_ms: u64,
    scrape_ms: Option<u64>,
}

/// Host CPUs available to this process.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl Workload {
    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TwotierHot => "twotier_hot",
            Workload::SocialObserved => "social_observed",
            Workload::Fig22Sharded => "fig22_sharded",
            Workload::TwotierChaos => "twotier_chaos",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    fn shape(self) -> Shape {
        let (qps, sim_ms, slice_ms, scrape_ms) = match self {
            Workload::TwotierHot => (20_000.0, 80_000, 500, None),
            Workload::SocialObserved => (1_000.0, 120_000, 1_000, Some(1_000)),
            Workload::Fig22Sharded => (2_000.0, 30_000, 250, None),
            Workload::TwotierChaos => (20_000.0, 40_000, 250, Some(250)),
        };
        Shape {
            qps,
            sim_ms,
            slice_ms,
            scrape_ms,
        }
    }

    /// Simulated milliseconds of load in a full-size run.
    pub fn default_sim_ms(self) -> u64 {
        self.shape().sim_ms
    }

    /// Worker threads the workload runs on: only `fig22_sharded` uses
    /// the epoch driver, at up to two threads.
    pub fn workers(self) -> usize {
        match self {
            Workload::Fig22Sharded => host_cpus().min(2),
            _ => 1,
        }
    }

    fn build(self) -> (BuiltApp, ClusterSpec) {
        let cluster = |machines: u32, sampling: f64| {
            let mut c = make_cluster(machines);
            c.trace_sample_prob = sampling;
            c
        };
        match self {
            Workload::TwotierHot => (dsb_apps::twotier::twotier(64, 1024), cluster(4, 0.0)),
            Workload::SocialObserved => (dsb_apps::social::social_network(), cluster(8, 0.05)),
            Workload::Fig22Sharded => dsb_bench::fig22_kernel(),
            Workload::TwotierChaos => (dsb_apps::twotier::twotier(64, 8), cluster(8, 0.05)),
        }
    }
}

/// The cyclic fault plan of `twotier_chaos`. Every 5 s from t = 2 s, the
/// next of: memcached's machine crashes (1 s down, 500 ms cold), the
/// nginx-memcached link is cut (1.5 s, 10 ms timeout), memcached's NIC
/// slows 400x (2 s). A fault starts only if its whole 5 s period fits
/// before `horizon`, so the full 40 s run holds seven.
fn chaos_plan(app: &BuiltApp, sim: &Simulation, seed: u64, horizon: SimTime) -> ChaosPlan {
    let machine_of = |svc| sim.instance_machine(sim.instances_of(svc)[0]);
    let nginx = machine_of(app.service("nginx"));
    let mc = machine_of(app.service("memcached"));
    let ms = SimDuration::from_millis;
    let mut events = Vec::new();
    for k in 0u64.. {
        let at = SimTime::from_millis(2_000 + 5_000 * k);
        if at + ms(5_000) > horizon {
            break;
        }
        events.push(match k % 3 {
            0 => ChaosEvent::MachineCrash {
                machine: mc,
                at,
                restart_after: ms(1_000),
                cold_for: ms(500),
            },
            1 => ChaosEvent::Partition {
                a: vec![nginx],
                b: vec![mc],
                from: at,
                until: at + ms(1_500),
                timeout: ms(10),
            },
            _ => ChaosEvent::NicDegrade {
                machines: vec![mc],
                factor: 400.0,
                from: at,
                until: at + ms(2_000),
            },
        });
    }
    ChaosPlan { seed, events }
}

/// What one run does.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Seed of the simulation, the load generator and the fault plan.
    pub seed: u64,
    /// Simulated milliseconds of load (a multiple of the slice).
    pub sim_ms: u64,
    /// Worker threads of the simulation.
    pub workers: usize,
    /// Record spans and per-layer metrics.
    pub traced: bool,
}

impl RunConfig {
    /// The workload's full-size run at its own worker count, untraced.
    pub fn new(workload: Workload, seed: u64) -> Self {
        RunConfig {
            workload,
            seed,
            sim_ms: workload.default_sim_ms(),
            workers: workload.workers(),
            traced: false,
        }
    }
}

/// The measurements of one run.
#[derive(Debug)]
pub struct RunResult {
    /// Host seconds from the run's own set-up to its last report byte.
    pub wall_s: f64,
    /// Host seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Host milliseconds of each control slice (drive + advance + scrape).
    pub tick_ms: Vec<f64>,
    /// Deterministic counts and report hashes.
    pub digest: Digest,
    /// Detection precision and recall, for runs with a fault plan.
    pub detection: Option<(f64, f64)>,
    /// Per-layer metrics `(name, value, unit)`; empty unless traced.
    pub layers: Vec<(&'static str, f64, &'static str)>,
    /// The recorded spans; empty unless traced.
    pub tracer: Tracer,
}

impl RunResult {
    /// Simulated requests completed per host second.
    pub fn sim_req_per_s(&self) -> f64 {
        self.digest["completed"] as f64 / self.wall_s
    }

    /// Simulated (failed + rejected) ÷ issued.
    pub fn failed_frac(&self) -> f64 {
        let d = &self.digest;
        (d["failed"] + d["rejected"]) as f64 / d["issued"] as f64
    }

    /// Violations of the checks that hold at every seed: conservation,
    /// and perfect detection of every injected fault.
    pub fn problems(&self, workload: Workload) -> Vec<String> {
        let mut out: Vec<String> = conservation(workload.name(), &self.digest)
            .into_iter()
            .collect();
        if let Some((p, r)) = self.detection {
            if p != 1.0 || r != 1.0 {
                out.push(format!(
                    "detection {}: precision {p} recall {r}, both must be 1",
                    workload.name()
                ));
            }
        }
        out
    }
}

struct Setup {
    sim: Simulation,
    load: OpenLoop,
    scraper: Option<Scraper>,
}

fn setup(cfg: &RunConfig, tr: &mut Tracer) -> Setup {
    let w = cfg.workload;
    let (app, cluster) = tr.span("apps.build", || w.build());
    let mut sim = tr.span("core.new", || {
        let mut sim = Simulation::new(app.spec.clone(), cluster, cfg.seed);
        sim.set_workers(cfg.workers);
        sim
    });
    if w == Workload::TwotierChaos {
        tr.span("core.install_chaos", || {
            let horizon = SimTime::from_millis(cfg.sim_ms);
            sim.install_chaos(&chaos_plan(&app, &sim, cfg.seed, horizon));
        });
    }
    let scraper = w.shape().scrape_ms.map(|ms| {
        tr.span("telemetry.new", || {
            let s = Scraper::new(SimDuration::from_millis(ms));
            app.slos().into_iter().fold(s, Scraper::with_slo)
        })
    });
    let load = tr.span("workload.new", || {
        OpenLoop::new(
            app.mix.clone(),
            UserPopulation::uniform(USERS),
            cfg.seed ^ 0xFEED,
        )
    });
    Setup { sim, load, scraper }
}

/// Request and service statistics as text: the report of workloads
/// without a scraper, and a check on every workload that simulated
/// latencies, not just counts, are unchanged.
fn stats_summary(sim: &Simulation) -> String {
    let mut out = String::new();
    for r in 0..sim.request_type_count() {
        let Some(st) = sim.request_stats(RequestType(r as u32)) else {
            continue;
        };
        let q = |p| st.latency.quantile(p);
        let _ = writeln!(
            out,
            "rtype {r} issued {} completed {} failed {} rejected {} p50 {} p99 {} p999 {} max {}",
            st.issued,
            st.completed,
            st.failed,
            st.rejected,
            q(0.5),
            q(0.99),
            q(0.999),
            st.latency.max(),
        );
    }
    for (i, svc) in sim.app().services.iter().enumerate() {
        let s = sim.service_stats(ServiceId(i as u32));
        let _ = writeln!(
            out,
            "{} invocations {} dropped {} refill_misses {} busy_ns {:?}",
            svc.name,
            s.invocations,
            s.dropped,
            s.refill_misses,
            s.total_time_ns(),
        );
    }
    out
}

/// Runs one workload once in this process.
///
/// # Panics
///
/// Panics if `cfg.sim_ms` is not a positive multiple of the slice.
pub fn run(cfg: &RunConfig) -> RunResult {
    let w = cfg.workload;
    let shape = w.shape();
    assert!(
        cfg.sim_ms > 0 && cfg.sim_ms.is_multiple_of(shape.slice_ms),
        "{}: sim_ms {} is not a positive multiple of the {} ms slice",
        w.name(),
        cfg.sim_ms,
        shape.slice_ms
    );
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    for _ in 1..SETUP_REPEATS {
        let start = Instant::now();
        let discarded = black_box(setup(cfg, &mut Tracer::new(false)));
        setup_s.push(start.elapsed().as_secs_f64());
        drop(discarded);
    }

    let mut tr = Tracer::new(cfg.traced);
    let start = Instant::now();
    let Setup {
        mut sim,
        mut load,
        mut scraper,
    } = setup(cfg, &mut tr);
    setup_s.push(start.elapsed().as_secs_f64());

    let slice = SimDuration::from_millis(shape.slice_ms);
    let slices = cfg.sim_ms / shape.slice_ms;
    let mut tick_ms = Vec::with_capacity(slices as usize);
    let mut slice_events = Vec::new();
    for k in 0..slices {
        let (a, b) = (SimTime::ZERO + slice * k, SimTime::ZERO + slice * (k + 1));
        let t = Instant::now();
        tr.enter("slice");
        tr.span("workload.drive", || {
            load.drive_fn(&mut sim, a, b, |_| shape.qps)
        });
        let before = tr.enabled().then(|| sim.events_processed());
        tr.span("core.advance_to", || sim.advance_to(b));
        if let Some(e) = before {
            slice_events.push(sim.events_processed() - e);
        }
        if let Some(s) = scraper.as_mut() {
            tr.span("telemetry.scrape", || s.tick(&sim, b));
        }
        tr.exit();
        tick_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    tr.span("core.run_until_idle", || sim.run_until_idle());

    let mut reports: Vec<(&'static str, String)> = Vec::new();
    let (mut alerts, mut root_causes, mut detection) = (0, 0, None);
    if let Some(scraper) = scraper.as_mut() {
        tr.span("telemetry.scrape", || scraper.flush(&sim));
        let (al, causes) = tr.span("telemetry.analyze", || {
            report::analyze(&sim, scraper, &BurnRule::default())
        });
        let score = sim.chaos_plan().map(|plan| {
            tr.span("telemetry.score", || {
                dsb_telemetry::score(plan, scraper.interval(), &al, &causes, GRACE)
            })
        });
        tr.span("telemetry.render", || {
            reports.push(("jsonl", report::jsonl(&sim, scraper, &al, &causes)));
            match &score {
                Some(score) => {
                    reports.push(("alert_lines", report::alert_lines(&sim, &al, &causes)));
                    reports.push(("detection_lines", report::detection_lines(&sim, score)));
                }
                None => reports.push(("top", report::top(&sim, scraper, &al, &causes, w.name()))),
            }
        });
        (alerts, root_causes) = (al.len(), causes.len());
        detection = score.map(|s| (s.precision, s.recall));
    }
    let telemetry_bytes: usize = reports.iter().map(|(_, r)| r.len()).sum();
    let stats = tr.span("bench.digest", || stats_summary(&sim));
    reports.push(("stats", stats));
    let wall_s = start.elapsed().as_secs_f64();

    let mut digest = Digest::new();
    let (mut issued, mut completed, mut failed, mut rejected) = (0, 0, 0, 0);
    for r in 0..sim.request_type_count() {
        if let Some(st) = sim.request_stats(RequestType(r as u32)) {
            issued += st.issued;
            completed += st.completed;
            failed += st.failed;
            rejected += st.rejected;
        }
    }
    let sampled_traces = sim.collector().sampled_traces().count() as u64;
    let scrapes = scraper.as_ref().map_or(0, |s| s.scrapes() as u64);
    for (k, v) in [
        ("events", sim.events_processed()),
        ("issued", issued),
        ("completed", completed),
        ("failed", failed),
        ("rejected", rejected),
        ("sampled_traces", sampled_traces),
        ("scrapes", scrapes),
        ("alerts", alerts as u64),
    ] {
        digest.insert(k.to_string(), v);
    }
    for (name, text) in &reports {
        digest.insert(format!("fnv.{name}"), fnv64(text.as_bytes()));
    }

    let mut layers = Vec::new();
    if cfg.traced {
        let clone_start = Instant::now();
        black_box(sim.collector().clone());
        let clone_ms = clone_start.elapsed().as_secs_f64() * 1e3;
        let lt = tr.layer_times();
        let secs = |name: &str| lt.get(name).map_or(0.0, |l| l.total_ns as f64 / 1e9);
        let advance = tr.durations("core.advance_to");
        let per_event = |adv: &[u64], ev: &[u64]| {
            adv.iter().sum::<u64>() as f64 / ev.iter().sum::<u64>().max(1) as f64
        };
        let quarter = (advance.len() / 4).max(1);
        let tail = advance.len() - quarter;
        let q1 = per_event(&advance[..quarter], &slice_events[..quarter]);
        let q4 = per_event(&advance[tail..], &slice_events[tail..]);
        let self_ns: u64 = lt.values().map(|l| l.self_ns).sum();
        let events = sim.events_processed();
        let spans: usize = sim.collector().sampled_traces().map(|(_, s)| s.len()).sum();
        layers.extend([
            ("workload.drive_s", secs("workload.drive"), "s"),
            (
                "workload.ns_per_inject",
                secs("workload.drive") * 1e9 / issued.max(1) as f64,
                "ns",
            ),
            ("core.setup_s", secs("core.new"), "s"),
            ("core.advance_s", secs("core.advance_to"), "s"),
            (
                "core.advance_ns_per_event",
                per_event(&advance, &slice_events),
                "ns",
            ),
            ("core.advance_ns_per_event_q1", q1, "ns"),
            ("core.advance_ns_per_event_q4", q4, "ns"),
            ("core.advance_growth", q4 / q1, "ratio"),
            ("core.drain_s", secs("core.run_until_idle"), "s"),
            ("core.events", events as f64, "count"),
            (
                "core.events_per_request",
                events as f64 / issued.max(1) as f64,
                "ratio",
            ),
            ("core.issued", issued as f64, "count"),
            ("core.completed", completed as f64, "count"),
            ("core.failed", failed as f64, "count"),
            ("core.rejected", rejected as f64, "count"),
            ("core.lookahead_ns", sim.lookahead_ns() as f64, "ns"),
            ("trace.sampled_traces", sampled_traces as f64, "count"),
            ("trace.sampled_spans", spans as f64, "count"),
            (
                "trace.dropped_spans",
                sim.collector().dropped_spans() as f64,
                "count",
            ),
            ("trace.clone_ms", clone_ms, "ms"),
            ("bench.wall_s", wall_s, "s"),
            (
                "bench.span_coverage",
                self_ns as f64 / 1e9 / wall_s,
                "ratio",
            ),
        ]);
        if w == Workload::TwotierChaos {
            layers.push(("core.install_chaos_s", secs("core.install_chaos"), "s"));
        }
        if let Some(s) = &scraper {
            let scrape_s = secs("telemetry.scrape");
            layers.extend([
                ("telemetry.scrape_s", scrape_s, "s"),
                ("telemetry.scrapes", scrapes as f64, "count"),
                (
                    "telemetry.series",
                    s.registry().keys().count() as f64,
                    "count",
                ),
                (
                    "telemetry.scrape_us_per_scrape",
                    scrape_s * 1e6 / scrapes.max(1) as f64,
                    "us",
                ),
                ("telemetry.analyze_s", secs("telemetry.analyze"), "s"),
                ("telemetry.alerts", alerts as f64, "count"),
                ("telemetry.root_causes", root_causes as f64, "count"),
                ("telemetry.render_s", secs("telemetry.render"), "s"),
                ("telemetry.output_bytes", telemetry_bytes as f64, "bytes"),
            ]);
        }
        if let Some((precision, recall)) = detection {
            layers.extend([
                ("telemetry.score_s", secs("telemetry.score"), "s"),
                ("telemetry.precision", precision, "ratio"),
                ("telemetry.recall", recall, "ratio"),
            ]);
        }
    }

    RunResult {
        wall_s,
        setup_s,
        tick_ms,
        digest,
        detection,
        layers,
        tracer: tr,
    }
}

/// Peak resident memory of this process so far (`VmHWM`), in MiB.
///
/// # Panics
///
/// Panics where `/proc/self/status` has no `VmHWM` line (not Linux).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status")
        .expect("peak RSS is read from /proc/self/status (Linux only)");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status has a VmHWM line in kB");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(w: Workload, workers: usize) -> RunResult {
        run(&RunConfig {
            sim_ms: 1_000,
            workers,
            ..RunConfig::new(w, 7)
        })
    }

    #[test]
    fn every_workload_conserves_requests_and_repeats_its_digest() {
        for w in ALL {
            let a = tiny(w, 1);
            let b = tiny(w, 1);
            assert!(a.digest["issued"] > 0, "{}: no load", w.name());
            assert_eq!(a.problems(w), Vec::<String>::new());
            assert_eq!(a.digest, b.digest, "{}: same seed, other digest", w.name());
            assert_eq!(a.setup_s.len(), SETUP_REPEATS);
            assert_eq!(a.tick_ms.len() as u64, 1_000 / w.shape().slice_ms);
        }
    }

    #[test]
    fn fig22_digest_is_equal_at_one_and_two_workers() {
        let serial = tiny(Workload::Fig22Sharded, 1);
        let sharded = tiny(Workload::Fig22Sharded, 2);
        assert_eq!(serial.digest, sharded.digest);
    }

    #[test]
    fn traced_run_reports_layers_and_covers_its_wall() {
        let r = run(&RunConfig {
            sim_ms: 1_000,
            traced: true,
            ..RunConfig::new(Workload::TwotierChaos, 7)
        });
        let get = |n: &str| r.layers.iter().find(|l| l.0 == n).map(|l| l.1);
        assert!(get("core.advance_s").unwrap() > 0.0);
        assert!(get("telemetry.scrape_s").unwrap() > 0.0);
        assert_eq!(get("telemetry.precision"), Some(1.0));
        let coverage = get("bench.span_coverage").unwrap();
        assert!((0.9..=1.0).contains(&coverage), "coverage {coverage}");
    }

    #[test]
    fn full_chaos_plan_holds_seven_faults() {
        let (app, cluster) = Workload::TwotierChaos.build();
        let sim = Simulation::new(app.spec.clone(), cluster, 7);
        let plan = chaos_plan(&app, &sim, 7, SimTime::from_millis(40_000));
        assert_eq!(plan.faults().len(), 7);
        let short = chaos_plan(&app, &sim, 7, SimTime::from_millis(1_000));
        assert!(short.events.is_empty());
    }
}
