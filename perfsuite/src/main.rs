//! `dsb-perfsuite`: runs the benchmark's workloads in child processes,
//! checks their digests and prints their metrics.
//!
//! ```text
//! dsb-perfsuite --workload W --seed N --seconds S --trace 0|1   one workload, about S seconds
//! dsb-perfsuite suite [--rounds N] [--sets K] [--seed N] [--trace DIR]
//! dsb-perfsuite pin [--seed N]                                  print a digest file
//! ```
//!
//! `rep` is the child each run executes.

use std::collections::BTreeMap;
use std::io::Read as _;
use std::process::{Command, ExitCode, Stdio};
use std::str::FromStr;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use dsb_perfsuite::digest::{self, Digest, PinKey};
use dsb_perfsuite::stats::{self, median, summarize};
use dsb_perfsuite::workloads::{self, host_cpus, RunConfig, Workload, ALL};
use dsb_perfsuite::{kernels, END_TO_END, PER_LAYER};

const USAGE: &str = "usage:
  dsb-perfsuite --workload W --seed N --seconds S --trace 0|1
  dsb-perfsuite suite [--rounds N] [--sets K] [--seed N] [--trace DIR]
  dsb-perfsuite pin [--seed N]
workloads: twotier_hot social_observed fig22_sharded twotier_chaos";

/// Runs per workload in one measurement, at least.
const MIN_RUNS: usize = 3;

/// Host seconds of one run of each workload on the reference host, a
/// 2-vCPU shared Xeon VM. A measurement makes `--seconds` ÷ this many
/// runs (at least [`MIN_RUNS`]): a count the command line fixes, never
/// the speed of the code under test, because the fastest of more
/// replays reads lower.
fn nominal_run_s(w: Workload) -> f64 {
    match w {
        Workload::TwotierHot => 3.6,
        Workload::SocialObserved => 6.5,
        Workload::Fig22Sharded => 3.0,
        Workload::TwotierChaos => 3.2,
    }
}

/// A measurement starts no run that, as slow as its slowest so far,
/// would end after this: a safety stop for very slow code or hosts, so
/// that a measurement ends inside three minutes. It prints a warning,
/// because its runs then number fewer than planned.
const STOP_AFTER: Duration = Duration::from_secs(150);

/// A child run taking longer than this is killed and counted as failed.
const CHILD_TIMEOUT: Duration = Duration::from_secs(120);

/// Command-line flags, each `--name value`.
struct Flags(BTreeMap<String, String>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut map = BTreeMap::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{arg}`"))?;
            let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            map.insert(key.to_string(), value.clone());
        }
        Ok(Flags(map))
    }

    fn get<T: FromStr>(&mut self, key: &str) -> Result<Option<T>, String> {
        self.0
            .remove(key)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{key}: cannot parse `{v}`"))
            })
            .transpose()
    }

    fn done(self) -> Result<(), String> {
        match self.0.keys().next() {
            Some(k) => Err(format!("unknown flag --{k}")),
            None => Ok(()),
        }
    }
}

fn seed(f: &mut Flags) -> Result<u64, String> {
    Ok(f.get("seed")?.unwrap_or(7))
}

/// Settings every parent mode shares: the seed and the pinned digests.
struct Common {
    seed: u64,
    pins: BTreeMap<PinKey, Digest>,
}

impl Common {
    fn parse(f: &mut Flags) -> Result<Common, String> {
        Ok(Common {
            seed: seed(f)?,
            pins: digest::parse_pins(digest::PINNED)?,
        })
    }

    /// The pin key of a full-size run of `w` at this seed.
    fn key(&self, w: Workload) -> PinKey {
        (w.name().to_string(), self.seed, w.default_sim_ms())
    }

    fn is_pinned(&self, w: Workload) -> bool {
        self.pins.contains_key(&self.key(w))
    }

    /// Problems of each run of one workload, from [`digest::check_runs`].
    fn check(&self, w: Workload, reps: &[&Rep]) -> Vec<Vec<String>> {
        let runs: Vec<(&Digest, &[String])> = reps
            .iter()
            .map(|r| (&r.digest, r.problems.as_slice()))
            .collect();
        digest::check_runs(&self.pins, &self.key(w), &runs)
    }
}

fn workload(name: Option<String>) -> Result<Workload, String> {
    let name = name.ok_or("--workload is required")?;
    Workload::parse(&name).ok_or_else(|| format!("unknown workload `{name}`"))
}

/// One child run as reported over its stdout.
#[derive(Debug, Default)]
struct Rep {
    metrics: BTreeMap<String, f64>,
    ticks: Vec<f64>,
    layers: Vec<(String, f64, String)>,
    digest: Digest,
    spans: Vec<String>,
    problems: Vec<String>,
}

impl Rep {
    fn parse(out: &str) -> Result<Rep, String> {
        let mut rep = Rep::default();
        for line in out.lines() {
            let bad = || format!("malformed child output line `{line}`");
            let (kind, rest) = line.split_once(' ').ok_or_else(bad)?;
            let words: Vec<&str> = rest.split_whitespace().collect();
            match (kind, words.as_slice()) {
                ("metric", [k, v]) => {
                    rep.metrics
                        .insert(k.to_string(), v.parse().map_err(|_| bad())?);
                }
                ("ticks", ticks) => {
                    rep.ticks = ticks
                        .iter()
                        .map(|t| t.parse().map_err(|_| bad()))
                        .collect::<Result<_, _>>()?;
                }
                ("layer", [k, v, unit]) => {
                    let v = v.parse().map_err(|_| bad())?;
                    rep.layers.push((k.to_string(), v, unit.to_string()));
                }
                ("digest", [k, v]) => {
                    rep.digest
                        .insert(k.to_string(), v.parse().map_err(|_| bad())?);
                }
                ("span", _) => rep.spans.push(rest.to_string()),
                ("problem", _) => rep.problems.push(rest.to_string()),
                _ => return Err(bad()),
            }
        }
        Ok(rep)
    }

    fn metric(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(f64::NAN)
    }

    fn layer(&self, name: &str) -> Option<f64> {
        self.layers.iter().find(|l| l.0 == name).map(|l| l.1)
    }
}

/// Runs one workload in a fresh child process and waits for it.
fn spawn_rep(
    c: &Common,
    w: Workload,
    workers: usize,
    traced: bool,
    spans: Option<&str>,
) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["rep", "--workload", w.name()])
        .args(["--seed", &c.seed.to_string()])
        .args(["--workers", &workers.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if let Some(path) = spans {
        cmd.args(["--spans", path]);
    }
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", w.name()))?;
    // The reader signals when the child closes its stdout, so the parent
    // sleeps instead of polling while the child is measured.
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let (done, finished) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        let mut s = String::new();
        let read = stdout.read_to_string(&mut s).map(|_| s);
        let _ = done.send(());
        read
    });
    let in_time = finished.recv_timeout(CHILD_TIMEOUT).is_ok();
    if !in_time {
        let _ = child.kill();
    }
    let status = child.wait();
    let out = reader.join().expect("reader thread does not panic");
    if !in_time {
        return Err(format!("{} run exceeded {CHILD_TIMEOUT:?}", w.name()));
    }
    let status = status.map_err(|e| format!("wait for {} run: {e}", w.name()))?;
    if !status.success() {
        return Err(format!("{} run failed: {status}", w.name()));
    }
    Rep::parse(&out.map_err(|e| format!("read {} run output: {e}", w.name()))?)
}

/// The child: one run in this process, reported line by line.
fn rep(mut f: Flags) -> Result<ExitCode, String> {
    let w = workload(f.get("workload")?)?;
    let mut cfg = RunConfig::new(w, seed(&mut f)?);
    cfg.workers = f.get("workers")?.unwrap_or(cfg.workers).max(1);
    cfg.traced = f.get::<u8>("trace")?.unwrap_or(0) == 1;
    let spans: Option<String> = f.get("spans")?;
    f.done()?;

    // A run must not outlive the measurement that started it, even if
    // that process is killed: exit once the parent is gone. The thread
    // is not joined; it ends with the process.
    let parent = std::os::unix::process::parent_id();
    std::thread::spawn(move || loop {
        std::thread::sleep(Duration::from_millis(200));
        if std::os::unix::process::parent_id() != parent {
            std::process::exit(1);
        }
    });

    let r = workloads::run(&cfg);
    let rss = workloads::peak_rss_mb();
    let mut ticks = r.tick_ms.clone();
    ticks.sort_by(f64::total_cmp);
    let mut out = String::new();
    for (k, v) in [
        ("wall_s", r.wall_s),
        ("sim_req_per_s", r.sim_req_per_s()),
        ("tick_ms_p50", stats::quantile(&ticks, 1, 2)),
        ("tick_ms_p90", stats::quantile(&ticks, 9, 10)),
        ("ticks", ticks.len() as f64),
        ("peak_rss_mb", rss),
        ("setup_s", median(&r.setup_s)),
        ("failed_frac", r.failed_frac()),
    ] {
        out.push_str(&format!("metric {k} {v}\n"));
    }
    let ticks: Vec<String> = r.tick_ms.iter().map(f64::to_string).collect();
    out.push_str(&format!("ticks {}\n", ticks.join(" ")));
    for (k, v, unit) in &r.layers {
        out.push_str(&format!("layer {k} {v} {unit}\n"));
    }
    for (k, v) in &r.digest {
        out.push_str(&format!("digest {k} {v}\n"));
    }
    for (name, t) in r.tracer.layer_times() {
        out.push_str(&format!(
            "span {name} {} {} {}\n",
            t.count, t.total_ns, t.self_ns
        ));
    }
    for p in r.problems(w) {
        out.push_str(&format!("problem {p}\n"));
    }
    print!("{out}");
    if let Some(path) = spans {
        std::fs::write(&path, r.tracer.jsonl(w.name())).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(ExitCode::SUCCESS)
}

fn print_calibration(calib: &[f64]) {
    let s = summarize(calib);
    println!(
        "calibration loop: median {:.4} s, IQR {:.4} s, n {}",
        s.median,
        s.q3 - s.q1,
        s.n
    );
    for (i, v) in calib.iter().enumerate() {
        if (v / s.median - 1.0).abs() > 0.10 {
            println!(
                "WARNING: calibration before round {} read {v:.4} s, more than 10% off the median: the host itself was slower or faster",
                i + 1
            );
        }
    }
}

fn print_metrics_header() {
    println!(
        "{:<16} {:<14} {:<6} {:>14} | {:>14} {:>14} {:>14} {:>3}",
        "workload", "metric", "unit", "reported", "run median", "run q1", "run q3", "n"
    );
}

/// Prints every end-to-end metric of one workload and returns them. The
/// reported value is [`combine`] over `reps`, the one rule behind each
/// metric name. The columns after it are the median, quartiles and
/// count of the single runs' own values, for context.
fn print_metrics(w: Workload, reps: &[&Rep]) -> Vec<(String, f64, String)> {
    let combined = combine(reps);
    for (m, (_, value, _)) in END_TO_END.iter().zip(&combined) {
        let s = summarize(&reps.iter().map(|r| r.metric(m.name)).collect::<Vec<_>>());
        println!(
            "{:<16} {:<14} {:<6} {value:>14.6} | {:>14.6} {:>14.6} {:>14.6} {:>3}",
            w.name(),
            m.name,
            m.unit,
            s.median,
            s.q1,
            s.q3,
            s.n
        );
    }
    combined
}

/// Prints the tick sample count with the tail percentile it supports,
/// and the simulated failure share.
fn print_run_shape(w: Workload, rep: &Rep) {
    let n = rep.metric("ticks") as usize;
    let tail = match stats::tail_rank(n) {
        Some((i, of)) => format!(
            "highest percentile with >= 10 samples beyond: p{}",
            100.0 * i as f64 / of as f64
        ),
        None => "under 20 samples: only p50 is meaningful".to_string(),
    };
    println!(
        "{}: {n} control slices per run ({tail}); simulated failed_frac {} (exact; covered by the digest)",
        w.name(),
        rep.metric("failed_frac")
    );
}

fn print_layers(w: Workload, layers: &[(String, f64, String)], rep: &Rep) {
    let wall = rep.layer("bench.wall_s").unwrap_or(f64::NAN);
    println!("per-layer {} (traced run, wall {wall:.3} s):", w.name());
    println!(
        "  {:<22} {:>7} {:>10} {:>10} {:>7}",
        "span", "count", "total_s", "self_s", "self%"
    );
    for line in &rep.spans {
        let f: Vec<&str> = line.split_whitespace().collect();
        if let [name, count, total, own] = f.as_slice() {
            let secs = |v: &str| v.parse::<f64>().unwrap_or(f64::NAN) / 1e9;
            println!(
                "  {name:<22} {count:>7} {:>10.4} {:>10.4} {:>6.1}%",
                secs(total),
                secs(own),
                100.0 * secs(own) / wall
            );
        }
    }
    for (k, v, unit) in layers {
        println!("  {k:<34} {v:>16.6} {unit}");
    }
}

/// Runs that the traced measurement of one workload makes: one untraced
/// and one traced at its own worker count, and for a sharded workload a
/// traced serial run, the base of `simcore.epoch_overhead`.
struct TraceCycle {
    untraced: Rep,
    traced: Rep,
    serial: Option<Rep>,
}

impl TraceCycle {
    fn reps(&self) -> impl Iterator<Item = &Rep> {
        [&self.untraced, &self.traced]
            .into_iter()
            .chain(self.serial.as_ref())
    }
}

fn trace_cycle(c: &Common, w: Workload, spans: Option<&str>) -> Result<TraceCycle, String> {
    let own = w.workers();
    Ok(TraceCycle {
        untraced: spawn_rep(c, w, own, false, None)?,
        traced: spawn_rep(c, w, own, true, spans)?,
        serial: match own {
            1 => None,
            _ => Some(spawn_rep(c, w, 1, true, None)?),
        },
    })
}

/// Per-layer values of one workload: the kernels, medians over the
/// traced runs, and the ratios of traced runs to the other runs.
fn cycle_layers(
    kernels: &[(&'static str, f64)],
    cycles: &[TraceCycle],
) -> Vec<(String, f64, String)> {
    let med = |f: &dyn Fn(&TraceCycle) -> Option<f64>| {
        median(&cycles.iter().filter_map(f).collect::<Vec<_>>())
    };
    let mut out: Vec<(String, f64, String)> = kernels
        .iter()
        .map(|&(k, v)| (k.to_string(), v, "ns".to_string()))
        .collect();
    for (name, _, unit) in &cycles[0].traced.layers {
        out.push((name.clone(), med(&|t| t.traced.layer(name)), unit.clone()));
    }
    if cycles[0].serial.is_some() {
        let advance = |r: &Rep| r.layer("core.advance_s");
        let serial = med(&|t| t.serial.as_ref().and_then(advance));
        out.push((
            "simcore.epoch_overhead".into(),
            med(&|t| advance(&t.traced)) / serial,
            "ratio".into(),
        ));
    }
    let wall = |r: &Rep| Some(r.metric("wall_s"));
    out.push((
        "bench.tracing_overhead".into(),
        med(&|t| wall(&t.traced)) / med(&|t| wall(&t.untraced)),
        "ratio".into(),
    ));
    out
}

/// The end-to-end values of one measurement: runs of one seed replay
/// the same slices, and contention from other tenants only ever slows
/// work down, so each time metric is taken from the fastest replays.
/// `sim_req_per_s` divides completions by the sum of each slice's
/// fastest replay plus the fastest replay of the rest of the run, the
/// tick percentiles are over each slice's fastest replay, and `setup_s`
/// is the fastest run's median set-up. `peak_rss_mb` is the median.
///
/// The fastest of more replays reads lower, so values are comparable
/// only between equal run counts; callers fix the count in advance.
fn combine(reps: &[&Rep]) -> Vec<(String, f64, String)> {
    let ticks: Vec<&[f64]> = reps.iter().map(|r| r.ticks.as_slice()).collect();
    let mut slices = stats::slice_minima(&ticks);
    let fastest = |f: &dyn Fn(&Rep) -> f64| reps.iter().map(|r| f(r)).fold(f64::INFINITY, f64::min);
    let rest_s = fastest(&|r| r.metric("wall_s") - r.ticks.iter().sum::<f64>() / 1e3);
    let wall_s = slices.iter().sum::<f64>() / 1e3 + rest_s;
    slices.sort_by(f64::total_cmp);
    END_TO_END
        .iter()
        .map(|m| {
            let v = match m.name {
                "sim_req_per_s" => reps[0].digest["completed"] as f64 / wall_s,
                "tick_ms_p50" => stats::quantile(&slices, 1, 2),
                "tick_ms_p90" => stats::quantile(&slices, 9, 10),
                "setup_s" => fastest(&|r| r.metric("setup_s")),
                _ => median(&reps.iter().map(|r| r.metric(m.name)).collect::<Vec<_>>()),
            };
            (m.name.to_string(), v, m.unit.to_string())
        })
        .collect()
}

fn json_number(name: &str, v: f64) -> Result<String, String> {
    if v.is_finite() {
        Ok(format!("{v}"))
    } else {
        Err(format!("metric {name} is not a finite number ({v})"))
    }
}

fn result_json(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(String, f64, String)],
) -> Result<String, String> {
    let mut body = Vec::new();
    for (k, v, unit) in metrics {
        body.push(format!(
            "\"{k}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(k, *v)?
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

/// The measurement `BENCHMARK.json`'s command makes: one workload,
/// repeated in a fixed number of child runs that take about `seconds`
/// on the reference host, reported as one JSON line.
fn measure(mut f: Flags) -> Result<ExitCode, String> {
    let w = workload(f.get("workload")?)?;
    let seconds: f64 = f.get("seconds")?.ok_or("--seconds is required")?;
    let traced = match f.get::<u8>("trace")?.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace {t}: expected 0 or 1")),
    };
    let c = Common::parse(&mut f)?;
    f.done()?;
    // A traced cycle makes two or three runs, an untraced one makes one.
    let runs = (seconds / nominal_run_s(w)) as usize;
    let planned = if traced {
        (runs / (2 + usize::from(w.workers() > 1))).max(1)
    } else {
        runs.max(MIN_RUNS)
    };
    let start = Instant::now();
    println!(
        "dsb-perfsuite {} seed {} ({}), {}, {planned} cycle(s), host_cpus {}",
        w.name(),
        c.seed,
        if c.is_pinned(w) {
            "pinned digest"
        } else {
            "no pinned digest at this seed"
        },
        if traced { "traced" } else { "untraced" },
        host_cpus()
    );

    let kernels = if traced { kernels::run() } else { Vec::new() };
    let (mut calib, mut slowest) = (Vec::new(), Duration::ZERO);
    let mut reps: Vec<Rep> = Vec::new();
    let mut cycles: Vec<TraceCycle> = Vec::new();
    let mut errors: Vec<String> = Vec::new();
    for done in 0..planned {
        if start.elapsed() + slowest > STOP_AFTER {
            println!(
                "WARNING: stopped after {done} of {planned} cycles at {:.0} s; fewer replays read slower",
                start.elapsed().as_secs_f64()
            );
            break;
        }
        calib.push(stats::calibrate());
        let t = Instant::now();
        let outcome = if traced {
            trace_cycle(&c, w, None).map(|tc| cycles.push(tc))
        } else {
            spawn_rep(&c, w, w.workers(), false, None).map(|r| reps.push(r))
        };
        if let Err(e) = outcome {
            errors.push(e);
            break;
        }
        slowest = slowest.max(t.elapsed());
    }

    let all: Vec<&Rep> = if traced {
        cycles.iter().flat_map(TraceCycle::reps).collect()
    } else {
        reps.iter().collect()
    };
    let per_run = c.check(w, &all);
    let failed = per_run.iter().filter(|p| !p.is_empty()).count() + errors.len();
    let attempted = all.len() + errors.len();
    let problems: Vec<String> = per_run.into_iter().flatten().chain(errors).collect();
    for p in &problems {
        println!("{p}");
    }
    println!(
        "{attempted} runs in {:.1} s, {failed} failed",
        start.elapsed().as_secs_f64()
    );
    print_calibration(&calib);
    if all.is_empty() {
        return Ok(ExitCode::FAILURE);
    }
    print_run_shape(w, all[0]);

    let metrics: Vec<(String, f64, String)> = if traced {
        let layers = cycle_layers(&kernels, &cycles);
        print_layers(w, &layers, &cycles[0].traced);
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = layers
                    .iter()
                    .find(|l| l.0 == name)
                    .map_or(f64::NAN, |l| l.1);
                (name.to_string(), v, unit.to_string())
            })
            .collect()
    } else {
        print_metrics_header();
        print_metrics(w, &all)
    };
    println!("{}", result_json(failed == 0, attempted, failed, &metrics)?);
    Ok(digest::exit_code(&problems))
}

/// All four workloads in interleaved rounds, summarized per metric.
fn suite(mut f: Flags) -> Result<ExitCode, String> {
    let rounds: usize = f.get("rounds")?.unwrap_or(5);
    let sets: usize = f.get("sets")?.unwrap_or(1);
    let trace_dir: Option<String> = f.get("trace")?;
    let c = Common::parse(&mut f)?;
    f.done()?;
    if rounds == 0 || sets == 0 {
        return Err("--rounds and --sets must be positive".into());
    }
    let total = rounds * sets;
    println!(
        "dsb-perfsuite suite: {} workloads x {total} interleaved rounds ({sets} set(s) of {rounds}), seed {}, host_cpus {}",
        ALL.len(),
        c.seed,
        host_cpus()
    );

    let mut calib = Vec::new();
    let mut reps: Vec<Vec<Rep>> = ALL.iter().map(|_| Vec::new()).collect();
    let mut errors = Vec::new();
    for round in 0..total {
        calib.push(stats::calibrate());
        for (i, &w) in ALL.iter().enumerate() {
            match spawn_rep(&c, w, w.workers(), false, None) {
                Ok(r) => reps[i].push(r),
                Err(e) => errors.push(format!("round {}: {e}", round + 1)),
            }
        }
    }

    // The traced round: one trace cycle per workload, kept out of the
    // end-to-end metrics.
    let mut cycles: Vec<Option<TraceCycle>> = ALL.iter().map(|_| None).collect();
    let mut kernel_values = Vec::new();
    if let Some(dir) = &trace_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
        kernel_values = kernels::run();
        for (i, &w) in ALL.iter().enumerate() {
            let path = format!("{dir}/{}.jsonl", w.name());
            match trace_cycle(&c, w, Some(&path)) {
                Ok(tc) => cycles[i] = Some(tc),
                Err(e) => errors.push(format!("traced round: {e}")),
            }
        }
    }

    let mut problems = errors;
    let mut runs = 0;
    for (i, &w) in ALL.iter().enumerate() {
        let mut refs: Vec<&Rep> = reps[i].iter().collect();
        if let Some(tc) = &cycles[i] {
            refs.extend(tc.reps());
        }
        runs += refs.len();
        problems.extend(c.check(w, &refs).into_iter().flatten());
    }

    print_calibration(&calib);
    print_metrics_header();
    for (i, &w) in ALL.iter().enumerate() {
        if !reps[i].is_empty() {
            print_metrics(w, &reps[i].iter().collect::<Vec<_>>());
        }
    }
    for (i, &w) in ALL.iter().enumerate() {
        if let Some(r) = reps[i].first() {
            print_run_shape(w, r);
        }
    }

    if sets > 1 {
        println!(
            "repeatability: {sets} interleaved sets (round r is in set r mod {sets}), each combined like one measurement"
        );
        let mut disagree = 0;
        for (i, &w) in ALL.iter().enumerate() {
            let per_set: Vec<_> = (0..sets)
                .map(|s| reps[i].iter().skip(s).step_by(sets).collect::<Vec<_>>())
                .filter(|set| !set.is_empty())
                .map(|set| combine(&set))
                .collect();
            if per_set.len() < sets {
                continue;
            }
            for (j, m) in END_TO_END.iter().enumerate() {
                let values: Vec<f64> = per_set.iter().map(|c| c[j].1).collect();
                let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let gap = hi / lo - 1.0;
                let ok = gap <= m.bound;
                disagree += usize::from(!ok);
                let shown: Vec<String> = values.iter().map(|v| format!("{v:.6}")).collect();
                println!(
                    "  {:<16} {:<14} {:<26} gap {:>6.2}% bound {:>4.1}% {}",
                    w.name(),
                    m.name,
                    shown.join(" / "),
                    100.0 * gap,
                    100.0 * m.bound,
                    if ok { "agree" } else { "DISAGREE" }
                );
            }
        }
        println!("repeatability: {disagree} metric(s) outside their bound");
    }

    for (tc, &w) in cycles.iter().zip(&ALL) {
        if let (Some(tc), Some(dir)) = (tc, &trace_dir) {
            let layers = cycle_layers(&kernel_values, std::slice::from_ref(tc));
            print_layers(w, &layers, &tc.traced);
            println!("  spans written to {dir}/{}.jsonl", w.name());
        }
    }

    for p in &problems {
        println!("{p}");
    }
    let pinned = ALL.iter().filter(|&&w| c.is_pinned(w)).count();
    println!(
        "digests: {runs} runs checked, {} problem(s); {pinned} of {} workloads pinned at seed {}",
        problems.len(),
        ALL.len(),
        c.seed
    );
    Ok(digest::exit_code(&problems))
}

/// Prints a digest file for the current code: one run per workload.
fn pin(mut f: Flags) -> Result<ExitCode, String> {
    let c = Common::parse(&mut f)?;
    f.done()?;
    println!("# Deterministic digests of one run per workload: counts and the FNV-64 of");
    println!("# every rendered report. Regenerate after an intentional model change with");
    println!("#   cargo run --release --offline --manifest-path perfsuite/Cargo.toml -- pin > perfsuite/digests.txt");
    for w in ALL {
        let r = spawn_rep(&c, w, w.workers(), false, None)?;
        if let Some(p) = r.problems.first() {
            return Err(format!("refusing to pin a failing run: {p}"));
        }
        println!("{}", digest::pin_line(&c.key(w), &r.digest));
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, rest) = match args.first().map(String::as_str) {
        Some(m @ ("suite" | "pin" | "rep")) => (m, &args[1..]),
        Some("--help" | "-h" | "help") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => ("measure", &args[..]),
    };
    let result = Flags::parse(rest).and_then(|f| match mode {
        "suite" => suite(f),
        "pin" => pin(f),
        "rep" => rep(f),
        _ => measure(f),
    });
    result.unwrap_or_else(|e| {
        eprintln!("dsb-perfsuite: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}
