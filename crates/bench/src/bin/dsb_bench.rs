//! `dsb-bench` — the committed performance baseline.
//!
//! Runs one fixed fig17-style kernel (the nginx→memcached two-tier app
//! under open-loop load, the suite's canonical backpressure shape) and
//! reports the simulator's throughput in *simulated requests completed
//! per wall-clock second*. The run is fully deterministic in simulated
//! terms — same seed, same injected load, same completions — so the only
//! thing that varies between machines or commits is the wall clock,
//! which is the point: this is the repo's perf regression canary.
//!
//! ```text
//! cargo run --release -p dsb-bench --bin dsb-bench              # print JSON
//! cargo run --release -p dsb-bench --bin dsb-bench -- BENCH_0.json
//! cargo run --release -p dsb-bench --bin dsb-bench -- --workers 4 BENCH_1.json
//! ```
//!
//! With `--workers N` the binary runs the fig22-style parallel kernel
//! (`dsb_bench::fig22_kernel`) instead: one serial reference pass, then
//! timed passes on the sharded engine with `N` threads, asserting
//! identical events and completions, and reporting `parallel_speedup`
//! (serial wall / parallel wall) next to `host_cpus` — on a 1-CPU host
//! the speedup honestly reads ~1x, and the headline metric is the
//! event-dense kernel's `events_per_wall_second`.
//!
//! `ci.sh` writes `BENCH_0.json` / `BENCH_1.json` when absent; the
//! committed files are the baseline snapshots for eyeballing against
//! later runs.
#![expect(
    clippy::disallowed_types,
    reason = "the perf baseline times simulated work against the wall clock by design"
)]

use std::time::Instant;

/// Offered load of the kernel (req/s), chosen so the run is busy but
/// comfortably under the two-tier app's capacity.
const QPS: f64 = 2_000.0;
/// Simulated seconds of open-loop load.
const SECS: u64 = 20;
/// Simulation seed; fixed so completions are byte-stable.
const SEED: u64 = 17;
/// Timed repetitions (after one untimed warm-up).
const REPS: u32 = 3;

/// Offered load / duration / seed of the fig22 parallel kernel. Lower
/// qps than the fig17 kernel but ~400 events per request: the event
/// loop, not the request machinery, is what this one measures.
const PAR_QPS: f64 = 2_000.0;
const PAR_SECS: u64 = 10;
const PAR_SEED: u64 = 22;

fn run_parallel_bench(workers: usize, path: Option<String>) {
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Serial reference: correctness anchor and the speedup denominator.
    let warm = dsb_bench::fig22_run(1, PAR_QPS, PAR_SECS, PAR_SEED);
    let serial_start = Instant::now();
    let (events, completed) = dsb_bench::fig22_run(1, PAR_QPS, PAR_SECS, PAR_SEED);
    let serial_wall = serial_start.elapsed().as_secs_f64();
    assert_eq!((events, completed), warm, "serial kernel must be stable");

    let start = Instant::now();
    for _ in 0..REPS {
        let par = dsb_bench::fig22_run(workers, PAR_QPS, PAR_SECS, PAR_SEED);
        assert_eq!(
            par,
            (events, completed),
            "parallel kernel diverged from serial at workers={workers}"
        );
    }
    let wall_s = start.elapsed().as_secs_f64() / REPS as f64;
    let json = format!(
        "{{\n  \"bench\": \"fig22_parallel_kernel\",\n  \"app\": \"fig22-cruncher x16 over 8 machines\",\n  \
         \"qps\": {PAR_QPS},\n  \"simulated_seconds\": {PAR_SECS},\n  \"seed\": {PAR_SEED},\n  \"reps\": {REPS},\n  \
         \"workers\": {workers},\n  \"host_cpus\": {host_cpus},\n  \
         \"completed_requests\": {completed},\n  \"events\": {events},\n  \
         \"serial_wall_seconds\": {serial_wall:.4},\n  \"wall_seconds\": {wall_s:.4},\n  \
         \"parallel_speedup\": {:.2},\n  \
         \"requests_per_wall_second\": {:.0},\n  \"events_per_wall_second\": {:.0}\n}}\n",
        serial_wall / wall_s,
        completed as f64 / wall_s,
        events as f64 / wall_s,
    );
    match path {
        Some(path) => {
            std::fs::write(&path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
            eprintln!("dsb-bench: wrote {path}");
            print!("{json}");
        }
        None => print!("{json}"),
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let first = args.next();
    if first.as_deref() == Some("--workers") {
        let workers: usize = args
            .next()
            .and_then(|w| w.parse().ok())
            .expect("--workers needs a positive integer");
        run_parallel_bench(workers.max(1), args.next());
        return;
    }

    let app = dsb_apps::twotier::twotier(64, 1024);
    // Warm-up: touch allocator and page cache before timing.
    let (events, completed) = dsb_bench::mini_run_completed(&app, QPS, SECS, SEED);
    let start = Instant::now();
    for _ in 0..REPS {
        let again = dsb_bench::mini_run_completed(&app, QPS, SECS, SEED);
        assert_eq!(
            again,
            (events, completed),
            "bench kernel must be deterministic"
        );
    }
    let wall_s = start.elapsed().as_secs_f64() / REPS as f64;
    let json = format!(
        "{{\n  \"bench\": \"fig17_twotier_kernel\",\n  \"app\": \"nginx-memcached twotier(64, 1024)\",\n  \
         \"qps\": {QPS},\n  \"simulated_seconds\": {SECS},\n  \"seed\": {SEED},\n  \"reps\": {REPS},\n  \
         \"completed_requests\": {completed},\n  \"events\": {events},\n  \
         \"wall_seconds\": {wall_s:.4},\n  \
         \"requests_per_wall_second\": {:.0},\n  \"events_per_wall_second\": {:.0}\n}}\n",
        completed as f64 / wall_s,
        events as f64 / wall_s,
    );
    match first {
        Some(path) => {
            std::fs::write(&path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
            eprintln!("dsb-bench: wrote {path}");
            print!("{json}");
        }
        None => print!("{json}"),
    }
}
