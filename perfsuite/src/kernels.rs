//! `simcore` micro-kernels: the timing wheel, log-normal sampling and
//! histogram recording, each timed in isolation from the simulator.

use std::hint::black_box;
use std::time::Instant;

use dsb_simcore::{Dist, Histogram, Model, Rng, Scheduler, SimDuration, SimTime};

use crate::stats::median;

/// Repetitions of each kernel; the median is reported.
const REPS: usize = 5;

struct Pinger {
    left: u64,
}

impl Model for Pinger {
    type Event = ();
    fn handle(&mut self, sched: &mut Scheduler<()>, _ev: ()) {
        if self.left > 0 {
            self.left -= 1;
            sched.schedule_in(SimDuration::from_nanos(50), ());
        }
    }
}

fn ns_per_op(ops: u64, mut kernel: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            kernel();
            start.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&samples)
}

/// Runs the three kernels and returns `(metric name, ns per operation)`.
pub fn run() -> Vec<(&'static str, f64)> {
    const CHAIN: u64 = 1_000_000;
    const LOOP: u64 = 100_000;
    let wheel = ns_per_op(CHAIN, || {
        let mut sched = Scheduler::new(1);
        sched.schedule_at(SimTime::ZERO, ());
        let mut m = Pinger { left: CHAIN - 1 };
        sched.run(&mut m);
        assert_eq!(sched.events_processed(), CHAIN);
    });
    let d = Dist::log_normal(1000.0, 0.5);
    let mut rng = Rng::new(9);
    let lognormal = ns_per_op(LOOP, || {
        let mut acc = 0.0;
        for _ in 0..LOOP {
            acc += d.sample(&mut rng);
        }
        black_box(acc);
    });
    let mut rng = Rng::new(7);
    let histogram = ns_per_op(LOOP, || {
        let mut h = Histogram::default();
        for _ in 0..LOOP {
            h.record(black_box(rng.next_u64() % 10_000_000));
        }
        black_box(h.quantile(0.99));
    });
    vec![
        ("simcore.wheel_ns_per_event", wheel),
        ("simcore.lognormal_ns_per_sample", lognormal),
        ("simcore.histogram_ns_per_record", histogram),
    ]
}
