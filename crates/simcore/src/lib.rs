//! # dsb-simcore — deterministic discrete-event simulation engine
//!
//! The foundation of the DeathStarBench-sim workspace: a minimal,
//! fully-deterministic discrete-event simulation (DES) kernel plus the
//! numeric utilities every substrate shares.
//!
//! The crate provides:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution virtual time.
//! * [`Scheduler`] and the [`Model`] trait — a typed event loop. Models
//!   define one event enum; events at equal timestamps are delivered in
//!   schedule order, so runs are bit-for-bit reproducible.
//! * [`Rng`] — a seeded xoshiro256++ generator with stream splitting. We
//!   implement our own generator (rather than depending on `rand`'s stream
//!   stability) because experiments must replay identically forever.
//! * [`Dist`] — service-time / size distributions (constant, uniform,
//!   exponential, Erlang, log-normal, bounded Pareto, mixtures).
//! * [`Zipf`] — skewed popularity sampling.
//! * [`Histogram`], [`WindowedSeries`] — latency metrics with quantile
//!   extraction, over a whole run or per time window.
//!
//! # Example
//!
//! ```
//! use dsb_simcore::{Model, Scheduler, SimDuration, SimTime};
//!
//! struct Pinger {
//!     bounces: u32,
//! }
//!
//! enum Ev {
//!     Ping,
//! }
//!
//! impl Model for Pinger {
//!     type Event = Ev;
//!     fn handle(&mut self, sched: &mut Scheduler<Ev>, _ev: Ev) {
//!         self.bounces += 1;
//!         if self.bounces < 10 {
//!             sched.schedule_in(SimDuration::from_micros(5), Ev::Ping);
//!         }
//!     }
//! }
//!
//! let mut sched = Scheduler::new(42);
//! sched.schedule_at(SimTime::ZERO, Ev::Ping);
//! let mut model = Pinger { bounces: 0 };
//! sched.run(&mut model);
//! assert_eq!(model.bounces, 10);
//! assert_eq!(sched.now(), SimTime::from_micros(45));
//! ```

#![warn(missing_docs)]

mod dist;
mod engine;
pub mod epoch;
mod metrics;
mod rng;
mod series;
mod time;

pub use dist::{Dist, Zipf};
pub use engine::{Model, Scheduler};
pub use epoch::{run_epochs, EpochShard, Outbox, Transfer};
pub use metrics::Histogram;
pub use rng::{mix64, Rng};
pub use series::WindowedSeries;
pub use time::{SimDuration, SimTime};
