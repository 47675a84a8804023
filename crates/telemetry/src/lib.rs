//! # dsb-telemetry — the simulator's observability plane
//!
//! The paper's methodology hinges on always-on, low-overhead monitoring:
//! per-tier tracing with < 0.1 % latency overhead (§4) is what lets it
//! attribute tail-latency growth to cascading backpressure across
//! dependent tiers (§7, Figs. 17–18). This crate is that monitoring
//! stack for the simulator, built in four layers:
//!
//! * [`Registry`] — a deterministic metrics store: counters and gauges
//!   keyed by `(service, machine, target, rtype)` labels, each
//!   a timeline of per-window `(sum, count)` integers (16 B a window).
//! * [`Scraper`] — polls a [`dsb_core::Simulation`] through *read-only*
//!   hooks (worker-queue depth, in-flight requests, connection-pool
//!   occupancy, per-machine core usage, drops) at a fixed sim-time
//!   interval. Because the hooks never touch the RNG or the event queue,
//!   attaching a scraper cannot perturb a run: collection is cost-free
//!   in simulated time and results stay byte-identical.
//! * [`Slo`] / [`evaluate`] — per-app latency objectives checked with
//!   SRE-style multi-window burn rates, firing deterministic [`Alert`]s.
//! * [`diagnose`] — joins a firing alert with the sampled traces over
//!   the alert window: walks [`dsb_trace::critical_path`] attributions,
//!   then follows saturated connection pools *downstream* to name the
//!   culprit tier (the Fig. 17 diagnosis: the tier the time is billed to
//!   is not the tier causing the wait). Under an installed
//!   [`dsb_core::ChaosPlan`] the diagnosis also carries
//!   [`FaultEvidence`] read back from the chaos metric series.
//! * [`score`] — grades the plane as a *detector*: joins fired alerts
//!   and diagnoses against the ground-truth `ChaosPlan`, yielding
//!   precision, recall, per-fault time-to-detect, and the measured
//!   recovery time against each SLO.
//!
//! [`report::jsonl`] and [`report::top`] export everything as JSONL (one
//! object per scrape/alert/root-cause) and a `dsb-top`-style text table;
//! the `dsb-report` binary in `dsb-experiments` fronts them.

#![warn(missing_docs)]

mod detect;
mod registry;
mod rootcause;
mod scrape;
mod slo;

pub mod report;

pub use detect::{score, Detection, DetectionScore};
pub use registry::{names, Kind, Labels, Registry};
pub use rootcause::{critical_path_totals, diagnose, FaultEvidence, RootCause, TierEvidence};
pub use scrape::Scraper;
pub use slo::{evaluate, Alert, BurnRule, Slo};
