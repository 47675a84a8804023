//! # dsb-perfsuite — the simulator's layered host-time benchmark
//!
//! Four workloads (see [`workloads::ALL`]) each run in a fresh child
//! process and report end-to-end host metrics ([`END_TO_END`]); a traced
//! run adds a per-layer split ([`PER_LAYER`]) timed from this package
//! around public calls into `simcore`, `workload`, `core`, `trace` and
//! `telemetry`. Every run's deterministic digest is checked: against
//! the pinned digests in `digests.txt` at their seed, and for
//! conservation (and perfect fault detection) at any seed.
//!
//! Usage is in `README.md` next to this package's `Cargo.toml`.

#![warn(missing_docs)]

pub mod digest;
pub mod kernels;
pub mod stats;
pub mod trace;
pub mod workloads;

/// An end-to-end metric with its regression bound.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Whether a larger value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which it may get worse.
    pub bound: f64,
}

const fn metric(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: higher,
        bound,
    }
}

/// End-to-end metrics, all host-side: what a user running the simulator
/// waits for and pays in memory. The same list, with the same bounds,
/// is in `BENCHMARK.json`.
pub const END_TO_END: [Metric; 5] = [
    metric("sim_req_per_s", "req/s", true, 0.25),
    metric("tick_ms_p50", "ms", false, 0.25),
    metric("tick_ms_p90", "ms", false, 0.25),
    metric("peak_rss_mb", "MB", false, 0.10),
    metric("setup_s", "s", false, 0.25),
];

/// Per-layer metrics measured on every workload, reported by a traced
/// run as `(name, unit)`. Layer metrics that exist only on some
/// workloads (`telemetry.*`, `simcore.epoch_overhead`, counts) are
/// printed, not listed here.
pub const PER_LAYER: [(&str, &str); 14] = [
    ("simcore.wheel_ns_per_event", "ns"),
    ("simcore.lognormal_ns_per_sample", "ns"),
    ("simcore.histogram_ns_per_record", "ns"),
    ("workload.drive_s", "s"),
    ("workload.ns_per_inject", "ns"),
    ("core.setup_s", "s"),
    ("core.advance_s", "s"),
    ("core.advance_ns_per_event", "ns"),
    ("core.advance_ns_per_event_q1", "ns"),
    ("core.advance_ns_per_event_q4", "ns"),
    ("core.advance_growth", "ratio"),
    ("core.drain_s", "s"),
    ("trace.clone_ms", "ms"),
    ("bench.tracing_overhead", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root states the same metrics.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for m in END_TO_END {
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            let line = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\", \"bound\": {}}}",
                m.name, m.unit, m.bound
            );
            assert!(json.contains(&line), "BENCHMARK.json lacks {line}");
        }
        for (name, unit) in PER_LAYER {
            let line =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"lower\"}}");
            assert!(json.contains(&line), "BENCHMARK.json lacks {line}");
        }
        for w in workloads::ALL {
            assert!(json.contains(&format!("{{\"name\": \"{}\", ", w.name())));
        }
    }
}
