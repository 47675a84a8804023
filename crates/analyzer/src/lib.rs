//! # dsb-analyzer — static validation of application & cluster specs
//!
//! The paper's hardest-to-debug behaviours — backpressure through
//! blocking connection pools (Fig. 17), cascading QoS violations
//! (Figs. 19–20), and skew concentrating load on sharded back-ends
//! (Fig. 22b) — all originate in *statically knowable* properties of the
//! service dependency graph. This crate checks those properties before a
//! single event is simulated and reports structured [`Diagnostic`]s:
//!
//! | Code | Check | Severity |
//! |---|---|---|
//! | DSB001 | call-graph cycle | error |
//! | DSB002 | blocking pool backpressure potential (Fig. 17 case B) | warning |
//! | DSB003 | fan-out degree oversubscribes the callee's worker pool | warning |
//! | DSB004 | service unreachable from any entry point | warning |
//! | DSB005 | dangling [`EndpointRef`](dsb_core::EndpointRef) | error |
//! | DSB006 | parallel fan-out toward a blocking-connection protocol | error |
//! | DSB007 | same-host IPC edge crossing zones | warning |
//! | DSB008 | partition load-balancing over a single instance | warning |
//! | DSB009 | offered load vs aggregate tier capacity | warning/error |
//! | DSB010 | endpoint never called by any script | warning |
//! | DSB011 | placement overcommits a machine's core budget | warning/error |
//! | DSB012 | critical-path queueing beyond per-tier Erlang-C (calibration sim) | warning |
//! | DSB013 | SLO burn's runtime culprit differs from the spec-predicted bottleneck | warning |
//! | DSB014 | circular wait across blocking worker/connection pools (deadlock) | error |
//! | DSB015 | zero/sub-loopback lookahead edge blocks parallel sharding | warning |
//! | DSB016 | cross-shard write-visibility window (cache set before durable write) | warning |
//! | DSB017 | sole cache tier with replication factor 1 (no fault tolerance) | warning |
//!
//! Entry points: [`analyze`] for pure spec checks, [`Analyzer`] to add
//! entry-point and offered-load context, and
//! [`model::lookahead_certificate`] for the per-app parallel-lookahead
//! certificate DSB015 is built on. The root package's
//! `tests/analyzer_report.rs` runs both over the eight built-in
//! applications on the golden traces' reference cluster: each must
//! analyze clean, and both reports are pinned by golden fixtures.

#![warn(missing_docs)]

pub mod checks;
pub mod model;

pub use checks::{analyze, Analyzer};
pub use model::{lookahead_certificate, CapacityModel, LookaheadCertificate};

use std::fmt;

use dsb_core::ServiceId;

/// How bad a diagnostic is.
///
/// A built-in application may carry neither: `tests/analyzer_report.rs`
/// fails on any diagnostic of one, warning or error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but simulatable; the shape the paper warns about.
    Warning,
    /// The spec is wrong: it cannot mean what its author intended.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Stable identifier of one diagnostic class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// DSB001: cycle in the service call graph.
    CallCycle,
    /// DSB002: a blocking tier's fixed pool can exhaust while holding
    /// callers' connections (the Fig. 17 backpressure shape).
    BlockingBackpressure,
    /// DSB003: expected fan-out degree exceeds the callee's total workers.
    FanoutOversubscription,
    /// DSB004: service unreachable from every entry point.
    UnreachableService,
    /// DSB005: call target names a service/endpoint that does not exist.
    DanglingEndpoint,
    /// DSB006: `ParCall`/`FanCall` toward a blocking-connection protocol.
    ParallelToBlocking,
    /// DSB007: same-host IPC edge whose two ends prefer different zones.
    IpcCrossZone,
    /// DSB008: partition load-balancing with a single instance.
    PartitionDegenerate,
    /// DSB009: offered load exceeds (or nears) a tier's worker capacity.
    TierOverload,
    /// DSB010: endpoint that no behaviour script ever calls.
    UnusedEndpoint,
    /// DSB011: resident tiers' compute demand overcommits one machine's
    /// core budget under the deterministic placement plan.
    MachineOvercommit,
    /// DSB012: a calibration simulation measured queueing on a blocking
    /// fan-out chain far beyond what per-tier Erlang-C admits.
    CriticalPathQueueing,
    /// DSB013: a calibration simulation burned the SLO and the telemetry
    /// root-cause engine named a culprit tier *different* from the tier
    /// static capacity analysis predicts as the bottleneck — the
    /// Fig. 17/18 divergence between where latency is billed and what
    /// causes it.
    QosCulpritMismatch,
    /// DSB014: a cycle in the *resource-holding* call graph — every edge
    /// on it holds a finite pool slot (blocking worker or blocking
    /// connection) across its downstream call, so the loop can deadlock
    /// once all pools drain. The static dual of Fig. 17 backpressure.
    WaitCycle,
    /// DSB015: a cross-machine edge whose guaranteed minimum network
    /// delay is zero (same-host-only protocol spanning shards) or below
    /// the loopback epoch floor — it would force a conservative parallel
    /// engine into lock-step.
    ZeroLookahead,
    /// DSB016: a write path that updates a cache shard before the
    /// durable store backing it (established by read paths that consult
    /// the cache first), opening a window in which a remote reader can
    /// refill the cache from pre-write state.
    WriteVisibilityRace,
    /// DSB017: a spec's *only* cache tier (the target of some
    /// `CacheLookup` step) runs a single instance. Losing that one
    /// replica — a `ChaosPlan` cache-loss or machine crash — forces
    /// every lookup in the app onto the miss path at once, the
    /// thundering-herd refill the paper's failure studies warn about.
    SingleReplicaCache,
}

impl Code {
    /// The stable `DSBnnn` code string.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::CallCycle => "DSB001",
            Code::BlockingBackpressure => "DSB002",
            Code::FanoutOversubscription => "DSB003",
            Code::UnreachableService => "DSB004",
            Code::DanglingEndpoint => "DSB005",
            Code::ParallelToBlocking => "DSB006",
            Code::IpcCrossZone => "DSB007",
            Code::PartitionDegenerate => "DSB008",
            Code::TierOverload => "DSB009",
            Code::UnusedEndpoint => "DSB010",
            Code::MachineOvercommit => "DSB011",
            Code::CriticalPathQueueing => "DSB012",
            Code::QosCulpritMismatch => "DSB013",
            Code::WaitCycle => "DSB014",
            Code::ZeroLookahead => "DSB015",
            Code::WriteVisibilityRace => "DSB016",
            Code::SingleReplicaCache => "DSB017",
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding of the analyzer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The diagnostic class.
    pub code: Code,
    /// Error or warning.
    pub severity: Severity,
    /// The service the finding is anchored to (`None`: app-wide).
    pub service: Option<ServiceId>,
    /// Name of that service (empty when app-wide).
    pub service_name: String,
    /// The endpoint involved, if the finding is endpoint-scoped.
    pub endpoint: Option<String>,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// Sort key: service id first, then code — the stable order required
    /// for golden-testable reports (ties broken by endpoint and message).
    fn key(&self) -> (u32, Code, &str, &str) {
        (
            self.service.map_or(u32::MAX, |s| s.0),
            self.code,
            self.endpoint.as_deref().unwrap_or(""),
            &self.message,
        )
    }
}

impl PartialOrd for Diagnostic {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Diagnostic {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}] ", self.severity, self.code)?;
        if !self.service_name.is_empty() {
            write!(f, "{}", self.service_name)?;
            if let Some(ep) = &self.endpoint {
                write!(f, "/{ep}")?;
            }
            write!(f, ": ")?;
        }
        f.write_str(&self.message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(code: Code, sev: Severity, svc: Option<u32>, msg: &str) -> Diagnostic {
        Diagnostic {
            code,
            severity: sev,
            service: svc.map(ServiceId),
            service_name: svc.map_or(String::new(), |s| format!("svc{s}")),
            endpoint: None,
            message: msg.to_string(),
        }
    }

    #[test]
    fn display_is_stable() {
        let d = diag(Code::CallCycle, Severity::Error, Some(3), "a -> b -> a");
        assert_eq!(d.to_string(), "error[DSB001] svc3: a -> b -> a");
        let d = diag(Code::TierOverload, Severity::Warning, None, "app-wide");
        assert_eq!(d.to_string(), "warning[DSB009] app-wide");
    }

    #[test]
    fn ordering_is_service_then_code() {
        let mut v = [
            diag(Code::UnusedEndpoint, Severity::Warning, Some(2), "z"),
            diag(Code::CallCycle, Severity::Error, Some(2), "a"),
            diag(Code::DanglingEndpoint, Severity::Error, Some(1), "b"),
            diag(Code::CallCycle, Severity::Error, None, "app-wide"),
        ];
        v.sort();
        assert_eq!(v[0].service, Some(ServiceId(1)));
        assert_eq!(v[1].code, Code::CallCycle);
        assert_eq!(v[1].service, Some(ServiceId(2)));
        assert_eq!(v[2].code, Code::UnusedEndpoint);
        assert_eq!(v[3].service, None, "app-wide findings sort last");
    }

    #[test]
    fn codes_are_unique_and_stable() {
        let all = [
            Code::CallCycle,
            Code::BlockingBackpressure,
            Code::FanoutOversubscription,
            Code::UnreachableService,
            Code::DanglingEndpoint,
            Code::ParallelToBlocking,
            Code::IpcCrossZone,
            Code::PartitionDegenerate,
            Code::TierOverload,
            Code::UnusedEndpoint,
            Code::MachineOvercommit,
            Code::CriticalPathQueueing,
            Code::QosCulpritMismatch,
            Code::WaitCycle,
            Code::ZeroLookahead,
            Code::WriteVisibilityRace,
            Code::SingleReplicaCache,
        ];
        let strs: Vec<_> = all.iter().map(|c| c.as_str()).collect();
        let unique: std::collections::BTreeSet<_> = strs.iter().collect();
        assert_eq!(unique.len(), all.len());
        assert!(strs.iter().all(|s| s.starts_with("DSB") && s.len() == 6));
    }
}
