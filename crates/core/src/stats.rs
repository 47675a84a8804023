//! Runtime statistics: per-service execution accounting and per-request-
//! type latency.

use dsb_simcore::{Histogram, SimDuration, SimTime, WindowedSeries};
use dsb_uarch::ExecDomain;

/// Execution accounting for one service, across all of its instances.
///
/// Every compute job charges its duration to an [`ExecDomain`] bucket, in
/// three currencies: actual core-time nanoseconds, cycles (time × the
/// executing core's frequency), and instructions (derived from the
/// reference-core time and the service's IPC there). Figs. 3, 10 and 14
/// are read straight out of these counters.
#[derive(Debug, Clone, Default)]
pub struct ServiceStats {
    /// Core-busy nanoseconds per domain.
    pub time_ns: [f64; 4],
    /// Cycles per domain.
    pub cycles: [f64; 4],
    /// Instructions per domain.
    pub instructions: [f64; 4],
    /// Completed invocations.
    pub invocations: u64,
    /// Completed invocations per endpoint index (grows on demand; an
    /// endpoint that never completed may be absent). Lets tests assert
    /// that e.g. both halves of a cache's get/set pair see traffic.
    pub endpoint_invocations: Vec<u64>,
    /// Requests dropped at this service (admission control).
    pub dropped: u64,
    /// Cache lookups forced to the miss path because the request's home
    /// shard of this (cache) service was down or refilling cold after a
    /// `ChaosPlan` fault. Always 0 for non-cache tiers and fault-free
    /// runs.
    pub refill_misses: u64,
}

impl ServiceStats {
    pub(crate) fn charge(
        &mut self,
        domain: ExecDomain,
        actual_ns: f64,
        freq_ghz: f64,
        ref_ns: f64,
        ref_ipc: f64,
        ref_freq_ghz: f64,
    ) {
        let d = domain.index();
        self.time_ns[d] += actual_ns;
        self.cycles[d] += actual_ns * freq_ghz;
        self.instructions[d] += ref_ns * ref_freq_ghz * ref_ipc;
    }

    /// Folds another shard's accounting for the same service into this
    /// one. Summation order is the caller's responsibility: merging
    /// shards in a fixed order (0, 1, 2, …) keeps the floating-point
    /// sums bit-identical across runs and worker counts.
    pub(crate) fn merge(&mut self, other: &ServiceStats) {
        for d in 0..4 {
            self.time_ns[d] += other.time_ns[d];
            self.cycles[d] += other.cycles[d];
            self.instructions[d] += other.instructions[d];
        }
        self.invocations += other.invocations;
        if other.endpoint_invocations.len() > self.endpoint_invocations.len() {
            self.endpoint_invocations
                .resize(other.endpoint_invocations.len(), 0);
        }
        for (a, &b) in self
            .endpoint_invocations
            .iter_mut()
            .zip(&other.endpoint_invocations)
        {
            *a += b;
        }
        self.dropped += other.dropped;
        self.refill_misses += other.refill_misses;
    }

    /// Completed invocations of endpoint index `e` (0 if none completed).
    pub fn endpoint_count(&self, e: usize) -> u64 {
        self.endpoint_invocations.get(e).copied().unwrap_or(0)
    }

    /// Total core-busy nanoseconds across domains.
    pub fn total_time_ns(&self) -> f64 {
        self.time_ns.iter().sum()
    }

    /// Fraction of core time in the given domain (0 if no time recorded).
    pub fn time_fraction(&self, domain: ExecDomain) -> f64 {
        let total = self.total_time_ns();
        if total == 0.0 {
            0.0
        } else {
            self.time_ns[domain.index()] / total
        }
    }

    /// Fraction of cycles in the given domain.
    pub fn cycle_fraction(&self, domain: ExecDomain) -> f64 {
        let total: f64 = self.cycles.iter().sum();
        if total == 0.0 {
            0.0
        } else {
            self.cycles[domain.index()] / total
        }
    }

    /// Fraction of instructions in the given domain.
    pub fn instruction_fraction(&self, domain: ExecDomain) -> f64 {
        let total: f64 = self.instructions.iter().sum();
        if total == 0.0 {
            0.0
        } else {
            self.instructions[domain.index()] / total
        }
    }

    /// Effective IPC over the run (instructions / cycles).
    pub fn effective_ipc(&self) -> f64 {
        let cycles: f64 = self.cycles.iter().sum();
        if cycles == 0.0 {
            0.0
        } else {
            self.instructions.iter().sum::<f64>() / cycles
        }
    }
}

/// End-to-end latency statistics for one request type.
#[derive(Debug, Clone)]
pub struct RequestStats {
    /// Requests injected.
    pub issued: u64,
    /// Requests completed (response reached the client).
    pub completed: u64,
    /// Requests rejected by admission control.
    pub rejected: u64,
    /// Requests that failed fast: some tier on the request's path was
    /// crashed, partitioned away, or had no live instance, and the error
    /// propagated back to the client instead of a response. Always 0
    /// without an installed `ChaosPlan`.
    pub failed: u64,
    /// End-to-end latency distribution, ns.
    pub latency: Histogram,
    /// Per-window latency (ns), for timelines.
    pub windows: WindowedSeries,
}

impl RequestStats {
    pub(crate) fn new(window: SimDuration) -> Self {
        RequestStats {
            issued: 0,
            completed: 0,
            rejected: 0,
            failed: 0,
            latency: Histogram::default(),
            windows: WindowedSeries::new(window),
        }
    }

    pub(crate) fn complete(&mut self, at: SimTime, latency: SimDuration) {
        self.completed += 1;
        self.latency.record(latency.as_nanos());
        self.windows.record(at, latency.as_nanos());
    }

    pub(crate) fn fail(&mut self, _at: SimTime) {
        self.failed += 1;
    }

    /// The p99 end-to-end latency over the whole run.
    pub fn p99(&self) -> SimDuration {
        self.latency.quantile_duration(0.99)
    }

    /// Fraction of issued requests that completed.
    pub fn completion_rate(&self) -> f64 {
        if self.issued == 0 {
            0.0
        } else {
            self.completed as f64 / self.issued as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_accumulates_three_currencies() {
        let mut s = ServiceStats::default();
        s.charge(ExecDomain::Kernel, 1000.0, 2.4, 800.0, 1.5, 2.4);
        s.charge(ExecDomain::User, 3000.0, 2.4, 3000.0, 1.5, 2.4);
        assert_eq!(s.time_ns[ExecDomain::Kernel.index()], 1000.0);
        assert!((s.cycles[ExecDomain::Kernel.index()] - 2400.0).abs() < 1e-9);
        assert!((s.instructions[ExecDomain::User.index()] - 10800.0).abs() < 1e-9);
        assert!((s.time_fraction(ExecDomain::User) - 0.75).abs() < 1e-9);
        assert!((s.cycle_fraction(ExecDomain::User) - 0.75).abs() < 1e-9);
        let f = s.instruction_fraction(ExecDomain::Kernel);
        assert!(f > 0.0 && f < 1.0);
        assert!(s.effective_ipc() > 0.0);
    }

    #[test]
    fn fractions_zero_when_empty() {
        let s = ServiceStats::default();
        assert_eq!(s.time_fraction(ExecDomain::User), 0.0);
        assert_eq!(s.cycle_fraction(ExecDomain::User), 0.0);
        assert_eq!(s.effective_ipc(), 0.0);
    }

    #[test]
    fn request_stats_latency() {
        let mut r = RequestStats::new(SimDuration::from_secs(1));
        r.issued = 2;
        r.complete(SimTime::from_millis(10), SimDuration::from_millis(5));
        assert_eq!(r.completed, 1);
        assert_eq!(r.completion_rate(), 0.5);
        assert!(r.p99() >= SimDuration::from_millis(4));
        assert_eq!(r.windows.count(0), 1);
    }
}
