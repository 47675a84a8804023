//! The static-vs-simulation differential oracle.
//!
//! [`check_spec`] takes one [`GenSpec`], computes the analyzer's static
//! predictions ([`CapacityModel`] plus the DSB009/DSB011 verdicts built
//! on it), runs a fixed-seed deterministic simulation of the same spec,
//! and asserts the two agree within stated tolerances. Every failure
//! message is prefixed with an oracle tag (`call-rate:`, `compute:`,
//! `saturation:`, `shards:`, `verdict:`) so sweep failures cluster into
//! disagreement *classes*, and the whole check is a plain
//! `Fn(&GenSpec) -> Result<(), String>` so the testkit shrinker can
//! minimize any disagreement to the smallest spec that still exhibits it.
//!
//! # Tolerances (the documented approximation gap)
//!
//! * **Call rates** — branch-weighted static rates vs completed
//!   invocation counts. Deterministic fan-out is exact; the cache-miss
//!   branch is binomial, so the bound is `0.25·E + 4·√E + 4` around the
//!   expectation `E`.
//! * **Compute conservation** — user-domain busy nanoseconds vs
//!   (measured invocations × per-invocation demand × machine speed
//!   factor), within 5% + 100 µs. Valid even past saturation because the
//!   run drains to idle.
//! * **Saturation** — static bottleneck utilization ≤ 0.8 must drain
//!   near the injection horizon; ≥ 1.25 must overrun it. The band
//!   (0.8, 1.25) is a *tolerated gray zone*: near ρ = 1 queueing noise
//!   dominates and neither verdict is reliable at this run length.
//!   Utilization here is the max of two bounds the first sweeps of this
//!   harness forced into existence: the *network-inclusive* machine
//!   bound (`max_machine_utilization_with_net` — the simulator charges
//!   per-message kernel/library processing to machine cores, so the
//!   compute-only model wildly underpredicts saturation for chatty
//!   low-compute apps) and the *hold-aware* tier bound
//!   (`max_tier_utilization_with_hold` — a blocking mid-tier holds its
//!   worker across downstream round-trips, so a 1-worker tier with a
//!   600 µs callee saturates near 1.6 kqps however small its local
//!   demand). Each verdict uses the bound that is conservative for it:
//!   calm needs the wait-inclusive *upper* bound everywhere ≤ 0.8,
//!   overload needs the no-wait service-path *floor* somewhere ≥ 1.25 —
//!   the M/M/k wait term diverges near a callee's ρ = 1 while a finite
//!   smooth-traffic run never sees that steady state, so wait-inflated
//!   utilizations must never certify overload. DSB009/DSB011
//!   deliberately still report the simpler local-demand / compute-only
//!   budgets.
//! * **Shard balance** — partition tiers fed golden-ratio-spread keys
//!   must split load across shards within 4× of each other.

use dsb_analyzer::{Analyzer, CapacityModel, Code, Severity};
use dsb_core::{RequestType, ServiceId, Simulation, Step};
use dsb_simcore::SimTime;
use dsb_uarch::ExecDomain;

use crate::spec::GenSpec;

/// Seed of every differential simulation: arbitrary but fixed, so a
/// disagreement replays from the `GenSpec` alone.
pub const DIFF_SEED: u64 = 0xD1FF_0001;

/// Simulated seconds of offered load per spec.
const DIFF_SECS: f64 = 2.0;

/// Hard cap on injected requests per spec, so a high-qps spec cannot
/// blow up the sweep's wall-clock.
const MAX_REQS: u64 = 2_000;

/// One finished differential run: the simulation, what was injected,
/// and the static model it must agree with.
struct DiffRun {
    sim: Simulation,
    model: CapacityModel,
    /// Requests injected.
    n: u64,
    /// Injection horizon in seconds (`n / qps`).
    horizon_s: f64,
}

fn run(g: &GenSpec) -> Result<DiffRun, String> {
    let app = g.build();
    let entry = app.mix.entries()[0].entry;
    let qps = g.qps();
    let offered = vec![(entry, qps)];
    let cluster = g.cluster();
    let model = CapacityModel::compute(&app.spec, &offered, Some(&cluster))
        .ok_or("model: generated graph reported as cyclic")?;

    let mut sim_cluster = cluster;
    sim_cluster.trace_sample_prob = 0.0;
    let mut sim = Simulation::new(app.spec.clone(), sim_cluster, DIFF_SEED);
    let n = ((qps * DIFF_SECS).ceil() as u64).clamp(1, MAX_REQS);
    for j in 0..n {
        let at = SimTime::from_nanos((j as f64 * 1e9 / qps) as u64);
        let key = (j + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        sim.inject(at, entry, RequestType(0), 256, key);
    }
    sim.run_until_idle();
    Ok(DiffRun {
        sim,
        model,
        n,
        horizon_s: n as f64 / qps,
    })
}

/// Runs every oracle against one generated spec. `Err` carries the
/// tagged disagreement.
pub fn check_spec(g: &GenSpec) -> Result<(), String> {
    let r = run(g)?;
    check_completion(&r)?;
    check_call_rates(g, &r)?;
    check_compute_conservation(g, &r)?;
    check_saturation(&r)?;
    check_shard_split(g, &r)?;
    check_verdicts(g, &r)?;
    Ok(())
}

/// Sanity: a drained simulation completes everything it issued.
fn check_completion(r: &DiffRun) -> Result<(), String> {
    let st = r
        .sim
        .request_stats(RequestType(0))
        .ok_or("completion: no request stats recorded")?;
    if st.issued != r.n || st.completed != st.issued {
        return Err(format!(
            "completion: injected {} but issued {} / completed {}",
            r.n, st.issued, st.completed
        ));
    }
    Ok(())
}

/// Static branch-weighted endpoint rates vs completed invocation counts.
fn check_call_rates(g: &GenSpec, r: &DiffRun) -> Result<(), String> {
    let app = r.sim.app();
    let per_req = r.n as f64 / g.qps(); // seconds of load actually injected
    for (i, svc) in app.services.iter().enumerate() {
        let st = r.sim.service_stats(ServiceId(i as u32));
        for e in 0..svc.endpoints.len() {
            let expected = r.model.rates[i][e] * per_req;
            let measured = st.endpoint_count(e) as f64;
            let tol = 0.25 * expected + 4.0 * expected.sqrt() + 4.0;
            if (measured - expected).abs() > tol {
                return Err(format!(
                    "call-rate: `{}`/{} expected ~{expected:.1} invocations, measured \
                     {measured:.0} (tolerance {tol:.1})",
                    svc.name, app.services[i].endpoints[e].name,
                ));
            }
        }
    }
    Ok(())
}

/// User-domain busy time vs measured invocations × static demand.
fn check_compute_conservation(g: &GenSpec, r: &DiffRun) -> Result<(), String> {
    let app = r.sim.app();
    let cluster = g.cluster();
    for (i, svc) in app.services.iter().enumerate() {
        let st = r.sim.service_stats(ServiceId(i as u32));
        // Homogeneous cluster: every instance sees the same speed factor.
        let sf = cluster.machines[0].core.speed_factor(&svc.profile);
        let expected: f64 = svc
            .endpoints
            .iter()
            .enumerate()
            .map(|(e, ep)| st.endpoint_count(e) as f64 * user_demand_ns(&ep.script) * sf)
            .sum();
        let measured = st.time_ns[ExecDomain::User.index()];
        let tol = 0.05 * expected + 100_000.0;
        if (measured - expected).abs() > tol {
            return Err(format!(
                "compute: `{}` user-domain busy {measured:.0} ns vs predicted \
                 {expected:.0} ns (tolerance {tol:.0})",
                svc.name,
            ));
        }
    }
    Ok(())
}

/// Mean user-domain compute nanoseconds per invocation, branch-weighted.
fn user_demand_ns(steps: &[Step]) -> f64 {
    Step::mean(steps, &|s| match s {
        Step::Compute { ns, domain } if *domain == ExecDomain::User => ns.mean(),
        _ => 0.0,
    })
}

/// Static bottleneck utilization vs how long the run took to drain,
/// judged with two one-sided bounds so each verdict only uses the bound
/// that is conservative for it:
///
/// * **calm** — the *upper* bound (wait-inclusive hold + net-inclusive
///   machine load) is ≤ 0.8 everywhere ⇒ the makespan must stay near
///   the injection horizon;
/// * **overload** — the *lower* bound (no-wait service-path hold floor,
///   or the machine load, which has no wait term) is ≥ 1.25 somewhere ⇒
///   the drain must overrun the horizon, by work conservation;
/// * anything in between is the documented gray zone — no assertion.
///
/// The split matters because the differential workload is smooth
/// (evenly spaced arrivals, near-constant service times): real queueing
/// sits far below the M/M/k estimate, so a wait-inflated ρ of 1.3 can
/// drain cleanly, while a service-path floor of 1.3 cannot.
fn check_saturation(r: &DiffRun) -> Result<(), String> {
    let rho_m = r.model.max_machine_utilization_with_net();
    let upper = rho_m.max(r.model.max_tier_utilization_with_hold());
    let lower = rho_m.max(r.model.max_tier_utilization_hold_floor());
    let makespan_s = r.sim.now().as_nanos() as f64 / 1e9;
    if upper <= 0.8 && makespan_s > r.horizon_s * 1.3 + 0.5 {
        return Err(format!(
            "saturation: static bottleneck utilization {upper:.2} predicts a clean \
             drain, but the run took {makespan_s:.2}s against a {:.2}s horizon",
            r.horizon_s
        ));
    }
    if lower >= 1.25 && makespan_s < r.horizon_s * 1.05 {
        return Err(format!(
            "saturation: static bottleneck floor utilization {lower:.2} predicts \
             overload, but the run drained in {makespan_s:.2}s within the {:.2}s \
             horizon",
            r.horizon_s
        ));
    }
    Ok(())
}

/// Partition tiers fed well-spread keys must split load across shards.
fn check_shard_split(g: &GenSpec, r: &DiffRun) -> Result<(), String> {
    let app = r.sim.app().clone();
    for (i, svc) in app.services.iter().enumerate() {
        if svc.lb != dsb_core::LbPolicy::Partition {
            continue;
        }
        let counts: Vec<u64> = r
            .sim
            .instances_of(ServiceId(i as u32))
            .into_iter()
            .map(|inst| r.sim.instance_served(inst))
            .collect();
        let total: u64 = counts.iter().sum();
        let shards = counts.len() as u64;
        if shards < 2 || total < 32 * shards {
            continue; // too few requests to judge the split
        }
        let mean = total as f64 / shards as f64;
        let max = *counts.iter().max().expect("non-empty") as f64;
        let min = *counts.iter().min().expect("non-empty") as f64;
        if max > 2.0 * mean || min < mean / 4.0 {
            return Err(format!(
                "shards: `{}` served {counts:?} across {shards} shards under \
                 golden-ratio keys (mean {mean:.0}); the partition router is skewed \
                 (spec {g:?})",
                svc.name,
            ));
        }
    }
    Ok(())
}

/// The DSB009/DSB011 verdicts must be consistent with the public
/// [`CapacityModel`] the diagnostics are documented to be built on —
/// this pins the checks-to-model extraction against drift.
fn check_verdicts(g: &GenSpec, r: &DiffRun) -> Result<(), String> {
    let app = g.build();
    let entry = app.mix.entries()[0].entry;
    let cluster = g.cluster();
    let diags = Analyzer::new(&app.spec)
        .entry(app.frontend)
        .offered(entry, g.qps())
        .cluster(&cluster)
        .run();
    let tier_error = diags
        .iter()
        .any(|d| d.code == Code::TierOverload && d.severity == Severity::Error);
    let model_tier_error = r.model.max_tier_utilization() >= 1.0;
    if tier_error != model_tier_error {
        return Err(format!(
            "verdict: DSB009 error={tier_error} but model max tier utilization \
             {:.3} says {model_tier_error}",
            r.model.max_tier_utilization()
        ));
    }
    let machine_error = diags
        .iter()
        .any(|d| d.code == Code::MachineOvercommit && d.severity == Severity::Error);
    let model_machine_error = r.model.max_machine_utilization() >= 1.0;
    if machine_error != model_machine_error {
        return Err(format!(
            "verdict: DSB011 error={machine_error} but model max machine \
             utilization {:.3} says {model_machine_error}",
            r.model.max_machine_utilization()
        ));
    }
    // Parallel-safety oracles: a generated spec must never carry a
    // circular wait (DSB014), a sub-loopback lookahead edge (DSB015),
    // or an inverted cache-aside write order (DSB016) — the generator
    // only emits layered DAGs, single-rack clusters, and read-only
    // load, so any hit means a check (or the generator) regressed.
    for d in &diags {
        if matches!(
            d.code,
            Code::WaitCycle | Code::ZeroLookahead | Code::WriteVisibilityRace
        ) {
            return Err(format!("verdict: generated spec tripped {d} (spec {g:?})"));
        }
    }
    Ok(())
}

/// A deterministic one-line-per-service summary of the differential run,
/// used by the seed-replay property: two runs of the same spec must
/// produce byte-identical summaries.
pub fn run_summary(g: &GenSpec) -> String {
    let r = match run(g) {
        Ok(r) => r,
        Err(e) => return format!("error: {e}"),
    };
    let app = r.sim.app();
    let mut out = String::new();
    for (i, svc) in app.services.iter().enumerate() {
        let st = r.sim.service_stats(ServiceId(i as u32));
        out.push_str(&format!(
            "{}: inv={} user_ns={:.0}\n",
            svc.name,
            st.invocations,
            st.time_ns[ExecDomain::User.index()]
        ));
    }
    let completed = r
        .sim
        .request_stats(RequestType(0))
        .map_or(0, |st| st.completed);
    out.push_str(&format!(
        "events={} completed={} makespan_ns={}\n",
        r.sim.events_processed(),
        completed,
        r.sim.now().as_nanos()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_passes_every_oracle() {
        check_spec(&GenSpec::default()).expect("default spec must agree");
    }

    #[test]
    fn summary_is_deterministic() {
        let g = GenSpec::sample(11);
        assert_eq!(run_summary(&g), run_summary(&g));
    }

    #[test]
    fn saturated_spec_overruns_the_horizon() {
        // Heavy handlers on a single-core machine, so 1.5x utilization
        // is reachable inside the clamped qps range.
        let mut g = GenSpec {
            work_us: 300.0,
            machines: 1,
            cores: 1,
            ..GenSpec::default()
        };
        g.qps = g.qps_for_utilization(1.5);
        let r = run(&g).expect("runs");
        let util = r
            .model
            .max_tier_utilization_hold_floor()
            .max(r.model.max_machine_utilization_with_net());
        assert!(util >= 1.25, "calibration should overload: {util}");
        check_spec(&g).expect("oracles must hold under saturation too");
    }
}
