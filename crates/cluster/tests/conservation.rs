//! Request-conservation invariants at the cluster layer, checked with
//! `dsb-testkit` generators: whatever the autoscaler and a rate limiter
//! (`Simulation::set_admission`) do to a randomized deployment under
//! randomized load, at drain every injected request is accounted for —
//! `issued == completed + rejected` — and nothing stays in flight.

use dsb_cluster::{Autoscaler, ScalePolicy};
use dsb_core::{
    AppBuilder, AppSpec, ClusterSpec, EndpointRef, RequestType, ServiceId, Simulation, Step,
};
use dsb_simcore::{Dist, SimDuration, SimTime};
use dsb_testkit::{gen, prop, prop_assert, prop_assert_eq, Shrink};
use dsb_uarch::ExecDomain;

/// A generatable chain deployment plus its load: per-tier
/// `(workers, work_us)`, request count, inter-arrival period and seed.
#[derive(Debug, Clone, PartialEq)]
struct Scenario {
    tiers: Vec<(u32, u16)>,
    n_requests: u16,
    period_us: u16,
    seed: u64,
}

impl Shrink for Scenario {
    fn shrink(&self) -> Vec<Self> {
        let mut out = Vec::new();
        if self.tiers.len() > 1 {
            out.push(Scenario {
                tiers: self.tiers[..1].to_vec(),
                ..self.clone()
            });
        }
        for cand in self.n_requests.shrink() {
            out.push(Scenario {
                n_requests: cand,
                ..self.clone()
            });
        }
        for (i, &(w, c)) in self.tiers.iter().enumerate() {
            for cand in [(1, c), (w, 1)] {
                if cand != (w, c) && cand.0 >= 1 && cand.1 >= 1 {
                    let mut s = self.clone();
                    s.tiers[i] = cand;
                    out.push(s);
                }
            }
        }
        out
    }
}

fn arb_scenario(rng: &mut dsb_simcore::Rng) -> Scenario {
    Scenario {
        tiers: gen::vec_with(rng, 1, 3, |r| {
            (gen::u32_in(r, 1, 4), gen::u16_in(r, 10, 800))
        }),
        n_requests: gen::u16_in(rng, 1, 300),
        period_us: gen::u16_in(rng, 50, 2000),
        seed: gen::u64_in(rng, 0, 1 << 20),
    }
}

fn out_of_domain(s: &Scenario) -> bool {
    s.tiers.is_empty()
        || s.n_requests == 0
        || s.period_us == 0
        || s.tiers.iter().any(|&(w, c)| w == 0 || c == 0)
}

fn build(s: &Scenario) -> (AppSpec, EndpointRef) {
    let mut app = AppBuilder::new("chain");
    let mut downstream: Option<EndpointRef> = None;
    for (i, &(workers, work_us)) in s.tiers.iter().enumerate().rev() {
        let svc = app.service(&format!("tier{i}")).workers(workers).build();
        let mut steps = vec![Step::Compute {
            ns: Dist::constant(work_us as f64 * 1000.0),
            domain: ExecDomain::User,
        }];
        if let Some(d) = downstream {
            steps.push(Step::call(d, 128.0));
        }
        downstream = Some(app.endpoint(svc, "op", Dist::constant(256.0), steps));
    }
    (app.build(), downstream.expect("at least one tier"))
}

/// What a managed run accounted at drain.
#[derive(Debug, PartialEq)]
struct Outcome {
    issued: u64,
    completed: u64,
    rejected: u64,
    scale_outs: usize,
}

/// Runs the scenario under management, ticking the given controllers
/// every 50 ms while requests arrive, then drains. The rate limiter
/// admits half the traffic on odd ticks and all of it on even ones.
fn run_managed(s: &Scenario, autoscale: bool, rate_limit: bool) -> Result<Outcome, String> {
    let (spec, entry) = build(s);
    let n_services = spec.service_count();
    let mut cluster = ClusterSpec::xeon_cluster(2, 1);
    cluster.trace_sample_prob = 0.0;
    let mut sim = Simulation::new(spec, cluster, s.seed);
    for i in 0..s.n_requests as u64 {
        sim.inject(
            SimTime::from_micros(i * s.period_us as u64),
            entry,
            RequestType(0),
            128,
            i,
        );
    }
    let mut scaler = Autoscaler::new(ScalePolicy {
        cooldown: SimDuration::from_millis(500),
        max_instances: 6,
        ..ScalePolicy::default()
    });
    if autoscale {
        for i in 0..n_services {
            scaler.manage(ServiceId(i as u32));
        }
    }
    let horizon_us = s.n_requests as u64 * s.period_us as u64;
    let ticks = horizon_us / 50_000 + 2;
    for t in 1..=ticks {
        sim.advance_to(SimTime::from_millis(t * 50));
        if autoscale {
            scaler.tick(&mut sim);
        }
        if rate_limit {
            sim.set_admission(if t % 2 == 1 { 0.5 } else { 1.0 });
        }
    }
    // Stop throttling and drain: in-flight work must finish.
    sim.set_admission(1.0);
    sim.run_until_idle();
    for i in 0..n_services {
        let inflight = sim.service_inflight(ServiceId(i as u32));
        if inflight != 0 {
            return Err(format!("tier{i} still has {inflight} in flight at drain"));
        }
    }
    let st = sim.request_stats(RequestType(0)).expect("stats exist");
    Ok(Outcome {
        issued: st.issued,
        completed: st.completed,
        rejected: st.rejected,
        scale_outs: scaler.events().iter().filter(|e| e.delta == 1).count(),
    })
}

fn conservation_property(s: &Scenario, autoscale: bool, rate_limit: bool) -> Result<(), String> {
    if out_of_domain(s) {
        return Ok(());
    }
    let Outcome {
        issued,
        completed,
        rejected,
        ..
    } = run_managed(s, autoscale, rate_limit)?;
    prop_assert_eq!(
        issued,
        s.n_requests as u64,
        "every injection must be counted in {s:?}"
    );
    prop_assert_eq!(issued, completed + rejected, "requests leaked in {s:?}");
    if !rate_limit {
        prop_assert_eq!(
            rejected,
            0,
            "nothing rejects without a rate limiter in {s:?}"
        );
    }
    Ok(())
}

/// Conservation with no management at all (baseline).
#[test]
fn conservation_unmanaged() {
    prop!(cases = 64, arb_scenario, |s: &Scenario| {
        conservation_property(s, false, false)
    });
}

/// Conservation while an autoscaler adds and retires instances mid-run.
#[test]
fn conservation_under_autoscaling() {
    prop!(cases = 64, arb_scenario, |s: &Scenario| {
        conservation_property(s, true, false)
    });
}

/// Conservation while a rate limiter throttles the entry tier:
/// rejected requests are still accounted, never silently dropped.
#[test]
fn conservation_under_rate_limiting() {
    prop!(cases = 64, arb_scenario, |s: &Scenario| {
        conservation_property(s, false, true)
    });
}

/// Conservation with both managers fighting over the same deployment.
#[test]
fn conservation_under_autoscaling_and_rate_limiting() {
    prop!(cases = 64, arb_scenario, |s: &Scenario| {
        conservation_property(s, true, true)
    });
}

/// The controllers act while requests are in flight: on a fixed
/// overloaded chain the rate limiter rejects and the autoscaler scales
/// out before the arrivals end.
#[test]
fn controllers_act_mid_run() {
    let s = Scenario {
        tiers: vec![(1, 800), (1, 800)],
        n_requests: 300,
        period_us: 200,
        seed: 1,
    };
    let out = run_managed(&s, true, true).expect("drains");
    assert_eq!(out.issued, out.completed + out.rejected, "{out:?}");
    assert!(out.rejected > 0, "rate limiter never rejected: {out:?}");
    assert!(out.scale_outs > 0, "autoscaler never scaled out: {out:?}");
}

/// The managed runs themselves are deterministic: replaying a scenario
/// yields identical accounting.
#[test]
fn managed_runs_are_deterministic() {
    prop!(cases = 32, arb_scenario, |s: &Scenario| {
        if out_of_domain(s) {
            return Ok(());
        }
        let a = run_managed(s, true, true)?;
        let b = run_managed(s, true, true)?;
        prop_assert!(
            a == b,
            "nondeterministic managed run in {s:?}: {a:?} vs {b:?}"
        );
        Ok(())
    });
}
