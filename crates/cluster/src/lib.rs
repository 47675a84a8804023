//! # dsb-cluster — cluster management
//!
//! The paper's §6 studies how microservices interact with cluster managers:
//! utilization-driven autoscaling chases the wrong services when
//! backpressure makes blocked tiers *look* saturated, QoS violations
//! cascade through the dependency graph, and recovery takes far longer than
//! for monoliths. This crate provides the management machinery those
//! experiments exercise:
//!
//! * [`Autoscaler`] — the standard utilization-threshold autoscaler cloud
//!   providers ship (the paper uses EC2's 70 % default): scales a service
//!   out when worker occupancy exceeds the high threshold, in when it falls
//!   below the low one, with per-service cooldowns and instance startup
//!   delays (inherited from `dsb-core`).
//! * [`provision`] — the §3.8 methodology: before characterizing an
//!   application, upsize saturated tiers until every tier saturates at
//!   about the same load.
//! * [`slow_down_machines`] — the Fig. 22c fault: a fraction of servers
//!   silently drop to a low frequency.
//!
//! QoS detection and rate limiting live elsewhere: Fig. 20 reads
//! recovery from `dsb-telemetry`'s SLO alerts, and Fig. 22a throttles
//! with [`Simulation::set_admission`].

#![warn(missing_docs)]

use dsb_core::{InstanceId, ServiceId, Simulation};
use dsb_simcore::{Rng, SimDuration, SimTime};

/// Per-service autoscaling policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalePolicy {
    /// Scale out above this worker occupancy (EC2 default: 0.7).
    pub high: f64,
    /// Scale in below this occupancy.
    pub low: f64,
    /// Never scale below this many instances.
    pub min_instances: usize,
    /// Never scale above this many instances.
    pub max_instances: usize,
    /// Minimum time between scaling actions for one service.
    pub cooldown: SimDuration,
}

impl Default for ScalePolicy {
    fn default() -> Self {
        ScalePolicy {
            high: 0.7,
            low: 0.2,
            min_instances: 1,
            max_instances: 64,
            cooldown: SimDuration::from_secs(15),
        }
    }
}

/// One autoscaler decision, for experiment timelines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleEvent {
    /// When the decision was made.
    pub at: SimTime,
    /// The service acted on.
    pub service: ServiceId,
    /// Occupancy that triggered the action.
    pub occupancy: f64,
    /// `+1` for scale-out, `-1` for scale-in.
    pub delta: i32,
}

/// A utilization-threshold autoscaler.
///
/// Call [`Autoscaler::tick`] periodically (between `advance_to` slices);
/// it samples each managed service's worker occupancy — which counts
/// workers blocked on downstream calls as busy, exactly the misleading
/// signal the paper analyzes — and scales accordingly.
///
/// # Example
///
/// ```
/// use dsb_cluster::{Autoscaler, ScalePolicy};
/// use dsb_core::{AppBuilder, ClusterSpec, Simulation, Step};
/// use dsb_simcore::Dist;
///
/// let mut app = AppBuilder::new("a");
/// let svc = app.service("s").workers(4).build();
/// app.endpoint(svc, "op", Dist::constant(64.0), vec![Step::work_us(100.0)]);
/// let mut sim = Simulation::new(app.build(), ClusterSpec::xeon_cluster(4, 1), 1);
///
/// let mut scaler = Autoscaler::new(ScalePolicy::default());
/// scaler.manage(svc);
/// scaler.tick(&mut sim); // idle: no action
/// assert!(scaler.events().is_empty());
/// ```
#[derive(Debug)]
pub struct Autoscaler {
    policy: ScalePolicy,
    managed: Vec<ServiceId>,
    last_action: Vec<(ServiceId, SimTime)>,
    events: Vec<ScaleEvent>,
    budget_per_tick: usize,
}

impl Autoscaler {
    /// Creates an autoscaler applying `policy` to every managed service.
    pub fn new(policy: ScalePolicy) -> Self {
        Autoscaler {
            policy,
            managed: Vec::new(),
            last_action: Vec::new(),
            events: Vec::new(),
            budget_per_tick: usize::MAX,
        }
    }

    /// Caps scale-out actions per tick (cluster-manager churn limit).
    ///
    /// With a budget, the scaler acts on the most-occupied services first —
    /// and since backpressure makes *blocked* tiers look just as saturated
    /// as the culprit, a deployment with many tiers spends several rounds
    /// scaling the wrong ones (the §6 recovery-time mechanism), while a
    /// monolith's single knob always gets the whole budget.
    pub fn with_budget(mut self, budget_per_tick: usize) -> Self {
        self.budget_per_tick = budget_per_tick.max(1);
        self
    }

    /// Manages `service` with the autoscaler's policy.
    pub fn manage(&mut self, service: ServiceId) {
        self.managed.push(service);
    }

    /// All scaling decisions taken so far.
    pub fn events(&self) -> &[ScaleEvent] {
        &self.events
    }

    fn cooled_down(&self, service: ServiceId, now: SimTime) -> bool {
        self.last_action
            .iter()
            .find(|(s, _)| *s == service)
            .is_none_or(|(_, t)| now.since(*t) >= self.policy.cooldown)
    }

    fn mark_action(&mut self, service: ServiceId, now: SimTime) {
        if let Some(e) = self.last_action.iter_mut().find(|(s, _)| *s == service) {
            e.1 = now;
        } else {
            self.last_action.push((service, now));
        }
    }

    /// Samples occupancies and applies threshold decisions. Scale-outs go
    /// to the most-occupied services first, bounded by the per-tick budget.
    pub fn tick(&mut self, sim: &mut Simulation) {
        let now = sim.now();
        let policy = self.policy;
        let managed = self.managed.clone();
        // Rank scale-out candidates by occupancy (the only signal a
        // utilization-driven manager has).
        let mut candidates: Vec<(ServiceId, f64)> = managed
            .iter()
            .filter(|&&s| self.cooled_down(s, now))
            .map(|&s| (s, sim.occupancy(s)))
            .filter(|&(s, occ)| occ > policy.high && sim.instance_count(s) < policy.max_instances)
            .collect();
        candidates.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("occupancy is finite"));
        for &(service, occ) in candidates.iter().take(self.budget_per_tick) {
            sim.add_instance(service);
            self.mark_action(service, now);
            self.events.push(ScaleEvent {
                at: now,
                service,
                occupancy: occ,
                delta: 1,
            });
        }
        for service in managed {
            if !self.cooled_down(service, now) {
                continue;
            }
            let occ = sim.occupancy(service);
            let count = sim.instance_count(service);
            if occ < policy.low && count > policy.min_instances {
                // Retire the most recently added live instance.
                if let Some(&victim) = sim
                    .instances_of(service)
                    .iter()
                    .rev()
                    .find(|_| count > policy.min_instances)
                {
                    sim.retire_instance(victim);
                    self.mark_action(service, now);
                    self.events.push(ScaleEvent {
                        at: now,
                        service,
                        occupancy: occ,
                        delta: -1,
                    });
                }
            }
        }
    }
}

/// Provisions an application per the paper's §3.8 methodology: repeatedly
/// drive load, find tiers saturated above `threshold`, and upsize them
/// (instantaneously — this is pre-experiment calibration) until no tier is
/// saturated or `max_rounds` is exhausted.
///
/// `drive` must inject the calibration load for the window
/// `[sim.now(), sim.now() + window)`. Returns the number of instances
/// added per round.
pub fn provision(
    sim: &mut Simulation,
    mut drive: impl FnMut(&mut Simulation, SimTime, SimTime),
    services: &[ServiceId],
    threshold: f64,
    window: SimDuration,
    max_rounds: usize,
) -> Vec<usize> {
    let mut added_per_round = Vec::new();
    for _ in 0..max_rounds {
        let from = sim.now();
        let to = from + window;
        drive(sim, from, to);
        sim.advance_to(to);
        let mut added = 0;
        for &svc in services {
            if sim.occupancy(svc) > threshold {
                sim.add_instance_now(svc);
                added += 1;
            }
        }
        added_per_round.push(added);
        if added == 0 {
            break;
        }
    }
    added_per_round
}

/// Slows a deterministic fraction of machines to `ghz` (aggressive power
/// management), returning the affected machines — the Fig. 22c fault.
pub fn slow_down_machines(
    sim: &mut Simulation,
    fraction: f64,
    ghz: f64,
    rng: &mut Rng,
) -> Vec<dsb_core::MachineId> {
    let n = sim.machine_count();
    let target = ((n as f64 * fraction).round() as usize).min(n);
    let mut ids: Vec<usize> = (0..n).collect();
    // Fisher–Yates prefix shuffle.
    for i in 0..target {
        let j = i + rng.index(n - i);
        ids.swap(i, j);
    }
    let mut out = Vec::with_capacity(target);
    for &i in ids.iter().take(target) {
        let id = dsb_core::MachineId(i as u32);
        sim.set_frequency(id, ghz);
        out.push(id);
    }
    out
}

/// Returns `(inst_id, ...)` sugar: scale a service directly to `n` `Up`
/// instances (used when configuring experiments, not as a policy).
pub fn scale_to(sim: &mut Simulation, service: ServiceId, n: usize) -> Vec<InstanceId> {
    let mut added = Vec::new();
    while sim.instance_count(service) < n {
        added.push(sim.add_instance_now(service));
    }
    added
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsb_core::{AppBuilder, ClusterSpec, RequestType, Step};
    use dsb_simcore::Dist;

    fn hot_app() -> (dsb_core::AppSpec, dsb_core::EndpointRef, ServiceId) {
        let mut app = AppBuilder::new("hot");
        let svc = app.service("s").workers(2).build();
        let ep = app.endpoint(
            svc,
            "op",
            Dist::constant(64.0),
            vec![Step::Compute {
                ns: Dist::constant(2_000_000.0),
                domain: dsb_uarch::ExecDomain::User,
            }],
        );
        (app.build(), ep, svc)
    }

    #[test]
    fn autoscaler_scales_out_under_load() {
        let (app, ep, svc) = hot_app();
        let mut sim = Simulation::new(app, ClusterSpec::xeon_cluster(4, 1), 1);
        let mut scaler = Autoscaler::new(ScalePolicy {
            cooldown: SimDuration::from_secs(2),
            ..ScalePolicy::default()
        });
        scaler.manage(svc);
        // Overload: 2 workers x 2ms service => capacity ~1000/s; drive 2000/s.
        let mut t = SimTime::ZERO;
        for step in 0..20 {
            let until = SimTime::from_secs(step + 1);
            while t < until {
                sim.inject(t, ep, RequestType(0), 64, t.as_nanos());
                t += SimDuration::from_micros(500);
            }
            sim.advance_to(until);
            scaler.tick(&mut sim);
        }
        assert!(
            sim.instance_count(svc) > 1,
            "expected scale-out, still {}",
            sim.instance_count(svc)
        );
        assert!(scaler.events().iter().any(|e| e.delta == 1));
    }

    #[test]
    fn autoscaler_scales_in_when_idle() {
        let (app, _ep, svc) = hot_app();
        let mut sim = Simulation::new(app, ClusterSpec::xeon_cluster(4, 1), 1);
        scale_to(&mut sim, svc, 4);
        let mut scaler = Autoscaler::new(ScalePolicy {
            cooldown: SimDuration::from_secs(1),
            min_instances: 1,
            ..ScalePolicy::default()
        });
        scaler.manage(svc);
        for step in 0..10 {
            sim.advance_to(SimTime::from_secs(step + 1));
            scaler.tick(&mut sim);
        }
        assert!(
            sim.instance_count(svc) < 4,
            "expected scale-in, still {}",
            sim.instance_count(svc)
        );
    }

    #[test]
    fn autoscaler_respects_cooldown_and_max() {
        let (app, ep, svc) = hot_app();
        let mut sim = Simulation::new(app, ClusterSpec::xeon_cluster(4, 1), 1);
        let mut scaler = Autoscaler::new(ScalePolicy {
            cooldown: SimDuration::from_secs(1000),
            max_instances: 2,
            ..ScalePolicy::default()
        });
        scaler.manage(svc);
        let mut t = SimTime::ZERO;
        for step in 0..10 {
            let until = SimTime::from_secs(step + 1);
            while t < until {
                sim.inject(t, ep, RequestType(0), 64, 1);
                t += SimDuration::from_micros(300);
            }
            sim.advance_to(until);
            scaler.tick(&mut sim);
        }
        // One action at most (cooldown) and never above max.
        assert!(scaler.events().len() <= 1);
        assert!(sim.instance_count(svc) <= 2);
    }

    #[test]
    fn provision_balances_saturated_tier() {
        let (app, ep, svc) = hot_app();
        let mut sim = Simulation::new(app, ClusterSpec::xeon_cluster(8, 1), 2);
        let added = provision(
            &mut sim,
            |sim, from, to| {
                let mut t = from;
                while t < to {
                    sim.inject(t, ep, RequestType(0), 64, t.as_nanos());
                    t += SimDuration::from_micros(700);
                }
            },
            &[svc],
            0.7,
            SimDuration::from_secs(2),
            10,
        );
        assert!(sim.instance_count(svc) > 1, "provisioning should upsize");
        assert_eq!(*added.last().unwrap(), 0, "should converge");
    }

    #[test]
    fn slow_down_hits_requested_fraction() {
        let (app, _ep, _svc) = hot_app();
        let mut sim = Simulation::new(app, ClusterSpec::xeon_cluster(20, 2), 5);
        let mut rng = Rng::new(9);
        let slowed = slow_down_machines(&mut sim, 0.25, 1.0, &mut rng);
        assert_eq!(slowed.len(), 5);
        let unique: std::collections::BTreeSet<_> = slowed.iter().collect();
        assert_eq!(unique.len(), 5, "no duplicates");
    }

    #[test]
    fn scale_to_reaches_target() {
        let (app, _ep, svc) = hot_app();
        let mut sim = Simulation::new(app, ClusterSpec::xeon_cluster(4, 1), 6);
        scale_to(&mut sim, svc, 5);
        assert_eq!(sim.instance_count(svc), 5);
        scale_to(&mut sim, svc, 2); // never scales down
        assert_eq!(sim.instance_count(svc), 5);
    }
}
