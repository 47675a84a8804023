//! Deterministic instance-to-machine placement.
//!
//! The paper's cluster experiments (Figs. 17–22) depend on *where*
//! instances land: several hot tiers sharing one machine can overcommit
//! its cores even when every pool looks healthy in isolation. Placement
//! here is a pure function of the cluster and the order instances are
//! provisioned in — no randomness, no wall clock — so a simulation run
//! and a static analysis pass ([`PlacementPlan::compute`]) agree exactly
//! on the assignment.
//!
//! The placer walks candidate machines (filtered by the service's
//! `zone_pref`) round-robin and picks the first whose remaining core
//! budget fits the instance's worker demand (its fixed workers, capped
//! at the machine size); when nothing fits it falls back to the
//! least-loaded candidate (most remaining budget, lowest machine id on
//! ties), which keeps spreading deterministic once a cluster is
//! saturated. Placement decisions are never revisited: adding an
//! instance cannot relocate an existing one (scale-out stability,
//! mirrored after the shard-stable partition routing of
//! `LbPolicy::Partition`).

use dsb_net::Zone;

use crate::spec::{
    AppSpec, ClusterSpec, InstanceId, MachineId, ServiceId, ServiceSpec, WorkerPolicy,
};

/// Per-service placement hint (the paper's deployment tables pin some
/// tiers together, e.g. one full sensor-to-controller stack per drone).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementHint {
    /// No affinity: spread over the zone candidates.
    #[default]
    Spread,
    /// Co-locate instance `k` with instance `k mod n` of the named
    /// service (which must be declared — and therefore placed — first).
    CoLocate(ServiceId),
}

/// Cores an on-demand (serverless) instance reserves: it has no fixed
/// pool, so budget a small slice rather than zero or a whole machine.
const ON_DEMAND_DEMAND: u32 = 2;

fn core_demand(spec: &ServiceSpec) -> u32 {
    match &spec.workers {
        WorkerPolicy::Fixed(n) => (*n).max(1),
        WorkerPolicy::OnDemand { .. } => ON_DEMAND_DEMAND,
    }
}

/// The incremental placement engine. [`crate::Simulation`] owns one and
/// consults it on every `spawn_instance`; [`PlacementPlan::compute`]
/// drives a fresh one over a whole app to predict the same assignment
/// statically.
#[derive(Debug)]
pub struct Placer {
    zones: Vec<Zone>,
    cores: Vec<u32>,
    /// Remaining core budget per machine; goes negative once the
    /// fallback path overcommits a saturated cluster.
    remaining: Vec<i64>,
    rr: usize,
    /// Machines assigned so far, per service, in instance order.
    placed: Vec<Vec<MachineId>>,
}

impl Placer {
    /// A placer for `cluster` hosting an app of `services` services.
    pub fn new(cluster: &ClusterSpec, services: usize) -> Self {
        Placer {
            zones: cluster.machines.iter().map(|m| m.zone).collect(),
            cores: cluster.machines.iter().map(|m| m.cores).collect(),
            remaining: cluster.machines.iter().map(|m| m.cores as i64).collect(),
            rr: 0,
            placed: vec![Vec::new(); services],
        }
    }

    /// Picks a machine for the next instance of `service` and records
    /// the decision. Deterministic; never relocates earlier decisions.
    ///
    /// # Panics
    ///
    /// Panics if no machine satisfies the service's `zone_pref`.
    pub fn place(&mut self, service: ServiceId, spec: &ServiceSpec) -> MachineId {
        let demand = core_demand(spec);
        // Paper-style affinity: ride along with the anchor service.
        if let PlacementHint::CoLocate(anchor) = spec.placement {
            let anchored = self
                .placed
                .get(anchor.0 as usize)
                .filter(|v| !v.is_empty())
                .map(|v| v[self.placed[service.0 as usize].len() % v.len()]);
            if let Some(m) = anchored {
                self.charge(service, m, demand);
                return m;
            }
        }
        let candidates: Vec<usize> = (0..self.zones.len())
            .filter(|&i| match spec.zone_pref {
                Some(z) => self.zones[i] == z,
                None => !matches!(self.zones[i], Zone::Edge),
            })
            .collect();
        assert!(
            !candidates.is_empty(),
            "no machine available for service {} (zone pref {:?})",
            spec.name,
            spec.zone_pref
        );
        let start = self.rr % candidates.len();
        let fit = (0..candidates.len())
            .map(|k| candidates[(start + k) % candidates.len()])
            .find(|&m| {
                // A demand larger than the machine can never fit; budget
                // what the machine can give.
                self.remaining[m] >= demand.min(self.cores[m]) as i64
            });
        let chosen = match fit {
            Some(m) => {
                self.rr += 1;
                m
            }
            // Cluster saturated: least-loaded candidate (most remaining
            // budget; lowest id breaks ties because max_by_key returns
            // the *last* maximum).
            None => *candidates
                .iter()
                .rev()
                .max_by_key(|&&m| self.remaining[m])
                .expect("candidates is non-empty"),
        };
        let m = MachineId(chosen as u32);
        self.charge(service, m, demand);
        m
    }

    fn charge(&mut self, service: ServiceId, m: MachineId, demand: u32) {
        let i = m.0 as usize;
        self.remaining[i] -= demand.min(self.cores[i]) as i64;
        self.placed[service.0 as usize].push(m);
    }

    /// Machines assigned to `service` so far, in instance order.
    pub fn machines_of(&self, service: ServiceId) -> &[MachineId] {
        &self.placed[service.0 as usize]
    }
}

/// The static placement of an app's initial instances: replays exactly
/// what [`crate::Simulation::new`] does (services in id order, each
/// spawning `initial_instances` instances), so the analyzer reasons
/// about the same machines the simulator uses.
#[derive(Debug, Clone)]
pub struct PlacementPlan {
    /// `(service, machine)` per [`InstanceId`], in provisioning order.
    assignments: Vec<(ServiceId, MachineId)>,
    per_service: Vec<Vec<MachineId>>,
}

impl PlacementPlan {
    /// Computes the initial placement of `app` on `cluster`.
    ///
    /// # Panics
    ///
    /// Panics if some service has no machine satisfying its `zone_pref`.
    pub fn compute(app: &AppSpec, cluster: &ClusterSpec) -> Self {
        let mut placer = Placer::new(cluster, app.services.len());
        let mut assignments = Vec::new();
        for (i, svc) in app.services.iter().enumerate() {
            let sid = ServiceId(i as u32);
            for _ in 0..svc.initial_instances {
                assignments.push((sid, placer.place(sid, svc)));
            }
        }
        PlacementPlan {
            assignments,
            per_service: placer.placed,
        }
    }

    /// All `(service, machine)` assignments, indexed by [`InstanceId`].
    pub fn instances(&self) -> &[(ServiceId, MachineId)] {
        &self.assignments
    }

    /// The machine hosting instance `inst`.
    pub fn machine_of(&self, inst: InstanceId) -> MachineId {
        self.assignments[inst.0 as usize].1
    }

    /// Machines hosting `service`, in instance order.
    pub fn machines_of(&self, service: ServiceId) -> &[MachineId] {
        &self.per_service[service.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::AppBuilder;
    use dsb_simcore::Dist;

    fn app_of(workers: &[u32]) -> AppSpec {
        let mut app = AppBuilder::new("p");
        for (i, &w) in workers.iter().enumerate() {
            let id = app.service(&format!("s{i}")).workers(w).build();
            app.endpoint(id, "run", Dist::constant(64.0), vec![]);
        }
        app.build()
    }

    fn cluster_of(cores: &[u32]) -> ClusterSpec {
        let mut c = ClusterSpec::xeon_cluster(cores.len() as u32, 1);
        for (m, &k) in c.machines.iter_mut().zip(cores) {
            m.cores = k;
        }
        c
    }

    #[test]
    fn first_fit_respects_budgets_then_falls_back_least_loaded() {
        // Three 8-worker services on two 8-core machines: the first two
        // fill both machines; the third falls back to the least loaded
        // (a tie, so the lowest machine id).
        let app = app_of(&[8, 8, 8]);
        let plan = PlacementPlan::compute(&app, &cluster_of(&[8, 8]));
        let machines: Vec<u32> = plan.instances().iter().map(|&(_, m)| m.0).collect();
        assert_eq!(machines, vec![0, 1, 0]);
    }

    #[test]
    fn round_robin_cursor_skips_full_machines() {
        // 4-core demands on [8, 4, 8]: round-robin lands 0, 1, 2, then
        // machine 1 is full so the fourth placement skips to machine 0.
        let app = app_of(&[4, 4, 4, 4]);
        let plan = PlacementPlan::compute(&app, &cluster_of(&[8, 4, 8]));
        let machines: Vec<u32> = plan.instances().iter().map(|&(_, m)| m.0).collect();
        assert_eq!(machines, vec![0, 1, 2, 0]);
    }

    #[test]
    fn oversized_demand_is_capped_at_machine_size() {
        // A 64-worker service still fits a 40-core machine (its demand
        // is capped), it just consumes the whole budget.
        let app = app_of(&[64, 4]);
        let plan = PlacementPlan::compute(&app, &cluster_of(&[40, 40]));
        let machines: Vec<u32> = plan.instances().iter().map(|&(_, m)| m.0).collect();
        assert_eq!(machines, vec![0, 1]);
    }

    #[test]
    fn colocate_follows_anchor_modulo_instances() {
        let mut app = AppBuilder::new("p");
        let anchor = app.service("anchor").workers(2).instances(3).build();
        app.endpoint(anchor, "run", Dist::constant(1.0), vec![]);
        let rider = app
            .service("rider")
            .workers(2)
            .instances(6)
            .colocate_with(anchor)
            .build();
        app.endpoint(rider, "run", Dist::constant(1.0), vec![]);
        let spec = app.build();
        let plan = PlacementPlan::compute(&spec, &cluster_of(&[8, 8, 8, 8]));
        let a = plan.machines_of(anchor);
        let r = plan.machines_of(rider);
        assert_eq!(r.len(), 6);
        for (k, &m) in r.iter().enumerate() {
            assert_eq!(m, a[k % a.len()], "rider {k} not with its anchor");
        }
    }

    #[test]
    #[should_panic(expected = "no machine available")]
    fn edge_pref_without_edge_machines_panics() {
        let mut app = AppBuilder::new("p");
        let id = app.service("sensor").zone(Zone::Edge).build();
        app.endpoint(id, "run", Dist::constant(1.0), vec![]);
        PlacementPlan::compute(&app.build(), &cluster_of(&[8]));
    }
}
