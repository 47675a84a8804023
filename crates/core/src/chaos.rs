//! Deterministic fault injection: the [`ChaosPlan`].
//!
//! A chaos plan is a seeded, sim-time-scheduled list of [`ChaosEvent`]s
//! — machine crash + restart, cache-shard loss with cold refill,
//! network partition, NIC degradation, and edge-node churn. The plan is
//! *pure data*, and the simulator applies its events as written. Each
//! event has two boundary instants, `ChaosEvent::window()`: the fault
//! starts at the first and is undone (restart, restore, heal) at the
//! second. The one rewrite is churn: `ChaosPlan::expand()` replaces each
//! [`ChaosEvent::EdgeChurn`], in place, by the machine crashes its seeded
//! draws pick. [`Simulation::install_chaos`] (`crates/core/src/sim.rs`)
//! files every expanded event at its two instants and applies it there,
//! between event runs — exactly the way the existing control surface
//! (instance scaling) already synchronizes with both the serial and the
//! sharded epoch driver. That placement is what makes injection
//! byte-identical across worker counts: a fault takes effect at a
//! quiesced instant, never mid-epoch.
//!
//! [`Simulation::install_chaos`]: crate::Simulation::install_chaos
//!
//! The same windows are the detection scorer's ground truth:
//! [`ChaosPlan::faults`] yields one labeled window per plan event (a
//! churn is one fault), stretched past its end by any cold refill or
//! churn downtime, which `dsb-telemetry`'s scorer joins against fired
//! alerts.

use dsb_simcore::{mix64, Rng, SimDuration, SimTime};

use crate::{MachineId, ServiceId};

/// One scheduled fault in a [`ChaosPlan`].
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosEvent {
    /// Crash a machine at `at`: every in-flight invocation on it fails
    /// fast (callers get an error response after the minimum network
    /// delay), its instances go down, queued work is failed back to its
    /// callers, and placement re-routes around it. It restarts
    /// `restart_after` later with every hosted cache shard refilling
    /// cold for `cold_for`.
    MachineCrash {
        /// The machine to crash.
        machine: MachineId,
        /// Crash time.
        at: SimTime,
        /// Downtime before the restart boundary.
        restart_after: SimDuration,
        /// Cold-cache window after restart (forced cache misses).
        cold_for: SimDuration,
    },
    /// Crash one shard (instance index) of a cache service; the machine
    /// keeps running. Requests routed to the shard fail fast until it
    /// restarts, then refill cold for `cold_for`.
    CacheLoss {
        /// The cache service.
        service: ServiceId,
        /// Instance index within the service (shard number).
        shard: u32,
        /// Loss time.
        at: SimTime,
        /// Downtime before the shard comes back.
        restart_after: SimDuration,
        /// Cold-refill window after restart.
        cold_for: SimDuration,
    },
    /// Cut the network between machine groups `a` and `b` for
    /// `[from, until)`. Requests crossing the cut fail back to the
    /// caller after `timeout` (clamped up to the cluster lookahead so
    /// the sharded engine stays conservative); responses crossing it
    /// are delivered as failures after the same timeout. The timeout
    /// belongs to this partition's links: a partition that does not
    /// cut a link never sets its timeout. Only links between machines
    /// are cut; injections and client replies always get through.
    /// Partitions compose: a link stays cut while any active partition
    /// cuts it, and a message crossing it fails after the smallest
    /// timeout among those partitions. Each partition heals only its
    /// own cut at `until`.
    Partition {
        /// One side of the cut.
        a: Vec<MachineId>,
        /// The other side.
        b: Vec<MachineId>,
        /// Partition start.
        from: SimTime,
        /// Partition end (healed at this boundary).
        until: SimTime,
        /// Sender-side failure-detection timeout.
        timeout: SimDuration,
    },
    /// Multiply the propagation delay of every message to or from the
    /// given machines by `factor` (≥ 1.0 — delays may only grow, which
    /// keeps the DSB015 lookahead floor valid) for `[from, until)`:
    /// machine-to-machine hops, client injections to the machines and
    /// replies back to the client alike. A hop between two degraded
    /// machines takes the larger factor, and so does a machine under
    /// two overlapping degradations; each ends only its own at `until`.
    NicDegrade {
        /// Machines with the degraded NIC.
        machines: Vec<MachineId>,
        /// Delay multiplier, clamped to ≥ 1.0.
        factor: f64,
        /// Degradation start.
        from: SimTime,
        /// Degradation end.
        until: SimTime,
    },
    /// Seeded churn over a pool of (edge) machines: every `period`
    /// within `[from, until)` one machine drawn from `machines` crashes
    /// and restarts `down_for` later, caches cold for `cold_for`. The
    /// draw sequence depends only on the plan seed.
    EdgeChurn {
        /// Candidate machines (typically the Swarm edge nodes).
        machines: Vec<MachineId>,
        /// Churn window start.
        from: SimTime,
        /// Churn window end.
        until: SimTime,
        /// Interval between crashes.
        period: SimDuration,
        /// Downtime of each crashed node.
        down_for: SimDuration,
        /// Cold-cache window after each restart.
        cold_for: SimDuration,
    },
}

/// A seeded, deterministic fault schedule for one run.
#[derive(Debug, Clone)]
pub struct ChaosPlan {
    /// Seed for the churn draws (and any future randomized event).
    pub seed: u64,
    /// The scheduled faults.
    pub events: Vec<ChaosEvent>,
}

/// The ground-truth record of one injected fault: what a perfect
/// detector should flag, and when. The detection scorer joins alerts
/// against these windows.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultWindow {
    /// Human-readable fault label (stable; used in reports and goldens).
    pub label: String,
    /// Fault start.
    pub from: SimTime,
    /// End of the *injection* (restart/heal boundary). Symptoms may
    /// trail this (cold refill, queue drain); scorers add a grace
    /// window on top.
    pub until: SimTime,
    /// The service a root-cause verdict should name, when the fault
    /// targets one (cache loss); `None` for machine/network faults.
    pub culprit: Option<ServiceId>,
}

impl ChaosPlan {
    /// A plan with no faults.
    pub fn empty(seed: u64) -> ChaosPlan {
        ChaosPlan {
            seed,
            events: Vec::new(),
        }
    }

    /// The plan's events with each [`ChaosEvent::EdgeChurn`] replaced,
    /// in place, by the [`ChaosEvent::MachineCrash`]es its seeded draws
    /// pick, in draw order. What the simulator applies; a pure function
    /// of the plan.
    ///
    /// # Panics
    ///
    /// Panics on a churn with a zero `period` over a non-empty window:
    /// its crashes would never stop.
    pub(crate) fn expand(&self) -> Vec<ChaosEvent> {
        let mut out = Vec::with_capacity(self.events.len());
        for (i, ev) in self.events.iter().enumerate() {
            let ChaosEvent::EdgeChurn {
                machines,
                from,
                until,
                period,
                down_for,
                cold_for,
            } = ev
            else {
                out.push(ev.clone());
                continue;
            };
            assert!(
                *period > SimDuration::ZERO || from >= until,
                "chaos event {i} ({ev:?}) churns with a zero period"
            );
            if machines.is_empty() {
                continue;
            }
            let mut rng = Rng::new(mix64(self.seed ^ mix64(0xC4A05 ^ i as u64)));
            let mut t = *from;
            while t < *until {
                out.push(ChaosEvent::MachineCrash {
                    machine: machines[rng.index(machines.len())],
                    at: t,
                    restart_after: *down_for,
                    cold_for: *cold_for,
                });
                t += *period;
            }
        }
        out
    }

    /// The ground-truth fault windows, one per injected fault (a churn
    /// event is one fault: a detector is scored on flagging the churn,
    /// not each constituent crash). A window runs from the fault's start
    /// past its end by whatever trails it: the cold refill after a
    /// restart, and for churn the last crash's downtime too.
    pub fn faults(&self) -> Vec<FaultWindow> {
        self.events
            .iter()
            .map(|ev| {
                let (from, end) = ev.window();
                let (label, until, culprit) = match ev {
                    ChaosEvent::MachineCrash {
                        machine, cold_for, ..
                    } => (
                        format!("machine-crash m{}", machine.0),
                        end + *cold_for,
                        None,
                    ),
                    ChaosEvent::CacheLoss {
                        service,
                        shard,
                        cold_for,
                        ..
                    } => (
                        format!("cache-loss svc{} shard{}", service.0, shard),
                        end + *cold_for,
                        Some(*service),
                    ),
                    ChaosEvent::Partition { .. } => ("partition".to_string(), end, None),
                    ChaosEvent::NicDegrade { .. } => ("nic-degrade".to_string(), end, None),
                    ChaosEvent::EdgeChurn {
                        down_for, cold_for, ..
                    } => ("edge-churn".to_string(), end + *down_for + *cold_for, None),
                };
                FaultWindow {
                    label,
                    from,
                    until,
                    culprit,
                }
            })
            .collect()
    }
}

impl ChaosEvent {
    /// The event's two boundary instants: when the fault starts, and
    /// when the simulator undoes it (restart, restore, heal, or the end
    /// of the degradation or of the churn window).
    pub(crate) fn window(&self) -> (SimTime, SimTime) {
        match *self {
            ChaosEvent::MachineCrash {
                at, restart_after, ..
            }
            | ChaosEvent::CacheLoss {
                at, restart_after, ..
            } => (at, at + restart_after),
            ChaosEvent::Partition { from, until, .. }
            | ChaosEvent::NicDegrade { from, until, .. }
            | ChaosEvent::EdgeChurn { from, until, .. } => (from, until),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expand_is_pure_and_replaces_churn_in_place() {
        let plan = ChaosPlan {
            seed: 7,
            events: vec![
                ChaosEvent::MachineCrash {
                    machine: MachineId(2),
                    at: SimTime::from_secs(3),
                    restart_after: SimDuration::from_secs(1),
                    cold_for: SimDuration::from_secs(1),
                },
                ChaosEvent::EdgeChurn {
                    machines: vec![MachineId(8), MachineId(9)],
                    from: SimTime::from_secs(1),
                    until: SimTime::from_secs(4),
                    period: SimDuration::from_secs(1),
                    down_for: SimDuration::from_millis(500),
                    cold_for: SimDuration::ZERO,
                },
            ],
        };
        let expanded = plan.expand();
        assert_eq!(expanded, plan.expand(), "expansion must be pure");
        // The crash, then in the churn's place its 3 crashes (t = 1, 2, 3 s).
        assert_eq!(expanded.len(), 4);
        assert_eq!(expanded[0], plan.events[0]);
        for (ev, secs) in expanded[1..].iter().zip(1..) {
            let ChaosEvent::MachineCrash {
                machine,
                at,
                restart_after,
                cold_for,
            } = ev
            else {
                panic!("churn expands to machine crashes, got {ev:?}");
            };
            assert!([MachineId(8), MachineId(9)].contains(machine));
            assert_eq!(*at, SimTime::from_secs(secs));
            assert_eq!(*restart_after, SimDuration::from_millis(500));
            assert_eq!(*cold_for, SimDuration::ZERO);
        }
        // Ground truth keeps the churn as one fault.
        assert_eq!(plan.faults().len(), 2);
    }
}
