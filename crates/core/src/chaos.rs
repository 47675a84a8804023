//! Deterministic fault injection: the [`ChaosPlan`].
//!
//! A chaos plan is a seeded, sim-time-scheduled list of [`ChaosEvent`]s
//! — machine crash + restart, cache-shard loss with cold refill,
//! network partition, NIC degradation, and edge-node churn. The plan is
//! *pure data*: [`ChaosPlan::schedule`] expands it into a sorted list of
//! concrete boundary actions, each tagged with the plan event it comes
//! from, and [`Simulation::install_chaos`]
//! (`crates/core/src/sim.rs`) applies each action between event runs —
//! exactly the way the existing control surface (instance scaling)
//! already synchronizes with both the serial and the sharded epoch
//! driver. That placement is what makes injection byte-identical across
//! worker counts: a fault takes effect at a quiesced instant, never
//! mid-epoch.
//!
//! [`Simulation::install_chaos`]: crate::Simulation::install_chaos
//!
//! The same expansion doubles as the detection scorer's ground truth:
//! [`ChaosPlan::faults`] yields one labeled active window per injected
//! fault, which `dsb-telemetry`'s scorer joins against fired alerts.

use dsb_simcore::{mix64, Rng, SimDuration, SimTime};

use crate::{MachineId, ServiceId};

/// One scheduled fault in a [`ChaosPlan`].
#[derive(Debug, Clone)]
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

/// One concrete boundary action produced by [`ChaosPlan::schedule`].
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosAction {
    /// Take a machine down.
    CrashMachine {
        /// The machine.
        machine: MachineId,
    },
    /// Bring a crashed machine back up.
    RestartMachine {
        /// The machine.
        machine: MachineId,
        /// Cold-cache window applied to its restored instances.
        cold_for: SimDuration,
    },
    /// Take one instance of a service down.
    CrashShard {
        /// The service.
        service: ServiceId,
        /// Instance index within the service.
        shard: u32,
    },
    /// Restore a crashed instance.
    RestoreShard {
        /// The service.
        service: ServiceId,
        /// Instance index within the service.
        shard: u32,
        /// Cold-refill window after restoration.
        cold_for: SimDuration,
    },
    /// Start failing traffic between two machine groups.
    StartPartition {
        /// One side of the cut.
        a: Vec<MachineId>,
        /// The other side.
        b: Vec<MachineId>,
        /// Sender-side failure timeout.
        timeout: SimDuration,
    },
    /// Start multiplying delays at the given machines' NICs.
    StartDegrade {
        /// Degraded machines.
        machines: Vec<MachineId>,
        /// Delay multiplier (≥ 1.0).
        factor: f64,
    },
    /// Heal the partition or end the NIC degradation that the same plan
    /// event started: the simulator finds it by the event's index.
    EndNetFault,
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

    /// Expands the plan into concrete `(time, event index, action)`
    /// boundary actions, sorted by time (stable: ties keep event order).
    /// The index names the plan event an action comes from, so an end
    /// action can find the one fault its own start began. Pure function
    /// of the plan — the simulator relies on that.
    pub fn schedule(&self) -> Vec<(SimTime, usize, ChaosAction)> {
        let mut out: Vec<(SimTime, usize, ChaosAction)> = Vec::new();
        for (i, ev) in self.events.iter().enumerate() {
            match ev {
                ChaosEvent::MachineCrash {
                    machine,
                    at,
                    restart_after,
                    cold_for,
                } => {
                    out.push((*at, i, ChaosAction::CrashMachine { machine: *machine }));
                    out.push((
                        *at + *restart_after,
                        i,
                        ChaosAction::RestartMachine {
                            machine: *machine,
                            cold_for: *cold_for,
                        },
                    ));
                }
                ChaosEvent::CacheLoss {
                    service,
                    shard,
                    at,
                    restart_after,
                    cold_for,
                } => {
                    out.push((
                        *at,
                        i,
                        ChaosAction::CrashShard {
                            service: *service,
                            shard: *shard,
                        },
                    ));
                    out.push((
                        *at + *restart_after,
                        i,
                        ChaosAction::RestoreShard {
                            service: *service,
                            shard: *shard,
                            cold_for: *cold_for,
                        },
                    ));
                }
                ChaosEvent::Partition {
                    a,
                    b,
                    from,
                    until,
                    timeout,
                } => {
                    out.push((
                        *from,
                        i,
                        ChaosAction::StartPartition {
                            a: a.clone(),
                            b: b.clone(),
                            timeout: *timeout,
                        },
                    ));
                    out.push((*until, i, ChaosAction::EndNetFault));
                }
                ChaosEvent::NicDegrade {
                    machines,
                    factor,
                    from,
                    until,
                } => {
                    out.push((
                        *from,
                        i,
                        ChaosAction::StartDegrade {
                            machines: machines.clone(),
                            factor: factor.max(1.0),
                        },
                    ));
                    out.push((*until, i, ChaosAction::EndNetFault));
                }
                ChaosEvent::EdgeChurn {
                    machines,
                    from,
                    until,
                    period,
                    down_for,
                    cold_for,
                } => {
                    if machines.is_empty() {
                        continue;
                    }
                    let mut rng = Rng::new(mix64(self.seed ^ mix64(0xC4A05 ^ i as u64)));
                    let mut t = *from;
                    while t < *until {
                        let m = machines[rng.index(machines.len())];
                        out.push((t, i, ChaosAction::CrashMachine { machine: m }));
                        out.push((
                            t + *down_for,
                            i,
                            ChaosAction::RestartMachine {
                                machine: m,
                                cold_for: *cold_for,
                            },
                        ));
                        t = t + *period;
                    }
                }
            }
        }
        out.sort_by_key(|(t, _, _)| *t);
        out
    }

    /// The ground-truth fault windows, one per injected fault (a churn
    /// event is one fault: a detector is scored on flagging the churn,
    /// not each constituent crash).
    pub fn faults(&self) -> Vec<FaultWindow> {
        self.events
            .iter()
            .map(|ev| match ev {
                ChaosEvent::MachineCrash {
                    machine,
                    at,
                    restart_after,
                    cold_for,
                } => FaultWindow {
                    label: format!("machine-crash m{}", machine.0),
                    from: *at,
                    until: *at + *restart_after + *cold_for,
                    culprit: None,
                },
                ChaosEvent::CacheLoss {
                    service,
                    shard,
                    at,
                    restart_after,
                    cold_for,
                } => FaultWindow {
                    label: format!("cache-loss svc{} shard{}", service.0, shard),
                    from: *at,
                    until: *at + *restart_after + *cold_for,
                    culprit: Some(*service),
                },
                ChaosEvent::Partition { from, until, .. } => FaultWindow {
                    label: "partition".to_string(),
                    from: *from,
                    until: *until,
                    culprit: None,
                },
                ChaosEvent::NicDegrade { from, until, .. } => FaultWindow {
                    label: "nic-degrade".to_string(),
                    from: *from,
                    until: *until,
                    culprit: None,
                },
                ChaosEvent::EdgeChurn {
                    from,
                    until,
                    down_for,
                    cold_for,
                    ..
                } => FaultWindow {
                    label: "edge-churn".to_string(),
                    from: *from,
                    until: *until + *down_for + *cold_for,
                    culprit: None,
                },
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_sorted_and_deterministic() {
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
        let s1 = plan.schedule();
        let s2 = plan.schedule();
        assert_eq!(s1, s2, "expansion must be pure");
        assert!(s1.windows(2).all(|w| w[0].0 <= w[1].0), "sorted by time");
        // 1 crash/restart pair + 3 churn pairs (t = 1, 2, 3 s).
        assert_eq!(s1.len(), 8);
        assert_eq!(plan.faults().len(), 2);
    }

    #[test]
    fn degrade_factor_clamped_up() {
        let plan = ChaosPlan {
            seed: 0,
            events: vec![ChaosEvent::NicDegrade {
                machines: vec![MachineId(0)],
                factor: 0.25,
                from: SimTime::ZERO,
                until: SimTime::from_secs(1),
            }],
        };
        match &plan.schedule()[0].2 {
            ChaosAction::StartDegrade { factor, .. } => assert_eq!(*factor, 1.0),
            other => panic!("expected degrade, got {other:?}"),
        }
    }
}
