//! # dsb-core — the microservice benchmark framework
//!
//! The primary contribution of the reproduced paper is a suite of
//! *end-to-end* microservice applications plus the instrumentation to study
//! them. This crate is the framework those applications are written
//! against in the simulator:
//!
//! * **Application model** ([`AppBuilder`], [`ServiceSpec`], [`Step`]):
//!   an application is a graph of services; each service exposes endpoints
//!   whose handlers are *behaviour scripts* — sequences of compute phases,
//!   I/O phases, synchronous/parallel RPC calls, and probabilistic
//!   branches (cache hits vs misses).
//! * **Execution substrate** ([`Simulation`], [`ClusterSpec`]): machines
//!   with FCFS cores and NIC queues, worker pools with blocking or
//!   event-driven (async) concurrency, bounded connection pools for
//!   HTTP/1-style protocols, load-balancing policies, and on-demand
//!   (serverless) worker spawning with cold starts.
//! * **Instrumentation**: per-RPC spans feeding a `dsb-trace` collector,
//!   per-service execution-domain accounting (kernel/user/libs), worker
//!   occupancy, and per-request-type latency with QoS windows.
//! * **Control surface**: instance scaling with startup delays, machine
//!   frequency changes (RAPL / slow servers), FPGA offload toggling,
//!   misrouting injection, and admission control — everything the paper's
//!   cluster-management experiments (Figs. 17–22) manipulate.
//!
//! See `dsb-apps` for the six end-to-end applications built on this API
//! and the `examples/` directory for walkthroughs.

#![warn(missing_docs)]

mod chaos;
mod placement;
mod sim;
mod slab;
mod spec;
mod stats;

pub use chaos::{ChaosEvent, ChaosPlan, FaultWindow};
pub use placement::{PlacementHint, PlacementPlan, Placer};
pub use sim::{ConnPoolSnapshot, InstanceState, Simulation};
pub use slab::{Slab, SlabKey};
pub use spec::{
    AppBuilder, AppSpec, BadCall, ClusterSpec, Concurrency, EndpointRef, EndpointSpec, InstanceId,
    LbPolicy, MachineId, MachineSpec, RequestType, ServiceBuilder, ServiceId, ServiceSpec, Step,
    WorkerPolicy,
};
pub use stats::{RequestStats, ServiceStats};
