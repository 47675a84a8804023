//! # DeathStarBench-sim — facade crate
//!
//! A simulation-based Rust reproduction of *An Open-Source Benchmark Suite
//! for Microservices and Their Hardware-Software Implications for Cloud &
//! Edge Systems* (ASPLOS 2019). This crate re-exports the whole workspace
//! so examples and downstream users can depend on one name:
//!
//! * [`simcore`] — deterministic discrete-event engine
//! * [`uarch`] — top-down cycle model, core types
//! * [`net`] — protocols, fabric, NICs, FPGA offload
//! * [`trace`] — distributed tracing
//! * [`core`] — the microservice framework (apps, machines, control surface)
//! * [`telemetry`] — metrics registry, SLO burn-rate alerts, root-cause reports
//! * [`cluster`] — autoscaling, provisioning, QoS, fault injection
//! * [`workload`] — open-loop generators, skew, diurnal patterns
//! * [`serverless`] — Lambda/EC2 execution + billing models
//! * [`apps`] — the six end-to-end applications and friends
//! * [`experiments`] — one module per paper table/figure
//! * [`analyzer`] — static spec validation and lookahead certificates
//!
//! See the repository README for a quickstart and `examples/` for runnable
//! walkthroughs.

#![warn(missing_docs)]

pub use dsb_analyzer as analyzer;
pub use dsb_apps as apps;
pub use dsb_cluster as cluster;
pub use dsb_core as core;
pub use dsb_experiments as experiments;
pub use dsb_net as net;
pub use dsb_serverless as serverless;
pub use dsb_simcore as simcore;
pub use dsb_telemetry as telemetry;
pub use dsb_trace as trace;
pub use dsb_uarch as uarch;
pub use dsb_workload as workload;
