//! # dsb-trace — distributed tracing
//!
//! The paper's §3.7 instruments every service with a Dapper/Zipkin-style
//! tracing system that timestamps RPCs on arrival and departure at each
//! microservice, associates them with the end-to-end request, and stores
//! them centrally. All of the cluster-management analyses (per-tier latency
//! breakdowns, cascading-hotspot heatmaps, critical paths) are built on it.
//!
//! This crate is that system for the simulator:
//!
//! * [`Span`] — one RPC's lifetime at one service, with queueing /
//!   processing / network components separated (the paper's §5 network-vs-
//!   application split is read straight off these fields).
//! * [`TraceCollector`] — aggregates spans into per-service histograms and
//!   time-windowed series (for heatmaps), and retains a configurable sample
//!   of complete traces, like production collectors do. In a sharded run
//!   each shard records into a [`ShardCollector`], whose aggregates and
//!   kept spans move into the merged collector on every sync, so each is
//!   stored once.
//! * [`critical_path`] — attributes an end-to-end request's latency to the
//!   services on its critical path (the "last finishing child" walk used on
//!   Dapper-style traces).

#![warn(missing_docs)]

mod collector;
mod span;

pub use collector::{ServiceTraceStats, ShardCollector, TraceCollector};
pub use span::{critical_path, Attribution, Span, SpanId, TraceId};
