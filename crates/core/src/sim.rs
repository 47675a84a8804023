//! The simulation runtime: machines, instances, invocations, the event
//! interpreter, and the [`Simulation`] façade.
//!
//! # Sharded architecture
//!
//! The cluster state is partitioned into *shards*: one per machine, plus
//! one *client shard* that owns injections and end-to-end request
//! statistics. Every event belongs to exactly one shard, and a handler
//! only ever mutates its own shard's state (plus the read-only
//! [`SharedState`]); anything destined for another shard travels as a
//! [`Message`] with a pre-minted `(time, key)` identity.
//!
//! One engine executes that state. A *lane* is a set of shards whose
//! events share a single timing wheel of `(shard, Ev)` pairs, popped in
//! `(time, key)` order. A handler's message to another shard of its own
//! lane goes straight into that wheel once the handler returns; a
//! message to another lane waits in the epoch outbox.
//! [`dsb_simcore::run_epochs`] drives the lanes. At `W = 1` worker (the
//! default) one lane holds every shard and runs straight to the horizon
//! with no barriers and no threads: the serial path `dsb-bench`
//! measures. At `W ≥ 2` every shard is a lane of its own, and the lanes
//! advance in conservative windows as wide as the smallest fabric floor
//! among the cross-shard hops the run can make
//! ([`Simulation::lookahead_ns`]), exchanging cross-lane messages as
//! `(time, key)`-sorted batches at epoch barriers. In each window the
//! worker threads (`W`, at most one per host CPU) claim lanes until
//! none is left, so a thread that drew a light lane takes another
//! instead of waiting for a peer.
//!
//! Determinism across worker counts rests on one invariant: **every**
//! event's tie-break key is minted from its shard's own counter —
//! `(shard << 48) | ctr` — never from a wheel's internal sequence. Per
//! shard, events pop in ascending `(time, key)` order however the
//! shards are dealt into lanes, so each shard sees the identical event
//! sequence, draws the identical RNG stream, and emits byte-identical
//! traces and statistics. `tests/parallel_conformance.rs` pins this.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, OnceLock};

use dsb_net::{Fabric, FpgaOffload, MsgCosts, Nic, Protocol, Zone};
use dsb_simcore::{
    mix64, run_epochs, EpochShard, Outbox, Rng, Scheduler, SimDuration, SimTime, Transfer,
};
use dsb_trace::{ShardCollector, Span, SpanId, TraceCollector, TraceId};
use dsb_uarch::{CoreModel, ExecDomain};

use crate::chaos::{ChaosEvent, ChaosPlan};
use crate::slab::{Slab, SlabKey};
use crate::spec::{
    AppSpec, ClusterSpec, Concurrency, EndpointRef, InstanceId, LbPolicy, MachineId, RequestType,
    ServiceId, Step, WorkerPolicy,
};
use crate::stats::{RequestStats, ServiceStats};

/// A read-only aggregate of the connection pools one service holds toward
/// a downstream service, as sampled by a telemetry scrape.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnPoolSnapshot {
    /// Connections currently checked out, summed over caller instances.
    pub in_use: u64,
    /// Pool capacity, summed over caller instances.
    pub limit: u64,
    /// Invocations parked waiting for a free connection.
    pub waiters: u64,
}

impl ConnPoolSnapshot {
    /// Fraction of pooled connections in use, in `[0, 1]` (0 if no pool).
    pub fn occupancy(&self) -> f64 {
        if self.limit == 0 {
            0.0
        } else {
            self.in_use as f64 / self.limit as f64
        }
    }

    /// A pool is saturated when every connection is checked out and at
    /// least one caller is parked waiting — the Fig. 17 backpressure
    /// signature.
    pub fn saturated(&self) -> bool {
        self.limit > 0 && self.in_use >= self.limit && self.waiters > 0
    }
}

/// Lifecycle of a service instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstanceState {
    /// Container is booting; not yet in load-balancer rotation.
    Starting,
    /// Serving traffic.
    Up,
    /// Removed from rotation; finishing queued work.
    Draining,
    /// Crashed by a [`crate::ChaosPlan`] fault: not in rotation, queued
    /// and in-flight work failed back to callers. Returns to `Up` at the
    /// restart boundary.
    Down,
}

const REF_FREQ_GHZ: f64 = 2.4;

/// The home of partition key `key` among `n` instances: a stable
/// function of the key over the service's *total* instance list.
fn key_home(key: u64, n: usize) -> usize {
    (mix64(key.wrapping_add(0x9E37_79B9_7F4A_7C15)) % n as u64) as usize
}

// ---------------------------------------------------------------------------
// Shared (read-only during event runs) state
// ---------------------------------------------------------------------------

/// Immutable-per-run facts about a machine. The mutable parts (NIC
/// queue, core occupancy) live in the owning shard's [`MachineRt`].
#[derive(Debug, Clone, Copy)]
struct MachineMeta {
    zone: Zone,
    core: CoreModel,
    offload: FpgaOffload,
}

/// Network fault state installed by a [`crate::ChaosPlan`]: partition
/// cuts between machine pairs and per-machine NIC delay multipliers,
/// folded from the active network faults. Lives in [`SharedState`]
/// (read-only during event runs, mutated only at chaos boundaries) so
/// every lane observes identical fault state.
#[derive(Debug)]
struct NetChaos {
    n: usize,
    /// `n × n` row-major: `cut[a*n + b]` is `Some(timeout_ns)` while an
    /// active partition fails traffic from machine `a` to machine `b`,
    /// with the smallest sender-side failure-detection timeout among the
    /// partitions cutting it (each clamped to at least the cluster
    /// lookahead, the DSB015 floor); `None` while the link is up.
    cut: Vec<Option<u64>>,
    /// Per-machine propagation-delay multiplier: the largest among the
    /// machine's active degradations (1.0 = healthy). Only ever ≥ 1.0,
    /// so the lookahead bound stays conservative.
    degrade: Vec<f64>,
    /// The active faults: indices into [`Simulation`]'s chaos events,
    /// each a [`ChaosEvent::Partition`] or a [`ChaosEvent::NicDegrade`].
    active: Vec<usize>,
}

impl NetChaos {
    fn new(n: usize) -> Self {
        NetChaos {
            n,
            cut: vec![None; n * n],
            degrade: vec![1.0; n],
            active: Vec::new(),
        }
    }

    /// The timeout of a cut link from shard `a` to shard `b`, or `None`
    /// if the link is up. The client shard (index `n`) is never cut.
    fn cut(&self, a: u16, b: u16) -> Option<u64> {
        let (a, b) = (a as usize, b as usize);
        if a < self.n && b < self.n {
            self.cut[a * self.n + b]
        } else {
            None
        }
    }

    /// Folds the links and NICs from every active fault in `events`.
    fn fold(&mut self, events: &[ChaosEvent], lookahead_ns: u64) {
        self.cut.fill(None);
        self.degrade.fill(1.0);
        for &i in &self.active {
            match &events[i] {
                ChaosEvent::Partition { a, b, timeout, .. } => {
                    let timeout_ns = timeout.as_nanos().max(lookahead_ns);
                    for &x in a {
                        for &y in b {
                            let (x, y) = (x.0 as usize, y.0 as usize);
                            for link in [x * self.n + y, y * self.n + x] {
                                let t = self.cut[link].map_or(timeout_ns, |t| t.min(timeout_ns));
                                self.cut[link] = Some(t);
                            }
                        }
                    }
                }
                ChaosEvent::NicDegrade {
                    machines, factor, ..
                } => {
                    for m in machines {
                        let d = &mut self.degrade[m.0 as usize];
                        *d = d.max(*factor);
                    }
                }
                other => unreachable!("not a network fault: {other:?}"),
            }
        }
    }

    /// The delay multiplier of a hop between shards `a` and `b`: the
    /// worse of the two ends' NICs. The client shard has no NIC here.
    fn degrade_factor(&self, a: u16, b: u16) -> f64 {
        let f = |s: u16| self.degrade.get(s as usize).copied().unwrap_or(1.0);
        f(a).max(f(b))
    }
}

/// Immutable-per-run facts about an instance; the queue/worker state
/// lives in the owning machine shard's [`InstRt`].
#[derive(Debug, Clone, Copy)]
struct InstMeta {
    service: ServiceId,
    machine: MachineId,
    state: InstanceState,
    /// `None` means on-demand (serverless) workers.
    worker_limit: Option<u32>,
}

/// Runtime routing state of a service; its spec is `app.services[i]`.
#[derive(Debug, Default)]
struct SharedServiceRt {
    instances: Vec<InstanceId>,
    pinned: Option<InstanceId>,
}

/// Everything handlers read but never write during an event run. Shared
/// by reference across worker threads (`&SharedState` is the epoch
/// driver's context); mutated only between runs by the control surface.
#[derive(Debug)]
struct SharedState {
    app: AppSpec,
    services: Vec<SharedServiceRt>,
    insts: Vec<InstMeta>,
    machines: Vec<MachineMeta>,
    fabric: Fabric,
    window: SimDuration,
    cpu_quantum_ns: f64,
    admit_prob: f64,
    ref_core: CoreModel,
    /// Memoized `speed_factor(service, machine)`, `services × machines`
    /// row-major; see [`SharedState::rebuild_core_caches`].
    sf_cache: Vec<f64>,
    /// Memoized reference-core IPC per service.
    ref_ipc_cache: Vec<f64>,
    /// The model lookahead: no cross-shard message can arrive sooner
    /// than this many ns after it is sent. Fail-fast notices and crash
    /// kills travel exactly this long, and partition timeouts and
    /// injections are floored at it. See [`cluster_lookahead`]; the
    /// epoch window is derived separately ([`Simulation::lookahead_ns`]).
    lookahead_ns: u64,
    /// Active network faults (`None` when no chaos plan touched the
    /// fabric — the hot path pays one pointer check).
    chaos_net: Option<Box<NetChaos>>,
    /// Per-instance cold-until time (ns): `CacheLookup`s whose home
    /// shard is refilling before this instant are forced to miss.
    chaos_cold: Vec<u64>,
}

impl SharedState {
    fn speed_factor(&self, service: ServiceId, machine: MachineId) -> f64 {
        self.sf_cache[service.0 as usize * self.machines.len() + machine.0 as usize]
    }

    fn ref_ipc(&self, service: ServiceId) -> f64 {
        self.ref_ipc_cache[service.0 as usize]
    }

    /// Recomputes the memoized per-(service, machine) speed factors and
    /// per-service reference-core IPC. `CoreModel::speed_factor` walks
    /// the full uarch breakdown twice per call, which is far too slow
    /// for once-per-hop use; both inputs (service profiles, machine
    /// cores) are fixed except across [`Simulation::set_frequency`],
    /// which rebuilds this table.
    fn rebuild_core_caches(&mut self) {
        let nm = self.machines.len();
        self.sf_cache.clear();
        self.ref_ipc_cache.clear();
        for svc in &self.app.services {
            let p = &svc.profile;
            self.ref_ipc_cache.push(self.ref_core.ipc(p));
            for m in &self.machines {
                self.sf_cache.push(m.core.speed_factor(p));
            }
        }
        debug_assert_eq!(self.sf_cache.len(), self.services.len() * nm);
    }

    /// Index of the client shard (one past the machine shards).
    fn client_shard(&self) -> u16 {
        self.machines.len() as u16
    }
}

/// The model lookahead of a cluster: the smallest latency any
/// cross-shard message (machine↔machine, machine↔client shard, or
/// injection) could experience on it, whatever the app. Derived from
/// [`Fabric::min_delay`] over every zone pair that can occur between
/// *distinct* machines, plus the Client/Edge origins traffic may be
/// injected from. A model constant (the delay of fail-fast notices and
/// the floor of partition timeouts and injections), not the epoch
/// window, which follows the hops a run can actually make.
fn cluster_lookahead(fabric: &Fabric, machines: &[MachineMeta]) -> u64 {
    // Count machines per zone (Zone is not Ord; a tiny Vec scan is fine
    // for construction-time work).
    let mut zones: Vec<(Zone, u32)> = Vec::new();
    for m in machines {
        match zones.iter_mut().find(|(z, _)| *z == m.zone) {
            Some((_, c)) => *c += 1,
            None => zones.push((m.zone, 1)),
        }
    }
    if zones.is_empty() {
        return 1_000_000;
    }
    let mut l = u64::MAX;
    for (i, &(za, ca)) in zones.iter().enumerate() {
        // Two machines in the same zone talk at the same-zone fabric
        // latency (same-machine delivery is shard-local and exempt).
        if ca >= 2 {
            l = l.min(fabric.min_delay(za, za).as_nanos());
        }
        for &(zb, _) in &zones[i + 1..] {
            l = l.min(fabric.min_delay(za, zb).as_nanos());
            l = l.min(fabric.min_delay(zb, za).as_nanos());
        }
        // Injections and client replies cross between the client shard
        // and machine shards; `Simulation::inject_from` clamps exotic
        // origins to the lookahead, so only the standard ones bound it.
        for origin in [Zone::Client, Zone::Edge] {
            l = l.min(fabric.min_delay(origin, za).as_nanos());
            l = l.min(fabric.min_delay(za, origin).as_nanos());
        }
    }
    l.max(1)
}

// ---------------------------------------------------------------------------
// Per-shard runtime state
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct MachineRt {
    cores: u32,
    nic: Nic,
    busy: u32,
    /// Pool tickets of queued [`CoreJob`]s awaiting a free core.
    run_queue: VecDeque<u32>,
}

#[derive(Debug)]
struct ConnPool {
    limit: u32,
    in_use: u32,
    waiters: VecDeque<SlabKey>,
}

#[derive(Debug)]
struct PendingReq {
    msg: RequestMsg,
    arrived: SimTime,
    recv_net_ns: f64,
}

/// Mutable per-instance state, owned by the instance's machine shard.
/// (Every shard allocates a slot per instance so indexing stays global;
/// only the owner's slot is ever touched.)
#[derive(Debug, Default)]
struct InstRt {
    warm_free: u32,
    busy_workers: u32,
    queue: VecDeque<PendingReq>,
    conns: BTreeMap<ServiceId, ConnPool>,
    inflight: u32,
    /// Completed invocations served by this instance (per-shard load).
    served: u64,
}

#[derive(Debug, Clone)]
struct Frame {
    block: Arc<Vec<Step>>,
    pc: usize,
}

#[derive(Debug, Clone)]
struct BlockedCall {
    target: EndpointRef,
    bytes: u64,
}

/// Return address of a cross-service call: the waiting invocation and
/// the machine (= shard) it lives on, so the callee can route its
/// response without a cross-shard lookup.
#[derive(Debug, Clone, Copy)]
struct Caller {
    inv: SlabKey,
    machine: MachineId,
}

#[derive(Debug)]
struct Invocation {
    service: ServiceId,
    instance: InstanceId,
    endpoint: u32,
    req: u64,
    rtype: RequestType,
    origin: Zone,
    partition_key: u64,
    spawn: SimTime,
    caller: Option<Caller>,
    parent_span: Option<SpanId>,
    span: u64,
    frames: Vec<Frame>,
    outstanding: u32,
    worker_held: bool,
    conn_to: Option<ServiceId>,
    blocked: Option<BlockedCall>,
    arrived: SimTime,
    started: SimTime,
    app_ns: f64,
    net_ns: f64,
    /// A downstream call failed (crash, partition, no live instance):
    /// the rest of the script is abandoned and the failure propagates
    /// to this invocation's own caller.
    failed: bool,
}

/// A request in flight between services.
#[derive(Debug)]
struct RequestMsg {
    req: u64,
    rtype: RequestType,
    origin: Zone,
    dst: InstanceId,
    endpoint: u32,
    caller: Option<Caller>,
    parent_span: Option<SpanId>,
    bytes: u64,
    partition_key: u64,
    spawn: SimTime,
}

/// A response in flight back to a caller. Carries its destination
/// machine and the serving instance so both the send-side cost model
/// and the caller-side load-balancer accounting need no cross-shard
/// reads.
#[derive(Debug)]
struct ResponseMsg {
    to_inv: SlabKey,
    to_machine: MachineId,
    from_inst: InstanceId,
    bytes: u64,
    protocol: Protocol,
    /// An error response: the callee crashed, was unreachable, or had
    /// itself a failed downstream call. Failed responses skip the
    /// receive-side CPU job and poison the caller.
    failed: bool,
}

/// A message in flight (carried by [`Ev::MsgArrive`], possibly across
/// shards).
#[derive(Debug)]
enum Message {
    Request(RequestMsg),
    Response(ResponseMsg),
    ClientReply {
        rtype: RequestType,
        spawn: SimTime,
        /// Serving instance, for the client shard's outstanding-count
        /// bookkeeping.
        inst: InstanceId,
        /// The request failed somewhere on its path (chaos faults);
        /// recorded as a failure, not a completion.
        failed: bool,
    },
}

impl Message {
    /// The failure notice for a request of type `rtype`, spawned at
    /// `spawn` and addressed to `inst`: an error response to `caller`,
    /// or a failed reply when the client itself is waiting.
    fn failure(
        sh: &SharedState,
        caller: Option<Caller>,
        inst: InstanceId,
        rtype: RequestType,
        spawn: SimTime,
    ) -> Message {
        match caller {
            Some(c) => {
                let svc = sh.insts[inst.0 as usize].service;
                Message::Response(ResponseMsg {
                    to_inv: c.inv,
                    to_machine: c.machine,
                    from_inst: inst,
                    bytes: 1,
                    protocol: sh.app.service(svc).protocol,
                    failed: true,
                })
            }
            None => Message::ClientReply {
                rtype,
                spawn,
                inst,
                failed: true,
            },
        }
    }

    /// The shard this message is delivered on.
    fn dst_shard(&self, sh: &SharedState) -> u16 {
        match self {
            Message::Request(rm) => sh.insts[rm.dst.0 as usize].machine.0 as u16,
            Message::Response(resp) => resp.to_machine.0 as u16,
            Message::ClientReply { .. } => sh.client_shard(),
        }
    }
}

/// A unit of CPU work scheduled on a machine core (carried by
/// [`Ev::CoreJobDone`]).
#[derive(Debug)]
struct CoreJob {
    dur: SimDuration,
    service: ServiceId,
    /// (domain, reference-core ns, actual ns) — up to two components.
    splits: [(ExecDomain, f64, f64); 2],
    cont: JobCont,
}

#[derive(Debug)]
enum JobCont {
    /// A script compute step finished; resume the invocation.
    StepDone(SlabKey),
    /// One CPU timeslice of a long compute step finished; requeue the
    /// remainder (models preemptive round-robin scheduling, so a long
    /// vision job cannot monopolize a weak core for seconds).
    StepChunk {
        inv: SlabKey,
        domain: ExecDomain,
        remaining_ref: f64,
        remaining_actual: f64,
    },
    /// Send-side processing finished; push the message into the network.
    SendDone {
        msg: Message,
        bytes: u64,
        /// FPGA pipeline delay (send + recv side), added to flight time.
        extra: SimDuration,
        /// Invocation whose span is charged the send processing.
        charge: Option<SlabKey>,
    },
    /// Receive-side processing for a request finished; enqueue at instance.
    RecvRequest(RequestMsg),
    /// Receive-side processing for a response finished; resume the caller.
    RecvResponse(SlabKey),
}

impl CoreJob {
    /// The next CPU timeslice of `inv`'s compute step, with `ref_ns`
    /// reference-core and `actual_ns` actual ns still to run: all of it
    /// when it fits in one `quantum`, else one quantum and a
    /// [`JobCont::StepChunk`] holding the rest. The only place the step
    /// is split: [`ShardState::submit_compute`] submits its first slice,
    /// and each finished timeslice rewrites its own pool slot with the
    /// next one.
    #[inline(always)]
    fn compute_slice(
        service: ServiceId,
        quantum: f64,
        inv: SlabKey,
        domain: ExecDomain,
        ref_ns: f64,
        actual_ns: f64,
    ) -> CoreJob {
        if actual_ns <= quantum {
            CoreJob {
                dur: SimDuration::from_nanos(actual_ns as u64),
                service,
                splits: [(domain, ref_ns, actual_ns), (ExecDomain::Other, 0.0, 0.0)],
                cont: JobCont::StepDone(inv),
            }
        } else {
            let frac = quantum / actual_ns;
            let chunk_ref = ref_ns * frac;
            CoreJob {
                dur: SimDuration::from_nanos(quantum as u64),
                service,
                splits: [(domain, chunk_ref, quantum), (ExecDomain::Other, 0.0, 0.0)],
                cont: JobCont::StepChunk {
                    inv,
                    domain,
                    remaining_ref: ref_ns - chunk_ref,
                    remaining_actual: actual_ns - quantum,
                },
            }
        }
    }

    /// A network-processing job for `service` on a core `sf` times as
    /// slow as the reference core: `kernel_ns` of kernel work (what FPGA
    /// offload leaves on the host) and `libs_ns` of libs work, in
    /// reference-core ns. The only constructor of kernel + libs jobs,
    /// for both the send and the receive side; always inlined, like
    /// [`CoreJob::compute_slice`].
    #[inline(always)]
    fn network(
        service: ServiceId,
        sf: f64,
        kernel_ns: f64,
        libs_ns: f64,
        cont: JobCont,
    ) -> CoreJob {
        let kernel_act = kernel_ns * sf;
        let libs_act = libs_ns * sf;
        CoreJob {
            dur: SimDuration::from_nanos((kernel_act + libs_act) as u64),
            service,
            splits: [
                (ExecDomain::Kernel, kernel_ns, kernel_act),
                (ExecDomain::Libs, libs_ns, libs_act),
            ],
            cont,
        }
    }
}

/// A pending client request (carried by [`Ev::Inject`]).
#[derive(Debug)]
struct InjectReq {
    entry: EndpointRef,
    rtype: RequestType,
    bytes: u64,
    partition_key: u64,
    origin: Zone,
}

/// A free-list arena for hot event payloads.
///
/// The scheduler copies every queued event through its timing-wheel
/// slots (pushes, cascades, drains), so events must stay small; bulky
/// payloads ([`CoreJob`], [`Message`], [`InjectReq`]) park here and the
/// event carries a `u32` ticket. Ids are minted and retired in event
/// order, which is deterministic per shard, and never leak into
/// simulation observables — pooling cannot perturb results.
#[derive(Debug)]
struct Pool<T> {
    slots: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> Pool<T> {
    fn with_capacity(cap: usize) -> Self {
        Pool {
            slots: Vec::with_capacity(cap),
            free: Vec::with_capacity(cap),
        }
    }

    /// Always inlined, so a payload built at the call site is written
    /// straight into its slot instead of being staged on the stack and
    /// copied in.
    #[inline(always)]
    fn alloc(&mut self, value: T) -> u32 {
        match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = Some(value);
                i
            }
            None => {
                self.slots.push(Some(value));
                (self.slots.len() - 1) as u32
            }
        }
    }

    fn take(&mut self, id: u32) -> T {
        let v = self.slots[id as usize].take().expect("live pooled entry");
        self.free.push(id);
        v
    }

    /// Retires ticket `id` without moving its payload out.
    fn free(&mut self, id: u32) {
        let slot = &mut self.slots[id as usize];
        debug_assert!(slot.is_some(), "freeing a dead pooled entry");
        *slot = None;
        self.free.push(id);
    }

    fn get(&self, id: u32) -> &T {
        self.slots[id as usize].as_ref().expect("live pooled entry")
    }

    fn get_mut(&mut self, id: u32) -> &mut T {
        self.slots[id as usize].as_mut().expect("live pooled entry")
    }
}

/// The event alphabet of one shard. Machine shards see everything but
/// `Inject`; the client shard sees `Inject` and `MsgArrive` (replies).
#[derive(Debug)]
enum Ev {
    /// A client (or sensor) issues a request (pooled `InjectReq`).
    Inject(u32),
    /// A message finished its network flight (pooled `Message`).
    MsgArrive(u32),
    /// This shard's machine finished executing a job (pooled `CoreJob`).
    CoreJobDone { job: u32 },
    /// An I/O wait completed.
    IoDone { inv: SlabKey },
    /// A blocked caller was granted a downstream connection.
    ConnGranted { inv: SlabKey, to: ServiceId },
    /// A serverless cold start finished; a warm worker is available.
    WorkerSpawned { inst: InstanceId },
}

// ---------------------------------------------------------------------------
// Event sink
// ---------------------------------------------------------------------------

/// Where a handler's outputs go: shard-local events into its lane's
/// wheel, messages to other shards into the outbox bin of the
/// destination's lane. The lane files its own bin right after the
/// handler returns (see [`Lane::run_window`]); other lanes' bins wait
/// for the epoch exchange.
struct Sink<'a> {
    shard: u16,
    lanes: usize,
    wheel: &'a mut Scheduler<(u16, Ev)>,
    out: &'a mut Outbox<(u16, Message)>,
}

impl Sink<'_> {
    /// Schedules a shard-local event under a shard-minted key.
    fn local(&mut self, at: SimTime, key: u64, ev: Ev) {
        self.wheel.schedule_keyed(at, key, (self.shard, ev));
    }

    /// Ships a message to shard `dst`, arriving at absolute `at_ns`
    /// under the sender-minted `key`.
    fn cross(&mut self, dst: u16, at_ns: u64, key: u64, msg: Message) {
        let lane = lane_of(dst as usize, self.lanes);
        self.out.send(lane, at_ns, key, (dst, msg));
    }
}

// ---------------------------------------------------------------------------
// Shard state + handlers
// ---------------------------------------------------------------------------

/// All mutable state owned by one shard. Shards `0..M` each own machine
/// `i`; shard `M` is the client shard (injections, request stats).
#[derive(Debug)]
struct ShardState {
    shard: u16,
    /// `Some` on machine shards, `None` on the client shard.
    machine: Option<MachineRt>,
    insts: Vec<InstRt>,
    /// Requests this shard has outstanding toward each instance — the
    /// `LeastOutstanding` balancer's (shard-local) signal.
    outstanding: Vec<u32>,
    /// Per-service round-robin cursors for picks made by this shard.
    rr: Vec<usize>,
    invocations: Slab<Invocation>,
    /// Recycled `Invocation::frames` vectors. Every invocation needs a
    /// frame stack and finishes with it empty; pooling the backing
    /// storage removes one allocation/free pair per invocation from the
    /// hot path.
    frame_pool: Vec<Vec<Frame>>,
    rng: Rng,
    /// Tie-break key counter; see [`ShardState::mint`].
    key_ctr: u64,
    /// Span-id counter (shard-tagged like keys, so ids are globally
    /// unique without coordination, and the merged collector can place
    /// each kept span by its shard; see [`TraceCollector::sync_from`]).
    span_ctr: u64,
    stats: Vec<ServiceStats>,
    collector: ShardCollector,
    /// Client shard only: end-to-end stats per request type.
    request_stats: Vec<RequestStats>,
    /// Client shard only: request-id counter.
    next_req: u64,
    job_pool: Pool<CoreJob>,
    msg_pool: Pool<Message>,
    inject_pool: Pool<InjectReq>,
}

impl ShardState {
    /// Mints the next globally-unique tie-break key: `(shard << 48) | ctr`.
    ///
    /// Every wheel orders same-instant events by this key, so the pop
    /// sequence of a shard is the same whichever lane's wheel holds it
    /// — the cornerstone of the conformance guarantee across worker
    /// counts.
    fn mint(&mut self) -> u64 {
        self.key_ctr += 1;
        (self.shard as u64) << 48 | self.key_ctr
    }

    fn mint_span(&mut self) -> u64 {
        self.span_ctr += 1;
        (self.shard as u64) << 48 | self.span_ctr
    }

    /// This shard's machine id. Only valid on machine shards.
    fn machine_id(&self) -> MachineId {
        debug_assert!(self.machine.is_some(), "not a machine shard");
        MachineId(self.shard as u32)
    }

    /// Queues `msg` for arrival on this shard at `at_ns` in `wheel` (its
    /// lane's), under the key the sending shard minted.
    fn file_msg(&mut self, wheel: &mut Scheduler<(u16, Ev)>, at_ns: u64, key: u64, msg: Message) {
        let idx = self.msg_pool.alloc(msg);
        let at = SimTime::from_nanos(at_ns);
        wheel.schedule_keyed(at, key, (self.shard, Ev::MsgArrive(idx)));
    }

    /// Sends `msg` to shard `dst`, arriving at `at`, under a key minted
    /// here: filed in this shard's own wheel when `dst` is this shard,
    /// else crossed to it. Every message a handler sends goes this way.
    /// Always inlined, like [`ShardState::submit_job`], so the message
    /// is not copied into a call frame on its way to its pool slot or
    /// outbox.
    #[inline(always)]
    fn send_to(&mut self, sink: &mut Sink, dst: u16, at: SimTime, msg: Message) {
        let key = self.mint();
        if dst == self.shard {
            self.file_msg(sink.wheel, at.as_nanos(), key, msg);
        } else {
            sink.cross(dst, at.as_nanos(), key, msg);
        }
    }

    // -- CPU ---------------------------------------------------------------

    /// Submits `job` to this shard's cores. Always inlined, like
    /// [`Pool::alloc`], so the caller builds the job straight into its
    /// pool slot.
    #[inline(always)]
    fn submit_job(&mut self, sink: &mut Sink, now: SimTime, job: CoreJob) {
        let dur = job.dur;
        let id = self.job_pool.alloc(job);
        self.arm_job(sink, now, id, dur);
    }

    /// Mints pooled job `id`'s key, then starts it on a free core or
    /// queues it behind the busy ones. The key is minted either way.
    fn arm_job(&mut self, sink: &mut Sink, now: SimTime, id: u32, dur: SimDuration) {
        let key = self.mint();
        let m = self.machine.as_mut().expect("compute on a machine shard");
        if m.busy < m.cores {
            m.busy += 1;
            sink.local(now + dur, key, Ev::CoreJobDone { job: id });
        } else {
            m.run_queue.push_back(id);
        }
    }

    fn on_job_done(&mut self, sh: &SharedState, sink: &mut Sink, now: SimTime, id: u32) {
        // Start the next queued job (or free the core).
        let next = self
            .machine
            .as_mut()
            .expect("machine shard")
            .run_queue
            .pop_front();
        match next {
            Some(n) => {
                let dur = self.job_pool.get(n).dur;
                let key = self.mint();
                sink.local(now + dur, key, Ev::CoreJobDone { job: n });
            }
            None => {
                // Saturating: a job surviving a chaos crash/restart cycle
                // may outlive the counter reset.
                let m = self.machine.as_mut().expect("machine shard");
                m.busy = m.busy.saturating_sub(1);
            }
        }
        // Account the finished job, read in its slot.
        let job = self.job_pool.get(id);
        let freq = sh.machines[self.shard as usize].core.freq_ghz;
        let ipc = sh.ref_ipc(job.service);
        let stats = &mut self.stats[job.service.0 as usize];
        for &(domain, ref_ns, actual_ns) in &job.splits {
            if actual_ns > 0.0 || ref_ns > 0.0 {
                stats.charge(domain, actual_ns, freq, ref_ns, ipc, REF_FREQ_GHZ);
            }
        }
        let actual: f64 = job.splits.iter().map(|s| s.2).sum();
        // Continuation. Only message-carrying jobs move out of the slot.
        match job.cont {
            JobCont::StepChunk {
                inv,
                domain,
                remaining_ref,
                remaining_actual,
            } => {
                let Some(i) = self.invocations.get_mut(inv) else {
                    self.job_pool.free(id);
                    return;
                };
                i.app_ns += actual;
                // Re-arm the same ticket with the next slice.
                let job = self.job_pool.get_mut(id);
                *job = CoreJob::compute_slice(
                    job.service,
                    sh.cpu_quantum_ns,
                    inv,
                    domain,
                    remaining_ref,
                    remaining_actual,
                );
                let dur = job.dur;
                self.arm_job(sink, now, id, dur);
            }
            JobCont::StepDone(inv) => {
                self.job_pool.free(id);
                if let Some(i) = self.invocations.get_mut(inv) {
                    i.app_ns += actual;
                }
                self.advance(sh, sink, now, inv);
            }
            JobCont::RecvResponse(inv) => {
                self.job_pool.free(id);
                if let Some(i) = self.invocations.get_mut(inv) {
                    i.net_ns += actual;
                }
                self.on_response(sh, sink, now, inv, false);
            }
            JobCont::SendDone { .. } | JobCont::RecvRequest(_) => {
                match self.job_pool.take(id).cont {
                    JobCont::SendDone {
                        msg,
                        bytes,
                        extra,
                        charge,
                    } => {
                        let tx = self.transmit(sh, sink, now, bytes, extra, msg);
                        if let Some(k) = charge {
                            if let Some(i) = self.invocations.get_mut(k) {
                                // Processing plus NIC queueing/serialization
                                // both count as network time (the paper's §5
                                // metric).
                                i.net_ns += actual + tx.as_nanos() as f64;
                            }
                        }
                    }
                    JobCont::RecvRequest(msg) => {
                        self.enqueue_request(sh, sink, now, msg, actual);
                    }
                    _ => unreachable!("matched a message-carrying job"),
                }
            }
        }
    }

    // -- Network -----------------------------------------------------------

    /// Queues send-side processing for `msg` on this shard's cores, then
    /// (via `SendDone`) pushes it through the NIC and fabric.
    #[allow(clippy::too_many_arguments)]
    fn begin_send(
        &mut self,
        sh: &SharedState,
        sink: &mut Sink,
        now: SimTime,
        acct: ServiceId,
        protocol: Protocol,
        bytes: u64,
        msg: Message,
        charge: Option<SlabKey>,
    ) {
        let costs = protocol.costs(bytes);
        let from = self.machine_id();
        let (host_kernel, pipe_send) = sh.machines[from.0 as usize]
            .offload
            .apply(costs.send_kernel_ns);
        // Receiver-side FPGA pipeline delay is added here too (we know the
        // destination), so delivery happens in a single hop. The client
        // shard has no machine, hence no FPGA.
        let pipe_recv = sh
            .machines
            .get(msg.dst_shard(sh) as usize)
            .map_or(0.0, |m| m.offload.apply(costs.recv_kernel_ns).1);
        let cont = JobCont::SendDone {
            msg,
            bytes,
            extra: SimDuration::from_nanos((pipe_send + pipe_recv) as u64),
            charge,
        };
        let sf = sh.speed_factor(acct, from);
        let job = CoreJob::network(acct, sf, host_kernel, costs.send_libs_ns, cont);
        self.submit_job(sink, now, job);
    }

    /// Queues receive-side processing of a message costing `costs` on
    /// this shard's cores, charged to `service`; `cont` runs when it
    /// finishes. Always inlined, like [`ShardState::submit_job`].
    #[inline(always)]
    fn submit_recv(
        &mut self,
        sh: &SharedState,
        sink: &mut Sink,
        now: SimTime,
        service: ServiceId,
        costs: MsgCosts,
        cont: JobCont,
    ) {
        let (host_kernel, _pipe) = sh.machines[self.shard as usize]
            .offload
            .apply(costs.recv_kernel_ns);
        let sf = sh.speed_factor(service, self.machine_id());
        let job = CoreJob::network(service, sf, host_kernel, costs.recv_libs_ns, cont);
        self.submit_job(sink, now, job);
    }

    /// Pushes `msg` through this machine's NIC and one hop to its
    /// destination shard; returns the NIC queueing plus serialization
    /// time.
    fn transmit(
        &mut self,
        sh: &SharedState,
        sink: &mut Sink,
        now: SimTime,
        bytes: u64,
        extra: SimDuration,
        msg: Message,
    ) -> SimDuration {
        let tx = self
            .machine
            .as_mut()
            .expect("send from a machine shard")
            .nic
            .transmit(now, bytes);
        let sent = now + tx;
        let dst = msg.dst_shard(sh);
        let cut = sh.chaos_net.as_deref().and_then(|n| n.cut(self.shard, dst));
        let prop = if dst == self.shard {
            // Same machine: shard-local delivery, loopback latency.
            sh.fabric.loopback()
        } else if let Some(timeout_ns) = cut {
            // Checked before the hop, so a cut message draws no delay.
            self.drop_at_cut(sh, sink, sent, timeout_ns, msg);
            return tx;
        } else {
            let prop = self.hop(sh, sh.machines[self.shard as usize].zone, dst);
            debug_assert!(
                prop.as_nanos() >= sh.lookahead_ns,
                "cross-shard hop {} below lookahead {}",
                prop.as_nanos(),
                sh.lookahead_ns
            );
            prop
        };
        self.send_to(sink, dst, sent + prop + extra, msg);
        tx
    }

    /// The propagation delay of one fabric hop from this shard, sitting
    /// in `from_zone`, to shard `to`: the jittered zone-to-zone delay,
    /// stretched by the worse NIC degradation of its two ends. The
    /// client shard sits in [`Zone::Client`]. The only caller of
    /// [`Fabric::delay`].
    fn hop(&mut self, sh: &SharedState, from_zone: Zone, to: u16) -> SimDuration {
        let to_zone = sh
            .machines
            .get(to as usize)
            .map_or(Zone::Client, |m| m.zone);
        let prop = sh.fabric.delay(from_zone, to_zone, &mut self.rng);
        let f = sh
            .chaos_net
            .as_deref()
            .map_or(1.0, |n| n.degrade_factor(self.shard, to));
        if f > 1.0 {
            // Delays only grow (factor ≥ 1.0), so the DSB015 lookahead
            // floor stays valid.
            SimDuration::from_nanos((prop.as_nanos() as f64 * f) as u64)
        } else {
            prop
        }
    }

    /// A message ran into a network cut. The sender's failure detector
    /// fires after the cut link's `timeout_ns` (clamped ≥ the lookahead
    /// floor when the partition starts): a cut request fails back to its
    /// caller on this very shard, a cut response is delivered to the
    /// caller as a failure after the same timeout.
    fn drop_at_cut(
        &mut self,
        sh: &SharedState,
        sink: &mut Sink,
        sent: SimTime,
        timeout_ns: u64,
        msg: Message,
    ) {
        let notice = match msg {
            Message::Request(rm) => {
                if let Some(c) = rm.caller {
                    debug_assert_eq!(
                        c.machine.0 as u16, self.shard,
                        "requests transmit from the caller's shard"
                    );
                }
                Message::failure(sh, rm.caller, rm.dst, rm.rtype, rm.spawn)
            }
            Message::Response(mut resp) => {
                resp.failed = true;
                Message::Response(resp)
            }
            Message::ClientReply { .. } => {
                unreachable!("client replies never cross a machine cut")
            }
        };
        let at = sent + SimDuration::from_nanos(timeout_ns);
        self.send_to(sink, notice.dst_shard(sh), at, notice);
    }

    fn deliver(&mut self, sh: &SharedState, sink: &mut Sink, now: SimTime, msg: Message) {
        match msg {
            Message::Request(rm) => {
                let meta = sh.insts[rm.dst.0 as usize];
                debug_assert_eq!(meta.machine.0 as u16, self.shard, "request routed wrong");
                if meta.state == InstanceState::Down {
                    // Crashed while the request was in flight: fail fast,
                    // skipping the receive-side CPU of a dead host.
                    self.post_failed(sh, sink, now, rm);
                    return;
                }
                let costs = sh.app.service(meta.service).protocol.costs(rm.bytes);
                let cont = JobCont::RecvRequest(rm);
                self.submit_recv(sh, sink, now, meta.service, costs, cont);
            }
            Message::Response(resp) => {
                // The pick that sent this request was made on this shard;
                // settle its outstanding count even if the caller is gone.
                let o = &mut self.outstanding[resp.from_inst.0 as usize];
                *o = o.saturating_sub(1);
                if resp.failed {
                    // Error responses carry no payload worth parsing:
                    // skip the receive CPU job and poison the caller.
                    self.on_response(sh, sink, now, resp.to_inv, true);
                    return;
                }
                let Some(inv) = self.invocations.get(resp.to_inv) else {
                    return;
                };
                let costs = resp.protocol.costs(resp.bytes);
                let cont = JobCont::RecvResponse(resp.to_inv);
                self.submit_recv(sh, sink, now, inv.service, costs, cont);
            }
            Message::ClientReply {
                rtype,
                spawn,
                inst,
                failed,
            } => {
                let o = &mut self.outstanding[inst.0 as usize];
                *o = o.saturating_sub(1);
                if failed {
                    self.request_stats_mut(sh, rtype).fail(now);
                } else {
                    self.request_stats_mut(sh, rtype).complete(now, now - spawn);
                }
            }
        }
    }

    // -- Instance dispatch ---------------------------------------------------

    /// Fails a request back to whoever is waiting on it: its caller (as
    /// an error response) or the client (as a failed reply). Used when
    /// the destination instance is down — no CPU or NIC state of the
    /// dead host is touched; the notice travels after the conservative
    /// lookahead delay, identically at every worker count.
    fn post_failed(&mut self, sh: &SharedState, sink: &mut Sink, now: SimTime, rm: RequestMsg) {
        let notice = Message::failure(sh, rm.caller, rm.dst, rm.rtype, rm.spawn);
        let at = now + SimDuration::from_nanos(sh.lookahead_ns);
        self.send_to(sink, notice.dst_shard(sh), at, notice);
    }

    fn enqueue_request(
        &mut self,
        sh: &SharedState,
        sink: &mut Sink,
        now: SimTime,
        msg: RequestMsg,
        recv_net_ns: f64,
    ) {
        let inst_id = msg.dst;
        let meta = sh.insts[inst_id.0 as usize];
        if meta.state == InstanceState::Down {
            // The instance crashed while this request sat in receive
            // processing; fail it back rather than queueing at a corpse.
            self.post_failed(sh, sink, now, msg);
            return;
        }
        let on_demand = meta.worker_limit.is_none();
        let needs_spawn = {
            let rt = &mut self.insts[inst_id.0 as usize];
            rt.inflight += 1;
            rt.queue.push_back(PendingReq {
                msg,
                arrived: now,
                recv_net_ns,
            });
            on_demand && rt.warm_free == 0
        };
        if needs_spawn {
            let cold = match &sh.app.service(meta.service).workers {
                WorkerPolicy::OnDemand { cold_start_ns } => cold_start_ns.sample(&mut self.rng),
                WorkerPolicy::Fixed(_) => 0.0,
            };
            let key = self.mint();
            sink.local(
                now + SimDuration::from_nanos(cold as u64),
                key,
                Ev::WorkerSpawned { inst: inst_id },
            );
        }
        self.try_dispatch(sh, sink, now, inst_id);
    }

    fn worker_available(&self, sh: &SharedState, inst_id: InstanceId) -> bool {
        let rt = &self.insts[inst_id.0 as usize];
        match sh.insts[inst_id.0 as usize].worker_limit {
            Some(limit) => rt.busy_workers < limit,
            None => rt.warm_free > 0,
        }
    }

    fn try_dispatch(
        &mut self,
        sh: &SharedState,
        sink: &mut Sink,
        now: SimTime,
        inst_id: InstanceId,
    ) {
        loop {
            if self.insts[inst_id.0 as usize].queue.is_empty()
                || !self.worker_available(sh, inst_id)
            {
                return;
            }
            let pending = {
                let rt = &mut self.insts[inst_id.0 as usize];
                if sh.insts[inst_id.0 as usize].worker_limit.is_none() {
                    rt.warm_free -= 1;
                }
                rt.busy_workers += 1;
                rt.queue.pop_front().expect("checked non-empty")
            };
            self.start_invocation(sh, sink, now, inst_id, pending);
        }
    }

    fn start_invocation(
        &mut self,
        sh: &SharedState,
        sink: &mut Sink,
        now: SimTime,
        inst_id: InstanceId,
        p: PendingReq,
    ) {
        let service = sh.insts[inst_id.0 as usize].service;
        let script = sh.app.service(service).endpoints[p.msg.endpoint as usize]
            .script
            .clone();
        let span = self.mint_span();
        let mut frames = self.frame_pool.pop().unwrap_or_default();
        frames.push(Frame {
            block: script,
            pc: 0,
        });
        let inv = Invocation {
            service,
            instance: inst_id,
            endpoint: p.msg.endpoint,
            req: p.msg.req,
            rtype: p.msg.rtype,
            origin: p.msg.origin,
            partition_key: p.msg.partition_key,
            spawn: p.msg.spawn,
            caller: p.msg.caller,
            parent_span: p.msg.parent_span,
            span,
            frames,
            outstanding: 0,
            worker_held: true,
            conn_to: None,
            blocked: None,
            arrived: p.arrived,
            started: now,
            app_ns: 0.0,
            net_ns: p.recv_net_ns,
            failed: false,
        };
        let key = self.invocations.insert(inv);
        self.advance(sh, sink, now, key);
    }

    // -- Script interpreter --------------------------------------------------

    fn next_step(&mut self, key: SlabKey) -> Option<Option<Step>> {
        // Outer None: invocation vanished. Inner None: script finished.
        let inv = self.invocations.get_mut(key)?;
        loop {
            let Some(frame) = inv.frames.last_mut() else {
                return Some(None);
            };
            if frame.pc >= frame.block.len() {
                inv.frames.pop();
                continue;
            }
            let step = frame.block[frame.pc].clone();
            frame.pc += 1;
            return Some(Some(step));
        }
    }

    fn advance(&mut self, sh: &SharedState, sink: &mut Sink, now: SimTime, key: SlabKey) {
        loop {
            let Some(step) = self.next_step(key) else {
                return;
            };
            let Some(step) = step else {
                self.finish_invocation(sh, sink, now, key);
                return;
            };
            match step {
                Step::Compute { ns, domain } => {
                    let ref_ns = ns.sample(&mut self.rng);
                    let service = self
                        .invocations
                        .get(key)
                        .expect("advancing live inv")
                        .service;
                    let sf = sh.speed_factor(service, self.machine_id());
                    let actual = ref_ns * sf;
                    self.submit_compute(sh, sink, now, key, domain, ref_ns, actual);
                    return;
                }
                Step::Io { ns } => {
                    let wait = ns.sample(&mut self.rng);
                    let k = self.mint();
                    sink.local(
                        now + SimDuration::from_nanos(wait as u64),
                        k,
                        Ev::IoDone { inv: key },
                    );
                    return;
                }
                Step::Call { target, req_bytes } => {
                    let bytes = req_bytes.sample(&mut self.rng).max(1.0) as u64;
                    self.invocations.get_mut(key).expect("live inv").outstanding = 1;
                    self.maybe_release_worker(sh, sink, now, key);
                    let blocking = sh
                        .app
                        .service(target.service)
                        .protocol
                        .blocking_connections();
                    if blocking {
                        self.call_with_connection(sh, sink, now, key, target, bytes);
                    } else {
                        self.send_call(sh, sink, now, key, target, bytes);
                    }
                    return;
                }
                Step::ParCall { calls } => {
                    if calls.is_empty() {
                        continue;
                    }
                    let sampled: Vec<(EndpointRef, u64)> = calls
                        .iter()
                        .map(|(t, d)| (*t, d.sample(&mut self.rng).max(1.0) as u64))
                        .collect();
                    self.invocations.get_mut(key).expect("live inv").outstanding =
                        sampled.len() as u32;
                    self.maybe_release_worker(sh, sink, now, key);
                    for (t, b) in sampled {
                        self.send_call(sh, sink, now, key, t, b);
                    }
                    return;
                }
                Step::FanCall {
                    target,
                    req_bytes,
                    n,
                } => {
                    let count = n.sample(&mut self.rng).round().max(0.0) as u32;
                    if count == 0 {
                        continue;
                    }
                    let bytes: Vec<u64> = (0..count)
                        .map(|_| req_bytes.sample(&mut self.rng).max(1.0) as u64)
                        .collect();
                    self.invocations.get_mut(key).expect("live inv").outstanding = count;
                    self.maybe_release_worker(sh, sink, now, key);
                    for b in bytes {
                        self.send_call(sh, sink, now, key, target, b);
                    }
                    return;
                }
                Step::Branch { p, then, els } => {
                    let block = if self.rng.chance(p) { then } else { els };
                    if !block.is_empty() {
                        let inv = self.invocations.get_mut(key).expect("live inv");
                        inv.frames.push(Frame { block, pc: 0 });
                    }
                    continue;
                }
                Step::CacheLookup {
                    cache,
                    hit,
                    then,
                    els,
                } => {
                    // Draw unconditionally first: fault-free runs then
                    // consume the identical RNG stream as an equivalent
                    // `Branch`, keeping existing goldens byte-stable.
                    let hit_drawn = self.rng.chance(hit);
                    let forced = {
                        let insts = &sh.services[cache.service.0 as usize].instances;
                        if insts.is_empty() {
                            true
                        } else {
                            let pk = self
                                .invocations
                                .get(key)
                                .expect("advancing live inv")
                                .partition_key;
                            let home = insts[key_home(pk, insts.len())];
                            sh.insts[home.0 as usize].state == InstanceState::Down
                                || now.as_nanos() < sh.chaos_cold[home.0 as usize]
                        }
                    };
                    if hit_drawn && forced {
                        // Would have hit, but the key's home shard is
                        // down or refilling: a chaos-induced cold miss.
                        self.stats[cache.service.0 as usize].refill_misses += 1;
                    }
                    let block = if hit_drawn && !forced { then } else { els };
                    if !block.is_empty() {
                        let inv = self.invocations.get_mut(key).expect("live inv");
                        inv.frames.push(Frame { block, pc: 0 });
                    }
                    continue;
                }
            }
        }
    }

    /// Submits a compute step as one core job, or as timeslices if it is
    /// long (round-robin preemption).
    #[allow(clippy::too_many_arguments)]
    fn submit_compute(
        &mut self,
        sh: &SharedState,
        sink: &mut Sink,
        now: SimTime,
        key: SlabKey,
        domain: ExecDomain,
        ref_ns: f64,
        actual_ns: f64,
    ) {
        let service = self.invocations.get(key).expect("live inv").service;
        let job =
            CoreJob::compute_slice(service, sh.cpu_quantum_ns, key, domain, ref_ns, actual_ns);
        self.submit_job(sink, now, job);
    }

    /// Event-driven services release their worker at the first await point.
    fn maybe_release_worker(
        &mut self,
        sh: &SharedState,
        sink: &mut Sink,
        now: SimTime,
        key: SlabKey,
    ) {
        let (service, held, inst_id) = {
            let inv = self.invocations.get(key).expect("live inv");
            (inv.service, inv.worker_held, inv.instance)
        };
        if held && sh.app.service(service).concurrency == Concurrency::Async {
            self.invocations.get_mut(key).expect("live").worker_held = false;
            self.release_worker(sh, inst_id);
            self.try_dispatch(sh, sink, now, inst_id);
        }
    }

    fn release_worker(&mut self, sh: &SharedState, inst_id: InstanceId) {
        let rt = &mut self.insts[inst_id.0 as usize];
        rt.busy_workers -= 1;
        if sh.insts[inst_id.0 as usize].worker_limit.is_none() {
            rt.warm_free += 1;
        }
    }

    fn call_with_connection(
        &mut self,
        sh: &SharedState,
        sink: &mut Sink,
        now: SimTime,
        key: SlabKey,
        target: EndpointRef,
        bytes: u64,
    ) {
        let inst_id = self.invocations.get(key).expect("live inv").instance;
        let limit = sh.app.service(target.service).conn_limit;
        let granted = {
            let rt = &mut self.insts[inst_id.0 as usize];
            let pool = rt.conns.entry(target.service).or_insert_with(|| ConnPool {
                limit,
                in_use: 0,
                waiters: VecDeque::with_capacity(8),
            });
            if pool.in_use < pool.limit {
                pool.in_use += 1;
                true
            } else {
                pool.waiters.push_back(key);
                false
            }
        };
        if granted {
            self.invocations.get_mut(key).expect("live inv").conn_to = Some(target.service);
            self.send_call(sh, sink, now, key, target, bytes);
        } else {
            self.invocations.get_mut(key).expect("live inv").blocked =
                Some(BlockedCall { target, bytes });
        }
    }

    fn send_call(
        &mut self,
        sh: &SharedState,
        sink: &mut Sink,
        now: SimTime,
        key: SlabKey,
        target: EndpointRef,
        bytes: u64,
    ) {
        let (service, req, rtype, origin, pk, spawn, span) = {
            let inv = self.invocations.get(key).expect("live inv");
            (
                inv.service,
                inv.req,
                inv.rtype,
                inv.origin,
                inv.partition_key,
                inv.spawn,
                inv.span,
            )
        };
        let Some(dst) = self.pick_instance(sh, target.service, pk) else {
            // No live instance (chaos crash took the whole tier): the
            // call fails fast, as if an error response arrived at once.
            self.on_response(sh, sink, now, key, true);
            return;
        };
        let protocol = sh.app.service(target.service).protocol;
        let msg = Message::Request(RequestMsg {
            req,
            rtype,
            origin,
            dst,
            endpoint: target.endpoint,
            caller: Some(Caller {
                inv: key,
                machine: self.machine_id(),
            }),
            parent_span: Some(SpanId(span)),
            bytes,
            partition_key: pk,
            spawn,
        });
        self.begin_send(sh, sink, now, service, protocol, bytes, msg, Some(key));
    }

    /// Picks a destination instance for a call from this shard, or
    /// `None` when the service has no live instance (every replica
    /// crashed) — callers fail the request fast in that case. Every
    /// policy bumps the shard-local outstanding count of its pick (so
    /// switching policies mid-run never sees stale counters); the count
    /// settles when the response (or client reply) arrives back here.
    fn pick_instance(
        &mut self,
        sh: &SharedState,
        service: ServiceId,
        partition_key: u64,
    ) -> Option<InstanceId> {
        let rt = &sh.services[service.0 as usize];
        let pick = if let Some(pin) = rt.pinned {
            pin
        } else {
            // Runs once per hop on the hot path: scan the Up subset in
            // place instead of collecting it.
            let up_count = rt
                .instances
                .iter()
                .filter(|i| sh.insts[i.0 as usize].state == InstanceState::Up)
                .count();
            if up_count == 0 {
                return None;
            }
            match sh.app.service(service).lb {
                LbPolicy::RoundRobin => {
                    let r = &mut self.rr[service.0 as usize];
                    *r = r.wrapping_add(1);
                    let idx = *r % up_count;
                    rt.instances
                        .iter()
                        .copied()
                        .filter(|i| sh.insts[i.0 as usize].state == InstanceState::Up)
                        .nth(idx)
                        .expect("idx < up_count")
                }
                LbPolicy::LeastOutstanding => rt
                    .instances
                    .iter()
                    .copied()
                    .filter(|i| sh.insts[i.0 as usize].state == InstanceState::Up)
                    .min_by_key(|i| self.outstanding[i.0 as usize])
                    .expect("non-empty"),
                LbPolicy::Partition => {
                    // Shard membership must be a stable function of the key
                    // over the *total* instance list: hashing modulo the `Up`
                    // subset would remap every key the moment one shard leaves
                    // rotation. A key whose home shard is down fails over by
                    // probing forward, so only that shard's keys move.
                    let all = &rt.instances;
                    let start = key_home(partition_key, all.len());
                    (0..all.len())
                        .map(|off| all[(start + off) % all.len()])
                        .find(|i| sh.insts[i.0 as usize].state == InstanceState::Up)
                        .expect("checked above: at least one Up instance")
                }
            }
        };
        self.outstanding[pick.0 as usize] += 1;
        Some(pick)
    }

    /// Settles one downstream call of `key`. With `failed`, the call's
    /// error poisons the invocation: the rest of its script is dropped
    /// and, once every outstanding call settles, the failure propagates
    /// to this invocation's own caller via [`ShardState::finish_invocation`].
    fn on_response(
        &mut self,
        sh: &SharedState,
        sink: &mut Sink,
        now: SimTime,
        key: SlabKey,
        failed: bool,
    ) {
        let Some(inv) = self.invocations.get_mut(key) else {
            return;
        };
        if failed {
            inv.failed = true;
            inv.frames.clear();
        }
        let inst_id = inv.instance;
        let conn_release = inv.conn_to.take();
        inv.outstanding = inv.outstanding.saturating_sub(1);
        let done_waiting = inv.outstanding == 0;
        if let Some(to) = conn_release {
            self.release_connection(sink, now, inst_id, to);
        }
        if done_waiting {
            self.advance(sh, sink, now, key);
        }
    }

    fn release_connection(
        &mut self,
        sink: &mut Sink,
        now: SimTime,
        inst_id: InstanceId,
        to: ServiceId,
    ) {
        let waiter = {
            let rt = &mut self.insts[inst_id.0 as usize];
            let pool = rt.conns.get_mut(&to).expect("pool exists on release");
            match pool.waiters.pop_front() {
                Some(w) => Some(w), // token transfers to the waiter
                None => {
                    pool.in_use -= 1;
                    None
                }
            }
        };
        if let Some(w) = waiter {
            let key = self.mint();
            sink.local(now, key, Ev::ConnGranted { inv: w, to });
        }
    }

    fn on_conn_granted(
        &mut self,
        sh: &SharedState,
        sink: &mut Sink,
        now: SimTime,
        key: SlabKey,
        to: ServiceId,
    ) {
        let Some(inv) = self.invocations.get_mut(key) else {
            // Waiter vanished (should not happen for blocked callers);
            // return the token.
            return;
        };
        let blocked = inv.blocked.take().expect("granted inv was blocked");
        inv.conn_to = Some(to);
        self.send_call(sh, sink, now, key, blocked.target, blocked.bytes);
    }

    fn finish_invocation(&mut self, sh: &SharedState, sink: &mut Sink, now: SimTime, key: SlabKey) {
        let mut inv = self.invocations.remove(key).expect("finishing live inv");
        // The frame stack is empty by now (the script ran to completion);
        // recycle its backing storage for the next invocation.
        let mut frames = std::mem::take(&mut inv.frames);
        frames.clear();
        if self.frame_pool.len() < 1024 {
            self.frame_pool.push(frames);
        }
        // Span.
        self.collector.record(Span {
            trace: TraceId(inv.req),
            id: SpanId(inv.span),
            parent: inv.parent_span,
            service: inv.service.0,
            endpoint: inv.endpoint,
            start: inv.arrived,
            end: now,
            queue_time: inv.started - inv.arrived,
            app_time: SimDuration::from_nanos(inv.app_ns as u64),
            net_time: SimDuration::from_nanos(inv.net_ns as u64),
        });
        let stats = &mut self.stats[inv.service.0 as usize];
        stats.invocations += 1;
        let e = inv.endpoint as usize;
        if stats.endpoint_invocations.len() <= e {
            stats.endpoint_invocations.resize(e + 1, 0);
        }
        stats.endpoint_invocations[e] += 1;
        self.insts[inv.instance.0 as usize].served += 1;
        // Worker + inflight.
        if inv.worker_held {
            self.release_worker(sh, inv.instance);
        }
        self.insts[inv.instance.0 as usize].inflight -= 1;
        self.try_dispatch(sh, sink, now, inv.instance);
        // Reply.
        let spec = sh.app.service(inv.service);
        let resp_bytes = spec.endpoints[inv.endpoint as usize]
            .resp_bytes
            .sample(&mut self.rng)
            .max(1.0) as u64;
        let protocol = spec.protocol;
        let msg = match inv.caller {
            Some(c) => Message::Response(ResponseMsg {
                to_inv: c.inv,
                to_machine: c.machine,
                from_inst: inv.instance,
                bytes: resp_bytes,
                protocol,
                failed: inv.failed,
            }),
            None => Message::ClientReply {
                rtype: inv.rtype,
                spawn: inv.spawn,
                inst: inv.instance,
                failed: inv.failed,
            },
        };
        self.begin_send(sh, sink, now, inv.service, protocol, resp_bytes, msg, None);
    }

    fn request_stats_mut(&mut self, sh: &SharedState, rtype: RequestType) -> &mut RequestStats {
        let idx = rtype.0 as usize;
        if idx >= self.request_stats.len() {
            let w = sh.window;
            self.request_stats
                .resize_with(idx + 1, || RequestStats::new(w));
        }
        &mut self.request_stats[idx]
    }

    fn on_inject(&mut self, sh: &SharedState, sink: &mut Sink, now: SimTime, r: InjectReq) {
        let admit = sh.admit_prob >= 1.0 || self.rng.chance(sh.admit_prob);
        let stats = self.request_stats_mut(sh, r.rtype);
        stats.issued += 1;
        if !admit {
            stats.rejected += 1;
            return;
        }
        self.next_req += 1;
        let req = self.next_req;
        let Some(dst) = self.pick_instance(sh, r.entry.service, r.partition_key) else {
            // Whole entry tier down: the client sees an immediate error.
            self.request_stats_mut(sh, r.rtype).fail(now);
            return;
        };
        let msg = Message::Request(RequestMsg {
            req,
            rtype: r.rtype,
            origin: r.origin,
            dst,
            endpoint: r.entry.endpoint,
            caller: None,
            parent_span: None,
            bytes: r.bytes,
            partition_key: r.partition_key,
            spawn: now,
        });
        let to = msg.dst_shard(sh);
        let delay = self.hop(sh, r.origin, to);
        // Exotic origins (e.g. a Rack zone) could undercut the lookahead
        // bound; clamp the arrival. Identical at every worker count, and a
        // no-op for the standard Client/Edge origins.
        let at = (now + delay).max(now + SimDuration::from_nanos(sh.lookahead_ns));
        self.send_to(sink, to, at, msg);
    }
}

/// Interprets one event against its shard. Shared verbatim by both
/// drivers; `sink` decides where outputs land.
fn dispatch(st: &mut ShardState, sh: &SharedState, sink: &mut Sink, now: SimTime, ev: Ev) {
    match ev {
        Ev::Inject(id) => {
            let r = st.inject_pool.take(id);
            st.on_inject(sh, sink, now, r);
        }
        Ev::MsgArrive(id) => {
            let msg = st.msg_pool.take(id);
            st.deliver(sh, sink, now, msg);
        }
        Ev::CoreJobDone { job } => st.on_job_done(sh, sink, now, job),
        Ev::IoDone { inv } => st.advance(sh, sink, now, inv),
        Ev::ConnGranted { inv, to } => st.on_conn_granted(sh, sink, now, inv, to),
        Ev::WorkerSpawned { inst } => {
            st.insts[inst.0 as usize].warm_free += 1;
            st.try_dispatch(sh, sink, now, inst);
        }
    }
}

// ---------------------------------------------------------------------------
// Lanes: the wheels the epoch engine drives
// ---------------------------------------------------------------------------

/// A lane's event wheel, padded onto cache lines of its own: a worker
/// writes the wheel of the lane it runs on every event. Unpadded,
/// neighbouring wheels shared lines, and the two-worker
/// `fig22_sharded` perfsuite workload lost a third of its throughput
/// on a 2-vCPU Xeon VM (14.8 k vs 22.0 k req/s).
#[derive(Debug)]
#[repr(align(128))]
struct LaneWheel(Scheduler<(u16, Ev)>);

/// `n` empty lane wheels. The wheels' own RNGs are never drawn from.
fn lane_wheels(n: usize) -> Vec<LaneWheel> {
    (0..n).map(|_| LaneWheel(Scheduler::new(0))).collect()
}

/// The lane that owns `shard` when `lanes` lanes run: lane 0 when one
/// lane holds every shard, else the shard's own lane.
#[inline]
fn lane_of(shard: usize, lanes: usize) -> usize {
    // u32 division: cheaper than u64 on some x86 cores, and shard ids
    // fit in u16.
    (shard as u32 % lanes as u32) as usize
}

/// The host's CPU count, read once per process: a read costs tens of
/// µs, more than a whole `Simulation::new`. It caps the epoch threads,
/// which changes nothing a run computes.
fn host_cpus() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Lane `index` of `count` in one run: its wheel, and exclusive access
/// to the shards it owns (`shards[s]` is `Some` iff `lane_of(s, count)
/// == index`).
struct Lane<'a> {
    index: usize,
    count: usize,
    wheel: &'a mut Scheduler<(u16, Ev)>,
    shards: Vec<Option<&'a mut ShardState>>,
}

impl Lane<'_> {
    /// Queues a message for one of this lane's shards.
    fn file(&mut self, at_ns: u64, key: u64, dst: u16, msg: Message) {
        let st = self.shards[dst as usize]
            .as_deref_mut()
            .expect("destination shard belongs to this lane");
        st.file_msg(self.wheel, at_ns, key, msg);
    }
}

impl EpochShard<SharedState> for Lane<'_> {
    type Transfer = (u16, Message);

    fn next_event_at(&mut self) -> Option<u64> {
        self.wheel.next_event_at()
    }

    fn run_window(&mut self, sh: &SharedState, last: u64, out: &mut Outbox<(u16, Message)>) {
        let until = SimTime::from_nanos(last);
        while let Some((shard, ev)) = self.wheel.pop_due(until) {
            let now = self.wheel.now();
            let st = self.shards[shard as usize]
                .as_deref_mut()
                .expect("event of a shard this lane owns");
            let mut sink = Sink {
                shard,
                lanes: self.count,
                wheel: &mut *self.wheel,
                out: &mut *out,
            };
            dispatch(st, sh, &mut sink, now, ev);
            // Messages between this lane's own shards skip the epoch
            // exchange, and so do messages another lane, run earlier in
            // this window on the same thread, staged for this one. The
            // wheel orders by `(time, key)` whatever the insertion
            // order, so filing them now matches absorbing them at the
            // barrier.
            for (at, key, (dst, msg)) in out.drain(self.index) {
                self.file(at, key, dst, msg);
            }
        }
    }

    fn absorb(&mut self, batch: Vec<Transfer<(u16, Message)>>) {
        for (at, key, (dst, msg)) in batch {
            self.file(at, key, dst, msg);
        }
    }
}

// ---------------------------------------------------------------------------
// Façade
// ---------------------------------------------------------------------------

/// What one run boundary applies, in this order.
#[derive(Debug, Default)]
struct Boundary {
    /// Started instances that join rotation.
    activate: Vec<InstanceId>,
    /// Chaos events that start (`true`) or end (`false`) here, as
    /// indices into [`Simulation`]'s chaos events, in the order they
    /// apply.
    chaos: Vec<(usize, bool)>,
}

/// A complete simulation: sharded cluster state plus the control surface
/// the paper's experiments drive.
///
/// # Example
///
/// ```
/// use dsb_core::{AppBuilder, ClusterSpec, RequestType, Simulation, Step};
/// use dsb_simcore::{Dist, SimDuration, SimTime};
///
/// let mut app = AppBuilder::new("hello");
/// let svc = app.service("svc").event_driven().workers(64).build();
/// let ep = app.endpoint(svc, "get", Dist::constant(512.0), vec![Step::work_us(50.0)]);
/// let mut sim = Simulation::new(app.build(), ClusterSpec::xeon_cluster(2, 1), 1);
///
/// for i in 0..100u64 {
///     sim.inject(SimTime::from_millis(i), ep, RequestType(0), 256, i);
/// }
/// sim.run_until_idle();
/// let stats = sim.request_stats(RequestType(0)).unwrap();
/// assert_eq!(stats.completed, 100);
/// assert!(stats.p99() > SimDuration::from_micros(50));
/// ```
#[derive(Debug)]
pub struct Simulation {
    shared: SharedState,
    shards: Vec<ShardState>,
    /// One wheel per lane: one at `workers = 1`, else one per shard.
    lanes: Vec<LaneWheel>,
    workers: usize,
    /// Events processed by lane wheels that `set_workers` replaced.
    retired_events: u64,
    /// Pending run boundaries by time. Applied between event runs, so
    /// shard handlers see instance states and fault state change only
    /// at quiesced instants — identically at every worker count.
    boundaries: BTreeMap<u64, Boundary>,
    /// Floor of [`Simulation::now`]: the latest applied run boundary,
    /// or the clock when `set_workers` last replaced the lane wheels.
    clock_floor: u64,
    /// The events of every installed plan, churn expanded (see
    /// [`ChaosPlan::expand`]); boundaries name them by index.
    chaos_events: Vec<ChaosEvent>,
    /// The active [`ChaosEvent::MachineCrash`]es and
    /// [`ChaosEvent::CacheLoss`]es, as indices into `chaos_events`. A
    /// machine is down while one of its crashes is active; an instance
    /// while its machine is down or a cache loss of it is active.
    crashes: Vec<usize>,
    /// The last installed plan, kept as ground truth for detection
    /// scorers.
    chaos_plan: Option<ChaosPlan>,
    /// Every origin other than [`Zone::Client`] injected from so far;
    /// each bounds the epoch window (see [`Simulation::lookahead_ns`]).
    origins: Vec<Zone>,
    placer: crate::placement::Placer,
    instance_startup: SimDuration,
    /// Cluster-wide trace view: after every run, the aggregates and
    /// kept spans each shard recorded during it move here (see
    /// [`TraceCollector::sync_from`]).
    merged_collector: TraceCollector,
}

impl Simulation {
    /// Builds a simulation of `app` on `cluster`, seeded deterministically.
    pub fn new(app: AppSpec, cluster: ClusterSpec, seed: u64) -> Self {
        let mut root = Rng::new(seed);
        // All shard collectors share one sampling seed so they reach the
        // same keep/drop verdict for a trace without coordinating.
        let cseed = root.next_u64();
        let machines: Vec<MachineMeta> = cluster
            .machines
            .iter()
            .map(|m| MachineMeta {
                zone: m.zone,
                core: m.core,
                offload: FpgaOffload::disabled(),
            })
            .collect();
        let fabric = Fabric::new(cluster.fabric);
        let lookahead_ns = cluster_lookahead(&fabric, &machines);
        let nsvc = app.services.len();
        let mut shared = SharedState {
            app,
            services: (0..nsvc).map(|_| SharedServiceRt::default()).collect(),
            insts: Vec::new(),
            machines,
            fabric,
            window: cluster.window,
            cpu_quantum_ns: cluster.cpu_quantum.as_nanos() as f64,
            admit_prob: 1.0,
            ref_core: CoreModel::xeon(),
            sf_cache: Vec::new(),
            ref_ipc_cache: Vec::new(),
            lookahead_ns,
            chaos_net: None,
            chaos_cold: Vec::new(),
        };
        shared.rebuild_core_caches();
        let shard_count = cluster.machines.len() + 1;
        let shards: Vec<ShardState> = (0..shard_count)
            .map(|i| {
                let machine = cluster.machines.get(i).map(|m| MachineRt {
                    cores: m.cores,
                    nic: Nic::new(m.nic_gbps),
                    busy: 0,
                    run_queue: VecDeque::with_capacity(16),
                });
                ShardState {
                    shard: i as u16,
                    machine,
                    insts: Vec::new(),
                    outstanding: Vec::new(),
                    rr: vec![0; nsvc],
                    invocations: Slab::with_capacity(64),
                    frame_pool: Vec::new(),
                    rng: Rng::new(mix64(seed ^ mix64(0x5EED ^ i as u64))),
                    key_ctr: 0,
                    span_ctr: 0,
                    stats: vec![ServiceStats::default(); nsvc],
                    collector: ShardCollector::new(
                        cluster.window,
                        cluster.trace_sample_prob,
                        cseed,
                    ),
                    request_stats: Vec::new(),
                    next_req: 0,
                    job_pool: Pool::with_capacity(64),
                    msg_pool: Pool::with_capacity(64),
                    inject_pool: Pool::with_capacity(64),
                }
            })
            .collect();
        let placer = crate::placement::Placer::new(&cluster, nsvc);
        let mut sim = Simulation {
            shared,
            shards,
            lanes: lane_wheels(1),
            workers: 1,
            retired_events: 0,
            boundaries: BTreeMap::new(),
            clock_floor: 0,
            chaos_events: Vec::new(),
            crashes: Vec::new(),
            chaos_plan: None,
            origins: Vec::new(),
            placer,
            instance_startup: cluster.instance_startup,
            merged_collector: TraceCollector::new(cluster.window, cluster.trace_sample_prob, cseed),
        };
        for sid in 0..nsvc {
            for _ in 0..sim.shared.app.services[sid].initial_instances {
                sim.spawn_instance(ServiceId(sid as u32), InstanceState::Up);
            }
        }
        sim
    }

    fn spawn_instance(&mut self, service: ServiceId, state: InstanceState) -> InstanceId {
        let machine = self.placer.place(service, self.shared.app.service(service));
        let worker_limit = match &self.shared.app.service(service).workers {
            WorkerPolicy::Fixed(n) => Some(*n),
            WorkerPolicy::OnDemand { .. } => None,
        };
        let id = InstanceId(self.shared.insts.len() as u32);
        self.shared.insts.push(InstMeta {
            service,
            machine,
            state,
            worker_limit,
        });
        self.shared.services[service.0 as usize].instances.push(id);
        self.shared.chaos_cold.push(0);
        for shard in &mut self.shards {
            shard.insts.push(InstRt::default());
            shard.outstanding.push(0);
        }
        id
    }

    // -- Driver --------------------------------------------------------------

    /// Deals the shards into their lanes and runs every event at or
    /// before `until_ns`. Two or more lanes run in windows of
    /// [`Simulation::lookahead_ns`], on at most one thread per host CPU:
    /// a spin barrier waiting on a descheduled worker only burns time.
    fn run_events(&mut self, until_ns: u64) {
        let count = self.lanes.len();
        // A lone lane runs straight to `until_ns` and ignores the window.
        let (window_ns, threads) = if count == 1 {
            (self.shared.lookahead_ns, 1)
        } else {
            (self.lookahead_ns(), self.workers.min(host_cpus()))
        };
        let n = self.shards.len();
        let mut lanes: Vec<Lane> = self
            .lanes
            .iter_mut()
            .enumerate()
            .map(|(index, w)| Lane {
                index,
                count,
                wheel: &mut w.0,
                shards: (0..n).map(|_| None).collect(),
            })
            .collect();
        for (s, st) in self.shards.iter_mut().enumerate() {
            lanes[lane_of(s, count)].shards[s] = Some(st);
        }
        run_epochs(&self.shared, &mut lanes, threads, window_ns, until_ns);
    }

    // -- Chaos surface -------------------------------------------------------

    /// Installs a fault-injection plan. Each of its events (churn
    /// expanded into the crashes it draws) starts at one run boundary
    /// and is undone at another, applied between event runs, so faults
    /// take effect at quiesced instants — byte-identically at any worker
    /// count. Events at the same instant apply in plan order, a start
    /// before its own end. Faults compose: a machine stays down while
    /// any of its crashes is active, an instance while its machine is
    /// down or a cache loss of it is active, and each end undoes only
    /// its own event. Fail-fast notices travel one model lookahead
    /// (`cluster_lookahead`) and partition timeouts are clamped up to
    /// it (the DSB015 floor), so once a plan is installed the epoch
    /// window narrows to that lookahead ([`Simulation::lookahead_ns`]).
    /// Plans installed one after another each keep their own faults;
    /// the last one is retained as ground truth, exposed via
    /// [`Simulation::chaos_plan`].
    ///
    /// # Panics
    ///
    /// Panics on a [`ChaosEvent::EdgeChurn`] with a zero `period` over
    /// a non-empty window, whose crashes would never stop.
    pub fn install_chaos(&mut self, plan: &ChaosPlan) {
        let first = self.chaos_events.len();
        self.chaos_events.extend(plan.expand());
        let mut instants: Vec<(SimTime, usize, bool)> = (first..self.chaos_events.len())
            .flat_map(|i| {
                let (start, end) = self.chaos_events[i].window();
                [(start, i, true), (end, i, false)]
            })
            .collect();
        instants.sort_by_key(|&(t, ..)| t);
        for (t, i, start) in instants {
            // Boundary 0 would precede the first event run; shift to 1.
            let at = t.as_nanos().max(1);
            self.boundaries
                .entry(at)
                .or_default()
                .chaos
                .push((i, start));
        }
        self.chaos_plan = Some(plan.clone());
    }

    /// The installed chaos plan (ground truth for detection scoring).
    pub fn chaos_plan(&self) -> Option<&ChaosPlan> {
        self.chaos_plan.as_ref()
    }

    /// Applies run boundary `tc`: its instance activations, then the
    /// starts and ends of its chaos events.
    fn apply_boundary(&mut self, tc: u64, boundary: Boundary) {
        for id in boundary.activate {
            let m = &mut self.shared.insts[id.0 as usize];
            if m.state == InstanceState::Starting {
                m.state = InstanceState::Up;
            }
        }
        for (i, start) in boundary.chaos {
            match self.chaos_events[i] {
                ChaosEvent::MachineCrash {
                    machine, cold_for, ..
                } => {
                    if start {
                        self.crashes.push(i);
                        self.crash_machine(machine, tc);
                    } else {
                        self.crashes.retain(|&j| j != i);
                        self.restart_machine(machine, tc, cold_for);
                    }
                }
                ChaosEvent::CacheLoss {
                    service,
                    shard,
                    cold_for,
                    ..
                } => {
                    if let Some(id) = self.nth_instance(service, shard) {
                        if start {
                            self.crashes.push(i);
                            self.crash_instance(id, tc);
                        } else {
                            self.crashes.retain(|&j| j != i);
                            self.restore_instance(id, tc, cold_for);
                        }
                    }
                }
                ChaosEvent::Partition { .. } | ChaosEvent::NicDegrade { .. } => {
                    let n = self.shared.machines.len();
                    let net = self
                        .shared
                        .chaos_net
                        .get_or_insert_with(|| Box::new(NetChaos::new(n)));
                    if start {
                        net.active.push(i);
                    } else {
                        net.active.retain(|&j| j != i);
                    }
                    net.fold(&self.chaos_events, self.shared.lookahead_ns);
                }
                ChaosEvent::EdgeChurn { .. } => unreachable!("churn is expanded at install"),
            }
        }
        self.clock_floor = self.clock_floor.max(tc);
    }

    /// The `shard`-th instance of a service (chaos plans address cache
    /// shards by index so they stay valid across placement changes).
    fn nth_instance(&self, service: ServiceId, shard: u32) -> Option<InstanceId> {
        self.shared.services[service.0 as usize]
            .instances
            .get(shard as usize)
            .copied()
    }

    fn crash_machine(&mut self, m: MachineId, tc: u64) {
        let victims: Vec<InstanceId> = self
            .shared
            .insts
            .iter()
            .enumerate()
            .filter(|(_, meta)| meta.machine == m && meta.state != InstanceState::Down)
            .map(|(i, _)| InstanceId(i as u32))
            .collect();
        for id in &victims {
            self.shared.insts[id.0 as usize].state = InstanceState::Down;
        }
        self.kill_shard_work(m.0 as usize, &victims, tc);
    }

    fn restart_machine(&mut self, m: MachineId, tc: u64, cold_for: SimDuration) {
        for i in 0..self.shared.insts.len() {
            if self.shared.insts[i].machine == m {
                self.restore_instance(InstanceId(i as u32), tc, cold_for);
            }
        }
    }

    fn crash_instance(&mut self, id: InstanceId, tc: u64) {
        let meta = self.shared.insts[id.0 as usize];
        if meta.state == InstanceState::Down {
            return;
        }
        self.shared.insts[id.0 as usize].state = InstanceState::Down;
        self.kill_shard_work(meta.machine.0 as usize, &[id], tc);
    }

    /// Brings a crashed instance back up, cold for `cold_for`, unless
    /// an active crash of its machine or cache loss of it keeps it down.
    fn restore_instance(&mut self, id: InstanceId, tc: u64, cold_for: SimDuration) {
        let meta = self.shared.insts[id.0 as usize];
        if meta.state != InstanceState::Down || self.kept_down(id) {
            return;
        }
        self.shared.insts[id.0 as usize].state = InstanceState::Up;
        self.shared.chaos_cold[id.0 as usize] = tc.saturating_add(cold_for.as_nanos());
        self.reset_inst_rt(meta.machine.0 as usize, id);
    }

    /// Whether an active crash of the instance's machine, or an active
    /// cache loss of the instance, holds it down.
    fn kept_down(&self, id: InstanceId) -> bool {
        let machine = self.shared.insts[id.0 as usize].machine;
        self.crashes.iter().any(|&j| match self.chaos_events[j] {
            ChaosEvent::MachineCrash { machine: m, .. } => m == machine,
            ChaosEvent::CacheLoss { service, shard, .. } => {
                self.nth_instance(service, shard) == Some(id)
            }
            ref other => unreachable!("not a crash: {other:?}"),
        })
    }

    fn reset_inst_rt(&mut self, shard: usize, id: InstanceId) {
        let rt = &mut self.shards[shard].insts[id.0 as usize];
        debug_assert!(rt.queue.is_empty(), "queue drained at crash time");
        rt.busy_workers = 0;
        rt.warm_free = 0;
        rt.inflight = 0;
        rt.conns.clear();
    }

    /// Fails every in-flight invocation and queued request of the victim
    /// instances on `shard`, notifying each caller (or the client) with
    /// an error after the conservative lookahead delay. Events already
    /// in the wheels referencing the dead work resolve safely against
    /// the generational slab; core jobs mid-execution run out on their
    /// own (work the dying host had already started).
    fn kill_shard_work(&mut self, shard: usize, victims: &[InstanceId], tc: u64) {
        let at_ns = tc.saturating_add(self.shared.lookahead_ns);
        let is_victim = |inst: InstanceId| victims.contains(&inst);
        // In-flight invocations (slab order is deterministic per shard).
        let keys: Vec<SlabKey> = self.shards[shard]
            .invocations
            .iter()
            .filter(|(_, inv)| is_victim(inv.instance))
            .map(|(k, _)| k)
            .collect();
        for k in keys {
            let inv = self.shards[shard]
                .invocations
                .remove(k)
                .expect("collected live key");
            let msg =
                Message::failure(&self.shared, inv.caller, inv.instance, inv.rtype, inv.spawn);
            self.post_boundary_msg(shard, at_ns, msg);
        }
        // Queued (not yet started) requests, then reset the runtimes.
        for &id in victims {
            let queued: Vec<PendingReq> = self.shards[shard].insts[id.0 as usize]
                .queue
                .drain(..)
                .collect();
            for p in queued {
                let msg =
                    Message::failure(&self.shared, p.msg.caller, id, p.msg.rtype, p.msg.spawn);
                self.post_boundary_msg(shard, at_ns, msg);
            }
            self.reset_inst_rt(shard, id);
        }
    }

    /// Delivers a boundary-time failure notice into the destination
    /// shard's queue, keyed from the *sending* shard's counter — the
    /// same identity rule event handlers follow, so every worker count
    /// orders the notices identically.
    fn post_boundary_msg(&mut self, from: usize, at_ns: u64, msg: Message) {
        let dst = msg.dst_shard(&self.shared) as usize;
        let key = self.shards[from].mint();
        let lane = lane_of(dst, self.lanes.len());
        let wheel = &mut self.lanes[lane].0;
        self.shards[dst].file_msg(wheel, at_ns, key, msg);
    }

    // -- Run control ---------------------------------------------------------

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        let t = self.lanes.iter().map(|l| l.0.now().as_nanos());
        SimTime::from_nanos(t.fold(self.clock_floor, u64::max))
    }

    /// Total events processed (summed across shards).
    pub fn events_processed(&self) -> u64 {
        let lanes: u64 = self.lanes.iter().map(|l| l.0.events_processed()).sum();
        self.retired_events + lanes
    }

    /// Events still pending across all shards.
    pub fn pending(&self) -> usize {
        self.lanes.iter().map(|l| l.0.pending()).sum()
    }

    /// Runs until all pending events (including in-flight requests) drain.
    pub fn run_until_idle(&mut self) {
        self.advance_to(SimTime::MAX);
    }

    /// Runs the simulation up to the given virtual time, then returns so a
    /// controller (autoscaler, workload generator) can act.
    pub fn advance_to(&mut self, t: SimTime) {
        let t_ns = t.as_nanos();
        while let Some(next) = self.boundaries.first_entry().filter(|e| *e.key() <= t_ns) {
            let (tc, boundary) = next.remove_entry();
            self.run_events(tc.saturating_sub(1));
            self.apply_boundary(tc, boundary);
        }
        self.run_events(t_ns);
        let mut collectors: Vec<&mut ShardCollector> =
            self.shards.iter_mut().map(|s| &mut s.collector).collect();
        self.merged_collector.sync_from(&mut collectors);
    }

    /// Sets the number of worker threads used by subsequent runs, with
    /// byte-identical results at every count. `1` (the default) keeps
    /// every shard in one lane on the calling thread, with no epoch
    /// barriers. `n ≥ 2` makes every shard a lane of its own; in each
    /// epoch window `min(n, shards, host CPUs)` threads claim lanes
    /// until none is left. `now()` and `events_processed()` carry over
    /// unchanged.
    ///
    /// # Panics
    ///
    /// Panics if events are pending: each pending event sits in the
    /// wheel of its shard's lane, and the switch replaces those wheels,
    /// so it must happen at a quiescent point (construction time, or
    /// after `run_until_idle`).
    pub fn set_workers(&mut self, n: usize) {
        assert!(
            self.pending() == 0,
            "set_workers requires a drained event queue"
        );
        self.clock_floor = self.now().as_nanos();
        self.retired_events = self.events_processed();
        self.workers = n.max(1);
        self.lanes = lane_wheels(if self.workers == 1 {
            1
        } else {
            self.shards.len()
        });
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The conservative cross-shard lookahead bound, in nanoseconds:
    /// the epoch window width when two or more lanes run (a lone lane
    /// runs to the horizon and needs none). It is the smallest
    /// [`Fabric::min_delay`], in both directions, over the cross-shard
    /// hops the run can make:
    /// - each call edge of the app between two distinct machines that
    ///   host its caller's and its callee's instances (requests and
    ///   responses);
    /// - the client link of every machine that hosts an instance
    ///   (injections and client replies);
    /// - each origin other than [`Zone::Client`] injected from so far,
    ///   to and from every machine's zone, raised to the model
    ///   lookahead as injections are;
    /// - the model lookahead itself once a chaos plan is installed:
    ///   fail-fast notices and crash kills travel that long.
    ///
    /// The model lookahead (`cluster_lookahead`) bounds every zone pair
    /// the cluster could use, so the window is never narrower. It
    /// follows placement: each run reads it afresh, so instances added
    /// mid-run narrow it from their first run on.
    pub fn lookahead_ns(&self) -> u64 {
        let sh = &self.shared;
        if self.chaos_plan.is_some() {
            return sh.lookahead_ns;
        }
        let zone = |m: MachineId| sh.machines[m.0 as usize].zone;
        let floor = |a: Zone, b: Zone| {
            let (f, r) = (sh.fabric.min_delay(a, b), sh.fabric.min_delay(b, a));
            f.min(r).as_nanos()
        };
        // The machines each service's instances sit on.
        let hosts: Vec<Vec<MachineId>> = sh
            .services
            .iter()
            .map(|rt| {
                let mut ms: Vec<MachineId> = rt
                    .instances
                    .iter()
                    .chain(&rt.pinned)
                    .map(|i| sh.insts[i.0 as usize].machine)
                    .collect();
                ms.sort_unstable();
                ms.dedup();
                ms
            })
            .collect();
        let mut window = u64::MAX;
        for (caller, callee) in sh.app.edges() {
            for &a in &hosts[caller.0 as usize] {
                for &b in hosts[callee.0 as usize].iter().filter(|&&b| b != a) {
                    window = window.min(floor(zone(a), zone(b)));
                }
            }
        }
        for &m in hosts.iter().flatten() {
            window = window.min(floor(Zone::Client, zone(m)));
        }
        for &origin in &self.origins {
            for m in &sh.machines {
                window = window.min(floor(origin, m.zone).max(sh.lookahead_ns));
            }
        }
        window.max(1)
    }

    /// Schedules one client request at `at` from the default client zone.
    pub fn inject(
        &mut self,
        at: SimTime,
        entry: EndpointRef,
        rtype: RequestType,
        bytes: u64,
        partition_key: u64,
    ) {
        self.inject_from(at, entry, rtype, bytes, partition_key, Zone::Client);
    }

    /// Schedules one request at `at`, originating from `origin` (e.g.
    /// [`Zone::Edge`] for sensor-generated traffic).
    pub fn inject_from(
        &mut self,
        at: SimTime,
        entry: EndpointRef,
        rtype: RequestType,
        bytes: u64,
        partition_key: u64,
        origin: Zone,
    ) {
        // Clamp into the present so every worker count sees the same
        // arrival (each lane's wheel would otherwise clamp against its
        // own clock).
        let at = at.max(self.now());
        if origin != Zone::Client && !self.origins.contains(&origin) {
            self.origins.push(origin);
        }
        let cs = self.shards.len() - 1;
        let st = &mut self.shards[cs];
        let id = st.inject_pool.alloc(InjectReq {
            entry,
            rtype,
            bytes,
            partition_key,
            origin,
        });
        let key = st.mint();
        let lane = lane_of(cs, self.lanes.len());
        let wheel = &mut self.lanes[lane].0;
        wheel.schedule_keyed(at, key, (cs as u16, Ev::Inject(id)));
    }

    // -- Merged views --------------------------------------------------------

    /// The application being simulated.
    pub fn app(&self) -> &AppSpec {
        &self.shared.app
    }

    /// End-to-end statistics for a request type (None if never injected).
    pub fn request_stats(&self, rtype: RequestType) -> Option<&RequestStats> {
        self.shards
            .last()
            .expect("client shard always exists")
            .request_stats
            .get(rtype.0 as usize)
    }

    /// Execution statistics for a service, folded across shards on each
    /// call. The fold runs in shard order (0, 1, 2, …), so the
    /// floating-point sums are bit-identical at every worker count.
    pub fn service_stats(&self, service: ServiceId) -> ServiceStats {
        let sid = service.0 as usize;
        let mut out = self.shards[0].stats[sid].clone();
        for shard in &self.shards[1..] {
            out.merge(&shard.stats[sid]);
        }
        out
    }

    /// The distributed-tracing collector (merged across shards).
    ///
    /// Trace aggregates and kept spans live only here: each shard holds
    /// what it recorded during the current run, and the sync after the
    /// run moves it in. A kept trace costs its spans (80 bytes each) in
    /// one `Vec` sized to the trace, plus one map entry; spans of
    /// dropped traces cost only their share of the per-service
    /// aggregates.
    pub fn collector(&self) -> &TraceCollector {
        &self.merged_collector
    }

    /// Number of `Up` instances of a service.
    pub fn instance_count(&self, service: ServiceId) -> usize {
        self.shared.services[service.0 as usize]
            .instances
            .iter()
            .filter(|i| self.shared.insts[i.0 as usize].state == InstanceState::Up)
            .count()
    }

    fn inst_rt(&self, id: InstanceId) -> &InstRt {
        let owner = self.shared.insts[id.0 as usize].machine.0 as usize;
        &self.shards[owner].insts[id.0 as usize]
    }

    /// Instantaneous worker occupancy of a service in `[0, 1]`: busy
    /// workers over total fixed workers across `Up` instances. This is the
    /// signal a utilization-driven autoscaler sees — and it counts workers
    /// blocked on downstream calls as busy, which is exactly the misleading
    /// behaviour of Figs. 17/19/20. On-demand (serverless) services report
    /// 0 (they scale themselves).
    pub fn occupancy(&self, service: ServiceId) -> f64 {
        let mut busy = 0u64;
        let mut cap = 0u64;
        for id in &self.shared.services[service.0 as usize].instances {
            let meta = &self.shared.insts[id.0 as usize];
            if meta.state != InstanceState::Up {
                continue;
            }
            if let Some(limit) = meta.worker_limit {
                busy += self.inst_rt(*id).busy_workers as u64;
                cap += limit as u64;
            }
        }
        if cap == 0 {
            0.0
        } else {
            busy as f64 / cap as f64
        }
    }

    /// Total queued + running invocations across a service's instances.
    pub fn service_inflight(&self, service: ServiceId) -> u64 {
        self.shared.services[service.0 as usize]
            .instances
            .iter()
            .map(|i| self.inst_rt(*i).inflight as u64)
            .sum()
    }

    /// Number of machines in the cluster.
    pub fn machine_count(&self) -> usize {
        self.shared.machines.len()
    }

    // -- Telemetry hooks -----------------------------------------------------
    //
    // Read-only snapshot getters polled by `dsb-telemetry`'s scraper at a
    // fixed sim-time interval. None of them touch the RNG or the event
    // queue, so attaching telemetry cannot perturb a run: goldens stay
    // byte-identical with or without a scraper.

    /// Requests waiting in worker queues across a service's `Up` and
    /// `Draining` instances — queued only, excluding the ones running.
    pub fn service_queue_depth(&self, service: ServiceId) -> u64 {
        self.shared.services[service.0 as usize]
            .instances
            .iter()
            .map(|i| self.inst_rt(*i).queue.len() as u64)
            .sum()
    }

    /// Aggregated connection-pool state held by `from`'s instances toward
    /// `target`, or `None` if no such pool has been opened yet.
    pub fn conn_pool(&self, from: ServiceId, target: ServiceId) -> Option<ConnPoolSnapshot> {
        let mut snap = ConnPoolSnapshot::default();
        let mut any = false;
        for id in &self.shared.services[from.0 as usize].instances {
            if let Some(pool) = self.inst_rt(*id).conns.get(&target) {
                any = true;
                snap.in_use += pool.in_use as u64;
                snap.limit += pool.limit as u64;
                snap.waiters += pool.waiters.len() as u64;
            }
        }
        any.then_some(snap)
    }

    /// Downstream services toward which `service`'s instances currently
    /// hold connection pools, in stable id order.
    pub fn conn_pool_targets(&self, service: ServiceId) -> Vec<ServiceId> {
        let mut targets: Vec<ServiceId> = Vec::new();
        for id in &self.shared.services[service.0 as usize].instances {
            for &t in self.inst_rt(*id).conns.keys() {
                if !targets.contains(&t) {
                    targets.push(t);
                }
            }
        }
        targets.sort_unstable_by_key(|t| t.0);
        targets
    }

    /// Cores of machine `m` currently executing jobs.
    pub fn machine_busy_cores(&self, m: MachineId) -> u32 {
        self.shards[m.0 as usize]
            .machine
            .as_ref()
            .expect("machine shard")
            .busy
    }

    /// Total cores of machine `m`.
    pub fn machine_cores(&self, m: MachineId) -> u32 {
        self.shards[m.0 as usize]
            .machine
            .as_ref()
            .expect("machine shard")
            .cores
    }

    /// Jobs waiting in machine `m`'s run queue (preempted or not yet
    /// scheduled onto a core).
    pub fn machine_run_queue(&self, m: MachineId) -> usize {
        self.shards[m.0 as usize]
            .machine
            .as_ref()
            .expect("machine shard")
            .run_queue
            .len()
    }

    /// Instances currently `Down` due to chaos faults (0 without a plan).
    pub fn instances_down(&self) -> u64 {
        self.shared
            .insts
            .iter()
            .filter(|m| m.state == InstanceState::Down)
            .count() as u64
    }

    /// Unordered machine pairs currently cut by an active partition.
    pub fn partition_edges(&self) -> u64 {
        let Some(net) = self.shared.chaos_net.as_deref() else {
            return 0;
        };
        let mut edges = 0;
        for a in 0..net.n as u16 {
            for b in (a + 1)..net.n as u16 {
                if net.cut(a, b).is_some() {
                    edges += 1;
                }
            }
        }
        edges
    }

    /// Number of request-type slots with statistics so far (indexable via
    /// [`Simulation::request_stats`]).
    pub fn request_type_count(&self) -> usize {
        self.shards
            .last()
            .expect("client shard always exists")
            .request_stats
            .len()
    }

    // -- Control surface -----------------------------------------------------

    /// Starts a new instance; it joins rotation after the configured
    /// startup delay. Returns its id.
    pub fn add_instance(&mut self, service: ServiceId) -> InstanceId {
        let id = self.spawn_instance(service, InstanceState::Starting);
        let at = self
            .now()
            .as_nanos()
            .saturating_add(self.instance_startup.as_nanos());
        self.boundaries.entry(at).or_default().activate.push(id);
        id
    }

    /// Starts a new instance that is immediately up (for initial
    /// provisioning before the run).
    pub fn add_instance_now(&mut self, service: ServiceId) -> InstanceId {
        self.spawn_instance(service, InstanceState::Up)
    }

    /// Removes an instance from rotation (it drains its queue).
    ///
    /// # Panics
    ///
    /// Panics if this would leave the service with no `Up` instance.
    pub fn retire_instance(&mut self, inst: InstanceId) {
        let service = self.shared.insts[inst.0 as usize].service;
        let ups = self.instance_count(service);
        assert!(ups > 1, "cannot retire the last instance");
        self.shared.insts[inst.0 as usize].state = InstanceState::Draining;
    }

    /// The instance ids of a service (for targeted retirement).
    pub fn instances_of(&self, service: ServiceId) -> Vec<InstanceId> {
        self.shared.services[service.0 as usize].instances.clone()
    }

    /// Completed invocations served by one instance — the per-shard load
    /// split for `Partition` services.
    pub fn instance_served(&self, inst: InstanceId) -> u64 {
        self.inst_rt(inst).served
    }

    /// Sets the operating frequency of one machine (RAPL / slow server).
    pub fn set_frequency(&mut self, m: MachineId, ghz: f64) {
        let core = self.shared.machines[m.0 as usize].core;
        self.shared.machines[m.0 as usize].core = core.at_frequency(ghz);
        self.shared.rebuild_core_caches();
    }

    /// Sets the operating frequency of every machine.
    pub fn set_all_frequencies(&mut self, ghz: f64) {
        for i in 0..self.shared.machines.len() {
            self.set_frequency(MachineId(i as u32), ghz);
        }
    }

    /// Installs (or removes) the FPGA RPC accelerator on every machine.
    pub fn set_offload(&mut self, offload: FpgaOffload) {
        for m in &mut self.shared.machines {
            m.offload = offload;
        }
    }

    /// Routes *all* traffic for a service to one instance (models the
    /// Fig. 22a switch misconfiguration). `None` restores load balancing.
    pub fn pin_service(&mut self, service: ServiceId, to: Option<InstanceId>) {
        self.shared.services[service.0 as usize].pinned = to;
    }

    /// Admission probability for new requests (rate limiting; 1.0 = all).
    pub fn set_admission(&mut self, prob: f64) {
        self.shared.admit_prob = prob.clamp(0.0, 1.0);
    }

    /// The machine the placement layer assigned to an instance.
    pub fn instance_machine(&self, inst: InstanceId) -> MachineId {
        self.shared.insts[inst.0 as usize].machine
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::AppBuilder;
    use dsb_simcore::Dist;

    fn one_service_app(workers: u32, blocking: bool) -> (AppSpec, EndpointRef) {
        let mut app = AppBuilder::new("t");
        let mut b = app.service("svc").workers(workers);
        if !blocking {
            b = b.event_driven();
        }
        let svc = b.build();
        let ep = app.endpoint(
            svc,
            "op",
            Dist::constant(256.0),
            vec![Step::Compute {
                ns: Dist::constant(100_000.0),
                domain: ExecDomain::User,
            }],
        );
        (app.build(), ep)
    }

    fn small_cluster() -> ClusterSpec {
        ClusterSpec::xeon_cluster(2, 1)
    }

    /// `front` (10 µs, then one call) over `back` (20 µs), 8 workers
    /// each; returns the front's endpoint.
    fn front_back_app() -> (AppSpec, EndpointRef) {
        let mut app = AppBuilder::new("par");
        let back = app.service("back").workers(8).build();
        let get = app.endpoint(
            back,
            "get",
            Dist::constant(512.0),
            vec![Step::work_us(20.0)],
        );
        let front = app.service("front").workers(8).build();
        let root = app.endpoint(
            front,
            "root",
            Dist::constant(1024.0),
            vec![Step::work_us(10.0), Step::call(get, 128.0)],
        );
        (app.build(), root)
    }

    #[test]
    fn request_completes_with_plausible_latency() {
        let (app, ep) = one_service_app(4, true);
        let mut sim = Simulation::new(app, small_cluster(), 7);
        sim.inject(SimTime::ZERO, ep, RequestType(0), 128, 1);
        sim.run_until_idle();
        let st = sim.request_stats(RequestType(0)).unwrap();
        assert_eq!(st.completed, 1);
        let lat = st.latency.quantile(1.0);
        // 100us compute + 2x client hops (~120us each) + processing.
        assert!(lat > 300_000, "latency {lat}ns too small");
        assert!(lat < 2_000_000, "latency {lat}ns too large");
    }

    #[test]
    fn two_tier_call_chain_works() {
        let mut app = AppBuilder::new("chain");
        let back = app.service("back").workers(8).build();
        let get = app.endpoint(
            back,
            "get",
            Dist::constant(512.0),
            vec![Step::work_us(20.0)],
        );
        let front = app.service("front").workers(8).build();
        let root = app.endpoint(
            front,
            "root",
            Dist::constant(1024.0),
            vec![Step::work_us(10.0), Step::call(get, 128.0)],
        );
        let mut sim = Simulation::new(app.build(), small_cluster(), 3);
        for i in 0..50 {
            sim.inject(SimTime::from_millis(i), root, RequestType(0), 256, i);
        }
        sim.run_until_idle();
        assert_eq!(sim.request_stats(RequestType(0)).unwrap().completed, 50);
        // Both services saw invocations and accumulated stats.
        assert_eq!(sim.service_stats(front).invocations, 50);
        assert_eq!(sim.service_stats(back).invocations, 50);
        assert!(sim.service_stats(back).total_time_ns() > 0.0);
        // Network processing time was charged to the kernel domain.
        assert!(sim.service_stats(front).time_ns[ExecDomain::Kernel.index()] > 0.0);
    }

    #[test]
    fn worker_limit_queues_requests() {
        // 1 blocking worker, 100us compute each: 10 simultaneous requests
        // must serialize -> last latency ~ 10x first.
        let (app, ep) = one_service_app(1, true);
        let mut sim = Simulation::new(app, small_cluster(), 1);
        for i in 0..10 {
            sim.inject(SimTime::ZERO, ep, RequestType(0), 128, i);
        }
        sim.run_until_idle();
        let st = sim.request_stats(RequestType(0)).unwrap();
        assert_eq!(st.completed, 10);
        let min = st.latency.min();
        let max = st.latency.max();
        assert!(
            max > min + 800_000,
            "expected serialization: min {min} max {max}"
        );
    }

    #[test]
    fn parallel_fanout_joins() {
        let mut app = AppBuilder::new("fan");
        let leaf = app.service("leaf").workers(64).build();
        let get = app.endpoint(
            leaf,
            "get",
            Dist::constant(128.0),
            vec![Step::work_us(30.0)],
        );
        let front = app.service("front").workers(8).build();
        let root = app.endpoint(
            front,
            "root",
            Dist::constant(512.0),
            vec![Step::FanCall {
                target: get,
                req_bytes: Dist::constant(64.0),
                n: Dist::constant(8.0),
            }],
        );
        let mut sim = Simulation::new(app.build(), small_cluster(), 5);
        sim.inject(SimTime::ZERO, root, RequestType(0), 128, 1);
        sim.run_until_idle();
        assert_eq!(sim.request_stats(RequestType(0)).unwrap().completed, 1);
        assert_eq!(sim.service_stats(leaf).invocations, 8);
        // Parallel: total latency far below 8 sequential round trips.
        let lat = sim.request_stats(RequestType(0)).unwrap().latency.max();
        assert!(lat < 8 * 150_000, "fan-out not parallel: {lat}ns");
    }

    #[test]
    fn zero_fanout_skips_calls() {
        let mut app = AppBuilder::new("fan0");
        let leaf = app.service("leaf").workers(4).build();
        let get = app.endpoint(leaf, "get", Dist::constant(128.0), vec![]);
        let front = app.service("front").workers(4).build();
        let root = app.endpoint(
            front,
            "root",
            Dist::constant(128.0),
            vec![
                Step::FanCall {
                    target: get,
                    req_bytes: Dist::constant(64.0),
                    n: Dist::constant(0.0),
                },
                Step::work_us(5.0),
            ],
        );
        let mut sim = Simulation::new(app.build(), small_cluster(), 5);
        sim.inject(SimTime::ZERO, root, RequestType(0), 128, 1);
        sim.run_until_idle();
        assert_eq!(sim.request_stats(RequestType(0)).unwrap().completed, 1);
        assert_eq!(sim.service_stats(leaf).invocations, 0);
    }

    #[test]
    fn branch_probability_respected() {
        let mut app = AppBuilder::new("br");
        let a = app.service("a").workers(16).build();
        let hit = app.endpoint(a, "hit", Dist::constant(64.0), vec![]);
        let b = app.service("b").workers(16).build();
        let miss = app.endpoint(b, "miss", Dist::constant(64.0), vec![]);
        let front = app.service("front").workers(64).build();
        let root = app.endpoint(
            front,
            "root",
            Dist::constant(64.0),
            vec![Step::Branch {
                p: 0.8,
                then: Arc::new(vec![Step::call(hit, 64.0)]),
                els: Arc::new(vec![Step::call(miss, 64.0)]),
            }],
        );
        let mut sim = Simulation::new(app.build(), small_cluster(), 11);
        for i in 0..1000 {
            sim.inject(SimTime::from_micros(i * 500), root, RequestType(0), 64, i);
        }
        sim.run_until_idle();
        let hits = sim.service_stats(a).invocations;
        let misses = sim.service_stats(b).invocations;
        assert_eq!(hits + misses, 1000);
        assert!((700..900).contains(&hits), "hits {hits}");
    }

    #[test]
    fn blocking_connection_pool_limits_concurrency() {
        // Front (blocking, many workers) -> back over HTTP/1 with
        // conn_limit 1 and slow 1ms handler: calls serialize even though
        // back has plenty of workers.
        let mut app = AppBuilder::new("conn");
        let back = app
            .service("back")
            .workers(32)
            .protocol(Protocol::Http1)
            .conn_limit(1)
            .build();
        let get = app.endpoint(
            back,
            "get",
            Dist::constant(128.0),
            vec![Step::Compute {
                ns: Dist::constant(1_000_000.0),
                domain: ExecDomain::User,
            }],
        );
        let front = app.service("front").workers(32).instances(1).build();
        let root = app.endpoint(
            front,
            "root",
            Dist::constant(128.0),
            vec![Step::call(get, 64.0)],
        );
        let mut sim = Simulation::new(app.build(), small_cluster(), 2);
        for i in 0..8 {
            sim.inject(SimTime::ZERO, root, RequestType(0), 64, i);
        }
        sim.run_until_idle();
        let st = sim.request_stats(RequestType(0)).unwrap();
        assert_eq!(st.completed, 8);
        // Serialized over one connection: ~8ms of back-end compute total.
        assert!(
            st.latency.max() > 7_000_000,
            "expected head-of-line blocking, max {}",
            st.latency.max()
        );
    }

    #[test]
    fn occupancy_reflects_blocked_workers() {
        // Blocking front waiting on a slow back-end counts as busy.
        let mut app = AppBuilder::new("occ");
        let back = app.service("back").workers(1).build();
        let get = app.endpoint(
            back,
            "get",
            Dist::constant(128.0),
            vec![Step::Io {
                ns: Dist::constant(1e9), // 1s io
            }],
        );
        let front = app.service("front").workers(4).build();
        let root = app.endpoint(
            front,
            "root",
            Dist::constant(128.0),
            vec![Step::call(get, 64.0)],
        );
        let mut sim = Simulation::new(app.build(), small_cluster(), 2);
        for i in 0..4 {
            sim.inject(SimTime::ZERO, root, RequestType(0), 64, i);
        }
        sim.advance_to(SimTime::from_millis(500));
        assert!(
            sim.occupancy(front) >= 0.99,
            "front occupancy {}",
            sim.occupancy(front)
        );
        sim.run_until_idle();
        assert_eq!(sim.occupancy(front), 0.0);
    }

    #[test]
    fn on_demand_workers_cold_start_then_serve() {
        let mut app = AppBuilder::new("svc-less");
        let f = app
            .service("fn")
            .on_demand_workers(Dist::constant(100_000_000.0)) // 100ms cold
            .build();
        let ep = app.endpoint(f, "run", Dist::constant(128.0), vec![Step::work_us(10.0)]);
        let mut sim = Simulation::new(app.build(), small_cluster(), 4);
        sim.inject(SimTime::ZERO, ep, RequestType(0), 64, 1);
        // Second request arrives after the first finished: warm start.
        sim.inject(SimTime::from_millis(500), ep, RequestType(0), 64, 2);
        sim.run_until_idle();
        let st = sim.request_stats(RequestType(0)).unwrap();
        assert_eq!(st.completed, 2);
        let cold = st.latency.max();
        let warm = st.latency.min();
        assert!(cold > 100_000_000, "cold {cold}");
        assert!(warm < 5_000_000, "warm {warm}");
    }

    #[test]
    fn pinning_routes_all_traffic_to_one_instance() {
        let mut app = AppBuilder::new("pin");
        let svc = app.service("s").workers(4).instances(4).build();
        let ep = app.endpoint(svc, "op", Dist::constant(64.0), vec![Step::work_us(5.0)]);
        let mut sim = Simulation::new(app.build(), ClusterSpec::xeon_cluster(4, 1), 9);
        let victim = sim.instances_of(svc)[0];
        sim.pin_service(svc, Some(victim));
        for i in 0..40 {
            sim.inject(SimTime::from_micros(i * 100), ep, RequestType(0), 64, i);
        }
        sim.run_until_idle();
        assert_eq!(sim.request_stats(RequestType(0)).unwrap().completed, 40);
        // Unpin and confirm spread resumes (no panic, work completes).
        sim.pin_service(svc, None);
        for i in 0..40 {
            sim.inject(
                sim.now() + SimDuration::from_micros(i * 100),
                ep,
                RequestType(0),
                64,
                i,
            );
        }
        sim.run_until_idle();
        assert_eq!(sim.request_stats(RequestType(0)).unwrap().completed, 80);
    }

    #[test]
    fn frequency_scaling_slows_completion() {
        let (app, ep) = one_service_app(4, true);
        let run = |ghz: f64| {
            let (app2, _) = one_service_app(4, true);
            let _ = app2;
            let mut sim = Simulation::new(
                {
                    let (a, _) = one_service_app(4, true);
                    a
                },
                small_cluster(),
                1,
            );
            sim.set_all_frequencies(ghz);
            sim.inject(SimTime::ZERO, ep, RequestType(0), 64, 1);
            sim.run_until_idle();
            sim.request_stats(RequestType(0)).unwrap().latency.max()
        };
        let _ = app;
        let fast = run(2.4);
        let slow = run(1.0);
        assert!(
            slow as f64 > fast as f64 * 1.2,
            "slow {slow} vs fast {fast}"
        );
    }

    #[test]
    fn add_instance_joins_after_startup_delay() {
        let mut app = AppBuilder::new("scale");
        let svc = app.service("s").workers(2).build();
        let ep = app.endpoint(svc, "op", Dist::constant(64.0), vec![Step::work_us(10.0)]);
        let mut sim = Simulation::new(app.build(), small_cluster(), 6);
        assert_eq!(sim.instance_count(svc), 1);
        sim.add_instance(svc);
        assert_eq!(sim.instance_count(svc), 1); // still starting
        sim.advance_to(SimTime::from_secs(10));
        assert_eq!(sim.instance_count(svc), 2);
        sim.inject(sim.now(), ep, RequestType(0), 64, 1);
        sim.run_until_idle();
        assert_eq!(sim.request_stats(RequestType(0)).unwrap().completed, 1);
    }

    #[test]
    fn retire_instance_drains() {
        let mut app = AppBuilder::new("ret");
        let svc = app.service("s").workers(2).instances(2).build();
        let ep = app.endpoint(svc, "op", Dist::constant(64.0), vec![Step::work_us(10.0)]);
        let mut sim = Simulation::new(app.build(), small_cluster(), 6);
        let insts = sim.instances_of(svc);
        sim.retire_instance(insts[0]);
        assert_eq!(sim.instance_count(svc), 1);
        for i in 0..20 {
            sim.inject(SimTime::from_micros(i), ep, RequestType(0), 64, i);
        }
        sim.run_until_idle();
        assert_eq!(sim.request_stats(RequestType(0)).unwrap().completed, 20);
    }

    #[test]
    #[should_panic(expected = "cannot retire the last instance")]
    fn retiring_last_instance_panics() {
        let mut app = AppBuilder::new("ret2");
        let svc = app.service("s").build();
        app.endpoint(svc, "op", Dist::constant(64.0), vec![]);
        let mut sim = Simulation::new(app.build(), small_cluster(), 6);
        let insts = sim.instances_of(svc);
        sim.retire_instance(insts[0]);
    }

    #[test]
    fn admission_control_rejects() {
        let (app, ep) = one_service_app(8, true);
        let mut sim = Simulation::new(app, small_cluster(), 8);
        sim.set_admission(0.0);
        for i in 0..10 {
            sim.inject(SimTime::from_micros(i), ep, RequestType(0), 64, i);
        }
        sim.run_until_idle();
        let st = sim.request_stats(RequestType(0)).unwrap();
        assert_eq!(st.issued, 10);
        assert_eq!(st.rejected, 10);
        assert_eq!(st.completed, 0);
    }

    #[test]
    fn spans_reach_collector_with_parents() {
        let mut app = AppBuilder::new("tr");
        let back = app.service("back").workers(4).build();
        let get = app.endpoint(back, "get", Dist::constant(64.0), vec![Step::work_us(5.0)]);
        let front = app.service("front").workers(4).build();
        let root = app.endpoint(
            front,
            "root",
            Dist::constant(64.0),
            vec![Step::call(get, 64.0)],
        );
        let mut app_spec = app.build();
        let _ = &mut app_spec;
        let mut cluster = small_cluster();
        cluster.trace_sample_prob = 1.0;
        let mut sim = Simulation::new(app_spec, cluster, 12);
        sim.inject(SimTime::ZERO, root, RequestType(0), 64, 1);
        sim.run_until_idle();
        let traces: Vec<_> = sim.collector().sampled_traces().collect();
        assert_eq!(traces.len(), 1);
        let spans = traces[0].1;
        assert_eq!(spans.len(), 2);
        let root_span = spans.iter().find(|s| s.parent.is_none()).unwrap();
        let child = spans.iter().find(|s| s.parent.is_some()).unwrap();
        assert_eq!(child.parent, Some(root_span.id));
        assert_eq!(root_span.service, front.0);
        assert_eq!(child.service, back.0);
        assert!(child.start >= root_span.start);
        assert!(child.end <= root_span.end);
    }

    /// Full sampling, run in 25 slices: after every `advance_to` each
    /// shard has moved its kept spans into the merged view, so the
    /// shard side holds none however long the run.
    #[test]
    fn shards_hold_no_kept_span_after_a_slice() {
        for workers in [1, 4] {
            let (app, root) = front_back_app();
            let mut cluster = ClusterSpec::xeon_cluster(4, 2);
            cluster.trace_sample_prob = 1.0;
            let mut sim = Simulation::new(app, cluster, 21);
            sim.set_workers(workers);
            for i in 0..400u64 {
                sim.inject(SimTime::from_micros(i * 50), root, RequestType(0), 128, i);
            }
            let mut merged = 0;
            for k in 1..=25u64 {
                sim.advance_to(SimTime::from_millis(k));
                assert!(
                    sim.shards.iter().all(|s| s.collector.pending_spans() == 0),
                    "workers={workers}: a shard holds kept spans after slice {k}"
                );
                let spans: usize = sim.collector().sampled_traces().map(|(_, t)| t.len()).sum();
                assert!(spans >= merged, "workers={workers}: merged spans shrank");
                merged = spans;
            }
            let done = sim.request_stats(RequestType(0)).unwrap().completed;
            assert_eq!(done, 400, "workers={workers}");
            assert_eq!(merged as u64, 2 * done, "workers={workers}");
        }
    }

    #[test]
    fn determinism_same_seed_same_results() {
        let run = |seed| {
            let (app, ep) = one_service_app(4, true);
            let mut sim = Simulation::new(app, small_cluster(), seed);
            for i in 0..200 {
                sim.inject(SimTime::from_micros(i * 50), ep, RequestType(0), 64, i);
            }
            sim.run_until_idle();
            let st = sim.request_stats(RequestType(0)).unwrap();
            (
                st.latency.mean(),
                st.latency.quantile(0.99),
                sim.events_processed(),
            )
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn partition_lb_concentrates_hot_keys() {
        let mut app = AppBuilder::new("shard");
        let svc = app
            .service("s")
            .workers(1)
            .instances(4)
            .lb(LbPolicy::Partition)
            .build();
        let ep = app.endpoint(
            svc,
            "op",
            Dist::constant(64.0),
            vec![Step::Compute {
                ns: Dist::constant(200_000.0),
                domain: ExecDomain::User,
            }],
        );
        let mut sim = Simulation::new(app.build(), ClusterSpec::xeon_cluster(4, 1), 10);
        // All requests share one key -> one shard serializes them.
        for i in 0..20 {
            sim.inject(SimTime::ZERO, ep, RequestType(0), 64, 777);
            let _ = i;
        }
        sim.run_until_idle();
        let st = sim.request_stats(RequestType(0)).unwrap();
        assert!(
            st.latency.max() > 3_000_000,
            "hot shard should serialize: {}",
            st.latency.max()
        );
        // Spread keys -> parallel across shards, much faster.
        let mut app2 = AppBuilder::new("shard2");
        let svc2 = app2
            .service("s")
            .workers(1)
            .instances(4)
            .lb(LbPolicy::Partition)
            .build();
        let ep2 = app2.endpoint(
            svc2,
            "op",
            Dist::constant(64.0),
            vec![Step::Compute {
                ns: Dist::constant(200_000.0),
                domain: ExecDomain::User,
            }],
        );
        let mut sim2 = Simulation::new(app2.build(), ClusterSpec::xeon_cluster(4, 1), 10);
        for i in 0..20u64 {
            sim2.inject(SimTime::ZERO, ep2, RequestType(0), 64, i * 7919);
        }
        sim2.run_until_idle();
        let st2 = sim2.request_stats(RequestType(0)).unwrap();
        assert!(
            st2.latency.max() < st.latency.max(),
            "spread {} vs hot {}",
            st2.latency.max(),
            st.latency.max()
        );
    }

    #[test]
    fn offload_reduces_kernel_time() {
        let run = |offload: bool| {
            let mut app = AppBuilder::new("fpga");
            let back = app.service("back").workers(8).build();
            let get = app.endpoint(
                back,
                "get",
                Dist::constant(4096.0),
                vec![Step::work_us(5.0)],
            );
            let front = app.service("front").workers(8).build();
            let root = app.endpoint(
                front,
                "root",
                Dist::constant(1024.0),
                vec![Step::call(get, 2048.0)],
            );
            let mut sim = Simulation::new(app.build(), small_cluster(), 3);
            if offload {
                sim.set_offload(FpgaOffload::with_speedup(50.0));
            }
            for i in 0..100 {
                sim.inject(SimTime::from_micros(i * 100), root, RequestType(0), 256, i);
            }
            sim.run_until_idle();
            let front_kernel = sim.service_stats(front).time_ns[ExecDomain::Kernel.index()];
            let p99 = sim
                .request_stats(RequestType(0))
                .unwrap()
                .latency
                .quantile(0.99);
            (front_kernel, p99)
        };
        let (native_kernel, native_p99) = run(false);
        let (offload_kernel, offload_p99) = run(true);
        assert!(native_kernel > 0.0);
        assert_eq!(offload_kernel, 0.0, "offload must remove host kernel time");
        assert!(
            offload_p99 < native_p99,
            "offload {offload_p99} native {native_p99}"
        );
    }

    #[test]
    fn io_steps_insensitive_to_frequency() {
        let build = || {
            let mut app = AppBuilder::new("io");
            let svc = app.service("db").workers(8).build();
            let ep = app.endpoint(
                svc,
                "find",
                Dist::constant(64.0),
                vec![Step::Io {
                    ns: Dist::constant(2_000_000.0),
                }],
            );
            (app.build(), ep)
        };
        let run = |ghz: f64| {
            let (app, ep) = build();
            let mut sim = Simulation::new(app, small_cluster(), 2);
            sim.set_all_frequencies(ghz);
            sim.inject(SimTime::ZERO, ep, RequestType(0), 64, 1);
            sim.run_until_idle();
            sim.request_stats(RequestType(0)).unwrap().latency.max() as f64
        };
        let fast = run(2.4);
        let slow = run(1.0);
        // Only the (small) network processing scales; I/O dominates.
        assert!(
            slow / fast < 1.3,
            "io-bound should tolerate slow cores: {slow} vs {fast}"
        );
    }

    /// Runs the lone lane of `sim` event by event, showing `probe` each
    /// event and its shard before the event is dispatched. The same
    /// steps as [`Lane::run_window`], with a window that never ends.
    fn run_probed(sim: &mut Simulation, mut probe: impl FnMut(&ShardState, SimTime, &Ev)) {
        assert_eq!(sim.lanes.len(), 1, "probing drives a single lane");
        let mut out = Outbox::new(1);
        let wheel = &mut sim.lanes[0].0;
        while let Some((shard, ev)) = wheel.pop_due(SimTime::MAX) {
            let now = wheel.now();
            let st = &mut sim.shards[shard as usize];
            probe(st, now, &ev);
            let mut sink = Sink {
                shard,
                lanes: 1,
                wheel: &mut *wheel,
                out: &mut out,
            };
            dispatch(st, &sim.shared, &mut sink, now, ev);
            for (at, key, (dst, msg)) in out.drain(0) {
                sim.shards[dst as usize].file_msg(wheel, at, key, msg);
            }
        }
    }

    /// Two 10 µs compute steps on one core with a 3 µs quantum each run
    /// as 3 + 3 + 3 + 1 µs slices, interleaved round-robin.
    #[test]
    fn long_steps_run_as_round_robin_timeslices() {
        let mut app = AppBuilder::new("slices");
        let svc = app.service("svc").workers(2).build();
        app.endpoint(
            svc,
            "op",
            Dist::constant(64.0),
            vec![Step::Compute {
                ns: Dist::constant(10_000.0),
                domain: ExecDomain::User,
            }],
        );
        let mut cluster = ClusterSpec::xeon_cluster(1, 1);
        cluster.machines[0].cores = 1;
        cluster.cpu_quantum = SimDuration::from_micros(3);
        let mut sim = Simulation::new(app.build(), cluster, 1);
        let inst = sim.instances_of(svc)[0];
        // Both requests reach the instance at t = 0, past the network,
        // so the core runs nothing but the two steps and their replies.
        let mut out = Outbox::new(1);
        let mut sink = Sink {
            shard: 0,
            lanes: 1,
            wheel: &mut sim.lanes[0].0,
            out: &mut out,
        };
        for req in 0..2 {
            let rm = RequestMsg {
                req,
                rtype: RequestType(0),
                origin: Zone::Client,
                dst: inst,
                endpoint: 0,
                caller: None,
                parent_span: None,
                bytes: 64,
                partition_key: req,
                spawn: SimTime::ZERO,
            };
            sim.shards[0].enqueue_request(&sim.shared, &mut sink, SimTime::ZERO, rm, 0.0);
        }
        assert!(out.is_empty());

        // (end ns, invocation, slice ns) of every finished compute slice.
        let mut slices = Vec::new();
        run_probed(&mut sim, |st, now, ev| {
            if let Ev::CoreJobDone { job } = *ev {
                let job = st.job_pool.get(job);
                if let JobCont::StepChunk { inv, .. } | JobCont::StepDone(inv) = job.cont {
                    slices.push((now.as_nanos(), inv, job.dur.as_nanos()));
                }
            }
        });
        let (a, b) = (slices[0].1, slices[1].1);
        assert_ne!(a, b);
        assert_eq!(
            slices,
            [
                (3_000, a, 3_000),
                (6_000, b, 3_000),
                (9_000, a, 3_000),
                (12_000, b, 3_000),
                (15_000, a, 3_000),
                (18_000, b, 3_000),
                (19_000, a, 1_000),
                (20_000, b, 1_000),
            ]
        );
        sim.run_until_idle();
        let user = sim.service_stats(svc).time_ns[ExecDomain::User.index()];
        assert_eq!(user, 20_000.0, "both steps' actual ns, no more, no less");
        // 8 slices, 2 reply sends, 2 replies reaching the client shard.
        assert_eq!(sim.events_processed(), 12);
        assert_eq!(sim.request_stats(RequestType(0)).unwrap().completed, 2);
    }

    /// Tickets in use in `pool`.
    fn live<T>(pool: &Pool<T>) -> usize {
        pool.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Conservation at idle: after a machine crash kills invocations in
    /// the middle of their timeslices, draining the run leaves every
    /// payload pool, connection pool and instance queue empty.
    #[test]
    fn pools_and_conns_are_empty_at_idle_after_a_crash() {
        for workers in [1, 4] {
            let mut app = AppBuilder::new("idle");
            let back = app
                .service("back")
                .workers(64)
                .protocol(Protocol::Http1)
                .conn_limit(16)
                .build();
            let get = app.endpoint(
                back,
                "get",
                Dist::constant(128.0),
                vec![Step::Compute {
                    ns: Dist::constant(1_000_000.0),
                    domain: ExecDomain::User,
                }],
            );
            let front = app.service("front").workers(64).build();
            let root = app.endpoint(
                front,
                "root",
                Dist::constant(128.0),
                vec![Step::call(get, 64.0)],
            );
            let mut cluster = ClusterSpec::xeon_cluster(4, 2);
            cluster.cpu_quantum = SimDuration::from_micros(10);
            let mut sim = Simulation::new(app.build(), cluster, 5);
            sim.set_workers(workers);
            let victim = sim.instance_machine(sim.instances_of(back)[0]);
            let crash_at = SimTime::from_micros(800);
            sim.install_chaos(&ChaosPlan {
                seed: 1,
                events: vec![ChaosEvent::MachineCrash {
                    machine: victim,
                    at: crash_at,
                    restart_after: SimDuration::from_millis(2),
                    cold_for: SimDuration::ZERO,
                }],
            });
            // 40 callers over 16 connections: 24 wait for one. Ten more
            // come after the restart.
            for i in 0..50 {
                let at = if i < 40 { 0 } else { 5 };
                sim.inject(SimTime::from_millis(at), root, RequestType(0), 64, i);
            }
            sim.advance_to(crash_at - SimDuration::from_nanos(1));
            let st = &sim.shards[victim.0 as usize];
            let mid_slice = st
                .job_pool
                .slots
                .iter()
                .flatten()
                .filter(|j| {
                    matches!(j.cont, JobCont::StepChunk { inv, .. }
                        if st.invocations.get(inv).is_some())
                })
                .count();
            assert!(mid_slice >= 10, "workers={workers}: {mid_slice} mid-slice");
            sim.run_until_idle();

            let rs = sim.request_stats(RequestType(0)).unwrap();
            assert_eq!(rs.issued, rs.completed + rs.failed, "workers={workers}");
            assert!(rs.failed >= mid_slice as u64, "workers={workers}");
            assert_eq!(rs.completed, 10, "workers={workers}");
            for st in &sim.shards {
                let pools = [
                    live(&st.job_pool),
                    live(&st.msg_pool),
                    live(&st.inject_pool),
                ];
                assert_eq!(pools, [0; 3], "workers={workers} shard {}", st.shard);
                for (i, rt) in st.insts.iter().enumerate() {
                    let at = format!("workers={workers} shard {} inst {i}", st.shard);
                    assert_eq!(rt.inflight, 0, "{at}");
                    assert!(rt.queue.is_empty(), "{at}");
                    for pool in rt.conns.values() {
                        assert_eq!(pool.in_use, 0, "{at}");
                        assert!(pool.waiters.is_empty(), "{at}");
                    }
                }
            }
        }
    }

    /// An event-driven service with one 5 µs step.
    fn one_tier() -> (AppSpec, EndpointRef) {
        let mut app = AppBuilder::new("one");
        let svc = app.service("svc").event_driven().build();
        let ep = app.endpoint(svc, "op", Dist::constant(256.0), vec![Step::work_us(5.0)]);
        (app.build(), ep)
    }

    /// Runs one request into `ep`, injected at 10 ms under `faults`
    /// (built from the simulation, whose placement they name), up to
    /// `until`. Seed 1.
    fn one_request(
        app: &AppSpec,
        ep: EndpointRef,
        cluster: &ClusterSpec,
        workers: usize,
        faults: impl FnOnce(&Simulation) -> Vec<ChaosEvent>,
        until: SimTime,
    ) -> RequestStats {
        let mut sim = Simulation::new(app.clone(), cluster.clone(), 1);
        sim.set_workers(workers);
        let events = faults(&sim);
        sim.install_chaos(&ChaosPlan { seed: 1, events });
        sim.inject(SimTime::from_millis(10), ep, RequestType(0), 64, 1);
        sim.advance_to(until);
        sim.request_stats(RequestType(0)).unwrap().clone()
    }

    /// A partition of `a` from `b` over `[ms[0], ms[1])` milliseconds.
    fn cut(a: Vec<MachineId>, b: Vec<MachineId>, ms: [u64; 2], timeout_ms: u64) -> ChaosEvent {
        ChaosEvent::Partition {
            a,
            b,
            from: SimTime::from_millis(ms[0]),
            until: SimTime::from_millis(ms[1]),
            timeout: SimDuration::from_millis(timeout_ms),
        }
    }

    /// A front tier calling a back tier, and the machines the two sit
    /// on in `sim`.
    fn front_back() -> (AppSpec, EndpointRef, impl Fn(&Simulation) -> [MachineId; 2]) {
        let mut app = AppBuilder::new("front-back");
        let back = app.service("back").build();
        let get = app.endpoint(back, "get", Dist::constant(64.0), vec![Step::work_us(5.0)]);
        let front = app.service("front").event_driven().build();
        let root = app.endpoint(
            front,
            "root",
            Dist::constant(64.0),
            vec![Step::call(get, 64.0)],
        );
        let machines = move |sim: &Simulation| {
            let f = sim.instance_machine(sim.instances_of(front)[0]);
            let b = sim.instance_machine(sim.instances_of(back)[0]);
            assert_ne!(f, b, "front and back must sit on different machines");
            [f, b]
        };
        (app.build(), root, machines)
    }

    /// A partition's failure-detection timeout belongs to its own links:
    /// a later cut elsewhere, with a longer timeout and already healed,
    /// does not delay the failure of a request across the first cut.
    #[test]
    fn each_partition_keeps_its_own_timeout() {
        let (app, root, machines) = front_back();
        let cluster = ClusterSpec::xeon_cluster(4, 1);
        let until = SimTime::from_millis(50);
        for workers in [1, 4] {
            let faults = |sim: &Simulation| {
                let [f, b] = machines(sim);
                let rest: Vec<MachineId> = (0..4)
                    .map(MachineId)
                    .filter(|m| ![f, b].contains(m))
                    .collect();
                vec![
                    cut(vec![f], vec![b], [1, 1000], 10),
                    cut(vec![rest[0]], vec![rest[1]], [2, 3], 500),
                ]
            };
            let st = one_request(&app, root, &cluster, workers, faults, until);
            assert_eq!((st.completed, st.failed), (0, 1), "workers={workers}");
        }
    }

    /// Each installed plan heals only its own faults: the first plan's
    /// cut of front|back heals at 5 ms, but the second plan's cut of the
    /// same link lasts to 1 s, so a request at 10 ms fails.
    #[test]
    fn second_plan_keeps_its_own_partition() {
        let (app, root, machines) = front_back();
        let cluster = ClusterSpec::xeon_cluster(4, 1);
        for workers in [1, 4] {
            let mut sim = Simulation::new(app.clone(), cluster.clone(), 1);
            sim.set_workers(workers);
            let [f, b] = machines(&sim);
            for ms in [[1, 5], [2, 1000]] {
                let events = vec![cut(vec![f], vec![b], ms, 10)];
                sim.install_chaos(&ChaosPlan { seed: 1, events });
            }
            sim.inject(SimTime::from_millis(10), root, RequestType(0), 64, 1);
            sim.advance_to(SimTime::from_millis(50));
            let st = sim.request_stats(RequestType(0)).unwrap();
            assert_eq!((st.completed, st.failed), (0, 1), "workers={workers}");
        }
    }

    /// Partitions over one link compose: the link stays cut while any
    /// of them is active, and a request across it fails after the
    /// smallest active timeout. Both plans cut front|back with a 10 ms
    /// timeout over [1 ms, 1 s) and add a 500 ms cut of the same link:
    /// one that heals at 3 ms, before the request at 10 ms, and one
    /// that is still active then. Either way the request fails inside
    /// 50 ms.
    #[test]
    fn overlapping_partitions_compose() {
        let (app, root, machines) = front_back();
        let cluster = ClusterSpec::xeon_cluster(4, 1);
        let until = SimTime::from_millis(50);
        for second in [[2, 3], [5, 1000]] {
            for workers in [1, 4] {
                let faults = |sim: &Simulation| {
                    let [f, b] = machines(sim);
                    vec![
                        cut(vec![f], vec![b], [1, 1000], 10),
                        cut(vec![f], vec![b], second, 500),
                    ]
                };
                let st = one_request(&app, root, &cluster, workers, faults, until);
                let at = format!("second cut {second:?} ms, workers={workers}");
                assert_eq!((st.completed, st.failed), (0, 1), "{at}");
            }
        }
    }

    /// Degradations of one machine compose: its factor is the largest
    /// among its active degradations, and a ×2 degradation that starts
    /// or ends inside a ×10 one leaves the request as slow as ×10 alone.
    #[test]
    fn overlapping_degradations_compose() {
        let (app, ep) = one_tier();
        let mut cluster = ClusterSpec::xeon_cluster(4, 1);
        cluster.fabric.jitter_frac = 0.0;
        let degrade = |machine: MachineId, factor: f64, ms: [u64; 2]| ChaosEvent::NicDegrade {
            machines: vec![machine],
            factor,
            from: SimTime::from_millis(ms[0]),
            until: SimTime::from_millis(ms[1]),
        };
        let latency = |second: Option<[u64; 2]>, workers: usize| {
            let faults = |sim: &Simulation| {
                let m = sim.instance_machine(sim.instances_of(ep.service)[0]);
                let mut plan = vec![degrade(m, 10.0, [1, 1000])];
                plan.extend(second.map(|ms| degrade(m, 2.0, ms)));
                plan
            };
            let st = one_request(&app, ep, &cluster, workers, faults, SimTime::MAX);
            assert_eq!(st.completed, 1);
            st.latency.max()
        };
        let healthy = one_request(&app, ep, &cluster, 1, |_| vec![], SimTime::MAX);
        let alone = latency(None, 1);
        assert!(
            alone > healthy.latency.max(),
            "×10 alone is slower than healthy"
        );
        for second in [[2, 3], [5, 1000]] {
            for workers in [1, 4] {
                let at = format!("×2 over {second:?} ms, workers={workers}");
                assert_eq!(latency(Some(second), workers), alone, "{at}");
            }
        }
    }

    /// Crashes compose like partitions: the back tier stays down while
    /// any crash of its machine, or a cache loss of its instance, is
    /// active, so a request at 10 ms fails in both cases. A second crash
    /// of the back machine over [2, 3) ms ends inside the first, over
    /// [1 ms, 1 s); a cache loss of the back instance over [1, 5) ms
    /// ends inside a crash of its machine over [2 ms, 1 s).
    #[test]
    fn overlapping_crashes_compose() {
        let (app, root, machines) = front_back();
        let cluster = ClusterSpec::xeon_cluster(4, 1);
        let ms = SimTime::from_millis;
        let crash = |machine: MachineId, at: [u64; 2]| ChaosEvent::MachineCrash {
            machine,
            at: ms(at[0]),
            restart_after: ms(at[1]) - ms(at[0]),
            cold_for: SimDuration::ZERO,
        };
        for with_loss in [false, true] {
            for workers in [1, 4] {
                let faults = |sim: &Simulation| {
                    let [_, b] = machines(sim);
                    if !with_loss {
                        return vec![crash(b, [1, 1000]), crash(b, [2, 3])];
                    }
                    let loss = ChaosEvent::CacheLoss {
                        service: sim.app().service_by_name("back").unwrap(),
                        shard: 0,
                        at: ms(1),
                        restart_after: SimDuration::from_millis(4),
                        cold_for: SimDuration::ZERO,
                    };
                    vec![loss, crash(b, [2, 1000])]
                };
                let st = one_request(&app, root, &cluster, workers, faults, ms(50));
                let at = format!("cache loss {with_loss}, workers={workers}");
                assert_eq!((st.completed, st.failed), (0, 1), "{at}");
            }
        }
    }

    /// A churn with a zero period would crash machines at its first
    /// instant forever; installing it panics instead.
    #[test]
    #[should_panic(expected = "churns with a zero period")]
    fn zero_period_churn_is_rejected() {
        let mut sim = Simulation::new(one_tier().0, ClusterSpec::xeon_cluster(4, 1), 1);
        let churn = ChaosEvent::EdgeChurn {
            machines: vec![MachineId(0)],
            from: SimTime::ZERO,
            until: SimTime::from_secs(1),
            period: SimDuration::ZERO,
            down_for: SimDuration::from_millis(10),
            cold_for: SimDuration::ZERO,
        };
        sim.install_chaos(&ChaosPlan {
            seed: 1,
            events: vec![churn],
        });
    }

    /// NIC degradation stretches every hop to or from the degraded
    /// machine: the client's injection hop as well as the reply. A factor
    /// below 1.0 is clamped up to it: delays never shrink.
    #[test]
    fn nic_degrade_stretches_the_injection_and_reply_hops() {
        let (app, ep) = one_tier();
        let mut cluster = ClusterSpec::xeon_cluster(4, 1);
        // Without jitter every client hop takes exactly `client_ns`.
        cluster.fabric.jitter_frac = 0.0;
        let latency = |factor: f64| {
            let faults = |sim: &Simulation| {
                let m = sim.instance_machine(sim.instances_of(ep.service)[0]);
                vec![ChaosEvent::NicDegrade {
                    machines: vec![m],
                    factor,
                    from: SimTime::from_millis(1),
                    until: SimTime::from_millis(1000),
                }]
            };
            let st = one_request(&app, ep, &cluster, 1, faults, SimTime::MAX);
            assert_eq!(st.completed, 1);
            st.latency.max()
        };
        let stretch = latency(10.0) - latency(1.0);
        assert_eq!(stretch, 2 * 9 * cluster.fabric.client_ns, "both hops ×10");
        assert_eq!(latency(0.25), latency(1.0), "factor clamped up to 1.0");
    }

    /// Partitions cut links between machines only: with every machine
    /// cut from every other, client traffic still flows at its healthy
    /// latency.
    #[test]
    fn client_traffic_is_never_cut() {
        let (app, ep) = one_tier();
        let cluster = ClusterSpec::xeon_cluster(4, 1);
        let healthy = one_request(&app, ep, &cluster, 1, |_| vec![], SimTime::MAX);
        assert_eq!(healthy.completed, 1);
        let all: Vec<MachineId> = (0..4).map(MachineId).collect();
        for workers in [1, 4] {
            let faults = |_: &Simulation| vec![cut(all.clone(), all.clone(), [1, 1000], 10)];
            let st = one_request(&app, ep, &cluster, workers, faults, SimTime::MAX);
            assert_eq!((st.completed, st.failed), (1, 0), "workers={workers}");
            assert_eq!(st.latency.max(), healthy.latency.max(), "workers={workers}");
        }
    }

    /// The cornerstone smoke test: every worker count must produce the
    /// serial run's observables. (The full matrix lives in
    /// `tests/parallel_conformance.rs`.)
    #[test]
    fn workers_equivalent_to_serial() {
        // Two phases of 100 requests with a drain between them, where
        // the worker count switches from `first` to `second`.
        let run = |first: usize, second: usize| {
            let (app, ep) = front_back_app();
            let mut cluster = ClusterSpec::xeon_cluster(4, 2);
            cluster.trace_sample_prob = 1.0;
            let mut sim = Simulation::new(app, cluster, 99);
            sim.set_workers(first);
            for phase in 0..2u64 {
                if phase == 1 {
                    let before = (sim.now(), sim.events_processed());
                    sim.set_workers(second);
                    assert_eq!((sim.now(), sim.events_processed()), before);
                }
                for i in 0..100u64 {
                    let at = SimTime::from_micros(phase * 10_000 + i * 40);
                    sim.inject(at, ep, RequestType(0), 128, phase * 100 + i);
                }
                sim.run_until_idle();
            }
            let st = sim.request_stats(RequestType(0)).unwrap();
            let spans: Vec<_> = sim
                .collector()
                .sampled_traces()
                .flat_map(|(t, spans)| {
                    spans
                        .iter()
                        .map(move |s| (t.0, s.id.0, s.start.as_nanos(), s.end.as_nanos()))
                })
                .collect();
            (
                sim.now(),
                sim.events_processed(),
                st.completed,
                st.latency.quantile(0.5),
                st.latency.quantile(0.99),
                spans,
            )
        };
        let serial = run(1, 1);
        assert_eq!(serial.2, 200);
        // 5 shards: 3 workers deal uneven lanes, 8 outnumber the shards.
        for w in [2, 3, 4, 8] {
            assert_eq!(run(w, w), serial, "workers={w} diverged from serial");
        }
        for (a, b) in [(1, 4), (4, 1)] {
            assert_eq!(run(a, b), serial, "switching {a} -> {b} workers diverged");
        }
    }
}
