//! Conservative epoch-synchronized parallel driver for sharded models.
//!
//! A parallel run partitions the simulated world into *shards* that
//! share no mutable state. Each shard owns its own event queue (a
//! [`Scheduler`](crate::Scheduler)) and advances through bounded
//! *windows*: if the earliest pending event anywhere in the cluster is
//! at `m`, every shard may safely process events up to and including
//! `m + L - 1`, where `L` — the *lookahead* — is a lower bound on the
//! latency of any cross-shard interaction. A message sent by a shard at
//! time `t` arrives no earlier than `t + L`, i.e. never inside the
//! window that produced it, so shards cannot observe each other
//! mid-window and any execution order within a window yields the same
//! per-shard state. This is the classic conservative (CMB-style)
//! synchronization protocol; the static analyzer's DSB015 lookahead
//! certificates prove per-app `L` bounds ahead of time.
//!
//! Shards are not bound to threads. Each window, the worker threads
//! claim shards from one shared counter until none is left, so a
//! thread that finishes a light shard early takes the next one instead
//! of waiting at the barrier for a peer with a heavy one. A model gets
//! the most out of this with more shards than threads.
//!
//! # Determinism
//!
//! Cross-shard transfers carry a `(time, key)` pair minted by the
//! *sender's* model: the receiver inserts them verbatim (see
//! [`Scheduler::schedule_keyed`](crate::Scheduler::schedule_keyed)), so
//! its pop order — ascending `(time, key)` — is independent of thread
//! count, barrier timing, and mailbox arrival order. Batches are sorted
//! before absorption, and keys are globally unique (a model tags each
//! shard's key space with the shard index in the upper bits, e.g.
//! `(shard << 48) | counter`), making the sort a total order.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// A cross-shard message batch entry: `(arrival_ns, tie_break_key, payload)`.
pub type Transfer<T> = (u64, u64, T);

/// Per-destination staging buffers the shards fill while running a
/// window.
///
/// One bin per destination shard; the driver deposits non-empty bins
/// into the epoch mailbox at the window boundary. Each worker thread
/// owns one outbox and passes it to every shard it runs, so a shard's
/// own bin may already hold transfers that another shard, run earlier
/// in the same window on the same thread, staged for it. Bins keep
/// their capacity across epochs, so steady-state sends do not allocate.
pub struct Outbox<T> {
    bins: Vec<Vec<Transfer<T>>>,
}

impl<T> Outbox<T> {
    /// Creates an outbox with one bin per destination shard.
    pub fn new(shards: usize) -> Self {
        Outbox {
            bins: (0..shards).map(|_| Vec::new()).collect(),
        }
    }

    /// Stages `payload` for arrival at `at` on shard `dst`, under the
    /// sender-minted tie-break `key`.
    #[inline]
    pub fn send(&mut self, dst: usize, at: u64, key: u64, payload: T) {
        self.bins[dst].push((at, key, payload));
    }

    /// Removes and yields the transfers staged for `dst`. A shard that
    /// stands for several model partitions uses this to deliver its own
    /// internal sends at once instead of through the epoch exchange.
    pub fn drain(&mut self, dst: usize) -> std::vec::Drain<'_, Transfer<T>> {
        self.bins[dst].drain(..)
    }

    /// True if no transfer is staged.
    pub fn is_empty(&self) -> bool {
        self.bins.iter().all(Vec::is_empty)
    }
}

/// One partition of a sharded model, drivable by [`run_epochs`].
///
/// `C` is the read-only context shared by all shards during a run
/// (specs, caches, network topology — anything no shard mutates).
pub trait EpochShard<C: ?Sized>: Send {
    /// Payload type of cross-shard transfers.
    type Transfer: Send;

    /// Timestamp (ns) of this shard's earliest pending event, or `None`
    /// if its queue is empty. `&mut` because peeking a timing wheel may
    /// cascade levels.
    fn next_event_at(&mut self) -> Option<u64>;

    /// Processes every pending event with timestamp `<= last`
    /// (inclusive), staging cross-shard sends in `out`. Events
    /// scheduled during the window that still fall inside it must also
    /// be processed — i.e. drain until the queue head is past `last`.
    /// Sends to this shard itself must not be left in `out`: deliver
    /// them directly (see [`Outbox::drain`]).
    ///
    /// `out` is the running thread's, so this shard's bin may also hold
    /// transfers another shard staged for it earlier in this window.
    /// Delivering those at once with its own sends is exact: each
    /// arrives after `last` (at least one lookahead after the event
    /// that sent it), and the queue pops by `(time, key)` whatever the
    /// filing order.
    fn run_window(&mut self, ctx: &C, last: u64, out: &mut Outbox<Self::Transfer>);

    /// Accepts a batch of inbound transfers, sorted ascending by
    /// `(time, key)`. Every arrival time is beyond the window the batch
    /// was produced in, so scheduling them cannot move this shard's
    /// clock backwards.
    fn absorb(&mut self, batch: Vec<Transfer<Self::Transfer>>);
}

/// Why a lock or the barrier can fail: another worker panicked, and
/// the thread scope re-raises its panic.
const POISONED: &str = "another epoch worker panicked";

/// A sense-reversing spin barrier for a fixed set of worker threads.
///
/// Spins briefly, then falls back to [`std::thread::yield_now`]: epoch
/// workers are frequently co-scheduled on fewer cores than threads
/// (CI machines, laptops), where pure spinning would burn whole
/// scheduler quanta waiting for a thread that cannot run.
struct SpinBarrier {
    count: AtomicU32,
    sense: AtomicU32,
    n: u32,
    /// Set when a worker unwinds (see [`BreakOnUnwind`]): it will never
    /// arrive, so the workers waiting for it panic too.
    broken: AtomicBool,
}

/// Breaks its barrier if its worker unwinds, so a panic in one shard
/// fails the run instead of leaving the other workers waiting forever.
struct BreakOnUnwind<'a>(&'a SpinBarrier);

impl Drop for BreakOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.broken.store(true, Ordering::Relaxed);
        }
    }
}

impl SpinBarrier {
    fn new(n: u32) -> Self {
        SpinBarrier {
            count: AtomicU32::new(0),
            sense: AtomicU32::new(0),
            n,
            broken: AtomicBool::new(false),
        }
    }

    /// Blocks until all `n` workers have arrived. `local_sense` is the
    /// caller's thread-local phase bit, flipped on every crossing.
    fn wait(&self, local_sense: &mut u32) {
        *local_sense ^= 1;
        if self.count.fetch_add(1, Ordering::AcqRel) == self.n - 1 {
            // Last arrival: reset the counter for the next crossing,
            // then release everyone. The counter reset is safe before
            // the sense flip because no thread re-enters `wait` until
            // it has observed the flip.
            self.count.store(0, Ordering::Relaxed);
            self.sense.store(*local_sense, Ordering::Release);
        } else {
            let mut spins: u32 = 0;
            while self.sense.load(Ordering::Acquire) != *local_sense {
                spins = spins.wrapping_add(1);
                if spins < 64 {
                    std::hint::spin_loop();
                } else {
                    assert!(!self.broken.load(Ordering::Relaxed), "{POISONED}");
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// Shared per-epoch coordination state. Window minima, the any-events
/// flags and the shard claim counters are double-buffered by epoch
/// parity so workers can publish epoch `e + 1` values while stragglers
/// still read epoch `e`.
struct EpochSync {
    barrier: SpinBarrier,
    /// Global minimum event time, one slot per epoch parity.
    mins: [AtomicU64; 2],
    /// Whether any shard has pending events, one per epoch parity
    /// (`u64::MAX` is a valid event time — the far-future saturation
    /// sentinel — so emptiness needs its own flag).
    any: [AtomicU32; 2],
    /// The next unclaimed shard of the window, one per epoch parity.
    claims: [AtomicUsize; 2],
}

/// The epoch mailbox: one cell per destination shard. Senders append
/// under the lock during the run phase; the destination's home thread
/// drains it at the start of the next epoch. Append order is
/// scheduling-irrelevant because the batch is sorted by `(time, key)`
/// before absorption and keys are globally unique.
type Mailbox<T> = Vec<Mutex<Vec<Transfer<T>>>>;

/// Drives `shards` forward until every queue is empty or the earliest
/// pending event is past `until_ns` (inclusive bound), exchanging
/// cross-shard transfers at epoch boundaries.
///
/// `lookahead_ns` must be a positive lower bound on every cross-shard
/// latency: a transfer staged at time `t` must arrive at `t +
/// lookahead_ns` or later. Two or more shards run on `threads` OS
/// threads (clamped to `1..=shards.len()`), which claim the shards of
/// each window from one shared counter; which thread runs which shard
/// changes nothing the shards compute. A lone shard has no peer that
/// could send it anything: it runs on the calling thread, straight to
/// `until_ns`, in a single window. Either way each shard handles its
/// events in the `(time, key)` order one global queue would give them.
///
/// # Panics
///
/// Panics if `lookahead_ns` is zero.
pub fn run_epochs<C, S>(ctx: &C, shards: &mut [S], threads: usize, lookahead_ns: u64, until_ns: u64)
where
    C: Sync + ?Sized,
    S: EpochShard<C>,
{
    assert!(lookahead_ns > 0, "lookahead must be positive");
    match shards {
        [] => {}
        [lone] => {
            let mut out = Outbox::new(1);
            lone.run_window(ctx, until_ns, &mut out);
            debug_assert!(out.is_empty(), "shard staged a transfer to itself");
        }
        _ => {
            let threads = threads.clamp(1, shards.len());
            pool::run_epochs_threaded(ctx, shards, threads, lookahead_ns, until_ns)
        }
    }
}

/// The window end (inclusive) every shard may run to when the global
/// minimum pending event is at `start`.
#[inline]
fn window_last(start: u64, lookahead_ns: u64, until_ns: u64) -> u64 {
    start.saturating_add(lookahead_ns - 1).min(until_ns)
}

/// The threaded epoch driver. Kept in its own module so the
/// workspace's one exemption from the `std::thread::scope` ban in
/// `clippy.toml` covers exactly this code.
#[expect(
    clippy::disallowed_methods,
    reason = "the certified epoch driver owns its thread pool"
)]
mod pool {
    use super::*;

    pub(super) fn run_epochs_threaded<C, S>(
        ctx: &C,
        shards: &mut [S],
        threads: usize,
        lookahead_ns: u64,
        until_ns: u64,
    ) where
        C: Sync + ?Sized,
        S: EpochShard<C>,
    {
        let sync = EpochSync {
            barrier: SpinBarrier::new(threads as u32),
            mins: [AtomicU64::new(u64::MAX), AtomicU64::new(u64::MAX)],
            any: [AtomicU32::new(0), AtomicU32::new(0)],
            claims: [AtomicUsize::new(0), AtomicUsize::new(0)],
        };
        let mailbox: Mailbox<S::Transfer> =
            (0..shards.len()).map(|_| Mutex::new(Vec::new())).collect();
        // Barriers order every access to a shard, so its lock is never
        // contended: it only hands the shard from thread to thread.
        let shards: Vec<Mutex<&mut S>> = shards.iter_mut().map(Mutex::new).collect();

        std::thread::scope(|scope| {
            for me in 0..threads {
                let sync = &sync;
                let mailbox = &mailbox;
                let shards = &shards;
                scope.spawn(move || {
                    worker_loop(ctx, sync, mailbox, shards, me, lookahead_ns, until_ns)
                });
            }
        });
    }

    fn worker_loop<C, S>(
        ctx: &C,
        sync: &EpochSync,
        mailbox: &Mailbox<S::Transfer>,
        shards: &[Mutex<&mut S>],
        me: usize,
        lookahead_ns: u64,
        until_ns: u64,
    ) where
        C: ?Sized,
        S: EpochShard<C>,
    {
        let _unwind = BreakOnUnwind(&sync.barrier);
        let n = shards.len();
        let threads = sync.barrier.n as usize;
        let mut out = Outbox::new(n);
        let mut sense: u32 = 0;
        let mut epoch: usize = 0;
        let mut last: u64 = 0;
        loop {
            // Phase 1: each home shard (`s % threads == me`) absorbs
            // its inbound batch; the earliest next event among them goes
            // into this epoch's parity slot.
            let slot = epoch & 1;
            let home_min = (me..n)
                .step_by(threads)
                .filter_map(|s| {
                    let mut shard = shards[s].lock().expect(POISONED);
                    let mut batch = std::mem::take(&mut *mailbox[s].lock().expect(POISONED));
                    if !batch.is_empty() {
                        batch.sort_unstable_by_key(|&(at, key, _)| (at, key));
                        debug_assert!(batch.iter().all(|&(at, _, _)| at > last));
                        shard.absorb(batch);
                    }
                    shard.next_event_at()
                })
                .min();
            if let Some(at) = home_min {
                sync.mins[slot].fetch_min(at, Ordering::AcqRel);
                sync.any[slot].store(1, Ordering::Release);
            }
            sync.barrier.wait(&mut sense);

            // Phase 2: everyone reads the same window, so termination
            // is unanimous. The leader resets the *other* parity slots
            // for the epoch after next — safe here because every worker
            // finished using them before arriving at the phase-1
            // barrier above.
            let start = sync.mins[slot].load(Ordering::Acquire);
            let any = sync.any[slot].load(Ordering::Acquire) != 0;
            if me == 0 {
                sync.mins[slot ^ 1].store(u64::MAX, Ordering::Release);
                sync.any[slot ^ 1].store(0, Ordering::Release);
                sync.claims[slot ^ 1].store(0, Ordering::Relaxed);
            }
            if !any || start > until_ns {
                return;
            }
            last = window_last(start, lookahead_ns, until_ns);
            // Claim shards until none is left, then hand the staged
            // transfers to their destinations' mailboxes. The counter
            // only hands out indices; each shard's lock hands over the
            // shard itself.
            loop {
                let s = sync.claims[slot].fetch_add(1, Ordering::Relaxed);
                if s >= n {
                    break;
                }
                let mut shard = shards[s].lock().expect(POISONED);
                shard.run_window(ctx, last, &mut out);
            }
            for (dst, bin) in out.bins.iter_mut().enumerate() {
                if !bin.is_empty() {
                    mailbox[dst].lock().expect(POISONED).append(bin);
                }
            }
            sync.barrier.wait(&mut sense);
            epoch += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Scheduler;
    use crate::rng::mix64;
    use crate::time::SimTime;
    use dsb_testkit::{gen, prop, prop_assert, prop_assert_eq};
    use std::collections::BTreeMap;

    /// Toy sharded model: a hop chain that walks the cluster. Handling
    /// a hop logs `(time, salt)`, then deterministically derives the
    /// next destination and delay from the salt alone — so the exact
    /// same chain unfolds under every driver.
    #[derive(Clone, Copy, Debug)]
    struct Hop {
        remaining: u32,
        salt: u64,
    }

    enum Action {
        Done,
        Local(u64, Hop),
        Cross(usize, u64, Hop),
    }

    struct ToyShard {
        id: usize,
        n: usize,
        lookahead: u64,
        sched: Scheduler<Hop>,
        /// Tie-break key counter; see [`ToyShard::mint`].
        key_ctr: u64,
        log: Vec<(u64, u64)>,
        last_at: u64,
        /// The `last` bound of every `run_window` call, in call order.
        windows: Vec<u64>,
    }

    impl ToyShard {
        fn new(id: usize, n: usize, lookahead: u64, seed: u64) -> Self {
            ToyShard {
                id,
                n,
                lookahead,
                sched: Scheduler::new(seed ^ id as u64),
                key_ctr: 0,
                log: Vec::new(),
                last_at: 0,
                windows: Vec::new(),
            }
        }

        /// Mints the next globally-unique tie-break key, `(id << 48) |
        /// ctr` — the same scheme the simulator's shards use.
        fn mint(&mut self) -> u64 {
            self.key_ctr += 1;
            (self.id as u64) << 48 | self.key_ctr
        }

        /// Deterministic in `(self.id, now, hop)` only — shared by the
        /// epoch drivers and the flat oracle.
        fn handle(&mut self, now: u64, hop: Hop) -> Action {
            assert!(now >= self.last_at, "shard clock went backwards");
            self.last_at = now;
            self.log.push((now, hop.salt));
            if hop.remaining == 0 {
                return Action::Done;
            }
            let h = mix64(hop.salt);
            let next = Hop {
                remaining: hop.remaining - 1,
                salt: h,
            };
            let dst = (h % self.n as u64) as usize;
            if dst == self.id {
                // Local hop: any delay, including zero (same-instant
                // chains exercise the near-buffer path).
                Action::Local(now + (h >> 32) % (2 * self.lookahead), next)
            } else {
                // Cross-shard hop: delay at least L — the contract the
                // epoch protocol relies on.
                Action::Cross(
                    dst,
                    now + self.lookahead + (h >> 32) % (3 * self.lookahead),
                    next,
                )
            }
        }
    }

    impl EpochShard<()> for ToyShard {
        type Transfer = Hop;

        fn next_event_at(&mut self) -> Option<u64> {
            self.sched.next_event_at()
        }

        fn run_window(&mut self, _ctx: &(), last: u64, out: &mut Outbox<Hop>) {
            self.windows.push(last);
            while let Some(hop) = self.sched.pop_due(SimTime::from_nanos(last)) {
                let now = self.sched.now().as_nanos();
                // Tentpole property: the driver never releases an event
                // past the window it announced.
                assert!(
                    now <= last,
                    "event at {now} released past window end {last}"
                );
                match self.handle(now, hop) {
                    Action::Done => {}
                    Action::Local(at, h) => {
                        let k = self.mint();
                        self.sched.schedule_keyed(SimTime::from_nanos(at), k, h);
                    }
                    Action::Cross(dst, at, h) => {
                        let k = self.mint();
                        out.send(dst, at, k, h);
                    }
                }
                // Like a simulator lane, take what other shards run
                // earlier on this thread staged for this one: it is due
                // past the window, so filing it now is exact.
                for (at, key, hop) in out.drain(self.id) {
                    assert!(at > last, "transfer at {at} inside window ending {last}");
                    self.sched.schedule_keyed(SimTime::from_nanos(at), key, hop);
                }
            }
        }

        fn absorb(&mut self, batch: Vec<Transfer<Hop>>) {
            let mut prev: Option<(u64, u64)> = None;
            for (at, key, hop) in batch {
                // Satellite property: batches merge in (time, key) order.
                assert!(
                    prev.is_none_or(|p| (at, key) > p),
                    "batch not sorted by (time, key)"
                );
                prev = Some((at, key));
                self.sched.schedule_keyed(SimTime::from_nanos(at), key, hop);
            }
        }
    }

    /// Flat single-queue oracle: the same shards driven by one global
    /// `(at, key)`-ordered queue with no windows at all — mirroring how
    /// `wheel_matches_heap_reference` pits the wheel against a plain
    /// heap. Key-mint order per shard is identical to the epoch
    /// drivers' because each shard handles the same events in the same
    /// order and mints exactly one key per spawned hop.
    fn run_flat(shards: &mut [ToyShard], inits: &[(usize, u64, Hop)], until: u64) {
        let mut queue: BTreeMap<(u64, u64), (usize, Hop)> = BTreeMap::new();
        for &(i, at, hop) in inits {
            let key = shards[i].mint();
            queue.insert((at, key), (i, hop));
        }
        while let Some((&(at, key), _)) = queue.first_key_value() {
            if at > until {
                break;
            }
            let (i, hop) = queue.remove(&(at, key)).unwrap();
            match shards[i].handle(at, hop) {
                Action::Done => {}
                Action::Local(a, h) => {
                    let k = shards[i].mint();
                    queue.insert((a, k), (i, h));
                }
                Action::Cross(dst, a, h) => {
                    let k = shards[i].mint();
                    queue.insert((a, k), (dst, h));
                }
            }
        }
    }

    fn build_shards(case: &Case) -> (Vec<ToyShard>, Vec<(usize, u64, Hop)>) {
        let n = case.shards as usize;
        let shards: Vec<ToyShard> = (0..n)
            .map(|i| ToyShard::new(i, n, case.lookahead, case.seed))
            .collect();
        let inits: Vec<(usize, u64, Hop)> = (0..n)
            .map(|i| {
                let h = mix64(case.seed ^ ((i as u64) << 7 | 1));
                (
                    i,
                    h % (4 * case.lookahead),
                    Hop {
                        remaining: case.hops,
                        salt: h,
                    },
                )
            })
            .collect();
        (shards, inits)
    }

    fn schedule_inits(shards: &mut [ToyShard], inits: &[(usize, u64, Hop)]) {
        for &(i, at, hop) in inits {
            let k = shards[i].mint();
            shards[i]
                .sched
                .schedule_keyed(SimTime::from_nanos(at), k, hop);
        }
    }

    #[derive(Clone, Debug)]
    struct Case {
        shards: u8,
        /// Worker threads; the driver clamps it to `1..=shards`.
        threads: u8,
        hops: u32,
        lookahead: u64,
        seed: u64,
    }

    impl Case {
        fn run(&self, shards: &mut [ToyShard], until: u64) {
            run_epochs(&(), shards, self.threads as usize, self.lookahead, until);
        }
    }

    impl dsb_testkit::Shrink for Case {
        fn shrink(&self) -> Vec<Self> {
            let mut out = Vec::new();
            if self.shards > 1 {
                out.push(Case {
                    shards: self.shards - 1,
                    ..self.clone()
                });
            }
            if self.threads > 1 {
                out.push(Case {
                    threads: self.threads - 1,
                    ..self.clone()
                });
            }
            if self.hops > 0 {
                out.push(Case {
                    hops: self.hops / 2,
                    ..self.clone()
                });
            }
            if self.lookahead > 1 {
                out.push(Case {
                    lookahead: self.lookahead / 2,
                    ..self.clone()
                });
            }
            out
        }
    }

    /// Runs `case` through the epoch driver, stopping at a horizon and
    /// resuming, and compares every shard's log with the flat oracle's.
    fn matches_flat_oracle(case: &Case) -> Result<(), String> {
        let (mut oracle, inits) = build_shards(case);
        run_flat(&mut oracle, &inits, u64::MAX);
        let want: Vec<&[(u64, u64)]> = oracle.iter().map(|s| s.log.as_slice()).collect();

        let (mut shards, inits) = build_shards(case);
        schedule_inits(&mut shards, &inits);
        // Split the run at an arbitrary horizon: epoch runs must be
        // resumable (Simulation::advance_to relies on this).
        case.run(&mut shards, case.lookahead * 2);
        case.run(&mut shards, u64::MAX);
        for (s, want_log) in shards.iter().zip(&want) {
            prop_assert_eq!(&s.log.as_slice(), want_log, "shard {} diverged", s.id);
        }
        let total: usize = shards.iter().map(|s| s.log.len()).sum();
        prop_assert!(total > 0 || case.hops == 0 || case.shards == 0);
        Ok(())
    }

    /// The conformance property: for random hop topologies over one to
    /// six shards, run by one thread up to one per shard (a lone shard
    /// runs inline), the epoch protocol produces per-shard event logs
    /// byte-identical to the flat single-queue oracle, and stopping at
    /// a horizon then resuming changes nothing. Two pinned cases make
    /// sure one thread over many shards and two threads over six run
    /// whatever the draws.
    #[test]
    fn epoch_drivers_match_flat_oracle() {
        prop!(
            cases = 60,
            |rng| {
                let shards = gen::u8_in(rng, 1, 7);
                Case {
                    shards,
                    threads: gen::u8_in(rng, 1, shards + 1),
                    hops: gen::u32_in(rng, 0, 40),
                    lookahead: gen::u64_in(rng, 1, 10_000),
                    seed: gen::u64_in(rng, 0, u64::MAX),
                }
            },
            matches_flat_oracle,
        );
        for threads in [1, 2] {
            let case = Case {
                shards: 6,
                threads,
                hops: 30,
                lookahead: 700,
                seed: 0x0DD5,
            };
            matches_flat_oracle(&case).unwrap();
        }
    }

    /// A shard that panics fails the run: the other worker panics at
    /// the barrier instead of waiting there forever for it.
    #[test]
    fn a_panicking_shard_fails_the_run() {
        struct Bomb(bool);
        impl EpochShard<()> for Bomb {
            type Transfer = ();
            fn next_event_at(&mut self) -> Option<u64> {
                Some(0)
            }
            fn run_window(&mut self, _: &(), _: u64, _: &mut Outbox<()>) {
                assert!(!self.0, "shard bug");
            }
            fn absorb(&mut self, _: Vec<Transfer<()>>) {}
        }
        let run = std::panic::catch_unwind(|| {
            let mut shards = [Bomb(false), Bomb(true), Bomb(false)];
            run_epochs(&(), &mut shards, 2, 10, 100);
        });
        assert!(run.is_err(), "the shard's panic must reach the caller");
    }

    /// A horizon strictly inside the run must stop every shard at or
    /// before it, with unprocessed events intact.
    #[test]
    fn horizon_bounds_every_shard() {
        let case = Case {
            shards: 4,
            threads: 4,
            hops: 25,
            lookahead: 500,
            seed: 0x5EED,
        };
        let (mut shards, inits) = build_shards(&case);
        schedule_inits(&mut shards, &inits);
        let horizon = 4 * case.lookahead;
        case.run(&mut shards, horizon);
        for s in &shards {
            assert!(
                s.log.iter().all(|&(at, _)| at <= horizon),
                "shard {}: event past the horizon",
                s.id
            );
        }
        // Something must remain pending (25-hop chains at ~L-scale
        // delays run far past 4L).
        let pending: usize = shards.iter().map(|s| s.sched.pending()).sum();
        assert!(pending > 0, "expected unfinished work past the horizon");
    }

    /// A lone shard has no peer to hear from, so it runs to the horizon
    /// in one window however many lookahead widths its events span.
    #[test]
    fn lone_shard_runs_to_horizon_in_one_window() {
        let case = Case {
            shards: 1,
            threads: 1,
            hops: 40,
            lookahead: 100,
            seed: 0x1013,
        };
        let (mut shards, inits) = build_shards(&case);
        schedule_inits(&mut shards, &inits);
        let horizon = 30 * case.lookahead;
        case.run(&mut shards, horizon);
        let s = &shards[0];
        assert_eq!(s.windows, [horizon]);
        // The window really spanned many lookahead widths, and stopped
        // at the horizon with the rest of the chain still queued.
        assert!(s.log.iter().any(|&(at, _)| at >= 10 * case.lookahead));
        assert!(s.log.iter().all(|&(at, _)| at <= horizon));
        assert!(s.sched.pending() > 0, "chain should outlive the horizon");
    }

    /// Same seed, run twice with two threads claiming five shards:
    /// identical logs — the threaded driver introduces no scheduling
    /// nondeterminism, whichever thread runs which shard.
    #[test]
    fn threaded_driver_is_deterministic() {
        let case = Case {
            shards: 5,
            threads: 2,
            hops: 30,
            lookahead: 900,
            seed: 0xABCD,
        };
        let mut logs = Vec::new();
        for _ in 0..2 {
            let (mut shards, inits) = build_shards(&case);
            schedule_inits(&mut shards, &inits);
            case.run(&mut shards, u64::MAX);
            logs.push(shards.iter().map(|s| s.log.clone()).collect::<Vec<_>>());
        }
        assert_eq!(logs[0], logs[1]);
    }
}
