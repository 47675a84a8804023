//! The discrete-event loop: a [`Scheduler`] of typed events and the
//! [`Model`] trait that consumes them.
//!
//! # Event-queue internals
//!
//! The pending-event set is a hierarchical timing wheel (a calendar
//! queue), not a comparison heap: `schedule`/`pop` are O(1) amortized
//! for the near-horizon events that dominate microservice simulations
//! (NIC hops, worker completions and `schedule_now` chains cluster
//! within microseconds of the clock), while far-future events (diurnal
//! ticks, pre-scheduled open-loop arrivals) sit in coarse upper levels
//! and cascade down in batches as the clock approaches them. See
//! [`TimerWheel`] for the level layout and the determinism argument.

use crate::rng::Rng;
use crate::time::{SimDuration, SimTime};

/// A simulation model: owns all mutable world state and interprets events.
///
/// The event type is typically one enum covering every occurrence in the
/// modelled system (message deliveries, compute completions, timer ticks…).
/// [`Scheduler::run`] pops events in timestamp order and hands them to
/// [`Model::handle`], which may schedule further events.
pub trait Model {
    /// The event alphabet of this model.
    type Event;

    /// Processes one event at the scheduler's current virtual time.
    fn handle(&mut self, sched: &mut Scheduler<Self::Event>, ev: Self::Event);
}

/// One queued event: absolute nanosecond timestamp, insertion sequence
/// number (the deterministic tie-break) and the payload.
struct Entry<E> {
    at: u64,
    seq: u64,
    ev: E,
}

/// Slots per wheel level (one occupancy bit per slot fits in a `u64`).
const SLOT_BITS: u32 = 6;
/// Number of slots at each level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels. Level `L` has slot width `2^(G0_BITS + 6L)` ns.
const LEVELS: usize = 8;
/// Level-0 slot width exponent: slots of `2^10` ns ≈ 1 µs.
const G0_BITS: u32 = 10;
/// Horizon of the whole wheel: `2^(10 + 6*8)` = 2^58 ns ≈ 9 simulated
/// years. Events scheduled further out (notably the [`SimTime::MAX`]
/// saturation sentinel) go to the overflow ring.
const H_TOP: u64 = 1 << (G0_BITS + SLOT_BITS * LEVELS as u32);
/// Largest buffer, in entries, an upper-level slot keeps after a
/// cascade empties it. A burst (say, a slice of pre-scheduled arrivals)
/// grows one slot's buffer once; holding that on every slot it ever
/// visited would keep the burst's memory for the whole run.
const CASCADE_KEEP: usize = 256;

/// A hierarchical timing wheel holding `(at, seq, ev)` entries.
///
/// # Layout
///
/// * `LEVELS` wheels of `SLOTS` slots each; the level-`L` slot width is
///   `2^(G0_BITS + 6L)` ns, so level 0 spans ~65 µs and level 7 spans
///   ~9 years. A per-level `u64` occupancy bitmap makes "next non-empty
///   slot" a rotate + trailing-zeros.
/// * `near`: the drained current slot, kept sorted **descending** by
///   `(at, seq)` so the minimum pops from the tail. New events that land
///   inside the near window (`at <= near_last`, the common `schedule_now`
///   and sub-microsecond-hop case) binary-insert here — at the tail for
///   same-instant chains, so no memmove in the hot path. The window
///   covers the drained slot plus the empty level-0 slots after it, up
///   to one rotation (see [`TimerWheel::drain_level0`]). The bound is
///   inclusive so the top slot, whose end would be `2^64`, needs no
///   special case.
/// * `overflow`: events at least `H_TOP` beyond the cursor, re-seeded
///   into the wheels once they are the earliest pending work or fall
///   inside the level-0 slot about to drain. [`SimTime::MAX`] — the saturation sentinel produced by
///   `SimTime + SimDuration` overflow — always lands here.
///
/// # Determinism
///
/// The pop order must be *exactly* ascending `(at, seq)` — byte-for-byte
/// the order the previous `BinaryHeap` implementation produced — because
/// every golden fixture and differential sweep in the workspace pins it.
/// Slot FIFO order alone does not guarantee this: an event can reach a
/// level-0 slot either directly or by cascading from a coarser level,
/// and the two paths can interleave same-instant entries out of seq
/// order. Draining therefore sorts the slot by `(at, seq)` (seq values
/// are unique, so the sort is a total order and `sort_unstable` is
/// deterministic). Slots are nearly sorted already, so this is cheap.
struct TimerWheel<E> {
    /// Per level, its `SLOTS` slot vectors, allocated on the level's
    /// first push so a wheel pays only for the levels it uses. A slot
    /// keeps its capacity when it drains, except that an upper-level
    /// slot gives back a buffer larger than `CASCADE_KEEP` entries.
    slots: [Vec<Vec<Entry<E>>>; LEVELS],
    /// Per-level slot-occupancy bitmaps.
    occupied: [u64; LEVELS],
    /// The near window's entries, sorted descending by `(at, seq)`.
    near: Vec<Entry<E>>,
    /// Last instant of the near window, inclusive: every pending entry
    /// with `at <= near_last` is in `near`, so pushes at or before it
    /// insert there directly.
    near_last: u64,
    /// Wheel position: the start of the last drained slot, always
    /// aligned to the level-0 slot width. Only advances.
    cursor: u64,
    /// Events at least `H_TOP` beyond the cursor.
    overflow: Vec<Entry<E>>,
    /// Minimum `at` in `overflow` (`u64::MAX` when empty — which is
    /// also a valid event time, so emptiness is checked separately).
    overflow_min: u64,
    /// Lower bound on the earliest `slot_start` of any occupied slot in
    /// levels ≥ 1 (`u64::MAX` when provably none). Pushes fold their
    /// slot start in; the full refill scan recomputes it exactly. The
    /// bound may drift *low* after a cascade empties the minimum slot
    /// (harmless: one wasted full scan), never high — so the fast path
    /// in [`TimerWheel::refill`] can trust it to skip the 8-level scan
    /// and drain straight from the level-0 bitmap.
    upper_min: u64,
    /// Live entry count across near + slots + overflow.
    len: usize,
}

impl<E> TimerWheel<E> {
    fn new() -> Self {
        TimerWheel {
            slots: std::array::from_fn(|_| Vec::new()),
            occupied: [0; LEVELS],
            near: Vec::new(),
            near_last: 0,
            cursor: 0,
            overflow: Vec::new(),
            overflow_min: u64::MAX,
            upper_min: u64::MAX,
            len: 0,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    /// Inserts an entry. `at` must be `>= self.cursor` (the scheduler
    /// clamps past events to `now >= cursor`).
    fn push(&mut self, at: u64, seq: u64, ev: E) {
        self.len += 1;
        let e = Entry { at, seq, ev };
        if at <= self.near_last {
            // Descending order: larger (at, seq) first, minimum at the
            // tail. A same-instant chain inserts at the very tail.
            let idx = self.near.partition_point(|x| (x.at, x.seq) > (at, seq));
            self.near.insert(idx, e);
        } else {
            self.push_wheel(e);
        }
    }

    /// Places an entry into the wheel level whose span covers its delta
    /// from the cursor (or into overflow).
    fn push_wheel(&mut self, e: Entry<E>) {
        let delta = e.at - self.cursor;
        if delta >= H_TOP {
            self.overflow_min = self.overflow_min.min(e.at);
            self.overflow.push(e);
            return;
        }
        // Smallest level whose horizon 2^(G0_BITS + 6(L+1)) exceeds the
        // delta, then bump while the slot distance reaches a full
        // rotation (possible when the cursor sits mid-slot). That level,
        // ⌈(bits − G0_BITS − 6) / 6⌉ floored at 0, equals ⌊(bits −
        // G0_BITS − 1) / 6⌋ for every `bits`: no remainder test here.
        let bits = 64 - delta.leading_zeros();
        let mut level = bits.saturating_sub(G0_BITS + 1) / SLOT_BITS;
        loop {
            if level as usize >= LEVELS {
                self.overflow_min = self.overflow_min.min(e.at);
                self.overflow.push(e);
                return;
            }
            let shift = G0_BITS + level * SLOT_BITS;
            if (e.at >> shift) - (self.cursor >> shift) < SLOTS as u64 {
                break;
            }
            level += 1;
        }
        let shift = G0_BITS + level * SLOT_BITS;
        let idx = ((e.at >> shift) & (SLOTS as u64 - 1)) as usize;
        if level > 0 {
            self.upper_min = self.upper_min.min((e.at >> shift) << shift);
        }
        self.occupied[level as usize] |= 1 << idx;
        let slots = &mut self.slots[level as usize];
        if slots.is_empty() {
            slots.resize_with(SLOTS, Vec::new);
        }
        slots[idx].push(e);
    }

    /// Timestamp of the next entry, refilling the near buffer if needed.
    fn peek_at(&mut self) -> Option<u64> {
        if self.refill() {
            self.near.last().map(|e| e.at)
        } else {
            None
        }
    }

    /// Removes and returns the earliest entry.
    fn pop(&mut self) -> Option<Entry<E>> {
        if !self.refill() {
            return None;
        }
        self.len -= 1;
        self.near.pop()
    }

    /// Ensures `near` holds the next batch of entries; returns whether
    /// any entry is pending at all.
    fn refill(&mut self) -> bool {
        if !self.near.is_empty() {
            return true;
        }
        // Fast path: the next event usually sits in a level-0 slot with
        // nothing coarser due first, so one bitmap rotate suffices. Ties
        // with `upper_min` fall through (a coarser slot starting at the
        // same instant must cascade before this slot drains), and so
        // does an overflow entry inside the slot (it must join the slot
        // first; the scan below reseeds it).
        if self.occupied[0] != 0 {
            let cur_idx = ((self.cursor >> G0_BITS) & (SLOTS as u64 - 1)) as u32;
            let k = self.occupied[0].rotate_right(cur_idx).trailing_zeros() as u64;
            let idx = ((cur_idx as u64 + k) & (SLOTS as u64 - 1)) as usize;
            let slot_start = ((self.cursor >> G0_BITS) + k) << G0_BITS;
            let slot_last = slot_start + ((1 << G0_BITS) - 1);
            if slot_start < self.upper_min && slot_last < self.overflow_min {
                self.drain_level0(idx, slot_start);
                return true;
            }
        }
        loop {
            // Earliest non-empty slot across levels: per level, rotate
            // the occupancy bitmap so the cursor's slot is bit 0 and take
            // the first set bit. Entries always sit within one rotation
            // ahead of the cursor, so the circular scan is unambiguous.
            let mut best: Option<(u64, usize, usize)> = None;
            let mut upper = u64::MAX;
            for level in 0..LEVELS {
                let occ = self.occupied[level];
                if occ == 0 {
                    continue;
                }
                let shift = G0_BITS + level as u32 * SLOT_BITS;
                let cur_idx = ((self.cursor >> shift) & (SLOTS as u64 - 1)) as u32;
                let k = occ.rotate_right(cur_idx).trailing_zeros() as u64;
                let idx = ((cur_idx as u64 + k) & (SLOTS as u64 - 1)) as usize;
                let slot_start = ((self.cursor >> shift) + k) << shift;
                if level > 0 {
                    upper = upper.min(slot_start);
                }
                // Minimal start time wins; on ties the *coarser* level
                // must cascade first so its entries join the finer slot
                // before that slot is drained.
                let better = match best {
                    None => true,
                    Some((bs, bl, _)) => slot_start < bs || (slot_start == bs && level > bl),
                };
                if better {
                    best = Some((slot_start, level, idx));
                }
            }
            // The scan just visited every upper level, so the bound is
            // exact again here (cascades below re-lower it via pushes).
            self.upper_min = upper;
            // Overflow entries re-enter the wheels once they are the
            // earliest pending work (their deltas shrink as the cursor
            // advances; nothing in the wheels is earlier, so jumping the
            // cursor to the overflow minimum skips no event), or once
            // they fall inside the level-0 slot about to drain (the
            // cursor then moves only to that slot's start).
            let reseed = !self.overflow.is_empty()
                && best.is_none_or(|(bs, level, _)| {
                    self.overflow_min < bs
                        || (level == 0 && self.overflow_min <= bs + ((1 << G0_BITS) - 1))
                });
            if reseed {
                self.reseed_overflow();
                continue;
            }
            let Some((slot_start, level, idx)) = best else {
                return false;
            };
            if level == 0 {
                self.drain_level0(idx, slot_start);
                return true;
            }
            self.occupied[level] &= !(1 << idx);
            self.cursor = slot_start;
            // Cascade: re-insert the coarse slot's entries; each lands at
            // a strictly lower level (its delta is below this level's
            // slot width). The slot vector is swapped back afterwards so
            // its capacity is reused, unless a burst made it large.
            let mut batch = std::mem::take(&mut self.slots[level][idx]);
            for e in batch.drain(..) {
                self.push_wheel(e);
            }
            if batch.capacity() <= CASCADE_KEEP {
                self.slots[level][idx] = batch;
            }
        }
    }

    /// Drains level-0 slot `idx`, which starts at `slot_start`, into
    /// `near`, and stretches the near window over the empty slots after
    /// it. The window ends one nanosecond before the first of:
    ///
    /// * the next occupied level-0 slot;
    /// * `upper_min`;
    /// * the overflow minimum, when overflow is non-empty;
    /// * one rotation (64 slots) past `slot_start`.
    ///
    /// No entry outside `near` is due before the first three, so every
    /// pending entry inside the window is in `near`. The rotation cap
    /// bounds the span `near`'s sorted inserts cover. Dense traffic
    /// keeps a one-slot window, because the next slot is occupied.
    /// Sparse traffic, such as a core's sub-µs timeslices, then pushes
    /// straight into `near` instead of hopping through a slot. The
    /// window never ends before the slot's own last nanosecond, and the
    /// rotation cap saturates at the end of time.
    fn drain_level0(&mut self, idx: usize, slot_start: u64) {
        self.occupied[0] &= !(1 << idx);
        self.cursor = slot_start;
        self.near.append(&mut self.slots[0][idx]);
        self.near
            .sort_unstable_by_key(|e| std::cmp::Reverse((e.at, e.seq)));
        let mut end = self.upper_min;
        if self.occupied[0] != 0 {
            let k = self.occupied[0].rotate_right(idx as u32).trailing_zeros() as u64;
            end = end.min(slot_start + (k << G0_BITS));
        }
        if !self.overflow.is_empty() {
            end = end.min(self.overflow_min);
        }
        let rotation_last = slot_start.saturating_add(((SLOTS as u64) << G0_BITS) - 1);
        let slot_last = slot_start + ((1 << G0_BITS) - 1);
        // `end` is `u64::MAX` when nothing bounds the window; only the top
        // slot then reaches the end of time, through `slot_last`.
        self.near_last = (end - 1).min(rotation_last).max(slot_last);
    }

    /// Moves overflow entries whose horizon the cursor has reached back
    /// into the wheels. Only called when overflow holds the earliest
    /// pending entry, so advancing the cursor is safe.
    fn reseed_overflow(&mut self) {
        self.cursor = self.cursor.max(self.overflow_min & !((1 << G0_BITS) - 1));
        let batch = std::mem::take(&mut self.overflow);
        self.overflow_min = u64::MAX;
        for e in batch {
            // push_wheel re-files entries still past the horizon (the
            // minimum itself always lands in the wheels, so this makes
            // progress every time).
            self.push_wheel(e);
        }
    }
}

/// The event queue and clock of a simulation run.
///
/// A `Scheduler` owns virtual time, the pending-event timing wheel and
/// the run's root [`Rng`]. Two events scheduled for the same instant are
/// delivered in the order they were scheduled, making every run
/// deterministic.
///
/// See the [crate-level example](crate) for typical usage.
pub struct Scheduler<E> {
    now: SimTime,
    seq: u64,
    queue: TimerWheel<E>,
    rng: Rng,
    processed: u64,
}

impl<E> Scheduler<E> {
    /// Creates a scheduler at time zero with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        Scheduler {
            now: SimTime::ZERO,
            seq: 0,
            queue: TimerWheel::new(),
            rng: Rng::new(seed),
            processed: 0,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// The run's root random-number generator.
    ///
    /// Components that need decoupled streams should take
    /// `sched.rng().split()` once at setup.
    pub fn rng(&mut self) -> &mut Rng {
        &mut self.rng
    }

    /// Schedules `ev` at the absolute instant `at`.
    ///
    /// Events scheduled in the past are delivered at the current time (the
    /// simulation clock never runs backwards).
    pub fn schedule_at(&mut self, at: SimTime, ev: E) {
        let at = at.max(self.now);
        self.seq += 1;
        self.queue.push(at.as_nanos(), self.seq, ev);
    }

    /// Schedules `ev` after the given delay.
    ///
    /// A delay that would overflow virtual time saturates to
    /// [`SimTime::MAX`], the queue's far-future sentinel: the event is
    /// still delivered (last, at the end of time) rather than wrapping
    /// around and corrupting the order.
    pub fn schedule_in(&mut self, delay: SimDuration, ev: E) {
        self.schedule_at(self.now + delay, ev);
    }

    /// Schedules `ev` at the current instant (after already-queued events
    /// for this instant).
    pub fn schedule_now(&mut self, ev: E) {
        self.schedule_at(self.now, ev);
    }

    /// Schedules `ev` at `at` under a caller-supplied tie-break key
    /// instead of minting a local one.
    ///
    /// Sharded models mint keys themselves, tagged with the shard index
    /// so they are unique cluster-wide, and ship them with cross-shard
    /// messages; the receiver inserts them verbatim, so its pop order
    /// does not depend on which queue an event passed through. Same
    /// past-clamping rule as [`Scheduler::schedule_at`].
    pub fn schedule_keyed(&mut self, at: SimTime, key: u64, ev: E) {
        let at = at.max(self.now);
        self.queue.push(at.as_nanos(), key, ev);
    }

    /// Timestamp (in nanoseconds) of the earliest pending event, or
    /// `None` when the queue is empty.
    ///
    /// Takes `&mut self` because peeking may cascade timing-wheel
    /// levels; it never pops or alters the pending set. Epoch drivers
    /// use this to compute the global minimum that bounds the next
    /// synchronization window.
    pub fn next_event_at(&mut self) -> Option<u64> {
        self.queue.peek_at()
    }

    /// Pops the next event if it is due at or before `until`, advancing
    /// the clock. This is the single dequeue path shared by
    /// [`Scheduler::run_until`] and [`Scheduler::step`], so the
    /// backwards-time guard holds on every route out of the queue.
    /// Public so epoch drivers (see `dsb_simcore::epoch`) can drain a
    /// shard's bounded window without going through a [`Model`].
    pub fn pop_due(&mut self, until: SimTime) -> Option<E> {
        let at = self.queue.peek_at()?;
        if at > until.as_nanos() {
            return None;
        }
        let e = self.queue.pop().expect("peeked entry disappeared");
        debug_assert!(e.at >= self.now.as_nanos(), "time went backwards");
        self.now = SimTime::from_nanos(e.at);
        self.processed += 1;
        Some(e.ev)
    }

    /// Runs the model until the event queue is empty.
    pub fn run<M: Model<Event = E>>(&mut self, model: &mut M) {
        self.run_until(model, SimTime::MAX);
    }

    /// Runs the model until the queue is empty or the next event would be
    /// after `until`; the clock is left at the last processed event (or
    /// unchanged if none ran).
    pub fn run_until<M: Model<Event = E>>(&mut self, model: &mut M, until: SimTime) {
        while let Some(ev) = self.pop_due(until) {
            model.handle(self, ev);
        }
    }

    /// Runs at most `n` further events (for stepping in tests/debuggers).
    /// Returns the number actually processed.
    pub fn step<M: Model<Event = E>>(&mut self, model: &mut M, n: u64) -> u64 {
        let mut done = 0;
        while done < n {
            let Some(ev) = self.pop_due(SimTime::MAX) else {
                break;
            };
            model.handle(self, ev);
            done += 1;
        }
        done
    }
}

impl<E> std::fmt::Debug for Scheduler<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("now", &self.now)
            .field("pending", &self.queue.len())
            .field("processed", &self.processed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsb_testkit::{gen, prop, prop_assert_eq};
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    // -- The retired comparison-heap queue, kept as the differential
    //    reference: the timing wheel must reproduce its pop order
    //    byte-for-byte.

    struct HeapScheduled<E> {
        at: u64,
        seq: u64,
        ev: E,
    }

    impl<E> PartialEq for HeapScheduled<E> {
        fn eq(&self, other: &Self) -> bool {
            self.at == other.at && self.seq == other.seq
        }
    }
    impl<E> Eq for HeapScheduled<E> {}
    impl<E> PartialOrd for HeapScheduled<E> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<E> Ord for HeapScheduled<E> {
        fn cmp(&self, other: &Self) -> Ordering {
            // Reversed: BinaryHeap is a max-heap, we need earliest-first.
            other
                .at
                .cmp(&self.at)
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }

    /// Reference queue with the exact semantics of the pre-wheel engine.
    struct HeapQueue<E> {
        heap: BinaryHeap<HeapScheduled<E>>,
    }

    impl<E> HeapQueue<E> {
        fn new() -> Self {
            HeapQueue {
                heap: BinaryHeap::new(),
            }
        }
        fn push(&mut self, at: u64, seq: u64, ev: E) {
            self.heap.push(HeapScheduled { at, seq, ev });
        }
        fn pop(&mut self) -> Option<(u64, u64, E)> {
            self.heap.pop().map(|s| (s.at, s.seq, s.ev))
        }
    }

    // -- Pop-order model tests (shared with the old engine).

    #[derive(Debug, PartialEq)]
    enum Ev {
        Tag(u32),
        Chain(u32),
    }

    #[derive(Default)]
    struct Recorder {
        seen: Vec<(u64, u32)>,
    }

    impl Model for Recorder {
        type Event = Ev;
        fn handle(&mut self, sched: &mut Scheduler<Ev>, ev: Ev) {
            match ev {
                Ev::Tag(t) => self.seen.push((sched.now().as_nanos(), t)),
                Ev::Chain(n) => {
                    self.seen.push((sched.now().as_nanos(), n));
                    if n > 0 {
                        sched.schedule_in(SimDuration::from_nanos(10), Ev::Chain(n - 1));
                    }
                }
            }
        }
    }

    #[test]
    fn events_delivered_in_time_order() {
        let mut s = Scheduler::new(0);
        s.schedule_at(SimTime::from_nanos(30), Ev::Tag(3));
        s.schedule_at(SimTime::from_nanos(10), Ev::Tag(1));
        s.schedule_at(SimTime::from_nanos(20), Ev::Tag(2));
        let mut m = Recorder::default();
        s.run(&mut m);
        assert_eq!(m.seen, vec![(10, 1), (20, 2), (30, 3)]);
        assert_eq!(s.events_processed(), 3);
    }

    #[test]
    fn ties_delivered_in_schedule_order() {
        let mut s = Scheduler::new(0);
        for i in 0..50 {
            s.schedule_at(SimTime::from_nanos(5), Ev::Tag(i));
        }
        let mut m = Recorder::default();
        s.run(&mut m);
        let tags: Vec<u32> = m.seen.iter().map(|&(_, t)| t).collect();
        assert_eq!(tags, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn chained_scheduling_advances_clock() {
        let mut s = Scheduler::new(0);
        s.schedule_at(SimTime::ZERO, Ev::Chain(5));
        let mut m = Recorder::default();
        s.run(&mut m);
        assert_eq!(s.now(), SimTime::from_nanos(50));
        assert_eq!(m.seen.len(), 6);
    }

    #[test]
    fn run_until_stops_at_horizon() {
        let mut s = Scheduler::new(0);
        s.schedule_at(SimTime::from_nanos(10), Ev::Tag(1));
        s.schedule_at(SimTime::from_nanos(100), Ev::Tag(2));
        let mut m = Recorder::default();
        s.run_until(&mut m, SimTime::from_nanos(50));
        assert_eq!(m.seen, vec![(10, 1)]);
        assert_eq!(s.pending(), 1);
        // Can resume afterwards.
        s.run(&mut m);
        assert_eq!(m.seen.len(), 2);
    }

    #[test]
    fn past_events_clamped_to_now() {
        let mut s = Scheduler::new(0);
        s.schedule_at(SimTime::from_nanos(100), Ev::Tag(1));
        let mut m = Recorder::default();
        s.run(&mut m);
        s.schedule_at(SimTime::from_nanos(5), Ev::Tag(2)); // in the past
        s.run(&mut m);
        assert_eq!(m.seen, vec![(100, 1), (100, 2)]);
    }

    #[test]
    fn step_limits_event_count() {
        let mut s = Scheduler::new(0);
        s.schedule_at(SimTime::ZERO, Ev::Chain(10));
        let mut m = Recorder::default();
        assert_eq!(s.step(&mut m, 3), 3);
        assert_eq!(m.seen.len(), 3);
        assert_eq!(s.step(&mut m, 100), 8);
    }

    // -- New coverage for the wheel's distinct regimes.

    #[test]
    fn far_future_events_survive_overflow() {
        let mut s = Scheduler::new(0);
        // Beyond the wheel horizon: overflow ring.
        s.schedule_at(SimTime::from_nanos(H_TOP * 3 + 17), Ev::Tag(2));
        // The saturation sentinel itself.
        s.schedule_at(SimTime::MAX, Ev::Tag(3));
        s.schedule_at(SimTime::from_nanos(40), Ev::Tag(1));
        let mut m = Recorder::default();
        s.run(&mut m);
        assert_eq!(m.seen, vec![(40, 1), (H_TOP * 3 + 17, 2), (u64::MAX, 3)]);
    }

    #[test]
    fn schedule_in_saturates_to_end_of_time() {
        let mut s = Scheduler::new(0);
        s.schedule_at(SimTime::from_nanos(10), Ev::Tag(1));
        let mut m = Recorder::default();
        s.run(&mut m);
        // now = 10; MAX delay saturates instead of wrapping to the past.
        s.schedule_in(SimDuration::MAX, Ev::Tag(9));
        s.schedule_at(SimTime::from_nanos(20), Ev::Tag(2));
        s.run(&mut m);
        assert_eq!(m.seen, vec![(10, 1), (20, 2), (u64::MAX, 9)]);
    }

    /// Keyed events at the end of time pop in key order even after the
    /// top slot has drained: its near window ends at `u64::MAX`, which
    /// an exclusive bound could not express.
    #[test]
    fn keyed_events_at_end_of_time_pop_in_key_order() {
        let mut s = Scheduler::new(0);
        s.schedule_keyed(SimTime::MAX, 10, 'a');
        s.schedule_keyed(SimTime::MAX, 20, 'b');
        let mut popped = vec![s.pop_due(SimTime::MAX).expect("a pending")];
        s.schedule_keyed(SimTime::MAX, 15, 'c');
        while let Some(ev) = s.pop_due(SimTime::MAX) {
            popped.push(ev);
        }
        assert_eq!(popped, ['a', 'c', 'b']);
    }

    /// An overflow entry inside the level-0 slot about to drain pops in
    /// `(at, seq)` order with the slot's own entries.
    #[test]
    fn overflow_entry_inside_the_draining_slot_pops_in_order() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        w.push(H_TOP, 1, 1); // beyond the horizon: overflow
        w.push(H_TOP - 1, 2, 2); // top level, cascades down to level 0
        assert_eq!(w.pop().map(|e| (e.at, e.ev)), Some((H_TOP - 1, 2)));
        // Lands in the level-0 slot starting at H_TOP, next to the
        // overflow entry.
        w.push(H_TOP + 5, 3, 3);
        let rest: Vec<_> = std::iter::from_fn(|| w.pop().map(|e| (e.at, e.ev))).collect();
        assert_eq!(rest, [(H_TOP, 1), (H_TOP + 5, 3)]);
    }

    /// A burst that cascades out of an upper-level slot leaves no large
    /// buffer behind there, and a level never pushed to allocates no
    /// slots.
    #[test]
    fn wheel_memory_follows_its_load() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        assert!(
            w.slots.iter().all(Vec::is_empty),
            "a new wheel has no slots"
        );
        let t = 1 << (G0_BITS + 2 * SLOT_BITS); // level-2 territory
        for i in 0..1_000 {
            w.push(t + i, i, i as u32);
        }
        assert_eq!(w.slots[2].len(), SLOTS);
        assert!(w.slots[1].is_empty() && w.slots[3..].iter().all(Vec::is_empty));
        assert_eq!(drain_all(&mut w).len(), 1_000);
        let kept = w.slots[1..].iter().flatten().map(Vec::capacity).max();
        assert!(
            kept <= Some(CASCADE_KEEP),
            "an upper slot kept {kept:?} entries"
        );
    }

    // -- The near window's stretch: one test per bound. Each drains a
    //    slot, checks where the window ends, then pushes entries on both
    //    sides of that end and checks the pop order.

    fn pop_at(w: &mut TimerWheel<u32>) -> Option<(u64, u32)> {
        w.pop().map(|e| (e.at, e.ev))
    }

    fn drain_all(w: &mut TimerWheel<u32>) -> Vec<(u64, u32)> {
        std::iter::from_fn(|| pop_at(w)).collect()
    }

    /// The window stops before the next occupied level-0 slot.
    #[test]
    fn near_window_stops_at_the_next_occupied_slot() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        w.push(100, 1, 1); // slot 0
        w.push(5_000, 2, 2); // slot 4
        assert_eq!(pop_at(&mut w), Some((100, 1)));
        assert_eq!(w.near_last, (4 << G0_BITS) - 1);
        w.push(6_000, 3, 3); // slot 5, behind the slot-4 entry
        assert_eq!(drain_all(&mut w), [(5_000, 2), (6_000, 3)]);
    }

    /// The window stops before `upper_min`, the earliest upper-level slot.
    #[test]
    fn near_window_stops_at_upper_min() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        w.push(10_300, 1, 1); // level-0 slot 10
        w.push(66_000, 2, 2); // 64 slots out: level 1, slot start 65_536
        assert_eq!(pop_at(&mut w), Some((10_300, 1)));
        assert_eq!(w.near_last, 65_535);
        w.push(70_000, 3, 3); // inside the rotation, past the level-1 slot
        assert_eq!(drain_all(&mut w), [(66_000, 2), (70_000, 3)]);
    }

    /// The window stops before the overflow minimum.
    #[test]
    fn near_window_stops_at_overflow_min() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        w.push(H_TOP, 1, 1); // beyond the horizon: overflow
        w.push(H_TOP - 2_000, 2, 2); // top level, cascades down to level 0
        assert_eq!(pop_at(&mut w), Some((H_TOP - 2_000, 2)));
        assert_eq!(w.near_last, H_TOP - 1);
        w.push(H_TOP + 5, 3, 3);
        assert_eq!(drain_all(&mut w), [(H_TOP, 1), (H_TOP + 5, 3)]);
    }

    /// With nothing else pending the window spans one rotation: the cap
    /// bounds what `near`'s sorted inserts cover, so an entry one
    /// rotation out takes the slot path.
    #[test]
    fn near_window_stops_one_rotation_out() {
        let rotation = (SLOTS as u64) << G0_BITS;
        let mut w: TimerWheel<u32> = TimerWheel::new();
        w.push(100, 1, 1);
        assert_eq!(pop_at(&mut w), Some((100, 1)));
        assert_eq!(w.near_last, rotation - 1);
        w.push(rotation, 2, 2);
        w.push(rotation - 1, 3, 3);
        assert_eq!(w.near.len(), 1, "only the entry inside the rotation");
        assert_eq!(drain_all(&mut w), [(rotation - 1, 3), (rotation, 2)]);
    }

    /// A drain within one rotation of the end of time saturates the cap
    /// instead of wrapping; the `u64::MAX` sentinel still pops last.
    #[test]
    fn near_window_saturates_near_the_end_of_time() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        w.push(u64::MAX - 5_000, 1, 1);
        assert_eq!(pop_at(&mut w), Some((u64::MAX - 5_000, 1)));
        assert_eq!(w.near_last, u64::MAX - 1);
        w.push(u64::MAX, 2, 2);
        w.push(u64::MAX - 1, 3, 3);
        assert_eq!(drain_all(&mut w), [(u64::MAX - 1, 3), (u64::MAX, 2)]);
    }

    #[test]
    fn cross_level_cascade_preserves_tie_order() {
        // Two events at the same far instant, scheduled at different
        // times: one cascades down from a coarse level, the other is
        // inserted directly once the instant is near. Seq order must
        // still decide.
        let t = 1 << (G0_BITS + SLOT_BITS + 3); // level-1 territory
        let mut s = Scheduler::new(0);
        s.schedule_at(SimTime::from_nanos(t), Ev::Tag(1)); // seq 1, coarse
        s.schedule_at(SimTime::from_nanos(t - 5), Ev::Tag(0));
        let mut m = Recorder::default();
        // Drain the first event; now sits just below t.
        s.run_until(&mut m, SimTime::from_nanos(t - 5));
        s.schedule_at(SimTime::from_nanos(t), Ev::Tag(2)); // seq 3, direct
        s.run(&mut m);
        assert_eq!(m.seen, vec![(t - 5, 0), (t, 1), (t, 2)]);
    }

    /// Satellite regression: `step` and `run_until` interleavings must
    /// produce byte-identical event order to an uninterrupted `run`
    /// (they share one dequeue routine, including the backwards-time
    /// guard).
    #[test]
    fn step_run_until_interleaving_matches_pure_run() {
        let build = |s: &mut Scheduler<Ev>| {
            s.schedule_at(SimTime::ZERO, Ev::Chain(7));
            for i in 0..20 {
                s.schedule_at(SimTime::from_nanos(i * 13 % 60), Ev::Tag(i as u32));
            }
            s.schedule_at(SimTime::from_nanos(45), Ev::Chain(3));
        };
        let mut pure = Scheduler::new(0);
        build(&mut pure);
        let mut pm = Recorder::default();
        pure.run(&mut pm);

        let mut inter = Scheduler::new(0);
        build(&mut inter);
        let mut im = Recorder::default();
        loop {
            if inter.step(&mut im, 3) == 0 {
                break;
            }
            inter.run_until(&mut im, inter.now() + SimDuration::from_nanos(7));
            if inter.step(&mut im, 1) == 0 {
                break;
            }
        }
        inter.run(&mut im);
        assert_eq!(im.seen, pm.seen);
        assert_eq!(im.seen.len() as u64, inter.events_processed());
        assert_eq!(inter.events_processed(), pure.events_processed());
    }

    // -- Wheel-vs-heap differential property test.

    /// One generated scheduling action: `pops` events are drained, then
    /// an event is pushed `delta` ns after the last popped time (clamped
    /// like the real scheduler clamps past events).
    #[derive(Debug, Clone)]
    struct Op {
        pops: u8,
        delta: u64,
    }

    impl dsb_testkit::Shrink for Op {
        fn shrink(&self) -> Vec<Self> {
            let mut out = Vec::new();
            if self.pops > 0 {
                out.push(Op {
                    pops: self.pops / 2,
                    delta: self.delta,
                });
            }
            if self.delta > 0 {
                out.push(Op {
                    pops: self.pops,
                    delta: self.delta / 2,
                });
            }
            out
        }
    }

    // `dsb_testkit::Rng` rather than `crate::rng::Rng`: inside this
    // crate's unit tests, testkit links against the *published* simcore
    // build, so its Rng is a distinct type from `crate::rng::Rng`.
    fn gen_delta(r: &mut dsb_testkit::Rng) -> u64 {
        // Mix the wheel's regimes: same-instant bursts, sub-slot hops,
        // each wheel level, past-clamped (handled by caller), overflow
        // and the MAX sentinel.
        match gen::u32_in(r, 0, 9) {
            0 => 0,
            1 => gen::u64_in(r, 1, 1 << G0_BITS),
            2 => gen::u64_in(r, 1, 1 << (G0_BITS + SLOT_BITS)),
            3 => gen::u64_in(r, 1, 1 << (G0_BITS + 2 * SLOT_BITS)),
            4 => gen::u64_in(r, 1, 1 << (G0_BITS + 4 * SLOT_BITS)),
            5 => gen::u64_in(r, 1, H_TOP - 1),
            6 => gen::u64_in(r, H_TOP, u64::MAX / 2),
            7 => u64::MAX, // saturates: far-future sentinel
            _ => gen::u64_in(r, 1, 1 << (G0_BITS + 1)),
        }
    }

    #[test]
    fn wheel_matches_heap_reference() {
        prop!(
            cases = 200,
            |rng| {
                gen::vec_with(rng, 1, 120, |r| Op {
                    pops: gen::u8_in(r, 0, 3),
                    delta: gen_delta(r),
                })
            },
            |ops: &Vec<Op>| {
                let mut wheel: TimerWheel<u32> = TimerWheel::new();
                let mut heap: HeapQueue<u32> = HeapQueue::new();
                let mut wheel_order = Vec::new();
                let mut heap_order = Vec::new();
                // Mirror the scheduler: a shared clock that follows pops
                // and clamps pushes into the past up to `now`.
                let mut now = 0u64;
                let mut seq = 0u64;
                let mut id = 0u32;
                for op in ops {
                    for _ in 0..op.pops {
                        let w = wheel.pop().map(|e| (e.at, e.seq, e.ev));
                        let h = heap.pop();
                        prop_assert_eq!(
                            w.as_ref().map(|e| (e.0, e.1)),
                            h.as_ref().map(|e| (e.0, e.1)),
                            "pop mismatch"
                        );
                        if let Some((at, s, ev)) = w {
                            now = now.max(at);
                            wheel_order.push((at, s, ev));
                        }
                        if let Some(e) = h {
                            heap_order.push(e);
                        }
                    }
                    // Even deltas push into the future; odd deltas aim into
                    // the past and get clamped to `now`, exactly like
                    // `Scheduler::schedule_at` clamps past events.
                    let at = if op.delta % 2 == 0 {
                        now.saturating_add(op.delta)
                    } else {
                        now.saturating_sub(op.delta).max(now)
                    };
                    seq += 1;
                    id += 1;
                    wheel.push(at, seq, id);
                    heap.push(at, seq, id);
                    // Same-instant burst half the time.
                    if op.pops == 0 {
                        seq += 1;
                        id += 1;
                        wheel.push(at, seq, id);
                        heap.push(at, seq, id);
                    }
                }
                // Drain both completely.
                while let Some(e) = wheel.pop() {
                    wheel_order.push((e.at, e.seq, e.ev));
                }
                while let Some(e) = heap.pop() {
                    heap_order.push(e);
                }
                prop_assert_eq!(&wheel_order, &heap_order, "drain order diverged");
                prop_assert_eq!(wheel.len(), 0, "wheel len accounting");
                Ok(())
            }
        );
    }
}
