//! Calendar-queue event scheduling for the event-driven engines.
//!
//! The async latency engines ([`crate::async_engine`]) are discrete-event
//! simulations: every in-flight message is one timed event, and at the
//! million-node scale the in-flight population peaks in the millions. A
//! single `BinaryHeap` holding all of them costs `O(log n)` per operation
//! on an ever-colder working set and doubles its backing storage at the
//! worst possible moment. This module replaces it with a classic calendar
//! queue ([`CalendarQueue`]) plus an explicit event budget surfaced through
//! [`SchedConfig`]:
//!
//! * **Near-future events** live in a ring of [`SchedConfig::num_buckets`]
//!   fixed-width time buckets ("days" of width [`SchedConfig::bucket_width`]
//!   simulated-time units). Insertion into a bucket is an `O(1)` append to
//!   the bucket's last storage chunk; chunks are fixed-size and drawn from
//!   one pool shared by every bucket.
//! * **The current day** is sorted once, when the cursor reaches it: its
//!   bucket's events move into one retained run, `sort_unstable`d by
//!   `(time, seq)` with the earliest last, and draining the run is a
//!   `Vec::pop` — the ladder-queue refinement (Tang, Goh & Thng, ACM TOMACS
//!   2005) of Brown's calendar queue (CACM 1988). Same-day insertions made
//!   *while* the day is being drained (zero or sub-bucket delays, overflow
//!   migration) go to a small *late heap* instead; `pop` takes the earlier
//!   of the run's tail and the heap's top, so events within one bucket pop
//!   in exactly the order the global heap would have produced — ascending
//!   time, ties broken by ascending insertion sequence (FIFO).
//! * **Far-future events** — beyond the sliding window the bucket ring
//!   covers — spill into a heap-ordered overflow tier and migrate into the
//!   ring as the window advances past them, paying `O(log overflow)` only
//!   for the heavy tail of the delay distribution.
//!
//! # Pop-order equivalence
//!
//! The scheduler's contract is that [`CalendarQueue::pop`] yields the exact
//! `(time, seq)`-ascending stream a `BinaryHeap` over the same insertions
//! yields (the test-only `hybridcast-oracle` crate retains that heap as the
//! differential-test oracle and the benchmark comparator). The argument: every resident event lives
//! in exactly one tier; the sorted run and the late heap together hold
//! precisely the events of the earliest non-empty day, each is ordered by
//! `(time, seq)`, and `pop` takes the earlier of their two fronts; every
//! event in a later bucket or in the overflow tier has a strictly later day
//! and therefore a strictly greater time than everything in the current day
//! (`floor(t / width)` is monotone); and insertions never predate the
//! cursor because simulated delays are non-negative. `(time, seq)` pairs
//! are unique, so *how* a day is ordered — one sort, a heap, or both merged
//! — cannot show in the stream. `crates/core/tests/` pins this with
//! differential tests over random interleavings, equal-timestamp bursts,
//! bucket-boundary times, far-future spills and days of several chunks, and
//! it is why the engines' reports do not depend on the queue behind them:
//! identical pop order means identical RNG draw order means identical
//! everything. See docs/DETERMINISM.md.
//!
//! # Memory
//!
//! All storage — the chunk pool, the bucket spines, the day run, the late
//! heap, the overflow heap — is retained across [`CalendarQueue::reset`],
//! so a warm re-run performs no allocation (pinned by
//! `tests/zero_alloc.rs`). A day's chunks return to the pool the moment the
//! day becomes current and serve whichever bucket fills next, so resident
//! storage follows the queue-wide high-water mark — plus at most one
//! partly filled chunk per bucket and one day's run — not the sum of every
//! bucket's own peak ([`CalendarQueue::resident_bytes`] has the bound). The
//! resident event count is capped by [`SchedConfig::event_budget`]: the
//! engines stop scheduling (and flag the run truncated) rather than grow
//! past it, which is what lets `scale_smoke` gate a million-node run under
//! a fixed memory budget.

// D3: index casts go through `hybridcast_graph::cast`; tests are exempt.
#![cfg_attr(
    not(test),
    deny(clippy::cast_possible_truncation, clippy::cast_sign_loss)
)]

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::mem::size_of;

use hybridcast_graph::cast::idx_u64;

/// Configuration of the calendar event queue, carried by
/// [`crate::async_engine::AsyncConfig::sched`].
///
/// The default configuration (`bucket_width` auto, 512 buckets, unbounded
/// budget) reproduces the pre-calendar engines bit for bit — the scheduler
/// only changes *where* events wait, never the order they pop in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedConfig {
    /// Width of one calendar bucket in simulated-time units. `0.0` (the
    /// default) derives a width from the run's mean forwarding delay so
    /// that the bucket ring spans roughly four mean delays — the window
    /// the bulk of the in-flight population lives in.
    pub bucket_width: f64,
    /// Number of fixed-width buckets in the sliding calendar window.
    pub num_buckets: usize,
    /// Hard cap on simultaneously queued dissemination deliveries — the
    /// scheduler's event memory budget: about `event_budget ×`
    /// [`CalendarQueue::event_footprint`] bytes of resident storage, plus
    /// one day's run and one storage chunk per bucket
    /// ([`CalendarQueue::resident_bytes`]).
    /// `0` means unbounded. When the cap is hit, a forward that survived
    /// the network model is *not* scheduled: the engines count it in
    /// `truncated_sends` and set the report's `truncated` flag instead of
    /// growing the queue.
    pub event_budget: usize,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            bucket_width: 0.0,
            num_buckets: 512,
            event_budget: 0,
        }
    }
}

impl SchedConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns an error if the bucket width is negative or non-finite, or
    /// the bucket count is zero.
    pub fn validate(&self) -> Result<(), String> {
        if !self.bucket_width.is_finite() || self.bucket_width < 0.0 {
            return Err("scheduler bucket width must be finite and non-negative".into());
        }
        if self.num_buckets == 0 {
            return Err("scheduler needs at least one calendar bucket".into());
        }
        Ok(())
    }

    /// The bucket width a run should use: the explicit
    /// [`SchedConfig::bucket_width`] if set, otherwise a width derived so
    /// the bucket ring spans four mean forwarding delays (falling back to
    /// the gossip period when the forwarding delay is zero).
    ///
    /// The choice is a pure performance knob — pop order, and therefore
    /// every engine report, is identical for any positive width.
    pub fn resolved_width(&self, forwarding_delay: f64, gossip_period: f64) -> f64 {
        if self.bucket_width > 0.0 {
            return self.bucket_width;
        }
        let base = if forwarding_delay > 0.0 {
            forwarding_delay
        } else {
            gossip_period
        };
        (base * 4.0 / self.num_buckets as f64).max(f64::MIN_POSITIVE)
    }

    /// `true` if scheduling one more event on top of `queued` already
    /// resident ones would exceed the event budget.
    pub fn budget_exhausted(&self, queued: usize) -> bool {
        self.event_budget != 0 && queued >= self.event_budget
    }
}

/// One scheduled entry: a payload tagged with its due time and the strictly
/// increasing per-queue insertion sequence number that breaks time ties.
///
/// The ordering implementations compare `(time, seq)` only — reversed, so
/// a max-`BinaryHeap` of `Scheduled` values pops earliest-first — and
/// deliberately ignore the payload, freeing payload types from `Ord`.
#[derive(Debug, Clone, Copy)]
pub struct Scheduled<T> {
    /// Simulated time the event is due.
    pub time: f64,
    /// Insertion sequence number (1-based, unique within one queue run).
    pub seq: u64,
    /// The event itself.
    pub payload: T,
}

impl<T> PartialEq for Scheduled<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time.total_cmp(&other.time) == Ordering::Equal && self.seq == other.seq
    }
}

impl<T> Eq for Scheduled<T> {}

impl<T> Ord for Scheduled<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, the queues want the earliest
        // (time, seq) first.
        other
            .time
            .total_cmp(&self.time)
            .then(other.seq.cmp(&self.seq))
    }
}

impl<T> PartialOrd for Scheduled<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Events per storage chunk of the bucket ring. Fixed: the chunk size is
/// not a tuning knob — it only sets the granularity of the slack term in
/// [`CalendarQueue::resident_bytes`]' bound (one partial chunk per bucket).
const CHUNK: usize = 512;

/// A calendar/ladder event queue: `O(1)` insertion for the near future, one
/// sort per day for exact pop order, a heap-ordered overflow tier for the
/// far future. See the module docs for the design and the equivalence
/// argument.
///
/// # Contract
///
/// Pushed times must be finite, non-negative, and no earlier than the last
/// popped event's time (a discrete-event simulation with non-negative
/// delays satisfies this by construction). Within that contract,
/// [`CalendarQueue::pop`] yields exactly the `(time, seq)`-ascending
/// stream a `BinaryHeap` of [`Scheduled`] entries yields for the same
/// pushes.
///
/// # Example
///
/// ```
/// use hybridcast_core::sched::CalendarQueue;
///
/// let mut queue: CalendarQueue<&str> = CalendarQueue::new(0.5, 8);
/// queue.push(3.7, "late");
/// queue.push(0.2, "early");
/// queue.push(0.2, "early-tie"); // same time: FIFO via the seq tie-break
/// queue.push(40.0, "far-future"); // beyond the 8-bucket window: overflow
/// let order: Vec<&str> = std::iter::from_fn(|| queue.pop().map(|e| e.payload)).collect();
/// assert_eq!(order, ["early", "early-tie", "late", "far-future"]);
/// ```
#[derive(Debug, Clone)]
pub struct CalendarQueue<T> {
    /// Bucket width in simulated-time units; day `d` covers
    /// `[d * width, (d + 1) * width)`.
    width: f64,
    /// The bucket ring: slot `d % num_days` holds the events of day `d`
    /// for days inside the sliding window `[cur_day, cur_day + num_days)`,
    /// as a list of [`CHUNK`]-event chunks of which only the last may be
    /// partly filled.
    buckets: Vec<Vec<Vec<Scheduled<T>>>>,
    /// Ring length, pre-widened for day arithmetic.
    num_days: u64,
    /// Empty chunks, shared by every bucket: a day's chunks return here
    /// when the day becomes current and are handed to whichever bucket
    /// fills up next.
    pool: Vec<Vec<Scheduled<T>>>,
    /// Chunks this queue has allocated; the pool's spine is kept at least
    /// this long so returning chunks never allocates.
    chunks: usize,
    /// The current day's run: the events its bucket held when the cursor
    /// reached it, sorted once, earliest last.
    day: Vec<Scheduled<T>>,
    /// The late heap: events pushed *into* the current day while it is
    /// being drained (zero and sub-bucket delays, overflow migration),
    /// ordered by `(time, seq)`.
    cur: BinaryHeap<Scheduled<T>>,
    /// Far-future tier: events whose day lies at or beyond the window end,
    /// heap-ordered so the earliest migrates first.
    overflow: BinaryHeap<Scheduled<T>>,
    /// The day the cursor is on; only ever advances.
    cur_day: u64,
    /// Events resident in `buckets` (excludes `day`, `cur` and `overflow`).
    in_window: usize,
    /// Total resident events across all tiers.
    len: usize,
    /// Insertion sequence counter.
    seq: u64,
    /// Largest `len` observed since the last reset.
    high_water: usize,
    /// Largest overflow-tier length observed since the last reset.
    overflow_high_water: usize,
}

impl<T> Default for CalendarQueue<T> {
    /// A minimal one-bucket queue (degenerates to a plain heap); callers
    /// that know their run's time scale should [`CalendarQueue::reset`]
    /// with a real geometry before use.
    fn default() -> Self {
        Self::new(1.0, 1)
    }
}

impl<T> CalendarQueue<T> {
    /// Creates an empty queue with the given bucket width and ring length.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not a positive finite number or `num_buckets`
    /// is zero.
    pub fn new(width: f64, num_buckets: usize) -> Self {
        let mut queue = CalendarQueue {
            width: 1.0,
            buckets: Vec::new(),
            num_days: 1,
            pool: Vec::new(),
            chunks: 0,
            day: Vec::new(),
            cur: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
            cur_day: 0,
            in_window: 0,
            len: 0,
            seq: 0,
            high_water: 0,
            overflow_high_water: 0,
        };
        queue.reset(width, num_buckets);
        queue
    }

    /// Empties the queue and reconfigures its geometry, retaining every
    /// backing allocation — the chunk pool, the day run, both heaps and the
    /// bucket spines: a warm re-run with the same geometry and the same
    /// event volume performs no heap allocation.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not a positive finite number or `num_buckets`
    /// is zero.
    pub fn reset(&mut self, width: f64, num_buckets: usize) {
        assert!(
            width.is_finite() && width > 0.0,
            "calendar bucket width must be a positive finite number"
        );
        assert!(num_buckets > 0, "calendar queue needs at least one bucket");
        self.width = width;
        self.num_days = u64::try_from(num_buckets).expect("bucket count fits u64");
        for bucket in &mut self.buckets {
            for mut chunk in bucket.drain(..) {
                chunk.clear();
                self.pool.push(chunk);
            }
        }
        self.buckets.resize_with(num_buckets, Vec::new);
        self.day.clear();
        self.cur.clear();
        self.overflow.clear();
        self.cur_day = 0;
        self.in_window = 0;
        self.len = 0;
        self.seq = 0;
        self.high_water = 0;
        self.overflow_high_water = 0;
    }

    /// Number of resident events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no events are resident.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Largest resident event count observed since the last reset — the
    /// in-flight message high-water mark the scale gates report.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Largest overflow-tier population observed since the last reset:
    /// how hard the delay distribution's tail exercised the spill path.
    pub fn overflow_high_water(&self) -> usize {
        self.overflow_high_water
    }

    /// Bytes of one resident event, the unit [`SchedConfig::event_budget`]
    /// is denominated in.
    pub const fn event_footprint() -> usize {
        size_of::<Scheduled<T>>()
    }

    /// Resident storage of the queue in bytes: the retained capacity of
    /// every tier — all chunks, pooled or in a bucket, the day run and both
    /// heaps — times the per-event footprint, plus the spines (bucket ring,
    /// per-bucket chunk lists, pool).
    ///
    /// With `H` the largest [`CalendarQueue::high_water`] of any run so
    /// far, `D` the largest single day and `B` the bucket count, the event
    /// storage is at most `(H + D + B × 512) × event_footprint()` plus the
    /// two heaps at up to twice their own peaks (vector doubling): chunks
    /// are shared through the pool, so there are never more than `H / 512`
    /// full ones and one partly filled one per bucket, and the day run is
    /// sized to the largest day. Under the auto geometry a day is a few
    /// percent of the in-flight population and nothing reaches the heaps,
    /// which leaves a budget-capped queue close to
    /// `event_budget × event_footprint()`.
    pub fn resident_bytes(&self) -> usize {
        let chunk_capacity =
            |chunks: &Vec<Vec<Scheduled<T>>>| -> usize { chunks.iter().map(Vec::capacity).sum() };
        let events = self.day.capacity()
            + self.cur.capacity()
            + self.overflow.capacity()
            + chunk_capacity(&self.pool)
            + self.buckets.iter().map(chunk_capacity).sum::<usize>();
        events * Self::event_footprint() + self.spine_bytes()
    }

    /// The part of [`CalendarQueue::resident_bytes`] that holds no events:
    /// the bucket ring, the per-bucket chunk lists and the pool's spine.
    fn spine_bytes(&self) -> usize {
        let chunk_lists = self.pool.capacity()
            + self
                .buckets
                .iter()
                .map(|bucket| bucket.capacity())
                .sum::<usize>();
        self.buckets.capacity() * size_of::<Vec<Vec<Scheduled<T>>>>()
            + chunk_lists * size_of::<Vec<Scheduled<T>>>()
    }

    /// The day (bucket ordinal) a timestamp falls in. Saturating: stray
    /// out-of-range values collapse to the ends without wrapping.
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "the saturating float-to-int cast is the clamp this function documents"
    )]
    fn day_of(&self, time: f64) -> u64 {
        (time / self.width) as u64
    }

    /// Appends `event` to the bucket of in-window day `day`, taking a chunk
    /// from the pool (or, with the pool empty, the allocator) when the
    /// bucket's last one is full.
    fn push_in_window(&mut self, day: u64, event: Scheduled<T>) {
        let bucket = &mut self.buckets[idx_u64(day % self.num_days)];
        match bucket.last_mut() {
            Some(chunk) if chunk.len() < CHUNK => chunk.push(event),
            _ => {
                let mut chunk = self.pool.pop().unwrap_or_else(|| {
                    self.chunks += 1;
                    // The pool is empty here: room for every chunk.
                    self.pool.reserve(self.chunks);
                    Vec::with_capacity(CHUNK)
                });
                chunk.push(event);
                bucket.push(chunk);
            }
        }
        self.in_window += 1;
    }

    /// Schedules `payload` at `time`, assigning the next sequence number.
    pub fn push(&mut self, time: f64, payload: T) {
        self.seq += 1;
        let event = Scheduled {
            time,
            seq: self.seq,
            payload,
        };
        let day = self.day_of(time);
        debug_assert!(
            day >= self.cur_day || self.len == 0,
            "pushed time {time} predates the cursor day {}",
            self.cur_day
        );
        if day <= self.cur_day {
            self.cur.push(event);
        } else if day < self.cur_day.saturating_add(self.num_days) {
            self.push_in_window(day, event);
        } else {
            self.overflow.push(event);
            if self.overflow.len() > self.overflow_high_water {
                self.overflow_high_water = self.overflow.len();
            }
        }
        self.len += 1;
        if self.len > self.high_water {
            self.high_water = self.len;
        }
    }

    /// Removes and returns the earliest `(time, seq)` event, or `None` if
    /// the queue is empty.
    pub fn pop(&mut self) -> Option<Scheduled<T>> {
        loop {
            // The current day's earliest event is the earlier of the sorted
            // run's tail and the late heap's top. `Scheduled`'s ordering is
            // reversed, so the greater of the two pops first.
            let event = match (self.day.last(), self.cur.peek()) {
                (Some(sorted), Some(late)) if late > sorted => self.cur.pop(),
                (Some(_), _) => self.day.pop(),
                (None, Some(_)) => self.cur.pop(),
                (None, None) => {
                    if self.len == 0 {
                        return None;
                    }
                    self.advance();
                    continue;
                }
            };
            self.len -= 1;
            return event;
        }
    }

    /// Moves the cursor towards the next non-empty day: one step when the
    /// window still holds events (an `O(1)` bucket check), or a direct
    /// jump to the overflow tier's earliest day when it does not.
    fn advance(&mut self) {
        debug_assert!(self.day.is_empty() && self.cur.is_empty() && self.len > 0);
        if self.in_window == 0 {
            let front = self.overflow.peek().expect("a non-empty queue has a front");
            let day = self.day_of(front.time);
            self.cur_day = self.cur_day.max(day);
        } else {
            self.cur_day += 1;
        }
        self.prime_overflow();
        self.load_current_bucket();
    }

    /// Migrates overflow events whose day has entered the sliding window:
    /// into the late heap directly, or into their bucket. The heap order of
    /// the tier makes this an exact prefix extraction.
    fn prime_overflow(&mut self) {
        let window_end = self.cur_day.saturating_add(self.num_days);
        while let Some(front) = self.overflow.peek() {
            let day = self.day_of(front.time);
            if day >= window_end {
                break;
            }
            let event = self.overflow.pop().expect("peeked");
            if day <= self.cur_day {
                self.cur.push(event);
            } else {
                self.push_in_window(day, event);
            }
        }
    }

    /// Moves the current day's bucket into the day run, returns its chunks
    /// to the pool and sorts the run once — earliest last, so draining it
    /// is a `Vec::pop`.
    fn load_current_bucket(&mut self) {
        let bucket = &mut self.buckets[idx_u64(self.cur_day % self.num_days)];
        let held: usize = bucket.iter().map(Vec::len).sum();
        // Exact, not amortised: the run stays as large as the largest day.
        self.day.reserve_exact(held);
        for mut chunk in bucket.drain(..) {
            self.day.append(&mut chunk);
            self.pool.push(chunk);
        }
        self.in_window -= held;
        self.day.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<T>(queue: &mut CalendarQueue<T>) -> Vec<(f64, u64)> {
        std::iter::from_fn(|| queue.pop().map(|e| (e.time, e.seq))).collect()
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut queue: CalendarQueue<u32> = CalendarQueue::new(0.25, 16);
        for (i, t) in [3.0, 0.5, 0.5, 2.75, 0.0, 3.0].into_iter().enumerate() {
            queue.push(t, i as u32);
        }
        assert_eq!(
            drain(&mut queue),
            vec![(0.0, 5), (0.5, 2), (0.5, 3), (2.75, 4), (3.0, 1), (3.0, 6)]
        );
        assert_eq!(queue.high_water(), 6);
    }

    #[test]
    fn equal_timestamp_bursts_are_fifo() {
        let mut queue: CalendarQueue<usize> = CalendarQueue::new(1.0, 4);
        for i in 0..100 {
            queue.push(1.5, i);
        }
        let order: Vec<usize> = std::iter::from_fn(|| queue.pop().map(|e| e.payload)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn bucket_boundary_times_stay_ordered() {
        // Events exactly on a bucket boundary belong to the *next* day;
        // events one ULP below stay in the earlier one. Order must hold.
        let width = 0.5;
        let mut queue: CalendarQueue<&str> = CalendarQueue::new(width, 8);
        let boundary = 3.0 * width;
        queue.push(boundary, "on-boundary");
        queue.push(f64::from_bits(boundary.to_bits() - 1), "just-below");
        queue.push(boundary + f64::MIN_POSITIVE, "just-above");
        let order: Vec<&str> = std::iter::from_fn(|| queue.pop().map(|e| e.payload)).collect();
        assert_eq!(order, ["just-below", "on-boundary", "just-above"]);
    }

    #[test]
    fn far_future_events_spill_to_overflow_and_come_back() {
        let mut queue: CalendarQueue<u32> = CalendarQueue::new(1.0, 4);
        // Window at day 0 covers [0, 4); these two overflow.
        queue.push(17.0, 1);
        queue.push(9.5, 2);
        assert_eq!(queue.overflow_high_water(), 2);
        queue.push(0.5, 3);
        assert_eq!(
            drain(&mut queue),
            vec![(0.5, 3), (9.5, 2), (17.0, 1)],
            "overflow events must migrate back in time order"
        );
    }

    #[test]
    fn same_day_insertions_during_drain_merge_into_the_current_heap() {
        // A zero-delay forward lands on the day being drained and must pop
        // after the event that spawned it but before later times.
        let mut queue: CalendarQueue<&str> = CalendarQueue::new(1.0, 8);
        queue.push(0.25, "first");
        queue.push(0.75, "third");
        let first = queue.pop().expect("non-empty");
        assert_eq!(first.payload, "first");
        queue.push(0.25, "second-zero-delay");
        let order: Vec<&str> = std::iter::from_fn(|| queue.pop().map(|e| e.payload)).collect();
        assert_eq!(order, ["second-zero-delay", "third"]);
    }

    #[test]
    fn window_slides_without_losing_mid_range_events() {
        // An event 5 days out of a 4-day window overflows; by the time the
        // cursor reaches its day it must have migrated into the ring.
        let mut queue: CalendarQueue<u32> = CalendarQueue::new(1.0, 4);
        queue.push(0.5, 0);
        queue.push(5.5, 1); // overflow at insert time
        queue.push(2.5, 2); // in-window
        assert_eq!(drain(&mut queue), vec![(0.5, 1), (2.5, 3), (5.5, 2)]);
    }

    #[test]
    fn reset_reuses_storage_and_restarts_sequences() {
        let mut queue: CalendarQueue<u32> = CalendarQueue::new(0.5, 8);
        for i in 0..50 {
            queue.push(i as f64 * 0.3, i);
        }
        while queue.pop().is_some() {}
        queue.reset(0.5, 8);
        assert!(queue.is_empty());
        assert_eq!(queue.high_water(), 0);
        queue.push(1.0, 7);
        let event = queue.pop().expect("non-empty");
        assert_eq!((event.time, event.seq, event.payload), (1.0, 1, 7));
    }

    #[test]
    fn resident_storage_follows_the_high_water_mark_not_the_per_bucket_peaks() {
        // A travelling wave: each step schedules one burst `LEAD` days
        // ahead and drains the oldest day, so all 64 ring slots peak at
        // `BURST` events, each in its own turn, while never more than
        // `LEAD + 1` bursts are resident. Per-slot retained vectors would
        // end up holding 64 bursts (7x the high-water mark, more after
        // capacity doubling); pooled chunks hold the high-water mark.
        const NUM_BUCKETS: usize = 64;
        const LEAD: usize = 8;
        const BURST: usize = 40 * CHUNK + 17;
        let mut queue: CalendarQueue<u32> = CalendarQueue::new(1.0, NUM_BUCKETS);
        let mut popped = 0usize;
        for step in 0..3 * NUM_BUCKETS {
            let day = (step + LEAD) as f64;
            for i in 0..BURST {
                // Descending within the day: the sort has work to do.
                queue.push(day + (BURST - i) as f64 / (BURST + 1) as f64, 0);
            }
            while queue.len() > LEAD * BURST {
                queue.pop().expect("non-empty");
                popped += 1;
            }
        }
        assert_eq!(popped, (3 * NUM_BUCKETS - LEAD) * BURST);
        let high_water = queue.high_water();
        assert_eq!(high_water, (LEAD + 1) * BURST);

        let footprint = CalendarQueue::<u32>::event_footprint();
        let resident = queue.resident_bytes();
        // Chunks for the high-water population, one partial chunk per
        // bucket; the day run (one burst) fits into the slack the mostly
        // empty ring leaves of that second term.
        assert!(
            resident <= (high_water + (NUM_BUCKETS + 2) * CHUNK) * footprint + queue.spine_bytes(),
            "resident {resident} bytes ({} events) at high water {high_water}",
            resident / footprint
        );
        assert!(resident >= high_water * footprint, "storage for the peak");

        // All of it is retained across a reset, none of it grows on a
        // repeat of the same run.
        queue.reset(1.0, NUM_BUCKETS);
        assert_eq!(queue.resident_bytes(), resident);
    }

    #[test]
    fn budget_helper_semantics() {
        let config = SchedConfig {
            event_budget: 4,
            ..SchedConfig::default()
        };
        assert!(!config.budget_exhausted(3));
        assert!(config.budget_exhausted(4));
        assert!(config.budget_exhausted(5));
        let unbounded = SchedConfig::default();
        assert!(!unbounded.budget_exhausted(usize::MAX));
    }

    #[test]
    fn sched_config_validation() {
        assert!(SchedConfig::default().validate().is_ok());
        assert!(SchedConfig {
            bucket_width: -1.0,
            ..SchedConfig::default()
        }
        .validate()
        .is_err());
        assert!(SchedConfig {
            bucket_width: f64::NAN,
            ..SchedConfig::default()
        }
        .validate()
        .is_err());
        assert!(SchedConfig {
            num_buckets: 0,
            ..SchedConfig::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn resolved_width_scales_with_the_forwarding_delay() {
        let config = SchedConfig::default();
        let width = config.resolved_width(1.0, 10.0);
        assert!((width - 4.0 / 512.0).abs() < 1e-12);
        // Zero forwarding delay falls back to the gossip period.
        let width = config.resolved_width(0.0, 10.0);
        assert!((width - 40.0 / 512.0).abs() < 1e-12);
        // An explicit width wins.
        let explicit = SchedConfig {
            bucket_width: 0.25,
            ..SchedConfig::default()
        };
        assert_eq!(explicit.resolved_width(1.0, 10.0), 0.25);
    }
}
