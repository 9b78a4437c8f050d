//! Differential property tests pinning the calendar queue to the retained
//! `BinaryHeap` oracle it replaced.
//!
//! The scheduler's whole contract is pop-order equivalence: for any push
//! sequence a discrete-event simulation can produce (times never earlier
//! than the last pop — delays are non-negative), [`CalendarQueue`] must
//! yield exactly the stream [`HeapQueue`] yields. Every push carries its
//! unique push index as payload, so comparing `(time bits, payload)` pins
//! the insertion-order tie-break as well as the times. These tests drive
//! both queues through the same randomized workloads — arbitrary
//! insert/pop interleavings, equal-timestamp bursts, times on and one ULP
//! below bucket boundaries, and far-future spills through the overflow
//! tier — across randomized bucket geometries, and assert the streams stay
//! identical element for element; fixed workloads cover the cases the
//! calendar queue's sequence-free ordering argument rests on. The
//! `PROPTEST_CASES=256` CI job runs the property tests at depth.

use proptest::prelude::*;

use hybridcast_core::sched::{CalendarQueue, Scheduled};
use hybridcast_oracle::HeapQueue;

/// One step of a differential workload: maybe pop, then push a delay of the
/// given kind scaled by `magnitude`. See [`delay_of`] for the kinds.
#[derive(Debug, Clone, Copy)]
struct Op {
    pop: bool,
    kind: u8,
    magnitude: u16,
}

/// The delay a workload step schedules ahead of the current clock. Kinds
/// cover the heap-vs-calendar edge cases: exact ties, sub-bucket jitter,
/// times exactly on bucket boundaries, one-ULP-below-boundary times, and
/// far-future tail delays that overshoot the bucket window.
fn delay_of(kind: u8, magnitude: u16, width: f64) -> f64 {
    let m = f64::from(magnitude);
    match kind {
        0 => 0.0,
        1 => m * width / 64.0,
        2 => m * width,
        3 => {
            // One ULP below a bucket boundary: the largest time still
            // belonging to the earlier day.
            let boundary = (m + 1.0) * width;
            f64::from_bits(boundary.to_bits() - 1)
        }
        _ => m * width * 200.0,
    }
}

/// Both queues driven in lockstep: every push goes to both, every pop is
/// asserted equal and advances the clock.
struct Lockstep {
    calendar: CalendarQueue<u32>,
    oracle: HeapQueue<u32>,
    clock: f64,
    pushed: u32,
    /// Multiplicative-congruential state for reproducible sub-day offsets.
    state: u64,
}

impl Lockstep {
    fn new(width: f64, num_buckets: usize) -> Self {
        Lockstep {
            calendar: CalendarQueue::new(width, num_buckets),
            oracle: HeapQueue::new(),
            clock: 0.0,
            pushed: 0,
            state: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Same geometry change on the calendar queue, a plain reset of the
    /// oracle.
    fn reset(&mut self, width: f64, num_buckets: usize) {
        self.calendar.reset(width, num_buckets);
        self.oracle.reset();
        self.clock = 0.0;
        self.pushed = 0;
    }

    /// A reproducible fraction in `[0, 1)` on a 1/64 grid, so equal times
    /// (seq tie-breaks) occur within every few dozen draws.
    fn fraction(&mut self) -> f64 {
        self.state = self
            .state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.state >> 58) as f64 / 64.0
    }

    fn push(&mut self, time: f64) {
        self.calendar.push(time, self.pushed);
        self.oracle.push(time, self.pushed);
        self.pushed += 1;
        assert_eq!(self.calendar.len(), self.oracle.len());
    }

    /// Pushes `count` events spread over `[day_start, day_start + span)`.
    fn push_spread(&mut self, count: usize, day_start: f64, span: f64) {
        for _ in 0..count {
            let time = day_start + self.fraction() * span;
            self.push(time);
        }
    }

    /// Pops both queues until the clock reaches `time`, or both are empty.
    fn pop_until(&mut self, time: f64) {
        while self.clock < time && self.pop() {}
    }

    /// Pops both queues, asserts the events match, returns `false` once
    /// both are empty.
    fn pop(&mut self) -> bool {
        match (self.calendar.pop(), self.oracle.pop()) {
            (Some(a), Some(b)) => {
                assert_eq!(
                    (a.time.to_bits(), a.payload),
                    (b.time.to_bits(), b.payload),
                    "divergence after {} pushes at clock {}",
                    self.pushed,
                    self.clock
                );
                assert!(a.time >= self.clock, "time went backwards");
                self.clock = a.time;
                true
            }
            (None, None) => false,
            other => panic!("one queue emptied before the other: {other:?}"),
        }
    }

    fn drain(&mut self) {
        while self.pop() {}
        assert_eq!(self.calendar.high_water(), self.oracle.high_water());
        assert!(self.calendar.is_empty() && self.oracle.is_empty());
    }
}

/// Runs `ops` through both queues in lockstep, asserting every popped
/// `(time bits, payload)` pair matches; then drains both queues and
/// asserts the tails match too.
fn assert_equivalent(width: f64, num_buckets: usize, ops: &[Op]) {
    let mut pair = Lockstep::new(width, num_buckets);
    for op in ops {
        if op.pop {
            pair.pop();
        }
        pair.push(pair.clock + delay_of(op.kind, op.magnitude, width));
    }
    pair.drain();
}

/// Maps the raw generated triples onto workload steps, reducing the kind
/// selector into the given set of delay kinds.
fn ops_from(raw: &[(bool, u8, u16)], kinds: &[u8]) -> Vec<Op> {
    raw.iter()
        .map(|&(pop, kind_sel, magnitude)| Op {
            pop,
            kind: kinds[usize::from(kind_sel) % kinds.len()],
            magnitude,
        })
        .collect()
}

proptest! {
    /// Arbitrary insert/pop interleavings over arbitrary geometries.
    #[test]
    fn random_interleavings_match_the_heap_oracle(
        raw in prop::collection::vec((any::<bool>(), 0u8..255, 0u16..512), 1..250),
        width_scale in 1u32..2000,
        num_buckets in 1usize..96,
    ) {
        let width = f64::from(width_scale) / 500.0;
        let ops = ops_from(&raw, &[0, 1, 2, 3, 4]);
        assert_equivalent(width, num_buckets, &ops);
    }

    /// Bursts of equal timestamps must pop FIFO (by insertion sequence) in
    /// both queues — the tie-break contract the engines' determinism rests
    /// on.
    #[test]
    fn equal_timestamp_bursts_match_the_heap_oracle(
        bursts in prop::collection::vec((0u16..4, 1usize..40), 1..20),
        num_buckets in 1usize..32,
    ) {
        let width = 0.75;
        let mut ops = Vec::new();
        for &(offset, burst_len) in &bursts {
            ops.push(Op { pop: true, kind: 2, magnitude: offset });
            for _ in 0..burst_len {
                // Zero delay: lands exactly on the current clock.
                ops.push(Op { pop: false, kind: 0, magnitude: 0 });
            }
        }
        assert_equivalent(width, num_buckets, &ops);
    }

    /// Times exactly on and one ULP below bucket boundaries: day
    /// assignment must never reorder events across the boundary.
    #[test]
    fn bucket_boundary_times_match_the_heap_oracle(
        raw in prop::collection::vec((any::<bool>(), 0u8..255, 0u16..64), 1..200),
        num_buckets in 1usize..48,
    ) {
        let ops = ops_from(&raw, &[2, 3]);
        assert_equivalent(0.125, num_buckets, &ops);
    }

    /// Far-future delays overshoot the bucket window and take the overflow
    /// tier; migration back into the window must preserve the stream.
    #[test]
    fn far_future_spills_match_the_heap_oracle(
        raw in prop::collection::vec((any::<bool>(), 0u8..255, 1u16..256), 1..200),
        num_buckets in 1usize..16,
    ) {
        // Two in-window kinds for every spill kind keeps the workload mixed.
        let ops = ops_from(&raw, &[1, 1, 4]);
        assert_equivalent(0.05, num_buckets, &ops);
    }
}

#[test]
fn overflow_tier_is_actually_exercised_by_the_spill_workload() {
    // Sanity-check the far-future strategy: kind-4 delays with this
    // geometry must route through the overflow tier, so the proptest above
    // genuinely covers the spill path.
    let width = 0.05;
    let mut queue: CalendarQueue<u32> = CalendarQueue::new(width, 16);
    queue.push(delay_of(4, 3, width), 0);
    assert!(queue.overflow_high_water() > 0, "spill path not taken");
    let Scheduled { payload, .. } = queue.pop().expect("non-empty");
    assert_eq!(payload, 0);
}

#[test]
fn single_day_populations_around_the_chunk_size_match_the_heap_oracle() {
    // One day holding one event less than, exactly, one more than and
    // several times a 512-event storage chunk, reached through the bucket
    // ring (day 3 of an 8-day window) behind an earlier day.
    for count in [511usize, 512, 513, 3 * 512 + 7] {
        let mut pair = Lockstep::new(1.0, 8);
        pair.push(0.5);
        pair.push_spread(count, 3.0, 1.0);
        pair.push(4.25);
        pair.drain();
        assert_eq!(pair.calendar.high_water(), count + 2, "population {count}");
    }
}

#[test]
fn same_day_pushes_interleaved_with_pops_of_a_multi_chunk_day() {
    // A 2,000-event day is drained while every third pop schedules a
    // sub-bucket delay (lands on the day being drained), every seventh a
    // zero delay (ties with the event just popped) and every fifth a delay
    // into a later day.
    let mut pair = Lockstep::new(1.0, 8);
    pair.push_spread(2_000, 2.0, 1.0);
    pair.push_spread(700, 3.0, 1.0);
    let mut step = 0u32;
    while pair.pop() {
        step += 1;
        if step > 6_000 {
            continue; // stop feeding, let both queues run dry
        }
        let clock = pair.clock;
        if step % 3 == 0 {
            let within_day = (clock.floor() + 1.0 - clock) * pair.fraction();
            pair.push(clock + within_day * 0.999);
        }
        if step % 7 == 0 {
            pair.push(clock);
        }
        if step % 5 == 0 {
            let ahead = 1.0 + pair.fraction() * 3.0;
            pair.push(clock + ahead);
        }
    }
    pair.drain();
    assert!(step > 2_700, "the interleaving must have fed the queues");
}

#[test]
fn overflow_migration_into_the_day_being_drained_matches_the_heap_oracle() {
    // A 4-day window: everything at day 50 overflows. Once day 0 is done
    // the ring is empty, the cursor jumps straight to day 50 and the
    // migrating events join the current day directly; later spills come
    // back while that day (and the ones after it) are being drained.
    let mut pair = Lockstep::new(1.0, 4);
    pair.push_spread(5, 0.0, 1.0);
    pair.push_spread(1_300, 50.0, 1.0);
    pair.push_spread(40, 51.0, 2.0);
    assert_eq!(pair.calendar.overflow_high_water(), 1_340);
    let mut step = 0u32;
    while pair.pop() {
        step += 1;
        if step > 4_000 {
            continue;
        }
        let clock = pair.clock;
        if step % 4 == 0 {
            // Same day as the event just popped.
            let within_day = (clock.floor() + 1.0 - clock) * pair.fraction();
            pair.push(clock + within_day * 0.999);
        }
        if step % 6 == 0 {
            // In-window future day.
            let ahead = 1.0 + pair.fraction();
            pair.push(clock + ahead);
        }
        if step % 9 == 0 {
            // Beyond the window: a fresh spill.
            let ahead = 4.0 + pair.fraction() * 30.0;
            pair.push(clock + ahead);
        }
    }
    pair.drain();
    assert!(pair.calendar.overflow_high_water() >= 1_340);
}

#[test]
fn reset_to_a_smaller_run_then_a_larger_one_matches_the_heap_oracle() {
    let mut pair = Lockstep::new(0.5, 16);
    pair.push_spread(3_000, 1.0, 6.0);
    pair.drain();

    // Smaller run, smaller ring, left half-drained.
    pair.reset(0.25, 4);
    pair.push_spread(90, 0.0, 3.0);
    for _ in 0..45 {
        assert!(pair.pop());
    }

    // Larger run over a larger ring than either before.
    pair.reset(0.125, 64);
    pair.push_spread(9_000, 0.5, 12.0);
    pair.push_spread(600, 100.0, 1.0);
    pair.drain();
    assert_eq!(pair.calendar.high_water(), 9_600);
}

#[test]
fn equal_times_through_overflow_then_direct_pushes_match_the_heap_oracle() {
    // A 4-day window stepping day by day: one event per day keeps the ring
    // non-empty, so the cursor never jumps. Day 10 first fills up in the
    // overflow tier with exact ties; the window reaches it while day 7 is
    // current and the batch migrates into its bucket; then direct pushes
    // at the very same times join the bucket behind the batch.
    let mut pair = Lockstep::new(1.0, 4);
    for day in 0..12 {
        pair.push(f64::from(day) + 0.5);
    }
    for i in 0..150 {
        pair.push(if i % 3 == 0 { 10.25 } else { 10.5 });
    }
    assert_eq!(pair.calendar.overflow_high_water(), 158);
    pair.pop_until(7.5);
    for i in 0..60 {
        pair.push(if i % 2 == 0 { 10.25 } else { 10.5 });
    }
    pair.pop_until(9.5);
    pair.push(10.5);
    pair.drain();
}

#[test]
fn jump_advance_with_equal_overflow_times_matches_the_heap_oracle() {
    // Once day 0 is drained the window is empty and the cursor jumps to
    // day 50: its overflow events, several at one time, migrate straight
    // into the late heap; zero-delay pushes made while it drains tie with
    // them and must pop after them.
    let mut pair = Lockstep::new(1.0, 4);
    pair.push(0.5);
    for i in 0..6 {
        pair.push(if i % 2 == 0 { 50.5 } else { 50.25 });
    }
    pair.push(51.5);
    pair.push(60.5);
    pair.push(60.5);
    pair.pop_until(50.25);
    pair.push(50.25);
    pair.push(50.5);
    pair.push(50.5);
    pair.pop_until(50.5);
    pair.push(50.5);
    pair.drain();
}

#[test]
fn signed_zero_times_match_the_heap_oracle() {
    // `-0.0` orders before `+0.0` under `total_cmp`, the heap's order; a
    // long mixed burst, then a short one pushed while the first drains.
    let mut pair = Lockstep::new(0.5, 8);
    for i in 0..120 {
        pair.push(if i % 3 == 0 { 0.0 } else { -0.0 });
    }
    pair.push(0.25);
    for _ in 0..30 {
        assert!(pair.pop());
    }
    for i in 0..10 {
        pair.push(if i % 2 == 0 { 0.0 } else { -0.0 });
    }
    pair.drain();
}

#[test]
fn days_around_the_insertion_sort_cutoff_match_the_heap_oracle() {
    // The day run is insertion-sorted up to 48 events and radix-sorted
    // above: days of 40, 48, 49 and 400 events reached through the bucket
    // ring, each mostly exact ties of three times pushed out of order.
    for count in [40u32, 48, 49, 400] {
        let mut pair = Lockstep::new(1.0, 8);
        pair.push(0.5);
        for i in 0..count {
            pair.push(3.0 + f64::from(2 - i % 3) * 0.25);
        }
        pair.push(3.0 + 1.0 / 3.0);
        pair.drain();
        assert_eq!(pair.calendar.high_water(), count as usize + 2);
    }
}
