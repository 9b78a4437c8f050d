//! Criterion measurement of the calendar event queue against the retained
//! `BinaryHeap` it replaced, on the workload the async engines actually
//! generate: a classic hold model (pop the earliest event, schedule a new
//! one a random delay ahead) over a steady-state backlog.
//!
//! Two arms per size run the identical seeded delay stream:
//!
//! * `heap` — [`HeapQueue`], the pre-change scheduler and the oracle the
//!   equivalence tests pin against,
//! * `calendar` — [`CalendarQueue`], `O(1)` near-future insertion with the
//!   heap-ordered overflow tier for the delay tail.
//!
//! Before timing anything, the harness replays the full workload through
//! both queues and asserts the popped streams — times and push-index
//! payloads, so the FIFO tie-break too — are identical: a faster-but-wrong
//! scheduler must fail the bench, not post a number.
//!
//! The `backlog` groups' delay mix matches the engines' adversarial
//! profile: mostly sub-window forwarding delays plus a heavy tail that
//! spills into the overflow tier. The `bursty` groups replay the plain
//! latency model at scale instead — a forwarding delay with 1 % jitter, so
//! the whole backlog sits in two or three days of many storage chunks each
//! — with every tenth delay shorter than a bucket, which lands on the day
//! being drained. Sizes are steady-state backlogs (the quantity that sets
//! both schedulers' per-operation cost) and default to 10,000 and 100,000
//! queued events — the async engines' high-water marks at the paper's
//! scale and at the million-node gate respectively; set
//! `HYBRIDCAST_BENCH_EVENTS` to run a single smaller backlog (CI
//! smoke-runs this reduced).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use hybridcast_core::sched::CalendarQueue;
use hybridcast_oracle::HeapQueue;

/// Bucket geometry under test: the engines' auto geometry for a unit
/// forwarding delay (window = 4.0 over 512 buckets).
const WIDTH: f64 = 4.0 / 512.0;
const NUM_BUCKETS: usize = 512;

fn bench_sizes() -> Vec<usize> {
    match std::env::var("HYBRIDCAST_BENCH_EVENTS")
        .ok()
        .and_then(|v| v.parse().ok())
    {
        Some(n) => vec![n],
        None => vec![10_000, 100_000],
    }
}

/// The delay stream both arms of a `backlog` group replay: ~94% uniform
/// sub-window forwarding delays, ~6% heavy-tail delays that overshoot the
/// bucket window.
fn heavy_tail_delays(backlog: usize, steps: usize, seed: u64) -> Vec<f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..backlog + steps)
        .map(|_| {
            if rng.gen::<f64>() < 0.06 {
                rng.gen_range(4.0..400.0)
            } else {
                rng.gen_range(0.0..2.0)
            }
        })
        .collect()
}

/// The delay stream both arms of a `bursty` group replay: ~90% a unit
/// forwarding delay with 1 % jitter (2.5 buckets wide: days of
/// `backlog / 2.5` events), ~10% sub-bucket delays that join the day being
/// drained.
fn bursty_delays(backlog: usize, steps: usize, seed: u64) -> Vec<f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..backlog + steps)
        .map(|_| {
            if rng.gen::<f64>() < 0.1 {
                rng.gen_range(0.0..WIDTH)
            } else {
                rng.gen_range(0.99..1.01)
            }
        })
        .collect()
}

/// One full workload over any queue: prefill the backlog, run the hold
/// loop, drain. Returns a digest of the popped stream so the caller can
/// check the two arms agree (and the optimizer cannot discard the pops).
fn run_heap(queue: &mut HeapQueue<u32>, backlog: usize, delays: &[f64]) -> (f64, u64) {
    queue.reset();
    let (prefill, holds) = delays.split_at(backlog);
    for (i, &d) in prefill.iter().enumerate() {
        queue.push(d, i as u32);
    }
    let mut clock = 0.0;
    let mut digest = 0u64;
    for (i, &d) in holds.iter().enumerate() {
        let ev = queue.pop().expect("backlog never empties");
        clock = ev.time;
        digest = digest.wrapping_mul(31).wrapping_add(u64::from(ev.payload));
        queue.push(clock + d, i as u32);
    }
    while let Some(ev) = queue.pop() {
        clock = ev.time;
        digest = digest.wrapping_mul(31).wrapping_add(u64::from(ev.payload));
    }
    (clock, digest)
}

/// [`run_heap`] for the calendar queue — same workload, same digest.
fn run_calendar(queue: &mut CalendarQueue<u32>, backlog: usize, delays: &[f64]) -> (f64, u64) {
    queue.reset(WIDTH, NUM_BUCKETS);
    let (prefill, holds) = delays.split_at(backlog);
    for (i, &d) in prefill.iter().enumerate() {
        queue.push(d, i as u32);
    }
    let mut clock = 0.0;
    let mut digest = 0u64;
    for (i, &d) in holds.iter().enumerate() {
        let ev = queue.pop().expect("backlog never empties");
        clock = ev.time;
        digest = digest.wrapping_mul(31).wrapping_add(u64::from(ev.payload));
        queue.push(clock + d, i as u32);
    }
    while let Some(ev) = queue.pop() {
        clock = ev.time;
        digest = digest.wrapping_mul(31).wrapping_add(u64::from(ev.payload));
    }
    (clock, digest)
}

fn bench_sched_overhead(c: &mut Criterion) {
    for backlog in bench_sizes() {
        // Enough hold steps to cycle the whole backlog through the queue
        // a few times, so bucket migration and overflow promotion both
        // run at steady state.
        let steps = backlog * 4;
        let workloads = [
            ("backlog", heavy_tail_delays(backlog, steps, 17)),
            ("bursty", bursty_delays(backlog, steps, 19)),
        ];
        for (name, stream) in &workloads {
            // Equivalence first: the calendar queue must pop the exact
            // stream the heap oracle pops before its speed means anything.
            let mut heap: HeapQueue<u32> = HeapQueue::new();
            let mut calendar: CalendarQueue<u32> = CalendarQueue::new(WIDTH, NUM_BUCKETS);
            let heap_out = run_heap(&mut heap, backlog, stream);
            let calendar_out = run_calendar(&mut calendar, backlog, stream);
            assert_eq!(
                heap_out, calendar_out,
                "calendar queue diverged from the heap oracle at {name} {backlog}"
            );
            assert_eq!(
                calendar.overflow_high_water() > 0,
                *name == "backlog",
                "only the heavy-tail mix exercises the overflow tier"
            );

            let mut group = c.benchmark_group(format!("sched_overhead/{name}{backlog}"));
            group.bench_function("heap", |b| {
                b.iter(|| black_box(run_heap(&mut heap, backlog, stream)))
            });
            group.bench_function("calendar", |b| {
                b.iter(|| black_box(run_calendar(&mut calendar, backlog, stream)))
            });
            group.finish();
        }
    }
}

criterion_group!(benches, bench_sched_overhead);
criterion_main!(benches);
