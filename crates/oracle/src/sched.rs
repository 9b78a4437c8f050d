//! [`HeapQueue`]: the retained-`BinaryHeap` event queue
//! `hybridcast_core::sched::CalendarQueue` replaced, kept as its reference.

use std::collections::BinaryHeap;

use hybridcast_core::sched::Scheduled;

/// The retained-`BinaryHeap` event queue the calendar queue replaced, kept
/// under the same `push`/`pop` API as the differential-test **oracle** and
/// the `sched_overhead` benchmark comparator. Pops in ascending
/// `(time, seq)` order; ties are FIFO.
#[derive(Debug, Clone, Default)]
pub struct HeapQueue<T> {
    heap: BinaryHeap<Scheduled<T>>,
    seq: u64,
    high_water: usize,
}

impl<T> HeapQueue<T> {
    /// Creates an empty heap queue.
    pub fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            high_water: 0,
        }
    }

    /// Empties the queue, retaining its backing storage.
    pub fn reset(&mut self) {
        self.heap.clear();
        self.seq = 0;
        self.high_water = 0;
    }

    /// Number of resident events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no events are resident.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Largest resident event count observed since the last reset.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Schedules `payload` at `time`, assigning the next sequence number.
    pub fn push(&mut self, time: f64, payload: T) {
        self.seq += 1;
        self.heap.push(Scheduled {
            time,
            seq: self.seq,
            payload,
        });
        if self.heap.len() > self.high_water {
            self.high_water = self.heap.len();
        }
    }

    /// Removes and returns the earliest `(time, seq)` event, or `None` if
    /// the queue is empty.
    pub fn pop(&mut self) -> Option<Scheduled<T>> {
        self.heap.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridcast_core::sched::CalendarQueue;

    #[test]
    fn matches_the_heap_oracle_on_a_mixed_workload() {
        let mut calendar: CalendarQueue<u32> = CalendarQueue::new(0.125, 32);
        let mut oracle: HeapQueue<u32> = HeapQueue::new();
        // A deterministic pseudo-random interleaving with duplicates,
        // boundary values, and far-future spills.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        let mut clock = 0.0f64;
        for round in 0u32..400 {
            let delay = (next() % 1000) as f64 / 100.0; // 0..10: spans the window
            let time = clock + if round % 7 == 0 { 0.0 } else { delay };
            calendar.push(time, round);
            oracle.push(time, round);
            if next() % 3 == 0 {
                let a = calendar.pop();
                let b = oracle.pop();
                match (a, b) {
                    (Some(x), Some(y)) => {
                        assert_eq!((x.time, x.seq, x.payload), (y.time, y.seq, y.payload));
                        clock = x.time;
                    }
                    (None, None) => {}
                    other => panic!("queues diverged: {other:?}"),
                }
            }
        }
        loop {
            match (calendar.pop(), oracle.pop()) {
                (Some(x), Some(y)) => {
                    assert_eq!((x.time, x.seq, x.payload), (y.time, y.seq, y.payload));
                }
                (None, None) => break,
                other => panic!("queues diverged at drain: {other:?}"),
            }
        }
        assert_eq!(calendar.high_water(), oracle.high_water());
    }
}
