//! The lazy timing iterator: wraps the iterator that feeds a workload
//! and times the program from outside, one pull at a time.

use iot_obs::alloc::AllocStats;
use std::time::{Duration, Instant};

/// Wraps a lazy input source. Each sample is the time between two
/// successive returns from `next`, so item `i`'s sample covers the
/// consumer's work on item `i` and the production of item `i + 1` (the
/// last one ends when the source reports exhaustion). Samples therefore
/// sum to the consumer's whole loop. Time and allocations spent inside
/// the wrapped iterator are also kept apart, so producer and consumer
/// cost separate.
pub struct TimedIter<I> {
    inner: I,
    last_return: Option<Instant>,
    /// Nanoseconds between successive returns, one per item consumed.
    pub samples: Vec<u64>,
    /// Time spent producing items inside the wrapped iterator.
    pub produce: Duration,
    /// Allocations made while producing (zero unless counting is on).
    pub produce_alloc: AllocStats,
}

impl<I: Iterator> TimedIter<I> {
    /// Wraps `inner`, reserving room for `expected` samples so recording
    /// does not allocate in the timed loop.
    pub fn new(inner: I, expected: usize) -> Self {
        TimedIter {
            inner,
            last_return: None,
            samples: Vec::with_capacity(expected + 1),
            produce: Duration::ZERO,
            produce_alloc: AllocStats::default(),
        }
    }
}

impl<I: Iterator> Iterator for TimedIter<I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        let counting = iot_obs::alloc::enabled();
        let alloc_before = counting.then(iot_obs::alloc::thread_snapshot);
        let called = Instant::now();
        let item = self.inner.next();
        let returned = Instant::now();
        if let Some(before) = alloc_before {
            self.produce_alloc
                .merge(&iot_obs::alloc::thread_snapshot().since(&before));
        }
        self.produce += returned - called;
        if let Some(last) = self.last_return.replace(returned) {
            self.samples.push((returned - last).as_nanos() as u64);
        }
        item
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn one_sample_per_item_and_lazy() {
        let produced = Cell::new(0u32);
        let source = (0..5).inspect(|_| produced.set(produced.get() + 1));
        let mut timed = TimedIter::new(source, 5);
        assert_eq!(produced.get(), 0, "nothing produced before the first pull");
        assert_eq!(timed.next(), Some(0));
        assert_eq!(timed.next(), Some(1));
        assert_eq!(produced.get(), 2, "only pulled items are produced");
        assert_eq!(timed.samples.len(), 1);
        let rest: Vec<i32> = timed.by_ref().collect();
        assert_eq!(rest, vec![2, 3, 4]);
        assert_eq!(
            timed.samples.len(),
            5,
            "exhaustion closes the last item's sample"
        );
    }

    #[test]
    fn samples_cover_consumer_work_and_producer_time_is_separate() {
        let source = (0..3).inspect(|_| std::thread::sleep(Duration::from_millis(2)));
        let mut timed = TimedIter::new(source, 3);
        let start = Instant::now();
        for _ in timed.by_ref() {
            std::thread::sleep(Duration::from_millis(3));
        }
        let total = start.elapsed();
        let sum: u64 = timed.samples.iter().sum();
        // The samples start at the first return, so they exclude the first
        // item's production but hold every consumer step and the rest.
        assert!(sum as u128 <= total.as_nanos());
        assert!(sum >= 3 * 3_000_000 + 2 * 2_000_000, "sum {sum}");
        assert!(timed.produce >= Duration::from_millis(6));
        assert!(timed.produce < total);
    }
}
