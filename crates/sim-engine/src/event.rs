//! The discrete-event core: a time-ordered event queue.
//!
//! The engine is deliberately payload-generic: domain crates define their
//! own event enum and drive the main loop, popping events in timestamp
//! order and scheduling new ones. Ties are broken by insertion order so
//! simulations are fully deterministic: the queue is a `BinaryHeap` on
//! the total order `(time, seq)`.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A scheduled event: a payload due at a simulated timestamp.
#[derive(Debug, Clone)]
pub struct Event<E> {
    /// When the event fires.
    pub time: SimTime,
    /// Monotonic sequence number; breaks timestamp ties deterministically.
    pub seq: u64,
    /// The domain-specific payload.
    pub payload: E,
}

impl<E> PartialEq for Event<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Event<E> {}

impl<E> PartialOrd for Event<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Event<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic, time-ordered event queue.
///
/// # Examples
///
/// ```
/// use sim_engine::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_ns(5), "later");
/// q.schedule(SimTime::from_ns(1), "sooner");
/// let ev = q.pop().unwrap();
/// assert_eq!(ev.payload, "sooner");
/// assert_eq!(ev.time, SimTime::from_ns(1));
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Event<E>>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Empties the queue and rewinds the clock to time zero, keeping the
    /// heap's buffer for reuse. Pop order is unaffected: it is always
    /// the total order on `(time, seq)`.
    pub fn reset(&mut self) {
        self.next_seq = 0;
        self.now = SimTime::ZERO;
        self.heap.clear();
    }

    /// Reserves room for at least `additional` more pending events.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
    }

    /// [`EventQueue::reserve`], for a caller that also knows the time
    /// range `span` the next `additional` events cover. The binary heap
    /// needs no spacing hint and ignores `span`.
    pub fn reserve_for_span(&mut self, additional: usize, span: SimTime) {
        let _ = span;
        self.reserve(additional);
    }

    /// The current simulated time: the timestamp of the most recently
    /// popped event (or zero before any pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `payload` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time — scheduling into
    /// the past indicates a model bug and would silently corrupt causality.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past: at={at} now={}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event {
            time: at,
            seq,
            payload,
        });
    }

    /// Schedules `payload` to fire `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimTime, payload: E) {
        self.schedule(self.now + delay, payload);
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp. Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<Event<E>> {
        let ev = self.heap.pop()?;
        debug_assert!(ev.time >= self.now);
        self.now = ev.time;
        Some(ev)
    }

    /// The timestamp of the next pending event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(3), 3u32);
        q.schedule(SimTime::from_ns(1), 1u32);
        q.schedule(SimTime::from_ns(2), 2u32);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ns(1);
        for i in 0..100u32 {
            q.schedule(t, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn ties_scheduled_mid_drain_fire_after_earlier_insertions() {
        // A retry scheduled *while draining* timestamp t (the credited
        // runner's blocked-output pattern) must fire after the events
        // already queued at t: its sequence number is strictly higher.
        let mut q = EventQueue::new();
        let t = SimTime::from_ns(7);
        q.schedule(t, "a");
        q.schedule(t, "b");
        assert_eq!(q.pop().unwrap().payload, "a");
        q.schedule(t, "retry");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec!["b", "retry"]);
    }

    #[test]
    fn ties_break_by_insertion_order_across_interleaved_times() {
        // Insertion-order tie-breaking holds per timestamp even when
        // the insertions at each timestamp are interleaved.
        let mut q = EventQueue::new();
        let (t1, t2) = (SimTime::from_ns(1), SimTime::from_ns(2));
        q.schedule(t2, 10u32);
        q.schedule(t1, 0u32);
        q.schedule(t2, 11u32);
        q.schedule(t1, 1u32);
        q.schedule(t2, 12u32);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec![0, 1, 10, 11, 12]);
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(10), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_ns(10));
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(10), "a");
        q.pop();
        q.schedule_in(SimTime::from_ns(5), "b");
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(15)));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(10), ());
        q.pop();
        q.schedule(SimTime::from_ns(5), ());
    }

    #[test]
    fn len_and_empty() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::from_ns(1), ());
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn heap_backend_matches_reference_semantics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(2), "b");
        q.schedule(SimTime::from_ns(1), "a");
        q.schedule(SimTime::from_ns(2), "c");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn sparse_far_future_events_pop_in_order() {
        // Events milliseconds apart, scheduled latest first.
        let mut q = EventQueue::new();
        for i in (0..64u64).rev() {
            q.schedule(SimTime::from_ms(i * 7), i);
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, (0..64).collect::<Vec<_>>());

        // The same events scheduled earliest first.
        let mut q = EventQueue::new();
        for i in 0..64u64 {
            q.schedule(SimTime::from_ms(i * 7), i);
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn zero_delta_self_schedule_fires_after_pending_ties() {
        // schedule_in(ZERO) while draining time t must fire after every
        // event already pending at t — seq strictly increases.
        let mut q = EventQueue::new();
        let t = SimTime::from_ns(3);
        for i in 0..10u32 {
            q.schedule(t, i);
        }
        assert_eq!(q.pop().unwrap().payload, 0);
        q.schedule_in(SimTime::ZERO, 100u32);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 100]);
    }
}
