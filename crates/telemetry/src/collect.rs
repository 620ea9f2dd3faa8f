//! Collectors and the handle that threads them through the stack.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use sim_engine::SimTime;

use crate::event::{Sample, TraceEvent};

/// Receives trace events and samples from instrumented components.
///
/// The contract: a collector only *observes*. Implementations must not
/// feed anything back into simulation state or timing — determinism
/// guard tests assert that runs are byte-identical with any collector
/// (or none) attached. Collectors must be `Send` because runners and
/// egress paths are moved across worker threads in parallel sweeps.
pub trait TraceCollector: std::fmt::Debug + Send {
    /// Records one structured event.
    fn record(&mut self, event: TraceEvent);
    /// Records one time-series sample.
    fn sample(&mut self, sample: Sample);
}

/// The no-op collector: the explicit form of "tracing off".
///
/// Attaching it must cost the same as attaching nothing — the
/// determinism guard compares both against a [`RingCollector`] run.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullCollector;

impl TraceCollector for NullCollector {
    fn record(&mut self, _event: TraceEvent) {}
    fn sample(&mut self, _sample: Sample) {}
}

/// A bounded in-memory collector: keeps the most recent events and
/// samples up to fixed capacities, counting what it had to drop.
///
/// Bounded memory is the point — a long run cannot OOM the host; it
/// loses the oldest history instead, and the drop counters make the
/// truncation visible rather than silent.
#[derive(Debug)]
pub struct RingCollector {
    events: VecDeque<TraceEvent>,
    samples: VecDeque<Sample>,
    event_capacity: usize,
    sample_capacity: usize,
    dropped_events: u64,
    dropped_samples: u64,
}

impl RingCollector {
    /// Creates a collector retaining at most `event_capacity` events
    /// and `sample_capacity` samples.
    ///
    /// # Panics
    ///
    /// Panics if either capacity is zero.
    pub fn new(event_capacity: usize, sample_capacity: usize) -> Self {
        assert!(
            event_capacity > 0 && sample_capacity > 0,
            "ring capacities must be positive"
        );
        RingCollector {
            events: VecDeque::new(),
            samples: VecDeque::new(),
            event_capacity,
            sample_capacity,
            dropped_events: 0,
            dropped_samples: 0,
        }
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Retained samples, oldest first.
    pub fn samples(&self) -> impl Iterator<Item = &Sample> {
        self.samples.iter()
    }

    /// Retained event count.
    pub fn event_count(&self) -> usize {
        self.events.len()
    }

    /// Retained sample count.
    pub fn sample_count(&self) -> usize {
        self.samples.len()
    }

    /// Events evicted because the ring was full. Non-zero means the
    /// retained window is a suffix of the run, not the whole run.
    pub fn dropped_events(&self) -> u64 {
        self.dropped_events
    }

    /// Samples evicted because the ring was full.
    pub fn dropped_samples(&self) -> u64 {
        self.dropped_samples
    }
}

impl TraceCollector for RingCollector {
    fn record(&mut self, event: TraceEvent) {
        if self.events.len() == self.event_capacity {
            self.events.pop_front();
            self.dropped_events += 1;
        }
        self.events.push_back(event);
    }

    fn sample(&mut self, sample: Sample) {
        if self.samples.len() == self.sample_capacity {
            self.samples.pop_front();
            self.dropped_samples += 1;
        }
        self.samples.push_back(sample);
    }
}

/// The cloneable handle instrumentation points record through.
///
/// Off by default ([`TraceHandle::off`] / [`Default`]): recording is a
/// single `Option` branch, so the uninstrumented hot path is
/// unperturbed. When on, the handle shares one collector behind an
/// `Arc<Mutex<_>>` (the lock is uncontended — the runner is
/// single-threaded; the `Mutex` exists so runners stay `Send` for
/// parallel sweeps).
///
/// The handle also carries a local *base* time ([`TraceHandle::rebase`])
/// added to every event and sample, which is how per-iteration local
/// times land on one run-global timeline.
#[derive(Debug, Clone, Default)]
pub struct TraceHandle {
    collector: Option<Arc<Mutex<dyn TraceCollector>>>,
    base: SimTime,
}

impl TraceHandle {
    /// The disabled handle: every recording call is a no-op branch.
    pub fn off() -> Self {
        TraceHandle::default()
    }

    /// A handle recording into `collector`.
    pub fn new(collector: Arc<Mutex<dyn TraceCollector>>) -> Self {
        TraceHandle {
            collector: Some(collector),
            base: SimTime::ZERO,
        }
    }

    /// Convenience: a fresh [`RingCollector`] plus the handle feeding
    /// it. Keep the returned `Arc` to read the trace back after a run.
    pub fn ring(
        event_capacity: usize,
        sample_capacity: usize,
    ) -> (TraceHandle, Arc<Mutex<RingCollector>>) {
        let ring = Arc::new(Mutex::new(RingCollector::new(
            event_capacity,
            sample_capacity,
        )));
        (TraceHandle::new(ring.clone()), ring)
    }

    /// True when a collector is attached. Instrumentation sites gate
    /// any non-trivial event assembly on this.
    pub fn is_on(&self) -> bool {
        self.collector.is_some()
    }

    /// Sets the base time added to subsequently recorded events. The
    /// base is handle-local (not shared through the `Arc`), so clone
    /// *after* rebasing when distributing a handle for one iteration.
    pub fn rebase(&mut self, base: SimTime) {
        self.base = base;
    }

    /// Records `event`, shifted by the handle's base time.
    pub fn record(&self, event: TraceEvent) {
        if let Some(c) = &self.collector {
            c.lock()
                .expect("trace collector lock")
                .record(event.shifted(self.base));
        }
    }

    /// Records `sample`, shifted by the handle's base time.
    pub fn sample(&self, sample: Sample) {
        if let Some(c) = &self.collector {
            c.lock()
                .expect("trace collector lock")
                .sample(sample.shifted(self.base));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn ev(ns: u64) -> TraceEvent {
        TraceEvent {
            time: SimTime::from_ns(ns),
            gpu: 0,
            kind: EventKind::KernelEnd,
        }
    }

    #[test]
    fn off_handle_drops_everything() {
        let h = TraceHandle::off();
        assert!(!h.is_on());
        h.record(ev(1)); // must not panic, must not allocate a collector
    }

    #[test]
    fn ring_keeps_latest_and_counts_drops() {
        let mut ring = RingCollector::new(2, 1);
        for ns in 0..5 {
            ring.record(ev(ns));
        }
        assert_eq!(ring.event_count(), 2);
        assert_eq!(ring.dropped_events(), 3);
        let times: Vec<u64> = ring.events().map(|e| e.time.as_ps()).collect();
        assert_eq!(times, vec![3000, 4000], "latest events are retained");
        ring.sample(Sample {
            time: SimTime::ZERO,
            gpu: 0,
            rwq_entries: 1,
            egress_queue: 0,
            egress_wire_bytes: 0,
            credit_hdrs_in_flight: 0,
            credit_data_in_flight: 0,
            stall_ps: 0,
        });
        ring.sample(Sample {
            time: SimTime::from_ns(9),
            gpu: 0,
            rwq_entries: 2,
            egress_queue: 0,
            egress_wire_bytes: 0,
            credit_hdrs_in_flight: 0,
            credit_data_in_flight: 0,
            stall_ps: 0,
        });
        assert_eq!(ring.sample_count(), 1);
        assert_eq!(ring.dropped_samples(), 1);
        assert_eq!(ring.samples().next().unwrap().rwq_entries, 2);
    }

    #[test]
    fn handle_applies_base_time() {
        let (mut h, ring) = TraceHandle::ring(8, 8);
        assert!(h.is_on());
        h.record(ev(1));
        h.rebase(SimTime::from_us(1));
        h.record(ev(1));
        let times: Vec<u64> = ring
            .lock()
            .unwrap()
            .events()
            .map(|e| e.time.as_ps())
            .collect();
        assert_eq!(times, vec![1_000, 1_001_000]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        RingCollector::new(0, 1);
    }
}
