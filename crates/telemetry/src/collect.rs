//! Collectors: where a traced run's events and samples go.

use std::collections::VecDeque;

use crate::event::{Sample, TraceEvent};

/// Receives a traced run's events and samples.
///
/// The caller keeps the collector and lends it to one run, which
/// records into it on the run's global timeline and hands it back when
/// the run ends. The contract: a collector only *observes*.
/// Implementations must not feed anything back into simulation state or
/// timing — determinism guard tests assert that runs are byte-identical
/// with any collector (or none) attached. Collectors must be `Send`
/// because a runner holding one is moved across worker threads in
/// parallel sweeps.
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

#[cfg(test)]
mod tests {
    use sim_engine::SimTime;

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
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        RingCollector::new(0, 1);
    }
}
