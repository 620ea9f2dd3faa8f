//! The event taxonomy: typed span/instant events covering the TLP
//! lifecycle, plus periodic time-series samples.
//!
//! Events use plain `u8` GPU indices and `&'static str` labels, so this
//! crate needs nothing of the GPU model or the FinePack hardware model.

use sim_engine::SimTime;

/// What happened. Instant kinds carry only their payload; span kinds
/// (wire transmit, commit) additionally carry their end time.
///
/// Lifecycle coverage, in wire order: store issued → RWQ insert/merge →
/// flush(reason) → packetize/wire transmit → DLL replay → depacketize/
/// commit — plus the closed-loop credit and stall events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// An SM issued a remote store of `bytes` to GPU `dst`.
    StoreIssued {
        /// Destination GPU.
        dst: u8,
        /// Store payload bytes.
        bytes: u32,
    },
    /// An SM issued a remote atomic (never coalesced) to GPU `dst`.
    AtomicIssued {
        /// Destination GPU.
        dst: u8,
        /// Operand bytes.
        bytes: u32,
    },
    /// An SM issued a remote load; same-address ordering may flush.
    LoadProbe {
        /// Destination GPU.
        dst: u8,
    },
    /// A store entered the remote write queue. `merged` is true when it
    /// hit an existing entry (overwrite coalescing) rather than
    /// allocating a new one.
    RwqInsert {
        /// Destination GPU (selects the RWQ partition).
        dst: u8,
        /// True for a same-address overwrite of a buffered entry.
        merged: bool,
    },
    /// A remote-write-queue batch flushed for `reason` (the
    /// `FlushReason` label) and was handed to the packetizer.
    Flush {
        /// The flush reason's stable label (e.g. `"window-miss"`).
        reason: &'static str,
    },
    /// Span: one wire TLP traversed the fabric from this event's GPU,
    /// starting at the event time and landing at `done`.
    WireTransmit {
        /// Destination GPU.
        dst: u8,
        /// Total bytes on the wire.
        wire_bytes: u64,
        /// TLP payload bytes (sub-headers included; framing excluded) —
        /// for bulk DMA (`stores == 0`), the whole transfer's payload,
        /// split across max-payload TLPs on the wire. Lets an auditor
        /// recompute `wire_bytes` from the protocol framing math alone.
        payload_bytes: u64,
        /// Stores aggregated into the TLP (0 for bulk DMA).
        stores: u32,
        /// Flush reason that produced the TLP (`None` for uncoalesced
        /// paths, atomics, and bulk DMA).
        reason: Option<&'static str>,
        /// When the last byte landed at the destination.
        done: SimTime,
    },
    /// The data link layer retransmitted `bytes` while delivering the
    /// TLP in flight at this time (Ack/Nak replay).
    DllReplay {
        /// Bytes retransmitted across the traversed links.
        bytes: u64,
    },
    /// Span: the destination's de-packetizer drained a TLP's stores to
    /// local memory, from the event time (landing) to `done`. The
    /// event's GPU is the *destination*.
    Commit {
        /// Data bytes committed.
        data_bytes: u64,
        /// When the last store drained into local memory.
        done: SimTime,
    },
    /// Credited mode: the output-buffer head found a traversed link out
    /// of posted credits; the earliest retry is `until`.
    CreditBlocked {
        /// Earliest time every traversed link can admit the TLP.
        until: SimTime,
    },
    /// Closed loop: the GPU's store stream stalled for `duration` on a
    /// full output buffer gated by link credits.
    Stall {
        /// How long the stream was held.
        duration: SimTime,
    },
    /// A system-scope release fence flushed the path.
    FenceRelease,
    /// The GPU's kernel finished issuing (its release point).
    KernelEnd,
}

impl EventKind {
    /// Stable short label for grouping and export.
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::StoreIssued { .. } => "store",
            EventKind::AtomicIssued { .. } => "atomic",
            EventKind::LoadProbe { .. } => "load-probe",
            EventKind::RwqInsert { .. } => "rwq-insert",
            EventKind::Flush { .. } => "flush",
            EventKind::WireTransmit { .. } => "wire-transmit",
            EventKind::DllReplay { .. } => "dll-replay",
            EventKind::Commit { .. } => "commit",
            EventKind::CreditBlocked { .. } => "credit-blocked",
            EventKind::Stall { .. } => "stall",
            EventKind::FenceRelease => "fence-release",
            EventKind::KernelEnd => "kernel-end",
        }
    }
}

/// One structured trace event: when, on which GPU's timeline, and what.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// When the event happened (for spans: when it started).
    pub time: SimTime,
    /// The GPU whose timeline owns the event (the source for issue and
    /// wire events, the destination for commits).
    pub gpu: u8,
    /// What happened.
    pub kind: EventKind,
}

impl TraceEvent {
    /// The event shifted onto a run-global timeline: `base` (the
    /// simulated time consumed by earlier iterations) is added to the
    /// start time and to every embedded end time.
    pub fn shifted(mut self, base: SimTime) -> TraceEvent {
        self.time += base;
        match &mut self.kind {
            EventKind::WireTransmit { done, .. } | EventKind::Commit { done, .. } => {
                *done += base;
            }
            EventKind::CreditBlocked { until } => *until += base,
            _ => {}
        }
        self
    }
}

/// One periodic time-series sample of a GPU's egress state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// Sample time on the run-global timeline.
    pub time: SimTime,
    /// Sampled GPU.
    pub gpu: u8,
    /// Entries buffered in the remote write queue (occupancy).
    pub rwq_entries: u64,
    /// Packets queued in the egress output buffer, waiting for credits.
    pub egress_queue: u64,
    /// Cumulative bytes carried by this GPU's egress link (first
    /// transmissions plus replays) — the link-utilization integral.
    pub egress_wire_bytes: u64,
    /// Posted-header credit units in flight (consumed, `UpdateFC` not
    /// yet returned) on the egress link; 0 under open-loop flow control.
    pub credit_hdrs_in_flight: u64,
    /// Posted-data credit units in flight on the egress link.
    pub credit_data_in_flight: u64,
    /// Cumulative picoseconds this GPU's store stream has stalled.
    pub stall_ps: u64,
}

impl Sample {
    /// The sample shifted onto a run-global timeline (see
    /// [`TraceEvent::shifted`]).
    pub fn shifted(mut self, base: SimTime) -> Sample {
        self.time += base;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shift_moves_start_and_embedded_end_times() {
        let base = SimTime::from_us(3);
        let span = TraceEvent {
            time: SimTime::from_ns(10),
            gpu: 1,
            kind: EventKind::WireTransmit {
                dst: 0,
                wire_bytes: 128,
                payload_bytes: 104,
                stores: 4,
                reason: Some("release"),
                done: SimTime::from_ns(20),
            },
        }
        .shifted(base);
        assert_eq!(span.time, base + SimTime::from_ns(10));
        match span.kind {
            EventKind::WireTransmit { done, .. } => assert_eq!(done, base + SimTime::from_ns(20)),
            _ => unreachable!(),
        }
        let blocked = TraceEvent {
            time: SimTime::ZERO,
            gpu: 0,
            kind: EventKind::CreditBlocked {
                until: SimTime::from_ns(7),
            },
        }
        .shifted(base);
        match blocked.kind {
            EventKind::CreditBlocked { until } => assert_eq!(until, base + SimTime::from_ns(7)),
            _ => unreachable!(),
        }
        // Instants shift only their start.
        let instant = TraceEvent {
            time: SimTime::from_ns(1),
            gpu: 0,
            kind: EventKind::KernelEnd,
        }
        .shifted(base);
        assert_eq!(instant.time, base + SimTime::from_ns(1));
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(EventKind::Flush { reason: "timeout" }.label(), "flush");
        assert_eq!(EventKind::KernelEnd.label(), "kernel-end");
    }
}
