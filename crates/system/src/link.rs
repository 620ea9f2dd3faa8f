//! One link direction of the switched fabric: it serializes transfers
//! in arrival order and, when attached, runs the data link layer's
//! replay loop and posted-write credit flow control. The
//! [`crate::RoutedFabric`] keeps them in one table: per-GPU egress and
//! ingress links plus the leaf switches' uplinks and downlinks.

use protocol::{CreditTimeline, DataLinkEndpoint, ReplayError, ReplayStats};
use sim_engine::{Bandwidth, SimTime};

/// Cumulative flow-control statistics for one link direction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FcStats {
    /// `UpdateFC` DLLPs received (one per drained TLP).
    pub update_dllps: u64,
    /// Wire bytes of those DLLPs. Kept separate from TLP traffic so the
    /// paper's wire-byte accounting is unchanged by flow control.
    pub dllp_bytes: u64,
    /// Admission attempts that found the pool exhausted.
    pub blocked_attempts: u64,
}

/// The outcome of one delivery on a (possibly fault-injected) link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkDelivery {
    /// When the last (good) byte cleared this link.
    pub done: SimTime,
    /// Time added by replays, timer recoveries, and retrains — zero for
    /// a clean first-pass delivery, so fault-free timing is unchanged.
    pub penalty: SimTime,
    /// Bytes the data link layer retransmitted to deliver it.
    pub replayed_bytes: u64,
}

/// One link direction: serializes transfers in arrival order. With a
/// [`DataLinkEndpoint`] attached, every transfer additionally runs the
/// Ack/Nak replay loop: corrupted TLPs retransmit (costing wire bytes
/// and latency), retrains may degrade the link, and a permanently stuck
/// link surfaces [`ReplayError::LinkDown`] instead of hanging.
#[derive(Debug, Clone)]
pub struct Link {
    bandwidth: Bandwidth,
    busy_until: SimTime,
    bytes_carried: u64,
    /// Data link layer, when fault injection is active.
    dll: Option<DataLinkEndpoint>,
    /// Post-retrain bandwidth factor (applied once, on first retrain).
    degrade: Option<f64>,
    degraded: bool,
    /// Posted-write credit flow control, when the system runs credited.
    fc: Option<CreditTimeline>,
}

impl Link {
    /// Creates an idle link.
    pub fn new(bandwidth: Bandwidth) -> Self {
        Link {
            bandwidth,
            busy_until: SimTime::ZERO,
            bytes_carried: 0,
            dll: None,
            degrade: None,
            degraded: false,
            fc: None,
        }
    }

    /// Attaches posted-write credit flow control; subsequent credited
    /// sends consume from this pool and block on exhaustion.
    pub fn attach_flow_control(&mut self, timeline: CreditTimeline) {
        self.fc = Some(timeline);
    }

    /// Earliest time at or after `at` when a TLP with `payload` data
    /// bytes has credits, honoring scheduled `UpdateFC` returns. `at`
    /// itself when no flow control is attached.
    pub fn fc_earliest(&mut self, at: SimTime, payload: u32) -> SimTime {
        match &mut self.fc {
            Some(fc) => fc.earliest_admission(at, payload),
            None => at,
        }
    }

    /// Consumes credits for a TLP admitted at `at`.
    ///
    /// # Panics
    ///
    /// Panics if credits are insufficient — callers must check
    /// [`Link::fc_earliest`] first.
    pub fn fc_consume(&mut self, at: SimTime, payload: u32) {
        if let Some(fc) = &mut self.fc {
            fc.admit(at, payload)
                .expect("caller checked fc_earliest before consuming");
        }
    }

    /// Schedules this TLP's credit return: the receiver drained it at
    /// `drained_at` (replay penalties included), so its `UpdateFC`
    /// arrives one return latency later. Replayed TLPs therefore hold
    /// their credits until acked.
    pub fn fc_complete(&mut self, payload: u32, drained_at: SimTime) {
        if let Some(fc) = &mut self.fc {
            fc.complete(payload, drained_at);
        }
    }

    /// `(header, data)` credit units currently in flight — consumed but
    /// with the `UpdateFC` not yet returned — when credit flow control
    /// is attached. A telemetry probe; does not advance the timeline.
    pub fn fc_in_flight(&self) -> Option<(u64, u64)> {
        self.fc.as_ref().map(|fc| {
            let a = fc.account();
            (
                u64::from(a.headers_in_flight()),
                u64::from(a.data_units_in_flight()),
            )
        })
    }

    /// The cumulative credit ledger — units consumed and returned over
    /// the link's lifetime — when credit flow control is attached.
    /// Observational, like [`Link::fc_in_flight`].
    pub fn fc_totals(&self) -> Option<protocol::CreditTotals> {
        self.fc.as_ref().map(|fc| *fc.totals())
    }

    /// Flow-control statistics, when credit flow control is attached.
    pub fn fc_stats(&self) -> Option<FcStats> {
        self.fc.as_ref().map(|fc| FcStats {
            update_dllps: fc.updates_received(),
            dllp_bytes: fc.dllp_bytes_received(),
            blocked_attempts: fc.blocked_attempts(),
        })
    }

    /// Attaches a data link layer; subsequent [`Link::try_transmit`]
    /// calls run the replay loop. `degrade` scales bandwidth after the
    /// link's first retrain (a link renegotiating at reduced width).
    pub fn attach_dll(&mut self, dll: DataLinkEndpoint, degrade: Option<f64>) {
        self.dll = Some(dll);
        self.degrade = degrade;
    }

    /// Forces an outage window on the attached data link layer (no-op
    /// on a fault-free link).
    pub fn set_outage(&mut self, from: SimTime, until: SimTime) {
        if let Some(dll) = &mut self.dll {
            dll.set_outage(from, until);
        }
    }

    /// Transmits `bytes` arriving at time `at`, queued behind earlier
    /// transfers (store-and-forward). Through an attached data link
    /// layer, replayed bytes are charged as wire traffic and replay and
    /// retrain latency as delay; with no faults injected the penalty is
    /// zero.
    ///
    /// # Errors
    ///
    /// [`ReplayError::LinkDown`] when the link exhausts its retrain
    /// budget without delivering (a stuck link).
    pub fn try_transmit(&mut self, at: SimTime, bytes: u64) -> Result<LinkDelivery, ReplayError> {
        let start = at.max(self.busy_until);
        let clean = self.bandwidth.transfer_time(bytes);
        let mut total = clean;
        let mut replayed_bytes = 0;
        if let Some(dll) = &mut self.dll {
            let xfer = dll.transmit(start, bytes)?;
            // Replays occupy the wire again; retrains and Ack round-trips
            // add pure latency on top.
            total = self.bandwidth.transfer_time(bytes + xfer.replayed_bytes) + xfer.extra_delay;
            replayed_bytes = xfer.replayed_bytes;
            self.bytes_carried += xfer.replayed_bytes;
            if xfer.retrains > 0 && !self.degraded {
                if let Some(factor) = self.degrade {
                    self.bandwidth = self.bandwidth.scale(factor);
                    self.degraded = true;
                }
            }
        }
        let done = start + total;
        self.busy_until = done;
        self.bytes_carried += bytes;
        Ok(LinkDelivery {
            done,
            penalty: total.saturating_sub(clean),
            replayed_bytes,
        })
    }

    /// When the link next becomes idle.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Total bytes carried (first transmissions plus replays).
    pub fn bytes_carried(&self) -> u64 {
        self.bytes_carried
    }

    /// Data link layer statistics, when fault injection is active.
    pub fn dll_stats(&self) -> Option<ReplayStats> {
        self.dll.as_ref().map(|d| *d.stats())
    }

    /// Whether the link renegotiated down after a retrain.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Resets the busy horizon (used at iteration barriers, when the
    /// fabric is quiescent) without clearing byte counters. A quiescent
    /// fabric has drained every buffer, so all in-flight credits return.
    pub fn reset_time(&mut self) {
        self.busy_until = SimTime::ZERO;
        if let Some(fc) = &mut self.fc {
            fc.quiesce();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bw() -> Bandwidth {
        Bandwidth::from_gbps(32.0)
    }

    fn done(l: &mut Link, at: SimTime, bytes: u64) -> SimTime {
        let d = l.try_transmit(at, bytes).expect("a fault-free link");
        assert_eq!(d.penalty, SimTime::ZERO);
        d.done
    }

    #[test]
    fn link_serializes_back_to_back() {
        let mut l = Link::new(bw());
        let t1 = done(&mut l, SimTime::ZERO, 32_000); // 1us at 32GB/s
        assert_eq!(t1, SimTime::from_us(1));
        let t2 = done(&mut l, SimTime::ZERO, 32_000); // queues behind
        assert_eq!(t2, SimTime::from_us(2));
        assert_eq!(l.bytes_carried(), 64_000);
    }

    #[test]
    fn idle_gaps_are_not_charged() {
        let mut l = Link::new(bw());
        done(&mut l, SimTime::ZERO, 32_000);
        let t = done(&mut l, SimTime::from_us(10), 32_000);
        assert_eq!(t, SimTime::from_us(11));
    }

    #[test]
    fn a_degrading_retrain_slows_the_next_tlp_of_the_same_size() {
        use protocol::{BitErrorModel, ReplayConfig};
        let mut l = Link::new(bw());
        let dll = DataLinkEndpoint::new(
            ReplayConfig::pcie_gen4(),
            BitErrorModel::new(0.0),
            sim_engine::DetRng::new(1, "link-test"),
        );
        l.attach_dll(dll, Some(0.5));
        assert_eq!(done(&mut l, SimTime::ZERO, 32_000), SimTime::from_us(1));
        // Every attempt inside the outage is lost, so REPLAY_NUM rolls
        // over into a retrain, which halves the bandwidth.
        l.set_outage(SimTime::from_us(5), SimTime::from_us(15));
        let d = l
            .try_transmit(SimTime::from_us(5), 32_000)
            .expect("recovers");
        assert!(d.penalty > SimTime::ZERO);
        assert!(l.is_degraded());
        let at = d.done + SimTime::from_us(100);
        assert_eq!(done(&mut l, at, 32_000), at + SimTime::from_us(2));
    }
}
