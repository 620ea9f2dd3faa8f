//! Replay-amplification accounting: when the data link layer replays a
//! FinePack TLP, the *whole* aggregated transaction retransmits as a
//! unit — a large packet full of coalesced stores costs more wire bytes
//! per bit error than the small TLPs it replaced. This module attributes
//! those replayed bytes to the flush reason that produced each packet
//! and to the packet's size class, so the faults experiment can report
//! where the amplification comes from.

use sim_engine::Histogram;

use crate::rwq::FlushReason;

/// Replayed-byte attribution across flush reasons and packet sizes.
///
/// # Examples
///
/// ```
/// use finepack::{FlushReason, ReplayAmplification};
///
/// let mut amp = ReplayAmplification::new();
/// amp.record(Some(FlushReason::Release), 4096, 8192); // replayed twice
/// amp.record(None, 32, 32); // an uncoalesced packet replayed once
/// assert_eq!(amp.total_replayed(), 8224);
/// assert_eq!(amp.replayed_for(Some(FlushReason::Release)), 8192);
/// assert_eq!(amp.replayed_for(None), 32);
/// ```
#[derive(Debug, Clone)]
pub struct ReplayAmplification {
    /// Replayed bytes per [`FlushReason::ALL`] position; the final slot
    /// collects packets with no flush attribution (raw stores, atomics).
    by_reason: [u64; FlushReason::ALL.len() + 1],
    /// Wire size of each replayed packet, once per replay event —
    /// shows whether big aggregated TLPs or small ones bear the retries.
    replayed_packet_sizes: Histogram,
    /// Packets that suffered at least one replay.
    packets_replayed: u64,
    /// Total bytes retransmitted.
    total_replayed: u64,
}

impl Default for ReplayAmplification {
    fn default() -> Self {
        ReplayAmplification::new()
    }
}

impl ReplayAmplification {
    /// Creates an empty attribution table.
    pub fn new() -> Self {
        ReplayAmplification {
            by_reason: [0; FlushReason::ALL.len() + 1],
            replayed_packet_sizes: Histogram::new("replayed_packet_wire_bytes"),
            packets_replayed: 0,
            total_replayed: 0,
        }
    }

    fn slot(reason: Option<FlushReason>) -> usize {
        match reason {
            Some(r) => r.index(),
            None => FlushReason::ALL.len(),
        }
    }

    /// Records that a packet of `wire_bytes` (produced by `reason`, if
    /// it left a FinePack queue) incurred `replayed_bytes` of
    /// retransmission. No-op when `replayed_bytes` is zero.
    pub fn record(&mut self, reason: Option<FlushReason>, wire_bytes: u64, replayed_bytes: u64) {
        if replayed_bytes == 0 {
            return;
        }
        self.by_reason[Self::slot(reason)] += replayed_bytes;
        self.replayed_packet_sizes.record(wire_bytes);
        self.packets_replayed += 1;
        self.total_replayed += replayed_bytes;
    }

    /// Replayed bytes attributed to `reason` (`None` = unattributed).
    pub fn replayed_for(&self, reason: Option<FlushReason>) -> u64 {
        self.by_reason[Self::slot(reason)]
    }

    /// Total bytes retransmitted.
    pub fn total_replayed(&self) -> u64 {
        self.total_replayed
    }

    /// Packets that replayed at least once.
    pub fn packets_replayed(&self) -> u64 {
        self.packets_replayed
    }

    /// Wire-size distribution of replayed packets.
    pub fn replayed_packet_sizes(&self) -> &Histogram {
        &self.replayed_packet_sizes
    }

    /// Mean replayed bytes per replayed packet, or `None` if nothing
    /// replayed.
    pub fn mean_replay_cost(&self) -> Option<f64> {
        (self.packets_replayed > 0)
            .then(|| self.total_replayed as f64 / self.packets_replayed as f64)
    }

    /// Merges another table (e.g. across iterations or GPUs).
    pub fn merge(&mut self, other: &ReplayAmplification) {
        for (a, b) in self.by_reason.iter_mut().zip(other.by_reason.iter()) {
            *a += b;
        }
        self.replayed_packet_sizes
            .merge(&other.replayed_packet_sizes);
        self.packets_replayed += other.packets_replayed;
        self.total_replayed += other.total_replayed;
    }

    /// `(label, replayed bytes)` rows for non-zero reasons, report-ready.
    pub fn rows(&self) -> Vec<(&'static str, u64)> {
        let mut out = Vec::new();
        for (i, r) in FlushReason::ALL.iter().enumerate() {
            if self.by_reason[i] > 0 {
                out.push((r.label(), self.by_reason[i]));
            }
        }
        if self.by_reason[FlushReason::ALL.len()] > 0 {
            out.push(("uncoalesced", self.by_reason[FlushReason::ALL.len()]));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribution_by_reason_and_size() {
        let mut amp = ReplayAmplification::new();
        amp.record(Some(FlushReason::PayloadFull), 4096, 4096);
        amp.record(Some(FlushReason::PayloadFull), 4096, 8192);
        amp.record(Some(FlushReason::Release), 256, 256);
        amp.record(None, 32, 64);
        assert_eq!(amp.total_replayed(), 4096 + 8192 + 256 + 64);
        assert_eq!(amp.replayed_for(Some(FlushReason::PayloadFull)), 12288);
        assert_eq!(amp.replayed_for(Some(FlushReason::Release)), 256);
        assert_eq!(amp.replayed_for(Some(FlushReason::WindowMiss)), 0);
        assert_eq!(amp.replayed_for(None), 64);
        assert_eq!(amp.packets_replayed(), 4);
        assert_eq!(amp.replayed_packet_sizes().total(), 4);
    }

    #[test]
    fn zero_replay_is_a_noop() {
        let mut amp = ReplayAmplification::new();
        amp.record(Some(FlushReason::Release), 4096, 0);
        assert_eq!(amp.total_replayed(), 0);
        assert_eq!(amp.packets_replayed(), 0);
        assert_eq!(amp.mean_replay_cost(), None);
        assert!(amp.rows().is_empty());
    }

    #[test]
    fn merge_accumulates() {
        let mut a = ReplayAmplification::new();
        a.record(Some(FlushReason::Release), 100, 100);
        let mut b = ReplayAmplification::new();
        b.record(Some(FlushReason::Release), 200, 400);
        b.record(None, 50, 50);
        a.merge(&b);
        assert_eq!(a.total_replayed(), 550);
        assert_eq!(a.replayed_for(Some(FlushReason::Release)), 500);
        assert_eq!(a.mean_replay_cost(), Some(550.0 / 3.0));
        let rows = a.rows();
        assert_eq!(rows, vec![("release", 500), ("uncoalesced", 50)]);
    }
}
