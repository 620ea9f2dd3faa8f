//! Replay-amplification accounting: when the data link layer replays a
//! FinePack TLP, the *whole* aggregated transaction retransmits as a
//! unit — a large packet full of coalesced stores costs more wire bytes
//! per bit error than the small TLPs it replaced. This module attributes
//! those replayed bytes to the flush reason that produced each packet,
//! so the faults experiment can report where the amplification comes
//! from.

use crate::rwq::FlushReason;

/// Replayed-byte attribution across flush reasons.
///
/// # Examples
///
/// ```
/// use finepack::{FlushReason, ReplayAmplification};
///
/// let mut amp = ReplayAmplification::new();
/// amp.record(Some(FlushReason::Release), 8192); // replayed twice
/// amp.record(None, 32); // an uncoalesced packet replayed once
/// assert_eq!(amp.total_replayed(), 8224);
/// assert_eq!(amp.rows(), vec![("release", 8192), ("uncoalesced", 32)]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ReplayAmplification {
    /// Replayed bytes per [`FlushReason::ALL`] position; the final slot
    /// collects packets with no flush attribution (raw stores, atomics).
    by_reason: [u64; FlushReason::ALL.len() + 1],
    /// Packets that suffered at least one replay.
    packets_replayed: u64,
    /// Total bytes retransmitted.
    total_replayed: u64,
}

impl ReplayAmplification {
    /// Creates an empty attribution table.
    pub fn new() -> Self {
        ReplayAmplification::default()
    }

    /// Records that a packet (produced by `reason`, if it left a
    /// FinePack queue) incurred `replayed_bytes` of retransmission.
    /// No-op when `replayed_bytes` is zero.
    pub fn record(&mut self, reason: Option<FlushReason>, replayed_bytes: u64) {
        if replayed_bytes == 0 {
            return;
        }
        let slot = reason.map_or(FlushReason::ALL.len(), FlushReason::index);
        self.by_reason[slot] += replayed_bytes;
        self.packets_replayed += 1;
        self.total_replayed += replayed_bytes;
    }

    /// Total bytes retransmitted.
    pub fn total_replayed(&self) -> u64 {
        self.total_replayed
    }

    /// Packets that replayed at least once.
    pub fn packets_replayed(&self) -> u64 {
        self.packets_replayed
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
    fn attribution_by_reason() {
        let mut amp = ReplayAmplification::new();
        amp.record(Some(FlushReason::PayloadFull), 4096);
        amp.record(Some(FlushReason::PayloadFull), 8192);
        amp.record(Some(FlushReason::Release), 256);
        amp.record(None, 64);
        assert_eq!(amp.total_replayed(), 4096 + 8192 + 256 + 64);
        assert_eq!(amp.packets_replayed(), 4);
        // Window misses replayed nothing, so they get no row.
        assert_eq!(
            amp.rows(),
            vec![
                ("payload-full", 12288),
                ("release", 256),
                ("uncoalesced", 64)
            ]
        );
    }

    #[test]
    fn zero_replay_is_a_noop() {
        let mut amp = ReplayAmplification::new();
        amp.record(Some(FlushReason::Release), 0);
        assert_eq!(amp.total_replayed(), 0);
        assert_eq!(amp.packets_replayed(), 0);
        assert!(amp.rows().is_empty());
    }
}
