//! Run reports: execution time plus the wire-traffic breakdown of Fig 10.

use std::collections::HashMap;

use finepack::{EgressMetrics, ReplayAmplification};
use sim_engine::SimTime;

use crate::paradigm::Paradigm;

/// A multiply-xor hasher for line addresses (splitmix64 finalizer).
///
/// The tracker hashes one `u64` per 128B line of every traced store;
/// SipHash's per-call setup dominates that workload, while map behavior
/// (lookup/insert only, no iteration) never observes hash order — so a
/// fast deterministic mix is both safe and measurably faster.
#[derive(Debug, Default, Clone)]
struct LineHasher(u64);

impl std::hash::Hasher for LineHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u64(&mut self, x: u64) {
        let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 = z ^ (z >> 31);
    }
}

type LineMap = HashMap<u64, u128, std::hash::BuildHasherDefault<LineHasher>>;

/// Tracks unique bytes written per iteration (128B-line byte masks), to
/// separate "useful" from "redundant" transfers in Fig 10's sense.
#[derive(Debug, Default)]
pub struct UniqueTracker {
    lines: LineMap,
    unique_total: u64,
}

impl UniqueTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        UniqueTracker::default()
    }

    /// Records a store of `len` bytes at `addr`.
    pub fn add(&mut self, addr: u64, len: u32) {
        let mut cur = addr;
        let mut remaining = len;
        while remaining > 0 {
            let line = cur & !127;
            let off = (cur - line) as u32;
            let n = remaining.min(128 - off);
            let mask = if n == 128 {
                u128::MAX
            } else {
                ((1u128 << n) - 1) << off
            };
            let slot = self.lines.entry(line).or_insert(0);
            self.unique_total += u64::from((mask & !*slot).count_ones());
            *slot |= mask;
            cur += u64::from(n);
            remaining -= n;
        }
    }

    /// Credits `bytes` already known to be unique — computed once at
    /// workload-preparation time from the same (paradigm-independent)
    /// store stream — without touching the line map. This is the fast
    /// path the runner takes when the caller pre-aggregated an
    /// iteration; results are identical to replaying the stream through
    /// [`UniqueTracker::add`].
    pub fn add_precomputed(&mut self, bytes: u64) {
        self.unique_total += bytes;
    }

    /// Unique bytes recorded since the last [`UniqueTracker::barrier`].
    pub fn unique_bytes(&self) -> u64 {
        self.unique_total
    }

    /// Iteration barrier: values become final; subsequent writes to the
    /// same addresses count as unique again (they are next iteration's
    /// values, which consumers do read).
    pub fn barrier(&mut self) {
        self.lines.clear();
    }
}

/// The wire-byte classification of Fig 10.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrafficBreakdown {
    /// Bytes the destination GPU actually reads.
    pub useful: u64,
    /// Header/framing/padding bytes needed to perform the transfers.
    pub protocol: u64,
    /// Bytes transferred but never read, or overwritten by the source.
    pub wasted: u64,
}

impl TrafficBreakdown {
    /// Total bytes on the wire.
    pub fn total(&self) -> u64 {
        self.useful + self.protocol + self.wasted
    }
}

/// The result of simulating one (workload, paradigm, system) combination.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Workload name.
    pub workload: String,
    /// Paradigm simulated.
    pub paradigm: Paradigm,
    /// GPUs used.
    pub num_gpus: u8,
    /// Total simulated execution time (all iterations + barriers).
    pub total_time: SimTime,
    /// Time the slowest kernel was still computing (summed over
    /// iterations) — communication under this is fully overlapped.
    pub compute_time: SimTime,
    /// Drain tail: time spent finishing transfers after every kernel had
    /// ended (summed over iterations) — the exposed communication cost.
    pub drain_tail: SimTime,
    /// Barrier/launch overhead (summed over iterations).
    pub barrier_time: SimTime,
    /// Time GPU store streams spent stalled on egress backpressure
    /// (summed over GPUs and iterations); always zero under
    /// [`crate::FlowControlMode::Open`].
    pub stall_time: SimTime,
    /// Flow-control `UpdateFC` DLLPs received by senders across all
    /// link directions (zero in open-loop mode).
    pub fc_update_dllps: u64,
    /// Admission attempts that found a link out of credits.
    pub fc_blocked_attempts: u64,
    /// Wire-traffic classification (zero for the infinite-BW oracle).
    pub traffic: TrafficBreakdown,
    /// Merged egress metrics (empty for DMA / infinite-BW).
    pub egress: EgressMetrics,
    /// Unique bytes written across all GPUs and iterations.
    pub unique_bytes: u64,
    /// TLP bytes retransmitted by the data link layer (zero without
    /// fault injection); counted in `traffic.protocol`, never goodput.
    pub replayed_bytes: u64,
    /// Link retrains triggered by REPLAY_NUM escalation.
    pub link_retrains: u64,
    /// Replayed-byte attribution by flush reason and packet size.
    pub replay_amplification: ReplayAmplification,
    /// Discrete events the runner processed (event-queue pops plus DMA
    /// legs) — the numerator of harness-throughput reporting.
    pub sim_events: u64,
}

/// Schema version stamped into [`RunReport::canonical_json`]; bump on
/// any field addition, removal, or semantic change so downstream
/// tooling (and the farm's result cache) can detect format drift.
pub const REPORT_SCHEMA_VERSION: u32 = 1;

impl RunReport {
    /// Mean stores aggregated per packet (Fig 11), when applicable.
    pub fn mean_stores_per_packet(&self) -> Option<f64> {
        self.egress.mean_stores_per_packet()
    }

    /// A canonical machine-readable JSON rendering: fixed key order,
    /// integer times in picoseconds, `schema_version` first. Two equal
    /// reports always serialize byte-identically, which is what lets
    /// the sweep farm diff a cached report against a fresh run.
    pub fn canonical_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(640);
        let _ = write!(
            s,
            "{{\"schema_version\":{REPORT_SCHEMA_VERSION},\"workload\":\"{}\",\"paradigm\":\"{:?}\",\"num_gpus\":{}",
            self.workload, self.paradigm, self.num_gpus
        );
        let _ = write!(
            s,
            ",\"total_time_ps\":{},\"compute_time_ps\":{},\"drain_tail_ps\":{},\"barrier_time_ps\":{},\"stall_time_ps\":{}",
            self.total_time.as_ps(),
            self.compute_time.as_ps(),
            self.drain_tail.as_ps(),
            self.barrier_time.as_ps(),
            self.stall_time.as_ps()
        );
        let _ = write!(
            s,
            ",\"fc_update_dllps\":{},\"fc_blocked_attempts\":{}",
            self.fc_update_dllps, self.fc_blocked_attempts
        );
        let _ = write!(
            s,
            ",\"traffic\":{{\"useful\":{},\"protocol\":{},\"wasted\":{}}}",
            self.traffic.useful, self.traffic.protocol, self.traffic.wasted
        );
        let _ = write!(
            s,
            ",\"wire_packets\":{},\"wire_bytes\":{},\"stores_in\":{}",
            self.egress.packets, self.egress.wire_bytes, self.egress.stores_in
        );
        match self.mean_stores_per_packet() {
            // f64 Debug is shortest-roundtrip and always includes a
            // decimal point or exponent, so it is valid, stable JSON.
            Some(m) => {
                let _ = write!(s, ",\"mean_stores_per_packet\":{m:?}");
            }
            None => s.push_str(",\"mean_stores_per_packet\":null"),
        }
        let _ = write!(
            s,
            ",\"unique_bytes\":{},\"replayed_bytes\":{},\"link_retrains\":{},\"sim_events\":{}}}",
            self.unique_bytes, self.replayed_bytes, self.link_retrains, self.sim_events
        );
        s
    }

    /// Fraction of total time spent in the exposed communication tail —
    /// zero when transfers hide fully under compute.
    pub fn exposed_comm_fraction(&self) -> f64 {
        self.drain_tail.as_secs_f64() / self.total_time.as_secs_f64().max(f64::MIN_POSITIVE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unique_tracker_dedups_within_iteration() {
        let mut t = UniqueTracker::new();
        t.add(0x100, 8);
        t.add(0x100, 8); // rewrite: not unique
        t.add(0x104, 8); // half-overlapping
        assert_eq!(t.unique_bytes(), 12);
    }

    #[test]
    fn unique_tracker_resets_at_barrier() {
        let mut t = UniqueTracker::new();
        t.add(0x100, 8);
        t.barrier();
        t.add(0x100, 8); // next iteration's value: unique again
        assert_eq!(t.unique_bytes(), 16);
    }

    #[test]
    fn unique_tracker_handles_line_crossing() {
        let mut t = UniqueTracker::new();
        t.add(120, 16); // spans two 128B lines
        assert_eq!(t.unique_bytes(), 16);
    }

    #[test]
    fn breakdown_total() {
        let b = TrafficBreakdown {
            useful: 10,
            protocol: 5,
            wasted: 3,
        };
        assert_eq!(b.total(), 18);
    }
}
