//! Baseline egress paths the paper compares against:
//!
//! - [`WriteCombiningEgress`]: cacheline-granularity write combining with
//!   no FinePack repacketization — each combined line leaves as ordinary
//!   memory-write TLPs. FinePack's §VI-A reports a further 24% wire-data
//!   reduction over this.
//! - [`GpsEgress`]: a GPS-like model (§VI-B): the same cacheline
//!   write combining, plus a publish–subscribe filter that drops stores
//!   to unsubscribed replicas. GPS wins where unsubscription removes
//!   enough traffic to offset its per-line TLP inefficiency; FinePack
//!   wins elsewhere — and needs no application porting.

use std::collections::{BTreeMap, VecDeque};

use gpu_model::{GpuId, RemoteStore};
use protocol::FramingModel;
use sim_engine::{DetRng, SimTime};

use crate::config::FinePackError;
use crate::egress::{
    EgressMetrics, EgressPath, OutputBuffer, PacketStores, PayloadMode, WirePacket,
};
use crate::rwq::FlushedEntry;

/// Per-destination cacheline combining buffer with FIFO eviction.
#[derive(Debug, Default)]
struct LineBuffer {
    lines: BTreeMap<u64, (u128, Vec<u8>, u64)>, // line -> (mask, data, stores_merged)
    fifo: VecDeque<u64>,
}

fn span_mask(offset: u32, len: u32) -> u128 {
    if len == 128 {
        u128::MAX
    } else {
        ((1u128 << len) - 1) << offset
    }
}

impl LineBuffer {
    /// Inserts a store; returns an evicted line if capacity was exceeded.
    /// With `buffer_payloads` off (timing-only runs) lines hold masks
    /// only and flushed entries carry empty `data`.
    fn insert(
        &mut self,
        addr: u64,
        data: &[u8],
        capacity: usize,
        overwritten: &mut u64,
        buffer_payloads: bool,
    ) -> Option<(u64, FlushedEntry, u64)> {
        let line_addr = addr & !127;
        let off = (addr - line_addr) as u32;
        let incoming = span_mask(off, data.len() as u32);
        let mut evicted = None;
        if !self.lines.contains_key(&line_addr) && self.lines.len() >= capacity {
            let victim = self.fifo.pop_front().expect("fifo tracks lines");
            let (mask, vdata, merged) = self.lines.remove(&victim).expect("line present");
            evicted = Some((
                victim,
                FlushedEntry {
                    line_addr: victim,
                    mask,
                    data: vdata,
                },
                merged,
            ));
        }
        match self.lines.get_mut(&line_addr) {
            Some((mask, buf, merged)) => {
                *overwritten += u64::from((incoming & *mask).count_ones());
                *mask |= incoming;
                if buffer_payloads {
                    buf[off as usize..off as usize + data.len()].copy_from_slice(data);
                }
                *merged += 1;
            }
            None => {
                let buf = if buffer_payloads {
                    let mut buf = vec![0u8; 128];
                    buf[off as usize..off as usize + data.len()].copy_from_slice(data);
                    buf
                } else {
                    Vec::new()
                };
                self.lines.insert(line_addr, (incoming, buf, 1));
                self.fifo.push_back(line_addr);
            }
        }
        evicted
    }

    fn drain(&mut self) -> Vec<(FlushedEntry, u64)> {
        self.fifo.clear();
        std::mem::take(&mut self.lines)
            .into_iter()
            .map(|(line_addr, (mask, data, merged))| {
                (
                    FlushedEntry {
                        line_addr,
                        mask,
                        data,
                    },
                    merged,
                )
            })
            .collect()
    }
}

fn validate(store: &RemoteStore) -> Result<(u64, u32), FinePackError> {
    let len = store.len();
    if len == 0 || len > 128 {
        return Err(FinePackError::StoreTooLarge { len, max: 128 });
    }
    let off = (store.addr % 128) as u32;
    if off + len > 128 {
        return Err(FinePackError::StoreCrossesBlock {
            addr: store.addr,
            len,
        });
    }
    Ok((store.addr & !127, off))
}

/// Write combining at cacheline granularity, emitting plain memory-write
/// TLPs (one per contiguous valid-byte run).
#[derive(Debug)]
pub struct WriteCombiningEgress {
    src: GpuId,
    framing: FramingModel,
    capacity: usize,
    buffers: BTreeMap<GpuId, LineBuffer>,
    metrics: EgressMetrics,
    out: OutputBuffer,
    payload_mode: PayloadMode,
}

impl WriteCombiningEgress {
    /// Creates a write-combining egress with `capacity` lines per
    /// destination (the paper's structures use 64).
    pub fn new(src: GpuId, framing: FramingModel, capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        WriteCombiningEgress {
            src,
            framing,
            capacity,
            buffers: BTreeMap::new(),
            metrics: new_metrics(),
            out: OutputBuffer::default(),
            payload_mode: PayloadMode::Full,
        }
    }

    fn emit_entry(&mut self, dst: GpuId, entry: FlushedEntry, merged: u64) -> Vec<WirePacket> {
        let runs = entry.runs();
        let n = runs.len() as u64;
        runs.into_iter()
            .enumerate()
            .map(|(i, (off, len))| {
                let addr = entry.line_addr + u64::from(off);
                let wire = self.framing.wire_bytes(len);
                self.metrics.packets += 1;
                self.metrics.wire_bytes += wire;
                self.metrics.data_bytes += u64::from(len);
                let share = merged / n + u64::from((i as u64) < merged % n);
                self.metrics.stores_per_packet.record(share);
                let stores = match self.payload_mode {
                    PayloadMode::Extents => PacketStores::Extents(vec![(addr, len)]),
                    PayloadMode::Full => PacketStores::Full(vec![RemoteStore {
                        src: self.src,
                        dst,
                        addr,
                        data: entry.data[off as usize..(off + len) as usize].to_vec(),
                    }]),
                };
                WirePacket {
                    dst,
                    wire_bytes: wire,
                    data_bytes: u64::from(len),
                    payload_bytes: len,
                    reason: None,
                    stores,
                }
            })
            .collect()
    }
}

fn new_metrics() -> EgressMetrics {
    // EgressMetrics has no public constructor by design; clone a fresh one
    // through the egress paths' shared helper.
    EgressMetrics::default()
}

impl EgressPath for WriteCombiningEgress {
    fn push(
        &mut self,
        store: &RemoteStore,
        _now: SimTime,
    ) -> Result<Vec<WirePacket>, FinePackError> {
        validate(store)?;
        self.metrics.stores_in += 1;
        self.metrics.bytes_in += u64::from(store.len());
        let mut overwritten = 0u64;
        let buffer_payloads = matches!(self.payload_mode, PayloadMode::Full);
        let evicted = self.buffers.entry(store.dst).or_default().insert(
            store.addr,
            &store.data,
            self.capacity,
            &mut overwritten,
            buffer_payloads,
        );
        self.metrics.overwritten_bytes += overwritten;
        match evicted {
            Some((_, entry, merged)) => Ok(self.emit_entry(store.dst, entry, merged)),
            None => Ok(Vec::new()),
        }
    }

    fn release(&mut self) -> Vec<WirePacket> {
        let mut out = Vec::new();
        let dsts: Vec<GpuId> = self.buffers.keys().copied().collect();
        for dst in dsts {
            let drained = self.buffers.get_mut(&dst).expect("dst present").drain();
            for (entry, merged) in drained {
                out.extend(self.emit_entry(dst, entry, merged));
            }
        }
        out
    }

    fn metrics(&self) -> &EgressMetrics {
        &self.metrics
    }

    fn name(&self) -> &'static str {
        "write-combining"
    }

    fn output(&mut self) -> &mut OutputBuffer {
        &mut self.out
    }

    fn output_ref(&self) -> &OutputBuffer {
        &self.out
    }

    fn record_stall(&mut self, stalled: SimTime) {
        self.metrics.stall_time += stalled;
    }

    fn set_payload_mode(&mut self, mode: PayloadMode) {
        self.payload_mode = mode;
    }
}

/// GPS-like egress: cacheline write combining plus publish–subscribe
/// filtering. Combined lines leave as memory-write TLPs covering each
/// dirty byte run (DW-padded on the wire — GPS's "unneeded transfers
/// within a cacheline"), and a configurable fraction of stores targets
/// unsubscribed replicas and is dropped entirely (GPS's dynamic
/// unsubscription benefit).
#[derive(Debug)]
pub struct GpsEgress {
    src: GpuId,
    framing: FramingModel,
    capacity: usize,
    /// Probability an incoming store targets an unsubscribed replica and
    /// is dropped (GPS's dynamic-unsubscription benefit).
    unsubscribed_fraction: f64,
    rng: DetRng,
    buffers: BTreeMap<GpuId, LineBuffer>,
    metrics: EgressMetrics,
    out: OutputBuffer,
    payload_mode: PayloadMode,
    /// Stores filtered out by subscription.
    pub stores_filtered: u64,
}

impl GpsEgress {
    /// Creates a GPS-like egress.
    ///
    /// # Panics
    ///
    /// Panics if `unsubscribed_fraction` is outside `[0, 1]` or
    /// `capacity` is zero.
    pub fn new(
        src: GpuId,
        framing: FramingModel,
        capacity: usize,
        unsubscribed_fraction: f64,
        seed: u64,
    ) -> Self {
        assert!((0.0..=1.0).contains(&unsubscribed_fraction));
        assert!(capacity > 0);
        GpsEgress {
            src,
            framing,
            capacity,
            unsubscribed_fraction,
            rng: DetRng::new(seed, &format!("gps-{}", src.index())),
            buffers: BTreeMap::new(),
            metrics: new_metrics(),
            out: OutputBuffer::default(),
            payload_mode: PayloadMode::Full,
            stores_filtered: 0,
        }
    }

    fn emit_entry(&mut self, dst: GpuId, entry: FlushedEntry, merged: u64) -> Vec<WirePacket> {
        let runs = entry.runs();
        let n = runs.len() as u64;
        runs.into_iter()
            .enumerate()
            .map(|(i, (off, len))| {
                let addr = entry.line_addr + u64::from(off);
                let wire = self.framing.wire_bytes(len);
                self.metrics.packets += 1;
                self.metrics.wire_bytes += wire;
                self.metrics.data_bytes += u64::from(len);
                let share = merged / n + u64::from((i as u64) < merged % n);
                self.metrics.stores_per_packet.record(share);
                let stores = match self.payload_mode {
                    PayloadMode::Extents => PacketStores::Extents(vec![(addr, len)]),
                    PayloadMode::Full => PacketStores::Full(vec![RemoteStore {
                        src: self.src,
                        dst,
                        addr,
                        data: entry.data[off as usize..(off + len) as usize].to_vec(),
                    }]),
                };
                WirePacket {
                    dst,
                    wire_bytes: wire,
                    data_bytes: u64::from(len),
                    payload_bytes: len,
                    reason: None,
                    stores,
                }
            })
            .collect()
    }
}

impl EgressPath for GpsEgress {
    fn push(
        &mut self,
        store: &RemoteStore,
        _now: SimTime,
    ) -> Result<Vec<WirePacket>, FinePackError> {
        validate(store)?;
        self.metrics.stores_in += 1;
        self.metrics.bytes_in += u64::from(store.len());
        if self.rng.chance(self.unsubscribed_fraction) {
            self.stores_filtered += 1;
            return Ok(Vec::new());
        }
        let mut overwritten = 0u64;
        let buffer_payloads = matches!(self.payload_mode, PayloadMode::Full);
        let evicted = self.buffers.entry(store.dst).or_default().insert(
            store.addr,
            &store.data,
            self.capacity,
            &mut overwritten,
            buffer_payloads,
        );
        self.metrics.overwritten_bytes += overwritten;
        match evicted {
            Some((_, entry, merged)) => Ok(self.emit_entry(store.dst, entry, merged)),
            None => Ok(Vec::new()),
        }
    }

    fn release(&mut self) -> Vec<WirePacket> {
        let mut out = Vec::new();
        let dsts: Vec<GpuId> = self.buffers.keys().copied().collect();
        for dst in dsts {
            let drained = self.buffers.get_mut(&dst).expect("dst present").drain();
            for (entry, merged) in drained {
                out.extend(self.emit_entry(dst, entry, merged));
            }
        }
        out
    }

    fn metrics(&self) -> &EgressMetrics {
        &self.metrics
    }

    fn name(&self) -> &'static str {
        "gps"
    }

    fn output(&mut self) -> &mut OutputBuffer {
        &mut self.out
    }

    fn output_ref(&self) -> &OutputBuffer {
        &self.out
    }

    fn record_stall(&mut self, stalled: SimTime) {
        self.metrics.stall_time += stalled;
    }

    fn set_payload_mode(&mut self, mode: PayloadMode) {
        self.payload_mode = mode;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(dst: u8, addr: u64, len: usize, val: u8) -> RemoteStore {
        RemoteStore {
            src: GpuId::new(0),
            dst: GpuId::new(dst),
            addr,
            data: vec![val; len],
        }
    }

    #[test]
    fn wc_combines_within_a_line_only() {
        let mut wc = WriteCombiningEgress::new(GpuId::new(0), FramingModel::pcie_gen4(), 64);
        wc.push(&store(1, 0x1000, 8, 1), SimTime::ZERO).unwrap();
        wc.push(&store(1, 0x1008, 8, 2), SimTime::ZERO).unwrap();
        let pkts = wc.release();
        // Contiguous within the line: one run, one packet.
        assert_eq!(pkts.len(), 1);
        assert_eq!(pkts[0].data_bytes, 16);
    }

    #[test]
    fn wc_fragmented_line_emits_multiple_tlps() {
        let mut wc = WriteCombiningEgress::new(GpuId::new(0), FramingModel::pcie_gen4(), 64);
        wc.push(&store(1, 0x1000, 4, 1), SimTime::ZERO).unwrap();
        wc.push(&store(1, 0x1020, 4, 2), SimTime::ZERO).unwrap();
        let pkts = wc.release();
        assert_eq!(pkts.len(), 2);
    }

    #[test]
    fn wc_fifo_eviction() {
        let mut wc = WriteCombiningEgress::new(GpuId::new(0), FramingModel::pcie_gen4(), 2);
        wc.push(&store(1, 0, 4, 1), SimTime::ZERO).unwrap();
        wc.push(&store(1, 128, 4, 2), SimTime::ZERO).unwrap();
        let evicted = wc.push(&store(1, 2 * 128, 4, 3), SimTime::ZERO).unwrap();
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].stores.full().unwrap()[0].addr, 0); // oldest line left first
    }

    #[test]
    fn wc_overwrites_are_elided() {
        let mut wc = WriteCombiningEgress::new(GpuId::new(0), FramingModel::pcie_gen4(), 64);
        wc.push(&store(1, 0x1000, 8, 1), SimTime::ZERO).unwrap();
        wc.push(&store(1, 0x1000, 8, 9), SimTime::ZERO).unwrap();
        let pkts = wc.release();
        assert_eq!(pkts[0].data_bytes, 8);
        assert_eq!(pkts[0].stores.full().unwrap()[0].data, vec![9; 8]);
        assert_eq!(wc.metrics().overwritten_bytes, 8);
    }

    #[test]
    fn gps_ships_dirty_runs_without_subscription_loss() {
        let mut gps = GpsEgress::new(GpuId::new(0), FramingModel::pcie_gen4(), 64, 0.0, 1);
        gps.push(&store(1, 0x1000, 4, 1), SimTime::ZERO).unwrap();
        let pkts = gps.release();
        assert_eq!(pkts.len(), 1);
        // One 4B dirty run: 4B payload + 24B overhead.
        assert_eq!(pkts[0].wire_bytes, 28);
        assert_eq!(pkts[0].data_bytes, 4);
    }

    #[test]
    fn gps_subscription_drops_stores() {
        let mut gps = GpsEgress::new(GpuId::new(0), FramingModel::pcie_gen4(), 64, 1.0, 1);
        gps.push(&store(1, 0x1000, 4, 1), SimTime::ZERO).unwrap();
        assert!(gps.release().is_empty());
        assert_eq!(gps.stores_filtered, 1);
    }

    #[test]
    fn wc_beats_raw_but_loses_to_finepack() {
        use crate::egress::{FinePackEgress, RawP2pEgress};
        use crate::FinePackConfig;
        let framing = FramingModel::pcie_gen4();
        let mut fp = FinePackEgress::new(GpuId::new(0), FinePackConfig::paper(4), framing);
        let mut wc = WriteCombiningEgress::new(GpuId::new(0), framing, 64);
        let mut p2p = RawP2pEgress::new(framing);
        // Scattered 8B stores, two per line.
        for i in 0..200u64 {
            let s = store(1, 0x1_0000 + (i / 2) * 128 + (i % 2) * 8, 8, i as u8);
            fp.push(&s, SimTime::ZERO).unwrap();
            wc.push(&s, SimTime::ZERO).unwrap();
            p2p.push(&s, SimTime::ZERO).unwrap();
        }
        fp.release();
        wc.release();
        let (f, w, p) = (
            fp.metrics().wire_bytes,
            wc.metrics().wire_bytes,
            p2p.metrics().wire_bytes,
        );
        assert!(f < w, "finepack {f} !< wc {w}");
        assert!(w < p, "wc {w} !< p2p {p}");
    }

    #[test]
    fn invalid_stores_rejected() {
        let mut wc = WriteCombiningEgress::new(GpuId::new(0), FramingModel::pcie_gen4(), 64);
        assert!(wc.push(&store(1, 0x7c, 8, 0), SimTime::ZERO).is_err()); // crosses block
        let mut gps = GpsEgress::new(GpuId::new(0), FramingModel::pcie_gen4(), 64, 0.0, 1);
        assert!(gps.push(&store(1, 0, 129, 0), SimTime::ZERO).is_err());
    }
}
