//! The de-packetizer (§IV-B): at the destination GPU's ingress port,
//! breaks a FinePack transaction back into individual stores, rebases
//! their addresses, buffers them (64 × 128B), and issues them to the
//! local memory system.

use gpu_model::{GpuId, MemoryImage};
use sim_engine::{Bandwidth, SimTime};

use crate::config::{FinePackError, SubheaderFormat};
use crate::packet::{DeliveredStore, FinePackPacket};

/// Ingress-side de-packetizer with the paper's 64-entry × 128B buffer,
/// draining into the GPU's memory system at local-memory bandwidth.
///
/// # Examples
///
/// ```
/// use finepack::{Depacketizer, FinePackPacket, SubPacket, SubheaderFormat};
/// use gpu_model::{GpuId, MemoryImage};
///
/// let pkt = FinePackPacket {
///     src: GpuId::new(0),
///     dst: GpuId::new(1),
///     base_addr: 0x1000,
///     subheader: SubheaderFormat::paper(),
///     subpackets: vec![SubPacket { offset: 4, data: vec![9, 9] }],
/// };
/// let mut depk = Depacketizer::new();
/// let mut mem = MemoryImage::new();
/// depk.deliver(&pkt, &mut mem);
/// assert_eq!(mem.read(0x1004, 2), vec![9, 9]);
/// ```
#[derive(Debug, Clone)]
pub struct Depacketizer {
    /// Buffer capacity in entries (Table: 64 entries of 128B).
    buffer_entries: u32,
    /// Entry size in bytes.
    entry_bytes: u32,
    /// Drain bandwidth into the local memory system.
    drain_bandwidth: Bandwidth,
    /// Total stores disaggregated.
    stores_delivered: u64,
    /// Total data bytes delivered.
    bytes_delivered: u64,
    /// Peak buffer occupancy observed (entries).
    peak_occupancy: u32,
    /// Arrivals rejected before delivery (failed LCRC or malformed
    /// payload): the whole aggregated TLP bounces and must replay.
    packets_rejected: u64,
}

impl Default for Depacketizer {
    fn default() -> Self {
        Self::new()
    }
}

impl Depacketizer {
    /// Creates a de-packetizer with the paper's buffer geometry and a
    /// 900 GB/s HBM-class drain rate.
    pub fn new() -> Self {
        Depacketizer {
            buffer_entries: 64,
            entry_bytes: 128,
            drain_bandwidth: Bandwidth::from_gbps(900.0),
            stores_delivered: 0,
            bytes_delivered: 0,
            peak_occupancy: 0,
            packets_rejected: 0,
        }
    }

    /// Buffer capacity in bytes.
    pub fn buffer_bytes(&self) -> u32 {
        self.buffer_entries * self.entry_bytes
    }

    /// Disaggregates `packet` and applies its stores to `mem`.
    /// Returns the stores in packet order.
    pub fn deliver(
        &mut self,
        packet: &FinePackPacket,
        mem: &mut MemoryImage,
    ) -> Vec<DeliveredStore> {
        let stores = packet.to_stores();
        let occupancy = (packet.data_bytes().div_ceil(self.entry_bytes)).min(self.buffer_entries);
        self.peak_occupancy = self.peak_occupancy.max(occupancy);
        for s in &stores {
            mem.write(s.addr, &s.data);
            self.stores_delivered += 1;
            self.bytes_delivered += u64::from(s.len());
        }
        stores
    }

    /// Time to drain one packet's data into the local memory system.
    /// The disaggregated transactions cannot all be consumed by L2 in the
    /// same cycle (§IV-B), so delivery is serialized at drain bandwidth.
    pub fn drain_time(&self, packet: &FinePackPacket) -> SimTime {
        self.drain_bandwidth
            .transfer_time(u64::from(packet.data_bytes()))
    }

    /// Total stores disaggregated so far.
    pub fn stores_delivered(&self) -> u64 {
        self.stores_delivered
    }

    /// Total data bytes delivered so far.
    pub fn bytes_delivered(&self) -> u64 {
        self.bytes_delivered
    }

    /// Peak buffer occupancy in entries.
    pub fn peak_occupancy(&self) -> u32 {
        self.peak_occupancy
    }

    /// Decodes a wire buffer and delivers it, rejecting corruption.
    ///
    /// This is the ingress path under fault injection: `lcrc_ok` carries
    /// the data link layer's verdict. A failed LCRC — or a payload that
    /// no longer parses — rejects the *entire* aggregated transaction:
    /// FinePack has no sub-packet retry, so the whole TLP replays as a
    /// unit from the sender's replay buffer. Nothing is written to `mem`
    /// on rejection.
    ///
    /// # Errors
    ///
    /// [`FinePackError::Decode`] when `lcrc_ok` is false or the payload
    /// is malformed; the rejection counter increments either way.
    pub fn deliver_wire(
        &mut self,
        wire: &[u8],
        subheader: SubheaderFormat,
        src: GpuId,
        dst: GpuId,
        lcrc_ok: bool,
        mem: &mut MemoryImage,
    ) -> Result<Vec<DeliveredStore>, FinePackError> {
        if !lcrc_ok {
            self.packets_rejected += 1;
            return Err(FinePackError::Decode(
                protocol::ProtocolError::InvalidField("LCRC"),
            ));
        }
        let packet = match FinePackPacket::decode(wire, subheader, src, dst) {
            Ok(p) => p,
            Err(e) => {
                self.packets_rejected += 1;
                return Err(e);
            }
        };
        Ok(self.deliver(&packet, mem))
    }

    /// Arrivals rejected before delivery.
    pub fn packets_rejected(&self) -> u64 {
        self.packets_rejected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SubheaderFormat;
    use crate::packet::SubPacket;
    use gpu_model::GpuId;

    fn packet(n: usize, size: usize) -> FinePackPacket {
        FinePackPacket {
            src: GpuId::new(0),
            dst: GpuId::new(1),
            base_addr: 0x10_0000,
            subheader: SubheaderFormat::paper(),
            subpackets: (0..n)
                .map(|i| SubPacket {
                    offset: (i * 256) as u64,
                    data: vec![i as u8; size],
                })
                .collect(),
        }
    }

    #[test]
    fn delivery_applies_all_stores() {
        let mut d = Depacketizer::new();
        let mut mem = MemoryImage::new();
        let pkt = packet(10, 16);
        let stores = d.deliver(&pkt, &mut mem);
        assert_eq!(stores.len(), 10);
        assert_eq!(d.stores_delivered(), 10);
        assert_eq!(d.bytes_delivered(), 160);
        for (i, s) in stores.iter().enumerate() {
            assert_eq!(mem.read(s.addr, 16), vec![i as u8; 16]);
        }
    }

    #[test]
    fn buffer_geometry_matches_paper() {
        let d = Depacketizer::new();
        assert_eq!(d.buffer_bytes(), 64 * 128);
    }

    #[test]
    fn drain_time_scales_with_data() {
        let d = Depacketizer::new();
        let small = d.drain_time(&packet(1, 8));
        let large = d.drain_time(&packet(100, 8));
        assert!(large > small);
    }

    #[test]
    fn corrupted_arrival_is_rejected_whole() {
        let mut d = Depacketizer::new();
        let mut mem = MemoryImage::new();
        let pkt = packet(10, 16);
        let wire = pkt.encode();
        // LCRC failure: nothing lands, the rejection is counted.
        let err = d.deliver_wire(
            &wire,
            SubheaderFormat::paper(),
            pkt.src,
            pkt.dst,
            false,
            &mut mem,
        );
        assert!(err.is_err());
        assert_eq!(d.packets_rejected(), 1);
        assert_eq!(d.stores_delivered(), 0);
        assert!(mem.same_contents(&MemoryImage::new()));
        // The replayed (clean) copy delivers everything.
        let stores = d
            .deliver_wire(
                &wire,
                SubheaderFormat::paper(),
                pkt.src,
                pkt.dst,
                true,
                &mut mem,
            )
            .unwrap();
        assert_eq!(stores.len(), 10);
        assert_eq!(d.stores_delivered(), 10);
        assert_eq!(d.packets_rejected(), 1);
    }

    #[test]
    fn malformed_payload_is_rejected() {
        let mut d = Depacketizer::new();
        let mut mem = MemoryImage::new();
        let mut wire = packet(4, 16).encode();
        wire.truncate(20); // truncated mid-subpacket
        let err = d.deliver_wire(
            &wire,
            SubheaderFormat::paper(),
            GpuId::new(0),
            GpuId::new(1),
            true,
            &mut mem,
        );
        assert!(err.is_err());
        assert_eq!(d.packets_rejected(), 1);
    }

    #[test]
    fn occupancy_is_tracked() {
        let mut d = Depacketizer::new();
        let mut mem = MemoryImage::new();
        d.deliver(&packet(4, 128), &mut mem);
        assert_eq!(d.peak_occupancy(), 4);
        d.deliver(&packet(1, 8), &mut mem);
        assert_eq!(d.peak_occupancy(), 4); // peak retained
    }
}
