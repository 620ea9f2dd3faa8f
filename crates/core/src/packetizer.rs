//! The packetizer (§IV-B): converts flushed remote-write-queue batches
//! into FinePack transactions, splitting non-contiguous byte runs into
//! separate sub-packets (the sub-header carries no byte enables) and
//! respecting the outer transaction's maximum payload.

use gpu_model::GpuId;

use crate::config::{FinePackConfig, SubheaderFormat};
use crate::packet::{FinePackPacket, SubPacket};
use crate::rwq::FlushedBatch;

/// One packed store's position inside a [`PacketLayout`]: which batch
/// entry it came from and where its bytes live — no payload is copied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayoutChunk {
    /// Index into the batch's `entries`.
    pub entry_idx: usize,
    /// Byte offset of the chunk within that entry's `data`.
    pub data_off: usize,
    /// Chunk length in bytes.
    pub len: u32,
    /// Byte offset from the packet's base address.
    pub offset: u64,
}

/// The shape of one outgoing FinePack transaction, computed without
/// touching payload bytes.
///
/// This is the packetizer's zero-copy core: timing-only (extents-mode)
/// egress consumes layouts directly, and [`packetize`] materializes
/// [`FinePackPacket`]s from them only when payload bytes are needed
/// (functional runs, wire encode/decode).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketLayout {
    /// Base address shared by all chunks (window-aligned).
    pub base_addr: u64,
    /// The packed stores, in emission order.
    pub chunks: Vec<LayoutChunk>,
}

impl PacketLayout {
    /// Payload bytes of the outer transaction (sub-headers + data).
    pub fn payload_bytes(&self, subheader: SubheaderFormat) -> u32 {
        self.chunks.iter().map(|c| subheader.bytes() + c.len).sum()
    }

    /// Data bytes carried (excluding sub-headers).
    pub fn data_bytes(&self) -> u32 {
        self.chunks.iter().map(|c| c.len).sum()
    }
}

/// Packetizes one flushed batch into one or more FinePack transactions.
///
/// All packets share the batch's window base address. A fresh packet is
/// started whenever adding the next run would exceed the configured
/// maximum payload (this can happen because the queue's payload-budget
/// register tracks merged stores, while fragmentation inside an entry can
/// add sub-headers at packetization time).
///
/// # Examples
///
/// ```
/// use finepack::{packetize, FinePackConfig, FlushReason, RemoteWriteQueue};
/// use gpu_model::{GpuId, RemoteStore};
///
/// let cfg = FinePackConfig::paper(4);
/// let mut rwq = RemoteWriteQueue::new(GpuId::new(0), cfg);
/// for i in 0..10u64 {
///     rwq.insert(&RemoteStore {
///         src: GpuId::new(0),
///         dst: GpuId::new(1),
///         addr: 0x1_0000 + i * 256,
///         len: 8,
///         value_seed: i,
///     })?;
/// }
/// let batches = rwq.flush_all(FlushReason::Release);
/// let packets = packetize(&batches[0], &cfg, GpuId::new(0));
/// assert_eq!(packets.len(), 1);
/// assert_eq!(packets[0].len(), 10); // ten stores share one outer header
/// # Ok::<(), finepack::FinePackError>(())
/// ```
pub fn packetize(batch: &FlushedBatch, cfg: &FinePackConfig, src: GpuId) -> Vec<FinePackPacket> {
    packetize_layout(batch, cfg)
        .into_iter()
        .map(|layout| FinePackPacket {
            src,
            dst: batch.dst,
            base_addr: layout.base_addr,
            subheader: cfg.subheader,
            subpackets: layout
                .chunks
                .into_iter()
                .map(|c| SubPacket {
                    offset: c.offset,
                    data: batch.entries[c.entry_idx].data[c.data_off..c.data_off + c.len as usize]
                        .to_vec(),
                })
                .collect(),
        })
        .collect()
}

/// The layout pass behind [`packetize`]: computes every packet's base
/// address and chunk placement without copying any payload bytes.
///
/// Split rules are identical to [`packetize`] (they share this code): a
/// fresh packet starts whenever a run crosses into a different address
/// window or adding the next chunk would exceed the configured maximum
/// payload.
pub fn packetize_layout(batch: &FlushedBatch, cfg: &FinePackConfig) -> Vec<PacketLayout> {
    if batch.entries.is_empty() {
        return Vec::new();
    }
    let subheader = cfg.subheader;
    let range = subheader.addressable_range();
    let mut packets = Vec::new();
    let mut current: Vec<LayoutChunk> = Vec::new();
    let mut payload: u32 = 0;
    let mut base = batch.window_base;

    let mut emit = |base: u64, current: &mut Vec<LayoutChunk>, payload: &mut u32| {
        if !current.is_empty() {
            packets.push(PacketLayout {
                base_addr: base,
                chunks: std::mem::take(current),
            });
            *payload = 0;
        }
    };

    for (entry_idx, entry) in batch.entries.iter().enumerate() {
        for (run_off, run_len) in entry.runs_iter() {
            // Runs may straddle window boundaries when the addressable
            // range is smaller than a queue entry (2-byte sub-headers,
            // Table II): split them so every offset fits its field.
            let mut start = entry.line_addr + u64::from(run_off);
            let mut remaining = run_len;
            while remaining > 0 {
                let run_base = subheader.window_base(start);
                let room = (run_base + range - start).min(u64::from(remaining)) as u32;
                if run_base != base {
                    emit(base, &mut current, &mut payload);
                    base = run_base;
                }
                // A run chunk never exceeds the entry size (<=128B), which
                // is always encodable in the 10-bit length field.
                let cost = subheader.bytes() + room;
                if payload + cost > cfg.max_payload {
                    emit(base, &mut current, &mut payload);
                }
                current.push(LayoutChunk {
                    entry_idx,
                    data_off: (start - entry.line_addr) as usize,
                    len: room,
                    offset: start - base,
                });
                payload += cost;
                start += u64::from(room);
                remaining -= room;
            }
        }
    }
    emit(base, &mut current, &mut payload);
    packets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rwq::{FlushReason, RemoteWriteQueue};
    use gpu_model::RemoteStore;

    fn store(addr: u64, len: u32, value_seed: u64) -> RemoteStore {
        RemoteStore {
            src: GpuId::new(0),
            dst: GpuId::new(1),
            addr,
            len,
            value_seed,
        }
    }

    #[test]
    fn fragmented_entry_splits_into_subpackets() {
        let cfg = FinePackConfig::paper(4);
        let mut rwq = RemoteWriteQueue::new(GpuId::new(0), cfg);
        rwq.insert(&store(0x1000, 4, 1)).unwrap();
        rwq.insert(&store(0x1010, 4, 2)).unwrap(); // gap within line
        let batches = rwq.flush_all(FlushReason::Release);
        let pkts = packetize(&batches[0], &cfg, GpuId::new(0));
        assert_eq!(pkts.len(), 1);
        assert_eq!(pkts[0].len(), 2);
        assert_eq!(pkts[0].subpackets[0].offset, 0x1000 - pkts[0].base_addr);
        assert_eq!(pkts[0].subpackets[1].offset, 0x1010 - pkts[0].base_addr);
    }

    #[test]
    fn overflow_splits_into_multiple_packets() {
        let mut cfg = FinePackConfig::paper(4);
        cfg.max_payload = 300; // fits two 128B entries + subheaders, not three
        let mut rwq = RemoteWriteQueue::new(GpuId::new(0), cfg);
        // Insert full 128B lines so the budget math is simple.
        for i in 0..2u64 {
            rwq.insert(&store(0x1000 + i * 128, 128, i)).unwrap();
        }
        let mut batches = rwq.flush_all(FlushReason::Release);
        // Force a third entry into the same batch artificially to make the
        // packetizer split (runs of 128+5 each: 266 fits, 399 does not).
        let extra = crate::rwq::FlushedEntry {
            line_addr: 0x1000 + 2 * 128,
            mask: u128::MAX,
            data: vec![3u8; 128],
        };
        batches[0].entries.push(extra);
        let pkts = packetize(&batches[0], &cfg, GpuId::new(0));
        assert_eq!(pkts.len(), 2);
        assert_eq!(pkts[0].len(), 2);
        assert_eq!(pkts[1].len(), 1);
        assert!(pkts.iter().all(|p| p.payload_bytes() <= 300));
    }

    #[test]
    fn empty_batch_yields_no_packets() {
        let batch = FlushedBatch {
            dst: GpuId::new(1),
            reason: FlushReason::Release,
            window_base: 0,
            entries: vec![],
            stores_merged: 0,
            overwritten_bytes: 0,
        };
        assert!(packetize(&batch, &FinePackConfig::paper(4), GpuId::new(0)).is_empty());
    }

    #[test]
    fn roundtrip_preserves_store_data() {
        let cfg = FinePackConfig::paper(4);
        let mut rwq = RemoteWriteQueue::new(GpuId::new(0), cfg);
        let stores: Vec<RemoteStore> = (0..20).map(|i| store(0x2_0000 + i * 96, 12, i)).collect();
        for s in &stores {
            rwq.insert(s).unwrap();
        }
        let batches = rwq.flush_all(FlushReason::Release);
        let mut unpacked = Vec::new();
        for b in &batches {
            for p in packetize(b, &cfg, GpuId::new(0)) {
                let wire = p.encode();
                let back = FinePackPacket::decode(&wire, cfg.subheader, p.src, p.dst).unwrap();
                unpacked.extend(back.to_stores());
            }
        }
        // Disjoint addresses: every original store must come back intact
        // (merged runs may concatenate adjacent stores, but these are 96B
        // apart with 12B payloads, so they stay distinct).
        assert_eq!(unpacked.len(), stores.len());
        let mut got: Vec<(u64, Vec<u8>)> = unpacked.into_iter().map(|s| (s.addr, s.data)).collect();
        got.sort_by_key(|(a, _)| *a);
        let mut want: Vec<(u64, Vec<u8>)> = stores
            .into_iter()
            .map(|s| (s.addr, s.bytes().collect()))
            .collect();
        want.sort_by_key(|(a, _)| *a);
        assert_eq!(got, want);
    }
}
