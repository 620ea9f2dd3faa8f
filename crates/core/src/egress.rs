//! The egress-path abstraction: how remote stores become wire packets.
//!
//! Three peer-to-peer paths implement [`EgressPath`]:
//!
//! - [`FinePackEgress`] — the paper's contribution: remote write queue →
//!   packetizer → FinePack transactions.
//! - [`RawP2pEgress`] — today's hardware: every store becomes its own
//!   memory-write TLP.
//! - write-combining and GPS-style baselines live in
//!   [`crate::baselines`].
//!
//! The DMA/memcpy paradigm does not flow through an egress path; it is
//! modeled at the system level from workload buffer metadata.

use gpu_model::{GpuId, RemoteStore};
use protocol::FramingModel;
use sim_engine::{Histogram, SimTime};

use crate::config::{FinePackConfig, FinePackError};
use crate::packetizer::packetize_layout;
use crate::rwq::{FlushReason, RemoteWriteQueue};

/// Whether a [`WirePacket`] carries its stores' payloads.
///
/// Timing-only runs never read the payload bytes back, so writing them
/// into every packet is pure allocation overhead; functional runs
/// (`track_memory`) need the full data to build memory images.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PayloadMode {
    /// Carry no stores: a packet holds only their count.
    Extents,
    /// Carry the full store payloads.
    Full,
}

/// The stores a packet delivers under [`PayloadMode::Full`]: their bytes
/// back to back in one buffer, and each store's address and length, in
/// delivery order.
///
/// What crosses the wire is merged from several issued stores (a queue
/// entry's last writers, a combined line's runs), so its bytes are not
/// a function of one seed as a [`RemoteStore`]'s are: the packet owns
/// them, in one allocation for all its stores.
///
/// # Examples
///
/// ```
/// use finepack::{EgressPath, RawP2pEgress};
/// use gpu_model::{GpuId, RemoteStore};
/// use protocol::FramingModel;
/// use sim_engine::SimTime;
///
/// let mut p2p = RawP2pEgress::new(FramingModel::pcie_gen4());
/// let store = RemoteStore {
///     src: GpuId::new(0),
///     dst: GpuId::new(1),
///     addr: 0x1000,
///     len: 4,
///     value_seed: 7,
/// };
/// let packets = p2p.push(&store, SimTime::ZERO)?;
/// // Paths carry full payloads unless set to extents.
/// let (addr, data) = packets[0].stores.iter().next().expect("one store");
/// assert_eq!(addr, 0x1000);
/// assert!(data.iter().copied().eq(store.bytes()));
/// # Ok::<(), finepack::FinePackError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PackedStores {
    bytes: Vec<u8>,
    /// `(address, length)` per store; the lengths sum to `bytes.len()`.
    extents: Vec<(u64, u32)>,
}

impl PackedStores {
    /// Room for `stores` stores of `bytes` bytes in all.
    pub(crate) fn with_capacity(stores: usize, bytes: usize) -> Self {
        PackedStores {
            bytes: Vec::with_capacity(bytes),
            extents: Vec::with_capacity(stores),
        }
    }

    /// Appends a store of `data` at `addr`.
    pub(crate) fn push(&mut self, addr: u64, data: &[u8]) {
        self.bytes.extend_from_slice(data);
        self.extents.push((addr, data.len() as u32));
    }

    /// Number of stores.
    pub fn len(&self) -> usize {
        self.extents.len()
    }

    /// True if the packet delivers no stores.
    pub fn is_empty(&self) -> bool {
        self.extents.is_empty()
    }

    /// The stores in delivery order, as `(address, bytes)`.
    pub fn iter(&self) -> StoreSlices<'_> {
        StoreSlices {
            extents: self.extents.iter(),
            rest: &self.bytes,
        }
    }
}

impl<'a> IntoIterator for &'a PackedStores {
    type Item = (u64, &'a [u8]);
    type IntoIter = StoreSlices<'a>;

    fn into_iter(self) -> StoreSlices<'a> {
        self.iter()
    }
}

/// Iterator over a [`PackedStores`]' stores as `(address, bytes)`.
#[derive(Debug, Clone)]
pub struct StoreSlices<'a> {
    extents: std::slice::Iter<'a, (u64, u32)>,
    rest: &'a [u8],
}

impl<'a> Iterator for StoreSlices<'a> {
    type Item = (u64, &'a [u8]);

    fn next(&mut self) -> Option<(u64, &'a [u8])> {
        let &(addr, len) = self.extents.next()?;
        let (data, rest) = self.rest.split_at(len as usize);
        self.rest = rest;
        Some((addr, data))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.extents.size_hint()
    }
}

/// A packet handed to the interconnect: sizes for timing/accounting plus
/// the disaggregated stores for functional delivery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WirePacket {
    /// Destination GPU.
    pub dst: GpuId,
    /// Total bytes on the wire (headers, framing, padding, payload).
    pub wire_bytes: u64,
    /// Data bytes carried (the stores' payloads).
    pub data_bytes: u64,
    /// TLP payload bytes before DW padding — what the posted-data
    /// credit cost is computed from (sub-headers included on the
    /// FinePack path, sector padding included under quantization).
    pub payload_bytes: u32,
    /// The flush that produced this packet, when it left a FinePack
    /// queue (`None` for uncoalesced paths and atomics). Lets the
    /// link layer attribute replay amplification to flush causes.
    pub reason: Option<crate::FlushReason>,
    /// Stores the packet delivers.
    pub store_count: u32,
    /// The stores this packet delivers, in order, under
    /// [`PayloadMode::Full`]; empty under [`PayloadMode::Extents`].
    pub stores: PackedStores,
}

impl WirePacket {
    /// Non-data bytes: protocol overhead including padding.
    pub fn protocol_bytes(&self) -> u64 {
        self.wire_bytes - self.data_bytes
    }
}

/// One store travelling alone as a memory-write TLP of `payload` bytes
/// (raw P2P stores and atomics). Only under [`PayloadMode::Full`] does
/// the packet carry the store, its bytes written from the seed into the
/// packet's buffer: extents-mode packets allocate nothing.
fn single_store_packet(
    framing: &FramingModel,
    store: &RemoteStore,
    payload: u32,
    mode: PayloadMode,
) -> WirePacket {
    WirePacket {
        dst: store.dst,
        wire_bytes: framing.wire_bytes(payload),
        data_bytes: u64::from(store.len()),
        payload_bytes: payload,
        reason: None,
        store_count: 1,
        stores: match mode {
            PayloadMode::Full => PackedStores {
                bytes: store.bytes().collect(),
                extents: vec![(store.addr, store.len())],
            },
            PayloadMode::Extents => PackedStores::default(),
        },
    }
}

/// Packet `i`'s share of `merged` stores flushed together as `packets`
/// packets: an even split, the remainder going to the first packets.
pub(crate) fn store_share(merged: u64, packets: usize, i: usize) -> u64 {
    let n = packets as u64;
    merged / n + u64::from((i as u64) < merged % n)
}

/// Cumulative egress metrics (the inputs to Figs 10 and 11).
#[derive(Debug, Clone)]
pub struct EgressMetrics {
    /// Packets emitted.
    pub packets: u64,
    /// Total wire bytes.
    pub wire_bytes: u64,
    /// Total data bytes on the wire.
    pub data_bytes: u64,
    /// Stores offered by the GPU.
    pub stores_in: u64,
    /// Store payload bytes offered by the GPU (before any coalescing).
    pub bytes_in: u64,
    /// Bytes elided by in-buffer overwrites (redundant-transfer savings).
    pub overwritten_bytes: u64,
    /// Stores that merged into an entry already buffered in the remote
    /// write queue (FinePack only).
    pub rwq_merges: u64,
    /// Remote atomics sent (never coalesced, §IV-C).
    pub atomics_sent: u64,
    /// Flush counts by [`crate::FlushReason::ALL`] order (FinePack only).
    pub flushes_by_reason: [u64; FlushReason::ALL.len()],
    /// Distribution of GPU stores aggregated per emitted packet (Fig 11).
    pub stores_per_packet: Histogram,
}

impl Default for EgressMetrics {
    fn default() -> Self {
        EgressMetrics::new()
    }
}

impl EgressMetrics {
    fn new() -> Self {
        EgressMetrics {
            packets: 0,
            wire_bytes: 0,
            data_bytes: 0,
            stores_in: 0,
            bytes_in: 0,
            overwritten_bytes: 0,
            rwq_merges: 0,
            atomics_sent: 0,
            flushes_by_reason: [0; FlushReason::ALL.len()],
            stores_per_packet: Histogram::new("stores_per_packet"),
        }
    }

    /// Accounts one emitted packet that aggregates `stores` of the GPU's
    /// stores, and hands it back for the port. Every path emits through
    /// here, so the totals and the Fig 11 histogram cannot drift apart.
    pub(crate) fn emit(&mut self, packet: WirePacket, stores: u64) -> WirePacket {
        self.packets += 1;
        self.wire_bytes += packet.wire_bytes;
        self.data_bytes += packet.data_bytes;
        self.stores_per_packet.record(stores);
        packet
    }

    /// Flush count for `reason` (non-zero only on the FinePack path).
    pub fn flushes_for(&self, reason: FlushReason) -> u64 {
        self.flushes_by_reason[reason.index()]
    }

    /// Total protocol (non-data) bytes.
    pub fn protocol_bytes(&self) -> u64 {
        self.wire_bytes - self.data_bytes
    }

    /// Mean stores per packet, or `None` before any packet was sent.
    pub fn mean_stores_per_packet(&self) -> Option<f64> {
        self.stores_per_packet.mean()
    }

    /// Merges another metrics block (e.g. across GPUs).
    pub fn merge(&mut self, other: &EgressMetrics) {
        self.packets += other.packets;
        self.wire_bytes += other.wire_bytes;
        self.data_bytes += other.data_bytes;
        self.stores_in += other.stores_in;
        self.bytes_in += other.bytes_in;
        self.overwritten_bytes += other.overwritten_bytes;
        self.rwq_merges += other.rwq_merges;
        self.atomics_sent += other.atomics_sent;
        for (a, b) in self
            .flushes_by_reason
            .iter_mut()
            .zip(other.flushes_by_reason.iter())
        {
            *a += b;
        }
        self.stores_per_packet.merge(&other.stores_per_packet);
    }
}

/// A peer-to-peer store egress path: turns a stream of remote stores into
/// wire packets.
///
/// Implementations must preserve *final-value* semantics: after
/// [`EgressPath::release`], replaying every emitted packet's stores in
/// emission order yields the same memory image as replaying the raw store
/// stream in program order (FinePack's transparency claim).
pub trait EgressPath: std::fmt::Debug + Send {
    /// Offers one remote store issued at time `now`; returns any packets
    /// this forced out.
    ///
    /// The store is borrowed plain data: paths write the bytes they
    /// buffer from its seed (under [`PayloadMode::Extents`], none at
    /// all).
    ///
    /// # Errors
    ///
    /// Returns an error for malformed stores (empty, larger than a cache
    /// block, or block-crossing).
    fn push(&mut self, store: &RemoteStore, now: SimTime)
        -> Result<Vec<WirePacket>, FinePackError>;

    /// Offers a remote atomic. Atomics are never coalesced (§IV-C): any
    /// buffered same-address store must leave first, then the atomic
    /// travels as its own transaction. The default treats it like a
    /// plain store, which is correct for paths that never buffer
    /// out-of-order.
    ///
    /// # Errors
    ///
    /// As for [`EgressPath::push`].
    fn push_atomic(
        &mut self,
        store: &RemoteStore,
        now: SimTime,
    ) -> Result<Vec<WirePacket>, FinePackError> {
        self.push(store, now)
    }

    /// A remote load issued by this GPU: same-address load-store ordering
    /// requires flushing any buffered store the load overlaps (§IV-B).
    fn load_probe(&mut self, _dst: GpuId, _addr: u64, _len: u32, _now: SimTime) -> Vec<WirePacket> {
        Vec::new()
    }

    /// Advances the path's notion of time, allowing inactivity-timeout
    /// flushes (§IV-B). Called opportunistically by the runner.
    fn advance(&mut self, _now: SimTime) -> Vec<WirePacket> {
        Vec::new()
    }

    /// A system-scoped release (fence / kernel end): everything buffered
    /// must be emitted.
    fn release(&mut self) -> Vec<WirePacket>;

    /// Cumulative metrics.
    fn metrics(&self) -> &EgressMetrics;

    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// Selects whether emitted packets carry their stores' payloads
    /// (see [`PayloadMode`]).
    fn set_payload_mode(&mut self, mode: PayloadMode);

    /// Entries buffered *inside* the path (e.g. RWQ occupancy), as
    /// opposed to packets the runner holds at the port. Zero for paths
    /// that never buffer.
    fn queue_depth(&self) -> usize {
        0
    }
}

/// The FinePack egress path: remote write queue + packetizer.
#[derive(Debug)]
pub struct FinePackEgress {
    config: FinePackConfig,
    framing: FramingModel,
    rwq: RemoteWriteQueue,
    metrics: EgressMetrics,
    /// Optional inactivity timeout (§IV-B); `None` matches the paper's
    /// evaluated configuration.
    flush_timeout: Option<SimTime>,
    /// Last insert time per destination, indexed by [`GpuId::index`].
    /// Only the timeout flush reads it, so it is kept only when a
    /// timeout is set.
    last_activity: Vec<SimTime>,
    payload_mode: PayloadMode,
}

impl FinePackEgress {
    /// Creates a FinePack egress for GPU `src`.
    pub fn new(src: GpuId, config: FinePackConfig, framing: FramingModel) -> Self {
        FinePackEgress {
            config,
            framing,
            rwq: RemoteWriteQueue::new(src, config),
            metrics: EgressMetrics::new(),
            flush_timeout: None,
            last_activity: Vec::new(),
            payload_mode: PayloadMode::Full,
        }
    }

    /// Enables an inactivity-timeout flush: a partition idle for
    /// `timeout` is flushed on the next [`EgressPath::advance`]. The
    /// paper discusses but does not enable this (§IV-B); it trades
    /// coalescing window for latency under bursty traffic.
    pub fn with_flush_timeout(mut self, timeout: SimTime) -> Self {
        self.flush_timeout = Some(timeout);
        self
    }

    fn emit_batch(&mut self, batch: crate::rwq::FlushedBatch) -> Vec<WirePacket> {
        // Layout pass only: payload bytes are copied at most once, into
        // one buffer per packet (Full mode), and never under Extents —
        // timing-only runs pay zero payload allocation per TLP.
        let layouts = packetize_layout(&batch, &self.config);
        let n = layouts.len();
        self.metrics.overwritten_bytes += batch.overwritten_bytes;
        self.metrics.flushes_by_reason[batch.reason.index()] += 1;
        let subheader = self.config.subheader;
        let mut out = Vec::with_capacity(n);
        for (i, layout) in layouts.into_iter().enumerate() {
            let payload_bytes = layout.payload_bytes(subheader);
            let stores = match self.payload_mode {
                PayloadMode::Full => {
                    let mut stores = PackedStores::with_capacity(
                        layout.chunks.len(),
                        layout.data_bytes() as usize,
                    );
                    for c in &layout.chunks {
                        let data = &batch.entries[c.entry_idx].data;
                        stores.push(
                            layout.base_addr + c.offset,
                            &data[c.data_off..c.data_off + c.len as usize],
                        );
                    }
                    stores
                }
                PayloadMode::Extents => PackedStores::default(),
            };
            let packet = WirePacket {
                dst: batch.dst,
                wire_bytes: self.framing.wire_bytes(payload_bytes),
                data_bytes: u64::from(layout.data_bytes()),
                payload_bytes,
                reason: Some(batch.reason),
                store_count: layout.chunks.len() as u32,
                stores,
            };
            // Split the batch's merged stores across its packets (nearly
            // always one).
            let share = store_share(batch.stores_merged, n, i);
            out.push(self.metrics.emit(packet, share));
        }
        self.rwq.recycle(batch);
        out
    }
}

impl EgressPath for FinePackEgress {
    fn push(
        &mut self,
        store: &RemoteStore,
        now: SimTime,
    ) -> Result<Vec<WirePacket>, FinePackError> {
        self.metrics.stores_in += 1;
        self.metrics.bytes_in += u64::from(store.len());
        if self.flush_timeout.is_some() {
            let slot = store.dst.index();
            if slot >= self.last_activity.len() {
                self.last_activity.resize(slot + 1, SimTime::ZERO);
            }
            self.last_activity[slot] = now;
        }
        let hits_before = self.rwq.stats().entry_hits;
        let flushed = self.rwq.insert(store)?;
        self.metrics.rwq_merges += self.rwq.stats().entry_hits - hits_before;
        match flushed {
            Some(batch) => Ok(self.emit_batch(batch)),
            None => Ok(Vec::new()),
        }
    }

    fn push_atomic(
        &mut self,
        store: &RemoteStore,
        _now: SimTime,
    ) -> Result<Vec<WirePacket>, FinePackError> {
        if store.is_empty() || store.len() > self.config.entry_bytes {
            return Err(FinePackError::StoreTooLarge {
                len: store.len(),
                max: self.config.entry_bytes,
            });
        }
        self.metrics.stores_in += 1;
        self.metrics.bytes_in += u64::from(store.len());
        self.metrics.atomics_sent += 1;
        let mut out = Vec::new();
        // Same-address ordering: a buffered store to the operand address
        // must become visible before the atomic (§IV-C).
        if let Some(batch) = self.rwq.atomic_probe(store.dst, store.addr, store.len()) {
            out.extend(self.emit_batch(batch));
        }
        // The atomic itself travels as an ordinary, uncoalesced TLP.
        let packet = single_store_packet(&self.framing, store, store.len(), self.payload_mode);
        out.push(self.metrics.emit(packet, 1));
        Ok(out)
    }

    fn load_probe(&mut self, dst: GpuId, addr: u64, len: u32, _now: SimTime) -> Vec<WirePacket> {
        match self.rwq.load_probe(dst, addr, len) {
            Some(batch) => self.emit_batch(batch),
            None => Vec::new(),
        }
    }

    fn advance(&mut self, now: SimTime) -> Vec<WirePacket> {
        let Some(timeout) = self.flush_timeout else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for dst in self.rwq.non_empty_dsts() {
            let idle_since = self
                .last_activity
                .get(dst.index())
                .copied()
                .unwrap_or(SimTime::ZERO);
            if now.saturating_sub(idle_since) >= timeout {
                for batch in self.rwq.flush_dst_all(dst, crate::FlushReason::Timeout) {
                    out.extend(self.emit_batch(batch));
                }
            }
        }
        out
    }

    fn release(&mut self) -> Vec<WirePacket> {
        let batches = self.rwq.flush_all(FlushReason::Release);
        batches
            .into_iter()
            .flat_map(|b| self.emit_batch(b))
            .collect()
    }

    fn metrics(&self) -> &EgressMetrics {
        &self.metrics
    }

    fn name(&self) -> &'static str {
        "finepack"
    }

    fn set_payload_mode(&mut self, mode: PayloadMode) {
        self.payload_mode = mode;
        // Timing-only runs never read payload bytes back: turn off the
        // queue's per-entry line buffering so inserts copy nothing.
        self.rwq
            .set_buffer_payloads(matches!(mode, PayloadMode::Full));
    }

    fn queue_depth(&self) -> usize {
        self.rwq.buffered_entries()
    }
}

/// Today's hardware: every store leaves immediately as its own TLP.
#[derive(Debug)]
pub struct RawP2pEgress {
    framing: FramingModel,
    metrics: EgressMetrics,
    /// When set, payloads are padded to cover whole sectors of this size
    /// — hardware that transfers at sector granularity rather than using
    /// byte enables, producing Fig 1's "unread bytes at the receiver".
    sector_bytes: Option<u32>,
    payload_mode: PayloadMode,
}

impl RawP2pEgress {
    /// Creates a raw peer-to-peer egress path with byte-exact payloads
    /// (byte enables mask sub-DW writes).
    pub fn new(framing: FramingModel) -> Self {
        RawP2pEgress {
            framing,
            metrics: EgressMetrics::new(),
            sector_bytes: None,
            payload_mode: PayloadMode::Full,
        }
    }

    /// Variant that transfers whole `sector` -byte sectors per store —
    /// the Fig 1 over-transfer behaviour of sector-granular memory
    /// systems.
    ///
    /// # Panics
    ///
    /// Panics unless `sector` is a power of two in 4..=128.
    pub fn with_sector_quantization(mut self, sector: u32) -> Self {
        assert!(
            sector.is_power_of_two() && (4..=128).contains(&sector),
            "sector must be a power of two in 4..=128"
        );
        self.sector_bytes = Some(sector);
        self
    }

    /// Wire payload for a store at `addr` of `len` bytes under the
    /// configured quantization.
    fn wire_payload(&self, addr: u64, len: u32) -> u32 {
        match self.sector_bytes {
            None => len,
            Some(sector) => {
                let s = u64::from(sector);
                let first = addr / s;
                let last = (addr + u64::from(len) - 1) / s;
                ((last - first + 1) * s) as u32
            }
        }
    }
}

impl EgressPath for RawP2pEgress {
    fn push(
        &mut self,
        store: &RemoteStore,
        _now: SimTime,
    ) -> Result<Vec<WirePacket>, FinePackError> {
        if store.is_empty() {
            return Err(FinePackError::StoreTooLarge { len: 0, max: 128 });
        }
        self.metrics.stores_in += 1;
        self.metrics.bytes_in += u64::from(store.len());
        let payload = self.wire_payload(store.addr, store.len());
        let packet = single_store_packet(&self.framing, store, payload, self.payload_mode);
        Ok(vec![self.metrics.emit(packet, 1)])
    }

    fn release(&mut self) -> Vec<WirePacket> {
        Vec::new() // nothing is ever buffered
    }

    fn metrics(&self) -> &EgressMetrics {
        &self.metrics
    }

    fn name(&self) -> &'static str {
        "p2p"
    }

    fn set_payload_mode(&mut self, mode: PayloadMode) {
        self.payload_mode = mode;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(dst: u8, addr: u64, len: u32) -> RemoteStore {
        RemoteStore {
            src: GpuId::new(0),
            dst: GpuId::new(dst),
            addr,
            len,
            value_seed: 0xA5,
        }
    }

    #[test]
    fn finepack_buffers_until_release() {
        let mut fp = FinePackEgress::new(
            GpuId::new(0),
            FinePackConfig::paper(4),
            FramingModel::pcie_gen4(),
        );
        for i in 0..40u64 {
            let pkts = fp
                .push(&store(1, 0x1_0000 + i * 200, 8), SimTime::ZERO)
                .unwrap();
            assert!(pkts.is_empty());
        }
        let pkts = fp.release();
        assert_eq!(pkts.len(), 1);
        assert_eq!(pkts[0].store_count, 40);
        assert_eq!(pkts[0].stores.len(), 40);
        assert_eq!(fp.metrics().mean_stores_per_packet(), Some(40.0));
    }

    #[test]
    fn finepack_beats_raw_p2p_on_wire_bytes() {
        let framing = FramingModel::pcie_gen4();
        let mut fp = FinePackEgress::new(GpuId::new(0), FinePackConfig::paper(4), framing);
        let mut p2p = RawP2pEgress::new(framing);
        for i in 0..100u64 {
            let s = store(1, 0x1_0000 + i * 160, 8);
            fp.push(&s, SimTime::ZERO).unwrap();
            p2p.push(&s, SimTime::ZERO).unwrap();
        }
        fp.release();
        // 100 stores x 8B: p2p pays 100x(24+8), finepack ~1x24 + 100x(5+8).
        let fp_wire = fp.metrics().wire_bytes;
        let p2p_wire = p2p.metrics().wire_bytes;
        assert!(
            fp_wire * 2 < p2p_wire,
            "finepack {fp_wire}B vs p2p {p2p_wire}B"
        );
    }

    #[test]
    fn raw_p2p_emits_one_packet_per_store() {
        let mut p2p = RawP2pEgress::new(FramingModel::pcie_gen4());
        let pkts = p2p.push(&store(2, 0x40, 4), SimTime::ZERO).unwrap();
        assert_eq!(pkts.len(), 1);
        assert_eq!(pkts[0].wire_bytes, 28); // 24 + 4
        assert_eq!(pkts[0].protocol_bytes(), 24);
        assert!(p2p.release().is_empty());
    }

    #[test]
    fn sector_quantized_p2p_over_transfers() {
        let mut exact = RawP2pEgress::new(FramingModel::pcie_gen4());
        let mut quant = RawP2pEgress::new(FramingModel::pcie_gen4()).with_sector_quantization(32);
        // An 8B store straddling a 32B sector boundary: 2 sectors move.
        let s = store(1, 0x101c, 8);
        let a = exact.push(&s, SimTime::ZERO).unwrap();
        let b = quant.push(&s, SimTime::ZERO).unwrap();
        assert_eq!(a[0].wire_bytes, 24 + 8);
        assert_eq!(b[0].wire_bytes, 24 + 64);
        assert_eq!(b[0].data_bytes, 8); // useful bytes unchanged
    }

    #[test]
    fn raw_p2p_counts_dw_padding_as_protocol() {
        let mut p2p = RawP2pEgress::new(FramingModel::pcie_gen4());
        let pkts = p2p.push(&store(1, 0x40, 5), SimTime::ZERO).unwrap();
        // 5B payload -> 8B padded + 24B overhead.
        assert_eq!(pkts[0].wire_bytes, 32);
        assert_eq!(pkts[0].protocol_bytes(), 27);
    }

    #[test]
    fn finepack_final_value_semantics() {
        use gpu_model::MemoryImage;
        let mut fp = FinePackEgress::new(
            GpuId::new(0),
            FinePackConfig::paper(4),
            FramingModel::pcie_gen4(),
        );
        let mut program_order = MemoryImage::new();
        let mut via_finepack = MemoryImage::new();
        let stores = vec![
            store(1, 0x1000, 8),
            RemoteStore {
                value_seed: 0x11,
                ..store(1, 0x1000, 8)
            },
            store(1, 0x1004, 2),
        ];
        // Each store differs from the one before it at every byte both
        // write, so the image comparison sees a wrong winner.
        for pair in stores.windows(2) {
            let lo = pair[0].addr.max(pair[1].addr);
            for a in lo..pair[0].end().min(pair[1].end()) {
                let byte = |s: &RemoteStore| s.bytes().nth((a - s.addr) as usize);
                assert_ne!(byte(&pair[0]), byte(&pair[1]), "byte {a:#x}");
            }
        }
        let mut emitted = Vec::new();
        for s in &stores {
            program_order.write_store(s);
            emitted.extend(fp.push(s, SimTime::ZERO).unwrap());
        }
        emitted.extend(fp.release());
        // The second and third stores land in the first one's line.
        assert_eq!(fp.metrics().rwq_merges, 2);
        for p in &emitted {
            for (addr, data) in &p.stores {
                via_finepack.write(addr, data);
            }
        }
        assert!(program_order.same_contents(&via_finepack));
    }

    #[test]
    fn extents_mode_skips_payload_clones_but_keeps_store_count() {
        let mut fp = FinePackEgress::new(
            GpuId::new(0),
            FinePackConfig::paper(4),
            FramingModel::pcie_gen4(),
        );
        fp.set_payload_mode(PayloadMode::Extents);
        fp.push(&store(1, 0x1000, 8), SimTime::ZERO).unwrap();
        fp.push(&store(1, 0x1010, 4), SimTime::ZERO).unwrap();
        let pkts = fp.release();
        assert_eq!(pkts.len(), 1);
        assert!(pkts[0].stores.is_empty(), "no stores carried");
        assert_eq!(pkts[0].store_count, 2);
        // Accounting is identical to full mode.
        let mut full = FinePackEgress::new(
            GpuId::new(0),
            FinePackConfig::paper(4),
            FramingModel::pcie_gen4(),
        );
        full.push(&store(1, 0x1000, 8), SimTime::ZERO).unwrap();
        full.push(&store(1, 0x1010, 4), SimTime::ZERO).unwrap();
        let full_pkts = full.release();
        assert_eq!(full_pkts[0].wire_bytes, pkts[0].wire_bytes);
        assert_eq!(full_pkts[0].data_bytes, pkts[0].data_bytes);
        assert_eq!(full_pkts[0].payload_bytes, pkts[0].payload_bytes);
        assert_eq!(full_pkts[0].stores.len(), 2);
    }

    #[test]
    fn timeout_flushes_idle_partitions() {
        let mut fp = FinePackEgress::new(
            GpuId::new(0),
            FinePackConfig::paper(4),
            FramingModel::pcie_gen4(),
        )
        .with_flush_timeout(SimTime::from_us(1));
        fp.push(&store(1, 0x1000, 8), SimTime::from_ns(100))
            .unwrap();
        // Not yet idle long enough.
        assert!(fp.advance(SimTime::from_ns(600)).is_empty());
        // Past the timeout: the buffered store leaves.
        let pkts = fp.advance(SimTime::from_us(2));
        assert_eq!(pkts.len(), 1);
        assert_eq!(fp.metrics().flushes_for(crate::FlushReason::Timeout), 1);
        // Without a timeout, advance never flushes.
        let mut plain = FinePackEgress::new(
            GpuId::new(0),
            FinePackConfig::paper(4),
            FramingModel::pcie_gen4(),
        );
        plain.push(&store(1, 0x1000, 8), SimTime::ZERO).unwrap();
        assert!(plain.advance(SimTime::from_ms(10)).is_empty());
    }

    #[test]
    fn atomics_flush_same_address_stores_and_travel_alone() {
        let mut fp = FinePackEgress::new(
            GpuId::new(0),
            FinePackConfig::paper(4),
            FramingModel::pcie_gen4(),
        );
        fp.push(&store(1, 0x1000, 8), SimTime::ZERO).unwrap();
        fp.push(&store(1, 0x2000, 8), SimTime::ZERO).unwrap();
        let pkts = fp.push_atomic(&store(1, 0x1004, 4), SimTime::ZERO).unwrap();
        // One flush batch (same-address ordering) + the atomic itself.
        assert_eq!(pkts.len(), 2);
        assert_eq!(pkts[1].store_count, 1);
        assert_eq!(pkts[1].data_bytes, 4);
        assert_eq!(fp.metrics().atomics_sent, 1);
        assert_eq!(fp.metrics().flushes_for(crate::FlushReason::AtomicHit), 1);
        // An atomic to an untouched address does not flush anything.
        let pkts = fp.push_atomic(&store(1, 0x9000, 4), SimTime::ZERO).unwrap();
        assert_eq!(pkts.len(), 1);
    }

    #[test]
    fn load_probe_flushes_overlapping_store() {
        let mut fp = FinePackEgress::new(
            GpuId::new(0),
            FinePackConfig::paper(4),
            FramingModel::pcie_gen4(),
        );
        fp.push(&store(1, 0x1000, 8), SimTime::ZERO).unwrap();
        assert!(fp
            .load_probe(GpuId::new(1), 0x5000, 8, SimTime::ZERO)
            .is_empty());
        let pkts = fp.load_probe(GpuId::new(1), 0x1000, 4, SimTime::ZERO);
        assert_eq!(pkts.len(), 1);
        assert_eq!(fp.metrics().flushes_for(crate::FlushReason::LoadHit), 1);
    }

    #[test]
    fn metrics_merge() {
        let mut a = EgressMetrics::new();
        a.packets = 1;
        a.wire_bytes = 100;
        a.data_bytes = 60;
        a.stores_per_packet.record(5);
        a.rwq_merges = 1;
        let mut b = EgressMetrics::new();
        b.packets = 2;
        b.wire_bytes = 50;
        b.data_bytes = 30;
        b.stores_per_packet.record(3);
        b.rwq_merges = 2;
        a.merge(&b);
        assert_eq!(a.packets, 3);
        assert_eq!(a.rwq_merges, 3);
        assert_eq!(a.protocol_bytes(), 60);
        assert_eq!(a.stores_per_packet.total(), 2);
    }
}
