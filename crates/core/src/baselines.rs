//! Baseline egress paths the paper compares against, both built on
//! [`WriteCombiningEgress`]:
//!
//! - [`WriteCombiningEgress::new`]: cacheline-granularity write combining
//!   with no FinePack repacketization — each combined line leaves as
//!   ordinary memory-write TLPs. FinePack's §VI-A reports a further 24%
//!   wire-data reduction over this.
//! - [`WriteCombiningEgress::gps`]: a GPS-like model (§VI-B): the same
//!   cacheline write combining, plus a publish–subscribe filter that
//!   drops stores to unsubscribed replicas. GPS wins where
//!   unsubscription removes enough traffic to offset its per-line TLP
//!   inefficiency; FinePack wins elsewhere — and needs no application
//!   porting.

use std::collections::VecDeque;

use gpu_model::{GpuId, LineMap, RemoteStore};
use protocol::FramingModel;
use sim_engine::{DetRng, SimTime};

use crate::config::FinePackError;
use crate::egress::{
    store_share, EgressMetrics, EgressPath, PackedStores, PayloadMode, WirePacket,
};
use crate::rwq::{copy_payload, span_mask, FlushedEntry, LinePool};

/// Per-destination cacheline combining buffer with FIFO eviction: a
/// ring of lines in insertion order, indexed by line address.
#[derive(Debug, Default)]
struct LineBuffer {
    /// Each line and its merged-store count, oldest first.
    ring: VecDeque<(FlushedEntry, u64)>,
    /// Line address -> insertion sequence number; the line's slot in
    /// `ring` is its sequence number minus `head`.
    index: LineMap<u64>,
    /// Sequence number of the ring's front line (of the next line in,
    /// when the ring is empty).
    head: u64,
}

impl LineBuffer {
    /// Inserts a store; returns an evicted line and its merged-store
    /// count if capacity was exceeded. A hit merges in place, so a line
    /// leaves in the order it arrived. Without a `pool` (timing-only
    /// runs) lines hold masks only and flushed entries carry empty
    /// `data`; with one, a new line takes its buffer from the pool and
    /// the store's bytes are written from its seed into the line.
    fn insert(
        &mut self,
        store: &RemoteStore,
        capacity: usize,
        overwritten: &mut u64,
        pool: Option<&mut LinePool>,
    ) -> Option<(FlushedEntry, u64)> {
        let line_addr = store.addr & !127;
        let off = (store.addr - line_addr) as usize;
        let end = off + store.len() as usize;
        let incoming = span_mask(off as u32, store.len());
        if let Some(&seq) = self.index.get(&line_addr) {
            let (line, merged) = &mut self.ring[(seq - self.head) as usize];
            *overwritten += u64::from((incoming & line.mask).count_ones());
            line.mask |= incoming;
            if pool.is_some() {
                copy_payload(store, &mut line.data[off..end]);
            }
            *merged += 1;
            return None;
        }
        let evicted = (self.ring.len() >= capacity).then(|| {
            let victim = self.ring.pop_front().expect("a full ring");
            self.index.remove(&victim.0.line_addr);
            self.head += 1;
            victim
        });
        let mut line = FlushedEntry {
            line_addr,
            mask: incoming,
            data: Vec::new(),
        };
        if let Some(pool) = pool {
            line.data = pool.take();
            copy_payload(store, &mut line.data[off..end]);
        }
        let seq = self.head + self.ring.len() as u64;
        self.index.insert(line_addr, seq);
        self.ring.push_back((line, 1));
        evicted
    }

    /// Empties the buffer, returning its lines in address order.
    fn drain(&mut self) -> Vec<(FlushedEntry, u64)> {
        self.index.clear();
        let mut lines: Vec<_> = self.ring.drain(..).collect();
        lines.sort_unstable_by_key(|(line, _)| line.line_addr);
        lines
    }
}

fn validate(store: &RemoteStore) -> Result<(), FinePackError> {
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
    Ok(())
}

/// GPS's publish–subscribe filter: each store targets an unsubscribed
/// replica, and is dropped, with probability `unsubscribed`.
#[derive(Debug)]
struct Subscription {
    unsubscribed: f64,
    rng: DetRng,
    filtered: u64,
}

/// Write combining at cacheline granularity, emitting plain memory-write
/// TLPs (one per contiguous valid-byte run). Built with
/// [`WriteCombiningEgress::gps`], the same path also filters stores by
/// subscription.
#[derive(Debug)]
pub struct WriteCombiningEgress {
    framing: FramingModel,
    capacity: usize,
    /// Line buffers indexed by destination [`GpuId::index`].
    buffers: Vec<LineBuffer>,
    /// Payload buffers of emitted lines, for the next new lines.
    pool: LinePool,
    metrics: EgressMetrics,
    payload_mode: PayloadMode,
    /// GPS's subscription filter; `None` for plain write combining.
    subscription: Option<Subscription>,
}

impl WriteCombiningEgress {
    /// Creates a write-combining egress for GPU `_src` with `capacity`
    /// lines per destination (the paper's structures use 64). Plain
    /// write combining keeps no per-source state; [`Self::gps`] seeds
    /// its filter from the source.
    pub fn new(_src: GpuId, framing: FramingModel, capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        WriteCombiningEgress {
            framing,
            capacity,
            buffers: Vec::new(),
            pool: LinePool::new(128),
            metrics: EgressMetrics::default(),
            payload_mode: PayloadMode::Full,
            subscription: None,
        }
    }

    /// Creates a GPS-like egress (§VI-B): write combining behind a
    /// publish–subscribe filter. Each store targets an unsubscribed
    /// replica, and is dropped, with probability `unsubscribed` (GPS's
    /// dynamic-unsubscription benefit). Combined lines leave as
    /// memory-write TLPs covering each dirty byte run, DW-padded on the
    /// wire: GPS's "unneeded transfers within a cacheline".
    ///
    /// # Panics
    ///
    /// Panics if `unsubscribed` is outside `[0, 1]` or `capacity` is
    /// zero.
    pub fn gps(
        src: GpuId,
        framing: FramingModel,
        capacity: usize,
        unsubscribed: f64,
        seed: u64,
    ) -> Self {
        assert!((0.0..=1.0).contains(&unsubscribed));
        WriteCombiningEgress {
            subscription: Some(Subscription {
                unsubscribed,
                rng: DetRng::new(seed, &format!("gps-{}", src.index())),
                filtered: 0,
            }),
            ..WriteCombiningEgress::new(src, framing, capacity)
        }
    }

    /// Stores dropped by the subscription filter; zero without one.
    pub fn stores_filtered(&self) -> u64 {
        self.subscription.as_ref().map_or(0, |s| s.filtered)
    }

    /// Emits `entry`'s packets, then takes its payload buffer back into
    /// the pool.
    fn emit_entry(
        &mut self,
        dst: GpuId,
        entry: FlushedEntry,
        merged: u64,
        out: &mut Vec<WirePacket>,
    ) {
        // One TLP per run of valid bytes; a run starts at each set bit
        // whose lower neighbour is clear.
        let n = (entry.mask & !(entry.mask << 1)).count_ones() as usize;
        for (i, (off, len)) in entry.runs_iter().enumerate() {
            let addr = entry.line_addr + u64::from(off);
            let mut stores = PackedStores::default();
            if self.payload_mode == PayloadMode::Full {
                stores.push(addr, &entry.data[off as usize..(off + len) as usize]);
            }
            let packet = WirePacket {
                dst,
                wire_bytes: self.framing.wire_bytes(len),
                data_bytes: u64::from(len),
                payload_bytes: len,
                reason: None,
                store_count: 1,
                stores,
            };
            out.push(self.metrics.emit(packet, store_share(merged, n, i)));
        }
        self.pool.put(entry.data);
    }
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
        if let Some(sub) = &mut self.subscription {
            if sub.rng.chance(sub.unsubscribed) {
                sub.filtered += 1;
                return Ok(Vec::new());
            }
        }
        let mut overwritten = 0u64;
        let pool = (self.payload_mode == PayloadMode::Full).then_some(&mut self.pool);
        let slot = store.dst.index();
        if slot >= self.buffers.len() {
            self.buffers.resize_with(slot + 1, LineBuffer::default);
        }
        let evicted = self.buffers[slot].insert(store, self.capacity, &mut overwritten, pool);
        self.metrics.overwritten_bytes += overwritten;
        let mut out = Vec::new();
        if let Some((entry, merged)) = evicted {
            self.emit_entry(store.dst, entry, merged, &mut out);
        }
        Ok(out)
    }

    fn release(&mut self) -> Vec<WirePacket> {
        let mut out = Vec::new();
        for slot in 0..self.buffers.len() {
            let dst = GpuId::new(u8::try_from(slot).expect("GPU indices fit u8"));
            for (entry, merged) in self.buffers[slot].drain() {
                self.emit_entry(dst, entry, merged, &mut out);
            }
        }
        out
    }

    fn metrics(&self) -> &EgressMetrics {
        &self.metrics
    }

    fn name(&self) -> &'static str {
        if self.subscription.is_some() {
            "gps"
        } else {
            "write-combining"
        }
    }

    fn set_payload_mode(&mut self, mode: PayloadMode) {
        self.payload_mode = mode;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// The line buffer as it was before the ring: a `BTreeMap` of lines
    /// beside a FIFO of their addresses. Kept as the ring's oracle.
    #[derive(Debug, Default)]
    struct OracleLineBuffer {
        lines: BTreeMap<u64, (u128, Vec<u8>, u64)>, // line -> (mask, data, stores_merged)
        fifo: VecDeque<u64>,
    }

    impl OracleLineBuffer {
        fn insert(
            &mut self,
            store: &RemoteStore,
            capacity: usize,
            overwritten: &mut u64,
            buffer_payloads: bool,
        ) -> Option<(FlushedEntry, u64)> {
            let (addr, data) = (store.addr, store.bytes().collect::<Vec<u8>>());
            let line_addr = addr & !127;
            let off = (addr - line_addr) as u32;
            let incoming = span_mask(off, data.len() as u32);
            let mut evicted = None;
            if !self.lines.contains_key(&line_addr) && self.lines.len() >= capacity {
                let victim = self.fifo.pop_front().expect("fifo tracks lines");
                let (mask, vdata, merged) = self.lines.remove(&victim).expect("line present");
                evicted = Some((
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
                        buf[off as usize..off as usize + data.len()].copy_from_slice(&data);
                    }
                    *merged += 1;
                }
                None => {
                    let buf = if buffer_payloads {
                        let mut buf = vec![0u8; 128];
                        buf[off as usize..off as usize + data.len()].copy_from_slice(&data);
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

    #[test]
    fn ring_matches_the_ordered_map_oracle() {
        let mut rng = DetRng::new(0x71_4E, "line-ring-oracle");
        for capacity in 1..=64usize {
            for buffer_payloads in [false, true] {
                let (mut ring, mut oracle) = (LineBuffer::default(), OracleLineBuffer::default());
                let (mut ring_over, mut oracle_over) = (0u64, 0u64);
                // Every line the ring gives up returns its buffer here,
                // so new lines reuse buffers that held other bytes; the
                // oracle's lines are always fresh.
                let mut buffers = LinePool::new(128);
                // A pool a few times the capacity: hits, evictions and
                // re-inserts of evicted lines all occur.
                let pool = capacity as u64 * rng.next_in_range(2, 5);
                let (mut hits, mut evictions, mut reinserts) = (0, 0, 0);
                let mut evicted = std::collections::HashSet::new();
                for step in 0..40 * capacity + 200 {
                    if rng.chance(0.01) {
                        let drained = ring.drain();
                        assert_eq!(drained, oracle.drain(), "drain at step {step}");
                        drained
                            .into_iter()
                            .for_each(|(line, _)| buffers.put(line.data));
                        continue;
                    }
                    let off = rng.next_u64_below(128);
                    let len = rng.next_in_range(1, 129 - off) as u32;
                    let addr = 0x4000_0000 + rng.next_u64_below(pool) * 128 + off;
                    let s = store(1, addr, len, rng.next_u64());
                    let hit = oracle.lines.contains_key(&(addr & !127));
                    hits += usize::from(hit);
                    reinserts += usize::from(!hit && evicted.contains(&(addr & !127)));
                    let want = oracle.insert(&s, capacity, &mut oracle_over, buffer_payloads);
                    let got = ring.insert(
                        &s,
                        capacity,
                        &mut ring_over,
                        buffer_payloads.then_some(&mut buffers),
                    );
                    if let Some((entry, _)) = &want {
                        evictions += 1;
                        evicted.insert(entry.line_addr);
                    }
                    assert_eq!(got, want, "capacity {capacity}, step {step}");
                    assert_eq!(ring_over, oracle_over);
                    got.into_iter().for_each(|(line, _)| buffers.put(line.data));
                }
                assert_eq!(ring.drain(), oracle.drain());
                assert!(
                    hits > 0 && evictions > 0 && reinserts > 0,
                    "capacity {capacity}"
                );
            }
        }
    }

    fn store(dst: u8, addr: u64, len: u32, value_seed: u64) -> RemoteStore {
        RemoteStore {
            src: GpuId::new(0),
            dst: GpuId::new(dst),
            addr,
            len,
            value_seed,
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
        // The oldest line left first.
        assert_eq!(
            evicted[0].stores.iter().next().map(|(addr, _)| addr),
            Some(0)
        );
    }

    #[test]
    fn wc_overwrites_are_elided() {
        let mut wc = WriteCombiningEgress::new(GpuId::new(0), FramingModel::pcie_gen4(), 64);
        let (old, new) = (store(1, 0x1000, 8, 1), store(1, 0x1000, 8, 9));
        let new_bytes: Vec<u8> = new.bytes().collect();
        // The seeds differ at every byte, so the old value cannot pass.
        assert!(old.bytes().zip(&new_bytes).all(|(a, b)| a != *b));
        wc.push(&old, SimTime::ZERO).unwrap();
        wc.push(&new, SimTime::ZERO).unwrap();
        let pkts = wc.release();
        assert_eq!(pkts[0].data_bytes, 8);
        let (_, data) = pkts[0].stores.iter().next().expect("one store");
        assert_eq!(data, new_bytes);
        assert_eq!(wc.metrics().overwritten_bytes, 8);
    }

    #[test]
    fn gps_ships_dirty_runs_without_subscription_loss() {
        let mut gps =
            WriteCombiningEgress::gps(GpuId::new(0), FramingModel::pcie_gen4(), 64, 0.0, 1);
        gps.push(&store(1, 0x1000, 4, 1), SimTime::ZERO).unwrap();
        let pkts = gps.release();
        assert_eq!(pkts.len(), 1);
        // One 4B dirty run: 4B payload + 24B overhead.
        assert_eq!(pkts[0].wire_bytes, 28);
        assert_eq!(pkts[0].data_bytes, 4);
    }

    #[test]
    fn gps_subscription_drops_stores() {
        let mut gps =
            WriteCombiningEgress::gps(GpuId::new(0), FramingModel::pcie_gen4(), 64, 1.0, 1);
        gps.push(&store(1, 0x1000, 4, 1), SimTime::ZERO).unwrap();
        assert!(gps.release().is_empty());
        assert_eq!(gps.stores_filtered(), 1);
    }

    #[test]
    fn gps_without_unsubscription_is_write_combining() {
        let mut rng = DetRng::new(0x6A5, "gps-vs-wc");
        let stores: Vec<RemoteStore> = (0..2000)
            .map(|_| {
                let off = rng.next_u64_below(128) as u32;
                let len = (rng.next_in_range(1, 33) as u32).min(128 - off);
                RemoteStore {
                    src: GpuId::new(0),
                    dst: GpuId::new(rng.next_in_range(1, 4) as u8),
                    addr: 0x1000_0000 + rng.next_u64_below(512) * 128 + u64::from(off),
                    len,
                    value_seed: rng.next_u64(),
                }
            })
            .collect();
        let framing = FramingModel::pcie_gen4();
        let mut wc = WriteCombiningEgress::new(GpuId::new(0), framing, 64);
        let mut gps = WriteCombiningEgress::gps(GpuId::new(0), framing, 64, 0.0, 0x6A5);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for s in &stores {
            a.extend(wc.push(s, SimTime::ZERO).unwrap());
            b.extend(gps.push(s, SimTime::ZERO).unwrap());
        }
        a.extend(wc.release());
        b.extend(gps.release());
        assert!(!a.is_empty());
        let key = |p: &WirePacket| (p.dst, p.wire_bytes, p.data_bytes, p.payload_bytes);
        assert_eq!(
            a.iter().map(key).collect::<Vec<_>>(),
            b.iter().map(key).collect::<Vec<_>>()
        );
        assert!(a.iter().zip(&b).all(|(x, y)| x.stores == y.stores));
        let (m, n) = (wc.metrics(), gps.metrics());
        assert_eq!(
            (
                m.packets,
                m.wire_bytes,
                m.data_bytes,
                m.stores_in,
                m.bytes_in
            ),
            (
                n.packets,
                n.wire_bytes,
                n.data_bytes,
                n.stores_in,
                n.bytes_in
            )
        );
        assert_eq!(m.overwritten_bytes, n.overwritten_bytes);
        assert_eq!(m.stores_per_packet, n.stores_per_packet);
        assert_eq!(gps.stores_filtered(), 0);
        assert_eq!((wc.name(), gps.name()), ("write-combining", "gps"));
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
            let s = store(1, 0x1_0000 + (i / 2) * 128 + (i % 2) * 8, 8, i);
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
        let mut gps =
            WriteCombiningEgress::gps(GpuId::new(0), FramingModel::pcie_gen4(), 64, 0.0, 1);
        assert!(gps.push(&store(1, 0, 129, 0), SimTime::ZERO).is_err());
    }
}
