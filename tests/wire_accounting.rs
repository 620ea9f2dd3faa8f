//! Wire-byte accounting invariants across the whole stack: every byte on
//! the wire is classified exactly once, and the remote write queue's
//! payload-budget register never over-commits a packet.

use finepack::{
    EgressPath, FinePackConfig, FinePackEgress, FlushReason, RawP2pEgress, RemoteWriteQueue,
    WriteCombiningEgress,
};
use gpu_model::{GpuId, RemoteStore};
use protocol::FramingModel;
use sim_engine::{DetRng, SimTime};

fn random_stores(rng: &mut DetRng, max: u64) -> Vec<RemoteStore> {
    (0..rng.next_in_range(1, max))
        .map(|_| {
            let dst = rng.next_in_range(1, 4) as u8;
            let line = rng.next_u64_below(512);
            let off = (rng.next_u64_below(128) as u32).min(127);
            let len = (rng.next_in_range(1, 33) as u32).min(128 - off);
            RemoteStore {
                src: GpuId::new(0),
                dst: GpuId::new(dst),
                addr: 0x1000_0000 + line * 128 + u64::from(off),
                len,
                value_seed: rng.next_u64(),
            }
        })
        .collect()
}

fn drain(path: &mut dyn EgressPath, stores: Vec<RemoteStore>) -> Vec<finepack::WirePacket> {
    let mut packets = Vec::new();
    for s in stores {
        packets.extend(path.push(&s, SimTime::ZERO).expect("valid store"));
    }
    packets.extend(path.release());
    packets
}

/// wire = data + protocol for every emitted packet, and the path's
/// cumulative metrics equal the sum over its packets.
#[test]
fn per_packet_and_cumulative_accounting_agree() {
    let mut rng = DetRng::new(0x3A_0001, "accounting");
    for _ in 0..48 {
        let stores = random_stores(&mut rng, 300);
        let framing = FramingModel::pcie_gen4();
        let paths: Vec<Box<dyn EgressPath>> = vec![
            Box::new(FinePackEgress::new(
                GpuId::new(0),
                FinePackConfig::paper(4),
                framing,
            )),
            Box::new(RawP2pEgress::new(framing)),
            Box::new(WriteCombiningEgress::new(GpuId::new(0), framing, 64)),
            Box::new(WriteCombiningEgress::gps(
                GpuId::new(0),
                framing,
                64,
                0.3,
                7,
            )),
        ];
        for mut path in paths {
            let packets = drain(path.as_mut(), stores.clone());
            let mut wire = 0u64;
            let mut data = 0u64;
            for p in &packets {
                assert!(p.wire_bytes >= p.data_bytes, "{}", path.name());
                assert_eq!(p.wire_bytes, p.data_bytes + p.protocol_bytes());
                wire += p.wire_bytes;
                data += p.data_bytes;
            }
            let m = path.metrics();
            assert_eq!(m.wire_bytes, wire, "{} wire", path.name());
            assert_eq!(m.data_bytes, data, "{} data", path.name());
            assert_eq!(m.packets, packets.len() as u64, "{} packets", path.name());
        }
    }
}

/// No FinePack packet's payload exceeds the PCIe maximum, and data
/// conservation holds: bytes in = bytes on wire + bytes elided.
#[test]
fn finepack_payload_budget_and_conservation() {
    let mut rng = DetRng::new(0x3A_0002, "budget");
    for _ in 0..48 {
        let stores = random_stores(&mut rng, 400);
        let framing = FramingModel::pcie_gen4();
        let cfg = FinePackConfig::paper(4);
        let mut fp = FinePackEgress::new(GpuId::new(0), cfg, framing);
        let packets = drain(&mut fp, stores);
        let overhead = u64::from(framing.per_tlp_overhead());
        for p in &packets {
            // wire = overhead + DW-padded payload; payload <= max.
            let payload = p.wire_bytes - overhead;
            assert!(
                payload <= u64::from(cfg.max_payload) + 3,
                "payload {payload}"
            );
        }
        let m = fp.metrics();
        assert_eq!(m.bytes_in, m.data_bytes + m.overwritten_bytes);
    }
}

/// The queue's entry capacity is never exceeded, and the available-
/// payload-length register semantics hold: a released batch's
/// valid bytes plus per-entry sub-header costs fit the budget the
/// register tracked.
#[test]
fn rwq_capacity_and_budget() {
    let mut rng = DetRng::new(0x3A_0003, "capacity");
    for _ in 0..48 {
        let stores = random_stores(&mut rng, 400);
        let cfg = FinePackConfig::paper(4);
        let mut rwq = RemoteWriteQueue::new(GpuId::new(0), cfg);
        let mut batches = Vec::new();
        for s in stores {
            assert!(rwq.buffered_entries() <= 3 * cfg.entries_per_partition as usize);
            if let Some(b) = rwq.insert(&s).expect("valid") {
                batches.push(b);
            }
        }
        batches.extend(rwq.flush_all(FlushReason::Release));
        for b in &batches {
            assert!(b.entries.len() <= cfg.entries_per_partition as usize);
            // Budget as the register tracks it: merged bytes + one
            // sub-header per entry allocation.
            let budget =
                b.valid_bytes() + u64::from(cfg.subheader.bytes()) * b.entries.len() as u64;
            assert!(budget <= u64::from(cfg.max_payload), "budget {budget}");
            // Window containment: every entry's valid bytes lie inside
            // the batch window.
            for e in &b.entries {
                for (off, len) in e.runs() {
                    let start = e.line_addr + u64::from(off);
                    assert!(start >= b.window_base);
                    assert!(
                        start + u64::from(len) <= b.window_base + cfg.subheader.addressable_range()
                    );
                }
            }
        }
    }
}

#[test]
fn gps_filtering_reduces_wire_monotonically() {
    let framing = FramingModel::pcie_gen4();
    let stores: Vec<RemoteStore> = (0..500u64)
        .map(|i| RemoteStore {
            src: GpuId::new(0),
            dst: GpuId::new(1),
            addr: 0x2000_0000 + i * 192,
            len: 8,
            value_seed: 1,
        })
        .collect();
    let mut last = u64::MAX;
    for unsub in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let mut gps = WriteCombiningEgress::gps(GpuId::new(0), framing, 64, unsub, 11);
        for s in &stores {
            gps.push(s, SimTime::ZERO).expect("valid");
        }
        gps.release();
        let wire = gps.metrics().wire_bytes;
        assert!(wire <= last, "unsub={unsub}: {wire} > {last}");
        last = wire;
    }
    assert_eq!(last, 0, "full unsubscription sends nothing");
}
