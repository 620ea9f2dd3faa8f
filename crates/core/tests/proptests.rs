//! Randomized property tests for the FinePack hardware structures.

use std::collections::HashMap;

use finepack::{
    packetize, ConfigPacketModel, FinePackConfig, FlushReason, RemoteWriteQueue, SubheaderFormat,
};
use gpu_model::{GpuId, RemoteStore};
use sim_engine::DetRng;

/// (dst, line index, offset, len, value seed) with the no-block-crossing
/// invariant the L1 coalescer guarantees.
fn store_params(rng: &mut DetRng) -> (u8, u64, u32, u32, u64) {
    let d = rng.next_in_range(1, 4) as u8;
    let l = rng.next_u64_below(1024);
    let o = (rng.next_u64_below(128) as u32).min(127);
    let n = (rng.next_in_range(1, 65) as u32).min(128 - o);
    let v = rng.next_u64();
    (d, l, o, n, v)
}

fn build(d: u8, l: u64, o: u32, n: u32, v: u64) -> RemoteStore {
    RemoteStore {
        src: GpuId::new(0),
        dst: GpuId::new(d),
        addr: 0x1_0000_0000 + l * 128 + u64::from(o),
        len: n,
        value_seed: v,
    }
}

/// Values written so far per (destination, byte address).
type Written = HashMap<(u8, u64), Vec<u8>>;

/// True if `store` writes, at every byte, a value no earlier store wrote
/// there.
fn differs(written: &Written, store: &RemoteStore) -> bool {
    let d = store.dst.index() as u8;
    (store.addr..)
        .zip(store.bytes())
        .all(|(a, b)| written.get(&(d, a)).is_none_or(|v| !v.contains(&b)))
}

fn record(written: &mut Written, store: &RemoteStore) {
    let d = store.dst.index() as u8;
    for (a, b) in (store.addr..).zip(store.bytes()) {
        written.entry((d, a)).or_default().push(b);
    }
}

/// Last-writer-wins: flushing the queue yields, for every byte, the
/// value of the most recent store to that byte — and only bytes that
/// were actually written. A store whose seed repeats an earlier value
/// at some byte it overlaps is redrawn, so the check cannot pass with
/// the wrong winner.
#[test]
fn rwq_flush_is_last_writer_wins() {
    let mut rng = DetRng::new(0xC0_0001, "rwq-lww");
    for _ in 0..64 {
        let mut drawn = Written::new();
        let stores: Vec<RemoteStore> = (0..rng.next_in_range(1, 250))
            .map(|_| {
                let (d, l, o, n, _) = store_params(&mut rng);
                loop {
                    let s = build(d, l, o, n, rng.next_u64());
                    if differs(&drawn, &s) {
                        record(&mut drawn, &s);
                        break s;
                    }
                }
            })
            .collect();
        let mut written = Written::new();
        for s in &stores {
            assert!(
                differs(&written, s),
                "overlapping stores share a byte value"
            );
            record(&mut written, s);
        }
        // Keyed by (destination, address): in a real system the address
        // determines the destination, but the generator draws them
        // independently, so the oracle must distinguish partitions.
        let mut expected: HashMap<(u8, u64), u8> = HashMap::new();
        let mut rwq = RemoteWriteQueue::new(GpuId::new(0), FinePackConfig::paper(4));
        let mut emitted: HashMap<(u8, u64), u8> = HashMap::new();
        let absorb = |batches: Vec<finepack::FlushedBatch>, out: &mut HashMap<(u8, u64), u8>| {
            for b in batches {
                let dst = b.dst.index() as u8;
                for e in &b.entries {
                    for (off, len) in e.runs() {
                        for i in 0..len {
                            out.insert(
                                (dst, e.line_addr + u64::from(off + i)),
                                e.data[(off + i) as usize],
                            );
                        }
                    }
                }
            }
        };
        for s in &stores {
            let d = s.dst.index() as u8;
            for (a, byte) in (s.addr..).zip(s.bytes()) {
                expected.insert((d, a), byte);
            }
            let flushed = rwq.insert(s).expect("valid store");
            absorb(flushed.into_iter().collect(), &mut emitted);
        }
        absorb(rwq.flush_all(FlushReason::Release), &mut emitted);
        assert_eq!(emitted, expected);
    }
}

/// Accounting identity: stores received = entry hits + entry misses,
/// and buffered entries drain to zero on release.
#[test]
fn rwq_counters_are_consistent() {
    let mut rng = DetRng::new(0xC0_0002, "rwq-counters");
    for _ in 0..64 {
        let raw: Vec<_> = (0..rng.next_in_range(1, 250))
            .map(|_| store_params(&mut rng))
            .collect();
        let mut rwq = RemoteWriteQueue::new(GpuId::new(0), FinePackConfig::paper(4));
        let n = raw.len() as u64;
        for (d, l, o, len, v) in raw {
            rwq.insert(&build(d, l, o, len, v)).expect("valid");
        }
        let stats = rwq.stats();
        assert_eq!(stats.stores_received, n);
        assert_eq!(stats.entry_hits + stats.entry_misses, n);
        rwq.flush_all(FlushReason::Release);
        assert_eq!(rwq.buffered_entries(), 0);
    }
}

/// Packetizer invariants, for every Table II sub-header format:
/// payload budget respected, offsets fit the field, sub-packet data
/// bytes equal the batch's valid bytes.
#[test]
fn packetizer_respects_format() {
    let mut rng = DetRng::new(0xC0_0003, "packetizer");
    for _ in 0..64 {
        let bytes = rng.next_in_range(2, 7) as u32;
        let cfg =
            FinePackConfig::paper(4).with_subheader(SubheaderFormat::new(bytes).expect("2..=6"));
        let mut rwq = RemoteWriteQueue::new(GpuId::new(0), cfg);
        let mut batches = Vec::new();
        for _ in 0..rng.next_in_range(1, 200) {
            let (d, l, o, n, v) = store_params(&mut rng);
            if let Some(b) = rwq.insert(&build(d, l, o, n, v)).expect("valid") {
                batches.push(b);
            }
        }
        batches.extend(rwq.flush_all(FlushReason::Release));
        for batch in &batches {
            let packets = packetize(batch, &cfg, GpuId::new(0));
            let mut data_bytes = 0u64;
            for p in &packets {
                assert!(p.payload_bytes() <= cfg.max_payload);
                assert_eq!(p.base_addr % 4, 0, "base must be DW-aligned");
                for sub in &p.subpackets {
                    assert!(sub.offset < cfg.subheader.addressable_range());
                    assert!(!sub.data.is_empty());
                    data_bytes += sub.data.len() as u64;
                }
            }
            assert_eq!(data_bytes, batch.valid_bytes());
        }
    }
}

/// The §VI-B alternate design is strictly less efficient than
/// FinePack for any non-empty batch of stores.
#[test]
fn config_packet_design_never_wins() {
    let mut rng = DetRng::new(0xC0_0004, "config-packet");
    for _ in 0..100 {
        let sizes: Vec<u32> = (0..rng.next_in_range(1, 100))
            .map(|_| rng.next_in_range(1, 129) as u32)
            .collect();
        let m = ConfigPacketModel::new();
        assert!(m.wire_bytes(&sizes) > m.finepack_wire_bytes(&sizes));
        let eff = m.relative_efficiency(&sizes);
        assert!(eff > 0.0 && eff < 1.0);
    }
}

/// Window-base masking is idempotent and monotone.
#[test]
fn window_base_is_projection() {
    let mut rng = DetRng::new(0xC0_0005, "window-base");
    for _ in 0..500 {
        let addr = rng.next_u64();
        let bytes = rng.next_in_range(2, 7) as u32;
        let f = SubheaderFormat::new(bytes).expect("valid");
        let base = f.window_base(addr);
        assert!(base <= addr);
        assert_eq!(f.window_base(base), base);
        assert!(addr - base < f.addressable_range());
    }
}
