//! FinePack's central claim, verified end-to-end: it is fully transparent
//! to software. For any stream of remote stores, transporting them
//! through FinePack (remote write queue -> packetizer -> wire encode ->
//! wire decode -> de-packetizer) produces exactly the same destination
//! memory image as issuing the raw stores in program order — as does
//! write combining.

mod common;

use common::{assert_overlaps_differ, Written};
use finepack::{
    Depacketizer, EgressPath, FinePackConfig, FinePackEgress, FinePackPacket, FlushReason,
    RawP2pEgress, RemoteWriteQueue, SubheaderFormat, WriteCombiningEgress,
};
use gpu_model::{GpuId, MemoryImage, RemoteStore};
use protocol::FramingModel;
use sim_engine::{DetRng, SimTime};

/// Random stores whose seeds differ at every byte they overlap, so an
/// image that kept an older store's bytes differs from the reference.
fn random_stores(rng: &mut DetRng, max: u64) -> Vec<RemoteStore> {
    let mut written = Written::default();
    let stores: Vec<RemoteStore> = (0..rng.next_in_range(1, max))
        .map(|_| {
            let line = rng.next_u64_below(256);
            let off = (rng.next_u64_below(128) as u32).min(127);
            let len = (rng.next_in_range(1, 17) as u32).min(128 - off);
            let store = RemoteStore {
                src: GpuId::new(0),
                dst: GpuId::new(1),
                addr: 0x4000_0000 + line * 128 + u64::from(off),
                len,
                value_seed: 0,
            };
            written.fresh(rng, store)
        })
        .collect();
    assert_overlaps_differ(&stores);
    stores
}

fn image_of_program_order(stores: &[RemoteStore]) -> MemoryImage {
    let mut image = MemoryImage::new();
    for s in stores {
        image.write_store(s);
    }
    image
}

fn image_via_path(path: &mut dyn EgressPath, stores: &[RemoteStore]) -> MemoryImage {
    let mut image = MemoryImage::new();
    let deliver = |packets: Vec<finepack::WirePacket>, image: &mut MemoryImage| {
        for p in packets {
            assert_eq!(
                p.stores.len(),
                p.store_count as usize,
                "paths default to full payloads"
            );
            for (addr, data) in &p.stores {
                image.write(addr, data);
            }
        }
    };
    for s in stores {
        let pkts = path.push(s, SimTime::ZERO).expect("valid store");
        deliver(pkts, &mut image);
    }
    deliver(path.release(), &mut image);
    image
}

#[test]
fn finepack_is_transparent() {
    let mut rng = DetRng::new(0x7A_0001, "fp-transparent");
    for _ in 0..64 {
        let stores = random_stores(&mut rng, 200);
        let reference = image_of_program_order(&stores);
        let mut fp = FinePackEgress::new(
            GpuId::new(0),
            FinePackConfig::paper(4),
            FramingModel::pcie_gen4(),
        );
        let via_fp = image_via_path(&mut fp, &stores);
        assert!(reference.same_contents(&via_fp));
    }
}

#[test]
fn write_combining_is_transparent() {
    let mut rng = DetRng::new(0x7A_0002, "wc-transparent");
    for _ in 0..64 {
        let stores = random_stores(&mut rng, 200);
        let reference = image_of_program_order(&stores);
        let mut wc = WriteCombiningEgress::new(GpuId::new(0), FramingModel::pcie_gen4(), 16);
        let via_wc = image_via_path(&mut wc, &stores);
        assert!(reference.same_contents(&via_wc));
    }
}

#[test]
fn raw_p2p_is_transparent() {
    let mut rng = DetRng::new(0x7A_0003, "p2p-transparent");
    for _ in 0..64 {
        let stores = random_stores(&mut rng, 100);
        let reference = image_of_program_order(&stores);
        let mut p2p = RawP2pEgress::new(FramingModel::pcie_gen4());
        let via = image_via_path(&mut p2p, &stores);
        assert!(reference.same_contents(&via));
    }
}

/// The full wire path: queue -> packetize -> encode -> decode ->
/// de-packetize -> memory, for every Table II sub-header format.
#[test]
fn wire_roundtrip_is_transparent() {
    let mut rng = DetRng::new(0x7A_0004, "wire-transparent");
    for _ in 0..64 {
        let stores = random_stores(&mut rng, 150);
        let subheader_bytes = rng.next_in_range(2, 7) as u32;
        let reference = image_of_program_order(&stores);

        let cfg = FinePackConfig::paper(4)
            .with_subheader(SubheaderFormat::new(subheader_bytes).expect("2..=6"));
        let mut rwq = RemoteWriteQueue::new(GpuId::new(0), cfg);
        let mut depk = Depacketizer::new();
        let mut image = MemoryImage::new();
        let mut batches = Vec::new();
        for s in &stores {
            if let Some(b) = rwq.insert(s).expect("valid store") {
                batches.push(b);
            }
        }
        batches.extend(rwq.flush_all(FlushReason::Release));
        for b in &batches {
            for pkt in finepack::packetize(b, &cfg, GpuId::new(0)) {
                let wire = pkt.encode();
                let decoded = FinePackPacket::decode(&wire, cfg.subheader, pkt.src, pkt.dst)
                    .expect("well-formed wire");
                assert_eq!(&decoded, &pkt);
                depk.deliver(&decoded, &mut image);
            }
        }
        assert!(reference.same_contents(&image));
    }
}

/// Under full payloads the queue's entries and the combining lines take
/// their buffers from those of lines already sent. Many times each
/// path's capacity passes through it, to three destinations, so every
/// buffer is reused many times, and each packet must carry, for every
/// byte, the last value program order wrote there before it left.
#[test]
fn full_payloads_survive_buffer_reuse() {
    let mut rng = DetRng::new(0x7A_0005, "buffer-reuse");
    let framing = FramingModel::pcie_gen4();
    // 64 entries per destination in each path: 3 x 64 = 192 lines.
    let paths: [Box<dyn EgressPath>; 2] = [
        Box::new(FinePackEgress::new(
            GpuId::new(0),
            FinePackConfig::paper(4),
            framing,
        )),
        Box::new(WriteCombiningEgress::new(GpuId::new(0), framing, 64)),
    ];
    for mut path in paths {
        let name = path.name();
        let mut written = Written::default();
        let mut reference: Vec<MemoryImage> = (0..4).map(|_| MemoryImage::new()).collect();
        let mut via_path: Vec<MemoryImage> = (0..4).map(|_| MemoryImage::new()).collect();
        // Lines sent: each left in a buffer that the next lines reuse.
        let mut lines_sent = 0usize;
        let mut deliver = |packets: Vec<finepack::WirePacket>, reference: &[MemoryImage]| {
            for p in packets {
                assert_eq!(p.stores.len(), p.store_count as usize);
                let mut data_bytes = 0;
                let mut lines = std::collections::BTreeSet::new();
                for (addr, data) in &p.stores {
                    let want = reference[p.dst.index()].read(addr, data.len());
                    assert_eq!(data, want, "{name} store at {addr:#x}");
                    via_path[p.dst.index()].write(addr, data);
                    data_bytes += data.len() as u64;
                    lines.insert(addr & !127);
                }
                assert_eq!(data_bytes, p.data_bytes);
                lines_sent += lines.len();
            }
        };
        for _ in 0..6000 {
            let dst = rng.next_in_range(1, 4) as u8;
            let line = rng.next_u64_below(1024);
            let off = (rng.next_u64_below(128) as u32).min(127);
            let len = (rng.next_in_range(1, 33) as u32).min(128 - off);
            let store = RemoteStore {
                src: GpuId::new(0),
                dst: GpuId::new(dst),
                addr: 0x4000_0000 * u64::from(dst) + line * 128 + u64::from(off),
                len,
                value_seed: 0,
            };
            let store = written.fresh(&mut rng, store);
            deliver(
                path.push(&store, SimTime::ZERO).expect("valid store"),
                &reference,
            );
            reference[usize::from(dst)].write_store(&store);
        }
        deliver(path.release(), &reference);
        assert!(lines_sent > 20 * 192, "{name}: {lines_sent} lines sent");
        for (want, got) in reference.iter().zip(&via_path) {
            assert!(want.same_contents(got), "{name}");
        }
    }
}
