//! Memory-ordering compatibility (§IV-C "Compatibility with Memory
//! Ordering Rules"): FinePack reorders non-overlapping stores freely —
//! legal under the GPU's weak memory model — while PCIe keeps posted
//! writes ordered per stream, preserving same-address ordering. These
//! tests check the observable consequences.

mod common;

use common::{assert_overlaps_differ, Written};
use finepack::{EgressPath, FinePackConfig, FinePackEgress, WirePacket};
use gpu_model::{GpuId, MemoryImage, RemoteStore};
use protocol::FramingModel;
use sim_engine::{DetRng, SimTime};

fn store(dst: u8, line: u64, off: u32, len: u32) -> RemoteStore {
    RemoteStore {
        src: GpuId::new(0),
        dst: GpuId::new(dst),
        addr: 0x1_0000_0000 + line * 128 + u64::from(off),
        len,
        value_seed: 0,
    }
}

fn emit_all(stores: &[RemoteStore]) -> Vec<WirePacket> {
    let mut fp = FinePackEgress::new(
        GpuId::new(0),
        FinePackConfig::paper(4),
        FramingModel::pcie_gen4(),
    );
    let mut packets = Vec::new();
    for s in stores {
        packets.extend(fp.push(s, SimTime::ZERO).expect("valid store"));
    }
    packets.extend(fp.release());
    packets
}

fn apply(packets: &[&WirePacket]) -> Vec<MemoryImage> {
    let mut images: Vec<MemoryImage> = (0..4).map(|_| MemoryImage::new()).collect();
    for p in packets {
        assert_eq!(
            p.stores.len(),
            p.store_count as usize,
            "paths default to full payloads"
        );
        for (addr, data) in &p.stores {
            images[p.dst.index()].write(addr, data);
        }
    }
    images
}

/// Interleaves per-destination packet streams in an arbitrary (seeded)
/// order while preserving each stream's internal order — the reorderings
/// a switched fabric can legally introduce.
fn legal_shuffle(packets: &[WirePacket], seed: u64) -> Vec<&WirePacket> {
    let mut streams: Vec<Vec<&WirePacket>> = vec![Vec::new(); 4];
    for p in packets {
        streams[p.dst.index()].push(p);
    }
    let mut rng = DetRng::new(seed, "interleave");
    let mut cursors = [0usize; 4];
    let mut out = Vec::with_capacity(packets.len());
    while out.len() < packets.len() {
        let live: Vec<usize> = (0..4).filter(|d| cursors[*d] < streams[*d].len()).collect();
        let pick = live[rng.next_u64_below(live.len() as u64) as usize];
        out.push(streams[pick][cursors[pick]]);
        cursors[pick] += 1;
    }
    out
}

/// Any fabric-legal interleaving of per-destination streams yields
/// identical final memory images on every GPU.
#[test]
fn cross_destination_reordering_is_unobservable() {
    let mut rng = DetRng::new(0x0D_0001, "reorder");
    for _ in 0..48 {
        let n = rng.next_in_range(1, 200);
        let mut written = Written::default();
        let stores: Vec<RemoteStore> = (0..n)
            .map(|_| {
                let d = rng.next_in_range(1, 4) as u8;
                let l = rng.next_u64_below(64);
                let o = (rng.next_u64_below(120) as u32).min(127);
                let len = (rng.next_in_range(1, 9) as u32).min(128 - o);
                written.fresh(&mut rng, store(d, l, o, len))
            })
            .collect();
        assert_overlaps_differ(&stores);
        let seed_a = rng.next_u64();
        let seed_b = rng.next_u64();
        let packets = emit_all(&stores);
        let a = apply(&legal_shuffle(&packets, seed_a));
        let b = apply(&legal_shuffle(&packets, seed_b));
        for g in 0..4 {
            assert!(a[g].same_contents(&b[g]), "GPU{g} image differs");
        }
    }
}

/// Same-address load-store ordering: at any point in the stream, a
/// load probe must observe the latest preceding store's value — the
/// flush it triggers carries that value, or the value already left.
#[test]
fn load_probe_observes_latest_value() {
    let mut rng = DetRng::new(0x0D_0002, "probe");
    for _ in 0..48 {
        let n = rng.next_in_range(1, 64) as usize;
        let base = 0x1_0000_0000u64;
        let mut written = Written::default();
        let writes: Vec<RemoteStore> = (0..n)
            .map(|_| {
                let slot = rng.next_u64_below(16);
                let s = RemoteStore {
                    addr: base + slot * 8,
                    ..store(1, 0, 0, 8)
                };
                written.fresh(&mut rng, s)
            })
            .collect();
        assert_overlaps_differ(&writes);
        let probe_after = rng.next_u64_below(64) as usize;
        let mut fp = FinePackEgress::new(
            GpuId::new(0),
            FinePackConfig::paper(4),
            FramingModel::pcie_gen4(),
        );
        let mut image = MemoryImage::new();
        let apply_pkts = |pkts: Vec<WirePacket>, image: &mut MemoryImage| {
            for p in pkts {
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
        let mut latest = [None::<RemoteStore>; 16];
        let probe_at = probe_after.min(writes.len() - 1);
        for (i, s) in writes.iter().enumerate() {
            latest[((s.addr - base) / 8) as usize] = Some(*s);
            let pkts = fp.push(s, SimTime::ZERO).expect("valid");
            apply_pkts(pkts, &mut image);
            if i == probe_at {
                // The consumer loads every slot written so far; FinePack
                // must make them visible first.
                for slot in 0..16u64 {
                    let pkts = fp.load_probe(GpuId::new(1), base + slot * 8, 8, SimTime::ZERO);
                    apply_pkts(pkts, &mut image);
                }
                for (slot, expected) in latest.iter().enumerate() {
                    if let Some(s) = expected {
                        let got = image.read(s.addr, 8);
                        assert_eq!(got, s.bytes().collect::<Vec<u8>>(), "slot {slot} stale");
                    }
                }
            }
        }
    }
}
