//! Inspect FinePack's wire format: feed stores into the remote write
//! queue, packetize the flush, encode to bytes, and hex-dump the outer
//! PCIe TLP header plus each sub-transaction — Figure 6 / Table I made
//! concrete.
//!
//! Run with: `cargo run --release --example packet_inspector`

use finepack::{packetize, FinePackConfig, FinePackPacket, FlushReason, RemoteWriteQueue};
use gpu_model::{GpuId, RemoteStore};
use protocol::{FramingModel, TlpHeader};

fn hex(bytes: &[u8]) -> String {
    bytes
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect::<Vec<_>>()
        .join(" ")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = FinePackConfig::paper(4);
    let mut rwq = RemoteWriteQueue::new(GpuId::new(0), cfg);

    // A handful of small stores with spatial locality inside one window;
    // each store's bytes come from its address and value seed.
    let stores = [
        (0x4000_1000u64, 8, 0xAA),
        (0x4000_1010, 4, 0xBB),
        (0x4000_2000, 16, 0xCC),
        (0x4000_1000, 8, 0xAD), // overwrites the first store
        (0x4000_3080, 2, 0xEE),
    ];
    println!(
        "inserting {} stores into the remote write queue:",
        stores.len()
    );
    for (addr, len, value_seed) in stores {
        println!("  store {len:>2}B @ {addr:#x}");
        rwq.insert(&RemoteStore {
            src: GpuId::new(0),
            dst: GpuId::new(1),
            addr,
            len,
            value_seed,
        })?;
    }

    let batch = rwq
        .flush_all(FlushReason::Release)
        .pop()
        .expect("one destination");
    println!(
        "\nflush on release: {} entries, {} valid bytes, {} overwritten bytes elided",
        batch.entries.len(),
        batch.valid_bytes(),
        batch.overwritten_bytes
    );

    let packet = packetize(&batch, &cfg, GpuId::new(0))
        .pop()
        .expect("single packet");
    let wire = packet.encode();
    let framing = FramingModel::pcie_gen4();
    println!(
        "\nFinePack transaction: base {:#x}, {} sub-packets, {}B payload, {}B on the wire",
        packet.base_addr,
        packet.len(),
        packet.payload_bytes(),
        packet.wire_bytes(&framing)
    );

    println!("\nouter TLP header (16 bytes):\n  {}", hex(&wire[..16]));
    let header = TlpHeader::decode(&wire)?;
    println!(
        "  type={:?} length={}B (DW-padded) base={:#x} first-BE={:#06b} (unused by FinePack)",
        header.tlp_type, header.length_bytes, header.address, header.first_be
    );

    println!(
        "\nsub-transactions ({} sub-header bytes each):",
        cfg.subheader.bytes()
    );
    let mut pos = 16;
    for sub in &packet.subpackets {
        let sh = cfg.subheader.bytes() as usize;
        println!(
            "  subhdr {}  -> offset={:#07x} len={:>2}  data: {}",
            hex(&wire[pos..pos + sh]),
            sub.offset,
            sub.data.len(),
            hex(&sub.data)
        );
        pos += sh + sub.data.len();
    }

    // Round-trip check: the de-packetizer's view.
    let decoded = FinePackPacket::decode(&wire, cfg.subheader, packet.src, packet.dst)?;
    println!("\nde-packetized stores (address = base + offset):");
    for s in decoded.to_stores() {
        println!("  {:>2}B @ {:#x}", s.len(), s.addr);
    }
    assert_eq!(decoded, packet);
    println!("\nencode/decode round-trip: OK");
    Ok(())
}
