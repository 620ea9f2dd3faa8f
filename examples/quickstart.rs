//! Quickstart: push a stream of fine-grained peer-to-peer stores through
//! FinePack and through today's raw-P2P hardware path, and compare what
//! lands on the wire.
//!
//! Run with: `cargo run --release --example quickstart`

use finepack::{EgressPath, FinePackConfig, FinePackEgress, RawP2pEgress};
use gpu_model::{GpuId, MemoryImage, RemoteStore};
use protocol::FramingModel;
use sim_engine::SimTime;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Table III hardware: 4 GPUs, PCIe 4.0 framing, 5-byte sub-headers.
    let config = FinePackConfig::paper(4);
    let framing = FramingModel::pcie_gen4();
    println!(
        "FinePack config: {} sub-headers, {}B max payload,",
        config.subheader, config.max_payload
    );
    println!(
        "                 {} RWQ entries total ({}KB data SRAM)\n",
        config.total_entries(),
        config.data_sram_bytes() >> 10
    );

    let mut finepack = FinePackEgress::new(GpuId::new(0), config, framing);
    let mut raw_p2p = RawP2pEgress::new(framing);

    // An irregular kernel's remote traffic: 8-byte stores scattered over
    // a peer's buffer, with some addresses written twice (temporal
    // redundancy a weak memory model lets FinePack elide).
    let stores: Vec<RemoteStore> = (0..200u64)
        .map(|i| RemoteStore {
            src: GpuId::new(0),
            dst: GpuId::new(1),
            addr: 0x4000_0000 + (i % 50) * 184, // each address written 4x
            len: 8,
            value_seed: i,
        })
        .collect();

    let mut fp_image = MemoryImage::new();
    let mut p2p_image = MemoryImage::new();
    let deliver = |packets: Vec<finepack::WirePacket>, image: &mut MemoryImage| {
        for p in packets {
            // Paths carry full payloads by default.
            for (addr, data) in &p.stores {
                image.write(addr, data);
            }
        }
    };

    for s in &stores {
        deliver(finepack.push(s, SimTime::ZERO)?, &mut fp_image);
        deliver(raw_p2p.push(s, SimTime::ZERO)?, &mut p2p_image);
    }
    // Kernel end = system-scope release: the remote write queue flushes.
    deliver(finepack.release(), &mut fp_image);

    let fp = finepack.metrics();
    let p2p = raw_p2p.metrics();
    println!(
        "{} stores of 8B each ({} payload bytes offered):\n",
        fp.stores_in, fp.bytes_in
    );
    println!("              packets   wire bytes   protocol   elided-by-overwrite");
    println!(
        "raw P2P       {:>7}   {:>10}   {:>8}   {:>8}",
        p2p.packets,
        p2p.wire_bytes,
        p2p.protocol_bytes(),
        p2p.overwritten_bytes
    );
    println!(
        "FinePack      {:>7}   {:>10}   {:>8}   {:>8}",
        fp.packets,
        fp.wire_bytes,
        fp.protocol_bytes(),
        fp.overwritten_bytes
    );
    println!(
        "\nFinePack wire reduction: {:.2}x  |  stores packed per transaction: {:.1}",
        p2p.wire_bytes as f64 / fp.wire_bytes as f64,
        fp.mean_stores_per_packet().unwrap_or(0.0)
    );

    // The transparency claim: both paths produce the identical final
    // memory image at the destination.
    assert!(fp_image.same_contents(&p2p_image));
    println!("destination memory images identical: FinePack is transparent to software");
    Ok(())
}
