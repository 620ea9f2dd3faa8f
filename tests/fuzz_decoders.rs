//! Decoder robustness: every wire/file decoder in the stack must reject
//! arbitrary and mutated inputs with an error — never panic, never loop.

use finepack::{FinePackPacket, SubheaderFormat};
use gpu_model::{
    read_trace, write_trace, AccessPattern, GpuId, KernelTrace, TraceIoError, TraceOp,
};
use protocol::TlpHeader;
use sim_engine::DetRng;

fn random_bytes(rng: &mut DetRng, max_len: u64) -> Vec<u8> {
    (0..rng.next_u64_below(max_len))
        .map(|_| rng.next_u64() as u8)
        .collect()
}

/// Arbitrary bytes never panic the TLP header decoder.
#[test]
fn tlp_decode_total() {
    let mut rng = DetRng::new(0xF2_0001, "tlp-fuzz");
    for _ in 0..256 {
        let bytes = random_bytes(&mut rng, 64);
        let _ = TlpHeader::decode(&bytes);
    }
}

/// Arbitrary bytes never panic the FinePack packet decoder, under
/// every sub-header format.
#[test]
fn finepack_decode_total() {
    let mut rng = DetRng::new(0xF2_0002, "fp-fuzz");
    for _ in 0..256 {
        let bytes = random_bytes(&mut rng, 512);
        let sub = rng.next_in_range(2, 7) as u32;
        let f = SubheaderFormat::new(sub).expect("2..=6");
        let _ = FinePackPacket::decode(&bytes, f, GpuId::new(0), GpuId::new(1));
    }
}

/// Arbitrary bytes never panic the trace reader.
#[test]
fn trace_decode_total() {
    let mut rng = DetRng::new(0xF2_0003, "trace-fuzz");
    for _ in 0..256 {
        let bytes = random_bytes(&mut rng, 1024);
        let _ = read_trace(&bytes);
    }
}

/// A scattered store whose active mask names lanes past its address
/// list is rejected at decode time (replaying it would index past the
/// list); a mask within the list still decodes.
#[test]
fn trace_decode_rejects_active_lanes_without_addresses() {
    let store = |active_mask| {
        let mut t = KernelTrace::new("short-scatter");
        t.push(TraceOp::WarpStore {
            pattern: AccessPattern::Scattered {
                addrs: vec![0x40, 0x80, 0xC0, 0x100],
            },
            bytes_per_lane: 8,
            active_mask,
            value_seed: 0,
        });
        t
    };
    for mask in [0b1_0000, 0xFF, 1 << 31, u32::MAX] {
        assert_eq!(
            read_trace(&write_trace(&store(mask))),
            Err(TraceIoError::InvalidField(
                "active mask names a lane past the address list"
            )),
            "mask {mask:#x}"
        );
    }
    for mask in [0, 0b1010, 0xF] {
        let t = store(mask);
        assert_eq!(read_trace(&write_trace(&t)), Ok(t));
    }
}

/// Single-byte corruption of a valid packet either still decodes (to
/// something) or fails cleanly — it never panics.
#[test]
fn finepack_decode_survives_bitflips() {
    let pkt = FinePackPacket {
        src: GpuId::new(0),
        dst: GpuId::new(1),
        base_addr: 0x4000_0000,
        subheader: SubheaderFormat::paper(),
        subpackets: (0..8)
            .map(|i| finepack::SubPacket {
                offset: i * 64,
                data: vec![i as u8; 12],
            })
            .collect(),
    };
    let clean = pkt.encode();
    for flip_at in 0..clean.len() {
        for flip_bit in 0..8u8 {
            let mut wire = clean.clone();
            wire[flip_at] ^= 1 << flip_bit;
            let _ = FinePackPacket::decode(&wire, pkt.subheader, pkt.src, pkt.dst);
        }
    }
}

fn random_op(rng: &mut DetRng) -> TraceOp {
    match rng.next_u64_below(6) {
        0 => TraceOp::Compute {
            cycles: rng.next_in_range(1, 10_000) as u32,
        },
        1 => TraceOp::WarpStore {
            pattern: AccessPattern::Contiguous {
                base: rng.next_u64() & 0xFFFF_FFFF,
            },
            bytes_per_lane: rng.next_in_range(1, 9) as u32,
            active_mask: rng.next_u64() as u32,
            value_seed: rng.next_u64(),
        },
        2 => TraceOp::WarpStore {
            pattern: AccessPattern::Scattered {
                addrs: (0..32).map(|_| rng.next_u64()).collect(),
            },
            bytes_per_lane: 8,
            active_mask: u32::MAX,
            value_seed: 0,
        },
        3 => TraceOp::Fence,
        4 => TraceOp::RemoteLoad {
            addr: rng.next_u64(),
            bytes: rng.next_in_range(1, 9) as u32,
        },
        _ => TraceOp::RemoteAtomic {
            addr: rng.next_u64(),
            bytes: rng.next_in_range(1, 9) as u32,
            value_seed: rng.next_u64(),
        },
    }
}

/// Trace write/read is the identity for arbitrary generated traces.
#[test]
fn trace_roundtrip() {
    let mut rng = DetRng::new(0xF2_0004, "trace-roundtrip");
    for _ in 0..256 {
        let name_len = rng.next_u64_below(13);
        let name: String = (0..name_len)
            .map(|_| (b'a' + rng.next_u64_below(26) as u8) as char)
            .collect();
        let mut trace = KernelTrace::new(name);
        trace.ops = (0..rng.next_u64_below(64))
            .map(|_| random_op(&mut rng))
            .collect();
        let bytes = write_trace(&trace);
        assert_eq!(read_trace(&bytes).expect("own output decodes"), trace);
    }
}
