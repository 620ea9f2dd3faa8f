//! Randomized property tests for the GPU model: the L1 coalescer must
//! cover exactly the bytes the warp wrote, with per-lane conflict
//! resolution, and must equal a per-byte reference coalescer; routing
//! must partition cleanly by address ownership.

use std::collections::{BTreeMap, HashMap};

use gpu_model::{
    coalesce_warp_store, route_txn, store_byte, AccessPattern, AddressMap, GpuConfig, GpuId,
    MemoryImage, StoreTxn,
};
use sim_engine::DetRng;

/// The reference coalescer the line-mask kernel replaced: one map insert
/// per written byte, grouped by cache block, ascending by address.
/// Slow but plainly correct; the differential test below holds the
/// kernel to it transaction for transaction.
fn oracle_coalesce(
    cfg: &GpuConfig,
    pattern: &AccessPattern,
    bytes_per_lane: u32,
    active_mask: u32,
    value_seed: u64,
) -> Vec<StoreTxn> {
    let block = u64::from(cfg.cache_block_bytes);
    // block base -> (byte offset -> writing lane), BTreeMap for
    // deterministic ascending-address output.
    let mut blocks: BTreeMap<u64, BTreeMap<u64, u32>> = BTreeMap::new();
    for lane in 0..cfg.warp_size {
        if active_mask & (1 << lane) == 0 {
            continue;
        }
        let addr = pattern.lane_addr(lane, bytes_per_lane);
        for b in 0..u64::from(bytes_per_lane) {
            let byte_addr = addr + b;
            let base = byte_addr / block * block;
            // Later (higher) lanes win on overlap, as in warp store
            // semantics where lane order resolves conflicts.
            blocks.entry(base).or_default().insert(byte_addr, lane);
        }
    }
    let mut txns = Vec::new();
    for bytes in blocks.values() {
        let mut run_start: Option<u64> = None;
        let mut prev: u64 = 0;
        let mut data: Vec<u8> = Vec::new();
        for &byte_addr in bytes.keys() {
            match run_start {
                Some(_) if byte_addr == prev + 1 => {
                    data.push(store_byte(byte_addr, value_seed));
                    prev = byte_addr;
                }
                Some(start) => {
                    txns.push(StoreTxn {
                        addr: start,
                        data: std::mem::take(&mut data),
                    });
                    run_start = Some(byte_addr);
                    prev = byte_addr;
                    data.push(store_byte(byte_addr, value_seed));
                }
                None => {
                    run_start = Some(byte_addr);
                    prev = byte_addr;
                    data.push(store_byte(byte_addr, value_seed));
                }
            }
        }
        if let Some(start) = run_start {
            txns.push(StoreTxn { addr: start, data });
        }
    }
    txns
}

/// A lane-0 address a few bytes either side of a line boundary, so that
/// lanes straddle lines.
fn near_line_boundary(rng: &mut DetRng, block: u64) -> u64 {
    (rng.next_in_range(1, 1 << 16) * block)
        .wrapping_add(rng.next_u64_below(17))
        .wrapping_sub(8)
}

/// One warp store of every shape the kernel must handle: contiguous,
/// strided (including stride 0 and strides below the lane width, so
/// lanes overlap) and scattered (clustered, so lanes share lines and
/// overlap, or spread over many lines); masks empty, full, single-lane
/// or random; 1-8 bytes per lane.
fn random_warp(rng: &mut DetRng, block: u64) -> (AccessPattern, u32, u32) {
    let bytes_per_lane = rng.next_in_range(1, 9) as u32;
    let mask = match rng.next_u64_below(4) {
        0 => 0,
        1 => u32::MAX,
        2 => 1 << rng.next_u64_below(32),
        _ => rng.next_u64() as u32,
    };
    let base = near_line_boundary(rng, block);
    let pattern = match rng.next_u64_below(3) {
        0 => AccessPattern::Contiguous { base },
        1 => AccessPattern::Strided {
            base,
            stride: rng.next_u64_below(2 * block + 1),
        },
        _ => {
            let spread = [16, 4 * block, 1 << 20][rng.next_u64_below(3) as usize];
            AccessPattern::Scattered {
                addrs: (0..32).map(|_| base + rng.next_u64_below(spread)).collect(),
            }
        }
    };
    (pattern, bytes_per_lane, mask)
}

/// The line-mask kernel equals the per-byte oracle transaction for
/// transaction (order, address and payload) on every cache-block size
/// and warp width `GpuConfig::validate` accepts.
#[test]
fn coalescer_equals_the_per_byte_oracle() {
    let mut rng = DetRng::new(0x69_0004, "coalescer-oracle");
    for _ in 0..4096 {
        let mut cfg = GpuConfig::gv100();
        cfg.cache_block_bytes = 8 << rng.next_u64_below(5);
        cfg.sector_bytes = cfg.cache_block_bytes;
        cfg.warp_size = [32, 32, 16, 1][rng.next_u64_below(4) as usize];
        cfg.validate();
        let (pattern, bytes_per_lane, mask) =
            random_warp(&mut rng, u64::from(cfg.cache_block_bytes));
        let seed = rng.next_u64();
        assert_eq!(
            coalesce_warp_store(&cfg, &pattern, bytes_per_lane, mask, seed),
            oracle_coalesce(&cfg, &pattern, bytes_per_lane, mask, seed),
            "{pattern:?}, {bytes_per_lane}B/lane, mask {mask:#x}, {}B lines, {} lanes",
            cfg.cache_block_bytes,
            cfg.warp_size
        );
    }
}

fn scattered_warp(rng: &mut DetRng) -> (Vec<u64>, u32, u32) {
    let elem = [1u32, 2, 4, 8][rng.next_u64_below(4) as usize];
    let addrs: Vec<u64> = (0..32)
        .map(|_| rng.next_u64_below(4096) * u64::from(elem))
        .collect();
    let mask = rng.next_u64() as u32;
    (addrs, elem, mask)
}

/// The union of transaction byte ranges equals the union of active
/// lanes' write ranges; transactions never overlap; data honors
/// highest-lane-wins on conflicts.
#[test]
fn coalescer_covers_exactly_the_written_bytes() {
    let cfg = GpuConfig::gv100();
    let mut rng = DetRng::new(0x69_0001, "coalescer");
    for _ in 0..256 {
        let (addrs, elem, mask) = scattered_warp(&mut rng);
        let seed = rng.next_u64();
        let txns = coalesce_warp_store(
            &cfg,
            &AccessPattern::Scattered {
                addrs: addrs.clone(),
            },
            elem,
            mask,
            seed,
        );
        // Expected byte set with highest-lane-wins resolution.
        let mut expected: HashMap<u64, ()> = HashMap::new();
        for lane in 0..32u32 {
            if mask & (1 << lane) == 0 {
                continue;
            }
            for b in 0..u64::from(elem) {
                expected.insert(addrs[lane as usize] + b, ());
            }
        }
        let mut covered: HashMap<u64, ()> = HashMap::new();
        for t in &txns {
            assert!(!t.is_empty());
            // A transaction never crosses a cache block.
            let first_block = t.addr / 128;
            let last_block = (t.addr + u64::from(t.len()) - 1) / 128;
            assert_eq!(first_block, last_block);
            for i in 0..u64::from(t.len()) {
                let dup = covered.insert(t.addr + i, ());
                assert!(dup.is_none(), "byte {:#x} covered twice", t.addr + i);
                // Every data byte is the deterministic store pattern.
                assert_eq!(t.data[i as usize], store_byte(t.addr + i, seed));
            }
        }
        assert_eq!(covered.len(), expected.len());
        for k in expected.keys() {
            assert!(covered.contains_key(k));
        }
    }
}

/// Routing partitions transactions: a store is remote iff its owner
/// differs from the issuing GPU, and the destination is the owner.
#[test]
fn routing_partitions_by_ownership() {
    let map = AddressMap::new(4, 1 << 30);
    let mut rng = DetRng::new(0x69_0002, "routing");
    for _ in 0..500 {
        let line = rng.next_u64_below((4u64 << 30) / 128);
        let src = rng.next_u64_below(4) as u8;
        let addr = line * 128;
        let txn = gpu_model::StoreTxn {
            addr,
            data: vec![7; 8],
        };
        match route_txn(&map, GpuId::new(src), txn) {
            Ok(remote) => {
                assert_ne!(remote.dst, GpuId::new(src));
                assert_eq!(remote.dst, map.owner(addr));
            }
            Err(_) => assert_eq!(map.owner(addr), GpuId::new(src)),
        }
    }
}

/// MemoryImage::same_contents is an equivalence on random write sets.
#[test]
fn memory_image_equivalence() {
    let mut rng = DetRng::new(0x69_0003, "memimage");
    for _ in 0..100 {
        let n = rng.next_u64_below(64) as usize;
        let writes: Vec<(u64, usize, u8)> = (0..n)
            .map(|_| {
                (
                    rng.next_u64_below(65536),
                    rng.next_in_range(1, 32) as usize,
                    rng.next_u64() as u8,
                )
            })
            .collect();
        let mut a = MemoryImage::new();
        let mut b = MemoryImage::new();
        for (addr, len, v) in &writes {
            a.write(*addr, &vec![*v; *len]);
        }
        for (addr, len, v) in &writes {
            b.write(*addr, &vec![*v; *len]);
        }
        assert!(a.same_contents(&b));
        assert!(b.same_contents(&a));
        if let Some((addr, _, _)) = writes.first() {
            // Flip one byte: the images must now differ.
            let cur = a.read(*addr, 1)[0];
            b.write(*addr, &[cur ^ 0xFF]);
            assert!(!a.same_contents(&b));
        }
    }
}
