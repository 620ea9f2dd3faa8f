//! Randomized property tests for the GPU model: the L1 coalescer must
//! cover exactly the bytes the warp wrote, with per-lane conflict
//! resolution, and must equal a per-byte reference coalescer; routing
//! must partition cleanly by address ownership.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use gpu_model::{
    coalesce_warp_store, route_txn, store_byte, AccessPattern, AddressMap, GpuConfig, GpuId,
    ImageDiff, MemoryImage, StoreTxn,
};
use sim_engine::DetRng;

/// A transaction as its address and every payload byte.
type TxnBytes = (u64, Vec<u8>);

/// The reference coalescer the line-mask kernel replaced: one map insert
/// per written byte, grouped by cache block, ascending by address, with
/// each payload byte computed here by [`store_byte`]. Slow but plainly
/// correct; the differential test below holds the kernel to it
/// transaction for transaction and byte for byte.
fn oracle_coalesce(
    cfg: &GpuConfig,
    pattern: &AccessPattern,
    bytes_per_lane: u32,
    active_mask: u32,
    value_seed: u64,
) -> Vec<TxnBytes> {
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
                    txns.push((start, std::mem::take(&mut data)));
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
            txns.push((start, data));
        }
    }
    txns
}

/// The kernel's transactions as addresses and payloads, read through
/// [`StoreTxn::bytes`]; each must carry the warp's seed.
fn txn_bytes(txns: &[StoreTxn], value_seed: u64) -> Vec<TxnBytes> {
    txns.iter()
        .map(|t| {
            assert_eq!(t.value_seed, value_seed);
            assert_eq!(t.bytes().len(), t.len() as usize);
            (t.addr, t.bytes().collect())
        })
        .collect()
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
            txn_bytes(
                &coalesce_warp_store(&cfg, &pattern, bytes_per_lane, mask, seed),
                seed
            ),
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
                let byte = t.bytes().nth(i as usize);
                assert_eq!(byte, Some(store_byte(t.addr + i, seed)));
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
            len: 8,
            value_seed: 7,
        };
        match route_txn(&map, GpuId::new(src), txn) {
            Ok(remote) => {
                assert_ne!(remote.dst, GpuId::new(src));
                assert_eq!(remote.dst, map.owner(addr));
                assert!(remote.bytes().eq(txn.bytes()), "routing keeps the payload");
            }
            Err(_) => assert_eq!(map.owner(addr), GpuId::new(src)),
        }
    }
}

/// The per-byte model `MemoryImage` is held to: a byte never written
/// is absent and reads as zero.
type ByteModel = BTreeMap<u64, u8>;

fn model_read(model: &ByteModel, addr: u64, len: usize) -> Vec<u8> {
    (addr..addr + len as u64)
        .map(|a| model.get(&a).copied().unwrap_or(0))
        .collect()
}

/// The model's answer to `MemoryImage::diff`.
fn model_diff(a: &ByteModel, b: &ByteModel) -> ImageDiff {
    let addrs: BTreeSet<u64> = a.keys().chain(b.keys()).copied().collect();
    let mut differing = addrs
        .into_iter()
        .filter(|x| a.get(x).copied().unwrap_or(0) != b.get(x).copied().unwrap_or(0));
    let first = differing.next();
    ImageDiff {
        bytes: u64::from(first.is_some()) + differing.count() as u64,
        first,
    }
}

/// Draws 1-40 writes of 1-300 B over a 16-line region at a random
/// line-aligned `base`, each covering 1-3 lines. At least half the
/// writes longer than a byte straddle a line edge, a quarter write
/// zeros, and the small region makes overwrites common. Applies each to
/// both the image and the model, and returns the bytes written.
fn random_writes(
    rng: &mut DetRng,
    base: u64,
    image: &mut MemoryImage,
    model: &mut ByteModel,
) -> u64 {
    let mut written = 0;
    for _ in 0..rng.next_in_range(1, 41) {
        let len = rng.next_in_range(1, 301);
        let off = if len > 1 && rng.chance(0.5) {
            // End past the next line edge, and at most two edges on.
            128 - rng.next_in_range(len.saturating_sub(256).max(1), len.min(129))
        } else {
            rng.next_u64_below((3 * 128 + 1 - len).min(128))
        };
        let addr = base + rng.next_u64_below(16) * 128 + off;
        let data: Vec<u8> = if rng.chance(0.25) {
            vec![0; len as usize]
        } else {
            (0..len).map(|_| rng.next_u64() as u8).collect()
        };
        image.write(addr, &data);
        for (i, &v) in data.iter().enumerate() {
            model.insert(addr + i as u64, v);
        }
        written += len;
    }
    written
}

/// `MemoryImage` against the per-byte model: random line-straddling
/// writes with overwrites and zero-valued writes, `read` over windows
/// that include untouched bytes, and `diff`/`same_contents` in both
/// directions, including a zero-written byte against an absent one and
/// one flipped byte.
#[test]
fn memory_image_equivalence() {
    let mut rng = DetRng::new(0x69_0003, "memimage");
    for _ in 0..100 {
        // At least one line up, so windows can start a line below it.
        let base = (1 + rng.next_u64_below(1 << 40)) * 128;
        let mut a = MemoryImage::new();
        let mut model_a = ByteModel::new();
        let written = random_writes(&mut rng, base, &mut a, &mut model_a);
        assert_eq!(a.bytes_written(), written);
        let lines: BTreeSet<u64> = model_a.keys().map(|x| x / 128).collect();
        assert_eq!(a.touched_lines(), lines.len());
        for _ in 0..8 {
            // Windows run from a line before the region to one after it.
            let addr = base - 128 + rng.next_u64_below(18 * 128);
            let len = rng.next_in_range(1, 400) as usize;
            assert_eq!(
                a.read(addr, len),
                model_read(&model_a, addr, len),
                "read {addr:#x}+{len}"
            );
        }

        // An independent write set over the same region.
        let mut b = MemoryImage::new();
        let mut model_b = ByteModel::new();
        random_writes(&mut rng, base, &mut b, &mut model_b);
        assert_eq!(a.diff(&b), model_diff(&model_a, &model_b));
        assert_eq!(b.diff(&a), model_diff(&model_b, &model_a));
        assert_eq!(
            a.same_contents(&b),
            model_diff(&model_a, &model_b).bytes == 0
        );

        // The same contents written byte by byte: equal both ways.
        let mut same = MemoryImage::new();
        for (&addr, &v) in &model_a {
            same.write(addr, &[v]);
        }
        // A zero-written byte outside every touched line matches absence.
        same.write(base + 20 * 128 + 5, &[0]);
        assert_eq!(a.diff(&same), ImageDiff::default());
        assert_eq!(same.diff(&a), ImageDiff::default());
        assert!(a.same_contents(&same) && same.same_contents(&a));

        // One flipped byte, anywhere in or next to the region.
        let flip = base - 128 + rng.next_u64_below(18 * 128);
        let cur = a.read(flip, 1)[0];
        same.write(flip, &[cur ^ (1 + rng.next_u64_below(255)) as u8]);
        let want = ImageDiff {
            bytes: 1,
            first: Some(flip),
        };
        assert_eq!(a.diff(&same), want);
        assert_eq!(same.diff(&a), want);
        assert!(!a.same_contents(&same) && !same.same_contents(&a));
    }
}
