//! Intra-warp L1 store coalescing.
//!
//! A warp store writes up to 32 lanes × 1–8 bytes. The L1 cache merges
//! lanes that touch the same 128B cache block into as few transactions as
//! possible; remote stores then leave the GPU at exactly this granularity,
//! because peer-GPU writes are not cached or combined in L2 (§III).
//! This module reproduces that behaviour and is the source of the
//! store-size distributions in Figure 4.
//!
//! The kernel works a word at a time: each active lane ORs its byte range
//! into a `u128` mask for every cache line it touches, the touched lines
//! are sorted by address, and `trailing_zeros` run extraction turns each
//! mask into transactions.

use crate::addr::{AddressMap, GpuId};
use crate::config::GpuConfig;
use crate::trace::{payload, AccessPattern, RemoteStore};

/// Most cache lines one warp store can touch: 32 lanes of at most 8
/// bytes, over lines of at least 8 bytes, touch at most two lines each.
const MAX_LINES: usize = 64;

/// One post-coalescing store transaction (local or remote): plain
/// data, like the [`RemoteStore`] it becomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreTxn {
    /// First byte address (node-global physical).
    pub addr: u64,
    /// Payload length in bytes.
    pub len: u32,
    /// Seed of the payload bytes (see [`crate::store_byte`]).
    pub value_seed: u64,
}

impl StoreTxn {
    /// Payload length in bytes.
    pub fn len(&self) -> u32 {
        self.len
    }

    /// True if empty (never produced by [`coalesce_warp_store`]).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The payload bytes in address order: byte `i` is
    /// [`crate::store_byte`]`(addr + i, value_seed)`.
    pub fn bytes(&self) -> impl ExactSizeIterator<Item = u8> {
        payload(self.addr, self.len, self.value_seed)
    }
}

/// Coalesces one warp store instruction into L1-egress transactions.
///
/// Lanes are grouped by cache block; within a block, contiguous runs of
/// written bytes become one transaction each, in ascending address
/// order. Lanes writing the same byte merge: every payload byte is
/// [`crate::store_byte`] of its address, so the winning lane does not
/// matter.
///
/// # Panics
///
/// Panics if `bytes_per_lane` is outside 1..=8, or if `cfg`'s cache
/// block is not a power of two in 8..=128 bytes (see
/// [`GpuConfig::validate`]).
///
/// # Examples
///
/// ```
/// use gpu_model::{coalesce_warp_store, AccessPattern, GpuConfig};
///
/// let cfg = GpuConfig::gv100();
/// // 32 lanes × 4B contiguous: one 128B transaction.
/// let txns = coalesce_warp_store(
///     &cfg,
///     &AccessPattern::Contiguous { base: 0x1000 },
///     4,
///     u32::MAX,
///     0,
/// );
/// assert_eq!(txns.len(), 1);
/// assert_eq!(txns[0].len(), 128);
/// ```
pub fn coalesce_warp_store(
    cfg: &GpuConfig,
    pattern: &AccessPattern,
    bytes_per_lane: u32,
    active_mask: u32,
    value_seed: u64,
) -> Vec<StoreTxn> {
    let mut txns = Vec::new();
    for_each_txn(
        cfg,
        pattern,
        bytes_per_lane,
        active_mask,
        value_seed,
        |txn| txns.push(txn),
    );
    txns
}

/// The coalescing kernel behind [`coalesce_warp_store`]: hands each
/// transaction to `sink` in ascending address order. It allocates
/// nothing: the line masks live on the stack and a transaction is plain
/// data.
pub(crate) fn for_each_txn(
    cfg: &GpuConfig,
    pattern: &AccessPattern,
    bytes_per_lane: u32,
    active_mask: u32,
    value_seed: u64,
    mut sink: impl FnMut(StoreTxn),
) {
    assert!(
        (1..=8).contains(&bytes_per_lane),
        "bytes per lane {bytes_per_lane} outside 1..=8"
    );
    let block = u64::from(cfg.cache_block_bytes);
    assert!(
        block.is_power_of_two() && (8..=128).contains(&block),
        "cache block {block}B outside the coalescer's 8-128B"
    );
    // Lanes past the warp never execute.
    let warp_lanes = u32::MAX
        .checked_shl(cfg.warp_size)
        .map_or(u32::MAX, |hi| !hi);
    let mut lines = [(0u64, 0u128); MAX_LINES];
    let mut n = 0;
    let mut active = active_mask & warp_lanes;
    while active != 0 {
        let lane = active.trailing_zeros();
        active &= active - 1;
        let mut at = pattern.lane_addr(lane, bytes_per_lane);
        let last = at + u64::from(bytes_per_lane - 1);
        loop {
            let base = at & !(block - 1);
            let seg_last = last.min(base | (block - 1));
            let len = (seg_last - at) as u32 + 1;
            let bits = (u128::MAX >> (u128::BITS - len)) << (at - base);
            // Neighbouring lanes mostly share a line: merge into the
            // last one touched; sorting below folds the rest.
            match lines[..n].last_mut() {
                Some((b, mask)) if *b == base => *mask |= bits,
                _ => {
                    lines[n] = (base, bits);
                    n += 1;
                }
            }
            if seg_last == last {
                break;
            }
            at = seg_last + 1;
        }
    }
    let lines = &mut lines[..n];
    lines.sort_unstable_by_key(|&(base, _)| base);
    let mut i = 0;
    while i < lines.len() {
        let (base, mut mask) = lines[i];
        i += 1;
        while i < lines.len() && lines[i].0 == base {
            mask |= lines[i].1;
            i += 1;
        }
        while mask != 0 {
            let start = mask.trailing_zeros();
            let len = (!(mask >> start)).trailing_zeros();
            mask &= u128::MAX.checked_shl(start + len).unwrap_or(0);
            sink(StoreTxn {
                addr: base + u64::from(start),
                len,
                value_seed,
            });
        }
    }
}

/// Classifies a coalesced transaction as local or remote and converts
/// remote ones into [`RemoteStore`]s.
pub fn route_txn(map: &AddressMap, src: GpuId, txn: StoreTxn) -> Result<RemoteStore, StoreTxn> {
    let dst = map.owner(txn.addr);
    if dst == src {
        Err(txn)
    } else {
        Ok(RemoteStore {
            src,
            dst,
            addr: txn.addr,
            len: txn.len,
            value_seed: txn.value_seed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> GpuConfig {
        GpuConfig::gv100()
    }

    #[test]
    fn contiguous_warp_coalesces_to_one_line() {
        let txns = coalesce_warp_store(
            &cfg(),
            &AccessPattern::Contiguous { base: 0x2000 },
            4,
            u32::MAX,
            7,
        );
        assert_eq!(txns.len(), 1);
        assert_eq!(txns[0].addr, 0x2000);
        assert_eq!(txns[0].len(), 128);
    }

    #[test]
    fn contiguous_but_misaligned_splits_at_line_boundary() {
        // Base 0x2040: 128B of writes spanning two cache blocks.
        let txns = coalesce_warp_store(
            &cfg(),
            &AccessPattern::Contiguous { base: 0x2040 },
            4,
            u32::MAX,
            0,
        );
        assert_eq!(txns.len(), 2);
        assert_eq!(txns[0].len(), 64);
        assert_eq!(txns[1].len(), 64);
        assert_eq!(txns[1].addr, 0x2080);
    }

    #[test]
    fn fully_scattered_yields_per_lane_txns() {
        // Each lane writes 8B to a distinct cache block.
        let addrs: Vec<u64> = (0..32).map(|i| 0x10_0000 + i * 4096).collect();
        let txns = coalesce_warp_store(&cfg(), &AccessPattern::Scattered { addrs }, 8, u32::MAX, 0);
        assert_eq!(txns.len(), 32);
        assert!(txns.iter().all(|t| t.len() == 8));
    }

    #[test]
    fn strided_by_32_produces_sector_sized_runs() {
        // 4B per lane, 32B stride: 4 lanes' worth of disjoint 4B runs per block.
        let txns = coalesce_warp_store(
            &cfg(),
            &AccessPattern::Strided {
                base: 0,
                stride: 32,
            },
            4,
            u32::MAX,
            0,
        );
        assert_eq!(txns.len(), 32);
        assert!(txns.iter().all(|t| t.len() == 4));
    }

    #[test]
    fn inactive_lanes_are_skipped() {
        let txns = coalesce_warp_store(
            &cfg(),
            &AccessPattern::Contiguous { base: 0 },
            4,
            0x0000_000F, // only lanes 0-3
            0,
        );
        assert_eq!(txns.len(), 1);
        assert_eq!(txns[0].len(), 16);
    }

    #[test]
    fn no_active_lanes_is_empty() {
        let txns = coalesce_warp_store(&cfg(), &AccessPattern::Contiguous { base: 0 }, 4, 0, 0);
        assert!(txns.is_empty());
    }

    #[test]
    fn overlapping_lanes_merge() {
        // All lanes write the same 4 bytes.
        let addrs = vec![0x40; 32];
        let txns = coalesce_warp_store(&cfg(), &AccessPattern::Scattered { addrs }, 4, u32::MAX, 3);
        assert_eq!(txns.len(), 1);
        assert_eq!(txns[0].len(), 4);
    }

    #[test]
    fn payload_matches_store_byte() {
        let txns = coalesce_warp_store(
            &cfg(),
            &AccessPattern::Contiguous { base: 0x80 },
            4,
            0x1,
            99,
        );
        assert_eq!(txns.len(), 1);
        for (i, b) in txns[0].bytes().enumerate() {
            assert_eq!(b, crate::store_byte(0x80 + i as u64, 99));
        }
    }

    #[test]
    fn routing_splits_local_and_remote() {
        let map = AddressMap::new(2, 1 << 20);
        let local = StoreTxn {
            addr: 0x100,
            len: 4,
            value_seed: 0,
        };
        let remote = StoreTxn {
            addr: (1 << 20) + 0x100,
            ..local
        };
        assert!(route_txn(&map, GpuId::new(0), local).is_err());
        let r = route_txn(&map, GpuId::new(0), remote).unwrap();
        assert_eq!(r.dst, GpuId::new(1));
    }
}
