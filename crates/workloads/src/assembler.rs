//! Shared trace-construction helpers used by the application generators:
//! compute/store interleaving and warp-store stream builders.

use gpu_model::{AccessPattern, KernelTrace, TraceOp};
use sim_engine::{DetRng, Zipf};

/// Target number of compute chunks per kernel, chosen large relative to
/// the SM count so round-robin replay stays load-balanced.
const MIN_COMPUTE_CHUNKS: usize = 1600;

/// Builds a kernel trace by interleaving `total_compute_cycles` of
/// compute evenly among `stores`, so remote traffic is emitted throughout
/// the kernel (the compute/communication overlap P2P paradigms rely on).
pub(crate) fn interleave(
    name: &str,
    total_compute_cycles: u64,
    stores: Vec<TraceOp>,
) -> KernelTrace {
    let mut trace = KernelTrace::new(name);
    let n_chunks = MIN_COMPUTE_CHUNKS.max(stores.len());
    // Clamp rather than truncate: a chunk capped at u32::MAX is lossless
    // because the chunk count is recomputed from it on the next line,
    // while a wrapped cast would silently shrink the compute budget.
    let chunk = (total_compute_cycles / n_chunks as u64).clamp(1, u64::from(u32::MAX)) as u32;
    let n_chunks = (total_compute_cycles / u64::from(chunk)).max(1) as usize;
    let n_stores = stores.len();
    trace.ops.reserve(n_chunks + n_stores);
    // Bresenham-style even merge of the two streams.
    let total = n_chunks + n_stores;
    let mut emitted_stores = 0usize;
    let mut stores = stores.into_iter();
    for i in 0..total {
        let due = (i + 1) * n_stores / total;
        if due > emitted_stores {
            trace.push(stores.next().expect("store stream underrun"));
            emitted_stores += 1;
        } else {
            trace.push(TraceOp::Compute { cycles: chunk });
        }
    }
    trace.ops.extend(stores); // any remainder (none in practice)
    trace
}

/// Contiguous warp stores covering `total_bytes` starting at `base`,
/// 4 bytes per lane (one 128-byte fully-coalesced transaction per op).
pub(crate) fn contiguous_ops(base: u64, total_bytes: u64, rng: &mut DetRng) -> Vec<TraceOp> {
    let per_op = 32 * 4; // full warp, 4B lanes
    let n = total_bytes / per_op;
    (0..n)
        .map(|i| TraceOp::WarpStore {
            pattern: AccessPattern::Contiguous {
                base: base + i * per_op,
            },
            bytes_per_lane: 4,
            active_mask: u32::MAX,
            value_seed: rng.next_u64_below(u64::MAX),
        })
        .collect()
}

/// How scatter slots are drawn.
#[derive(Debug, Clone, Copy)]
pub(crate) enum SlotDist {
    /// Uniform over the region (no temporal locality).
    Uniform,
    /// Zipf-skewed (hot slots rewritten often — temporal redundancy).
    Zipf(f64),
}

/// Scattered warp stores: each op's 32 lanes form `32 / group_lanes`
/// groups; each group writes `group_lanes * elem_bytes` contiguous bytes
/// at an independently drawn slot. `group_lanes == 1` gives fully
/// per-lane scatter (8B graph updates); `group_lanes == 4..8` gives the
/// 32–64B medium-granularity stores of Fig 4.
pub(crate) fn scatter_ops(
    region_base: u64,
    region_bytes: u64,
    elem_bytes: u32,
    group_lanes: u32,
    n_ops: u64,
    dist: SlotDist,
    rng: &mut DetRng,
) -> Vec<TraceOp> {
    assert!(group_lanes.is_power_of_two() && group_lanes <= 32);
    assert!(elem_bytes > 0 && elem_bytes <= 8);
    let group_bytes = u64::from(group_lanes * elem_bytes);
    let n_slots = (region_bytes / group_bytes).max(1);
    // Built only when a draw happens, so parameters the sampler rejects
    // still panic only where a draw would.
    let zipf = match dist {
        SlotDist::Zipf(s) if n_ops > 0 => Some(Zipf::new(n_slots, s)),
        _ => None,
    };
    (0..n_ops)
        .map(|_| {
            let mut addrs = Vec::with_capacity(32);
            for _group in 0..(32 / group_lanes) {
                let slot = match &zipf {
                    Some(zipf) => zipf.sample(rng),
                    None => rng.next_u64_below(n_slots),
                };
                let base = region_base + slot * group_bytes;
                for lane_in_group in 0..group_lanes {
                    addrs.push(base + u64::from(lane_in_group * elem_bytes));
                }
            }
            TraceOp::WarpStore {
                pattern: AccessPattern::Scattered { addrs },
                bytes_per_lane: elem_bytes,
                active_mask: u32::MAX,
                value_seed: rng.next_u64_below(u64::MAX),
            }
        })
        .collect()
}

/// Strided row stores: groups of `group_lanes` lanes write contiguous
/// runs separated by `row_pitch` bytes — the partially-coalesced stencil
/// boundary pattern (EQWP's 32B transfers).
pub(crate) fn strided_row_ops(
    base: u64,
    rows: u64,
    row_pitch: u64,
    group_lanes: u32,
    elem_bytes: u32,
    rng: &mut DetRng,
) -> Vec<TraceOp> {
    assert!(group_lanes.is_power_of_two() && group_lanes <= 32);
    let groups_per_op = u64::from(32 / group_lanes);
    let n_ops = rows.div_ceil(groups_per_op);
    let mut ops = Vec::with_capacity(n_ops as usize);
    let mut row = 0u64;
    while row < rows {
        let mut addrs = Vec::with_capacity(32);
        for g in 0..groups_per_op {
            let r = (row + g).min(rows - 1);
            let run_base = base + r * row_pitch;
            for lane_in_group in 0..group_lanes {
                addrs.push(run_base + u64::from(lane_in_group * elem_bytes));
            }
        }
        ops.push(TraceOp::WarpStore {
            pattern: AccessPattern::Scattered { addrs },
            bytes_per_lane: elem_bytes,
            active_mask: u32::MAX,
            value_seed: rng.next_u64_below(u64::MAX),
        });
        row += groups_per_op;
    }
    ops
}

/// Converts a single-GPU wall-clock compute budget (µs at 1.4 GHz across
/// 80 SMs) into total trace compute cycles.
pub(crate) fn compute_cycles_for_wall_us(wall_us: f64) -> u64 {
    // 80 SMs x 1400 cycles/us each.
    (wall_us * 80.0 * 1400.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_model::TraceOp;

    fn count_stores(trace: &KernelTrace) -> usize {
        trace
            .ops
            .iter()
            .filter(|o| matches!(o, TraceOp::WarpStore { .. }))
            .count()
    }

    #[test]
    fn interleave_preserves_totals() {
        let mut rng = DetRng::new(1, "t");
        let stores = contiguous_ops(0, 128 * 100, &mut rng);
        let trace = interleave("k", 1_000_000, stores);
        assert_eq!(count_stores(&trace), 100);
        let total = trace.total_compute_cycles();
        assert!((990_000..=1_000_000).contains(&total), "total={total}");
    }

    #[test]
    fn interleave_spreads_stores() {
        let mut rng = DetRng::new(1, "t");
        let stores = contiguous_ops(0, 128 * 10, &mut rng);
        let trace = interleave("k", 1_000_000, stores);
        // First store should not appear in the first 2% of ops, last store
        // not before the final 80%.
        let positions: Vec<usize> = trace
            .ops
            .iter()
            .enumerate()
            .filter(|(_, o)| matches!(o, TraceOp::WarpStore { .. }))
            .map(|(i, _)| i)
            .collect();
        let n = trace.len();
        assert!(positions[0] > n / 50);
        assert!(*positions.last().unwrap() > n * 8 / 10);
    }

    #[test]
    fn contiguous_ops_cover_range() {
        let mut rng = DetRng::new(1, "c");
        let ops = contiguous_ops(0x1000, 1024, &mut rng);
        assert_eq!(ops.len(), 8);
        if let TraceOp::WarpStore { pattern, .. } = &ops[7] {
            assert_eq!(
                pattern.lane_addr(0, 4),
                0x1000 + 7 * 128,
                "ops advance by 128B"
            );
        } else {
            panic!("not a store");
        }
    }

    #[test]
    fn scatter_ops_stay_in_region() {
        let mut rng = DetRng::new(2, "s");
        let region = 1 << 20;
        let ops = scatter_ops(1 << 30, region, 8, 1, 50, SlotDist::Uniform, &mut rng);
        assert_eq!(ops.len(), 50);
        for op in &ops {
            if let TraceOp::WarpStore { pattern, .. } = op {
                for lane in 0..32 {
                    let a = pattern.lane_addr(lane, 8);
                    assert!(a >= 1 << 30 && a + 8 <= (1u64 << 30) + region);
                }
            }
        }
    }

    #[test]
    fn scatter_groups_are_contiguous() {
        let mut rng = DetRng::new(3, "g");
        let ops = scatter_ops(0, 1 << 20, 8, 4, 5, SlotDist::Uniform, &mut rng);
        for op in &ops {
            if let TraceOp::WarpStore { pattern, .. } = op {
                // Lanes 0-3 form one contiguous 32B group.
                let a0 = pattern.lane_addr(0, 8);
                for lane in 1..4 {
                    assert_eq!(pattern.lane_addr(lane, 8), a0 + u64::from(lane) * 8);
                }
            }
        }
    }

    #[test]
    fn strided_rows_make_sector_runs() {
        let mut rng = DetRng::new(4, "r");
        let ops = strided_row_ops(0, 16, 512, 8, 4, &mut rng);
        assert_eq!(ops.len(), 4); // 4 groups of 8 lanes per op
        if let TraceOp::WarpStore { pattern, .. } = &ops[0] {
            assert_eq!(pattern.lane_addr(0, 4), 0);
            assert_eq!(pattern.lane_addr(7, 4), 28); // 8 lanes x 4B run
            assert_eq!(pattern.lane_addr(8, 4), 512); // next row
        }
    }

    #[test]
    fn wall_us_conversion() {
        assert_eq!(compute_cycles_for_wall_us(1.0), 112_000);
    }
}
