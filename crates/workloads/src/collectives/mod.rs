//! Collective-communication workloads at AI-training scale.
//!
//! The paper's suite is eight HPC applications; modern multi-GPU
//! traffic is dominated by *collectives* — all-reduce over gradients,
//! all-to-all expert shuffles, halo exchanges, parameter broadcasts —
//! whose message sizes span the exact fine-grained-vs-bulk regime
//! FinePack targets. This family models five collectives against the
//! same [`Workload`](crate::Workload) machinery as the suite, parameterized by a
//! message-size distribution ([`MsgDist`]) so one sweep covers both the
//! fine regime (where per-message DMA descriptor overhead buries the
//! bulk paradigm and FinePack's packing wins) and the bulk regime
//! (where full-line stores pay per-TLP header tax and DMA wins).
//!
//! Every collective emits its transfers as phases of warp stores into
//! the destination's per-source slot (the shared `common` addressing), a
//! system-scope fence separating dependent phases (reduce-scatter vs
//! all-gather). Message placement is a contiguous cursor per transfer —
//! the staging-buffer layout real collective libraries use — so spatial
//! locality, and therefore FinePack's packing opportunity, emerges from
//! the message size alone.
//!
//! The DMA paradigm models per-message descriptor granularity: each
//! message is padded to [`DMA_MESSAGE_GRANULE_BYTES`] on the wire
//! (scatter-gather descriptor minimum), computed analytically from the
//! distribution so the DMA byte count never depends on RNG draws.

mod alltoall;
mod broadcast;
mod halo;
mod ring;
mod tree;

pub use alltoall::AllToAllShuffle;
pub use broadcast::ParamBroadcast;
pub use halo::Halo2d;
pub use ring::RingAllReduce;
pub use tree::TreeAllReduce;

use gpu_model::{AccessPattern, GpuId, KernelTrace, TraceOp};
use sim_engine::DetRng;

use crate::assembler::interleave;
use crate::common::{per_gpu_compute_cycles, slot_base, stream_rng};
use crate::spec::RunSpec;

/// Minimum message and payload granularity: one 4-byte element.
const ELEM_BYTES: u64 = 4;

/// Largest drawable message (one message must fit comfortably inside a
/// source slot).
pub const MAX_MSG_BYTES: u32 = 1 << 20;

/// DMA scatter-gather descriptor granule: the bulk paradigm transfers
/// each message as at least one granule, so sub-granule messages
/// over-transfer proportionally (§II-B's waste, at descriptor level).
pub const DMA_MESSAGE_GRANULE_BYTES: u64 = 2048;

/// How collective transfers are cut into messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgDist {
    /// Every message is exactly this many bytes.
    Fixed(u32),
    /// Uniform over `[min, max]` in 4-byte steps.
    Uniform {
        /// Smallest message, bytes.
        min: u32,
        /// Largest message, bytes.
        max: u32,
    },
    /// Two-point mix: mostly fine messages with a bulk tail — the
    /// gradient-plus-activation shape of training traffic.
    Bimodal {
        /// Fine message size, bytes.
        fine: u32,
        /// Bulk message size, bytes.
        bulk: u32,
        /// Percent of messages drawn at the bulk size (0-100).
        bulk_pct: u32,
    },
}

impl MsgDist {
    /// Validates sizes: multiples of 4 in `[4, MAX_MSG_BYTES]`, ordered
    /// bounds, percentage in range.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the offending field.
    pub fn validate(&self) -> Result<(), String> {
        let size_ok = |what: &str, s: u32| -> Result<(), String> {
            if !(4..=MAX_MSG_BYTES).contains(&s) || !s.is_multiple_of(4) {
                return Err(format!(
                    "{what} must be a multiple of 4 in [4, {MAX_MSG_BYTES}], got {s}"
                ));
            }
            Ok(())
        };
        match *self {
            MsgDist::Fixed(s) => size_ok("fixed message size", s),
            MsgDist::Uniform { min, max } => {
                size_ok("uniform min", min)?;
                size_ok("uniform max", max)?;
                if min > max {
                    return Err(format!("uniform min {min} exceeds max {max}"));
                }
                Ok(())
            }
            MsgDist::Bimodal {
                fine,
                bulk,
                bulk_pct,
            } => {
                size_ok("bimodal fine size", fine)?;
                size_ok("bimodal bulk size", bulk)?;
                if fine > bulk {
                    return Err(format!("bimodal fine {fine} exceeds bulk {bulk}"));
                }
                if bulk_pct > 100 {
                    return Err(format!(
                        "bimodal bulk percent must be 0-100, got {bulk_pct}"
                    ));
                }
                Ok(())
            }
        }
    }

    /// Parses the canonical form: `fixed:N`, `uniform:MIN:MAX`, or
    /// `bimodal:FINE:BULK:PCT`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown kinds, malformed
    /// numbers, or out-of-range sizes.
    pub fn parse(s: &str) -> Result<Self, String> {
        let parts: Vec<&str> = s.split(':').collect();
        let num = |p: &str| -> Result<u32, String> {
            p.parse::<u32>()
                .map_err(|_| format!("`{p}` is not an unsigned integer"))
        };
        let dist = match parts.as_slice() {
            ["fixed", n] => MsgDist::Fixed(num(n)?),
            ["uniform", min, max] => MsgDist::Uniform {
                min: num(min)?,
                max: num(max)?,
            },
            ["bimodal", fine, bulk, pct] => MsgDist::Bimodal {
                fine: num(fine)?,
                bulk: num(bulk)?,
                bulk_pct: num(pct)?,
            },
            _ => {
                return Err(format!(
                    "`{s}` is not fixed:N, uniform:MIN:MAX, or bimodal:FINE:BULK:PCT"
                ))
            }
        };
        dist.validate()?;
        Ok(dist)
    }

    /// Draws one message size. [`MsgDist::Fixed`] consumes no RNG state.
    fn draw(&self, rng: &mut DetRng) -> u64 {
        match *self {
            MsgDist::Fixed(s) => u64::from(s),
            MsgDist::Uniform { min, max } => {
                let steps = u64::from((max - min) / 4) + 1;
                u64::from(min) + 4 * rng.next_u64_below(steps)
            }
            MsgDist::Bimodal {
                fine,
                bulk,
                bulk_pct,
            } => {
                if rng.next_u64_below(100) < u64::from(bulk_pct) {
                    u64::from(bulk)
                } else {
                    u64::from(fine)
                }
            }
        }
    }

    /// Expected DMA wire bytes per payload byte: each message pads to
    /// the descriptor granule. Analytic (no RNG), so the DMA paradigm's
    /// byte count is a pure function of the configuration.
    fn dma_expansion(&self) -> f64 {
        let padded = |s: u32| dma_padded(u64::from(s)) as f64;
        match *self {
            MsgDist::Fixed(s) => padded(s) / f64::from(s),
            MsgDist::Uniform { min, max } => {
                let mut wire = 0.0;
                let mut payload = 0.0;
                let mut s = min;
                loop {
                    wire += padded(s);
                    payload += f64::from(s);
                    if s >= max {
                        break;
                    }
                    s += 4;
                }
                wire / payload
            }
            MsgDist::Bimodal {
                fine,
                bulk,
                bulk_pct,
            } => {
                let p = f64::from(bulk_pct) / 100.0;
                let wire = p * padded(bulk) + (1.0 - p) * padded(fine);
                let payload = p * f64::from(bulk) + (1.0 - p) * f64::from(fine);
                wire / payload
            }
        }
    }
}

impl std::fmt::Display for MsgDist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            MsgDist::Fixed(s) => write!(f, "fixed:{s}"),
            MsgDist::Uniform { min, max } => write!(f, "uniform:{min}:{max}"),
            MsgDist::Bimodal {
                fine,
                bulk,
                bulk_pct,
            } => write!(f, "bimodal:{fine}:{bulk}:{bulk_pct}"),
        }
    }
}

/// Pads one message to the DMA descriptor granule.
fn dma_padded(bytes: u64) -> u64 {
    bytes.div_ceil(DMA_MESSAGE_GRANULE_BYTES) * DMA_MESSAGE_GRANULE_BYTES
}

/// Shared knobs of every collective: the per-GPU payload (gradient
/// buffer, expert activations, halo plane, parameter block) and how it
/// is cut into messages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollectiveTuning {
    /// Per-GPU payload bytes per iteration (before test scale-down).
    pub payload_bytes: u64,
    /// Message-size distribution.
    pub msg: MsgDist,
    /// Single-GPU compute wall time per iteration, µs (collectives are
    /// communication-dominated; this models the reduction arithmetic).
    pub compute_wall_us: f64,
}

impl Default for CollectiveTuning {
    fn default() -> Self {
        CollectiveTuning {
            payload_bytes: 4 << 20,
            // Training-shaped default: many fine messages, a bulk tail.
            msg: MsgDist::Bimodal {
                fine: 64,
                bulk: 65536,
                bulk_pct: 30,
            },
            compute_wall_us: 12.0,
        }
    }
}

/// Smallest accepted per-GPU payload.
pub const MIN_PAYLOAD_BYTES: u64 = 1 << 10;
/// Largest accepted per-GPU payload (keeps every transfer inside its
/// 32 MB source slot at any GPU count).
pub const MAX_PAYLOAD_BYTES: u64 = 16 << 20;

impl CollectiveTuning {
    /// Validates the knobs.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if !(MIN_PAYLOAD_BYTES..=MAX_PAYLOAD_BYTES).contains(&self.payload_bytes) {
            return Err(format!(
                "payload must be {MIN_PAYLOAD_BYTES}-{MAX_PAYLOAD_BYTES} bytes, got {}",
                self.payload_bytes
            ));
        }
        if self.compute_wall_us <= 0.0 || self.compute_wall_us.is_nan() {
            return Err(format!(
                "compute wall time must be positive, got {}",
                self.compute_wall_us
            ));
        }
        self.msg.validate()
    }

    /// The per-GPU payload after test scale-down, 4-byte aligned and
    /// floored at one element so degenerate scale-downs stay runnable.
    pub(crate) fn scaled_payload(&self, spec: &RunSpec) -> u64 {
        round4(self.payload_bytes / u64::from(spec.scale_down)).max(ELEM_BYTES)
    }
}

/// Rounds down to a 4-byte multiple.
fn round4(bytes: u64) -> u64 {
    bytes / ELEM_BYTES * ELEM_BYTES
}

/// Rounds down to a 4-byte multiple, flooring at one element — the
/// share of a payload one transfer carries.
pub(crate) fn transfer_bytes(bytes: u64) -> u64 {
    round4(bytes).max(ELEM_BYTES)
}

// ---------------------------------------------------------------------
// Topologies (shared with `common::targets` and the DMA planner).
// ---------------------------------------------------------------------

/// Converts a rank known to be below the (u8) GPU count back to an id.
fn gid(rank: u16) -> GpuId {
    GpuId::new(
        crate::convert::checked_gpu_index("collective rank", u64::from(rank))
            .expect("ranks are bounded by num_gpus, which is u8"),
    )
}

/// The next GPU around the ring (with wraparound).
pub fn ring_next(gpu: GpuId, num_gpus: u8) -> GpuId {
    let n = u16::from(num_gpus.max(1));
    gid((u16::from(gpu.as_u8()) + 1) % n)
}

/// The 2D process grid for `n` GPUs: the most-square `rows x cols`
/// factorization (`rows <= cols`); prime counts degrade to a chain.
pub fn grid_dims(num_gpus: u8) -> (u8, u8) {
    let n = num_gpus.max(1);
    let mut rows = 1;
    for r in 1..=n {
        if u16::from(r) * u16::from(r) > u16::from(n) {
            break;
        }
        if n.is_multiple_of(r) {
            rows = r;
        }
    }
    (rows, n / rows)
}

/// The up/down/left/right neighbors of `gpu` in the 2D grid (no wrap).
pub fn grid_neighbors(gpu: GpuId, num_gpus: u8) -> Vec<GpuId> {
    let (rows, cols) = grid_dims(num_gpus);
    let (rows, cols) = (u16::from(rows), u16::from(cols));
    let i = u16::from(gpu.as_u8());
    let (r, c) = (i / cols, i % cols);
    let mut out = Vec::with_capacity(4);
    if r > 0 {
        out.push(gid(i - cols));
    }
    if r + 1 < rows {
        out.push(gid(i + cols));
    }
    if c > 0 {
        out.push(gid(i - 1));
    }
    if c + 1 < cols {
        out.push(gid(i + 1));
    }
    out
}

/// The binomial-tree parent of `gpu` (`None` for the root, GPU 0):
/// clear the lowest set bit.
pub fn tree_parent(gpu: GpuId) -> Option<GpuId> {
    let i = gpu.as_u8();
    if i == 0 {
        None
    } else {
        Some(GpuId::new(i & (i - 1)))
    }
}

/// The binomial-tree children of `gpu` among `num_gpus` ranks:
/// `gpu + 2^k` for every power below `gpu`'s lowest set bit.
pub fn tree_children(gpu: GpuId, num_gpus: u8) -> Vec<GpuId> {
    let i = u16::from(gpu.as_u8());
    let lsb = if i == 0 {
        u16::MAX
    } else {
        i & i.wrapping_neg()
    };
    let mut out = Vec::new();
    let mut bit = 1u16;
    // Children are strictly increasing, so the first candidate past the
    // rank count ends the walk (and keeps `bit` from wrapping to zero
    // for the root, whose lsb sentinel is u16::MAX).
    while bit < lsb {
        let child = i + bit;
        if child >= u16::from(num_gpus) {
            break;
        }
        out.push(gid(child));
        bit <<= 1;
    }
    out
}

// ---------------------------------------------------------------------
// Trace assembly.
// ---------------------------------------------------------------------

/// One dependent round of a collective: `(destination, payload bytes)`
/// transfers that may proceed concurrently.
pub(crate) type Phase = Vec<(GpuId, u64)>;

/// Emits one message as warp stores: full 128-byte lines plus a
/// partial-mask tail (4-byte lanes), starting at `addr`.
fn emit_message(addr: u64, bytes: u64, rng: &mut DetRng, ops: &mut Vec<TraceOp>) {
    let full = bytes / 128;
    for i in 0..full {
        ops.push(TraceOp::WarpStore {
            pattern: AccessPattern::Contiguous {
                base: addr + i * 128,
            },
            bytes_per_lane: 4,
            active_mask: u32::MAX,
            value_seed: rng.next_u64_below(u64::MAX),
        });
    }
    let tail = bytes % 128;
    if tail > 0 {
        let lanes = (tail / 4).max(1) as u32;
        ops.push(TraceOp::WarpStore {
            pattern: AccessPattern::Contiguous {
                base: addr + full * 128,
            },
            bytes_per_lane: 4,
            active_mask: (1u32 << lanes) - 1,
            value_seed: rng.next_u64_below(u64::MAX),
        });
    }
}

/// Cuts one `(src -> dst)` transfer of `total` bytes into messages and
/// emits them at a contiguous cursor inside the destination slot.
fn message_ops(
    gpu: GpuId,
    dst: GpuId,
    total: u64,
    msg: &MsgDist,
    rng: &mut DetRng,
    ops: &mut Vec<TraceOp>,
) {
    debug_assert!(
        total <= crate::common::SRC_SLOT_BYTES,
        "transfer overflows the source slot"
    );
    let base = slot_base(dst, gpu);
    let mut off = 0u64;
    while off < total {
        let want = msg.draw(rng);
        let size = transfer_bytes(want.min(total - off));
        emit_message(base + off, size, rng, ops);
        off += size;
    }
}

/// Builds one GPU's kernel trace for a collective iteration: each
/// phase's transfers are interleaved with an equal share of the compute
/// budget, and a system-scope fence separates dependent phases.
pub(crate) fn collective_trace(
    name: &str,
    tuning: &CollectiveTuning,
    spec: &RunSpec,
    iter: u32,
    gpu: GpuId,
    phases: &[Phase],
) -> KernelTrace {
    spec.validate();
    let mut rng = stream_rng(spec.seed, name, iter, gpu);
    let compute = per_gpu_compute_cycles(tuning.compute_wall_us, spec);
    let active: Vec<&Phase> = phases.iter().collect();
    let per_phase = compute / active.len().max(1) as u64;
    let mut trace = KernelTrace::new(name);
    if active.is_empty() {
        // Degenerate run (e.g. a single GPU, where the reduction is the
        // identity): the kernel still burns its compute budget.
        return interleave(name, compute.max(1), Vec::new());
    }
    for (i, phase) in active.iter().enumerate() {
        let mut ops = Vec::new();
        for (dst, bytes) in phase.iter() {
            message_ops(gpu, *dst, *bytes, &tuning.msg, &mut rng, &mut ops);
        }
        let part = interleave(name, per_phase.max(1), ops);
        if i > 0 {
            trace.push(TraceOp::Fence);
        }
        trace.ops.extend(part.ops);
    }
    trace
}

/// The DMA paradigm's wire bytes for `total` payload bytes cut by
/// `msg`: analytic per-message descriptor padding.
pub(crate) fn dma_bytes_for(total: u64, msg: &MsgDist) -> u64 {
    if total == 0 {
        return 0;
    }
    (total as f64 * msg.dma_expansion()).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msg_dist_parses_and_displays_canonically() {
        for s in ["fixed:128", "uniform:64:4096", "bimodal:16:65536:30"] {
            let d = MsgDist::parse(s).unwrap();
            assert_eq!(d.to_string(), s);
        }
        assert_eq!(MsgDist::parse("fixed:128").unwrap(), MsgDist::Fixed(128));
    }

    #[test]
    fn msg_dist_rejects_malformed_and_out_of_range() {
        for bad in [
            "fixed:0",
            "fixed:6",         // not a 4-byte multiple
            "fixed:2097152",   // above MAX_MSG_BYTES
            "uniform:4096:64", // min > max
            "uniform:64",
            "bimodal:64:16:50", // fine > bulk
            "bimodal:16:64:101",
            "poisson:64",
            "fixed:abc",
            "",
        ] {
            assert!(MsgDist::parse(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn draws_respect_the_distribution() {
        let mut rng = DetRng::new(1, "d");
        assert_eq!(MsgDist::Fixed(256).draw(&mut rng), 256);
        let u = MsgDist::Uniform { min: 64, max: 256 };
        for _ in 0..100 {
            let s = u.draw(&mut rng);
            assert!((64..=256).contains(&s) && s.is_multiple_of(4), "s={s}");
        }
        let b = MsgDist::Bimodal {
            fine: 16,
            bulk: 4096,
            bulk_pct: 50,
        };
        let draws: Vec<u64> = (0..200).map(|_| b.draw(&mut rng)).collect();
        assert!(draws.contains(&16));
        assert!(draws.contains(&4096));
        assert!(draws.iter().all(|s| *s == 16 || *s == 4096));
    }

    #[test]
    fn dma_expansion_matches_granule_padding() {
        // A fine message pads to one full granule.
        let fine = MsgDist::Fixed(16);
        let factor = DMA_MESSAGE_GRANULE_BYTES as f64 / 16.0;
        assert!((fine.dma_expansion() - factor).abs() < 1e-9);
        // A granule-aligned bulk message does not pad at all.
        let bulk = MsgDist::Fixed(DMA_MESSAGE_GRANULE_BYTES as u32 * 4);
        assert!((bulk.dma_expansion() - 1.0).abs() < 1e-9);
        assert_eq!(dma_bytes_for(0, &fine), 0);
        assert!(dma_bytes_for(1 << 20, &fine) > dma_bytes_for(1 << 20, &bulk));
    }

    #[test]
    fn ring_wraps_around() {
        assert_eq!(ring_next(GpuId::new(0), 4), GpuId::new(1));
        assert_eq!(ring_next(GpuId::new(3), 4), GpuId::new(0));
        assert_eq!(ring_next(GpuId::new(0), 1), GpuId::new(0));
    }

    #[test]
    fn grid_dims_prefer_square() {
        assert_eq!(grid_dims(16), (4, 4));
        assert_eq!(grid_dims(12), (3, 4));
        assert_eq!(grid_dims(8), (2, 4));
        assert_eq!(grid_dims(7), (1, 7)); // prime: chain
        assert_eq!(grid_dims(1), (1, 1));
    }

    #[test]
    fn grid_neighbors_respect_edges() {
        // 4x4 grid: corner has 2 neighbors, center has 4.
        assert_eq!(grid_neighbors(GpuId::new(0), 16).len(), 2);
        assert_eq!(grid_neighbors(GpuId::new(5), 16).len(), 4);
        // Neighbor relation is symmetric.
        for i in 0..16 {
            for n in grid_neighbors(GpuId::new(i), 16) {
                assert!(grid_neighbors(n, 16).contains(&GpuId::new(i)));
            }
        }
        assert!(grid_neighbors(GpuId::new(0), 1).is_empty());
    }

    #[test]
    fn binomial_tree_is_consistent() {
        for n in [1u8, 2, 3, 5, 8, 16, 64] {
            let mut reached = 1u32; // root
            for i in 1..n {
                let p = tree_parent(GpuId::new(i)).expect("non-root has a parent");
                assert!(p.as_u8() < i, "parent must precede child");
                assert!(
                    tree_children(p, n).contains(&GpuId::new(i)),
                    "parent({i})={} does not list {i} as a child (n={n})",
                    p.as_u8()
                );
                reached += 1;
            }
            assert_eq!(reached, u32::from(n));
            assert_eq!(tree_parent(GpuId::new(0)), None);
        }
    }

    #[test]
    fn messages_cover_the_transfer_exactly() {
        let mut rng = DetRng::new(3, "m");
        let mut ops = Vec::new();
        message_ops(
            GpuId::new(0),
            GpuId::new(1),
            10_000,
            &MsgDist::Fixed(384),
            &mut rng,
            &mut ops,
        );
        let mut bytes = 0u64;
        for op in &ops {
            if let TraceOp::WarpStore { active_mask, .. } = op {
                bytes += 4 * u64::from(active_mask.count_ones());
            }
        }
        assert_eq!(bytes, 10_000);
    }

    #[test]
    fn tuning_validation_bounds_payload() {
        assert!(CollectiveTuning::default().validate().is_ok());
        let mut t = CollectiveTuning {
            payload_bytes: 64,
            ..CollectiveTuning::default()
        };
        assert!(t.validate().is_err());
        t.payload_bytes = MAX_PAYLOAD_BYTES + 1;
        assert!(t.validate().is_err());
        let t = CollectiveTuning {
            compute_wall_us: 0.0,
            ..CollectiveTuning::default()
        };
        assert!(t.validate().is_err());
    }
}
