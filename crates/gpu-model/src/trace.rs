//! The kernel trace format replayed by the GPU model.
//!
//! The paper collects traces with NVBit and replays them in NVAS; we have
//! no CUDA binaries, so workload generators synthesize traces directly in
//! this format. A trace is a per-GPU sequence of warp-granularity
//! operations: compute chunks (in SM cycles) and warp store instructions
//! whose 32 per-lane addresses follow an [`AccessPattern`].

use crate::addr::GpuId;

/// How the 32 lanes of a warp store address memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessPattern {
    /// Lane `i` writes `base + i * bytes_per_lane` — fully coalescable.
    Contiguous {
        /// Address written by lane 0.
        base: u64,
    },
    /// Lane `i` writes `base + i * stride` — partially coalescable when
    /// `stride` exceeds the element size.
    Strided {
        /// Address written by lane 0.
        base: u64,
        /// Per-lane address increment in bytes.
        stride: u64,
    },
    /// Each active lane writes an arbitrary address — the irregular case
    /// (graph algorithms, sparse linear algebra).
    Scattered {
        /// Per-lane addresses; entries beyond the active mask are ignored.
        addrs: Vec<u64>,
    },
}

impl AccessPattern {
    /// The address written by `lane`, given the per-lane element size.
    ///
    /// # Panics
    ///
    /// Panics for a [`AccessPattern::Scattered`] pattern if `lane` exceeds
    /// the address vector.
    pub fn lane_addr(&self, lane: u32, bytes_per_lane: u32) -> u64 {
        match self {
            AccessPattern::Contiguous { base } => {
                base + u64::from(lane) * u64::from(bytes_per_lane)
            }
            AccessPattern::Strided { base, stride } => base + u64::from(lane) * stride,
            AccessPattern::Scattered { addrs } => addrs[lane as usize],
        }
    }
}

/// One warp-granularity operation in a kernel trace.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceOp {
    /// The warp computes for `cycles` SM cycles (covers ALU work and local
    /// memory traffic, which never reaches the interconnect).
    Compute {
        /// SM cycles consumed.
        cycles: u32,
    },
    /// A warp store instruction. Addresses are node-global physical
    /// addresses; those owned by a peer GPU egress onto the interconnect.
    WarpStore {
        /// Per-lane addressing.
        pattern: AccessPattern,
        /// Bytes written per active lane (1–8 on real GPUs).
        bytes_per_lane: u32,
        /// Active-lane mask (bit `i` = lane `i` executes).
        active_mask: u32,
        /// Seed for deterministic data generation (see `store_byte`).
        value_seed: u64,
    },
    /// A system-scoped release fence: all prior remote stores must be made
    /// visible (flushes the remote write queue, §IV-B).
    Fence,
    /// A scalar remote load. On-demand loads stall the issuing warp and
    /// must observe any same-address store still buffered in the remote
    /// write queue (§IV-B same-address load-store ordering).
    RemoteLoad {
        /// Node-global physical address.
        addr: u64,
        /// Bytes read.
        bytes: u32,
    },
    /// A scalar remote atomic (read-modify-write). Atomics are never
    /// coalesced; they flush any same-address queued store and travel as
    /// their own transaction (§IV-C).
    RemoteAtomic {
        /// Node-global physical address.
        addr: u64,
        /// Operand bytes (4 or 8 on real GPUs).
        bytes: u32,
        /// Seed for deterministic operand generation.
        value_seed: u64,
    },
}

/// A kernel launch: the op stream plus metadata.
///
/// Ops are distributed round-robin across the GPU's SMs by the replay
/// engine, which models the compute/communication interleaving that
/// FinePack's overlap benefit depends on.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct KernelTrace {
    /// Human-readable kernel name (for reports).
    pub name: String,
    /// The warp-granularity op stream.
    pub ops: Vec<TraceOp>,
}

impl KernelTrace {
    /// Creates an empty trace with a name.
    pub fn new(name: impl Into<String>) -> Self {
        KernelTrace {
            name: name.into(),
            ops: Vec::new(),
        }
    }

    /// Appends an op.
    pub fn push(&mut self, op: TraceOp) {
        self.ops.push(op);
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if the trace has no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Total compute cycles across all ops (before SM parallelization).
    pub fn total_compute_cycles(&self) -> u64 {
        self.ops
            .iter()
            .map(|op| match op {
                TraceOp::Compute { cycles } => u64::from(*cycles),
                _ => 0,
            })
            .sum()
    }

    /// Number of warp store instructions.
    pub fn store_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, TraceOp::WarpStore { .. }))
            .count()
    }

    /// Number of remote atomic operations.
    pub fn atomic_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, TraceOp::RemoteAtomic { .. }))
            .count()
    }

    /// Number of remote load operations.
    pub fn load_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, TraceOp::RemoteLoad { .. }))
            .count()
    }

    /// The highest byte address any store, load or atomic touches, or
    /// `None` if no op touches memory. Saturates at `u64::MAX`, so a
    /// hostile trace cannot overflow it. Replaying needs a node whose
    /// address map covers this address.
    pub fn highest_address(&self) -> Option<u64> {
        self.ops.iter().filter_map(TraceOp::highest_address).max()
    }
}

impl TraceOp {
    /// The highest byte address this op touches (see
    /// [`KernelTrace::highest_address`]).
    fn highest_address(&self) -> Option<u64> {
        let (first, bytes) = match self {
            TraceOp::Compute { .. } | TraceOp::Fence => return None,
            TraceOp::RemoteLoad { addr, bytes } | TraceOp::RemoteAtomic { addr, bytes, .. } => {
                (*addr, *bytes)
            }
            TraceOp::WarpStore {
                pattern,
                bytes_per_lane,
                active_mask,
                ..
            } => {
                // Lane addresses ascend with the lane in the regular
                // patterns, so the highest active lane writes highest.
                let top_lane = u64::from(31u32.checked_sub(active_mask.leading_zeros())?);
                let first = match pattern {
                    AccessPattern::Contiguous { base } => {
                        base.saturating_add(top_lane * u64::from(*bytes_per_lane))
                    }
                    AccessPattern::Strided { base, stride } => {
                        base.saturating_add(top_lane.saturating_mul(*stride))
                    }
                    AccessPattern::Scattered { addrs } => addrs
                        .iter()
                        .take(32)
                        .enumerate()
                        .filter(|&(lane, _)| active_mask >> lane & 1 == 1)
                        .map(|(_, addr)| *addr)
                        .max()?,
                };
                (first, *bytes_per_lane)
            }
        };
        Some(first.saturating_add(u64::from(bytes).saturating_sub(1)))
    }
}

/// Deterministic data byte for address `addr` under `seed`.
///
/// Store payloads are synthesized rather than traced; deriving each byte
/// from (address, seed) lets functional tests verify last-writer-wins
/// semantics without carrying payload buffers through the generators.
/// Different seeds model different values written to the same address over
/// time (the temporal-redundancy FinePack elides).
pub fn store_byte(addr: u64, seed: u64) -> u8 {
    let mut x = addr ^ seed.rotate_left(32) ^ 0x9e37_79b9_7f4a_7c15;
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    (x & 0xFF) as u8
}

/// A store transaction as it exits the L1 cache toward a peer GPU.
///
/// This is the unit the remote write queue ingests: post-coalescing and
/// sub-cache-line. It is plain data: its payload is
/// [`store_byte`]`(addr + i, value_seed)` for each byte `i`, so a
/// replayed trace carries no payload buffers, and a consumer that needs
/// the bytes writes them from [`RemoteStore::bytes`] straight into its
/// own storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoteStore {
    /// Issuing GPU.
    pub src: GpuId,
    /// Destination (owning) GPU.
    pub dst: GpuId,
    /// Node-global physical address of the first byte.
    pub addr: u64,
    /// Payload length in bytes.
    pub len: u32,
    /// Seed of the payload bytes (see [`store_byte`]).
    pub value_seed: u64,
}

impl RemoteStore {
    /// Payload length in bytes.
    pub fn len(&self) -> u32 {
        self.len
    }

    /// True if the payload is empty (never produced by the coalescer).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The exclusive end address.
    pub fn end(&self) -> u64 {
        self.addr + u64::from(self.len)
    }

    /// The payload bytes in address order: byte `i` is
    /// [`store_byte`]`(addr + i, value_seed)`.
    pub fn bytes(&self) -> impl ExactSizeIterator<Item = u8> {
        payload(self.addr, self.len, self.value_seed)
    }
}

/// The `len` payload bytes a store at `addr` writes under `seed`.
pub(crate) fn payload(addr: u64, len: u32, seed: u64) -> impl ExactSizeIterator<Item = u8> {
    (0..len).map(move |i| store_byte(addr + u64::from(i), seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_addresses() {
        let c = AccessPattern::Contiguous { base: 100 };
        assert_eq!(c.lane_addr(0, 4), 100);
        assert_eq!(c.lane_addr(3, 4), 112);
        let s = AccessPattern::Strided {
            base: 0,
            stride: 128,
        };
        assert_eq!(s.lane_addr(2, 4), 256);
        let sc = AccessPattern::Scattered {
            addrs: vec![5, 17, 99],
        };
        assert_eq!(sc.lane_addr(1, 8), 17);
    }

    #[test]
    fn trace_counters() {
        let mut t = KernelTrace::new("k");
        t.push(TraceOp::Compute { cycles: 10 });
        t.push(TraceOp::WarpStore {
            pattern: AccessPattern::Contiguous { base: 0 },
            bytes_per_lane: 4,
            active_mask: u32::MAX,
            value_seed: 0,
        });
        t.push(TraceOp::Compute { cycles: 5 });
        t.push(TraceOp::Fence);
        assert_eq!(t.len(), 4);
        assert_eq!(t.total_compute_cycles(), 15);
        assert_eq!(t.store_count(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn highest_address_covers_every_active_byte() {
        let store = |pattern, active_mask| TraceOp::WarpStore {
            pattern,
            bytes_per_lane: 4,
            active_mask,
            value_seed: 0,
        };
        let mut t = KernelTrace::new("k");
        t.push(TraceOp::Compute { cycles: 10 });
        assert_eq!(t.highest_address(), None);
        // An empty mask writes nothing.
        t.push(store(AccessPattern::Contiguous { base: 1 << 40 }, 0));
        assert_eq!(t.highest_address(), None);
        // Lane 2 of a contiguous store: 0x100 + 8, bytes 0x108..=0x10b.
        t.push(store(AccessPattern::Contiguous { base: 0x100 }, 0b101));
        assert_eq!(t.highest_address(), Some(0x10b));
        t.push(store(
            AccessPattern::Strided {
                base: 0x1000,
                stride: 0x100,
            },
            0b11,
        ));
        assert_eq!(t.highest_address(), Some(0x1103));
        // Inactive scattered lanes do not count.
        t.push(store(
            AccessPattern::Scattered {
                addrs: vec![0x9000, 1 << 50, 0x8000],
            },
            0b101,
        ));
        assert_eq!(t.highest_address(), Some(0x9003));
        t.push(TraceOp::RemoteLoad {
            addr: 0xA000,
            bytes: 8,
        });
        assert_eq!(t.highest_address(), Some(0xA007));
        t.push(TraceOp::RemoteAtomic {
            addr: u64::MAX - 1,
            bytes: 8,
            value_seed: 0,
        });
        assert_eq!(t.highest_address(), Some(u64::MAX));
    }

    #[test]
    fn store_byte_is_deterministic_and_seed_sensitive() {
        assert_eq!(store_byte(0x1000, 1), store_byte(0x1000, 1));
        let differs = (0..64u64).filter(|a| store_byte(*a, 1) != store_byte(*a, 2));
        assert!(differs.count() > 32);
    }

    #[test]
    fn remote_store_geometry() {
        let s = RemoteStore {
            src: GpuId::new(0),
            dst: GpuId::new(1),
            addr: 0x100,
            len: 4,
            value_seed: 9,
        };
        assert_eq!(s.len(), 4);
        assert_eq!(s.end(), 0x104);
        assert!(!s.is_empty());
        let want: Vec<u8> = (0x100..0x104).map(|a| store_byte(a, 9)).collect();
        assert_eq!(s.bytes().collect::<Vec<u8>>(), want);
    }
}
