//! The GPU trace-replay engine.
//!
//! Replays a [`KernelTrace`] across the GPU's SMs, performing L1 store
//! coalescing, routing local stores to local memory and remote stores to
//! the egress port, and producing a time-ordered egress stream that the
//! interconnect simulation consumes.

use sim_engine::{Histogram, SimTime};

use crate::addr::{AddressMap, GpuId};
use crate::coalescer::{for_each_txn, route_txn};
use crate::config::GpuConfig;
use crate::trace::{KernelTrace, RemoteStore, TraceOp};

/// A remote store stamped with its L1-egress time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimedStore {
    /// Simulated time the store left L1 toward the egress port.
    pub time: SimTime,
    /// The store itself.
    pub store: RemoteStore,
}

/// A remote load probe: the issuing GPU must observe any same-address
/// store still buffered on the egress side before the load completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedProbe {
    /// Simulated time the load issued.
    pub time: SimTime,
    /// GPU owning the loaded address.
    pub dst: GpuId,
    /// Loaded address.
    pub addr: u64,
    /// Bytes read.
    pub len: u32,
}

/// Aggregate statistics from one kernel replay.
#[derive(Debug, Clone)]
pub struct KernelStats {
    /// Histogram of remote store sizes exiting L1 (Fig 4's data).
    pub remote_size_hist: Histogram,
    /// Total remote payload bytes (counting rewrites).
    pub remote_bytes: u64,
    /// Number of remote store transactions.
    pub remote_stores: u64,
    /// Total local payload bytes.
    pub local_bytes: u64,
    /// Number of local store transactions.
    pub local_stores: u64,
    /// Total compute cycles in the trace (pre-parallelization).
    pub compute_cycles: u64,
    /// Remote atomic operations issued.
    pub remote_atomics: u64,
    /// Remote loads issued.
    pub remote_loads: u64,
}

impl KernelStats {
    fn new() -> Self {
        KernelStats {
            remote_size_hist: Histogram::new("remote_store_size"),
            remote_bytes: 0,
            remote_stores: 0,
            local_bytes: 0,
            local_stores: 0,
            compute_cycles: 0,
            remote_atomics: 0,
            remote_loads: 0,
        }
    }

    /// Adds `other`'s counts into these (merging runs across GPUs and
    /// iterations). Every field is destructured, so a new field cannot
    /// be left out of the merge.
    pub fn merge(&mut self, other: &KernelStats) {
        let KernelStats {
            remote_size_hist,
            remote_bytes,
            remote_stores,
            local_bytes,
            local_stores,
            compute_cycles,
            remote_atomics,
            remote_loads,
        } = other;
        self.remote_size_hist.merge(remote_size_hist);
        self.remote_bytes += remote_bytes;
        self.remote_stores += remote_stores;
        self.local_bytes += local_bytes;
        self.local_stores += local_stores;
        self.compute_cycles += compute_cycles;
        self.remote_atomics += remote_atomics;
        self.remote_loads += remote_loads;
    }

    /// Mean remote store size in bytes, or `None` if no remote stores.
    pub fn mean_remote_size(&self) -> Option<f64> {
        self.remote_size_hist.mean()
    }

    /// Fraction of remote stores at or below `size` bytes, or `None` if
    /// no remote stores were issued.
    pub fn fraction_at_most(&self, size: u64) -> Option<f64> {
        self.remote_size_hist.fraction_at_most(size)
    }
}

/// The result of replaying one kernel on one GPU.
#[derive(Debug, Clone)]
pub struct KernelRun {
    /// Kernel name.
    pub name: String,
    /// Time the slowest SM finished (kernel wall time on this GPU).
    pub kernel_time: SimTime,
    /// Remote stores in non-decreasing time order.
    pub egress: Vec<TimedStore>,
    /// Remote atomics in non-decreasing time order (never coalesced).
    pub atomics: Vec<TimedStore>,
    /// Remote load probes in non-decreasing time order.
    pub probes: Vec<TimedProbe>,
    /// Times of explicit system-scope fences inside the kernel, in
    /// non-decreasing order: a fence raises every SM clock to their
    /// maximum, and clocks never run back (the kernel end itself is an
    /// implicit release and is *not* listed).
    pub fences: Vec<SimTime>,
    /// Replay statistics.
    pub stats: KernelStats,
}

/// One simulated GPU: configuration + identity + the node address map.
///
/// # Examples
///
/// ```
/// use gpu_model::{AccessPattern, AddressMap, Gpu, GpuConfig, GpuId, KernelTrace, TraceOp};
///
/// let map = AddressMap::new(2, 1 << 30);
/// let gpu = Gpu::new(GpuConfig::tiny(), GpuId::new(0), map);
/// let mut trace = KernelTrace::new("demo");
/// trace.push(TraceOp::Compute { cycles: 100 });
/// trace.push(TraceOp::WarpStore {
///     // Write into GPU1's window: this egresses.
///     pattern: AccessPattern::Contiguous { base: 1 << 30 },
///     bytes_per_lane: 4,
///     active_mask: u32::MAX,
///     value_seed: 0,
/// });
/// let run = gpu.execute_kernel(&trace);
/// assert_eq!(run.egress.len(), 1);
/// assert_eq!(run.stats.remote_bytes, 128);
/// ```
#[derive(Debug, Clone)]
pub struct Gpu {
    config: GpuConfig,
    id: GpuId,
    map: AddressMap,
}

impl Gpu {
    /// Creates a GPU.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`GpuConfig::validate`]).
    pub fn new(config: GpuConfig, id: GpuId, map: AddressMap) -> Self {
        config.validate();
        Gpu { config, id, map }
    }

    /// This GPU's id.
    pub fn id(&self) -> GpuId {
        self.id
    }

    /// This GPU's configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// The node address map.
    pub fn address_map(&self) -> &AddressMap {
        &self.map
    }

    /// Replays `trace`, distributing ops round-robin across SMs.
    ///
    /// Each SM keeps a private cycle clock; compute ops advance it, store
    /// ops charge [`GpuConfig::store_issue_cycles`] per coalesced
    /// transaction and stamp remote transactions with the SM's clock.
    /// A [`TraceOp::Fence`] synchronizes all SMs (system-scope release).
    pub fn execute_kernel(&self, trace: &KernelTrace) -> KernelRun {
        let num_sms = self.config.num_sms as usize;
        let mut sm_clock = vec![0u64; num_sms];
        // Separate round-robin cursors per op kind: a strictly alternating
        // compute/store stream would otherwise park all compute on the
        // even SMs (pattern period dividing the SM count) and halve the
        // effective parallelism.
        let mut next_compute_sm = 0usize;
        let mut next_store_sm = 0usize;
        let mut egress: Vec<TimedStore> = Vec::new();
        let mut atomics: Vec<TimedStore> = Vec::new();
        let mut probes: Vec<TimedProbe> = Vec::new();
        let mut fences = Vec::new();
        let mut stats = KernelStats::new();

        for op in &trace.ops {
            match op {
                TraceOp::Compute { cycles } => {
                    sm_clock[next_compute_sm] += u64::from(*cycles);
                    stats.compute_cycles += u64::from(*cycles);
                    next_compute_sm = (next_compute_sm + 1) % num_sms;
                }
                TraceOp::WarpStore {
                    pattern,
                    bytes_per_lane,
                    active_mask,
                    value_seed,
                } => {
                    let clock = &mut sm_clock[next_store_sm];
                    for_each_txn(
                        &self.config,
                        pattern,
                        *bytes_per_lane,
                        *active_mask,
                        *value_seed,
                        |txn| {
                            *clock += u64::from(self.config.store_issue_cycles);
                            match route_txn(&self.map, self.id, txn) {
                                Ok(remote) => {
                                    stats.remote_size_hist.record(u64::from(remote.len()));
                                    stats.remote_bytes += u64::from(remote.len());
                                    stats.remote_stores += 1;
                                    egress.push(TimedStore {
                                        time: self.config.clock.cycles_to_time(*clock),
                                        store: remote,
                                    });
                                }
                                Err(local) => {
                                    stats.local_bytes += u64::from(local.len());
                                    stats.local_stores += 1;
                                }
                            }
                        },
                    );
                    next_store_sm = (next_store_sm + 1) % num_sms;
                }
                TraceOp::Fence => {
                    let max = *sm_clock.iter().max().expect("at least one SM");
                    sm_clock.iter_mut().for_each(|c| *c = max);
                    fences.push(self.config.clock.cycles_to_time(max));
                }
                TraceOp::RemoteLoad { addr, bytes } => {
                    let dst = self.map.owner(*addr);
                    if dst == self.id {
                        // Local loads are folded into compute time.
                        continue;
                    }
                    // The issuing warp stalls for the round trip.
                    sm_clock[next_store_sm] += u64::from(self.config.remote_load_cycles);
                    stats.remote_loads += 1;
                    probes.push(TimedProbe {
                        time: self.config.clock.cycles_to_time(sm_clock[next_store_sm]),
                        dst,
                        addr: *addr,
                        len: *bytes,
                    });
                    next_store_sm = (next_store_sm + 1) % num_sms;
                }
                TraceOp::RemoteAtomic {
                    addr,
                    bytes,
                    value_seed,
                } => {
                    let dst = self.map.owner(*addr);
                    if dst == self.id {
                        continue; // local atomics stay on-chip
                    }
                    sm_clock[next_store_sm] += u64::from(self.config.store_issue_cycles);
                    stats.remote_atomics += 1;
                    let data: Vec<u8> = (0..*bytes)
                        .map(|i| crate::trace::store_byte(addr + u64::from(i), *value_seed))
                        .collect();
                    atomics.push(TimedStore {
                        time: self.config.clock.cycles_to_time(sm_clock[next_store_sm]),
                        store: RemoteStore {
                            src: self.id,
                            dst,
                            addr: *addr,
                            data,
                        },
                    });
                    next_store_sm = (next_store_sm + 1) % num_sms;
                }
            }
        }

        let end_cycles = *sm_clock.iter().max().expect("at least one SM");
        egress.sort_by_key(|t| t.time);
        atomics.sort_by_key(|t| t.time);
        probes.sort_by_key(|t| t.time);
        KernelRun {
            name: trace.name.clone(),
            kernel_time: self.config.clock.cycles_to_time(end_cycles),
            egress,
            atomics,
            probes,
            fences,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::AccessPattern;

    fn small_gpu() -> Gpu {
        Gpu::new(
            GpuConfig::tiny(),
            GpuId::new(0),
            AddressMap::new(2, 1 << 30),
        )
    }

    fn remote_store_op(addr_in_gpu1: u64) -> TraceOp {
        TraceOp::WarpStore {
            pattern: AccessPattern::Contiguous {
                base: (1u64 << 30) + addr_in_gpu1,
            },
            bytes_per_lane: 4,
            active_mask: u32::MAX,
            value_seed: 1,
        }
    }

    #[test]
    fn compute_spreads_across_sms() {
        let gpu = small_gpu();
        let mut t = KernelTrace::new("c");
        // 4 SMs, 8 compute ops of 100 cycles: 2 per SM -> 200 cycles.
        for _ in 0..8 {
            t.push(TraceOp::Compute { cycles: 100 });
        }
        let run = gpu.execute_kernel(&t);
        assert_eq!(run.kernel_time, GpuConfig::tiny().clock.cycles_to_time(200));
        assert_eq!(run.stats.compute_cycles, 800);
    }

    #[test]
    fn local_stores_do_not_egress() {
        let gpu = small_gpu();
        let mut t = KernelTrace::new("l");
        t.push(TraceOp::WarpStore {
            pattern: AccessPattern::Contiguous { base: 0x1000 },
            bytes_per_lane: 4,
            active_mask: u32::MAX,
            value_seed: 0,
        });
        let run = gpu.execute_kernel(&t);
        assert!(run.egress.is_empty());
        assert_eq!(run.stats.local_bytes, 128);
        assert_eq!(run.stats.local_stores, 1);
    }

    #[test]
    fn remote_stores_egress_in_time_order() {
        let gpu = small_gpu();
        let mut t = KernelTrace::new("r");
        for i in 0..16 {
            t.push(TraceOp::Compute {
                cycles: 10 * (i % 5),
            });
            t.push(remote_store_op(u64::from(i) * 256));
        }
        let run = gpu.execute_kernel(&t);
        assert_eq!(run.egress.len(), 16);
        for pair in run.egress.windows(2) {
            assert!(pair[0].time <= pair[1].time);
        }
        assert_eq!(run.stats.remote_stores, 16);
        assert_eq!(run.stats.mean_remote_size(), Some(128.0));
    }

    #[test]
    fn fence_synchronizes_sms() {
        let gpu = small_gpu();
        let mut t = KernelTrace::new("f");
        t.push(TraceOp::Compute { cycles: 1000 }); // SM0
        t.push(TraceOp::Compute { cycles: 10 }); // SM1
        t.push(TraceOp::Fence);
        t.push(TraceOp::Compute { cycles: 5 }); // SM0 again (round-robin)
        let run = gpu.execute_kernel(&t);
        assert_eq!(run.fences.len(), 1);
        let clk = GpuConfig::tiny().clock;
        assert_eq!(run.fences[0], clk.cycles_to_time(1000));
        assert_eq!(run.kernel_time, clk.cycles_to_time(1005));
    }

    #[test]
    fn remote_loads_stall_and_probe() {
        let gpu = small_gpu();
        let mut t = KernelTrace::new("ld");
        t.push(TraceOp::RemoteLoad {
            addr: (1 << 30) + 0x40,
            bytes: 8,
        });
        t.push(TraceOp::RemoteLoad {
            addr: 0x40,
            bytes: 8,
        }); // local: free
        let run = gpu.execute_kernel(&t);
        assert_eq!(run.probes.len(), 1);
        assert_eq!(run.stats.remote_loads, 1);
        assert_eq!(run.probes[0].dst, GpuId::new(1));
        // The remote load stalled the SM for the configured round trip.
        let clk = GpuConfig::tiny().clock;
        assert_eq!(
            run.kernel_time,
            clk.cycles_to_time(u64::from(GpuConfig::tiny().remote_load_cycles))
        );
    }

    #[test]
    fn remote_atomics_are_listed_separately() {
        let gpu = small_gpu();
        let mut t = KernelTrace::new("at");
        t.push(TraceOp::RemoteAtomic {
            addr: (1 << 30) + 0x80,
            bytes: 8,
            value_seed: 5,
        });
        let run = gpu.execute_kernel(&t);
        assert!(run.egress.is_empty());
        assert_eq!(run.atomics.len(), 1);
        assert_eq!(run.stats.remote_atomics, 1);
        assert_eq!(run.atomics[0].store.len(), 8);
    }

    #[test]
    fn scattered_stores_produce_small_sizes() {
        let gpu = small_gpu();
        let mut t = KernelTrace::new("s");
        let addrs: Vec<u64> = (0..32).map(|i| (1u64 << 30) + i * 8192).collect();
        t.push(TraceOp::WarpStore {
            pattern: AccessPattern::Scattered { addrs },
            bytes_per_lane: 8,
            active_mask: u32::MAX,
            value_seed: 0,
        });
        let run = gpu.execute_kernel(&t);
        assert_eq!(run.stats.remote_stores, 32);
        assert_eq!(run.stats.mean_remote_size(), Some(8.0));
        assert_eq!(run.stats.fraction_at_most(32), Some(1.0));
    }
}
