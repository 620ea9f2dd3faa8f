//! A fully configurable synthetic workload, for what-if studies beyond
//! the paper's suite: every property that drives FinePack's behaviour —
//! store size, spatial locality, temporal redundancy, communication
//! pattern, compute intensity, remote loads and atomics — is a knob.
//!
//! This is the workload a downstream user reaches for first: dial in the
//! profile of *their* application and see which paradigm wins.

use gpu_model::{GpuId, KernelTrace, TraceOp};

use crate::assembler::{contiguous_ops, interleave, scatter_ops, SlotDist};
use crate::common::{bytes_per_target, per_gpu_compute_cycles, slot_base, stream_rng};
use crate::convert::checked_u32;
use crate::spec::{CommPattern, RunSpec, Workload};

/// How the synthetic workload's stores address memory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Locality {
    /// Fully coalesced contiguous stores (128B transactions).
    Contiguous,
    /// Scattered with a Zipf popularity skew (temporal redundancy).
    ZipfScatter {
        /// Zipf exponent (larger = hotter hot set).
        exponent: f64,
    },
    /// Uniformly scattered (no temporal redundancy).
    UniformScatter,
}

/// The configurable synthetic workload.
///
/// # Examples
///
/// ```
/// use workloads::{Locality, RunSpec, Synthetic, Workload};
/// use gpu_model::GpuId;
///
/// let app = Synthetic::builder()
///     .bytes_per_gpu(64 << 10)
///     .element_bytes(8)
///     .locality(Locality::UniformScatter)
///     .build();
/// let trace = app.trace(&RunSpec::tiny(), 0, GpuId::new(0));
/// assert!(trace.store_count() > 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Synthetic {
    comm_pattern: CommPattern,
    bytes_per_gpu: u64,
    element_bytes: u32,
    group_lanes: u32,
    locality: Locality,
    rewrite_factor: f64,
    region_bytes: u64,
    compute_wall_us: f64,
    dma_overtransfer: f64,
    read_fraction: f64,
    load_fraction: f64,
    atomic_fraction: f64,
}

impl Synthetic {
    /// Starts a builder with irregular-app defaults.
    pub fn builder() -> SyntheticBuilder {
        SyntheticBuilder {
            inner: Synthetic {
                comm_pattern: CommPattern::AllToAll,
                bytes_per_gpu: 256 << 10,
                element_bytes: 8,
                group_lanes: 1,
                locality: Locality::ZipfScatter { exponent: 1.0 },
                rewrite_factor: 1.5,
                region_bytes: 8 << 20,
                compute_wall_us: 40.0,
                dma_overtransfer: 2.0,
                read_fraction: 0.8,
                load_fraction: 0.0,
                atomic_fraction: 0.0,
            },
        }
    }
}

/// Builder for [`Synthetic`].
#[derive(Debug, Clone)]
pub struct SyntheticBuilder {
    inner: Synthetic,
}

impl SyntheticBuilder {
    /// Communication pattern (default all-to-all).
    pub fn comm_pattern(mut self, p: CommPattern) -> Self {
        self.inner.comm_pattern = p;
        self
    }

    /// Unique bytes each GPU pushes per iteration (default 256 KB).
    pub fn bytes_per_gpu(mut self, b: u64) -> Self {
        self.inner.bytes_per_gpu = b;
        self
    }

    /// Store element size in bytes, 1–8 (default 8).
    pub fn element_bytes(mut self, b: u32) -> Self {
        self.inner.element_bytes = b;
        self
    }

    /// Lanes per contiguous group for scattered stores (default 1: fully
    /// per-lane scatter; 4 with 8B elements gives 32B stores).
    pub fn group_lanes(mut self, l: u32) -> Self {
        self.inner.group_lanes = l;
        self
    }

    /// Spatial/temporal locality profile (default Zipf scatter).
    pub fn locality(mut self, l: Locality) -> Self {
        self.inner.locality = l;
        self
    }

    /// Mean writes per touched location before the barrier (default 1.5).
    pub fn rewrite_factor(mut self, f: f64) -> Self {
        self.inner.rewrite_factor = f;
        self
    }

    /// Scatter region size per destination (default 8 MB). Regions larger
    /// than the FinePack window destroy packing, as with CT.
    pub fn region_bytes(mut self, b: u64) -> Self {
        self.inner.region_bytes = b;
        self
    }

    /// Single-GPU compute wall time per iteration, µs (default 40).
    pub fn compute_wall_us(mut self, us: f64) -> Self {
        self.inner.compute_wall_us = us;
        self
    }

    /// DMA over-transfer factor (default 2.0).
    pub fn dma_overtransfer(mut self, f: f64) -> Self {
        self.inner.dma_overtransfer = f;
        self
    }

    /// Fraction of transferred unique bytes the consumer reads
    /// (default 0.8).
    pub fn read_fraction(mut self, f: f64) -> Self {
        self.inner.read_fraction = f;
        self
    }

    /// Fraction of ops issued as on-demand remote loads (default 0) —
    /// the anti-pattern proactive stores exist to avoid.
    pub fn load_fraction(mut self, f: f64) -> Self {
        self.inner.load_fraction = f;
        self
    }

    /// Fraction of ops issued as remote atomics (default 0).
    pub fn atomic_fraction(mut self, f: f64) -> Self {
        self.inner.atomic_fraction = f;
        self
    }

    /// Finalizes the workload.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range knobs (fractions outside `[0, 1]`,
    /// zero-size elements or regions, non-power-of-two group lanes).
    pub fn build(self) -> Synthetic {
        let w = self.inner;
        assert!(w.element_bytes >= 1 && w.element_bytes <= 8);
        assert!(w.group_lanes.is_power_of_two() && w.group_lanes <= 32);
        assert!(w.bytes_per_gpu > 0 && w.region_bytes > 0);
        assert!(w.rewrite_factor >= 1.0);
        for f in [w.read_fraction, w.load_fraction, w.atomic_fraction] {
            assert!((0.0..=1.0).contains(&f), "fraction out of range: {f}");
        }
        assert!(
            w.load_fraction + w.atomic_fraction <= 1.0,
            "loads + atomics exceed the op budget"
        );
        w
    }
}

impl Workload for Synthetic {
    fn name(&self) -> &'static str {
        "synthetic"
    }

    fn pattern(&self) -> CommPattern {
        self.comm_pattern
    }

    fn trace(&self, spec: &RunSpec, iter: u32, gpu: GpuId) -> KernelTrace {
        spec.validate();
        let mut rng = stream_rng(spec.seed, self.name(), iter, gpu);
        let dsts = self.comm_pattern.targets(gpu, spec.num_gpus);
        let per_dst = bytes_per_target(self.bytes_per_gpu, spec, dsts.len());
        let drawn = (per_dst as f64 * self.rewrite_factor) as u64;
        let bytes_per_op = u64::from(32 * self.element_bytes);
        let n_ops = (drawn / bytes_per_op).max(1);
        let region = self.region_bytes / u64::from(spec.scale_down);

        let store_ops = ((1.0 - self.load_fraction - self.atomic_fraction) * n_ops as f64) as u64;
        let scalar_ops = n_ops - store_ops; // issued as loads/atomics
        let loads = (self.load_fraction * n_ops as f64) as u64;

        let mut ops = Vec::new();
        for dst in &dsts {
            let base = slot_base(*dst, gpu);
            match self.locality {
                Locality::Contiguous => {
                    ops.extend(contiguous_ops(base, store_ops * bytes_per_op, &mut rng));
                }
                Locality::ZipfScatter { exponent } => ops.extend(scatter_ops(
                    base,
                    region,
                    self.element_bytes,
                    self.group_lanes,
                    store_ops,
                    SlotDist::Zipf(exponent),
                    &mut rng,
                )),
                Locality::UniformScatter => ops.extend(scatter_ops(
                    base,
                    region,
                    self.element_bytes,
                    self.group_lanes,
                    store_ops,
                    SlotDist::Uniform,
                    &mut rng,
                )),
            }
            let elem = u64::from(self.element_bytes.max(4));
            let elem_u32 = checked_u32("synthetic element bytes", elem)
                .expect("element_bytes is 1-8, enforced by SyntheticBuilder::build");
            // A heavy scale-down can shrink the region below one element;
            // degrade to a single slot instead of asking the RNG for a
            // draw below zero (which panics).
            let n_slots = (region / elem).max(1);
            for i in 0..scalar_ops {
                let slot = rng.next_u64_below(n_slots);
                let addr = base + slot * elem;
                if i < loads {
                    ops.push(TraceOp::RemoteLoad {
                        addr,
                        bytes: elem_u32,
                    });
                } else {
                    ops.push(TraceOp::RemoteAtomic {
                        addr,
                        bytes: elem_u32,
                        value_seed: rng.next_u64_below(u64::MAX),
                    });
                }
            }
        }
        let compute = per_gpu_compute_cycles(self.compute_wall_us, spec);
        interleave(self.name(), compute, ops)
    }

    fn dma_bytes_per_gpu(&self, spec: &RunSpec) -> u64 {
        let unique = self.bytes_per_gpu / u64::from(spec.scale_down);
        (unique as f64 * self.dma_overtransfer) as u64
    }

    fn read_fraction(&self) -> f64 {
        self.read_fraction
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_model::{AddressMap, Gpu, GpuConfig};

    fn replay(app: &Synthetic, spec: &RunSpec) -> gpu_model::KernelRun {
        let map = AddressMap::new(spec.num_gpus, 16 << 30);
        let gpu = Gpu::new(GpuConfig::tiny(), GpuId::new(0), map);
        gpu.execute_kernel(&app.trace(spec, 0, GpuId::new(0)))
    }

    #[test]
    fn contiguous_profile_yields_full_lines() {
        let app = Synthetic::builder()
            .locality(Locality::Contiguous)
            .element_bytes(4)
            .build();
        let run = replay(&app, &RunSpec::tiny());
        assert_eq!(run.stats.mean_remote_size(), Some(128.0));
    }

    #[test]
    fn scatter_profile_yields_element_sized_stores() {
        let app = Synthetic::builder()
            .locality(Locality::UniformScatter)
            .element_bytes(8)
            .region_bytes(64 << 20)
            .build();
        let run = replay(&app, &RunSpec::tiny());
        let mean = run
            .stats
            .mean_remote_size()
            .expect("a 2-GPU scatter run emits remote stores");
        assert!(mean < 12.0, "mean={mean}");
    }

    #[test]
    fn load_and_atomic_fractions_emit_ops() {
        let app = Synthetic::builder()
            .load_fraction(0.1)
            .atomic_fraction(0.1)
            .build();
        let trace = app.trace(&RunSpec::tiny(), 0, GpuId::new(0));
        assert!(trace.load_count() > 0);
        assert!(trace.atomic_count() > 0);
        let run = replay(&app, &RunSpec::tiny());
        assert!(run.stats.remote_loads > 0);
        assert!(run.stats.remote_atomics > 0);
    }

    #[test]
    fn group_lanes_scale_store_size() {
        let app = Synthetic::builder()
            .group_lanes(4)
            .element_bytes(8)
            .locality(Locality::UniformScatter)
            .region_bytes(64 << 20)
            .build();
        let run = replay(&app, &RunSpec::tiny());
        let mean = run
            .stats
            .mean_remote_size()
            .expect("a 2-GPU grouped-scatter run emits remote stores");
        assert!((30.0..40.0).contains(&mean), "mean={mean}");
    }

    #[test]
    fn single_gpu_run_has_no_remote_stores_and_no_mean() {
        // The degenerate weak-scaling point: one GPU, zero remote
        // traffic. The run must complete and the size statistics must
        // answer None rather than panicking.
        let mut spec = RunSpec::tiny();
        spec.num_gpus = 1;
        let app = Synthetic::builder()
            .load_fraction(0.1)
            .atomic_fraction(0.1)
            .build();
        let run = replay(&app, &spec);
        assert_eq!(run.stats.remote_stores, 0);
        assert_eq!(run.stats.mean_remote_size(), None);
        assert_eq!(run.stats.fraction_at_most(32), None);
    }

    #[test]
    fn huge_scale_down_degrades_to_one_slot_instead_of_panicking() {
        // scale_down large enough that region / elem rounds to zero:
        // the scalar-op slot draw used to ask the RNG for a value below
        // zero, which panics.
        let mut spec = RunSpec::tiny();
        spec.scale_down = u32::MAX;
        let app = Synthetic::builder()
            .region_bytes(1 << 20)
            .load_fraction(0.2)
            .atomic_fraction(0.2)
            .build();
        let trace = app.trace(&spec, 0, GpuId::new(0));
        assert!(!trace.is_empty());
    }

    #[test]
    #[should_panic(expected = "op budget")]
    fn overcommitted_fractions_panic() {
        let _ = Synthetic::builder()
            .load_fraction(0.6)
            .atomic_fraction(0.6)
            .build();
    }

    #[test]
    fn zipf_reduces_unique_addresses_vs_uniform() {
        let unique_count = |loc| {
            let app = Synthetic::builder()
                .locality(loc)
                .region_bytes(1 << 20)
                .build();
            let run = replay(&app, &RunSpec::tiny());
            let mut addrs: Vec<u64> = run.egress.iter().map(|t| t.store.addr).collect();
            addrs.sort_unstable();
            addrs.dedup();
            addrs.len()
        };
        let zipf = unique_count(Locality::ZipfScatter { exponent: 1.3 });
        let uniform = unique_count(Locality::UniformScatter);
        assert!(zipf < uniform, "zipf {zipf} !< uniform {uniform}");
    }
}
