//! PageRank (§V): iterative sparse matrix–vector products. The paper
//! evaluates on the cage matrix from the UF collection, for which the
//! communication pattern is peer-to-peer; we substitute a synthetic
//! power-law (Zipf-skewed) scatter with the same properties: 8-byte rank
//! updates landing on irregular vertices of the neighbor's rank vector,
//! with heavy temporal re-writing of hot (high-degree) vertices.

use gpu_model::{GpuId, KernelTrace};

use crate::assembler::{interleave, scatter_ops, SlotDist};
use crate::common::{bytes_per_boundary, per_gpu_compute_cycles, slot_base, stream_rng};
use crate::spec::{CommPattern, RunSpec, Workload};

/// The PageRank workload.
#[derive(Debug, Clone, Copy)]
pub struct Pagerank {
    /// Unique rank-update bytes pushed per GPU per iteration.
    pub update_bytes_per_gpu: u64,
    /// Mean times each hot vertex is re-written before the barrier.
    pub rewrite_factor: f64,
    /// Zipf exponent of the vertex-popularity distribution.
    pub zipf_exponent: f64,
    /// Bytes of the destination rank-vector region updates scatter over.
    pub region_bytes: u64,
    /// Single-GPU compute wall time per iteration, µs.
    pub compute_wall_us: f64,
    /// DMA over-transfer factor: the memcpy paradigm ships the whole
    /// partition of the rank vector although only a sparse subset changed.
    pub dma_overtransfer: f64,
}

impl Default for Pagerank {
    fn default() -> Self {
        Pagerank {
            update_bytes_per_gpu: 176 << 10,
            rewrite_factor: 1.8,
            zipf_exponent: 1.05,
            region_bytes: 4 << 20,
            compute_wall_us: 36.0,
            dma_overtransfer: 2.5,
        }
    }
}

impl Workload for Pagerank {
    fn name(&self) -> &'static str {
        "pagerank"
    }

    fn pattern(&self) -> CommPattern {
        CommPattern::Neighbors
    }

    fn trace(&self, spec: &RunSpec, iter: u32, gpu: GpuId) -> KernelTrace {
        spec.validate();
        let mut rng = stream_rng(spec.seed, self.name(), iter, gpu);
        let dsts = self.pattern().targets(gpu, spec.num_gpus);
        let per_dst = bytes_per_boundary(self.update_bytes_per_gpu, spec);
        // Each warp op scatters 32 independent 4B rank updates.
        let drawn_bytes = (per_dst as f64 * self.rewrite_factor) as u64;
        let n_ops = (drawn_bytes / 128).max(1);
        let mut stores = Vec::new();
        for dst in dsts {
            let base = slot_base(dst, gpu);
            stores.extend(scatter_ops(
                base,
                self.region_bytes / u64::from(spec.scale_down),
                4,
                1,
                n_ops,
                SlotDist::Zipf(self.zipf_exponent),
                &mut rng,
            ));
        }
        let compute = per_gpu_compute_cycles(self.compute_wall_us, spec);
        interleave(self.name(), compute, stores)
    }

    fn dma_bytes_per_gpu(&self, spec: &RunSpec) -> u64 {
        let unique = self.update_bytes_per_gpu / u64::from(spec.scale_down);
        (unique as f64 * self.dma_overtransfer) as u64
    }

    fn read_fraction(&self) -> f64 {
        0.8
    }

    fn gps_unsubscribed_fraction(&self) -> f64 {
        0.7
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_model::{AddressMap, Gpu, GpuConfig};

    #[test]
    fn stores_are_fine_grained() {
        let trace = Pagerank::default().trace(&RunSpec::tiny(), 0, GpuId::new(0));
        let gpu = Gpu::new(
            GpuConfig::tiny(),
            GpuId::new(0),
            AddressMap::new(2, 16 << 30),
        );
        let run = gpu.execute_kernel(&trace);
        // Sub-32B dominates (Fig 4's irregular-app profile).
        assert!(run.stats.fraction_at_most(32).unwrap_or(0.0) > 0.95);
        let mean = run
            .stats
            .mean_remote_size()
            .expect("a 2-GPU PageRank run emits remote stores");
        assert!(mean < 24.0, "mean={mean}");
    }

    #[test]
    fn hot_vertices_are_rewritten() {
        let trace = Pagerank::default().trace(&RunSpec::paper(4), 0, GpuId::new(1));
        let gpu = Gpu::new(
            GpuConfig::tiny(),
            GpuId::new(1),
            AddressMap::new(4, 16 << 30),
        );
        let run = gpu.execute_kernel(&trace);
        let mut addrs: Vec<u64> = run.egress.iter().map(|t| t.store.addr).collect();
        let n = addrs.len();
        addrs.sort_unstable();
        addrs.dedup();
        // Zipf skew must produce substantially fewer unique addresses.
        assert!(
            (addrs.len() as f64) < 0.85 * n as f64,
            "unique {} of {n}",
            addrs.len()
        );
    }
}
