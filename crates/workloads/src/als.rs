//! ALS (§V): alternating least squares matrix factorization for
//! recommender systems, evaluated by the paper on the rgg dataset with an
//! all-to-all pattern. Each sub-iteration fixes one factor matrix and
//! rewrites rows of the other; a factor row is a short dense vector, so
//! remote traffic is 16-byte stores scattered across every peer's factor
//! matrix replica.

use gpu_model::{GpuId, KernelTrace, TraceOp};

use crate::assembler::{interleave, scatter_ops, SlotDist};
use crate::common::{bytes_per_target, per_gpu_compute_cycles, slot_base, stream_rng};
use crate::spec::{CommPattern, RunSpec, Workload};

/// The ALS workload.
#[derive(Debug, Clone, Copy)]
pub struct Als {
    /// Unique factor-row bytes pushed per GPU per iteration (both
    /// sub-iterations together).
    pub update_bytes_per_gpu: u64,
    /// Mean rewrites per factor row per sub-iteration.
    pub rewrite_factor: f64,
    /// Zipf exponent of row-update popularity.
    pub zipf_exponent: f64,
    /// Factor-matrix replica region size, bytes.
    pub region_bytes: u64,
    /// Single-GPU compute wall time per iteration, µs.
    pub compute_wall_us: f64,
    /// DMA over-transfer factor for shipping whole factor matrices.
    pub dma_overtransfer: f64,
}

impl Default for Als {
    fn default() -> Self {
        Als {
            update_bytes_per_gpu: 288 << 10,
            rewrite_factor: 1.5,
            zipf_exponent: 1.1,
            region_bytes: 8 << 20,
            compute_wall_us: 42.0,
            dma_overtransfer: 1.5,
        }
    }
}

impl Workload for Als {
    fn name(&self) -> &'static str {
        "als"
    }

    fn pattern(&self) -> CommPattern {
        CommPattern::AllToAll
    }

    fn trace(&self, spec: &RunSpec, iter: u32, gpu: GpuId) -> KernelTrace {
        spec.validate();
        let mut rng = stream_rng(spec.seed, self.name(), iter, gpu);
        let dsts = self.pattern().targets(gpu, spec.num_gpus);
        // Two sub-iterations: user matrix, then item matrix.
        let per_dst_sub = bytes_per_target(self.update_bytes_per_gpu / 2, spec, dsts.len());
        let drawn_bytes = (per_dst_sub as f64 * self.rewrite_factor) as u64;
        let n_ops = (drawn_bytes / 256).max(1);
        let compute_per_sub = per_gpu_compute_cycles(self.compute_wall_us / 2.0, spec);

        let mut trace = KernelTrace::new(self.name());
        for sub in 0..2u64 {
            let mut stores = Vec::new();
            for dst in &dsts {
                let base = slot_base(*dst, gpu) + sub * (12 << 20);
                // 2 lanes x 8B = one 16B factor row per group.
                stores.extend(scatter_ops(
                    base,
                    self.region_bytes / u64::from(spec.scale_down),
                    8,
                    2,
                    n_ops,
                    SlotDist::Zipf(self.zipf_exponent),
                    &mut rng,
                ));
            }
            let sub_trace = interleave(self.name(), compute_per_sub, stores);
            trace.ops.extend(sub_trace.ops);
            if sub == 0 {
                // The item sub-iteration reads the freshly pushed user
                // factors: system-scope release between sub-iterations.
                trace.push(TraceOp::Fence);
            }
        }
        trace
    }

    fn dma_bytes_per_gpu(&self, spec: &RunSpec) -> u64 {
        let unique = self.update_bytes_per_gpu / u64::from(spec.scale_down);
        (unique as f64 * self.dma_overtransfer) as u64
    }

    fn read_fraction(&self) -> f64 {
        0.85
    }

    fn gps_unsubscribed_fraction(&self) -> f64 {
        0.6
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_model::{AddressMap, Gpu, GpuConfig};

    #[test]
    fn stores_are_factor_row_sized() {
        let trace = Als::default().trace(&RunSpec::tiny(), 0, GpuId::new(0));
        let gpu = Gpu::new(
            GpuConfig::tiny(),
            GpuId::new(0),
            AddressMap::new(2, 16 << 30),
        );
        let run = gpu.execute_kernel(&trace);
        // 16B rows; occasional adjacent rows merge to 32B+.
        let mean = run
            .stats
            .mean_remote_size()
            .expect("a 2-GPU ALS run emits remote stores");
        assert!((14.0..40.0).contains(&mean), "mean={mean}");
        assert!(run.stats.fraction_at_most(8).unwrap_or(0.0) < 0.05);
    }

    #[test]
    fn has_two_sub_iterations() {
        let trace = Als::default().trace(&RunSpec::tiny(), 0, GpuId::new(0));
        let fences = trace
            .ops
            .iter()
            .filter(|o| matches!(o, TraceOp::Fence))
            .count();
        assert_eq!(fences, 1);
    }

    #[test]
    fn all_to_all_traffic() {
        let trace = Als::default().trace(&RunSpec::paper(4), 0, GpuId::new(0));
        let gpu = Gpu::new(
            GpuConfig::tiny(),
            GpuId::new(0),
            AddressMap::new(4, 16 << 30),
        );
        let run = gpu.execute_kernel(&trace);
        let mut dsts: Vec<usize> = run.egress.iter().map(|t| t.store.dst.index()).collect();
        dsts.sort_unstable();
        dsts.dedup();
        assert_eq!(dsts.len(), 3);
    }
}
