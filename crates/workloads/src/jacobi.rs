//! Jacobi iterative solver (§V): `Ax = b` on a synthetically generated
//! banded matrix (the paper's choice, arising in finite-element
//! analysis). Rows are partitioned across GPUs; each iteration every GPU
//! updates its rows and pushes the boundary rows to its neighbors' ghost
//! regions — a regular peer-to-peer halo exchange with fully coalesced
//! 128-byte stores.

use gpu_model::{GpuId, KernelTrace};

use crate::assembler::{contiguous_ops, interleave};
use crate::common::{bytes_per_boundary, per_gpu_compute_cycles, slot_base, stream_rng};
use crate::spec::{CommPattern, RunSpec, Workload};

/// The Jacobi solver workload.
#[derive(Debug, Clone, Copy)]
pub struct Jacobi {
    /// Boundary bytes each GPU pushes per iteration (all neighbors).
    pub halo_bytes_per_gpu: u64,
    /// Single-GPU compute wall time per iteration, µs.
    pub compute_wall_us: f64,
    /// DMA over-transfer factor (the memcpy paradigm copies whole
    /// boundary blocks, including rows the neighbor will not read).
    pub dma_overtransfer: f64,
}

impl Default for Jacobi {
    fn default() -> Self {
        Jacobi {
            halo_bytes_per_gpu: 320 << 10,
            compute_wall_us: 48.0,
            dma_overtransfer: 1.25,
        }
    }
}

impl Workload for Jacobi {
    fn name(&self) -> &'static str {
        "jacobi"
    }

    fn pattern(&self) -> CommPattern {
        CommPattern::Neighbors
    }

    fn trace(&self, spec: &RunSpec, iter: u32, gpu: GpuId) -> KernelTrace {
        spec.validate();
        let mut rng = stream_rng(spec.seed, self.name(), iter, gpu);
        let dsts = self.pattern().targets(gpu, spec.num_gpus);
        let per_dst = bytes_per_boundary(self.halo_bytes_per_gpu, spec);
        let mut stores = Vec::new();
        for dst in dsts {
            // The boundary block this GPU owns inside the neighbor's ghost
            // region; rewritten (with new values) every iteration.
            let base = slot_base(dst, gpu);
            stores.extend(contiguous_ops(base, per_dst, &mut rng));
        }
        let compute = per_gpu_compute_cycles(self.compute_wall_us, spec);
        interleave(self.name(), compute, stores)
    }

    fn dma_bytes_per_gpu(&self, spec: &RunSpec) -> u64 {
        let unique = self.halo_bytes_per_gpu / u64::from(spec.scale_down);
        (unique as f64 * self.dma_overtransfer) as u64
    }

    fn read_fraction(&self) -> f64 {
        1.0 // every ghost row feeds the next iteration's stencil
    }

    fn gps_unsubscribed_fraction(&self) -> f64 {
        0.1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_model::{AddressMap, Gpu, GpuConfig};

    #[test]
    fn emits_full_cacheline_remote_stores() {
        let spec = RunSpec::tiny();
        let w = Jacobi::default();
        let trace = w.trace(&spec, 0, GpuId::new(0));
        let gpu = Gpu::new(
            GpuConfig::tiny(),
            GpuId::new(0),
            AddressMap::new(2, 16 << 30),
        );
        let run = gpu.execute_kernel(&trace);
        assert!(run.stats.remote_stores > 0);
        assert_eq!(run.stats.mean_remote_size(), Some(128.0));
    }

    #[test]
    fn single_gpu_run_is_all_local() {
        let mut spec = RunSpec::tiny();
        spec.num_gpus = 1;
        let trace = Jacobi::default().trace(&spec, 0, GpuId::new(0));
        let gpu = Gpu::new(
            GpuConfig::tiny(),
            GpuId::new(0),
            AddressMap::new(1, 16 << 30),
        );
        let run = gpu.execute_kernel(&trace);
        assert_eq!(run.stats.remote_stores, 0);
        assert!(run.stats.local_stores > 0);
    }

    #[test]
    fn traces_are_deterministic() {
        let spec = RunSpec::tiny();
        let a = Jacobi::default().trace(&spec, 0, GpuId::new(0));
        let b = Jacobi::default().trace(&spec, 0, GpuId::new(0));
        assert_eq!(a, b);
    }

    #[test]
    fn dma_bytes_include_overtransfer() {
        let w = Jacobi::default();
        let spec = RunSpec::paper(4);
        assert!(w.dma_bytes_per_gpu(&spec) > w.halo_bytes_per_gpu);
    }
}
