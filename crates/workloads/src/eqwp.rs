//! EQWP (§V): the Tartan-suite 3D Earthquake Wave Propagation model,
//! a 4th-order finite-difference stencil. Each iteration exchanges a
//! four-plane-deep halo with neighboring GPUs; boundary elements inside a
//! plane are short 8-byte runs separated by the plane pitch, so remote
//! stores leave L1 far below cache-line granularity (Fig 4).

use gpu_model::{GpuId, KernelTrace};

use crate::assembler::{interleave, strided_row_ops};
use crate::common::{bytes_per_boundary, per_gpu_compute_cycles, slot_base, stream_rng};
use crate::spec::{CommPattern, RunSpec, Workload};

/// The EQWP workload.
#[derive(Debug, Clone, Copy)]
pub struct Eqwp {
    /// Halo bytes pushed per GPU per iteration.
    pub halo_bytes_per_gpu: u64,
    /// Single-GPU compute wall time per iteration, µs.
    pub compute_wall_us: f64,
    /// Row pitch between consecutive 32B boundary runs, bytes.
    pub row_pitch: u64,
    /// DMA over-transfer factor (the memcpy paradigm moves whole halo
    /// planes, most of which is padding between the sparse rows).
    pub dma_overtransfer: f64,
}

impl Default for Eqwp {
    fn default() -> Self {
        Eqwp {
            halo_bytes_per_gpu: 320 << 10,
            compute_wall_us: 52.0,
            row_pitch: 512,
            dma_overtransfer: 1.6,
        }
    }
}

impl Workload for Eqwp {
    fn name(&self) -> &'static str {
        "eqwp"
    }

    fn pattern(&self) -> CommPattern {
        CommPattern::Neighbors
    }

    fn trace(&self, spec: &RunSpec, iter: u32, gpu: GpuId) -> KernelTrace {
        spec.validate();
        let mut rng = stream_rng(spec.seed, self.name(), iter, gpu);
        let dsts = self.pattern().targets(gpu, spec.num_gpus);
        let per_dst = bytes_per_boundary(self.halo_bytes_per_gpu, spec);
        // Each boundary element is 2 lanes x 4B = 8B; `rows` per target.
        let rows = per_dst / 8;
        let mut stores = Vec::new();
        for dst in dsts {
            let base = slot_base(dst, gpu);
            stores.extend(strided_row_ops(base, rows, self.row_pitch, 2, 4, &mut rng));
        }
        let compute = per_gpu_compute_cycles(self.compute_wall_us, spec);
        interleave(self.name(), compute, stores)
    }

    fn dma_bytes_per_gpu(&self, spec: &RunSpec) -> u64 {
        let unique = self.halo_bytes_per_gpu / u64::from(spec.scale_down);
        (unique as f64 * self.dma_overtransfer) as u64
    }

    fn read_fraction(&self) -> f64 {
        0.9
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
    fn stores_are_sector_sized() {
        let trace = Eqwp::default().trace(&RunSpec::tiny(), 0, GpuId::new(0));
        let gpu = Gpu::new(
            GpuConfig::tiny(),
            GpuId::new(0),
            AddressMap::new(2, 16 << 30),
        );
        let run = gpu.execute_kernel(&trace);
        assert!(run.stats.remote_stores > 0);
        // 8B runs at 512B pitch: nothing coalesces across rows.
        assert_eq!(run.stats.mean_remote_size(), Some(8.0));
        assert_eq!(run.stats.fraction_at_most(32), Some(1.0));
    }

    #[test]
    fn volume_scales_down_for_tests() {
        let w = Eqwp::default();
        let full = w.trace(&RunSpec::paper(4), 0, GpuId::new(1));
        let tiny = w.trace(&RunSpec::tiny(), 0, GpuId::new(1));
        assert!(tiny.store_count() * 4 < full.store_count());
    }
}
