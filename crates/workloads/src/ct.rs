//! CT (§V): Model-Based Iterative Reconstruction for low-dose CT, after
//! the algorithm in the GE Veo system. Back-projection updates land on
//! voxels determined by ray geometry, giving all-to-all communication
//! with *minimal spatial locality*: 8-byte updates scattered uniformly
//! over a multi-GB volume. This is the paper's Fig 11 outlier — FinePack
//! can pack only a few stores per packet because consecutive stores
//! rarely share an address window — but the app is not bandwidth-bound,
//! so it still scales (Fig 9).

use gpu_model::{GpuId, KernelTrace};

use crate::assembler::{interleave, scatter_ops, SlotDist};
use crate::common::{bytes_per_target, per_gpu_compute_cycles, stream_rng};
use crate::spec::{app_region_base, CommPattern, RunSpec, Workload};

/// The CT/MBIR workload.
#[derive(Debug, Clone, Copy)]
pub struct Ct {
    /// Unique voxel-update bytes pushed per GPU per iteration.
    pub update_bytes_per_gpu: u64,
    /// Mean updates per touched voxel.
    pub rewrite_factor: f64,
    /// Reconstruction-volume region size, bytes. Spanning several 1 GB
    /// FinePack windows is what destroys spatial locality.
    pub region_bytes: u64,
    /// Single-GPU compute wall time per iteration, µs.
    pub compute_wall_us: f64,
    /// DMA over-transfer factor.
    pub dma_overtransfer: f64,
}

impl Default for Ct {
    fn default() -> Self {
        Ct {
            update_bytes_per_gpu: 160 << 10,
            rewrite_factor: 1.1,
            region_bytes: 4 << 30,
            compute_wall_us: 45.0,
            dma_overtransfer: 1.05,
        }
    }
}

impl Workload for Ct {
    fn name(&self) -> &'static str {
        "ct"
    }

    fn pattern(&self) -> CommPattern {
        CommPattern::AllToAll
    }

    fn trace(&self, spec: &RunSpec, iter: u32, gpu: GpuId) -> KernelTrace {
        spec.validate();
        let mut rng = stream_rng(spec.seed, self.name(), iter, gpu);
        let dsts = self.pattern().targets(gpu, spec.num_gpus);
        let per_dst = bytes_per_target(self.update_bytes_per_gpu, spec, dsts.len());
        let drawn_bytes = (per_dst as f64 * self.rewrite_factor) as u64;
        let n_ops = (drawn_bytes / 256).max(1);
        let mut stores = Vec::new();
        for dst in dsts {
            // All sources share the full reconstruction volume; rays from
            // different GPUs legitimately hit the same voxels. The volume
            // is NOT scaled down for tests: its size (not its fill) is
            // what breaks locality.
            stores.extend(scatter_ops(
                app_region_base(dst),
                self.region_bytes,
                8,
                1,
                n_ops,
                SlotDist::Uniform,
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
        0.6
    }

    fn gps_unsubscribed_fraction(&self) -> f64 {
        0.4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_model::{AddressMap, Gpu, GpuConfig};

    #[test]
    fn stores_span_multiple_finepack_windows() {
        let trace = Ct::default().trace(&RunSpec::tiny(), 0, GpuId::new(0));
        let gpu = Gpu::new(
            GpuConfig::tiny(),
            GpuId::new(0),
            AddressMap::new(2, 16 << 30),
        );
        let run = gpu.execute_kernel(&trace);
        let mut windows: Vec<u64> = run
            .egress
            .iter()
            .map(|t| t.store.addr >> 30) // 1GB windows (5B subheader)
            .collect();
        windows.sort_unstable();
        windows.dedup();
        assert!(windows.len() >= 3, "only {} windows", windows.len());
    }

    #[test]
    fn volume_is_small() {
        // CT must stay far below the halo apps' traffic (not BW-bound).
        let ct = Ct::default();
        let jacobi = crate::jacobi::Jacobi::default();
        let spec = RunSpec::paper(4);
        assert!(ct.dma_bytes_per_gpu(&spec) * 2 < jacobi.dma_bytes_per_gpu(&spec));
    }
}
