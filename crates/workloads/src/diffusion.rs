//! Diffusion (§V): the Tartan-suite multi-GPU solver for the heat
//! equation and the inviscid Burgers' equation. Two field arrays are
//! advanced per iteration (two kernel phases separated by a fence), each
//! phase ending with a halo exchange of contiguous rows to the
//! neighboring GPUs — regular 128-byte stores, like Jacobi.

use gpu_model::{GpuId, KernelTrace, TraceOp};

use crate::assembler::{contiguous_ops, interleave};
use crate::common::{bytes_per_boundary, per_gpu_compute_cycles, slot_base, stream_rng};
use crate::spec::{CommPattern, RunSpec, Workload};

/// The Diffusion workload.
#[derive(Debug, Clone, Copy)]
pub struct Diffusion {
    /// Halo bytes pushed per GPU per iteration (both fields together).
    pub halo_bytes_per_gpu: u64,
    /// Single-GPU compute wall time per iteration, µs.
    pub compute_wall_us: f64,
    /// DMA over-transfer factor (the memcpy paradigm copies both whole
    /// field halos even when only one changed meaningfully).
    pub dma_overtransfer: f64,
}

impl Default for Diffusion {
    fn default() -> Self {
        Diffusion {
            halo_bytes_per_gpu: 288 << 10,
            compute_wall_us: 40.0,
            dma_overtransfer: 1.4,
        }
    }
}

impl Workload for Diffusion {
    fn name(&self) -> &'static str {
        "diffusion"
    }

    fn pattern(&self) -> CommPattern {
        CommPattern::Neighbors
    }

    fn trace(&self, spec: &RunSpec, iter: u32, gpu: GpuId) -> KernelTrace {
        spec.validate();
        let mut rng = stream_rng(spec.seed, self.name(), iter, gpu);
        let dsts = self.pattern().targets(gpu, spec.num_gpus);
        // Two phases: heat field, then Burgers field (disjoint slots).
        let per_dst_phase = bytes_per_boundary(self.halo_bytes_per_gpu / 2, spec);
        let compute_per_phase = per_gpu_compute_cycles(self.compute_wall_us / 2.0, spec);

        let mut trace = KernelTrace::new(self.name());
        for phase in 0..2u64 {
            let mut stores = Vec::new();
            for dst in &dsts {
                let base = slot_base(*dst, gpu) + phase * (8 << 20);
                stores.extend(contiguous_ops(base, per_dst_phase, &mut rng));
            }
            let phase_trace = interleave(self.name(), compute_per_phase, stores);
            trace.ops.extend(phase_trace.ops);
            if phase == 0 {
                // The Burgers update consumes the freshly exchanged heat
                // halo: a system-scope release separates the phases.
                trace.push(TraceOp::Fence);
            }
        }
        trace
    }

    fn dma_bytes_per_gpu(&self, spec: &RunSpec) -> u64 {
        let unique = self.halo_bytes_per_gpu / u64::from(spec.scale_down);
        (unique as f64 * self.dma_overtransfer) as u64
    }

    fn read_fraction(&self) -> f64 {
        1.0
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
    fn has_a_mid_kernel_fence() {
        let trace = Diffusion::default().trace(&RunSpec::tiny(), 0, GpuId::new(0));
        let fences = trace
            .ops
            .iter()
            .filter(|o| matches!(o, TraceOp::Fence))
            .count();
        assert_eq!(fences, 1);
    }

    #[test]
    fn stores_are_full_cachelines() {
        let trace = Diffusion::default().trace(&RunSpec::tiny(), 0, GpuId::new(1));
        let gpu = Gpu::new(
            GpuConfig::tiny(),
            GpuId::new(1),
            AddressMap::new(2, 16 << 30),
        );
        let run = gpu.execute_kernel(&trace);
        assert_eq!(run.stats.mean_remote_size(), Some(128.0));
        assert_eq!(run.fences.len(), 1);
    }

    #[test]
    fn phases_write_disjoint_slots() {
        let spec = RunSpec::tiny();
        let trace = Diffusion::default().trace(&spec, 0, GpuId::new(0));
        let gpu = Gpu::new(
            GpuConfig::tiny(),
            GpuId::new(0),
            AddressMap::new(2, 16 << 30),
        );
        let run = gpu.execute_kernel(&trace);
        // No store address repeats: phases use distinct 8MB sub-slots.
        let mut addrs: Vec<u64> = run.egress.iter().map(|t| t.store.addr).collect();
        let n = addrs.len();
        addrs.sort_unstable();
        addrs.dedup();
        assert_eq!(addrs.len(), n);
    }
}
