//! HIT (§V): the Tartan-suite Homogeneous Isotropic Turbulence solver —
//! a series of FFTs with the dataset partitioned along the X axis. The
//! transpose before/after each FFT permutes elements to every other GPU:
//! a transposed write is strided by the row length, so stores leave L1 at
//! complex-element (16-byte) granularity, at the highest communication
//! volume in the suite.

use gpu_model::{GpuId, KernelTrace, TraceOp};

use crate::assembler::{interleave, scatter_ops, SlotDist};
use crate::common::{bytes_per_target, per_gpu_compute_cycles, slot_base, stream_rng};
use crate::spec::{CommPattern, RunSpec, Workload};

/// The HIT workload.
#[derive(Debug, Clone, Copy)]
pub struct Hit {
    /// Transpose bytes pushed per GPU per iteration (both transposes).
    pub transpose_bytes_per_gpu: u64,
    /// Single-GPU compute wall time per iteration, µs.
    pub compute_wall_us: f64,
    /// DMA over-transfer factor — transposes move exactly the pencils,
    /// so the memcpy paradigm wastes little.
    pub dma_overtransfer: f64,
}

impl Default for Hit {
    fn default() -> Self {
        Hit {
            transpose_bytes_per_gpu: 480 << 10,
            compute_wall_us: 52.0,
            dma_overtransfer: 1.15,
        }
    }
}

impl Workload for Hit {
    fn name(&self) -> &'static str {
        "hit"
    }

    fn pattern(&self) -> CommPattern {
        CommPattern::AllToAll
    }

    fn trace(&self, spec: &RunSpec, iter: u32, gpu: GpuId) -> KernelTrace {
        spec.validate();
        let mut rng = stream_rng(spec.seed, self.name(), iter, gpu);
        let dsts = self.pattern().targets(gpu, spec.num_gpus);
        // Forward transpose, FFT compute, inverse transpose.
        let per_dst_phase = bytes_per_target(self.transpose_bytes_per_gpu / 2, spec, dsts.len());
        let compute_per_phase = per_gpu_compute_cycles(self.compute_wall_us / 2.0, spec);

        // Each transposed element is a complex double: 2 lanes x 8B = 16B,
        // landing at permuted (effectively scattered) destinations.
        let n_ops = (per_dst_phase / 256).max(1);
        let mut trace = KernelTrace::new(self.name());
        for phase in 0..2u64 {
            let mut stores = Vec::new();
            for dst in &dsts {
                let base = slot_base(*dst, gpu) + phase * (12 << 20);
                stores.extend(scatter_ops(
                    base,
                    8 << 20,
                    8,
                    2,
                    n_ops,
                    SlotDist::Uniform,
                    &mut rng,
                ));
            }
            let phase_trace = interleave(self.name(), compute_per_phase, stores);
            trace.ops.extend(phase_trace.ops);
            if phase == 0 {
                // The FFT reads the transposed pencils.
                trace.push(TraceOp::Fence);
            }
        }
        trace
    }

    fn dma_bytes_per_gpu(&self, spec: &RunSpec) -> u64 {
        let unique = self.transpose_bytes_per_gpu / u64::from(spec.scale_down);
        (unique as f64 * self.dma_overtransfer) as u64
    }

    fn read_fraction(&self) -> f64 {
        1.0
    }

    fn gps_unsubscribed_fraction(&self) -> f64 {
        0.5
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_model::{AddressMap, Gpu, GpuConfig};

    #[test]
    fn transposed_elements_are_complex_sized() {
        let trace = Hit::default().trace(&RunSpec::tiny(), 0, GpuId::new(0));
        let gpu = Gpu::new(
            GpuConfig::tiny(),
            GpuId::new(0),
            AddressMap::new(2, 16 << 30),
        );
        let run = gpu.execute_kernel(&trace);
        let mean = run
            .stats
            .mean_remote_size()
            .expect("a 2-GPU HIT run emits remote stores");
        assert!((14.0..40.0).contains(&mean), "mean={mean}");
    }

    #[test]
    fn highest_volume_in_suite() {
        let spec = RunSpec::paper(4);
        let hit_trace = Hit::default().trace(&spec, 0, GpuId::new(0));
        let pr_trace = crate::pagerank::Pagerank::default().trace(&spec, 0, GpuId::new(0));
        let volume = |t: &KernelTrace| {
            let gpu = Gpu::new(
                GpuConfig::tiny(),
                GpuId::new(0),
                AddressMap::new(4, 16 << 30),
            );
            gpu.execute_kernel(t).stats.remote_bytes
        };
        assert!(volume(&hit_trace) > volume(&pr_trace));
    }
}
