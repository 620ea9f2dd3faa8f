//! Parameter broadcast: pushing refreshed weights from rank 0 to the
//! fleet (checkpoint restore, parameter-server step, inference rollout).

use gpu_model::{GpuId, KernelTrace};

use super::{collective_trace, dma_bytes_for, tree_children, CollectiveTuning, Phase};
use crate::spec::{CommPattern, RunSpec, Workload};

/// Binomial-tree broadcast of a block of parameters from GPU 0.
///
/// Each GPU forwards the full payload to every one of its tree
/// children in a single phase. Roughly half the GPUs are leaves and
/// send *nothing* — the degenerate zero-store traces that shook out the
/// workload layer's `unwrap`-on-empty bugs, kept here deliberately as
/// permanent coverage.
#[derive(Debug, Clone)]
pub struct ParamBroadcast {
    tuning: CollectiveTuning,
}

impl ParamBroadcast {
    /// Builds the collective.
    ///
    /// # Panics
    ///
    /// Panics if the tuning fails [`CollectiveTuning::validate`].
    pub fn new(tuning: CollectiveTuning) -> Self {
        tuning.validate().expect("invalid collective tuning");
        ParamBroadcast { tuning }
    }

    /// The configured knobs.
    pub fn tuning(&self) -> &CollectiveTuning {
        &self.tuning
    }
}

impl Default for ParamBroadcast {
    fn default() -> Self {
        ParamBroadcast::new(CollectiveTuning::default())
    }
}

impl Workload for ParamBroadcast {
    fn name(&self) -> &'static str {
        "broadcast"
    }

    fn pattern(&self) -> CommPattern {
        CommPattern::Tree
    }

    fn trace(&self, spec: &RunSpec, iter: u32, gpu: GpuId) -> KernelTrace {
        let phases: Vec<Phase> = if spec.num_gpus < 2 {
            vec![]
        } else {
            let payload = self.tuning.scaled_payload(spec);
            vec![tree_children(gpu, spec.num_gpus)
                .into_iter()
                .map(|c| (c, payload))
                .collect()]
        };
        collective_trace(self.name(), &self.tuning, spec, iter, gpu, &phases)
    }

    fn dma_bytes_per_gpu(&self, spec: &RunSpec) -> u64 {
        // n-1 tree edges carry the payload once; average over GPUs.
        let n = u64::from(spec.num_gpus);
        if n < 2 {
            return 0;
        }
        let total = (n - 1) * self.tuning.scaled_payload(spec);
        dma_bytes_for(total / n, &self.tuning.msg)
    }

    fn read_fraction(&self) -> f64 {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::MsgDist;
    use gpu_model::{AddressMap, Gpu, GpuConfig};

    fn fixed() -> ParamBroadcast {
        ParamBroadcast::new(CollectiveTuning {
            payload_bytes: 1 << 20,
            msg: MsgDist::Fixed(4096),
            compute_wall_us: 8.0,
        })
    }

    fn stats(app: &ParamBroadcast, n: u8, g: u8) -> gpu_model::KernelStats {
        let mut spec = RunSpec::tiny();
        spec.num_gpus = n;
        spec.scale_down = 1;
        let gpu = Gpu::new(
            GpuConfig::tiny(),
            GpuId::new(g),
            AddressMap::new(n, 16 << 30),
        );
        gpu.execute_kernel(&app.trace(&spec, 0, GpuId::new(g)))
            .stats
    }

    #[test]
    fn root_fans_out_and_leaves_are_silent() {
        let app = fixed();
        let p = 1u64 << 20;
        // Root of 8 sends to children 1, 2, 4.
        assert_eq!(stats(&app, 8, 0).remote_bytes, 3 * p);
        // GPU 7 is a leaf: a zero-store trace that must still simulate.
        let leaf = stats(&app, 8, 7);
        assert_eq!(leaf.remote_stores + leaf.local_stores, 0);
        assert!(leaf.compute_cycles > 0);
        assert_eq!(leaf.mean_remote_size(), None);
    }

    #[test]
    fn single_gpu_run_is_pure_compute() {
        let app = fixed();
        let s = stats(&app, 1, 0);
        assert_eq!(s.remote_stores + s.local_stores, 0);
        let mut spec = RunSpec::tiny();
        spec.num_gpus = 1;
        assert_eq!(app.dma_bytes_per_gpu(&spec), 0);
    }

    #[test]
    fn aligned_bulk_messages_do_not_pad_dma() {
        let app = fixed();
        let mut spec = RunSpec::tiny();
        spec.num_gpus = 4;
        spec.scale_down = 1;
        // fixed:4096 is granule-aligned: DMA ships exactly the edges.
        assert_eq!(app.dma_bytes_per_gpu(&spec), 3 * (1u64 << 20) / 4);
    }

    #[test]
    fn traces_are_deterministic() {
        let app = ParamBroadcast::default();
        let spec = RunSpec::tiny();
        assert_eq!(
            app.trace(&spec, 0, GpuId::new(0)),
            app.trace(&spec, 0, GpuId::new(0))
        );
    }
}
