//! Shared knob math for the application generators.

use gpu_model::GpuId;
use sim_engine::DetRng;

use crate::assembler::compute_cycles_for_wall_us;
use crate::spec::{app_region_base, RunSpec, ScalingMode};

/// Bytes reserved per source GPU inside a destination's app region, so
/// concurrent writers never alias each other's slots.
pub(crate) const SRC_SLOT_BYTES: u64 = 32 << 20;

/// Base address of `src`'s write slot inside `dst`'s app region.
pub(crate) fn slot_base(dst: GpuId, src: GpuId) -> u64 {
    app_region_base(dst) + src.index() as u64 * SRC_SLOT_BYTES
}

/// Per-GPU compute cycles for one iteration: the single-GPU wall budget
/// divided by GPU count (strong scaling) or held constant per GPU (weak
/// scaling), and by the test scale-down either way.
pub(crate) fn per_gpu_compute_cycles(single_gpu_wall_us: f64, spec: &RunSpec) -> u64 {
    let scaled = single_gpu_wall_us / f64::from(spec.scale_down);
    let total = compute_cycles_for_wall_us(scaled);
    match spec.scaling {
        ScalingMode::Strong => total / u64::from(spec.num_gpus),
        ScalingMode::Weak => total,
    }
}

/// Communication volume per (GPU, destination) per iteration, in bytes:
/// the knob value divided by test scale-down and the number of targets.
pub(crate) fn bytes_per_target(total_per_gpu: u64, spec: &RunSpec, n_targets: usize) -> u64 {
    (total_per_gpu / u64::from(spec.scale_down) / n_targets.max(1) as u64).max(128)
}

/// Per-boundary communication volume for halo (Neighbors) apps: the
/// knob names an *interior* GPU's total outbound bytes, i.e. two
/// boundaries' worth; edge GPUs send half. This keeps per-link load
/// balanced across the chain.
pub(crate) fn bytes_per_boundary(interior_total: u64, spec: &RunSpec) -> u64 {
    (interior_total / 2 / u64::from(spec.scale_down)).max(128)
}

/// A deterministic RNG stream for (app, iteration, gpu).
pub(crate) fn stream_rng(seed: u64, app: &str, iter: u32, gpu: GpuId) -> DetRng {
    DetRng::new(seed, &format!("{app}/i{iter}/g{}", gpu.index()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CommPattern;

    #[test]
    fn neighbor_targets_respect_edges() {
        let t0 = CommPattern::Neighbors.targets(GpuId::new(0), 4);
        assert_eq!(t0, vec![GpuId::new(1)]);
        let t1 = CommPattern::Neighbors.targets(GpuId::new(1), 4);
        assert_eq!(t1, vec![GpuId::new(0), GpuId::new(2)]);
        let t3 = CommPattern::Neighbors.targets(GpuId::new(3), 4);
        assert_eq!(t3, vec![GpuId::new(2)]);
    }

    #[test]
    fn all_to_all_targets_all_peers() {
        let t = CommPattern::AllToAll.targets(GpuId::new(1), 4);
        assert_eq!(t.len(), 3);
        assert!(!t.contains(&GpuId::new(1)));
    }

    #[test]
    fn single_gpu_targets_self() {
        let t = CommPattern::AllToAll.targets(GpuId::new(0), 1);
        assert_eq!(t, vec![GpuId::new(0)]);
    }

    #[test]
    fn slot_bases_disjoint() {
        let a = slot_base(GpuId::new(1), GpuId::new(0));
        let b = slot_base(GpuId::new(1), GpuId::new(2));
        assert!(b - a >= SRC_SLOT_BYTES);
    }

    #[test]
    fn compute_scales_with_gpus_and_scale_down() {
        let four = per_gpu_compute_cycles(40.0, &RunSpec::paper(4));
        let one = per_gpu_compute_cycles(40.0, &RunSpec::paper(1));
        assert_eq!(one, four * 4);
        let mut tiny = RunSpec::paper(4);
        tiny.scale_down = 4;
        assert_eq!(per_gpu_compute_cycles(40.0, &tiny), four / 4);
    }

    #[test]
    fn bytes_per_target_floors_at_128() {
        assert_eq!(bytes_per_target(64, &RunSpec::paper(4), 3), 128);
        assert_eq!(bytes_per_target(3 << 20, &RunSpec::paper(4), 3), 1 << 20);
    }
}
