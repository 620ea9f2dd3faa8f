//! The workload abstraction: every application in the paper's suite
//! (§V) implements [`Workload`], producing per-GPU kernel traces for
//! each iteration plus the buffer-level metadata the memcpy/DMA paradigm
//! needs.

use gpu_model::{GpuId, KernelTrace};

use crate::collectives::{grid_neighbors, ring_next, tree_children, tree_parent};
use crate::convert::checked_gpu_index;

/// Inter-GPU communication pattern, as characterized in §V.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommPattern {
    /// Halo exchange with adjacent GPUs (Jacobi, EQWP, Diffusion,
    /// PageRank on the cage matrix).
    Neighbors,
    /// Irregular many-to-many (SSSP on indochina).
    ManyToMany,
    /// All-to-all (ALS, CT, HIT).
    AllToAll,
    /// Unidirectional ring: each GPU sends only to its successor
    /// (ring all-reduce).
    Ring,
    /// 2D process-grid halo: up/down/left/right neighbors, no wrap.
    Grid2d,
    /// Binomial tree rooted at GPU 0: parent and children links
    /// (tree all-reduce, parameter broadcast).
    Tree,
}

impl std::fmt::Display for CommPattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommPattern::Neighbors => write!(f, "peer-to-peer"),
            CommPattern::ManyToMany => write!(f, "many-to-many"),
            CommPattern::AllToAll => write!(f, "all-to-all"),
            CommPattern::Ring => write!(f, "ring"),
            CommPattern::Grid2d => write!(f, "2d-grid"),
            CommPattern::Tree => write!(f, "tree"),
        }
    }
}

impl CommPattern {
    /// The GPUs `gpu` communicates with under this pattern, a tree's
    /// parent before its children. On a single-GPU run the GPU
    /// "communicates" with itself: the same stores execute as local
    /// writes, giving the Fig 9 baseline.
    pub fn targets(self, gpu: GpuId, num_gpus: u8) -> Vec<GpuId> {
        if num_gpus == 1 {
            return vec![gpu];
        }
        match self {
            CommPattern::Neighbors => {
                let i = gpu.index() as i32;
                [i - 1, i + 1]
                    .into_iter()
                    .filter(|j| *j >= 0 && *j < i32::from(num_gpus))
                    .map(|j| {
                        GpuId::new(
                            checked_gpu_index("neighbor gpu index", j as u64)
                                .expect("filtered to 0..num_gpus, which is u8"),
                        )
                    })
                    .collect()
            }
            CommPattern::ManyToMany | CommPattern::AllToAll => (0..num_gpus)
                .map(GpuId::new)
                .filter(|g| *g != gpu)
                .collect(),
            CommPattern::Ring => vec![ring_next(gpu, num_gpus)],
            CommPattern::Grid2d => grid_neighbors(gpu, num_gpus),
            CommPattern::Tree => {
                let mut t: Vec<GpuId> = tree_parent(gpu).into_iter().collect();
                t.extend(tree_children(gpu, num_gpus));
                t
            }
        }
    }
}

/// How the problem size relates to the GPU count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ScalingMode {
    /// Strong scaling (the paper's focus): a fixed problem divided over
    /// more GPUs — per-GPU compute shrinks, communication does not.
    #[default]
    Strong,
    /// Weak scaling (the intro's contrast): the problem grows with the
    /// GPU count — per-GPU compute and communication stay constant.
    Weak,
}

/// Parameters of one experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSpec {
    /// GPUs sharing the problem.
    pub num_gpus: u8,
    /// Iterations to simulate (bulk-synchronous: barrier per iteration).
    pub iterations: u32,
    /// Deterministic experiment seed.
    pub seed: u64,
    /// Problem-size divisor for quick tests (1 = full evaluation size).
    pub scale_down: u32,
    /// Strong (paper) or weak scaling.
    pub scaling: ScalingMode,
}

impl RunSpec {
    /// The paper's default: 4 GPUs.
    pub fn paper(num_gpus: u8) -> Self {
        RunSpec {
            num_gpus,
            iterations: 2,
            seed: 0xF14E_9ACC,
            scale_down: 1,
            scaling: ScalingMode::Strong,
        }
    }

    /// A miniature spec for unit tests.
    pub fn tiny() -> Self {
        RunSpec {
            num_gpus: 2,
            iterations: 1,
            seed: 7,
            scale_down: 16,
            scaling: ScalingMode::Strong,
        }
    }

    /// Validates the spec.
    ///
    /// # Panics
    ///
    /// Panics if any field is zero.
    pub fn validate(&self) {
        assert!(self.num_gpus >= 1);
        assert!(self.iterations >= 1);
        assert!(self.scale_down >= 1);
    }
}

/// A multi-GPU application from the evaluation suite.
///
/// Implementations synthesize traces that reproduce the application's
/// communication pattern, store-size mix (Fig 4), temporal-rewrite
/// behaviour, and compute/communication ratio. See `DESIGN.md` §4 for
/// the dataset substitutions.
pub trait Workload: std::fmt::Debug + Send + Sync {
    /// Application name as used in the paper's figures.
    fn name(&self) -> &'static str;

    /// The dominant communication pattern.
    fn pattern(&self) -> CommPattern;

    /// The kernel trace GPU `gpu` executes in iteration `iter`.
    ///
    /// With `spec.num_gpus == 1` the same total work runs on one GPU and
    /// every store is local — the single-GPU baseline of Fig 9.
    fn trace(&self, spec: &RunSpec, iter: u32, gpu: GpuId) -> KernelTrace;

    /// Bytes the memcpy/DMA paradigm transfers *out of* each GPU per
    /// iteration (replica regions, including data that was never updated
    /// — the over-transfer of §II-B).
    fn dma_bytes_per_gpu(&self, spec: &RunSpec) -> u64;

    /// Fraction of uniquely-written transferred bytes the destination
    /// actually reads (drives the "wasted bytes" split of Fig 10).
    fn read_fraction(&self) -> f64;

    /// GPS subscription benefit: fraction of this app's remote stores
    /// that target replicas GPS would have unsubscribed (§VI-B
    /// comparison).
    fn gps_unsubscribed_fraction(&self) -> f64 {
        0.0
    }
}

/// Base offset of application data within each GPU's 16 GB physical
/// window. Keeping buffers 1 GiB-aligned means a buffer never straddles a
/// FinePack window boundary at the paper's 5-byte sub-header (§IV-C "Base
/// Address Alignment" notes this case is rare in practice).
pub const APP_REGION_OFFSET: u64 = 1 << 30;

/// Returns the base address of the app region in `dst`'s window, given
/// 16 GB per GPU.
pub fn app_region_base(dst: GpuId) -> u64 {
    dst.index() as u64 * (16 << 30) + APP_REGION_OFFSET
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_constructors_are_valid() {
        RunSpec::paper(4).validate();
        RunSpec::tiny().validate();
    }

    #[test]
    #[should_panic]
    fn zero_iterations_invalid() {
        let mut s = RunSpec::paper(4);
        s.iterations = 0;
        s.validate();
    }

    #[test]
    fn region_bases_are_disjoint_and_aligned() {
        let a = app_region_base(GpuId::new(0));
        let b = app_region_base(GpuId::new(1));
        assert_eq!(a, 1 << 30);
        assert_eq!(b, (16u64 << 30) + (1 << 30));
        assert_eq!(a % (1 << 30), 0);
        assert_eq!(b % (1 << 30), 0);
    }

    #[test]
    fn pattern_display() {
        assert_eq!(CommPattern::Neighbors.to_string(), "peer-to-peer");
        assert_eq!(CommPattern::AllToAll.to_string(), "all-to-all");
    }
}
