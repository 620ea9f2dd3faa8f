//! A banded-matrix substrate and a matrix-derived Jacobi workload.
//!
//! The paper evaluates Jacobi on "synthetically generated banded matrices
//! which arise widely in finite element analysis". This module generates
//! such a system explicitly — a strictly diagonally dominant banded
//! matrix over a 1-D row partition — and derives the halo traffic from
//! the band structure: a row's update needs neighbors within the
//! half-bandwidth, so exactly `half_bandwidth` boundary rows cross each
//! partition cut per iteration.

use gpu_model::{GpuId, KernelTrace};
use sim_engine::DetRng;

use crate::assembler::{contiguous_ops, interleave};
use crate::common::{per_gpu_compute_cycles, slot_base, stream_rng};
use crate::spec::{CommPattern, RunSpec, Workload};

/// A strictly diagonally dominant banded system `Ax = b`.
#[derive(Debug, Clone)]
pub struct BandedSystem {
    /// Unknowns.
    pub rows: u64,
    /// Non-zero diagonals on each side of the main diagonal.
    pub half_bandwidth: u64,
    /// Bytes per unknown (f64 = 8).
    pub element_bytes: u64,
}

impl BandedSystem {
    /// Generates a system with `rows` unknowns and the given band.
    ///
    /// # Panics
    ///
    /// Panics if the band is empty or does not fit the matrix.
    pub fn new(rows: u64, half_bandwidth: u64) -> Self {
        assert!(rows > 0 && half_bandwidth > 0 && half_bandwidth < rows);
        BandedSystem {
            rows,
            half_bandwidth,
            element_bytes: 8,
        }
    }

    /// Verifies strict diagonal dominance for a row's synthesized
    /// coefficients (the property that makes Jacobi converge). The
    /// coefficients are derived deterministically from (row, seed).
    pub fn is_diagonally_dominant(&self, row: u64, seed: u64) -> bool {
        let mut rng = DetRng::new(seed ^ row, "band-row");
        // Off-diagonals in (0, 1]; diagonal = band width + 1 dominates.
        let mut off_sum = 0.0;
        let lo = row.saturating_sub(self.half_bandwidth);
        let hi = (row + self.half_bandwidth).min(self.rows - 1);
        for col in lo..=hi {
            if col != row {
                off_sum += rng.next_f64();
            }
        }
        let diagonal = 2.0 * self.half_bandwidth as f64 + 1.0;
        diagonal > off_sum
    }

    /// Boundary bytes a GPU pushes across one partition cut per
    /// iteration: the `half_bandwidth` rows the neighbor's stencil reads.
    pub fn halo_bytes_per_boundary(&self) -> u64 {
        self.half_bandwidth * self.element_bytes
    }
}

/// Jacobi over an explicit [`BandedSystem`]: halo volume and partner set
/// are derived from the matrix instead of being knobs.
#[derive(Debug, Clone)]
pub struct JacobiMatrix {
    system: BandedSystem,
    /// Single-GPU compute wall time per iteration, µs (scales with the
    /// matrix's non-zero count in a real solver; a knob here).
    pub compute_wall_us: f64,
    /// DMA over-transfer factor.
    pub dma_overtransfer: f64,
}

impl JacobiMatrix {
    /// Builds the workload over `system`.
    pub fn new(system: BandedSystem) -> Self {
        JacobiMatrix {
            system,
            compute_wall_us: 48.0,
            dma_overtransfer: 1.25,
        }
    }

    /// The underlying system.
    pub fn system(&self) -> &BandedSystem {
        &self.system
    }
}

impl Workload for JacobiMatrix {
    fn name(&self) -> &'static str {
        "jacobi-banded"
    }

    fn pattern(&self) -> CommPattern {
        CommPattern::Neighbors
    }

    fn trace(&self, spec: &RunSpec, iter: u32, gpu: GpuId) -> KernelTrace {
        spec.validate();
        let mut rng = stream_rng(spec.seed, self.name(), iter, gpu);
        let halo = self.system.halo_bytes_per_boundary() / u64::from(spec.scale_down);
        let halo = halo.max(128);
        let mut stores = Vec::new();
        if spec.num_gpus == 1 {
            // Single-GPU baseline: boundary rows are ordinary local writes.
            stores.extend(contiguous_ops(slot_base(gpu, gpu), halo, &mut rng));
        } else {
            let i = gpu.index() as i32;
            for j in [i - 1, i + 1] {
                if j < 0 || j >= i32::from(spec.num_gpus) {
                    continue;
                }
                let dst = GpuId::new(
                    crate::convert::checked_gpu_index("neighbor gpu index", j as u64)
                        .expect("bounds-checked against num_gpus, which is u8"),
                );
                stores.extend(contiguous_ops(slot_base(dst, gpu), halo, &mut rng));
            }
        }
        let compute = per_gpu_compute_cycles(self.compute_wall_us, spec);
        interleave(self.name(), compute, stores)
    }

    fn dma_bytes_per_gpu(&self, spec: &RunSpec) -> u64 {
        let unique = 2 * self.system.halo_bytes_per_boundary() / u64::from(spec.scale_down);
        (unique as f64 * self.dma_overtransfer) as u64
    }

    fn read_fraction(&self) -> f64 {
        1.0
    }

    fn gps_unsubscribed_fraction(&self) -> f64 {
        0.05
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_model::{AddressMap, Gpu, GpuConfig};

    fn system() -> BandedSystem {
        // 1M unknowns, 25k-wide half band: 200KB halos like the suite's
        // parameterized Jacobi.
        BandedSystem::new(1 << 20, 25_600)
    }

    #[test]
    fn diagonal_dominance_holds_everywhere_sampled() {
        let s = system();
        for row in [0u64, 1, 12_345, (1 << 20) - 1] {
            assert!(s.is_diagonally_dominant(row, 7), "row {row}");
        }
    }

    #[test]
    fn halo_volume_follows_the_band() {
        let s = system();
        assert_eq!(s.halo_bytes_per_boundary(), 25_600 * 8);
        let wide = BandedSystem::new(1 << 20, 51_200);
        assert_eq!(
            wide.halo_bytes_per_boundary(),
            2 * s.halo_bytes_per_boundary()
        );
    }

    #[test]
    fn trace_matches_parameterized_jacobi_shape() {
        let app = JacobiMatrix::new(system());
        let spec = RunSpec::tiny();
        let gpu = Gpu::new(
            GpuConfig::tiny(),
            GpuId::new(0),
            AddressMap::new(2, 16 << 30),
        );
        let run = gpu.execute_kernel(&app.trace(&spec, 0, GpuId::new(0)));
        assert!(run.stats.remote_stores > 0);
        assert_eq!(run.stats.mean_remote_size(), Some(128.0));
    }

    #[test]
    fn edge_gpus_send_one_boundary() {
        let app = JacobiMatrix::new(system());
        let mut spec = RunSpec::tiny();
        spec.num_gpus = 4;
        let bytes = |g: u8| {
            let gpu = Gpu::new(
                GpuConfig::tiny(),
                GpuId::new(g),
                AddressMap::new(4, 16 << 30),
            );
            gpu.execute_kernel(&app.trace(&spec, 0, GpuId::new(g)))
                .stats
                .remote_bytes
        };
        // Interior GPUs push two boundaries, edge GPUs one.
        assert_eq!(bytes(1), 2 * bytes(0));
        assert_eq!(bytes(0), bytes(3));
    }

    #[test]
    fn single_gpu_is_local_only() {
        let app = JacobiMatrix::new(system());
        let mut spec = RunSpec::tiny();
        spec.num_gpus = 1;
        let gpu = Gpu::new(
            GpuConfig::tiny(),
            GpuId::new(0),
            AddressMap::new(1, 16 << 30),
        );
        let run = gpu.execute_kernel(&app.trace(&spec, 0, GpuId::new(0)));
        assert_eq!(run.stats.remote_stores, 0);
        assert!(run.stats.local_stores > 0);
    }

    #[test]
    #[should_panic]
    fn empty_band_rejected() {
        let _ = BandedSystem::new(100, 0);
    }
}
