//! SSSP (§V): Bellman–Ford single-source shortest paths. The paper uses
//! the indochina web graph, whose relaxation traffic is many-to-many; we
//! substitute a synthetic frontier model: every GPU relaxes edges whose
//! endpoints live on every other GPU, producing tiny (8-byte: distance +
//! parent) scattered writes with very high temporal redundancy — a vertex
//! distance is typically lowered several times per wavefront.

use gpu_model::{GpuId, KernelTrace};

use crate::assembler::{interleave, scatter_ops, SlotDist};
use crate::common::{bytes_per_target, per_gpu_compute_cycles, slot_base, stream_rng};
use crate::spec::{CommPattern, RunSpec, Workload};
use gpu_model::TraceOp;
use sim_engine::Zipf;

/// The SSSP workload.
#[derive(Debug, Clone, Copy)]
pub struct Sssp {
    /// Unique distance-update bytes pushed per GPU per iteration.
    pub update_bytes_per_gpu: u64,
    /// Mean relaxations per touched vertex per iteration.
    pub rewrite_factor: f64,
    /// Zipf exponent of vertex relaxation frequency.
    pub zipf_exponent: f64,
    /// Destination distance-array region size, bytes.
    pub region_bytes: u64,
    /// Single-GPU compute wall time per iteration, µs.
    pub compute_wall_us: f64,
    /// DMA over-transfer: whole distance arrays move although the
    /// frontier touched a small fraction.
    pub dma_overtransfer: f64,
    /// Fraction of relaxations issued as remote atomics (atomicMin-style
    /// implementations). Zero in the paper's store-only port; sweepable
    /// for the atomics ablation (§IV-C).
    pub atomic_fraction: f64,
}

impl Default for Sssp {
    fn default() -> Self {
        Sssp {
            update_bytes_per_gpu: 120 << 10,
            rewrite_factor: 2.2,
            zipf_exponent: 1.2,
            region_bytes: 8 << 20,
            compute_wall_us: 30.0,
            dma_overtransfer: 2.5,
            atomic_fraction: 0.0,
        }
    }
}

impl Workload for Sssp {
    fn name(&self) -> &'static str {
        "sssp"
    }

    fn pattern(&self) -> CommPattern {
        CommPattern::ManyToMany
    }

    fn trace(&self, spec: &RunSpec, iter: u32, gpu: GpuId) -> KernelTrace {
        spec.validate();
        let mut rng = stream_rng(spec.seed, self.name(), iter, gpu);
        let dsts = self.pattern().targets(gpu, spec.num_gpus);
        let per_dst = bytes_per_target(self.update_bytes_per_gpu, spec, dsts.len());
        let drawn_bytes = (per_dst as f64 * self.rewrite_factor) as u64;
        let n_ops = (drawn_bytes / 128).max(1);
        let region = self.region_bytes / u64::from(spec.scale_down);
        let mut stores = Vec::new();
        for dst in dsts {
            let base = slot_base(dst, gpu);
            let atomic_ops = (n_ops as f64 * self.atomic_fraction) as u64;
            stores.extend(scatter_ops(
                base,
                region,
                4,
                1,
                n_ops - atomic_ops,
                SlotDist::Zipf(self.zipf_exponent),
                &mut rng,
            ));
            // Atomic relaxations: scalar 8B (distance + parent CAS)
            // remote atomics, never coalesced by FinePack (§IV-C).
            // One warp store op carries 32 scalar updates, so each
            // converted op becomes 32 scalar atomics.
            // Built only when a draw happens, so a region too small for
            // one 8-byte slot still panics only where a draw would.
            if atomic_ops > 0 {
                let zipf = Zipf::new(region / 8, self.zipf_exponent);
                for _ in 0..atomic_ops * 32 {
                    let slot = zipf.sample(&mut rng);
                    stores.push(TraceOp::RemoteAtomic {
                        addr: base + slot * 8,
                        bytes: 8,
                        value_seed: rng.next_u64_below(u64::MAX),
                    });
                }
            }
        }
        let compute = per_gpu_compute_cycles(self.compute_wall_us, spec);
        interleave(self.name(), compute, stores)
    }

    fn dma_bytes_per_gpu(&self, spec: &RunSpec) -> u64 {
        let unique = self.update_bytes_per_gpu / u64::from(spec.scale_down);
        (unique as f64 * self.dma_overtransfer) as u64
    }

    fn read_fraction(&self) -> f64 {
        0.7
    }

    fn gps_unsubscribed_fraction(&self) -> f64 {
        0.7
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_model::{AddressMap, Gpu, GpuConfig};

    #[test]
    fn traffic_reaches_every_peer() {
        let trace = Sssp::default().trace(&RunSpec::paper(4), 0, GpuId::new(2));
        let gpu = Gpu::new(
            GpuConfig::tiny(),
            GpuId::new(2),
            AddressMap::new(4, 16 << 30),
        );
        let run = gpu.execute_kernel(&trace);
        let mut dsts: Vec<usize> = run.egress.iter().map(|t| t.store.dst.index()).collect();
        dsts.sort_unstable();
        dsts.dedup();
        assert_eq!(dsts, vec![0, 1, 3]);
    }

    #[test]
    fn atomic_fraction_emits_remote_atomics() {
        let app = Sssp {
            atomic_fraction: 0.25,
            ..Sssp::default()
        };
        let trace = app.trace(&RunSpec::tiny(), 0, GpuId::new(0));
        assert!(trace.atomic_count() > 0);
        let store_app = Sssp::default();
        let plain = store_app.trace(&RunSpec::tiny(), 0, GpuId::new(0));
        assert_eq!(plain.atomic_count(), 0);
    }

    #[test]
    fn rewrite_factor_exceeds_pagerank() {
        // SSSP's relaxation churn should produce a lower unique-address
        // ratio than PageRank's (2.2 vs 1.8 rewrite factor).
        let spec = RunSpec::paper(4);
        let unique_ratio = |trace: &KernelTrace, id: u8, n: u8| {
            let gpu = Gpu::new(
                GpuConfig::tiny(),
                GpuId::new(id),
                AddressMap::new(n, 16 << 30),
            );
            let run = gpu.execute_kernel(trace);
            let mut addrs: Vec<u64> = run.egress.iter().map(|t| t.store.addr).collect();
            let total = addrs.len() as f64;
            addrs.sort_unstable();
            addrs.dedup();
            addrs.len() as f64 / total
        };
        let sssp = Sssp::default().trace(&spec, 0, GpuId::new(0));
        let pr = crate::pagerank::Pagerank::default().trace(&spec, 0, GpuId::new(0));
        assert!(unique_ratio(&sssp, 0, 4) < unique_ratio(&pr, 0, 4));
    }
}
