//! # workloads
//!
//! Synthetic trace generators for the eight multi-GPU applications in the
//! FinePack evaluation suite (§V): Jacobi, PageRank, SSSP, ALS, CT, EQWP,
//! Diffusion, and HIT — plus a collectives family ([`collectives`])
//! modeling AI-training traffic (all-reduce, all-to-all, halo exchange,
//! broadcast) over the same machinery.
//!
//! The paper traces real CUDA binaries with NVBit and replays them in
//! NVAS; neither the binaries, the datasets (UF sparse matrices, the GE
//! Veo CT pipeline), nor the tracer are available, so each generator
//! synthesizes traces that reproduce the properties the paper states and
//! that FinePack's results depend on:
//!
//! - the communication pattern (halo / many-to-many / all-to-all),
//! - the store-size mix exiting L1 (Fig 4: 128B for regular apps, 4–32B
//!   for irregular ones),
//! - the temporal-rewrite behaviour (redundant transfers, Fig 10),
//! - the spatial-locality profile (stores per FinePack packet, Fig 11),
//! - the compute-to-communication ratio (strong scaling, Fig 9), and
//! - the DMA-paradigm over-transfer factor (wasted bytes, Fig 10).
//!
//! See `DESIGN.md` §4 for the substitution rationale per dataset.
//!
//! # Examples
//!
//! ```
//! use workloads::{suite, RunSpec};
//! use gpu_model::GpuId;
//!
//! let spec = RunSpec::tiny();
//! for app in suite() {
//!     let trace = app.trace(&spec, 0, GpuId::new(0));
//!     assert!(!trace.is_empty(), "{} produced an empty trace", app.name());
//! }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod als;
mod assembler;
pub mod collectives;
mod common;
mod convert;
mod ct;
mod diffusion;
mod eqwp;
mod graph;
mod hit;
mod jacobi;
mod pagerank;
mod spec;
mod sssp;
mod synthetic;

pub use als::Als;
pub use collectives::{
    AllToAllShuffle, CollectiveTuning, Halo2d, MsgDist, ParamBroadcast, RingAllReduce,
    TreeAllReduce,
};
pub use convert::{checked_gpu_index, checked_u32, NarrowingError};
pub use ct::Ct;
pub use diffusion::Diffusion;
pub use eqwp::Eqwp;
pub use graph::{generate_rmat, vertex_owner, PagerankGraph, RmatParams};
pub use hit::Hit;
pub use jacobi::Jacobi;
pub use pagerank::Pagerank;
pub use spec::{app_region_base, CommPattern, RunSpec, ScalingMode, Workload, APP_REGION_OFFSET};
pub use sssp::Sssp;
pub use synthetic::{Locality, Synthetic, SyntheticBuilder};

/// Constructor of a suite app, as stored in [`SUITE_REGISTRY`].
pub type AppCtor = fn() -> Box<dyn Workload>;

/// Tuning-parameterized constructor of a collective, as stored in
/// [`COLLECTIVE_REGISTRY`].
pub type CollectiveCtor = fn(&CollectiveTuning) -> Box<dyn Workload>;

/// The single source of truth for the evaluation suite: name and
/// constructor of every app, in the paper's figure order. [`suite`],
/// name lookup, and the registration tests all derive from this table,
/// so adding an app here is the *only* registration step.
pub const SUITE_REGISTRY: [(&str, AppCtor); 8] = [
    ("jacobi", || Box::new(Jacobi::default())),
    ("pagerank", || Box::new(Pagerank::default())),
    ("sssp", || Box::new(Sssp::default())),
    ("als", || Box::new(Als::default())),
    ("ct", || Box::new(Ct::default())),
    ("eqwp", || Box::new(Eqwp::default())),
    ("diffusion", || Box::new(Diffusion::default())),
    ("hit", || Box::new(Hit::default())),
];

/// The full evaluation suite in the paper's figure order.
pub fn suite() -> Vec<Box<dyn Workload>> {
    SUITE_REGISTRY.iter().map(|(_, make)| make()).collect()
}

/// The registry of collective workloads: name and tuning-parameterized
/// constructor, mirroring [`SUITE_REGISTRY`].
pub const COLLECTIVE_REGISTRY: [(&str, CollectiveCtor); 5] = [
    ("ring-allreduce", |t| Box::new(RingAllReduce::new(*t))),
    ("tree-allreduce", |t| Box::new(TreeAllReduce::new(*t))),
    ("alltoall", |t| Box::new(AllToAllShuffle::new(*t))),
    ("halo2d", |t| Box::new(Halo2d::new(*t))),
    ("broadcast", |t| Box::new(ParamBroadcast::new(*t))),
];

/// Looks up one collective by name.
///
/// # Panics
///
/// Panics if `tuning` fails [`CollectiveTuning::validate`].
pub fn collective(name: &str, tuning: &CollectiveTuning) -> Option<Box<dyn Workload>> {
    COLLECTIVE_REGISTRY
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, make)| make(tuning))
}

/// All collectives under one tuning, in registry order.
///
/// # Panics
///
/// Panics if `tuning` fails [`CollectiveTuning::validate`].
pub fn collectives_suite(tuning: &CollectiveTuning) -> Vec<Box<dyn Workload>> {
    COLLECTIVE_REGISTRY
        .iter()
        .map(|(_, make)| make(tuning))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_model::GpuId;

    /// Registration is derived from the registries, not re-listed: every
    /// entry's constructor must produce a workload whose `name()` matches
    /// its registry key, and keys must be unique across *both* tables
    /// (collectives share the CLI name namespace with the suite).
    #[test]
    fn registries_are_consistent_and_collision_free() {
        let tuning = CollectiveTuning::default();
        let mut seen = std::collections::BTreeSet::new();
        for (name, make) in SUITE_REGISTRY {
            assert_eq!(make().name(), name, "suite registry key mismatch");
            assert!(seen.insert(name), "duplicate app name {name}");
        }
        for (name, make) in COLLECTIVE_REGISTRY {
            assert_eq!(make(&tuning).name(), name, "collective key mismatch");
            assert!(seen.insert(name), "duplicate app name {name}");
        }
        assert_eq!(suite().len(), SUITE_REGISTRY.len());
        assert_eq!(collectives_suite(&tuning).len(), COLLECTIVE_REGISTRY.len());
        assert_eq!(
            collective("ring-allreduce", &tuning).map(|w| w.name()),
            Some("ring-allreduce")
        );
        assert!(collective("nccl", &tuning).is_none());
    }

    #[test]
    fn every_app_produces_traces_for_all_gpus() {
        let spec = RunSpec::tiny();
        for app in suite() {
            for g in 0..spec.num_gpus {
                let t = app.trace(&spec, 0, GpuId::new(g));
                assert!(t.store_count() > 0, "{} gpu{} has no stores", app.name(), g);
                assert!(t.total_compute_cycles() > 0);
            }
        }
    }

    #[test]
    fn every_collective_produces_traces_for_all_gpus() {
        let spec = RunSpec::tiny();
        for app in collectives_suite(&CollectiveTuning::default()) {
            let mut stores = 0;
            for g in 0..spec.num_gpus {
                let t = app.trace(&spec, 0, GpuId::new(g));
                // Individual GPUs may be silent (broadcast leaves), but
                // compute must flow and the collective must move bytes.
                assert!(t.total_compute_cycles() > 0, "{} gpu{g}", app.name());
                stores += t.store_count();
            }
            assert!(stores > 0, "{} moved no bytes", app.name());
            assert!(app.dma_bytes_per_gpu(&spec) > 0, "{}", app.name());
        }
    }

    #[test]
    fn dma_bytes_positive_for_all() {
        let spec = RunSpec::paper(4);
        for app in suite() {
            assert!(app.dma_bytes_per_gpu(&spec) > 0, "{}", app.name());
            let rf = app.read_fraction();
            assert!((0.0..=1.0).contains(&rf));
            let gps = app.gps_unsubscribed_fraction();
            assert!((0.0..=1.0).contains(&gps));
        }
    }

    #[test]
    fn patterns_match_paper_table() {
        use CommPattern::*;
        let expect = vec![
            Neighbors, Neighbors, ManyToMany, AllToAll, AllToAll, Neighbors, Neighbors, AllToAll,
        ];
        let got: Vec<CommPattern> = suite().iter().map(|w| w.pattern()).collect();
        assert_eq!(got, expect);
    }
}
