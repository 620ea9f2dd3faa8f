//! # gpu-model
//!
//! A trace-driven GPU memory-system model, rebuilt from scratch to stand
//! in for the proprietary NVAS simulator the FinePack paper extends.
//!
//! The model covers exactly the mechanisms FinePack's results depend on:
//!
//! - [`GpuConfig`]: the GV100 configuration of Table III.
//! - [`AddressMap`] / [`GpuId`]: the node-wide shared physical address
//!   space of a single-node multi-GPU system (§II-A).
//! - [`KernelTrace`] / [`TraceOp`] / [`AccessPattern`]: the NVBit-like
//!   trace format workload generators synthesize.
//! - [`coalesce_warp_store`]: intra-warp L1 store coalescing — the reason
//!   regular apps emit 128B remote stores while irregular apps emit 4–32B
//!   ones (Fig 4).
//! - [`Gpu::execute_kernel`]: SM-parallel trace replay producing the
//!   time-ordered remote-store egress stream the interconnect consumes.
//! - [`MemoryImage`]: a functional memory image used to verify that
//!   FinePack is semantically transparent, stored as 128B lines in a
//!   [`LineMap`].
//!
//! Remote stores bypass L2 on real NVIDIA GPUs (it is a memory-side cache
//! with no inter-GPU coherence, §III), so this model routes them from the
//! L1 coalescer directly to the egress port — which is precisely the
//! interface where FinePack's remote write queue sits.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod addr;
mod analysis;
mod coalescer;
mod config;
mod gpu;
mod memory;
mod trace;
mod traceio;

pub use addr::{AddressMap, GpuId};
pub use analysis::{profile_run, StoreProfile};
pub use coalescer::{coalesce_warp_store, route_txn, StoreTxn};
pub use config::GpuConfig;
pub use gpu::{Gpu, KernelRun, KernelStats, TimedProbe, TimedStore};
pub use memory::{ImageDiff, LineHasher, LineMap, MemoryImage};
pub use trace::{store_byte, AccessPattern, KernelTrace, RemoteStore, TraceOp};
pub use traceio::{read_trace, write_trace, TraceIoError};
