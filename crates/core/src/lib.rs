//! # finepack
//!
//! The core contribution of *FinePack: Transparently Improving the
//! Efficiency of Fine-Grained Transfers in Multi-GPU Systems* (HPCA
//! 2023): GPU-side hardware that coalesces and compresses small
//! peer-to-peer stores into large, efficiently framed PCIe transactions —
//! fully transparently to software.
//!
//! ## Components (Fig 7)
//!
//! - [`RemoteWriteQueue`] — a per-destination-partitioned SRAM between
//!   the GPU crossbar and the network egress port. Same-address stores
//!   overwrite in place (legal under the GPU's weak memory model before a
//!   system-scope release); stores within the open address window
//!   accumulate until the window, payload budget, or entry capacity is
//!   exhausted.
//! - [`packetize`] — converts flushed queue contents into
//!   [`FinePackPacket`]s: one outer PCIe TLP whose payload concatenates
//!   sub-packets, each led by a compact base+offset sub-header
//!   ([`SubheaderFormat`], Table II).
//! - [`Depacketizer`] — the ingress side: disaggregates sub-packets back
//!   into individual stores and issues them to local memory.
//!
//! ## Baselines
//!
//! [`RawP2pEgress`] (today's hardware), [`WriteCombiningEgress`]
//! (cacheline combining without repacketization; built with
//! [`WriteCombiningEgress::gps`], the GPS-like publish–subscribe model),
//! and [`ConfigPacketModel`] (the stateful alternate design of §VI-B) —
//! all compared in the paper's evaluation.
//!
//! Every path does one job: turn stores into [`WirePacket`]s. Queueing
//! those packets at the port, admission, and stall time belong to the
//! system runner that drives the path, and so does tracing: no path
//! records events, and this crate does not depend on `telemetry`. The
//! runner reads what a path did from its [`EgressMetrics`] (flushes by
//! reason, stores merged into the remote write queue).
//!
//! # Examples
//!
//! ```
//! use finepack::{EgressPath, FinePackConfig, FinePackEgress, RawP2pEgress};
//! use gpu_model::{GpuId, RemoteStore};
//! use protocol::FramingModel;
//! use sim_engine::SimTime;
//!
//! let framing = FramingModel::pcie_gen4();
//! let mut fp = FinePackEgress::new(GpuId::new(0), FinePackConfig::paper(4), framing);
//! let mut p2p = RawP2pEgress::new(framing);
//! for i in 0..64u64 {
//!     let store = RemoteStore {
//!         src: GpuId::new(0),
//!         dst: GpuId::new(1),
//!         addr: 0x10_0000 + i * 192,
//!         len: 8, // 8-byte scattered stores
//!         value_seed: i,
//!     };
//!     fp.push(&store, SimTime::ZERO)?;
//!     p2p.push(&store, SimTime::ZERO)?;
//! }
//! fp.release();
//! // FinePack moves the same data in far fewer wire bytes.
//! assert!(fp.metrics().wire_bytes * 2 < p2p.metrics().wire_bytes);
//! # Ok::<(), finepack::FinePackError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod alt_design;
mod area;
mod baselines;
mod config;
mod depacketizer;
mod egress;
mod packet;
mod packetizer;
mod replay_stats;
mod rwq;

pub use alt_design::ConfigPacketModel;
pub use area::AreaModel;
pub use baselines::WriteCombiningEgress;
pub use config::{
    AllocationPolicy, FinePackConfig, FinePackError, SubheaderFormat, LENGTH_FIELD_BITS,
};
pub use depacketizer::Depacketizer;
pub use egress::{
    EgressMetrics, EgressPath, FinePackEgress, PackedStores, PayloadMode, RawP2pEgress,
    StoreSlices, WirePacket,
};
pub use packet::{DeliveredStore, FinePackPacket, SubPacket};
pub use packetizer::{packetize, packetize_layout, LayoutChunk, PacketLayout};
pub use replay_stats::ReplayAmplification;
pub use rwq::{FlushReason, FlushedBatch, FlushedEntry, MaskRuns, RemoteWriteQueue, RwqStats};
