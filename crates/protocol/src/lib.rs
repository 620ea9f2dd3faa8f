//! # protocol
//!
//! Interconnect wire-protocol models for the FinePack reproduction:
//! byte-accurate PCIe TLP headers and framing overhead ([`TlpHeader`],
//! [`FramingModel`]), the NVLink flit model ([`NvlinkModel`]), the
//! goodput-vs-size curves behind the paper's Figure 2
//! ([`goodput_curve`]), posted-write credit flow control
//! ([`CreditTimeline`]), and the data link layer
//! ([`DataLinkEndpoint`]), which carries one TLP at a time through
//! LCRC checks, Ack/Nak DLLPs ([`Dllp`]), replays and retrains.
//!
//! The FinePack *inner* (sub-transaction) format lives in the `finepack`
//! crate, which embeds its payload inside the [`TlpType::FinePack`] outer
//! transaction defined here.
//!
//! # Examples
//!
//! ```
//! use protocol::{FramingModel, PcieGen};
//!
//! let fm = FramingModel::pcie_gen4();
//! // Why FinePack exists: an 8B P2P store wastes 3/4 of the wire.
//! assert!(fm.goodput(8).unwrap() < 0.3);
//! // while the link itself is fast:
//! assert_eq!(PcieGen::Gen4.bandwidth().as_gbps(), 32.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod credits;
mod dllp;
mod goodput;
mod nvlink;
mod pcie;
mod replay;

use std::fmt;

pub use credits::{CreditAccount, CreditTimeline, CreditTotals, PD_UNIT_BYTES};
pub use dllp::{Dllp, DLLP_WIRE_BYTES};
pub use goodput::{fig2_sizes, goodput_curve, pcie_efficiency, GoodputPoint};
pub use nvlink::{NvlinkModel, FLIT_BYTES};
pub use pcie::{FramingModel, PcieGen, TlpHeader, TlpType, MAX_PAYLOAD_BYTES, TLP_HEADER_BYTES};
pub use replay::{
    BitErrorModel, DataLinkEndpoint, LinkTransfer, ReplayConfig, ReplayError, ReplayStats,
};

/// Errors produced when decoding wire formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolError {
    /// The buffer ended before a complete field could be read.
    Truncated {
        /// Bytes required to continue decoding.
        needed: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// A TLP type encoding this model does not implement.
    UnknownTlpType(u8),
    /// A field held a value that violates the format's invariants.
    InvalidField(&'static str),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Truncated { needed, got } => {
                write!(f, "truncated packet: needed {needed} bytes, got {got}")
            }
            ProtocolError::UnknownTlpType(t) => write!(f, "unknown TLP type encoding {t:#07b}"),
            ProtocolError::InvalidField(what) => write!(f, "invalid field: {what}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Convenience alias for protocol results.
pub type Result<T> = std::result::Result<T, ProtocolError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = ProtocolError::Truncated { needed: 16, got: 3 };
        assert_eq!(e.to_string(), "truncated packet: needed 16 bytes, got 3");
        let e = ProtocolError::UnknownTlpType(0b11111);
        assert!(e.to_string().contains("unknown TLP type"));
        let e = ProtocolError::InvalidField("length");
        assert_eq!(e.to_string(), "invalid field: length");
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ProtocolError>();
    }
}
