//! The inter-GPU communication paradigms compared in the evaluation.

use std::fmt;
use std::str::FromStr;

use finepack::{EgressPath, FinePackEgress, RawP2pEgress, WriteCombiningEgress};
use gpu_model::GpuId;

use crate::config::SystemConfig;

/// A communication paradigm from the paper's evaluation (§V, §VI).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Paradigm {
    /// Bulk-synchronous memcpy/DMA at kernel boundaries.
    BulkDma,
    /// Proactive peer-to-peer stores on today's hardware.
    P2pStores,
    /// Peer-to-peer stores through FinePack (the contribution).
    FinePack,
    /// Cacheline write-combining without repacketization (§VI-A's
    /// "write combining alone" ablation).
    WriteCombining,
    /// GPS-like publish–subscribe proactive stores (§VI-B comparison).
    Gps,
    /// Infinite inter-GPU bandwidth: transfer time analytically elided
    /// from the memcpy paradigm (the Fig 9 opportunity bound).
    InfiniteBw,
}

impl Paradigm {
    /// Every paradigm, in the `run` table's order. Name parsing
    /// ([`FromStr`]) and every all-paradigm sweep derive from this list.
    pub const ALL: [Paradigm; 6] = [
        Paradigm::BulkDma,
        Paradigm::P2pStores,
        Paradigm::WriteCombining,
        Paradigm::Gps,
        Paradigm::FinePack,
        Paradigm::InfiniteBw,
    ];

    /// The four paradigms plotted in Fig 9, in plot order.
    pub const FIG9: [Paradigm; 4] = [
        Paradigm::BulkDma,
        Paradigm::P2pStores,
        Paradigm::FinePack,
        Paradigm::InfiniteBw,
    ];

    /// True if this paradigm transports stores through an egress path.
    pub fn uses_stores(self) -> bool {
        !matches!(self, Paradigm::BulkDma | Paradigm::InfiniteBw)
    }

    /// Builds the egress path this paradigm uses on GPU `gpu`, or `None`
    /// for the DMA / infinite-bandwidth paradigms.
    ///
    /// `gps_unsubscribed` is the workload's fraction of stores GPS's
    /// subscription mechanism would filter.
    pub fn make_egress(
        self,
        cfg: &SystemConfig,
        gpu: GpuId,
        gps_unsubscribed: f64,
    ) -> Option<Box<dyn EgressPath>> {
        match self {
            Paradigm::BulkDma | Paradigm::InfiniteBw => None,
            Paradigm::P2pStores => Some(Box::new(RawP2pEgress::new(cfg.framing))),
            Paradigm::FinePack => {
                let mut egress = FinePackEgress::new(gpu, cfg.finepack, cfg.framing);
                if let Some(timeout) = cfg.finepack_flush_timeout {
                    egress = egress.with_flush_timeout(timeout);
                }
                Some(Box::new(egress))
            }
            Paradigm::WriteCombining => Some(Box::new(WriteCombiningEgress::new(
                gpu,
                cfg.framing,
                cfg.combining_entries,
            ))),
            Paradigm::Gps => Some(Box::new(WriteCombiningEgress::gps(
                gpu,
                cfg.framing,
                cfg.combining_entries,
                gps_unsubscribed,
                cfg.seed,
            ))),
        }
    }
}

impl fmt::Display for Paradigm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Paradigm::BulkDma => write!(f, "bulk-dma"),
            Paradigm::P2pStores => write!(f, "p2p-stores"),
            Paradigm::FinePack => write!(f, "finepack"),
            Paradigm::WriteCombining => write!(f, "write-combining"),
            Paradigm::Gps => write!(f, "gps"),
            Paradigm::InfiniteBw => write!(f, "infinite-bw"),
        }
    }
}

impl FromStr for Paradigm {
    type Err = String;

    /// Parses a paradigm by its [`Display`](fmt::Display) name.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Paradigm::ALL
            .into_iter()
            .find(|p| p.to_string() == s)
            .ok_or_else(|| format!("unknown paradigm `{s}`"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn egress_factories() {
        let cfg = SystemConfig::paper(4);
        let g = GpuId::new(0);
        assert!(Paradigm::BulkDma.make_egress(&cfg, g, 0.0).is_none());
        assert!(Paradigm::InfiniteBw.make_egress(&cfg, g, 0.0).is_none());
        for p in [
            Paradigm::P2pStores,
            Paradigm::FinePack,
            Paradigm::WriteCombining,
            Paradigm::Gps,
        ] {
            let e = p.make_egress(&cfg, g, 0.1).unwrap();
            assert!(!e.name().is_empty());
            assert!(p.uses_stores());
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(Paradigm::FinePack.to_string(), "finepack");
        assert_eq!(Paradigm::BulkDma.to_string(), "bulk-dma");
        assert_eq!(Paradigm::InfiniteBw.to_string(), "infinite-bw");
    }

    #[test]
    fn names_parse_back() {
        for p in Paradigm::ALL {
            assert_eq!(p.to_string().parse::<Paradigm>(), Ok(p));
        }
        assert!("warp-drive".parse::<Paradigm>().is_err());
    }
}
