//! Fault injection for the switched fabric: per-link bit-error rates
//! driving the data link layer's Ack/Nak replay machinery, transient
//! outage windows recovered by the REPLAY_TIMER, and post-retrain link
//! degradation. FinePack's transparency claim must survive all of it —
//! a replayed TLP costs wire bytes and latency but never changes the
//! bytes that land in destination memory.

use protocol::{ReplayConfig, ReplayError, ReplayStats};
use sim_engine::SimTime;

use crate::budget::BudgetTrip;

/// A transient (or permanent) outage on one GPU's egress link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outage {
    /// The GPU whose egress link fails.
    pub gpu: u8,
    /// Outage start.
    pub from: SimTime,
    /// Outage end; [`SimTime::MAX`] models a stuck link that never
    /// recovers (the watchdog's diagnostic case).
    pub until: SimTime,
}

/// Fault-injection profile applied uniformly to every link of a fabric.
///
/// The profile is [`Copy`] so it can ride inside
/// [`SystemConfig`](crate::SystemConfig) without breaking its `Copy`
/// bound. A `ber` of zero with no outage is the identity: the data link
/// layer is exercised but every transfer succeeds on the first attempt
/// with zero added latency, so fault-free results are bit-identical to
/// a fabric with no profile at all.
///
/// # Examples
///
/// ```
/// use system::FaultProfile;
///
/// let profile = FaultProfile::new(1e-9).with_degrade(0.5);
/// profile.validate();
/// assert_eq!(profile.ber, 1e-9);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct FaultProfile {
    /// Raw bit-error rate per transmitted bit (post-FEC residual).
    pub ber: f64,
    /// Data link layer retry parameters.
    pub replay: ReplayConfig,
    /// Optional outage window on one GPU's egress link.
    pub outage: Option<Outage>,
    /// Bandwidth factor applied after a link's first retrain (models a
    /// link renegotiating at reduced width/speed); `None` retrains back
    /// to full rate.
    pub degrade: Option<f64>,
    /// Watchdog bound: a single delivery stalled longer than this is
    /// reported as no-forward-progress instead of silently inflating
    /// the simulated time.
    pub max_stall: SimTime,
}

impl FaultProfile {
    /// A profile with the given bit-error rate and PCIe 4.0 replay
    /// parameters, no outage, no degradation, and a 50 ms stall bound.
    pub fn new(ber: f64) -> Self {
        FaultProfile {
            ber,
            replay: ReplayConfig::pcie_gen4(),
            outage: None,
            degrade: None,
            max_stall: SimTime::from_ms(50),
        }
    }

    /// Adds a transient outage window on `gpu`'s egress link.
    pub fn with_outage(mut self, gpu: u8, from: SimTime, until: SimTime) -> Self {
        self.outage = Some(Outage { gpu, from, until });
        self
    }

    /// Sticks `gpu`'s egress link permanently down from `from` onward —
    /// the watchdog / LinkDown diagnostic scenario.
    pub fn stuck_link(mut self, gpu: u8, from: SimTime) -> Self {
        self.outage = Some(Outage {
            gpu,
            from,
            until: SimTime::MAX,
        });
        self
    }

    /// Degrades retrained links to `factor` of their bandwidth.
    pub fn with_degrade(mut self, factor: f64) -> Self {
        self.degrade = Some(factor);
        self
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if `ber` is outside `[0, 1]`, a degradation factor is
    /// outside `(0, 1]`, or an outage window is empty or inverted.
    pub fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.ber),
            "ber {} outside [0, 1]",
            self.ber
        );
        if let Some(d) = self.degrade {
            assert!(d > 0.0 && d <= 1.0, "degrade factor {d} outside (0, 1]");
        }
        if let Some(o) = self.outage {
            assert!(
                o.from < o.until,
                "empty or inverted outage window: from {} until {}",
                o.from,
                o.until
            );
        }
        assert!(!self.max_stall.is_zero(), "stall bound must be positive");
    }
}

/// A link-level failure surfaced through the fabric, with enough
/// context to diagnose which link died and what it was doing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FabricFault {
    /// Which link direction failed (e.g. `"egress0"`, `"up1"`).
    pub link: String,
    /// Simulated time of the failing transfer.
    pub at: SimTime,
    /// The data link layer's verdict.
    pub error: ReplayError,
    /// The failing link's cumulative statistics at the time of death.
    pub stats: ReplayStats,
}

impl std::fmt::Display for FabricFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "link {} failed at {}: {} ({} TLPs delivered, {} replayed bytes, {} retrains)",
            self.link,
            self.at,
            self.error,
            self.stats.tlps_delivered,
            self.stats.replayed_bytes,
            self.stats.retrains
        )
    }
}

impl std::error::Error for FabricFault {}

/// Why a fault-injected run terminated instead of completing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// A link declared itself down (REPLAY_NUM escalation exhausted its
    /// retrain budget) — the run cannot make forward progress. Boxed so
    /// the hot `Result` stays register-sized on the `Ok` path.
    LinkDown(Box<FabricFault>),
    /// The watchdog tripped: one delivery stalled past the profile's
    /// `max_stall` bound without the link dying outright (e.g. a
    /// pathologically degraded link crawling under contention).
    Stalled {
        /// The GPU whose delivery stalled.
        gpu: u8,
        /// When the packet entered the fabric.
        at: SimTime,
        /// When it would have landed.
        landed: SimTime,
        /// The bound it exceeded.
        limit: SimTime,
    },
    /// A [`RunBudget`](crate::RunBudget) ceiling tripped — the run was
    /// terminated with a diagnostic snapshot instead of churning or
    /// livelocking forever. Boxed like `LinkDown` so the hot `Result`
    /// stays register-sized on the `Ok` path.
    BudgetExceeded(Box<BudgetTrip>),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::LinkDown(fault) => write!(f, "no forward progress: {fault}"),
            RunError::Stalled {
                gpu,
                at,
                landed,
                limit,
            } => write!(
                f,
                "no forward progress: delivery from GPU{gpu} entering at {at} \
                 would land at {landed}, past the {limit} stall bound"
            ),
            RunError::BudgetExceeded(trip) => write!(f, "run budget exceeded: {trip}"),
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::LinkDown(fault) => Some(fault.as_ref()),
            RunError::Stalled { .. } | RunError::BudgetExceeded(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let p = FaultProfile::new(1e-10).with_degrade(0.5).with_outage(
            2,
            SimTime::from_us(5),
            SimTime::from_us(9),
        );
        p.validate();
        assert_eq!(p.outage.unwrap().gpu, 2);
        assert_eq!(p.degrade, Some(0.5));
    }

    #[test]
    fn stuck_link_never_recovers() {
        let p = FaultProfile::new(0.0).stuck_link(1, SimTime::from_us(3));
        p.validate();
        assert_eq!(p.outage.unwrap().until, SimTime::MAX);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn bad_ber_rejected() {
        FaultProfile::new(1.5).validate();
    }

    #[test]
    #[should_panic(expected = "outside (0, 1]")]
    fn zero_degrade_rejected() {
        FaultProfile::new(0.0).with_degrade(0.0).validate();
    }

    #[test]
    fn errors_render_diagnostics() {
        let fault = FabricFault {
            link: "egress0".to_string(),
            at: SimTime::from_us(7),
            error: ReplayError::LinkDown {
                seq: 42,
                retrains: 16,
            },
            stats: ReplayStats::default(),
        };
        let msg = RunError::LinkDown(Box::new(fault)).to_string();
        assert!(msg.contains("egress0"), "{msg}");
        assert!(msg.contains("seq 42"), "{msg}");
        let stalled = RunError::Stalled {
            gpu: 3,
            at: SimTime::from_us(1),
            landed: SimTime::from_ms(90),
            limit: SimTime::from_ms(50),
        };
        assert!(stalled.to_string().contains("GPU3"));
    }
}
