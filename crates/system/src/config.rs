//! System-level configuration: interconnect generation, per-iteration
//! overheads, and the FinePack hardware parameters in force.

use finepack::FinePackConfig;
use gpu_model::GpuConfig;
use protocol::{FramingModel, PcieGen};
use sim_engine::SimTime;

use protocol::{CreditAccount, MAX_PAYLOAD_BYTES};

use crate::budget::RunBudget;
use crate::fault::FaultProfile;
use crate::topology::Topology;

/// Posted-write credit provisioning for one link direction under
/// [`FlowControlMode::Credited`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CreditConfig {
    /// Posted-header credits (TLPs in flight per link direction).
    pub ph: u32,
    /// Posted-data credits, 16-byte units.
    pub pd: u32,
    /// Modeled `UpdateFC` round trip: time from the receiver draining a
    /// TLP to the sender seeing its credits again.
    pub return_latency: SimTime,
    /// Egress output-buffer admission threshold, packets: the SM stalls
    /// while a path has this many packets waiting for link credits.
    pub buffer_packets: usize,
}

impl CreditConfig {
    /// A realistically provisioned PCIe switch ingress port for the
    /// paper's Gen4 system: the pool must cover the credit round trip's
    /// bandwidth-delay product (~500ns hop + serialization + UpdateFC
    /// return at 32GB/s ≈ 30KB) or steady-state streams throttle on
    /// credits rather than wire bandwidth. 256 headers / 32KB of data
    /// (2048 × 16B units) clears that bar for both FinePack's 4KB TLPs
    /// and raw P2P's 128B TLPs, so sustained flows run at link rate
    /// while bursts beyond the receiver's buffering still backpressure.
    pub fn paper() -> Self {
        CreditConfig {
            ph: 256,
            pd: 2048,
            return_latency: SimTime::from_ns(250),
            buffer_packets: 8,
        }
    }

    /// A pool large enough that no realistic workload ever blocks —
    /// the provisioning under which credited mode must reproduce
    /// open-loop timing bit-for-bit.
    pub fn generous() -> Self {
        CreditConfig {
            ph: 1 << 20,
            pd: 1 << 26,
            return_latency: SimTime::from_ns(500),
            buffer_packets: 1 << 20,
        }
    }

    /// The sender-side account this pool advertises.
    pub fn account(&self) -> CreditAccount {
        CreditAccount::new(self.ph, self.pd)
    }
}

/// Whether the fabric applies credit-based flow control to peer-to-peer
/// store traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowControlMode {
    /// Open-loop analytic delivery: every packet lands regardless of
    /// link occupancy (the original model; reproduces the paper's
    /// figure numbers exactly).
    Open,
    /// Closed-loop: each link direction holds a finite credit pool;
    /// exhaustion backpressures the egress path and ultimately stalls
    /// the issuing GPU's store stream.
    Credited(CreditConfig),
}

impl FlowControlMode {
    /// The credit pool, when credited.
    pub fn credits(&self) -> Option<CreditConfig> {
        match self {
            FlowControlMode::Open => None,
            FlowControlMode::Credited(c) => Some(*c),
        }
    }
}

/// Complete configuration of a simulated multi-GPU node.
///
/// # Examples
///
/// ```
/// use system::SystemConfig;
/// use protocol::PcieGen;
///
/// let cfg = SystemConfig::paper(4);
/// assert_eq!(cfg.pcie_gen, PcieGen::Gen4);
/// assert_eq!(cfg.num_gpus, 4);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SystemConfig {
    /// Number of GPUs in the node.
    pub num_gpus: u8,
    /// Interconnect generation (fixes per-direction link bandwidth).
    pub pcie_gen: PcieGen,
    /// Switch arrangement (single switch in the paper's evaluation).
    pub topology: Topology,
    /// Link framing model.
    pub framing: FramingModel,
    /// GPU hardware configuration.
    pub gpu: GpuConfig,
    /// FinePack structure configuration.
    pub finepack: FinePackConfig,
    /// Per-iteration synchronization cost: barrier + kernel relaunch.
    pub barrier_overhead: SimTime,
    /// Extra software cost per DMA transfer window (runtime/driver
    /// layers, §II-B).
    pub dma_sw_overhead: SimTime,
    /// Switch traversal latency per hop.
    pub hop_latency: SimTime,
    /// Write-combining / GPS line-buffer entries per destination.
    pub combining_entries: usize,
    /// Optional FinePack inactivity-timeout flush (§IV-B); `None`
    /// matches the paper's evaluated configuration.
    pub finepack_flush_timeout: Option<SimTime>,
    /// Experiment seed (drives GPS subscription draws and the fault
    /// layer's per-link RNG streams).
    pub seed: u64,
    /// Optional link fault injection; `None` runs the fabric without a
    /// data link layer (the paper's idealized evaluation).
    pub fault: Option<FaultProfile>,
    /// Flow-control regime for peer-to-peer store traffic.
    pub flow_control: FlowControlMode,
    /// Optional run budget (event ceiling, sim-time ceiling, progress
    /// watchdog); `None` runs unbounded. A run that never trips its
    /// budget is byte-identical to the same run without one.
    pub run_budget: Option<RunBudget>,
}

impl SystemConfig {
    /// The paper's evaluated system: `num_gpus` GV100s on switched
    /// PCIe 4.0 with Table III FinePack structures.
    ///
    /// # Panics
    ///
    /// Panics if `num_gpus < 2`.
    pub fn paper(num_gpus: u8) -> Self {
        SystemConfig {
            num_gpus,
            pcie_gen: PcieGen::Gen4,
            topology: Topology::SingleSwitch,
            framing: FramingModel::pcie_gen4(),
            gpu: GpuConfig::gv100(),
            finepack: FinePackConfig::paper(u32::from(num_gpus)),
            barrier_overhead: SimTime::from_ns(1_500),
            dma_sw_overhead: SimTime::from_ns(1_500),
            hop_latency: SimTime::from_ns(500),
            combining_entries: 64,
            finepack_flush_timeout: None,
            seed: 0xF14E_9ACC,
            fault: None,
            flow_control: FlowControlMode::Credited(CreditConfig::paper()),
            run_budget: None,
        }
    }

    /// Injects link faults (bit errors, outages, degradation).
    pub fn with_faults(mut self, profile: FaultProfile) -> Self {
        self.fault = Some(profile);
        self
    }

    /// Enables FinePack's inactivity-timeout flush (§IV-B option).
    pub fn with_finepack_timeout(mut self, timeout: SimTime) -> Self {
        self.finepack_flush_timeout = Some(timeout);
        self
    }

    /// Same system on a different switch topology.
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Same system at a different interconnect generation (Fig 13).
    pub fn with_pcie_gen(mut self, gen: PcieGen) -> Self {
        self.pcie_gen = gen;
        self
    }

    /// Replaces the FinePack configuration (Fig 12 sub-header sweep).
    pub fn with_finepack(mut self, fp: FinePackConfig) -> Self {
        self.finepack = fp;
        self
    }

    /// Selects the flow-control regime for store traffic.
    pub fn with_flow_control(mut self, mode: FlowControlMode) -> Self {
        self.flow_control = mode;
        self
    }

    /// Bounds runs with `budget`: a tripped ceiling terminates the run
    /// with a structured [`RunError::BudgetExceeded`] diagnostic
    /// instead of churning or livelocking.
    ///
    /// [`RunError::BudgetExceeded`]: crate::RunError::BudgetExceeded
    pub fn with_run_budget(mut self, budget: RunBudget) -> Self {
        self.run_budget = Some(budget);
        self
    }

    /// Convenience: the original open-loop analytic timing model.
    pub fn open_loop(self) -> Self {
        self.with_flow_control(FlowControlMode::Open)
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if any sub-configuration is invalid.
    pub fn validate(&self) {
        assert!(self.num_gpus >= 2, "a node needs at least 2 GPUs");
        self.gpu.validate();
        self.finepack.validate();
        assert!(self.combining_entries > 0);
        if let Some(fault) = &self.fault {
            fault.validate();
        }
        if let Some(budget) = &self.run_budget {
            budget.validate();
        }
        if let Topology::TwoLevel { gpus_per_leaf } = self.topology {
            assert!(
                gpus_per_leaf > 0 && self.num_gpus.is_multiple_of(gpus_per_leaf),
                "leaf size must divide GPU count"
            );
        }
        if let FlowControlMode::Credited(credits) = self.flow_control {
            assert!(credits.buffer_packets > 0, "output buffer needs capacity");
            // The pool must cover the largest single TLP the system can
            // emit, or that TLP would retry forever.
            let largest = self.finepack.max_payload.max(MAX_PAYLOAD_BYTES);
            let (ph, pd) = CreditAccount::cost(largest);
            assert!(
                credits.ph >= ph && credits.pd >= pd,
                "credit pool smaller than one maximum-size TLP ({largest}B)"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protocol::PD_UNIT_BYTES;

    #[test]
    fn paper_config_is_valid() {
        SystemConfig::paper(4).validate();
        SystemConfig::paper(16).validate();
    }

    #[test]
    fn builders_compose() {
        let cfg = SystemConfig::paper(4)
            .with_pcie_gen(PcieGen::Gen6)
            .with_finepack(FinePackConfig::paper(4));
        assert_eq!(cfg.pcie_gen, PcieGen::Gen6);
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn single_gpu_node_invalid() {
        let mut cfg = SystemConfig::paper(4);
        cfg.num_gpus = 1;
        cfg.validate();
    }

    #[test]
    fn default_flow_control_is_credited_paper_pool() {
        let cfg = SystemConfig::paper(4);
        let credits = cfg.flow_control.credits().expect("credited by default");
        assert_eq!(credits, CreditConfig::paper());
        // Pool covers the credit round trip's bandwidth-delay product.
        assert!(u64::from(credits.pd) * PD_UNIT_BYTES as u64 >= 30 << 10);
        cfg.validate();
        cfg.open_loop().validate();
        cfg.with_flow_control(FlowControlMode::Credited(CreditConfig::generous()))
            .validate();
    }

    #[test]
    #[should_panic(expected = "smaller than one maximum-size TLP")]
    fn credit_pool_below_one_tlp_invalid() {
        let tiny = CreditConfig {
            ph: 1,
            pd: 4, // 64B: cannot carry a 4096B TLP
            return_latency: SimTime::ZERO,
            buffer_packets: 1,
        };
        SystemConfig::paper(4)
            .with_flow_control(FlowControlMode::Credited(tiny))
            .validate();
    }
}
