//! Switch topologies. The paper's 4-GPU system hangs off a single PCIe
//! switch; larger nodes (its §VI-B 16-GPU projection) realistically use a
//! two-level switch tree, where leaf-to-spine uplinks carry all
//! inter-leaf traffic and become the contended resource for all-to-all
//! patterns.

use gpu_model::GpuId;
use sim_engine::{Bandwidth, SimTime};

use protocol::{CreditTimeline, DataLinkEndpoint};

use crate::config::CreditConfig;
use crate::link::{FcStats, Link};

/// The outcome of a credited send attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// Credits were available on every traversed link; the TLP lands at
    /// this time (identical to what [`RoutedFabric::try_send`] returns).
    Delivered(SimTime),
    /// Some traversed link is out of posted credits; nothing was
    /// consumed or transmitted. Retry at `until`, when the earliest
    /// sufficient `UpdateFC` returns are scheduled to land.
    Blocked {
        /// Earliest time every traversed link can admit the TLP.
        until: SimTime,
    },
}

/// Per-segment completion times of one routed transfer: when each
/// traversed link's receiver drained the TLP (replay penalties
/// included), which is what schedules that link's credit return.
struct RouteDone {
    delivered: SimTime,
    egress_done: SimTime,
    up_done: Option<SimTime>,
    down_done: Option<SimTime>,
}

/// The switch arrangement connecting the GPUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// Every GPU on one switch: uniform single-hop connectivity (the
    /// paper's evaluated 4-GPU system).
    SingleSwitch,
    /// Two-level tree: GPUs attach to leaf switches of `gpus_per_leaf`;
    /// leaves connect to one spine by a single uplink per direction.
    /// Intra-leaf traffic takes one hop; inter-leaf traffic additionally
    /// crosses two (shared) uplinks.
    TwoLevel {
        /// GPUs per leaf switch (must divide the GPU count).
        gpus_per_leaf: u8,
    },
}

impl Topology {
    /// Number of switch hops between two GPUs.
    pub fn hops(&self, a: GpuId, b: GpuId) -> u32 {
        match self {
            Topology::SingleSwitch => 1,
            Topology::TwoLevel { gpus_per_leaf } => {
                if a.index() / usize::from(*gpus_per_leaf)
                    == b.index() / usize::from(*gpus_per_leaf)
                {
                    1
                } else {
                    3 // leaf -> spine -> leaf
                }
            }
        }
    }
}

impl std::fmt::Display for Topology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Topology::SingleSwitch => write!(f, "single-switch"),
            Topology::TwoLevel { gpus_per_leaf } => {
                write!(f, "two-level ({gpus_per_leaf} GPUs/leaf)")
            }
        }
    }
}

/// The routed fabric: per-GPU access links plus (for two-level
/// topologies) shared per-leaf uplinks in both directions.
#[derive(Debug, Clone)]
pub struct RoutedFabric {
    topology: Topology,
    egress: Vec<Link>,
    ingress: Vec<Link>,
    /// Per-leaf uplink toward the spine.
    up: Vec<Link>,
    /// Per-leaf downlink from the spine.
    down: Vec<Link>,
    gpus_per_leaf: usize,
    hop_latency: SimTime,
}

impl RoutedFabric {
    /// Builds the fabric. All links (access and uplinks) run at
    /// `bandwidth` per direction, as with real PCIe switch trees built
    /// from the same generation of links.
    ///
    /// # Panics
    ///
    /// Panics if a two-level topology's leaf size does not divide
    /// `num_gpus`.
    pub fn new(
        topology: Topology,
        num_gpus: u8,
        bandwidth: Bandwidth,
        hop_latency: SimTime,
    ) -> Self {
        let gpus_per_leaf = match topology {
            Topology::SingleSwitch => usize::from(num_gpus),
            Topology::TwoLevel { gpus_per_leaf } => {
                assert!(
                    gpus_per_leaf > 0 && num_gpus.is_multiple_of(gpus_per_leaf),
                    "leaf size {gpus_per_leaf} must divide GPU count {num_gpus}"
                );
                usize::from(gpus_per_leaf)
            }
        };
        let leaves = usize::from(num_gpus).div_ceil(gpus_per_leaf);
        RoutedFabric {
            topology,
            egress: (0..num_gpus).map(|_| Link::new(bandwidth)).collect(),
            ingress: (0..num_gpus).map(|_| Link::new(bandwidth)).collect(),
            up: (0..leaves).map(|_| Link::new(bandwidth)).collect(),
            down: (0..leaves).map(|_| Link::new(bandwidth)).collect(),
            gpus_per_leaf,
            hop_latency,
        }
    }

    /// Attaches fault injection to every link direction — access links
    /// and (for two-level topologies) leaf uplinks/downlinks — each
    /// with an independent deterministic RNG stream derived from
    /// `seed`. An outage in the profile lands on the nominated GPU's
    /// egress link.
    pub fn with_faults(mut self, profile: crate::FaultProfile, seed: u64) -> Self {
        profile.validate();
        let ber = protocol::BitErrorModel::new(profile.ber);
        for (dir, links) in [
            ("egress", &mut self.egress),
            ("ingress", &mut self.ingress),
            ("up", &mut self.up),
            ("down", &mut self.down),
        ] {
            for (i, link) in links.iter_mut().enumerate() {
                let rng = sim_engine::DetRng::new(seed, &format!("dll-{dir}{i}"));
                link.attach_dll(
                    DataLinkEndpoint::new(profile.replay, ber, rng),
                    profile.degrade,
                );
            }
        }
        if let Some(o) = profile.outage {
            self.egress[usize::from(o.gpu)].set_outage(o.from, o.until);
        }
        self
    }

    fn leaf_of(&self, gpu: GpuId) -> usize {
        gpu.index() / self.gpus_per_leaf
    }

    /// Sends `bytes` from `src` to `dst`; returns the delivery time.
    /// Cut-through at every stage: each link adds its own serialization
    /// under contention but an uncontended transfer is serialized once.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst`.
    pub fn send(&mut self, at: SimTime, src: GpuId, dst: GpuId, bytes: u64) -> SimTime {
        assert_ne!(src, dst, "local traffic must not enter the fabric");
        let start = at.max(self.egress[src.index()].busy_until());
        self.egress[src.index()].transmit(at, bytes);
        let mut head = start + self.hop_latency;
        let (src_leaf, dst_leaf) = (self.leaf_of(src), self.leaf_of(dst));
        if matches!(self.topology, Topology::TwoLevel { .. }) && src_leaf != dst_leaf {
            let up = &mut self.up[src_leaf];
            let up_start = head.max(up.busy_until());
            up.transmit(head, bytes);
            head = up_start + self.hop_latency;
            let down = &mut self.down[dst_leaf];
            let down_start = head.max(down.busy_until());
            down.transmit(head, bytes);
            head = down_start + self.hop_latency;
        }
        self.ingress[dst.index()].transmit(head, bytes)
    }

    /// [`RoutedFabric::send`] through the data link layer: replayed
    /// TLPs cost wire bytes and delay at every stage; a stuck link
    /// surfaces as an error naming the dead direction.
    ///
    /// # Errors
    ///
    /// [`crate::FabricFault`] when any traversed link declares itself
    /// down.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst`.
    pub fn try_send(
        &mut self,
        at: SimTime,
        src: GpuId,
        dst: GpuId,
        bytes: u64,
    ) -> Result<SimTime, Box<crate::FabricFault>> {
        self.route_transmit(at, src, dst, bytes)
            .map(|r| r.delivered)
    }

    /// The timed traversal shared by open and credited sends, reporting
    /// per-segment completion times for credit-return scheduling.
    fn route_transmit(
        &mut self,
        at: SimTime,
        src: GpuId,
        dst: GpuId,
        bytes: u64,
    ) -> Result<RouteDone, Box<crate::FabricFault>> {
        assert_ne!(src, dst, "local traffic must not enter the fabric");
        let fault = |link: &Link, name: String, error| {
            Box::new(crate::FabricFault {
                link: name,
                at,
                error,
                stats: link.dll_stats().unwrap_or_default(),
            })
        };
        let start = at.max(self.egress[src.index()].busy_until());
        let out = match self.egress[src.index()].try_transmit(at, bytes) {
            Ok(d) => d,
            Err(e) => {
                let l = &self.egress[src.index()];
                return Err(fault(l, format!("egress{}", src.index()), e));
            }
        };
        let mut head = start + self.hop_latency + out.penalty;
        // The last byte cannot land before it has cleared every
        // upstream link (matters when a degraded link is slower than
        // the ones after it).
        let mut floor = out.done + self.hop_latency;
        let (src_leaf, dst_leaf) = (self.leaf_of(src), self.leaf_of(dst));
        let mut up_done = None;
        let mut down_done = None;
        if matches!(self.topology, Topology::TwoLevel { .. }) && src_leaf != dst_leaf {
            let up_start = head.max(self.up[src_leaf].busy_until());
            let up_out = match self.up[src_leaf].try_transmit(head, bytes) {
                Ok(d) => d,
                Err(e) => return Err(fault(&self.up[src_leaf], format!("up{src_leaf}"), e)),
            };
            head = up_start + self.hop_latency + up_out.penalty;
            floor = floor.max(up_out.done) + self.hop_latency;
            up_done = Some(up_out.done);
            let down_start = head.max(self.down[dst_leaf].busy_until());
            let down_out = match self.down[dst_leaf].try_transmit(head, bytes) {
                Ok(d) => d,
                Err(e) => return Err(fault(&self.down[dst_leaf], format!("down{dst_leaf}"), e)),
            };
            head = down_start + self.hop_latency + down_out.penalty;
            floor = floor.max(down_out.done) + self.hop_latency;
            down_done = Some(down_out.done);
        }
        match self.ingress[dst.index()].try_transmit(head, bytes) {
            Ok(d) => {
                let delivered = d.done.max(floor);
                Ok(RouteDone {
                    delivered,
                    egress_done: out.done,
                    up_done,
                    down_done,
                })
            }
            Err(e) => {
                let l = &self.ingress[dst.index()];
                Err(fault(l, format!("ingress{}", dst.index()), e))
            }
        }
    }

    /// Attaches posted-write credit flow control to every link
    /// direction; subsequent [`RoutedFabric::try_send_credited`] calls
    /// consume from the per-direction pools.
    pub fn with_flow_control(mut self, credits: CreditConfig) -> Self {
        for link in self
            .egress
            .iter_mut()
            .chain(self.ingress.iter_mut())
            .chain(self.up.iter_mut())
            .chain(self.down.iter_mut())
        {
            link.attach_flow_control(CreditTimeline::new(
                credits.account(),
                credits.return_latency,
            ));
        }
        self
    }

    /// Credit-gated [`RoutedFabric::try_send`]: the TLP is admitted
    /// only when *every* traversed link direction has credits for its
    /// `payload` data bytes. On exhaustion nothing is consumed and the
    /// caller gets the earliest retry time; on admission the delivery
    /// time is exactly what `try_send` would return, and each link
    /// schedules its credit return one `UpdateFC` round trip after the
    /// TLP cleared it — so replayed TLPs hold credits until acked.
    ///
    /// # Errors
    ///
    /// [`crate::FabricFault`] when any traversed link declares itself
    /// down.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst`.
    pub fn try_send_credited(
        &mut self,
        at: SimTime,
        src: GpuId,
        dst: GpuId,
        bytes: u64,
        payload: u32,
    ) -> Result<SendOutcome, Box<crate::FabricFault>> {
        assert_ne!(src, dst, "local traffic must not enter the fabric");
        let (src_leaf, dst_leaf) = (self.leaf_of(src), self.leaf_of(dst));
        let crosses_spine =
            matches!(self.topology, Topology::TwoLevel { .. }) && src_leaf != dst_leaf;
        // Phase 1: admission on every traversed direction. Nothing is
        // consumed yet, so a partial route never strands credits.
        let mut until = self.egress[src.index()].fc_earliest(at, payload);
        if crosses_spine {
            until = until.max(self.up[src_leaf].fc_earliest(at, payload));
            until = until.max(self.down[dst_leaf].fc_earliest(at, payload));
        }
        until = until.max(self.ingress[dst.index()].fc_earliest(at, payload));
        if until > at {
            return Ok(SendOutcome::Blocked { until });
        }
        // Phase 2: consume everywhere, then run the shared traversal.
        self.egress[src.index()].fc_consume(at, payload);
        if crosses_spine {
            self.up[src_leaf].fc_consume(at, payload);
            self.down[dst_leaf].fc_consume(at, payload);
        }
        self.ingress[dst.index()].fc_consume(at, payload);
        let route = self.route_transmit(at, src, dst, bytes)?;
        self.egress[src.index()].fc_complete(payload, route.egress_done);
        if let Some(done) = route.up_done {
            self.up[src_leaf].fc_complete(payload, done);
        }
        if let Some(done) = route.down_done {
            self.down[dst_leaf].fc_complete(payload, done);
        }
        self.ingress[dst.index()].fc_complete(payload, route.delivered);
        Ok(SendOutcome::Delivered(route.delivered))
    }

    /// Aggregate flow-control statistics across all link directions
    /// (zeroed when flow control is not attached).
    pub fn fc_stats_total(&self) -> FcStats {
        let mut total = FcStats::default();
        for s in self.all_links().filter_map(Link::fc_stats) {
            total.update_dllps += s.update_dllps;
            total.dllp_bytes += s.dllp_bytes;
            total.blocked_attempts += s.blocked_attempts;
        }
        total
    }

    /// The cumulative credit ledger summed over every link direction,
    /// or `None` when flow control is not attached. Observational.
    pub fn fc_totals_total(&self) -> Option<protocol::CreditTotals> {
        let mut any = false;
        let mut total = protocol::CreditTotals::default();
        for t in self.all_links().filter_map(Link::fc_totals) {
            any = true;
            total.merge(&t);
        }
        any.then_some(total)
    }

    /// `(header, data)` credit units in flight summed over every link
    /// direction; `(0, 0)` when flow control is not attached.
    pub fn fc_in_flight_total(&self) -> (u64, u64) {
        self.all_links()
            .filter_map(Link::fc_in_flight)
            .fold((0, 0), |(h, d), (lh, ld)| (h + lh, d + ld))
    }

    fn all_links(&self) -> impl Iterator<Item = &Link> {
        self.egress
            .iter()
            .chain(self.ingress.iter())
            .chain(self.up.iter())
            .chain(self.down.iter())
    }

    /// Total bytes retransmitted across all link directions.
    pub fn replayed_bytes_total(&self) -> u64 {
        self.all_links()
            .filter_map(Link::dll_stats)
            .map(|s| s.replayed_bytes)
            .sum()
    }

    /// Total link retrains across all link directions.
    pub fn retrains_total(&self) -> u64 {
        self.all_links()
            .filter_map(Link::dll_stats)
            .map(|s| s.retrains)
            .sum()
    }

    /// Quiesces link timing at an iteration barrier.
    pub fn reset_time(&mut self) {
        for l in self
            .egress
            .iter_mut()
            .chain(self.ingress.iter_mut())
            .chain(self.up.iter_mut())
            .chain(self.down.iter_mut())
        {
            l.reset_time();
        }
    }

    /// Total bytes carried by `leaf`'s uplink (diagnostics).
    pub fn uplink_bytes(&self, leaf: usize) -> u64 {
        self.up[leaf].bytes_carried()
    }

    /// Cumulative bytes carried by `gpu`'s egress link, first
    /// transmissions plus replays (the link-utilization integral the
    /// telemetry sampler reads).
    pub fn egress_bytes(&self, gpu: GpuId) -> u64 {
        self.egress[gpu.index()].bytes_carried()
    }

    /// `(header, data)` credit units in flight on `gpu`'s egress link;
    /// `(0, 0)` when flow control is not attached.
    pub fn egress_fc_in_flight(&self, gpu: GpuId) -> (u64, u64) {
        self.egress[gpu.index()].fc_in_flight().unwrap_or((0, 0))
    }

    /// The topology in force.
    pub fn topology(&self) -> Topology {
        self.topology
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bw() -> Bandwidth {
        Bandwidth::from_gbps(32.0)
    }

    #[test]
    fn hop_counts() {
        let t = Topology::TwoLevel { gpus_per_leaf: 4 };
        assert_eq!(t.hops(GpuId::new(0), GpuId::new(3)), 1);
        assert_eq!(t.hops(GpuId::new(0), GpuId::new(4)), 3);
        assert_eq!(Topology::SingleSwitch.hops(GpuId::new(0), GpuId::new(7)), 1);
    }

    #[test]
    fn intra_leaf_matches_single_switch() {
        let mut single = RoutedFabric::new(Topology::SingleSwitch, 8, bw(), SimTime::ZERO);
        let mut two = RoutedFabric::new(
            Topology::TwoLevel { gpus_per_leaf: 4 },
            8,
            bw(),
            SimTime::ZERO,
        );
        let a = single.send(SimTime::ZERO, GpuId::new(0), GpuId::new(1), 32_000);
        let b = two.send(SimTime::ZERO, GpuId::new(0), GpuId::new(1), 32_000);
        assert_eq!(a, b);
    }

    #[test]
    fn uplink_contention_slows_inter_leaf_all_to_all() {
        // Four GPUs on leaf 0 all send to distinct GPUs on leaf 1: their
        // access links are disjoint but the single uplink serializes.
        let mut f = RoutedFabric::new(
            Topology::TwoLevel { gpus_per_leaf: 4 },
            8,
            bw(),
            SimTime::ZERO,
        );
        let mut last = SimTime::ZERO;
        for i in 0..4u8 {
            let done = f.send(SimTime::ZERO, GpuId::new(i), GpuId::new(4 + i), 32_000);
            last = last.max(done);
        }
        // One transfer takes 1us; four through one uplink take ~4us.
        assert!(last >= SimTime::from_us(4), "last={last}");
        assert_eq!(f.uplink_bytes(0), 4 * 32_000);
    }

    #[test]
    fn inter_leaf_pays_extra_hops() {
        let hop = SimTime::from_ns(500);
        let mut f = RoutedFabric::new(Topology::TwoLevel { gpus_per_leaf: 2 }, 4, bw(), hop);
        let intra = f.send(SimTime::ZERO, GpuId::new(0), GpuId::new(1), 32_000);
        f.reset_time();
        let inter = f.send(SimTime::ZERO, GpuId::new(0), GpuId::new(2), 32_000);
        assert_eq!(inter - intra, SimTime::from_ns(1000)); // two extra hops
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn bad_leaf_size_panics() {
        let _ = RoutedFabric::new(
            Topology::TwoLevel { gpus_per_leaf: 3 },
            8,
            bw(),
            SimTime::ZERO,
        );
    }

    #[test]
    fn credited_send_with_generous_pool_matches_open_send() {
        let mut open = RoutedFabric::new(Topology::SingleSwitch, 4, bw(), SimTime::from_ns(500));
        let mut credited =
            RoutedFabric::new(Topology::SingleSwitch, 4, bw(), SimTime::from_ns(500))
                .with_flow_control(CreditConfig::generous());
        for i in 0..8u64 {
            let at = SimTime::from_ns(i * 40);
            let a = open
                .try_send(at, GpuId::new(0), GpuId::new(1), 4120)
                .unwrap();
            let b = credited
                .try_send_credited(at, GpuId::new(0), GpuId::new(1), 4120, 4096)
                .unwrap();
            assert_eq!(b, SendOutcome::Delivered(a), "transfer {i}");
        }
        assert_eq!(credited.fc_stats_total().blocked_attempts, 0);
        // Quiescing (the iteration barrier) applies the in-flight
        // UpdateFC DLLPs the eight TLPs generated.
        credited.reset_time();
        assert!(credited.fc_stats_total().update_dllps > 0);
    }

    #[test]
    fn exhausted_pool_blocks_then_admits_after_credit_return() {
        // One header credit: the second TLP must wait for the first's
        // UpdateFC, which arrives at (delivery + return latency).
        let pool = CreditConfig {
            ph: 1,
            pd: 256,
            return_latency: SimTime::from_ns(100),
            buffer_packets: 8,
        };
        let mut f = RoutedFabric::new(Topology::SingleSwitch, 2, bw(), SimTime::ZERO)
            .with_flow_control(pool);
        let first = match f
            .try_send_credited(SimTime::ZERO, GpuId::new(0), GpuId::new(1), 32_000, 4096)
            .unwrap()
        {
            SendOutcome::Delivered(t) => t,
            SendOutcome::Blocked { .. } => panic!("first TLP must be admitted"),
        };
        let blocked = f
            .try_send_credited(SimTime::ZERO, GpuId::new(0), GpuId::new(1), 32_000, 4096)
            .unwrap();
        // The egress link drained at 1us, the ingress at the delivery
        // time; the pinch is the ingress credit returning at +100ns.
        assert_eq!(
            blocked,
            SendOutcome::Blocked {
                until: first + SimTime::from_ns(100)
            }
        );
        let retry_at = first + SimTime::from_ns(100);
        assert!(matches!(
            f.try_send_credited(retry_at, GpuId::new(0), GpuId::new(1), 32_000, 4096)
                .unwrap(),
            SendOutcome::Delivered(_)
        ));
        assert!(f.fc_stats_total().blocked_attempts > 0);
    }

    #[test]
    fn display() {
        assert_eq!(Topology::SingleSwitch.to_string(), "single-switch");
        assert_eq!(
            Topology::TwoLevel { gpus_per_leaf: 4 }.to_string(),
            "two-level (4 GPUs/leaf)"
        );
    }
}
