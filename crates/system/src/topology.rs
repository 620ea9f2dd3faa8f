//! Switch topologies. The paper's 4-GPU system hangs off a single PCIe
//! switch; larger nodes (its §VI-B 16-GPU projection) realistically use a
//! two-level switch tree, where leaf-to-spine uplinks carry all
//! inter-leaf traffic and become the contended resource for all-to-all
//! patterns.

use gpu_model::GpuId;
use sim_engine::{Bandwidth, SimTime};

use protocol::{CreditTimeline, DataLinkEndpoint, ReplayError};

use crate::config::CreditConfig;
use crate::link::{FcStats, Link};

/// The outcome of a credited send attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// Credits were available on every link of the route; the TLP
    /// landed as [`RoutedFabric::try_send`] would have delivered it.
    Delivered(Delivery),
    /// Some link of the route is out of posted credits; nothing was
    /// consumed or transmitted. Retry at `until`, when the earliest
    /// sufficient `UpdateFC` returns are scheduled to land.
    Blocked {
        /// Earliest time every link of the route can admit the TLP.
        until: SimTime,
    },
}

/// What one delivered transfer cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// When the last byte landed at the destination.
    pub landed: SimTime,
    /// Bytes the data link layer retransmitted on the links of the
    /// route; zero without fault injection.
    pub replayed_bytes: u64,
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

/// The routed fabric: one table of link directions, which every
/// transfer walks hop by hop along its route.
#[derive(Debug, Clone)]
pub struct RoutedFabric {
    /// Every link direction: each GPU's egress, then each GPU's ingress,
    /// then on a two-level tree each leaf's uplink toward the spine and
    /// each leaf's downlink from it.
    links: Vec<Link>,
    num_gpus: usize,
    /// GPUs per leaf switch on a two-level tree; `None` on one switch.
    gpus_per_leaf: Option<usize>,
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
            Topology::SingleSwitch => None,
            Topology::TwoLevel { gpus_per_leaf } => {
                assert!(
                    gpus_per_leaf > 0 && num_gpus.is_multiple_of(gpus_per_leaf),
                    "leaf size {gpus_per_leaf} must divide GPU count {num_gpus}"
                );
                Some(usize::from(gpus_per_leaf))
            }
        };
        let num_gpus = usize::from(num_gpus);
        let leaves = gpus_per_leaf.map_or(0, |per_leaf| num_gpus / per_leaf);
        RoutedFabric {
            links: vec![Link::new(bandwidth); 2 * (num_gpus + leaves)],
            num_gpus,
            gpus_per_leaf,
            hop_latency,
        }
    }

    /// The name of table entry `link`: `egress<gpu>`, `ingress<gpu>`,
    /// `up<leaf>` or `down<leaf>`.
    fn link_name(&self, link: usize) -> String {
        let n = self.num_gpus;
        let leaves = self.links.len() / 2 - n;
        match link {
            i if i < n => format!("egress{i}"),
            i if i < 2 * n => format!("ingress{}", i - n),
            i if i < 2 * n + leaves => format!("up{}", i - 2 * n),
            i => format!("down{}", i - 2 * n - leaves),
        }
    }

    /// Attaches fault injection to every link direction, each with an
    /// independent deterministic RNG stream derived from `seed` and the
    /// link's name. An outage in the profile lands on the nominated
    /// GPU's egress link.
    ///
    /// # Panics
    ///
    /// Panics if the profile is invalid or puts an outage on a GPU the
    /// fabric does not have.
    pub fn with_faults(mut self, profile: crate::FaultProfile, seed: u64) -> Self {
        profile.validate();
        let ber = protocol::BitErrorModel::new(profile.ber);
        for i in 0..self.links.len() {
            let rng = sim_engine::DetRng::new(seed, &format!("dll-{}", self.link_name(i)));
            self.links[i].attach_dll(
                DataLinkEndpoint::new(profile.replay, ber, rng),
                profile.degrade,
            );
        }
        if let Some(o) = profile.outage {
            let gpu = usize::from(o.gpu);
            assert!(
                gpu < self.num_gpus,
                "outage on GPU {gpu}, but the node has {} GPUs",
                self.num_gpus
            );
            self.links[gpu].set_outage(o.from, o.until);
        }
        self
    }

    /// The links a transfer from `src` to `dst` crosses, in order, as
    /// table indices: the source's egress, for an inter-leaf transfer
    /// the source leaf's uplink and the destination leaf's downlink,
    /// then the destination's ingress. The route is the first `len`.
    fn route(&self, src: GpuId, dst: GpuId) -> ([usize; 4], usize) {
        assert_ne!(src, dst, "local traffic must not enter the fabric");
        let n = self.num_gpus;
        let (egress, ingress) = (src.index(), n + dst.index());
        match self.gpus_per_leaf {
            Some(per_leaf) if src.index() / per_leaf != dst.index() / per_leaf => {
                let up = 2 * n + src.index() / per_leaf;
                let down = 2 * n + n / per_leaf + dst.index() / per_leaf;
                ([egress, up, down, ingress], 4)
            }
            _ => ([egress, ingress, 0, 0], 2),
        }
    }

    /// Sends `bytes` from `src` to `dst` starting no earlier than `at`;
    /// returns when the last byte lands at the destination and what the
    /// route replayed.
    ///
    /// The switches are cut-through: each link starts receiving one hop
    /// latency after the link before it starts sending, so an
    /// uncontended transfer is serialized once, while contention on any
    /// link of the route still queues. Through the data link layer,
    /// replayed TLPs cost wire bytes and delay at every stage, and a
    /// stuck link surfaces as an error naming the dead direction.
    ///
    /// # Errors
    ///
    /// [`crate::FabricFault`] when any link of the route declares itself
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
    ) -> Result<Delivery, Box<crate::FabricFault>> {
        let (route, len) = self.route(src, dst);
        self.transmit(at, &route[..len], bytes, None)
    }

    /// Walks `route` with a transfer of `bytes` entering at `at`. With
    /// `credits` (the TLP's payload bytes), each link consumes the TLP's
    /// credits at `at` and schedules their return for when its receiver
    /// drained the TLP, replay penalties included, so a replayed TLP
    /// holds its credits until acked.
    fn transmit(
        &mut self,
        at: SimTime,
        route: &[usize],
        bytes: u64,
        credits: Option<u32>,
    ) -> Result<Delivery, Box<crate::FabricFault>> {
        let last = route.len() - 1;
        let mut landed = at;
        let mut replayed_bytes = 0;
        // When the head reaches the next link, and the earliest the last
        // byte can land: it cannot before it has cleared every upstream
        // link (matters when a degraded link is slower than the ones
        // after it).
        let (mut head, mut floor) = (at, SimTime::ZERO);
        for (hop, &i) in route.iter().enumerate() {
            let link = &mut self.links[i];
            if let Some(payload) = credits {
                link.fc_consume(at, payload);
            }
            let start = head.max(link.busy_until());
            let d = match link.try_transmit(head, bytes) {
                Ok(d) => d,
                Err(error) => return Err(self.fault(i, at, error)),
            };
            replayed_bytes += d.replayed_bytes;
            let drained = if hop == last {
                landed = d.done.max(floor);
                landed
            } else {
                d.done
            };
            if let Some(payload) = credits {
                link.fc_complete(payload, drained);
            }
            head = start + self.hop_latency + d.penalty;
            floor = floor.max(d.done) + self.hop_latency;
        }
        Ok(Delivery {
            landed,
            replayed_bytes,
        })
    }

    /// The diagnostic for table entry `link` dying under a transfer
    /// that entered the fabric at `at`.
    fn fault(&self, link: usize, at: SimTime, error: ReplayError) -> Box<crate::FabricFault> {
        Box::new(crate::FabricFault {
            link: self.link_name(link),
            at,
            error,
            stats: self.links[link].dll_stats().unwrap_or_default(),
        })
    }

    /// Attaches posted-write credit flow control to every link
    /// direction; subsequent [`RoutedFabric::try_send_credited`] calls
    /// consume from the per-direction pools.
    pub fn with_flow_control(mut self, credits: CreditConfig) -> Self {
        for link in &mut self.links {
            link.attach_flow_control(CreditTimeline::new(
                credits.account(),
                credits.return_latency,
            ));
        }
        self
    }

    /// Credit-gated [`RoutedFabric::try_send`]: the TLP is admitted
    /// only when *every* link of its route has credits for its
    /// `payload` data bytes. On exhaustion nothing is consumed and the
    /// caller gets the earliest retry time; on admission the delivery
    /// is exactly what `try_send` would return, and each link schedules
    /// its credit return one `UpdateFC` round trip after the TLP
    /// cleared it — so replayed TLPs hold credits until acked. Without
    /// flow control attached this is `try_send`: it never blocks.
    ///
    /// # Errors
    ///
    /// [`crate::FabricFault`] when any link of the route declares itself
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
        let (route, len) = self.route(src, dst);
        let route = &route[..len];
        // Admission on every link of the route. Nothing is consumed yet,
        // so a partial route never strands credits.
        let mut until = at;
        for &i in route {
            until = until.max(self.links[i].fc_earliest(at, payload));
        }
        if until > at {
            return Ok(SendOutcome::Blocked { until });
        }
        self.transmit(at, route, bytes, Some(payload))
            .map(SendOutcome::Delivered)
    }

    /// Aggregate flow-control statistics across all link directions
    /// (zeroed when flow control is not attached).
    pub fn fc_stats_total(&self) -> FcStats {
        let mut total = FcStats::default();
        for s in self.links.iter().filter_map(Link::fc_stats) {
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
        for t in self.links.iter().filter_map(Link::fc_totals) {
            any = true;
            total.merge(&t);
        }
        any.then_some(total)
    }

    /// `(header, data)` credit units in flight summed over every link
    /// direction; `(0, 0)` when flow control is not attached.
    pub fn fc_in_flight_total(&self) -> (u64, u64) {
        self.links
            .iter()
            .filter_map(Link::fc_in_flight)
            .fold((0, 0), |(h, d), (lh, ld)| (h + lh, d + ld))
    }

    /// Total bytes retransmitted across all link directions.
    pub fn replayed_bytes_total(&self) -> u64 {
        self.links
            .iter()
            .filter_map(Link::dll_stats)
            .map(|s| s.replayed_bytes)
            .sum()
    }

    /// Total link retrains across all link directions.
    pub fn retrains_total(&self) -> u64 {
        self.links
            .iter()
            .filter_map(Link::dll_stats)
            .map(|s| s.retrains)
            .sum()
    }

    /// Quiesces link timing at an iteration barrier.
    pub fn reset_time(&mut self) {
        for link in &mut self.links {
            link.reset_time();
        }
    }

    /// Cumulative bytes carried by `gpu`'s egress link, first
    /// transmissions plus replays (the link-utilization integral the
    /// telemetry sampler reads).
    pub fn egress_bytes(&self, gpu: GpuId) -> u64 {
        self.links[gpu.index()].bytes_carried()
    }

    /// `(header, data)` credit units in flight on `gpu`'s egress link;
    /// `(0, 0)` when flow control is not attached.
    pub fn egress_fc_in_flight(&self, gpu: GpuId) -> (u64, u64) {
        self.links[gpu.index()].fc_in_flight().unwrap_or((0, 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bw() -> Bandwidth {
        Bandwidth::from_gbps(32.0)
    }

    fn single(num_gpus: u8, hop_latency: SimTime) -> RoutedFabric {
        RoutedFabric::new(Topology::SingleSwitch, num_gpus, bw(), hop_latency)
    }

    /// The link named `name` (`egress0`, `ingress3`, `up0`, ...).
    fn link<'f>(f: &'f RoutedFabric, name: &str) -> &'f Link {
        let i = (0..f.links.len())
            .find(|&i| f.link_name(i) == name)
            .unwrap_or_else(|| panic!("no link {name}"));
        &f.links[i]
    }

    #[test]
    fn fabric_couples_ingress() {
        let mut f = single(4, SimTime::ZERO);
        // Two sources target GPU3 simultaneously; ingress serializes.
        let a = f
            .try_send(SimTime::ZERO, GpuId::new(0), GpuId::new(3), 32_000)
            .unwrap()
            .landed;
        let b = f
            .try_send(SimTime::ZERO, GpuId::new(1), GpuId::new(3), 32_000)
            .unwrap()
            .landed;
        assert_eq!(a, SimTime::from_us(1));
        assert_eq!(b, SimTime::from_us(2));
        assert_eq!(link(&f, "ingress3").bytes_carried(), 64_000);
    }

    #[test]
    fn hop_latency_added_once() {
        let mut f = single(2, SimTime::from_ns(500));
        let done = f
            .try_send(SimTime::ZERO, GpuId::new(0), GpuId::new(1), 32_000)
            .unwrap()
            .landed;
        assert_eq!(done, SimTime::from_us(1) + SimTime::from_ns(500));
    }

    #[test]
    #[should_panic(expected = "local traffic")]
    fn self_send_panics() {
        let mut f = single(2, SimTime::ZERO);
        let _ = f.try_send(SimTime::ZERO, GpuId::new(0), GpuId::new(0), 1);
    }

    #[test]
    fn fault_free_dll_is_transparent() {
        use crate::FaultProfile;
        let mut plain = single(2, SimTime::from_ns(500));
        let mut faulty = single(2, SimTime::from_ns(500)).with_faults(FaultProfile::new(0.0), 42);
        for i in 0..4u64 {
            let at = SimTime::from_us(i);
            let a = plain
                .try_send(at, GpuId::new(0), GpuId::new(1), 32_000)
                .unwrap()
                .landed;
            let b = faulty
                .try_send(at, GpuId::new(0), GpuId::new(1), 32_000)
                .unwrap()
                .landed;
            assert_eq!(a, b, "transfer {i} diverged");
        }
        assert_eq!(faulty.replayed_bytes_total(), 0);
        assert_eq!(
            plain.egress_bytes(GpuId::new(0)),
            faulty.egress_bytes(GpuId::new(0))
        );
    }

    #[test]
    fn bit_errors_add_wire_bytes_and_delay() {
        use crate::FaultProfile;
        let mut faulty = single(2, SimTime::ZERO).with_faults(FaultProfile::new(1e-6), 7);
        let mut clean_total = SimTime::ZERO;
        let mut landed = SimTime::ZERO;
        for _ in 0..50 {
            let at = landed;
            landed = faulty
                .try_send(at, GpuId::new(0), GpuId::new(1), 32_000)
                .unwrap()
                .landed;
            clean_total += bw().transfer_time(32_000);
        }
        assert!(faulty.replayed_bytes_total() > 0, "no replays at 1e-6 BER");
        assert!(landed > clean_total, "replays added no time");
        assert_eq!(
            faulty.egress_bytes(GpuId::new(0)),
            50 * 32_000
                + link(&faulty, "egress0")
                    .dll_stats()
                    .map(|s| s.replayed_bytes)
                    .unwrap_or(0)
        );
    }

    #[test]
    fn stuck_link_reports_link_down() {
        use crate::FaultProfile;
        let mut faulty = single(2, SimTime::ZERO)
            .with_faults(FaultProfile::new(0.0).stuck_link(0, SimTime::ZERO), 7);
        let err = faulty
            .try_send(SimTime::ZERO, GpuId::new(0), GpuId::new(1), 4096)
            .unwrap_err();
        assert_eq!(err.link, "egress0");
        assert!(matches!(err.error, protocol::ReplayError::LinkDown { .. }));
        // The reverse direction still works.
        assert!(faulty
            .try_send(SimTime::ZERO, GpuId::new(1), GpuId::new(0), 4096)
            .is_ok());
    }

    #[test]
    fn degraded_link_slows_after_retrain() {
        use crate::FaultProfile;
        let profile = FaultProfile::new(0.0)
            .with_outage(0, SimTime::ZERO, SimTime::from_us(100))
            .with_degrade(0.25);
        let mut faulty = single(2, SimTime::ZERO).with_faults(profile, 7);
        // The outage forces timer recoveries and eventually a retrain;
        // the link comes back at quarter width.
        let first = faulty
            .try_send(SimTime::ZERO, GpuId::new(0), GpuId::new(1), 32_000)
            .unwrap()
            .landed;
        assert!(link(&faulty, "egress0").is_degraded());
        let second = faulty
            .try_send(first, GpuId::new(0), GpuId::new(1), 32_000)
            .unwrap()
            .landed;
        // Post-retrain: 32KB at 8 GB/s is 4us of egress serialization.
        assert!(
            second - first >= SimTime::from_us(4),
            "second={second} first={first}"
        );
    }

    #[test]
    fn reset_clears_time_not_counters() {
        let mut f = single(2, SimTime::ZERO);
        f.try_send(SimTime::ZERO, GpuId::new(0), GpuId::new(1), 32_000)
            .unwrap();
        f.reset_time();
        let done = f
            .try_send(SimTime::ZERO, GpuId::new(0), GpuId::new(1), 32_000)
            .unwrap()
            .landed;
        assert_eq!(done, SimTime::from_us(1));
        assert_eq!(f.egress_bytes(GpuId::new(0)), 64_000);
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
        let a = single
            .try_send(SimTime::ZERO, GpuId::new(0), GpuId::new(1), 32_000)
            .unwrap()
            .landed;
        let b = two
            .try_send(SimTime::ZERO, GpuId::new(0), GpuId::new(1), 32_000)
            .unwrap()
            .landed;
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
            let done = f
                .try_send(SimTime::ZERO, GpuId::new(i), GpuId::new(4 + i), 32_000)
                .unwrap()
                .landed;
            last = last.max(done);
        }
        // One transfer takes 1us; four through one uplink take ~4us.
        assert!(last >= SimTime::from_us(4), "last={last}");
        assert_eq!(link(&f, "up0").bytes_carried(), 4 * 32_000);
    }

    #[test]
    fn inter_leaf_pays_extra_hops() {
        let hop = SimTime::from_ns(500);
        let mut f = RoutedFabric::new(Topology::TwoLevel { gpus_per_leaf: 2 }, 4, bw(), hop);
        let intra = f
            .try_send(SimTime::ZERO, GpuId::new(0), GpuId::new(1), 32_000)
            .unwrap()
            .landed;
        f.reset_time();
        let inter = f
            .try_send(SimTime::ZERO, GpuId::new(0), GpuId::new(2), 32_000)
            .unwrap()
            .landed;
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
        let mut uncredited = open.clone();
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
            // With no credits attached a credited send is an open one.
            let c = uncredited
                .try_send_credited(at, GpuId::new(0), GpuId::new(1), 4120, 4096)
                .unwrap();
            assert_eq!(c, SendOutcome::Delivered(a), "uncredited transfer {i}");
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
            SendOutcome::Delivered(sent) => sent.landed,
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
    #[should_panic(expected = "outage on GPU 4, but the node has 4 GPUs")]
    fn outage_on_a_missing_gpu_panics() {
        // GPU 4 would index ingress0 in the link table.
        use crate::FaultProfile;
        let outage = FaultProfile::new(0.0).with_outage(4, SimTime::ZERO, SimTime::from_us(1));
        let _ = single(4, SimTime::ZERO).with_faults(outage, 7);
    }

    #[test]
    fn each_send_reports_what_its_route_replayed() {
        use crate::FaultProfile;
        let two_level = Topology::TwoLevel { gpus_per_leaf: 2 };
        let mut spine_replayed = 0;
        for ber in [1e-6, 1e-5] {
            for topology in [Topology::SingleSwitch, two_level] {
                for credited in [false, true] {
                    let mut f = RoutedFabric::new(topology, 4, bw(), SimTime::from_ns(100))
                        .with_faults(FaultProfile::new(ber), 11);
                    if credited {
                        f = f.with_flow_control(CreditConfig::paper());
                    }
                    let mut rng = sim_engine::DetRng::new(11, "sends");
                    let mut at = SimTime::ZERO;
                    let mut replayed = 0;
                    for i in 0..1000 {
                        let src = rng.next_u64_below(4) as u8;
                        let dst = (src + 1 + rng.next_u64_below(3) as u8) % 4;
                        let (src, dst) = (GpuId::new(src), GpuId::new(dst));
                        let before = f.replayed_bytes_total();
                        let sent = if credited {
                            match f.try_send_credited(at, src, dst, 4120, 4096).unwrap() {
                                SendOutcome::Delivered(sent) => sent,
                                SendOutcome::Blocked { until } => {
                                    assert_eq!(f.replayed_bytes_total(), before);
                                    at = until;
                                    continue;
                                }
                            }
                        } else {
                            f.try_send(at, src, dst, 4120).unwrap()
                        };
                        let key = format!("{topology}/ber={ber:e}/credited={credited} send {i}");
                        assert_eq!(
                            sent.replayed_bytes,
                            f.replayed_bytes_total() - before,
                            "{key}"
                        );
                        replayed += sent.replayed_bytes;
                        at += SimTime::from_ns(50);
                    }
                    assert!(replayed > 0, "{topology}/ber={ber:e}: nothing replayed");
                    if topology == two_level {
                        for name in ["up0", "up1", "down0", "down1"] {
                            let stats = link(&f, name).dll_stats().expect("faults attached");
                            spine_replayed += stats.replayed_bytes;
                        }
                    }
                }
            }
        }
        assert!(spine_replayed > 0, "no replay on an uplink or downlink");
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
