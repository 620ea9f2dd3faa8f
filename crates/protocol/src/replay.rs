//! The PCIe data link layer's Ack/Nak retry protocol, closed-loop.
//!
//! FinePack's transparency claim (§IV-A) extends below the transaction
//! layer: an aggregated FinePack TLP is protected by the same LCRC,
//! acknowledged by the same Ack/Nak DLLPs, and replayed from the same
//! replay buffer as any plain memory write. This module models that
//! machinery so the simulator can inject bit errors and show that the
//! final memory image is still byte-identical to a fault-free run — the
//! only observable difference being replayed wire bytes and added
//! latency.
//!
//! The fabric hands a link one TLP at a time and waits until it is
//! acknowledged, so the replay buffer holds that TLP and no other, and
//! [`DataLinkEndpoint::transmit`] runs the PCIe data link layer's loop
//! for it:
//!
//! - 12-bit TLP sequence numbers with modulo-4096 wraparound;
//! - the receiver Acks a TLP whose LCRC verifies, discarding a replay
//!   of one it already holds as a duplicate, and Naks one whose LCRC
//!   fails, which the transmitter replays;
//! - a `REPLAY_TIMER` that replays the TLP when no Ack or Nak arrives
//!   (the DLLP itself was corrupted, or the link is out);
//! - a `REPLAY_NUM` counter that escalates to link retraining after
//!   repeated replays without an Ack.
//!
//! Bit errors are drawn from a [`BitErrorModel`] using the simulator's
//! deterministic RNG, so fault runs replay exactly for a fixed seed.

use std::fmt;

use sim_engine::{DetRng, SimTime};

use crate::dllp::DLLP_WIRE_BYTES;

/// A per-bit error-rate model for a link direction.
///
/// # Examples
///
/// ```
/// use protocol::BitErrorModel;
///
/// let clean = BitErrorModel::new(0.0);
/// assert_eq!(clean.tlp_error_probability(4096), 0.0);
/// let noisy = BitErrorModel::new(1e-6);
/// // A 4KB TLP carries ~32k bits: a few percent of them fail.
/// assert!(noisy.tlp_error_probability(4096) > 0.03);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BitErrorModel {
    ber: f64,
    /// `ln(1 - ber)`: every draw scales it by its bit count, so a TLP
    /// attempt makes one libm call, not two.
    ln_survival: f64,
    /// The probability that a DLLP (an Ack or a Nak) is corrupted. Its
    /// size never changes, so it is computed once.
    dllp_error: f64,
}

impl BitErrorModel {
    /// Creates a model with `ber` errors per transmitted bit.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= ber <= 1`.
    pub fn new(ber: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&ber),
            "bit error rate out of range: {ber}"
        );
        let mut model = BitErrorModel {
            ber,
            ln_survival: f64::ln_1p(-ber),
            dllp_error: 0.0,
        };
        model.dllp_error = model.tlp_error_probability(u64::from(DLLP_WIRE_BYTES));
        model
    }

    /// The configured errors-per-bit rate.
    pub fn ber(&self) -> f64 {
        self.ber
    }

    /// Probability that a transfer of `bytes` bytes suffers at least one
    /// bit error (and so fails its LCRC check).
    pub fn tlp_error_probability(&self, bytes: u64) -> f64 {
        if self.ber <= 0.0 {
            return 0.0;
        }
        if self.ber >= 1.0 {
            return 1.0;
        }
        // 1 - (1-ber)^bits, computed in log space for small rates.
        let bits = (bytes * 8) as f64;
        -f64::exp_m1(bits * self.ln_survival)
    }

    /// Draws whether a transfer of `bytes` bytes is corrupted.
    pub fn corrupts(&self, bytes: u64, rng: &mut DetRng) -> bool {
        rng.chance(self.tlp_error_probability(bytes))
    }

    /// Draws whether a DLLP is corrupted: [`BitErrorModel::corrupts`]
    /// for its wire size, at the probability [`BitErrorModel::new`]
    /// computed.
    fn corrupts_dllp(&self, rng: &mut DetRng) -> bool {
        rng.chance(self.dllp_error)
    }
}

/// Data-link-layer retry parameters.
///
/// Defaults follow PCIe proportions: the replay timer is a few
/// round-trips, REPLAY_NUM escalates after four replays without
/// progress, and retraining costs microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayConfig {
    /// Ack/Nak turnaround: TLP receipt to DLLP arrival back at the
    /// transmitter.
    pub ack_delay: SimTime,
    /// REPLAY_TIMER timeout: replay the TLP if no Ack/Nak arrives.
    pub replay_timer: SimTime,
    /// Replays without forward progress before escalating to retrain
    /// (PCIe's 2-bit REPLAY_NUM rolls over on the fourth).
    pub max_replay_num: u32,
    /// Time the link spends retraining (recovery/LTSSM round-trip).
    pub retrain_time: SimTime,
    /// Consecutive retrains without delivering a TLP before the
    /// endpoint declares the link dead ([`ReplayError::LinkDown`]).
    pub max_consecutive_retrains: u32,
}

impl ReplayConfig {
    /// Defaults proportioned for a PCIe 4.0 x16 link.
    pub fn pcie_gen4() -> Self {
        ReplayConfig {
            ack_delay: SimTime::from_ns(500),
            replay_timer: SimTime::from_us(2),
            max_replay_num: 4,
            retrain_time: SimTime::from_us(20),
            max_consecutive_retrains: 16,
        }
    }
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig::pcie_gen4()
    }
}

/// Errors surfaced by the data link state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayError {
    /// The link failed to deliver a TLP despite repeated retrains —
    /// permanently down as far as the endpoint can tell.
    LinkDown {
        /// Sequence number of the undeliverable TLP.
        seq: u16,
        /// Retrains attempted before giving up.
        retrains: u32,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ReplayError::LinkDown { seq, retrains } = self;
        write!(
            f,
            "link down: TLP seq {seq} undeliverable after {retrains} retrains"
        )
    }
}

impl std::error::Error for ReplayError {}

/// Cumulative per-direction link statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// TLPs handed to the link (each held in the replay buffer until
    /// acknowledged).
    pub tlps_sent: u64,
    /// TLPs acknowledged (delivered exactly once to the receiver).
    pub tlps_delivered: u64,
    /// Total transmissions, including replays.
    pub transmissions: u64,
    /// TLP bytes transmitted the first time.
    pub first_transmission_bytes: u64,
    /// TLP bytes retransmitted (wire traffic that is not goodput).
    pub replayed_bytes: u64,
    /// Ack DLLPs consumed.
    pub acks: u64,
    /// Nak DLLPs consumed.
    pub naks: u64,
    /// Ack/Nak DLLPs lost to bit errors on the return path.
    pub dllps_lost: u64,
    /// REPLAY_TIMER expirations.
    pub timer_expiries: u64,
    /// Link retrains triggered by REPLAY_NUM rollover.
    pub retrains: u64,
    /// DLLP return-path bytes (Acks and Naks, including lost ones).
    pub dllp_bytes: u64,
    /// Duplicate TLPs discarded by the receiver (replays of delivered
    /// TLPs whose Ack was lost).
    pub rx_duplicates: u64,
}

/// The outcome of carrying one TLP across the link, closed-loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkTransfer {
    /// Sequence number the TLP was assigned.
    pub seq: u16,
    /// Transmission attempts (1 = clean first pass).
    pub attempts: u32,
    /// Bytes retransmitted beyond the first attempt.
    pub replayed_bytes: u64,
    /// Retrains incurred while delivering this TLP.
    pub retrains: u32,
    /// Latency added by Naks, timer expiries, and retrains. Zero for a
    /// clean first-pass delivery, so fault-free timing is unchanged.
    pub extra_delay: SimTime,
}

/// One direction of a data-link-layer connection: the transmitter's
/// retry state machine plus a model of the peer's receiver, so the
/// Ack/Nak loop closes inside one object.
///
/// # Examples
///
/// ```
/// use protocol::{BitErrorModel, DataLinkEndpoint, ReplayConfig};
/// use sim_engine::{DetRng, SimTime};
///
/// let mut ep = DataLinkEndpoint::new(
///     ReplayConfig::pcie_gen4(),
///     BitErrorModel::new(0.0),
///     DetRng::new(7, "link0"),
/// );
/// let t = ep.transmit(SimTime::ZERO, 256).unwrap();
/// assert_eq!(t.attempts, 1);
/// assert_eq!(t.extra_delay, SimTime::ZERO);
/// assert_eq!(ep.stats().tlps_delivered, 1);
/// ```
#[derive(Debug, Clone)]
pub struct DataLinkEndpoint {
    cfg: ReplayConfig,
    ber: BitErrorModel,
    rng: DetRng,
    /// Sequence number the next TLP will carry.
    next_seq: u16,
    /// Replays since the last Ack (REPLAY_NUM). A Nak does not reset
    /// it, even one that acknowledges a TLP whose Ack was lost, so the
    /// count can carry into the next TLP.
    replay_num: u32,
    /// Forced-failure window: transmissions inside it are lost outright
    /// (models a transient link outage; the TLP is not Nak'd, the timer
    /// must recover it).
    outage: Option<(SimTime, SimTime)>,
    stats: ReplayStats,
}

impl DataLinkEndpoint {
    /// Creates an idle endpoint.
    pub fn new(cfg: ReplayConfig, ber: BitErrorModel, rng: DetRng) -> Self {
        assert!(cfg.max_replay_num > 0, "REPLAY_NUM must allow one replay");
        DataLinkEndpoint {
            cfg,
            ber,
            rng,
            next_seq: 0,
            replay_num: 0,
            outage: None,
            stats: ReplayStats::default(),
        }
    }

    /// Declares a transmission blackout: attempts in `[from, until)`
    /// are lost without a Nak. `until == SimTime::MAX` models a link
    /// that never comes back (the watchdog's stuck-link case).
    pub fn set_outage(&mut self, from: SimTime, until: SimTime) {
        assert!(from < until, "empty outage window");
        self.outage = Some((from, until));
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &ReplayStats {
        &self.stats
    }

    /// Carries one TLP of `wire_bytes` across the link, simulating the
    /// full closed loop: LCRC corruption draws, Nak-triggered replays,
    /// lost-Ack timer recoveries, and REPLAY_NUM-escalated retrains.
    ///
    /// With a zero bit-error rate and no outage the TLP is delivered on
    /// the first attempt with `extra_delay == ZERO`, so fault-free runs
    /// are bit- and time-identical to a simulation without this layer.
    ///
    /// # Errors
    ///
    /// [`ReplayError::LinkDown`] when the retrain budget is exhausted —
    /// the caller's watchdog should turn this into a diagnostic rather
    /// than retrying forever.
    pub fn transmit(&mut self, now: SimTime, wire_bytes: u64) -> Result<LinkTransfer, ReplayError> {
        let seq = self.next_seq;
        self.next_seq = (seq + 1) % 4096;
        self.stats.tlps_sent += 1;
        self.stats.transmissions += 1;
        self.stats.first_transmission_bytes += wire_bytes;
        let mut xfer = LinkTransfer {
            seq,
            attempts: 1,
            replayed_bytes: 0,
            retrains: 0,
            extra_delay: SimTime::ZERO,
        };
        let mut t = now;
        // When the REPLAY_TIMER was last armed: at the first
        // transmission and at every replay.
        let mut armed = now;
        // Whether the receiver has accepted the TLP; if that Ack is
        // lost, replays reach the receiver as duplicates.
        let mut received = false;
        loop {
            // An attempt inside the outage vanishes: no DLLP comes back.
            // Otherwise the receiver Acks the TLP if its LCRC verifies
            // and Naks it if not, and the DLLP can be lost on the way.
            let in_outage = self
                .outage
                .is_some_and(|(from, until)| t >= from && t < until);
            let mut dllp = None;
            if !in_outage {
                let acked = !self.ber.corrupts(wire_bytes, &mut self.rng);
                if acked && std::mem::replace(&mut received, true) {
                    self.stats.rx_duplicates += 1;
                }
                self.stats.dllp_bytes += u64::from(DLLP_WIRE_BYTES);
                if self.ber.corrupts_dllp(&mut self.rng) {
                    self.stats.dllps_lost += 1;
                } else {
                    dllp = Some(acked);
                }
            }
            if let Some(acked) = dllp {
                t += self.cfg.ack_delay;
                if acked {
                    self.stats.acks += 1;
                    self.replay_num = 0;
                } else {
                    self.stats.naks += 1;
                }
                // A Nak names the last TLP the receiver holds, so it
                // acknowledges this one if only its Ack was lost.
                if received {
                    self.stats.tlps_delivered += 1;
                    if xfer.attempts > 1 {
                        xfer.extra_delay = t.saturating_sub(now + self.cfg.ack_delay);
                    }
                    return Ok(xfer);
                }
            } else {
                // No Ack or Nak: the REPLAY_TIMER expires.
                t = t.max(armed + self.cfg.replay_timer);
                self.stats.timer_expiries += 1;
            }
            // Replay and re-arm the timer; REPLAY_NUM rolls over into a
            // retrain.
            armed = t;
            xfer.attempts += 1;
            xfer.replayed_bytes += wire_bytes;
            self.stats.transmissions += 1;
            self.stats.replayed_bytes += wire_bytes;
            self.replay_num += 1;
            if self.replay_num >= self.cfg.max_replay_num {
                self.replay_num = 0;
                self.stats.retrains += 1;
                xfer.retrains += 1;
                if xfer.retrains > self.cfg.max_consecutive_retrains {
                    return Err(ReplayError::LinkDown {
                        seq,
                        retrains: xfer.retrains,
                    });
                }
                t += self.cfg.retrain_time;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn endpoint(ber: f64) -> DataLinkEndpoint {
        DataLinkEndpoint::new(
            ReplayConfig::pcie_gen4(),
            BitErrorModel::new(ber),
            DetRng::new(0xD11, "dll-test"),
        )
    }

    #[test]
    fn clean_transfer_is_free() {
        let mut ep = endpoint(0.0);
        for i in 0..100u64 {
            let t = ep.transmit(SimTime::from_ns(i * 10), 4096).unwrap();
            assert_eq!(t.attempts, 1);
            assert_eq!(t.replayed_bytes, 0);
            assert_eq!(t.extra_delay, SimTime::ZERO);
        }
        assert_eq!(ep.stats().tlps_delivered, 100);
        assert_eq!(ep.stats().replayed_bytes, 0);
    }

    #[test]
    fn sequence_numbers_wrap_at_4096() {
        let mut ep = endpoint(0.0);
        let seqs: Vec<u16> = (0..4101)
            .map(|_| ep.transmit(SimTime::ZERO, 64).unwrap().seq)
            .collect();
        // 4101 TLPs: the 4097th reuses seq 0.
        assert_eq!(seqs[4095], 4095);
        assert_eq!(&seqs[4096..], &[0, 1, 2, 3, 4]);
        assert_eq!(ep.stats().tlps_delivered, 4101);
    }

    #[test]
    fn replay_num_escalates_to_retrain() {
        // A 4 KB TLP at BER 1e-3 never passes its LCRC, and with this
        // seed no Nak is lost. With no retrain to spare, the link goes
        // down at the first one.
        let cfg = ReplayConfig {
            max_consecutive_retrains: 0,
            ..ReplayConfig::pcie_gen4()
        };
        let mut ep = DataLinkEndpoint::new(
            cfg,
            BitErrorModel::new(1e-3),
            DetRng::new(0xD11, "dll-test"),
        );
        let err = ep.transmit(SimTime::ZERO, 4096).unwrap_err();
        assert_eq!(
            err,
            ReplayError::LinkDown {
                seq: 0,
                retrains: 1
            }
        );
        // Three Naks replay the TLP; the fourth rolls REPLAY_NUM over.
        let s = ep.stats();
        assert_eq!((s.naks, s.timer_expiries), (4, 0));
        assert_eq!((s.transmissions, s.retrains), (5, 1));
    }

    #[test]
    fn progress_resets_replay_num() {
        // Inside the outage the timer replays the TLP at 2, 4 and 6 us,
        // one replay short of a retrain; the 6 us attempt is Acked.
        let mut ep = endpoint(0.0);
        ep.set_outage(SimTime::ZERO, SimTime::from_us(5));
        let t = ep.transmit(SimTime::ZERO, 64).unwrap();
        assert_eq!((t.attempts, t.retrains), (4, 0));
        // The Ack reset REPLAY_NUM: three more replays still do not
        // retrain.
        ep.set_outage(SimTime::from_us(10), SimTime::from_us(15));
        let t = ep.transmit(SimTime::from_us(10), 64).unwrap();
        assert_eq!((t.attempts, t.retrains), (4, 0));
        assert_eq!(ep.stats().retrains, 0);
    }

    #[test]
    fn receiver_acks_in_order_naks_corruption() {
        // At this rate about half the DLLPs are lost and a 1-byte TLP
        // rarely is. With this seed the sixth TLP's Ack is lost: the
        // timer replays it, and the receiver discards the copy as a
        // duplicate and Acks it again.
        let mut ep = endpoint(1e-2);
        for i in 0..5 {
            ep.transmit(SimTime::from_us(100 * i), 1).unwrap();
        }
        let before = *ep.stats();
        let t = ep.transmit(SimTime::from_us(500), 1).unwrap();
        let s = ep.stats();
        assert_eq!(t.attempts, 2);
        assert_eq!(s.dllps_lost - before.dllps_lost, 1);
        assert_eq!(s.rx_duplicates - before.rx_duplicates, 1);
        assert_eq!(s.acks - before.acks, 1);
        assert_eq!(s.tlps_delivered, 6);
    }

    #[test]
    fn nak_for_a_held_tlp_delivers_it_and_keeps_replay_num() {
        // With this seed the TLP's Ack is lost and its replay fails its
        // LCRC: the Nak names the TLP the receiver already holds.
        let cfg = ReplayConfig {
            max_replay_num: 2,
            ..ReplayConfig::pcie_gen4()
        };
        let mut ep =
            DataLinkEndpoint::new(cfg, BitErrorModel::new(1e-3), DetRng::new(20, "dll-test"));
        let t = ep.transmit(SimTime::ZERO, 100).unwrap();
        assert_eq!(t.attempts, 2);
        let s = *ep.stats();
        assert_eq!(
            (s.tlps_delivered, s.acks, s.naks, s.dllps_lost),
            (1, 0, 1, 1)
        );
        // Only an Ack resets REPLAY_NUM, so the next TLP's first replay
        // is the second without one and retrains the link.
        ep.set_outage(SimTime::from_us(100), SimTime::from_us(101));
        let t = ep.transmit(SimTime::from_us(100), 1).unwrap();
        assert_eq!((t.attempts, t.retrains), (2, 1));
    }

    #[test]
    fn bit_errors_force_replays_but_deliver_everything() {
        let mut ep = endpoint(5e-5); // ~15% per 4KB TLP
        let mut replayed = 0u64;
        for i in 0..200u64 {
            let t = ep.transmit(SimTime::from_us(i), 4096).unwrap();
            replayed += t.replayed_bytes;
            if t.attempts > 1 {
                assert!(t.extra_delay > SimTime::ZERO);
            }
        }
        assert_eq!(ep.stats().tlps_delivered, 200);
        assert!(
            replayed > 0,
            "a 5e-5 BER must corrupt something in 200 TLPs"
        );
        assert_eq!(ep.stats().replayed_bytes, replayed);
    }

    #[test]
    fn identical_seeds_replay_identically() {
        let run = || {
            let mut ep = DataLinkEndpoint::new(
                ReplayConfig::pcie_gen4(),
                BitErrorModel::new(1e-5),
                DetRng::new(99, "det"),
            );
            let mut log = Vec::new();
            for i in 0..100u64 {
                let t = ep.transmit(SimTime::from_us(i), 2048).unwrap();
                log.push((t.attempts, t.replayed_bytes, t.extra_delay));
            }
            (log, *ep.stats())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn permanent_outage_declares_link_down() {
        let mut ep = endpoint(0.0);
        ep.set_outage(SimTime::ZERO, SimTime::MAX);
        let err = ep.transmit(SimTime::ZERO, 256).unwrap_err();
        assert!(matches!(err, ReplayError::LinkDown { .. }));
        let msg = err.to_string();
        assert!(msg.contains("link down"), "{msg}");
    }

    #[test]
    fn transient_outage_recovers_via_timer() {
        let mut ep = endpoint(0.0);
        // Out for 5us: a couple of timer-driven replays, then success.
        ep.set_outage(SimTime::ZERO, SimTime::from_us(5));
        let t = ep.transmit(SimTime::ZERO, 256).unwrap();
        assert!(t.attempts > 1);
        assert!(
            t.extra_delay >= SimTime::from_us(4),
            "delay {:?}",
            t.extra_delay
        );
        assert_eq!(ep.stats().tlps_delivered, 1);
        let t = ep.transmit(SimTime::from_us(10), 256).unwrap();
        assert_eq!(t.attempts, 1);
    }

    #[test]
    fn error_probability_is_monotone_in_size() {
        let m = BitErrorModel::new(1e-7);
        let p64 = m.tlp_error_probability(64);
        let p4k = m.tlp_error_probability(4096);
        assert!(p64 < p4k);
        assert!(p4k < 1.0);
        assert!((0.0..1.0).contains(&p64));
        assert_eq!(BitErrorModel::new(1.0).tlp_error_probability(1), 1.0);
    }

    #[test]
    fn stored_log_matches_the_per_attempt_formula() {
        // The probability as each attempt computed it before the model
        // stored `ln_1p(-ber)` and the DLLP probability.
        let formula = |ber: f64, bytes: u64| {
            if ber <= 0.0 {
                return 0.0;
            }
            if ber >= 1.0 {
                return 1.0;
            }
            -f64::exp_m1((bytes * 8) as f64 * f64::ln_1p(-ber))
        };
        for ber in [0.0, 1e-12, 1e-6, 1e-5, 1.0] {
            let m = BitErrorModel::new(ber);
            for bytes in 0..=4200u64 {
                let (got, want) = (m.tlp_error_probability(bytes), formula(ber, bytes));
                assert_eq!(got.to_bits(), want.to_bits(), "ber {ber}, {bytes} B");
            }
            let dllp = formula(ber, u64::from(DLLP_WIRE_BYTES));
            assert_eq!(m.dllp_error.to_bits(), dllp.to_bits(), "ber {ber}");
        }
    }

    #[test]
    fn stats_conserve_bytes() {
        let mut ep = endpoint(1e-5);
        for i in 0..100u64 {
            ep.transmit(SimTime::from_us(i), 1024).unwrap();
        }
        let s = ep.stats();
        assert_eq!(s.first_transmission_bytes, 100 * 1024);
        assert_eq!(s.transmissions, s.tlps_sent + s.replayed_bytes / 1024);
    }
}
