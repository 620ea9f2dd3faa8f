//! PCIe credit-based flow control for posted writes.
//!
//! §IV-A: "A FinePack augmented PCIe implementation consumes buffers and
//! credits the same way a variable length memory write transaction is
//! currently specified on PCIe without change." This module models that
//! machinery: posted-header (PH) and posted-data (PD) credits, with data
//! credits in 16-byte units, consumed per TLP and released as the
//! receiver drains its buffer.

use std::collections::VecDeque;

use sim_engine::SimTime;

use crate::dllp::{Dllp, DLLP_WIRE_BYTES};

/// PCIe posted-data credit granularity, bytes.
pub const PD_UNIT_BYTES: u32 = 16;

/// A receiver's advertised posted-write credit pool, tracked by the
/// sender.
///
/// # Examples
///
/// ```
/// use protocol::CreditAccount;
///
/// // Enough buffer for one maximum-size posted write.
/// let mut fc = CreditAccount::new(8, 256);
/// assert!(fc.try_consume(4096));
/// assert!(!fc.try_consume(16)); // data credits exhausted
/// fc.release(4096);
/// assert!(fc.try_consume(16));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CreditAccount {
    ph_max: u32,
    pd_max: u32,
    ph_used: u32,
    pd_used: u32,
}

impl CreditAccount {
    /// Creates a pool with `ph` header credits and `pd` 16-byte data
    /// credits.
    ///
    /// # Panics
    ///
    /// Panics if either pool is zero.
    pub fn new(ph: u32, pd: u32) -> Self {
        assert!(ph > 0 && pd > 0, "credit pools must be non-empty");
        CreditAccount {
            ph_max: ph,
            pd_max: pd,
            ph_used: 0,
            pd_used: 0,
        }
    }

    /// A pool sized for the paper's ingress buffer: 64 x 128B.
    pub fn paper_ingress() -> Self {
        CreditAccount::new(64, 64 * 128 / PD_UNIT_BYTES)
    }

    /// Credits one posted write of `payload` bytes consumes:
    /// `(header, data)` pairs.
    pub fn cost(payload: u32) -> (u32, u32) {
        (1, payload.div_ceil(PD_UNIT_BYTES))
    }

    /// True if a posted write of `payload` bytes can be sent now.
    pub fn can_send(&self, payload: u32) -> bool {
        let (ph, pd) = Self::cost(payload);
        self.ph_used + ph <= self.ph_max && self.pd_used + pd <= self.pd_max
    }

    /// Consumes credits for a posted write; returns false (and consumes
    /// nothing) if insufficient.
    pub fn try_consume(&mut self, payload: u32) -> bool {
        if !self.can_send(payload) {
            return false;
        }
        let (ph, pd) = Self::cost(payload);
        self.ph_used += ph;
        self.pd_used += pd;
        true
    }

    /// Releases the credits of a drained posted write.
    ///
    /// # Panics
    ///
    /// Panics if more credits are released than were consumed (a
    /// protocol violation).
    pub fn release(&mut self, payload: u32) {
        let (ph, pd) = Self::cost(payload);
        self.release_units(ph, pd);
    }

    /// Releases raw credit units, as carried by an `UpdateFC` DLLP.
    ///
    /// # Panics
    ///
    /// Panics if more credits are released than were consumed (a
    /// protocol violation).
    pub fn release_units(&mut self, ph: u32, pd: u32) {
        assert!(
            self.ph_used >= ph && self.pd_used >= pd,
            "credit release underflow"
        );
        self.ph_used -= ph;
        self.pd_used -= pd;
    }

    /// Outstanding header credits.
    pub fn headers_in_flight(&self) -> u32 {
        self.ph_used
    }

    /// Outstanding data credits (16B units).
    pub fn data_units_in_flight(&self) -> u32 {
        self.pd_used
    }
}

/// Cumulative credit-unit movement over a [`CreditTimeline`]'s
/// lifetime — the ledger a conservation auditor cross-checks: units
/// consumed must equal units returned plus units still in flight, and
/// consumed can never fall below returned.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CreditTotals {
    /// Posted-header credit units consumed by admitted TLPs.
    pub ph_consumed: u64,
    /// Posted-data credit units (16B each) consumed by admitted TLPs.
    pub pd_consumed: u64,
    /// Posted-header units returned by applied `UpdateFC` DLLPs.
    pub ph_returned: u64,
    /// Posted-data units returned by applied `UpdateFC` DLLPs.
    pub pd_returned: u64,
}

impl CreditTotals {
    /// Accumulates another ledger into this one (summing across links).
    pub fn merge(&mut self, other: &CreditTotals) {
        self.ph_consumed += other.ph_consumed;
        self.pd_consumed += other.pd_consumed;
        self.ph_returned += other.ph_returned;
        self.pd_returned += other.pd_returned;
    }

    /// `(header, data)` units in flight implied by the ledger.
    ///
    /// # Panics
    ///
    /// Panics if more units were returned than consumed — the
    /// conservation violation this ledger exists to expose.
    pub fn in_flight(&self) -> (u64, u64) {
        assert!(
            self.ph_consumed >= self.ph_returned && self.pd_consumed >= self.pd_returned,
            "credit ledger returned more units than it consumed: {self:?}"
        );
        (
            self.ph_consumed - self.ph_returned,
            self.pd_consumed - self.pd_returned,
        )
    }
}

/// Sender-side view of one link direction's posted-write flow control:
/// a [`CreditAccount`] plus the in-flight `UpdateFC` DLLPs that will
/// return credits at known future times.
///
/// Each completed TLP schedules an encoded [`Dllp::UpdateFcPosted`] for
/// arrival one credit-return latency after the receiver drained it; the
/// sender decodes and applies every update whose arrival time has
/// passed before checking admission.
///
/// # Examples
///
/// ```
/// use protocol::{CreditAccount, CreditTimeline};
/// use sim_engine::SimTime;
///
/// let mut tl = CreditTimeline::new(CreditAccount::new(1, 256), SimTime::from_ns(100));
/// let t0 = SimTime::ZERO;
/// assert_eq!(tl.admit(t0, 64), Ok(()));
/// // The single header credit is in flight: a second write must wait
/// // until the UpdateFC lands at drain + return latency.
/// tl.complete(64, SimTime::from_ns(50));
/// assert_eq!(tl.admit(t0, 64), Err(SimTime::from_ns(150)));
/// assert_eq!(tl.admit(SimTime::from_ns(150), 64), Ok(()));
/// ```
#[derive(Debug, Clone)]
pub struct CreditTimeline {
    account: CreditAccount,
    /// In-flight `UpdateFcPosted` credit returns keyed by arrival time,
    /// sorted. Stored post-roundtrip: each entry's counts were encoded
    /// into a wire [`Dllp`] and decoded back at [`CreditTimeline::
    /// complete`] time, so they carry exactly what the wire carries —
    /// without re-decoding on every admission probe.
    pending: VecDeque<(SimTime, u8, u16)>,
    return_latency: SimTime,
    updates_received: u64,
    blocked_attempts: u64,
    totals: CreditTotals,
}

impl CreditTimeline {
    /// Wraps `account` with a modeled `UpdateFC` round-trip latency.
    pub fn new(account: CreditAccount, return_latency: SimTime) -> Self {
        CreditTimeline {
            account,
            pending: VecDeque::new(),
            return_latency,
            updates_received: 0,
            blocked_attempts: 0,
            totals: CreditTotals::default(),
        }
    }

    /// Applies every pending `UpdateFC` that has arrived by `at`.
    fn apply_updates(&mut self, at: SimTime) {
        while let Some((when, ph, pd)) = self.pending.front() {
            if *when > at {
                break;
            }
            let (ph, pd) = (*ph, *pd);
            self.pending.pop_front();
            self.account.release_units(u32::from(ph), u32::from(pd));
            self.totals.ph_returned += u64::from(ph);
            self.totals.pd_returned += u64::from(pd);
            self.updates_received += 1;
        }
    }

    /// Earliest time at or after `at` when a posted write of `payload`
    /// bytes fits the pool, given the scheduled credit returns. Returns
    /// [`SimTime::MAX`] if the pool can never cover it (a config error —
    /// the pool is smaller than one TLP).
    pub fn earliest_admission(&mut self, at: SimTime, payload: u32) -> SimTime {
        self.apply_updates(at);
        if self.account.can_send(payload) {
            return at;
        }
        self.blocked_attempts += 1;
        let mut probe = self.account;
        for (when, ph, pd) in &self.pending {
            probe.release_units(u32::from(*ph), u32::from(*pd));
            if probe.can_send(payload) {
                return *when;
            }
        }
        SimTime::MAX
    }

    /// Consumes credits for a posted write at `at`, or reports the
    /// earliest retry time if the pool is exhausted.
    ///
    /// # Errors
    ///
    /// Returns the earliest admission time when credits are exhausted.
    pub fn admit(&mut self, at: SimTime, payload: u32) -> Result<(), SimTime> {
        self.apply_updates(at);
        if !self.account.try_consume(payload) {
            // Counts the blocked attempt and finds the retry time.
            return Err(self.earliest_admission(at, payload));
        }
        let (ph, pd) = CreditAccount::cost(payload);
        self.totals.ph_consumed += u64::from(ph);
        self.totals.pd_consumed += u64::from(pd);
        Ok(())
    }

    /// Records that the receiver drained a posted write of `payload`
    /// bytes at `drained_at`: its credits travel back as an `UpdateFC`
    /// arriving one return latency later.
    pub fn complete(&mut self, payload: u32, drained_at: SimTime) {
        let (ph, pd) = CreditAccount::cost(payload);
        let ph = u8::try_from(ph).expect("one header per TLP");
        let pd = u16::try_from(pd).expect("12-bit data credits cover max payload");
        // The wire encoding is lossless only for in-range counts (ph
        // fits 8 bits, pd fits 12): enforce the field widths in every
        // build so release behavior can never silently diverge from
        // what `Dllp::encode` would accept on a real link.
        assert!(
            pd < 1 << 12,
            "data credits exceed the 12-bit UpdateFC wire field: {pd}"
        );
        // Debug builds additionally prove the encode/decode round trip.
        debug_assert_eq!(
            Dllp::decode(
                &Dllp::UpdateFcPosted {
                    header_credits: ph,
                    data_credits: pd,
                }
                .encode()
            )
            .expect("self-encoded UpdateFC decodes"),
            Dllp::UpdateFcPosted {
                header_credits: ph,
                data_credits: pd,
            },
            "UpdateFcPosted must round-trip losslessly through the wire"
        );
        let arrival = drained_at + self.return_latency;
        // Per-link drain times are non-decreasing, but hop floors can
        // reorder completions across calls: keep the queue sorted.
        let pos = self
            .pending
            .iter()
            .rposition(|(when, ..)| *when <= arrival)
            .map_or(0, |i| i + 1);
        self.pending.insert(pos, (arrival, ph, pd));
    }

    /// Applies every scheduled credit return immediately (barrier /
    /// iteration reset: the link quiesces and all buffers drain).
    ///
    /// Credits of admitted-but-uncompleted TLPs stay in flight — the
    /// end-of-run `consumed == returned + in_flight` balance is the
    /// auditor's law, not this method's postcondition.
    pub fn quiesce(&mut self) {
        self.apply_updates(SimTime::MAX);
    }

    /// The underlying sender-side credit account.
    pub fn account(&self) -> &CreditAccount {
        &self.account
    }

    /// The cumulative consumed/returned credit ledger. At any instant
    /// the account's in-flight units equal
    /// `totals().in_flight()` — the conservation law audited at the end
    /// of every run.
    pub fn totals(&self) -> &CreditTotals {
        &self.totals
    }

    /// `UpdateFC` DLLPs decoded and applied so far.
    pub fn updates_received(&self) -> u64 {
        self.updates_received
    }

    /// Wire bytes of `UpdateFC` DLLP traffic received so far. Kept out
    /// of the TLP traffic breakdown: DLLPs ride the opposite direction
    /// and would skew the paper's wire-byte accounting.
    pub fn dllp_bytes_received(&self) -> u64 {
        self.updates_received * u64::from(DLLP_WIRE_BYTES)
    }

    /// Admission attempts that found the pool exhausted.
    pub fn blocked_attempts(&self) -> u64 {
        self.blocked_attempts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_matches_pcie_rules() {
        assert_eq!(CreditAccount::cost(1), (1, 1));
        assert_eq!(CreditAccount::cost(16), (1, 1));
        assert_eq!(CreditAccount::cost(17), (1, 2));
        assert_eq!(CreditAccount::cost(4096), (1, 256));
    }

    #[test]
    fn finepack_packet_costs_same_as_plain_write() {
        // The paper's compatibility claim: a FinePack transaction of N
        // payload bytes consumes exactly what a plain MWr of N bytes
        // consumes — nothing FinePack-specific.
        for payload in [64u32, 1000, 4096] {
            assert_eq!(CreditAccount::cost(payload), (1, payload.div_ceil(16)));
        }
    }

    #[test]
    fn exhaustion_and_release() {
        let mut fc = CreditAccount::new(2, 8);
        assert!(fc.try_consume(64)); // 1 PH, 4 PD
        assert!(fc.try_consume(64)); // 2 PH, 8 PD
        assert!(!fc.try_consume(1)); // PH exhausted
        fc.release(64);
        assert!(fc.try_consume(16));
        assert_eq!(fc.headers_in_flight(), 2);
        assert_eq!(fc.data_units_in_flight(), 5);
    }

    #[test]
    fn header_limited_small_writes() {
        // Many tiny writes exhaust headers long before data — the credit-
        // level version of the small-store inefficiency FinePack fixes.
        let mut fc = CreditAccount::paper_ingress();
        let mut sent = 0;
        while fc.try_consume(8) {
            sent += 1;
        }
        assert_eq!(sent, 64, "header credits bind first for 8B writes");
        assert!(fc.data_units_in_flight() < 512 / 4);
    }

    #[test]
    fn one_finepack_packet_replaces_many_headers() {
        // 42 coalesced 8B stores: raw P2P needs 42 header credits; one
        // FinePack packet needs 1 header + the same data volume.
        let mut raw = CreditAccount::paper_ingress();
        for _ in 0..42 {
            assert!(raw.try_consume(8));
        }
        assert_eq!(raw.headers_in_flight(), 42);
        let mut packed = CreditAccount::paper_ingress();
        assert!(packed.try_consume(42 * (5 + 8)));
        assert_eq!(packed.headers_in_flight(), 1);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn over_release_panics() {
        let mut fc = CreditAccount::new(1, 1);
        fc.release(16);
    }

    #[test]
    fn timeline_blocks_until_update_fc_arrives() {
        let mut tl = CreditTimeline::new(CreditAccount::new(2, 8), SimTime::from_ns(10));
        let t0 = SimTime::ZERO;
        assert_eq!(tl.admit(t0, 64), Ok(())); // 1 PH, 4 PD
        assert_eq!(tl.admit(t0, 64), Ok(())); // 2 PH, 8 PD
        tl.complete(64, SimTime::from_ns(5)); // UpdateFC lands at 15ns
        tl.complete(64, SimTime::from_ns(20)); // UpdateFC lands at 30ns
                                               // A 128B write needs both completions' data credits back.
        assert_eq!(tl.admit(t0, 128), Err(SimTime::from_ns(30)));
        // A 64B write only needs the first.
        assert_eq!(tl.admit(SimTime::from_ns(2), 64), Err(SimTime::from_ns(15)));
        assert_eq!(tl.blocked_attempts(), 2);
        assert_eq!(tl.admit(SimTime::from_ns(15), 64), Ok(()));
        assert_eq!(tl.updates_received(), 1);
        assert_eq!(tl.dllp_bytes_received(), u64::from(DLLP_WIRE_BYTES));
    }

    #[test]
    fn totals_ledger_balances_at_every_step() {
        let mut tl = CreditTimeline::new(CreditAccount::new(4, 32), SimTime::from_ns(10));
        assert_eq!(*tl.totals(), CreditTotals::default());
        assert_eq!(tl.admit(SimTime::ZERO, 64), Ok(())); // 1 PH, 4 PD
        assert_eq!(tl.admit(SimTime::ZERO, 17), Ok(())); // 1 PH, 2 PD
        let t = *tl.totals();
        assert_eq!((t.ph_consumed, t.pd_consumed), (2, 6));
        assert_eq!((t.ph_returned, t.pd_returned), (0, 0));
        // The ledger's implied in-flight matches the live account.
        assert_eq!(
            t.in_flight(),
            (
                u64::from(tl.account().headers_in_flight()),
                u64::from(tl.account().data_units_in_flight())
            )
        );
        tl.complete(64, SimTime::from_ns(5)); // UpdateFC at 15ns
                                              // Blocked probes never move the ledger.
        let _ = tl.earliest_admission(SimTime::from_ns(6), 4096);
        assert_eq!(tl.totals().ph_returned, 0);
        tl.quiesce();
        let t = *tl.totals();
        assert_eq!((t.ph_returned, t.pd_returned), (1, 4));
        assert_eq!(t.in_flight(), (1, 2)); // the un-completed 17B write
                                           // Merging sums component-wise.
        let mut sum = CreditTotals::default();
        sum.merge(&t);
        sum.merge(&t);
        assert_eq!(sum.ph_consumed, 2 * t.ph_consumed);
    }

    #[test]
    #[should_panic(expected = "returned more units than it consumed")]
    fn inverted_ledger_is_a_loud_violation() {
        let t = CreditTotals {
            ph_consumed: 1,
            pd_consumed: 1,
            ph_returned: 2,
            pd_returned: 1,
        };
        let _ = t.in_flight();
    }

    #[test]
    fn timeline_quiesce_returns_all_credits() {
        let mut tl = CreditTimeline::new(CreditAccount::paper_ingress(), SimTime::from_ns(500));
        for i in 0..64 {
            assert_eq!(tl.admit(SimTime::ZERO, 8), Ok(()));
            tl.complete(8, SimTime::from_ns(i));
        }
        assert_eq!(tl.account().headers_in_flight(), 64);
        tl.quiesce();
        assert_eq!(tl.account().headers_in_flight(), 0);
        assert_eq!(tl.account().data_units_in_flight(), 0);
        assert_eq!(tl.updates_received(), 64);
    }

    #[test]
    fn out_of_order_completions_admit_as_in_order_ones() {
        // Hop floors can file a link's credit returns out of arrival
        // order; the timeline must then behave as if they came in order.
        let mut rng = sim_engine::DetRng::new(0xFC, "credit-reorder");
        for _ in 0..200 {
            let n = rng.next_in_range(2, 40) as usize;
            let done: Vec<(u32, SimTime)> = (0..n)
                .map(|_| {
                    let payload = rng.next_in_range(1, 257) as u32;
                    (payload, SimTime::from_ns(rng.next_u64_below(300)))
                })
                .collect();
            let mut in_order = done.clone();
            in_order.sort_by_key(|&(_, t)| t);
            let mut timelines = [&in_order, &done].map(|filed| {
                let mut tl = CreditTimeline::new(CreditAccount::new(40, 640), SimTime::from_ns(50));
                for &(payload, drained) in filed {
                    assert_eq!(tl.admit(SimTime::ZERO, payload), Ok(()));
                    tl.complete(payload, drained);
                }
                tl
            });
            let mut at = SimTime::ZERO;
            while at < SimTime::from_ns(400) {
                let payload = rng.next_in_range(1, 4097) as u32;
                let got = timelines.each_mut().map(|tl| tl.admit(at, payload));
                assert_eq!(got[0], got[1], "{payload}B at {at}");
                if got[0].is_ok() {
                    for tl in &mut timelines {
                        tl.complete(payload, at + SimTime::from_ns(5));
                    }
                }
                at += SimTime::from_ns(rng.next_u64_below(20));
            }
            let [a, b] = &timelines;
            assert!(a.blocked_attempts() > 0);
            assert_eq!(a.blocked_attempts(), b.blocked_attempts());
            assert_eq!(a.updates_received(), b.updates_received());
            assert_eq!(a.totals(), b.totals());
        }
    }

    #[test]
    fn timeline_pool_smaller_than_tlp_never_admits() {
        let mut tl = CreditTimeline::new(CreditAccount::new(1, 4), SimTime::ZERO);
        assert_eq!(tl.earliest_admission(SimTime::ZERO, 4096), SimTime::MAX);
    }
}
