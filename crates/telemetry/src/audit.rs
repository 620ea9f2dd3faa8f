//! The conservation auditor: replays the live trace stream against
//! cross-layer conservation laws.
//!
//! FinePack's headline claim is *transparency* — every fine-grained
//! store lands in remote memory exactly once, byte for byte, however
//! the remote write queue merges it, the packetizer frames it, the DLL
//! replays it, or credit flow control stalls it. Four subsystems can
//! each silently break that; the [`AuditCollector`] checks them against
//! each other instead of trusting any one of them:
//!
//! 1. **Byte conservation** — per `(src, dst)` pair, masked bytes
//!    issued ≥ bytes committed at ingress, and globally issued bytes ==
//!    committed bytes + bytes elided as same-address overwrites.
//! 2. **Wire accounting** — every observed [`EventKind::WireTransmit`]
//!    carries exactly the bytes the protocol framing math predicts from
//!    its payload, and end-of-run wire/replay/goodput aggregates
//!    balance, with replay amplification counted once and never as
//!    goodput.
//! 3. **Credit conservation** — posted-header and posted-data credit
//!    units consumed == returned + in flight at end of run, never
//!    negative, never above the advertised pool.
//! 4. **Causal sanity** — spans end after they start, issue-side
//!    timestamps are monotone per GPU, no commit lands before its wire
//!    transmit completes, and flush events match the per-reason flush
//!    counters.
//! 5. **Transparency** — the destination memory images are
//!    byte-identical to a program-order write-through baseline. The
//!    image diff itself needs the memory model and therefore runs in
//!    the system layer, which reports the outcome through
//!    [`AuditCollector::flag`].
//!
//! Like every collector, the auditor only *observes*: it never panics
//! out of `record`, never feeds back into timing, and reports what it
//! found as structured [`Violation`]s after the run.

use std::collections::BTreeMap;

use sim_engine::SimTime;

use crate::collect::TraceCollector;
use crate::event::{EventKind, Sample, TraceEvent};

/// Full violation details retained per law; further violations of the
/// same law are counted but not described (bounded memory, like the
/// ring collector).
const MAX_DETAILS_PER_LAW: usize = 32;

/// The five conservation laws the auditor enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Law {
    /// Issued bytes == committed bytes + overwrite-elided bytes.
    ByteConservation,
    /// Observed wire bytes == protocol framing math.
    WireAccounting,
    /// Credits consumed == returned + in flight, never negative.
    CreditConservation,
    /// Spans well-formed, timestamps monotone, commits after transmits.
    CausalSanity,
    /// Final memory image identical to the write-through baseline.
    Transparency,
}

impl Law {
    /// All laws, in report order.
    pub const ALL: [Law; 5] = [
        Law::ByteConservation,
        Law::WireAccounting,
        Law::CreditConservation,
        Law::CausalSanity,
        Law::Transparency,
    ];

    /// Stable short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Law::ByteConservation => "byte-conservation",
            Law::WireAccounting => "wire-accounting",
            Law::CreditConservation => "credit-conservation",
            Law::CausalSanity => "causal-sanity",
            Law::Transparency => "transparency",
        }
    }

    fn index(self) -> usize {
        match self {
            Law::ByteConservation => 0,
            Law::WireAccounting => 1,
            Law::CreditConservation => 2,
            Law::CausalSanity => 3,
            Law::Transparency => 4,
        }
    }
}

/// One detected conservation violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The law that was broken.
    pub law: Law,
    /// Human-readable description with the numbers that disagree.
    pub detail: String,
}

/// The protocol framing math the auditor recomputes wire bytes from —
/// plain numbers so this crate stays below `protocol` in the
/// dependency order (the system layer copies them out of its
/// `FramingModel`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireMath {
    /// Fixed per-TLP overhead: framing + header + ECRC + DLLP tax.
    pub per_tlp_overhead: u64,
    /// Payload pad granularity (PCIe pads to whole DWs).
    pub pad_granularity: u64,
    /// Maximum payload bytes per TLP; bulk transfers chunk at this.
    pub max_payload: u64,
}

impl WireMath {
    /// Wire bytes of a single TLP carrying `payload` bytes — the same
    /// formula as `protocol::FramingModel::wire_bytes`.
    pub fn wire_bytes(&self, payload: u64) -> u64 {
        self.per_tlp_overhead + payload.div_ceil(self.pad_granularity) * self.pad_granularity
    }

    /// Wire bytes of a bulk transfer chunked into max-payload TLPs —
    /// the same formula as `protocol::FramingModel::bulk_wire_bytes`.
    pub fn bulk_wire_bytes(&self, total_payload: u64) -> u64 {
        if total_payload == 0 {
            return 0;
        }
        let full = total_payload / self.max_payload;
        let rem = total_payload % self.max_payload;
        let mut bytes = full * self.wire_bytes(self.max_payload);
        if rem > 0 {
            bytes += self.wire_bytes(rem);
        }
        bytes
    }
}

/// End-of-run credit ledger, summed over every link direction: the
/// cumulative units moved plus the units still in flight when the run
/// ended.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CreditLedger {
    /// Posted-header units consumed by admitted TLPs.
    pub ph_consumed: u64,
    /// Posted-data units consumed by admitted TLPs.
    pub pd_consumed: u64,
    /// Posted-header units returned by applied `UpdateFC` DLLPs.
    pub ph_returned: u64,
    /// Posted-data units returned by applied `UpdateFC` DLLPs.
    pub pd_returned: u64,
    /// Posted-header units in flight at end of run.
    pub ph_in_flight: u64,
    /// Posted-data units in flight at end of run.
    pub pd_in_flight: u64,
}

/// The run's aggregate counters, fed to [`AuditCollector::finalize`] so
/// the stream-derived sums can be cross-checked against the report the
/// user actually sees. All plain numbers: the system layer copies them
/// out of its `RunReport`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunTotals {
    /// Wire bytes reported by the egress paths (aggregated TLPs).
    pub egress_wire_bytes: u64,
    /// Data bytes reported by the egress paths.
    pub egress_data_bytes: u64,
    /// Packets reported by the egress paths.
    pub egress_packets: u64,
    /// Bytes elided as same-address overwrites in the write queues.
    pub overwritten_bytes: u64,
    /// Wire bytes of bulk DMA transfers (zero for store paradigms).
    pub dma_wire_bytes: u64,
    /// Data bytes of bulk DMA transfers.
    pub dma_data_bytes: u64,
    /// DLL replay bytes reported by the fabric.
    pub replayed_bytes: u64,
    /// The report's useful-traffic bytes (goodput numerator).
    pub traffic_useful: u64,
    /// The report's wasted-data bytes.
    pub traffic_wasted: u64,
    /// The report's protocol-overhead bytes (framing + replays).
    pub traffic_protocol: u64,
    /// Per-reason flush counts as `(label, count)` pairs.
    pub flushes: Vec<(&'static str, u64)>,
    /// End-of-run credit ledger; `None` under open-loop flow control.
    pub credits: Option<CreditLedger>,
}

/// Configuration for an [`AuditCollector`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AuditConfig {
    /// Framing math for per-TLP wire-byte checks; `None` skips the
    /// per-event recomputation (aggregate checks still run).
    pub wire: Option<WireMath>,
    /// Whether issued == committed + overwritten holds exactly. False
    /// for paradigms that legitimately drop stores (GPS unsubscribed
    /// filtering), where only committed + overwritten <= issued holds.
    pub exact_byte_conservation: bool,
    /// Per-link `(PH, PD)` credit pool sizes, for bounding sampled
    /// in-flight counts; `None` under open-loop flow control.
    pub credit_limits: Option<(u64, u64)>,
}

impl AuditConfig {
    /// Strict config: exact byte conservation, no wire math, no
    /// credit limits.
    pub fn new() -> Self {
        AuditConfig {
            wire: None,
            exact_byte_conservation: true,
            credit_limits: None,
        }
    }

    /// Enables per-event wire-byte recomputation with `math`.
    pub fn with_wire_math(mut self, math: WireMath) -> Self {
        self.wire = Some(math);
        self
    }

    /// Bounds sampled credit in-flight counts by the per-link pool.
    pub fn with_credit_limits(mut self, ph: u64, pd: u64) -> Self {
        self.credit_limits = Some((ph, pd));
        self
    }

    /// Relaxes byte conservation to an inequality (paradigms that drop
    /// stores by design).
    pub fn inexact_byte_conservation(mut self) -> Self {
        self.exact_byte_conservation = false;
        self
    }
}

/// A wire transmit awaiting its commit (the runner records them
/// back-to-back per delivered packet).
#[derive(Debug, Clone, Copy)]
struct PendingTransmit {
    src: u8,
    dst: u8,
    payload_bytes: u64,
    done: SimTime,
}

/// Per-GPU last-seen state for monotonicity checks.
#[derive(Debug, Clone, Copy, Default)]
struct SampleClock {
    time: SimTime,
    egress_wire_bytes: u64,
    stall_ps: u64,
    seen: bool,
}

/// A [`TraceCollector`] that checks the event stream against the
/// conservation laws in this module instead of exporting it.
///
/// Lend it to a run like any collector (it is observational: reports
/// are byte-identical with or without it), then call
/// [`AuditCollector::finalize`] with the run's aggregate counters and
/// read back [`AuditCollector::violations`].
///
/// # Examples
///
/// ```
/// use telemetry::{AuditCollector, AuditConfig, RunTotals};
///
/// let mut audit = AuditCollector::new(AuditConfig::new());
/// // ... lend `&mut audit` to a traced run, which records into it ...
/// audit.finalize(&RunTotals::default());
/// assert!(audit.is_clean());
/// ```
#[derive(Debug)]
pub struct AuditCollector {
    config: AuditConfig,
    violations: Vec<Violation>,
    /// Total violations per law, including ones past the detail cap.
    counts: [u64; 5],
    /// Masked bytes issued per (src, dst): stores + atomics.
    issued: BTreeMap<(u8, u8), u64>,
    /// Data bytes committed per (src, dst), attributed via pairing.
    committed: BTreeMap<(u8, u8), u64>,
    /// Sum of wire bytes over aggregated-path transmits (stores > 0).
    wire_sum: u64,
    /// Transmit count over aggregated-path transmits.
    packet_count: u64,
    /// Sum of wire bytes over bulk-DMA transmits (stores == 0).
    dma_wire_sum: u64,
    /// Sum of committed data bytes.
    commit_data_sum: u64,
    /// Sum of DLL replay bytes.
    replay_sum: u64,
    /// Flush events per reason label.
    flush_counts: BTreeMap<&'static str, u64>,
    /// Last issue-track event time per GPU.
    issue_clock: BTreeMap<u8, SimTime>,
    /// Last sample state per GPU.
    sample_clock: BTreeMap<u8, SampleClock>,
    pending: Option<PendingTransmit>,
    finalized: bool,
}

impl AuditCollector {
    /// Creates an auditor with `config`.
    pub fn new(config: AuditConfig) -> Self {
        AuditCollector {
            config,
            violations: Vec::new(),
            counts: [0; 5],
            issued: BTreeMap::new(),
            committed: BTreeMap::new(),
            wire_sum: 0,
            packet_count: 0,
            dma_wire_sum: 0,
            commit_data_sum: 0,
            replay_sum: 0,
            flush_counts: BTreeMap::new(),
            issue_clock: BTreeMap::new(),
            sample_clock: BTreeMap::new(),
            pending: None,
            finalized: false,
        }
    }

    /// Records a violation of `law`. Public so layers with facts the
    /// stream cannot carry (the memory-image transparency diff) can
    /// report through the same channel.
    pub fn flag(&mut self, law: Law, detail: String) {
        self.counts[law.index()] += 1;
        if self.violations.iter().filter(|v| v.law == law).count() < MAX_DETAILS_PER_LAW {
            self.violations.push(Violation { law, detail });
        }
    }

    /// True if no law was violated (call after
    /// [`AuditCollector::finalize`]).
    pub fn is_clean(&self) -> bool {
        self.counts.iter().all(|c| *c == 0)
    }

    /// The retained violation details, in detection order.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Total violations per law (including ones past the detail cap),
    /// in [`Law::ALL`] order.
    pub fn law_counts(&self) -> [u64; 5] {
        self.counts
    }

    /// Panics with the rendered report if any law was violated — the
    /// debug hook for sprinkling audits into existing tests.
    ///
    /// # Panics
    ///
    /// Panics if the auditor holds any violation.
    pub fn assert_clean(&self) {
        assert!(
            self.is_clean(),
            "conservation audit failed\n{}",
            self.render_report()
        );
    }

    /// Renders the per-law report: a count per law plus the retained
    /// details.
    pub fn render_report(&self) -> String {
        let mut out = String::new();
        for law in Law::ALL {
            out.push_str(&format!(
                "{:<20} {}\n",
                law.label(),
                self.counts[law.index()]
            ));
        }
        for v in &self.violations {
            out.push_str(&format!("  [{}] {}\n", v.law.label(), v.detail));
        }
        let detailed = self.violations.len() as u64;
        let total: u64 = self.counts.iter().sum();
        if total > detailed {
            out.push_str(&format!("  ... and {} more\n", total - detailed));
        }
        out
    }

    /// Issue-track monotonicity: events recorded by the main event loop
    /// on one GPU's timeline must carry non-decreasing times.
    fn check_issue_clock(&mut self, gpu: u8, time: SimTime, what: &'static str) {
        let last = self.issue_clock.get(&gpu).copied().unwrap_or(SimTime::ZERO);
        if time < last {
            let detail =
                format!("gpu {gpu}: {what} at {time:?} after an issue-track event at {last:?}");
            self.flag(Law::CausalSanity, detail);
        } else {
            self.issue_clock.insert(gpu, time);
        }
    }

    /// Cross-checks the stream-derived sums against the run's
    /// aggregates and closes the open pairing state. Call exactly once,
    /// after the run completes.
    pub fn finalize(&mut self, totals: &RunTotals) {
        if self.finalized {
            self.flag(
                Law::CausalSanity,
                "finalize called more than once".to_string(),
            );
            return;
        }
        self.finalized = true;

        // Law 4: every aggregated transmit must have committed.
        if let Some(p) = self.pending.take() {
            self.flag(
                Law::CausalSanity,
                format!(
                    "wire transmit {} -> {} ({}B payload) never committed",
                    p.src, p.dst, p.payload_bytes
                ),
            );
        }
        // Law 4: flush events match the per-reason counters.
        for (label, expected) in &totals.flushes {
            let seen = self.flush_counts.get(label).copied().unwrap_or(0);
            if seen != *expected {
                self.flag(
                    Law::CausalSanity,
                    format!("flush '{label}': {seen} events but the report counts {expected}"),
                );
            }
        }
        let unreported: Vec<_> = self
            .flush_counts
            .iter()
            .filter(|(label, _)| !totals.flushes.iter().any(|(l, _)| l == *label))
            .map(|(label, seen)| (*label, *seen))
            .collect();
        for (label, seen) in unreported {
            self.flag(
                Law::CausalSanity,
                format!("flush '{label}': {seen} events for a reason the report lacks"),
            );
        }

        // Law 1: committed bytes can never exceed issued bytes per pair.
        let over_committed: Vec<_> = self
            .committed
            .iter()
            .map(|((src, dst), committed)| {
                let issued = self.issued.get(&(*src, *dst)).copied().unwrap_or(0);
                (*src, *dst, *committed, issued)
            })
            .filter(|(_, _, committed, issued)| committed > issued)
            .collect();
        for (src, dst, committed, issued) in over_committed {
            self.flag(
                Law::ByteConservation,
                format!("pair {src} -> {dst}: committed {committed}B exceeds issued {issued}B"),
            );
        }
        // Law 1, global: issued == committed + overwrite-elided.
        let issued_total: u64 = self.issued.values().sum();
        let committed_total: u64 = self.committed.values().sum();
        let accounted = committed_total + totals.overwritten_bytes;
        if self.config.exact_byte_conservation {
            if issued_total != accounted {
                self.flag(
                    Law::ByteConservation,
                    format!(
                        "issued {issued_total}B != committed {committed_total}B + \
                         overwritten {}B",
                        totals.overwritten_bytes
                    ),
                );
            }
        } else if accounted > issued_total {
            self.flag(
                Law::ByteConservation,
                format!(
                    "committed {committed_total}B + overwritten {}B exceeds issued \
                     {issued_total}B",
                    totals.overwritten_bytes
                ),
            );
        }

        // Law 2: stream sums match the reported aggregates.
        let checks = [
            ("egress wire bytes", self.wire_sum, totals.egress_wire_bytes),
            ("egress packets", self.packet_count, totals.egress_packets),
            (
                "committed data bytes",
                self.commit_data_sum,
                totals.egress_data_bytes,
            ),
            (
                "bulk DMA wire bytes",
                self.dma_wire_sum,
                totals.dma_wire_bytes,
            ),
            ("DLL replay bytes", self.replay_sum, totals.replayed_bytes),
        ];
        for (what, stream, report) in checks {
            if stream != report {
                self.flag(
                    Law::WireAccounting,
                    format!("{what}: {stream} observed on the stream, {report} reported"),
                );
            }
        }
        // Law 2: goodput never includes framing or replays. Useful +
        // wasted must cover exactly the delivered data bytes, and the
        // protocol share must be framing overhead plus replays, each
        // counted once.
        let data_total = totals.egress_data_bytes + totals.dma_data_bytes;
        let goodput_side = totals.traffic_useful + totals.traffic_wasted;
        if goodput_side != data_total {
            self.flag(
                Law::WireAccounting,
                format!(
                    "useful {} + wasted {} != delivered data bytes {data_total}",
                    totals.traffic_useful, totals.traffic_wasted
                ),
            );
        }
        let wire_total = totals.egress_wire_bytes + totals.dma_wire_bytes;
        let expected_protocol = (wire_total - data_total.min(wire_total)) + totals.replayed_bytes;
        if totals.traffic_protocol != expected_protocol {
            self.flag(
                Law::WireAccounting,
                format!(
                    "protocol bytes {}: expected framing {} + replays {} = {expected_protocol}",
                    totals.traffic_protocol,
                    wire_total - data_total.min(wire_total),
                    totals.replayed_bytes
                ),
            );
        }

        // Law 3: the end-of-run credit ledger balances.
        if let Some(c) = &totals.credits {
            if c.ph_returned > c.ph_consumed || c.pd_returned > c.pd_consumed {
                self.flag(
                    Law::CreditConservation,
                    format!(
                        "more credits returned than consumed: PH {}/{}, PD {}/{}",
                        c.ph_returned, c.ph_consumed, c.pd_returned, c.pd_consumed
                    ),
                );
            } else {
                let ph_gap = c.ph_consumed - c.ph_returned;
                let pd_gap = c.pd_consumed - c.pd_returned;
                if ph_gap != c.ph_in_flight || pd_gap != c.pd_in_flight {
                    self.flag(
                        Law::CreditConservation,
                        format!(
                            "consumed - returned (PH {ph_gap}, PD {pd_gap}) != in flight \
                             (PH {}, PD {})",
                            c.ph_in_flight, c.pd_in_flight
                        ),
                    );
                }
            }
        }
    }
}

impl TraceCollector for AuditCollector {
    fn record(&mut self, event: TraceEvent) {
        let TraceEvent { time, gpu, kind } = event;
        match kind {
            EventKind::StoreIssued { dst, bytes } | EventKind::AtomicIssued { dst, bytes } => {
                self.check_issue_clock(gpu, time, "issue");
                *self.issued.entry((gpu, dst)).or_insert(0) += u64::from(bytes);
            }
            EventKind::LoadProbe { .. } => self.check_issue_clock(gpu, time, "load probe"),
            EventKind::RwqInsert { .. } => self.check_issue_clock(gpu, time, "rwq insert"),
            EventKind::Flush { reason } => {
                self.check_issue_clock(gpu, time, "flush");
                *self.flush_counts.entry(reason).or_insert(0) += 1;
            }
            EventKind::Stall { .. } => self.check_issue_clock(gpu, time, "stall"),
            EventKind::FenceRelease => self.check_issue_clock(gpu, time, "fence"),
            EventKind::KernelEnd => self.check_issue_clock(gpu, time, "kernel end"),
            EventKind::WireTransmit {
                dst,
                wire_bytes,
                payload_bytes,
                stores,
                done,
                ..
            } => {
                if done < time {
                    self.flag(
                        Law::CausalSanity,
                        format!("wire span on gpu {gpu} ends at {done:?} before {time:?}"),
                    );
                }
                if stores > 0 {
                    // Aggregated egress path: exactly one commit follows.
                    if let Some(p) = self.pending.replace(PendingTransmit {
                        src: gpu,
                        dst,
                        payload_bytes,
                        done,
                    }) {
                        self.flag(
                            Law::CausalSanity,
                            format!(
                                "wire transmit {} -> {} ({}B payload) never committed",
                                p.src, p.dst, p.payload_bytes
                            ),
                        );
                    }
                    self.wire_sum += wire_bytes;
                    self.packet_count += 1;
                    if let Some(math) = self.config.wire {
                        if payload_bytes > math.max_payload {
                            self.flag(
                                Law::WireAccounting,
                                format!(
                                    "TLP payload {payload_bytes}B exceeds max payload {}B",
                                    math.max_payload
                                ),
                            );
                        }
                        let expected = math.wire_bytes(payload_bytes);
                        if wire_bytes != expected {
                            self.flag(
                                Law::WireAccounting,
                                format!(
                                    "TLP with {payload_bytes}B payload carried \
                                     {wire_bytes}B on the wire; framing math says {expected}B"
                                ),
                            );
                        }
                    }
                } else {
                    // Bulk DMA: chunked at max payload, no commit event.
                    self.dma_wire_sum += wire_bytes;
                    if let Some(math) = self.config.wire {
                        let expected = math.bulk_wire_bytes(payload_bytes);
                        if wire_bytes != expected {
                            self.flag(
                                Law::WireAccounting,
                                format!(
                                    "bulk transfer of {payload_bytes}B carried {wire_bytes}B \
                                     on the wire; framing math says {expected}B"
                                ),
                            );
                        }
                    }
                }
            }
            EventKind::DllReplay { bytes } => self.replay_sum += bytes,
            EventKind::Commit { data_bytes, done } => {
                if done < time {
                    self.flag(
                        Law::CausalSanity,
                        format!("commit span on gpu {gpu} ends at {done:?} before {time:?}"),
                    );
                }
                match self.pending.take() {
                    None => self.flag(
                        Law::CausalSanity,
                        format!("commit of {data_bytes}B on gpu {gpu} without a wire transmit"),
                    ),
                    Some(p) => {
                        if p.dst != gpu {
                            self.flag(
                                Law::CausalSanity,
                                format!(
                                    "commit on gpu {gpu} but the transmit targeted gpu {}",
                                    p.dst
                                ),
                            );
                        }
                        if time < p.done {
                            self.flag(
                                Law::CausalSanity,
                                format!(
                                    "commit at {time:?} before its wire transmit lands at {:?}",
                                    p.done
                                ),
                            );
                        }
                        if data_bytes > p.payload_bytes {
                            self.flag(
                                Law::ByteConservation,
                                format!(
                                    "commit of {data_bytes}B exceeds the TLP payload of {}B",
                                    p.payload_bytes
                                ),
                            );
                        }
                        *self.committed.entry((p.src, gpu)).or_insert(0) += data_bytes;
                        self.commit_data_sum += data_bytes;
                    }
                }
            }
            EventKind::CreditBlocked { until } => {
                if until <= time {
                    self.flag(
                        Law::CausalSanity,
                        format!(
                            "credit block on gpu {gpu} resolves at {until:?}, not after {time:?}"
                        ),
                    );
                }
            }
        }
    }

    fn sample(&mut self, sample: Sample) {
        let clock = self
            .sample_clock
            .get(&sample.gpu)
            .copied()
            .unwrap_or_default();
        if clock.seen {
            if sample.time < clock.time {
                self.flag(
                    Law::CausalSanity,
                    format!(
                        "sample on gpu {} at {:?} after one at {:?}",
                        sample.gpu, sample.time, clock.time
                    ),
                );
            }
            if sample.egress_wire_bytes < clock.egress_wire_bytes
                || sample.stall_ps < clock.stall_ps
            {
                self.flag(
                    Law::CausalSanity,
                    format!("cumulative sample counters decreased on gpu {}", sample.gpu),
                );
            }
        }
        self.sample_clock.insert(
            sample.gpu,
            SampleClock {
                time: sample.time,
                egress_wire_bytes: sample.egress_wire_bytes,
                stall_ps: sample.stall_ps,
                seen: true,
            },
        );
        if let Some((ph, pd)) = self.config.credit_limits {
            if sample.credit_hdrs_in_flight > ph || sample.credit_data_in_flight > pd {
                self.flag(
                    Law::CreditConservation,
                    format!(
                        "gpu {}: credits in flight (PH {}, PD {}) exceed the pool \
                         (PH {ph}, PD {pd}) — a negative-balance wrap",
                        sample.gpu, sample.credit_hdrs_in_flight, sample.credit_data_in_flight
                    ),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time: SimTime, gpu: u8, kind: EventKind) -> TraceEvent {
        TraceEvent { time, gpu, kind }
    }

    fn math() -> WireMath {
        // pcie_gen4 numbers: 24B per-TLP overhead, DW padding, 4KB max.
        WireMath {
            per_tlp_overhead: 24,
            pad_granularity: 4,
            max_payload: 4096,
        }
    }

    /// A minimal consistent run: one store, one flush, one TLP, one
    /// commit.
    fn clean_stream(audit: &mut AuditCollector) {
        let t = SimTime::from_ns;
        audit.record(ev(t(1), 0, EventKind::StoreIssued { dst: 1, bytes: 8 }));
        audit.record(ev(
            t(1),
            0,
            EventKind::RwqInsert {
                dst: 1,
                merged: false,
            },
        ));
        audit.record(ev(t(5), 0, EventKind::Flush { reason: "release" }));
        audit.record(ev(
            t(5),
            0,
            EventKind::WireTransmit {
                dst: 1,
                wire_bytes: 24 + 16,
                payload_bytes: 13, // 8B data + 5B subheader, padded to 16
                stores: 1,
                reason: Some("release"),
                done: t(9),
            },
        ));
        audit.record(ev(
            t(9),
            1,
            EventKind::Commit {
                data_bytes: 8,
                done: t(10),
            },
        ));
    }

    fn clean_totals() -> RunTotals {
        RunTotals {
            egress_wire_bytes: 40,
            egress_data_bytes: 8,
            egress_packets: 1,
            overwritten_bytes: 0,
            traffic_useful: 8,
            traffic_wasted: 0,
            traffic_protocol: 32,
            flushes: vec![("release", 1)],
            ..RunTotals::default()
        }
    }

    #[test]
    fn clean_stream_passes_every_law() {
        let mut audit = AuditCollector::new(AuditConfig::new().with_wire_math(math()));
        clean_stream(&mut audit);
        audit.finalize(&clean_totals());
        assert!(audit.is_clean(), "{}", audit.render_report());
        audit.assert_clean();
    }

    #[test]
    fn wire_bytes_off_by_framing_math_is_flagged() {
        let mut audit = AuditCollector::new(AuditConfig::new().with_wire_math(math()));
        audit.record(ev(
            SimTime::from_ns(1),
            0,
            EventKind::WireTransmit {
                dst: 1,
                wire_bytes: 41, // framing math says 24 + 16 = 40
                payload_bytes: 13,
                stores: 1,
                reason: Some("release"),
                done: SimTime::from_ns(2),
            },
        ));
        assert_eq!(audit.law_counts()[Law::WireAccounting.index()], 1);
        assert!(audit.violations()[0].detail.contains("framing math"));
    }

    #[test]
    fn bulk_dma_uses_the_chunked_formula() {
        let mut audit = AuditCollector::new(AuditConfig::new().with_wire_math(math()));
        let m = math();
        audit.record(ev(
            SimTime::from_ns(1),
            0,
            EventKind::WireTransmit {
                dst: 1,
                wire_bytes: m.bulk_wire_bytes(10_000),
                payload_bytes: 10_000,
                stores: 0,
                reason: None,
                done: SimTime::from_ns(2),
            },
        ));
        let totals = RunTotals {
            dma_wire_bytes: m.bulk_wire_bytes(10_000),
            dma_data_bytes: 10_000,
            traffic_useful: 10_000,
            traffic_protocol: m.bulk_wire_bytes(10_000) - 10_000,
            ..RunTotals::default()
        };
        audit.finalize(&totals);
        assert!(audit.is_clean(), "{}", audit.render_report());
    }

    #[test]
    fn missing_commit_is_a_causality_violation() {
        let mut audit = AuditCollector::new(AuditConfig::new());
        audit.record(ev(
            SimTime::from_ns(1),
            0,
            EventKind::WireTransmit {
                dst: 1,
                wire_bytes: 40,
                payload_bytes: 13,
                stores: 1,
                reason: Some("release"),
                done: SimTime::from_ns(2),
            },
        ));
        let totals = RunTotals {
            egress_wire_bytes: 40,
            egress_packets: 1,
            traffic_protocol: 40,
            ..RunTotals::default()
        };
        audit.finalize(&totals);
        assert_eq!(audit.law_counts()[Law::CausalSanity.index()], 1);
        assert!(!audit.is_clean());
    }

    #[test]
    fn commit_before_transmit_lands_is_flagged() {
        let mut audit = AuditCollector::new(AuditConfig::new());
        audit.record(ev(
            SimTime::from_ns(5),
            0,
            EventKind::WireTransmit {
                dst: 1,
                wire_bytes: 40,
                payload_bytes: 13,
                stores: 1,
                reason: Some("release"),
                done: SimTime::from_ns(9),
            },
        ));
        audit.record(ev(
            SimTime::from_ns(7), // before the TLP lands at 9
            1,
            EventKind::Commit {
                data_bytes: 8,
                done: SimTime::from_ns(8),
            },
        ));
        assert_eq!(audit.law_counts()[Law::CausalSanity.index()], 1);
    }

    #[test]
    fn lost_bytes_break_conservation() {
        let mut audit = AuditCollector::new(AuditConfig::new());
        clean_stream(&mut audit);
        // The report claims 4 overwritten bytes the stream never elided:
        // issued (8) != committed (8) + overwritten (4).
        let mut totals = clean_totals();
        totals.overwritten_bytes = 4;
        audit.finalize(&totals);
        assert_eq!(audit.law_counts()[Law::ByteConservation.index()], 1);
    }

    #[test]
    fn inexact_mode_allows_dropped_stores() {
        let mut audit = AuditCollector::new(AuditConfig::new().inexact_byte_conservation());
        let t = SimTime::from_ns;
        // Two stores issued, only one committed (the other dropped by
        // GPS unsubscribed filtering) — legal under the inequality.
        audit.record(ev(t(1), 0, EventKind::StoreIssued { dst: 1, bytes: 8 }));
        audit.record(ev(t(2), 0, EventKind::StoreIssued { dst: 1, bytes: 8 }));
        audit.record(ev(t(5), 0, EventKind::Flush { reason: "release" }));
        audit.record(ev(
            t(5),
            0,
            EventKind::WireTransmit {
                dst: 1,
                wire_bytes: 40,
                payload_bytes: 13,
                stores: 1,
                reason: Some("release"),
                done: t(9),
            },
        ));
        audit.record(ev(
            t(9),
            1,
            EventKind::Commit {
                data_bytes: 8,
                done: t(10),
            },
        ));
        let totals = RunTotals {
            egress_wire_bytes: 40,
            egress_data_bytes: 8,
            egress_packets: 1,
            traffic_useful: 8,
            traffic_protocol: 32,
            flushes: vec![("release", 1)],
            ..RunTotals::default()
        };
        audit.finalize(&totals);
        assert!(audit.is_clean(), "{}", audit.render_report());
    }

    #[test]
    fn non_monotone_issue_track_is_flagged() {
        let mut audit = AuditCollector::new(AuditConfig::new());
        let t = SimTime::from_ns;
        audit.record(ev(t(10), 0, EventKind::StoreIssued { dst: 1, bytes: 8 }));
        audit.record(ev(t(4), 0, EventKind::StoreIssued { dst: 1, bytes: 8 }));
        // A different GPU's clock is independent.
        audit.record(ev(t(4), 1, EventKind::StoreIssued { dst: 0, bytes: 8 }));
        assert_eq!(audit.law_counts()[Law::CausalSanity.index()], 1);
    }

    #[test]
    fn flush_count_mismatch_is_flagged() {
        let mut audit = AuditCollector::new(AuditConfig::new());
        clean_stream(&mut audit);
        let mut totals = clean_totals();
        totals.flushes = vec![("release", 2)]; // stream saw 1
        audit.finalize(&totals);
        assert_eq!(audit.law_counts()[Law::CausalSanity.index()], 1);
    }

    #[test]
    fn credit_ledger_imbalance_is_flagged() {
        let mut audit = AuditCollector::new(AuditConfig::new());
        clean_stream(&mut audit);
        let mut totals = clean_totals();
        totals.credits = Some(CreditLedger {
            ph_consumed: 10,
            pd_consumed: 40,
            ph_returned: 9,
            pd_returned: 40,
            ph_in_flight: 0, // should be 1
            pd_in_flight: 0,
        });
        audit.finalize(&totals);
        assert_eq!(audit.law_counts()[Law::CreditConservation.index()], 1);
    }

    #[test]
    fn sampled_credit_wrap_is_flagged() {
        let mut audit = AuditCollector::new(AuditConfig::new().with_credit_limits(256, 2048));
        audit.sample(Sample {
            time: SimTime::from_ns(1),
            gpu: 0,
            rwq_entries: 0,
            egress_queue: 0,
            egress_wire_bytes: 0,
            credit_hdrs_in_flight: u64::MAX, // wrapped "negative" balance
            credit_data_in_flight: 0,
            stall_ps: 0,
        });
        assert_eq!(audit.law_counts()[Law::CreditConservation.index()], 1);
    }

    #[test]
    fn external_transparency_flag_reaches_the_report() {
        let mut audit = AuditCollector::new(AuditConfig::new());
        audit.flag(Law::Transparency, "gpu 1 image differs at 0x40".to_string());
        assert!(!audit.is_clean());
        assert!(audit.render_report().contains("transparency"));
        assert!(audit.render_report().contains("0x40"));
    }

    #[test]
    fn detail_cap_keeps_counting() {
        let mut audit = AuditCollector::new(AuditConfig::new());
        for i in 0..(MAX_DETAILS_PER_LAW as u64 + 10) {
            audit.flag(Law::Transparency, format!("v{i}"));
        }
        assert_eq!(
            audit.law_counts()[Law::Transparency.index()],
            MAX_DETAILS_PER_LAW as u64 + 10
        );
        assert_eq!(audit.violations().len(), MAX_DETAILS_PER_LAW);
        assert!(audit.render_report().contains("and 10 more"));
    }
}
