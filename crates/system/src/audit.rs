//! The system-level conservation audit: lends a prepared workload's run
//! a [`telemetry::AuditCollector`], feeds it the run's aggregate
//! counters, and adds the one law the event stream cannot carry — the
//! transparency oracle, a byte-level diff of the destination memory
//! images against a program-order write-through baseline.
//!
//! See the `telemetry::audit` module docs for the laws themselves. This
//! module supplies the facts they are checked against: the protocol
//! framing math (copied out of the [`SystemConfig`]'s `FramingModel`),
//! the fabric's credit ledger, the `RunReport` aggregates, and the
//! functional memory images.

use finepack::FlushReason;
use gpu_model::MemoryImage;
use sim_engine::SimTime;
use telemetry::{AuditCollector, AuditConfig, CreditLedger, Law, RunTotals, Violation, WireMath};

use crate::config::SystemConfig;
use crate::experiment::PreparedWorkload;
use crate::fault::RunError;
use crate::paradigm::Paradigm;
use crate::report::RunReport;
use crate::runner::Runner;

/// Sampling period for the audited run's time-series checks.
const SAMPLE_EVERY: SimTime = SimTime::from_ns(200);

/// The outcome of one audited run: the ordinary report plus everything
/// the auditor found.
#[derive(Debug)]
pub struct AuditOutcome {
    /// The run's report (identical to an un-audited run's).
    pub report: RunReport,
    /// Total violations per law, in [`Law::ALL`] order.
    pub law_counts: [u64; 5],
    /// Retained violation details, in detection order.
    pub violations: Vec<Violation>,
    /// The rendered per-law report.
    pub rendered: String,
}

impl AuditOutcome {
    /// True if every law held.
    pub fn is_clean(&self) -> bool {
        self.law_counts.iter().all(|c| *c == 0)
    }

    /// Panics with the rendered report if any law was violated — the
    /// debug hook for sprinkling audits into existing tests.
    ///
    /// # Panics
    ///
    /// Panics if the audit found any violation.
    pub fn assert_clean(&self) {
        assert!(
            self.is_clean(),
            "conservation audit failed for {} under {}\n{}",
            self.report.workload,
            self.report.paradigm,
            self.rendered
        );
    }
}

/// The auditor configuration matching `cfg` and `paradigm`: the framing
/// math for wire recomputation, the credit pool bounds when the system
/// runs credited, and the byte-conservation mode (GPS legitimately
/// drops unsubscribed stores, so it only gets the inequality).
pub fn audit_config_for(cfg: &SystemConfig, paradigm: Paradigm) -> AuditConfig {
    let mut acfg = AuditConfig::new().with_wire_math(WireMath {
        per_tlp_overhead: u64::from(cfg.framing.per_tlp_overhead()),
        pad_granularity: u64::from(cfg.framing.pad_granularity),
        max_payload: u64::from(cfg.framing.max_payload),
    });
    if let Some(credits) = cfg.flow_control.credits() {
        acfg = acfg.with_credit_limits(u64::from(credits.ph), u64::from(credits.pd));
    }
    if paradigm == Paradigm::Gps {
        acfg = acfg.inexact_byte_conservation();
    }
    acfg
}

/// Runs `prep` under `paradigm` with the conservation auditor attached
/// and every cross-check enabled: stream-vs-report accounting, the
/// fabric's credit ledger, and (for transparent paradigms) the memory
/// image diff against a program-order write-through baseline. A
/// transparency violation counts the differing bytes and names the
/// lowest differing address.
///
/// GPS is audited without the transparency oracle (its subscription
/// filter drops stores by design) and `InfiniteBw` without wire or
/// image checks (it elides transfers analytically).
///
/// # Errors
///
/// Propagates [`RunError`] from the first failing iteration — a run the
/// fabric kills cannot be audited to completion.
pub fn audit_run(
    prep: &PreparedWorkload,
    cfg: &SystemConfig,
    paradigm: Paradigm,
) -> Result<AuditOutcome, RunError> {
    let mut audit = AuditCollector::new(audit_config_for(cfg, paradigm));
    // The transparency oracle needs functional payloads; InfiniteBw
    // never transfers (empty images would trivially mismatch) and GPS
    // drops stores by design, so neither diffs images.
    let diff_images = !matches!(paradigm, Paradigm::InfiniteBw | Paradigm::Gps);
    let mut runner = Runner::new(*cfg, paradigm, prep.gps_unsubscribed(), diff_images);
    runner.attach_trace(&mut audit, Some(SAMPLE_EVERY));
    prep.run_iterations(&mut runner)?;
    // The ledger and images must be read before `finish` consumes the
    // runner. The images move out, so the diff below holds no copy.
    let fc_totals = runner.fc_totals();
    let fc_in_flight = runner.fc_in_flight();
    let images = runner.take_images();
    let report = runner.finish(prep.name(), prep.read_fraction());

    audit.finalize(&run_totals(&report, fc_totals, fc_in_flight));

    if let Some(images) = images {
        let baseline = write_through_images(prep, cfg.num_gpus);
        for (g, (got, want)) in images.iter().zip(&baseline).enumerate() {
            let diff = got.diff(want);
            if let Some(first) = diff.first {
                audit.flag(
                    Law::Transparency,
                    format!(
                        "gpu {g}: final memory image differs from the program-order \
                         write-through baseline in {} bytes, the lowest at {first:#x}",
                        diff.bytes
                    ),
                );
            }
        }
    }

    Ok(AuditOutcome {
        report,
        law_counts: audit.law_counts(),
        violations: audit.violations().to_vec(),
        rendered: audit.render_report(),
    })
}

/// The program-order write-through baseline: every remote store and
/// atomic of every iteration applied directly to its destination's
/// image, in trace order — what a system with no write queue, no
/// packetizer, and no fabric would leave in memory.
fn write_through_images(prep: &PreparedWorkload, num_gpus: u8) -> Vec<MemoryImage> {
    let mut images: Vec<MemoryImage> = (0..num_gpus).map(|_| MemoryImage::new()).collect();
    for iter_runs in prep.runs() {
        for run in iter_runs {
            for t in run.egress.iter().chain(run.atomics.iter()) {
                images[t.store.dst.index()].write_store(&t.store);
            }
        }
    }
    images
}

/// Copies the report's aggregates (and the fabric ledger) into the
/// plain-number [`RunTotals`] the telemetry-layer auditor cross-checks
/// the stream against.
fn run_totals(
    report: &RunReport,
    fc_totals: Option<protocol::CreditTotals>,
    fc_in_flight: (u64, u64),
) -> RunTotals {
    // The BulkDma report folds the DMA legs into the traffic breakdown:
    // data = useful + wasted, and protocol = (wire - data) + replays.
    // Invert that here so the auditor can check each piece; store
    // paradigms carry their wire/data split in the egress metrics.
    let (dma_wire, dma_data) = if report.paradigm == Paradigm::BulkDma {
        let data = report.traffic.useful + report.traffic.wasted;
        (report.traffic.protocol - report.replayed_bytes + data, data)
    } else {
        (0, 0)
    };
    RunTotals {
        egress_wire_bytes: report.egress.wire_bytes,
        egress_data_bytes: report.egress.data_bytes,
        egress_packets: report.egress.packets,
        overwritten_bytes: report.egress.overwritten_bytes,
        dma_wire_bytes: dma_wire,
        dma_data_bytes: dma_data,
        replayed_bytes: if report.paradigm == Paradigm::InfiniteBw {
            0
        } else {
            report.replayed_bytes
        },
        traffic_useful: report.traffic.useful,
        traffic_wasted: report.traffic.wasted,
        traffic_protocol: report.traffic.protocol,
        flushes: FlushReason::ALL
            .iter()
            .enumerate()
            .map(|(i, r)| (r.label(), report.egress.flushes_by_reason[i]))
            .collect(),
        credits: fc_totals.map(|t| CreditLedger {
            ph_consumed: t.ph_consumed,
            pd_consumed: t.pd_consumed,
            ph_returned: t.ph_returned,
            pd_returned: t.pd_returned,
            ph_in_flight: fc_in_flight.0,
            pd_in_flight: fc_in_flight.1,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{Ct, Jacobi, Pagerank, RunSpec, Workload};

    fn audit(app: &dyn Workload, cfg: &SystemConfig, paradigm: Paradigm) -> AuditOutcome {
        let spec = RunSpec::tiny();
        let prep = PreparedWorkload::new(app, cfg, &spec);
        audit_run(&prep, cfg, paradigm).expect("audited run")
    }

    #[test]
    fn every_paradigm_is_clean_on_the_default_config() {
        let cfg = SystemConfig::paper(2);
        for paradigm in Paradigm::ALL {
            audit(&Pagerank::default(), &cfg, paradigm).assert_clean();
        }
    }

    #[test]
    fn open_loop_and_faulty_runs_are_clean() {
        let open = SystemConfig::paper(2).open_loop();
        audit(&Jacobi::default(), &open, Paradigm::FinePack).assert_clean();
        let faulty = SystemConfig::paper(2).with_faults(crate::FaultProfile::new(1e-6));
        audit(&Jacobi::default(), &faulty, Paradigm::FinePack).assert_clean();
        // At 1e-5 the bulk-DMA legs replay too, and their replays must
        // reach the stream like the store paradigms' do.
        let replaying = SystemConfig::paper(2).with_faults(crate::FaultProfile::new(1e-5));
        for paradigm in Paradigm::ALL {
            let outcome = audit(&Jacobi::default(), &replaying, paradigm);
            outcome.assert_clean();
            if paradigm == Paradigm::BulkDma {
                assert!(outcome.report.replayed_bytes > 0, "no DMA replays at 1e-5");
            }
        }
    }

    #[test]
    fn audited_report_matches_unaudited_run() {
        let cfg = SystemConfig::paper(2);
        let spec = RunSpec::tiny();
        let prep = PreparedWorkload::new(&Pagerank::default(), &cfg, &spec);
        let plain = prep.try_run(&cfg, Paradigm::FinePack).expect("plain run");
        let audited = audit_run(&prep, &cfg, Paradigm::FinePack).expect("audited run");
        assert_eq!(format!("{plain:?}"), format!("{:?}", audited.report));
    }

    #[test]
    fn transparency_detail_names_the_differing_bytes() {
        // At paper scale, CT rays from two GPUs write different values
        // to the same voxel bytes. The baseline settles each race by GPU
        // index and the fabric by arrival order, so seven bytes on GPU 0
        // end up different.
        let cfg = SystemConfig::paper(4);
        let prep = PreparedWorkload::new(&Ct::default(), &cfg, &RunSpec::paper(4));
        let outcome = audit_run(&prep, &cfg, Paradigm::FinePack).expect("audited run");
        let details: Vec<&str> = outcome
            .violations
            .iter()
            .filter(|v| v.law == Law::Transparency)
            .map(|v| v.detail.as_str())
            .collect();
        assert_eq!(
            details,
            [
                "gpu 0: final memory image differs from the program-order write-through \
                 baseline in 7 bytes, the lowest at 0x10a501479"
            ]
        );
    }

    #[test]
    fn gps_gets_the_inequality_not_the_oracle() {
        let cfg = SystemConfig::paper(2);
        assert!(!audit_config_for(&cfg, Paradigm::Gps).exact_byte_conservation);
        assert!(audit_config_for(&cfg, Paradigm::FinePack).exact_byte_conservation);
    }

    #[test]
    fn credit_limits_track_the_flow_control_mode() {
        let cfg = SystemConfig::paper(2);
        let credits = cfg.flow_control.credits().expect("credited by default");
        assert_eq!(
            audit_config_for(&cfg, Paradigm::FinePack).credit_limits,
            Some((u64::from(credits.ph), u64::from(credits.pd)))
        );
        assert_eq!(
            audit_config_for(&cfg.open_loop(), Paradigm::FinePack).credit_limits,
            None
        );
    }
}
