//! The telemetry observer contract: tracing observes, never perturbs.
//! A run's report must be byte-identical whether no collector, a
//! [`telemetry::NullCollector`], or a [`telemetry::RingCollector`] is
//! attached — and the trace's flush events must agree exactly with the
//! run's aggregate flush counters.

use sim_engine::SimTime;
use system::{Paradigm, PreparedWorkload, SystemConfig};
use telemetry::{AuditCollector, EventKind, NullCollector, RingCollector};
use workloads::{suite, RunSpec};

#[test]
fn tracing_never_perturbs_results() {
    let cfg = SystemConfig::paper(2);
    let spec = RunSpec::tiny();
    let every = Some(SimTime::from_ns(100));
    for app in suite() {
        let prep = PreparedWorkload::new(app.as_ref(), &cfg, &spec);
        for p in [Paradigm::BulkDma, Paradigm::P2pStores, Paradigm::FinePack] {
            let plain = prep.try_run(&cfg, p).expect("plain run");
            let null = prep
                .try_run_traced(&cfg, p, &mut NullCollector, every)
                .expect("null-collector run");
            let mut ring = RingCollector::new(1 << 20, 1 << 20);
            let ringed = prep
                .try_run_traced(&cfg, p, &mut ring, every)
                .expect("ring run");
            let rendered = format!("{plain:?}");
            assert_eq!(
                rendered,
                format!("{null:?}"),
                "{} {p}: NullCollector changed the report",
                app.name()
            );
            assert_eq!(
                rendered,
                format!("{ringed:?}"),
                "{} {p}: RingCollector changed the report",
                app.name()
            );
            // The ring run actually recorded something for paradigms
            // with wire traffic — the null run was not a no-op trace.
            if p != Paradigm::InfiniteBw {
                assert!(
                    ring.event_count() > 0,
                    "{} {p}: traced run recorded nothing",
                    app.name()
                );
            }
        }
    }
}

/// The conservation auditor is an observer like any other collector: a
/// run with an [`AuditCollector`] attached (the whole `audit_run`
/// pipeline) must report byte-identically to an untraced run.
#[test]
fn auditing_never_perturbs_results() {
    let cfg = SystemConfig::paper(2);
    let spec = RunSpec::tiny();
    for app in suite() {
        let prep = PreparedWorkload::new(app.as_ref(), &cfg, &spec);
        for p in [Paradigm::BulkDma, Paradigm::P2pStores, Paradigm::FinePack] {
            let plain = prep.try_run(&cfg, p).expect("plain run");
            let mut audit = AuditCollector::new(system::audit_config_for(&cfg, p));
            let audited = prep
                .try_run_traced(&cfg, p, &mut audit, Some(SimTime::from_ns(100)))
                .expect("audited run");
            assert_eq!(
                format!("{plain:?}"),
                format!("{audited:?}"),
                "{} {p}: AuditCollector changed the report",
                app.name()
            );
            let outcome = system::audit_run(&prep, &cfg, p).expect("full audit");
            assert_eq!(
                format!("{plain:?}"),
                format!("{:?}", outcome.report),
                "{} {p}: audit_run changed the report",
                app.name()
            );
            outcome.assert_clean();
        }
    }
}

#[test]
fn flush_event_counts_match_aggregates() {
    let cfg = SystemConfig::paper(2);
    let spec = RunSpec::tiny();
    for app in suite() {
        let prep = PreparedWorkload::new(app.as_ref(), &cfg, &spec);
        let mut collector = RingCollector::new(1 << 22, 16);
        let report = prep
            .try_run_traced(&cfg, Paradigm::FinePack, &mut collector, None)
            .expect("traced run");
        assert_eq!(
            collector.dropped_events(),
            0,
            "{}: ring too small for an exact count comparison",
            app.name()
        );
        for reason in finepack::FlushReason::ALL {
            let in_trace = collector
                .events()
                .filter(|e| matches!(e.kind, EventKind::Flush { reason: r } if r == reason.label()))
                .count() as u64;
            assert_eq!(
                in_trace,
                report.egress.flushes_for(reason),
                "{}: flush `{}` trace/aggregate mismatch",
                app.name(),
                reason.label()
            );
        }
        // Wire transmits match emitted packets one-to-one.
        let transmits = collector
            .events()
            .filter(|e| matches!(e.kind, EventKind::WireTransmit { .. }))
            .count() as u64;
        assert_eq!(transmits, report.egress.packets, "{}", app.name());
    }
}

#[test]
fn iteration_rebase_yields_monotone_global_times() {
    let cfg = SystemConfig::paper(2);
    let mut spec = RunSpec::tiny();
    spec.iterations = 3;
    let app = workloads::Jacobi::default();
    let prep = PreparedWorkload::new(&app, &cfg, &spec);
    let mut collector = RingCollector::new(1 << 22, 1 << 20);
    let report = prep
        .try_run_traced(
            &cfg,
            Paradigm::FinePack,
            &mut collector,
            Some(SimTime::from_ns(50)),
        )
        .expect("traced run");
    // Events from later iterations must sit later on the run-global
    // timeline: every event lands within the run's total simulated time,
    // and kernel-end instants (one per GPU per iteration) are spread
    // beyond any single iteration's span.
    let max_t = collector.events().map(|e| e.time).max().expect("events");
    assert!(
        max_t <= report.total_time,
        "event at {max_t} beyond total {}",
        report.total_time
    );
    let kernel_ends: Vec<SimTime> = collector
        .events()
        .filter(|e| e.kind == EventKind::KernelEnd)
        .map(|e| e.time)
        .collect();
    assert_eq!(
        kernel_ends.len(),
        3 * 2,
        "one kernel-end per GPU per iteration"
    );
    let span = kernel_ends
        .iter()
        .max()
        .unwrap()
        .saturating_sub(*kernel_ends.iter().min().unwrap());
    assert!(
        span.as_ps() > 0,
        "kernel-end events collapsed onto one iteration"
    );
    // Samples are rebased too.
    let max_s = collector.samples().map(|s| s.time).max().expect("samples");
    assert!(max_s <= report.total_time);
}
