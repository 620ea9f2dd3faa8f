//! Golden-output gate: every suite app and collective under every
//! paradigm and both flow-control regimes, plus jacobi and pagerank
//! under every store paradigm at a bit-error rate, and five apps on a
//! two-level switch tree, must reproduce its
//! committed `RunReport::canonical_json` byte for byte, every budget
//! trip its diagnostic, every registered experiment its rendered
//! report, eight traced points their event stream, and the data link
//! layer its transfers, alone and under the CLI's fault profiles. A
//! refactor that claims "no result moves" is held to it here.
//!
//! On a mismatch the test writes what it got under
//! `target/golden-actual/` and its failure message prints the `cp` that
//! re-blesses the golden file, for when the change is intended.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use protocol::{BitErrorModel, DataLinkEndpoint, ReplayConfig, ReplayError, ReplayStats};
use sim_engine::{DetRng, SimTime};
use system::{FaultProfile, Paradigm, PreparedWorkload, RunBudget, SystemConfig, Topology};
use telemetry::{EventKind, RingCollector, Sample, TraceEvent};
use workloads::{CollectiveTuning, RunSpec, Workload};

const GPUS: u8 = 4;
const ITERATIONS: u32 = 2;
/// Small enough that the whole gate stays a few seconds in a debug
/// build, large enough that credits block and RWQs flush every way.
const SCALE_DOWN: u32 = 64;

fn spec() -> RunSpec {
    let mut spec = RunSpec::paper(GPUS);
    spec.iterations = ITERATIONS;
    spec.scale_down = SCALE_DOWN;
    spec
}

/// `cfg` in the two flow-control regimes, keyed as the CLI names them.
fn regimes(cfg: SystemConfig) -> [(&'static str, SystemConfig); 2] {
    [("open", cfg.open_loop()), ("credited", cfg)]
}

/// One `key json` line per (app, paradigm, regime) point on `cfg`.
fn render(apps: &[Box<dyn Workload>], cfg: SystemConfig) -> String {
    let spec = spec();
    let mut out = String::new();
    for app in apps {
        // Trace replay depends only on the GPU count, not on the flow
        // control regime: prepare once per app.
        let prep = PreparedWorkload::new(app.as_ref(), &cfg, &spec);
        for p in Paradigm::ALL {
            for (fc, cfg) in regimes(cfg) {
                let report = prep.run(&cfg, p);
                let _ = writeln!(out, "{}/{p}/{fc} {}", app.name(), report.canonical_json());
            }
        }
    }
    out
}

/// One `key json` line per (app, store paradigm, regime) point on `cfg`
/// at BER 1e-5.
fn render_faulted(apps: &[Box<dyn Workload>], cfg: SystemConfig) -> String {
    let fault = FaultProfile::new(1e-5);
    let mut out = String::new();
    for app in apps {
        let prep = PreparedWorkload::new(app.as_ref(), &cfg, &spec());
        for p in Paradigm::ALL.into_iter().filter(|p| p.uses_stores()) {
            for (fc, cfg) in regimes(cfg) {
                let report = prep.run(&cfg.with_faults(fault), p);
                let _ = writeln!(
                    out,
                    "{}/{p}/{fc}/ber=1e-5 {}",
                    app.name(),
                    report.canonical_json()
                );
            }
        }
    }
    out
}

/// Compares `actual` with `tests/golden/<name>`; on a mismatch saves
/// `actual` beside the build outputs and fails with the bless command.
fn check(name: &str, actual: &str) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let golden = root.join("tests/golden").join(name);
    let expected = std::fs::read_to_string(&golden).unwrap_or_default();
    if expected == actual {
        return;
    }
    let dir: PathBuf = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .parent()
        .expect("the temp dir lives inside the target dir")
        .join("golden-actual");
    std::fs::create_dir_all(&dir).expect("create golden-actual dir");
    let saved = dir.join(name);
    std::fs::write(&saved, actual).expect("write actual output");
    let first_diff = expected
        .lines()
        .zip(actual.lines())
        .find(|(e, a)| e != a)
        .map(|(e, a)| format!("first differing line:\n  expected {e}\n  actual   {a}"))
        .unwrap_or_else(|| "line counts differ".to_string());
    let rel = |p: &Path| p.strip_prefix(root).unwrap_or(p).display().to_string();
    panic!(
        "{name} differs from its golden file; {first_diff}\n\
         if the change is intended, re-bless with:\n  cp {} {}",
        rel(&saved),
        rel(&golden)
    );
}

#[test]
fn suite_reports_match_golden() {
    check(
        "suite.txt",
        &render(&workloads::suite(), SystemConfig::paper(GPUS)),
    );
}

#[test]
fn collective_reports_match_golden() {
    check(
        "collectives.txt",
        &render(
            &workloads::collectives_suite(&CollectiveTuning::default()),
            SystemConfig::paper(GPUS),
        ),
    );
}

/// Jacobi and pagerank under every store paradigm and both regimes at
/// BER 1e-5: the data-link replay path, and under credits (pagerank)
/// stalls, credit blocks and replays together.
#[test]
fn faulted_report_matches_golden() {
    let apps: [Box<dyn Workload>; 2] = [
        Box::new(workloads::Jacobi::default()),
        Box::new(workloads::Pagerank::default()),
    ];
    check(
        "faulted.txt",
        &render_faulted(&apps, SystemConfig::paper(GPUS)),
    );
}

/// Four GPUs on two leaf switches of two: half of every all-to-all
/// pattern crosses a leaf uplink and the spine's downlink. Five apps
/// under every paradigm in both regimes, then under every store
/// paradigm at BER 1e-5, so the uplinks' and downlinks' hop latency,
/// credit returns and replays (`up0`, `down1`) are pinned.
#[test]
fn two_level_reports_match_golden() {
    let cfg = SystemConfig::paper(GPUS).with_topology(Topology::TwoLevel { gpus_per_leaf: 2 });
    let tuning = CollectiveTuning::default();
    let apps: [Box<dyn Workload>; 5] = [
        Box::new(workloads::Pagerank::default()),
        Box::new(workloads::Sssp::default()),
        Box::new(workloads::Hit::default()),
        workloads::collective("alltoall", &tuning).expect("registered"),
        workloads::collective("tree-allreduce", &tuning).expect("registered"),
    ];
    let out = render(&apps, cfg) + &render_faulted(&apps, cfg);
    check("two_level.txt", &out);
}

/// Pagerank on 2 GPUs, credited, under every store paradigm with an
/// event ceiling of 3000 and with a progress watchdog of 2: a tripped
/// budget prints the runner's diagnostic, including how many events
/// were still pending, and a budget that holds prints the report.
#[test]
fn budget_trips_match_golden() {
    let spec = RunSpec {
        iterations: 1,
        scale_down: 16,
        ..RunSpec::paper(2)
    };
    let cfg = SystemConfig::paper(2);
    let prep = PreparedWorkload::new(&workloads::Pagerank::default(), &cfg, &spec);
    let budgets = [
        ("events=3000", RunBudget::unlimited().with_max_events(3000)),
        ("stall=2", RunBudget::unlimited().with_progress_watchdog(2)),
    ];
    let mut out = String::new();
    for (name, budget) in budgets {
        for p in Paradigm::ALL.into_iter().filter(|p| p.uses_stores()) {
            let line = match prep.try_run(&cfg.with_run_budget(budget), p) {
                Ok(report) => report.canonical_json(),
                Err(e) => e.to_string(),
            };
            let _ = writeln!(out, "pagerank/{p}/credited/{name} {line}");
        }
    }
    check("budget.txt", &out);
}

/// FNV-1a, 64-bit: a stable digest of an exported trace or a log of
/// results.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The key an event is counted under: its label, with RWQ inserts that
/// merged into a buffered entry counted apart.
fn count_key(kind: &EventKind) -> &'static str {
    match kind {
        EventKind::RwqInsert { merged: true, .. } => "rwq-merge",
        k => k.label(),
    }
}

/// The trace stream of eight points, two iterations each so the
/// per-iteration time base is pinned: per point, its event counts by
/// label, its sample count, and digests of the Chrome and CSV exports.
/// Together the points record every kind of event.
#[test]
fn traces_match_golden() {
    let spec = RunSpec {
        iterations: 2,
        scale_down: 16,
        ..RunSpec::paper(2)
    };
    let credited = SystemConfig::paper(2);
    let ber = FaultProfile::new(1e-5);
    let pagerank = PreparedWorkload::new(&workloads::Pagerank::default(), &credited, &spec);
    let als = PreparedWorkload::new(&workloads::Als::default(), &credited, &spec);
    // Loads and atomics often enough, in regions small enough, that
    // both hit a buffered store.
    let synthetic = workloads::Synthetic::builder()
        .load_fraction(0.2)
        .atomic_fraction(0.2)
        .region_bytes(128 << 10)
        .build();
    let synthetic = PreparedWorkload::new(&synthetic, &credited, &spec);
    let points = [
        (&pagerank, Paradigm::FinePack, "credited", credited),
        (
            &pagerank,
            Paradigm::FinePack,
            "open/ber=1e-5",
            credited.open_loop().with_faults(ber),
        ),
        (&pagerank, Paradigm::P2pStores, "credited", credited),
        (&pagerank, Paradigm::WriteCombining, "credited", credited),
        (&pagerank, Paradigm::Gps, "credited", credited),
        (
            &pagerank,
            Paradigm::BulkDma,
            "credited/ber=1e-5",
            credited.with_faults(ber),
        ),
        (&als, Paradigm::FinePack, "credited", credited),
        (&synthetic, Paradigm::FinePack, "credited", credited),
    ];
    // Event labels and flush reasons recorded by any point.
    let mut seen = std::collections::BTreeSet::new();
    let mut out = String::new();
    for (prep, p, regime, cfg) in points {
        let mut ring = RingCollector::new(1 << 20, 1 << 20);
        prep.try_run_traced(&cfg, p, &mut ring, Some(SimTime::from_ns(100)))
            .expect("traced run");
        let dropped = ring.dropped_events() + ring.dropped_samples();
        assert_eq!(
            dropped,
            0,
            "{}/{p}/{regime}: the ring overflowed",
            prep.name()
        );
        let events: Vec<TraceEvent> = ring.events().copied().collect();
        let samples: Vec<Sample> = ring.samples().copied().collect();
        let mut counts = std::collections::BTreeMap::new();
        for e in &events {
            *counts.entry(count_key(&e.kind)).or_insert(0u64) += 1;
            seen.insert(e.kind.label());
            if let EventKind::Flush { reason } = e.kind {
                seen.insert(reason);
            }
        }
        let _ = write!(out, "{}/{p}/{regime}", prep.name());
        for (key, n) in counts {
            let _ = write!(out, " {key}={n}");
        }
        let _ = writeln!(
            out,
            " samples={} dropped={dropped} chrome={:016x} csv={:016x}",
            samples.len(),
            fnv1a64(telemetry::chrome_trace(&events, &samples).as_bytes()),
            fnv1a64(telemetry::time_series_csv(&samples).as_bytes()),
        );
    }
    let every_kind = [
        EventKind::StoreIssued { dst: 0, bytes: 0 },
        EventKind::AtomicIssued { dst: 0, bytes: 0 },
        EventKind::LoadProbe { dst: 0 },
        EventKind::RwqInsert {
            dst: 0,
            merged: false,
        },
        EventKind::Flush { reason: "" },
        EventKind::WireTransmit {
            dst: 0,
            wire_bytes: 0,
            payload_bytes: 0,
            stores: 0,
            reason: None,
            done: SimTime::ZERO,
        },
        EventKind::DllReplay { bytes: 0 },
        EventKind::Commit {
            data_bytes: 0,
            done: SimTime::ZERO,
        },
        EventKind::CreditBlocked {
            until: SimTime::ZERO,
        },
        EventKind::Stall {
            duration: SimTime::ZERO,
        },
        EventKind::FenceRelease,
        EventKind::KernelEnd,
    ];
    for kind in every_kind {
        assert!(
            seen.contains(kind.label()),
            "no point records a `{}` event",
            kind.label()
        );
    }
    for reason in ["load-hit", "atomic-hit"] {
        assert!(seen.contains(reason), "no point flushes on a {reason}");
    }
    check("traces.txt", &out);
}

/// The data link layer on its own and through the fabric. Each endpoint
/// line sends 2,000 seeded TLPs of 20–4,116 bytes, 50 ns apart, under
/// one bit-error rate, outage and retry config, and holds how many were
/// delivered before the first error, a digest of every `transmit`
/// result, the final statistics and the error. Each system line runs
/// pagerank on 2 GPUs, credited, under a paradigm that transfers data
/// and a fault profile, and holds its report or its run error.
#[test]
fn data_link_matches_golden() {
    // Under this seed some lines deliver a TLP by a Nak after its Ack was
    // lost, which leaves REPLAY_NUM standing, and carry the count into a
    // TLP that then retrains sooner, so the lines pin that rule; under
    // about two seeds in three no line reaches that case.
    const SEED: u64 = 244;
    let configs = [
        ("gen4", ReplayConfig::pcie_gen4()),
        (
            "replay2-retrain1",
            ReplayConfig {
                max_replay_num: 2,
                max_consecutive_retrains: 1,
                ..ReplayConfig::pcie_gen4()
            },
        ),
    ];
    let outages = [
        ("none", None),
        ("5-60us", Some((SimTime::from_us(5), SimTime::from_us(60)))),
        ("stuck@50us", Some((SimTime::from_us(50), SimTime::MAX))),
    ];
    let mut total = ReplayStats::default();
    let mut link_downs = 0;
    let mut out = String::new();
    for ber in [0.0, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2] {
        for (outage_name, outage) in outages {
            for (cfg_name, cfg) in configs {
                let mut ep = DataLinkEndpoint::new(
                    cfg,
                    BitErrorModel::new(ber),
                    DetRng::new(SEED, "dll-golden"),
                );
                if let Some((from, until)) = outage {
                    ep.set_outage(from, until);
                }
                let mut sizes = DetRng::new(SEED, "tlp-sizes");
                let mut results = String::new();
                let mut delivered = 0;
                let mut error = None;
                for i in 0..2000 {
                    let bytes = sizes.next_in_range(20, 4117);
                    let result = ep.transmit(SimTime::from_ns(50 * i), bytes);
                    let _ = writeln!(results, "{result:?}");
                    match result {
                        Ok(_) => delivered += 1,
                        Err(e) => {
                            error = Some(e);
                            break;
                        }
                    }
                }
                let s = *ep.stats();
                total.tlps_delivered += s.tlps_delivered;
                total.acks += s.acks;
                total.retrains += s.retrains;
                total.dllps_lost += s.dllps_lost;
                total.rx_duplicates += s.rx_duplicates;
                total.timer_expiries += s.timer_expiries;
                link_downs += usize::from(matches!(error, Some(ReplayError::LinkDown { .. })));
                let _ = writeln!(
                    out,
                    "endpoint/ber={ber:e}/outage={outage_name}/{cfg_name} delivered={delivered} \
                     results={:016x} {s:?} error={}",
                    fnv1a64(results.as_bytes()),
                    error.map_or_else(|| "none".to_string(), |e| e.to_string()),
                );
            }
        }
    }
    assert!(link_downs > 0, "no endpoint line reaches a link-down");
    assert!(total.retrains > 0, "no endpoint line retrains");
    assert!(total.dllps_lost > 0, "no endpoint line loses a DLLP");
    assert!(
        total.rx_duplicates > 0,
        "no endpoint line discards a duplicate"
    );
    assert!(
        total.timer_expiries > 0,
        "no endpoint line expires its timer"
    );
    // Every delivery is acknowledged by one Ack or one Nak.
    assert!(
        total.tlps_delivered > total.acks,
        "no endpoint line delivers a TLP by a Nak"
    );

    let spec = RunSpec {
        scale_down: 4,
        ..RunSpec::paper(2)
    };
    let cfg = SystemConfig::paper(2);
    let prep = PreparedWorkload::new(&workloads::Pagerank::default(), &cfg, &spec);
    // `outage`, `degraded` and `stuck` are the CLI's `--fault-profile`s.
    let (from, until) = (SimTime::from_us(5), SimTime::from_us(60));
    let profiles = [
        ("outage", FaultProfile::new(0.0).with_outage(0, from, until)),
        (
            "degraded",
            FaultProfile::new(1e-7)
                .with_outage(0, from, until)
                .with_degrade(0.5),
        ),
        ("stuck", FaultProfile::new(0.0).stuck_link(0, SimTime::ZERO)),
        ("stuck@5us", FaultProfile::new(0.0).stuck_link(0, from)),
        ("ber=1e-4", FaultProfile::new(1e-4)),
    ];
    for (name, profile) in profiles {
        for p in Paradigm::ALL
            .into_iter()
            .filter(|p| *p != Paradigm::InfiniteBw)
        {
            let line = match prep.try_run(&cfg.with_faults(profile), p) {
                Ok(report) => report.canonical_json(),
                Err(e) => e.to_string(),
            };
            let _ = writeln!(out, "pagerank/{p}/credited/{name} {line}");
        }
    }
    check("dll.txt", &out);
}

/// Every experiment `finepack-sim reproduce` renders, shrunk to one
/// iteration at scale-down 256.
#[test]
fn reproduce_experiments_match_golden() {
    let spec = RunSpec {
        iterations: 1,
        scale_down: 256,
        ..RunSpec::paper(GPUS)
    };
    check("reproduce.txt", &cli::reproduce_all(&spec));
}
