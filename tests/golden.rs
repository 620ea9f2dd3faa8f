//! Golden-output gate: every suite app and collective under every
//! paradigm and both flow-control regimes, plus jacobi and pagerank
//! under every store paradigm at a bit-error rate, must reproduce its
//! committed `RunReport::canonical_json` byte for byte, every budget
//! trip its diagnostic, and every registered experiment its rendered
//! report. A refactor that claims
//! "no result moves" is held to it here.
//!
//! On a mismatch the test writes what it got under
//! `target/golden-actual/` and its failure message prints the `cp` that
//! re-blesses the golden file, for when the change is intended.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use system::{FaultProfile, Paradigm, PreparedWorkload, RunBudget, SystemConfig};
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

/// The two flow-control regimes, keyed as the CLI names them.
fn regimes() -> [(&'static str, SystemConfig); 2] {
    let cfg = SystemConfig::paper(GPUS);
    [("open", cfg.open_loop()), ("credited", cfg)]
}

/// One `key json` line per (app, paradigm, regime) point.
fn render(apps: &[Box<dyn Workload>]) -> String {
    let spec = spec();
    let mut out = String::new();
    for app in apps {
        // Trace replay depends only on the GPU count, not on the flow
        // control regime: prepare once per app.
        let prep = PreparedWorkload::new(app.as_ref(), &regimes()[0].1, &spec);
        for p in Paradigm::ALL {
            for (fc, cfg) in regimes() {
                let report = prep.run(&cfg, p);
                let _ = writeln!(out, "{}/{p}/{fc} {}", app.name(), report.canonical_json());
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
    check("suite.txt", &render(&workloads::suite()));
}

#[test]
fn collective_reports_match_golden() {
    check(
        "collectives.txt",
        &render(&workloads::collectives_suite(&CollectiveTuning::default())),
    );
}

/// Jacobi and pagerank under every store paradigm and both regimes at
/// BER 1e-5: the data-link replay path, and under credits (pagerank)
/// stalls, credit blocks and replays together.
#[test]
fn faulted_report_matches_golden() {
    let fault = FaultProfile::new(1e-5);
    let apps: [Box<dyn Workload>; 2] = [
        Box::new(workloads::Jacobi::default()),
        Box::new(workloads::Pagerank::default()),
    ];
    let mut out = String::new();
    for app in &apps {
        let prep = PreparedWorkload::new(app.as_ref(), &regimes()[0].1, &spec());
        for p in Paradigm::ALL.into_iter().filter(|p| p.uses_stores()) {
            for (fc, cfg) in regimes() {
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
    check("faulted.txt", &out);
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
