//! Integration tests pinning the supervised suite's end-to-end
//! contract: a budget-tripped sweep is byte-identical at any worker
//! count, a panicking point degrades to partial results without
//! perturbing its neighbours, and a budget-tripped livelock terminates
//! with a structured diagnostic instead of hanging.

use gpu_model::{GpuId, KernelTrace};
use sim_engine::{SimTime, WorkerPool};
use system::{sweep, Paradigm, PreparedWorkload, RunBudget, RunError, SystemConfig};
use workloads::{suite, CommPattern, Jacobi, Pagerank, RunSpec, Workload};

/// An event ceiling that `sssp` overruns at this size and the seven
/// other apps fit under, so the sweep keeps survivors and a failure.
const RUN_BUDGET: &str = "5000";

fn budget_suite_argv(jobs: &str) -> Vec<String> {
    [
        "suite",
        "--gpus",
        "2",
        "--scale-down",
        "16",
        "--iterations",
        "1",
        "--run-budget",
        RUN_BUDGET,
        "--jobs",
        jobs,
    ]
    .into_iter()
    .map(String::from)
    .collect()
}

/// (i) A partial sweep — one point tripped its budget, seven survived —
/// renders byte-identically at `--jobs 1`, `2`, and `4`.
#[test]
fn budget_suite_is_byte_identical_across_jobs() {
    let serial = cli::execute(budget_suite_argv("1")).expect("budget suite runs");
    for jobs in ["2", "4"] {
        let par = cli::execute(budget_suite_argv(jobs)).expect("budget suite runs");
        assert_eq!(serial.text, par.text, "--jobs {jobs} diverged");
        assert_eq!(serial.partial, par.partial, "--jobs {jobs} diverged");
    }
    // The budget must leave both survivors and a failure: a sweep where
    // every point succeeds, or every point fails, would pass identity
    // vacuously.
    assert!(serial.partial, "no point failed:\n{}", serial.text);
    assert_eq!(serial.exit_code(), cli::EXIT_PARTIAL);
    let (table, failed) = serial
        .text
        .split_once("failed points")
        .expect("a failed-points section");
    assert!(
        failed.starts_with(" (1 of 8 apps):\n  sssp: budget exceeded"),
        "{failed}"
    );
    assert!(!table.contains("sssp"), "{table}");
    for app in suite().iter().map(|w| w.name()).filter(|n| *n != "sssp") {
        assert!(
            table.contains(&format!("\n{app} ")),
            "{app} lost its row:\n{table}"
        );
    }
}

/// A workload whose trace generation panics — stands in for a buggy
/// app model that would otherwise take the whole sweep down.
#[derive(Debug)]
struct Bomb;

impl Workload for Bomb {
    fn name(&self) -> &'static str {
        "bomb"
    }

    fn pattern(&self) -> CommPattern {
        CommPattern::Neighbors
    }

    fn trace(&self, _spec: &RunSpec, _iter: u32, _gpu: GpuId) -> KernelTrace {
        panic!("bomb: deliberate trace panic");
    }

    fn dma_bytes_per_gpu(&self, _spec: &RunSpec) -> u64 {
        0
    }

    fn read_fraction(&self) -> f64 {
        1.0
    }
}

/// (ii) A panicking point yields partial results: the panic is
/// isolated to its own point, and the surviving points' rows are
/// identical to a clean sweep without the bomb.
#[test]
fn panicking_point_yields_partial_results() {
    let cfg = SystemConfig::paper(2);
    let spec = RunSpec::tiny();
    let paradigms = [Paradigm::FinePack, Paradigm::P2pStores];
    let mixed: Vec<Box<dyn Workload>> = vec![
        Box::new(Jacobi::default()),
        Box::new(Bomb),
        Box::new(Pagerank::default()),
    ];
    let sup = sweep(&mixed, &spec, &[cfg], &paradigms, &WorkerPool::new(2));
    assert!(!sup.all_ok());

    let bomb = &sup.apps[1];
    assert_eq!(bomb.app, "bomb");
    let failure = bomb.outcome.as_ref().expect_err("bomb fails");
    assert_eq!(failure.kind(), "panic");
    assert!(
        failure.to_string().contains("deliberate trace panic"),
        "{failure}"
    );

    // Survivors are byte-identical to a sweep that never saw the bomb.
    let clean_apps: Vec<Box<dyn Workload>> =
        vec![Box::new(Jacobi::default()), Box::new(Pagerank::default())];
    let clean = sweep(
        &clean_apps,
        &spec,
        &[cfg],
        &paradigms,
        &WorkerPool::serial(),
    );
    let survivors: Vec<_> = sup
        .apps
        .iter()
        .filter_map(|a| a.outcome.as_ref().ok())
        .collect();
    assert_eq!(survivors.len(), clean.apps.len());
    for (got, want) in survivors.into_iter().zip(clean.rows(0)) {
        assert_eq!(got[0].app, want.app);
        assert_eq!(got[0].speedups, want.speedups);
    }
    assert_eq!(sup.sim_events, clean.sim_events);
    assert_eq!(sup.sim_time, clean.sim_time);
}

/// (iii) A deliberately livelocked run — here, one whose budget is far
/// below what the workload needs — terminates via [`RunBudget`] with a
/// structured [`RunError`] carrying a diagnostic snapshot, instead
/// of churning forever.
#[test]
fn budget_tripped_run_returns_structured_error_within_budget() {
    const CEILING: u64 = 8;
    let spec = RunSpec::tiny();
    let cfg =
        SystemConfig::paper(2).with_run_budget(RunBudget::unlimited().with_max_events(CEILING));
    let prepared = PreparedWorkload::new(&Jacobi::default(), &cfg, &spec);
    let err: RunError = prepared
        .try_run(&cfg, Paradigm::FinePack)
        .expect_err("an 8-event budget cannot cover the run");
    match err {
        RunError::BudgetExceeded(trip) => {
            // The runner stopped at the first event past the ceiling,
            // not after churning arbitrarily beyond it.
            assert_eq!(trip.diag.sim_events, CEILING + 1, "{trip}");
            let msg = trip.to_string();
            assert!(msg.contains("event ceiling"), "{msg}");
            assert!(msg.contains("tripped"), "{msg}");
        }
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }

    // A sim-time ceiling bounds the same run by the other axis.
    let cfg = SystemConfig::paper(2)
        .with_run_budget(RunBudget::unlimited().with_max_sim_time(SimTime::from_ns(1)));
    let prepared = PreparedWorkload::new(&Jacobi::default(), &cfg, &spec);
    match prepared.try_run(&cfg, Paradigm::FinePack) {
        Err(RunError::BudgetExceeded(trip)) => {
            assert!(trip.to_string().contains("sim-time ceiling"), "{trip}");
        }
        other => panic!("expected sim-time BudgetExceeded, got {other:?}"),
    }
}
