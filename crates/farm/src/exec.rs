//! Job execution: turns a validated [`JobRequest`] into the exact
//! report the one-shot CLI would print.
//!
//! The table rendering here is the single definition used by both the
//! daemon and the `finepack-sim run` / `suite` commands (the CLI
//! delegates to [`run_table`] / [`suite_report`]), so a daemon-served
//! report is byte-identical to the one-shot output by construction —
//! which is what makes cached entries trustworthy.

use std::fmt::Write as _;

use sim_engine::{QuietPanicGuard, RetryPolicy, SimTime, Table, WorkerPool};
use system::{
    audit_run, run_suite_supervised, single_gpu_time, Paradigm, PreparedWorkload, RunReport,
    Supervision, SystemConfig,
};
use telemetry::TraceHandle;
use workloads::{suite, RunSpec, Workload};

use crate::error::FarmError;
use crate::job::{JobKind, JobRequest, RUN_PARADIGMS};

/// The result of executing one job: the rendered report plus the
/// machine-readable pieces the cache stores alongside it.
#[derive(Debug, Clone)]
pub struct JobOutput {
    /// Rendered report, byte-identical to the one-shot CLI output.
    pub text: String,
    /// Whether supervised sweep points failed (maps to exit code 3).
    pub partial: bool,
    /// Discrete events executed (0 when served from cache).
    pub sim_events: u64,
    /// Canonical JSON per successful run report, in paradigm order
    /// (`run` jobs only; `suite` jobs report speedup rows, not raw
    /// reports).
    pub reports_json: Vec<String>,
}

/// Looks up a suite app by name.
///
/// # Errors
///
/// [`FarmError::Invalid`] when the name matches no suite app.
pub fn find_app(name: &str) -> Result<Box<dyn Workload>, FarmError> {
    find_app_tuned(name, &workloads::CollectiveTuning::default())
}

/// Looks up an app by name across the suite and the collectives
/// registry, building collectives with the given tuning.
///
/// # Errors
///
/// [`FarmError::Invalid`] when the name matches neither registry.
pub fn find_app_tuned(
    name: &str,
    tuning: &workloads::CollectiveTuning,
) -> Result<Box<dyn Workload>, FarmError> {
    suite()
        .into_iter()
        .find(|a| a.name() == name)
        .or_else(|| workloads::collective(name, tuning))
        .ok_or_else(|| FarmError::Invalid(format!("unknown app `{name}`")))
}

/// The machine's available parallelism (1 when undetectable).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The single-core caveat `suite` and `bench` print when thread knobs
/// cannot buy wall-clock time on this machine. Independent of the
/// `--jobs` value so output stays byte-identical across it.
pub fn single_core_warning(out: &mut String) {
    if available_parallelism() == 1 {
        let _ = writeln!(
            out,
            "warning: this machine reports a single available core; \
             --jobs cannot reduce wall-clock time here"
        );
    }
}

/// Executes a job against the supervised worker pool, producing the
/// same bytes the one-shot CLI would.
///
/// # Errors
///
/// [`FarmError::Invalid`] for bad requests (including unknown apps).
pub fn execute_job(req: &JobRequest, pool: &WorkerPool) -> Result<JobOutput, FarmError> {
    req.validate()?;
    let (spec, cfg) = req.build();
    match req.kind {
        JobKind::Run => {
            let tuning = req.collective_tuning().map_err(FarmError::Invalid)?;
            let app = find_app_tuned(req.app_name(), &tuning)?;
            Ok(run_table(app.as_ref(), &spec, &cfg))
        }
        JobKind::Suite => {
            let supervision = Supervision {
                policy: RetryPolicy::retries(req.retries),
                chaos: req.chaos.map(sim_engine::ChaosConfig::uniform),
            };
            Ok(suite_report(&spec, &cfg, pool, supervision))
        }
    }
}

/// Renders the `run` table: one app across every paradigm.
pub fn run_table(app: &dyn Workload, spec: &RunSpec, cfg: &SystemConfig) -> JobOutput {
    let t1 = single_gpu_time(app, cfg, spec);
    let prep = PreparedWorkload::new(app, cfg, spec);
    let mut t = Table::new(
        format!(
            "{} on {} GPUs, {} ({} pattern)",
            app.name(),
            spec.num_gpus,
            cfg.pcie_gen,
            app.pattern()
        ),
        &[
            "paradigm",
            "speedup",
            "wire bytes",
            "stores/packet",
            "stall",
        ],
    );
    let mut sim_events = 0u64;
    let mut reports_json = Vec::new();
    for p in RUN_PARADIGMS {
        match prep.try_run(cfg, p) {
            Ok(report) => {
                t.row(&[
                    p.to_string(),
                    format!("{:.2}x", t1.as_secs_f64() / report.total_time.as_secs_f64()),
                    report.traffic.total().to_string(),
                    report
                        .mean_stores_per_packet()
                        .map(|v| format!("{v:.1}"))
                        .unwrap_or_else(|| "-".into()),
                    if report.stall_time == SimTime::ZERO {
                        "-".into()
                    } else {
                        report.stall_time.to_string()
                    },
                ]);
                sim_events += report.sim_events;
                reports_json.push(RunReport::canonical_json(&report));
            }
            Err(e) => t.row(&[
                p.to_string(),
                "dead".into(),
                "-".into(),
                "-".into(),
                e.to_string(),
            ]),
        }
    }
    JobOutput {
        text: t.render(),
        partial: false,
        sim_events,
        reports_json,
    }
}

/// Renders the supervised `suite` table, including the retried/failed
/// sections and the partial-results epilogue.
pub fn suite_report(
    spec: &RunSpec,
    cfg: &SystemConfig,
    pool: &WorkerPool,
    supervision: Supervision,
) -> JobOutput {
    // Chaos panics are expected noise: silence the default panic hook's
    // stderr chatter while the supervisor catches them.
    let _quiet = supervision
        .chaos
        .as_ref()
        .map(|_| QuietPanicGuard::engage());
    let sup = run_suite_supervised(
        &suite(),
        cfg,
        spec,
        &Paradigm::FIG9,
        pool,
        supervision,
        &TraceHandle::off(),
    );
    let mut t = Table::new(
        format!("suite speedups on {} GPUs, {}", spec.num_gpus, cfg.pcie_gen),
        &["app", "bulk-dma", "p2p-stores", "finepack", "infinite-bw"],
    );
    for row in sup.points.iter().filter_map(|p| p.row.as_ref()) {
        let cell = |p| format!("{:.2}x", row.speedup(p).expect("measured"));
        t.row(&[
            row.app.clone(),
            cell(Paradigm::BulkDma),
            cell(Paradigm::P2pStores),
            cell(Paradigm::FinePack),
            cell(Paradigm::InfiniteBw),
        ]);
    }
    let mut out = t.render();
    if sup.retried().next().is_some() {
        let _ = writeln!(out, "\nretried points:");
        for p in sup.retried() {
            let verdict = if p.is_ok() {
                format!("succeeded after {} attempts", p.attempts)
            } else {
                format!("failed after {} attempts", p.attempts)
            };
            let _ = writeln!(out, "  {}: {verdict}", p.app);
            for (i, failure) in p.failures.iter().enumerate() {
                let _ = writeln!(out, "    attempt {}: {failure}", i + 1);
            }
        }
    }
    let partial = !sup.all_ok();
    if partial {
        let failed = sup.failed().count();
        let _ = writeln!(
            out,
            "\nfailed points ({failed} of {} apps):",
            sup.points.len()
        );
        for p in sup.failed() {
            let _ = writeln!(
                out,
                "  {}: {} (after {} attempts)",
                p.app,
                p.final_failure().expect("failed point has a failure"),
                p.attempts
            );
        }
        let _ = writeln!(out, "partial results: exiting with code 3");
    }
    single_core_warning(&mut out);
    JobOutput {
        text: out,
        partial,
        sim_events: sup.sim_events,
        reports_json: Vec::new(),
    }
}

/// Runs the PR 5 conservation auditor over every (app, paradigm) pair
/// the job covers and reports whether all completed audits were clean.
/// Runs the fabric kills outright ("dead" rows in the table) have
/// nothing to audit and are skipped, matching the report.
///
/// # Errors
///
/// [`FarmError::Invalid`] for bad requests.
pub fn audit_job(req: &JobRequest) -> Result<bool, FarmError> {
    req.validate()?;
    let (spec, cfg) = req.build();
    let apps: Vec<Box<dyn Workload>> = match req.kind {
        JobKind::Run => {
            let tuning = req.collective_tuning().map_err(FarmError::Invalid)?;
            vec![find_app_tuned(req.app_name(), &tuning)?]
        }
        JobKind::Suite => suite(),
    };
    let mut clean = true;
    for app in &apps {
        let prep = PreparedWorkload::new(app.as_ref(), &cfg, &spec);
        for p in req.paradigms() {
            if let Ok(outcome) = audit_run(&prep, &cfg, *p) {
                clean &= outcome.is_clean();
            }
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobKind;

    fn small_run() -> JobRequest {
        let mut req = JobRequest::new(JobKind::Run);
        req.app = Some("jacobi".into());
        req.gpus = 2;
        req.iterations = 1;
        req.scale_down = 16;
        req
    }

    #[test]
    fn run_jobs_render_a_table_and_collect_reports() {
        let pool = WorkerPool::new(1);
        let out = execute_job(&small_run(), &pool).unwrap();
        assert!(out.text.contains("jacobi on 2 GPUs"));
        assert!(out.text.contains("finepack"));
        assert!(!out.partial);
        assert!(out.sim_events > 0);
        assert_eq!(out.reports_json.len(), RUN_PARADIGMS.len());
        assert!(out.reports_json[0].contains("\"schema_version\":1"));
    }

    #[test]
    fn execution_is_deterministic_across_pool_sizes() {
        let mut req = JobRequest::new(JobKind::Suite);
        req.gpus = 2;
        req.iterations = 1;
        req.scale_down = 16;
        let serial = execute_job(&req, &WorkerPool::new(1)).unwrap();
        let parallel = execute_job(&req, &WorkerPool::new(4)).unwrap();
        assert_eq!(serial.text, parallel.text);
        assert_eq!(serial.sim_events, parallel.sim_events);
        assert!(serial.text.contains("suite speedups on 2 GPUs"));
    }

    #[test]
    fn unknown_app_is_invalid_not_a_panic() {
        let mut req = small_run();
        req.app = Some("does-not-exist".into());
        assert!(matches!(
            execute_job(&req, &WorkerPool::new(1)),
            Err(FarmError::Invalid(_))
        ));
    }

    #[test]
    fn audit_stamps_a_clean_default_config() {
        assert!(audit_job(&small_run()).unwrap());
    }
}
