//! The untraced, measured reps: what a user of the simulator pays
//! (workload preparation and simulation, in host seconds and memory) and
//! what the modelled system answers (FinePack time and wire traffic).

use std::time::Instant;

use system::{audit_run, Paradigm, PreparedWorkload, RunReport};

use crate::metrics::Metric;
use crate::stats::{median, quartiles};
use crate::workload::Bench;

/// One rep's measurements.
#[derive(Debug, Default)]
struct Rep {
    /// Host seconds preparing each app.
    setup_s: Vec<f64>,
    /// Host seconds simulating each (app, paradigm) point.
    run_s: Vec<f64>,
    fp_time_us: f64,
    fp_wire_mb: f64,
}

/// What the measured reps produced.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// One human-readable line per metric.
    pub lines: Vec<String>,
}

/// Runs one point the way the workload defines it: `try_run`, or
/// `audit_run` with an unclean audit counted as an error.
fn run_point(b: &Bench, prep: &PreparedWorkload, p: Paradigm) -> Result<RunReport, String> {
    if b.audited {
        let out = audit_run(prep, &b.cfg, p).map_err(|e| e.to_string())?;
        if out.is_clean() {
            Ok(out.report)
        } else {
            Err(out.rendered)
        }
    } else {
        prep.try_run(&b.cfg, p).map_err(|e| e.to_string())
    }
}

/// Checks every point's outcome against the first rep's canonical
/// report and counts failures.
struct Checker {
    reference: Vec<Option<String>>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    fn check(&mut self, point: usize, label: &str, outcome: &Result<RunReport, String>) {
        self.attempted += 1;
        let json = match outcome {
            Ok(report) => report.canonical_json(),
            Err(e) => {
                self.failed += 1;
                eprintln!("point {label} failed: {e}");
                return;
            }
        };
        match &self.reference[point] {
            None => self.reference[point] = Some(json),
            Some(first) if *first != json => {
                self.failed += 1;
                eprintln!("point {label} differs from its first rep:\n  {first}\n  {json}");
            }
            Some(_) => {}
        }
    }
}

/// One rep: prepare each app, simulate its points, then check the
/// results outside the timers. Apps are prepared and dropped one at a
/// time, as a CLI sweep does.
fn rep(b: &Bench, checker: &mut Checker) -> Rep {
    let mut rep = Rep::default();
    for (a, app) in b.apps.iter().enumerate() {
        let t = Instant::now();
        let prep = PreparedWorkload::new(app.as_ref(), &b.cfg, &b.spec);
        rep.setup_s.push(t.elapsed().as_secs_f64());
        for (i, &p) in b.paradigms.iter().enumerate() {
            let t = Instant::now();
            let outcome = run_point(b, &prep, p);
            rep.run_s.push(t.elapsed().as_secs_f64());
            checker.check(
                a * b.paradigms.len() + i,
                &format!("{}/{p}", app.name()),
                &outcome,
            );
            if let (Paradigm::FinePack, Ok(r)) = (p, &outcome) {
                rep.fp_time_us += r.total_time.as_secs_f64() * 1e6;
                rep.fp_wire_mb += r.traffic.total() as f64 / 1e6;
            }
        }
    }
    rep
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// The sum over items (apps or points) of each item's median across
/// reps. A burst of host noise slows a few items of one rep; taking
/// medians item by item drops it, where the median of rep totals would
/// keep part of it.
fn sum_of_medians(reps: &[Rep], times: fn(&Rep) -> &[f64]) -> f64 {
    (0..times(&reps[0]).len())
        .map(|i| median(&reps.iter().map(|r| times(r)[i]).collect::<Vec<_>>()))
        .sum()
}

/// One warm-up rep (checked, not timed), then measured reps until the
/// next one would overrun `seconds`, but at least `min_reps`.
pub fn measure(b: &Bench, seconds: f64, warmup: bool, min_reps: usize) -> Result<Outcome, String> {
    let mut checker = Checker {
        reference: vec![None; b.points()],
        attempted: 0,
        failed: 0,
    };
    if warmup {
        rep(b, &mut checker);
    }
    let start = Instant::now();
    let mut reps = Vec::new();
    loop {
        let t = Instant::now();
        reps.push(rep(b, &mut checker));
        let last = t.elapsed().as_secs_f64();
        if reps.len() >= min_reps && start.elapsed().as_secs_f64() + last > seconds {
            break;
        }
    }
    let peak_rss = peak_rss_mib()?;

    let n = reps.len();
    let totals = |f: fn(&Rep) -> &[f64]| -> String {
        let t: Vec<f64> = reps.iter().map(|r| f(r).iter().sum()).collect();
        let (q1, q3) = quartiles(&t);
        format!("rep totals q1 {q1:.6} median {:.6} q3 {q3:.6}", median(&t))
    };
    let run_s = sum_of_medians(&reps, |r| &r.run_s);
    let setup_s = sum_of_medians(&reps, |r| &r.setup_s);
    let points = reps[0].run_s.len();
    let apps = reps[0].setup_s.len();
    let fp_time = reps.iter().map(|r| r.fp_time_us).collect::<Vec<_>>();
    let fp_wire = reps.iter().map(|r| r.fp_wire_mb).collect::<Vec<_>>();
    let reported = [
        (
            Metric::new("run_s", "s", run_s),
            format!(
                "sum of {points} per-point medians of {n} reps; {}",
                totals(|r| &r.run_s)
            ),
        ),
        (
            Metric::new("setup_s", "s", setup_s),
            format!(
                "sum of {apps} per-app medians of {n} reps; {}",
                totals(|r| &r.setup_s)
            ),
        ),
        (
            Metric::new("peak_rss_mb", "MiB", peak_rss),
            "VmHWM after the measured reps".to_string(),
        ),
        (
            Metric::new("sim_fp_time_us", "sim_us", median(&fp_time)),
            format!("median of {n} reps"),
        ),
        (
            Metric::new("sim_fp_wire_mb", "MB", median(&fp_wire)),
            format!("median of {n} reps"),
        ),
    ];
    let mut metrics = Vec::new();
    let mut lines = Vec::new();
    for (m, how) in reported {
        lines.push(format!(
            "{:<16} {:>14.6} {:<7} {how}",
            m.name, m.value, m.unit
        ));
        metrics.push(m);
    }
    Ok(Outcome {
        attempted: checker.attempted,
        failed: checker.failed,
        metrics,
        lines,
    })
}
