//! The repository benchmark: one workload per invocation, single-threaded,
//! as a closed loop with one caller. `--trace 0` runs untraced reps and
//! prints the end-to-end metrics; `--trace 1` runs traced passes and
//! prints the per-layer metrics. Either way the last line of standard
//! output is one JSON result. See `README.md` for the workloads and
//! metrics.

mod end_to_end;
mod layers;
mod metrics;
mod spans;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use metrics::{result_json, Metric};
use spans::Recorder;
use workload::Bench;

const USAGE: &str = "usage: benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
                     [--trace-out FILE] [--smoke]
  NAME: paper-suite | collectives-16g | faulted-open | audited-suite";

/// Measured reps an end-to-end run makes however short `--seconds` is,
/// so that every reported median has samples on both sides.
const MIN_REPS: usize = 3;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
    smoke: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: workloads::RunSpec::paper(4).seed,
        seconds: 25.0,
        trace: false,
        trace_out: None,
        smoke: false,
    };
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => {
                args.seed = match value.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => value.parse(),
                }
                .map_err(|_| bad("an unsigned 64-bit integer"))?;
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("a non-negative number of seconds"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// A finished run: human-readable lines, then the result.
#[derive(Debug)]
struct Report {
    lines: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Report {
    fn correct(&self) -> bool {
        self.failed == 0
    }
}

fn run(args: &Args) -> Result<Report, String> {
    let bench = Bench::new(&args.workload, args.seed, args.smoke)?;
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let mut lines = vec![format!(
        "benchmark {} seed {} gpus {} iterations {} scale-down {} points {} nproc {nproc} trace {}",
        bench.name,
        args.seed,
        bench.spec.num_gpus,
        bench.spec.iterations,
        bench.spec.scale_down,
        bench.points(),
        u8::from(args.trace),
    )];
    if !args.trace {
        let warmup = !args.smoke;
        let min_reps = if args.smoke { 1 } else { MIN_REPS };
        let out = end_to_end::measure(&bench, args.seconds, warmup, min_reps)?;
        lines.extend(out.lines);
        return Ok(Report {
            lines,
            attempted: out.attempted,
            failed: out.failed,
            metrics: out.metrics,
        });
    }
    // One checked, untimed rep first, so the first traced pass does not
    // pay for cold caches and first-touch allocation alone.
    let warm = if args.smoke {
        None
    } else {
        Some(end_to_end::measure(&bench, 0.0, false, 1)?)
    };
    let mut rec = Recorder::new();
    let out = layers::measure(&bench, args.seconds, &mut rec)?;
    if let Some(path) = &args.trace_out {
        std::fs::write(path, rec.chrome_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    lines.push(format!(
        "per-layer medians of {} traced pass(es)",
        out.passes
    ));
    for m in &out.metrics {
        lines.push(format!("{:<40} {:>18.6} {}", m.name, m.value, m.unit));
    }
    let (warm_attempted, warm_failed) = warm.map_or((0, 0), |w| (w.attempted, w.failed));
    Ok(Report {
        lines,
        attempted: out.attempted + warm_attempted,
        failed: out.failed + warm_failed,
        metrics: out.metrics,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            for line in &report.lines {
                println!("{line}");
            }
            println!(
                "{}",
                result_json(
                    report.correct(),
                    report.attempted,
                    report.failed,
                    &report.metrics
                )
            );
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use std::time::Instant;

    use super::*;
    use metrics::valid_name;

    /// Limits on what one run may report.
    const MAX_END_TO_END: usize = 16;
    const MAX_PER_LAYER: usize = 128;

    fn args(cli: &str) -> Result<Args, String> {
        parse_args(cli.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a =
            args("--workload paper-suite --seed 0xF14E9ACC --seconds 10 --trace 1").expect("valid");
        assert_eq!(a.workload, "paper-suite");
        assert_eq!((a.seed, a.seconds, a.trace), (0xF14E_9ACC, 10.0, true));
        assert_eq!(args("--workload x --seed 42").expect("valid").seed, 42);
        for bad in [
            "",
            "--seed 1",
            "--workload x --trace 2",
            "--workload x --seed -1",
            "--workload x --seconds nan",
            "--workload x --bogus 1",
            "--workload",
        ] {
            assert!(args(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    /// The names and units `BENCHMARK.json` declares for each kind.
    fn declared(kind: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let section = text
            .split(&format!("\"{kind}\": ["))
            .nth(1)
            .and_then(|s| s.split(']').next())
            .expect("section present");
        section
            .split("\"name\": \"")
            .skip(1)
            .map(|s| {
                let name = s.split('"').next().expect("name").to_string();
                let unit = s
                    .split("\"unit\": \"")
                    .nth(1)
                    .and_then(|u| u.split('"').next())
                    .expect("unit");
                (name, unit.to_string())
            })
            .collect()
    }

    fn names(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect()
    }

    /// A smoke run of every workload in both modes: fast, correct, and
    /// reporting exactly the metrics `BENCHMARK.json` declares.
    #[test]
    fn smoke_runs_report_every_declared_metric() {
        for name in workload::NAMES {
            for trace in [0, 1] {
                let a = args(&format!(
                    "--workload {name} --seed 7 --seconds 0 --trace {trace} --smoke"
                ))
                .expect("valid");
                let t = Instant::now();
                let report = run(&a).expect("smoke run");
                let elapsed = t.elapsed().as_secs_f64();
                assert!(elapsed < 2.0, "{name} trace {trace} took {elapsed:.2} s");
                assert!(report.correct(), "{name} trace {trace}: {:?}", report.lines);
                assert!(report.attempted >= 1);
                let (kind, limit) = if trace == 0 {
                    ("end_to_end", MAX_END_TO_END)
                } else {
                    ("per_layer", MAX_PER_LAYER)
                };
                assert!(report.metrics.len() <= limit);
                assert!(report.metrics.iter().all(|m| valid_name(&m.name)));
                assert_eq!(names(&report.metrics), declared(kind), "{name} {kind}");
                // Panics on a repeated name or a non-finite value.
                result_json(true, 1, 0, &report.metrics);
            }
        }
    }
}
