//! # finepack-sim
//!
//! The command-line driver for the FinePack reproduction: run any
//! workload under any communication paradigm, sweep design parameters,
//! record and replay traces, and inspect wire formats — without writing
//! Rust.
//!
//! ```text
//! finepack-sim run --app pagerank --gpus 4 --pcie 4
//! finepack-sim suite --jobs 4
//! finepack-sim goodput --framing nvlink
//! finepack-sim sweep-subheader --app sssp
//! finepack-sim record --app jacobi --out /tmp/traces
//! finepack-sim replay --trace /tmp/traces/jacobi.g0.i0.fpkt
//! finepack-sim area --gpus 16
//! finepack-sim bench --jobs 4 --out BENCH_harness.json
//! finepack-sim trace --app jacobi --format chrome --out trace.json
//! finepack-sim audit --app jacobi --gpus 2 --scale-down 16
//! ```
//!
//! Sweep commands take `--jobs N` to fan out over a worker pool; the
//! output is byte-identical for every `N` (parallelism changes only
//! wall-clock time, never results). The `suite` sweep additionally
//! runs under a supervisor: `--retries`, `--chaos`, and `--run-budget`
//! control panic isolation, deterministic fault injection, and run
//! budgets, and partial results exit with a distinct code (see
//! [`EXIT_PARTIAL`]).
//!
//! The library surface exists so the dispatcher is unit-testable; the
//! binary (`src/main.rs`) is a thin wrapper around [`execute`].

#![warn(missing_docs)]

mod args;
mod commands;
mod error;

pub use args::{ArgError, Args};
pub use error::{CliError, CmdOut, EXIT_CLEAN, EXIT_ERROR, EXIT_PARTIAL};

/// Executes a command line (without the program name) and returns the
/// report text plus its completion status (clean or partial).
///
/// # Errors
///
/// Returns a [`CliError`] for unknown commands, bad options, I/O
/// failures, or simulation errors; map it to a process exit code with
/// [`CliError::exit_code`].
pub fn execute<I, S>(argv: I) -> Result<CmdOut, CliError>
where
    I: IntoIterator<Item = S>,
    S: Into<String>,
{
    let argv: Vec<String> = argv.into_iter().map(Into::into).collect();
    // `--version` has no subcommand, which the flag parser rejects;
    // answer it before parsing (like `help`, it must always work).
    if matches!(argv.first().map(String::as_str), Some("--version" | "-V")) {
        return Ok(CmdOut::clean(commands::version()));
    }
    let args = Args::parse(argv)?;
    match args.subcommand() {
        None | Some("help") => Ok(CmdOut::clean(commands::help())),
        Some("version") => Ok(CmdOut::clean(commands::version())),
        Some("goodput") => commands::goodput(&args).map(CmdOut::clean),
        Some("run") => commands::run_app(&args).map(CmdOut::clean),
        Some("suite") => commands::suite_table(&args),
        Some("collectives") => commands::collectives(&args).map(CmdOut::clean),
        Some("serve") => commands::serve(&args).map(CmdOut::clean),
        Some("submit") => commands::submit(&args),
        Some("status") => commands::farm_status(&args).map(CmdOut::clean),
        Some("shutdown") => commands::farm_shutdown(&args).map(CmdOut::clean),
        Some("sweep-subheader") => commands::sweep_subheader(&args).map(CmdOut::clean),
        Some("faults") => commands::faults(&args).map(CmdOut::clean),
        Some("bench") => commands::bench(&args).map(CmdOut::clean),
        Some("trace") => commands::trace(&args).map(CmdOut::clean),
        Some("audit") => commands::audit(&args).map(CmdOut::clean),
        Some("area") => commands::area(&args).map(CmdOut::clean),
        Some("record") => commands::record(&args).map(CmdOut::clean),
        Some("replay") => commands::replay(&args).map(CmdOut::clean),
        Some("inspect") => commands::inspect(&args).map(CmdOut::clean),
        Some("analyze") => commands::analyze(&args).map(CmdOut::clean),
        Some(other) => Err(CliError::Usage(format!(
            "unknown command `{other}` (try `help`)"
        ))),
    }
}

/// [`execute`] reduced to strings: the report text, or a human-readable
/// error. Kept for tests and embedding; the partial/clean distinction
/// is dropped.
///
/// # Errors
///
/// Returns a human-readable error string for unknown commands, bad
/// options, or I/O failures.
///
/// # Examples
///
/// ```
/// let out = cli::run(["area", "--gpus", "4"]).expect("area runs");
/// assert!(out.contains("remote write queue"));
/// ```
pub fn run<I, S>(argv: I) -> Result<String, String>
where
    I: IntoIterator<Item = S>,
    S: Into<String>,
{
    execute(argv).map(|out| out.text).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn help_lists_commands() {
        let h = run(["help"]).unwrap();
        for cmd in [
            "run", "suite", "goodput", "record", "replay", "area", "analyze", "trace", "audit",
        ] {
            assert!(h.contains(cmd), "help missing {cmd}");
        }
        assert_eq!(run(Vec::<String>::new()).unwrap(), h);
    }

    #[test]
    fn audit_sweeps_clean_on_tiny_config() {
        // One paradigm keeps the matrix small: 3 generations x 2 flow
        // control modes x 3 fault profiles x 2 allocation policies.
        let out = run([
            "audit",
            "--app",
            "jacobi",
            "--gpus",
            "2",
            "--scale-down",
            "16",
            "--iterations",
            "1",
            "--paradigm",
            "finepack",
        ])
        .unwrap();
        assert!(out.contains("all 36 matrix points clean"), "{out}");
        assert!(out.contains("byte-conservation"), "{out}");
        assert!(out.contains("transparency"), "{out}");
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run(["frobnicate"]).is_err());
        // A removed option is rejected as unknown, with the usage exit.
        let e = execute(["run", "--app", "jacobi", "--intra-jobs", "2"]).unwrap_err();
        assert_eq!(e.to_string(), "unknown option --intra-jobs");
        assert_eq!(e.exit_code(), EXIT_ERROR);
    }

    #[test]
    fn version_answers_as_command_and_bare_flag() {
        let v = run(["version"]).unwrap();
        assert!(v.starts_with("finepack-sim "), "{v}");
        assert!(v.contains("build "), "{v}");
        assert!(v.contains("wire schema"), "{v}");
        // The bare flag has no subcommand, which the arg parser would
        // reject — it must still answer.
        assert_eq!(run(["--version"]).unwrap(), v);
        assert_eq!(run(["-V"]).unwrap(), v);
    }

    #[test]
    fn run_json_writes_versioned_reports() {
        let out_file = std::env::temp_dir().join("finepack-run-json-test.json");
        let out_s = out_file.to_str().expect("utf-8 temp path");
        run([
            "run",
            "--app",
            "jacobi",
            "--gpus",
            "2",
            "--scale-down",
            "16",
            "--iterations",
            "1",
            "--json",
            out_s,
        ])
        .unwrap();
        let json = std::fs::read_to_string(out_s).unwrap();
        assert!(json.starts_with("{\n  \"schema_version\": 1,"), "{json}");
        assert!(json.contains("\"workload\":\"jacobi\""), "{json}");
        // One report object per paradigm that survived.
        assert_eq!(json.matches("\"schema_version\":1").count(), 6, "{json}");
        let _ = std::fs::remove_file(&out_file);
    }

    #[test]
    fn goodput_runs() {
        let out = run(["goodput"]).unwrap();
        assert!(out.contains("128"));
        let nv = run(["goodput", "--framing", "nvlink"]).unwrap();
        assert!(nv.contains("NVLink") || nv.contains("nvlink"));
        assert!(run(["goodput", "--framing", "token-ring"]).is_err());
    }

    #[test]
    fn run_rejects_unknown_app() {
        let e = run(["run", "--app", "doom"]).unwrap_err();
        assert!(e.contains("unknown app"));
    }

    #[test]
    fn run_executes_tiny_workload() {
        let out = run([
            "run",
            "--app",
            "jacobi",
            "--gpus",
            "2",
            "--scale-down",
            "16",
            "--iterations",
            "1",
        ])
        .unwrap();
        assert!(out.contains("finepack"));
        assert!(out.contains("speedup"));
    }

    #[test]
    fn area_reports_sram() {
        let out = run(["area", "--gpus", "16"]).unwrap();
        assert!(out.contains("120KB"));
    }
}
