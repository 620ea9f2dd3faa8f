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
//! finepack-sim trace --app jacobi --format chrome --out trace.json
//! finepack-sim audit --app jacobi --gpus 2 --scale-down 16
//! finepack-sim reproduce --experiment fig09_speedup
//! ```
//!
//! Sweep commands take `--jobs N` to fan out over a worker pool; the
//! output is byte-identical for every `N` (parallelism changes only
//! wall-clock time, never results). The `suite` sweep runs each app
//! isolated: a panic, a runner error or a `--run-budget` trip fails
//! only that app's row, and partial results exit with a distinct code
//! (see [`EXIT_PARTIAL`]).
//!
//! The library surface exists so the dispatcher is unit-testable; the
//! binary (`src/main.rs`) is a thin wrapper around [`execute`].

#![warn(missing_docs)]

mod args;
mod commands;
mod error;
mod experiments;

pub use args::{ArgError, Args};
pub use error::{CliError, CmdOut, EXIT_CLEAN, EXIT_ERROR, EXIT_PARTIAL};
pub use experiments::{reproduce_all, Render, EXPERIMENT_REGISTRY};

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
    let name = args.subcommand().unwrap_or("help");
    let Some(cmd) = commands::COMMANDS.iter().find(|c| c.name == name) else {
        return Err(CliError::Usage(format!(
            "unknown command `{name}` (try `help`)"
        )));
    };
    let accepted: Vec<&str> = cmd.accepted().map(|o| o.name).collect();
    args.expect_only(&accepted)?;
    if let Some(o) = cmd
        .accepted()
        .find(|o| o.required && args.get(o.name).is_none())
    {
        return Err(CliError::Usage(format!(
            "{name} needs --{} {}",
            o.name, o.value
        )));
    }
    (cmd.run)(&args)
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

    /// Each command's `help` block is its name on a two-space line,
    /// then the deeper lines under it, and names every option it takes.
    #[test]
    fn help_lists_commands() {
        let h = run(["help"]).unwrap();
        for cmd in &commands::COMMANDS {
            let block: Vec<&str> = h
                .lines()
                .skip_while(|line| !line.starts_with(&format!("  {} ", cmd.name)))
                .enumerate()
                .take_while(|(i, line)| *i == 0 || line.starts_with("   "))
                .map(|(_, line)| line)
                .collect();
            assert!(!block.is_empty(), "help missing {}", cmd.name);
            let block = block.join(" ");
            for o in cmd.accepted() {
                let shown = format!("--{} {}", o.name, o.value);
                assert!(block.contains(&shown), "{}: help misses {shown}", cmd.name);
            }
        }
        assert_eq!(run(Vec::<String>::new()).unwrap(), h);
    }

    #[test]
    fn every_command_rejects_unknown_options() {
        let mut argvs: Vec<Vec<&str>> = commands::COMMANDS.iter().map(|c| vec![c.name]).collect();
        // The bare invocation answers like `help`.
        argvs.push(vec![]);
        for mut argv in argvs {
            argv.extend(["--no-such-option", "1"]);
            let e = execute(argv.clone()).expect_err(&format!("accepted {argv:?}"));
            assert_eq!(e.to_string(), "unknown option --no-such-option", "{argv:?}");
            assert_eq!(e.exit_code(), EXIT_ERROR, "{argv:?}");
        }
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
        // So are the removed daemon and self-benchmark commands.
        for cmd in ["serve", "submit", "bench"] {
            let e = execute([cmd]).unwrap_err();
            assert_eq!(
                e.to_string(),
                format!("unknown command `{cmd}` (try `help`)")
            );
            assert_eq!(e.exit_code(), EXIT_ERROR);
        }
    }

    /// Every command rejects out-of-range shapes with a usage error
    /// naming the option, before anything runs or panics.
    #[test]
    fn bad_inputs_are_typed_errors_not_panics() {
        let dir = std::env::temp_dir().join("finepack-bad-input-test");
        let dir_s = dir.to_str().expect("utf-8 temp dir");
        // A one-GPU trace is still legal to record.
        run([
            "record",
            "--app",
            "jacobi",
            "--out",
            dir_s,
            "--gpus",
            "1",
            "--iterations",
            "1",
            "--scale-down",
            "16",
        ])
        .expect("one-GPU record");
        let trace = format!("{dir_s}/jacobi.g0.i0.fpkt");
        // GPU3 of a 4-GPU node writes outside a 2-GPU one.
        let dir4 = format!("{dir_s}/four-gpus");
        run([
            "record",
            "--app",
            "jacobi",
            "--out",
            &dir4,
            "--gpus",
            "4",
            "--iterations",
            "1",
            "--scale-down",
            "16",
        ])
        .expect("four-GPU record");
        let trace_g3 = format!("{dir4}/jacobi.g3.i0.fpkt");
        // Each case is `[command, bad flag, value, other options...]`.
        let mut cases: Vec<Vec<&str>> = vec![
            vec!["collectives", "--max-gpus", "65"],
            vec!["area", "--gpus", "1"],
            vec!["area", "--gpus", "65"],
            // Removed options are unknown, not silently ignored.
            vec!["suite", "--retries", "1"],
            vec!["suite", "--chaos", "0.1"],
            vec!["collectives", "--bench-out", "f"],
            vec!["replay", "--gpus", "0", "--trace", &trace],
            vec!["analyze", "--gpus", "0", "--trace", &trace],
            vec!["replay", "--gpus", "2", "--trace", &trace_g3],
            vec!["analyze", "--gpus", "2", "--trace", &trace_g3],
            vec!["reproduce", "--experiment", "nope"],
            // `reproduce` always runs at paper scale.
            vec!["reproduce", "--scale-down", "8"],
            // The default sweep is the suite apps, which take no tuning.
            vec![
                "sweep-subheader",
                "--payload",
                "4096",
                "--scale-down",
                "256",
            ],
            vec![
                "sweep-subheader",
                "--msg-dist",
                "nonsense",
                "--scale-down",
                "256",
            ],
            vec!["trace", "--capacity", "0"],
            vec!["trace", "--format", "xml"],
            // Simulated time is u64 picoseconds: these would wrap.
            vec!["trace", "--sample-interval", "18446744073709552"],
            vec!["run", "--run-budget", "sim-ms=18446744074"],
            vec!["analyze", "--window-bytes", "1000", "--trace", &trace],
        ];
        // (command, options it needs, builds a SystemConfig, takes --windows)
        let commands: [(&str, &[&str], bool, bool); 8] = [
            ("run", &[], true, true),
            ("suite", &[], true, false),
            ("faults", &[], true, false),
            ("trace", &["--out", dir_s], true, true),
            ("audit", &[], true, false),
            ("collectives", &[], true, true),
            ("sweep-subheader", &[], true, false),
            ("record", &["--app", "jacobi", "--out", dir_s], false, false),
        ];
        for (cmd, needs, simulates, windows) in commands {
            let mut bad = vec![
                ("--gpus", "0"),
                ("--gpus", "65"),
                ("--iterations", "0"),
                ("--scale-down", "0"),
            ];
            if simulates {
                bad.push(("--gpus", "1"));
            }
            if windows {
                bad.extend([("--windows", "0"), ("--windows", "65")]);
            }
            for (flag, value) in bad {
                cases.push([&[cmd, flag, value], needs].concat());
            }
        }
        for argv in cases {
            let e = execute(argv.clone()).expect_err(&format!("accepted {argv:?}"));
            assert_eq!(e.exit_code(), EXIT_ERROR, "{argv:?}");
            assert!(e.to_string().contains(argv[1]), "{argv:?}: {e}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_answers_as_command_and_bare_flag() {
        let v = run(["version"]).unwrap();
        assert!(v.starts_with("finepack-sim "), "{v}");
        assert!(v.contains("report schema 1"), "{v}");
        assert!(v.contains("trace schema 3"), "{v}");
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
