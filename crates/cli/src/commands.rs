//! Subcommand implementations, and the command table that dispatches
//! them, checks their options and renders `help`.

use std::fmt::Write as _;

use finepack::{AllocationPolicy, AreaModel, FinePackConfig, FlushReason, SubheaderFormat};
use gpu_model::{profile_run, read_trace, write_trace, AddressMap, Gpu, GpuId};
use protocol::{fig2_sizes, FramingModel, PcieGen};
use sim_engine::{SimTime, Table, WorkerPool};
use system::{
    audit_run, fault_sweep, single_gpu_time, sweep, CreditConfig, FaultProfile, FlowControlMode,
    Paradigm, PreparedWorkload, RunBudget, RunReport, SpeedupRow, SystemConfig,
    REPORT_SCHEMA_VERSION,
};
use telemetry::{EventKind, Law, RingCollector, Sample, TraceEvent, CHROME_TRACE_SCHEMA_VERSION};
use workloads::{
    suite, CollectiveTuning, MsgDist, RunSpec, ScalingMode, Workload, COLLECTIVE_REGISTRY,
    SUITE_REGISTRY,
};

use crate::args::{ArgError, Args};
use crate::error::{CliError, CmdOut};
use crate::experiments::{with_subheader, SUBHEADER_BYTES};

/// An option a command accepts.
pub(crate) struct Opt {
    /// The option's name, without the leading `--`.
    pub(crate) name: &'static str,
    /// The placeholder `help` prints for its value.
    pub(crate) value: &'static str,
    /// Whether the command refuses to run without it; `help` prints
    /// the other options in brackets.
    pub(crate) required: bool,
}

/// An option the command can do without.
const fn opt(name: &'static str, value: &'static str) -> Opt {
    Opt {
        name,
        value,
        required: false,
    }
}

impl Opt {
    /// The same option, which the command cannot run without.
    const fn required(self) -> Opt {
        Opt {
            required: true,
            ..self
        }
    }
}

/// One `finepack-sim` command. [`crate::execute`] accepts exactly the
/// options its entry names and `help` lists the same ones, so the two
/// cannot disagree.
pub(crate) struct Command {
    pub(crate) name: &'static str,
    /// `help`'s description, wrapped when rendered.
    pub(crate) summary: &'static str,
    /// The accepted options, in groups, in `help`'s order.
    pub(crate) options: &'static [&'static [Opt]],
    pub(crate) run: fn(&Args) -> Result<CmdOut, CliError>,
}

impl Command {
    /// Every option the command accepts, in `help`'s order.
    pub(crate) fn accepted(&self) -> impl Iterator<Item = &'static Opt> {
        self.options.iter().flat_map(|group| group.iter())
    }
}

// Each option several commands accept, declared once, then the groups
// of them that travel together.
const APP: Opt = opt("app", "<name>");
const PAYLOAD: Opt = opt("payload", "BYTES");
const MSG_DIST: Opt = opt("msg-dist", "DIST");
const GPUS: Opt = opt("gpus", "N");
const ITERATIONS: Opt = opt("iterations", "K");
const SCALE_DOWN: Opt = opt("scale-down", "S");
const SEED: Opt = opt("seed", "S");
const PCIE: Opt = opt("pcie", "4|5|6");
const WINDOWS: Opt = opt("windows", "W");
const FLOW_CONTROL: Opt = opt("flow-control", "open|credited");
const BER: Opt = opt("ber", "RATE");
const FAULT_PROFILE: Opt = opt("fault-profile", "clean|noisy|outage|degraded|stuck");
const RUN_BUDGET: Opt = opt("run-budget", "SPEC");
const PARADIGM: Opt = opt("paradigm", "<name>");
const JOBS: Opt = opt("jobs", "N");
const TRACE: Opt = opt("trace", "<file>").required();

/// The workload: a suite app or a collective, and the collective's
/// tuning ([`find_app`]).
const WORKLOAD: &[Opt] = &[APP, PAYLOAD, MSG_DIST];
/// The run shape ([`spec_from`]).
const SHAPE: &[Opt] = &[GPUS, ITERATIONS, SCALE_DOWN, SEED];
/// Every knob [`system_from`] reads.
const SYSTEM: &[Opt] = &[PCIE, WINDOWS, FLOW_CONTROL, BER, FAULT_PROFILE, RUN_BUDGET];

/// Every command, in `help`'s order.
pub(crate) const COMMANDS: [Command; 16] = [
    Command {
        name: "run",
        summary: "simulate one app across paradigms; --json writes the \
                  per-paradigm reports as versioned canonical JSON",
        options: &[WORKLOAD, SHAPE, SYSTEM, &[opt("json", "FILE")]],
        run: |a| run_app(a).map(CmdOut::clean),
    },
    Command {
        name: "suite",
        summary: "Fig 9 table for the whole application suite; each app runs \
                  isolated, so a panic or a budget trip fails only its own row",
        options: &[SHAPE, &[PCIE, FLOW_CONTROL, RUN_BUDGET, JOBS]],
        run: suite_table,
    },
    Command {
        name: "collectives",
        summary: "AI-training collectives study: per-collective message-size \
                  crossover tables (FinePack vs bulk DMA vs plain stores, each \
                  as its time over the row's best) plus a weak-scaling curve \
                  over doubling GPU counts",
        options: &[
            &[opt("collective", "<name>|all"), PAYLOAD, MSG_DIST],
            SHAPE,
            &[opt("max-gpus", "N"), PCIE, WINDOWS, FLOW_CONTROL, JOBS],
        ],
        run: |a| collectives(a).map(CmdOut::clean),
    },
    Command {
        name: "goodput",
        summary: "goodput-vs-size curve (Fig 2)",
        options: &[&[opt("framing", "pcie|cxl|nvlink")]],
        run: |a| goodput(a).map(CmdOut::clean),
    },
    Command {
        name: "sweep-subheader",
        summary: "Table II / Fig 12 sub-header sweep over one app, or the \
                  whole suite without --app",
        options: &[WORKLOAD, SHAPE, &[JOBS]],
        run: |a| sweep_subheader(a).map(CmdOut::clean),
    },
    Command {
        name: "faults",
        summary: "bit-error-rate sweep: replay amplification under a faulty \
                  data link layer",
        options: &[
            WORKLOAD,
            SHAPE,
            &[PARADIGM, FLOW_CONTROL, FAULT_PROFILE, JOBS],
        ],
        run: |a| faults(a).map(CmdOut::clean),
    },
    Command {
        name: "trace",
        summary: "run one (app, paradigm) with event tracing and write a \
                  Chrome trace_event JSON (chrome://tracing / Perfetto) or a \
                  CSV time series; samples every --sample-interval ns \
                  (default 100, 0 disables) into a ring of --capacity events \
                  (default 1048576)",
        options: &[
            WORKLOAD,
            SHAPE,
            SYSTEM,
            &[
                PARADIGM,
                opt("format", "chrome|csv"),
                opt("out", "FILE"),
                opt("sample-interval", "NS"),
                opt("capacity", "EVENTS"),
            ],
        ],
        run: |a| trace(a).map(CmdOut::clean),
    },
    Command {
        name: "audit",
        summary: "conservation audit: replay the trace stream against \
                  cross-layer conservation laws (bytes, wire framing, credits, \
                  causality, transparency) over the whole configuration \
                  matrix; non-zero exit on any violation",
        options: &[WORKLOAD, SHAPE, &[PARADIGM]],
        run: |a| audit(a).map(CmdOut::clean),
    },
    Command {
        name: "area",
        summary: "FinePack SRAM footprint (§VI-B)",
        options: &[&[GPUS]],
        run: |a| area(a).map(CmdOut::clean),
    },
    Command {
        name: "record",
        summary: "synthesize traces to disk",
        options: &[&[opt("out", "<dir>").required()], WORKLOAD, SHAPE],
        run: |a| record(a).map(CmdOut::clean),
    },
    Command {
        name: "replay",
        summary: "replay a recorded trace on one GPU",
        options: &[&[TRACE, GPUS]],
        run: |a| replay(a).map(CmdOut::clean),
    },
    Command {
        name: "inspect",
        summary: "summarize a recorded trace",
        options: &[&[TRACE]],
        run: |a| inspect(a).map(CmdOut::clean),
    },
    Command {
        name: "analyze",
        summary: "profile a recorded trace's remote-store stream",
        options: &[&[TRACE, GPUS, opt("window-bytes", "B")]],
        run: |a| analyze(a).map(CmdOut::clean),
    },
    Command {
        name: "reproduce",
        summary: "regenerate the paper's tables and figures plus the \
                  extension studies at paper scale (EXPERIMENTS.md)",
        options: &[&[opt("experiment", "<name>|all")]],
        run: |a| reproduce(a).map(CmdOut::clean),
    },
    Command {
        name: "version",
        summary: "print the crate version and the report and trace schema \
                  versions (also: --version)",
        options: &[],
        run: |_| Ok(CmdOut::clean(version())),
    },
    Command {
        name: "help",
        summary: "this text",
        options: &[],
        run: |_| Ok(CmdOut::clean(help())),
    },
];

/// The column `help`'s command descriptions start at.
const HELP_INDENT: usize = 19;
/// The widest line `help` wraps to.
const HELP_WIDTH: usize = 78;

/// The `help` text: every [`COMMANDS`] entry with its options, then the
/// workload and paradigm names from their registries.
pub(crate) fn help() -> String {
    let mut out = String::from(
        "finepack-sim — command line of the FinePack (HPCA 2023) reproduction\n\n\
         USAGE: finepack-sim <command> [--option value]...\n\nCOMMANDS:\n",
    );
    for cmd in &COMMANDS {
        let _ = write!(out, "  {:<1$}", cmd.name, HELP_INDENT - 2);
        fill(&mut out, cmd.summary.split_whitespace().map(String::from));
        if !cmd.options.is_empty() {
            let _ = write!(out, "{:HELP_INDENT$}", "");
            fill(
                &mut out,
                cmd.accepted().map(|o| {
                    let usage = format!("--{} {}", o.name, o.value);
                    if o.required {
                        usage
                    } else {
                        format!("[{usage}]")
                    }
                }),
            );
        }
    }
    let apps: Vec<&str> = SUITE_REGISTRY.iter().map(|(n, _)| *n).collect();
    let collectives: Vec<&str> = COLLECTIVE_REGISTRY.iter().map(|(n, _)| *n).collect();
    let paradigms: Vec<String> = Paradigm::ALL.iter().map(Paradigm::to_string).collect();
    let _ = write!(
        out,
        "\nAPPS: {}\nCOLLECTIVES: {}\n  (accepted wherever --app is; tuned with --payload BYTES and\n  \
         --msg-dist DIST, one of fixed:N, uniform:MIN:MAX, bimodal:FINE:BULK:PCT)\n\
         PARADIGMS: {}\n{HELP_NOTES}",
        apps.join(" "),
        collectives.join(" "),
        paradigms.join(" "),
    );
    out
}

/// The end of `help`: what several commands' shared options do.
const HELP_NOTES: &str = "
FLOW CONTROL: `credited` (default) simulates the closed loop — finite
link credit pools backpressure the egress buffers and can stall the
GPU store streams (reported in the `stall` column); `open` is the
open-loop analytic model.

JOBS: `--jobs N` fans sweeps out over N worker threads (default: the
machine's available parallelism; `--jobs 1` forces the serial path).
Output is byte-identical for every N — parallelism never changes
results, only wall-clock time.

RUN BUDGETS: `--run-budget SPEC` bounds each run, where SPEC is a
plain integer (event ceiling) or comma-separated `events=N`,
`sim-ms=N`, `stall=N` (events without forward progress). In `suite`,
budget trips, panics, and runner errors become per-point failures:
the table keeps the surviving rows and a `failed points` section
lists the rest, the same at every --jobs.

EXIT CODES: 0 clean; 3 partial results (some suite points failed);
2 unrecoverable (usage, I/O, or simulation error).
";

/// Appends `items` to `out` separated by spaces, wrapped before
/// [`HELP_WIDTH`] with continuation lines indented to [`HELP_INDENT`],
/// and ends the line. `out` must already stand at that column.
fn fill(out: &mut String, items: impl Iterator<Item = String>) {
    let mut col = HELP_INDENT;
    for item in items {
        let len = item.chars().count();
        if col > HELP_INDENT && col + 1 + len > HELP_WIDTH {
            let _ = write!(out, "\n{:HELP_INDENT$}", "");
            col = HELP_INDENT;
        } else if col > HELP_INDENT {
            out.push(' ');
            col += 1;
        }
        out.push_str(&item);
        col += len;
    }
    out.push('\n');
}

/// Parses the collective knobs (`--payload`, `--msg-dist`) into a
/// tuning, defaulting any knob the command line leaves out.
fn tuning_from(args: &Args) -> Result<CollectiveTuning, ArgError> {
    let mut tuning = CollectiveTuning::default();
    tuning.payload_bytes = args.get_parsed("payload", tuning.payload_bytes, "payload bytes")?;
    if let Some(d) = args.get("msg-dist") {
        tuning.msg = MsgDist::parse(d).map_err(|_| {
            ArgError::invalid(
                "msg-dist",
                d,
                "fixed:N, uniform:MIN:MAX, or bimodal:FINE:BULK:PCT",
            )
        })?;
    }
    tuning
        .validate()
        .map_err(|e| ArgError::invalid("payload", e, "a valid collective tuning"))?;
    Ok(tuning)
}

/// Looks up an app by name across the suite and the collectives
/// registry; collectives pick up `--payload`/`--msg-dist` from `args`,
/// which suite apps reject.
fn find_app(args: &Args, name: &str) -> Result<Box<dyn Workload>, ArgError> {
    let tuning = tuning_from(args)?;
    if let Some(app) = suite().into_iter().find(|a| a.name() == name) {
        no_tuning(args)?;
        return Ok(app);
    }
    workloads::collective(name, &tuning).ok_or(ArgError::invalid(
        "app",
        format!("unknown app `{name}`"),
        "a suite or collective name (see `help`)",
    ))
}

/// Rejects the collective knobs, which suite apps do not take.
fn no_tuning(args: &Args) -> Result<(), ArgError> {
    for key in ["payload", "msg-dist"] {
        if let Some(value) = args.get(key) {
            return Err(ArgError::invalid(
                key,
                value,
                "a collective --app (suite apps take no --payload or --msg-dist)",
            ));
        }
    }
    Ok(())
}

/// Parses the run shape, on `default_gpus` GPUs unless `--gpus` says
/// otherwise. One GPU is a legal trace to record; every command that
/// simulates a fabric also needs a peer, which [`system_from`] checks.
fn spec_from(args: &Args, default_gpus: u8) -> Result<RunSpec, ArgError> {
    let mut spec =
        RunSpec::paper(args.get_in_range("gpus", default_gpus, 1..=64, "integer 1-64")?);
    spec.iterations = args.get_in_range(
        "iterations",
        spec.iterations,
        1..=u32::MAX,
        "positive integer",
    )?;
    spec.scale_down = args.get_in_range(
        "scale-down",
        spec.scale_down,
        1..=u32::MAX,
        "positive integer",
    )?;
    spec.seed = args.get_parsed("seed", spec.seed, "integer")?;
    Ok(spec)
}

/// Builds the simulated system every simulating command runs: the
/// paper's node with the `--pcie`, `--windows`, `--flow-control`,
/// `--ber`/`--fault-profile`, and `--run-budget` knobs applied. Options
/// a command does not accept are absent, so they keep the paper's
/// defaults.
fn system_from(args: &Args, spec: &RunSpec) -> Result<SystemConfig, ArgError> {
    if spec.num_gpus < 2 {
        return Err(ArgError::invalid(
            "gpus",
            spec.num_gpus,
            "integer 2-64 (the fabric needs a peer GPU)",
        ));
    }
    let gen = match args.get_in_range("pcie", 4u8, 4..=6, "4, 5, or 6")? {
        5 => PcieGen::Gen5,
        6 => PcieGen::Gen6,
        _ => PcieGen::Gen4,
    };
    let windows = args.get_in_range("windows", 1u32, 1..=64, "1-64")?;
    let fp = FinePackConfig::paper(u32::from(spec.num_gpus)).with_windows(windows);
    let mut cfg = SystemConfig::paper(spec.num_gpus)
        .with_pcie_gen(gen)
        .with_finepack(fp)
        .with_flow_control(flow_control_from(args)?);
    if let Some(profile) = fault_profile_from(args)? {
        cfg = cfg.with_faults(profile);
    }
    if let Some(budget) = run_budget_from(args)? {
        cfg = cfg.with_run_budget(budget);
    }
    Ok(cfg)
}

/// Parses `--run-budget SPEC`: a plain integer (event ceiling) or a
/// comma-separated list of `events=N`, `sim-ms=N`, `stall=N` (events
/// without forward progress).
fn run_budget_from(args: &Args) -> Result<Option<RunBudget>, ArgError> {
    let Some(spec) = args.get("run-budget") else {
        return Ok(None);
    };
    let invalid = |value: &str| {
        ArgError::invalid(
            "run-budget",
            value,
            "an event count, or `events=N,sim-ms=N,stall=N` parts",
        )
    };
    let mut budget = RunBudget::unlimited();
    for part in spec.split(',') {
        let (key, value) = match part.split_once('=') {
            Some(kv) => kv,
            None => ("events", part),
        };
        let n: u64 = value.trim().parse().map_err(|_| invalid(part))?;
        if n == 0 {
            return Err(invalid(part));
        }
        match key.trim() {
            "events" => budget = budget.with_max_events(n),
            // Simulated time is u64 picoseconds: a longer ceiling would wrap.
            "sim-ms" if n > u64::MAX / 1_000_000_000 => {
                return Err(ArgError::invalid(
                    "run-budget",
                    part,
                    "sim-ms at most 18446744073",
                ))
            }
            "sim-ms" => budget = budget.with_max_sim_time(SimTime::from_ms(n)),
            "stall" => budget = budget.with_progress_watchdog(n),
            _ => return Err(invalid(part)),
        }
    }
    Ok(Some(budget))
}

/// Parses `--jobs N` into a [`WorkerPool`] (default: the machine's
/// available parallelism; `--jobs 1` selects the serial path).
fn pool_from(args: &Args) -> Result<WorkerPool, ArgError> {
    let default = WorkerPool::default_parallel().jobs();
    let jobs = args.get_in_range("jobs", default, 1..=usize::MAX, "positive worker count")?;
    Ok(WorkerPool::new(jobs))
}

/// Parses `--flow-control open|credited` (default: the paper-scale
/// credited pool).
fn flow_control_from(args: &Args) -> Result<FlowControlMode, ArgError> {
    match args.get_or("flow-control", "credited") {
        "open" => Ok(FlowControlMode::Open),
        "credited" => Ok(FlowControlMode::Credited(CreditConfig::paper())),
        other => Err(ArgError::invalid("flow-control", other, "open or credited")),
    }
}

/// Builds a [`FaultProfile`] from `--ber` and `--fault-profile`, or
/// `None` when neither is given (the paper's fault-free evaluation).
fn fault_profile_from(args: &Args) -> Result<Option<FaultProfile>, ArgError> {
    let ber: Option<f64> = match args.get("ber") {
        None => None,
        Some(v) => Some(
            v.parse()
                .map_err(|_| ArgError::invalid("ber", v, "bit-error rate in [0, 1], e.g. 1e-8"))?,
        ),
    };
    let profile = match args.get("fault-profile") {
        None => ber.map(FaultProfile::new),
        Some(name) => {
            let base = FaultProfile::new(ber.unwrap_or(match name {
                "clean" | "outage" | "stuck" => 0.0,
                _ => 1e-7,
            }));
            Some(match name {
                "clean" => base,
                "noisy" => base,
                "outage" => base.with_outage(0, SimTime::from_us(5), SimTime::from_us(60)),
                "degraded" => base
                    .with_outage(0, SimTime::from_us(5), SimTime::from_us(60))
                    .with_degrade(0.5),
                "stuck" => base.stuck_link(0, SimTime::ZERO),
                other => {
                    return Err(ArgError::invalid(
                        "fault-profile",
                        other,
                        "clean, noisy, outage, degraded, or stuck",
                    ))
                }
            })
        }
    };
    if let Some(p) = &profile {
        if !(0.0..=1.0).contains(&p.ber) {
            return Err(ArgError::invalid("ber", p.ber, "bit-error rate in [0, 1]"));
        }
    }
    Ok(profile)
}

/// `goodput [--framing pcie|cxl|nvlink]`
pub(crate) fn goodput(args: &Args) -> Result<String, CliError> {
    let (name, fm) = match args.get_or("framing", "pcie") {
        "pcie" => ("PCIe 4.0", FramingModel::pcie_gen4()),
        "cxl" => ("CXL.io", FramingModel::cxl()),
        "nvlink" => ("NVLink-flit", FramingModel::nvlink_flit()),
        other => return Err(ArgError::invalid("framing", other, "pcie, cxl, or nvlink").into()),
    };
    let mut t = Table::new(
        format!("{name} goodput vs transfer size"),
        &["size (B)", "wire (B)", "goodput"],
    );
    for size in fig2_sizes() {
        let wire = fm.bulk_wire_bytes(u64::from(size));
        t.row(&[
            size.to_string(),
            wire.to_string(),
            format!("{:.1}%", 100.0 * f64::from(size) / wire as f64),
        ]);
    }
    Ok(t.render())
}

/// `run --app <name> ...`: one app across every paradigm.
pub(crate) fn run_app(args: &Args) -> Result<String, CliError> {
    let app = find_app(args, args.get_or("app", "pagerank"))?;
    let spec = spec_from(args, 4)?;
    let cfg = system_from(args, &spec)?;
    let (text, reports) = run_table(app.as_ref(), &spec, &cfg);
    if let Some(path) = args.get("json") {
        let mut doc = String::from("{\n  \"schema_version\": 1,\n  \"reports\": [\n");
        for (i, report) in reports.iter().enumerate() {
            doc.push_str("    ");
            doc.push_str(report);
            doc.push_str(if i + 1 < reports.len() { ",\n" } else { "\n" });
        }
        doc.push_str("  ]\n}\n");
        std::fs::write(path, doc).map_err(|e| CliError::io(path, e))?;
    }
    Ok(text)
}

/// Renders the `run` table, plus the canonical JSON of every run that
/// survived (in paradigm order) for `--json`.
fn run_table(app: &dyn Workload, spec: &RunSpec, cfg: &SystemConfig) -> (String, Vec<String>) {
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
    let mut reports = Vec::new();
    for p in Paradigm::ALL {
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
                reports.push(RunReport::canonical_json(&report));
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
    (t.render(), reports)
}

fn find_paradigm(name: &str) -> Result<Paradigm, ArgError> {
    name.parse()
        .map_err(|_| ArgError::invalid("paradigm", name, "one of the paradigm names (see `help`)"))
}

/// `faults [--app <name>] [--paradigm <name>] ...`
pub(crate) fn faults(args: &Args) -> Result<String, CliError> {
    let app = find_app(args, args.get_or("app", "pagerank"))?;
    let spec = spec_from(args, 4)?;
    let pool = pool_from(args)?;
    let paradigm = find_paradigm(args.get_or("paradigm", "finepack"))?;
    let cfg = system_from(args, &spec)?;
    let bers = [0.0, 1e-8, 1e-7, 1e-6, 1e-5];
    let points = fault_sweep(app.as_ref(), &cfg, &spec, paradigm, &bers, &pool);
    let mut t = Table::new(
        format!(
            "{} under link faults ({paradigm}, {} GPUs)",
            app.name(),
            spec.num_gpus
        ),
        &[
            "BER",
            "slowdown",
            "wire bytes",
            "replayed",
            "replay %",
            "retrains",
            "worst flush",
        ],
    );
    for point in &points {
        match &point.outcome {
            Ok(r) => {
                let total = r.traffic.total();
                let worst = r
                    .replay_amplification
                    .rows()
                    .into_iter()
                    .max_by_key(|(_, bytes)| *bytes)
                    .map(|(label, bytes)| format!("{label} ({bytes}B)"))
                    .unwrap_or_else(|| "-".into());
                t.row(&[
                    format!("{:.0e}", point.ber),
                    point
                        .slowdown
                        .map(|s| format!("{s:.3}x"))
                        .unwrap_or_else(|| "-".into()),
                    total.to_string(),
                    r.replayed_bytes.to_string(),
                    format!(
                        "{:.2}%",
                        100.0 * r.replayed_bytes as f64 / total.max(1) as f64
                    ),
                    r.link_retrains.to_string(),
                    worst,
                ]);
            }
            Err(e) => t.row(&[
                format!("{:.0e}", point.ber),
                "dead".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                e.to_string(),
            ]),
        }
    }
    Ok(t.render())
}

/// `suite ...`: the Fig 9 table for the whole suite, run under the
/// supervisor.
pub(crate) fn suite_table(args: &Args) -> Result<CmdOut, CliError> {
    let spec = spec_from(args, 4)?;
    let cfg = system_from(args, &spec)?;
    let pool = pool_from(args)?;
    Ok(suite_report(&spec, &cfg, &pool))
}

/// Renders the supervised `suite` table, including the failed-points
/// section and the partial-results epilogue.
fn suite_report(spec: &RunSpec, cfg: &SystemConfig, pool: &WorkerPool) -> CmdOut {
    let sup = sweep(&suite(), spec, &[*cfg], &Paradigm::FIG9, pool);
    let mut t = Table::new(
        format!("suite speedups on {} GPUs, {}", spec.num_gpus, cfg.pcie_gen),
        &["app", "bulk-dma", "p2p-stores", "finepack", "infinite-bw"],
    );
    for rows in sup.apps.iter().filter_map(|a| a.outcome.as_ref().ok()) {
        let row = &rows[0];
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
    let partial = !sup.all_ok();
    if partial {
        let failed = sup.failed().count();
        let _ = writeln!(
            out,
            "\nfailed points ({failed} of {} apps):",
            sup.apps.len()
        );
        for (app, failure) in sup.failed() {
            let _ = writeln!(out, "  {app}: {failure}");
        }
        let _ = writeln!(out, "partial results: exiting with code 3");
    }
    // The single-core caveat depends on the machine, not on `--jobs`,
    // so output stays byte-identical across it.
    if WorkerPool::default_parallel().jobs() == 1 {
        let _ = writeln!(
            out,
            "warning: this machine reports a single available core; \
             --jobs cannot reduce wall-clock time here"
        );
    }
    CmdOut { text: out, partial }
}

/// `collectives ...`: the AI-training collectives study — a fine-vs-bulk
/// message-size crossover table per collective, then a weak-scaling
/// curve over growing GPU counts. The report text never includes
/// wall-clock numbers, so it stays byte-identical across `--jobs`.
pub(crate) fn collectives(args: &Args) -> Result<String, CliError> {
    // The crossover table at a fixed GPU count uses the paper's strong
    // scaling (same semantics as `run`); the scaling section below
    // switches to weak scaling, the data-parallel training regime.
    let spec = spec_from(args, 8)?;
    let cfg = system_from(args, &spec)?;
    let pool = pool_from(args)?;
    let tuning = tuning_from(args)?;
    let max_gpus: u8 = args.get_in_range("max-gpus", 16u8, 2..=64, "integer 2-64")?;
    if max_gpus < spec.num_gpus {
        return Err(ArgError::invalid("max-gpus", max_gpus, "at least --gpus").into());
    }
    let names: Vec<&'static str> =
        match args.get_or("collective", "all") {
            "all" => COLLECTIVE_REGISTRY.iter().map(|(n, _)| *n).collect(),
            name => {
                let entry = COLLECTIVE_REGISTRY.iter().find(|(n, _)| *n == name).ok_or(
                    ArgError::invalid(
                        "collective",
                        name,
                        "a collective name or `all` (see `help`)",
                    ),
                )?;
                vec![entry.0]
            }
        };

    let mut total_events = 0u64;
    let mut out = String::new();
    let paradigms = [Paradigm::BulkDma, Paradigm::P2pStores, Paradigm::FinePack];

    // Crossover: the same collective under a ladder of message sizes,
    // from FinePack's home turf (tens of bytes) to DMA's (tens of KB).
    let ladder: Vec<MsgDist> = {
        let mut l = vec![
            MsgDist::Fixed(16),
            MsgDist::Fixed(256),
            MsgDist::Fixed(4096),
            MsgDist::Fixed(65536),
        ];
        if !l.contains(&tuning.msg) {
            l.push(tuning.msg);
        }
        l
    };
    for name in &names {
        let apps: Vec<Box<dyn Workload>> = ladder
            .iter()
            .map(|m| {
                workloads::collective(name, &CollectiveTuning { msg: *m, ..tuning })
                    .expect("registry name")
            })
            .collect();
        let res = sweep(&apps, &spec, &[cfg], &paradigms, &pool);
        total_events += res.sim_events;
        let mut t = Table::new(
            format!(
                "{name}: message-size crossover on {} GPUs, {}B payload/GPU \
                 (time / the row's best time)",
                spec.num_gpus, tuning.payload_bytes
            ),
            &["msg-dist", "bulk-dma", "p2p-stores", "finepack", "best"],
        );
        for (m, row) in ladder.iter().zip(res.rows(0)) {
            // A time ratio is the inverse speedup ratio: the best
            // paradigm prints 1.000, the others how much slower they are.
            let best = row.speedups.iter().max_by(|a, b| a.1.total_cmp(&b.1));
            let cell = |p| match (row.speedup(p), best) {
                (Some(s), Some((_, fastest))) => format!("{:.3}", fastest / s),
                _ => "-".into(),
            };
            t.row(&[
                m.to_string(),
                cell(Paradigm::BulkDma),
                cell(Paradigm::P2pStores),
                cell(Paradigm::FinePack),
                best.map(|(p, _)| p.to_string()).unwrap_or_default(),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');
    }

    // Weak scaling: GPU counts double from 2 up to --max-gpus.
    let mut counts = Vec::new();
    let mut c = 2u8;
    while c <= max_gpus {
        counts.push(c);
        if c > u8::MAX / 2 {
            break;
        }
        c *= 2;
    }
    if counts.last() != Some(&max_gpus) {
        counts.push(max_gpus);
    }
    let apps: Vec<Box<dyn Workload>> = names
        .iter()
        .map(|n| workloads::collective(n, &tuning).expect("registry name"))
        .collect();
    // Weak scaling: per-GPU work stays constant as the cluster grows —
    // the data-parallel training regime the collectives model. Each GPU
    // count prepares the apps anew, so each is its own sweep.
    let curve: Vec<(u8, Vec<SpeedupRow>)> = counts
        .iter()
        .map(|&n| {
            let weak = RunSpec {
                num_gpus: n,
                scaling: ScalingMode::Weak,
                ..spec
            };
            let cfg = system_from(args, &weak).expect("flags validated on the base spec");
            let paradigms = [Paradigm::BulkDma, Paradigm::FinePack];
            let res = sweep(&apps, &weak, &[cfg], &paradigms, &pool);
            total_events += res.sim_events;
            (n, res.rows(0))
        })
        .collect();
    let mut t = Table::new(
        format!(
            "weak scaling to {max_gpus} GPUs ({}B payload/GPU, {})",
            tuning.payload_bytes, tuning.msg
        ),
        &["collective", "gpus", "bulk-dma", "finepack", "fp/dma"],
    );
    for (i, name) in names.iter().enumerate() {
        for (n, rows) in &curve {
            let row = &rows[i];
            let dma = row.speedup(Paradigm::BulkDma);
            let fp = row.speedup(Paradigm::FinePack);
            let cell = |v: Option<f64>| v.map(|s| format!("{s:.2}x")).unwrap_or_else(|| "-".into());
            let ratio = match (fp, dma) {
                (Some(f), Some(d)) if d > 0.0 => format!("{:.2}", f / d),
                _ => "-".into(),
            };
            t.row(&[
                (*name).to_string(),
                n.to_string(),
                cell(dma),
                cell(fp),
                ratio,
            ]);
        }
    }
    out.push_str(&t.render());
    let _ = writeln!(out, "total sim events: {total_events}");
    Ok(out)
}

/// `version` / `--version`: the crate version plus the schema versions
/// of the machine-readable outputs.
pub(crate) fn version() -> String {
    format!(
        "finepack-sim {} (report schema {REPORT_SCHEMA_VERSION}, \
         trace schema {CHROME_TRACE_SCHEMA_VERSION})\n",
        env!("CARGO_PKG_VERSION")
    )
}

/// `sweep-subheader ...`
pub(crate) fn sweep_subheader(args: &Args) -> Result<String, CliError> {
    let spec = spec_from(args, 4)?;
    let cfg = system_from(args, &spec)?;
    let pool = pool_from(args)?;
    let apps: Vec<Box<dyn Workload>> = match args.get("app") {
        Some(name) => vec![find_app(args, name)?],
        None => {
            no_tuning(args)?;
            suite()
        }
    };
    let cfgs: Vec<SystemConfig> = SUBHEADER_BYTES.map(|b| with_subheader(&cfg, b)).collect();
    let grid = sweep(&apps, &spec, &cfgs, &[Paradigm::FinePack], &pool);
    let mut t = Table::new(
        "FinePack sub-header sweep (geomean speedup)",
        &["subheader", "window", "speedup"],
    );
    for (i, bytes) in SUBHEADER_BYTES.enumerate() {
        let f = SubheaderFormat::new(bytes).expect("valid");
        t.row(&[
            format!("{bytes}B"),
            format!("{}B", f.addressable_range()),
            format!("{:.2}x", grid.geomean(i, Paradigm::FinePack)),
        ]);
    }
    Ok(t.render())
}

/// `area [--gpus N]`
pub(crate) fn area(args: &Args) -> Result<String, CliError> {
    let gpus: u32 = args.get_in_range("gpus", 4u32, 2..=64, "integer 2-64")?;
    let cfg = FinePackConfig::paper(gpus);
    let model = AreaModel::new(cfg);
    let mut out = String::new();
    let _ = writeln!(out, "FinePack SRAM footprint at {gpus} GPUs:");
    let _ = writeln!(
        out,
        "  remote write queue: {} entries, {}KB data ({} partitions)",
        cfg.total_entries(),
        cfg.data_sram_bytes() >> 10,
        cfg.num_partitions
    );
    let _ = writeln!(
        out,
        "  total incl. tags/masks/ingress buffer: {}KB",
        model.total_bytes() >> 10
    );
    let _ = writeln!(
        out,
        "  fraction of GV100 cache: {:.3}%  |  of GA100 cache: {:.3}%",
        100.0 * model.fraction_of_cache(AreaModel::GV100_CACHE_BYTES),
        100.0 * model.fraction_of_cache(AreaModel::GA100_CACHE_BYTES)
    );
    Ok(out)
}

/// `trace [--app <name>] [--paradigm <name>] [--format chrome|csv] ...`:
/// runs one (app, paradigm) with a ring collector attached and exports
/// the recorded lifecycle events and time-series samples.
pub(crate) fn trace(args: &Args) -> Result<String, CliError> {
    let app = find_app(args, args.get_or("app", "jacobi"))?;
    let spec = spec_from(args, 4)?;
    let cfg = system_from(args, &spec)?;
    let paradigm = find_paradigm(args.get_or("paradigm", "finepack"))?;
    let format = args.get_or("format", "chrome");
    if !matches!(format, "chrome" | "csv") {
        return Err(ArgError::invalid("format", format, "chrome or csv").into());
    }
    // Simulated time is u64 picoseconds: a longer interval would wrap.
    let sample_ns: u64 = args.get_in_range(
        "sample-interval",
        100u64,
        0..=u64::MAX / 1_000,
        "nanoseconds, at most 18446744073709551 (0 disables sampling)",
    )?;
    let capacity: usize = args.get_in_range(
        "capacity",
        1 << 20,
        1..=usize::MAX,
        "positive ring capacity",
    )?;
    let out_path = args.get_or(
        "out",
        if format == "chrome" {
            "trace.json"
        } else {
            "trace.csv"
        },
    );

    let prep = PreparedWorkload::new(app.as_ref(), &cfg, &spec);
    let mut ring = RingCollector::new(capacity, capacity);
    let sample_every = (sample_ns > 0).then(|| SimTime::from_ns(sample_ns));
    let report = prep
        .try_run_traced(&cfg, paradigm, &mut ring, sample_every)
        .map_err(|e| CliError::Failed(e.to_string()))?;

    let events: Vec<TraceEvent> = ring.events().copied().collect();
    let samples: Vec<Sample> = ring.samples().copied().collect();
    let dropped = ring.dropped_events();

    // Self-check: with nothing dropped, per-reason flush events must
    // equal the run's aggregate counters exactly.
    if dropped == 0 {
        for reason in FlushReason::ALL {
            let in_trace = events
                .iter()
                .filter(|e| matches!(e.kind, EventKind::Flush { reason: r } if r == reason.label()))
                .count() as u64;
            let in_report = report.egress.flushes_for(reason);
            if in_trace != in_report {
                return Err(CliError::Failed(format!(
                    "trace self-check failed: {in_trace} `{}` flush events \
                     vs {in_report} in the run's aggregates",
                    reason.label()
                )));
            }
        }
    }

    let rendered = match format {
        "chrome" => telemetry::chrome_trace(&events, &samples),
        _ => telemetry::time_series_csv(&samples),
    };
    std::fs::write(out_path, &rendered).map_err(|e| CliError::io(out_path, e))?;

    let mut by_label: std::collections::BTreeMap<&'static str, u64> = Default::default();
    for e in &events {
        *by_label.entry(e.kind.label()).or_insert(0) += 1;
    }
    let mut t = Table::new(
        format!(
            "trace of {} under {paradigm} ({} GPUs, sim time {})",
            app.name(),
            spec.num_gpus,
            report.total_time
        ),
        &["event", "count"],
    );
    for (label, count) in &by_label {
        t.row(&[(*label).to_string(), count.to_string()]);
    }
    let mut out = t.render();
    let _ = writeln!(
        out,
        "{} events ({} dropped), {} samples -> {out_path} ({format})",
        events.len(),
        dropped,
        samples.len()
    );
    if dropped > 0 {
        let _ = writeln!(
            out,
            "note: ring overflowed; the file holds the run's last {capacity} events \
             (raise --capacity for full coverage)"
        );
    }
    Ok(out)
}

/// `audit [--app NAME] [--paradigm NAME] [--gpus N] [--iterations K]
/// [--scale-down S] [--seed S]`
///
/// Sweeps the conservation auditor over the configuration matrix —
/// every PCIe generation × open/credited flow control × fault profile ×
/// paradigm (FinePack additionally under both RWQ allocation policies)
/// — and fails (non-zero exit) with a per-law report if any run
/// violates a conservation law.
pub(crate) fn audit(args: &Args) -> Result<String, CliError> {
    let app = find_app(args, args.get_or("app", "jacobi"))?;
    let spec = spec_from(args, 4)?;
    let paradigms: Vec<Paradigm> = match args.get("paradigm") {
        Some(name) => vec![find_paradigm(name)?],
        None => Paradigm::ALL.to_vec(),
    };
    // Trace replay is independent of every swept axis: prepare once.
    let base = system_from(args, &spec)?;
    let prep = PreparedWorkload::new(app.as_ref(), &base, &spec);

    let faults: [(&str, Option<FaultProfile>); 3] = [
        ("clean", None),
        ("ber-1e-6", Some(FaultProfile::new(1e-6))),
        (
            "outage",
            Some(FaultProfile::new(0.0).with_outage(0, SimTime::from_us(5), SimTime::from_us(60))),
        ),
    ];
    let allocations_for = |p: Paradigm| -> &'static [(&'static str, AllocationPolicy)] {
        if p == Paradigm::FinePack {
            &[
                ("static", AllocationPolicy::StaticPartition),
                ("dynamic", AllocationPolicy::DynamicShared),
            ]
        } else {
            &[("static", AllocationPolicy::StaticPartition)]
        }
    };

    let mut runs = 0u64;
    let mut law_totals = [0u64; 5];
    let mut failures = String::new();
    for gen in PcieGen::ALL {
        for open in [false, true] {
            for (fault_name, profile) in &faults {
                for &paradigm in &paradigms {
                    for (alloc_name, alloc) in allocations_for(paradigm) {
                        let mut cfg = base.with_pcie_gen(gen);
                        if open {
                            cfg = cfg.with_flow_control(FlowControlMode::Open);
                        }
                        if let Some(p) = profile {
                            cfg = cfg.with_faults(*p);
                        }
                        if paradigm == Paradigm::FinePack {
                            cfg = cfg.with_finepack(
                                FinePackConfig::paper(u32::from(spec.num_gpus))
                                    .with_allocation(*alloc),
                            );
                        }
                        runs += 1;
                        let point = format!(
                            "{gen:?}/{}/{fault_name}/{paradigm}/{alloc_name}",
                            if open { "open" } else { "credited" }
                        );
                        match audit_run(&prep, &cfg, paradigm) {
                            Ok(outcome) => {
                                for (total, count) in law_totals.iter_mut().zip(outcome.law_counts)
                                {
                                    *total += count;
                                }
                                if !outcome.is_clean() {
                                    let _ = writeln!(failures, "{point}:\n{}", outcome.rendered);
                                }
                            }
                            Err(e) => {
                                let _ = writeln!(failures, "{point}: run died: {e}");
                            }
                        }
                    }
                }
            }
        }
    }

    let mut t = Table::new(
        format!(
            "conservation audit of {} ({} GPUs, {} matrix points)",
            app.name(),
            spec.num_gpus,
            runs
        ),
        &["law", "violations"],
    );
    for (law, total) in Law::ALL.iter().zip(law_totals) {
        t.row(&[law.label().to_string(), total.to_string()]);
    }
    let mut out = t.render();
    if failures.is_empty() {
        let _ = writeln!(out, "all {runs} matrix points clean");
        Ok(out)
    } else {
        let _ = writeln!(out, "\nviolating points:\n{failures}");
        Err(CliError::Failed(out))
    }
}

/// `record --app <name> --out <dir> ...`
pub(crate) fn record(args: &Args) -> Result<String, CliError> {
    let app = find_app(args, args.get_or("app", "pagerank"))?;
    let out_dir = args.get("out").expect("execute checks required options");
    let spec = spec_from(args, 4)?;
    std::fs::create_dir_all(out_dir).map_err(|e| CliError::io(out_dir, e))?;
    let mut report = String::new();
    for iter in 0..spec.iterations {
        for g in 0..spec.num_gpus {
            let trace = app.trace(&spec, iter, GpuId::new(g));
            let bytes = write_trace(&trace);
            let path = format!("{out_dir}/{}.g{g}.i{iter}.fpkt", app.name());
            std::fs::write(&path, &bytes).map_err(|e| CliError::io(&path, e))?;
            let _ = writeln!(
                report,
                "{path}: {} ops, {} stores, {} bytes",
                trace.len(),
                trace.store_count(),
                bytes.len()
            );
        }
    }
    Ok(report)
}

fn load_trace(args: &Args) -> Result<gpu_model::KernelTrace, CliError> {
    let path = args.get("trace").expect("execute checks required options");
    let bytes = std::fs::read(path).map_err(|e| CliError::io(path, e))?;
    read_trace(&bytes).map_err(|e| CliError::Failed(format!("{path}: {e}")))
}

/// GPU0 of the `--gpus` node that `replay` and `analyze` run `trace` on.
/// A node too small for the addresses the trace touches (it was
/// recorded on a larger one) is a usage error, not a routing panic.
fn replay_gpu(args: &Args, trace: &gpu_model::KernelTrace) -> Result<Gpu, CliError> {
    let gpus: u8 = args.get_in_range("gpus", 4u8, 1..=64, "integer 1-64")?;
    let map = AddressMap::new(gpus, 16 << 30);
    if let Some(top) = trace.highest_address() {
        if top / map.bytes_per_gpu() >= u64::from(gpus) {
            return Err(CliError::Usage(format!(
                "--gpus {gpus} is too small for trace `{}`: it touches address {top:#x}, \
                 outside a {gpus}-GPU node (16 GiB per GPU)",
                trace.name
            )));
        }
    }
    Ok(Gpu::new(gpu_model::GpuConfig::gv100(), GpuId::new(0), map))
}

/// `replay --trace <file> [--gpus N]`
pub(crate) fn replay(args: &Args) -> Result<String, CliError> {
    let trace = load_trace(args)?;
    let gpu = replay_gpu(args, &trace)?;
    let run = gpu.execute_kernel(&trace);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "replayed `{}` on GPU0 of {}:",
        run.name,
        gpu.address_map().num_gpus()
    );
    let _ = writeln!(out, "  kernel time: {}", run.kernel_time);
    let _ = writeln!(
        out,
        "  remote stores: {} ({} bytes, mean {:.1}B)",
        run.stats.remote_stores,
        run.stats.remote_bytes,
        run.stats.mean_remote_size().unwrap_or(0.0)
    );
    let _ = writeln!(
        out,
        "  local stores: {}  loads: {}  atomics: {}  fences: {}",
        run.stats.local_stores,
        run.stats.remote_loads,
        run.stats.remote_atomics,
        run.fences.len()
    );
    Ok(out)
}

/// `analyze --trace <file> [--gpus N] [--window-bytes B]`
pub(crate) fn analyze(args: &Args) -> Result<String, CliError> {
    let trace = load_trace(args)?;
    let window: u64 = args.get_parsed("window-bytes", 1u64 << 30, "power-of-two bytes")?;
    if !window.is_power_of_two() {
        return Err(ArgError::invalid("window-bytes", window, "power-of-two bytes").into());
    }
    let gpu = replay_gpu(args, &trace)?;
    let run = gpu.execute_kernel(&trace);
    let profile = profile_run(&run, window);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "profile of `{}` ({}B FinePack windows):",
        trace.name, window
    );
    let _ = writeln!(
        out,
        "  remote payload: {} bytes total, {} unique (rewrite factor {:.2})",
        profile.total_bytes,
        profile.unique_bytes,
        profile.rewrite_factor()
    );
    let _ = writeln!(
        out,
        "  store sizes: mean {:.1}B, p50 {}B, p90 {}B, {:.1}% <= 32B",
        profile.sizes.mean().unwrap_or(0.0),
        profile.sizes.quantile(0.5).unwrap_or(0),
        profile.sizes.quantile(0.9).unwrap_or(0),
        100.0 * profile.fine_grained_fraction()
    );
    let _ = writeln!(
        out,
        "  spatial locality: {:.1} consecutive stores per window run          (upper bound on FinePack packing from locality alone)",
        profile.window_run_length
    );
    let mut dsts: Vec<(usize, u64)> = profile
        .per_destination
        .iter()
        .map(|(d, c)| (*d, *c))
        .collect();
    dsts.sort_unstable();
    for (d, count) in dsts {
        let _ = writeln!(out, "  -> GPU{d}: {count} stores");
    }
    Ok(out)
}

/// `reproduce [--experiment <name>|all]`: renders one registered
/// experiment, or all of them, at paper scale.
pub(crate) fn reproduce(args: &Args) -> Result<String, CliError> {
    let spec = RunSpec::paper(4);
    let name = args.get_or("experiment", "all");
    if name == "all" {
        return Ok(crate::reproduce_all(&spec));
    }
    match crate::EXPERIMENT_REGISTRY
        .iter()
        .find(|(n, _, _)| *n == name)
    {
        Some((_, _, render)) => Ok(render(&spec)),
        None => {
            let names: Vec<&str> = crate::EXPERIMENT_REGISTRY
                .iter()
                .map(|(n, _, _)| *n)
                .collect();
            Err(CliError::Usage(format!(
                "--experiment {name}: expected `all` or one of: {}",
                names.join(", ")
            )))
        }
    }
}

/// `inspect --trace <file>`
pub(crate) fn inspect(args: &Args) -> Result<String, CliError> {
    let trace = load_trace(args)?;
    let mut out = String::new();
    let _ = writeln!(out, "trace `{}`:", trace.name);
    let _ = writeln!(out, "  ops: {}", trace.len());
    let _ = writeln!(out, "  compute cycles: {}", trace.total_compute_cycles());
    let _ = writeln!(out, "  warp stores: {}", trace.store_count());
    let _ = writeln!(out, "  remote loads: {}", trace.load_count());
    let _ = writeln!(out, "  remote atomics: {}", trace.atomic_count());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs the words of `line`, then `tail` unsplit (paths may hold
    /// spaces), through [`crate::execute`], which checks the options
    /// against the command's table entry before the handler runs.
    fn cli(line: &str, tail: &[&str]) -> Result<CmdOut, CliError> {
        crate::execute(line.split_whitespace().chain(tail.iter().copied()))
    }

    #[test]
    fn record_replay_inspect_roundtrip() {
        let dir = std::env::temp_dir().join("finepack-sim-test");
        let dir_s = dir.to_str().expect("utf-8 temp dir");
        let shape = "--gpus 2 --iterations 1 --scale-down 16";
        let rec = cli(&format!("record --app jacobi {shape} --out"), &[dir_s]).unwrap();
        assert!(rec.text.contains("jacobi.g0.i0.fpkt"));
        let path = format!("{dir_s}/jacobi.g0.i0.fpkt");
        let rep = cli("replay --gpus 2 --trace", &[&path]).unwrap();
        assert!(rep.text.contains("remote stores"));
        let ins = cli("inspect --trace", &[&path]).unwrap();
        assert!(ins.text.contains("warp stores"));
        let ana = cli("analyze --gpus 2 --trace", &[&path]).unwrap();
        assert!(ana.text.contains("rewrite factor"));
        assert!(ana.text.contains("-> GPU1"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_missing_file_errors() {
        let e = cli("replay --trace /nonexistent.fpkt", &[]).unwrap_err();
        assert!(e.to_string().contains("nonexistent"));
        assert!(matches!(e, CliError::Io { .. }));
    }

    #[test]
    fn suite_runs_tiny() {
        let out = cli("suite --gpus 2 --scale-down 16 --iterations 1", &[]).unwrap();
        assert!(!out.partial);
        assert!(out.text.contains("jacobi") && out.text.contains("hit"));
    }

    #[test]
    fn faults_sweep_runs_tiny() {
        let line = "faults --app jacobi --gpus 2 --scale-down 16 --iterations 1";
        let out = cli(line, &[]).unwrap().text;
        assert!(out.contains("BER"), "{out}");
        assert!(out.contains("replay"), "{out}");
    }

    #[test]
    fn run_with_stuck_link_reports_dead_paradigms() {
        let line = "run --app jacobi --gpus 2 --scale-down 16 --iterations 1 --fault-profile stuck";
        let out = cli(line, &[]).unwrap().text;
        assert!(out.contains("dead"), "{out}");
        assert!(out.contains("no forward progress"), "{out}");
    }

    #[test]
    fn flow_control_flag_selects_regime() {
        let base = "run --app jacobi --gpus 2 --scale-down 16 --iterations 1";
        let credited = cli(base, &[]).unwrap().text;
        assert!(credited.contains("stall"), "{credited}");
        let open = cli(base, &["--flow-control", "open"]).unwrap().text;
        assert!(open.contains("stall"), "{open}");
        assert!(cli("run --flow-control throttled", &[]).is_err());
    }

    #[test]
    fn bad_fault_options_are_rejected() {
        for line in [
            "run --fault-profile gremlins",
            "run --ber 2.0",
            "run --ber lots",
        ] {
            assert!(cli(line, &[]).is_err(), "accepted {line}");
        }
    }

    #[test]
    fn suite_jobs_flag_is_output_invariant() {
        let base = "suite --gpus 2 --scale-down 16 --iterations 1 --jobs";
        assert_eq!(cli(base, &["1"]).unwrap(), cli(base, &["3"]).unwrap());
    }

    #[test]
    fn collectives_jobs_flag_is_output_invariant() {
        let base = "collectives --gpus 2 --max-gpus 4 --scale-down 256 --iterations 1 --jobs";
        assert_eq!(cli(base, &["1"]).unwrap(), cli(base, &["3"]).unwrap());
    }

    #[test]
    fn supervision_flags_are_validated() {
        for spec in ["0", "events=ten", "cycles=5"] {
            assert!(
                cli("suite --run-budget", &[spec]).is_err(),
                "accepted {spec}"
            );
        }
    }

    #[test]
    fn run_budget_spec_parses_all_forms() {
        let parse = |spec: &str| {
            run_budget_from(&Args::parse(["suite", "--run-budget", spec]).unwrap())
                .unwrap()
                .unwrap()
        };
        assert_eq!(parse("5000").max_events, Some(5000));
        let full = parse("events=10,sim-ms=20,stall=30");
        assert_eq!(full.max_events, Some(10));
        assert_eq!(full.max_sim_time, Some(SimTime::from_ms(20)));
        assert_eq!(full.max_events_since_progress, Some(30));
    }

    #[test]
    fn suite_with_tiny_budget_reports_partial_and_failed_points() {
        let line = "suite --gpus 2 --scale-down 16 --iterations 1 --run-budget 3";
        let out = cli(line, &[]).unwrap();
        assert!(out.partial, "{}", out.text);
        assert_eq!(out.exit_code(), crate::EXIT_PARTIAL);
        assert!(out.text.contains("failed points"), "{}", out.text);
        assert!(out.text.contains("event ceiling"), "{}", out.text);
        assert!(out.text.contains("exiting with code 3"), "{}", out.text);
    }

    #[test]
    fn run_with_tiny_budget_reports_dead_paradigms() {
        let line = "run --app jacobi --gpus 2 --scale-down 16 --iterations 1 --run-budget 3";
        let out = cli(line, &[]).unwrap().text;
        assert!(out.contains("dead"), "{out}");
        assert!(out.contains("run budget exceeded"), "{out}");
    }

    #[test]
    fn jobs_zero_is_rejected() {
        assert!(cli("suite --jobs 0", &[]).is_err());
        assert!(cli("suite --jobs many", &[]).is_err());
    }

    #[test]
    fn trace_writes_chrome_json_and_csv() {
        let base = "trace --app jacobi --gpus 2 --scale-down 16 --iterations 1";
        let json_file = std::env::temp_dir().join("finepack-trace-test.json");
        let json_s = json_file.to_str().expect("utf-8 temp path");
        let rendered = cli(base, &["--out", json_s]).unwrap().text;
        // The flush-count self-check passed and events were recorded.
        assert!(rendered.contains("flush"), "{rendered}");
        assert!(rendered.contains("wire-transmit"), "{rendered}");
        assert!(rendered.contains("(chrome)"), "{rendered}");
        let json = std::fs::read_to_string(json_s).unwrap();
        assert!(
            json.starts_with("{\"schema_version\":3,\"traceEvents\":["),
            "{}",
            &json[..80]
        );
        assert!(json.contains("\"flush:release\""));
        assert!(json.contains("\"name\":\"GPU0\""));
        let _ = std::fs::remove_file(&json_file);

        let csv_file = std::env::temp_dir().join("finepack-trace-test.csv");
        let csv_s = csv_file.to_str().expect("utf-8 temp path");
        let rendered = cli(base, &["--format", "csv", "--out", csv_s])
            .unwrap()
            .text;
        assert!(rendered.contains("(csv)"), "{rendered}");
        let csv = std::fs::read_to_string(csv_s).unwrap();
        assert!(csv.starts_with("time_ps,gpu,rwq_entries"), "{}", &csv[..60]);
        assert!(
            csv.lines().count() > 1,
            "no samples at the default interval"
        );
        let _ = std::fs::remove_file(&csv_file);
    }

    #[test]
    fn sweep_runs_tiny_single_app() {
        let line = "sweep-subheader --app pagerank --gpus 2 --scale-down 16 --iterations 1";
        assert!(cli(line, &[]).unwrap().text.contains("5B"));
    }
}
