//! Subcommand implementations.

use std::fmt::Write as _;

use finepack::{AllocationPolicy, AreaModel, FinePackConfig, FlushReason, SubheaderFormat};
use gpu_model::{profile_run, read_trace, write_trace, AddressMap, Gpu, GpuId};
use protocol::{fig2_sizes, FramingModel, PcieGen};
use sim_engine::Table;
use sim_engine::{SimTime, ThroughputReport, WallClock, WorkerPool};
use system::{
    audit_run, fault_sweep, run_suite_prepared, scaling_curve, subheader_sweep, CreditConfig,
    FaultProfile, FlowControlMode, Paradigm, PreparedWorkload, RunBudget, SystemConfig,
};
use telemetry::{EventKind, Law, Sample, TraceEvent, TraceHandle};
use workloads::{
    suite, CollectiveTuning, MsgDist, RunSpec, ScalingMode, Workload, COLLECTIVE_REGISTRY,
};

use crate::args::{ArgError, Args};
use crate::error::{CliError, CmdOut};

/// The `help` text.
pub(crate) fn help() -> String {
    "\
finepack-sim — FinePack (HPCA 2023) reproduction driver

USAGE: finepack-sim <command> [--option value]...

COMMANDS:
  run              simulate one app across paradigms
                   --app <name> [--gpus N] [--pcie 4|5|6]
                   [--iterations K] [--scale-down S] [--windows W]
                   [--flow-control open|credited]
                   [--ber RATE] [--fault-profile clean|noisy|outage|degraded|stuck]
                   [--json FILE (write per-paradigm reports as
                   versioned canonical JSON)]
  suite            Fig 9 table for the whole application suite, run
                   under the supervisor (panic isolation, retries,
                   budgets, chaos injection)
                   [--gpus N] [--pcie 4|5|6] [--scale-down S]
                   [--flow-control open|credited] [--jobs N]
                   [--retries N] [--chaos RATE] [--run-budget SPEC]
  collectives      AI-training collectives study: per-collective
                   message-size crossover tables (FinePack vs bulk DMA
                   vs plain stores) plus a weak-scaling curve over
                   doubling GPU counts
                   [--collective <name>|all] [--payload BYTES]
                   [--msg-dist fixed:N|uniform:MIN:MAX|bimodal:FINE:BULK:PCT]
                   [--gpus N] [--max-gpus N] [--pcie 4|5|6]
                   [--iterations K] [--scale-down S] [--seed S]
                   [--flow-control open|credited] [--jobs N]
                   [--bench-out FILE]
                   [--min-events-per-sec F]
  goodput          goodput-vs-size curve (Fig 2)
                   [--framing pcie|cxl|nvlink]
  sweep-subheader  Table II / Fig 12 sub-header sweep
                   [--app <name>] [--gpus N] [--scale-down S] [--jobs N]
  faults           bit-error-rate sweep: replay amplification under a
                   faulty data link layer
                   [--app <name>] [--gpus N] [--paradigm <name>]
                   [--scale-down S] [--iterations K] [--jobs N]
                   [--flow-control open|credited]
                   [--fault-profile clean|noisy|outage|degraded|stuck]
  bench            harness self-benchmark: serial vs parallel suite wall
                   clock, written as JSON; workload prep is untimed, then each variant
                   runs warmup passes followed by measured reps
                   reported as mean and sigma
                   [--gpus N] [--pcie 4|5|6] [--scale-down S]
                   [--iterations K] [--seed S] [--jobs N]
                   [--flow-control open|credited]
                   [--warmup N (default 1)] [--reps N (default 3)]
                   [--min-events-per-sec F (fail below this serial
                   throughput; 0 disables the gate)]
                   [--out FILE (default BENCH_harness.json)]
  trace            run one (app, paradigm) with event tracing and write
                   a Chrome trace_event JSON (chrome://tracing /
                   Perfetto) or a CSV time series
                   [--app <name>] [--paradigm <name>] [--gpus N]
                   [--iterations K] [--scale-down S]
                   [--format chrome|csv] [--out FILE]
                   [--sample-interval NS (default 100; 0 disables)]
                   [--capacity EVENTS (ring size, default 1048576)]
  audit            conservation audit: replay the trace stream against
                   cross-layer conservation laws (bytes, wire framing,
                   credits, causality, transparency) over the whole
                   configuration matrix; non-zero exit on any violation
                   [--app <name>] [--paradigm <name>] [--gpus N]
                   [--iterations K] [--scale-down S] [--seed S]
  area             FinePack SRAM footprint (§VI-B) [--gpus N]
  record           synthesize traces to disk
                   --app <name> --out <dir> [--gpus N] [--iterations K]
                   [--scale-down S]
  replay           replay a recorded trace on one GPU
                   --trace <file> [--gpus N]
  inspect          summarize a recorded trace --trace <file>
  analyze          profile a recorded trace's remote-store stream
                   --trace <file> [--gpus N] [--window-bytes B]
  serve            run the sweep-farm daemon: accept jobs over a unix
                   socket and answer repeats from a content-addressed
                   result cache (see DESIGN.md §13)
                   [--socket PATH (default finepack-farm.sock)]
                   [--cache-entries N (default 64; oldest evicted)]
                   [--jobs N]
                   [--trace-out FILE (Chrome trace of serving events,
                   written on shutdown)]
  submit           submit one job to a running daemon and print the
                   served report (byte-identical to the one-shot
                   run/suite output; stdout carries exactly the report)
                   [--socket PATH] [--kind run|suite (default run)]
                   [--audit true (run the conservation auditor on cache
                   misses and stamp the entry)]
                   plus the matching run/suite options above
  status           report a running daemon's cache and job counters
                   [--socket PATH]
  shutdown         stop a running daemon cleanly [--socket PATH]
  version          print version, build fingerprint, and schema
                   versions (also: --version)
  help             this text

APPS: jacobi pagerank sssp als ct eqwp diffusion hit
COLLECTIVES: ring-allreduce tree-allreduce alltoall halo2d broadcast
  (accepted wherever --app is; tuned with --payload and --msg-dist)
PARADIGMS: bulk-dma p2p-stores finepack write-combining gps infinite-bw

FLOW CONTROL: `credited` (default) simulates the closed loop — finite
link credit pools backpressure the egress buffers and can stall the
GPU store streams (reported in the `stall` column); `open` is the
open-loop analytic model.

JOBS: `--jobs N` fans sweeps out over N worker threads (default: the
machine's available parallelism; `--jobs 1` forces the serial path).
Output is byte-identical for every N — parallelism never changes
results, only wall-clock time.

SUPERVISION (suite): `--retries N` re-runs a failed sweep point up to N
extra times with the same derived seed (only the attempt index changes);
`--chaos RATE` injects deterministic failures (forced panics, slowdowns,
budget trips) at the given per-kind probability in [0, 1] to exercise
the supervisor — at a fixed seed the full report, including which points
failed and after how many retries, is byte-identical at every --jobs;
`--run-budget SPEC` bounds each run, where SPEC is a plain integer
(event ceiling) or comma-separated `events=N`, `sim-ms=N`, `stall=N`
(events without forward progress). Budget trips, panics, and runner
errors become per-point failures: the table keeps the surviving rows
and a `failed points` section lists the rest.

FARM: `serve` keeps a daemon resident with workloads warm and a
content-addressed result cache keyed on a canonical fingerprint of
(system config, seed, workload identity, build). Because reports are
byte-identical at every --jobs, a repeated `submit` of the
same sweep point is answered from cache without executing a single
simulation event; the build fingerprint is part of the key, so a
recompiled binary never serves stale entries.

EXIT CODES: 0 clean; 3 partial results (some supervised sweep points
failed after retries, one-shot or daemon-served); 2 unrecoverable
(usage, I/O, socket/protocol, or simulation error).
"
    .to_string()
}

/// Parses the collective knobs (`--payload`, `--msg-dist`) into a
/// tuning, defaulting any knob the command line leaves out.
fn tuning_from(args: &Args) -> Result<CollectiveTuning, ArgError> {
    let mut tuning = CollectiveTuning::default();
    tuning.payload_bytes = args.get_parsed("payload", tuning.payload_bytes, "payload bytes")?;
    if let Some(d) = args.get("msg-dist") {
        tuning.msg = MsgDist::parse(d).map_err(|_| ArgError::Invalid {
            key: "msg-dist".into(),
            value: d.to_string(),
            expected: "fixed:N, uniform:MIN:MAX, or bimodal:FINE:BULK:PCT",
        })?;
    }
    tuning.validate().map_err(|e| ArgError::Invalid {
        key: "payload".into(),
        value: e,
        expected: "a valid collective tuning",
    })?;
    Ok(tuning)
}

/// Looks up an app by name across the suite and the collectives
/// registry; collectives pick up `--payload`/`--msg-dist` from `args`.
fn find_app(args: &Args, name: &str) -> Result<Box<dyn Workload>, ArgError> {
    let tuning = tuning_from(args)?;
    suite()
        .into_iter()
        .find(|a| a.name() == name)
        .or_else(|| workloads::collective(name, &tuning))
        .ok_or(ArgError::Invalid {
            key: "app".into(),
            value: format!("unknown app `{name}`"),
            expected: "a suite or collective name (see `help`)",
        })
}

fn spec_from(args: &Args) -> Result<RunSpec, ArgError> {
    spec_from_gpus(args, 4)
}

fn spec_from_gpus(args: &Args, default_gpus: u8) -> Result<RunSpec, ArgError> {
    let mut spec = RunSpec::paper(args.get_parsed("gpus", default_gpus, "integer 1-64")?);
    spec.iterations = args.get_parsed("iterations", spec.iterations, "positive integer")?;
    spec.scale_down = args.get_parsed("scale-down", spec.scale_down, "positive integer")?;
    spec.seed = args.get_parsed("seed", spec.seed, "integer")?;
    spec.validate();
    Ok(spec)
}

fn system_from(args: &Args, spec: &RunSpec) -> Result<SystemConfig, ArgError> {
    let gen = match args.get_parsed("pcie", 4u8, "4, 5, or 6")? {
        4 => PcieGen::Gen4,
        5 => PcieGen::Gen5,
        6 => PcieGen::Gen6,
        _ => {
            return Err(ArgError::Invalid {
                key: "pcie".into(),
                value: args.get_or("pcie", "?").to_string(),
                expected: "4, 5, or 6",
            })
        }
    };
    let windows = args.get_parsed("windows", 1u32, "1-64")?;
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
    let invalid = |value: &str| ArgError::Invalid {
        key: "run-budget".into(),
        value: value.to_string(),
        expected: "an event count, or `events=N,sim-ms=N,stall=N` parts",
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
    match args.get("jobs") {
        None => Ok(WorkerPool::default_parallel()),
        Some(v) => {
            let jobs: usize = v.parse().map_err(|_| ArgError::Invalid {
                key: "jobs".into(),
                value: v.to_string(),
                expected: "positive worker count",
            })?;
            if jobs == 0 {
                return Err(ArgError::Invalid {
                    key: "jobs".into(),
                    value: v.to_string(),
                    expected: "positive worker count",
                });
            }
            Ok(WorkerPool::new(jobs))
        }
    }
}

/// Parses `--flow-control open|credited` (default: the paper-scale
/// credited pool).
fn flow_control_from(args: &Args) -> Result<FlowControlMode, ArgError> {
    match args.get_or("flow-control", "credited") {
        "open" => Ok(FlowControlMode::Open),
        "credited" => Ok(FlowControlMode::Credited(CreditConfig::paper())),
        other => Err(ArgError::Invalid {
            key: "flow-control".into(),
            value: other.to_string(),
            expected: "open or credited",
        }),
    }
}

/// Builds a [`FaultProfile`] from `--ber` and `--fault-profile`, or
/// `None` when neither is given (the paper's fault-free evaluation).
fn fault_profile_from(args: &Args) -> Result<Option<FaultProfile>, ArgError> {
    let ber: Option<f64> = match args.get("ber") {
        None => None,
        Some(v) => Some(v.parse().map_err(|_| ArgError::Invalid {
            key: "ber".into(),
            value: v.to_string(),
            expected: "bit-error rate in [0, 1], e.g. 1e-8",
        })?),
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
                    return Err(ArgError::Invalid {
                        key: "fault-profile".into(),
                        value: other.to_string(),
                        expected: "clean, noisy, outage, degraded, or stuck",
                    })
                }
            })
        }
    };
    if let Some(p) = &profile {
        if !(0.0..=1.0).contains(&p.ber) {
            return Err(ArgError::Invalid {
                key: "ber".into(),
                value: p.ber.to_string(),
                expected: "bit-error rate in [0, 1]",
            });
        }
    }
    Ok(profile)
}

/// `goodput [--framing pcie|cxl|nvlink]`
pub(crate) fn goodput(args: &Args) -> Result<String, CliError> {
    args.expect_only(&["framing"])?;
    let (name, fm) = match args.get_or("framing", "pcie") {
        "pcie" => ("PCIe 4.0", FramingModel::pcie_gen4()),
        "cxl" => ("CXL.io", FramingModel::cxl()),
        "nvlink" => ("NVLink-flit", FramingModel::nvlink_flit()),
        other => {
            return Err(ArgError::Invalid {
                key: "framing".into(),
                value: other.to_string(),
                expected: "pcie, cxl, or nvlink",
            }
            .into())
        }
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

/// Builds a farm [`farm::JobRequest`] from CLI args — the shared
/// front door for `run`, `suite`, and `submit`. Both the one-shot
/// commands and the daemon execute requests through
/// [`farm::execute_job`], so their outputs are byte-identical by
/// construction.
fn job_request_from(args: &Args, kind: farm::JobKind) -> Result<farm::JobRequest, CliError> {
    let mut req = farm::JobRequest::new(kind);
    req.gpus = args.get_parsed("gpus", req.gpus, "integer 2-64")?;
    req.pcie = args.get_parsed("pcie", req.pcie, "4, 5, or 6")?;
    req.iterations = args.get_parsed("iterations", req.iterations, "positive integer")?;
    req.scale_down = args.get_parsed("scale-down", req.scale_down, "positive integer")?;
    req.seed = args.get_parsed("seed", req.seed, "integer")?;
    req.windows = args.get_parsed("windows", req.windows, "1-64")?;
    req.open_loop = match args.get_or("flow-control", "credited") {
        "open" => true,
        "credited" => false,
        other => {
            return Err(ArgError::Invalid {
                key: "flow-control".into(),
                value: other.to_string(),
                expected: "open or credited",
            }
            .into())
        }
    };
    req.budget = budget_spec_from(args)?;
    match kind {
        farm::JobKind::Run => {
            req.app = Some(args.get_or("app", "pagerank").to_string());
            req.payload = match args.get("payload") {
                None => None,
                Some(v) => Some(v.parse().map_err(|_| ArgError::Invalid {
                    key: "payload".into(),
                    value: v.to_string(),
                    expected: "collective payload bytes",
                })?),
            };
            req.msg_dist = args.get("msg-dist").map(str::to_string);
            req.ber = match args.get("ber") {
                None => None,
                Some(v) => Some(v.parse().map_err(|_| ArgError::Invalid {
                    key: "ber".into(),
                    value: v.to_string(),
                    expected: "bit-error rate in [0, 1], e.g. 1e-8",
                })?),
            };
            req.fault_profile = args.get("fault-profile").map(str::to_string);
        }
        farm::JobKind::Suite => {
            req.retries = args.get_parsed("retries", 0u32, "retry count")?;
            req.chaos = match args.get("chaos") {
                None => None,
                Some(v) => Some(v.parse().map_err(|_| ArgError::Invalid {
                    key: "chaos".into(),
                    value: v.to_string(),
                    expected: "injection rate in [0, 1]",
                })?),
            };
        }
    }
    req.validate()?;
    Ok(req)
}

/// Parses `--run-budget SPEC` into the farm's wire-level budget form
/// (same grammar as [`run_budget_from`]).
fn budget_spec_from(args: &Args) -> Result<Option<farm::BudgetSpec>, ArgError> {
    let Some(spec) = args.get("run-budget") else {
        return Ok(None);
    };
    let invalid = |value: &str| ArgError::Invalid {
        key: "run-budget".into(),
        value: value.to_string(),
        expected: "an event count, or `events=N,sim-ms=N,stall=N` parts",
    };
    let mut budget = farm::BudgetSpec::default();
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
            "events" => budget.events = Some(n),
            "sim-ms" => budget.sim_ms = Some(n),
            "stall" => budget.stall = Some(n),
            _ => return Err(invalid(part)),
        }
    }
    Ok(Some(budget))
}

/// `run --app <name> ...`: delegates to [`farm::execute_job`], the
/// same code path the sweep-farm daemon serves from.
pub(crate) fn run_app(args: &Args) -> Result<String, CliError> {
    args.expect_only(&[
        "app",
        "payload",
        "msg-dist",
        "gpus",
        "pcie",
        "iterations",
        "scale-down",
        "seed",
        "windows",
        "flow-control",
        "ber",
        "fault-profile",
        "run-budget",
        "json",
    ])?;
    let req = job_request_from(args, farm::JobKind::Run)?;
    let out = farm::execute_job(&req, &WorkerPool::serial())?;
    if let Some(path) = args.get("json") {
        let mut doc = String::from("{\n  \"schema_version\": 1,\n  \"reports\": [\n");
        for (i, report) in out.reports_json.iter().enumerate() {
            doc.push_str("    ");
            doc.push_str(report);
            doc.push_str(if i + 1 < out.reports_json.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        doc.push_str("  ]\n}\n");
        std::fs::write(path, doc).map_err(|e| CliError::io(path, e))?;
    }
    Ok(out.text)
}

fn find_paradigm(name: &str) -> Result<Paradigm, ArgError> {
    [
        Paradigm::BulkDma,
        Paradigm::P2pStores,
        Paradigm::FinePack,
        Paradigm::WriteCombining,
        Paradigm::Gps,
        Paradigm::InfiniteBw,
    ]
    .into_iter()
    .find(|p| p.to_string() == name)
    .ok_or(ArgError::Invalid {
        key: "paradigm".into(),
        value: name.to_string(),
        expected: "one of the paradigm names (see `help`)",
    })
}

/// `faults [--app <name>] [--paradigm <name>] ...`
pub(crate) fn faults(args: &Args) -> Result<String, CliError> {
    args.expect_only(&[
        "app",
        "payload",
        "msg-dist",
        "gpus",
        "paradigm",
        "iterations",
        "scale-down",
        "seed",
        "jobs",
        "flow-control",
        "fault-profile",
    ])?;
    let app = find_app(args, args.get_or("app", "pagerank"))?;
    let spec = spec_from(args)?;
    let pool = pool_from(args)?;
    let paradigm = find_paradigm(args.get_or("paradigm", "finepack"))?;
    let mut cfg = SystemConfig::paper(spec.num_gpus).with_flow_control(flow_control_from(args)?);
    if let Some(profile) = fault_profile_from(args)? {
        cfg = cfg.with_faults(profile);
    }
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

/// `suite ...`: delegates to [`farm::execute_job`], the same code path
/// the sweep-farm daemon serves from.
pub(crate) fn suite_table(args: &Args) -> Result<CmdOut, CliError> {
    args.expect_only(&[
        "gpus",
        "pcie",
        "iterations",
        "scale-down",
        "seed",
        "jobs",
        "flow-control",
        "retries",
        "chaos",
        "run-budget",
    ])?;
    let req = job_request_from(args, farm::JobKind::Suite)?;
    let pool = pool_from(args)?;
    let out = farm::execute_job(&req, &pool)?;
    Ok(CmdOut {
        text: out.text,
        partial: out.partial,
    })
}

/// `collectives ...`: the AI-training collectives study — a fine-vs-bulk
/// message-size crossover table per collective, then a weak-scaling
/// curve over growing GPU counts. The report text never includes
/// wall-clock numbers, so it stays byte-identical across `--jobs`;
/// throughput goes to `--bench-out` JSON.
pub(crate) fn collectives(args: &Args) -> Result<String, CliError> {
    args.expect_only(&[
        "collective",
        "payload",
        "msg-dist",
        "gpus",
        "max-gpus",
        "pcie",
        "iterations",
        "scale-down",
        "seed",
        "windows",
        "flow-control",
        "jobs",
        "bench-out",
        "min-events-per-sec",
    ])?;
    // The crossover table at a fixed GPU count uses the paper's strong
    // scaling (same semantics as `run`); the scaling section below
    // switches to weak scaling, the data-parallel training regime.
    let spec = spec_from_gpus(args, 8)?;
    let cfg = system_from(args, &spec)?;
    let pool = pool_from(args)?;
    let tuning = tuning_from(args)?;
    let max_gpus: u8 = args.get_parsed("max-gpus", 16u8, "integer 2-64")?;
    if max_gpus < spec.num_gpus {
        return Err(ArgError::Invalid {
            key: "max-gpus".into(),
            value: max_gpus.to_string(),
            expected: "at least --gpus",
        }
        .into());
    }
    let names: Vec<&'static str> =
        match args.get_or("collective", "all") {
            "all" => COLLECTIVE_REGISTRY.iter().map(|(n, _)| *n).collect(),
            name => {
                let entry = COLLECTIVE_REGISTRY.iter().find(|(n, _)| *n == name).ok_or(
                    ArgError::Invalid {
                        key: "collective".into(),
                        value: name.to_string(),
                        expected: "a collective name or `all` (see `help`)",
                    },
                )?;
                vec![entry.0]
            }
        };

    let clock = WallClock::start();
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
        let prepared = system::prepare_apps(&apps, &cfg, &spec, &pool);
        let res = run_suite_prepared(&prepared, &cfg, &paradigms, &pool);
        total_events += res.sim_events;
        let mut t = Table::new(
            format!(
                "{name}: message-size crossover on {} GPUs, {}B payload/GPU",
                spec.num_gpus, tuning.payload_bytes
            ),
            &["msg-dist", "bulk-dma", "p2p-stores", "finepack", "best"],
        );
        for (m, row) in ladder.iter().zip(&res.rows) {
            let cell = |p| {
                row.speedup(p)
                    .map(|s| format!("{s:.2}x"))
                    .unwrap_or_else(|| "-".into())
            };
            let best = row
                .speedups
                .iter()
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .map(|(p, _)| p.to_string())
                .unwrap_or_default();
            t.row(&[
                m.to_string(),
                cell(Paradigm::BulkDma),
                cell(Paradigm::P2pStores),
                cell(Paradigm::FinePack),
                best,
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
    // the data-parallel training regime the collectives model.
    let mut weak = spec;
    weak.scaling = ScalingMode::Weak;
    let make_cfg = |n: u8| {
        let mut s = weak;
        s.num_gpus = n;
        system_from(args, &s).expect("flags validated on the base spec")
    };
    let curve = scaling_curve(
        &apps,
        &weak,
        &counts,
        &make_cfg,
        &[Paradigm::BulkDma, Paradigm::FinePack],
        &pool,
    );
    let mut t = Table::new(
        format!(
            "weak scaling to {max_gpus} GPUs ({}B payload/GPU, {})",
            tuning.payload_bytes, tuning.msg
        ),
        &["collective", "gpus", "bulk-dma", "finepack", "fp/dma"],
    );
    for (i, name) in names.iter().enumerate() {
        for point in &curve {
            let row = &point.rows[i];
            let dma = row.speedup(Paradigm::BulkDma);
            let fp = row.speedup(Paradigm::FinePack);
            let cell = |v: Option<f64>| v.map(|s| format!("{s:.2}x")).unwrap_or_else(|| "-".into());
            let ratio = match (fp, dma) {
                (Some(f), Some(d)) if d > 0.0 => format!("{:.2}", f / d),
                _ => "-".into(),
            };
            t.row(&[
                (*name).to_string(),
                point.num_gpus.to_string(),
                cell(dma),
                cell(fp),
                ratio,
            ]);
        }
    }
    for point in &curve {
        total_events += point.sim_events;
    }
    out.push_str(&t.render());
    let _ = writeln!(out, "total sim events: {total_events}");

    let wall = clock.elapsed().as_secs_f64();
    let eps = total_events as f64 / wall.max(f64::MIN_POSITIVE);
    if let Some(path) = args.get("bench-out") {
        let json = format!(
            "{{\n  \"bench\": \"collectives\",\n  \"schema_version\": 1,\n  \
             \"gpus\": {},\n  \"max_gpus\": {},\n  \"payload_bytes\": {},\n  \
             \"msg_dist\": \"{}\",\n  \"collectives\": {},\n  \"sim_events\": {},\n  \
             \"wall_seconds\": {:.6},\n  \"events_per_sec\": {:.1}\n}}\n",
            spec.num_gpus,
            max_gpus,
            tuning.payload_bytes,
            tuning.msg,
            names.len(),
            total_events,
            wall,
            eps,
        );
        std::fs::write(path, json).map_err(|e| CliError::io(path, e))?;
    }
    let floor: f64 = args.get_parsed("min-events-per-sec", 0.0f64, "events/s floor")?;
    if floor > 0.0 && eps < floor {
        return Err(CliError::Failed(format!(
            "collectives throughput {eps:.0} events/s is below the floor {floor:.0}"
        )));
    }
    Ok(out)
}

/// The default farm socket path.
const DEFAULT_SOCKET: &str = "finepack-farm.sock";

/// `serve [--socket PATH] ...`: run the sweep-farm daemon until a
/// `shutdown` command arrives on the socket.
pub(crate) fn serve(args: &Args) -> Result<String, CliError> {
    args.expect_only(&["socket", "cache-entries", "jobs", "trace-out"])?;
    let socket = args.get_or("socket", DEFAULT_SOCKET).to_string();
    let config = farm::ServeConfig {
        socket: socket.clone(),
        cache_entries: args.get_parsed("cache-entries", 64usize, "cache entry capacity")?,
        jobs: match args.get("jobs") {
            None => farm::available_parallelism(),
            Some(_) => {
                let pool = pool_from(args)?;
                pool.jobs()
            }
        },
        trace_out: args.get("trace-out").map(str::to_string),
    };
    let cache_entries = config.cache_entries;
    let server = farm::Server::bind(config)?;
    // Announce readiness before blocking so wrappers know the socket is
    // live (the returned text only prints after shutdown).
    println!(
        "farm: serving on {socket} (cache capacity {cache_entries}, {} build)",
        farm::build_fingerprint()
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.run()?;
    Ok(format!("farm: daemon on {socket} shut down cleanly\n"))
}

/// `submit [--socket PATH] [--kind run|suite] [--audit true] ...`:
/// submit one job to a running daemon and print the served report.
/// Stdout carries exactly the report bytes (so it can be diffed against
/// the one-shot `run`/`suite` output); job lifecycle lines go to
/// stderr.
pub(crate) fn submit(args: &Args) -> Result<CmdOut, CliError> {
    args.expect_only(&[
        "socket",
        "kind",
        "app",
        "payload",
        "msg-dist",
        "gpus",
        "pcie",
        "iterations",
        "scale-down",
        "seed",
        "windows",
        "flow-control",
        "ber",
        "fault-profile",
        "retries",
        "chaos",
        "run-budget",
        "audit",
    ])?;
    let kind = match args.get_or("kind", "run") {
        "run" => farm::JobKind::Run,
        "suite" => farm::JobKind::Suite,
        other => {
            return Err(ArgError::Invalid {
                key: "kind".into(),
                value: other.to_string(),
                expected: "run or suite",
            }
            .into())
        }
    };
    let mut req = job_request_from(args, kind)?;
    req.audit = match args.get_or("audit", "false") {
        "true" => true,
        "false" => false,
        other => {
            return Err(ArgError::Invalid {
                key: "audit".into(),
                value: other.to_string(),
                expected: "true or false",
            }
            .into())
        }
    };
    let socket = args.get_or("socket", DEFAULT_SOCKET);
    let outcome = farm::submit(socket, &req, |job| {
        eprintln!("farm: job {job} missed the cache, simulating");
    })?;
    if outcome.cache_hit {
        eprintln!(
            "farm: job {} served from cache (fingerprint {}, hit {})",
            outcome.job, outcome.fingerprint, outcome.hits
        );
    }
    if outcome.audit_clean == Some(false) {
        return Err(CliError::Failed(format!(
            "conservation audit found violations for job {} (fingerprint {})",
            outcome.job, outcome.fingerprint
        )));
    }
    Ok(CmdOut {
        text: outcome.report,
        partial: outcome.partial,
    })
}

/// `status [--socket PATH]`: report a running daemon's counters.
pub(crate) fn farm_status(args: &Args) -> Result<String, CliError> {
    args.expect_only(&["socket"])?;
    let socket = args.get_or("socket", DEFAULT_SOCKET);
    let s = farm::status(socket)?;
    let mut out = String::new();
    let _ = writeln!(out, "farm status on {socket}:");
    let _ = writeln!(out, "  version: {} (build {})", s.version, s.build);
    let _ = writeln!(out, "  jobs submitted: {}", s.jobs_submitted);
    let _ = writeln!(out, "  sim events executed: {}", s.sim_events_total);
    let _ = writeln!(
        out,
        "  cache: {} of {} entries; {} hits, {} misses, {} evictions",
        s.cache_entries, s.cache_capacity, s.cache_hits, s.cache_misses, s.cache_evictions
    );
    Ok(out)
}

/// `shutdown [--socket PATH]`: stop a running daemon cleanly.
pub(crate) fn farm_shutdown(args: &Args) -> Result<String, CliError> {
    args.expect_only(&["socket"])?;
    let socket = args.get_or("socket", DEFAULT_SOCKET);
    farm::shutdown(socket)?;
    Ok(format!("farm: daemon on {socket} shut down\n"))
}

/// `version` / `--version`: crate version plus build fingerprint (the
/// same identity folded into every cache key).
pub(crate) fn version() -> String {
    farm::version_line()
}

/// `sweep-subheader ...`
pub(crate) fn sweep_subheader(args: &Args) -> Result<String, CliError> {
    args.expect_only(&[
        "app",
        "payload",
        "msg-dist",
        "gpus",
        "scale-down",
        "iterations",
        "seed",
        "jobs",
    ])?;
    let spec = spec_from(args)?;
    let cfg = SystemConfig::paper(spec.num_gpus);
    let pool = pool_from(args)?;
    let apps: Vec<Box<dyn Workload>> = match args.get("app") {
        Some(name) => vec![find_app(args, name)?],
        None => suite(),
    };
    let sweep = subheader_sweep(&apps, &cfg, &spec, &pool);
    let mut t = Table::new(
        "FinePack sub-header sweep (geomean speedup)",
        &["subheader", "window", "speedup"],
    );
    for (bytes, speedup) in sweep {
        let f = SubheaderFormat::new(bytes).expect("valid");
        t.row(&[
            format!("{bytes}B"),
            format!("{}B", f.addressable_range()),
            format!("{speedup:.2}x"),
        ]);
    }
    Ok(t.render())
}

/// `area [--gpus N]`
pub(crate) fn area(args: &Args) -> Result<String, CliError> {
    args.expect_only(&["gpus"])?;
    let gpus: u32 = args.get_parsed("gpus", 4u32, "integer >= 2")?;
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
    args.expect_only(&[
        "app",
        "payload",
        "msg-dist",
        "paradigm",
        "gpus",
        "pcie",
        "iterations",
        "scale-down",
        "seed",
        "windows",
        "flow-control",
        "ber",
        "fault-profile",
        "run-budget",
        "format",
        "out",
        "sample-interval",
        "capacity",
    ])?;
    let app = find_app(args, args.get_or("app", "jacobi"))?;
    let spec = spec_from(args)?;
    let cfg = system_from(args, &spec)?;
    let paradigm = find_paradigm(args.get_or("paradigm", "finepack"))?;
    let format = args.get_or("format", "chrome");
    if !matches!(format, "chrome" | "csv") {
        return Err(CliError::Usage(format!(
            "--format must be chrome or csv, got `{format}`"
        )));
    }
    let sample_ns: u64 = args.get_parsed(
        "sample-interval",
        100u64,
        "nanoseconds (0 disables sampling)",
    )?;
    let capacity: usize = args.get_parsed("capacity", 1usize << 20, "positive ring capacity")?;
    if capacity == 0 {
        return Err(CliError::Usage("--capacity must be positive".into()));
    }
    let out_path = args.get_or(
        "out",
        if format == "chrome" {
            "trace.json"
        } else {
            "trace.csv"
        },
    );

    let prep = PreparedWorkload::new(app.as_ref(), &cfg, &spec);
    let (handle, ring) = TraceHandle::ring(capacity, capacity);
    let sample_every = (sample_ns > 0).then(|| SimTime::from_ns(sample_ns));
    let report = prep
        .try_run_traced(&cfg, paradigm, handle, sample_every)
        .map_err(|e| CliError::Failed(e.to_string()))?;

    let (events, samples, dropped): (Vec<TraceEvent>, Vec<Sample>, u64) = {
        let collector = ring
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        (
            collector.events().copied().collect(),
            collector.samples().copied().collect(),
            collector.dropped_events(),
        )
    };

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
    args.expect_only(&[
        "app",
        "payload",
        "msg-dist",
        "paradigm",
        "gpus",
        "iterations",
        "scale-down",
        "seed",
    ])?;
    let app = find_app(args, args.get_or("app", "jacobi"))?;
    let spec = spec_from(args)?;
    let paradigms: Vec<Paradigm> = match args.get("paradigm") {
        Some(name) => vec![find_paradigm(name)?],
        None => vec![
            Paradigm::BulkDma,
            Paradigm::P2pStores,
            Paradigm::FinePack,
            Paradigm::WriteCombining,
            Paradigm::Gps,
            Paradigm::InfiniteBw,
        ],
    };
    // Trace replay is independent of every swept axis: prepare once.
    let base = SystemConfig::paper(spec.num_gpus);
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
                        let mut cfg = SystemConfig::paper(spec.num_gpus).with_pcie_gen(gen);
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

/// One timed pass over an already-prepared suite, reduced to a
/// throughput report plus the `Debug`-rendered rows used for the
/// determinism cross-check. Workload elaboration and single-GPU
/// baselines happen before the clock starts, so the measurement covers
/// the event core alone.
fn timed_prepared(
    apps: &[system::PreparedApp],
    cfg: &SystemConfig,
    pool: &WorkerPool,
) -> (ThroughputReport, String) {
    let clock = WallClock::start();
    let result = run_suite_prepared(apps, cfg, &Paradigm::FIG9, pool);
    let report = ThroughputReport::new(clock.elapsed(), result.sim_events, result.sim_time);
    (report, format!("{:?}", result.rows))
}

/// Mean and sample standard deviation (σ, n-1 denominator; zero for a
/// single measurement).
fn mean_sigma(xs: &[f64]) -> (f64, f64) {
    let n = xs.len().max(1) as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = if xs.len() > 1 {
        xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0)
    } else {
        0.0
    };
    (mean, var.sqrt())
}

/// Runs `reps` timed passes after `warmup` untimed ones, returning the
/// per-rep reports, the first pass's rendered rows, and whether every
/// rep (warmup included) produced identical rows.
fn measured_reps(
    apps: &[system::PreparedApp],
    cfg: &SystemConfig,
    pool: &WorkerPool,
    warmup: u32,
    reps: u32,
) -> (Vec<ThroughputReport>, String, bool) {
    let mut rows: Option<String> = None;
    let mut stable = true;
    let mut check = |r: String| match &rows {
        None => rows = Some(r),
        Some(first) => stable &= *first == r,
    };
    for _ in 0..warmup {
        let (_, r) = timed_prepared(apps, cfg, pool);
        check(r);
    }
    let mut reports = Vec::with_capacity(reps as usize);
    for _ in 0..reps.max(1) {
        let (report, r) = timed_prepared(apps, cfg, pool);
        check(r);
        reports.push(report);
    }
    (reports, rows.expect("at least one rep"), stable)
}

/// `bench ...`: times the full suite serially and under the worker
/// pool, checks the outputs match, and writes the comparison as JSON.
pub(crate) fn bench(args: &Args) -> Result<String, CliError> {
    args.expect_only(&[
        "gpus",
        "pcie",
        "iterations",
        "scale-down",
        "seed",
        "jobs",
        "flow-control",
        "run-budget",
        "out",
        "warmup",
        "reps",
        "min-events-per-sec",
    ])?;
    let spec = spec_from(args)?;
    let cfg = system_from(args, &spec)?;
    let pool = pool_from(args)?;
    let out_path = args.get_or("out", "BENCH_harness.json");
    let warmup: u32 = args.get_parsed("warmup", 1u32, "warm-up pass count")?;
    let reps: u32 = args.get_parsed("reps", 3u32, "positive measured-rep count")?;
    let floor: f64 = args.get_parsed("min-events-per-sec", 0.0f64, "serial events/s floor")?;
    let apps = suite();

    // Elaborate traces and single-GPU baselines once, outside every
    // timed region: the benchmark measures event-core throughput, not
    // workload preparation. Prep cost is still reported, separately.
    let prep_clock = WallClock::start();
    let prepared = system::prepare_apps(&apps, &cfg, &spec, &WorkerPool::serial());
    let prep_seconds = prep_clock.elapsed().as_secs_f64();

    // Warm-up passes pay first-touch costs (page faults, lazy allocator
    // growth) so no measured rep does; then `reps` measured passes give
    // a mean and a dispersion instead of a single noisy sample.
    let (serial_reps, serial_rows, serial_stable) =
        measured_reps(&prepared, &cfg, &WorkerPool::serial(), warmup, reps);
    // Same warmup for the pool: its first-touch costs (thread spawn,
    // per-worker allocator growth) must not bias the speedup ratio.
    let (parallel_reps, parallel_rows, parallel_stable) =
        measured_reps(&prepared, &cfg, &pool, warmup, reps);
    let deterministic = serial_stable && parallel_stable && serial_rows == parallel_rows;
    let eps = |r: &ThroughputReport| r.events_per_sec();
    let wall = |r: &ThroughputReport| r.wall.as_secs_f64();
    let (serial_eps, serial_eps_sigma) =
        mean_sigma(&serial_reps.iter().map(eps).collect::<Vec<_>>());
    let (serial_wall, serial_wall_sigma) =
        mean_sigma(&serial_reps.iter().map(wall).collect::<Vec<_>>());
    let (parallel_eps, parallel_eps_sigma) =
        mean_sigma(&parallel_reps.iter().map(eps).collect::<Vec<_>>());
    let (parallel_wall, parallel_wall_sigma) =
        mean_sigma(&parallel_reps.iter().map(wall).collect::<Vec<_>>());
    let speedup = serial_wall / parallel_wall.max(f64::MIN_POSITIVE);

    // A sub-1.0 "speedup" on a box with one usable core is thread
    // overhead, not a harness regression: record the machine's
    // parallelism alongside the numbers so consumers can tell.
    let available = farm::available_parallelism();
    let single_core = available == 1 || pool.jobs() == 1;

    let queue_backend = sim_engine::EventQueue::<u8>::new().backend_name();
    let json = format!(
        "{{\n  \"bench\": \"harness\",\n  \"schema_version\": 1,\n  \
         \"queue_backend\": \"{}\",\n  \"gpus\": {},\n  \
         \"pcie\": \"{}\",\n  \
         \"iterations\": {},\n  \"scale_down\": {},\n  \"seed\": {},\n  \"apps\": {},\n  \
         \"jobs\": {},\n  \"available_parallelism\": {},\n  \
         \"single_core\": {},\n  \"warmup_reps\": {},\n  \"measured_reps\": {},\n  \
         \"prep_seconds\": {:.6},\n  \
         \"sim_events\": {},\n  \"sim_time_ps\": {},\n  \
         \"serial\": {{ \"wall_seconds\": {:.6}, \"wall_seconds_sigma\": {:.6}, \
         \"events_per_sec\": {:.1}, \"events_per_sec_sigma\": {:.1}, \
         \"sim_ps_per_wall_sec\": {:.1} }},\n  \
         \"parallel\": {{ \"wall_seconds\": {:.6}, \"wall_seconds_sigma\": {:.6}, \
         \"events_per_sec\": {:.1}, \"events_per_sec_sigma\": {:.1}, \
         \"sim_ps_per_wall_sec\": {:.1} }},\n  \"speedup\": {:.3},\n  \
         \"parallel_efficiency\": {:.3},\n  \"deterministic\": {}\n}}\n",
        queue_backend,
        spec.num_gpus,
        cfg.pcie_gen,
        spec.iterations,
        spec.scale_down,
        spec.seed,
        apps.len(),
        pool.jobs(),
        available,
        single_core,
        warmup,
        serial_reps.len(),
        prep_seconds,
        serial_reps[0].events,
        serial_reps[0].sim_time.as_ps(),
        serial_wall,
        serial_wall_sigma,
        serial_eps,
        serial_eps_sigma,
        serial_reps[0].sim_time.as_ps() as f64 / serial_wall.max(f64::MIN_POSITIVE),
        parallel_wall,
        parallel_wall_sigma,
        parallel_eps,
        parallel_eps_sigma,
        parallel_reps[0].sim_time.as_ps() as f64 / parallel_wall.max(f64::MIN_POSITIVE),
        speedup,
        speedup / pool.jobs() as f64,
        deterministic,
    );
    std::fs::write(out_path, &json).map_err(|e| CliError::io(out_path, e))?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "harness bench: {} apps x {} paradigms, {} GPUs, scale-down {}, \
         {} queue, {warmup} warmup + {} reps (prep {:.0} ms untimed)",
        apps.len(),
        Paradigm::FIG9.len(),
        spec.num_gpus,
        spec.scale_down,
        queue_backend,
        serial_reps.len(),
        1e3 * prep_seconds,
    );
    let _ = writeln!(
        out,
        "  serial   (1 job):  {:>9.2} ms, {:.0} events/s (sigma {:.0})",
        1e3 * serial_wall,
        serial_eps,
        serial_eps_sigma,
    );
    let _ = writeln!(
        out,
        "  parallel ({} jobs): {:>8.2} ms, {:.0} events/s (sigma {:.0})",
        pool.jobs(),
        1e3 * parallel_wall,
        parallel_eps,
        parallel_eps_sigma,
    );
    let _ = writeln!(
        out,
        "  speedup: {speedup:.2}x  deterministic: {deterministic}  -> {out_path}"
    );
    if single_core {
        let _ = writeln!(
            out,
            "  note: single-core run (available parallelism {available}, jobs {}); \
             speedup reflects thread overhead, not harness performance",
            pool.jobs()
        );
    }
    farm::single_core_warning(&mut out);
    if !deterministic {
        return Err(CliError::Failed(format!(
            "parallel suite output diverged from serial (jobs = {})",
            pool.jobs()
        )));
    }
    // The CI regression gate: fail when mean serial throughput drops
    // below the committed floor. Overridable per invocation by passing
    // a lower (or zero) `--min-events-per-sec`.
    if floor > 0.0 && serial_eps < floor {
        let _ = writeln!(
            out,
            "FAIL: serial throughput {serial_eps:.0} events/s is below the floor \
             {floor:.0} (sigma {serial_eps_sigma:.0}); lower or drop \
             --min-events-per-sec to override"
        );
        return Err(CliError::Failed(out));
    }
    if floor > 0.0 {
        let _ = writeln!(
            out,
            "  bench gate: {serial_eps:.0} events/s >= floor {floor:.0}"
        );
    }
    Ok(out)
}

/// `record --app <name> --out <dir> ...`
pub(crate) fn record(args: &Args) -> Result<String, CliError> {
    args.expect_only(&[
        "app",
        "payload",
        "msg-dist",
        "out",
        "gpus",
        "iterations",
        "scale-down",
        "seed",
    ])?;
    let app = find_app(args, args.get_or("app", "pagerank"))?;
    let out_dir = args
        .get("out")
        .ok_or_else(|| CliError::Usage("record needs --out <dir>".into()))?;
    let spec = spec_from(args)?;
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
    let path = args
        .get("trace")
        .ok_or_else(|| CliError::Usage("needs --trace <file>".into()))?;
    let bytes = std::fs::read(path).map_err(|e| CliError::io(path, e))?;
    read_trace(&bytes).map_err(|e| CliError::Failed(format!("{path}: {e}")))
}

/// `replay --trace <file> [--gpus N]`
pub(crate) fn replay(args: &Args) -> Result<String, CliError> {
    args.expect_only(&["trace", "gpus"])?;
    let trace = load_trace(args)?;
    let gpus: u8 = args.get_parsed("gpus", 4u8, "integer")?;
    let map = AddressMap::new(gpus, 16 << 30);
    let gpu = Gpu::new(gpu_model::GpuConfig::gv100(), GpuId::new(0), map);
    let run = gpu.execute_kernel(&trace);
    let mut out = String::new();
    let _ = writeln!(out, "replayed `{}` on GPU0 of {gpus}:", run.name);
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
    args.expect_only(&["trace", "gpus", "window-bytes"])?;
    let trace = load_trace(args)?;
    let gpus: u8 = args.get_parsed("gpus", 4u8, "integer")?;
    let window: u64 = args.get_parsed("window-bytes", 1u64 << 30, "power-of-two bytes")?;
    if !window.is_power_of_two() {
        return Err(CliError::Usage(
            "--window-bytes must be a power of two".into(),
        ));
    }
    let map = AddressMap::new(gpus, 16 << 30);
    let gpu = Gpu::new(gpu_model::GpuConfig::gv100(), GpuId::new(0), map);
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

/// `inspect --trace <file>`
pub(crate) fn inspect(args: &Args) -> Result<String, CliError> {
    args.expect_only(&["trace"])?;
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

    #[test]
    fn record_replay_inspect_roundtrip() {
        let dir = std::env::temp_dir().join("finepack-sim-test");
        let dir_s = dir.to_str().expect("utf-8 temp dir");
        let rec = record(
            &Args::parse([
                "record",
                "--app",
                "jacobi",
                "--out",
                dir_s,
                "--gpus",
                "2",
                "--iterations",
                "1",
                "--scale-down",
                "16",
            ])
            .unwrap(),
        )
        .unwrap();
        assert!(rec.contains("jacobi.g0.i0.fpkt"));
        let path = format!("{dir_s}/jacobi.g0.i0.fpkt");
        let rep =
            replay(&Args::parse(["replay", "--trace", &path, "--gpus", "2"]).unwrap()).unwrap();
        assert!(rep.contains("remote stores"));
        let ins = inspect(&Args::parse(["inspect", "--trace", &path]).unwrap()).unwrap();
        assert!(ins.contains("warp stores"));
        let ana =
            analyze(&Args::parse(["analyze", "--trace", &path, "--gpus", "2"]).unwrap()).unwrap();
        assert!(ana.contains("rewrite factor"));
        assert!(ana.contains("-> GPU1"));
        let bad =
            analyze(&Args::parse(["analyze", "--trace", &path, "--window-bytes", "1000"]).unwrap());
        assert!(bad.is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_missing_file_errors() {
        let e =
            replay(&Args::parse(["replay", "--trace", "/nonexistent.fpkt"]).unwrap()).unwrap_err();
        assert!(e.to_string().contains("nonexistent"));
        assert!(matches!(e, CliError::Io { .. }));
    }

    #[test]
    fn suite_runs_tiny() {
        let out = suite_table(
            &Args::parse([
                "suite",
                "--gpus",
                "2",
                "--scale-down",
                "16",
                "--iterations",
                "1",
            ])
            .unwrap(),
        )
        .unwrap();
        assert!(!out.partial);
        assert!(out.text.contains("jacobi") && out.text.contains("hit"));
    }

    #[test]
    fn faults_sweep_runs_tiny() {
        let out = faults(
            &Args::parse([
                "faults",
                "--app",
                "jacobi",
                "--gpus",
                "2",
                "--scale-down",
                "16",
                "--iterations",
                "1",
            ])
            .unwrap(),
        )
        .unwrap();
        assert!(out.contains("BER"), "{out}");
        assert!(out.contains("replay"), "{out}");
    }

    #[test]
    fn run_with_stuck_link_reports_dead_paradigms() {
        let out = run_app(
            &Args::parse([
                "run",
                "--app",
                "jacobi",
                "--gpus",
                "2",
                "--scale-down",
                "16",
                "--iterations",
                "1",
                "--fault-profile",
                "stuck",
            ])
            .unwrap(),
        )
        .unwrap();
        assert!(out.contains("dead"), "{out}");
        assert!(out.contains("no forward progress"), "{out}");
    }

    #[test]
    fn flow_control_flag_selects_regime() {
        let base = [
            "run",
            "--app",
            "jacobi",
            "--gpus",
            "2",
            "--scale-down",
            "16",
            "--iterations",
            "1",
        ];
        let credited = run_app(&Args::parse(base).unwrap()).unwrap();
        assert!(credited.contains("stall"), "{credited}");
        let mut open_args: Vec<&str> = base.to_vec();
        open_args.extend(["--flow-control", "open"]);
        let open = run_app(&Args::parse(open_args).unwrap()).unwrap();
        assert!(open.contains("stall"), "{open}");
        let bad = run_app(&Args::parse(["run", "--flow-control", "throttled"]).unwrap());
        assert!(bad.is_err());
    }

    #[test]
    fn bad_fault_options_are_rejected() {
        let bad_profile = run_app(&Args::parse(["run", "--fault-profile", "gremlins"]).unwrap());
        assert!(bad_profile.is_err());
        let bad_ber = run_app(&Args::parse(["run", "--ber", "2.0"]).unwrap());
        assert!(bad_ber.is_err());
        let unparsed = run_app(&Args::parse(["run", "--ber", "lots"]).unwrap());
        assert!(unparsed.is_err());
    }

    #[test]
    fn suite_jobs_flag_is_output_invariant() {
        let base = [
            "suite",
            "--gpus",
            "2",
            "--scale-down",
            "16",
            "--iterations",
            "1",
        ];
        let serial = {
            let mut a: Vec<&str> = base.to_vec();
            a.extend(["--jobs", "1"]);
            suite_table(&Args::parse(a).unwrap()).unwrap()
        };
        let parallel = {
            let mut a: Vec<&str> = base.to_vec();
            a.extend(["--jobs", "3"]);
            suite_table(&Args::parse(a).unwrap()).unwrap()
        };
        assert_eq!(serial, parallel);
    }

    #[test]
    fn supervision_flags_are_validated() {
        for bad in [
            vec!["suite", "--chaos", "2.0"],
            vec!["suite", "--chaos", "lots"],
            vec!["suite", "--retries", "-1"],
            vec!["suite", "--run-budget", "0"],
            vec!["suite", "--run-budget", "events=ten"],
            vec!["suite", "--run-budget", "cycles=5"],
        ] {
            let a = Args::parse(bad.clone()).unwrap();
            assert!(suite_table(&a).is_err(), "accepted {bad:?}");
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
        let out = suite_table(
            &Args::parse([
                "suite",
                "--gpus",
                "2",
                "--scale-down",
                "16",
                "--iterations",
                "1",
                "--run-budget",
                "3",
            ])
            .unwrap(),
        )
        .unwrap();
        assert!(out.partial, "{}", out.text);
        assert!(out.text.contains("failed points"), "{}", out.text);
        assert!(out.text.contains("event ceiling"), "{}", out.text);
        assert!(out.text.contains("exiting with code 3"), "{}", out.text);
    }

    #[test]
    fn run_with_tiny_budget_reports_dead_paradigms() {
        let out = run_app(
            &Args::parse([
                "run",
                "--app",
                "jacobi",
                "--gpus",
                "2",
                "--scale-down",
                "16",
                "--iterations",
                "1",
                "--run-budget",
                "3",
            ])
            .unwrap(),
        )
        .unwrap();
        assert!(out.contains("dead"), "{out}");
        assert!(out.contains("run budget exceeded"), "{out}");
    }

    #[test]
    fn jobs_zero_is_rejected() {
        let a = Args::parse(["suite", "--jobs", "0"]).unwrap();
        assert!(suite_table(&a).is_err());
        let a = Args::parse(["suite", "--jobs", "many"]).unwrap();
        assert!(suite_table(&a).is_err());
    }

    #[test]
    fn bench_writes_json_and_reports_speedup() {
        let out_file = std::env::temp_dir().join("finepack-bench-test.json");
        let out_s = out_file.to_str().expect("utf-8 temp path");
        let rendered = bench(
            &Args::parse([
                "bench",
                "--gpus",
                "2",
                "--scale-down",
                "16",
                "--iterations",
                "1",
                "--jobs",
                "2",
                "--out",
                out_s,
            ])
            .unwrap(),
        )
        .unwrap();
        assert!(rendered.contains("speedup"), "{rendered}");
        assert!(rendered.contains("deterministic: true"), "{rendered}");
        let json = std::fs::read_to_string(out_s).unwrap();
        for key in [
            "\"bench\": \"harness\"",
            "\"schema_version\": 1",
            "\"jobs\": 2",
            "\"sim_events\"",
            "\"serial\"",
            "\"parallel\"",
            "\"speedup\"",
            "\"deterministic\": true",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let _ = std::fs::remove_file(&out_file);
    }

    #[test]
    fn trace_writes_chrome_json_and_csv() {
        let json_file = std::env::temp_dir().join("finepack-trace-test.json");
        let json_s = json_file.to_str().expect("utf-8 temp path");
        let rendered = trace(
            &Args::parse([
                "trace",
                "--app",
                "jacobi",
                "--gpus",
                "2",
                "--scale-down",
                "16",
                "--iterations",
                "1",
                "--out",
                json_s,
            ])
            .unwrap(),
        )
        .unwrap();
        // The flush-count self-check passed and events were recorded.
        assert!(rendered.contains("flush"), "{rendered}");
        assert!(rendered.contains("wire-transmit"), "{rendered}");
        assert!(rendered.contains("(chrome)"), "{rendered}");
        let json = std::fs::read_to_string(json_s).unwrap();
        assert!(
            json.starts_with("{\"schema_version\":1,\"traceEvents\":["),
            "{}",
            &json[..80]
        );
        assert!(json.contains("\"flush:release\""));
        assert!(json.contains("\"name\":\"GPU0\""));
        let _ = std::fs::remove_file(&json_file);

        let csv_file = std::env::temp_dir().join("finepack-trace-test.csv");
        let csv_s = csv_file.to_str().expect("utf-8 temp path");
        let rendered = trace(
            &Args::parse([
                "trace",
                "--app",
                "jacobi",
                "--gpus",
                "2",
                "--scale-down",
                "16",
                "--iterations",
                "1",
                "--format",
                "csv",
                "--out",
                csv_s,
            ])
            .unwrap(),
        )
        .unwrap();
        assert!(rendered.contains("(csv)"), "{rendered}");
        let csv = std::fs::read_to_string(csv_s).unwrap();
        assert!(csv.starts_with("time_ps,gpu,rwq_entries"), "{}", &csv[..60]);
        assert!(
            csv.lines().count() > 1,
            "no samples at the default interval"
        );
        let _ = std::fs::remove_file(&csv_file);

        let bad = trace(&Args::parse(["trace", "--format", "xml"]).unwrap());
        assert!(bad.is_err());
        let bad = trace(&Args::parse(["trace", "--capacity", "0"]).unwrap());
        assert!(bad.is_err());
    }

    #[test]
    fn sweep_runs_tiny_single_app() {
        let out = sweep_subheader(
            &Args::parse([
                "sweep-subheader",
                "--app",
                "pagerank",
                "--gpus",
                "2",
                "--scale-down",
                "16",
                "--iterations",
                "1",
            ])
            .unwrap(),
        )
        .unwrap();
        assert!(out.contains("5B"));
    }
}
