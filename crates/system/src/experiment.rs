//! High-level experiment drivers: everything the paper's figures need,
//! expressed as reusable functions over (workload, system, paradigm).
//!
//! Every sweep point — one (workload, paradigm, parameter) simulation —
//! is an independent deterministic computation, so the drivers here fan
//! out over a [`WorkerPool`] and return results in input order: output
//! is byte-identical for any worker count. Kernel traces are replayed
//! once per app into a [`PreparedWorkload`], which its [`PreparedApp`]
//! lends to every paradigm and sweep point; one per-app loop,
//! [`PreparedApp::speedups`], turns them into speedup rows.

use finepack::{FinePackConfig, SubheaderFormat};
use gpu_model::{AddressMap, Gpu, GpuId, KernelRun, KernelStats};
use protocol::PcieGen;
use sim_engine::{geomean, run_isolated, SimTime, TaskFailure, WorkerPool};
use telemetry::TraceCollector;
use workloads::{CommPattern, RunSpec, Workload};

use crate::config::SystemConfig;
use crate::fault::RunError;
use crate::paradigm::Paradigm;
use crate::report::RunReport;
use crate::runner::{DmaPlan, Runner};

/// Bytes of physical memory per GPU in the node address map (Table III).
const GPU_MEMORY: u64 = 16 << 30;

/// A workload with its kernel traces replayed once, reusable across all
/// paradigms (the egress stream is paradigm-independent).
#[derive(Debug)]
pub struct PreparedWorkload {
    name: String,
    read_fraction: f64,
    gps_unsubscribed: f64,
    /// `[iteration][gpu]`.
    runs: Vec<Vec<KernelRun>>,
    dma_plan: DmaPlan,
    /// Stats merged across GPUs and iterations, computed once at
    /// preparation time (sweeps used to re-merge on every call).
    merged: KernelStats,
    /// Unique bytes written per iteration, computed once at preparation
    /// time. The store stream is paradigm-independent, so every run of
    /// this workload would otherwise replay the same line-map
    /// aggregation.
    unique_per_iter: Vec<u64>,
}

impl PreparedWorkload {
    /// Replays `app`'s traces on the configured GPUs for every iteration
    /// of `spec`.
    ///
    /// # Panics
    ///
    /// Panics if `spec.num_gpus != cfg.num_gpus`.
    pub fn new(app: &dyn Workload, cfg: &SystemConfig, spec: &RunSpec) -> Self {
        assert_eq!(
            spec.num_gpus, cfg.num_gpus,
            "spec/system GPU count mismatch"
        );
        let map = AddressMap::new(cfg.num_gpus, GPU_MEMORY);
        let gpus: Vec<Gpu> = (0..cfg.num_gpus)
            .map(|g| Gpu::new(cfg.gpu, GpuId::new(g), map))
            .collect();
        let runs: Vec<Vec<KernelRun>> = (0..spec.iterations)
            .map(|iter| {
                gpus.iter()
                    .map(|gpu| gpu.execute_kernel(&app.trace(spec, iter, gpu.id())))
                    .collect()
            })
            .collect();
        let merged = merge_stats(&runs);
        let unique_per_iter = runs
            .iter()
            .map(|iter_runs| {
                let mut tracker = crate::report::UniqueTracker::new();
                for run in iter_runs {
                    for t in run.egress.iter().chain(run.atomics.iter()) {
                        tracker.add(t.store.addr, t.store.len());
                    }
                }
                tracker.unique_bytes()
            })
            .collect();
        PreparedWorkload {
            name: app.name().to_string(),
            read_fraction: app.read_fraction(),
            gps_unsubscribed: app.gps_unsubscribed_fraction(),
            runs,
            dma_plan: dma_plan(app, spec),
            merged,
            unique_per_iter,
        }
    }

    /// Workload name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The per-iteration, per-GPU kernel replays.
    pub fn runs(&self) -> &[Vec<KernelRun>] {
        &self.runs
    }

    /// The workload's read fraction (drives the useful/wasted split).
    pub fn read_fraction(&self) -> f64 {
        self.read_fraction
    }

    /// The workload's fraction of stores GPS's subscription filter drops.
    pub fn gps_unsubscribed(&self) -> f64 {
        self.gps_unsubscribed
    }

    /// The memcpy paradigm's per-iteration transfer legs.
    pub fn dma_plan(&self) -> &DmaPlan {
        &self.dma_plan
    }

    /// Merged replay statistics across GPUs and iterations (Fig 4 data),
    /// cached at preparation time.
    pub fn merged_stats(&self) -> &KernelStats {
        &self.merged
    }

    /// Simulates this workload under `paradigm` on `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if injected faults kill the run; fault experiments should
    /// use [`PreparedWorkload::try_run`].
    pub fn run(&self, cfg: &SystemConfig, paradigm: Paradigm) -> RunReport {
        self.try_run(cfg, paradigm)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`PreparedWorkload::run`], surfacing link death and watchdog
    /// trips as diagnostics instead of panicking.
    ///
    /// # Errors
    ///
    /// Propagates [`RunError`] from the first failing iteration.
    pub fn try_run(&self, cfg: &SystemConfig, paradigm: Paradigm) -> Result<RunReport, RunError> {
        self.run_to_report(Runner::new(*cfg, paradigm, self.gps_unsubscribed, false))
    }

    /// [`PreparedWorkload::try_run`] with `trace` lent for the run:
    /// lifecycle events (and, with `sample_every` set, periodic
    /// occupancy/credit samples) are recorded into it, on one run-global
    /// timeline.
    ///
    /// Tracing is observational: the returned report is byte-identical
    /// to [`PreparedWorkload::try_run`]'s.
    ///
    /// # Errors
    ///
    /// Propagates [`RunError`] from the first failing iteration.
    pub fn try_run_traced(
        &self,
        cfg: &SystemConfig,
        paradigm: Paradigm,
        trace: &mut dyn TraceCollector,
        sample_every: Option<SimTime>,
    ) -> Result<RunReport, RunError> {
        let mut runner = Runner::new(*cfg, paradigm, self.gps_unsubscribed, false);
        runner.attach_trace(trace, sample_every);
        self.run_to_report(runner)
    }

    /// Runs every iteration through `runner` and finishes its report.
    fn run_to_report(&self, mut runner: Runner<'_>) -> Result<RunReport, RunError> {
        self.run_iterations(&mut runner)?;
        Ok(runner.finish(&self.name, self.read_fraction))
    }

    /// Runs every iteration through `runner`, taking each iteration's
    /// unique-byte count from preparation instead of re-aggregating it
    /// store by store. The caller reads what it needs and calls
    /// [`Runner::finish`].
    pub(crate) fn run_iterations(&self, runner: &mut Runner<'_>) -> Result<(), RunError> {
        for (iter_runs, &unique) in self.runs.iter().zip(&self.unique_per_iter) {
            runner.try_run_iteration_precomputed(iter_runs, &self.dma_plan, unique)?;
        }
        Ok(())
    }
}

/// Merges replay statistics across `[iteration][gpu]` kernel runs.
fn merge_stats(runs: &[Vec<KernelRun>]) -> KernelStats {
    let mut all = runs.iter().flatten();
    let mut merged = all.next().expect("at least one kernel run").stats.clone();
    for run in all {
        merged.merge(&run.stats);
    }
    merged
}

/// One point of a bit-error-rate sweep: how fault injection at `ber`
/// changed the run relative to the fault-free baseline.
#[derive(Debug, Clone)]
pub struct FaultSweepPoint {
    /// Injected bit-error rate.
    pub ber: f64,
    /// The run's outcome: a report, or the diagnostic that killed it.
    pub outcome: Result<RunReport, RunError>,
    /// Slowdown relative to the fault-free run (1.0 = no impact);
    /// `None` when the run died.
    pub slowdown: Option<f64>,
}

/// Sweeps bit-error rates for one workload under `paradigm`, reusing
/// the fault-free run at index 0 as the slowdown baseline. Replay
/// parameters beyond BER (outages, degradation) come from `base_cfg`'s
/// profile when set, else [`crate::FaultProfile::new`] defaults.
///
/// The traces replay once; the per-BER runs fan out over `pool` (each
/// run's fault RNG is seeded from its own config, so results are
/// identical for any worker count).
pub fn fault_sweep(
    app: &dyn Workload,
    base_cfg: &SystemConfig,
    spec: &RunSpec,
    paradigm: Paradigm,
    bers: &[f64],
    pool: &WorkerPool,
) -> Vec<FaultSweepPoint> {
    let prepared = PreparedWorkload::new(app, base_cfg, spec);
    let mut clean_cfg = *base_cfg;
    clean_cfg.fault = None;
    let baseline = prepared.run(&clean_cfg, paradigm).total_time.as_secs_f64();
    pool.map(bers.to_vec(), |ber| {
        let mut profile = base_cfg
            .fault
            .unwrap_or_else(|| crate::FaultProfile::new(ber));
        profile.ber = ber;
        let cfg = base_cfg.with_faults(profile);
        let outcome = prepared.try_run(&cfg, paradigm);
        let slowdown = outcome
            .as_ref()
            .ok()
            .map(|r| r.total_time.as_secs_f64() / baseline.max(f64::MIN_POSITIVE));
        FaultSweepPoint {
            ber,
            outcome,
            slowdown,
        }
    })
}

/// The memcpy paradigm's transfer legs for one iteration: each GPU ships
/// its replica updates to every communication target.
pub fn dma_plan(app: &dyn Workload, spec: &RunSpec) -> DmaPlan {
    let mut plan = Vec::new();
    if spec.num_gpus < 2 {
        return plan;
    }
    for g in 0..spec.num_gpus {
        let src = GpuId::new(g);
        let dsts = app.pattern().targets(src, spec.num_gpus);
        // For halo patterns the knob names an interior GPU's outbound
        // total (two boundaries); each leg carries one boundary's worth.
        let per_dst = match app.pattern() {
            CommPattern::Neighbors => app.dma_bytes_per_gpu(spec) / 2,
            _ => app.dma_bytes_per_gpu(spec) / dsts.len().max(1) as u64,
        };
        for dst in dsts {
            plan.push((src, dst, per_dst));
        }
    }
    plan
}

/// Simulated wall time of the single-GPU baseline: the whole problem on
/// one GPU, no inter-GPU communication.
pub fn single_gpu_time(app: &dyn Workload, cfg: &SystemConfig, spec: &RunSpec) -> SimTime {
    let mut one = *spec;
    one.num_gpus = 1;
    let map = AddressMap::new(1, GPU_MEMORY);
    let gpu = Gpu::new(cfg.gpu, GpuId::new(0), map);
    let mut total = SimTime::ZERO;
    for iter in 0..one.iterations {
        let run = gpu.execute_kernel(&app.trace(&one, iter, GpuId::new(0)));
        debug_assert!(run.egress.is_empty(), "single-GPU run must be local-only");
        total += run.kernel_time + cfg.barrier_overhead;
    }
    total
}

/// One application's Fig 9 row: speedups over the single-GPU baseline.
#[derive(Debug, Clone)]
pub struct SpeedupRow {
    /// Application name.
    pub app: String,
    /// `(paradigm, speedup)` pairs in [`Paradigm::FIG9`] order.
    pub speedups: Vec<(Paradigm, f64)>,
}

impl SpeedupRow {
    /// The speedup for `paradigm`, if measured.
    pub fn speedup(&self, paradigm: Paradigm) -> Option<f64> {
        self.speedups
            .iter()
            .find(|(p, _)| *p == paradigm)
            .map(|(_, s)| *s)
    }
}

/// Computes one application's speedups for the given paradigms.
///
/// # Panics
///
/// Panics if injected faults or a run budget kill a run.
pub fn speedup_row(
    app: &dyn Workload,
    cfg: &SystemConfig,
    spec: &RunSpec,
    paradigms: &[Paradigm],
) -> SpeedupRow {
    speedup_row_prepared(&PreparedApp::new(app, cfg, spec), cfg, paradigms)
}

/// A workload prepared for sweeping: its traces (shared, replayed once)
/// plus its single-GPU baseline time. Both are independent of the
/// sweep parameters — sub-header format, PCIe generation, paradigm —
/// so one `PreparedApp` serves every point of a sweep.
#[derive(Debug)]
struct PreparedApp {
    /// The replayed traces, lent to every sweep point.
    prepared: PreparedWorkload,
    /// Simulated single-GPU baseline time (speedup denominator).
    single_gpu: SimTime,
}

impl PreparedApp {
    fn new(app: &dyn Workload, cfg: &SystemConfig, spec: &RunSpec) -> Self {
        PreparedApp {
            prepared: PreparedWorkload::new(app, cfg, spec),
            single_gpu: single_gpu_time(app, cfg, spec),
        }
    }

    /// Runs the app under each of `paradigms` on `cfg`: its speedup row
    /// over the single-GPU baseline, plus the discrete events and the
    /// simulated time those runs covered. Every speedup row in this
    /// module comes from here.
    fn speedups(
        &self,
        cfg: &SystemConfig,
        paradigms: &[Paradigm],
    ) -> Result<(SpeedupRow, u64, SimTime), RunError> {
        let t1 = self.single_gpu.as_secs_f64();
        let mut events = 0u64;
        let mut sim_time = SimTime::ZERO;
        let mut speedups = Vec::with_capacity(paradigms.len());
        for &p in paradigms {
            let report = self.prepared.try_run(cfg, p)?;
            events += report.sim_events;
            sim_time += report.total_time;
            speedups.push((p, t1 / report.total_time.as_secs_f64()));
        }
        let row = SpeedupRow {
            app: self.prepared.name().to_string(),
            speedups,
        };
        Ok((row, events, sim_time))
    }
}

/// Prepares every app exactly once (trace replay + single-GPU baseline),
/// fanning the preparation itself out over `pool`.
fn prepare_apps(
    apps: &[Box<dyn Workload>],
    cfg: &SystemConfig,
    spec: &RunSpec,
    pool: &WorkerPool,
) -> Vec<PreparedApp> {
    pool.map((0..apps.len()).collect(), |i| {
        PreparedApp::new(apps[i].as_ref(), cfg, spec)
    })
}

/// [`speedup_row`] over an already-prepared app: no trace replay, no
/// baseline re-simulation.
fn speedup_row_prepared(
    app: &PreparedApp,
    cfg: &SystemConfig,
    paradigms: &[Paradigm],
) -> SpeedupRow {
    app.speedups(cfg, paradigms)
        .unwrap_or_else(|e| panic!("{e}"))
        .0
}

/// The Fig 9 suite's result: per-app speedup rows plus harness
/// self-measurement inputs (total events processed, total simulated
/// time) for throughput reporting.
#[derive(Debug, Clone)]
pub struct SuiteResult {
    /// One speedup row per app, in input order.
    pub rows: Vec<SpeedupRow>,
    /// Discrete events processed across every run of the suite.
    pub sim_events: u64,
    /// Simulated time covered across every run of the suite.
    pub sim_time: SimTime,
}

/// Runs the Fig 9 suite — every app under every paradigm — fanning one
/// task per app (preparation + baseline + all paradigm runs) over
/// `pool`. Rows come back in app order regardless of worker count.
///
/// # Panics
///
/// Panics if injected faults or a run budget kill a run; use
/// [`run_suite_supervised`] to get per-app failures instead.
pub fn run_suite(
    apps: &[Box<dyn Workload>],
    cfg: &SystemConfig,
    spec: &RunSpec,
    paradigms: &[Paradigm],
    pool: &WorkerPool,
) -> SuiteResult {
    let results = pool.map((0..apps.len()).collect(), |i| {
        PreparedApp::new(apps[i].as_ref(), cfg, spec)
            .speedups(cfg, paradigms)
            .unwrap_or_else(|e| panic!("{e}"))
    });
    let mut suite = SuiteResult {
        rows: Vec::with_capacity(results.len()),
        sim_events: 0,
        sim_time: SimTime::ZERO,
    };
    for (row, events, sim_time) in results {
        suite.rows.push(row);
        suite.sim_events += events;
        suite.sim_time += sim_time;
    }
    suite
}

/// One GPU-count point of a scaling curve.
#[derive(Debug, Clone)]
pub struct ScalingPoint {
    /// GPUs at this point.
    pub num_gpus: u8,
    /// Per-app speedup rows at this count, in input order.
    pub rows: Vec<SpeedupRow>,
    /// Discrete events processed across the point's runs.
    pub sim_events: u64,
    /// Simulated time covered across the point's runs.
    pub sim_time: SimTime,
}

/// Sweeps the given apps across GPU counts — the weak-scaling curves of
/// the collectives study, or strong-scaling curves when `base_spec`
/// says so. `make_cfg` maps each GPU count to its system configuration
/// (the topology grows with the cluster). Each point is one
/// [`run_suite`], so rows are pool-invariant and byte-stable.
pub fn scaling_curve(
    apps: &[Box<dyn Workload>],
    base_spec: &RunSpec,
    gpu_counts: &[u8],
    make_cfg: &dyn Fn(u8) -> SystemConfig,
    paradigms: &[Paradigm],
    pool: &WorkerPool,
) -> Vec<ScalingPoint> {
    gpu_counts
        .iter()
        .map(|&n| {
            let mut spec = *base_spec;
            spec.num_gpus = n;
            let cfg = make_cfg(n);
            let res = run_suite(apps, &cfg, &spec, paradigms, pool);
            ScalingPoint {
                num_gpus: n,
                rows: res.rows,
                sim_events: res.sim_events,
                sim_time: res.sim_time,
            }
        })
        .collect()
}

/// Converts a runner error into the supervised harness's failure
/// taxonomy: budget trips keep their structured identity, everything
/// else (link death, stall watchdog) collapses to a generic failure
/// carrying the full rendered diagnostic.
fn task_failure_from(err: RunError) -> TaskFailure {
    match err {
        RunError::BudgetExceeded(trip) => TaskFailure::BudgetExceeded {
            detail: trip.to_string(),
        },
        other => TaskFailure::Failed {
            detail: other.to_string(),
        },
    }
}

/// One app's outcome under [`run_suite_supervised`]: its speedup row,
/// or why it produced none.
#[derive(Debug, Clone)]
pub struct SuitePoint {
    /// Application name.
    pub app: String,
    /// The speedup row, or the failure that stopped the point.
    pub outcome: Result<SpeedupRow, TaskFailure>,
}

/// The Fig 9 suite under supervision: per-app outcomes (some possibly
/// failed) plus totals over the runs that completed.
#[derive(Debug, Clone)]
pub struct SupervisedSuite {
    /// One outcome per app, in input order.
    pub points: Vec<SuitePoint>,
    /// Discrete events processed across every *successful* point.
    pub sim_events: u64,
    /// Simulated time covered across every *successful* point.
    pub sim_time: SimTime,
}

impl SupervisedSuite {
    /// True when every app produced a row.
    pub fn all_ok(&self) -> bool {
        self.points.iter().all(|p| p.outcome.is_ok())
    }

    /// The successful rows, in app order.
    pub fn rows(&self) -> impl Iterator<Item = &SpeedupRow> {
        self.points.iter().filter_map(|p| p.outcome.as_ref().ok())
    }

    /// The failed points' apps and failures, in app order.
    pub fn failed(&self) -> impl Iterator<Item = (&str, &TaskFailure)> {
        self.points
            .iter()
            .filter_map(|p| p.outcome.as_ref().err().map(|f| (p.app.as_str(), f)))
    }
}

/// [`run_suite`] with each app's task behind panic isolation
/// ([`run_isolated`]): a panic or a runner error (link death, stall
/// watchdog, [`RunError::BudgetExceeded`]) becomes that point's
/// failure instead of killing the whole sweep.
///
/// Runs are deterministic, so a failed point is reported once, not
/// retried. The result, including which points failed, is
/// byte-identical at every `pool` size, and with no failures the rows
/// and totals match [`run_suite`] exactly.
pub fn run_suite_supervised(
    apps: &[Box<dyn Workload>],
    cfg: &SystemConfig,
    spec: &RunSpec,
    paradigms: &[Paradigm],
    pool: &WorkerPool,
) -> SupervisedSuite {
    let outcomes = pool.map((0..apps.len()).collect(), |i| {
        run_isolated(|| {
            PreparedApp::new(apps[i].as_ref(), cfg, spec)
                .speedups(cfg, paradigms)
                .map_err(task_failure_from)
        })
    });
    let mut suite = SupervisedSuite {
        points: Vec::with_capacity(outcomes.len()),
        sim_events: 0,
        sim_time: SimTime::ZERO,
    };
    for (app, outcome) in apps.iter().zip(outcomes) {
        let outcome = outcome.map(|(row, events, sim_time)| {
            suite.sim_events += events;
            suite.sim_time += sim_time;
            row
        });
        suite.points.push(SuitePoint {
            app: app.name().to_string(),
            outcome,
        });
    }
    suite
}

/// Geometric-mean speedup across rows for `paradigm`.
pub fn geomean_speedup(rows: &[SpeedupRow], paradigm: Paradigm) -> Option<f64> {
    let vals: Vec<f64> = rows.iter().filter_map(|r| r.speedup(paradigm)).collect();
    geomean(&vals)
}

/// Fig 12: geomean FinePack speedup for each sub-header size (2–6 bytes).
///
/// Trace replay is sub-header-independent, so each app is prepared once
/// and every (sub-header, app) run fans out over `pool`.
///
/// # Panics
///
/// Panics if `apps` is empty.
pub fn subheader_sweep(
    apps: &[Box<dyn Workload>],
    base_cfg: &SystemConfig,
    spec: &RunSpec,
    pool: &WorkerPool,
) -> Vec<(u32, f64)> {
    assert!(!apps.is_empty(), "subheader sweep needs at least one app");
    let prepared = prepare_apps(apps, base_cfg, spec, pool);
    let sizes: Vec<u32> = (2..=6).collect();
    let tasks: Vec<(u32, usize)> = sizes
        .iter()
        .flat_map(|b| (0..prepared.len()).map(move |i| (*b, i)))
        .collect();
    let rows = pool.map(tasks, |(bytes, i)| {
        let sub = SubheaderFormat::new(bytes).expect("2..=6 valid");
        let fp = FinePackConfig::paper(u32::from(base_cfg.num_gpus)).with_subheader(sub);
        let cfg = base_cfg.with_finepack(fp);
        speedup_row_prepared(&prepared[i], &cfg, &[Paradigm::FinePack])
    });
    rows.chunks(prepared.len())
        .zip(sizes)
        .map(|(rows, bytes)| {
            (
                bytes,
                geomean_speedup(rows, Paradigm::FinePack).expect("non-empty"),
            )
        })
        .collect()
}

/// Fig 13: geomean speedups per interconnect generation for the given
/// paradigms.
///
/// Trace replay and the single-GPU baseline are PCIe-generation-
/// independent, so each app is prepared once and every (generation,
/// app) run fans out over `pool`.
///
/// # Panics
///
/// Panics if `apps` is empty.
pub fn bandwidth_sweep(
    apps: &[Box<dyn Workload>],
    base_cfg: &SystemConfig,
    spec: &RunSpec,
    paradigms: &[Paradigm],
    pool: &WorkerPool,
) -> Vec<(PcieGen, Vec<(Paradigm, f64)>)> {
    assert!(!apps.is_empty(), "bandwidth sweep needs at least one app");
    let prepared = prepare_apps(apps, base_cfg, spec, pool);
    let tasks: Vec<(PcieGen, usize)> = PcieGen::ALL
        .into_iter()
        .flat_map(|gen| (0..prepared.len()).map(move |i| (gen, i)))
        .collect();
    let rows = pool.map(tasks, |(gen, i)| {
        let cfg = base_cfg.with_pcie_gen(gen);
        speedup_row_prepared(&prepared[i], &cfg, paradigms)
    });
    rows.chunks(prepared.len())
        .zip(PcieGen::ALL)
        .map(|(rows, gen)| {
            let means = paradigms
                .iter()
                .map(|p| (*p, geomean_speedup(rows, *p).expect("non-empty")))
                .collect();
            (gen, means)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{Jacobi, Pagerank, Synthetic};

    fn tiny_cfg() -> (SystemConfig, RunSpec) {
        (SystemConfig::paper(2), RunSpec::tiny())
    }

    #[test]
    fn prepared_workload_reuses_traces_across_paradigms() {
        let (cfg, spec) = tiny_cfg();
        let app = Pagerank::default();
        let prep = PreparedWorkload::new(&app, &cfg, &spec);
        let a = prep.run(&cfg, Paradigm::FinePack);
        let b = prep.run(&cfg, Paradigm::P2pStores);
        assert_eq!(a.unique_bytes, b.unique_bytes);
        assert!(a.total_time < b.total_time);
    }

    #[test]
    fn speedup_ordering_matches_paper_for_irregular_app() {
        let (cfg, spec) = tiny_cfg();
        let row = speedup_row(&Pagerank::default(), &cfg, &spec, &Paradigm::FIG9);
        let inf = row.speedup(Paradigm::InfiniteBw).unwrap();
        let fp = row.speedup(Paradigm::FinePack).unwrap();
        let p2p = row.speedup(Paradigm::P2pStores).unwrap();
        assert!(inf >= fp, "inf {inf} >= fp {fp}");
        assert!(fp > p2p, "fp {fp} > p2p {p2p}");
    }

    #[test]
    fn dma_plan_respects_pattern() {
        let spec = RunSpec::paper(4);
        let halo = dma_plan(&Jacobi::default(), &spec);
        // Ring without wraparound: GPUs 0 and 3 have one leg, 1 and 2 two.
        assert_eq!(halo.len(), 6);
        let a2a = dma_plan(&Pagerank::default(), &spec); // neighbors too
        assert_eq!(a2a.len(), 6);
    }

    #[test]
    fn dma_plan_covers_collective_topologies() {
        use workloads::{Halo2d, RingAllReduce, TreeAllReduce};
        let spec = RunSpec::paper(4);
        // Ring: exactly one leg per GPU, to its successor, carrying the
        // app's full per-GPU DMA budget.
        let ring_app = RingAllReduce::default();
        let ring = dma_plan(&ring_app, &spec);
        assert_eq!(ring.len(), 4);
        assert!(ring.contains(&(
            GpuId::new(3),
            GpuId::new(0),
            ring_app.dma_bytes_per_gpu(&spec)
        )));
        // 2x2 grid: every GPU has two neighbors.
        assert_eq!(dma_plan(&Halo2d::default(), &spec).len(), 8);
        // Binomial tree over 4 GPUs: 3 edges, each walked twice
        // (parent link + child link per GPU) = 6 legs.
        assert_eq!(dma_plan(&TreeAllReduce::default(), &spec).len(), 6);
    }

    #[test]
    fn scaling_curve_is_pool_invariant_and_ordered() {
        use workloads::collectives::{CollectiveTuning, MsgDist};
        use workloads::{RingAllReduce, ScalingMode};
        let tuning = CollectiveTuning {
            payload_bytes: 1 << 20,
            msg: MsgDist::Fixed(512),
            compute_wall_us: 8.0,
        };
        let apps: Vec<Box<dyn Workload>> = vec![Box::new(RingAllReduce::new(tuning))];
        let mut spec = RunSpec::tiny();
        spec.scaling = ScalingMode::Weak;
        let counts = [2u8, 4, 8];
        let paradigms = [Paradigm::FinePack, Paradigm::BulkDma];
        let make_cfg = SystemConfig::paper;
        let serial = scaling_curve(
            &apps,
            &spec,
            &counts,
            &make_cfg,
            &paradigms,
            &WorkerPool::serial(),
        );
        let par = scaling_curve(
            &apps,
            &spec,
            &counts,
            &make_cfg,
            &paradigms,
            &WorkerPool::new(4),
        );
        assert_eq!(serial.len(), 3);
        for (a, b) in serial.iter().zip(&par) {
            assert_eq!(a.num_gpus, b.num_gpus);
            assert_eq!(a.sim_events, b.sim_events);
            for (ra, rb) in a.rows.iter().zip(&b.rows) {
                assert_eq!(ra.speedups, rb.speedups);
            }
        }
        // Weak scaling to more GPUs means more aggregate traffic: the
        // curve's simulated event count must grow monotonically.
        assert!(serial[2].sim_events > serial[1].sim_events);
    }

    #[test]
    fn single_gpu_time_scales_with_iterations() {
        let (cfg, mut spec) = tiny_cfg();
        let app = Jacobi::default();
        spec.iterations = 1;
        let t1 = single_gpu_time(&app, &cfg, &spec);
        spec.iterations = 2;
        let t2 = single_gpu_time(&app, &cfg, &spec);
        assert!(t2 > t1);
        assert!(t2 <= t1 * 3);
    }

    #[test]
    fn merged_stats_accumulate() {
        let (cfg, spec) = tiny_cfg();
        let prep = PreparedWorkload::new(&Jacobi::default(), &cfg, &spec);
        let stats = prep.merged_stats();
        assert!(stats.remote_stores > 0);
        assert_eq!(stats.mean_remote_size(), Some(128.0));
    }

    /// Every counter, atomics and loads included, is the sum over all
    /// (iteration, GPU) runs, not only the first run's.
    #[test]
    fn merged_stats_sum_every_field_over_runs() {
        let (cfg, spec) = tiny_cfg();
        let app = Synthetic::builder()
            .load_fraction(0.1)
            .atomic_fraction(0.1)
            .build();
        let prep = PreparedWorkload::new(&app, &cfg, &spec);
        let runs: Vec<&KernelRun> = prep.runs().iter().flatten().collect();
        assert!(runs.len() > 1);
        let sum = |field: fn(&KernelStats) -> u64| -> u64 {
            runs.iter().map(|run| field(&run.stats)).sum()
        };
        let merged = prep.merged_stats();
        assert!(sum(|s| s.remote_atomics) > runs[0].stats.remote_atomics);
        assert!(sum(|s| s.remote_loads) > runs[0].stats.remote_loads);
        assert_eq!(merged.remote_atomics, sum(|s| s.remote_atomics));
        assert_eq!(merged.remote_loads, sum(|s| s.remote_loads));
        assert_eq!(merged.remote_bytes, sum(|s| s.remote_bytes));
        assert_eq!(merged.remote_stores, sum(|s| s.remote_stores));
        assert_eq!(merged.local_bytes, sum(|s| s.local_bytes));
        assert_eq!(merged.local_stores, sum(|s| s.local_stores));
        assert_eq!(merged.compute_cycles, sum(|s| s.compute_cycles));
        assert_eq!(
            merged.remote_size_hist.total(),
            sum(|s| s.remote_size_hist.total())
        );
    }

    fn two_apps() -> Vec<Box<dyn Workload>> {
        vec![Box::new(Jacobi::default()), Box::new(Pagerank::default())]
    }

    #[test]
    fn run_suite_is_pool_invariant() {
        let (cfg, spec) = tiny_cfg();
        let paradigms = [Paradigm::FinePack, Paradigm::P2pStores];
        let serial = run_suite(&two_apps(), &cfg, &spec, &paradigms, &WorkerPool::serial());
        let par = run_suite(&two_apps(), &cfg, &spec, &paradigms, &WorkerPool::new(4));
        assert_eq!(serial.sim_events, par.sim_events);
        assert_eq!(serial.sim_time, par.sim_time);
        for (a, b) in serial.rows.iter().zip(&par.rows) {
            assert_eq!(a.app, b.app);
            assert_eq!(a.speedups, b.speedups);
        }
        assert!(serial.sim_events > 0);
    }

    #[test]
    fn subheader_sweep_is_pool_invariant() {
        let (cfg, spec) = tiny_cfg();
        let serial = subheader_sweep(&two_apps(), &cfg, &spec, &WorkerPool::serial());
        let par = subheader_sweep(&two_apps(), &cfg, &spec, &WorkerPool::new(4));
        assert_eq!(serial, par);
        assert_eq!(serial.len(), 5);
    }

    #[test]
    fn fault_sweep_is_pool_invariant() {
        let (mut cfg, spec) = tiny_cfg();
        cfg = cfg.with_faults(crate::FaultProfile::new(1e-9));
        let bers = [0.0, 1e-10, 1e-9];
        let sweep = |pool: &WorkerPool| {
            fault_sweep(
                &Jacobi::default(),
                &cfg,
                &spec,
                Paradigm::FinePack,
                &bers,
                pool,
            )
        };
        let serial = sweep(&WorkerPool::serial());
        let par = sweep(&WorkerPool::new(4));
        for (a, b) in serial.iter().zip(&par) {
            assert_eq!(a.ber, b.ber);
            assert_eq!(a.slowdown, b.slowdown);
            assert_eq!(a.outcome.is_ok(), b.outcome.is_ok());
        }
    }

    #[test]
    fn supervised_suite_matches_unsupervised_when_clean() {
        let (cfg, spec) = tiny_cfg();
        let paradigms = [Paradigm::FinePack, Paradigm::P2pStores];
        let plain = run_suite(&two_apps(), &cfg, &spec, &paradigms, &WorkerPool::new(2));
        let sup = run_suite_supervised(&two_apps(), &cfg, &spec, &paradigms, &WorkerPool::new(2));
        assert!(sup.all_ok());
        assert!(sup.failed().next().is_none());
        assert_eq!(sup.sim_events, plain.sim_events);
        assert_eq!(sup.sim_time, plain.sim_time);
        assert_eq!(sup.rows().count(), plain.rows.len());
        for (a, b) in sup.rows().zip(&plain.rows) {
            assert_eq!(a.app, b.app);
            assert_eq!(a.speedups, b.speedups);
        }
    }

    #[test]
    fn budget_trip_surfaces_as_structured_point_failure() {
        let (cfg, spec) = tiny_cfg();
        let cfg = cfg.with_run_budget(crate::RunBudget::unlimited().with_max_events(3));
        let sup = run_suite_supervised(
            &two_apps(),
            &cfg,
            &spec,
            &[Paradigm::FinePack],
            &WorkerPool::serial(),
        );
        assert!(!sup.all_ok());
        assert_eq!(sup.failed().count(), sup.points.len());
        for (_, failure) in sup.failed() {
            assert_eq!(failure.kind(), "budget");
            let msg = failure.to_string();
            assert!(msg.contains("event ceiling"), "{msg}");
        }
        assert_eq!(sup.sim_events, 0);
    }

    /// Prepared runs take each iteration's unique bytes from
    /// preparation; a runner fed the same iterations store by store must
    /// report the same.
    #[test]
    fn per_store_unique_bytes_match_the_prepared_run() {
        let (cfg, mut spec) = tiny_cfg();
        spec.iterations = 2;
        let cfg = cfg.with_faults(crate::FaultProfile::new(1e-5));
        let apps: [&dyn Workload; 2] = [&Jacobi::default(), &Pagerank::default()];
        for app in apps {
            let prep = PreparedWorkload::new(app, &cfg, &spec);
            for paradigm in Paradigm::ALL {
                let mut runner = Runner::new(cfg, paradigm, prep.gps_unsubscribed(), false);
                for iter_runs in prep.runs() {
                    runner
                        .try_run_iteration(iter_runs, prep.dma_plan())
                        .expect("per-store run");
                }
                let per_store = runner.finish(prep.name(), prep.read_fraction());
                let prepared = prep.try_run(&cfg, paradigm).expect("prepared run");
                assert_eq!(
                    per_store.canonical_json(),
                    prepared.canonical_json(),
                    "{} under {paradigm}",
                    prep.name()
                );
            }
        }
    }

    #[test]
    fn prepared_apps_share_traces_across_sweep_points() {
        let (cfg, spec) = tiny_cfg();
        let apps = two_apps();
        let prepared = prepare_apps(&apps, &cfg, &spec, &WorkerPool::serial());
        let direct = speedup_row(apps[0].as_ref(), &cfg, &spec, &[Paradigm::FinePack]);
        let shared = speedup_row_prepared(&prepared[0], &cfg, &[Paradigm::FinePack]);
        assert_eq!(direct.app, shared.app);
        assert_eq!(direct.speedups, shared.speedups);
    }
}
