//! High-level experiment drivers: everything the paper's figures need,
//! expressed as reusable functions over (workload, system, paradigm).
//!
//! The evaluation is a set of grids over the same apps, each crossing
//! the paradigms with one swept parameter (sub-header bytes, link
//! generation, framing, topology, queue size). [`sweep`] runs any such
//! grid: one task per app fans out over a [`WorkerPool`], replays the
//! app's kernel traces once into a [`PreparedWorkload`], simulates its
//! single-GPU baseline once, and runs every (configuration, paradigm)
//! point on that preparation. [`fault_sweep`] fans one app's
//! bit-error rates out instead, where a dead link is a result rather
//! than a failure. Both return results in input order, so output is
//! byte-identical for any worker count.

use gpu_model::{AddressMap, Gpu, GpuId, KernelRun, KernelStats};
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
        // One tracker for every iteration: a barrier clears its lines
        // but keeps their table, so later iterations do not regrow it.
        let mut tracker = crate::report::UniqueTracker::new();
        let unique_per_iter = runs
            .iter()
            .map(|iter_runs| {
                let before = tracker.unique_bytes();
                for run in iter_runs {
                    for t in run.egress.iter().chain(run.atomics.iter()) {
                        tracker.add(t.store.addr, t.store.len());
                    }
                }
                tracker.barrier();
                tracker.unique_bytes() - before
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

/// One application's speedups over its single-GPU baseline under one
/// configuration: a Fig 9 row.
#[derive(Debug, Clone)]
pub struct SpeedupRow {
    /// Application name.
    pub app: String,
    /// `(paradigm, speedup)` pairs, in the order the caller listed the
    /// paradigms.
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

/// Computes one application's speedups for the given paradigms under
/// one configuration.
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
    let (mut rows, ..) = sweep_app(app, spec, std::slice::from_ref(cfg), paradigms)
        .unwrap_or_else(|e| panic!("{e}"));
    rows.pop().expect("one row per configuration")
}

/// One app's rows under a sweep, one per configuration, plus the
/// discrete events and the simulated time its runs covered.
type AppRows = (Vec<SpeedupRow>, u64, SimTime);

/// Prepares `app` once, replaying its traces and simulating its
/// single-GPU baseline, and runs every (configuration, paradigm) point
/// on that preparation. Preparation reads only the GPU count, the GPU
/// model and the barrier overhead, which [`sweep`] checks that every
/// configuration shares. Every speedup row in this module comes from
/// here.
fn sweep_app(
    app: &dyn Workload,
    spec: &RunSpec,
    cfgs: &[SystemConfig],
    paradigms: &[Paradigm],
) -> Result<AppRows, RunError> {
    let prepared = PreparedWorkload::new(app, &cfgs[0], spec);
    let t1 = single_gpu_time(app, &cfgs[0], spec).as_secs_f64();
    let mut events = 0u64;
    let mut sim_time = SimTime::ZERO;
    let mut rows = Vec::with_capacity(cfgs.len());
    for cfg in cfgs {
        let mut speedups = Vec::with_capacity(paradigms.len());
        for &p in paradigms {
            let report = prepared.try_run(cfg, p)?;
            events += report.sim_events;
            sim_time += report.total_time;
            speedups.push((p, t1 / report.total_time.as_secs_f64()));
        }
        rows.push(SpeedupRow {
            app: prepared.name().to_string(),
            speedups,
        });
    }
    Ok((rows, events, sim_time))
}

/// Converts a runner error into the sweep's failure taxonomy: budget
/// trips keep their structured identity, everything else (link death,
/// stall watchdog) collapses to a generic failure carrying the full
/// rendered diagnostic.
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

/// One app's outcome in a [`Sweep`]: its speedup rows, or why it
/// produced none.
#[derive(Debug, Clone)]
pub struct AppOutcome {
    /// Application name.
    pub app: String,
    /// One row per configuration, in the sweep's order, or the failure
    /// that stopped the app.
    pub outcome: Result<Vec<SpeedupRow>, TaskFailure>,
}

/// A [`sweep`]'s result: per-app outcomes (some possibly failed) plus
/// totals over the apps that finished.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// One outcome per app, in input order.
    pub apps: Vec<AppOutcome>,
    /// Discrete events processed across every finished app's runs.
    pub sim_events: u64,
    /// Simulated time covered across every finished app's runs.
    pub sim_time: SimTime,
}

impl Sweep {
    /// True when every app produced its rows.
    pub fn all_ok(&self) -> bool {
        self.apps.iter().all(|a| a.outcome.is_ok())
    }

    /// The failed apps and their failures, in app order.
    pub fn failed(&self) -> impl Iterator<Item = (&str, &TaskFailure)> {
        self.apps
            .iter()
            .filter_map(|a| a.outcome.as_ref().err().map(|f| (a.app.as_str(), f)))
    }

    /// Every app's row under configuration `cfg`, an index into the
    /// sweep's configurations, in app order.
    ///
    /// # Panics
    ///
    /// Panics, naming the app, if any app failed: a table over every
    /// app cannot be drawn without it.
    pub fn rows(&self, cfg: usize) -> Vec<SpeedupRow> {
        self.apps
            .iter()
            .map(|a| match &a.outcome {
                Ok(rows) => rows[cfg].clone(),
                Err(failure) => panic!("{}: {failure}", a.app),
            })
            .collect()
    }

    /// The geometric-mean speedup of `paradigm` across every app under
    /// configuration `cfg`.
    ///
    /// # Panics
    ///
    /// Panics as [`Sweep::rows`] does, or if no app measured `paradigm`.
    pub fn geomean(&self, cfg: usize, paradigm: Paradigm) -> f64 {
        geomean_speedup(&self.rows(cfg), paradigm).expect("a swept paradigm over at least one app")
    }
}

/// Runs a grid: every app under every (configuration, paradigm) pair,
/// as speedups over the app's single-GPU baseline.
///
/// One task per app fans out over `pool`. The task prepares its app
/// once and runs every point on that preparation, so a grid replays
/// each app's traces once however many configurations it crosses, and
/// holds one prepared app per worker. Each task runs behind
/// [`run_isolated`]: a panic or a [`RunError`] (link death, stall
/// watchdog, [`RunError::BudgetExceeded`]) fails only its app. Runs are
/// deterministic, so a failed app is reported once, not retried, and
/// the result, failures included, is byte-identical at every `pool`
/// size.
///
/// # Panics
///
/// Panics before starting any task if `cfgs` is empty, or if a
/// configuration differs from `spec` or from the others in something
/// preparation reads: the GPU count, the GPU model or the barrier
/// overhead. Inside a task the mismatch would only fail every app.
pub fn sweep(
    apps: &[Box<dyn Workload>],
    spec: &RunSpec,
    cfgs: &[SystemConfig],
    paradigms: &[Paradigm],
    pool: &WorkerPool,
) -> Sweep {
    let first = cfgs.first().expect("a sweep needs a configuration");
    for cfg in cfgs {
        assert!(
            cfg.num_gpus == spec.num_gpus
                && cfg.gpu == first.gpu
                && cfg.barrier_overhead == first.barrier_overhead,
            "sweep configurations must share the spec's GPU count, the GPU model \
             and the barrier overhead: each app is prepared once for all of them"
        );
    }
    let outcomes = pool.map((0..apps.len()).collect(), |i| {
        run_isolated(|| {
            sweep_app(apps[i].as_ref(), spec, cfgs, paradigms).map_err(task_failure_from)
        })
    });
    let mut result = Sweep {
        apps: Vec::with_capacity(apps.len()),
        sim_events: 0,
        sim_time: SimTime::ZERO,
    };
    for (app, outcome) in apps.iter().zip(outcomes) {
        let outcome = outcome.map(|(rows, events, sim_time)| {
            result.sim_events += events;
            result.sim_time += sim_time;
            rows
        });
        result.apps.push(AppOutcome {
            app: app.name().to_string(),
            outcome,
        });
    }
    result
}

/// Geometric-mean speedup across rows for `paradigm`.
pub fn geomean_speedup(rows: &[SpeedupRow], paradigm: Paradigm) -> Option<f64> {
    let vals: Vec<f64> = rows.iter().filter_map(|r| r.speedup(paradigm)).collect();
    geomean(&vals)
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

    /// A weak-scaling curve, one sweep per GPU count as the
    /// `collectives` command draws it.
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
        let paradigms = [Paradigm::FinePack, Paradigm::BulkDma];
        let curve = |pool: &WorkerPool| -> Vec<Sweep> {
            [2u8, 4, 8]
                .map(|n| {
                    let spec = RunSpec {
                        num_gpus: n,
                        scaling: ScalingMode::Weak,
                        ..RunSpec::tiny()
                    };
                    sweep(&apps, &spec, &[SystemConfig::paper(n)], &paradigms, pool)
                })
                .into()
        };
        let serial = curve(&WorkerPool::serial());
        let par = curve(&WorkerPool::new(4));
        for (a, b) in serial.iter().zip(&par) {
            assert_eq!(a.sim_events, b.sim_events);
            for (ra, rb) in a.rows(0).iter().zip(&b.rows(0)) {
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

    /// `cfg` with FinePack's sub-header set to `bytes`.
    fn with_subheader(cfg: SystemConfig, bytes: u32) -> SystemConfig {
        let sub = finepack::SubheaderFormat::new(bytes).expect("2..=6 bytes is valid");
        cfg.with_finepack(
            finepack::FinePackConfig::paper(u32::from(cfg.num_gpus)).with_subheader(sub),
        )
    }

    /// The paper configuration and the same with 4-byte sub-headers: a
    /// grid whose FinePack points differ.
    fn two_subheaders(cfg: SystemConfig) -> [SystemConfig; 2] {
        [cfg, with_subheader(cfg, 4)]
    }

    /// The grid `suite` runs: one configuration, several paradigms.
    #[test]
    fn run_suite_is_pool_invariant() {
        let (cfg, spec) = tiny_cfg();
        let paradigms = [Paradigm::FinePack, Paradigm::P2pStores];
        let serial = sweep(
            &two_apps(),
            &spec,
            &[cfg],
            &paradigms,
            &WorkerPool::serial(),
        );
        let par = sweep(&two_apps(), &spec, &[cfg], &paradigms, &WorkerPool::new(4));
        assert!(serial.all_ok());
        assert_eq!(serial.sim_events, par.sim_events);
        assert_eq!(serial.sim_time, par.sim_time);
        for (a, b) in serial.rows(0).iter().zip(&par.rows(0)) {
            assert_eq!(a.app, b.app);
            assert_eq!(a.speedups, b.speedups);
        }
        assert!(serial.sim_events > 0);
    }

    /// The grid `sweep-subheader` runs: five sub-header sizes, FinePack
    /// only, one geomean per size.
    #[test]
    fn subheader_sweep_is_pool_invariant() {
        let (cfg, spec) = tiny_cfg();
        let cfgs: Vec<SystemConfig> = (2..=6).map(|b| with_subheader(cfg, b)).collect();
        let paradigms = [Paradigm::FinePack];
        let serial = sweep(&two_apps(), &spec, &cfgs, &paradigms, &WorkerPool::serial());
        let par = sweep(&two_apps(), &spec, &cfgs, &paradigms, &WorkerPool::new(4));
        assert!(serial.all_ok());
        assert_eq!(serial.sim_events, par.sim_events);
        assert_eq!(serial.sim_time, par.sim_time);
        let geomeans = |s: &Sweep| -> Vec<f64> {
            (0..cfgs.len())
                .map(|i| s.geomean(i, Paradigm::FinePack))
                .collect()
        };
        assert_eq!(geomeans(&serial), geomeans(&par));
        assert_eq!(geomeans(&serial).len(), 5);
    }

    /// Each app is prepared once under the first configuration, yet
    /// each row must be what that configuration alone produces.
    #[test]
    fn shared_preparation_matches_per_config_rows() {
        let (cfg, spec) = tiny_cfg();
        let cfgs = two_subheaders(cfg);
        let apps = two_apps();
        let paradigms = [Paradigm::FinePack, Paradigm::P2pStores];
        let grid = sweep(&apps, &spec, &cfgs, &paradigms, &WorkerPool::serial());
        for (i, cfg) in cfgs.iter().enumerate() {
            for (app, row) in apps.iter().zip(grid.rows(i)) {
                let alone = speedup_row(app.as_ref(), cfg, &spec, &paradigms);
                assert_eq!(row.app, alone.app);
                assert_eq!(row.speedups, alone.speedups, "{} under config {i}", row.app);
            }
        }
        // The grid is only a check if its configurations disagree.
        let fp = |i| grid.rows(i)[1].speedup(Paradigm::FinePack);
        assert_ne!(fp(0), fp(1));
    }

    /// An assert inside an isolated task would only fail every app; the
    /// check must refuse the grid before any task runs.
    #[test]
    #[should_panic(expected = "sweep configurations must share the spec's GPU count")]
    fn sweep_refuses_configurations_that_prepare_differently() {
        let (cfg, spec) = tiny_cfg();
        let cfgs = [cfg, SystemConfig::paper(4)];
        sweep(
            &two_apps(),
            &spec,
            &cfgs,
            &[Paradigm::FinePack],
            &WorkerPool::serial(),
        );
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
    fn budget_trip_surfaces_as_structured_point_failure() {
        let (cfg, spec) = tiny_cfg();
        let cfg = cfg.with_run_budget(crate::RunBudget::unlimited().with_max_events(3));
        let result = sweep(
            &two_apps(),
            &spec,
            &[cfg],
            &[Paradigm::FinePack],
            &WorkerPool::serial(),
        );
        assert!(!result.all_ok());
        assert_eq!(result.failed().count(), result.apps.len());
        for (_, failure) in result.failed() {
            assert_eq!(failure.kind(), "budget");
            let msg = failure.to_string();
            assert!(msg.contains("event ceiling"), "{msg}");
        }
        assert_eq!(result.sim_events, 0);
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

    /// A sweep runs every point of an app on one preparation: its
    /// totals are those of the same points run on one
    /// [`PreparedWorkload`] per app.
    #[test]
    fn prepared_apps_share_traces_across_sweep_points() {
        let (cfg, spec) = tiny_cfg();
        let apps = two_apps();
        let paradigms = [Paradigm::FinePack, Paradigm::P2pStores];
        let grid = sweep(&apps, &spec, &[cfg], &paradigms, &WorkerPool::serial());
        let mut events = 0;
        let mut sim_time = SimTime::ZERO;
        for app in &apps {
            let prep = PreparedWorkload::new(app.as_ref(), &cfg, &spec);
            for p in paradigms {
                let report = prep.run(&cfg, p);
                events += report.sim_events;
                sim_time += report.total_time;
            }
        }
        assert_eq!(grid.sim_events, events);
        assert_eq!(grid.sim_time, sim_time);
    }
}
