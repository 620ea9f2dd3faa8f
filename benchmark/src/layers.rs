//! The traced pass: every layer timed from outside, by bracketing calls
//! into its crate's public API with spans.
//!
//! - `workloads` and `gpu-model`: the trace synthesis and kernel replay
//!   that `PreparedWorkload::new` performs, issued here one call at a
//!   time so each gets its own span;
//! - `system`: `PreparedWorkload::new` itself, and `try_run` per point;
//! - `telemetry`: `audit_run` on each app's FinePack point;
//! - `sim-engine`: a standalone `EventQueue` scheduling and popping each
//!   iteration's actual operation timestamps, as the runner fills it;
//! - `finepack` (core): each GPU's operation stream replayed through
//!   `Paradigm::make_egress` paths, cross-checked against the runner's
//!   packet and flush counts before any time is reported.

use std::time::Instant;

use finepack::{EgressMetrics, EgressPath, FlushReason, PayloadMode};
use gpu_model::{AddressMap, Gpu, GpuId, KernelRun};
use sim_engine::{EventQueue, SimTime};
use system::{audit_run, Paradigm, PreparedWorkload, RunReport};
use telemetry::Law;

use crate::metrics::Metric;
use crate::spans::{self_times, Recorder, SpanId};
use crate::stats::median;
use crate::workload::Bench;

/// Bytes of physical memory per GPU in the node address map, as
/// `PreparedWorkload::new` lays it out (Table III).
const GPU_MEMORY: u64 = 16 << 30;

/// The egress paths replayed standalone, in reporting order.
const REPLAYED: [Paradigm; 2] = [Paradigm::FinePack, Paradigm::P2pStores];

/// Flush reasons that occur on at least one workload. No workload
/// configures an inactivity timeout, and none issues a remote load or
/// atomic that hits a queued store, so `Timeout`, `LoadHit` and
/// `AtomicHit` would always read zero.
const FLUSH_REASONS: [FlushReason; 4] = [
    FlushReason::WindowMiss,
    FlushReason::PayloadFull,
    FlushReason::EntriesFull,
    FlushReason::Release,
];

/// One operation of a GPU's stream, as the runner schedules it.
#[derive(Debug, Clone, Copy)]
enum Op {
    Store {
        gpu: usize,
        idx: usize,
    },
    Atomic {
        gpu: usize,
        idx: usize,
    },
    Probe {
        gpu: usize,
        idx: usize,
    },
    /// A fence or the kernel end: both release the egress path.
    Release {
        gpu: usize,
    },
}

/// Schedules one iteration's operations in the runner's order (per GPU:
/// stores, atomics, probes, fences, kernel end) and pops them all.
/// Returns the pop order, which is the order every path sees.
fn queue_order(runs: &[KernelRun]) -> Vec<(SimTime, Op)> {
    let total: usize = runs
        .iter()
        .map(|r| r.egress.len() + r.atomics.len() + r.probes.len() + r.fences.len() + 1)
        .sum();
    let span = runs
        .iter()
        .map(|r| r.kernel_time)
        .max()
        .unwrap_or(SimTime::ZERO);
    let mut q = EventQueue::new();
    q.reserve_for_span(total, span);
    for (gpu, run) in runs.iter().enumerate() {
        for (idx, t) in run.egress.iter().enumerate() {
            q.schedule(t.time, Op::Store { gpu, idx });
        }
        for (idx, t) in run.atomics.iter().enumerate() {
            q.schedule(t.time, Op::Atomic { gpu, idx });
        }
        for (idx, p) in run.probes.iter().enumerate() {
            q.schedule(p.time, Op::Probe { gpu, idx });
        }
        for f in &run.fences {
            q.schedule(*f, Op::Release { gpu });
        }
        q.schedule(run.kernel_time, Op::Release { gpu });
    }
    let mut order = Vec::with_capacity(total);
    while let Some(ev) = q.pop() {
        order.push((ev.time, ev.payload));
    }
    order
}

/// Replays every iteration's operations through fresh `p` egress paths
/// (one per GPU, kept across iterations as the runner keeps them) and
/// returns their merged metrics.
fn replay_egress(
    b: &Bench,
    prep: &PreparedWorkload,
    p: Paradigm,
    orders: &[Vec<(SimTime, Op)>],
) -> Result<EgressMetrics, String> {
    let mode = if b.audited {
        PayloadMode::Full
    } else {
        PayloadMode::Extents
    };
    let mut paths: Vec<Box<dyn EgressPath>> = (0..b.cfg.num_gpus)
        .map(|g| {
            let mut path = p
                .make_egress(&b.cfg, GpuId::new(g), prep.gps_unsubscribed())
                .expect("replayed paradigms use stores");
            path.set_payload_mode(mode);
            path
        })
        .collect();
    for (runs, order) in prep.runs().iter().zip(orders) {
        for &(t, op) in order {
            let (gpu, packets) = match op {
                Op::Store { gpu, idx } => (gpu, paths[gpu].push(&runs[gpu].egress[idx].store, t)),
                Op::Atomic { gpu, idx } => (
                    gpu,
                    paths[gpu].push_atomic(&runs[gpu].atomics[idx].store, t),
                ),
                Op::Probe { gpu, idx } => {
                    let pr = runs[gpu].probes[idx];
                    (gpu, Ok(paths[gpu].load_probe(pr.dst, pr.addr, pr.len, t)))
                }
                Op::Release { gpu } => (gpu, Ok(paths[gpu].release())),
            };
            std::hint::black_box(packets.map_err(|e| format!("{p} egress rejected a store: {e}"))?);
            std::hint::black_box(paths[gpu].advance(t));
        }
    }
    let mut merged = EgressMetrics::default();
    for path in &paths {
        merged.merge(path.metrics());
    }
    Ok(merged)
}

/// The standalone replay must do exactly the runner's work, or its time
/// measures something else.
fn cross_check(
    app: &str,
    p: Paradigm,
    got: &EgressMetrics,
    runner: &RunReport,
) -> Result<(), String> {
    let want = &runner.egress;
    if got.packets != want.packets || got.flushes_by_reason != want.flushes_by_reason {
        return Err(format!(
            "standalone {p} egress replay of {app} diverged from the runner: \
             packets {} vs {}, flushes by reason {:?} vs {:?}",
            got.packets, want.packets, got.flushes_by_reason, want.flushes_by_reason
        ));
    }
    Ok(())
}

/// Stable id of one (app, paradigm) point, shared by all its spans.
fn point_id(app: usize, p: Paradigm) -> u32 {
    let ordinal = match p {
        Paradigm::BulkDma => 0,
        Paradigm::P2pStores => 1,
        Paradigm::FinePack => 2,
        Paradigm::InfiniteBw => 3,
        Paradigm::WriteCombining => 4,
        Paradigm::Gps => 5,
    };
    u32::try_from(app * 6 + ordinal).expect("few points")
}

/// Counts and host times accumulated over one pass.
#[derive(Debug, Default)]
struct Pass {
    warp_stores: u64,
    egress_stores: u64,
    queued_events: u64,
    untraced_run_s: f64,
    run_s_finepack: f64,
    egress_s: [f64; REPLAYED.len()],
    /// Per app: `audit_run` time over `try_run` time, FinePack point.
    audit_ratios: Vec<f64>,
    events: u64,
    fp: EgressMetrics,
    replayed_bytes: u64,
    link_retrains: u64,
    fc_update_dllps: u64,
    fc_blocked_attempts: u64,
    stall_us: f64,
    useful_bytes: u64,
    wire_bytes: u64,
    violations: [u64; 5],
    attempted: u64,
    failed: u64,
}

/// Runs every point of `b` untraced (the overhead reference), timed as
/// one block.
fn untraced_runs(b: &Bench, prep: &PreparedWorkload, pass: &mut Pass) {
    let t = Instant::now();
    for &p in &b.paradigms {
        std::hint::black_box(prep.try_run(&b.cfg, p).ok());
    }
    pass.untraced_run_s += t.elapsed().as_secs_f64();
}

/// One app of the traced pass, under span `parent`.
fn traced_app(
    b: &Bench,
    a: usize,
    rec: &mut Recorder,
    parent: SpanId,
    pass: &mut Pass,
) -> Result<(), String> {
    let app = b.apps[a].as_ref();
    let name = app.name();

    // workloads + gpu-model: PreparedWorkload::new's first two steps.
    let map = AddressMap::new(b.cfg.num_gpus, GPU_MEMORY);
    let gpus: Vec<Gpu> = (0..b.cfg.num_gpus)
        .map(|g| Gpu::new(b.cfg.gpu, GpuId::new(g), map))
        .collect();
    for iter in 0..b.spec.iterations {
        for gpu in &gpus {
            let detail = format!("{name} iter {iter} gpu {}", gpu.id().index());
            let s = rec.open("workloads.trace", detail.clone(), Some(parent), None);
            let trace = app.trace(&b.spec, iter, gpu.id());
            rec.close(s);
            pass.warp_stores += trace.store_count() as u64;
            let s = rec.open("gpu_model.replay", detail, Some(parent), None);
            let run = gpu.execute_kernel(&trace);
            rec.close(s);
            pass.egress_stores += run.egress.len() as u64;
        }
    }
    let s = rec.open("system.prepare", name.into(), Some(parent), None);
    let prep = PreparedWorkload::new(app, &b.cfg, &b.spec);
    rec.close(s);

    // system runner: each point traced, with an untraced reference run of
    // the same points beside it (alternating which goes first).
    let untraced_first = a.is_multiple_of(2);
    if untraced_first {
        untraced_runs(b, &prep, pass);
    }
    let mut reports = Vec::new();
    for &p in &b.paradigms {
        let s = rec.open(
            "system.run",
            format!("{name} {p}"),
            Some(parent),
            Some(point_id(a, p)),
        );
        let outcome = prep.try_run(&b.cfg, p);
        let secs = rec.close(s);
        pass.attempted += 1;
        match outcome {
            Ok(r) => {
                if p == Paradigm::FinePack {
                    pass.run_s_finepack += secs;
                }
                reports.push((p, r, secs));
            }
            Err(e) => {
                pass.failed += 1;
                eprintln!("traced point {name}/{p} failed: {e}");
            }
        }
    }
    if !untraced_first {
        untraced_runs(b, &prep, pass);
    }
    for (_, r, _) in &reports {
        pass.events += r.sim_events;
        pass.replayed_bytes += r.replayed_bytes;
        pass.link_retrains += r.link_retrains;
        pass.fc_update_dllps += r.fc_update_dllps;
        pass.fc_blocked_attempts += r.fc_blocked_attempts;
        pass.stall_us += r.stall_time.as_secs_f64() * 1e6;
        pass.useful_bytes += r.traffic.useful;
        pass.wire_bytes += r.traffic.total();
    }

    // telemetry: the conservation audit of the FinePack point. Its
    // findings are this layer's output, reported as counts.
    let fp_point = point_id(a, Paradigm::FinePack);
    let s = rec.open(
        "telemetry.audit",
        format!("{name} finepack"),
        Some(parent),
        Some(fp_point),
    );
    let audit = audit_run(&prep, &b.cfg, Paradigm::FinePack);
    let audit_s = rec.close(s);
    pass.attempted += 1;
    let audit = match audit {
        Ok(out) => out,
        Err(e) => {
            pass.failed += 1;
            eprintln!("traced audit of {name}/finepack failed: {e}");
            return Ok(());
        }
    };
    for (total, n) in pass.violations.iter_mut().zip(audit.law_counts) {
        *total += n;
    }
    if let Some((_, _, run_s)) = reports.iter().find(|(p, _, _)| *p == Paradigm::FinePack) {
        pass.audit_ratios.push(audit_s / run_s);
    }

    // sim-engine: the runner's per-iteration queue fill and drain.
    let s = rec.open("sim_engine.queue", name.into(), Some(parent), None);
    let orders: Vec<_> = prep.runs().iter().map(|runs| queue_order(runs)).collect();
    rec.close(s);
    pass.queued_events += orders.iter().map(|o| o.len() as u64).sum::<u64>();

    // finepack core: the egress paths alone, checked against the runner.
    for (i, &p) in REPLAYED.iter().enumerate() {
        let s = rec.open(
            "core.egress",
            format!("{name} {p}"),
            Some(parent),
            Some(point_id(a, p)),
        );
        let metrics = replay_egress(b, &prep, p, &orders);
        pass.egress_s[i] += rec.close(s);
        let metrics = metrics?;
        for (_, r, _) in reports.iter().filter(|(rp, _, _)| *rp == p) {
            cross_check(name, p, &metrics, r)?;
        }
        if p == Paradigm::FinePack {
            cross_check(name, p, &metrics, &audit.report)?;
            pass.fp.merge(&metrics);
        }
    }
    Ok(())
}

/// What the traced passes produced.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub passes: usize,
    pub metrics: Vec<Metric>,
}

/// Traced passes until the next one would overrun `seconds`, but at
/// least one; each metric is the median over passes.
pub fn measure(b: &Bench, seconds: f64, rec: &mut Recorder) -> Result<Outcome, String> {
    let mut per_pass: Vec<Vec<Metric>> = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let start = Instant::now();
    loop {
        let t = Instant::now();
        let first = rec.spans().len();
        let root = rec.open("bench.pass", b.name.into(), None, None);
        let mut pass = Pass::default();
        for a in 0..b.apps.len() {
            let s = rec.open("bench.app", b.apps[a].name().into(), Some(root), None);
            traced_app(b, a, rec, s, &mut pass)?;
            rec.close(s);
        }
        rec.close(root);
        attempted += pass.attempted;
        failed += pass.failed;
        per_pass.push(pass_metrics(&pass, rec, first));
        let last = t.elapsed().as_secs_f64();
        if start.elapsed().as_secs_f64() + last > seconds {
            break;
        }
    }
    let metrics = per_pass[0]
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let samples: Vec<f64> = per_pass.iter().map(|p| p[i].value).collect();
            Metric::new(m.name.clone(), m.unit, median(&samples))
        })
        .collect();
    Ok(Outcome {
        attempted,
        failed,
        passes: per_pass.len(),
        metrics,
    })
}

/// One pass's per-layer metrics, in reporting order. Layer times are
/// self times of the pass's spans (those recorded from index `first`).
fn pass_metrics(pass: &Pass, rec: &Recorder, first: SpanId) -> Vec<Metric> {
    let st = self_times(rec.spans(), first);
    let t = |name: &str| st.get(name).copied().unwrap_or(0.0);
    let per = |secs: f64, n: u64| secs * 1e9 / n.max(1) as f64;
    let count = |name: &str, n: u64| Metric::new(name, "count", n as f64);
    let secs = |name: &str, s: f64| Metric::new(name, "s", s);
    let (trace_s, replay_s, prepare_s, run_s) = (
        t("workloads.trace"),
        t("gpu_model.replay"),
        t("system.prepare"),
        t("system.run"),
    );
    let fp = &pass.fp;
    let mut m = vec![
        secs("workloads.trace_s", trace_s),
        count("workloads.warp_stores", pass.warp_stores),
        secs("gpu_model.replay_s", replay_s),
        Metric::new(
            "gpu_model.replay_ns_per_store",
            "ns/store",
            per(replay_s, pass.warp_stores),
        ),
        count("gpu_model.egress_stores", pass.egress_stores),
        secs("system.prepare_s", prepare_s),
        secs("system.prepare_other_s", prepare_s - trace_s - replay_s),
        secs("system.run_s", run_s),
        secs("system.run_s.finepack", pass.run_s_finepack),
        count("sim_engine.events", pass.events),
        Metric::new(
            "sim_engine.ns_per_event",
            "ns/event",
            per(run_s, pass.events),
        ),
        Metric::new(
            "sim_engine.queue_ns_per_event",
            "ns/event",
            per(t("sim_engine.queue"), pass.queued_events),
        ),
        secs("core.egress_s.finepack", pass.egress_s[0]),
        secs("core.egress_s.p2p-stores", pass.egress_s[1]),
        Metric::new(
            "core.egress_ns_per_store.finepack",
            "ns/store",
            per(pass.egress_s[0], fp.stores_in),
        ),
        count("core.packets", fp.packets),
        Metric::new(
            "core.stores_per_packet",
            "ratio",
            fp.mean_stores_per_packet().unwrap_or(0.0),
        ),
        Metric::new("core.overwritten_bytes", "B", fp.overwritten_bytes as f64),
    ];
    m.extend(FLUSH_REASONS.iter().map(|r| {
        Metric::new(
            format!("core.flushes.{}", r.label()),
            "count",
            fp.flushes_for(*r) as f64,
        )
    }));
    m.extend([
        Metric::new("protocol.replayed_bytes", "B", pass.replayed_bytes as f64),
        count("protocol.link_retrains", pass.link_retrains),
        count("protocol.fc_update_dllps", pass.fc_update_dllps),
        count("protocol.fc_blocked_attempts", pass.fc_blocked_attempts),
        Metric::new("protocol.stall_us", "sim_us", pass.stall_us),
        Metric::new(
            "protocol.goodput",
            "ratio",
            pass.useful_bytes as f64 / pass.wire_bytes.max(1) as f64,
        ),
        secs("telemetry.audit_s", t("telemetry.audit")),
        Metric::new(
            "telemetry.audit_overhead",
            "ratio",
            sim_engine::geomean(&pass.audit_ratios).unwrap_or(0.0),
        ),
    ]);
    m.extend(Law::ALL.iter().zip(pass.violations).map(|(law, n)| {
        Metric::new(
            format!("telemetry.violations.{}", law.label()),
            "count",
            n as f64,
        )
    }));
    m.push(Metric::new(
        "bench.trace_overhead",
        "ratio",
        run_s / pass.untraced_run_s,
    ));
    m.push(count(
        "bench.nproc",
        std::thread::available_parallelism().map_or(1, usize::from) as u64,
    ));
    m
}
