//! The event-driven iteration runner: replays per-GPU kernel egress
//! streams through a paradigm's egress paths and the switched fabric,
//! producing execution times and wire-traffic accounting.

use finepack::{
    EgressMetrics, EgressPath, FlushReason, PayloadMode, ReplayAmplification, WirePacket,
};
use gpu_model::{GpuId, KernelRun, MemoryImage};
use sim_engine::{Bandwidth, EventQueue, SimTime};
use telemetry::{EventKind, Sample, TraceEvent, TraceHandle};

use crate::budget::{BudgetKind, BudgetTrip, RunnerDiag};
use crate::config::SystemConfig;
use crate::fault::RunError;
use crate::paradigm::Paradigm;
use crate::report::{RunReport, TrafficBreakdown, UniqueTracker};
use crate::topology::{RoutedFabric, SendOutcome};

/// One DMA transfer leg: (source, destination, payload bytes).
pub type DmaPlan = Vec<(GpuId, GpuId, u64)>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
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
    Fence {
        gpu: usize,
    },
    KernelEnd {
        gpu: usize,
    },
    /// Credited mode only: the GPU's output buffer was blocked on link
    /// credits; retry draining when the earliest `UpdateFC` lands.
    Retry {
        gpu: usize,
    },
}

/// What one output-buffer drain pass achieved.
struct PumpOutcome {
    /// Latest local-memory drain time among delivered packets
    /// (`SimTime::ZERO` when nothing was delivered).
    last_drained: SimTime,
    /// Set when the head packet found a link out of credits: the
    /// earliest time it can be admitted.
    blocked_until: Option<SimTime>,
}

/// Builds the iteration's pre-scheduled event queue. The schedule order
/// — per GPU: egress stores, atomics, probes, fences, kernel end — is
/// load-bearing: it fixes the tie-break sequence numbers, and so the
/// order in which same-time events pop.
fn fill_queue(queue: &mut EventQueue<Ev>, runs: &[KernelRun]) {
    // Pre-size for the whole trace (plus a Retry slot per GPU) so
    // schedule/pop never reallocate in the hot loop.
    let trace_events: usize = runs
        .iter()
        .map(|r| r.egress.len() + r.atomics.len() + r.probes.len() + r.fences.len() + 1)
        .sum();
    queue.reset();
    let span = runs
        .iter()
        .map(|r| r.kernel_time)
        .max()
        .unwrap_or(SimTime::ZERO);
    queue.reserve_for_span(trace_events + runs.len(), span);
    for (g, run) in runs.iter().enumerate() {
        for (idx, t) in run.egress.iter().enumerate() {
            queue.schedule(t.time, Ev::Store { gpu: g, idx });
        }
        for (idx, t) in run.atomics.iter().enumerate() {
            queue.schedule(t.time, Ev::Atomic { gpu: g, idx });
        }
        for (idx, p) in run.probes.iter().enumerate() {
            queue.schedule(p.time, Ev::Probe { gpu: g, idx });
        }
        for f in &run.fences {
            queue.schedule(*f, Ev::Fence { gpu: g });
        }
        queue.schedule(run.kernel_time, Ev::KernelEnd { gpu: g });
    }
}

/// The lifecycle trace event an operation records as it issues.
fn issue_kind(payload: Ev, runs: &[KernelRun]) -> EventKind {
    match payload {
        Ev::Store { gpu, idx } => {
            let s = &runs[gpu].egress[idx].store;
            EventKind::StoreIssued {
                dst: s.dst.index() as u8,
                bytes: s.len(),
            }
        }
        Ev::Atomic { gpu, idx } => {
            let s = &runs[gpu].atomics[idx].store;
            EventKind::AtomicIssued {
                dst: s.dst.index() as u8,
                bytes: s.len(),
            }
        }
        Ev::Probe { gpu, idx } => EventKind::LoadProbe {
            dst: runs[gpu].probes[idx].dst.index() as u8,
        },
        Ev::Fence { .. } => EventKind::FenceRelease,
        Ev::KernelEnd { .. } => EventKind::KernelEnd,
        Ev::Retry { .. } => unreachable!("retries have no issue event"),
    }
}

/// Simulates a (workload, paradigm) combination iteration by iteration.
///
/// # Examples
///
/// ```
/// use system::{Paradigm, Runner, SystemConfig};
/// use workloads::{Jacobi, RunSpec, Workload};
/// use gpu_model::{AddressMap, Gpu, GpuId};
///
/// let cfg = SystemConfig::paper(2);
/// let spec = RunSpec::tiny();
/// let mut runner = Runner::new(cfg, Paradigm::FinePack, 0.0, false);
/// let map = AddressMap::new(2, 16 << 30);
/// let app = Jacobi::default();
/// let runs: Vec<_> = (0..2)
///     .map(|g| {
///         let gpu = Gpu::new(cfg.gpu, GpuId::new(g), map);
///         gpu.execute_kernel(&app.trace(&spec, 0, GpuId::new(g)))
///     })
///     .collect();
/// runner.run_iteration(&runs, &[]);
/// let report = runner.finish("jacobi", 1.0);
/// assert!(report.total_time.as_ps() > 0);
/// ```
#[derive(Debug)]
pub struct Runner {
    cfg: SystemConfig,
    paradigm: Paradigm,
    paths: Vec<Option<Box<dyn EgressPath>>>,
    fabric: RoutedFabric,
    unique: UniqueTracker,
    images: Option<Vec<MemoryImage>>,
    hbm: Bandwidth,
    dma_wire_bytes: u64,
    dma_data_bytes: u64,
    total_time: SimTime,
    compute_time: SimTime,
    drain_tail: SimTime,
    barrier_time: SimTime,
    iterations: u32,
    replay_amp: ReplayAmplification,
    sim_events: u64,
    /// Events processed since the last commit/flush advance — the
    /// progress-watchdog clock (see [`crate::RunBudget`]).
    events_since_progress: u64,
    trace: TraceHandle,
    sample_every: Option<SimTime>,
    /// The iteration event queue, recycled run to run so wheel buckets
    /// and the learned bucket width survive between iterations (see
    /// [`EventQueue::reset`]).
    queue_scratch: EventQueue<Ev>,
}

impl Runner {
    /// Creates a runner. `gps_unsubscribed` parameterizes the GPS
    /// paradigm; `track_memory` enables functional memory images for
    /// transparency verification (slower).
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid.
    pub fn new(
        cfg: SystemConfig,
        paradigm: Paradigm,
        gps_unsubscribed: f64,
        track_memory: bool,
    ) -> Self {
        cfg.validate();
        let paths = (0..cfg.num_gpus)
            .map(|g| paradigm.make_egress(&cfg, GpuId::new(g), gps_unsubscribed))
            .collect();
        let mut fabric = RoutedFabric::new(
            cfg.topology,
            cfg.num_gpus,
            cfg.pcie_gen.bandwidth(),
            cfg.hop_latency,
        );
        if let Some(profile) = cfg.fault {
            fabric = fabric.with_faults(profile, cfg.seed);
        }
        let mut paths: Vec<Option<Box<dyn EgressPath>>> = paths;
        let mode = if track_memory {
            PayloadMode::Full
        } else {
            // Without memory images nothing reads the payloads: carry
            // (addr, len) extents only and skip the data clones.
            PayloadMode::Extents
        };
        for path in paths.iter_mut().flatten() {
            path.set_payload_mode(mode);
        }
        if let Some(credits) = cfg.flow_control.credits() {
            fabric = fabric.with_flow_control(credits);
            for path in paths.iter_mut().flatten() {
                path.output().set_capacity(credits.buffer_packets);
            }
        }
        Runner {
            cfg,
            paradigm,
            paths,
            fabric,
            unique: UniqueTracker::new(),
            images: track_memory.then(|| (0..cfg.num_gpus).map(|_| MemoryImage::new()).collect()),
            hbm: cfg.gpu.hbm_bandwidth,
            dma_wire_bytes: 0,
            dma_data_bytes: 0,
            total_time: SimTime::ZERO,
            compute_time: SimTime::ZERO,
            drain_tail: SimTime::ZERO,
            barrier_time: SimTime::ZERO,
            iterations: 0,
            replay_amp: ReplayAmplification::new(),
            sim_events: 0,
            events_since_progress: 0,
            trace: TraceHandle::off(),
            sample_every: None,
            queue_scratch: EventQueue::new(),
        }
    }

    /// Checks every configured [`crate::RunBudget`] ceiling at
    /// iteration-local time `now` with `pending` events still queued,
    /// returning a structured trip with a diagnostic snapshot when one
    /// is exceeded. `stall` carries the iteration's per-GPU SM stall
    /// clocks (empty outside the store-paradigm loop).
    fn check_budget(
        &self,
        now: SimTime,
        pending: usize,
        stall: &[SimTime],
    ) -> Result<(), RunError> {
        let Some(budget) = self.cfg.run_budget else {
            return Ok(());
        };
        let kind = if let Some(limit) = budget.max_events.filter(|l| self.sim_events > *l) {
            BudgetKind::Events { limit }
        } else if let Some(limit) = budget.max_sim_time.filter(|l| self.total_time + now > *l) {
            BudgetKind::SimTime { limit }
        } else if let Some(limit) = budget
            .max_events_since_progress
            .filter(|l| self.events_since_progress > *l)
        {
            BudgetKind::Watchdog { limit }
        } else {
            return Ok(());
        };
        Err(RunError::BudgetExceeded(Box::new(BudgetTrip {
            kind,
            diag: RunnerDiag {
                now: self.total_time + now,
                sim_events: self.sim_events,
                pending_events: pending as u64,
                events_since_progress: self.events_since_progress,
                stall: stall.to_vec(),
                fc_in_flight: self.fabric.fc_in_flight_total(),
            },
        })))
    }

    /// Attaches a trace handle; subsequent iterations record lifecycle
    /// events through it. With `sample_every` set (and non-zero),
    /// per-GPU occupancy/credit/stall samples are additionally taken at
    /// that simulated-time interval. Tracing observes only: attaching
    /// any collector leaves the run's report byte-identical.
    pub fn attach_trace(&mut self, trace: TraceHandle, sample_every: Option<SimTime>) {
        self.trace = trace;
        self.sample_every = sample_every.filter(|t| t.as_ps() > 0);
    }

    /// Records one occupancy/credit/stall sample per store-paradigm GPU
    /// at iteration-local time `at`.
    fn take_samples(&self, at: SimTime) {
        for (g, path) in self.paths.iter().enumerate() {
            let Some(path) = path else { continue };
            let gid = GpuId::new(g as u8);
            let (hdrs, data) = self.fabric.egress_fc_in_flight(gid);
            self.trace.sample(Sample {
                time: at,
                gpu: g as u8,
                rwq_entries: path.queue_depth() as u64,
                egress_queue: path.occupancy() as u64,
                egress_wire_bytes: self.fabric.egress_bytes(gid),
                credit_hdrs_in_flight: hdrs,
                credit_data_in_flight: data,
                stall_ps: path.metrics().stall_time.as_ps(),
            });
        }
    }

    /// Emits one `Flush` event per flush the just-run path operation
    /// added, by diffing the per-reason counters around it. Counting
    /// from the aggregates keeps trace flush counts equal to
    /// `flushes_by_reason` by construction.
    fn record_flush_delta(&self, gpu: usize, at: SimTime, before: [u64; FlushReason::ALL.len()]) {
        let after = self.paths[gpu]
            .as_ref()
            .expect("store paradigm")
            .metrics()
            .flushes_by_reason;
        for (i, reason) in FlushReason::ALL.iter().enumerate() {
            for _ in before[i]..after[i] {
                self.trace.record(TraceEvent {
                    time: at,
                    gpu: gpu as u8,
                    kind: EventKind::Flush {
                        reason: reason.label(),
                    },
                });
            }
        }
    }

    /// The destination memory images, when `track_memory` was requested.
    pub fn images(&self) -> Option<&[MemoryImage]> {
        self.images.as_deref()
    }

    /// The fabric's cumulative credit ledger (consumed/returned units
    /// summed over every link direction), or `None` under open-loop
    /// flow control. Observational — read it before [`Runner::finish`].
    pub fn fc_totals(&self) -> Option<protocol::CreditTotals> {
        self.fabric.fc_totals_total()
    }

    /// `(header, data)` credit units currently in flight across the
    /// fabric; `(0, 0)` under open-loop flow control.
    pub fn fc_in_flight(&self) -> (u64, u64) {
        self.fabric.fc_in_flight_total()
    }

    /// Cumulative replayed bytes across every link. The data-link layer
    /// only exists under fault injection; without it replayed bytes are
    /// identically zero, so the per-packet all-links sweep is skipped.
    fn replayed_total(&self) -> u64 {
        if self.cfg.fault.is_some() {
            self.fabric.replayed_bytes_total()
        } else {
            0
        }
    }

    /// Delivers `packets` open-loop: every packet is sent at `at`
    /// regardless of link occupancy. Returns the latest drain time.
    fn deliver(
        &mut self,
        at: SimTime,
        src: GpuId,
        packets: Vec<WirePacket>,
    ) -> Result<SimTime, RunError> {
        let mut last = SimTime::ZERO;
        for p in packets {
            let replayed_before = self.replayed_total();
            let landed = self
                .fabric
                .try_send(at, src, p.dst, p.wire_bytes)
                .map_err(RunError::LinkDown)?;
            last = last.max(self.land(at, src, &p, replayed_before, landed)?);
        }
        Ok(last)
    }

    /// Accounts one packet sent at `at` that landed at `landed`, whether
    /// open-loop or credited: replay attribution, the stall bound, the
    /// destination's local-memory drain, the trace, and the memory
    /// image. `replayed_before` is [`Runner::replayed_total`] read just
    /// before the send. Returns the time the packet's stores drained.
    fn land(
        &mut self,
        at: SimTime,
        src: GpuId,
        p: &WirePacket,
        replayed_before: u64,
        landed: SimTime,
    ) -> Result<SimTime, RunError> {
        // A replayed aggregated TLP retransmits whole: attribute the
        // amplification to the flush that produced the packet.
        let replayed = self.replayed_total() - replayed_before;
        self.replay_amp.record(p.reason, p.wire_bytes, replayed);
        // No-forward-progress watchdog: a delivery that stalls past the
        // bound (crawling degraded link, replay storm) is a diagnostic
        // failure, not a silently absurd timeline.
        if let Some(limit) = self.cfg.fault.map(|f| f.max_stall) {
            if landed.saturating_sub(at) > limit {
                return Err(RunError::Stalled {
                    gpu: src.index() as u8,
                    at,
                    landed,
                    limit,
                });
            }
        }
        // The de-packetizer / L2 drains disaggregated stores at local
        // memory bandwidth (§IV-B); this is never the bottleneck but is
        // modeled for completeness.
        let drained = landed + self.hbm.transfer_time(p.data_bytes);
        if self.trace.is_on() {
            self.record_transfer(at, src, p, replayed, landed, drained);
        }
        if let Some(images) = &mut self.images {
            let stores = p.stores.full().expect("track_memory runs carry payloads");
            for s in stores {
                images[p.dst.index()].write(s.addr, &s.data);
            }
        }
        Ok(drained)
    }

    /// Records the wire/replay/commit events for one delivered packet.
    fn record_transfer(
        &self,
        at: SimTime,
        src: GpuId,
        p: &WirePacket,
        replayed: u64,
        landed: SimTime,
        drained: SimTime,
    ) {
        self.trace.record(TraceEvent {
            time: at,
            gpu: src.index() as u8,
            kind: EventKind::WireTransmit {
                dst: p.dst.index() as u8,
                wire_bytes: p.wire_bytes,
                payload_bytes: u64::from(p.payload_bytes),
                stores: p.stores.len() as u32,
                reason: p.reason.map(|r| r.label()),
                done: landed,
            },
        });
        if replayed > 0 {
            self.trace.record(TraceEvent {
                time: at,
                gpu: src.index() as u8,
                kind: EventKind::DllReplay { bytes: replayed },
            });
        }
        self.trace.record(TraceEvent {
            time: landed,
            gpu: p.dst.index() as u8,
            kind: EventKind::Commit {
                data_bytes: p.data_bytes,
                done: drained,
            },
        });
    }

    /// Drains `gpu`'s output buffer head-first through the credited
    /// fabric: the head packet is admitted against link credits, popped
    /// on delivery, and left in place when blocked.
    fn pump(&mut self, gpu: usize, at: SimTime) -> Result<PumpOutcome, RunError> {
        let src = GpuId::new(gpu as u8);
        let mut last = SimTime::ZERO;
        loop {
            let out = self.paths[gpu]
                .as_ref()
                .expect("store paradigm")
                .output_ref();
            let Some(head) = out.front() else { break };
            let (dst, wire_bytes, payload_bytes) = (head.dst, head.wire_bytes, head.payload_bytes);
            let replayed_before = self.replayed_total();
            let outcome = self
                .fabric
                .try_send_credited(at, src, dst, wire_bytes, payload_bytes)
                .map_err(RunError::LinkDown)?;
            let landed = match outcome {
                SendOutcome::Delivered(landed) => landed,
                SendOutcome::Blocked { until } => {
                    debug_assert!(until > at, "blocked admission must make progress");
                    self.trace.record(TraceEvent {
                        time: at,
                        gpu: gpu as u8,
                        kind: EventKind::CreditBlocked { until },
                    });
                    return Ok(PumpOutcome {
                        last_drained: last,
                        blocked_until: Some(until),
                    });
                }
            };
            let p = self.paths[gpu]
                .as_mut()
                .expect("store paradigm")
                .output()
                .pop_front()
                .expect("head just observed");
            last = last.max(self.land(at, src, &p, replayed_before, landed)?);
        }
        Ok(PumpOutcome {
            last_drained: last,
            blocked_until: None,
        })
    }

    /// Simulates one bulk-synchronous iteration. `runs` holds each GPU's
    /// kernel replay; `dma_plan` the DMA legs (used only by
    /// [`Paradigm::BulkDma`]).
    ///
    /// # Panics
    ///
    /// Panics if `runs.len()` differs from the configured GPU count, or
    /// if injected faults kill the run — fault experiments should use
    /// [`Runner::try_run_iteration`] and inspect the diagnostic.
    pub fn run_iteration(&mut self, runs: &[KernelRun], dma_plan: &[(GpuId, GpuId, u64)]) {
        if let Err(e) = self.try_run_iteration(runs, dma_plan) {
            panic!("{e}");
        }
    }

    /// [`Runner::run_iteration`], surfacing link death and watchdog
    /// trips as errors instead of hanging or panicking.
    ///
    /// # Errors
    ///
    /// [`RunError::LinkDown`] when a link exhausts its retrain budget;
    /// [`RunError::Stalled`] when a delivery exceeds the fault
    /// profile's stall bound; [`RunError::BudgetExceeded`] when a
    /// configured [`crate::RunBudget`] ceiling trips (the runner should
    /// be discarded after any error — partial iteration state is not
    /// rolled back).
    ///
    /// # Panics
    ///
    /// Panics if `runs.len()` differs from the configured GPU count.
    pub fn try_run_iteration(
        &mut self,
        runs: &[KernelRun],
        dma_plan: &[(GpuId, GpuId, u64)],
    ) -> Result<(), RunError> {
        self.try_run_iteration_inner(runs, dma_plan, None)
    }

    /// [`Runner::try_run_iteration`] with the iteration's unique-byte
    /// count already aggregated (see
    /// [`UniqueTracker::add_precomputed`]): skips the per-store line-map
    /// replay, which is paradigm-independent and therefore identical
    /// across every run of the same prepared workload.
    ///
    /// # Errors
    ///
    /// As [`Runner::try_run_iteration`].
    ///
    /// # Panics
    ///
    /// Panics if `runs.len()` differs from the configured GPU count.
    pub fn try_run_iteration_precomputed(
        &mut self,
        runs: &[KernelRun],
        dma_plan: &[(GpuId, GpuId, u64)],
        unique_bytes: u64,
    ) -> Result<(), RunError> {
        self.try_run_iteration_inner(runs, dma_plan, Some(unique_bytes))
    }

    fn try_run_iteration_inner(
        &mut self,
        runs: &[KernelRun],
        dma_plan: &[(GpuId, GpuId, u64)],
        unique_bytes: Option<u64>,
    ) -> Result<(), RunError> {
        assert_eq!(runs.len(), usize::from(self.cfg.num_gpus));
        if self.trace.is_on() {
            // Iteration timelines restart at zero: shift this
            // iteration's events past everything already simulated, and
            // hand every path a handle carrying the same base.
            self.trace.rebase(self.total_time);
            for path in self.paths.iter_mut().flatten() {
                path.set_trace(self.trace.clone());
            }
        }
        // Unique-byte tracking is paradigm-independent: it reflects the
        // program's store stream.
        match unique_bytes {
            Some(bytes) => self.unique.add_precomputed(bytes),
            None => {
                for run in runs {
                    for t in run.egress.iter().chain(run.atomics.iter()) {
                        self.unique.add(t.store.addr, t.store.len());
                    }
                }
            }
        }

        let mut kernel_end = runs
            .iter()
            .map(|r| r.kernel_time)
            .max()
            .unwrap_or(SimTime::ZERO);
        let mut last_delivery = SimTime::ZERO;

        match self.paradigm {
            Paradigm::InfiniteBw => {
                // Transfer time analytically elided (§V).
            }
            Paradigm::BulkDma => {
                for (src, dst, bytes) in dma_plan {
                    self.sim_events += 1;
                    // DMA legs always progress: the watchdog is a
                    // store-loop concern, but the event and sim-time
                    // ceilings still bound runaway plans.
                    let start = runs[src.index()].kernel_time + self.cfg.dma_sw_overhead;
                    self.check_budget(start, 0, &[])?;
                    let wire = self.cfg.framing.bulk_wire_bytes(*bytes);
                    let landed = self
                        .fabric
                        .try_send(start, *src, *dst, wire)
                        .map_err(RunError::LinkDown)?;
                    self.trace.record(TraceEvent {
                        time: start,
                        gpu: src.index() as u8,
                        kind: EventKind::WireTransmit {
                            dst: dst.index() as u8,
                            wire_bytes: wire,
                            payload_bytes: *bytes,
                            stores: 0,
                            reason: None,
                            done: landed,
                        },
                    });
                    last_delivery = last_delivery.max(landed);
                    self.dma_wire_bytes += wire;
                    self.dma_data_bytes += bytes;
                }
                if let Some(images) = &mut self.images {
                    // A DMA of the replica region delivers every written
                    // byte's final value.
                    for run in runs {
                        for t in run.egress.iter().chain(run.atomics.iter()) {
                            images[t.store.dst.index()].write(t.store.addr, &t.store.data);
                        }
                    }
                }
            }
            _ => {
                // Store-transport paradigms: event-driven replay.
                self.run_stores(runs, &mut kernel_end, &mut last_delivery)?;
            }
        }

        let iter_time = kernel_end.max(last_delivery) + self.cfg.barrier_overhead;
        self.total_time += iter_time;
        self.compute_time += kernel_end;
        self.drain_tail += last_delivery.saturating_sub(kernel_end);
        self.barrier_time += self.cfg.barrier_overhead;
        self.iterations += 1;
        self.unique.barrier();
        self.fabric.reset_time();
        Ok(())
    }

    /// The store-paradigm event loop: one global queue, every path
    /// operation and fabric interaction inline.
    fn run_stores(
        &mut self,
        runs: &[KernelRun],
        kernel_end: &mut SimTime,
        last_delivery: &mut SimTime,
    ) -> Result<(), RunError> {
        let credited = self.cfg.flow_control.credits().is_some();
        // Cumulative SM stall per GPU (credited mode). Every
        // pre-scheduled event for a GPU shifts right by its
        // accumulated stall, preserving program order; with
        // zero stalls the replay — event order, timestamps,
        // fabric call sequence — is identical to open loop.
        let mut stall = vec![SimTime::ZERO; runs.len()];
        let mut retry_at: Vec<Option<SimTime>> = vec![None; runs.len()];
        // The queue is recycled run to run; an errored iteration leaves
        // an empty one behind (errored runs are abandoned anyway).
        let mut queue = std::mem::take(&mut self.queue_scratch);
        fill_queue(&mut queue, runs);
        let sample_step = self.sample_every.filter(|_| self.trace.is_on());
        let mut next_sample = sample_step.unwrap_or(SimTime::ZERO);
        while let Some(ev) = queue.pop() {
            self.sim_events += 1;
            self.events_since_progress += 1;
            let now = ev.time;
            self.check_budget(now, queue.len(), &stall)?;
            if let Some(step) = sample_step {
                while next_sample <= now {
                    self.take_samples(next_sample);
                    next_sample += step;
                }
            }
            if let Ev::Retry { gpu } = ev.payload {
                retry_at[gpu] = None;
                let out = self.pump(gpu, now)?;
                if out.last_drained > SimTime::ZERO {
                    self.events_since_progress = 0;
                }
                *last_delivery = (*last_delivery).max(out.last_drained);
                if let Some(until) = out.blocked_until {
                    if retry_at[gpu].is_none_or(|r| until < r) {
                        retry_at[gpu] = Some(until);
                        queue.schedule(until, Ev::Retry { gpu });
                    }
                }
                continue;
            }
            let gpu = match ev.payload {
                Ev::Store { gpu, .. }
                | Ev::Atomic { gpu, .. }
                | Ev::Probe { gpu, .. }
                | Ev::Fence { gpu }
                | Ev::KernelEnd { gpu } => gpu,
                Ev::Retry { .. } => unreachable!("handled above"),
            };
            // The operation issues at its nominal time shifted
            // by everything this GPU has already stalled.
            let mut eff = now + stall[gpu];
            // Closed loop: an SM memory operation that finds
            // the egress output buffer at its admission
            // threshold stalls the stream until draining —
            // gated on link credits — frees a slot.
            let is_mem_op = matches!(
                ev.payload,
                Ev::Store { .. } | Ev::Atomic { .. } | Ev::Probe { .. }
            );
            if credited && is_mem_op {
                loop {
                    if self.paths[gpu]
                        .as_ref()
                        .expect("store paradigm")
                        .can_accept()
                    {
                        break;
                    }
                    let out = self.pump(gpu, eff)?;
                    if out.last_drained > SimTime::ZERO {
                        self.events_since_progress = 0;
                    }
                    *last_delivery = (*last_delivery).max(out.last_drained);
                    if self.paths[gpu]
                        .as_ref()
                        .expect("store paradigm")
                        .can_accept()
                    {
                        break;
                    }
                    let until = out
                        .blocked_until
                        .expect("a still-full buffer implies a blocked head");
                    // Each blocked wait advances simulated time
                    // without popping an event, so a stalled
                    // stream (e.g. credits that effectively
                    // never return) could spin here past every
                    // pop-time check: budget the wait itself.
                    self.events_since_progress += 1;
                    self.check_budget(until, queue.len(), &stall)?;
                    let waited = until.saturating_sub(eff);
                    self.trace.record(TraceEvent {
                        time: eff,
                        gpu: gpu as u8,
                        kind: EventKind::Stall { duration: waited },
                    });
                    let path = self.paths[gpu].as_mut().expect("store paradigm");
                    path.record_stall(waited);
                    stall[gpu] += waited;
                    eff = until;
                }
            }
            let flushes_before = self.trace.is_on().then(|| {
                // Snapshot the per-reason flush counters so any
                // flush this event triggers (in push, probe,
                // release, or the timeout advance below) becomes
                // exactly one Flush trace event.
                self.paths[gpu]
                    .as_ref()
                    .expect("store paradigm")
                    .metrics()
                    .flushes_by_reason
            });
            if self.trace.is_on() {
                self.trace.record(TraceEvent {
                    time: eff,
                    gpu: gpu as u8,
                    kind: issue_kind(ev.payload, runs),
                });
            }
            let mut packets = match ev.payload {
                Ev::Store { gpu, idx } => {
                    // Borrow straight from the run's egress
                    // stream: zero payload allocation per event.
                    let store = &runs[gpu].egress[idx].store;
                    let path = self.paths[gpu].as_mut().expect("store paradigm");
                    path.push(store, eff).expect("valid L1-coalesced store")
                }
                Ev::Atomic { gpu, idx } => {
                    let store = &runs[gpu].atomics[idx].store;
                    let path = self.paths[gpu].as_mut().expect("store paradigm");
                    path.push_atomic(store, eff).expect("valid atomic")
                }
                Ev::Probe { gpu, idx } => {
                    let p = runs[gpu].probes[idx];
                    let path = self.paths[gpu].as_mut().expect("store paradigm");
                    path.load_probe(p.dst, p.addr, p.len, eff)
                }
                Ev::Fence { gpu } | Ev::KernelEnd { gpu } => {
                    let path = self.paths[gpu].as_mut().expect("store paradigm");
                    path.release()
                }
                Ev::Retry { .. } => unreachable!("handled above"),
            };
            if matches!(ev.payload, Ev::KernelEnd { .. }) {
                // The kernel is not done until its last
                // operation has issued: stalls push it out.
                *kernel_end = (*kernel_end).max(eff);
            }
            // Inactivity-timeout flushes piggyback on event
            // processing for the same GPU.
            let path = self.paths[gpu].as_mut().expect("store paradigm");
            packets.extend(path.advance(eff));
            if !packets.is_empty() {
                // A flush advanced: the path packetized buffered
                // stores. Progress for the watchdog even if the
                // packets then wait on credits.
                self.events_since_progress = 0;
            }
            if let Some(before) = flushes_before {
                self.record_flush_delta(gpu, eff, before);
            }
            if credited {
                if !packets.is_empty() {
                    self.paths[gpu]
                        .as_mut()
                        .expect("store paradigm")
                        .output()
                        .extend(packets);
                }
                let out = self.pump(gpu, eff)?;
                if out.last_drained > SimTime::ZERO {
                    self.events_since_progress = 0;
                }
                *last_delivery = (*last_delivery).max(out.last_drained);
                if let Some(until) = out.blocked_until {
                    if retry_at[gpu].is_none_or(|r| until < r) {
                        retry_at[gpu] = Some(until);
                        queue.schedule(until, Ev::Retry { gpu });
                    }
                }
            } else if !packets.is_empty() {
                let done = self.deliver(eff, GpuId::new(gpu as u8), packets)?;
                *last_delivery = (*last_delivery).max(done);
            }
        }
        debug_assert!(
            self.paths
                .iter()
                .flatten()
                .all(|p| p.output_ref().is_empty()),
            "event queue drained with packets stranded in an output buffer"
        );
        self.queue_scratch = queue;
        Ok(())
    }

    /// Finalizes the run into a [`RunReport`]. `read_fraction` is the
    /// workload's fraction of uniquely-written bytes the destination
    /// reads (drives the useful/wasted split of Fig 10).
    pub fn finish(self, workload: &str, read_fraction: f64) -> RunReport {
        let mut egress = EgressMetrics::default();
        for p in self.paths.iter().flatten() {
            egress.merge(p.metrics());
        }
        let unique = self.unique.unique_bytes();
        let useful_target = (unique as f64 * read_fraction) as u64;
        // Retransmitted TLP bytes rode the wire but carried no new
        // data: they are protocol overhead, never goodput.
        let replayed_bytes = self.fabric.replayed_bytes_total();
        let mut traffic = match self.paradigm {
            Paradigm::InfiniteBw => TrafficBreakdown::default(),
            Paradigm::BulkDma => {
                let useful = useful_target.min(self.dma_data_bytes);
                TrafficBreakdown {
                    useful,
                    protocol: self.dma_wire_bytes - self.dma_data_bytes,
                    wasted: self.dma_data_bytes - useful,
                }
            }
            _ => {
                let useful = useful_target.min(egress.data_bytes);
                TrafficBreakdown {
                    useful,
                    protocol: egress.protocol_bytes(),
                    wasted: egress.data_bytes - useful,
                }
            }
        };
        if self.paradigm != Paradigm::InfiniteBw {
            traffic.protocol += replayed_bytes;
        }
        let fc = self.fabric.fc_stats_total();
        RunReport {
            workload: workload.to_string(),
            paradigm: self.paradigm,
            num_gpus: self.cfg.num_gpus,
            total_time: self.total_time,
            compute_time: self.compute_time,
            drain_tail: self.drain_tail,
            barrier_time: self.barrier_time,
            stall_time: egress.stall_time,
            fc_update_dllps: fc.update_dllps,
            fc_blocked_attempts: fc.blocked_attempts,
            traffic,
            egress,
            unique_bytes: unique,
            replayed_bytes,
            link_retrains: self.fabric.retrains_total(),
            replay_amplification: self.replay_amp,
            sim_events: self.sim_events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_model::{AddressMap, Gpu};
    use workloads::{Jacobi, Pagerank, RunSpec, Workload};

    fn runs_for(app: &dyn Workload, cfg: &SystemConfig, spec: &RunSpec) -> Vec<KernelRun> {
        let map = AddressMap::new(cfg.num_gpus, 16 << 30);
        (0..cfg.num_gpus)
            .map(|g| {
                let gpu = Gpu::new(cfg.gpu, GpuId::new(g), map);
                gpu.execute_kernel(&app.trace(spec, 0, GpuId::new(g)))
            })
            .collect()
    }

    #[test]
    fn infinite_bw_is_fastest() {
        let cfg = SystemConfig::paper(2);
        let spec = RunSpec::tiny();
        let app = Pagerank::default();
        let runs = runs_for(&app, &cfg, &spec);
        let times: Vec<SimTime> = [
            Paradigm::InfiniteBw,
            Paradigm::FinePack,
            Paradigm::P2pStores,
        ]
        .into_iter()
        .map(|p| {
            let mut r = Runner::new(cfg, p, 0.0, false);
            r.run_iteration(&runs, &[]);
            r.finish("pagerank", 0.8).total_time
        })
        .collect();
        assert!(times[0] <= times[1], "inf {} vs fp {}", times[0], times[1]);
        assert!(times[1] < times[2], "fp {} vs p2p {}", times[1], times[2]);
    }

    #[test]
    fn dma_paradigm_accounts_wire_bytes() {
        let cfg = SystemConfig::paper(2);
        let spec = RunSpec::tiny();
        let app = Jacobi::default();
        let runs = runs_for(&app, &cfg, &spec);
        let mut r = Runner::new(cfg, Paradigm::BulkDma, 0.0, false);
        let plan = vec![
            (GpuId::new(0), GpuId::new(1), 64 << 10),
            (GpuId::new(1), GpuId::new(0), 64 << 10),
        ];
        r.run_iteration(&runs, &plan);
        let report = r.finish("jacobi", 1.0);
        assert!(report.traffic.total() > 128 << 10);
        // Bulk TLPs: protocol share is tiny.
        let prot_frac = report.traffic.protocol as f64 / report.traffic.total() as f64;
        assert!(prot_frac < 0.02, "prot_frac={prot_frac}");
    }

    #[test]
    fn transparency_all_store_paradigms_same_memory_image() {
        let cfg = SystemConfig::paper(2);
        let spec = RunSpec::tiny();
        let app = Pagerank::default();
        let runs = runs_for(&app, &cfg, &spec);
        let image_for = |p: Paradigm| {
            let mut r = Runner::new(cfg, p, 0.0, true);
            r.run_iteration(&runs, &[]);
            r.images().unwrap().to_vec()
        };
        let p2p = image_for(Paradigm::P2pStores);
        let fp = image_for(Paradigm::FinePack);
        let wc = image_for(Paradigm::WriteCombining);
        for g in 0..2 {
            assert!(
                p2p[g].same_contents(&fp[g]),
                "finepack image differs on GPU{g}"
            );
            assert!(
                p2p[g].same_contents(&wc[g]),
                "write-combining image differs on GPU{g}"
            );
        }
    }

    #[test]
    fn finepack_uses_less_wire_than_p2p_and_more_stores_per_packet() {
        let cfg = SystemConfig::paper(2);
        let spec = RunSpec::tiny();
        let app = Pagerank::default();
        let runs = runs_for(&app, &cfg, &spec);
        let report_for = |p: Paradigm| {
            let mut r = Runner::new(cfg, p, 0.0, false);
            r.run_iteration(&runs, &[]);
            r.finish("pagerank", 0.8)
        };
        let fp = report_for(Paradigm::FinePack);
        let p2p = report_for(Paradigm::P2pStores);
        assert!(fp.traffic.total() * 2 < p2p.traffic.total());
        assert!(fp.mean_stores_per_packet().unwrap() > 8.0);
        assert_eq!(p2p.mean_stores_per_packet(), Some(1.0));
        // Same unique bytes either way (paradigm-independent).
        assert_eq!(fp.unique_bytes, p2p.unique_bytes);
    }

    #[test]
    #[should_panic(expected = "assertion")]
    fn wrong_run_count_panics() {
        let cfg = SystemConfig::paper(4);
        let mut r = Runner::new(cfg, Paradigm::InfiniteBw, 0.0, false);
        r.run_iteration(&[], &[]);
    }
}
