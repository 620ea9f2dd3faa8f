//! The event-driven iteration runner: replays per-GPU kernel egress
//! streams through a paradigm's egress paths and the switched fabric,
//! producing execution times and wire-traffic accounting.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};

use finepack::{
    EgressMetrics, EgressPath, FlushReason, PayloadMode, ReplayAmplification, WirePacket,
};
use gpu_model::{GpuId, KernelRun, MemoryImage};
use sim_engine::{Bandwidth, EventQueue, SimTime};
use telemetry::{EventKind, Sample, TraceCollector, TraceEvent};

use crate::budget::{BudgetKind, BudgetTrip, RunnerDiag};
use crate::config::SystemConfig;
use crate::fault::RunError;
use crate::paradigm::Paradigm;
use crate::report::{RunReport, TrafficBreakdown, UniqueTracker};
use crate::topology::{Delivery, RoutedFabric, SendOutcome};

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
    /// Credited mode only: the GPU's port was blocked on link credits;
    /// retry draining when the earliest `UpdateFC` lands.
    Retry {
        gpu: usize,
    },
}

/// One GPU's operation streams, declared in the order that breaks a
/// time tie between them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Stream {
    Stores,
    Atomics,
    Probes,
    Fences,
    KernelEnd,
}

impl Stream {
    const ALL: [Stream; 5] = [
        Stream::Stores,
        Stream::Atomics,
        Stream::Probes,
        Stream::Fences,
        Stream::KernelEnd,
    ];

    /// The time of this stream's operation `idx` in `run`, if it has one.
    fn time(self, run: &KernelRun, idx: usize) -> Option<SimTime> {
        match self {
            Stream::Stores => run.egress.get(idx).map(|t| t.time),
            Stream::Atomics => run.atomics.get(idx).map(|t| t.time),
            Stream::Probes => run.probes.get(idx).map(|p| p.time),
            Stream::Fences => run.fences.get(idx).copied(),
            Stream::KernelEnd => (idx == 0).then_some(run.kernel_time),
        }
    }

    /// This stream's operation `idx` on `gpu`, as an event.
    fn event(self, gpu: usize, idx: usize) -> Ev {
        match self {
            Stream::Stores => Ev::Store { gpu, idx },
            Stream::Atomics => Ev::Atomic { gpu, idx },
            Stream::Probes => Ev::Probe { gpu, idx },
            Stream::Fences => Ev::Fence { gpu },
            Stream::KernelEnd => Ev::KernelEnd { gpu },
        }
    }
}

/// True when each of `run`'s operation streams is in non-decreasing
/// time order, as [`Schedule`] requires.
fn streams_sorted(run: &KernelRun) -> bool {
    run.egress.is_sorted_by_key(|t| t.time)
        && run.atomics.is_sorted_by_key(|t| t.time)
        && run.probes.is_sorted_by_key(|p| p.time)
        && run.fences.is_sorted()
}

/// One iteration's events in the order the store loop handles them:
/// every GPU's operation streams, merged as they are drained, and the
/// credit retries the loop schedules while draining them.
///
/// Operations pop in `(time, gpu, stream, index)` order. A retry pops
/// after every operation of its time, and retries of one time pop in
/// the order they were scheduled. This is the order of one queue filled
/// GPU by GPU, stream by stream and index by index before the drain,
/// with each retry scheduled as it is issued: every stream is sorted by
/// time, so its next operation is also its first in that order.
#[derive(Debug)]
struct Schedule<'r> {
    runs: &'r [KernelRun],
    /// The next operation of every stream that has one left.
    heads: BinaryHeap<Reverse<(SimTime, usize, Stream, usize)>>,
    /// Operations not yet popped.
    ops_left: usize,
    retries: EventQueue<Ev>,
}

impl<'r> Schedule<'r> {
    /// Schedules every operation of `runs`; `retries` is emptied and
    /// reused for this iteration's retries.
    fn new(runs: &'r [KernelRun], mut retries: EventQueue<Ev>) -> Self {
        retries.reset();
        let mut heads = BinaryHeap::with_capacity(runs.len() * Stream::ALL.len());
        for (gpu, run) in runs.iter().enumerate() {
            for stream in Stream::ALL {
                if let Some(time) = stream.time(run, 0) {
                    heads.push(Reverse((time, gpu, stream, 0)));
                }
            }
        }
        let ops_left = runs
            .iter()
            .map(|r| r.egress.len() + r.atomics.len() + r.probes.len() + r.fences.len() + 1)
            .sum();
        Schedule {
            runs,
            heads,
            ops_left,
            retries,
        }
    }

    /// Removes and returns the next event, or `None` once every
    /// operation and retry has popped.
    fn pop(&mut self) -> Option<(SimTime, Ev)> {
        let next_op = self.heads.peek().map(|Reverse((time, ..))| *time);
        if let Some(retry) = self.retries.peek_time() {
            // A retry loses every time tie to an operation.
            if next_op.is_none_or(|op| retry < op) {
                let ev = self.retries.pop().expect("a retry is pending");
                return Some((ev.time, ev.payload));
            }
        }
        let mut head = self.heads.peek_mut()?;
        let Reverse((time, gpu, stream, idx)) = *head;
        match stream.time(&self.runs[gpu], idx + 1) {
            Some(next) => *head = Reverse((next, gpu, stream, idx + 1)),
            None => {
                PeekMut::pop(head);
            }
        }
        self.ops_left -= 1;
        Some((time, stream.event(gpu, idx)))
    }

    /// Schedules a retry of `gpu`'s port at `at`.
    fn retry(&mut self, at: SimTime, gpu: usize) {
        self.retries.schedule(at, Ev::Retry { gpu });
    }

    /// Events not yet popped: operations, plus retries, counting those
    /// that a sooner retry of the same GPU, scheduled after them, made
    /// stale.
    fn len(&self) -> usize {
        self.ops_left + self.retries.len()
    }

    /// Hands back the retry queue for the next iteration.
    fn into_retries(self) -> EventQueue<Ev> {
        self.retries
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
/// The runner is the one place that records trace events: into the
/// collector lent to it with [`Runner::attach_trace`], which it borrows
/// for `'t`, until [`Runner::finish`].
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
pub struct Runner<'t> {
    cfg: SystemConfig,
    paradigm: Paradigm,
    paths: Vec<Option<Box<dyn EgressPath>>>,
    /// Per GPU: the FIFO between its egress path and its PCIe port.
    /// Packets wait here for link credits; open loop drains it within
    /// the event that queued them.
    ports: Vec<VecDeque<WirePacket>>,
    /// The port's admission threshold, packets: a memory operation
    /// that finds its port this full stalls the GPU until draining
    /// frees a slot. A threshold, not a cap: one flush may emit several
    /// packets and overshoot it.
    port_capacity: usize,
    /// Per GPU: cumulative time the store stream spent stalled on a
    /// full port. Zero under open loop.
    stall_time: Vec<SimTime>,
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
    /// The collector lent for the run; `None` when untraced.
    trace: Option<&'t mut dyn TraceCollector>,
    sample_every: Option<SimTime>,
    /// The iteration's credit retries (see [`Schedule`]), recycled
    /// iteration to iteration so the queue keeps its buffer.
    queue_scratch: EventQueue<Ev>,
}

impl<'t> Runner<'t> {
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
        let gpus = usize::from(cfg.num_gpus);
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
        // Open loop is a fabric with no credits attached: its sends never
        // block, so its ports never fill.
        let mut port_capacity = usize::MAX;
        if let Some(credits) = cfg.flow_control.credits() {
            fabric = fabric.with_flow_control(credits);
            port_capacity = credits.buffer_packets;
        }
        Runner {
            cfg,
            paradigm,
            paths,
            ports: vec![VecDeque::new(); gpus],
            port_capacity,
            stall_time: vec![SimTime::ZERO; gpus],
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
            trace: None,
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

    /// Lends the run `trace`: subsequent iterations record their
    /// lifecycle events into it, on one run-global timeline. With
    /// `sample_every` set (and non-zero), per-GPU occupancy/credit/stall
    /// samples are additionally taken at that simulated-time interval.
    /// Tracing observes only: attaching any collector leaves the run's
    /// report byte-identical.
    pub fn attach_trace(
        &mut self,
        trace: &'t mut dyn TraceCollector,
        sample_every: Option<SimTime>,
    ) {
        self.trace = Some(trace);
        self.sample_every = sample_every.filter(|t| t.as_ps() > 0);
    }

    /// Records `event`, stamped with iteration-local time, on the run's
    /// timeline: shifted past the iterations already simulated.
    fn record(&mut self, event: TraceEvent) {
        if let Some(trace) = self.trace.as_deref_mut() {
            trace.record(event.shifted(self.total_time));
        }
    }

    /// Records one occupancy/credit/stall sample per store-paradigm GPU
    /// at iteration-local time `at`.
    fn take_samples(&mut self, at: SimTime) {
        let Some(trace) = self.trace.as_deref_mut() else {
            return;
        };
        for (g, path) in self.paths.iter().enumerate() {
            let Some(path) = path else { continue };
            let gid = GpuId::new(g as u8);
            let (hdrs, data) = self.fabric.egress_fc_in_flight(gid);
            let sample = Sample {
                time: at,
                gpu: g as u8,
                rwq_entries: path.queue_depth() as u64,
                egress_queue: self.ports[g].len() as u64,
                egress_wire_bytes: self.fabric.egress_bytes(gid),
                credit_hdrs_in_flight: hdrs,
                credit_data_in_flight: data,
                stall_ps: self.stall_time[g].as_ps(),
            };
            trace.sample(sample.shifted(self.total_time));
        }
    }

    /// Emits one `Flush` event per flush the just-run path operation
    /// added, by diffing the per-reason counters around it. Counting
    /// from the aggregates keeps trace flush counts equal to
    /// `flushes_by_reason` by construction.
    fn record_flush_delta(
        &mut self,
        gpu: usize,
        at: SimTime,
        before: [u64; FlushReason::ALL.len()],
    ) {
        let after = self.paths[gpu]
            .as_ref()
            .expect("store paradigm")
            .metrics()
            .flushes_by_reason;
        for (i, reason) in FlushReason::ALL.iter().enumerate() {
            for _ in before[i]..after[i] {
                self.record(TraceEvent {
                    time: at,
                    gpu: gpu as u8,
                    kind: EventKind::Flush {
                        reason: reason.label(),
                    },
                });
            }
        }
    }

    /// Moves the destination memory images out, when `track_memory` was
    /// requested. The runner keeps no copy: later iterations write no
    /// images, and a second call returns `None`.
    pub fn take_images(&mut self) -> Option<Vec<MemoryImage>> {
        self.images.take()
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

    /// Accounts one packet sent at `at` and delivered as `sent`: replay
    /// attribution, the stall bound, the destination's local-memory
    /// drain, the trace, and the memory image. Returns the time the
    /// packet's stores drained.
    fn land(
        &mut self,
        at: SimTime,
        src: GpuId,
        p: &WirePacket,
        sent: Delivery,
    ) -> Result<SimTime, RunError> {
        // A replayed aggregated TLP retransmits whole: attribute the
        // amplification to the flush that produced the packet.
        self.replay_amp.record(p.reason, sent.replayed_bytes);
        let landed = sent.landed;
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
        if self.trace.is_some() {
            let transmit = EventKind::WireTransmit {
                dst: p.dst.index() as u8,
                wire_bytes: p.wire_bytes,
                payload_bytes: u64::from(p.payload_bytes),
                stores: p.store_count,
                reason: p.reason.map(|r| r.label()),
                done: landed,
            };
            self.record_send(at, src, transmit, sent.replayed_bytes);
            self.record(TraceEvent {
                time: landed,
                gpu: p.dst.index() as u8,
                kind: EventKind::Commit {
                    data_bytes: p.data_bytes,
                    done: drained,
                },
            });
        }
        if let Some(images) = &mut self.images {
            assert_eq!(
                p.stores.len(),
                p.store_count as usize,
                "track_memory runs carry payloads"
            );
            for (addr, data) in &p.stores {
                images[p.dst.index()].write(addr, data);
            }
        }
        Ok(drained)
    }

    /// Records one send from `src` at `at`, a store packet or a DMA leg:
    /// its `transmit` event and, when its route replayed bytes, the data
    /// link layer's replay.
    fn record_send(&mut self, at: SimTime, src: GpuId, transmit: EventKind, replayed_bytes: u64) {
        let gpu = src.index() as u8;
        self.record(TraceEvent {
            time: at,
            gpu,
            kind: transmit,
        });
        if replayed_bytes > 0 {
            self.record(TraceEvent {
                time: at,
                gpu,
                kind: EventKind::DllReplay {
                    bytes: replayed_bytes,
                },
            });
        }
    }

    /// Drains `gpu`'s port head-first through the fabric: the head
    /// packet is admitted against link credits, popped on delivery, and
    /// left in place when blocked. With no credits attached nothing
    /// blocks, so the port empties. Each delivery is progress for the
    /// watchdog and raises `last_delivery` to its drain time. Returns
    /// the earliest time a blocked head can be admitted.
    fn pump(
        &mut self,
        gpu: usize,
        at: SimTime,
        last_delivery: &mut SimTime,
    ) -> Result<Option<SimTime>, RunError> {
        let src = GpuId::new(gpu as u8);
        while let Some(head) = self.ports[gpu].front() {
            let (dst, wire_bytes, payload_bytes) = (head.dst, head.wire_bytes, head.payload_bytes);
            let outcome = self
                .fabric
                .try_send_credited(at, src, dst, wire_bytes, payload_bytes)
                .map_err(RunError::LinkDown)?;
            let sent = match outcome {
                SendOutcome::Delivered(sent) => sent,
                SendOutcome::Blocked { until } => {
                    debug_assert!(until > at, "blocked admission must make progress");
                    self.record(TraceEvent {
                        time: at,
                        gpu: gpu as u8,
                        kind: EventKind::CreditBlocked { until },
                    });
                    return Ok(Some(until));
                }
            };
            let p = self.ports[gpu].pop_front().expect("head just observed");
            let drained = self.land(at, src, &p, sent)?;
            *last_delivery = (*last_delivery).max(drained);
            self.events_since_progress = 0;
        }
        Ok(None)
    }

    /// Holds a memory operation of `gpu` issuing at `at` until its port
    /// is below the admission threshold: the port drains, and while its
    /// head is blocked on credits the GPU stalls until they return.
    /// Returns the time the operation issues.
    fn admit(
        &mut self,
        gpu: usize,
        mut at: SimTime,
        stall: &mut [SimTime],
        pending: usize,
        last_delivery: &mut SimTime,
    ) -> Result<SimTime, RunError> {
        while self.ports[gpu].len() >= self.port_capacity {
            let blocked = self.pump(gpu, at, last_delivery)?;
            if self.ports[gpu].len() < self.port_capacity {
                break;
            }
            let until = blocked.expect("a still-full port implies a blocked head");
            // Each blocked wait advances simulated time without popping
            // an event, so a stalled stream (e.g. credits that
            // effectively never return) could spin here past every
            // pop-time check: budget the wait itself.
            self.events_since_progress += 1;
            self.check_budget(until, pending, stall)?;
            let waited = until.saturating_sub(at);
            self.record(TraceEvent {
                time: at,
                gpu: gpu as u8,
                kind: EventKind::Stall { duration: waited },
            });
            self.stall_time[gpu] += waited;
            stall[gpu] += waited;
            at = until;
        }
        Ok(at)
    }

    /// Issues `op` from `gpu`'s stream at `at` to its egress path, plus
    /// any inactivity-timeout flush, and queues the packets this forced
    /// out at the port.
    fn issue(&mut self, op: Ev, runs: &[KernelRun], gpu: usize, at: SimTime) {
        // Snapshot the counters the trace is read from: any flush this
        // operation triggers (in push, probe, release, or the timeout
        // advance below) becomes exactly one Flush trace event, and a
        // FinePack store that merged into a buffered entry records
        // `RwqInsert { merged: true }`.
        let before = self.trace.is_some().then(|| {
            let m = self.paths[gpu].as_ref().expect("store paradigm").metrics();
            (m.flushes_by_reason, m.rwq_merges)
        });
        if before.is_some() {
            self.record(TraceEvent {
                time: at,
                gpu: gpu as u8,
                kind: issue_kind(op, runs),
            });
        }
        let path = self.paths[gpu].as_mut().expect("store paradigm");
        let run = &runs[gpu];
        let mut packets = match op {
            // Borrow straight from the run's egress stream: zero
            // payload allocation per event.
            Ev::Store { idx, .. } => path
                .push(&run.egress[idx].store, at)
                .expect("valid L1-coalesced store"),
            Ev::Atomic { idx, .. } => path
                .push_atomic(&run.atomics[idx].store, at)
                .expect("valid atomic"),
            Ev::Probe { idx, .. } => {
                let p = run.probes[idx];
                path.load_probe(p.dst, p.addr, p.len, at)
            }
            Ev::Fence { .. } | Ev::KernelEnd { .. } => path.release(),
            Ev::Retry { .. } => unreachable!("retries issue nothing"),
        };
        // Read right after the push: did the store merge into an entry?
        let merged = before.is_some_and(|(_, merges)| path.metrics().rwq_merges > merges);
        // Inactivity-timeout flushes piggyback on event processing for
        // the same GPU.
        packets.extend(path.advance(at));
        if !packets.is_empty() {
            // A flush advanced: the path packetized buffered stores.
            // Progress for the watchdog even if the packets then wait on
            // credits.
            self.events_since_progress = 0;
        }
        if let Some((flushes, _)) = before {
            if let (Ev::Store { idx, .. }, Paradigm::FinePack) = (op, self.paradigm) {
                self.record(TraceEvent {
                    time: at,
                    gpu: gpu as u8,
                    kind: EventKind::RwqInsert {
                        dst: run.egress[idx].store.dst.index() as u8,
                        merged,
                    },
                });
            }
            self.record_flush_delta(gpu, at, flushes);
        }
        self.ports[gpu].extend(packets);
    }

    /// Simulates one bulk-synchronous iteration. `runs` holds each GPU's
    /// kernel replay; `dma_plan` the DMA legs (used only by
    /// [`Paradigm::BulkDma`]).
    ///
    /// # Panics
    ///
    /// Panics if `runs.len()` differs from the configured GPU count, if
    /// a run's `egress`, `atomics`, `probes` or `fences` are not in
    /// non-decreasing time order, or if injected faults kill the run —
    /// fault experiments should use [`Runner::try_run_iteration`] and
    /// inspect the diagnostic.
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
    /// Panics if `runs.len()` differs from the configured GPU count, or
    /// if a run's `egress`, `atomics`, `probes` or `fences` are not in
    /// non-decreasing time order.
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
    /// Panics if `runs.len()` differs from the configured GPU count, or
    /// if a run's `egress`, `atomics`, `probes` or `fences` are not in
    /// non-decreasing time order.
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
        for (g, run) in runs.iter().enumerate() {
            assert!(
                streams_sorted(run),
                "GPU {g}'s kernel run has an operation stream out of time order"
            );
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
                    let sent = self
                        .fabric
                        .try_send(start, *src, *dst, wire)
                        .map_err(RunError::LinkDown)?;
                    let transmit = EventKind::WireTransmit {
                        dst: dst.index() as u8,
                        wire_bytes: wire,
                        payload_bytes: *bytes,
                        stores: 0,
                        reason: None,
                        done: sent.landed,
                    };
                    self.record_send(start, *src, transmit, sent.replayed_bytes);
                    last_delivery = last_delivery.max(sent.landed);
                    self.dma_wire_bytes += wire;
                    self.dma_data_bytes += bytes;
                }
                if let Some(images) = &mut self.images {
                    // A DMA of the replica region delivers every written
                    // byte's final value.
                    for run in runs {
                        for t in run.egress.iter().chain(run.atomics.iter()) {
                            images[t.store.dst.index()].write_store(&t.store);
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

    /// The store-paradigm event loop: every GPU's operations and the
    /// credit retries in one time order (see [`Schedule`]), every path
    /// operation and fabric interaction inline.
    fn run_stores(
        &mut self,
        runs: &[KernelRun],
        kernel_end: &mut SimTime,
        last_delivery: &mut SimTime,
    ) -> Result<(), RunError> {
        // This iteration's SM stall per GPU. Every operation of a GPU
        // shifts right by its accumulated stall, preserving program
        // order; with zero stalls (always, under open loop) the replay —
        // event order, timestamps, fabric call sequence — is identical
        // to open loop.
        let mut stall = vec![SimTime::ZERO; runs.len()];
        let mut retry_at: Vec<Option<SimTime>> = vec![None; runs.len()];
        // The retry queue is recycled run to run; an errored iteration
        // leaves an empty one behind (errored runs are abandoned anyway).
        let mut schedule = Schedule::new(runs, std::mem::take(&mut self.queue_scratch));
        let sample_step = self.sample_every.filter(|_| self.trace.is_some());
        let mut next_sample = sample_step.unwrap_or(SimTime::ZERO);
        while let Some((now, ev)) = schedule.pop() {
            self.sim_events += 1;
            self.events_since_progress += 1;
            self.check_budget(now, schedule.len(), &stall)?;
            if let Some(step) = sample_step {
                while next_sample <= now {
                    self.take_samples(next_sample);
                    next_sample += step;
                }
            }
            let (gpu, at) = match ev {
                Ev::Retry { gpu } => {
                    retry_at[gpu] = None;
                    (gpu, now)
                }
                // An operation issues at its nominal time shifted by
                // everything its GPU has already stalled; a memory
                // operation also waits for room at the port.
                Ev::Store { gpu, .. } | Ev::Atomic { gpu, .. } | Ev::Probe { gpu, .. } => {
                    let at = now + stall[gpu];
                    let at = self.admit(gpu, at, &mut stall, schedule.len(), last_delivery)?;
                    self.issue(ev, runs, gpu, at);
                    (gpu, at)
                }
                Ev::Fence { gpu } | Ev::KernelEnd { gpu } => {
                    let at = now + stall[gpu];
                    if matches!(ev, Ev::KernelEnd { .. }) {
                        // The kernel is not done until its last operation
                        // has issued: stalls push it out.
                        *kernel_end = (*kernel_end).max(at);
                    }
                    self.issue(ev, runs, gpu, at);
                    (gpu, at)
                }
            };
            if let Some(until) = self.pump(gpu, at, last_delivery)? {
                if retry_at[gpu].is_none_or(|r| until < r) {
                    retry_at[gpu] = Some(until);
                    schedule.retry(until, gpu);
                }
            }
        }
        debug_assert!(
            self.ports.iter().all(VecDeque::is_empty),
            "every event popped with packets stranded in a port"
        );
        self.queue_scratch = schedule.into_retries();
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
            stall_time: self.stall_time.iter().copied().sum(),
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
    use gpu_model::{AddressMap, Gpu, GpuConfig, KernelTrace, RemoteStore, TimedProbe, TimedStore};
    use sim_engine::DetRng;
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
            r.take_images().unwrap()
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

    /// A kernel run of random, time-sorted streams: times fall in a
    /// span of a few picoseconds, so they tie within a stream, across
    /// one GPU's streams and across GPUs. Stores are empty: only times
    /// matter to the merge.
    fn random_run(rng: &mut DetRng, template: &KernelRun, span: u64) -> KernelRun {
        let times = |rng: &mut DetRng, max: u64| {
            let n = if rng.next_u64_below(3) == 0 {
                0
            } else {
                rng.next_in_range(1, max)
            };
            let mut t: Vec<SimTime> = (0..n)
                .map(|_| SimTime::from_ps(rng.next_u64_below(span)))
                .collect();
            t.sort();
            t
        };
        let store = |time| TimedStore {
            time,
            store: RemoteStore {
                src: GpuId::new(0),
                dst: GpuId::new(1),
                addr: 0,
                len: 0,
                value_seed: 0,
            },
        };
        let probe = |time| TimedProbe {
            time,
            dst: GpuId::new(1),
            addr: 0,
            len: 4,
        };
        let egress: Vec<_> = times(rng, 40).into_iter().map(store).collect();
        let atomics: Vec<_> = times(rng, 8).into_iter().map(store).collect();
        let probes: Vec<_> = times(rng, 8).into_iter().map(probe).collect();
        let fences = times(rng, 4);
        // The kernel ends with its last operation.
        let kernel_time = [
            egress.last().map(|t| t.time),
            atomics.last().map(|t| t.time),
            probes.last().map(|p| p.time),
            fences.last().copied(),
        ]
        .into_iter()
        .flatten()
        .max()
        .unwrap_or(SimTime::ZERO);
        KernelRun {
            kernel_time,
            egress,
            atomics,
            probes,
            fences,
            ..template.clone()
        }
    }

    /// The reference order: one queue filled GPU by GPU, stream by
    /// stream, index by index before the drain.
    fn filled_queue(runs: &[KernelRun]) -> EventQueue<Ev> {
        let mut queue = EventQueue::new();
        for (gpu, run) in runs.iter().enumerate() {
            for (idx, t) in run.egress.iter().enumerate() {
                queue.schedule(t.time, Ev::Store { gpu, idx });
            }
            for (idx, t) in run.atomics.iter().enumerate() {
                queue.schedule(t.time, Ev::Atomic { gpu, idx });
            }
            for (idx, p) in run.probes.iter().enumerate() {
                queue.schedule(p.time, Ev::Probe { gpu, idx });
            }
            for f in &run.fences {
                queue.schedule(*f, Ev::Fence { gpu });
            }
            queue.schedule(run.kernel_time, Ev::KernelEnd { gpu });
        }
        queue
    }

    #[test]
    fn schedule_pops_the_filled_queue_order() {
        let mut rng = DetRng::new(0x5c4e_d01e, "schedule-merge");
        let gpu = Gpu::new(
            GpuConfig::tiny(),
            GpuId::new(0),
            AddressMap::new(2, 1 << 30),
        );
        let template = gpu.execute_kernel(&KernelTrace::new("merge"));
        let mut retries = EventQueue::new();
        for round in 0..300 {
            let gpus = rng.next_in_range(2, 17) as usize;
            let span = rng.next_in_range(1, 64);
            let runs: Vec<KernelRun> = (0..gpus)
                .map(|_| random_run(&mut rng, &template, span))
                .collect();
            let mut oracle = filled_queue(&runs);
            // Recycled like the runner's, so `reset` is exercised too.
            let mut merged = Schedule::new(&runs, retries);
            assert_eq!(merged.len(), oracle.len(), "round {round}");
            // Retries not yet popped: (time, gpu).
            let mut pending: Vec<(SimTime, usize)> = Vec::new();
            loop {
                let want = oracle.pop().map(|e| (e.time, e.payload));
                assert_eq!(merged.pop(), want, "round {round}");
                assert_eq!(merged.len(), oracle.len(), "round {round}");
                let Some((now, ev)) = want else { break };
                if let Ev::Retry { gpu } = ev {
                    let i = pending.iter().position(|&p| p == (now, gpu));
                    pending.swap_remove(i.expect("a scheduled retry"));
                }
                let mut gpu = rng.next_u64_below(gpus as u64) as usize;
                let pick = |rng: &mut DetRng, n: usize| rng.next_u64_below(n as u64) as usize;
                let at = match rng.next_u64_below(6) {
                    // At a pending operation's time.
                    0 if !merged.heads.is_empty() => {
                        let k = pick(&mut rng, merged.heads.len());
                        merged.heads.iter().nth(k).map(|Reverse((t, ..))| *t)
                    }
                    // At another retry's time.
                    1 if !pending.is_empty() => Some(pending[pick(&mut rng, pending.len())].0),
                    // Earlier than a pending retry of the same GPU, which
                    // stays queued, stale.
                    2 if pending.iter().any(|&(t, _)| t > now) => {
                        let later: Vec<_> = pending.iter().filter(|&&(t, _)| t > now).collect();
                        let &(t, g) = later[pick(&mut rng, later.len())];
                        gpu = g;
                        Some(now + SimTime::from_ps(rng.next_u64_below((t - now).as_ps())))
                    }
                    3 => Some(now + SimTime::from_ps(rng.next_u64_below(span))),
                    _ => None,
                };
                if let Some(at) = at {
                    oracle.schedule(at, Ev::Retry { gpu });
                    merged.retry(at, gpu);
                    pending.push((at, gpu));
                }
            }
            assert!(pending.is_empty(), "round {round}");
            retries = merged.into_retries();
        }
    }

    #[test]
    #[should_panic(expected = "out of time order")]
    fn unsorted_stream_panics() {
        let cfg = SystemConfig::paper(2);
        let mut runs = runs_for(&Pagerank::default(), &cfg, &RunSpec::tiny());
        let last = runs[1].egress.last().expect("GPU 1 sends stores").time;
        runs[1].egress[0].time = last + SimTime::from_ps(1);
        let mut r = Runner::new(cfg, Paradigm::FinePack, 0.0, false);
        r.run_iteration(&runs, &[]);
    }

    #[test]
    #[should_panic(expected = "assertion")]
    fn wrong_run_count_panics() {
        let cfg = SystemConfig::paper(4);
        let mut r = Runner::new(cfg, Paradigm::InfiniteBw, 0.0, false);
        r.run_iteration(&[], &[]);
    }
}
