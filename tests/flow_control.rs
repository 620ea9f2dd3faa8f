//! Closed-loop flow control, end to end.
//!
//! The credited model's contract has three legs:
//!
//! 1. **Transparent when provisioned**: with a generous credit pool the
//!    closed loop must reproduce the open-loop analytic timing
//!    *bit-for-bit* — same total time, same wire accounting, same
//!    packet counts — for every paradigm. Credits may only change the
//!    numbers when they actually run out.
//! 2. **Backpressure when starved**: a tiny pool must produce real
//!    stalls (`stall_time > 0`), strictly longer execution, and still
//!    deliver byte-identical destination memory images — backpressure
//!    reshapes timing, never data.
//! 3. **Deterministic always**: retry events ride their own queue,
//!    merged in a fixed order with every GPU's time-sorted operation
//!    streams, so identical seeds reproduce identical stalls.

use gpu_model::{AddressMap, Gpu, GpuId, KernelRun, MemoryImage};
use sim_engine::SimTime;
use system::{
    CreditConfig, FaultProfile, FlowControlMode, Paradigm, PreparedWorkload, Runner, SystemConfig,
};
use workloads::{Pagerank, RunSpec, Sssp, Workload};

/// A pool that can hold one maximum-size FinePack TLP (4KB = 256 PD
/// units) and almost nothing else: every stream starves on it.
fn starved() -> CreditConfig {
    CreditConfig {
        ph: 2,
        pd: 260,
        return_latency: SimTime::from_ns(500),
        buffer_packets: 2,
    }
}

fn runs_for(app: &dyn Workload, cfg: &SystemConfig, spec: &RunSpec) -> Vec<KernelRun> {
    let map = AddressMap::new(cfg.num_gpus, 16 << 30);
    (0..cfg.num_gpus)
        .map(|g| {
            let gpu = Gpu::new(cfg.gpu, GpuId::new(g), map);
            gpu.execute_kernel(&app.trace(spec, 0, GpuId::new(g)))
        })
        .collect()
}

/// Leg 1: generous credits reproduce open-loop timing exactly, for
/// every paradigm that touches the fabric.
#[test]
fn generous_credits_reproduce_open_loop_exactly() {
    let spec = RunSpec::tiny();
    let base = SystemConfig::paper(2);
    let open = base.open_loop();
    let credited = base.with_flow_control(FlowControlMode::Credited(CreditConfig::generous()));
    let app = Pagerank::default();
    let prep = PreparedWorkload::new(&app, &base, &spec);
    for p in [
        Paradigm::P2pStores,
        Paradigm::FinePack,
        Paradigm::WriteCombining,
        Paradigm::Gps,
        Paradigm::BulkDma,
    ] {
        let a = prep.run(&open, p);
        let b = prep.run(&credited, p);
        assert_eq!(a.total_time, b.total_time, "{p}: total_time");
        assert_eq!(a.drain_tail, b.drain_tail, "{p}: drain_tail");
        assert_eq!(a.traffic, b.traffic, "{p}: wire accounting");
        assert_eq!(a.egress.packets, b.egress.packets, "{p}: packets");
        assert_eq!(a.egress.wire_bytes, b.egress.wire_bytes, "{p}: wire bytes");
        assert_eq!(b.stall_time, SimTime::ZERO, "{p}: generous pool stalled");
        assert_eq!(b.fc_blocked_attempts, 0, "{p}: generous pool blocked");
    }
}

/// Leg 2a: a starved pool produces real stalls and strictly longer
/// runs — backpressure reaches the SM store stream.
#[test]
fn starved_pool_stalls_and_strictly_slows() {
    let spec = RunSpec::tiny();
    let base = SystemConfig::paper(2);
    let open = base.open_loop();
    let credited = base.with_flow_control(FlowControlMode::Credited(starved()));
    let app = Pagerank::default();
    let prep = PreparedWorkload::new(&app, &base, &spec);
    for p in [Paradigm::P2pStores, Paradigm::FinePack] {
        let a = prep.run(&open, p);
        let b = prep.run(&credited, p);
        assert!(
            b.stall_time > SimTime::ZERO,
            "{p}: starved pool produced no stalls"
        );
        assert!(b.fc_blocked_attempts > 0, "{p}: nothing ever blocked");
        assert!(
            b.total_time > a.total_time,
            "{p}: credited {} not slower than open {}",
            b.total_time,
            a.total_time
        );
        // Flow control shapes timing, not traffic: the same bytes
        // eventually cross the wire.
        assert_eq!(a.traffic, b.traffic, "{p}: wire accounting changed");
    }
}

/// Leg 2b: destination memory images are byte-identical across
/// paradigms even while every stream is starved for credits.
#[test]
fn transparency_survives_backpressure() {
    let spec = RunSpec::tiny();
    let cfg = SystemConfig::paper(2).with_flow_control(FlowControlMode::Credited(starved()));
    let app = Pagerank::default();
    let runs = runs_for(&app, &cfg, &spec);
    let image_for = |p: Paradigm| -> Vec<MemoryImage> {
        let mut r = Runner::new(cfg, p, 0.0, true);
        r.try_run_iteration(&runs, &[])
            .expect("starved run survives");
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

/// Leg 3: retry events are deterministic — identical seeds reproduce
/// identical stalls and times; different seeds stay in regime.
#[test]
fn credited_retries_are_deterministic_across_seeds() {
    let base = SystemConfig::paper(2);
    let credited = base.with_flow_control(FlowControlMode::Credited(starved()));
    let app = Sssp::default();
    for seed in [7u64, 1312] {
        let mut spec = RunSpec::tiny();
        spec.seed = seed;
        let a = PreparedWorkload::new(&app, &base, &spec).run(&credited, Paradigm::FinePack);
        let b = PreparedWorkload::new(&app, &base, &spec).run(&credited, Paradigm::FinePack);
        assert_eq!(a.total_time, b.total_time, "seed {seed}: time");
        assert_eq!(a.stall_time, b.stall_time, "seed {seed}: stall");
        assert_eq!(
            a.fc_blocked_attempts, b.fc_blocked_attempts,
            "seed {seed}: blocked attempts"
        );
        assert!(a.stall_time > SimTime::ZERO, "seed {seed}: no stalls");
    }
}

/// Fault injection composes with flow control: replayed TLPs hold
/// their credits until acked, runs stay deterministic, and images stay
/// transparent.
#[test]
fn faults_compose_with_credits() {
    let spec = RunSpec::tiny();
    let cfg = SystemConfig::paper(2)
        .with_flow_control(FlowControlMode::Credited(starved()))
        .with_faults(FaultProfile::new(1e-6));
    let app = Pagerank::default();
    let runs = runs_for(&app, &cfg, &spec);
    let run_once = || {
        let mut r = Runner::new(cfg, Paradigm::FinePack, 0.0, true);
        r.try_run_iteration(&runs, &[])
            .expect("faulty starved run survives");
        let images = r.take_images().unwrap();
        (r.finish("pagerank", 0.8), images)
    };
    let (ra, ia) = run_once();
    let (rb, ib) = run_once();
    assert_eq!(ra.total_time, rb.total_time);
    assert_eq!(ra.stall_time, rb.stall_time);
    assert_eq!(ra.replayed_bytes, rb.replayed_bytes);
    assert!(ra.stall_time > SimTime::ZERO);
    for g in 0..2 {
        assert!(
            ia[g].same_contents(&ib[g]),
            "faulty runs diverged on GPU{g}"
        );
    }
    // And against the clean open-loop image: still transparent.
    let mut clean = Runner::new(
        SystemConfig::paper(2).open_loop(),
        Paradigm::FinePack,
        0.0,
        true,
    );
    clean.try_run_iteration(&runs, &[]).unwrap();
    let ic = clean.take_images().unwrap();
    for g in 0..2 {
        assert!(
            ia[g].same_contents(&ic[g]),
            "backpressure+faults changed GPU{g}'s image"
        );
    }
}
