//! End-to-end fault injection: FinePack's transparency must survive a
//! faulty data link layer. Bit errors force whole aggregated TLPs to
//! replay — costing wire bytes and time, never correctness — and a
//! permanently stuck link terminates with a diagnostic instead of
//! hanging the simulation.

use gpu_model::{AddressMap, Gpu, GpuId, KernelRun, MemoryImage};
use sim_engine::SimTime;
use system::{FaultProfile, Paradigm, RunError, Runner, SystemConfig};
use workloads::{Pagerank, RunSpec, Workload};

fn runs_for(app: &dyn Workload, cfg: &SystemConfig, spec: &RunSpec) -> Vec<KernelRun> {
    let map = AddressMap::new(cfg.num_gpus, 16 << 30);
    (0..cfg.num_gpus)
        .map(|g| {
            let gpu = Gpu::new(cfg.gpu, GpuId::new(g), map);
            gpu.execute_kernel(&app.trace(spec, 0, GpuId::new(g)))
        })
        .collect()
}

fn images_under(cfg: SystemConfig, runs: &[KernelRun]) -> Vec<MemoryImage> {
    let mut runner = Runner::new(cfg, Paradigm::FinePack, 0.0, true);
    runner
        .try_run_iteration(runs, &[])
        .expect("run must survive");
    runner.take_images().unwrap()
}

/// A noisy link replays TLPs but the destination memory image is
/// byte-identical to the fault-free run: replays are transparent.
#[test]
fn transparency_survives_bit_errors() {
    let spec = RunSpec::tiny();
    let clean_cfg = SystemConfig::paper(2);
    let noisy_cfg = clean_cfg.with_faults(FaultProfile::new(1e-6));
    let app = Pagerank::default();
    let runs = runs_for(&app, &clean_cfg, &spec);

    let clean = images_under(clean_cfg, &runs);
    let noisy = images_under(noisy_cfg, &runs);
    for g in 0..2 {
        assert!(
            clean[g].same_contents(&noisy[g]),
            "fault injection changed GPU{g}'s memory image"
        );
    }
}

/// Replayed bytes appear as wire traffic (protocol overhead) without
/// inflating goodput, and the run takes longer than fault-free.
#[test]
fn replays_cost_wire_bytes_and_time_but_not_goodput() {
    let spec = RunSpec::tiny();
    let clean_cfg = SystemConfig::paper(2);
    let noisy_cfg = clean_cfg.with_faults(FaultProfile::new(1e-5));
    let app = Pagerank::default();
    let runs = runs_for(&app, &clean_cfg, &spec);

    let report_under = |cfg: SystemConfig| {
        let mut runner = Runner::new(cfg, Paradigm::FinePack, 0.0, false);
        runner.try_run_iteration(&runs, &[]).expect("survives");
        runner.finish("pagerank", 0.8)
    };
    let clean = report_under(clean_cfg);
    let noisy = report_under(noisy_cfg);

    assert_eq!(clean.replayed_bytes, 0);
    assert!(noisy.replayed_bytes > 0, "1e-6 BER produced no replays");
    // Replays are protocol overhead, not goodput.
    assert_eq!(noisy.traffic.useful, clean.traffic.useful);
    assert_eq!(
        noisy.traffic.protocol,
        clean.traffic.protocol + noisy.replayed_bytes
    );
    assert!(noisy.total_time > clean.total_time, "replays added no time");
    // Every replayed byte is attributed to some flush reason.
    assert_eq!(
        noisy.replay_amplification.total_replayed(),
        noisy.replayed_bytes
    );
    assert!(noisy.replay_amplification.packets_replayed() > 0);
}

/// A zero-BER fault profile is the identity: the data link layer runs
/// on every transfer but timing and traffic match the no-profile run.
#[test]
fn zero_ber_profile_changes_nothing() {
    let spec = RunSpec::tiny();
    let clean_cfg = SystemConfig::paper(2);
    let armed_cfg = clean_cfg.with_faults(FaultProfile::new(0.0));
    let app = Pagerank::default();
    let runs = runs_for(&app, &clean_cfg, &spec);

    let report_under = |cfg: SystemConfig| {
        let mut runner = Runner::new(cfg, Paradigm::FinePack, 0.0, false);
        runner.try_run_iteration(&runs, &[]).expect("survives");
        runner.finish("pagerank", 0.8)
    };
    let clean = report_under(clean_cfg);
    let armed = report_under(armed_cfg);
    assert_eq!(clean.total_time, armed.total_time);
    assert_eq!(clean.traffic, armed.traffic);
    assert_eq!(armed.replayed_bytes, 0);
}

/// Identical seeds draw identical faults; a different seed draws a
/// different replay pattern.
#[test]
fn fault_injection_is_deterministic_per_seed() {
    let spec = RunSpec::tiny();
    let base = SystemConfig::paper(2);
    let app = Pagerank::default();
    let runs = runs_for(&app, &base, &spec);

    let report_with_seed = |seed: u64| {
        let mut cfg = base.with_faults(FaultProfile::new(1e-6));
        cfg.seed = seed;
        let mut runner = Runner::new(cfg, Paradigm::FinePack, 0.0, false);
        runner.try_run_iteration(&runs, &[]).expect("survives");
        runner.finish("pagerank", 0.8)
    };
    let a = report_with_seed(1);
    let b = report_with_seed(1);
    assert_eq!(a.total_time, b.total_time);
    assert_eq!(a.replayed_bytes, b.replayed_bytes);
    assert_eq!(a.link_retrains, b.link_retrains);
    let c = report_with_seed(2);
    assert_ne!(
        (a.total_time, a.replayed_bytes),
        (c.total_time, c.replayed_bytes),
        "different seeds drew identical fault patterns"
    );
}

/// A permanently stuck link terminates with a LinkDown diagnostic that
/// names the dead link, instead of hanging or silently completing.
#[test]
fn stuck_link_fails_with_diagnostic() {
    let spec = RunSpec::tiny();
    let cfg =
        SystemConfig::paper(2).with_faults(FaultProfile::new(0.0).stuck_link(0, SimTime::ZERO));
    let app = Pagerank::default();
    let runs = runs_for(&app, &cfg, &spec);

    let mut runner = Runner::new(cfg, Paradigm::FinePack, 0.0, false);
    let err = runner
        .try_run_iteration(&runs, &[])
        .expect_err("stuck link must kill the run");
    match &err {
        RunError::LinkDown(fault) => {
            assert_eq!(fault.link, "egress0");
            assert!(fault.stats.retrains > 0, "link died without retrying");
        }
        other => panic!("expected LinkDown, got {other}"),
    }
    let msg = err.to_string();
    assert!(msg.contains("no forward progress"), "{msg}");
    assert!(msg.contains("egress0"), "{msg}");
}

/// A transient outage inside the run delays delivery (the REPLAY_TIMER
/// recovers the lost TLPs) but the run completes correctly.
#[test]
fn transient_outage_recovers() {
    let spec = RunSpec::tiny();
    let clean_cfg = SystemConfig::paper(2);
    let outage_cfg = clean_cfg.with_faults(FaultProfile::new(0.0).with_outage(
        0,
        SimTime::ZERO,
        SimTime::from_us(30),
    ));
    let app = Pagerank::default();
    let runs = runs_for(&app, &clean_cfg, &spec);

    let clean = images_under(clean_cfg, &runs);
    let outage = images_under(outage_cfg, &runs);
    for g in 0..2 {
        assert!(
            clean[g].same_contents(&outage[g]),
            "outage recovery changed GPU{g}'s memory image"
        );
    }
}
