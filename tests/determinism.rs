//! Full-stack determinism: identical seeds must reproduce identical
//! simulations — times, wire bytes, packet counts — across independent
//! runs. This is what makes every number in EXPERIMENTS.md reproducible
//! with `finepack-sim reproduce`.

use system::{speedup_row, Paradigm, PreparedWorkload, SystemConfig};
use workloads::{suite, RunSpec};

#[test]
fn identical_seeds_reproduce_reports_exactly() {
    let cfg = SystemConfig::paper(2);
    let spec = RunSpec::tiny();
    for app in suite() {
        let a = PreparedWorkload::new(app.as_ref(), &cfg, &spec);
        let b = PreparedWorkload::new(app.as_ref(), &cfg, &spec);
        for p in [Paradigm::BulkDma, Paradigm::P2pStores, Paradigm::FinePack] {
            let ra = a.run(&cfg, p);
            let rb = b.run(&cfg, p);
            assert_eq!(ra.total_time, rb.total_time, "{} {p} time", app.name());
            assert_eq!(
                ra.traffic.total(),
                rb.traffic.total(),
                "{} {p} wire",
                app.name()
            );
            assert_eq!(
                ra.egress.packets,
                rb.egress.packets,
                "{} {p} packets",
                app.name()
            );
            assert_eq!(ra.unique_bytes, rb.unique_bytes, "{} {p}", app.name());
        }
    }
}

#[test]
fn different_seeds_change_irregular_timings() {
    let cfg = SystemConfig::paper(2);
    let mut spec_a = RunSpec::tiny();
    let mut spec_b = RunSpec::tiny();
    spec_a.seed = 101;
    spec_b.seed = 202;
    let app = workloads::Sssp::default();
    let a = PreparedWorkload::new(&app, &cfg, &spec_a).run(&cfg, Paradigm::FinePack);
    let b = PreparedWorkload::new(&app, &cfg, &spec_b).run(&cfg, Paradigm::FinePack);
    // Different random scatters: byte-level results must differ while
    // staying in the same statistical regime.
    assert_ne!(a.traffic.total(), b.traffic.total());
    let ratio = a.total_time.as_secs_f64() / b.total_time.as_secs_f64();
    assert!(
        (0.8..1.25).contains(&ratio),
        "seed changed the regime: {ratio}"
    );
}

#[test]
fn gps_subscription_draws_are_seeded() {
    let cfg = SystemConfig::paper(2);
    let spec = RunSpec::tiny();
    let app = workloads::Pagerank::default();
    let prep = PreparedWorkload::new(&app, &cfg, &spec);
    let a = prep.run(&cfg, Paradigm::Gps);
    let b = prep.run(&cfg, Paradigm::Gps);
    assert_eq!(a.traffic.total(), b.traffic.total());
    assert_eq!(a.total_time, b.total_time);
}

#[test]
fn speedup_rows_are_reproducible() {
    let cfg = SystemConfig::paper(2);
    let spec = RunSpec::tiny();
    let app = workloads::Als::default();
    let a = speedup_row(&app, &cfg, &spec, &Paradigm::FIG9);
    let b = speedup_row(&app, &cfg, &spec, &Paradigm::FIG9);
    for (pa, pb) in a.speedups.iter().zip(b.speedups.iter()) {
        assert_eq!(pa.0, pb.0);
        assert!((pa.1 - pb.1).abs() < 1e-12, "{:?} vs {:?}", pa, pb);
    }
}

/// The determinism contract at the CLI boundary: for any worker count,
/// the rendered output must be byte-identical to `--jobs 1`.
fn assert_jobs_invariant(base: &[&str]) {
    let serial = {
        let mut argv: Vec<&str> = base.to_vec();
        argv.extend(["--jobs", "1"]);
        cli::run(argv).expect("serial run succeeds")
    };
    for jobs in ["2", "4"] {
        let mut argv: Vec<&str> = base.to_vec();
        argv.extend(["--jobs", jobs]);
        let parallel = cli::run(argv).expect("parallel run succeeds");
        assert_eq!(serial, parallel, "--jobs {jobs} diverged on {base:?}");
    }
}

#[test]
fn cli_suite_is_jobs_invariant() {
    for seed in ["7", "999"] {
        assert_jobs_invariant(&[
            "suite",
            "--gpus",
            "2",
            "--scale-down",
            "16",
            "--iterations",
            "1",
            "--seed",
            seed,
        ]);
    }
}

#[test]
fn cli_subheader_sweep_is_jobs_invariant() {
    for seed in ["7", "999"] {
        assert_jobs_invariant(&[
            "sweep-subheader",
            "--gpus",
            "2",
            "--scale-down",
            "16",
            "--iterations",
            "1",
            "--seed",
            seed,
        ]);
    }
}

#[test]
fn cli_fault_sweep_is_jobs_invariant_under_fault_profile() {
    assert_jobs_invariant(&[
        "faults",
        "--app",
        "jacobi",
        "--gpus",
        "2",
        "--scale-down",
        "16",
        "--iterations",
        "1",
        "--fault-profile",
        "degraded",
    ]);
    assert_jobs_invariant(&[
        "faults",
        "--app",
        "pagerank",
        "--gpus",
        "2",
        "--scale-down",
        "16",
        "--iterations",
        "1",
        "--seed",
        "999",
    ]);
}
