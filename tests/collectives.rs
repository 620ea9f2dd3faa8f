//! The collectives workload family end-to-end: sweep determinism across
//! `--jobs`, conservation-audit
//! cleanliness (including degenerate bulk-dominated points), and the
//! fine-vs-bulk message-size crossover the family exists to show.

use system::{audit_run, Paradigm, PreparedWorkload, SystemConfig};
use workloads::{collective, collectives_suite, CollectiveTuning, MsgDist, RunSpec};

/// Small spec the audits and determinism runs share: real traffic, tiny
/// wall-clock.
fn small_spec(num_gpus: u8) -> RunSpec {
    let mut spec = RunSpec::paper(num_gpus);
    spec.iterations = 1;
    spec.scale_down = 256;
    spec
}

/// The full `collectives` sweep must be byte-identical across `--jobs`
/// (its report text carries no wall-clock numbers by design, so identity
/// is exact).
#[test]
fn collectives_sweep_is_byte_identical_across_pool_shapes() {
    let argv = |jobs: &str| -> Vec<String> {
        vec![
            "collectives",
            "--gpus",
            "4",
            "--max-gpus",
            "4",
            "--scale-down",
            "256",
            "--iterations",
            "1",
            "--jobs",
            jobs,
        ]
        .into_iter()
        .map(String::from)
        .collect()
    };
    let base = cli::run(argv("1")).expect("serial sweep");
    assert!(base.contains("message-size crossover"), "{base}");
    assert!(base.contains("weak scaling"), "{base}");
    for jobs in ["2", "4"] {
        let other = cli::run(argv(jobs)).expect("pooled sweep");
        assert_eq!(base, other, "sweep diverges at jobs={jobs}");
    }
}

/// The weak-scaling section reaches 16 GPUs and reports every collective
/// at every point.
#[test]
fn collectives_sweep_scales_to_sixteen_gpus() {
    let out = cli::run([
        "collectives",
        "--collective",
        "ring-allreduce",
        "--gpus",
        "2",
        "--max-gpus",
        "16",
        "--scale-down",
        "256",
        "--iterations",
        "1",
    ])
    .expect("16-GPU sweep");
    for gpus in ["2", "4", "8", "16"] {
        assert!(
            out.contains(&format!("ring-allreduce  {gpus}")),
            "missing {gpus}-GPU weak-scaling row in:\n{out}"
        );
    }
}

/// Every collective must replay audit-clean under the conservation
/// auditor for every transport paradigm, in both the fine-dominated
/// default tuning and a bulk-dominated degenerate one (single huge
/// aligned messages, where packing has nothing to do).
#[test]
fn every_collective_audits_clean_in_both_regimes() {
    let spec = small_spec(2);
    let cfg = SystemConfig::paper(2);
    let tunings = [
        CollectiveTuning::default(),
        CollectiveTuning {
            msg: MsgDist::Fixed(65536),
            ..CollectiveTuning::default()
        },
    ];
    for tuning in &tunings {
        for app in collectives_suite(tuning) {
            let prep = PreparedWorkload::new(app.as_ref(), &cfg, &spec);
            for p in [Paradigm::FinePack, Paradigm::P2pStores, Paradigm::BulkDma] {
                let outcome = audit_run(&prep, &cfg, p).expect("audit completes");
                assert!(
                    outcome.is_clean(),
                    "{} {p} dirty under {}: {outcome:?}",
                    app.name(),
                    tuning.msg
                );
            }
        }
    }
}

/// The family's reason to exist: FinePack wins decisively when messages
/// are fine (DMA pays per-message descriptor padding), and bulk DMA
/// edges ahead once messages are large and granule-aligned (FinePack
/// pays per-packet headers with nothing left to pack). Simulation is
/// deterministic, so even a slim bulk-side margin is a stable gate.
#[test]
fn message_size_crossover_holds() {
    let mut spec = RunSpec::paper(8);
    spec.iterations = 1;
    spec.scale_down = 4;
    let cfg = SystemConfig::paper(8);
    let mk = |msg| {
        collective(
            "ring-allreduce",
            &CollectiveTuning {
                msg,
                ..CollectiveTuning::default()
            },
        )
        .expect("registered")
    };

    let fine = PreparedWorkload::new(mk(MsgDist::Fixed(32)).as_ref(), &cfg, &spec);
    let fine_fp = fine.run(&cfg, Paradigm::FinePack).total_time;
    let fine_dma = fine.run(&cfg, Paradigm::BulkDma).total_time;
    assert!(
        fine_fp.as_secs_f64() * 5.0 < fine_dma.as_secs_f64(),
        "finepack must win >5x at 32B messages: fp {fine_fp} dma {fine_dma}"
    );

    let bulk = PreparedWorkload::new(mk(MsgDist::Fixed(65536)).as_ref(), &cfg, &spec);
    let bulk_fp = bulk.run(&cfg, Paradigm::FinePack).total_time;
    let bulk_dma = bulk.run(&cfg, Paradigm::BulkDma).total_time;
    assert!(
        bulk_dma < bulk_fp,
        "bulk DMA must win at 64KB messages: dma {bulk_dma} fp {bulk_fp}"
    );
}
