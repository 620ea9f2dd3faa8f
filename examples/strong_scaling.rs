//! Strong scaling of one application across communication paradigms —
//! a single-workload slice of the paper's Figure 9.
//!
//! Run with: `cargo run --release --example strong_scaling [app]`
//! where `app` is one of: jacobi, pagerank, sssp, als, ct, eqwp,
//! diffusion, hit (default: pagerank).

use system::{single_gpu_time, Paradigm, PreparedWorkload, SpeedupRow, SystemConfig};
use workloads::{suite, RunSpec};

fn main() {
    let wanted = std::env::args().nth(1).unwrap_or_else(|| "pagerank".into());
    let app = suite()
        .into_iter()
        .find(|a| a.name() == wanted)
        .unwrap_or_else(|| {
            eprintln!("unknown app '{wanted}', expected one of the suite names");
            std::process::exit(2);
        });

    let cfg = SystemConfig::paper(4);
    let spec = RunSpec::paper(4);
    println!(
        "{} — {} communication on a 4x GV100, switched PCIe 4.0 node\n",
        app.name(),
        app.pattern()
    );

    let paradigms = [
        Paradigm::BulkDma,
        Paradigm::P2pStores,
        Paradigm::WriteCombining,
        Paradigm::Gps,
        Paradigm::FinePack,
        Paradigm::InfiniteBw,
    ];
    let t1 = single_gpu_time(app.as_ref(), &cfg, &spec).as_secs_f64();
    let prep = PreparedWorkload::new(app.as_ref(), &cfg, &spec);

    println!("paradigm         speedup   total wire bytes   stores/packet");
    let mut row = SpeedupRow {
        app: app.name().to_string(),
        speedups: Vec::new(),
    };
    for p in paradigms {
        let report = prep.run(&cfg, p);
        let speedup = t1 / report.total_time.as_secs_f64();
        row.speedups.push((p, speedup));
        let spp = report
            .mean_stores_per_packet()
            .map(|v| format!("{v:.1}"))
            .unwrap_or_else(|| "-".into());
        println!(
            "{:<15}  {:>6.2}x   {:>16}   {:>13}",
            p.to_string(),
            speedup,
            report.traffic.total(),
            spp
        );
    }

    let fp = row.speedup(Paradigm::FinePack).expect("fp");
    let inf = row.speedup(Paradigm::InfiniteBw).expect("inf");
    println!(
        "\nFinePack recovers {:.0}% of the infinite-bandwidth opportunity for {}",
        100.0 * fp / inf,
        app.name()
    );
}
