//! Sweep the FinePack sub-transaction header size (Table II) for one
//! application and watch the Figure 12 trade-off emerge: tiny windows
//! thrash the remote write queue, oversized sub-headers pay overhead for
//! range the maximum payload can't use.
//!
//! Run with: `cargo run --release --example subheader_sweep [app]`

use finepack::{FinePackConfig, SubheaderFormat};
use system::{single_gpu_time, Paradigm, PreparedWorkload, SystemConfig};
use workloads::{suite, RunSpec};

fn main() {
    let wanted = std::env::args().nth(1).unwrap_or_else(|| "sssp".into());
    let app = suite()
        .into_iter()
        .find(|a| a.name() == wanted)
        .unwrap_or_else(|| {
            eprintln!("unknown app '{wanted}'");
            std::process::exit(2);
        });

    let spec = RunSpec::paper(4);
    let base = SystemConfig::paper(4);
    // The sub-header shapes only the egress path: the traces replay once.
    let t1 = single_gpu_time(app.as_ref(), &base, &spec);
    let prep = PreparedWorkload::new(app.as_ref(), &base, &spec);
    println!("{}: FinePack sensitivity to sub-header size\n", app.name());
    println!("subheader  window   speedup  stores/packet  wire bytes");
    for bytes in 2..=6u32 {
        let sub = SubheaderFormat::new(bytes).expect("2..=6 valid");
        let cfg = base.with_finepack(FinePackConfig::paper(4).with_subheader(sub));
        let report = prep.run(&cfg, Paradigm::FinePack);
        let speedup = t1.as_secs_f64() / report.total_time.as_secs_f64();
        let range = sub.addressable_range();
        let window = if range >= 1 << 30 {
            format!("{}GB", range >> 30)
        } else if range >= 1 << 20 {
            format!("{}MB", range >> 20)
        } else if range >= 1 << 10 {
            format!("{}KB", range >> 10)
        } else {
            format!("{range}B")
        };
        println!(
            "{:>8}B  {:>6}  {:>6.2}x  {:>13.1}  {:>10}",
            bytes,
            window,
            speedup,
            report.mean_stores_per_packet().unwrap_or(0.0),
            report.traffic.total()
        );
    }
    println!("\npaper: performance peaks at 4 sub-header bytes and is virtually unchanged at 5.");
}
