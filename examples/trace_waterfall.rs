//! Per-TLP lifecycle waterfall: trace a Jacobi exchange under FinePack
//! and print, for each wire transaction, the time it spent on the link
//! and the time its payload took to drain into the destination GPU —
//! the textual cousin of the Chrome-trace view `finepack-sim trace`
//! exports.
//!
//! Run with: `cargo run --release --example trace_waterfall`

use sim_engine::SimTime;
use system::{Paradigm, PreparedWorkload, SystemConfig};
use telemetry::{EventKind, RingCollector};
use workloads::{Jacobi, RunSpec};

/// One packet's life on the wire: egress at `start`, last flit lands at
/// `landed`, destination commit finishes draining at `drained`.
struct TlpRow {
    start: SimTime,
    landed: SimTime,
    drained: SimTime,
    src: u8,
    dst: u8,
    stores: u32,
    wire_bytes: u64,
    reason: &'static str,
}

fn main() {
    let cfg = SystemConfig::paper(2);
    let spec = RunSpec {
        scale_down: 16,
        iterations: 1,
        ..RunSpec::paper(2)
    };
    let app = Jacobi::default();
    let prep = PreparedWorkload::new(&app, &cfg, &spec);

    let mut ring = RingCollector::new(1 << 22, 16);
    let report = prep
        .try_run_traced(&cfg, Paradigm::FinePack, &mut ring, None)
        .expect("traced Jacobi run");

    // Pair each WireTransmit with the Commit the runner records right
    // after it (they are pushed consecutively per delivered packet).
    let mut rows: Vec<TlpRow> = Vec::new();
    let mut pending: Option<TlpRow> = None;
    for e in ring.events() {
        match e.kind {
            EventKind::WireTransmit {
                dst,
                wire_bytes,
                stores,
                reason,
                done,
                ..
            } => {
                pending = Some(TlpRow {
                    start: e.time,
                    landed: done,
                    drained: done,
                    src: e.gpu,
                    dst,
                    stores,
                    wire_bytes,
                    reason: reason.unwrap_or("uncoalesced"),
                });
            }
            EventKind::Commit { done, .. } => {
                if let Some(mut row) = pending.take() {
                    row.drained = done;
                    rows.push(row);
                }
            }
            _ => {}
        }
    }
    assert!(!rows.is_empty(), "FinePack Jacobi run produced no TLPs");

    // Waterfall of the first packets: `=` is time on the wire, `#` is
    // destination drain after landing, scaled to the shown window.
    const SHOW: usize = 24;
    const WIDTH: f64 = 56.0;
    let shown = &rows[..rows.len().min(SHOW)];
    let t0 = shown[0].start;
    let t1 = shown
        .iter()
        .map(|r| r.drained)
        .max()
        .expect("non-empty window");
    let span = (t1.saturating_sub(t0)).as_ps().max(1) as f64;
    let col = |t: SimTime| ((t.saturating_sub(t0).as_ps() as f64 / span) * WIDTH) as usize;

    println!(
        "trace waterfall: jacobi under finepack ({} GPUs, {} TLPs total, showing {})\n",
        cfg.num_gpus,
        rows.len(),
        shown.len()
    );
    println!(
        "{:>4} {:>9} {:>7} {:>6} {:>5}  {:<12} timeline ({:.3}us window)",
        "tlp",
        "start_ns",
        "wire_ns",
        "bytes",
        "st",
        "flush",
        SimTime::from_ps(span as u64).as_us_f64()
    );
    for (i, r) in shown.iter().enumerate() {
        let (a, b, c) = (
            col(r.start),
            col(r.landed).max(col(r.start) + 1),
            col(r.drained),
        );
        let mut bar = String::new();
        bar.push_str(&" ".repeat(a));
        bar.push_str(&"=".repeat(b - a));
        bar.push_str(&"#".repeat(c.saturating_sub(b)));
        println!(
            "{:>4} {:>9.1} {:>7.1} {:>6} {:>5}  {:<12} g{}->g{} |{bar}",
            i,
            r.start.as_us_f64() * 1e3,
            r.landed.saturating_sub(r.start).as_us_f64() * 1e3,
            r.wire_bytes,
            r.stores,
            r.reason,
            r.src,
            r.dst,
        );
    }

    let packed: u32 = rows.iter().map(|r| r.stores).sum();
    println!(
        "\n{} TLPs carried {} stores ({:.1} per packet); run simulated {} of traffic",
        rows.len(),
        packed,
        packed as f64 / rows.len() as f64,
        report.total_time
    );
    println!(
        "aggregate cross-check: egress reported {} packets",
        report.egress.packets
    );
    assert_eq!(rows.len() as u64, report.egress.packets);
}
