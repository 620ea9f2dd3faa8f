//! The experiment registry: every table and figure of the paper's
//! evaluation, plus the extension studies, as named renderers.
//! `finepack-sim reproduce` prints them, `tests/golden.rs` pins them,
//! and EXPERIMENTS.md tags its sections with their names.
//!
//! A renderer takes the run spec and returns the report text. The CLI
//! passes `RunSpec::paper(4)`; the golden gate shrinks only its scale
//! and iteration count. The 16-GPU studies override the GPU and
//! iteration counts themselves.

use std::fmt::Write as _;
use std::ops::RangeInclusive;

use finepack::{
    AllocationPolicy, ConfigPacketModel, EgressPath, FinePackConfig, FlushReason, RawP2pEgress,
    SubheaderFormat,
};
use protocol::{fig2_sizes, goodput_curve, FramingModel, PcieGen};
use sim_engine::{geomean, BarChart, SimTime, Table, WorkerPool};
use system::{
    geomean_speedup, single_gpu_time, sweep, Paradigm, PreparedWorkload, SpeedupRow, Sweep,
    SystemConfig, Topology,
};
use workloads::{suite, Pagerank, PagerankGraph, RmatParams, RunSpec, ScalingMode, Sssp, Workload};

/// Renders one experiment's report text.
pub type Render = fn(&RunSpec) -> String;

/// Every experiment as `(name, paper hook, renderer)`, in the order of
/// EXPERIMENTS.md. The names are the tags EXPERIMENTS.md cites.
pub const EXPERIMENT_REGISTRY: [(&str, &str, Render); 23] = [
    ("fig02_goodput", "Fig 2", fig02_goodput),
    ("fig04_store_sizes", "Fig 4", fig04_store_sizes),
    ("tab02_subheader", "Table II", tab02_subheader),
    ("fig09_speedup", "Fig 9", fig09_speedup),
    ("fig10_traffic", "Fig 10", fig10_traffic),
    ("fig11_coalescing", "Fig 11", fig11_coalescing),
    ("fig12_subheader_sweep", "Fig 12", fig12_subheader_sweep),
    ("fig13_bandwidth", "Fig 13", fig13_bandwidth),
    ("write_combining", "§VI-A", write_combining),
    ("alt_design", "§VI-B", alt_design),
    ("gps_compare", "§VI-B", gps_compare),
    ("scale16_gpu", "§VI-B", scale16_gpu),
    ("flush_reasons", "§IV-B", flush_reasons),
    ("atomics_ablation", "§IV-C", atomics_ablation),
    ("timeout_ablation", "§IV-B", timeout_ablation),
    ("queue_sizing", "§VI-B, §IV-C", queue_sizing),
    ("interconnects", "§IV-C", interconnects),
    ("topology", "§VI-B", topology),
    ("gpu_scaling", "Fig 9, Fig 13", gpu_scaling),
    ("sector_quantization", "Fig 1", sector_quantization),
    ("weak_scaling", "§I", weak_scaling),
    ("rmat_graph", "§V", rmat_graph),
    ("time_breakdown", "Fig 9", time_breakdown),
];

/// Renders every experiment in registry order, each under a
/// `# <name> — <paper hook>` line, separated by blank lines.
pub fn reproduce_all(spec: &RunSpec) -> String {
    let mut out = String::new();
    for (i, (name, hook, render)) in EXPERIMENT_REGISTRY.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        let _ = writeln!(out, "# {name} — {hook}");
        out.push_str(&render(spec));
    }
    out
}

/// Formats a fraction as a percent.
fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Formats a speedup.
fn x2(x: f64) -> String {
    format!("{x:.2}x")
}

/// Arithmetic mean of a non-empty slice.
fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// A row label followed by one speedup cell per value.
fn speedup_cells(label: impl ToString, values: impl IntoIterator<Item = f64>) -> Vec<String> {
    std::iter::once(label.to_string())
        .chain(values.into_iter().map(x2))
        .collect()
}

/// Column headers for one label column plus the [`Paradigm::FIG9`] set.
fn fig9_headers(label: &str) -> [&str; 5] {
    [label, "bulk-dma", "p2p-stores", "finepack", "infinite-bw"]
}

/// The suite under each of `cfgs`, one task per app.
fn suite_sweep(cfgs: &[SystemConfig], spec: &RunSpec, paradigms: &[Paradigm]) -> Sweep {
    sweep(
        &suite(),
        spec,
        cfgs,
        paradigms,
        &WorkerPool::default_parallel(),
    )
}

/// One [`SpeedupRow`] per suite app under `cfg`.
fn suite_rows(cfg: &SystemConfig, spec: &RunSpec, paradigms: &[Paradigm]) -> Vec<SpeedupRow> {
    suite_sweep(&[*cfg], spec, paradigms).rows(0)
}

/// The sub-header sizes Fig 12 sweeps, in bytes.
pub(crate) const SUBHEADER_BYTES: RangeInclusive<u32> = 2..=6;

/// `cfg` with the paper's FinePack structures and `bytes`-byte
/// sub-headers: one point of the Fig 12 grid.
pub(crate) fn with_subheader(cfg: &SystemConfig, bytes: u32) -> SystemConfig {
    let sub = SubheaderFormat::new(bytes).expect("2..=6 valid");
    cfg.with_finepack(FinePackConfig::paper(u32::from(cfg.num_gpus)).with_subheader(sub))
}

/// The Fig 9 table shared by `fig09_speedup` and `scale16_gpu`: a row
/// per app and a geomean row, one column per [`Paradigm::FIG9`] entry.
fn fig9_table(title: &str, rows: &[SpeedupRow]) -> String {
    let mut table = Table::new(title, &fig9_headers("app"));
    for row in rows {
        let speedups = Paradigm::FIG9.map(|p| row.speedup(p).expect("measured"));
        table.row(&speedup_cells(&row.app, speedups));
    }
    let geomeans = Paradigm::FIG9.map(|p| geomean_speedup(rows, p).expect("non-empty suite"));
    table.row(&speedup_cells("geomean", geomeans));
    table.render()
}

/// `spec` on a 16-GPU node, one iteration (the §VI-B projection).
fn sixteen_gpus(spec: &RunSpec) -> RunSpec {
    RunSpec {
        num_gpus: 16,
        iterations: 1,
        ..*spec
    }
}

/// Figure 2: peer-to-peer store goodput vs transfer size, for PCIe and
/// NVLink. The paper measures real systems up to 128B and projects
/// beyond; here the whole curve comes from the framing models.
fn fig02_goodput(_: &RunSpec) -> String {
    let curve = goodput_curve(&fig2_sizes());
    let mut table = Table::new(
        "Fig 2: goodput vs transfer size (payload / wire bytes)",
        &["size (B)", "PCIe", "NVLink", "regime"],
    );
    for p in &curve {
        let regime = if p.size <= 128 {
            "measured range"
        } else {
            "projected (bulk)"
        };
        table.row(&[
            p.size.to_string(),
            pct(p.pcie),
            pct(p.nvlink),
            regime.to_string(),
        ]);
    }
    let pcie_at = |size| {
        curve
            .iter()
            .find(|p| p.size == size)
            .expect("Fig 2 size")
            .pcie
    };
    format!(
        "{}\nheadline: 32B stores reach {} of bulk efficiency on PCIe (paper: ~half)\n",
        table.render(),
        pct(pcie_at(32) / pcie_at(4096))
    )
}

/// Figure 4: size distribution of remote stores exiting the L1, per app
/// — the "sub-cacheline stores dominate" evidence motivating FinePack.
fn fig04_store_sizes(spec: &RunSpec) -> String {
    let cfg = SystemConfig::paper(spec.num_gpus);
    let mut table = Table::new(
        "Fig 4: remote store sizes exiting L1 (4 GPUs)",
        &["app", "<=8B", "<=16B", "<=32B", "<=64B", "128B", "mean (B)"],
    );
    let mut small_fracs = Vec::new();
    for app in suite() {
        let prep = PreparedWorkload::new(app.as_ref(), &cfg, spec);
        let stats = prep.merged_stats();
        let at = |b: u64| stats.fraction_at_most(b).unwrap_or(0.0);
        small_fracs.push(at(32));
        table.row(&[
            app.name().to_string(),
            pct(at(8)),
            pct(at(16) - at(8)),
            pct(at(32) - at(16)),
            pct(at(64) - at(32)),
            pct(1.0 - at(64)),
            format!("{:.1}", stats.mean_remote_size().unwrap_or(0.0)),
        ]);
    }
    format!(
        "{}\nheadline: on average {} of remote stores are <=32B (paper: >63%)\n",
        table.render(),
        pct(mean(&small_fracs))
    )
}

/// Table II: header bytes vs length bits vs address-offset bits vs
/// addressable range.
fn tab02_subheader(_: &RunSpec) -> String {
    let mut table = Table::new(
        "Table II: sub-transaction header formats",
        &[
            "header bytes",
            "length bits",
            "address bits",
            "addressable range",
        ],
    );
    for bytes in SUBHEADER_BYTES {
        let f = SubheaderFormat::new(bytes).expect("2..=6 valid");
        let range = f.addressable_range();
        let human = if range >= 1 << 30 {
            format!("{}GB", range >> 30)
        } else if range >= 1 << 20 {
            format!("{}MB", range >> 20)
        } else if range >= 1 << 10 {
            format!("{}KB", range >> 10)
        } else {
            format!("{range}B")
        };
        table.row(&[
            bytes.to_string(),
            "10".to_string(),
            f.offset_bits().to_string(),
            human,
        ]);
    }
    format!(
        "{}\npaper row check: 2B->64B, 3B->16KB, 4B->4MB, 5B->1GB, 6B->256GB; \
         the evaluation uses 5B (Table III)\n",
        table.render()
    )
}

/// Figure 9: 4-GPU strong-scaling speedups over one GPU for bulk DMA,
/// peer-to-peer stores, FinePack and the infinite-bandwidth oracle.
fn fig09_speedup(spec: &RunSpec) -> String {
    let rows = suite_rows(&SystemConfig::paper(spec.num_gpus), spec, &Paradigm::FIG9);
    let mut out = fig9_table("Fig 9: 4-GPU speedup over 1 GPU, per paradigm", &rows);
    out.push('\n');
    let mut chart = BarChart::new(
        "Fig 9 (rendered): 4-GPU speedup over 1 GPU",
        &fig9_headers("app")[1..],
    );
    for row in &rows {
        chart.group(
            row.app.clone(),
            &Paradigm::FIG9.map(|p| row.speedup(p).expect("measured")),
        );
    }
    out.push_str(&chart.render(48));
    let geo = |p| geomean_speedup(&rows, p).expect("non-empty suite");
    let (fp, inf) = (geo(Paradigm::FinePack), geo(Paradigm::InfiniteBw));
    let _ = writeln!(
        out,
        "\nheadline: FinePack {} vs infinite-BW {} -> captures {:.0}% of the opportunity \
         (paper: 2.4x of 3.4x = 71%)",
        x2(fp),
        x2(inf),
        100.0 * fp / inf
    );
    let _ = writeln!(
        out,
        "headline: FinePack is {} over bulk DMA (paper 1.4x) and {} over raw P2P (paper 3x)",
        x2(fp / geo(Paradigm::BulkDma)),
        x2(fp / geo(Paradigm::P2pStores)),
    );
    out
}

/// Figure 10: bytes moved over the interconnect — useful, protocol
/// overhead and wasted — normalized to the bulk-DMA total, per app.
fn fig10_traffic(spec: &RunSpec) -> String {
    let cfg = SystemConfig::paper(spec.num_gpus);
    let mut table = Table::new(
        "Fig 10: wire bytes normalized to bulk DMA (useful / protocol / wasted)",
        &["app", "paradigm", "useful", "protocol", "wasted", "total"],
    );
    let mut p2p_over_fp = Vec::new();
    let mut dma_over_fp = Vec::new();
    for app in suite() {
        let prep = PreparedWorkload::new(app.as_ref(), &cfg, spec);
        let paradigms = [Paradigm::BulkDma, Paradigm::P2pStores, Paradigm::FinePack];
        let traffic = paradigms.map(|p| prep.run(&cfg, p).traffic);
        let [dma, p2p, fp] = traffic.map(|t| t.total() as f64);
        for (p, t) in paradigms.iter().zip(&traffic) {
            table.row(&[
                app.name().to_string(),
                p.to_string(),
                pct(t.useful as f64 / dma),
                pct(t.protocol as f64 / dma),
                pct(t.wasted as f64 / dma),
                pct(t.total() as f64 / dma),
            ]);
        }
        p2p_over_fp.push(p2p / fp);
        dma_over_fp.push(dma / fp);
    }
    format!(
        "{}\nheadline: FinePack moves {} less data than raw P2P (paper 2.7x) and {} less than \
         bulk DMA (paper 1.3x), geomean across apps\n",
        table.render(),
        x2(geomean(&p2p_over_fp).expect("non-empty suite")),
        x2(geomean(&dma_over_fp).expect("non-empty suite")),
    )
}

/// Figure 11: GPU stores aggregated per FinePack packet, per app. CT is
/// the paper's outlier: its stores have minimal spatial locality.
fn fig11_coalescing(spec: &RunSpec) -> String {
    let cfg = SystemConfig::paper(spec.num_gpus);
    let mut table = Table::new(
        "Fig 11: stores aggregated per FinePack packet",
        &["app", "mean", "p50", "p90", "packets", "stores offered"],
    );
    let mut means = Vec::new();
    let mut ct = 0.0;
    for app in suite() {
        let report = PreparedWorkload::new(app.as_ref(), &cfg, spec).run(&cfg, Paradigm::FinePack);
        let mean = report.mean_stores_per_packet().unwrap_or(0.0);
        means.push(mean);
        if app.name() == "ct" {
            ct = mean;
        }
        let hist = &report.egress.stores_per_packet;
        table.row(&[
            app.name().to_string(),
            format!("{mean:.1}"),
            hist.quantile(0.5).unwrap_or(0).to_string(),
            hist.quantile(0.9).unwrap_or(0).to_string(),
            report.egress.packets.to_string(),
            report.egress.stores_in.to_string(),
        ]);
    }
    format!(
        "{}\nheadline: {:.0} stores per packet on average across apps (paper: 42); \
         CT packs only {ct:.1} (paper: the outlier)\n",
        table.render(),
        mean(&means),
    )
}

/// Figure 12: FinePack sensitivity to the sub-header size (2–6 bytes).
/// The paper's sweet spot is 4–5 bytes.
fn fig12_subheader_sweep(spec: &RunSpec) -> String {
    let cfg = SystemConfig::paper(spec.num_gpus);
    let cfgs: Vec<SystemConfig> = SUBHEADER_BYTES.map(|b| with_subheader(&cfg, b)).collect();
    let grid = suite_sweep(&cfgs, spec, &[Paradigm::FinePack]);
    let points: Vec<(u32, f64)> = SUBHEADER_BYTES
        .enumerate()
        .map(|(i, bytes)| (bytes, grid.geomean(i, Paradigm::FinePack)))
        .collect();
    let mut table = Table::new(
        "Fig 12: FinePack geomean speedup vs sub-header bytes",
        &["subheader", "offset bits", "window", "geomean speedup"],
    );
    for (bytes, speedup) in &points {
        let fmt = SubheaderFormat::new(*bytes).expect("valid");
        table.row(&[
            format!("{bytes}B"),
            fmt.offset_bits().to_string(),
            format!("{}B", fmt.addressable_range()),
            x2(*speedup),
        ]);
    }
    let best = points
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("non-empty");
    let five = points.iter().find(|(b, _)| *b == 5).expect("5B point");
    format!(
        "{}\nheadline: best at {}B sub-headers ({}), 5B within {:.1}% \
         (paper: peak at 4B, virtually unchanged at 5B)\n",
        table.render(),
        best.0,
        x2(best.1),
        100.0 * (best.1 - five.1) / best.1,
    )
}

/// Figure 13: sensitivity to interconnect bandwidth (PCIe 4.0 / 5.0 /
/// 6.0, the last comparable to the fastest NVLink).
fn fig13_bandwidth(spec: &RunSpec) -> String {
    let cfg = SystemConfig::paper(spec.num_gpus);
    let grid = suite_sweep(
        &PcieGen::ALL.map(|gen| cfg.with_pcie_gen(gen)),
        spec,
        &Paradigm::FIG9,
    );
    let mut table = Table::new(
        "Fig 13: geomean speedup vs interconnect bandwidth",
        &fig9_headers("interconnect"),
    );
    let mut verdicts = String::new();
    for (i, gen) in PcieGen::ALL.into_iter().enumerate() {
        let get = |p| grid.geomean(i, p);
        table.row(&speedup_cells(
            format!("{gen} ({})", gen.bandwidth()),
            Paradigm::FIG9.map(get),
        ));
        let fp = get(Paradigm::FinePack);
        let behind = get(Paradigm::BulkDma) < fp && get(Paradigm::P2pStores) < fp;
        let _ = writeln!(
            verdicts,
            "{gen}: FinePack {} — DMA/P2P behind at this step: {behind} \
             (paper: they never catch up until bandwidth is unlimited)",
            x2(fp)
        );
    }
    format!("{}\n{verdicts}", table.render())
}

/// §VI-A ablation: FinePack vs write combining alone (cacheline
/// coalescing without the shared-header repacketization).
fn write_combining(spec: &RunSpec) -> String {
    let cfg = SystemConfig::paper(spec.num_gpus);
    let mut table = Table::new(
        "Write combining alone vs FinePack (wire bytes)",
        &["app", "write-combining", "finepack", "reduction"],
    );
    let mut reductions = Vec::new();
    for app in suite() {
        let prep = PreparedWorkload::new(app.as_ref(), &cfg, spec);
        let [wc, fp] = [Paradigm::WriteCombining, Paradigm::FinePack]
            .map(|p| prep.run(&cfg, p).traffic.total());
        let reduction = 1.0 - fp as f64 / wc as f64;
        reductions.push(reduction);
        table.row(&[
            app.name().to_string(),
            wc.to_string(),
            fp.to_string(),
            pct(reduction),
        ]);
    }
    format!(
        "{}\nheadline: FinePack moves {} less data than write combining alone, \
         mean across apps (paper: 24%)\n",
        table.render(),
        pct(mean(&reductions))
    )
}

/// §VI-B alternate design: a stateful configuration packet vs
/// FinePack's in-packet aggregation.
fn alt_design(_: &RunSpec) -> String {
    let model = ConfigPacketModel::new();
    let mut table = Table::new(
        "Alt design: config-packet efficiency relative to FinePack",
        &[
            "store size (B)",
            "batch",
            "finepack wire (B)",
            "config-pkt wire (B)",
            "relative efficiency",
        ],
    );
    for batch in [32usize, 42, 64] {
        for size in [8u32, 16, 32, 64, 128] {
            let sizes = vec![size; batch];
            table.row(&[
                size.to_string(),
                batch.to_string(),
                model.finepack_wire_bytes(&sizes).to_string(),
                model.wire_bytes(&sizes).to_string(),
                pct(model.relative_efficiency(&sizes)),
            ]);
        }
    }
    // The paper's representative point: FinePack typically coalesces 42
    // stores of the coalesced-store size range.
    format!(
        "{}\nheadline: at 42 stores of ~48B, the config-packet design reaches {} of \
         FinePack's efficiency (paper: ~18% less efficient)\n",
        table.render(),
        pct(model.relative_efficiency(&[48; 42]))
    )
}

/// §VI-B comparison with a GPS-like publish–subscribe design.
fn gps_compare(spec: &RunSpec) -> String {
    let cfg = SystemConfig::paper(spec.num_gpus);
    let mut table = Table::new(
        "FinePack vs GPS-like publish-subscribe (4 GPUs, PCIe 4.0)",
        &["app", "gps", "finepack", "fp/gps", "gps-filtered stores"],
    );
    let mut ratios = Vec::new();
    let rows = suite_rows(&cfg, spec, &[Paradigm::Gps, Paradigm::FinePack]);
    for (app, row) in suite().iter().zip(&rows) {
        let gps = row.speedup(Paradigm::Gps).expect("gps");
        let fp = row.speedup(Paradigm::FinePack).expect("fp");
        ratios.push(fp / gps);
        table.row(&[
            row.app.clone(),
            x2(gps),
            x2(fp),
            format!("{:.2}", fp / gps),
            pct(app.gps_unsubscribed_fraction()),
        ]);
    }
    format!(
        "{}\nheadline: FinePack reaches {} of GPS performance on average \
         (paper: 17.8% slower), with no new APIs, profiling, or VM changes\n",
        table.render(),
        pct(geomean(&ratios).expect("non-empty suite"))
    )
}

/// §VI-B "Scaling beyond 4 GPUs": a 16-GPU node on projected PCIe 6.0.
fn scale16_gpu(spec: &RunSpec) -> String {
    let spec = sixteen_gpus(spec);
    let cfg = SystemConfig::paper(16).with_pcie_gen(PcieGen::Gen6);
    let mut out = format!(
        "remote write queue SRAM per GPU at 16 GPUs: {}KB (paper: 120KB)\n\n",
        FinePackConfig::paper(16).data_sram_bytes() >> 10
    );
    let rows = suite_rows(&cfg, &spec, &Paradigm::FIG9);
    out.push_str(&fig9_table(
        "16 GPUs on PCIe 6.0: speedup over 1 GPU",
        &rows,
    ));
    let geo = |p| geomean_speedup(&rows, p).expect("non-empty suite");
    let fp = geo(Paradigm::FinePack);
    let _ = writeln!(
        out,
        "\nheadline: FinePack {} over raw P2P (paper 3x) and {} over bulk DMA (paper 1.9x) \
         at 16 GPUs / PCIe 6.0",
        x2(fp / geo(Paradigm::P2pStores)),
        x2(fp / geo(Paradigm::BulkDma)),
    );
    out
}

/// Why FinePack packets leave the remote write queue, per app.
fn flush_reasons(spec: &RunSpec) -> String {
    let cfg = SystemConfig::paper(spec.num_gpus);
    let mut table = Table::new(
        "FinePack flush causes per app (fraction of packets)",
        &[
            "app",
            "window-miss",
            "payload-full",
            "entries-full",
            "release",
            "total flushes",
        ],
    );
    for app in suite() {
        let report = PreparedWorkload::new(app.as_ref(), &cfg, spec).run(&cfg, Paradigm::FinePack);
        let m = &report.egress;
        let total: u64 = FlushReason::ALL
            .iter()
            .map(|r| m.flushes_for(*r))
            .sum::<u64>()
            .max(1);
        let frac = |r: FlushReason| pct(m.flushes_for(r) as f64 / total as f64);
        table.row(&[
            app.name().to_string(),
            frac(FlushReason::WindowMiss),
            frac(FlushReason::PayloadFull),
            frac(FlushReason::EntriesFull),
            frac(FlushReason::Release),
            total.to_string(),
        ]);
    }
    format!(
        "{}\nreading: high window-miss share means poor spatial locality (CT); \
         high entries/payload-full share means productive coalescing; \
         release-only means traffic fits entirely within the iteration window.\n",
        table.render()
    )
}

/// §IV-C: remote atomics are never coalesced. Sweeping the share of
/// SSSP relaxations issued as atomics shows FinePack's benefit eroding.
fn atomics_ablation(spec: &RunSpec) -> String {
    let cfg = SystemConfig::paper(spec.num_gpus);
    let mut table = Table::new(
        "SSSP with atomic relaxations: FinePack sensitivity",
        &[
            "atomic fraction",
            "speedup",
            "atomics sent",
            "stores/packet",
            "wire bytes",
        ],
    );
    let mut speedups = Vec::new();
    for fraction in [0.0, 0.05, 0.1, 0.2, 0.4] {
        let app = Sssp {
            atomic_fraction: fraction,
            ..Sssp::default()
        };
        let t1 = single_gpu_time(&app, &cfg, spec);
        let report = PreparedWorkload::new(&app, &cfg, spec).run(&cfg, Paradigm::FinePack);
        let speedup = t1.as_secs_f64() / report.total_time.as_secs_f64();
        speedups.push(speedup);
        table.row(&[
            format!("{:.0}%", fraction * 100.0),
            x2(speedup),
            report.egress.atomics_sent.to_string(),
            format!("{:.1}", report.mean_stores_per_packet().unwrap_or(0.0)),
            report.traffic.total().to_string(),
        ]);
    }
    format!(
        "{}\nheadline: going from store-only to 40% atomics costs {:.0}% of FinePack's \
         speedup — the motivation for the atomic-coalescing future work the paper cites\n",
        table.render(),
        100.0 * (1.0 - speedups[speedups.len() - 1] / speedups[0])
    )
}

/// §IV-B: the inactivity-timeout flush the paper describes but disables.
fn timeout_ablation(spec: &RunSpec) -> String {
    let base = SystemConfig::paper(spec.num_gpus);
    // The timeout acts on the egress path alone: one preparation and one
    // single-GPU baseline serve every row.
    let app = Pagerank::default();
    let t1 = single_gpu_time(&app, &base, spec).as_secs_f64();
    let prep = PreparedWorkload::new(&app, &base, spec);
    let row = |label: String, cfg: &SystemConfig| {
        let report = prep.run(cfg, Paradigm::FinePack);
        [
            label,
            x2(t1 / report.total_time.as_secs_f64()),
            format!("{:.1}", report.mean_stores_per_packet().unwrap_or(0.0)),
            report.traffic.total().to_string(),
        ]
    };
    let mut table = Table::new(
        "PageRank: FinePack inactivity-timeout sweep",
        &["timeout", "speedup", "stores/packet", "wire bytes"],
    );
    table.row(&row("none (paper)".to_string(), &base));
    for us in [1u64, 4, 16, 64] {
        let cfg = base.with_finepack_timeout(SimTime::from_us(us));
        table.row(&row(format!("{us}us"), &cfg));
    }
    format!(
        "{}\nreading: no timeout from 1us to 64us changes a single packet here — stores \
         arrive densely and each iteration's release flushes the queues first — so the \
         paper's no-timeout choice costs nothing. Timeouts would pay off only \
         under latency-sensitive, bursty traffic without frequent releases.\n",
        table.render()
    )
}

/// §VI-B leaves "the impact of reducing the maximum coalescing size" to
/// future work: sweep the RWQ entries per partition, then the §IV-C
/// multi-window and dynamic-allocation variants.
fn queue_sizing(spec: &RunSpec) -> String {
    let paper = FinePackConfig::paper(u32::from(spec.num_gpus));
    let sizes = [8u32, 16, 32, 64, 128].map(|n| FinePackConfig {
        entries_per_partition: n,
        ..paper
    });
    let windows = [1u32, 2, 4].map(|n| paper.with_windows(n));
    let policies = [
        (
            "static partition (paper)",
            AllocationPolicy::StaticPartition,
        ),
        ("dynamic shared pool", AllocationPolicy::DynamicShared),
    ];
    // All ten structures in one grid, drawn into three tables in order.
    let base = SystemConfig::paper(spec.num_gpus);
    let cfgs: Vec<SystemConfig> = sizes
        .iter()
        .chain(&windows)
        .copied()
        .chain(policies.map(|(_, policy)| paper.with_allocation(policy)))
        .map(|fp| base.with_finepack(fp))
        .collect();
    let grid = suite_sweep(&cfgs, spec, &[Paradigm::FinePack]);
    let mut geomeans = (0..cfgs.len()).map(|i| x2(grid.geomean(i, Paradigm::FinePack)));
    let mut next = || geomeans.next().expect("one geomean per configuration");

    let mut entries = Table::new(
        "RWQ entries per partition: FinePack geomean speedup",
        &["entries/partition", "SRAM (4 GPUs)", "geomean speedup"],
    );
    for fp in &sizes {
        entries.row(&[
            fp.entries_per_partition.to_string(),
            format!("{}KB", fp.data_sram_bytes() >> 10),
            next(),
        ]);
    }
    let mut windows_table = Table::new(
        "Open windows per partition (§IV-C variant): FinePack geomean speedup",
        &["windows", "entries/window", "geomean speedup"],
    );
    for fp in &windows {
        windows_table.row(&[
            fp.windows_per_partition.to_string(),
            fp.entries_per_window().to_string(),
            next(),
        ]);
    }
    let mut policies_table = Table::new(
        "SRAM allocation policy (§IV-C variant): FinePack geomean speedup",
        &["policy", "geomean speedup"],
    );
    for (name, _) in policies {
        policies_table.row(&[name.to_string(), next()]);
    }
    format!(
        "{}\n{}\n{}\nreading: each doubling of the queue buys less, but the gain does not \
         stop at the paper's 64 entries; a second window and a dynamic shared pool \
         each beat the paper's single, statically partitioned window (halo apps use \
         only 1-2 of 3 partitions), while four windows of 16 entries fall back \
         below one.\n",
        entries.render(),
        windows_table.render(),
        policies_table.render()
    )
}

/// §IV-C "Applicability Beyond PCIe": FinePack under CXL and NVLink-style
/// flit framing, with link bandwidth held at 32 GB/s.
fn interconnects(spec: &RunSpec) -> String {
    let mut table = Table::new(
        "FinePack benefit across interconnect framings (32 GB/s links)",
        &[
            "framing",
            "per-TLP overhead",
            "p2p geomean",
            "finepack geomean",
            "fp/p2p",
        ],
    );
    let framings = [
        ("PCIe 4.0", FramingModel::pcie_gen4()),
        ("CXL.io", FramingModel::cxl()),
        ("NVLink-flit", FramingModel::nvlink_flit()),
    ];
    let paradigms = [Paradigm::P2pStores, Paradigm::FinePack];
    let cfgs = framings.map(|(_, framing)| SystemConfig {
        framing,
        ..SystemConfig::paper(spec.num_gpus)
    });
    let grid = suite_sweep(&cfgs, spec, &paradigms);
    for (i, (name, framing)) in framings.into_iter().enumerate() {
        let [p2p, fp] = paradigms.map(|p| grid.geomean(i, p));
        table.row(&[
            name.to_string(),
            format!("{}B", framing.per_tlp_overhead()),
            x2(p2p),
            x2(fp),
            format!("{:.2}", fp / p2p),
        ]);
    }
    format!(
        "{}\nreading: §IV-C's claim holds — small-store inefficiency (and hence \
         FinePack's aggregation benefit) is similar across PCIe, CXL, and \
         NVLink-style framings.\n",
        table.render()
    )
}

/// §VI-B at 16 GPUs as a real node builds it: a two-level switch tree
/// whose inter-leaf uplinks carry all cross-leaf traffic.
fn topology(spec: &RunSpec) -> String {
    let spec = sixteen_gpus(spec);
    let mut table = Table::new(
        "16 GPUs, PCIe 6.0: switch topology sensitivity (geomean speedup)",
        &["topology", "bulk-dma", "p2p-stores", "finepack", "fp/p2p"],
    );
    let topologies = [
        Topology::SingleSwitch,
        Topology::TwoLevel { gpus_per_leaf: 8 },
        Topology::TwoLevel { gpus_per_leaf: 4 },
    ];
    let paradigms = [Paradigm::BulkDma, Paradigm::P2pStores, Paradigm::FinePack];
    let cfgs = topologies.map(|topology| {
        SystemConfig::paper(16)
            .with_pcie_gen(PcieGen::Gen6)
            .with_topology(topology)
    });
    let grid = suite_sweep(&cfgs, &spec, &paradigms);
    let mut fp_p2p = Vec::new();
    for (i, topology) in topologies.into_iter().enumerate() {
        let [dma, p2p, fp] = paradigms.map(|p| grid.geomean(i, p));
        fp_p2p.push((fp, p2p));
        let mut cells = speedup_cells(topology, [dma, p2p, fp]);
        cells.push(format!("{:.2}", fp / p2p));
        table.row(&cells);
    }
    let (fp_flat, p2p_flat) = fp_p2p[0];
    let (fp_tree, p2p_tree) = fp_p2p[fp_p2p.len() - 1];
    format!(
        "{}\nreading: moving from an idealized flat switch to a 4-GPU-per-leaf tree \
         costs raw P2P {:.0}% of its speedup and FinePack {:.0}% — the shared \
         uplinks slow both store paradigms by a similar share, so FinePack keeps \
         its lead over raw P2P without widening it much.\n",
        table.render(),
        100.0 * (1.0 - p2p_tree / p2p_flat),
        100.0 * (1.0 - fp_tree / fp_flat),
    )
}

/// Strong-scaling curves from 2 to 16 GPUs on PCIe 4.0: where each
/// paradigm stops scaling.
fn gpu_scaling(spec: &RunSpec) -> String {
    let mut table = Table::new(
        "Strong scaling vs GPU count (PCIe 4.0, geomean speedup over 1 GPU)",
        &fig9_headers("GPUs"),
    );
    let mut efficiency = Vec::new();
    for gpus in [2u8, 4, 8, 16] {
        let spec = RunSpec {
            num_gpus: gpus,
            ..sixteen_gpus(spec)
        };
        let grid = suite_sweep(&[SystemConfig::paper(gpus)], &spec, &Paradigm::FIG9);
        let geo = Paradigm::FIG9.map(|p| grid.geomean(0, p));
        let [_, _, fp, _] = geo;
        efficiency.push(format!("{gpus} GPUs: {:.0}%", 100.0 * fp / f64::from(gpus)));
        table.row(&speedup_cells(gpus, geo));
    }
    format!(
        "{}\nFinePack parallel efficiency: {} — communication-bound decay without \
         more interconnect bandwidth, which is Fig 13's argument.\n",
        table.render(),
        efficiency.join(", ")
    )
}

/// Fig 1 charges raw P2P stores with "protocol overhead and unread bytes
/// at the receiver". The default P2P model is byte-exact; this prices a
/// memory system that moves whole 32B sectors per store.
fn sector_quantization(spec: &RunSpec) -> String {
    let cfg = SystemConfig::paper(spec.num_gpus);
    let mut table = Table::new(
        "Raw P2P wire bytes: byte-enable-exact vs 32B-sector-quantized",
        &[
            "app",
            "byte-exact",
            "sector-quantized",
            "inflation",
            "fp advantage grows to",
        ],
    );
    for app in suite() {
        let prep = PreparedWorkload::new(app.as_ref(), &cfg, spec);
        let mut exact = RawP2pEgress::new(cfg.framing);
        let mut quant = RawP2pEgress::new(cfg.framing).with_sector_quantization(32);
        for t in prep.runs().iter().flatten().flat_map(|run| &run.egress) {
            exact.push(&t.store, SimTime::ZERO).expect("valid");
            quant.push(&t.store, SimTime::ZERO).expect("valid");
        }
        let fp = prep.run(&cfg, Paradigm::FinePack);
        let e = exact.metrics().wire_bytes;
        let q = quant.metrics().wire_bytes;
        table.row(&[
            app.name().to_string(),
            e.to_string(),
            q.to_string(),
            x2(q as f64 / e as f64),
            x2(q as f64 / fp.traffic.total() as f64),
        ]);
    }
    format!(
        "{}\nreading: against sector-granular hardware (Fig 1's framing), FinePack's \
         wire-data advantage over raw P2P grows beyond the byte-enable-exact \
         numbers reported in EXPERIMENTS.md.\n",
        table.render()
    )
}

/// The intro's contrast: weak scaling keeps per-GPU work constant,
/// strong scaling splits a fixed problem, at the spec's GPU count.
fn weak_scaling(spec: &RunSpec) -> String {
    let cfg = SystemConfig::paper(spec.num_gpus);
    let mut table = Table::new(
        "Weak vs strong scaling efficiency at 4 GPUs (PCIe 4.0, geomean)",
        &["mode", "bulk-dma", "p2p-stores", "finepack"],
    );
    for (name, scaling) in [
        ("weak (problem grows)", ScalingMode::Weak),
        ("strong (fixed problem)", ScalingMode::Strong),
    ] {
        let spec = RunSpec { scaling, ..*spec };
        // Efficiency: one GPU's share of the work alone vs the
        // multi-GPU run. Under weak scaling the single-GPU baseline
        // already is one share; under strong scaling a share is 1/N.
        let one = RunSpec {
            num_gpus: 1,
            scaling: ScalingMode::Weak,
            ..spec
        };
        let paradigms = [Paradigm::BulkDma, Paradigm::P2pStores, Paradigm::FinePack];
        let mut effs = paradigms.map(|_| Vec::new());
        for app in suite() {
            let mut t1 = single_gpu_time(app.as_ref(), &cfg, &one).as_secs_f64();
            if scaling == ScalingMode::Strong {
                t1 /= f64::from(spec.num_gpus);
            }
            let prep = PreparedWorkload::new(app.as_ref(), &cfg, &spec);
            for (eff, p) in effs.iter_mut().zip(paradigms) {
                eff.push(t1 / prep.run(&cfg, p).total_time.as_secs_f64());
            }
        }
        let mut cells = vec![name.to_string()];
        cells.extend(effs.map(|e| pct(geomean(&e).expect("non-empty suite"))));
        table.row(&cells);
    }
    format!(
        "{}\nreading: weak scaling raises every paradigm's efficiency (constant \
         per-GPU compute amortizes communication), yet raw P2P stays far below the \
         others; under strong scaling every paradigm loses more than half its \
         efficiency — the interconnect binds, the paper's motivating observation.\n",
        table.render()
    )
}

/// Fidelity check for the dataset substitution (DESIGN.md §4): PageRank
/// over an actual R-MAT graph vs the suite's parameterized PageRank.
fn rmat_graph(spec: &RunSpec) -> String {
    let cfg = SystemConfig::paper(spec.num_gpus);
    let graph = PagerankGraph::new(RmatParams::default(), spec.seed);
    let mut out = format!(
        "R-MAT graph: 2^{} vertices, {} edges, {:.0}% cross-partition at 4 GPUs\n\n",
        graph.params().scale,
        graph.edges().len(),
        100.0 * graph.cross_edge_fraction(4)
    );
    let mut table = Table::new(
        "PageRank: graph-derived traffic vs parameterized synthetic",
        &["workload", "dma", "p2p", "finepack", "inf", "stores/packet"],
    );
    let apps: [&dyn Workload; 2] = [&graph, &Pagerank::default()];
    let fp = Paradigm::FIG9
        .iter()
        .position(|p| *p == Paradigm::FinePack)
        .expect("Fig 9 plots FinePack");
    for app in apps {
        let t1 = single_gpu_time(app, &cfg, spec).as_secs_f64();
        let prep = PreparedWorkload::new(app, &cfg, spec);
        let reports = Paradigm::FIG9.map(|p| prep.run(&cfg, p));
        let mut cells = speedup_cells(
            app.name(),
            reports.iter().map(|r| t1 / r.total_time.as_secs_f64()),
        );
        cells.push(format!(
            "{:.1}",
            reports[fp].mean_stores_per_packet().unwrap_or(0.0)
        ));
        table.row(&cells);
    }
    let _ = write!(
        out,
        "{}\nreading: on both workloads raw P2P is far underwater and FinePack far \
         above it, but on the graph-derived traffic bulk DMA beats FinePack, the \
         reverse of the parameterized substitute — the DESIGN.md §4 substitution \
         preserves the P2P-vs-FinePack gap, not the DMA-vs-FinePack ordering.\n",
        table.render()
    );
    out
}

/// Where iteration time goes per paradigm: overlapped compute, exposed
/// communication tail, and barrier — the mechanism behind Fig 9.
fn time_breakdown(spec: &RunSpec) -> String {
    let cfg = SystemConfig::paper(spec.num_gpus);
    let mut table = Table::new(
        "Iteration-time breakdown (fraction of total)",
        &["app", "paradigm", "compute", "exposed comm", "barrier"],
    );
    for app in suite() {
        let prep = PreparedWorkload::new(app.as_ref(), &cfg, spec);
        for p in [Paradigm::BulkDma, Paradigm::P2pStores, Paradigm::FinePack] {
            let r = prep.run(&cfg, p);
            let total = r.total_time.as_secs_f64();
            table.row(&[
                app.name().to_string(),
                p.to_string(),
                pct(r.compute_time.as_secs_f64() / total),
                pct(r.exposed_comm_fraction()),
                pct(r.barrier_time.as_secs_f64() / total),
            ]);
        }
    }
    format!(
        "{}\nreading: exposed comm is only the transfer tail after the kernels end; \
         under credited links backpressure also stalls the store stream during the \
         kernel, and that stall counts as compute — CT exposes ~1% yet runs far \
         below the infinite-bandwidth bound.\n",
        table.render()
    )
}
