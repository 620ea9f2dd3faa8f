//! Parallel parameter sweeps: `Workload` is `Send + Sync` and the whole
//! simulation stack is value-oriented, so scaling studies fan out over a
//! [`sim_engine::WorkerPool`] with no shared mutable state — and the
//! results come back in input order, byte-identical to the serial path.
//!
//! Run with: `cargo run --release --example parallel_sweep`

use std::time::Instant;

use sim_engine::WorkerPool;
use system::{sweep, Paradigm, SystemConfig};
use workloads::{suite, RunSpec};

fn main() {
    let cfg = SystemConfig::paper(4);
    let spec = RunSpec {
        scale_down: 4,
        iterations: 1,
        ..RunSpec::paper(4)
    };
    let apps = suite();

    // Serial baseline.
    let clock = Instant::now();
    let serial = sweep(&apps, &spec, &[cfg], &Paradigm::FIG9, &WorkerPool::serial());
    let serial_wall = clock.elapsed();

    // The same sweep over every available core.
    let pool = WorkerPool::default_parallel();
    let clock = Instant::now();
    let parallel = sweep(&apps, &spec, &[cfg], &Paradigm::FIG9, &pool);
    let parallel_wall = clock.elapsed();

    println!("app        finepack speedup (serial == parallel)");
    for (a, b) in serial.rows(0).iter().zip(&parallel.rows(0)) {
        let sa = a.speedup(Paradigm::FinePack).expect("measured");
        let sb = b.speedup(Paradigm::FinePack).expect("measured");
        assert!((sa - sb).abs() < 1e-12, "parallel run must be identical");
        println!("{:<10} {sa:.2}x", a.app);
    }
    assert_eq!(serial.sim_events, parallel.sim_events);
    assert_eq!(serial.sim_time, parallel.sim_time);
    println!(
        "\nsweep wall time: serial {serial_wall:?}, {} workers {parallel_wall:?} \
         — determinism preserved bit-for-bit",
        pool.jobs(),
    );
}
