//! Randomized property tests for the simulation engine's foundations,
//! driven by the engine's own deterministic RNG so the suite needs no
//! external property-testing crate and every failure replays exactly.

use sim_engine::{geomean, Bandwidth, DetRng, EventQueue, Histogram, SimTime, Zipf};

/// Events pop in non-decreasing time order regardless of insertion
/// order, and ties preserve insertion order.
#[test]
fn event_queue_is_a_stable_priority_queue() {
    let mut rng = DetRng::new(0x51_0001, "event-queue");
    for _ in 0..200 {
        let n = rng.next_in_range(1, 200) as usize;
        let times: Vec<u64> = (0..n).map(|_| rng.next_u64_below(1000)).collect();
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.schedule(SimTime::from_ns(*t), (i, *t));
        }
        let mut popped = Vec::new();
        while let Some(ev) = q.pop() {
            popped.push(ev.payload);
        }
        assert_eq!(popped.len(), times.len());
        for pair in popped.windows(2) {
            let (i0, t0) = pair[0];
            let (i1, t1) = pair[1];
            assert!(t0 <= t1, "time order violated");
            if t0 == t1 {
                assert!(i0 < i1, "tie broke insertion order");
            }
        }
    }
}

/// Transfer time is additive: sending a+b bytes costs at least as
/// much as the max part, at most the sum plus rounding.
#[test]
fn bandwidth_transfer_additivity() {
    let mut rng = DetRng::new(0x51_0002, "bandwidth");
    for _ in 0..500 {
        let a = rng.next_in_range(1, 1_000_000);
        let b = rng.next_in_range(1, 1_000_000);
        let gbps = rng.next_in_range(1, 256) as u32;
        let bw = Bandwidth::from_gbps(f64::from(gbps));
        let ta = bw.transfer_time(a);
        let tb = bw.transfer_time(b);
        let tab = bw.transfer_time(a + b);
        assert!(tab >= ta.max(tb));
        // Each transfer_time call rounds up to whole picoseconds, so the
        // combined transfer may exceed the sum by at most one tick.
        assert!(tab <= ta + tb + SimTime::from_ps(1));
    }
}

/// Histogram merge is commutative in all observable statistics.
#[test]
fn histogram_merge_commutes() {
    let mut rng = DetRng::new(0x51_0003, "histogram");
    for _ in 0..100 {
        let draw = |rng: &mut DetRng| {
            let n = rng.next_u64_below(100) as usize;
            (0..n).map(|_| rng.next_u64_below(256)).collect::<Vec<_>>()
        };
        let xs = draw(&mut rng);
        let ys = draw(&mut rng);
        let build = |vals: &[u64]| {
            let mut h = Histogram::new("h");
            for v in vals {
                h.record(*v);
            }
            h
        };
        let mut ab = build(&xs);
        ab.merge(&build(&ys));
        let mut ba = build(&ys);
        ba.merge(&build(&xs));
        assert_eq!(ab.total(), ba.total());
        assert_eq!(ab.mean(), ba.mean());
        for v in 0..256 {
            assert_eq!(ab.count(v), ba.count(v));
        }
    }
}

/// The geometric mean lies between min and max of its inputs.
#[test]
fn geomean_is_bounded() {
    let mut rng = DetRng::new(0x51_0004, "geomean");
    for _ in 0..200 {
        let n = rng.next_in_range(1, 32) as usize;
        let vals: Vec<f64> = (0..n).map(|_| 0.01 + rng.next_f64() * 99.99).collect();
        let g = geomean(&vals).expect("positive inputs");
        let min = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = vals.iter().cloned().fold(0.0f64, f64::max);
        assert!(
            g >= min * 0.999 && g <= max * 1.001,
            "g={g} not in [{min},{max}]"
        );
    }
}

/// DetRng draws stay in bounds and identical streams replay exactly.
#[test]
fn det_rng_bounds_and_replay() {
    let mut meta = DetRng::new(0x51_0005, "meta");
    for _ in 0..100 {
        let seed = meta.next_u64();
        let bound = meta.next_in_range(1, 1_000_000);
        let mut a = DetRng::new(seed, "stream");
        let mut b = DetRng::new(seed, "stream");
        for _ in 0..64 {
            let x = a.next_u64_below(bound);
            assert!(x < bound);
            assert_eq!(x, b.next_u64_below(bound));
        }
    }
}

/// Zipf draws always land inside the domain.
#[test]
fn zipf_in_domain() {
    let mut meta = DetRng::new(0x51_0006, "zipf-meta");
    for _ in 0..100 {
        let seed = meta.next_u64();
        let n = meta.next_in_range(1, 100_000);
        let s = 0.1 + meta.next_f64() * 2.4;
        let mut rng = DetRng::new(seed, "zipf");
        let zipf = Zipf::new(n, s);
        for _ in 0..32 {
            assert!(zipf.sample(&mut rng) < n);
        }
    }
}
