//! Deterministic random-number helpers.
//!
//! Every stochastic element of the simulator (workload generation, address
//! perturbation) draws from a [`DetRng`] derived from a fixed experiment
//! seed, so that every run of every benchmark is exactly reproducible.

/// A deterministic RNG seeded from an experiment seed plus a stream label.
///
/// Different components (e.g. per-GPU generators) derive independent
/// streams from the same experiment seed so that changing one component's
/// draw count does not perturb another's.
///
/// The generator is a self-contained xoshiro256++ (public domain
/// reference construction) seeded through splitmix64, so the simulator
/// carries no external RNG dependency and the byte-for-byte output of a
/// seeded run is stable across toolchains.
///
/// # Examples
///
/// ```
/// use sim_engine::DetRng;
///
/// let mut a = DetRng::new(42, "gpu0");
/// let mut b = DetRng::new(42, "gpu0");
/// assert_eq!(a.next_u64_below(100), b.next_u64_below(100));
/// ```
#[derive(Debug, Clone)]
pub struct DetRng {
    state: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl DetRng {
    /// Creates a stream from an experiment seed and a label.
    pub fn new(seed: u64, stream: &str) -> Self {
        // FNV-1a over the label, mixed with the seed; cheap and stable.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in stream.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut sm = seed ^ h.rotate_left(17);
        let state = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DetRng { state }
    }

    /// The next raw 64-bit draw (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform draw in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_u64_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Lemire's multiply-shift with rejection: unbiased and cheap.
        let threshold = bound.wrapping_neg() % bound; // 2^64 mod bound
        loop {
            let m = u128::from(self.next_u64()) * u128::from(bound);
            if m as u64 >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform draw in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn next_in_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.next_u64_below(hi - lo)
    }

    /// Uniform draw in `[0.0, 1.0)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits -> [0, 1) with full double precision.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn chance(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.next_f64() < p
    }

    /// Draws an index from a discrete weight vector.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to a non-positive value.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(
            !weights.is_empty() && total > 0.0,
            "weights must be non-empty with positive sum"
        );
        let mut draw = self.next_f64() * total;
        for (i, w) in weights.iter().enumerate() {
            if draw < *w {
                return i;
            }
            draw -= *w;
        }
        weights.len() - 1
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.next_u64_below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// A Zipf-like sampler over `[0, n)` with exponent `s`.
///
/// Uses inverse-CDF on the continuous approximation, which is accurate
/// enough for synthesizing skewed access patterns. The powers of one
/// `(n, s)` pair are computed once, so a draw makes one `powf` call.
///
/// # Examples
///
/// ```
/// use sim_engine::{DetRng, Zipf};
///
/// let zipf = Zipf::new(1000, 1.2);
/// let mut rng = DetRng::new(1, "zipf");
/// assert!(zipf.sample(&mut rng) < 1000);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Zipf {
    n: u64,
    /// `(n^(1-s), 1/(1-s))`, or `None` when `s` is within 1e-9 of 1,
    /// where the CDF is logarithmic.
    powers: Option<(f64, f64)>,
}

impl Zipf {
    /// A sampler over `[0, n)` with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s <= 0`.
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n > 0 && s > 0.0, "invalid zipf parameters n={n} s={s}");
        let exp = 1.0 - s;
        Zipf {
            n,
            powers: (exp.abs() >= 1e-9).then(|| ((n as f64).powf(exp), 1.0 / exp)),
        }
    }

    /// Draws an index from `rng`. A one-element domain draws nothing.
    pub fn sample(&self, rng: &mut DetRng) -> u64 {
        if self.n == 1 {
            return 0;
        }
        // Inverse transform of the truncated Pareto CDF.
        let u = rng.next_f64().max(1e-12);
        let idx = match self.powers {
            None => (self.n as f64).powf(u) - 1.0,
            Some((max, inv_exp)) => ((u * (max - 1.0) + 1.0).powf(inv_exp)) - 1.0,
        };
        (idx.floor() as u64).min(self.n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_reproducible() {
        let mut a = DetRng::new(7, "x");
        let mut b = DetRng::new(7, "x");
        for _ in 0..100 {
            assert_eq!(a.next_u64_below(1000), b.next_u64_below(1000));
        }
    }

    #[test]
    fn streams_differ_by_label() {
        let mut a = DetRng::new(7, "x");
        let mut b = DetRng::new(7, "y");
        let same = (0..32).filter(|_| a.next_u64_below(1 << 30) == b.next_u64_below(1 << 30));
        assert!(same.count() < 4);
    }

    #[test]
    fn bounds_respected() {
        let mut r = DetRng::new(1, "b");
        for _ in 0..1000 {
            assert!(r.next_u64_below(10) < 10);
            let v = r.next_in_range(5, 8);
            assert!((5..8).contains(&v));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::new(1, "c");
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn weighted_index_degenerate() {
        let mut r = DetRng::new(1, "w");
        for _ in 0..50 {
            assert_eq!(r.weighted_index(&[0.0, 1.0, 0.0]), 1);
        }
    }

    #[test]
    fn zipf_is_skewed_and_bounded() {
        let mut r = DetRng::new(1, "z");
        let n = 1000;
        let zipf = Zipf::new(n, 1.2);
        let mut low = 0u64;
        for _ in 0..10_000 {
            let v = zipf.sample(&mut r);
            assert!(v < n);
            if v < 10 {
                low += 1;
            }
        }
        // A zipf(1.2) draw should land in the first 1% of the range far
        // more often than uniformly (which would be ~100/10000).
        assert!(low > 1_000, "zipf not skewed: {low}");
    }

    #[test]
    fn zipf_matches_the_per_draw_formula() {
        // The draw as it computed both powers on every call.
        fn per_draw(rng: &mut DetRng, n: u64, s: f64) -> u64 {
            if n == 1 {
                return 0;
            }
            let u = rng.next_f64().max(1e-12);
            let exp = 1.0 - s;
            let idx = if (exp.abs()) < 1e-9 {
                (n as f64).powf(u) - 1.0
            } else {
                let max = (n as f64).powf(exp);
                ((u * (max - 1.0) + 1.0).powf(1.0 / exp)) - 1.0
            };
            (idx.floor() as u64).min(n - 1)
        }
        for n in [1, 2, 3, 100, 4096, 1 << 20, u64::MAX] {
            for s in [0.1, 0.5, 0.9, 1.0 - 1e-10, 1.0, 1.0 + 1e-10, 1.05, 1.2, 2.5] {
                let zipf = Zipf::new(n, s);
                let mut a = DetRng::new(n ^ s.to_bits(), "z");
                let mut b = a.clone();
                for draw in 0..500 {
                    let want = per_draw(&mut b, n, s);
                    assert_eq!(zipf.sample(&mut a), want, "n {n}, s {s}, draw {draw}");
                }
                // Both consumed the same number of raw draws.
                assert_eq!(a.next_u64(), b.next_u64(), "n {n}, s {s}");
            }
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = DetRng::new(3, "s");
        let mut v: Vec<u32> = (0..64).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>());
    }
}
