//! Lightweight statistics: exact histograms.

use std::collections::BTreeMap;
use std::fmt;

/// Values below this are counted in a dense array; larger ones in a map.
const DENSE: usize = 256;

/// An exact histogram over integer-valued samples (e.g. transfer sizes).
///
/// Buckets are the sample values themselves; this is intended for
/// low-cardinality domains such as store sizes (1–128 bytes) or
/// stores-per-packet counts. Values below 256 are counted in a dense
/// array, so recording one is an index, not a map insert.
///
/// # Examples
///
/// ```
/// use sim_engine::Histogram;
///
/// let mut sizes = Histogram::new("store_size");
/// for s in [4, 4, 32, 128] {
///     sizes.record(s);
/// }
/// assert_eq!(sizes.count(4), 2);
/// assert_eq!(sizes.total(), 4);
/// assert!((sizes.mean().unwrap() - 42.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    name: String,
    /// Counts of the values below [`DENSE`], indexed by value.
    dense: Box<[u64; DENSE]>,
    /// Counts of the values from [`DENSE`] up; never holds a zero.
    sparse: BTreeMap<u64, u64>,
    total: u64,
    sum: u128,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new(name: impl Into<String>) -> Self {
        Histogram {
            name: name.into(),
            dense: Box::new([0; DENSE]),
            sparse: BTreeMap::new(),
            total: 0,
            sum: 0,
        }
    }

    /// Records one sample of value `v`.
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` samples of value `v`.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        if v < DENSE as u64 {
            self.dense[v as usize] += n;
        } else {
            *self.sparse.entry(v).or_insert(0) += n;
        }
        self.total += n;
        self.sum += v as u128 * n as u128;
    }

    /// Number of samples recorded with exactly value `v`.
    pub fn count(&self, v: u64) -> u64 {
        if v < DENSE as u64 {
            self.dense[v as usize]
        } else {
            self.sparse.get(&v).copied().unwrap_or(0)
        }
    }

    /// Total number of samples.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Mean sample value, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.total > 0).then(|| self.sum as f64 / self.total as f64)
    }

    /// Fraction of samples with value `<= v`, or `None` if empty.
    pub fn fraction_at_most(&self, v: u64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let below: u64 = self
            .iter()
            .take_while(|&(x, _)| x <= v)
            .map(|(_, c)| c)
            .sum();
        Some(below as f64 / self.total as f64)
    }

    /// The smallest value `v` such that at least `q` (0..=1) of samples
    /// are `<= v`, or `None` if the histogram is empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.total == 0 {
            return None;
        }
        let target = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (v, c) in self.iter() {
            seen += c;
            if seen >= target {
                return Some(v);
            }
        }
        self.iter().last().map(|(v, _)| v)
    }

    /// Iterates `(value, count)` pairs in ascending value order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let dense = (0u64..).zip(self.dense.iter().copied());
        dense
            .filter(|(_, c)| *c > 0)
            .chain(self.sparse.iter().map(|(v, c)| (*v, *c)))
    }

    /// Histogram name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Merges another histogram's samples into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (v, c) in other.iter() {
            self.record_n(v, c);
        }
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (n={})", self.name, self.total)?;
        for (v, c) in self.iter() {
            write!(f, " {v}:{c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_counts_and_mean() {
        let mut h = Histogram::new("h");
        h.record_n(8, 3);
        h.record(16);
        assert_eq!(h.count(8), 3);
        assert_eq!(h.count(16), 1);
        assert_eq!(h.total(), 4);
        assert_eq!(h.mean(), Some(10.0));
    }

    #[test]
    fn histogram_cdf() {
        let mut h = Histogram::new("h");
        for v in [4, 8, 16, 32, 64, 128] {
            h.record(v);
        }
        assert_eq!(h.fraction_at_most(32), Some(4.0 / 6.0));
        assert_eq!(h.fraction_at_most(1), Some(0.0));
        assert_eq!(h.fraction_at_most(128), Some(1.0));
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new("h");
        for v in 1..=100 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), Some(1));
        assert_eq!(h.quantile(0.5), Some(50));
        assert_eq!(h.quantile(0.9), Some(90));
        assert_eq!(h.quantile(1.0), Some(100));
        assert_eq!(Histogram::new("e").quantile(0.5), None);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new("a");
        a.record(1);
        let mut b = Histogram::new("b");
        b.record_n(1, 2);
        b.record(5);
        a.merge(&b);
        assert_eq!(a.count(1), 3);
        assert_eq!(a.count(5), 1);
        assert_eq!(a.total(), 4);
    }

    #[test]
    fn dense_and_sparse_buckets_match_a_map() {
        // 0 once, 255 twice, 256 three times, u64::MAX four times: both
        // edges of the dense array and the far end of the map.
        let samples: Vec<u64> = [0, 255, 256, u64::MAX]
            .into_iter()
            .zip(1..)
            .flat_map(|(v, n)| std::iter::repeat_n(v, n))
            .collect();
        let mut reference = BTreeMap::new();
        for &v in &samples {
            *reference.entry(v).or_insert(0u64) += 1;
        }
        let recorded = |order: &mut dyn Iterator<Item = &u64>| {
            let mut h = Histogram::new("h");
            order.for_each(|&v| h.record(v));
            h
        };
        let forward = recorded(&mut samples.iter());
        assert_eq!(forward, recorded(&mut samples.iter().rev()));
        for split in 0..=samples.len() {
            let (lo, hi) = samples.split_at(split);
            let mut merged = recorded(&mut hi.iter());
            merged.merge(&recorded(&mut lo.iter()));
            assert_eq!(forward, merged, "split at {split}");
        }

        let want: Vec<(u64, u64)> = reference.iter().map(|(v, c)| (*v, *c)).collect();
        assert_eq!(forward.iter().collect::<Vec<_>>(), want);
        for v in [0, 1, 254, 255, 256, 257, u64::MAX - 1, u64::MAX] {
            assert_eq!(forward.count(v), reference.get(&v).copied().unwrap_or(0));
            let below: u64 = reference.range(..=v).map(|(_, c)| c).sum();
            assert_eq!(forward.fraction_at_most(v), Some(below as f64 / 10.0));
        }
        for q in [0.0, 0.1, 0.15, 0.3, 0.31, 0.6, 0.61, 0.9, 1.0] {
            let target = (q * 10.0f64).ceil().max(1.0) as u64;
            let mut seen = 0;
            let want = reference.iter().find_map(|(v, c)| {
                seen += c;
                (seen >= target).then_some(*v)
            });
            assert_eq!(forward.quantile(q), want, "q = {q}");
        }
        assert_eq!(
            forward.to_string(),
            format!("h (n=10) 0:1 255:2 256:3 {}:4", u64::MAX)
        );
    }

    #[test]
    fn empty_histogram_is_none() {
        let h = Histogram::new("h");
        assert_eq!(h.mean(), None);
        assert_eq!(h.fraction_at_most(10), None);
    }
}
