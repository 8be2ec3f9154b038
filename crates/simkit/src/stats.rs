//! Measurement infrastructure: counters and fixed-bucket histograms.
//!
//! Every report a simulator in this repository prints is assembled from
//! these types, so they favour exactness (integer counts and sums) over
//! speed tricks.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A monotonically increasing event counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counter(u64);

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Counter(0)
    }

    /// Adds one.
    #[inline]
    pub fn incr(&mut self) {
        self.0 += 1;
    }

    /// Adds `n` (saturating).
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 = self.0.saturating_add(n);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A histogram over `u64` values with fixed-width buckets.
///
/// Used for erase-count distributions (wear levelling) and latency spreads.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    bucket_width: u64,
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    max_seen: u64,
}

impl Histogram {
    /// Creates a histogram whose bucket `i` covers
    /// `[i*bucket_width, (i+1)*bucket_width)`.
    ///
    /// # Panics
    /// Panics if `bucket_width` is zero.
    pub fn new(bucket_width: u64) -> Self {
        assert!(bucket_width > 0, "bucket width must be positive");
        Histogram {
            bucket_width,
            buckets: Vec::new(),
            count: 0,
            sum: 0,
            max_seen: 0,
        }
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        let idx = (v / self.bucket_width) as usize;
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.max_seen = self.max_seen.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of recorded values, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max_seen
    }

    /// The smallest value `x` such that at least `q` (0..=1) of recorded
    /// values are `< x + bucket_width` — i.e. the upper edge of the quantile
    /// bucket. Returns `None` if empty or `q` is out of range.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some((i as u64 + 1) * self.bucket_width);
            }
        }
        Some(self.buckets.len() as u64 * self.bucket_width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Histogram {
        /// Iterates `(bucket_lower_bound, count)` over non-empty buckets.
        pub fn iter_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
            self.buckets
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(move |(i, &c)| (i as u64 * self.bucket_width, c))
        }
    }

    #[test]
    fn counter_basics() {
        let mut c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.add(u64::MAX);
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new(10);
        for v in 0..100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.mean(), Some(49.5));
        assert_eq!(h.max(), 99);
        assert_eq!(h.quantile(0.5), Some(50));
        assert_eq!(h.quantile(1.0), Some(100));
        assert_eq!(h.quantile(0.0), Some(10));
        assert_eq!(h.quantile(2.0), None);
    }

    #[test]
    fn histogram_bucket_iteration() {
        let mut h = Histogram::new(5);
        h.record(1);
        h.record(2);
        h.record(17);
        let buckets: Vec<_> = h.iter_buckets().collect();
        assert_eq!(buckets, vec![(0, 2), (15, 1)]);
    }

    #[test]
    #[should_panic(expected = "bucket width")]
    fn histogram_rejects_zero_width() {
        let _ = Histogram::new(0);
    }
}
