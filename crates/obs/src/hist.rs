//! Fixed-bucket geometric histogram, promoted from the service crate's
//! latency histogram so every crate (and the shared
//! [`MetricsRegistry`](crate::registry::MetricsRegistry)) can use one
//! bucket layout.
//!
//! Bucket `i` (for `i ≥ 1`) covers values in
//! `(FLOOR · 2^((i−1)/4), FLOOR · 2^(i/4)]`; bucket 0 covers
//! `[0, FLOOR]`, and one final bucket absorbs overflow. Quantiles
//! report the *upper bound* of the bucket holding the requested rank,
//! so they never under-estimate.

use std::sync::atomic::{AtomicU64, Ordering};

/// Smallest resolvable value: one bucket boundary sits at 100 ns.
pub const FLOOR: f64 = 1e-7;
/// Sub-buckets per octave; relative quantile error ≤ 2^(1/4) − 1 ≈ 19%.
pub const PER_OCTAVE: f64 = 4.0;
/// Bucket count: covers `FLOOR · 2^(128/4)` ≈ 429 s before overflow.
pub const BUCKETS: usize = 128;

/// The bucket index a value lands in (`BUCKETS` = overflow).
#[must_use]
pub fn bucket_of(value: f64) -> usize {
    if value <= FLOOR {
        return 0;
    }
    // ceil(PER_OCTAVE * log2(v / FLOOR)), nudged down so an exact
    // bucket upper bound stays inside its own bucket despite
    // floating-point rounding in the log.
    let idx = (PER_OCTAVE * (value / FLOOR).log2() - 1e-9).ceil() as usize;
    idx.min(BUCKETS)
}

/// The inclusive upper bound of bucket `i`.
#[must_use]
pub fn upper_bound(i: usize) -> f64 {
    FLOOR * 2.0_f64.powf(i as f64 / PER_OCTAVE)
}

/// Single-writer geometric histogram over non-negative `f64` values.
#[derive(Clone, Debug)]
pub struct GeometricHistogram {
    counts: Vec<u64>,
    overflow: u64,
    total: u64,
    sum: f64,
    max: f64,
}

impl Default for GeometricHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl GeometricHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            overflow: 0,
            total: 0,
            sum: 0.0,
            max: 0.0,
        }
    }

    /// Records one observation (negative values clamp to 0).
    pub fn record(&mut self, value: f64) {
        let v = value.max(0.0);
        let b = bucket_of(v);
        if b >= BUCKETS {
            self.overflow += 1;
        } else {
            self.counts[b] += 1;
        }
        self.total += 1;
        self.sum += v;
        if v > self.max {
            self.max = v;
        }
    }

    /// Number of recorded observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact sum of the recorded values (not bucketized).
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Exact arithmetic mean of the recorded values, 0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// Exact maximum recorded value.
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// The `q`-quantile (`0 < q ≤ 1`) as the upper bound of the bucket
    /// containing the rank-`⌈q·n⌉` observation; 0 when empty, the
    /// exact max for ranks falling in the overflow bucket.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return upper_bound(i).min(self.max.max(FLOOR));
            }
        }
        self.max
    }

    /// The per-bucket counts (length [`BUCKETS`]), without overflow.
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Observations past the last bucket.
    #[must_use]
    pub fn overflow(&self) -> u64 {
        self.overflow
    }
}

/// Lock-free multi-writer variant of [`GeometricHistogram`] used by the
/// registry: bucket counts are relaxed atomic increments, the exact
/// `sum` and `max` are CAS loops over `f64` bit patterns.
#[derive(Debug)]
pub struct AtomicHistogram {
    counts: Vec<AtomicU64>,
    overflow: AtomicU64,
    total: AtomicU64,
    sum_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            counts: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            overflow: AtomicU64::new(0),
            total: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0.0_f64.to_bits()),
            max_bits: AtomicU64::new(0.0_f64.to_bits()),
        }
    }

    /// Records one observation (negative values clamp to 0);
    /// safe to call from any thread.
    pub fn record(&self, value: f64) {
        let v = value.max(0.0);
        let b = bucket_of(v);
        if b >= BUCKETS {
            self.overflow.fetch_add(1, Ordering::Relaxed);
        } else {
            self.counts[b].fetch_add(1, Ordering::Relaxed);
        }
        self.total.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
        let mut cur = self.max_bits.load(Ordering::Relaxed);
        while v > f64::from_bits(cur) {
            match self.max_bits.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// A point-in-time copy as a plain [`GeometricHistogram`].
    /// Concurrent writers may land between field reads; the copy is
    /// internally consistent enough for display (counts never exceed
    /// what was written, quantiles stay monotone).
    #[must_use]
    pub fn snapshot(&self) -> GeometricHistogram {
        GeometricHistogram {
            counts: self
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            overflow: self.overflow.load(Ordering::Relaxed),
            total: self.total.load(Ordering::Relaxed),
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
            max: f64::from_bits(self.max_bits.load(Ordering::Relaxed)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_round_trip() {
        for i in [1usize, 4, 17, 63] {
            let ub = upper_bound(i);
            assert_eq!(bucket_of(ub), i, "ub of bucket {i}");
            assert_eq!(bucket_of(ub * 1.0001), i + 1, "just past ub of bucket {i}");
        }
        assert_eq!(bucket_of(0.0), 0);
        assert_eq!(bucket_of(FLOOR), 0);
        assert_eq!(bucket_of(FLOOR * 0.5), 0);
    }

    #[test]
    fn quantiles_never_underestimate() {
        let mut h = GeometricHistogram::new();
        for v in [10e-6, 20e-6, 30e-6, 40e-6, 50e-6] {
            h.record(v);
        }
        let growth = 2.0_f64.powf(1.0 / PER_OCTAVE);
        let p50 = h.quantile(0.5);
        assert!(p50 >= 30e-6 && p50 <= 30e-6 * growth, "{p50}");
        assert!((h.mean() - 30e-6).abs() < 1e-12);
        assert_eq!(h.max(), 50e-6);
        assert_eq!(h.count(), 5);
    }

    #[test]
    fn tail_quantiles_stay_within_one_bucket_of_the_max() {
        let mut h = GeometricHistogram::new();
        for i in 1..=10 {
            h.record(1e-5 * f64::from(i));
        }
        let growth = 2.0_f64.powf(1.0 / PER_OCTAVE);
        assert!(h.quantile(0.95) >= 100e-6 * 0.999);
        assert!(h.quantile(0.99) <= 100e-6 * growth);
    }

    #[test]
    fn single_value_quantiles_are_tight() {
        let mut h = GeometricHistogram::new();
        h.record(3.3e-4);
        let growth = 2.0_f64.powf(1.0 / PER_OCTAVE);
        for q in [0.01, 0.5, 0.99, 1.0] {
            let v = h.quantile(q);
            assert!((3.3e-4..=3.3e-4 * growth).contains(&v), "q={q}: {v}");
        }
    }

    #[test]
    fn empty_and_overflow() {
        let mut h = GeometricHistogram::new();
        assert_eq!(h.quantile(0.99), 0.0);
        h.record(1e9);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.quantile(0.5), 1e9); // exact max
    }

    #[test]
    fn atomic_matches_plain_under_threads() {
        let atomic = AtomicHistogram::new();
        std::thread::scope(|s| {
            for t in 0..4 {
                let atomic = &atomic;
                s.spawn(move || {
                    for i in 0..1000 {
                        atomic.record(1e-6 * (t * 1000 + i) as f64);
                    }
                });
            }
        });
        let mut plain = GeometricHistogram::new();
        for v in 0..4000 {
            plain.record(1e-6 * v as f64);
        }
        let snap = atomic.snapshot();
        assert_eq!(snap.count(), plain.count());
        assert_eq!(snap.counts(), plain.counts());
        assert_eq!(snap.overflow(), plain.overflow());
        assert!((snap.sum() - plain.sum()).abs() < 1e-9 * plain.sum().max(1.0));
        assert_eq!(snap.max(), plain.max());
        assert_eq!(snap.quantile(0.99), plain.quantile(0.99));
    }
}
