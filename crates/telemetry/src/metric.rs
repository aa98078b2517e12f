//! The three metric instruments: counters, gauges and fixed-bucket
//! histograms. All hot-path recording is a single atomic operation.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// A monotonically increasing event count.
///
/// This is *the* counter implementation of the workspace — the
/// [`Registry`](crate::Registry) shares it behind an `Arc` — so every
/// layer counts the same way.
///
/// Interior mutability keeps increments `&self` (hot paths hold shared
/// handles).
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter starting at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// An instantaneous signed value (queue depths, admitted populations).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A gauge starting at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, value: i64) {
        self.value.store(value, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative).
    #[inline]
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram of `u64` observations (durations in
/// nanoseconds, waits in ticks, scaled scores).
///
/// Buckets are cumulative-style upper bounds fixed at construction: an
/// observation lands in the first bucket whose bound is `>=` the value,
/// or in the implicit overflow bucket past the last bound. Alongside the
/// buckets the histogram tracks count, saturating sum, min and max, so
/// per-phase min/mean/max summaries need no extra machinery. Every
/// recording is a handful of relaxed atomics, so handles are shared as
/// plain `Arc`s.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    /// One slot per bound plus the trailing overflow slot.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// A histogram over the given ascending upper bounds.
    ///
    /// # Panics
    ///
    /// Panics when `bounds` is empty or not strictly ascending.
    pub fn new(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket bound");
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "histogram bounds must strictly ascend");
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// The configured upper bounds (the overflow bucket is implicit).
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        let slot = self.bounds.partition_point(|&bound| bound < value);
        self.buckets[slot].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // Saturate instead of wrapping: a long wall-clock run must never
        // fold its sum back to a small number.
        let _ = self.sum.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |sum| {
            Some(sum.saturating_add(value))
        });
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// A point-in-time copy of all tracked statistics.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 { 0 } else { self.min.load(Ordering::Relaxed) },
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// The frozen statistics of one [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// The configured upper bounds.
    pub bounds: Vec<u64>,
    /// Per-bucket observation counts; the final slot is the overflow
    /// bucket for observations above every bound.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observations (saturating).
    pub sum: u64,
    /// Smallest observation (`0` when empty).
    pub min: u64,
    /// Largest observation (`0` when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// The integer mean observation (`0` when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// The bucket-interpolated `p`-th percentile (`p` in `0..=100`;
    /// `0` when empty).
    ///
    /// Uses the nearest-rank definition to pick the bucket, then
    /// interpolates linearly inside it between the previous bound
    /// (exclusive lower edge) and the bucket's own bound — the overflow
    /// bucket interpolates up to the observed `max`. The estimate is
    /// clamped to `[min, max]`, so exact-at-the-edges percentiles (p0,
    /// p100) always land on real observations. Pure integer math on the
    /// frozen buckets: byte-stable across identical runs.
    pub fn percentile(&self, p: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = p.min(100);
        // Nearest rank: ceil(count * p / 100), clamped to [1, count].
        let rank = (u128::from(self.count) * u128::from(p)).div_ceil(100).max(1);
        let mut cumulative: u128 = 0;
        for (slot, &bucket) in self.buckets.iter().enumerate() {
            let next = cumulative + u128::from(bucket);
            if bucket > 0 && rank <= next {
                let lower = if slot == 0 { 0 } else { self.bounds[slot - 1] };
                let upper = self.bounds.get(slot).copied().unwrap_or(self.max).max(lower);
                let position = rank - cumulative; // in 1..=bucket
                let width = u128::from(upper - lower);
                let estimate = u128::from(lower) + width * position / u128::from(bucket);
                let estimate = u64::try_from(estimate).unwrap_or(u64::MAX);
                return estimate.clamp(self.min, self.max);
            }
            cumulative = next;
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_count() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn gauges_track_instantaneous_values() {
        let g = Gauge::new();
        g.set(3);
        g.add(-5);
        assert_eq!(g.get(), -2);
    }

    #[test]
    fn histogram_zero_lands_in_the_first_bucket() {
        let h = Histogram::new(&[10, 100]);
        h.record(0);
        let snap = h.snapshot();
        assert_eq!(snap.buckets, vec![1, 0, 0]);
        assert_eq!((snap.count, snap.sum, snap.min, snap.max), (1, 0, 0, 0));
    }

    #[test]
    fn histogram_max_value_lands_in_the_overflow_bucket() {
        let h = Histogram::new(&[10, 100]);
        h.record(u64::MAX);
        let snap = h.snapshot();
        assert_eq!(snap.buckets, vec![0, 0, 1]);
        assert_eq!(snap.max, u64::MAX);
    }

    #[test]
    fn histogram_bound_values_are_inclusive() {
        let h = Histogram::new(&[10, 100]);
        h.record(10);
        h.record(11);
        h.record(100);
        assert_eq!(h.snapshot().buckets, vec![1, 2, 0]);
    }

    #[test]
    fn histogram_sum_saturates_instead_of_wrapping() {
        let h = Histogram::new(&[10]);
        h.record(u64::MAX);
        h.record(u64::MAX);
        let snap = h.snapshot();
        assert_eq!(snap.sum, u64::MAX, "sum must saturate");
        assert_eq!(snap.count, 2);
        assert_eq!(snap.mean(), u64::MAX / 2);
    }

    #[test]
    fn empty_histogram_reports_zeroed_extrema() {
        let snap = Histogram::new(&[1]).snapshot();
        assert_eq!((snap.count, snap.sum, snap.min, snap.max, snap.mean()), (0, 0, 0, 0, 0));
    }

    #[test]
    #[should_panic(expected = "strictly ascend")]
    fn unsorted_bounds_are_rejected() {
        Histogram::new(&[10, 10]);
    }

    #[test]
    fn percentiles_interpolate_within_buckets() {
        let h = Histogram::new(&[10, 100, 1000]);
        // 90 observations in (10, 100], 10 in (100, 1000].
        for _ in 0..90 {
            h.record(50);
        }
        for _ in 0..10 {
            h.record(500);
        }
        let snap = h.snapshot();
        // p50 → rank 50, bucket (10, 100], position 50/90.
        assert_eq!(snap.percentile(50), 10 + 90 * 50 / 90);
        // p95 → rank 95 lands in the (100, 1000] bucket; the raw
        // interpolation (550) clamps to the observed max.
        assert_eq!(snap.percentile(95), 500);
        assert_eq!(snap.percentile(100), snap.max);
        assert_eq!(snap.percentile(0), snap.min, "p0 clamps to the smallest observation");
    }

    #[test]
    fn percentiles_clamp_to_observed_extrema() {
        let h = Histogram::new(&[1024]);
        h.record(3);
        h.record(5);
        let snap = h.snapshot();
        // Both land in the huge first bucket; clamping keeps estimates
        // inside [3, 5] instead of interpolating over [0, 1024].
        for p in [1, 50, 99] {
            let estimate = snap.percentile(p);
            assert!((3..=5).contains(&estimate), "p{p} = {estimate} escaped [min, max]");
        }
        assert_eq!(Histogram::new(&[1]).snapshot().percentile(50), 0, "empty → 0");
    }

    #[test]
    fn percentile_of_overflow_bucket_interpolates_to_max() {
        let h = Histogram::new(&[10]);
        h.record(1_000);
        h.record(2_000);
        let snap = h.snapshot();
        assert_eq!(snap.percentile(100), 2_000);
        assert!(snap.percentile(50) >= 10);
        assert!(snap.percentile(50) <= 2_000);
    }
}
