//! Lock-free telemetry primitives shared by every instrumented crate.
//!
//! Compiled only under the `stats` cargo feature. All counters use
//! `Relaxed` ordering: telemetry observes *how often* paths run, never
//! *orders* them — a stats read racing a stats write may be off by a few
//! events, which is exactly the tolerance a monotonic counter snapshot
//! needs (see DESIGN.md §9 for the full rationale).

use core::sync::atomic::{AtomicU64, Ordering};

/// A relaxed, monotonic event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter (const so counters can live in statics).
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one event.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n` events.
    #[inline]
    pub fn add(&self, n: u64) {
        if n != 0 {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Buckets of the CAS-retry histograms: 0, 1, 2–3, 4–7, 8–15, 16–31,
/// 32–63, 64+.
pub const RETRY_BUCKETS: usize = 8;

/// A power-of-two-bucket histogram of per-operation counts.
///
/// `record(n)` lands in bucket `0` for `n == 0`, bucket
/// `1 + floor(log2 n)` otherwise, saturating at the last bucket — so the
/// retry histograms read "operations that needed 0 / 1 / 2–3 / ... CAS
/// retries".
#[derive(Debug)]
pub struct Histogram<const N: usize> {
    buckets: [AtomicU64; N],
}

impl<const N: usize> Default for Histogram<N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const N: usize> Histogram<N> {
    /// A zeroed histogram.
    pub const fn new() -> Self {
        // `AtomicU64` is not Copy; build the array element by element.
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram { buckets: [ZERO; N] }
    }

    /// Index of the bucket `n` falls in.
    #[inline]
    pub fn bucket_of(n: u64) -> usize {
        if n == 0 {
            0
        } else {
            ((64 - n.leading_zeros()) as usize).min(N - 1)
        }
    }

    /// Records one sample of value `n`.
    #[inline]
    pub fn record(&self, n: u64) {
        self.buckets[Self::bucket_of(n)].fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of all bucket counts.
    pub fn snapshot(&self) -> [u64; N] {
        core::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Total samples recorded.
    pub fn total(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }
}

/// Buckets of the per-operation latency histograms. Bucket `i` covers
/// `[2^(i-1), 2^i)` nanoseconds (bucket 0 is "0 ns", i.e. below clock
/// resolution); 32 buckets reach `2^31` ns ≈ 2.1 s before saturating,
/// which comfortably brackets everything from a TLS-hit malloc (~20 ns)
/// to a full trim pass under OOM backoff.
pub const TIME_BUCKETS: usize = 32;

/// Process-relative monotonic nanoseconds.
///
/// All timestamps in the telemetry and profiling layers come from this
/// one clock so latencies, event times and sample ages are directly
/// comparable. Backed by `Instant` (CLOCK_MONOTONIC on Linux) against a
/// lazily pinned epoch; the epoch is pinned once per process, so
/// readings are wall-clock-shift immune and strictly non-decreasing per
/// thread.
#[inline]
pub fn monotonic_nanos() -> u64 {
    use std::sync::OnceLock;
    use std::time::Instant;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    Instant::now().duration_since(epoch).as_nanos() as u64
}

/// A latency histogram: power-of-two-nanosecond buckets plus a running
/// sum, so snapshots can report both percentile estimates and the mean
/// (and OpenMetrics can render `_sum`/`_count`).
///
/// Recording is two relaxed `fetch_add`s — no CAS, no locks — so it is
/// safe on every allocator path including TLS teardown.
#[derive(Debug, Default)]
pub struct LatencyHist {
    hist: Histogram<TIME_BUCKETS>,
    sum: Counter,
}

impl LatencyHist {
    /// A zeroed histogram.
    pub const fn new() -> Self {
        LatencyHist { hist: Histogram::new(), sum: Counter::new() }
    }

    /// Records one operation that took `nanos` nanoseconds.
    #[inline]
    pub fn record(&self, nanos: u64) {
        self.hist.record(nanos);
        self.sum.add(nanos);
    }

    /// Records the elapsed time since `start` (a [`monotonic_nanos`]
    /// reading taken at operation entry).
    #[inline]
    pub fn record_since(&self, start: u64) {
        self.record(monotonic_nanos().saturating_sub(start));
    }

    /// Consistent-enough snapshot of buckets and sum (relaxed reads; a
    /// racing record may be visible in one but not the other, which a
    /// monotonic report tolerates).
    pub fn snapshot(&self) -> LatencySnapshot {
        LatencySnapshot { buckets: self.hist.snapshot(), sum_nanos: self.sum.get() }
    }
}

/// Point-in-time copy of a [`LatencyHist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencySnapshot {
    /// Power-of-two-ns bucket counts (see [`TIME_BUCKETS`]).
    pub buckets: [u64; TIME_BUCKETS],
    /// Sum of all recorded durations in nanoseconds.
    pub sum_nanos: u64,
}

impl Default for LatencySnapshot {
    fn default() -> Self {
        LatencySnapshot { buckets: [0; TIME_BUCKETS], sum_nanos: 0 }
    }
}

impl LatencySnapshot {
    /// Total operations recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Upper bound (inclusive, in ns) of bucket `i`; the last bucket is
    /// open-ended and reports its lower bound (a saturation marker).
    pub fn bucket_upper_nanos(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i == TIME_BUCKETS - 1 {
            1u64 << (i - 1)
        } else {
            (1u64 << i) - 1
        }
    }

    /// Estimated `q`-quantile in nanoseconds (`q` in `[0, 1]`), as the
    /// upper bound of the first bucket at which the cumulative count
    /// reaches `ceil(q * total)`. Conservative: the true quantile is at
    /// most one power of two below the estimate. Returns 0 for an empty
    /// histogram.
    pub fn percentile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_upper_nanos(i);
            }
        }
        Self::bucket_upper_nanos(TIME_BUCKETS - 1)
    }

    /// Mean duration in nanoseconds (0 if empty).
    pub fn mean_nanos(&self) -> u64 {
        let n = self.count();
        if n == 0 { 0 } else { self.sum_nanos / n }
    }

    /// Merges another snapshot into this one (for cross-histogram
    /// aggregates like "all malloc paths combined").
    pub fn merge(&mut self, other: &LatencySnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
        self.sum_nanos += other.sum_nanos;
    }
}

/// Label of bucket `i` of an `N`-bucket histogram ("0", "1", "2-3", ...,
/// "64+") for report rendering.
pub fn bucket_label(i: usize, n: usize) -> String {
    if i == 0 {
        "0".into()
    } else if i == n - 1 {
        format!("{}+", 1u64 << (i - 1))
    } else if i == 1 {
        "1".into()
    } else {
        format!("{}-{}", 1u64 << (i - 1), (1u64 << i) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_adds() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        c.add(0);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn histogram_buckets_are_power_of_two() {
        assert_eq!(Histogram::<8>::bucket_of(0), 0);
        assert_eq!(Histogram::<8>::bucket_of(1), 1);
        assert_eq!(Histogram::<8>::bucket_of(2), 2);
        assert_eq!(Histogram::<8>::bucket_of(3), 2);
        assert_eq!(Histogram::<8>::bucket_of(4), 3);
        assert_eq!(Histogram::<8>::bucket_of(63), 6);
        assert_eq!(Histogram::<8>::bucket_of(64), 7);
        assert_eq!(Histogram::<8>::bucket_of(u64::MAX), 7);
    }

    #[test]
    fn histogram_records_and_totals() {
        let h: Histogram<8> = Histogram::new();
        h.record(0);
        h.record(0);
        h.record(3);
        h.record(100);
        let s = h.snapshot();
        assert_eq!(s[0], 2);
        assert_eq!(s[2], 1);
        assert_eq!(s[7], 1);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn bucket_labels_render() {
        assert_eq!(bucket_label(0, 8), "0");
        assert_eq!(bucket_label(1, 8), "1");
        assert_eq!(bucket_label(2, 8), "2-3");
        assert_eq!(bucket_label(6, 8), "32-63");
        assert_eq!(bucket_label(7, 8), "64+");
    }

    #[test]
    fn monotonic_nanos_is_monotonic() {
        let a = monotonic_nanos();
        let b = monotonic_nanos();
        assert!(b >= a);
    }

    #[test]
    fn latency_bucket_bounds() {
        assert_eq!(LatencySnapshot::bucket_upper_nanos(0), 0);
        assert_eq!(LatencySnapshot::bucket_upper_nanos(1), 1);
        assert_eq!(LatencySnapshot::bucket_upper_nanos(2), 3);
        assert_eq!(LatencySnapshot::bucket_upper_nanos(10), 1023);
        // Last bucket is open-ended and labels its lower bound.
        assert_eq!(
            LatencySnapshot::bucket_upper_nanos(TIME_BUCKETS - 1),
            1u64 << (TIME_BUCKETS - 2)
        );
    }

    #[test]
    fn latency_percentiles_from_known_distribution() {
        let h = LatencyHist::new();
        // 90 ops at ~100 ns (bucket 7: 64-127), 9 at ~1000 ns
        // (bucket 10: 512-1023), 1 at ~1e6 ns (bucket 20).
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..9 {
            h.record(1000);
        }
        h.record(1_000_000);
        let s = h.snapshot();
        assert_eq!(s.count(), 100);
        assert_eq!(s.sum_nanos, 90 * 100 + 9 * 1000 + 1_000_000);
        assert_eq!(s.percentile(0.50), 127);
        assert_eq!(s.percentile(0.90), 127);
        assert_eq!(s.percentile(0.99), 1023);
        assert_eq!(s.percentile(0.999), (1u64 << 20) - 1);
        assert_eq!(s.mean_nanos(), s.sum_nanos / 100);
    }

    #[test]
    fn latency_percentile_edge_cases() {
        let empty = LatencySnapshot::default();
        assert_eq!(empty.percentile(0.99), 0);
        assert_eq!(empty.mean_nanos(), 0);

        let h = LatencyHist::new();
        h.record(7);
        let s = h.snapshot();
        // A single sample is every percentile.
        assert_eq!(s.percentile(0.0), 7);
        assert_eq!(s.percentile(0.5), 7);
        assert_eq!(s.percentile(1.0), 7);
    }

    #[test]
    fn latency_merge_accumulates() {
        let a = LatencyHist::new();
        let b = LatencyHist::new();
        a.record(10);
        b.record(10_000);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count(), 2);
        assert_eq!(m.sum_nanos, 10_010);
    }

    #[test]
    fn record_since_measures_forward_time() {
        let h = LatencyHist::new();
        let t0 = monotonic_nanos();
        h.record_since(t0);
        let s = h.snapshot();
        assert_eq!(s.count(), 1);
        // Can't assert much about magnitude, but it must not wrap.
        assert!(s.sum_nanos < 1_000_000_000, "sub-second elapsed expected");
    }

    #[test]
    fn concurrent_counting_is_exact() {
        let c = std::sync::Arc::new(Counter::new());
        let mut hs = Vec::new();
        for _ in 0..4 {
            let c = std::sync::Arc::clone(&c);
            hs.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    c.inc();
                }
            }));
        }
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 40_000);
    }
}
