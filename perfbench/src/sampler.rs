//! The one timing harness: batch-timed samples, interleaved across the
//! probes being compared, summarised by order statistics.
//!
//! A probe is a closure that performs `n` operations; the sampler times
//! whole batches (the clock costs about as much as a `malloc`, so single
//! calls are never timed here) and turns each batch into one sample of
//! nanoseconds per operation. Probes that are compared against each other
//! run round-robin — A B C A B C … — so frequency drift and noisy
//! neighbours land on all of them alike.

use crate::trace::Trace;
use std::time::{Duration, Instant};

/// A probe body: runs the operation `n` times.
pub type Batch<'a> = &'a mut dyn FnMut(u64);

/// One named probe with the batch size it is timed at.
pub struct Probe<'a> {
    pub name: &'static str,
    pub ops: u64,
    pub run: Batch<'a>,
}

/// How long a group of probes samples for.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Untimed rounds before sampling (caches, page faults, TLS).
    pub warmup_rounds: usize,
    /// Rounds always taken, even if the time budget is already spent.
    pub min_rounds: usize,
    /// Sampling stops at the first round boundary past this budget.
    pub budget: Duration,
}

impl Plan {
    /// The shortest plan that still yields quartiles (`--smoke`).
    pub const SMOKE: Plan = Plan {
        warmup_rounds: 1,
        min_rounds: 5,
        budget: Duration::ZERO,
    };

    pub fn timed(budget: Duration) -> Plan {
        Plan {
            warmup_rounds: 4,
            min_rounds: 5,
            budget,
        }
    }
}

/// Samples every probe round-robin under `plan`; returns one sample vector
/// (ns per op) per probe, in probe order. Each timed batch is recorded as a
/// span under `parent`.
pub fn interleave(
    trace: &mut Trace,
    parent: u32,
    plan: Plan,
    probes: &mut [Probe<'_>],
) -> Vec<Vec<f64>> {
    for _ in 0..plan.warmup_rounds {
        for p in probes.iter_mut() {
            (p.run)(p.ops);
        }
    }
    let mut out: Vec<Vec<f64>> = probes.iter().map(|_| Vec::new()).collect();
    let started = Instant::now();
    let mut rounds = 0;
    while rounds < plan.min_rounds || started.elapsed() < plan.budget {
        for (p, samples) in probes.iter_mut().zip(out.iter_mut()) {
            let id = trace.begin(p.name, parent);
            (p.run)(p.ops);
            let ns = trace.end(id, p.ops);
            samples.push(ns as f64 / p.ops as f64);
        }
        rounds += 1;
    }
    out
}

/// Order statistics of one sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// Median absolute deviation from the median.
    pub mad: f64,
    pub min: f64,
    pub max: f64,
}

impl Summary {
    /// Interquartile range as a share of the median.
    pub fn iqr_share(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }
}

/// An ascending copy, for several [`percentile_sorted`] reads of one set.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Percentile `p` in `[0, 1]` of an ascending slice, linearly interpolated
/// between the two nearest ranks.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn percentile(samples: &[f64], p: f64) -> f64 {
    percentile_sorted(&sorted(samples), p)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// The value every timing in the benchmark reports: the 2nd percentile of its
/// samples, the level the run reached whenever the host left it alone.
///
/// Interference on a shared host only ever adds time. On the host the bounds
/// were derived on it comes as a second mode about 30 % slower (another
/// tenant on the sibling hyperthread) that lasts from a fraction of a second
/// to more than a whole run. A run's median then lands in either mode (run
/// medians of one binary spread 17 % between their quartiles) and in a bad
/// hour so does its 10th percentile (9 %); the fastest few slices stay in
/// the fast mode (1-3 %). Work per sample is fixed, so no sample can read
/// faster than the code is; the 2nd percentile rather than the minimum, so
/// that one freak reading is not the result.
pub fn quiet(samples: &[f64]) -> f64 {
    percentile(samples, 0.02)
}

pub fn summarize(samples: &[f64]) -> Summary {
    let s = sorted(samples);
    let median = percentile_sorted(&s, 0.5);
    let dev: Vec<f64> = s.iter().map(|x| (x - median).abs()).collect();
    Summary {
        n: s.len(),
        median,
        q1: percentile_sorted(&s, 0.25),
        q3: percentile_sorted(&s, 0.75),
        mad: self::median(&dev),
        min: s[0],
        max: s[s.len() - 1],
    }
}

/// (max − min) / median: how far repeated measurements of one quantity
/// disagree, as a share of the quantity.
pub fn spread(values: &[f64]) -> f64 {
    let s = summarize(values);
    if s.median == 0.0 {
        return if s.max == s.min { 0.0 } else { f64::INFINITY };
    }
    (s.max - s.min) / s.median
}

/// The highest percentile on the reporting ladder that still has at least
/// ten samples beyond it, with its value; `None` below twenty samples, where
/// not even the median qualifies.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    // One sample in `k` lies beyond percentile 1 - 1/k.
    const LADDER: [usize; 7] = [10_000, 1_000, 100, 20, 10, 4, 2];
    let k = LADDER.into_iter().find(|k| samples.len() / k >= 10)?;
    let p = 1.0 - 1.0 / k as f64;
    Some((p, percentile(samples, p)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_one_to_nine() {
        let v: Vec<f64> = (1..=9).rev().map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!(
            (s.n, s.median, s.q1, s.q3, s.min, s.max),
            (9, 5.0, 3.0, 7.0, 1.0, 9.0)
        );
        assert_eq!(s.mad, 2.0);
        assert!((s.iqr_share() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        assert_eq!(percentile(&[10.0, 20.0], 0.5), 15.0);
        assert_eq!(percentile(&[10.0, 20.0, 30.0, 40.0], 0.25), 17.5);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_resists_one_outlier() {
        let mut v = vec![36.0; 30];
        v.push(4_000.0);
        let s = summarize(&v);
        assert_eq!(s.median, 36.0);
        assert_eq!(s.mad, 0.0);
    }

    #[test]
    fn quiet_ignores_a_slow_mode_that_moves_the_median() {
        let run = |slow: usize| -> Vec<f64> {
            (0..100)
                .map(|i| {
                    if i < slow {
                        47.0 + (i % 3) as f64
                    } else {
                        37.0 + (i % 5) as f64 * 0.1
                    }
                })
                .collect()
        };
        let (calm, busy) = (run(10), run(70));
        assert!(median(&busy) > median(&calm) * 1.2);
        assert!((quiet(&busy) - quiet(&calm)).abs() < 0.2);
    }

    #[test]
    fn spread_is_range_over_median() {
        assert_eq!(spread(&[100.0, 104.0, 98.0]), 0.06);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
        assert_eq!(spread(&[0.0, 0.0, 1.0]), f64::INFINITY);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let of = |n: usize| tail(&vec![1.0; n]).map(|(p, _)| p);
        assert_eq!(of(19), None);
        assert_eq!(of(20), Some(0.5));
        assert_eq!(of(40), Some(0.75));
        assert_eq!(of(100), Some(0.9));
        assert_eq!(of(200), Some(0.95));
        assert_eq!(of(1_000), Some(0.99));
        assert_eq!(of(10_000), Some(0.999));
        assert_eq!(of(100_000), Some(0.9999));
    }

    #[test]
    fn interleave_alternates_probes_and_records_spans() {
        let order = std::cell::RefCell::new(Vec::new());
        let mut a = |n: u64| order.borrow_mut().push(('a', n));
        let mut b = |n: u64| order.borrow_mut().push(('b', n));
        let mut trace = Trace::with_capacity(64);
        let root = trace.begin("group", Trace::ROOT);
        let out = interleave(
            &mut trace,
            root,
            Plan {
                warmup_rounds: 1,
                min_rounds: 3,
                budget: Duration::ZERO,
            },
            &mut [
                Probe {
                    name: "a",
                    ops: 2,
                    run: &mut a,
                },
                Probe {
                    name: "b",
                    ops: 5,
                    run: &mut b,
                },
            ],
        );
        trace.end(root, 0);
        assert_eq!(out.len(), 2);
        assert_eq!((out[0].len(), out[1].len()), (3, 3));
        let seen = order.borrow();
        assert_eq!(seen.len(), 8);
        assert!(seen.chunks(2).all(|c| c == [('a', 2), ('b', 5)]));
        // One group span plus 3 rounds x 2 probes, all children of the group.
        assert_eq!(trace.spans().len(), 7);
        assert!(trace.spans()[1..]
            .iter()
            .all(|s| s.parent == root && s.end_ns >= s.start_ns));
    }
}
