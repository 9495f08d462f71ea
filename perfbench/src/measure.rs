//! One run of one workload: the untraced run that yields the end-to-end
//! metrics, and the traced run that yields the per-layer ledger.

use crate::json::Value;
use crate::probes::{self, BatteryCfg};
use crate::sampler::{percentile, percentile_sorted, quiet, sorted, summarize, tail};
use crate::trace::{Trace, Traced};
use crate::workloads::{run, Budget, Outcome, RunCfg, Tally, Workload};
use lfmalloc::{Config, LfMalloc};
use malloc_api::{AllocStats, RawMalloc};
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug)]
pub struct Opts {
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// Two timed slices of a sixteenth the size, one set-up pass, probes at
    /// minimum batch: checks names and plumbing, measures nothing.
    pub smoke: bool,
}

/// How many times an untraced run sets up: once itself, the other times in
/// child processes that stop before their first timed slice, half of them
/// before its timed slices and half after, so that one slow spell of the
/// host does not cover them all. `setup_s` is their quiet level.
const SETUPS: usize = 8;
const WARMUP_SLICES: usize = 4;

pub struct Measured {
    pub tally: Tally,
    pub metrics: Vec<(&'static str, f64)>,
    /// Sample counts and distribution of the run, for the record.
    pub detail: Value,
    pub trace: Option<Trace>,
}

struct Pass {
    out: Outcome,
    stats: AllocStats,
    hyperblocks: usize,
}

/// Constructs the allocator for `w` and runs it once; construction is inside
/// the set-up time.
fn pass(w: Workload, o: &Opts, budget: Budget, traced: bool) -> Pass {
    let cfg = RunCfg {
        seed: o.seed,
        warmup_slices: if o.smoke { 1 } else { WARMUP_SLICES },
        budget,
        slice_ops: if o.smoke {
            w.slice_ops() / 16
        } else {
            w.slice_ops()
        },
        traced,
    };
    let started = Instant::now();
    let a = LfMalloc::with_config(Config::with_heaps(w.threads()));
    let out = if traced {
        run(w, &Traced(&a), started, &cfg)
    } else {
        run(w, &a, started, &cfg)
    };
    // The trait method by name: a `stats`-feature build gives `LfMalloc` an
    // inherent `stats` that returns telemetry instead.
    Pass {
        out,
        stats: RawMalloc::stats(&a),
        hyperblocks: a.hyperblock_count(),
    }
}

fn timed_budget(o: &Opts, share: f64) -> Budget {
    if o.smoke {
        Budget::Slices(2)
    } else {
        Budget::Time(Duration::from_secs_f64(o.seconds * share))
    }
}

/// Peak resident set of this process so far, from `/proc/self/status`.
fn vm_hwm_kib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse().ok()
        })
        .unwrap_or(f64::NAN)
}

fn distribution(samples: &[f64]) -> Value {
    let s = summarize(samples);
    let mut pairs = vec![
        ("samples", Value::from(s.n as u64)),
        ("quiet", Value::from(quiet(samples))),
        ("median", Value::from(s.median)),
        ("q1", Value::from(s.q1)),
        ("q3", Value::from(s.q3)),
        ("mad", Value::from(s.mad)),
        ("min", Value::from(s.min)),
        ("max", Value::from(s.max)),
    ];
    if let Some((p, v)) = tail(samples) {
        pairs.push(("tail_percentile", Value::from(p)));
        pairs.push(("tail", Value::from(v)));
    }
    Value::obj(pairs)
}

/// Set-up alone: constructs the allocator, populates, warms up, and stops at
/// what would be the first timed slice. Run in a process of its own, so each
/// set-up starts cold and leaves nothing in the measuring run's peak RSS.
pub fn setup_only(w: Workload, o: &Opts) -> (f64, Tally) {
    let p = pass(w, o, Budget::Slices(0), false);
    (p.out.setup_s, p.out.tally)
}

/// The untraced run: every end-to-end metric of `w`. `setups_elsewhere(n)`
/// runs [`setup_only`] in `n` fresh processes and returns what they reported.
pub fn end_to_end(
    w: Workload,
    o: &Opts,
    setups_elsewhere: &mut dyn FnMut(usize) -> Result<Vec<(f64, Tally)>, String>,
) -> Result<Measured, String> {
    let others = if o.smoke { 0 } else { SETUPS - 1 };
    let mut elsewhere = setups_elsewhere(others / 2)?;
    let p = pass(w, o, timed_budget(o, 1.0), false);
    elsewhere.extend(setups_elsewhere(others - others / 2)?);
    let mut tally = p.out.tally;
    let mut setups = vec![p.out.setup_s];
    for (setup_s, t) in elsewhere {
        tally.add(t);
        setups.push(setup_s);
    }
    Ok(Measured {
        tally,
        metrics: vec![
            ("op_ns", quiet(&p.out.samples)),
            ("peak_os_bytes", p.stats.peak_bytes as f64),
            ("peak_rss_kib", vm_hwm_kib()),
            ("setup_s", quiet(&setups)),
        ],
        detail: Value::obj([
            ("op_ns", distribution(&p.out.samples)),
            (
                "setup_s_each",
                Value::Arr(setups.into_iter().map(Value::from).collect()),
            ),
            ("os_allocs", Value::from(p.stats.os_allocs as u64)),
            ("os_frees", Value::from(p.stats.os_frees as u64)),
            ("hyperblocks", Value::from(p.hyperblocks as u64)),
        ]),
        trace: None,
    })
}

/// The traced run: the probe battery, three short untraced rounds of `w` for
/// the harness's own noise, then `w` with one call in 256 wrapped in a span.
/// Yields every per-layer metric except `observer.stats_pair8_ratio`, which
/// needs a second build and is added by the caller.
pub fn per_layer(w: Workload, o: &Opts) -> Measured {
    let mut tally = Tally::default();
    let mut trace = Trace::with_capacity(1 << 16);
    let battery = BatteryCfg {
        seed: o.seed,
        budget: Duration::from_secs_f64(o.seconds * 0.45),
        smoke: o.smoke,
    };
    let mut metrics = probes::battery(&mut trace, &battery, &mut tally);

    let mut untraced = Vec::new();
    let mut rounds = Vec::new();
    for _ in 0..3 {
        let p = pass(w, o, timed_budget(o, 0.08), false);
        tally.add(p.out.tally);
        rounds.push(quiet(&p.out.samples));
        untraced.extend(p.out.samples);
    }
    let p = pass(w, o, timed_budget(o, 0.30), true);
    tally.add(p.out.tally);
    if let Some(t) = p.out.trace {
        trace.absorb(t, 0, Trace::ROOT);
    }

    // A call span holds one clock read besides the call.
    let clock = metrics
        .iter()
        .find(|(n, _)| *n == "yardstick.clock_ns")
        .map_or(0.0, |(_, v)| *v);
    let (mallocs, frees) = (
        sorted(&trace.durations("malloc_call")),
        sorted(&trace.durations("free_call")),
    );
    let net = |calls: &[f64], p: f64| {
        if calls.is_empty() {
            f64::NAN
        } else {
            percentile_sorted(calls, p) - clock
        }
    };
    let of_rounds = summarize(&rounds);
    metrics.extend([
        ("source.os_allocs", p.stats.os_allocs as f64),
        ("source.os_frees", p.stats.os_frees as f64),
        ("pool.hyperblocks", p.hyperblocks as f64),
        ("instance.malloc_call_ns_p50", net(&mallocs, 0.5)),
        ("instance.malloc_call_ns_p99", net(&mallocs, 0.99)),
        ("instance.free_call_ns_p50", net(&frees, 0.5)),
        ("instance.free_call_ns_p99", net(&frees, 0.99)),
        ("harness.op_ns_p90", percentile(&untraced, 0.9)),
        ("harness.round_spread", of_rounds.max / of_rounds.min),
        (
            "harness.trace_overhead_ratio",
            quiet(&p.out.samples) / of_rounds.median,
        ),
    ]);
    Measured {
        tally,
        metrics,
        detail: Value::obj([
            ("untraced_op_ns", distribution(&untraced)),
            ("traced_op_ns", distribution(&p.out.samples)),
            (
                "round_op_ns",
                Value::Arr(rounds.iter().copied().map(Value::from).collect()),
            ),
            ("malloc_call_samples", Value::from(mallocs.len() as u64)),
            ("free_call_samples", Value::from(frees.len() as u64)),
            ("spans", Value::from(trace.spans().len() as u64)),
            ("spans_dropped", Value::from(trace.dropped)),
        ]),
        trace: Some(trace),
    }
}
