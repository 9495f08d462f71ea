//! The shadow-heap differential suite.
//!
//! The same generated traces replay against every allocator in the
//! workspace (lfmalloc, hardened lfmalloc, hoard, ptmalloc, dlheap)
//! under the content-checking oracle; any violation localizes a bug to
//! one allocator. The failpoint-gated module at the bottom proves the
//! pipeline end to end: a planted double-hand-out bug in lfmalloc is
//! caught by the oracle, auto-shrunk to a tiny trace, and replays to
//! the same violation deterministically.
//!
//! Failing seeds always print via `testkit::for_each_seed`, and any
//! failing generated trace can be serialized with `Trace::to_string`
//! and checked into `tests/corpus/` (see EXPERIMENTS.md).

use lfmalloc_repro::prelude::*;
use malloc_api::testkit::for_each_seed;
use oracle::{all_subjects, replay, Trace};
use std::sync::Arc;

const SEEDS: [u64; 5] = [0x11, 0x2002, 0x3_0003, 0x44, 0xDEAD_BEEF];

/// With no bug planted, 5 subjects x 5 seeds must replay with zero
/// oracle violations and clean audits — the acceptance bar for the
/// whole differential harness.
#[test]
fn differential_suite_is_clean_across_subjects_and_seeds() {
    for_each_seed("differential suite", &SEEDS, |seed| {
        let trace = Trace::generate(seed, 4, 500);
        for s in all_subjects() {
            let out = s.replay(&trace);
            assert!(
                out.is_clean(),
                "{} violated the heap contract: {:?}",
                s.name(),
                out.violations
            );
            assert_eq!(out.executed_ops, 500, "{}", s.name());
            assert_ne!(s.audit_clean(), Some(false), "{} failed its audit", s.name());
        }
    });
}

/// The oracle itself must be safe to hammer from many threads: all
/// checks stay silent under a legitimate concurrent workload with
/// cross-thread (remote) frees.
#[test]
fn concurrent_oracle_churn_with_remote_frees() {
    #[cfg(feature = "failpoints")]
    let _quiet = malloc_api::failpoints::scenario(0); // no sites armed

    let oracle = Arc::new(oracle::OracleMalloc::new(LfMalloc::new_default()));
    let threads = 4;
    let per_thread = 2_000usize;
    let (txs, rxs): (Vec<_>, Vec<_>) =
        (0..threads).map(|_| std::sync::mpsc::channel::<usize>()).unzip();
    let txs = Arc::new(txs);
    std::thread::scope(|scope| {
        for (t, rx) in rxs.into_iter().enumerate() {
            let oracle = Arc::clone(&oracle);
            let txs = Arc::clone(&txs);
            scope.spawn(move || {
                let mut local = Vec::new();
                for i in 0..per_thread {
                    let size = 8 + (i * 61 + t * 13) % 3000;
                    let p = unsafe { oracle.malloc(size) };
                    assert!(!p.is_null());
                    if i % 3 == 0 {
                        // Hand the block to the next thread to free.
                        txs[(t + 1) % threads].send(p as usize).unwrap();
                    } else {
                        local.push(p);
                    }
                    if local.len() > 32 {
                        unsafe { oracle.free(local.swap_remove(i % 32)) };
                    }
                    while let Ok(remote) = rx.try_recv() {
                        unsafe { oracle.free(remote as *mut u8) };
                    }
                }
                drop(txs);
                for p in local {
                    unsafe { oracle.free(p) };
                }
                while let Ok(remote) = rx.recv() {
                    unsafe { oracle.free(remote as *mut u8) };
                }
            });
        }
        drop(txs);
    });
    assert_eq!(oracle.violation_count(), 0);
    assert_eq!(oracle.verify_all(), 0);
    assert_eq!(oracle.live_blocks(), 0);
    assert!(oracle.inner().audit().is_clean());
}

/// A recorded workload run survives serialize -> parse -> replay, and
/// the replay is clean on a *different* allocator than it was recorded
/// on (the differential property the trace format exists for).
#[test]
fn recorded_trace_round_trips_through_text() {
    // The recording only: a sibling test's armed plan would fail its
    // mallocs, and the replays below take the scenario lock themselves.
    let (_, trace) = {
        #[cfg(feature = "failpoints")]
        let _quiet = malloc_api::failpoints::scenario(0);
        workloads::record::threadtest_recorded(Arc::new(LfMalloc::new_default()), 2, 3, 150)
    };
    let text = trace.to_string();
    let parsed = Trace::parse(&text).expect("recorded trace must parse back");
    assert_eq!(trace, parsed);
    for s in all_subjects() {
        let out = s.replay(&parsed);
        assert!(out.is_clean(), "{}: {:?}", s.name(), out.violations);
    }
}

/// Oracle-backed realloc content preservation on every allocator:
/// min(old, new) bytes survive shrinks, in-place growth, and
/// cross-size-class moves. The oracle verifies the pattern internally;
/// any loss panics via Mode::Panic.
#[test]
fn realloc_preserves_contents_on_all_subjects() {
    #[cfg(feature = "failpoints")]
    let _quiet = malloc_api::failpoints::scenario(0);

    for s in all_subjects() {
        let o = oracle::OracleMalloc::new(s.as_raw());
        unsafe {
            for (old, new) in
                [(64, 24), (40, 40), (24, 25), (100, 5_000), (5_000, 96), (300, 100_000), (100_000, 512)]
            {
                let p = o.malloc(old);
                assert!(!p.is_null(), "{}", s.name());
                let q = o.realloc(p, old, new);
                assert!(!q.is_null(), "{}", s.name());
                o.free(q);
            }
        }
        assert_eq!(o.violation_count(), 0, "{}", s.name());
        assert_eq!(o.live_blocks(), 0, "{}", s.name());
    }
}

/// Oracle-backed calloc contract on every allocator: zeroing of every
/// shape (verified byte-by-byte by the wrapper) and a null return on
/// any overflowing multiply.
#[test]
fn calloc_contract_on_all_subjects() {
    #[cfg(feature = "failpoints")]
    let _quiet = malloc_api::failpoints::scenario(0);

    for s in all_subjects() {
        let o = oracle::OracleMalloc::new(s.as_raw());
        unsafe {
            for (count, size) in [(1, 1), (7, 24), (100, 10), (1, 4096), (13, 1000), (1, 1 << 20)] {
                let p = o.calloc(count, size);
                assert!(!p.is_null(), "{} calloc({count}, {size})", s.name());
                o.free(p);
            }
            for (count, size) in [(usize::MAX, 2), (2, usize::MAX), (usize::MAX / 2 + 1, 2)] {
                assert!(o.calloc(count, size).is_null(), "{} must reject overflow", s.name());
            }
        }
        assert_eq!(o.violation_count(), 0, "{}", s.name());
    }
}

/// Replay determinism without fault injection: identical outcomes on
/// repeated runs against fresh instances.
#[test]
fn replay_is_deterministic_across_runs() {
    for_each_seed("replay determinism", &[0xA, 0xB], |seed| {
        let trace = Trace::generate(seed, 3, 300);
        let outs: Vec<_> =
            (0..3).map(|_| replay(&LfMalloc::new_default(), &trace)).collect();
        for o in &outs {
            assert!(o.is_clean(), "{:?}", o.violations);
            assert_eq!(o.executed_ops, outs[0].executed_ops);
            assert_eq!(o.drained, outs[0].drained);
        }
    });
}

/// Record mode keeps working under the oracle when the caller, not the
/// oracle, owns block contents (fill checks off) — exercised by the
/// recorded larson run with its remote-free handoff.
#[test]
fn recorded_larson_replays_on_every_subject() {
    // As above: the scenario lock around the recording alone.
    let (_, trace) = {
        #[cfg(feature = "failpoints")]
        let _quiet = malloc_api::failpoints::scenario(0);
        workloads::record::larson_recorded(Arc::new(LfMalloc::new_default()), 2, 48, 150, 0x1A)
    };
    for s in all_subjects() {
        let out = s.replay(&trace);
        assert!(out.is_clean(), "{}: {:?}", s.name(), out.violations);
        assert_ne!(s.audit_clean(), Some(false), "{}", s.name());
    }
}

/// The end-to-end acceptance pipeline for the planted bug: catch,
/// shrink, deterministic replay. Requires `--features failpoints`.
#[cfg(feature = "failpoints")]
mod planted_bug {
    use super::*;
    use oracle::{shrink, subjects::replay_named, Expectation, FpActionSpec, FpPlan, FpTriggerSpec, Violation};

    /// A seed whose every-7th `malloc_small` finds, at least once, a
    /// request of its predecessor's class with that block still live —
    /// about every second seed; which ones depends on the size-class
    /// table (0x5EED was one while classes included a prefix). Where the
    /// heap lands is the kernel's choice on each replay, so step 3
    /// compares pointers by their offset in their 16 KiB frame.
    const SEED: u64 = 0x5EEC;

    /// A trace whose failpoint plan makes lfmalloc re-hand-out the
    /// previous same-class small block on every 7th `malloc_small`.
    fn bugged_trace(seed: u64) -> Trace {
        let mut t = Trace::generate(seed, 3, 400);
        t.allocator = "lfmalloc".into();
        t.failpoints.push(FpPlan {
            site: "alloc.double_handout".into(),
            action: FpActionSpec::Retry,
            trigger: FpTriggerSpec::Nth(7),
            budget: None,
        });
        t
    }

    fn is_double_handout(v: &Violation) -> bool {
        matches!(v, Violation::DoubleHandOut { .. })
    }

    #[test]
    fn planted_double_handout_is_caught_shrunk_and_replayed() {
        // 1. Caught: the oracle sees the duplicate before any write.
        let trace = bugged_trace(SEED);
        let (out, _) = replay_named("lfmalloc", &trace);
        assert!(
            out.violations.iter().any(is_double_handout),
            "planted bug must be caught; saw {:?}",
            out.violations
        );

        // 2. Shrunk: delta debugging brings the repro to <= 50 ops.
        let small = shrink(&trace, |cand| {
            replay_named("lfmalloc", cand).0.violations.iter().any(is_double_handout)
        });
        assert!(
            small.ops.len() <= 50,
            "shrunk repro still has {} ops:\n{small}",
            small.ops.len()
        );
        assert_eq!(small.expect, Expectation::Violation);

        // 3. Deterministic: three consecutive replays of the minimized
        //    trace yield the identical first violation, frame-relative.
        let runs: Vec<_> = (0..3).map(|_| replay_named("lfmalloc", &small).0).collect();
        let first = |r: &oracle::ReplayOutcome| r.violations[0].in_frame(lfmalloc::config::SB_SIZE);
        for r in &runs {
            assert!(!r.violations.is_empty(), "minimized trace must still fail");
            assert!(r.failpoints_armed);
            assert_eq!(first(r), first(&runs[0]), "replay must reproduce the identical violation");
        }
        assert!(is_double_handout(&runs[0].violations[0]));

        // The minimized repro serializes and parses back identically,
        // i.e. it is corpus-ready.
        let reparsed = Trace::parse(&small.to_string()).unwrap();
        assert_eq!(small, reparsed);
    }

    #[test]
    fn handcrafted_minimal_repro_fires() {
        // The theoretical minimum: hit #7 of the site must hand out the
        // block slot 5 still owns. Six mallocs advance the hit counter,
        // the seventh gets slot 0's pointer again.
        let text = "\
# oracle-trace v1
allocator lfmalloc
threads 1
seed 0x1
expect violation
fp alloc.double_handout retry nth:7
op 0 t=0 malloc slot=0 size=64
op 1 t=0 malloc slot=1 size=64
op 2 t=0 malloc slot=2 size=64
op 3 t=0 malloc slot=3 size=64
op 4 t=0 malloc slot=4 size=64
op 5 t=0 malloc slot=5 size=64
op 6 t=0 malloc slot=6 size=64
";
        let trace = Trace::parse(text).unwrap();
        let (out, _) = replay_named("lfmalloc", &trace);
        assert!(out.violations.iter().any(is_double_handout), "{:?}", out.violations);
    }

    /// The same trace with the failpoint plan stripped must be clean on
    /// every subject — the bug lives behind the failpoint, not in the
    /// allocator.
    #[test]
    fn without_the_plan_the_trace_is_clean() {
        let mut trace = bugged_trace(SEED);
        trace.failpoints.clear();
        for s in all_subjects() {
            let out = s.replay(&trace);
            assert!(out.is_clean(), "{}: {:?}", s.name(), out.violations);
        }
    }
}
