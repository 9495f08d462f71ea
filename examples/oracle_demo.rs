//! The shadow-heap oracle walkthrough: record a workload into a trace,
//! replay it differentially against every allocator in the workspace,
//! then (with `--features failpoints`) catch an intentionally planted
//! allocator bug, auto-shrink the failing trace to a minimal repro, and
//! replay the repro deterministically.
//!
//! ```text
//! cargo run --release --example oracle_demo
//! cargo run --release --example oracle_demo --features failpoints
//! ```

use lfmalloc_repro::prelude::*;
use oracle::{all_subjects, OracleMalloc, Trace};
use std::sync::Arc;

fn main() {
    // 1. Live oracle: every malloc/free in this block is mirrored into
    //    the shadow heap, which checks overlap, alignment, and (via
    //    seeded fill patterns) content integrity at free time.
    let o = OracleMalloc::new(LfMalloc::new_default());
    unsafe {
        let mut live = Vec::new();
        for i in 0..10_000usize {
            if live.len() < 64 && i % 3 != 0 {
                live.push(o.malloc(8 + (i * 37) % 4000));
            } else if let Some(p) = live.pop() {
                o.free(p);
            }
        }
        for p in live {
            o.free(p);
        }
    }
    println!("== live oracle ==");
    println!("violations: {}  live blocks: {}", o.violation_count(), o.live_blocks());
    assert_eq!(o.violation_count(), 0);

    // 2. Record: the same oracle type in record mode captures a real
    //    multi-threaded workload run as a portable text trace.
    let (result, trace) = workloads::record::threadtest_recorded(
        Arc::new(LfMalloc::new_default()),
        2,   // threads
        10,  // rounds
        500, // blocks per round
    );
    println!("\n== recorded threadtest ==");
    println!("workload: {result}");
    println!("trace: {} ops across {} threads", trace.ops.len(), trace.threads);

    // 3. Differential replay: the recorded trace replays op-for-op, in
    //    the identical global order, on every allocator in the
    //    workspace. A violation here would localize a bug to one
    //    allocator.
    println!("\n== differential replay ==");
    for s in all_subjects() {
        let out = s.replay(&trace);
        println!(
            "{:<20} executed={} drained={} violations={}",
            s.name(),
            out.executed_ops,
            out.drained,
            out.violations.len()
        );
        assert!(out.is_clean(), "{}: {:?}", s.name(), out.violations);
    }

    // 4. Generated traces work too — same seed, same trace, any machine.
    let generated = Trace::generate(0xD1FF, 4, 400);
    let out = oracle::replay(&LfMalloc::new_default(), &generated);
    println!("\n== generated trace 0xD1FF ==");
    println!("executed={} violations={}", out.executed_ops, out.violations.len());

    // 5. Catch -> shrink -> replay, against a real planted bug.
    #[cfg(feature = "failpoints")]
    planted_bug_pipeline();
    #[cfg(not(feature = "failpoints"))]
    println!("\n(recompile with --features failpoints for the catch/shrink/replay demo)");
}

/// The full failure pipeline: a failpoint plan makes lfmalloc re-hand
/// out a still-live block, the oracle catches the duplicate, delta
/// debugging shrinks the 400-op trace to a handful of ops, and the
/// minimized repro replays to the identical violation every run.
#[cfg(feature = "failpoints")]
fn planted_bug_pipeline() {
    use oracle::{shrink, subjects::replay_named, FpActionSpec, FpPlan, FpTriggerSpec};

    // The seed of tests/oracle_differential.rs (`SEED`, and why that one).
    let mut trace = Trace::generate(0x5EEC, 3, 400);
    trace.allocator = "lfmalloc".into();
    trace.failpoints.push(FpPlan {
        site: "alloc.double_handout".into(),
        action: FpActionSpec::Retry,
        trigger: FpTriggerSpec::Nth(7),
        budget: None,
    });

    let (out, _) = replay_named("lfmalloc", &trace);
    println!("\n== planted double-hand-out ==");
    println!("caught: {}", out.violations.first().map(|v| v.to_string()).unwrap_or_default());
    assert!(!out.violations.is_empty());

    let small = shrink(&trace, |cand| {
        !replay_named("lfmalloc", cand).0.violations.is_empty()
    });
    println!("shrunk {} ops -> {} ops", trace.ops.len(), small.ops.len());

    for run in 0..3 {
        let (out, _) = replay_named("lfmalloc", &small);
        println!("replay {run}: {}", out.violations[0]);
    }
    println!("\nminimized repro (corpus-ready):\n{small}");
}
