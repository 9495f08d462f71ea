//! Telemetry walkthrough: an 8-thread producer/consumer run, the
//! jemalloc-style stats dump, a top-5 hottest-size-classes table, and
//! the JSON snapshot (printed last, so scripts can `tail -n 1`).
//!
//! ```text
//! cargo run --release --features stats --example stats_demo
//! ```
//!
//! Producers allocate blocks and hand them across a channel; consumers
//! free them. Every free is therefore *remote* (a different thread —
//! and usually a different heap — than the allocator), which exercises
//! the slow paths the telemetry exists to count: remote frees, FULL →
//! PARTIAL transitions, partial-list reuse, and contended anchor CASes.

use lfmalloc_repro::prelude::*;
use std::sync::mpsc;
use std::sync::Arc;

const PAIRS: usize = 4; // 4 producers + 4 consumers = 8 threads
const BLOCKS_PER_PRODUCER: usize = 50_000;

fn main() {
    let a = Arc::new(LfMalloc::with_config(Config::with_heaps(PAIRS)));

    std::thread::scope(|s| {
        for pair in 0..PAIRS {
            let (tx, rx) = mpsc::sync_channel::<usize>(256);
            let prod = Arc::clone(&a);
            s.spawn(move || {
                // A size mix that lands in several classes, skewed
                // toward the small ones so the "hottest" table has a
                // clear winner.
                let sizes = [16usize, 16, 16, 48, 48, 128, 512, 4000];
                for i in 0..BLOCKS_PER_PRODUCER {
                    let sz = sizes[(i + pair) % sizes.len()];
                    let p = unsafe { prod.malloc(sz) };
                    assert!(!p.is_null());
                    unsafe { p.write_bytes(0xAB, sz.min(64)) };
                    if tx.send(p as usize).is_err() {
                        break;
                    }
                }
            });
            let cons = Arc::clone(&a);
            s.spawn(move || {
                while let Ok(p) = rx.recv() {
                    unsafe { cons.free(p as *mut u8) };
                }
            });
        }
    });

    // The full report: totals, CAS-retry histograms, the descriptor
    // census, the byte reconciliation, per-class rows, and the
    // drained slow-path event trace.
    // `as_ref()` first: `Arc<T>` itself implements `RawMalloc`, whose
    // `stats()` (OS-level `AllocStats`) would otherwise shadow the
    // telemetry snapshot on the concrete allocator.
    let mut out = std::io::stdout();
    a.as_ref().dump_stats(&mut out).expect("stdout");

    let snap = a.as_ref().stats();
    println!("\nTop 5 hottest size classes:");
    println!("{:>7} {:>8} {:>10} {:>10} {:>8} {:>8}", "class", "size", "mallocs", "remote", "fast%", "new-sb");
    for c in snap.hottest_classes().iter().take(5) {
        let fast_pct =
            100.0 * (c.malloc_cached + c.malloc_fast) as f64 / c.mallocs().max(1) as f64;
        println!(
            "{:>7} {:>8} {:>10} {:>10} {:>7.1}% {:>8}",
            c.class, c.block_size, c.mallocs(), c.remote_frees(), fast_pct, c.malloc_newsb
        );
    }

    let totals = &snap.totals;
    assert!(totals.malloc_fast > 0, "fast path never taken");
    assert!(totals.malloc_slow + totals.partial_reuse > 0, "slow path never taken");
    assert!(totals.free_outbox > 0, "cross-thread frees must be parked in the outbox");
    assert!(totals.free_remote > 0, "the 4000 B class has no outbox: its remote frees are pushed");
    assert!(totals.anchor_cas.iter().sum::<u64>() > 0, "anchor CAS histogram empty");

    // One thorough maintenance pass, then the health verdict. All the
    // workers are joined, so the quiescent-trim contract holds and the
    // pass may also shrink the OS footprint.
    let before = a.as_ref().os_stats().live_bytes;
    let budget = unsafe { MaintenanceBudget::full().with_quiescent_trim(4 << 20) };
    let rep = a.as_ref().maintain(budget);
    println!(
        "\nMaintenance pass: {} magazine blocks drained, {} empty pruned, {}/{} audit slice flagged, \
         {} bytes trimmed ({} -> {} live)",
        rep.magazines_drained,
        rep.empty_pruned,
        rep.audit_flagged,
        rep.audit_checked,
        rep.bytes_trimmed,
        before,
        a.as_ref().os_stats().live_bytes
    );
    let health = a.as_ref().health();
    println!("Health: {}", health.to_json());
    assert!(!health.is_degraded(), "healthy run must not report degradation");

    // Machine-readable snapshot (with the embedded health object),
    // last line of stdout by contract.
    let snap = a.as_ref().stats();
    println!();
    println!("{}", snap.to_json());
}
