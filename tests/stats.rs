//! End-to-end tests of the telemetry layer through the public API:
//! monotonic counters under concurrent snapshots, exact malloc/free
//! bookkeeping, remote-free attribution, and the event ring's
//! never-block guarantee on the hot path.

#![cfg(feature = "stats")]

use lfmalloc_repro::prelude::*;
use malloc_api::testkit::TestRng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

#[test]
fn counters_are_monotonic_across_concurrent_snapshots() {
    // Snapshots race the workload: every counter a later snapshot
    // reports must be >= what an earlier snapshot reported (relaxed
    // increments never decrease; tearing across shards only loses
    // *recent* increments, it cannot un-count old ones).
    let a = Arc::new(LfMalloc::with_config(Config::with_heaps(4)));
    let stop = Arc::new(AtomicBool::new(false));
    let mut workers = Vec::new();
    for t in 0..4u64 {
        let a = Arc::clone(&a);
        let stop = Arc::clone(&stop);
        workers.push(std::thread::spawn(move || {
            let mut rng = TestRng::new(0x57A7 + t);
            let mut live = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                if live.len() > 64 || (!live.is_empty() && rng.range(0, 2) == 0) {
                    let k = rng.range(0, live.len());
                    unsafe { a.free(live.swap_remove(k)) };
                } else {
                    let p = unsafe { a.malloc(rng.range(1, 2048)) };
                    assert!(!p.is_null());
                    live.push(p);
                }
            }
            for p in live {
                unsafe { a.free(p) };
            }
        }));
    }

    let mut prev = a.as_ref().stats();
    for _ in 0..50 {
        let next = a.as_ref().stats();
        let (p, n) = (&prev.totals, &next.totals);
        assert!(n.malloc_cached >= p.malloc_cached, "malloc_cached went backwards");
        assert!(n.malloc_fast >= p.malloc_fast, "malloc_fast went backwards");
        assert!(n.malloc_slow >= p.malloc_slow, "malloc_slow went backwards");
        assert!(n.malloc_newsb >= p.malloc_newsb, "malloc_newsb went backwards");
        assert!(n.frees() >= p.frees(), "frees went backwards");
        assert!(
            n.anchor_cas.iter().sum::<u64>() >= p.anchor_cas.iter().sum::<u64>(),
            "anchor histogram went backwards"
        );
        assert!(n.mallocs() >= p.mallocs(), "total mallocs went backwards");
        prev = next;
        std::thread::yield_now();
    }
    stop.store(true, Ordering::Relaxed);
    for w in workers {
        w.join().unwrap();
    }
}

#[test]
fn malloc_paths_partition_the_total() {
    // Quiescent bookkeeping identity: every small malloc was served by
    // exactly one of the thread's magazine or the three ladder rungs,
    // so cached + fast + slow + new-sb == the number of small mallocs
    // issued; frees match mallocs.
    let a = LfMalloc::with_config(Config::with_heaps(2));
    const N: u64 = 20_000;
    unsafe {
        let mut live = Vec::new();
        let mut rng = TestRng::new(0xB00C);
        for _ in 0..N {
            let p = a.malloc(rng.range(1, 4096));
            assert!(!p.is_null());
            live.push(p);
        }
        for p in live {
            a.free(p);
        }
    }
    let s = a.stats();
    let t = &s.totals;
    assert_eq!(t.mallocs(), N, "{t:?}");
    assert_eq!(t.malloc_cached + t.malloc_fast + t.malloc_slow + t.malloc_newsb, N);
    assert!(t.malloc_cached > 0 && t.mag_refill > 0, "magazines never served: {t:?}");
    // Every class has a magazine: each call the ladder served was a
    // refill, whichever rung served it.
    assert_eq!(t.mag_refill, t.malloc_fast + t.malloc_slow + t.malloc_newsb, "{t:?}");
    assert_eq!(t.frees(), N, "{t:?}");
    assert_eq!(t.free_cached + t.free_local + t.free_remote, N);
    assert!(t.free_cached > 0 && t.mag_flush > 0, "{t:?}");
    // Single-threaded: every free targets the caller's own heap.
    assert_eq!(t.free_remote, 0, "{t:?}");
    // Per-class rows must sum to the totals row.
    let class_mallocs: u64 = s.classes.iter().map(|c| c.mallocs()).sum();
    assert_eq!(class_mallocs, N);
}

#[test]
fn cross_thread_frees_count_as_remote() {
    // Producer-consumer with a heap per thread: the consumer frees
    // blocks whose superblocks belong to the producer's heap, so every
    // one of them must count as remote: parked in the consumer's outbox
    // (free_outbox) or, had it no slot, pushed directly (free_remote).
    let a = Arc::new(LfMalloc::with_config(Config::with_heaps(8)));
    const N: usize = 10_000;
    let (tx, rx) = std::sync::mpsc::channel::<usize>();
    let prod = Arc::clone(&a);
    let producer = std::thread::spawn(move || {
        for _ in 0..N {
            let p = unsafe { prod.malloc(64) };
            assert!(!p.is_null());
            tx.send(p as usize).unwrap();
        }
    });
    let cons = Arc::clone(&a);
    let consumer = std::thread::spawn(move || {
        while let Ok(p) = rx.recv() {
            unsafe { cons.free(p as *mut u8) };
        }
    });
    producer.join().unwrap();
    consumer.join().unwrap();

    let t = a.as_ref().stats().totals;
    assert_eq!(t.frees(), N as u64, "{t:?}");
    // With 8 heaps and two live threads the consumer's heap is almost
    // surely distinct from the producer's; but even under slot reuse,
    // remote frees dominate. Require a clear majority rather than all
    // N so the test is robust to thread-slot assignment.
    assert!(
        t.remote_frees() >= (N as u64) / 2,
        "cross-thread frees not attributed: {t:?}"
    );
}

#[test]
fn event_ring_never_blocks_the_hot_path() {
    // The ring holds 1024 events; this workload generates far more
    // (every superblock acquire/retire records one). Across several
    // seeds: the workload must complete with exact counter totals (a
    // blocked or lost *path* would show up here), the ring must report
    // drops rather than growing, and draining returns at most the
    // capacity.
    for seed in [0x5EED_1u64, 0x5EED_2, 0x5EED_3] {
        let a = Arc::new(LfMalloc::with_config(Config::with_heaps(4)));
        let mut workers = Vec::new();
        const BATCHES: u64 = 400;
        const BATCH: u64 = 64;
        const PER_THREAD: u64 = BATCHES * BATCH;
        for t in 0..4u64 {
            let a = Arc::clone(&a);
            workers.push(std::thread::spawn(move || {
                let mut rng = TestRng::new(seed ^ (t << 32));
                // Batches of large-class blocks (few blocks per 16 KiB
                // superblock): each drain empties whole superblocks, so
                // retire events flood the ring.
                let mut batch = Vec::with_capacity(BATCH as usize);
                for _ in 0..BATCHES {
                    for _ in 0..BATCH {
                        let p = unsafe { a.malloc(rng.range(3000, 8000)) };
                        assert!(!p.is_null());
                        batch.push(p);
                    }
                    for p in batch.drain(..) {
                        unsafe { a.free(p) };
                    }
                }
            }));
        }
        for w in workers {
            w.join().unwrap();
        }
        let s = a.as_ref().stats();
        assert_eq!(s.totals.mallocs(), 4 * PER_THREAD, "seed {seed:#x}");
        assert_eq!(s.totals.frees(), 4 * PER_THREAD, "seed {seed:#x}");
        let drained = a.take_events();
        assert!(
            drained.len() <= lfmalloc::stats::EVENT_RING_CAP,
            "ring exceeded capacity: {} (seed {seed:#x})",
            drained.len()
        );
        // Far more events were generated than the ring holds (every
        // superblock retire records one); the ring must have absorbed
        // them by overwriting the oldest, never by blocking or growing.
        assert!(
            s.totals.free_empty > 4 * lfmalloc::stats::EVENT_RING_CAP as u64,
            "workload too tame to overflow the ring: {} retires (seed {seed:#x})",
            s.totals.free_empty
        );
        assert!(
            drained.len() >= lfmalloc::stats::EVENT_RING_CAP / 2,
            "overflowed ring should drain near-full: {} (seed {seed:#x})",
            drained.len()
        );
    }
}

#[test]
fn health_and_maintenance_land_in_stats_surface() {
    // The health snapshot is part of the stats surface: embedded in the
    // JSON, rendered by dump_stats, and advanced by maintain().
    let a = LfMalloc::with_config(Config::with_heaps(2));
    unsafe {
        let p = a.malloc(256);
        assert!(!p.is_null());
        a.free(p);
    }
    a.maintain(MaintenanceBudget::full());
    let s = a.stats();
    assert_eq!(s.health.maintain_passes, 1);
    assert_eq!(s.health.storms_total(), 0);
    let json = s.to_json();
    assert!(json.contains("\"health\":{\"degraded\":false"), "{json}");
    assert!(json.contains("\"maintain_passes\":1"), "{json}");
    assert!(json.contains("\"free_teardown\":"), "{json}");
    let mut out = Vec::new();
    a.dump_stats(&mut out).unwrap();
    let text = String::from_utf8(out).unwrap();
    assert!(text.contains("health: ok"), "{text}");
    assert!(text.contains("\n  maintain_passes                   1  "), "{text}");
    assert!(text.contains("TLS teardown"), "{text}");
}

/// A health row with no reading (`None`) is `null` in the JSON and has
/// no sample in the exposition, which has no null; once read, it is a
/// number in both.
#[test]
fn a_health_row_without_a_reading_is_null_and_unsampled() {
    use malloc_api::json::Json;
    let a = LfMalloc::with_config(Config::with_heaps(1));
    let check = |want: [Option<u64>; 2]| {
        let record = malloc_api::json::parse(&a.stats().to_json()).expect("the JSON parses");
        let om = a.render_openmetrics();
        for (name, want) in ["last_audit_violations", "os_watermark"].into_iter().zip(want) {
            let r = lfmalloc::HEALTH_ROWS.iter().find(|r| r.name == name).unwrap();
            assert_eq!((r.get)(&a.health()), want, "{name}");
            let json = want.map_or(Json::Null, |v| Json::Num(v as f64));
            assert_eq!(record.get(r.key), Some(&json), "{name} in the JSON");
            let sample = om.lines().find(|l| l.starts_with(&format!("{} ", r.family)));
            assert_eq!(sample, want.map(|v| format!("{} {v}", r.family)).as_deref(), "{name}");
        }
    };
    check([None, None]);
    assert!(a.audit().is_clean());
    check([Some(0), None]);
    unsafe { a.trim_to(1 << 20) };
    check([Some(0), Some(1 << 20)]);
}

#[test]
fn span_cache_counters_add_up_on_every_surface() {
    // Every large malloc is a hit or a miss; every large free parks its
    // span or bypasses the cache. 10 pairs of one size: the first
    // misses, the rest hit. Then a span too big to park.
    let a = LfMalloc::with_config(Config::with_heaps(1));
    unsafe {
        for _ in 0..10 {
            let p = a.malloc(64 << 10);
            assert!(!p.is_null());
            a.free(p);
        }
        let p = a.malloc(4 << 20);
        a.free(p);
    }
    let s = a.stats();
    assert_eq!((s.large_cache_hit, s.large_cache_miss, s.large_cache_bypass), (9, 2, 1));
    assert_eq!(s.large_cache_hit + s.large_cache_miss, s.large_alloc);
    assert_eq!(s.os.os_allocs, 2, "two spans ever mapped");
    assert_eq!((s.large_live, s.reconciliation.large_bytes), (0, 0), "live still means live");
    assert_eq!(s.reconciliation.large_cached_bytes, (64 << 10) + 4096);
    assert_eq!(s.health.large_cached_spans, 1);
    assert!(s.reconciliation.reconciles());

    let json = s.to_json();
    assert!(json.contains("\"cache_hit\":9,\"cache_miss\":2,\"cache_bypass\":1"), "{json}");
    assert!(json.contains("\"large_cached_bytes\":69632"), "{json}");
    assert!(json.contains("\"large_cached_spans\":1"), "{json}");
    let mut out = Vec::new();
    a.dump_stats(&mut out).unwrap();
    let text = String::from_utf8(out).unwrap();
    assert!(text.contains("span cache: 9 hit / 2 miss / 1 bypassed)"), "{text}");
    assert!(text.contains("\n  large_cached_spans                1  "), "{text}");
    assert!(text.contains("\n  large_cached_bytes            69632  "), "{text}");
    assert!(text.contains("+ 69632 cached large"), "{text}");
    let om = a.render_openmetrics();
    lfmalloc::metrics::check_openmetrics(&om).expect("exposition well-formed");
    assert!(om.contains("lfmalloc_large_cache_total{outcome=\"hit\"} 9"), "{om}");
    assert!(om.contains("lfmalloc_large_cached_bytes 69632"), "{om}");
}

#[test]
fn outbox_counters_add_up_on_every_surface() {
    // 40 blocks of 8 B (an outbox holds 16) freed from the other heap:
    // all 40 are parked, the 17th and the 33rd each send a full outbox
    // home first, 8 stay parked. A 1000 B block, whose class has no
    // outbox, takes the one-CAS remote push.
    let a = LfMalloc::with_config(Config::with_heaps(2));
    let home = lfmalloc::heap::thread_id() % 2;
    let mut blocks: Vec<usize> = (0..40).map(|_| unsafe { a.malloc(8) } as usize).collect();
    blocks.push(unsafe { a.malloc(1000) } as usize);
    assert!(blocks.iter().all(|&p| p != 0));
    malloc_api::testkit::on_some_thread(|| {
        (lfmalloc::heap::thread_id() % 2 != home)
            .then(|| blocks.iter().for_each(|&p| unsafe { a.free(p as *mut u8) }))
    });
    let s = a.stats();
    let t = &s.totals;
    assert_eq!((t.free_outbox, t.out_flush, t.free_remote), (40, 2, 1), "{t:?}");
    assert_eq!((t.free_cached, t.free_local, t.mag_flush), (0, 0, 0), "{t:?}");
    assert_eq!(t.frees(), 41);
    a.flush_thread_cache();
    assert_eq!(a.audit().magazine_blocks, 8, "what the exited thread left parked");

    let json = s.to_json();
    assert!(json.contains("\"free_outbox\":40,"), "{json}");
    assert!(json.contains("\"out_flush\":2,"), "{json}");
    let mut out = Vec::new();
    a.dump_stats(&mut out).unwrap();
    let text = String::from_utf8(out).unwrap();
    assert!(text.contains("(cached 0 / outbox 40 / local 0 / remote 1 "), "{text}");
    assert!(text.contains("0 flushes / 2 outbox flushes"), "{text}");
    let om = a.render_openmetrics();
    lfmalloc::metrics::check_openmetrics(&om).expect("exposition well-formed");
    assert!(om.contains("lfmalloc_frees_total{path=\"outbox\"} 40"), "{om}");
    assert!(om.contains("lfmalloc_magazine_batches_total{op=\"outbox_flush\"} 2"), "{om}");
}
