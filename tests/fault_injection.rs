//! Fault injection: allocators must degrade gracefully when the OS
//! refuses memory — null returns, no panics, no corruption of existing
//! blocks, and full recovery once memory is available again.
//!
//! This exercises the lock-free allocator's OOM paths
//! (`MallocFromNewSB` failing to get a superblock or descriptor slab)
//! and the equivalent paths in the baselines.

use lfmalloc_repro::prelude::*;
use malloc_api::testkit;
use osmem::{CountingSource, FlakySource, PageSource, SystemSource};
use std::sync::Arc;

type Flaky = CountingSource<FlakySource<SystemSource>>;

fn flaky_source(budget: isize) -> Arc<Flaky> {
    Arc::new(CountingSource::new(FlakySource::new(SystemSource::new(), budget)))
}

fn lf_with_budget(budget: isize) -> (LfMalloc<Arc<Flaky>>, Arc<Flaky>) {
    let src = flaky_source(budget);
    (LfMalloc::with_config_and_source(Config::with_heaps(2), Arc::clone(&src)), src)
}

#[test]
fn lfmalloc_returns_null_when_source_dries_up() {
    // Budget of 2 OS allocations: one descriptor slab + one hyperblock.
    let (a, src) = lf_with_budget(2);
    unsafe {
        let p = a.malloc(64);
        assert!(!p.is_null(), "first allocation fits in the budget");
        // Exhaust the hyperblock: 64 superblocks of 64 B-class blocks.
        let mut live = vec![p];
        loop {
            let q = a.malloc(64);
            if q.is_null() {
                break;
            }
            live.push(q);
        }
        // Existing blocks still intact and freeable.
        for &q in &live {
            testkit::fill(q, 64);
        }
        for &q in &live {
            testkit::check_fill(q, 64);
        }
        for q in live {
            a.free(q);
        }
        // After freeing, allocation works again without new OS memory.
        let r = a.malloc(64);
        assert!(!r.is_null(), "recycled superblocks must satisfy post-OOM allocations");
        a.free(r);
    }
    drop(a);
    assert_eq!(src.stats().live_bytes, 0, "teardown returns everything");
}

#[test]
fn lfmalloc_large_path_oom_is_null_not_panic() {
    let (a, _src) = lf_with_budget(0);
    unsafe {
        assert!(a.malloc(1 << 20).is_null(), "large path must fail cleanly");
        assert!(a.malloc(8).is_null(), "small path must fail cleanly");
    }
}

#[test]
fn lfmalloc_recovers_after_refill() {
    let (a, src) = lf_with_budget(0);
    unsafe {
        assert!(a.malloc(100).is_null());
        src.inner().refill(8);
        let p = a.malloc(100);
        assert!(!p.is_null(), "allocation must succeed after the source revives");
        a.free(p);
    }
}

#[test]
fn oversize_requests_fail_cleanly() {
    let a = LfMalloc::new_default();
    unsafe {
        // Near-overflow sizes must not wrap into small allocations.
        assert!(a.malloc(usize::MAX).is_null());
        assert!(a.malloc(usize::MAX - 7).is_null());
        assert!(a.malloc_aligned(usize::MAX - 4096, 4096).is_null());
    }
}

#[test]
fn serial_heap_oom_paths() {
    let src = flaky_source(0);
    let a = LockedHeap::with_source(src.clone());
    unsafe {
        assert!(a.malloc(100).is_null());
        assert!(a.malloc(1 << 20).is_null());
        src.inner().refill(4);
        let p = a.malloc(100);
        assert!(!p.is_null());
        a.free(p);
    }
}

#[test]
fn hoard_oom_paths() {
    let src = flaky_source(0);
    let a = Hoard::with_source(2, src.clone());
    unsafe {
        assert!(a.malloc(100).is_null());
        assert!(a.malloc(1 << 20).is_null());
        src.inner().refill(4);
        let p = a.malloc(100);
        assert!(!p.is_null());
        a.free(p);
    }
}

#[test]
fn ptmalloc_oom_paths() {
    let src = flaky_source(0);
    let a = Ptmalloc::with_source(src.clone());
    unsafe {
        assert!(a.malloc(100).is_null());
        src.inner().refill(4);
        let p = a.malloc(100);
        assert!(!p.is_null());
        a.free(p);
    }
}

#[test]
fn concurrent_oom_does_not_corrupt() {
    // Threads race into an exhausted source; every success must be a
    // real, distinct block and every failure a clean null.
    let src = flaky_source(6);
    let a = Arc::new(LfMalloc::with_config_and_source(
        Config::with_heaps(4),
        Arc::clone(&src),
    ));
    let mut handles = Vec::new();
    for t in 0..4u64 {
        let a = Arc::clone(&a);
        handles.push(std::thread::spawn(move || {
            let mut got = Vec::new();
            for i in 0..50_000usize {
                unsafe {
                    let p = a.malloc(16 + ((i as u64 + t) % 64) as usize * 16);
                    if p.is_null() {
                        continue;
                    }
                    testkit::fill(p, 16);
                    got.push(p as usize);
                }
            }
            got
        }));
    }
    let mut all: Vec<usize> = Vec::new();
    for h in handles {
        all.extend(h.join().unwrap());
    }
    // While live, all blocks are distinct.
    let unique: std::collections::HashSet<usize> = all.iter().copied().collect();
    assert_eq!(unique.len(), all.len(), "overlapping blocks under OOM race");
    for p in all {
        unsafe { a.free(p as *mut u8) };
    }
}

#[test]
fn a_refusal_at_any_os_entry_point_drains_the_span_cache_first() {
    // DESIGN.md §7.2: memory the allocator is only sitting on is the
    // first thing to give back. Each of the three places that ask the
    // source for memory must empty the free-span cache on the first
    // null and then succeed within the retry budget.
    let park_a_span = |a: &LfMalloc<Arc<Flaky>>| unsafe {
        let p = a.malloc(64 << 10);
        assert!(!p.is_null());
        a.free(p);
        assert_eq!(a.health().large_cached_spans, 1);
    };
    let outage = 3; // fewer than the 8 retries of `retry.rs`

    // Descriptor-slab carve: the first small malloc of an instance.
    let (a, src) = lf_with_budget(isize::MAX);
    park_a_span(&a);
    src.inner().fail_next(outage);
    unsafe {
        let p = a.malloc(64);
        assert!(!p.is_null(), "descriptor carve did not ride out the outage");
        assert_eq!(a.health().large_cached_spans, 0, "cache survived a refused carve");
        assert_eq!(src.inner().denials(), outage);

        // Superblock carve: fill the only hyperblock (64 superblocks: one
        // holds `p`, the others two 8000-byte blocks each), so the next
        // block needs a new one.
        let blocks: Vec<*mut u8> = (0..126).map(|_| a.malloc(8000)).collect();
        assert_eq!(a.hyperblock_count(), 1);
        park_a_span(&a);
        src.inner().fail_next(outage);
        let q = a.malloc(8000);
        assert!(!q.is_null(), "superblock carve did not ride out the outage");
        assert_eq!(a.hyperblock_count(), 2);
        assert_eq!(a.health().large_cached_spans, 0, "cache survived a refused carve");

        // Large allocation that the parked span is too small for.
        park_a_span(&a);
        src.inner().fail_next(outage);
        let big = a.malloc(1 << 20);
        assert!(!big.is_null(), "large path did not ride out the outage");
        assert_eq!(a.health().large_cached_spans, 0, "cache survived a refused map");
        assert_eq!(src.inner().denials(), 3 * outage);

        for p in blocks.into_iter().chain([p, q, big]) {
            a.free(p);
        }
    }
    assert!(a.audit().is_clean(), "{}", a.audit());
    drop(a);
    assert_eq!(src.stats().live_bytes, 0, "teardown returns the re-parked span too");
}
