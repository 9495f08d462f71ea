//! Conformance + stress battery for the lock-free allocator, using the
//! shared `malloc_api::testkit` contract (the same battery the three
//! baseline allocators run).

use lfmalloc::{Config, LfMalloc};
use malloc_api::testkit;
use malloc_api::RawMalloc;
use std::sync::Arc;

#[test]
fn basic_contract() {
    let a = LfMalloc::new_default();
    testkit::check_basic(&a);
    testkit::check_zero_size(&a);
    testkit::check_large(&a);
}

#[test]
fn free_orders() {
    let a = LfMalloc::new_default();
    testkit::check_free_orders(&a, 0xFEED);
}

#[test]
fn churn_single_thread() {
    let a = LfMalloc::new_default();
    testkit::check_churn(&a, 128, 5_000, 1);
}

#[test]
fn churn_concurrent() {
    let a = Arc::new(LfMalloc::new_default());
    testkit::check_concurrent_churn(a, 4, 3_000);
}

#[test]
fn remote_free_producer_consumer() {
    let a = Arc::new(LfMalloc::new_default());
    testkit::check_remote_free(a, 3, 1_000);
}

#[test]
fn full_battery_single_heap() {
    // The §4.2.4 single-heap configuration must satisfy the same
    // contract.
    let a = Arc::new(LfMalloc::with_config(Config::with_heaps(1)));
    testkit::check_all(a);
}

#[test]
fn full_battery_many_heaps() {
    let a = Arc::new(LfMalloc::with_config(Config::with_heaps(8)));
    testkit::check_all(a);
}

#[test]
fn superblock_recycling_bounds_memory() {
    // Allocate and free 10_000 blocks repeatedly: the allocator must
    // reuse superblocks rather than map new hyperblocks each round.
    let a = LfMalloc::new_default();
    for _ in 0..20 {
        let blocks: Vec<*mut u8> = (0..10_000).map(|_| unsafe { a.malloc(64) }).collect();
        for p in &blocks {
            assert!(!p.is_null());
        }
        for p in blocks {
            unsafe { a.free(p) };
        }
    }
    assert!(
        a.hyperblock_count() <= 2,
        "hyperblock count {} suggests superblocks are not recycled",
        a.hyperblock_count()
    );
}

#[test]
fn distinct_size_classes_do_not_interfere() {
    let a = LfMalloc::new_default();
    unsafe {
        let mut blocks = Vec::new();
        for round in 0..3 {
            for sz in [8usize, 24, 100, 500, 1000, 4000, 8000] {
                let p = a.malloc(sz);
                assert!(!p.is_null());
                testkit::fill(p, sz);
                blocks.push((p, sz));
            }
            if round == 1 {
                // Free half mid-stream.
                for (p, sz) in blocks.drain(..blocks.len() / 2) {
                    testkit::check_fill(p, sz);
                    a.free(p);
                }
            }
        }
        for (p, sz) in blocks {
            testkit::check_fill(p, sz);
            a.free(p);
        }
    }
}

#[test]
fn aligned_allocations() {
    let a = LfMalloc::new_default();
    unsafe {
        for &align in &[8usize, 16, 32, 64, 128, 1024, 4096, 1 << 15] {
            for &sz in &[1usize, 17, 100, 1000, 9000] {
                let p = a.malloc_aligned(sz, align);
                assert!(!p.is_null(), "malloc_aligned({sz}, {align})");
                assert_eq!(p as usize % align, 0, "misaligned ({sz}, {align})");
                testkit::fill(p, sz);
                testkit::check_fill(p, sz);
                a.free(p);
            }
        }
    }
}

#[test]
fn stats_report_peak_usage() {
    let a = LfMalloc::new_default();
    let before = a.os_stats();
    let blocks: Vec<*mut u8> = (0..1000).map(|_| unsafe { a.malloc(128) }).collect();
    let during = a.os_stats();
    assert!(during.peak_bytes > before.peak_bytes);
    assert!(during.live_bytes >= 1000 * 128);
    for p in blocks {
        unsafe { a.free(p) };
    }
}

#[test]
fn drop_returns_all_memory() {
    // The instance must release everything on drop (checked indirectly:
    // building and dropping many instances must not accumulate).
    for _ in 0..10 {
        let a = LfMalloc::new_default();
        let blocks: Vec<*mut u8> = (0..500).map(|_| unsafe { a.malloc(100) }).collect();
        for p in blocks {
            unsafe { a.free(p) };
        }
        assert!(a.os_stats().live_bytes > 0, "pool retains superblocks while alive");
        drop(a);
    }
}

#[test]
fn usable_size_covers_request_and_class_rounding() {
    let a = LfMalloc::new_default();
    unsafe {
        // Small path: an 8-byte request is an 8-byte block, all of it
        // usable — no prefix.
        let p = a.malloc(8);
        assert_eq!(a.usable_size(p), 8);
        a.free(p);
        // 100-byte request → 112-byte class, usable = 112.
        let p = a.malloc(100);
        assert_eq!(a.usable_size(p), 112);
        a.free(p);
        // Large path: usable ≥ request.
        let p = a.malloc(100_000);
        assert!(a.usable_size(p) >= 100_000);
        a.free(p);
        // Aligned path: an ordinary block of a class the alignment divides.
        let p = a.malloc_aligned(100, 64);
        assert_eq!(a.usable_size(p), 128);
        a.free(p);
    }
}

/// The word in front of a live small block is its neighbour's last
/// word, not the allocator's: a one-word overflow out of the neighbour
/// damages the victim's data (an application bug) and nothing `free`
/// follows. With a prefix there, the second free below would chase the
/// scribbled word as a descriptor pointer.
#[test]
fn a_one_word_overflow_into_a_neighbour_does_not_reach_the_allocator() {
    let a = LfMalloc::with_config(Config::with_heaps(1));
    unsafe {
        let blocks: Vec<*mut u8> = (0..8).map(|_| a.malloc(48)).collect();
        let (p, q) = (blocks[3], blocks[4]);
        assert_eq!(q as usize, p as usize + 48, "neighbours, nothing between them");
        // Fill `p` to its last byte and one word beyond.
        core::ptr::write_bytes(p, 0xFF, 48 + 8);
        a.free(q);
        a.free(p);
        a.flush_thread_cache();
        let rep = a.audit();
        assert!(rep.is_clean(), "{rep}");
        for p in blocks.into_iter().filter(|&b| b != p && b != q) {
            a.free(p);
        }
        a.trim();
        assert_eq!(a.os_stats().live_bytes, 0);
    }
}

#[test]
fn realloc_grows_in_place_within_class_and_moves_across() {
    let a = LfMalloc::new_default();
    unsafe {
        let p = a.malloc(40); // class 48: usable 48
        testkit::fill(p, 40);
        let snapshot: Vec<u8> = core::slice::from_raw_parts(p, 40).to_vec();
        // Same class: stays put.
        let q = a.realloc(p, 40, a.usable_size(p));
        assert_eq!(q, p, "in-place growth expected within the class");
        testkit::check_fill(q, 40);
        // Bigger: moves, preserving content byte-for-byte.
        let r = a.realloc(q, 40, 5_000);
        assert!(!r.is_null());
        assert_ne!(r, q, "5 KB cannot stay in the 48-byte class");
        assert_eq!(core::slice::from_raw_parts(r, 40), &snapshot[..]);
        a.free(r);
        // Null ptr behaves as malloc.
        let s = a.realloc(core::ptr::null_mut(), 0, 64);
        assert!(!s.is_null());
        a.free(s);
    }
}
