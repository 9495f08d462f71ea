//! Hardened-mode integration tests: every misuse class is provoked on a
//! real allocator instance and must yield exactly one report of the
//! right kind, with the heap passing a full audit afterwards.
//!
//! The trap guard page (`PROT_NONE`) is deliberately not exercised:
//! writing into it raises SIGSEGV by design, which a test process
//! cannot survive. The canary page in front of it covers overruns that
//! stop short of the trap.

use lfmalloc::config::SB_SIZE;
use lfmalloc_repro::prelude::*;
use std::sync::{Arc, Barrier};

fn hardened(level: Hardening) -> LfMalloc {
    LfMalloc::with_config(Config::detect().with_hardening(level))
}

#[test]
fn invalid_frees_are_rejected_and_counted() {
    let a = hardened(Hardening::Detect);
    let b = hardened(Hardening::Detect);
    unsafe {
        let p = a.malloc(64);
        assert!(!p.is_null());
        // Nothing the block holds can vouch for a pointer: validation
        // reads the frame map, never the block.
        core::ptr::write_bytes(p, 0xAB, 64);

        // Interior pointer: 8-aligned but pointing into block data.
        a.free(p.add(8));
        assert_eq!(a.misuse_counters().count(MisuseKind::InvalidFree), 1);

        // Interior pointer where a smaller class would have a block
        // start: the frame is a superblock's, of the 64-byte class.
        a.free(p.add(32));
        assert_eq!(a.misuse_counters().count(MisuseKind::InvalidFree), 2);

        // Misaligned pointer.
        a.free(p.add(3));
        assert_eq!(a.misuse_counters().count(MisuseKind::InvalidFree), 3);

        // Stack address: not in any superblock this instance mapped.
        let local = 0u64;
        a.free(&local as *const u64 as *mut u8);
        assert_eq!(a.misuse_counters().count(MisuseKind::InvalidFree), 4);

        // Foreign pointer: a live block of another lfmalloc instance.
        let q = b.malloc(64);
        assert!(!q.is_null());
        a.free(q);
        assert_eq!(a.misuse_counters().count(MisuseKind::InvalidFree), 5);
        assert_eq!(b.misuse_counters().total(), 0);

        // The block is intact and the legitimate owners can still free
        // both.
        assert!((0..64).all(|i| *p.add(i) == 0xAB));
        a.free(p);
        b.free(q);
    }
    assert_eq!(a.misuse_counters().count(MisuseKind::InvalidFree), 5);
    assert_eq!(a.misuse_counters().total(), 5, "no other kind may fire");
    let last = a.misuse_counters().last_report().unwrap();
    assert_eq!(last.kind, MisuseKind::InvalidFree);
    a.flush_quarantine();
    assert!(a.audit().is_clean(), "{:?}", a.audit());
    assert!(b.audit().is_clean());
}

#[test]
fn sequential_double_free_is_classified_as_double_free() {
    let a = hardened(Hardening::Detect);
    unsafe {
        let p = a.malloc(48);
        assert!(!p.is_null());
        a.free(p);
        // The block is quarantined, poisoned from its first byte; the
        // frame map still names its descriptor, so the repeat free
        // reaches the bitmap and loses there.
        a.free(p);
    }
    let c = a.misuse_counters();
    assert_eq!(c.count(MisuseKind::DoubleFree), 1);
    assert_eq!(c.total(), 1);
    let r = c.last_report().unwrap();
    assert_eq!(r.kind, MisuseKind::DoubleFree);
    assert!(r.size_class.is_some(), "small double free knows its class");
    a.flush_quarantine();
    assert!(a.audit().is_clean(), "{:?}", a.audit());
}

#[test]
fn concurrent_double_free_has_exactly_one_winner() {
    const THREADS: usize = 4;
    const ROUNDS: usize = 8;
    malloc_api::testkit::for_each_seed("concurrent double free", &[0, 1, 2], |seed| {
        let a = Arc::new(hardened(Hardening::Detect));
        for round in 0..ROUNDS {
            // Vary the class per seed/round so different heaps and
            // descriptors arbitrate.
            let size = 16 << ((seed as usize + round) % 4);
            let p = unsafe { a.malloc(size) } as usize;
            assert!(p != 0);
            let barrier = Arc::new(Barrier::new(THREADS));
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    let a = Arc::clone(&a);
                    let barrier = Arc::clone(&barrier);
                    std::thread::spawn(move || {
                        barrier.wait();
                        unsafe { a.free(p as *mut u8) };
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            // Exactly one free won the bitmap race per round.
            assert_eq!(
                a.misuse_counters().count(MisuseKind::DoubleFree),
                ((round + 1) * (THREADS - 1)) as u64,
                "seed {seed} round {round}"
            );
        }
        assert_eq!(a.misuse_counters().total(), (ROUNDS * (THREADS - 1)) as u64);
        a.flush_quarantine();
        assert!(a.audit().is_clean(), "seed {seed}: {:?}", a.audit());
    });
}

#[test]
fn use_after_free_write_is_caught_by_quarantine_poison() {
    let a = hardened(Hardening::Detect);
    unsafe {
        let p = a.malloc(256);
        assert!(!p.is_null());
        a.free(p);
        // Dangling write through the stale pointer while the block sits
        // in quarantine.
        p.write(7);
    }
    assert_eq!(a.misuse_counters().total(), 0, "not detected until reuse/flush");
    let flushed = a.flush_quarantine();
    assert!(flushed >= 1);
    let c = a.misuse_counters();
    assert_eq!(c.count(MisuseKind::PoisonViolation), 1);
    assert_eq!(c.total(), 1);
    assert_eq!(c.last_report().unwrap().kind, MisuseKind::PoisonViolation);
    assert!(a.audit().is_clean(), "{:?}", a.audit());
}

/// The allocation bitmap has 1024 bits and an 8-byte superblock 2048
/// blocks: a hardened instance opens only the first 1024 of them.
#[test]
fn hardened_eight_byte_superblocks_stop_at_the_bitmap() {
    let a = LfMalloc::with_config(Config::with_heaps(1).with_hardening(Hardening::Detect));
    unsafe {
        let blocks: Vec<usize> = (0..3_000).map(|_| a.malloc(8) as usize).collect();
        let mut per_sb = std::collections::HashMap::new();
        for &p in &blocks {
            assert!(p != 0);
            assert_eq!(a.usable_size(p as *mut u8), 8);
            assert!(p % SB_SIZE < 1024 * 8, "{p:#x} is past the bitmap's reach");
            *per_sb.entry(p / SB_SIZE).or_insert(0usize) += 1;
        }
        assert_eq!(per_sb.len(), 3, "1024 blocks to a superblock: {per_sb:?}");
        assert_eq!(blocks.iter().collect::<std::collections::HashSet<_>>().len(), blocks.len());
        // The last block the bitmap covers: its double free is caught.
        let last = *blocks.iter().find(|&&p| p % SB_SIZE == 1023 * 8).unwrap();
        a.free(last as *mut u8);
        a.free(last as *mut u8);
        assert_eq!(a.misuse_counters().count(MisuseKind::DoubleFree), 1);
        // And the byte behind it belongs to no block.
        a.free((last + 8) as *mut u8);
        assert_eq!(a.misuse_counters().count(MisuseKind::InvalidFree), 1);
        assert!(a.audit().is_clean(), "{:?}", a.audit());
        for p in blocks.into_iter().filter(|&p| p != last) {
            a.free(p as *mut u8);
        }
    }
    assert_eq!(a.misuse_counters().total(), 2);
    a.flush_quarantine();
    assert!(a.audit().is_clean(), "{:?}", a.audit());
}

#[test]
fn clean_quarantined_blocks_flush_without_reports() {
    let a = hardened(Hardening::Detect);
    unsafe {
        let blocks: Vec<usize> = (0..20).map(|_| a.malloc(64) as usize).collect();
        for &p in &blocks {
            assert!(p != 0);
            a.free(p as *mut u8);
        }
    }
    a.flush_quarantine();
    assert_eq!(a.misuse_counters().total(), 0);
    assert!(a.audit().is_clean(), "{:?}", a.audit());
}

#[test]
fn large_block_guard_overrun_is_detected_on_free() {
    let a = hardened(Hardening::Detect);
    unsafe {
        let p = a.malloc(100_000);
        assert!(!p.is_null());
        let usable = a.usable_size(p);
        assert!(usable >= 100_000);
        // One byte past the usable area lands on the canary page.
        p.add(usable).write(0);
        a.free(p);
    }
    let c = a.misuse_counters();
    assert_eq!(c.count(MisuseKind::GuardOverrun), 1);
    assert_eq!(c.total(), 1);
    // Detect mode released the span regardless; a second free of the
    // now-unknown pointer is an invalid free, not a crash.
    assert!(a.audit().is_clean(), "{:?}", a.audit());
}

#[test]
fn large_block_misuse_classification() {
    let a = hardened(Hardening::Detect);
    unsafe {
        let p = a.malloc(200_000);
        assert!(!p.is_null());
        // Interior pointer into a live large block: rejected, block
        // stays live.
        a.free(p.add(4096));
        assert_eq!(a.misuse_counters().count(MisuseKind::InvalidFree), 1);
        core::ptr::write_bytes(p, 0x5A, 200_000); // still writable
        a.free(p);
        // Sequential double free: the span is gone from the registry
        // and the memory unmapped, indistinguishable from a wild
        // pointer — reported as InvalidFree.
        a.free(p);
        assert_eq!(a.misuse_counters().count(MisuseKind::InvalidFree), 2);
    }
    assert_eq!(a.misuse_counters().total(), 2);
    assert!(a.audit().is_clean(), "{:?}", a.audit());
}

#[test]
fn hardened_large_blocks_bypass_the_span_cache() {
    // Unmapping a large block the moment it is freed is how this mode
    // catches a use after free of one: the span leaves the registry and
    // the address space, so a stale pointer finds nothing to act on. The
    // free-span cache would keep the span alive and hand it to the next
    // malloc; hardened instances must never use it.
    let a = hardened(Hardening::Detect);
    unsafe {
        for round in 1..=3u64 {
            let p = a.malloc(64 << 10);
            assert!(!p.is_null());
            core::ptr::write_bytes(p, 0xAB, 64 << 10);
            a.free(p);
            let h = a.health();
            assert_eq!((h.large_cached_spans, h.large_cached_bytes), (0, 0));
            assert_eq!(a.os_stats().os_frees as u64, round, "the span went straight back");
            // The stale pointer is caught, not served from a cache.
            a.free(p);
            assert_eq!(a.misuse_counters().count(MisuseKind::InvalidFree), round);
        }
        // malloc_zeroed on a hardened instance always gets a fresh span.
        let z = a.malloc_zeroed(64 << 10);
        assert!((0..64 << 10).all(|i| *z.add(i) == 0));
        a.free(z);
    }
    assert_eq!(a.misuse_counters().total(), 3);
    assert!(a.audit().is_clean(), "{:?}", a.audit());
}

#[test]
#[should_panic(expected = "lfmalloc hardened mode")]
fn abort_mode_panics_with_the_report() {
    let a = hardened(Hardening::Abort);
    unsafe {
        let p = a.malloc(64);
        a.free(p);
        a.free(p); // DoubleFree -> panic
    }
}

#[test]
fn hardening_off_reports_nothing_under_normal_use() {
    let a = LfMalloc::new_default();
    unsafe {
        let blocks: Vec<usize> = (0..500)
            .map(|i| a.malloc(16 + (i % 100) * 8) as usize)
            .collect();
        for &p in &blocks {
            assert!(p != 0);
            a.free(p as *mut u8);
        }
    }
    assert_eq!(a.misuse_counters().total(), 0);
    assert_eq!(a.flush_quarantine(), 0, "no quarantine without hardening");
    assert!(a.audit().is_clean());
}

#[test]
fn hardened_mode_survives_mixed_churn_with_audit() {
    // Hardened allocator under ordinary multi-threaded churn: zero
    // reports, clean audit — validation must not misfire on legal use.
    let a = Arc::new(hardened(Hardening::Detect));
    let handles: Vec<_> = (0..4)
        .map(|t| {
            let a = Arc::clone(&a);
            std::thread::spawn(move || {
                let mut live: Vec<(usize, usize)> = Vec::new();
                let mut x = 0x9E3779B9u64.wrapping_mul(t as u64 + 1);
                for _ in 0..3_000 {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    if live.len() > 32 || (!live.is_empty() && x % 2 == 0) {
                        let (p, sz) = live.swap_remove(x as usize % live.len());
                        unsafe {
                            malloc_api::testkit::check_fill(p as *mut u8, sz);
                            a.free(p as *mut u8);
                        }
                    } else {
                        let sz = 8 + (x as usize % 2048);
                        let p = unsafe { a.malloc(sz) };
                        assert!(!p.is_null());
                        unsafe { malloc_api::testkit::fill(p, sz) };
                        live.push((p as usize, sz));
                    }
                }
                for (p, sz) in live {
                    unsafe {
                        malloc_api::testkit::check_fill(p as *mut u8, sz);
                        a.free(p as *mut u8);
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(a.misuse_counters().total(), 0, "{:?}", a.misuse_counters().last_report());
    a.flush_quarantine();
    assert!(a.audit().is_clean(), "{:?}", a.audit());
}
