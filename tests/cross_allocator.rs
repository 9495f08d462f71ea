//! Cross-crate integration: every allocator in the workspace satisfies
//! the same contract and runs every §4.1 workload.

use lfmalloc_repro::prelude::*;
use lfmalloc_repro::workloads::producer_consumer::Params;
use lfmalloc_repro::workloads::{
    false_sharing, larson, linux_scalability, producer_consumer, threadtest,
};
use malloc_api::testkit;
use std::sync::Arc;

type Dyn = Arc<dyn RawMalloc + Send + Sync>;

fn all_allocators() -> Vec<Dyn> {
    vec![
        Arc::new(LfMalloc::new_default()),
        Arc::new(Hoard::new(3)),
        Arc::new(Ptmalloc::new()),
        Arc::new(LockedHeap::new()),
    ]
}

#[test]
fn conformance_battery_every_allocator() {
    for a in all_allocators() {
        let name = a.name().to_string();
        let wrapped = Arc::new(a);
        testkit::check_basic(&*wrapped);
        testkit::check_zero_size(&*wrapped);
        testkit::check_free_orders(&*wrapped, 0xC0DE);
        testkit::check_concurrent_churn(Arc::clone(&wrapped), 3, 1_500);
        testkit::check_remote_free(wrapped, 2, 400);
        println!("{name}: ok");
    }
}

#[test]
fn linux_scalability_on_every_allocator() {
    for a in all_allocators() {
        let r = linux_scalability::run(Arc::new(a), 3, 5_000);
        assert_eq!(r.ops, 15_000);
    }
}

#[test]
fn threadtest_on_every_allocator() {
    for a in all_allocators() {
        let r = threadtest::run(Arc::new(a), 2, 3, 2_000);
        assert_eq!(r.ops, 12_000);
    }
}

#[test]
fn false_sharing_workloads_on_every_allocator() {
    for a in all_allocators() {
        let a = Arc::new(a);
        let r = false_sharing::run_active(Arc::clone(&a), 2, 200, 10);
        assert_eq!(r.ops, 400);
        let r = false_sharing::run_passive(a, 2, 200, 10);
        assert_eq!(r.ops, 400);
    }
}

#[test]
fn larson_on_every_allocator() {
    for a in all_allocators() {
        let r = larson::run(Arc::new(a), 3, 256, 3_000, 99);
        assert_eq!(r.ops, 9_000);
    }
}

#[test]
fn producer_consumer_on_every_allocator() {
    let params = Params { database_size: 50_000, tasks: 1_500, work: 50, seed: 11 };
    for a in all_allocators() {
        let r = producer_consumer::run(Arc::new(a), 3, params);
        assert_eq!(r.ops, 1_500);
    }
}

#[test]
fn hardened_lfmalloc_rejects_foreign_allocator_pointers() {
    // A block from another allocator freed into a hardened lfmalloc
    // must be detected as an invalid free — not corrupt either heap —
    // and must remain freeable by its real owner.
    use lfmalloc_repro::lfmalloc::MisuseKind;
    let lf = LfMalloc::with_config(Config::detect().with_hardening(Hardening::Detect));
    let hoard = Hoard::new(2);
    unsafe {
        let p = hoard.malloc(64);
        assert!(!p.is_null());
        testkit::fill(p, 64);
        lf.free(p);
        assert_eq!(lf.misuse_counters().count(MisuseKind::InvalidFree), 1);
        assert_eq!(lf.misuse_counters().total(), 1);
        // Both heaps are unharmed: lfmalloc audits clean, the hoard
        // block still carries its data and goes back to hoard.
        assert!(lf.audit().is_clean(), "{:?}", lf.audit());
        testkit::check_fill(p, 64);
        hoard.free(p);
        assert_eq!(hoard.misuse_count(), 0);
        // And lfmalloc keeps serving allocations afterwards.
        let q = lf.malloc(64);
        assert!(!q.is_null());
        lf.free(q);
    }
    lf.flush_quarantine();
    assert!(lf.audit().is_clean());
}

#[test]
fn blocks_from_different_allocators_are_independent() {
    // Interleave blocks from all four allocators; data must never
    // cross-contaminate and each block must go back to its own origin.
    let allocs = all_allocators();
    unsafe {
        let mut live: Vec<(usize, *mut u8, usize)> = Vec::new();
        for round in 0..200 {
            let ai = round % allocs.len();
            let sz = 16 + (round * 7) % 400;
            let p = allocs[ai].malloc(sz);
            assert!(!p.is_null());
            testkit::fill(p, sz);
            live.push((ai, p, sz));
        }
        for (ai, p, sz) in live {
            testkit::check_fill(p, sz);
            allocs[ai].free(p);
        }
    }
}

#[test]
fn zeroed_large_block_after_a_dirty_free_on_every_allocator() {
    // A freed large block may be handed out again; `malloc_zeroed` must
    // not trust it to be clean. lfmalloc does hand the same span out
    // again (its free-span cache), which is the case this pins.
    const N: usize = 64 << 10;
    for a in all_allocators() {
        unsafe {
            let p = a.malloc(N);
            assert!(!p.is_null());
            core::ptr::write_bytes(p, 0xAB, N);
            a.free(p);
            let q = a.malloc_zeroed(N);
            assert!(!q.is_null());
            if a.name() == "lfmalloc" {
                assert_eq!(q, p, "the cached span is reused");
            }
            let dirty = (0..N).filter(|&i| *q.add(i) != 0).count();
            assert_eq!(dirty, 0, "{}: malloc_zeroed returned {dirty} non-zero bytes", a.name());
            a.free(q);
        }
    }
}
