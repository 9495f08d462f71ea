//! The paper's availability claims, exercised as tests:
//!
//! "A lock-free object must be immune to deadlock even if any number of
//! threads are killed while operating on it. Accordingly, a lock-free
//! object must offer guaranteed availability regardless of arbitrary
//! thread termination or crash-failure."
//!
//! We cannot literally kill a thread mid-instruction from safe Rust, but
//! the observable effect of a kill inside `malloc` is precise: the dying
//! thread holds some partial state (a reserved credit, a half-installed
//! superblock) and never completes its operation. The
//! `simulate_killed_reservation` hook reproduces the canonical case —
//! killed between the reservation CAS and the block pop — and these
//! tests verify the allocator's guarantee: everyone else keeps going.

use lfmalloc_repro::prelude::*;
use malloc_api::testkit;
use std::sync::Arc;

#[test]
fn allocation_survives_abandoned_reservations() {
    let a = LfMalloc::with_config(Config::with_heaps(1)); // all threads share heap 0
    unsafe {
        // Warm up: install an active superblock.
        let p = a.malloc(64);
        assert!(!p.is_null());
        a.free(p);
        // "Kill" 200 threads mid-malloc.
        let mut kills = 0;
        for _ in 0..200 {
            if a.simulate_killed_reservation(64) {
                kills += 1;
            }
            // The allocator must still serve this thread.
            let q = a.malloc(64);
            assert!(!q.is_null(), "allocation blocked after {kills} kills");
            testkit::fill(q, 64);
            testkit::check_fill(q, 64);
            a.free(q);
        }
        assert!(kills > 0, "the hook never found an active superblock to die in");
    }
}

#[test]
fn killed_reservations_leak_at_most_one_block_each() {
    let a = LfMalloc::with_config(Config::with_heaps(1));
    unsafe {
        let p = a.malloc(16);
        a.free(p);
        let mut kills = 0usize;
        for _ in 0..50 {
            if a.simulate_killed_reservation(16) {
                kills += 1;
            }
        }
        println!("abandoned {kills} reservations");
        // Churn hard; the allocator must reuse memory normally. The
        // kills cost at most `kills` blocks (24 B each here), not
        // superblocks.
        for _ in 0..10 {
            let blocks: Vec<*mut u8> = (0..5_000).map(|_| a.malloc(16)).collect();
            for b in &blocks {
                assert!(!b.is_null());
            }
            for b in blocks {
                a.free(b);
            }
        }
        assert!(
            a.hyperblock_count() <= 2,
            "kills must not leak whole superblocks: {} hyperblocks",
            a.hyperblock_count()
        );
    }
}

#[test]
fn concurrent_threads_progress_while_killer_rampages() {
    // One thread continuously "kills itself" mid-malloc; four workers
    // hammer the same single heap. Total progress must match the
    // workers' demands exactly.
    let a = Arc::new(LfMalloc::with_config(Config::with_heaps(1)));
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

    let killer = {
        let a = Arc::clone(&a);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut kills = 0usize;
            while !stop.load(std::sync::atomic::Ordering::Acquire) {
                if a.simulate_killed_reservation(64) {
                    kills += 1;
                }
                std::thread::yield_now();
            }
            kills
        })
    };

    let mut workers = Vec::new();
    for t in 0..4u64 {
        let a = Arc::clone(&a);
        workers.push(std::thread::spawn(move || {
            let mut rng = testkit::TestRng::new(t + 99);
            for _ in 0..20_000 {
                unsafe {
                    let sz = rng.range(1, 128);
                    let p = a.malloc(sz);
                    assert!(!p.is_null());
                    testkit::fill(p, sz);
                    testkit::check_fill(p, sz);
                    a.free(p);
                }
            }
        }));
    }
    for w in workers {
        w.join().unwrap();
    }
    stop.store(true, std::sync::atomic::Ordering::Release);
    let kills = killer.join().unwrap();
    println!("workers completed 80k pairs alongside {kills} mid-malloc kills");
}

/// A thread magazine weakens "a kill leaks at most one block" to a
/// stated bound: a thread killed with its magazines and its outboxes
/// full strands what they hold — at most `magazine::MAX_CACHED_BYTES`
/// (Σ (capacity + outbox capacity) × block size over the cached
/// classes, ≤ 32 classes × 3 KiB) per instance — and still never blocks
/// anyone: other threads allocate, free, adopt other slots and audit
/// clean around the corpse, and a quiescent `trim` takes even that back.
#[test]
fn a_thread_killed_with_full_magazines_strands_a_bounded_amount() {
    use lfmalloc::magazine::{
        capacity, out_capacity, simulate_killed_thread, CACHED_CLASSES, MAX_CACHED_BYTES,
        MAX_CLASS_BYTES,
    };
    use lfmalloc::size_classes::CLASS_SIZES;
    // Magazines step aside while a fault scenario runs; keep the ones
    // below out of this test's way.
    #[cfg(feature = "failpoints")]
    let _quiet = malloc_api::failpoints::no_scenario();

    let size_of = |ci: usize| CLASS_SIZES[ci] as usize - 8;
    let full: usize = (0..CACHED_CLASSES).map(|ci| capacity(ci) + out_capacity(ci)).sum();
    let full_bytes: usize = (0..CACHED_CLASSES)
        .map(|ci| (capacity(ci) + out_capacity(ci)) * CLASS_SIZES[ci] as usize)
        .sum();
    assert_eq!(full_bytes, MAX_CACHED_BYTES);
    assert!(MAX_CACHED_BYTES <= CACHED_CLASSES * MAX_CLASS_BYTES * 3 / 2);

    let a = Arc::new(LfMalloc::with_config(Config::with_heaps(2)));
    // An outbox's worth of this thread's blocks per class, for the
    // victim to free from the other heap.
    let home = lfmalloc::heap::thread_id() % 2;
    let handed: Vec<Vec<usize>> = (0..CACHED_CLASSES)
        .map(|ci| (0..out_capacity(ci)).map(|_| unsafe { a.malloc(size_of(ci)) } as usize).collect())
        .collect();
    a.flush_thread_cache();
    assert_eq!(a.audit().magazine_blocks, 0);
    let victim = &a;
    testkit::on_some_thread(|| unsafe {
        if lfmalloc::heap::thread_id() % 2 == home {
            return None; // this one would free `handed` locally
        }
        // Fill every magazine to the brim: hold a capacity's worth of
        // blocks per class, then free them all (frees up to capacity
        // never flush).
        for ci in 0..CACHED_CLASSES {
            let blocks: Vec<*mut u8> =
                (0..capacity(ci)).map(|_| victim.malloc(size_of(ci))).collect();
            assert!(blocks.iter().all(|p| !p.is_null()));
            // Use up what the last refill left cached, so the frees
            // below are all the magazine ends up holding.
            let mut spare = Vec::new();
            while victim.audit().magazine_blocks > (0..ci).map(capacity).sum::<usize>() {
                spare.push(victim.malloc(size_of(ci)));
            }
            for p in blocks {
                victim.free(p);
            }
            // The spares stay allocated: a kill leaks those too.
            std::mem::forget(spare);
        }
        // Fill every outbox as well (up to its capacity no remote free
        // flushes).
        for &p in handed.iter().flatten() {
            victim.free(p as *mut u8);
        }
        simulate_killed_thread(); // ...and dies here, both rows full
        Some(())
    });

    // The corpse's slot is not up for adoption and maintenance cannot
    // drain it: its owner never said goodbye.
    let rep = a.maintain(MaintenanceBudget::full());
    assert_eq!(rep.magazines_drained, 0, "a killed thread's slot must stay untouched");
    let audit = a.audit();
    assert!(audit.is_clean(), "{audit}");
    assert_eq!(audit.magazine_blocks, full, "exactly the full magazines and outboxes are stranded");

    // Everyone else carries on, magazines and all.
    let mut workers = Vec::new();
    for t in 0..4u64 {
        let a = Arc::clone(&a);
        workers.push(std::thread::spawn(move || {
            let mut rng = testkit::TestRng::new(0xDEAD + t);
            for _ in 0..20_000 {
                unsafe {
                    let sz = rng.range(1, 1024);
                    let p = a.malloc(sz);
                    assert!(!p.is_null(), "allocation blocked behind a killed thread's magazine");
                    testkit::fill(p, sz);
                    testkit::check_fill(p, sz);
                    a.free(p);
                }
            }
        }));
    }
    for w in workers {
        w.join().unwrap();
    }
    let rep = a.maintain(MaintenanceBudget::full());
    assert!(rep.magazines_drained > 0, "the exited workers' slots are drained");
    let audit = a.audit();
    assert!(audit.is_clean(), "{audit}");
    assert_eq!(audit.magazine_blocks, full, "still only the corpse's blocks are cached");
    assert_eq!(a.health().magazine_slots, 2, "the corpse's, and this thread's (empty)");
    // Quiescent now: trim may touch any slot, the corpse's included.
    unsafe { a.trim() };
    let audit = a.audit();
    assert!(audit.is_clean(), "{audit}");
    assert_eq!(audit.magazine_blocks, 0);
}

/// Kill sites beyond the reservation window, reachable only through the
/// deterministic failpoint registry (`--features failpoints`): deaths
/// inside `free` (before the free-list CAS, and between the EMPTY
/// transition and the superblock recycle) and inside the partial-list
/// operations (put, get, and the post-get reservation).
#[cfg(feature = "failpoints")]
mod failpoint_kills {
    use super::*;
    use malloc_api::failpoints::{self as fp, FpAction, FpTrigger};

    #[test]
    fn free_path_kills_leak_blocks_not_progress() {
        let _guard = fp::scenario(0x1C1F);
        fp::arm_limited("free.link", FpAction::Kill, FpTrigger::EveryNth(10), 20);

        let a = LfMalloc::with_config(Config::with_heaps(1));
        unsafe {
            let blocks: Vec<*mut u8> = (0..2_000).map(|_| a.malloc(32)).collect();
            for p in &blocks {
                assert!(!p.is_null());
            }
            for p in blocks {
                a.free(p); // up to 20 of these die before the CAS
            }
            assert_eq!(fp::fired("free.link"), 20, "kill budget not consumed");
            // Each kill leaks exactly one 32-byte-class block; churn must
            // proceed and reuse the rest of the superblocks normally.
            for _ in 0..5 {
                let again: Vec<*mut u8> = (0..2_000).map(|_| a.malloc(32)).collect();
                for p in &again {
                    assert!(!p.is_null(), "allocation blocked after free-path kills");
                }
                for p in again {
                    a.free(p);
                }
            }
            assert!(
                a.hyperblock_count() <= 2,
                "free-path kills must not leak whole hyperblocks"
            );
        }
        let rep = a.audit();
        assert!(rep.is_clean(), "free-path kills corrupted the heap:\n{rep}");
    }

    #[test]
    fn partial_list_kills_leak_descriptors_not_progress() {
        let _guard = fp::scenario(0x9A27);
        // Deaths at every partial-list window: while publishing a
        // partial superblock, while fetching one, and after fetching
        // one but before reserving from it.
        fp::arm_limited("partial.put", FpAction::Kill, FpTrigger::EveryNth(4), 6);
        fp::arm_limited("partial.get", FpAction::Kill, FpTrigger::EveryNth(5), 6);
        fp::arm_limited("partial.reserve", FpAction::Kill, FpTrigger::EveryNth(3), 6);

        let a = LfMalloc::with_config(Config::with_heaps(1));
        unsafe {
            // Drive superblocks through ACTIVE -> PARTIAL -> reuse by
            // freeing strided halves of large batches.
            for round in 0..6 {
                let blocks: Vec<*mut u8> = (0..3_000).map(|_| a.malloc(128)).collect();
                for (i, p) in blocks.iter().enumerate() {
                    assert!(!p.is_null(), "round {round}: allocation blocked");
                    if i % 2 == 0 {
                        a.free(*p);
                    }
                }
                for (i, p) in blocks.iter().enumerate() {
                    if i % 2 != 0 {
                        a.free(*p);
                    }
                }
            }
        }
        let put = fp::fired("partial.put");
        let get = fp::fired("partial.get");
        let reserve = fp::fired("partial.reserve");
        assert!(
            put + get + reserve > 0,
            "no partial-list kill fired (put {put}, get {get}, reserve {reserve})"
        );
        let rep = a.audit();
        assert!(rep.is_clean(), "partial-list kills corrupted the heap:\n{rep}");
    }

    #[test]
    fn empty_transition_kill_strands_one_superblock() {
        let _guard = fp::scenario(0xE391);
        // Die exactly once, between the EMPTY anchor CAS and the
        // superblock's return to the page pool.
        fp::arm_limited("free.empty", FpAction::Kill, FpTrigger::Always, 1);

        let a = LfMalloc::with_config(Config::with_heaps(1));
        unsafe {
            // 4096-byte class: 4 blocks per superblock, so one batch
            // drains a superblock to EMPTY quickly.
            let blocks: Vec<*mut u8> = (0..4).map(|_| a.malloc(4_000)).collect();
            for p in blocks {
                assert!(!p.is_null());
                a.free(p); // the last free dies mid-recycle
            }
            assert_eq!(fp::fired("free.empty"), 1, "the EMPTY-path kill never fired");
            // The superblock is stranded (legal leak), but allocation
            // continues from fresh superblocks.
            let p = a.malloc(4_000);
            assert!(!p.is_null(), "allocation blocked after EMPTY-transition kill");
            a.free(p);
        }
        let rep = a.audit();
        assert!(rep.is_clean(), "EMPTY-transition kill corrupted the heap:\n{rep}");
    }

    /// The free-span cache's two windows (DESIGN.md §16): a thread that
    /// dies holding a span it took out of the cache and had not handed
    /// out yet, or one it was about to park, strands that one span, at
    /// most the per-span bound, and nothing else. Nobody waits for it,
    /// and the audit's byte reconciliation names the gap exactly.
    #[test]
    fn span_cache_kills_strand_one_span_each() {
        const SPAN: usize = (256 << 10) + 4096; // a 256 KiB block's pages
        const PER_SPAN_BOUND: usize = 2 << 20;
        for (site, seed) in [("large.cache_take", 0x7A4E), ("large.cache_put", 0x9071)] {
            let _guard = fp::scenario(seed);
            let a = Arc::new(LfMalloc::with_config(Config::with_heaps(2)));
            unsafe {
                let p = a.malloc(256 << 10);
                a.free(p); // parked
                fp::arm_limited(site, FpAction::Kill, FpTrigger::Always, 1);
                // The victim's malloc takes the span and dies (take), or
                // completes and its free dies holding the span (put).
                let q = a.malloc(256 << 10);
                if site == "large.cache_take" {
                    assert!(q.is_null(), "a killed malloc hands nothing out");
                } else {
                    assert_eq!(q, p);
                    a.free(q);
                }
                assert_eq!(fp::fired(site), 1, "{site} never fired");
            }
            let rep = a.audit();
            assert_eq!(rep.bytes.stranded(), SPAN, "{site}: {rep}");
            assert!(rep.bytes.stranded() <= PER_SPAN_BOUND);
            assert_eq!((rep.large_live, rep.large_cached_spans), (0, 0), "{site}: {rep}");
            let checks: Vec<_> = rep.violations.iter().map(|v| v.check).collect();
            assert_eq!(checks, ["bytes.reconcile"], "{site}: {rep}");

            // Everyone else carries on around the corpse, cache and all.
            let workers: Vec<_> = (0..4u64)
                .map(|t| {
                    let a = Arc::clone(&a);
                    std::thread::spawn(move || {
                        let mut rng = testkit::TestRng::new(0x5BA2 + t);
                        for _ in 0..2_000 {
                            unsafe {
                                let sz = rng.range(16 << 10, 512 << 10);
                                let p = a.malloc(sz);
                                assert!(!p.is_null(), "blocked behind a killed span holder");
                                testkit::fill(p, 512);
                                testkit::check_fill(p, 512);
                                a.free(p);
                            }
                        }
                    })
                })
                .collect();
            for w in workers {
                w.join().unwrap();
            }
            // Quiescent trim empties the cache and takes back the room
            // the corpse had reserved in it; the span itself stays lost.
            unsafe { a.trim() };
            let rep = a.audit();
            assert_eq!(rep.bytes.stranded(), SPAN, "{site}: still exactly the one span");
            assert_eq!(a.os_stats().live_bytes, SPAN + rep.bytes.superblock_bytes
                + rep.bytes.descriptor_slab_bytes);
            assert_eq!(rep.violations.len(), 1, "{site}: {rep}");
        }
    }

    /// The descriptor cycle's windows (DESIGN.md §17.6). A thread killed
    /// at any of them blocks no one, and what it strands is exactly what
    /// it had in hand: nothing where it dies before taking anything, one
    /// descriptor where it held one, one superblock between the EMPTY
    /// transition and the recycle. There is
    /// no per-thread retire list any more, so a death can no longer pin
    /// up to a scan threshold's worth (64) of retired descriptors.
    #[test]
    fn descriptor_cycle_kills_strand_exactly_what_was_in_hand() {
        // One pass takes a two-block superblock through every transition:
        // new, FULL, PARTIAL (into the heap slot), taken from the slot,
        // FULL, PARTIAL, EMPTY, descriptor retired.
        unsafe fn cycle(a: &LfMalloc) {
            unsafe {
                let p0 = a.malloc(8000);
                let p1 = a.malloc(8000);
                a.free(p0);
                let p2 = a.malloc(8000);
                a.free(p1);
                a.free(p2);
            }
        }
        // (site, descriptors stranded, superblocks stranded)
        for (site, descs, sbs) in [
            ("desc.alloc", 0, 0),
            ("stack.pop", 0, 0),
            ("partial.get", 0, 0),
            ("partial.put", 1, 0),
            ("partial.reserve", 1, 0),
            ("desc.retire", 1, 0),
            // The EMPTY descriptor is still in the heap's slot, where the
            // next malloc finds and retires it; only the superblock is lost.
            ("free.empty", 0, 1),
        ] {
            let _guard = fp::scenario(0xDE5C);
            let a = Arc::new(LfMalloc::with_config(Config::with_heaps(1)));
            unsafe {
                cycle(&a);
                assert_eq!(a.audit().descriptors_floating, 0, "{site}: clean start");
                fp::arm_limited(site, FpAction::Kill, FpTrigger::Always, 1);
                cycle(&a); // someone dies in here, once
                assert_eq!(fp::fired(site), 1, "{site} never fired");
            }
            // Everyone else completes around the corpse.
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    let a = Arc::clone(&a);
                    std::thread::spawn(move || {
                        for _ in 0..500 {
                            unsafe { cycle(&a) };
                        }
                    })
                })
                .collect();
            for w in workers {
                w.join().unwrap();
            }
            let rep = a.audit();
            assert!(rep.is_clean(), "{site}: {rep}");
            assert_eq!(rep.descriptors_floating, descs, "{site}: descriptors stranded\n{rep}");
            // What a quiescent trim cannot give back is what the corpse
            // pins: its descriptor's slab, its superblock's hyperblock.
            unsafe { a.trim() };
            let rep = a.audit();
            assert!(rep.is_clean(), "{site} after trim: {rep}");
            assert_eq!(
                (rep.bytes.descriptor_slab_bytes, rep.bytes.superblock_bytes),
                (descs * (16 << 10), sbs * (1 << 20)),
                "{site}: pinned after trim"
            );
        }
    }

    /// The ABA that immediate descriptor reuse opens on a heap's Partial
    /// slot (DESIGN.md §17.3), run step by step: a free empties a
    /// superblock and stalls before `RemoveEmptyDesc`; meanwhile the
    /// descriptor is taken from the slot, retired, handed out again, and
    /// parked in the same slot as a live superblock. The stalled thread's
    /// slot CAS succeeds on the stale pointer; it must notice the
    /// descriptor is no longer the one it emptied and put it back.
    #[test]
    fn a_stalled_emptier_leaves_the_descriptors_next_life_alone() {
        let _guard = fp::scenario(0xABA5);
        let a = LfMalloc::with_config(Config::with_heaps(1));
        unsafe {
            let p0 = a.malloc(8000);
            let p1 = a.malloc(8000) as usize; // same superblock, now FULL
            a.free(p0); // PARTIAL, parked in the heap's slot
            fp::arm_limited("free.empty", FpAction::Park, FpTrigger::Always, 1);
            std::thread::scope(|s| {
                // EMPTY transition done, recycle and RemoveEmptyDesc pending.
                let emptier = s.spawn(|| a.free(p1 as *mut u8));
                while fp::fired("free.empty") == 0 {
                    std::thread::yield_now();
                }
                // This malloc finds the EMPTY descriptor in the slot and
                // retires it, then carves a superblock and pops the same
                // descriptor straight back off DescAvail.
                let q0 = a.malloc(8000);
                let q1 = a.malloc(8000);
                assert!(!q0.is_null() && !q1.is_null());
                testkit::fill(q1, 8000);
                a.free(q0); // FULL -> PARTIAL: into the same slot
                fp::disarm("free.empty");
                emptier.join().unwrap();
                let rep = a.audit();
                assert!(rep.is_clean(), "{rep}");
                assert_eq!(rep.descriptors_floating, 0, "the live descriptor is linked: {rep}");
                // The superblock's second life carries on and ends normally.
                let q2 = a.malloc(8000);
                assert_eq!(q2, q0, "served from the descriptor that was put back");
                testkit::check_fill(q1, 8000);
                a.free(q1);
                a.free(q2);
            });
        }
        let rep = a.audit();
        assert!(rep.is_clean(), "{rep}");
        assert_eq!(rep.descriptors_floating, 0);
    }
}
