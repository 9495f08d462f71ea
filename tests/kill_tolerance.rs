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
    // Failpoints are process-wide: hold the lock every failpoint row
    // holds, so that no site one of them parks or kills at fires in
    // this test's threads instead of the thread it was armed for.
    #[cfg(feature = "failpoints")]
    let _quiet = malloc_api::failpoints::no_scenario();
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
    // Failpoints are process-wide: hold the lock every failpoint row
    // holds, so that no site one of them parks or kills at fires in
    // this test's threads instead of the thread it was armed for.
    #[cfg(feature = "failpoints")]
    let _quiet = malloc_api::failpoints::no_scenario();
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
    // Failpoints are process-wide: hold the lock every failpoint row
    // holds, so that no site one of them parks or kills at fires in
    // this test's threads instead of the thread it was armed for.
    #[cfg(feature = "failpoints")]
    let _quiet = malloc_api::failpoints::no_scenario();
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
/// stated bound: a thread killed with its magazines, its outboxes and
/// its mid row full strands what they hold — at most
/// `magazine::MAX_CACHED_BYTES` (Σ (capacity + outbox capacity) × block
/// size over the 33 classes up to 1 KiB, 79 328 bytes, plus the mid
/// classes' one budget, 49 152: 128 480 bytes ≤ 128 KiB) per instance —
/// and still never blocks anyone: other threads allocate, free, adopt
/// other slots and audit clean around the corpse, and a quiescent `trim`
/// takes even that back.
#[test]
fn a_thread_killed_with_full_magazines_strands_a_bounded_amount() {
    use lfmalloc::magazine::{
        capacity, out_capacity, simulate_killed_thread, CACHED_CLASSES, MAX_CACHED_BYTES,
        MAX_CLASS_BYTES, MID_BUDGET,
    };
    use lfmalloc::size_classes::CLASS_SIZES;
    // Magazines step aside while a fault scenario runs; keep the ones
    // below out of this test's way.
    #[cfg(feature = "failpoints")]
    let _quiet = malloc_api::failpoints::no_scenario();

    let size_of = |ci: usize| CLASS_SIZES[ci] as usize;
    // Two blocks each of four mid classes are the mid row's budget to
    // the byte.
    const MID_FILL: [usize; 4] = [8192, 7168, 5120, 4096];
    let full: usize = (0..CACHED_CLASSES).map(|ci| capacity(ci) + out_capacity(ci)).sum::<usize>()
        + 2 * MID_FILL.len();
    let full_bytes: usize = (0..CACHED_CLASSES)
        .map(|ci| (capacity(ci) + out_capacity(ci)) * CLASS_SIZES[ci] as usize)
        .sum::<usize>()
        + 2 * MID_FILL.iter().sum::<usize>();
    assert_eq!(full_bytes, MAX_CACHED_BYTES);
    assert_eq!(MAX_CACHED_BYTES, 128_480);
    assert!(MAX_CACHED_BYTES <= CACHED_CLASSES * MAX_CLASS_BYTES * 3 / 2 + MID_BUDGET);

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
        // And the mid row, to its budget: each pair is one refill, handed
        // out whole and freed again.
        for sz in MID_FILL {
            let pair = [victim.malloc(sz), victim.malloc(sz)];
            assert!(pair.iter().all(|p| !p.is_null()));
            pair.into_iter().for_each(|p| victim.free(p));
        }
        simulate_killed_thread(); // ...and dies here, all three rows full
        Some(())
    });

    // The corpse's slot is not up for adoption and maintenance cannot
    // drain it: its owner never said goodbye.
    let rep = a.maintain(MaintenanceBudget::full());
    assert_eq!(rep.magazines_drained, 0, "a killed thread's slot must stay untouched");
    let audit = a.audit();
    assert!(audit.is_clean(), "{audit}");
    assert_eq!(audit.magazine_blocks, full, "exactly the full magazines, outboxes and mid row are stranded");

    // Everyone else carries on, magazines and all.
    let mut workers = Vec::new();
    for t in 0..4u64 {
        let a = Arc::clone(&a);
        workers.push(std::thread::spawn(move || {
            let mut rng = testkit::TestRng::new(0xDEAD + t);
            for _ in 0..20_000 {
                unsafe {
                    let sz = rng.range(1, 8192);
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

/// A thread's parked large span belongs to its slot (DESIGN.md §16.7), so
/// a killed thread strands it with the slot's blocks: maintenance passes
/// leave it where it is, the audit counts it parked and stays clean, and
/// a quiescent `trim` returns it. What the corpse holds is at most
/// `magazine::MAX_CACHED_BYTES` of blocks plus one span of at most
/// `large::MAX_THREAD_SPAN`.
#[test]
fn a_thread_killed_with_a_parked_span_strands_it_until_trim() {
    use lfmalloc::large::MAX_THREAD_SPAN;
    use lfmalloc::magazine::{simulate_killed_thread, MAX_CACHED_BYTES};
    #[cfg(feature = "failpoints")]
    let _quiet = malloc_api::failpoints::no_scenario();

    let a = LfMalloc::with_config(Config::with_heaps(1));
    // Joined, so the victim has run its exit sentinel: only the kill
    // keeps its slot owned.
    std::thread::scope(|s| {
        s.spawn(|| unsafe {
            // A 128 KiB span, the most a thread's own word takes, and a
            // few small blocks in the magazine beside it.
            let p = a.malloc(MAX_THREAD_SPAN - 16);
            let small: Vec<*mut u8> = (0..4).map(|_| a.malloc(64)).collect();
            a.free(p);
            small.into_iter().for_each(|q| a.free(q));
            simulate_killed_thread();
        })
        .join()
        .unwrap();
    });
    for pass in 0..3 {
        let rep = a.maintain(MaintenanceBudget::full());
        assert_eq!((rep.magazines_drained, rep.large_spans_released), (0, 0), "pass {pass}");
    }
    let audit = a.audit();
    assert!(audit.is_clean(), "{audit}");
    assert_eq!((audit.large_cached_spans, audit.large_live), (1, 0), "parked, not live: {audit}");
    assert_eq!(audit.bytes.large_cached_bytes, MAX_THREAD_SPAN);
    let stranded = audit.magazine_blocks * 64 + audit.bytes.large_cached_bytes;
    assert!(audit.magazine_blocks >= 4, "{audit}");
    assert!(stranded <= MAX_CACHED_BYTES + MAX_THREAD_SPAN, "{stranded} bytes stranded");

    // Quiescent now: trim may touch any slot, the corpse's included.
    unsafe { a.trim() };
    let audit = a.audit();
    assert!(audit.is_clean(), "{audit}");
    assert_eq!((audit.large_cached_spans, audit.magazine_blocks), (0, 0), "{audit}");
    assert_eq!(a.os_stats().live_bytes, 0, "trim returned the span and the blocks");
}

/// Kill sites beyond the reservation window, reachable only through the
/// deterministic failpoint registry (`--features failpoints`): deaths
/// inside `free` (before the free-list CAS, and right after the EMPTY
/// transition), inside the partial-list operations (put, get, and the
/// post-get reservation) and holding an EMPTY superblock about to be
/// reopened.
#[cfg(feature = "failpoints")]
mod failpoint_kills {
    use super::*;
    use lfmalloc::anchor::Link;
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
    fn empty_transition_kill_strands_nothing() {
        let _guard = fp::scenario(0xE391);
        // Die exactly once, right after the EMPTY anchor CAS. The dying
        // thread held nothing: the superblock stays on its descriptor,
        // the descriptor in the heap's Partial slot (DESIGN.md §18).
        fp::arm_limited("free.empty", FpAction::Kill, FpTrigger::Always, 1);

        let a = LfMalloc::with_config(Config::with_heaps(1));
        unsafe {
            // 4096-byte class: 4 blocks per superblock, so one batch
            // drains a superblock to EMPTY quickly. A fifth block keeps
            // the Active word on a second superblock.
            let blocks: Vec<*mut u8> = (0..5).map(|_| a.malloc(4_000)).collect();
            assert!(blocks.iter().all(|p| !p.is_null()));
            for &p in &blocks[..4] {
                a.free(p); // the last of these dies right after its CAS
            }
            assert_eq!(fp::fired("free.empty"), 1, "the EMPTY-path kill never fired");
            let rep = a.audit();
            assert!(rep.is_clean(), "EMPTY-transition kill corrupted the heap:\n{rep}");
            assert_eq!((rep.parked_superblocks, rep.descriptors_floating), (1, 0), "{rep}");
            // The class's next mallocs drain the second superblock, then
            // take the parked one out of the slot and reopen it: the same
            // four blocks come back.
            let again: Vec<*mut u8> = (0..7).map(|_| a.malloc(4_000)).collect();
            assert!(blocks[..4].iter().all(|p| again.contains(p)), "the parked superblock was not reused");
            assert_eq!(a.hyperblock_count(), 1);
            for p in again.into_iter().chain([blocks[4]]) {
                a.free(p);
            }
        }
        let rep = a.audit();
        assert!(rep.is_clean(), "{rep}");
        assert_eq!(rep.descriptors_floating, 0, "{rep}");
        unsafe { a.trim() };
        assert_eq!(a.os_stats().live_bytes, 0, "the kill stranded something");
    }

    /// The free-span cache's two windows (DESIGN.md §16): a thread that
    /// dies holding a span it took out of the cache and had not handed
    /// out yet, or one it was about to park, strands that one span, at
    /// most the per-span bound, and nothing else. Nobody waits for it.
    /// The span is still counted mapped and is in no slot, so the audit
    /// reads it as one live large block nobody will free — the way it
    /// reads a small block in a dead thread's hands — and stays clean;
    /// after a drained `trim()` the source names it: one span still live.
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
            assert!(rep.is_clean(), "{site}: {rep}");
            assert_eq!((rep.large_live, rep.large_cached_spans), (1, 0), "{site}: {rep}");
            assert_eq!((rep.bytes.large_bytes, rep.bytes.stranded()), (SPAN, 0), "{site}: {rep}");
            assert!(rep.bytes.large_bytes <= PER_SPAN_BOUND);

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
            // Quiescent trim empties the cache; the span itself stays
            // lost, and is all the source still counts live.
            unsafe { a.trim() };
            assert_eq!(a.os_stats().live_bytes, SPAN, "{site}: still exactly the one span");
            let rep = a.audit();
            assert!(rep.is_clean(), "{site}: {rep}");
            assert_eq!((rep.large_live, rep.bytes.stranded()), (1, 0), "{site}: {rep}");
        }
    }

    /// The take window again, with the span coming out of the victim's own
    /// word (DESIGN.md §16.7) — armed outside a scenario, which would send
    /// the call past that word. Two spans of one size: the older sits in
    /// the thread's word, the newer in a shared one, and the thread's word
    /// is looked in first, so the span the killed `malloc` held is the
    /// older and the newer serves the next call. Same books as the shared
    /// row: one live large block nobody will free, nothing stranded.
    #[test]
    fn a_take_from_the_threads_own_word_killed_strands_that_one_span() {
        const SPAN: usize = (64 << 10) + 4096;
        let _quiet = fp::no_scenario();
        fp::clear();
        let a = LfMalloc::with_config(Config::with_heaps(2));
        unsafe {
            let (older, newer) = (a.malloc(64 << 10), a.malloc(64 << 10));
            a.free(older);
            a.free(newer);
            fp::arm_limited("large.cache_take", FpAction::Kill, FpTrigger::Always, 1);
            assert!(a.malloc(64 << 10).is_null(), "a killed malloc hands nothing out");
            assert_eq!(fp::fired("large.cache_take"), 1);
            let rep = a.audit();
            assert!(rep.is_clean(), "{rep}");
            assert_eq!((rep.large_live, rep.large_cached_spans), (1, 1), "{rep}");
            assert_eq!((rep.bytes.large_bytes, rep.bytes.stranded()), (SPAN, 0), "{rep}");
            // The thread's word is empty, not stuck: it takes the next
            // free, and gives the span back to the next malloc.
            let q = a.malloc(64 << 10);
            assert_eq!(q, newer, "the shared word's span was the one taken");
            a.free(q);
            assert_eq!(a.malloc(64 << 10), q);
            a.free(q);
            a.trim();
        }
        fp::clear();
        assert_eq!(a.os_stats().live_bytes, SPAN, "still exactly the one span");
        let rep = a.audit();
        assert!(rep.is_clean(), "{rep}");
        assert_eq!((rep.large_live, rep.bytes.stranded()), (1, 0), "{rep}");
    }

    /// The descriptor cycle's windows (DESIGN.md §17.6, §18). A thread
    /// killed at any of them blocks no one, and what it strands is exactly
    /// what it had in hand: nothing where it dies before taking anything
    /// or after letting go (the EMPTY transition: the pair stays where it
    /// was parked), one descriptor *and the superblock attached to it*
    /// where it held one — since PR 16 nobody takes a superblock off a
    /// descriptor it does not hold, so a lost descriptor's superblock no
    /// longer finds its own way back to the page pool. There is no
    /// per-thread retire list, so a death cannot pin more than that.
    ///
    /// The last two rows are the transitions of DESIGN.md §21, which only
    /// a magazine reaches: a refill that took a two-block superblock whole
    /// dies right after storing its anchor FULL (it held both blocks and
    /// the only reference), and a flusher whose chain was the whole
    /// superblock dies between the FULL -> EMPTY CAS and the retire (it
    /// was the pair's exclusive holder). One pair each.
    #[test]
    fn descriptor_cycle_kills_strand_exactly_what_was_in_hand() {
        // One pass takes two two-block superblocks, A and B, through every
        // transition: A reopened out of the heap slot, B popped off the
        // warm stack; both FULL, PARTIAL (B's descriptor displacing A's
        // from the slot onto the class list), taken again (B from the
        // slot, A off the list), FULL, PARTIAL again, EMPTY — B parked in
        // the slot, A swept off the list and retired warm.
        unsafe fn cycle(a: &LfMalloc) {
            unsafe {
                let (a0, a1) = (a.malloc(8000), a.malloc(8000));
                let (b0, b1) = (a.malloc(8000), a.malloc(8000));
                a.free(a0);
                a.free(b0);
                let (b2, a2) = (a.malloc(8000), a.malloc(8000));
                for p in [a1, b1, b2, a2] {
                    a.free(p);
                }
            }
        }
        // The same two superblocks through the magazine: each opened
        // whole by one refill, each sent home whole — A by the free that
        // finds the bin full of it, B by the flush.
        unsafe fn cached_cycle(a: &LfMalloc) {
            unsafe {
                let (a0, a1) = (a.malloc(8000), a.malloc(8000));
                let (b0, b1) = (a.malloc(8000), a.malloc(8000));
                for p in [a0, a1, b0, b1] {
                    a.free(p);
                }
                a.flush_thread_cache();
            }
        }
        // (site, descriptor + superblock pairs stranded, through the magazine)
        for (site, pairs, cached) in [
            ("desc.alloc", 0, false),
            ("stack.pop", 0, false),
            ("partial.get", 0, false),
            ("partial.put", 1, false),
            ("partial.reserve", 1, false),
            ("desc.retire", 1, false),
            ("sb.reopen", 1, false),
            // The dying thread had let go: the EMPTY pair is where the
            // anchor CAS found it, and the next malloc takes it from there.
            ("free.empty", 0, false),
            ("sb.full", 1, true),
            ("free.whole", 1, true),
        ] {
            // A scenario keeps magazines out of the way; the last two rows
            // need them in, and only the scenario lock.
            let _guard = (!cached).then(|| fp::scenario(0xDE5C));
            let _quiet = cached.then(|| {
                let lock = fp::no_scenario();
                fp::clear();
                lock
            });
            let cycle = if cached { cached_cycle } else { cycle };
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
            assert_eq!(rep.descriptors_floating, pairs, "{site}: descriptors stranded\n{rep}");
            // What a quiescent trim cannot give back is what the corpse
            // pins: its descriptor's slab, its superblock's hyperblock.
            unsafe { a.trim() };
            let rep = a.audit();
            assert!(rep.is_clean(), "{site} after trim: {rep}");
            assert_eq!(
                (rep.bytes.descriptor_slab_bytes, rep.bytes.superblock_bytes),
                (pairs * (16 << 10), pairs * (1 << 20)),
                "{site}: pinned after trim"
            );
            fp::clear();
        }
    }

    /// DESIGN.md §21's ownership argument, run step by step: a flusher's
    /// chain is a whole two-block superblock, its CAS takes the anchor
    /// FULL -> EMPTY, and it is frozen before the retire. The pair is in no
    /// slot, on no list and on no stack — its alone: another thread sweeps
    /// the class (opening, filling, emptying and retiring superblock after
    /// superblock) and `maintain` prunes and reaps around it without ever
    /// seeing the pair; thawed, the flusher retires it warm.
    #[test]
    fn a_flusher_frozen_with_a_whole_superblock_holds_the_pair_alone() {
        let _quiet = fp::no_scenario(); // magazines in, other scenarios out
        fp::clear();
        let o = OracleMalloc::new(LfMalloc::with_config(Config::with_heaps(1)));
        let a = o.inner();
        let sb_of = |p: *mut u8| p as usize & !(16384 - 1);
        let frozen_sb = std::sync::atomic::AtomicUsize::new(0);
        fp::arm_limited("free.whole", FpAction::Park, FpTrigger::Always, 1);
        std::thread::scope(|s| unsafe {
            let flusher = s.spawn(|| {
                let (p0, p1) = (o.malloc(8000), o.malloc(8000));
                assert_eq!(sb_of(p0), sb_of(p1));
                frozen_sb.store(sb_of(p0), std::sync::atomic::Ordering::Release);
                o.free(p0);
                o.free(p1);
                a.flush_thread_cache() // one chain, FULL -> EMPTY, and parks
            });
            // A failed assertion below must not leave the scope waiting
            // for a thread nobody will thaw.
            struct Thaw;
            impl Drop for Thaw {
                fn drop(&mut self) {
                    fp::disarm("free.whole");
                }
            }
            let _thaw = Thaw;
            while fp::fired("free.whole") == 0 {
                std::thread::yield_now();
            }
            let frozen_sb = frozen_sb.load(std::sync::atomic::Ordering::Acquire);
            for _ in 0..3 {
                let blocks: Vec<*mut u8> = (0..64).map(|_| o.malloc(8000)).collect();
                assert!(blocks.iter().all(|&p| !p.is_null() && sb_of(p) != frozen_sb));
                blocks.into_iter().for_each(|p| o.free(p));
                a.maintain(MaintenanceBudget::full());
            }
            a.flush_thread_cache();
            let rep = a.audit();
            assert!(rep.is_clean(), "{rep}");
            assert_eq!(
                (rep.descriptors_floating, rep.parked_superblocks, rep.magazine_blocks),
                (1, 0, 0),
                "the frozen pair, and nothing else, is in nobody's structure\n{rep}"
            );
            let warm = rep.warm_superblocks;
            fp::disarm("free.whole");
            assert_eq!(flusher.join().unwrap(), 2);
            let rep = a.audit();
            assert!(rep.is_clean(), "{rep}");
            assert_eq!((rep.descriptors_floating, rep.warm_superblocks), (0, warm + 1), "{rep}");
            // And it serves again: the warm stack's top.
            let p = o.malloc(8000);
            assert_eq!(sb_of(p), frozen_sb);
            o.free(p);
        });
        assert_eq!(o.verify_all(), 0);
        assert_eq!(o.violation_count(), 0);
        unsafe { a.trim() };
        assert_eq!(a.os_stats().live_bytes, 0);
        assert!(a.audit().is_clean());
        fp::clear();
    }

    /// A malloc that took an EMPTY descriptor out of the heap's slot is
    /// frozen before it reopens the superblock (DESIGN.md §18). The pair
    /// is its alone: everyone else finds the slot empty and carries on
    /// with other superblocks — filling, emptying, parking and displacing
    /// in the same slot — and when the frozen thread resumes it finds
    /// another superblock installed, loses the install, and retires its
    /// pair warm and untouched.
    #[test]
    fn a_frozen_reopener_holds_its_pair_alone() {
        let _guard = fp::scenario(0x5B0E);
        let a = LfMalloc::with_config(Config::with_heaps(1));
        unsafe {
            let sb_of = |p: *mut u8| p as usize & !(16384 - 1);
            let p0 = a.malloc(4_000);
            let parked_sb = sb_of(p0);
            a.free(p0);
            // Uninstall it: three more blocks drain the credits, four
            // frees make it EMPTY, parked in the slot.
            let rest: Vec<*mut u8> = (0..4).map(|_| a.malloc(4_000)).collect();
            rest.into_iter().for_each(|p| a.free(p));
            let rep = a.audit();
            assert_eq!((rep.parked_superblocks, rep.warm_superblocks), (1, 0), "{rep}");
            fp::arm_limited("sb.reopen", FpAction::Park, FpTrigger::Always, 1);
            std::thread::scope(|s| {
                let frozen = s.spawn(|| a.malloc(4_000) as usize);
                while fp::fired("sb.reopen") == 0 {
                    std::thread::yield_now();
                }
                // Around the frozen thread: a second superblock opens,
                // fills, parks PARTIAL in the slot, goes EMPTY there, is
                // reopened by the next malloc, and ends up installed.
                let blocks: Vec<*mut u8> = (0..4).map(|_| a.malloc(4_000)).collect();
                assert!(blocks.iter().all(|&p| !p.is_null() && sb_of(p) != parked_sb));
                blocks.iter().for_each(|&p| testkit::fill(p, 4_000));
                blocks.iter().for_each(|&p| {
                    testkit::check_fill(p, 4_000);
                    a.free(p)
                });
                let q = a.malloc(4_000);
                assert!(sb_of(q) != parked_sb, "the frozen thread's superblock was handed out");
                fp::disarm("sb.reopen");
                // Active is installed (q's superblock has credits), so the
                // frozen malloc loses its install, retires its pair and is
                // served by the ladder's next turn.
                let r = frozen.join().unwrap() as *mut u8;
                assert!(!r.is_null());
                let rep = a.audit();
                assert!(rep.is_clean(), "{rep}");
                assert_eq!((rep.warm_superblocks, rep.descriptors_floating), (1, 0), "{rep}");
                a.free(q);
                a.free(r);
            });
        }
        unsafe { a.trim() };
        assert_eq!(a.os_stats().live_bytes, 0);
        assert!(a.audit().is_clean());
    }

    /// The ABA that immediate descriptor reuse opened on a heap's Partial
    /// slot (DESIGN.md §17.3), run step by step: a free empties a
    /// superblock and stalls right after its anchor CAS; meanwhile the
    /// descriptor is taken from the slot, reopened, filled, and parked in
    /// the same slot as a live superblock. Through PR 15 the stalled
    /// thread then CASed the stale pointer out of the slot and needed a
    /// second look not to retire a live descriptor; now it only *loads*
    /// the slot, sees the descriptor parked there, and leaves — a thread
    /// that made a superblock EMPTY holds no reference to it (§18).
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
                // EMPTY transition done, the look at the slot pending.
                let emptier = s.spawn(|| a.free(p1 as *mut u8));
                while fp::fired("free.empty") == 0 {
                    std::thread::yield_now();
                }
                // This malloc finds the EMPTY descriptor in the slot and
                // reopens it, superblock and all.
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
                assert_eq!(q2, q0, "served from the descriptor that was left alone");
                testkit::check_fill(q1, 8000);
                a.free(q1);
                a.free(q2);
            });
        }
        let rep = a.audit();
        assert!(rep.is_clean(), "{rep}");
        assert_eq!(rep.descriptors_floating, 0);
    }

    /// DESIGN.md §20.3, run step by step on a four-block superblock: a
    /// popper is frozen between its walk and its CAS, holding a
    /// reservation and having read `avail = 1 | V`. Around it the rest of
    /// the superblock is popped (the frontier passes the frozen thread's
    /// block), filled, freed (explicit links now lead to a `V` link) and
    /// popped again across that link — but never goes EMPTY, because the
    /// frozen thread's reservation is outstanding (§3.2.3), which is why
    /// no later life can show it `1 | V` again. Its CAS loses, its retry
    /// takes the one block nobody else holds; the oracle checks every
    /// hand-out, the audit the structure.
    #[test]
    fn a_popper_frozen_on_a_virgin_head_loses_its_cas_and_takes_only_its_own_block() {
        let _guard = fp::scenario(0x5EC0);
        let o = OracleMalloc::new(LfMalloc::with_config(Config::with_heaps(1)));
        let a = o.inner();
        const SZ: usize = 4_000; // class 4096: blocks 0..4
        let idx_in = |sb: usize, p: *mut u8| (p as usize - sb) / 4096;
        unsafe {
            let p0 = o.malloc(SZ); // opens the superblock: 1 | V, two credits
            let sb = p0 as usize & !(16384 - 1);
            fp::arm_limited("active.walked", FpAction::Park, FpTrigger::Always, 1);
            std::thread::scope(|s| {
                let frozen = s.spawn(|| o.malloc(SZ) as usize);
                // A failed assertion below must not leave the scope
                // waiting for a thread nobody will thaw.
                struct Thaw;
                impl Drop for Thaw {
                    fn drop(&mut self) {
                        fp::disarm("active.walked");
                    }
                }
                let _thaw = Thaw;
                while fp::fired("active.walked") == 0 {
                    std::thread::yield_now();
                }
                // The frontier moves past what the frozen thread walked:
                // blocks 1 and 2 go out under `V`, the superblock is FULL.
                let (q1, q2) = (o.malloc(SZ), o.malloc(SZ));
                assert_eq!((idx_in(sb, q1), idx_in(sb, q2)), (1, 2));
                // Everything anyone holds goes back: 0 -> 2 -> 1 -> 3 | V
                // (the oracle checks its fill pattern on every free).
                for p in [q1, q2, p0] {
                    o.free(p);
                }
                let rep = a.audit();
                assert!(rep.is_clean(), "{rep}");
                assert_eq!(
                    (rep.parked_superblocks, rep.warm_superblocks),
                    (0, 0),
                    "a reservation is outstanding: the superblock is not EMPTY\n{rep}"
                );
                // And out again, across the `V` link, as far as the
                // reservation lets the list go: block 3 stays.
                let again: Vec<*mut u8> = (0..3).map(|_| o.malloc(SZ)).collect();
                assert_eq!(
                    again.iter().map(|&p| idx_in(sb, p)).collect::<Vec<_>>(),
                    [0, 2, 1],
                    "the list order, then the frozen thread's block left alone"
                );
                fp::disarm("active.walked");
                // The frozen CAS expected `1 | V`; the anchor reads `3 | V`
                // a dozen tag values later. The retry walks from there.
                let r = frozen.join().unwrap() as *mut u8;
                assert_eq!((r as usize & !(16384 - 1), idx_in(sb, r)), (sb, 3));
                for p in again.into_iter().chain([r]) {
                    o.free(p);
                }
            });
            assert_eq!(o.verify_all(), 0);
            assert_eq!(o.violation_count(), 0);
            let rep = a.audit();
            assert!(rep.is_clean(), "{rep}");
            assert_eq!((rep.parked_superblocks, rep.descriptors_floating), (1, 0), "{rep}");
            a.trim();
            assert_eq!(a.os_stats().live_bytes, 0);
        }
    }

    /// A refill frozen between its walk and its CAS, where the walk used
    /// an outbox run's hops (DESIGN.md §15.3, §15.7), with the magazines
    /// running. Meanwhile another thread's outbox run lands on the same
    /// anchor, and the owner's pops take it and then the very blocks the
    /// frozen walk named. The frozen CAS loses (head and tag have moved),
    /// and the retry takes the list's head as it then is: blocks nobody
    /// holds, in list order. The oracle checks every hand-out, the audit the structure.
    #[test]
    fn a_popper_frozen_on_a_packed_run_loses_its_cas_and_takes_only_free_blocks() {
        let _quiet = fp::no_scenario(); // magazines in, other scenarios out
        fp::clear();
        let o = OracleMalloc::new(LfMalloc::with_config(Config::with_heaps(2)));
        let a = o.inner();
        const K: usize = 16; // a refill's, and an outbox's, worth of 8-byte blocks
        let sb_of = |p: usize| p & !(16384 - 1);
        let home = lfmalloc::heap::thread_id() % 2;
        let on_the_other_heap = |blocks: &[usize]| {
            testkit::on_some_thread(|| {
                (lfmalloc::heap::thread_id() % 2 != home).then(|| {
                    blocks.iter().for_each(|&p| unsafe { o.free(p as *mut u8) });
                    a.flush_thread_cache()
                })
            })
        };
        unsafe {
            // Three refills' worth: the Active word keeps 31 credits, so
            // neither the frozen refill nor the owner's below takes its last.
            let mine: Vec<usize> = (0..3 * K).map(|_| o.malloc(8) as usize).collect();
            a.flush_thread_cache();
            let sb = sb_of(mine[0]);
            assert!(mine.iter().all(|&p| sb_of(p) == sb));
            let idx = |p: usize| ((p - sb) / 8) as u32;
            let newest_first = |run: &[usize]| run.iter().rev().copied().collect::<Vec<_>>();
            // Two packed runs go home: the one the frozen walk will use on
            // top of the one its retry will take.
            assert_eq!(on_the_other_heap(&mine[..K]), K);
            assert_eq!(on_the_other_heap(&mine[K..2 * K]), K);
            let (retried, walked) = (newest_first(&mine[..K]), newest_first(&mine[K..2 * K]));
            let head_word = *(walked[0] as *const u64);
            assert_eq!(
                (Link::from_word(head_word), Link::hops(head_word)),
                (Link::explicit(idx(walked[1])), 4)
            );
            fp::arm_limited("active.walked", FpAction::Park, FpTrigger::Always, 1);
            std::thread::scope(|s| {
                // A failed assertion below must not leave the scope
                // waiting for a thread nobody will thaw.
                struct Thaw;
                impl Drop for Thaw {
                    fn drop(&mut self) {
                        fp::disarm("active.walked");
                    }
                }
                let _thaw = Thaw;
                // The frozen thread shares the owner's heap: its refill
                // walks the packed run, 16 positions in four loads.
                let frozen = loop {
                    let t = s.spawn(|| {
                        (lfmalloc::heap::thread_id() % 2 == home)
                            .then(|| (0..K).map(|_| o.malloc(8) as usize).collect::<Vec<_>>())
                    });
                    while !t.is_finished() && fp::fired("active.walked") == 0 {
                        std::thread::yield_now();
                    }
                    if fp::fired("active.walked") == 1 {
                        break t;
                    }
                    assert!(t.join().unwrap().is_none());
                };
                // A third run lands on top, and the owner's next two
                // refills pop it and then everything the frozen walk named.
                assert_eq!(on_the_other_heap(&mine[2 * K..]), K);
                let popped: Vec<usize> = (0..2 * K).map(|_| o.malloc(8) as usize).collect();
                assert_eq!(popped, [newest_first(&mine[2 * K..]), walked].concat());
                fp::disarm("active.walked");
                let got = frozen.join().unwrap().expect("the frozen refill's thread");
                assert_eq!(got, retried, "the list's head as the retry found it");
                popped.into_iter().chain(got).for_each(|p| o.free(p as *mut u8));
            });
            a.flush_thread_cache();
        }
        assert_eq!(o.verify_all(), 0);
        assert_eq!(o.violation_count(), 0);
        let rep = a.audit();
        assert!(rep.is_clean(), "{rep}");
        assert_eq!(rep.magazine_blocks, 0, "{rep}");
        unsafe { a.trim() };
        assert_eq!(a.os_stats().live_bytes, 0);
        fp::clear();
    }

    /// The walk plan's row (DESIGN.md §15.3): a refill frozen between a
    /// walk that loaded the words the descriptor's `hint` named and its
    /// CAS. Another thread's outbox run lands on top and rewrites the
    /// hint, and the owner pops exactly that run, so the anchor's head is
    /// the frozen walk's head again under a newer tag. The frozen CAS
    /// loses on the tag alone; the retry finds a hint that names blocks the
    /// owner now holds and does not lead the head, walks without it, and
    /// takes the head as it then is — the run the frozen walk had read.
    /// The oracle checks every hand-out, the audit the structure.
    #[test]
    fn a_popper_frozen_after_a_hinted_walk_loses_to_a_run_that_rewrote_the_hint() {
        use lfmalloc::anchor::Plan;
        let _quiet = fp::no_scenario(); // magazines in, other scenarios out
        fp::clear();
        let o = OracleMalloc::new(LfMalloc::with_config(Config::with_heaps(2)));
        let a = o.inner();
        const K: usize = 16; // a refill's, and an outbox's, worth of 8-byte blocks
        let sb_of = |p: usize| p & !(16384 - 1);
        let home = lfmalloc::heap::thread_id() % 2;
        let on_the_other_heap = |blocks: &[usize]| {
            testkit::on_some_thread(|| {
                (lfmalloc::heap::thread_id() % 2 != home).then(|| {
                    blocks.iter().for_each(|&p| unsafe { o.free(p as *mut u8) });
                    a.flush_thread_cache()
                })
            })
        };
        unsafe {
            // Three refills' worth: the Active word keeps 31 credits, so
            // neither the frozen refill nor the owner's below takes its last.
            let mine: Vec<usize> = (0..3 * K).map(|_| o.malloc(8) as usize).collect();
            a.flush_thread_cache();
            let sb = sb_of(mine[0]);
            assert!(mine.iter().all(|&p| sb_of(p) == sb));
            let desc = &*a.descriptor_of(sb);
            let idx = |p: usize| ((p - sb) / 8) as u32;
            let newest_first = |run: &[usize]| run.iter().rev().copied().collect::<Vec<_>>();
            let plan_of = |run: &[usize]| Plan::of_run(&run.iter().map(|&p| idx(p)).collect::<Vec<_>>());
            // Two packed runs go home; the frozen walk and its retry both
            // start at the one on top.
            assert_eq!(on_the_other_heap(&mine[..K]), K);
            assert_eq!(on_the_other_heap(&mine[K..2 * K]), K);
            let walked = newest_first(&mine[K..2 * K]);
            let head = Link::explicit(idx(walked[0]));
            assert_eq!(desc.load_anchor().head(), head);
            assert_eq!(desc.hint(), plan_of(&walked));
            assert!(desc.hint().leads(head) && desc.hint().len() == 4, "the frozen walk is hinted");
            fp::arm_limited("active.walked", FpAction::Park, FpTrigger::Always, 1);
            std::thread::scope(|s| {
                // A failed assertion below must not leave the scope
                // waiting for a thread nobody will thaw.
                struct Thaw;
                impl Drop for Thaw {
                    fn drop(&mut self) {
                        fp::disarm("active.walked");
                    }
                }
                let _thaw = Thaw;
                // The frozen thread shares the owner's heap.
                let frozen = loop {
                    let t = s.spawn(|| {
                        (lfmalloc::heap::thread_id() % 2 == home)
                            .then(|| (0..K).map(|_| o.malloc(8) as usize).collect::<Vec<_>>())
                    });
                    while !t.is_finished() && fp::fired("active.walked") == 0 {
                        std::thread::yield_now();
                    }
                    if fp::fired("active.walked") == 1 {
                        break t;
                    }
                    assert!(t.join().unwrap().is_none());
                };
                // A third run lands on top and its plan replaces the one
                // the frozen walk used; the owner's next refill pops it.
                let third = newest_first(&mine[2 * K..]);
                assert_eq!(on_the_other_heap(&mine[2 * K..]), K);
                assert_eq!(desc.hint(), plan_of(&third));
                let tag = desc.load_anchor().tag();
                let popped: Vec<usize> = (0..K).map(|_| o.malloc(8) as usize).collect();
                assert_eq!(popped, third);
                let now = desc.load_anchor();
                assert_eq!((now.head(), now.tag()), (head, tag + 1), "the frozen head, a newer tag");
                assert!(!desc.hint().leads(head), "the hint names the run the owner took");
                fp::disarm("active.walked");
                let got = frozen.join().unwrap().expect("the frozen refill's thread");
                assert_eq!(got, walked, "the list's head as the retry found it");
                // Below it the first run, untouched: the owner's next refill.
                let rest: Vec<usize> = (0..K).map(|_| o.malloc(8) as usize).collect();
                assert_eq!(rest, newest_first(&mine[..K]));
                [popped, got, rest].concat().into_iter().for_each(|p| o.free(p as *mut u8));
            });
            a.flush_thread_cache();
        }
        assert_eq!(o.verify_all(), 0);
        assert_eq!(o.violation_count(), 0);
        let rep = a.audit();
        assert!(rep.is_clean(), "{rep}");
        assert_eq!(rep.magazine_blocks, 0, "{rep}");
        unsafe { a.trim() };
        assert_eq!(a.os_stats().live_bytes, 0);
        fp::clear();
    }

    /// A death between the reservation and the pop, and one before a
    /// free's CAS, while the anchor says `i | V`: the reserved block stays
    /// in the virgin run, one more than the anchor and the Active word
    /// account for; the unfreed block stays allocated; nothing else is
    /// lost and nothing is written anywhere.
    #[test]
    fn kills_under_a_virgin_anchor_leak_only_the_blocks_in_hand() {
        let _guard = fp::scenario(0x71A6);
        let a = LfMalloc::with_config(Config::with_heaps(1));
        unsafe {
            let p0 = a.malloc(100); // class 112: 146 blocks, all but block 0 virgin
            let sb = p0 as usize & !(16384 - 1);
            fp::arm_limited("active.reserved", FpAction::Kill, FpTrigger::Always, 1);
            let p1 = a.malloc(100); // one reservation dies; the ladder's next turn serves
            assert_eq!(fp::fired("active.reserved"), 1);
            assert_eq!(p1 as usize, p0 as usize + 112, "served from the same run, in order");
            fp::arm_limited("free.link", FpAction::Kill, FpTrigger::Always, 1);
            a.free(p1); // dies before the CAS: block 1 stays allocated
            assert_eq!(fp::fired("free.link"), 1);
            let rep = a.audit();
            assert!(rep.is_clean(), "{rep}");
            // The rest of the superblock is handed out in ascending order
            // and runs out two blocks early: block 1, and the reservation.
            let mut rest = Vec::new();
            loop {
                let p = a.malloc(100);
                if p as usize & !(16384 - 1) != sb {
                    a.free(p);
                    break;
                }
                rest.push(p as usize);
            }
            assert!(rest.windows(2).all(|w| w[1] == w[0] + 112), "the virgin run, in order");
            assert_eq!(rest.first(), Some(&(p0 as usize + 2 * 112)));
            assert_eq!(rest.len(), 146 - 2 - 1, "one block leaked per kill");
            let rep = a.audit();
            assert!(rep.is_clean(), "{rep}");
            for p in rest {
                a.free(p as *mut u8);
            }
            a.free(p0);
            let rep = a.audit();
            assert!(rep.is_clean(), "{rep}");
        }
    }
}
