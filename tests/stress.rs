//! Heavier stress and invariant tests for the lock-free allocator,
//! run end-to-end through the public API.

use lfmalloc::config::SB_SIZE;
use lfmalloc_repro::prelude::*;
use malloc_api::testkit::{self, TestRng};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// A barrier that a panicking party breaks: a failed assertion in one
/// thread fails the test, where `std::sync::Barrier` would leave the
/// peers waiting for it for ever.
struct Gate {
    parties: usize,
    arrived: AtomicUsize,
    broken: AtomicBool,
}

/// Held by each thread that meets at a [`Gate`]: dropped in a panic, it
/// breaks the gate.
struct Party<'a>(&'a Gate);

impl Gate {
    fn new(parties: usize) -> Gate {
        Gate { parties, arrived: AtomicUsize::new(0), broken: AtomicBool::new(false) }
    }

    fn wait(&self) {
        let turn = self.arrived.fetch_add(1, Ordering::AcqRel) / self.parties;
        while self.arrived.load(Ordering::Acquire) / self.parties == turn {
            assert!(!self.broken.load(Ordering::Acquire), "a peer at the gate panicked");
            std::thread::yield_now();
        }
    }
}

impl Drop for Party<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.broken.store(true, Ordering::Release);
        }
    }
}

#[test]
fn mixed_size_mixed_thread_torture() {
    // 4 threads, sizes spanning every size class plus the large path,
    // random free order, data integrity on every block.
    let a = Arc::new(LfMalloc::new_default());
    let mut handles = Vec::new();
    for t in 0..4u64 {
        let a = Arc::clone(&a);
        handles.push(std::thread::spawn(move || {
            let mut rng = TestRng::new(0x7011 + t);
            let mut live: Vec<(*mut u8, usize)> = Vec::new();
            for i in 0..30_000usize {
                if !live.is_empty() && (live.len() > 100 || rng.range(0, 2) == 0) {
                    let k = rng.range(0, live.len());
                    let (p, sz) = live.swap_remove(k);
                    unsafe {
                        testkit::check_fill(p, sz.min(512));
                        a.free(p);
                    }
                } else {
                    // Mostly small, occasionally large.
                    let sz = if i % 501 == 0 {
                        rng.range(9_000, 100_000)
                    } else {
                        rng.range(1, 2_048)
                    };
                    unsafe {
                        let p = a.malloc(sz);
                        assert!(!p.is_null());
                        testkit::fill(p, sz.min(512));
                        live.push((p, sz));
                    }
                }
            }
            for (p, sz) in live {
                unsafe {
                    testkit::check_fill(p, sz.min(512));
                    a.free(p);
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn space_blowup_is_bounded() {
    // The paper claims space blowup bounded by a constant factor. Keep a
    // steady live set of B bytes through heavy churn and verify the OS
    // peak stays within a small multiple of B.
    let a = LfMalloc::new_default();
    let mut rng = TestRng::new(3);
    let slots = 2_000;
    let mut live: Vec<(*mut u8, usize)> = Vec::new();
    let mut live_bytes = 0usize;
    unsafe {
        for _ in 0..slots {
            let sz = rng.range(16, 128);
            live.push((a.malloc(sz), sz));
            live_bytes += sz;
        }
        // Churn 50k replacements without growing the live set.
        for _ in 0..50_000 {
            let k = rng.range(0, slots);
            let (p, old_sz) = live[k];
            a.free(p);
            let sz = rng.range(16, 128);
            live[k] = (a.malloc(sz), sz);
            live_bytes = live_bytes - old_sz + sz;
        }
        let peak = a.os_stats().peak_bytes;
        // Generous constant: superblock slack + hyperblock granularity
        // (1 MiB floor) dominates at this scale.
        let bound = live_bytes * 16 + (4 << 20);
        assert!(
            peak <= bound,
            "peak {peak} exceeds constant-factor bound {bound} for ~{live_bytes} live bytes"
        );
        for (p, _) in live {
            a.free(p);
        }
    }
}

#[test]
fn empty_superblocks_are_recycled_not_leaked() {
    let a = LfMalloc::new_default();
    unsafe {
        for _round in 0..50 {
            // Fill and drain two whole superblocks' worth of one class.
            let blocks: Vec<*mut u8> = (0..2_048).map(|_| a.malloc(8)).collect();
            for p in blocks {
                a.free(p);
            }
        }
        assert!(
            a.hyperblock_count() <= 2,
            "{} hyperblocks after steady churn",
            a.hyperblock_count()
        );
    }
}

#[test]
fn all_configurations_survive_producer_consumer() {
    use lfmalloc_repro::workloads::producer_consumer::{run, Params};
    let params = Params { database_size: 20_000, tasks: 1_000, work: 50, seed: 5 };
    let configs = [
        Config::detect(),
        Config::with_heaps(1),
        Config::with_heaps(8),
    ];
    for cfg in configs {
        let a = Arc::new(LfMalloc::with_config(cfg));
        let r = run(a, 3, params);
        assert_eq!(r.ops, 1_000, "{cfg:?}");
    }
}

#[test]
fn thread_lifecycle_churn() {
    // Many short-lived threads each doing a little allocation: exercises
    // magazine-slot adoption and thread-id reuse paths.
    let a = Arc::new(LfMalloc::new_default());
    for wave in 0..20 {
        let mut handles = Vec::new();
        for t in 0..8 {
            let a = Arc::clone(&a);
            handles.push(std::thread::spawn(move || unsafe {
                let mut ps = Vec::new();
                for i in 0..200 {
                    ps.push(a.malloc(8 + (wave * 8 + t + i) % 256));
                }
                for p in ps {
                    a.free(p);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}

#[test]
fn large_span_cache_under_four_threads() {
    // Four threads churn large blocks of every cacheable shape against
    // the 8 slots of the free-span cache. Every block carries its
    // owner's tag at both ends for as long as it is live, so a span
    // handed out twice shows as a foreign tag. Between rounds everyone
    // stops and the books are checked.
    const THREADS: usize = 4;
    const ROUNDS: usize = 20;
    // DESIGN.md §16.7: the shared words together, and each thread's own.
    const RETAINED_BOUND: usize = (4 << 20) + THREADS * (128 << 10);
    // An instance of its own, large blocks only: every OS byte it holds
    // is a large span, live or cached.
    let a = LfMalloc::with_config(Config::with_heaps(THREADS));
    let gate = std::sync::Barrier::new(THREADS);
    // Per thread: an upper bound on the OS bytes behind its live blocks.
    let held: Vec<std::sync::atomic::AtomicUsize> =
        (0..THREADS).map(|_| Default::default()).collect();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (a, gate, held) = (&a, &gate, &held);
            s.spawn(move || unsafe {
                let mut rng = TestRng::new(0x1A26E + t as u64);
                let mut live: Vec<(*mut u8, usize, u64, usize)> = Vec::new();
                let mut seq = 0u64;
                let check = |&(p, sz, tag, _): &(*mut u8, usize, u64, usize)| {
                    assert_eq!((p as *const u64).read(), tag, "span handed out twice");
                    assert_eq!((p.add(sz - 8) as *const u64).read_unaligned(), tag);
                };
                for _ in 0..ROUNDS {
                    for _ in 0..400 {
                        if live.len() == 6 || (!live.is_empty() && rng.range(0, 2) == 0) {
                            let b = live.swap_remove(rng.range(0, live.len()));
                            check(&b);
                            a.free(b.0);
                        } else {
                            let sz = rng.range(12 << 10, (1 << 20) + 1);
                            let align = 8usize << rng.range(0, 14); // 8 B ..= 64 KiB
                            let p = a.malloc_aligned(sz, align);
                            assert!(!p.is_null());
                            assert_eq!(p as usize % align, 0, "alignment {align} not honoured");
                            assert!(a.usable_size(p) >= sz);
                            seq += 1;
                            let tag = (t as u64) << 56 | seq;
                            (p as *mut u64).write(tag);
                            (p.add(sz - 8) as *mut u64).write_unaligned(tag);
                            // Span: size + offset of the user area, in
                            // pages, plus a recycled span's slack.
                            let span = (sz + align.max(16) + 4095) / 4096 * 4096;
                            live.push((p, sz, tag, span + span / 4));
                        }
                    }
                    live.iter().for_each(check);
                    held[t].store(live.iter().map(|b| b.3).sum(), Ordering::Relaxed);
                    gate.wait();
                    if t == 0 {
                        let rep = a.audit();
                        assert!(rep.is_clean(), "{rep}");
                        let live_bound: usize =
                            held.iter().map(|h| h.load(Ordering::Relaxed)).sum();
                        assert!(rep.bytes.large_bytes <= live_bound);
                        assert!(rep.bytes.large_cached_bytes <= RETAINED_BOUND);
                        assert!(
                            a.os_stats().live_bytes <= live_bound + RETAINED_BOUND,
                            "{} OS bytes for at most {live_bound} live",
                            a.os_stats().live_bytes
                        );
                    }
                    gate.wait();
                }
                for b in live {
                    check(&b);
                    a.free(b.0);
                }
            });
        }
    });
    assert!(a.health().large_cached_spans > 0, "nothing was ever parked");
    unsafe { a.trim() };
    assert_eq!(a.os_stats().live_bytes, 0);
    assert!(a.audit().is_clean());
}

#[test]
fn superblock_cycle_under_four_threads() {
    // The `sbcycle` shape (64 x 8000 B, two blocks to a superblock,
    // allocated then freed) on four threads over two heaps, half of every
    // thread's frees remote: DescAlloc, DescRetire, ListPutPartial,
    // ListGetPartial and ListRemoveEmptyDesc all race on one size
    // class. (A superblock opens whole for a refill; its two blocks go
    // separate ways, so each comes home on its own: the remote one
    // straight, the local one when its bin is flushed.) Each block
    // carries its owner's tag at both ends while it is live, so a block
    // (or a superblock, through a descriptor handed out twice) given to
    // two owners shows as a foreign tag.
    const THREADS: usize = 4;
    const ROUNDS: usize = 40;
    const BLOCKS: usize = 64;
    const SZ: usize = 8000;
    let a = LfMalloc::with_config(Config::with_heaps(2));
    let gate = Gate::new(THREADS);
    let handed: Vec<std::sync::Mutex<Vec<(usize, u64)>>> =
        (0..THREADS).map(|_| Default::default()).collect();
    let slots_after_first_round = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (a, gate, handed, first) = (&a, &gate, &handed, &slots_after_first_round);
            s.spawn(move || unsafe {
                let _party = Party(gate);
                let check_and_free = |p: *mut u8, tag: u64| {
                    assert_eq!((p as *const u64).read(), tag, "block handed out twice");
                    assert_eq!((p.add(SZ - 8) as *const u64).read(), tag);
                    a.free(p);
                };
                for round in 0..ROUNDS {
                    let mut mine = Vec::with_capacity(BLOCKS);
                    for i in 0..BLOCKS {
                        let p = a.malloc(SZ);
                        assert!(!p.is_null());
                        let tag = (t as u64) << 56 | (round as u64) << 16 | i as u64;
                        (p as *mut u64).write(tag);
                        (p.add(SZ - 8) as *mut u64).write(tag);
                        mine.push((p as usize, tag));
                    }
                    // Every other block goes to the neighbour to free.
                    let theirs: Vec<_> = mine.iter().copied().step_by(2).collect();
                    mine.retain(|b| !theirs.contains(b));
                    *handed[(t + 1) % THREADS].lock().unwrap() = theirs;
                    gate.wait();
                    let remote = std::mem::take(&mut *handed[t].lock().unwrap());
                    for ((p, tag), (q, qtag)) in mine.into_iter().zip(remote) {
                        check_and_free(p as *mut u8, tag);
                        check_and_free(q as *mut u8, qtag);
                    }
                    gate.wait();
                    if t == 0 {
                        let rep = a.audit();
                        assert!(rep.is_clean(), "round {round}: {rep}");
                        if round == 0 {
                            first.store(rep.descriptors_total, Ordering::Relaxed);
                        }
                        assert_eq!(
                            rep.descriptors_total,
                            first.load(Ordering::Relaxed),
                            "descriptor slabs grew in round {round}: retired ones are not coming back"
                        );
                    }
                    gate.wait();
                }
                // What this thread's bin still holds is in its hands.
                a.flush_thread_cache();
            });
        }
    });
    // Every superblock is EMPTY again, and still on its descriptor
    // (DESIGN.md §18): at most one parked per heap slot of the class, the
    // rest on the warm stack; nothing went back to the page pool and
    // nothing is in anyone's hands.
    let h = a.health();
    assert!(h.parked_empty <= 2, "one slot per heap: {h:?}");
    assert_eq!(h.descriptors_in_use(), h.parked_empty, "every other descriptor is retired: {h:?}");
    let rep = a.audit();
    assert_eq!((rep.parked_superblocks, rep.warm_superblocks), (h.parked_empty, h.desc_warm));
    assert_eq!(
        h.retained_empty_bytes(),
        rep.bytes.superblock_bytes.min((h.desc_warm + h.parked_empty) * SB_SIZE),
        "warm + parked is all the retained-EMPTY memory there is: {h:?}"
    );
    assert!(h.desc_warm >= THREADS * BLOCKS / 2 / 2, "a round's worth of superblocks is warm: {h:?}");
    unsafe { a.trim() };
    assert_eq!(a.os_stats().live_bytes, 0);
    assert!(a.audit().is_clean());
}

#[test]
fn empty_descriptors_parked_in_a_partial_list_are_bounded_and_drained() {
    // DESIGN.md §17.4. A LIFO partial list cannot rotate its EMPTY
    // descriptors to the front the way the paper's FIFO does, so they
    // wait beneath a non-empty head. The bound: they are descriptors the
    // class once used, so they never outnumber its peak superblock
    // count; and the class takes them all back before it carves anything
    // new.
    const N: usize = 12; // superblocks per thread, two 8000-byte blocks each
    let a = LfMalloc::with_config(Config::with_heaps(2));
    let listed = || a.health().partial_listed.iter().sum::<usize>();
    // Two threads (two heaps, unless both ids fall on one) fill N
    // superblocks each.
    let per_thread: Vec<Vec<usize>> = (0..2)
        .map(|_| {
            std::thread::scope(|s| {
                s.spawn(|| (0..2 * N).map(|_| unsafe { a.malloc(8000) } as usize).collect())
                    .join()
                    .unwrap()
            })
        })
        .collect();
    let blocks: Vec<usize> = per_thread.concat();
    assert!(blocks.iter().all(|&p| p != 0));
    // Blocks 2k and 2k+1 of a thread share superblock k (the class holds
    // two, and each thread allocated alone on its heap).
    let peak_superblocks = 2 * N;
    assert_eq!(listed(), 0);
    // One block at a time, straight home: this is about where a
    // descriptor waits, not about the magazine a local free would wait in.
    let free_home = |p: usize| unsafe {
        a.free(p as *mut u8);
        a.flush_thread_cache();
    };
    // Free one block of each: every superblock turns PARTIAL and passes
    // through its heap's slot onto the class list.
    for pair in blocks.chunks(2) {
        free_home(pair[0]);
    }
    let on_list = listed();
    assert!(on_list >= peak_superblocks - 2, "{on_list} listed: at most one per heap in a slot");
    assert!(a.audit().is_clean());
    // Empty them, oldest first, all but the one on top of the list (the
    // last one displaced from a slot: the second to last superblock).
    let top = blocks.len() / 2 - 2;
    for (k, pair) in blocks.chunks(2).enumerate() {
        if k != top {
            free_home(pair[1]);
        }
    }
    let rep = a.audit();
    assert!(rep.is_clean(), "{rep}");
    let parked = listed();
    assert_eq!(parked, on_list, "ListRemoveEmptyDesc stops at the non-empty head");
    assert!(
        parked - 1 <= peak_superblocks,
        "{parked} parked, the class never had more than {peak_superblocks}"
    );
    // What §17.4 bounded in descriptors §18 bounds in bytes: every one
    // of them still holds its 16 KiB superblock.
    let h = a.health();
    assert!(h.parked_empty >= parked - 1, "{h:?}");
    assert_eq!(rep.parked_superblocks, h.parked_empty);
    assert!(
        h.retained_empty_bytes() <= peak_superblocks * SB_SIZE,
        "{} B retained, the class never had more than {peak_superblocks} superblocks",
        h.retained_empty_bytes()
    );
    // The class's next mallocs pop down to them: an EMPTY descriptor left
    // in a heap slot first, then the PARTIAL head (one block), then each
    // EMPTY descriptor beneath it is reopened where it is (two blocks,
    // both to the one refill) — all of it before a descriptor is carved,
    // a superblock is asked of the page pool, or anything is mapped.
    let (slots, hyperblocks, os_allocs) =
        (h.descriptor_slots, a.hyperblock_count(), a.os_stats().os_allocs);
    let mut again = Vec::new();
    while listed() > 0 {
        assert!(again.len() <= 2 * peak_superblocks, "the list is not draining");
        let p = unsafe { a.malloc(8000) };
        assert!(!p.is_null());
        again.push(p);
    }
    assert!(again.len() >= 2 * (parked - 1), "every parked superblock served both its blocks");
    let h = a.health();
    assert_eq!(h.descriptor_slots, slots, "no descriptor slab carved");
    assert_eq!(a.hyperblock_count(), hyperblocks, "no hyperblock mapped");
    assert_eq!(a.os_stats().os_allocs, os_allocs, "the OS was not asked");
    assert!(a.audit().is_clean());
    // `maintain` is the other way down: with everything freed again in
    // the same order, it retires whatever is parked, wherever it is.
    a.flush_thread_cache(); // the last refill's other half
    free_home(blocks[2 * top + 1]);
    for p in again {
        free_home(p as usize);
    }
    let rep = a.audit();
    assert!(rep.is_clean(), "{rep}");
    assert!(rep.parked_superblocks > 0);
    a.maintain(MaintenanceBudget::full());
    let h = a.health();
    assert_eq!((h.parked_empty, listed()), (0, 0), "{h:?}");
    assert!(a.audit().is_clean());
    unsafe { a.trim() };
    assert_eq!(a.os_stats().live_bytes, 0);
}

#[test]
fn a_second_sweep_maps_nothing_and_asks_the_page_pool_for_nothing() {
    // The benchmark's `sbcycle` shape, twice, every free going straight
    // home (the paper's transitions; the same two sweeps through the
    // magazine are the next test). The first sweep maps one hyperblock
    // and carves one descriptor slab; after it every superblock is EMPTY
    // and on its descriptor (31 warm, the last one parked in the heap's
    // slot), so the second sweep opens 32 superblocks without the OS, the
    // descriptor slabs or — while a warm pair is left — the page pool
    // hearing of it.
    const BLOCKS: usize = 64;
    // Under `failpoints`: any call of `PagePool::alloc` in the second
    // sweep, for a superblock or a descriptor slab, fails the malloc.
    #[cfg(feature = "failpoints")]
    let _guard = malloc_api::failpoints::scenario(0x5EC0);
    let a = LfMalloc::with_config(Config::with_heaps(1));
    let sweep = || unsafe {
        let blocks: Vec<*mut u8> = (0..BLOCKS).map(|_| a.malloc(8000)).collect();
        assert!(blocks.iter().all(|p| !p.is_null()));
        for p in blocks {
            a.free(p);
            a.flush_thread_cache();
        }
    };
    sweep();
    let first = a.audit();
    assert!(first.is_clean(), "{first}");
    assert_eq!((first.warm_superblocks, first.parked_superblocks), (BLOCKS / 2 - 1, 1), "{first}");
    let (os_allocs, hyperblocks) = (a.os_stats().os_allocs, a.hyperblock_count());
    assert_eq!(hyperblocks, 1);
    #[cfg(feature = "failpoints")]
    {
        use malloc_api::failpoints::{arm, FpAction, FpTrigger};
        arm("pool.carve", FpAction::Kill, FpTrigger::Always);
    }
    sweep();
    #[cfg(feature = "failpoints")]
    assert_eq!(malloc_api::failpoints::fired("pool.carve"), 0, "the page pool was consulted");
    let second = a.audit();
    assert!(second.is_clean(), "{second}");
    assert_eq!(a.os_stats().os_allocs, os_allocs);
    assert_eq!(a.hyperblock_count(), hyperblocks);
    assert_eq!(second.descriptors_total, first.descriptors_total);
    assert_eq!(
        (second.warm_superblocks, second.parked_superblocks),
        (first.warm_superblocks, first.parked_superblocks)
    );
    #[cfg(feature = "stats")]
    {
        let t = a.stats().totals;
        assert_eq!(t.malloc_newsb, BLOCKS as u64, "32 superblock lives a sweep: {t:?}");
        assert_eq!(t.sb_reopen, 1, "the parked one was reopened in place: {t:?}");
        assert_eq!(t.free_empty, t.malloc_newsb, "committed estimate newsb − emptied: {t:?}");
    }
}

#[test]
fn a_sweep_through_the_magazine_opens_and_closes_each_superblock_as_one_run() {
    // DESIGN.md §21, the benchmark's `sbcycle` shape as the default build
    // runs it: a refill takes a two-block superblock whole (stored FULL,
    // installed nowhere), the frees fill the bin, and the full bin goes
    // home as one chain, FULL -> EMPTY, retired warm by the flusher. No
    // superblock is ever PARTIAL, in a slot or on a list; the last pair
    // of a sweep waits in the bin for the next sweep's first two mallocs.
    const BLOCKS: usize = 64;
    // Magazines step aside while a fault scenario runs.
    #[cfg(feature = "failpoints")]
    let _quiet = malloc_api::failpoints::no_scenario();
    let a = LfMalloc::with_config(Config::with_heaps(1));
    let sweep = || unsafe {
        let blocks: Vec<*mut u8> = (0..BLOCKS).map(|_| a.malloc(8000)).collect();
        assert!(blocks.iter().all(|p| !p.is_null()));
        blocks.iter().for_each(|&p| testkit::fill(p, 8000));
        for p in blocks {
            testkit::check_fill(p, 8000);
            a.free(p);
        }
    };
    sweep();
    let first = a.audit();
    assert!(first.is_clean(), "{first}");
    assert_eq!((first.warm_superblocks, first.parked_superblocks), (BLOCKS / 2 - 1, 0), "{first}");
    assert_eq!((first.magazine_blocks, first.descriptors_floating), (2, 1), "{first}");
    let (os_allocs, hyperblocks) = (a.os_stats().os_allocs, a.hyperblock_count());
    assert_eq!(hyperblocks, 1);
    sweep();
    let second = a.audit();
    assert!(second.is_clean(), "{second}");
    assert_eq!((a.os_stats().os_allocs, a.hyperblock_count()), (os_allocs, hyperblocks));
    assert_eq!(second.descriptors_total, first.descriptors_total);
    assert_eq!(
        (second.warm_superblocks, second.magazine_blocks, second.descriptors_floating),
        (first.warm_superblocks, 2, 1)
    );
    assert_eq!(a.health().partial_listed.iter().sum::<usize>(), 0);
    #[cfg(feature = "stats")]
    {
        let t = a.stats().totals;
        assert_eq!(t.malloc_newsb, BLOCKS as u64 - 1, "31 + 32 superblock lives: {t:?}");
        assert_eq!(t.free_empty, t.malloc_newsb - 1, "all but the pair in the bin: {t:?}");
        assert_eq!((t.partial_push, t.partial_pop, t.sb_reopen), (0, 0, 0), "{t:?}");
    }
    assert_eq!(a.flush_thread_cache(), 2);
    unsafe { a.trim() };
    assert_eq!(a.os_stats().live_bytes, 0);
    assert!(a.audit().is_clean());
}

#[test]
fn a_warm_superblock_serves_any_class() {
    // Every superblock is 16 KiB, whatever it is cut into: 60 superblocks
    // filled and drained as 8000-byte blocks come back as 60 superblocks
    // of 4000-byte blocks, out of the one hyperblock (64 superblocks).
    const SBS: usize = 60;
    let a = LfMalloc::with_config(Config::with_heaps(1));
    for (sz, per_sb) in [(8000, 2), (4000, 4)] {
        let blocks: Vec<*mut u8> = (0..SBS * per_sb).map(|_| unsafe { a.malloc(sz) }).collect();
        assert!(blocks.iter().all(|p| !p.is_null()));
        for &p in &blocks {
            unsafe { testkit::fill(p, sz) };
        }
        for p in blocks {
            unsafe {
                testkit::check_fill(p, sz);
                a.free(p);
            }
        }
        let rep = a.audit();
        assert!(rep.is_clean(), "{sz}: {rep}");
        assert_eq!(a.hyperblock_count(), 1, "{sz}: a class could not use another's superblocks");
    }
    // The second class took the first one's warm pairs, not fresh ones.
    let rep = a.audit();
    assert!(rep.warm_superblocks + rep.parked_superblocks <= SBS + 1, "{rep}");
    unsafe { a.trim() };
    assert_eq!(a.os_stats().live_bytes, 0);
}

#[test]
fn parked_empty_superblocks_are_one_per_slot_and_returnable() {
    // DESIGN.md §18's second bound. Four mid classes, two threads
    // (two heaps, unless both ids fall on one), allocate-then-free sweeps:
    // when everything is freed, what is EMPTY is on the warm stack except
    // the last superblock each (class, heap) saw, which is still in that
    // heap's Partial slot (or installed, if it has credits left). A
    // `maintain` pass empties every slot; `trim` returns all of it.
    const SIZES: [usize; 4] = [1500, 3000, 6000, 8000];
    let a = LfMalloc::with_config(Config::with_heaps(2));
    for _ in 0..2 {
        // Joined, not just scoped out: the thread has run its exit
        // sentinel, so the next one adopts its slot and `maintain` finds
        // the owner gone, every run alike.
        std::thread::scope(|s| {
            s.spawn(|| {
                for round in 0..3 {
                    for sz in SIZES {
                        let n = (round + 2) * 3 * SB_SIZE / sz;
                        let blocks: Vec<*mut u8> = (0..n).map(|_| unsafe { a.malloc(sz) }).collect();
                        assert!(blocks.iter().all(|p| !p.is_null()));
                        blocks.into_iter().for_each(|p| unsafe { a.free(p) });
                    }
                }
                // "Everything is freed" includes what the mid row holds.
                a.flush_thread_cache();
            })
            .join()
            .unwrap();
        });
    }
    let rep = a.audit();
    assert!(rep.is_clean(), "{rep}");
    assert!(rep.parked_superblocks <= SIZES.len() * 2, "more than one per (class, heap) slot: {rep}");
    assert!(rep.warm_superblocks > 0);
    let h = a.health();
    assert_eq!(h.parked_empty, rep.parked_superblocks);
    assert_eq!(h.retained_empty_bytes(), (rep.warm_superblocks + rep.parked_superblocks) * SB_SIZE);
    let pruned = a.maintain(MaintenanceBudget::full()).empty_pruned;
    assert_eq!(pruned as usize, rep.parked_superblocks);
    let after = a.audit();
    assert!(after.is_clean(), "{after}");
    assert_eq!(after.parked_superblocks, 0, "maintain left a slot parked");
    assert_eq!(after.warm_superblocks, rep.warm_superblocks + rep.parked_superblocks);
    unsafe { a.trim() };
    assert_eq!(a.os_stats().live_bytes, 0);
    let rep = a.audit();
    assert!(rep.is_clean(), "{rep}");
    assert_eq!((rep.warm_superblocks, rep.parked_superblocks), (0, 0));
}

#[test]
fn reopen_in_place_races_remote_frees_and_slot_displacement() {
    // Two allocating threads and two freeing threads on ONE heap and one
    // class of two-block superblocks, each allocator streaming its blocks
    // to its freer through a bounded channel, so all four run for the
    // whole round. The freers free in allocation order — superblock after
    // superblock goes FULL → PARTIAL (swapped into the one Partial slot,
    // retiring or listing whoever sat there) → EMPTY (parked where it is,
    // or swept off the list) — while the allocators, whose Active word
    // runs dry every second malloc, take descriptors out of that slot and
    // off that list: PARTIAL to reserve from, EMPTY to reopen where they
    // are. Every free goes straight home (flushed out of the freer's bin,
    // which would otherwise pair the blocks up again and send each
    // superblock home whole, past all of the above), and an allocator
    // sends home what its last refill left over before a round ends. A
    // marker ends a round; gates make the audit quiescent, and a thread
    // that fails an assertion breaks them. Each block carries its tag at
    // both ends while live: a superblock reopened under a block still
    // out, or handed to two openers, shows as a foreign tag.
    const PAIRS: usize = 2;
    const ROUNDS: usize = 8;
    const BLOCKS: usize = 5000;
    const IN_FLIGHT: usize = 256;
    const SZ: usize = 8000;
    const END_OF_ROUND: (usize, u64) = (0, 0);
    let a = LfMalloc::with_config(Config::with_heaps(1));
    let gate = Gate::new(2 * PAIRS);
    std::thread::scope(|s| {
        for t in 0..PAIRS {
            let (a, gate) = (&a, &gate);
            let (to_freer, from_allocator) = std::sync::mpsc::sync_channel(IN_FLIGHT);
            s.spawn(move || {
                let _party = Party(gate);
                for round in 0..ROUNDS {
                    for i in 0..BLOCKS {
                        let p = unsafe { a.malloc(SZ) };
                        assert!(!p.is_null());
                        let tag = (t as u64 + 1) << 56 | (round as u64) << 32 | i as u64;
                        unsafe {
                            (p as *mut u64).write(tag);
                            (p.add(SZ - 8) as *mut u64).write(tag);
                        }
                        to_freer.send((p as usize, tag)).unwrap();
                    }
                    to_freer.send(END_OF_ROUND).unwrap();
                    a.flush_thread_cache();
                    gate.wait();
                    if t == 0 {
                        let rep = a.audit();
                        assert!(rep.is_clean(), "round {round}: {rep}");
                        assert_eq!(rep.descriptors_floating, 0, "round {round}: {rep}");
                    }
                    gate.wait();
                }
            });
            s.spawn(move || {
                let _party = Party(gate);
                for (p, tag) in from_allocator {
                    if (p, tag) == END_OF_ROUND {
                        gate.wait();
                        gate.wait();
                        continue;
                    }
                    let p = p as *mut u8;
                    unsafe {
                        assert_eq!((p as *const u64).read(), tag, "block handed out twice");
                        assert_eq!((p.add(SZ - 8) as *const u64).read(), tag);
                        a.free(p);
                        a.flush_thread_cache();
                    }
                }
            });
        }
    });
    #[cfg(feature = "stats")]
    {
        let t = a.stats().totals;
        assert!(t.sb_reopen > 0, "no superblock was ever reopened in place: {t:?}");
        assert!(t.malloc_newsb - t.free_empty <= 1, "every superblock life ended EMPTY, bar one still open: {t:?}");
    }
    unsafe { a.trim() };
    assert_eq!(a.os_stats().live_bytes, 0, "a superblock was lost");
    assert!(a.audit().is_clean());
}

#[test]
fn outbox_flushes_race_the_owners_refills_on_one_anchor() {
    // DESIGN.md §15.7. The owner allocates round r+1 (k-block pops from
    // its active superblocks) and frees its share of round r (local
    // overflows, EMPTY transitions) while the other thread, on the other
    // heap, frees *its* share of round r: parked in its outbox and sent
    // home a run at a time, onto the anchors the owner is popping.
    // Barriers alone order the rounds; each block carries its tag at
    // both ends while live.
    const ROUNDS: usize = 100;
    const PER_ROUND: usize = 1002;
    const SIZES: [usize; 3] = [16, 32, 64];
    // Magazines (outboxes with them) step aside under a fault scenario.
    #[cfg(feature = "failpoints")]
    let _quiet = malloc_api::failpoints::no_scenario();
    let a = LfMalloc::with_config(Config::with_heaps(2));
    let gate = std::sync::Barrier::new(2);
    let handed: [std::sync::Mutex<Vec<(usize, u64)>>; 2] = Default::default();
    // A tag's low half is the block's index in its round, which fixes
    // its size.
    let check_and_free = |(p, tag): (usize, u64)| unsafe {
        let (p, sz) = (p as *mut u8, SIZES[tag as u32 as usize % 3]);
        assert_eq!((p as *const u64).read(), tag, "block handed out twice");
        assert_eq!((p.add(sz - 8) as *const u64).read(), tag);
        a.free(p);
    };
    std::thread::scope(|s| {
        let (a, gate, handed) = (&a, &gate, &handed);
        let (column, owners_column) = std::sync::mpsc::channel();
        s.spawn(move || {
            column.send(lfmalloc::heap::thread_id() % 2).unwrap();
            let mut kept: Vec<(usize, u64)> = Vec::new();
            for round in 0..ROUNDS {
                let mut batch = Vec::with_capacity(PER_ROUND);
                for i in 0..PER_ROUND {
                    let sz = SIZES[i % 3];
                    let p = unsafe { a.malloc(sz) };
                    assert!(!p.is_null());
                    let tag = (round as u64) << 32 | i as u64;
                    unsafe {
                        (p as *mut u64).write(tag);
                        (p.add(sz - 8) as *mut u64).write(tag);
                    }
                    batch.push((p as usize, tag));
                    if i % 2 == 0 {
                        if let Some(mine) = kept.pop() {
                            check_and_free(mine);
                        }
                    }
                }
                kept = batch.iter().copied().step_by(2).collect();
                *handed[round % 2].lock().unwrap() = batch.into_iter().skip(1).step_by(2).collect();
                gate.wait();
            }
            kept.into_iter().for_each(check_and_free);
            a.flush_thread_cache();
        });
        // Only a thread on the other heap joins the owner at the gate.
        let home = owners_column.recv().unwrap();
        testkit::on_some_thread(|| {
            if lfmalloc::heap::thread_id() % 2 == home {
                return None;
            }
            for round in 0..ROUNDS {
                gate.wait();
                let theirs = std::mem::take(&mut *handed[round % 2].lock().unwrap());
                theirs.into_iter().for_each(check_and_free);
            }
            a.flush_thread_cache();
            Some(())
        });
    });
    let audit = a.audit();
    assert!(audit.is_clean(), "{audit}");
    assert_eq!(audit.magazine_blocks, 0, "both threads sent both rows home");
    #[cfg(feature = "stats")]
    {
        let t = a.stats().totals;
        assert_eq!(t.frees(), (ROUNDS * PER_ROUND) as u64, "{t:?}");
        assert_eq!(t.free_outbox, (ROUNDS * PER_ROUND / 2) as u64, "every remote free was parked: {t:?}");
        assert!(t.out_flush > 0 && t.mag_flush > 0 && t.free_empty > 0, "{t:?}");
    }
    // Nothing is live, so trim finds every superblock retired or idle.
    unsafe { a.trim() };
    assert_eq!(a.os_stats().live_bytes, 0, "a block is still live or a superblock was lost");
    assert!(a.audit().is_clean());
}
