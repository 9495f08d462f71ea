//! Memory-pressure resilience, end to end through the public
//! malloc/free API:
//!
//! * a pressure burst up to a byte cap, a full drain, and
//!   [`LfMalloc::trim`] must hand essentially everything back to the OS
//!   (within one hyperblock of zero live bytes);
//! * a total OS outage ([`FlakySource::fail_next`]) must degrade to null
//!   returns — never a panic — while frees keep succeeding, and service
//!   must recover on its own once the outage drains;
//! * the emergency descriptor reserve must keep the free path (and its
//!   EMPTY-superblock bookkeeping) alive after the source dies;
//! * construction is fallible ([`LfMalloc::try_with_config_and_source`])
//!   and lazy: an allocator over a dead source builds fine and reports
//!   OOM per-call.
//!
//! Every scenario ends in a clean [`LfMalloc::audit`]. See DESIGN.md §7
//! and EXPERIMENTS.md ("OOM torture") for the policy and repro commands.

use lfmalloc_repro::prelude::*;
use malloc_api::testkit;
use osmem::{CountingSource, FlakySource, PageSource, SystemSource};
use std::sync::Arc;

/// One hyperblock: the trim watermark's natural resolution.
const HYPERBLOCK: usize = 1 << 20;

fn assert_clean<S: osmem::PageSource + Send + Sync>(a: &LfMalloc<S>, scenario: &str, seed: u64) {
    let rep = a.audit();
    assert!(rep.is_clean(), "audit violations (scenario {scenario}, seed {seed:#x}):\n{rep}");
}

/// Mixed small/medium/large request sizes.
fn burst_size(rng: &mut testkit::TestRng) -> usize {
    match rng.range(0, 10) {
        0..=5 => rng.range(8, 256),
        6..=8 => rng.range(256, 8192),
        _ => rng.range(8192, 40_000),
    }
}

#[test]
fn trim_returns_a_pressure_burst_to_the_os() {
    testkit::for_each_seed("pressure burst + trim", &[0x7212_0001, 0x7212_0002], |seed| {
        let src = Arc::new(CountingSource::new(SystemSource::new()));
        let a = LfMalloc::with_config_and_source(Config::with_heaps(2), Arc::clone(&src));
        let mut rng = testkit::TestRng::new(seed);
        let mut live: Vec<(*mut u8, usize)> = Vec::new();

        // Burst: allocate mixed sizes until 32 MiB is held.
        const CAP: usize = 32 << 20;
        let mut held = 0usize;
        unsafe {
            while held < CAP {
                let sz = burst_size(&mut rng);
                let p = a.malloc(sz);
                assert!(!p.is_null(), "system source denied a burst alloc (seed {seed:#x})");
                testkit::fill(p, sz);
                live.push((p, sz));
                held += sz;
            }
            assert!(src.stats().live_bytes >= CAP / 2, "burst never reached the OS");

            // Drain and trim: everything must come back, the large
            // spans the frees parked in the span cache included.
            for (p, sz) in live.drain(..) {
                testkit::check_fill(p, sz);
                a.free(p);
            }
            assert!(a.health().large_cached_spans > 0, "the burst's large frees parked nothing");
            let released = a.trim();
            assert_eq!(a.health().large_cached_bytes, 0, "trim left spans cached");
            assert!(released > 0, "trim released nothing after a full drain (seed {seed:#x})");
        }
        let after = src.stats().live_bytes;
        assert!(
            after <= HYPERBLOCK,
            "trim left {after} OS bytes live (> one hyperblock; seed {seed:#x})"
        );
        assert_clean(&a, "post-trim", seed);

        // The trimmed allocator must be fully serviceable.
        unsafe {
            let p = a.malloc(4096);
            assert!(!p.is_null());
            testkit::fill(p, 4096);
            testkit::check_fill(p, 4096);
            a.free(p);
        }
        assert_clean(&a, "post-trim reuse", seed);
    });
}

#[test]
fn trim_to_watermark_keeps_a_warm_cache() {
    let src = Arc::new(CountingSource::new(SystemSource::new()));
    let a = LfMalloc::with_config_and_source(Config::with_heaps(1), Arc::clone(&src));
    unsafe {
        let blocks: Vec<*mut u8> = (0..20_000).map(|_| a.malloc(64)).collect();
        for p in blocks {
            assert!(!p.is_null());
            a.free(p);
        }
        // Keep up to two hyperblocks of superblock cache for the next
        // burst; release the rest.
        a.trim_to(2 * HYPERBLOCK);
    }
    let kept = a.hyperblock_count();
    assert!(kept <= 2, "watermark ignored: {kept} hyperblocks");
    assert_clean(&a, "trim_to watermark", 0);
    // The retained cache serves the next burst without mapping a fresh
    // hyperblock. (A 16 KiB descriptor slab may be re-carved — trim
    // releases fully-free slabs too — so count hyperblocks, not calls.)
    unsafe {
        let p = a.malloc(64);
        assert!(!p.is_null());
        a.free(p);
    }
    assert_eq!(a.hyperblock_count(), kept, "warm hyperblock cache was not used");
}

#[test]
fn full_outage_yields_nulls_then_recovers() {
    testkit::for_each_seed("full outage + recovery", &[0x0, 0xDEAD_BEEF, 0x5CA1_AB1E], |seed| {
        let src = Arc::new(FlakySource::reliable(CountingSource::new(SystemSource::new())));
        let a = LfMalloc::with_config_and_source(Config::with_heaps(2), Arc::clone(&src));

        // Warm up: some small blocks stay cached across the outage.
        let warm: Vec<*mut u8> = unsafe { (0..512).map(|_| a.malloc(64)).collect() };
        assert!(warm.iter().all(|p| !p.is_null()));

        // Total outage, deeper than the retry budget can absorb.
        let denials_before = src.denials();
        src.fail_next(400);

        unsafe {
            // Large blocks the span cache has nothing for go to the OS:
            // with the source dark, they must come back null — not
            // panic, not spin forever.
            let mut nulls = 0;
            for _ in 0..8 {
                let p = a.malloc(HYPERBLOCK);
                if p.is_null() {
                    nulls += 1;
                } else {
                    a.free(p);
                }
            }
            assert!(nulls > 0, "outage never surfaced as null (seed {seed:#x})");
            assert!(src.denials() > denials_before, "outage plan never fired");

            // Frees never touch the source: draining the warm set must
            // succeed mid-outage, and the recycled blocks keep small
            // mallocs serviceable from cache while the OS is dark.
            for p in warm {
                a.free(p);
            }
            let cached = a.malloc(64);
            assert!(!cached.is_null(), "cached superblocks must serve during an outage");
            a.free(cached);

            // Recovery: keep asking until the outage drains. Each
            // attempt consumes at most 1 + 8 denials (the retries), so the
            // bound below is generous.
            let mut recovered = false;
            for _ in 0..200 {
                let p = a.malloc(HYPERBLOCK);
                if !p.is_null() {
                    a.free(p);
                    recovered = true;
                    break;
                }
            }
            assert!(recovered, "service never recovered after the outage (seed {seed:#x})");
        }
        assert_clean(&a, "outage + recovery", seed);

        // After recovery, trim still reconciles to (near) zero.
        unsafe { a.trim() };
        let after = src.stats().live_bytes;
        assert!(after <= HYPERBLOCK, "post-recovery trim left {after} bytes (seed {seed:#x})");
        assert_clean(&a, "post-recovery trim", seed);
    });
}

/// A source with a hard byte cap, like a cgroup limit: a request that
/// would take the live bytes over the cap is refused.
struct CappedSource {
    inner: CountingSource<SystemSource>,
    cap: usize,
}

unsafe impl PageSource for CappedSource {
    unsafe fn alloc_pages(&self, size: usize, align: usize) -> *mut u8 {
        if self.inner.stats().live_bytes + size > self.cap {
            return core::ptr::null_mut();
        }
        unsafe { self.inner.alloc_pages(size, align) }
    }
    unsafe fn dealloc_pages(&self, ptr: *mut u8, size: usize, align: usize) {
        unsafe { self.inner.dealloc_pages(ptr, size, align) }
    }
    fn stats(&self) -> malloc_api::AllocStats {
        self.inner.stats()
    }
    fn zeroes_fresh_pages(&self) -> bool {
        self.inner.zeroes_fresh_pages()
    }
}

#[test]
fn cached_spans_are_given_back_when_the_os_says_no() {
    // Under a byte cap, the spans parked in the free-span cache are what
    // stands between a request and success. The first refusal must hand
    // them back, and the retry that follows must then fit (§7.2).
    let src = Arc::new(CappedSource {
        inner: CountingSource::new(SystemSource::new()),
        cap: 3 * HYPERBLOCK,
    });
    let a = LfMalloc::with_config_and_source(Config::with_heaps(1), Arc::clone(&src));
    let park_two_mib = || unsafe {
        let (p, q) = (a.malloc(HYPERBLOCK), a.malloc(HYPERBLOCK));
        assert!(!p.is_null() && !q.is_null());
        a.free(p);
        a.free(q);
        assert!(a.health().large_cached_bytes >= 2 * HYPERBLOCK);
    };
    unsafe {
        // A large request neither cached span is big enough for, and
        // that does not fit under the cap next to them.
        park_two_mib();
        let big = a.malloc(3 * HYPERBLOCK / 2);
        assert!(!big.is_null(), "2 MiB sat in the cache while 1.5 MiB was refused");
        assert_eq!(a.health().large_cached_bytes, 0);
        a.free(big);
        a.trim();

        // The first small malloc: a descriptor slab and a hyperblock.
        park_two_mib();
        let small = a.malloc(64);
        assert!(!small.is_null(), "2 MiB sat in the cache while a hyperblock was refused");
        assert_eq!(a.health().large_cached_bytes, 0);
        a.free(small);
    }
    assert_clean(&a, "capped source", 0);
    unsafe { a.trim() };
    assert_eq!(src.stats().live_bytes, 0);
}

#[test]
fn empty_superblocks_parked_under_one_class_serve_another_before_the_os_is_asked() {
    // An EMPTY superblock stays on its descriptor (DESIGN.md §18), and a
    // descriptor buried in one class's partial list is out of every other
    // class's sight. A phase change from 8000 B blocks to 4000 B ones
    // must still find those superblocks: before another hyperblock is
    // mapped (no cap), and before OOM is reported (a cap that has no room
    // for a second hyperblock).
    for cap in [usize::MAX, HYPERBLOCK + (64 << 10)] {
        let src = Arc::new(CappedSource { inner: CountingSource::new(SystemSource::new()), cap });
        let a = LfMalloc::with_config_and_source(Config::with_heaps(1), Arc::clone(&src));
        unsafe {
            // 60 superblocks of two 8000 B blocks each; one free apiece
            // makes every one PARTIAL (one in the heap's slot, 59 listed),
            // the second free makes 58 of them EMPTY where they are, all
            // beneath a listed one that is not. Each block goes home on
            // its own, not by way of the magazine.
            let blocks: Vec<*mut u8> = (0..120).map(|_| a.malloc(8000)).collect();
            assert!(blocks.iter().all(|p| !p.is_null()));
            assert_eq!(a.hyperblock_count(), 1);
            let free_home = |p: *mut u8| {
                a.free(p);
                assert_eq!(a.flush_thread_cache(), 1);
            };
            for pair in blocks.chunks(2) {
                free_home(pair[0]);
            }
            for pair in blocks.chunks(2).take(58) {
                free_home(pair[1]);
            }
            assert!(a.health().parked_empty >= 57, "the idle superblocks are parked: {:?}", a.health());

            // 120 blocks of another class: 30 superblocks, of which the
            // page pool has 4.
            let other: Vec<*mut u8> = (0..120).map(|_| a.malloc(4000)).collect();
            let served = other.iter().filter(|p| !p.is_null()).count();
            assert_eq!(served, 120, "OOM beside 58 idle superblocks (cap {cap:#x})");
            assert_eq!(a.hyperblock_count(), 1, "mapped beside 58 idle superblocks (cap {cap:#x})");
            assert_clean(&a, "cross-class phase change", cap as u64);

            for p in other {
                a.free(p);
            }
            for pair in blocks.chunks(2).skip(58) {
                a.free(pair[1]);
            }
            a.trim();
        }
        assert_clean(&a, "cross-class phase change, trimmed", cap as u64);
        assert_eq!(src.stats().live_bytes, 0);
    }
}

#[test]
fn descriptor_reserve_keeps_frees_alive_after_source_death() {
    // A tight budget: a few hyperblocks' worth of OS grants, then the
    // source dies for good (no outage recovery, no refill).
    let src = Arc::new(FlakySource::new(CountingSource::new(SystemSource::new()), 6));
    let a = LfMalloc::with_config_and_source(Config::with_heaps(1), Arc::clone(&src));

    let mut live: Vec<*mut u8> = Vec::new();
    unsafe {
        // Allocate until the allocator reports OOM (bounded: 6 grants
        // can back at most a few hundred thousand 64-byte blocks).
        for _ in 0..1_000_000 {
            let p = a.malloc(64);
            if p.is_null() {
                break;
            }
            live.push(p);
        }
    }
    assert!(!live.is_empty(), "budget of 6 grants served nothing");
    assert!(src.denials() > 0, "the source never went dry");
    assert!(
        a.descriptor_reserve_len() > 0,
        "no emergency descriptors on hand at exhaustion"
    );

    // Every free — including the EMPTY-superblock transitions they
    // trigger — must succeed with the source dead.
    unsafe {
        for p in live.drain(..) {
            a.free(p);
        }
        // And the recycled memory serves new requests without the OS.
        let p = a.malloc(64);
        assert!(!p.is_null(), "recycled memory unusable after source death");
        a.free(p);
    }
    assert_clean(&a, "dead-source drain", 0);
}

#[test]
fn construction_is_fallible_and_lazy() {
    // try_* constructors report failure as a value...
    let a = LfMalloc::try_new_default().expect("healthy construction must succeed");
    drop(a);

    // ...and construction over a dead source succeeds because no pages
    // are mapped until the first malloc, which then fails per-call.
    let dead = Arc::new(FlakySource::new(SystemSource::new(), 0));
    let a = LfMalloc::try_with_config_and_source(Config::with_heaps(1), Arc::clone(&dead))
        .expect("construction must not touch the page source");
    unsafe {
        assert!(a.malloc(64).is_null());
        assert!(a.malloc(4 << 20).is_null());
        a.free(core::ptr::null_mut()); // free(NULL) is a no-op, even now
    }
    assert!(dead.denials() > 0);
    assert_clean(&a, "dead source from birth", 0);
}
