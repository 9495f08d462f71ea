//! Fork torture: process-lifecycle robustness under concurrent load.
//!
//! Lock-freedom's availability argument (§2 of the paper: immunity to
//! deadlock "even if any number of threads are killed while operating")
//! extends naturally to `fork(2)`, which is a mass thread kill: the
//! child inherits the whole heap image but only the forking thread.
//! These tests fork repeatedly while other threads hammer the
//! allocators and then prove, in the child:
//!
//! * lfmalloc serves allocations immediately, drains every orphaned
//!   magazine slot, passes a full [`LfMalloc::audit`] — descriptor
//!   conservation included: the threads the fork left behind held no
//!   retire lists, so nothing is adopted — and reports the recovery in
//!   its health snapshot (DESIGN.md §12, §17.6);
//! * the reaper thread — which died in the fork — is respawned, and
//!   `stop_reaper` never tries to join the corpse;
//! * the three lock-based baselines, which WOULD deadlock when forked
//!   mid-allocation, never do so under their atfork guards (prepare
//!   acquires every lock, parent/child release);
//! * the differential oracle replays cleanly over a forked heap.
//!
//! Children communicate only via `_exit` codes (no panic unwinding, no
//! stdio in the child; a failed audit also writes its report to fd 2
//! with raw `write(2)`); the parent reaps with a watchdog that
//! converts a hung child — i.e. a deadlock — into `SIGKILL` plus a test
//! failure instead of a hung CI job.

use lfmalloc_repro::prelude::*;
use malloc_api::procfork::{self, sys};
use malloc_api::testkit::for_each_seed;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Child exit codes (each failure mode gets its own, so a red test says
/// what broke without child-side stdio).
const OK: i32 = 0;
const NULL_ALLOC: i32 = 10;
const AUDIT_VIOLATION: i32 = 11;
const HEALTH_MISMATCH: i32 = 12;
const ORACLE_VIOLATION: i32 = 13;
const REAPER_STUCK: i32 = 14;
const MAGAZINE_LOST: i32 = 15;
const ORPHANS_KEPT: i32 = 16;
const SPAN_CACHE_LOST: i32 = 17;

/// Serializes fork scenarios: the test harness is multithreaded, and
/// concurrent `waitpid` loops could reap each other's children.
fn fork_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|p| p.into_inner())
}

/// Child side: audits `a` and, if the audit objects, writes the report
/// to fd 2 with raw `write(2)` calls (stdio stays out of the child) and
/// exits with [`AUDIT_VIOLATION`], so a rare red run names its check.
fn audit_or_exit(a: &LfMalloc) {
    let report = a.audit();
    if !report.is_clean() {
        let msg = format!("child audit: {report}\n");
        let mut rest = msg.as_bytes();
        while !rest.is_empty() {
            let n = unsafe { sys::write(2, rest.as_ptr(), rest.len()) };
            if n <= 0 {
                break;
            }
            rest = &rest[n as usize..];
        }
        unsafe { sys::_exit(AUDIT_VIOLATION) };
    }
}

/// Reaps `pid` with a deadline. A child that deadlocks (the exact bug
/// these tests exist to catch) is SIGKILLed and reported as a failure
/// rather than hanging the suite.
fn wait_child(pid: i32, what: &str) -> i32 {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    let mut status = 0i32;
    loop {
        let r = unsafe { sys::waitpid(pid, &mut status, sys::WNOHANG) };
        if r == pid {
            match sys::exit_code(status) {
                Some(code) => return code,
                None => panic!("{what}: child {pid} killed by signal (status {status:#x})"),
            }
        }
        assert!(r == 0, "{what}: waitpid failed ({r})");
        if std::time::Instant::now() > deadline {
            unsafe {
                sys::kill(pid, sys::SIGKILL);
                sys::waitpid(pid, &mut status, 0);
            }
            panic!("{what}: child {pid} hung past the deadline — deadlock in the child");
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
}

/// Spawns `n` allocator-hammering threads that run until `stop`. The
/// returned closure is the per-thread body.
fn hammer<A: RawMalloc + Send + Sync>(a: &A, stop: &AtomicBool, seed: u64) {
    let mut x = seed | 1;
    let mut held: Vec<(*mut u8, usize)> = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        // xorshift: cheap deterministic size/action stream.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let size = 1 + (x as usize % 1500);
        unsafe {
            if held.len() >= 64 || (x & 3 == 0 && !held.is_empty()) {
                let (p, _) = held.swap_remove(x as usize % held.len());
                a.free(p);
            } else {
                let p = a.malloc(size);
                if !p.is_null() {
                    p.write(0xA5);
                    held.push((p, size));
                }
            }
        }
    }
    for (p, _) in held {
        unsafe { a.free(p) };
    }
}

/// Child-side proof for lfmalloc: the heap must work immediately, the
/// audit must be clean (every descriptor slot on a free stack, linked
/// or in use, whatever the threads the fork dropped were doing), and the
/// health snapshot must show exactly one recovery at the child's
/// generation.
fn lfmalloc_child_check(a: &LfMalloc) -> ! {
    unsafe {
        let mut ptrs = Vec::new();
        for i in 0..2_000usize {
            let p = a.malloc(1 + (i * 37) % 4_000);
            if p.is_null() {
                sys::_exit(NULL_ALLOC);
            }
            p.write(0x5A);
            ptrs.push(p);
        }
        for p in ptrs {
            a.free(p);
        }
    }
    audit_or_exit(a);
    let h = a.health();
    if h.fork_recoveries != 1 || h.fork_generation != procfork::generation() {
        unsafe { sys::_exit(HEALTH_MISMATCH) };
    }
    unsafe { sys::_exit(OK) };
}

/// The tentpole scenario: fork lfmalloc under multithreaded load, with
/// seeds varying the interleaving; the child must recover and audit
/// clean every time.
#[test]
fn lfmalloc_child_recovers_after_fork_under_load() {
    let _serial = fork_lock();
    for_each_seed("fork under load", &[0x5EED_1, 0x5EED_2, 0x5EED_3, 0x5EED_4], |seed| {
        let a = LfMalloc::new_default();
        let stop = AtomicBool::new(false);
        let (ar, stopr) = (&a, &stop);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                s.spawn(move || hammer(ar, stopr, seed.wrapping_mul(t + 1)));
            }
            // Let the hammers reach steady state, then fork mid-churn.
            std::thread::sleep(std::time::Duration::from_millis(30));
            let pid = unsafe { procfork::fork() };
            assert!(pid >= 0, "fork failed");
            if pid == 0 {
                lfmalloc_child_check(&a); // never returns
            }
            let code = wait_child(pid, "lfmalloc fork under load");
            stop.store(true, Ordering::Relaxed);
            assert_eq!(code, OK, "child failed (see exit-code constants)");
        });
        // The parent's heap was never perturbed: its own audit must
        // stay clean and it must have recorded zero recoveries.
        assert!(a.audit().is_clean(), "parent audit dirty after fork");
        assert_eq!(a.health().fork_recoveries, 0);
    });
}

/// The lazy tier (DESIGN.md §12.2): an instance built while the procfork
/// registry is full has no hooks, so nothing runs for it at the fork, and
/// the child's first malloc recovers it. Same load and same child proof
/// as above.
#[test]
fn an_instance_without_hooks_recovers_on_the_childs_first_malloc() {
    let _serial = fork_lock();
    let fillers: Vec<_> = std::iter::from_fn(|| procfork::register(Default::default())).collect();
    assert_eq!(procfork::registered_count(), procfork::MAX_HOOKS);
    let a = LfMalloc::new_default();
    let stop = AtomicBool::new(false);
    let (ar, stopr) = (&a, &stop);
    let code = std::thread::scope(|s| {
        for t in 0..4u64 {
            s.spawn(move || hammer(ar, stopr, 0x1A2E_0000 + t));
        }
        std::thread::sleep(std::time::Duration::from_millis(30));
        let pid = unsafe { procfork::fork() };
        assert!(pid >= 0, "fork failed");
        if pid == 0 {
            unsafe {
                // No hook ran: nothing has recovered until a malloc does.
                if a.health().fork_recoveries != 0 {
                    sys::_exit(HEALTH_MISMATCH);
                }
                let p = a.malloc(64);
                if p.is_null() {
                    sys::_exit(NULL_ALLOC);
                }
                if a.health().fork_recoveries != 1 {
                    sys::_exit(HEALTH_MISMATCH);
                }
                a.free(p);
            }
            lfmalloc_child_check(&a); // never returns
        }
        let code = wait_child(pid, "lazy fork recovery");
        stop.store(true, Ordering::Relaxed);
        code
    });
    for token in fillers {
        procfork::unregister(token);
    }
    assert_eq!(code, OK, "child failed (see exit-code constants)");
    assert!(a.audit().is_clean(), "parent audit dirty after fork");
}

/// The lazy tier against the magazine hit (DESIGN.md §15.1): a hit runs
/// no fork check of its own, it compares the thread's generation. So the
/// forking thread's first call in the child — one its warm magazine
/// would serve — misses, and the miss recovers the instance before
/// anything is popped or pushed. One child frees first, one mallocs
/// first, and one flushes its magazine first, which reaches the slot
/// (`attach`) without either slow entry; `fork_recoveries` reads 1
/// right after that one call.
#[test]
fn a_childs_first_hit_sized_call_recovers_an_instance_without_hooks() {
    let _serial = fork_lock();
    let fillers: Vec<_> = std::iter::from_fn(|| procfork::register(Default::default())).collect();
    assert_eq!(procfork::registered_count(), procfork::MAX_HOOKS);
    let a = LfMalloc::new_default();
    // Warm this thread's 8 B magazine and its mid row; `kept` is local
    // and its bin has room, so in the parent its free would be a hit.
    let kept = unsafe {
        let small: Vec<*mut u8> = (0..4).map(|_| a.malloc(8)).collect();
        let mid = a.malloc(2000);
        let kept = a.malloc(8);
        assert!(!kept.is_null() && !mid.is_null() && small.iter().all(|p| !p.is_null()));
        for p in small {
            a.free(p);
        }
        a.free(mid);
        kept
    };
    assert!(a.audit().magazine_blocks > 0, "the forking thread's magazine is warm");
    let codes: Vec<_> = ["free", "malloc", "flush_thread_cache"].map(|first| {
        let pid = unsafe { procfork::fork() };
        assert!(pid >= 0, "fork failed");
        if pid == 0 {
            unsafe {
                if a.health().fork_recoveries != 0 {
                    sys::_exit(HEALTH_MISMATCH);
                }
                match first {
                    "free" => a.free(kept),
                    "malloc" if a.malloc(8).is_null() => sys::_exit(NULL_ALLOC),
                    "malloc" => {}
                    _ => {
                        a.flush_thread_cache();
                    }
                }
                if a.health().fork_recoveries != 1 {
                    sys::_exit(HEALTH_MISMATCH);
                }
            }
            lfmalloc_child_check(&a); // never returns
        }
        (first, wait_child(pid, first))
    }).into();
    for token in fillers {
        procfork::unregister(token);
    }
    for (what, code) in codes {
        assert_eq!(code, OK, "{what} first: child failed (see exit-code constants)");
    }
    unsafe { a.free(kept) };
    assert!(a.audit().is_clean(), "parent audit dirty after fork");
    assert_eq!(a.health().fork_recoveries, 0);
}

/// Thread magazines across a fork: the forking thread's magazine,
/// outbox and mid row come through intact (same blocks, same order,
/// under its new identity), while the slots of the threads the fork left
/// behind are orphans whose blocks — cached and parked alike, all three
/// rows — `fork::recover` sends home: none stay cached, none are lost,
/// no orphan keeps a byte count (`mag.budget`), and the child audits
/// clean.
#[test]
fn forking_threads_magazine_survives_and_orphaned_slots_are_drained() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let _serial = fork_lock();
    let a = LfMalloc::with_config(Config::with_heaps(2));
    let home = lfmalloc::heap::thread_id() % 2;
    // One block of this thread's for each of the others to free.
    let handed: Vec<usize> = (0..2).map(|_| unsafe { a.malloc(40) } as usize).collect();
    // This thread's magazine: `top` was freed last, so it is next out.
    let top = unsafe {
        let blocks: Vec<*mut u8> = (0..5).map(|_| a.malloc(40)).collect();
        assert!(blocks.iter().all(|p| !p.is_null()));
        for p in &blocks {
            a.free(*p);
        }
        blocks[4] as usize
    };
    // And its mid row: a 3000-byte block on top of its refill's other half.
    let mid_top = unsafe {
        let p = a.malloc(3000);
        a.free(p);
        p as usize
    };
    // Beside the five: what the refill took and nobody asked for yet,
    // blocks of a virgin run that carry a pointer and nothing else.
    let cached = a.audit().magazine_blocks;
    assert!(cached > 5 + 2);
    // Two more threads fill magazines of their own and stay alive
    // (parked) across the fork, so in the parent their slots are owned
    // by live threads and in the child by nobody. Their ids follow each
    // other, so one of them is on the other heap: freeing this thread's
    // block parks it in that thread's outbox, and its gift to this
    // thread is parked in this thread's.
    let gifts = [AtomicUsize::new(0), AtomicUsize::new(0)];
    let ready = std::sync::Barrier::new(3);
    let release = std::sync::Barrier::new(3);
    std::thread::scope(|s| {
        for t in 0..2usize {
            let (a, ready, release, gifts, handed) = (&a, &ready, &release, &gifts, &handed);
            s.spawn(move || {
                unsafe {
                    for i in 0..64usize {
                        let p = a.malloc(16 + 24 * ((i + t) % 12));
                        assert!(!p.is_null());
                        a.free(p);
                    }
                    let mid = a.malloc(2000 + 2000 * t);
                    a.free(mid);
                    a.free(handed[t] as *mut u8);
                    if lfmalloc::heap::thread_id() % 2 != home {
                        gifts[t].store(a.malloc(40) as usize, Ordering::Relaxed);
                    }
                }
                ready.wait();
                release.wait();
            });
        }
        ready.wait();
        let mut mine = cached;
        for gift in gifts.iter().map(|g| g.load(Ordering::Relaxed)).filter(|&g| g != 0) {
            unsafe { a.free(gift as *mut u8) };
            mine += 1;
        }
        assert!(mine > cached, "neither thread was on the other heap");
        let total = a.audit().magazine_blocks;
        assert!(total > mine, "the parked threads cached nothing");
        assert_eq!(a.health().magazine_slots, 3);

        let pid = unsafe { procfork::fork() };
        assert!(pid >= 0, "fork failed");
        if pid == 0 {
            // The child hook has already run recovery.
            audit_or_exit(&a);
            if a.audit().magazine_blocks != mine || a.health().magazine_slots != 1 {
                unsafe { sys::_exit(ORPHANS_KEPT) };
            }
            let p = unsafe { a.malloc(40) };
            if p as usize != top || a.audit().magazine_blocks != mine - 1 {
                unsafe { sys::_exit(MAGAZINE_LOST) };
            }
            unsafe {
                a.free(p);
                // The mid row's top comes back too. It stays out while
                // the rows are counted: under its new id this thread may
                // map to the other heap, and a remote free of a mid class
                // is not cached.
                let q = a.malloc(3000);
                if q as usize != mid_top {
                    sys::_exit(MAGAZINE_LOST);
                }
                // All three rows are this thread's to send home.
                if a.flush_thread_cache() != mine - 1 || a.audit().magazine_blocks != 0 {
                    sys::_exit(MAGAZINE_LOST);
                }
                a.free(q);
                audit_or_exit(&a);
                sys::_exit(OK);
            }
        }
        let code = wait_child(pid, "magazines across fork");
        release.wait();
        assert_eq!(code, OK, "child failed (see exit-code constants)");
    });
    // The parent is untouched: all three magazines as they were.
    let audit = a.audit();
    assert!(audit.is_clean(), "{audit}");
    assert!(audit.magazine_blocks > cached);
}

/// A thread's parked span belongs to its slot (DESIGN.md §16.7), and a
/// forked child's recovery drains every parent-era slot but the forking
/// thread's: the span a thread left behind by the fork parked is in the
/// shared words once the child has recovered, and the child's next
/// malloc of that size is handed it. In the parent the span stays in its
/// thread's word, which nobody else takes from. Both audit clean.
#[test]
fn a_parent_era_threads_span_word_is_drained_by_the_childs_recovery() {
    let _serial = fork_lock();
    let a = LfMalloc::with_config(Config::with_heaps(2));
    let parked = std::sync::atomic::AtomicUsize::new(0);
    let (ready, release) = (std::sync::Barrier::new(2), std::sync::Barrier::new(2));
    std::thread::scope(|s| {
        s.spawn(|| {
            unsafe {
                let p = a.malloc(64 << 10);
                a.free(p);
                parked.store(p as usize, Ordering::Relaxed);
            }
            ready.wait();
            release.wait();
        });
        ready.wait();
        let p = parked.load(Ordering::Relaxed);
        assert_eq!(a.health().large_cached_spans, 1);

        let pid = unsafe { procfork::fork() };
        assert!(pid >= 0, "fork failed");
        if pid == 0 {
            unsafe {
                // The child hook has already run recovery: the orphan's
                // slot is drained and given up, its span parked shared.
                let h = a.health();
                if (h.magazine_slots, h.large_cached_spans) != (1, 1) {
                    sys::_exit(ORPHANS_KEPT);
                }
                audit_or_exit(&a);
                // This thread's own word is empty: the span comes from a
                // shared word.
                let q = a.malloc(64 << 10);
                if q as usize != p || a.health().large_cached_spans != 0 {
                    sys::_exit(SPAN_CACHE_LOST);
                }
                a.free(q);
                audit_or_exit(&a);
                sys::_exit(OK);
            }
        }
        let code = wait_child(pid, "a parent-era thread's span word");
        // The parent's thread is alive: its word is its own, and this
        // thread's malloc maps a span of its own.
        unsafe {
            let q = a.malloc(64 << 10);
            assert!(!q.is_null());
            assert_ne!(q as usize, p, "another live thread's word was taken from");
            a.free(q);
        }
        release.wait();
        assert_eq!(code, OK, "child failed (see exit-code constants)");
    });
    let audit = a.audit();
    assert!(audit.is_clean(), "{audit}");
}

/// Spans parked in threads' own words (DESIGN.md §16.7) cross the fork
/// where they are: the forking thread finds its own again with its slot,
/// and the one in the word of a thread the fork left behind goes to the
/// shared words with the rest of that orphan's slot when the child
/// recovers — two maintenance passes return it, no adoption and no
/// `trim`. The child audits clean throughout.
#[test]
fn thread_parked_spans_cross_the_fork_in_their_words() {
    let _serial = fork_lock();
    let a = LfMalloc::with_config(Config::with_heaps(2));
    let mine = unsafe {
        let p = a.malloc(100 << 10);
        a.free(p);
        p
    };
    let (ready, release) = (std::sync::Barrier::new(2), std::sync::Barrier::new(2));
    std::thread::scope(|s| {
        // Parks a span in its own word and stays alive across the fork.
        s.spawn(|| {
            unsafe {
                let p = a.malloc(64 << 10);
                a.free(p);
            }
            ready.wait();
            release.wait();
        });
        ready.wait();
        let cached = a.health().large_cached_bytes;
        assert_eq!(a.health().large_cached_spans, 2);
        assert_eq!(cached, (100 << 10) + (64 << 10) + 2 * 4096);

        let pid = unsafe { procfork::fork() };
        assert!(pid >= 0, "fork failed");
        if pid == 0 {
            unsafe {
                let h = a.health();
                if (h.large_cached_spans, h.large_cached_bytes) != (2, cached) {
                    sys::_exit(SPAN_CACHE_LOST);
                }
                audit_or_exit(&a);
                // This thread's span is still this thread's.
                let q = a.malloc(100 << 10);
                if q != mine || a.health().large_cached_spans != 1 {
                    sys::_exit(SPAN_CACHE_LOST);
                }
                a.free(q);
                // The other word's owner does not exist here. Nobody took
                // either span between these passes: both go back.
                a.maintain(MaintenanceBudget::light());
                let released = a.maintain(MaintenanceBudget::light()).large_spans_released;
                audit_or_exit(&a);
                let gone = released == 2 && a.os_stats().live_bytes == 0;
                sys::_exit(if gone { OK } else { SPAN_CACHE_LOST });
            }
        }
        let code = wait_child(pid, "thread-parked spans across fork");
        release.wait();
        assert_eq!(code, OK, "child failed (see exit-code constants)");
        // The parent's words are as they were.
        assert_eq!(a.health().large_cached_bytes, cached);
    });
    unsafe {
        assert_eq!(a.malloc(100 << 10), mine);
        a.free(mine);
    }
    let audit = a.audit();
    assert!(audit.is_clean(), "{audit}");
}

/// The free-span cache crosses a fork as plain memory: the child owns
/// a copy of every parked span, takes them, parks its own, trims them
/// away and audits clean throughout, and none of it shows in the
/// parent.
#[test]
fn span_cache_crosses_the_fork_and_serves_the_child() {
    let _serial = fork_lock();
    let a = LfMalloc::with_config(Config::with_heaps(2));
    let (p64, p1m) = unsafe {
        let (p, q) = (a.malloc(64 << 10), a.malloc(1 << 20));
        assert!(!p.is_null() && !q.is_null());
        a.free(p);
        a.free(q);
        (p, q)
    };
    let cached = a.health().large_cached_bytes;
    assert_eq!(a.health().large_cached_spans, 2);

    let pid = unsafe { procfork::fork() };
    assert!(pid >= 0, "fork failed");
    if pid == 0 {
        unsafe {
            let h = a.health();
            if (h.large_cached_spans, h.large_cached_bytes) != (2, cached) {
                sys::_exit(SPAN_CACHE_LOST);
            }
            // Hits on the inherited spans, then a size nothing fits.
            let (q64, q1m, q300k) = (a.malloc(64 << 10), a.malloc(1 << 20), a.malloc(300 << 10));
            if q64 != p64 || q1m != p1m {
                sys::_exit(SPAN_CACHE_LOST);
            }
            if q300k.is_null() {
                sys::_exit(NULL_ALLOC);
            }
            core::ptr::write_bytes(q1m, 0x5A, 1 << 20);
            audit_or_exit(&a);
            for q in [q64, q1m, q300k] {
                a.free(q);
            }
            if a.health().large_cached_spans != 3 {
                sys::_exit(SPAN_CACHE_LOST);
            }
            audit_or_exit(&a);
            a.trim();
            audit_or_exit(&a);
            sys::_exit(if a.health().large_cached_bytes == 0 { OK } else { SPAN_CACHE_LOST });
        }
    }
    let code = wait_child(pid, "span cache across fork");
    assert_eq!(code, OK, "child failed (see exit-code constants)");
    // The parent's cache is as it was, and still its own.
    assert_eq!(a.health().large_cached_bytes, cached);
    unsafe {
        let q = a.malloc(1 << 20);
        assert_eq!(q, p1m);
        a.free(q);
    }
    let audit = a.audit();
    assert!(audit.is_clean(), "{audit}");
}

/// The reaper dies in the fork. The child must (a) get a fresh reaper
/// via the atfork child hook, (b) be able to stop it — proving
/// `stop_reaper` joins the respawned thread, not the corpse — and (c)
/// restart it again.
#[test]
fn reaper_respawns_in_child_and_corpse_is_never_joined() {
    let _serial = fork_lock();
    let a = LfMalloc::new_default();
    assert!(a.start_reaper(ReaperConfig::every(std::time::Duration::from_millis(10))));
    // Give the reaper a beat to be genuinely parked in its loop.
    std::thread::sleep(std::time::Duration::from_millis(20));
    let pid = unsafe { procfork::fork() };
    assert!(pid >= 0, "fork failed");
    if pid == 0 {
        // Allocation works before anything reaper-related is touched.
        unsafe {
            let p = a.malloc(256);
            if p.is_null() {
                sys::_exit(NULL_ALLOC);
            }
            a.free(p);
        }
        // stop_reaper must return true (a live, respawned reaper was
        // stopped) and must not hang joining the parent's dead thread.
        if !a.stop_reaper() {
            unsafe { sys::_exit(REAPER_STUCK) };
        }
        // And the child can run its own reaper lifecycle afterwards.
        if !a.start_reaper(ReaperConfig::every(std::time::Duration::from_millis(10))) || !a.stop_reaper() {
            unsafe { sys::_exit(REAPER_STUCK) };
        }
        audit_or_exit(&a);
        unsafe { sys::_exit(OK) };
    }
    let code = wait_child(pid, "reaper respawn");
    assert_eq!(code, OK, "child failed (see exit-code constants)");
    // The parent's reaper is untouched by the child's lifecycle.
    assert!(a.stop_reaper(), "parent lost its reaper");
}

/// Forks a lock-based baseline mid-allocation, repeatedly, with its
/// atfork guard armed. Without the guard the child would inherit a heap
/// mutex locked by a hammer thread and deadlock on first use — caught
/// here by the watchdog.
fn baseline_fork_torture<A: RawMalloc + Send + Sync>(a: &A, guard_armed: bool, what: &str) {
    assert!(guard_armed, "{what}: atfork guard failed to register");
    let stop = AtomicBool::new(false);
    let stopr = &stop;
    std::thread::scope(|s| {
        for t in 0..3u64 {
            s.spawn(move || hammer(a, stopr, 0x0DDB_1A5E + t));
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
        for round in 0..8 {
            let pid = unsafe { procfork::fork() };
            assert!(pid >= 0, "{what}: fork failed");
            if pid == 0 {
                // The child's heap must be usable at once: prepare held
                // every lock across the fork, child released them.
                unsafe {
                    for i in 0..200usize {
                        let p = a.malloc(1 + i * 13 % 2_000);
                        if p.is_null() {
                            sys::_exit(NULL_ALLOC);
                        }
                        a.free(p);
                    }
                    sys::_exit(OK);
                }
            }
            let code = wait_child(pid, what);
            assert_eq!(code, OK, "{what}: child failed in round {round}");
        }
        stop.store(true, Ordering::Relaxed);
    });
}

#[test]
fn dlheap_never_deadlocks_forked_mid_allocation() {
    let _serial = fork_lock();
    let a = LockedHeap::new();
    let g = a.atfork_guard();
    baseline_fork_torture(&a, g.is_armed(), "dlheap fork torture");
}

#[test]
fn hoard_never_deadlocks_forked_mid_allocation() {
    let _serial = fork_lock();
    let a = Hoard::new(4);
    let g = a.atfork_guard();
    baseline_fork_torture(&a, g.is_armed(), "hoard fork torture");
}

#[test]
fn ptmalloc_never_deadlocks_forked_mid_allocation() {
    let _serial = fork_lock();
    let a = Ptmalloc::new();
    let g = a.atfork_guard();
    baseline_fork_torture(&a, g.is_armed(), "ptmalloc fork torture");
}

/// Differential check across the fork boundary: an oracle-wrapped
/// lfmalloc is forked with live blocks outstanding; the child frees the
/// parent-era blocks, churns new ones, and every content/bounds check
/// must stay silent.
#[test]
fn child_heap_passes_oracle_differential_after_fork() {
    let _serial = fork_lock();
    for_each_seed("post-fork oracle", &[0x0AC1_E1, 0x0AC1_E2, 0x0AC1_E3, 0x0AC1_E4], |seed| {
        let oracle = Arc::new(OracleMalloc::new(LfMalloc::new_default()));
        // Parent-era live blocks the child will inherit and free.
        let mut live = Vec::new();
        unsafe {
            for i in 0..300usize {
                let p = oracle.malloc(1 + (seed as usize + i * 41) % 3_000);
                assert!(!p.is_null());
                live.push(p);
            }
        }
        let pid = unsafe { procfork::fork() };
        assert!(pid >= 0, "fork failed");
        if pid == 0 {
            unsafe {
                for p in live {
                    oracle.free(p); // content checks run on every free
                }
                for i in 0..500usize {
                    let p = oracle.malloc(1 + i * 29 % 2_000);
                    if p.is_null() {
                        sys::_exit(NULL_ALLOC);
                    }
                    oracle.free(p);
                }
                // Mode::Panic would have aborted already; belt and
                // braces, re-verify and check the inner allocator too.
                oracle.verify_all();
                if oracle.violation_count() != 0 {
                    sys::_exit(ORACLE_VIOLATION);
                }
                audit_or_exit(oracle.inner());
                sys::_exit(OK);
            }
        }
        let code = wait_child(pid, "post-fork oracle");
        assert_eq!(code, OK, "child failed (see exit-code constants)");
        // Parent: its copy of the same blocks is still intact.
        unsafe {
            for p in live {
                oracle.free(p);
            }
        }
        assert_eq!(oracle.verify_all(), 0);
        assert_eq!(oracle.violation_count(), 0);
    });
}

/// Under `stats`, the parent records a `Fork` event and the child a
/// `ChildRecover` event with the adopted-record count.
#[cfg(feature = "stats")]
#[test]
fn fork_events_land_in_the_event_ring() {
    let _serial = fork_lock();
    let a = LfMalloc::new_default();
    unsafe {
        let p = a.malloc(64);
        assert!(!p.is_null());
        a.free(p);
    }
    let pid = unsafe { procfork::fork() };
    assert!(pid >= 0, "fork failed");
    if pid == 0 {
        unsafe {
            let p = a.malloc(64);
            if p.is_null() {
                sys::_exit(NULL_ALLOC);
            }
            a.free(p);
        }
        let ok = a.take_events().iter().any(|e| e.kind == EventKind::ChildRecover);
        unsafe { sys::_exit(if ok { OK } else { HEALTH_MISMATCH }) };
    }
    let code = wait_child(pid, "fork events");
    assert_eq!(code, OK, "child saw no ChildRecover event");
    let saw_fork = a.take_events().iter().any(|e| e.kind == EventKind::Fork);
    assert!(saw_fork, "parent saw no Fork event");
}
