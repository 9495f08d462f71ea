//! End-to-end: the lock-free allocator as this test binary's Rust
//! global allocator. Every `Vec`, `String`, `HashMap`, channel buffer
//! and test-harness allocation below is served by the PLDI 2004
//! algorithm.

use lfmalloc_repro::prelude::*;
use malloc_api::procfork::{self, sys};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

#[global_allocator]
static GLOBAL: GlobalLfMalloc = GlobalLfMalloc::new();

/// Reaps `pid` with a deadline, SIGKILLing a hung child so a
/// process-lifecycle bug fails the test instead of wedging the run.
fn wait_child(pid: i32) -> Option<i32> {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    let mut status = 0i32;
    loop {
        let r = unsafe { sys::waitpid(pid, &mut status, sys::WNOHANG) };
        if r == pid {
            return sys::exit_code(status);
        }
        assert_eq!(r, 0, "waitpid failed");
        if std::time::Instant::now() > deadline {
            unsafe {
                sys::kill(pid, sys::SIGKILL);
                sys::waitpid(pid, &mut status, 0);
            }
            panic!("child {pid} hung — post-fork deadlock in the global allocator");
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
}

#[test]
fn std_collections_work() {
    let mut m: HashMap<String, Vec<u32>> = HashMap::new();
    for i in 0..5_000u32 {
        m.entry(format!("k{}", i % 101)).or_default().push(i);
    }
    assert_eq!(m.values().map(Vec::len).sum::<usize>(), 5_000);
    let mut keys: Vec<&String> = m.keys().collect();
    keys.sort();
    assert_eq!(keys.len(), 101);
}

#[test]
fn multithreaded_string_churn() {
    let handles: Vec<_> = (0..4)
        .map(|t| {
            std::thread::spawn(move || {
                let mut v = Vec::new();
                for i in 0..10_000usize {
                    v.push(format!("t{t}-{i}-{}", "x".repeat(i % 64)));
                    if v.len() > 50 {
                        v.swap_remove(i % v.len());
                    }
                }
                v.into_iter().map(|s| s.len()).sum::<usize>()
            })
        })
        .collect();
    let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(total > 0);
}

#[test]
fn cross_thread_moves() {
    // Allocate on one thread, grow/drop on another (remote frees through
    // the global allocator).
    let (tx, rx) = std::sync::mpsc::channel::<Vec<u8>>();
    let producer = std::thread::spawn(move || {
        for i in 0..1_000usize {
            tx.send(vec![i as u8; 16 + i % 1_000]).unwrap();
        }
    });
    let mut bytes = 0usize;
    for mut v in rx {
        v.extend_from_slice(&[1, 2, 3]);
        bytes += v.len();
    }
    producer.join().unwrap();
    assert!(bytes > 0);
}

#[test]
fn large_and_aligned_layouts() {
    // Vec with large capacity exercises the large-block path through
    // GlobalAlloc; Box<[u128]> exercises 16-byte alignment.
    let big: Vec<u64> = (0..200_000).collect();
    assert_eq!(big.len(), 200_000);
    let aligned: Box<[u128]> = (0..1_000u128).collect();
    assert_eq!(aligned.as_ptr() as usize % 16, 0);
    assert_eq!(aligned[999], 999);
}

/// fork → allocate in the child *through the global allocator* → exec.
/// This is the canonical fork/exec pattern every process spawner uses;
/// the child's heap must work (DESIGN.md §12 child recovery) and exec
/// must replace the image cleanly, handing back the script's exit code.
#[test]
fn fork_alloc_exec_roundtrip() {
    let pid = unsafe { procfork::fork() };
    assert!(pid >= 0, "fork failed");
    if pid == 0 {
        // Every one of these goes through GLOBAL in the forked child.
        let mut v: Vec<String> = Vec::new();
        for i in 0..500usize {
            v.push(format!("child-{i}"));
        }
        if v.len() != 500 {
            unsafe { sys::_exit(99) };
        }
        drop(v);
        let path = b"/bin/sh\0";
        let arg0 = b"sh\0";
        let arg1 = b"-c\0";
        let arg2 = b"exit 7\0";
        let argv: [*const u8; 4] =
            [arg0.as_ptr(), arg1.as_ptr(), arg2.as_ptr(), core::ptr::null()];
        unsafe {
            sys::execv(path.as_ptr(), argv.as_ptr());
            sys::_exit(98); // only reached if exec failed
        }
    }
    assert_eq!(wait_child(pid), Some(7), "child did not exec cleanly after fork+alloc");
}

/// Allocating from a signal handler must never deadlock: it either
/// completes lock-free or — if the signal interrupted this same
/// thread's allocation — is rejected and counted as `ReentrantAlloc`.
/// Every delivery is accounted for: handled = completed + rejected.
#[test]
fn signal_handler_allocation_is_deadlock_free() {
    static COMPLETED: AtomicUsize = AtomicUsize::new(0);
    static REJECTED: AtomicUsize = AtomicUsize::new(0);

    extern "C" fn on_usr1(_sig: i32) {
        // Raw instance calls, not Vec: a rejected (null) allocation
        // must be *observable*, not routed to handle_alloc_error.
        unsafe {
            let p = GLOBAL.instance().malloc(96);
            if p.is_null() {
                REJECTED.fetch_add(1, Ordering::SeqCst);
            } else {
                p.write(0xEE);
                GLOBAL.instance().free(p);
                COMPLETED.fetch_add(1, Ordering::SeqCst);
            }
        }
    }

    let prev = unsafe { sys::signal(sys::SIGUSR1, on_usr1 as *const () as usize) };
    malloc_api::testkit::for_each_seed(
        "signal-handler allocation",
        &[0x51, 0x52, 0x53, 0x54],
        |seed| {
            let before = COMPLETED.load(Ordering::SeqCst) + REJECTED.load(Ordering::SeqCst);
            let mut x = seed | 1;
            for _ in 0..50 {
                // Interleave real allocator traffic with deliveries so
                // the handler races live heap state.
                x ^= x << 13;
                x ^= x >> 7;
                let v = vec![0u8; 1 + (x as usize % 2_000)];
                unsafe { sys::raise(sys::SIGUSR1) };
                drop(v);
            }
            let after = COMPLETED.load(Ordering::SeqCst) + REJECTED.load(Ordering::SeqCst);
            assert_eq!(after - before, 50, "a signal delivery was lost or deadlocked");
        },
    );
    unsafe { sys::signal(sys::SIGUSR1, prev) };
    // Any rejection must have been counted as misuse, never silent.
    assert!(
        GLOBAL.instance().misuse_counters().count(MisuseKind::ReentrantAlloc)
            >= REJECTED.load(Ordering::SeqCst) as u64
    );
}

/// One row of the signal-shower tests below: the signal it sends, the
/// size the target thread and the handler allocate, and its own tallies.
struct Shower {
    sig: i32,
    size: usize,
    inst: std::sync::atomic::AtomicPtr<LfMalloc>,
    delivered: AtomicUsize,
    completed: AtomicUsize,
    rejected: AtomicUsize,
}

impl Shower {
    const fn new(sig: i32, size: usize) -> Self {
        Shower {
            sig,
            size,
            inst: std::sync::atomic::AtomicPtr::new(core::ptr::null_mut()),
            delivered: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            rejected: AtomicUsize::new(0),
        }
    }
}

// SIGUSR1 belongs to the test above.
static MAGAZINE_HIT: Shower = Shower::new(12, 8); // SIGUSR2
static LARGE_PAIR: Shower = Shower::new(23, 64 << 10); // SIGURG
static MID_PAIR: Shower = Shower::new(28, 8000); // SIGWINCH

extern "C" fn on_shower(sig: i32) {
    let row = match sig {
        s if s == MAGAZINE_HIT.sig => &MAGAZINE_HIT,
        s if s == LARGE_PAIR.sig => &LARGE_PAIR,
        _ => &MID_PAIR,
    };
    row.delivered.fetch_add(1, Ordering::SeqCst);
    let a = unsafe { &*row.inst.load(Ordering::Acquire) };
    unsafe {
        let p = a.malloc(row.size);
        if p.is_null() {
            row.rejected.fetch_add(1, Ordering::SeqCst);
        } else {
            (p as *mut u64).write(0xEE);
            a.free(p);
            row.completed.fetch_add(1, Ordering::SeqCst);
        }
    }
}

/// Showers a thread doing nothing but `row.size` malloc/free pairs on an
/// instance of its own with 3 000 of `row.sig`, each waited for before
/// the next is sent (a pending signal absorbs the next one sent), from a
/// handler that mallocs and frees that size too. Every delivery must
/// finish, completed or refused (null, counted as `ReentrantAlloc`), and
/// some must land inside the allocator. Returns the instance, audited
/// clean, for the row's own checks.
fn signal_shower(row: &'static Shower) -> (Box<LfMalloc>, lfmalloc::AuditReport) {
    use std::sync::atomic::AtomicBool;
    extern "C" {
        fn pthread_self() -> usize;
        fn pthread_kill(thread: usize, sig: i32) -> i32;
    }
    const SIGNALS: usize = 3_000;
    // An instance of its own (not GLOBAL), so the audit at the end is
    // quiescent whatever the other tests in this binary are doing.
    let a = Box::new(LfMalloc::with_config(Config::with_heaps(1)));
    row.inst.store(&*a as *const LfMalloc as *mut LfMalloc, Ordering::Release);
    let prev = unsafe { sys::signal(row.sig, on_shower as *const () as usize) };
    let target = unsafe { pthread_self() };
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            for sent in 1..=SIGNALS {
                assert_eq!(unsafe { pthread_kill(target, row.sig) }, 0);
                while row.delivered.load(Ordering::SeqCst) < sent {
                    std::hint::spin_loop();
                }
            }
            done.store(true, Ordering::Release);
        });
        // Same size as the handler: they contend for one magazine bin or
        // one span word.
        let mut pairs = 0u64;
        while !done.load(Ordering::Acquire) {
            unsafe {
                let p = a.malloc(row.size) as *mut u64;
                assert!(!p.is_null(), "the interrupted thread itself is never refused");
                p.write(pairs);
                assert_eq!(p.read(), pairs, "block handed out twice");
                a.free(p as *mut u8);
            }
            pairs += 1;
        }
    });
    unsafe { sys::signal(row.sig, prev) };
    row.inst.store(core::ptr::null_mut(), Ordering::Release);

    let (delivered, completed, rejected) = (
        row.delivered.load(Ordering::SeqCst),
        row.completed.load(Ordering::SeqCst),
        row.rejected.load(Ordering::SeqCst),
    );
    assert_eq!(delivered, SIGNALS, "a signal was lost");
    assert_eq!(completed + rejected, delivered, "a delivery was lost or deadlocked");
    assert!(rejected > 0, "no signal landed inside the allocator in {delivered} deliveries");
    let counted = a.misuse_counters().count(MisuseKind::ReentrantAlloc);
    assert_eq!(
        counted,
        rejected as u64,
        "every refusal is counted, and nothing else is: {delivered} delivered, \
         {completed} completed, {rejected} rejected, ReentrantAlloc {counted}"
    );
    let audit = a.audit();
    assert!(audit.is_clean(), "{audit}");
    (a, audit)
}

/// The same contract with the signal landing *inside* the fast path: the
/// target's malloc/free pairs are served by its magazine with plain loads
/// and stores, so most deliveries interrupt a pop or a push half done.
/// The handler's own malloc must then be refused by the reentrancy flag,
/// never run on the torn magazine.
#[test]
fn signal_landing_inside_a_magazine_hit_is_rejected_and_counted() {
    signal_shower(&MAGAZINE_HIT);
}

/// The same shower over large pairs. A 64 KiB pair is a load and a store
/// on the thread's own span word each way, behind the reentrancy flag
/// alone (DESIGN.md §16.7), so most deliveries interrupt a take or a park
/// half done. The handler must never take or park on the torn word, and
/// no span may end up in two words or in none.
#[test]
fn signal_landing_inside_a_large_pair_is_rejected_and_counted() {
    let (a, audit) = signal_shower(&LARGE_PAIR);
    // The audit objects to a span parked in two words; every mapped byte
    // parked means none is in no word.
    assert_eq!(audit.large_live, 0, "{audit}");
    assert!(audit.large_cached_spans >= 1, "{audit}");
    assert_eq!(a.os_stats().live_bytes, audit.bytes.large_cached_bytes, "{audit}");
}

/// The same shower over 8000 B pairs, the mid row (DESIGN.md §21.1). Each
/// call is the class entry, behind the hit's guard alone: the generation
/// checks run only on a stale slot (§15.1). So a delivery lands inside a
/// mid hit, a refill that opens a two-block superblock whole, or a full
/// bin going home, half done. The handler's call must be refused there,
/// never run on the torn row or superblock.
#[test]
fn signal_landing_inside_a_mid_pair_is_rejected_and_counted() {
    let (_a, audit) = signal_shower(&MID_PAIR);
    assert!(audit.magazine_blocks <= 2, "one mid bin's worth is cached: {audit}");
}

/// Deterministic version of the reentrancy contract: with the guard
/// artificially held (as if a signal had landed mid-malloc), the fast
/// path fails fast with a counted rejection instead of recursing.
#[test]
fn reentrant_allocation_fails_fast_and_is_counted() {
    let inst = GLOBAL.instance();
    let before = inst.misuse_counters().count(MisuseKind::ReentrantAlloc);
    {
        let _in_alloc = lfmalloc::fork::hold_reentrancy_guard_for_testing();
        // No Vec/String here: the global allocator would abort on the
        // deliberate null. Raw calls observe the rejection directly.
        let p = unsafe { inst.malloc(64) };
        assert!(p.is_null(), "reentrant malloc must be rejected");
    }
    let after = inst.misuse_counters().count(MisuseKind::ReentrantAlloc);
    assert!(after > before, "rejection was not counted");
    // Guard released: this thread allocates normally again.
    let p = unsafe { inst.malloc(64) };
    assert!(!p.is_null());
    unsafe { inst.free(p) };
}

#[test]
fn allocator_reports_usage() {
    // Force some traffic, then check the instance accounting is sane.
    let v: Vec<Vec<u8>> = (0..100).map(|i| vec![0u8; 100 + i]).collect();
    let stats = GLOBAL.instance().os_stats();
    assert!(stats.peak_bytes > 0);
    assert!(stats.live_bytes > 0);
    drop(v);
}
