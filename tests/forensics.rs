//! End-to-end tests of the crash-forensics subsystem: `describe_ptr`
//! across every pointer state, the flight recorder's ordering and
//! content, the async-signal-safe crash reporter exercised by a forked
//! child that really segfaults, fail-stop report routing, post-mortem
//! heap dumps round-tripped through the offline analyzer, and the
//! forensics OpenMetrics series.

#![cfg(feature = "forensics")]

use std::fs::File;
use std::os::unix::io::AsRawFd;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use lfmalloc::forensics::{CLASS_LARGE, CLASS_UNKNOWN};
use lfmalloc_repro::prelude::*;
use malloc_api::procfork::sys;
use malloc_api::testkit::for_each_seed;
use osmem::source::PAGE_SIZE;

fn hardened(h: Hardening) -> LfMalloc {
    LfMalloc::with_config(Config::with_heaps(2).with_hardening(h))
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("lfmalloc-forensics-{}-{name}", std::process::id()))
}

/// Serializes tests that fork or install process-wide crash sinks: a
/// forked child inherits every live sink and would otherwise interleave
/// its report into another test's file through the shared descriptor.
fn fork_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Reaps `pid` and returns the raw wait status. The crash child dies by
/// signal, so `fork_torture`'s exit-code-only waiter does not fit here.
fn wait_status(pid: i32) -> i32 {
    let start = Instant::now();
    loop {
        let mut status = 0i32;
        let r = unsafe { sys::waitpid(pid, &mut status, sys::WNOHANG) };
        if r == pid {
            return status;
        }
        assert!(r >= 0, "waitpid({pid}) failed");
        if start.elapsed() > Duration::from_secs(60) {
            unsafe {
                sys::kill(pid, sys::SIGKILL);
                sys::waitpid(pid, &mut status, 0);
            }
            panic!("forked child {pid} hung");
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

// ---------------------------------------------------------------------
// describe_ptr: every pointer state.
// ---------------------------------------------------------------------

#[test]
fn describe_ptr_classifies_every_pointer_state() {
    use lfmalloc::PtrKind;
    for_each_seed("describe-ptr", &[1, 7, 0xC0FFEE], |seed| {
        let a = hardened(Hardening::Detect);

        // Null page.
        assert_eq!(a.describe_ptr(0).kind, PtrKind::Null);
        assert_eq!(a.describe_ptr(8).kind, PtrKind::Null);

        // Live small block: class geometry, block start, alloc bit.
        let size = 48 + (seed as usize % 96);
        let p = unsafe { a.malloc(size) } as usize;
        assert_ne!(p, 0);
        let r = a.describe_ptr(p);
        assert_eq!(r.kind, PtrKind::Small, "{r:?}");
        assert!(r.class.is_some());
        assert!(r.class_size as usize >= size, "class must fit the request");
        assert_eq!(r.offset_in_block, 0, "the pointer is the block: no prefix");
        assert_eq!(r.block_start, p);
        assert_eq!(r.class_size as usize, unsafe { a.usable_size(p as *mut u8) });
        assert_ne!(r.superblock, 0);
        assert_ne!(r.descriptor, 0);
        assert!(r.sb_state.is_some());
        assert_eq!(r.allocated, Some(true), "hardened bitmap tracks the block");
        assert!(!r.poisoned);
        let text = r.to_string();
        assert!(text.contains("small block"), "{text}");
        assert!(text.contains("allocated=yes"), "{text}");

        // An interior pointer into the same block resolves to the block.
        let mid = a.describe_ptr(p + size / 2);
        assert_eq!(mid.kind, PtrKind::Small);
        assert_eq!(mid.block_start, r.block_start);

        // The descriptor behind it is allocator metadata.
        assert_eq!(a.describe_ptr(r.descriptor).kind, PtrKind::DescriptorSlab);

        // Freed (quarantined) small block: bit cleared, poison present.
        unsafe { a.free(p as *mut u8) };
        let rf = a.describe_ptr(p);
        assert_eq!(rf.kind, PtrKind::Small);
        assert_eq!(rf.allocated, Some(false));
        assert!(rf.poisoned, "quarantined block carries the poison fill");
        assert!(rf.to_string().contains("poisoned=yes"));

        // Large span, its guard region, and an interior pointer.
        let q = unsafe { a.malloc(100_000) } as usize;
        assert_ne!(q, 0);
        let rl = a.describe_ptr(q);
        assert_eq!(rl.kind, PtrKind::LargeSpan, "{rl:?}");
        assert!(rl.guarded, "hardened large blocks always carry guards");
        assert!(rl.span_base < q && q < rl.span_base + rl.span_bytes);
        assert_eq!(a.describe_ptr(q + 5000).kind, PtrKind::LargeSpan);
        let guard = rl.span_base + rl.span_bytes - 2 * PAGE_SIZE;
        let rg = a.describe_ptr(guard);
        assert_eq!(rg.kind, PtrKind::GuardRegion, "{rg:?}");
        assert!(rg.to_string().contains("GUARD REGION"), "{rg:?}");
        unsafe { a.free(q as *mut u8) };
        // Unregistered after free: the address is no longer ours.
        assert_eq!(a.describe_ptr(q).kind, PtrKind::Foreign);

        // Foreign: stack memory and another instance's block.
        let local = 0u64;
        assert_eq!(
            a.describe_ptr(&local as *const u64 as usize).kind,
            PtrKind::Foreign
        );
        let b = LfMalloc::new_default();
        let fp = unsafe { b.malloc(64) };
        assert_eq!(a.describe_ptr(fp as usize).kind, PtrKind::Foreign);
        unsafe { b.free(fp) };

        // Trusting-mode instance: no alloc bitmap, so liveness is
        // reported as untracked rather than guessed.
        let t = LfMalloc::with_config(Config::with_heaps(1));
        let tp = unsafe { t.malloc(64) } as usize;
        let rt = t.describe_ptr(tp);
        assert_eq!(rt.kind, PtrKind::Small);
        assert_eq!(rt.allocated, None);
        assert!(rt.to_string().contains("allocated=untracked"));
        unsafe { t.free(tp as *mut u8) };
    });
}

// ---------------------------------------------------------------------
// Flight recorder.
// ---------------------------------------------------------------------

#[test]
fn flight_recorder_orders_and_classifies_ops() {
    let a = hardened(Hardening::Detect);
    let mut ptrs = Vec::new();
    for i in 0..40usize {
        let p = unsafe { a.malloc(32 + i) };
        assert!(!p.is_null());
        ptrs.push(p);
    }
    for &p in &ptrs {
        unsafe { a.free(p) };
    }

    // Newest first, strictly descending sequence, and the most recent
    // operations are the frees we just issued.
    let tail = a.flight_recorder_tail(16);
    assert_eq!(tail.len(), 16);
    assert!(
        tail.windows(2).all(|w| w[0].seq > w[1].seq),
        "tail must be newest-first with unique sequence numbers"
    );
    assert!(tail.iter().all(|op| op.op == OpKind::Free));
    assert!(tail
        .iter()
        .any(|op| op.ptr == *ptrs.last().unwrap() as usize));
    assert!(tail.iter().all(|op| op.class != CLASS_LARGE && op.class != CLASS_UNKNOWN));

    // A wider window still holds the matching allocations.
    let all = a.flight_recorder_tail(4096);
    assert!(all.iter().any(|op| op.op == OpKind::Alloc));
    assert_eq!(a.flight_recorder_dropped(), 0);

    // Large operations are tagged CLASS_LARGE on both sides.
    let q = unsafe { a.malloc(100_000) };
    unsafe { a.free(q) };
    let recent = a.flight_recorder_tail(2);
    assert_eq!(recent.len(), 2);
    assert!(recent.iter().all(|op| op.class == CLASS_LARGE), "{recent:?}");
    assert_eq!(recent[0].op, OpKind::Free);
    assert_eq!(recent[1].op, OpKind::Alloc);
    assert_eq!(recent[0].ptr, q as usize);
}

// ---------------------------------------------------------------------
// Crash reporter: a forked child really segfaults on a guard page and
// the parent reads the black-box report.
// ---------------------------------------------------------------------

#[test]
fn segfaulting_child_emits_crash_report() {
    let _serial = fork_lock();
    let path = tmp("crash.txt");
    let _ = std::fs::remove_file(&path);
    let file = File::create(&path).expect("create report file");
    let fd = file.as_raw_fd();

    let pid = unsafe { sys::fork() };
    assert!(pid >= 0, "fork failed");
    if pid == 0 {
        // Child: verdicts travel as exit codes or the death signal;
        // never panic, never return.
        let a = hardened(Hardening::Detect);
        for i in 0..48usize {
            let p = unsafe { a.malloc(40 + i) };
            if p.is_null() {
                unsafe { sys::_exit(13) };
            }
            unsafe { a.free(p) };
        }
        if !a.install_crash_reporter(fd) {
            unsafe { sys::_exit(10) };
        }
        let q = unsafe { a.malloc(100_000) } as usize;
        if q == 0 {
            unsafe { sys::_exit(13) };
        }
        let r = a.describe_ptr(q);
        if !r.guarded || r.span_bytes == 0 {
            unsafe { sys::_exit(11) };
        }
        // One byte into the PROT_NONE trap page: a deterministic
        // overrun past the span's user extent.
        let trap = r.span_base + r.span_bytes - PAGE_SIZE + 16;
        unsafe { core::ptr::write_volatile(trap as *mut u8, 0xAB) };
        // Reached only if the hardware guard was not armed.
        unsafe { sys::_exit(12) };
    }

    let status = wait_status(pid);
    assert_eq!(
        sys::term_signal(status),
        Some(sys::SIGSEGV),
        "child should die on the guard page; status={status:#x} exit={:?}",
        sys::exit_code(status)
    );
    drop(file);
    let text = std::fs::read_to_string(&path).expect("read crash report");
    assert!(text.contains("==== lfmalloc crash report ===="), "{text}");
    assert!(text.contains("cause: signal 11 (SIGSEGV)"), "{text}");
    assert!(text.contains("fault address: 0x"), "{text}");
    // describe_ptr of the faulting address names the guard region.
    assert!(text.contains("GUARD REGION"), "{text}");
    // The flight-recorder tail is present with real entries.
    assert!(text.contains("-- flight recorder (newest first"), "{text}");
    assert!(text.contains("seq="), "{text}");
    assert!(text.contains("op=free"), "{text}");
    assert!(text.contains("class=large"), "{text}");
    assert!(text.contains("reconciles=yes"), "{text}");
    assert!(text.contains("==== end lfmalloc crash report ===="), "{text}");
    let _ = std::fs::remove_file(&path);
}

// ---------------------------------------------------------------------
// Fail-stop routing: Hardening::Abort writes the same report before
// panicking.
// ---------------------------------------------------------------------

#[test]
fn hardened_abort_failstop_emits_report() {
    let _serial = fork_lock();
    let path = tmp("failstop.txt");
    let _ = std::fs::remove_file(&path);
    let file = File::create(&path).expect("create report file");

    let a = hardened(Hardening::Abort);
    assert!(!a.crash_handler_installed());
    assert!(a.install_crash_reporter(file.as_raw_fd()));
    assert!(a.crash_handler_installed());

    let p = unsafe { a.malloc(64) };
    unsafe { a.free(p) };
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unsafe {
        a.free(p) // double free: Abort mode must fail-stop
    }));
    assert!(err.is_err(), "double free under Abort must panic");

    let text = std::fs::read_to_string(&path).expect("read fail-stop report");
    assert!(text.contains("==== lfmalloc crash report ===="), "{text}");
    assert!(text.contains("cause: fail-stop (hardened-abort)"), "{text}");
    assert!(text.contains("double_free=1"), "{text}");
    assert!(text.contains("==== end lfmalloc crash report ===="), "{text}");
    drop(a);
    let _ = std::fs::remove_file(&path);
}

// ---------------------------------------------------------------------
// Heap dumps: snapshot -> offline analyzer -> diff.
// ---------------------------------------------------------------------

#[test]
fn dump_heap_roundtrips_through_analyzer() {
    let a = hardened(Hardening::Detect);
    let mut live = Vec::new();
    for i in 0..500usize {
        let p = unsafe { a.malloc(64 + (i % 5) * 32) };
        assert!(!p.is_null());
        live.push(p);
    }
    let q = unsafe { a.malloc(50_000) };
    assert!(!q.is_null());

    let path = tmp("dump-a.json");
    a.dump_heap(&path).expect("dump_heap");
    let first = std::fs::read_to_string(&path).expect("read dump");
    let r = lfmalloc::analyze_dump(&first).expect("analyze own dump");
    assert_eq!(r.version, lfmalloc::DUMP_VERSION);
    assert_eq!(r.hardening, "detect");
    assert!(r.reconciles, "component byte counts must reconcile");
    assert!(!r.classes.is_empty());
    assert!(r.small_used_bytes > 0);
    assert!(r.small_capacity_bytes >= r.small_used_bytes);
    assert!(r.large_spans >= 1);
    assert!(r.large_bytes > 0);
    assert!(r.os_live_bytes > 0);
    assert!(r.flight_len > 0, "dump embeds the flight-recorder tail");
    assert_eq!(r.flight_dropped, 0);
    assert!(r.descriptors.total > 0);
    let rendered = r.to_string();
    assert!(rendered.contains("lfmalloc heap dump v3"), "{rendered}");
    assert!(rendered.contains("fragmentation by class:"), "{rendered}");

    // Free half and dump again: the diff shows per-class shrinkage and
    // the large span disappearing.
    for p in live.drain(..250) {
        unsafe { a.free(p) };
    }
    unsafe { a.free(q) };
    a.flush_quarantine();
    let path2 = tmp("dump-b.json");
    a.dump_heap(&path2).expect("dump_heap second");
    let second = std::fs::read_to_string(&path2).expect("read second dump");
    let d = lfmalloc::diff_dumps(&first, &second).expect("diff");
    assert!(
        d.class_deltas.iter().any(|&(_, _, delta)| delta < 0),
        "frees must shrink class occupancy: {:?}",
        d.class_deltas
    );
    assert!(d.delta_large_bytes < 0, "freed large span must show up");

    for p in live {
        unsafe { a.free(p) };
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&path2);
}

#[test]
fn dump_heap_fd_is_parseable_and_profile_free() {
    let a = hardened(Hardening::Detect);
    let p = unsafe { a.malloc(256) };
    let path = tmp("dump-fd.json");
    let _ = std::fs::remove_file(&path);
    let file = File::create(&path).expect("create dump file");
    a.dump_heap_fd(file.as_raw_fd());
    drop(file);
    let text = std::fs::read_to_string(&path).expect("read fd dump");
    let r = lfmalloc::analyze_dump(&text).expect("fd dump parses");
    assert_eq!(r.version, lfmalloc::DUMP_VERSION);
    // The fd path is for crash contexts: building the profile section
    // allocates, so it is always omitted there.
    assert!(r.leak_candidates.is_empty());
    unsafe { a.free(p) };
    let _ = std::fs::remove_file(&path);
}

#[test]
fn dump_heap_accounts_for_cached_large_spans() {
    // With hardening off a freed large span waits in the span cache;
    // the dump must say so, or its OS bytes would not add up.
    let a = LfMalloc::with_config(Config::with_heaps(1));
    unsafe {
        let (p, q) = (a.malloc(64 << 10), a.malloc(300 << 10));
        a.free(p);
        let path = tmp("dump-cached.json");
        a.dump_heap(&path).expect("dump_heap");
        let text = std::fs::read_to_string(&path).expect("read dump");
        let r = lfmalloc::analyze_dump(&text).expect("analyze own dump");
        assert!(r.reconciles, "{r}");
        assert_eq!((r.large_cached_spans, r.large_cached_bytes), (1, (64 << 10) + 4096));
        assert_eq!(r.large_bytes, (300 << 10) + 4096, "live still means live");
        assert!(r.to_string().contains("(+ 1 cached / 69632 B)"), "{r}");
        a.free(q);
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn dump_counts_live_large_blocks_without_a_span_registry() {
    // Only hardened instances register their spans; the analyzer's large
    // count must not depend on that.
    let a = LfMalloc::with_config(Config::with_heaps(1).with_hardening(Hardening::Off));
    let p = unsafe { a.malloc(64 << 10) };
    assert!(!p.is_null());
    let mut dump = Vec::new();
    a.dump_heap_to(&mut dump).expect("dump_heap_to");
    let r = lfmalloc::analyze_dump(std::str::from_utf8(&dump).unwrap()).expect("analyze");
    assert_eq!(r.large_spans, 1, "{r}");
    assert_eq!(r.large_bytes, (64 << 10) + 4096, "{r}");
    unsafe { a.free(p) };
}

// ---------------------------------------------------------------------
// Planted leak: dump -> analyzer ranks the leaking call site first.
// ---------------------------------------------------------------------

#[cfg(feature = "profile")]
mod leak_ranking {
    use super::*;
    use lfmalloc::ProfileParams;

    #[test]
    fn analyzer_ranks_planted_leak_site_first() {
        let a = LfMalloc::with_config(
            Config::with_heaps(1)
                .with_hardening(Hardening::Detect)
                .with_profile(ProfileParams::new(4096, 99)),
        );
        let mut leaked = Vec::new();
        let mut small_kept = Vec::new();
        let mut leak_line = 0u64;
        let mut small_line = 0u64;
        for i in 0..20_000usize {
            // Churn site: allocated and immediately freed, retains ~0.
            let p = unsafe { a.malloc(24 + i % 64) };
            assert!(!p.is_null());
            unsafe { a.free(p) };
            if i % 8 == 0 {
                // The planted leak: big blocks, never freed.
                leak_line = line!() as u64 + 1;
                let q = unsafe { a.malloc(4096) };
                assert!(!q.is_null());
                leaked.push(q);
            }
            if i % 400 == 0 {
                // A second retained site, far smaller than the leak.
                small_line = line!() as u64 + 1;
                let s = unsafe { a.malloc(40) };
                assert!(!s.is_null());
                small_kept.push(s);
            }
        }

        let path = tmp("leak-dump.json");
        a.dump_heap(&path).expect("dump_heap");
        let text = std::fs::read_to_string(&path).expect("read dump");
        let r = lfmalloc::analyze_dump(&text).expect("analyze");
        assert!(
            !r.leak_candidates.is_empty(),
            "10MB retained at stride 4096 must be sampled"
        );
        let top = &r.leak_candidates[0];
        assert!(
            top.file.ends_with("forensics.rs"),
            "top candidate file: {}",
            top.file
        );
        assert_eq!(
            top.line, leak_line,
            "the planted leak must rank first (small site at line {small_line}): {:?}",
            r.leak_candidates
        );
        assert!(top.live_bytes > 0 && top.live_samples > 0);
        // Ranking is by retained bytes, largest first.
        assert!(r
            .leak_candidates
            .windows(2)
            .all(|w| w[0].live_bytes >= w[1].live_bytes));

        for p in leaked.into_iter().chain(small_kept) {
            unsafe { a.free(p) };
        }
        let _ = std::fs::remove_file(&path);
    }
}

// ---------------------------------------------------------------------
// Exit-time leak report on the global adapter.
// ---------------------------------------------------------------------

#[test]
fn exit_leak_report_fires_at_process_exit() {
    let _serial = fork_lock();
    let path = tmp("exitleak.txt");
    let _ = std::fs::remove_file(&path);
    let file = File::create(&path).expect("create report file");
    let fd = file.as_raw_fd();

    let pid = unsafe { sys::fork() };
    assert!(pid >= 0, "fork failed");
    if pid == 0 {
        let g = GlobalLfMalloc::with_heaps(1);
        let p = unsafe { g.instance().malloc(5000) };
        if p.is_null() {
            unsafe { sys::_exit(13) };
        }
        g.install_exit_leak_report(fd);
        // Normal exit runs the atexit hook; `p` is deliberately leaked.
        std::process::exit(0);
    }

    let status = wait_status(pid);
    assert_eq!(
        sys::exit_code(status),
        Some(0),
        "child should exit cleanly; status={status:#x} signal={:?}",
        sys::term_signal(status)
    );
    drop(file);
    let text = std::fs::read_to_string(&path).expect("read exit report");
    assert!(text.contains("==== lfmalloc exit leak report ===="), "{text}");
    assert!(text.contains("==== end lfmalloc exit leak report ===="), "{text}");
    // Between the headers is a heap dump of the instance at exit.
    let body = text
        .split_once("==== lfmalloc exit leak report ====\n")
        .and_then(|(_, rest)| rest.split_once("==== end lfmalloc exit leak report ===="))
        .map(|(dump, _)| dump)
        .expect("report body between the headers");
    let r = lfmalloc::analyze_dump(body).expect("the exit report's body is a heap dump");
    assert!(r.reconciles, "{r}");
    assert!(r.small_used_bytes >= 5000, "the child's leaked block: {r}");
    let _ = std::fs::remove_file(&path);
}

// ---------------------------------------------------------------------
// OpenMetrics: the forensics series are exported and well-formed.
// ---------------------------------------------------------------------

#[test]
fn openmetrics_exports_forensics_series() {
    let a = hardened(Hardening::Detect);
    let p = unsafe { a.malloc(64) };
    unsafe { a.free(p) };
    let text = a.render_openmetrics();
    lfmalloc::metrics::check_openmetrics(&text).expect("exposition well-formed");
    assert!(
        text.contains("lfmalloc_flight_recorder_dropped_total 0"),
        "{text}"
    );
    assert!(text.contains("lfmalloc_crash_handler_installed 0"), "{text}");
}
