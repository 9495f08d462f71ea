//! Reusable allocator conformance and stress checks.
//!
//! Each allocator crate in the workspace (lfmalloc, dlheap, ptmalloc,
//! hoard) runs this same battery from its own test suite, so the four
//! implementations are held to one contract: the [`RawMalloc`] safety
//! contract plus "bytes you wrote stay yours until you free them".
//!
//! All checks fill each allocated block with a pattern derived from its
//! address and verify the pattern just before freeing; any two live
//! blocks that overlap, or any allocator metadata written into a live
//! block, trips an assertion.

use crate::{RawMalloc, MIN_MALLOC_ALIGN};
use std::collections::HashSet;
use std::sync::mpsc;
use std::sync::Arc;

/// Deterministic xorshift64* PRNG so the kit needs no external crates and
/// failures replay exactly.
#[derive(Clone, Debug)]
pub struct TestRng(u64);

impl TestRng {
    /// Creates a PRNG from a nonzero seed (zero is mapped to a constant).
    pub fn new(seed: u64) -> Self {
        TestRng(if seed == 0 { 0x9E3779B97F4A7C15 } else { seed })
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Uniform value in `[lo, hi)`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        debug_assert!(lo < hi);
        lo + (self.next_u64() as usize) % (hi - lo)
    }
}

/// Fills `size` bytes at `p` with a pattern derived from the address.
///
/// # Safety
///
/// `p` must point to at least `size` writable bytes.
pub unsafe fn fill(p: *mut u8, size: usize) {
    let tag = (p as usize as u64).wrapping_mul(0x9E3779B97F4A7C15);
    for i in 0..size {
        *p.add(i) = (tag >> ((i % 8) * 8)) as u8 ^ (i as u8);
    }
}

/// Verifies a pattern written by [`fill`]; panics on mismatch.
///
/// # Safety
///
/// `p` must point to at least `size` readable bytes previously filled.
pub unsafe fn check_fill(p: *mut u8, size: usize) {
    let tag = (p as usize as u64).wrapping_mul(0x9E3779B97F4A7C15);
    for i in 0..size {
        let want = (tag >> ((i % 8) * 8)) as u8 ^ (i as u8);
        let got = *p.add(i);
        assert_eq!(
            got, want,
            "corrupted byte {i} of block {:p} (size {size}): got {got:#x}, want {want:#x}",
            p
        );
    }
}

/// Fills `size` bytes at `p` with a pattern derived from `nonce`
/// (position-based, **not** address-based, so the pattern survives a
/// moving `realloc` and can be re-verified at the new address).
///
/// # Safety
///
/// `p` must point to at least `size` writable bytes.
pub unsafe fn fill_seeded(p: *mut u8, size: usize, nonce: u64) {
    let tag = nonce.wrapping_mul(0x9E3779B97F4A7C15) ^ 0xD6E8_FEB8_6659_FD93;
    for i in 0..size {
        unsafe { *p.add(i) = (tag >> ((i % 8) * 8)) as u8 ^ (i as u8) };
    }
}

/// Verifies a pattern written by [`fill_seeded`] with the same `nonce`;
/// panics on the first mismatching byte.
///
/// # Safety
///
/// `p` must point to at least `size` readable bytes.
pub unsafe fn check_seeded(p: *mut u8, size: usize, nonce: u64) {
    let tag = nonce.wrapping_mul(0x9E3779B97F4A7C15) ^ 0xD6E8_FEB8_6659_FD93;
    for i in 0..size {
        let want = (tag >> ((i % 8) * 8)) as u8 ^ (i as u8);
        let got = unsafe { *p.add(i) };
        assert_eq!(
            got, want,
            "corrupted byte {i} of block {:p} (size {size}, nonce {nonce:#x}): got {got:#x}, want {want:#x}",
            p
        );
    }
}

/// Runs `scenario` once per seed, re-panicking any failure with the
/// seed prepended in a uniform, grep-able form:
///
/// ```text
/// [seed 0xF00D_0002] <scenario name>: <original panic message>
/// ```
///
/// Every multi-seed test (torture, liveness, memory-pressure,
/// hardening, oracle differential) routes its loop through this helper
/// so a failing seed is always printed and can be fed straight back to
/// a one-seed rerun or to the trace replayer (see EXPERIMENTS.md,
/// "Record → shrink → replay").
pub fn for_each_seed<F: FnMut(u64)>(name: &str, seeds: &[u64], mut scenario: F) {
    for &seed in seeds {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| scenario(seed)));
        if let Err(payload) = result {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&'static str>().copied())
                .unwrap_or("<non-string panic payload>");
            panic!("[seed {seed:#x}] {name}: {msg}");
        }
    }
}

/// Runs `attempt` on fresh threads, one after another (each joined
/// before the next starts), until one returns `Some`, and returns that.
/// For a test that needs a thread with a property only the thread
/// itself can read — typically which heap its id maps to: ids are
/// handed out in sequence, so one of the next few threads has it.
pub fn on_some_thread<R: Send>(attempt: impl Fn() -> Option<R> + Sync) -> R {
    for _ in 0..64 {
        let ran = std::thread::scope(|s| s.spawn(&attempt).join());
        if let Some(r) = ran.unwrap_or_else(|panic| std::panic::resume_unwind(panic)) {
            return r;
        }
    }
    panic!("64 threads in a row declined");
}

/// Claims an exclusive-ownership canary word at `addr` and immediately
/// releases it: the word must be 0 (unclaimed), is swapped to 1, checked,
/// and stored back to 0. Two threads holding the "same" resource at once
/// (ABA, double-allocation, duplicated pop) trip the assertion with
/// `msg`. Shared by the concurrency tests in `lockfree-structs` and
/// `osmem` that used to carry copy-pasted canary blocks.
///
/// # Safety
///
/// `addr` must point to an 8-aligned `usize` word that is writable, was
/// zero before the resource first circulated, and is used only through
/// this helper while the resource is shared.
pub unsafe fn canary_claim_release(addr: usize, msg: &str) {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let canary = unsafe { &*(addr as *const AtomicUsize) };
    assert_eq!(canary.swap(1, Ordering::AcqRel), 0, "{msg}");
    canary.store(0, Ordering::Release);
}

/// Pages overlapping `[p, p + len)` that the kernel holds in memory
/// (`mincore`). Ask this, not a read, whether memory was left untouched:
/// reading an untouched anonymous page maps the zero page, and `mincore`
/// counts that page as resident from then on.
pub fn resident_pages<T>(p: *const T, len: usize) -> usize {
    unsafe extern "C" {
        fn mincore(addr: *mut core::ffi::c_void, len: usize, vec: *mut u8) -> i32;
    }
    let (start, end) = (p as usize & !4095, p as usize + len);
    let mut vec = vec![0u8; (end - start).div_ceil(4096)];
    // SAFETY: `mincore` writes one byte per page of the range into `vec`,
    // which has that many.
    assert_eq!(unsafe { mincore(start as *mut _, end - start, vec.as_mut_ptr()) }, 0);
    vec.iter().filter(|b| **b & 1 == 1).count()
}

/// Basic single-thread contract: varied sizes round-trip, results are
/// non-null, aligned, distinct while live, and data is preserved.
pub fn check_basic<A: RawMalloc>(alloc: &A) {
    let sizes: &[usize] = &[
        0, 1, 7, 8, 9, 15, 16, 17, 24, 31, 32, 48, 63, 64, 65, 100, 127, 128, 200, 255, 256, 384,
        511, 512, 1000, 1024, 2000, 4096, 8192,
    ];
    unsafe {
        let mut live: Vec<(*mut u8, usize)> = Vec::new();
        let mut seen = HashSet::new();
        for &sz in sizes {
            let p = alloc.malloc(sz);
            assert!(!p.is_null(), "malloc({sz}) returned null");
            assert!(
                (p as usize) % MIN_MALLOC_ALIGN == 0,
                "malloc({sz}) => {p:p} not {MIN_MALLOC_ALIGN}-aligned"
            );
            assert!(seen.insert(p as usize), "malloc({sz}) returned a live pointer twice");
            fill(p, sz);
            live.push((p, sz));
        }
        for &(p, sz) in &live {
            check_fill(p, sz);
            alloc.free(p);
        }
    }
}

/// Zero-size allocations are valid, unique and freeable.
pub fn check_zero_size<A: RawMalloc>(alloc: &A) {
    unsafe {
        let a = alloc.malloc(0);
        let b = alloc.malloc(0);
        assert!(!a.is_null() && !b.is_null());
        assert_ne!(a, b, "two live zero-size blocks must be distinct");
        alloc.free(a);
        alloc.free(b);
        // Null free is a no-op.
        alloc.free(core::ptr::null_mut());
    }
}

/// Overflow-adjacent requests fail cleanly (null), never wrap into a
/// small allocation or panic: sizes near `usize::MAX` and absurd
/// alignments must all be refused.
pub fn check_overflow<A: RawMalloc>(alloc: &A) {
    unsafe {
        for &sz in &[usize::MAX, usize::MAX - 7, usize::MAX - 4096, usize::MAX / 2 + 1] {
            let p = alloc.malloc(sz);
            assert!(p.is_null(), "malloc({sz:#x}) must fail cleanly, got {p:p}");
        }
        for &(sz, align) in &[
            (usize::MAX, 4096usize),
            (8usize, 1usize << 63),
            (usize::MAX / 2 + 1, 1usize << 32),
        ] {
            let p = alloc.malloc_aligned(sz, align);
            assert!(p.is_null(), "malloc_aligned({sz:#x}, {align:#x}) must fail cleanly");
        }
    }
}

/// The C `calloc` contract: zeroed memory, overflow-checked multiply,
/// zero-element arrays valid and unique. Covers small, class-boundary,
/// and large (straight-to-OS) shapes so allocators with a fresh-page
/// fast path are held to the same observable behavior as the
/// malloc+memset default.
pub fn check_calloc<A: RawMalloc>(alloc: &A) {
    unsafe {
        for &(count, size) in &[
            (1usize, 1usize),
            (3, 8),
            (7, 24),
            (100, 10),
            (1, 4096),
            (13, 1000),   // crosses into larger classes
            (5, 20_000),  // large path
            (1, 1 << 20), // large path, single element
        ] {
            let p = alloc.calloc(count, size);
            assert!(!p.is_null(), "calloc({count}, {size}) returned null");
            assert_eq!(
                (p as usize) % MIN_MALLOC_ALIGN,
                0,
                "calloc({count}, {size}) misaligned"
            );
            let total = count * size;
            for i in 0..total {
                assert_eq!(
                    *p.add(i),
                    0,
                    "calloc({count}, {size}): byte {i} not zeroed"
                );
            }
            // The memory is ours: write it, free it.
            fill(p, total.min(4096));
            alloc.free(p);
        }
        // Overflowing products fail cleanly — never wrap into a small
        // allocation.
        for &(count, size) in &[
            (usize::MAX, 2usize),
            (2, usize::MAX),
            (usize::MAX / 2 + 1, 2),
            ((1usize << 33), 1usize << 33),
        ] {
            let p = alloc.calloc(count, size);
            assert!(p.is_null(), "calloc({count:#x}, {size:#x}) must fail cleanly, got {p:p}");
        }
        // Zero-element arrays behave like malloc(0): valid and unique.
        let a = alloc.calloc(0, 16);
        let b = alloc.calloc(16, 0);
        assert!(!a.is_null() && !b.is_null(), "calloc with a zero dimension must succeed");
        assert_ne!(a, b, "two live zero-size calloc blocks must be distinct");
        alloc.free(a);
        alloc.free(b);
    }
}

/// The C `realloc` content contract: `min(old, new)` bytes survive,
/// across shrink-in-place, same-class growth, cross-size-class moves,
/// and the small↔large boundary in both directions. (The pointer-level
/// behavior is pinned by each allocator's own tests; this check is
/// about the *bytes*.)
pub fn check_realloc_contents<A: RawMalloc>(alloc: &A, seed: u64) {
    let cases: &[(usize, usize)] = &[
        (64, 24),        // shrink within / across small classes
        (40, 40),        // same size
        (24, 25),        // nudge across a class boundary
        (100, 5_000),    // grow across size classes
        (5_000, 96),     // shrink back down
        (300, 100_000),  // small -> large
        (100_000, 512),  // large -> small
        (70_000, 90_000) // large -> large
    ];
    let mut rng = TestRng::new(seed);
    for (i, &(old, new)) in cases.iter().enumerate() {
        let nonce = rng.next_u64() ^ i as u64;
        unsafe {
            let p = alloc.malloc(old);
            assert!(!p.is_null(), "malloc({old}) returned null");
            fill_seeded(p, old, nonce);
            let q = alloc.realloc(p, old, new);
            assert!(!q.is_null(), "realloc({old} -> {new}) returned null");
            // The realloc contract: min(old, new) bytes preserved.
            check_seeded(q, old.min(new), nonce);
            // And the whole new extent is writable.
            fill_seeded(q, new, nonce ^ 1);
            check_seeded(q, new, nonce ^ 1);
            alloc.free(q);
        }
    }
}

/// Large blocks (beyond any small size class) round-trip and hold data.
pub fn check_large<A: RawMalloc>(alloc: &A) {
    unsafe {
        for &sz in &[16 * 1024, 64 * 1024, 1 << 20, (1 << 20) + 13] {
            let p = alloc.malloc(sz);
            assert!(!p.is_null(), "large malloc({sz}) returned null");
            // Touch first/last pages rather than every byte (speed).
            fill(p, 256);
            fill(p.add(sz - 256), 256);
            check_fill(p, 256);
            check_fill(p.add(sz - 256), 256);
            alloc.free(p);
        }
    }
}

/// Allocate a batch, free in LIFO / FIFO / random order, repeat.
///
/// Exercises superblock free-list push/pop in every order the paper's
/// Larson benchmark does.
pub fn check_free_orders<A: RawMalloc>(alloc: &A, seed: u64) {
    let mut rng = TestRng::new(seed);
    for round in 0..3 {
        unsafe {
            let n = 200;
            let mut blocks: Vec<(*mut u8, usize)> = (0..n)
                .map(|_| {
                    let sz = rng.range(1, 257);
                    let p = alloc.malloc(sz);
                    assert!(!p.is_null());
                    fill(p, sz);
                    (p, sz)
                })
                .collect();
            match round {
                0 => blocks.reverse(), // LIFO
                1 => {}                // FIFO
                _ => {
                    // Fisher-Yates shuffle
                    for i in (1..blocks.len()).rev() {
                        let j = rng.range(0, i + 1);
                        blocks.swap(i, j);
                    }
                }
            }
            for (p, sz) in blocks {
                check_fill(p, sz);
                alloc.free(p);
            }
        }
    }
}

/// Steady-state churn: keep `slots` live blocks, repeatedly replace a
/// random slot with a new random-size block (the Larson inner loop).
pub fn check_churn<A: RawMalloc>(alloc: &A, slots: usize, iters: usize, seed: u64) {
    let mut rng = TestRng::new(seed);
    unsafe {
        let mut live: Vec<(*mut u8, usize)> = (0..slots)
            .map(|_| {
                let sz = rng.range(16, 81);
                let p = alloc.malloc(sz);
                assert!(!p.is_null());
                fill(p, sz);
                (p, sz)
            })
            .collect();
        for _ in 0..iters {
            let i = rng.range(0, slots);
            let (p, sz) = live[i];
            check_fill(p, sz);
            alloc.free(p);
            let nsz = rng.range(16, 81);
            let np = alloc.malloc(nsz);
            assert!(!np.is_null());
            fill(np, nsz);
            live[i] = (np, nsz);
        }
        for (p, sz) in live {
            check_fill(p, sz);
            alloc.free(p);
        }
    }
}

/// Multithreaded churn: `threads` threads run [`check_churn`] in parallel
/// on the same allocator.
pub fn check_concurrent_churn<A: RawMalloc + Send + Sync + 'static>(
    alloc: Arc<A>,
    threads: usize,
    iters: usize,
) {
    let mut handles = Vec::new();
    for t in 0..threads {
        let a = Arc::clone(&alloc);
        handles.push(std::thread::spawn(move || {
            check_churn(&*a, 64, iters, 0xC0FFEE + t as u64);
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
}

/// Producer-consumer / remote free: blocks allocated on one thread are
/// verified and freed on another (the pattern §4.1's Producer-consumer
/// benchmark and Hoard's "passive false sharing" test stress).
pub fn check_remote_free<A: RawMalloc + Send + Sync + 'static>(
    alloc: Arc<A>,
    producers: usize,
    blocks_per_producer: usize,
) {
    let (tx, rx) = mpsc::channel::<(usize, usize)>();
    let mut handles = Vec::new();
    for t in 0..producers {
        let a = Arc::clone(&alloc);
        let tx = tx.clone();
        handles.push(std::thread::spawn(move || {
            let mut rng = TestRng::new(0xDEAD + t as u64);
            for _ in 0..blocks_per_producer {
                let sz = rng.range(8, 129);
                unsafe {
                    let p = a.malloc(sz);
                    assert!(!p.is_null());
                    fill(p, sz);
                    tx.send((p as usize, sz)).unwrap();
                }
            }
        }));
    }
    drop(tx);
    // Consumer on this thread: verify and free everything remotely.
    let mut received = 0usize;
    for (addr, sz) in rx {
        unsafe {
            let p = addr as *mut u8;
            check_fill(p, sz);
            alloc.free(p);
        }
        received += 1;
    }
    assert_eq!(received, producers * blocks_per_producer);
    for h in handles {
        h.join().unwrap();
    }
}

/// Runs the whole battery on one allocator. Convenience for crate tests.
pub fn check_all<A: RawMalloc + Send + Sync + 'static>(alloc: Arc<A>) {
    check_basic(&*alloc);
    check_zero_size(&*alloc);
    check_overflow(&*alloc);
    check_calloc(&*alloc);
    check_realloc_contents(&*alloc, 42);
    check_large(&*alloc);
    check_free_orders(&*alloc, 42);
    check_churn(&*alloc, 128, 2_000, 7);
    check_concurrent_churn(Arc::clone(&alloc), 4, 2_000);
    check_remote_free(alloc, 3, 500);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_in_range() {
        let mut a = TestRng::new(1);
        let mut b = TestRng::new(1);
        for _ in 0..100 {
            let x = a.range(10, 20);
            assert_eq!(x, b.range(10, 20));
            assert!((10..20).contains(&x));
        }
    }

    #[test]
    fn rng_zero_seed_is_usable() {
        let mut r = TestRng::new(0);
        assert_ne!(r.next_u64(), 0);
    }

    #[test]
    fn fill_roundtrip() {
        let mut buf = vec![0u8; 333];
        unsafe {
            fill(buf.as_mut_ptr(), buf.len());
            check_fill(buf.as_mut_ptr(), buf.len());
        }
    }

    #[test]
    #[should_panic(expected = "corrupted byte")]
    fn check_fill_detects_corruption() {
        let mut buf = vec![0u8; 64];
        unsafe {
            fill(buf.as_mut_ptr(), buf.len());
            buf[17] ^= 0xFF;
            check_fill(buf.as_mut_ptr(), buf.len());
        }
    }

    #[test]
    fn seeded_fill_is_position_based() {
        // The same nonce verifies at a different address — the property
        // the realloc content check relies on.
        let mut a = vec![0u8; 200];
        let mut b = vec![0u8; 200];
        unsafe {
            fill_seeded(a.as_mut_ptr(), 200, 0xABCD);
            b.copy_from_slice(&a);
            check_seeded(b.as_mut_ptr(), 200, 0xABCD);
        }
    }

    #[test]
    #[should_panic(expected = "nonce")]
    fn seeded_check_detects_corruption() {
        let mut buf = vec![0u8; 64];
        unsafe {
            fill_seeded(buf.as_mut_ptr(), 64, 7);
            buf[3] ^= 0x10;
            check_seeded(buf.as_mut_ptr(), 64, 7);
        }
    }

    #[test]
    #[should_panic(expected = "[seed 0x2] demo: boom at 2")]
    fn for_each_seed_reports_failing_seed() {
        for_each_seed("demo", &[1, 2, 3], |seed| {
            if seed == 2 {
                panic!("boom at {seed}");
            }
        });
    }

    #[test]
    fn for_each_seed_runs_every_seed_in_order() {
        let mut seen = Vec::new();
        for_each_seed("demo", &[5, 6, 7], |s| seen.push(s));
        assert_eq!(seen, [5, 6, 7]);
    }
}
