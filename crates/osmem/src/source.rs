//! Page sources: where allocators get raw memory runs.

use malloc_api::layout::{align_up, is_aligned};
use malloc_api::stats::UsageCounter;
use malloc_api::AllocStats;

/// Assumed OS page size. The substrate rounds all requests up to this.
pub const PAGE_SIZE: usize = 4096;

/// A supplier of page-aligned memory runs — the `mmap`/`munmap` of this
/// reproduction.
///
/// # Safety
///
/// Implementations must return either null or a run of at least `size`
/// bytes aligned to `align`, exclusively owned by the caller until the
/// matching [`dealloc_pages`](Self::dealloc_pages) with identical
/// `size`/`align`.
pub unsafe trait PageSource: Sync {
    /// Obtains `size` bytes aligned to `align` (both multiples of
    /// [`PAGE_SIZE`]; `align` a power of two). Returns null on failure.
    ///
    /// # Safety
    ///
    /// Caller must pass the same `size` and `align` to `dealloc_pages`.
    unsafe fn alloc_pages(&self, size: usize, align: usize) -> *mut u8;

    /// Returns a run previously obtained from `alloc_pages`.
    ///
    /// # Safety
    ///
    /// `ptr`/`size`/`align` must match a live prior `alloc_pages`.
    unsafe fn dealloc_pages(&self, ptr: *mut u8, size: usize, align: usize);

    /// Accounting snapshot (zero for non-counting sources).
    fn stats(&self) -> AllocStats {
        AllocStats::default()
    }

    /// Changes the protection of `len` bytes at `ptr` (both multiples of
    /// [`PAGE_SIZE`], inside a live run from this source): `readwrite ==
    /// false` revokes all access (`PROT_NONE` guard page), `true`
    /// restores read/write. Returns `true` on success; the default says
    /// the source cannot protect pages, and callers degrade gracefully
    /// (the hardened allocator falls back to canary-only guards).
    ///
    /// # Safety
    ///
    /// The range must lie within a live `alloc_pages` run, and the caller
    /// must restore read/write before the run is deallocated.
    unsafe fn protect_pages(&self, ptr: *mut u8, len: usize, readwrite: bool) -> bool {
        let _ = (ptr, len, readwrite);
        false
    }

    /// Whether runs returned by [`alloc_pages`](Self::alloc_pages) are
    /// guaranteed zero-filled (anonymous-mmap semantics). `calloc` fast
    /// paths may skip their memset only when this returns `true` *and*
    /// the memory provably never passed through a recycling pool. The
    /// conservative default is `false`.
    fn zeroes_fresh_pages(&self) -> bool {
        false
    }
}

/// `mprotect` constants and binding (libc is linked by std on unix).
#[cfg(unix)]
mod mprotect_sys {
    pub const PROT_NONE: i32 = 0;
    pub const PROT_READ: i32 = 1;
    pub const PROT_WRITE: i32 = 2;
    unsafe extern "C" {
        pub fn mprotect(addr: *mut core::ffi::c_void, len: usize, prot: i32) -> i32;
    }
}

/// Anonymous zero mappings: `mmap` itself (Linux constants, as in
/// `malloc_api::procfork::sys`), so zero-fill and page-at-a-time residency
/// hold whatever `malloc` did before, and glibc's mmap threshold stays put.
/// [`SystemSource`] is built on it, and so is an allocator's own fixed
/// metadata, which no [`PageSource`] counts.
pub mod anon {
    use core::ffi::c_void;
    const PROT_READ_WRITE: i32 = 1 | 2;
    const MAP_PRIVATE_ANONYMOUS: i32 = 0x02 | 0x20;
    unsafe extern "C" {
        fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, off: i64) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    /// `len` zero bytes, page-aligned; null when the kernel refuses.
    pub fn map(len: usize) -> *mut u8 {
        let p = unsafe { mmap(core::ptr::null_mut(), len, PROT_READ_WRITE, MAP_PRIVATE_ANONYMOUS, -1, 0) };
        if p as isize == -1 { core::ptr::null_mut() } else { p as *mut u8 }
    }

    /// # Safety
    ///
    /// `ptr`/`len` must be whole pages of a live prior [`map`] that
    /// nobody uses again.
    pub unsafe fn unmap(ptr: *mut u8, len: usize) {
        unsafe { munmap(ptr as *mut c_void, len) };
    }
}

/// The default source: aligned runs of anonymous memory from the kernel
/// ([`anon`]), the paper's `mmap`/`munmap` (§3.2.5).
///
/// A run is fresh from the kernel, so it reads zero and no page of it is
/// resident until its user touches it. An alignment above [`PAGE_SIZE`]
/// costs one map of `size + align − PAGE_SIZE` whose head and tail are
/// unmapped again: at most three system calls. A free is one `munmap` of
/// exactly the run. Never the Rust global allocator, and not libc
/// `malloc` either, so allocators built on it can be installed as
/// `#[global_allocator]`.
///
/// # Fork safety
///
/// `mmap` and `munmap` are system calls that take no lock in this
/// process, so a forked child can request fresh pages from this source
/// immediately; the allocator-level recovery protocol (DESIGN.md §12)
/// only has to repair *our* structures, never the page source underneath.
#[derive(Debug, Default)]
pub struct SystemSource;

impl SystemSource {
    /// Creates the source.
    pub const fn new() -> Self {
        SystemSource
    }
}

unsafe impl PageSource for SystemSource {
    unsafe fn alloc_pages(&self, size: usize, align: usize) -> *mut u8 {
        debug_assert!(size > 0 && is_aligned(size, PAGE_SIZE));
        debug_assert!(align.is_power_of_two() && align >= PAGE_SIZE);
        let Some(len) = size.checked_add(align - PAGE_SIZE) else {
            return core::ptr::null_mut();
        };
        let p = anon::map(len);
        if p.is_null() {
            return p;
        }
        // Trim the over-map to the aligned run.
        let head = align_up(p as usize, align) - p as usize;
        let tail = len - head - size;
        // SAFETY: `p` is a fresh map of `len` bytes, page-aligned like
        // `head` and `size`; head and tail are whole pages of it outside
        // the run, and nobody has seen them.
        unsafe {
            if head > 0 {
                anon::unmap(p, head);
            }
            if tail > 0 {
                anon::unmap(p.add(head + size), tail);
            }
            p.add(head)
        }
    }

    unsafe fn dealloc_pages(&self, ptr: *mut u8, size: usize, _align: usize) {
        // SAFETY: the caller passes a live run of ours, whose pages are
        // exactly what is left of its map.
        unsafe { anon::unmap(ptr, size) };
    }

    #[cfg(unix)]
    unsafe fn protect_pages(&self, ptr: *mut u8, len: usize, readwrite: bool) -> bool {
        debug_assert!(is_aligned(ptr as usize, PAGE_SIZE) && is_aligned(len, PAGE_SIZE));
        let prot = if readwrite {
            mprotect_sys::PROT_READ | mprotect_sys::PROT_WRITE
        } else {
            mprotect_sys::PROT_NONE
        };
        unsafe { mprotect_sys::mprotect(ptr as *mut core::ffi::c_void, len, prot) == 0 }
    }

    // Every run is a fresh anonymous mapping: the kernel zero-fills it.
    fn zeroes_fresh_pages(&self) -> bool {
        true
    }
}

/// Rounds an arbitrary byte count up to whole pages.
///
/// # Example
///
/// ```
/// use osmem::source::{pages_for, PAGE_SIZE};
/// assert_eq!(pages_for(1), PAGE_SIZE);
/// assert_eq!(pages_for(PAGE_SIZE), PAGE_SIZE);
/// assert_eq!(pages_for(PAGE_SIZE + 1), 2 * PAGE_SIZE);
/// ```
pub const fn pages_for(bytes: usize) -> usize {
    if bytes == 0 {
        PAGE_SIZE
    } else {
        align_up(bytes, PAGE_SIZE)
    }
}

/// A [`PageSource`] decorator that tracks live/peak bytes and call
/// counts — the measurement harness for §4.2.5 ("we tracked the maximum
/// space used by our allocator, Hoard, and Ptmalloc").
#[derive(Debug, Default)]
pub struct CountingSource<S> {
    inner: S,
    counter: UsageCounter,
}

impl<S> CountingSource<S> {
    /// Wraps `inner` with fresh counters.
    pub const fn new(inner: S) -> Self {
        CountingSource { inner, counter: UsageCounter::new() }
    }

    /// The wrapped source.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Resets the counters (between experiment phases).
    pub fn reset_stats(&self) {
        self.counter.reset();
    }
}

unsafe impl<S: PageSource> PageSource for CountingSource<S> {
    unsafe fn alloc_pages(&self, size: usize, align: usize) -> *mut u8 {
        let p = unsafe { self.inner.alloc_pages(size, align) };
        if !p.is_null() {
            self.counter.record_alloc(size);
        }
        p
    }

    unsafe fn dealloc_pages(&self, ptr: *mut u8, size: usize, align: usize) {
        unsafe { self.inner.dealloc_pages(ptr, size, align) };
        self.counter.record_free(size);
    }

    fn stats(&self) -> AllocStats {
        self.counter.snapshot()
    }

    unsafe fn protect_pages(&self, ptr: *mut u8, len: usize, readwrite: bool) -> bool {
        unsafe { self.inner.protect_pages(ptr, len, readwrite) }
    }

    fn zeroes_fresh_pages(&self) -> bool {
        self.inner.zeroes_fresh_pages()
    }
}

unsafe impl<S: PageSource + Send + Sync> PageSource for std::sync::Arc<S> {
    unsafe fn alloc_pages(&self, size: usize, align: usize) -> *mut u8 {
        unsafe { (**self).alloc_pages(size, align) }
    }
    unsafe fn dealloc_pages(&self, ptr: *mut u8, size: usize, align: usize) {
        unsafe { (**self).dealloc_pages(ptr, size, align) }
    }
    fn stats(&self) -> AllocStats {
        (**self).stats()
    }
    unsafe fn protect_pages(&self, ptr: *mut u8, len: usize, readwrite: bool) -> bool {
        unsafe { (**self).protect_pages(ptr, len, readwrite) }
    }
    fn zeroes_fresh_pages(&self) -> bool {
        (**self).zeroes_fresh_pages()
    }
}

unsafe impl<S: PageSource> PageSource for &S {
    unsafe fn alloc_pages(&self, size: usize, align: usize) -> *mut u8 {
        unsafe { (**self).alloc_pages(size, align) }
    }
    unsafe fn dealloc_pages(&self, ptr: *mut u8, size: usize, align: usize) {
        unsafe { (**self).dealloc_pages(ptr, size, align) }
    }
    fn stats(&self) -> AllocStats {
        (**self).stats()
    }
    unsafe fn protect_pages(&self, ptr: *mut u8, len: usize, readwrite: bool) -> bool {
        unsafe { (**self).protect_pages(ptr, len, readwrite) }
    }
    fn zeroes_fresh_pages(&self) -> bool {
        (**self).zeroes_fresh_pages()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_source_alignment_honored() {
        let s = SystemSource::new();
        for &align in &[PAGE_SIZE, 16 * 1024, 1 << 20] {
            unsafe {
                let p = s.alloc_pages(align, align);
                assert!(!p.is_null());
                assert!(is_aligned(p as usize, align), "{p:p} not aligned to {align:#x}");
                // Memory is usable.
                core::ptr::write_bytes(p, 0xAB, align);
                s.dealloc_pages(p, align, align);
            }
        }
    }

    #[test]
    fn a_fresh_run_is_aligned_zero_and_not_resident_whatever_malloc_did_before() {
        use malloc_api::testkit::resident_pages;
        // A process that has freed a large `malloc` block: glibc's mmap
        // threshold now lies above both sizes, and `calloc` would hand
        // out recycled memory, memset in full.
        for _ in 0..2 {
            drop(std::hint::black_box(vec![1u8; 8 << 20]));
        }
        let s = SystemSource::new();
        for size in [64 << 10, 1 << 20] {
            for align in [PAGE_SIZE, 16 << 10, 1 << 20] {
                unsafe {
                    let p = s.alloc_pages(size, align);
                    assert!(!p.is_null() && is_aligned(p as usize, align), "{p:p} at {align:#x}");
                    assert_eq!(resident_pages(p, size), 0, "{size:#x} at {align:#x} was touched");
                    let run = core::slice::from_raw_parts(p, size);
                    assert!(run.iter().all(|&b| b == 0));
                    s.dealloc_pages(p, size, align);
                }
            }
        }
    }

    #[test]
    fn an_over_map_that_would_overflow_is_null() {
        let s = SystemSource::new();
        let size = usize::MAX & !(PAGE_SIZE - 1);
        assert!(unsafe { s.alloc_pages(size, 1 << 20) }.is_null());
        assert!(unsafe { s.alloc_pages(size, PAGE_SIZE) }.is_null(), "the kernel refuses");
    }

    #[test]
    fn counting_source_tracks_peak() {
        let s = CountingSource::new(SystemSource::new());
        unsafe {
            let a = s.alloc_pages(PAGE_SIZE, PAGE_SIZE);
            let b = s.alloc_pages(2 * PAGE_SIZE, PAGE_SIZE);
            s.dealloc_pages(a, PAGE_SIZE, PAGE_SIZE);
            let st = s.stats();
            assert_eq!(st.live_bytes, 2 * PAGE_SIZE);
            assert_eq!(st.peak_bytes, 3 * PAGE_SIZE);
            assert_eq!(st.os_allocs, 2);
            assert_eq!(st.os_frees, 1);
            s.dealloc_pages(b, 2 * PAGE_SIZE, PAGE_SIZE);
        }
        assert_eq!(s.stats().live_bytes, 0);
        s.reset_stats();
        assert_eq!(s.stats(), AllocStats::default());
    }

    #[test]
    fn pages_for_rounds_up() {
        assert_eq!(pages_for(0), PAGE_SIZE);
        assert_eq!(pages_for(4097), 2 * PAGE_SIZE);
        assert_eq!(pages_for(3 * PAGE_SIZE), 3 * PAGE_SIZE);
    }

    #[test]
    #[cfg(unix)]
    fn protect_pages_roundtrip() {
        let s = CountingSource::new(SystemSource::new());
        unsafe {
            let p = s.alloc_pages(4 * PAGE_SIZE, PAGE_SIZE);
            assert!(!p.is_null());
            let guard = p.add(3 * PAGE_SIZE);
            assert!(s.protect_pages(guard, PAGE_SIZE, false), "mprotect PROT_NONE failed");
            // The unguarded prefix stays usable while the guard is armed.
            core::ptr::write_bytes(p, 0x11, 3 * PAGE_SIZE);
            assert!(s.protect_pages(guard, PAGE_SIZE, true), "mprotect restore failed");
            core::ptr::write_bytes(guard, 0x22, PAGE_SIZE);
            s.dealloc_pages(p, 4 * PAGE_SIZE, PAGE_SIZE);
        }
    }

    #[test]
    fn reference_source_forwards() {
        let s = CountingSource::new(SystemSource::new());
        let r = &s;
        unsafe {
            let p = r.alloc_pages(PAGE_SIZE, PAGE_SIZE);
            assert!(!p.is_null());
            r.dealloc_pages(p, PAGE_SIZE, PAGE_SIZE);
        }
        assert_eq!(r.stats().os_allocs, 1);
    }
}

/// A [`PageSource`] decorator that injects allocation failures
/// according to configurable *failure plans*. Used by fault-injection
/// tests to drive allocators through their out-of-memory paths.
///
/// Four plans compose — a call fails if **any** armed plan says so:
///
/// * **budget** (the constructor argument): after `budget` successful
///   allocations every further call fails until
///   [`refill`](FlakySource::refill);
/// * **every-Nth** ([`fail_every_nth`](FlakySource::fail_every_nth)):
///   deterministic periodic failure;
/// * **chance** ([`fail_with_chance`](FlakySource::fail_with_chance)):
///   probabilistic intermittent failure, drawn from a seeded splitmix64
///   PRNG so runs replay exactly from the seed;
/// * **outage** ([`fail_next`](FlakySource::fail_next)): the next `n`
///   calls fail, then the source recovers on its own (one-shot
///   recovery — no `refill` needed).
///
/// Frees are never blocked by any plan.
#[derive(Debug)]
pub struct FlakySource<S> {
    inner: S,
    /// Successful allocations left before the budget plan kicks in
    /// (decremented only by calls no other plan already failed).
    remaining: core::sync::atomic::AtomicIsize,
    /// Total `alloc_pages` calls (drives the every-Nth plan).
    calls: core::sync::atomic::AtomicU64,
    /// Period of the every-Nth plan; 0 disables it.
    nth: core::sync::atomic::AtomicU64,
    /// Failure probability as `p / 65536`; 0 disables the chance plan.
    chance: core::sync::atomic::AtomicU32,
    /// splitmix64 state for the chance plan.
    rng: core::sync::atomic::AtomicU64,
    /// Pending one-shot outage failures.
    outage: core::sync::atomic::AtomicU64,
    /// Calls denied by any plan (diagnostics for tests).
    denials: core::sync::atomic::AtomicU64,
}

impl<S> FlakySource<S> {
    /// Wraps `inner`, allowing `budget` successful allocations before
    /// the budget plan starts failing (use `isize::MAX` for "never").
    pub const fn new(inner: S, budget: isize) -> Self {
        use core::sync::atomic::{AtomicIsize, AtomicU32, AtomicU64};
        FlakySource {
            inner,
            remaining: AtomicIsize::new(budget),
            calls: AtomicU64::new(0),
            nth: AtomicU64::new(0),
            chance: AtomicU32::new(0),
            rng: AtomicU64::new(0),
            outage: AtomicU64::new(0),
            denials: AtomicU64::new(0),
        }
    }

    /// Wraps `inner` with an unlimited budget; failures come only from
    /// plans armed later.
    pub const fn reliable(inner: S) -> Self {
        Self::new(inner, isize::MAX)
    }

    /// Grants `n` more successful allocations on top of any still
    /// unconsumed (accumulated debt from past failures is forgiven, not
    /// carried). A lost-update-free read-modify-write: concurrent
    /// allocating threads can never erase a grant, and a racing `refill`
    /// can never resurrect budget that was already spent.
    pub fn refill(&self, n: isize) {
        use core::sync::atomic::Ordering;
        let _ = self.remaining.fetch_update(Ordering::AcqRel, Ordering::Acquire, |old| {
            Some(old.max(0).saturating_add(n))
        });
    }

    /// Remaining successful allocations (may be negative after
    /// failures).
    pub fn remaining(&self) -> isize {
        self.remaining.load(core::sync::atomic::Ordering::Acquire)
    }

    /// Arms the every-Nth plan: calls number N, 2N, 3N... (counting all
    /// `alloc_pages` calls since construction) fail. 0 disarms.
    pub fn fail_every_nth(&self, n: u64) {
        self.nth.store(n, core::sync::atomic::Ordering::Release);
    }

    /// Arms the chance plan: each call fails with probability
    /// `p / 65536`, decided by a splitmix64 stream starting at `seed`.
    /// `p == 0` disarms.
    pub fn fail_with_chance(&self, p: u16, seed: u64) {
        use core::sync::atomic::Ordering;
        self.rng.store(seed, Ordering::Release);
        self.chance.store(p as u32, Ordering::Release);
    }

    /// Arms a one-shot outage: the next `n` calls fail, after which the
    /// source recovers without intervention.
    pub fn fail_next(&self, n: u64) {
        self.outage.fetch_add(n, core::sync::atomic::Ordering::AcqRel);
    }

    /// Number of calls any plan has denied so far.
    pub fn denials(&self) -> u64 {
        self.denials.load(core::sync::atomic::Ordering::Acquire)
    }
}

/// splitmix64 output for state `z` (state advance is the caller's
/// golden-ratio `fetch_add`, so concurrent draws get distinct states).
fn splitmix64_mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

unsafe impl<S: PageSource> PageSource for FlakySource<S> {
    unsafe fn alloc_pages(&self, size: usize, align: usize) -> *mut u8 {
        use core::sync::atomic::Ordering;
        let call = self.calls.fetch_add(1, Ordering::AcqRel) + 1;
        let mut fail = false;
        // One-shot outage: consume one pending failure, if any.
        if self.outage.load(Ordering::Acquire) > 0
            && self
                .outage
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |o| o.checked_sub(1))
                .is_ok()
        {
            fail = true;
        }
        let nth = self.nth.load(Ordering::Acquire);
        if !fail && nth != 0 && call % nth == 0 {
            fail = true;
        }
        let p = self.chance.load(Ordering::Acquire) as u16;
        if !fail && p != 0 {
            let prev = self.rng.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::AcqRel);
            let drawn = splitmix64_mix(prev.wrapping_add(0x9E37_79B9_7F4A_7C15));
            if ((drawn >> 48) as u16) < p {
                fail = true;
            }
        }
        // Budget is consumed only by calls no other plan already failed,
        // so plans compose without double-charging.
        if !fail && self.remaining.fetch_sub(1, Ordering::AcqRel) <= 0 {
            fail = true;
        }
        if fail {
            self.denials.fetch_add(1, Ordering::AcqRel);
            return core::ptr::null_mut();
        }
        unsafe { self.inner.alloc_pages(size, align) }
    }

    unsafe fn dealloc_pages(&self, ptr: *mut u8, size: usize, align: usize) {
        unsafe { self.inner.dealloc_pages(ptr, size, align) }
    }

    fn stats(&self) -> AllocStats {
        self.inner.stats()
    }

    // Protection changes are never failure-injected: like frees, they are
    // on the *give back / contain* side of the contract, and blocking
    // them would turn an injected OOM into a wild fault.
    unsafe fn protect_pages(&self, ptr: *mut u8, len: usize, readwrite: bool) -> bool {
        unsafe { self.inner.protect_pages(ptr, len, readwrite) }
    }

    // Denials return null, never dirty memory, so the inner source's
    // zeroing guarantee survives the decorator.
    fn zeroes_fresh_pages(&self) -> bool {
        self.inner.zeroes_fresh_pages()
    }
}

#[cfg(test)]
mod flaky_tests {
    use super::*;

    #[test]
    fn flaky_source_fails_after_budget() {
        let s = FlakySource::new(SystemSource::new(), 2);
        unsafe {
            let a = s.alloc_pages(PAGE_SIZE, PAGE_SIZE);
            let b = s.alloc_pages(PAGE_SIZE, PAGE_SIZE);
            assert!(!a.is_null() && !b.is_null());
            assert!(s.alloc_pages(PAGE_SIZE, PAGE_SIZE).is_null(), "budget exhausted");
            assert!(s.alloc_pages(PAGE_SIZE, PAGE_SIZE).is_null(), "stays failed");
            s.refill(1);
            let c = s.alloc_pages(PAGE_SIZE, PAGE_SIZE);
            assert!(!c.is_null(), "refill revives the source");
            s.dealloc_pages(a, PAGE_SIZE, PAGE_SIZE);
            s.dealloc_pages(b, PAGE_SIZE, PAGE_SIZE);
            s.dealloc_pages(c, PAGE_SIZE, PAGE_SIZE);
        }
    }

    #[test]
    fn dealloc_always_works() {
        let s = FlakySource::new(SystemSource::new(), 1);
        unsafe {
            let a = s.alloc_pages(PAGE_SIZE, PAGE_SIZE);
            assert!(s.alloc_pages(PAGE_SIZE, PAGE_SIZE).is_null());
            // Frees must never be blocked by the failure mode.
            s.dealloc_pages(a, PAGE_SIZE, PAGE_SIZE);
        }
    }

    #[test]
    fn refill_adds_to_unconsumed_budget() {
        // The grant is a read-modify-write, not a blind store: refilling
        // while budget remains must not discard the remainder.
        let s = FlakySource::new(SystemSource::new(), 5);
        unsafe {
            let a = s.alloc_pages(PAGE_SIZE, PAGE_SIZE); // remaining: 4
            s.refill(2); // remaining: 6, not 2
            assert_eq!(s.remaining(), 6);
            let mut held = vec![a];
            for _ in 0..6 {
                let p = s.alloc_pages(PAGE_SIZE, PAGE_SIZE);
                assert!(!p.is_null());
                held.push(p);
            }
            assert!(s.alloc_pages(PAGE_SIZE, PAGE_SIZE).is_null());
            for p in held {
                s.dealloc_pages(p, PAGE_SIZE, PAGE_SIZE);
            }
        }
    }

    #[test]
    fn refill_forgives_debt_but_never_loses_grants() {
        let s = FlakySource::new(SystemSource::new(), 0);
        unsafe {
            // Run up a debt of 3 failed calls.
            for _ in 0..3 {
                assert!(s.alloc_pages(PAGE_SIZE, PAGE_SIZE).is_null());
            }
            assert!(s.remaining() < 0);
            s.refill(2); // debt forgiven: exactly 2 successes
            let a = s.alloc_pages(PAGE_SIZE, PAGE_SIZE);
            let b = s.alloc_pages(PAGE_SIZE, PAGE_SIZE);
            assert!(!a.is_null() && !b.is_null());
            assert!(s.alloc_pages(PAGE_SIZE, PAGE_SIZE).is_null());
            s.dealloc_pages(a, PAGE_SIZE, PAGE_SIZE);
            s.dealloc_pages(b, PAGE_SIZE, PAGE_SIZE);
        }
    }

    #[test]
    fn every_nth_plan_fails_periodically() {
        let s = FlakySource::reliable(SystemSource::new());
        s.fail_every_nth(3);
        unsafe {
            let pattern: Vec<bool> = (0..9)
                .map(|_| {
                    let p = s.alloc_pages(PAGE_SIZE, PAGE_SIZE);
                    if !p.is_null() {
                        s.dealloc_pages(p, PAGE_SIZE, PAGE_SIZE);
                    }
                    p.is_null()
                })
                .collect();
            assert_eq!(
                pattern,
                [false, false, true, false, false, true, false, false, true]
            );
        }
        assert_eq!(s.denials(), 3);
    }

    #[test]
    fn chance_plan_is_deterministic_per_seed() {
        let run = |seed: u64| -> Vec<bool> {
            let s = FlakySource::reliable(SystemSource::new());
            s.fail_with_chance(32768, seed);
            (0..64)
                .map(|_| unsafe {
                    let p = s.alloc_pages(PAGE_SIZE, PAGE_SIZE);
                    if !p.is_null() {
                        s.dealloc_pages(p, PAGE_SIZE, PAGE_SIZE);
                    }
                    p.is_null()
                })
                .collect()
        };
        let a = run(7);
        let b = run(7);
        let c = run(8);
        assert_eq!(a, b, "same seed must replay identically");
        assert_ne!(a, c, "different seeds should differ");
        let fails = a.iter().filter(|x| **x).count();
        assert!(fails > 8 && fails < 56, "p=0.5 should fail roughly half: {fails}/64");
    }

    #[test]
    fn outage_plan_recovers_on_its_own() {
        let s = FlakySource::reliable(SystemSource::new());
        s.fail_next(2);
        unsafe {
            assert!(s.alloc_pages(PAGE_SIZE, PAGE_SIZE).is_null());
            assert!(s.alloc_pages(PAGE_SIZE, PAGE_SIZE).is_null());
            let p = s.alloc_pages(PAGE_SIZE, PAGE_SIZE);
            assert!(!p.is_null(), "outage must clear itself after n failures");
            s.dealloc_pages(p, PAGE_SIZE, PAGE_SIZE);
        }
        assert_eq!(s.denials(), 2);
    }

    #[test]
    fn concurrent_refill_never_loses_grants() {
        // 4 threads each grant 100 one at a time while 4 threads consume;
        // total successes must equal total grants plus the initial budget.
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let s = Arc::new(FlakySource::new(SystemSource::new(), 0));
        let successes = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    s.refill(1);
                    std::thread::yield_now();
                }
            }));
        }
        for _ in 0..4 {
            let s = Arc::clone(&s);
            let successes = Arc::clone(&successes);
            handles.push(std::thread::spawn(move || {
                for _ in 0..200 {
                    unsafe {
                        let p = s.alloc_pages(PAGE_SIZE, PAGE_SIZE);
                        if !p.is_null() {
                            successes.fetch_add(1, Ordering::AcqRel);
                            s.dealloc_pages(p, PAGE_SIZE, PAGE_SIZE);
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // `refill` forgives debt, so some grants may legally be spent
        // covering earlier failures — but successes can never exceed
        // grants, and the atomic RMW guarantees at least one success
        // (blind-store refill could lose every grant).
        let got = successes.load(Ordering::Acquire);
        assert!(got <= 400, "more successes than grants: {got}");
        assert!(got > 0, "all grants lost");
    }
}
