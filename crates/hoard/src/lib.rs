//! Hoard-style lock-based superblock allocator baseline (Berger et al.,
//! ASPLOS 2000), as described in §2.2 of the PLDI 2004 paper.
//!
//! Per-processor heaps of 16 KiB superblocks with fullness statistics, a
//! global heap that absorbs superblocks from heaps with "too much
//! available space" (the emptiness invariant, which bounds blowup), and
//! per-heap mutexes: "Typically, malloc and free require one and two
//! lock acquisitions, respectively."
//!
//! The structural behaviours the paper measures against Hoard all
//! emerge here: frees must lock the *owner's* heap (the
//! producer-consumer hotspot of §4.2.3), moving superblocks through the
//! global heap takes two locks, and blocks carry no prefix (headers are
//! found by address masking), so Hoard's 8-byte-block workloads put 1019
//! blocks in a superblock where lfmalloc puts 1024 16-byte cells.

pub mod heap;
pub mod sb;

use core::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use heap::{class_for, lock_owner, HoardHeap, CLASS_SIZES_H};
use malloc_api::{AllocStats, RawMalloc};
use osmem::source::pages_for;
use osmem::{CountingSource, PagePool, PageSource, SystemSource};
use sb::{region_of, SbHeader, MAGIC_DIRECT, MAGIC_SB, OWNER_GLOBAL, SB_HEADER, SB_SHIFT, SB_SIZE};
use std::sync::Arc;

thread_local! {
    static THREAD_SLOT: usize = {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

/// Header for direct (large) allocations; lives at a 16 KiB-aligned base
/// so the same masking as superblocks identifies it.
#[repr(C)]
struct DirectHeader {
    magic: u32,
    _pad: u32,
    total: usize,
}

/// The Hoard-style allocator.
///
/// # Example
///
/// ```
/// use hoard::Hoard;
/// use malloc_api::RawMalloc;
///
/// let a = Hoard::new(4); // four processor heaps
/// unsafe {
///     let p = a.malloc(100);
///     assert!(!p.is_null());
///     a.free(p);
/// }
/// ```
pub struct Hoard<S: PageSource = CountingSource<SystemSource>> {
    heaps: Vec<HoardHeap>,
    global: HoardHeap,
    pool: PagePool<SB_SHIFT>,
    source: Arc<S>,
    /// Frees rejected by region-magic or block-geometry validation.
    misuse: AtomicU64,
}

impl Hoard<CountingSource<SystemSource>> {
    /// `nheaps` processor heaps over a counting system source.
    pub fn new(nheaps: usize) -> Self {
        Self::with_source(nheaps, Arc::new(CountingSource::new(SystemSource::new())))
    }

    /// One heap per detected CPU.
    pub fn new_detected() -> Self {
        let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        Self::new(cpus)
    }
}

impl<S: PageSource + Send + Sync> Hoard<S> {
    /// Builds the allocator over an injected page source.
    pub fn with_source(nheaps: usize, source: Arc<S>) -> Self {
        let nheaps = nheaps.max(1);
        Hoard {
            heaps: (0..nheaps).map(|_| HoardHeap::new()).collect(),
            global: HoardHeap::new(),
            pool: PagePool::new(64), // 1 MiB batches, like the others
            source,
            misuse: AtomicU64::new(0),
        }
    }

    /// Frees rejected because the 16 KiB region carried neither magic
    /// value, or the pointer failed block-geometry checks against its
    /// superblock (misaligned interior pointer, out-of-range offset, or
    /// a free into an already-empty superblock).
    pub fn misuse_count(&self) -> u64 {
        self.misuse.load(Ordering::Relaxed)
    }

    /// The page source (for stats).
    pub fn source(&self) -> &Arc<S> {
        &self.source
    }

    /// Superblocks currently in the global heap (diagnostics).
    pub fn global_superblocks(&self) -> usize {
        self.global.inner.lock().superblock_count()
    }

    fn heap_index(&self) -> usize {
        THREAD_SLOT.try_with(|s| *s).unwrap_or(0) % self.heaps.len()
    }

    unsafe fn malloc_small(&self, ci: usize) -> *mut u8 {
        let sz = CLASS_SIZES_H[ci] as usize;
        let hi = self.heap_index();
        let mut heap = self.heaps[hi].inner.lock(); // lock #1
        let sb = match heap.find_usable(ci) {
            Some(sb) => sb,
            None => {
                // Check the global heap (lock #2), else map a fresh
                // superblock.
                let mut g = self.global.inner.lock();
                if let Some(sb) = g.find_usable(ci) {
                    unsafe {
                        g.unlink(sb);
                        let used = (*sb).used as usize * sz;
                        let cap = (*sb).capacity as usize * sz;
                        g.u -= used;
                        g.a -= cap;
                        (*sb).owner.store(hi, Ordering::Release);
                        heap.link(sb);
                        heap.u += used;
                        heap.a += cap;
                    }
                    sb
                } else {
                    drop(g);
                    let base = self.pool.alloc(&*self.source);
                    if base.is_null() {
                        return core::ptr::null_mut();
                    }
                    unsafe {
                        let sb = SbHeader::init(base, ci as u32, sz as u32);
                        (*sb).owner.store(hi, Ordering::Release);
                        heap.link(sb);
                        heap.a += (*sb).capacity as usize * sz;
                        sb
                    }
                }
            }
        };
        unsafe {
            // A usable superblock always has a free block under the
            // fullness invariants, but if bookkeeping is ever wrong under
            // pressure, degrade to an OOM null rather than aborting the
            // process mid-lock.
            let Some(block) = (*sb).pop_block() else {
                heap.refile(sb);
                return core::ptr::null_mut();
            };
            heap.u += sz;
            heap.refile(sb);
            block
        }
    }

    unsafe fn free_small(&self, ptr: *mut u8, sb: *mut SbHeader) {
        let sz = unsafe { (*sb).sz } as usize;
        let (owner, mut guard) = unsafe { lock_owner(&self.heaps, &self.global, sb) };
        unsafe {
            // Geometry checks under the owner's lock, before the block
            // is linked into the free list: a misaligned or out-of-range
            // pointer would corrupt the list, and a free into an empty
            // superblock would underflow `used`.
            let off = (ptr as usize).wrapping_sub(sb as usize + SB_HEADER);
            if off % sz != 0 || off >= (*sb).capacity as usize * sz || (*sb).used == 0 {
                self.misuse.fetch_add(1, Ordering::Relaxed);
                return;
            }
            (*sb).push_block(ptr);
            guard.u -= sz;
            guard.refile(sb);
        }
        if owner == OWNER_GLOBAL {
            // Fully-empty superblocks in the global heap return to the
            // page pool (bounding global-heap growth).
            unsafe {
                if (*sb).used == 0 {
                    guard.unlink(sb);
                    guard.a -= (*sb).capacity as usize * sz;
                    self.pool.dealloc(sb as *mut u8);
                }
            }
            return;
        }
        if !guard.invariant_holds() {
            // "When a processor heap is found to have too much available
            // space, one of its superblocks is moved to the global
            // heap." Lock order is always processor → global.
            if let Some(victim) = guard.find_emptiest() {
                let mut g = self.global.inner.lock();
                unsafe {
                    let vsz = (*victim).sz as usize;
                    let used = (*victim).used as usize * vsz;
                    let cap = (*victim).capacity as usize * vsz;
                    guard.unlink(victim);
                    guard.u -= used;
                    guard.a -= cap;
                    (*victim).owner.store(OWNER_GLOBAL, Ordering::Release);
                    g.link(victim);
                    g.u += used;
                    g.a += cap;
                    if (*victim).used == 0 {
                        g.unlink(victim);
                        g.a -= cap;
                        self.pool.dealloc(victim as *mut u8);
                    }
                }
            }
        }
    }

    unsafe fn malloc_direct(&self, size: usize) -> *mut u8 {
        let Some(padded) = size.checked_add(SB_HEADER + osmem::PAGE_SIZE - 1) else {
            return core::ptr::null_mut();
        };
        let total = pages_for(padded & !(osmem::PAGE_SIZE - 1));
        let base = unsafe { self.source.alloc_pages(total, SB_SIZE) };
        if base.is_null() {
            return core::ptr::null_mut();
        }
        unsafe {
            (base as *mut DirectHeader)
                .write(DirectHeader { magic: MAGIC_DIRECT, _pad: 0, total });
            base.add(SB_HEADER)
        }
    }

    unsafe fn free_direct(&self, region: *mut SbHeader) {
        unsafe {
            let header = region as *mut DirectHeader;
            let total = (*header).total;
            self.source.dealloc_pages(region as *mut u8, total, SB_SIZE);
        }
    }
}

unsafe impl<S: PageSource + Send + Sync> RawMalloc for Hoard<S> {
    unsafe fn malloc(&self, size: usize) -> *mut u8 {
        match class_for(size) {
            Some(ci) => unsafe { self.malloc_small(ci) },
            None => unsafe { self.malloc_direct(size) },
        }
    }

    unsafe fn free(&self, ptr: *mut u8) {
        if ptr.is_null() {
            return;
        }
        let region = unsafe { region_of(ptr) };
        match unsafe { (*region).magic } {
            MAGIC_SB => unsafe { self.free_small(ptr, region) },
            MAGIC_DIRECT => unsafe { self.free_direct(region) },
            // Foreign or wild pointer: its region carries neither magic.
            // Count and drop the free instead of aborting mid-workload.
            _ => {
                self.misuse.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn name(&self) -> &str {
        "hoard"
    }

    unsafe fn malloc_aligned(&self, size: usize, align: usize) -> *mut u8 {
        // Blocks are size-aligned within 16 KiB-aligned superblocks, so
        // power-of-two classes give natural alignment up to 16.
        if align <= 16 {
            let bumped = size.max(align);
            unsafe { self.malloc(bumped) }
        } else {
            core::ptr::null_mut()
        }
    }

    fn stats(&self) -> AllocStats {
        self.source.stats()
    }
}

impl<S: PageSource> Drop for Hoard<S> {
    fn drop(&mut self) {
        // Return every superblock to the pool, then unmap the pool.
        for h in &self.heaps {
            for base in h.inner.lock().drain() {
                unsafe { self.pool.dealloc(base) };
            }
        }
        for base in self.global.inner.lock().drain() {
            unsafe { self.pool.dealloc(base) };
        }
        unsafe { self.pool.release_all(&*self.source) };
    }
}

impl<S: PageSource> core::fmt::Debug for Hoard<S> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Hoard").field("heaps", &self.heaps.len()).finish_non_exhaustive()
    }
}

impl<S: PageSource> Hoard<S> {
    /// Makes this allocator fork-safe for the lifetime of the returned
    /// guard, by registering [`malloc_api::procfork`] hooks that hold
    /// **every** heap lock across `fork`: prepare acquires the
    /// processor heaps in index order and the global heap last —
    /// matching the hot paths' heap→global order, so prepare can never
    /// deadlock against a concurrent `malloc_small` — and parent and
    /// child both release them. Without this, a fork racing another
    /// thread's malloc snapshots some mutex locked by a thread that
    /// does not exist in the child, and the child's next allocation on
    /// that heap deadlocks forever.
    ///
    /// Only forks that run the procfork hook protocol
    /// ([`malloc_api::procfork::fork`], or raw `fork(2)` after
    /// [`malloc_api::procfork::install`]) are covered. The prepare hook
    /// allocates (a `Vec` of guards), so it must not run inside a
    /// context where the global allocator is this instance — Hoard is a
    /// baseline, never the global allocator.
    pub fn atfork_guard(&self) -> HoardAtforkGuard<'_, S> {
        let stash = Box::into_raw(Box::new(HoardAtforkStash {
            alloc: self as *const Hoard<S>,
            guards: core::cell::UnsafeCell::new(None),
        }));
        let token = malloc_api::procfork::register(malloc_api::procfork::HookSet {
            prepare: Some(hoard_atfork_prepare::<S>),
            parent: Some(hoard_atfork_release::<S>),
            child: Some(hoard_atfork_release::<S>),
            data: stash as usize,
        });
        HoardAtforkGuard { token, stash, _alloc: core::marker::PhantomData }
    }
}

/// Hook-side state of one [`Hoard::atfork_guard`] registration. Only
/// the forking thread touches `guards`, under the procfork registry
/// lock.
struct HoardAtforkStash<S: PageSource> {
    alloc: *const Hoard<S>,
    guards: core::cell::UnsafeCell<Option<Vec<malloc_api::sync::MutexGuard<'static, crate::heap::HeapInner>>>>,
}

unsafe fn hoard_atfork_prepare<S: PageSource>(data: usize) {
    let stash = unsafe { &*(data as *const HoardAtforkStash<S>) };
    let a = unsafe { &*stash.alloc };
    let mut guards = Vec::with_capacity(a.heaps.len() + 1);
    // Processor heaps in index order, then the global heap — the same
    // partial order the hot paths use (heap lock, then global lock).
    for heap in &a.heaps {
        // Lifetime erasure only: released by `hoard_atfork_release` on
        // this same thread; the allocator outlives the registration.
        guards.push(unsafe {
            core::mem::transmute::<
                malloc_api::sync::MutexGuard<'_, crate::heap::HeapInner>,
                malloc_api::sync::MutexGuard<'static, crate::heap::HeapInner>,
            >(heap.inner.lock())
        });
    }
    guards.push(unsafe {
        core::mem::transmute::<
            malloc_api::sync::MutexGuard<'_, crate::heap::HeapInner>,
            malloc_api::sync::MutexGuard<'static, crate::heap::HeapInner>,
        >(a.global.inner.lock())
    });
    unsafe { *stash.guards.get() = Some(guards) };
}

/// Parent and child both just unlock: the forking thread holds every
/// lock, so in both processes the heaps are consistent and the mutexes
/// are ours to release.
unsafe fn hoard_atfork_release<S: PageSource>(data: usize) {
    let stash = unsafe { &*(data as *const HoardAtforkStash<S>) };
    drop(unsafe { (*stash.guards.get()).take() });
}

/// RAII registration handle returned by [`Hoard::atfork_guard`];
/// unregisters the hooks (and frees the hook stash) on drop.
pub struct HoardAtforkGuard<'a, S: PageSource> {
    token: Option<malloc_api::procfork::HookToken>,
    stash: *mut HoardAtforkStash<S>,
    _alloc: core::marker::PhantomData<&'a Hoard<S>>,
}

impl<S: PageSource> HoardAtforkGuard<'_, S> {
    /// False when the procfork registry was full and no hooks could be
    /// installed (the guard is inert; fork safety is not provided).
    pub fn is_armed(&self) -> bool {
        self.token.is_some()
    }
}

impl<S: PageSource> Drop for HoardAtforkGuard<'_, S> {
    fn drop(&mut self) {
        if let Some(token) = self.token.take() {
            // Blocks until any in-flight fork's hooks have run, so the
            // stash is quiescent when freed.
            malloc_api::procfork::unregister(token);
        }
        drop(unsafe { Box::from_raw(self.stash) });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use malloc_api::testkit;

    #[test]
    fn full_conformance_battery() {
        let a = Arc::new(Hoard::new(4));
        testkit::check_all(a);
    }

    #[test]
    fn atfork_guard_registers_and_unregisters() {
        let a = Hoard::new(2);
        let before = malloc_api::procfork::registered_count();
        let g = a.atfork_guard();
        assert!(g.is_armed());
        assert_eq!(malloc_api::procfork::registered_count(), before + 1);
        drop(g);
        assert_eq!(malloc_api::procfork::registered_count(), before);
    }

    #[test]
    fn single_heap_conformance() {
        let a = Arc::new(Hoard::new(1));
        testkit::check_basic(&*a);
        testkit::check_free_orders(&*a, 5);
        testkit::check_remote_free(a, 2, 500);
    }

    #[test]
    fn blocks_are_size_aligned_16() {
        let a = Hoard::new(2);
        unsafe {
            for &sz in &[8usize, 16, 100, 1000, 4096] {
                let p = a.malloc(sz);
                assert_eq!(p as usize % 16, 0, "size {sz}");
                a.free(p);
            }
        }
    }

    #[test]
    fn emptiness_invariant_moves_superblocks_to_global() {
        let a = Hoard::new(1);
        unsafe {
            // Allocate many small blocks (several superblocks), then
            // free all: the heap now holds far more capacity than use,
            // so superblocks must flow to the global heap / pool.
            let blocks: Vec<*mut u8> = (0..5_000).map(|_| a.malloc(16)).collect();
            for &p in &blocks {
                assert!(!p.is_null());
            }
            for p in blocks {
                a.free(p);
            }
            let heap_sbs = a.heaps[0].inner.lock().superblock_count();
            assert!(
                heap_sbs <= heap::K_SLACK + 2,
                "processor heap kept {heap_sbs} superblocks; invariant not enforced"
            );
        }
    }

    #[test]
    fn global_heap_reuses_superblocks_across_heaps() {
        let a = Arc::new(Hoard::new(2));
        // Thread 1 creates garbage; thread 2 should be able to reuse the
        // released capacity (via global heap or pool) without the OS
        // footprint doubling.
        let a1 = Arc::clone(&a);
        std::thread::spawn(move || unsafe {
            let blocks: Vec<*mut u8> = (0..5_000).map(|_| a1.malloc(16)).collect();
            for p in blocks {
                a1.free(p);
            }
        })
        .join()
        .unwrap();
        let peak_after_phase1 = a.stats().peak_bytes;
        let a2 = Arc::clone(&a);
        std::thread::spawn(move || unsafe {
            let blocks: Vec<*mut u8> = (0..5_000).map(|_| a2.malloc(16)).collect();
            for p in blocks {
                a2.free(p);
            }
        })
        .join()
        .unwrap();
        let peak_after_phase2 = a.stats().peak_bytes;
        assert!(
            peak_after_phase2 < peak_after_phase1 * 2,
            "no reuse across heaps: {peak_after_phase1} -> {peak_after_phase2}"
        );
    }

    #[test]
    fn exhausted_source_yields_null_not_panic() {
        use osmem::FlakySource;
        // Budget 0: every page-source call fails from the start.
        let dead = Arc::new(FlakySource::new(SystemSource::new(), 0));
        let a = Hoard::with_source(2, Arc::clone(&dead));
        unsafe {
            assert!(a.malloc(16).is_null(), "small path must report OOM");
            assert!(a.malloc(100_000).is_null(), "direct path must report OOM");
        }
        assert!(dead.denials() >= 2);

        // Budget 1: one superblock's worth of small blocks succeeds,
        // then the allocator degrades to nulls while frees keep working.
        let tight = Arc::new(FlakySource::new(SystemSource::new(), 1));
        let a = Hoard::with_source(1, Arc::clone(&tight));
        unsafe {
            let mut got = Vec::new();
            loop {
                let p = a.malloc(64);
                if p.is_null() {
                    break;
                }
                got.push(p);
            }
            assert!(!got.is_empty(), "the budgeted superblock must be carved");
            for p in got {
                a.free(p); // no panic, accounting stays consistent
            }
            // Freed capacity is reusable without new OS calls.
            let p = a.malloc(64);
            assert!(!p.is_null());
            a.free(p);
        }
    }

    #[test]
    fn misuse_is_counted_not_fatal() {
        let a = Hoard::new(1);
        unsafe {
            let p = a.malloc(64);
            assert!(!p.is_null());
            // Misaligned interior pointer: same superblock, bad offset.
            a.free(p.add(8));
            assert_eq!(a.misuse_count(), 1);
            // The block itself is still valid and freeable.
            a.free(p);
            assert_eq!(a.misuse_count(), 1);
            // Freeing it again hits either the used==0 underflow check
            // (superblock drained to the pool) or the magic check.
            a.free(p);
            assert_eq!(a.misuse_count(), 2);
            // Foreign pointer whose 16 KiB region is mapped but carries
            // no hoard magic.
            let foreign = vec![0u8; 3 * SB_SIZE];
            let inside = ((foreign.as_ptr() as usize + SB_SIZE - 1) & !(SB_SIZE - 1)) + 64;
            a.free(inside as *mut u8);
            assert_eq!(a.misuse_count(), 3);
            // The allocator still works after every rejection.
            let q = a.malloc(64);
            assert!(!q.is_null());
            a.free(q);
        }
        assert_eq!(a.misuse_count(), 3);
    }

    #[test]
    fn emptiness_invariant_moves_superblocks_to_the_global_heap() {
        let a = Hoard::new(1);
        let held = |a: &Hoard| a.heaps[0].inner.lock().superblock_count();
        let blocks: Vec<*mut u8> = (0..5_000).map(|_| unsafe { a.malloc(64) }).collect();
        let before = held(&a);
        for p in blocks {
            unsafe { a.free(p) };
        }
        // 5000 frees of a single class empty the heap far past the
        // invariant. The invariant is the only way a superblock leaves a
        // processor heap: into the global heap, which hands an empty one
        // back to the page pool.
        assert!(held(&a) < before, "the heap kept all {before} superblocks");
    }

    #[test]
    fn direct_blocks_roundtrip() {
        let a = Hoard::new(2);
        unsafe {
            let p = a.malloc(100_000);
            assert!(!p.is_null());
            core::ptr::write_bytes(p, 0xCD, 100_000);
            a.free(p);
        }
        assert_eq!(a.stats().live_bytes, 0, "direct blocks must unmap on free");
    }
}
