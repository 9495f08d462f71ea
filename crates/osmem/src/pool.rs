//! Hyperblock-batched pool of fixed-size regions (§3.2.5).
//!
//! "In order to reduce the frequency of calls to mmap and munmap, we
//! allocate superblocks (e.g., 16 KB) in batches of (e.g., 1 MB)
//! hyperblocks (superblocks of superblocks)."
//!
//! [`PagePool`] keeps a lock-free LIFO of freed regions and a *tail*
//! word, `base | n`: the newest hyperblock's last `n` regions, never
//! handed out and never written. When both are empty it maps one
//! hyperblock from the [`PageSource`], hands out its first region and
//! makes the rest the tail. Freed regions go to the LIFO — the
//! pool **never unmaps on the hot path**, which is what makes the
//! tag-protected stack traversal safe (see [`TaggedStack`]); the paper
//! makes the equivalent trade for descriptor superblocks and notes the
//! retained fraction is negligible. Memory does go back to the OS, but
//! only through the quiescent maintenance entry points: `trim`/`trim_to`
//! unmap fully free hyperblocks down to a watermark, and `release_all`
//! exists for orderly teardown by the owner.

use crate::source::PageSource;
use core::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use lockfree_structs::TaggedStack;
use std::alloc::{GlobalAlloc, Layout, System};
use std::time::{Duration, Instant};

/// How many times the pool's previous carve a thread that found another
/// one mapping waits for its regions before it maps a hyperblock of its
/// own (the mapper may have been killed), and the least that carve is
/// taken to have lasted. A carve is a map and a word (≈ 1–10 µs); the
/// floor is for a source that sleeps in `alloc_pages` and for a kernel
/// that stalls one `mmap`, which a wait of 8 × a few µs would not outlast.
const MAPPER_PATIENCE: u32 = 8;
const MIN_CARVE: Duration = Duration::from_micros(500);

/// Registry entry recording one hyperblock for teardown. Allocated from
/// the system allocator (never the global allocator).
struct HyperRecord {
    base: *mut u8,
    bytes: usize,
    next: *mut HyperRecord,
}

/// A lock-free cache of `2^SHIFT`-byte, `2^SHIFT`-aligned regions carved
/// from hyperblocks of `batch` regions each.
///
/// # Example
///
/// ```
/// use osmem::{PagePool, SystemSource};
///
/// // 16 KiB superblocks in 1 MiB hyperblocks, as in the paper.
/// let src = SystemSource::new();
/// let pool: PagePool<14> = PagePool::new(64);
/// let sb = pool.alloc(&src);
/// assert!(!sb.is_null());
/// assert_eq!(sb as usize % (1 << 14), 0);
/// unsafe { pool.dealloc(sb) };
/// let again = pool.alloc(&src);
/// assert_eq!(again, sb, "freed region is recycled, not re-mapped");
/// unsafe { pool.dealloc(again) };
/// unsafe { pool.release_all(&src) };
/// ```
#[derive(Debug)]
pub struct PagePool<const SHIFT: u32> {
    free: TaggedStack<SHIFT>,
    /// The tail, `base | n` (DESIGN.md §22): regions `batch − n .. batch`
    /// of the hyperblock at `base`, taken from the front by CAS; `n == 0`
    /// is empty.
    fresh: AtomicUsize,
    hypers: AtomicPtr<HyperRecord>,
    hyper_count: AtomicUsize,
    batch: usize,
    /// Set by the thread that maps a hyperblock for the dry pool, cleared
    /// by whoever finishes a carve: visitors meanwhile poll the pool for
    /// a bounded time and do not map a second one. `Relaxed` throughout:
    /// the word publishes nothing, the regions come through the tail.
    mapping: AtomicBool,
    /// How long the last carve took, in nanoseconds.
    carve_ns: AtomicU64,
    /// Lifetime count of hyperblock carves (never decremented by trim).
    #[cfg(feature = "stats")]
    carves: malloc_api::telemetry::Counter,
}

unsafe impl<const SHIFT: u32> Send for PagePool<SHIFT> {}
unsafe impl<const SHIFT: u32> Sync for PagePool<SHIFT> {}

impl<const SHIFT: u32> PagePool<SHIFT> {
    /// Bytes per region.
    pub const REGION_SIZE: usize = 1 << SHIFT;

    /// The tail word's count bits; the rest is the hyperblock's base.
    const COUNT: usize = Self::REGION_SIZE - 1;

    /// Creates a pool that refills `batch` regions at a time.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero or above `REGION_SIZE` (the tail's count
    /// lives in a region address's low bits).
    pub const fn new(batch: usize) -> Self {
        assert!(batch > 0 && batch <= Self::REGION_SIZE, "batch out of range");
        PagePool {
            free: TaggedStack::new(),
            fresh: AtomicUsize::new(0),
            hypers: AtomicPtr::new(core::ptr::null_mut()),
            hyper_count: AtomicUsize::new(0),
            batch,
            mapping: AtomicBool::new(false),
            carve_ns: AtomicU64::new(0),
            #[cfg(feature = "stats")]
            carves: malloc_api::telemetry::Counter::new(),
        }
    }

    /// Hands out one region: from the free LIFO if possible, then from
    /// the tail, otherwise from a freshly mapped hyperblock. Null only if
    /// the source fails.
    pub fn alloc<S: PageSource>(&self, source: &S) -> *mut u8 {
        let fp = malloc_api::fail_point!("pool.carve");
        if fp.kill {
            return core::ptr::null_mut(); // the caller sees OOM
        }
        // `retry` skips the LIFO and the tail once, forcing a fresh
        // hyperblock carve even when regions are available.
        if !fp.retry {
            loop {
                if let Some(r) = self.take() {
                    return r;
                }
                // Dry. One mapper at a time: whoever sets the word maps,
                // and a thread that finds it set waits for that carve's
                // regions — a bounded time, then it maps its own as every
                // visitor did before, so a killed mapper blocks nobody.
                // (A carve of one region stocks nothing to wait for.)
                let elected = self.batch == 1 || !self.mapping.swap(true, Ordering::Relaxed);
                if elected || !self.outwait() {
                    break;
                }
            }
        }
        let t0 = Instant::now();
        let region = self.carve(source, fp.retry);
        self.carve_ns.store(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        // Cleared by every thread that carved, elected or out of patience:
        // the word a killed mapper left set is nobody else's to clear.
        self.mapping.store(false, Ordering::Relaxed);
        region
    }

    /// A region off the LIFO, else the tail's first, in ascending order.
    fn take(&self) -> Option<*mut u8> {
        // SAFETY: a region on the LIFO stays mapped until a quiescent
        // `trim_to`/`release_all`, the tagged stack's condition.
        if let Some(r) = unsafe { self.free.pop() } {
            return Some(r as *mut u8);
        }
        // Acquire: pairs with the carve's install, after the hyperblock's
        // registration. What the CAS hands out is a function of the word
        // alone — no load from memory — so an old value seen again hands
        // out what it says (DESIGN.md §22.2).
        let f = self
            .fresh
            .fetch_update(Ordering::Acquire, Ordering::Relaxed, |f| (f & Self::COUNT > 0).then(|| f - 1))
            .ok()?;
        let n = f & Self::COUNT;
        Some((f - n + ((self.batch - n) << SHIFT)) as *mut u8)
    }

    /// Polls the LIFO and the tail while another thread maps. True once
    /// one is stocked or the mapper is done (look again), false when the
    /// mapper has taken [`MAPPER_PATIENCE`] times the previous carve.
    fn outwait(&self) -> bool {
        let last = Duration::from_nanos(self.carve_ns.load(Ordering::Relaxed));
        let (patience, start) = (last.max(MIN_CARVE) * MAPPER_PATIENCE, Instant::now());
        let mut polls = 0u32;
        while self.mapping.load(Ordering::Relaxed) && !self.has_free() {
            if start.elapsed() > patience {
                return false;
            }
            polls = polls.wrapping_add(1);
            if polls & 63 == 0 {
                std::thread::yield_now();
            } else {
                core::hint::spin_loop();
            }
        }
        true
    }

    /// Maps one hyperblock, keeps its first region and installs the rest
    /// as the tail — or pushes them, where another carve's tail is still
    /// there.
    fn carve<S: PageSource>(&self, source: &S, forced: bool) -> *mut u8 {
        let bytes = self.batch << SHIFT;
        let base = unsafe { source.alloc_pages(bytes, Self::REGION_SIZE) };
        if base.is_null() {
            // One more attempt on the pool: a racing free may have
            // repopulated it while the OS call failed.
            return self.take().unwrap_or(core::ptr::null_mut());
        }
        // Threads that map for a dry pool at the same time (one ran out of
        // patience with the other) each hold a hyperblock; whoever comes
        // back to a stocked pool takes a region there and returns its own
        // mapping, which nobody else ever saw (a forced carve keeps it).
        if !forced {
            if let Some(r) = self.take() {
                unsafe { source.dealloc_pages(base, bytes, Self::REGION_SIZE) };
                return r;
            }
        }
        if !self.register_hyperblock(base, bytes) {
            // No registry record means no teardown/trim path for this
            // hyperblock; return it rather than leak it, and report OOM
            // (the registry record comes from the system allocator, so
            // failing here means memory is truly exhausted).
            unsafe { source.dealloc_pages(base, bytes, Self::REGION_SIZE) };
            return self.take().unwrap_or(core::ptr::null_mut());
        }
        // Keep region 0; the rest become the tail if the tail is empty
        // (a batch of one has no rest). Release: a taker's Acquire then
        // sees the registration above.
        let tail = base as usize | (self.batch - 1);
        let install = |f: usize| (self.batch > 1 && f & Self::COUNT == 0).then_some(tail);
        if self.fresh.fetch_update(Ordering::Release, Ordering::Relaxed, install).is_err() {
            for i in 1..self.batch {
                unsafe { self.free.push(base as usize + (i << SHIFT)) };
            }
        }
        #[cfg(feature = "stats")]
        self.carves.inc();
        base
    }

    /// Lifetime number of hyperblock carves performed by this pool
    /// (monotone; `trim` does not decrement it).
    #[cfg(feature = "stats")]
    pub fn carve_count(&self) -> u64 {
        self.carves.get()
    }

    /// Returns a region to the pool (never to the OS).
    ///
    /// # Safety
    ///
    /// `region` must have been returned by [`alloc`](Self::alloc) on this
    /// pool and be fully unused by the caller from this point.
    pub unsafe fn dealloc(&self, region: *mut u8) {
        unsafe { self.free.push(region as usize) };
    }

    /// Whether the free LIFO or the tail holds a region, so that
    /// [`alloc`](Self::alloc) would not go to the source (a hint beside
    /// concurrent callers).
    pub fn has_free(&self) -> bool {
        !self.free.is_empty() || self.fresh.load(Ordering::Relaxed) & Self::COUNT != 0
    }

    /// The regions on the free LIFO, then the tail's (audit accounting).
    ///
    /// # Safety
    ///
    /// Requires quiescence: no concurrent `alloc`/`dealloc`.
    pub unsafe fn free_regions(&self) -> Vec<usize> {
        let mut free = unsafe { self.free.snapshot() };
        free.extend(self.tail());
        free
    }

    /// The tail's regions, ascending. For quiescent callers, hence `Relaxed`.
    fn tail(&self) -> impl Iterator<Item = usize> {
        let f = self.fresh.load(Ordering::Relaxed);
        let (base, n) = (f & !Self::COUNT, f & Self::COUNT);
        (self.batch - n..self.batch).map(move |i| base + (i << SHIFT))
    }

    /// Number of hyperblocks mapped so far.
    pub fn hyperblock_count(&self) -> usize {
        self.hyper_count.load(Ordering::Relaxed)
    }

    /// Total bytes currently held from the source.
    pub fn mapped_bytes(&self) -> usize {
        self.hyperblock_count() * (self.batch << SHIFT)
    }

    /// Whether `addr` lies inside any hyperblock this pool has mapped —
    /// the provenance question hardened frees ask before dereferencing a
    /// block prefix. Lock-free and allocation-free: walks the registry
    /// list, which is only mutated under the pool's quiescence contracts
    /// (`trim`/`release_all`), so a concurrent walk sees a valid chain.
    pub fn owns(&self, addr: usize) -> bool {
        self.owning_region(addr).is_some()
    }

    /// Like [`owns`](Self::owns), but returns the owning hyperblock's
    /// `(base, bytes)` extent so callers can compute in-region offsets
    /// (hardened frees validate descriptor-pointer stride this way).
    /// Same lock-free, allocation-free registry walk.
    pub fn owning_region(&self, addr: usize) -> Option<(usize, usize)> {
        let mut p = self.hypers.load(Ordering::Acquire);
        while !p.is_null() {
            let rec = unsafe { &*p };
            let base = rec.base as usize;
            if addr >= base && addr < base + rec.bytes {
                return Some((base, rec.bytes));
            }
            p = rec.next;
        }
        None
    }

    /// Calls `f` with each hyperblock's `(base, bytes)` extent without
    /// allocating — the crash-forensics variant of
    /// [`hyperblocks`](Self::hyperblocks), usable from a signal handler
    /// (the registry walk is the same lock-free chain as
    /// [`owning_region`](Self::owning_region)).
    pub fn for_each_region(&self, mut f: impl FnMut(usize, usize)) {
        let mut p = self.hypers.load(Ordering::Acquire);
        while !p.is_null() {
            let rec = unsafe { &*p };
            f(rec.base as usize, rec.bytes);
            p = rec.next;
        }
    }

    /// Snapshot of the hyperblock registry as `(base, bytes)` pairs.
    /// The registry is append-only until [`release_all`](Self::release_all),
    /// so a concurrent call sees a valid prefix of registrations.
    pub fn hyperblocks(&self) -> Vec<(*mut u8, usize)> {
        let mut out = Vec::new();
        let mut p = self.hypers.load(Ordering::Acquire);
        while !p.is_null() {
            let rec = unsafe { &*p };
            out.push((rec.base, rec.bytes));
            p = rec.next;
        }
        out
    }

    /// Returns every hyperblock to `source` and frees the registry.
    ///
    /// # Safety
    ///
    /// Requires exclusive quiescence: no region handed out by this pool
    /// may still be in use, and no other thread may touch the pool again.
    /// `source` must be the same source passed to every `alloc`.
    pub unsafe fn release_all<S: PageSource>(&self, source: &S) {
        // Drain the free list and the tail first: the links and the tail's
        // base name the hyperblocks about to be unmapped.
        while unsafe { self.free.pop() }.is_some() {}
        self.fresh.store(0, Ordering::Relaxed);
        let mut p = self.hypers.swap(core::ptr::null_mut(), Ordering::AcqRel);
        while !p.is_null() {
            let rec = unsafe { &*p };
            let next = rec.next;
            unsafe { source.dealloc_pages(rec.base, rec.bytes, Self::REGION_SIZE) };
            unsafe { System.dealloc(p as *mut u8, Layout::new::<HyperRecord>()) };
            p = next;
        }
        self.hyper_count.store(0, Ordering::Relaxed);
    }

    /// Unmaps every *fully free* hyperblock (all `batch` regions on the
    /// free LIFO or in the tail) and returns the number of bytes released
    /// to `source`.
    ///
    /// # Safety
    ///
    /// Requires quiescence: no concurrent `alloc`/`dealloc` on this pool
    /// while trimming (the free-LIFO links live inside the hyperblocks
    /// being unmapped, and the tag-protected traversal safety argument
    /// rests on regions never disappearing mid-pop). `source` must be
    /// the same source passed to every `alloc`.
    pub unsafe fn trim<S: PageSource>(&self, source: &S) -> usize {
        unsafe { self.trim_to(source, 0) }
    }

    /// Like [`trim`](Self::trim), but stops once the pool's mapped bytes
    /// drop to `target_bytes` (a low watermark). Only fully free
    /// hyperblocks are candidates; partially used ones are never touched.
    ///
    /// # Safety
    ///
    /// Same quiescence contract as [`trim`](Self::trim).
    pub unsafe fn trim_to<S: PageSource>(&self, source: &S, target_bytes: usize) -> usize {
        // Drain the free LIFO into a local set so we can count per-
        // hyperblock free regions without racing our own traversal.
        let mut free: Vec<usize> = Vec::new();
        while let Some(r) = unsafe { self.free.pop() } {
            free.push(r);
        }
        // The tail stays in place: a surviving hyperblock's untouched
        // regions are not written by a re-push.
        let tail: Vec<usize> = self.tail().collect();
        // Detach the registry; we rebuild it below with survivors only.
        let mut p = self.hypers.swap(core::ptr::null_mut(), Ordering::AcqRel);
        let mut released = 0usize;
        let mut survivors: *mut HyperRecord = core::ptr::null_mut();
        while !p.is_null() {
            let rec = unsafe { &mut *p };
            let next = rec.next;
            let (base, bytes) = (rec.base as usize, rec.bytes);
            let inside = |r: usize| (base..base + bytes).contains(&r);
            let free_here = free.iter().chain(&tail).filter(|&&r| inside(r)).count();
            let fully_free = free_here << SHIFT == bytes;
            if fully_free && self.mapped_bytes() > target_bytes {
                free.retain(|&r| !inside(r));
                if tail.iter().any(|&r| inside(r)) {
                    self.fresh.store(0, Ordering::Relaxed);
                }
                unsafe { source.dealloc_pages(base as *mut u8, bytes, Self::REGION_SIZE) };
                unsafe { System.dealloc(p as *mut u8, Layout::new::<HyperRecord>()) };
                self.hyper_count.fetch_sub(1, Ordering::Relaxed);
                released += bytes;
            } else {
                rec.next = survivors;
                survivors = p;
            }
            p = next;
        }
        self.hypers.store(survivors, Ordering::Release);
        // Re-seed the LIFO with the surviving free regions.
        for r in free {
            unsafe { self.free.push(r) };
        }
        released
    }

    /// Registers a freshly mapped hyperblock; `false` means the registry
    /// record itself could not be allocated (the hyperblock is *not*
    /// registered and the caller must hand it back to the source).
    fn register_hyperblock(&self, base: *mut u8, bytes: usize) -> bool {
        let rec = unsafe { System.alloc(Layout::new::<HyperRecord>()) } as *mut HyperRecord;
        if rec.is_null() {
            return false;
        }
        let mut head = self.hypers.load(Ordering::Acquire);
        loop {
            unsafe { rec.write(HyperRecord { base, bytes, next: head }) };
            match self.hypers.compare_exchange_weak(head, rec, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => break,
                Err(observed) => head = observed,
            }
        }
        self.hyper_count.fetch_add(1, Ordering::Relaxed);
        true
    }
}

impl<const SHIFT: u32> Drop for PagePool<SHIFT> {
    fn drop(&mut self) {
        // Without the source we cannot unmap; free only the registry
        // records. Owners that care call `release_all` first.
        let mut p = *self.hypers.get_mut();
        while !p.is_null() {
            let next = unsafe { (*p).next };
            unsafe { System.dealloc(p as *mut u8, Layout::new::<HyperRecord>()) };
            p = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{CountingSource, SystemSource};
    use std::sync::Arc;

    type SbPool = PagePool<14>; // 16 KiB regions

    #[test]
    fn regions_are_aligned_and_distinct() {
        let src = SystemSource::new();
        let pool = SbPool::new(8);
        let mut regions = Vec::new();
        for _ in 0..20 {
            let r = pool.alloc(&src);
            assert!(!r.is_null());
            assert_eq!(r as usize % SbPool::REGION_SIZE, 0);
            assert!(!regions.contains(&r));
            regions.push(r);
        }
        // 20 regions at batch 8 → 3 hyperblocks.
        assert_eq!(pool.hyperblock_count(), 3);
        for r in regions {
            unsafe { pool.dealloc(r) };
        }
        unsafe { pool.release_all(&src) };
    }

    #[test]
    fn recycling_avoids_new_hyperblocks() {
        let src = CountingSource::new(SystemSource::new());
        let pool = SbPool::new(4);
        for _ in 0..100 {
            let r = pool.alloc(&src);
            assert!(!r.is_null());
            unsafe { pool.dealloc(r) };
        }
        assert_eq!(pool.hyperblock_count(), 1, "churn must not map new hyperblocks");
        assert_eq!(src.stats().os_allocs, 1);
        unsafe { pool.release_all(&src) };
        assert_eq!(src.stats().live_bytes, 0);
    }

    #[test]
    fn batching_reduces_os_calls() {
        // The point of §3.2.5: N region allocations cost N/batch OS calls.
        let src = CountingSource::new(SystemSource::new());
        let pool = SbPool::new(64);
        let regions: Vec<*mut u8> = (0..64).map(|_| pool.alloc(&src)).collect();
        assert_eq!(src.stats().os_allocs, 1);
        for r in regions {
            unsafe { pool.dealloc(r) };
        }
        unsafe { pool.release_all(&src) };
    }

    /// A carve writes nothing into its hyperblock: the 63 regions nobody
    /// has been handed are one word, taken in ascending order.
    #[test]
    fn a_fresh_hyperblock_is_untouched_and_its_tail_is_handed_out_in_order() {
        use malloc_api::testkit::resident_pages;
        let src = CountingSource::new(SystemSource::new());
        let pool = SbPool::new(64);
        let hyper = 64 * SbPool::REGION_SIZE;
        let first = pool.alloc(&src);
        assert_eq!(resident_pages(first, hyper), 0, "the carve wrote into its hyperblock");
        assert!(pool.has_free());
        let tail: Vec<usize> = (1..64).map(|i| first as usize + i * SbPool::REGION_SIZE).collect();
        assert_eq!(unsafe { pool.free_regions() }, tail);
        // A hyperblock with a region out survives a trim, its tail unwritten.
        assert_eq!(unsafe { pool.trim(&src) }, 0);
        assert_eq!(unsafe { pool.free_regions() }, tail);
        assert_eq!(resident_pages(first, hyper), 0, "trim wrote into the tail");
        let taken: Vec<usize> = (1..64).map(|_| pool.alloc(&src) as usize).collect();
        assert_eq!(taken, tail, "each region once, ascending");
        assert!(!pool.has_free() && unsafe { pool.free_regions() }.is_empty());
        assert_eq!(src.stats().os_allocs, 1);
        let second = pool.alloc(&src);
        assert_eq!((pool.hyperblock_count(), src.stats().os_allocs), (2, 2), "the 64th maps");
        // Its only handed-out region back: tail + LIFO is the whole hyperblock.
        unsafe { pool.dealloc(second) };
        assert_eq!(unsafe { pool.trim(&src) }, hyper);
        assert_eq!(pool.hyperblock_count(), 1);
        assert!(!pool.has_free() && !pool.owns(second as usize));
        unsafe {
            pool.dealloc(first);
            for r in taken {
                pool.dealloc(r as *mut u8);
            }
            pool.release_all(&src);
        }
        assert_eq!(src.stats().live_bytes, 0);
    }

    #[test]
    fn regions_are_writable_across_whole_extent() {
        let src = SystemSource::new();
        let pool = SbPool::new(2);
        let r = pool.alloc(&src);
        unsafe {
            core::ptr::write_bytes(r, 0x5A, SbPool::REGION_SIZE);
            assert_eq!(*r, 0x5A);
            assert_eq!(*r.add(SbPool::REGION_SIZE - 1), 0x5A);
            pool.dealloc(r);
            pool.release_all(&src);
        }
    }

    #[test]
    fn owns_tracks_hyperblock_extents() {
        let src = CountingSource::new(SystemSource::new());
        let pool = SbPool::new(4);
        assert!(!pool.owns(0x1000), "empty pool owns nothing");
        let r = pool.alloc(&src);
        assert!(!r.is_null());
        let addr = r as usize;
        assert!(pool.owns(addr));
        assert!(pool.owns(addr + SbPool::REGION_SIZE), "sibling region of the same hyperblock");
        assert!(!pool.owns(addr.wrapping_sub(1)));
        let stack_local = 0u8;
        assert!(!pool.owns(&stack_local as *const u8 as usize), "foreign memory is not owned");
        unsafe {
            pool.dealloc(r);
            pool.trim(&src);
        }
        assert!(!pool.owns(addr), "trimmed hyperblocks are forgotten");
        unsafe { pool.release_all(&src) };
    }

    #[test]
    fn trim_unmaps_only_fully_free_hyperblocks() {
        let src = CountingSource::new(SystemSource::new());
        let pool = SbPool::new(4);
        // Two hyperblocks: keep one region of the first live, free the rest.
        let regions: Vec<*mut u8> = (0..8).map(|_| pool.alloc(&src)).collect();
        assert_eq!(pool.hyperblock_count(), 2);
        for &r in &regions[1..] {
            unsafe { pool.dealloc(r) };
        }
        let released = unsafe { pool.trim(&src) };
        assert_eq!(released, 4 * SbPool::REGION_SIZE, "exactly one hyperblock released");
        assert_eq!(pool.hyperblock_count(), 1);
        assert_eq!(src.stats().live_bytes, 4 * SbPool::REGION_SIZE);
        // The surviving hyperblock's free regions are still usable.
        let again = pool.alloc(&src);
        assert!(!again.is_null());
        assert_eq!(src.stats().os_allocs, 2, "trim must not force a remap");
        unsafe {
            pool.dealloc(again);
            pool.dealloc(regions[0]);
            pool.release_all(&src);
        }
        assert_eq!(src.stats().live_bytes, 0);
    }

    #[test]
    fn trim_to_respects_watermark() {
        let src = CountingSource::new(SystemSource::new());
        let pool = SbPool::new(2);
        let regions: Vec<*mut u8> = (0..6).map(|_| pool.alloc(&src)).collect();
        assert_eq!(pool.hyperblock_count(), 3);
        for r in regions {
            unsafe { pool.dealloc(r) };
        }
        // Watermark of one hyperblock: trim stops there even though all
        // three are fully free.
        let hyper_bytes = 2 * SbPool::REGION_SIZE;
        let released = unsafe { pool.trim_to(&src, hyper_bytes) };
        assert_eq!(released, 2 * hyper_bytes);
        assert_eq!(pool.hyperblock_count(), 1);
        // A full trim takes the rest.
        assert_eq!(unsafe { pool.trim(&src) }, hyper_bytes);
        assert_eq!(pool.hyperblock_count(), 0);
        assert_eq!(src.stats().live_bytes, 0);
        // The pool remains usable after trimming to zero.
        let r = pool.alloc(&src);
        assert!(!r.is_null());
        unsafe {
            pool.dealloc(r);
            pool.release_all(&src);
        }
        assert_eq!(src.stats().live_bytes, 0);
    }

    #[test]
    fn trim_on_empty_pool_is_noop() {
        let src = CountingSource::new(SystemSource::new());
        let pool = SbPool::new(4);
        assert_eq!(unsafe { pool.trim(&src) }, 0);
        assert_eq!(pool.hyperblock_count(), 0);
    }

    #[test]
    fn concurrent_alloc_dealloc_no_duplicates() {
        let src = Arc::new(SystemSource::new());
        let pool = Arc::new(SbPool::new(8));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let src = Arc::clone(&src);
            let pool = Arc::clone(&pool);
            handles.push(std::thread::spawn(move || {
                for _ in 0..2_000 {
                    let r = pool.alloc(&*src);
                    assert!(!r.is_null());
                    // Exclusive-ownership canary in the second word (the
                    // first is the free-list link).
                    unsafe {
                        malloc_api::testkit::canary_claim_release(
                            r as usize + 8,
                            "region double-allocated",
                        );
                        pool.dealloc(r);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let pool = Arc::try_unwrap(pool).unwrap();
        unsafe { pool.release_all(&*src) };
    }

    /// `SystemSource` whose `alloc_pages` takes a millisecond longer.
    struct Slow(CountingSource<SystemSource>);
    unsafe impl PageSource for Slow {
        unsafe fn alloc_pages(&self, size: usize, align: usize) -> *mut u8 {
            std::thread::sleep(Duration::from_millis(1));
            unsafe { self.0.alloc_pages(size, align) }
        }
        unsafe fn dealloc_pages(&self, ptr: *mut u8, size: usize, align: usize) {
            unsafe { self.0.dealloc_pages(ptr, size, align) }
        }
    }

    /// Two threads find the pool dry in the same instant: one maps, the
    /// other waits for the first one's regions and maps nothing.
    #[test]
    fn two_threads_on_a_dry_pool_map_one_hyperblock() {
        let src = Slow(CountingSource::new(SystemSource::new()));
        let pool = SbPool::new(4);
        let gate = std::sync::Barrier::new(2);
        let regions: Vec<usize> = std::thread::scope(|s| {
            let racers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        gate.wait();
                        pool.alloc(&src) as usize
                    })
                })
                .collect();
            racers.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(regions[0] != 0 && regions[1] != 0 && regions[0] != regions[1]);
        let stats = src.0.stats();
        assert_eq!((stats.os_allocs, stats.os_frees), (1, 0), "the second thread mapped too");
        assert_eq!(stats.peak_bytes, 4 * SbPool::REGION_SIZE);
        assert_eq!(pool.hyperblock_count(), 1);
        assert!(!pool.mapping.load(Ordering::Relaxed));
        for r in regions {
            unsafe { pool.dealloc(r as *mut u8) };
        }
        unsafe { pool.release_all(&src) };
    }

    /// A mapper killed after its election leaves the word set. The next
    /// visitor of the dry pool waits its bounded time, maps its own
    /// hyperblock and clears the word: the one after it does not wait.
    #[test]
    fn a_killed_mapper_costs_the_next_visitor_one_bounded_wait() {
        let src = CountingSource::new(SystemSource::new());
        let pool = SbPool::new(2);
        pool.mapping.store(true, Ordering::Relaxed); // elected, then killed
        let t0 = Instant::now();
        let r = pool.alloc(&src);
        let waited = t0.elapsed();
        assert!(!r.is_null());
        assert!(waited >= MIN_CARVE * MAPPER_PATIENCE, "did not wait for the mapper: {waited:?}");
        assert!(waited < Duration::from_secs(1), "{waited:?}");
        assert!(!pool.mapping.load(Ordering::Relaxed), "the word outlived the carve");
        assert_eq!(pool.hyperblock_count(), 1);
        unsafe {
            pool.dealloc(r);
            pool.release_all(&src);
        }
        assert_eq!(src.stats().live_bytes, 0);
    }

    /// Two threads map for the dry pool at once — the second ran out of
    /// patience with the first, whose mapping the source holds back until
    /// it has company. The source then holds the second one's mapping
    /// back until the first has carved, so the second comes back to a
    /// stocked LIFO: it takes a region from there and returns its own
    /// mapping.
    #[test]
    fn a_dry_pool_carve_race_ends_with_one_hyperblock() {
        use std::sync::atomic::AtomicUsize;
        /// Lets the first `alloc_pages` caller through once a second one
        /// is inside too, and the second once `first_done` is set.
        struct Gated {
            inner: CountingSource<SystemSource>,
            inside: AtomicUsize,
            first_done: AtomicUsize,
        }
        unsafe impl PageSource for Gated {
            unsafe fn alloc_pages(&self, size: usize, align: usize) -> *mut u8 {
                let gate = match self.inside.fetch_add(1, Ordering::AcqRel) {
                    0 => &self.inside,     // wait for company (inside == 2)
                    _ => &self.first_done, // wait for the first to carve (== 2)
                };
                while gate.load(Ordering::Acquire) < 2 {
                    std::thread::yield_now();
                }
                unsafe { self.inner.alloc_pages(size, align) }
            }
            unsafe fn dealloc_pages(&self, ptr: *mut u8, size: usize, align: usize) {
                unsafe { self.inner.dealloc_pages(ptr, size, align) }
            }
        }
        let src = Gated {
            inner: CountingSource::new(SystemSource::new()),
            inside: AtomicUsize::new(0),
            first_done: AtomicUsize::new(0),
        };
        let pool = SbPool::new(4);
        let regions: Vec<usize> = std::thread::scope(|s| {
            let racers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        let r = pool.alloc(&src) as usize;
                        // Whoever is back first was the first one in.
                        src.first_done.store(2, Ordering::Release);
                        r
                    })
                })
                .collect();
            racers.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(regions[0] != 0 && regions[1] != 0 && regions[0] != regions[1]);
        let stats = src.inner.stats();
        assert_eq!((stats.os_allocs, stats.os_frees), (2, 1), "both mapped, the later one gave back");
        assert_eq!(pool.hyperblock_count(), 1);
        assert_eq!(stats.live_bytes, 4 * SbPool::REGION_SIZE);
        assert_eq!(stats.peak_bytes, 8 * SbPool::REGION_SIZE, "the peak still saw both");
        assert!(regions.iter().all(|&r| pool.owns(r)), "both regions are the survivor's");
        for r in regions {
            unsafe { pool.dealloc(r as *mut u8) };
        }
        unsafe { pool.release_all(&src) };
        assert_eq!(src.inner.stats().live_bytes, 0);
    }

    /// The textbook ABA shape on the free LIFO, one step at a time: A is
    /// frozen between reading the top region's link and its CAS; B pops
    /// that region and the next, then pushes the first back, so the
    /// head's address is what A saw and the link A read is stale. The
    /// head's tag is not what A saw: A's CAS fails, and every region is
    /// handed out once.
    #[cfg(feature = "failpoints")]
    #[test]
    fn a_stale_pop_loses_to_the_head_tag() {
        use malloc_api::failpoints::{self as fp, FpAction, FpTrigger};
        let _guard = fp::scenario(0xABA);
        let src = SystemSource::new();
        let pool = SbPool::new(4); // one carve: region 0 out, 1..=3 the tail
        let r0 = pool.alloc(&src);
        // Through the LIFO: 3 on top, then 2, then 1.
        let rest: Vec<*mut u8> = (0..3).map(|_| pool.alloc(&src)).collect();
        for r in rest {
            unsafe { pool.dealloc(r) };
        }
        fp::arm_limited("stack.pop", FpAction::Park, FpTrigger::Always, 1);
        std::thread::scope(|s| {
            let a = s.spawn(|| pool.alloc(&src) as usize);
            while fp::fired("stack.pop") == 0 {
                std::thread::yield_now();
            }
            // A holds (x, next = y) and is parked.
            let x = pool.alloc(&src);
            let y = pool.alloc(&src);
            unsafe { pool.dealloc(x) }; // x on top again, its link now z, not y
            fp::disarm("stack.pop");
            let got = a.join().unwrap() as *mut u8;
            assert_eq!(got, x, "A retried and popped the real top");
            let z = pool.alloc(&src);
            let all = [r0, got, y, z];
            for (i, r) in all.iter().enumerate() {
                assert!(!r.is_null() && !all[..i].contains(r), "a region was handed out twice");
            }
            // Had A's CAS gone through, `y` would be on the stack while B
            // owns it; instead the stack is empty and conserved.
            assert_eq!(pool.hyperblock_count(), 1);
            for r in all {
                unsafe { pool.dealloc(r) };
            }
        });
        let mut drained = 0;
        while unsafe { pool.free.pop() }.is_some() {
            drained += 1;
        }
        assert_eq!(drained, 4, "stack conserved");
        unsafe { pool.release_all(&src) };
    }
}
