//! The allocator instance: construction, teardown, and the public
//! [`RawMalloc`] surface.
//!
//! All instance state lives in a single system-allocated, address-stable
//! `Inner` block ("On the first call to malloc, the static structures
//! for the size classes and processor heaps (about 16 KB for a 16
//! processor machine) are allocated and initialized", §3.1 — here
//! construction is explicit, and the lazy lock-free first-call
//! initialization lives in [`crate::global`]).
//!
//! Nothing in the malloc/free paths allocates through the Rust global
//! allocator, so an `LfMalloc` can *be* the global allocator.

use crate::active::Active;
use crate::anchor::SbState;
use crate::config::{Config, SB_BATCH, SB_SHIFT};
use crate::descriptor::DescriptorPool;
use crate::harden::{Hardening, MisuseCounters, Quarantine};
use crate::heap::{HeapMap, ProcHeap};
use crate::large::large_marker;
use crate::magazine::CACHED_CLASSES;
use crate::observe::{self, EventKind, Global, Lat, Timer};
use crate::partial::PartialList;
use crate::size_classes::{class_index, class_index_aligned, CLASS_SIZES, NUM_CLASSES};
use core::ptr::NonNull;
use core::sync::atomic::AtomicUsize;
use malloc_api::{AllocStats, RawMalloc, MIN_MALLOC_ALIGN};
use osmem::{CountingSource, PagePool, PageSource, SpanRegistry, SystemSource};
use std::alloc::{GlobalAlloc, Layout, System};

/// Per-size-class state: the partial-superblock list (paper Figure 3's
/// `sizeclass`; the geometry is `size_classes`'s tables).
#[derive(Debug)]
pub(crate) struct SizeClassState {
    /// Partial-superblock list shared by the class's heaps.
    pub partial: PartialList,
}

/// All allocator state; address-stable behind a system allocation.
/// `repr(C)`, so a 64-byte-aligned field does not make rustc reshuffle
/// the small path's read-mostly head (`sbcycle_1t` +4 %, DESIGN.md §16.6).
#[repr(C)]
pub(crate) struct Inner<S: PageSource> {
    pub config: Config,
    pub desc_pool: DescriptorPool,
    pub sb_pool: PagePool<SB_SHIFT>,
    pub source: CountingSource<S>,
    pub nheaps: usize,
    /// Thread id → heap column (`id mod nheaps`, precomputed).
    pub heap_map: HeapMap,
    /// `NUM_CLASSES * nheaps` processor heaps, system-allocated.
    pub heaps: *mut ProcHeap,
    /// Thread-magazine slots and the instance id that keys them (see
    /// [`crate::magazine`]); an allocation of its own.
    pub mags: crate::magazine::SlotTable,
    /// Descriptor, class and heap column of each superblock's 16 KiB
    /// frame: how `free` finds its way from an address.
    pub frames: crate::framemap::FrameMap,
    pub classes: [SizeClassState; NUM_CLASSES],
    /// Large spans mapped and not yet unmapped, live or parked, and their
    /// OS bytes. Live is derived from them: [`Inner::large_live`].
    pub large_mapped_spans: AtomicUsize,
    pub large_mapped_bytes: AtomicUsize,
    /// Freed large spans kept for the next large malloc (see
    /// [`crate::large::SpanCache`]); always empty in hardened mode.
    pub large_cache: crate::large::SpanCache,
    /// Live large-block spans, the provenance registry hardened frees
    /// consult. Populated only when `config.hardening != Off`.
    pub large_spans: SpanRegistry,
    /// Per-instance misuse accounting (always present; counts stay zero
    /// with hardening off).
    pub misuse: MisuseCounters,
    /// `nheaps` quarantine shards for freed small blocks, or null when
    /// hardening is off. System-allocated.
    pub quarantine: *mut Quarantine,
    /// Always-on liveness/maintenance counters (see [`crate::health`]).
    pub health: crate::health::HealthState,
    /// The background reaper (see [`crate::maintain`]).
    pub reaper: crate::fork::Worker<crate::maintain::Reaper<S>>,
    /// Fork bookkeeping: recovered generation and atfork-hook token (see
    /// [`crate::fork`]).
    pub fork: crate::fork::ForkState,
    /// Planted-bug state for the shadow-heap oracle tests: the most
    /// recent small block handed out, plus its class index. Only read
    /// when the `alloc.double_handout` failpoint is armed; see
    /// [`crate::alloc::malloc_small`].
    #[cfg(feature = "failpoints")]
    pub bug_stash: AtomicUsize,
    #[cfg(feature = "failpoints")]
    pub bug_stash_ci: AtomicUsize,
    /// What the instrumented builds keep: telemetry shards and rings, the
    /// profiler's sample table, the flight recorder. Last, and zero-sized
    /// in the default build (see [`crate::observe`]).
    pub obs: observe::State,
}

// Tripwire, not a layout: a field added in front of the words a hit or a
// refill reads has to move these numbers, so no change shifts them
// unnoticed. Telemetry puts a counter in `sb_pool`, 16 bytes further up.
const _: () = {
    type I = Inner<SystemSource>;
    let at = if cfg!(feature = "stats") { 256 } else { 240 };
    assert!(core::mem::offset_of!(I, heaps) == at);
    assert!(core::mem::offset_of!(I, mags) == at + 8);
    assert!(core::mem::offset_of!(I, frames) == at + 32);
};

/// A system-allocated array of `len` slots, the first `built` of them
/// written. It owns both: dropping it drops those and frees the array —
/// which is how a half-built instance leaks nothing, and how a finished
/// one's heap table and quarantine rings are taken apart. (The telemetry
/// shards are one too.)
#[derive(Debug)]
pub(crate) struct SysArray<T> {
    pub ptr: *mut T,
    pub len: usize,
    built: usize,
}

// SAFETY: a `SysArray` is the unique owner of its `T`s, like a `Box<[T]>`:
// moving it moves them (`T: Send`), sharing it shares them (`T: Sync`).
unsafe impl<T: Send> Send for SysArray<T> {}
unsafe impl<T: Sync> Sync for SysArray<T> {}

impl<T> SysArray<T> {
    /// `len` unwritten slots; none, and a null `ptr`, for `len == 0`.
    pub(crate) fn new(len: usize) -> Result<Self, OutOfMemory> {
        const { assert!(core::mem::size_of::<T>() > 0) };
        let mut ptr = core::ptr::null_mut();
        if len > 0 {
            let layout = Layout::array::<T>(len).map_err(|_| OutOfMemory)?;
            // SAFETY: the layout's size is not zero.
            ptr = unsafe { System.alloc(layout) } as *mut T;
            if ptr.is_null() {
                return Err(OutOfMemory);
            }
        }
        Ok(SysArray { ptr, len, built: 0 })
    }

    pub(crate) fn push(&mut self, v: T) {
        assert!(self.built < self.len);
        // SAFETY: slot `built` is inside the allocation and unwritten.
        unsafe { self.ptr.add(self.built).write(v) };
        self.built += 1;
    }
}

impl<T> Drop for SysArray<T> {
    fn drop(&mut self) {
        if !self.ptr.is_null() {
            let layout = Layout::array::<T>(self.len).expect("computed once already, in `new`");
            // SAFETY: the first `built` slots hold values nobody else owns,
            // and `ptr` is `new`'s allocation of this layout.
            unsafe {
                core::ptr::slice_from_raw_parts_mut(self.ptr, self.built).drop_in_place();
                System.dealloc(self.ptr as *mut u8, layout);
            }
        }
    }
}

impl<S: PageSource> Inner<S> {
    /// The heap the calling thread uses for size class `ci`. A single
    /// heap skips the thread-id lookup entirely — that skipped lookup
    /// is the §4.2.4 single-processor optimization.
    #[inline]
    pub fn heap_for(&self, ci: usize) -> &ProcHeap {
        let h =
            if self.nheaps == 1 { 0 } else { self.heap_map.column(crate::heap::thread_id()) };
        unsafe { &*self.heaps.add(ci * self.nheaps + h) }
    }

    /// The column of `heap`, one of this instance's.
    #[inline]
    pub fn column_of(&self, heap: &ProcHeap) -> usize {
        // SAFETY: both point into the one heap table, row `class` of it
        // (a subtraction, not `% nheaps`: `open_sb` is too hot to divide).
        unsafe { (heap as *const ProcHeap).offset_from(self.heaps) as usize - heap.class() * self.nheaps }
    }

    /// Heap `h` of class `ci` (tests and diagnostics).
    #[cfg(test)]
    pub fn heap_at(&self, ci: usize, h: usize) -> &ProcHeap {
        assert!(ci < NUM_CLASSES && h < self.nheaps);
        unsafe { &*self.heaps.add(ci * self.nheaps + h) }
    }
}

/// The completely lock-free allocator of Michael (PLDI 2004).
///
/// Generic over its OS page source `S` so experiments can inject a
/// counting source; defaults to [`SystemSource`].
///
/// # Example
///
/// ```
/// use lfmalloc::LfMalloc;
/// use malloc_api::RawMalloc;
///
/// let a = LfMalloc::new_default();
/// unsafe {
///     let p = a.malloc(64);
///     assert!(!p.is_null());
///     a.free(p);
/// }
/// ```
///
/// # Teardown
///
/// Dropping the instance returns **all** its memory to the OS and
/// invalidates any still-outstanding blocks (arena semantics). Callers
/// must free or forget outstanding blocks first.
pub struct LfMalloc<S: PageSource = SystemSource> {
    inner: NonNull<Inner<S>>,
}

unsafe impl<S: PageSource + Send + Sync> Send for LfMalloc<S> {}
unsafe impl<S: PageSource + Send + Sync> Sync for LfMalloc<S> {}

/// Construction failed because the system allocator could not supply
/// the instance's fixed metadata (heap table + state block).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutOfMemory;

impl core::fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("lfmalloc: out of memory constructing instance")
    }
}

impl std::error::Error for OutOfMemory {}

impl LfMalloc<SystemSource> {
    /// Paper-shaped defaults: per-CPU heaps, system page source.
    pub fn new_default() -> Self {
        Self::with_config(Config::detect())
    }

    /// Fallible [`new_default`](Self::new_default).
    pub fn try_new_default() -> Result<Self, OutOfMemory> {
        Self::try_with_config(Config::detect())
    }

    /// Custom configuration over the system page source.
    pub fn with_config(config: Config) -> Self {
        Self::with_config_and_source(config, SystemSource::new())
    }

    /// Fallible [`with_config`](Self::with_config).
    pub fn try_with_config(config: Config) -> Result<Self, OutOfMemory> {
        Self::try_with_config_and_source(config, SystemSource::new())
    }
}

impl<S: PageSource> LfMalloc<S> {
    /// Builds an instance over an injected page source (e.g. a counting
    /// source for the §4.2.5 space experiment).
    ///
    /// # Panics
    ///
    /// Panics if the system allocator cannot supply the instance
    /// metadata; use
    /// [`try_with_config_and_source`](Self::try_with_config_and_source)
    /// to propagate that as an error instead.
    pub fn with_config_and_source(config: Config, source: S) -> Self {
        Self::try_with_config_and_source(config, source)
            .expect("lfmalloc: instance allocation failed")
    }

    /// Fallible construction: `Err(OutOfMemory)` (with nothing leaked)
    /// when the system allocator cannot supply the heap table or the
    /// instance state block.
    pub fn try_with_config_and_source(config: Config, source: S) -> Result<Self, OutOfMemory> {
        let nheaps = config.heaps;
        // Every part owns what it allocated, so an OOM at any step leaks
        // nothing: `?` drops the parts built so far.
        let mut heaps = SysArray::new(NUM_CLASSES * nheaps)?;
        for i in 0..heaps.len {
            heaps.push(ProcHeap::new(i / nheaps));
        }
        // Hardened instances get one quarantine ring per heap.
        let hardened = config.hardening != Hardening::Off;
        let mut quarantine = SysArray::new(if hardened { nheaps } else { 0 })?;
        for _ in 0..quarantine.len {
            quarantine.push(Quarantine::default());
        }
        let mags = crate::magazine::SlotTable::new().ok_or(OutOfMemory)?;
        let frames = crate::framemap::FrameMap::new().ok_or(OutOfMemory)?;
        // Telemetry shards mirror the heap table's layout.
        let obs = observe::State::new(&config, NUM_CLASSES * nheaps).ok_or(OutOfMemory)?;
        unsafe {
            let inner = System.alloc(Layout::new::<Inner<S>>()) as *mut Inner<S>;
            if inner.is_null() {
                return Err(OutOfMemory);
            }
            inner.write(Inner {
                desc_pool: DescriptorPool::new(),
                sb_pool: PagePool::new(SB_BATCH),
                source: CountingSource::new(source),
                config,
                nheaps,
                heap_map: HeapMap::new(nheaps),
                heaps: heaps.ptr,
                mags,
                frames,
                classes: core::array::from_fn(|_| SizeClassState { partial: PartialList::new() }),
                large_mapped_spans: AtomicUsize::new(0),
                large_mapped_bytes: AtomicUsize::new(0),
                large_cache: Default::default(),
                large_spans: SpanRegistry::new(),
                misuse: MisuseCounters::new(),
                quarantine: quarantine.ptr,
                health: crate::health::HealthState::new(),
                reaper: crate::fork::Worker::new(),
                fork: crate::fork::ForkState::new(),
                #[cfg(feature = "failpoints")]
                bug_stash: AtomicUsize::new(0),
                #[cfg(feature = "failpoints")]
                bug_stash_ci: AtomicUsize::new(usize::MAX),
                obs,
            });
            // The instance owns the two arrays now (`LfMalloc::drop`).
            core::mem::forget((heaps, quarantine));
            // Fork awareness: register atfork hooks against the (now
            // address-stable) instance. This touches only the in-tree
            // procfork registry — never `pthread_atfork`, which may
            // itself malloc and so must not run inside the global
            // allocator's first-call initialization.
            crate::fork::register_instance(&*inner);
            Ok(LfMalloc { inner: NonNull::new_unchecked(inner) })
        }
    }

    #[inline]
    pub(crate) fn inner(&self) -> &Inner<S> {
        unsafe { self.inner.as_ref() }
    }

    #[inline]
    pub(crate) fn raw_inner(&self) -> NonNull<Inner<S>> {
        self.inner
    }

    /// A borrowed, never-dropped handle over a raw instance pointer —
    /// how the reaper thread reaches the full method surface.
    ///
    /// # Safety
    ///
    /// `inner` must point at a live instance and stay live for the
    /// handle's whole lifetime; the `ManuallyDrop` wrapper must never be
    /// taken out of.
    pub(crate) unsafe fn borrow_raw(inner: NonNull<Inner<S>>) -> core::mem::ManuallyDrop<Self> {
        core::mem::ManuallyDrop::new(LfMalloc { inner })
    }

    /// The active configuration.
    pub fn config(&self) -> Config {
        self.inner().config
    }

    /// OS-level memory accounting (drives the space-efficiency
    /// experiment). Covers superblock hyperblocks, descriptor slabs and
    /// large blocks; excludes only the tiny fixed metadata block.
    pub fn os_stats(&self) -> AllocStats {
        self.inner().source.stats()
    }

    /// Number of superblock hyperblocks mapped (diagnostics).
    pub fn hyperblock_count(&self) -> usize {
        self.inner().sb_pool.hyperblock_count()
    }

    /// Approximate occupancy of the emergency descriptor reserve
    /// (diagnostics; see `DescriptorPool`).
    pub fn descriptor_reserve_len(&self) -> usize {
        self.inner().desc_pool.reserve_len()
    }

    /// This instance's misuse detections (all zero unless
    /// [`Config::hardening`](crate::config::Config) is `Detect` or
    /// `Abort`). The process-wide aggregate is
    /// [`harden::process_misuse_counters`](crate::harden::process_misuse_counters).
    pub fn misuse_counters(&self) -> &MisuseCounters {
        &self.inner().misuse
    }

    /// Releases every quarantined block back into circulation (after
    /// verifying its poison), returning how many were released. No-op
    /// when hardening is off. Safe to call concurrently with
    /// malloc/free — each quarantine cell is emptied with one `swap`, and
    /// the release path is the ordinary lock-free free.
    pub fn flush_quarantine(&self) -> usize {
        crate::harden::flush_quarantine(self.inner(), usize::MAX)
    }

    /// Returns the blocks cached in the calling thread's magazines, and
    /// the other threads' blocks parked in its outboxes, to their
    /// superblocks, and how many there were; the large span parked in
    /// the thread's own word goes to the shared span cache (not counted).
    /// For a thread about to go idle holding memory others could use;
    /// safe to call at any time, concurrently with anything.
    pub fn flush_thread_cache(&self) -> usize {
        crate::magazine::drain_own(self.inner())
    }

    /// Returns all reclaimable memory to the OS: uninstalls idle active
    /// superblocks, prunes empty descriptors out of the partial
    /// structures, then unmaps every fully free hyperblock and descriptor
    /// slab, and every cached large span. Returns bytes released.
    ///
    /// # Safety
    ///
    /// Requires quiescence: no concurrent call of any kind on this
    /// instance — `malloc`/`free`/`trim`, and also `maintain`, `audit`,
    /// `health` and the stats snapshots, which read descriptors whose
    /// slab this may unmap. (The instance stays fully usable afterwards.)
    pub unsafe fn trim(&self) -> usize {
        unsafe { self.trim_to(0) }
    }

    /// Like [`trim`](Self::trim) but leaves up to `target_bytes` of
    /// superblock hyperblocks cached for reuse (a low watermark;
    /// descriptor slabs, a tiny fraction, and cached large spans are
    /// always fully trimmed).
    ///
    /// # Safety
    ///
    /// Same quiescence contract as [`trim`](Self::trim).
    pub unsafe fn trim_to(&self, target_bytes: usize) -> usize {
        let inner = self.inner();
        let t0 = Timer::start();
        inner.health.note_watermark(target_bytes);
        // 0. Every cached large span goes back to the source, the ones in
        //    threads' own words included (quiescence makes other threads'
        //    slots ours to touch). Then blocks parked outside the free
        //    lists, which pin their superblocks partially allocated, go
        //    home before hunting for fully free hyperblocks: every
        //    thread's magazines, and in hardened mode the quarantine.
        let mut released = unsafe { crate::large::drain_cache(inner) };
        unsafe { crate::magazine::drain_all(inner) };
        self.flush_quarantine();
        // 1. Uninstall every idle active superblock. An installed ACTIVE
        //    superblock's Active word pins credits+1 reserved blocks, so
        //    a drained (class, heap) pair otherwise holds its hyperblock
        //    forever (free() never EMPTIES an installed superblock).
        for ci in 0..NUM_CLASSES {
            for h in 0..inner.nheaps {
                let heap = unsafe { &*inner.heaps.add(ci * inner.nheaps + h) };
                let active = heap.load_active();
                if active.is_null() || heap.cas_active(active, Active::null()).is_err() {
                    continue;
                }
                let desc_ptr = active.desc() as *mut crate::descriptor::Descriptor;
                let desc = unsafe { &*desc_ptr };
                let credits = active.credits();
                let maxcount = desc.maxcount();
                // Return the credits+1 reserved blocks to the anchor.
                loop {
                    let old = desc.load_anchor();
                    if old.count() + credits + 1 == maxcount {
                        // No user blocks outstanding: the superblock is
                        // fully free — EMPTY (count stays maxcount-1, as
                        // in free()'s EMPTY transition) and recycled.
                        let new =
                            old.with_count(maxcount - 1).with_state(SbState::Empty);
                        if desc.cas_anchor(old, new).is_ok() {
                            // Counted like free()'s EMPTY transition so
                            // the fragmentation estimator's committed
                            // figure (new-sb minus emptied) stays true.
                            observe::count(inner, heap, observe::Count::FreeEmpty);
                            observe::event(inner, EventKind::SbRetire, ci, desc.sb() as u64);
                            unsafe { inner.desc_pool.retire(desc_ptr) };
                            break;
                        }
                    } else {
                        // Live blocks remain: park it as PARTIAL, same
                        // as UpdateActive's lost-race path.
                        let new = old
                            .with_count(old.count() + credits + 1)
                            .with_state(SbState::Partial);
                        if desc.cas_anchor(old, new).is_ok() {
                            unsafe { crate::alloc::heap_put_partial(inner, desc_ptr) };
                            break;
                        }
                    }
                }
            }
        }
        // 2. Retire the EMPTY descriptors parked in heap partial slots
        //    and class partial lists, then take the superblock off every
        //    retired pair: an EMPTY superblock stays on its descriptor
        //    (DESIGN.md §18), and the page pool can only unmap what is on
        //    its own free stack.
        crate::maintain::prune_empty(inner, u32::MAX);
        let release = |sb: *mut u8| {
            // Off its descriptor, the frame holds no small block.
            inner.frames.set(sb as usize, crate::framemap::Entry::EMPTY);
            unsafe { inner.sb_pool.dealloc(sb) }
        };
        unsafe { inner.desc_pool.detach_warm(release) };
        // 3. Give fully free hyperblocks and slabs back to the OS.
        released += unsafe { inner.sb_pool.trim_to(&inner.source, target_bytes) };
        released += unsafe { inner.desc_pool.trim(&inner.source) };
        observe::count_global(inner, Global::Trims);
        observe::event(inner, EventKind::Trim, 0, released as u64);
        t0.stop(inner, Lat::Trim);
        released
    }

    /// Allocates `size` bytes at alignment `align` (any power of two).
    ///
    /// # Safety
    ///
    /// Standard malloc contract; see [`RawMalloc::malloc`].
    #[inline(always)]
    #[cfg_attr(feature = "profile", track_caller)]
    pub unsafe fn allocate(&self, size: usize, align: usize) -> *mut u8 {
        debug_assert!(align.is_power_of_two());
        unsafe { self.allocate_impl(size, align, false) }
    }

    /// Allocates `size` zeroed bytes.
    ///
    /// Small blocks come from recycled superblocks and are always
    /// explicitly zeroed. So is a large block whose span was recycled
    /// out of the free-span cache (see [`crate::large`]). Only when the
    /// span is fresh from the page source *and* the source guarantees
    /// zero-filled fresh pages ([`PageSource::zeroes_fresh_pages`]) is
    /// the memset skipped — the user area of a fresh large block is
    /// provably untouched (the marker word sits below the user pointer
    /// and hardened canaries sit beyond the user extent).
    ///
    /// # Safety
    ///
    /// Standard malloc contract; see [`RawMalloc::malloc_zeroed`].
    #[inline(always)]
    #[cfg_attr(feature = "profile", track_caller)]
    pub unsafe fn allocate_zeroed(&self, size: usize) -> *mut u8 {
        unsafe { self.allocate_impl(size, MIN_MALLOC_ALIGN, true) }
    }

    /// Both allocating entry points' hit, inlined into the caller: the
    /// class, then a cached block of it (the reentrancy flag, the TLS
    /// block's generation and slot key, the bin; DESIGN.md §15.1), the
    /// memset when `zero` (a constant at either caller) and the observers'
    /// epilogue. Anything else is [`allocate_slow`](Self::allocate_slow).
    #[inline(always)]
    #[cfg_attr(feature = "profile", track_caller)]
    unsafe fn allocate_impl(&self, size: usize, align: usize, zero: bool) -> *mut u8 {
        let inner = self.inner();
        // Every class's blocks are 8-aligned; above that, the class must
        // be a multiple of the alignment.
        let class = if align <= MIN_MALLOC_ALIGN {
            class_index(size)
        } else {
            class_index_aligned(size, align)
        };
        if let Some(ci) = class.filter(|&ci| ci < CACHED_CLASSES) {
            if let Some(entry) = crate::tls::enter_hit() {
                let p = unsafe { crate::magazine::pop(inner, entry.block(), ci) };
                if !p.is_null() {
                    if zero {
                        unsafe { core::ptr::write_bytes(p, 0, size) };
                    }
                    observe::on_alloc(inner, class, p, size);
                    return p;
                }
            }
        }
        unsafe { self.allocate_slow(size, align, zero, class) }
    }

    /// Every allocation that is not a small hit, sent on by its class: a
    /// large block to [`allocate_large`](Self::allocate_large), anything
    /// else to [`allocate_class`](Self::allocate_class). Each arm is a tail
    /// jump with no prologue (DESIGN.md §15.1).
    #[inline(never)]
    #[cfg_attr(feature = "profile", track_caller)]
    unsafe fn allocate_slow(
        &self,
        size: usize,
        align: usize,
        zero: bool,
        class: Option<usize>,
    ) -> *mut u8 {
        match class {
            Some(ci) => unsafe { self.allocate_class(size, zero, ci) },
            None => unsafe { self.allocate_large(size, align, zero) },
        }
    }

    /// A class allocation that missed its bin: a refill, the mid row, the
    /// paper's ladder; the reentrancy rejection. Behind the hit's guard: the
    /// generation checks run only where the slot is stale
    /// ([`class_slot`](crate::magazine::class_slot), DESIGN.md §15.1). One
    /// call, not `#[cold]`: the mid row runs here on every call (§21.5).
    #[inline(never)]
    #[cfg_attr(feature = "profile", track_caller)]
    unsafe fn allocate_class(&self, size: usize, zero: bool, ci: usize) -> *mut u8 {
        let inner = self.inner();
        let Some(entry) = crate::tls::enter_hit() else {
            // Signal handler re-entered the allocator on this thread:
            // fail fast instead of racing our own interrupted frame.
            crate::fork::reject_reentrant(inner, 0);
            return core::ptr::null_mut();
        };
        let tb = entry.block();
        let slot = crate::magazine::class_slot(inner, tb);
        let p = unsafe { crate::magazine::malloc(inner, tb, slot, ci) };
        if zero && !p.is_null() {
            unsafe { core::ptr::write_bytes(p, 0, size) };
        }
        observe::on_alloc(inner, Some(ci), p, size);
        p
    }

    /// A large block (DESIGN.md §16.7). The hit is the thread's own span
    /// word behind the reentrancy flag alone, as a small hit is: the word
    /// is reached through the slot a hit may use, so a stale process
    /// generation or a hardened instance (no slot) misses. The miss brings
    /// the thread and the instance up to the process generation and runs
    /// [`alloc_large`](crate::large::alloc_large).
    #[inline(never)]
    #[cfg_attr(feature = "profile", track_caller)]
    unsafe fn allocate_large(&self, size: usize, align: usize, zero: bool) -> *mut u8 {
        let inner = self.inner();
        let Some(entry) = crate::tls::enter_hit() else {
            crate::fork::reject_reentrant(inner, 0);
            return core::ptr::null_mut();
        };
        let hit = unsafe { crate::large::take_held(inner, entry.block(), size, align) };
        let (p, fresh) = match hit {
            Some(p) => (p, false),
            None => {
                entry.block().ensure_fresh();
                crate::fork::maybe_recover(inner);
                unsafe { crate::large::alloc_large(inner, entry.block(), size, align) }
            }
        };
        if zero && !p.is_null() && !(fresh && inner.source.zeroes_fresh_pages()) {
            unsafe { core::ptr::write_bytes(p, 0, size) };
        }
        observe::on_alloc(inner, None, p, size);
        p
    }

    /// Crash-tolerance test hook: reserves a block from the calling
    /// thread's heap for size class of `size` and abandons the
    /// operation, as if the reserving thread were killed mid-`malloc`
    /// (between Figure 4's lines 6 and 8). Leaks at most one block.
    ///
    /// Returns true if a reservation was actually abandoned.
    #[doc(hidden)]
    pub fn simulate_killed_reservation(&self, size: usize) -> bool {
        let inner = self.inner();
        match class_index(size) {
            Some(ci) => unsafe { crate::alloc::abandon_reservation(inner, ci) },
            None => false,
        }
    }

    /// Test hook: the descriptor of the superblock whose frame holds
    /// `addr`, as the frame map names it (null for any other address).
    /// Descriptors are type-stable until `trim`, so the pointer may be
    /// read while the instance lives and nothing trims it.
    #[doc(hidden)]
    pub fn descriptor_of(&self, addr: usize) -> *const crate::descriptor::Descriptor {
        self.inner().frames.get(addr).desc()
    }

    /// Usable bytes in the block at `ptr`: its class's block size (this
    /// ≥ the requested size), or what is left of a large block's span.
    ///
    /// # Safety
    ///
    /// `ptr` must be a live block of this instance.
    pub unsafe fn block_usable_size(&self, ptr: *mut u8) -> usize {
        let entry = self.inner().frames.get(ptr as usize);
        if entry.is_empty() {
            return unsafe { crate::large::usable_size_large(ptr, large_marker(ptr)) };
        }
        CLASS_SIZES[entry.class()] as usize
    }

    /// Frees a block returned by [`allocate`](Self::allocate) (or by the
    /// `RawMalloc` methods).
    ///
    /// The hit, inlined into the caller: the address names its frame and
    /// the frame its superblock, class and heap column — the block itself
    /// is not read — and a local block of a class up to 1 KiB goes into
    /// its bin if that has room (DESIGN.md §15.1). Anything else is one
    /// out-of-line call.
    ///
    /// # Safety
    ///
    /// `ptr` must be null or a live block of this instance.
    #[inline(always)]
    pub unsafe fn deallocate(&self, ptr: *mut u8) {
        if ptr.is_null() {
            return;
        }
        let inner = self.inner();
        let frame = inner.frames.get(ptr as usize);
        if !frame.is_empty() && frame.class() < CACHED_CLASSES {
            if let Some(entry) = crate::tls::enter_hit() {
                if unsafe { crate::magazine::push(inner, entry.block(), ptr, frame) } {
                    observe::on_free(inner, ptr);
                    return;
                }
            }
        }
        unsafe { self.deallocate_slow(ptr, frame) }
    }

    /// Every `free` that is not a small hit, sent on by its frame: a
    /// frame with no superblock to [`deallocate_large`](Self::deallocate_large),
    /// any other to [`deallocate_class`](Self::deallocate_class). Each arm
    /// is a tail jump, as in [`allocate_slow`](Self::allocate_slow).
    #[inline(never)]
    unsafe fn deallocate_slow(&self, ptr: *mut u8, frame: crate::framemap::Entry) {
        if frame.is_empty() {
            unsafe { self.deallocate_large(ptr) }
        } else {
            unsafe { self.deallocate_class(ptr, frame) }
        }
    }

    /// A `free` of a small block that is not a hit, `frame` being `ptr`'s
    /// entry in the frame map: hardened, remote, a full bin, the mid row,
    /// no slot; the reentrancy rejection. The generation checks run as in
    /// [`allocate_class`](Self::allocate_class), before anything else.
    #[inline(never)]
    unsafe fn deallocate_class(&self, ptr: *mut u8, frame: crate::framemap::Entry) {
        let inner = self.inner();
        let Some(entry) = crate::tls::enter_hit() else {
            // Reentrant free: leaking the block is the only safe answer
            // (touching the anchor could race our interrupted frame).
            crate::fork::reject_reentrant(inner, ptr as usize);
            return;
        };
        let tb = entry.block();
        let slot = crate::magazine::class_slot(inner, tb);
        observe::on_free(inner, ptr);
        if inner.config.hardening != Hardening::Off {
            // Hardened instances hold no slot, so every hardened free is
            // here or in `deallocate_large`. The validated path establishes
            // provenance before touching any memory; misuse is reported,
            // never executed.
            return unsafe { crate::harden::free_hardened(inner, ptr) };
        }
        if !unsafe { crate::magazine::free(inner, tb, slot, ptr, frame) } {
            unsafe { crate::free_impl::free_small(inner, ptr, frame.desc()) };
        }
    }

    /// A `free` whose frame holds no superblock: a large block, or, on a
    /// hardened instance, whatever the validated path makes of the
    /// pointer. The hit parks the span in the thread's own word behind the
    /// reentrancy flag alone; the word is looked up before anything in
    /// front of `ptr` is read, and a hardened instance has none, so its
    /// frees reach [`free_hardened`](crate::harden::free_hardened) with
    /// the block untouched.
    #[inline(never)]
    unsafe fn deallocate_large(&self, ptr: *mut u8) {
        let inner = self.inner();
        let Some(entry) = crate::tls::enter_hit() else {
            crate::fork::reject_reentrant(inner, ptr as usize);
            return;
        };
        if unsafe { crate::large::park_held(inner, entry.block(), ptr) } {
            return observe::on_free(inner, ptr);
        }
        entry.block().ensure_fresh();
        crate::fork::maybe_recover(inner);
        observe::on_free(inner, ptr);
        if inner.config.hardening != Hardening::Off {
            return unsafe { crate::harden::free_hardened(inner, ptr) };
        }
        unsafe { crate::large::free_large(inner, entry.block(), ptr, large_marker(ptr)) };
    }
}

unsafe impl<S: PageSource + Send + Sync> RawMalloc for LfMalloc<S> {
    // Under `profile`, caller locations flow through these shims into
    // `allocate` so samples attribute to the application call site.
    #[inline(always)]
    #[cfg_attr(feature = "profile", track_caller)]
    unsafe fn malloc(&self, size: usize) -> *mut u8 {
        unsafe { self.allocate(size, MIN_MALLOC_ALIGN) }
    }

    #[inline(always)]
    unsafe fn free(&self, ptr: *mut u8) {
        unsafe { self.deallocate(ptr) }
    }

    fn name(&self) -> &str {
        "lfmalloc"
    }

    #[inline(always)]
    #[cfg_attr(feature = "profile", track_caller)]
    unsafe fn malloc_aligned(&self, size: usize, align: usize) -> *mut u8 {
        unsafe { self.allocate(size, align) }
    }

    #[inline(always)]
    #[cfg_attr(feature = "profile", track_caller)]
    unsafe fn malloc_zeroed(&self, size: usize) -> *mut u8 {
        unsafe { self.allocate_zeroed(size) }
    }

    unsafe fn usable_size(&self, ptr: *mut u8) -> usize {
        unsafe { self.block_usable_size(ptr) }
    }

    fn stats(&self) -> AllocStats {
        self.os_stats()
    }
}

impl<S: PageSource> Drop for LfMalloc<S> {
    fn drop(&mut self) {
        // 0a. Unregister the atfork hooks before anything is torn down:
        //     unregistration serializes on the procfork registry lock,
        //     which an in-flight fork holds from prepare to
        //     parent/child, so after this no hook can see the dying
        //     instance.
        crate::fork::unregister_instance(self.inner());
        // 0a'. Observers that borrow the instance let go of it first: the
        //      crash-sink table, the metrics scrape thread.
        observe::detach(self.inner());
        // 0b. Stop and join the background reaper (if any) before any
        //     state is torn down: a maintenance pass must never race
        //     teardown.
        self.inner().reaper.stop(|_| ());
        unsafe {
            let inner = self.inner.as_ptr();
            // 1. Release bulk memory: cached large spans, superblock
            //    hyperblocks, then the descriptor slabs.
            crate::large::drain_cache(&*inner);
            (*inner).sb_pool.release_all(&(*inner).source);
            (*inner).desc_pool.release_all(&(*inner).source);
            // 2. Drop the remaining owning fields exactly once each.
            core::ptr::drop_in_place(core::ptr::addr_of_mut!((*inner).desc_pool));
            core::ptr::drop_in_place(core::ptr::addr_of_mut!((*inner).sb_pool));
            core::ptr::drop_in_place(core::ptr::addr_of_mut!((*inner).classes));
            core::ptr::drop_in_place(core::ptr::addr_of_mut!((*inner).source));
            core::ptr::drop_in_place(core::ptr::addr_of_mut!((*inner).large_spans));
            core::ptr::drop_in_place(core::ptr::addr_of_mut!((*inner).reaper));
            core::ptr::drop_in_place(core::ptr::addr_of_mut!((*inner).mags));
            core::ptr::drop_in_place(core::ptr::addr_of_mut!((*inner).frames));
            core::ptr::drop_in_place(core::ptr::addr_of_mut!((*inner).obs));
            // 3. Free the quarantine rings (their entries are plain
            //    addresses into memory already released above), the heap
            //    table and the instance block (plain data).
            let (nheaps, nrows) = ((*inner).nheaps, NUM_CLASSES * (*inner).nheaps);
            drop(SysArray { ptr: (*inner).quarantine, len: nheaps, built: nheaps });
            drop(SysArray { ptr: (*inner).heaps, len: nrows, built: nrows });
            System.dealloc(inner as *mut u8, Layout::new::<Inner<S>>());
        }
    }
}

impl<S: PageSource> core::fmt::Debug for LfMalloc<S> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("LfMalloc")
            .field("config", &self.inner().config)
            .field("hyperblocks", &self.hyperblock_count())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::active::Active;
    use crate::anchor::SbState;
    use crate::config::SB_SIZE;

    /// The default build is the same allocator: the seam's state adds no
    /// byte to `Inner` and sits behind every field the paths read, which
    /// keep their order (the comment on `Inner` about `sbcycle_1t`).
    #[cfg(not(feature = "stats"))]
    #[test]
    fn default_build_state_is_zero_sized_and_last() {
        use core::mem::size_of;
        type Inner = super::Inner<SystemSource>;
        assert_eq!(size_of::<observe::State>() + size_of::<Timer>(), 0);
        macro_rules! offsets {
            ($($field:ident)*) => { [$(core::mem::offset_of!(Inner, $field)),*] };
        }
        let order = offsets!(
            config desc_pool sb_pool source nheaps heap_map heaps mags frames classes
            large_mapped_spans large_mapped_bytes large_cache large_spans misuse quarantine
            health reaper fork obs
        );
        assert!(order[0] == 0 && order.windows(2).all(|w| w[0] < w[1]), "{order:?}");
    }

    #[test]
    fn first_malloc_installs_an_active_superblock() {
        let a = LfMalloc::with_config(Config::with_heaps(2));
        let ci = class_index(16).unwrap();
        unsafe {
            let p = a.malloc(16);
            assert!(!p.is_null());
            // Exactly one heap of the 16-byte class is now active.
            let actives: Vec<Active> =
                (0..2).map(|h| a.inner().heap_at(ci, h).load_active()).collect();
            let installed: Vec<&Active> = actives.iter().filter(|x| !x.is_null()).collect();
            assert_eq!(installed.len(), 1);
            let active = installed[0];
            let desc = &*active.desc();
            assert_eq!(desc.sz(), 16);
            assert_eq!(desc.maxcount(), 1024);
            assert_eq!(desc.load_anchor().state(), SbState::Active);
            // Credits + anchor count account for all but the blocks the
            // opener took: one, or a magazine refill's worth.
            let anchor = desc.load_anchor();
            assert_eq!(
                active.credits() + 1 + anchor.count(),
                desc.maxcount() - anchor.avail(),
                "credit conservation"
            );
            a.free(p);
        }
    }

    /// Memory comes from the kernel untouched (DESIGN.md §22): the first
    /// `malloc` leaves its hyperblock's other 63 regions in the page
    /// pool's tail, unwritten and counted by the audit, and a fresh
    /// zeroed span is resident in its header page alone.
    #[test]
    fn a_fresh_instance_touches_only_what_it_hands_out() {
        use malloc_api::testkit::resident_pages;
        use osmem::PAGE_SIZE;
        let a = LfMalloc::with_config(Config::with_heaps(1));
        unsafe {
            let p = a.malloc(8);
            let (hyper, bytes) = a.inner().sb_pool.hyperblocks()[0];
            // The refill's blocks, or none where a scenario bypasses it.
            assert!(resident_pages(hyper, bytes) <= 1, "{} pages", resident_pages(hyper, bytes));
            assert_eq!(a.inner().sb_pool.free_regions().len(), 63, "the tail");
            let rep = a.audit();
            assert!(rep.is_clean(), "{:?}", rep.violations);
            let big = a.malloc_zeroed(1 << 20);
            let base = big.sub(16);
            assert_eq!(base as usize % PAGE_SIZE, 0);
            assert_eq!(resident_pages(base, (1 << 20) + PAGE_SIZE), 1, "the header page alone");
            assert!(core::slice::from_raw_parts(big, 1 << 20).iter().all(|&b| b == 0));
            a.free(big);
            a.free(p);
        }
    }

    #[test]
    fn freeing_last_block_empties_and_recycles() {
        let a = LfMalloc::with_config(Config::with_heaps(1));
        unsafe {
            let p = a.malloc(4_000); // class 4096: 4 blocks per superblock
            let q = a.malloc(4_000);
            let hyper_before = a.hyperblock_count();
            a.free(p);
            a.free(q);
            // Allocating again must reuse the recycled superblock.
            let r = a.malloc(4_000);
            assert_eq!(a.hyperblock_count(), hyper_before);
            a.free(r);
        }
    }

    #[test]
    fn heap_for_respects_single_mode() {
        let a = LfMalloc::with_config(Config::with_heaps(1));
        let ci = class_index(64).unwrap();
        let h1 = a.inner().heap_for(ci) as *const ProcHeap;
        let h2 = a.inner().heap_at(ci, 0) as *const ProcHeap;
        assert_eq!(h1, h2);
    }

    #[test]
    fn try_construction_succeeds_and_reports_errors_as_values() {
        let a = LfMalloc::try_new_default().expect("healthy system must construct");
        unsafe {
            let p = a.malloc(100);
            assert!(!p.is_null());
            a.free(p);
        }
        assert_eq!(format!("{OutOfMemory}"), "lfmalloc: out of memory constructing instance");
    }

    #[test]
    fn trim_after_free_all_returns_every_byte() {
        let a = LfMalloc::with_config(Config::with_heaps(2));
        unsafe {
            let mut ptrs = Vec::new();
            for i in 0..2_000usize {
                let p = a.malloc(8 + (i % 500));
                assert!(!p.is_null());
                ptrs.push(p);
            }
            for p in ptrs {
                a.free(p);
            }
            // Idle actives pin their hyperblocks until trimmed.
            assert!(a.os_stats().live_bytes > 0);
            let released = a.trim();
            assert!(released > 0);
            assert_eq!(
                a.os_stats().live_bytes,
                0,
                "all superblock hyperblocks and descriptor slabs released"
            );
            assert_eq!(a.hyperblock_count(), 0);
            let rep = a.audit();
            assert!(rep.is_clean(), "audit after trim: {rep}");
            // The instance stays fully usable.
            let p = a.malloc(64);
            assert!(!p.is_null());
            a.free(p);
        }
    }

    #[test]
    fn trim_with_live_blocks_keeps_them_valid() {
        let a = LfMalloc::with_config(Config::with_heaps(1));
        unsafe {
            let p = a.malloc(4_000); // class 4096: 4 blocks per superblock
            let q = a.malloc(4_000);
            core::ptr::write_bytes(p, 0xAB, 4_000);
            a.free(q);
            let released = a.trim();
            // The partially used superblock's hyperblock must survive.
            assert_eq!(a.hyperblock_count(), 1);
            let _ = released;
            assert_eq!(*p, 0xAB);
            assert_eq!(*p.add(3_999), 0xAB);
            let rep = a.audit();
            assert!(rep.is_clean(), "audit after partial trim: {rep}");
            a.free(p);
            a.trim();
            assert_eq!(a.os_stats().live_bytes, 0);
            assert!(a.audit().is_clean());
        }
    }

    #[test]
    fn trim_to_keeps_watermark_of_cached_hyperblocks() {
        let a = LfMalloc::with_config(Config::with_heaps(1));
        unsafe {
            // Force several hyperblocks by allocating > 1 MiB of blocks.
            let mut ptrs = Vec::new();
            for _ in 0..300 {
                let p = a.malloc(8_000); // class 8192: 2 blocks per sb
                assert!(!p.is_null());
                ptrs.push(p);
            }
            assert!(a.hyperblock_count() >= 3);
            for p in ptrs {
                a.free(p);
            }
            a.trim_to(1 << 20);
            assert_eq!(a.hyperblock_count(), 1, "watermark caches one hyperblock");
            assert!(a.audit().is_clean());
            a.trim();
            assert_eq!(a.hyperblock_count(), 0);
        }
    }

    /// An 8-byte request occupies 8 bytes: the paper's Threadtest shape,
    /// 100 000 live 8-byte blocks, is 49 superblocks where the prefix
    /// made it 98 — one hyperblock, not two.
    #[test]
    fn a_hundred_thousand_eight_byte_blocks_fit_one_hyperblock() {
        let a = LfMalloc::with_config(Config::with_heaps(1));
        unsafe {
            let blocks: Vec<*mut u8> = (0..100_000).map(|_| a.malloc(8)).collect();
            assert!(blocks.iter().all(|p| !p.is_null() && a.usable_size(*p) == 8));
            assert_eq!(a.hyperblock_count(), 1);
            for p in blocks {
                a.free(p);
            }
        }
        assert!(a.audit().is_clean());
    }

    #[test]
    fn sixteen_byte_requests_are_sixteen_aligned() {
        let a = LfMalloc::with_config(Config::with_heaps(1));
        unsafe {
            // Interleaved with 8-byte blocks, which are only 8-aligned
            // and live in superblocks of their own.
            let held: Vec<(*mut u8, *mut u8)> = (0..100).map(|_| (a.malloc(8), a.malloc(16))).collect();
            for &(small, p) in &held {
                assert_eq!(small as usize % 8, 0);
                assert_eq!(p as usize % 16, 0);
                assert_eq!(a.malloc_aligned(8, 16) as usize % 16, 0, "asked for, never the 8-byte class");
            }
            assert!(held.iter().any(|&(small, _)| small as usize % 16 == 8));
        }
    }

    /// `trim` clears the entry of every superblock it takes off a
    /// descriptor, so an address range handed back to the OS reads "no
    /// small block" — which is how the free of a large block that the OS
    /// maps there next finds its way.
    #[test]
    fn trimmed_frames_read_empty_and_a_large_block_there_frees_as_one() {
        let a = LfMalloc::with_config(Config::with_heaps(1));
        unsafe {
            let blocks: Vec<*mut u8> = (0..200).map(|_| a.malloc(8_000)).collect();
            let hypers = a.inner().sb_pool.hyperblocks();
            assert!(hypers.len() >= 2);
            let frames = |f: &dyn Fn(usize) -> bool| {
                hypers
                    .iter()
                    .flat_map(|&(base, bytes)| (base as usize..base as usize + bytes).step_by(SB_SIZE))
                    .filter(|&frame| f(frame))
                    .count()
            };
            assert_eq!(frames(&|f| !a.inner().frames.get(f).is_empty()), 100, "one per superblock opened");
            for p in blocks {
                a.free(p);
            }
            a.trim();
            assert_eq!(a.hyperblock_count(), 0);
            assert_eq!(frames(&|f| !a.inner().frames.get(f).is_empty()), 0);
            // The system allocator may or may not put these where the
            // hyperblocks were; wherever they land, no frame vouches for
            // a superblock and the marker word decides.
            let large: Vec<*mut u8> = (0..4).map(|_| a.malloc(1 << 20)).collect();
            for p in large {
                assert!(a.inner().frames.get(p as usize).is_empty());
                assert!(a.usable_size(p) >= 1 << 20);
                a.free(p);
            }
            a.trim();
            assert_eq!(a.os_stats().live_bytes, 0);
            assert!(a.audit().is_clean());
        }
    }

    #[test]
    fn os_stats_cover_descriptor_slabs() {
        let a = LfMalloc::new_default();
        unsafe {
            let p = a.malloc(8);
            // One superblock hyperblock (1 MiB) + one descriptor slab
            // (16 KiB) at minimum.
            let st = a.os_stats();
            assert!(st.live_bytes >= (1 << 20) + (1 << 14), "stats: {st}");
            a.free(p);
        }
    }
}
