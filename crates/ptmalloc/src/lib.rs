//! Ptmalloc-style multi-arena allocator baseline.
//!
//! From the paper's description (§2.2): "Ptmalloc, developed by Wolfram
//! Gloger and based on Doug Lea's dlmalloc sequential allocator, is part
//! of GNU glibc. It uses multiple arenas in order to reduce the adverse
//! effect of contention. The granularity of locking is the arena. If a
//! thread executing malloc finds an arena locked, it tries the next one.
//! If all arenas are found to be locked, the thread creates a new arena
//! ... Each thread keeps thread-specific information about the arena it
//! used in its last malloc. When a thread frees a chunk (block), it
//! returns the chunk to the arena from which the chunk was originally
//! allocated, and the thread must acquire that arena's lock."
//!
//! Every sentence above is implemented here, on top of
//! [`dlheap::SerialHeap`] (our dlmalloc). One representational
//! deviation: glibc finds a chunk's arena from its address; we store an
//! explicit 16-byte owner prefix in front of each block. The *locking
//! behaviour* — which lock is taken, when, and by whom — is identical,
//! and that is what the paper measures (including the pathologies it
//! observes: arena-hopping under contention, freeing to remote locked
//! arenas in Larson, and extra arenas beyond the thread count).

use dlheap::SerialHeap;
use malloc_api::{AllocStats, RawMalloc};
use osmem::{CountingSource, PageSource, SystemSource};
use malloc_api::sync::{Mutex, RwLock};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Bytes prepended to each block to record the owning arena (keeps user
/// pointers 16-aligned).
const OWNER_PREFIX: usize = 16;

/// Salt for the owner-prefix checksum (the 64-bit golden-ratio
/// constant; any fixed odd mixer works).
const CHECKSUM_SALT: usize = 0x9E37_79B9_7F4A_7C15;

/// Checksum stored in the second prefix word: ties the owner pointer to
/// the block address. A double free fails this check reliably — the
/// first free hands the chunk to `dlheap`, whose bin links overwrite
/// both prefix words — and a mismatch is *counted and rejected* before
/// the owner pointer is ever dereferenced.
#[inline]
fn owner_checksum(owner: usize, base: usize) -> usize {
    owner ^ base ^ CHECKSUM_SALT
}

/// One arena: a serial heap behind its own lock.
struct Arena<S: PageSource> {
    heap: Mutex<SerialHeap<S>>,
}

impl<S: PageSource> Arena<S> {
    fn new(source: Arc<S>) -> Arc<Self> {
        Arc::new(Arena { heap: Mutex::new(SerialHeap::new(source)) })
    }
}

thread_local! {
    /// Index of the arena this thread used for its last malloc.
    static LAST_ARENA: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The Ptmalloc-style allocator: arena list + per-thread affinity.
///
/// # Example
///
/// ```
/// use ptmalloc::Ptmalloc;
/// use malloc_api::RawMalloc;
///
/// let a = Ptmalloc::new();
/// unsafe {
///     let p = a.malloc(100);
///     assert!(!p.is_null());
///     a.free(p);
/// }
/// ```
pub struct Ptmalloc<S: PageSource = CountingSource<SystemSource>> {
    arenas: RwLock<Vec<Arc<Arena<S>>>>,
    source: Arc<S>,
    /// Frees rejected by the owner-prefix checksum (double frees and
    /// corrupted prefixes).
    misuse: AtomicU64,
}

impl Ptmalloc<CountingSource<SystemSource>> {
    /// One initial arena over a counting system source.
    pub fn new() -> Self {
        Self::with_source(Arc::new(CountingSource::new(SystemSource::new())))
    }
}

impl Default for Ptmalloc<CountingSource<SystemSource>> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: PageSource + Send + Sync> Ptmalloc<S> {
    /// Builds the allocator over an injected page source.
    pub fn with_source(source: Arc<S>) -> Self {
        let main = Arena::new(Arc::clone(&source));
        Ptmalloc {
            arenas: RwLock::new(vec![main]),
            source,
            misuse: AtomicU64::new(0),
        }
    }

    /// Number of arenas created so far. The paper reports this as a
    /// symptom: "Ptmalloc creates more arenas than the number of
    /// threads, e.g., 22 arenas for 16 threads".
    pub fn arena_count(&self) -> usize {
        self.arenas.read().len()
    }

    /// The page source (for stats).
    pub fn source(&self) -> &Arc<S> {
        &self.source
    }

    /// Frees rejected because the owner-prefix checksum did not match
    /// (double frees, foreign pointers, corrupted prefixes).
    pub fn misuse_count(&self) -> u64 {
        self.misuse.load(Ordering::Relaxed)
    }

    /// Allocates via the paper's arena discipline: last-used arena
    /// first, then try-lock scan, then a fresh arena.
    unsafe fn arena_malloc(&self, size: usize) -> *mut u8 {
        let total = size.saturating_add(OWNER_PREFIX);
        // 1. The thread's preferred arena (uncontended fast path).
        let preferred = LAST_ARENA.try_with(|c| c.get()).unwrap_or(usize::MAX);
        {
            let arenas = self.arenas.read();
            let n = arenas.len();
            let start = if preferred < n { preferred } else { 0 };
            // 2. Try-lock scan starting at the preferred arena: "If a
            //    thread executing malloc finds an arena locked, it tries
            //    the next one."
            for step in 0..n {
                let idx = (start + step) % n;
                if let Some(mut heap) = arenas[idx].heap.try_lock() {
                    let p = unsafe { heap.malloc(total) };
                    drop(heap);
                    if p.is_null() {
                        return core::ptr::null_mut();
                    }
                    let _ = LAST_ARENA.try_with(|c| c.set(idx));
                    return unsafe { self.finish(p, &arenas[idx]) };
                }
            }
        }
        // 3. "If all arenas are found to be locked, the thread creates a
        //    new arena to satisfy its malloc and adds the new arena to
        //    the main list of arenas."
        let arena = Arena::new(Arc::clone(&self.source));
        let idx;
        {
            let mut arenas = self.arenas.write();
            idx = arenas.len();
            arenas.push(Arc::clone(&arena));
        }
        let _ = LAST_ARENA.try_with(|c| c.set(idx));
        let p = unsafe { arena.heap.lock().malloc(total) };
        if p.is_null() {
            return core::ptr::null_mut();
        }
        unsafe { self.finish(p, &arena) }
    }

    /// Stamps the owner prefix and returns the user pointer.
    ///
    /// The prefix is a plain pointer, not a refcount: the arena list
    /// holds every arena's `Arc` until the allocator itself drops, and
    /// `free` takes `&self`, so the owner outlives every block.
    unsafe fn finish(&self, p: *mut u8, arena: &Arc<Arena<S>>) -> *mut u8 {
        unsafe {
            let owner = Arc::as_ptr(arena) as usize;
            (p as *mut usize).write(owner);
            (p as *mut usize).add(1).write(owner_checksum(owner, p as usize));
            p.add(OWNER_PREFIX)
        }
    }

    /// Makes this allocator fork-safe for the lifetime of the returned
    /// guard, by registering [`malloc_api::procfork`] hooks that hold
    /// every arena lock across `fork`: prepare takes the arena-list
    /// write lock, then each arena's heap mutex in index order; parent
    /// and child both release them. Without this, a fork racing another
    /// thread's malloc snapshots an arena locked by a thread that does
    /// not exist in the child, and the child's next free to that arena
    /// blocks forever (malloc would hop past it, but free must take the
    /// owner's lock).
    ///
    /// This order cannot deadlock against the hot paths: malloc holds
    /// the list *read* lock and only ever `try_lock`s arena heaps (it
    /// never blocks on one while holding the list), and the new-arena
    /// path takes the write lock while holding no arena mutex, locking
    /// the new arena's heap only after dropping it.
    ///
    /// Only forks that run the procfork hook protocol
    /// ([`malloc_api::procfork::fork`], or raw `fork(2)` after
    /// [`malloc_api::procfork::install`]) are covered. The prepare hook
    /// allocates (a `Vec` of guards); ptmalloc is a baseline, never the
    /// Rust global allocator, so that is safe.
    pub fn atfork_guard(&self) -> PtmallocAtforkGuard<'_, S>
    where
        S: 'static,
    {
        let stash = Box::into_raw(Box::new(PtmallocAtforkStash {
            alloc: self as *const Ptmalloc<S>,
            guards: core::cell::UnsafeCell::new(None),
        }));
        let token = malloc_api::procfork::register(malloc_api::procfork::HookSet {
            prepare: Some(ptmalloc_atfork_prepare::<S>),
            parent: Some(ptmalloc_atfork_release::<S>),
            child: Some(ptmalloc_atfork_release::<S>),
            data: stash as usize,
        });
        PtmallocAtforkGuard { token, stash, _alloc: core::marker::PhantomData }
    }
}

/// Everything the forking thread holds across `fork`. Field order is
/// drop order: the arena heap guards release before the list write
/// guard, so no thread can observe a grown list whose arenas are still
/// locked by the (possibly gone) forking thread.
struct PtmallocForkGuards<S: PageSource + 'static> {
    _heaps: Vec<malloc_api::sync::MutexGuard<'static, SerialHeap<S>>>,
    _list: malloc_api::sync::RwLockWriteGuard<'static, Vec<Arc<Arena<S>>>>,
}

/// Hook-side state of one [`Ptmalloc::atfork_guard`] registration. Only
/// the forking thread touches `guards`, under the procfork registry
/// lock.
struct PtmallocAtforkStash<S: PageSource + 'static> {
    alloc: *const Ptmalloc<S>,
    guards: core::cell::UnsafeCell<Option<PtmallocForkGuards<S>>>,
}

unsafe fn ptmalloc_atfork_prepare<S: PageSource + 'static>(data: usize) {
    let stash = unsafe { &*(data as *const PtmallocAtforkStash<S>) };
    let a = unsafe { &*stash.alloc };
    // List write lock first: freezes the arena set and excludes the
    // new-arena path (which never holds an arena mutex while waiting
    // here).
    let list = unsafe {
        core::mem::transmute::<
            malloc_api::sync::RwLockWriteGuard<'_, Vec<Arc<Arena<S>>>>,
            malloc_api::sync::RwLockWriteGuard<'static, Vec<Arc<Arena<S>>>>,
        >(a.arenas.write())
    };
    // Then every arena heap, in index order. Lifetime erasure only:
    // released by `ptmalloc_atfork_release` on this same thread, and
    // the arenas outlive the registration (the list holds their Arcs
    // and the allocator outlives the guard).
    let mut heaps = Vec::with_capacity(list.len());
    for arena in list.iter() {
        heaps.push(unsafe {
            core::mem::transmute::<
                malloc_api::sync::MutexGuard<'_, SerialHeap<S>>,
                malloc_api::sync::MutexGuard<'static, SerialHeap<S>>,
            >(arena.heap.lock())
        });
    }
    unsafe { *stash.guards.get() = Some(PtmallocForkGuards { _heaps: heaps, _list: list }) };
}

/// Parent and child both just unlock: the forking thread holds every
/// lock, so in both processes the arenas are consistent and the locks
/// are ours to release.
unsafe fn ptmalloc_atfork_release<S: PageSource + 'static>(data: usize) {
    let stash = unsafe { &*(data as *const PtmallocAtforkStash<S>) };
    drop(unsafe { (*stash.guards.get()).take() });
}

/// RAII registration handle returned by [`Ptmalloc::atfork_guard`];
/// unregisters the hooks (and frees the hook stash) on drop.
pub struct PtmallocAtforkGuard<'a, S: PageSource + 'static> {
    token: Option<malloc_api::procfork::HookToken>,
    stash: *mut PtmallocAtforkStash<S>,
    _alloc: core::marker::PhantomData<&'a Ptmalloc<S>>,
}

impl<S: PageSource + 'static> PtmallocAtforkGuard<'_, S> {
    /// False when the procfork registry was full and no hooks could be
    /// installed (the guard is inert; fork safety is not provided).
    pub fn is_armed(&self) -> bool {
        self.token.is_some()
    }
}

impl<S: PageSource + 'static> Drop for PtmallocAtforkGuard<'_, S> {
    fn drop(&mut self) {
        if let Some(token) = self.token.take() {
            // Blocks until any in-flight fork's hooks have run, so the
            // stash is quiescent when freed.
            malloc_api::procfork::unregister(token);
        }
        drop(unsafe { Box::from_raw(self.stash) });
    }
}

unsafe impl<S: PageSource + Send + Sync> RawMalloc for Ptmalloc<S> {
    unsafe fn malloc(&self, size: usize) -> *mut u8 {
        unsafe { self.arena_malloc(size) }
    }

    unsafe fn free(&self, ptr: *mut u8) {
        if ptr.is_null() {
            return;
        }
        unsafe {
            let base = ptr.sub(OWNER_PREFIX);
            let owner = (base as *const usize).read();
            let checksum = (base as *const usize).add(1).read();
            // Validate the prefix *before* dereferencing the owner: a
            // stale or corrupted prefix would otherwise be followed as a
            // pointer into a lock.
            if checksum != owner_checksum(owner, base as usize) {
                self.misuse.fetch_add(1, Ordering::Relaxed);
                return;
            }
            let owner = owner as *const Arena<S>;
            // "the thread must acquire that arena's lock" — a remote
            // free blocks on the owner's lock, the contention source the
            // paper measures in Larson and producer-consumer.
            (*owner).heap.lock().free(base);
        }
    }

    fn name(&self) -> &str {
        "ptmalloc"
    }

    unsafe fn malloc_aligned(&self, size: usize, align: usize) -> *mut u8 {
        if align <= OWNER_PREFIX {
            unsafe { self.malloc(size) }
        } else {
            core::ptr::null_mut()
        }
    }

    fn stats(&self) -> AllocStats {
        self.source.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use malloc_api::testkit;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Barrier;

    #[test]
    fn full_conformance_battery() {
        let a = Arc::new(Ptmalloc::new());
        testkit::check_all(a);
    }

    #[test]
    fn starts_with_one_arena() {
        let a = Ptmalloc::new();
        assert_eq!(a.arena_count(), 1);
        unsafe {
            let p = a.malloc(64);
            a.free(p);
        }
        assert_eq!(a.arena_count(), 1, "uncontended use must not spawn arenas");
    }

    #[test]
    fn contention_creates_arenas() {
        // Hold the only arena's lock hostage; a malloc from another
        // thread must create a second arena instead of blocking.
        let a = Arc::new(Ptmalloc::new());
        let hold = {
            let arenas = a.arenas.read();
            // Leak a guard by locking and forgetting: simulate a slow
            // holder via a scoped thread instead.
            Arc::clone(&arenas[0])
        };
        let barrier = Arc::new(Barrier::new(2));
        let release = Arc::new(AtomicBool::new(false));
        let holder = {
            let barrier = Arc::clone(&barrier);
            let release = Arc::clone(&release);
            std::thread::spawn(move || {
                let _guard = hold.heap.lock();
                barrier.wait(); // lock is held
                while !release.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
            })
        };
        barrier.wait();
        let p = unsafe { a.malloc(64) };
        assert!(!p.is_null());
        assert_eq!(a.arena_count(), 2, "malloc under total contention must add an arena");
        release.store(true, Ordering::Release);
        holder.join().unwrap();
        unsafe { a.free(p) };
    }

    #[test]
    fn remote_free_returns_to_owner_arena() {
        let a = Arc::new(Ptmalloc::new());
        let p = unsafe { a.malloc(128) } as usize;
        let a2 = Arc::clone(&a);
        // Free from another thread: must succeed and route to arena 0.
        std::thread::spawn(move || unsafe { a2.free(p as *mut u8) }).join().unwrap();
        assert_eq!(a.arena_count(), 1);
    }

    #[test]
    fn thread_affinity_is_sticky() {
        let a = Ptmalloc::new();
        unsafe {
            let p1 = a.malloc(64);
            let p2 = a.malloc(64);
            // Same thread, both from arena 0 — freeing must not panic
            // and the arena count stays 1.
            a.free(p1);
            a.free(p2);
        }
        assert_eq!(a.arena_count(), 1);
    }

    #[test]
    fn double_free_is_rejected_by_checksum() {
        let a = Ptmalloc::new();
        unsafe {
            let p = a.malloc(64);
            assert!(!p.is_null());
            a.free(p);
            // The first free handed the chunk to dlheap, whose bin links
            // overwrote both prefix words; the second free must fail the
            // checksum and be counted, not followed into a stale arena.
            a.free(p);
            assert_eq!(a.misuse_count(), 1);
            // The heap stays usable afterwards.
            let q = a.malloc(64);
            assert!(!q.is_null());
            a.free(q);
        }
        assert_eq!(a.misuse_count(), 1);
    }

    #[test]
    fn a_held_arena_is_scanned_past_into_a_new_one() {
        let a = Arc::new(Ptmalloc::new());
        // The arena a block's owner prefix names.
        let owner = |p: *mut u8| unsafe { (p.sub(OWNER_PREFIX) as *const usize).read() };
        let arena = |i: usize| Arc::as_ptr(&a.arenas.read()[i]) as usize;
        unsafe {
            let p = a.malloc(64);
            assert_eq!(owner(p), arena(0));
            a.free(p);
        }
        assert_eq!(a.arenas.read().len(), 1);

        // Hold the only arena's lock: the next malloc must scan past it
        // and create a second arena.
        let hold = Arc::clone(&a.arenas.read()[0]);
        let barrier = Arc::new(Barrier::new(2));
        let release = Arc::new(AtomicBool::new(false));
        let holder = {
            let barrier = Arc::clone(&barrier);
            let release = Arc::clone(&release);
            std::thread::spawn(move || {
                let _guard = hold.heap.lock();
                barrier.wait();
                while !release.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
            })
        };
        barrier.wait();
        let p = unsafe { a.malloc(64) };
        assert!(!p.is_null());
        release.store(true, Ordering::Release);
        holder.join().unwrap();
        assert_eq!(a.arenas.read().len(), 2);
        assert_eq!(owner(p), arena(1), "the block comes from the new arena");
        unsafe { a.free(p) };
    }

    #[test]
    fn exhausted_source_yields_null_not_panic() {
        use osmem::FlakySource;

        // A source with zero budget: every malloc size must come back
        // null — small (via arena grow) and huge (direct mmap) alike.
        let dead = Arc::new(FlakySource::new(SystemSource::new(), 0));
        let a = Ptmalloc::with_source(Arc::clone(&dead));
        unsafe {
            assert!(a.malloc(64).is_null());
            assert!(a.malloc(4 << 20).is_null());
        }
        assert!(dead.denials() >= 2, "both paths must have hit the source");

        // A budget of one segment: allocate until it runs dry, then
        // every free must still succeed and the memory stays reusable
        // without any further OS grant.
        let tight = Arc::new(FlakySource::new(SystemSource::new(), 1));
        let a = Ptmalloc::with_source(Arc::clone(&tight));
        let mut live = Vec::new();
        unsafe {
            loop {
                let p = a.malloc(4096);
                if p.is_null() {
                    break;
                }
                live.push(p as usize);
            }
            assert!(!live.is_empty(), "one segment must serve some blocks");
            assert!(tight.denials() > 0);
            for &p in &live {
                a.free(p as *mut u8);
            }
            // Coalesced memory is recycled without touching the source.
            let before = tight.denials();
            let p = a.malloc(4096);
            assert!(!p.is_null());
            assert_eq!(tight.denials(), before);
            a.free(p);
        }
    }
    #[test]
    fn atfork_guard_registers_and_unregisters() {
        let a = Ptmalloc::new();
        let before = malloc_api::procfork::registered_count();
        let g = a.atfork_guard();
        assert!(g.is_armed());
        assert_eq!(malloc_api::procfork::registered_count(), before + 1);
        drop(g);
        assert_eq!(malloc_api::procfork::registered_count(), before);
    }

}
