//! The serial "libc malloc" baseline: one heap, one lock.
//!
//! The paper's baseline — AIX 5.1 libc malloc — behaves as a serial
//! allocator whose throughput collapses under multithreading ("Libc
//! malloc does not scale at all, its speedup drops to 0.4 on two
//! processors", §4.2.2). A boundary-tag heap behind a single mutex
//! reproduces exactly that role: excellent single-thread latency, full
//! serialization under contention, preemption-sensitive (a thread
//! holding the lock that loses its time slice blocks everyone — the
//! failure mode lock-freedom eliminates).

use crate::heap::SerialHeap;
use malloc_api::{AllocStats, RawMalloc};
use osmem::{CountingSource, PageSource, SystemSource};
use malloc_api::sync::Mutex;
use std::sync::Arc;

/// A [`SerialHeap`] behind one mutex — the "libc malloc" stand-in.
///
/// # Example
///
/// ```
/// use dlheap::LockedHeap;
/// use malloc_api::RawMalloc;
///
/// let a = LockedHeap::new();
/// unsafe {
///     let p = a.malloc(64);
///     assert!(!p.is_null());
///     a.free(p);
/// }
/// ```
#[derive(Debug)]
pub struct LockedHeap<S: PageSource = CountingSource<SystemSource>> {
    heap: Mutex<SerialHeap<S>>,
    source: Arc<S>,
}

impl LockedHeap<CountingSource<SystemSource>> {
    /// A locked heap over a counting system source (stats enabled).
    pub fn new() -> Self {
        Self::with_source(Arc::new(CountingSource::new(SystemSource::new())))
    }
}

impl Default for LockedHeap<CountingSource<SystemSource>> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: PageSource> LockedHeap<S> {
    /// A locked heap over an injected source.
    pub fn with_source(source: Arc<S>) -> Self {
        LockedHeap {
            heap: Mutex::new(SerialHeap::new(Arc::clone(&source))),
            source,
        }
    }

    /// The page source (for external stats queries).
    pub fn source(&self) -> &Arc<S> {
        &self.source
    }

    /// Runs the boundary-tag integrity walk under the lock.
    ///
    /// # Panics
    ///
    /// Panics on the first violated heap invariant (see
    /// [`SerialHeap::check_integrity`]).
    pub fn check_integrity(&self) -> crate::heap::HeapReport {
        self.heap.lock().check_integrity()
    }

    /// Makes this heap fork-safe for the lifetime of the returned
    /// guard, by registering [`malloc_api::procfork`] hooks that hold
    /// the heap mutex across `fork`: prepare locks it, parent and child
    /// both release it. Without this, a fork racing another thread's
    /// malloc can snapshot the mutex *locked by a thread that does not
    /// exist in the child*, deadlocking the child's first allocation
    /// forever.
    ///
    /// The guard must not outlive the heap (enforced by the borrow) and
    /// unregisters the hooks on drop. Only forks that run the procfork
    /// hook protocol ([`malloc_api::procfork::fork`], or raw `fork(2)`
    /// after [`malloc_api::procfork::install`]) are covered.
    pub fn atfork_guard(&self) -> AtforkGuard<'_, S>
    where
        S: 'static,
    {
        let stash = Box::into_raw(Box::new(AtforkStash {
            heap: self as *const LockedHeap<S>,
            guard: core::cell::UnsafeCell::new(None),
        }));
        let token = malloc_api::procfork::register(malloc_api::procfork::HookSet {
            prepare: Some(atfork_prepare::<S>),
            parent: Some(atfork_release::<S>),
            child: Some(atfork_release::<S>),
            data: stash as usize,
        });
        AtforkGuard { token, stash, _heap: core::marker::PhantomData }
    }
}

/// Hook-side state of one [`LockedHeap::atfork_guard`] registration.
/// Boxed so the hooks get one stable `usize`; only the forking thread
/// touches `guard`, under the procfork registry lock.
struct AtforkStash<S: PageSource + 'static> {
    heap: *const LockedHeap<S>,
    guard: core::cell::UnsafeCell<Option<malloc_api::sync::MutexGuard<'static, SerialHeap<S>>>>,
}

unsafe fn atfork_prepare<S: PageSource + 'static>(data: usize) {
    let stash = unsafe { &*(data as *const AtforkStash<S>) };
    let guard = unsafe { (*stash.heap).heap.lock() };
    // Lifetime erasure only: the guard is released by `atfork_release`
    // on this same thread before the registry lock is dropped, and the
    // heap outlives the registration (AtforkGuard borrows it).
    let guard: malloc_api::sync::MutexGuard<'static, SerialHeap<S>> =
        unsafe { core::mem::transmute(guard) };
    unsafe { *stash.guard.get() = Some(guard) };
}

/// Parent and child both just unlock: the forking thread took the lock
/// in prepare, so in both processes the heap is consistent and the
/// mutex is ours to release.
unsafe fn atfork_release<S: PageSource + 'static>(data: usize) {
    let stash = unsafe { &*(data as *const AtforkStash<S>) };
    drop(unsafe { (*stash.guard.get()).take() });
}

/// RAII registration handle returned by [`LockedHeap::atfork_guard`];
/// unregisters the hooks (and frees the hook stash) on drop.
pub struct AtforkGuard<'a, S: PageSource + 'static> {
    token: Option<malloc_api::procfork::HookToken>,
    stash: *mut AtforkStash<S>,
    _heap: core::marker::PhantomData<&'a LockedHeap<S>>,
}

impl<S: PageSource + 'static> AtforkGuard<'_, S> {
    /// False when the procfork registry was full and no hooks could be
    /// installed (the guard is inert; fork safety is not provided).
    pub fn is_armed(&self) -> bool {
        self.token.is_some()
    }
}

impl<S: PageSource + 'static> Drop for AtforkGuard<'_, S> {
    fn drop(&mut self) {
        if let Some(token) = self.token.take() {
            // Blocks on the registry lock until any in-flight fork's
            // hooks have run, so the stash is quiescent when freed.
            malloc_api::procfork::unregister(token);
        }
        drop(unsafe { Box::from_raw(self.stash) });
    }
}

unsafe impl<S: PageSource + Send + Sync> RawMalloc for LockedHeap<S> {
    unsafe fn malloc(&self, size: usize) -> *mut u8 {
        unsafe { self.heap.lock().malloc(size) }
    }

    unsafe fn free(&self, ptr: *mut u8) {
        unsafe { self.heap.lock().free(ptr) }
    }

    fn name(&self) -> &str {
        "libc-serial"
    }

    unsafe fn malloc_aligned(&self, size: usize, align: usize) -> *mut u8 {
        // User pointers are naturally 16-aligned; stronger alignments
        // are overallocated-and-aligned via the direct path.
        if align <= 16 {
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

    #[test]
    fn full_conformance_battery() {
        let a = Arc::new(LockedHeap::new());
        testkit::check_all(a);
    }

    #[test]
    fn stats_track_usage() {
        let a = LockedHeap::new();
        let p = unsafe { a.malloc(1000) };
        assert!(a.stats().peak_bytes > 0);
        unsafe { a.free(p) };
    }

    #[test]
    fn reverse_frees_coalesce_the_splits_back_into_one_chunk() {
        let a = LockedHeap::new();
        unsafe {
            // Carve three blocks out of one segment: each a split off the
            // one free chunk.
            let p1 = a.malloc(64);
            let p2 = a.malloc(64);
            let p3 = a.malloc(64);
            let r = a.check_integrity();
            assert_eq!((r.segments, r.in_use_chunks, r.free_chunks), (1, 3, 1), "{r:?}");
            // Freed in reverse, each block merges with the free chunk
            // after it.
            a.free(p3);
            a.free(p2);
            a.free(p1);
        }
        let r = a.check_integrity();
        assert_eq!((r.in_use_chunks, r.free_chunks), (0, 1), "{r:?}");
    }

    #[test]
    fn atfork_guard_registers_and_unregisters() {
        let a = LockedHeap::new();
        let before = malloc_api::procfork::registered_count();
        let g = a.atfork_guard();
        assert!(g.is_armed());
        assert_eq!(malloc_api::procfork::registered_count(), before + 1);
        drop(g);
        assert_eq!(malloc_api::procfork::registered_count(), before);
    }

    #[test]
    fn sixteen_byte_alignment_is_free() {
        let a = LockedHeap::new();
        unsafe {
            let p = a.malloc_aligned(100, 16);
            assert!(!p.is_null());
            assert_eq!(p as usize % 16, 0);
            a.free(p);
        }
    }
}
