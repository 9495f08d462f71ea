//! Processor heaps and the thread → heap mapping.
//!
//! Paper, Figure 3:
//!
//! ```text
//! typedef procheap :
//!     active Active;       // initially NULL
//!     descriptor* Partial; // initially NULL
//!     sizeclass* sc;       // pointer to parent sizeclass
//! ```
//!
//! "Each size class contains multiple processor heaps proportional to
//! the number of processors in the system" (§3.1). "Threads use their
//! thread ids to decide which processor heap to use for malloc."
//! The `Partial` field is "a most-recently-used Partial slot" (§3.2.6)
//! in front of the size class's partial list.

use crate::active::Active;
use crate::descriptor::Descriptor;
use core::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};

/// One processor heap. Cache-line aligned and padded so neighbouring
/// heaps never share a line (avoiding allocator-induced false sharing,
/// one of the paper's headline properties).
#[repr(C, align(64))]
#[derive(Debug)]
pub struct ProcHeap {
    /// Packed `(descriptor, credits)` of the active superblock.
    active: AtomicU64,
    /// Most-recently-used partial superblock slot.
    partial: AtomicPtr<Descriptor>,
    /// Owning size-class index (set at initialization, immutable after).
    class: AtomicUsize,
}

impl ProcHeap {
    /// A heap with no active and no partial superblock.
    pub const fn new(class: usize) -> Self {
        ProcHeap {
            active: AtomicU64::new(0),
            partial: AtomicPtr::new(core::ptr::null_mut()),
            class: AtomicUsize::new(class),
        }
    }

    /// Loads the `Active` word.
    #[inline]
    pub fn load_active(&self) -> Active {
        Active::from_raw(self.active.load(Ordering::Acquire))
    }

    /// One CAS attempt on the `Active` word.
    #[inline]
    pub fn cas_active(&self, old: Active, new: Active) -> Result<(), Active> {
        match self.active.compare_exchange(
            old.raw(),
            new.raw(),
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => Ok(()),
            Err(observed) => Err(Active::from_raw(observed)),
        }
    }

    /// Loads the `Partial` slot.
    #[inline]
    pub fn load_partial(&self) -> *mut Descriptor {
        self.partial.load(Ordering::Acquire)
    }

    /// One CAS attempt on the `Partial` slot (used by `HeapGetPartial`
    /// and `RemoveEmptyDesc`).
    #[inline]
    pub fn cas_partial(&self, old: *mut Descriptor, new: *mut Descriptor) -> bool {
        self.partial
            .compare_exchange(old, new, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Unconditionally swaps the `Partial` slot (the `HeapPutPartial`
    /// exchange), returning the previous occupant.
    #[inline]
    pub fn swap_partial(&self, desc: *mut Descriptor) -> *mut Descriptor {
        self.partial.swap(desc, Ordering::AcqRel)
    }

    /// The owning size-class index.
    #[inline]
    pub fn class(&self) -> usize {
        self.class.load(Ordering::Relaxed)
    }
}

/// A small, dense per-thread id ("Threads use their thread ids to decide
/// which processor heap to use"); it lives in the thread's allocator
/// block ([`crate::tls`]) and is re-issued after a fork. Correctness
/// never depends on the id, only distribution does.
///
/// Allocator calls issued from TLS destructors keep the thread's id.
/// For *malloc* that is all there is to say; *free*-side telemetry
/// uses [`try_thread_id`] to detect the teardown case and route it
/// deliberately (counted under the `free_teardown` stat as a remote
/// free).
#[inline]
pub fn thread_id() -> usize {
    crate::tls::with_block(|tb| tb.id())
}

/// Like [`thread_id`], but `None` once the thread's identity is being
/// retired (it is running TLS destructors past the allocator's own).
#[inline]
pub fn try_thread_id() -> Option<usize> {
    crate::tls::try_thread_id()
}

/// The thread → heap-column map: `id mod n` without the hardware
/// divide. `n` is fixed per instance, so the reciprocal is computed
/// once; powers of two get a mask.
#[derive(Clone, Copy, Debug)]
pub(crate) struct HeapMap {
    n: u32,
    /// `2^64 / n + 1` (Lemire's fastmod, exact for every 32-bit
    /// operand), or 0 when `n` is a power of two and `n - 1` masks.
    recip: u64,
}

impl HeapMap {
    /// Maps thread ids to `n` heap columns (`Config::heaps`, so at most
    /// 2^16).
    pub(crate) fn new(n: usize) -> Self {
        let n = n as u32;
        HeapMap { n, recip: if n.is_power_of_two() { 0 } else { u64::MAX / n as u64 + 1 } }
    }

    /// The column of thread `id` (only its low 32 bits take part).
    #[inline]
    pub(crate) fn column(self, id: usize) -> usize {
        let id = id as u32;
        if self.recip == 0 {
            (id & (self.n - 1)) as usize
        } else {
            let low = self.recip.wrapping_mul(id as u64);
            ((low as u128 * self.n as u128) >> 64) as usize
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_is_cache_line_sized() {
        assert_eq!(core::mem::align_of::<ProcHeap>(), 64);
        assert_eq!(core::mem::size_of::<ProcHeap>(), 64);
    }

    #[test]
    fn new_heap_is_inactive() {
        let h = ProcHeap::new(7);
        assert!(h.load_active().is_null());
        assert!(h.load_partial().is_null());
        assert_eq!(h.class(), 7);
    }

    #[test]
    fn cas_active_detects_interference() {
        let h = ProcHeap::new(0);
        let d = 0x40usize as *const Descriptor;
        let a = Active::pack(d, 3);
        h.cas_active(Active::null(), a).unwrap();
        let err = h.cas_active(Active::null(), a).unwrap_err();
        assert_eq!(err.raw(), a.raw());
        // Take a credit.
        h.cas_active(a, a.take_credits(1)).unwrap();
        assert_eq!(h.load_active().credits(), 2);
    }

    #[test]
    fn swap_partial_returns_previous() {
        let h = ProcHeap::new(0);
        let d1 = 0x40usize as *mut Descriptor;
        let d2 = 0x80usize as *mut Descriptor;
        assert!(h.swap_partial(d1).is_null());
        assert_eq!(h.swap_partial(d2), d1);
        assert_eq!(h.load_partial(), d2);
        assert!(h.cas_partial(d2, core::ptr::null_mut()));
        assert!(!h.cas_partial(d2, d1), "stale CAS must fail");
    }

    #[test]
    fn thread_ids_are_distinct_across_threads() {
        let id0 = thread_id();
        assert_eq!(id0, thread_id(), "stable within a thread");
        let other = std::thread::spawn(thread_id).join().unwrap();
        assert_ne!(id0, other);
    }

    #[test]
    fn heap_map_is_id_mod_n() {
        assert_eq!(HeapMap::new(1).column(12345), 0);
        assert_eq!(HeapMap::new(1).column(usize::MAX), 0);
        for n in [2usize, 3, 4, 5, 6, 7, 8, 12, 48, 64, 100, 1000] {
            let map = HeapMap::new(n);
            for id in (0..5_000u32).chain([u32::MAX - 1, u32::MAX, 0x8000_0001, 0xFFFF_FFF0]) {
                assert_eq!(map.column(id as usize), id as usize % n, "n {n}, id {id}");
            }
        }
    }
}
