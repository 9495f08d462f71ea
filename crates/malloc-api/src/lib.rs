//! Common raw-malloc interface for the lfmalloc reproduction.
//!
//! Every allocator in this workspace — the lock-free allocator from
//! Michael (PLDI 2004) and the three baselines it is evaluated against
//! (a serial "libc"-style heap behind one lock, a Ptmalloc-style arena
//! allocator, and a Hoard-style superblock allocator) — implements the
//! [`RawMalloc`] trait defined here. The benchmark workloads in the
//! `workloads` crate are generic over this trait, so a single workload
//! implementation measures all allocators identically, exactly as the
//! paper runs one benchmark binary against interchangeable `malloc`
//! shared libraries.
//!
//! # Example
//!
//! ```
//! use malloc_api::{RawMalloc, layout::align_up};
//!
//! /// A trivial allocator that leaks everything (for illustration only).
//! struct Leaky;
//!
//! unsafe impl RawMalloc for Leaky {
//!     unsafe fn malloc(&self, size: usize) -> *mut u8 {
//!         let layout = std::alloc::Layout::from_size_align(align_up(size.max(1), 8), 8).unwrap();
//!         std::alloc::alloc(layout)
//!     }
//!     unsafe fn free(&self, _ptr: *mut u8) {}
//!     fn name(&self) -> &str { "leaky" }
//! }
//!
//! let a = Leaky;
//! let p = unsafe { a.malloc(100) };
//! assert!(!p.is_null());
//! unsafe { a.free(p) };
//! ```

pub mod block;
pub mod failpoints;
pub mod json;
pub mod layout;
pub mod procfork;
pub mod stats;
pub mod sync;
#[cfg(feature = "stats")]
pub mod telemetry;
pub mod testkit;
pub mod trace;

pub use stats::AllocStats;

/// The minimum alignment every [`RawMalloc::malloc`] result must satisfy.
///
/// This matches the paper's allocator, which returns `addr + EIGHTBYTES`
/// inside superblocks whose blocks are 8-byte aligned, and matches the
/// C `malloc` contract on 64-bit platforms for objects up to 8 bytes.
pub const MIN_MALLOC_ALIGN: usize = 8;

/// A multithread-safe `malloc`/`free` pair, the interface the paper's
/// benchmarks drive.
///
/// # Safety
///
/// Implementations must guarantee, for any interleaving of calls from any
/// number of threads:
///
/// * `malloc(size)` returns either a null pointer (allocation failure) or
///   a pointer to at least `size` bytes, aligned to at least
///   [`MIN_MALLOC_ALIGN`], that does not overlap any other live block.
/// * A block stays valid until the first `free` of its pointer.
/// * `free(ptr)` accepts any pointer previously returned by `malloc` on
///   the same allocator instance (from *any* thread — remote free must be
///   supported; this is the producer-consumer pattern of §4.1) and must
///   tolerate `ptr == null` as a no-op.
///
/// Callers must never free a pointer twice, free a pointer the instance
/// did not allocate, or touch a block after freeing it.
pub unsafe trait RawMalloc: Sync {
    /// Allocates `size` bytes aligned to at least [`MIN_MALLOC_ALIGN`].
    ///
    /// Returns null on allocation failure. `size == 0` is allowed and
    /// returns a valid, freeable, unique pointer (like glibc). Sizes so
    /// large that internal rounding (headers, page alignment) would
    /// overflow `usize` must fail cleanly with null — never wrap into a
    /// small allocation or panic (`testkit::check_overflow` pins this).
    ///
    /// # Safety
    ///
    /// The returned memory is uninitialized; the caller must not read it
    /// before writing, and must eventually pass it to [`RawMalloc::free`]
    /// exactly once.
    ///
    /// Under the `stats` feature the declaration is `#[track_caller]`
    /// so heap profilers can attribute allocations to the original call
    /// site through the blanket `&A`/`Arc<A>` forwarders (a trait-level
    /// attribute applies to every implementation).
    #[cfg_attr(feature = "stats", track_caller)]
    unsafe fn malloc(&self, size: usize) -> *mut u8;

    /// Returns a block obtained from [`RawMalloc::malloc`].
    ///
    /// # Safety
    ///
    /// `ptr` must be null or a pointer returned by `malloc` on this
    /// instance that has not already been freed.
    unsafe fn free(&self, ptr: *mut u8);

    /// Short human-readable allocator name used in benchmark reports
    /// (e.g. `"lfmalloc"`, `"hoard"`, `"ptmalloc"`, `"libc-serial"`).
    fn name(&self) -> &str;

    /// Allocates `size` bytes aligned to `align` (a power of two).
    ///
    /// The default routes through `malloc` and is only correct for
    /// `align <= MIN_MALLOC_ALIGN`; allocators that support stronger
    /// alignment override this. Requests whose `size`/`align`
    /// combination cannot be represented (overflow during rounding)
    /// must return null, never wrap.
    ///
    /// # Safety
    ///
    /// Same contract as [`RawMalloc::malloc`]; additionally `align` must
    /// be a power of two.
    #[cfg_attr(feature = "stats", track_caller)]
    unsafe fn malloc_aligned(&self, size: usize, align: usize) -> *mut u8 {
        debug_assert!(align.is_power_of_two());
        if align <= MIN_MALLOC_ALIGN {
            self.malloc(size)
        } else {
            core::ptr::null_mut()
        }
    }

    /// Allocates `size` zeroed bytes (the `calloc(1, size)` shape).
    ///
    /// # Safety
    ///
    /// Same contract as [`RawMalloc::malloc`].
    #[cfg_attr(feature = "stats", track_caller)]
    unsafe fn malloc_zeroed(&self, size: usize) -> *mut u8 {
        let p = self.malloc(size);
        if !p.is_null() {
            core::ptr::write_bytes(p, 0, size);
        }
        p
    }

    /// Allocates an array of `count` elements of `size` bytes each, all
    /// zeroed — the C `calloc` contract. The `count * size` multiply is
    /// overflow-checked: requests whose product does not fit a `usize`
    /// must fail cleanly with null, never wrap into a small allocation
    /// (the classic calloc CVE shape). `count == 0` or `size == 0`
    /// behaves like `malloc(0)`: a valid, unique, freeable pointer.
    ///
    /// The default routes through [`malloc_zeroed`](Self::malloc_zeroed)
    /// (malloc + explicit memset). Allocators whose fresh memory is
    /// provably zero (e.g. straight-from-OS large blocks) may override
    /// to skip the memset — `testkit::check_calloc` pins the observable
    /// contract either way.
    ///
    /// # Safety
    ///
    /// Same contract as [`RawMalloc::malloc`].
    #[cfg_attr(feature = "stats", track_caller)]
    unsafe fn calloc(&self, count: usize, size: usize) -> *mut u8 {
        let Some(total) = count.checked_mul(size) else {
            return core::ptr::null_mut();
        };
        unsafe { self.malloc_zeroed(total) }
    }

    /// Number of usable bytes in the block at `ptr` (at least the
    /// requested size; possibly more due to size-class rounding).
    /// Returns 0 when the allocator cannot tell (the conservative
    /// default).
    ///
    /// # Safety
    ///
    /// `ptr` must be a live block of this allocator.
    unsafe fn usable_size(&self, ptr: *mut u8) -> usize {
        let _ = ptr;
        0
    }

    /// Resizes a block, preserving `min(old, new)` bytes of content —
    /// the C `realloc` contract. Null `ptr` behaves as `malloc`; returns
    /// null (leaving the old block intact) on failure.
    ///
    /// The default copies through a fresh block using
    /// [`usable_size`](Self::usable_size) when available, else
    /// `old_size_hint` (the caller's knowledge of the original request —
    /// Rust's `GlobalAlloc::realloc` always has it).
    ///
    /// # Safety
    ///
    /// `ptr` null or live; `old_size_hint` no larger than the block's
    /// original requested size.
    #[cfg_attr(feature = "stats", track_caller)]
    unsafe fn realloc(&self, ptr: *mut u8, old_size_hint: usize, new_size: usize) -> *mut u8 {
        if ptr.is_null() {
            return unsafe { self.malloc(new_size) };
        }
        let usable = unsafe { self.usable_size(ptr) };
        if usable >= new_size && usable != 0 {
            return ptr; // grows within the same block
        }
        let new = unsafe { self.malloc(new_size) };
        if !new.is_null() {
            let copy = old_size_hint.max(usable).min(new_size);
            unsafe {
                core::ptr::copy_nonoverlapping(ptr, new, copy);
                self.free(ptr);
            }
        }
        new
    }

    /// A point-in-time snapshot of the allocator's memory accounting.
    ///
    /// Used by the §4.2.5 space-efficiency experiment. Allocators that do
    /// not track statistics return [`AllocStats::default`].
    fn stats(&self) -> AllocStats {
        AllocStats::default()
    }
}

// Blanket impls so workloads can take `&A` or `Arc<A>` transparently.
unsafe impl<A: RawMalloc + ?Sized> RawMalloc for &A {
    unsafe fn malloc(&self, size: usize) -> *mut u8 {
        (**self).malloc(size)
    }
    unsafe fn free(&self, ptr: *mut u8) {
        (**self).free(ptr)
    }
    fn name(&self) -> &str {
        (**self).name()
    }
    unsafe fn malloc_aligned(&self, size: usize, align: usize) -> *mut u8 {
        (**self).malloc_aligned(size, align)
    }
    unsafe fn calloc(&self, count: usize, size: usize) -> *mut u8 {
        (**self).calloc(count, size)
    }
    unsafe fn usable_size(&self, ptr: *mut u8) -> usize {
        (**self).usable_size(ptr)
    }
    unsafe fn realloc(&self, ptr: *mut u8, old_size_hint: usize, new_size: usize) -> *mut u8 {
        (**self).realloc(ptr, old_size_hint, new_size)
    }
    fn stats(&self) -> AllocStats {
        (**self).stats()
    }
}

unsafe impl<A: RawMalloc + Send + ?Sized> RawMalloc for std::sync::Arc<A> {
    unsafe fn malloc(&self, size: usize) -> *mut u8 {
        (**self).malloc(size)
    }
    unsafe fn free(&self, ptr: *mut u8) {
        (**self).free(ptr)
    }
    fn name(&self) -> &str {
        (**self).name()
    }
    unsafe fn malloc_aligned(&self, size: usize, align: usize) -> *mut u8 {
        (**self).malloc_aligned(size, align)
    }
    unsafe fn calloc(&self, count: usize, size: usize) -> *mut u8 {
        (**self).calloc(count, size)
    }
    unsafe fn usable_size(&self, ptr: *mut u8) -> usize {
        (**self).usable_size(ptr)
    }
    unsafe fn realloc(&self, ptr: *mut u8, old_size_hint: usize, new_size: usize) -> *mut u8 {
        (**self).realloc(ptr, old_size_hint, new_size)
    }
    fn stats(&self) -> AllocStats {
        (**self).stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct SysMalloc;

    unsafe impl RawMalloc for SysMalloc {
        unsafe fn malloc(&self, size: usize) -> *mut u8 {
            let l =
                std::alloc::Layout::from_size_align(layout::align_up(size.max(8), 8), 8).unwrap();
            std::alloc::alloc(l)
        }
        unsafe fn free(&self, _ptr: *mut u8) {
            // Leaking in a test shim is fine; real impls reclaim.
        }
        fn name(&self) -> &str {
            "sys"
        }
    }

    #[test]
    fn default_zeroed_zeroes() {
        let a = SysMalloc;
        unsafe {
            let p = a.malloc_zeroed(64);
            assert!(!p.is_null());
            for i in 0..64 {
                assert_eq!(*p.add(i), 0);
            }
            a.free(p);
        }
    }

    #[test]
    fn default_aligned_rejects_large_align() {
        let a = SysMalloc;
        unsafe {
            assert!(a.malloc_aligned(8, 4096).is_null());
            let p = a.malloc_aligned(8, 8);
            assert!(!p.is_null());
            a.free(p);
        }
    }

    #[test]
    fn reference_forwarding_preserves_name() {
        let a = SysMalloc;
        let r = &a;
        assert_eq!(RawMalloc::name(&r), "sys");
    }

    #[test]
    fn arc_forwarding_allocates() {
        let a = std::sync::Arc::new(SysMalloc);
        unsafe {
            let p = a.malloc(16);
            assert!(!p.is_null());
            a.free(p);
        }
    }

    #[test]
    fn default_stats_are_zero() {
        let a = SysMalloc;
        let s = a.stats();
        assert_eq!(s.live_bytes, 0);
        assert_eq!(s.peak_bytes, 0);
    }
}
