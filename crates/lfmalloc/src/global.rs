//! Installing lfmalloc as the Rust global allocator.
//!
//! The paper initializes its static structures "on the first call to
//! malloc ... in a lock-free manner" (§3.1). [`GlobalLfMalloc`]
//! reproduces that: a `const`-constructible wrapper whose first
//! allocation CAS-installs a lazily built instance. Losers of the
//! installation race tear their candidate back down — no locks anywhere
//! on the initialization path.
//!
//! # Example
//!
//! ```ignore
//! use lfmalloc::GlobalLfMalloc;
//!
//! #[global_allocator]
//! static ALLOC: GlobalLfMalloc = GlobalLfMalloc::new();
//!
//! fn main() {
//!     let v: Vec<u64> = (0..1000).collect(); // served by lfmalloc
//!     println!("{}", v.len());
//! }
//! ```
//! (A runnable version is `examples/global_alloc.rs` at the workspace
//! root; the doctest is ignored because a process has one global
//! allocator.)

use crate::instance::LfMalloc;
use core::alloc::{GlobalAlloc, Layout};
use core::sync::atomic::{AtomicPtr, Ordering};
use osmem::SystemSource;

/// Processor-heap count used by the global allocator.
///
/// The paper detects the CPU count "at initialization time by querying
/// the system environment" — but in Rust, `available_parallelism()`
/// itself allocates (it reads cgroup quotas into a `Vec`), which would
/// recurse into the very allocator being initialized. The global
/// wrapper therefore uses a fixed heap count; eight heaps cover typical
/// machines (more heaps than CPUs costs only idle metadata).
pub const GLOBAL_HEAPS: usize = 8;

/// A process-wide, lazily initialized lfmalloc usable with
/// `#[global_allocator]`.
pub struct GlobalLfMalloc {
    instance: AtomicPtr<LfMalloc<SystemSource>>,
    heaps: usize,
}

impl GlobalLfMalloc {
    /// Const constructor for static installation ([`GLOBAL_HEAPS`]
    /// processor heaps).
    pub const fn new() -> Self {
        Self::with_heaps(GLOBAL_HEAPS)
    }

    /// Const constructor with an explicit processor-heap count.
    pub const fn with_heaps(heaps: usize) -> Self {
        GlobalLfMalloc { instance: AtomicPtr::new(core::ptr::null_mut()), heaps }
    }

    /// Returns the instance, building and installing it on first use.
    ///
    /// Lock-free: racing initializers each build a candidate; exactly
    /// one CAS wins and the losers drop theirs. Instance construction
    /// itself touches only the *system* allocator, so there is no
    /// reentrancy into this global allocator.
    pub fn instance(&self) -> &LfMalloc<SystemSource> {
        let p = self.instance.load(Ordering::Acquire);
        if !p.is_null() {
            return unsafe { &*p };
        }
        self.init_slow()
    }

    #[cold]
    fn init_slow(&self) -> &LfMalloc<SystemSource> {
        use std::alloc::{GlobalAlloc as _, System};
        // CRITICAL: nothing on this path may allocate through the Rust
        // global allocator (we *are* the global allocator, and the
        // instance pointer is still null — any such allocation recurses
        // forever). Instance construction is System-allocator-only by
        // design, and the config is built from constants, not from
        // `available_parallelism()` (which allocates).
        let config = crate::config::Config::with_heaps(self.heaps);
        // The `hardened` cargo feature turns on validated deallocation
        // for the global allocator (Detect: count and survive misuse;
        // aborting the process is an explicit-instance decision).
        #[cfg(feature = "hardened")]
        let config = config.with_hardening(crate::harden::Hardening::Detect);
        let candidate = unsafe {
            let raw = System.alloc(Layout::new::<LfMalloc<SystemSource>>())
                as *mut LfMalloc<SystemSource>;
            assert!(!raw.is_null(), "lfmalloc: global instance allocation failed");
            raw.write(LfMalloc::with_config(config));
            raw
        };
        match self.instance.compare_exchange(
            core::ptr::null_mut(),
            candidate,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => unsafe { &*candidate },
            Err(winner) => {
                // Lost the race: tear the candidate down.
                unsafe {
                    core::ptr::drop_in_place(candidate);
                    std::alloc::System
                        .dealloc(candidate as *mut u8, Layout::new::<LfMalloc<SystemSource>>());
                    &*winner
                }
            }
        }
    }
}

impl GlobalLfMalloc {
    /// [`LfMalloc::health`] of the underlying instance (initializing it
    /// on first use, like every other call).
    pub fn health(&self) -> crate::health::HealthSnapshot {
        self.instance().health()
    }

    /// Runs one [`LfMalloc::maintain`] pass on the underlying instance.
    pub fn maintain(&self, budget: crate::maintain::MaintenanceBudget) -> crate::maintain::MaintenanceReport {
        self.instance().maintain(budget)
    }

    /// [`LfMalloc::start_reaper`] on the underlying instance. Returns
    /// `false` if a reaper is already running.
    pub fn start_reaper(&self, cfg: crate::maintain::ReaperConfig) -> bool {
        self.instance().start_reaper(cfg)
    }

    /// Stops the background reaper, if any; `true` if one was stopped.
    pub fn stop_reaper(&self) -> bool {
        self.instance().stop_reaper()
    }
}

impl Default for GlobalLfMalloc {
    fn default() -> Self {
        Self::new()
    }
}

impl core::fmt::Debug for GlobalLfMalloc {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let initialized = !self.instance.load(Ordering::Acquire).is_null();
        f.debug_struct("GlobalLfMalloc").field("initialized", &initialized).finish()
    }
}

unsafe impl GlobalAlloc for GlobalLfMalloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        unsafe { self.instance().allocate(layout.size(), layout.align()) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, _layout: Layout) {
        unsafe { self.instance().deallocate(ptr) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Grow in place when the size class already covers `new_size`
        // (common for Vec doubling within a class); otherwise move.
        // The block keeps its address, so any alignment survives.
        if unsafe { self.instance().block_usable_size(ptr) } >= new_size {
            return ptr;
        }
        let new = unsafe { self.alloc(Layout::from_size_align_unchecked(new_size, layout.align())) };
        if !new.is_null() {
            unsafe {
                core::ptr::copy_nonoverlapping(ptr, new, layout.size().min(new_size));
                self.dealloc(ptr, layout);
            }
        }
        new
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lazy_init_and_roundtrip() {
        let g = GlobalLfMalloc::new();
        assert!(g.instance.load(Ordering::Relaxed).is_null());
        unsafe {
            let layout = Layout::from_size_align(100, 8).unwrap();
            let p = g.alloc(layout);
            assert!(!p.is_null());
            core::ptr::write_bytes(p, 7, 100);
            g.dealloc(p, layout);
        }
        assert!(!g.instance.load(Ordering::Relaxed).is_null());
        // Leak the instance: GlobalLfMalloc is designed for 'static use.
    }

    #[test]
    fn concurrent_first_use_installs_exactly_one_instance() {
        let g = std::sync::Arc::new(GlobalLfMalloc::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let g = std::sync::Arc::clone(&g);
            handles.push(std::thread::spawn(move || {
                let inst = g.instance() as *const _ as usize;
                unsafe {
                    let layout = Layout::from_size_align(64, 8).unwrap();
                    let p = g.alloc(layout);
                    assert!(!p.is_null());
                    g.dealloc(p, layout);
                }
                inst
            }));
        }
        let addrs: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(addrs.windows(2).all(|w| w[0] == w[1]), "threads saw different instances");
    }

    #[test]
    fn high_alignment_layouts() {
        let g = GlobalLfMalloc::new();
        for &align in &[16usize, 32, 64, 256, 4096, 1 << 16] {
            unsafe {
                let layout = Layout::from_size_align(24, align).unwrap();
                let p = g.alloc(layout);
                assert!(!p.is_null(), "align {align}");
                assert_eq!(p as usize % align, 0, "align {align}");
                core::ptr::write_bytes(p, 0xEE, 24);
                g.dealloc(p, layout);
            }
        }
    }
}
