//! A sequential dlmalloc-style heap, and the serial "libc malloc"
//! baseline built from it.
//!
//! The PLDI 2004 paper evaluates against two lock-based designs whose
//! sequential core is Doug Lea's `dlmalloc`: the default AIX libc malloc
//! (treated as a serial allocator behind coarse locking; the paper
//! observes it externally) and Ptmalloc ("based on Doug Lea's dlmalloc
//! sequential allocator"). This crate supplies that sequential core:
//!
//! * [`SerialHeap`] — a single-threaded boundary-tag heap with
//!   segregated free-list bins, split/coalesce, and direct OS handling
//!   of very large requests. Not thread-safe by itself.
//! * [`LockedHeap`] — `SerialHeap` behind one mutex: the stand-in for
//!   "libc malloc" in every experiment (Table 1 and all of Figure 8
//!   normalize against its contention-free run).
//!
//! The `ptmalloc` crate builds its arenas from [`SerialHeap`].

pub mod bins;
pub mod chunk;
pub mod heap;
pub mod locked;

pub use heap::SerialHeap;
pub use locked::LockedHeap;
