//! OS page-memory substrate for the lfmalloc reproduction.
//!
//! The PLDI 2004 allocator sits on two OS services: getting page-aligned
//! memory runs (the paper uses `mmap`) and returning them (`munmap`).
//! This crate abstracts those behind [`PageSource`] and adds the two
//! pieces the paper's evaluation needs:
//!
//! * [`CountingSource`] — wraps any source with live/peak accounting so
//!   the §4.2.5 space-efficiency experiment can compare maximum space
//!   used per allocator.
//! * [`PagePool`] — a lock-free cache of fixed-size regions carved from
//!   large "hyperblocks", implementing §3.2.5's "we allocate superblocks
//!   (e.g., 16 KB) in batches of (e.g., 1 MB) hyperblocks (superblocks
//!   of superblocks)" to reduce the frequency of `mmap`/`munmap` calls.
//!
//! # Substitution note (see DESIGN.md)
//!
//! The paper's platform is AIX 5.1 `mmap` on PowerPC. Here the default
//! [`SystemSource`] is Linux anonymous `mmap`/`munmap`, called directly —
//! deliberately *not* the Rust global allocator, so the allocators built
//! on top can themselves be installed as the global allocator without
//! recursion. The algorithmic content above this layer is unchanged.

pub mod pool;
pub mod registry;
pub mod source;

pub use pool::PagePool;
pub use registry::SpanRegistry;
pub use source::{CountingSource, FlakySource, PageSource, SystemSource, PAGE_SIZE};
