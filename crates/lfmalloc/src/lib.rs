//! A completely lock-free dynamic memory allocator — a from-scratch Rust
//! reproduction of Maged M. Michael, *Scalable Lock-Free Dynamic Memory
//! Allocation*, PLDI 2004.
//!
//! # What the paper builds
//!
//! A `malloc`/`free` pair that is *lock-free*: whenever any thread takes
//! a finite number of steps, some allocator operation completes,
//! regardless of how other threads are delayed, preempted, or killed.
//! This yields deadlock immunity, async-signal-safety, priority-inversion
//! tolerance, kill-tolerant availability, and preemption tolerance —
//! without kernel support and using only single-word CAS.
//!
//! # Structure (paper §3)
//!
//! * Large blocks go straight to the OS ([`large`]).
//! * Small blocks come from 16 KiB **superblocks** divided into
//!   equal-size blocks; superblocks belong to **size classes**
//!   ([`size_classes`]), each size class has multiple **processor
//!   heaps** ([`heap`]).
//! * Each superblock is described by a **descriptor** ([`descriptor`])
//!   whose [`Anchor`](anchor::Anchor) word (avail index, free count,
//!   state, ABA tag) is updated with single CAS operations.
//! * Each heap's [`Active`](active::Active) word packs a descriptor
//!   pointer with a **credits** count so the common malloc path is one
//!   CAS to reserve plus one CAS to pop ([`alloc`]).
//! * A typical free is a single CAS push onto the superblock's free list
//!   ([`free_impl`]); it finds the descriptor from the block's address,
//!   in a word per 16 KiB frame (`framemap`, not in the paper).
//! * Retired descriptors go straight back onto a tag-protected free
//!   stack, and each size class's partial-superblock list is the same
//!   stack threaded through the descriptors ([`descriptor`],
//!   [`partial`]): descriptors are type-stable, so no reclamation
//!   scheme is needed (the paper uses hazard pointers and a FIFO queue
//!   here; no crate of this workspace has a reclamation scheme). An EMPTY superblock stays on its descriptor through all of
//!   it — parked where it went EMPTY, or retired as a pair — until a
//!   malloc reopens it; only `trim` takes the two apart.
//! * In front of all that, each thread keeps a small private stack of
//!   free blocks per size class ([`magazine`]) that it refills and
//!   flushes in batches against the lock-free core, so the common
//!   malloc and free execute no CAS at all; blocks of other threads'
//!   superblocks wait in a second, never-popped row (the outbox) and
//!   go home a run at a time. Not in the paper; every miss, push and
//!   slow path is the paper's code unchanged.
//! * What any of it reports — which path served a call, CAS retries,
//!   timings, slow-path events — goes through one crate-private seam,
//!   `observe`, whose functions are empty unless the `stats`, `profile`
//!   or `forensics` feature gives them somewhere to go.
//!
//! # Quick start
//!
//! ```
//! use lfmalloc::LfMalloc;
//! use malloc_api::RawMalloc;
//!
//! let alloc = LfMalloc::new_default();
//! unsafe {
//!     let p = alloc.malloc(100);
//!     assert!(!p.is_null());
//!     core::ptr::write_bytes(p, 42, 100);
//!     alloc.free(p);
//! }
//! ```
//!
//! To install it as the Rust global allocator, see [`global::GlobalLfMalloc`].
//!
//! # Deviations from the paper
//!
//! Documented centrally in `DESIGN.md`; the load-bearing ones:
//! anchor bit-field widths are 12/12/2/38 instead of 10/10/2/42 (so a
//! 16 KiB superblock of 8-byte blocks fits), small blocks carry no
//! prefix (the descriptor is found from the address), empty
//! superblocks are neither `munmap`ped nor returned to the hyperblock
//! pool (§3.2.5) but kept on their descriptors for the next superblock
//! life, and `DescAvail` and the partial lists are tag-protected stacks
//! instead of `SafeCAS` and an MS queue.

pub mod active;
pub mod alloc;
pub mod anchor;
pub mod audit;
pub mod config;
pub mod descriptor;
#[cfg(feature = "forensics")]
pub mod forensics;
pub mod fork;
pub(crate) mod framemap;
pub mod free_impl;
pub mod global;
pub mod harden;
pub mod health;
pub mod heap;
#[cfg(feature = "forensics")]
pub mod heapdump;
pub mod instance;
pub mod large;
pub mod magazine;
pub mod maintain;
#[cfg(feature = "stats")]
pub mod metrics;
pub(crate) mod observe;
pub mod partial;
#[cfg(feature = "profile")]
pub mod profile;
pub(crate) mod retry;
pub(crate) mod schema;
pub mod size_classes;
pub(crate) mod tls;
#[cfg(feature = "stats")]
pub mod stats;

pub use audit::{AuditReport, AuditViolation, ByteReconciliation};
pub use config::Config;
pub use global::GlobalLfMalloc;
pub use harden::{process_misuse_counters, Hardening, MisuseCounters, MisuseKind, MisuseReport};
pub use health::{
    process_storms, HealthSnapshot, LivenessConfig, LivenessPolicy, WatchSite,
    DEFAULT_RETRY_CEILING, HEALTH_ROWS, NUM_WATCH_SITES,
};
pub use schema::CounterInfo;
pub use config::ProfileParams;
#[cfg(feature = "forensics")]
pub use forensics::{FdWriter, FlightOp, OpKind, PtrKind, PtrReport, SigBuf};
#[cfg(feature = "forensics")]
pub use heapdump::{
    analyze_dump, diff_dumps, AnalyzeReport, ClassCensus, DescriptorCensus, DiffReport,
    LeakCandidate, SiteDelta, DUMP_VERSION,
};
pub use instance::{LfMalloc, OutOfMemory};
pub use maintain::{MaintenanceBudget, MaintenanceReport, ReaperConfig};
#[cfg(feature = "profile")]
pub use profile::{CallSite, LiveSample, ProfileSnapshot, SiteReport};
#[cfg(feature = "stats")]
pub use stats::{
    ClassStats, Event, EventKind, EventRing, FragSample, FragmentationStats, LatencyStats,
    StatsSnapshot,
};
