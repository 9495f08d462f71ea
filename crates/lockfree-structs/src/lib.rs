//! Lock-free building blocks used by the PLDI 2004 allocator
//! reproduction.
//!
//! The paper composes its allocator from a handful of classic lock-free
//! structures, all of which are implemented here from scratch:
//!
//! * [`tagptr`] — the "classic IBM tag mechanism" (System/370 Principles
//!   of Operation) packing a pointer and an ABA-prevention tag into one
//!   CAS-able word. The allocator uses it for the `Anchor` field and for
//!   page-pool free lists.
//! * [`stack`] — the tag-protected Treiber/IBM-freelist LIFO
//!   ([`stack::TaggedStack`]): the page pool's free list, and the
//!   allocator's `DescAvail`, descriptor reserve and partial lists.
//! * [`queue`] — the Michael–Scott FIFO queue (PODC 1996) in its
//!   counted-pointer form: every link word carries a tag, and nodes come
//!   from internal slabs that live as long as the queue (its free list is
//!   a [`stack::TaggedStack`]), so the queue needs neither a reclamation
//!   scheme nor a general-purpose malloc — which would be circular inside
//!   an allocator. The producer–consumer workload and baseline; the
//!   allocator itself does not use it.
//! * [`backoff`] — bounded exponential backoff for CAS retry loops.
//! * [`pad`] — cache-line padding to keep unrelated hot words from
//!   false sharing.
//!
//! None of this code allocates through the Rust global allocator; slab
//! refills call `std::alloc::System` directly (the moral equivalent of
//! the paper's `mmap` slow path).

/// Failpoint shim: the `malloc-api` dependency exists only under the
/// `failpoints` feature, so the real registry is reached through this
/// function; with the feature off it returns a constant struct whose
/// `false` fields let the optimizer fold every site away.
#[cfg(feature = "failpoints")]
#[inline]
pub(crate) fn fp(name: &'static str) -> malloc_api::failpoints::FpSignal {
    malloc_api::failpoints::hit(name)
}

#[cfg(not(feature = "failpoints"))]
#[derive(Clone, Copy)]
pub(crate) struct FpNone {
    pub retry: bool,
    #[allow(dead_code)]
    pub kill: bool,
}

#[cfg(not(feature = "failpoints"))]
#[inline(always)]
pub(crate) fn fp(_name: &'static str) -> FpNone {
    FpNone { retry: false, kill: false }
}

/// CAS-retry telemetry shim (the `stats` analogue of [`fp`]): with the
/// feature on, expands to an increment of the named process-wide counter
/// in [`stats`]; with it off, expands to nothing — the loops carry zero
/// telemetry code in default builds.
#[cfg(feature = "stats")]
macro_rules! cas_retry {
    ($which:ident) => {
        crate::stats::$which.inc()
    };
}

#[cfg(not(feature = "stats"))]
macro_rules! cas_retry {
    ($which:ident) => {};
}

pub(crate) use cas_retry;

pub mod backoff;
pub mod pad;
pub mod queue;
pub mod stack;
#[cfg(feature = "stats")]
pub mod stats;
pub mod tagptr;

pub use backoff::Backoff;
pub use pad::CachePadded;
pub use queue::Queue;
pub use stack::TaggedStack;
pub use tagptr::TagPtr;
