//! `lfmalloc-repro` — umbrella crate for the reproduction of
//! Maged M. Michael, *Scalable Lock-Free Dynamic Memory Allocation*
//! (PLDI 2004).
//!
//! This crate re-exports the workspace's public surface so examples and
//! downstream users need a single dependency:
//!
//! * [`lfmalloc`] — the lock-free allocator (the paper's contribution).
//! * [`dlheap`], [`ptmalloc`], [`hoard`] — the three lock-based
//!   baselines of §4.
//! * [`workloads`] — the six benchmarks of §4.1.
//! * [`oracle`] — the shadow-heap differential verifier with trace
//!   record/replay and failure shrinking.
//! * [`lockfree_structs`], [`osmem`] — the substrates. No crate here
//!   carries a reclamation scheme: descriptors and the producer–consumer
//!   workload's queue nodes are type-stable under tags.
//!
//! # Quickstart
//!
//! ```
//! use lfmalloc_repro::prelude::*;
//!
//! let alloc = LfMalloc::new_default();
//! unsafe {
//!     let p = alloc.malloc(128);
//!     assert!(!p.is_null());
//!     alloc.free(p);
//! }
//! ```
//!
//! See `examples/` for runnable programs and `DESIGN.md` /
//! `EXPERIMENTS.md` for the reproduction methodology.

pub use dlheap;
pub use hoard;
pub use lfmalloc;
pub use lockfree_structs;
pub use malloc_api;
pub use oracle;
pub use osmem;
pub use ptmalloc;
pub use workloads;

/// The names most programs need.
pub mod prelude {
    pub use dlheap::LockedHeap;
    pub use hoard::Hoard;
    pub use lfmalloc::{
        Config, GlobalLfMalloc, Hardening, HealthSnapshot, LfMalloc, LivenessConfig,
        LivenessPolicy, MaintenanceBudget, MaintenanceReport, MisuseKind, MisuseReport,
        ReaperConfig, WatchSite,
    };
    pub use malloc_api::{AllocStats, RawMalloc};
    pub use oracle::{OracleMalloc, Trace};
    pub use ptmalloc::Ptmalloc;
    #[cfg(feature = "stats")]
    pub use lfmalloc::{ClassStats, Event, EventKind, StatsSnapshot};
    #[cfg(feature = "forensics")]
    pub use lfmalloc::{
        analyze_dump, diff_dumps, AnalyzeReport, DiffReport, FlightOp, OpKind, PtrKind,
        PtrReport,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn all_four_allocators_share_one_interface() {
        let allocs: Vec<Box<dyn RawMalloc + Send + Sync>> = vec![
            Box::new(LfMalloc::new_default()),
            Box::new(Hoard::new(2)),
            Box::new(Ptmalloc::new()),
            Box::new(LockedHeap::new()),
        ];
        for a in &allocs {
            unsafe {
                let p = a.malloc(100);
                assert!(!p.is_null(), "{}", a.name());
                a.free(p);
            }
        }
    }
}
