//! The observation seam: the one place the core reports to, and the only
//! file outside the observability modules (`stats`, `metrics`, `profile`,
//! `forensics`, `heapdump`) and `lib.rs`'s module list that names their
//! cargo features (DESIGN.md §9; CI greps the core files for them).
//!
//! The hot files say *what happened*, in [`crate::schema`]'s vocabulary,
//! and nothing about who listens:
//!
//! * a [`Count`] — which per-class path served this operation ([`count`];
//!   [`count_push`] picks local or remote for a pushed free) — or a
//!   [`Global`], one of the instance-wide counters ([`count_global`]);
//! * a [`Site`] — one [`Retries`] tally per CAS loop: `lost()` feeds the
//!   liveness watchdog, in every build; `done()` the retry histograms;
//! * a [`Timer`], stopped into the latency histogram a [`Lat`] names, and
//!   an [`EventKind`] for the slow-path ring ([`event`]);
//! * [`on_alloc`] / [`on_free`] at the public entry points (profiler,
//!   flight recorder), [`on_maintain`], [`failstop`].
//!
//! Without `stats` every body below is empty but for that watchdog call,
//! [`State`] and `Timer` are zero-sized, and a call compiles to nothing —
//! its arguments are evaluated all the same, so a call site passes what it
//! already holds and never loads for the seam's sake. `profile` and
//! `forensics` (both imply `stats`) add only to `on_alloc`, `on_free`,
//! `failstop` and the instance's lifecycle.
#![allow(unused_variables)] // each feature reads its own subset of a hook's arguments

use crate::config::Config;
use crate::descriptor::Descriptor;
pub(crate) use crate::health::WatchSite as Site;
use crate::heap::ProcHeap;
use crate::instance::Inner;
pub(crate) use crate::schema::{Count, EventKind, Global, Lat};
use osmem::PageSource;

/// What the instrumented builds keep per instance: telemetry shards and
/// rings, the profiler's sample table, the flight recorder. Zero-sized in
/// the default build.
pub(crate) struct State {
    #[cfg(feature = "stats")]
    pub stats: crate::stats::InstanceStats,
    #[cfg(feature = "profile")]
    pub profile: crate::profile::ProfileState,
    #[cfg(feature = "forensics")]
    pub forensics: crate::forensics::ForensicsState,
}

impl State {
    /// For an instance of `nshards` processor heaps; `None` when the
    /// system allocator cannot supply a table.
    pub(crate) fn new(config: &Config, nshards: usize) -> Option<State> {
        Some(State {
            #[cfg(feature = "stats")]
            stats: crate::stats::InstanceStats::new(nshards)?,
            #[cfg(feature = "profile")]
            profile: crate::profile::ProfileState::new(config.profile)?,
            #[cfg(feature = "forensics")]
            forensics: crate::forensics::ForensicsState::new()?,
        })
    }
}

/// Teardown is about to start: after it a signal must not walk this
/// instance's memory, and the scrape thread that borrows it is joined.
pub(crate) fn detach<S: PageSource>(inner: &Inner<S>) {
    #[cfg(feature = "forensics")]
    crate::forensics::unregister_crash_sink(inner);
    #[cfg(feature = "stats")]
    crate::metrics::stop_metrics_inner(inner);
}

/// One operation of `heap`'s class went down path `c`.
#[inline(always)]
pub(crate) fn count<S: PageSource>(inner: &Inner<S>, heap: &ProcHeap, c: Count) {
    #[cfg(feature = "stats")]
    inner.shard(heap).counts[c as usize].inc();
}

/// One application-level free is about to be pushed onto `desc`'s
/// superblock, which the block still pins: local or remote by whether the
/// calling thread maps to the owning heap.
///
/// # Safety
///
/// `desc` must be a live descriptor of `inner`.
#[inline(always)]
pub(crate) unsafe fn count_push<S: PageSource>(inner: &Inner<S>, desc: *const Descriptor) {
    // `cfg!`, not `#[cfg]`: every build names the three variants below.
    if cfg!(feature = "stats") {
        let owner = unsafe { &*(*desc).heap() };
        if crate::heap::try_thread_id().is_none() {
            // TLS teardown: the thread's identity is being retired, so
            // "local vs remote" is undecidable. Deliberately a *remote*
            // free (the paper's slow-path accounting), not heap 0's local
            // path, and counted apart so teardown traffic is visible.
            count(inner, owner, Count::FreeTeardown);
            count(inner, owner, Count::FreeRemote);
        } else if core::ptr::eq(inner.heap_for(owner.class()), owner) {
            count(inner, owner, Count::FreeLocal);
        } else {
            count(inner, owner, Count::FreeRemote);
        }
    }
}

#[inline(always)]
pub(crate) fn count_global<S: PageSource>(inner: &Inner<S>, g: Global) {
    #[cfg(feature = "stats")]
    inner.obs.stats.globals[g as usize].inc();
}

/// Failed attempts of one CAS loop at one [`Site`], forced-retry failpoint
/// turns included: a seeded storm is indistinguishable from a real one.
pub(crate) struct Retries {
    site: Site,
    n: u64,
}

impl Retries {
    pub(crate) fn at(site: Site) -> Retries {
        Retries { site, n: 0 }
    }

    /// A turn of the loop was lost: one more for [`crate::health::watch`]
    /// (a storm is `retry_ceiling` of these on one operation).
    #[inline(always)]
    pub(crate) fn lost<S: PageSource>(&mut self, inner: &Inner<S>, heap: &ProcHeap) {
        self.n += 1;
        crate::health::watch(inner, heap, self.site, self.n);
    }

    /// The loop is over: the tally goes into the histogram its site
    /// implies — the Active word's for the reservation CAS, the anchor's
    /// for the rest. (`heap_get_partial`'s slot exchange never calls this.)
    #[inline(always)]
    pub(crate) fn done<S: PageSource>(self, inner: &Inner<S>, heap: &ProcHeap) {
        #[cfg(feature = "stats")]
        match self.site {
            Site::ActiveReserve => inner.shard(heap).active_cas.record(self.n),
            _ => inner.shard(heap).anchor_cas.record(self.n),
        }
    }
}

/// The clock at the top of an operation; nothing, unread, without `stats`.
pub(crate) struct Timer {
    #[cfg(feature = "stats")]
    t0: u64,
}

impl Timer {
    #[inline(always)]
    pub(crate) fn start() -> Timer {
        Timer {
            #[cfg(feature = "stats")]
            t0: malloc_api::telemetry::monotonic_nanos(),
        }
    }

    /// Records the time since `start` under `path`.
    #[inline(always)]
    pub(crate) fn stop<S: PageSource>(&self, inner: &Inner<S>, path: Lat) {
        #[cfg(feature = "stats")]
        inner.obs.stats.lat[path as usize].record_since(self.t0);
    }
}

/// Records a timestamped slow-path event.
#[inline(always)]
pub(crate) fn event<S: PageSource>(inner: &Inner<S>, kind: EventKind, class: usize, arg: u64) {
    #[cfg(feature = "stats")]
    inner.obs.stats.record_event(kind, class as u16, arg);
}

/// The epilogue of the allocating entry points: `p` (null on failure) is
/// what `size` bytes of `class` (`None`: large) got. Under `profile` they
/// are `#[track_caller]` and so is this: the location is the application's.
#[inline(always)]
#[cfg_attr(feature = "profile", track_caller)]
pub(crate) fn on_alloc<S: PageSource>(
    inner: &Inner<S>,
    class: Option<usize>,
    p: *mut u8,
    size: usize,
) {
    #[cfg(feature = "profile")]
    if !p.is_null() {
        crate::profile::tick(inner, p, size, core::panic::Location::caller());
    }
    #[cfg(feature = "forensics")]
    {
        use crate::forensics::{record, OpKind, CLASS_LARGE};
        let op = if p.is_null() {
            OpKind::AllocFailed
        } else {
            OpKind::Alloc
        };
        record(
            inner,
            op,
            class.map_or(CLASS_LARGE, |ci| ci as u16),
            p as usize,
        );
    }
}

/// A non-null `free(ptr)` is about to be dispatched. Before, so that the
/// live sample is unwound on every free path (hardened, large, TLS
/// teardown — removal needs no thread identity) and a misuse free, which
/// the hardened path rejects, still lands in the flight recorder.
#[inline(always)]
pub(crate) fn on_free<S: PageSource>(inner: &Inner<S>, ptr: *mut u8) {
    #[cfg(feature = "profile")]
    crate::profile::untick(inner, ptr);
    #[cfg(feature = "forensics")]
    crate::forensics::record_free(inner, ptr);
}

/// A maintenance pass that acted on `acted` objects is over: its event,
/// its duration, and one (allocation-free) point of the fragmentation series.
pub(crate) fn on_maintain<S: PageSource>(inner: &Inner<S>, t0: Timer, acted: u64) {
    event(inner, EventKind::Maintain, 0, acted);
    t0.stop(inner, Lat::Maintain);
    #[cfg(feature = "stats")]
    crate::stats::record_frag_sample(inner);
}

/// A fail-stop (`why`: hardened abort, watchdog abort) is about to panic:
/// the black-box report, with `ptr`'s classification, is flushed first.
pub(crate) fn failstop<S: PageSource>(inner: &Inner<S>, why: &str, ptr: usize) {
    #[cfg(feature = "forensics")]
    crate::forensics::failstop_report(inner, why, ptr);
}
