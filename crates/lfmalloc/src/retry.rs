//! Bounded retry with exponential backoff for transient page-source
//! failure.
//!
//! The paper assumes `mmap` either succeeds or the process is out of
//! memory, but a real OS (and PR 1's `FlakySource` outage plans) can
//! fail transiently — the kernel is reclaiming, a cgroup limit is
//! momentarily hit, an injected outage is in flight. Treating the first
//! null as OOM turns every such blip into a spurious allocation
//! failure. Instead, the three paths that ask the source for memory
//! (superblock carve, descriptor-slab carve, large allocation) go
//! through [`from_source`]: up to [`OOM_RETRIES`] further attempts,
//! spinning an exponential [`Backoff`] and yielding the thread
//! in between so a recovering source gets time to recover. Before the
//! first of them the free-span cache ([`crate::large`]) is emptied into
//! the source — its shared words and the calling thread's own; other
//! threads' words are theirs: memory the allocator is only sitting on is
//! the first thing to give back.
//!
//! A success is the first attempt, inlined into the caller; everything
//! after a null is one cold call ([`after_null`]).
//!
//! Lock-freedom is unaffected: the retry count is a hard bound, so every
//! call still completes in a finite number of steps; after the budget is
//! spent the failure propagates as a null return (never a panic).

use crate::instance::Inner;
use lockfree_structs::Backoff;
use osmem::PageSource;

/// Attempts after the first null before a source failure becomes an OOM:
/// enough that a brief OS outage (a handful of failed `mmap`s while the
/// kernel reclaims) is ridden out by backoff instead of surfacing as a
/// spurious null.
pub(crate) const OOM_RETRIES: u32 = 8;

/// Runs one request against the page source (directly or through a
/// pool) under the retry budget, counting each null; the
/// first null also drains the large-span cache into the source
/// ([`crate::large::relieve`]).
#[inline(always)]
pub(crate) fn from_source<S: PageSource>(
    inner: &Inner<S>,
    mut attempt: impl FnMut() -> *mut u8,
) -> *mut u8 {
    let p = attempt();
    if !p.is_null() {
        return p;
    }
    after_null(inner, attempt)
}

/// [`from_source`] after its first attempt came back null: count it, give
/// back what the span cache holds, then [`OOM_RETRIES`] more attempts with
/// exponential backoff plus a scheduler yield before each.
#[cold]
#[inline(never)]
fn after_null<S: PageSource>(inner: &Inner<S>, mut attempt: impl FnMut() -> *mut u8) -> *mut u8 {
    let oom = || crate::observe::count_global(inner, crate::observe::Global::OomBackoffs);
    oom();
    crate::large::relieve(inner);
    let mut backoff = Backoff::new();
    for _ in 0..OOM_RETRIES {
        backoff.spin();
        // The backoff spin saturates quickly (MAX_SHIFT); the yield is
        // what actually gives a recovering OS room to make progress.
        std::thread::yield_now();
        let p = attempt();
        if !p.is_null() {
            return p;
        }
        oom();
    }
    core::ptr::null_mut()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LfMalloc;
    use core::sync::atomic::{AtomicU32, Ordering};

    /// `from_source` on a fresh instance with an attempt that fails its
    /// first `fails` calls; the result and the number of calls.
    fn run(fails: u32) -> (*mut u8, u32) {
        let a = LfMalloc::new_default();
        let calls = AtomicU32::new(0);
        let p = from_source(a.inner(), || {
            if calls.fetch_add(1, Ordering::Relaxed) < fails {
                core::ptr::null_mut()
            } else {
                0x1000 as *mut u8
            }
        });
        (p, calls.load(Ordering::Relaxed))
    }

    #[test]
    fn first_success_needs_no_backoff() {
        assert_eq!(run(0), (0x1000 as *mut u8, 1));
    }

    #[test]
    fn recovers_within_budget() {
        assert_eq!(run(4), (0x1000 as *mut u8, 5), "stops at first success");
        assert_eq!(run(OOM_RETRIES), (0x1000 as *mut u8, 1 + OOM_RETRIES), "the last retry counts");
    }

    #[test]
    fn exhausted_budget_returns_null() {
        assert_eq!(run(u32::MAX), (core::ptr::null_mut(), 1 + OOM_RETRIES), "1 attempt + the retries");
    }
}
