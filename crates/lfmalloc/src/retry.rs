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
pub(crate) fn from_source<S: PageSource>(
    inner: &Inner<S>,
    mut attempt: impl FnMut() -> *mut u8,
) -> *mut u8 {
    let mut relieved = false;
    with_backoff(OOM_RETRIES, || {
        let p = attempt();
        if p.is_null() {
            crate::observe::count_global(inner, crate::observe::Global::OomBackoffs);
            if !relieved {
                relieved = true;
                crate::large::relieve(inner);
            }
        }
        p
    })
}

/// Runs `attempt` until it returns non-null, at most `1 + retries`
/// times, with exponential backoff plus a scheduler yield between
/// attempts. Returns the first non-null result, or null once the budget
/// is exhausted.
fn with_backoff(retries: u32, mut attempt: impl FnMut() -> *mut u8) -> *mut u8 {
    let first = attempt();
    if !first.is_null() {
        return first;
    }
    let mut backoff = Backoff::new();
    for _ in 0..retries {
        backoff.spin();
        // The backoff spin saturates quickly (MAX_SHIFT); the yield is
        // what actually gives a recovering OS room to make progress.
        std::thread::yield_now();
        let p = attempt();
        if !p.is_null() {
            return p;
        }
    }
    core::ptr::null_mut()
}

#[cfg(test)]
mod tests {
    use super::*;
    use core::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn first_success_needs_no_backoff() {
        let calls = AtomicU32::new(0);
        let p = with_backoff(8, || {
            calls.fetch_add(1, Ordering::Relaxed);
            0x1000 as *mut u8
        });
        assert_eq!(p, 0x1000 as *mut u8);
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn recovers_within_budget() {
        let calls = AtomicU32::new(0);
        let p = with_backoff(8, || {
            if calls.fetch_add(1, Ordering::Relaxed) < 4 {
                core::ptr::null_mut()
            } else {
                0x2000 as *mut u8
            }
        });
        assert_eq!(p, 0x2000 as *mut u8);
        assert_eq!(calls.load(Ordering::Relaxed), 5, "stops at first success");
    }

    #[test]
    fn exhausted_budget_returns_null() {
        let calls = AtomicU32::new(0);
        let p = with_backoff(3, || {
            calls.fetch_add(1, Ordering::Relaxed);
            core::ptr::null_mut()
        });
        assert!(p.is_null());
        assert_eq!(calls.load(Ordering::Relaxed), 4, "1 attempt + 3 retries");
    }

    #[test]
    fn zero_retries_is_single_attempt() {
        let calls = AtomicU32::new(0);
        let p = with_backoff(0, || {
            calls.fetch_add(1, Ordering::Relaxed);
            core::ptr::null_mut()
        });
        assert!(p.is_null());
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }
}
