//! Hazard pointers: safe memory reclamation and ABA prevention for
//! lock-free data structures.
//!
//! This is an implementation of Michael's hazard-pointer methodology
//! (PODC 2002 / IEEE TPDS 2004), which the PLDI 2004 allocator paper uses
//! for its descriptor free list ("SafeCAS", §3.2.5) and for the
//! Michael–Scott FIFO queues backing the size-class partial lists
//! (§3.2.6).
//!
//! # How it works
//!
//! Each participating thread owns a *record* holding a small, fixed
//! number of single-writer/multi-reader *hazard slots*. Before a thread
//! dereferences a shared node it publishes the node's address in one of
//! its slots and re-validates the source pointer; from that point until
//! the slot is cleared, no other thread may reuse or free that node.
//! Removed nodes are *retired* rather than freed; each thread's retired
//! set is periodically *scanned* against all published hazards, and only
//! nodes not protected by any hazard are handed to their reclamation
//! function.
//!
//! Reclamation here is a caller-supplied function pointer plus context
//! (not a closure), so reclaiming can mean "push back onto the
//! allocator's descriptor free list" — which is exactly how the PLDI 2004
//! allocator recycles descriptors without ABA.
//!
//! # Allocator-reentrancy discipline
//!
//! This crate is used *inside* a memory allocator that may be installed
//! as the Rust global allocator, so none of its internal bookkeeping may
//! allocate through the global allocator. All internal storage comes
//! from [`sysvec::SysVec`], which calls `std::alloc::System` directly.
//!
//! # Example
//!
//! ```
//! use hazard::{HazardDomain, Slot};
//! use std::sync::atomic::{AtomicPtr, Ordering};
//!
//! let domain = HazardDomain::new();
//! let node = Box::into_raw(Box::new(42u64));
//! let shared = AtomicPtr::new(node);
//!
//! // Reader: protect before dereferencing.
//! let p = domain.protect(Slot(0), &shared);
//! assert_eq!(unsafe { *p }, 42);
//! domain.clear(Slot(0));
//!
//! // Remover: detach, then retire with a reclamation function.
//! let detached = shared.swap(std::ptr::null_mut(), Ordering::AcqRel);
//! unsafe fn reclaim(_ctx: *mut u8, p: *mut u8) {
//!     drop(unsafe { Box::from_raw(p as *mut u64) });
//! }
//! unsafe { domain.retire(detached as *mut u8, std::ptr::null_mut(), reclaim) };
//! drop(domain); // flushes all retired nodes
//! ```

pub mod record;
pub mod sysvec;

/// Failpoint shim (see `lockfree_structs::fp`): reaches the registry in
/// `malloc-api` only under the `failpoints` feature; otherwise a no-op
/// the optimizer removes. Hazard sites only honour yield/delay — retire
/// and scan have no point at which abandoning is legal without breaking
/// the reclamation bound.
#[cfg(feature = "failpoints")]
#[inline]
fn fp(name: &'static str) {
    let _ = malloc_api::failpoints::hit(name);
}

#[cfg(not(feature = "failpoints"))]
#[inline(always)]
fn fp(_name: &'static str) {}

/// Reclamation telemetry, one set per [`HazardDomain`] (`stats` feature
/// only): how often the retired set is scanned, how much each scan
/// frees, and how deep any thread's retired queue has ever grown.
#[cfg(feature = "stats")]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HazardStats {
    /// Hazard-slot scans performed (threshold-triggered and explicit).
    pub scans: u64,
    /// Retired nodes handed to their reclamation function, cumulatively.
    pub reclaimed: u64,
    /// High-water mark of any single record's retired-queue depth.
    pub retired_high_water: u64,
    /// Histogram of nodes freed per scan (power-of-two buckets:
    /// 0, 1, 2–3, 4–7, ..., 64+).
    pub frees_per_scan: [u64; malloc_api::telemetry::RETRY_BUCKETS],
}

/// The live counters behind [`HazardStats`].
#[cfg(feature = "stats")]
#[derive(Debug, Default)]
struct DomainStats {
    scans: malloc_api::telemetry::Counter,
    reclaimed: malloc_api::telemetry::Counter,
    retired_hwm: malloc_api::telemetry::MaxGauge,
    frees_per_scan:
        malloc_api::telemetry::Histogram<{ malloc_api::telemetry::RETRY_BUCKETS }>,
}

use core::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use record::Record;
use sysvec::SysVec;

/// Number of hazard slots per thread record.
///
/// The allocator needs one slot (descriptor free-list pop); the
/// Michael–Scott queue needs three live at once (head, tail, next). Four
/// leaves one spare for composed structures.
pub const SLOTS_PER_RECORD: usize = 4;

/// Retire this many nodes between scans of the hazard slots.
///
/// Must comfortably exceed the expected number of published hazards so
/// each scan reclaims a constant fraction of the retired set (amortized
/// O(1) per retire).
pub const SCAN_THRESHOLD: usize = 64;

/// Index of a hazard slot within the calling thread's record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Slot(pub usize);

/// A node awaiting reclamation: address + context + reclamation function.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Retired {
    pub ptr: *mut u8,
    pub ctx: *mut u8,
    pub reclaim: unsafe fn(*mut u8, *mut u8),
}

// Retired nodes move between threads only inside the domain's records,
// which serialize ownership; the raw pointers are inert data here.
unsafe impl Send for Retired {}

static NEXT_DOMAIN_ID: AtomicU64 = AtomicU64::new(1);

/// A reclamation domain: one set of hazard slots plus retired lists.
///
/// Distinct lock-free structures may share a domain (slots are
/// per-thread, not per-structure) as long as they never need more than
/// [`SLOTS_PER_RECORD`] simultaneous protections per thread.
///
/// Dropping the domain reclaims every retired node unconditionally — by
/// then no thread may hold references into the protected structures
/// (enforced by the usual `&self` borrow discipline of the owner).
#[derive(Debug)]
pub struct HazardDomain {
    /// Unique id used to validate thread-local record caches across
    /// domain creation/destruction cycles.
    id: u64,
    /// Head of the append-only list of records (never shrinks until drop).
    head: AtomicPtr<Record>,
    /// Nodes intentionally leaked because the retired list could not
    /// grow *and* the node was still hazard-protected (see `retire`).
    /// Bounded by memory-pressure incidents, not by workload size.
    leaked: AtomicUsize,
    /// Reclamation telemetry (`stats` feature only).
    #[cfg(feature = "stats")]
    stats: DomainStats,
}

unsafe impl Send for HazardDomain {}
unsafe impl Sync for HazardDomain {}

impl Default for HazardDomain {
    fn default() -> Self {
        Self::new()
    }
}

impl HazardDomain {
    /// Creates an empty domain.
    pub fn new() -> Self {
        HazardDomain {
            id: NEXT_DOMAIN_ID.fetch_add(1, Ordering::Relaxed),
            head: AtomicPtr::new(core::ptr::null_mut()),
            leaked: AtomicUsize::new(0),
            #[cfg(feature = "stats")]
            stats: DomainStats::default(),
        }
    }

    /// Snapshot of this domain's reclamation telemetry.
    #[cfg(feature = "stats")]
    pub fn stats(&self) -> HazardStats {
        HazardStats {
            scans: self.stats.scans.get(),
            reclaimed: self.stats.reclaimed.get(),
            retired_high_water: self.stats.retired_hwm.get(),
            frees_per_scan: self.stats.frees_per_scan.snapshot(),
        }
    }

    /// Publishes `src`'s current value in slot `slot` and returns it once
    /// the publication is guaranteed visible before any re-read of `src`.
    ///
    /// Loops until the value read from `src` is stable across the
    /// publication (the standard hazard-pointer validation handshake).
    /// The returned pointer (if non-null) is safe to dereference until
    /// [`clear`](Self::clear) or a subsequent `protect`/[`set`](Self::set)
    /// on the same slot.
    pub fn protect<T>(&self, slot: Slot, src: &AtomicPtr<T>) -> *mut T {
        self.with_record(|rec| {
            let mut p = src.load(Ordering::Acquire);
            loop {
                rec.hazards[slot.0].store(p as *mut u8, Ordering::SeqCst);
                let q = src.load(Ordering::Acquire);
                if q == p {
                    return p;
                }
                p = q;
            }
        })
    }

    /// Publishes an already-loaded pointer in slot `slot` *without*
    /// validation. The caller must re-validate the source afterwards
    /// (used by algorithms that validate with a tag or a second load).
    pub fn set<T>(&self, slot: Slot, ptr: *mut T) {
        self.with_record(|rec| rec.hazards[slot.0].store(ptr as *mut u8, Ordering::SeqCst));
    }

    /// Clears slot `slot`, allowing the previously protected node to be
    /// reclaimed by future scans.
    pub fn clear(&self, slot: Slot) {
        self.with_record(|rec| {
            rec.hazards[slot.0].store(core::ptr::null_mut(), Ordering::Release)
        });
    }

    /// Clears every slot of the calling thread's record.
    pub fn clear_all(&self) {
        self.with_record(|rec| {
            for h in &rec.hazards {
                h.store(core::ptr::null_mut(), Ordering::Release);
            }
        });
    }

    /// Hands a detached node to the domain for deferred reclamation.
    ///
    /// `reclaim(ctx, ptr)` runs once no hazard slot holds `ptr`; it may
    /// free the node or recycle it (e.g. push it back on a free list —
    /// the PLDI 2004 descriptor pattern).
    ///
    /// # Safety
    ///
    /// * `ptr` must have been removed from every shared structure in this
    ///   domain, so no *new* protections of it can be created.
    /// * `reclaim` must be safe to call with (`ctx`, `ptr`) at any later
    ///   time on any thread, including during domain drop.
    /// Additionally, `retire` never aborts: if the retired list cannot
    /// grow (system allocator exhausted), the node is either reclaimed
    /// inline — legal exactly when no hazard slot holds it, the same
    /// condition `scan` checks after the node is already detached — or,
    /// if still protected, intentionally leaked and counted in
    /// [`leaked_count`](Self::leaked_count).
    pub unsafe fn retire(&self, ptr: *mut u8, ctx: *mut u8, reclaim: unsafe fn(*mut u8, *mut u8)) {
        fp("hazard.retire");
        self.with_record(|rec| {
            let node = Retired { ptr, ctx, reclaim };
            match rec.push_retired(node) {
                Some(len) => {
                    #[cfg(feature = "stats")]
                    self.stats.retired_hwm.observe(len as u64);
                    if len >= SCAN_THRESHOLD {
                        self.scan(rec);
                    }
                }
                None => {
                    // The retired list is full and cannot grow. Shed
                    // unprotected nodes, then retry once.
                    self.scan(rec);
                    if rec.push_retired(node).is_none() {
                        if self.is_protected(ptr) {
                            self.leaked.fetch_add(1, Ordering::Relaxed);
                        } else {
                            unsafe { (reclaim)(ctx, ptr) };
                        }
                    }
                }
            }
        });
    }

    /// Attempts to reclaim the calling thread's retired nodes now.
    ///
    /// Nodes still protected by some hazard stay retired.
    pub fn flush(&self) {
        self.with_record(|rec| {
            self.scan(rec);
        });
    }

    /// Scans *every* record's retired list, not just the calling
    /// thread's. Nodes still protected by some hazard stay retired.
    ///
    /// # Safety
    ///
    /// Requires quiescence: no other thread may be inside any operation
    /// on this domain (retired lists are single-owner; this walks all of
    /// them). Intended for trim/teardown-style maintenance.
    pub unsafe fn flush_all(&self) {
        let mut p = self.head.load(Ordering::Acquire);
        while !p.is_null() {
            let rec = unsafe { &*p };
            self.scan(rec);
            p = rec.next;
        }
    }

    /// Adopts each inactive record in turn — via the same `active`
    /// try-lock that hands records to new threads — scans its retired
    /// list, and releases it again. This drains nodes orphaned by exited
    /// threads *without* requiring quiescence: while adopted, the record
    /// has exactly one owner (the caller), which is all `scan` needs, and
    /// an inactive record's hazard slots are already null (cleared by the
    /// previous owner's `deactivate`). Records owned by live threads are
    /// skipped; their owners scan for themselves. Safe to call
    /// concurrently with every other domain operation. Returns the number
    /// of nodes reclaimed.
    pub fn reap_inactive(&self) -> usize {
        let mut reclaimed = 0usize;
        let mut p = self.head.load(Ordering::Acquire);
        while !p.is_null() {
            let rec = unsafe { &*p };
            if rec.try_adopt() {
                let before = rec.retired_len();
                self.scan(rec);
                reclaimed += before.saturating_sub(rec.retired_len());
                unsafe { rec.deactivate() };
            }
            p = rec.next;
        }
        reclaimed
    }

    /// Re-stamps the calling thread's cached record with the current
    /// process generation. The forking thread must call this in the
    /// child — while still single-threaded, before [`adopt_orphans`]
    /// runs — so the orphan claimer never mistakes the one surviving
    /// thread's record for a dead parent thread's.
    ///
    /// [`adopt_orphans`]: Self::adopt_orphans
    pub fn restamp_current_thread(&self) {
        record::restamp_cached(self);
    }

    /// Claims every record stamped with an older process generation —
    /// records owned by parent threads that do not exist in this forked
    /// child — drains their retired lists, and releases them for normal
    /// adoption. Returns the number of records claimed.
    ///
    /// The claim token is a CAS on the record's generation stamp, so
    /// concurrent recovery passes partition the orphans cleanly. A
    /// stale-stamped record that is still `active` necessarily belongs
    /// to a dead thread (live threads only ever own current-stamped
    /// records: fresh records are stamped at creation, adoption skips
    /// stale stamps, and the forking thread re-stamps its own record via
    /// [`restamp_current_thread`](Self::restamp_current_thread) before
    /// this runs), so its hazard slots are force-cleared: the dead owner
    /// can never publish again, and whatever it was protecting died with
    /// it mid-operation — exactly the thread-kill case hazard pointers
    /// already tolerate.
    pub fn adopt_orphans(&self) -> usize {
        let cur = malloc_api::procfork::generation();
        let mut claimed = 0usize;
        let mut p = self.head.load(Ordering::Acquire);
        while !p.is_null() {
            let rec = unsafe { &*p };
            let g = rec.generation();
            if g != cur && rec.claim_generation(g, cur) {
                claimed += 1;
                if !rec.try_adopt() {
                    // Active across the fork: the owner died holding it.
                    unsafe { rec.clear_dead_hazards() };
                }
                self.scan(rec);
                unsafe { rec.deactivate() };
            }
            p = rec.next;
        }
        claimed
    }

    /// Nodes abandoned (leaked) because memory pressure prevented both
    /// retiring and inline reclamation. Always safe, ideally zero.
    pub fn leaked_count(&self) -> usize {
        self.leaked.load(Ordering::Relaxed)
    }

    /// True if any record's hazard slot currently publishes `ptr`.
    fn is_protected(&self, ptr: *mut u8) -> bool {
        let mut p = self.head.load(Ordering::Acquire);
        while !p.is_null() {
            let rec = unsafe { &*p };
            if rec.hazards.iter().any(|h| h.load(Ordering::SeqCst) == ptr) {
                return true;
            }
            p = rec.next;
        }
        false
    }

    /// Number of records ever created in this domain (diagnostics).
    pub fn record_count(&self) -> usize {
        let mut n = 0;
        let mut p = self.head.load(Ordering::Acquire);
        while !p.is_null() {
            n += 1;
            p = unsafe { (*p).next };
        }
        n
    }

    /// Total retired-but-unreclaimed nodes across all records
    /// (diagnostics; racy snapshot).
    pub fn retired_count(&self) -> usize {
        let mut n = 0;
        let mut p = self.head.load(Ordering::Acquire);
        while !p.is_null() {
            n += unsafe { (*p).retired_len() };
            p = unsafe { (*p).next };
        }
        n
    }

    /// Runs `f` with the calling thread's record, acquiring one (from the
    /// thread-local cache, an inactive record, or a fresh allocation) as
    /// needed. Falls back to a transient acquire/release pair when the
    /// thread-local key is unavailable (thread teardown).
    fn with_record<R>(&self, f: impl FnOnce(&Record) -> R) -> R {
        if let Some(rec) = record::cached_record(self) {
            return f(unsafe { &*rec });
        }
        // TLS unavailable (e.g. global allocator called during thread
        // destruction): acquire a record just for this operation.
        let rec = record::acquire_record(self);
        let out = f(unsafe { &*rec });
        unsafe { (*rec).deactivate() };
        out
    }

    /// Partitions `rec`'s retired list against the union of all hazard
    /// slots; reclaims the unprotected ones. Returns `false` if the scan
    /// had to abort because its own bookkeeping could not allocate (the
    /// retired list is then left intact — reclaiming against an
    /// incomplete hazard snapshot would be unsound).
    fn scan(&self, rec: &Record) -> bool {
        fp("hazard.scan");
        // Stage 1: snapshot all published hazards.
        let mut hazards: SysVec<usize> = SysVec::new();
        let mut p = self.head.load(Ordering::Acquire);
        while !p.is_null() {
            let r = unsafe { &*p };
            for h in &r.hazards {
                let v = h.load(Ordering::SeqCst) as usize;
                if v != 0 && !hazards.try_push(v) {
                    return false;
                }
            }
            p = r.next;
        }
        hazards.sort_unstable();
        // Stage 2: reclaim retired nodes not in the hazard snapshot.
        let mut retired = rec.take_retired();
        let mut kept: SysVec<Retired> = SysVec::new();
        let mut _freed: u64 = 0;
        while let Some(node) = retired.pop() {
            if hazards.binary_search(&(node.ptr as usize)) {
                if !kept.try_push(node) {
                    // Can't track it separately; stop scanning. The node
                    // goes straight back into `retired`, whose capacity
                    // it just vacated.
                    let ok = retired.try_push(node);
                    debug_assert!(ok, "pop retains capacity");
                    break;
                }
            } else {
                unsafe { (node.reclaim)(node.ctx, node.ptr) };
                _freed += 1;
            }
        }
        #[cfg(feature = "stats")]
        {
            self.stats.scans.inc();
            self.stats.reclaimed.add(_freed);
            self.stats.frees_per_scan.record(_freed);
        }
        // Merge survivors back. Every kept node came out of `retired`,
        // so its buffer has room for all of them.
        while let Some(node) = kept.pop() {
            let ok = retired.try_push(node);
            debug_assert!(ok, "pop retains capacity");
        }
        rec.put_retired(retired);
        true
    }

    pub(crate) fn domain_id(&self) -> u64 {
        self.id
    }

    pub(crate) fn record_head(&self) -> &AtomicPtr<Record> {
        &self.head
    }
}

impl Drop for HazardDomain {
    fn drop(&mut self) {
        // Exclusive access: no thread can be inside protect/retire now,
        // so every retired node is reclaimable. The record shells
        // themselves are intentionally leaked — thread-local caches may
        // still point at them (see `record` module docs).
        let mut p = *self.head.get_mut();
        while !p.is_null() {
            let rec = unsafe { &*p };
            let next = rec.next;
            let mut retired = rec.take_retired();
            while let Some(node) = retired.pop() {
                unsafe { (node.reclaim)(node.ctx, node.ptr) };
            }
            p = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    /// `retire`'s `ctx` for [`count_reclaim`]: the test's own counter, so
    /// tests running in parallel cannot see each other's reclamations.
    /// Declare the counter before the domain: dropping the domain
    /// reclaims into it.
    ///
    /// Tests that need a thread's record *inactive* join the scoped
    /// thread's handle themselves: a scope's own wait at its end returns
    /// once the closure has, which can be before the thread's TLS
    /// destructors (where the record is released) have run.
    fn ctx(reclaimed: &AtomicUsize) -> *mut u8 {
        reclaimed as *const AtomicUsize as *mut u8
    }

    unsafe fn count_reclaim(ctx: *mut u8, p: *mut u8) {
        unsafe { &*(ctx as *const AtomicUsize) }.fetch_add(1, Ordering::SeqCst);
        drop(unsafe { Box::from_raw(p as *mut u64) });
    }

    #[test]
    fn protect_returns_current_value() {
        let d = HazardDomain::new();
        let n = Box::into_raw(Box::new(7u64));
        let a = AtomicPtr::new(n);
        let p = d.protect(Slot(0), &a);
        assert_eq!(p, n);
        assert_eq!(unsafe { *p }, 7);
        d.clear(Slot(0));
        unsafe { drop(Box::from_raw(n)) };
    }

    #[test]
    fn protected_node_is_not_reclaimed_until_cleared() {
        let reclaimed = AtomicUsize::new(0);
        let d = HazardDomain::new();
        let n = Box::into_raw(Box::new(1u64));
        let a = AtomicPtr::new(n);
        let p = d.protect(Slot(0), &a);
        assert!(!p.is_null());

        unsafe { d.retire(n as *mut u8, ctx(&reclaimed), count_reclaim) };
        d.flush();
        // Still protected: not reclaimed.
        assert_eq!(reclaimed.load(Ordering::SeqCst), 0);

        d.clear(Slot(0));
        d.flush();
        assert_eq!(reclaimed.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn drop_reclaims_everything() {
        let reclaimed = AtomicUsize::new(0);
        let d = HazardDomain::new();
        for _ in 0..10 {
            let n = Box::into_raw(Box::new(0u64));
            unsafe { d.retire(n as *mut u8, ctx(&reclaimed), count_reclaim) };
        }
        drop(d);
        assert_eq!(reclaimed.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn scan_threshold_triggers_reclamation() {
        let reclaimed = AtomicUsize::new(0);
        let d = HazardDomain::new();
        for _ in 0..(SCAN_THRESHOLD + 8) {
            let n = Box::into_raw(Box::new(0u64));
            unsafe { d.retire(n as *mut u8, ctx(&reclaimed), count_reclaim) };
        }
        // At least one automatic scan must have fired.
        assert!(reclaimed.load(Ordering::SeqCst) > 0);
        drop(d);
    }

    #[test]
    fn records_are_reused_across_domains_per_thread() {
        let d1 = HazardDomain::new();
        d1.set(Slot(0), 0x10 as *mut u8);
        d1.clear(Slot(0));
        assert_eq!(d1.record_count(), 1);
        drop(d1);
        let d2 = HazardDomain::new();
        d2.set(Slot(0), 0x20 as *mut u8);
        d2.clear(Slot(0));
        assert_eq!(d2.record_count(), 1);
    }

    #[test]
    fn flush_all_scans_every_records_retired_list() {
        let reclaimed = AtomicUsize::new(0);
        let d = HazardDomain::new();
        // Retire below the scan threshold from two threads → two records,
        // each holding unreclaimed nodes.
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..5 {
                    let n = Box::into_raw(Box::new(0u64));
                    unsafe { d.retire(n as *mut u8, ctx(&reclaimed), count_reclaim) };
                }
            })
            .join()
            .unwrap();
        });
        for _ in 0..5 {
            let n = Box::into_raw(Box::new(0u64));
            unsafe { d.retire(n as *mut u8, ctx(&reclaimed), count_reclaim) };
        }
        // flush() only reaches the calling thread's record; flush_all
        // must drain the other thread's too.
        unsafe { d.flush_all() };
        assert_eq!(reclaimed.load(Ordering::SeqCst), 10);
        assert_eq!(d.retired_count(), 0);
        assert_eq!(d.leaked_count(), 0, "no pressure, no leaks");
    }

    #[test]
    fn reap_inactive_drains_dead_thread_records() {
        let reclaimed = AtomicUsize::new(0);
        let d = HazardDomain::new();
        // An exited thread leaves its record inactive with nodes still
        // retired (below the scan threshold, so nothing auto-drained).
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..7 {
                    let n = Box::into_raw(Box::new(0u64));
                    unsafe { d.retire(n as *mut u8, ctx(&reclaimed), count_reclaim) };
                }
            })
            .join()
            .unwrap();
        });
        assert_eq!(d.retired_count(), 7, "orphaned nodes await a reaper");
        let reaped = d.reap_inactive();
        assert_eq!(reaped, 7);
        assert_eq!(d.retired_count(), 0);
        assert_eq!(reclaimed.load(Ordering::SeqCst), 7);
    }

    #[test]
    fn reap_inactive_skips_live_owners() {
        let reclaimed = AtomicUsize::new(0);
        let d = HazardDomain::new();
        // The calling thread's own record is active (cached); nodes it
        // retired must not be double-scanned out from under it.
        let n = Box::into_raw(Box::new(5u64));
        let a = AtomicPtr::new(n);
        let p = d.protect(Slot(0), &a);
        assert!(!p.is_null());
        unsafe { d.retire(n as *mut u8, ctx(&reclaimed), count_reclaim) };
        assert_eq!(d.reap_inactive(), 0, "active record is skipped");
        assert_eq!(reclaimed.load(Ordering::SeqCst), 0);
        d.clear(Slot(0));
        d.flush();
    }

    #[test]
    fn adopt_orphans_claims_stale_inactive_record() {
        let reclaimed = AtomicUsize::new(0);
        let d = HazardDomain::new();
        // An exited thread leaves an inactive record holding retired
        // nodes; forge a stale stamp, as if the record predated a fork.
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..5 {
                    let n = Box::into_raw(Box::new(0u64));
                    unsafe { d.retire(n as *mut u8, ctx(&reclaimed), count_reclaim) };
                }
            })
            .join()
            .unwrap();
        });
        let rec = unsafe { &*d.head.load(Ordering::Acquire) };
        rec.set_generation(u64::MAX);
        assert_eq!(d.adopt_orphans(), 1);
        assert_eq!(d.retired_count(), 0);
        assert_eq!(reclaimed.load(Ordering::SeqCst), 5);
        // Drained and re-stamped: normal adoption works again.
        assert_eq!(d.adopt_orphans(), 0, "second pass finds nothing");
        let r2 = record::acquire_record(&d);
        assert_eq!(r2, rec as *const _ as *mut _, "record is adoptable again");
        unsafe { (*r2).deactivate() };
    }

    #[test]
    fn adopt_orphans_force_claims_dead_active_record() {
        unsafe fn nop(_c: *mut u8, _p: *mut u8) {}
        let d = HazardDomain::new();
        // Simulate a thread that died in a fork mid-operation: its
        // record is still active, a hazard is still published, nodes are
        // still retired, and its stamp predates the current generation.
        let rec = record::acquire_record(&d);
        unsafe {
            (*rec).hazards[0].store(0x2000 as *mut u8, Ordering::SeqCst);
            (*rec).push_retired(Retired {
                ptr: 0x1000 as *mut u8,
                ctx: core::ptr::null_mut(),
                reclaim: nop,
            });
            (*rec).set_generation(u64::MAX);
        }
        assert_eq!(d.adopt_orphans(), 1);
        let rec = unsafe { &*rec };
        assert!(rec.hazards.iter().all(|h| h.load(Ordering::SeqCst).is_null()));
        assert_eq!(rec.retired_len(), 0, "dead thread's retired list drained");
        assert!(rec.try_adopt(), "record released for reuse");
        unsafe { rec.deactivate() };
    }

    #[test]
    fn restamp_shields_survivor_record_from_orphan_claim() {
        let d = HazardDomain::new();
        // Create this thread's cached record and forge a stale stamp on
        // it (as the fork would), then restamp — the claimer must skip it.
        let n = Box::into_raw(Box::new(3u64));
        let a = AtomicPtr::new(n);
        let p = d.protect(Slot(0), &a);
        assert!(!p.is_null());
        let rec = unsafe { &*d.head.load(Ordering::Acquire) };
        rec.set_generation(u64::MAX);
        d.restamp_current_thread();
        assert_eq!(d.adopt_orphans(), 0, "survivor's record left alone");
        assert_eq!(rec.hazards[0].load(Ordering::SeqCst), n as *mut u8);
        d.clear(Slot(0));
        unsafe { drop(Box::from_raw(n)) };
    }

    #[test]
    fn stale_records_are_skipped_by_normal_adoption() {
        let d = HazardDomain::new();
        std::thread::scope(|s| {
            s.spawn(|| d.set(Slot(0), core::ptr::null_mut::<u8>())).join().unwrap();
        });
        // One inactive record exists; forge a stale stamp.
        let rec = d.head.load(Ordering::Acquire);
        unsafe { (*rec).set_generation(u64::MAX) };
        let fresh = record::acquire_record(&d);
        assert_ne!(fresh, rec, "stale record must not be adopted");
        unsafe { (*fresh).deactivate() };
    }

    #[test]
    fn concurrent_protect_retire_stress() {
        // Writers repeatedly swap in new nodes and retire the old ones;
        // readers protect and dereference. Any premature reclamation
        // shows up as a read of freed memory under tools, and as a
        // canary mismatch here.
        const ITERS: usize = 2_000;
        let d = Arc::new(HazardDomain::new());
        let shared = Arc::new(AtomicPtr::new(Box::into_raw(Box::new(0xABCDu64))));

        unsafe fn free_u64(_ctx: *mut u8, p: *mut u8) {
            drop(unsafe { Box::from_raw(p as *mut u64) });
        }

        let mut handles = Vec::new();
        for _ in 0..2 {
            let d = Arc::clone(&d);
            let shared = Arc::clone(&shared);
            handles.push(std::thread::spawn(move || {
                for i in 0..ITERS {
                    let new = Box::into_raw(Box::new(0xABCDu64 + (i as u64 % 3)));
                    let old = shared.swap(new, Ordering::AcqRel);
                    unsafe { d.retire(old as *mut u8, core::ptr::null_mut(), free_u64) };
                }
            }));
        }
        for _ in 0..2 {
            let d = Arc::clone(&d);
            let shared = Arc::clone(&shared);
            handles.push(std::thread::spawn(move || {
                for _ in 0..ITERS {
                    let p = d.protect(Slot(1), &shared);
                    if !p.is_null() {
                        let v = unsafe { *p };
                        assert!((0xABCD..=0xABCF).contains(&v), "read {v:#x} from freed node");
                    }
                    d.clear(Slot(1));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let last = shared.load(Ordering::Acquire);
        unsafe { drop(Box::from_raw(last)) };
    }
}
