//! Hardened deallocation: provenance-checked free, double-free and
//! use-after-free defense.
//!
//! The paper's free path trusts its caller completely: whatever
//! descriptor the pointer leads it to, it CASes the anchor it finds
//! there. A single invalid or double free therefore corrupts the heap
//! silently. This module adds an opt-in validated
//! free path ([`Config::hardening`](crate::config::Config) ≠
//! [`Hardening::Off`]) that keeps the allocator's lock-freedom while
//! detecting the four classic misuse classes:
//!
//! * **Invalid free** — the pointer was never produced by this instance
//!   (foreign allocator, interior pointer, stack/unmapped address).
//!   Established *before any dereference* by asking the large-span
//!   registry and the frame map — words the allocator wrote itself —
//!   what lives at the address.
//! * **Double free** — arbitrated by a per-block allocation bitmap in
//!   the descriptor ([`Descriptor::clear_alloc_bit`]): concurrent
//!   double frees race on one `fetch_and` and exactly one loses, so the
//!   anchor is never pushed twice.
//! * **Use-after-free write** — freed small blocks are filled with
//!   [`POISON`] and parked in a bounded per-heap [`Quarantine`] ring;
//!   on the way back into circulation every byte is re-verified.
//! * **Guard overrun** — large blocks get guard pages appended (see
//!   [`crate::large`]); the canary page is verified on free and the
//!   `PROT_NONE` page traps wild writes at the instant they happen.
//!
//! Every detection produces a [`MisuseReport`] counted per-instance and
//! in a process-wide sink; [`Hardening::Detect`] returns without
//! touching allocator state, [`Hardening::Abort`] panics with the
//! report.

use crate::config::{PREFIX_SIZE, SB_SIZE};
use crate::size_classes::CLASS_SIZES;
use crate::instance::Inner;
use core::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use osmem::source::PAGE_SIZE;
use osmem::PageSource;

/// Hardening level of an allocator instance (see
/// [`Config::hardening`](crate::config::Config)).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Hardening {
    /// The paper's trusting free path; no validation, no overhead.
    #[default]
    Off,
    /// Validate every free; count and report misuse, then return
    /// without corrupting allocator state.
    Detect,
    /// Validate every free; panic with the [`MisuseReport`] on the
    /// first misuse (fail-stop).
    Abort,
}

/// The misuse classes hardened mode distinguishes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MisuseKind {
    /// Freed pointer is not a live block of this instance.
    InvalidFree,
    /// Block was already free when freed again.
    DoubleFree,
    /// A quarantined (freed) block was written through a stale pointer.
    PoisonViolation,
    /// A large block's canary guard page was overwritten.
    GuardOverrun,
    /// An allocator entry point re-entered itself on the same thread —
    /// a signal handler called `malloc`/`free` while the interrupted
    /// code was already inside the allocator. The nested call is
    /// rejected (null / leaked) instead of risking a torn fast path;
    /// see the [`fork`](crate::fork) module's signal-safety contract.
    ReentrantAlloc,
}

impl MisuseKind {
    /// Every kind, in counter-array order (`ALL[k as usize] == k`).
    pub const ALL: [MisuseKind; 5] = [
        MisuseKind::InvalidFree,
        MisuseKind::DoubleFree,
        MisuseKind::PoisonViolation,
        MisuseKind::GuardOverrun,
        MisuseKind::ReentrantAlloc,
    ];

    /// The kind's key in the crash report and the heap dump.
    pub fn key(self) -> &'static str {
        match self {
            MisuseKind::InvalidFree => "invalid_free",
            MisuseKind::DoubleFree => "double_free",
            MisuseKind::PoisonViolation => "poison_violation",
            MisuseKind::GuardOverrun => "guard_overrun",
            MisuseKind::ReentrantAlloc => "reentrant_alloc",
        }
    }
}

/// Number of [`MisuseKind`] variants.
const NUM_KINDS: usize = MisuseKind::ALL.len();

/// One detected deallocation misuse.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MisuseReport {
    /// What went wrong.
    pub kind: MisuseKind,
    /// The pointer the application passed to `free`.
    pub ptr: usize,
    /// Block size of the owning size class; `None` for large blocks and
    /// pointers with no valid owner.
    pub size_class: Option<usize>,
    /// Address of the owning `ProcHeap` (0 when unknown — large blocks
    /// and foreign pointers have none).
    pub heap: usize,
    /// The freeing thread's allocator thread id.
    pub tid: usize,
}

impl core::fmt::Display for MisuseReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:?} of {:#x} (tid {})", self.kind, self.ptr, self.tid)?;
        if let Some(sz) = self.size_class {
            write!(f, " [class sz {sz}]")?;
        }
        if self.heap != 0 {
            write!(f, " [heap {:#x}]", self.heap)?;
        }
        Ok(())
    }
}

/// Lock-free misuse accounting: per-kind counts plus the most recent
/// report. One instance lives in every hardened allocator; one
/// process-wide sink ([`process_misuse_counters`]) aggregates across
/// instances.
#[derive(Debug)]
pub struct MisuseCounters {
    counts: [AtomicU64; NUM_KINDS],
    // Last-report fields are stored individually; a torn read across
    // them under contention is acceptable for diagnostics (the counts
    // are the test oracle).
    last_kind: AtomicUsize, // MisuseKind as usize + 1; 0 = none yet
    last_ptr: AtomicUsize,
    last_size_class: AtomicUsize, // value + 1; 0 = None
    last_heap: AtomicUsize,
    last_tid: AtomicUsize,
}

impl MisuseCounters {
    /// All-zero counters.
    pub const fn new() -> Self {
        MisuseCounters {
            counts: [const { AtomicU64::new(0) }; NUM_KINDS],
            last_kind: AtomicUsize::new(0),
            last_ptr: AtomicUsize::new(0),
            last_size_class: AtomicUsize::new(0),
            last_heap: AtomicUsize::new(0),
            last_tid: AtomicUsize::new(0),
        }
    }

    fn record(&self, r: &MisuseReport) {
        self.counts[r.kind as usize].fetch_add(1, Ordering::AcqRel);
        self.last_ptr.store(r.ptr, Ordering::Relaxed);
        self.last_size_class.store(r.size_class.map_or(0, |s| s + 1), Ordering::Relaxed);
        self.last_heap.store(r.heap, Ordering::Relaxed);
        self.last_tid.store(r.tid, Ordering::Relaxed);
        // Written last: a non-zero kind tells readers the other fields
        // hold at least one complete report.
        self.last_kind.store(r.kind as usize + 1, Ordering::Release);
    }

    /// Detections of `kind` so far.
    pub fn count(&self, kind: MisuseKind) -> u64 {
        self.counts[kind as usize].load(Ordering::Acquire)
    }

    /// Total detections across all kinds.
    pub fn total(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Acquire)).sum()
    }

    /// The most recent report, if any misuse was ever recorded.
    pub fn last_report(&self) -> Option<MisuseReport> {
        let k = self.last_kind.load(Ordering::Acquire);
        let kind = *MisuseKind::ALL.get(k.checked_sub(1)?)?;
        let sc = self.last_size_class.load(Ordering::Relaxed);
        Some(MisuseReport {
            kind,
            ptr: self.last_ptr.load(Ordering::Relaxed),
            size_class: sc.checked_sub(1),
            heap: self.last_heap.load(Ordering::Relaxed),
            tid: self.last_tid.load(Ordering::Relaxed),
        })
    }
}

impl Default for MisuseCounters {
    fn default() -> Self {
        Self::new()
    }
}

/// Process-wide misuse sink, aggregated across all hardened instances.
static PROCESS_COUNTERS: MisuseCounters = MisuseCounters::new();

/// The process-wide misuse sink (sums every hardened instance in the
/// process; individual instances expose their own counters through
/// [`LfMalloc::misuse_counters`](crate::LfMalloc::misuse_counters)).
pub fn process_misuse_counters() -> &'static MisuseCounters {
    &PROCESS_COUNTERS
}

/// Fill byte for freed small blocks while quarantined.
pub const POISON: u8 = 0xF5;

/// Fill byte of a large block's canary guard page.
pub const GUARD_CANARY: u8 = 0xC7;

/// Capacity of each per-heap quarantine ring. Small on purpose: the
/// quarantine delays reuse to catch dangling writes, it is not a cache,
/// and every parked block pins its superblock partially allocated.
pub const QUARANTINE_CAP: usize = 32;

/// One heap's quarantine: the newest `QUARANTINE_CAP` freed blocks, by
/// address (0 is an empty cell). A free claims a cell with a `fetch_add`
/// and swaps its block in; the block it swaps out is released. A block
/// changes hands only through a `swap`, so each is released once, and a
/// thread stopped between its `fetch_add` and its `swap` holds only its
/// own block: every other free and flush carries on.
#[derive(Debug, Default)]
pub(crate) struct Quarantine {
    cursor: AtomicUsize,
    cells: [AtomicUsize; QUARANTINE_CAP],
}

impl<S: PageSource> Inner<S> {
    /// The per-heap quarantines; none when hardening is off.
    fn quarantines(&self) -> &[Quarantine] {
        if self.quarantine.is_null() {
            return &[];
        }
        // SAFETY: a hardened instance built `nheaps` of them, for its lifetime.
        unsafe { core::slice::from_raw_parts(self.quarantine, self.nheaps) }
    }

    /// Blocks currently parked in the quarantine rings (racy snapshot;
    /// 0 when hardening is off).
    pub fn quarantine_depth(&self) -> usize {
        let cells = self.quarantines().iter().flat_map(|q| &q.cells);
        // Relaxed: a count, not a claim on the blocks.
        cells.filter(|c| c.load(Ordering::Relaxed) != 0).count()
    }
}

/// Releases up to `max` quarantined blocks back into circulation, after
/// verifying their poison, and returns how many there were. Safe beside
/// any malloc/free: each cell is emptied with a `swap`, and the release
/// is the ordinary lock-free free.
pub(crate) fn flush_quarantine<S: PageSource>(inner: &Inner<S>, max: usize) -> usize {
    let mut released = 0;
    for cell in inner.quarantines().iter().flat_map(|q| &q.cells) {
        if released == max {
            break;
        }
        // AcqRel: as in `free_hardened`; the block is ours once swapped out.
        let block = cell.swap(0, Ordering::AcqRel);
        if block != 0 {
            // SAFETY: a parked block, and the swap made it ours alone.
            unsafe { release_quarantined(inner, block) };
            released += 1;
        }
    }
    released
}

/// Records a misuse in the instance and process counters; panics in
/// [`Hardening::Abort`] mode.
pub(crate) fn report<S: PageSource>(inner: &Inner<S>, r: MisuseReport) {
    inner.misuse.record(&r);
    PROCESS_COUNTERS.record(&r);
    if inner.config.hardening == Hardening::Abort {
        // The fail-stop is about to unwind into an abort: flush the
        // black-box report first so the postmortem has the flight
        // recorder and the misuse pointer's classification.
        crate::observe::failstop(inner, "hardened-abort", r.ptr);
        panic!("lfmalloc hardened mode: {r}");
    }
}

#[inline]
fn misuse(kind: MisuseKind, ptr: *mut u8) -> MisuseReport {
    MisuseReport {
        kind,
        ptr: ptr as usize,
        size_class: None,
        heap: 0,
        tid: crate::heap::thread_id(),
    }
}

/// The validated free path: every `deallocate` routes here when
/// hardening is on. Never dereferences an address whose ownership has
/// not been established first.
///
/// # Safety
///
/// `ptr` is non-null but otherwise completely untrusted — that is the
/// point. The instance must be alive.
pub(crate) unsafe fn free_hardened<S: PageSource>(inner: &Inner<S>, ptr: *mut u8) {
    let addr = ptr as usize;

    // -- Large blocks: the span registry is the source of truth. -------
    if let Some((base, _)) = inner.large_spans.span_containing(addr) {
        unsafe { free_large_hardened(inner, ptr, base) };
        return;
    }

    // -- Small blocks. -------------------------------------------------
    // The frame map says whether a superblock lives at the address, and
    // whose: a word the allocator wrote, not one the application could
    // have. What is left to ask of the pointer is whether it is the
    // first byte of one of that superblock's blocks.
    let frame = inner.frames.get(addr);
    let (desc_ptr, sz) = (frame.desc(), CLASS_SIZES[frame.class()] as usize);
    let (off, idx) = (addr & (SB_SIZE - 1), (addr & (SB_SIZE - 1)) / sz);
    // SAFETY: a non-empty entry names a descriptor slot; slots are type-stable.
    let desc = (!frame.is_empty()).then(|| unsafe { &*desc_ptr });
    let Some(desc) = desc.filter(|d| off % sz == 0 && idx < d.maxcount() as usize) else {
        report(inner, misuse(MisuseKind::InvalidFree, ptr));
        return;
    };
    // -- Double-free arbiter: one fetch_and, one winner. ---------------
    if !desc.clear_alloc_bit(idx) {
        report(
            inner,
            MisuseReport {
                kind: MisuseKind::DoubleFree,
                ptr: addr,
                size_class: Some(sz),
                heap: desc.heap() as usize,
                tid: crate::heap::thread_id(),
            },
        );
        return;
    }
    // -- Poison + quarantine. ------------------------------------------
    // The whole block: none of it is the allocator's.
    unsafe { core::ptr::write_bytes(ptr, POISON, sz) };
    let q = &inner.quarantines()[crate::heap::thread_id() % inner.nheaps];
    // Relaxed: the count only spreads frees over the cells; the swap is
    // what hands blocks over.
    let i = q.cursor.fetch_add(1, Ordering::Relaxed) % QUARANTINE_CAP;
    // AcqRel: releases this block's poison fill to whoever swaps it out,
    // and acquires the fill of the block it displaces.
    let displaced = q.cells[i].swap(addr, Ordering::AcqRel);
    if displaced != 0 {
        // SAFETY: a parked block, and the swap made it ours alone.
        unsafe { release_quarantined(inner, displaced) };
    }
}

/// Verifies a quarantined block's poison and hands it to the normal
/// free path. A rewritten byte is a use-after-free write through a
/// stale pointer; the block is still released (in `Detect` mode) so the
/// heap keeps functioning.
///
/// The frame map still names the block's descriptor: to the core the
/// block is allocated, so its superblock cannot go EMPTY, and only
/// `trim` clears a frame entry, after it flushes the quarantine.
///
/// # Safety
///
/// `block` was swapped out of one of `inner`'s quarantine cells: a small
/// block that `free_hardened` poisoned and parked, held by the caller
/// alone.
unsafe fn release_quarantined<S: PageSource>(inner: &Inner<S>, block: usize) {
    let desc_ptr = inner.frames.get(block).desc();
    let desc = unsafe { &*desc_ptr };
    let sz = desc.sz() as usize;
    let clean = (0..sz).all(|i| unsafe { *((block + i) as *const u8) } == POISON);
    if !clean {
        report(
            inner,
            MisuseReport {
                kind: MisuseKind::PoisonViolation,
                ptr: block,
                size_class: Some(sz),
                heap: desc.heap() as usize,
                tid: crate::heap::thread_id(),
            },
        );
    }
    unsafe { crate::free_impl::free_small(inner, block as *mut u8, desc_ptr) };
}

/// Hardened free of a large block whose span registry entry named
/// `base`. The registry `remove` CAS is the double-free arbiter: the
/// winner owns the span (and may dereference it), every loser reports
/// without touching memory.
unsafe fn free_large_hardened<S: PageSource>(inner: &Inner<S>, ptr: *mut u8, base: usize) {
    let addr = ptr as usize;
    if !inner.large_spans.remove(base) {
        // A concurrent free claimed the span between our lookup and
        // now: a racing double free.
        report(inner, misuse(MisuseKind::DoubleFree, ptr));
        return;
    }
    // Sole owner of the span from here on.
    let header = unsafe { (*(base as *const AtomicUsize)).load(Ordering::Relaxed) };
    let (total, guarded, hw) = crate::large::header_fields(header);
    let guard_bytes = if guarded { 2 * PAGE_SIZE } else { 0 };
    let user_off = addr - base;
    let prefix_ok = addr % PREFIX_SIZE == 0
        && user_off >= 2 * PREFIX_SIZE
        && addr < base + total - guard_bytes
        // Safe to read only after the range checks above: the prefix
        // word lies inside the span's unprotected prefix region.
        && unsafe { (*((addr - PREFIX_SIZE) as *const AtomicUsize)).load(Ordering::Relaxed) }
            == (user_off << 1) | crate::large::LARGE_FLAG;
    if !prefix_ok {
        // Interior (or otherwise mangled) pointer into a live large
        // block: put the span back and reject the free.
        inner.large_spans.insert(base, total);
        report(inner, misuse(MisuseKind::InvalidFree, ptr));
        return;
    }
    if guarded {
        let canary = base + total - 2 * PAGE_SIZE;
        let intact =
            (0..PAGE_SIZE).all(|i| unsafe { *((canary + i) as *const u8) } == GUARD_CANARY);
        if !intact {
            report(inner, misuse(MisuseKind::GuardOverrun, ptr));
            // Detect mode: still release the block below.
        }
        if hw {
            // Restore the trap page before the pages go back to the
            // source (pools may recycle them).
            unsafe {
                inner.source.protect_pages(
                    (base + total - PAGE_SIZE) as *mut u8,
                    PAGE_SIZE,
                    true,
                )
            };
        }
    }
    unsafe { crate::large::release_large(inner, None, base) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::instance::LfMalloc;
    use crate::maintain::MaintenanceBudget;
    use malloc_api::RawMalloc;

    fn hardened(heaps: usize) -> LfMalloc {
        LfMalloc::with_config(Config::with_heaps(heaps).with_hardening(Hardening::Detect))
    }

    /// A free stopped between its `fetch_add` and its `swap` blocks
    /// nobody: two laps of frees on another thread still fill the ring,
    /// and a write through a freed pointer is still reported.
    #[test]
    fn a_stalled_quarantine_push_blocks_nobody() {
        let a = hardened(1);
        // What a thread stopped between the two steps leaves: a claimed
        // position whose cell it never swaps.
        a.inner().quarantines()[0].cursor.fetch_add(1, Ordering::Relaxed);
        let newest = std::thread::scope(|s| {
            s.spawn(|| unsafe {
                let blocks: Vec<usize> =
                    (0..2 * QUARANTINE_CAP).map(|_| a.malloc(64) as usize).collect();
                for &p in &blocks {
                    a.free(p as *mut u8);
                }
                *blocks.last().unwrap()
            })
            .join()
            .unwrap()
        });
        let depth = a.inner().quarantine_depth();
        assert!(depth >= QUARANTINE_CAP - 1, "the ring filled past the claimed cell: {depth}");
        assert_eq!(a.misuse_counters().total(), 0);
        // A dangling write into the newest block, still quarantined.
        unsafe { (newest as *mut u8).write(7) };
        assert_eq!(a.flush_quarantine(), depth);
        assert_eq!(a.misuse_counters().count(MisuseKind::PoisonViolation), 1);
        assert_eq!(a.misuse_counters().total(), 1);
        assert!(a.audit().is_clean(), "{:?}", a.audit());
    }

    /// Four threads' hardened frees race a fifth that flushes the
    /// quarantine and runs maintenance: no block is released twice or
    /// lost, so nothing is reported and the heap audits clean.
    #[test]
    fn hardened_frees_race_flushes_and_maintenance_cleanly() {
        let a = hardened(2);
        let done = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for t in 0..4 {
                let (a, done) = (&a, &done);
                s.spawn(move || unsafe {
                    for round in 0..200 {
                        let size = |i: usize| 16 + (i + t + round) % 4 * 48;
                        let blocks: Vec<usize> = (0..64).map(|i| a.malloc(size(i)) as usize).collect();
                        for p in blocks {
                            assert!(p != 0);
                            a.free(p as *mut u8);
                        }
                    }
                    done.fetch_add(1, Ordering::Release);
                });
            }
            s.spawn(|| {
                while done.load(Ordering::Acquire) < 4 {
                    a.flush_quarantine();
                    a.maintain(MaintenanceBudget::light());
                }
            });
        });
        assert_eq!(a.misuse_counters().total(), 0, "{:?}", a.misuse_counters().last_report());
        a.flush_quarantine();
        assert_eq!(a.inner().quarantine_depth(), 0);
        assert!(a.audit().is_clean(), "{:?}", a.audit());
    }

    #[test]
    fn kind_index_roundtrip() {
        for kind in [
            MisuseKind::InvalidFree,
            MisuseKind::DoubleFree,
            MisuseKind::PoisonViolation,
            MisuseKind::GuardOverrun,
        ] {
            assert_eq!(MisuseKind::ALL.get(kind as usize), Some(&kind));
        }
        assert_eq!(MisuseKind::ALL.get(NUM_KINDS), None);
    }

    #[test]
    fn counters_record_and_expose_last_report() {
        let c = MisuseCounters::new();
        assert_eq!(c.total(), 0);
        assert!(c.last_report().is_none());
        let r = MisuseReport {
            kind: MisuseKind::DoubleFree,
            ptr: 0xdead_bee8,
            size_class: Some(64),
            heap: 0x1000,
            tid: 7,
        };
        c.record(&r);
        c.record(&MisuseReport { kind: MisuseKind::InvalidFree, size_class: None, ..r });
        assert_eq!(c.count(MisuseKind::DoubleFree), 1);
        assert_eq!(c.count(MisuseKind::InvalidFree), 1);
        assert_eq!(c.count(MisuseKind::GuardOverrun), 0);
        assert_eq!(c.total(), 2);
        let last = c.last_report().unwrap();
        assert_eq!(last.kind, MisuseKind::InvalidFree);
        assert_eq!(last.ptr, 0xdead_bee8);
        assert_eq!(last.size_class, None);
    }

    #[test]
    fn report_display_is_informative() {
        let r = MisuseReport {
            kind: MisuseKind::PoisonViolation,
            ptr: 0xabc0,
            size_class: Some(128),
            heap: 0,
            tid: 3,
        };
        let s = format!("{r}");
        assert!(s.contains("PoisonViolation") && s.contains("0xabc0") && s.contains("128"), "{s}");
    }
}
