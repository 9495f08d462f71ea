//! Large blocks: allocated from the OS (§3.1 / Figure 4 lines 2–3), and
//! freed into a small lock-free cache of free spans that the next large
//! malloc looks in first (DESIGN.md §16). The paper frees them straight to
//! the OS (Figure 6 lines 4–5); that is still what happens to a span the
//! cache has no room for, to every span above [`MAX_CACHED_SPAN`], and to
//! every hardened block.
//!
//! The cache has two levels of the same thing, a word that *is* the span
//! (`base | pages`, 0 = empty):
//!
//! * **the thread's own word** — one per magazine slot, for a span of at
//!   most [`MAX_THREAD_SPAN`]. It belongs to the slot, as the slot's bins
//!   do: the slot's live owner parks and takes with a plain load and a
//!   plain store, and nobody else touches the word but whoever holds the
//!   slot's owner word (an adopter, `drain_dead`, fork recovery) or runs
//!   under `trim`'s or teardown's quiescence. A one-thread hit pair is two
//!   loads and two stores on a line no other thread writes (§16.7).
//! * **eight shared words** ([`SpanCache`]), for everything else up to
//!   [`MAX_CACHED_SPAN`]: a take CAS and a park CAS, retained bytes bounded
//!   over the eight by [`MAX_CACHED_BYTES`].
//!
//! A large block has entry points of its own (`LfMalloc::allocate_large`,
//! `deallocate_large`; DESIGN.md §15.1). Each finds the caller's slot the
//! way a class entry does (`magazine::slot`, which runs the generation
//! checks only on a stale slot), and its hit is that slot's word:
//! `take_held` and `park_held`. A miss goes on to the shared words:
//! `alloc_large` — a claim, then a map ([`map_span`]) — or `free_large`.
//! Ageing and the pressure valve visit the shared words and the calling
//! thread's own; `trim` and teardown visit every word; a slot's drain
//! hands the slot's span to the shared level ([`give_back`]).
//! Live is derived, not counted ([`Inner::large_live`]).
//!
//! Layout of a large allocation:
//!
//! ```text
//! base (page aligned, >= align)
//! │ [ header: total_size | log2(os_align) ]   8 bytes
//! │ [ ...padding to satisfy user alignment... ]
//! │ [ marker: (user_offset << 1) | 1 ]        8 bytes at user-8
//! └─[ user data: `size` bytes ]               at base + user_offset
//! ```
//!
//! `free` does not find a large block by that marker: it looks the address
//! up in the frame map (DESIGN.md §19), and a frame that holds no superblock
//! is a large block's. The marker only says how far below the user pointer
//! the span starts; its low bit, the paper's "large block bit" ("desc holds
//! sz+1"), is set for the debug assertions and the hardened checks.
//!
//! The header is written once, when the span is mapped, and names what
//! the source was asked for. A span that comes back out of the cache
//! keeps it — only the marker word is rewritten — so it reports its true
//! usable size and is eventually returned with the size and alignment it
//! was mapped with.

use crate::config::PREFIX_SIZE;
use crate::harden::{Hardening, GUARD_CANARY};
use crate::instance::Inner;
use crate::magazine::{held_span_word, span_words, SLOTS};
use crate::observe::{self, EventKind, Global, Lat, Timer};
use core::sync::atomic::{AtomicUsize, Ordering};
use osmem::source::PAGE_SIZE;
use osmem::PageSource;

/// Low prefix bit marking a large block.
pub(crate) const LARGE_FLAG: usize = 1;

/// Header flag field: total size is page-aligned, so its low 12 bits
/// are free for the alignment exponent and the hardening flags.
const ALIGN_EXP_MASK: usize = (1 << PAGE_SIZE.trailing_zeros()) - 1;

/// Alignment exponent: the low 6 flag bits (exponents reach at most 63
/// on a 64-bit address space).
const ALIGN_EXP_BITS: usize = 0x3F;

/// Header bit 6: the block carries two trailing guard pages (canary +
/// trap), excluded from its usable size.
const GUARDED_FLAG: usize = 1 << 6;

/// Header bit 7: the trailing guard page is hardware-protected
/// (`PROT_NONE`); it must be restored before the pages are released.
const HW_GUARD_FLAG: usize = 1 << 7;

/// Decodes a large-block header into `(total_bytes, guarded, hw_guard)`.
pub(crate) fn header_fields(header: usize) -> (usize, bool, bool) {
    (
        header & !ALIGN_EXP_MASK,
        header & GUARDED_FLAG != 0,
        header & HW_GUARD_FLAG != 0,
    )
}

/// The alignment a large block's span was mapped with.
pub(crate) fn header_align(header: usize) -> usize {
    1usize << (header & ALIGN_EXP_BITS)
}

/// Slots in the free-span cache.
pub(crate) const CACHE_SLOTS: usize = 8;

/// Largest span the cache keeps. Above this one map/unmap pair costs
/// little next to touching the memory, and one idle span would be most
/// of what the cache may hold.
pub(crate) const MAX_CACHED_SPAN: usize = 2 << 20;

/// Most the cache retains, over all its shared slots.
pub(crate) const MAX_CACHED_BYTES: usize = 4 << 20;

/// Largest span a thread parks in its own word: what an instance retains
/// there is bounded per word, by this times [`SLOTS`], and what a killed
/// thread strands beside its magazines is one such span.
pub const MAX_THREAD_SPAN: usize = 128 << 10;

const _: () = assert!(MAX_THREAD_SPAN <= MAX_CACHED_SPAN);
const _: () = assert!(SLOTS * MAX_THREAD_SPAN + MAX_CACHED_BYTES <= 12 << 20);

/// Slot-word bits 0..=9: the span's page count (at most
/// `MAX_CACHED_SPAN / PAGE_SIZE` = 512).
const SLOT_PAGES_MASK: usize = (1 << 10) - 1;

/// Slot-word bit 11: a maintenance pass saw the span parked and nobody
/// has taken it since; the next pass releases it.
const SLOT_IDLE: usize = 1 << 11;

const _: () = assert!(MAX_CACHED_SPAN / PAGE_SIZE <= SLOT_PAGES_MASK);
const _: () = assert!(SLOT_PAGES_MASK < SLOT_IDLE && SLOT_IDLE < PAGE_SIZE);

/// Free large spans, parked by `free` for the next large `malloc`: the
/// shared level.
///
/// Each slot is one word, `base | pages (| SLOT_IDLE)`, or 0 when empty:
/// `base` is page aligned, which frees the low 12 bits. The word *is*
/// the span, and whoever holds the word owns the span outright: parking
/// is one `0 -> word` CAS, taking is one `word -> 0` CAS. No tag is
/// needed. A taker's CAS can only succeed on a word that is in the slot
/// now, and an equal word that was taken and parked again in between
/// names a span its last holder gave up just as legitimately.
/// The eight words are this level's only state, and one cache line; a
/// magazine slot's span word has the same format but belongs to its slot.
#[derive(Default)]
#[repr(align(64))]
pub(crate) struct SpanCache {
    slots: [AtomicUsize; CACHE_SLOTS],
}

const _: () = assert!(core::mem::size_of::<SpanCache>() == 64);

impl SpanCache {
    fn decode(word: usize) -> (usize, usize) {
        (word & !(PAGE_SIZE - 1), (word & SLOT_PAGES_MASK) * PAGE_SIZE)
    }

    /// Claims the span in the shared word `slot` if it is occupied and
    /// `wanted(base, bytes, idle)` says so; its base. The caller owns the
    /// span from then on.
    ///
    /// The CAS is `Acquire` and pairs with the park CAS in [`park_shared`]: what
    /// the parking thread did to the span (the header it read, the user's
    /// last writes) happens before anything the taker does to it. A
    /// maintenance pass's `Relaxed` idle-bit CAS in between is a
    /// read-modify-write and so continues that release sequence.
    fn claim(slot: &AtomicUsize, wanted: impl Fn(usize, usize, bool) -> bool) -> Option<usize> {
        // Relaxed: only picks the expected value; the CAS below orders.
        let word = slot.load(Ordering::Relaxed);
        let base = wanted_base(word, wanted)?;
        // A lost CAS means another thread took or aged the span; the
        // caller moves on to the next word, so a take is 9 steps at most.
        // Acquire on success: see above. Relaxed on failure: nothing taken.
        slot.compare_exchange(word, 0, Ordering::Acquire, Ordering::Relaxed).ok().map(|_| base)
    }

    /// One pass for [`park_shared`], last word to first: bytes parked, and the
    /// lowest empty slot (`CACHE_SLOTS`: none). `SeqCst`: see there.
    #[inline]
    fn scan(&self) -> (usize, usize) {
        let (mut parked, mut empty) = (0, CACHE_SLOTS);
        for (i, slot) in self.slots.iter().enumerate().rev() {
            // SeqCst: one total order with the park CASes, so the later of
            // two racing parkers sees both spans (DESIGN.md §16.2).
            let word = slot.load(Ordering::SeqCst);
            parked += Self::decode(word).1;
            if word == 0 {
                empty = i;
            }
        }
        (parked, empty)
    }
}

/// The base of the span `word` names, if it names one and `wanted(base,
/// bytes, idle)` says so.
fn wanted_base(word: usize, wanted: impl Fn(usize, usize, bool) -> bool) -> Option<usize> {
    let (base, bytes) = SpanCache::decode(word);
    (word != 0 && wanted(base, bytes, word & SLOT_IDLE != 0)).then_some(base)
}

/// Takes the span out of a slot's own word if `wanted` says so; its base.
/// A load and a store: the caller is the only thread touching the word —
/// the slot's live owner, whoever holds the slot's owner word, or anyone
/// under quiescence (DESIGN.md §16.7).
///
/// Both `Relaxed`. The owner reads its own stores in program order; a
/// holder of the owner word got it after the dead owner's ticket release
/// (`tls::stamp_alive`'s `Acquire`) or the drain's owner-word `Release`,
/// and quiescence is established by whoever calls `trim` or drops the
/// instance: each orders the last park before this load.
fn take_own(own: &AtomicUsize, wanted: impl Fn(usize, usize, bool) -> bool) -> Option<usize> {
    let base = wanted_base(own.load(Ordering::Relaxed), wanted)?;
    own.store(0, Ordering::Relaxed);
    Some(base)
}

/// Every word a span can be parked in: the eight shared ones, then each
/// magazine slot's own. What reports and the audit read.
fn words<S: PageSource>(inner: &Inner<S>) -> impl Iterator<Item = &AtomicUsize> {
    inner.large_cache.slots.iter().chain(span_words(inner))
}

fn occupied<'a>(
    words: impl Iterator<Item = &'a AtomicUsize> + 'a,
) -> impl Iterator<Item = (usize, usize)> + 'a {
    // Relaxed: a report's racy snapshot; nothing is dereferenced on it
    // except by the audit, which runs quiescent.
    words.map(|w| w.load(Ordering::Relaxed)).filter(|&w| w != 0).map(SpanCache::decode)
}

/// Every parked span as `(base, bytes)`, at both levels (audit and
/// reports; racy unless the instance is quiescent).
pub(crate) fn spans<S: PageSource>(inner: &Inner<S>) -> impl Iterator<Item = (usize, usize)> + '_ {
    occupied(words(inner))
}

/// The spans among [`spans`] that sit in a thread's own word.
pub(crate) fn thread_spans<S: PageSource>(
    inner: &Inner<S>,
) -> impl Iterator<Item = (usize, usize)> + '_ {
    occupied(span_words(inner))
}

/// Spans parked right now.
pub(crate) fn cached_spans<S: PageSource>(inner: &Inner<S>) -> usize {
    spans(inner).count()
}

/// Bytes parked right now.
pub(crate) fn cached_bytes<S: PageSource>(inner: &Inner<S>) -> usize {
    spans(inner).map(|(_, bytes)| bytes).sum()
}

/// Parks a span in a slot's own word if that is empty and the span at most
/// [`MAX_THREAD_SPAN`]; false otherwise.
///
/// The own word is the slot's (see [`take_own`]): a word its owner reads
/// empty stays empty until the owner's store, so there is no CAS, no scan,
/// and the bound is the word's own. This much is inlined into `free`'s
/// hit; the shared level is a call of its own.
#[inline]
fn park_own(own: &AtomicUsize, base: usize, total: usize) -> bool {
    // Relaxed: the owner's own word, as in `take_own`.
    if total > MAX_THREAD_SPAN || own.load(Ordering::Relaxed) != 0 {
        return false;
    }
    if malloc_api::fail_point!("large.cache_put").kill {
        // Killed holding the span: mapped, in no word — one live block.
        return true;
    }
    // Relaxed: whoever else reads this word first synchronises with this
    // thread by other means (`take_own`).
    own.store(base | (total / PAGE_SIZE), Ordering::Relaxed);
    true
}

/// Parks a span in the shared words. False when
/// the span has to go back to the source instead: too big, no free slot,
/// or it would take the retained bytes over the bound.
///
/// The bound is on what *stays*: parkers that raced may each have seen
/// room for one span, so each looks again after its CAS and, over the
/// bound, takes its own span back out. CAS and scan are `SeqCst` so that
/// the later of two racing parkers sees both spans; to the taker's
/// `Acquire` the CAS is a `Release` (DESIGN.md §16.1–16.2).
#[inline(never)]
fn park_shared<S: PageSource>(inner: &Inner<S>, base: usize, total: usize) -> bool {
    let cache = &inner.large_cache;
    let (parked, first) = cache.scan();
    if total > MAX_CACHED_SPAN || first == CACHE_SLOTS || parked + total > MAX_CACHED_BYTES {
        return false;
    }
    if malloc_api::fail_point!("large.cache_put").kill {
        return true; // as in `park_own`
    }
    let word = base | (total / PAGE_SIZE);
    let Some(i) = (first..CACHE_SLOTS).find(|&i| {
        let slot = &cache.slots[i];
        // Relaxed load: a cheap look before the CAS; SeqCst CAS: the
        // bound's total order, and the `Release` a taker pairs with.
        slot.load(Ordering::Relaxed) == 0
            && slot.compare_exchange(0, word, Ordering::SeqCst, Ordering::Relaxed).is_ok()
    }) else {
        return false;
    };
    // Matched on base, so an ageing mark does not hide the word. A lost
    // claim means a taker has the span: parked, as far as we can tell.
    cache.scan().0 <= MAX_CACHED_BYTES
        || SpanCache::claim(&cache.slots[i], |b, _, _| b == base).is_none()
}

/// Returns a span nobody holds a pointer into to the source, with the
/// size and alignment its header says it was mapped with.
unsafe fn unmap<S: PageSource>(inner: &Inner<S>, base: usize) -> usize {
    // Relaxed: the span is ours; whoever handed it over ordered its header.
    let header = unsafe { (*(base as *const AtomicUsize)).load(Ordering::Relaxed) };
    let (total, _, _) = header_fields(header);
    // Relaxed: statistics, read by reports only.
    inner.large_mapped_spans.fetch_sub(1, Ordering::Relaxed);
    inner.large_mapped_bytes.fetch_sub(total, Ordering::Relaxed);
    unsafe { inner.source.dealloc_pages(base as *mut u8, total, header_align(header)) };
    total
}

/// Returns to the source every shared span `wanted` names, each claimed by
/// the CAS a `malloc` would use, then every one in `own`, words the caller
/// may touch with [`take_own`]; `(spans, bytes)` released.
unsafe fn release_cached<'a, S: PageSource>(
    inner: &'a Inner<S>,
    own: impl Iterator<Item = &'a AtomicUsize>,
    wanted: impl Fn(usize, usize, bool) -> bool,
) -> (usize, usize) {
    let shared = inner.large_cache.slots.iter().filter_map(|s| SpanCache::claim(s, &wanted));
    let (mut spans, mut released) = (0, 0);
    for base in shared.chain(own.filter_map(|w| take_own(w, &wanted))) {
        released += unsafe { unmap(inner, base) };
        spans += 1;
    }
    (spans, released)
}

/// Empties the cache into the source, every slot's word included; bytes
/// released. `trim` and teardown.
///
/// # Safety
///
/// Quiescence, as for [`trim`](crate::LfMalloc::trim): no thread may be
/// inside `malloc`/`free` on this instance.
pub(crate) unsafe fn drain_cache<S: PageSource>(inner: &Inner<S>) -> usize {
    unsafe { release_cached(inner, span_words(inner), |_, _, _| true) }.1
}

/// The pressure valve of [`crate::retry::from_source`]: empties the shared
/// words and the calling thread's own into the source; bytes released.
/// Other threads' words are theirs. Runs inside an allocator entry, so the
/// caller's own word is not halfway through a take.
pub(crate) fn relieve<S: PageSource>(inner: &Inner<S>) -> usize {
    let own = crate::tls::with_block(|tb| held_span_word(inner, tb));
    // SAFETY: the shared spans are claimed by CAS; `own` is the caller's.
    unsafe { release_cached(inner, own.into_iter(), |_, _, _| true) }.1
}

/// Hands the span in a slot's word to the shared level, or back to the
/// source where that has no room; `magazine::drain_slot`, whose caller
/// holds the slot (its owner, the holder of its owner word, or quiescence).
pub(crate) unsafe fn give_back<S: PageSource>(inner: &Inner<S>, own: &AtomicUsize) {
    // Relaxed: the caller holds the slot, as in `take_own`.
    let word = own.load(Ordering::Relaxed);
    if word != 0 {
        own.store(0, Ordering::Relaxed);
        let (base, total) = SpanCache::decode(word);
        if !park_shared(inner, base, total) {
            unsafe { unmap(inner, base) };
        }
    }
}

/// One ageing step, run by every maintenance pass: spans that have sat
/// parked since the previous pass go back to the source, the rest are
/// marked so the next pass can tell. Returns spans released. It visits
/// the shared words and the calling thread's own word, and no other
/// thread's: a dead thread's span reaches the shared words through
/// `drain_dead`, which `maintain` runs first.
pub(crate) unsafe fn release_idle_spans<S: PageSource>(inner: &Inner<S>) -> usize {
    // A signal handler's pass must not age a word its thread is halfway
    // through taking: inside the allocator, the own word is left alone.
    let entry = crate::tls::enter_hit();
    let own = entry.as_ref().and_then(|e| held_span_word(inner, e.block()));
    let released = unsafe { release_cached(inner, own.into_iter(), |_, _, idle| idle) }.0;
    for slot in &inner.large_cache.slots {
        // Relaxed: the CAS below decides; a stale read only skips a mark.
        let word = slot.load(Ordering::Relaxed);
        if word != 0 {
            // Failure means the span was taken meanwhile: not idle.
            // Relaxed: a read-modify-write continues the park's release
            // sequence, and the mark publishes nothing of its own.
            let _ = slot.compare_exchange(
                word,
                word | SLOT_IDLE,
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
        }
    }
    if let Some(own) = own {
        // Relaxed: the caller's own word, as in `take_own`.
        let word = own.load(Ordering::Relaxed);
        if word != 0 {
            own.store(word | SLOT_IDLE, Ordering::Relaxed);
        }
    }
    released
}

/// Where a block of `size` bytes at `align` (a power of two) starts in its
/// span, and the span's bytes with `guard_bytes` of trailing guard pages;
/// none when that overflows.
#[inline]
fn span_layout(size: usize, align: usize, guard_bytes: usize) -> Option<(usize, usize)> {
    // User data starts at least 16 bytes in: 8 for the header word at
    // base, 8 for the prefix at user-8. A larger alignment is a multiple
    // of 16, so the first aligned offset is `align` itself.
    let user_off = align.max(2 * PREFIX_SIZE);
    // Checked rounding: near-usize::MAX requests must fail cleanly, not
    // wrap into tiny page counts. The addend cannot wrap (`align` is at
    // most 2^63), and the sum is at least one page.
    let padded = size.checked_add(user_off + guard_bytes + PAGE_SIZE - 1)?;
    Some((user_off, padded & !(PAGE_SIZE - 1)))
}

/// The cache's fit rule for a span of `total` bytes at `os_align`: first
/// fit, big enough, at most a quarter wasted, aligned.
#[inline]
fn fits(total: usize, os_align: usize) -> impl Fn(usize, usize, bool) -> bool {
    move |base, bytes, _| bytes >= total && bytes - total <= total / 4 && base & (os_align - 1) == 0
}

/// `malloc`'s large hit (DESIGN.md §16.7): a block of `size` bytes at
/// `align` out of the span in `own`, the calling thread's own word (its
/// slot's, `magazine::span_word`), if it has one and the span fits.
/// None: nothing was done. A span out of a word is never fresh.
#[inline]
pub(crate) unsafe fn take_held<S: PageSource>(
    inner: &Inner<S>,
    own: Option<&AtomicUsize>,
    size: usize,
    align: usize,
) -> Option<*mut u8> {
    let own = own?;
    let t0 = Timer::start();
    // No guard pages: an instance that adds them holds no slot.
    let (user_off, total) = span_layout(size, align, 0)?;
    let base = take_own(own, fits(total, align.max(PAGE_SIZE)))?;
    Some(unsafe { hand_out_cached(inner, t0, base, user_off) })
}

/// Allocates a large block of `size` bytes at `align` out of the shared
/// words, else from the source; `allocate_large`'s miss, after the
/// thread's own word ([`take_held`]). The flag is true when the span came
/// fresh from the source, false when it was recycled out of the cache with
/// a previous user's bytes still in it. Out of line, like [`free_large`],
/// so that the large entry holds its hit and one call (DESIGN.md §15.1,
/// §16.7).
#[inline(never)]
pub(crate) unsafe fn alloc_large<S: PageSource>(
    inner: &Inner<S>,
    size: usize,
    align: usize,
) -> (*mut u8, bool) {
    const FAILED: (*mut u8, bool) = (core::ptr::null_mut(), true);
    let t0 = Timer::start();
    // Hardened blocks carry two trailing guard pages: a canary page
    // whose bytes are verified on free, then a trap page that is made
    // PROT_NONE when the source supports it.
    let hardened = inner.config.hardening != Hardening::Off;
    let guard_bytes = if hardened { 2 * PAGE_SIZE } else { 0 };
    let Some((user_off, total)) = span_layout(size, align, guard_bytes) else {
        return FAILED;
    };
    let os_align = align.max(PAGE_SIZE);
    // Hardened blocks never come out of the cache (and never go in): the
    // guard pages, the registry entry and the unmap on free are how that
    // mode catches a use after free.
    let fits = fits(total, os_align);
    let cached = (!hardened && total <= MAX_CACHED_SPAN)
        .then(|| inner.large_cache.slots.iter().find_map(|s| SpanCache::claim(s, &fits)))
        .flatten();
    if let Some(base) = cached {
        return (unsafe { hand_out_cached(inner, t0, base, user_off) }, false);
    }
    match unsafe { map_span(inner, total, os_align) } {
        0 => FAILED,
        base => (unsafe { hand_out(inner, t0, base, user_off) }, true),
    }
}

/// Hands out a span taken out of the cache: [`hand_out`], or null when the
/// thread is killed holding it.
#[inline]
unsafe fn hand_out_cached<S: PageSource>(
    inner: &Inner<S>,
    t0: Timer,
    base: usize,
    user_off: usize,
) -> *mut u8 {
    if malloc_api::fail_point!("large.cache_take").kill {
        // Killed holding the span, like `park_own`'s kill.
        return core::ptr::null_mut();
    }
    observe::count_global(inner, Global::LargeCacheHit);
    unsafe { hand_out(inner, t0, base, user_off) }
}

/// The span at `base` as a block `user_off` into it: its marker, counted.
#[inline]
unsafe fn hand_out<S: PageSource>(
    inner: &Inner<S>,
    t0: Timer,
    base: usize,
    user_off: usize,
) -> *mut u8 {
    let user = (base + user_off) as *mut u8;
    // Relaxed: the span is this thread's until it hands the pointer out,
    // and the hand-out orders the marker with the rest of the block.
    unsafe {
        (*(user.sub(PREFIX_SIZE) as *const AtomicUsize))
            .store((user_off << 1) | LARGE_FLAG, Ordering::Relaxed);
    }
    observe::count_global(inner, Global::LargeAlloc);
    t0.stop(inner, Lat::MallocLarge);
    user
}

/// The miss path: maps a span of `total` bytes, writes its header and
/// counts it mapped. Returns the base, or 0 when the source has nothing.
unsafe fn map_span<S: PageSource>(inner: &Inner<S>, total: usize, os_align: usize) -> usize {
    let base =
        crate::retry::from_source(inner, || unsafe { inner.source.alloc_pages(total, os_align) });
    if base.is_null() {
        observe::event(inner, EventKind::OomBackoff, 0, total as u64);
        return 0;
    }
    observe::count_global(inner, Global::LargeCacheMiss);
    debug_assert_eq!(total & ALIGN_EXP_MASK, 0);
    let mut header = total | os_align.trailing_zeros() as usize;
    if inner.config.hardening != Hardening::Off {
        header |= GUARDED_FLAG;
        unsafe {
            core::ptr::write_bytes(
                base.add(total - 2 * PAGE_SIZE),
                GUARD_CANARY,
                PAGE_SIZE,
            );
            if inner.source.protect_pages(base.add(total - PAGE_SIZE), PAGE_SIZE, false) {
                header |= HW_GUARD_FLAG;
            }
        }
        // Register the span before the block can circulate; without a
        // registry entry a hardened free would reject the pointer.
        if !inner.large_spans.insert(base as usize, total) {
            unsafe {
                if header & HW_GUARD_FLAG != 0 {
                    inner.source.protect_pages(base.add(total - PAGE_SIZE), PAGE_SIZE, true);
                }
                inner.source.dealloc_pages(base, total, os_align);
            }
            return 0;
        }
    }
    // The span can circulate: counted mapped from here until `unmap`.
    // Relaxed: statistics, read by reports only.
    inner.large_mapped_spans.fetch_add(1, Ordering::Relaxed);
    inner.large_mapped_bytes.fetch_add(total, Ordering::Relaxed);
    // Relaxed: the span is this thread's; a later holder gets it through
    // a hand-out or a park, which orders the header.
    unsafe { (*(base as *const AtomicUsize)).store(header, Ordering::Relaxed) };
    base as usize
}

/// Usable bytes of a large block given its user pointer and prefix
/// (guard pages, when present, are not usable).
pub(crate) unsafe fn usable_size_large(ptr: *mut u8, prefix: usize) -> usize {
    debug_assert_eq!(prefix & LARGE_FLAG, LARGE_FLAG);
    let user_off = prefix >> 1;
    let base = ptr as usize - user_off;
    // Relaxed: the caller holds the block, so its header is ordered.
    let header = unsafe { (*(base as *const AtomicUsize)).load(Ordering::Relaxed) };
    let (total, guarded, _) = header_fields(header);
    let guard_bytes = if guarded { 2 * PAGE_SIZE } else { 0 };
    total - guard_bytes - user_off
}

/// The word in front of a large block: its offset into its span, under
/// the paper's large-block bit. Small blocks have no such word.
#[inline]
pub(crate) unsafe fn large_marker(ptr: *mut u8) -> usize {
    // Relaxed: the caller holds the block, so its marker is ordered.
    unsafe { (*(ptr.sub(PREFIX_SIZE) as *const AtomicUsize)).load(Ordering::Relaxed) }
}

/// `free`'s large hit (DESIGN.md §16.7): parks the span of the large block
/// at `ptr` in `own`, the calling thread's own word (its slot's,
/// `magazine::span_word`), if it has one and the span goes there
/// ([`park_own`]). Nothing in front of `ptr` is read without a word.
/// False: nothing was done.
#[inline]
pub(crate) unsafe fn park_held<S: PageSource>(
    inner: &Inner<S>,
    own: Option<&AtomicUsize>,
    ptr: *mut u8,
) -> bool {
    let Some(own) = own else {
        return false;
    };
    let t0 = Timer::start();
    let base = ptr as usize - (unsafe { large_marker(ptr) } >> 1);
    // Relaxed: the freeing thread holds the block, as in `release_large`.
    let header = unsafe { (*(base as *const AtomicUsize)).load(Ordering::Relaxed) };
    if !park_own(own, base, header_fields(header).0) {
        return false;
    }
    observe::count_global(inner, Global::LargeFree);
    t0.stop(inner, Lat::FreeLarge);
    true
}

/// Frees a large block given its user pointer and (odd) prefix word
/// (the trusting non-hardened path; hardened frees route through
/// [`crate::harden`], which validates and then calls
/// [`release_large`]); `deallocate_large`'s miss, after the thread's own
/// word ([`park_held`]).
#[inline(never)]
pub(crate) unsafe fn free_large<S: PageSource>(inner: &Inner<S>, ptr: *mut u8, prefix: usize) {
    debug_assert_eq!(prefix & LARGE_FLAG, LARGE_FLAG);
    let user_off = prefix >> 1;
    let base = unsafe { ptr.sub(user_off) };
    unsafe { release_large(inner, base as usize) };
}

/// Parks a freed large block's span in the shared words, given its
/// validated base address, or, failing that, returns it to the source.
pub(crate) unsafe fn release_large<S: PageSource>(inner: &Inner<S>, base: usize) {
    let t0 = Timer::start();
    // Relaxed: the freeing thread holds the block, as above.
    let header = unsafe { (*(base as *const AtomicUsize)).load(Ordering::Relaxed) };
    let (total, guarded, _) = header_fields(header);
    observe::count_global(inner, Global::LargeFree);
    if guarded || !park_shared(inner, base, total) {
        observe::count_global(inner, Global::LargeCacheBypass);
        unsafe { unmap(inner, base) };
    }
    t0.stop(inner, Lat::FreeLarge);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Config, LfMalloc, MaintenanceBudget};
    use malloc_api::layout::align_up;
    use malloc_api::RawMalloc;
    use osmem::source::pages_for;

    fn instance() -> LfMalloc {
        LfMalloc::with_config(Config::with_heaps(1))
    }

    /// OS bytes behind a large block of `size` bytes at the default
    /// alignment.
    fn span(size: usize) -> usize {
        pages_for(size + 2 * PREFIX_SIZE)
    }

    #[test]
    fn freed_span_is_the_next_mallocs_span() {
        let a = instance();
        unsafe {
            let p = a.malloc(64 << 10);
            a.free(p);
            assert_eq!(a.health().large_cached_bytes, span(64 << 10));
            assert_eq!(a.os_stats().live_bytes, span(64 << 10), "parked, not unmapped");
            let q = a.malloc(64 << 10);
            assert_eq!(q, p);
            assert_eq!(a.health().large_cached_spans, 0, "one span, live or cached, never both");
            assert_eq!(a.os_stats().os_allocs, 1);
            a.free(q);
        }
    }

    #[test]
    fn a_recycled_span_keeps_its_header() {
        let a = instance();
        unsafe {
            // 20 pages parked; a 17-page request fits with 3 pages slack
            // and is told about all of them.
            let p = a.malloc(20 * PAGE_SIZE - 16);
            let usable = a.usable_size(p);
            a.free(p);
            let q = a.malloc(17 * PAGE_SIZE - 16);
            assert_eq!(q, p);
            assert_eq!(a.usable_size(q), usable);
            // At another alignment the user pointer moves, the span
            // stays, and the usable size shrinks by the padding.
            a.free(q);
            let r = a.malloc_aligned(16 * PAGE_SIZE, PAGE_SIZE);
            assert_eq!(r as usize, p as usize - 16 + PAGE_SIZE);
            assert_eq!(a.usable_size(r), 19 * PAGE_SIZE);
            a.free(r);
            assert_eq!(a.os_stats().os_allocs, 1);
            // The span goes back with the size it was mapped with.
            a.trim();
            assert_eq!(a.os_stats().live_bytes, 0);
        }
    }

    #[test]
    fn fit_is_big_enough_little_slack_and_aligned() {
        let a = instance();
        unsafe {
            let p = a.malloc(20 * PAGE_SIZE - 16);
            a.free(p);
            // Too small for the request.
            let big = a.malloc(21 * PAGE_SIZE - 16);
            assert_ne!(big, p);
            // More than a quarter of the request would be wasted.
            let small = a.malloc(15 * PAGE_SIZE - 16);
            assert_ne!(small, p);
            assert_eq!(a.health().large_cached_spans, 1, "the 20-page span is still parked");
            // Not aligned for the request (if the OS happened to align
            // it that far, the hit is legal).
            let al = a.malloc_aligned(16 * PAGE_SIZE, 1 << 20);
            assert_eq!(al as usize % (1 << 20), 0);
            if (p as usize - 16) % (1 << 20) != 0 {
                assert_eq!(a.health().large_cached_spans, 1);
            }
            for q in [big, small, al] {
                a.free(q);
            }
            assert!(a.audit().is_clean());
        }
    }

    #[test]
    fn bounds_hold_and_audit_is_clean_at_every_fill() {
        #[cfg(feature = "failpoints")]
        let _quiet = malloc_api::failpoints::no_scenario();
        let a = instance();
        unsafe {
            assert!(a.audit().is_clean(), "empty: {}", a.audit());
            // Above the per-span bound: straight back to the source.
            let p = a.malloc(MAX_CACHED_SPAN);
            a.free(p);
            assert_eq!(a.os_stats().live_bytes, 0);
            // Three 1.5 MiB spans: the third would pass 4 MiB retained.
            let ps: Vec<_> = (0..3).map(|_| a.malloc(3 << 19)).collect();
            for p in ps {
                a.free(p);
            }
            let h = a.health();
            assert_eq!((h.large_cached_spans, h.large_cached_bytes), (2, 2 * span(3 << 19)));
            let rep = a.audit();
            assert!(rep.is_clean(), "partly full: {rep}");
            assert_eq!(rep.bytes.large_cached_bytes, h.large_cached_bytes);
            assert_eq!(rep.large_cached_spans, 2);
            a.trim();
            // Ten small spans: this thread's own word and eight slots.
            const WORDS: usize = CACHE_SLOTS + 1;
            let ps: Vec<_> = (0..WORDS + 1).map(|_| a.malloc(16 << 10)).collect();
            for p in ps {
                a.free(p);
            }
            assert_eq!(a.health().large_cached_spans, WORDS);
            assert_eq!(a.os_stats().live_bytes, WORDS * span(16 << 10));
            let rep = a.audit();
            assert!(rep.is_clean(), "full: {rep}");
            let released = a.trim();
            assert!(released >= WORDS * span(16 << 10), "trim counts the drained spans");
            assert_eq!(a.os_stats().live_bytes, 0);
        }
    }

    #[test]
    fn maintain_releases_spans_nobody_took_since_the_previous_pass() {
        let a = instance();
        unsafe {
            let idle = a.malloc(64 << 10);
            let hot = a.malloc(256 << 10);
            a.free(idle);
            a.free(hot);
            assert_eq!(a.maintain(MaintenanceBudget::light()).large_spans_released, 0);
            // `hot` is taken and parked again between the passes.
            let again = a.malloc(256 << 10);
            assert_eq!(again, hot);
            a.free(again);
            assert_eq!(a.maintain(MaintenanceBudget::light()).large_spans_released, 1);
            assert_eq!(a.health().large_cached_bytes, span(256 << 10));
            assert_eq!(a.maintain(MaintenanceBudget::light()).large_spans_released, 1);
            assert_eq!(a.os_stats().live_bytes, 0);
            assert!(a.audit().is_clean());
        }
    }

    #[test]
    fn a_hit_pair_moves_the_span_and_no_counter() {
        let a = instance();
        let books = || {
            let i = a.inner();
            let mapped = (
                i.large_mapped_spans.load(Ordering::Relaxed),
                i.large_mapped_bytes.load(Ordering::Relaxed),
            );
            (mapped, i.large_live().0, a.health().large_cached_spans)
        };
        let mapped = (1, span(64 << 10));
        unsafe {
            let mut p = a.malloc(64 << 10);
            for _ in 0..10_000 {
                assert_eq!(books(), (mapped, 1, 0));
                a.free(p);
                assert_eq!(books(), (mapped, 0, 1));
                p = a.malloc(64 << 10);
            }
            a.free(p);
        }
        let os = a.os_stats();
        assert_eq!((os.os_allocs, os.os_frees), (1, 0));
    }

    /// The calling thread's own word in `a`.
    fn own_word(a: &LfMalloc) -> &AtomicUsize {
        let slot = crate::tls::with_block(|tb| crate::magazine::slot(a.inner(), tb));
        // SAFETY: the slot is null or one of `a`'s.
        unsafe { crate::magazine::span_word(slot) }.expect("the test thread has a slot")
    }

    fn shared_words(a: &LfMalloc) -> [usize; CACHE_SLOTS] {
        core::array::from_fn(|i| a.inner().large_cache.slots[i].load(Ordering::Relaxed))
    }

    /// DESIGN.md §16.7: between entry and return of a one-thread hit pair
    /// the span moves between the caller and the caller's own word, by a
    /// load and a store each way; the shared line is not written and no
    /// counter moves.
    #[test]
    fn a_one_thread_large_pair_touches_no_shared_word() {
        // The thread's word steps aside, with the magazines, while a fault
        // scenario runs.
        #[cfg(feature = "failpoints")]
        let _quiet = malloc_api::failpoints::no_scenario();
        let a = instance();
        let mapped = || {
            let i = a.inner();
            (i.large_mapped_spans.load(Ordering::Relaxed), i.large_mapped_bytes.load(Ordering::Relaxed))
        };
        unsafe {
            let p = a.malloc(64 << 10);
            let word = p as usize - 2 * PREFIX_SIZE | span(64 << 10) / PAGE_SIZE;
            for _ in 0..10_000 {
                assert_eq!(own_word(&a).load(Ordering::Relaxed), 0);
                a.free(p);
                assert_eq!(own_word(&a).load(Ordering::Relaxed), word);
                assert_eq!(shared_words(&a), [0; CACHE_SLOTS]);
                assert_eq!(a.malloc(64 << 10), p);
                assert_eq!(shared_words(&a), [0; CACHE_SLOTS]);
                assert_eq!(mapped(), (1, span(64 << 10)));
            }
            a.free(p);
        }
        let os = a.os_stats();
        assert_eq!((os.os_allocs, os.os_frees), (1, 0));
    }

    #[test]
    fn a_second_size_goes_to_the_shared_words_and_both_come_back() {
        #[cfg(feature = "failpoints")]
        let _quiet = malloc_api::failpoints::no_scenario();
        let a = instance();
        unsafe {
            // Neither span fits the other's request.
            let (older, newer) = (a.malloc(64 << 10), a.malloc(100 << 10));
            a.free(older);
            a.free(newer);
            let (own, shared) = (own_word(&a).load(Ordering::Relaxed), shared_words(&a));
            assert_eq!(SpanCache::decode(own), (older as usize - 16, span(64 << 10)), "the older stays");
            assert_eq!(SpanCache::decode(shared[0]), (newer as usize - 16, span(100 << 10)));
            assert_eq!(a.health().large_cached_spans, 2);
            assert!(a.audit().is_clean());
            assert_eq!(a.malloc(100 << 10), newer);
            assert_eq!(a.malloc(64 << 10), older);
            assert_eq!(a.health().large_cached_spans, 0);
            assert_eq!(a.os_stats().os_allocs, 2);
            a.free(older);
            a.free(newer);
        }
    }

    #[test]
    fn a_span_above_the_thread_bound_never_enters_a_threads_word() {
        #[cfg(feature = "failpoints")]
        let _quiet = malloc_api::failpoints::no_scenario();
        let a = instance();
        unsafe {
            let p = a.malloc(MAX_THREAD_SPAN); // one page more than the bound
            a.free(p);
            assert_eq!(own_word(&a).load(Ordering::Relaxed), 0);
            assert_eq!(SpanCache::decode(shared_words(&a)[0]).1, MAX_THREAD_SPAN + PAGE_SIZE);
            assert_eq!(a.malloc(MAX_THREAD_SPAN), p);
            let q = a.malloc(MAX_THREAD_SPAN - 2 * PREFIX_SIZE); // the bound exactly
            a.free(q);
            assert_eq!(SpanCache::decode(own_word(&a).load(Ordering::Relaxed)).1, MAX_THREAD_SPAN);
            a.free(p);
            let rep = a.audit();
            assert!(rep.is_clean(), "{rep}");
            assert_eq!(rep.large_cached_spans, 2);
        }
    }

    /// A maintenance loop on another thread runs while the owner churns.
    /// The owner's word is the owner's slot's (§16.7): the loop neither
    /// ages nor takes it, so no take misses and no span is mapped beside
    /// the parked one. Every span stays in exactly one place — the books
    /// reconcile at the end — and what the instance holds stays within one
    /// live span, the thread's word and the eight shared ones.
    #[test]
    fn ageing_a_live_owners_word_loses_and_doubles_no_span() {
        use core::sync::atomic::AtomicBool;
        const SIZE: usize = 64 << 10;
        #[cfg(feature = "failpoints")]
        let _quiet = malloc_api::failpoints::no_scenario();
        let a = instance();
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                while !done.load(Ordering::Acquire) {
                    a.maintain(MaintenanceBudget::light());
                    let held = a.os_stats().live_bytes;
                    assert!(held <= (CACHE_SLOTS + 2) * span(SIZE), "{held} bytes held");
                }
            });
            for i in 0..100_000usize {
                unsafe {
                    let p = a.malloc(SIZE) as *mut usize;
                    assert!(!p.is_null());
                    let last = p.add(SIZE / 8 - 1);
                    p.write(i);
                    last.write(!i);
                    assert_eq!((p.read(), last.read()), (i, !i));
                    a.free(p as *mut u8);
                }
            }
            done.store(true, Ordering::Release);
        });
        let rep = a.audit();
        assert!(rep.is_clean(), "{rep}");
        assert_eq!(rep.large_live, 0);
        assert_eq!(a.os_stats().live_bytes, rep.bytes.large_cached_bytes);
    }

    /// A span in the word of a thread that has exited goes to the shared
    /// words with the rest of its slot in the first pass (`drain_dead`),
    /// and the second pass releases it: nobody has to adopt the slot, and
    /// nothing waits for `trim`.
    #[test]
    fn an_exited_threads_span_is_released_by_the_second_pass() {
        #[cfg(feature = "failpoints")]
        let _quiet = malloc_api::failpoints::no_scenario();
        let a = instance();
        // Joined, not just scoped out: the thread has run its exit
        // sentinel, so the first pass sees its slot's owner gone.
        std::thread::scope(|s| {
            s.spawn(|| unsafe {
                let p = a.malloc(64 << 10);
                a.free(p);
                assert_ne!(own_word(&a).load(Ordering::Relaxed), 0);
            })
            .join()
            .unwrap();
        });
        assert_eq!(shared_words(&a), [0; CACHE_SLOTS]);
        assert_eq!(a.os_stats().live_bytes, span(64 << 10));
        assert_eq!(a.maintain(MaintenanceBudget::light()).large_spans_released, 0);
        assert_eq!(a.maintain(MaintenanceBudget::light()).large_spans_released, 1);
        assert_eq!(a.os_stats().live_bytes, 0);
        assert!(a.audit().is_clean());
    }

    /// A live owner's word is reached only through its slot (§16.7).
    /// Another thread's maintenance passes and pressure valve leave the
    /// parked span where it is; the owner's own two passes release it;
    /// `flush_thread_cache` hands it to the shared words, whose ageing
    /// anyone's passes run; an exited owner's span goes the same way.
    #[test]
    fn a_live_owners_span_word_is_reached_only_through_its_slot() {
        #[cfg(feature = "failpoints")]
        let _quiet = malloc_api::failpoints::no_scenario();
        let a = instance();
        let clean = || {
            let rep = a.audit();
            assert!(rep.is_clean(), "{rep}");
        };
        // Joined: a thread that ran `f` has run its exit sentinel too.
        let elsewhere = |f: &(dyn Fn() + Sync)| std::thread::scope(|s| s.spawn(f).join().unwrap());
        let passes = |n: usize| -> Vec<u64> {
            (0..n).map(|_| a.maintain(MaintenanceBudget::light()).large_spans_released).collect()
        };
        unsafe {
            let p = a.malloc(64 << 10);
            a.free(p);
            let word = own_word(&a).load(Ordering::Relaxed);
            assert_ne!(word, 0);
            elsewhere(&|| {
                assert_eq!(passes(3), [0, 0, 0]);
                assert_eq!(relieve(a.inner()), 0, "the valve leaves another thread's word");
            });
            assert_eq!(own_word(&a).load(Ordering::Relaxed), word, "neither taken nor aged");
            assert_eq!(a.os_stats().live_bytes, span(64 << 10));
            clean();
            // The owner's own passes age its word.
            assert_eq!(passes(2), [0, 1]);
            assert_eq!(own_word(&a).load(Ordering::Relaxed), 0);
            assert_eq!(a.os_stats().live_bytes, 0);
            clean();
            // A flush hands the span to the shared words, and anyone ages
            // those.
            let p = a.malloc(64 << 10);
            a.free(p);
            a.flush_thread_cache();
            assert_eq!(own_word(&a).load(Ordering::Relaxed), 0);
            assert_eq!(SpanCache::decode(shared_words(&a)[0]), (p as usize - 16, span(64 << 10)));
            clean();
            elsewhere(&|| assert_eq!(passes(2), [0, 1]));
            assert_eq!(a.os_stats().live_bytes, 0);
            clean();
        }
        // An owner that exits leaves its span to anyone's two passes.
        elsewhere(&|| unsafe {
            let p = a.malloc(64 << 10);
            a.free(p);
            assert_ne!(own_word(&a).load(Ordering::Relaxed), 0);
        });
        assert_eq!(a.os_stats().live_bytes, span(64 << 10));
        elsewhere(&|| assert_eq!(passes(2), [0, 1]));
        assert_eq!(a.os_stats().live_bytes, 0);
        clean();
    }

    #[test]
    fn audit_names_a_span_parked_in_a_threads_word_and_a_shared_one() {
        #[cfg(feature = "failpoints")]
        let _quiet = malloc_api::failpoints::no_scenario();
        let a = instance();
        unsafe {
            let p = a.malloc(64 << 10);
            a.free(p);
        }
        let word = own_word(&a).load(Ordering::Relaxed);
        assert_ne!(word, 0);
        a.inner().large_cache.slots[3].store(word, Ordering::Relaxed);
        let rep = a.audit();
        let named = |v: &crate::audit::AuditViolation| {
            v.check == "large.cache" && v.detail.contains("parked in two words")
        };
        assert!(rep.violations.iter().any(named), "{rep}");
        a.inner().large_cache.slots[3].store(0, Ordering::Relaxed);
        assert!(a.audit().is_clean());
    }

    /// The second look, one step at a time: A scans an empty cache and is
    /// frozen before its CAS; B and C park 3 MiB; A's CAS lands on
    /// 4.5 MiB, and A takes its span back out and unmaps it.
    #[cfg(feature = "failpoints")]
    #[test]
    fn a_park_that_lands_over_the_bound_takes_its_span_back() {
        use malloc_api::failpoints::{self as fp, FpAction, FpTrigger};
        let _guard = fp::scenario(0x0B0D);
        let a = instance();
        let [pa, pb, pc] = [(); 3].map(|_| unsafe { a.malloc(3 << 19) } as usize);
        fp::arm_limited("large.cache_put", FpAction::Park, FpTrigger::Always, 1);
        std::thread::scope(|s| {
            let frozen = s.spawn(|| unsafe { a.free(pa as *mut u8) });
            while fp::fired("large.cache_put") == 0 {
                std::thread::yield_now();
            }
            unsafe {
                a.free(pb as *mut u8);
                a.free(pc as *mut u8);
            }
            assert_eq!(a.health().large_cached_spans, 2, "A has not parked yet");
            fp::disarm("large.cache_put");
            frozen.join().unwrap();
        });
        let h = a.health();
        assert_eq!((h.large_cached_spans, h.large_cached_bytes), (2, 2 * span(3 << 19)));
        assert_eq!(a.os_stats().live_bytes, 2 * span(3 << 19), "A's span went to the source");
        let rep = a.audit();
        assert!(rep.is_clean(), "{rep}");
        assert_eq!(rep.large_live, 0);
    }

    /// Four parkers that can each see room for one more span: whatever
    /// the interleaving, what stays is within the bound and in the books.
    #[test]
    fn racing_parks_leave_at_most_the_bound() {
        use std::sync::Barrier;
        const SIZE: usize = 3 << 19;
        let a = instance();
        let (gate, round) = (Barrier::new(4), Barrier::new(5));
        std::thread::scope(|s| {
            for t in 0..4usize {
                let (a, gate, round) = (&a, &gate, &round);
                s.spawn(move || {
                    for r in 0..200 {
                        unsafe {
                            let p = a.malloc(SIZE) as *mut usize;
                            assert!(!p.is_null());
                            let (last, tag) = (p.add(SIZE / 8 - 1), t << 16 | r);
                            p.write(tag);
                            last.write(!tag);
                            gate.wait();
                            assert_eq!((p.read(), last.read()), (tag, !tag), "span shared");
                            a.free(p as *mut u8);
                        }
                        round.wait();
                        round.wait();
                    }
                });
            }
            for _ in 0..200 {
                round.wait();
                let rep = a.audit();
                assert!(rep.is_clean(), "{rep}");
                assert!(rep.bytes.large_cached_bytes <= MAX_CACHED_BYTES, "{rep}");
                assert_eq!(rep.large_live, 0);
                assert_eq!(a.os_stats().live_bytes, rep.bytes.large_cached_bytes);
                round.wait();
            }
        });
    }

    #[test]
    fn dropping_the_instance_returns_cached_spans() {
        let src = std::sync::Arc::new(osmem::CountingSource::new(osmem::SystemSource::new()));
        let a = LfMalloc::with_config_and_source(Config::with_heaps(1), src.clone());
        unsafe {
            let p = a.malloc(100_000);
            a.free(p);
        }
        assert!(src.stats().live_bytes > 0);
        drop(a);
        assert_eq!(src.stats().live_bytes, 0);
    }

    #[test]
    fn header_packing_roundtrip() {
        // total is page aligned; align exponent fits in the low bits.
        let total = 7 * PAGE_SIZE;
        let os_align = 1usize << 20;
        let header = total | os_align.trailing_zeros() as usize;
        assert_eq!(header_fields(header), (total, false, false));
        assert_eq!(header_align(header), os_align);
        // Guard flags coexist with any exponent up to 63.
        let header = total | 63 | GUARDED_FLAG | HW_GUARD_FLAG;
        assert_eq!(header_fields(header), (total, true, true));
        assert_eq!(header & ALIGN_EXP_BITS, 63);
    }

    #[test]
    fn default_user_offset_is_16() {
        assert_eq!(align_up(2 * PREFIX_SIZE, PREFIX_SIZE), 16);
        assert_eq!(align_up(2 * PREFIX_SIZE, 64), 64);
        assert_eq!(align_up(2 * PREFIX_SIZE, 4096), 4096);
    }

    /// `span_layout` against the rounding written out step by step, each
    /// step checked: every power-of-two alignment, sizes around the page
    /// boundaries and up to the last that fit.
    #[test]
    fn span_layout_is_the_stepwise_rounding() {
        let stepwise = |size: usize, align: usize, guard: usize| {
            let user_off = align_up(2 * PREFIX_SIZE, align.max(PREFIX_SIZE));
            let padded = size.checked_add(user_off)?.checked_add(PAGE_SIZE - 1)?;
            Some((user_off, pages_for(padded.checked_add(guard)? & !(PAGE_SIZE - 1))))
        };
        for shift in 0..usize::BITS {
            let align = 1usize << shift;
            for guard in [0, 2 * PAGE_SIZE] {
                for base in [0, PAGE_SIZE, 64 << 10, usize::MAX - align - guard - PAGE_SIZE] {
                    for size in (base.saturating_sub(40)..).take(80) {
                        assert_eq!(
                            span_layout(size, align, guard),
                            stepwise(size, align, guard),
                            "size {size} align {align} guard {guard}"
                        );
                    }
                }
            }
        }
    }
}
