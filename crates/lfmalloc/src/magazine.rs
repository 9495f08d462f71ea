//! Thread magazines: a private stack of free blocks per (thread, size
//! class) in front of the lock-free core. DESIGN.md §15 is the
//! narrative spec; the short form:
//!
//! * A **hit** — `malloc` popping a cached block, `free` pushing one —
//!   is a handful of plain loads and stores on memory only the calling
//!   thread touches: no atomic read-modify-write, no shared cache line.
//!   It is inlined into the caller (`pop`, `push`); everything below
//!   runs in the class entry, one call behind the hit's guard, whose
//!   generation checks run only on a stale slot ([`class_slot`]).
//! * A **miss** refills half a magazine with
//!   [`alloc::malloc_run`](crate::alloc): Figure 4's ladder asked for `k`
//!   blocks instead of one — two CASes from the active superblock, one
//!   when it opens one. Blocks popped off a virgin run (DESIGN.md §20)
//!   are consecutive and were never written: the refill stores a pointer
//!   into each and loads from none. An **overflow** returns half through
//!   [`free_impl::push_free_chain`](crate::free_impl), one CAS per run of
//!   blocks sharing a superblock (one store where the run is all of it).
//! * Only *local* frees enter a magazine (the block's superblock belongs
//!   to the caller's own heap). A *remote* free is parked in the slot's
//!   **outbox**, a second row of bins that `malloc` never pops: when one
//!   holds half a magazine the whole run goes home the way an overflow
//!   does. A block handed to another thread therefore still returns to
//!   its own superblock and Hoard's no-false-sharing property survives.
//!   An outbox run goes home *packed*: each link word also names the
//!   run's blocks 2–5 positions on, and the descriptor's `hint` names the
//!   words the owner's refill will read, so that refill loads them all at
//!   once (DESIGN.md §15.3, §15.7).
//! * The 33 classes up to 1 KiB each have a bin bounded on its own; the 24
//!   **mid classes** above share a third row bounded in bytes for the
//!   whole row ([`MID_BUDGET`]): two blocks a bin, a refill asks for two
//!   and a full bin goes home whole — which, where a superblock *is* two
//!   blocks, opens and closes it as one run (DESIGN.md §21). Local frees
//!   only; a remote mid-class free takes the paper's path.
//! * A cached block is linked through its first word and holds nothing
//!   else of the allocator's: where it goes home is the frame map's
//!   business (DESIGN.md §19). To the core it is simply allocated, so
//!   every paper invariant holds unchanged.
//!
//! Slots live in the instance (their own mapping, so the hot lines
//! share nothing with `Inner`'s read-mostly fields) and are owned by
//! [stamp](crate::tls): a thread finds its slot through its TLS block,
//! and a slot whose owner has exited or died in a fork is drained by
//! the next thread to adopt it, by [`maintain`](crate::LfMalloc::maintain)
//! or by fork recovery. A slot also holds the thread's parked large span
//! ([`crate::large`]'s own word), and every drain hands that on too. What
//! a *killed* thread strands is its slot: bounded by [`MAX_CACHED_BYTES`]
//! in blocks plus one span of at most
//! [`MAX_THREAD_SPAN`](crate::large::MAX_THREAD_SPAN).

use crate::anchor::{Link, Plan, MAX_HOPS};
use crate::config::SB_SIZE;
use crate::framemap::Entry;
use crate::harden::Hardening;
use crate::heap::ProcHeap;
use crate::instance::Inner;
use crate::observe::{self, Count};
use crate::size_classes::{CLASS_SIZES, NUM_CLASSES};
use crate::tls::{stamp_alive, ThreadBlock, DRAINING};
use core::sync::atomic::{AtomicPtr, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use osmem::PageSource;

/// Most blocks one magazine holds.
pub const MAX_BLOCKS: usize = 32;

/// Most bytes one magazine of its own holds; classes too big for two
/// blocks of it are the mid classes.
pub const MAX_CLASS_BYTES: usize = 2048;

/// Blocks a mid-class bin holds: a refill takes this many, a full bin
/// goes home whole.
pub const MID_BLOCKS: usize = 2;

/// Most bytes the mid row of one slot holds, all bins together; a block
/// that would take it over sends the row home first.
pub const MID_BUDGET: usize = 48 * 1024;

/// Blocks the magazine of class `ci` holds: [`MAX_CLASS_BYTES`] worth,
/// at most [`MAX_BLOCKS`] and at least [`MID_BLOCKS`] (a refill is half).
pub const fn capacity(ci: usize) -> usize {
    let n = MAX_CLASS_BYTES / CLASS_SIZES[ci] as usize;
    if n < MID_BLOCKS {
        MID_BLOCKS
    } else if n > MAX_BLOCKS {
        MAX_BLOCKS
    } else {
        n
    }
}

/// Classes `0..CACHED_CLASSES` (block size ≤ 1 KiB) have a magazine
/// bounded on its own, [`MAX_CLASS_BYTES`] each; the rest are the mid
/// classes, bounded together by [`MID_BUDGET`].
pub const CACHED_CLASSES: usize = {
    let mut ci = 0;
    while ci < NUM_CLASSES && CLASS_SIZES[ci] as usize * MID_BLOCKS <= MAX_CLASS_BYTES {
        ci += 1;
    }
    ci
};

/// The mid classes: `CACHED_CLASSES..NUM_CLASSES`.
pub const MID_CLASSES: usize = NUM_CLASSES - CACHED_CLASSES;

/// Blocks the outbox of class `ci` holds: the half magazine an overflow
/// sends home, and 0 where that is no run at all (one block), so such a
/// class's remote frees take the paper's path one by one.
pub const fn out_capacity(ci: usize) -> usize {
    let n = capacity(ci) / 2;
    if n < 2 {
        0
    } else {
        n
    }
}

/// What one thread's full magazines, full outboxes and full mid row hold:
/// the bound on memory stranded by a thread killed (or fork-orphaned,
/// until recovery) with them — and on what a *preempted* thread keeps
/// from everyone else meanwhile.
pub const MAX_CACHED_BYTES: usize = {
    let (mut ci, mut sum) = (0, MID_BUDGET);
    while ci < CACHED_CLASSES {
        sum += (capacity(ci) + out_capacity(ci)) * CLASS_SIZES[ci] as usize;
        ci += 1;
    }
    sum
};
const _: () = assert!(MAX_CACHED_BYTES <= 128 * 1024);
// Whatever the mid bins hold between them, one more block of any class
// fits the budget once the row has gone home.
const _: () = assert!(MID_BUDGET >= CLASS_SIZES[NUM_CLASSES - 1] as usize * MID_BLOCKS);

/// Slots per instance. A thread that finds none free runs on the
/// lock-free core alone, as every thread did before magazines.
pub const SLOTS: usize = 64;

static CAP: [u8; CACHED_CLASSES] = {
    let mut cap = [0u8; CACHED_CLASSES];
    let mut ci = 0;
    while ci < CACHED_CLASSES {
        cap[ci] = capacity(ci) as u8;
        ci += 1;
    }
    cap
};

/// One magazine: a LIFO of blocks linked through their first word.
/// Atomics only so that a drain by another thread (after the
/// owner is gone, or under `trim`'s quiescence) is not a data race; the
/// owner's accesses are plain loads and stores.
#[repr(C)]
pub(crate) struct Bin {
    head: AtomicPtr<u8>,
    count: AtomicU32,
}

impl Bin {
    /// A hit's half of `malloc`: takes `head`, the block this bin's list
    /// starts with, off it.
    #[inline]
    unsafe fn pop(&self, head: *mut u8) {
        // The block is ours alone: its link word is stable.
        let next = unsafe { *(head as *const *mut u8) };
        self.head.store(next, Ordering::Relaxed);
        self.count
            .store(self.count.load(Ordering::Relaxed) - 1, Ordering::Relaxed);
    }

    /// A hit's half of `free`: puts `ptr` in front of the `n` blocks held.
    #[inline]
    unsafe fn push(&self, ptr: *mut u8, n: u32) {
        unsafe { *(ptr as *mut *mut u8) = self.head.load(Ordering::Relaxed) };
        // Release: a fork (or a signal) between the two stores must find
        // the links written before the head that leads to them.
        self.head.store(ptr, Ordering::Release);
        self.count.store(n + 1, Ordering::Relaxed);
    }
}

/// One thread's magazines and outboxes in one instance.
#[repr(C, align(64))]
pub(crate) struct Slot {
    bins: [Bin; CACHED_CLASSES],
    /// Remote frees on their way home; `malloc` never looks here.
    out: [Bin; CACHED_CLASSES],
    /// The mid classes' magazines, class `CACHED_CLASSES + i` in `mid[i]`.
    mid: [Bin; MID_CLASSES],
    /// Stamp of the owning thread; 0 = free. Changes hands only by CAS.
    owner: AtomicU64,
    /// Bytes cached in `mid`, at most [`MID_BUDGET`]. The owner's, like a
    /// bin's count: plain loads and stores.
    mid_bytes: AtomicU32,
    /// One freed large span, parked for this thread's next large `malloc`
    /// in the shared cache's word format; [`crate::large`] alone reads and
    /// writes it (DESIGN.md §16.7). The owner's, like the bins: plain
    /// loads and stores. Lives in what was the slot's padding.
    span: AtomicUsize,
}

// The span word took the slot's tail padding: no slot grew by it.
const _: () = assert!(
    core::mem::size_of::<Slot>() == (core::mem::offset_of!(Slot, mid_bytes) + 4).next_multiple_of(64)
);

/// The instance's slots and its identity. All-zero is the empty table.
pub(crate) struct SlotTable {
    /// Never reused, so a thread's cached `(id, slot)` pair can outlive
    /// the instance without ever being followed. Nonzero and
    /// process-unique: the instance's identity in every thread-local
    /// that caches per-instance state (the profiler's sampler, the flight
    /// recorder).
    pub(crate) id: u64,
    slots: *mut Slot,
    /// One past the highest slot ever claimed; claims go lowest first.
    /// Relaxed: a slot a scan misses was claimed just now, still empty.
    claimed: AtomicUsize,
}

// SAFETY: `slots` is an owned mapping of atomics; `id` is immutable.
unsafe impl Send for SlotTable {}
unsafe impl Sync for SlotTable {}

const TABLE_BYTES: usize = core::mem::size_of::<[Slot; SLOTS]>();

impl SlotTable {
    /// An anonymous zero mapping, like the frame map's nodes.
    pub(crate) fn new() -> Option<Self> {
        static NEXT_ID: AtomicU64 = AtomicU64::new(1);
        let slots = osmem::source::anon::map(TABLE_BYTES) as *mut Slot;
        (!slots.is_null()).then(|| SlotTable {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            slots,
            claimed: AtomicUsize::new(0),
        })
    }

    /// The slots that ever had an owner: the rest were never written.
    fn slots(&self) -> &[Slot] {
        // SAFETY: `SLOTS` zero-initialised slots, live until drop, and
        // `claimed <= SLOTS`.
        unsafe { core::slice::from_raw_parts(self.slots, self.claimed.load(Ordering::Relaxed)) }
    }
}

impl Drop for SlotTable {
    fn drop(&mut self) {
        // SAFETY: the table's own map, which nothing reaches after its drop.
        unsafe { osmem::source::anon::unmap(self.slots as *mut u8, TABLE_BYTES) };
    }
}

/// The calling thread's slot in `inner`, null when it runs without one.
#[inline]
fn slot_of<S: PageSource>(inner: &Inner<S>, tb: &ThreadBlock) -> *const Slot {
    cached_slot(inner, tb).unwrap_or_else(|| attach(inner, tb))
}

/// The slot the TLS block holds for `inner`; `None` when it holds one
/// for another instance or none yet.
#[inline(always)]
fn cached_slot<S: PageSource>(inner: &Inner<S>, tb: &ThreadBlock) -> Option<*const Slot> {
    // A fault scenario schedules yields, retries and kills call by call
    // at the core's CAS windows; while one runs every call takes the
    // paper's paths so each window is reached when the plan says.
    #[cfg(feature = "failpoints")]
    if malloc_api::failpoints::scenario_active() {
        return Some(core::ptr::null());
    }
    (tb.mag_inst.get() == inner.mags.id).then(|| tb.mag.get())
}

/// The slot a hit may use: the cached one, if the TLS block is of this
/// process generation. A forked child's first call on each thread
/// therefore misses, and the miss recovers the instance (`attach`, or
/// the slow entry) before any hit can follow.
#[inline(always)]
fn hit_slot<S: PageSource>(inner: &Inner<S>, tb: &ThreadBlock) -> *const Slot {
    match cached_slot(inner, tb) {
        Some(slot) if tb.is_current() => slot,
        _ => core::ptr::null(),
    }
}

/// The slot a class entry works on (DESIGN.md §15.1): the hit's, whose key
/// only an `attach` that recovered the instance in this generation set.
/// Otherwise the thread and the instance catch up with the process
/// generation first; null when the thread runs without a slot.
#[inline(always)]
pub(crate) fn class_slot<S: PageSource>(inner: &Inner<S>, tb: &ThreadBlock) -> *const Slot {
    #[cold]
    #[inline(never)]
    fn stale<S: PageSource>(inner: &Inner<S>, tb: &ThreadBlock) -> *const Slot {
        tb.ensure_fresh();
        crate::fork::maybe_recover(inner);
        slot_of(inner, tb)
    }
    let slot = hit_slot(inner, tb);
    if !slot.is_null() {
        return slot;
    }
    stale(inner, tb)
}

/// The calling thread's own span word ([`crate::large`]'s thread level,
/// DESIGN.md §16.7); none where it runs without a slot.
#[inline]
pub(crate) fn own_span_word<'a, S: PageSource>(
    inner: &'a Inner<S>,
    tb: &ThreadBlock,
) -> Option<&'a AtomicUsize> {
    // SAFETY: a non-null slot is one of `inner.mags`' slots.
    unsafe { slot_of(inner, tb).as_ref() }.map(|s| &s.span)
}

/// The calling thread's span word if the thread already holds a slot in
/// `inner` of this process generation (no attach, no fork recovery; the
/// slot a hit may use); none otherwise. The large entries' hit reads the
/// word through this, so its fork check is the small hit's.
#[inline]
pub(crate) fn held_span_word<'a, S: PageSource>(
    inner: &'a Inner<S>,
    tb: &ThreadBlock,
) -> Option<&'a AtomicUsize> {
    // SAFETY: a non-null slot is one of `inner.mags`' slots.
    unsafe { hit_slot(inner, tb).as_ref() }.map(|s| &s.span)
}

/// Every slot's span word, whoever owns the slot or did.
pub(crate) fn span_words<S: PageSource>(inner: &Inner<S>) -> impl Iterator<Item = &AtomicUsize> {
    inner.mags.slots().iter().map(|s| &s.span)
}

/// First magazine use of this thread on this instance (or first since
/// it used another one, or since a fork): find or claim a slot and
/// cache it, with the thread's heap column, in the TLS block. Also the
/// fork check a hit does not run: in a forked child each thread's first
/// call comes here (`refresh` clears the slot key).
#[cold]
fn attach<S: PageSource>(inner: &Inner<S>, tb: &ThreadBlock) -> *const Slot {
    crate::fork::maybe_recover(inner);
    let slot = claim(inner, tb);
    tb.column.set(inner.heap_map.column(tb.id()) as u32);
    tb.mag.set(slot);
    tb.mag_inst.set(inner.mags.id);
    slot
}

fn claim<S: PageSource>(inner: &Inner<S>, tb: &ThreadBlock) -> *const Slot {
    let me = tb.stamp();
    // Hardened frees are validated and quarantined one by one; a cache
    // in front would hide exactly the reuse they exist to delay.
    if me == 0 || inner.config.hardening != Hardening::Off {
        return core::ptr::null();
    }
    // A slot this thread already owns: it was here before, or it is the
    // forking thread and the slot still carries its parent-era stamp.
    let prev = tb.prev_stamp();
    for s in inner.mags.slots() {
        let o = s.owner.load(Ordering::Acquire);
        if o == me
            || (prev != 0
                && o == prev
                && s.owner
                    .compare_exchange(o, me, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok())
        {
            return s;
        }
    }
    // SAFETY: `SLOTS` zero-initialised slots, live as long as `inner`.
    let all = unsafe { core::slice::from_raw_parts(inner.mags.slots, SLOTS) };
    for (i, s) in all.iter().enumerate() {
        let o = s.owner.load(Ordering::Acquire);
        if (o == 0 || !stamp_alive(o))
            && s.owner
                .compare_exchange(o, me, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
        {
            inner.mags.claimed.fetch_max(i + 1, Ordering::Relaxed);
            // Adopted from a thread that is gone: its blocks came from
            // *its* heap's superblocks and go back there, not to us.
            unsafe { drain_slot(inner, s) };
            return s;
        }
    }
    core::ptr::null()
}

/// The heap class `ci` maps the calling thread to, from the column
/// cached at attach (so only meaningful once `slot_of` has run).
#[inline]
fn my_heap<'a, S: PageSource>(inner: &'a Inner<S>, tb: &ThreadBlock, ci: usize) -> &'a ProcHeap {
    // SAFETY: `column < nheaps` (`attach`) and `ci < NUM_CLASSES`: the
    // heap is one of `inner`'s table.
    unsafe { &*inner.heaps.add(ci * inner.nheaps + tb.column.get() as usize) }
}

/// A hit's `malloc`: pops the cached block of class `ci`, or returns
/// null for the slow entry to sort out — no slot or a stale TLS block,
/// an empty bin.
///
/// # Safety
///
/// `ci` must be below [`CACHED_CLASSES`] (the mid row is the slow
/// entry's).
#[inline(always)]
pub(crate) unsafe fn pop<S: PageSource>(inner: &Inner<S>, tb: &ThreadBlock, ci: usize) -> *mut u8 {
    let slot = hit_slot(inner, tb);
    if slot.is_null() {
        return core::ptr::null_mut();
    }
    let bin = unsafe { &(*slot).bins[ci] };
    let head = bin.head.load(Ordering::Relaxed);
    if !head.is_null() {
        unsafe { bin.pop(head) };
        observe::count(inner, my_heap(inner, tb, ci), Count::MallocCached);
    }
    head
}

/// A hit's `free`: caches `ptr` if it is local and its bin has room.
/// `false` leaves everything as it was for the slow entry: a remote
/// block, a full bin, no slot or a stale TLS block.
///
/// # Safety
///
/// `ptr` must be a live block of `inner` and `entry` its frame's
/// non-empty word in the frame map, of a class below [`CACHED_CLASSES`].
#[inline(always)]
pub(crate) unsafe fn push<S: PageSource>(
    inner: &Inner<S>,
    tb: &ThreadBlock,
    ptr: *mut u8,
    entry: Entry,
) -> bool {
    let ci = entry.class();
    if entry.column() != tb.column.get() as usize {
        return false;
    }
    let slot = hit_slot(inner, tb);
    if slot.is_null() {
        return false;
    }
    let bin = unsafe { &(*slot).bins[ci] };
    let n = bin.count.load(Ordering::Relaxed);
    if n >= CAP[ci] as u32 {
        return false;
    }
    unsafe { bin.push(ptr, n) };
    observe::count(inner, my_heap(inner, tb, ci), Count::FreeCached);
    true
}

/// Small `malloc` on `slot`, [`class_slot`]'s answer: a cached block if
/// there is one, else a refill, else (no slot) the paper's ladder.
///
/// # Safety
///
/// `ci` must be a valid class index.
#[inline]
pub(crate) unsafe fn malloc<S: PageSource>(
    inner: &Inner<S>,
    tb: &ThreadBlock,
    slot: *const Slot,
    ci: usize,
) -> *mut u8 {
    // SAFETY: a non-null slot is one of `inner.mags`' slots.
    let Some(slot) = (unsafe { slot.as_ref() }) else {
        return unsafe { crate::alloc::malloc_small(inner, ci) };
    };
    if ci >= CACHED_CLASSES {
        return unsafe { malloc_mid(inner, tb, slot, ci) };
    }
    let bin = &slot.bins[ci];
    let head = bin.head.load(Ordering::Relaxed);
    if head.is_null() {
        return unsafe { refill(inner, tb, bin, ci, CAP[ci] as u32 / 2) };
    }
    unsafe { bin.pop(head) };
    observe::count(inner, my_heap(inner, tb, ci), Count::MallocCached);
    head
}

/// `malloc` of a mid class: the same hit, plus the row's byte count; a
/// miss asks for the whole bin. Inline, like `free_mid`: the small hit is
/// `pop`, in the caller, so the class entry is the mid row's (§21.5).
#[inline(always)]
unsafe fn malloc_mid<S: PageSource>(inner: &Inner<S>, tb: &ThreadBlock, slot: &Slot, ci: usize) -> *mut u8 {
    // SAFETY: `CACHED_CLASSES <= ci < NUM_CLASSES` (the caller's branch,
    // and `malloc`'s contract): both tables have its row.
    let (bin, sz) = unsafe { (slot.mid.get_unchecked(ci - CACHED_CLASSES), *CLASS_SIZES.get_unchecked(ci)) };
    let head = bin.head.load(Ordering::Relaxed);
    let mut cached = slot.mid_bytes.load(Ordering::Relaxed);
    if head.is_null() {
        // What the refill leaves cached must fit the budget.
        if cached + (MID_BLOCKS as u32 - 1) * sz > MID_BUDGET as u32 {
            unsafe { mid_home(inner, slot) };
            cached = 0;
        }
        let p = unsafe { refill(inner, tb, bin, ci, MID_BLOCKS as u32) };
        let kept = bin.count.load(Ordering::Relaxed) * sz;
        slot.mid_bytes.store(cached + kept, Ordering::Relaxed);
        return p;
    }
    unsafe { bin.pop(head) };
    slot.mid_bytes.store(cached - sz, Ordering::Relaxed);
    observe::count(inner, my_heap(inner, tb, ci), Count::MallocCached);
    head
}

/// Miss on an empty `bin`: ask the ladder for `k` blocks, hand the first
/// out and cache the rest. It gives what it has at no further shared
/// step: up to `k` from the active superblock with two CASes or from a
/// superblock it opens with one, a single block from a partial one.
#[inline(never)]
unsafe fn refill<S: PageSource>(
    inner: &Inner<S>,
    tb: &ThreadBlock,
    bin: &Bin,
    ci: usize,
    k: u32,
) -> *mut u8 {
    let heap = my_heap(inner, tb, ci);
    let Some(run) = (unsafe { crate::alloc::malloc_run(inner, heap, k) }) else {
        return core::ptr::null_mut();
    };
    let desc = unsafe { &*run.desc };
    let (sb, sz) = (desc.sb() as usize, desc.sz() as usize);
    // The chain is the first `m` positions from `head`: linked by block
    // index through each block's first word while explicit (a word with
    // hops names up to five, and is one the pop's walk loaded too), then
    // consecutive once one carries `V`, never written, nothing to load or
    // decode. Each block gets the pointer a hit expects, in place.
    // SAFETY: each block given is the run's, which the pop's CAS made ours.
    let link = |block: usize| unsafe { &*(block as *const AtomicU64) };
    let (mut at, mut block, mut left) = (run.head, run.first, run.m - 1);
    while left > 0 {
        if at.is_virgin() {
            for _ in 0..left {
                link(block).store((block + sz) as u64, Ordering::Relaxed);
                block += sz;
            }
            break;
        }
        let word = link(block).load(Ordering::Relaxed);
        let reach = left.min(Link::hops(word) + 1);
        for d in 1..=reach {
            at = if d == 1 { Link::from_word(word) } else { Link::explicit(Link::hop(word, d)) };
            let next = sb + at.idx() as usize * sz;
            link(block).store(next as u64, Ordering::Relaxed);
            block = next;
        }
        left -= reach;
    }
    observe::count(inner, heap, Count::MagRefill);
    if run.m > 1 {
        // The last block's successor is not ours to follow.
        link(block).store(0, Ordering::Relaxed);
        // Release: see `Bin::push`.
        bin.head
            .store(unsafe { *(run.first as *const *mut u8) }, Ordering::Release);
        bin.count.store(run.m - 1, Ordering::Relaxed);
    }
    run.first as *mut u8
}

/// Small `free` on `slot`, [`class_slot`]'s answer: caches a local block
/// for this thread's next `malloc`, parks a remote one in the outbox.
/// `false` means neither may be done and the caller must take the paper's path.
///
/// # Safety
///
/// `ptr` must be a live small block of `inner` and `entry` its frame's
/// word in the frame map.
#[inline]
pub(crate) unsafe fn free<S: PageSource>(
    inner: &Inner<S>,
    tb: &ThreadBlock,
    slot: *const Slot,
    ptr: *mut u8,
    entry: Entry,
) -> bool {
    let ci = entry.class();
    if slot.is_null() {
        return false;
    }
    // The entry's column is as current as `desc.heap()` would be (both
    // change at `MallocFromPartial`'s line 3); the descriptor's line,
    // which a remote owner keeps writing, is not touched.
    let local = entry.column() == tb.column.get() as usize;
    if ci >= CACHED_CLASSES {
        // Local frees only: a remote one takes the paper's path.
        if local {
            if unsafe { free_mid(inner, &*slot, ptr, ci) } {
                observe::count(inner, my_heap(inner, tb, ci), Count::MagFlush);
            }
            observe::count(inner, my_heap(inner, tb, ci), Count::FreeCached);
        }
        return local;
    }
    // Half a magazine is what goes home at a time from either row: the
    // newer half of a full magazine, all of a full outbox.
    let half = CAP[ci] as u32 / 2;
    let (bin, limit) = if local {
        (unsafe { &(*slot).bins[ci] }, CAP[ci] as u32)
    } else if half >= 2 {
        // Remote, and `out_capacity(ci) != 0`: the block goes home
        // through its own anchor, but in company, and no `malloc` of
        // this thread may have it meanwhile.
        (unsafe { &(*slot).out[ci] }, half)
    } else {
        return false;
    };
    let mut n = bin.count.load(Ordering::Relaxed);
    if n >= limit {
        if local {
            unsafe { flush::<S, false>(inner, bin, half) };
            observe::count(inner, my_heap(inner, tb, ci), Count::MagFlush);
        } else {
            unsafe { flush::<S, true>(inner, bin, half) };
            observe::count(inner, my_heap(inner, tb, ci), Count::OutFlush);
        }
        n = bin.count.load(Ordering::Relaxed);
    }
    unsafe { bin.push(ptr, n) };
    if local {
        observe::count(inner, my_heap(inner, tb, ci), Count::FreeCached);
    } else {
        // Counted where `free_remote` would have been: the owning heap,
        // found as `local` was — the descriptor is not read.
        let owner = unsafe { &*inner.heaps.add(ci * inner.nheaps + entry.column()) };
        observe::count(inner, owner, Count::FreeOutbox);
    }
    true
}

/// Local `free` of a mid class. A full bin goes home whole first — where
/// the superblock is those two blocks, as one chain that takes it FULL →
/// EMPTY (`free_impl::close_whole`) — and so does the whole row when
/// this block would take it over [`MID_BUDGET`]. Returns whether
/// anything went home. Inline, like `malloc_mid` (DESIGN.md §21.5).
#[inline(always)]
unsafe fn free_mid<S: PageSource>(inner: &Inner<S>, slot: &Slot, ptr: *mut u8, ci: usize) -> bool {
    // SAFETY: `CACHED_CLASSES <= ci < NUM_CLASSES` (the caller's branch,
    // and a frame entry names a class): both tables have its row.
    let (bin, sz) = unsafe { (slot.mid.get_unchecked(ci - CACHED_CLASSES), *CLASS_SIZES.get_unchecked(ci)) };
    let mut n = bin.count.load(Ordering::Relaxed);
    let mut cached = slot.mid_bytes.load(Ordering::Relaxed);
    let full = n >= MID_BLOCKS as u32;
    let goes_home = full || cached + sz > MID_BUDGET as u32;
    if full {
        cached -= n * sz;
        slot.mid_bytes.store(cached, Ordering::Relaxed);
        unsafe { flush::<S, false>(inner, bin, n) };
        n = 0;
    } else if goes_home {
        unsafe { mid_home(inner, slot) };
        (n, cached) = (0, 0);
    }
    unsafe { bin.push(ptr, n) };
    slot.mid_bytes.store(cached + sz, Ordering::Relaxed);
    goes_home
}

/// Takes the `n` most recently cached blocks of `bin` (all of them if
/// it holds fewer) and returns them to their superblocks, packed if
/// `bin` is an outbox (see [`release_list`]).
unsafe fn flush<S: PageSource, const PACK: bool>(inner: &Inner<S>, bin: &Bin, n: u32) {
    let first = bin.head.load(Ordering::Relaxed);
    if first.is_null() {
        bin.count.store(0, Ordering::Relaxed);
        return;
    }
    let mut last = first;
    let mut taken = 1;
    loop {
        let next = unsafe { *(last as *const *mut u8) };
        if taken == n || next.is_null() {
            // Detach before anything is pushed: from here the blocks
            // are in flight, in neither the magazine nor a free list.
            bin.head.store(next, Ordering::Release);
            let left = if next.is_null() {
                0
            } else {
                bin.count.load(Ordering::Relaxed) - taken
            };
            bin.count.store(left, Ordering::Relaxed);
            unsafe { *(last as *mut *mut u8) = core::ptr::null_mut() };
            break;
        }
        last = next;
        taken += 1;
    }
    unsafe { release_list::<S, PACK>(inner, first) };
}

/// Pushes a null-terminated list of cached blocks back onto their
/// superblocks' free lists: one anchor CAS per run of neighbours in one
/// 16 KiB frame (telling takes no load), one store where the run is the
/// whole superblock (DESIGN.md §21.3). With `PACK` — an outbox's remote
/// blocks, never more than [`MAX_BLOCKS`] — each link word but the
/// last also names the run's next blocks ([`Link::packed`]), so the
/// owner's refill loads one word in five (DESIGN.md §15.7), and the push
/// stores the run's [`Plan`] in the descriptor's `hint`, so the refill
/// loads those words at once (§15.3); a constant,
/// so that a plain chain's copy has no gather buffer to fill. Returns
/// how many blocks that was.
unsafe fn release_list<S: PageSource, const PACK: bool>(inner: &Inner<S>, mut next: *mut u8) -> usize {
    let mut blocks = 0;
    let mut run = [0u32; MAX_BLOCKS + MAX_HOPS as usize];
    while !next.is_null() {
        let first = next as usize;
        let sb = first & !(SB_SIZE - 1);
        let desc_ptr = inner.frames.get(first).desc();
        let desc = unsafe { &*desc_ptr };
        let index = desc.block_indexer();
        let idx = index(first - sb) as u32;
        let (mut last, mut len) = (first, 1);
        run[0] = idx;
        next = unsafe { *(next as *const *mut u8) };
        while next as usize & !(SB_SIZE - 1) == sb {
            let block = next as usize;
            next = unsafe { *(next as *const *mut u8) };
            let i = index(block - sb) as u32;
            if PACK {
                run[len as usize] = i;
            } else {
                unsafe { (*(last as *const AtomicU64)).store(Link::explicit(i).word(), Ordering::Relaxed) };
            }
            last = block;
            len += 1;
        }
        if PACK {
            // Gathered first, so that each word is stored once; the count
            // masks off what the window holds past the run's end.
            let (n, sz) = (len as usize, desc.sz() as usize);
            for i in 0..n - 1 {
                let hops = core::array::from_fn(|d| run[i + 2 + d]);
                let word = Link::explicit(run[i + 1]).packed(hops, (n - 2 - i).min(MAX_HOPS as usize) as u32);
                unsafe { (*((sb + run[i] as usize * sz) as *const AtomicU64)).store(word, Ordering::Relaxed) };
            }
        }
        if len == desc.maxcount() {
            unsafe { crate::free_impl::close_whole(inner, desc_ptr, idx, last, len) };
        } else {
            // An outbox run names the words the owner's walk will read, so
            // that its pop loads them together (DESIGN.md §15.3).
            let plan = if PACK { Plan::of_run(&run[..len as usize]) } else { Plan::NONE };
            unsafe { crate::free_impl::push_free_chain(inner, desc_ptr, idx, last, len, plan) };
        }
        blocks += len as usize;
    }
    blocks
}

/// Sends everything `bin` holds home, packed if it is an outbox;
/// returns how many blocks.
unsafe fn drain_bin<S: PageSource, const PACK: bool>(inner: &Inner<S>, bin: &Bin) -> usize {
    // The pointer list is consistent at every instant, the count is not
    // (a fork can land between a hit's two stores): the list is what
    // gets released, the count is just reset.
    let first = bin.head.swap(core::ptr::null_mut(), Ordering::Acquire);
    bin.count.store(0, Ordering::Relaxed);
    unsafe { release_list::<S, PACK>(inner, first) }
}

/// The mid row goes home: over budget, or with the rest of the slot.
#[cold]
unsafe fn mid_home<S: PageSource>(inner: &Inner<S>, slot: &Slot) -> usize {
    slot.mid_bytes.store(0, Ordering::Relaxed);
    slot.mid.iter().map(|bin| unsafe { drain_bin::<S, false>(inner, bin) }).sum()
}

/// Empties every magazine and outbox of `slot`, and hands its parked
/// large span to the shared level; returns how many blocks went home. The
/// caller owns the slot (claimed its owner word) or the instance is
/// quiescent.
unsafe fn drain_slot<S: PageSource>(inner: &Inner<S>, slot: &Slot) -> usize {
    unsafe { crate::large::give_back(inner, &slot.span) };
    let bins = slot.bins.iter().map(|bin| unsafe { drain_bin::<S, false>(inner, bin) });
    let out = slot.out.iter().map(|bin| unsafe { drain_bin::<S, true>(inner, bin) });
    bins.chain(out).sum::<usize>() + unsafe { mid_home(inner, slot) }
}

/// Returns the calling thread's cached blocks to their superblocks;
/// returns how many.
pub(crate) fn drain_own<S: PageSource>(inner: &Inner<S>) -> usize {
    let Some(entry) = crate::tls::enter_alloc() else {
        return 0; // a signal handler inside the allocator: leave it be
    };
    let slot = slot_of(inner, entry.block());
    if slot.is_null() {
        0
    } else {
        unsafe { drain_slot(inner, &*slot) }
    }
}

/// Returns every cached block of every slot to its superblock, whoever
/// owns it; returns how many. Ownership is untouched: a live owner's
/// next call simply misses.
///
/// # Safety
///
/// Quiescence, as for [`trim`](crate::LfMalloc::trim): no thread may be
/// inside `malloc`/`free` on this instance.
pub(crate) unsafe fn drain_all<S: PageSource>(inner: &Inner<S>) -> usize {
    inner
        .mags
        .slots()
        .iter()
        .map(|s| unsafe { drain_slot(inner, s) })
        .sum()
}

/// Drains and frees up the slots whose owner has exited or was lost in
/// a fork; returns how many blocks went home. Safe under full
/// concurrency: the owner word's CAS elects one drainer, and a dead
/// owner cannot come back.
pub(crate) fn drain_dead<S: PageSource>(inner: &Inner<S>) -> usize {
    let mut blocks = 0;
    for s in inner.mags.slots() {
        let o = s.owner.load(Ordering::Acquire);
        if o != 0
            && !stamp_alive(o)
            && s.owner
                .compare_exchange(o, DRAINING, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
        {
            blocks += unsafe { drain_slot(inner, s) };
            s.owner.store(0, Ordering::Release);
        }
    }
    blocks
}

/// Slots with an owner, alive or not (diagnostics).
pub(crate) fn owned_slots<S: PageSource>(inner: &Inner<S>) -> usize {
    inner
        .mags
        .slots()
        .iter()
        .filter(|s| s.owner.load(Ordering::Relaxed) != 0)
        .count()
}

/// Fork recovery, on the recovering thread: take back the slot this
/// thread owned in the parent (its magazine crossed the fork intact)
/// before [`drain_dead`] treats every parent-era stamp as an orphan.
pub(crate) fn reattach_after_fork<S: PageSource>(inner: &Inner<S>) {
    crate::tls::with_block(|tb| {
        tb.forget_magazine();
        attach(inner, tb);
    });
}

/// Crash-tolerance test hook: the calling thread forgets every slot it
/// owns, in every instance, exactly as if it had been killed — the
/// slots keep naming it, its liveness ticket stays taken, and what they
/// hold (at most [`MAX_CACHED_BYTES`] of blocks and one span of at most
/// [`MAX_THREAD_SPAN`](crate::large::MAX_THREAD_SPAN) per instance) is
/// stranded until `trim`. The thread itself carries on under a new
/// identity.
#[doc(hidden)]
pub fn simulate_killed_thread() {
    crate::tls::with_block(|tb| tb.abandon());
}

/// One cached or parked block as the auditor sees it.
pub(crate) struct CachedBlock {
    pub slot: usize,
    pub class: usize,
    /// Parked in the outbox, not cached in the magazine.
    pub out: bool,
    pub user: usize,
}

/// A magazine or outbox whose count disagrees with its list, or whose
/// list is longer than its bound.
pub(crate) struct Miscount {
    pub slot: usize,
    pub class: usize,
    pub out: bool,
    pub counted: u32,
    pub walked: u32,
    /// [`capacity`] of a magazine, [`out_capacity`] of an outbox.
    pub bound: u32,
}

/// A slot whose mid row holds more than [`MID_BUDGET`], or not what its
/// byte count says.
pub(crate) struct Overdraft {
    pub slot: usize,
    pub counted: u32,
    pub held: u32,
}

/// Every cached and parked block, every [`Miscount`] and every
/// [`Overdraft`]. Walks are cut at the row's bound + 1, so a cyclic list
/// shows as a miscount instead of hanging the audit.
pub(crate) fn snapshot<S: PageSource>(
    inner: &Inner<S>,
) -> (Vec<CachedBlock>, Vec<Miscount>, Vec<Overdraft>) {
    let (mut blocks, mut bad, mut overdrawn) = (Vec::new(), Vec::new(), Vec::new());
    for (si, slot) in inner.mags.slots().iter().enumerate() {
        // (outbox?, bins, class of the first)
        let rows = [
            (false, &slot.bins[..], 0),
            (true, &slot.out[..], 0),
            (false, &slot.mid[..], CACHED_CLASSES),
        ];
        let mut mid_held = 0;
        for (out, row, class0) in rows {
            for (ci, bin) in (class0..).zip(row) {
                let bound = if out { out_capacity(ci) } else { capacity(ci) } as u32;
                let counted = bin.count.load(Ordering::Relaxed);
                let mut p = bin.head.load(Ordering::Acquire);
                let mut walked = 0u32;
                while !p.is_null() && walked <= bound {
                    blocks.push(CachedBlock {
                        slot: si,
                        class: ci,
                        out,
                        user: p as usize,
                    });
                    walked += 1;
                    p = unsafe { *(p as *const *mut u8) };
                }
                if counted != walked || walked > bound {
                    bad.push(Miscount {
                        slot: si,
                        class: ci,
                        out,
                        counted,
                        walked,
                        bound,
                    });
                }
                if ci >= CACHED_CLASSES {
                    mid_held += walked * CLASS_SIZES[ci];
                }
            }
        }
        let counted = slot.mid_bytes.load(Ordering::Relaxed);
        if counted != mid_held || mid_held > MID_BUDGET as u32 {
            overdrawn.push(Overdraft {
                slot: si,
                counted,
                held: mid_held,
            });
        }
    }
    (blocks, bad, overdrawn)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::instance::LfMalloc;
    use malloc_api::RawMalloc;

    #[test]
    fn capacity_table_is_bounded_in_blocks_and_bytes() {
        assert_eq!((CACHED_CLASSES, MID_CLASSES), (33, 24));
        assert_eq!(CLASS_SIZES[CACHED_CLASSES - 1], 1024);
        assert_eq!(MAX_CACHED_BYTES, 79_328 + MID_BUDGET);
        assert_eq!(MAX_CACHED_BYTES, 128_480);
        for ci in 0..NUM_CLASSES {
            let cap = capacity(ci);
            assert!((MID_BLOCKS..=MAX_BLOCKS).contains(&cap), "a refill is half a magazine");
            let own_bound = cap * CLASS_SIZES[ci] as usize <= MAX_CLASS_BYTES;
            assert_eq!(own_bound, ci < CACHED_CLASSES, "the mid classes are a suffix");
            assert!(own_bound || cap == MID_BLOCKS);
        }
        assert_eq!(capacity(0), 32);
        for ci in 0..CACHED_CLASSES {
            let out = out_capacity(ci);
            assert!(out == capacity(ci) / 2 || (out == 0 && capacity(ci) < 4));
        }
        assert_eq!(out_capacity(0), 16);
        assert_eq!(out_capacity(CACHED_CLASSES - 1), 0, "one block is no run");
        // Full bins of all 24 mid classes would be 175 KiB a thread; the
        // budget is 13 blocks of their average size.
        let one_each: usize = (CACHED_CLASSES..NUM_CLASSES).map(|ci| CLASS_SIZES[ci] as usize).sum();
        assert_eq!(MID_BLOCKS * one_each, 179_200);
        assert_eq!(MID_BUDGET / (one_each / MID_CLASSES), 13);
        assert_eq!(core::mem::size_of::<Slot>() % 64, 0);
        assert!(core::mem::size_of::<[Slot; SLOTS]>() <= 96 * 1024);
    }

    #[test]
    fn the_slot_table_is_resident_a_page_at_a_time_whatever_malloc_did_before() {
        use malloc_api::testkit::resident_pages;
        #[cfg(feature = "failpoints")]
        let _quiet = malloc_api::failpoints::no_scenario();
        // As for the frame map's nodes: a `calloc` after this would hand
        // out recycled memory, memset in full.
        for _ in 0..2 {
            drop(std::hint::black_box(vec![1u8; 8 << 20]));
        }
        let a = LfMalloc::with_config(Config::with_heaps(1));
        let table = a.inner().mags.slots;
        assert_eq!(resident_pages(table, TABLE_BYTES), 0, "an untouched table");
        unsafe {
            let p = a.malloc(8);
            // One slot of 1 472 bytes, which may straddle a page boundary.
            assert!(resident_pages(table, TABLE_BYTES) <= 2, "{} pages", resident_pages(table, TABLE_BYTES));
            a.free(p);
        }
    }

    fn desc_of(a: &LfMalloc, block: *mut u8) -> &crate::descriptor::Descriptor {
        unsafe { &*a.inner().frames.get(block as usize).desc() }
    }

    /// Runs `f` on a thread of its own whose heap for `home`'s class is
    /// not `home`.
    fn on_a_remote_thread<R: Send>(
        a: &LfMalloc,
        home: *mut ProcHeap,
        f: impl Fn() -> R + Sync,
    ) -> R {
        let home = home as usize;
        malloc_api::testkit::on_some_thread(|| {
            let ci = unsafe { &*(home as *const ProcHeap) }.class();
            (a.inner().heap_for(ci) as *const ProcHeap as usize != home).then(&f)
        })
    }

    fn parked(a: &LfMalloc) -> Vec<usize> {
        let (blocks, bad, overdrawn) = snapshot(a.inner());
        assert!(bad.is_empty() && overdrawn.is_empty());
        blocks.iter().filter(|b| b.out).map(|b| b.user).collect()
    }

    #[test]
    fn a_freed_block_comes_back_and_its_neighbours_are_not_written() {
        // Magazines step aside while a fault scenario runs.
        #[cfg(feature = "failpoints")]
        let _quiet = malloc_api::failpoints::no_scenario();
        let a = LfMalloc::with_config(Config::with_heaps(1));
        unsafe {
            // Three neighbours, every byte of each the caller's.
            let held: Vec<*mut u8> = (0..3).map(|_| a.malloc(48)).collect();
            let p = held[1];
            assert!(held.iter().all(|q| (*q as usize).abs_diff(p as usize) <= 48));
            for q in &held {
                core::ptr::write_bytes(*q, 0xA5, 48);
            }
            a.free(p);
            let (cached, bad, _) = snapshot(a.inner());
            assert!(bad.is_empty());
            assert!(
                cached.iter().any(|b| b.user == p as usize),
                "local free is cached"
            );
            assert_eq!(a.malloc(40), p, "LIFO hit");
            for q in [held[0], held[2]] {
                assert!((0..48).all(|i| *q.add(i) == 0xA5), "a neighbour was written");
            }
            for q in held {
                a.free(q);
            }
        }
    }

    #[test]
    fn an_overaligned_block_is_cached_like_any_other() {
        #[cfg(feature = "failpoints")]
        let _quiet = malloc_api::failpoints::no_scenario();
        let a = LfMalloc::with_config(Config::with_heaps(1));
        unsafe {
            let p = a.malloc_aligned(100, 128);
            assert_eq!(p as usize % 128, 0);
            assert_eq!(a.usable_size(p), 128, "an ordinary block of the 128-byte class");
            a.free(p);
            assert!(snapshot(a.inner()).0.iter().any(|b| b.user == p as usize));
            assert_eq!(a.malloc_aligned(100, 128), p, "and the magazine serves it again");
            a.free(p);
        }
    }

    #[test]
    fn refill_and_overflow_move_half_a_magazine() {
        // Magazines step aside while a fault scenario runs.
        #[cfg(feature = "failpoints")]
        let _quiet = malloc_api::failpoints::no_scenario();
        let a = LfMalloc::with_config(Config::with_heaps(1));
        let cap = capacity(0);
        let cached = |a: &LfMalloc| snapshot(a.inner()).0.len();
        unsafe {
            // The first miss opens a superblock and takes its half
            // magazine off the front of it.
            let mut held = vec![a.malloc(8)];
            assert_eq!(cached(&a), cap / 2 - 1, "a miss takes half, hands one out");
            // Use those up, then one more refill's worth, from Active now.
            for _ in 0..cap - 1 {
                held.push(a.malloc(8));
            }
            assert_eq!(cached(&a), 0);
            held.push(a.malloc(8));
            assert_eq!(a.flush_thread_cache(), cap / 2 - 1);
            assert!(held.iter().all(|p| !p.is_null()));
            for p in held.drain(..cap) {
                a.free(p);
            }
            assert_eq!(cached(&a), cap, "frees fill the magazine to capacity");
            a.free(held.pop().unwrap());
            assert_eq!(cached(&a), cap - cap / 2 + 1, "an overflow returns half");
            assert!(held.is_empty());
            assert!(a.audit().is_clean());
        }
    }

    /// DESIGN.md §20.2: a refill takes the first `k` positions of the
    /// free list, whatever they are made of — explicit links a flush
    /// wrote, then the run nothing was ever written in — and hands them
    /// out in list order; what it leaves cached goes home through the
    /// same door whoever drains it.
    #[test]
    fn a_refill_crosses_from_explicit_links_into_the_virgin_run() {
        #[cfg(feature = "failpoints")]
        let _quiet = malloc_api::failpoints::no_scenario();
        let a = std::sync::Arc::new(LfMalloc::with_config(Config::with_heaps(1)));
        let k = capacity(0) / 2;
        unsafe {
            // The refill that opens the superblock, straight off the
            // front of the virgin run: ascending, nothing loaded.
            let first: Vec<usize> = (0..k).map(|_| a.malloc(8) as usize).collect();
            let desc = desc_of(&a, first[0] as *mut u8);
            let block = |i: usize| first[0] + 8 * i;
            assert_eq!(first, (0..k).map(block).collect::<Vec<_>>());
            assert_eq!(desc.load_anchor().head(), Link::virgin(k as u32));
            // Three go home in one chain, 3 -> 10 -> 5 -> k | V.
            for i in [5, 10, 3] {
                a.free(block(i) as *mut u8);
            }
            assert_eq!(a.flush_thread_cache(), 3);
            assert_eq!(desc.load_anchor().head(), Link::explicit(3));
            let second: Vec<usize> = (0..k).map(|_| a.malloc(8) as usize).collect();
            let list = [3, 10, 5].into_iter().chain(k..2 * k - 3);
            let want: Vec<usize> = list.map(block).collect();
            assert_eq!(second, want, "three links followed, then counted up");
            assert_eq!(desc.load_anchor().head(), Link::virgin(2 * k as u32 - 3));
            assert!(a.audit().is_clean());

            // A thread exits with a refill's leftovers cached, blocks no
            // application ever saw: `maintain`'s drain links them in.
            let b = std::sync::Arc::clone(&a);
            std::thread::spawn(move || b.free(b.malloc(8))).join().unwrap();
            assert_eq!(drain_dead(a.inner()), k);
            assert!(!desc.load_anchor().virgin());
            let rep = a.audit();
            assert!(rep.is_clean(), "{rep}");
            // And `trim` takes the superblock back once everything is home.
            let still_held = first.iter().filter(|p| !second.contains(p));
            for &p in still_held.chain(&second) {
                a.free(p as *mut u8);
            }
            a.trim();
            assert_eq!(a.os_stats().live_bytes, 0);
            assert!(a.audit().is_clean());
        }
    }

    #[test]
    fn a_remote_block_is_parked_unless_it_would_wait_alone() {
        // Magazines step aside while a fault scenario runs.
        #[cfg(feature = "failpoints")]
        let _quiet = malloc_api::failpoints::no_scenario();
        let a = LfMalloc::with_config(Config::with_heaps(2));
        unsafe {
            // A block freed by a thread on another heap waits in that
            // thread's outbox, where no malloc finds it.
            let p = a.malloc(8) as usize;
            // So does not a block of a class whose half magazine is one
            // block, nor one of a mid class, which has no outbox: those
            // go straight home.
            let lone = a.malloc(1000) as usize;
            let mid = a.malloc(2000) as usize;
            assert_eq!(out_capacity(a.inner().frames.get(lone).class()), 0);
            assert!(a.inner().frames.get(mid).class() >= CACHED_CLASSES);
            assert!(a.flush_thread_cache() > 0, "what the three refills left");
            on_a_remote_thread(&a, desc_of(&a, p as *mut u8).heap(), || {
                a.free(p as *mut u8);
                a.free(lone as *mut u8);
                a.free(mid as *mut u8);
                assert_eq!(parked(&a), [p]);
                let audit = a.audit();
                assert!(audit.is_clean(), "{audit}");
                assert_eq!(audit.magazine_blocks, 1);
                let mine: Vec<_> = (0..3 * capacity(0)).map(|_| a.malloc(8)).collect();
                assert!(mine.iter().all(|&q| !q.is_null() && q as usize != p));
                for q in mine {
                    a.free(q);
                }
                assert_eq!(parked(&a), [p], "local frees leave the outbox alone");
                let both_rows = snapshot(a.inner()).0.len();
                assert!(both_rows > 1);
                assert_eq!(
                    a.flush_thread_cache(),
                    both_rows,
                    "the outbox is flushed too"
                );
                assert!(snapshot(a.inner()).0.is_empty());
            });
            assert!(a.audit().is_clean());
        }
    }

    #[test]
    fn a_full_outbox_goes_home_as_one_run() {
        // Magazines step aside while a fault scenario runs.
        #[cfg(feature = "failpoints")]
        let _quiet = malloc_api::failpoints::no_scenario();
        let a = LfMalloc::with_config(Config::with_heaps(2));
        let k = out_capacity(0);
        unsafe {
            let held: Vec<usize> = (0..k + 1).map(|_| a.malloc(8) as usize).collect();
            let desc = desc_of(&a, held[0] as *mut u8);
            assert!(held
                .iter()
                .all(|&p| core::ptr::eq(desc_of(&a, p as *mut u8), desc)));
            on_a_remote_thread(&a, desc.heap(), || {
                let before = desc.load_anchor().count();
                for &p in &held[..k] {
                    a.free(p as *mut u8);
                }
                assert_eq!(parked(&a).len(), k);
                assert_eq!(
                    desc.load_anchor().count(),
                    before,
                    "nothing has gone home yet"
                );
                // The owner is idle, so the one CAS is all that moves.
                a.free(held[k] as *mut u8);
                assert_eq!(desc.load_anchor().count(), before + k as u32);
                assert_eq!(parked(&a), [held[k]]);
                assert!(a.audit().is_clean());
            });
        }
    }

    /// DESIGN.md §15.7: only an outbox packs. A local overflow's words are
    /// plain links, bits 13–63 zero, and it writes no plan; a remote run's
    /// words also name the run's next blocks, up to four each, and none
    /// past its end, and the descriptor's `hint` names the words a walk of
    /// the run reads (§15.3): positions 0, 5, 10 and 15 of a 16-block run.
    /// Either way the owner's refills hand the blocks out in list order —
    /// the order a walk of the plain links alone finds.
    #[test]
    fn a_remote_run_carries_its_next_blocks_and_a_local_one_does_not() {
        #[cfg(feature = "failpoints")]
        let _quiet = malloc_api::failpoints::no_scenario();
        let a = LfMalloc::with_config(Config::with_heaps(2));
        let (cap, k) = (capacity(0), out_capacity(0));
        let word = |p: usize| unsafe { *(p as *const u64) };
        unsafe {
            let held: Vec<usize> = (0..cap + 1 + 2 * k).map(|_| a.malloc(8) as usize).collect();
            let desc = desc_of(&a, held[0] as *mut u8);
            assert!(held.iter().all(|&p| core::ptr::eq(desc_of(&a, p as *mut u8), desc)));
            // A full magazine's newer half goes home: plain words.
            a.flush_thread_cache();
            for &p in &held[..cap + 1] {
                a.free(p as *mut u8);
            }
            let local: Vec<usize> = held[k..cap].iter().rev().copied().collect();
            assert!(local.iter().all(|&p| word(p) >> 13 == 0), "a local chain has no hops");
            a.flush_thread_cache();
            assert_eq!(desc.hint(), Plan::NONE, "a local chain writes no plan");
            // Two outbox runs go home: one full outbox as the next free
            // parks, one by the thread's own flush.
            let remote = &held[cap + 1..];
            let sb = desc.sb() as usize;
            let idx = |p: usize| ((p - sb) / 8) as u32;
            let newest_first = |r: &[usize]| r.iter().rev().map(|&p| idx(p)).collect::<Vec<_>>();
            let planned = || (0..desc.hint().len()).map(|j| desc.hint().at(j)).collect::<Vec<_>>();
            let every_fifth = |run: &[u32]| [run[0], run[5], run[10], run[15]];
            assert_eq!(k, 16);
            on_a_remote_thread(&a, desc.heap(), || {
                remote.iter().for_each(|&p| a.free(p as *mut u8));
                assert_eq!(planned(), every_fifth(&newest_first(&remote[..k])));
                assert_eq!(a.flush_thread_cache(), k);
            });
            assert_eq!(planned(), every_fifth(&newest_first(&remote[k..])), "the run on top");
            // The list as a plain walk finds it: the second run, then the first.
            let (mut at, mut list) = (desc.load_anchor().head(), Vec::new());
            while list.len() < 2 * k {
                list.push(sb + at.idx() as usize * 8);
                at = Link::from_word(word(list[list.len() - 1]));
            }
            assert!(a.audit().is_clean(), "the hops name what the walk finds");
            let runs = [newest_first(&remote[k..]), newest_first(&remote[..k])];
            assert_eq!(list.iter().map(|&p| idx(p)).collect::<Vec<_>>(), runs.concat());
            for run in &runs {
                for (i, &b) in run[..k - 1].iter().enumerate() {
                    let hops = core::array::from_fn(|d| run.get(i + 2 + d).copied().unwrap_or(0));
                    let n = (k - i - 2).min(4) as u32;
                    assert_eq!(word(sb + b as usize * 8), Link::explicit(run[i + 1]).packed(hops, n));
                }
                assert_eq!(Link::hops(word(sb + run[k - 1] as usize * 8)), 0, "the last word is the push's");
            }
            let again: Vec<usize> = (0..2 * k).map(|_| a.malloc(8) as usize).collect();
            assert_eq!(again, list, "list order");
            again.into_iter().for_each(|p| a.free(p as *mut u8));
            a.flush_thread_cache();
            let rep = a.audit();
            assert!(rep.is_clean(), "{rep}");
        }
    }

    #[test]
    fn an_outbox_holding_two_superblocks_goes_home_as_two_runs() {
        // Magazines step aside while a fault scenario runs.
        #[cfg(feature = "failpoints")]
        let _quiet = malloc_api::failpoints::no_scenario();
        let a = LfMalloc::with_config(Config::with_heaps(2));
        unsafe {
            // 256-byte blocks: 64 to a superblock, outbox of 4.
            let first = a.malloc(256);
            let (da, ci) = (desc_of(&a, first), a.inner().frames.get(first as usize).class());
            assert_eq!(out_capacity(ci), 4);
            let mut held = vec![first];
            while core::ptr::eq(desc_of(&a, held[held.len() - 1]), da) {
                held.push(a.malloc(256));
            }
            held.push(a.malloc(256));
            let db = desc_of(&a, held[held.len() - 1]);
            let from = |d: &crate::descriptor::Descriptor, n: usize| -> Vec<usize> {
                let of_d = held.iter().filter(|&&p| core::ptr::eq(desc_of(&a, p), d));
                of_d.take(n).map(|&p| p as usize).collect()
            };
            let (of_a, of_b) = (from(da, 3), from(db, 2));
            assert_eq!((of_a.len(), of_b.len()), (3, 2));
            on_a_remote_thread(&a, da.heap(), || {
                let (a0, b0) = (da.load_anchor().count(), db.load_anchor().count());
                for &p in of_a[..2].iter().chain(&of_b) {
                    a.free(p as *mut u8);
                }
                assert_eq!(parked(&a).len(), 4);
                a.free(of_a[2] as *mut u8);
                assert_eq!(parked(&a), [of_a[2]]);
                assert_eq!(
                    da.load_anchor().count(),
                    a0 + 2,
                    "the run of the first superblock"
                );
                assert_eq!(db.load_anchor().count(), b0 + 2, "the run of the second");
                assert!(a.audit().is_clean());
            });
        }
    }

    /// `MallocFromPartial`'s line 3 moves the frame's entry with the
    /// descriptor's heap: once another heap has adopted a PARTIAL
    /// superblock, frees of its blocks are local to that heap's threads.
    #[test]
    fn an_adopted_superblocks_entry_follows_it_to_the_new_heap() {
        #[cfg(feature = "failpoints")]
        let _quiet = malloc_api::failpoints::no_scenario();
        let a = LfMalloc::with_config(Config::with_heaps(2));
        let entry_of = |p: usize| a.inner().frames.get(p);
        // Fills two superblocks of `size`-byte blocks and starts a third,
        // then frees a block of the first and one of the second: the
        // second displaces the first from the heap's Partial slot onto
        // the class list, for whichever heap asks next.
        let a_partial_superblock = |size: usize, per_sb: usize| unsafe {
            let held: Vec<usize> = (0..2 * per_sb + 1).map(|_| a.malloc(size) as usize).collect();
            assert_eq!(entry_of(held[0]), entry_of(held[per_sb - 1]));
            assert_ne!(entry_of(held[0]).desc(), entry_of(held[per_sb]).desc());
            for freed in [held[0], held[per_sb]] {
                a.free(freed as *mut u8);
                a.flush_thread_cache();
            }
            held[1]
        };
        unsafe {
            // Class 4096, a mid class: two blocks a refill.
            let theirs = a_partial_superblock(4096, 4);
            let before = entry_of(theirs);
            let home = (*before.desc()).heap();
            assert_eq!(before.column(), a.inner().column_of(&*home));
            on_a_remote_thread(&a, home, || {
                let mine = a.malloc(4096);
                let after = entry_of(theirs);
                assert_eq!(entry_of(mine as usize), after, "adopted off the class list");
                assert_eq!(after.desc(), before.desc());
                assert_ne!(after.column(), before.column(), "the column moved with `heap`");
                assert_eq!(after.column(), a.inner().column_of(&*(*after.desc()).heap()));
                assert!(a.audit().is_clean());
                a.free(mine);
            });
            // A cached class, seen from the magazine: the adopter's free
            // of a block it did not allocate is a hit.
            let theirs = a_partial_superblock(16, 1024);
            let home = (*entry_of(theirs).desc()).heap();
            on_a_remote_thread(&a, home, || {
                let mine = a.malloc(16);
                assert_eq!(entry_of(mine as usize), entry_of(theirs), "adopted");
                a.free(theirs as *mut u8);
                let (cached, ..) = snapshot(a.inner());
                assert!(
                    cached.iter().any(|b| b.user == theirs && !b.out),
                    "local to the adopting heap: cached, not parked"
                );
                assert_eq!(a.malloc(16) as usize, theirs, "and a hit");
            });
            assert!(a.audit().is_clean());
        }
    }

    #[test]
    fn audit_walks_the_outbox_with_its_own_bound() {
        #[cfg(feature = "failpoints")]
        let _quiet = malloc_api::failpoints::no_scenario();
        let a = LfMalloc::with_config(Config::with_heaps(1));
        let checks = |a: &LfMalloc| -> Vec<String> {
            let hits = a.audit().violations;
            hits.iter()
                .map(|v| format!("{} {}", v.check, v.detail))
                .collect()
        };
        unsafe {
            // The ladder serves the first malloc, so the magazine then
            // holds `p` alone and `q` stays allocated.
            let (p, q) = (a.malloc(8), a.malloc(8));
            a.free(p);
            let slots = a.inner().mags.slots();
            let mine = slots
                .iter()
                .find(|s| s.bins[0].head.load(Ordering::Relaxed) == p);
            let out = &mine.expect("this thread's slot caches p").out[0];
            let plant = |head: *mut u8, count: u32| {
                out.head.store(head, Ordering::Relaxed);
                out.count.store(count, Ordering::Relaxed);
            };
            assert!(a.audit().is_clean());
            // One block in both rows.
            plant(p, 1);
            let found = checks(&a);
            assert!(
                found
                    .iter()
                    .any(|v| v.starts_with("mag.block-twice outbox[")),
                "{found:?}"
            );
            // A cycle: the walk stops one past the outbox's bound.
            *(q as *mut *mut u8) = q;
            plant(q, 1);
            let found = checks(&a);
            let miscount = format!(
                "counts 1, holds {} (capacity {})",
                out_capacity(0) + 1,
                out_capacity(0)
            );
            assert!(
                found
                    .iter()
                    .any(|v| v.starts_with("mag.count outbox[") && v.ends_with(&miscount)),
                "{found:?}"
            );
            plant(core::ptr::null_mut(), 0);
            assert!(a.audit().is_clean());
            a.free(q);
        }
    }

    /// The calling thread's slot in `a`, once it has made a call there.
    fn my_slot(a: &LfMalloc) -> &Slot {
        let slot = crate::tls::with_block(|tb| tb.mag.get());
        assert!(a.inner().mags.slots().iter().any(|s| core::ptr::eq(s, slot)));
        unsafe { &*slot }
    }

    /// ROADMAP item 4's cliff, by construction rather than by the clock:
    /// in every class a freed block is the next malloc's, and neither call
    /// touches a shared word — the descriptor's anchor and the heap's
    /// Active word are bit-identical before and after.
    #[test]
    fn every_class_has_a_hit_that_runs_no_cas() {
        #[cfg(feature = "failpoints")]
        let _quiet = malloc_api::failpoints::no_scenario();
        let a = LfMalloc::with_config(Config::with_heaps(1));
        for (ci, &sz) in CLASS_SIZES.iter().enumerate() {
            unsafe {
                let p = a.malloc(sz as usize);
                let (desc, heap) = (desc_of(&a, p), a.inner().heap_for(ci));
                let before = (desc.load_anchor().raw(), heap.load_active().raw());
                a.free(p);
                assert_eq!(a.malloc(sz as usize), p, "class {ci} ({sz} B): LIFO hit");
                let after = (desc.load_anchor().raw(), heap.load_active().raw());
                assert_eq!(before, after, "class {ci} ({sz} B): a hit moved a shared word");
                a.free(p);
                let rep = a.audit();
                assert!(rep.is_clean(), "{rep}");
                // Each class from an empty cache: 57 classes' leftovers
                // together are over the mid row's budget.
                assert_eq!(a.flush_thread_cache(), rep.magazine_blocks);
            }
        }
    }

    /// DESIGN.md §21: a superblock no bigger than a refill is taken whole
    /// when it opens — anchor stored FULL, installed nowhere — and goes
    /// home whole when its bin does: one chain, FULL → EMPTY in one store
    /// (§21.3), and the flusher, who then holds the pair alone, retires
    /// it warm. A delayed actor still holding the FULL anchor loses.
    #[test]
    fn a_two_block_superblock_opens_and_closes_as_one_run() {
        use crate::anchor::SbState;
        #[cfg(feature = "failpoints")]
        let _quiet = malloc_api::failpoints::no_scenario();
        let a = LfMalloc::with_config(Config::with_heaps(1));
        unsafe {
            let p0 = a.malloc(8000);
            let desc = desc_of(&a, p0);
            let opened = desc.load_anchor();
            assert_eq!(
                (opened.head(), opened.count(), opened.state()),
                (Link::virgin(2), 0, SbState::Full)
            );
            let heap = a.inner().heap_for(a.inner().frames.get(p0 as usize).class());
            assert!(heap.load_active().is_null() && heap.load_partial().is_null());
            let p1 = a.malloc(8000);
            assert_eq!(p1 as usize, p0 as usize + 8192, "the other half, cached");
            assert_eq!(desc.load_anchor(), opened);
            let rep = a.audit();
            assert!(rep.is_clean(), "{rep}");
            // A second superblock's pair, so that a third free finds the
            // bin full of the first one's.
            let (q0, q1) = (a.malloc(8000), a.malloc(8000));
            for p in [p0, p1] {
                a.free(p);
            }
            assert_eq!(desc.load_anchor(), opened, "two frees, both cached");
            a.free(q0);
            let closed = desc.load_anchor();
            assert_eq!((closed.state(), closed.count()), (SbState::Empty, desc.maxcount() - 1));
            assert_eq!(closed.tag(), opened.tag(), "a close bumps no tag");
            let warm = a.inner().desc_pool.free_descriptors().0;
            assert!(core::ptr::eq(warm[0], desc), "the pair is on top of warm");
            assert_eq!(desc.cas_anchor(opened, opened), Err(closed), "a stale FULL CAS fails");
            assert!(heap.load_partial().is_null(), "not parked: retired");
            let rep = a.audit();
            assert!(rep.is_clean(), "{rep}");
            assert_eq!((rep.warm_superblocks, rep.parked_superblocks), (1, 0), "{rep}");
            assert_eq!(rep.magazine_blocks, 1);
            a.free(q1);
            assert_eq!(a.flush_thread_cache(), 2);
            assert_eq!(a.audit().warm_superblocks, 2);
            // In the order a stack gives them back the blocks of two
            // superblocks go home one by one, the paper's way: FULL ->
            // PARTIAL -> EMPTY, found parked or swept off the class list.
            let (r0, r1) = (a.malloc(8000), a.malloc(8000));
            let (s0, s1) = (a.malloc(8000), a.malloc(8000));
            for p in [r0, s0, r1, s1] {
                a.free(p);
                assert_eq!(a.flush_thread_cache(), 1);
            }
            let rep = a.audit();
            assert!(rep.is_clean(), "{rep}");
            assert_eq!(rep.warm_superblocks + rep.parked_superblocks, 2, "{rep}");
            a.trim();
            assert_eq!(a.os_stats().live_bytes, 0);
        }
    }

    /// The mid row's one byte budget: filled to exactly [`MID_BUDGET`] it
    /// holds; the next block sends the whole row home first; and the
    /// audit's bounds (`mag.count`: two a bin, `mag.budget`) hold all the
    /// way and catch a planted overdraft.
    #[test]
    fn the_mid_row_fills_to_its_budget_and_then_goes_home() {
        #[cfg(feature = "failpoints")]
        let _quiet = malloc_api::failpoints::no_scenario();
        let a = LfMalloc::with_config(Config::with_heaps(1));
        let clean = |a: &LfMalloc| {
            let rep = a.audit();
            assert!(rep.is_clean(), "{rep}");
            rep.magazine_blocks
        };
        const FILL: [usize; 4] = [8192, 7168, 5120, 4096];
        assert_eq!(2 * FILL.iter().sum::<usize>(), MID_BUDGET);
        unsafe {
            let extra = a.malloc(1152);
            let held: Vec<*mut u8> = FILL.iter().flat_map(|&sz| [a.malloc(sz), a.malloc(sz)]).collect();
            a.flush_thread_cache();
            let slot = my_slot(&a);
            assert_eq!(slot.mid_bytes.load(Ordering::Relaxed), 0);
            let mut bytes = 0;
            for (i, &p) in held.iter().enumerate() {
                a.free(p);
                bytes += FILL[i / 2] as u32;
                assert_eq!(slot.mid_bytes.load(Ordering::Relaxed), bytes);
                assert_eq!(clean(&a), i + 1);
            }
            assert_eq!(bytes as usize, MID_BUDGET, "full to the byte");
            // A hit and the free that undoes it leave the row as it was.
            let top = a.malloc(4096);
            assert_eq!(top, held[7]);
            assert_eq!(slot.mid_bytes.load(Ordering::Relaxed) as usize, MID_BUDGET - 4096);
            a.free(top);
            assert_eq!(clean(&a), 8);
            // One block more than the budget has room for: the row goes
            // home and the block is cached alone.
            a.free(extra);
            assert_eq!(slot.mid_bytes.load(Ordering::Relaxed), 1152);
            assert_eq!(clean(&a), 1);
            assert_eq!(a.malloc(1152), extra);
            // A refill is bounded the same way: what it would leave
            // cached has to fit.
            let held: Vec<*mut u8> = FILL.iter().flat_map(|&sz| [a.malloc(sz), a.malloc(sz)]).collect();
            a.flush_thread_cache();
            held.iter().for_each(|&p| a.free(p));
            assert_eq!(slot.mid_bytes.load(Ordering::Relaxed) as usize, MID_BUDGET);
            let other = a.malloc(2048);
            assert_eq!(slot.mid_bytes.load(Ordering::Relaxed), 2048, "the row went home first");
            assert_eq!(clean(&a), 1);

            // What the audit says when the books are wrong.
            let checks = |a: &LfMalloc| -> Vec<String> {
                let hits = a.audit().violations;
                hits.iter().map(|v| format!("{} {}", v.check, v.detail)).collect()
            };
            slot.mid_bytes.store(4096, Ordering::Relaxed);
            let found = checks(&a);
            assert!(
                found.iter().any(|v| v.starts_with("mag.budget magazine[")
                    && v.contains("counts 4096 mid-class bytes, holds 2048")),
                "{found:?}"
            );
            slot.mid_bytes.store(2048, Ordering::Relaxed);
            // Three blocks in a bin of two.
            let bin = &slot.mid[a.inner().frames.get(other as usize).class() - CACHED_CLASSES];
            let cached = bin.head.load(Ordering::Relaxed);
            let planted = [extra, other];
            *(planted[0] as *mut *mut u8) = planted[1];
            *(planted[1] as *mut *mut u8) = cached;
            bin.head.store(planted[0], Ordering::Relaxed);
            bin.count.store(3, Ordering::Relaxed);
            let found = checks(&a);
            assert!(
                found.iter().any(|v| v.starts_with("mag.count magazine[")
                    && v.ends_with("counts 3, holds 3 (capacity 2)")),
                "{found:?}"
            );
            bin.head.store(cached, Ordering::Relaxed);
            bin.count.store(1, Ordering::Relaxed);
            assert_eq!(clean(&a), 1);
            a.free(other);
            a.free(extra);
            a.trim();
            assert_eq!(a.os_stats().live_bytes, 0);
        }
    }

    /// Every way a slot is emptied reaches the third row and zeroes its
    /// byte count: the owner's own flush, `maintain`'s reap of a dead
    /// owner, adoption by the next thread, and `trim`'s quiescent sweep.
    #[test]
    fn every_drain_covers_the_mid_row() {
        #[cfg(feature = "failpoints")]
        let _quiet = malloc_api::failpoints::no_scenario();
        let a = std::sync::Arc::new(LfMalloc::with_config(Config::with_heaps(1)));
        let mid_bytes = |a: &LfMalloc| -> Vec<u32> {
            let slots = a.inner().mags.slots().iter();
            slots.map(|s| s.mid_bytes.load(Ordering::Relaxed)).filter(|&b| b != 0).collect()
        };
        // A pair of 3000-byte blocks (class 3072) on a thread of its own,
        // which exits with both cached.
        let pair_on_thread = || {
            let a = std::sync::Arc::clone(&a);
            std::thread::spawn(move || unsafe {
                let (p, q) = (a.malloc(3000), a.malloc(3000));
                a.free(p);
                a.free(q);
            })
            .join()
            .unwrap()
        };
        unsafe {
            let p = a.malloc(3000);
            a.free(p);
            assert_eq!(mid_bytes(&a), [2 * 3072]);
            assert_eq!(a.flush_thread_cache(), 2, "drain_own");
            assert!(mid_bytes(&a).is_empty());

            pair_on_thread();
            assert_eq!(mid_bytes(&a), [2 * 3072]);
            assert_eq!(drain_dead(a.inner()), 2, "drain_dead");
            assert!(mid_bytes(&a).is_empty());

            pair_on_thread();
            pair_on_thread(); // adopts the first one's slot, drains it first
            assert_eq!(mid_bytes(&a), [2 * 3072]);
            assert_eq!(snapshot(a.inner()).0.len(), 2);

            let p = a.malloc(3000);
            a.free(p);
            assert_eq!(mid_bytes(&a).len(), 2);
            a.trim(); // drain_all
            assert!(mid_bytes(&a).is_empty());
            assert_eq!(a.os_stats().live_bytes, 0);
            assert!(a.audit().is_clean());
        }
    }

    #[test]
    fn hardened_instances_never_cache_nor_park() {
        let a = LfMalloc::with_config(Config::with_heaps(2).with_hardening(Hardening::Detect));
        unsafe {
            let p = a.malloc(8);
            a.free(p);
            assert!(snapshot(a.inner()).0.is_empty());
            let p = a.malloc(8) as usize;
            on_a_remote_thread(&a, desc_of(&a, p as *mut u8).heap(), || a.free(p as *mut u8));
        }
        assert!(snapshot(a.inner()).0.is_empty());
    }

    /// A hit reads the frame map before anything says the instance is
    /// hardened: what sends a hardened free to validation is that the
    /// thread holds no slot there (`claim`). After 1 000 pairs it still
    /// holds none, and a double free of a small block is still caught.
    #[test]
    fn a_hardened_instance_gives_no_slot_and_still_catches_a_double_free() {
        use crate::harden::MisuseKind;
        #[cfg(feature = "failpoints")]
        let _quiet = malloc_api::failpoints::no_scenario();
        let a = LfMalloc::with_config(Config::with_heaps(1).with_hardening(Hardening::Detect));
        unsafe {
            for _ in 0..1_000 {
                let p = a.malloc(8);
                assert!(!p.is_null());
                a.free(p);
            }
            let (key, slot) = crate::tls::with_block(|tb| (tb.mag_inst.get(), tb.mag.get()));
            assert_eq!(key, a.inner().mags.id, "the thread has looked for a slot");
            assert!(slot.is_null(), "a hardened instance gave the thread a slot");
            let p = a.malloc(8);
            a.free(p);
            a.free(p);
        }
        let c = a.misuse_counters();
        assert_eq!(c.count(MisuseKind::DoubleFree), 1);
        assert_eq!(c.total(), 1);
    }

    /// A fault scenario must reach `free.link` call by call: while one
    /// runs a remote free is pushed, not parked.
    #[cfg(feature = "failpoints")]
    #[test]
    fn fault_scenarios_never_park() {
        use malloc_api::failpoints::{self as fp, FpAction, FpTrigger};
        let a = LfMalloc::with_config(Config::with_heaps(2));
        unsafe {
            let held: Vec<usize> = (0..8).map(|_| a.malloc(8) as usize).collect();
            let _guard = fp::scenario(0x0B0C);
            fp::arm("free.link", FpAction::Yield, FpTrigger::Always);
            on_a_remote_thread(&a, desc_of(&a, held[0] as *mut u8).heap(), || {
                for &p in &held {
                    // Other tests' frees reach the armed site as well.
                    let before = fp::fired("free.link");
                    a.free(p as *mut u8);
                    assert!(fp::fired("free.link") > before);
                }
                assert!(parked(&a).is_empty());
            });
        }
    }

    #[test]
    fn an_exited_threads_slot_is_drained_by_maintain_or_by_its_adopter() {
        // Magazines step aside while a fault scenario runs.
        #[cfg(feature = "failpoints")]
        let _quiet = malloc_api::failpoints::no_scenario();
        let a = std::sync::Arc::new(LfMalloc::with_config(Config::with_heaps(1)));
        // Runs a malloc/free pair of `size` on a thread of its own and
        // reports the class-0 blocks cached when it is done.
        let pair_on_thread = |size: usize| {
            let a = std::sync::Arc::clone(&a);
            std::thread::spawn(move || unsafe {
                let p = a.malloc(size);
                a.free(p);
                snapshot(a.inner())
                    .0
                    .iter()
                    .filter(|b| b.class == 0)
                    .count()
            })
            .join()
            .unwrap()
        };
        let left = pair_on_thread(8);
        assert!(left > 0, "the thread exits with blocks cached");
        assert_eq!(drain_dead(a.inner()), left);
        assert!(snapshot(a.inner()).0.is_empty());
        // Without a maintenance pass the next thread adopts the slot
        // and sends the blocks home before it caches any of its own.
        assert!(pair_on_thread(8) > 0);
        assert_eq!(
            pair_on_thread(24),
            0,
            "the adopter inherited the dead thread's blocks"
        );
        assert!(a.audit().is_clean());
    }
}
