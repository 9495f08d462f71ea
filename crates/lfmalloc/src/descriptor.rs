//! Superblock descriptors and their lock-free recycling pool.
//!
//! Paper, Figure 3:
//!
//! ```text
//! typedef descriptor :
//!     anchor Anchor;     // fits in one atomic block
//!     descriptor* Next;
//!     void* sb;          // pointer to superblock
//!     procheap* heap;    // pointer to owner procheap
//!     unsigned sz;       // block size
//!     unsigned maxcount; // superblock size/sz
//! ```
//!
//! Descriptors are allocated from 16 KiB descriptor superblocks and
//! recycled through `DescAvail`, a lock-free LIFO (§3.2.5, Figure 7).
//! "In the current implementation, superblock descriptors are not reused
//! as regular blocks and cannot be returned to the OS. This is
//! acceptable as descriptors constitute on average less than 1% of
//! allocated memory" — descriptor slabs here live until the instance is
//! torn down or a quiescent `trim` finds one wholly free.
//!
//! # No reclamation scheme (DESIGN.md §17)
//!
//! The paper makes `DescAvail`'s pop ABA-safe with a hazard pointer
//! ("SafeCAS") and routes every retired descriptor through a retire
//! list and a scan. Here `DescRetire` is one push and `DescAlloc` one
//! pop of a [`DescStack`], the tag-protected intrusive LIFO the page
//! pool uses for superblocks, and the argument is the page pool's:
//!
//! * **Type stability.** Descriptor slabs are unmapped only by a
//!   quiescent `trim`, so a popper that read a stale head still reads
//!   a `Descriptor::next` word — atomically, whatever it holds.
//! * **The tag.** Every pop bumps the head's tag, so if that descriptor
//!   left the stack in the meantime (the only way its link can have
//!   changed) the stale CAS fails. The tag is [`DescStack::TAG_BITS`]
//!   = 22 bits wide because the head packs 48-bit addresses
//!   ([`DESC_ADDR_BITS`]); a slab mapped above that is refused as OOM.
//! * **The Anchor's own tag** is never reset: `malloc_from_new_sb`
//!   builds a reused descriptor's anchor from the value it finds, so a
//!   free delayed across a whole life of the descriptor still loses its
//!   CAS.
//!
//! The same link word threads a descriptor through `DescAvail`, the
//! warm stack, the emergency reserve and its size class's partial list
//! ([`crate::partial`]); a descriptor is on at most one of them at a
//! time, because whoever moves it popped it (or carved it) first.
//!
//! # The superblock travels with its descriptor (DESIGN.md §18)
//!
//! An EMPTY superblock stays on its descriptor: the pair is retired onto
//! `warm` and comes back from `DescAlloc` together, fit for any size
//! class. **The superblock belongs to whoever holds the descriptor
//! exclusively** (popped it from a stack, swapped or CASed it out of a
//! heap slot); a thread that merely made it EMPTY holds nothing. So a
//! descriptor on `warm` is EMPTY with `sb` attached, and one on
//! `DescAvail` or the reserve has `sb == null`.
//!
//! # The line map (DESIGN.md §8.2)
//!
//! A descriptor is three cache lines. The first holds `anchor` and
//! `hint` — the words pops and pushes write — and the bitmap's first six
//! words, which only a hardened instance touches. `next`, `sb`, `heap`,
//! `sz`, `maxcount` and `sz_recip` sit on the last: written while a
//! thread holds the descriptor alone, then only read, so every thread
//! keeps a shared copy that the anchor's traffic never invalidates. A
//! `const` assertion pins it; a smaller descriptor needs two lines, not
//! one, for the same reason.

use crate::anchor::{Anchor, Plan};
use crate::config::{SB_SHIFT, SB_SIZE};
use crate::heap::ProcHeap;
use crate::size_classes::{CLASS_SIZES, GEOMETRY};
use core::mem::{offset_of, size_of};
use core::sync::atomic::{AtomicPtr, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use lockfree_structs::TaggedStack;
use osmem::{PagePool, PageSource};

/// Significant bits of a descriptor address as [`DescStack`] packs it:
/// the user half of x86-64's four-level paging (47 bits) and all of
/// aarch64's 48-bit layout, which is what Linux maps without an explicit
/// hint. [`DescriptorPool::alloc`] refuses a slab above it.
pub const DESC_ADDR_BITS: u32 = 48;

/// A tag-protected LIFO of descriptors linked through
/// [`Descriptor::next`]: `DescAvail`, the emergency reserve, and each
/// size class's partial list.
pub type DescStack = TaggedStack<6, { core::mem::offset_of!(Descriptor, next) }, DESC_ADDR_BITS>;

// Parity with the page pool's `TaggedStack<14>`: a stale pop succeeds
// wrongly only after exactly k * 2^TAG_BITS pops in its window.
const _: () = assert!(DescStack::TAG_BITS >= 21);
const _: () = assert!(DescStack::TAG_BITS >= TaggedStack::<14>::TAG_BITS);
const _: () = assert!(core::mem::align_of::<Descriptor>() == 1 << 6);

/// Words in the hardened-mode allocation bitmap: one bit per block of a
/// 16-byte-class superblock (`SB_SIZE / 16` = 1024). A hardened
/// instance opens no superblock with more blocks than that
/// (`alloc::open_sb`), so its 8-byte superblocks use their first half
/// and the descriptor stays 192 bytes (DESIGN.md §8.2).
pub const BITMAP_WORDS: usize = (1 << SB_SHIFT) / 16 / 64;

/// A superblock descriptor (64-byte aligned so the `Active` word can
/// pack credits into the pointer's low bits). Three lines (DESIGN.md
/// §8.2): the first holds the words a pop and a push write — `anchor`
/// and `hint` — and the bitmap's first six words, which only a hardened
/// instance touches; the fields that are only read after a superblock is
/// opened sit on the last, where every thread keeps a shared copy that no
/// anchor CAS invalidates.
#[repr(C, align(64))]
#[derive(Debug)]
pub struct Descriptor {
    /// The packed `(avail, count, state, tag)` word; every state change
    /// of the superblock is one CAS on this field.
    anchor: AtomicU64,
    /// The [`Plan`] of the last outbox run pushed here: which words a pop
    /// of it loads ahead. Not state; see [`hint`](Self::hint).
    hint: AtomicU64,
    /// Hardened-mode allocation bitmap: bit `i` is set while block `i`
    /// is handed out to the application. All zero (and untouched on the
    /// hot paths) when hardening is off; the double-free arbiter when it
    /// is on. Grows the descriptor from 64 to 192 bytes — the paper's
    /// "less than 1% of allocated memory" bound still holds.
    bitmap: [AtomicU64; BITMAP_WORDS],
    /// Link word of whichever [`DescStack`] holds the descriptor
    /// (`DescAvail`, the reserve, or a partial list — one at a time);
    /// stale poppers of any of them may read it at any time, so it is
    /// only ever accessed atomically.
    next: AtomicUsize,
    /// Base address of the described superblock.
    sb: AtomicPtr<u8>,
    /// The processor heap that most recently owned this superblock.
    heap: AtomicPtr<ProcHeap>,
    /// Block size.
    sz: AtomicU32,
    /// Blocks per superblock (`sbsize / sz`).
    maxcount: AtomicU32,
    /// `ceil(2^32 / sz)`: [`block_index`](Self::block_index) divides by
    /// `sz` with one multiply. Written with `sz`.
    sz_recip: AtomicU32,
}

// The line map above, pinned: `anchor` and `hint` share a line, and no
// field but the bitmap's first words shares it with them.
const fn line_of(off: usize, size: usize) -> (usize, usize) {
    (off / 64, (off + size - 1) / 64)
}
const ANCHOR_LINE: usize = line_of(offset_of!(Descriptor, anchor), 8).0;
const _: () = {
    let hint = line_of(offset_of!(Descriptor, hint), 8);
    assert!(hint.0 == ANCHOR_LINE && hint.1 == ANCHOR_LINE);
};
const _: () = {
    let others = [
        line_of(offset_of!(Descriptor, next), 8),
        line_of(offset_of!(Descriptor, sb), 8),
        line_of(offset_of!(Descriptor, heap), 8),
        line_of(offset_of!(Descriptor, sz), 4),
        line_of(offset_of!(Descriptor, maxcount), 4),
        line_of(offset_of!(Descriptor, sz_recip), 4),
    ];
    let mut i = 0;
    while i < others.len() {
        assert!(others[i].0 != ANCHOR_LINE && others[i].1 != ANCHOR_LINE);
        i += 1;
    }
};
const _: () = assert!(size_of::<Descriptor>() == 192);

impl Descriptor {
    /// Loads the anchor with acquire ordering (pairs with the release
    /// CAS of every anchor update).
    #[inline]
    pub fn load_anchor(&self) -> Anchor {
        Anchor::from_raw(self.anchor.load(Ordering::Acquire))
    }

    /// One CAS attempt on the anchor: the paper's
    /// `until CAS(&desc->Anchor, oldanchor, newanchor)` step.
    ///
    /// Release on success publishes the free-list link written before a
    /// free (paper's memory fence, free line 17); acquire on both
    /// outcomes keeps the retry loop reading fresh state.
    #[inline]
    pub fn cas_anchor(&self, old: Anchor, new: Anchor) -> Result<(), Anchor> {
        match self.anchor.compare_exchange(
            old.raw(),
            new.raw(),
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => Ok(()),
            Err(observed) => Err(Anchor::from_raw(observed)),
        }
    }

    /// Stores the anchor outside of any race (superblock construction).
    #[inline]
    pub fn store_anchor(&self, a: Anchor) {
        self.anchor.store(a.raw(), Ordering::Release);
    }

    /// The plan of the last outbox run pushed onto this superblock's
    /// free list ([`Plan::NONE`] if none ever was). `Relaxed` both ways: a
    /// pop uses it only to choose which block words to load before its
    /// walk, and loads each of those itself after its anchor load, so a
    /// stale or racing plan costs loads, never a wrong block.
    #[inline]
    pub fn hint(&self) -> Plan {
        Plan::from_word(self.hint.load(Ordering::Relaxed))
    }

    /// Stores the plan of a run being pushed, between the push's anchor
    /// load and its CAS (`free_impl::push_free_chain`).
    #[inline]
    pub fn set_hint(&self, plan: Plan) {
        self.hint.store(plan.word(), Ordering::Relaxed);
    }

    /// Superblock base address.
    #[inline]
    pub fn sb(&self) -> *mut u8 {
        self.sb.load(Ordering::Relaxed)
    }

    /// Attaches a superblock, or detaches it with null (the exclusive
    /// holder only: construction and `detach_warm`).
    #[inline]
    pub fn set_sb(&self, sb: *mut u8) {
        self.sb.store(sb, Ordering::Relaxed);
    }

    /// Owning heap (the heap the superblock last belonged to).
    #[inline]
    pub fn heap(&self) -> *mut ProcHeap {
        self.heap.load(Ordering::Acquire)
    }

    /// Reassigns the owning heap (`MallocFromPartial` line 3 /
    /// `MallocFromNewSB` line 4).
    #[inline]
    pub fn set_heap(&self, heap: *mut ProcHeap) {
        self.heap.store(heap, Ordering::Release);
    }

    /// Block size.
    #[inline]
    pub fn sz(&self) -> u32 {
        self.sz.load(Ordering::Relaxed)
    }

    /// Sets class `ci`'s block size, its reciprocal (see
    /// [`block_index`](Self::block_index)) and the block count (construction only).
    #[inline]
    pub fn set_class(&self, ci: usize, maxcount: u32) {
        self.sz.store(CLASS_SIZES[ci], Ordering::Relaxed);
        self.sz_recip.store(GEOMETRY[ci].1, Ordering::Relaxed);
        self.maxcount.store(maxcount, Ordering::Relaxed);
    }

    /// `off / sz` for a byte offset `off < SB_SIZE` into the superblock,
    /// without the hardware divide: exact for every class and offset
    /// (see `reciprocal_is_exact_for_every_class_and_offset`).
    #[inline]
    pub fn block_index(&self, off: usize) -> usize {
        self.block_indexer()(off)
    }

    /// [`block_index`](Self::block_index) with the reciprocal loaded once,
    /// for a caller that divides a run's worth of offsets.
    #[inline]
    pub fn block_indexer(&self) -> impl Fn(usize) -> usize + Copy {
        let recip = self.sz_recip.load(Ordering::Relaxed) as u64;
        move |off| {
            debug_assert!(off < (1 << SB_SHIFT));
            ((off as u64 * recip) >> 32) as usize
        }
    }

    /// Blocks per superblock.
    #[inline]
    pub fn maxcount(&self) -> u32 {
        self.maxcount.load(Ordering::Relaxed)
    }

    /// Marks block `idx` allocated (hardened mode); returns `false` if
    /// the bit was already set — an accounting violation, since the
    /// caller holds exclusive rights to a freshly obtained block.
    #[inline]
    pub fn set_alloc_bit(&self, idx: usize) -> bool {
        let prev = self.bitmap[idx / 64].fetch_or(1 << (idx % 64), Ordering::AcqRel);
        prev & (1 << (idx % 64)) == 0
    }

    /// Clears block `idx`'s allocated bit; returns `true` iff this call
    /// cleared it. Concurrent double frees race on this `fetch_and`:
    /// exactly one caller wins, every loser learns the block was already
    /// free — without ever touching the anchor.
    #[inline]
    pub fn clear_alloc_bit(&self, idx: usize) -> bool {
        let prev = self.bitmap[idx / 64].fetch_and(!(1 << (idx % 64)), Ordering::AcqRel);
        prev & (1 << (idx % 64)) != 0
    }

    /// Whether block `idx` is currently marked allocated.
    #[inline]
    pub fn alloc_bit(&self, idx: usize) -> bool {
        self.bitmap[idx / 64].load(Ordering::Acquire) & (1 << (idx % 64)) != 0
    }

    /// Number of blocks marked allocated (audit cross-check).
    pub fn alloc_bit_count(&self) -> u32 {
        self.bitmap.iter().map(|w| w.load(Ordering::Acquire).count_ones()).sum()
    }

    /// Zeroes the bitmap (superblock construction: a recycled descriptor
    /// can carry stale bits from kill-injected frees on its previous
    /// superblock).
    pub fn reset_alloc_bits(&self) {
        for w in &self.bitmap {
            w.store(0, Ordering::Relaxed);
        }
    }
}

/// Descriptors per 16 KiB descriptor superblock.
pub const DESC_PER_SLAB: usize = (1 << SB_SHIFT) / size_of::<Descriptor>();

/// Size of the emergency descriptor reserve (see [`DescriptorPool`]).
///
/// `free()` never allocates a descriptor, but EMPTY-transition
/// processing and partial-list maintenance retire and re-acquire them;
/// 64 descriptors (one quarter slab, 4 KiB) comfortably covers every
/// in-flight descriptor need of a burst of threads while user memory is
/// exhausted.
pub const DESC_RESERVE_TARGET: usize = 64;

/// The descriptor allocation pool: `DescAvail` plus slab refill
/// (Figure 7's `DescAlloc`/`DescRetire`).
#[derive(Debug)]
pub struct DescriptorPool {
    /// Retired descriptors that still own their EMPTY superblock; popped
    /// before `avail`, which saves the page pool's pop and push.
    warm: DescStack,
    /// `DescAvail`: retired descriptors with no superblock attached.
    avail: DescStack,
    /// Emergency reserve, consulted only when both `avail` and the slab
    /// refill path come up empty. Topped back up opportunistically from
    /// fresh slabs and from retired descriptors, so descriptor
    /// allocation keeps succeeding during an OS outage.
    reserve: DescStack,
    /// Approximate occupancy of `reserve` (monotone counters around the
    /// pushes/pops; small transient miscounts are harmless — they only
    /// bias a descriptor toward one stack or the other).
    reserve_len: AtomicUsize,
    /// Descriptor superblocks; released only by `trim` and at teardown.
    pub(crate) slabs: PagePool<SB_SHIFT>,
}

impl DescriptorPool {
    /// Creates an empty pool.
    pub const fn new() -> Self {
        DescriptorPool {
            warm: DescStack::new(),
            avail: DescStack::new(),
            reserve: DescStack::new(),
            reserve_len: AtomicUsize::new(0),
            slabs: PagePool::new(1),
        }
    }

    /// `DescAlloc`: pops an available descriptor (a warm one before a
    /// bare one), refilling from a fresh descriptor superblock when there
    /// is none. As in Figure 7, the rest of a fresh slab is linked
    /// privately and installed with one CAS (two when part of it tops up
    /// the reserve).
    ///
    /// # Safety
    ///
    /// `source` must be the pool's page source.
    pub unsafe fn alloc<S: PageSource>(&self, source: &S) -> *mut Descriptor {
        let fp = malloc_api::fail_point!("desc.alloc");
        if fp.kill {
            return core::ptr::null_mut(); // the caller sees OOM
        }
        if !fp.retry {
            // `retry` skips the `DescAvail` fast path once, forcing the
            // slab-refill slow path even when descriptors are available.
            if let Some(d) = unsafe { self.pop_free() } {
                return d;
            }
        }
        let mut slab = self.slabs.alloc(source);
        if !slab.is_null() && (slab as usize + SB_SIZE) > (1usize << DESC_ADDR_BITS) {
            // The stack heads cannot pack this address: to the
            // descriptor pool it is no memory at all.
            unsafe { self.slabs.dealloc(slab) };
            slab = core::ptr::null_mut();
        }
        if slab.is_null() {
            // OS exhausted; one more look at the free list, then the
            // emergency reserve — this is the path that keeps EMPTY-
            // transition processing alive while user memory is gone.
            if let Some(d) = unsafe { self.pop_free() } {
                return d;
            }
            if let Some(d) = unsafe { self.reserve.pop() } {
                self.reserve_len.fetch_sub(1, Ordering::Relaxed);
                return d as *mut Descriptor;
            }
            return core::ptr::null_mut();
        }
        // The slab arrives zeroed (mmap semantics): all-zero bytes are a
        // valid Descriptor (null pointers, zero anchor). Slot 0 is the
        // caller's; slots 1.. are chained here, where nobody else can see
        // them, then the front of the chain tops up the emergency reserve
        // and the rest feeds `DescAvail`.
        let descs = slab as *mut Descriptor;
        let slot = |i: usize| unsafe { descs.add(i) } as usize;
        for i in 1..DESC_PER_SLAB - 1 {
            unsafe { (*descs.add(i)).next.store(slot(i + 1), Ordering::Relaxed) };
        }
        // Claim the reserve's shortfall before filling it, so two
        // threads carving at once do not both fill it.
        let room = self
            .reserve_len
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < DESC_RESERVE_TARGET).then_some(DESC_RESERVE_TARGET)
            })
            .map_or(0, |n| DESC_RESERVE_TARGET - n);
        const _: () = assert!(DESC_RESERVE_TARGET < DESC_PER_SLAB - 1);
        if room > 0 {
            unsafe { self.reserve.push_chain(slot(1), slot(room)) };
        }
        unsafe { self.avail.push_chain(slot(1 + room), slot(DESC_PER_SLAB - 1)) };
        descs
    }

    /// Warm before cold: the pop shared by `alloc`'s two looks.
    unsafe fn pop_free(&self) -> Option<*mut Descriptor> {
        unsafe { self.warm.pop().or_else(|| self.avail.pop()) }.map(|d| d as *mut Descriptor)
    }

    /// `DescRetire`: one push, onto `warm` when the descriptor still owns
    /// a superblock. The descriptor is reusable at once; what keeps a
    /// thread that still holds a stale pointer to it harmless is spelled
    /// out in the [module docs](self).
    ///
    /// # Safety
    ///
    /// `desc` must be a descriptor of this pool, unreachable from every
    /// allocator structure, and EMPTY if a superblock is attached.
    pub unsafe fn retire(&self, desc: *mut Descriptor) {
        if malloc_api::fail_point!("desc.retire").kill {
            return; // died before retiring: the descriptor (and its superblock) leak
        }
        if unsafe { (*desc).sb() }.is_null() {
            unsafe { self.put_free(desc) }
        } else {
            unsafe { self.warm.push(desc as usize) }
        }
    }

    /// Takes the superblock off every warm descriptor, hands it to
    /// `release`, and moves the descriptor to the cold stacks (`trim`,
    /// before it looks for fully free hyperblocks).
    ///
    /// # Safety
    ///
    /// Requires quiescence, like [`trim`](Self::trim).
    pub unsafe fn detach_warm(&self, mut release: impl FnMut(*mut u8)) {
        while let Some(d) = unsafe { self.warm.pop() } {
            let desc = d as *mut Descriptor;
            unsafe {
                release((*desc).sb());
                (*desc).set_sb(core::ptr::null_mut());
                self.put_free(desc);
            }
        }
    }

    /// Refills the emergency reserve before the general free list, so an
    /// outage-depleted reserve recovers as load continues.
    unsafe fn put_free(&self, desc: *mut Descriptor) {
        if self.reserve_len.load(Ordering::Relaxed) < DESC_RESERVE_TARGET {
            unsafe { self.reserve.push(desc as usize) };
            self.reserve_len.fetch_add(1, Ordering::Relaxed);
        } else {
            unsafe { self.avail.push(desc as usize) };
        }
    }

    /// Number of descriptor slabs mapped (diagnostics; "less than 1% of
    /// allocated memory" in the paper's accounting).
    pub fn slab_count(&self) -> usize {
        self.slabs.hyperblock_count()
    }

    /// Bytes mapped for descriptor slabs (audit accounting).
    pub fn mapped_bytes(&self) -> usize {
        self.slabs.mapped_bytes()
    }

    /// Every descriptor slot in every slab, whether handed out or still
    /// on `DescAvail`. The slab registry is append-only, so this is a
    /// valid prefix even under concurrency.
    pub fn all_descriptors(&self) -> Vec<*mut Descriptor> {
        let mut out = Vec::new();
        for (base, bytes) in self.slabs.hyperblocks() {
            let n = bytes / core::mem::size_of::<Descriptor>();
            let descs = base as *mut Descriptor;
            for i in 0..n {
                out.push(unsafe { descs.add(i) });
            }
        }
        out
    }

    /// Calls `f` with every descriptor slot without allocating — the
    /// crash-forensics variant of
    /// [`all_descriptors`](Self::all_descriptors). The slab registry
    /// walk is the same lock-free chain as [`owns_addr`](Self::owns_addr), so
    /// this is safe from a signal handler; slot *contents* are as
    /// untrusted as ever.
    pub fn for_each_descriptor(&self, mut f: impl FnMut(*mut Descriptor)) {
        self.slabs.for_each_region(|base, bytes| {
            let n = bytes / core::mem::size_of::<Descriptor>();
            let descs = base as *mut Descriptor;
            for i in 0..n {
                f(unsafe { descs.add(i) });
            }
        });
    }

    /// Whether `addr` lies anywhere inside this pool's slab mappings:
    /// the "is this descriptor metadata?" question `describe_ptr` asks
    /// about arbitrary addresses. Lock-free and allocation-free.
    pub fn owns_addr(&self, addr: usize) -> bool {
        self.slabs.owning_region(addr).is_some()
    }

    /// Descriptors currently free: the warm stack's (superblock
    /// attached), then the cold ones — `DescAvail`'s and the emergency
    /// reserve's.
    ///
    /// # Safety
    ///
    /// Requires quiescence: no concurrent `alloc`/`retire`.
    pub unsafe fn free_descriptors(&self) -> (Vec<*mut Descriptor>, Vec<*mut Descriptor>) {
        let as_descs = |v: Vec<usize>| v.into_iter().map(|a| a as *mut Descriptor).collect();
        let mut cold = unsafe { self.avail.snapshot() };
        cold.extend(unsafe { self.reserve.snapshot() });
        (as_descs(unsafe { self.warm.snapshot() }), as_descs(cold))
    }

    /// Approximate emergency-reserve occupancy (diagnostics).
    pub fn reserve_len(&self) -> usize {
        self.reserve_len.load(Ordering::Relaxed)
    }

    /// Descriptors on `DescAvail`, in the reserve and on the warm stack
    /// right now, by walking each (diagnostics; see [`walk_len`]).
    pub fn free_counts(&self) -> (usize, usize, usize) {
        (self.free_count(0), self.free_count(1), self.free_count(2))
    }

    /// Field `i` of [`free_counts`](Self::free_counts): one stack's walk.
    pub fn free_count(&self, i: usize) -> usize {
        walk_len([&self.avail, &self.reserve, &self.warm][i], self.slot_count())
    }

    /// Descriptor slots carved so far: [`DESC_PER_SLAB`] per mapped slab.
    pub fn slot_count(&self) -> usize {
        self.slab_count() * DESC_PER_SLAB
    }

    /// Unmaps descriptor slabs whose [`DESC_PER_SLAB`] slots are all
    /// free, returning the bytes released. Surviving free descriptors are re-stacked
    /// reserve-first so the emergency reserve stays topped up.
    ///
    /// # Safety
    ///
    /// Requires quiescence: nothing else may touch this pool or any of
    /// its descriptors meanwhile — not a diagnostics walk either — and
    /// `source` must be the pool's page source. This is the one place a
    /// descriptor's memory goes away, and the reason every other
    /// operation may treat descriptors as type-stable.
    pub unsafe fn trim<S: PageSource>(&self, source: &S) -> usize {
        let mut free: Vec<*mut Descriptor> = Vec::new();
        while let Some(d) = unsafe { self.avail.pop() } {
            free.push(d as *mut Descriptor);
        }
        while let Some(d) = unsafe { self.reserve.pop() } {
            free.push(d as *mut Descriptor);
        }
        self.reserve_len.store(0, Ordering::Relaxed);
        // A slab is a trim victim iff every one of its slots is free.
        let mut victims: Vec<(usize, usize)> = Vec::new();
        for (base, bytes) in self.slabs.hyperblocks() {
            let (base, n) = (base as usize, bytes / core::mem::size_of::<Descriptor>());
            let free_here =
                free.iter().filter(|&&d| (d as usize) >= base && (d as usize) < base + bytes).count();
            if free_here == n {
                victims.push((base, bytes));
            }
        }
        for &(base, bytes) in &victims {
            free.retain(|&d| (d as usize) < base || (d as usize) >= base + bytes);
            unsafe { self.slabs.dealloc(base as *mut u8) };
        }
        for d in free {
            unsafe { self.put_free(d) };
        }
        unsafe { self.slabs.trim(source) }
    }

    /// Releases all descriptor slabs.
    ///
    /// # Safety
    ///
    /// Exclusive quiescence; every descriptor becomes dangling.
    pub unsafe fn release_all<S: PageSource>(&self, source: &S) {
        unsafe { self.slabs.release_all(source) };
    }
}

impl Default for DescriptorPool {
    fn default() -> Self {
        Self::new()
    }
}

/// Number of descriptors on `stack` that `want` accepts, by following
/// the links from its top, for diagnostics. Safe beside concurrent pushes
/// and pops — a `next` word only ever holds a descriptor address or 0,
/// and descriptors are type-stable — but then the walk may cross into
/// another stack through a descriptor that moved, so the answer is a
/// hint, and `limit` (the number of descriptors there are) is what ends
/// a walk gone astray.
pub(crate) fn walk_count(
    stack: &DescStack,
    limit: usize,
    mut want: impl FnMut(&Descriptor) -> bool,
) -> usize {
    let (mut seen, mut n) = (0, 0);
    let mut p = stack.top();
    while p != 0 && seen < limit {
        let desc = unsafe { &*(p as *const Descriptor) };
        seen += 1;
        n += want(desc) as usize;
        p = desc.next.load(Ordering::Relaxed);
    }
    n
}

/// Length of `stack` (see [`walk_count`]).
pub(crate) fn walk_len(stack: &DescStack, limit: usize) -> usize {
    walk_count(stack, limit, |_| true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anchor::SbState;
    use osmem::SystemSource;

    #[test]
    fn descriptor_is_cacheline_aligned_with_bitmap() {
        // 40 bytes of paper fields + the reciprocal and hint words +
        // 128 bytes of allocation bitmap, rounded to the 64-byte
        // alignment the Active word needs.
        assert_eq!(core::mem::size_of::<Descriptor>(), 192);
        assert_eq!(core::mem::align_of::<Descriptor>(), 64);
        assert_eq!(DESC_PER_SLAB, 85);
        // The bitmap covers a superblock of 16-byte blocks, and half of
        // one of 8-byte blocks — all a hardened instance opens of it.
        assert_eq!(BITMAP_WORDS * 64, (1 << SB_SHIFT) / 16);
    }

    #[test]
    fn reciprocal_is_exact_for_every_class_and_offset() {
        use crate::config::SB_SIZE;
        use crate::size_classes::CLASS_SIZES;
        let src = SystemSource::new();
        let pool = Box::new(DescriptorPool::new());
        let d = unsafe { &*pool.alloc(&src) };
        assert_eq!(CLASS_SIZES[0], 8, "the densest class is covered");
        for (ci, &sz) in CLASS_SIZES.iter().enumerate() {
            d.set_class(ci, GEOMETRY[ci].0);
            for off in 0..SB_SIZE {
                assert_eq!(d.block_index(off), off / sz as usize, "sz {sz}, off {off}");
            }
        }
        unsafe { pool.release_all(&src) };
    }

    #[test]
    fn alloc_bits_set_clear_and_race_semantics() {
        let src = SystemSource::new();
        let pool = Box::new(DescriptorPool::new());
        unsafe {
            let d = &*pool.alloc(&src);
            assert_eq!(d.alloc_bit_count(), 0, "fresh descriptor starts clear");
            assert!(d.set_alloc_bit(0));
            assert!(d.set_alloc_bit(1023), "highest 16-byte-class index");
            assert!(!d.set_alloc_bit(0), "re-set reports the violation");
            assert_eq!(d.alloc_bit_count(), 2);
            assert!(d.alloc_bit(0) && d.alloc_bit(1023) && !d.alloc_bit(7));
            assert!(d.clear_alloc_bit(0), "first clear wins");
            assert!(!d.clear_alloc_bit(0), "second clear is the double free");
            d.reset_alloc_bits();
            assert_eq!(d.alloc_bit_count(), 0);
        }
        unsafe { pool.release_all(&src) };
    }

    #[test]
    fn pool_allocates_distinct_aligned_descriptors() {
        let src = SystemSource::new();
        let pool = Box::new(DescriptorPool::new());
        let mut seen = std::collections::HashSet::new();
        unsafe {
            for _ in 0..DESC_PER_SLAB * 2 + 3 {
                let d = pool.alloc(&src);
                assert!(!d.is_null());
                assert_eq!(d as usize % 64, 0);
                assert!(seen.insert(d as usize), "descriptor handed out twice");
            }
        }
        assert_eq!(pool.slab_count(), 3);
        unsafe { pool.release_all(&src) };
    }

    #[test]
    fn retired_descriptor_is_recycled() {
        let src = SystemSource::new();
        let pool = Box::new(DescriptorPool::new());
        unsafe {
            let first = pool.alloc(&src);
            pool.retire(first);
            // With one slab of fresh descriptors available the recycled
            // one sits on top of the LIFO.
            let again = pool.alloc(&src);
            assert_eq!(again, first, "retired descriptor should be reused first");
        }
        unsafe { pool.release_all(&src) };
    }

    /// DESIGN.md §18: a descriptor retired with its superblock attached
    /// waits on the warm stack and is what `DescAlloc` hands out first;
    /// one retired without goes cold; `detach_warm` is the only thing
    /// that takes a superblock off a retired descriptor, and it clears
    /// the pointer.
    #[test]
    fn a_retired_pair_comes_back_warm_and_detaches_cold() {
        let src = SystemSource::new();
        let pool = Box::new(DescriptorPool::new());
        let sbs: PagePool<SB_SHIFT> = PagePool::new(4);
        unsafe {
            let (bare, paired) = (pool.alloc(&src), pool.alloc(&src));
            let sb = sbs.alloc(&src);
            (*paired).set_sb(sb);
            (*paired).store_anchor(Anchor::new(0, 1, SbState::Empty));
            let cold_before = pool.free_counts();
            pool.retire(paired);
            pool.retire(bare);
            assert_eq!(pool.free_counts().2, 1, "the pair is warm");
            let (warm, cold) = pool.free_descriptors();
            assert_eq!(warm, vec![paired]);
            assert!(cold.contains(&bare) && cold.iter().all(|d| (**d).sb().is_null()));
            assert_eq!(pool.alloc(&src), paired, "warm before DescAvail");
            assert_eq!((*paired).sb(), sb, "and its superblock came along");
            pool.retire(paired);
            let mut released = Vec::new();
            pool.detach_warm(|sb| released.push(sb));
            assert_eq!(released, vec![sb]);
            assert!((*paired).sb().is_null(), "a cold descriptor names no superblock");
            let (avail, reserve, warm) = pool.free_counts();
            assert_eq!(warm, 0);
            assert_eq!(avail + reserve, cold_before.0 + cold_before.1 + 2);
            sbs.dealloc(sb);
            sbs.release_all(&src);
            pool.release_all(&src);
        }
    }

    #[test]
    fn anchor_cas_failure_returns_observed() {
        let src = SystemSource::new();
        let pool = Box::new(DescriptorPool::new());
        unsafe {
            let d = &*pool.alloc(&src);
            let a0 = d.load_anchor();
            let a1 = a0.with_count(5).with_state(SbState::Partial);
            d.cas_anchor(a0, a1).unwrap();
            // Stale CAS must fail and report the current value.
            let err = d.cas_anchor(a0, a0.with_count(9)).unwrap_err();
            assert_eq!(err.raw(), a1.raw());
        }
        unsafe { pool.release_all(&src) };
    }

    #[test]
    fn reserve_keeps_alloc_alive_when_source_is_dead() {
        use osmem::FlakySource;
        let src = FlakySource::new(SystemSource::new(), 1);
        let pool = Box::new(DescriptorPool::new());
        unsafe {
            // First slab succeeds and seeds the reserve.
            let d = pool.alloc(&src);
            assert!(!d.is_null());
            assert_eq!(pool.reserve_len(), DESC_RESERVE_TARGET);
            // Exhaust DescAvail (the fresh slab minus the reserve minus
            // the one handed out), with the source now dead.
            for _ in 0..(DESC_PER_SLAB - 1 - DESC_RESERVE_TARGET) {
                assert!(!pool.alloc(&src).is_null());
            }
            // The reserve now carries allocation through the outage.
            for i in 0..DESC_RESERVE_TARGET {
                assert!(!pool.alloc(&src).is_null(), "reserve pop {i} failed");
            }
            assert_eq!(pool.reserve_len(), 0);
            assert!(pool.alloc(&src).is_null(), "everything truly exhausted");
            assert!(src.denials() > 0);
            // Retired descriptors refill the reserve first.
            pool.retire(d);
            assert_eq!(pool.reserve_len(), 1);
            assert!(!pool.alloc(&src).is_null());
        }
        unsafe { pool.release_all(&src) };
    }

    #[test]
    fn trim_releases_fully_free_slabs_and_restacks_reserve_first() {
        use osmem::{CountingSource, SystemSource};
        let src = CountingSource::new(SystemSource::new());
        let pool = Box::new(DescriptorPool::new());
        unsafe {
            // Two slabs: hold one descriptor from the first slab live.
            let _held = pool.alloc(&src);
            let mut handed = Vec::new();
            for _ in 0..DESC_PER_SLAB {
                let d = pool.alloc(&src);
                assert!(!d.is_null());
                handed.push(d);
            }
            assert_eq!(pool.slab_count(), 2);
            // Retire everything except `held`, then trim: the
            // second slab becomes fully free and is unmapped; the first
            // survives because of `held`.
            for d in handed {
                pool.retire(d);
            }
            let released = pool.trim(&src);
            assert_eq!(released, 1 << SB_SHIFT, "one slab released");
            assert_eq!(pool.slab_count(), 1);
            assert_eq!(pool.reserve_len(), DESC_RESERVE_TARGET, "reserve re-topped");
            // Pool still functions.
            assert!(!pool.alloc(&src).is_null());
        }
        unsafe { pool.release_all(&src) };
        assert_eq!(src.stats().live_bytes, 0);
    }

    #[test]
    fn fresh_descriptor_fields_are_zero() {
        let src = SystemSource::new();
        let pool = Box::new(DescriptorPool::new());
        unsafe {
            let d = &*pool.alloc(&src);
            assert!(d.sb().is_null());
            assert!(d.heap().is_null());
            assert_eq!(d.sz(), 0);
            assert_eq!(d.load_anchor().raw(), 0);
        }
        unsafe { pool.release_all(&src) };
    }

    /// The argument that replaced SafeCAS, one step at a time (the same
    /// shape as `osmem::pool`'s test, on `DescAvail`): A is frozen in
    /// `DescAlloc` between reading the top descriptor's link and its
    /// CAS; B allocates that descriptor and the next, and retires the
    /// first, which is reusable at once and so back on top with a new
    /// link. A's CAS sees the address it expects under a tag it does
    /// not, fails, and retries; nothing is handed out twice.
    #[cfg(feature = "failpoints")]
    #[test]
    fn a_stale_desc_alloc_loses_to_the_head_tag() {
        use malloc_api::failpoints::{self as fp, FpAction, FpTrigger};
        let _guard = fp::scenario(0xABA);
        let src = SystemSource::new();
        let pool = Box::new(DescriptorPool::new());
        let first = unsafe { pool.alloc(&src) } as usize; // carves the slab
        let (avail, reserve, _) = pool.free_counts();
        assert_eq!(avail, DESC_PER_SLAB - 1 - DESC_RESERVE_TARGET);
        assert_eq!(reserve, DESC_RESERVE_TARGET);
        fp::arm_limited("stack.pop", FpAction::Park, FpTrigger::Always, 1);
        std::thread::scope(|s| {
            let a = s.spawn(|| unsafe { pool.alloc(&src) } as usize);
            while fp::fired("stack.pop") == 0 {
                std::thread::yield_now();
            }
            let (x, y) = unsafe { (pool.alloc(&src), pool.alloc(&src)) };
            unsafe { pool.retire(x) };
            fp::disarm("stack.pop");
            let got = a.join().unwrap();
            assert_eq!(got, x as usize, "A retried and popped the real top");
            let mut seen = std::collections::HashSet::from([first, got, y as usize]);
            assert_eq!(seen.len(), 3);
            // Everything still free comes out once, and that is all of it.
            for _ in 0..avail - 2 {
                assert!(seen.insert(unsafe { pool.alloc(&src) } as usize), "handed out twice");
            }
            assert_eq!(pool.free_counts(), (0, reserve, 0), "DescAvail conserved");
            assert_eq!(pool.slab_count(), 1);
        });
        unsafe { pool.release_all(&src) };
    }

    /// Every life of a superblock opened for the same caller starts at the
    /// same `take | V` (DESIGN.md §20.3) — here a two-block superblock a
    /// magazine refill takes whole, `2 | V` and FULL (§21). No popper of
    /// one life can still be walking in the next — a reservation keeps the
    /// superblock from going EMPTY — but were a CAS delayed across a whole
    /// life, it would meet the same `avail`, `count` and state under
    /// another tag: the anchor of a reopened descriptor is built on the
    /// one it finds, and every open and every pop, virgin or not, bumps it.
    #[test]
    fn the_same_virgin_head_in_the_next_life_carries_another_tag() {
        use crate::anchor::{Link, SbState};
        use crate::instance::LfMalloc;
        use malloc_api::RawMalloc;
        #[cfg(feature = "failpoints")]
        let _quiet = malloc_api::failpoints::no_scenario();
        let a = LfMalloc::with_config(crate::config::Config::with_heaps(1));
        unsafe {
            let p = a.malloc(8000); // two blocks to a superblock, both taken
            let desc = &*a.inner().frames.get(p as usize).desc();
            let first_life = desc.load_anchor();
            assert_eq!((first_life.head(), first_life.state()), (Link::virgin(2), SbState::Full));
            let q = a.malloc(8000);
            assert_eq!(desc.load_anchor(), first_life, "a hit: no pop");
            a.free(p);
            a.free(q);
            // One chain, FULL → EMPTY, and the pair is retired warm.
            assert_eq!(a.flush_thread_cache(), 2);
            assert_eq!(desc.load_anchor().state(), SbState::Empty);
            assert_eq!(a.malloc(8000), p, "popped off the warm stack and reopened");
            let next_life = desc.load_anchor();
            assert_eq!(
                (next_life.head(), next_life.count(), next_life.state()),
                (first_life.head(), first_life.count(), first_life.state())
            );
            assert_eq!(next_life.tag(), first_life.tag() + 1, "one reopen");
            let stale = first_life.with_head(Link::explicit(0)).with_state(SbState::Partial);
            assert_eq!(desc.cas_anchor(first_life, stale), Err(next_life));
            a.free(p);
        }
    }
}
