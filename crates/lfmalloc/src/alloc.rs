//! The malloc paths — a faithful transcription of the paper's Figure 4.
//!
//! `malloc` tries, in order: (1) the heap's active superblock, (2) a
//! partial superblock, (3) a new superblock, looping on transient
//! failures ("the thread tries the following in order until it allocates
//! a block").
//!
//! One departure (DESIGN.md §18): an EMPTY superblock stays on its
//! descriptor. Arm (2) *reopens* an EMPTY descriptor it takes instead of
//! retiring it, arm (3) asks the page pool only when `DescAlloc` returned
//! a descriptor without a superblock, and a lost install retires the pair
//! together, onto the warm stack. Both arms end in [`open_sb`]. Before
//! arm (3) maps a hyperblock or reports OOM it prunes the EMPTY pairs
//! parked under other classes onto that stack.
//!
//! Second departure (DESIGN.md §19): a block is handed out as it is,
//! from its first byte — no prefix is written (Figure 4's line 21,
//! `*addr = desc; return addr+EIGHTBYTES`, is gone). What `free` needs is
//! in the frame map, written once per superblock by [`open_sb`] and
//! kept current by `MallocFromPartial`'s line 3. An over-aligned request
//! is an ordinary block of a class whose size the alignment divides.
//!
//! Third departure (DESIGN.md §20): `open_sb` links nothing. Figure 4's
//! line 3 is gone; the anchor's virgin flag says the blocks from `avail`
//! up are free, in order and never written, and both pops step through
//! such a run by addition (`walk`).
//!
//! Fourth departure (DESIGN.md §21): the ladder carries a block count.
//! [`malloc_run`] is Figure 4's `malloc` asked for up to `k` blocks — a
//! magazine refill — and `k == 1` is the paper's. `MallocFromActive` pops
//! `k` (§15.3), `open_sb` hands its caller the first `min(k, maxcount)`
//! blocks of the superblock it opens — all of them when the superblock
//! is no bigger than the refill, in which case it is born FULL and
//! installed nowhere — and `MallocFromPartial` on a PARTIAL superblock
//! stays the paper's one block.
//!
//! The `k`-block pop reads the descriptor's `hint` with its anchor, from
//! the same cache line (DESIGN.md §15.3): when it names the head, the
//! walk's words are loaded all at once, and the walk then follows them
//! exactly as it would have loaded them one by one. The hint is no
//! state; the CAS still decides.

use crate::active::Active;
use crate::anchor::{Ahead, Link, Plan, SbState};
use crate::config::MAX_CREDITS;
use crate::descriptor::{Descriptor, BITMAP_WORDS};
use crate::framemap::Entry;
use crate::heap::ProcHeap;
use crate::instance::Inner;
use crate::maintain::{prune_empty, MaintenanceBudget};
use crate::observe::{self, Count, EventKind, Lat, Retries, Site, Timer};
use crate::size_classes::GEOMETRY;
use core::ops::ControlFlow::{self, Break, Continue};
use core::sync::atomic::{AtomicU64, Ordering};
use osmem::PageSource;

/// Blocks handed to one caller by one arm of the ladder: the first `m`
/// positions of `desc`'s free list as it was when its head was `head` —
/// linked by block index through their first word up to the first
/// position that carries `V`, consecutive and unwritten from there on.
/// `first` is the start of the block at `head`.
pub(crate) struct Run {
    pub first: usize,
    pub desc: *const Descriptor,
    pub m: u32,
    pub head: Link,
}

/// What the ladder's slow arms return: `Break` with the blocks (`None`: the
/// OS is out of memory), `Continue` to go round when an open lost the
/// install race ("a new active superblock must have been installed ...").
type Slow = ControlFlow<Option<Run>>;

/// Small-block malloc, one block: [`malloc_run`] with `k == 1`.
///
/// # Safety
///
/// `ci` must be a valid class index.
pub(crate) unsafe fn malloc_small<S: PageSource>(inner: &Inner<S>, ci: usize) -> *mut u8 {
    // Intentionally planted bug, reachable only when the
    // `alloc.double_handout` failpoint is armed: hand out the previous
    // allocation of the same size class a second time — the observable
    // shape of a lost Active-word CAS that pops a stale reservation.
    // The shadow-heap oracle (crates/oracle) must catch this at the
    // duplicate insert, before the caller ever writes to the block.
    #[cfg(feature = "failpoints")]
    {
        if malloc_api::fail_point!("alloc.double_handout").retry {
            let stale = inner.bug_stash.load(Ordering::Relaxed);
            if stale != 0 && inner.bug_stash_ci.load(Ordering::Relaxed) == ci {
                return stale as *mut u8;
            }
        }
    }
    #[cfg(feature = "failpoints")]
    let stash = |p: *mut u8| {
        if !p.is_null() {
            inner.bug_stash_ci.store(ci, Ordering::Relaxed);
            inner.bug_stash.store(p as usize, Ordering::Relaxed);
        }
        p
    };
    #[cfg(not(feature = "failpoints"))]
    let stash = |p: *mut u8| p;
    match unsafe { malloc_run(inner, inner.heap_for(ci), 1) } {
        Some(run) => {
            unsafe { note_alloc(inner, run.first, run.desc) };
            stash(run.first as *mut u8)
        }
        None => core::ptr::null_mut(),
    }
}

/// The `while(1)` ladder of Figure 4's `malloc`, for up to `k` blocks of
/// `heap`'s class: whichever arm serves hands over as many of them as it
/// has at no further shared step (at least one). `None`: out of memory.
///
/// # Safety
///
/// `heap` must be a heap of `inner`, and `k >= 1`.
pub(crate) unsafe fn malloc_run<S: PageSource>(
    inner: &Inner<S>,
    heap: &ProcHeap,
    k: u32,
) -> Option<Run> {
    // Latency classification follows the serving arm: Active hits are
    // the fast path, partial/new-superblock hits the slow path.
    let t0 = Timer::start();
    loop {
        if let Some(run) = unsafe { pop_from_active(inner, heap, k) } {
            observe::count(inner, heap, Count::MallocFast);
            t0.stop(inner, Lat::MallocFast);
            return Some(run);
        }
        let slow = match unsafe { malloc_from_partial(inner, heap, k) } {
            Some(outcome) => outcome,
            None => unsafe { malloc_from_new_sb(inner, heap, k) },
        };
        if let Break(run) = slow {
            t0.stop(inner, Lat::MallocSlow);
            return run;
        }
    }
}

/// Hardened-mode bookkeeping for a freshly obtained block: set its
/// allocation bit before the pointer can escape to the application (the
/// bit is this thread's exclusive property until `malloc_small` returns,
/// so the set cannot race a legitimate free).
#[inline]
unsafe fn note_alloc<S: PageSource>(inner: &Inner<S>, block: usize, desc: *const Descriptor) {
    if inner.config.hardening == crate::harden::Hardening::Off {
        return;
    }
    let d = unsafe { &*desc };
    let idx = (block - d.sb() as usize) / d.sz() as usize;
    d.set_alloc_bit(idx);
}

/// Performs ONLY the first step of `MallocFromActive` — reserving a
/// credit — and then abandons the operation, simulating a thread that
/// was killed between the paper's lines 6 and 8. Returns true if a
/// reservation was abandoned (false if the heap had no active
/// superblock, in which case nothing observable happened).
///
/// The abandoned reservation permanently leaks one block — exactly what
/// a kill does — but, per the paper's kill-tolerance claim, must never
/// impede any other thread. Used by crash-tolerance tests only.
pub(crate) unsafe fn abandon_reservation<S: PageSource>(
    inner: &Inner<S>,
    ci: usize,
) -> bool {
    let heap = inner.heap_for(ci);
    let mut oldactive = heap.load_active();
    loop {
        if oldactive.is_null() {
            return false;
        }
        let newactive = if oldactive.credits() == 0 {
            Active::null()
        } else {
            oldactive.take_credits(1)
        };
        match heap.cas_active(oldactive, newactive) {
            Ok(()) => return true, // ...and die here, reservation in hand
            Err(observed) => oldactive = observed,
        }
    }
}

/// Figure 4's `next = *addr`, `m` times over from `head`: the address of
/// the block at `head` and the position `m` blocks on, or `None` when the
/// walk met a word that was no link (see [`pop_from_active`]). The loads
/// are atomic: a racing thread may already have been handed a block we
/// read and be writing user data. Under `V` there is no load at all
/// ([`Link::skip`]). When `plan` starts at `head` and more than one word
/// may be needed, the words it names are loaded first, all at once, and
/// the walk takes them from there ([`Plan::load`], DESIGN.md §15.3).
#[inline]
unsafe fn walk(desc: &Descriptor, head: Link, m: u32, plan: Plan) -> Option<(usize, Link)> {
    let (sb, sz, maxcount) = (desc.sb() as usize, desc.sz() as usize, desc.maxcount());
    let at = |i: u32| (sb + i as usize * sz) as *const AtomicU64;
    let word = |i| unsafe { (*at(i)).load(Ordering::Acquire) };
    let ahead = if m > 1 && plan.leads(head) { plan.load(maxcount, word) } else { Ahead::NONE };
    Some((at(head.idx()) as usize, head.skip(m, maxcount, ahead.or(word))?))
}

/// `MallocFromActive` with both steps generalised from one block to up
/// to `k`: one `Active` CAS reserves `m = min(k, credits + 1)` blocks,
/// one tagged `Anchor` CAS pops the `m`-block chain at the head of the
/// free list. This is how a thread magazine refills
/// ([`crate::magazine`]); with `k == 1` it is the paper's function line
/// for line: "the common case", reserve a credit, pop the reserved block.
///
/// Why the chain pop is as safe as the single pop: the free list never
/// holds fewer blocks than are reserved, so with `m` reservations in
/// hand the first `m` positions from `avail` exist. Links of listed
/// blocks are immutable, and any pop between our anchor load and our CAS
/// bumps the tag (a push alone changes `avail`, and can only bring the
/// old value back after a pop), so a successful CAS proves the chain we
/// walked is the chain we took — the paper's ABA argument, with the tag
/// still bumped once per pop. A *failed* walk may have read a link out
/// of a block a racing pop already handed to the application, i.e. user
/// bytes: every explicit link is therefore checked against `maxcount`
/// before it is followed, and once a link carries `V` nothing more is
/// read, so the walk never leaves the superblock (DESIGN.md §15.3). The
/// descriptor's `hint`, on the anchor's line, names the words a packed
/// run's walk will read; they are loaded together, after the anchor, and
/// are the blocks' own words like any other the walk reads.
///
/// `None`: the heap has no active superblock.
///
/// # Safety
///
/// `heap` must be a heap of `inner`, and `k >= 1`.
unsafe fn pop_from_active<S: PageSource>(
    inner: &Inner<S>,
    heap: &ProcHeap,
    k: u32,
) -> Option<Run> {
    debug_assert!(k >= 1);
    // -- First step: reserve blocks -----------------------------------
    let mut retries = Retries::at(Site::ActiveReserve);
    let mut oldactive = heap.load_active();
    let (reserved, m) = loop {
        if oldactive.is_null() {
            return None; // line 2
        }
        let fp = malloc_api::fail_point!("active.reserve");
        if fp.kill {
            return None; // died before the reservation CAS: nothing taken
        }
        if fp.retry {
            retries.lost(inner, heap);
            oldactive = heap.load_active();
            continue;
        }
        let m = k.min(oldactive.credits() + 1);
        let newactive = if m > oldactive.credits() {
            Active::null() // line 4: taking the last credit
        } else {
            oldactive.take_credits(m) // line 5
        };
        match heap.cas_active(oldactive, newactive) {
            Ok(()) => break (oldactive, m), // line 6 success
            Err(observed) => {
                retries.lost(inner, heap);
                oldactive = observed;
            }
        }
    };
    retries.done(inner, heap);
    let took_last = m > reserved.credits();
    // After this CAS we are *guaranteed* `m` blocks in this superblock;
    // the state may meanwhile become FULL, PARTIAL, or even the active
    // superblock of a different heap — but never EMPTY (paper §3.2.3).
    if malloc_api::fail_point!("active.reserved").kill {
        // The paper's canonical kill window (between lines 6 and 8):
        // the reservation leaks its blocks, same as `abandon_reservation`.
        return None;
    }
    let desc_ptr = reserved.desc();
    let desc = unsafe { &*desc_ptr };

    // -- Second step: pop blocks (lock-free LIFO pop with ABA tag) ----
    let mut retries = Retries::at(Site::ActivePop);
    let mut morecredits = 0;
    let (block, oldanchor) = loop {
        if malloc_api::fail_point!("active.pop").retry {
            retries.lost(inner, heap); // forced CAS-failure arm of the pop loop
            continue;
        }
        let oldanchor = desc.load_anchor(); // line 8
        let plan = desc.hint(); // the anchor's line: no further miss
        // lines 9-10; a walk that strayed is a pop that lost its race.
        let Some((block, next)) = (unsafe { walk(desc, oldanchor.head(), m, plan) }) else {
            retries.lost(inner, heap);
            continue;
        };
        // Where a test parks a popper between its walk and its CAS.
        let _ = malloc_api::fail_point!("active.walked");
        let mut newanchor = oldanchor.pop(next); // lines 11-12
        if took_last {
            // line 13: we took the last credit; state must be ACTIVE.
            if oldanchor.count() == 0 {
                newanchor = newanchor.with_state(SbState::Full); // line 15
            } else {
                // lines 16-17: move as many credits as possible from the
                // anchor's count to the Active word.
                morecredits = oldanchor.count().min(MAX_CREDITS);
                newanchor = newanchor.with_count(oldanchor.count() - morecredits);
            }
        }
        if desc.cas_anchor(oldanchor, newanchor).is_ok() {
            break (block, oldanchor); // line 18
        }
        retries.lost(inner, heap);
    };
    retries.done(inner, heap);
    if took_last && oldanchor.count() > 0 {
        unsafe { update_active(inner, heap, desc_ptr, morecredits) }; // lines 19-20
    }
    Some(Run { first: block, desc: desc_ptr, m, head: oldanchor.head() })
}

/// `UpdateActive` (Figure 4): try to reinstall `desc` as the active
/// superblock with `morecredits - 1` credits; if another superblock got
/// installed meanwhile, return the credits to the anchor and make the
/// superblock PARTIAL.
pub(crate) unsafe fn update_active<S: PageSource>(
    inner: &Inner<S>,
    heap: &ProcHeap,
    desc_ptr: *const Descriptor,
    morecredits: u32,
) {
    debug_assert!(morecredits >= 1);
    if malloc_api::fail_point!("active.update").kill {
        // Died holding `morecredits` reserved blocks: they leak, the
        // superblock floats unreferenced — legal per the paper's
        // availability argument.
        return;
    }
    let newactive = Active::pack(desc_ptr, morecredits - 1); // lines 1-2
    if heap.cas_active(Active::null(), newactive).is_ok() {
        return; // line 3
    }
    // Someone installed another active sb: return credits, go PARTIAL.
    let desc = unsafe { &*desc_ptr };
    let mut retries = Retries::at(Site::UpdateActive);
    loop {
        let old = desc.load_anchor(); // line 4
        let new = old.with_count(old.count() + morecredits).with_state(SbState::Partial); // 5-6
        if desc.cas_anchor(old, new).is_ok() {
            break; // line 7
        }
        retries.lost(inner, heap);
    }
    retries.done(inner, heap);
    unsafe { heap_put_partial(inner, desc_ptr as *mut Descriptor) }; // line 8
}

/// `HeapPutPartial` (Figure 6): swap `desc` into the owning heap's
/// most-recently-used Partial slot; the displaced occupant (if any)
/// goes to the size class's partial list — or, if it went EMPTY while
/// it sat there, is retired with its superblock (the swap made it ours).
pub(crate) unsafe fn heap_put_partial<S: PageSource>(inner: &Inner<S>, desc: *mut Descriptor) {
    if malloc_api::fail_point!("partial.put").kill {
        // Died before re-linking: the descriptor (and its partial
        // superblock) leak, reachable from no structure.
        return;
    }
    let heap = unsafe { &*(*desc).heap() };
    observe::count(inner, heap, Count::PartialPush);
    let prev = heap.swap_partial(desc); // lines 1-2 (swap == CAS loop)
    if prev.is_null() {
        return;
    }
    if unsafe { (*prev).load_anchor() }.state() == SbState::Empty {
        unsafe { inner.desc_pool.retire(prev) };
    } else {
        unsafe { inner.classes[heap.class()].partial.put(prev) }; // line 3
    }
}

/// `HeapGetPartial` (Figure 4): take the heap's Partial slot, falling
/// back to the size class's partial list.
unsafe fn heap_get_partial<S: PageSource>(
    inner: &Inner<S>,
    heap: &ProcHeap,
) -> Option<*mut Descriptor> {
    // The slot exchange is no anchor CAS: tallied for the watchdog only.
    let mut retries = Retries::at(Site::PartialPop);
    loop {
        let fp = malloc_api::fail_point!("partial.get");
        if fp.kill {
            return None; // died before taking anything
        }
        if fp.retry {
            retries.lost(inner, heap);
            continue;
        }
        let desc = heap.load_partial(); // line 1
        if desc.is_null() {
            // line 3: ListGetPartial
            let got = unsafe { inner.classes[heap.class()].partial.get() };
            if got.is_some() {
                observe::count(inner, heap, Count::PartialPop);
            }
            return got;
        }
        if heap.cas_partial(desc, core::ptr::null_mut()) {
            observe::count(inner, heap, Count::PartialPop);
            return Some(desc); // lines 4-5
        }
        retries.lost(inner, heap);
    }
}

/// `MallocFromPartial` (Figure 4): reserve `morecredits + 1` blocks from
/// a partial superblock in one CAS, pop one for the caller, and deposit
/// the rest in the Active word. `None`: there is no partial superblock.
/// A descriptor that went EMPTY where it was parked is not retired
/// (lines 5–6) but reopened: taking it out of the slot or off the list
/// made it, and the superblock still attached to it, this thread's alone
/// — and only then does `k` count: a PARTIAL superblock gives one block.
unsafe fn malloc_from_partial<S: PageSource>(
    inner: &Inner<S>,
    heap: &ProcHeap,
    k: u32,
) -> Option<Slow> {
    let desc_ptr = unsafe { heap_get_partial(inner, heap) }?; // line 1-2
    if malloc_api::fail_point!("partial.reserve").kill {
        // Died holding a descriptor plucked from the partial list:
        // the descriptor and its superblock leak.
        return None;
    }
    let desc = unsafe { &*desc_ptr };
    if !core::ptr::eq(desc.heap(), heap) {
        desc.set_heap(heap as *const _ as *mut ProcHeap); // line 3
        // The frame's entry follows: frees of this superblock's blocks
        // are local to the adopting heap's threads from here on.
        let entry = Entry::pack(desc_ptr, heap.class(), inner.column_of(heap));
        inner.frames.set(desc.sb() as usize, entry);
    }

    // -- Reserve blocks (lines 4-10) -----------------------------------
    let mut retries = Retries::at(Site::PartialReserve);
    let morecredits = loop {
        let old = desc.load_anchor();
        if old.state() == SbState::Empty {
            if malloc_api::fail_point!("sb.reopen").kill {
                return None; // died holding the pair: both leak
            }
            let Some(m) = (unsafe { open_sb(inner, heap, desc_ptr, k) }) else {
                return Some(Continue(()));
            };
            observe::count(inner, heap, Count::SbReopen);
            let first = desc.sb() as usize;
            return Some(Break(Some(Run { first, desc: desc_ptr, m, head: Link::virgin(0) })));
        }
        // "oldanchor state must be PARTIAL; oldanchor count must be > 0"
        debug_assert_eq!(old.state(), SbState::Partial);
        debug_assert!(old.count() > 0);
        let mc = (old.count() - 1).min(MAX_CREDITS); // line 7
        let new = old
            .with_count(old.count() - (mc + 1)) // line 8
            .with_state(if mc > 0 { SbState::Active } else { SbState::Full }); // line 9
        if desc.cas_anchor(old, new).is_ok() {
            break mc; // line 10
        }
        retries.lost(inner, heap);
    };
    retries.done(inner, heap);

    // -- Pop reserved block (lines 11-15) -------------------------------
    let mut retries = Retries::at(Site::PartialPop);
    let (first, head) = loop {
        let old = desc.load_anchor();
        if let Some((block, next)) = unsafe { walk(desc, old.head(), 1, Plan::NONE) } {
            if desc.cas_anchor(old, old.pop(next)).is_ok() {
                break (block, old.head()); // lines 12-15
            }
        }
        retries.lost(inner, heap);
    };
    retries.done(inner, heap);
    if morecredits > 0 {
        unsafe { update_active(inner, heap, desc_ptr, morecredits) }; // lines 16-17
    }
    observe::count(inner, heap, Count::MallocSlow);
    observe::count(inner, heap, Count::PartialReuse);
    Some(Break(Some(Run { first, desc: desc_ptr, m: 1, head })))
}

/// `MallocFromNewSB` (Figure 4), lines 1–2: a descriptor, and a
/// superblock for it unless it brought its own off the warm stack.
unsafe fn malloc_from_new_sb<S: PageSource>(inner: &Inner<S>, heap: &ProcHeap, k: u32) -> Slow {
    // line 1, with bounded backoff: a transient source outage (or a
    // momentarily drained reserve) should not surface as spurious OOM.
    let desc_ptr = crate::retry::from_source(inner, || unsafe {
        inner.desc_pool.alloc(&inner.source) as *mut u8
    }) as *mut Descriptor;
    if desc_ptr.is_null() {
        observe::event(inner, EventKind::OomBackoff, heap.class(), 0);
        return Break(None); // OS exhausted
    }
    let desc = unsafe { &*desc_ptr };
    if desc.sb().is_null() {
        // A bare descriptor and a dry page pool: line 2 would map another
        // hyperblock, or hear the OS refuse one, while EMPTY superblocks
        // sit parked under other classes and heaps, where this class
        // cannot see them (DESIGN.md §18.4). Those come first: a reaper's
        // budget of them before mapping, every one before reporting OOM.
        let (mut sb, mut pruned) = (core::ptr::null_mut(), 0);
        if !inner.sb_pool.has_free() {
            pruned = prune_empty(inner, MaintenanceBudget::light().prune_partials);
        }
        if pruned == 0 {
            // line 2, same retry policy.
            sb = crate::retry::from_source(inner, || inner.sb_pool.alloc(&inner.source));
            if !sb.is_null() && !inner.frames.cover(sb as usize) {
                // A frame the map has no word for (DESIGN.md §19.5) is
                // no memory at all, like a descriptor slab above 2^48.
                unsafe { inner.sb_pool.dealloc(sb) };
                sb = core::ptr::null_mut();
            }
            if sb.is_null() {
                pruned = prune_empty(inner, u32::MAX);
            }
        }
        if sb.is_null() {
            unsafe { inner.desc_pool.retire(desc_ptr) };
            if pruned > 0 {
                // The pruned pairs are warm: round the ladder again and
                // `DescAlloc` brings one back with its descriptor.
                return Continue(());
            }
            observe::event(inner, EventKind::OomBackoff, heap.class(), 0);
            return Break(None);
        }
        desc.set_sb(sb);
    }
    let Some(m) = (unsafe { open_sb(inner, heap, desc_ptr, k) }) else {
        return Continue(());
    };
    Break(Some(Run { first: desc.sb() as usize, desc: desc_ptr, m, head: Link::virgin(0) }))
}

/// The rest of `MallocFromNewSB` (Figure 4, lines 4–17): hand the caller
/// the first `take = min(k, maxcount)` blocks of `desc_ptr`'s superblock,
/// declare the rest one virgin run and try to install it as `heap`'s
/// active superblock. Line 3, the loop that links every block to the
/// next, is gone: the anchor says `take | V` and nothing is written into
/// the superblock, new or reopened (DESIGN.md §20; CI checks this body
/// has no loop). On a lost race the pair is retired as it stands
/// ("we prefer to deallocate the superblock rather than take a block
/// from it", §3.2.3 — onto the warm stack, not into the page pool).
///
/// When the caller's `k` blocks are all there is, there is no rest and
/// no race to lose (DESIGN.md §21): the anchor is stored FULL, as the
/// paper's pops would leave it after `maxcount` turns, and the
/// superblock is installed nowhere — a FULL superblock never is; its
/// first free relinks it, and a chain of all its blocks retires it.
/// Returns `take`, or `None` on a lost install. The caller builds the
/// [`Run`]: one stored here and reloaded there stalls (DESIGN.md §21.5).
/// Out of line: inlined, it grows `malloc_run`, which every refill runs.
///
/// # Safety
///
/// The caller holds `desc_ptr` exclusively, with a superblock attached
/// that has no block allocated or reserved; `k >= 1`.
#[inline(never)]
unsafe fn open_sb<S: PageSource>(
    inner: &Inner<S>,
    heap: &ProcHeap,
    desc_ptr: *mut Descriptor,
    k: u32,
) -> Option<u32> {
    let desc = unsafe { &*desc_ptr };
    let ci = heap.class();
    let sb = desc.sb();
    let mut maxcount = GEOMETRY[ci].0;
    if inner.config.hardening != crate::harden::Hardening::Off {
        // A recycled descriptor can carry stale allocation bits from
        // blocks leaked on its previous superblock (kill-injected
        // frees); this superblock starts with every block free. And it
        // has no more blocks than the bitmap has bits (DESIGN.md §8.2).
        desc.reset_alloc_bits();
        maxcount = maxcount.min(BITMAP_WORDS as u32 * 64);
    }
    desc.set_heap(heap as *const _ as *mut ProcHeap); // line 4
    desc.set_class(ci, maxcount); // lines 6-7
    // Before anything publishes the first block: the word `free` will
    // look its blocks up by. A thread killed before this line has
    // handed out nothing.
    inner.frames.set(sb as usize, Entry::pack(desc_ptr, ci, inner.column_of(heap)));
    let take = k.min(maxcount);
    let left = maxcount - take;
    // lines 5, 10, 11 — preserving the descriptor's tag sequence across
    // reuse keeps the ABA argument intact. A store: no block of an EMPTY
    // superblock is allocated or reserved, so no anchor CAS is pending.
    if left == 0 {
        desc.store_anchor(desc.load_anchor().open(take, 0).with_state(SbState::Full));
        // A thread that dies here held every block of a superblock
        // nothing points to: the pair floats, FULL, for good.
        if malloc_api::fail_point!("sb.full").kill {
            return None;
        }
    } else {
        let credits = left.min(MAX_CREDITS) - 1; // line 9
        let anchor = desc.load_anchor().open(take, left - (credits + 1)); // line 10
        desc.store_anchor(anchor); // line 12's fence == this release store
        if heap.cas_active(Active::null(), Active::pack(desc_ptr, credits)).is_err() {
            // lines 16-17: lost the race; back to EMPTY (nobody saw it),
            // as every warm descriptor is.
            desc.store_anchor(anchor.with_count(maxcount - 1).with_state(SbState::Empty));
            unsafe { inner.desc_pool.retire(desc_ptr) };
            return None;
        }
    }
    // line 13 success: blocks 0..take are ours.
    observe::count(inner, heap, Count::MallocNewsb);
    observe::event(inner, EventKind::SbAcquire, ci, sb as u64);
    Some(take)
}
