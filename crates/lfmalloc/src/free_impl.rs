//! The free path — a faithful transcription of the paper's Figure 6.
//!
//! "The free algorithm for small blocks is simple. It primarily involves
//! pushing the freed block into its superblock's available list and
//! adjusting the superblock's state appropriately." One CAS in the
//! common case; the first free into a FULL superblock re-links it
//! (`HeapPutPartial`), and the free of the last allocated block makes
//! the superblock EMPTY — and leaves it on its descriptor, where the
//! anchor CAS found it (DESIGN.md §18). The thread that emptied it holds
//! no reference to the pair, so it neither recycles the superblock
//! (Figure 6, line 20) nor takes the descriptor out of the heap's slot
//! (`RemoveEmptyDesc`, line 1): whoever next *takes* the descriptor
//! reopens or retires the two together. The one emptier that does hold
//! the pair is the one whose chain was the whole superblock: one store
//! takes it FULL → EMPTY and the holder retires the pair ([`close_whole`],
//! DESIGN.md §21.3). This file does not name the page pool (CI checks that).
//!
//! Lines 1–3, reading the descriptor out of the word in front of the
//! block, are gone with that word (DESIGN.md §19): the caller found it
//! in the frame map, and the pointer it passes is the block's first byte.

use crate::anchor::{Plan, SbState};
use crate::config::SB_SIZE;
use crate::descriptor::Descriptor;
use crate::heap::ProcHeap;
use crate::instance::Inner;
use crate::observe::{self, Count, EventKind, Lat, Retries, Site, Timer};
use core::sync::atomic::{AtomicU64, Ordering};
use osmem::PageSource;

/// Frees a small block, the hardened path's quarantined ones too. `ptr`
/// is the block; `desc_ptr` is what the frame map names for its frame.
///
/// # Safety
///
/// `ptr` must be a live small block of `desc_ptr`'s superblock.
pub(crate) unsafe fn free_small<S: PageSource>(
    inner: &Inner<S>,
    ptr: *mut u8,
    desc_ptr: *mut Descriptor,
) {
    // Lines 6 and 9: superblocks are `SB_SIZE`-aligned, so the offset is
    // the address's low bits; the index is one reciprocal multiply.
    let idx = unsafe { &*desc_ptr }.block_index(ptr as usize & (SB_SIZE - 1));
    // Counted before the push: the block still pins the descriptor.
    unsafe { observe::count_push(inner, desc_ptr) };
    unsafe { push_free_chain(inner, desc_ptr, idx as u32, ptr as usize, 1, Plan::NONE) }
}

/// Figure 6's anchor update for a chain of `n` blocks of one superblock
/// (`n == 1` is the paper's `free`): links the chain in front of the
/// free list with one CAS and performs the state transitions. The
/// chain's first block has index `first_idx`; its blocks are already
/// linked to each other by block index through their first words, and
/// `last` is the start address of its last block, whose link this
/// function writes. A thread magazine returns runs of cached blocks
/// through here ([`crate::magazine`]), a whole superblock's via [`close_whole`].
/// An outbox run comes with its walk plan, stored in the descriptor's
/// `hint` between the anchor load and the CAS (DESIGN.md §15.3): the one
/// line is then taken for the store and the CAS together, and held for
/// no longer than the CAS needs it. [`Plan::NONE`] stores nothing.
/// Inlined: called out of `release_list`, `handoff_2t` read ≈ 10 % slower
/// (DESIGN.md §15.7).
///
/// # Safety
///
/// The chain's blocks must be distinct allocated blocks of `desc_ptr`'s
/// superblock, not all of them, that no other thread can free concurrently.
#[inline(always)]
pub(crate) unsafe fn push_free_chain<S: PageSource>(
    inner: &Inner<S>,
    desc_ptr: *mut Descriptor,
    first_idx: u32,
    last: usize,
    n: u32,
    plan: Plan,
) {
    let desc = unsafe { &*desc_ptr };
    // For the event ring: superblocks are `SB_SIZE`-aligned.
    let sb = (last & !(SB_SIZE - 1)) as u64;
    let maxcount = desc.maxcount();
    debug_assert!(n < maxcount, "a whole superblock is closed, not pushed");
    // Latency classification: a plain free-list push is the fast path;
    // an EMPTY transition or FULL→PARTIAL relink is the slow path.
    let t0 = Timer::start();

    // The watchdog needs the owning heap for site attribution; read it
    // now, while the blocks still pin the descriptor (the heap table
    // itself lives until instance teardown, so the reference stays
    // valid even if the descriptor is recycled later).
    let owner = unsafe { &*desc.heap() };

    let mut retries = Retries::at(Site::FreeLink);
    let mut heap: *mut ProcHeap = core::ptr::null_mut();
    let (oldanchor, newanchor) = loop {
        let fp = malloc_api::fail_point!("free.link");
        if fp.kill {
            // Died before the anchor CAS: the blocks simply stay
            // allocated forever; the superblock is untouched.
            return;
        }
        if fp.retry {
            retries.lost(inner, owner); // forced CAS failure
            continue;
        }
        let old = desc.load_anchor(); // line 7
        if !plan.is_empty() {
            desc.set_hint(plan);
        }
        // lines 9-16, and line 8: link the chain's end to the current
        // list head — the virgin flag goes into the block with it, and
        // the new head carries none. Written before the CAS; the CAS's
        // release ordering is the paper's memory fence (line 17).
        let (link, new) = old.push(first_idx, n, maxcount);
        unsafe { (*(last as *const AtomicU64)).store(link, Ordering::Relaxed) };
        if new.state() == SbState::Empty {
            // lines 12-15: these were the last allocated blocks. Read the
            // owning heap *before* the CAS (the paper's instruction
            // fence, line 14): after the CAS the descriptor may be
            // recycled by another thread at any time.
            heap = desc.heap(); // line 13
        }
        match desc.cas_anchor(old, new) {
            Ok(()) => break (old, new), // line 18
            Err(_) => retries.lost(inner, owner),
        }
    };
    retries.done(inner, owner);

    if newanchor.state() == SbState::Empty {
        // Died right after the EMPTY transition of a superblock other
        // frees had made PARTIAL before: nothing is stranded, this thread
        // held no reference and the descriptor is still wherever the
        // first of those frees parked it; only the sweep below is skipped.
        if malloc_api::fail_point!("free.empty").kill {
            return;
        }
        observe::count(inner, owner, Count::FreeEmpty);
        observe::event(inner, EventKind::SbRetire, owner.class(), sb);
        let heap = unsafe { &*heap };
        if heap.load_partial() != desc_ptr {
            // Lines 19–21, restated: the superblock stays on its
            // descriptor. One load says whether that sits in its heap's
            // Partial slot, where the next malloc of the class reopens
            // it; if not, sweep the class list the way `RemoveEmptyDesc`'s
            // line 3 does (the popped descriptors are the sweeper's,
            // superblocks and all).
            unsafe { inner.classes[heap.class()].partial.remove_empty(&inner.desc_pool) };
        }
        t0.stop(inner, Lat::FreeSlow);
    } else if oldanchor.state() == SbState::Full {
        observe::event(inner, EventKind::HeapTransition, owner.class(), sb);
        // lines 22-23: we are the first to free into a FULL superblock;
        // take responsibility for re-linking it.
        unsafe { crate::alloc::heap_put_partial(inner, desc_ptr) };
        t0.stop(inner, Lat::FreeSlow);
    } else {
        t0.stop(inner, Lat::FreeFast);
    }
}

/// [`push_free_chain`] for all `n == maxcount` blocks (DESIGN.md §21.3):
/// with every block in the caller's hands nothing can race it, so FULL →
/// EMPTY is one Release store, and the caller retires the pair to `warm`.
///
/// # Safety
///
/// As for `push_free_chain`, with the chain all of the superblock.
pub(crate) unsafe fn close_whole<S: PageSource>(
    inner: &Inner<S>,
    desc_ptr: *mut Descriptor,
    first_idx: u32,
    last: usize,
    n: u32,
) {
    let desc = unsafe { &*desc_ptr };
    let owner = unsafe { &*desc.heap() };
    let t0 = Timer::start();
    if malloc_api::fail_point!("free.link").kill {
        return; // the blocks stay allocated for good, as in a push
    }
    let old = desc.load_anchor();
    debug_assert!(old.state() == SbState::Full && n == desc.maxcount(), "{old:?}, {n}");
    let (link, new) = old.push(first_idx, n, n); // n == maxcount
    unsafe { (*(last as *const AtomicU64)).store(link, Ordering::Relaxed) };
    desc.store_anchor(new);
    if malloc_api::fail_point!("free.whole").kill {
        return; // died holding the pair: both float, EMPTY, for good
    }
    observe::count(inner, owner, Count::FreeEmpty);
    observe::event(inner, EventKind::SbRetire, owner.class(), desc.sb() as u64);
    unsafe { inner.desc_pool.retire(desc_ptr) };
    t0.stop(inner, Lat::FreeSlow);
}
