//! The free path — a faithful transcription of the paper's Figure 6.
//!
//! "The free algorithm for small blocks is simple. It primarily involves
//! pushing the freed block into its superblock's available list and
//! adjusting the superblock's state appropriately." One CAS in the
//! common case; the first free into a FULL superblock re-links it
//! (`HeapPutPartial`), and the free of the last allocated block empties
//! the superblock (recycle + `RemoveEmptyDesc`).

use crate::anchor::SbState;
use crate::config::PREFIX_SIZE;
use crate::descriptor::Descriptor;
use crate::heap::ProcHeap;
use crate::instance::Inner;
use core::sync::atomic::{AtomicU64, Ordering};
use osmem::PageSource;

/// Frees a small block. `ptr` is the user pointer; `desc_ptr` was read
/// from its prefix.
///
/// # Safety
///
/// `ptr` must be a live small block of this instance whose prefix named
/// `desc_ptr`.
pub(crate) unsafe fn free_small<S: PageSource>(
    inner: &Inner<S>,
    ptr: *mut u8,
    desc_ptr: *mut Descriptor,
) {
    let desc = unsafe { &*desc_ptr };
    let sb = desc.sb() as usize; // line 6
    // The prefix may sit anywhere inside the block (alignment offsets);
    // the index recovers the block start (== the paper's
    // `(ptr-sb)/desc->sz` with the default 8-byte offset). Computed
    // once per free, by reciprocal multiply.
    let prefix_addr = ptr as usize - PREFIX_SIZE;
    let idx = desc.block_index(prefix_addr - sb); // line 9
    let block = sb + idx * desc.sz() as usize;
    unsafe { push_free_block(inner, desc_ptr, idx as u32, block) }
}

/// Pushes `block` (a block *start* address, index `idx`) onto its
/// superblock's free list as one application-level free — the
/// anchor-CAS half of [`free_small`], shared with the hardened path,
/// which releases quarantined blocks through it.
///
/// # Safety
///
/// `block` must be allocated block `idx` of `desc_ptr`'s superblock,
/// and no other thread may free it concurrently.
pub(crate) unsafe fn push_free_block<S: PageSource>(
    inner: &Inner<S>,
    desc_ptr: *mut Descriptor,
    idx: u32,
    block: usize,
) {
    // Telemetry reads the owning heap while the block still pins the
    // descriptor; see `push_free_chain`.
    #[cfg(feature = "stats")]
    {
        let owner = unsafe { &*(*desc_ptr).heap() };
        if crate::heap::try_thread_id().is_none() {
            // TLS teardown: the freeing thread's identity is being
            // retired, so "local vs remote" is undecidable — it is
            // deliberately attributed as a *remote* free (the paper's
            // slow-path accounting) rather than defaulting to heap 0's
            // local path, and counted separately so teardown traffic is
            // visible. See `heap::try_thread_id`.
            inner.shard(owner).free_teardown.inc();
            inner.shard(owner).free_remote.inc();
        } else if crate::stats::is_local_heap(inner, owner) {
            inner.shard(owner).free_local.inc();
        } else {
            inner.shard(owner).free_remote.inc();
        }
    }
    unsafe { push_free_chain(inner, desc_ptr, idx, block, 1) }
}

/// Figure 6's anchor update for a chain of `n` blocks of one superblock
/// (`n == 1` is the paper's `free`): links the chain in front of the
/// free list with one CAS and performs the state transitions. The
/// chain's first block has index `first_idx`; its blocks are already
/// linked to each other by block index through their first words, and
/// `last` is the start address of its last block, whose link this
/// function writes. A thread magazine returns runs of cached blocks
/// through here ([`crate::magazine`]).
///
/// # Safety
///
/// The chain's blocks must be distinct allocated blocks of `desc_ptr`'s
/// superblock that no other thread can free concurrently.
pub(crate) unsafe fn push_free_chain<S: PageSource>(
    inner: &Inner<S>,
    desc_ptr: *mut Descriptor,
    first_idx: u32,
    last: usize,
    n: u32,
) {
    let desc = unsafe { &*desc_ptr };
    let sb = desc.sb() as usize;
    let maxcount = desc.maxcount();
    // Latency classification: a plain free-list push is the fast path;
    // an EMPTY transition or FULL→PARTIAL relink is the slow path.
    let t0 = crate::lat_start!();

    // The watchdog needs the owning heap for site attribution; read it
    // now, while the blocks still pin the descriptor (the heap table
    // itself lives until instance teardown, so the reference stays
    // valid even if the descriptor is recycled later).
    let owner = unsafe { &*desc.heap() };

    let mut link_tries: u64 = 0;
    let mut heap: *mut ProcHeap = core::ptr::null_mut();
    let (oldanchor, newanchor) = loop {
        let fp = malloc_api::fail_point!("free.link");
        if fp.kill {
            // Died before the anchor CAS: the blocks simply stay
            // allocated forever; the superblock is untouched.
            return;
        }
        if fp.retry {
            // Forced CAS failure: counted so the watchdog sees it.
            link_tries += 1;
            crate::health::watch(inner, owner, crate::health::WatchSite::FreeLink, link_tries);
            continue;
        }
        let old = desc.load_anchor(); // line 7
        // line 8: link the chain's end to the current list head.
        // Written before the CAS; the CAS's release ordering is the
        // paper's memory fence (line 17).
        unsafe {
            (*(last as *const AtomicU64)).store(old.avail() as u64, Ordering::Relaxed);
        }
        let mut new = old.with_avail(first_idx); // line 9
        if old.state() == SbState::Full {
            new = new.with_state(SbState::Partial); // lines 10-11
        }
        if old.count() + n == maxcount {
            // lines 12-15: these were the last allocated blocks (count
            // stays short of `maxcount` by one, as in the paper, so an
            // EMPTY anchor reads the same however it got there). Read the
            // owning heap *before* the CAS (the paper's instruction
            // fence, line 14): after the CAS the descriptor may be
            // recycled by another thread at any time.
            heap = desc.heap(); // line 13
            new = new.with_count(maxcount - 1).with_state(SbState::Empty); // line 15
        } else {
            new = new.with_count(old.count() + n); // line 16
        }
        match desc.cas_anchor(old, new) {
            Ok(()) => break (old, new), // line 18
            Err(_) => {
                link_tries += 1;
                crate::health::watch(inner, owner, crate::health::WatchSite::FreeLink, link_tries);
                continue;
            }
        }
    };
    crate::stat_hist!(inner, owner, anchor_cas, link_tries);

    if newanchor.state() == SbState::Empty {
        if malloc_api::fail_point!("free.empty").kill {
            // Died between the EMPTY transition and the recycle: the
            // superblock and its descriptor leak with the dead thread.
            return;
        }
        crate::stat!(inner, owner, free_empty);
        crate::stat_event!(inner, SbRetire, owner.class(), sb);
        // lines 19-21: recycle the superblock's memory, then make the
        // descriptor reclaimable.
        unsafe {
            inner.sb_pool.dealloc(sb as *mut u8); // line 20
            remove_empty_desc(inner, &*heap, desc_ptr); // line 21
        }
        crate::stat_lat!(inner, lat_free_slow, t0);
    } else if oldanchor.state() == SbState::Full {
        crate::stat_event!(inner, HeapTransition, owner.class(), sb);
        // lines 22-23: we are the first to free into a FULL superblock;
        // take responsibility for re-linking it.
        unsafe { crate::alloc::heap_put_partial(inner, desc_ptr) };
        crate::stat_lat!(inner, lat_free_slow, t0);
    } else {
        crate::stat_lat!(inner, lat_free_fast, t0);
    }
}

/// `RemoveEmptyDesc` (Figure 6): retire the descriptor if we can pluck
/// it from the heap's Partial slot; otherwise sweep one empty descriptor
/// out of the size class's partial list.
unsafe fn remove_empty_desc<S: PageSource>(
    inner: &Inner<S>,
    heap: &ProcHeap,
    desc: *mut Descriptor,
) {
    if heap.cas_partial(desc, core::ptr::null_mut()) {
        // lines 1-2
        unsafe { retire_if_empty(inner, desc) };
    } else {
        // line 3: ListRemoveEmptyDesc — the goal "is to ensure that
        // empty descriptors are eventually made available for reuse, and
        // not necessarily to remove a specific empty descriptor
        // immediately".
        let ci = heap.class();
        unsafe { inner.classes[ci].partial.remove_empty(&inner.desc_pool) };
    }
}

/// Disposes of a descriptor the caller has just taken out of a heap's
/// Partial slot because it saw it EMPTY: retires it (and says so) if it
/// still is, puts it back otherwise.
///
/// The second look is what immediate descriptor reuse costs (DESIGN.md
/// §17.3). Between the caller's look and its slot CAS a malloc may have
/// taken the EMPTY descriptor from the slot and retired it, and the
/// descriptor — back on `DescAvail` at once, with no retire list to sit
/// out a grace period on — may have been given a new superblock of the
/// same heap, filled, and parked in the same slot. The slot CAS cannot
/// tell (the paper's cannot either; its window is a hazard scan wide).
/// But taking a descriptor out of the slot makes it the caller's alone,
/// and then its state says which life it is in, as it does for
/// `MallocFromPartial` (Figure 4, line 5).
pub(crate) unsafe fn retire_if_empty<S: PageSource>(
    inner: &Inner<S>,
    desc: *mut Descriptor,
) -> bool {
    let empty = unsafe { (*desc).load_anchor() }.state() == SbState::Empty;
    if empty {
        unsafe { inner.desc_pool.retire(desc) };
    } else {
        unsafe { crate::alloc::heap_put_partial(inner, desc) };
    }
    empty
}
