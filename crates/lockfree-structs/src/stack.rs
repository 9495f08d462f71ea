//! Lock-free LIFO stack (IBM free-list / Treiber stack).
//!
//! [`TaggedStack`] — the head is a [`TagPtr`] bumped on every pop (the
//! "classic IBM tag mechanism" [8]). Used where nodes are **never
//! unmapped** while the stack is in use, so a stale traversal reads
//! valid memory and the tag stops a stale CAS: the page pool's
//! superblock free list, and the allocator's descriptor free stacks and
//! partial lists (type-stable descriptor slabs).
//!
//! The paper's other ABA defence, `SafeCAS` under a hazard pointer
//! (§3.2.5), is used nowhere in this workspace: the Michael–Scott queue
//! ([`crate::queue`]) keeps its node free list on this stack and carries
//! tags on its own link words as well.

use crate::backoff::Backoff;
use crate::tagptr::{TagPtr, ADDR_BITS};
use core::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// A lock-free LIFO stack of raw, `2^SHIFT`-aligned memory regions.
///
/// The word at byte offset `OFFSET` (default 0: the first word) of each
/// free region is used as the intrusive next link.
/// ABA is prevented by a tag packed into the head word; every region
/// must lie below `2^ADDR` (default [`ADDR_BITS`]), which leaves
/// [`TAG_BITS`](Self::TAG_BITS) `= 64 - (ADDR - SHIFT)` bits of tag.
///
/// # Safety model
///
/// All regions ever pushed must remain readable for the stack's lifetime
/// (they may be *reused* while popped — a racing `pop` may read the first
/// word of a region another thread owns, which is why the link is read
/// with an atomic load — but they may never be unmapped). The page pool
/// satisfies this by construction: it never returns memory to the OS
/// while the pool is in use, like the paper's descriptor superblocks.
#[derive(Debug)]
pub struct TaggedStack<const SHIFT: u32, const OFFSET: usize = 0, const ADDR: u32 = ADDR_BITS> {
    head: AtomicU64,
}

impl<const SHIFT: u32, const OFFSET: usize, const ADDR: u32> Default
    for TaggedStack<SHIFT, OFFSET, ADDR>
{
    fn default() -> Self {
        Self::new()
    }
}

impl<const SHIFT: u32, const OFFSET: usize, const ADDR: u32> TaggedStack<SHIFT, OFFSET, ADDR> {
    /// Width of the ABA tag in the head word: a stale pop's CAS can
    /// only succeed wrongly if exactly a multiple of `2^TAG_BITS` pops
    /// ran between its head load and its CAS and left the same region on
    /// top.
    pub const TAG_BITS: u32 = TagPtr::<SHIFT, ADDR>::TAG_BITS;

    /// Creates an empty stack.
    pub const fn new() -> Self {
        TaggedStack { head: AtomicU64::new(0) }
    }

    /// Pushes the region at `node`.
    ///
    /// # Safety
    ///
    /// `node` must be non-zero, aligned to `2^SHIFT`, below `2^ADDR`,
    /// point to at least one writable word at `OFFSET`, not currently be
    /// in the stack, and satisfy the never-unmapped rule above.
    #[inline]
    pub unsafe fn push(&self, node: usize) {
        unsafe { self.push_chain(node, node) }
    }

    /// Pushes a privately linked chain with one CAS (the paper's slab
    /// install, Figure 7): `first` ends up on top, and `last`'s link,
    /// which this function writes, continues into the old stack.
    ///
    /// # Safety
    ///
    /// Every region of the chain must satisfy [`push`](Self::push)'s
    /// rules, and the link words from `first` to `last` must already
    /// lead from one to the next; no other thread may touch the chain.
    pub unsafe fn push_chain(&self, first: usize, last: usize) {
        debug_assert!(first != 0 && last != 0);
        let link = unsafe { &*((last + OFFSET) as *const AtomicUsize) };
        let mut backoff = Backoff::new();
        let mut head = TagPtr::<SHIFT, ADDR>::from_raw(self.head.load(Ordering::Acquire));
        loop {
            // Relaxed: the Release CAS below publishes the link (and the
            // chain behind it) to whoever Acquire-loads the new head.
            link.store(head.addr(), Ordering::Relaxed);
            let new = head.with_addr(first);
            match self.head.compare_exchange_weak(
                head.raw(),
                new.raw(),
                Ordering::Release,
                Ordering::Acquire,
            ) {
                Ok(_) => return,
                Err(observed) => {
                    crate::cas_retry!(STACK_PUSH_RETRIES);
                    head = TagPtr::from_raw(observed);
                    backoff.spin();
                }
            }
        }
    }

    /// Pops a region, or `None` if the stack is empty.
    ///
    /// # Safety
    ///
    /// Same stack-wide rules as [`push`](Self::push).
    pub unsafe fn pop(&self) -> Option<usize> {
        let mut backoff = Backoff::new();
        let mut head = TagPtr::<SHIFT, ADDR>::from_raw(self.head.load(Ordering::Acquire));
        loop {
            if head.is_null() {
                return None;
            }
            // The region may be concurrently owned by someone who won an
            // earlier race and have been overwritten with arbitrary
            // bytes; the atomic load makes reading it benign, and the
            // tag check makes the value harmless: if the region left the
            // stack, the tag moved and the CAS below must fail. The
            // masked pack keeps the garbage representable instead of
            // tripping `pack`'s alignment assert on a value the CAS is
            // about to reject anyway.
            let next =
                unsafe { &*((head.addr() + OFFSET) as *const AtomicUsize) }.load(Ordering::Relaxed);
            let new = head.with_addr_masked(next).bump_tag();
            // The ABA window: between the link read above and the CAS
            // below the region may be popped, reused and pushed back.
            let fp = crate::fp("stack.pop");
            if fp.kill {
                return None; // died before taking anything
            }
            if fp.retry {
                head = TagPtr::from_raw(self.head.load(Ordering::Acquire));
                continue;
            }
            match self.head.compare_exchange_weak(
                head.raw(),
                new.raw(),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(head.addr()),
                Err(observed) => {
                    crate::cas_retry!(STACK_POP_RETRIES);
                    head = TagPtr::from_raw(observed);
                    backoff.spin();
                }
            }
        }
    }

    /// The region on top at the time of the load, 0 if none. For
    /// diagnostics that walk the links themselves (the caller knows
    /// whether a link word can hold anything but a region address).
    pub fn top(&self) -> usize {
        TagPtr::<SHIFT, ADDR>::from_raw(self.head.load(Ordering::Acquire)).addr()
    }

    /// True if the stack was empty at the time of the load.
    pub fn is_empty(&self) -> bool {
        self.top() == 0
    }

    /// Quiescent snapshot: the regions currently in the stack, top
    /// first. Bounded by a cycle guard so a corrupt chain terminates.
    ///
    /// # Safety
    ///
    /// No concurrent push/pop; intended for offline auditing.
    pub unsafe fn snapshot(&self) -> Vec<usize> {
        let mut out = Vec::new();
        let mut p = self.top();
        while p != 0 && out.len() < (1 << 24) {
            out.push(p);
            p = unsafe { &*((p + OFFSET) as *const AtomicUsize) }.load(Ordering::Relaxed);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::Arc;

    const SHIFT: u32 = 6; // 64-byte aligned test nodes

    fn alloc_region() -> usize {
        let l = Layout::from_size_align(64, 64).unwrap();
        let p = unsafe { System.alloc(l) } as usize;
        assert_ne!(p, 0);
        p
    }

    unsafe fn free_region(p: usize) {
        let l = Layout::from_size_align(64, 64).unwrap();
        unsafe { System.dealloc(p as *mut u8, l) };
    }

    #[test]
    fn tagged_lifo_order() {
        let s = TaggedStack::<SHIFT>::new();
        assert!(s.is_empty());
        let (a, b, c) = (alloc_region(), alloc_region(), alloc_region());
        unsafe {
            s.push(a);
            s.push(b);
            s.push(c);
            assert!(!s.is_empty());
            assert_eq!(s.pop(), Some(c));
            assert_eq!(s.pop(), Some(b));
            assert_eq!(s.pop(), Some(a));
            assert_eq!(s.pop(), None);
            free_region(a);
            free_region(b);
            free_region(c);
        }
    }

    #[test]
    fn tagged_concurrent_conservation() {
        // N regions circulate among threads; each pop/push pair checks an
        // exclusive-ownership canary, so ABA or duplication panics.
        const REGIONS: usize = 32;
        const OPS: usize = 10_000;
        let s = Arc::new(TaggedStack::<SHIFT>::new());
        let regions: Vec<usize> = (0..REGIONS).map(|_| alloc_region()).collect();
        for &r in &regions {
            // Second word is the canary (first is the link).
            unsafe { *(r as *mut [usize; 2]) = [0, 0] };
            unsafe { s.push(r) };
        }
        let mut handles = Vec::new();
        for _ in 0..4 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for _ in 0..OPS {
                    if let Some(r) = unsafe { s.pop() } {
                        unsafe {
                            malloc_api::testkit::canary_claim_release(
                                r + 8,
                                "region popped by two threads at once (ABA!)",
                            );
                            s.push(r);
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut drained = 0;
        while let Some(r) = unsafe { s.pop() } {
            drained += 1;
            unsafe { free_region(r) };
        }
        assert_eq!(drained, REGIONS, "regions lost or duplicated");
    }

    #[test]
    fn tagged_pop_survives_owner_scribbling_link_word() {
        // Regression test for a debug-only crash: a racing `pop` reads
        // the link word of a region whose new owner has already
        // overwritten it with arbitrary (misaligned, non-canonical)
        // bytes. The tag-checked CAS rejects the stale value by design,
        // but the speculative `TagPtr` built from it used to trip
        // `pack`'s alignment assert before the CAS could fail. Owners
        // here scribble worst-case garbage into the first word the
        // moment they get a region, making the read-garbage window easy
        // to hit.
        const REGIONS: usize = 8;
        const OPS: usize = 20_000;
        let s = Arc::new(TaggedStack::<SHIFT>::new());
        let regions: Vec<usize> = (0..REGIONS).map(|_| alloc_region()).collect();
        for &r in &regions {
            unsafe { s.push(r) };
        }
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ t;
                for _ in 0..OPS {
                    if let Some(r) = unsafe { s.pop() } {
                        // Owner's prerogative: the region is ours now, and
                        // real users overwrite it immediately. Misaligned
                        // and top-bit-heavy patterns are the ones the
                        // assert choked on.
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        unsafe {
                            (*(r as *const AtomicUsize))
                                .store(x as usize | 0x3, Ordering::Relaxed);
                        }
                        unsafe { s.push(r) };
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut drained = 0;
        while unsafe { s.pop() }.is_some() {
            drained += 1;
        }
        assert_eq!(drained, REGIONS, "regions lost or duplicated");
        for r in regions {
            unsafe { free_region(r) };
        }
    }

    #[test]
    fn push_chain_installs_a_private_chain_with_one_cas() {
        let s = TaggedStack::<SHIFT>::new();
        let r: Vec<usize> = (0..4).map(|_| alloc_region()).collect();
        unsafe {
            s.push(r[0]);
            // r[1] -> r[2] -> r[3], linked privately; r[3]'s link is the
            // stack's to write.
            (*(r[1] as *const AtomicUsize)).store(r[2], Ordering::Relaxed);
            (*(r[2] as *const AtomicUsize)).store(r[3], Ordering::Relaxed);
            s.push_chain(r[1], r[3]);
            assert_eq!(s.snapshot(), vec![r[1], r[2], r[3], r[0]]);
            for want in [r[1], r[2], r[3], r[0]] {
                assert_eq!(s.pop(), Some(want));
            }
            assert_eq!(s.pop(), None);
            for p in r {
                free_region(p);
            }
        }
    }

    #[test]
    fn head_tag_survives_a_full_wrap() {
        // The descriptor stacks' shape: 64-byte nodes, link in the
        // second word, addresses below 2^48.
        type DescShaped = TaggedStack<6, 8, 48>;
        const { assert!(DescShaped::TAG_BITS >= 21) };
        const { assert!(TaggedStack::<14>::TAG_BITS >= 21) };
        let s = DescShaped::new();
        let (a, b) = (alloc_region(), alloc_region());
        unsafe {
            s.push(a);
            s.push(b);
            const TAG_MASK: u64 = (1 << DescShaped::TAG_BITS) - 1;
            let tag = |s: &DescShaped| s.head.load(Ordering::Relaxed) & TAG_MASK;
            assert_eq!(tag(&s), 0);
            // One pop short of the wrap, then across it.
            for _ in 0..TAG_MASK {
                let top = s.pop().unwrap();
                s.push(top);
            }
            assert_eq!(tag(&s), TAG_MASK);
            assert_eq!(s.pop(), Some(b));
            assert_eq!(tag(&s), 0, "the tag wrapped");
            assert_eq!(s.top(), a, "and carried nothing into the address");
            assert_eq!(s.pop(), Some(a));
            assert_eq!(s.pop(), None);
            free_region(a);
            free_region(b);
        }
    }
}
