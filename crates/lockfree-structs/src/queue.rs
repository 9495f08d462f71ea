//! Michael–Scott lock-free FIFO queue (PODC 1996) in its counted-pointer
//! form: type-stable nodes under tags, no reclamation scheme.
//!
//! The paper manages each size class's list of partial superblocks with
//! "a version of the lock-free FIFO queue algorithm in [20] with
//! optimized memory management" (§3.2.6): FIFO order reduces contention
//! and false sharing versus a LIFO list, and queue nodes are allocated
//! "in a manner similar but simpler than allocating descriptors" — i.e.
//! from internal slabs, not from a general-purpose malloc (which would
//! be circular inside an allocator). `lfmalloc` keeps its partial lists
//! on tag-protected stacks instead (DESIGN.md §17); this queue serves the
//! producer–consumer benchmark of §4.1, workload and baseline.
//!
//! The ABA argument is the 1996 paper's own (DESIGN.md §17.10):
//!
//! * `head`, `tail` and every node's `next` are [`TagPtr`] words, and
//!   every successful CAS on one bumps its tag, so a CAS whose expected
//!   word was read before its node left the queue and came back fails.
//! * Nodes come from `System` slabs that are freed only when the queue
//!   drops, so a thread holding a stale node address still reads a node.
//! * Free nodes sit on a [`TaggedStack`] linked through `value`, never
//!   through `next`: a reused node gets a null `next` under the tag it
//!   already carries.
//!
//! A node is the two words of the paper's "fixed size queue node (16
//! bytes)" on a cache line of its own; the 64-byte alignment is what
//! leaves room for the tag.

use crate::pad::CachePadded;
use crate::stack::TaggedStack;
use crate::tagptr::TagPtr;
use core::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::alloc::{GlobalAlloc, Layout, System};

/// Node alignment: 64 bytes.
const SHIFT: u32 = 6;
/// Node addresses lie below 2^48, as `lfmalloc`'s descriptors do.
const ADDR: u32 = 48;

/// A node address and its ABA tag in one CAS-able word.
type Link = TagPtr<SHIFT, ADDR>;

/// The free nodes, linked through `value` so that `next` keeps its tag.
type FreeList = TaggedStack<SHIFT, { core::mem::offset_of!(Node, value) }, ADDR>;

// Parity with `lfmalloc`'s descriptor stacks: a stale CAS succeeds
// wrongly only after exactly k * 2^TAG_BITS successful CASes on its word.
const _: () = assert!(Link::TAG_BITS >= 21);
const _: () = assert!(core::mem::align_of::<Node>() == 1 << SHIFT);

/// Queue node: tagged link + payload word.
#[repr(C, align(64))]
struct Node {
    next: AtomicU64,
    value: AtomicUsize,
}

const NODES_PER_SLAB: usize = 64;

/// A slab of nodes; slabs form an append-only list freed on drop.
#[repr(C)]
struct Slab {
    nodes: [Node; NODES_PER_SLAB],
    next: *mut Slab,
}

fn load(word: &AtomicU64) -> Link {
    Link::from_raw(word.load(Ordering::Acquire))
}

/// CASes `word` from `old` to the address `to` under the next tag: no
/// successful CAS on a link leaves its tag where it was.
fn swing(word: &AtomicU64, old: Link, to: usize) -> bool {
    let new = old.with_addr(to).bump_tag();
    word.compare_exchange(old.raw(), new.raw(), Ordering::AcqRel, Ordering::Relaxed).is_ok()
}

/// A lock-free MPMC FIFO queue of `usize` values.
///
/// # Example
///
/// ```
/// use lockfree_structs::Queue;
///
/// let q = Queue::new();
/// q.push(1);
/// q.push(2);
/// assert_eq!(q.pop(), Some(1));
/// assert_eq!(q.pop(), Some(2));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct Queue {
    head: CachePadded<AtomicU64>,
    tail: CachePadded<AtomicU64>,
    free: FreeList,
    slabs: AtomicPtr<Slab>,
}

impl Default for Queue {
    fn default() -> Self {
        Self::new()
    }
}

impl Queue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        let q = Queue {
            head: CachePadded::new(AtomicU64::new(0)),
            tail: CachePadded::new(AtomicU64::new(0)),
            free: FreeList::new(),
            slabs: AtomicPtr::new(core::ptr::null_mut()),
        };
        let dummy = Link::pack(q.take_node(0), 0).raw();
        q.head.store(dummy, Ordering::Relaxed);
        q.tail.store(dummy, Ordering::Relaxed);
        q
    }

    /// Appends `value` at the tail.
    pub fn push(&self, value: usize) {
        self.link(self.take_node(value));
    }

    /// Removes and returns the head value, or `None` if empty.
    pub fn pop(&self) -> Option<usize> {
        loop {
            let head = load(&self.head);
            let tail = load(&self.tail);
            // SAFETY: `head` always names a node.
            let next = load(&unsafe { self.node(head.addr()) }.next);
            if head.raw() != self.head.load(Ordering::Acquire) {
                continue;
            }
            if head.addr() == tail.addr() {
                if next.is_null() {
                    return None;
                }
                // The tail lags behind a non-empty queue: help it on.
                swing(&self.tail, tail, next.addr());
                continue;
            }
            // Read before the CAS: once `head` moves on, `next` is the
            // dummy and its value word may be a free-list link.
            // SAFETY: `head` held still while `tail` was elsewhere, so the
            // dummy had a successor, and `next` names it.
            let value = unsafe { self.node(next.addr()) }.value.load(Ordering::Acquire);
            if crate::fp("queue.dequeue").retry {
                continue;
            }
            if swing(&self.head, head, next.addr()) {
                // SAFETY: the CAS made the old dummy ours alone, and it
                // lies in one of this queue's slabs.
                unsafe { self.free.push(head.addr()) };
                return Some(value);
            }
        }
    }

    /// Best-effort emptiness check (exact only while quiescent).
    pub fn is_empty_hint(&self) -> bool {
        // SAFETY: `head` always names a node.
        load(&unsafe { self.node(load(&self.head).addr()) }.next).is_null()
    }

    /// Links the node at `addr`, fresh from [`take_node`](Self::take_node),
    /// behind the tail.
    fn link(&self, addr: usize) {
        loop {
            let tail = load(&self.tail);
            // SAFETY: `tail` always names a node.
            let last = unsafe { self.node(tail.addr()) };
            let next = load(&last.next);
            if tail.raw() != self.tail.load(Ordering::Acquire) {
                continue;
            }
            if !next.is_null() {
                // The tail lags: help it on.
                swing(&self.tail, tail, next.addr());
                continue;
            }
            if crate::fp("queue.enqueue").retry {
                continue;
            }
            if swing(&last.next, next, addr) {
                swing(&self.tail, tail, addr);
                return;
            }
        }
    }

    /// The node at `addr`.
    ///
    /// # Safety
    ///
    /// `addr` must be a node of this queue's slabs: an address read from
    /// `head`, `tail` or a non-null `next`, or one the free list handed
    /// out. Slabs live until drop, so such a node is readable in any of
    /// its lives, and its words are only ever accessed atomically.
    unsafe fn node(&self, addr: usize) -> &Node {
        unsafe { &*(addr as *const Node) }
    }

    /// A node off the free list (or a fresh slab) holding `value`, with a
    /// null `next` under the tag it carried: a stale enqueuer that read
    /// this node's `next` in an earlier life expects an older tag.
    fn take_node(&self, value: usize) -> usize {
        // SAFETY: every node ever pushed lies in a slab that lives until
        // drop.
        let addr = unsafe { self.free.pop() }.unwrap_or_else(|| self.carve_slab());
        // SAFETY: `addr` came off the free list or out of a fresh slab.
        let node = unsafe { self.node(addr) };
        node.value.store(value, Ordering::Relaxed);
        let next = Link::from_raw(node.next.load(Ordering::Relaxed));
        node.next.store(next.with_addr(0).raw(), Ordering::Relaxed);
        addr
    }

    /// Allocates a slab, keeps its first node for the caller and pushes
    /// the rest on the free list as one chain.
    fn carve_slab(&self) -> usize {
        let layout = Layout::new::<Slab>();
        // SAFETY: `Slab` is not zero-sized.
        let slab = unsafe { System.alloc_zeroed(layout) } as *mut Slab;
        assert!(!slab.is_null(), "queue node slab allocation failed");
        assert!(slab as usize + layout.size() <= 1 << ADDR, "queue node slab above 2^{ADDR}");
        let mut head = self.slabs.load(Ordering::Relaxed);
        loop {
            // SAFETY: the slab is ours until the CAS below publishes it,
            // and only `drop` reads this link.
            unsafe { (*slab).next = head };
            match self.slabs.compare_exchange_weak(head, slab, Ordering::Release, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(observed) => head = observed,
            }
        }
        // SAFETY: zeroed memory is an array of nodes with null links under
        // tag 0, and the slab lives as long as `self`.
        let nodes = unsafe { &(*slab).nodes };
        for pair in nodes[1..].windows(2) {
            pair[0].value.store(&pair[1] as *const Node as usize, Ordering::Relaxed);
        }
        let addr = |node: &Node| node as *const Node as usize;
        // SAFETY: nodes 1 to the last are linked in order above, no other
        // thread can see them yet, and their slab lives until drop.
        unsafe { self.free.push_chain(addr(&nodes[1]), addr(&nodes[NODES_PER_SLAB - 1])) };
        addr(&nodes[0])
    }
}

impl Drop for Queue {
    fn drop(&mut self) {
        let mut slab = *self.slabs.get_mut();
        while !slab.is_null() {
            // SAFETY: with `&mut self` no thread can reach a node, and
            // every slab on the list was allocated with this layout.
            let next = unsafe { (*slab).next };
            unsafe { System.dealloc(slab as *mut u8, Layout::new::<Slab>()) };
            slab = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::sync::Arc;

    impl Queue {
        fn slab_count(&self) -> usize {
            let mut n = 0;
            let mut p = self.slabs.load(Ordering::Acquire);
            while !p.is_null() {
                n += 1;
                p = unsafe { (*p).next };
            }
            n
        }
    }

    #[test]
    fn fifo_order_single_thread() {
        let q = Queue::new();
        assert!(q.is_empty_hint());
        for i in 0..100 {
            q.push(i);
        }
        assert!(!q.is_empty_hint());
        for i in 0..100 {
            assert_eq!(q.pop(), Some(i));
        }
        assert_eq!(q.pop(), None);
        assert!(q.is_empty_hint());
    }

    #[test]
    fn interleaved_push_pop() {
        let q = Queue::new();
        q.push(1);
        q.push(2);
        assert_eq!(q.pop(), Some(1));
        q.push(3);
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), None);
        q.push(4);
        assert_eq!(q.pop(), Some(4));
    }

    #[test]
    fn node_reuse_keeps_slab_count_bounded() {
        let q = Queue::new();
        for round in 0..50 {
            for i in 0..200 {
                q.push(round * 200 + i);
            }
            for _ in 0..200 {
                assert!(q.pop().is_some());
            }
        }
        // 10k ops through the queue: without recycling this would need
        // ~160 slabs; with the free list it stays small.
        assert!(
            q.slab_count() <= 8,
            "slab count {} suggests nodes are not recycled",
            q.slab_count()
        );
    }

    #[test]
    fn mpmc_stress_conserves_values_and_per_producer_order() {
        const PRODUCERS: usize = 3;
        const CONSUMERS: usize = 3;
        const PER_PRODUCER: usize = 5_000;
        let q = Arc::new(Queue::new());
        let done = Arc::new(std::sync::atomic::AtomicUsize::new(0));

        let mut handles = Vec::new();
        for p in 0..PRODUCERS {
            let q = Arc::clone(&q);
            let done = Arc::clone(&done);
            handles.push(std::thread::spawn(move || {
                for i in 0..PER_PRODUCER {
                    // Encode (producer, seq) in one word.
                    q.push((p << 32) | i);
                }
                done.fetch_add(1, Ordering::SeqCst);
            }));
        }
        let mut consumers = Vec::new();
        for _ in 0..CONSUMERS {
            let q = Arc::clone(&q);
            let done = Arc::clone(&done);
            consumers.push(std::thread::spawn(move || {
                let mut got: Vec<usize> = Vec::new();
                loop {
                    match q.pop() {
                        Some(v) => got.push(v),
                        None => {
                            if done.load(Ordering::SeqCst) == PRODUCERS && q.pop().is_none() {
                                // Double-check after producers finished.
                                break;
                            }
                            std::thread::yield_now();
                        }
                    }
                }
                got
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut all: Vec<usize> = Vec::new();
        for c in consumers {
            let got = c.join().unwrap();
            // Each consumer sees each producer's items in push order.
            let mut last = [None; PRODUCERS];
            for &v in &got {
                let (p, i) = (v >> 32, v & 0xFFFF_FFFF);
                assert!(last[p] < Some(i), "producer {p}: {i} after {:?}", last[p]);
                last[p] = Some(i);
            }
            all.extend(got);
        }
        // Residual items (raced with the final None check).
        while let Some(v) = q.pop() {
            all.push(v);
        }
        assert_eq!(all.len(), PRODUCERS * PER_PRODUCER, "values lost or duplicated");
        let mut counts: HashMap<usize, usize> = HashMap::new();
        for v in all {
            *counts.entry(v).or_default() += 1;
        }
        for p in 0..PRODUCERS {
            for i in 0..PER_PRODUCER {
                assert_eq!(counts.get(&((p << 32) | i)), Some(&1));
            }
        }
    }

    /// The dequeue ABA, one step at a time: A is frozen between reading
    /// the value behind the dummy D and its head CAS. B pops, pushes and
    /// pops until D is the dummy again (the free list is LIFO, so the
    /// push reuses D), then pushes one more value. The head's address is
    /// what A saw and its tag is not: A's CAS fails, A retries and takes
    /// the real front, and `x` comes out once.
    #[cfg(feature = "failpoints")]
    #[test]
    fn a_stale_dequeue_loses_to_the_head_tag() {
        use malloc_api::failpoints::{self as fp, FpAction, FpTrigger};
        let _guard = fp::scenario(0xABA);
        let q = Queue::new();
        let d = load(&q.head).addr();
        q.push(1); // x
        fp::arm_limited("queue.dequeue", FpAction::Park, FpTrigger::Always, 1);
        std::thread::scope(|s| {
            let a = s.spawn(|| q.pop());
            while fp::fired("queue.dequeue") == 0 {
                std::thread::yield_now();
            }
            // A holds (head = D, next = N1, value x) and is parked.
            assert_eq!(q.pop(), Some(1));
            q.push(2); // into D, which the pop above freed
            assert_eq!(q.pop(), Some(2));
            assert_eq!(load(&q.head).addr(), d, "D is the dummy again");
            q.push(3);
            fp::disarm("queue.dequeue");
            assert_eq!(a.join().unwrap(), Some(3), "A retried and took the real front");
        });
        assert_eq!(q.pop(), None);
        assert!(q.is_empty_hint());
        q.push(4);
        q.push(5);
        assert_eq!((q.pop(), q.pop(), q.pop()), (Some(4), Some(5), None));
    }

    /// The enqueue ABA: A is frozen between reading the tail D's `next`
    /// (null) and its link CAS. B pushes behind D and pops, which frees
    /// D, then takes D for a push of its own and holds it unlinked: D's
    /// `next` is null again, off the queue. Its tag is not what A saw:
    /// A's CAS fails, A links behind the real tail, and its value is in
    /// the queue when its push returns.
    #[cfg(feature = "failpoints")]
    #[test]
    fn a_stale_enqueue_loses_to_the_next_tag() {
        use malloc_api::failpoints::{self as fp, FpAction, FpTrigger};
        let _guard = fp::scenario(0xABA);
        let q = Queue::new();
        let d = load(&q.tail).addr();
        fp::arm_limited("queue.enqueue", FpAction::Park, FpTrigger::Always, 1);
        std::thread::scope(|s| {
            let a = s.spawn(|| q.push(1)); // x
            while fp::fired("queue.enqueue") == 0 {
                std::thread::yield_now();
            }
            // A holds (tail = D, next = null) and is parked.
            q.push(2);
            assert_eq!(q.pop(), Some(2));
            let held = q.take_node(3);
            assert_eq!(held, d, "B holds D, unlinked");
            fp::disarm("queue.enqueue");
            a.join().unwrap();
            assert!(!q.is_empty_hint(), "A's push returned, so x is in the queue");
            assert_eq!(q.pop(), Some(1));
            assert_eq!(q.pop(), None);
            q.link(held);
        });
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty_hint());
    }
}
