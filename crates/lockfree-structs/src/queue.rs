//! Michael–Scott lock-free FIFO queue with hazard-pointer memory
//! management.
//!
//! The paper manages each size class's list of partial superblocks with
//! "a version of the lock-free FIFO queue algorithm in [20] with
//! optimized memory management" (§3.2.6): FIFO order reduces contention
//! and false sharing versus a LIFO list, and queue nodes are allocated
//! "in a manner similar but simpler than allocating descriptors" — i.e.
//! from internal slabs, not from a general-purpose malloc (which would
//! be circular inside an allocator).
//!
//! This module provides:
//!
//! * [`RawQueue`] — the embeddable engine: caller supplies the
//!   [`HazardDomain`] and guarantees address stability. `lfmalloc` used
//!   it for its per-size-class partial lists until its descriptors
//!   moved to tag-protected intrusive stacks (DESIGN.md §17); it stays
//!   as the engine under [`Queue`].
//! * [`Queue`] — a safe, self-contained wrapper (own domain, boxed for
//!   address stability) used by tests and by the producer–consumer
//!   benchmark of §4.1.
//!
//! Nodes are 16 bytes (`next` + `value`), matching the "fixed size queue
//! node (16 bytes)" the paper's producer–consumer benchmark allocates.

use crate::backoff::Backoff;
use core::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use hazard::{HazardDomain, Slot};
use std::alloc::{GlobalAlloc, Layout, System};

/// Hazard slot used for the queue head / enqueue tail.
pub const SLOT_HEAD: Slot = Slot(0);
/// Hazard slot used for the dequeued node's successor.
pub const SLOT_NEXT: Slot = Slot(1);
/// Hazard slot used by the node free-list pop.
pub const SLOT_FREE: Slot = Slot(2);

/// Queue node: intrusive link + payload word.
#[repr(C)]
#[derive(Debug)]
pub struct Node {
    next: AtomicPtr<Node>,
    value: AtomicUsize,
}

const NODES_PER_SLAB: usize = 64;

/// Header prepended to each slab of nodes; slabs form an append-only
/// list freed when the pool drops.
#[repr(C)]
struct SlabHeader {
    next: *mut SlabHeader,
}

fn slab_layout() -> Layout {
    Layout::new::<SlabHeader>()
        .extend(Layout::array::<Node>(NODES_PER_SLAB).unwrap())
        .unwrap()
        .0
        .pad_to_align()
}

/// A never-shrinking pool of queue nodes backed by system-allocator
/// slabs. Free nodes sit on a LIFO whose pop is the paper's `SafeCAS`
/// (§3.2.5, Figure 7): the CAS is ABA-safe because the popper publishes
/// a hazard pointer to the head it read, and a popped node re-enters
/// the list only through [`HazardDomain::retire`], that is, once no
/// thread protects it. Fresh nodes (never popped) are pushed directly.
#[derive(Debug)]
pub struct NodePool {
    free: AtomicPtr<Node>,
    slabs: AtomicPtr<SlabHeader>,
}

unsafe impl Send for NodePool {}
unsafe impl Sync for NodePool {}

impl NodePool {
    /// Creates an empty pool (no slab is allocated until first use).
    pub const fn new() -> Self {
        NodePool {
            free: AtomicPtr::new(core::ptr::null_mut()),
            slabs: AtomicPtr::new(core::ptr::null_mut()),
        }
    }

    /// Pushes `node` on the free list.
    ///
    /// # Safety
    ///
    /// `node` must be valid, not on the list, and either never popped
    /// or arriving through `retire` (see the type's docs).
    unsafe fn push_free(&self, node: *mut Node) {
        let mut backoff = Backoff::new();
        let mut head = self.free.load(Ordering::Acquire);
        loop {
            unsafe { (*node).next.store(head, Ordering::Relaxed) };
            match self.free.compare_exchange_weak(head, node, Ordering::Release, Ordering::Acquire)
            {
                Ok(_) => return,
                Err(observed) => {
                    crate::cas_retry!(STACK_PUSH_RETRIES);
                    head = observed;
                    backoff.spin();
                }
            }
        }
    }

    /// Pops a free node under hazard slot [`SLOT_FREE`].
    ///
    /// # Safety
    ///
    /// `domain` must be the one domain used for all operations on this
    /// pool.
    unsafe fn pop_free(&self, domain: &HazardDomain) -> Option<*mut Node> {
        let mut backoff = Backoff::new();
        loop {
            let p = domain.protect(SLOT_FREE, &self.free);
            if p.is_null() {
                domain.clear(SLOT_FREE);
                return None;
            }
            // p is protected: it cannot be reclaimed and pushed again, so
            // its link is stable if p is still the head.
            let next = unsafe { (*p).next.load(Ordering::Acquire) };
            if self.free.compare_exchange(p, next, Ordering::AcqRel, Ordering::Acquire).is_ok() {
                domain.clear(SLOT_FREE);
                return Some(p);
            }
            crate::cas_retry!(STACK_POP_RETRIES);
            backoff.spin();
        }
    }

    /// Pops a free node, refilling from a fresh slab when empty.
    ///
    /// # Safety
    ///
    /// `domain` must be the one domain used for all operations on this
    /// pool.
    pub unsafe fn alloc_node(&self, domain: &HazardDomain) -> *mut Node {
        if let Some(n) = unsafe { self.pop_free(domain) } {
            return n;
        }
        // Refill: one slab, first node returned, rest pushed free.
        let layout = slab_layout();
        let raw = unsafe { System.alloc(layout) };
        assert!(!raw.is_null(), "queue node slab allocation failed");
        let header = raw as *mut SlabHeader;
        // Register the slab (lock-free prepend; only Drop pops).
        let mut head = self.slabs.load(Ordering::Acquire);
        loop {
            unsafe { (*header).next = head };
            match self.slabs.compare_exchange_weak(
                head,
                header,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => break,
                Err(observed) => head = observed,
            }
        }
        let nodes = unsafe { raw.add(core::mem::size_of::<SlabHeader>()) } as *mut Node;
        for i in 0..NODES_PER_SLAB {
            let n = unsafe { nodes.add(i) };
            unsafe {
                n.write(Node {
                    next: AtomicPtr::new(core::ptr::null_mut()),
                    value: AtomicUsize::new(0),
                });
            }
            if i != 0 {
                // Fresh nodes may be pushed directly (never popped yet).
                unsafe { self.push_free(n) };
            }
        }
        nodes
    }

    /// Hands a detached node to the domain; it returns to the free stack
    /// once unprotected.
    ///
    /// # Safety
    ///
    /// `node` must be detached from the queue, and `self` must be
    /// address-stable until the domain is dropped.
    pub unsafe fn retire_node(&self, domain: &HazardDomain, node: *mut Node) {
        unsafe fn reclaim(ctx: *mut u8, ptr: *mut u8) {
            let pool = unsafe { &*(ctx as *const NodePool) };
            unsafe { pool.push_free(ptr as *mut Node) };
        }
        unsafe { domain.retire(node as *mut u8, self as *const _ as *mut u8, reclaim) };
    }

    /// Number of slabs allocated so far (diagnostics: bounded reuse).
    pub fn slab_count(&self) -> usize {
        let mut n = 0;
        let mut p = self.slabs.load(Ordering::Acquire);
        while !p.is_null() {
            n += 1;
            p = unsafe { (*p).next };
        }
        n
    }
}

impl Default for NodePool {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for NodePool {
    fn drop(&mut self) {
        let mut p = *self.slabs.get_mut();
        let layout = slab_layout();
        while !p.is_null() {
            let next = unsafe { (*p).next };
            unsafe { System.dealloc(p as *mut u8, layout) };
            p = next;
        }
    }
}

/// The embeddable Michael–Scott queue engine.
///
/// The caller owns the [`HazardDomain`] (letting many queues share one
/// domain) and must keep both the queue
/// and the domain at stable addresses between `init` and drop.
#[derive(Debug)]
pub struct RawQueue {
    head: AtomicPtr<Node>,
    tail: AtomicPtr<Node>,
    pool: NodePool,
}

unsafe impl Send for RawQueue {}
unsafe impl Sync for RawQueue {}

impl RawQueue {
    /// Creates an uninitialized queue; call [`init`](Self::init) before
    /// any enqueue/dequeue.
    pub const fn new() -> Self {
        RawQueue {
            head: AtomicPtr::new(core::ptr::null_mut()),
            tail: AtomicPtr::new(core::ptr::null_mut()),
            pool: NodePool::new(),
        }
    }

    /// Allocates the dummy node. Must be called exactly once, before any
    /// concurrent use.
    ///
    /// # Safety
    ///
    /// Single-threaded call; `self` must not move afterwards.
    pub unsafe fn init(&self, domain: &HazardDomain) {
        let dummy = unsafe { self.pool.alloc_node(domain) };
        unsafe { (*dummy).next.store(core::ptr::null_mut(), Ordering::Relaxed) };
        self.head.store(dummy, Ordering::Release);
        self.tail.store(dummy, Ordering::Release);
    }

    /// Appends `value` at the tail.
    ///
    /// # Safety
    ///
    /// `init` must have completed with this same `domain`.
    pub unsafe fn enqueue(&self, domain: &HazardDomain, value: usize) {
        let node = unsafe { self.pool.alloc_node(domain) };
        unsafe {
            (*node).next.store(core::ptr::null_mut(), Ordering::Relaxed);
            (*node).value.store(value, Ordering::Relaxed);
        }
        loop {
            if crate::fp("queue.enqueue").retry {
                continue; // forced retry arm (kill has no legal meaning here)
            }
            let t = domain.protect(SLOT_HEAD, &self.tail);
            let next = unsafe { (*t).next.load(Ordering::Acquire) };
            if self.tail.load(Ordering::Acquire) != t {
                crate::cas_retry!(QUEUE_ENQUEUE_RETRIES);
                continue;
            }
            if !next.is_null() {
                // Tail is lagging: help swing it forward.
                let _ = self.tail.compare_exchange(t, next, Ordering::Release, Ordering::Relaxed);
                crate::cas_retry!(QUEUE_ENQUEUE_RETRIES);
                continue;
            }
            if unsafe { &(*t).next }
                .compare_exchange(
                    core::ptr::null_mut(),
                    node,
                    Ordering::Release,
                    Ordering::Relaxed,
                )
                .is_ok()
            {
                let _ = self.tail.compare_exchange(t, node, Ordering::Release, Ordering::Relaxed);
                domain.clear(SLOT_HEAD);
                return;
            }
            crate::cas_retry!(QUEUE_ENQUEUE_RETRIES);
        }
    }

    /// Removes and returns the value at the head, or `None` if empty.
    ///
    /// # Safety
    ///
    /// `init` must have completed with this same `domain`.
    pub unsafe fn dequeue(&self, domain: &HazardDomain) -> Option<usize> {
        loop {
            if crate::fp("queue.dequeue").retry {
                continue;
            }
            let h = domain.protect(SLOT_HEAD, &self.head);
            let t = self.tail.load(Ordering::Acquire);
            let next = unsafe { (*h).next.load(Ordering::Acquire) };
            domain.set(SLOT_NEXT, next);
            if self.head.load(Ordering::Acquire) != h {
                crate::cas_retry!(QUEUE_DEQUEUE_RETRIES);
                continue; // validation of both h and next failed
            }
            if next.is_null() {
                domain.clear(SLOT_HEAD);
                domain.clear(SLOT_NEXT);
                return None;
            }
            if h == t {
                // Tail lagging behind a non-empty queue: help.
                let _ = self.tail.compare_exchange(t, next, Ordering::Release, Ordering::Relaxed);
                crate::cas_retry!(QUEUE_DEQUEUE_RETRIES);
                continue;
            }
            // `next` is protected; read the value before unlinking `h`.
            let value = unsafe { (*next).value.load(Ordering::Acquire) };
            if self
                .head
                .compare_exchange(h, next, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                domain.clear(SLOT_HEAD);
                domain.clear(SLOT_NEXT);
                unsafe { self.pool.retire_node(domain, h) };
                return Some(value);
            }
            crate::cas_retry!(QUEUE_DEQUEUE_RETRIES);
        }
    }

    /// Best-effort emptiness check (exact only while quiescent).
    pub fn is_empty_hint(&self) -> bool {
        let h = self.head.load(Ordering::Acquire);
        if h.is_null() {
            return true; // not yet initialized
        }
        unsafe { (*h).next.load(Ordering::Acquire).is_null() }
    }

    /// Slab count of the internal node pool (diagnostics).
    pub fn slab_count(&self) -> usize {
        self.pool.slab_count()
    }
}

impl Default for RawQueue {
    fn default() -> Self {
        Self::new()
    }
}

struct QueueInner {
    // Field order is drop order: the domain must drop first so its
    // retired nodes are pushed back into the pool before the pool frees
    // its slabs.
    domain: HazardDomain,
    raw: RawQueue,
}

/// A safe, self-contained MPMC lock-free FIFO queue of `usize` values.
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
    inner: Box<QueueInner>,
}

impl core::fmt::Debug for QueueInner {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("QueueInner").finish_non_exhaustive()
    }
}

impl Default for Queue {
    fn default() -> Self {
        Self::new()
    }
}

impl Queue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        let inner = Box::new(QueueInner { domain: HazardDomain::new(), raw: RawQueue::new() });
        // The Box pins the addresses RawQueue and the reclaim context
        // depend on.
        unsafe { inner.raw.init(&inner.domain) };
        Queue { inner }
    }

    /// Appends `value` at the tail.
    pub fn push(&self, value: usize) {
        unsafe { self.inner.raw.enqueue(&self.inner.domain, value) }
    }

    /// Removes and returns the head value, or `None` if empty.
    pub fn pop(&self) -> Option<usize> {
        unsafe { self.inner.raw.dequeue(&self.inner.domain) }
    }

    /// Best-effort emptiness check.
    pub fn is_empty_hint(&self) -> bool {
        self.inner.raw.is_empty_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::sync::Arc;

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
        // ~160 slabs; with hazard-mediated recycling it stays small.
        assert!(
            q.inner.raw.slab_count() <= 8,
            "slab count {} suggests nodes are not recycled",
            q.inner.raw.slab_count()
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
            all.extend(c.join().unwrap());
        }
        // Residual items (raced with the final None check).
        while let Some(v) = q.pop() {
            all.push(v);
        }
        assert_eq!(all.len(), PRODUCERS * PER_PRODUCER, "values lost or duplicated");
        // Per-producer FIFO order must hold in each consumer's local
        // sequence; globally we check the multiset and that each
        // producer's items are all present exactly once.
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

    use core::sync::atomic::Ordering;

    #[test]
    fn raw_queue_shared_domain() {
        // Two queues sharing one domain.
        let domain = Box::new(HazardDomain::new());
        let q1 = Box::new(RawQueue::new());
        let q2 = Box::new(RawQueue::new());
        unsafe {
            q1.init(&domain);
            q2.init(&domain);
            q1.enqueue(&domain, 10);
            q2.enqueue(&domain, 20);
            assert_eq!(q1.dequeue(&domain), Some(10));
            assert_eq!(q2.dequeue(&domain), Some(20));
            assert_eq!(q1.dequeue(&domain), None);
        }
        // Domain must drop before the queues' pools.
        drop(domain);
        drop(q1);
        drop(q2);
    }
}
