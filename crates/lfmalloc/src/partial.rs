//! Size-class partial-superblock lists (§3.2.6).
//!
//! Three operations are required: `ListPutPartial`, `ListGetPartial`,
//! and `ListRemoveEmptyDesc` ("to ensure that empty descriptors are
//! eventually made available for reuse"). The paper describes a FIFO
//! organization (a Michael–Scott queue, preferred) and a LIFO one (a
//! lock-free linked list); this is the LIFO, on the structure the
//! descriptor free list already uses: a [`DescStack`] threaded through
//! the descriptors' own link word. No node is allocated, nothing is
//! retired, and `ListGetPartial` on an empty list is one load.
//!
//! Why not the FIFO. The queue's nodes need a reclamation scheme, which
//! costs two hazard publications on every dequeue, including the one
//! that answers "empty" on each new-superblock malloc; the ablation that
//! compared the organizations (EXPERIMENTS.md, A1) had them within ±5 %.
//! What FIFO rotation bought `ListRemoveEmptyDesc` — successive calls
//! reach EMPTY descriptors queued behind a non-empty head — is covered
//! here by a bound instead: a class opens another superblock only after
//! `ListGetPartial` found its list empty, and `malloc_from_partial`
//! reopens every EMPTY descriptor `get` hands it before that, so the
//! EMPTY descriptors parked in a list — each still holding its 16 KiB
//! superblock (DESIGN.md §18) — never outnumber the superblocks the
//! class had at its peak (§17.4). `maintain`, `trim`, and a malloc of
//! any class that would otherwise map a hyperblock prune the rest.
//!
//! A listed descriptor is live: frees still CAS its `Anchor` while it
//! sits here, which is why the link is a field of its own. The safety
//! argument for the stack itself is in [`crate::descriptor`].

use crate::anchor::SbState;
use crate::descriptor::{walk_count, walk_len, DescStack, Descriptor, DescriptorPool};

/// One size class's partial list.
#[derive(Debug, Default)]
pub struct PartialList(DescStack);

impl PartialList {
    /// Creates an empty list.
    pub const fn new() -> Self {
        PartialList(DescStack::new())
    }

    /// `ListPutPartial(desc)`.
    ///
    /// # Safety
    ///
    /// `desc` must be a live descriptor not present in any other
    /// allocator structure.
    pub unsafe fn put(&self, desc: *mut Descriptor) {
        unsafe { self.0.push(desc as usize) }
    }

    /// `ListGetPartial()`: removes and returns some partial descriptor.
    ///
    /// # Safety
    ///
    /// Every descriptor ever put must still be mapped (they all are,
    /// outside a quiescent `trim`).
    pub unsafe fn get(&self) -> Option<*mut Descriptor> {
        unsafe { self.0.pop() }.map(|v| v as *mut Descriptor)
    }

    /// `ListRemoveEmptyDesc()`: retires popped EMPTY descriptors, each
    /// with its superblock, until a non-empty one (put back) or the end
    /// of the list.
    ///
    /// # Safety
    ///
    /// `pool` must be the instance's descriptor pool.
    pub unsafe fn remove_empty(&self, pool: &DescriptorPool) {
        while let Some(desc) = unsafe { self.get() } {
            if unsafe { (*desc).load_anchor() }.state() != SbState::Empty {
                unsafe { self.put(desc) };
                return;
            }
            unsafe { pool.retire(desc) };
        }
    }

    /// Quiescent snapshot of the descriptors currently in the list.
    ///
    /// # Safety
    ///
    /// No concurrent mutation; intended for offline auditing.
    pub unsafe fn snapshot(&self) -> Vec<*mut Descriptor> {
        unsafe { self.0.snapshot() }.into_iter().map(|a| a as *mut Descriptor).collect()
    }

    /// Descriptors listed right now, counting at most `limit`
    /// (diagnostics; see [`walk_len`]).
    pub fn len_hint(&self, limit: usize) -> usize {
        walk_len(&self.0, limit)
    }

    /// How many of them read EMPTY — each one a parked superblock.
    pub fn empty_hint(&self, limit: usize) -> usize {
        walk_count(&self.0, limit, |d| d.load_anchor().state() == SbState::Empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anchor::Anchor;
    use osmem::SystemSource;

    fn setup() -> (SystemSource, Box<DescriptorPool>) {
        (SystemSource::new(), Box::new(DescriptorPool::new()))
    }

    fn make_desc(pool: &DescriptorPool, src: &SystemSource, state: SbState) -> *mut Descriptor {
        let d = unsafe { pool.alloc(src) };
        assert!(!d.is_null());
        unsafe { (*d).store_anchor(Anchor::new(0, 1, state)) };
        d
    }

    #[test]
    fn put_get_roundtrip_is_lifo() {
        let (src, pool) = setup();
        let list = PartialList::new();
        let d1 = make_desc(&pool, &src, SbState::Partial);
        let d2 = make_desc(&pool, &src, SbState::Partial);
        unsafe {
            list.put(d1);
            list.put(d2);
            assert_eq!(list.len_hint(usize::MAX), 2);
            assert_eq!(list.get(), Some(d2), "LIFO order");
            assert_eq!(list.get(), Some(d1));
            assert_eq!(list.get(), None);
            pool.release_all(&src);
        }
    }

    #[test]
    fn remove_empty_retires_leading_empties() {
        let (src, pool) = setup();
        let list = PartialList::new();
        let e1 = make_desc(&pool, &src, SbState::Empty);
        let e2 = make_desc(&pool, &src, SbState::Empty);
        let partial = make_desc(&pool, &src, SbState::Partial);
        unsafe {
            list.put(partial);
            list.put(e1);
            list.put(e2);
            list.remove_empty(&pool);
            // Both empties went back to the pool (most recent on top);
            // the partial one is still listed.
            assert_eq!(list.snapshot(), vec![partial]);
            assert_eq!(pool.alloc(&src), e1);
            assert_eq!(pool.alloc(&src), e2);
            pool.release_all(&src);
        }
    }

    #[test]
    fn remove_empty_puts_a_nonempty_head_back_and_stops() {
        let (src, pool) = setup();
        let list = PartialList::new();
        let partial = make_desc(&pool, &src, SbState::Partial);
        let empty = make_desc(&pool, &src, SbState::Empty);
        unsafe {
            list.put(empty); // beneath the non-empty one
            list.put(partial);
            list.remove_empty(&pool);
            assert_eq!(list.snapshot(), vec![partial, empty], "nothing moved");
            list.remove_empty(&pool); // on an otherwise untouched list: same
            assert_eq!(list.get(), Some(partial));
            assert_eq!(list.get(), Some(empty));
            // On an empty list: nothing to do.
            list.remove_empty(&pool);
            assert_eq!(list.get(), None);
            pool.release_all(&src);
        }
    }
}
