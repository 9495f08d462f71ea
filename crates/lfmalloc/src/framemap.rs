//! The frame map: out-of-band block metadata (DESIGN.md §19).
//!
//! A small block carries no header. What `free` needs to know about a
//! pointer — descriptor, size class, heap column — is one word per
//! 16 KiB frame of address space, keyed on `addr >> SB_SHIFT`, written
//! by whoever holds the frame's descriptor exclusively and read by
//! everyone else. An empty word means "no small block lives here".
//!
//! Two radix levels of 2^17 words cover the 48 address bits the
//! descriptor stacks already limit the allocator to. Nodes are
//! anonymous zero mappings of their own (`osmem::source::anon`), outside
//! `os_stats()` like the slot table, and are touched a page at a
//! time; a leaf spans 2 GiB and lives as long as the map.

use crate::config::{DESC_ALIGN_SHIFT, SB_SHIFT};
use crate::descriptor::{Descriptor, DESC_ADDR_BITS};
use core::mem::size_of;
use core::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use osmem::source::anon;

const LEVEL_BITS: u32 = (DESC_ADDR_BITS - SB_SHIFT) / 2;
const LEVEL_LEN: usize = 1 << LEVEL_BITS;
const _: () = assert!(2 * LEVEL_BITS + SB_SHIFT == DESC_ADDR_BITS);
const CLASS_MASK: usize = (1 << DESC_ALIGN_SHIFT) - 1;

/// One frame's word: `descriptor | class index | heap column << 48`.
/// The descriptor is 64-byte aligned and below 2^48, which leaves the
/// low 6 and the high 16 bits; 0 is the empty entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Entry(usize);

impl Entry {
    pub(crate) const EMPTY: Entry = Entry(0);

    #[inline]
    pub(crate) fn pack(desc: *const Descriptor, class: usize, column: usize) -> Entry {
        debug_assert!(core::ptr::eq(Entry(desc as usize).desc(), desc));
        debug_assert!(class <= CLASS_MASK && column < 1 << 16);
        Entry(desc as usize | class | column << DESC_ADDR_BITS)
    }

    /// True where no small block lives.
    #[inline]
    pub(crate) fn is_empty(self) -> bool {
        self.0 == 0
    }

    #[inline]
    pub(crate) fn desc(self) -> *mut Descriptor {
        (self.0 & ((1 << DESC_ADDR_BITS) - 1) & !CLASS_MASK) as *mut Descriptor
    }

    #[inline]
    pub(crate) fn class(self) -> usize {
        self.0 & CLASS_MASK
    }

    /// Column of the heap that owned the frame's superblock when the
    /// entry was written.
    #[inline]
    pub(crate) fn column(self) -> usize {
        self.0 >> DESC_ADDR_BITS
    }
}

#[repr(C)]
struct Leaf {
    words: [AtomicUsize; LEVEL_LEN],
    /// The leaf installed before this one (teardown's chain).
    older: AtomicPtr<Leaf>,
}

const ROOT_BYTES: usize = size_of::<[AtomicPtr<Leaf>; LEVEL_LEN]>();

pub(crate) struct FrameMap {
    root: *mut AtomicPtr<Leaf>,
    /// Newest leaf; each names the one before it.
    leaves: AtomicPtr<Leaf>,
}

// SAFETY: `root` is an owned allocation of atomics, freed only by `drop`.
unsafe impl Send for FrameMap {}
unsafe impl Sync for FrameMap {}

impl FrameMap {
    pub(crate) fn new() -> Option<Self> {
        let root = anon::map(ROOT_BYTES) as *mut AtomicPtr<Leaf>;
        (!root.is_null()).then(|| FrameMap { root, leaves: AtomicPtr::new(core::ptr::null_mut()) })
    }

    /// The word of `addr`'s frame, if a leaf covers it.
    #[inline]
    fn word(&self, addr: usize) -> Option<&AtomicUsize> {
        let at = addr >> (SB_SHIFT + LEVEL_BITS);
        if at >= LEVEL_LEN {
            return None;
        }
        // Acquire: pairs with the root CAS that published the leaf, so its
        // zeroes are seen with it.
        // SAFETY: `root` holds `LEVEL_LEN` words until drop; a leaf, once
        // installed, lives as long as the map.
        let leaf = unsafe { (*self.root.add(at)).load(Ordering::Acquire).as_ref() };
        leaf.map(|l| &l.words[(addr >> SB_SHIFT) & (LEVEL_LEN - 1)])
    }

    /// Makes sure `addr`'s frame has a word to write. False when it can
    /// have none: the address is beyond [`DESC_ADDR_BITS`], or the kernel
    /// has no leaf to give — no memory, as far as small blocks are
    /// concerned.
    pub(crate) fn cover(&self, addr: usize) -> bool {
        let at = addr >> (SB_SHIFT + LEVEL_BITS);
        if self.word(addr).is_some() || at >= LEVEL_LEN {
            return at < LEVEL_LEN;
        }
        let fresh = anon::map(size_of::<Leaf>()) as *mut Leaf;
        if fresh.is_null() {
            return false;
        }
        let slot = unsafe { &*self.root.add(at) };
        let null = core::ptr::null_mut();
        if slot.compare_exchange(null, fresh, Ordering::AcqRel, Ordering::Acquire).is_err() {
            // Another thread covered the same 2 GiB first.
            unsafe { anon::unmap(fresh as *mut u8, size_of::<Leaf>()) };
            return true;
        }
        // Linked, then published (`link` never declines): a chain reader meets no gap.
        let link = |older| {
            unsafe { (*fresh).older.store(older, Ordering::Relaxed) };
            Some(fresh)
        };
        self.leaves.fetch_update(Ordering::AcqRel, Ordering::Acquire, link).is_ok()
    }

    /// The entry of `addr`'s frame; empty where no leaf reaches.
    #[inline]
    pub(crate) fn get(&self, addr: usize) -> Entry {
        // Acquire: an entry is written after the descriptor fields a
        // reader goes on to trust.
        self.word(addr).map_or(Entry::EMPTY, |w| Entry(w.load(Ordering::Acquire)))
    }

    /// Writes the entry of `addr`'s frame, which [`cover`](Self::cover)
    /// has vouched for. The caller holds the frame's descriptor
    /// exclusively.
    #[inline]
    pub(crate) fn set(&self, addr: usize, entry: Entry) {
        match self.word(addr) {
            Some(w) => w.store(entry.0, Ordering::Release),
            None => debug_assert!(false, "frame {addr:#x} was never covered"),
        }
    }

    /// Leaves installed so far.
    pub(crate) fn leaf_count(&self) -> usize {
        // SAFETY: leaves live as long as the map.
        let newest = unsafe { self.leaves.load(Ordering::Acquire).as_ref() };
        core::iter::successors(newest, |l| unsafe { l.older.load(Ordering::Relaxed).as_ref() }).count()
    }
}

impl Drop for FrameMap {
    fn drop(&mut self) {
        let mut p = *self.leaves.get_mut();
        while !p.is_null() {
            let older = unsafe { *(*p).older.get_mut() };
            unsafe { anon::unmap(p as *mut u8, size_of::<Leaf>()) };
            p = older;
        }
        unsafe { anon::unmap(self.root as *mut u8, ROOT_BYTES) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SB_SIZE;

    const REACH: usize = 1 << (SB_SHIFT + LEVEL_BITS);

    fn entry(desc: usize, class: usize, column: usize) -> Entry {
        Entry::pack(desc as *const Descriptor, class, column)
    }

    #[test]
    fn entries_pack_descriptor_class_and_column() {
        let e = entry(0x7FFF_FFFF_FFC0, 56, 0xFFFF);
        assert_eq!((e.desc() as usize, e.class(), e.column()), (0x7FFF_FFFF_FFC0, 56, 0xFFFF));
        assert!(!e.is_empty() && Entry::EMPTY.is_empty());
        assert!(!entry(0x40, 0, 0).is_empty(), "class 0, column 0 is still an entry");
    }

    use malloc_api::testkit::resident_pages;

    #[test]
    fn nodes_are_resident_a_page_at_a_time_whatever_malloc_did_before() {
        // A process that has freed a large `malloc` block: glibc's mmap
        // threshold now lies above a node's size, and `calloc` would hand
        // out recycled memory, memset in full.
        for _ in 0..2 {
            drop(std::hint::black_box(vec![1u8; 8 << 20]));
        }
        let map = FrameMap::new().unwrap();
        assert_eq!(resident_pages(map.root, ROOT_BYTES), 0, "an untouched root");
        // 512 frames to a page of leaf: 8 MiB of heap, superblock by superblock.
        let sb = 0x7F12_3400_0000;
        for f in 0..512 {
            assert!(map.cover(sb + f * SB_SIZE));
            map.set(sb + f * SB_SIZE, entry(0x1000, 3, 1));
        }
        assert_eq!(resident_pages(map.root, ROOT_BYTES), 1, "the page of the leaf's pointer");
        let leaf = map.leaves.load(Ordering::Relaxed);
        assert_eq!(resident_pages(leaf, size_of::<Leaf>()), 2, "the entries' page and the chain link's");
    }

    #[test]
    fn set_get_clear_one_frame_at_a_time() {
        let map = FrameMap::new().unwrap();
        let sb = 0x7F12_3456_4000;
        assert!(map.get(sb).is_empty(), "no leaf yet");
        assert_eq!(map.leaf_count(), 0);
        assert!(map.cover(sb));
        assert!(map.get(sb).is_empty(), "a fresh leaf is all empty");
        map.set(sb, entry(0x1000, 3, 1));
        for addr in [sb, sb + 8, sb + SB_SIZE - 1] {
            assert_eq!(map.get(addr), entry(0x1000, 3, 1), "every address of the frame");
        }
        assert!(map.get(sb - 1).is_empty() && map.get(sb + SB_SIZE).is_empty());
        map.set(sb, Entry::EMPTY);
        assert!(map.get(sb).is_empty());
        assert!(map.cover(sb + SB_SIZE) && map.leaf_count() == 1, "same 2 GiB, same leaf");
    }

    #[test]
    fn frames_two_gib_apart_live_in_leaves_of_their_own() {
        let map = FrameMap::new().unwrap();
        let (near, far) = (0x7F00_0000_0000, 0x5500_0000_4000);
        assert!(map.cover(near) && map.cover(far));
        assert_eq!(map.leaf_count(), 2);
        map.set(near, entry(0x40, 1, 0));
        map.set(far, entry(0x80, 2, 0));
        assert_eq!((map.get(near).desc() as usize, map.get(far).desc() as usize), (0x40, 0x80));
        // The last frame of one leaf and the first of the next.
        let edge = near + REACH - near % REACH;
        assert!(map.cover(edge - SB_SIZE) && map.cover(edge));
        assert_eq!(map.leaf_count(), 3);
        map.set(edge, entry(0xC0, 0, 0));
        assert!(map.get(edge - 1).is_empty());
        assert_eq!(map.get(edge).desc() as usize, 0xC0);
    }

    #[test]
    fn addresses_above_48_bits_have_no_frame() {
        let map = FrameMap::new().unwrap();
        let top = 1usize << DESC_ADDR_BITS;
        assert!(map.cover(top - SB_SIZE), "the last frame below the line");
        for addr in [top, top + SB_SIZE, usize::MAX] {
            assert!(!map.cover(addr), "{addr:#x} is refused");
            assert!(map.get(addr).is_empty());
        }
        assert_eq!(map.leaf_count(), 1);
    }

    #[test]
    fn two_threads_racing_to_cover_one_reach_install_one_leaf() {
        for round in 0..64usize {
            let map = FrameMap::new().unwrap();
            let barrier = std::sync::Barrier::new(2);
            let sb = 0x7000_0000_0000 + round * REACH;
            std::thread::scope(|s| {
                for t in 0..2usize {
                    let (map, barrier) = (&map, &barrier);
                    s.spawn(move || {
                        barrier.wait();
                        assert!(map.cover(sb + t * SB_SIZE));
                        map.set(sb + t * SB_SIZE, entry(0x40 << t, t, t));
                    });
                }
            });
            assert_eq!(map.leaf_count(), 1, "the loser freed its leaf");
            assert_eq!(map.get(sb), entry(0x40, 0, 0));
            assert_eq!(map.get(sb + SB_SIZE), entry(0x80, 1, 1));
        }
    }
}
