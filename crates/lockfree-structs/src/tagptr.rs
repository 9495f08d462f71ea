//! Pointer + ABA tag packed into a single 64-bit CAS-able word.
//!
//! This is the "classic IBM tag mechanism" the paper uses to make its
//! `Anchor` pops ABA-safe (§3.2.3): every mutation that could re-expose
//! an old pointer value also bumps a tag, so a delayed CAS whose expected
//! pointer has been popped and re-pushed still fails.
//!
//! Because 64-bit architectures only provide 64-bit CAS (the paper
//! laments the absence of wider CAS), the tag must share the word with
//! the pointer. We exploit alignment: a pointer aligned to `2^SHIFT` has
//! `SHIFT` low zero bits, and canonical user addresses fit in 57 bits
//! (x86-64 five-level paging upper bound), so packing
//! `addr >> SHIFT` into the high bits leaves `7 + SHIFT` bits of tag.
//! For the 16 KiB-aligned superblocks of the page pool that is a 21-bit
//! tag (2M wrap-around); the paper's own 42-bit anchor tag carries the
//! same practical-impossibility argument.
//!
//! A user whose nodes are only weakly aligned buys tag bits back by
//! promising a narrower address range (`ADDR`): the allocator's
//! 64-byte-aligned descriptors pack 48-bit addresses (all Linux hands
//! out without an explicit hint, on x86-64 and aarch64) for a 22-bit
//! tag, and refuse memory mapped above that as out-of-memory.

/// Number of address bits assumed significant by default (x86-64 LA57
/// upper bound).
pub const ADDR_BITS: u32 = 57;

/// A `(pointer, tag)` pair packed into `u64`, parameterized by the
/// pointer's guaranteed alignment `2^SHIFT` and the number of
/// significant address bits `ADDR` (every packed address must lie below
/// `2^ADDR`).
///
/// # Example
///
/// ```
/// use lockfree_structs::TagPtr;
///
/// // 64-byte aligned pointers: 13 tag bits.
/// let p = TagPtr::<6>::pack(0x1_0000, 5);
/// assert_eq!(p.addr(), 0x1_0000);
/// assert_eq!(p.tag(), 5);
/// let q = p.with_addr(0x2_0000).bump_tag();
/// assert_eq!(q.addr(), 0x2_0000);
/// assert_eq!(q.tag(), 6);
/// ```
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct TagPtr<const SHIFT: u32, const ADDR: u32 = ADDR_BITS>(u64);

impl<const SHIFT: u32, const ADDR: u32> TagPtr<SHIFT, ADDR> {
    /// Bits available for the tag.
    pub const TAG_BITS: u32 = 64 - (ADDR - SHIFT);
    /// Mask extracting the tag from the packed word.
    pub const TAG_MASK: u64 = (1u64 << Self::TAG_BITS) - 1;

    /// Packs an address (aligned to `2^SHIFT`) and a tag (wraps at
    /// `2^TAG_BITS`).
    ///
    /// # Panics
    ///
    /// Debug-panics if `addr` is misaligned or needs more than `ADDR`
    /// bits.
    #[inline]
    pub fn pack(addr: usize, tag: u64) -> Self {
        debug_assert_eq!(addr & ((1 << SHIFT) - 1), 0, "misaligned addr {addr:#x}");
        debug_assert!(addr < (1usize << ADDR), "addr {addr:#x} above 2^{ADDR}");
        TagPtr((((addr as u64) >> SHIFT) << Self::TAG_BITS) | (tag & Self::TAG_MASK))
    }

    /// Packs a *possibly garbage* address read through a benign race,
    /// masking it to alignment and `ADDR` bits instead of asserting.
    ///
    /// `TaggedStack::pop` reads the link word of a region that a racing
    /// pop may already own and have overwritten with arbitrary bytes;
    /// the algorithm stays correct because the tag-checked CAS fails
    /// whenever that happened. The speculative value built from the
    /// garbage must therefore be *representable*, not *valid* — it is
    /// only ever handed to a CAS that is guaranteed to reject it, and
    /// never dereferenced. Release-mode [`pack`](Self::pack) already
    /// drops the same bits via shifting; this makes the debug build
    /// match instead of dying on an assert the design explicitly
    /// tolerates.
    #[inline]
    pub fn pack_masked(addr: usize, tag: u64) -> Self {
        let clean = addr & !((1usize << SHIFT) - 1) & ((1usize << ADDR) - 1);
        Self::pack(clean, tag)
    }

    /// [`with_addr`](Self::with_addr) for racy reads: masks instead of
    /// asserting (see [`pack_masked`](Self::pack_masked)).
    #[inline]
    pub fn with_addr_masked(self, addr: usize) -> Self {
        Self::pack_masked(addr, self.tag())
    }

    /// Reinterprets a raw packed word (e.g. loaded from an `AtomicU64`).
    #[inline]
    pub const fn from_raw(raw: u64) -> Self {
        TagPtr(raw)
    }

    /// The raw packed word (for storing into an `AtomicU64`).
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The pointer component.
    #[inline]
    pub const fn addr(self) -> usize {
        ((self.0 >> Self::TAG_BITS) << SHIFT) as usize
    }

    /// The tag component.
    #[inline]
    pub const fn tag(self) -> u64 {
        self.0 & Self::TAG_MASK
    }

    /// True if the pointer component is zero.
    #[inline]
    pub const fn is_null(self) -> bool {
        self.addr() == 0
    }

    /// Same tag, different address.
    #[inline]
    pub fn with_addr(self, addr: usize) -> Self {
        Self::pack(addr, self.tag())
    }

    /// Same address, tag incremented (wrapping) — the ABA bump.
    #[inline]
    pub fn bump_tag(self) -> Self {
        Self::pack(self.addr(), self.tag().wrapping_add(1))
    }

    /// The null pointer with tag zero.
    #[inline]
    pub const fn null() -> Self {
        TagPtr(0)
    }
}

impl<const SHIFT: u32, const ADDR: u32> core::fmt::Debug for TagPtr<SHIFT, ADDR> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "TagPtr(addr={:#x}, tag={})", self.addr(), self.tag())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// xorshift64* (see `malloc_api::testkit::TestRng`); local copy so
    /// this crate's tests need no dev-dependencies.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545F4914F6CDD1D)
        }
    }

    #[test]
    fn null_is_null() {
        let p = TagPtr::<14>::null();
        assert!(p.is_null());
        assert_eq!(p.addr(), 0);
        assert_eq!(p.tag(), 0);
    }

    #[test]
    fn tag_bits_depend_on_alignment() {
        assert_eq!(TagPtr::<14>::TAG_BITS, 21); // 16 KiB superblocks
        assert_eq!(TagPtr::<6>::TAG_BITS, 13); // 64 B descriptors
        assert_eq!(TagPtr::<12>::TAG_BITS, 19); // 4 KiB pages
        assert_eq!(TagPtr::<6, 48>::TAG_BITS, 22); // descriptors below 2^48
    }

    #[test]
    fn tag_wraps_without_touching_addr() {
        let max_tag = TagPtr::<14>::TAG_MASK;
        let p = TagPtr::<14>::pack(0x4000, max_tag);
        let q = p.bump_tag();
        assert_eq!(q.tag(), 0, "tag must wrap");
        assert_eq!(q.addr(), 0x4000, "addr must survive tag wrap");
    }

    #[test]
    fn distinct_tags_give_distinct_words() {
        let a = TagPtr::<14>::pack(0x4000, 1);
        let b = TagPtr::<14>::pack(0x4000, 2);
        assert_ne!(a.raw(), b.raw(), "ABA protection requires distinct raw words");
    }

    #[test]
    fn pack_unpack_roundtrip_sb() {
        let mut rng = Rng(0x7A97);
        for _ in 0..4096 {
            let addr = ((rng.next() as usize) & ((1usize << 43) - 1)) << 14;
            let tag = rng.next() & ((1 << 21) - 1);
            let p = TagPtr::<14>::pack(addr, tag);
            assert_eq!(p.addr(), addr);
            assert_eq!(p.tag(), tag);
            // raw <-> from_raw roundtrip
            assert_eq!(TagPtr::<14>::from_raw(p.raw()), p);
        }
    }

    #[test]
    fn pack_unpack_roundtrip_desc() {
        let mut rng = Rng(0x7A98);
        for _ in 0..4096 {
            let addr = ((rng.next() as usize) & ((1usize << 51) - 1)) << 6;
            let tag = rng.next() & ((1 << 13) - 1);
            let p = TagPtr::<6>::pack(addr, tag);
            assert_eq!(p.addr(), addr);
            assert_eq!(p.tag(), tag);
        }
    }

    #[test]
    fn with_addr_preserves_tag() {
        let mut rng = Rng(0x7A99);
        for _ in 0..4096 {
            let a1 = ((rng.next() as usize) & ((1usize << 40) - 1)) << 14;
            let a2 = ((rng.next() as usize) & ((1usize << 40) - 1)) << 14;
            let tag = rng.next() & ((1 << 21) - 1);
            let p = TagPtr::<14>::pack(a1, tag);
            let q = p.with_addr(a2);
            assert_eq!(q.tag(), tag);
            assert_eq!(q.addr(), a2);
        }
    }
}
