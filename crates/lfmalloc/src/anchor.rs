//! The superblock `Anchor`: the allocator's central packed word.
//!
//! The paper (Figure 3) packs four subfields into one atomic word so a
//! single CAS can atomically pop a block, adjust the free count, change
//! the superblock state, and bump the ABA tag:
//!
//! ```text
//! typedef anchor : // fits in one atomic block
//!     unsigned avail:10, count:10, state:2, tag:42;
//! ```
//!
//! Ours, low bits first (DESIGN.md §20):
//!
//! ```text
//!     avail:12, virgin:1, count:11, state:2, tag:38
//! ```
//!
//! A 16 KiB superblock of the 8-byte class holds 2048 blocks. `avail`
//! indexes `0..=2047` and must also hold 2048, the "no next block"
//! value the last block links to: 12 bits. `count` never exceeds
//! `maxcount - 1` = 2047 (the paper keeps it one short of the
//! population, so an EMPTY anchor reads the same however it got there):
//! 11 bits. The bit between them is the **virgin flag**; the tag keeps
//! its 38 bits, and 2³⁸ values keep "full wraparound practically
//! impossible in a short time", the paper's stated requirement.
//!
//! # The virgin flag
//!
//! `avail` and the flag together are the head of the free list, a
//! [`Link`], and a listed block's first word is a `Link` too. `i | V`
//! means: block `i`, and every block from `i` to `maxcount` is free, has
//! never been handed out in this life of the superblock, and is linked
//! in ascending order *implicitly* — nothing is written in any of them.
//! A superblock opens with `avail = take | V` — `take` is 1 for the
//! paper's opener, a magazine refill's worth otherwise — and no store
//! into it ([`Anchor::open`]); a pop under `V` is an addition
//! ([`Link::skip`]); a push writes the old head, flag and all, into the
//! pushed chain's last block and leaves an explicit head
//! ([`Anchor::push`]). Pushes go in front and only pops move the
//! frontier, upward, so the virgin run is always the list's tail: at
//! most one listed block carries a `V` link, and it names the frontier.
//!
//! A listed block's first word is `link:13, hop2:12, hop3:12, hop4:12,
//! hop5:12, hops:3`, low bits first (DESIGN.md §20.1): an outbox run's
//! words name up to four of the run's blocks 2 to 5 positions further
//! down ([`Link::packed`]); every other word has `hops == 0`. Listed, a
//! block's hops are as immutable as its link. Beside the anchor, the
//! descriptor's `hint` holds a [`Plan`]: which words a walk of the last
//! outbox run reads, so a pop can load them all at once (DESIGN.md
//! §15.3).

use crate::size_classes::blocks_per_superblock;

/// Bits for the `avail` (first free block index) subfield.
pub const AVAIL_BITS: u32 = 12;
/// Bits for the virgin flag, which sits on top of `avail`.
pub const VIRGIN_BITS: u32 = 1;
/// Bits for the `count` (unreserved free blocks) subfield.
pub const COUNT_BITS: u32 = 11;
/// Bits for the `state` subfield.
pub const STATE_BITS: u32 = 2;
/// Bits for the ABA `tag` subfield.
pub const TAG_BITS: u32 = 64 - AVAIL_BITS - VIRGIN_BITS - COUNT_BITS - STATE_BITS;

/// Maximum blocks per superblock representable in the anchor: `count`
/// holds up to `maxcount - 1`.
pub const MAX_BLOCKS: u32 = 1 << COUNT_BITS;

const COUNT_SHIFT: u32 = AVAIL_BITS + VIRGIN_BITS;
const STATE_SHIFT: u32 = COUNT_SHIFT + COUNT_BITS;
const TAG_SHIFT: u32 = STATE_SHIFT + STATE_BITS;

const AVAIL_MASK: u32 = (1 << AVAIL_BITS) - 1;
const VIRGIN: u32 = 1 << AVAIL_BITS;
const LINK_MASK: u32 = AVAIL_MASK | VIRGIN;
/// Most hop indices a link word carries: the blocks at distances 2..=5.
pub const MAX_HOPS: u32 = 4;
const HOP_SHIFT: u32 = AVAIL_BITS + VIRGIN_BITS;
const HOPS_SHIFT: u32 = HOP_SHIFT + MAX_HOPS * AVAIL_BITS;
const COUNT_MASK: u64 = (1 << COUNT_BITS) - 1;
const STATE_MASK: u64 = (1 << STATE_BITS) - 1;
const TAG_MASK: u64 = (1 << TAG_BITS) - 1;

// Class 0 is the smallest, so its superblocks are the most populous.
// Their "no next block" value must fit `avail`, and the most `count`
// ever holds must fit the field the virgin flag narrowed.
const _: () = assert!(blocks_per_superblock(0) <= AVAIL_MASK);
const _: () = assert!(blocks_per_superblock(0) <= MAX_BLOCKS);
const _: () = assert!(TAG_BITS == 38);
// The hop count, 0..=MAX_HOPS, fills the link word's top three bits.
const _: () = assert!(HOPS_SHIFT + 3 == 64 && MAX_HOPS < 8);

/// A position in a superblock's free list: a block index and the virgin
/// flag. The anchor's low bits hold one (the list's head); so does the
/// first word of every listed block (its successor).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Link(u32);

impl Link {
    /// Block `idx`, whose successor is whatever its first word says.
    #[inline]
    pub const fn explicit(idx: u32) -> Link {
        debug_assert!(idx <= AVAIL_MASK);
        Link(idx)
    }

    /// Block `idx` at the head of the never-allocated tail.
    #[inline]
    pub const fn virgin(idx: u32) -> Link {
        debug_assert!(idx <= AVAIL_MASK);
        Link(idx | VIRGIN)
    }

    /// Reads a block's first word as a link. Masked: a doomed walk may
    /// read user bytes here, and whatever it makes of them must still
    /// fit the anchor's field (the tag CAS then rejects it).
    #[inline]
    pub const fn from_word(word: u64) -> Link {
        Link(word as u32 & LINK_MASK)
    }

    /// The word to store in a listed block whose successor this is.
    #[inline]
    pub const fn word(self) -> u64 {
        self.0 as u64
    }

    /// [`word`](Link::word) with the first `n` of `hops`: explicit indices
    /// of the blocks 2, 3, … positions down from the one whose word this
    /// is. The rest of `hops` is masked off, so a writer packs a fixed
    /// window without a branch.
    #[inline]
    pub fn packed(self, hops: [u32; MAX_HOPS as usize], n: u32) -> u64 {
        debug_assert!(n <= MAX_HOPS && (n == 0 || !self.is_virgin()));
        let at = |i: usize| HOP_SHIFT + i as u32 * AVAIL_BITS;
        let idx = hops.iter().enumerate().fold(0, |w, (i, &h)| w | (h as u64) << at(i));
        let keep = ((1 << (n * AVAIL_BITS)) - 1) << HOP_SHIFT;
        self.word() | idx & keep | (n as u64) << HOPS_SHIFT
    }

    /// How many hop indices `word` carries, at most [`MAX_HOPS`] whatever
    /// a garbage word's top bits say.
    #[inline]
    pub fn hops(word: u64) -> u32 {
        ((word >> HOPS_SHIFT) as u32).min(MAX_HOPS)
    }

    /// The index of the block `d` positions down from the one whose first
    /// word is `word`, for `2 <= d <= hops(word) + 1`. Unchecked: a doomed
    /// walk's caller bounds it by `maxcount`.
    #[inline]
    pub const fn hop(word: u64, d: u32) -> u32 {
        (word >> (HOP_SHIFT + (d - 2) * AVAIL_BITS)) as u32 & AVAIL_MASK
    }

    /// The block index.
    #[inline]
    pub const fn idx(self) -> u32 {
        self.0 & AVAIL_MASK
    }

    /// Whether the block and everything above it is untouched.
    #[inline]
    pub const fn is_virgin(self) -> bool {
        self.0 & VIRGIN != 0
    }

    /// The successor of this position, which the caller knows to be a
    /// listed block: the next index up under `V`, otherwise what the
    /// block's first word — `word()`, not called under `V` — says.
    #[inline]
    pub fn next(self, word: impl FnOnce() -> u64) -> Link {
        debug_assert!(self.idx() < AVAIL_MASK);
        if self.is_virgin() {
            Link(self.0 + 1)
        } else {
            Link::from_word(word())
        }
    }

    /// The position `m` blocks down the list from this one; `word(i)`
    /// reads block `i`'s first word and is called only for explicit
    /// positions below `maxcount`. Each word read moves as far as its
    /// hops reach, up to five positions; under `V` the rest of the way is
    /// one addition. `None` when the list has no `m` blocks from here
    /// inside `0..maxcount` — which a list the caller holds `m`
    /// reservations against always has, so `None` means the walk read a
    /// word that was not a link (a racing pop handed the block out) and
    /// must restart.
    #[inline]
    pub fn skip(self, m: u32, maxcount: u32, mut word: impl FnMut(u32) -> u64) -> Option<Link> {
        let (mut at, mut left) = (self, m);
        while left > 0 {
            if at.is_virgin() {
                let next = at.idx() + left;
                return (next <= maxcount).then(|| Link::virgin(next));
            }
            if at.idx() >= maxcount {
                return None;
            }
            let w = word(at.idx());
            let d = left.min(Link::hops(w) + 1);
            at = if d == 1 {
                Link::from_word(w)
            } else {
                // A hop names a block: one out of range is garbage.
                let h = Link::hop(w, d);
                if h >= maxcount {
                    return None;
                }
                Link::explicit(h)
            };
            left -= d;
        }
        Some(at)
    }
}

/// Positions one packed word carries a walk: itself and its four hops.
const STRIDE: usize = MAX_HOPS as usize + 1;
const PLAN_LEN_SHIFT: u32 = MAX_HOPS * AVAIL_BITS;

/// A walk plan (DESIGN.md §15.3): the indices of the blocks whose words
/// [`Link::skip`] reads when it walks a whole packed run, head first —
/// run positions 0, 5, 10, then 15 or the run's last, at most
/// [`MAX_HOPS`] of them — as `idx:12` × 4 and `len:3`, low bits first.
/// The outbox flush that pushes the run stores it beside the anchor; the
/// owner's pop loads the words it names together ([`Plan::load`]), before
/// its walk needs the first. Not state: a stale plan only picks loads
/// that go unused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Plan(u64);

impl Plan {
    /// No plan: what a fresh descriptor's zero word reads as.
    pub const NONE: Plan = Plan(0);

    /// The plan of the packed run `run` (block indices, head first, at
    /// least one). Each packed word moves the walk five positions or to
    /// the run's last block, whichever is nearer, so the `j`-th word read
    /// is at `min(5j, last)`; the count masks off the window past it.
    #[inline]
    pub fn of_run(run: &[u32]) -> Plan {
        let last = run.len() - 1;
        let n = (last.div_ceil(STRIDE) + 1).min(MAX_HOPS as usize) as u32;
        let idx = (0..MAX_HOPS as usize)
            .fold(0, |w, j| w | (run[(j * STRIDE).min(last)] as u64) << (j as u32 * AVAIL_BITS));
        let keep = (1 << (n * AVAIL_BITS)) - 1;
        Plan(idx & keep | (n as u64) << PLAN_LEN_SHIFT)
    }

    /// Reads a descriptor's `hint` word, whatever a racing flush left.
    #[inline]
    pub const fn from_word(word: u64) -> Plan {
        Plan(word)
    }

    /// The word to store in the descriptor's `hint`.
    #[inline]
    pub const fn word(self) -> u64 {
        self.0
    }

    /// How many indices the plan names, at most [`MAX_HOPS`].
    #[inline]
    pub fn len(self) -> u32 {
        ((self.0 >> PLAN_LEN_SHIFT) as u32).min(MAX_HOPS)
    }

    /// Whether the plan names nothing.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// The `j`-th index, `j < len()`. Unchecked against `maxcount`.
    #[inline]
    pub const fn at(self, j: u32) -> u32 {
        (self.0 >> (j * AVAIL_BITS)) as u32 & AVAIL_MASK
    }

    /// Whether a walk from `head` starts where the plan does: an explicit
    /// head, the plan's first index.
    #[inline]
    pub fn leads(self, head: Link) -> bool {
        !self.is_empty() && head.0 == self.at(0)
    }

    /// Loads the words the plan names, with `word(i)`, all of them before
    /// any is used: no load waits for another. An index at or past
    /// `maxcount` is not loaded, so even a stale plan reads inside the
    /// superblock.
    #[inline]
    pub fn load(self, maxcount: u32, mut word: impl FnMut(u32) -> u64) -> Ahead {
        let mut ahead = Ahead::NONE;
        for j in 0..self.len() {
            let i = self.at(j);
            if i < maxcount {
                ahead.idx[j as usize] = i;
                ahead.word[j as usize] = word(i);
            }
        }
        ahead
    }
}

/// Words loaded ahead of a walk, in the order the walk is expected to read
/// them ([`Plan::load`]).
#[derive(Clone, Copy, Debug)]
pub struct Ahead {
    /// Block indices; `u32::MAX`, which no walk reads, where none was loaded.
    idx: [u32; MAX_HOPS as usize],
    word: [u64; MAX_HOPS as usize],
}

impl Ahead {
    /// Nothing loaded.
    pub const NONE: Ahead = Ahead { idx: [u32::MAX; MAX_HOPS as usize], word: [0; MAX_HOPS as usize] };

    /// `word`, for [`Link::skip`], with these words in front of it: the
    /// walk's `r`-th read is the `r`-th word loaded if it names the same
    /// block, `word(i)` otherwise. Both are block `i`'s own word loaded
    /// after the anchor, so the walk finds what it would have found
    /// loading each itself.
    #[inline]
    pub fn or(self, mut word: impl FnMut(u32) -> u64) -> impl FnMut(u32) -> u64 {
        let mut r = 0;
        move |i| {
            let hit = r < MAX_HOPS as usize && self.idx[r] == i;
            let w = if hit { self.word[r] } else { word(i) };
            r += 1;
            w
        }
    }
}

/// Superblock lifecycle state (§3.2.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum SbState {
    /// The heap's active superblock, or about to be installed as such.
    Active = 0,
    /// All blocks allocated or reserved; linked from no structure — the
    /// first freeing thread re-links it.
    Full = 1,
    /// Not active, has unreserved available blocks; lives in a heap's
    /// `Partial` slot or the size class's partial list.
    Partial = 2,
    /// All blocks free and not active; its superblock may be recycled.
    Empty = 3,
}

impl SbState {
    fn from_bits(b: u64) -> SbState {
        match b {
            0 => SbState::Active,
            1 => SbState::Full,
            2 => SbState::Partial,
            _ => SbState::Empty,
        }
    }
}

/// An immutable snapshot of the packed anchor word.
///
/// All mutators return a new value; the owning
/// [`Descriptor`](crate::descriptor::Descriptor) stores the raw `u64` in
/// an atomic and CASes snapshots in the paper's
/// `do { old = new = load; ... } until CAS(old, new)` pattern.
///
/// # Example
///
/// ```
/// use lfmalloc::anchor::{Anchor, Link, SbState};
///
/// let a = Anchor::new(5, 3, SbState::Active);
/// assert_eq!(a.avail(), 5);
/// assert_eq!(a.count(), 3);
/// let popped = a.pop(Link::explicit(7));
/// assert_eq!(popped.avail(), 7);
/// assert_eq!(popped.tag(), a.tag() + 1);
/// assert_ne!(popped.raw(), a.raw());
/// ```
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Anchor(u64);

impl Anchor {
    /// Builds an anchor with an explicit head and tag zero.
    pub fn new(avail: u32, count: u32, state: SbState) -> Anchor {
        debug_assert!(avail <= AVAIL_MASK, "avail {avail} out of range");
        debug_assert!((count as u64) <= COUNT_MASK, "count {count} out of range");
        Anchor(avail as u64 | ((count as u64) << COUNT_SHIFT) | ((state as u64) << STATE_SHIFT))
    }

    /// Reinterprets a raw word loaded from the descriptor's atomic.
    #[inline]
    pub const fn from_raw(raw: u64) -> Anchor {
        Anchor(raw)
    }

    /// The raw word for CAS.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The head of the superblock's free list: `avail` and the virgin
    /// flag.
    #[inline]
    pub fn head(self) -> Link {
        Link(self.0 as u32 & LINK_MASK)
    }

    /// Index of the first available block in the superblock's free list.
    #[inline]
    pub fn avail(self) -> u32 {
        self.head().idx()
    }

    /// Whether the free list is, from its head on, the never-allocated
    /// tail of the superblock.
    #[inline]
    pub fn virgin(self) -> bool {
        self.head().is_virgin()
    }

    /// Number of unreserved available blocks.
    #[inline]
    pub fn count(self) -> u32 {
        ((self.0 >> COUNT_SHIFT) & COUNT_MASK) as u32
    }

    /// Superblock state.
    #[inline]
    pub fn state(self) -> SbState {
        SbState::from_bits((self.0 >> STATE_SHIFT) & STATE_MASK)
    }

    /// ABA tag.
    #[inline]
    pub fn tag(self) -> u64 {
        (self.0 >> TAG_SHIFT) & TAG_MASK
    }

    /// Replaces the head: `avail` and the virgin flag together.
    #[inline]
    pub fn with_head(self, head: Link) -> Anchor {
        Anchor((self.0 & !(LINK_MASK as u64)) | head.word())
    }

    /// Replaces `count`.
    #[inline]
    pub fn with_count(self, count: u32) -> Anchor {
        debug_assert!((count as u64) <= COUNT_MASK);
        Anchor((self.0 & !(COUNT_MASK << COUNT_SHIFT)) | ((count as u64) << COUNT_SHIFT))
    }

    /// Replaces `state`.
    #[inline]
    pub fn with_state(self, state: SbState) -> Anchor {
        Anchor((self.0 & !(STATE_MASK << STATE_SHIFT)) | ((state as u64) << STATE_SHIFT))
    }

    /// Increments the ABA tag (wrapping in its field). The paper bumps
    /// the tag on every pop from the superblock free list.
    #[inline]
    pub fn with_tag_bump(self) -> Anchor {
        let tag = (self.tag().wrapping_add(1)) & TAG_MASK;
        Anchor((self.0 & !(TAG_MASK << TAG_SHIFT)) | (tag << TAG_SHIFT))
    }

    /// The anchor of a superblock just opened (Figure 4,
    /// `MallocFromNewSB` lines 5 and 10–11): blocks `0..take` are the
    /// opener's, blocks `take..maxcount` are the virgin run, `count` of
    /// them unreserved. With `take == maxcount` the run is empty, the
    /// head reads `maxcount | V` — the end of the list — and the caller
    /// makes the state FULL. Built on the descriptor's last anchor so the
    /// tag sequence carries on across lives; the caller holds the
    /// superblock with no block allocated or reserved, which is what
    /// makes all of it virgin again.
    #[inline]
    pub fn open(self, take: u32, count: u32) -> Anchor {
        self.with_head(Link::virgin(take))
            .with_count(count)
            .with_state(SbState::Active)
            .with_tag_bump()
    }

    /// The anchor after a pop that leaves `next` at the head (Figure 4,
    /// `MallocFromActive` lines 11–12). The tag is bumped whether the
    /// popped blocks were virgin or not: a superblock emptied, reopened
    /// and popped back to the same `i | V` must not look unchanged.
    #[inline]
    pub fn pop(self, next: Link) -> Anchor {
        self.with_head(next).with_tag_bump()
    }

    /// A push of `n` blocks, the first of them block `first` (Figure 6,
    /// `free` lines 8–16): the word to store in the last one — the old
    /// head, virgin flag included — and the new anchor, whose head is
    /// explicit: the pushed blocks have been handed out, and the virgin
    /// run now starts behind them.
    #[inline]
    pub fn push(self, first: u32, n: u32, maxcount: u32) -> (u64, Anchor) {
        let mut new = self.with_head(Link::explicit(first)); // line 9
        if self.state() == SbState::Full {
            new = new.with_state(SbState::Partial); // lines 10-11
        }
        if self.count() + n == maxcount {
            // lines 12-15: these were the last allocated blocks (count
            // stays short of `maxcount` by one, as in the paper, so an
            // EMPTY anchor reads the same however it got there).
            new = new.with_count(maxcount - 1).with_state(SbState::Empty);
        } else {
            new = new.with_count(self.count() + n); // line 16
        }
        (self.head().word(), new)
    }
}

impl core::fmt::Debug for Anchor {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Anchor")
            .field("avail", &self.avail())
            .field("virgin", &self.virgin())
            .field("count", &self.count())
            .field("state", &self.state())
            .field("tag", &self.tag())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use malloc_api::testkit::TestRng;

    #[test]
    fn field_widths_sum_to_64() {
        assert_eq!(
            AVAIL_BITS + VIRGIN_BITS + COUNT_BITS + STATE_BITS + TAG_BITS,
            64
        );
        assert_eq!(TAG_BITS, 38);
    }

    #[test]
    fn max_superblock_population_fits() {
        // The 8-byte class: 2048 blocks. `avail` indexes 0..=2047 and
        // holds the "no next block" value 2048, with or without the
        // virgin flag; `count` holds up to 2047.
        let most = blocks_per_superblock(0);
        assert_eq!(most, 2048);
        assert_eq!(most, MAX_BLOCKS);
        for end in [Link::explicit(most), Link::virgin(most)] {
            let a = Anchor::new(0, most - 1, SbState::Partial).with_head(end);
            assert_eq!(
                (a.avail(), a.virgin(), a.count()),
                (most, end.is_virgin(), most - 1)
            );
            assert_eq!(Link::from_word(end.word()), end);
        }
    }

    #[test]
    fn new_starts_with_zero_tag() {
        let a = Anchor::new(1, 2, SbState::Partial);
        assert_eq!(a.tag(), 0);
        assert!(!a.virgin());
        assert_eq!(a.state(), SbState::Partial);
    }

    #[test]
    fn state_roundtrip_all_variants() {
        for s in [
            SbState::Active,
            SbState::Full,
            SbState::Partial,
            SbState::Empty,
        ] {
            let a = Anchor::new(0, 0, SbState::Active).with_state(s);
            assert_eq!(a.state(), s);
        }
    }

    #[test]
    fn tag_bump_changes_raw_even_when_fields_equal() {
        // The heart of ABA prevention: same avail/count/state, different
        // raw word.
        let a = Anchor::new(3, 1, SbState::Active);
        let b = a.with_tag_bump();
        assert_eq!(a.avail(), b.avail());
        assert_eq!(a.count(), b.count());
        assert_eq!(a.state(), b.state());
        assert_ne!(a.raw(), b.raw());
    }

    #[test]
    fn tag_wraps_in_field_without_corrupting_others() {
        let mut a = Anchor::from_raw(
            Anchor::new(7, 9, SbState::Full)
                .with_head(Link::virgin(7))
                .raw()
                | (TAG_MASK << TAG_SHIFT), // max tag
        );
        a = a.with_tag_bump();
        assert_eq!(a.tag(), 0);
        assert_eq!(a.head(), Link::virgin(7));
        assert_eq!(a.count(), 9);
        assert_eq!(a.state(), SbState::Full);
    }

    fn random_head(rng: &mut TestRng) -> Link {
        let idx = rng.range(0, 1 << AVAIL_BITS) as u32;
        if rng.range(0, 2) == 1 {
            Link::virgin(idx)
        } else {
            Link::explicit(idx)
        }
    }

    #[test]
    fn pack_roundtrip_randomized() {
        let mut rng = TestRng::new(0xA2C0);
        for _ in 0..4096 {
            let head = random_head(&mut rng);
            let count = rng.range(0, 1 << COUNT_BITS) as u32;
            let state = SbState::from_bits(rng.range(0, 4) as u64);
            let a = Anchor::new(head.idx(), count, state).with_head(head);
            assert_eq!(a.head(), head);
            assert_eq!((a.avail(), a.virgin()), (head.idx(), head.is_virgin()));
            assert_eq!(a.count(), count);
            assert_eq!(a.state(), state);
            assert_eq!(a.tag(), 0);
            assert_eq!(
                Link::from_word(head.word() | !(LINK_MASK as u64)),
                head,
                "masked"
            );
        }
    }

    #[test]
    fn with_fields_are_independent_randomized() {
        let mut rng = TestRng::new(0xA2C1);
        for _ in 0..4096 {
            let head = random_head(&mut rng);
            let count = rng.range(0, 1 << COUNT_BITS) as u32;
            let new_head = random_head(&mut rng);
            let new_count = rng.range(0, 1 << COUNT_BITS) as u32;
            let a = Anchor::new(head.idx(), count, SbState::Active)
                .with_head(head)
                .with_tag_bump()
                .with_head(new_head)
                .with_count(new_count)
                .with_state(SbState::Empty);
            assert_eq!(a.head(), new_head);
            assert_eq!(a.count(), new_count);
            assert_eq!(a.state(), SbState::Empty);
            assert_eq!(a.tag(), 1);
        }
    }

    #[test]
    fn a_garbage_link_never_walks_out_of_the_superblock() {
        let maxcount = 6;
        let no_read = |_| -> u64 { panic!("a virgin position is never read") };
        // Under V the walk is arithmetic, bounded by the sentinel.
        assert_eq!(
            Link::virgin(2).skip(4, maxcount, no_read),
            Some(Link::virgin(6))
        );
        assert_eq!(Link::virgin(2).skip(5, maxcount, no_read), None);
        // User bytes read as a link: an explicit index out of range stops
        // the walk before it is followed, one with the V bit set stops it
        // at the final range check.
        assert_eq!(Link::explicit(0).skip(2, maxcount, |_| 0xDEAD_BEEF), None);
        assert_eq!(Link::explicit(0).skip(2, maxcount, |_| u64::MAX), None);
        // In range, it is handed to the tag CAS to reject.
        let next = Link::explicit(0).skip(1, maxcount, |_| 0xDEAD_BEEF);
        assert_eq!(next, Some(Link::from_word(0xDEAD_BEEF)));
        // Garbage hop bits: a count of 7 is read as four hops, and a hop
        // index out of range stops the walk; one in range is handed on.
        let hop_to = |h: u64| u64::MAX << HOPS_SHIFT | h << (HOP_SHIFT + AVAIL_BITS) | 1;
        assert_eq!(Link::explicit(0).skip(3, maxcount, |_| hop_to(4095)), None);
        assert_eq!(Link::explicit(0).skip(3, maxcount, |_| hop_to(maxcount as u64)), None);
        let next = Link::explicit(0).skip(3, maxcount, |_| hop_to(5));
        assert_eq!(next, Some(Link::explicit(5)));
        let far = 4 << HOPS_SHIFT | 0xFFF << (HOP_SHIFT + 3 * AVAIL_BITS) | 1;
        assert_eq!(Link::explicit(0).skip(5, maxcount, |_| far), None, "the fourth hop");
    }

    /// The word `magazine::release_list` stores in the block at position
    /// `i` of an outbox run (`i + 1 < run.len()`).
    fn run_word(run: &[u32], i: usize) -> u64 {
        let hops = core::array::from_fn(|d| run.get(i + 2 + d).copied().unwrap_or(0xFFF));
        let n = (run.len() - i - 2).min(MAX_HOPS as usize);
        Link::explicit(run[i + 1]).packed(hops, n as u32)
    }

    #[test]
    fn a_packed_word_round_trips_and_a_plain_one_has_no_hops() {
        let chain = [7u32, 2047, 0, 9, 1000, 3, 4095];
        for i in 0..chain.len() - 1 {
            let word = run_word(&chain, i);
            let hops = &chain[i + 2..chain.len().min(i + 6)];
            assert_eq!(Link::from_word(word), Link::explicit(chain[i + 1]));
            assert_eq!(Link::hops(word) as usize, hops.len());
            for (d, &h) in (2..).zip(hops) {
                assert_eq!(Link::hop(word, d), h);
            }
        }
        // What is past the count is masked off, whatever the window held.
        for link in [Link::explicit(5), Link::virgin(5), Link::virgin(2048)] {
            assert_eq!(link.packed([0xFFF; 4], 0), link.word());
            assert_eq!(Link::hops(link.word()), 0);
        }
        let one = Link::explicit(5).packed([9, 0xFFF, 0xFFF, 0xFFF], 1);
        assert_eq!(one, Link::explicit(5).packed([9, 0, 0, 0], 1));
    }

    /// DESIGN.md §15.3, bounded-exhaustive: for every packed run length
    /// up to a whole superblock, pushed onto a list of plain links and a
    /// virgin tail, the plan `magazine::release_list` stores beside the
    /// anchor names exactly the words a walk of the whole run reads, in
    /// order, as many as fit in four. And a walk fed words loaded ahead —
    /// the plan's, a stale plan's, garbage indices in range and out of it —
    /// lands where the serial walk does, for every length it may be asked.
    #[test]
    fn a_plan_names_the_words_a_walk_of_its_run_reads() {
        let maxcount = MAX_BLOCKS;
        let mut rng = TestRng::new(0x9A4E);
        for n in 1..=maxcount as usize {
            // The run, then the rest of the explicit blocks below it as a
            // plain list, then the virgin tail from `frontier`.
            let frontier = rng.range(n, maxcount as usize + 1) as u32;
            let mut explicit: Vec<u32> = (0..frontier).collect();
            for i in (1..explicit.len()).rev() {
                explicit.swap(i, rng.range(0, i + 1));
            }
            let (run, below) = explicit.split_at(n);
            let mut words = vec![USER_BYTES; maxcount as usize];
            let mut link = Link::virgin(frontier);
            for &b in below.iter().rev() {
                words[b as usize] = link.word();
                link = Link::explicit(b);
            }
            words[run[n - 1] as usize] = link.word(); // the push's word
            for i in 0..n - 1 {
                words[run[i] as usize] = run_word(run, i);
            }
            let word = |i: u32| {
                assert!(i < maxcount, "read block {i} of {maxcount}");
                words[i as usize]
            };
            let head = Link::explicit(run[0]);

            let plan = Plan::of_run(run);
            let mut reads = Vec::new();
            let end = head.skip(n as u32, maxcount, |i| {
                reads.push(i);
                word(i)
            });
            assert_eq!(end, Some(link), "run of {n}: the walk leaves it where it was pushed");
            let named: Vec<u32> = (0..plan.len()).map(|j| plan.at(j)).collect();
            assert_eq!(named.len(), reads.len().min(MAX_HOPS as usize), "run of {n}");
            assert_eq!(named, reads[..named.len()], "run of {n}: the plan is the walk's reads");
            assert!(n > 16 || reads.len() <= MAX_HOPS as usize, "an outbox run is read in four");
            assert!(plan.leads(head) && !plan.leads(Link::virgin(run[0])));
            assert!(!Plan::NONE.leads(Link::explicit(0)) && !Plan::from_word(0).leads(head));

            // The words a pop could have loaded ahead of its walk; the
            // stale plan is that of the same blocks pushed the other way.
            let stale = Plan::of_run(&run.iter().rev().copied().collect::<Vec<_>>());
            let garbage = Plan::from_word(rng.next_u64());
            let mut scattered = Ahead::NONE;
            for j in 0..MAX_HOPS as usize {
                let i = rng.range(0, maxcount as usize) as u32;
                (scattered.idx[j], scattered.word[j]) = (i, word(i));
            }
            let aheads = [
                plan.load(maxcount, word),
                stale.load(maxcount, word),
                garbage.load(maxcount, word),
                Plan::from_word(u64::MAX).load(maxcount, word), // 4095 × 4: none loaded
                scattered,
                Ahead::NONE,
            ];
            for m in [1, 2, 5, 6, 7, 11, 16, 17, n - 1, n, n + 1, n + 7] {
                let m = m as u32;
                if m == 0 || m > maxcount {
                    continue; // the list holds all `maxcount` blocks
                }
                let serial = head.skip(m, maxcount, word);
                assert!(serial.is_some());
                for (k, ahead) in aheads.iter().enumerate() {
                    assert_eq!(head.skip(m, maxcount, ahead.or(word)), serial, "run {n}, m {m}, set {k}");
                }
            }
        }
    }

    /// What a handed-out or never-listed block's first word may hold.
    const USER_BYTES: u64 = 0xA5A5_A5A5_A5A5_A5A5;

    /// A superblock as the hot paths' pure functions see it — an anchor
    /// and one word per block — beside a plain list of free block indices.
    #[derive(Clone)]
    struct Tiny {
        maxcount: u32,
        anchor: Anchor,
        words: Vec<u64>,
        /// The model: free blocks, head first, and the ones handed out.
        free: Vec<u32>,
        held: Vec<u32>,
        /// Where the virgin run began after the last operation.
        frontier: u32,
        /// Per block, the packed chain it was pushed in (0: none).
        run: Vec<u32>,
        runs: u32,
        /// Words read through `word()`.
        reads: core::cell::Cell<u32>,
    }

    impl Tiny {
        /// `open_sb` handing its caller the first `take` blocks: nothing
        /// is written, and `take == maxcount` leaves no run at all.
        fn opened(maxcount: u32, last_life: Anchor, take: u32) -> Tiny {
            let mut anchor = last_life.open(take, maxcount - take);
            if take == maxcount {
                anchor = anchor.with_state(SbState::Full);
            }
            let mut t = Tiny {
                maxcount,
                anchor,
                words: vec![USER_BYTES; maxcount as usize],
                free: (take..maxcount).collect(),
                held: (0..take).collect(),
                frontier: take,
                run: vec![0; maxcount as usize],
                runs: 0,
                reads: Default::default(),
            };
            assert_eq!(anchor.head(), Link::virgin(take));
            assert_eq!(anchor.tag(), last_life.tag() + 1);
            t.check();
            t
        }

        fn word(&self) -> impl FnMut(u32) -> u64 + '_ {
            |i| {
                assert!(
                    self.free.contains(&i),
                    "read the first word of block {i}, not listed"
                );
                self.reads.set(self.reads.get() + 1);
                self.words[i as usize]
            }
        }

        /// `MallocFromPartial`: reserve `k`, then pop them in one CAS.
        fn pop(&mut self, k: u32) {
            let old = self.anchor;
            let left = old.count() - k;
            let state = if left > 0 {
                SbState::Partial
            } else {
                SbState::Full
            };
            let old = old.with_count(left).with_state(state);
            self.reads.set(0);
            let next = old
                .head()
                .skip(k, self.maxcount, self.word())
                .expect("k blocks are listed");
            // Inside a packed chain a word serves five positions; its last
            // block's word, the plain one that names the rest of the list,
            // is one more read.
            let run = self.run[self.free[0] as usize];
            let inside = self.free.iter().take_while(|&&i| run != 0 && self.run[i as usize] == run);
            let (inside, per_word) = (inside.count() as u32, MAX_HOPS + 1);
            let (reads, bound) = (self.reads.get(), k.div_ceil(per_word));
            if k < inside {
                assert!(reads <= bound, "{reads} words read for {k} packed positions");
            } else if k == inside {
                assert!(reads <= (k - 1).div_ceil(per_word) + 1, "{reads} reads to leave the run");
            }
            // The k-block skip lands where k single steps do, and those
            // name the blocks handed out (as `magazine::refill` walks).
            let (mut at, mut got) = (old.head(), Vec::new());
            for _ in 0..k {
                got.push(at.idx());
                at = at.skip(1, self.maxcount, self.word()).expect("listed");
            }
            assert_eq!(at, next);
            let model: Vec<u32> = self.free.drain(..k as usize).collect();
            assert_eq!(got, model, "hand-out order");
            for &i in &got {
                self.words[i as usize] = USER_BYTES;
                self.run[i as usize] = 0;
            }
            self.held.extend(got);
            self.anchor = old.pop(next);
            assert_eq!(self.anchor.tag(), old.tag() + 1, "every pop bumps the tag");
            self.check();
        }

        /// `free`, or a magazine flush: `chain` goes in front of the list,
        /// `packed` as `magazine::release_list` writes an outbox run.
        fn push(&mut self, chain: &[u32], packed: bool) {
            self.runs += 1;
            for (i, &b) in chain[..chain.len() - 1].iter().enumerate() {
                let plain = Link::explicit(chain[i + 1]).word();
                self.words[b as usize] = if packed { run_word(chain, i) } else { plain };
            }
            for &b in chain {
                self.run[b as usize] = if packed { self.runs } else { 0 };
            }
            let (last, new) = self
                .anchor
                .push(chain[0], chain.len() as u32, self.maxcount);
            self.words[chain[chain.len() - 1] as usize] = last;
            assert!(!new.virgin(), "a pushed block has been handed out");
            assert_eq!(new.tag(), self.anchor.tag());
            self.anchor = new;
            self.held.retain(|i| !chain.contains(i));
            self.free.splice(0..0, chain.iter().copied());
            self.check();
        }

        fn check(&mut self) {
            let a = self.anchor;
            if self.held.is_empty() {
                assert_eq!((a.state(), a.count()), (SbState::Empty, self.maxcount - 1));
                return;
            }
            assert_ne!(a.state(), SbState::Empty);
            assert_eq!(a.count() as usize, self.free.len(), "count");
            assert_eq!(a.state() == SbState::Full, self.free.is_empty(), "FULL");
            // The whole list, walked the way the audit does: explicit
            // links, then one V link or a V anchor, then arithmetic.
            let (mut at, mut walked) = (a.head(), Vec::new());
            let mut frontier = None;
            while at.idx() < self.maxcount {
                if at.is_virgin() && frontier.is_none() {
                    frontier = Some(at.idx());
                }
                assert_eq!(
                    at.is_virgin(),
                    frontier.is_some(),
                    "the virgin run is the tail"
                );
                walked.push(at.idx());
                at = at.skip(1, self.maxcount, self.word()).expect("in range");
            }
            assert_eq!(walked, self.free, "the list is the model's");
            let frontier = frontier.unwrap_or(at.idx());
            assert_eq!(at.idx(), self.maxcount);
            assert!(frontier >= self.frontier, "the frontier moved down");
            assert!(
                self.held.iter().all(|&i| i < frontier),
                "a held block in the virgin run"
            );
            self.frontier = frontier;
        }

        /// Every sequence of at most `depth` further operations.
        fn explore(&self, depth: u32, sequences: &mut u64) {
            *sequences += 1;
            if depth == 0 {
                return;
            }
            if self.anchor.state() == SbState::Empty {
                // Whoever takes the descriptor reopens it, for one block
                // or for a refill's worth up to all of it: every word is
                // stale, none is read, and the tag carries on.
                for take in 1..=self.maxcount {
                    Tiny::opened(self.maxcount, self.anchor, take).explore(depth - 1, sequences);
                }
                return;
            }
            for k in 1..=self.anchor.count().min(5) {
                let mut t = self.clone();
                t.pop(k);
                t.explore(depth - 1, sequences);
            }
            let mut chains: Vec<Vec<u32>> = Vec::new();
            for &a in &self.held {
                chains.push(vec![a]);
                chains.extend(self.held.iter().filter(|&&b| b != a).map(|&b| vec![a, b]));
            }
            if self.held.len() > 2 {
                // Everything at once, in and against allocation order:
                // the chain that empties the superblock — from FULL when
                // the opener took every block.
                chains.push(self.held.clone());
                chains.push(self.held.iter().rev().copied().collect());
            }
            if self.held.len() > 3 {
                // A run that leaves one block held, so later pops walk it.
                chains.push(self.held[1..].to_vec());
            }
            for chain in chains {
                for packed in [false, true] {
                    if packed && chain.len() < 3 {
                        continue; // no word of it would carry a hop
                    }
                    let mut t = self.clone();
                    t.push(&chain, packed);
                    t.explore(depth - 1, sequences);
                }
            }
        }
    }

    /// DESIGN.md §20.4: bounded-exhaustive, sequential. Every sequence of
    /// open-`take` / pop-`k` / push-chain (plain, and packed with hops as
    /// an outbox run is) / empty-and-reopen up to a fixed
    /// length on a tiny superblock — `take == maxcount`, the FULL opening
    /// of §21, and the one chain that takes it back to EMPTY included —
    /// hands blocks out in the order a plain list would,
    /// keeps `count`, never reads a word of a block that is not listed,
    /// and never moves the frontier down within a life.
    #[test]
    fn every_short_sequence_matches_a_plain_free_list() {
        for (maxcount, depth) in [(2, 8), (4, 5), (5, 4), (6, 4), (7, 3)] {
            let mut sequences = 0;
            for take in 1..=maxcount {
                Tiny::opened(maxcount, Anchor::new(0, maxcount - 1, SbState::Empty), take)
                    .explore(depth, &mut sequences);
            }
            assert!(
                sequences > 100 || maxcount == 2,
                "maxcount {maxcount}: {sequences}"
            );
        }
    }
}
