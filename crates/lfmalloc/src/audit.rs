//! Offline heap-integrity auditing.
//!
//! [`LfMalloc::audit`] walks every allocator structure and cross-checks
//! the paper's invariants, returning a structured [`AuditReport`]. It is
//! the oracle for the fault-injection torture suite: after any schedule
//! of mallocs, frees, injected CAS failures, simulated thread kills and
//! OS allocation failures, the heap must still audit clean.
//!
//! # What "clean" means under kills
//!
//! The paper's lock-freedom guarantees that a thread killed inside
//! malloc/free leaks at most a bounded amount (one block, descriptor or
//! superblock per kill) but never corrupts shared structures. The audit
//! therefore checks *one-directional* invariants that survive legal
//! leaks:
//!
//! * Every descriptor linked from a heap `Active` word, a heap partial
//!   slot or a size-class partial list lies inside a descriptor slab, is
//!   not simultaneously on `DescAvail`, and is linked from exactly one
//!   place.
//! * Every node on `DescAvail`, the warm stack or the emergency reserve
//!   lies on a slot boundary of a registered descriptor slab, is on no
//!   partial list and in no heap slot, and appears once across the
//!   three; and free + linked + floating = slots carved (`desc.avail`).
//! * A warm descriptor is EMPTY with a superblock of the page pool
//!   attached (`desc.warm_has_sb`); a cold one — `DescAvail` or the
//!   reserve — has none (`desc.cold_has_no_sb`); so has an EMPTY
//!   descriptor parked in a heap slot or on a partial list
//!   (`slot.parked_empty_has_sb`). No two descriptors claim one
//!   superblock, and the superblocks on the page pool's free stack plus
//!   the ones attached to a descriptor are all there are
//!   (`sb.conservation`): an EMPTY superblock is never taken off its
//!   descriptor outside `trim`, and a kill strands the pair together.
//! * Every superblock attached to a descriptor that is linked, warm or
//!   named by a cached block has a frame-map entry naming that
//!   descriptor, its class and its heap's column; every region on the
//!   page pool's free stack and every frame of a large span, cached or
//!   hardened-live, reads empty (`map.entry`).
//! * A linked descriptor's geometry matches its size class
//!   (`sz == CLASS_SIZES[ci]`, `maxcount == SB_SIZE / sz` — in hardened
//!   mode at most the allocation bitmap's 1024 bits), its
//!   superblock pointer lies inside a mapped hyperblock at superblock
//!   alignment, and its anchor state is legal for its location (an
//!   installed active descriptor is `ACTIVE`; slot/list members are
//!   `PARTIAL` or `EMPTY`).
//! * The superblock free list holds **at least** `count` (+
//!   `credits + 1` for the installed active superblock) distinct,
//!   in-range blocks — walked from `anchor.avail` by following the
//!   successor in each listed block's first word and, from the first
//!   position that carries the virgin flag on, by counting upward
//!   without reading anything (DESIGN.md §20). Kills may leak blocks,
//!   which makes the free list *longer* than the anchor accounts for
//!   (leaked reservations) or leaves allocated blocks unreachable, but
//!   never shorter and never cyclic; and a virgin run never starts past
//!   `maxcount` — in a listed descriptor or in a floating one, where
//!   `maxcount | V` is the FULL anchor of a superblock opened whole —
//!   nor, hardened, holds a block marked allocated (`sb.virgin-range`).
//!   A listed block's hop indices, where an outbox run wrote them, name
//!   the blocks the walk finds 2 to 5 positions further down
//!   (`sb.freelist-hop`).
//! * `EMPTY` descriptors record `count == maxcount - 1` (all blocks
//!   free except the conceptual one being freed); their free list is
//!   not walked (whoever reopens the superblock declares it one
//!   virgin run, whatever the last life left in it).
//! * Every block cached in a thread magazine or parked in a thread's
//!   outbox ([`crate::magazine`]) lies at a block start of a live,
//!   non-`EMPTY` superblock of the bin's class (by the frame map: the
//!   block itself says nothing), is held exactly once
//!   across both rows of every slot, and is not among the blocks that
//!   superblock's free list accounts for; each bin's count matches its
//!   list and stays within its row's capacity (`mag.count`), and the
//!   mid-class bins of a slot together hold what the slot's byte count
//!   says, at most `MID_BUDGET` (`mag.budget`). (To the checks above
//!   such a block is simply allocated.)
//! * Every span in the free-span cache ([`crate::large::SpanCache`])
//!   carries a header whose size is the slot's page count and whose
//!   alignment its base honours, is within the per-span bound, is no
//!   hardened span, and sits in one slot only; the slots together stay
//!   within the retained-bytes bound and within what is mapped.
//! * OS-level accounting reconciles:
//!   `live_bytes == superblock hyperblocks + descriptor slabs + live
//!   large-block bytes + cached large-span bytes`, live being what is
//!   mapped minus what the slots hold. A thread killed holding a large
//!   span is no gap: its span reads as one live block nobody will free,
//!   like a small block in a dead thread's hands;
//!   [`ByteReconciliation::stranded`] is what the source holds beyond.
//!
//! # Concurrency
//!
//! The audit is designed for quiescent instances (no concurrent
//! malloc/free), which is how the torture tests call it. Running it
//! concurrently is memory-safe — every pointer it follows stays inside
//! never-unmapped slabs — but may report spurious violations from torn
//! logical snapshots.

use crate::anchor::{Link as Pos, SbState};
use crate::config::SB_SIZE;
use crate::descriptor::Descriptor;
use crate::framemap::Entry;
use crate::heap::ProcHeap;
use crate::instance::{Inner, LfMalloc};
use crate::schema::Sink;
use crate::size_classes::{CLASS_SIZES, NUM_CLASSES};
use core::sync::atomic::Ordering;
use osmem::PageSource;
use std::collections::{HashMap, HashSet};

/// One failed invariant check.
#[derive(Debug, Clone)]
pub struct AuditViolation {
    /// Stable dotted identifier of the check (e.g. `sb.freelist-short`).
    pub check: &'static str,
    /// Human-readable context: which descriptor/heap/class, observed vs
    /// expected values.
    pub detail: String,
}

impl core::fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "[{}] {}", self.check, self.detail)
    }
}

/// Structured result of a heap walk: coverage counters plus every
/// violation found. Counters let tests assert the audit actually
/// traversed something, not just vacuously passed.
#[derive(Debug, Default)]
pub struct AuditReport {
    /// Descriptor slots in all slabs.
    pub descriptors_total: usize,
    /// Descriptors on the `DescAvail` free stack, the warm stack or in
    /// the reserve.
    pub descriptors_free: usize,
    /// Retired descriptors on the warm stack, each holding its EMPTY
    /// superblock for the next `MallocFromNewSB` of any class.
    pub warm_superblocks: usize,
    /// EMPTY descriptors parked in a heap slot or on a partial list,
    /// each holding its superblock for the next malloc of its class.
    pub parked_superblocks: usize,
    /// Descriptors linked from actives, heap slots or class lists.
    pub descriptors_linked: usize,
    /// Descriptors neither free nor linked: `FULL` superblocks' owners
    /// plus anything legally leaked by kills.
    pub descriptors_floating: usize,
    /// Free blocks visited across all superblock free-list walks.
    pub free_blocks_walked: usize,
    /// Blocks cached in thread magazines or parked in their outboxes.
    pub magazine_blocks: usize,
    /// Live large blocks.
    pub large_live: usize,
    /// Free large spans parked in the span cache.
    pub large_cached_spans: usize,
    /// Where the OS bytes sit, and whether the components add up.
    pub bytes: ByteReconciliation,
    /// Every failed check.
    pub violations: Vec<AuditViolation>,
}

impl AuditReport {
    /// True when no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl core::fmt::Display for AuditReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "audit: {} descriptors ({} free, {} linked, {} floating), \
             {} EMPTY superblocks warm, {} parked, \
             {} free blocks walked, {} cached in magazines, \
             {} large live, {} large cached, {} violation(s)",
            self.descriptors_total,
            self.descriptors_free,
            self.descriptors_linked,
            self.descriptors_floating,
            self.warm_superblocks,
            self.parked_superblocks,
            self.free_blocks_walked,
            self.magazine_blocks,
            self.large_live,
            self.large_cached_spans,
            self.violations.len()
        )?;
        for v in &self.violations {
            write!(f, "\n  {v}")?;
        }
        Ok(())
    }
}

/// The audit's OS-byte reconciliation, broken out per component so
/// reports can show where live bytes actually sit (superblock
/// hyperblocks vs descriptor slabs vs large blocks, live and cached).
/// Computed by
/// [`Inner::reconcile_bytes`] — the single source of truth shared by
/// [`LfMalloc::audit`] and the `stats` snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ByteReconciliation {
    /// Bytes mapped for superblock hyperblocks.
    pub superblock_bytes: usize,
    /// Bytes mapped for descriptor slabs.
    pub descriptor_slab_bytes: usize,
    /// Bytes backing live large blocks.
    pub large_bytes: usize,
    /// Bytes of freed large spans parked in the span cache.
    pub large_cached_bytes: usize,
    /// What the counting page source believes is live.
    pub source_live_bytes: usize,
}

impl ByteReconciliation {
    /// Sum of the per-component byte counts.
    pub fn expected(&self) -> usize {
        self.superblock_bytes
            + self.descriptor_slab_bytes
            + self.large_bytes
            + self.large_cached_bytes
    }

    /// Bytes the source holds beyond the books: only a kill between the
    /// mapped count and the `alloc_pages`/`dealloc_pages` beside it opens it.
    pub fn stranded(&self) -> usize {
        self.source_live_bytes.saturating_sub(self.expected())
    }

    /// True when the source agrees with the component sum.
    pub fn reconciles(&self) -> bool {
        self.source_live_bytes == self.expected()
    }

    /// The five terms as every report lists them — JSON key, the words
    /// prose puts after the number, bytes: the four places OS bytes sit,
    /// then the source's total, which they add up to when the books
    /// reconcile.
    pub fn terms(&self) -> [(&'static str, &'static str, u64); 5] {
        [
            ("superblock_bytes", " superblock", self.superblock_bytes as u64),
            ("descriptor_slab_bytes", " descriptor-slab", self.descriptor_slab_bytes as u64),
            ("large_bytes", " large", self.large_bytes as u64),
            ("large_cached_bytes", " cached large", self.large_cached_bytes as u64),
            ("source_live_bytes", " live bytes", self.source_live_bytes as u64),
        ]
    }

    /// Writes the terms as one sum: `T live bytes = a superblock + b
    /// descriptor-slab + c large + d cached large`, `!=` when it does not
    /// hold. Allocates nothing, so the crash report writes it too.
    pub(crate) fn write_sum(&self, out: &mut impl Sink) {
        let [parts @ .., total] = self.terms();
        let seps = ["", if self.reconciles() { " = " } else { " != " }, " + ", " + ", " + "];
        for ((_, words, bytes), sep) in [total].into_iter().chain(parts).zip(seps) {
            out.push_str(sep);
            out.push_dec(bytes);
            out.push_str(words);
        }
    }
}

impl<S: PageSource> Inner<S> {
    /// Gathers the OS-byte reconciliation components (see
    /// [`ByteReconciliation`]).
    pub(crate) fn reconcile_bytes(&self) -> ByteReconciliation {
        ByteReconciliation {
            superblock_bytes: self.sb_pool.mapped_bytes(),
            descriptor_slab_bytes: self.desc_pool.mapped_bytes(),
            large_bytes: self.large_live().1,
            large_cached_bytes: crate::large::cached_bytes(self),
            source_live_bytes: self.source.stats().live_bytes,
        }
    }

    /// Live large blocks as `(blocks, OS bytes)`, for every report. No
    /// operation counts them: a span is live when it is mapped and in no
    /// slot — in the application's hands or a `malloc`'s or `free`'s.
    pub(crate) fn large_live(&self) -> (usize, usize) {
        use crate::large::{cached_bytes, cached_spans};
        (
            self.large_mapped_spans.load(Ordering::Relaxed).saturating_sub(cached_spans(self)),
            self.large_mapped_bytes.load(Ordering::Relaxed).saturating_sub(cached_bytes(self)),
        )
    }
}

/// Where a linked descriptor was found.
#[derive(Clone, Copy, PartialEq, Eq)]
enum LinkKind {
    Active,
    HeapSlot,
    ClassList,
}

struct Link {
    desc: *mut Descriptor,
    kind: LinkKind,
    class: usize,
    /// Credits of the Active word (installed actives only).
    credits: Option<u32>,
    /// Owning heap (installed actives only) for the back-reference check.
    heap: Option<*const ProcHeap>,
    place: String,
}

impl<S: PageSource> LfMalloc<S> {
    /// Walks the whole instance and checks the paper's structural
    /// invariants; see the [module docs](crate::audit) for the list.
    ///
    /// Call while quiescent (no concurrent malloc/free). Concurrent use
    /// is memory-safe but may report spurious violations.
    pub fn audit(&self) -> AuditReport {
        let rep = audit_inner(self.inner());
        // A full audit is the authoritative integrity verdict: record it
        // so `health()` (and `is_degraded`) reflect the latest outcome.
        self.inner().health.note_full_audit(rep.violations.len() as u64);
        rep
    }
}

fn audit_inner<S: PageSource>(inner: &Inner<S>) -> AuditReport {
    let mut rep = AuditReport::default();

    // -- Descriptor universe: every slab slot, and the free subset. ----
    let all = inner.desc_pool.all_descriptors();
    let all_set: HashSet<usize> = all.iter().map(|d| *d as usize).collect();
    // The free universe is the warm stack, DescAvail and the emergency
    // reserve — all hold descriptors that are linked into no allocator
    // structure.
    let (warm, cold) = unsafe { inner.desc_pool.free_descriptors() };
    rep.warm_superblocks = warm.len();
    let mut free_set: HashSet<usize> = HashSet::new();
    for d in warm.iter().chain(&cold) {
        let a = *d as usize;
        // `all_set` holds exactly the slot boundaries of the registered
        // slabs.
        if !all_set.contains(&a) {
            rep.violations.push(AuditViolation {
                check: "desc.avail",
                detail: format!("free-stack node {a:#x} is no slot of any descriptor slab"),
            });
        }
        if !free_set.insert(a) {
            rep.violations.push(AuditViolation {
                check: "desc.avail",
                detail: format!("free-stack node {a:#x} appears twice"),
            });
            break; // a stack is cyclic or the two share a tail; stop counting
        }
    }
    rep.descriptors_total = all.len();
    rep.descriptors_free = free_set.len();

    // -- Collect every linked descriptor. ------------------------------
    let mut links: Vec<Link> = Vec::new();
    for ci in 0..NUM_CLASSES {
        for h in 0..inner.nheaps {
            let heap = unsafe { &*inner.heaps.add(ci * inner.nheaps + h) };
            let active = heap.load_active();
            if !active.is_null() {
                links.push(Link {
                    desc: active.desc(),
                    kind: LinkKind::Active,
                    class: ci,
                    credits: Some(active.credits()),
                    heap: Some(heap as *const ProcHeap),
                    place: format!("active[class {ci}, heap {h}]"),
                });
            }
            let slot = heap.load_partial();
            if !slot.is_null() {
                links.push(Link {
                    desc: slot,
                    kind: LinkKind::HeapSlot,
                    class: ci,
                    credits: None,
                    heap: None,
                    place: format!("partial slot[class {ci}, heap {h}]"),
                });
            }
        }
        for desc in unsafe { inner.classes[ci].partial.snapshot() } {
            links.push(Link {
                desc,
                kind: LinkKind::ClassList,
                class: ci,
                credits: None,
                heap: None,
                place: format!("partial list[class {ci}]"),
            });
        }
    }

    // -- Membership and disjointness. ----------------------------------
    let mut seen: HashMap<usize, String> = HashMap::new();
    for l in &links {
        let a = l.desc as usize;
        if !all_set.contains(&a) {
            rep.violations.push(AuditViolation {
                check: "desc.linked-foreign",
                detail: format!("{} holds {a:#x}, outside every descriptor slab", l.place),
            });
            continue;
        }
        if free_set.contains(&a) {
            rep.violations.push(AuditViolation {
                check: "desc.avail",
                detail: format!("{} holds {a:#x}, which is also on a free stack", l.place),
            });
        }
        if let Some(prev) = seen.insert(a, l.place.clone()) {
            rep.violations.push(AuditViolation {
                check: "desc.linked-twice",
                detail: format!("{a:#x} linked from both {prev} and {}", l.place),
            });
        }
    }
    rep.descriptors_linked = seen.len();

    // -- Per-descriptor invariants + free-list walks. ------------------
    let sb_regions = inner.sb_pool.hyperblocks();
    // Free descriptors are dereferenced only where the slab check above
    // vouched for them.
    for d in warm.iter().filter(|d| all_set.contains(&(**d as usize))) {
        let desc = unsafe { &**d };
        if desc.load_anchor().state() != SbState::Empty || !sb_in_pool(&sb_regions, desc.sb() as usize) {
            rep.violations.push(AuditViolation {
                check: "desc.warm_has_sb",
                detail: format!(
                    "warm {:#x}: state {:?}, superblock {:#x}",
                    *d as usize,
                    desc.load_anchor().state(),
                    desc.sb() as usize
                ),
            });
        }
    }
    for d in cold.iter().filter(|d| all_set.contains(&(**d as usize))) {
        let sb = unsafe { (**d).sb() } as usize;
        if sb != 0 {
            rep.violations.push(AuditViolation {
                check: "desc.cold_has_no_sb",
                detail: format!("cold {:#x} still names superblock {sb:#x}", *d as usize),
            });
        }
    }
    for l in &links {
        if !all_set.contains(&(l.desc as usize)) {
            continue; // foreign pointer: do not dereference
        }
        check_linked_desc(inner, l, &sb_regions, &mut rep);
    }

    // -- Floating descriptors: in use but linked nowhere. --------------
    // Legal residents: owners of FULL superblocks and anything leaked by
    // simulated kills. Their geometry must still be sane.
    for d in &all {
        let a = *d as usize;
        if free_set.contains(&a) || seen.contains_key(&a) {
            continue;
        }
        rep.descriptors_floating += 1;
        let desc = unsafe { &**d };
        let (sz, maxc) = (desc.sz(), desc.maxcount());
        if sz == 0 {
            continue; // never initialized since slab carve
        }
        if maxc as usize * sz as usize > SB_SIZE {
            rep.violations.push(AuditViolation {
                check: "desc.geometry",
                detail: format!("floating {a:#x}: maxcount {maxc} * sz {sz} exceeds SB_SIZE"),
            });
            continue;
        }
        let anchor = desc.load_anchor();
        if anchor.count() >= maxc {
            rep.violations.push(AuditViolation {
                check: "desc.count-range",
                detail: format!(
                    "floating {a:#x}: count {} >= maxcount {maxc}",
                    anchor.count()
                ),
            });
        }
        // A superblock opened whole (DESIGN.md §21) floats FULL under
        // `maxcount | V`, the empty run; no run starts further up.
        if anchor.virgin() && anchor.avail() > maxc {
            rep.violations.push(AuditViolation {
                check: "sb.virgin-range",
                detail: format!("floating {a:#x}: head {} | V, beyond maxcount {maxc}", anchor.avail()),
            });
        }
    }

    // -- Superblock conservation. ----------------------------------------
    // A superblock is on the page pool's free stack or attached to
    // exactly one descriptor — in use, parked EMPTY, warm, or stranded
    // with it by a kill.
    let mut claimed: HashMap<usize, usize> = HashMap::new();
    for d in &all {
        let sb = unsafe { (**d).sb() } as usize;
        if sb == 0 {
            continue; // cold, or never used since the slab carve
        }
        if let Some(other) = claimed.insert(sb, *d as usize) {
            rep.violations.push(AuditViolation {
                check: "sb.conservation",
                detail: format!("superblock {sb:#x} claimed by {other:#x} and {:#x}", *d as usize),
            });
        }
        // `map.entry`: the superblock's frame names `d`, its class and
        // its heap's column. A floating pair may read empty: a thread
        // killed before `open_sb` wrote the entry had handed out nothing.
        let (entry, heap) = (inner.frames.get(sb), unsafe { (**d).heap() });
        let want = unsafe { heap.as_ref() }.map(|h| Entry::pack(*d, h.class(), inner.column_of(h)));
        let floating = !free_set.contains(&(*d as usize)) && !seen.contains_key(&(*d as usize));
        if Some(entry) != want && !(entry.is_empty() && floating) {
            rep.violations.push(AuditViolation {
                check: "map.entry",
                detail: format!("superblock {sb:#x} of {:#x} reads {entry:x?}, not {want:x?}", *d as usize),
            });
        }
    }
    let pool_free = unsafe { inner.sb_pool.free_regions() };
    // Off a descriptor, or under a large span, a frame holds no small
    // block and must say so: `free` tells the two apart by nothing else.
    let mut spans: Vec<(usize, usize)> = crate::large::spans(inner).collect();
    inner.large_spans.for_each(|base, bytes| spans.push((base, bytes)));
    let large = spans.iter().flat_map(|&(base, bytes)| (base..base + bytes).step_by(SB_SIZE));
    for frame in pool_free.iter().copied().chain(large) {
        if !inner.frames.get(frame).is_empty() {
            let detail = format!("frame {frame:#x} holds no superblock, its entry is not empty");
            rep.violations.push(AuditViolation { check: "map.entry", detail });
        }
    }
    let pool_free = pool_free.len();
    let mapped = inner.sb_pool.mapped_bytes() / SB_SIZE;
    if pool_free + claimed.len() != mapped {
        rep.violations.push(AuditViolation {
            check: "sb.conservation",
            detail: format!(
                "{pool_free} in the page pool + {} on descriptors ({} warm, {} parked) \
                 != {mapped} mapped",
                claimed.len(),
                rep.warm_superblocks,
                rep.parked_superblocks
            ),
        });
    }

    // -- Thread magazines. ----------------------------------------------
    check_magazines(inner, &free_set, &mut rep);

    // -- Descriptor conservation. ---------------------------------------
    // Every slot carved is on a free stack, linked, or floating (in use
    // by a FULL superblock, or stranded by a kill): nothing is counted
    // twice and nothing is parked anywhere else — there is no retire
    // list to hide on.
    let accounted = rep.descriptors_free + rep.descriptors_linked + rep.descriptors_floating;
    if accounted != rep.descriptors_total {
        rep.violations.push(AuditViolation {
            check: "desc.avail",
            detail: format!(
                "{} free + {} linked + {} floating != {} slots carved",
                rep.descriptors_free,
                rep.descriptors_linked,
                rep.descriptors_floating,
                rep.descriptors_total
            ),
        });
    }

    // -- Free-span cache. ----------------------------------------------
    check_span_cache(inner, &mut rep);

    // -- OS accounting reconciliation. ---------------------------------
    let rec = inner.reconcile_bytes();
    rep.bytes = rec;
    let large_bytes = rec.large_bytes;
    if !rec.reconciles() {
        let mut detail = String::new();
        rec.write_sum(&mut detail);
        detail += &format!(" ({} stranded)", rec.stranded());
        rep.violations.push(AuditViolation { check: "bytes.reconcile", detail });
    }
    rep.large_live = inner.large_live().0;
    if (rep.large_live == 0) != (large_bytes == 0) {
        rep.violations.push(AuditViolation {
            check: "large.reconcile",
            detail: format!("large_live {} vs large_bytes {large_bytes}", rep.large_live),
        });
    }

    rep
}

/// Whether `sb` is a superblock-aligned address inside a mapped
/// hyperblock of the page pool.
fn sb_in_pool(sb_regions: &[(*mut u8, usize)], sb: usize) -> bool {
    sb % SB_SIZE == 0
        && sb_regions
            .iter()
            .any(|&(base, bytes)| sb >= base as usize && sb + SB_SIZE <= base as usize + bytes)
}

fn check_span_cache<S: PageSource>(inner: &Inner<S>, rep: &mut AuditReport) {
    use crate::large::{header_fields, MAX_CACHED_BYTES, MAX_CACHED_SPAN, MAX_THREAD_SPAN};
    let mut flag = |detail: String| {
        rep.violations.push(AuditViolation { check: "large.cache", detail })
    };
    let mut seen: HashSet<usize> = HashSet::new();
    let (mut spans, mut cached) = (0, 0);
    for (base, bytes) in crate::large::spans(inner) {
        spans += 1;
        cached += bytes;
        if base == 0 || bytes == 0 || bytes > MAX_CACHED_SPAN {
            flag(format!("slot holds {bytes} bytes at {base:#x}"));
            continue; // do not dereference
        }
        if !seen.insert(base) {
            flag(format!("span {base:#x} is parked in two words"));
            continue;
        }
        if inner.large_spans.span_containing(base).is_some() {
            flag(format!("span {base:#x} is also registered as a live hardened block"));
        }
        let header = unsafe { *(base as *const usize) };
        let (total, guarded, _) = header_fields(header);
        if total != bytes || guarded || base % crate::large::header_align(header) != 0 {
            flag(format!("span {base:#x} of {bytes} bytes carries header {header:#x}"));
        }
    }
    // Each level has its own bound: a thread's word on its own, the
    // shared words together.
    let mut own = 0;
    for (base, bytes) in crate::large::thread_spans(inner) {
        own += bytes;
        if bytes > MAX_THREAD_SPAN {
            flag(format!("a thread's own word holds {bytes} bytes at {base:#x}"));
        }
    }
    let mapped_spans = inner.large_mapped_spans.load(Ordering::Relaxed);
    let mapped = inner.large_mapped_bytes.load(Ordering::Relaxed);
    if cached.saturating_sub(own) > MAX_CACHED_BYTES || cached > mapped || spans > mapped_spans {
        flag(format!(
            "{spans} spans of {cached} bytes parked ({own} in threads' own words), \
             {mapped_spans} of {mapped} mapped"
        ));
    }
    rep.large_cached_spans = spans;
}

/// The first positions of a superblock's free list, as far as they are
/// sound.
struct FreeWalk {
    /// Block indices in list order.
    blocks: Vec<u32>,
    /// The rest of the virgin run, if the position after the last block
    /// asked for lies in it: free, but beyond what was to be accounted.
    beyond: core::ops::Range<u32>,
    /// What stopped the walk short of the length asked for, as a check
    /// name and its detail.
    defect: Option<(&'static str, String)>,
}

/// Follows the first `n` positions of `desc`'s free list from
/// `anchor.avail`: a listed block's first word names its successor, and
/// from the first position that carries `V` on (the anchor's, or one
/// link's) the successor is the next index up and nothing is read
/// (DESIGN.md §20). Stops at the first index out of range or met twice.
/// A word's hops (DESIGN.md §15.7) must name the blocks the walk finds
/// that many positions down; past position `n` of a longer list they are
/// not checked.
fn walk_free_list(desc: &Descriptor, n: usize) -> FreeWalk {
    let (sb, sz, maxc) = (desc.sb() as usize, desc.sz() as usize, desc.maxcount());
    let mut walk = FreeWalk { blocks: Vec::new(), beyond: 0..0, defect: None };
    let mut seen: HashSet<u32> = HashSet::new();
    let mut words = Vec::new();
    let mut at = desc.load_anchor().head();
    // One position past the last block asked for: a `V` there has to
    // be a possible one too.
    for step in 0..=n {
        let idx = at.idx();
        if at.is_virgin() && idx > maxc {
            walk.defect = Some(("sb.virgin-range", format!("position {step} is {idx} | V, beyond maxcount {maxc}")));
            break;
        }
        if step == n {
            if at.is_virgin() {
                walk.beyond = idx..maxc;
            }
            break;
        }
        if idx >= maxc {
            walk.defect = Some(("sb.freelist-short", format!("free list ended at {step}/{n} (next index {idx})")));
            break;
        }
        if !seen.insert(idx) {
            walk.defect = Some(("sb.freelist-cycle", format!("free list revisits block {idx} at {step}/{n}")));
            break;
        }
        walk.blocks.push(idx);
        // The first word of an explicitly listed block is its successor
        // (written by `free`); a virgin block's was never written.
        at = at.next(|| {
            // Explicit positions come first: `words[step]` is this one's.
            words.push(unsafe { *((sb + idx as usize * sz) as *const u64) });
            words[step]
        });
    }
    let end = walk.blocks.len();
    let there = |p: usize| match p {
        p if p < end => Some(Pos::explicit(walk.blocks[p])),
        p if p == end || at.is_virgin() => Some(at), // `V`: nothing explicit from here on
        _ => None,
    };
    let mut hops = words.iter().enumerate().flat_map(|(step, &w)| {
        (2..=Pos::hops(w) + 1).map(move |d| (step + d as usize, Pos::hop(w, d)))
    });
    if let Some((p, hop)) = hops.find(|&(p, hop)| there(p).is_some_and(|t| t != Pos::explicit(hop))) {
        let detail = format!("a hop names block {hop} for position {p}, which holds another");
        walk.defect.get_or_insert(("sb.freelist-hop", detail));
    }
    walk
}

/// The blocks (by index) that `desc`'s anchor — plus the Active word of
/// its heap, if it is installed there — accounts for as free: the first
/// `count (+ credits + 1)` positions from `avail`, as far as they are
/// sound; `check_linked_desc` reports where they are not.
fn accounted_free_blocks(desc: &Descriptor) -> HashSet<u32> {
    let active = unsafe { &*desc.heap() }.load_active();
    let reserved = if core::ptr::eq(active.desc(), desc) { active.credits() as usize + 1 } else { 0 };
    let n = desc.load_anchor().count() as usize + reserved;
    walk_free_list(desc, n).blocks.into_iter().collect()
}

/// The row of a magazine slot a block or a miscount was found in.
fn row_name(out: bool) -> &'static str {
    if out {
        "outbox"
    } else {
        "magazine"
    }
}

fn check_magazines<S: PageSource>(
    inner: &Inner<S>,
    free_set: &HashSet<usize>,
    rep: &mut AuditReport,
) {
    let (cached, miscounted, overdrawn) = crate::magazine::snapshot(inner);
    rep.magazine_blocks = cached.len();
    for o in overdrawn {
        rep.violations.push(AuditViolation {
            check: "mag.budget",
            detail: format!(
                "magazine[slot {}] counts {} mid-class bytes, holds {} (budget {})",
                o.slot,
                o.counted,
                o.held,
                crate::magazine::MID_BUDGET
            ),
        });
    }
    for m in miscounted {
        rep.violations.push(AuditViolation {
            check: "mag.count",
            detail: format!(
                "{}[slot {}, class {}] counts {}, holds {} (capacity {})",
                row_name(m.out),
                m.slot,
                m.class,
                m.counted,
                m.walked,
                m.bound
            ),
        });
    }
    let mut seen: HashSet<usize> = HashSet::new();
    let mut free_lists: HashMap<usize, HashSet<u32>> = HashMap::new();
    for b in &cached {
        let place = format!("{}[slot {}, class {}]", row_name(b.out), b.slot, b.class);
        let mut flag = |check: &'static str, detail: String| {
            rep.violations.push(AuditViolation { check, detail: format!("{place}: {detail}") })
        };
        // Descriptor, class and block start all come from the frame map.
        let entry = inner.frames.get(b.user);
        if entry.is_empty() {
            flag("mag.block-foreign", format!("{:#x} is no block of this instance", b.user));
            continue; // do not dereference
        }
        if !seen.insert(b.user) {
            flag("mag.block-twice", format!("{:#x} is cached twice", b.user));
            continue;
        }
        let d = entry.desc() as usize;
        if free_set.contains(&d) {
            flag("mag.desc-dead", format!("{:#x} names {d:#x}, no live descriptor", b.user));
            continue;
        }
        let desc = unsafe { &*entry.desc() };
        let (sb, sz) = (desc.sb() as usize, desc.sz() as usize);
        if entry.class() != b.class || sz != CLASS_SIZES[b.class] as usize {
            flag("mag.class", format!("{:#x} is a {sz}-byte block of class {}", b.user, entry.class()));
            continue;
        }
        if desc.load_anchor().state() == SbState::Empty {
            flag("mag.desc-empty", format!("{:#x} names EMPTY descriptor {d:#x}", b.user));
            continue;
        }
        if sb != b.user & !(SB_SIZE - 1) || (b.user - sb) % sz != 0 {
            flag("mag.block-range", format!("{:#x} is no block start of superblock {sb:#x}", b.user));
            continue;
        }
        let idx = ((b.user - sb) / sz) as u32;
        if free_lists.entry(d).or_insert_with(|| accounted_free_blocks(desc)).contains(&idx) {
            flag("mag.block-free", format!("{:#x} is also on its superblock's free list", b.user));
        }
    }
}

fn check_linked_desc<S: PageSource>(
    inner: &Inner<S>,
    l: &Link,
    sb_regions: &[(*mut u8, usize)],
    rep: &mut AuditReport,
) {
    let desc = unsafe { &*l.desc };
    let a = l.desc as usize;
    let sz = desc.sz();
    let maxc = desc.maxcount();
    let class_sz = CLASS_SIZES[l.class];
    if sz != class_sz {
        rep.violations.push(AuditViolation {
            check: "desc.class-size",
            detail: format!("{}: desc {a:#x} sz {sz} != class sz {class_sz}", l.place),
        });
        return;
    }
    // A hardened superblock has no more blocks than allocation bits.
    let hardened = inner.config.hardening != crate::harden::Hardening::Off;
    let cap = if hardened { crate::descriptor::BITMAP_WORDS * 64 } else { SB_SIZE };
    if sz == 0 || maxc as usize != (SB_SIZE / sz as usize).min(cap) {
        rep.violations.push(AuditViolation {
            check: "desc.geometry",
            detail: format!("{}: desc {a:#x} sz {sz}, maxcount {maxc}", l.place),
        });
        return;
    }

    let anchor = desc.load_anchor();
    let state = anchor.state();
    let state_ok = match l.kind {
        // An installed active descriptor is always in ACTIVE state: it
        // is only published after the Figure 5 CAS that sets ACTIVE, and
        // no transition away from ACTIVE happens while installed (frees
        // cannot empty it — the Active word always accounts for at
        // least one outstanding reservation).
        LinkKind::Active => state == SbState::Active,
        // Slot/list members arrive PARTIAL and may drain to EMPTY while
        // parked; they can never be ACTIVE or FULL in place.
        LinkKind::HeapSlot | LinkKind::ClassList => {
            state == SbState::Partial || state == SbState::Empty
        }
    };
    if !state_ok {
        rep.violations.push(AuditViolation {
            check: "desc.state",
            detail: format!("{}: desc {a:#x} in illegal state {state:?}", l.place),
        });
        return;
    }

    // Superblock pointer: inside a mapped hyperblock, superblock-aligned.
    let sb = desc.sb() as usize;
    let in_pool = sb_in_pool(sb_regions, sb);

    if state == SbState::Empty {
        // Parked: the superblock waits on its descriptor for whoever
        // takes that next. Its free list is not walked (a reopen ignores
        // it); an EMPTY anchor records all blocks free.
        rep.parked_superblocks += 1;
        if !in_pool {
            rep.violations.push(AuditViolation {
                check: "slot.parked_empty_has_sb",
                detail: format!("{}: EMPTY desc {a:#x} names superblock {sb:#x}", l.place),
            });
        }
        if anchor.count() != maxc - 1 {
            rep.violations.push(AuditViolation {
                check: "desc.empty-count",
                detail: format!(
                    "{}: EMPTY desc {a:#x} count {} != maxcount-1 {}",
                    l.place,
                    anchor.count(),
                    maxc - 1
                ),
            });
        }
        return;
    }

    if !in_pool {
        rep.violations.push(AuditViolation {
            check: "desc.sb-range",
            detail: format!("{}: desc {a:#x} superblock {sb:#x} not in the page pool", l.place),
        });
        return;
    }

    // Installed actives: the descriptor's heap back-reference must name
    // the heap it is installed in.
    if let Some(h) = l.heap {
        if desc.heap() as *const ProcHeap != h {
            rep.violations.push(AuditViolation {
                check: "desc.heap-backref",
                detail: format!(
                    "{}: desc {a:#x} heap back-reference {:?} != {h:?}",
                    l.place,
                    desc.heap()
                ),
            });
        }
    }

    // Credit conservation upper bound: blocks the anchor + Active word
    // account for can never exceed the superblock population.
    let reserved = l.credits.map_or(0, |c| c as usize + 1);
    let expected = anchor.count() as usize + reserved;
    if expected > maxc as usize {
        rep.violations.push(AuditViolation {
            check: "desc.overcommit",
            detail: format!(
                "{}: desc {a:#x} count {} + reserved {reserved} > maxcount {maxc}",
                l.place,
                anchor.count()
            ),
        });
        return;
    }

    // Free-list walk: at least `expected` distinct in-range blocks must
    // be reachable from `anchor.avail`. Kills may leak *extra* blocks
    // onto the list (abandoned reservations), so the walk stops after
    // `expected` — a longer list is legal, a shorter or cyclic one is
    // corruption, and so is a virgin run that starts past the end.
    let walk = walk_free_list(desc, expected);
    if let Some((check, detail)) = walk.defect {
        rep.violations.push(AuditViolation { check, detail: format!("{}: desc {a:#x} {detail}", l.place) });
    }
    rep.free_blocks_walked += walk.blocks.len();
    if hardened {
        // A block on the free list must not be marked allocated in the
        // descriptor's bitmap (the bit is cleared before the anchor push
        // and set before the pointer escapes malloc) — and where the
        // virgin run outlasts the accounted blocks (reservations leaked by
        // kills), no block of the rest has been handed out in this life.
        let listed = walk.blocks.iter().map(|&i| ("harden.bitmap-free-set", "free-listed", i));
        let beyond = walk.beyond.map(|i| ("sb.virgin-range", "virgin", i));
        for (check, what, idx) in listed.chain(beyond).filter(|b| desc.alloc_bit(b.2 as usize)) {
            let detail = format!("{}: desc {a:#x} {what} block {idx} has its allocation bit set", l.place);
            rep.violations.push(AuditViolation { check, detail });
        }
    }

    // Hardened cross-check: allocated bits + free blocks accounted by
    // the anchor/Active word can never exceed the population. One-
    // directional (kills leak blocks with their bits clear, quarantined
    // blocks are counted by neither side), so it survives any legal
    // schedule.
    if hardened {
        let bits = desc.alloc_bit_count() as usize;
        if bits + expected > maxc as usize {
            rep.violations.push(AuditViolation {
                check: "harden.bitmap-overcommit",
                detail: format!(
                    "{}: desc {a:#x} allocated bits {bits} + anchor-accounted {expected} \
                     > maxcount {maxc}",
                    l.place
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anchor::Link as Pos;
    use crate::config::Config;
    use crate::harden::Hardening;
    use malloc_api::RawMalloc;

    fn violations<S: PageSource>(a: &LfMalloc<S>) -> Vec<&'static str> {
        a.audit().violations.iter().map(|v| v.check).collect()
    }

    /// DESIGN.md §20: the walk follows explicit links, then one `V`, then
    /// counts upward — and a `V` that names a block past the end is
    /// `sb.virgin-range`, in a link as in the anchor.
    #[test]
    fn a_mixed_list_is_clean_and_a_virgin_position_out_of_range_is_not() {
        #[cfg(feature = "failpoints")]
        let _quiet = malloc_api::failpoints::no_scenario();
        let a = LfMalloc::with_config(Config::with_heaps(1));
        unsafe {
            // The refill that opens the superblock takes sixteen blocks.
            let held: Vec<*mut u8> = (0..5).map(|_| a.malloc(64)).collect();
            let desc = &*a.inner().frames.get(held[0] as usize).desc();
            let (maxc, sb) = (desc.maxcount(), desc.sb() as usize);
            let opened = desc.load_anchor();
            assert!(opened.virgin() && opened.avail() == 16, "{opened:?}");
            let rep = a.audit();
            assert!(rep.is_clean(), "a virgin anchor: {rep}");
            assert_eq!(rep.free_blocks_walked as u32, maxc - 16);

            // Two frees and the eleven cached blocks go home: thirteen
            // explicit links in front of the run that starts at 16.
            a.free(held[1]);
            a.free(held[3]);
            a.flush_thread_cache();
            let mixed = desc.load_anchor();
            assert!(!mixed.virgin(), "{mixed:?}");
            let rep = a.audit();
            assert!(rep.is_clean(), "explicit links, then the run: {rep}");
            assert_eq!(rep.free_blocks_walked as u32, maxc - 16 + 13);
            let (mut at, mut explicit) = (mixed.head(), 0);
            let frontier_link = loop {
                let word = (sb + at.idx() as usize * 64) as *mut u64;
                explicit += 1;
                at = Pos::from_word(*word);
                if at.is_virgin() {
                    break word;
                }
            };
            assert_eq!((explicit, at), (13, Pos::virgin(16)));

            frontier_link.write(Pos::virgin(maxc + 1).word());
            assert_eq!(violations(&a), ["sb.virgin-range"]);
            frontier_link.write(at.word());
            assert!(a.audit().is_clean());

            desc.store_anchor(mixed.with_head(Pos::virgin(maxc + 1)));
            assert_eq!(violations(&a), ["sb.virgin-range"]);
            // An empty run is legal where nothing more is accounted for;
            // here it leaves the list short.
            desc.store_anchor(mixed.with_head(Pos::virgin(maxc)));
            assert_eq!(violations(&a), ["sb.freelist-short"]);
            desc.store_anchor(mixed);
            assert!(a.audit().is_clean());
            for p in [held[0], held[2], held[4]] {
                a.free(p);
            }
        }
    }

    /// DESIGN.md §15.7: an outbox run goes home with words that name the
    /// run's next blocks. The packed list audits clean; a hop naming a
    /// block the walk does not find there — one the owner holds — is
    /// `sb.freelist-hop`.
    #[test]
    fn a_packed_list_is_clean_and_a_hop_naming_a_held_block_is_not() {
        #[cfg(feature = "failpoints")]
        let _quiet = malloc_api::failpoints::no_scenario();
        let a = LfMalloc::with_config(Config::with_heaps(2));
        unsafe {
            let held: Vec<usize> = (0..8).map(|_| a.malloc(8) as usize).collect();
            let desc = &*a.inner().frames.get(held[0]).desc();
            let (home, sb) = (desc.heap() as usize, desc.sb() as usize);
            let idx = |p: usize| ((p - sb) / 8) as u32;
            malloc_api::testkit::on_some_thread(|| {
                (a.inner().heap_for(0) as *const ProcHeap as usize != home).then(|| {
                    held[..6].iter().for_each(|&p| a.free(p as *mut u8));
                    a.flush_thread_cache()
                })
            });
            // The run is the list's head, newest first: 5 4 3 2 1 0, then
            // the virgin run.
            assert_eq!(desc.load_anchor().head(), Pos::explicit(idx(held[5])));
            let word = held[5] as *mut u64;
            let clean = *word;
            assert_eq!((Pos::from_word(clean), Pos::hops(clean)), (Pos::explicit(idx(held[4])), 4));
            let rep = a.audit();
            assert!(rep.is_clean(), "{rep}");
            let hops = [idx(held[7]), Pos::hop(clean, 3), Pos::hop(clean, 4), Pos::hop(clean, 5)];
            word.write(Pos::from_word(clean).packed(hops, 4));
            assert_eq!(violations(&a), ["sb.freelist-hop"]);
            word.write(clean);
            assert!(a.audit().is_clean());
            a.free(held[6] as *mut u8);
            a.free(held[7] as *mut u8);
        }
    }

    /// DESIGN.md §21: a superblock a refill takes whole is born FULL under
    /// `maxcount | V`, linked nowhere. That anchor is clean; one position
    /// further up is `sb.virgin-range`.
    #[test]
    fn a_superblock_opened_whole_floats_under_the_empty_run() {
        #[cfg(feature = "failpoints")]
        let _quiet = malloc_api::failpoints::no_scenario();
        let a = LfMalloc::with_config(Config::with_heaps(1));
        unsafe {
            let p = a.malloc(8000);
            let desc = &*a.inner().frames.get(p as usize).desc();
            let opened = desc.load_anchor();
            assert_eq!((opened.head(), opened.state()), (Pos::virgin(2), SbState::Full));
            let rep = a.audit();
            assert!(rep.is_clean(), "{rep}");
            assert_eq!((rep.descriptors_floating, rep.magazine_blocks), (1, 1), "{rep}");
            desc.store_anchor(opened.with_head(Pos::virgin(3)));
            assert_eq!(violations(&a), ["sb.virgin-range"]);
            desc.store_anchor(opened);
            assert!(a.audit().is_clean());
            a.free(p);
        }
    }

    #[test]
    fn hardened_a_block_of_the_virgin_run_marked_allocated_is_flagged() {
        let a = LfMalloc::with_config(Config::with_heaps(1).with_hardening(Hardening::Detect));
        unsafe {
            let p = a.malloc(64);
            let desc = &*a.inner().frames.get(p as usize).desc();
            assert!(desc.load_anchor().virgin());
            assert!(a.audit().is_clean());
            // A killed reservation leaves the run one block longer than
            // the anchor and the Active word account for: that last block
            // is free, but in no walk.
            assert!(a.simulate_killed_reservation(64));
            assert!(a.audit().is_clean());
            let idx = desc.maxcount() as usize - 1;
            assert!(desc.set_alloc_bit(idx));
            assert_eq!(violations(&a), ["sb.virgin-range"]);
            desc.clear_alloc_bit(idx);
            // An accounted block is the older check's.
            desc.set_alloc_bit(1);
            assert_eq!(violations(&a), ["harden.bitmap-free-set"]);
            desc.clear_alloc_bit(1);
            assert!(a.audit().is_clean());
            a.free(p);
        }
    }
}
