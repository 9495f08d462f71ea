//! Sampled allocation-site profiling (cargo feature `profile`).
//!
//! Answers the question telemetry counters cannot: *where is live memory
//! coming from, and how long has it been held?* The design keeps the
//! paper's hot-path discipline — nothing here locks, nothing on the
//! malloc path allocates, and the per-allocation cost when a sample is
//! *not* taken is one TLS read, one subtraction and one branch:
//!
//! * **Byte-stride sampler.** Every thread counts requested bytes down
//!   from a deterministic phase; the allocation that crosses zero is
//!   sampled and the countdown re-arms from a per-thread splitmix64
//!   stream seeded by [`ProfileParams`](crate::config::ProfileParams).
//!   No RNG runs on the fast path — randomness is consumed only when a
//!   sample is taken (on average once per `stride_bytes` of traffic).
//!   Same seed + same single-threaded allocation sequence ⇒ identical
//!   samples, which is what makes the profiler testable.
//! * **Lock-free live-sample table.** A fixed-capacity open-addressing
//!   table keyed by user pointer, reusing the shadow-map slot protocol
//!   (`crates/oracle/src/shadow.rs`): key `0` = empty, `1` = tombstone,
//!   `ptr|1` = transient insert/remove lock, `ptr` = live sample. Claim
//!   by CAS to `ptr|1`, write metadata, publish with a release store.
//!   The table is system-allocated at construction and never grows, so
//!   the profiler can ride inside the global allocator.
//! * **Call-site attribution.** The public entry points carry
//!   `#[track_caller]` under this feature, and the `#[inline(never)]`
//!   sampling shim records `core::panic::Location::caller()` — the
//!   stable-Rust equivalent of capturing the caller return address
//!   (stable Rust has no `__builtin_return_address`; the `Location` is
//!   deterministic, needs no symbolization, and renders as
//!   `file:line:column`). See DESIGN.md §13.
//! * **Weights.** Each sample carries an estimated byte weight of
//!   `max(requested, stride_bytes)` — the tcmalloc/jemalloc estimator:
//!   an allocation of `r ≥ stride` bytes is sampled with probability
//!   ~1, so it represents itself; a smaller allocation is sampled with
//!   probability ~`r/stride`, so it stands in for ~`stride` bytes of
//!   similar traffic. Summing weights over live samples estimates live
//!   bytes per call site, which is what the retention report ranks.
//!
//! Sample *removal* (on free) does not need thread identity, so the
//! TLS-teardown free path unwinds samples correctly; sample *taking*
//! requires live TLS and silently skips during teardown.

use crate::config::{ProfileParams, PREFIX_SIZE};
use crate::instance::Inner;
use crate::size_classes::NUM_CLASSES;
use core::cell::UnsafeCell;
use core::panic::Location;
use core::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use malloc_api::telemetry::{monotonic_nanos, Counter};
use osmem::PageSource;
use std::alloc::{GlobalAlloc, Layout, System};

/// Live-sample table capacity (power of two). At the default 512 KiB
/// stride this covers ~2 GiB of sampled live heap; when it fills,
/// further samples are dropped and counted, never blocked on.
pub const SAMPLE_TABLE_CAP: usize = 4096;

/// Size-class value marking a large (direct-mmap) sample.
pub const LARGE_CLASS: u16 = u16::MAX;

const EMPTY: usize = 0;
const TOMB: usize = 1;

/// Metadata of one live sample (owned by whoever holds the slot's
/// transient `ptr|1` lock).
#[derive(Clone, Copy, Debug, Default)]
struct SampleMeta {
    /// `&'static Location<'static>` of the allocating call site.
    site: usize,
    /// Requested (user) bytes.
    requested: usize,
    /// Total block bytes backing the allocation (class block size for
    /// small, page-rounded span for large) — the internal-fragmentation
    /// denominator.
    block_bytes: usize,
    /// Estimated bytes this sample represents (see module docs).
    weight: u64,
    /// [`monotonic_nanos`] at allocation.
    birth_nanos: u64,
    /// Size-class index, or [`LARGE_CLASS`].
    class: u16,
    /// Per-instance sampler thread index (dense, deterministic).
    thread: u32,
}

struct SampleSlot {
    key: AtomicUsize,
    meta: UnsafeCell<SampleMeta>,
}

/// Per-instance profiler state, embedded in `Inner` under the `profile`
/// feature.
#[derive(Debug)]
pub(crate) struct ProfileState {
    params: ProfileParams,
    /// Dense per-instance thread indices, issued in first-touch order.
    next_thread: AtomicU32,
    /// `SAMPLE_TABLE_CAP` slots, system-allocated (zeroed = all empty).
    slots: *mut SampleSlot,
    /// Samples taken (lifetime).
    pub samples: Counter,
    /// Samples lost to a full table (lifetime).
    pub dropped: Counter,
    /// Sampled blocks whose free was observed (lifetime).
    pub freed: Counter,
}

unsafe impl Send for ProfileState {}
// Slot metadata is only touched under the transient `ptr|1` slot lock.
unsafe impl Sync for ProfileState {}

thread_local! {
    /// `(instance id, rng state, countdown)`, keyed by the instance's
    /// magazine-table id (process-unique, never zero, never reused). One
    /// slot serves every instance: when a thread's allocations
    /// interleave across instances the slot re-arms deterministically on
    /// each switch (id mismatch), preserving per-instance determinism
    /// for the dominant single-instance case.
    static SAMPLER: core::cell::Cell<(u64, u64, i64)> =
        const { core::cell::Cell::new((0, 0, 0)) };
    /// Per-instance thread index last issued to this thread, keyed by
    /// the same id.
    static SAMPLER_THREAD: core::cell::Cell<(u64, u32)> =
        const { core::cell::Cell::new((0, 0)) };
}

/// splitmix64 step — the sampler's only RNG, run once per *sample*.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Next inter-sample gap: uniform in `[stride/2, 3*stride/2)`, mean
/// `stride`, never zero — jittered so periodic allocation patterns
/// cannot phase-lock with the sampler, deterministic given the stream.
#[inline]
fn next_gap(rng: &mut u64, stride: u64) -> i64 {
    let stride = stride.max(1);
    let jitter = splitmix64(rng) % stride;
    ((stride / 2 + jitter).max(1)).min(i64::MAX as u64) as i64
}

impl ProfileState {
    /// Allocates the sample table; `None` when the system allocator is
    /// exhausted.
    pub(crate) fn new(params: ProfileParams) -> Option<Self> {
        let layout = Layout::array::<SampleSlot>(SAMPLE_TABLE_CAP).ok()?;
        // Zeroed memory is a valid slot array: EMPTY keys, zeroed meta.
        let slots = unsafe { System.alloc_zeroed(layout) } as *mut SampleSlot;
        if slots.is_null() {
            return None;
        }
        Some(ProfileState {
            params,
            next_thread: AtomicU32::new(0),
            slots,
            samples: Counter::new(),
            dropped: Counter::new(),
            freed: Counter::new(),
        })
    }

    #[inline]
    fn slot(&self, i: usize) -> &SampleSlot {
        debug_assert!(i < SAMPLE_TABLE_CAP);
        unsafe { &*self.slots.add(i) }
    }

    /// splitmix64 finalizer over the pointer sans alignment bits (the
    /// shadow-map hash).
    #[inline]
    fn hash(ptr: usize) -> usize {
        let mut z = (ptr >> 3) as u64;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as usize & (SAMPLE_TABLE_CAP - 1)
    }

    /// Inserts a live sample. Lock-free: claims the first reusable slot
    /// in the probe chain by CAS to `ptr|1`, writes the metadata, then
    /// publishes the key with a release store.
    fn insert(&self, ptr: usize, meta: SampleMeta) {
        debug_assert_eq!(ptr & 1, 0, "user pointers are at least 8-aligned");
        let start = Self::hash(ptr);
        for i in 0..SAMPLE_TABLE_CAP {
            let slot = self.slot((start + i) & (SAMPLE_TABLE_CAP - 1));
            let key = slot.key.load(Ordering::Acquire);
            if key != EMPTY && key != TOMB {
                continue;
            }
            if slot
                .key
                .compare_exchange(key, ptr | 1, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
            {
                // Lost the slot race; try it (and its successors) again.
                continue;
            }
            unsafe { *slot.meta.get() = meta };
            slot.key.store(ptr, Ordering::Release);
            self.samples.inc();
            return;
        }
        self.dropped.inc();
    }

    /// Removes the sample for `ptr` if one is live (called on every
    /// free; almost always terminates at the first EMPTY probe).
    fn remove(&self, ptr: usize) {
        let start = Self::hash(ptr);
        for i in 0..SAMPLE_TABLE_CAP {
            let slot = self.slot((start + i) & (SAMPLE_TABLE_CAP - 1));
            let key = slot.key.load(Ordering::Acquire);
            if key == EMPTY {
                return; // not sampled
            }
            if key != ptr {
                continue;
            }
            if slot
                .key
                .compare_exchange(ptr, ptr | 1, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                slot.key.store(TOMB, Ordering::Release);
                self.freed.inc();
            }
            // Either we removed it or a racing remover did; done.
            return;
        }
    }

    /// Racy point-in-time copy of the live samples (a sample concurrent
    /// with the scan may be seen or missed; metadata of a *published*
    /// key is always consistent — it was completed before the release
    /// store).
    fn collect_live(&self) -> Vec<(usize, SampleMeta)> {
        let mut out = Vec::new();
        for i in 0..SAMPLE_TABLE_CAP {
            let slot = self.slot(i);
            let key = slot.key.load(Ordering::Acquire);
            if key != EMPTY && key != TOMB && key & 1 == 0 {
                out.push((key, unsafe { *slot.meta.get() }));
            }
        }
        out
    }
}

impl Drop for ProfileState {
    fn drop(&mut self) {
        unsafe {
            System.dealloc(
                self.slots as *mut u8,
                Layout::array::<SampleSlot>(SAMPLE_TABLE_CAP).unwrap(),
            );
        }
    }
}

/// Fast-path sampler hook, called by `allocate`/`allocate_zeroed` for
/// every successful allocation: decrement the thread's byte countdown
/// and fall into the cold shim only when it crosses zero. Skips
/// silently when TLS is gone (teardown-time allocation).
#[inline]
pub(crate) fn tick<S: PageSource>(
    inner: &Inner<S>,
    ptr: *mut u8,
    requested: usize,
    site: &'static Location<'static>,
) {
    let crossed = SAMPLER
        .try_with(|slot| {
            let (id, rng, countdown) = slot.get();
            if id != inner.mags.id {
                return true; // re-arm (and decide) in the cold shim
            }
            let left = countdown - requested.min(i64::MAX as usize) as i64;
            slot.set((id, rng, left));
            left <= 0
        })
        .unwrap_or(false);
    if crossed {
        take_sample(inner, ptr, requested, site);
    }
}

/// The sampling shim: re-arms the countdown and records the sample.
/// `#[inline(never)]` keeps it (and its `Location` capture) out of the
/// fast path and gives the profiler a single symbol to account for.
#[inline(never)]
#[cold]
fn take_sample<S: PageSource>(
    inner: &Inner<S>,
    ptr: *mut u8,
    requested: usize,
    site: &'static Location<'static>,
) {
    let (p, id) = (&inner.obs.profile, inner.mags.id);
    let stride = p.params.stride_bytes;
    // Re-arm the countdown (switching instances re-seeds the stream so
    // each instance observes a deterministic phase).
    let armed = SAMPLER.try_with(|slot| {
        let (slot_id, mut rng, countdown) = slot.get();
        if slot_id != id {
            let idx = SAMPLER_THREAD
                .try_with(|t| {
                    let (inst, tidx) = t.get();
                    if inst == id {
                        tidx
                    } else {
                        let idx = p.next_thread.fetch_add(1, Ordering::Relaxed);
                        t.set((id, idx));
                        idx
                    }
                })
                .unwrap_or(u32::MAX);
            rng = p.params.seed ^ (idx as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let first = next_gap(&mut rng, stride) - requested.min(i64::MAX as usize) as i64;
            slot.set((id, rng, first));
            // A fresh stream's first allocation is sampled only if it
            // alone crosses the phase — mirrors the steady state.
            return first <= 0;
        }
        debug_assert!(countdown <= 0);
        let gap = next_gap(&mut rng, stride);
        slot.set((id, rng, countdown + gap));
        true
    });
    if armed != Ok(true) {
        return;
    }
    // Derive class and block geometry from the address (the frame map
    // for a small block, the marker word in front of a large one) — the
    // shim needs no plumbing through the malloc ladder.
    let entry = inner.frames.get(ptr as usize);
    let (class, block_bytes) = if entry.is_empty() {
        let marker = unsafe {
            (*((ptr as usize - PREFIX_SIZE) as *const AtomicUsize)).load(Ordering::Relaxed)
        };
        let user_off = marker >> 1;
        (LARGE_CLASS, unsafe { crate::large::usable_size_large(ptr, marker) } + user_off)
    } else {
        (entry.class() as u16, crate::size_classes::CLASS_SIZES[entry.class()] as usize)
    };
    let thread = SAMPLER_THREAD.try_with(|t| t.get().1).unwrap_or(u32::MAX);
    p.insert(
        ptr as usize,
        SampleMeta {
            site: site as *const Location<'static> as usize,
            requested,
            block_bytes,
            weight: (requested as u64).max(stride),
            birth_nanos: monotonic_nanos(),
            class,
            thread,
        },
    );
}

/// Free-side unwind, called by `deallocate` for every non-null free —
/// including TLS-teardown and large-block frees (removal needs no
/// thread identity).
#[inline]
pub(crate) fn untick<S: PageSource>(inner: &Inner<S>, ptr: *mut u8) {
    inner.obs.profile.remove(ptr as usize);
}

/// An allocating call site (`#[track_caller]` provenance), rendered as
/// `file:line:column`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CallSite {
    pub file: &'static str,
    pub line: u32,
    pub column: u32,
}

impl CallSite {
    fn from_raw(site: usize) -> CallSite {
        let loc = unsafe { &*(site as *const Location<'static>) };
        CallSite { file: loc.file(), line: loc.line(), column: loc.column() }
    }
}

impl core::fmt::Display for CallSite {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}:{}:{}", self.file, self.line, self.column)
    }
}

/// One live sample, as reported by [`ProfileSnapshot`].
#[derive(Clone, Copy, Debug)]
pub struct LiveSample {
    /// The sampled user pointer.
    pub ptr: usize,
    /// Allocating call site.
    pub site: CallSite,
    /// Requested bytes.
    pub requested: usize,
    /// Backing block bytes (internal-fragmentation denominator).
    pub block_bytes: usize,
    /// Estimated bytes this sample represents.
    pub weight: u64,
    /// Size class, or [`LARGE_CLASS`].
    pub class: u16,
    /// Per-instance sampler thread index.
    pub thread: u32,
    /// Nanoseconds the allocation has been live.
    pub age_nanos: u64,
}

/// Retention aggregate of one call site, ranked by estimated live
/// bytes — the unit of the leak report.
#[derive(Clone, Debug)]
pub struct SiteReport {
    pub site: CallSite,
    /// Live samples attributed to the site.
    pub live_samples: u64,
    /// Estimated live bytes (sum of sample weights).
    pub live_bytes: u64,
    /// Sum of requested bytes over the live samples (un-weighted).
    pub requested_bytes: u64,
    /// Sum of backing block bytes over the live samples.
    pub block_bytes: u64,
    /// Distinct sampler threads that allocated here.
    pub threads: u32,
    /// Size class holding the most live bytes for this site.
    pub top_class: u16,
    /// Age of the oldest live sample.
    pub oldest_age_nanos: u64,
}

/// Point-in-time profiler state: counters plus the live samples.
#[derive(Clone, Debug)]
pub struct ProfileSnapshot {
    /// Sampler parameters in force.
    pub stride_bytes: u64,
    pub seed: u64,
    /// Lifetime samples taken / dropped (table full) / freed.
    pub samples_taken: u64,
    pub samples_dropped: u64,
    pub sampled_frees: u64,
    /// Live samples, in table order.
    pub live: Vec<LiveSample>,
}

impl ProfileSnapshot {
    /// Estimated total live sampled bytes.
    pub fn live_bytes_estimate(&self) -> u64 {
        self.live.iter().map(|s| s.weight).sum()
    }

    /// Sampled internal fragmentation: `(requested, block)` byte sums
    /// over the live samples. `1 - requested/block` is the wasted
    /// fraction inside blocks.
    pub fn internal_frag_bytes(&self) -> (u64, u64) {
        let req = self.live.iter().map(|s| s.requested as u64).sum();
        let blk = self.live.iter().map(|s| s.block_bytes as u64).sum();
        (req, blk)
    }

    /// Internal fragmentation in permille (0 when nothing is sampled).
    pub fn internal_frag_permille(&self) -> u32 {
        let (req, blk) = self.internal_frag_bytes();
        if blk == 0 {
            0
        } else {
            (1000u64.saturating_sub(req * 1000 / blk)) as u32
        }
    }

    /// The retention report: per-site aggregates of the live samples,
    /// ranked by estimated live bytes (descending) — the top entry is
    /// the strongest leak suspect.
    pub fn sites(&self) -> Vec<SiteReport> {
        let mut sorted: Vec<&LiveSample> = self.live.iter().collect();
        sorted.sort_by(|a, b| a.site.cmp(&b.site));
        let mut out: Vec<SiteReport> = Vec::new();
        for s in sorted {
            if out.last().map(|r| r.site) != Some(s.site) {
                out.push(SiteReport {
                    site: s.site,
                    live_samples: 0,
                    live_bytes: 0,
                    requested_bytes: 0,
                    block_bytes: 0,
                    threads: 0,
                    top_class: s.class,
                    oldest_age_nanos: 0,
                });
            }
            let r = out.last_mut().unwrap();
            r.live_samples += 1;
            r.live_bytes += s.weight;
            r.requested_bytes += s.requested as u64;
            r.block_bytes += s.block_bytes as u64;
            r.oldest_age_nanos = r.oldest_age_nanos.max(s.age_nanos);
        }
        // Per-site class and thread rollups (sites are few; the n² over
        // a site's samples is bounded by the table capacity).
        for r in &mut out {
            let mut class_bytes: Vec<(u16, u64)> = Vec::new();
            let mut threads: Vec<u32> = Vec::new();
            for s in self.live.iter().filter(|s| s.site == r.site) {
                match class_bytes.iter_mut().find(|(c, _)| *c == s.class) {
                    Some((_, b)) => *b += s.weight,
                    None => class_bytes.push((s.class, s.weight)),
                }
                if !threads.contains(&s.thread) {
                    threads.push(s.thread);
                }
            }
            r.top_class =
                class_bytes.iter().max_by_key(|(_, b)| *b).map(|(c, _)| *c).unwrap_or(0);
            r.threads = threads.len() as u32;
        }
        out.sort_by(|a, b| b.live_bytes.cmp(&a.live_bytes));
        out
    }

    /// Hand-rolled JSON object (embedded by `StatsSnapshot::to_json`).
    pub fn to_json(&self) -> String {
        let sites: Vec<String> = self
            .sites()
            .iter()
            .map(|r| {
                format!(
                    "{{\"site\":\"{}\",\"live_samples\":{},\"live_bytes\":{},\
                     \"requested_bytes\":{},\"block_bytes\":{},\"threads\":{},\
                     \"top_class\":{},\"oldest_age_nanos\":{}}}",
                    malloc_api::json::escape(&r.site.to_string()),
                    r.live_samples,
                    r.live_bytes,
                    r.requested_bytes,
                    r.block_bytes,
                    r.threads,
                    r.top_class,
                    r.oldest_age_nanos
                )
            })
            .collect();
        let (req, blk) = self.internal_frag_bytes();
        format!(
            "{{\"stride_bytes\":{},\"seed\":{},\"samples_taken\":{},\
             \"samples_dropped\":{},\"sampled_frees\":{},\"live_samples\":{},\
             \"live_bytes_estimate\":{},\"sampled_requested_bytes\":{},\
             \"sampled_block_bytes\":{},\"internal_frag_permille\":{},\
             \"sites\":[{}]}}",
            self.stride_bytes,
            self.seed,
            self.samples_taken,
            self.samples_dropped,
            self.sampled_frees,
            self.live.len(),
            self.live_bytes_estimate(),
            req,
            blk,
            self.internal_frag_permille(),
            sites.join(",")
        )
    }
}

impl<S: PageSource> crate::instance::LfMalloc<S> {
    /// A point-in-time profiler snapshot: sampler counters plus every
    /// live sample with call-site, class, thread and age attribution.
    /// Racy against concurrent allocation the same way
    /// [`stats`](Self::stats) is; snapshotting allocates (through the
    /// Rust global allocator) and must not be called from inside an
    /// allocation path.
    pub fn profile(&self) -> ProfileSnapshot {
        let inner = self.inner();
        let p = &inner.obs.profile;
        let now = monotonic_nanos();
        let live = p
            .collect_live()
            .into_iter()
            .map(|(ptr, m)| LiveSample {
                ptr,
                site: CallSite::from_raw(m.site),
                requested: m.requested,
                block_bytes: m.block_bytes,
                weight: m.weight,
                class: m.class,
                thread: m.thread,
                age_nanos: now.saturating_sub(m.birth_nanos),
            })
            .collect();
        ProfileSnapshot {
            stride_bytes: p.params.stride_bytes,
            seed: p.params.seed,
            samples_taken: p.samples.get(),
            samples_dropped: p.dropped.get(),
            sampled_frees: p.freed.get(),
            live,
        }
    }

    /// The ranked leak/retention report —
    /// [`ProfileSnapshot::sites`] of a fresh snapshot.
    pub fn retention_report(&self) -> Vec<SiteReport> {
        self.profile().sites()
    }
}

/// Classes a [`LiveSample::class`] value for display: the class block
/// size, or `"large"`.
pub fn class_label(class: u16) -> String {
    if class == LARGE_CLASS {
        "large".into()
    } else if (class as usize) < NUM_CLASSES {
        crate::size_classes::CLASS_SIZES[class as usize].to_string()
    } else {
        format!("class-{class}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_distribution_brackets_stride() {
        let mut rng = 42u64;
        for _ in 0..1000 {
            let g = next_gap(&mut rng, 1024);
            assert!((512..1536).contains(&g), "gap {g} out of [stride/2, 3stride/2)");
        }
        // Degenerate strides still make progress.
        let mut rng = 7u64;
        assert!(next_gap(&mut rng, 0) >= 1);
        assert!(next_gap(&mut rng, 1) >= 1);
    }

    #[test]
    fn gap_stream_is_deterministic() {
        let mut a = 9u64;
        let mut b = 9u64;
        let ga: Vec<i64> = (0..100).map(|_| next_gap(&mut a, 4096)).collect();
        let gb: Vec<i64> = (0..100).map(|_| next_gap(&mut b, 4096)).collect();
        assert_eq!(ga, gb);
    }

    #[test]
    fn table_insert_remove_roundtrip() {
        let p = ProfileState::new(ProfileParams::default_const()).unwrap();
        let meta = SampleMeta { requested: 100, weight: 512, ..Default::default() };
        for i in 0..100usize {
            p.insert(0x10000 + i * 64, meta);
        }
        assert_eq!(p.samples.get(), 100);
        assert_eq!(p.collect_live().len(), 100);
        for i in 0..50usize {
            p.remove(0x10000 + i * 64);
        }
        assert_eq!(p.freed.get(), 50);
        assert_eq!(p.collect_live().len(), 50);
        // Removing an unsampled pointer is a no-op.
        p.remove(0xDEAD0);
        assert_eq!(p.freed.get(), 50);
        // Tombstoned slots are reusable.
        for i in 0..50usize {
            p.insert(0x90000 + i * 64, meta);
        }
        assert_eq!(p.collect_live().len(), 100);
        assert_eq!(p.dropped.get(), 0);
    }

    #[test]
    fn table_full_drops_and_counts() {
        let p = ProfileState::new(ProfileParams::default_const()).unwrap();
        let meta = SampleMeta::default();
        for i in 0..SAMPLE_TABLE_CAP + 10 {
            p.insert(0x100000 + i * 8, meta);
        }
        assert_eq!(p.samples.get(), SAMPLE_TABLE_CAP as u64);
        assert_eq!(p.dropped.get(), 10);
    }

    #[test]
    fn site_report_ranks_by_live_bytes() {
        #[track_caller]
        fn here() -> &'static Location<'static> {
            Location::caller()
        }
        let big = here();
        let small = here();
        let snap = ProfileSnapshot {
            stride_bytes: 512,
            seed: 0,
            samples_taken: 3,
            samples_dropped: 0,
            sampled_frees: 0,
            live: vec![
                LiveSample {
                    ptr: 0x1000,
                    site: CallSite { file: big.file(), line: big.line(), column: big.column() },
                    requested: 4000,
                    block_bytes: 4096,
                    weight: 4000,
                    class: 9,
                    thread: 0,
                    age_nanos: 5,
                },
                LiveSample {
                    ptr: 0x2000,
                    site: CallSite { file: big.file(), line: big.line(), column: big.column() },
                    requested: 4000,
                    block_bytes: 4096,
                    weight: 4000,
                    class: 9,
                    thread: 1,
                    age_nanos: 9,
                },
                LiveSample {
                    ptr: 0x3000,
                    site: CallSite {
                        file: small.file(),
                        line: small.line(),
                        column: small.column(),
                    },
                    requested: 64,
                    block_bytes: 128,
                    weight: 512,
                    class: 3,
                    thread: 0,
                    age_nanos: 1,
                },
            ],
        };
        let sites = snap.sites();
        assert_eq!(sites.len(), 2);
        assert_eq!(sites[0].live_bytes, 8000, "heavier site ranks first");
        assert_eq!(sites[0].threads, 2);
        assert_eq!(sites[0].top_class, 9);
        assert_eq!(sites[0].oldest_age_nanos, 9);
        assert_eq!(sites[1].live_bytes, 512);
        let (req, blk) = snap.internal_frag_bytes();
        assert_eq!((req, blk), (8064, 8320));
        assert!(snap.internal_frag_permille() < 100);
        let json = snap.to_json();
        assert!(json.contains("\"sites\":["));
        assert!(json.contains("\"live_bytes\":8000"));
    }
}
