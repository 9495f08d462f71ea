//! Allocator telemetry (cargo feature `stats`).
//!
//! Sharded, lock-free, always-on-when-enabled counters over the whole
//! malloc/free stack, plus a bounded event ring for slow-path tracing.
//! The design (DESIGN.md §9) follows the allocator's own discipline:
//!
//! * **Sharding mirrors the heap table.** One cache-line-padded
//!   [`ClassShard`] per `(size class, processor heap)` pair, laid out
//!   parallel to the `ProcHeap` array, so the hot paths touch a shard
//!   with the same locality as the heap they already own and never
//!   contend on a global counter.
//! * **Relaxed everywhere.** Telemetry observes how *often* paths run,
//!   never orders them; a snapshot racing increments may be off by the
//!   in-flight handful, which is the documented tolerance of
//!   [`StatsSnapshot`].
//! * **Zero cost when off.** The core reports through
//!   [`crate::observe`], whose functions have empty bodies without the
//!   feature — the same contract as `fail_point!`.
//! * **One schema.** Every counter, gauge and latency path is declared
//!   once, in a table of [`crate::schema`]; [`ClassStats`],
//!   [`StatsSnapshot`]'s instance rows, [`LatencyStats`] and the public
//!   tables [`CLASS_COUNTERS`], [`INSTANCE_COUNTERS`] and
//!   [`LATENCY_PATHS`] are generated from them (the health numbers'
//!   [`HEALTH_ROWS`] in `health.rs`), and
//!   every renderer loops over those tables.
//!
//! The event ring, the fragmentation series and the flight recorder's
//! rings are one [`StampedRing`]: fixed capacity, pre-allocated, a push
//! is one `fetch_add` and a few stores that overwrite the oldest entry,
//! and a reader that meets an entry mid-write skips it.

use crate::config::SB_SIZE;
use crate::heap::ProcHeap;
use crate::instance::{Inner, LfMalloc, SysArray};
use crate::health::HEALTH_ROWS;
use crate::schema::{json_members, CounterInfo, Global, Lat};
use crate::size_classes::{CLASS_SIZES, NUM_CLASSES};
use lockfree_structs::stats::StructsCasStats;
use malloc_api::telemetry::{
    bucket_label, monotonic_nanos, Counter, Histogram, LatencyHist, LatencySnapshot,
    RETRY_BUCKETS,
};
use core::marker::PhantomData;
use core::sync::atomic::{fence, AtomicU64, Ordering};
use malloc_api::AllocStats;
use osmem::PageSource;
use std::io::Write;

/// Capacity of the slow-path event ring (power of two; see
/// [`StampedRing::new`]).
pub const EVENT_RING_CAP: usize = 1024;

/// Capacity of the fragmentation time-series ring: one
/// [`FragSample`] per maintenance pass, oldest evicted first. At the
/// default 250 ms reaper period this holds the last ~64 s of history.
pub const FRAG_SERIES_CAP: usize = 256;

/// Live counters of one `(size class, heap)` pair: one per row of the
/// schema's table, indexed by [`crate::schema::Count`], and the two CAS-retry
/// histograms. Padded to its own cache lines so neighbouring shards never
/// false-share — the same guarantee `ProcHeap` itself makes.
#[repr(align(64))]
#[derive(Debug, Default)]
pub(crate) struct ClassShard {
    pub counts: [Counter; CLASS_COUNTERS.len()],
    /// Retries of the Active-word reservation CAS, per malloc.
    pub active_cas: Histogram<RETRY_BUCKETS>,
    /// Retries of Anchor CASes (pop/reserve/credit-return/free-link),
    /// per operation.
    pub anchor_cas: Histogram<RETRY_BUCKETS>,
}

pub use crate::schema::EventKind;

impl EventKind {
    /// Stable lowercase label for reports and JSON.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::SbAcquire => "sb-acquire",
            EventKind::SbRetire => "sb-retire",
            EventKind::HeapTransition => "heap-transition",
            EventKind::OomBackoff => "oom-backoff",
            EventKind::Trim => "trim",
            EventKind::LivenessStorm => "liveness-storm",
            EventKind::Maintain => "maintain",
            EventKind::Fork => "fork",
            EventKind::ChildRecover => "child-recover",
            EventKind::CrashReport => "crash-report",
            EventKind::HeapDump => "heap-dump",
        }
    }
}

/// One timestamped slow-path event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Nanoseconds since the first event-ring use in this process.
    pub nanos: u64,
    /// What happened.
    pub kind: EventKind,
    /// Size-class index (0 for class-less events like `Trim`).
    pub class: u16,
    /// Kind-specific payload (superblock address, bytes released, ...).
    pub arg: u64,
}

impl From<Event> for [u64; 3] {
    fn from(e: Event) -> Self {
        [e.nanos, e.kind as u64 | (e.class as u64) << 8, e.arg]
    }
}

impl From<[u64; 3]> for Event {
    fn from([nanos, meta, arg]: [u64; 3]) -> Self {
        let kind = (meta as u8).min(EventKind::HeapDump as u8);
        // SAFETY: `EventKind` is `repr(u8)` and ends at `HeapDump`; every
        // kind byte in a ring was written by `From<Event>`.
        let kind = unsafe { core::mem::transmute::<u8, EventKind>(kind) };
        Event { nanos, kind, class: (meta >> 8) as u16, arg }
    }
}

/// The ring of slow-path [`Event`]s.
pub type EventRing = StampedRing<Event, 3>;

/// The ring of [`FragSample`]s, sized for minutes of history.
pub type FragSeries = StampedRing<FragSample, 6>;

/// A slot's words and the stamp they were published under: the entry's
/// position in the ring plus one, or 0 while a writer is in the slot.
#[derive(Debug)]
struct Slot<const W: usize> {
    stamp: AtomicU64,
    words: [AtomicU64; W],
}

/// Fixed-capacity ring that keeps the newest entries, each stored as `W`
/// words (`T` converts to and from them), with a seqlock a slot: a
/// push claims a position with a `fetch_add`, then invalidates that slot's
/// stamp, fills its words and publishes the stamp. It never waits or
/// allocates, so a writer stopped anywhere holds up nobody; its slot reads
/// as mid-write until a lap overwrites it. A reader keeps a slot's words
/// only if its stamp reads the same before and after them.
///
/// One tear is left: a writer that a whole lap (capacity pushes) overtakes
/// while it fills its slot can publish its stamp over a mix of its words
/// and the lapping writer's. Each word is still one a writer wrote.
#[derive(Debug)]
pub struct StampedRing<T, const W: usize> {
    /// Positions claimed so far.
    head: AtomicU64,
    /// Every position below this one was returned or skipped by a `take`.
    taken: AtomicU64,
    /// A power of two of slots; none if the system allocator refused
    /// them, and then every push is dropped.
    slots: SysArray<Slot<W>>,
    dropped: Counter,
    entry: PhantomData<fn(T) -> T>,
}

impl<T: Into<[u64; W]> + From<[u64; W]>, const W: usize> StampedRing<T, W> {
    /// A ring of `cap` entries, rounded up to a power of two.
    pub(crate) fn new(cap: usize) -> Self {
        let slots = SysArray::new(cap.next_power_of_two()).or_else(|_| SysArray::new(0));
        let mut slots = slots.expect("an empty array allocates nothing");
        for _ in 0..slots.len {
            let words = core::array::from_fn(|_| AtomicU64::new(0));
            slots.push(Slot { stamp: AtomicU64::new(0), words });
        }
        let (head, taken) = (AtomicU64::new(0), AtomicU64::new(0));
        StampedRing { head, taken, slots, dropped: Counter::new(), entry: PhantomData }
    }

    /// Entries the ring holds when full (0 if it has no slots).
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len
    }

    fn slot(&self, pos: u64) -> &Slot<W> {
        // SAFETY: a power of two of built slots; callers checked there are some.
        unsafe { &*self.slots.ptr.add(pos as usize & (self.slots.len - 1)) }
    }

    /// Records `entry`, overwriting the oldest one when full.
    #[inline]
    pub fn record(&self, entry: T) {
        if self.slots.len == 0 {
            self.dropped.inc();
            return;
        }
        // Relaxed: the position only picks the slot and names the stamp.
        let pos = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = self.slot(pos);
        // Relaxed: the fence after it orders it before the word stores.
        slot.stamp.store(0, Ordering::Relaxed);
        // Release fence: a reader whose word load sees a store below
        // re-checks a stamp that reads this 0 or later, and skips the slot.
        fence(Ordering::Release);
        for (word, v) in slot.words.iter().zip(entry.into()) {
            // Relaxed: ordered by the fence above and the store below.
            word.store(v, Ordering::Relaxed);
        }
        // Release: a reader that loads this stamp sees the words above.
        slot.stamp.store(pos + 1, Ordering::Release);
    }

    /// The stamp and words of `pos`'s slot, or `None` while a writer is in
    /// it. Never waits and never allocates: a signal handler may call it.
    fn read(&self, pos: u64) -> Option<(u64, [u64; W])> {
        let slot = self.slot(pos);
        // Acquire: pairs with the publishing store, for the words it published.
        let stamp = slot.stamp.load(Ordering::Acquire);
        // Relaxed: the fence below keeps them before the re-check.
        let words = core::array::from_fn(|i| slot.words[i].load(Ordering::Relaxed));
        // Acquire fence: if a word load saw a later writer's store, the
        // re-check sees that writer's 0 (or later), not `stamp`.
        fence(Ordering::Acquire);
        // Relaxed: ordered after the word loads by the fence.
        (stamp != 0 && slot.stamp.load(Ordering::Relaxed) == stamp).then_some((stamp, words))
    }

    /// Every published entry, in slot order (the flight recorder's reader).
    #[cfg(any(feature = "forensics", test))]
    pub(crate) fn published(&self) -> impl Iterator<Item = T> + '_ {
        (0..self.capacity() as u64).filter_map(|i| self.read(i)).map(|(_, w)| T::from(w))
    }

    /// The entries recorded since the previous `take`, oldest first; those
    /// a lap overwrote are gone. Never waits: an entry still being written
    /// is skipped and counted [`dropped`](Self::dropped), and no later
    /// `take` returns it.
    pub fn take(&self) -> Vec<T> {
        // Relaxed, both: they bound the walk; each slot's stamp says
        // whether its entry is there.
        let head = self.head.load(Ordering::Relaxed);
        let from = self.taken.fetch_max(head, Ordering::Relaxed);
        let from = from.max(head.saturating_sub(self.capacity() as u64));
        let mut out = Vec::with_capacity(head.saturating_sub(from) as usize);
        for pos in from..head {
            match self.read(pos) {
                Some((stamp, words)) if stamp == pos + 1 => out.push(T::from(words)),
                _ => self.dropped.inc(),
            }
        }
        out
    }

    /// Entries pushed into a ring with no slots, or skipped by a `take`.
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }
}

/// One point of the fragmentation time series, recorded at the end of
/// every maintenance pass (see [`crate::maintain`]). Byte figures are
/// the same estimators as [`FragmentationStats`], computed without
/// allocating so the recording path is reaper-safe.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FragSample {
    /// [`monotonic_nanos`] at the pass.
    pub nanos: u64,
    /// Estimated bytes in live (non-EMPTY) superblocks.
    pub small_committed_bytes: u64,
    /// Estimated bytes in live small blocks (block size × outstanding).
    pub small_live_bytes: u64,
    /// OS bytes backing live large blocks.
    pub large_live_bytes: u64,
    /// Total OS bytes mapped by the instance.
    pub os_live_bytes: u64,
    /// External fragmentation of the small heap in permille:
    /// `1000 * (1 - live/committed)`.
    pub external_frag_permille: u32,
}

impl From<FragSample> for [u64; 6] {
    fn from(s: FragSample) -> Self {
        let (committed, live, large) =
            (s.small_committed_bytes, s.small_live_bytes, s.large_live_bytes);
        [s.nanos, committed, live, large, s.os_live_bytes, s.external_frag_permille as u64]
    }
}

impl From<[u64; 6]> for FragSample {
    fn from([nanos, committed, live, large, os, permille]: [u64; 6]) -> Self {
        FragSample {
            nanos,
            small_committed_bytes: committed,
            small_live_bytes: live,
            large_live_bytes: large,
            os_live_bytes: os,
            external_frag_permille: permille as u32,
        }
    }
}

impl FragSample {
    /// Hand-rolled JSON object (one time-series point).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nanos\":{},\"small_committed_bytes\":{},\"small_live_bytes\":{},\
             \"large_live_bytes\":{},\"os_live_bytes\":{},\"external_frag_permille\":{}}}",
            self.nanos,
            self.small_committed_bytes,
            self.small_live_bytes,
            self.large_live_bytes,
            self.os_live_bytes,
            self.external_frag_permille
        )
    }
}

/// All live telemetry of one allocator instance: the shard array plus
/// instance-global counters and the event ring.
#[derive(Debug)]
pub(crate) struct InstanceStats {
    /// `NUM_CLASSES * nheaps` shards, system-allocated, laid
    /// out exactly like the heap table: index `ci * nheaps + h`.
    shards: SysArray<ClassShard>,
    /// The instance-wide counters, indexed by [`Global`]; one per row of
    /// [`INSTANCE_COUNTERS`], so the gauge rows leave two idle.
    pub globals: [Counter; INSTANCE_COUNTERS.len()],
    /// Slow-path trace ring.
    pub events: EventRing,
    /// Per-op latency, split by operation and serving path and indexed
    /// by [`Lat`] (the last two: maintenance-pass and trim-pass
    /// durations). Instance-global, not sharded: recording is two relaxed
    /// `fetch_add`s on lines that the slow paths already own.
    pub lat: [LatencyHist; LATENCY_PATHS.len()],
    /// Fragmentation time series, fed by the maintenance pass.
    pub frag_series: FragSeries,
    /// Scrape-endpoint control plane (see [`crate::metrics`]).
    pub(crate) metrics: crate::fork::Worker<std::net::SocketAddr>,
}

impl InstanceStats {
    /// Allocates the shard array; `None` when the system allocator is
    /// exhausted.
    pub(crate) fn new(nshards: usize) -> Option<Self> {
        let mut shards = SysArray::new(nshards).ok()?;
        for _ in 0..nshards {
            shards.push(ClassShard::default());
        }
        Some(InstanceStats {
            shards,
            globals: core::array::from_fn(|_| Counter::new()),
            events: EventRing::new(EVENT_RING_CAP),
            lat: core::array::from_fn(|_| LatencyHist::new()),
            frag_series: FragSeries::new(FRAG_SERIES_CAP),
            metrics: crate::fork::Worker::new(),
        })
    }

    /// Shard at flat index `idx` (`ci * nheaps + h`).
    #[inline]
    pub(crate) fn shard(&self, idx: usize) -> &ClassShard {
        debug_assert!(idx < self.shards.len);
        unsafe { &*self.shards.ptr.add(idx) }
    }

    /// Records a timestamped slow-path event.
    #[inline]
    pub(crate) fn record_event(&self, kind: EventKind, class: u16, arg: u64) {
        self.events.record(Event { nanos: monotonic_nanos(), kind, class, arg });
    }
}

impl<S: PageSource> Inner<S> {
    /// The stats shard of `heap` (same flat index as the heap table).
    #[inline]
    pub(crate) fn shard(&self, heap: &ProcHeap) -> &ClassShard {
        let idx = (heap as *const ProcHeap as usize - self.heaps as usize)
            / core::mem::size_of::<ProcHeap>();
        self.obs.stats.shard(idx)
    }

    /// Class `ci`'s counters summed over its heaps (allocation-free).
    pub(crate) fn class_stats(&self, ci: usize) -> ClassStats {
        let mut c = ClassStats { class: ci, block_size: CLASS_SIZES[ci], ..Default::default() };
        for h in 0..self.nheaps {
            let shard = self.obs.stats.shard(ci * self.nheaps + h);
            c.add_each(|i| shard.counts[i].get());
            c.add_retries(&shard.active_cas.snapshot(), &shard.anchor_cas.snapshot());
        }
        c
    }
}

macro_rules! class_stats {
    ($($field:ident $variant:ident $family:literal $label:literal $help:literal;)*) => {
        /// Aggregated counters of one size class (all heaps summed), or of the
        /// whole instance in [`StatsSnapshot::totals`].
        #[derive(Clone, Debug, Default, PartialEq, Eq)]
        pub struct ClassStats {
            /// Size-class index.
            pub class: usize,
            /// Block size of the class (0 in `totals`).
            pub block_size: u32,
            $(#[doc = $help] pub $field: u64,)*
            /// Active-word reservation CAS retries per malloc, bucketed
            /// 0 / 1 / 2–3 / ... / 64+ (see [`bucket_label`]).
            pub active_cas: [u64; RETRY_BUCKETS],
            /// Anchor CAS retries per operation, same buckets.
            pub anchor_cas: [u64; RETRY_BUCKETS],
        }

        /// The per-class counters, in [`ClassStats`] field order: what
        /// every renderer (and `lfstat`) loops over.
        pub const CLASS_COUNTERS: &[CounterInfo<ClassStats>] = &[$(CounterInfo {
            name: stringify!($field),
            key: concat!("totals.", stringify!($field)),
            kind: "counter",
            family: $family,
            label: $label,
            help: $help,
            get: |c| c.$field,
        }),*];

        impl ClassStats {
            /// Adds `n(i)` to the counter of row `i`, for every row.
            fn add_each(&mut self, n: impl Fn(usize) -> u64) {
                for (i, field) in [$(&mut self.$field),*].into_iter().enumerate() {
                    *field += n(i);
                }
            }
        }
    };
}
crate::schema::class_counters!(class_stats);

type RetryBuckets = [u64; RETRY_BUCKETS];

/// The two CAS-retry histograms of a [`ClassStats`]: field name (and JSON
/// key), OpenMetrics family, help line, accessor.
pub(crate) const RETRY_HISTOGRAMS: [(&str, &str, &str, fn(&ClassStats) -> &RetryBuckets); 2] = [
    (
        "active_cas",
        "lfmalloc_active_cas_retries",
        "Retries of the Active-word reservation CAS, per malloc that reserved.",
        |c| &c.active_cas,
    ),
    (
        "anchor_cas",
        "lfmalloc_anchor_cas_retries",
        "Retries of an Anchor CAS (pop, reserve, credit return, free link), per CAS loop.",
        |c| &c.anchor_cas,
    ),
];

impl ClassStats {
    /// All small mallocs of the class: each was served by exactly one of
    /// the magazine, the active superblock, a partial one or a new one.
    pub fn mallocs(&self) -> u64 {
        self.malloc_cached + self.malloc_fast + self.malloc_slow + self.malloc_newsb
    }

    /// All small frees of the class.
    pub fn frees(&self) -> u64 {
        self.free_cached + self.free_outbox + self.free_local + self.free_remote
    }

    /// Frees by a thread mapped to another heap than the block's,
    /// whether parked in its outbox first or pushed at once.
    pub fn remote_frees(&self) -> u64 {
        self.free_outbox + self.free_remote
    }

    fn add_retries(&mut self, active: &RetryBuckets, anchor: &RetryBuckets) {
        for i in 0..RETRY_BUCKETS {
            self.active_cas[i] += active[i];
            self.anchor_cas[i] += anchor[i];
        }
    }

    fn add(&mut self, other: &ClassStats) {
        self.add_each(|i| (CLASS_COUNTERS[i].get)(other));
        self.add_retries(&other.active_cas, &other.anchor_cas);
    }

    fn to_json(&self) -> String {
        let mut out = format!("{{\"class\":{},\"size\":{}", self.class, self.block_size);
        for c in CLASS_COUNTERS {
            out.push_str(&format!(",\"{}\":{}", c.name, (c.get)(self)));
        }
        for (name, _, _, get) in &RETRY_HISTOGRAMS {
            out.push_str(&format!(",\"{}\":{}", name, json_array(get(self))));
        }
        out + "}"
    }
}

fn json_array(v: &[u64]) -> String {
    let items: Vec<String> = v.iter().map(|x| x.to_string()).collect();
    format!("[{}]", items.join(","))
}

macro_rules! latency_stats {
    ($($field:ident $variant:ident $family:literal $label:literal $help:literal;)*) => {
        /// Per-op latency distributions of the snapshot, one
        /// [`LatencySnapshot`] per (operation, serving path) pair.
        ///
        /// **What is timed is the lock-free core, not the call.** A magazine
        /// hit — the common malloc and the common free since DESIGN.md §15 —
        /// reads no clock and appears in none of these: the small-block rows
        /// time the trips *past* the magazine (a refill's k-block pop, a
        /// miss's ladder, a flush's chain push), which is why their counts
        /// are far below `mallocs()`/`frees()`. A clock read costs more than
        /// a hit.
        #[derive(Clone, Debug, Default)]
        pub struct LatencyStats {
            $(#[doc = $help] pub $field: LatencySnapshot,)*
        }

        /// The latency paths, in [`LatencyStats`] field order: what every
        /// renderer (and `lfstat`) loops over.
        pub const LATENCY_PATHS: &[CounterInfo<LatencyStats, LatencySnapshot>] = &[$(CounterInfo {
            name: stringify!($field),
            key: concat!("latency.", stringify!($field)),
            kind: "histogram",
            family: $family,
            label: $label,
            help: $help,
            get: |l| l.$field,
        }),*];

        impl LatencyStats {
            /// Snapshots an instance's histograms, indexed by [`Lat`].
            fn read(hists: &[LatencyHist]) -> Self {
                LatencyStats { $($field: hists[Lat::$variant as usize].snapshot()),* }
            }
        }
    };
}
crate::schema::latency_paths!(latency_stats);

impl LatencyStats {
    /// Every *timed* malloc path combined: refills, misses and large
    /// blocks. Magazine hits are not in it (see the type's docs).
    pub fn malloc_all(&self) -> LatencySnapshot {
        let mut m = self.malloc_fast;
        m.merge(&self.malloc_slow);
        m.merge(&self.malloc_large);
        m
    }

    /// Every *timed* free path combined: anchor pushes and large frees,
    /// not the frees a magazine or an outbox absorbed.
    pub fn free_all(&self) -> LatencySnapshot {
        let mut m = self.free_fast;
        m.merge(&self.free_slow);
        m.merge(&self.free_large);
        m
    }

    fn to_json(&self) -> String {
        let parts: Vec<String> = LATENCY_PATHS
            .iter()
            .map(|p| {
                let s = (p.get)(self);
                format!(
                    "\"{}\":{{\"count\":{},\"sum_nanos\":{},\"p50\":{},\"p90\":{},\
                     \"p99\":{},\"p999\":{},\"buckets\":{}}}",
                    p.name,
                    s.count(),
                    s.sum_nanos,
                    s.percentile(0.50),
                    s.percentile(0.90),
                    s.percentile(0.99),
                    s.percentile(0.999),
                    json_array(&s.buckets)
                )
            })
            .collect();
        format!("{{{}}}", parts.join(","))
    }
}

/// Committed-vs-live accounting of one size class — the external-
/// fragmentation estimator.
///
/// `committed_bytes` counts superblocks the class has acquired and not
/// yet retired (`malloc_newsb − free_empty`, × 16 KiB); `live_bytes`
/// counts outstanding blocks (`mallocs − frees`, × block size). Both
/// are derived from monotone counters, so a snapshot racing in-flight
/// operations can be off by the in-flight handful (clamped at zero).
/// Superblocks cached idle in an Active slot count as committed — that
/// is precisely the retention the metric is meant to expose.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FragClass {
    /// Size-class index.
    pub class: usize,
    /// Block size.
    pub block_size: u32,
    /// Estimated bytes in the class's live superblocks.
    pub committed_bytes: u64,
    /// Estimated bytes in the class's outstanding blocks.
    pub live_bytes: u64,
}

impl FragClass {
    /// External fragmentation in permille: `1000 * (1 − live/committed)`
    /// (0 when nothing is committed).
    pub fn frag_permille(&self) -> u32 {
        frag_permille(self.live_bytes, self.committed_bytes)
    }
}

/// `(committed, live)` bytes of a class, as [`FragClass`] defines them.
fn frag_bytes(c: &ClassStats) -> (u64, u64) {
    let committed = c.malloc_newsb.saturating_sub(c.free_empty) * SB_SIZE as u64;
    let live = c.mallocs().saturating_sub(c.frees()) * c.block_size as u64;
    // Clamp to committed: racing counters (or blocks freed into a
    // just-retired superblock) can momentarily overshoot.
    (committed, live.min(committed))
}

fn frag_permille(live: u64, committed: u64) -> u32 {
    if committed == 0 {
        0
    } else {
        1000u64.saturating_sub(live.saturating_mul(1000) / committed).min(1000) as u32
    }
}

/// Fragmentation observability of the snapshot: per-class external
/// fragmentation plus instance totals and the drained time series.
#[derive(Clone, Debug, Default)]
pub struct FragmentationStats {
    /// Classes with committed superblocks (others carry no signal).
    pub classes: Vec<FragClass>,
    /// Sum of `committed_bytes` over all classes.
    pub small_committed_bytes: u64,
    /// Sum of `live_bytes` over all classes.
    pub small_live_bytes: u64,
    /// OS bytes backing live large blocks (large blocks are exactly
    /// sized, so their only waste is page rounding — tracked by the
    /// sampled internal-fragmentation estimate under `profile`).
    pub large_live_bytes: u64,
}

impl FragmentationStats {
    fn compute(classes: &[ClassStats], large_live_bytes: u64) -> Self {
        let mut out = FragmentationStats { large_live_bytes, ..Default::default() };
        for c in classes {
            let (committed, live) = frag_bytes(c);
            if committed == 0 {
                continue;
            }
            out.small_committed_bytes += committed;
            out.small_live_bytes += live;
            out.classes.push(FragClass {
                class: c.class,
                block_size: c.block_size,
                committed_bytes: committed,
                live_bytes: live,
            });
        }
        out
    }

    /// Instance-wide external fragmentation of the small heap, permille.
    pub fn external_frag_permille(&self) -> u32 {
        frag_permille(self.small_live_bytes, self.small_committed_bytes)
    }

    fn to_json(&self) -> String {
        let classes: Vec<String> = self
            .classes
            .iter()
            .map(|c| {
                format!(
                    "{{\"class\":{},\"size\":{},\"committed_bytes\":{},\
                     \"live_bytes\":{},\"frag_permille\":{}}}",
                    c.class, c.block_size, c.committed_bytes, c.live_bytes, c.frag_permille()
                )
            })
            .collect();
        format!(
            "{{\"small_committed_bytes\":{},\"small_live_bytes\":{},\
             \"large_live_bytes\":{},\"external_frag_permille\":{},\"classes\":[{}]}}",
            self.small_committed_bytes,
            self.small_live_bytes,
            self.large_live_bytes,
            self.external_frag_permille(),
            classes.join(",")
        )
    }
}

/// Records one fragmentation time-series point (called at the end of
/// every maintenance pass). Allocation-free: sums the shard counters
/// into scalars and pushes into the bounded ring.
pub(crate) fn record_frag_sample<S: PageSource>(inner: &Inner<S>) {
    let (mut committed, mut live) = (0u64, 0u64);
    for ci in 0..NUM_CLASSES {
        let (c, l) = frag_bytes(&inner.class_stats(ci));
        committed += c;
        live += l;
    }
    let large = inner.large_live().1 as u64;
    inner.obs.stats.frag_series.record(FragSample {
        nanos: monotonic_nanos(),
        small_committed_bytes: committed,
        small_live_bytes: live,
        large_live_bytes: large,
        os_live_bytes: inner.source.stats().live_bytes as u64,
        external_frag_permille: frag_permille(live, committed),
    });
}

macro_rules! stats_snapshot {
    ($($field:ident $($variant:ident)? $key:literal $family:literal $label:literal $help:literal;)*) => {
        /// A consistent-enough aggregate of every counter in the instance.
        ///
        /// Each counter is read once with `Relaxed` ordering; counters
        /// advanced by in-flight operations may differ by the handful
        /// currently executing, but every counter is monotone between
        /// snapshots.
        #[derive(Clone, Debug)]
        pub struct StatsSnapshot {
            /// Per-size-class aggregates (length [`NUM_CLASSES`]).
            pub classes: Vec<ClassStats>,
            /// Sum over all classes (`class`/`block_size` zero).
            pub totals: ClassStats,
            $(#[doc = $help] pub $field: u64,)*
            /// Process-wide tagged-stack CAS retries from `lockfree-structs`
            /// (shared by *all* instances in the process — the embedded
            /// structures keep their layout by counting into statics).
            pub structs_cas: StructsCasStats,
            /// OS-level accounting: `os.os_allocs`/`os.os_frees` are the
            /// mmap/munmap call counts; live/peak bytes as in [`AllocStats`].
            pub os: AllocStats,
            /// Superblock hyperblocks carved from the OS (lifetime count).
            pub sb_carves: u64,
            /// Descriptor slabs carved from the OS (lifetime count).
            pub desc_carves: u64,
            /// The audit's byte reconciliation, computed from the same source
            /// of truth (`Inner::reconcile_bytes`) rather than re-derived.
            pub reconciliation: crate::audit::ByteReconciliation,
            /// Liveness + maintenance health (same data as
            /// [`LfMalloc::health`](crate::LfMalloc::health), taken in the same
            /// snapshot).
            pub health: crate::health::HealthSnapshot,
            /// Per-op latency distributions (see [`LatencyStats`]).
            pub latency: LatencyStats,
            /// External-fragmentation accounting (see [`FragmentationStats`]).
            pub fragmentation: FragmentationStats,
            /// Sampled allocation-site profile, taken in the same snapshot
            /// (only under the `profile` feature, which implies `stats`).
            #[cfg(feature = "profile")]
            pub profile: crate::profile::ProfileSnapshot,
        }

        /// The instance-wide rows of a [`StatsSnapshot`], in JSON order:
        /// what every renderer (and `lfstat`) loops over.
        pub const INSTANCE_COUNTERS: &[CounterInfo<StatsSnapshot>] = &[$(CounterInfo {
            name: stringify!($field),
            key: $key,
            // A row that names no `Global` is a gauge.
            kind: if stringify!($($variant)?).is_empty() { "gauge" } else { "counter" },
            family: $family,
            label: $label,
            help: $help,
            get: |s| s.$field,
        }),*];

        impl<S: PageSource> LfMalloc<S> {
            /// A consistent aggregate of every telemetry counter; see
            /// [`StatsSnapshot`] for the racing-increment tolerance. Does not
            /// drain the event ring (use [`take_events`](Self::take_events)).
            pub fn stats(&self) -> StatsSnapshot {
                let inner = self.inner();
                let classes: Vec<ClassStats> =
                    (0..NUM_CLASSES).map(|ci| inner.class_stats(ci)).collect();
                let mut totals = ClassStats::default();
                for c in &classes {
                    totals.add(c);
                }
                let st = &inner.obs.stats;
                let (large_live, large_live_bytes) = inner.large_live();
                let fragmentation = FragmentationStats::compute(&classes, large_live_bytes as u64);
                let mut s = StatsSnapshot {
                    $($field: 0,)*
                    classes,
                    totals,
                    structs_cas: lockfree_structs::stats::snapshot(),
                    os: inner.source.stats(),
                    sb_carves: inner.sb_pool.carve_count(),
                    desc_carves: inner.desc_pool.slabs.carve_count(),
                    reconciliation: inner.reconcile_bytes(),
                    health: self.health(),
                    latency: LatencyStats::read(&st.lat),
                    fragmentation,
                    #[cfg(feature = "profile")]
                    profile: self.profile(),
                };
                // The counter rows, then the two gauges.
                $($(s.$field = st.globals[Global::$variant as usize].get();)?)*
                s.large_live = large_live as u64;
                s.events_dropped = st.events.dropped();
                s
            }
        }
    };
}
crate::schema::instance_counters!(stats_snapshot);

impl StatsSnapshot {
    /// Size classes with any malloc/free activity, hottest (most
    /// mallocs) first.
    pub fn hottest_classes(&self) -> Vec<&ClassStats> {
        let mut active: Vec<&ClassStats> =
            self.classes.iter().filter(|c| c.mallocs() + c.frees() > 0).collect();
        active.sort_by(|a, b| b.mallocs().cmp(&a.mallocs()));
        active
    }

    /// Machine-readable snapshot: one line of JSON (hand-rolled — the
    /// allocator stack takes no serialization dependency).
    pub fn to_json(&self) -> String {
        let classes: Vec<String> = self
            .classes
            .iter()
            .filter(|c| c.mallocs() + c.frees() + c.partial_push + c.partial_pop > 0)
            .map(ClassStats::to_json)
            .collect();
        let mut rows = String::new();
        json_members(&mut rows, INSTANCE_COUNTERS.iter().map(|c| (c.key, (c.get)(self))));
        let mut reconcile = String::new();
        let r = &self.reconciliation;
        json_members(&mut reconcile, r.terms().map(|(key, _, v)| (key, v)));
        #[cfg(feature = "profile")]
        let profile = format!(",\"profile\":{}", self.profile.to_json());
        #[cfg(not(feature = "profile"))]
        let profile = "";
        format!(
            "{{\"allocator\":\"lfmalloc\",\"totals\":{},\"classes\":[{}],{},\
             \"structs_cas\":{{\"stack_push\":{},\"stack_pop\":{}}},\
             \"os\":{{\"live_bytes\":{},\"peak_bytes\":{},\"mmap_calls\":{},\
             \"munmap_calls\":{}}},\
             \"carves\":{{\"superblock\":{},\"descriptor\":{}}},\
             \"reconcile\":{{{reconcile},\"ok\":{}}},\
             \"health\":{},\"latency\":{},\"fragmentation\":{}{}}}",
            self.totals.to_json(),
            classes.join(","),
            rows,
            self.structs_cas.stack_push_retries,
            self.structs_cas.stack_pop_retries,
            self.os.live_bytes,
            self.os.peak_bytes,
            self.os.os_allocs,
            self.os.os_frees,
            self.sb_carves,
            self.desc_carves,
            r.reconciles(),
            self.health.to_json(),
            self.latency.to_json(),
            self.fragmentation.to_json(),
            profile,
        )
    }
}

/// One line per family of a schema table (its rows are adjacent): the
/// family's name, then each row's `name=value`.
fn write_families<T>(w: &mut impl Write, rows: &[CounterInfo<T>], v: &T) -> std::io::Result<()> {
    for (i, c) in rows.iter().enumerate() {
        if i == 0 || rows[i - 1].family != c.family {
            let line = if i == 0 { "" } else { "\n" };
            write!(w, "{line}  {:<22}", format!("{}:", c.family.trim_start_matches("lfmalloc_")))?;
        }
        write!(w, " {}={}", c.name, (c.get)(v))?;
    }
    writeln!(w)
}

impl<S: PageSource> LfMalloc<S> {
    /// The slow-path events recorded since the previous call, oldest
    /// first (see [`StampedRing::take`]).
    pub fn take_events(&self) -> Vec<Event> {
        self.inner().obs.stats.events.take()
    }

    /// The fragmentation time series since the previous call, oldest
    /// first (one point per maintenance pass; see [`FragSample`]).
    pub fn take_frag_series(&self) -> Vec<FragSample> {
        self.inner().obs.stats.frag_series.take()
    }

    /// Writes a `malloc_stats_print`-style human-readable report of
    /// [`stats`](Self::stats), draining the event ring into a trailing
    /// trace section.
    pub fn dump_stats(&self, w: &mut impl Write) -> std::io::Result<()> {
        let s = self.stats();
        let t = &s.totals;
        writeln!(w, "___ Begin lfmalloc statistics ___")?;
        writeln!(w, "{} mallocs, {} frees, all classes; by family:", t.mallocs(), t.frees())?;
        write_families(w, CLASS_COUNTERS, t)?;
        write_families(w, INSTANCE_COUNTERS, &s)?;
        writeln!(
            w,
            "latency of the trips past the magazine — refills, misses, flushes, large blocks; \
             a hit is never timed (ns, power-of-two bucket upper bounds):"
        )?;
        writeln!(
            w,
            "  {:<13} {:>10} {:>8} {:>8} {:>8} {:>8} {:>8}",
            "path", "count", "p50", "p90", "p99", "p99.9", "mean"
        )?;
        for p in LATENCY_PATHS {
            let l = (p.get)(&s.latency);
            if l.count() == 0 {
                continue;
            }
            writeln!(
                w,
                "  {:<13} {:>10} {:>8} {:>8} {:>8} {:>8} {:>8}",
                p.name,
                l.count(),
                l.percentile(0.50),
                l.percentile(0.90),
                l.percentile(0.99),
                l.percentile(0.999),
                l.mean_nanos()
            )?;
        }
        let f = &s.fragmentation;
        writeln!(
            w,
            "fragmentation: external {}‰ ({} live / {} committed small bytes, {} large)",
            f.external_frag_permille(),
            f.small_live_bytes,
            f.small_committed_bytes,
            f.large_live_bytes
        )?;
        for c in &f.classes {
            writeln!(
                w,
                "  class {:>3} ({:>7} B): {:>12} live / {:>12} committed  {:>4}‰",
                c.class,
                c.block_size,
                c.live_bytes,
                c.committed_bytes,
                c.frag_permille()
            )?;
        }
        #[cfg(feature = "profile")]
        {
            let p = &s.profile;
            writeln!(
                w,
                "profile: {} live samples (~{} bytes), {} taken / {} freed / {} dropped, \
                 internal frag {}‰ (stride {} B)",
                p.live.len(),
                p.live_bytes_estimate(),
                p.samples_taken,
                p.sampled_frees,
                p.samples_dropped,
                p.internal_frag_permille(),
                p.stride_bytes
            )?;
            for r in s.profile.sites().iter().take(10) {
                writeln!(
                    w,
                    "  {:>12} bytes ({:>4} samples, {} threads, class {}, oldest {} ms) {}",
                    r.live_bytes,
                    r.live_samples,
                    r.threads,
                    crate::profile::class_label(r.top_class),
                    r.oldest_age_nanos / 1_000_000,
                    r.site
                )?;
            }
        }
        writeln!(w, "cas retries per operation:")?;
        for (name, _, _, get) in &RETRY_HISTOGRAMS {
            write_histogram(w, name, get(t))?;
        }
        writeln!(
            w,
            "structs: stack cas retries {}/{} (push/pop) [process-wide]",
            s.structs_cas.stack_push_retries,
            s.structs_cas.stack_pop_retries
        )?;
        let mut os = String::new();
        s.reconciliation.write_sum(&mut os);
        writeln!(
            w,
            "os: {os} (peak {}, mmap {}, munmap {}, carves {} sb / {} desc)",
            s.os.peak_bytes, s.os.os_allocs, s.os.os_frees, s.sb_carves, s.desc_carves
        )?;
        let h = &s.health;
        let verdict = if h.is_degraded() { "DEGRADED" } else { "ok" };
        writeln!(w, "health: {verdict} (policy {})", h.policy.label())?;
        for r in HEALTH_ROWS {
            let v = (r.get)(h).map_or("none".into(), |v| v.to_string());
            writeln!(w, "  {:<22} {v:>12}  {}", r.name, r.help)?;
        }
        writeln!(
            w,
            "  descriptors: {} on partial lists, {} in use; {} B of EMPTY superblocks retained",
            h.partial_listed.iter().sum::<usize>(),
            h.descriptors_in_use(),
            h.retained_empty_bytes()
        )?;
        let misuse = self.misuse_counters();
        let misuse = crate::harden::MisuseKind::ALL.map(|k| format!("{}={}", k.key(), misuse.count(k)));
        writeln!(w, "misuse: {}", misuse.join(" "))?;
        writeln!(w, "counters, all classes (a class's row below prints its nonzero ones):")?;
        for c in CLASS_COUNTERS {
            writeln!(w, "  {:<13} {:>12}  {}", c.name, (c.get)(t), c.help)?;
        }
        writeln!(w, "per size class (active classes only):")?;
        for c in s.classes.iter().filter(|c| c.mallocs() + c.frees() > 0) {
            let (ci, sz, mallocs, frees) = (c.class, c.block_size, c.mallocs(), c.frees());
            write!(w, "  class {ci:>2} ({sz:>4} B): {mallocs} mallocs, {frees} frees:")?;
            for d in CLASS_COUNTERS.iter().filter(|d| (d.get)(c) > 0) {
                write!(w, " {}={}", d.name, (d.get)(c))?;
            }
            writeln!(w)?;
        }
        let events = self.take_events();
        writeln!(w, "events: {} recorded, {} dropped", events.len(), s.events_dropped)?;
        for ev in &events {
            writeln!(
                w,
                "  [{:>12} ns] {:<15} class {:>2}  arg {:#x}",
                ev.nanos,
                ev.kind.label(),
                ev.class,
                ev.arg
            )?;
        }
        writeln!(w, "___ End lfmalloc statistics ___")?;
        Ok(())
    }
}

fn write_histogram(
    w: &mut impl Write,
    name: &str,
    buckets: &[u64; RETRY_BUCKETS],
) -> std::io::Result<()> {
    write!(w, "  {name}:")?;
    for (i, count) in buckets.iter().enumerate() {
        write!(w, "  {}:{}", bucket_label(i, RETRY_BUCKETS), count)?;
    }
    writeln!(w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use malloc_api::RawMalloc;

    #[test]
    fn event_ring_overwrites_oldest() {
        let ring = EventRing::new(4);
        for i in 0..10 {
            ring.record(Event { nanos: i, kind: EventKind::SbAcquire, class: 0, arg: i });
        }
        let got: Vec<u64> = ring.take().iter().map(|ev| ev.arg).collect();
        assert_eq!(got.len(), 4, "ring keeps its capacity");
        assert_eq!(got, vec![6, 7, 8, 9], "oldest events were evicted");
    }

    /// A writer stopped between claiming its position and publishing it
    /// holds up nobody: `take` skips its entry, counts it dropped, returns
    /// the others in order, and no later `take` returns it.
    #[test]
    fn take_skips_an_entry_mid_write_once() {
        let ring = StampedRing::<[u64; 2], 2>::new(8);
        ring.record([0, 10]);
        ring.record([1, 11]);
        // What `record` leaves when its writer stops after the invalidate.
        let stalled = ring.head.fetch_add(1, Ordering::Relaxed);
        ring.slot(stalled).stamp.store(0, Ordering::Relaxed);
        ring.record([3, 13]);
        assert_eq!(ring.take(), vec![[0, 10], [1, 11], [3, 13]]);
        assert_eq!(ring.dropped(), 1);
        assert_eq!(ring.published().count(), 3, "the flight recorder's reader skips it too");
        // The writer finishes; its entry was already given up for.
        ring.slot(stalled).words[0].store(2, Ordering::Relaxed);
        ring.slot(stalled).words[1].store(12, Ordering::Relaxed);
        ring.slot(stalled).stamp.store(stalled + 1, Ordering::Release);
        ring.record([4, 14]);
        assert_eq!(ring.take(), vec![[4, 14]]);
        assert_eq!((ring.take(), ring.dropped()), (vec![], 1));
    }

    #[test]
    fn snapshot_counts_a_simple_session() {
        let a = LfMalloc::with_config(Config::with_heaps(1));
        unsafe {
            let p = a.malloc(100);
            let q = a.malloc(100);
            a.free(p);
            a.free(q);
        }
        let s = a.stats();
        assert_eq!(s.totals.mallocs(), 2);
        assert_eq!(s.totals.frees(), 2);
        assert_eq!(s.totals.malloc_newsb, 1, "first malloc carves a superblock");
        assert_eq!(s.totals.mag_refill, 1, "the second finds it active and refills from it");
        assert_eq!(s.totals.free_cached, 2, "single heap: every free is local, and cached");
        assert_eq!(s.totals.free_local + s.totals.free_remote, 0);
        assert!(s.sb_carves >= 1);
        assert!(s.reconciliation.reconciles(), "snapshot embeds the audit reconciliation");
        // The one-shot session saw no contention: all CAS histograms in
        // bucket zero.
        assert_eq!(s.totals.active_cas[0], s.totals.active_cas.iter().sum::<u64>());
        let events = a.take_events();
        assert!(
            events.iter().any(|e| e.kind == EventKind::SbAcquire),
            "superblock acquisition was traced: {events:?}"
        );
    }

    /// The schema is what the renderers loop over: every row of the
    /// four tables, and both retry histograms, in the JSON, the text dump
    /// and the OpenMetrics exposition — a row added to a table is in all
    /// three with no other edit.
    #[test]
    fn every_counter_is_in_every_renderer() {
        let a = LfMalloc::with_config(Config::with_heaps(2));
        unsafe { a.free(a.malloc(64)) };
        // Every latency path the dump can print, but the two the magazine
        // keeps a lone thread off: a large pair, a maintenance pass, a trim.
        unsafe { a.free(a.malloc(100_000)) };
        a.maintain(crate::maintain::MaintenanceBudget::light());
        unsafe { a.trim() };
        let json = a.stats().to_json();
        let record = malloc_api::json::parse(&json).expect("the JSON parses");
        let mut dump = Vec::new();
        a.dump_stats(&mut dump).unwrap();
        let dump = String::from_utf8(dump).unwrap();
        let om = a.render_openmetrics();
        crate::metrics::check_openmetrics(&om).expect("exposition well-formed");
        assert_eq!(CLASS_COUNTERS.len(), 17);
        for c in CLASS_COUNTERS {
            let sample = match c.label {
                "" => format!("{}_total ", c.family),
                label => format!("{}_total{{{label}}} ", c.family),
            };
            assert!(json.contains(&format!("\"{}\":", c.name)), "{} not in the JSON", c.name);
            assert!(dump.contains(&format!("  {} ", c.name)), "{} not in the dump", c.name);
            assert!(om.contains(&sample), "{sample}not in the exposition");
        }
        for (name, family, ..) in &RETRY_HISTOGRAMS {
            assert!(json.contains(&format!("\"{name}\":[")), "{name} not in the JSON");
            assert!(dump.contains(&format!("  {name}:")), "{name} not in the dump");
            let last = format!("{family}_bucket{{le=\"+Inf\"}} ");
            assert!(om.contains(&last), "{family} not in the exposition");
        }
        let braced = |label: &str| match label {
            "" => String::new(),
            label => format!("{{{label}}}"),
        };
        assert_eq!(INSTANCE_COUNTERS.len(), 9);
        for c in INSTANCE_COUNTERS {
            let suffix = if c.kind == "counter" { "_total" } else { "" };
            let sample = format!("{}{suffix}{} ", c.family, braced(c.label));
            assert!(record.get(c.key).is_some(), "{} not in the JSON", c.key);
            assert!(om.contains(&sample), "{sample}not in the exposition");
        }
        // 28 rows; OpenMetrics adds two places to the last row's family.
        assert_eq!((HEALTH_ROWS.len(), HEALTH_ROWS[27].family), (28, "lfmalloc_descriptors"));
        let h = a.health();
        for r in HEALTH_ROWS {
            let suffix = if r.kind == "counter" { "_total" } else { "" };
            let sample = format!("\n{}{suffix}{} ", r.family, braced(r.label));
            assert!(record.get(r.key).is_some(), "{} not in the JSON", r.key);
            assert!(dump.contains(&format!("\n  {} ", r.name)), "{} not in the dump", r.name);
            // An instance that never audited or trimmed has no reading of
            // those two rows (see the next test).
            let read = (r.get)(&h).is_some();
            assert_eq!(om.contains(&sample), read, "{sample}in the exposition: {read}");
        }
        // The dump's latency table: the lines between its header and the
        // fragmentation line. It prints the paths that were timed.
        let table: Vec<&str> = dump
            .lines()
            .skip_while(|l| !l.starts_with("latency of the trips"))
            .take_while(|l| !l.starts_with("fragmentation:"))
            .collect();
        let s = a.stats();
        assert_eq!(LATENCY_PATHS.len(), 8);
        for p in LATENCY_PATHS {
            let count = format!("{}.count", p.key);
            let sample = format!("{}_count{} ", p.family, braced(p.label));
            assert!(record.get(&count).is_some(), "{count} not in the JSON");
            assert!(om.contains(&sample), "{sample}not in the exposition");
            let timed = (p.get)(&s.latency).count() > 0;
            let row = format!("  {} ", p.name);
            assert_eq!(timed, table.iter().any(|l| l.starts_with(&row)), "{} in the dump", p.name);
        }
        for driven in
            [&s.latency.malloc_large, &s.latency.free_large, &s.latency.maintain, &s.latency.trim]
        {
            assert!(driven.count() > 0, "a driven path went untimed: {:?}", s.latency);
        }
        assert!(s.latency.malloc_fast.count() + s.latency.malloc_slow.count() > 0);
    }

    #[test]
    fn dump_and_json_render() {
        let a = LfMalloc::with_config(Config::with_heaps(2));
        unsafe {
            let p = a.malloc(64);
            let big = a.malloc(100_000);
            a.free(p);
            a.free(big);
        }
        let mut out = Vec::new();
        a.dump_stats(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Begin lfmalloc statistics"));
        assert!(text.contains("mallocs:"));
        assert!(text.contains("descriptor-slab"));
        let json = a.stats().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains(
            "\"large\":{\"alloc\":1,\"free\":1,\"live\":0,\"cache_hit\":0,\
             \"cache_miss\":1,\"cache_bypass\":0}"
        ));
        assert!(text.contains("+ 102400 cached large"), "{text}");
        assert!(json.contains("\"ok\":true"));
    }
}
