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
//! * **Zero cost when off.** Every increment goes through the
//!   `stat!`/`stat_hist!`/`stat_global!`/`stat_event!` macros in
//!   `lib.rs`, which compile to nothing without the feature — the same
//!   pattern as `fail_point!`.
//!
//! The event ring reuses the Vyukov [`BoundedQueue`]: fixed capacity,
//! pre-allocated, never blocking. When full it overwrites the oldest
//! event (pop once, retry) and counts what it had to drop.

use crate::config::SB_SIZE;
use crate::heap::ProcHeap;
use crate::instance::{Inner, LfMalloc};
use crate::size_classes::{CLASS_SIZES, NUM_CLASSES};
use lockfree_structs::stats::StructsCasStats;
use lockfree_structs::BoundedQueue;
use malloc_api::telemetry::{
    bucket_label, monotonic_nanos, Counter, Histogram, LatencyHist, LatencySnapshot,
    RETRY_BUCKETS,
};
use malloc_api::AllocStats;
use osmem::PageSource;
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;

/// Capacity of the slow-path event ring (power of two; see
/// [`BoundedQueue::new`]).
pub const EVENT_RING_CAP: usize = 1024;

/// Capacity of the fragmentation time-series ring: one
/// [`FragSample`] per maintenance pass, oldest evicted first. At the
/// default 250 ms reaper period this holds the last ~64 s of history.
pub const FRAG_SERIES_CAP: usize = 256;

/// Live counters of one `(size class, heap)` pair. Padded to its own
/// cache lines so neighbouring shards never false-share — the same
/// guarantee `ProcHeap` itself makes.
#[repr(align(64))]
#[derive(Debug, Default)]
pub(crate) struct ClassShard {
    /// Mallocs served from the calling thread's magazine (no CAS).
    pub malloc_cached: Counter,
    /// Mallocs served by `MallocFromActive` (the two-CAS fast path),
    /// magazine refills included: a refill hands its first block out.
    pub malloc_fast: Counter,
    /// Mallocs served by `MallocFromPartial`.
    pub malloc_slow: Counter,
    /// Mallocs served by `MallocFromNewSB`.
    pub malloc_newsb: Counter,
    /// Frees absorbed by the calling thread's magazine (no CAS; always
    /// local). When such a block later goes home in a flush it is not
    /// counted again.
    pub free_cached: Counter,
    /// Remote frees parked in the freeing thread's outbox (no CAS), in
    /// the owning heap's shard. When such a block later goes home in an
    /// outbox flush it is not counted again.
    pub free_outbox: Counter,
    /// Frees by the thread mapped to the owning heap.
    pub free_local: Counter,
    /// Frees by a thread mapped to a different heap that took the
    /// paper's one-CAS push (remote frees that could not be parked).
    pub free_remote: Counter,
    /// Frees issued during TLS teardown (thread identity gone); also
    /// counted under `free_remote` — see `heap::try_thread_id`.
    pub free_teardown: Counter,
    /// Frees that emptied their superblock (EMPTY transition).
    pub free_empty: Counter,
    /// `HeapPutPartial` executions (superblock parked partial).
    pub partial_push: Counter,
    /// `HeapGetPartial` successes (slot or class list).
    pub partial_pop: Counter,
    /// Blocks actually served out of a partial superblock.
    pub partial_reuse: Counter,
    /// EMPTY superblocks reopened where they were parked, by the malloc
    /// that took their descriptor out of a heap slot or off a partial
    /// list (a subset of `malloc_newsb`).
    pub sb_reopen: Counter,
    /// Magazine refills: k-block pops from the active superblock.
    pub mag_refill: Counter,
    /// Magazine overflows: half a magazine returned to its superblocks.
    pub mag_flush: Counter,
    /// Full outboxes sent home, one anchor CAS per superblock in them.
    pub out_flush: Counter,
    /// Retries of the Active-word reservation CAS, per malloc.
    pub active_cas: Histogram<RETRY_BUCKETS>,
    /// Retries of Anchor CASes (pop/reserve/credit-return/free-link),
    /// per operation.
    pub anchor_cas: Histogram<RETRY_BUCKETS>,
}

/// What happened on a slow path, recorded in the event ring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// A fresh superblock was carved and installed (`MallocFromNewSB`).
    SbAcquire,
    /// A superblock went EMPTY and returned to the page pool.
    SbRetire,
    /// A FULL superblock re-entered circulation as PARTIAL.
    HeapTransition,
    /// An allocation attempt exhausted its OOM backoff budget.
    OomBackoff,
    /// `trim`/`trim_to` ran; `arg` is the bytes released.
    Trim,
    /// The liveness watchdog detected a CAS retry storm; `arg` is the
    /// [`WatchSite`](crate::health::WatchSite) index.
    LivenessStorm,
    /// A maintenance pass completed; `arg` is the number of objects it
    /// acted on (magazine blocks drained + flushed + pruned).
    Maintain,
    /// The process forked with this instance's atfork hooks registered
    /// (recorded parent-side); `arg` is the parent's process generation.
    Fork,
    /// Child-side fork recovery completed; `arg` is the number of
    /// blocks sent home from orphaned magazine slots (see
    /// [`crate::fork`]).
    ChildRecover,
    /// A black-box crash report was emitted (recorded by the forensics
    /// test hooks, never from the signal handler itself — the event
    /// ring records a timestamp, which is not async-signal-safe).
    CrashReport,
    /// A post-mortem heap dump was written; `arg` is the dump version.
    HeapDump,
}

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

/// Monotonic nanoseconds since the process's telemetry epoch — the same
/// clock as the latency histograms and sample ages, so every timestamp
/// in a report is directly comparable.
fn now_nanos() -> u64 {
    monotonic_nanos()
}

/// Fixed-capacity, lock-free ring of slow-path [`Event`]s.
///
/// Recording never blocks and never allocates: on a full ring the
/// oldest event is popped to make room; if even that race is lost the
/// event is dropped and counted.
#[derive(Debug)]
pub struct EventRing {
    ring: Option<BoundedQueue<Event>>,
    dropped: Counter,
}

impl EventRing {
    /// A ring of (at least) `cap` events; a failed buffer allocation
    /// degrades to a ring that drops everything rather than failing
    /// instance construction.
    pub(crate) fn new(cap: usize) -> Self {
        EventRing { ring: BoundedQueue::new(cap), dropped: Counter::new() }
    }

    /// Records `ev`, overwriting the oldest event when full.
    pub fn record(&self, ev: Event) {
        let Some(ring) = &self.ring else {
            self.dropped.inc();
            return;
        };
        // Evict-then-push, retried enough to ride out a retire storm:
        // with only a couple of attempts, racing writers each evict an
        // event and then lose the push to a neighbour, so a burst both
        // drops thousands of events and leaves the ring far below
        // capacity (every double-failure removes two events and inserts
        // none). Eight attempts make that outcome vanishingly rare
        // while still bounding the worst case; this path only runs on
        // slow-path events, never on the malloc/free fast path.
        let mut ev = ev;
        for _ in 0..8 {
            match ring.push(ev) {
                Ok(()) => return,
                Err(back) => {
                    ev = back;
                    let _ = ring.pop(); // evict the oldest
                    core::hint::spin_loop();
                }
            }
        }
        self.dropped.inc();
    }

    /// Pops the oldest recorded event.
    pub fn pop(&self) -> Option<Event> {
        self.ring.as_ref()?.pop()
    }

    /// Events lost to eviction races or a failed ring allocation.
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

/// Bounded, lock-free ring of [`FragSample`]s — the same evict-oldest
/// discipline as [`EventRing`], sized for minutes of history.
#[derive(Debug)]
pub struct FragSeries {
    ring: Option<BoundedQueue<FragSample>>,
}

impl FragSeries {
    pub(crate) fn new(cap: usize) -> Self {
        FragSeries { ring: BoundedQueue::new(cap) }
    }

    /// Records a sample, evicting the oldest when full.
    pub(crate) fn record(&self, s: FragSample) {
        let Some(ring) = &self.ring else { return };
        let mut s = s;
        for _ in 0..2 {
            match ring.push(s) {
                Ok(()) => return,
                Err(back) => {
                    s = back;
                    let _ = ring.pop();
                }
            }
        }
    }

    /// Pops the oldest sample.
    pub fn pop(&self) -> Option<FragSample> {
        self.ring.as_ref()?.pop()
    }
}

/// All live telemetry of one allocator instance: the shard array plus
/// instance-global counters and the event ring.
#[derive(Debug)]
pub(crate) struct InstanceStats {
    /// `NUM_CLASSES * nheaps` shards, system-allocated (zeroed), laid
    /// out exactly like the heap table: index `ci * nheaps + h`.
    shards: *mut ClassShard,
    nshards: usize,
    /// Large blocks allocated / freed.
    pub large_alloc: Counter,
    pub large_free: Counter,
    /// Large mallocs served from the span cache / from the source
    /// (`hit + miss == large_alloc`), and large frees whose span went
    /// straight back to the source instead of into the cache.
    pub large_cache_hit: Counter,
    pub large_cache_miss: Counter,
    pub large_cache_bypass: Counter,
    /// Failed attempts inside the OOM retry/backoff loops.
    pub oom_backoffs: Counter,
    /// `trim`/`trim_to` invocations.
    pub trims: Counter,
    /// Slow-path trace ring.
    pub events: EventRing,
    /// Per-op latency, split by operation and serving path. Instance-
    /// global (not sharded): recording is two relaxed `fetch_add`s on
    /// lines that the slow paths already own, and the fast-path hists
    /// are only touched once per op.
    pub lat_malloc_fast: LatencyHist,
    pub lat_malloc_slow: LatencyHist,
    pub lat_malloc_large: LatencyHist,
    pub lat_free_fast: LatencyHist,
    pub lat_free_slow: LatencyHist,
    pub lat_free_large: LatencyHist,
    /// Maintenance-pass and trim-pass durations.
    pub lat_maintain: LatencyHist,
    pub lat_trim: LatencyHist,
    /// Fragmentation time series, fed by the maintenance pass.
    pub frag_series: FragSeries,
    /// Scrape-endpoint control plane (see [`crate::metrics`]).
    pub(crate) metrics: crate::metrics::MetricsState,
}

unsafe impl Send for InstanceStats {}
unsafe impl Sync for InstanceStats {}

impl InstanceStats {
    /// Allocates the shard array; `None` when the system allocator is
    /// exhausted.
    pub(crate) fn new(nshards: usize) -> Option<Self> {
        let layout = Layout::array::<ClassShard>(nshards).ok()?;
        // Zeroed memory is a valid ClassShard: every field is atomics.
        let shards = unsafe { System.alloc_zeroed(layout) } as *mut ClassShard;
        if shards.is_null() {
            return None;
        }
        Some(InstanceStats {
            shards,
            nshards,
            large_alloc: Counter::new(),
            large_free: Counter::new(),
            large_cache_hit: Counter::new(),
            large_cache_miss: Counter::new(),
            large_cache_bypass: Counter::new(),
            oom_backoffs: Counter::new(),
            trims: Counter::new(),
            events: EventRing::new(EVENT_RING_CAP),
            lat_malloc_fast: LatencyHist::new(),
            lat_malloc_slow: LatencyHist::new(),
            lat_malloc_large: LatencyHist::new(),
            lat_free_fast: LatencyHist::new(),
            lat_free_slow: LatencyHist::new(),
            lat_free_large: LatencyHist::new(),
            lat_maintain: LatencyHist::new(),
            lat_trim: LatencyHist::new(),
            frag_series: FragSeries::new(FRAG_SERIES_CAP),
            metrics: crate::metrics::MetricsState::new(),
        })
    }

    /// Shard at flat index `idx` (`ci * nheaps + h`).
    #[inline]
    pub(crate) fn shard(&self, idx: usize) -> &ClassShard {
        debug_assert!(idx < self.nshards);
        unsafe { &*self.shards.add(idx) }
    }

    /// Records a timestamped slow-path event.
    #[inline]
    pub(crate) fn record_event(&self, kind: EventKind, class: u16, arg: u64) {
        self.events.record(Event { nanos: now_nanos(), kind, class, arg });
    }
}

impl Drop for InstanceStats {
    fn drop(&mut self) {
        unsafe {
            System.dealloc(
                self.shards as *mut u8,
                Layout::array::<ClassShard>(self.nshards).unwrap(),
            );
        }
    }
}

impl<S: PageSource> Inner<S> {
    /// The stats shard of `heap` (same flat index as the heap table).
    #[inline]
    pub(crate) fn shard(&self, heap: &ProcHeap) -> &ClassShard {
        let idx = (heap as *const ProcHeap as usize - self.heaps as usize)
            / core::mem::size_of::<ProcHeap>();
        self.stats.shard(idx)
    }
}

/// Aggregated counters of one size class (all heaps summed), or of the
/// whole instance in [`StatsSnapshot::totals`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ClassStats {
    /// Size-class index.
    pub class: usize,
    /// Block size of the class (0 in `totals`).
    pub block_size: u32,
    pub malloc_cached: u64,
    pub malloc_fast: u64,
    pub malloc_slow: u64,
    pub malloc_newsb: u64,
    pub free_cached: u64,
    pub free_outbox: u64,
    pub free_local: u64,
    pub free_remote: u64,
    /// TLS-teardown frees (a subset of `free_remote`).
    pub free_teardown: u64,
    pub free_empty: u64,
    pub partial_push: u64,
    pub partial_pop: u64,
    pub partial_reuse: u64,
    /// Reopened-in-place superblocks (a subset of `malloc_newsb`).
    pub sb_reopen: u64,
    pub mag_refill: u64,
    pub mag_flush: u64,
    pub out_flush: u64,
    /// Active-word reservation CAS retries per malloc, bucketed
    /// 0 / 1 / 2–3 / ... / 64+ (see [`bucket_label`]).
    pub active_cas: [u64; RETRY_BUCKETS],
    /// Anchor CAS retries per operation, same buckets.
    pub anchor_cas: [u64; RETRY_BUCKETS],
}

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

    fn accumulate(&mut self, shard: &ClassShard) {
        self.malloc_cached += shard.malloc_cached.get();
        self.malloc_fast += shard.malloc_fast.get();
        self.malloc_slow += shard.malloc_slow.get();
        self.malloc_newsb += shard.malloc_newsb.get();
        self.free_cached += shard.free_cached.get();
        self.free_outbox += shard.free_outbox.get();
        self.free_local += shard.free_local.get();
        self.free_remote += shard.free_remote.get();
        self.free_teardown += shard.free_teardown.get();
        self.free_empty += shard.free_empty.get();
        self.partial_push += shard.partial_push.get();
        self.partial_pop += shard.partial_pop.get();
        self.partial_reuse += shard.partial_reuse.get();
        self.sb_reopen += shard.sb_reopen.get();
        self.mag_refill += shard.mag_refill.get();
        self.mag_flush += shard.mag_flush.get();
        self.out_flush += shard.out_flush.get();
        let a = shard.active_cas.snapshot();
        let n = shard.anchor_cas.snapshot();
        for i in 0..RETRY_BUCKETS {
            self.active_cas[i] += a[i];
            self.anchor_cas[i] += n[i];
        }
    }

    fn add(&mut self, other: &ClassStats) {
        self.malloc_cached += other.malloc_cached;
        self.malloc_fast += other.malloc_fast;
        self.malloc_slow += other.malloc_slow;
        self.malloc_newsb += other.malloc_newsb;
        self.free_cached += other.free_cached;
        self.free_outbox += other.free_outbox;
        self.free_local += other.free_local;
        self.free_remote += other.free_remote;
        self.free_teardown += other.free_teardown;
        self.free_empty += other.free_empty;
        self.partial_push += other.partial_push;
        self.partial_pop += other.partial_pop;
        self.partial_reuse += other.partial_reuse;
        self.sb_reopen += other.sb_reopen;
        self.mag_refill += other.mag_refill;
        self.mag_flush += other.mag_flush;
        self.out_flush += other.out_flush;
        for i in 0..RETRY_BUCKETS {
            self.active_cas[i] += other.active_cas[i];
            self.anchor_cas[i] += other.anchor_cas[i];
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"class\":{},\"size\":{},\"malloc_cached\":{},\"malloc_fast\":{},\
             \"malloc_slow\":{},\"malloc_newsb\":{},\"free_cached\":{},\
             \"free_outbox\":{},\"free_local\":{},\"free_remote\":{},\
             \"free_teardown\":{},\"free_empty\":{},\
             \"partial_push\":{},\"partial_pop\":{},\"partial_reuse\":{},\
             \"sb_reopen\":{},\"mag_refill\":{},\"mag_flush\":{},\"out_flush\":{},\
             \"active_cas\":{},\"anchor_cas\":{}}}",
            self.class,
            self.block_size,
            self.malloc_cached,
            self.malloc_fast,
            self.malloc_slow,
            self.malloc_newsb,
            self.free_cached,
            self.free_outbox,
            self.free_local,
            self.free_remote,
            self.free_teardown,
            self.free_empty,
            self.partial_push,
            self.partial_pop,
            self.partial_reuse,
            self.sb_reopen,
            self.mag_refill,
            self.mag_flush,
            self.out_flush,
            json_array(&self.active_cas),
            json_array(&self.anchor_cas),
        )
    }
}

fn json_array(v: &[u64]) -> String {
    let items: Vec<String> = v.iter().map(|x| x.to_string()).collect();
    format!("[{}]", items.join(","))
}

/// Per-op latency distributions of the snapshot, one
/// [`LatencySnapshot`] per (operation, serving path) pair.
#[derive(Clone, Debug, Default)]
pub struct LatencyStats {
    /// Mallocs served by the Active fast path.
    pub malloc_fast: LatencySnapshot,
    /// Mallocs served by a partial or fresh superblock.
    pub malloc_slow: LatencySnapshot,
    /// Large (direct-mmap) allocations.
    pub malloc_large: LatencySnapshot,
    /// Frees that were a plain free-list push.
    pub free_fast: LatencySnapshot,
    /// Frees that emptied a superblock or relinked FULL→PARTIAL.
    pub free_slow: LatencySnapshot,
    /// Large-block releases.
    pub free_large: LatencySnapshot,
    /// Maintenance-pass durations.
    pub maintain: LatencySnapshot,
    /// Trim-pass durations.
    pub trim: LatencySnapshot,
}

impl LatencyStats {
    /// All malloc paths combined.
    pub fn malloc_all(&self) -> LatencySnapshot {
        let mut m = self.malloc_fast;
        m.merge(&self.malloc_slow);
        m.merge(&self.malloc_large);
        m
    }

    /// All free paths combined.
    pub fn free_all(&self) -> LatencySnapshot {
        let mut m = self.free_fast;
        m.merge(&self.free_slow);
        m.merge(&self.free_large);
        m
    }

    fn paths(&self) -> [(&'static str, &LatencySnapshot); 8] {
        [
            ("malloc_fast", &self.malloc_fast),
            ("malloc_slow", &self.malloc_slow),
            ("malloc_large", &self.malloc_large),
            ("free_fast", &self.free_fast),
            ("free_slow", &self.free_slow),
            ("free_large", &self.free_large),
            ("maintain", &self.maintain),
            ("trim", &self.trim),
        ]
    }

    fn to_json(&self) -> String {
        let parts: Vec<String> = self
            .paths()
            .iter()
            .map(|(name, s)| {
                format!(
                    "\"{}\":{{\"count\":{},\"sum_nanos\":{},\"p50\":{},\"p90\":{},\
                     \"p99\":{},\"p999\":{},\"buckets\":{}}}",
                    name,
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
            let committed =
                c.malloc_newsb.saturating_sub(c.free_empty) * SB_SIZE as u64;
            let live = c.mallocs().saturating_sub(c.frees()) * c.block_size as u64;
            // Clamp to committed: racing counters (or blocks freed into
            // a just-retired superblock) can momentarily overshoot.
            let live = live.min(committed);
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
    let mut committed = 0u64;
    let mut live = 0u64;
    for ci in 0..NUM_CLASSES {
        let (mut newsb, mut empt, mut mallocs, mut frees) = (0u64, 0u64, 0u64, 0u64);
        for h in 0..inner.nheaps {
            let s = inner.stats.shard(ci * inner.nheaps + h);
            newsb += s.malloc_newsb.get();
            empt += s.free_empty.get();
            mallocs += s.malloc_cached.get()
                + s.malloc_fast.get()
                + s.malloc_slow.get()
                + s.malloc_newsb.get();
            frees += s.free_cached.get()
                + s.free_outbox.get()
                + s.free_local.get()
                + s.free_remote.get();
        }
        let c = newsb.saturating_sub(empt) * SB_SIZE as u64;
        committed += c;
        live += (mallocs.saturating_sub(frees) * CLASS_SIZES[ci] as u64).min(c);
    }
    let large = inner.large_live().1 as u64;
    inner.stats.frag_series.record(FragSample {
        nanos: now_nanos(),
        small_committed_bytes: committed,
        small_live_bytes: live,
        large_live_bytes: large,
        os_live_bytes: inner.source.stats().live_bytes as u64,
        external_frag_permille: frag_permille(live, committed),
    });
}

/// A consistent-enough aggregate of every counter in the instance.
///
/// Each counter is read once with `Relaxed` ordering; counters advanced
/// by in-flight operations may differ by the handful currently
/// executing, but every counter is monotone between snapshots.
#[derive(Clone, Debug)]
pub struct StatsSnapshot {
    /// Per-size-class aggregates (length [`NUM_CLASSES`]).
    pub classes: Vec<ClassStats>,
    /// Sum over all classes (`class`/`block_size` zero).
    pub totals: ClassStats,
    /// Large (direct-mmap) blocks allocated / freed / currently live.
    pub large_alloc: u64,
    pub large_free: u64,
    pub large_live: u64,
    /// Large mallocs served from the span cache / from the page source
    /// (`hit + miss == large_alloc`), and large frees whose span went
    /// straight back to the source (hardened, over a bound, or no slot).
    pub large_cache_hit: u64,
    pub large_cache_miss: u64,
    pub large_cache_bypass: u64,
    /// Failed attempts inside OOM retry/backoff loops.
    pub oom_backoffs: u64,
    /// `trim`/`trim_to` invocations.
    pub trims: u64,
    /// Events the ring had to drop.
    pub events_dropped: u64,
    /// Process-wide queue/stack CAS retries from `lockfree-structs`
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
        let r = &self.reconciliation;
        format!(
            "{{\"allocator\":\"lfmalloc\",\"totals\":{},\"classes\":[{}],\
             \"large\":{{\"alloc\":{},\"free\":{},\"live\":{},\"cache_hit\":{},\
             \"cache_miss\":{},\"cache_bypass\":{}}},\
             \"oom_backoffs\":{},\"trims\":{},\"events_dropped\":{},\
             \"structs_cas\":{{\"queue_enqueue\":{},\"queue_dequeue\":{},\
             \"stack_push\":{},\"stack_pop\":{}}},\
             \"os\":{{\"live_bytes\":{},\"peak_bytes\":{},\"mmap_calls\":{},\
             \"munmap_calls\":{}}},\
             \"carves\":{{\"superblock\":{},\"descriptor\":{}}},\
             \"reconcile\":{{\"superblock_bytes\":{},\"descriptor_slab_bytes\":{},\
             \"large_bytes\":{},\"large_cached_bytes\":{},\"source_live_bytes\":{},\
             \"ok\":{}}},\
             \"health\":{},\"latency\":{},\"fragmentation\":{}{}}}",
            self.totals.to_json(),
            classes.join(","),
            self.large_alloc,
            self.large_free,
            self.large_live,
            self.large_cache_hit,
            self.large_cache_miss,
            self.large_cache_bypass,
            self.oom_backoffs,
            self.trims,
            self.events_dropped,
            self.structs_cas.queue_enqueue_retries,
            self.structs_cas.queue_dequeue_retries,
            self.structs_cas.stack_push_retries,
            self.structs_cas.stack_pop_retries,
            self.os.live_bytes,
            self.os.peak_bytes,
            self.os.os_allocs,
            self.os.os_frees,
            self.sb_carves,
            self.desc_carves,
            r.superblock_bytes,
            r.descriptor_slab_bytes,
            r.large_bytes,
            r.large_cached_bytes,
            r.source_live_bytes,
            r.reconciles(),
            self.health.to_json(),
            self.latency.to_json(),
            self.fragmentation.to_json(),
            {
                #[cfg(feature = "profile")]
                {
                    format!(",\"profile\":{}", self.profile.to_json())
                }
                #[cfg(not(feature = "profile"))]
                {
                    String::new()
                }
            },
        )
    }
}

impl<S: PageSource> LfMalloc<S> {
    /// A consistent aggregate of every telemetry counter; see
    /// [`StatsSnapshot`] for the racing-increment tolerance. Does not
    /// drain the event ring (use [`take_events`](Self::take_events)).
    pub fn stats(&self) -> StatsSnapshot {
        let inner = self.inner();
        let mut classes: Vec<ClassStats> = (0..NUM_CLASSES)
            .map(|ci| ClassStats {
                class: ci,
                block_size: CLASS_SIZES[ci],
                ..ClassStats::default()
            })
            .collect();
        for ci in 0..NUM_CLASSES {
            for h in 0..inner.nheaps {
                classes[ci].accumulate(inner.stats.shard(ci * inner.nheaps + h));
            }
        }
        let mut totals = ClassStats::default();
        for c in &classes {
            totals.add(c);
        }
        let latency = LatencyStats {
            malloc_fast: inner.stats.lat_malloc_fast.snapshot(),
            malloc_slow: inner.stats.lat_malloc_slow.snapshot(),
            malloc_large: inner.stats.lat_malloc_large.snapshot(),
            free_fast: inner.stats.lat_free_fast.snapshot(),
            free_slow: inner.stats.lat_free_slow.snapshot(),
            free_large: inner.stats.lat_free_large.snapshot(),
            maintain: inner.stats.lat_maintain.snapshot(),
            trim: inner.stats.lat_trim.snapshot(),
        };
        let (large_live, large_live_bytes) = inner.large_live();
        let fragmentation = FragmentationStats::compute(&classes, large_live_bytes as u64);
        StatsSnapshot {
            classes,
            totals,
            large_alloc: inner.stats.large_alloc.get(),
            large_free: inner.stats.large_free.get(),
            large_live: large_live as u64,
            large_cache_hit: inner.stats.large_cache_hit.get(),
            large_cache_miss: inner.stats.large_cache_miss.get(),
            large_cache_bypass: inner.stats.large_cache_bypass.get(),
            oom_backoffs: inner.stats.oom_backoffs.get(),
            trims: inner.stats.trims.get(),
            events_dropped: inner.stats.events.dropped(),
            structs_cas: lockfree_structs::stats::snapshot(),
            os: inner.source.stats(),
            sb_carves: inner.sb_pool.carve_count(),
            desc_carves: inner.desc_pool.carve_count(),
            reconciliation: inner.reconcile_bytes(),
            health: self.health(),
            latency,
            fragmentation,
            #[cfg(feature = "profile")]
            profile: self.profile(),
        }
    }

    /// Drains and returns the recorded slow-path events, oldest first.
    pub fn take_events(&self) -> Vec<Event> {
        let mut out = Vec::new();
        while let Some(ev) = self.inner().stats.events.pop() {
            out.push(ev);
        }
        out
    }

    /// Drains and returns the fragmentation time series, oldest first
    /// (one point per maintenance pass; see [`FragSample`]).
    pub fn take_frag_series(&self) -> Vec<FragSample> {
        let mut out = Vec::new();
        while let Some(s) = self.inner().stats.frag_series.pop() {
            out.push(s);
        }
        out
    }

    /// Writes a `malloc_stats_print`-style human-readable report of
    /// [`stats`](Self::stats), draining the event ring into a trailing
    /// trace section.
    pub fn dump_stats(&self, w: &mut impl Write) -> std::io::Result<()> {
        let s = self.stats();
        let t = &s.totals;
        writeln!(w, "___ Begin lfmalloc statistics ___")?;
        writeln!(
            w,
            "mallocs: {:>12}  (cached {} / fast {} / partial {} / new-sb {})",
            t.mallocs(),
            t.malloc_cached,
            t.malloc_fast,
            t.malloc_slow,
            t.malloc_newsb
        )?;
        writeln!(
            w,
            "frees:   {:>12}  (cached {} / outbox {} / local {} / remote {} [{} in TLS teardown] / emptied {} superblocks)",
            t.frees(),
            t.free_cached,
            t.free_outbox,
            t.free_local,
            t.free_remote,
            t.free_teardown,
            t.free_empty
        )?;
        writeln!(
            w,
            "partial: {:>12} push / {} pop / {} blocks reused / {} EMPTY reopened in place",
            t.partial_push, t.partial_pop, t.partial_reuse, t.sb_reopen
        )?;
        writeln!(
            w,
            "magazines: {:>10} refills / {} flushes / {} outbox flushes",
            t.mag_refill, t.mag_flush, t.out_flush
        )?;
        writeln!(
            w,
            "large:   {:>12} alloc / {} free / {} live  (span cache: {} hit / {} miss / {} bypassed, \
             {} spans holding {} bytes)",
            s.large_alloc,
            s.large_free,
            s.large_live,
            s.large_cache_hit,
            s.large_cache_miss,
            s.large_cache_bypass,
            s.health.large_cached_spans,
            s.health.large_cached_bytes
        )?;
        writeln!(w, "oom backoff attempts: {}   trims: {}", s.oom_backoffs, s.trims)?;
        writeln!(w, "latency (ns, power-of-two bucket upper bounds):")?;
        writeln!(
            w,
            "  {:<13} {:>10} {:>8} {:>8} {:>8} {:>8} {:>8}",
            "path", "count", "p50", "p90", "p99", "p99.9", "mean"
        )?;
        for (name, l) in s.latency.paths() {
            if l.count() == 0 {
                continue;
            }
            writeln!(
                w,
                "  {:<13} {:>10} {:>8} {:>8} {:>8} {:>8} {:>8}",
                name,
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
        write_histogram(w, "  active (reserve)", &t.active_cas)?;
        write_histogram(w, "  anchor (pop/free)", &t.anchor_cas)?;
        writeln!(
            w,
            "descriptors: {} slots = {} avail + {} reserve + {} warm + {} on partial lists + {} in use; \
             {} EMPTY parked, {} B of EMPTY superblocks retained",
            s.health.descriptor_slots,
            s.health.desc_avail,
            s.health.desc_reserve,
            s.health.desc_warm,
            s.health.partial_listed.iter().sum::<usize>(),
            s.health.descriptors_in_use(),
            s.health.parked_empty,
            s.health.retained_empty_bytes()
        )?;
        writeln!(
            w,
            "structs: queue cas retries {}/{} (enq/deq), stack {}/{} (push/pop) [process-wide]",
            s.structs_cas.queue_enqueue_retries,
            s.structs_cas.queue_dequeue_retries,
            s.structs_cas.stack_push_retries,
            s.structs_cas.stack_pop_retries
        )?;
        let r = &s.reconciliation;
        writeln!(
            w,
            "os: {} live bytes = {} superblock + {} descriptor-slab + {} large + {} cached large \
             (peak {}, mmap {}, munmap {}, carves {} sb / {} desc){}",
            r.source_live_bytes,
            r.superblock_bytes,
            r.descriptor_slab_bytes,
            r.large_bytes,
            r.large_cached_bytes,
            s.os.peak_bytes,
            s.os.os_allocs,
            s.os.os_frees,
            s.sb_carves,
            s.desc_carves,
            if r.reconciles() { "" } else { "  [MISMATCH]" }
        )?;
        let h = &s.health;
        writeln!(
            w,
            "health: {} (policy {}, ceiling {})  storms {}  throttles {}",
            if h.is_degraded() { "DEGRADED" } else { "ok" },
            h.policy.label(),
            h.retry_ceiling,
            h.storms_total(),
            h.throttle_activations
        )?;
        writeln!(
            w,
            "maintenance: {} passes ({} reaper) — {} quarantine flushed, \
             {} empty pruned, audit slices {}/{} flagged, last full audit {}",
            h.maintain_passes,
            h.reaper_passes,
            h.quarantine_flushed,
            h.empty_pruned,
            h.audit_slice_flagged,
            h.audit_slice_checked,
            match h.last_audit_violations {
                Some(v) => format!("{v} violations"),
                None => "never ran".into(),
            }
        )?;
        writeln!(
            w,
            "fork: generation {}  child recoveries {}  reentrant-alloc rejections {}",
            h.fork_generation,
            h.fork_recoveries,
            self.misuse_counters().count(crate::harden::MisuseKind::ReentrantAlloc)
        )?;
        writeln!(w, "per size class (active classes only):")?;
        writeln!(
            w,
            "  {:>5} {:>7} {:>10} {:>7} {:>10} {:>8} {:>7} {:>18}",
            "class", "size", "mallocs", "fast%", "frees", "remote", "new-sb", "partial p/p/reuse"
        )?;
        for c in s.classes.iter().filter(|c| c.mallocs() + c.frees() > 0) {
            // "fast" as the application sees it: no slow-path rung.
            let fast_pct = if c.mallocs() > 0 {
                100.0 * (c.malloc_cached + c.malloc_fast) as f64 / c.mallocs() as f64
            } else {
                0.0
            };
            writeln!(
                w,
                "  {:>5} {:>7} {:>10} {:>6.1}% {:>10} {:>8} {:>7} {:>7}/{}/{}",
                c.class,
                c.block_size,
                c.mallocs(),
                fast_pct,
                c.frees(),
                c.remote_frees(),
                c.malloc_newsb,
                c.partial_push,
                c.partial_pop,
                c.partial_reuse
            )?;
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
    write!(w, "{name}:")?;
    for (i, count) in buckets.iter().enumerate() {
        write!(w, "  {}:{}", bucket_label(i, RETRY_BUCKETS), count)?;
    }
    writeln!(w)
}

/// Whether `heap` is the heap the *calling thread* would use for its
/// class — the local/remote free discriminator.
#[inline]
pub(crate) fn is_local_heap<S: PageSource>(inner: &Inner<S>, heap: &ProcHeap) -> bool {
    core::ptr::eq(inner.heap_for(heap.class()), heap)
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
        let mut got = Vec::new();
        while let Some(ev) = ring.pop() {
            got.push(ev.arg);
        }
        assert_eq!(got.len(), 4, "ring keeps its capacity");
        assert_eq!(got, vec![6, 7, 8, 9], "oldest events were evicted");
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
