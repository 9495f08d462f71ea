//! What the core can report, as data: the four schema tables and the
//! small enums the observation seam ([`crate::observe`]) is called with.
//! Compiled in every build and naming no cargo feature — a `Count` or an
//! [`EventKind`] costs nothing until a `stats` build gives it somewhere
//! to go.
//!
//! The tables are the schema (DESIGN.md §9): [`class_counters!`] has one
//! row per per-class counter, [`instance_counters!`] one per instance-wide
//! number, [`latency_paths!`] one per latency histogram and
//! [`health_numbers!`] one per number of the health snapshot. [`Count`],
//! [`Global`] and [`Lat`] are generated from them here; `ClassStats`,
//! `StatsSnapshot`'s rows, `LatencyStats` and the public tables
//! `CLASS_COUNTERS`, `INSTANCE_COUNTERS` and `LATENCY_PATHS` are generated
//! from them in `stats.rs`, and `HealthState`'s counters, `HealthSnapshot`
//! and `HEALTH_ROWS` in `health.rs`. Every renderer — JSON, the text dump,
//! OpenMetrics, the heap dump, the crash report, `lfstat` — loops over
//! those tables. A new counter is one row here and its `observe` call.

/// One row of a schema table — `CLASS_COUNTERS`, `INSTANCE_COUNTERS`,
/// `LATENCY_PATHS` or [`HEALTH_ROWS`](crate::health::HEALTH_ROWS) — whose
/// value a `T` holds.
#[derive(Debug)]
pub struct CounterInfo<T, V = u64> {
    /// The field of `T`, and its key in `T`'s JSON object (a dotted key is
    /// a member of a nested object).
    pub name: &'static str,
    /// Where a stats-JSON record holds it, as a `malloc_api::json` path
    /// (for a class counter, its sum over the classes).
    pub key: &'static str,
    /// OpenMetrics type (`counter`, `gauge` or `histogram`), family (a
    /// counter's samples end `_total`) and this row's label in it,
    /// `key="value"` or empty.
    pub kind: &'static str,
    pub family: &'static str,
    pub label: &'static str,
    /// One line saying what is counted.
    pub help: &'static str,
    /// Reads the row out of a `T`.
    pub get: fn(&T) -> V,
}

/// Where a renderer writes: a `String` for the snapshots, the crash
/// path's fixed buffer for the post-mortems, which may not allocate.
pub(crate) trait Sink {
    fn push_str(&mut self, s: &str);
    fn push_dec(&mut self, v: u64);
}

impl Sink for String {
    fn push_str(&mut self, s: &str) {
        String::push_str(self, s);
    }

    fn push_dec(&mut self, v: u64) {
        use core::fmt::Write as _;
        let _ = write!(self, "{v}");
    }
}

/// Writes `rows` as the members of a JSON object, without its braces:
/// `"key":value`, `null` for `None`, and a run of keys that share a
/// dotted prefix as one nested object (`large.alloc` is `alloc` in
/// `"large":{…}`).
pub(crate) fn json_members<'a, V: Into<Option<u64>>>(
    out: &mut impl Sink,
    rows: impl IntoIterator<Item = (&'a str, V)>,
) {
    let mut prev = None; // the previous row's object, once there is a row
    for (key, v) in rows {
        let (object, name) = key.split_once('.').map_or((None, key), |(o, n)| (Some(o), n));
        let inside = object.is_some() && prev == Some(object);
        match prev {
            Some(Some(_)) if !inside => out.push_str("},"),
            Some(_) => out.push_str(","),
            None => {}
        }
        if let (Some(o), false) = (object, inside) {
            out.push_str("\"");
            out.push_str(o);
            out.push_str("\":{");
        }
        out.push_str("\"");
        out.push_str(name);
        out.push_str("\":");
        match v.into() {
            Some(v) => out.push_dec(v),
            None => out.push_str("null"),
        }
        prev = Some(object);
    }
    if let Some(Some(_)) = prev {
        out.push_str("}");
    }
}

/// The per-class counters: `field Variant "OpenMetrics family" "label"
/// "help";` — the field is the `ClassStats` member and the JSON key.
/// Rows of one family are adjacent.
macro_rules! class_counters {
    ($with:ident $($arg:tt)*) => {
        $with! { $($arg)*
            malloc_cached MallocCached "lfmalloc_mallocs" "path=\"cached\""
                "Mallocs served from the calling thread's magazine (no CAS).";
            malloc_fast MallocFast "lfmalloc_mallocs" "path=\"fast\""
                "Mallocs served by MallocFromActive (reserve CAS + pop CAS): single blocks, and a magazine refill's k-block pop, which hands its first block out.";
            malloc_slow MallocSlow "lfmalloc_mallocs" "path=\"partial\""
                "Mallocs served by MallocFromPartial.";
            malloc_newsb MallocNewsb "lfmalloc_mallocs" "path=\"newsb\""
                "Mallocs served by MallocFromNewSB, or by reopening a parked EMPTY superblock.";
            free_cached FreeCached "lfmalloc_frees" "path=\"cached\""
                "Frees absorbed by the calling thread's magazine (no CAS; always local); not counted again when a flush sends the block home.";
            free_outbox FreeOutbox "lfmalloc_frees" "path=\"outbox\""
                "Remote frees parked in the freeing thread's outbox (no CAS), in the owning heap's shard; not counted again when the outbox goes home.";
            free_local FreeLocal "lfmalloc_frees" "path=\"local\""
                "Frees pushed by a thread mapped to the owning heap.";
            free_remote FreeRemote "lfmalloc_frees" "path=\"remote\""
                "Frees by a thread mapped to another heap that took the paper's one-CAS push (remote frees that could not be parked).";
            free_teardown FreeTeardown "lfmalloc_frees" "path=\"teardown\""
                "Frees issued during TLS teardown (thread identity gone); a subset of free_remote.";
            free_empty FreeEmpty "lfmalloc_superblocks_retired" ""
                "Frees that emptied their superblock (it stays on its descriptor for reuse).";
            partial_push PartialPush "lfmalloc_partial" "op=\"push\""
                "HeapPutPartial executions (superblock parked partial).";
            partial_pop PartialPop "lfmalloc_partial" "op=\"pop\""
                "HeapGetPartial successes (heap slot or class list).";
            partial_reuse PartialReuse "lfmalloc_partial" "op=\"reuse\""
                "Blocks served out of a partial superblock.";
            sb_reopen SbReopen "lfmalloc_superblocks_reopened" ""
                "EMPTY superblocks reopened where they were parked, by the malloc that took their descriptor (a subset of malloc_newsb).";
            mag_refill MagRefill "lfmalloc_magazine_batches" "op=\"refill\""
                "Magazine refills: one trip down the malloc ladder for up to k blocks.";
            mag_flush MagFlush "lfmalloc_magazine_batches" "op=\"flush\""
                "Magazine overflows: half a magazine (a whole mid bin) returned to its superblocks.";
            out_flush OutFlush "lfmalloc_magazine_batches" "op=\"outbox_flush\""
                "Full outboxes sent home, one anchor CAS per superblock in them.";
        }
    };
}
// Expanded a second time by `stats.rs`, which a default build lacks.
#[allow(unused_imports)]
pub(crate) use class_counters;

/// The instance-wide numbers: `field Variant "JSON key" "OpenMetrics
/// family" "label" "help";` — the field is the `StatsSnapshot` member, and
/// a dotted key is a member of a JSON object. A row with a variant is a
/// counter, kept off the shards; a row without one is a gauge, read when
/// the snapshot is taken. Rows of one family, and of one object, are
/// adjacent.
macro_rules! instance_counters {
    ($with:ident $($arg:tt)*) => {
        $with! { $($arg)*
            large_alloc LargeAlloc "large.alloc" "lfmalloc_large" "op=\"alloc\""
                "Large (direct-mmap) blocks allocated.";
            large_free LargeFree "large.free" "lfmalloc_large" "op=\"free\""
                "Large blocks freed.";
            large_live "large.live" "lfmalloc_large_live" ""
                "Large blocks live now: mapped, minus the spans parked in the span cache.";
            large_cache_hit LargeCacheHit "large.cache_hit" "lfmalloc_large_cache" "outcome=\"hit\""
                "Large mallocs served from the span cache.";
            large_cache_miss LargeCacheMiss "large.cache_miss" "lfmalloc_large_cache" "outcome=\"miss\""
                "Large mallocs served by the page source (hit + miss = large_alloc).";
            large_cache_bypass LargeCacheBypass "large.cache_bypass" "lfmalloc_large_cache" "outcome=\"bypass\""
                "Large frees whose span went straight back to the source (hardened, over a bound, or no slot).";
            oom_backoffs OomBackoffs "oom_backoffs" "lfmalloc_oom_backoffs" ""
                "Failed attempts inside the OOM backoff loops.";
            trims Trims "trims" "lfmalloc_trims" ""
                "trim and trim_to calls.";
            events_dropped "events_dropped" "lfmalloc_events_dropped" ""
                "Slow-path trace events lost to ring overflow.";
        }
    };
}
#[allow(unused_imports)]
pub(crate) use instance_counters;

/// The latency histograms: `field Variant "OpenMetrics family" "label"
/// "help";` — the field is the `LatencyStats` member and the JSON key.
/// Rows of one family are adjacent.
macro_rules! latency_paths {
    ($with:ident $($arg:tt)*) => {
        $with! { $($arg)*
            malloc_fast MallocFast "lfmalloc_malloc_latency_seconds" "path=\"fast\""
                "Trips down the malloc ladder served by MallocFromActive: a magazine refill's k-block pop, or one block for a thread without a magazine. Never a magazine hit.";
            malloc_slow MallocSlow "lfmalloc_malloc_latency_seconds" "path=\"slow\""
                "Ladder trips served by a partial or newly opened superblock.";
            malloc_large MallocLarge "lfmalloc_malloc_latency_seconds" "path=\"large\""
                "Large (direct-mmap) allocations.";
            free_fast FreeFast "lfmalloc_free_latency_seconds" "path=\"fast\""
                "Anchor pushes that were a plain free-list push: one block, or a magazine or outbox flush's chain. Never a free the magazine or the outbox absorbed.";
            free_slow FreeSlow "lfmalloc_free_latency_seconds" "path=\"slow\""
                "Pushes that emptied a superblock or relinked FULL to PARTIAL.";
            free_large FreeLarge "lfmalloc_free_latency_seconds" "path=\"large\""
                "Large-block releases.";
            maintain Maintain "lfmalloc_maintenance_latency_seconds" "pass=\"maintain\""
                "Maintenance-pass durations.";
            trim Trim "lfmalloc_maintenance_latency_seconds" "pass=\"trim\""
                "Trim-pass durations.";
        }
    };
}
#[allow(unused_imports)]
pub(crate) use latency_paths;

/// The health numbers, what [`HealthSnapshot`](crate::health::HealthSnapshot)
/// holds besides its policy and its per-class `partial_listed`: `field[Site
/// "site"]`, `field(type) Variant` or `field(type) {reader}`, then
/// `"OpenMetrics family" "label" "help";`. The field is the snapshot's
/// member and its JSON key. A row with a site or a variant is a counter, a
/// word of `HealthState` that the core adds to; a storm row's word is its
/// [`WatchSite`](crate::health::WatchSite)'s, and its key is
/// `storms.<site>`. A row with a reader is a gauge, which `health()` reads
/// out of the instance when the snapshot is taken. Rows of one family are
/// adjacent, and the descriptor gauges come last: OpenMetrics adds the
/// derived places to their family.
macro_rules! health_numbers {
    ($with:ident $($arg:tt)*) => {
        $with! { $($arg)*
            storms[ActiveReserve "active.reserve"] "lfmalloc_liveness_storms" "site=\"active.reserve\""
                "Retry storms (an operation failing retry_ceiling CASes in a row) at malloc_from_active's credit-reservation CAS on the Active word.";
            storms[ActivePop "active.pop"] "lfmalloc_liveness_storms" "site=\"active.pop\""
                "Retry storms at malloc_from_active's block-pop CAS on the anchor.";
            storms[PartialReserve "partial.reserve"] "lfmalloc_liveness_storms" "site=\"partial.reserve\""
                "Retry storms at malloc_from_partial's credit-reservation CAS on a partial anchor.";
            storms[PartialPop "partial.pop"] "lfmalloc_liveness_storms" "site=\"partial.pop\""
                "Retry storms at malloc_from_partial's block pop and heap_get_partial's heap-slot exchange.";
            storms[UpdateActive "active.update"] "lfmalloc_liveness_storms" "site=\"active.update\""
                "Retry storms at update_active's return of unused credits to the anchor.";
            storms[FreeLink "free.link"] "lfmalloc_liveness_storms" "site=\"free.link\""
                "Retry storms at free's push of a block onto its superblock's free list.";
            maintain_passes(u64) MaintainPasses "lfmalloc_maintain_passes" ""
                "Completed maintenance passes, explicit and reaper-driven.";
            reaper_passes(u64) ReaperPasses "lfmalloc_reaper_passes" ""
                "Maintenance passes driven by the background reaper.";
            quarantine_flushed(u64) QuarantineFlushed "lfmalloc_quarantine_flushed" ""
                "Quarantined blocks released by maintenance.";
            empty_pruned(u64) EmptyPruned "lfmalloc_empty_pruned" ""
                "EMPTY descriptors pruned off heap slots and partial lists by maintenance.";
            audit_slice_checked(u64) AuditSliceChecked "lfmalloc_audit_slice_checked" ""
                "Descriptors checked by bounded audit slices.";
            audit_slice_flagged(u64) AuditSliceFlagged "lfmalloc_audit_slice_flagged" ""
                "Advisory flags raised by audit slices (racy: a slice runs beside the allocator).";
            fork_recoveries(u64) ForkRecoveries "lfmalloc_fork_recoveries" ""
                "Child-side fork recoveries this instance performed.";
            retry_ceiling(u32) {|i| i.config.liveness.retry_ceiling} "lfmalloc_liveness_retry_ceiling" ""
                "Consecutive failed CASes of one operation that make a storm.";
            last_audit_violations(Option<u64>) {|i| i.health.last_audit()} "lfmalloc_last_audit_violations" ""
                "Violations the last full audit() reported; none before the first.";
            fork_generation(u64) {|i| i.fork.recovered_generation()} "lfmalloc_fork_generation" ""
                "Process-fork generation this instance has recovered to: the process's, unless no allocator call has run in a forked child yet.";
            quarantine_depth(usize) {|i| i.quarantine_depth()} "lfmalloc_quarantine_depth" ""
                "Blocks in the hardened-mode quarantine now.";
            magazine_slots(usize) {crate::magazine::owned_slots} "lfmalloc_magazine_slots" ""
                "Thread-magazine slots owned now, by live threads or by exited ones nobody has adopted or drained: it follows the threads alive at once, not the number that ever ran.";
            map_leaves(usize) {|i| i.frames.leaf_count()} "lfmalloc_map_leaves" ""
                "Frame-map leaves: a 1 MiB mapping (outside os_live_bytes, resident a page at a time) per 2 GiB a superblock was ever opened in, kept until drop.";
            large_cached_spans(usize) {crate::large::cached_spans} "lfmalloc_large_cached_spans" ""
                "Freed large spans parked in the span cache for the next large malloc (at most 8).";
            large_cached_bytes(usize) {crate::large::cached_bytes} "lfmalloc_large_cached_bytes" ""
                "OS bytes those spans hold (at most 4 MiB).";
            os_live_bytes(usize) {|i| i.source.stats().live_bytes} "lfmalloc_os_live_bytes" ""
                "OS bytes mapped now.";
            os_watermark(Option<usize>) {|i| i.health.watermark()} "lfmalloc_os_watermark_bytes" ""
                "The last trim target handed to maintenance; none before the first.";
            parked_empty(usize) {crate::health::parked_empty} "lfmalloc_parked_empty" ""
                "EMPTY descriptors parked where their superblock went EMPTY (a heap's Partial slot or a partial list), each holding its 16 KiB until the class's next malloc reopens it or maintenance moves it to the warm stack.";
            descriptor_slots(usize) {|i| i.desc_pool.slot_count()} "lfmalloc_descriptor_slots" ""
                "Descriptor slots carved so far: free, on a partial list or in use.";
            desc_avail(usize) {|i| i.desc_pool.free_count(0)} "lfmalloc_descriptors" "place=\"avail\""
                "Free descriptors on DescAvail (a walk of the stack: a hint under concurrency).";
            desc_reserve(usize) {|i| i.desc_pool.free_count(1)} "lfmalloc_descriptors" "place=\"reserve\""
                "Free descriptors in the emergency reserve.";
            desc_warm(usize) {|i| i.desc_pool.free_count(2)} "lfmalloc_descriptors" "place=\"warm\""
                "Free descriptors on the warm stack, each still holding its EMPTY superblock.";
        }
    };
}
pub(crate) use health_numbers;

/// A table's enum, one variant per row that names one: invoked through
/// the table as `class_counters!(schema_enum /// docs Count)`.
macro_rules! schema_enum {
    ($(#[$doc:meta])* $name:ident $($field:ident $($variant:ident)? $($text:literal)*;)*) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Debug)]
        pub(crate) enum $name { $($($variant,)?)* }
    };
}
class_counters!(schema_enum
    /// A per-class counter: a row of [`class_counters!`], which says what
    /// each means.
    Count);
instance_counters!(schema_enum
    /// An instance-wide counter: a row of [`instance_counters!`] that
    /// names a variant.
    Global);
latency_paths!(schema_enum
    /// Which latency histogram a [`Timer`](crate::observe::Timer) stops
    /// into: a row of [`latency_paths!`].
    Lat);

/// What happened on a slow path, recorded in the event ring.
// `CrashReport` and `HeapDump` are recorded by `forensics` builds only.
#[allow(dead_code)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// A superblock was opened and installed: a fresh one
    /// (`MallocFromNewSB`), or an EMPTY one off the warm stack or out of
    /// the slot it was parked in.
    SbAcquire,
    /// A superblock went EMPTY. It stays on its descriptor — parked where
    /// it was, or retired with it onto the warm stack — for the next
    /// malloc to reopen; only `trim` returns it to the page pool.
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
